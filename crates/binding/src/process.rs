//! Process binding: synchronizing processes like shared data (§6.4).
//!
//! The paper introduces a virtual-processor abstract data type (`PROC`);
//! a process raises its own *permission level* and other processes bind
//! it with `ex` access at a *request level*, blocking until the
//! permission level reaches the request. Barriers (Fig 6.9) and
//! pipelines (Fig 6.10) both reduce to this one mechanism.
//!
//! Permission levels here are a monotonic high-water mark, which is
//! exactly what the paper's barrier and pipeline examples use
//! (`bind(*pp, ex, , 0:i)` raises the status through level `i`).

use std::sync::Arc;

use parking_lot::{Condvar, Mutex};

/// A virtual processor handle (the paper's `PROC`).
#[derive(Debug, Clone)]
pub struct Proc {
    inner: Arc<ProcInner>,
}

#[derive(Debug)]
struct ProcInner {
    id: usize,
    level: Mutex<u64>,
    cv: Condvar,
}

impl Proc {
    /// A virtual processor with permission level 0.
    pub fn new(id: usize) -> Self {
        Proc {
            inner: Arc::new(ProcInner {
                id,
                level: Mutex::new(0),
                cv: Condvar::new(),
            }),
        }
    }

    /// The pseudo process id (the paper's `pid`).
    pub fn id(&self) -> usize {
        self.inner.id
    }

    /// The current permission level.
    pub fn level(&self) -> u64 {
        *self.inner.level.lock()
    }

    /// Raise the permission level to at least `level` (the paper's
    /// `bind(*pp, ex, , 0:level)` self-bind). Levels never go down.
    pub fn reach(&self, level: u64) {
        let mut l = self.inner.level.lock();
        if level > *l {
            *l = level;
            self.inner.cv.notify_all();
        }
    }

    /// Block until the permission level reaches `level` (the paper's
    /// blocking `bind(p, ex, blocking, level)`).
    pub fn wait_for(&self, level: u64) {
        let mut l = self.inner.level.lock();
        while *l < level {
            self.inner.cv.wait(&mut l);
        }
    }

    /// Non-blocking probe: whether the permission level reaches `level`.
    pub fn try_wait(&self, level: u64) -> bool {
        *self.inner.level.lock() >= level
    }
}

/// A barrier built from process binding (Fig 6.9): arriving raises your
/// own level to the round number, then binds every other member at that
/// level.
#[derive(Debug, Clone)]
pub struct ProcBarrier {
    procs: Vec<Proc>,
}

impl ProcBarrier {
    /// A barrier over `n` virtual processors.
    pub fn new(n: usize) -> Self {
        ProcBarrier {
            procs: (0..n).map(Proc::new).collect(),
        }
    }

    /// The member handles (give one to each thread).
    pub fn procs(&self) -> &[Proc] {
        &self.procs
    }

    /// Member `me` arrives at `round` (rounds start at 1) and waits for
    /// everyone else.
    pub fn arrive(&self, me: usize, round: u64) {
        self.procs[me].reach(round);
        for (i, p) in self.procs.iter().enumerate() {
            if i != me {
                p.wait_for(round);
            }
        }
    }
}

/// A set of virtual processors with **deadlock detection** on process
/// binds (§6.2's reliability requirement, applied to the process
/// dimension): a blocking `wait_for` registers a wait-for edge, and a
/// wait that would close a cycle of waiting processors is refused.
#[derive(Debug)]
pub struct ProcGroup {
    procs: Vec<Proc>,
    graph: Mutex<crate::deadlock::WaitForGraph>,
    cv: Condvar,
}

/// A process bind refused because it would deadlock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProcessDeadlock {
    /// The waiting processor.
    pub waiter: usize,
    /// The processor it tried to wait on.
    pub target: usize,
}

impl std::fmt::Display for ProcessDeadlock {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "process {} waiting on process {} would close a wait cycle",
            self.waiter, self.target
        )
    }
}

impl std::error::Error for ProcessDeadlock {}

impl ProcGroup {
    /// A group of `n` virtual processors.
    pub fn new(n: usize) -> Self {
        ProcGroup {
            procs: (0..n).map(Proc::new).collect(),
            graph: Mutex::new(crate::deadlock::WaitForGraph::new()),
            cv: Condvar::new(),
        }
    }

    /// The member handles.
    pub fn procs(&self) -> &[Proc] {
        &self.procs
    }

    /// Raise `me`'s permission level and wake waiters.
    pub fn reach(&self, me: usize, level: u64) {
        // Raised under the graph lock the waiters check levels under, so
        // none can miss the wake between its check and its sleep.
        let graph = self.graph.lock();
        self.procs[me].reach(level);
        drop(graph);
        self.cv.notify_all();
    }

    /// Current permission level of a member.
    pub fn level(&self, i: usize) -> u64 {
        self.procs[i].level()
    }

    /// Blocking process bind: wait until `target`'s permission level
    /// reaches `level`, refusing with [`ProcessDeadlock`] if the wait
    /// would close a cycle among the group's waiting processors.
    pub fn wait_for(&self, me: usize, target: usize, level: u64) -> Result<(), ProcessDeadlock> {
        if me == target {
            // Waiting on a level one has not reached oneself can never
            // resolve.
            if self.procs[me].level() >= level {
                return Ok(());
            }
            return Err(ProcessDeadlock { waiter: me, target });
        }
        let mut graph = self.graph.lock();
        loop {
            if self.procs[target].try_wait(level) {
                graph.clear_waits(me as u64);
                return Ok(());
            }
            if graph.would_deadlock(me as u64, &[target as u64]) {
                graph.clear_waits(me as u64);
                return Err(ProcessDeadlock { waiter: me, target });
            }
            graph.set_waits(me as u64, [target as u64]);
            self.cv.wait(&mut graph);
        }
    }
}

/// The paper's `bfork` shape (Fig 6.10): create `n` virtual processors
/// and run `body(procs, me)` on `n` OS threads, one per PROC. Returns the
/// bodies' results in processor order.
pub fn bfork<R: Send>(n: usize, body: impl Fn(&[Proc], usize) -> R + Sync) -> Vec<R> {
    let procs: Vec<Proc> = (0..n).map(Proc::new).collect();
    let procs_ref = &procs;
    let body = &body;
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..n)
            .map(|me| s.spawn(move || body(procs_ref, me)))
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    impl ProcGroup {
        /// Spin until `waiter` is registered as waiting on `target`.
        fn await_waiting(&self, waiter: usize, target: usize) {
            while !self
                .graph
                .lock()
                .would_deadlock(target as u64, &[waiter as u64])
            {
                std::thread::yield_now();
            }
        }
    }

    #[test]
    fn reach_is_monotonic() {
        let p = Proc::new(0);
        p.reach(5);
        p.reach(3);
        assert_eq!(p.level(), 5);
        assert!(p.try_wait(5));
        assert!(!p.try_wait(6));
    }

    #[test]
    fn wait_for_blocks_until_reached() {
        let p = Proc::new(1);
        let p2 = p.clone();
        let t = std::thread::spawn(move || {
            p2.wait_for(3);
            p2.level()
        });
        std::thread::sleep(std::time::Duration::from_millis(30));
        p.reach(3);
        assert!(t.join().unwrap() >= 3);
    }

    #[test]
    fn barrier_synchronises_rounds() {
        // No thread may enter round k+1 before all have finished round k.
        let barrier = Arc::new(ProcBarrier::new(4));
        let counter = Arc::new(AtomicU64::new(0));
        let mut handles = Vec::new();
        for me in 0..4 {
            let barrier = barrier.clone();
            let counter = counter.clone();
            handles.push(std::thread::spawn(move || {
                for round in 1..=5u64 {
                    counter.fetch_add(1, Ordering::SeqCst);
                    barrier.arrive(me, round);
                    // After the barrier, everyone must have arrived.
                    assert!(
                        counter.load(Ordering::SeqCst) >= round * 4,
                        "round {round} released early"
                    );
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(counter.load(Ordering::SeqCst), 20);
    }

    #[test]
    fn proc_group_detects_wait_cycles() {
        // A waits on B; B's attempt to wait on A is refused.
        let group = Arc::new(ProcGroup::new(2));
        let g2 = group.clone();
        let t = std::thread::spawn(move || g2.wait_for(0, 1, 5));
        group.await_waiting(0, 1);
        let err = group.wait_for(1, 0, 5).unwrap_err();
        assert_eq!(
            err,
            ProcessDeadlock {
                waiter: 1,
                target: 0
            }
        );
        // Releasing B's level lets A's wait finish.
        group.reach(1, 5);
        assert!(t.join().unwrap().is_ok());
    }

    #[test]
    fn proc_group_self_wait_is_refused() {
        let group = ProcGroup::new(1);
        assert!(group.wait_for(0, 0, 3).is_err());
        group.reach(0, 3);
        assert!(group.wait_for(0, 0, 3).is_ok());
    }

    #[test]
    fn proc_group_chain_cycle_detected() {
        // 0 waits on 1, 1 waits on 2, then 2's wait on 0 closes a cycle.
        let group = Arc::new(ProcGroup::new(3));
        let g = group.clone();
        let t0 = std::thread::spawn(move || g.wait_for(0, 1, 9));
        let g = group.clone();
        let t1 = std::thread::spawn(move || g.wait_for(1, 2, 9));
        group.await_waiting(0, 1);
        group.await_waiting(1, 2);
        assert!(group.wait_for(2, 0, 9).is_err());
        // Unblock the chain.
        group.reach(2, 9);
        assert!(t1.join().unwrap().is_ok());
        group.reach(1, 9);
        assert!(t0.join().unwrap().is_ok());
    }

    #[test]
    fn bfork_runs_the_paper_pipeline_shape() {
        // Fig 6.10 verbatim shape: stage pid waits on p[pid−1] per item.
        let sums = bfork(4, |procs, pid| {
            let mut acc = 0u64;
            for item in 1..=20u64 {
                if pid != 0 {
                    procs[pid - 1].wait_for(item);
                }
                acc += item;
                procs[pid].reach(item);
            }
            acc
        });
        assert_eq!(sums, vec![210; 4]);
    }

    #[test]
    fn pipeline_stages_respect_dependency() {
        // Fig 6.10: stage i may process item j only after stage i−1 has.
        // Permission level of stage i = number of items it has finished.
        const ITEMS: u64 = 50;
        let stages: Vec<Proc> = (0..4).map(Proc::new).collect();
        let log = Arc::new(Mutex::new(Vec::new()));
        let mut handles = Vec::new();
        for i in 0..4usize {
            let me = stages[i].clone();
            let prev = (i > 0).then(|| stages[i - 1].clone());
            let log = log.clone();
            handles.push(std::thread::spawn(move || {
                for item in 1..=ITEMS {
                    if let Some(prev) = &prev {
                        prev.wait_for(item);
                    }
                    log.lock().push((item, i));
                    me.reach(item);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        // For each item, stages must appear in order.
        let log = log.lock();
        for item in 1..=ITEMS {
            let order: Vec<usize> = log
                .iter()
                .filter(|(it, _)| *it == item)
                .map(|(_, s)| *s)
                .collect();
            assert_eq!(order, vec![0, 1, 2, 3], "item {item} out of order");
        }
    }
}
