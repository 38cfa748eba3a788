//! Worker-thread pool for the parallel engine's proven windows.
//!
//! [`crate::machine::CfmMachine::run`] with
//! [`crate::config::Engine::Parallel`] shards each proven window — a run
//! of slots the runtime hazard scan proved free of hazards — across
//! execution lanes, one handoff per lane per window (see
//! `docs/performance.md` for the window and its byte-identity argument).
//! This module provides the generic lane mechanism: a small pool of
//! **persistent parked workers**, one per extra lane, each with a
//! single-task mailbox.
//!
//! Why persistent threads instead of a per-window `std::thread::scope`:
//! spawning a thread costs tens of microseconds, which dwarfs a short
//! window's work, so per-window spawning would erase the parallel win.
//! Workers instead block on a condvar between windows; a dispatch costs
//! one lock + wake. Workers never spin: on a machine with fewer free
//! cores than lanes, spinning workers would fight the main thread for its
//! own timeslice and degrade every handoff to a scheduler quantum.
//!
//! The pool is deliberately oblivious to what a task *is* (the machine
//! keeps its in-flight operation layout private): it moves opaque `T`s to
//! workers and back, running a fixed closure over them. Determinism comes
//! from the caller collecting results in lane order — the pool itself
//! imposes no ordering between lanes.
//!
//! The pool is public because it is exactly the primitive a thread-based
//! service loop needs: `cfm-serve` hosts its event loop on a one-worker
//! pool, getting the park/wake discipline, panic propagation, and
//! join-on-drop for free.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// One worker's mailbox: a single in-flight task slot plus its result.
struct MailSlot<T> {
    task: Option<T>,
    result: Option<T>,
    shutdown: bool,
    /// Set when the worker body panicked — the collector re-panics on the
    /// calling thread instead of deadlocking on a result that never comes.
    dead: bool,
}

struct Mail<T> {
    slot: Mutex<MailSlot<T>>,
    cv: Condvar,
}

struct Worker<T> {
    mail: Arc<Mail<T>>,
    handle: Option<JoinHandle<()>>,
}

/// A fixed-size pool of parked worker threads executing tasks of type `T`
/// with a shared body closure. Dispatch and collect are paired per worker
/// index; results come back by move, so `T` can carry owned state (shards
/// of machine state) across the handoff without copying.
pub struct WorkerPool<T: Send + 'static> {
    workers: Vec<Worker<T>>,
}

impl<T: Send + 'static> WorkerPool<T> {
    /// Spawn `workers` parked threads, each running `body` over every task
    /// dispatched to it.
    pub fn new<F>(workers: usize, body: F) -> Self
    where
        F: Fn(&mut T) + Send + Sync + 'static,
    {
        let body = Arc::new(body);
        let workers = (0..workers)
            .map(|i| {
                let mail = Arc::new(Mail {
                    slot: Mutex::new(MailSlot {
                        task: None,
                        result: None,
                        shutdown: false,
                        dead: false,
                    }),
                    cv: Condvar::new(),
                });
                let worker_mail = Arc::clone(&mail);
                let body = Arc::clone(&body);
                let handle = std::thread::Builder::new()
                    .name(format!("cfm-slot-lane-{}", i + 1))
                    .spawn(move || worker_loop(worker_mail, body))
                    .expect("spawn slot-engine worker");
                Worker {
                    mail,
                    handle: Some(handle),
                }
            })
            .collect();
        WorkerPool { workers }
    }

    /// Number of pooled workers (extra lanes beyond the calling thread).
    pub fn workers(&self) -> usize {
        self.workers.len()
    }

    /// Hand `task` to worker `i`. The worker must be idle (every dispatch
    /// is paired with a [`WorkerPool::collect`] before the next dispatch
    /// to the same worker).
    pub fn dispatch(&self, i: usize, task: T) {
        let mail = &self.workers[i].mail;
        let mut slot = mail.slot.lock().expect("engine mailbox poisoned");
        debug_assert!(slot.task.is_none() && slot.result.is_none());
        slot.task = Some(task);
        drop(slot);
        mail.cv.notify_all();
    }

    /// Block until worker `i` finishes its dispatched task and take the
    /// result back.
    ///
    /// # Panics
    /// Propagates a panic from the worker body.
    pub fn collect(&self, i: usize) -> T {
        let mail = &self.workers[i].mail;
        let mut slot = mail.slot.lock().expect("engine mailbox poisoned");
        loop {
            if slot.dead {
                panic!("slot-engine worker panicked");
            }
            if let Some(result) = slot.result.take() {
                return result;
            }
            slot = mail.cv.wait(slot).expect("engine mailbox poisoned");
        }
    }
}

impl<T: Send + 'static> Drop for WorkerPool<T> {
    fn drop(&mut self) {
        for w in &self.workers {
            if let Ok(mut slot) = w.mail.slot.lock() {
                slot.shutdown = true;
            }
            w.mail.cv.notify_all();
        }
        for w in &mut self.workers {
            if let Some(handle) = w.handle.take() {
                // A worker that panicked already unwound; the pool's own
                // drop must not double-panic over it.
                let _ = handle.join();
            }
        }
    }
}

fn worker_loop<T, F>(mail: Arc<Mail<T>>, body: Arc<F>)
where
    F: Fn(&mut T),
{
    loop {
        let mut task = {
            let mut slot = match mail.slot.lock() {
                Ok(s) => s,
                Err(_) => return,
            };
            loop {
                // Take a dispatched task even when shutdown is already
                // flagged: a task handed to the pool is a promise to run
                // it, and bodies with side effects (ticket close-out in
                // `cfm-serve`) rely on that promise when the pool is
                // dropped right after a dispatch.
                if let Some(task) = slot.task.take() {
                    break task;
                }
                if slot.shutdown {
                    return;
                }
                slot = match mail.cv.wait(slot) {
                    Ok(s) => s,
                    Err(_) => return,
                };
            }
        };
        // Run outside the lock so the dispatcher is never blocked on the
        // body; trap panics so the collector fails loudly instead of
        // waiting forever.
        let outcome = catch_unwind(AssertUnwindSafe(|| body(&mut task)));
        let mut slot = match mail.slot.lock() {
            Ok(s) => s,
            Err(_) => return,
        };
        match outcome {
            Ok(()) => slot.result = Some(task),
            Err(_) => slot.dead = true,
        }
        drop(slot);
        mail.cv.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_tasks_in_lane_order() {
        let pool: WorkerPool<Vec<u64>> = WorkerPool::new(3, |task: &mut Vec<u64>| {
            for x in task.iter_mut() {
                *x *= 2;
            }
        });
        assert_eq!(pool.workers(), 3);
        for round in 0..50u64 {
            for i in 0..3 {
                pool.dispatch(i, vec![round, i as u64, 7]);
            }
            for i in 0..3 {
                assert_eq!(pool.collect(i), vec![2 * round, 2 * i as u64, 14]);
            }
        }
    }

    #[test]
    fn tasks_move_owned_state_without_copying() {
        // The pool moves the task's heap allocations to the worker and
        // back: the buffer pointer survives the round trip.
        let pool: WorkerPool<Vec<u64>> = WorkerPool::new(1, |task: &mut Vec<u64>| task.push(1));
        let task = Vec::with_capacity(64);
        let ptr = task.as_ptr() as usize;
        pool.dispatch(0, task);
        let back = pool.collect(0);
        assert_eq!(back.as_ptr() as usize, ptr);
        assert_eq!(back, vec![1]);
    }

    #[test]
    fn worker_panic_propagates_to_collector() {
        let pool: WorkerPool<u32> = WorkerPool::new(1, |task| {
            if *task == 13 {
                panic!("unlucky");
            }
        });
        pool.dispatch(0, 13);
        let err = std::panic::catch_unwind(AssertUnwindSafe(|| pool.collect(0)));
        assert!(err.is_err());
    }

    #[test]
    fn drop_runs_a_dispatched_but_uncollected_task() {
        use std::sync::atomic::{AtomicBool, Ordering};
        let ran = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&ran);
        let pool: WorkerPool<u32> = WorkerPool::new(1, move |_| {
            flag.store(true, Ordering::SeqCst);
        });
        // Drop immediately after dispatch: the worker may not even have
        // started yet, but the task must still run before it exits.
        pool.dispatch(0, 1);
        drop(pool);
        assert!(ran.load(Ordering::SeqCst));
    }

    #[test]
    fn drop_shuts_workers_down() {
        let pool: WorkerPool<u32> = WorkerPool::new(2, |_| {});
        pool.dispatch(0, 1);
        assert_eq!(pool.collect(0), 1);
        drop(pool); // joins without hanging
    }
}
