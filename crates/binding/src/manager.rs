//! The threaded binding manager (§6.5.1, Fig 6.11).
//!
//! Binding requests that do not conflict with any active bind enter the
//! **active binding list**; conflicting blocking requests wait (the
//! paper's request queues — realised here with a condition variable and
//! re-check, which preserves the same admission rule), and conflicting
//! non-blocking requests fail immediately with an error code. Before a
//! blocking request sleeps, the manager consults the wait-for graph and
//! refuses with [`BindError::Deadlock`] if sleeping would close a cycle.

use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::{Condvar, Mutex};

use crate::deadlock::{BinderId, WaitForGraph};
use crate::region::{Access, Region, ResourceId};

/// Blocking behaviour of a bind (§6.2.2's `sync` parameter).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncMode {
    /// Wait until the bind can be granted.
    Blocking,
    /// Fail immediately with [`BindError::WouldBlock`] on conflict.
    NonBlocking,
}

/// Why a bind was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BindError {
    /// Non-blocking bind hit a conflicting active bind.
    WouldBlock,
    /// Granting (or waiting for) the bind would deadlock — including
    /// self-conflict with the caller's own active bind.
    Deadlock,
    /// The region selects no elements.
    EmptyRegion,
}

impl std::fmt::Display for BindError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BindError::WouldBlock => write!(f, "conflicting region currently bound"),
            BindError::Deadlock => write!(f, "bind would deadlock"),
            BindError::EmptyRegion => write!(f, "region selects no elements"),
        }
    }
}

impl std::error::Error for BindError {}

static NEXT_BINDER: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static BINDER_ID: u64 = NEXT_BINDER.fetch_add(1, Ordering::Relaxed);
}

/// The calling thread's binder identity.
pub fn binder_id() -> BinderId {
    BINDER_ID.with(|id| *id)
}

#[derive(Debug)]
struct ActiveBind {
    id: u64,
    binder: BinderId,
    region: Region,
    access: Access,
}

#[derive(Debug, Default)]
struct State {
    active: Vec<ActiveBind>,
    graph: WaitForGraph,
    next_bind: u64,
    next_resource: ResourceId,
}

/// The binding manager: active binding list + request queue + deadlock
/// detection.
///
/// ```
/// use resource_binding::manager::{BindingManager, SyncMode, BindError};
/// use resource_binding::region::{Access, DimRange, Region};
///
/// let m = BindingManager::new();
/// let array = m.new_resource();
///
/// // Two readers share; a writer is excluded while they hold the region.
/// let r1 = m.bind(Region::whole(array, 100), Access::Ro, SyncMode::Blocking).unwrap();
/// let r2 = m.bind(Region::whole(array, 100), Access::Ro, SyncMode::Blocking).unwrap();
/// let err = m.bind(Region::whole(array, 100), Access::Rw, SyncMode::NonBlocking).unwrap_err();
/// assert_eq!(err, BindError::WouldBlock);
/// drop((r1, r2));
///
/// // Disjoint strided regions bind read-write simultaneously.
/// let evens = Region::new(array, vec![DimRange::strided(0, 100, 2)]);
/// let odds = Region::new(array, vec![DimRange::strided(1, 100, 2)]);
/// let _a = m.bind(evens, Access::Rw, SyncMode::Blocking).unwrap();
/// let _b = m.bind(odds, Access::Rw, SyncMode::Blocking).unwrap();
/// ```
#[derive(Debug, Default)]
pub struct BindingManager {
    state: Mutex<State>,
    cv: Condvar,
}

/// A granted bind; unbinds on drop.
#[derive(Debug)]
pub struct BindingGuard<'m> {
    manager: &'m BindingManager,
    id: u64,
    region: Region,
    access: Access,
}

impl BindingGuard<'_> {
    /// The bound region.
    pub fn region(&self) -> &Region {
        &self.region
    }

    /// The granted access type.
    pub fn access(&self) -> Access {
        self.access
    }
}

impl Drop for BindingGuard<'_> {
    fn drop(&mut self) {
        let mut st = self.manager.state.lock();
        st.active.retain(|b| b.id != self.id);
        drop(st);
        self.manager.cv.notify_all();
    }
}

impl BindingManager {
    /// An empty manager.
    pub fn new() -> Self {
        Self::default()
    }

    /// Allocate a fresh resource identity (for [`crate::data::SharedGrid`]
    /// and friends).
    pub fn new_resource(&self) -> ResourceId {
        let mut st = self.state.lock();
        st.next_resource += 1;
        st.next_resource
    }

    /// Number of active binds (diagnostics).
    pub fn active_binds(&self) -> usize {
        self.state.lock().active.len()
    }

    /// The fundamental `bind` operation (§6.2.2).
    pub fn bind(
        &self,
        region: Region,
        access: Access,
        sync: SyncMode,
    ) -> Result<BindingGuard<'_>, BindError> {
        if region.is_empty() {
            return Err(BindError::EmptyRegion);
        }
        let me = binder_id();
        let mut st = self.state.lock();
        loop {
            let blockers: Vec<BinderId> = st
                .active
                .iter()
                .filter(|b| region.conflicts(access, &b.region, b.access))
                .map(|b| b.binder)
                .collect();
            if blockers.is_empty() {
                st.next_bind += 1;
                let id = st.next_bind;
                st.active.push(ActiveBind {
                    id,
                    binder: me,
                    region: region.clone(),
                    access,
                });
                return Ok(BindingGuard {
                    manager: self,
                    id,
                    region,
                    access,
                });
            }
            if sync == SyncMode::NonBlocking {
                return Err(BindError::WouldBlock);
            }
            if blockers.contains(&me) {
                // Self-conflict: waiting on our own bind can never resolve.
                return Err(BindError::Deadlock);
            }
            if st.graph.would_deadlock(me, &blockers) {
                return Err(BindError::Deadlock);
            }
            st.graph.set_waits(me, blockers);
            self.cv.wait(&mut st);
            st.graph.clear_waits(me);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::region::DimRange;
    use std::sync::atomic::{AtomicUsize, Ordering as AtOrd};
    use std::sync::Arc;

    fn region(resource: ResourceId, start: usize, end: usize) -> Region {
        Region::new(resource, vec![DimRange::dense(start, end)])
    }

    #[test]
    fn non_conflicting_binds_coexist() {
        let m = BindingManager::new();
        let a = m
            .bind(region(1, 0, 5), Access::Rw, SyncMode::Blocking)
            .unwrap();
        let b = m
            .bind(region(1, 5, 9), Access::Rw, SyncMode::Blocking)
            .unwrap();
        assert_eq!(m.active_binds(), 2);
        drop(a);
        drop(b);
        assert_eq!(m.active_binds(), 0);
    }

    #[test]
    fn readers_share_writers_exclude() {
        let m = BindingManager::new();
        let _r1 = m
            .bind(region(1, 0, 9), Access::Ro, SyncMode::Blocking)
            .unwrap();
        let _r2 = m
            .bind(region(1, 0, 9), Access::Ro, SyncMode::Blocking)
            .unwrap();
        assert_eq!(
            m.bind(region(1, 3, 4), Access::Rw, SyncMode::NonBlocking)
                .unwrap_err(),
            BindError::WouldBlock
        );
    }

    #[test]
    fn unbind_releases_waiters() {
        let m = Arc::new(BindingManager::new());
        let guard = m
            .bind(region(1, 0, 9), Access::Rw, SyncMode::Blocking)
            .unwrap();
        let m2 = m.clone();
        let entered = Arc::new(AtomicUsize::new(0));
        let e2 = entered.clone();
        let handle = std::thread::spawn(move || {
            let _g = m2
                .bind(region(1, 2, 5), Access::Rw, SyncMode::Blocking)
                .unwrap();
            e2.store(1, AtOrd::SeqCst);
        });
        std::thread::sleep(std::time::Duration::from_millis(50));
        assert_eq!(entered.load(AtOrd::SeqCst), 0, "waiter ran too early");
        drop(guard);
        handle.join().unwrap();
        assert_eq!(entered.load(AtOrd::SeqCst), 1);
    }

    #[test]
    fn self_conflict_is_reported_not_hung() {
        let m = BindingManager::new();
        let _g = m
            .bind(region(1, 0, 9), Access::Rw, SyncMode::Blocking)
            .unwrap();
        assert_eq!(
            m.bind(region(1, 0, 3), Access::Rw, SyncMode::Blocking)
                .unwrap_err(),
            BindError::Deadlock
        );
    }

    #[test]
    fn cross_thread_deadlock_detected() {
        // Thread A holds X, thread B holds Y; A blocks on Y, then B's
        // attempt on X must be refused as a deadlock.
        let m = Arc::new(BindingManager::new());
        let ga = m
            .bind(region(1, 0, 1), Access::Rw, SyncMode::Blocking)
            .unwrap();
        let m2 = m.clone();
        let main_id = binder_id();
        let (held, holding) = std::sync::mpsc::channel();
        let t = std::thread::spawn(move || {
            let _gb = m2
                .bind(region(2, 0, 1), Access::Rw, SyncMode::Blocking)
                .unwrap();
            held.send(()).unwrap();
            // Wait until the main thread blocks on resource 2 (it waits
            // on us in the wait-for graph), then try resource 1 — the
            // cycle-closing request.
            while !m2
                .state
                .lock()
                .graph
                .would_deadlock(binder_id(), &[main_id])
            {
                std::thread::yield_now();
            }
            let err = m2
                .bind(region(1, 0, 1), Access::Rw, SyncMode::Blocking)
                .unwrap_err();
            assert_eq!(err, BindError::Deadlock);
        });
        // Only bind resource 2 once the spawned thread holds it: binding
        // it first would leave that thread blocked on it while we join.
        holding.recv().unwrap();
        // Block on resource 2 (held by the spawned thread). It will be
        // released when the thread finishes, un-blocking us.
        let _g2 = m
            .bind(region(2, 0, 1), Access::Rw, SyncMode::Blocking)
            .unwrap();
        drop(ga);
        t.join().unwrap();
    }

    #[test]
    fn strided_binds_allow_disjoint_interleaving() {
        // Two threads can simultaneously bind the even and odd elements rw.
        let m = BindingManager::new();
        let evens = Region::new(1, vec![DimRange::strided(0, 10, 2)]);
        let odds = Region::new(1, vec![DimRange::strided(1, 10, 2)]);
        let _a = m.bind(evens, Access::Rw, SyncMode::Blocking).unwrap();
        let _b = m.bind(odds, Access::Rw, SyncMode::Blocking).unwrap();
        assert_eq!(m.active_binds(), 2);
    }

    #[test]
    fn contended_counter_is_data_race_free() {
        // 8 threads × 100 increments under rw binds of the whole region.
        let m = Arc::new(BindingManager::new());
        let counter = Arc::new(AtomicUsize::new(0));
        let mut handles = Vec::new();
        for _ in 0..8 {
            let m = m.clone();
            let counter = counter.clone();
            handles.push(std::thread::spawn(move || {
                for _ in 0..100 {
                    let _g = m
                        .bind(region(7, 0, 1), Access::Rw, SyncMode::Blocking)
                        .unwrap();
                    // Simulate non-atomic read-modify-write under the bind.
                    let v = counter.load(AtOrd::Relaxed);
                    std::hint::spin_loop();
                    counter.store(v + 1, AtOrd::Relaxed);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(counter.load(AtOrd::SeqCst), 800);
    }
}
