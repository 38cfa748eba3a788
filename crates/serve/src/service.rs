//! The service itself: admission, the slot-batching event loop, drain.
//!
//! One thread, spawned at start and joined at drain or drop, owns the
//! [`CfmMachine`] outright — clients never touch the machine, so the
//! machine runs lock-free. The state clients and the loop share is split
//! by the thread that writes it. On a pass with no control change the
//! loop writes no cache line a submitter writes, other than the ring
//! slots it empties, the tickets it fulfils and, only where the global
//! bound binds, its count:
//!
//! - **Admission gate**, one per tenant: a mutex only the tenant's
//!   submitters take (in-process callers, and the loop itself for the
//!   wire edge's admits). It holds the ring's tail, the closed and
//!   migrating flags, a copy of the machine configuration that block
//!   lengths are checked against, and the tenant's admission counters.
//! - **Submission ring**, one per tenant: `queue_capacity` slots on cache
//!   lines of their own, each an operation under its own mutex and a
//!   `full` flag the loop reads without locking. The capacity is the
//!   queue bound, so [`Reject::QueueFull`] fires exactly when
//!   `queue_capacity` operations wait.
//! - **Control block**: drain, shutdown, a pending migration and the wire
//!   edge's hand-over. Its writers raise an `attention` flag; the loop
//!   locks the block only when the flag is up, and to park.
//! - **Completion counters**: completions, budget deferrals and latency
//!   histograms, under a lock only the loop writes, once per pass. A
//!   ticket's admission-to-fulfillment wall time is counted before the
//!   ticket resolves.
//! - **Global bound**: an atomic count of queued operations, kept only
//!   when [`crate::ServiceConfig::max_queued`] is below the sum of the
//!   queue capacities, the only case in which it can bind.
//!
//! Per pass the loop counts the previous slot's completions, reads the
//! control block if `attention` is up, and dequeues up to one operation
//! per idle processor (deficit round-robin across the rings). Then it
//! delivers the counted completions, issues the batch, steps the machine
//! exactly one slot and polls the new completions. The dequeue, issue,
//! step and poll are the loop core (`LoopCore`), which the slot-clock
//! twin ([`crate::twin`]) steps against the same state; a migration's
//! gate quiescing (`Shared::quiesce_gates`) and swap
//! (`perform_migration`) are shared the same way.
//!
//! With nothing queued or in flight the loop parks: on a condvar, or in
//! its wire edge's `epoll_wait` when one is attached ([`crate::edge`]).
//! Under the control lock it stores `parked` and then looks at the rings
//! once more; a submitter on another thread stores its slot's `full`
//! flag and then loads `parked`, all four accesses SeqCst. In the single
//! order of SeqCst accesses one of the two stores comes first, so either
//! the loop sees the operation and does not park, or the submitter sees
//! `parked` and wakes the loop through the control block, whose lock the
//! loop holds until it waits (`docs/service.md` §1).

use std::io;
use std::ops::Deref;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use cfm_core::config::{CfmConfig, Engine};
use cfm_core::machine::{CfmMachine, Fallbacks};
use cfm_core::op::Operation;
use cfm_core::snapshot::{MachineSnapshot, SnapshotError};
use cfm_core::stats::Stats;
use cfm_core::ProcId;
use parking_lot::{Condvar, Mutex, MutexGuard};

use crate::config::{Criticality, ServiceConfig};
use crate::edge::{Edge, Link};
use crate::metrics::{Admissions, Metrics, MetricsSnapshot};
use crate::poll::EventFd;
use crate::request::{Reject, Reply, Request, Response, TenantId, Ticket, TicketInner};
use crate::scheduler::{QosScheduler, QosTenant};

/// Why [`Service::start`] refused the configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StartError {
    /// The roster is empty — a service with no tenants serves nobody.
    NoTenants,
    /// A tenant has weight 0 (it would never be scheduled).
    ZeroWeight {
        /// The offending tenant.
        tenant: TenantId,
    },
    /// A tenant has queue capacity 0 (every submit would be rejected).
    ZeroCapacity {
        /// The offending tenant.
        tenant: TenantId,
    },
    /// A tenant has a bank budget of 0 (it could never issue).
    ZeroBudget {
        /// The offending tenant.
        tenant: TenantId,
    },
    /// The bank-budget window is 0 slots (budgets could never refill).
    ZeroBudgetWindow,
}

impl std::fmt::Display for StartError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StartError::NoTenants => write!(f, "service config has no tenants"),
            StartError::ZeroWeight { tenant } => write!(f, "tenant {tenant} has weight 0"),
            StartError::ZeroCapacity { tenant } => {
                write!(f, "tenant {tenant} has queue capacity 0")
            }
            StartError::ZeroBudget { tenant } => {
                write!(f, "tenant {tenant} has a bank budget of 0")
            }
            StartError::ZeroBudgetWindow => write!(f, "bank-budget window is 0 slots"),
        }
    }
}

impl std::error::Error for StartError {}

/// Final accounting returned by [`Service::drain`].
#[derive(Debug, Clone)]
pub struct ServiceReport {
    /// Counter and latency snapshot at drain.
    pub metrics: MetricsSnapshot,
    /// The machine's own statistics — `bank_conflicts` must be 0, the
    /// conflict-freedom invariant the whole design rests on.
    pub stats: Stats,
    /// Slots the machine simulated.
    pub cycles: u64,
    /// Slots the parallel engine proved hazard-free — one-pass steps
    /// whose every access was proven (0 under [`Engine::Sequential`]; see
    /// [`cfm_core::machine::CfmMachine::parallel_slots`]).
    pub parallel_slots: u64,
    /// One-pass accesses the parallel engine sent to the reference body,
    /// by reason, since the machine was built or last migrated (see
    /// [`cfm_core::machine::CfmMachine::fallbacks`]).
    pub fallbacks: Fallbacks,
    /// Engine the machine ran.
    pub engine: Engine,
}

/// Why [`Service::migrate`] failed. On any error the service keeps
/// serving on the *source* machine — a failed migration never loses
/// state or stops the event loop.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MigrateError {
    /// A tenant named in the migration set is not in the roster.
    UnknownTenant {
        /// The offending tenant ID.
        tenant: TenantId,
    },
    /// Another migration is already in progress; one at a time.
    MigrationInProgress,
    /// The service is draining or shut down.
    ShuttingDown,
    /// The source machine did not reach quiescence within the drain
    /// budget (an adversarial fault plan can starve an operation
    /// indefinitely).
    QuiesceTimeout {
        /// Slots the drain was given.
        budget: u64,
    },
    /// Checkpoint or restore refused — the typed snapshot-layer reason
    /// (shrinking target, non-injective map, codec corruption …).
    Snapshot(SnapshotError),
}

impl std::fmt::Display for MigrateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MigrateError::UnknownTenant { tenant } => write!(f, "unknown tenant {tenant}"),
            MigrateError::MigrationInProgress => write!(f, "a migration is already in progress"),
            MigrateError::ShuttingDown => write!(f, "service is shutting down"),
            MigrateError::QuiesceTimeout { budget } => {
                write!(f, "source machine not quiescent after {budget} slots")
            }
            MigrateError::Snapshot(e) => write!(f, "checkpoint/restore failed: {e}"),
        }
    }
}

impl std::error::Error for MigrateError {}

impl From<SnapshotError> for MigrateError {
    fn from(e: SnapshotError) -> Self {
        MigrateError::Snapshot(e)
    }
}

/// What a successful [`Service::migrate`] did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MigrationReport {
    /// Serialised snapshot size — the migration goes through the full
    /// [`MachineSnapshot::to_bytes`] / `from_bytes` byte path, as a
    /// cross-host move would.
    pub snapshot_bytes: usize,
    /// Queued operations carried across the boundary: admitted (ticket
    /// in hand) before the swap, issued and fulfilled on the target.
    pub replayed: usize,
    /// Machine slots between the event loop picking the command up and
    /// the checkpoint — the in-flight drain plus the ATT settle window.
    pub drained_slots: u64,
    /// Bank count of the source machine.
    pub from_banks: usize,
    /// Bank count of the target machine.
    pub to_banks: usize,
    /// Engine the target machine runs.
    pub engine: Engine,
}

/// Completion handshake for one migration command: the event loop
/// delivers the outcome, the [`Service::migrate`] caller parks here.
struct MigrationDone {
    slot: Mutex<Option<Result<MigrationReport, MigrateError>>>,
    ready: Condvar,
}

impl MigrationDone {
    fn deliver(&self, outcome: Result<MigrationReport, MigrateError>) {
        *self.slot.lock() = Some(outcome);
        self.ready.notify_all();
    }
}

/// A migration request parked in the control block for the event loop.
struct MigrationCmd {
    target: CfmConfig,
    done: Arc<MigrationDone>,
}

/// Where the service's wire edge stands. The loop owns an attached edge;
/// it drops an edge only under the control lock, so a handle that finds
/// its edge open under the lock may still ask for it to close.
enum EdgeSlot {
    /// No edge.
    None,
    /// Handed over by [`Service::serve_edge`]; the loop takes it on its
    /// next pass.
    Pending(Box<Edge>),
    /// Served by the loop.
    Attached,
    /// Its handle asked the loop to close it.
    Closing,
}

/// A value on cache lines of its own, so that writes to its neighbours
/// never invalidate it. 128 bytes, not 64: x86's spatial prefetcher
/// fetches 64-byte lines in aligned pairs.
#[repr(align(128))]
struct Line<T>(T);

impl<T> Deref for Line<T> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.0
    }
}

/// One admitted-but-not-yet-issued operation, as a ring slot holds it.
struct Pending {
    op: Operation,
    reply: Reply,
    submitted: Instant,
}

/// One slot of a submission ring, on cache lines of its own (see
/// [`Line`]).
#[repr(align(128))]
struct Slot {
    /// Whether `pending` holds an operation. The submitter stores it, with
    /// Release (SeqCst from another thread than the loop's), once the
    /// operation is in `pending`; the loop loads it with Acquire before
    /// taking the operation, and stores `false` with Release once it has,
    /// which the next submitter's Acquire load pairs with. The two sides
    /// take the mutex only in turn, so it is never contended.
    full: AtomicBool,
    pending: Mutex<Option<Pending>>,
}

/// The producer side of a tenant's ring, locked only by its submitters.
struct Gate {
    /// The slot the next admitted operation goes into.
    tail: usize,
    /// Draining or shut down: every submit is refused.
    closed: bool,
    /// Quiesced across a pending migration: submits are shed with
    /// [`Reject::Migrating`].
    migrating: bool,
    /// The machine's configuration, updated by a live migration: write
    /// blocks are checked against its bank count.
    config: CfmConfig,
    admissions: Admissions,
}

impl Gate {
    /// Upper-bound estimate, in machine slots, of the window a
    /// [`Reject::Migrating`] client should back off for: the worst-case
    /// in-flight drain (≈ β = b + c − 1 plus restarts), the ATT settle
    /// window (≤ b − 1), and swap overhead.
    fn migration_window_slots(&self) -> u64 {
        (2 * self.config.banks() + self.config.bank_cycle() as usize) as u64 + 64
    }
}

/// One tenant's admission gate and the ring behind it.
struct Tenant {
    gate: Line<Mutex<Gate>>,
    ring: Box<[Slot]>,
}

impl Tenant {
    /// Whether ring slot `head` holds an operation.
    fn ready(&self, head: usize, order: Ordering) -> bool {
        self.ring[head].full.load(order)
    }

    /// Grow the queued writes, from `head` on, to blocks of `banks`
    /// words (the added words are zero, matching a restored image's new
    /// banks), with the gate held so that none arrives meanwhile.
    /// Returns how many operations are queued.
    fn rechunk(&self, head: usize, banks: usize) -> usize {
        let mut queued = 0;
        let mut i = head;
        while queued < self.ring.len() && self.ready(i, Ordering::Acquire) {
            if let Some(Pending {
                op: Operation::Write { data, .. } | Operation::Swap { data, .. },
                ..
            }) = &mut *self.ring[i].pending.lock()
            {
                if data.len() < banks {
                    let mut grown = data.to_vec();
                    grown.resize(banks, 0);
                    *data = grown.into_boxed_slice();
                }
            }
            queued += 1;
            i = (i + 1) % self.ring.len();
        }
        queued
    }
}

/// The service-wide bound on queued operations.
struct Queued {
    count: AtomicUsize,
    limit: usize,
}

/// Flags every pass reads and few writes.
struct Signals {
    /// Raised, under the control lock, by every write to the control
    /// block; lowered by the loop when it reads the block.
    attention: AtomicBool,
    /// The loop is parked, or about to: a submit from another thread must
    /// wake it.
    parked: AtomicBool,
}

/// What the loop is told rather than asked: drain, shutdown, a migration
/// and the wire edge's hand-over.
struct Control {
    draining: bool,
    shutdown: bool,
    /// A migration is in progress, from [`Service::migrate`] until the
    /// loop delivers its outcome.
    migrating: bool,
    /// A migration waiting for the event loop to perform it.
    migration: Option<MigrationCmd>,
    /// The wire edge's hand-over between its handle and the loop.
    edge: EdgeSlot,
    /// The eventfd that wakes the loop, present only while the loop
    /// waits in its edge's `epoll_wait` (see [`Shared::wake_loop`]).
    epoll_wake: Option<Arc<EventFd>>,
}

/// Estimate, in machine slots, of how long a backpressured client should
/// wait for `waiting` queued operations to drain on a machine of shape
/// `config`: the event loop dequeues at most one operation per lane per
/// slot, plus one bank cycle of pipeline settle. Used for the
/// [`Reject::QueueFull`] / [`Reject::Overloaded`] retry hints, in process
/// and at the edge — deliberately the same drain model as
/// [`Gate::migration_window_slots`], minus the swap overhead.
pub(crate) fn drain_window_slots(config: &CfmConfig, waiting: usize) -> u64 {
    (waiting as u64).div_ceil(config.processors() as u64) + u64::from(config.bank_cycle()) + 1
}

/// The state the clients, the edge's handle and the event loop share,
/// split by writer (see the module docs). In the slot-clock twin
/// ([`crate::twin`]) it is a plain value on one thread.
pub(crate) struct Shared {
    tenants: Box<[Tenant]>,
    /// Present only where [`crate::ServiceConfig::max_queued`] can bind.
    queued: Option<Line<Queued>>,
    signals: Line<Signals>,
    control: Line<Mutex<Control>>,
    /// The event loop parks here, under the control lock, when fully
    /// idle without an edge.
    work: Condvar,
    /// Completion counters, written by the loop once per pass.
    done: Line<Mutex<Metrics>>,
    offsets: usize,
}

impl Shared {
    /// Empty rings, open gates and zeroed counters for `config`.
    pub(crate) fn new(config: &ServiceConfig) -> Shared {
        let tenants = config
            .tenants
            .iter()
            .map(|t| Tenant {
                gate: Line(Mutex::new(Gate {
                    tail: 0,
                    closed: false,
                    migrating: false,
                    config: config.machine,
                    admissions: Admissions::default(),
                })),
                ring: (0..t.queue_capacity)
                    .map(|_| Slot {
                        full: AtomicBool::new(false),
                        pending: Mutex::new(None),
                    })
                    .collect(),
            })
            .collect();
        let capacity: usize = config.tenants.iter().map(|t| t.queue_capacity).sum();
        let limit = config.effective_max_queued();
        Shared {
            tenants,
            queued: (limit < capacity).then(|| {
                Line(Queued {
                    count: AtomicUsize::new(0),
                    limit,
                })
            }),
            signals: Line(Signals {
                attention: AtomicBool::new(false),
                parked: AtomicBool::new(false),
            }),
            control: Line(Mutex::new(Control {
                draining: false,
                shutdown: false,
                migrating: false,
                migration: None,
                edge: EdgeSlot::None,
                epoll_wake: None,
            })),
            work: Condvar::new(),
            done: Line(Mutex::new(Metrics::new(
                config.tenants.iter().map(|t| t.name.clone()).collect(),
            ))),
            offsets: config.offsets,
        }
    }

    /// Validate and admit one in-process submit (see [`Service::submit`]).
    pub(crate) fn submit(&self, tenant: TenantId, op: Operation) -> Result<Ticket, Reject> {
        // Validate against machine geometry before touching a lock.
        let target = target(&op, self.offsets)?;
        self.admit(tenant, op, target, false, || {
            let ticket = TicketInner::new();
            (Reply::Ticket(Arc::clone(&ticket)), Ticket { inner: ticket })
        })
    }

    /// Admit one request whose [`Target`] is checked, under its tenant's
    /// gate. Only an admitted request gets its reply, from `reply`, which
    /// also returns the submitter's handle on it. `from_loop` marks a
    /// push by the thread that dequeues (the edge's admits, the twin's
    /// clients), which needs no SeqCst store and never wakes anyone.
    pub(crate) fn admit<H>(
        &self,
        tenant: TenantId,
        op: Operation,
        target: Target,
        from_loop: bool,
        reply: impl FnOnce() -> (Reply, H),
    ) -> Result<H, Reject> {
        let Target { data_len } = target;
        let Some(t) = self.tenants.get(tenant) else {
            return Err(Reject::UnknownTenant { tenant });
        };
        let mut gate = t.gate.lock();
        // Block length is machine geometry, and geometry can change
        // across a live migration: checked under the gate that the swap
        // updates.
        if let Some(got) = data_len {
            let want = gate.config.banks();
            if got != want {
                return Err(Reject::WrongBlockLength { got, want });
            }
        }
        if gate.migrating {
            gate.admissions.rejected_migrating += 1;
            return Err(Reject::Migrating {
                tenant,
                retry_after_slots: gate.migration_window_slots(),
            });
        }
        if gate.closed {
            gate.admissions.rejected_shutdown += 1;
            return Err(Reject::ShuttingDown);
        }
        let slot = &t.ring[gate.tail];
        // The slot at the tail is still full only when every slot is.
        if slot.full.load(Ordering::Acquire) {
            let capacity = t.ring.len();
            gate.admissions.rejected_queue_full += 1;
            return Err(Reject::QueueFull {
                tenant,
                capacity,
                retry_after_slots: drain_window_slots(&gate.config, capacity),
            });
        }
        if let Some(q) = &self.queued {
            let counted = q
                .count
                .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |queued| {
                    (queued < q.limit).then_some(queued + 1)
                });
            if let Err(queued) = counted {
                gate.admissions.rejected_overloaded += 1;
                return Err(Reject::Overloaded {
                    queued,
                    limit: q.limit,
                    retry_after_slots: drain_window_slots(&gate.config, queued),
                });
            }
        }

        let (reply, handle) = reply();
        *slot.pending.lock() = Some(Pending {
            op,
            reply,
            submitted: Instant::now(),
        });
        gate.tail = (gate.tail + 1) % t.ring.len();
        gate.admissions.submitted += 1;
        if from_loop {
            slot.full.store(true, Ordering::Release);
        } else {
            slot.full.store(true, Ordering::SeqCst);
            drop(gate);
            // The loop may be parked; one waiter, one wake.
            if self.signals.parked.load(Ordering::SeqCst) {
                self.wake_loop(self.control.lock());
            }
        }
        Ok(handle)
    }

    /// Take the operation in tenant `t`'s ring slot `head`, which is
    /// [`Tenant::ready`], and move `head` on.
    fn take(&self, t: TenantId, head: &mut usize) -> Pending {
        let ring = &self.tenants[t].ring;
        let slot = &ring[*head];
        let pending = slot
            .pending
            .lock()
            .take()
            .expect("a full slot holds an operation");
        slot.full.store(false, Ordering::Release);
        *head = (*head + 1) % ring.len();
        if let Some(q) = &self.queued {
            q.count.fetch_sub(1, Ordering::Relaxed);
        }
        pending
    }

    /// Whether any ring holds an operation at its head in `heads`.
    fn any_queued(&self, heads: &[usize], order: Ordering) -> bool {
        self.tenants
            .iter()
            .zip(heads)
            .any(|(t, &head)| t.ready(head, order))
    }

    /// Shed the named tenants' submits with [`Reject::Migrating`] until
    /// [`perform_migration`] re-admits them, as a migration does before
    /// it tells the loop. Every name is checked first, so an unknown one
    /// quiesces nobody.
    pub(crate) fn quiesce_gates(&self, tenants: &[TenantId]) -> Result<(), MigrateError> {
        if let Some(&tenant) = tenants.iter().find(|&&t| t >= self.tenants.len()) {
            return Err(MigrateError::UnknownTenant { tenant });
        }
        for &t in tenants {
            self.tenants[t].gate.lock().migrating = true;
        }
        Ok(())
    }

    /// Refuse every further submit, as a drain or a shutdown does before
    /// it tells the loop.
    fn close_gates(&self) {
        for t in self.tenants.iter() {
            t.gate.lock().closed = true;
        }
    }

    /// Raise `attention` for the control write just made under `ctl`,
    /// then wake the loop.
    fn signal(&self, ctl: MutexGuard<'_, Control>) {
        self.signals.attention.store(true, Ordering::Release);
        self.wake_loop(ctl);
    }

    /// Release the control lock and wake the loop if it is parked:
    /// through the eventfd while it waits in its edge's `epoll_wait`, else
    /// through the condvar (a no-op unless the loop sleeps there).
    fn wake_loop(&self, mut ctl: MutexGuard<'_, Control>) {
        let epoll = ctl.epoll_wake.take();
        drop(ctl);
        match epoll {
            // Writing a live eventfd fails only if its counter would
            // overflow, which `notify` already treats as success.
            Some(wake) => {
                let _ = wake.notify();
            }
            None => {
                self.work.notify_one();
            }
        }
    }

    /// Current counters and latency quantiles. The completions are read
    /// first, so no tenant shows more completed than submitted.
    pub(crate) fn metrics(&self) -> MetricsSnapshot {
        self.done
            .lock()
            .snapshot(|t| self.tenants[t].gate.lock().admissions)
    }

    /// Ask the loop to close the edge `link` belongs to, unless it has
    /// already. A handed-over edge the loop has not taken yet is dropped
    /// here.
    pub(crate) fn detach_edge(&self, link: &Link) {
        let mut ctl = self.control.lock();
        if link.is_closed() {
            return;
        }
        match ctl.edge {
            EdgeSlot::Pending(_) => ctl.edge = EdgeSlot::None,
            EdgeSlot::Attached => {
                ctl.edge = EdgeSlot::Closing;
                self.signal(ctl);
            }
            EdgeSlot::None | EdgeSlot::Closing => {}
        }
    }
}

/// An operation whose block [`target`] checked against the machine's
/// offsets, and the block length it carries.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Target {
    data_len: Option<usize>,
}

/// The block `op` addresses, checked against the machine's `offsets`,
/// and the block length it carries. The offset count never changes, so
/// this needs no lock; the edge calls it as it decodes.
pub(crate) fn target(op: &Operation, offsets: usize) -> Result<Target, Reject> {
    let (offset, data_len) = match op {
        Operation::Read { offset } | Operation::Rmw { offset, .. } => (*offset, None),
        Operation::Write { offset, data } | Operation::Swap { offset, data } => {
            (*offset, Some(data.len()))
        }
    };
    if offset >= offsets {
        return Err(Reject::NoSuchBlock { offset, offsets });
    }
    Ok(Target { data_len })
}

/// One in-flight operation's service-side bookkeeping, indexed by the
/// processor lane carrying it.
struct InFlightReq {
    tenant: TenantId,
    reply: Reply,
    submitted: Instant,
    queued_ns: u64,
}

/// The event loop's scheduling core: the machine, the QoS scheduler, the
/// processor lanes and the rings' heads. It holds no lock, reads no clock
/// and owns no thread — each step takes the shared state and the instant
/// it needs — so the service thread ([`run_event_loop`]) and the
/// slot-clock twin ([`crate::twin`]) run the same code. One pass is
/// [`LoopCore::dequeue`], then [`LoopCore::issue_and_step`] and
/// [`LoopCore::poll`].
pub(crate) struct LoopCore {
    pub(crate) machine: CfmMachine,
    sched: QosScheduler,
    /// `heads[t]`: the slot of tenant `t`'s ring the loop takes next.
    heads: Vec<usize>,
    /// `inflight[p]` is the request processor lane `p` is carrying.
    inflight: Vec<Option<InFlightReq>>,
    /// The idle processor lanes.
    pub(crate) free: Vec<ProcId>,
    inflight_count: usize,
    /// The slot batch being admitted and issued, kept to reuse its
    /// buffer.
    batch: Vec<(ProcId, Pending, TenantId)>,
    /// The last slot's completions, counted and then delivered on the
    /// next pass (see [`run_event_loop`]).
    pub(crate) fulfilled: Vec<(Reply, Response)>,
    /// Machine cycle when the loop first quiesced toward a pending
    /// migration: the start of the drain window [`MigrationReport`]
    /// reports.
    migrate_seen_at: Option<u64>,
}

impl LoopCore {
    /// The machine and scheduler for `config`, every lane idle.
    pub(crate) fn new(config: &ServiceConfig) -> LoopCore {
        let processors = config.machine.processors();
        LoopCore {
            machine: CfmMachine::builder(config.machine)
                .offsets(config.offsets)
                .build(),
            sched: QosScheduler::new(
                &config
                    .tenants
                    .iter()
                    .map(|t| QosTenant {
                        quantum: u64::from(t.weight),
                        critical: t.criticality == Criticality::LatencyCritical,
                        bank_budget: t.bank_budget,
                    })
                    .collect::<Vec<_>>(),
                config.budget_window,
            ),
            heads: vec![0; config.tenants.len()],
            inflight: (0..processors).map(|_| None).collect(),
            free: (0..processors).rev().collect(),
            inflight_count: 0,
            batch: Vec::with_capacity(processors),
            fulfilled: Vec::with_capacity(processors),
            migrate_seen_at: None,
        }
    }

    /// Quiesce toward a pending migration's swap, on a pass that
    /// dequeues nothing: note the cycle the migration was first seen at,
    /// and say whether the last in-flight operation has completed, so
    /// that [`perform_migration`] may run.
    pub(crate) fn quiesced_for_swap(&mut self) -> bool {
        self.migrate_seen_at.get_or_insert(self.machine.cycle());
        self.inflight_count == 0
    }

    /// Whether this pass must step the machine: a batch to issue, an
    /// operation in flight, or queued work. Budget-deferred work (queued
    /// but unschedulable this window) counts, so the window can roll
    /// over and refill budgets.
    pub(crate) fn must_step(&self, shared: &Shared) -> bool {
        !self.batch.is_empty()
            || self.inflight_count > 0
            || shared.any_queued(&self.heads, Ordering::Acquire)
    }

    /// Dequeue up to one queued operation per idle processor, in the
    /// scheduler's order: the latency-critical ring first, then
    /// best-effort deficit round-robin.
    pub(crate) fn dequeue(&mut self, shared: &Shared) {
        // The scheduler is asked only while some ring holds work: asked
        // with none, it would walk every tenant and forfeit each one's
        // deficit.
        while !self.free.is_empty() && shared.any_queued(&self.heads, Ordering::Acquire) {
            let heads = &self.heads;
            let Some(t) = self
                .sched
                .next(|t| shared.tenants[t].ready(heads[t], Ordering::Acquire))
            else {
                break;
            };
            let pending = shared.take(t, &mut self.heads[t]);
            let p = self.free.pop().expect("checked non-empty");
            self.batch.push((p, pending, t));
        }
    }

    /// Issue the dequeued batch, whose queueing ends at `at`, and step
    /// the machine one slot.
    pub(crate) fn issue_and_step(&mut self, at: Instant) {
        for (p, pending, tenant) in self.batch.drain(..) {
            let queued_ns = at.saturating_duration_since(pending.submitted).as_nanos() as u64;
            self.machine
                .issue(p, pending.op)
                .expect("validated at admission onto an idle processor");
            self.inflight[p] = Some(InFlightReq {
                tenant,
                reply: pending.reply,
                submitted: pending.submitted,
                queued_ns,
            });
            self.inflight_count += 1;
        }
        self.machine.step();
        self.sched.on_slot();
    }

    /// Poll the lanes the slot delivered to into `fulfilled`, fulfilled
    /// at `now`; their lanes are idle again.
    pub(crate) fn poll(&mut self, now: Instant) {
        for i in 0..self.machine.delivered().len() {
            let p = self.machine.delivered()[i];
            while let Some(completion) = self.machine.poll(p) {
                let req = self.inflight[p]
                    .take()
                    .expect("completion implies an in-flight request");
                self.inflight_count -= 1;
                self.free.push(p);
                let total_ns = now.saturating_duration_since(req.submitted).as_nanos() as u64;
                self.fulfilled.push((
                    req.reply,
                    Response {
                        tenant: req.tenant,
                        completion,
                        queued_ns: req.queued_ns,
                        total_ns,
                    },
                ));
            }
        }
    }
}

/// Everything the event-loop thread owns. Moved into the thread at start
/// and returned by it (with `report` filled) at drain.
struct LoopState {
    core: LoopCore,
    shared: Arc<Shared>,
    /// The loop has seen the drain command.
    draining: bool,
    /// The wire edge this loop serves, if any. Boxed: the loop's hot
    /// state grows by one pointer.
    edge: Option<Box<Edge>>,
    /// The loop's one clock read per pass, taken after the slot: the
    /// fulfilment instant of that slot's completions and the issue
    /// instant of the next pass's batch (refreshed after a park or a
    /// migration, which start a pass late).
    pass_at: Instant,
    report: Option<ServiceReport>,
}

/// A running multi-tenant request service over one [`CfmMachine`].
///
/// Construct with [`Service::start`], submit with [`Service::submit`],
/// finish with [`Service::drain`]. Dropping without draining shuts down
/// promptly: queued and in-flight requests are abandoned and their
/// tickets closed (waiters get `None` rather than a deadlock).
pub struct Service {
    shared: Arc<Shared>,
    /// The event-loop thread; `None` once [`Service::drain`] joined it.
    event_loop: Option<JoinHandle<LoopState>>,
}

impl Service {
    /// Check that `config` can be served: a non-empty roster, no zero
    /// weight, capacity or budget, and a non-zero budget window.
    pub(crate) fn validate(config: &ServiceConfig) -> Result<(), StartError> {
        if config.tenants.is_empty() {
            return Err(StartError::NoTenants);
        }
        for (id, t) in config.tenants.iter().enumerate() {
            if t.weight == 0 {
                return Err(StartError::ZeroWeight { tenant: id });
            }
            if t.queue_capacity == 0 {
                return Err(StartError::ZeroCapacity { tenant: id });
            }
            if t.bank_budget == Some(0) {
                return Err(StartError::ZeroBudget { tenant: id });
            }
        }
        if config.budget_window == 0 {
            return Err(StartError::ZeroBudgetWindow);
        }
        Ok(())
    }

    /// Validate `config`, build the machine, and spawn the event loop.
    pub fn start(config: ServiceConfig) -> Result<Service, StartError> {
        Service::validate(&config)?;
        let shared = Arc::new(Shared::new(&config));
        let state = LoopState {
            core: LoopCore::new(&config),
            shared: Arc::clone(&shared),
            draining: false,
            edge: None,
            pass_at: Instant::now(),
            report: None,
        };

        let event_loop = std::thread::Builder::new()
            .name("cfm-serve-loop".into())
            .spawn(move || {
                let mut state = state;
                run_event_loop(&mut state);
                state
            })
            .expect("spawn the service event loop");

        Ok(Service {
            shared,
            event_loop: Some(event_loop),
        })
    }

    /// Blocks of shared memory the machine exposes.
    pub fn offsets(&self) -> usize {
        self.shared.offsets
    }

    /// Memory banks `b` of the underlying machine — the block length
    /// writes must carry. May grow across a [`Service::migrate`].
    pub fn banks(&self) -> usize {
        self.shared.tenants[0].gate.lock().config.banks()
    }

    /// Submit one block operation on behalf of `tenant`. The wire edge
    /// admits each decoded [`Request`] through the same checks.
    /// Validation and admission control happen here, synchronously: the
    /// returned [`Ticket`] is only handed out for operations that *will*
    /// be scheduled (absent shutdown). Rejections are typed backpressure
    /// — see [`Reject`].
    pub fn submit(&self, tenant: TenantId, op: Operation) -> Result<Ticket, Reject> {
        self.shared.submit(tenant, op)
    }

    /// Hand `edge` to the event loop, which serves it from its next pass
    /// on (see [`crate::edge::serve`]). Returns the shared state the
    /// edge's handle closes it through; one edge at a time.
    pub(crate) fn attach_edge(&self, edge: Box<Edge>) -> io::Result<Arc<Shared>> {
        let mut ctl = self.shared.control.lock();
        if !matches!(ctl.edge, EdgeSlot::None) {
            return Err(io::Error::new(
                io::ErrorKind::AlreadyExists,
                "the service already serves a wire edge",
            ));
        }
        ctl.edge = EdgeSlot::Pending(edge);
        self.shared.signal(ctl);
        Ok(Arc::clone(&self.shared))
    }

    /// Current counters and latency quantiles (a copy taken under the
    /// counters' locks; does not disturb the event loop).
    pub fn metrics(&self) -> MetricsSnapshot {
        self.shared.metrics()
    }

    /// Live-migrate the service onto a machine of shape `target` —
    /// same shape with a different engine, or a *larger* shape (more
    /// banks, spares, lanes) — with zero downtime for tenants outside
    /// `tenants`.
    ///
    /// The named tenants' queues are quiesced: from this call until the
    /// swap completes, their submits are shed with [`Reject::Migrating`]
    /// (carrying a retry-after hint). Untouched tenants keep submitting
    /// and being served throughout — admission never pauses for them;
    /// only issue stalls for the short drain window.
    ///
    /// Mechanically the event loop: stops issuing, drains in-flight
    /// operations to completion on the source, waits out the ATT
    /// arbitration windows, checkpoints, pushes the snapshot through
    /// the full byte codec, restores onto the target shape, and
    /// re-admits. Every operation *admitted* before the swap — ticket
    /// already in the caller's hand — is replayed on the target and its
    /// ticket fulfilled there: admission is durable across the
    /// boundary, as are all committed writes (they travel in the
    /// snapshot's memory image). When the target has more banks, queued
    /// writes are re-chunked with zero-extended blocks, matching the
    /// restored image's "new banks read 0" semantics.
    ///
    /// Blocks until the migration completes or fails. On error the
    /// service continues undisturbed on the source machine.
    pub fn migrate(
        &self,
        tenants: &[TenantId],
        target: CfmConfig,
    ) -> Result<MigrationReport, MigrateError> {
        let done = Arc::new(MigrationDone {
            slot: Mutex::new(None),
            ready: Condvar::new(),
        });
        {
            let mut ctl = self.shared.control.lock();
            if ctl.draining || ctl.shutdown {
                return Err(MigrateError::ShuttingDown);
            }
            if ctl.migrating {
                return Err(MigrateError::MigrationInProgress);
            }
            self.shared.quiesce_gates(tenants)?;
            ctl.migrating = true;
            ctl.migration = Some(MigrationCmd {
                target,
                done: Arc::clone(&done),
            });
            self.shared.signal(ctl);
        }
        let mut slot = done.slot.lock();
        loop {
            if let Some(outcome) = slot.take() {
                return outcome;
            }
            done.ready.wait(&mut slot);
        }
    }

    /// Stop admitting, complete every already-admitted request (queued
    /// and in flight), shut the event loop down, and return the final
    /// report. Blocks until the machine is idle.
    ///
    /// # Panics
    /// Re-raises a panic of the event loop.
    pub fn drain(mut self) -> ServiceReport {
        // Close the gates before telling the loop: once it sees the
        // command, the rings hold everything it will ever be given.
        self.shared.close_gates();
        let mut ctl = self.shared.control.lock();
        ctl.draining = true;
        self.shared.signal(ctl);
        let handle = self.event_loop.take().expect("joined only here or in drop");
        let mut state = handle
            .join()
            .unwrap_or_else(|panic| std::panic::resume_unwind(panic));
        state
            .report
            .take()
            .expect("event loop fills the report before exiting")
        // `self` drops here: the shutdown flag it sets is a no-op for an
        // already-exited loop.
    }
}

impl Drop for Service {
    fn drop(&mut self) {
        // Fast shutdown for the non-drain path: tell the loop to abandon
        // outstanding work (closing tickets) so the join below cannot
        // block on a parked-forever loop.
        self.shared.close_gates();
        let mut ctl = self.shared.control.lock();
        ctl.shutdown = true;
        self.shared.signal(ctl);
        if let Some(handle) = self.event_loop.take() {
            // A loop that panicked already unwound; dropping must not
            // panic over it.
            let _ = handle.join();
        }
    }
}

/// The event-loop body, run by the service's loop thread for its whole
/// lifetime.
///
/// Each pass counts the previous slot's completions under the completion
/// lock and delivers them only afterwards, on every way out of the pass,
/// so a ticket that has resolved is always already counted. With an
/// edge attached, a pass starts with the edge's input step and admits
/// the decoded submits into the rings, and its delivery ends with the
/// edge's output step.
fn run_event_loop(state: &mut LoopState) {
    // Hold the shared handle separately so that using it does not borrow
    // `state`.
    let shared = Arc::clone(&state.shared);
    let metrics = || shared.metrics();
    loop {
        // ---- Edge input: readiness when due, read and decode. --------
        if let Some(edge) = state.edge.as_deref_mut() {
            if edge.input(state.core.machine.config(), &metrics).is_err() {
                // epoll itself failed: nothing is left to serve the edge
                // with.
                close_edge(state, &mut shared.control.lock());
            }
        }

        // ---- Count the last slot, then admit the edge's submits. -----
        state.record();
        if let Some(edge) = state.edge.as_deref_mut() {
            edge.admit(|route, Request { tenant, op }, target| {
                shared.admit(tenant, op, target, true, || (Reply::Edge(route), ()))
            });
        }

        // ---- Commands, read only when one was given. -----------------
        let mut quiesce = false;
        let mut migration = None;
        if shared.signals.attention.load(Ordering::Acquire) {
            let mut ctl = shared.control.lock();
            shared.signals.attention.store(false, Ordering::Relaxed);
            if ctl.shutdown {
                abandon(state, &mut ctl);
                return;
            }
            if !matches!(ctl.edge, EdgeSlot::None | EdgeSlot::Attached) {
                switch_edge(state, &mut ctl);
            }
            state.draining |= ctl.draining;
            if ctl.migration.is_some() {
                // Quiesce toward the swap: issue nothing new, and read
                // the block again next pass. Once the last in-flight
                // operation completes, take the command and perform the
                // migration; until then the machine keeps stepping.
                shared.signals.attention.store(true, Ordering::Relaxed);
                quiesce = true;
                if state.core.quiesced_for_swap() {
                    migration = ctl.migration.take();
                }
            }
        }

        // ---- Dequeue one op per idle lane. ---------------------------
        // Set when nothing is left to step: the pass only delivers.
        let mut idle = false;
        // Set when, besides, nothing is left to deliver or visit: the
        // loop parks after delivering.
        let mut park = false;
        if !quiesce {
            state.core.dequeue(&shared);
            // Never park on budget-deferred work, and never mistake it
            // for "drained".
            if !state.core.must_step(&shared) {
                if state.draining {
                    // Nothing queued, nothing in flight, the gates
                    // closed: the service is drained.
                    finish(state);
                    return;
                }
                idle = true;
                park = state.core.fulfilled.is_empty()
                    && !state.edge.as_ref().is_some_and(|e| e.busy());
            }
        }
        state.deliver();

        // ---- Swap boundary: source is drained, perform the move. -----
        if let Some(cmd) = migration {
            let outcome = perform_migration(&mut state.core, &shared, cmd.target);
            shared.control.lock().migrating = false;
            cmd.done.deliver(outcome);
            state.pass_at = Instant::now();
            continue;
        }
        if park {
            state.park();
            continue;
        }
        if idle {
            continue;
        }

        // ---- Issue the batch and step one slot. ----------------------
        // Queueing ends at the start of this pass: the last clock read.
        state.core.issue_and_step(state.pass_at);

        // ---- Complete: poll the lanes the slot delivered to; the next
        // pass counts and delivers. The pass's one clock read.
        state.pass_at = Instant::now();
        state.core.poll(state.pass_at);
    }
}

impl LoopState {
    /// Count the polled completions and the scheduler's budget deferrals
    /// under the completion lock, taken only when there is one to count.
    fn record(&mut self) {
        let shared = &self.shared;
        let mut done = (!self.core.fulfilled.is_empty()).then(|| shared.done.lock());
        if let Some(done) = &mut done {
            for (_, response) in &self.core.fulfilled {
                let t = &mut done.tenants[response.tenant];
                t.completed += 1;
                t.latency.record(response.total_ns);
            }
        }
        self.core.sched.flush_deferrals(|t, d| {
            done.get_or_insert_with(|| shared.done.lock()).tenants[t].budget_deferrals += d
        });
    }

    /// Deliver the counted completions — wire answers straight into their
    /// connections — then run the edge's output step.
    fn deliver(&mut self) {
        for (reply, response) in self.core.fulfilled.drain(..) {
            reply.deliver(Ok(response), self.edge.as_deref_mut());
        }
        if let Some(edge) = self.edge.as_deref_mut() {
            edge.output();
        }
    }

    /// Park until a submit, a command or (with an edge) a socket wakes
    /// the loop, unless one came in while the loop was deciding to.
    fn park(&mut self) {
        let shared = Arc::clone(&self.shared);
        let mut ctl = shared.control.lock();
        shared.signals.parked.store(true, Ordering::SeqCst);
        // A submit that missed `parked` is in its ring by now, and a
        // command raised `attention` under the lock held here.
        let woken = shared.signals.attention.load(Ordering::Relaxed)
            || shared.any_queued(&self.core.heads, Ordering::SeqCst);
        if !woken {
            match self.edge.as_deref_mut() {
                Some(edge) => {
                    ctl.epoll_wake = Some(edge.wake());
                    drop(ctl);
                    if edge.idle_wait(self.core.machine.config()).is_err() {
                        close_edge(self, &mut shared.control.lock());
                    }
                }
                None => shared.work.wait(&mut ctl),
            }
        }
        shared.signals.parked.store(false, Ordering::Relaxed);
        self.pass_at = Instant::now();
    }

    /// The final report, with the completion counters as they stand.
    fn report(&self) -> ServiceReport {
        ServiceReport {
            metrics: self.shared.metrics(),
            stats: *self.core.machine.stats(),
            cycles: self.core.machine.cycle(),
            parallel_slots: self.core.machine.parallel_slots(),
            fallbacks: self.core.machine.fallbacks(),
            engine: self.core.machine.config().engine(),
        }
    }
}

/// Take a handed-over edge, or close the one its handle asked to close.
fn switch_edge(state: &mut LoopState, ctl: &mut Control) {
    match std::mem::replace(&mut ctl.edge, EdgeSlot::None) {
        EdgeSlot::Pending(edge) => {
            state.edge = Some(edge);
            ctl.edge = EdgeSlot::Attached;
        }
        EdgeSlot::Closing => close_edge(state, ctl),
        slot => ctl.edge = slot,
    }
}

/// Close the loop's edge, and any edge still handed over, under the
/// control lock (see [`EdgeSlot`]). Dropping an edge closes its sockets
/// and releases its handle.
fn close_edge(state: &mut LoopState, ctl: &mut Control) {
    state.edge = None;
    ctl.edge = EdgeSlot::None;
    ctl.epoll_wake = None;
}

/// Execute one migration once [`LoopCore::quiesced_for_swap`] holds:
/// quiesce the ATT windows, checkpoint through the full byte codec,
/// restore onto `target`, swap the machine, re-chunk queued writes for
/// the (possibly grown) block length and re-admit the quiesced tenants.
/// On any failure the source machine keeps serving; nothing is lost. The
/// service thread and the slot-clock twin ([`crate::twin`]) both call it.
pub(crate) fn perform_migration(
    core: &mut LoopCore,
    shared: &Shared,
    target: CfmConfig,
) -> Result<MigrationReport, MigrateError> {
    debug_assert_eq!(core.inflight_count, 0);
    let from_banks = core.machine.config().banks();
    let seen_at = core.migrate_seen_at.take().unwrap_or(core.machine.cycle());
    // The machine is idle; only the ATT arbitration windows (≤ b − 1
    // slots, plus transient-repair holds) remain. Budget generously —
    // a pathological fault plan pinning a held entry is a typed error,
    // not a hang.
    let budget = (from_banks as u64 + u64::from(core.machine.config().bank_cycle())) * 4 + 64;
    let result = (|| -> Result<(usize, CfmMachine), MigrateError> {
        if !core.machine.quiesce(budget) {
            return Err(MigrateError::QuiesceTimeout { budget });
        }
        let bytes = core.machine.checkpoint().to_bytes();
        let restored = MachineSnapshot::from_bytes(&bytes)?.restore_into(target)?;
        Ok((bytes.len(), restored))
    })();
    let drained_slots = core.machine.cycle() - seen_at;

    let target_cfg = result.as_ref().ok().map(|(_, restored)| *restored.config());
    let mut replayed = 0;
    // Per tenant, under its gate: re-chunk the queued writes for the
    // target's block length and check new ones against it, then
    // re-admit the tenant, success or not.
    for (t, tenant) in shared.tenants.iter().enumerate() {
        let mut gate = tenant.gate.lock();
        if let Some(cfg) = target_cfg {
            replayed += tenant.rechunk(core.heads[t], cfg.banks());
            gate.config = cfg;
        }
        gate.migrating = false;
    }
    result.map(|(snapshot_bytes, restored)| {
        let target_cfg = *restored.config();
        let processors = target_cfg.processors();
        core.machine = restored;
        core.inflight = (0..processors).map(|_| None).collect();
        core.free = (0..processors).rev().collect();
        core.inflight_count = 0;
        MigrationReport {
            snapshot_bytes,
            replayed,
            drained_slots,
            from_banks,
            to_banks: target_cfg.banks(),
            engine: target_cfg.engine(),
        }
    })
}

/// Graceful-drain exit: the machine is idle and every admitted request
/// has been fulfilled; deliver the last (already counted) answers, close
/// the edge once it has written them, and snapshot everything into the
/// report.
fn finish(state: &mut LoopState) {
    debug_assert!(state.core.machine.is_idle());
    state.deliver();
    let shared = Arc::clone(&state.shared);
    close_edge(state, &mut shared.control.lock());
    state.report = Some(state.report());
}

/// Hard-shutdown exit (service dropped, not drained): close every
/// outstanding ticket so no waiter deadlocks, answer every outstanding
/// wire request with `ShuttingDown`, then report what was done. The
/// gates are closed, so the rings hold all that is left.
fn abandon(state: &mut LoopState, ctl: &mut Control) {
    // A migration still parked (or mid-drain) resolves as ShuttingDown
    // so its caller does not wait forever.
    if let Some(cmd) = ctl.migration.take() {
        cmd.done.deliver(Err(MigrateError::ShuttingDown));
    }
    let shared = Arc::clone(&state.shared);
    // The last slot's completions are counted already; they resolve
    // with their responses, everything else as abandoned.
    state.deliver();
    let edge = &mut state.edge;
    for (t, head) in state.core.heads.iter_mut().enumerate() {
        while shared.tenants[t].ready(*head, Ordering::Acquire) {
            shared
                .take(t, head)
                .reply
                .deliver(Err(Reject::ShuttingDown), edge.as_deref_mut());
        }
    }
    for slot in &mut state.core.inflight {
        if let Some(req) = slot.take() {
            state.core.inflight_count -= 1;
            req.reply
                .deliver(Err(Reject::ShuttingDown), edge.as_deref_mut());
        }
    }
    if let Some(edge) = edge.as_deref_mut() {
        edge.output();
    }
    close_edge(state, ctl);
    state.report = Some(state.report());
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TenantSpec;
    use cfm_core::config::CfmConfig;
    use cfm_core::op::Outcome;

    fn small_service() -> Service {
        let cfg = CfmConfig::new(4, 1, 16).unwrap();
        Service::start(
            ServiceConfig::new(cfg, 32)
                .with_tenant(TenantSpec::new("a").queue_capacity(16))
                .with_tenant(TenantSpec::new("b").queue_capacity(16)),
        )
        .unwrap()
    }

    #[test]
    fn write_then_read_round_trips() {
        let service = small_service();
        let w = service.submit(0, Operation::write(3, vec![9; 4])).unwrap();
        assert_eq!(w.wait().unwrap().completion.outcome, Outcome::Completed);
        let r = service.submit(1, Operation::read(3)).unwrap();
        let resp = r.wait().unwrap();
        assert_eq!(resp.completion.data.as_deref(), Some(&[9, 9, 9, 9][..]));
        assert!(resp.total_ns >= resp.queued_ns);
        let report = service.drain();
        assert_eq!(report.stats.bank_conflicts, 0);
        assert_eq!(report.metrics.completed(), 2);
    }

    #[test]
    fn validation_rejects_before_admission() {
        let service = small_service();
        assert_eq!(
            service.submit(0, Operation::read(99)).err(),
            Some(Reject::NoSuchBlock {
                offset: 99,
                offsets: 32
            })
        );
        assert_eq!(
            service.submit(0, Operation::write(0, vec![1, 2])).err(),
            Some(Reject::WrongBlockLength { got: 2, want: 4 })
        );
        assert_eq!(
            service.submit(7, Operation::read(0)).err(),
            Some(Reject::UnknownTenant { tenant: 7 })
        );
        let report = service.drain();
        assert_eq!(report.metrics.completed(), 0);
    }

    #[test]
    fn start_rejects_degenerate_configs() {
        let cfg = CfmConfig::new(4, 1, 16).unwrap();
        assert_eq!(
            Service::start(ServiceConfig::new(cfg, 8)).err(),
            Some(StartError::NoTenants)
        );
        assert_eq!(
            Service::start(ServiceConfig::new(cfg, 8).with_tenant(TenantSpec::new("x").weight(0)))
                .err(),
            Some(StartError::ZeroWeight { tenant: 0 })
        );
        assert_eq!(
            Service::start(
                ServiceConfig::new(cfg, 8).with_tenant(TenantSpec::new("x").queue_capacity(0))
            )
            .err(),
            Some(StartError::ZeroCapacity { tenant: 0 })
        );
        assert_eq!(
            Service::start(
                ServiceConfig::new(cfg, 8).with_tenant(TenantSpec::new("x").bank_budget(0))
            )
            .err(),
            Some(StartError::ZeroBudget { tenant: 0 })
        );
        assert_eq!(
            Service::start(
                ServiceConfig::new(cfg, 8)
                    .with_tenant(TenantSpec::new("x"))
                    .budget_window(0)
            )
            .err(),
            Some(StartError::ZeroBudgetWindow)
        );
    }

    #[test]
    fn drop_without_drain_closes_tickets() {
        let service = small_service();
        let tickets: Vec<Ticket> = (0..8)
            .map(|i| service.submit(0, Operation::read(i)).unwrap())
            .collect();
        drop(service);
        // Every ticket resolves (Some if it completed before shutdown,
        // None if abandoned) — nobody deadlocks.
        for t in tickets {
            let _ = t.wait();
        }
    }

    #[test]
    fn migrate_engine_change_keeps_serving() {
        let service = small_service();
        let w = service.submit(0, Operation::write(5, vec![3; 4])).unwrap();
        w.wait().unwrap();
        let target = CfmConfig::new(4, 1, 16)
            .unwrap()
            .with_engine(Engine::Parallel { threads: 1 });
        let report = service.migrate(&[0], target).unwrap();
        assert_eq!(report.from_banks, 4);
        assert_eq!(report.to_banks, 4);
        assert_eq!(report.engine, Engine::Parallel { threads: 1 });
        // The write survives the move and the service keeps serving.
        let r = service.submit(1, Operation::read(5)).unwrap();
        assert_eq!(
            r.wait().unwrap().completion.data.as_deref(),
            Some(&[3; 4][..])
        );
        let final_report = service.drain();
        assert_eq!(final_report.stats.bank_conflicts, 0);
    }

    #[test]
    fn migrate_grows_banks_and_rechunks() {
        let service = small_service();
        let w = service.submit(0, Operation::write(2, vec![7; 4])).unwrap();
        w.wait().unwrap();
        let report = service
            .migrate(&[0], CfmConfig::new(8, 1, 16).unwrap())
            .unwrap();
        assert_eq!((report.from_banks, report.to_banks), (4, 8));
        assert!(report.snapshot_bytes > 0);
        // Geometry is live: blocks are 8 words now.
        assert_eq!(service.banks(), 8);
        assert_eq!(
            service.submit(0, Operation::write(0, vec![1; 4])).err(),
            Some(Reject::WrongBlockLength { got: 4, want: 8 })
        );
        // The pre-migration write is durable; the grown tail reads 0.
        let r = service.submit(1, Operation::read(2)).unwrap();
        let data = r.wait().unwrap().completion.data.unwrap();
        assert_eq!(&data[..4], &[7; 4]);
        assert_eq!(&data[4..], &[0; 4]);
        service.drain();
    }

    #[test]
    fn migrate_shrinking_is_typed_and_service_survives() {
        let cfg = CfmConfig::new(8, 1, 16).unwrap();
        let service = Service::start(
            ServiceConfig::new(cfg, 16).with_tenant(TenantSpec::new("a").queue_capacity(16)),
        )
        .unwrap();
        let err = service
            .migrate(&[0], CfmConfig::new(4, 1, 16).unwrap())
            .unwrap_err();
        assert!(matches!(
            err,
            MigrateError::Snapshot(SnapshotError::ShrinkingShape { what: "banks", .. })
        ));
        // The failed migration left the source machine serving.
        let t = service.submit(0, Operation::write(1, vec![9; 8])).unwrap();
        assert_eq!(t.wait().unwrap().completion.outcome, Outcome::Completed);
        service.drain();
    }

    #[test]
    fn migrate_validates_tenants_and_exclusivity() {
        let service = small_service();
        assert_eq!(
            service
                .migrate(&[9], CfmConfig::new(4, 1, 16).unwrap())
                .unwrap_err(),
            MigrateError::UnknownTenant { tenant: 9 }
        );
        service.drain();
    }

    #[test]
    fn migrating_tenant_is_shed_with_retry_hint() {
        let service = small_service();
        // Pin the quiesce flag directly (the real window is too short
        // to catch from outside deterministically).
        service.shared.tenants[0].gate.lock().migrating = true;
        match service.submit(0, Operation::read(0)).unwrap_err() {
            Reject::Migrating {
                tenant,
                retry_after_slots,
            } => {
                assert_eq!(tenant, 0);
                // 2b + c + 64 with b = 4, c = 1.
                assert_eq!(retry_after_slots, 73);
            }
            other => panic!("expected Migrating, got {other}"),
        }
        // The untouched tenant is admitted as usual.
        let t = service.submit(1, Operation::read(0)).unwrap();
        service.shared.tenants[0].gate.lock().migrating = false;
        t.wait().unwrap();
        let report = service.drain();
        assert_eq!(report.metrics.tenants[0].rejected_migrating, 1);
        assert_eq!(report.metrics.tenants[1].rejected_migrating, 0);
    }

    #[test]
    fn metrics_are_visible_mid_flight() {
        let service = small_service();
        let t = service.submit(0, Operation::read(0)).unwrap();
        t.wait().unwrap();
        let snap = service.metrics();
        assert_eq!(snap.tenants[0].submitted, 1);
        assert_eq!(snap.tenants[0].completed, 1);
        assert!(snap.tenants[0].latency.p99_ns() > 0);
        service.drain();
    }

    /// A submit from a thread other than the loop's wakes a loop that
    /// is parked, or just deciding to park, on its condvar: 1,000 times,
    /// each answer within a deadline.
    #[test]
    fn admission_submit_wakes_a_parked_loop() {
        let service = small_service();
        for i in 0..1_000 {
            let deadline = Instant::now() + std::time::Duration::from_secs(5);
            // Alternate between a loop that has announced `parked` and
            // one still on its way there, reached after a delay that
            // sweeps the passes between the last answer and the park.
            if i % 2 == 0 {
                while !service.shared.signals.parked.load(Ordering::SeqCst) {
                    assert!(Instant::now() < deadline, "the idle loop never parked");
                    std::thread::yield_now();
                }
            } else {
                for _ in 0..i % 200 {
                    std::hint::spin_loop();
                }
            }
            let mut ticket = service.submit(i % 2, Operation::read(i % 32)).unwrap();
            while ticket.try_take().is_none() {
                if Instant::now() > deadline {
                    // Dropping the service would join a loop that never
                    // woke.
                    std::mem::forget(service);
                    panic!("submit {i} never woke the parked loop");
                }
                std::thread::yield_now();
            }
        }
        assert_eq!(service.drain().metrics.completed(), 1_000);
    }

    /// A submit that lands after the loop's last look at the rings, but
    /// before it announces `parked`, sees no parked loop and wakes
    /// nobody: the loop's look after announcing must find it, and not
    /// park.
    #[test]
    fn admission_park_looks_again_after_announcing() {
        let cfg = CfmConfig::new(4, 1, 16).unwrap();
        let config = ServiceConfig::new(cfg, 32).with_tenant(TenantSpec::new("a"));
        let shared = Arc::new(Shared::new(&config));
        let mut state = LoopState {
            core: LoopCore::new(&config),
            shared: Arc::clone(&shared),
            draining: false,
            edge: None,
            pass_at: Instant::now(),
            report: None,
        };
        let _ticket = shared.submit(0, Operation::read(0)).unwrap();
        let (parked, returned) = std::sync::mpsc::channel();
        let looper = std::thread::spawn(move || {
            state.park();
            parked.send(()).unwrap();
        });
        // A loop that parks anyway is left blocked, not joined.
        returned
            .recv_timeout(std::time::Duration::from_secs(5))
            .expect("the loop parked with an operation in its ring");
        looper.join().unwrap();
    }

    /// `drain` racing four submitter threads strands no ticket: every
    /// submit is either refused with `ShuttingDown` or answered.
    #[test]
    fn admission_drain_races_submitters() {
        for round in 0..20 {
            let cfg = CfmConfig::new(4, 1, 16).unwrap();
            let mut config = ServiceConfig::new(cfg, 32);
            for t in 0..4 {
                config = config.with_tenant(TenantSpec::new(&format!("t{t}")).queue_capacity(8));
            }
            let service = Service::start(config).unwrap();
            let shared = Arc::clone(&service.shared);
            let admitted = Arc::new(AtomicUsize::new(0));
            let submitters: Vec<_> = (0..4)
                .map(|t| {
                    let shared = Arc::clone(&shared);
                    let admitted = Arc::clone(&admitted);
                    std::thread::spawn(move || {
                        let mut tickets = Vec::new();
                        loop {
                            match shared.submit(t, Operation::read(tickets.len() % 32)) {
                                Ok(ticket) => {
                                    tickets.push(ticket);
                                    admitted.fetch_add(1, Ordering::Relaxed);
                                }
                                Err(Reject::QueueFull { .. }) => std::thread::yield_now(),
                                Err(Reject::ShuttingDown) => return tickets,
                                Err(other) => panic!("unexpected rejection: {other}"),
                            }
                        }
                    })
                })
                .collect();
            // Drain once the submitters are under way, later each round.
            while admitted.load(Ordering::Relaxed) < 8 * (round + 1) {
                std::thread::yield_now();
            }
            let report = service.drain();
            let tickets: Vec<Ticket> = submitters
                .into_iter()
                .flat_map(|s| s.join().unwrap())
                .collect();
            assert_eq!(report.metrics.completed(), tickets.len() as u64);
            for ticket in tickets {
                assert!(ticket.is_ready(), "round {round}: a ticket was stranded");
                assert!(ticket.wait().is_some());
            }
        }
    }

    /// `QueueFull` fires at exactly `queue_capacity` queued operations,
    /// with the retry hint of a full queue, and each operation the loop
    /// core dequeues makes room for exactly one more.
    #[test]
    fn admission_queue_full_at_capacity() {
        let cfg = CfmConfig::new(4, 1, 16).unwrap();
        let config =
            ServiceConfig::new(cfg, 32).with_tenant(TenantSpec::new("a").queue_capacity(6));
        let shared = Shared::new(&config);
        let mut core = LoopCore::new(&config);
        for i in 0..6 {
            shared.submit(0, Operation::read(i)).unwrap();
        }
        let full = Reject::QueueFull {
            tenant: 0,
            capacity: 6,
            retry_after_slots: drain_window_slots(&cfg, 6),
        };
        assert_eq!(
            shared.submit(0, Operation::read(0)).err(),
            Some(full.clone())
        );
        // Four lanes take four operations: four more fit, then no more.
        core.dequeue(&shared);
        assert_eq!(core.batch.len(), 4);
        for i in 0..4 {
            shared.submit(0, Operation::read(i)).unwrap();
        }
        assert_eq!(shared.submit(0, Operation::read(0)).err(), Some(full));
        assert_eq!(shared.metrics().tenants[0].rejected_queue_full, 2);
    }

    /// With a binding `max_queued` and two submitter threads, admitted
    /// work not yet dequeued never exceeds the limit, and a full queue
    /// past it is refused with `Overloaded`.
    #[test]
    fn admission_max_queued_binds_across_submitters() {
        const LIMIT: usize = 10;
        const PER_THREAD: usize = 2_000;
        let cfg = CfmConfig::new(4, 1, 16).unwrap();
        let config = ServiceConfig::new(cfg, 32)
            .with_tenant(TenantSpec::new("a").queue_capacity(8))
            .with_tenant(TenantSpec::new("b").queue_capacity(8))
            .max_queued(LIMIT);
        let shared = Arc::new(Shared::new(&config));
        let submitters: Vec<_> = (0..2)
            .map(|t| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || {
                    let (mut admitted, mut overloaded) = (0, 0);
                    while admitted < PER_THREAD {
                        match shared.submit(t, Operation::read(0)) {
                            Ok(_) => admitted += 1,
                            Err(Reject::Overloaded { queued, limit, .. }) => {
                                assert_eq!((queued, limit), (LIMIT, LIMIT));
                                overloaded += 1;
                            }
                            Err(Reject::QueueFull { .. }) => {}
                            Err(other) => panic!("unexpected rejection: {other}"),
                        }
                    }
                    overloaded
                })
            })
            .collect();
        // This thread dequeues, as the loop would.
        let mut heads = [0, 0];
        let mut taken = 0;
        while taken < 2 * PER_THREAD {
            let waiting: usize = (0..2)
                .map(|t| {
                    let ring = &shared.tenants[t].ring;
                    (0..ring.len())
                        .filter(|&i| ring[i].full.load(Ordering::Acquire))
                        .count()
                })
                .sum();
            assert!(waiting <= LIMIT, "{waiting} queued over a limit of {LIMIT}");
            for (t, head) in heads.iter_mut().enumerate() {
                if shared.tenants[t].ready(*head, Ordering::Acquire) {
                    drop(shared.take(t, head));
                    taken += 1;
                }
            }
        }
        let overloaded: u64 = submitters.into_iter().map(|s| s.join().unwrap()).sum();
        let counted: u64 = shared
            .metrics()
            .tenants
            .iter()
            .map(|t| t.rejected_overloaded)
            .sum();
        assert_eq!(counted, overloaded);
        assert_eq!(
            shared
                .queued
                .as_ref()
                .unwrap()
                .count
                .load(Ordering::Relaxed),
            0
        );
    }

    /// The limit is counted only where it can bind: not when it is at or
    /// above the sum of the queue capacities.
    #[test]
    fn admission_counts_the_global_bound_only_where_it_binds() {
        let cfg = CfmConfig::new(4, 1, 16).unwrap();
        let two = |limit: Option<usize>| {
            let config = ServiceConfig::new(cfg, 32)
                .with_tenant(TenantSpec::new("a").queue_capacity(8))
                .with_tenant(TenantSpec::new("b").queue_capacity(8));
            let config = match limit {
                Some(limit) => config.max_queued(limit),
                None => config,
            };
            Shared::new(&config).queued.is_some()
        };
        assert!(!two(None));
        assert!(!two(Some(16)));
        assert!(!two(Some(100)));
        assert!(two(Some(15)));
    }

    /// Once `Ticket::wait` returns, `metrics()` already counts the
    /// completion.
    #[test]
    fn admission_wait_sees_the_completion_counted() {
        let service = small_service();
        for i in 0..500u64 {
            let ticket = service
                .submit((i % 2) as usize, Operation::read(0))
                .unwrap();
            ticket.wait().unwrap();
            assert_eq!(service.metrics().completed(), i + 1);
        }
        service.drain();
    }

    #[test]
    fn retry_hints_follow_the_drain_model() {
        // The backlog over the lanes, rounded up, plus the bank cycle and
        // one: 4 lanes at c = 2.
        let cfg = CfmConfig::new(4, 2, 16).unwrap();
        assert_eq!(drain_window_slots(&cfg, 8), 2 + 2 + 1);
        assert_eq!(drain_window_slots(&cfg, 0), 2 + 1);
        assert_eq!(drain_window_slots(&cfg, 5), 2 + 2 + 1);
    }

    #[test]
    fn budgeted_tenant_is_deferred_not_rejected_and_finishes() {
        let cfg = CfmConfig::new(4, 1, 16).unwrap();
        let service = Service::start(
            ServiceConfig::new(cfg, 64)
                .with_tenant(TenantSpec::new("capped").queue_capacity(32).bank_budget(1))
                .with_tenant(TenantSpec::new("free").queue_capacity(32))
                .budget_window(4),
        )
        .unwrap();
        let mut tickets = Vec::new();
        for i in 0..16 {
            tickets.push(
                service
                    .submit(0, Operation::write(i % 8, vec![i as u64; 4]))
                    .expect("budget throttling must defer, never reject"),
            );
        }
        for t in tickets {
            assert_eq!(t.wait().unwrap().completion.outcome, Outcome::Completed);
        }
        let report = service.drain();
        assert_eq!(report.metrics.tenants[0].completed, 16);
        assert_eq!(report.metrics.tenants[0].rejected_queue_full, 0);
        assert!(
            report.metrics.tenants[0].budget_deferrals > 0,
            "a 1-op-per-4-slot cap against a 16-op backlog must defer"
        );
        assert_eq!(report.stats.bank_conflicts, 0);
    }

    #[test]
    fn critical_and_best_effort_tenants_coexist() {
        let cfg = CfmConfig::new(4, 1, 16).unwrap();
        let service = Service::start(
            ServiceConfig::new(cfg, 64)
                .with_tenant(
                    TenantSpec::new("lc")
                        .criticality(Criticality::LatencyCritical)
                        .queue_capacity(32),
                )
                .with_tenant(TenantSpec::new("be").weight(8).queue_capacity(32)),
        )
        .unwrap();
        let mut tickets = Vec::new();
        for i in 0..8 {
            tickets.push(service.submit(1, Operation::write(i, vec![1; 4])).unwrap());
            tickets.push(service.submit(0, Operation::read(i)).unwrap());
        }
        for t in tickets {
            assert!(t.wait().is_some());
        }
        let report = service.drain();
        assert_eq!(report.metrics.tenants[0].completed, 8);
        assert_eq!(report.metrics.tenants[1].completed, 8);
        assert_eq!(report.stats.bank_conflicts, 0);
    }
}
