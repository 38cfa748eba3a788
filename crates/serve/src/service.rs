//! The service itself: admission, the slot-batching event loop, drain.
//!
//! One thread, spawned at start and joined at drain or drop, owns the
//! [`CfmMachine`] outright — clients never touch the machine, so the
//! machine runs lock-free. Clients and the loop meet at a small shared
//! state (tenant queues + counters) guarded by one mutex with short
//! critical sections, plus a condvar the loop parks on
//! when — and only when — there is neither queued nor in-flight work.
//!
//! Per iteration the loop takes the state lock once. Under it, it counts
//! the previous slot's completions and dequeues up to one operation per
//! idle processor (deficit round-robin across tenants). After releasing
//! it, the loop delivers those completions, issues the batch, steps the
//! machine exactly one slot and polls the new completions. A ticket's
//! admission-to-fulfillment wall time is in the tenant's latency
//! histogram before the ticket resolves.

use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use cfm_core::config::{CfmConfig, Engine};
use cfm_core::machine::CfmMachine;
use cfm_core::op::{OpKind, Operation};
use cfm_core::snapshot::{MachineSnapshot, SnapshotError};
use cfm_core::spec::Footprint;
use cfm_core::stats::Stats;
use cfm_core::ProcId;
use parking_lot::{Condvar, Mutex};

use crate::config::{Criticality, ServiceConfig};
use crate::edge::{CompletionQueue, Route};
use crate::metrics::{Metrics, MetricsSnapshot};
use crate::queue::{Pending, TenantQueue};
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
#[derive(Debug, Clone)]
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

/// A migration request parked in [`Inner`] for the event loop.
struct MigrationCmd {
    target: CfmConfig,
    done: Arc<MigrationDone>,
}

/// Client-facing state: queues and counters, guarded by one mutex.
struct Inner {
    queues: Vec<TenantQueue>,
    total_queued: usize,
    max_queued: usize,
    metrics: Metrics,
    draining: bool,
    shutdown: bool,
    /// Current machine geometry, updated by a live migration — submit
    /// validates block lengths against it, so it lives under the lock.
    banks: usize,
    processors: usize,
    bank_cycle: u32,
    /// `migrating[t]`: tenant `t`'s queue is quiesced across a pending
    /// migration; its submits are shed with [`Reject::Migrating`].
    migrating: Vec<bool>,
    /// A migration waiting for the event loop to pick it up.
    migration: Option<MigrationCmd>,
    /// Statically admitted per-tenant footprints (see
    /// [`Footprints::admit`]): `footprints[t]` is the block
    /// claim tenant `t` holds, `None` = no claim registered.
    footprints: Vec<Option<Footprint>>,
}

impl Inner {
    /// Upper-bound estimate, in machine slots, of the window a
    /// [`Reject::Migrating`] client should back off for: the worst-case
    /// in-flight drain (≈ β = b + c − 1 plus restarts), the ATT settle
    /// window (≤ b − 1), and swap overhead.
    fn migration_window_slots(&self) -> u64 {
        (2 * self.banks + self.bank_cycle as usize) as u64 + 64
    }

    /// Estimate, in machine slots, of how long a backpressured client
    /// should wait for `waiting` queued operations to drain: the event
    /// loop dequeues at most one operation per lane per slot, plus one
    /// bank cycle of pipeline settle. Used for the
    /// [`Reject::QueueFull`] / [`Reject::Overloaded`] retry hints —
    /// deliberately the same drain model as
    /// [`Inner::migration_window_slots`], minus the swap overhead.
    fn drain_window_slots(&self, waiting: usize) -> u64 {
        (waiting as u64).div_ceil(self.processors as u64) + u64::from(self.bank_cycle) + 1
    }
}

struct Shared {
    state: Mutex<Inner>,
    /// The event loop parks here when fully idle; submits and
    /// drain/shutdown notify it.
    work: Condvar,
}

/// The block an operation addresses and the block length it carries,
/// from [`Service::target`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct Target {
    offset: usize,
    data_len: Option<usize>,
}

/// One in-flight operation's service-side bookkeeping, indexed by the
/// processor lane carrying it.
struct InFlightReq {
    tenant: TenantId,
    reply: Reply,
    submitted: Instant,
    queued_ns: u64,
}

/// Everything the event-loop thread owns. Moved into the thread at start
/// and returned by it (with `report` filled) at drain.
struct LoopState {
    machine: CfmMachine,
    shared: Arc<Shared>,
    sched: QosScheduler,
    /// `inflight[p]` is the request processor lane `p` is carrying.
    inflight: Vec<Option<InFlightReq>>,
    free: Vec<ProcId>,
    inflight_count: usize,
    /// Machine cycle when the loop first saw the pending migration —
    /// start of the drain window reported in [`MigrationReport`].
    migrate_seen_at: Option<u64>,
    /// The slot batch being admitted and issued, kept to reuse its
    /// buffer.
    batch: Vec<(ProcId, Pending, TenantId)>,
    /// The last slot's completions, counted and then delivered on the
    /// next pass (see [`run_event_loop`]).
    fulfilled: Vec<(Reply, Response)>,
    /// Edge queues owed a wake check by the current delivery.
    wakes: Wakes,
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
    offsets: usize,
}

impl Service {
    /// Validate `config`, build the machine, and spawn the event loop.
    pub fn start(config: ServiceConfig) -> Result<Service, StartError> {
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

        let banks = config.machine.banks();
        let offsets = config.offsets;
        let processors = config.machine.processors();
        let bank_cycle = config.machine.bank_cycle();
        let machine = CfmMachine::builder(config.machine).offsets(offsets).build();

        let shared = Arc::new(Shared {
            state: Mutex::new(Inner {
                queues: config
                    .tenants
                    .iter()
                    .map(|t| TenantQueue::new(t.queue_capacity))
                    .collect(),
                total_queued: 0,
                max_queued: config.effective_max_queued(),
                metrics: Metrics::new(config.tenants.iter().map(|t| t.name.clone()).collect()),
                draining: false,
                shutdown: false,
                banks,
                processors,
                bank_cycle,
                migrating: vec![false; config.tenants.len()],
                migration: None,
                footprints: (0..config.tenants.len()).map(|_| None).collect(),
            }),
            work: Condvar::new(),
        });

        let state = LoopState {
            machine,
            shared: Arc::clone(&shared),
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
            inflight: (0..processors).map(|_| None).collect(),
            free: (0..processors).rev().collect(),
            inflight_count: 0,
            migrate_seen_at: None,
            batch: Vec::with_capacity(processors),
            fulfilled: Vec::with_capacity(processors),
            wakes: Wakes::default(),
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
            offsets,
        })
    }

    /// Blocks of shared memory the machine exposes.
    pub fn offsets(&self) -> usize {
        self.offsets
    }

    /// Processor lanes of the underlying machine — the `n` a tenant's
    /// [`cfm_core::spec::ProgramSpec`] must be proven for. May change
    /// across a [`Service::migrate`].
    pub fn processors(&self) -> usize {
        self.shared.state.lock().processors
    }

    /// Bank cycle `c` of the underlying machine. May change across a
    /// [`Service::migrate`].
    pub fn bank_cycle(&self) -> u32 {
        self.shared.state.lock().bank_cycle
    }

    /// Memory banks `b` of the underlying machine — the block length
    /// writes must carry. May grow across a [`Service::migrate`].
    pub fn banks(&self) -> usize {
        self.shared.state.lock().banks
    }

    /// Submit one block operation on behalf of `tenant` — convenience
    /// wrapper packing the arguments into a [`Request`] for
    /// [`Service::submit_request`].
    pub fn submit(&self, tenant: TenantId, op: Operation) -> Result<Ticket, Reject> {
        self.submit_request(Request::new(tenant, op))
    }

    /// Submit one [`Request`] envelope — the same struct the wire codec
    /// ([`crate::wire`]) decodes, so the network edge and in-process
    /// callers share one admission path verbatim. Validation and
    /// admission control happen here, synchronously: the returned
    /// [`Ticket`] is only handed out for operations that *will* be
    /// scheduled (absent shutdown). Rejections are typed backpressure —
    /// see [`Reject`].
    pub fn submit_request(&self, request: Request) -> Result<Ticket, Reject> {
        let Request { tenant, op } = request;
        // Validate against machine geometry before touching the lock.
        let target = self.target(&op)?;
        let mut inner = self.shared.state.lock();
        let ticket = self.admit(&mut inner, tenant, op, target, || {
            let ticket = TicketInner::new();
            (Reply::Ticket(Arc::clone(&ticket)), ticket)
        })?;
        drop(inner);
        // The loop may be parked; one waiter, one wake.
        self.shared.work.notify_one();
        Ok(Ticket { inner: ticket })
    }

    /// The block `op` addresses, checked against the machine's offsets,
    /// and the block length it carries. The offset count never changes,
    /// so this needs no lock; the edge calls it as it decodes.
    pub(crate) fn target(&self, op: &Operation) -> Result<Target, Reject> {
        let (offset, data_len) = match op {
            Operation::Read { offset } | Operation::Rmw { offset, .. } => (*offset, None),
            Operation::Write { offset, data } | Operation::Swap { offset, data } => {
                (*offset, Some(data.len()))
            }
        };
        if offset >= self.offsets {
            return Err(Reject::NoSuchBlock {
                offset,
                offsets: self.offsets,
            });
        }
        Ok(Target { offset, data_len })
    }

    /// Submit a batch of wire requests, each already checked by
    /// [`Service::target`], under one lock, each with its route on the
    /// edge's completion queue. Every request goes through
    /// [`Service::submit_request`]'s admission checks unchanged; the
    /// refused ones come back in `refused` with their routes, and
    /// `batch` is left empty.
    pub(crate) fn submit_routed(
        &self,
        queue: &Arc<CompletionQueue>,
        batch: &mut Vec<(Route, Request, Target)>,
        refused: &mut Vec<(Route, Reject)>,
    ) {
        if batch.is_empty() {
            return;
        }
        let mut admitted = false;
        let mut inner = self.shared.state.lock();
        for (route, Request { tenant, op }, target) in batch.drain(..) {
            let reply = || {
                let reply = Reply::Edge {
                    queue: Arc::clone(queue),
                    route,
                };
                (reply, ())
            };
            match self.admit(&mut inner, tenant, op, target, reply) {
                Ok(()) => admitted = true,
                Err(reject) => refused.push((route, reject)),
            }
        }
        drop(inner);
        if admitted {
            self.shared.work.notify_one();
        }
    }

    /// Admit one request whose [`Target`] is checked, under the state
    /// lock. Only an admitted request gets its reply, from `reply`,
    /// which also returns the submitter's handle on it.
    fn admit<H>(
        &self,
        inner: &mut Inner,
        tenant: TenantId,
        op: Operation,
        target: Target,
        reply: impl FnOnce() -> (Reply, H),
    ) -> Result<H, Reject> {
        let Target { offset, data_len } = target;
        if tenant >= inner.queues.len() {
            return Err(Reject::UnknownTenant { tenant });
        }
        // Block length is machine geometry, and geometry can change
        // across a live migration — validate under the same lock.
        if let Some(got) = data_len {
            if got != inner.banks {
                return Err(Reject::WrongBlockLength {
                    got,
                    want: inner.banks,
                });
            }
        }
        if inner.migrating[tenant] {
            let retry_after_slots = inner.migration_window_slots();
            inner.metrics.tenants[tenant].rejected_migrating += 1;
            return Err(Reject::Migrating {
                tenant,
                retry_after_slots,
            });
        }
        // Static admission: a block another tenant's admitted footprint
        // claims is off limits when either side writes it — the same
        // reader/writer-set rule `Footprint::conflicts_with` applies to
        // whole programs, checked here per operation. Out-of-range
        // footprint queries surface as typed `Reject::FootprintRange`
        // (unreachable while every claim passes the geometry gate, but
        // never a silent "no conflict").
        let writes = op.kind() != OpKind::Read;
        for (holder, claim) in inner.footprints.iter().enumerate() {
            if holder == tenant {
                continue;
            }
            let Some(claim) = claim else { continue };
            let held_writes = claim.written(offset)?;
            if (claim.touches(offset)? && writes) || held_writes {
                inner.metrics.tenants[tenant].rejected_static += 1;
                return Err(Reject::StaticConflict {
                    tenant: holder,
                    offset,
                    held_writes,
                    requested_writes: writes,
                });
            }
        }
        if inner.draining || inner.shutdown {
            inner.metrics.tenants[tenant].rejected_shutdown += 1;
            return Err(Reject::ShuttingDown);
        }
        if inner.queues[tenant].is_full() {
            let capacity = inner.queues[tenant].capacity;
            let retry_after_slots = inner.drain_window_slots(inner.queues[tenant].len());
            inner.metrics.tenants[tenant].rejected_queue_full += 1;
            return Err(Reject::QueueFull {
                tenant,
                capacity,
                retry_after_slots,
            });
        }
        if inner.total_queued >= inner.max_queued {
            let (queued, limit) = (inner.total_queued, inner.max_queued);
            let retry_after_slots = inner.drain_window_slots(queued);
            inner.metrics.tenants[tenant].rejected_overloaded += 1;
            return Err(Reject::Overloaded {
                queued,
                limit,
                retry_after_slots,
            });
        }

        let (reply, handle) = reply();
        inner.queues[tenant].push(Pending {
            op,
            reply,
            submitted: Instant::now(),
        });
        inner.total_queued += 1;
        inner.metrics.tenants[tenant].submitted += 1;
        Ok(handle)
    }

    /// The footprint-admission surface: claims and their withdrawal,
    /// gathered behind one handle. See [`Footprints`].
    pub fn footprints(&self) -> Footprints<'_> {
        Footprints { service: self }
    }

    /// Current counters and latency quantiles (cheap clone under the
    /// state lock; does not disturb the event loop).
    pub fn metrics(&self) -> MetricsSnapshot {
        self.shared.state.lock().metrics.snapshot()
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
            let mut inner = self.shared.state.lock();
            if inner.draining || inner.shutdown {
                return Err(MigrateError::ShuttingDown);
            }
            if inner.migration.is_some() || inner.migrating.iter().any(|&m| m) {
                return Err(MigrateError::MigrationInProgress);
            }
            if let Some(&t) = tenants.iter().find(|&&t| t >= inner.queues.len()) {
                return Err(MigrateError::UnknownTenant { tenant: t });
            }
            for &t in tenants {
                inner.migrating[t] = true;
            }
            inner.migration = Some(MigrationCmd {
                target,
                done: Arc::clone(&done),
            });
        }
        self.shared.work.notify_one();
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
        {
            let mut inner = self.shared.state.lock();
            inner.draining = true;
        }
        self.shared.work.notify_one();
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

/// The service's footprint-admission surface, obtained from
/// [`Service::footprints`]: one handle over claims
/// ([`Footprints::admit`]) and claim release
/// ([`Footprints::withdraw`]). The handle borrows the service; it holds
/// no state of its own.
pub struct Footprints<'a> {
    service: &'a Service,
}

impl Footprints<'_> {
    /// Register `tenant`'s statically analyzed block footprint (e.g. a
    /// [`cfm_core::spec::ProgramSpec`] footprint the `cfm-verify
    /// analyze` pipeline proved). Admission is all-or-nothing: if the
    /// footprint conflicts with any *other* tenant's admitted footprint
    /// — both touch a block and at least one writes it — nothing is
    /// registered and the typed [`Reject::StaticConflict`] carries the
    /// witness. Once admitted, the claim also gates per-operation
    /// submits from other tenants, and re-admitting replaces the
    /// tenant's previous claim.
    pub fn admit(&self, tenant: TenantId, footprint: Footprint) -> Result<(), Reject> {
        // A footprint over the wrong block count would answer every
        // later query out of range — refuse it typed, up front.
        if footprint.offsets() != self.service.offsets {
            return Err(Reject::FootprintGeometry {
                got: footprint.offsets(),
                want: self.service.offsets,
            });
        }
        let mut inner = self.service.shared.state.lock();
        if tenant >= inner.queues.len() {
            return Err(Reject::UnknownTenant { tenant });
        }
        if inner.draining || inner.shutdown {
            return Err(Reject::ShuttingDown);
        }
        for (holder, held) in inner.footprints.iter().enumerate() {
            if holder == tenant {
                continue;
            }
            let Some(held) = held else { continue };
            if let Some(w) = held.conflicts_with(&footprint) {
                inner.metrics.tenants[tenant].rejected_static += 1;
                return Err(Reject::StaticConflict {
                    tenant: holder,
                    offset: w.offset,
                    held_writes: w.left_writes,
                    requested_writes: w.right_writes,
                });
            }
        }
        inner.footprints[tenant] = Some(footprint);
        Ok(())
    }

    /// Withdraw `tenant`'s admitted footprint (if any), releasing its
    /// block claim for other tenants.
    pub fn withdraw(&self, tenant: TenantId) -> Option<Footprint> {
        let mut inner = self.service.shared.state.lock();
        inner.footprints.get_mut(tenant)?.take()
    }
}

impl Drop for Service {
    fn drop(&mut self) {
        // Fast shutdown for the non-drain path: tell the loop to abandon
        // outstanding work (closing tickets) so the join below cannot
        // block on a parked-forever loop.
        {
            let mut inner = self.shared.state.lock();
            inner.shutdown = true;
        }
        self.shared.work.notify_one();
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
/// Each iteration takes the state lock once. Under it, the loop counts
/// the previous slot's completions in the metrics and admits the next
/// batch. It delivers those completions after counting them — once the
/// lock is released, or still under it when it exits — so a ticket that
/// has resolved is always already counted.
fn run_event_loop(state: &mut LoopState) {
    // Hold the shared handle separately so locking it does not borrow
    // `state` (the exit helpers need `&mut LoopState` while the guard
    // lives).
    let shared = Arc::clone(&state.shared);
    loop {
        // ---- Record the last slot, then admit one op per idle lane. --
        let mut migration: Option<MigrationCmd> = None;
        // Set when the loop would park with answers still to deliver:
        // it delivers them outside the lock and parks on the next pass.
        let mut idle = false;
        {
            let mut inner = shared.state.lock();
            state.record(&mut inner.metrics);
            // Fold budget-deferral counts into the metrics while the
            // lock is held anyway (no allocation, usually a no-op).
            state
                .sched
                .flush_deferrals(|t, d| inner.metrics.tenants[t].budget_deferrals += d);
            loop {
                if inner.shutdown {
                    abandon(state, &mut inner);
                    return;
                }
                if inner.migration.is_some() {
                    // Quiesce toward the swap: issue nothing new. Once
                    // the last in-flight operation completes, take the
                    // command and perform the migration outside the
                    // lock; until then fall through with an empty batch
                    // so the machine keeps stepping.
                    if state.migrate_seen_at.is_none() {
                        state.migrate_seen_at = Some(state.machine.cycle());
                    }
                    if state.inflight_count == 0 {
                        migration = inner.migration.take();
                    }
                    break;
                }
                while !state.free.is_empty() && inner.total_queued > 0 {
                    let queues = &inner.queues;
                    let Some(t) = state.sched.next(|t| !queues[t].is_empty()) else {
                        break;
                    };
                    let pending = inner.queues[t].pop().expect("scheduler saw work");
                    inner.total_queued -= 1;
                    let p = state.free.pop().expect("checked non-empty");
                    state.batch.push((p, pending, t));
                }
                // Budget-deferred work (queued but unschedulable this
                // window) must keep the loop stepping so the window can
                // roll over and refill budgets — never park on it, and
                // never mistake it for "drained".
                if !state.batch.is_empty() || state.inflight_count > 0 || inner.total_queued > 0 {
                    break;
                }
                if inner.draining {
                    // Nothing queued, nothing in flight, no new admits:
                    // the service is drained.
                    finish(state, &mut inner);
                    return;
                }
                if !state.fulfilled.is_empty() {
                    idle = true;
                    break;
                }
                // Fully idle: park until a submit or drain wakes us.
                shared.work.wait(&mut inner);
                state.pass_at = Instant::now();
            }
        }
        state.deliver();

        // ---- Swap boundary: source is drained, perform the move. -----
        if let Some(cmd) = migration {
            perform_migration(state, &shared, cmd);
            state.pass_at = Instant::now();
            continue;
        }
        if idle {
            continue;
        }

        // ---- Issue the slot batch (outside the lock). ----------------
        // Queueing ends at the start of this pass: the last clock read.
        for (p, pending, tenant) in state.batch.drain(..) {
            let queued_ns = state
                .pass_at
                .saturating_duration_since(pending.submitted)
                .as_nanos() as u64;
            state
                .machine
                .issue(p, pending.op)
                .expect("validated at admission onto an idle processor");
            state.inflight[p] = Some(InFlightReq {
                tenant,
                reply: pending.reply,
                submitted: pending.submitted,
                queued_ns,
            });
            state.inflight_count += 1;
        }

        // ---- One slot. ----------------------------------------------
        state.machine.step();
        state.sched.on_slot();

        // ---- Complete: poll the lanes the slot delivered to; the next
        // pass records and delivers. The pass's one clock read.
        let now = Instant::now();
        state.pass_at = now;
        for i in 0..state.machine.delivered().len() {
            let p = state.machine.delivered()[i];
            while let Some(completion) = state.machine.poll(p) {
                let req = state.inflight[p]
                    .take()
                    .expect("completion implies an in-flight request");
                state.inflight_count -= 1;
                state.free.push(p);
                let total_ns = now.saturating_duration_since(req.submitted).as_nanos() as u64;
                state.fulfilled.push((
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

impl LoopState {
    /// Count the polled completions in `metrics`, under the state lock.
    fn record(&self, metrics: &mut Metrics) {
        for (_, response) in &self.fulfilled {
            let t = &mut metrics.tenants[response.tenant];
            t.completed += 1;
            t.latency.record(response.total_ns);
        }
    }

    /// Deliver the counted completions, then wake their edges.
    fn deliver(&mut self) {
        for (reply, response) in self.fulfilled.drain(..) {
            self.wakes.note(reply.deliver(Ok(response)));
        }
        self.wakes.fire();
    }
}

/// The edge completion queues one slot's deliveries went to: each is
/// checked once, after the whole slot is delivered, and its edge woken
/// only if parked — at most one eventfd write per slot, so the edge picks
/// up a slot's responses as one burst instead of one wake per response.
#[derive(Default)]
struct Wakes(Vec<Arc<CompletionQueue>>);

impl Wakes {
    fn note(&mut self, queue: Option<Arc<CompletionQueue>>) {
        if let Some(q) = queue {
            if !self.0.iter().any(|w| Arc::ptr_eq(w, &q)) {
                self.0.push(q);
            }
        }
    }

    fn fire(&mut self) {
        for q in self.0.drain(..) {
            q.wake_if_parked();
        }
    }
}

/// Execute one migration at the swap boundary: the source machine has
/// no operation in flight. Quiesce the ATT windows, checkpoint through
/// the full byte codec, restore onto the target shape, swap the
/// machine, and re-chunk queued writes for the (possibly grown) block
/// length. On any failure the source machine is kept and the service
/// continues on it — the error travels back to the [`Service::migrate`]
/// caller, nothing is lost.
fn perform_migration(state: &mut LoopState, shared: &Arc<Shared>, cmd: MigrationCmd) {
    debug_assert_eq!(state.inflight_count, 0);
    let from_banks = state.machine.config().banks();
    let seen_at = state
        .migrate_seen_at
        .take()
        .unwrap_or(state.machine.cycle());
    // The machine is idle; only the ATT arbitration windows (≤ b − 1
    // slots, plus transient-repair holds) remain. Budget generously —
    // a pathological fault plan pinning a held entry is a typed error,
    // not a hang.
    let budget = (from_banks as u64 + u64::from(state.machine.config().bank_cycle())) * 4 + 64;
    let result = (|| -> Result<(usize, CfmMachine), MigrateError> {
        if !state.machine.quiesce(budget) {
            return Err(MigrateError::QuiesceTimeout { budget });
        }
        let bytes = state.machine.checkpoint().to_bytes();
        let restored = MachineSnapshot::from_bytes(&bytes)?.restore_into(cmd.target)?;
        Ok((bytes.len(), restored))
    })();
    let drained_slots = state.machine.cycle() - seen_at;

    let mut inner = shared.state.lock();
    let outcome = result.map(|(snapshot_bytes, restored)| {
        let target_cfg = *restored.config();
        let to_banks = target_cfg.banks();
        let processors = target_cfg.processors();
        state.machine = restored;
        state.inflight = (0..processors).map(|_| None).collect();
        state.free = (0..processors).rev().collect();
        state.inflight_count = 0;
        // Re-chunk queued writes for the grown block length; the added
        // words are zero, matching the restored image's new banks.
        let mut replayed = 0;
        for q in &mut inner.queues {
            for pending in q.queue.iter_mut() {
                if let Operation::Write { data, .. } | Operation::Swap { data, .. } =
                    &mut pending.op
                {
                    if data.len() < to_banks {
                        let mut grown = data.to_vec();
                        grown.resize(to_banks, 0);
                        *data = grown.into_boxed_slice();
                    }
                }
                replayed += 1;
            }
        }
        inner.banks = to_banks;
        inner.processors = processors;
        inner.bank_cycle = target_cfg.bank_cycle();
        MigrationReport {
            snapshot_bytes,
            replayed,
            drained_slots,
            from_banks,
            to_banks,
            engine: target_cfg.engine(),
        }
    });
    // Re-admit the quiesced tenants, success or not.
    for m in inner.migrating.iter_mut() {
        *m = false;
    }
    cmd.done.deliver(outcome);
    drop(inner);
    // Queued work (including the replayed operations) is issuable now.
    shared.work.notify_one();
}

/// Graceful-drain exit: the machine is idle and every admitted request
/// has been fulfilled; deliver the last (already counted) answers and
/// snapshot everything into the report.
fn finish(state_ref: &mut LoopState, inner: &mut Inner) {
    debug_assert!(state_ref.machine.is_idle());
    state_ref.deliver();
    state_ref.report = Some(ServiceReport {
        metrics: inner.metrics.snapshot(),
        stats: *state_ref.machine.stats(),
        cycles: state_ref.machine.cycle(),
        parallel_slots: state_ref.machine.parallel_slots(),
        engine: state_ref.machine.config().engine(),
    });
}

/// Hard-shutdown exit (service dropped, not drained): close every
/// outstanding ticket so no waiter deadlocks, then report what was done.
fn abandon(state_ref: &mut LoopState, inner: &mut Inner) {
    // A migration still parked (or mid-drain) resolves as ShuttingDown
    // so its caller does not wait forever.
    if let Some(cmd) = inner.migration.take() {
        cmd.done.deliver(Err(MigrateError::ShuttingDown));
    }
    for m in inner.migrating.iter_mut() {
        *m = false;
    }
    // The last slot's completions are counted already; they resolve
    // with their responses, everything else as abandoned.
    state_ref.deliver();
    let wakes = &mut state_ref.wakes;
    for q in &mut inner.queues {
        while let Some(pending) = q.pop() {
            inner.total_queued -= 1;
            wakes.note(pending.reply.deliver(Err(Reject::ShuttingDown)));
        }
    }
    for slot in &mut state_ref.inflight {
        if let Some(req) = slot.take() {
            state_ref.inflight_count -= 1;
            wakes.note(req.reply.deliver(Err(Reject::ShuttingDown)));
        }
    }
    wakes.fire();
    state_ref.report = Some(ServiceReport {
        metrics: inner.metrics.snapshot(),
        stats: *state_ref.machine.stats(),
        cycles: state_ref.machine.cycle(),
        parallel_slots: state_ref.machine.parallel_slots(),
        engine: state_ref.machine.config().engine(),
    });
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
    fn footprint_admission_rejects_static_conflicts() {
        let service = small_service();
        // Tenant 0 claims blocks 0..4 for writing.
        let mut held = Footprint::new(32);
        for o in 0..4 {
            held.record(0, true, o);
        }
        service.footprints().admit(0, held).unwrap();

        // A disjoint read-only footprint is admitted.
        let mut fine = Footprint::new(32);
        fine.record(0, false, 10);
        service.footprints().admit(1, fine).unwrap();

        // A footprint overlapping the written claim is refused with the
        // witness, and nothing is registered for the loser.
        let mut clash = Footprint::new(32);
        clash.record(0, false, 2);
        assert_eq!(
            service.footprints().admit(1, clash).err(),
            Some(Reject::StaticConflict {
                tenant: 0,
                offset: 2,
                held_writes: true,
                requested_writes: false,
            })
        );

        // Per-op enforcement: tenant 1 cannot read tenant 0's written
        // block, nor write a block tenant 0 reads elsewhere — but the
        // holder itself still can.
        assert_eq!(
            service.submit(1, Operation::read(3)).err(),
            Some(Reject::StaticConflict {
                tenant: 0,
                offset: 3,
                held_writes: true,
                requested_writes: false,
            })
        );
        let t = service.submit(0, Operation::write(3, vec![5; 4])).unwrap();
        assert_eq!(t.wait().unwrap().completion.outcome, Outcome::Completed);

        // Withdrawal releases the claim.
        assert!(service.footprints().withdraw(0).is_some());
        service
            .submit(1, Operation::read(3))
            .unwrap()
            .wait()
            .unwrap();

        let report = service.drain();
        assert_eq!(report.metrics.tenants[1].rejected_static, 2);
        assert_eq!(report.stats.bank_conflicts, 0);
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
        assert_eq!(service.processors(), 8);
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
        service.shared.state.lock().migrating[0] = true;
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
        service.shared.state.lock().migrating[0] = false;
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

    #[test]
    fn retry_hints_follow_the_drain_model() {
        let service = small_service();
        // backlog / lanes + bank cycle + 1, with 4 lanes and c·(b−1)+1 …
        // for b = 4, c = 1 the cycle is 4: 8/4 + 4 + 1 would be 7 if the
        // cycle were b·c; pin whatever the live geometry says instead of
        // hardcoding an assumption.
        let inner = service.shared.state.lock();
        let cycle = u64::from(inner.bank_cycle);
        assert_eq!(inner.drain_window_slots(8), 2 + cycle + 1);
        assert_eq!(inner.drain_window_slots(0), cycle + 1);
        assert_eq!(inner.drain_window_slots(5), 2 + cycle + 1);
        drop(inner);
        service.drain();
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
