//! The slot-stepped CFM machine (§3.1, Chapter 4).
//!
//! [`CfmMachine`] ties together the AT-space schedule, the synchronous
//! interconnect, the pipelined memory banks and the per-bank Address
//! Tracking Tables. It is a deterministic state machine: [`CfmMachine::step`]
//! simulates one CPU cycle (= one time slot); all state observable between
//! steps is exact at cycle granularity.
//!
//! Timing model (Fig 3.6): an operation issued between steps begins its
//! first word access in the very next simulated cycle — block accesses
//! start at any slot with no alignment stall. It injects into one bank per
//! cycle following the AT-space rotation `bank(t, p) = (t + c·p) mod b`;
//! the `c − 1` cycle pipeline drain of the last bank is accounted in the
//! completion timestamp, giving the paper's `β = b + c − 1` end-to-end.
//!
//! The machine verifies the central claim of the paper every cycle: **no
//! two processors ever inject into the same bank in the same slot**
//! ([`crate::stats::Stats::bank_conflicts`] stays 0). It also runs a
//! block-version checker (writer-id stamps per word) that detects torn
//! reads — which the ATT provably prevents, and which reappear the moment
//! tracking is disabled (the Fig 4.1 ablation).

use std::collections::VecDeque;

use crate::atspace::AtSpace;
use crate::att::{Att, Entry, PriorityMode, TrackKind, WriteVerdict};
use crate::bank::BankArray;
use crate::config::{CfmConfig, Engine};
use crate::fault::{BankMap, FaultKind, FaultPlan, FaultState, RetireAction, MASKED_WRITER};
use crate::op::{
    BlockTransform, Completion, IssueError, OpKind, Operation, Outcome, PendingOp, StallError,
};
use crate::snapshot::{AttState, InFlightState, MachineSnapshot, SnapshotError};
use crate::stats::Stats;
use crate::trace::{MemoryTrace, MergeAction, NullSink, TraceEvent, TraceSink};
use crate::{BankId, BlockOffset, Cycle, ProcId, Word};

/// Bounded retry budget against a transiently erroring bank; past it the
/// operation is abandoned with [`Outcome::TransientFault`].
const MAX_FAULT_RETRIES: u32 = 8;

/// Exponential slot-backoff cap: retry `a` sleeps `2^min(a, CAP)` slots.
const FAULT_BACKOFF_CAP: u32 = 6;

/// Bit pattern XORed into the word a suppressed retry lets through — the
/// "missed retry" seeded fault corrupts data exactly like an undetected
/// bank error would.
const CORRUPT_MASK: Word = 0xDEAD_BEEF_DEAD_BEEF;

/// Fresh block buffers allocated at once when the buffer pool runs dry.
const BUF_REFILL: usize = 32;

/// Phase of an in-flight operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Sweeping banks reading words (plain read, or swap's read phase).
    Read,
    /// Sweeping banks writing words (plain write, or swap's write phase).
    Write,
    /// All word accesses done; waiting for the bank pipeline to drain.
    Drain,
}

/// An operation in flight on one processor's AT-space subset.
#[derive(Debug, Clone)]
struct InFlight {
    kind: OpKind,
    offset: BlockOffset,
    write_data: Box<[Word]>,
    /// For RMWs: the transform computing the write data from the block
    /// read (applied between phases, pipelined as §4.2.1 describes).
    transform: Option<BlockTransform>,
    phase: Phase,
    /// Banks already accessed in the current phase.
    visited: usize,
    /// Whether the current write phase has updated bank 0 (tie-break).
    bank0_updated: bool,
    read_buf: Box<[Word]>,
    observed_writers: Box<[u64]>,
    issued_at: Cycle,
    restarts: u32,
    /// Phase restarts forced by transient bank errors (bounded by
    /// [`MAX_FAULT_RETRIES`], each backed off exponentially).
    fault_retries: u32,
    /// Unique id stamped on written words for the tear checker.
    op_id: u64,
    /// Cycle at which the drained completion is delivered.
    completes_at: Cycle,
    /// After a write restart, stay off the banks until the blocking ATT
    /// entry has expired — immediate re-insertion would ping-pong with
    /// the blocker's own restarts (see [`crate::att::WriteVerdict`]).
    sleep_until: Cycle,
    /// The `(bank, inserted_at)` of an ATT entry pinned by a fault-
    /// stalled partial write (see [`Att::hold`]); released when the
    /// resumed phase re-inserts, or on abandonment/completion.
    held_entry: Option<(BankId, Cycle)>,
    outcome: Outcome,
    /// Last slot at which the operation made observable progress (issue,
    /// access, restart, …) — the stall diagnosis of
    /// [`crate::op::StallError`].
    last_progress: Cycle,
}

/// One proven word access of the one-pass step: what the hazard test
/// proved and precomputed about an active processor's slot, consumed by
/// [`exec_access`] (the in-place access) and [`commit_access`] (its
/// bank/ATT commits).
#[derive(Debug, Clone, Copy)]
struct ProcPlan {
    /// The processor.
    p: ProcId,
    /// Logical bank the AT-space schedule routes `p` to this slot.
    k: BankId,
    /// Physical bank serving `k` (`None` = masked, spare-less degraded).
    phys: Option<usize>,
    /// Whether the op is in its write phase (before the access).
    write: bool,
    /// Whether this access inserts the write phase's ATT entry
    /// (`visited == 0`, tracking enabled).
    insert: bool,
}

/// What a hazard test reads of the machine besides the ATTs, borrowed
/// field by field so the proven path can borrow the rest mutably.
#[derive(Clone, Copy)]
struct Hazards<'a> {
    /// A seeded-fault hook is armed (ATT-insert drops or retry
    /// suppressions): every access goes to the reference body.
    hooks: bool,
    att_enabled: bool,
    fault_state: &'a FaultState,
}

impl Hazards<'_> {
    /// Why processor `p`'s access of `op` to logical bank `k` in slot
    /// `now` is hazardous, if it is — the conditions under which the
    /// reference body ([`CfmMachine::step_proc`]) could do anything but
    /// a plain access: a seeded-fault hook armed, a transient fault on
    /// `k`, a held ATT entry of the operation's own, or *any* other
    /// processor's entry arbitrating the same offset at `k`. Without a
    /// hazard every check in the reference body is a no-op:
    /// `read_conflict` is `None`, the write verdict is `Proceed`, and
    /// nothing is retried, restarted, aborted, held or released.
    #[inline]
    fn access(
        &self,
        atts: &[Att],
        op: &InFlight,
        p: ProcId,
        k: BankId,
        now: Cycle,
    ) -> Option<Fallback> {
        if self.hooks {
            Some(Fallback::SeededHook)
        } else if self.fault_state.transient_fault(now, k) {
            Some(Fallback::TransientFault)
        } else if op.held_entry.is_some() {
            Some(Fallback::HeldEntry)
        } else if self.att_enabled && atts[k].contended_by_other(op.offset, p) {
            Some(Fallback::ContendedOffset)
        } else {
            None
        }
    }
}

/// Why the one-pass step sent an access to the reference body: the
/// first disjunct of the hazard test that held.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Fallback {
    SeededHook,
    TransientFault,
    HeldEntry,
    ContendedOffset,
}

/// One-pass accesses the parallel engine sent to the reference body, by
/// reason (see [`CfmMachine::fallbacks`]). Each access counts once,
/// under the first reason that held, in the order of the fields.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Fallbacks {
    /// A seeded-fault hook was armed (ATT-insert drops or retry
    /// suppressions), which sends every access.
    pub seeded_hook: u64,
    /// The fault plan put a transient error on the access's bank.
    pub transient_fault: u64,
    /// The operation holds its own ATT entry across a transient repair.
    pub held_entry: u64,
    /// Another processor's ATT entry arbitrates the same offset at the
    /// bank.
    pub contended_offset: u64,
}

impl Fallbacks {
    /// Accesses sent to the reference body, all reasons together.
    pub fn total(&self) -> u64 {
        self.seeded_hook + self.transient_fault + self.held_entry + self.contended_offset
    }

    fn count(&mut self, why: Fallback) {
        *match why {
            Fallback::SeededHook => &mut self.seeded_hook,
            Fallback::TransientFault => &mut self.transient_fault,
            Fallback::HeldEntry => &mut self.held_entry,
            Fallback::ContendedOffset => &mut self.contended_offset,
        } += 1;
    }
}

/// The cycle-accurate conflict-free memory machine.
#[derive(Debug, Clone)]
pub struct CfmMachine {
    config: CfmConfig,
    space: AtSpace,
    /// Struct-of-arrays bank storage: words, writer-id stamps (for the
    /// tear checker) and injection bookkeeping in contiguous dense
    /// arrays — see [`BankArray`].
    banks: BankArray,
    atts: Vec<Att>,
    /// In-flight operations, indexed by processor.
    inflight: Vec<Option<InFlight>>,
    done: Vec<VecDeque<Completion>>,
    /// Processors whose operation is draining ([`Phase::Drain`]), in no
    /// particular order: the only ones the epilogue visits. Derived
    /// state — pushed where an operation enters the drain phase, rebuilt
    /// on restore, never serialized.
    draining: Vec<ProcId>,
    /// Processors the last slot delivered a completion to, ascending
    /// (see [`CfmMachine::delivered`]).
    delivered: Vec<ProcId>,
    /// Recycled block-sized buffers (`read_buf`, `observed_writers`,
    /// RMW `write_data`) — completions return their buffers here and
    /// issues draw from here, so the steady-state hot path performs no
    /// buffer allocation.
    buf_pool: Vec<Box<[u64]>>,
    cycle: Cycle,
    next_op_id: u64,
    stats: Stats,
    att_enabled: bool,
    mode: PriorityMode,
    /// Event log, recorded while [`CfmMachine::enable_trace`] is active.
    trace: Option<MemoryTrace>,
    /// Fault injection: number of upcoming ATT insertions to silently
    /// drop (the "dropped ATT merge" seeded fault of the trace
    /// self-tests — a detector that cannot see this fault proves
    /// nothing).
    att_insert_drops: u64,
    /// Live fault-plan state, consulted every slot.
    fault_state: FaultState,
    /// Logical→physical bank table; identity until a permanent bank
    /// failure remaps a bank onto a spare (or masks it).
    bank_map: BankMap,
    /// Seeded-fault hook: number of upcoming transient-fault retries to
    /// suppress — the access proceeds with a corrupted word, as an
    /// undetected bank error would.
    retry_suppressions: u64,
    /// Seeded-fault hook: skip the data copy of the next remap, losing
    /// every committed write on the retired bank.
    skip_remap_copy: bool,
    /// Proven slots: slots with at least one access, every one of which
    /// the one-pass step proved (deliberately *not* in [`Stats`]: stats
    /// must stay byte-identical across engines).
    parallel_slots: u64,
    /// One-pass accesses sent to the reference body, by reason: out of
    /// [`Stats`] for the same reason, and not carried in snapshots.
    fallbacks: Fallbacks,
}

/// Staged construction of a [`CfmMachine`] — the single entry point for
/// every pre-run configuration knob (shared-memory size, address
/// tracking, priority mode, fault plan, tracing, seeded test faults).
///
/// Obtained from [`CfmMachine::builder`]; consumed by
/// [`CfmMachineBuilder::build`]:
///
/// ```
/// use cfm_core::config::CfmConfig;
/// use cfm_core::machine::CfmMachine;
///
/// let cfg = CfmConfig::new(4, 1, 16).unwrap();
/// let m = CfmMachine::builder(cfg).offsets(64).trace(true).build();
/// assert_eq!(m.offsets(), 64);
/// assert!(m.trace().is_some());
/// ```
///
/// Seeded fault hooks live behind the [`crate::testing::Injector`]
/// facade, reachable here through [`CfmMachineBuilder::inject`] and at
/// runtime through [`CfmMachine::injector`].
pub struct CfmMachineBuilder {
    config: CfmConfig,
    offsets: usize,
    att_enabled: bool,
    mode: PriorityMode,
    fault_plan: Option<FaultPlan>,
    trace: bool,
    seeds: Vec<InjectorSeed>,
}

/// A deferred [`crate::testing::Injector`] closure queued by
/// [`CfmMachineBuilder::inject`], applied after construction.
type InjectorSeed = Box<dyn FnOnce(&mut crate::testing::Injector<'_>)>;

impl CfmMachineBuilder {
    /// Number of block offsets of shared memory (blocks per bank). The
    /// default equals the bank count; most callers set it explicitly.
    pub fn offsets(mut self, offsets: usize) -> Self {
        self.offsets = offsets;
        self
    }

    /// Enable or disable address tracking. Disabling reproduces the
    /// Fig 4.1 inconsistency (torn blocks under same-block races); the
    /// default is enabled.
    pub fn tracking(mut self, enabled: bool) -> Self {
        self.att_enabled = enabled;
        self
    }

    /// Select the ATT priority mode: the default
    /// [`PriorityMode::EarliestWins`] is the swap-capable mode of §4.2.1;
    /// [`PriorityMode::LatestWins`] is the plain-write mode of §4.1.2.
    pub fn priority(mut self, mode: PriorityMode) -> Self {
        self.mode = mode;
        self
    }

    /// Install a [`FaultPlan`] before the machine runs. Events whose slot
    /// has already passed fire on the first step. (To replace the plan on
    /// a machine that is already running, go through
    /// [`crate::testing::Injector::fault_plan`].)
    pub fn fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = Some(plan);
        self
    }

    /// Record a [`MemoryTrace`] from the first step (default off). The
    /// trace is read with [`CfmMachine::trace`] and taken with
    /// [`CfmMachine::take_trace`] / [`CfmMachine::drain_trace`].
    pub fn trace(mut self, enabled: bool) -> Self {
        self.trace = enabled;
        self
    }

    /// Seed test faults through the [`crate::testing::Injector`] facade
    /// before the machine is handed back:
    ///
    /// ```
    /// use cfm_core::config::CfmConfig;
    /// use cfm_core::machine::CfmMachine;
    ///
    /// let cfg = CfmConfig::new(4, 1, 16).unwrap();
    /// let m = CfmMachine::builder(cfg)
    ///     .offsets(8)
    ///     .inject(|inj| {
    ///         inj.drop_att_inserts(1);
    ///     })
    ///     .build();
    /// # let _ = m;
    /// ```
    pub fn inject(
        mut self,
        seed: impl FnOnce(&mut crate::testing::Injector<'_>) + 'static,
    ) -> Self {
        self.seeds.push(Box::new(seed));
        self
    }

    /// Construct the machine.
    pub fn build(self) -> CfmMachine {
        let mut machine =
            CfmMachine::construct(self.config, self.offsets, self.att_enabled, self.mode);
        if let Some(plan) = self.fault_plan {
            machine.install_fault_plan(plan);
        }
        if self.trace {
            machine.start_trace();
        }
        for seed in self.seeds {
            let mut injector = machine.injector();
            seed(&mut injector);
        }
        machine
    }
}

impl CfmMachine {
    /// Start building a machine for `config` — see [`CfmMachineBuilder`]
    /// for the available knobs. Defaults: `offsets = config.banks()`,
    /// address tracking enabled, [`PriorityMode::EarliestWins`], no fault
    /// plan, tracing off.
    pub fn builder(config: CfmConfig) -> CfmMachineBuilder {
        CfmMachineBuilder {
            offsets: config.banks(),
            config,
            att_enabled: true,
            mode: PriorityMode::EarliestWins,
            fault_plan: None,
            trace: false,
            seeds: Vec::new(),
        }
    }

    /// The one constructor behind the builder and restore.
    fn construct(config: CfmConfig, offsets: usize, att_enabled: bool, mode: PriorityMode) -> Self {
        let b = config.banks();
        // Banks and writer stamps are *physical* (spares included); the
        // schedule, the ATTs and every trace event stay *logical*.
        let physical = config.total_banks();
        let n = config.processors();
        CfmMachine {
            space: AtSpace::new(&config),
            banks: BankArray::new(physical, offsets),
            atts: (0..b).map(|_| Att::with_offsets(b, offsets)).collect(),
            inflight: vec![None; n],
            done: vec![VecDeque::new(); n],
            draining: Vec::with_capacity(n),
            delivered: Vec::with_capacity(n),
            buf_pool: Vec::new(),
            cycle: 0,
            next_op_id: 1,
            stats: Stats::default(),
            att_enabled,
            mode,
            trace: None,
            att_insert_drops: 0,
            fault_state: FaultState::new(FaultPlan::empty(), b, config.processors()),
            bank_map: BankMap::new(b, config.spares()),
            retry_suppressions: 0,
            skip_remap_copy: false,
            parallel_slots: 0,
            fallbacks: Fallbacks::default(),
            config,
        }
    }

    /// Install a fault plan, replacing any previous plan and its
    /// progress — the path behind the builder and the
    /// [`crate::testing::Injector`] facade. Events whose slot has already
    /// passed fire on the next step.
    pub(crate) fn install_fault_plan(&mut self, plan: FaultPlan) {
        self.fault_state = FaultState::new(plan, self.config.banks(), self.config.processors());
    }

    /// The logical→physical bank table (identity until a permanent bank
    /// failure degrades the machine).
    pub fn bank_map(&self) -> &BankMap {
        &self.bank_map
    }

    /// Start recording a [`MemoryTrace`] (idempotent) — the path behind
    /// the builder, wrappers, and [`Self::drain_trace`].
    pub(crate) fn start_trace(&mut self) {
        if self.trace.is_none() {
            self.trace = Some(MemoryTrace::new());
        }
    }

    /// The trace recorded so far, if tracing is enabled.
    pub fn trace(&self) -> Option<&MemoryTrace> {
        self.trace.as_ref()
    }

    /// Stop tracing and take the recorded trace.
    pub fn take_trace(&mut self) -> Option<MemoryTrace> {
        self.trace.take()
    }

    /// Take the trace recorded so far and immediately keep tracing —
    /// bounds trace memory in long soaks that only sample events
    /// periodically. Returns `None` (and does not start tracing) if
    /// tracing was never enabled.
    pub fn drain_trace(&mut self) -> Option<MemoryTrace> {
        let drained = self.trace.take();
        if drained.is_some() {
            self.start_trace();
        }
        drained
    }

    /// Discard the events recorded so far and keep tracing — unlike
    /// [`Self::drain_trace`] the trace buffer keeps its capacity, so a
    /// long-running traced workload that only bounds memory (without
    /// wanting the events) pays no allocation or page-fault churn
    /// refilling a fresh buffer. No-op if tracing is off.
    pub fn discard_trace(&mut self) {
        if let Some(t) = self.trace.as_mut() {
            t.clear();
        }
    }

    /// Seeded-fault facade over the machine's test hooks — see
    /// [`crate::testing::Injector`]. Also reachable at build time through
    /// [`CfmMachineBuilder::inject`].
    pub fn injector(&mut self) -> crate::testing::Injector<'_> {
        crate::testing::Injector::new(self)
    }

    pub(crate) fn seed_bank_alias(&mut self, logical: BankId, physical: usize) {
        self.bank_map.inject_alias(logical, physical);
    }

    pub(crate) fn seed_retry_suppression(&mut self, count: u64) {
        self.retry_suppressions = count;
    }

    pub(crate) fn seed_remap_copy_skip(&mut self) {
        self.skip_remap_copy = true;
    }

    pub(crate) fn seed_att_insert_drops(&mut self, count: u64) {
        self.att_insert_drops = count;
    }

    /// Record an event into the trace if tracing is enabled — used by
    /// wrappers (slot sharing) that annotate the inner machine's trace
    /// with their own scheduling decisions.
    pub(crate) fn record_event(&mut self, event: TraceEvent) {
        if let Some(t) = self.trace.as_mut() {
            t.record(event);
        }
    }

    /// The machine's configuration.
    pub fn config(&self) -> &CfmConfig {
        &self.config
    }

    /// The next cycle to be simulated.
    pub fn cycle(&self) -> Cycle {
        self.cycle
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &Stats {
        &self.stats
    }

    /// Slots the parallel engine proved hazard-free (always 0 under
    /// [`Engine::Sequential`]): the slots with at least one access in
    /// which the one-pass step proved every access, so none ran the
    /// sequential body. Kept out of [`Stats`] so stats stay
    /// byte-identical across engines.
    pub fn parallel_slots(&self) -> u64 {
        self.parallel_slots
    }

    /// One-pass accesses the parallel engine sent to the reference body,
    /// by reason (all 0 under [`Engine::Sequential`], which has no
    /// proven path). Counted since the machine was built or restored:
    /// unlike [`Self::parallel_slots`], snapshots do not carry them.
    pub fn fallbacks(&self) -> Fallbacks {
        self.fallbacks
    }

    /// Always 0: the machine steps one slot at a time and proves no
    /// windows. Kept only because the benchmark's simulator
    /// (`perfbench/src/sim.rs`) still calls it; it goes when that call
    /// does.
    pub fn static_slots(&self) -> u64 {
        0
    }

    /// Always 0, like [`Self::static_slots`] and for the same reason.
    pub fn dynamic_slots(&self) -> u64 {
        0
    }

    /// Always 0, like [`Self::static_slots`] and for the same reason.
    pub fn dynamic_windows(&self) -> u64 {
        0
    }

    /// Number of block offsets per bank.
    pub fn offsets(&self) -> usize {
        self.banks.offsets()
    }

    /// A zeroed block-sized buffer, recycled from [`Self::buf_pool`]; an
    /// empty pool is refilled with [`BUF_REFILL`] fresh buffers at once.
    fn take_buf(&mut self) -> Box<[u64]> {
        if self.buf_pool.is_empty() {
            self.refill_bufs();
        }
        let mut buf = self.buf_pool.pop().expect("pool refilled above");
        buf.fill(0);
        buf
    }

    /// Allocate a batch of fresh buffers into the empty pool. Every read
    /// hands its buffer out in its [`Completion`], so a read-heavy caller
    /// drains the pool steadily; allocating back to back costs about
    /// half as much per buffer as one allocation per issue.
    #[cold]
    fn refill_bufs(&mut self) {
        let b = self.config.banks();
        self.buf_pool
            .extend((0..BUF_REFILL).map(|_| vec![0; b].into_boxed_slice()));
    }

    /// Return a block-sized buffer to the pool for reuse.
    #[inline]
    fn recycle_buf(&mut self, buf: Box<[u64]>) {
        debug_assert_eq!(buf.len(), self.config.banks());
        self.buf_pool.push(buf);
    }

    /// Whether processor `p` has an operation in flight.
    pub fn is_busy(&self, p: ProcId) -> bool {
        self.inflight[p].is_some()
    }

    /// Whether every processor is idle.
    pub fn is_idle(&self) -> bool {
        self.inflight.iter().all(Option::is_none)
    }

    /// Read a block directly (debug/test access, not a timed operation).
    /// Follows the bank map: remapped words come from their spare bank,
    /// masked words read as 0.
    pub fn peek_block(&self, offset: BlockOffset) -> Vec<Word> {
        (0..self.config.banks())
            .map(|k| match self.bank_map.phys(k) {
                Some(ph) => self.banks.read(ph, offset),
                None => 0,
            })
            .collect()
    }

    /// Write a block directly (initialisation, not a timed operation).
    /// Follows the bank map; words of masked banks are dropped.
    pub fn poke_block(&mut self, offset: BlockOffset, words: &[Word]) {
        assert_eq!(words.len(), self.config.banks());
        for (k, &w) in words.iter().enumerate() {
            if let Some(ph) = self.bank_map.phys(k) {
                self.banks.write(ph, offset, w);
            }
        }
    }

    /// Snapshot every in-flight operation with its owning processor —
    /// the stall diagnostics [`crate::program::Runner`] attaches to
    /// [`crate::program::RunOutcome::BudgetExhausted`].
    pub fn pending_ops(&self) -> Vec<(ProcId, PendingOp)> {
        self.inflight
            .iter()
            .enumerate()
            .filter_map(|(p, slot)| {
                slot.as_ref().map(|op| {
                    (
                        p,
                        PendingOp {
                            kind: op.kind,
                            offset: op.offset,
                            issued_at: op.issued_at,
                            restarts: op.restarts,
                            last_progress: op.last_progress,
                        },
                    )
                })
            })
            .collect()
    }

    /// Issue a block operation on processor `p`. The first word access
    /// happens in the next simulated cycle — no alignment stall.
    pub fn issue(&mut self, p: ProcId, op: Operation) -> Result<(), IssueError> {
        let b = self.config.banks();
        if p >= self.config.processors() {
            return Err(IssueError::NoSuchProcessor);
        }
        if op.offset() >= self.offsets() {
            return Err(IssueError::NoSuchBlock);
        }
        if self.is_busy(p) {
            return Err(IssueError::Busy);
        }
        let (kind, offset, write_data, transform) = match op {
            Operation::Read { offset } => {
                (OpKind::Read, offset, Vec::new().into_boxed_slice(), None)
            }
            Operation::Write { offset, data } => {
                if data.len() != b {
                    return Err(IssueError::WrongBlockLength {
                        got: data.len(),
                        want: b,
                    });
                }
                (OpKind::Write, offset, data, None)
            }
            Operation::Swap { offset, data } => {
                if data.len() != b {
                    return Err(IssueError::WrongBlockLength {
                        got: data.len(),
                        want: b,
                    });
                }
                (OpKind::Swap, offset, data, None)
            }
            Operation::Rmw { offset, transform } => {
                if let Some(len) = transform.pattern_len() {
                    if len != b {
                        return Err(IssueError::WrongBlockLength { got: len, want: b });
                    }
                }
                // Pre-size the write buffer so the read→write transition
                // applies the transform into it without allocating.
                (OpKind::Rmw, offset, self.take_buf(), Some(transform))
            }
        };
        let phase = match kind {
            OpKind::Write => Phase::Write,
            _ => Phase::Read,
        };
        let op_id = self.next_op_id;
        self.next_op_id += 1;
        let read_buf = self.take_buf();
        let observed_writers = self.take_buf();
        self.inflight[p] = Some(InFlight {
            kind,
            offset,
            write_data,
            transform,
            phase,
            visited: 0,
            bank0_updated: false,
            read_buf,
            observed_writers,
            issued_at: self.cycle,
            restarts: 0,
            fault_retries: 0,
            op_id,
            completes_at: 0,
            sleep_until: 0,
            held_entry: None,
            outcome: Outcome::Completed,
            last_progress: self.cycle,
        });
        self.stats.issued += 1;
        if let Some(t) = self.trace.as_mut() {
            t.record(TraceEvent::Issue {
                slot: self.cycle,
                proc: p,
                op_id,
                kind,
                offset,
            });
        }
        Ok(())
    }

    /// Take the oldest undelivered completion for processor `p`.
    pub fn poll(&mut self, p: ProcId) -> Option<Completion> {
        self.done[p].pop_front()
    }

    /// The processors the last slot delivered a completion to, in
    /// ascending order: after [`Self::step`], exactly those whose
    /// [`Self::poll`] yields a completion from that slot. A caller that
    /// polls every completion as it arrives reads this instead of polling
    /// all `n` processors. Every slot-advancing call starts it afresh; a
    /// drained operation whose response a fault drops is re-queued, not
    /// delivered, and is not named.
    pub fn delivered(&self) -> &[ProcId] {
        &self.delivered
    }

    /// Simulate one CPU cycle (one time slot).
    ///
    /// [`Engine::Sequential`] runs the reference loop. Under
    /// [`Engine::Parallel`] the slot runs in one pass in ascending
    /// processor order: each access proven free of hazards on the
    /// current state runs in place with its commits made at once, and
    /// any other access runs the sequential body. Traces, stats and
    /// completions are byte-identical either way (see
    /// `docs/performance.md`).
    pub fn step(&mut self) {
        let now = self.cycle;
        // Move the trace out of `self` so the hooks can borrow it as a
        // sink while the rest of the machine stays mutably accessible;
        // `NullSink` keeps the untraced path allocation-free.
        let mut active = self.trace.take();
        self.delivered.clear();
        self.step_prologue(now, &mut active);
        match self.config.engine() {
            Engine::Sequential => self.step_procs(now, &mut active),
            Engine::Parallel { .. } => match active.as_mut() {
                Some(t) => self.step_one_pass(now, t),
                None => self.step_one_pass(now, &mut NullSink),
            },
        }
        self.step_epilogue(now, &mut active);
        self.trace = active;
        self.cycle += 1;
        self.stats.cycles += 1;
    }

    /// ATT expiry and fault-plan activation for slot `now` — shared by
    /// both engines.
    fn step_prologue(&mut self, now: Cycle, active: &mut Option<MemoryTrace>) {
        let mut null = NullSink;
        let sink: &mut dyn TraceSink = match active.as_mut() {
            Some(t) => t,
            None => &mut null,
        };
        for (k, att) in self.atts.iter_mut().enumerate() {
            att.expire_traced(now, k, sink);
        }
        // Activate fault-plan events due this slot. Permanent failures
        // reconfigure the bank map online; transient and response faults
        // latch in the fault state and strike at the access/delivery
        // points below.
        for kind in self.fault_state.advance(now) {
            self.stats.faults_injected += 1;
            match kind {
                FaultKind::DroppedResponse { .. } | FaultKind::CorruptedResponse { .. } => {}
                _ => sink.record(TraceEvent::Fault {
                    slot: now,
                    fault: kind,
                }),
            }
            if let FaultKind::PermanentBankFailure { bank } = kind {
                self.retire_bank(bank, now, sink);
            }
        }
    }

    /// The sequential per-processor slot loop — the reference engine.
    fn step_procs(&mut self, now: Cycle, active: &mut Option<MemoryTrace>) {
        let mut null = NullSink;
        let sink: &mut dyn TraceSink = match active.as_mut() {
            Some(t) => t,
            None => &mut null,
        };
        for p in 0..self.config.processors() {
            self.step_proc(p, now, sink);
        }
    }

    /// Processor `p`'s part of slot `now` in the reference engine: route,
    /// transient-fault retry, word access with its ATT comparison
    /// (read restart, write insert and verdict), phase advance. The
    /// one-pass step runs it for every access it cannot prove.
    fn step_proc(&mut self, p: ProcId, now: Cycle, sink: &mut dyn TraceSink) {
        let b = self.config.banks();
        let Some(mut op) = self.inflight[p].take() else {
            return;
        };
        if op.phase == Phase::Drain || now < op.sleep_until {
            self.inflight[p] = Some(op);
            return;
        }
        let k = self.space.route_traced(now, p, sink);
        // Transient bank error: the access fails before injecting.
        // Retry with exponential slot-backoff, bounded; a suppressed
        // retry (seeded fault) proceeds with a corrupted word.
        let corrupt_mask: Word = if self.fault_state.transient_fault(now, k) {
            if self.retry_suppressions > 0 {
                self.retry_suppressions -= 1;
                CORRUPT_MASK
            } else {
                self.transient_retry(&mut op, p, k, now, sink);
                if op.phase == Phase::Drain {
                    self.draining.push(p);
                }
                self.inflight[p] = Some(op);
                return;
            }
        } else {
            0
        };
        // The physical bank serving logical bank `k`; a masked bank
        // (dead, no spare) skips the word access — that word of the
        // block is lost in spare-less degraded mode.
        let phys = self.bank_map.phys(k);
        if let Some(ph) = phys {
            if !self.banks.note_injection(ph, now) {
                // Impossible under the AT-space schedule; recorded, not fatal.
                self.stats.bank_conflicts += 1;
            }
            self.stats.word_accesses += 1;
        } else {
            self.stats.masked_accesses += 1;
        }
        op.last_progress = now;
        match op.phase {
            Phase::Read => {
                let conflict = self
                    .att_enabled
                    .then(|| self.atts[k].read_conflict(op.offset, p, now))
                    .flatten();
                if let Some(blocker) = conflict {
                    // Restart the read from the next bank; for a swap,
                    // the whole operation restarts (Fig 4.6a).
                    sink.record(TraceEvent::AttMerge {
                        slot: now,
                        bank: k,
                        proc: p,
                        op_id: op.op_id,
                        offset: op.offset,
                        blocker_proc: blocker.proc,
                        blocker_inserted_at: blocker.inserted_at,
                        action: MergeAction::ReadRestart,
                    });
                    self.stats.wasted_word_accesses += op.visited as u64 + 1;
                    if matches!(op.kind, OpKind::Swap | OpKind::Rmw) {
                        self.stats.swap_restarts += 1;
                    } else {
                        self.stats.read_restarts += 1;
                    }
                    op.restarts += 1;
                    op.visited = 0;
                } else {
                    match phys {
                        Some(ph) => {
                            op.read_buf[k] = self
                                .banks
                                .read_traced(ph, op.offset, now, k, p, op.op_id, sink)
                                ^ corrupt_mask;
                            op.observed_writers[k] = self.banks.writer(ph, op.offset);
                        }
                        None => {
                            op.read_buf[k] = 0;
                            op.observed_writers[k] = MASKED_WRITER;
                        }
                    }
                    op.visited += 1;
                    if op.visited == b {
                        if matches!(op.kind, OpKind::Swap | OpKind::Rmw) {
                            // §4.2.1: the modification is computed in a
                            // pipelined fashion, so the write phase
                            // starts with no extra delay.
                            if let Some(t) = &op.transform {
                                t.apply_into(&op.read_buf, &mut op.write_data);
                            }
                            op.phase = Phase::Write;
                            op.visited = 0;
                            op.bank0_updated = false;
                        } else {
                            op.phase = Phase::Drain;
                            op.completes_at = now + self.config.bank_cycle() as u64 - 1;
                        }
                    }
                }
            }
            Phase::Write => {
                if op.visited == 0 && self.att_enabled {
                    // A resumed fault-stalled phase re-protects itself
                    // with a fresh entry; the held one is released.
                    if let Some((bank, at)) = op.held_entry.take() {
                        self.atts[bank].remove_traced(op.offset, p, at, now, bank, sink);
                    }
                    if self.att_insert_drops > 0 {
                        self.att_insert_drops -= 1;
                    } else {
                        self.atts[k].insert_traced(
                            Entry {
                                offset: op.offset,
                                kind: if matches!(op.kind, OpKind::Swap | OpKind::Rmw) {
                                    TrackKind::SwapWrite
                                } else {
                                    TrackKind::Write
                                },
                                proc: p,
                                inserted_at: now,
                            },
                            k,
                            op.op_id,
                            sink,
                        );
                    }
                }
                let verdict = if self.att_enabled {
                    self.atts[k].write_verdict(
                        self.mode,
                        op.offset,
                        p,
                        now,
                        op.visited as u64,
                        op.bank0_updated,
                        // Write-phase accesses are consecutive, so the
                        // phase began `visited` cycles ago.
                        now - op.visited as u64,
                    )
                } else {
                    WriteVerdict::Proceed
                };
                match verdict {
                    WriteVerdict::Proceed => {
                        if let Some(ph) = phys {
                            self.banks.write_traced(
                                ph,
                                op.offset,
                                op.write_data[k] ^ corrupt_mask,
                                now,
                                k,
                                p,
                                op.op_id,
                                sink,
                            );
                            self.banks.stamp(ph, op.offset, op.op_id);
                        }
                        op.bank0_updated |= k == 0;
                        op.visited += 1;
                        if op.visited == b {
                            op.phase = Phase::Drain;
                            op.completes_at = now + self.config.bank_cycle() as u64 - 1;
                        }
                    }
                    WriteVerdict::Abort { blocker } => {
                        sink.record(TraceEvent::AttMerge {
                            slot: now,
                            bank: k,
                            proc: p,
                            op_id: op.op_id,
                            offset: op.offset,
                            blocker_proc: blocker.proc,
                            blocker_inserted_at: blocker.inserted_at,
                            action: MergeAction::WriteAbort,
                        });
                        self.stats.wasted_word_accesses += op.visited as u64 + 1;
                        self.stats.write_aborts += 1;
                        op.outcome = Outcome::Overwritten;
                        op.phase = Phase::Drain;
                        op.completes_at = now;
                    }
                    WriteVerdict::Restart { blocker } => {
                        sink.record(TraceEvent::AttMerge {
                            slot: now,
                            bank: k,
                            proc: p,
                            op_id: op.op_id,
                            offset: op.offset,
                            blocker_proc: blocker.proc,
                            blocker_inserted_at: blocker.inserted_at,
                            action: MergeAction::WriteRestart,
                        });
                        self.stats.wasted_word_accesses += op.visited as u64 + 1;
                        op.restarts += 1;
                        // Withdraw our own entry: a backed-off write is
                        // no longer a competitor, and its stale entry
                        // would otherwise keep killing other writers
                        // (3-writer livelock; see att.rs docs).
                        let phase_start = now - op.visited as u64;
                        let start_bank = self.space.bank_for(phase_start, p);
                        self.atts[start_bank].remove_traced(
                            op.offset,
                            p,
                            phase_start,
                            now,
                            start_bank,
                            sink,
                        );
                        op.visited = 0;
                        op.bank0_updated = false;
                        // Back off until the blocker's entry expires
                        // (one full ATT lifetime after its insertion).
                        op.sleep_until = blocker.inserted_at + b as u64;
                        if matches!(op.kind, OpKind::Swap | OpKind::Rmw) {
                            self.stats.swap_restarts += 1;
                            op.phase = Phase::Read;
                        } else {
                            self.stats.write_restarts += 1;
                        }
                    }
                }
            }
            Phase::Drain => unreachable!(),
        }
        if op.phase == Phase::Drain {
            self.draining.push(p);
        }
        self.inflight[p] = Some(op);
    }

    /// Deliver completions whose pipeline has drained by the end of this
    /// cycle, freeing the processor for a back-to-back issue — shared by
    /// both engines. Only draining processors are visited, in ascending
    /// order (the order every engine delivers in); each one delivered to
    /// is recorded in [`Self::delivered`].
    fn step_epilogue(&mut self, now: Cycle, active: &mut Option<MemoryTrace>) {
        if self.draining.is_empty() {
            return;
        }
        let mut null = NullSink;
        let sink: &mut dyn TraceSink = match active.as_mut() {
            Some(t) => t,
            None => &mut null,
        };
        let mut draining = std::mem::take(&mut self.draining);
        draining.sort_unstable();
        draining.retain(|&p| !self.try_deliver(p, now, sink));
        self.draining = draining;
    }

    /// Deliver draining processor `p`'s completion if its pipeline has
    /// drained by the end of slot `now`; returns whether it was
    /// delivered (a dropped or corrupted response is re-queued instead).
    fn try_deliver(&mut self, p: ProcId, now: Cycle, sink: &mut dyn TraceSink) -> bool {
        let b = self.config.banks();
        let op = self.inflight[p].as_ref().expect("draining op in flight");
        debug_assert_eq!(op.phase, Phase::Drain);
        if op.completes_at > now {
            return false;
        }
        // Response-path fault: the completion is not delivered — ECC
        // detects the loss/corruption and the buffered response is
        // retransmitted one AT-space period later (the banks are
        // untouched, so non-idempotent RMWs are never re-executed).
        if let Some(kind) = self.fault_state.take_response_fault(p) {
            match kind {
                FaultKind::DroppedResponse { .. } => self.stats.dropped_responses += 1,
                FaultKind::CorruptedResponse { .. } => self.stats.corrupted_responses += 1,
                _ => {}
            }
            sink.record(TraceEvent::Fault {
                slot: now,
                fault: kind,
            });
            let op = self.inflight[p].as_mut().expect("checked above");
            op.completes_at = now + b as u64;
            op.restarts += 1;
            op.last_progress = now;
            return false;
        }
        let mut op = self.inflight[p].take().expect("checked above");
        // Defensive: no delivered operation may leave a pinned ATT entry
        // behind (reachable only if the seeded insert-drop hook swallowed
        // the resume re-insert).
        if let Some((bank, at)) = op.held_entry.take() {
            self.atts[bank].remove_traced(op.offset, p, at, now, bank, sink);
        }
        let torn = if matches!(op.kind, OpKind::Read | OpKind::Swap | OpKind::Rmw)
            && op.outcome == Outcome::Completed
        {
            // Masked-bank words carry the sentinel writer stamp: they are
            // lost, not torn, and must not mix into the distinct-writers
            // scan (allocation-free: torn iff two non-masked stamps
            // differ).
            let mut stamps = op.observed_writers.iter().filter(|w| **w != MASKED_WRITER);
            match stamps.next() {
                Some(first) => stamps.any(|w| w != first),
                None => false,
            }
        } else {
            false
        };
        // Reads hand their buffer to the completion; every other buffer
        // goes back to the pool for the next issue.
        let data = match op.kind {
            OpKind::Read | OpKind::Swap | OpKind::Rmw => Some(op.read_buf),
            OpKind::Write => {
                self.recycle_buf(op.read_buf);
                None
            }
        };
        self.recycle_buf(op.observed_writers);
        if !op.write_data.is_empty() {
            self.recycle_buf(op.write_data);
        }
        if torn {
            self.stats.torn_reads += 1;
        }
        self.stats.completed += 1;
        sink.record(TraceEvent::Complete {
            slot: now,
            proc: p,
            op_id: op.op_id,
            kind: op.kind,
            offset: op.offset,
            issued_at: op.issued_at,
            restarts: op.restarts,
            completed: op.outcome == Outcome::Completed,
            torn,
        });
        self.done[p].push_back(Completion {
            proc: p,
            kind: op.kind,
            offset: op.offset,
            data,
            issued_at: op.issued_at,
            completed_at: op.completes_at,
            restarts: op.restarts,
            outcome: op.outcome,
            torn,
        });
        self.delivered.push(p);
        true
    }

    /// Slot `now` in one pass in ascending processor order — the
    /// reference loop's order. Each active access is tested with
    /// [`Hazards::access`] on the current state, which is exactly the
    /// state the reference loop's `p`-th iteration sees. A proven access
    /// runs in place ([`exec_access`]) with its commits made at once
    /// ([`commit_access`]), emitting its trace events in the reference
    /// order; any other access runs the reference body
    /// ([`Self::step_proc`]). The slot is therefore byte-identical to
    /// [`Engine::Sequential`] by construction. A slot with at least one
    /// access, every one of them proven, counts in
    /// [`Self::parallel_slots`].
    fn step_one_pass<S: TraceSink>(&mut self, now: Cycle, sink: &mut S) {
        let mut actives = 0usize;
        let mut hazards = 0usize;
        let mut from = 0;
        while let Some(p) = self.proven_run(from, now, sink, &mut actives) {
            hazards += 1;
            self.step_proc(p, now, sink);
            from = p + 1;
        }
        if actives > 0 && hazards == 0 {
            self.parallel_slots += 1;
        }
    }

    /// Run the one-pass step's accesses of processors `from..` in place
    /// while each is proven, counting them in `actives`; return the first
    /// processor whose access is not proven, unrun, or `None` at the end
    /// of the slot. Only [`Self::step_proc`] can change what the hazard
    /// test reads of the machine besides the ATTs, so the [`Hazards`]
    /// taken here hold for the whole run.
    #[inline]
    fn proven_run<S: TraceSink>(
        &mut self,
        from: ProcId,
        now: Cycle,
        sink: &mut S,
        actives: &mut usize,
    ) -> Option<ProcId> {
        let b = self.config.banks();
        let bank_cycle = self.config.bank_cycle() as usize;
        // `bank_for(now, p)` without a division per processor: the
        // offset `c·p` is below `b`, so one wrap suffices.
        let first_bank = self.space.bank_for(now, 0);
        let hazards = Hazards {
            hooks: self.att_insert_drops > 0 || self.retry_suppressions > 0,
            att_enabled: self.att_enabled,
            fault_state: &self.fault_state,
        };
        for (p, slot) in self.inflight.iter_mut().enumerate().skip(from) {
            let Some(op) = slot.as_mut() else { continue };
            if op.phase == Phase::Drain || now < op.sleep_until {
                continue;
            }
            *actives += 1;
            let mut k = first_bank + bank_cycle * p;
            if k >= b {
                k -= b;
            }
            debug_assert_eq!(k, self.space.bank_for(now, p));
            if let Some(why) = hazards.access(&self.atts, op, p, k, now) {
                self.fallbacks.count(why);
                return Some(p);
            }
            let write = op.phase == Phase::Write;
            let a = ProcPlan {
                p,
                k,
                phys: self.bank_map.phys(k),
                write,
                insert: write && op.visited == 0 && hazards.att_enabled,
            };
            exec_access(op, &a, &self.banks, now, b, bank_cycle as u64, sink);
            commit_access(
                &mut self.banks,
                &mut self.atts,
                &mut self.stats,
                &a,
                op,
                now,
            );
            if op.phase == Phase::Drain {
                self.draining.push(p);
            }
        }
        None
    }

    /// Online graceful degradation for a permanent bank failure: remap
    /// the logical bank onto a spare (copying its committed words) or,
    /// with no spare left, mask it.
    fn retire_bank(&mut self, logical: BankId, now: Cycle, sink: &mut dyn TraceSink) {
        match self.bank_map.retire(logical) {
            RetireAction::Remapped { old, new } => {
                if self.skip_remap_copy {
                    self.skip_remap_copy = false;
                } else {
                    self.banks.copy_bank(old, new);
                }
                self.stats.bank_remaps += 1;
                sink.record(TraceEvent::BankRemap {
                    slot: now,
                    bank: logical,
                    old_phys: old,
                    new_phys: Some(new),
                });
            }
            RetireAction::Masked { old } => {
                self.stats.banks_masked += 1;
                sink.record(TraceEvent::BankRemap {
                    slot: now,
                    bank: logical,
                    old_phys: old,
                    new_phys: None,
                });
            }
            RetireAction::AlreadyDead => {}
        }
    }

    /// A transient bank error hit `op`'s injection into logical bank `k`:
    /// restart the phase with exponential slot-backoff, or — past the
    /// bounded retry budget — abandon the operation with
    /// [`Outcome::TransientFault`].
    ///
    /// A fault mid-write-phase leaves a *partially committed* block in
    /// memory, so the op's ATT entry must not be withdrawn (as an
    /// ATT-forced restart would) — it is **held** ([`Att::hold`]): it
    /// keeps arbitrating past its normal lifetime so concurrent readers
    /// restart and later writers defer instead of observing the torn
    /// block. For the same reason a faulted swap/RMW write phase does
    /// *not* re-read: the pre-image it computed its modification from
    /// was partially overwritten by its own aborted sweep, and re-reading
    /// would re-apply the RMW. The resumed phase rewrites the whole block
    /// from the cached `write_data` — idempotent, because the held entry
    /// kept every competitor off the block.
    fn transient_retry(
        &mut self,
        op: &mut InFlight,
        p: ProcId,
        k: BankId,
        now: Cycle,
        sink: &mut dyn TraceSink,
    ) {
        op.last_progress = now;
        op.fault_retries += 1;
        self.stats.fault_retries += 1;
        self.stats.wasted_word_accesses += op.visited as u64;
        if op.phase == Phase::Write && op.visited > 0 && self.att_enabled {
            let phase_start = now - op.visited as u64;
            let start_bank = self.space.bank_for(phase_start, p);
            self.atts[start_bank].hold(op.offset, p, phase_start);
            op.held_entry = Some((start_bank, phase_start));
        }
        if op.fault_retries > MAX_FAULT_RETRIES {
            self.stats.fault_aborts += 1;
            op.outcome = Outcome::TransientFault;
            op.phase = Phase::Drain;
            op.completes_at = now;
            // The abandoned block stays torn; release the held entry so
            // the loss becomes observable instead of wedging the offset.
            if let Some((bank, at)) = op.held_entry.take() {
                self.atts[bank].remove_traced(op.offset, p, at, now, bank, sink);
            }
            return;
        }
        let backoff = 1u64 << op.fault_retries.min(FAULT_BACKOFF_CAP);
        sink.record(TraceEvent::FaultRetry {
            slot: now,
            proc: p,
            op_id: op.op_id,
            bank: k,
            attempt: op.fault_retries,
            backoff,
        });
        op.restarts += 1;
        op.visited = 0;
        op.bank0_updated = false;
        op.sleep_until = now + backoff;
    }

    /// Issue one operation and run it to completion (single-op driver
    /// for tests and examples; other processors must be idle or their
    /// completions are delivered to their queues as usual).
    ///
    /// # Panics
    /// If the processor is busy or the operation fails to complete
    /// within a generous budget (see [`Self::try_execute`] for the
    /// non-panicking form).
    pub fn execute(&mut self, p: ProcId, op: Operation) -> Completion {
        match self.try_execute(p, op) {
            Ok(c) => c,
            Err(stall) => panic!("{stall}"),
        }
    }

    /// [`Self::execute`] returning a typed [`StallError`] instead of
    /// panicking when the operation fails to complete within a generous
    /// budget. The error carries the pending operation, the owning
    /// processor, and the last slot at which the machine made observable
    /// progress on it.
    pub fn try_execute(
        &mut self,
        p: ProcId,
        op: Operation,
    ) -> Result<Completion, StallError<Operation>> {
        self.issue(p, op).expect("processor accepted operation");
        const BUDGET: u64 = 1_000_000;
        for _ in 0..BUDGET {
            self.step();
            if let Some(c) = self.poll(p) {
                return Ok(c);
            }
        }
        // Stalled. Reconstruct the operation for the diagnostic from its
        // in-flight state (present by construction: a delivered completion
        // would have been polled above) — the completing path never clones.
        let f = self.inflight[p]
            .as_ref()
            .expect("stalled operation is still in flight");
        let last_progress = f.last_progress;
        let op = match f.kind {
            OpKind::Read => Operation::Read { offset: f.offset },
            OpKind::Write => Operation::Write {
                offset: f.offset,
                data: f.write_data.clone(),
            },
            OpKind::Swap => Operation::Swap {
                offset: f.offset,
                data: f.write_data.clone(),
            },
            OpKind::Rmw => Operation::Rmw {
                offset: f.offset,
                transform: f.transform.clone().expect("an RMW keeps its transform"),
            },
        };
        Err(StallError {
            op,
            proc: p,
            last_progress,
            waited: BUDGET,
        })
    }

    /// Step until every processor is idle (or `max_cycles` elapse).
    /// Completions arrive in delivery order; [`RunReport::outcome`] says
    /// whether the machine went idle or the budget ran out with
    /// operations still in flight.
    pub fn run(&mut self, max_cycles: u64) -> RunReport {
        let mut completions = Vec::new();
        // The first collection also takes completions queued before the
        // call; after it only delivered processors have any.
        let mut swept = false;
        for _ in 0..max_cycles {
            if self.is_idle() {
                break;
            }
            self.step();
            if swept {
                for &p in &self.delivered {
                    completions.extend(self.done[p].drain(..));
                }
            } else {
                for q in &mut self.done {
                    completions.extend(q.drain(..));
                }
                swept = true;
            }
        }
        let outcome = if self.is_idle() {
            RunStatus::Idle
        } else {
            RunStatus::CycleBudgetExhausted {
                pending: self.pending_ops(),
            }
        };
        RunReport {
            completions,
            outcome,
        }
    }
}

/// Checkpoint/restore — the machine side of [`crate::snapshot`]. The
/// snapshot types live there; the code lives here because it reads and
/// rebuilds the module-private `InFlight` and `Phase` state.
impl CfmMachine {
    /// Whether the machine is *quiescent*: no operation in flight and
    /// every ATT arbitration window — live and held entries alike —
    /// empty. This is the precondition for a cross-shape
    /// [`MachineSnapshot::restore_into`]. Strictly stronger than
    /// [`Self::is_idle`]: ATT entries outlive the operations that
    /// inserted them by up to `b − 1` slots, so an idle machine may
    /// still carry live arbitration state. Undelivered completions do
    /// not block quiescence (they are at rest and restore verbatim).
    pub fn is_quiescent(&self) -> bool {
        self.is_idle()
            && self
                .atts
                .iter()
                .all(|a| a.entries().next().is_none() && a.held_entries().is_empty())
    }

    /// Drive the machine to quiescence: step until in-flight operations
    /// complete *and* the ATT windows they armed expire. Returns `true`
    /// once [`Self::is_quiescent`] holds, `false` if `max_cycles` slots
    /// pass first (e.g. an operation is starved by an adversarial fault
    /// plan). Completions produced while draining queue for
    /// [`Self::poll`] as usual — quiescing loses nothing.
    pub fn quiesce(&mut self, max_cycles: u64) -> bool {
        for _ in 0..max_cycles {
            if self.is_quiescent() {
                return true;
            }
            self.step();
        }
        self.is_quiescent()
    }

    /// Capture the complete machine state into a [`MachineSnapshot`]:
    /// the committed memory image and writer stamps (physical banks,
    /// spares included), every ATT entry (held ones too), in-flight
    /// operations, undelivered completions, statistics and the live
    /// fault state. Checkpointing happens at a step boundary and does
    /// not perturb the machine — `checkpoint` then
    /// [`MachineSnapshot::restore`] continues byte-identically to the
    /// uninterrupted run.
    ///
    /// The recorded trace is *not* captured (a snapshot is machine
    /// state, not history): take it with [`Self::drain_trace`] before
    /// checkpointing; the restored machine resumes tracing (empty) if
    /// tracing was on.
    pub fn checkpoint(&self) -> MachineSnapshot {
        let offsets = self.offsets();
        let n = self.config.processors();
        let (fault_next, transient_until, pending_responses) = self.fault_state.snapshot_parts();
        let (map, free_spares) = self.bank_map.parts();
        let atts = self
            .atts
            .iter()
            .map(|a| {
                let mut live: Vec<Entry> = a.entries().copied().collect();
                live.reverse(); // store oldest first; restore re-inserts in order
                AttState {
                    live,
                    held: a.held_entries().to_vec(),
                }
            })
            .collect();
        let inflight = self
            .inflight
            .iter()
            .map(|slot| {
                slot.as_ref().map(|op| InFlightState {
                    kind: op.kind,
                    offset: op.offset,
                    write_data: op.write_data.to_vec(),
                    transform: op.transform.clone(),
                    phase: match op.phase {
                        Phase::Read => 0,
                        Phase::Write => 1,
                        Phase::Drain => 2,
                    },
                    visited: op.visited,
                    bank0_updated: op.bank0_updated,
                    read_buf: op.read_buf.to_vec(),
                    observed_writers: op.observed_writers.to_vec(),
                    issued_at: op.issued_at,
                    restarts: op.restarts,
                    fault_retries: op.fault_retries,
                    op_id: op.op_id,
                    completes_at: op.completes_at,
                    sleep_until: op.sleep_until,
                    held_entry: op.held_entry,
                    outcome: op.outcome,
                    last_progress: op.last_progress,
                })
            })
            .collect();
        MachineSnapshot {
            processors: n,
            bank_cycle: self.config.bank_cycle(),
            word_width: self.config.word_width(),
            spares: self.config.spares(),
            engine: self.config.engine(),
            offsets,
            att_enabled: self.att_enabled,
            mode: self.mode,
            tracing: self.trace.is_some(),
            cycle: self.cycle,
            next_op_id: self.next_op_id,
            stats: self.stats,
            parallel_slots: self.parallel_slots,
            att_insert_drops: self.att_insert_drops,
            retry_suppressions: self.retry_suppressions,
            skip_remap_copy: self.skip_remap_copy,
            bank_words: (0..self.banks.banks())
                .map(|ph| (0..offsets).map(|o| self.banks.read(ph, o)).collect())
                .collect(),
            writer_ids: (0..self.banks.banks())
                .map(|ph| (0..offsets).map(|o| self.banks.writer(ph, o)).collect())
                .collect(),
            map: map.to_vec(),
            free_spares: free_spares.to_vec(),
            atts,
            plan_seed: self.fault_state.plan().seed(),
            plan_events: self.fault_state.plan().events().to_vec(),
            fault_next,
            transient_until: transient_until.to_vec(),
            pending_responses: pending_responses
                .iter()
                .map(|q| q.iter().copied().collect())
                .collect(),
            inflight,
            done: self
                .done
                .iter()
                .map(|q| q.iter().cloned().collect())
                .collect(),
        }
    }

    /// The restore engine behind [`MachineSnapshot::restore_into`].
    pub(crate) fn restore_impl(
        s: &MachineSnapshot,
        target: CfmConfig,
    ) -> Result<CfmMachine, SnapshotError> {
        Self::validate_snapshot(s)?;
        let same_shape = target.processors() == s.processors
            && target.bank_cycle() == s.bank_cycle
            && target.spares() == s.spares;
        if same_shape {
            Self::restore_same_shape(s, target)
        } else {
            Self::restore_cross_shape(s, target)
        }
    }

    /// Structural consistency of a decoded snapshot: every dimension
    /// agrees with the recorded shape. The byte codec cannot enforce
    /// these cross-field facts, so restore checks them before touching
    /// any state.
    fn validate_snapshot(s: &MachineSnapshot) -> Result<(), SnapshotError> {
        let b = s.bank_cycle as usize * s.processors;
        let physical = b + s.spares;
        let bad = |what: &'static str| Err(SnapshotError::Malformed { what });
        if s.atts.len() != b {
            return bad("ATT count");
        }
        if s.map.len() != b || s.map.iter().flatten().any(|&p| p >= physical) {
            return bad("bank map");
        }
        if s.free_spares.iter().any(|&p| p >= physical) {
            return bad("free spare index");
        }
        if s.bank_words.len() != physical || s.writer_ids.len() != physical {
            return bad("bank image shape");
        }
        if s.bank_words.iter().any(|r| r.len() != s.offsets)
            || s.writer_ids.iter().any(|r| r.len() != s.offsets)
        {
            return bad("bank row length");
        }
        if s.transient_until.len() != b {
            return bad("transient latches");
        }
        if s.inflight.len() != s.processors
            || s.done.len() != s.processors
            || s.pending_responses.len() != s.processors
        {
            return bad("per-processor state");
        }
        for op in s.inflight.iter().flatten() {
            // Reads carry no write data; everything else owns a full block.
            let wd_ok = op.write_data.is_empty() || op.write_data.len() == b;
            if !wd_ok || op.read_buf.len() != b || op.observed_writers.len() != b {
                return bad("in-flight buffers");
            }
        }
        Ok(())
    }

    /// Same shape (processors, bank cycle, spares): verbatim restore.
    /// The engine may differ.
    fn restore_same_shape(
        s: &MachineSnapshot,
        target: CfmConfig,
    ) -> Result<CfmMachine, SnapshotError> {
        // Prove the carried map injective *before* building the machine:
        // an aliased map is a typed refusal, never a silent alias.
        let physical = target.total_banks();
        let bank_map = BankMap::from_parts(s.map.clone(), s.free_spares.clone(), physical);
        bank_map.check_injective()?;
        let mut m = CfmMachine::construct(target, s.offsets, s.att_enabled, s.mode);
        for (ph, row) in s.bank_words.iter().enumerate() {
            for (o, w) in row.iter().enumerate() {
                m.banks.write(ph, o, *w);
            }
        }
        for (ph, row) in s.writer_ids.iter().enumerate() {
            for (o, id) in row.iter().enumerate() {
                m.banks.stamp(ph, o, *id);
            }
        }
        m.bank_map = bank_map;
        for (att, st) in m.atts.iter_mut().zip(&s.atts) {
            for e in &st.live {
                att.insert(*e);
            }
            for e in &st.held {
                att.restore_held(*e);
            }
        }
        m.fault_state = FaultState::from_parts(
            FaultPlan::from_parts(s.plan_seed, s.plan_events.clone()),
            s.fault_next,
            s.transient_until.clone(),
            s.pending_responses
                .iter()
                .map(|q| q.iter().copied().collect())
                .collect(),
        );
        for (p, slot) in s.inflight.iter().enumerate() {
            if let Some(op) = slot {
                let phase = match op.phase {
                    0 => Phase::Read,
                    1 => Phase::Write,
                    _ => Phase::Drain,
                };
                // The draining list is derived state: rebuilt here.
                if phase == Phase::Drain {
                    m.draining.push(p);
                }
                m.inflight[p] = Some(InFlight {
                    kind: op.kind,
                    offset: op.offset,
                    write_data: op.write_data.clone().into_boxed_slice(),
                    transform: op.transform.clone(),
                    phase,
                    visited: op.visited,
                    bank0_updated: op.bank0_updated,
                    read_buf: op.read_buf.clone().into_boxed_slice(),
                    observed_writers: op.observed_writers.clone().into_boxed_slice(),
                    issued_at: op.issued_at,
                    restarts: op.restarts,
                    fault_retries: op.fault_retries,
                    op_id: op.op_id,
                    completes_at: op.completes_at,
                    sleep_until: op.sleep_until,
                    held_entry: op.held_entry,
                    outcome: op.outcome,
                    last_progress: op.last_progress,
                });
            }
        }
        for (q, src) in m.done.iter_mut().zip(&s.done) {
            q.extend(src.iter().cloned());
        }
        Self::restore_counters(&mut m, s);
        if s.tracing {
            m.start_trace();
        }
        Ok(m)
    }

    /// Different shape (more banks and/or spares, possibly a different
    /// processor count): requires a quiescent snapshot, materialises the
    /// logical memory image onto fresh healthy hardware.
    fn restore_cross_shape(
        s: &MachineSnapshot,
        target: CfmConfig,
    ) -> Result<CfmMachine, SnapshotError> {
        let b_src = s.atts.len();
        let b_tgt = target.banks();
        let n_tgt = target.processors();
        if b_tgt < b_src {
            return Err(SnapshotError::ShrinkingShape {
                what: "banks",
                snapshot: b_src,
                target: b_tgt,
            });
        }
        // Quiescence: ATT entries and in-flight sweeps are functions of
        // the bank count and cannot cross a shape change.
        for (bank, st) in s.atts.iter().enumerate() {
            if let Some(e) = st.live.first().or_else(|| st.held.first()) {
                return Err(SnapshotError::ShapeIncompatibleAtt {
                    bank,
                    proc: e.proc,
                    offset: e.offset,
                });
            }
        }
        for (p, slot) in s.inflight.iter().enumerate() {
            if slot.is_some() {
                return Err(SnapshotError::ShapeIncompatibleOp { proc: p });
            }
        }
        // Fewer processors is tolerable only if the dropped processors
        // hold no undelivered state.
        for (p, q) in s.done.iter().enumerate() {
            if p >= n_tgt && !q.is_empty() {
                return Err(SnapshotError::ShrinkingShape {
                    what: "processors",
                    snapshot: s.processors,
                    target: n_tgt,
                });
            }
        }
        for (p, q) in s.pending_responses.iter().enumerate() {
            if p >= n_tgt && !q.is_empty() {
                return Err(SnapshotError::ShrinkingShape {
                    what: "processors",
                    snapshot: s.processors,
                    target: n_tgt,
                });
            }
        }
        // Prove the *source* map injective before reading through it —
        // materialising through an aliased map would merge two logical
        // banks' words.
        let src_map = BankMap::from_parts(s.map.clone(), s.free_spares.clone(), b_src + s.spares);
        src_map.check_injective()?;
        let mut m = CfmMachine::construct(target, s.offsets, s.att_enabled, s.mode);
        for logical in 0..b_src {
            match src_map.phys(logical) {
                Some(phys) => {
                    for o in 0..s.offsets {
                        m.banks.write(logical, o, s.bank_words[phys][o]);
                        m.banks.stamp(logical, o, s.writer_ids[phys][o]);
                    }
                }
                None => {
                    // Masked bank: its words were lost on the source.
                    // The target bank is healthy again, but the stamps
                    // say MASKED_WRITER so a pre-loss block reads as
                    // "lost word", not as a tear.
                    for o in 0..s.offsets {
                        m.banks.stamp(logical, o, MASKED_WRITER);
                    }
                }
            }
        }
        // New logical banks (b_src..b_tgt) hold words that never
        // existed in the snapshot: stamp them MASKED_WRITER so a read
        // of a pre-migration block sees them as absent, not as a second
        // writer tearing the block. The fresh identity BankMap comes
        // from `construct` — evacuation semantics: masks and remaps
        // never carry onto new hardware.
        for logical in b_src..b_tgt {
            for o in 0..s.offsets {
                m.banks.stamp(logical, o, MASKED_WRITER);
            }
        }
        let mut transient = s.transient_until.clone();
        transient.resize(b_tgt, None);
        let mut pending: Vec<VecDeque<FaultKind>> = s
            .pending_responses
            .iter()
            .take(n_tgt)
            .map(|q| q.iter().copied().collect())
            .collect();
        pending.resize(n_tgt, VecDeque::new());
        m.fault_state = FaultState::from_parts(
            FaultPlan::from_parts(s.plan_seed, s.plan_events.clone()),
            s.fault_next,
            transient,
            pending,
        );
        for (p, q) in s.done.iter().enumerate().take(n_tgt) {
            m.done[p].extend(q.iter().cloned());
        }
        Self::restore_counters(&mut m, s);
        if s.tracing {
            m.start_trace();
        }
        Ok(m)
    }

    /// The shape-independent scalar state both restore paths carry.
    fn restore_counters(m: &mut CfmMachine, s: &MachineSnapshot) {
        m.cycle = s.cycle;
        m.next_op_id = s.next_op_id;
        m.stats = s.stats;
        m.parallel_slots = s.parallel_slots;
        m.att_insert_drops = s.att_insert_drops;
        m.retry_suppressions = s.retry_suppressions;
        m.skip_remap_copy = s.skip_remap_copy;
    }
}

/// Typed result of [`CfmMachine::run`] — the completions delivered plus
/// how the run ended, aligned with [`crate::program::RunOutcome`] at the
/// program layer.
#[must_use = "check `outcome` (or call `expect_idle`) — a budget-exhausted \
              run leaves operations in flight"]
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunReport {
    /// Completions in delivery order (poll order per slot).
    pub completions: Vec<Completion>,
    /// How the run ended.
    pub outcome: RunStatus,
}

/// How a [`CfmMachine::run`] call ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunStatus {
    /// Every processor went idle within the cycle budget.
    Idle,
    /// The cycle budget elapsed with operations still in flight;
    /// `pending` snapshots them with their owning processors.
    CycleBudgetExhausted {
        /// The in-flight operations and their owners at cutoff.
        pending: Vec<(ProcId, PendingOp)>,
    },
}

impl RunReport {
    /// Whether the machine went idle within the budget.
    pub fn is_idle(&self) -> bool {
        matches!(self.outcome, RunStatus::Idle)
    }

    /// The completions, asserting the machine went idle. Panics with the
    /// pending owners if the cycle budget was exhausted — the typed
    /// replacement for `run_until_idle(..).unwrap()`.
    pub fn expect_idle(self) -> Vec<Completion> {
        match self.outcome {
            RunStatus::Idle => self.completions,
            RunStatus::CycleBudgetExhausted { pending } => {
                let owners: Vec<_> = pending
                    .iter()
                    .map(|(p, op)| format!("p{p}:{:?}@{}", op.kind, op.offset))
                    .collect();
                panic!(
                    "cycle budget exhausted with {} op(s) pending: [{}]",
                    pending.len(),
                    owners.join(", ")
                )
            }
        }
    }

    /// The pending owners if the budget ran out, empty when idle.
    pub fn pending(&self) -> &[(ProcId, PendingOp)] {
        match &self.outcome {
            RunStatus::Idle => &[],
            RunStatus::CycleBudgetExhausted { pending } => pending,
        }
    }
}

/// The operation's part of one proven word access at slot `now`: the route
/// event, the bank read into the operation's own buffers (or, for a
/// write, its ATT-insert and bank-access events), and the phase
/// advance, including a swap/RMW's transform at the read → write
/// boundary and the drain timestamp after the final access. It emits
/// the reference body's events in the reference order and touches no
/// shared state: the bank write, writer stamp, ATT insert and injection
/// accounting are [`commit_access`]'s.
#[inline]
fn exec_access<S: TraceSink + ?Sized>(
    op: &mut InFlight,
    a: &ProcPlan,
    banks: &BankArray,
    now: Cycle,
    b: usize,
    bank_cycle: u64,
    sink: &mut S,
) {
    sink.record(TraceEvent::Route {
        slot: now,
        proc: a.p,
        bank: a.k,
    });
    op.last_progress = now;
    match op.phase {
        Phase::Read => {
            match a.phys {
                Some(ph) => {
                    op.read_buf[a.k] =
                        banks.read_traced(ph, op.offset, now, a.k, a.p, op.op_id, sink);
                    op.observed_writers[a.k] = banks.writer(ph, op.offset);
                }
                None => {
                    op.read_buf[a.k] = 0;
                    op.observed_writers[a.k] = MASKED_WRITER;
                }
            }
            op.visited += 1;
            if op.visited == b {
                if matches!(op.kind, OpKind::Swap | OpKind::Rmw) {
                    // §4.2.1: the modification is computed in a
                    // pipelined fashion, so the write phase starts
                    // with no extra delay.
                    if let Some(t) = &op.transform {
                        t.apply_into(&op.read_buf, &mut op.write_data);
                    }
                    op.phase = Phase::Write;
                    op.visited = 0;
                    op.bank0_updated = false;
                } else {
                    op.phase = Phase::Drain;
                    op.completes_at = now + bank_cycle - 1;
                }
            }
        }
        Phase::Write => {
            if a.insert {
                sink.record(TraceEvent::AttInsert {
                    slot: now,
                    bank: a.k,
                    proc: a.p,
                    offset: op.offset,
                    op_id: op.op_id,
                });
            }
            if a.phys.is_some() {
                sink.record(TraceEvent::BankAccess {
                    slot: now,
                    proc: a.p,
                    bank: a.k,
                    offset: op.offset,
                    op_id: op.op_id,
                    write: true,
                    word: op.write_data[a.k],
                });
            }
            op.bank0_updated |= a.k == 0;
            op.visited += 1;
            if op.visited == b {
                op.phase = Phase::Drain;
                op.completes_at = now + bank_cycle - 1;
            }
        }
        Phase::Drain => unreachable!("drain ops are never planned"),
    }
}

/// The shared-state commits of one proven access `a` of `op` at slot
/// `now`: injection accounting, and for a write-phase access the
/// first-access ATT insert, the bank write and the writer stamp —
/// exactly the reference body's effects on a hazard-free access,
/// committed by the one-pass step right after the access. Always
/// inlined: left to the optimizer it was outlined, which cost the
/// one-pass step ~10% per slot.
#[inline(always)]
fn commit_access(
    banks: &mut BankArray,
    atts: &mut [Att],
    stats: &mut Stats,
    a: &ProcPlan,
    op: &InFlight,
    now: Cycle,
) {
    match a.phys {
        Some(ph) => {
            if !banks.note_injection(ph, now) {
                // Impossible under the AT-space schedule; recorded, not
                // fatal.
                stats.bank_conflicts += 1;
            }
            stats.word_accesses += 1;
        }
        None => stats.masked_accesses += 1,
    }
    if a.write {
        if a.insert {
            atts[a.k].insert(Entry {
                offset: op.offset,
                kind: if matches!(op.kind, OpKind::Swap | OpKind::Rmw) {
                    TrackKind::SwapWrite
                } else {
                    TrackKind::Write
                },
                proc: a.p,
                inserted_at: now,
            });
        }
        if let Some(ph) = a.phys {
            banks.write(ph, op.offset, op.write_data[a.k]);
            banks.stamp(ph, op.offset, op.op_id);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn machine(n: usize, c: u32, offsets: usize) -> CfmMachine {
        CfmMachine::builder(CfmConfig::new(n, c, 16).unwrap())
            .offsets(offsets)
            .build()
    }

    #[test]
    fn single_read_takes_beta_cycles() {
        // β = b + c − 1; n=4, c=2 → b=8, β=9 (Table 3.3's 8-bank row).
        let mut m = machine(4, 2, 16);
        m.issue(0, Operation::read(3)).unwrap();
        let done = m.run(100).expect_idle();
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].latency(), 9);
        assert_eq!(done[0].outcome, Outcome::Completed);
    }

    #[test]
    fn single_write_then_read_roundtrip() {
        let mut m = machine(4, 1, 16);
        let data: Vec<Word> = vec![10, 20, 30, 40];
        m.issue(2, Operation::write(5, data.clone())).unwrap();
        m.run(100).expect_idle();
        assert_eq!(m.peek_block(5), data);
        m.issue(1, Operation::read(5)).unwrap();
        let done = m.run(100).expect_idle();
        assert_eq!(done[0].data.as_deref(), Some(&data[..]));
        assert!(!done[0].torn);
    }

    #[test]
    fn block_access_starts_at_any_slot_without_stall() {
        // Issue at three different phases of the period; latency is always β.
        for skew in 0..4u64 {
            let mut m = machine(4, 1, 8);
            for _ in 0..skew {
                m.step();
            }
            m.issue(3, Operation::read(0)).unwrap();
            let done = m.run(100).expect_idle();
            assert_eq!(done[0].latency(), 4, "skew {skew}");
        }
    }

    #[test]
    fn all_processors_concurrently_zero_conflicts() {
        // Every processor reads a different block simultaneously: all
        // complete in exactly β with zero bank conflicts (the headline
        // conflict-freedom claim).
        let mut m = machine(8, 2, 32);
        for p in 0..8 {
            m.issue(p, Operation::read(p)).unwrap();
        }
        let done = m.run(200).expect_idle();
        assert_eq!(done.len(), 8);
        for c in &done {
            assert_eq!(c.latency(), m.config().block_access_time());
        }
        assert_eq!(m.stats().bank_conflicts, 0);
    }

    #[test]
    fn same_block_concurrent_reads_all_complete() {
        let mut m = machine(4, 1, 8);
        m.poke_block(2, &[7, 7, 7, 7]);
        for p in 0..4 {
            m.issue(p, Operation::read(2)).unwrap();
        }
        let done = m.run(100).expect_idle();
        for c in done {
            assert_eq!(c.data.as_deref(), Some(&[7, 7, 7, 7][..]));
            assert_eq!(c.restarts, 0);
        }
    }

    #[test]
    fn busy_processor_rejects_second_issue() {
        let mut m = machine(4, 1, 8);
        m.issue(0, Operation::read(0)).unwrap();
        assert_eq!(m.issue(0, Operation::read(1)), Err(IssueError::Busy));
    }

    #[test]
    fn issue_validation() {
        let mut m = machine(4, 1, 8);
        assert_eq!(
            m.issue(9, Operation::read(0)),
            Err(IssueError::NoSuchProcessor)
        );
        assert_eq!(
            m.issue(0, Operation::read(99)),
            Err(IssueError::NoSuchBlock)
        );
        assert_eq!(
            m.issue(0, Operation::write(0, vec![1, 2])),
            Err(IssueError::WrongBlockLength { got: 2, want: 4 })
        );
    }

    #[test]
    fn swap_returns_old_block_and_installs_new() {
        let mut m = machine(4, 1, 8);
        m.poke_block(3, &[1, 2, 3, 4]);
        m.issue(0, Operation::swap(3, vec![9, 9, 9, 9])).unwrap();
        let done = m.run(100).expect_idle();
        assert_eq!(done[0].data.as_deref(), Some(&[1, 2, 3, 4][..]));
        assert_eq!(done[0].latency(), m.config().swap_access_time());
        assert_eq!(m.peek_block(3), vec![9, 9, 9, 9]);
    }

    #[test]
    fn back_to_back_issues_have_no_gap() {
        let mut m = machine(4, 1, 8);
        m.issue(0, Operation::read(0)).unwrap();
        let first = m.run(100).expect_idle().remove(0);
        m.issue(0, Operation::read(1)).unwrap();
        let second = m.run(100).expect_idle().remove(0);
        assert_eq!(second.issued_at, first.completed_at + 1);
    }

    #[test]
    fn concurrent_same_block_writes_one_winner_no_tear() {
        // Two processors write the same block simultaneously: exactly one
        // version survives intact (Fig 4.4's guarantee).
        let mut m = machine(4, 1, 8);
        m.issue(0, Operation::write(5, vec![1, 1, 1, 1])).unwrap();
        m.issue(2, Operation::write(5, vec![2, 2, 2, 2])).unwrap();
        m.run(100).expect_idle();
        let block = m.peek_block(5);
        assert!(
            block == vec![1, 1, 1, 1] || block == vec![2, 2, 2, 2],
            "torn block: {block:?}"
        );
    }

    #[test]
    fn fig_4_3_exact_timeline() {
        // Fig 4.3, §4.1.2 (latest-wins): m = 8 banks, c = 1. Processor 1
        // issues write a at slot 0 (first bank 1); processor 3 issues
        // write b at slot 1 (first bank 4). At slot 3, a reaches bank 4,
        // finds b's entry among its first n entries (b was issued later)
        // and aborts; b completes untouched.
        let cfg = CfmConfig::new(8, 1, 16).unwrap();
        let mut m = CfmMachine::builder(cfg)
            .offsets(8)
            .priority(PriorityMode::LatestWins)
            .build();
        m.issue(1, Operation::write(5, vec![0xA; 8])).unwrap();
        m.step(); // slot 0: a starts in bank 1
        m.issue(3, Operation::write(5, vec![0xB; 8])).unwrap();
        let done = m.run(100).expect_idle();
        let a = done.iter().find(|c| c.proc == 1).unwrap();
        let b = done.iter().find(|c| c.proc == 3).unwrap();
        assert_eq!(a.outcome, Outcome::Overwritten, "a must be aborted");
        assert_eq!(b.outcome, Outcome::Completed);
        // a aborted at slot 3 — after three word accesses.
        assert_eq!(a.completed_at, 3);
        assert_eq!(m.peek_block(5), vec![0xB; 8]);
    }

    #[test]
    fn fig_4_4_simultaneous_writes_bank0_tiebreak() {
        // Fig 4.4: writes c (processor 1, first bank 1) and d (processor
        // 5, first bank 5) issued in the same slot. d updates bank 0 at
        // slot 3; at slot 4, c detects d in its first four entries and
        // aborts, while d (having updated bank 0) compares only three
        // entries and proceeds.
        let cfg = CfmConfig::new(8, 1, 16).unwrap();
        let mut m = CfmMachine::builder(cfg)
            .offsets(8)
            .priority(PriorityMode::LatestWins)
            .build();
        m.issue(1, Operation::write(5, vec![0xC; 8])).unwrap();
        m.issue(5, Operation::write(5, vec![0xD; 8])).unwrap();
        let done = m.run(100).expect_idle();
        let c = done.iter().find(|x| x.proc == 1).unwrap();
        let d = done.iter().find(|x| x.proc == 5).unwrap();
        assert_eq!(c.outcome, Outcome::Overwritten, "c must lose the tie");
        assert_eq!(c.completed_at, 4, "c aborts at slot 4 (bank 5)");
        assert_eq!(d.outcome, Outcome::Completed);
        assert_eq!(m.peek_block(5), vec![0xD; 8]);
    }

    #[test]
    fn fig_4_5_read_restart_timeline() {
        // Fig 4.5: read e (processor 1, first bank 1) and write f
        // (processor 3, first bank 3) issued in the same slot. e reaches
        // bank 3 at slot 2, detects f's entry, restarts, and returns the
        // all-new block.
        let cfg = CfmConfig::new(8, 1, 16).unwrap();
        let mut m = CfmMachine::builder(cfg)
            .offsets(8)
            .priority(PriorityMode::LatestWins)
            .build();
        m.poke_block(5, &[0; 8]);
        m.issue(3, Operation::write(5, vec![0xF; 8])).unwrap();
        m.issue(1, Operation::read(5)).unwrap();
        let done = m.run(100).expect_idle();
        let e = done.iter().find(|x| x.kind == OpKind::Read).unwrap();
        assert!(e.restarts >= 1, "e must restart at bank 3");
        assert_eq!(
            e.data.as_deref().unwrap(),
            &[0xF; 8],
            "restarted read must deliver a single (new) version"
        );
        assert!(!e.torn);
    }

    #[test]
    fn att_disabled_produces_torn_blocks() {
        // Fig 4.1: without address tracking, staggered same-block writes
        // interleave and the block ends up torn.
        let cfg = CfmConfig::new(4, 1, 16).unwrap();
        let mut m = CfmMachine::builder(cfg).offsets(8).tracking(false).build();
        m.issue(0, Operation::write(5, vec![1, 1, 1, 1])).unwrap();
        m.step(); // processor 1 starts one slot later, offset start bank
        m.issue(1, Operation::write(5, vec![2, 2, 2, 2])).unwrap();
        m.run(100).expect_idle();
        let block = m.peek_block(5);
        assert!(
            block != vec![1, 1, 1, 1] && block != vec![2, 2, 2, 2],
            "expected a torn block, got {block:?}"
        );
    }

    #[test]
    fn att_disabled_read_tear_detected() {
        // A read overlapping a write with tracking off observes two
        // versions; the checker flags it.
        let cfg = CfmConfig::new(4, 1, 16).unwrap();
        let mut m = CfmMachine::builder(cfg).offsets(8).tracking(false).build();
        m.poke_block(5, &[0, 0, 0, 0]);
        // Writer p1 starts at bank 1 and reaches bank 0 last (cycle 3);
        // reader p0 starts at bank 0 (cycle 0, old word) and then trails
        // one bank behind the writer (new words) — a classic tear.
        m.issue(1, Operation::write(5, vec![9, 9, 9, 9])).unwrap();
        m.issue(0, Operation::read(5)).unwrap();
        let done = m.run(100).expect_idle();
        let read = done.iter().find(|c| c.kind == OpKind::Read).unwrap();
        assert!(read.torn, "read should have observed a tear");
        assert!(m.stats().torn_reads >= 1);
    }

    #[test]
    fn att_enabled_reads_never_torn() {
        // Same interleaving as above with tracking on: the read restarts
        // and returns a single version.
        let mut m = machine(4, 1, 8);
        m.poke_block(5, &[0, 0, 0, 0]);
        m.issue(1, Operation::write(5, vec![9, 9, 9, 9])).unwrap();
        m.issue(0, Operation::read(5)).unwrap();
        let done = m.run(100).expect_idle();
        let read = done.iter().find(|c| c.kind == OpKind::Read).unwrap();
        assert!(!read.torn);
        let data = read.data.as_deref().unwrap();
        assert!(
            data == [0, 0, 0, 0] || data == [9, 9, 9, 9],
            "mixed versions: {data:?}"
        );
        assert_eq!(m.stats().torn_reads, 0);
    }

    #[test]
    fn swap_swap_conflict_is_serialized() {
        // Two concurrent swaps on one block: outcomes equal one of the two
        // sequential orders (Fig 4.6a/b) — exactly one sees the other's
        // value or the initial value consistently.
        let mut m = machine(4, 1, 8);
        m.poke_block(5, &[0, 0, 0, 0]);
        m.issue(0, Operation::swap(5, vec![1, 1, 1, 1])).unwrap();
        m.issue(2, Operation::swap(5, vec![2, 2, 2, 2])).unwrap();
        let done = m.run(1000).expect_idle();
        let mut olds: Vec<Vec<Word>> = done
            .iter()
            .map(|c| c.data.as_deref().unwrap().to_vec())
            .collect();
        olds.sort();
        let fin = m.peek_block(5);
        // Serial order A;B: olds {0…, A's data}, final B's data.
        let ok = (olds == vec![vec![0; 4], vec![1; 4]] && fin == vec![2; 4])
            || (olds == vec![vec![0; 4], vec![2; 4]] && fin == vec![1; 4]);
        assert!(ok, "olds {olds:?}, final {fin:?} is not a serial outcome");
        assert_eq!(m.stats().torn_reads, 0);
    }

    #[test]
    fn raw_fetch_and_add_is_atomic_across_processors() {
        // §4.2.1's read-modify-write on the uncached machine: concurrent
        // fetch-and-adds never lose an increment.
        let mut m = machine(4, 1, 8);
        for round in 0..5 {
            for p in 0..4 {
                m.issue(p, Operation::fetch_add(2, 0, 1)).unwrap();
            }
            let done = m.run(100_000).expect_idle();
            assert_eq!(done.len(), 4, "round {round}");
        }
        assert_eq!(m.peek_block(2)[0], 20);
        assert_eq!(m.stats().torn_reads, 0);
    }

    #[test]
    fn raw_rmw_returns_old_block_and_times_like_swap() {
        let mut m = machine(4, 2, 8);
        m.poke_block(1, &[5, 0, 0, 0, 0, 0, 0, 0]);
        m.issue(0, Operation::fetch_add(1, 0, 10)).unwrap();
        let done = m.run(1_000).expect_idle();
        assert_eq!(done[0].data.as_deref().unwrap()[0], 5); // old value
        assert_eq!(done[0].latency(), m.config().swap_access_time());
        assert_eq!(m.peek_block(1)[0], 15);
    }

    #[test]
    fn raw_multiple_test_and_set_all_or_nothing() {
        use crate::op::BlockTransform;
        let mut m = machine(4, 1, 8);
        m.poke_block(0, &[0b0101, 0, 0, 0]);
        // Disjoint pattern succeeds.
        m.issue(
            0,
            Operation::Rmw {
                offset: 0,
                transform: BlockTransform::MultipleTestAndSet {
                    pattern: vec![0b1010, 0, 0, 1].into_boxed_slice(),
                },
            },
        )
        .unwrap();
        m.run(1_000).expect_idle();
        assert_eq!(m.peek_block(0), vec![0b1111, 0, 0, 1]);
        // Overlapping pattern fails atomically: block unchanged, old
        // value returned for the caller to inspect.
        m.issue(
            1,
            Operation::Rmw {
                offset: 0,
                transform: BlockTransform::MultipleTestAndSet {
                    pattern: vec![0b0100, 0, 0, 0].into_boxed_slice(),
                },
            },
        )
        .unwrap();
        let done = m.run(1_000).expect_idle();
        assert_eq!(done[0].data.as_deref().unwrap()[0], 0b1111);
        assert_eq!(m.peek_block(0), vec![0b1111, 0, 0, 1]);
    }

    #[test]
    fn rmw_pattern_length_validated() {
        use crate::op::BlockTransform;
        let mut m = machine(4, 1, 8);
        assert_eq!(
            m.issue(
                0,
                Operation::Rmw {
                    offset: 0,
                    transform: BlockTransform::MultipleTestAndSet {
                        pattern: vec![1, 2].into_boxed_slice(),
                    },
                },
            ),
            Err(IssueError::WrongBlockLength { got: 2, want: 4 })
        );
    }

    #[test]
    fn stats_count_basic_run() {
        let mut m = machine(4, 1, 8);
        m.issue(0, Operation::read(0)).unwrap();
        m.run(100).expect_idle();
        assert_eq!(m.stats().issued, 1);
        assert_eq!(m.stats().completed, 1);
        assert_eq!(m.stats().word_accesses, 4);
        assert_eq!(m.stats().efficiency(), 1.0);
    }

    #[test]
    fn run_reports_budget_exhaustion_with_pending_owners() {
        let mut m = machine(4, 2, 8);
        m.issue(0, Operation::read(0)).unwrap();
        let report = m.run(3);
        assert!(!report.is_idle());
        let pending = report.pending();
        assert_eq!(pending.len(), 1);
        assert_eq!(pending[0].0, 0);
        assert_eq!(pending[0].1.offset, 0);
    }

    #[test]
    #[should_panic(expected = "cycle budget exhausted")]
    fn expect_idle_panics_naming_pending_owners() {
        let mut m = machine(4, 2, 8);
        m.issue(1, Operation::read(2)).unwrap();
        let _ = m.run(2).expect_idle();
    }

    use crate::fault::{FaultKind, FaultPlan};

    #[test]
    fn transient_fault_recovers_with_backoff() {
        let mut m = machine(4, 1, 8);
        m.injector().fault_plan(FaultPlan::single(
            1,
            FaultKind::TransientBankError {
                bank: 2,
                repair_slot: 8,
            },
        ));
        m.issue(0, Operation::write(3, vec![5, 6, 7, 8])).unwrap();
        let done = m.run(1_000).expect_idle();
        assert_eq!(done[0].outcome, Outcome::Completed);
        assert!(m.stats().fault_retries >= 1, "the fault window was hit");
        assert_eq!(m.stats().fault_aborts, 0);
        assert_eq!(m.peek_block(3), vec![5, 6, 7, 8], "recovered write intact");
        assert!(
            done[0].latency() > m.config().block_access_time(),
            "backoff must cost slots"
        );
    }

    /// The one-pass step's fallback tally names the fault and hook
    /// reasons: a transient error on the access's bank, the entry a
    /// faulted write phase holds across the repair, and an armed seeded
    /// hook, which sends every access.
    #[test]
    fn fallbacks_count_fault_and_hook_reasons() {
        let cfg = CfmConfig::new(4, 1, 16)
            .unwrap()
            .with_engine(Engine::Parallel { threads: 1 });
        let mut m = CfmMachine::builder(cfg).offsets(8).build();
        m.injector().fault_plan(FaultPlan::single(
            1,
            FaultKind::TransientBankError {
                bank: 2,
                repair_slot: 8,
            },
        ));
        m.issue(0, Operation::write(3, vec![5, 6, 7, 8])).unwrap();
        m.run(1_000).expect_idle();
        let faulted = m.fallbacks();
        assert!(faulted.transient_fault > 0, "{faulted:?}");
        assert!(faulted.held_entry > 0, "{faulted:?}");
        assert_eq!(faulted.seeded_hook + faulted.contended_offset, 0);

        m.injector().drop_att_inserts(1);
        m.issue(1, Operation::write(4, vec![1; 4])).unwrap();
        m.run(1_000).expect_idle();
        let hooked = m.fallbacks();
        assert!(hooked.seeded_hook > 0, "{hooked:?}");
        assert_eq!(hooked.total() - hooked.seeded_hook, faulted.total());
    }

    #[test]
    fn exhausted_retries_surface_typed_transient_fault() {
        let mut m = machine(4, 1, 8);
        // A repair slot far beyond the bounded retry budget: every
        // backed-off retry still lands in the fault window.
        m.injector().fault_plan(FaultPlan::single(
            0,
            FaultKind::TransientBankError {
                bank: 1,
                repair_slot: 1_000_000,
            },
        ));
        m.issue(2, Operation::read(0)).unwrap();
        let done = m.run(5_000).expect_idle();
        assert_eq!(done[0].outcome, Outcome::TransientFault);
        assert_eq!(m.stats().fault_aborts, 1);
        assert!(m.stats().fault_retries >= 8);
    }

    #[test]
    fn permanent_failure_remaps_onto_spare_preserving_data() {
        let cfg = CfmConfig::new(4, 1, 16).unwrap().with_spares(1).unwrap();
        let mut m = CfmMachine::builder(cfg).offsets(8).build();
        m.poke_block(2, &[11, 22, 33, 44]);
        m.injector().fault_plan(FaultPlan::single(
            3,
            FaultKind::PermanentBankFailure { bank: 1 },
        ));
        m.issue(0, Operation::read(2)).unwrap();
        for _ in 0..20 {
            m.step();
        }
        assert_eq!(m.stats().bank_remaps, 1);
        assert!(m.bank_map().is_degraded());
        assert_eq!(m.bank_map().phys(1), Some(4), "bank 1 now on the spare");
        assert_eq!(m.bank_map().check_injective(), Ok(()));
        assert_eq!(
            m.peek_block(2),
            vec![11, 22, 33, 44],
            "committed words survive the remap"
        );
        // A fresh read over the degraded machine still round-trips.
        let c = m.execute(2, Operation::read(2));
        assert_eq!(c.data.as_deref(), Some(&[11, 22, 33, 44][..]));
        assert!(!c.torn);
    }

    #[test]
    fn spareless_failure_masks_the_bank_without_tearing() {
        let mut m = machine(4, 1, 8);
        m.poke_block(5, &[1, 2, 3, 4]);
        m.injector().fault_plan(FaultPlan::single(
            0,
            FaultKind::PermanentBankFailure { bank: 2 },
        ));
        m.step();
        assert_eq!(m.stats().banks_masked, 1);
        assert!(m.bank_map().is_masked(2));
        assert_eq!(m.peek_block(5), vec![1, 2, 0, 4], "word 2 is lost");
        let c = m.execute(0, Operation::read(5));
        assert_eq!(c.data.as_deref(), Some(&[1, 2, 0, 4][..]));
        assert!(!c.torn, "a lost word is not a tear");
        assert!(m.stats().masked_accesses >= 1);
    }

    #[test]
    fn dropped_response_is_retransmitted_one_period_later() {
        let mut m = machine(4, 1, 8);
        m.injector()
            .fault_plan(FaultPlan::single(0, FaultKind::DroppedResponse { proc: 0 }));
        m.issue(0, Operation::read(1)).unwrap();
        let done = m.run(100).expect_idle();
        let beta = m.config().block_access_time();
        let banks = m.config().banks() as u64;
        assert_eq!(done[0].latency(), beta + banks, "delayed by one period");
        assert_eq!(done[0].restarts, 1);
        assert_eq!(m.stats().dropped_responses, 1);
    }

    #[test]
    fn suppressed_retry_commits_a_corrupted_word() {
        // The "missed retry" seeded fault: the transient window covers
        // exactly the slot where the write sweep hits bank 3; with the
        // retry suppressed, the erroring bank stores a corrupted word.
        let mut m = machine(4, 1, 8);
        m.injector().fault_plan(FaultPlan::single(
            3,
            FaultKind::TransientBankError {
                bank: 3,
                repair_slot: 4,
            },
        ));
        m.injector().suppress_retries(1);
        m.issue(0, Operation::write(6, vec![9, 9, 9, 9])).unwrap();
        m.run(100).expect_idle();
        let block = m.peek_block(6);
        assert_eq!(&block[..3], &[9, 9, 9]);
        assert_ne!(block[3], 9, "the suppressed retry corrupted word 3");
        assert_eq!(m.stats().fault_retries, 0, "no retry was taken");
    }

    #[test]
    fn remap_copy_skip_loses_committed_writes() {
        let cfg = CfmConfig::new(4, 1, 16).unwrap().with_spares(1).unwrap();
        let mut m = CfmMachine::builder(cfg).offsets(8).build();
        m.poke_block(0, &[7, 7, 7, 7]);
        m.injector().skip_remap_copy();
        m.injector().fault_plan(FaultPlan::single(
            1,
            FaultKind::PermanentBankFailure { bank: 2 },
        ));
        m.step();
        m.step();
        let block = m.peek_block(0);
        assert_eq!(block, vec![7, 7, 0, 7], "the skipped copy lost word 2");
    }

    #[test]
    fn pending_ops_snapshot_names_the_owner() {
        let mut m = machine(4, 2, 8);
        m.issue(1, Operation::swap(3, vec![0; 8])).unwrap();
        m.step();
        let pending = m.pending_ops();
        assert_eq!(pending.len(), 1);
        let (proc, op) = &pending[0];
        assert_eq!(*proc, 1);
        assert_eq!(op.kind, OpKind::Swap);
        assert_eq!(op.offset, 3);
        assert_eq!(op.issued_at, 0);
    }

    /// Drive one machine through a mixed disjoint-block workload and
    /// return everything externally observable: completions, stats,
    /// final memory image, and the full trace.
    fn drive_disjoint(engine: Engine) -> (Vec<Completion>, Stats, Vec<Vec<Word>>, MemoryTrace) {
        let cfg = CfmConfig::new(8, 2, 16).unwrap().with_engine(engine);
        let b = cfg.banks();
        let mut m = CfmMachine::builder(cfg).offsets(32).build();
        m.start_trace();
        for o in 0..8 {
            m.poke_block(o, &vec![o as Word + 1; b]);
        }
        let mut completions = Vec::new();
        for round in 0..5u64 {
            for p in 0..8usize {
                let op = match (p + round as usize) % 4 {
                    0 => Operation::read((p + round as usize) % 8),
                    1 => Operation::write(p, vec![round * 100 + p as u64; b]),
                    2 => Operation::swap(p, vec![round + 7 * p as u64; b]),
                    _ => Operation::fetch_add(p, p % b, round + 1),
                };
                m.issue(p, op).unwrap();
            }
            completions.extend(m.run(10_000).expect_idle());
        }
        if matches!(engine, Engine::Parallel { .. }) {
            assert!(m.parallel_slots() > 0, "the parallel path really engaged");
        }
        let image = (0..8).map(|o| m.peek_block(o)).collect();
        let trace = m.take_trace().unwrap();
        (completions, *m.stats(), image, trace)
    }

    #[test]
    fn parallel_engine_is_byte_identical_on_disjoint_workload() {
        let seq = drive_disjoint(Engine::Sequential);
        let par = drive_disjoint(Engine::Parallel { threads: 1 });
        assert_eq!(seq.0, par.0, "completions");
        assert_eq!(seq.1, par.1, "stats");
        assert_eq!(seq.2, par.2, "memory");
        assert_eq!(seq.3, par.3, "trace");
    }

    /// Same-block contention (every processor swaps block 0) forces ATT
    /// arbitration — hazardous accesses the one-pass step must hand to
    /// the reference body without observable difference.
    fn drive_contended(engine: Engine) -> (Vec<Completion>, Stats, Vec<Word>, MemoryTrace) {
        let cfg = CfmConfig::new(4, 1, 16).unwrap().with_engine(engine);
        let b = cfg.banks();
        let mut m = CfmMachine::builder(cfg).offsets(8).build();
        m.start_trace();
        let mut completions = Vec::new();
        for round in 0..4u64 {
            for p in 0..4usize {
                m.issue(p, Operation::swap(0, vec![round * 10 + p as u64; b]))
                    .unwrap();
            }
            completions.extend(m.run(10_000).expect_idle());
        }
        (
            completions,
            *m.stats(),
            m.peek_block(0),
            m.take_trace().unwrap(),
        )
    }

    #[test]
    fn parallel_engine_matches_sequential_under_contention() {
        let seq = drive_contended(Engine::Sequential);
        let par = drive_contended(Engine::Parallel { threads: 1 });
        assert_eq!(seq.0, par.0, "completions");
        assert_eq!(seq.1, par.1, "stats");
        assert_eq!(seq.2, par.2, "memory");
        assert_eq!(seq.3, par.3, "trace");
        assert!(seq.1.swap_restarts > 0, "workload really contends");
    }

    #[test]
    fn parallel_engine_matches_sequential_under_faults() {
        let run = |engine: Engine| {
            let cfg = CfmConfig::new(4, 1, 16)
                .unwrap()
                .with_spares(1)
                .unwrap()
                .with_engine(engine);
            let b = cfg.banks();
            let mut m = CfmMachine::builder(cfg).offsets(8).build();
            m.start_trace();
            m.injector().fault_plan(FaultPlan::generate(
                11,
                &crate::fault::PlanParams {
                    banks: b,
                    processors: 4,
                    horizon: 48,
                    permanent: 1,
                    transient: 3,
                    max_repair: 4,
                    responses: 2,
                    stuck: 0,
                },
            ));
            let mut completions = Vec::new();
            for round in 0..6u64 {
                for p in 0..4usize {
                    let op = if (p + round as usize).is_multiple_of(2) {
                        Operation::read(p)
                    } else {
                        Operation::write(p, vec![round + p as u64; b])
                    };
                    m.issue(p, op).unwrap();
                }
                completions.extend(m.run(10_000).expect_idle());
            }
            (completions, *m.stats(), m.take_trace().unwrap())
        };
        let seq = run(Engine::Sequential);
        let par = run(Engine::Parallel { threads: 1 });
        assert_eq!(seq.0, par.0, "completions");
        assert_eq!(seq.1, par.1, "stats");
        assert_eq!(seq.2, par.2, "trace");
        assert!(seq.1.faults_injected > 0, "plan really injects");
    }

    /// Slots of a trace with at least one access and no access routed to
    /// a bank whose ATT holds another processor's entry for the
    /// accessing operation's offset — the one-pass step's proven slots —
    /// and the accesses that were so routed, counted from the trace's
    /// own issue, route and ATT events (the workload must inject no
    /// faults).
    fn slots_without_foreign_entries(trace: &MemoryTrace, banks: usize) -> (u64, u64) {
        let mut live: Vec<Vec<(ProcId, BlockOffset)>> = vec![Vec::new(); banks];
        let mut offset_of: Vec<BlockOffset> = Vec::new();
        let mut current: Option<(Cycle, bool)> = None;
        let mut proven = 0;
        let mut contended = 0;
        for e in trace.events() {
            match *e {
                TraceEvent::Issue { proc, offset, .. } => {
                    if offset_of.len() <= proc {
                        offset_of.resize(proc + 1, 0);
                    }
                    offset_of[proc] = offset;
                }
                TraceEvent::AttInsert {
                    bank, proc, offset, ..
                } => live[bank].push((proc, offset)),
                TraceEvent::AttExpire {
                    bank, proc, offset, ..
                }
                | TraceEvent::AttRemove {
                    bank, proc, offset, ..
                } => {
                    let i = live[bank]
                        .iter()
                        .position(|&entry| entry == (proc, offset))
                        .expect("removed entry was inserted");
                    live[bank].remove(i);
                }
                TraceEvent::Route { slot, proc, bank } => {
                    if current.is_some_and(|(s, _)| s != slot) {
                        proven += u64::from(!current.unwrap().1);
                        current = None;
                    }
                    let offset = offset_of[proc];
                    let foreign = live[bank].iter().any(|&(q, o)| q != proc && o == offset);
                    contended += u64::from(foreign);
                    let hazard = current.is_some_and(|(_, h)| h) || foreign;
                    current = Some((slot, hazard));
                }
                _ => {}
            }
        }
        (
            proven + current.map_or(0, |(_, hazard)| u64::from(!hazard)),
            contended,
        )
    }

    /// One access of a slot meets a foreign ATT entry while the other
    /// processors' accesses are proven: a read of an offset another
    /// processor is writing, and a second writer deferring under
    /// `EarliestWins`. The one-pass step sends only that access through
    /// the reference body, stays byte-identical to
    /// `Sequential`, counts exactly the slots with no hazardous access,
    /// and counts each sent access under its reason, contended offset.
    #[test]
    fn one_pass_step_falls_back_per_access() {
        // (the second processor's operation on the written block 5,
        // whether it meets the entry as a reader)
        let cases = [
            (Operation::read(5), true),
            (Operation::write(5, vec![9; 4]), false),
        ];
        for (second, reads) in cases {
            let run = |engine: Engine| {
                let cfg = CfmConfig::new(4, 1, 16).unwrap().with_engine(engine);
                let b = cfg.banks();
                let mut m = CfmMachine::builder(cfg)
                    .offsets(8)
                    .priority(PriorityMode::EarliestWins)
                    .trace(true)
                    .build();
                let mut completions = Vec::new();
                for round in 0..3u64 {
                    // Processor 0 starts writing block 5 a slot ahead;
                    // processors 2 and 3 keep private traffic going.
                    m.issue(0, Operation::write(5, vec![round + 1; b])).unwrap();
                    m.step();
                    m.issue(1, second.clone()).unwrap();
                    m.issue(2, Operation::write(2, vec![round + 20; b]))
                        .unwrap();
                    m.issue(3, Operation::read(3)).unwrap();
                    completions.extend(m.run(10_000).expect_idle());
                }
                let memory: Vec<_> = (0..8).map(|o| m.peek_block(o)).collect();
                let slots = (m.parallel_slots(), m.fallbacks());
                (
                    completions,
                    *m.stats(),
                    memory,
                    m.take_trace().unwrap(),
                    slots,
                )
            };
            let seq = run(Engine::Sequential);
            if reads {
                assert!(seq.1.read_restarts > 0, "the read meets the writer's entry");
            } else {
                assert!(seq.1.write_restarts > 0, "the second writer defers");
            }
            let (proven, contended) = slots_without_foreign_entries(&seq.3, seq.2[0].len());
            assert!(proven > 0 && proven < seq.1.cycles, "slots of both kinds");
            assert_eq!(seq.4, (0, Fallbacks::default()), "no proven path");
            let par = run(Engine::Parallel { threads: 1 });
            assert_eq!(seq.0, par.0, "completions");
            assert_eq!(seq.1, par.1, "stats");
            assert_eq!(seq.2, par.2, "memory");
            assert_eq!(seq.3, par.3, "trace");
            assert_eq!(par.4 .0, proven, "proven slots counted exactly");
            assert!(contended > 0);
            assert_eq!(
                par.4 .1,
                Fallbacks {
                    contended_offset: contended,
                    ..Fallbacks::default()
                },
                "each sent access counted once, under its reason"
            );
        }
    }

    #[test]
    fn rotating_disjoint_offsets_are_byte_identical() {
        // Rotating per-round offsets — disjoint within every round but
        // not expressible as a static residue-class footprint. The
        // parallel run must produce byte-identical completions, stats
        // and memory while proving most slots whole.
        let n = 4;
        let offsets = 8;
        let run = |engine: Engine| {
            let cfg = CfmConfig::new(n, 1, 16).unwrap().with_engine(engine);
            let b = cfg.banks();
            let mut m = CfmMachine::builder(cfg).offsets(offsets).build();
            let mut completions = Vec::new();
            for round in 1..5u64 {
                let at = |p: usize| (p + round as usize) % offsets;
                for p in 0..n {
                    m.issue(p, Operation::write(at(p), vec![round; b])).unwrap();
                }
                completions.extend(m.run(10_000).expect_idle());
                for p in 0..n {
                    // Swaps cover the proven read→write transition.
                    m.issue(p, Operation::swap(at(p), vec![round ^ 0xFF; b]))
                        .unwrap();
                }
                completions.extend(m.run(10_000).expect_idle());
                for p in 0..n {
                    m.issue(p, Operation::read(at(p))).unwrap();
                }
                completions.extend(m.run(10_000).expect_idle());
            }
            let memory: Vec<_> = (0..offsets).map(|o| m.peek_block(o)).collect();
            (completions, *m.stats(), memory, m.parallel_slots())
        };
        let seq = run(Engine::Sequential);
        let par = run(Engine::Parallel { threads: 1 });
        assert_eq!(seq.0, par.0, "completions");
        assert_eq!(seq.1, par.1, "stats");
        assert_eq!(seq.2, par.2, "memory");
        assert_eq!(seq.3, 0, "the sequential engine proves no slot");
        assert!(2 * par.3 > seq.1.cycles, "most slots proven whole");
    }

    #[test]
    fn contended_offset_writes_are_byte_identical() {
        // Every processor hammers the same offset: the hazard test must
        // send the contended accesses to the reference body and keep the
        // run byte-identical to sequential.
        let n = 4;
        let run = |engine: Engine| {
            let cfg = CfmConfig::new(n, 1, 16).unwrap().with_engine(engine);
            let b = cfg.banks();
            let mut m = CfmMachine::builder(cfg).offsets(8).build();
            let mut completions = Vec::new();
            for round in 1..4u64 {
                for p in 0..n {
                    m.issue(p, Operation::write(3, vec![round + p as u64; b]))
                        .unwrap();
                }
                completions.extend(m.run(10_000).expect_idle());
            }
            let memory: Vec<_> = (0..8).map(|o| m.peek_block(o)).collect();
            (completions, *m.stats(), memory)
        };
        let seq = run(Engine::Sequential);
        let par = run(Engine::Parallel { threads: 1 });
        assert_eq!(seq.0, par.0, "completions");
        assert_eq!(seq.1, par.1, "stats");
        assert_eq!(seq.2, par.2, "memory");
    }

    /// Drive `engine` slot by slot through rounds of mixed traffic under
    /// dropped and corrupted responses, checking after every step that
    /// [`CfmMachine::delivered`] names exactly the processors whose
    /// `poll` yields a completion, in ascending order. With `restore`,
    /// the machine round-trips through the snapshot byte codec every
    /// third step, so the draining list is rebuilt mid-drain. Returns
    /// the per-step delivered record, the completions, the stats and the
    /// number of restores taken with an operation draining.
    fn drive_delivered(
        engine: Engine,
        restore: bool,
    ) -> (Vec<Vec<ProcId>>, Vec<Completion>, Stats, u32) {
        use crate::fault::FaultEvent;
        let n = 4;
        let cfg = CfmConfig::new(n, 2, 16)
            .unwrap()
            .with_spares(1)
            .unwrap()
            .with_engine(engine);
        let b = cfg.banks();
        let response = |at_slot, kind| FaultEvent { at_slot, kind };
        let mut m = CfmMachine::builder(cfg)
            .offsets(8)
            .fault_plan(FaultPlan::new(vec![
                response(0, FaultKind::DroppedResponse { proc: 1 }),
                response(12, FaultKind::CorruptedResponse { proc: 2 }),
                response(30, FaultKind::DroppedResponse { proc: 0 }),
                response(30, FaultKind::DroppedResponse { proc: 3 }),
            ]))
            .build();
        let mut log = Vec::new();
        let mut completions = Vec::new();
        let mut draining_restores = 0;
        let mut steps = 0u32;
        for round in 0..6u64 {
            for p in 0..n {
                let op = match (p + round as usize) % 3 {
                    0 => Operation::read(p),
                    1 => Operation::write(p, vec![round * 10 + p as u64; b]),
                    _ => Operation::fetch_add(p, p % b, round + 1),
                };
                m.issue(p, op).unwrap();
            }
            while !m.is_idle() {
                m.step();
                steps += 1;
                let named = m.delivered().to_vec();
                let mut polled = Vec::new();
                for p in 0..n {
                    if let Some(c) = m.poll(p) {
                        polled.push(p);
                        completions.push(c);
                    }
                    assert!(m.poll(p).is_none(), "one completion per processor per slot");
                }
                assert_eq!(named, polled, "delivered() after step {steps}");
                log.push(named);
                if restore && steps % 3 == 1 {
                    draining_restores += u32::from(!m.draining.is_empty());
                    let bytes = m.checkpoint().to_bytes();
                    m = crate::snapshot::MachineSnapshot::from_bytes(&bytes)
                        .unwrap()
                        .restore()
                        .unwrap();
                }
                assert!(steps < 10_000, "machine failed to make progress");
            }
        }
        (log, completions, *m.stats(), draining_restores)
    }

    #[test]
    fn delivered_names_exactly_the_polled_processors() {
        let (log, completions, stats, _) = drive_delivered(Engine::Sequential, false);
        assert_eq!(completions.len(), 24);
        assert_eq!(
            stats.dropped_responses, 3,
            "the plan really drops responses"
        );
        assert_eq!(stats.corrupted_responses, 1);
        assert!(
            log.iter().any(|d| d.len() > 1),
            "some slot delivers to several processors"
        );
        for engine in [Engine::Sequential, Engine::Parallel { threads: 1 }] {
            for restore in [false, true] {
                let run = drive_delivered(engine, restore);
                assert_eq!(run.0, log, "{engine:?}, restore {restore}");
                assert_eq!(run.1, completions, "{engine:?}, restore {restore}");
                assert_eq!(run.2, stats, "{engine:?}, restore {restore}");
                if restore {
                    assert!(run.3 > 0, "a restore landed mid-drain ({engine:?})");
                }
            }
        }
    }
}
