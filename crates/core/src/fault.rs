//! Deterministic fault injection and the degraded-mode bank map.
//!
//! The paper's conflict-freedom proof assumes a fault-free machine: every
//! slot's permutation `(t + c·p) mod b` presumes all `b` banks and every
//! omega switch are healthy. This module makes the failure modes *first
//! class* and *deterministic*: a seeded [`FaultPlan`] schedules faults at
//! exact time slots, the machines consult a [`FaultState`] every slot,
//! and a permanent bank failure triggers graceful degradation through the
//! [`BankMap`] — an injective logical→physical bank table that remaps the
//! dead bank onto a configured spare (or, with no spare left, masks it).
//!
//! Everything is reproducible: the same seed and parameters generate the
//! same plan, the machines are deterministic, so a chaos run that found a
//! violation replays exactly. `cfm-verify chaos` soaks the standard
//! workloads under generated plans and asserts the degraded-mode
//! guarantees (see `docs/fault-model.md`).

use std::collections::VecDeque;
use std::fmt;

use crate::{BankId, Cycle, ProcId};

/// Writer-id sentinel recorded for a word served by a masked (dead,
/// spare-less) bank: the tear checker skips it — the word is *lost*, not
/// torn (see `docs/fault-model.md` on what masking deliberately gives up).
pub const MASKED_WRITER: u64 = u64::MAX;

/// SplitMix64 — the tiny, high-quality seeding PRNG (Steele et al.),
/// implemented inline so `cfm-core` stays dependency-free. Deterministic
/// plan generation is the whole point: no global RNG state is consulted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// The next 64 pseudo-random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A pseudo-random value in `0..bound` (`bound` must be non-zero).
    pub fn below(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0);
        self.next_u64() % bound
    }
}

/// One kind of injected fault — the taxonomy of `docs/fault-model.md`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// A memory bank dies and never recovers; the machine must remap it
    /// onto a spare (or mask it) to keep serving block accesses.
    PermanentBankFailure {
        /// The logical bank that fails.
        bank: BankId,
    },
    /// A bank errors transiently: accesses fail until `repair_slot`, then
    /// the bank is healthy again. Machines recover with bounded retry and
    /// exponential slot-backoff.
    TransientBankError {
        /// The logical bank that errors.
        bank: BankId,
        /// First slot at which the bank serves accesses again.
        repair_slot: Cycle,
    },
    /// An omega switch latches in one state (stuck-at): the physical
    /// switch walk diverges from the arithmetic schedule, which the
    /// net-route cross-check detector must catch.
    StuckSwitch {
        /// Switch column (stage).
        column: u32,
        /// Switch index within the column.
        switch: usize,
        /// The state the switch is stuck in (0 = straight, 1 = crossed).
        state: u8,
    },
    /// The response of the processor's next completing operation is lost
    /// on the return path; the memory controller retransmits it one
    /// AT-space period later.
    DroppedResponse {
        /// The processor whose response is dropped.
        proc: ProcId,
    },
    /// The response of the processor's next completing operation is
    /// corrupted in transit; ECC detects it and the buffered response is
    /// retransmitted one period later (the data in the banks is intact).
    CorruptedResponse {
        /// The processor whose response is corrupted.
        proc: ProcId,
    },
}

impl FaultKind {
    /// Stable lowercase label used in reports, traces and the chaos CI
    /// gate's per-kind coverage metrics.
    pub fn label(&self) -> &'static str {
        match self {
            FaultKind::PermanentBankFailure { .. } => "permanent-bank-failure",
            FaultKind::TransientBankError { .. } => "transient-bank-error",
            FaultKind::StuckSwitch { .. } => "stuck-switch",
            FaultKind::DroppedResponse { .. } => "dropped-response",
            FaultKind::CorruptedResponse { .. } => "corrupted-response",
        }
    }
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultKind::PermanentBankFailure { bank } => {
                write!(f, "permanent failure of bank {bank}")
            }
            FaultKind::TransientBankError { bank, repair_slot } => {
                write!(f, "transient error on bank {bank} until slot {repair_slot}")
            }
            FaultKind::StuckSwitch {
                column,
                switch,
                state,
            } => write!(f, "switch {switch} in column {column} stuck at {state}"),
            FaultKind::DroppedResponse { proc } => {
                write!(f, "response to processor {proc} dropped")
            }
            FaultKind::CorruptedResponse { proc } => {
                write!(f, "response to processor {proc} corrupted")
            }
        }
    }
}

/// A fault scheduled to strike at an exact time slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultEvent {
    /// The slot at which the fault activates.
    pub at_slot: Cycle,
    /// What goes wrong.
    pub kind: FaultKind,
}

/// Parameters for seeded plan generation — how many faults of each kind
/// to schedule within a slot horizon, for a machine shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlanParams {
    /// Logical banks of the target machine.
    pub banks: usize,
    /// Processors of the target machine.
    pub processors: usize,
    /// Faults are scheduled in slots `1..horizon`.
    pub horizon: Cycle,
    /// Permanent bank failures to schedule.
    pub permanent: usize,
    /// Transient bank errors to schedule.
    pub transient: usize,
    /// Longest transient repair window, in slots (bounds retry work).
    pub max_repair: u64,
    /// Dropped/corrupted responses to schedule (alternating kinds).
    pub responses: usize,
    /// Stuck omega switches to schedule (applied by the chaos harness to
    /// the network under test, not by the memory machines).
    pub stuck: usize,
}

/// A deterministic, slot-scheduled fault plan: the full script of what
/// will go wrong, decided before the run starts.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    seed: u64,
    /// Events sorted by activation slot.
    events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// The empty plan — a healthy machine.
    pub fn empty() -> Self {
        FaultPlan::default()
    }

    /// A plan from explicit events (sorted by activation slot; ties keep
    /// their given order).
    pub fn new(mut events: Vec<FaultEvent>) -> Self {
        events.sort_by_key(|e| e.at_slot);
        FaultPlan { seed: 0, events }
    }

    /// A plan with a single fault.
    pub fn single(at_slot: Cycle, kind: FaultKind) -> Self {
        FaultPlan::new(vec![FaultEvent { at_slot, kind }])
    }

    /// Generate a plan from a seed: same seed and parameters, same plan.
    /// Bank-targeting faults pick distinct banks where possible so a
    /// permanent failure and a transient error do not collide.
    pub fn generate(seed: u64, params: &PlanParams) -> Self {
        let mut rng = SplitMix64::new(seed);
        let mut events = Vec::new();
        let horizon = params.horizon.max(2);
        let slot = |rng: &mut SplitMix64| 1 + rng.below(horizon - 1);
        let mut used_banks = Vec::new();
        let pick_bank = |rng: &mut SplitMix64, used: &mut Vec<BankId>| {
            let b = params.banks.max(1) as u64;
            for _ in 0..8 {
                let k = rng.below(b) as BankId;
                if !used.contains(&k) {
                    used.push(k);
                    return k;
                }
            }
            rng.below(b) as BankId
        };
        for _ in 0..params.permanent {
            let bank = pick_bank(&mut rng, &mut used_banks);
            events.push(FaultEvent {
                at_slot: slot(&mut rng),
                kind: FaultKind::PermanentBankFailure { bank },
            });
        }
        for _ in 0..params.transient {
            let bank = pick_bank(&mut rng, &mut used_banks);
            let at_slot = slot(&mut rng);
            let window = 1 + rng.below(params.max_repair.max(1));
            events.push(FaultEvent {
                at_slot,
                kind: FaultKind::TransientBankError {
                    bank,
                    repair_slot: at_slot + window,
                },
            });
        }
        for i in 0..params.responses {
            let proc = rng.below(params.processors.max(1) as u64) as ProcId;
            let kind = if i % 2 == 0 {
                FaultKind::DroppedResponse { proc }
            } else {
                FaultKind::CorruptedResponse { proc }
            };
            events.push(FaultEvent {
                at_slot: slot(&mut rng),
                kind,
            });
        }
        for _ in 0..params.stuck {
            // Column/switch indices are reduced modulo the actual network
            // shape by the harness that applies them.
            events.push(FaultEvent {
                at_slot: slot(&mut rng),
                kind: FaultKind::StuckSwitch {
                    column: rng.below(8) as u32,
                    switch: rng.below(params.banks.max(2) as u64 / 2) as usize,
                    state: (rng.next_u64() & 1) as u8,
                },
            });
        }
        events.sort_by_key(|e| e.at_slot);
        FaultPlan { seed, events }
    }

    /// The seed the plan was generated from (0 for explicit plans).
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The scheduled events, sorted by activation slot.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Whether the plan schedules no faults.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Rebuild a plan from snapshot parts: the recorded seed and the
    /// already-sorted event list, verbatim.
    pub(crate) fn from_parts(seed: u64, mut events: Vec<FaultEvent>) -> Self {
        events.sort_by_key(|e| e.at_slot);
        FaultPlan { seed, events }
    }

    /// Number of scheduled events whose kind label equals `label` — the
    /// per-kind coverage counter of the chaos CI gate.
    pub fn count_kind(&self, label: &str) -> usize {
        self.events
            .iter()
            .filter(|e| e.kind.label() == label)
            .count()
    }
}

/// Live fault state a machine advances slot by slot: scheduled events
/// activate at their slot, transient errors expire at their repair slot,
/// response faults wait for the targeted processor's next completion.
#[derive(Debug, Clone, Default)]
pub struct FaultState {
    plan: FaultPlan,
    /// Index of the next un-activated plan event.
    next: usize,
    /// Per logical bank: `Some(repair_slot)` while a transient error is
    /// active.
    transient_until: Vec<Option<Cycle>>,
    /// Activated response faults per processor, consumed FIFO at the
    /// processor's next completion delivery.
    pending_responses: Vec<VecDeque<FaultKind>>,
}

impl FaultState {
    /// Fresh state for a plan targeting a machine with `banks` logical
    /// banks and `processors` processors.
    pub fn new(plan: FaultPlan, banks: usize, processors: usize) -> Self {
        FaultState {
            plan,
            next: 0,
            transient_until: vec![None; banks],
            pending_responses: vec![VecDeque::new(); processors],
        }
    }

    /// The plan being executed.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Activate every event due at `slot`, returning them for the machine
    /// to act on (and trace). Transient errors and response faults are
    /// also latched internally for [`FaultState::transient_fault`] /
    /// [`FaultState::take_response_fault`].
    pub fn advance(&mut self, slot: Cycle) -> Vec<FaultKind> {
        let mut fired = Vec::new();
        while let Some(ev) = self.plan.events.get(self.next) {
            if ev.at_slot > slot {
                break;
            }
            match ev.kind {
                FaultKind::TransientBankError { bank, repair_slot } => {
                    if let Some(t) = self.transient_until.get_mut(bank) {
                        *t = Some(match *t {
                            Some(existing) => existing.max(repair_slot),
                            None => repair_slot,
                        });
                    }
                }
                FaultKind::DroppedResponse { proc } | FaultKind::CorruptedResponse { proc } => {
                    if let Some(q) = self.pending_responses.get_mut(proc) {
                        q.push_back(ev.kind);
                    }
                }
                FaultKind::PermanentBankFailure { .. } | FaultKind::StuckSwitch { .. } => {}
            }
            fired.push(ev.kind);
            self.next += 1;
        }
        fired
    }

    /// Whether a transient error is active on `bank` at `slot` (repair
    /// slots are exclusive: the bank serves again *at* its repair slot).
    pub fn transient_fault(&self, slot: Cycle, bank: BankId) -> bool {
        self.transient_until
            .get(bank)
            .copied()
            .flatten()
            .is_some_and(|repair| slot < repair)
    }

    /// Consume the oldest activated response fault targeting `proc`, if
    /// any — called when a completion is about to be delivered.
    pub fn take_response_fault(&mut self, proc: ProcId) -> Option<FaultKind> {
        self.pending_responses.get_mut(proc)?.pop_front()
    }

    /// The mutable progress of the state, for checkpointing: the next
    /// un-activated event index, the transient latches, and the pending
    /// response-fault queues.
    #[allow(clippy::type_complexity)] // a one-shot snapshot view
    pub(crate) fn snapshot_parts(&self) -> (usize, &[Option<Cycle>], &[VecDeque<FaultKind>]) {
        (self.next, &self.transient_until, &self.pending_responses)
    }

    /// Rebuild a state from snapshot parts, verbatim.
    pub(crate) fn from_parts(
        plan: FaultPlan,
        next: usize,
        transient_until: Vec<Option<Cycle>>,
        pending_responses: Vec<VecDeque<FaultKind>>,
    ) -> Self {
        FaultState {
            plan,
            next,
            transient_until,
            pending_responses,
        }
    }
}

/// What [`BankMap::retire`] did with a failed bank.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RetireAction {
    /// The logical bank was remapped onto a spare physical bank; the
    /// machine must copy the retired bank's words to the spare.
    Remapped {
        /// Physical bank retired.
        old: usize,
        /// Spare physical bank now serving the logical bank.
        new: usize,
    },
    /// No spare was left: the logical bank is masked. The schedule keeps
    /// its `b`-slot period; injections to the masked bank are skipped and
    /// that word of every block is lost (degraded mode).
    Masked {
        /// Physical bank retired.
        old: usize,
    },
    /// The logical bank was already dead; nothing changed.
    AlreadyDead,
}

/// A witness that two live logical banks map to one physical bank — the
/// condition that would silently re-introduce memory conflicts, which the
/// chaos injectivity detector exists to catch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MapConflict {
    /// First logical bank.
    pub logical_a: BankId,
    /// Second logical bank.
    pub logical_b: BankId,
    /// The physical bank both map to.
    pub physical: usize,
}

impl fmt::Display for MapConflict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "logical banks {} and {} both map to physical bank {}",
            self.logical_a, self.logical_b, self.physical
        )
    }
}

/// Injective logical→physical bank map with configured spares.
///
/// The AT-space schedule stays expressed over *logical* banks — per-slot
/// injectivity of `(t + c·p) mod b` is untouched by reconfiguration —
/// while this table picks the physical bank that serves each logical
/// one. Because [`BankMap::retire`] only ever moves a logical bank onto
/// a *free* spare, the composed map `slot → logical → physical` remains
/// injective by construction; [`BankMap::check_injective`] turns that
/// "by construction" into a machine-checked fact after every remap.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BankMap {
    /// `map[logical] = Some(physical)`, `None` once masked.
    map: Vec<Option<usize>>,
    /// Physical indices of unused spare banks (lowest first).
    free_spares: Vec<usize>,
    /// Total physical banks (= logical + configured spares).
    physical: usize,
}

impl BankMap {
    /// The identity map over `logical` banks with `spares` spare physical
    /// banks standing by (physical banks `logical..logical + spares`).
    pub fn new(logical: usize, spares: usize) -> Self {
        BankMap {
            map: (0..logical).map(Some).collect(),
            free_spares: (logical..logical + spares).collect(),
            physical: logical + spares,
        }
    }

    /// Total physical banks, spares included.
    pub fn physical_banks(&self) -> usize {
        self.physical
    }

    /// The physical bank serving `logical`, or `None` once masked.
    pub fn phys(&self, logical: BankId) -> Option<usize> {
        self.map.get(logical).copied().flatten()
    }

    /// Whether `logical` is masked (dead with no spare).
    pub fn is_masked(&self, logical: BankId) -> bool {
        self.phys(logical).is_none()
    }

    /// Whether any bank has been remapped or masked.
    pub fn is_degraded(&self) -> bool {
        self.map.iter().enumerate().any(|(l, p)| *p != Some(l))
    }

    /// Retire the physical bank currently serving `logical`: remap onto
    /// the lowest free spare if one exists, otherwise mask the bank.
    pub fn retire(&mut self, logical: BankId) -> RetireAction {
        let Some(slot) = self.map.get_mut(logical) else {
            return RetireAction::AlreadyDead;
        };
        let Some(old) = *slot else {
            return RetireAction::AlreadyDead;
        };
        if self.free_spares.is_empty() {
            *slot = None;
            RetireAction::Masked { old }
        } else {
            let new = self.free_spares.remove(0);
            *slot = Some(new);
            RetireAction::Remapped { old, new }
        }
    }

    /// Prove the live part of the map injective, or return the colliding
    /// pair — the post-remap detector of `cfm-verify chaos`.
    pub fn check_injective(&self) -> Result<(), MapConflict> {
        let mut owner: Vec<Option<BankId>> = vec![None; self.physical];
        for (logical, phys) in self.map.iter().enumerate() {
            let Some(p) = phys else { continue };
            if let Some(earlier) = owner[*p] {
                return Err(MapConflict {
                    logical_a: earlier,
                    logical_b: logical,
                    physical: *p,
                });
            }
            owner[*p] = Some(logical);
        }
        Ok(())
    }

    /// The raw table and free-spare list, for checkpointing.
    pub(crate) fn parts(&self) -> (&[Option<usize>], &[usize]) {
        (&self.map, &self.free_spares)
    }

    /// Rebuild a map from snapshot parts, verbatim. Injectivity is *not*
    /// checked here — restore proves it explicitly so an aliased map is
    /// a typed refusal.
    pub(crate) fn from_parts(
        map: Vec<Option<usize>>,
        free_spares: Vec<usize>,
        physical: usize,
    ) -> Self {
        BankMap {
            map,
            free_spares,
            physical,
        }
    }

    /// Fault-injection hook for the chaos self-tests: force `logical` to
    /// map to `physical` regardless of who else uses it. An "undetected
    /// bank death" corrupts the map exactly like this — the injectivity
    /// detector must refuse to certify the result.
    pub fn inject_alias(&mut self, logical: BankId, physical: usize) {
        if let Some(slot) = self.map.get_mut(logical) {
            *slot = Some(physical);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_is_deterministic_and_spreads() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        let xs: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        assert_eq!(xs, ys);
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), xs.len(), "collisions in 8 draws");
    }

    #[test]
    fn generated_plans_are_reproducible_and_cover_kinds() {
        let params = PlanParams {
            banks: 8,
            processors: 4,
            horizon: 200,
            permanent: 1,
            transient: 2,
            max_repair: 16,
            responses: 2,
            stuck: 1,
        };
        let a = FaultPlan::generate(7, &params);
        let b = FaultPlan::generate(7, &params);
        assert_eq!(a, b);
        assert_eq!(a.count_kind("permanent-bank-failure"), 1);
        assert_eq!(a.count_kind("transient-bank-error"), 2);
        assert_eq!(a.count_kind("stuck-switch"), 1);
        assert_eq!(
            a.count_kind("dropped-response") + a.count_kind("corrupted-response"),
            2
        );
        assert!(a.events().windows(2).all(|w| w[0].at_slot <= w[1].at_slot));
    }

    #[test]
    fn fault_state_latches_and_expires_transients() {
        let plan = FaultPlan::single(
            5,
            FaultKind::TransientBankError {
                bank: 2,
                repair_slot: 9,
            },
        );
        let mut st = FaultState::new(plan, 4, 2);
        assert!(st.advance(4).is_empty());
        assert!(!st.transient_fault(4, 2));
        let fired = st.advance(5);
        assert_eq!(fired.len(), 1);
        assert!(st.transient_fault(5, 2));
        assert!(st.transient_fault(8, 2));
        assert!(!st.transient_fault(9, 2), "repair slot is exclusive");
        assert!(!st.transient_fault(5, 3), "other banks unaffected");
    }

    #[test]
    fn response_faults_queue_per_processor() {
        let plan = FaultPlan::new(vec![
            FaultEvent {
                at_slot: 3,
                kind: FaultKind::DroppedResponse { proc: 1 },
            },
            FaultEvent {
                at_slot: 3,
                kind: FaultKind::CorruptedResponse { proc: 1 },
            },
        ]);
        let mut st = FaultState::new(plan, 4, 2);
        st.advance(3);
        assert_eq!(st.take_response_fault(0), None);
        assert_eq!(
            st.take_response_fault(1),
            Some(FaultKind::DroppedResponse { proc: 1 })
        );
        assert_eq!(
            st.take_response_fault(1),
            Some(FaultKind::CorruptedResponse { proc: 1 })
        );
        assert_eq!(st.take_response_fault(1), None);
    }

    #[test]
    fn bank_map_remaps_onto_spare_then_masks() {
        let mut m = BankMap::new(4, 1);
        assert!(!m.is_degraded());
        assert_eq!(m.phys(2), Some(2));
        assert_eq!(m.retire(2), RetireAction::Remapped { old: 2, new: 4 });
        assert_eq!(m.phys(2), Some(4));
        assert!(m.is_degraded());
        assert_eq!(m.check_injective(), Ok(()));
        // Second failure: no spare left — masked.
        assert_eq!(m.retire(0), RetireAction::Masked { old: 0 });
        assert!(m.is_masked(0));
        assert_eq!(m.retire(0), RetireAction::AlreadyDead);
        assert_eq!(m.check_injective(), Ok(()));
    }

    #[test]
    fn injectivity_detector_names_the_alias() {
        let mut m = BankMap::new(4, 1);
        m.inject_alias(3, 1);
        let w = m.check_injective().unwrap_err();
        assert_eq!(
            w,
            MapConflict {
                logical_a: 1,
                logical_b: 3,
                physical: 1
            }
        );
        assert_eq!(
            w.to_string(),
            "logical banks 1 and 3 both map to physical bank 1"
        );
    }

    #[test]
    fn fault_kind_labels_are_stable() {
        assert_eq!(
            FaultKind::PermanentBankFailure { bank: 0 }.label(),
            "permanent-bank-failure"
        );
        assert_eq!(
            FaultKind::TransientBankError {
                bank: 0,
                repair_slot: 1
            }
            .label(),
            "transient-bank-error"
        );
        assert_eq!(
            FaultKind::StuckSwitch {
                column: 0,
                switch: 0,
                state: 1
            }
            .label(),
            "stuck-switch"
        );
        assert_eq!(
            FaultKind::DroppedResponse { proc: 0 }.label(),
            "dropped-response"
        );
        assert_eq!(
            FaultKind::CorruptedResponse { proc: 0 }.label(),
            "corrupted-response"
        );
    }
}
