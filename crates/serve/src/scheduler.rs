//! Deficit round-robin tenant scheduling, extended with QoS:
//! criticality classes and per-bank bandwidth budgets.
//!
//! Every event-loop slot the service asks the scheduler which tenant's
//! queue to dequeue from next, once per idle processor. The scheduler
//! visits tenants in a fixed circular order; at the start of a tenant's
//! turn its deficit is replenished by its weight (the quantum), each
//! dequeued operation costs one unit, and the turn ends when the deficit
//! or the queue is exhausted. A tenant found with an empty queue
//! forfeits its accumulated deficit — the classic DRR anti-burst rule,
//! which is what makes the fairness bound *windowed* rather than
//! amortised-forever: a tenant cannot hoard credit while idle and then
//! monopolise the machine.
//!
//! **Fairness bound.** While every tenant stays backlogged, any window
//! of `W` consecutive dequeues grants tenant `t` at least
//! `⌊W · w_t / Σw⌋ − w_max` of them. `docs/service.md` §3 derives it,
//! and `cfm-verify serve` asserts it on the slot-clock twin
//! (`serve/fairness`) with one tenant driving pure hot-spot traffic.
//!
//! **QoS extension.** [`QosScheduler`] layers two policies on top of
//! plain DRR, both configured per tenant through
//! [`crate::TenantSpec`]:
//!
//! - *Criticality classes:* tenants are split into a latency-critical
//!   ring and a best-effort ring, each running its own DRR. Every
//!   dequeue drains the critical ring first; best-effort deficit is
//!   only consulted when no critical tenant can issue. A critical
//!   tenant's queueing delay is therefore bounded by its own class —
//!   a best-effort flood cannot push it back — while the DRR fairness
//!   bound still holds *within* each class. With every tenant
//!   best-effort (the default), the schedule is identical to plain
//!   DRR.
//! - *Per-bank budgets:* a tenant with `bank_budget = k` may issue at
//!   most `k` operations per accounting window of `W` slots. In the
//!   CFM schedule every block operation touches every bank exactly
//!   once, so "k accesses into each bank per window" and "k issues per
//!   window" are the same cap; the scheduler enforces the latter. A
//!   tenant at its budget is treated as having no work — it is
//!   *deferred*, never rejected — and (like an idle tenant) forfeits
//!   its banked deficit, so throttling cannot be weaponised into a
//!   post-window burst. Deferrals are counted per tenant for the
//!   metrics.

/// Deficit round-robin over `n` tenants with per-tenant quanta.
#[derive(Debug, Clone)]
pub struct DrrScheduler {
    quantum: Vec<u64>,
    deficit: Vec<u64>,
    cursor: usize,
    turn_started: bool,
}

impl DrrScheduler {
    /// A scheduler serving tenants with the given quanta (all ≥ 1).
    ///
    /// # Panics
    /// If any quantum is zero.
    pub fn new(quanta: Vec<u64>) -> Self {
        assert!(
            quanta.iter().all(|&q| q >= 1),
            "DRR quanta must be >= 1 (a zero-weight tenant would starve)"
        );
        DrrScheduler {
            deficit: vec![0; quanta.len()],
            quantum: quanta,
            cursor: 0,
            turn_started: false,
        }
    }

    /// The tenant to dequeue from next, or `None` if no tenant has work.
    /// `has_work(t)` reports whether tenant `t`'s queue is non-empty;
    /// each `Some(t)` returned must be matched by the caller actually
    /// dequeuing one operation from `t`.
    pub fn next<F: FnMut(usize) -> bool>(&mut self, mut has_work: F) -> Option<usize> {
        let n = self.quantum.len();
        if n == 0 {
            return None;
        }
        let mut empty_streak = 0;
        loop {
            let t = self.cursor;
            if !has_work(t) {
                self.deficit[t] = 0;
                self.end_turn();
                empty_streak += 1;
                if empty_streak >= n {
                    return None;
                }
                continue;
            }
            empty_streak = 0;
            if !self.turn_started {
                self.deficit[t] += self.quantum[t];
                self.turn_started = true;
            }
            if self.deficit[t] == 0 {
                self.end_turn();
                continue;
            }
            self.deficit[t] -= 1;
            return Some(t);
        }
    }

    fn end_turn(&mut self) {
        self.cursor = (self.cursor + 1) % self.quantum.len();
        self.turn_started = false;
    }
}

/// One tenant's QoS parameters as the scheduler sees them.
#[derive(Debug, Clone)]
pub struct QosTenant {
    /// DRR quantum (≥ 1).
    pub quantum: u64,
    /// Whether the tenant rides the latency-critical ring.
    pub critical: bool,
    /// Per-window issue cap (= per-bank access cap), `None` if
    /// unregulated.
    pub bank_budget: Option<u32>,
}

/// Criticality-aware, budget-regulated scheduler: two DRR rings plus
/// per-tenant windowed issue accounting. See the module docs for the
/// policy; construction happens in [`crate::Service::start`] from the
/// roster's [`crate::TenantSpec`]s.
#[derive(Debug, Clone)]
pub struct QosScheduler {
    /// Ring membership: `rings[0]` = latency-critical tenant IDs,
    /// `rings[1]` = best-effort tenant IDs (in roster order).
    rings: [Vec<usize>; 2],
    /// One DRR per ring, indexed by ring position.
    drr: [DrrScheduler; 2],
    /// Per-tenant budget (`u32::MAX` when unregulated — never reached,
    /// since a window is at most `usize` slots of at most one issue
    /// per lane).
    budget: Vec<u32>,
    /// Issues charged against the budget in the current window.
    issued: Vec<u32>,
    /// Deferral events (a budget-exhausted tenant skipped while it had
    /// work) since the last [`QosScheduler::take_deferrals`].
    deferrals: Vec<u64>,
    /// Slots per accounting window (≥ 1).
    window: usize,
    /// Slots elapsed in the current window.
    slot: usize,
}

impl QosScheduler {
    /// A scheduler over `tenants` with budget windows of `window` slots.
    ///
    /// # Panics
    /// If any quantum is zero or `window` is zero.
    pub fn new(tenants: &[QosTenant], window: usize) -> Self {
        assert!(window >= 1, "budget window must be >= 1 slot");
        let mut rings: [Vec<usize>; 2] = [Vec::new(), Vec::new()];
        for (t, spec) in tenants.iter().enumerate() {
            rings[usize::from(!spec.critical)].push(t);
        }
        let drr = [0, 1].map(|ring| {
            DrrScheduler::new(
                rings[ring]
                    .iter()
                    .map(|&t| tenants[t].quantum)
                    .collect::<Vec<_>>(),
            )
        });
        QosScheduler {
            rings,
            drr,
            budget: tenants
                .iter()
                .map(|t| t.bank_budget.unwrap_or(u32::MAX))
                .collect(),
            issued: vec![0; tenants.len()],
            deferrals: vec![0; tenants.len()],
            window,
            slot: 0,
        }
    }

    /// The tenant to dequeue from next, or `None` if no tenant may
    /// issue this slot (no work anywhere, or everything backlogged is
    /// out of budget). `has_work(t)` reports whether tenant `t`'s queue
    /// is non-empty; each `Some(t)` must be matched by an actual
    /// dequeue — the issue is charged against `t`'s budget here.
    pub fn next<F: FnMut(usize) -> bool>(&mut self, mut has_work: F) -> Option<usize> {
        let QosScheduler {
            rings,
            drr,
            budget,
            issued,
            deferrals,
            ..
        } = self;
        for (ring, members) in rings.iter().enumerate() {
            if members.is_empty() {
                continue;
            }
            let picked = drr[ring].next(|pos| {
                let t = members[pos];
                if !has_work(t) {
                    return false;
                }
                if issued[t] >= budget[t] {
                    // Backlogged but out of budget: deferred, and (via
                    // DRR's empty-queue rule) its deficit is forfeited.
                    deferrals[t] += 1;
                    return false;
                }
                true
            });
            if let Some(pos) = picked {
                let t = members[pos];
                issued[t] += 1;
                return Some(t);
            }
        }
        None
    }

    /// Advance one machine slot; resets every tenant's issue count when
    /// the accounting window rolls over.
    pub fn on_slot(&mut self) {
        self.slot += 1;
        if self.slot >= self.window {
            self.slot = 0;
            self.issued.fill(0);
        }
    }

    /// Drain the per-tenant deferral counters accumulated since the
    /// last call, invoking `record(tenant, count)` for each non-zero
    /// one (the service folds them into its metrics; no allocation on
    /// the event loop's hot path).
    pub fn flush_deferrals<F: FnMut(usize, u64)>(&mut self, mut record: F) {
        for (t, d) in self.deferrals.iter_mut().enumerate() {
            if *d > 0 {
                record(t, *d);
                *d = 0;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Run `rounds` dequeues against queues with effectively infinite
    /// backlogs and count each tenant's grants.
    fn grants(quanta: Vec<u64>, rounds: usize) -> Vec<usize> {
        let n = quanta.len();
        let mut sched = DrrScheduler::new(quanta);
        let mut counts = vec![0; n];
        for _ in 0..rounds {
            let t = sched.next(|_| true).expect("backlogged tenants");
            counts[t] += 1;
        }
        counts
    }

    #[test]
    fn equal_weights_share_equally() {
        assert_eq!(grants(vec![1, 1, 1], 300), vec![100, 100, 100]);
    }

    #[test]
    fn weighted_shares_are_proportional() {
        // Weights 1:3 → shares 25%:75%, within one quantum.
        let counts = grants(vec![1, 3], 400);
        assert!(counts[0].abs_diff(100) <= 3, "counts {counts:?}");
        assert!(counts[1].abs_diff(300) <= 3, "counts {counts:?}");
    }

    #[test]
    fn empty_tenant_is_skipped_and_forfeits_deficit() {
        let mut sched = DrrScheduler::new(vec![4, 1]);
        // Tenant 0 idle: every grant goes to tenant 1.
        for _ in 0..10 {
            assert_eq!(sched.next(|t| t == 1), Some(1));
        }
        // Tenant 0 becomes backlogged: it gets its quantum per rotation
        // but no banked credit from the idle period.
        let mut counts = [0usize; 2];
        for _ in 0..50 {
            counts[sched.next(|_| true).unwrap()] += 1;
        }
        assert!(counts[0] <= 4 * counts[1] + 4, "counts {counts:?}");
    }

    #[test]
    fn no_work_returns_none_and_later_recovers() {
        let mut sched = DrrScheduler::new(vec![1, 2]);
        assert_eq!(sched.next(|_| false), None);
        assert!(sched.next(|_| true).is_some());
    }

    #[test]
    fn backlogged_tenant_never_starves_under_hot_spot() {
        // Tenant 0 floods; tenant 1 (weight 1 of 9 total) still gets at
        // least floor(W/9) − w_max grants in any window.
        let counts = grants(vec![8, 1], 900);
        assert!(counts[1] >= 900 / 9 - 8, "counts {counts:?}");
    }

    #[test]
    #[should_panic(expected = "quanta must be >= 1")]
    fn zero_quantum_is_rejected() {
        let _ = DrrScheduler::new(vec![1, 0]);
    }

    fn qos(tenants: &[(u64, bool, Option<u32>)], window: usize) -> QosScheduler {
        QosScheduler::new(
            &tenants
                .iter()
                .map(|&(quantum, critical, bank_budget)| QosTenant {
                    quantum,
                    critical,
                    bank_budget,
                })
                .collect::<Vec<_>>(),
            window,
        )
    }

    #[test]
    fn all_best_effort_matches_plain_drr() {
        // With no critical tenants and no budgets the QoS scheduler must
        // produce exactly the plain DRR sequence.
        let mut plain = DrrScheduler::new(vec![2, 1, 3]);
        let mut qos = qos(&[(2, false, None), (1, false, None), (3, false, None)], 32);
        for _ in 0..200 {
            assert_eq!(qos.next(|_| true), plain.next(|_| true));
        }
    }

    #[test]
    fn critical_ring_preempts_best_effort() {
        // Tenant 1 is critical with weight 1; tenant 0 floods with
        // weight 8. While tenant 1 is backlogged it gets *every* grant.
        let mut sched = qos(&[(8, false, None), (1, true, None)], 32);
        for _ in 0..50 {
            assert_eq!(sched.next(|_| true), Some(1));
        }
        // Critical tenant goes idle: best-effort work flows again.
        assert_eq!(sched.next(|t| t == 0), Some(0));
    }

    #[test]
    fn budget_defers_within_window_and_recovers_after() {
        // Tenant 0 capped at 2 issues per 4-slot window; tenant 1
        // unregulated. Within one window tenant 0 gets exactly 2 grants
        // no matter how often it is offered.
        let mut sched = qos(&[(1, false, Some(2)), (1, false, None)], 4);
        let mut grants0 = 0;
        for _ in 0..12 {
            if sched.next(|_| true) == Some(0) {
                grants0 += 1;
            }
        }
        assert_eq!(grants0, 2, "budget cap must bind within the window");

        // Roll the window: the cap resets and tenant 0 issues again.
        for _ in 0..4 {
            sched.on_slot();
        }
        assert_eq!(sched.next(|t| t == 0), Some(0));
    }

    #[test]
    fn exhausted_budget_with_no_other_work_yields_none() {
        // A budget-exhausted tenant must not be granted, even when it is
        // the only tenant with work — the slot goes unused (the event
        // loop keeps stepping so the window can roll).
        let mut sched = qos(&[(1, false, Some(1)), (1, false, None)], 8);
        assert_eq!(sched.next(|t| t == 0), Some(0));
        assert_eq!(sched.next(|t| t == 0), None);
    }

    #[test]
    fn deferrals_are_counted_and_flushed() {
        let mut sched = qos(&[(1, false, Some(1)), (1, false, None)], 8);
        assert_eq!(sched.next(|_| true), Some(0));
        // Tenant 0 is now out of budget; every subsequent offer defers.
        for _ in 0..3 {
            assert_eq!(sched.next(|_| true), Some(1));
        }
        let mut flushed = Vec::new();
        sched.flush_deferrals(|t, d| flushed.push((t, d)));
        assert_eq!(flushed.len(), 1);
        assert_eq!(flushed[0].0, 0);
        assert!(flushed[0].1 >= 3, "deferrals {flushed:?}");
        // Flush drains: a second flush reports nothing.
        let mut again = Vec::new();
        sched.flush_deferrals(|t, d| again.push((t, d)));
        assert!(again.is_empty());
    }

    #[test]
    #[should_panic(expected = "budget window must be >= 1")]
    fn zero_window_is_rejected() {
        let _ = qos(&[(1, false, None)], 0);
    }
}
