//! The static conflict-freedom verifier for AT-space schedules (§3).
//!
//! For every swept configuration `(n, c)` this module *proves*, by
//! exhaustive enumeration over one schedule period (which the
//! periodicity check extends to all time):
//!
//! * **injectivity** — `bank_for(t, ·)` assigns distinct banks to
//!   distinct processors in every slot, i.e. the AT-space partition is
//!   mutually exclusive and no bank conflict can occur;
//! * **round-trip** — `proc_for` inverts `bank_for`, so address-path
//!   ownership is well defined;
//! * **rejection of misconfiguration** — the neighbouring bank counts
//!   `b = c·n ∓ 1` are *refuted* with an explicit witness (a colliding
//!   `(slot, proc, proc′, bank)` or an orphan address path), proving the
//!   checker does not vacuously pass;
//! * **network realization** — for power-of-two `b`, the synchronous
//!   omega's precomputed switch states realize a conflict-free
//!   permutation equal to the uniform shift in every slot, and the
//!   partially synchronous network keeps canonical clusters exclusive
//!   while the checker detects the contention its sharing introduces;
//! * **slot sharing** — the §7.2 slot-shared machine preserves its
//!   bookkeeping invariants and completes a saturating workload with
//!   zero bank conflicts on the underlying machine.
//!
//! The self-test seeds an off-by-one fault into a raw schedule and
//! demands the checker name the colliding pair — a verifier that cannot
//! fail proves nothing.

use std::ops::RangeInclusive;

use cfm_core::atspace::{AtSpace, ConflictWitness};
use cfm_core::config::CfmConfig;
use cfm_core::op::Operation;
use cfm_core::slotshare::SlotSharedMachine;
use cfm_core::Cycle;
use cfm_net::partial::PartialOmega;
use cfm_net::sync_omega::SyncOmega;

use crate::report::Check;

/// What to sweep: inclusive ranges of processor count `n` and bank
/// cycle `c`, plus the slot-sharing degrees to exercise per config.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepSpec {
    /// Processor counts to sweep.
    pub n: RangeInclusive<usize>,
    /// Bank cycle times to sweep.
    pub c: RangeInclusive<u32>,
    /// Sharers-per-slot degrees for the slot-sharing check (values < 2
    /// are skipped — degree 1 is the base machine).
    pub sharers: Vec<usize>,
}

impl Default for SweepSpec {
    fn default() -> Self {
        SweepSpec {
            n: 2..=16,
            c: 1..=4,
            sharers: vec![2],
        }
    }
}

/// A raw `(t + c·p + skew) mod b` schedule with *unconstrained* `b` —
/// the shape of schedule a misconfigured machine would run, which
/// [`AtSpace`] itself refuses to construct. The verifier uses it to
/// refute every `b ≠ c·n` neighbour of a valid configuration, and the
/// self-test uses `skew_proc` to seed an off-by-one fault the checker
/// must catch.
#[derive(Debug, Clone, Copy)]
pub struct RawSchedule {
    /// Bank count `b` (need not equal `c·n`).
    pub banks: usize,
    /// Bank cycle `c`.
    pub bank_cycle: usize,
    /// If set, this processor's bank is skewed by +1 — the seeded fault.
    pub skew_proc: Option<usize>,
}

impl RawSchedule {
    /// The (possibly faulty) schedule formula.
    pub fn bank_for(&self, slot: Cycle, p: usize) -> usize {
        let skew = usize::from(self.skew_proc == Some(p));
        ((slot as usize) + self.bank_cycle * p + skew) % self.banks
    }

    /// Exhaustively check per-slot injectivity over one period for
    /// `procs` processors; on failure return the colliding pair.
    pub fn check_period_injective(&self, procs: usize) -> Result<(), ConflictWitness> {
        for slot in 0..self.banks as Cycle {
            let mut owner: Vec<Option<usize>> = vec![None; self.banks];
            for p in 0..procs {
                let bank = self.bank_for(slot, p);
                if let Some(earlier) = owner[bank] {
                    return Err(ConflictWitness {
                        slot,
                        proc_a: earlier,
                        proc_b: p,
                        bank,
                    });
                }
                owner[bank] = Some(p);
            }
        }
        Ok(())
    }

    /// Check that no bank is re-addressed before its cycle time `c`
    /// elapses. Each bank is addressed exactly once per processor per
    /// period, so with `b < c·n` the average service gap `b/n` drops
    /// below `c` and some bank is hit while still busy — the conflict
    /// an undersized bank count provably causes even when per-slot
    /// injectivity survives (e.g. `n=2, c=2, b=3`). For `b = c·n` every
    /// gap is exactly `c`.
    pub fn check_bank_spacing(&self, procs: usize, busy: usize) -> Result<(), String> {
        for bank in 0..self.banks {
            let slots: Vec<Cycle> = (0..self.banks as Cycle)
                .filter(|&t| (0..procs).any(|p| self.bank_for(t, p) == bank))
                .collect();
            if slots.len() < 2 {
                continue;
            }
            for i in 0..slots.len() {
                let cur = slots[i];
                let next = slots[(i + 1) % slots.len()];
                let gap = if i + 1 < slots.len() {
                    next - cur
                } else {
                    next + self.banks as Cycle - cur
                };
                if (gap as usize) < busy {
                    return Err(format!(
                        "bank {bank} addressed at slot {cur} and again at slot {} only \
                         {gap} slot(s) later, inside its busy time {busy}",
                        next % self.banks as Cycle
                    ));
                }
            }
        }
        Ok(())
    }

    /// Refute the schedule: return a witness of a same-slot collision or
    /// a bank-busy violation, or `None` if the schedule is conflict-free
    /// for `procs` processors and bank busy time `busy`.
    pub fn refute(&self, procs: usize, busy: usize) -> Option<String> {
        if let Err(w) = self.check_period_injective(procs) {
            return Some(w.to_string());
        }
        self.check_bank_spacing(procs, busy).err()
    }

    /// Check that every address path in one period belongs to a real
    /// processor: bank `k` at slot `t` with `(k − t) mod b` a multiple
    /// of `c` must invert to a processor `< procs`. With `b > c·n` some
    /// paths invert to a *phantom* processor — the oversized-bank
    /// misconfiguration.
    pub fn check_no_phantom_paths(&self, procs: usize) -> Result<(), String> {
        for slot in 0..self.banks as Cycle {
            for bank in 0..self.banks {
                let diff = (bank + self.banks - (slot as usize % self.banks)) % self.banks;
                if diff.is_multiple_of(self.bank_cycle) {
                    let p = diff / self.bank_cycle;
                    if p >= procs {
                        return Err(format!(
                            "slot {slot}: bank {bank}'s address path inverts to phantom \
                             processor {p} (only {procs} exist)"
                        ));
                    }
                }
            }
        }
        Ok(())
    }
}

fn subject(n: usize, c: u32) -> String {
    format!("n={n} c={c} b={}", n * c as usize)
}

/// Verify one configuration exhaustively; returns one [`Check`] per
/// property.
pub fn verify_config(n: usize, c: u32, sharers: &[usize]) -> Vec<Check> {
    let cfg = CfmConfig::new(n, c, 16).expect("swept configurations are valid");
    let space = AtSpace::new(&cfg);
    let b = cfg.banks();
    let subj = subject(n, c);
    let mut checks = Vec::new();

    // Injectivity: the partition is mutually exclusive in every slot.
    checks.push(match space.check_period_injective(n) {
        Ok(()) => Check::pass(
            "schedule/injectivity",
            &subj,
            format!("bank(t,p)=(t+{c}p) mod {b} injective in all {b} slots × {n} procs"),
        )
        .with_metric("slots", b as u64)
        .with_metric("pairs", (b * n * (n - 1) / 2) as u64),
        Err(w) => Check::fail(
            "schedule/injectivity",
            &subj,
            "two processors share a bank in one slot",
            vec![w.to_string()],
        ),
    });

    // Round-trip: proc_for inverts bank_for everywhere.
    checks.push(match space.check_round_trip(n) {
        Ok(()) => Check::pass(
            "schedule/round-trip",
            &subj,
            format!("proc_for inverts bank_for over {b} slots × {n} procs"),
        ),
        Err(w) => Check::fail(
            "schedule/round-trip",
            &subj,
            "proc_for fails to invert bank_for",
            vec![w.to_string()],
        ),
    });

    // Periodicity: the per-period proofs cover all time.
    checks.push(if space.check_periodicity(n, 2) {
        Check::pass(
            "schedule/periodicity",
            &subj,
            format!("schedule repeats with period {b} (2 extra periods checked)"),
        )
    } else {
        Check::fail(
            "schedule/periodicity",
            &subj,
            "schedule is not periodic with period b",
            vec!["bank_for(t, p) != bank_for(t + k*b, p) for some t, p, k".into()],
        )
    });

    // Bank busy spacing: with b = c·n each bank is re-addressed exactly
    // every c slots, matching its busy time.
    {
        let exact = RawSchedule {
            banks: b,
            bank_cycle: c as usize,
            skew_proc: None,
        };
        checks.push(match exact.check_bank_spacing(n, c as usize) {
            Ok(()) => Check::pass(
                "schedule/bank-busy-spacing",
                &subj,
                format!("every bank re-addressed no sooner than its busy time c={c}"),
            ),
            Err(msg) => Check::fail(
                "schedule/bank-busy-spacing",
                &subj,
                "a bank is addressed while still busy",
                vec![msg],
            ),
        });
    }

    // Misconfiguration rejection, undersized: b = c·n − 1 must exhibit a
    // same-slot collision or a bank-busy violation.
    if b > 1 {
        let raw = RawSchedule {
            banks: b - 1,
            bank_cycle: c as usize,
            skew_proc: None,
        };
        checks.push(match raw.refute(n, c as usize) {
            Some(w) => Check::pass(
                "schedule/reject-undersized-banks",
                &subj,
                format!("b={} (≠ c·n) refuted: {w}", b - 1),
            ),
            None => Check::fail(
                "schedule/reject-undersized-banks",
                &subj,
                format!(
                    "b={} < c·n yet no conflict was found — checker is vacuous",
                    b - 1
                ),
                vec!["expected a collision or bank-busy witness".into()],
            ),
        });
    }

    // Misconfiguration rejection, oversized: b = c·n + 1 leaves orphan
    // address paths (they invert to a phantom processor).
    {
        let raw = RawSchedule {
            banks: b + 1,
            bank_cycle: c as usize,
            skew_proc: None,
        };
        checks.push(match raw.check_no_phantom_paths(n) {
            Err(msg) => Check::pass(
                "schedule/reject-oversized-banks",
                &subj,
                format!("b={} (≠ c·n) refuted: {msg}", b + 1),
            ),
            Ok(()) => Check::fail(
                "schedule/reject-oversized-banks",
                &subj,
                format!(
                    "b={} > c·n yet every path has an owner — checker is vacuous",
                    b + 1
                ),
                vec!["expected an orphan address path".into()],
            ),
        });
    }

    // Network realization for power-of-two b.
    if b >= 2 && b.is_power_of_two() {
        checks.push(check_omega_permutations(b, &subj));
        if b >= 4 {
            checks.extend(check_partial_omega(b, &subj));
        }
    }

    // Slot sharing.
    for &s in sharers {
        if s >= 2 {
            checks.push(check_slot_sharing(cfg, s, &subj));
        }
    }

    checks
}

/// Prove the synchronous omega's per-slot switch states realize the
/// conflict-free uniform-shift permutation, by walking the physical
/// switch settings rather than trusting the arithmetic shortcut.
fn check_omega_permutations(ports: usize, subj: &str) -> Check {
    let net = SyncOmega::new(ports);
    for slot in 0..ports as u64 {
        let perm = net.permutation(slot);
        let mut hit = vec![false; ports];
        for (p, &out) in perm.iter().enumerate() {
            let expect = net.route(slot, p);
            if out != expect {
                return Check::fail(
                    "network/omega-permutation",
                    subj,
                    "switch states diverge from the uniform shift",
                    vec![format!(
                        "slot {slot}: input {p} walks to output {out}, route says {expect}"
                    )],
                );
            }
            if hit[out] {
                return Check::fail(
                    "network/omega-permutation",
                    subj,
                    "switch states are not a permutation",
                    vec![format!("slot {slot}: two inputs walk to output {out}")],
                );
            }
            hit[out] = true;
        }
    }
    Check::pass(
        "network/omega-permutation",
        subj,
        format!("switch states realize the shift bijection in all {ports} slots"),
    )
    .with_metric("slots", ports as u64)
}

/// Partially synchronous network (§3.2.2): canonical clusters stay
/// mutually exclusive for every circuit/clock split, while same-set
/// processors *do* contend — and the checker must witness that
/// contention rather than assume exclusivity that is no longer there.
fn check_partial_omega(ports: usize, subj: &str) -> Vec<Check> {
    let stages = ports.trailing_zeros();
    let mut cluster_ok = true;
    let mut cluster_detail = String::new();
    let mut witness = None;
    'outer: for r in 1..stages {
        let net = PartialOmega::new(ports, r);
        let bpm = net.banks_per_module();
        // Every canonical cluster maps to distinct banks in every
        // module and slot.
        for base in 0..net.clusters() {
            let members = net.cluster(base);
            for module in 0..net.modules() {
                for slot in 0..bpm as u64 {
                    let mut hit = vec![false; ports];
                    for &p in &members {
                        let k = net.bank_for(slot, p, module);
                        if hit[k] {
                            cluster_ok = false;
                            cluster_detail = format!(
                                "r={r} cluster {base}: two members reach bank {k} \
                                 (module {module}, slot {slot})"
                            );
                            break 'outer;
                        }
                        hit[k] = true;
                    }
                }
            }
        }
        // Same contention set ⇒ the checker finds the collision.
        if witness.is_none() && ports / bpm >= 2 {
            let (p, q) = (0, bpm); // distinct processors, same set p mod bpm
            let k = net.bank_for(0, p, 0);
            if net.bank_for(0, q, 0) == k {
                witness = Some(format!(
                    "r={r}: slot 0, module 0: processors {p} and {q} (contention set \
                     {}) both reach bank {k}",
                    net.contention_set(p)
                ));
            }
        }
    }
    let mut out = vec![if cluster_ok {
        Check::pass(
            "network/partial-cluster-exclusive",
            subj,
            format!("canonical clusters conflict-free for all r=1..{stages}"),
        )
    } else {
        Check::fail(
            "network/partial-cluster-exclusive",
            subj,
            "a canonical cluster self-conflicts",
            vec![cluster_detail],
        )
    }];
    out.push(match witness {
        Some(w) => Check::pass(
            "network/partial-contention-detected",
            subj,
            format!("sharing breaks exclusivity and the checker witnesses it: {w}"),
        ),
        None => Check::fail(
            "network/partial-contention-detected",
            subj,
            "no contention witness found for same-set processors — detection is vacuous",
            vec!["expected a (slot, proc, proc', bank) collision witness".into()],
        ),
    });
    out
}

/// Run a saturating read workload through the slot-shared machine,
/// checking the sharing bookkeeping invariant every cycle and that the
/// *underlying* machine stays conflict-free throughout.
fn check_slot_sharing(cfg: CfmConfig, sharers: usize, subj: &str) -> Check {
    let name = "schedule/slot-sharing";
    let subj = format!("{subj} s={sharers}");
    let mut m = SlotSharedMachine::new(cfg, 4, sharers);
    let procs = m.processors();
    for p in 0..procs {
        if let Err(e) = m.issue(p, Operation::read(p % 4)) {
            return Check::fail(
                name,
                &subj,
                "issue rejected while idle",
                vec![format!("processor {p}: {e:?}")],
            );
        }
        if let Err(msg) = m.check_share_invariant() {
            return Check::fail(name, &subj, "sharing invariant broken on issue", vec![msg]);
        }
    }
    let budget = 10_000 * sharers as u64;
    let mut cycles = 0u64;
    while !m.is_idle() && cycles < budget {
        m.step();
        cycles += 1;
        if let Err(msg) = m.check_share_invariant() {
            return Check::fail(
                name,
                &subj,
                format!("sharing invariant broken at cycle {cycles}"),
                vec![msg],
            );
        }
    }
    if !m.is_idle() {
        return Check::fail(
            name,
            &subj,
            format!("workload did not drain within {budget} cycles"),
            vec![format!("{} operations still queued or in flight", procs)],
        );
    }
    let conflicts = m.inner().stats().bank_conflicts;
    let completions = (0..procs).filter(|&p| m.poll(p).is_some()).count();
    if conflicts != 0 || completions != procs {
        return Check::fail(
            name,
            &subj,
            "sharing leaked conflicts into the conflict-free core",
            vec![format!(
                "bank_conflicts={conflicts}, completions={completions}/{procs}"
            )],
        );
    }
    Check::pass(
        name,
        &subj,
        format!("{procs} sharers drained in {cycles} cycles, 0 bank conflicts"),
    )
    .with_metric("cycles", cycles)
    .with_metric("slot_conflicts", m.stats().slot_conflicts)
}

/// Sweep every configuration in the spec.
pub fn sweep(spec: &SweepSpec) -> Vec<Check> {
    let mut checks = Vec::new();
    for n in spec.n.clone() {
        for c in spec.c.clone() {
            checks.extend(verify_config(n, c, &spec.sharers));
        }
    }
    checks
}

/// The self-test: seed faults the checker *must* catch. Each returned
/// check passes iff the corresponding fault was detected with a usable
/// counterexample.
pub fn self_test() -> Vec<Check> {
    let mut checks = Vec::new();

    // Seeded off-by-one: processor 3 of an n=8, c=1 schedule is skewed
    // by one bank and must collide with processor 4.
    let sabotaged = RawSchedule {
        banks: 8,
        bank_cycle: 1,
        skew_proc: Some(3),
    };
    checks.push(match sabotaged.check_period_injective(8) {
        Err(w) => {
            let names_fault = w.proc_a == 3 || w.proc_b == 3;
            if names_fault {
                Check::pass(
                    "self-test/seeded-off-by-one",
                    "n=8 c=1 b=8 skew_proc=3",
                    format!("fault detected with witness: {w}"),
                )
            } else {
                Check::fail(
                    "self-test/seeded-off-by-one",
                    "n=8 c=1 b=8 skew_proc=3",
                    "a conflict was found but it does not involve the skewed processor",
                    vec![w.to_string()],
                )
            }
        }
        Ok(()) => Check::fail(
            "self-test/seeded-off-by-one",
            "n=8 c=1 b=8 skew_proc=3",
            "seeded fault was NOT detected — the checker is vacuous",
            vec!["expected a colliding (slot, proc, proc', bank) witness".into()],
        ),
    });

    // Misconfigured bank counts around a valid config must be refuted.
    let under = RawSchedule {
        banks: 7,
        bank_cycle: 2,
        skew_proc: None,
    };
    checks.push(match under.refute(4, 2) {
        Some(w) => Check::pass(
            "self-test/misconfigured-banks",
            "n=4 c=2 b=7",
            format!("b ≠ c·n refuted: {w}"),
        ),
        None => Check::fail(
            "self-test/misconfigured-banks",
            "n=4 c=2 b=7",
            "undersized bank count was NOT refuted",
            vec!["expected a collision or bank-busy witness".into()],
        ),
    });

    // Partial synchrony knowingly gives up exclusivity inside a
    // contention set; the checker must witness the collision.
    let net = PartialOmega::new(8, 2);
    let (p, q) = (0, net.banks_per_module());
    let collide = net.bank_for(0, p, 0) == net.bank_for(0, q, 0);
    checks.push(if collide {
        Check::pass(
            "self-test/partial-sync-contention",
            "ports=8 r=2",
            format!(
                "processors {p} and {q} (set {}) collide on bank {} at slot 0, module 0",
                net.contention_set(p),
                net.bank_for(0, p, 0)
            ),
        )
    } else {
        Check::fail(
            "self-test/partial-sync-contention",
            "ports=8 r=2",
            "same-set processors did not collide — detection is vacuous",
            vec!["expected equal bank_for within a contention set".into()],
        )
    });

    checks
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::Status;

    #[test]
    fn every_default_sweep_config_is_conflict_free() {
        // A smaller sweep keeps the debug-mode test quick; the CLI runs
        // the full acceptance sweep.
        let spec = SweepSpec {
            n: 2..=6,
            c: 1..=2,
            sharers: vec![2],
        };
        for check in sweep(&spec) {
            assert_eq!(
                check.status,
                Status::Pass,
                "{} [{}]: {}\n{}",
                check.name,
                check.subject,
                check.detail,
                check.counterexample.join("\n")
            );
        }
    }

    #[test]
    fn seeded_off_by_one_yields_the_expected_witness() {
        let raw = RawSchedule {
            banks: 8,
            bank_cycle: 1,
            skew_proc: Some(3),
        };
        let w = raw.check_period_injective(8).unwrap_err();
        // Processor 3 is skewed onto processor 4's bank at slot 0.
        assert_eq!((w.slot, w.proc_a, w.proc_b, w.bank), (0, 3, 4, 4));
        let text = w.to_string();
        assert!(text.contains("processors 3 and 4"), "witness text: {text}");
    }

    #[test]
    fn self_test_detects_every_seeded_fault() {
        let checks = self_test();
        assert_eq!(checks.len(), 3);
        for check in checks {
            assert_eq!(
                check.status,
                Status::Pass,
                "{}: {}",
                check.name,
                check.detail
            );
        }
    }

    #[test]
    fn oversized_banks_have_phantom_paths() {
        let raw = RawSchedule {
            banks: 9,
            bank_cycle: 2,
            skew_proc: None,
        };
        let err = raw.check_no_phantom_paths(4).unwrap_err();
        assert!(err.contains("phantom"), "{err}");
    }
}
