//! `cfm-verify chaos` — fault-injection soak harness.
//!
//! The trace layer re-derives the paper's guarantees from *healthy*
//! executions; this module re-derives them from **faulted** ones. Each
//! seed generates a deterministic [`FaultPlan`] (permanent bank death,
//! transient bank errors, dropped/corrupted responses, stuck omega
//! switches) and soaks a standard workload under it, then asserts the
//! degraded-mode contract of `docs/fault-model.md`:
//!
//! * **coverage** — every fault kind appears in at least one generated
//!   plan (the CI gate parses the per-kind metrics);
//! * **injectivity** — after every remap the logical→physical bank map
//!   is still injective, the composed per-slot schedule still assigns
//!   distinct physical banks, and the observed injections still satisfy
//!   the spacing theorem;
//! * **race-freedom** — the happens-before detector finds no races in
//!   the faulted traces (retries re-serialize through the ATT);
//! * **write-durability** — no completed write is lost or torn across a
//!   remap boundary, transient faults recover transparently (zero
//!   aborts), and the shared counter stays exact;
//! * **locks** — the spin-lock protocol keeps mutual exclusion under
//!   transparently-recovered faults;
//! * **net-stuck** — a stuck omega switch is detected by the
//!   walk-vs-schedule divergence the net cross-check exists for.
//!
//! The `self-test/chaos-*` checks prove each detector non-vacuous: an
//! undetected bank death (aliased map), a missed retry (corrupted
//! word), and a remap that loses a write must each be caught by exactly
//! the intended detector while the named control detector stays quiet.

use std::collections::VecDeque;

use cfm_core::atspace::AtSpace;
use cfm_core::config::{CfmConfig, Engine};
use cfm_core::fault::{FaultKind, FaultPlan, PlanParams};
use cfm_core::lock::{CriticalLedger, SpinLockProgram};
use cfm_core::machine::CfmMachine;
use cfm_core::op::{Completion, OpKind, Operation};
use cfm_core::program::{RunOutcome, Runner};
use cfm_core::Word;
use cfm_net::sync_omega::SyncOmega;

use crate::report::Check;
use crate::trace::hb;

/// Cycle budget for every chaos drive loop.
const BUDGET: u64 = 400_000;

/// Write/read rounds per processor in the soak workload.
const ROUNDS: u64 = 3;

/// Which fault plans the chaos suite soaks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChaosSpec {
    /// Fault-plan seeds; each soaks one generated plan on one machine
    /// shape (shapes rotate per seed index).
    pub seeds: Vec<u64>,
    /// Slot engines the soaks rotate through (engine rotates per seed
    /// index, like the shapes): the degraded-mode contract must hold
    /// identically on the parallel engine's one-pass step.
    pub engines: Vec<Engine>,
}

impl Default for ChaosSpec {
    /// Four seeded plans covering remap, pipelined banks, masking (no
    /// spare), and a two-spare pool, rotated across the sequential
    /// engine and the parallel engine (the one-pass step the service
    /// runs).
    fn default() -> Self {
        ChaosSpec {
            seeds: vec![0xC0FFEE, 0xBAD_F00D, 0x5EED, 0xFEED],
            engines: vec![Engine::Sequential, Engine::Parallel { threads: 1 }],
        }
    }
}

/// Short stable label for an engine, used in check subjects: the name
/// `--engine` accepts (`sequential` or `parallel`).
pub(crate) fn engine_label(engine: Engine) -> &'static str {
    match engine {
        Engine::Sequential => "sequential",
        Engine::Parallel { .. } => "parallel",
    }
}

/// `(n, c, spares)` machine shapes the soak rotates through.
const SHAPES: [(usize, u32, usize); 4] = [(4, 1, 1), (4, 2, 1), (8, 1, 0), (4, 1, 2)];

/// The slot horizon faults are generated within (workloads run past it
/// so late faults still fire).
const HORIZON: u64 = 160;

fn shape_for(index: usize) -> (usize, u32, usize) {
    SHAPES[index % SHAPES.len()]
}

fn engine_for(spec: &ChaosSpec, index: usize) -> Engine {
    if spec.engines.is_empty() {
        Engine::Sequential
    } else {
        spec.engines[index % spec.engines.len()]
    }
}

fn plan_params(n: usize, c: u32) -> PlanParams {
    PlanParams {
        banks: n * c as usize,
        processors: n,
        horizon: HORIZON,
        permanent: 1,
        transient: 2,
        // Short repair windows guarantee the bounded exponential retry
        // (8 attempts, backoff sum 127 slots) always outlasts the fault:
        // soak runs must recover transparently, with zero aborts.
        max_repair: 24,
        responses: 2,
        stuck: 1,
    }
}

/// Run the full chaos suite: coverage, the per-seed soaks, the lock
/// soak, the net stuck-switch detection, and (when `self_test`) the
/// seeded-fault self-tests.
pub fn verify(spec: &ChaosSpec, self_test: bool) -> Vec<Check> {
    let mut checks = Vec::new();
    checks.push(coverage_check(spec));
    for (i, &seed) in spec.seeds.iter().enumerate() {
        checks.extend(soak(seed, shape_for(i), engine_for(spec, i)));
    }
    checks.push(lock_soak(spec.seeds.first().copied().unwrap_or(1)));
    checks.push(net_stuck_check(spec));
    if self_test {
        checks.extend(self_tests());
    }
    checks
}

/// Every fault kind must be scheduled by at least one generated plan —
/// the CI gate reads the per-kind metrics off this check.
fn coverage_check(spec: &ChaosSpec) -> Check {
    const KINDS: [&str; 5] = [
        "permanent-bank-failure",
        "transient-bank-error",
        "stuck-switch",
        "dropped-response",
        "corrupted-response",
    ];
    let mut totals = [0usize; 5];
    let mut events = 0usize;
    for (i, &seed) in spec.seeds.iter().enumerate() {
        let (n, c, _) = shape_for(i);
        let plan = FaultPlan::generate(seed, &plan_params(n, c));
        events += plan.events().len();
        for (k, label) in KINDS.iter().enumerate() {
            totals[k] += plan.count_kind(label);
        }
    }
    let subject = format!(
        "chaos: {} plans, {events} scheduled faults",
        spec.seeds.len()
    );
    let missing: Vec<&str> = KINDS
        .iter()
        .zip(totals)
        .filter(|&(_, t)| t == 0)
        .map(|(&k, _)| k)
        .collect();
    let mut check = if missing.is_empty() {
        Check::pass(
            "chaos/coverage",
            &subject,
            "every fault kind scheduled by at least one plan",
        )
    } else {
        Check::fail(
            "chaos/coverage",
            &subject,
            "some fault kinds are never exercised",
            missing.iter().map(|k| format!("missing: {k}")).collect(),
        )
    };
    for (label, total) in KINDS.iter().zip(totals) {
        check = check.with_metric(label, total as u64);
    }
    check.with_metric("plans", spec.seeds.len() as u64)
}

/// One completed operation of the soak history.
struct Done {
    proc: usize,
    op: Operation,
    completion: Completion,
}

/// Drive `machine` with per-processor scripts to completion, then step
/// past the fault horizon so late-scheduled faults still fire.
fn drive(machine: &mut CfmMachine, scripts: &mut [VecDeque<Operation>]) -> Vec<Done> {
    let n = scripts.len();
    let mut pending: Vec<VecDeque<Operation>> = vec![VecDeque::new(); n];
    let mut history = Vec::new();
    for _ in 0..BUDGET {
        for (p, script) in scripts.iter_mut().enumerate() {
            while let Some(c) = machine.poll(p) {
                let op = pending[p].pop_front().expect("completion matches a call");
                history.push(Done {
                    proc: p,
                    op,
                    completion: c,
                });
            }
            if !machine.is_busy(p) {
                if let Some(op) = script.pop_front() {
                    pending[p].push_back(op.clone());
                    machine.issue(p, op).expect("idle processor accepts");
                }
            }
        }
        if machine.is_idle() && scripts.iter().all(|s| s.is_empty()) {
            break;
        }
        machine.step();
    }
    for (p, q) in pending.iter_mut().enumerate() {
        while let Some(c) = machine.poll(p) {
            let op = q.pop_front().expect("completion matches a call");
            history.push(Done {
                proc: p,
                op,
                completion: c,
            });
        }
    }
    assert!(
        machine.is_idle() && scripts.iter().all(|s| s.is_empty()),
        "chaos workload did not drain within the budget"
    );
    // Let faults scheduled after the drain fire too (remaps on an idle
    // machine must also preserve the durability contract).
    while machine.cycle() < HORIZON + 40 {
        machine.step();
    }
    history
}

/// The value processor `p` writes to its owned block in round `r`.
fn owned_value(p: usize, r: u64) -> Word {
    (p as Word + 1) * 100 + r
}

/// Soak one seeded plan on one machine shape and slot engine and check
/// injectivity, race freedom, and write durability on the faulted
/// execution. With a parallel engine the soak additionally asserts that
/// proven slots actually ran — slots whose every access the one-pass
/// step proved (a fallback-only soak would make the engine rotation
/// vacuous).
fn soak(seed: u64, (n, c, spares): (usize, u32, usize), engine: Engine) -> Vec<Check> {
    let cfg = CfmConfig::new(n, c, 16)
        .expect("valid soak shape")
        .with_spares(spares)
        .expect("spare pool fits")
        .with_engine(engine);
    let banks = cfg.banks();
    let plan = FaultPlan::generate(seed, &plan_params(n, c));
    let scheduled = plan.events().len() as u64;
    let subject = format!(
        "chaos: seed={seed:#x} n={n} c={c} b={banks} spares={spares} engine={}",
        engine_label(engine)
    );

    let mut m = CfmMachine::builder(cfg)
        .offsets(16)
        .trace(true)
        .fault_plan(plan)
        .build();
    // Each processor owns block `p`; block `n` is a shared counter.
    let shared = n;
    let mut scripts: Vec<VecDeque<Operation>> = (0..n)
        .map(|p| {
            let mut q = VecDeque::new();
            for r in 0..ROUNDS {
                q.push_back(Operation::write(p, vec![owned_value(p, r); banks]));
                q.push_back(Operation::read(p));
                q.push_back(Operation::fetch_add(shared, 0, 1));
                q.push_back(Operation::read((p + 1) % n));
            }
            q
        })
        .collect();
    let history = drive(&mut m, &mut scripts);
    let events = m.take_trace().expect("tracing was enabled").into_events();
    let stats = *m.stats();

    let mut checks = Vec::new();

    // Engine non-vacuousness: under a parallel engine at least some
    // slots must be proven whole (the owned-block rounds are
    // hazard-free); hazardous accesses falling back is expected, a soak
    // that *only* fell back proves nothing about the proven path.
    if engine != Engine::Sequential {
        let parallel_slots = m.parallel_slots();
        checks.push(if parallel_slots > 0 {
            Check::pass(
                "chaos/engine-parallel",
                &subject,
                format!("{parallel_slots} slot(s) took the parallel path under faults"),
            )
            .with_metric("parallel_slots", parallel_slots)
        } else {
            Check::fail(
                "chaos/engine-parallel",
                &subject,
                "the parallel engine never left the sequential fallback",
                vec!["every slot of the soak hit a hazard — the rotation is vacuous".into()],
            )
        });
    }

    // Post-remap injectivity: the map itself, the composed per-slot
    // physical schedule, and the observed injections (Route events stay
    // logical, so the spacing audit remains valid across remaps).
    let mut witnesses = Vec::new();
    if let Err(conflict) = m.bank_map().check_injective() {
        witnesses.push(conflict.to_string());
    }
    let space = AtSpace::new(m.config());
    for t in 0..2 * banks as u64 {
        let mut phys_seen = vec![false; m.bank_map().physical_banks()];
        for p in 0..n {
            if let Some(ph) = m.bank_map().phys(space.bank_for(t, p)) {
                if phys_seen[ph] {
                    witnesses.push(format!(
                        "slot {t}: two processors reach physical bank {ph} after remap"
                    ));
                }
                phys_seen[ph] = true;
            }
        }
    }
    if let Err(w) = hb::audit_bank_spacing(&events, banks, c as u64) {
        witnesses.extend(w);
    }
    checks.push(if witnesses.is_empty() {
        Check::pass(
            "chaos/injectivity",
            &subject,
            format!(
                "map injective after {} remap(s)/{} mask(s); composed schedule conflict-free",
                stats.bank_remaps, stats.banks_masked
            ),
        )
        .with_metric("remaps", stats.bank_remaps)
        .with_metric("masked", stats.banks_masked)
    } else {
        Check::fail(
            "chaos/injectivity",
            &subject,
            "degraded-mode schedule is no longer conflict-free",
            witnesses,
        )
    });

    // Race freedom of the faulted trace.
    let races = hb::find_races(&hb::analyze(&events));
    checks.push(if races.is_empty() {
        Check::pass(
            "chaos/race-freedom",
            &subject,
            format!(
                "{} events race-free under {} fault(s)",
                events.len(),
                scheduled
            ),
        )
        .with_metric("events", events.len() as u64)
        .with_metric("races", 0)
    } else {
        let first = &races[0];
        Check::fail(
            "chaos/race-freedom",
            &subject,
            first.summary.clone(),
            first.lines.clone(),
        )
        .with_metric("races", races.len() as u64)
    });

    // Write durability: transparent recovery, no torn owned reads, last
    // committed value intact on every live word, counter exact.
    let mut lost = Vec::new();
    if stats.fault_aborts != 0 {
        lost.push(format!(
            "{} operation(s) aborted with TransientFault — repair windows sized for \
             transparent recovery",
            stats.fault_aborts
        ));
    }
    if stats.faults_injected != scheduled {
        lost.push(format!(
            "{} of {scheduled} scheduled faults fired",
            stats.faults_injected
        ));
    }
    for d in &history {
        if d.completion.kind == OpKind::Read && d.op.offset() == d.proc && d.completion.torn {
            lost.push(format!(
                "proc {} observed its own block {} torn at cycle {}",
                d.proc, d.proc, d.completion.completed_at
            ));
        }
    }
    for p in 0..n {
        let got = m.peek_block(p);
        let want = owned_value(p, ROUNDS - 1);
        for (k, &w) in got.iter().enumerate() {
            if !m.bank_map().is_masked(k) && w != want {
                lost.push(format!(
                    "block {p} word {k}: expected {want}, found {w} (lost or corrupted write)"
                ));
            }
        }
    }
    let counter = m.peek_block(shared)[0];
    if !m.bank_map().is_masked(0) && counter != n as u64 * ROUNDS {
        lost.push(format!(
            "shared counter ended at {counter}, expected {}",
            n as u64 * ROUNDS
        ));
    }
    checks.push(if lost.is_empty() {
        Check::pass(
            "chaos/write-durability",
            &subject,
            format!(
                "{} completions durable across faults ({} transient retries)",
                history.len(),
                stats.fault_retries
            ),
        )
        .with_metric("completions", history.len() as u64)
        .with_metric("faults", stats.faults_injected)
        .with_metric("retries", stats.fault_retries)
    } else {
        Check::fail(
            "chaos/write-durability",
            &subject,
            "a committed write was lost, torn, or corrupted",
            lost,
        )
    });

    checks
}

/// The spin-lock contest under a transparently-recovered fault plan
/// (transient + response faults only — a masked lock word would
/// rightfully deadlock, which is the documented non-guarantee).
fn lock_soak(seed: u64) -> Check {
    let n = 4;
    let rounds = 2;
    let cfg = CfmConfig::new(n, 1, 16).expect("valid config");
    let banks = cfg.banks();
    let plan = FaultPlan::generate(
        seed ^ 0x10C5,
        &PlanParams {
            banks,
            processors: n,
            horizon: HORIZON,
            permanent: 0,
            transient: 2,
            max_repair: 16,
            responses: 2,
            stuck: 0,
        },
    );
    let scheduled = plan.events().len() as u64;
    let subject = format!("chaos: lock-contest n={n} rounds={rounds} seed={seed:#x}");
    let machine = CfmMachine::builder(cfg).offsets(8).fault_plan(plan).build();
    let ledger = std::rc::Rc::new(std::cell::RefCell::new(CriticalLedger::default()));
    let mut runner = Runner::new(machine);
    for p in 0..n {
        runner.set_program(
            p,
            Box::new(SpinLockProgram::new(p, 0, banks, 3, rounds, ledger.clone())),
        );
    }
    let outcome = runner.run(BUDGET);
    if let RunOutcome::BudgetExhausted { executed, stalled } = &outcome {
        return Check::fail(
            "chaos/locks",
            &subject,
            format!("lock contest wedged after {executed} cycles"),
            stalled.iter().map(|s| s.to_string()).collect(),
        );
    }
    let ledger = ledger.borrow();
    let expected = n as u64 * rounds;
    if ledger.entries != expected || ledger.max_inside > 1 {
        return Check::fail(
            "chaos/locks",
            &subject,
            "mutual exclusion or progress lost under faults",
            vec![format!(
                "{} of {expected} critical sections, max {} inside",
                ledger.entries, ledger.max_inside
            )],
        );
    }
    Check::pass(
        "chaos/locks",
        &subject,
        format!("{expected} faulted lock hand-offs serialize (max 1 inside)"),
    )
    .with_metric("entries", expected)
    .with_metric("faults", scheduled)
}

/// Stuck-switch detection: every generated [`FaultKind::StuckSwitch`]
/// is applied to a synchronous omega and classified; at least one must
/// provably diverge, and clearing it must restore the healthy walk.
fn net_stuck_check(spec: &ChaosSpec) -> Check {
    let ports = 8;
    let mut net = SyncOmega::new(ports);
    let stages = net.topology().stages;
    let switches = ports / 2;
    let diverges = |net: &SyncOmega| {
        (0..ports as u64).any(|t| (0..ports).any(|p| net.walk_route(t, p) != net.route(t, p)))
    };
    if diverges(&net) {
        return Check::fail(
            "chaos/net-stuck",
            "net: ports=8 healthy",
            "healthy network already diverges from the schedule",
            vec![],
        );
    }
    let mut applied = 0u64;
    let mut detected = 0u64;
    for (i, &seed) in spec.seeds.iter().enumerate() {
        let (n, c, _) = shape_for(i);
        let plan = FaultPlan::generate(seed, &plan_params(n, c));
        for ev in plan.events() {
            if let FaultKind::StuckSwitch {
                column,
                switch,
                state,
            } = ev.kind
            {
                applied += 1;
                net.inject_stuck_switch(column % stages, switch % switches, state);
                if diverges(&net) {
                    detected += 1;
                } else {
                    // Benign only if the stuck state equals the healthy
                    // state in every slot — verify, don't assume.
                    let (col, sw) = (column % stages, switch % switches);
                    let benign =
                        (0..ports as u64).all(|t| net.switch_state(t, col, sw) == state & 1);
                    if !benign {
                        net.clear_stuck_switches();
                        return Check::fail(
                            "chaos/net-stuck",
                            "net: ports=8",
                            "a route-changing stuck switch went undetected",
                            vec![format!("column {col} switch {sw} stuck at {state}")],
                        );
                    }
                }
                net.clear_stuck_switches();
            }
        }
    }
    // Guaranteed-divergent canary: slot 0 is all-straight, so any switch
    // stuck at interchange must break slot 0.
    net.inject_stuck_switch(0, 0, 1);
    let canary = diverges(&net);
    net.clear_stuck_switches();
    if !canary || diverges(&net) {
        return Check::fail(
            "chaos/net-stuck",
            "net: ports=8 canary",
            "stuck-at-interchange on the all-straight slot was not detected (or clear failed)",
            vec![],
        );
    }
    Check::pass(
        "chaos/net-stuck",
        format!("net: ports=8, {applied} stuck switch(es) from plans"),
        format!("{detected} divergent, rest provably benign; canary detected and cleared"),
    )
    .with_metric("applied", applied)
    .with_metric("detected", detected + 1)
}

/// Seeded-fault self-tests: each scenario must be caught by exactly the
/// intended detector, with the named control detector staying quiet.
pub fn self_tests() -> Vec<Check> {
    vec![
        undetected_bank_death_self_test(),
        missed_retry_self_test(),
        remap_lost_write_self_test(),
    ]
}

/// A silent bank death that corrupted the remap metadata: logical bank
/// 1 aliases physical bank 0. The injectivity detector must refuse the
/// map; the race detector (control) must stay quiet.
fn undetected_bank_death_self_test() -> Check {
    let cfg = CfmConfig::new(4, 1, 16)
        .expect("valid config")
        .with_spares(1)
        .expect("spare fits");
    let banks = cfg.banks();
    let mut m = CfmMachine::builder(cfg).offsets(8).trace(true).build();
    m.execute(0, Operation::write(0, vec![7; banks]));
    m.injector().bank_alias(1, 0);
    let events = m.take_trace().expect("tracing was enabled").into_events();
    let races = hb::find_races(&hb::analyze(&events));
    let subject = "chaos: n=4 spares=1, logical bank 1 aliased onto physical 0";
    match m.bank_map().check_injective() {
        Err(conflict) if races.is_empty() => Check::pass(
            "self-test/chaos-undetected-bank-death",
            subject,
            format!("injectivity detector caught it ({conflict}); race detector quiet"),
        )
        .with_metric("races", 0),
        Err(_) => Check::fail(
            "self-test/chaos-undetected-bank-death",
            subject,
            "injectivity fired but the control race detector fired too — not specific",
            vec![races[0].summary.clone()],
        ),
        Ok(()) => Check::fail(
            "self-test/chaos-undetected-bank-death",
            subject,
            "aliased bank map accepted — the injectivity detector is vacuous",
            vec!["expected a MapConflict witness".into()],
        ),
    }
}

/// A missed transient retry: the erroring bank's word commits corrupted.
/// The durability detector (value comparison) must flag the word; the
/// injectivity detector (control) must stay clean.
fn missed_retry_self_test() -> Check {
    let cfg = CfmConfig::new(4, 1, 16).expect("valid config");
    let banks = cfg.banks();
    let mut m = CfmMachine::builder(cfg).offsets(8).build();
    m.injector().fault_plan(FaultPlan::single(
        3,
        FaultKind::TransientBankError {
            bank: 3,
            repair_slot: 4,
        },
    ));
    m.injector().suppress_retries(1);
    m.issue(0, Operation::write(6, vec![9; banks]))
        .expect("idle processor accepts");
    m.run(1_000).expect_idle();
    let subject = "chaos: n=4, transient retry on bank 3 suppressed";
    let corrupted: Vec<usize> = m
        .peek_block(6)
        .iter()
        .enumerate()
        .filter(|&(_, &w)| w != 9)
        .map(|(k, _)| k)
        .collect();
    let map_ok = m.bank_map().check_injective().is_ok();
    match (corrupted.as_slice(), map_ok) {
        ([3], true) => Check::pass(
            "self-test/chaos-missed-retry",
            subject,
            "durability detector caught the corrupted word 3; map detector quiet",
        )
        .with_metric("corrupted_words", 1),
        (_, false) => Check::fail(
            "self-test/chaos-missed-retry",
            subject,
            "control injectivity detector fired — not specific",
            vec![],
        ),
        (words, true) => Check::fail(
            "self-test/chaos-missed-retry",
            subject,
            "suppressed retry did not corrupt exactly word 3 — the detector is vacuous",
            vec![format!("corrupted words: {words:?}")],
        ),
    }
}

/// A remap that skips the bank copy: a committed write is lost. The
/// durability detector must flag the lost word; the injectivity
/// detector (control) must accept the (correctly injective) map.
fn remap_lost_write_self_test() -> Check {
    let cfg = CfmConfig::new(4, 1, 16)
        .expect("valid config")
        .with_spares(1)
        .expect("spare fits");
    let banks = cfg.banks();
    let mut m = CfmMachine::builder(cfg).offsets(8).build();
    m.execute(0, Operation::write(0, vec![7; banks]));
    m.injector().skip_remap_copy();
    let now = m.cycle();
    m.injector().fault_plan(FaultPlan::single(
        now + 1,
        FaultKind::PermanentBankFailure { bank: 2 },
    ));
    m.step();
    m.step();
    let subject = "chaos: n=4 spares=1, remap of bank 2 skipped its copy";
    let lost: Vec<usize> = m
        .peek_block(0)
        .iter()
        .enumerate()
        .filter(|&(_, &w)| w != 7)
        .map(|(k, _)| k)
        .collect();
    let map_ok = m.bank_map().check_injective().is_ok();
    match (lost.as_slice(), map_ok) {
        ([2], true) => Check::pass(
            "self-test/chaos-remap-lost-write",
            subject,
            "durability detector caught the lost word 2; map stays injective",
        )
        .with_metric("lost_words", 1)
        .with_metric("remaps", m.stats().bank_remaps),
        (_, false) => Check::fail(
            "self-test/chaos-remap-lost-write",
            subject,
            "control injectivity detector fired — not specific",
            vec![],
        ),
        (words, true) => Check::fail(
            "self-test/chaos-remap-lost-write",
            subject,
            "skipped copy did not lose exactly word 2 — the detector is vacuous",
            vec![format!("lost words: {words:?}")],
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::Status;

    #[test]
    fn default_suite_is_green() {
        let checks = verify(&ChaosSpec::default(), false);
        for check in &checks {
            assert_eq!(
                check.status,
                Status::Pass,
                "{} ({}): {}",
                check.name,
                check.subject,
                check.detail
            );
        }
        // The default rotation must actually exercise the parallel
        // engine (and its non-vacuousness check must have fired).
        let parallel = checks
            .iter()
            .filter(|c| c.name == "chaos/engine-parallel")
            .count();
        assert!(
            parallel >= 2,
            "expected at least two parallel-engine soaks, got {parallel}"
        );
    }

    #[test]
    fn engine_rotation_covers_every_requested_engine() {
        let spec = ChaosSpec::default();
        let rotated: Vec<Engine> = (0..spec.seeds.len())
            .map(|i| engine_for(&spec, i))
            .collect();
        for &engine in &spec.engines {
            assert!(
                rotated.contains(&engine),
                "engine {} never rotated in",
                engine_label(engine)
            );
        }
        // An empty engine list degrades to sequential-only.
        let empty = ChaosSpec {
            engines: vec![],
            ..ChaosSpec::default()
        };
        assert_eq!(engine_for(&empty, 3), Engine::Sequential);
    }

    #[test]
    fn all_self_tests_catch_their_faults() {
        for check in self_tests() {
            assert_eq!(
                check.status,
                Status::Pass,
                "{} ({}): {}",
                check.name,
                check.subject,
                check.detail
            );
        }
    }

    #[test]
    fn coverage_counts_every_kind() {
        let check = coverage_check(&ChaosSpec::default());
        assert_eq!(check.status, Status::Pass, "{}", check.detail);
        for kind in [
            "permanent-bank-failure",
            "transient-bank-error",
            "stuck-switch",
            "dropped-response",
            "corrupted-response",
        ] {
            let count = check
                .metrics
                .iter()
                .find(|(k, _)| k == kind)
                .map(|(_, v)| *v)
                .unwrap_or(0);
            assert!(count >= 1, "kind {kind} never scheduled");
        }
    }
}
