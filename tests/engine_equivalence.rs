//! Engine equivalence: the parallel plan → execute → merge pipeline must
//! be observationally *byte-identical* to the sequential reference engine
//! — same completions, same stats, same trace event stream — for any
//! machine shape, workload, and fault plan. The property test samples that
//! space; the pinned-digest test freezes one fixed workload's parallel
//! trace so silent drift in either engine (or in the event shapes the
//! analyses depend on) fails loudly.

use conflict_free_memory::core::config::{CfmConfig, Engine};
use conflict_free_memory::core::fault::{FaultPlan, PlanParams};
use conflict_free_memory::core::machine::CfmMachine;
use conflict_free_memory::core::op::{Completion, Operation};
use conflict_free_memory::core::snapshot::MachineSnapshot;
use conflict_free_memory::core::spec::{OffsetExpr, OpPattern, OpSpec, ProgramSpec};
use conflict_free_memory::core::stats::Stats;
use conflict_free_memory::core::trace::TraceEvent;
use proptest::prelude::*;

/// Drive one machine through the script (issuing round-robin across
/// processors, draining whenever the next issuer is busy) and return
/// everything externally observable. Each script word packs one issue:
/// low byte selects the op kind, the next byte the block offset, the
/// rest the written value.
fn drive(
    engine: Engine,
    n: usize,
    c: u32,
    offsets: usize,
    script: &[u64],
    fault_seed: Option<u64>,
) -> (Vec<Completion>, Stats, Vec<TraceEvent>) {
    let cfg = CfmConfig::new(n, c, 16)
        .unwrap()
        .with_spares(1)
        .unwrap()
        .with_engine(engine);
    let b = cfg.banks();
    let mut m = CfmMachine::builder(cfg)
        .offsets(offsets)
        .trace(true)
        .build();
    if let Some(seed) = fault_seed {
        m.injector().fault_plan(FaultPlan::generate(
            seed,
            &PlanParams {
                banks: b,
                processors: n,
                horizon: 64,
                permanent: 1,
                transient: 2,
                max_repair: 4,
                responses: 1,
                stuck: 0,
            },
        ));
    }
    let mut completions = Vec::new();
    for (i, &word) in script.iter().enumerate() {
        let p = i % n;
        if m.is_busy(p) {
            completions.extend(m.run(200_000).expect_idle());
        }
        let offset = (word >> 8) as usize % offsets;
        let val = word >> 16;
        let op = match word % 4 {
            0 => Operation::read(offset),
            1 => Operation::write(offset, vec![val; b]),
            2 => Operation::swap(offset, vec![val ^ 0xA5A5; b]),
            _ => Operation::fetch_add(offset, val as usize % b, val | 1),
        };
        m.issue(p, op).unwrap();
    }
    completions.extend(m.run(200_000).expect_idle());
    (
        completions,
        *m.stats(),
        m.take_trace().unwrap().into_events(),
    )
}

proptest! {
    /// Random `(n, c, threads, program, fault plan)` → both engines
    /// produce identical completion streams, statistics, and traces.
    /// `fault_sel` past the seed range means "no fault plan".
    #[test]
    fn parallel_engine_is_equivalent_to_sequential(
        n in 2usize..9,
        c in 1u32..3,
        threads in 1usize..5,
        script in proptest::collection::vec(0u64..u64::MAX, 1..40),
        fault_sel in 0u64..2_000,
    ) {
        let fault_seed = (fault_sel < 1_000).then_some(fault_sel);
        let seq = drive(Engine::Sequential, n, c, 8, &script, fault_seed);
        let par = drive(Engine::Parallel { threads }, n, c, 8, &script, fault_seed);
        prop_assert_eq!(&seq.0, &par.0, "completions diverged");
        prop_assert_eq!(&seq.1, &par.1, "stats diverged");
        prop_assert_eq!(&seq.2, &par.2, "traces diverged");
    }
}

/// Decode packed words into an analyzable program spec (round-robin
/// across processors; see `tests/static_analysis.rs` for the scheme).
fn decode_program(n: usize, rounds: usize, words: &[u64], offsets: usize) -> ProgramSpec {
    let mut spec = ProgramSpec::uniform("equiv", n, rounds, Vec::new());
    spec.ops = vec![Vec::new(); n];
    for (i, &word) in words.iter().enumerate() {
        let pattern = match word % 4 {
            0 => OpPattern::Read,
            1 => OpPattern::Write,
            2 => OpPattern::Swap,
            _ => OpPattern::FetchAdd,
        };
        let base = (word >> 2) as usize % offsets;
        let offset = if (word >> 7) & 1 == 0 {
            OffsetExpr::Const(base)
        } else {
            OffsetExpr::ProcLinear {
                base,
                stride: (word >> 5) as usize % 3,
            }
        };
        spec.ops[i % n].push(OpSpec::new(pattern, offset));
    }
    spec
}

/// Everything [`drive_spec`] observes about one run: completions, stats,
/// the trace, and the dynamic-window slot counter.
type SpecRun = (Vec<Completion>, Stats, Vec<TraceEvent>, u64);

/// Drive one machine through an instantiated program spec — issuing
/// each processor's next operation whenever it is idle, then `run()`
/// to idle so window dispatch can engage — optionally under a
/// generated fault plan.
fn drive_spec(
    engine: Engine,
    n: usize,
    c: u32,
    offsets: usize,
    spec: &ProgramSpec,
    fault_seed: Option<u64>,
) -> SpecRun {
    let cfg = CfmConfig::new(n, c, 16)
        .unwrap()
        .with_spares(1)
        .unwrap()
        .with_engine(engine);
    let b = cfg.banks();
    let mut m = CfmMachine::builder(cfg)
        .offsets(offsets)
        .trace(true)
        .build();
    if let Some(seed) = fault_seed {
        m.injector().fault_plan(FaultPlan::generate(
            seed,
            &PlanParams {
                banks: b,
                processors: n,
                horizon: 64,
                permanent: 1,
                transient: 2,
                max_repair: 4,
                responses: 1,
                stuck: 0,
            },
        ));
    }
    let mut scripts: Vec<std::collections::VecDeque<_>> = (0..n)
        .map(|p| spec.instantiate(p, b, offsets).into())
        .collect();
    let mut completions = Vec::new();
    while scripts.iter().any(|s| !s.is_empty()) {
        for (p, script) in scripts.iter_mut().enumerate() {
            if !m.is_busy(p) {
                if let Some(op) = script.pop_front() {
                    m.issue(p, op).unwrap();
                }
            }
        }
        completions.extend(m.run(200_000).expect_idle());
    }
    (
        completions,
        *m.stats(),
        m.take_trace().unwrap().into_events(),
        m.dynamic_slots(),
    )
}

proptest! {
    /// Every decoded program spec, driven through `run()` on the
    /// parallel engine, must not change a single observable byte
    /// relative to the sequential engine — completions, stats and the
    /// full trace — with or without a fault plan. `fault_sel` past the
    /// seed range means "no fault plan".
    #[test]
    fn spec_driven_run_is_equivalent_to_sequential(
        n in 2usize..7,
        c in 1u32..3,
        threads in 1usize..5,
        rounds in 1usize..3,
        words in proptest::collection::vec(0u64..u64::MAX, 2..20),
        fault_sel in 0u64..2_000,
    ) {
        let spec = decode_program(n, rounds, &words, 8);
        let fault_seed = (fault_sel < 1_000).then_some(fault_sel);
        let seq = drive_spec(Engine::Sequential, n, c, 8, &spec, fault_seed);
        let par = drive_spec(Engine::Parallel { threads }, n, c, 8, &spec, fault_seed);
        prop_assert_eq!(&seq.0, &par.0, "completions diverged");
        prop_assert_eq!(&seq.1, &par.1, "stats diverged");
        prop_assert_eq!(&seq.2, &par.2, "traces diverged");
        prop_assert_eq!(seq.3, 0, "sequential engine takes no windows");
    }
}

/// The fixed anchor of the spec-driven property: the disjoint
/// `ProcLinear { stride: 1 }` write/read program must run through the
/// window path (`dynamic_slots() > 0`) and stay byte-identical to the
/// sequential engine.
#[test]
fn disjoint_spec_engages_the_window_path() {
    let own = OffsetExpr::ProcLinear { base: 0, stride: 1 };
    let spec = ProgramSpec::uniform(
        "disjoint",
        4,
        3,
        vec![
            OpSpec::new(OpPattern::Write, own),
            OpSpec::new(OpPattern::Read, own),
        ],
    );
    let seq = drive_spec(Engine::Sequential, 4, 1, 8, &spec, None);
    let par = drive_spec(Engine::Parallel { threads: 2 }, 4, 1, 8, &spec, None);
    assert_eq!(seq.0, par.0, "completions diverged");
    assert_eq!(seq.1, par.1, "stats diverged");
    assert_eq!(seq.2, par.2, "traces diverged");
    assert!(par.3 > 0, "no window dispatched — the property is vacuous");
}

/// Everything [`drive_windowed`] observes about one run: completions,
/// stats, the full memory image, the trace digest, and the
/// `(dynamic_slots, dynamic_windows)` counters.
type WindowedRun = (Vec<Completion>, Stats, Vec<Vec<u64>>, u64, (u64, u64));

/// Drive one machine through the script with a *bounded* cycle budget
/// per `run` call — small budgets cap the dynamic window width, so the
/// sample space covers every window size from "barely engages" to "the
/// whole phase in one handoff". Halfway through the script the machine
/// is round-tripped through the full snapshot byte codec (trace drained
/// and concatenated across the seam), which lands mid-phase — in-flight
/// operations and the window counters must survive restore and the
/// resumed run must stay byte-identical. Returns completions, stats,
/// the full memory image, the trace digest, and the dynamic-window
/// counters.
fn drive_windowed(
    engine: Engine,
    n: usize,
    c: u32,
    offsets: usize,
    script: &[u64],
    fault_seed: Option<u64>,
    budget: u64,
) -> WindowedRun {
    let cfg = CfmConfig::new(n, c, 16)
        .unwrap()
        .with_spares(1)
        .unwrap()
        .with_engine(engine);
    let b = cfg.banks();
    let mut m = CfmMachine::builder(cfg)
        .offsets(offsets)
        .trace(true)
        .build();
    if let Some(seed) = fault_seed {
        m.injector().fault_plan(FaultPlan::generate(
            seed,
            &PlanParams {
                banks: b,
                processors: n,
                horizon: 64,
                permanent: 1,
                transient: 2,
                max_repair: 4,
                responses: 1,
                stuck: 0,
            },
        ));
    }
    let mut completions = Vec::new();
    let mut events: Vec<TraceEvent> = Vec::new();
    let mut guard = 0u32;
    for (i, &word) in script.iter().enumerate() {
        let p = i % n;
        while m.is_busy(p) {
            completions.extend(m.run(budget).completions);
            guard += 1;
            assert!(guard < 1_000_000, "machine failed to make progress");
        }
        if i == script.len() / 2 {
            if let Some(tr) = m.drain_trace() {
                events.extend(tr.into_events());
            }
            let bytes = m.checkpoint().to_bytes();
            m = MachineSnapshot::from_bytes(&bytes)
                .expect("snapshot decodes")
                .restore()
                .expect("same-shape snapshot restores");
        }
        let offset = (word >> 8) as usize % offsets;
        let val = word >> 16;
        let op = match word % 4 {
            0 => Operation::read(offset),
            1 => Operation::write(offset, vec![val; b]),
            2 => Operation::swap(offset, vec![val ^ 0xA5A5; b]),
            _ => Operation::fetch_add(offset, val as usize % b, val | 1),
        };
        m.issue(p, op).unwrap();
    }
    while !m.is_idle() {
        completions.extend(m.run(budget).completions);
        guard += 1;
        assert!(guard < 1_000_000, "machine failed to make progress");
    }
    let memory = (0..offsets).map(|o| m.peek_block(o)).collect();
    events.extend(m.take_trace().unwrap().into_events());
    (
        completions,
        *m.stats(),
        memory,
        trace_digest(&events),
        (m.dynamic_slots(), m.dynamic_windows()),
    )
}

proptest! {
    /// Random `(n, c, threads, window-size cap, program, fault plan)` →
    /// the window path (every window proven by the runtime hazard scan)
    /// must be byte-identical to the
    /// sequential engine — completions, stats, the full memory image
    /// and the trace digest — through a mid-run snapshot/restore
    /// round-trip. `fault_sel` past the seed range means "no fault
    /// plan".
    #[test]
    fn dynamic_window_engine_is_equivalent_to_sequential(
        n in 2usize..9,
        c in 1u32..3,
        threads in 1usize..5,
        budget in 2u64..96,
        script in proptest::collection::vec(0u64..u64::MAX, 1..32),
        fault_sel in 0u64..2_000,
    ) {
        let fault_seed = (fault_sel < 1_000).then_some(fault_sel);
        let seq = drive_windowed(Engine::Sequential, n, c, 8, &script, fault_seed, budget);
        let par = drive_windowed(
            Engine::Parallel { threads },
            n,
            c,
            8,
            &script,
            fault_seed,
            budget,
        );
        prop_assert_eq!(&seq.0, &par.0, "completions diverged");
        prop_assert_eq!(&seq.1, &par.1, "stats diverged");
        prop_assert_eq!(&seq.2, &par.2, "memory diverged");
        prop_assert_eq!(seq.3, par.3, "trace digests diverged");
        prop_assert_eq!(seq.4, (0, 0), "sequential engine takes no windows");
    }
}

/// Everything [`drive_stepped`] observes about one run: completions,
/// the processors each step delivered to, stats, and the trace digest.
type SteppedRun = (Vec<Completion>, Vec<Vec<usize>>, Stats, u64);

/// Drive one machine slot by slot through the script (issuing
/// round-robin, stepping while the next issuer is busy), checking after
/// every `step()` that `delivered()` names exactly the processors whose
/// `poll` then yields a completion, in ascending order. Halfway through
/// the script the machine round-trips through the snapshot byte codec,
/// right after a step, so operations may be draining across the seam.
fn drive_stepped(
    engine: Engine,
    n: usize,
    c: u32,
    offsets: usize,
    script: &[u64],
    fault_seed: Option<u64>,
) -> SteppedRun {
    let cfg = CfmConfig::new(n, c, 16)
        .unwrap()
        .with_spares(1)
        .unwrap()
        .with_engine(engine);
    let b = cfg.banks();
    let mut m = CfmMachine::builder(cfg)
        .offsets(offsets)
        .trace(true)
        .build();
    if let Some(seed) = fault_seed {
        m.injector().fault_plan(FaultPlan::generate(
            seed,
            &PlanParams {
                banks: b,
                processors: n,
                horizon: 64,
                permanent: 1,
                transient: 2,
                max_repair: 4,
                responses: 2,
                stuck: 0,
            },
        ));
    }
    let mut completions = Vec::new();
    let mut delivered = Vec::new();
    let mut events: Vec<TraceEvent> = Vec::new();
    let mut step = |m: &mut CfmMachine| {
        m.step();
        let named = m.delivered().to_vec();
        let mut polled = Vec::new();
        for p in 0..n {
            if let Some(c) = m.poll(p) {
                polled.push(p);
                completions.push(c);
            }
            assert!(m.poll(p).is_none(), "one completion per processor per slot");
        }
        assert_eq!(named, polled, "delivered() disagrees with poll");
        delivered.push(named);
        assert!(
            delivered.len() < 1_000_000,
            "machine failed to make progress"
        );
    };
    for (i, &word) in script.iter().enumerate() {
        let p = i % n;
        while m.is_busy(p) {
            step(&mut m);
        }
        if i == script.len() / 2 {
            if let Some(tr) = m.drain_trace() {
                events.extend(tr.into_events());
            }
            let bytes = m.checkpoint().to_bytes();
            m = MachineSnapshot::from_bytes(&bytes)
                .expect("snapshot decodes")
                .restore()
                .expect("same-shape snapshot restores");
        }
        let offset = (word >> 8) as usize % offsets;
        let val = word >> 16;
        let op = match word % 4 {
            0 => Operation::read(offset),
            1 => Operation::write(offset, vec![val; b]),
            2 => Operation::swap(offset, vec![val ^ 0xA5A5; b]),
            _ => Operation::fetch_add(offset, val as usize % b, val | 1),
        };
        m.issue(p, op).unwrap();
    }
    while !m.is_idle() {
        step(&mut m);
    }
    events.extend(m.take_trace().unwrap().into_events());
    (completions, delivered, *m.stats(), trace_digest(&events))
}

proptest! {
    /// Random `(n, c, program, fault plan)` → slot by slot, `delivered()`
    /// names exactly the processors with a new completion under the
    /// sequential engine and the parallel engine with one and two lanes,
    /// through response faults and a mid-run snapshot/restore; and all
    /// three agree with each other step for step. `fault_sel` past the
    /// seed range means "no fault plan".
    #[test]
    fn delivered_matches_poll_on_every_engine(
        n in 2usize..9,
        c in 1u32..3,
        script in proptest::collection::vec(0u64..u64::MAX, 1..40),
        fault_sel in 0u64..2_000,
    ) {
        let fault_seed = (fault_sel < 1_000).then_some(fault_sel);
        let seq = drive_stepped(Engine::Sequential, n, c, 8, &script, fault_seed);
        for threads in [1, 2] {
            let par = drive_stepped(Engine::Parallel { threads }, n, c, 8, &script, fault_seed);
            prop_assert_eq!(&seq.0, &par.0, "completions diverged");
            prop_assert_eq!(&seq.1, &par.1, "delivered records diverged");
            prop_assert_eq!(&seq.2, &par.2, "stats diverged");
            prop_assert_eq!(seq.3, par.3, "trace digests diverged");
        }
    }
}

/// FNV-1a over the debug rendering of every trace event — a stable,
/// dependency-free byte digest of the trace stream.
fn trace_digest(events: &[TraceEvent]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for e in events {
        for byte in format!("{e:?}\n").as_bytes() {
            hash ^= u64::from(*byte);
            hash = hash.wrapping_mul(0x1_0000_0000_01b3);
        }
    }
    hash
}

/// The fixed workload for the pinned regression: every op kind, some
/// same-block contention (hazard → sequential fallback), plus a seeded
/// fault plan.
fn pinned_script() -> Vec<u64> {
    (0..32u64)
        .map(|i| (i % 4) | ((i % 5) << 8) | ((i.wrapping_mul(0x9E37_79B9) | 1) << 16))
        .collect()
}

/// Frozen observables of [`pinned_parallel_trace_bytes`] — re-pin only on
/// a deliberate engine or trace-shape change (the failure message prints
/// the new values).
const PINNED_LEN: usize = 540;
const PINNED_DIGEST: u64 = 0x5db1_f1b3_d7b5_cfbd;

/// Byte-pinned trace regression: the parallel engine's trace for a fixed
/// workload — digest and length frozen. If this fails, either an engine
/// changed observable behaviour or a [`TraceEvent`] shape changed; both
/// must be deliberate.
#[test]
fn pinned_parallel_trace_bytes() {
    let seq = drive(Engine::Sequential, 4, 1, 8, &pinned_script(), Some(7));
    let par = drive(
        Engine::Parallel { threads: 2 },
        4,
        1,
        8,
        &pinned_script(),
        Some(7),
    );
    assert_eq!(seq.2, par.2, "engines diverged on the pinned workload");
    let digest = trace_digest(&par.2);
    assert_eq!(
        (par.2.len(), digest),
        (PINNED_LEN, PINNED_DIGEST),
        "pinned trace drifted: len {}, digest {:#018x}",
        par.2.len(),
        digest,
    );
}
