//! Core-engine throughput: sequential vs parallel engine.
//!
//! Soaks a steady disjoint-block workload (every processor continuously
//! re-issuing reads/writes of its own block — the conflict-free case the
//! parallel engine's one-pass step proves access by access) on a grid of
//! machine shapes × engines × variants (plain / traced / faulted), and
//! records simulated slots per wall-clock second into `BENCH_core.json`.
//!
//! The report includes `host_cpus` *and* `host_free_cores` (detected
//! from the 1-minute load average) because the absolute rates are only
//! comparable between hosts with the same cores free (see
//! `docs/performance.md` for how to read them).
//!
//! `--smoke` shrinks the slot budget for CI and writes
//! `BENCH_core.smoke.json` instead, leaving the full-run results alone.
//! One repetition lasts milliseconds, too short for one timing to mean
//! anything, so every row — full run or smoke — repeats at least
//! [`MIN_REPS`] times and until it has run for [`MIN_ROW_S`], the
//! engines of one shape and variant taking turns, and reports the
//! median: `slots_per_s` is the median rate and `speedup_vs_seq` the
//! median of each repetition's ratio to the sequential repetition run
//! just before it.
//!
//! Every repetition first runs one untimed warm-up generation (one
//! issue batch driven to idle), so the timed slots do not include the
//! first-use cost of the machine's buffers; the row reports that
//! generation's median wall time as `warmup_s`, keeping the cold cost
//! visible.

use std::io::Write as _;
use std::time::Instant;

use cfm_bench::print_table;
use cfm_core::config::{CfmConfig, Engine};
use cfm_core::fault::{FaultEvent, FaultKind, FaultPlan, PlanParams};
use cfm_core::machine::CfmMachine;
use cfm_core::op::Operation;

const WORD_WIDTH: u32 = 16;
const SPARES: usize = 1;

/// Machine shapes exercised: small / medium / large (single-cluster).
const SHAPES: [(usize, u32); 3] = [(16, 1), (64, 1), (256, 1)];

/// Engine grid: the sequential reference and the parallel engine (its
/// one-pass step).
const ENGINES: [(&str, Engine); 2] = [
    ("sequential", Engine::Sequential),
    ("parallel-1", Engine::Parallel { threads: 1 }),
];

/// Every variant issues a fixed per-processor block; `traced` records
/// the event trace and `faulted` runs under a seeded fault plan.
const VARIANTS: [&str; 3] = ["plain", "traced", "faulted"];

/// Minimum wall time, in seconds, each row runs for across its
/// repetitions.
const MIN_ROW_S: f64 = 0.05;

/// Repetitions every row runs at least, however long each takes.
const MIN_REPS: usize = 15;

/// Repetitions after which a row stops even short of [`MIN_ROW_S`].
const MAX_REPS: usize = 500;

struct Measured {
    shape: (usize, u32),
    variant: &'static str,
    engine: &'static str,
    reps: usize,
    slots: u64,
    wall_s: f64,
    /// Median slots per second over the repetitions.
    rate: f64,
    /// Median over the repetitions of the rate relative to the
    /// sequential repetition of the same round.
    speedup: f64,
    /// Median wall time of the untimed warm-up generation.
    warmup_s: f64,
    parallel_slots: u64,
}

struct Counters {
    /// Slots run after the warm-up generation.
    slots: u64,
    wall_s: f64,
    warmup_s: f64,
    parallel_slots: u64,
}

/// The median of `values` (the mean of the middle two for an even count).
fn median(mut values: Vec<f64>) -> f64 {
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len().is_multiple_of(2) {
        (values[mid - 1] + values[mid]) / 2.0
    } else {
        values[mid]
    }
}

impl Measured {
    /// Summarise one row's repetitions against the sequential row's,
    /// paired round by round.
    fn from_reps(
        shape: (usize, u32),
        variant: &'static str,
        engine: &'static str,
        reps: &[Counters],
        sequential: &[Counters],
    ) -> Self {
        let rate = |c: &Counters| c.slots as f64 / c.wall_s;
        Measured {
            shape,
            variant,
            engine,
            reps: reps.len(),
            slots: reps.iter().map(|c| c.slots).sum(),
            wall_s: reps.iter().map(|c| c.wall_s).sum(),
            rate: median(reps.iter().map(rate).collect()),
            speedup: median(
                reps.iter()
                    .zip(sequential)
                    .map(|(c, s)| rate(c) / rate(s))
                    .collect(),
            ),
            warmup_s: median(reps.iter().map(|c| c.warmup_s).collect()),
            parallel_slots: reps.iter().map(|c| c.parallel_slots).sum(),
        }
    }
}

/// Cores actually free right now: logical CPUs minus the 1-minute load
/// average (clamped to at least 1) — the honest denominator for reading
/// parallel speedups on a shared host.
fn detect_free_cores(host_cpus: usize) -> usize {
    let load1 = std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| {
            s.split_whitespace()
                .next()
                .and_then(|t| t.parse::<f64>().ok())
        })
        .unwrap_or(0.0);
    ((host_cpus as f64 - load1).floor().max(1.0)) as usize
}

/// The faulted variant's seeded plan over the first half of the timed
/// slots: generated from slot 0, then shifted past the `from` warm-up
/// slots so every fault strikes a timed slot.
fn fault_plan(n: usize, b: usize, from: u64, slot_budget: u64) -> FaultPlan {
    let plan = FaultPlan::generate(
        42,
        &PlanParams {
            banks: b,
            processors: n,
            horizon: slot_budget.max(4) / 2,
            permanent: 1,
            transient: 4,
            max_repair: 8,
            responses: 2,
            stuck: 0,
        },
    );
    FaultPlan::new(
        plan.events()
            .iter()
            .map(|e| FaultEvent {
                at_slot: e.at_slot + from,
                kind: match e.kind {
                    FaultKind::TransientBankError { bank, repair_slot } => {
                        FaultKind::TransientBankError {
                            bank,
                            repair_slot: repair_slot + from,
                        }
                    }
                    kind => kind,
                },
            })
            .collect(),
    )
}

fn run_one((n, c): (usize, u32), engine: Engine, variant: &str, slot_budget: u64) -> Counters {
    let cfg = CfmConfig::new(n, c, WORD_WIDTH)
        .and_then(|cfg| cfg.with_spares(SPARES))
        .expect("valid bench config")
        .with_engine(engine);
    let b = cfg.banks();
    let mut m = CfmMachine::builder(cfg)
        .offsets(n)
        .trace(variant == "traced")
        .build();
    let mut write_next = vec![true; n];
    // One generation: every idle processor issues, then `run()` drains
    // the batch to idle (or the budget).
    let mut generation = |m: &mut CfmMachine, budget: u64| {
        for (p, next) in write_next.iter_mut().enumerate() {
            if !m.is_busy(p) {
                // Each processor hammers its own block: disjoint
                // offsets, so the one-pass step proves every access —
                // the engine's best case, which is the point of the
                // comparison.
                let op = if *next {
                    Operation::write(p, vec![m.cycle() + p as u64; b])
                } else {
                    Operation::read(p)
                };
                *next = !*next;
                let _ = m.issue(p, op);
            }
        }
        let _ = m.run(budget - m.cycle());
        // Bound trace memory: the events are the cost being measured,
        // not the analysis. Discarding keeps the buffer's capacity, so
        // the measurement is the recording cost, not allocator or
        // page-fault churn.
        if variant == "traced" {
            m.discard_trace();
        }
    };
    let warm = Instant::now();
    generation(&mut m, slot_budget);
    let warmup_s = warm.elapsed().as_secs_f64();
    let warm_slots = m.cycle();
    if variant == "faulted" {
        m.injector()
            .fault_plan(fault_plan(n, b, warm_slots, slot_budget));
    }
    let m0 = m.parallel_slots();
    let budget = warm_slots + slot_budget;
    let start = Instant::now();
    while m.cycle() < budget {
        generation(&mut m, budget);
    }
    Counters {
        slots: m.cycle() - warm_slots,
        wall_s: start.elapsed().as_secs_f64(),
        warmup_s,
        parallel_slots: m.parallel_slots() - m0,
    }
}

fn json_report(
    measured: &[Measured],
    host_cpus: usize,
    host_free_cores: usize,
    slot_budget: u64,
    smoke: bool,
) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"bench\": \"bench_core\",\n");
    out.push_str(&format!("  \"host_cpus\": {host_cpus},\n"));
    out.push_str(&format!("  \"host_free_cores\": {host_free_cores},\n"));
    out.push_str(&format!("  \"smoke\": {smoke},\n"));
    out.push_str(&format!("  \"slot_budget\": {slot_budget},\n"));
    out.push_str(
        "  \"note\": \"Honest numbers for the host recorded in host_cpus/host_free_cores \
         (logical CPUs minus 1-min load average at bench start). parallel_fraction is the \
         share of slots whose every access the one-pass step proved. Each repetition times \
         the slots after one untimed warm-up generation; warmup_s is that generation's \
         median wall time. See docs/performance.md.\",\n",
    );
    out.push_str("  \"runs\": [\n");
    for (i, m) in measured.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"n\": {}, \"c\": {}, \"variant\": \"{}\", \"engine\": \"{}\", \
             \"reps\": {}, \"slots\": {}, \"wall_time_s\": {:.4}, \"slots_per_s\": {:.0}, \
             \"speedup_vs_seq\": {:.3}, \"warmup_s\": {:.6}, \"parallel_slots\": {}, \
             \"parallel_fraction\": {:.3}}}{}\n",
            m.shape.0,
            m.shape.1,
            m.variant,
            m.engine,
            m.reps,
            m.slots,
            m.wall_s,
            m.rate,
            m.speedup,
            m.warmup_s,
            m.parallel_slots,
            m.parallel_slots as f64 / m.slots.max(1) as f64,
            if i + 1 == measured.len() { "" } else { "," }
        ));
    }
    out.push_str("  ],\n");
    out.push_str(&format!(
        "  \"build\": \"{}\"\n",
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        }
    ));
    out.push_str("}\n");
    out
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let slot_budget: u64 = if smoke { 512 } else { 6000 };
    let host_cpus = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1);
    let host_free_cores = detect_free_cores(host_cpus);

    let mut measured = Vec::new();
    for shape in SHAPES {
        for variant in VARIANTS {
            // One repetition of every engine per round, so a shift in
            // host speed hits the rows of a round alike.
            let mut reps: Vec<Vec<Counters>> = ENGINES.iter().map(|_| Vec::new()).collect();
            loop {
                for ((_, engine), rows) in ENGINES.iter().zip(&mut reps) {
                    rows.push(run_one(shape, *engine, variant, slot_budget));
                }
                let least = reps
                    .iter()
                    .map(|rows| rows.iter().map(|c| c.wall_s).sum::<f64>())
                    .fold(f64::INFINITY, f64::min);
                let done = reps[0].len();
                if (least >= MIN_ROW_S && done >= MIN_REPS) || done >= MAX_REPS {
                    break;
                }
            }
            debug_assert_eq!(ENGINES[0].0, "sequential");
            for ((name, _), rows) in ENGINES.iter().zip(&reps) {
                measured.push(Measured::from_reps(shape, variant, name, rows, &reps[0]));
            }
        }
    }

    let rows: Vec<Vec<String>> = measured
        .iter()
        .map(|m| {
            vec![
                format!("n={} c={}", m.shape.0, m.shape.1),
                m.variant.to_string(),
                m.engine.to_string(),
                format!("{:.0}", m.rate),
                format!("{:.3}", m.speedup),
                format!("{:.3}", m.parallel_slots as f64 / m.slots.max(1) as f64),
            ]
        })
        .collect();
    print_table(
        &format!("Core engine throughput (host_cpus = {host_cpus}, free = {host_free_cores})"),
        &[
            "Shape",
            "Variant",
            "Engine",
            "Slots/s",
            "vs seq",
            "par fraction",
        ],
        &rows,
    );

    let json = json_report(&measured, host_cpus, host_free_cores, slot_budget, smoke);
    let path = if smoke {
        "BENCH_core.smoke.json"
    } else {
        "BENCH_core.json"
    };
    match std::fs::File::create(path).and_then(|mut f| f.write_all(json.as_bytes())) {
        Ok(()) => println!("wrote {path}"),
        Err(e) => println!("could not write {path}: {e}"),
    }
}
