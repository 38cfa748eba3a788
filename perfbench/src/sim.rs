//! `sim-disjoint`: one thread drives the machine directly through
//! `CfmMachine::issue` and `CfmMachine::run`, with no service, scheduler,
//! wire or edge in the path.
//!
//! Every processor alternates a write and a read of its own block, so
//! every batch is hazard-free and the machine's dynamic window path does
//! most of the slots. A batch issues one operation per processor and runs
//! the machine until it is idle. Every [`PROBE_EVERY`] batches processor
//! 0 issues one read alone on the idle machine: the critical probe, which
//! measures `run`'s cost for a single operation rather than its
//! throughput.

use std::time::{Duration, Instant};

use cfm_core::machine::CfmMachine;
use cfm_core::op::Operation;
use cfm_core::Word;
use cfm_workloads::tenants::{TenantProfile, TenantTraffic};

use crate::check::Checker;
use crate::intervals::{Rate, Series};
use crate::trace::Tracer;
use crate::{
    machine_config, seed_of, Metric, Opts, Outcome, OFFSETS, PROCESSORS, SEGMENTS, SETUP_REPS,
};

/// Every this many-th batch is a lone probe read.
const PROBE_EVERY: u64 = 16;
/// Batches run during set-up, before timing starts.
const WARM_BATCHES: u64 = 4_000;
/// Slot budget per `run` call; a batch needs a few dozen.
const RUN_BUDGET: u64 = 1 << 16;

/// One segment's machine and client state.
struct Sim {
    m: CfmMachine,
    gens: Vec<TenantTraffic>,
    write_next: Vec<bool>,
    inflight: Vec<Option<Operation>>,
    batches: u64,
    segment: u64,
}

/// What the timed part of the segments measured.
#[derive(Default)]
struct Tally {
    ops: u64,
    wall_s: f64,
    rate: Rate,
    round_lat: Series,
    probe_lat: Series,
    op_slots: Series,
    slots: u64,
    window_slots: u64,
    dynamic_slots: u64,
    dynamic_windows: u64,
    restarts: u64,
    completed: u64,
}

impl Sim {
    fn new(seed: u64, segment: usize) -> Self {
        let cfg = machine_config();
        let banks = cfg.banks();
        Sim {
            m: CfmMachine::builder(cfg).offsets(OFFSETS).build(),
            // One seeded write-data stream per processor; the processor
            // maps it onto its own block.
            gens: (0..PROCESSORS)
                .map(|p| {
                    TenantTraffic::new(
                        TenantProfile::Uniform {
                            write_fraction: 1.0,
                        },
                        1,
                        banks,
                        seed_of(seed, segment, p),
                    )
                })
                .collect(),
            write_next: vec![true; PROCESSORS],
            inflight: vec![None; PROCESSORS],
            batches: 0,
            segment: segment as u64,
        }
    }

    fn next_op(&mut self, p: usize, tr: &mut Option<&mut Tracer>, req: u64) -> Operation {
        let write = self.write_next[p];
        self.write_next[p] = !write;
        if !write {
            return Operation::read(p);
        }
        let t0 = Instant::now();
        let data: Vec<Word> = match self.gens[p].tick() {
            Some(Operation::Write { data, .. }) => data.into_vec(),
            other => unreachable!("write-only stream offered {other:?}"),
        };
        if let Some(tr) = tr {
            tr.span("workloads.gen", Some("sim.batch"), req, t0, Instant::now());
        }
        Operation::write(p, data)
    }

    /// Issue every processor's next operation (or, for the probe, a lone
    /// read of processor 0's block), run the machine to idle, and check
    /// every completion, recording its slots in `op_slots`. Returns the
    /// client-observed batch latency.
    fn batch(
        &mut self,
        probe: bool,
        ck: &mut Checker,
        tr: &mut Option<&mut Tracer>,
        mut op_slots: Option<&mut Series>,
    ) -> Duration {
        let req = self.segment << 40 | self.batches;
        self.batches += 1;
        let t0 = Instant::now();
        for p in 0..if probe { 1 } else { PROCESSORS } {
            let op = if probe {
                Operation::read(p)
            } else {
                self.next_op(p, tr, req)
            };
            self.inflight[p] = Some(op.clone());
            ck.attempt();
            let ti = Instant::now();
            let issued = self.m.issue(p, op);
            if let Some(tr) = tr {
                tr.span("machine.issue", Some("sim.batch"), req, ti, Instant::now());
            }
            if let Err(e) = issued {
                ck.refused(&format!("issue on processor {p}: {e:?}"));
                self.inflight[p] = None;
            }
        }
        let tr0 = Instant::now();
        let report = self.m.run(RUN_BUDGET);
        let t1 = Instant::now();
        if let Some(tr) = tr {
            tr.span("machine.run", Some("sim.batch"), req, tr0, t1);
            tr.span("sim.batch", None, req, t0, t1);
        }
        if !report.is_idle() {
            ck.violation(format!(
                "run left {} operations pending",
                report.pending().len()
            ));
        }
        for c in &report.completions {
            match self.inflight[c.proc].take() {
                Some(op) => ck.answer(&op, c),
                None => ck.violation(format!("unrequested completion on processor {}", c.proc)),
            }
            if let Some(s) = op_slots.as_deref_mut() {
                s.record(c.completed_at - c.issued_at, t1);
            }
        }
        t1 - t0
    }
}

/// The machine-level checks of `sim`, then fold `ck` into `checker`.
fn check(checker: &mut Checker, mut ck: Checker, sim: &Sim) {
    let stats = sim.m.stats();
    ck.finish(stats.bank_conflicts, stats.torn_reads, 0);
    checker.merge(&ck);
}

fn segment(
    opts: &Opts,
    segment: usize,
    tally: &mut Tally,
    tr: &mut Option<&mut Tracer>,
    checker: &mut Checker,
) -> Vec<f64> {
    let mut setups = Vec::new();
    let (mut sim, mut ck) = loop {
        let t = Instant::now();
        let mut sim = Sim::new(opts.seed, segment);
        let mut ck = Checker::new(0..PROCESSORS, sim.m.config().banks());
        for _ in 0..WARM_BATCHES {
            sim.batch(false, &mut ck, &mut None, None);
        }
        setups.push(t.elapsed().as_secs_f64());
        if setups.len() == SETUP_REPS {
            break (sim, ck);
        }
        check(checker, ck, &sim);
    };
    ck.corrupt_next(opts.corrupt(segment));
    let (cycle0, dyn0, win0, stat0) = (
        sim.m.cycle(),
        sim.m.dynamic_slots(),
        sim.m.dynamic_windows(),
        sim.m.static_slots(),
    );
    let stats0 = *sim.m.stats();
    let dur = opts.segment_seconds();
    let start = Instant::now();
    let mut rate = Rate::new(start);
    let (mut round_lat, mut probe_lat) = (Series::new(start), Series::new(start));
    // Completion slots are kept only when tracing: they are a per-layer
    // metric, and a sample per operation is memory `peak_rss_mb` would
    // count.
    let mut op_slots = tr.is_some().then(|| Series::new(start));
    let mut ops = 0u64;
    // Full batches alternate between all writes and all reads: two
    // latency modes, equally common, that a median over batches would
    // jump between. A latency sample is a round instead, a write batch
    // and the read batch after it.
    let mut write_lat = None;
    loop {
        let now = Instant::now();
        if now - start >= dur {
            break;
        }
        let writes = sim.write_next[0];
        let lat = sim.batch(false, &mut ck, tr, op_slots.as_mut());
        if writes {
            write_lat = Some(lat);
        } else if let Some(w) = write_lat.take() {
            round_lat.record((w + lat).as_nanos() as u64, now + lat);
        }
        rate.add(PROCESSORS as u64, now + lat);
        ops += PROCESSORS as u64;
        if sim.batches.is_multiple_of(PROBE_EVERY) {
            let now = Instant::now();
            let lat = sim.batch(true, &mut ck, tr, op_slots.as_mut());
            probe_lat.record(lat.as_nanos() as u64, now + lat);
            rate.add(1, now + lat);
            ops += 1;
        }
    }
    tally.wall_s += start.elapsed().as_secs_f64();
    tally.rate.merge(rate);
    tally.round_lat.merge(round_lat);
    tally.probe_lat.merge(probe_lat);
    if let Some(s) = op_slots {
        tally.op_slots.merge(s);
    }
    tally.ops += ops;
    let stats = sim.m.stats();
    tally.slots += sim.m.cycle() - cycle0;
    tally.dynamic_slots += sim.m.dynamic_slots() - dyn0;
    tally.dynamic_windows += sim.m.dynamic_windows() - win0;
    tally.window_slots += sim.m.dynamic_slots() - dyn0 + sim.m.static_slots() - stat0;
    tally.restarts += restarts(stats) - restarts(&stats0);
    tally.completed += stats.completed - stats0.completed;
    check(checker, ck, &sim);
    setups
}

fn restarts(s: &cfm_core::stats::Stats) -> u64 {
    s.read_restarts + s.write_restarts + s.swap_restarts
}

/// Run the workload.
pub fn run(opts: &Opts, origin: Instant) -> Outcome {
    let mut plain = Tally::default();
    let mut traced = Tally::default();
    let mut tracer = Tracer::new(origin);
    let mut setups = Vec::new();
    let mut checker = Checker::new(0..0, 0);
    for s in 0..SEGMENTS {
        let on = opts.traced_segment(s);
        let (tally, mut tr) = if on {
            (&mut traced, Some(&mut tracer))
        } else {
            (&mut plain, None)
        };
        setups.extend(segment(opts, s, tally, &mut tr, &mut checker));
    }
    let ops_per_s = |t: &Tally| t.ops as f64 / t.wall_s;
    let metrics = if opts.trace {
        let t = &traced;
        let (run, issue, gen) = (
            tracer.agg("machine.run"),
            tracer.agg("machine.issue"),
            tracer.agg("workloads.gen"),
        );
        vec![
            Metric::new(
                "machine.run_ns_per_slot",
                run.total_ns as f64 / t.slots as f64,
                "ns",
                t.slots,
            ),
            Metric::new("machine.issue_ns", issue.mean_ns(), "ns", issue.count),
            Metric::new(
                "machine.window_fraction",
                t.window_slots as f64 / t.slots as f64,
                "ratio",
                t.slots,
            ),
            Metric::new(
                "machine.slots_per_window",
                t.dynamic_slots as f64 / t.dynamic_windows.max(1) as f64,
                "slots",
                t.dynamic_windows,
            ),
            Metric::new(
                "machine.op_slots_p50",
                t.op_slots.p50(),
                "slots",
                t.op_slots.intervals(),
            ),
            Metric::new(
                "machine.restarts_per_op",
                t.restarts as f64 / t.completed.max(1) as f64,
                "ratio",
                t.completed,
            ),
            Metric::new("workloads.gen_ns_per_op", gen.mean_ns(), "ns", gen.count),
            Metric::new(
                "trace.overhead_frac",
                1.0 - ops_per_s(&traced) / ops_per_s(&plain),
                "ratio",
                2,
            ),
        ]
    } else {
        let p = &plain;
        let (rate, n) = p.rate.median();
        vec![
            Metric::median_setup(&setups),
            Metric::new("ops_per_s", rate, "1/s", n),
            Metric::new(
                "slots_per_op",
                p.slots as f64 / p.ops as f64,
                "slots",
                p.ops,
            ),
            Metric::new(
                "latency_p50_us",
                p.round_lat.p50() / 1e3,
                "us",
                p.round_lat.intervals(),
            ),
            Metric::new(
                "critical_p50_us",
                p.probe_lat.p50() / 1e3,
                "us",
                p.probe_lat.intervals(),
            ),
        ]
    };
    Outcome {
        checker,
        metrics,
        tracer: opts.trace.then_some(tracer),
    }
}
