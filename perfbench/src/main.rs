//! End-to-end and per-layer benchmark of the CFM reproduction.
//!
//! ```text
//! cfm-perfbench --workload <sim-disjoint|serve-mixed|wire-mixed>
//!               --seed <n> --seconds <s> --trace <0|1> [--corrupt <kind>]
//!               [--overlapping-writes]
//! ```
//!
//! Every workload runs on the paper's reference machine (n = 16, c = 1,
//! 64 block offsets). A run is split into [`SEGMENTS`] segments; each one
//! sets its fixture up [`SETUP_REPS`] times from scratch (each timed),
//! measures the last one for its share of `--seconds`, and tears it down.
//! Measuring in segments spread through the run averages over the host's
//! speed drift, and `setup_s` is the median of every set-up.
//!
//! With `--trace 0` the last line of standard output is the end-to-end
//! result; with `--trace 1` odd segments are traced and the last line
//! carries the per-layer metrics, including the tracing overhead measured
//! against the untraced segments. The line before it is a report with the
//! host, the sample count behind every metric and any check violation.
//! The program exits 1 when a check fails. `--corrupt` feeds the checker
//! one corrupted answer, for the self-test in `run.py`.
//! `--overlapping-writes` lets the service workloads' clients overlap
//! writes to one block, which reproduces the machine's torn-read defect
//! (see `serve::WriteGate`).
//!
//! See `perfbench/README.md` for the workloads and metrics.

mod check;
mod host;
mod intervals;
mod serve;
mod sim;
mod trace;
mod wire_mixed;

use std::time::Instant;

use cfm_core::config::{CfmConfig, Engine};

use check::{Checker, Corrupt};
use trace::Tracer;

/// Processors of the reference machine.
pub const PROCESSORS: usize = 16;
/// Bank cycle `c` of the reference machine.
pub const CLUSTER: u32 = 1;
/// Memory word width in bits.
pub const WORD_WIDTH: u32 = 16;
/// Block offsets (blocks of shared memory).
pub const OFFSETS: usize = 64;
/// Fixtures measured per run.
pub const SEGMENTS: usize = 4;
/// Fixtures set up per segment; the last one is measured. Every set-up
/// is timed, and `setup_s` is the median of all of them.
pub const SETUP_REPS: usize = 3;

/// The reference machine. Every workload uses the parallel engine with
/// one lane: the engine whose whole-window dispatch the machine's `run`
/// uses, and which the service can reach once it drives windows.
pub fn machine_config() -> CfmConfig {
    CfmConfig::new(PROCESSORS, CLUSTER, WORD_WIDTH)
        .expect("the reference machine is a valid configuration")
        .with_engine(Engine::Parallel { threads: 1 })
}

/// A seed for input stream `stream` of segment `segment` (splitmix64).
pub fn seed_of(seed: u64, segment: usize, stream: usize) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add((segment as u64) << 32 | stream as u64);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Command-line options of one run.
pub struct Opts {
    /// Input seed.
    pub seed: u64,
    /// Measured seconds, split across the segments.
    pub seconds: f64,
    /// Traced run: odd segments record spans.
    pub trace: bool,
    /// Self-test corruption fed to the checker.
    pub corrupt: Option<Corrupt>,
    /// Turn the service clients' write gate off.
    pub overlapping_writes: bool,
}

impl Opts {
    /// Whether segment `s` records spans.
    pub fn traced_segment(&self, s: usize) -> bool {
        self.trace && s % 2 == 1
    }

    /// The corruption fed to segment `s`'s checker: one per run, in the
    /// first segment.
    pub fn corrupt(&self, s: usize) -> Option<Corrupt> {
        self.corrupt.filter(|_| s == 0)
    }

    /// Measured seconds per segment.
    pub fn segment_seconds(&self) -> std::time::Duration {
        std::time::Duration::from_secs_f64(self.seconds / SEGMENTS as f64)
    }
}

/// Every end-to-end metric, in report order, with its unit. Each
/// workload reports all of them.
const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("slots_per_op", "slots"),
    ("latency_p50_us", "us"),
    ("critical_p50_us", "us"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics only `sim-disjoint` measures: the service owns its
/// machine, so the service workloads cannot time `issue` and `run`.
const SIM_LAYER: [(&str, &str); 4] = [
    ("machine.run_ns_per_slot", "ns"),
    ("machine.issue_ns", "ns"),
    ("machine.window_fraction", "ratio"),
    ("machine.slots_per_window", "slots"),
];

/// Every other per-layer metric, with its unit. A traced run reports all
/// of them; a layer a workload does not exercise reads 0.
const PER_LAYER: [(&str, &str); 24] = [
    ("machine.op_slots_p50", "slots"),
    ("machine.restarts_per_op", "ratio"),
    ("service.submit_ns_p50", "ns"),
    ("service.submit_ns_p99", "ns"),
    ("service.queued_us_p50", "us"),
    ("service.exec_us_p50", "us"),
    ("service.handoff_us_p50", "us"),
    ("service.slots_per_s", "1/s"),
    ("service.slots_per_op", "slots"),
    ("service.rejected", "count"),
    ("scheduler.critical_queued_us_p99", "us"),
    ("scheduler.share_error", "ratio"),
    ("scheduler.budget_deferrals", "count"),
    ("wire.encode_ns", "ns"),
    ("wire.decode_ns", "ns"),
    ("wire.bytes_per_op", "bytes"),
    ("edge.overhead_us_p50", "us"),
    ("edge.overhead_us_p99", "us"),
    ("edge.shed_submits", "count"),
    ("edge.rejects", "count"),
    ("edge.wire_errors", "count"),
    ("workloads.gen_ns_per_op", "ns"),
    ("host.cpu_frac", "ratio"),
    ("trace.overhead_frac", "ratio"),
];

/// `measured` in the order of `names`, checking each unit; a name the
/// workload did not measure reads 0 when `fill` allows it.
fn in_order(
    mut measured: Vec<Metric>,
    names: &[(&'static str, &'static str)],
    fill: bool,
) -> Vec<Metric> {
    let out = names
        .iter()
        .map(
            |&(name, unit)| match measured.iter().position(|m| m.name == name) {
                Some(i) => {
                    let m = measured.swap_remove(i);
                    assert_eq!(m.unit, unit, "unit of {name}");
                    m
                }
                None if fill => Metric::new(name, 0.0, unit, 0),
                None => panic!("workload did not measure {name}"),
            },
        )
        .collect();
    let extra: Vec<_> = measured.iter().map(|m| m.name).collect();
    assert!(extra.is_empty(), "unlisted metrics {extra:?}");
    out
}

/// One reported metric.
pub struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
    samples: u64,
}

impl Metric {
    /// A metric measured over `samples` samples.
    pub fn new(name: &'static str, value: f64, unit: &'static str, samples: u64) -> Self {
        Metric {
            name,
            value,
            unit,
            samples,
        }
    }

    /// `setup_s`: the median of the segments' set-up times.
    pub fn median_setup(setups: &[f64]) -> Self {
        Metric::new("setup_s", median(setups), "s", setups.len() as u64)
    }
}

/// Median of a non-empty sample.
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// What a workload run produced.
pub struct Outcome {
    /// Every client's checks, merged.
    pub checker: Checker,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced).
    pub metrics: Vec<Metric>,
    /// The spans of a traced run.
    pub tracer: Option<Tracer>,
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn usage(msg: &str) -> ! {
    eprintln!("cfm-perfbench: {msg}");
    eprintln!(
        "usage: cfm-perfbench --workload <sim-disjoint|serve-mixed|wire-mixed> \
         --seed <n> --seconds <s> --trace <0|1> [--corrupt <stale-read|torn|duplicate|lost>] \
         [--overlapping-writes]"
    );
    std::process::exit(2)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut opts = Opts {
        seed: 1,
        seconds: 10.0,
        trace: false,
        corrupt: None,
        overlapping_writes: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--overlapping-writes" {
            opts.overlapping_writes = true;
            continue;
        }
        let value = it
            .next()
            .unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => opts.seed = value.parse().unwrap_or_else(|_| usage("bad --seed")),
            "--seconds" => {
                opts.seconds = value.parse().unwrap_or_else(|_| usage("bad --seconds"));
                if !(opts.seconds > 0.0 && opts.seconds <= 120.0) {
                    usage("--seconds must be in (0, 120]");
                }
            }
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace takes 0 or 1"),
                }
            }
            "--corrupt" => {
                opts.corrupt = Some(
                    Corrupt::ALL
                        .iter()
                        .find(|(n, _)| n == value)
                        .map(|(_, c)| *c)
                        .unwrap_or_else(|| usage("unknown --corrupt kind")),
                )
            }
            _ => usage(&format!("unknown flag {flag}")),
        }
    }
    let workload = workload.unwrap_or_else(|| usage("--workload is required"));

    let load_before = host::load1();
    let origin = Instant::now();
    let cpu0 = host::cpu_seconds();
    let mut outcome = match workload.as_str() {
        "sim-disjoint" => sim::run(&opts, origin),
        "serve-mixed" => serve::run(&opts, origin),
        "wire-mixed" => wire_mixed::run(&opts, origin),
        other => usage(&format!("unknown workload {other}")),
    };
    let wall = origin.elapsed().as_secs_f64();
    if opts.trace {
        let cpu_frac = (host::cpu_seconds() - cpu0) / wall;
        outcome
            .metrics
            .push(Metric::new("host.cpu_frac", cpu_frac, "ratio", 1));
    } else {
        outcome
            .metrics
            .push(Metric::new("peak_rss_mb", host::peak_rss_mib(), "MiB", 1));
    }

    outcome.metrics = if opts.trace {
        let sim = if workload == "sim-disjoint" {
            &SIM_LAYER[..]
        } else {
            &[]
        };
        let names: Vec<_> = sim.iter().chain(&PER_LAYER).copied().collect();
        in_order(outcome.metrics, &names, true)
    } else {
        in_order(outcome.metrics, &END_TO_END, false)
    };

    let mut spans_file = String::new();
    if let Some(tracer) = &outcome.tracer {
        let path = std::path::PathBuf::from(".bench_traces")
            .join(format!("{workload}-seed{}.json", opts.seed));
        match tracer.write(&path) {
            Ok(()) => spans_file = path.display().to_string(),
            Err(e) => eprintln!("cfm-perfbench: could not write spans: {e}"),
        }
    }

    let (correct, violations) = outcome.checker.verdict();
    for m in &outcome.metrics {
        eprintln!(
            "{workload:>13} {:<34} {:>14.4} {:<6} (n={})",
            m.name, m.value, m.unit, m.samples
        );
    }
    for v in &violations {
        eprintln!("{workload:>13} CHECK FAILED: {v}");
    }
    let samples: Vec<String> = outcome
        .metrics
        .iter()
        .map(|m| format!("{}: {}", json_str(m.name), m.samples))
        .collect();
    let violations_json: Vec<String> = violations.iter().map(|v| json_str(v)).collect();
    println!(
        "{{\"report\": {{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, {}, \"samples\": {{{}}}, \"violations\": [{}], \"spans_file\": {}}}}}",
        json_str(&workload),
        opts.seed,
        opts.seconds,
        u8::from(opts.trace),
        host::describe(load_before),
        samples.join(", "),
        violations_json.join(", "),
        json_str(&spans_file),
    );
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "{}: {{\"value\": {value}, \"unit\": {}}}",
                json_str(m.name),
                json_str(m.unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.checker.attempted(),
        outcome.checker.failed(),
        metrics.join(", ")
    );
    if !correct {
        std::process::exit(1);
    }
}
