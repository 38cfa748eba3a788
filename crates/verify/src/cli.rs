//! Command-line interface: argument parsing and section orchestration.
//!
//! ```text
//! cfm-verify [--sweep n=A..=B c=A..=B] [--sharers LIST]
//!            [--model procs=P blocks=B] [--variant NAME] [--max-states N]
//!            [--self-test] [--ci] [--format text|json]
//! cfm-verify trace [n=A..=B] [c=C..=D] [--sharers LIST]
//!                  [--self-test | --ci] [--format text|json]
//! ```
//!
//! With no section flag (and with `--ci`) all three static sections run
//! with defaults: the schedule sweep, the coherence model checker, and
//! the seeded-fault self-test. Naming any section flag runs only the
//! named sections. The `trace` subcommand instead runs the dynamic
//! analyses of [`crate::trace`] over real simulator executions;
//! `trace --ci` adds their seeded-fault self-tests. Exit code 0 = all
//! checks passed, 1 = a check failed, 2 = usage error.

use cfm_cache::model::{ModelConfig, ProtocolVariant};
use cfm_core::config::Engine;

use crate::analyze::AnalyzeSpec;
use crate::chaos::ChaosSpec;
use crate::coherence::CheckOptions;
use crate::edge::EdgeSpec;
use crate::report::Report;
use crate::restore::RestoreSpec;
use crate::schedule::{self, SweepSpec};
use crate::serve::ServeSpec;
use crate::trace::TraceSpec;
use crate::{analyze, chaos, coherence, edge, restore, serve, trace, USAGE};

/// Output format.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Format {
    /// Human-readable text (default).
    #[default]
    Text,
    /// Stable machine-readable JSON for CI.
    Json,
}

/// Parsed command-line options.
#[derive(Debug, Clone)]
pub struct Options {
    /// Schedule sweep spec (None = section not requested).
    pub sweep: Option<SweepSpec>,
    /// Model-checker options (None = section not requested).
    pub model: Option<CheckOptions>,
    /// Whether to run the seeded-fault self-test section.
    pub self_test: bool,
    /// Output format.
    pub format: Format,
    /// Trace-analysis spec (Some = the `trace` subcommand was used;
    /// the static sections are then skipped).
    pub trace: Option<TraceSpec>,
    /// Chaos soak spec (Some = the `chaos` subcommand was used; the
    /// static sections are then skipped).
    pub chaos: Option<ChaosSpec>,
    /// Serve soak spec (Some = the `serve` subcommand was used; the
    /// static sections are then skipped).
    pub serve: Option<ServeSpec>,
    /// Static program-analysis spec (Some = the `analyze` subcommand
    /// was used; the other sections are then skipped).
    pub analyze: Option<AnalyzeSpec>,
    /// Checkpoint/restore soak spec (Some = the `restore` subcommand
    /// was used; the other sections are then skipped).
    pub restore: Option<RestoreSpec>,
    /// Wire-edge soak spec (Some = the `edge` subcommand was used; the
    /// other sections are then skipped).
    pub edge: Option<EdgeSpec>,
    /// The `all` subcommand: run every populated section in one
    /// aggregated report instead of treating subcommand specs as
    /// exclusive.
    pub all: bool,
}

impl Default for Options {
    /// The default run: every static section with default parameters.
    fn default() -> Self {
        Options {
            sweep: Some(SweepSpec::default()),
            model: Some(CheckOptions::default()),
            self_test: true,
            format: Format::Text,
            trace: None,
            chaos: None,
            serve: None,
            analyze: None,
            restore: None,
            edge: None,
            all: false,
        }
    }
}

fn parse_usize(s: &str, what: &str) -> Result<usize, String> {
    s.parse::<usize>()
        .map_err(|_| format!("invalid {what}: {s:?}"))
}

/// Parse an engine name: `sequential` or `parallel`.
fn parse_engine(s: &str) -> Result<Engine, String> {
    match s {
        "sequential" => Ok(Engine::Sequential),
        "parallel" => Ok(Engine::Parallel { threads: 1 }),
        _ => Err(format!("unknown engine {s:?} (sequential | parallel)")),
    }
}

/// Parse `2..=16` or a bare `4` into an inclusive range.
fn parse_range(s: &str, what: &str) -> Result<(usize, usize), String> {
    if let Some((lo, hi)) = s.split_once("..=") {
        let lo = parse_usize(lo, what)?;
        let hi = parse_usize(hi, what)?;
        if lo > hi || lo == 0 {
            return Err(format!("empty or zero-based {what} range: {s:?}"));
        }
        Ok((lo, hi))
    } else {
        let v = parse_usize(s, what)?;
        if v == 0 {
            return Err(format!("{what} must be positive"));
        }
        Ok((v, v))
    }
}

/// Parse the `trace` subcommand's arguments (everything after the
/// `trace` word).
fn parse_trace(args: &[String]) -> Result<Options, String> {
    let mut spec = TraceSpec::default();
    let mut self_test = false;
    let mut format = Format::Text;
    let mut i = 0;
    while i < args.len() {
        let arg = args[i].as_str();
        if let Some(r) = arg.strip_prefix("n=") {
            let (lo, hi) = parse_range(r, "n")?;
            spec.n = lo..=hi;
        } else if let Some(r) = arg.strip_prefix("c=") {
            let (lo, hi) = parse_range(r, "c")?;
            spec.c = lo as u32..=hi as u32;
        } else {
            match arg {
                "--sharers" => {
                    i += 1;
                    let list = args
                        .get(i)
                        .ok_or("--sharers needs a comma-separated list")?;
                    let parsed: Result<Vec<usize>, String> =
                        list.split(',').map(|s| parse_usize(s, "sharers")).collect();
                    spec.sharers = parsed?;
                }
                "--engine" => {
                    i += 1;
                    let name = args.get(i).ok_or("--engine needs a name")?;
                    spec.engine = parse_engine(name)?;
                }
                "--self-test" => self_test = true,
                // The spec already defaults to the full acceptance
                // sweep; --ci only has to switch the self-tests on.
                "--ci" => self_test = true,
                "--format" => {
                    i += 1;
                    format = match args.get(i).map(String::as_str) {
                        Some("text") => Format::Text,
                        Some("json") => Format::Json,
                        other => {
                            let got = other.unwrap_or("<missing>");
                            return Err(format!("unknown format {got:?} (text | json)"));
                        }
                    };
                }
                "--help" | "-h" => return Err(USAGE.to_string()),
                other => return Err(format!("unknown trace argument {other:?}\n{USAGE}")),
            }
        }
        i += 1;
    }
    Ok(Options {
        sweep: None,
        model: None,
        self_test,
        format,
        trace: Some(spec),
        chaos: None,
        serve: None,
        analyze: None,
        restore: None,
        edge: None,
        all: false,
    })
}

/// Parse the `chaos` subcommand's arguments (everything after the
/// `chaos` word).
fn parse_chaos(args: &[String]) -> Result<Options, String> {
    let mut spec = ChaosSpec::default();
    let mut self_test = false;
    let mut format = Format::Text;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--seeds" => {
                i += 1;
                let list = args.get(i).ok_or("--seeds needs a comma-separated list")?;
                let parsed: Result<Vec<u64>, String> = list
                    .split(',')
                    .map(|s| s.parse::<u64>().map_err(|_| format!("invalid seed: {s:?}")))
                    .collect();
                spec.seeds = parsed?;
                if spec.seeds.is_empty() {
                    return Err("--seeds needs at least one seed".into());
                }
            }
            "--engines" => {
                i += 1;
                let list = args
                    .get(i)
                    .ok_or("--engines needs a comma-separated list")?;
                let parsed: Result<Vec<Engine>, String> =
                    list.split(',').map(parse_engine).collect();
                spec.engines = parsed?;
                if spec.engines.is_empty() {
                    return Err("--engines needs at least one engine".into());
                }
            }
            "--self-test" => self_test = true,
            // The default spec is already the full soak; --ci only has
            // to switch the seeded-fault self-tests on.
            "--ci" => self_test = true,
            "--format" => {
                i += 1;
                format = match args.get(i).map(String::as_str) {
                    Some("text") => Format::Text,
                    Some("json") => Format::Json,
                    other => {
                        let got = other.unwrap_or("<missing>");
                        return Err(format!("unknown format {got:?} (text | json)"));
                    }
                };
            }
            "--help" | "-h" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown chaos argument {other:?}\n{USAGE}")),
        }
        i += 1;
    }
    Ok(Options {
        sweep: None,
        model: None,
        self_test,
        format,
        trace: None,
        chaos: Some(spec),
        serve: None,
        analyze: None,
        restore: None,
        edge: None,
        all: false,
    })
}

/// Parse the `serve` subcommand's arguments (everything after the
/// `serve` word).
fn parse_serve(args: &[String]) -> Result<Options, String> {
    let mut spec = ServeSpec::default();
    let mut self_test = false;
    let mut format = Format::Text;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--seeds" => {
                i += 1;
                let list = args.get(i).ok_or("--seeds needs a comma-separated list")?;
                let parsed: Result<Vec<u64>, String> = list
                    .split(',')
                    .map(|s| s.parse::<u64>().map_err(|_| format!("invalid seed: {s:?}")))
                    .collect();
                spec.seeds = parsed?;
                if spec.seeds.is_empty() {
                    return Err("--seeds needs at least one seed".into());
                }
            }
            "--ops" => {
                i += 1;
                let v = args.get(i).ok_or("--ops needs a number")?;
                spec.ops_per_tenant = v
                    .parse::<u64>()
                    .ok()
                    .filter(|&n| n >= 1)
                    .ok_or_else(|| format!("invalid op budget: {v:?}"))?;
            }
            "--self-test" => self_test = true,
            // The default spec is already the full soak; --ci only has
            // to switch the detector self-tests on.
            "--ci" => self_test = true,
            "--format" => {
                i += 1;
                format = match args.get(i).map(String::as_str) {
                    Some("text") => Format::Text,
                    Some("json") => Format::Json,
                    other => {
                        let got = other.unwrap_or("<missing>");
                        return Err(format!("unknown format {got:?} (text | json)"));
                    }
                };
            }
            "--help" | "-h" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown serve argument {other:?}\n{USAGE}")),
        }
        i += 1;
    }
    Ok(Options {
        sweep: None,
        model: None,
        self_test,
        format,
        trace: None,
        chaos: None,
        serve: Some(spec),
        analyze: None,
        restore: None,
        edge: None,
        all: false,
    })
}

/// Parse the `analyze` subcommand's arguments (everything after the
/// `analyze` word).
fn parse_analyze(args: &[String]) -> Result<Options, String> {
    let mut spec = AnalyzeSpec::default();
    let mut self_test = false;
    let mut format = Format::Text;
    let mut i = 0;
    while i < args.len() {
        let arg = args[i].as_str();
        if let Some(r) = arg.strip_prefix("n=") {
            let (lo, hi) = parse_range(r, "n")?;
            spec.n = lo..=hi;
        } else if let Some(r) = arg.strip_prefix("c=") {
            let (lo, hi) = parse_range(r, "c")?;
            spec.c = lo as u32..=hi as u32;
        } else {
            match arg {
                // `--sweep` is accepted as a readability prefix for the
                // n=/c= pairs, mirroring the static sweep syntax.
                "--sweep" => {}
                "--offsets" => {
                    i += 1;
                    let v = args.get(i).ok_or("--offsets needs a number")?;
                    spec.offsets = parse_usize(v, "offsets")
                        .ok()
                        .filter(|&n| n >= 1)
                        .ok_or_else(|| format!("invalid block count: {v:?}"))?;
                }
                "--self-test" => self_test = true,
                // The spec already defaults to the full sweep; --ci only
                // has to switch the seeded-defect self-tests on.
                "--ci" => self_test = true,
                "--format" => {
                    i += 1;
                    format = match args.get(i).map(String::as_str) {
                        Some("text") => Format::Text,
                        Some("json") => Format::Json,
                        other => {
                            let got = other.unwrap_or("<missing>");
                            return Err(format!("unknown format {got:?} (text | json)"));
                        }
                    };
                }
                "--help" | "-h" => return Err(USAGE.to_string()),
                other => return Err(format!("unknown analyze argument {other:?}\n{USAGE}")),
            }
        }
        i += 1;
    }
    Ok(Options {
        sweep: None,
        model: None,
        self_test,
        format,
        trace: None,
        chaos: None,
        serve: None,
        analyze: Some(spec),
        restore: None,
        edge: None,
        all: false,
    })
}

/// Parse the `restore` subcommand's arguments (everything after the
/// `restore` word).
fn parse_restore(args: &[String]) -> Result<Options, String> {
    let mut spec = RestoreSpec::default();
    let mut self_test = false;
    let mut format = Format::Text;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--seeds" => {
                i += 1;
                let list = args.get(i).ok_or("--seeds needs a comma-separated list")?;
                let parsed: Result<Vec<u64>, String> = list
                    .split(',')
                    .map(|s| s.parse::<u64>().map_err(|_| format!("invalid seed: {s:?}")))
                    .collect();
                spec.seeds = parsed?;
                if spec.seeds.is_empty() {
                    return Err("--seeds needs at least one seed".into());
                }
            }
            "--ops" => {
                i += 1;
                let v = args.get(i).ok_or("--ops needs a number")?;
                spec.ops_per_tenant = v
                    .parse::<u64>()
                    .ok()
                    .filter(|&n| n >= 1)
                    .ok_or_else(|| format!("invalid op budget: {v:?}"))?;
            }
            "--self-test" => self_test = true,
            // The default spec is already the full soak; --ci only has
            // to switch the corruption self-tests on.
            "--ci" => self_test = true,
            "--format" => {
                i += 1;
                format = match args.get(i).map(String::as_str) {
                    Some("text") => Format::Text,
                    Some("json") => Format::Json,
                    other => {
                        let got = other.unwrap_or("<missing>");
                        return Err(format!("unknown format {got:?} (text | json)"));
                    }
                };
            }
            "--help" | "-h" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown restore argument {other:?}\n{USAGE}")),
        }
        i += 1;
    }
    Ok(Options {
        sweep: None,
        model: None,
        self_test,
        format,
        trace: None,
        chaos: None,
        serve: None,
        analyze: None,
        restore: Some(spec),
        edge: None,
        all: false,
    })
}

/// Parse the `edge` subcommand's arguments (everything after the
/// `edge` word).
fn parse_edge(args: &[String]) -> Result<Options, String> {
    let mut spec = EdgeSpec::default();
    let mut self_test = false;
    let mut format = Format::Text;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--seeds" => {
                i += 1;
                let list = args.get(i).ok_or("--seeds needs a comma-separated list")?;
                let parsed: Result<Vec<u64>, String> = list
                    .split(',')
                    .map(|s| s.parse::<u64>().map_err(|_| format!("invalid seed: {s:?}")))
                    .collect();
                spec.seeds = parsed?;
                if spec.seeds.is_empty() {
                    return Err("--seeds needs at least one seed".into());
                }
            }
            "--ops" => {
                i += 1;
                let v = args.get(i).ok_or("--ops needs a number")?;
                spec.ops = v
                    .parse::<u64>()
                    .ok()
                    .filter(|&n| n >= 1)
                    .ok_or_else(|| format!("invalid op budget: {v:?}"))?;
            }
            "--clients" => {
                i += 1;
                let v = args.get(i).ok_or("--clients needs a number")?;
                spec.clients = v
                    .parse::<usize>()
                    .ok()
                    .filter(|&n| n >= 1)
                    .ok_or_else(|| format!("invalid client count: {v:?}"))?;
            }
            "--self-test" => self_test = true,
            // The default spec is already the full soak; --ci only has
            // to switch the seeded wire-fault self-tests on.
            "--ci" => self_test = true,
            "--format" => {
                i += 1;
                format = match args.get(i).map(String::as_str) {
                    Some("text") => Format::Text,
                    Some("json") => Format::Json,
                    other => {
                        let got = other.unwrap_or("<missing>");
                        return Err(format!("unknown format {got:?} (text | json)"));
                    }
                };
            }
            "--help" | "-h" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown edge argument {other:?}\n{USAGE}")),
        }
        i += 1;
    }
    Ok(Options {
        sweep: None,
        model: None,
        self_test,
        format,
        trace: None,
        chaos: None,
        serve: None,
        analyze: None,
        restore: None,
        edge: Some(spec),
        all: false,
    })
}

/// Parse the `all` subcommand: every section with defaults, one
/// aggregated report — the single CI entry point.
fn parse_all(args: &[String]) -> Result<Options, String> {
    let mut self_test = false;
    let mut format = Format::Text;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--self-test" => self_test = true,
            "--ci" => self_test = true,
            "--format" => {
                i += 1;
                format = match args.get(i).map(String::as_str) {
                    Some("text") => Format::Text,
                    Some("json") => Format::Json,
                    other => {
                        let got = other.unwrap_or("<missing>");
                        return Err(format!("unknown format {got:?} (text | json)"));
                    }
                };
            }
            "--help" | "-h" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown all argument {other:?}\n{USAGE}")),
        }
        i += 1;
    }
    Ok(Options {
        sweep: Some(SweepSpec::default()),
        model: Some(CheckOptions::default()),
        self_test,
        format,
        trace: Some(TraceSpec::default()),
        chaos: Some(ChaosSpec::default()),
        serve: Some(ServeSpec::default()),
        analyze: Some(AnalyzeSpec::default()),
        restore: Some(RestoreSpec::default()),
        edge: Some(EdgeSpec::default()),
        all: true,
    })
}

/// Parse the argument list (excluding the program name).
pub fn parse(args: &[String]) -> Result<Options, String> {
    if args.first().map(String::as_str) == Some("trace") {
        return parse_trace(&args[1..]);
    }
    if args.first().map(String::as_str) == Some("chaos") {
        return parse_chaos(&args[1..]);
    }
    if args.first().map(String::as_str) == Some("serve") {
        return parse_serve(&args[1..]);
    }
    if args.first().map(String::as_str) == Some("analyze") {
        return parse_analyze(&args[1..]);
    }
    if args.first().map(String::as_str) == Some("restore") {
        return parse_restore(&args[1..]);
    }
    if args.first().map(String::as_str) == Some("edge") {
        return parse_edge(&args[1..]);
    }
    if args.first().map(String::as_str) == Some("all") {
        return parse_all(&args[1..]);
    }
    let mut sweep: Option<SweepSpec> = None;
    let mut model: Option<CheckOptions> = None;
    let mut self_test = false;
    let mut ci = false;
    let mut format = Format::Text;
    let mut sharers: Option<Vec<usize>> = None;
    let mut variant: Option<ProtocolVariant> = None;
    let mut max_states: Option<usize> = None;

    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--sweep" => {
                let mut spec = SweepSpec::default();
                while i + 1 < args.len() {
                    let next = &args[i + 1];
                    if let Some(r) = next.strip_prefix("n=") {
                        let (lo, hi) = parse_range(r, "n")?;
                        spec.n = lo..=hi;
                    } else if let Some(r) = next.strip_prefix("c=") {
                        let (lo, hi) = parse_range(r, "c")?;
                        spec.c = lo as u32..=hi as u32;
                    } else {
                        break;
                    }
                    i += 1;
                }
                sweep = Some(spec);
            }
            "--model" => {
                let mut cfg = ModelConfig::small();
                while i + 1 < args.len() {
                    let next = &args[i + 1];
                    if let Some(v) = next.strip_prefix("procs=") {
                        cfg.procs = parse_usize(v, "procs")?;
                    } else if let Some(v) = next.strip_prefix("blocks=") {
                        cfg.blocks = parse_usize(v, "blocks")?;
                    } else {
                        break;
                    }
                    i += 1;
                }
                if cfg.procs == 0 || cfg.blocks == 0 {
                    return Err("--model needs positive procs and blocks".into());
                }
                model = Some(CheckOptions {
                    cfg,
                    ..CheckOptions::default()
                });
            }
            "--sharers" => {
                i += 1;
                let list = args
                    .get(i)
                    .ok_or("--sharers needs a comma-separated list")?;
                let parsed: Result<Vec<usize>, String> =
                    list.split(',').map(|s| parse_usize(s, "sharers")).collect();
                sharers = Some(parsed?);
            }
            "--variant" => {
                i += 1;
                let name = args.get(i).ok_or("--variant needs a name")?;
                variant = Some(match name.as_str() {
                    "correct" => ProtocolVariant::Correct,
                    "missing-invalidate" => ProtocolVariant::MissingInvalidate,
                    "lost-write-back" => ProtocolVariant::LostWriteBack,
                    other => {
                        return Err(format!(
                            "unknown variant {other:?} (correct | missing-invalidate | \
                             lost-write-back)"
                        ))
                    }
                });
            }
            "--max-states" => {
                i += 1;
                let v = args.get(i).ok_or("--max-states needs a number")?;
                max_states = Some(parse_usize(v, "max-states")?);
            }
            "--self-test" => self_test = true,
            "--ci" => ci = true,
            "--format" => {
                i += 1;
                format = match args.get(i).map(String::as_str) {
                    Some("text") => Format::Text,
                    Some("json") => Format::Json,
                    other => {
                        let got = other.unwrap_or("<missing>");
                        return Err(format!("unknown format {got:?} (text | json)"));
                    }
                };
            }
            "--help" | "-h" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown argument {other:?}\n{USAGE}")),
        }
        i += 1;
    }

    // No section named (or --ci): run everything with defaults.
    if ci || (sweep.is_none() && model.is_none() && !self_test) {
        sweep.get_or_insert_with(SweepSpec::default);
        model.get_or_insert_with(CheckOptions::default);
        self_test = true;
    }
    if let (Some(spec), Some(s)) = (sweep.as_mut(), sharers) {
        spec.sharers = s;
    }
    if let Some(opts) = model.as_mut() {
        if let Some(v) = variant {
            opts.variant = v;
        }
        if let Some(m) = max_states {
            opts.max_states = m;
        }
    }

    Ok(Options {
        sweep,
        model,
        self_test,
        format,
        trace: None,
        chaos: None,
        serve: None,
        analyze: None,
        restore: None,
        edge: None,
        all: false,
    })
}

/// Run the requested sections and collect the report. Subcommand specs
/// are exclusive (first match wins) unless `all` is set, in which case
/// every populated section contributes to one aggregated report.
pub fn run(opts: &Options) -> Report {
    let mut report = Report::new();
    if !opts.all {
        if let Some(spec) = &opts.serve {
            report.extend(serve::verify(spec, opts.self_test));
            return report;
        }
        if let Some(spec) = &opts.chaos {
            report.extend(chaos::verify(spec, opts.self_test));
            return report;
        }
        if let Some(spec) = &opts.trace {
            report.extend(trace::verify(spec, opts.self_test));
            return report;
        }
        if let Some(spec) = &opts.analyze {
            report.extend(analyze::verify(spec, opts.self_test));
            return report;
        }
        if let Some(spec) = &opts.restore {
            report.extend(restore::verify(spec, opts.self_test));
            return report;
        }
        if let Some(spec) = &opts.edge {
            report.extend(edge::verify(spec, opts.self_test));
            return report;
        }
    }
    if let Some(spec) = &opts.sweep {
        report.extend(schedule::sweep(spec));
    }
    if let Some(model_opts) = &opts.model {
        report.push(coherence::check(model_opts));
    }
    if opts.self_test {
        report.extend(schedule::self_test());
        report.extend(coherence_self_test(
            opts.model.map(|m| m.max_states).unwrap_or(2_000_000),
        ));
    }
    if opts.all {
        if let Some(spec) = &opts.trace {
            report.extend(trace::verify(spec, opts.self_test));
        }
        if let Some(spec) = &opts.chaos {
            report.extend(chaos::verify(spec, opts.self_test));
        }
        if let Some(spec) = &opts.restore {
            report.extend(restore::verify(spec, opts.self_test));
        }
        if let Some(spec) = &opts.serve {
            report.extend(serve::verify(spec, opts.self_test));
        }
        if let Some(spec) = &opts.edge {
            report.extend(edge::verify(spec, opts.self_test));
        }
        if let Some(spec) = &opts.analyze {
            report.extend(analyze::verify(spec, opts.self_test));
        }
    }
    report
}

/// Coherence half of the self-test: the deliberately broken protocol
/// variants must produce a counterexample trace; each check passes iff
/// the mutant was caught.
pub fn coherence_self_test(max_states: usize) -> Vec<crate::report::Check> {
    use crate::report::Check;
    let mutants = [
        ProtocolVariant::MissingInvalidate,
        ProtocolVariant::LostWriteBack,
    ];
    mutants
        .iter()
        .map(|&variant| {
            let opts = CheckOptions {
                cfg: ModelConfig {
                    procs: 2,
                    blocks: 1,
                },
                variant,
                max_states,
            };
            let subj = format!("procs=2 blocks=1 variant={variant:?}");
            let result = coherence::explore(&opts);
            match result.violation {
                Some(v) if !v.trace.is_empty() => Check::pass(
                    "self-test/coherence-mutant",
                    &subj,
                    format!(
                        "mutant caught: {} violated ({}; {}-step trace)",
                        v.invariant,
                        v.detail,
                        v.trace.len() - 1
                    ),
                )
                .with_metric("states", result.states),
                _ => Check::fail(
                    "self-test/coherence-mutant",
                    &subj,
                    "broken protocol variant was NOT caught — the checker is vacuous",
                    vec!["expected an invariant violation with a trace".into()],
                ),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &[&str]) -> Vec<String> {
        s.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn acceptance_sweep_arguments_parse() {
        let o = parse(&args(&["--sweep", "n=2..=16", "c=1..=4"])).unwrap();
        let spec = o.sweep.expect("sweep requested");
        assert_eq!(spec.n, 2..=16);
        assert_eq!(spec.c, 1..=4);
        // Only the named section runs.
        assert!(o.model.is_none());
        assert!(!o.self_test);
    }

    #[test]
    fn no_arguments_runs_everything() {
        let o = parse(&[]).unwrap();
        assert!(o.sweep.is_some());
        assert!(o.model.is_some());
        assert!(o.self_test);
        assert_eq!(o.format, Format::Text);
    }

    #[test]
    fn ci_forces_all_sections_and_json_parses() {
        let o = parse(&args(&["--ci", "--format", "json"])).unwrap();
        assert!(o.sweep.is_some() && o.model.is_some() && o.self_test);
        assert_eq!(o.format, Format::Json);
    }

    #[test]
    fn model_dimensions_and_variant_parse() {
        let o = parse(&args(&[
            "--model",
            "procs=2",
            "blocks=1",
            "--variant",
            "missing-invalidate",
            "--max-states",
            "1000",
        ]))
        .unwrap();
        let m = o.model.unwrap();
        assert_eq!((m.cfg.procs, m.cfg.blocks), (2, 1));
        assert_eq!(m.variant, ProtocolVariant::MissingInvalidate);
        assert_eq!(m.max_states, 1000);
        assert!(o.sweep.is_none());
    }

    #[test]
    fn bad_arguments_are_rejected() {
        assert!(parse(&args(&["--frobnicate"])).is_err());
        assert!(parse(&args(&["--sweep", "n=0..=4"])).is_err());
        assert!(parse(&args(&["--variant", "bogus"])).is_err());
        assert!(parse(&args(&["--format", "yaml"])).is_err());
        assert!(parse(&args(&["trace", "--model"])).is_err());
        assert!(parse(&args(&["trace", "n=0..=4"])).is_err());
    }

    #[test]
    fn trace_subcommand_is_exclusive_and_defaults_to_the_full_sweep() {
        let o = parse(&args(&["trace"])).unwrap();
        let spec = o.trace.expect("trace requested");
        assert_eq!(spec, TraceSpec::default());
        assert!(o.sweep.is_none() && o.model.is_none() && !o.self_test);
    }

    #[test]
    fn trace_ci_keeps_the_sweep_and_adds_self_tests() {
        let o = parse(&args(&["trace", "--ci", "--format", "json"])).unwrap();
        assert_eq!(o.trace, Some(TraceSpec::default()));
        assert!(o.self_test);
        assert_eq!(o.format, Format::Json);
    }

    #[test]
    fn trace_ranges_and_sharers_parse() {
        let o = parse(&args(&["trace", "n=2..=4", "c=1..=2", "--sharers", "2,3"])).unwrap();
        let spec = o.trace.unwrap();
        assert_eq!(spec.n, 2..=4);
        assert_eq!(spec.c, 1..=2);
        assert_eq!(spec.sharers, vec![2, 3]);
    }

    #[test]
    fn chaos_subcommand_is_exclusive_and_defaults_to_the_full_soak() {
        let o = parse(&args(&["chaos"])).unwrap();
        let spec = o.chaos.expect("chaos requested");
        assert_eq!(spec, ChaosSpec::default());
        assert!(o.sweep.is_none() && o.model.is_none() && o.trace.is_none());
        assert!(!o.self_test);
    }

    #[test]
    fn engine_flags_parse() {
        let o = parse(&args(&["trace", "--engine", "parallel"])).unwrap();
        assert_eq!(o.trace.unwrap().engine, Engine::Parallel { threads: 1 });
        let o = parse(&args(&["trace", "--engine", "sequential"])).unwrap();
        assert_eq!(o.trace.unwrap().engine, Engine::Sequential);
        let o = parse(&args(&["chaos", "--engines", "sequential,parallel"])).unwrap();
        assert_eq!(
            o.chaos.unwrap().engines,
            vec![Engine::Sequential, Engine::Parallel { threads: 1 }]
        );
        assert!(parse(&args(&["trace", "--engine", "bogus"])).is_err());
        // Lane-count spellings are usage errors.
        for gone in ["parallel-0", "parallel-1", "parallel-2"] {
            let err = parse(&args(&["trace", "--engine", gone])).unwrap_err();
            assert!(err.contains("unknown engine"), "{gone}: {err}");
        }
        assert!(parse(&args(&["chaos", "--engines", ""])).is_err());
    }

    #[test]
    fn chaos_ci_adds_self_tests_and_seeds_parse() {
        let o = parse(&args(&["chaos", "--ci", "--format", "json"])).unwrap();
        assert!(o.self_test);
        assert_eq!(o.format, Format::Json);
        let o = parse(&args(&["chaos", "--seeds", "1,2,3"])).unwrap();
        assert_eq!(o.chaos.unwrap().seeds, vec![1, 2, 3]);
        assert!(parse(&args(&["chaos", "--seeds", "nope"])).is_err());
        assert!(parse(&args(&["chaos", "--model"])).is_err());
    }

    #[test]
    fn serve_subcommand_is_exclusive_and_defaults_to_the_full_soak() {
        let o = parse(&args(&["serve"])).unwrap();
        let spec = o.serve.expect("serve requested");
        assert_eq!(spec, ServeSpec::default());
        assert!(o.sweep.is_none() && o.model.is_none() && o.trace.is_none() && o.chaos.is_none());
        assert!(!o.self_test);
    }

    #[test]
    fn serve_ci_adds_self_tests_and_arguments_parse() {
        let o = parse(&args(&["serve", "--ci", "--format", "json"])).unwrap();
        assert!(o.self_test);
        assert_eq!(o.format, Format::Json);
        let o = parse(&args(&["serve", "--seeds", "3,4", "--ops", "500"])).unwrap();
        let spec = o.serve.unwrap();
        assert_eq!(spec.seeds, vec![3, 4]);
        assert_eq!(spec.ops_per_tenant, 500);
        assert!(parse(&args(&["serve", "--ops", "0"])).is_err());
        assert!(parse(&args(&["serve", "--seeds", "nope"])).is_err());
        assert!(parse(&args(&["serve", "--model"])).is_err());
    }

    #[test]
    fn analyze_subcommand_is_exclusive_and_defaults_parse() {
        let o = parse(&args(&["analyze"])).unwrap();
        let spec = o.analyze.expect("analyze requested");
        assert_eq!(spec, AnalyzeSpec::default());
        assert!(o.sweep.is_none() && o.model.is_none() && o.trace.is_none());
        assert!(o.chaos.is_none() && o.serve.is_none() && !o.all);
        assert!(!o.self_test);
    }

    #[test]
    fn analyze_ci_adds_self_tests_and_arguments_parse() {
        let o = parse(&args(&["analyze", "--ci", "--format", "json"])).unwrap();
        assert!(o.self_test);
        assert_eq!(o.format, Format::Json);
        let o = parse(&args(&[
            "analyze",
            "--sweep",
            "n=2..=4",
            "c=1..=2",
            "--offsets",
            "32",
        ]))
        .unwrap();
        let spec = o.analyze.unwrap();
        assert_eq!(spec.n, 2..=4);
        assert_eq!(spec.c, 1..=2);
        assert_eq!(spec.offsets, 32);
        assert!(parse(&args(&["analyze", "n=0..=4"])).is_err());
        assert!(parse(&args(&["analyze", "--offsets", "0"])).is_err());
        assert!(parse(&args(&["analyze", "--model"])).is_err());
    }

    #[test]
    fn all_subcommand_populates_every_section() {
        let o = parse(&args(&["all", "--ci", "--format", "json"])).unwrap();
        assert!(o.all);
        assert!(o.sweep.is_some() && o.model.is_some());
        assert!(o.trace.is_some() && o.chaos.is_some());
        assert!(o.serve.is_some() && o.analyze.is_some());
        assert!(o.restore.is_some());
        assert!(o.self_test);
        assert_eq!(o.format, Format::Json);
        assert!(parse(&args(&["all", "--model"])).is_err());
    }

    #[test]
    fn restore_subcommand_is_exclusive_and_defaults_parse() {
        let o = parse(&args(&["restore"])).unwrap();
        let spec = o.restore.expect("restore requested");
        assert_eq!(spec, RestoreSpec::default());
        assert!(o.sweep.is_none() && o.model.is_none() && o.trace.is_none());
        assert!(o.chaos.is_none() && o.serve.is_none() && o.analyze.is_none());
        assert!(!o.self_test && !o.all);
    }

    #[test]
    fn restore_ci_adds_self_tests_and_arguments_parse() {
        let o = parse(&args(&["restore", "--ci", "--format", "json"])).unwrap();
        assert!(o.self_test);
        assert_eq!(o.format, Format::Json);
        let o = parse(&args(&["restore", "--seeds", "3,4", "--ops", "500"])).unwrap();
        let spec = o.restore.unwrap();
        assert_eq!(spec.seeds, vec![3, 4]);
        assert_eq!(spec.ops_per_tenant, 500);
        assert!(parse(&args(&["restore", "--ops", "0"])).is_err());
        assert!(parse(&args(&["restore", "--seeds", "nope"])).is_err());
        assert!(parse(&args(&["restore", "--model"])).is_err());
    }

    #[test]
    fn edge_subcommand_is_exclusive_and_defaults_parse() {
        let o = parse(&args(&["edge"])).unwrap();
        let spec = o.edge.expect("edge requested");
        assert_eq!(spec, EdgeSpec::default());
        assert!(o.sweep.is_none() && o.model.is_none() && o.trace.is_none());
        assert!(o.chaos.is_none() && o.serve.is_none() && o.restore.is_none());
        assert!(!o.self_test && !o.all);
    }

    #[test]
    fn edge_ci_adds_self_tests_and_arguments_parse() {
        let o = parse(&args(&["edge", "--ci", "--format", "json"])).unwrap();
        assert!(o.self_test);
        assert_eq!(o.format, Format::Json);
        let o = parse(&args(&[
            "edge",
            "--seeds",
            "3,4",
            "--ops",
            "500",
            "--clients",
            "4",
        ]))
        .unwrap();
        let spec = o.edge.unwrap();
        assert_eq!(spec.seeds, vec![3, 4]);
        assert_eq!(spec.ops, 500);
        assert_eq!(spec.clients, 4);
        assert!(parse(&args(&["edge", "--ops", "0"])).is_err());
        assert!(parse(&args(&["edge", "--clients", "0"])).is_err());
        assert!(parse(&args(&["edge", "--seeds", "nope"])).is_err());
        assert!(parse(&args(&["edge", "--model"])).is_err());
    }

    #[test]
    fn all_subcommand_includes_the_edge_section() {
        let o = parse(&args(&["all", "--ci"])).unwrap();
        assert_eq!(o.edge, Some(EdgeSpec::default()));
    }

    #[test]
    fn coherence_self_test_catches_both_mutants() {
        for check in coherence_self_test(2_000_000) {
            assert_eq!(
                check.status,
                crate::report::Status::Pass,
                "{}: {}",
                check.subject,
                check.detail
            );
        }
    }
}
