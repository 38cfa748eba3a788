//! Command-line interface: argument parsing and section orchestration.
//!
//! ```text
//! cfm-verify [--sweep n=A..=B c=A..=B] [--sharers LIST]
//!            [--model procs=P blocks=B] [--variant NAME] [--max-states N]
//!            [--self-test] [--ci] [--format text|json]
//! cfm-verify trace|chaos|serve|analyze|restore|edge|all [OPTIONS]
//! ```
//!
//! One argument loop parses every command line. The first word picks
//! the subcommand (none = the bare form); every form takes `--format`,
//! `--ci`, `--self-test` and `--help`, plus the flags its
//! `Command::flags` entry lists, and refuses any other flag with the
//! subcommand named. The result is an ordered list of [`Section`]s,
//! which [`run`] runs into one report.
//!
//! With no section flag (and with `--ci`) the bare form runs all three
//! static sections with defaults: the schedule sweep, the coherence
//! model checker, and the seeded-fault self-test. Naming any section
//! flag runs only the named sections. Each subcommand runs its own
//! section, and its `--ci` adds that section's seeded-fault self-tests;
//! `all` runs every section. Exit code 0 = all checks passed, 1 = a
//! check failed, 2 = usage error.

use std::ops::RangeInclusive;
use std::str::FromStr;

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

/// One section of a run, with its parameters.
#[derive(Debug, Clone, PartialEq)]
pub enum Section {
    /// The AT-space schedule sweep.
    Sweep(SweepSpec),
    /// The coherence model check.
    Model(CheckOptions),
    /// The static sections' seeded-fault self-tests: the schedule
    /// mutants, and the coherence mutants explored up to `max_states`.
    SelfTest {
        /// State cap for each coherence mutant.
        max_states: usize,
    },
    /// The dynamic trace analyses.
    Trace(TraceSpec),
    /// The fault-injection soak.
    Chaos(ChaosSpec),
    /// The checkpoint/restore soak.
    Restore(RestoreSpec),
    /// The multi-tenant service soak.
    Serve(ServeSpec),
    /// The wire-edge soak.
    Edge(EdgeSpec),
    /// The static program analyzer.
    Analyze(AnalyzeSpec),
}

/// Parsed command-line options.
#[derive(Debug, Clone, PartialEq)]
pub struct Options {
    /// The sections to run, in report order.
    pub sections: Vec<Section>,
    /// Whether the trace, chaos, restore, serve, edge and analyze
    /// sections add their seeded-fault self-tests.
    pub self_test: bool,
    /// Output format.
    pub format: Format,
}

/// The bare form and the subcommands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Command {
    Bare,
    Trace,
    Chaos,
    Serve,
    Analyze,
    Restore,
    Edge,
    All,
}

/// Subcommand words, in synopsis order.
const SUBCOMMANDS: [(&str, Command); 7] = [
    ("trace", Command::Trace),
    ("chaos", Command::Chaos),
    ("serve", Command::Serve),
    ("analyze", Command::Analyze),
    ("restore", Command::Restore),
    ("edge", Command::Edge),
    ("all", Command::All),
];

impl Command {
    /// The flags this form takes besides `--format`, `--ci`,
    /// `--self-test` and `--help`. `n=` and `c=` stand for the range
    /// tokens `n=A..=B` and `c=C..=D`.
    fn flags(self) -> &'static [&'static str] {
        match self {
            Command::Bare => &[
                "--sweep",
                "--model",
                "--sharers",
                "--variant",
                "--max-states",
            ],
            Command::Trace => &["n=", "c=", "--sharers", "--engine"],
            Command::Chaos => &["--seeds", "--engines"],
            Command::Serve | Command::Restore => &["--seeds"],
            Command::Analyze => &["n=", "c=", "--sweep", "--offsets"],
            Command::Edge => &["--seeds", "--ops", "--clients"],
            Command::All => &[],
        }
    }
}

/// Every value a command line can set; `None` keeps the section's
/// default.
#[derive(Default)]
struct Flags {
    format: Format,
    ci: bool,
    self_test: bool,
    /// The bare form named `--sweep`.
    sweep: bool,
    model: Option<ModelConfig>,
    variant: Option<ProtocolVariant>,
    max_states: Option<usize>,
    n: Option<RangeInclusive<usize>>,
    c: Option<RangeInclusive<u32>>,
    sharers: Option<Vec<usize>>,
    engine: Option<Engine>,
    engines: Option<Vec<Engine>>,
    seeds: Option<Vec<u64>>,
    ops: Option<u64>,
    clients: Option<usize>,
    offsets: Option<usize>,
}

fn parse_usize(s: &str, what: &str) -> Result<usize, String> {
    s.parse::<usize>()
        .map_err(|_| format!("invalid {what}: {s:?}"))
}

/// Parse a count that must be at least 1.
fn parse_positive<T: FromStr + Default + PartialEq>(s: &str, what: &str) -> Result<T, String> {
    s.parse::<T>()
        .ok()
        .filter(|v| *v != T::default())
        .ok_or_else(|| format!("invalid {what}: {s:?}"))
}

/// Parse a comma-separated list item by item.
fn parse_list<T>(s: &str, item: impl Fn(&str) -> Result<T, String>) -> Result<Vec<T>, String> {
    s.split(',').map(item).collect()
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

impl Flags {
    /// Record an `n=A..=B` or `c=C..=D` token.
    fn range(&mut self, token: &str) -> Result<(), String> {
        if let Some(r) = token.strip_prefix("n=") {
            let (lo, hi) = parse_range(r, "n")?;
            self.n = Some(lo..=hi);
        } else if let Some(r) = token.strip_prefix("c=") {
            let (lo, hi) = parse_range(r, "c")?;
            self.c = Some(lo as u32..=hi as u32);
        }
        Ok(())
    }

    /// The sections `command` runs with these flags, in report order.
    fn into_options(self, command: Command) -> Options {
        let self_test = self.self_test || self.ci;
        let sections = match command {
            Command::Bare => return self.into_bare_options(),
            Command::Trace => {
                let d = TraceSpec::default();
                vec![Section::Trace(TraceSpec {
                    n: self.n.unwrap_or(d.n),
                    c: self.c.unwrap_or(d.c),
                    sharers: self.sharers.unwrap_or(d.sharers),
                    engine: self.engine.unwrap_or(d.engine),
                })]
            }
            Command::Chaos => {
                let d = ChaosSpec::default();
                vec![Section::Chaos(ChaosSpec {
                    seeds: self.seeds.unwrap_or(d.seeds),
                    engines: self.engines.unwrap_or(d.engines),
                })]
            }
            Command::Serve => {
                let d = ServeSpec::default();
                vec![Section::Serve(ServeSpec {
                    seeds: self.seeds.unwrap_or(d.seeds),
                    ..d
                })]
            }
            Command::Analyze => {
                let d = AnalyzeSpec::default();
                vec![Section::Analyze(AnalyzeSpec {
                    n: self.n.unwrap_or(d.n),
                    c: self.c.unwrap_or(d.c),
                    offsets: self.offsets.unwrap_or(d.offsets),
                })]
            }
            Command::Restore => {
                let d = RestoreSpec::default();
                vec![Section::Restore(RestoreSpec {
                    seeds: self.seeds.unwrap_or(d.seeds),
                })]
            }
            Command::Edge => {
                let d = EdgeSpec::default();
                vec![Section::Edge(EdgeSpec {
                    seeds: self.seeds.unwrap_or(d.seeds),
                    ops: self.ops.unwrap_or(d.ops),
                    clients: self.clients.unwrap_or(d.clients),
                })]
            }
            Command::All => {
                let model = CheckOptions::default();
                let mut sections =
                    vec![Section::Sweep(SweepSpec::default()), Section::Model(model)];
                if self_test {
                    sections.push(Section::SelfTest {
                        max_states: model.max_states,
                    });
                }
                sections.extend([
                    Section::Trace(TraceSpec::default()),
                    Section::Chaos(ChaosSpec::default()),
                    Section::Restore(RestoreSpec::default()),
                    Section::Serve(ServeSpec::default()),
                    Section::Edge(EdgeSpec::default()),
                    Section::Analyze(AnalyzeSpec::default()),
                ]);
                sections
            }
        };
        Options {
            sections,
            self_test,
            format: self.format,
        }
    }

    /// The bare form: the named static sections, or all three with
    /// defaults when none is named or `--ci` is given. `--sharers`,
    /// `--variant` and `--max-states` tune a section that runs and are
    /// otherwise ignored.
    fn into_bare_options(self) -> Options {
        let everything = self.ci || (!self.sweep && self.model.is_none() && !self.self_test);
        let self_test = everything || self.self_test;
        let mut sections = Vec::new();
        if everything || self.sweep {
            let d = SweepSpec::default();
            sections.push(Section::Sweep(SweepSpec {
                n: self.n.unwrap_or(d.n),
                c: self.c.unwrap_or(d.c),
                sharers: self.sharers.unwrap_or(d.sharers),
            }));
        }
        let model = (everything || self.model.is_some()).then(|| {
            let d = CheckOptions::default();
            CheckOptions {
                cfg: self.model.unwrap_or(d.cfg),
                variant: self.variant.unwrap_or(d.variant),
                max_states: self.max_states.unwrap_or(d.max_states),
            }
        });
        sections.extend(model.map(Section::Model));
        if self_test {
            sections.push(Section::SelfTest {
                max_states: model.map_or(2_000_000, |m| m.max_states),
            });
        }
        Options {
            sections,
            self_test,
            format: self.format,
        }
    }
}

/// Parse the argument list (excluding the program name).
pub fn parse(args: &[String]) -> Result<Options, String> {
    let (word, command, args) = match SUBCOMMANDS
        .iter()
        .find(|(word, _)| args.first().map(String::as_str) == Some(*word))
    {
        Some(&(word, command)) => (word, command, &args[1..]),
        None => ("", Command::Bare, args),
    };
    let mut f = Flags::default();
    let mut args = args.iter().map(String::as_str).peekable();
    while let Some(arg) = args.next() {
        let is_range = |t: &&str| t.starts_with("n=") || t.starts_with("c=");
        let flag = if is_range(&arg) { &arg[..2] } else { arg };
        let mut value = |what: &str| args.next().ok_or(format!("{arg} needs {what}"));
        match flag {
            "--format" => {
                f.format = match args.next() {
                    Some("text") => Format::Text,
                    Some("json") => Format::Json,
                    other => {
                        let got = other.unwrap_or("<missing>");
                        return Err(format!("unknown format {got:?} (text | json)"));
                    }
                }
            }
            "--ci" => f.ci = true,
            "--self-test" => f.self_test = true,
            "--help" | "-h" => return Err(USAGE.to_string()),
            _ if !command.flags().contains(&flag) => {
                let named = if word.is_empty() {
                    String::new()
                } else {
                    format!("{word} ")
                };
                return Err(format!("unknown {named}argument {arg:?}\n{USAGE}"));
            }
            "n=" | "c=" => f.range(arg)?,
            "--sweep" => {
                // The bare form's section flag (the last one wins);
                // analyze takes it as a readability prefix.
                if command == Command::Bare {
                    (f.sweep, f.n, f.c) = (true, None, None);
                }
                while let Some(token) = args.next_if(is_range) {
                    f.range(token)?;
                }
            }
            "--model" => {
                let mut cfg = ModelConfig::small();
                while let Some(token) =
                    args.next_if(|t| t.starts_with("procs=") || t.starts_with("blocks="))
                {
                    let (key, v) = token.split_once('=').expect("a key= token");
                    let dim = if key == "procs" {
                        &mut cfg.procs
                    } else {
                        &mut cfg.blocks
                    };
                    *dim = parse_usize(v, key)?;
                }
                if cfg.procs == 0 || cfg.blocks == 0 {
                    return Err("--model needs positive procs and blocks".into());
                }
                f.model = Some(cfg);
            }
            "--variant" => {
                f.variant = Some(match value("a name")? {
                    "correct" => ProtocolVariant::Correct,
                    "missing-invalidate" => ProtocolVariant::MissingInvalidate,
                    "lost-write-back" => ProtocolVariant::LostWriteBack,
                    other => {
                        return Err(format!(
                            "unknown variant {other:?} (correct | missing-invalidate | \
                             lost-write-back)"
                        ))
                    }
                })
            }
            "--max-states" => f.max_states = Some(parse_usize(value("a number")?, "max-states")?),
            "--sharers" => {
                let list = value("a comma-separated list")?;
                f.sharers = Some(parse_list(list, |s| parse_usize(s, "sharers"))?);
            }
            "--engine" => f.engine = Some(parse_engine(value("a name")?)?),
            "--engines" => {
                f.engines = Some(parse_list(value("a comma-separated list")?, parse_engine)?)
            }
            "--seeds" => {
                let list = value("a comma-separated list")?;
                f.seeds = Some(parse_list(list, |s| {
                    s.parse::<u64>().map_err(|_| format!("invalid seed: {s:?}"))
                })?);
            }
            "--ops" => f.ops = Some(parse_positive(value("a number")?, "op budget")?),
            "--clients" => f.clients = Some(parse_positive(value("a number")?, "client count")?),
            "--offsets" => f.offsets = Some(parse_positive(value("a number")?, "block count")?),
            _ => unreachable!("every flag in Command::flags has a handler"),
        }
    }
    Ok(f.into_options(command))
}

/// Run the sections in order and collect one report.
pub fn run(opts: &Options) -> Report {
    let mut report = Report::new();
    let self_test = opts.self_test;
    for section in &opts.sections {
        match section {
            Section::Sweep(spec) => report.extend(schedule::sweep(spec)),
            Section::Model(model_opts) => report.push(coherence::check(model_opts)),
            Section::SelfTest { max_states } => {
                report.extend(schedule::self_test());
                report.extend(coherence_self_test(*max_states));
            }
            Section::Trace(spec) => report.extend(trace::verify(spec, self_test)),
            Section::Chaos(spec) => report.extend(chaos::verify(spec, self_test)),
            Section::Restore(spec) => report.extend(restore::verify(spec, self_test)),
            Section::Serve(spec) => report.extend(serve::verify(spec, self_test)),
            Section::Edge(spec) => report.extend(edge::verify(spec, self_test)),
            Section::Analyze(spec) => report.extend(analyze::verify(spec, self_test)),
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

    /// The one section a subcommand's options carry.
    fn only(o: &Options) -> &Section {
        assert_eq!(o.sections.len(), 1, "{o:?}");
        &o.sections[0]
    }

    /// The bare form's default run: all three static sections.
    fn static_sections() -> Vec<Section> {
        vec![
            Section::Sweep(SweepSpec::default()),
            Section::Model(CheckOptions::default()),
            Section::SelfTest {
                max_states: CheckOptions::default().max_states,
            },
        ]
    }

    #[test]
    fn acceptance_sweep_arguments_parse() {
        let o = parse(&args(&["--sweep", "n=2..=16", "c=1..=4"])).unwrap();
        // Only the named section runs.
        assert_eq!(
            o.sections,
            vec![Section::Sweep(SweepSpec {
                n: 2..=16,
                c: 1..=4,
                ..SweepSpec::default()
            })]
        );
        assert!(!o.self_test);
    }

    #[test]
    fn no_arguments_runs_everything() {
        let o = parse(&[]).unwrap();
        assert_eq!(o.sections, static_sections());
        assert!(o.self_test);
        assert_eq!(o.format, Format::Text);
    }

    #[test]
    fn ci_forces_all_sections_and_json_parses() {
        let o = parse(&args(&["--ci", "--format", "json"])).unwrap();
        assert_eq!(o.sections, static_sections());
        assert!(o.self_test);
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
        assert_eq!(
            o.sections,
            vec![Section::Model(CheckOptions {
                cfg: ModelConfig {
                    procs: 2,
                    blocks: 1
                },
                variant: ProtocolVariant::MissingInvalidate,
                max_states: 1000,
            })]
        );
    }

    #[test]
    fn self_test_alone_uses_the_model_state_cap() {
        let o = parse(&args(&["--self-test"])).unwrap();
        assert_eq!(
            o.sections,
            vec![Section::SelfTest {
                max_states: 2_000_000
            }]
        );
        let o = parse(&args(&["--model", "--self-test", "--max-states", "9"])).unwrap();
        assert_eq!(o.sections[1], Section::SelfTest { max_states: 9 });
        // The last --sweep wins, and its own n=/c= tokens start afresh.
        let o = parse(&args(&["--sweep", "n=3", "--sweep", "c=2"])).unwrap();
        assert_eq!(
            o.sections,
            vec![Section::Sweep(SweepSpec {
                c: 2..=2,
                ..SweepSpec::default()
            })]
        );
    }

    #[test]
    fn bad_arguments_are_rejected() {
        assert!(parse(&args(&["--frobnicate"])).is_err());
        assert!(parse(&args(&["--sweep", "n=0..=4"])).is_err());
        assert!(parse(&args(&["--variant", "bogus"])).is_err());
        assert!(parse(&args(&["--format", "yaml"])).is_err());
        assert!(parse(&args(&["trace", "--model"])).is_err());
        assert!(parse(&args(&["trace", "n=0..=4"])).is_err());
        // Range tokens belong to --sweep in the bare form.
        assert!(parse(&args(&["n=2..=4"])).is_err());
    }

    #[test]
    fn trace_subcommand_is_exclusive_and_defaults_to_the_full_sweep() {
        let o = parse(&args(&["trace"])).unwrap();
        assert_eq!(o.sections, vec![Section::Trace(TraceSpec::default())]);
        assert!(!o.self_test);
    }

    #[test]
    fn trace_ci_keeps_the_sweep_and_adds_self_tests() {
        let o = parse(&args(&["trace", "--ci", "--format", "json"])).unwrap();
        assert_eq!(o.sections, vec![Section::Trace(TraceSpec::default())]);
        assert!(o.self_test);
        assert_eq!(o.format, Format::Json);
    }

    #[test]
    fn trace_ranges_and_sharers_parse() {
        let o = parse(&args(&["trace", "n=2..=4", "c=1..=2", "--sharers", "2,3"])).unwrap();
        let Section::Trace(spec) = only(&o) else {
            panic!("{o:?}")
        };
        assert_eq!(spec.n, 2..=4);
        assert_eq!(spec.c, 1..=2);
        assert_eq!(spec.sharers, vec![2, 3]);
    }

    #[test]
    fn chaos_subcommand_is_exclusive_and_defaults_to_the_full_soak() {
        let o = parse(&args(&["chaos"])).unwrap();
        assert_eq!(o.sections, vec![Section::Chaos(ChaosSpec::default())]);
        assert!(!o.self_test);
    }

    #[test]
    fn engine_flags_parse() {
        let engine = |o: Options| match only(&o) {
            Section::Trace(spec) => spec.engine,
            other => panic!("{other:?}"),
        };
        let o = parse(&args(&["trace", "--engine", "parallel"])).unwrap();
        assert_eq!(engine(o), Engine::Parallel { threads: 1 });
        let o = parse(&args(&["trace", "--engine", "sequential"])).unwrap();
        assert_eq!(engine(o), Engine::Sequential);
        let o = parse(&args(&["chaos", "--engines", "sequential,parallel"])).unwrap();
        assert_eq!(
            o.sections,
            vec![Section::Chaos(ChaosSpec {
                engines: vec![Engine::Sequential, Engine::Parallel { threads: 1 }],
                ..ChaosSpec::default()
            })]
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
        assert_eq!(
            o.sections,
            vec![Section::Chaos(ChaosSpec {
                seeds: vec![1, 2, 3],
                ..ChaosSpec::default()
            })]
        );
        assert!(parse(&args(&["chaos", "--seeds", "nope"])).is_err());
        assert!(parse(&args(&["chaos", "--model"])).is_err());
    }

    #[test]
    fn serve_subcommand_is_exclusive_and_defaults_to_the_full_soak() {
        let o = parse(&args(&["serve"])).unwrap();
        assert_eq!(o.sections, vec![Section::Serve(ServeSpec::default())]);
        assert!(!o.self_test);
    }

    #[test]
    fn serve_ci_adds_self_tests_and_arguments_parse() {
        let o = parse(&args(&["serve", "--ci", "--format", "json"])).unwrap();
        assert!(o.self_test);
        assert_eq!(o.format, Format::Json);
        let o = parse(&args(&["serve", "--seeds", "3,4"])).unwrap();
        assert_eq!(
            o.sections,
            vec![Section::Serve(ServeSpec {
                seeds: vec![3, 4],
                ..ServeSpec::default()
            })]
        );
        assert!(parse(&args(&["serve", "--ops", "500"])).is_err());
        assert!(parse(&args(&["serve", "--seeds", "nope"])).is_err());
        assert!(parse(&args(&["serve", "--model"])).is_err());
    }

    #[test]
    fn analyze_subcommand_is_exclusive_and_defaults_parse() {
        let o = parse(&args(&["analyze"])).unwrap();
        assert_eq!(o.sections, vec![Section::Analyze(AnalyzeSpec::default())]);
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
        let want = AnalyzeSpec {
            n: 2..=4,
            c: 1..=2,
            offsets: 32,
        };
        assert_eq!(o.sections, vec![Section::Analyze(want.clone())]);
        // In analyze, --sweep is only a prefix: it keeps earlier ranges.
        let o = parse(&args(&[
            "analyze",
            "n=2..=4",
            "c=1..=2",
            "--sweep",
            "--offsets",
            "32",
        ]));
        assert_eq!(o.unwrap().sections, vec![Section::Analyze(want)]);
        assert!(parse(&args(&["analyze", "n=0..=4"])).is_err());
        assert!(parse(&args(&["analyze", "--offsets", "0"])).is_err());
        assert!(parse(&args(&["analyze", "--model"])).is_err());
    }

    #[test]
    fn all_subcommand_populates_every_section() {
        let o = parse(&args(&["all", "--ci", "--format", "json"])).unwrap();
        let mut want = static_sections();
        want.extend([
            Section::Trace(TraceSpec::default()),
            Section::Chaos(ChaosSpec::default()),
            Section::Restore(RestoreSpec::default()),
            Section::Serve(ServeSpec::default()),
            Section::Edge(EdgeSpec::default()),
            Section::Analyze(AnalyzeSpec::default()),
        ]);
        assert_eq!(o.sections, want);
        assert!(o.self_test);
        assert_eq!(o.format, Format::Json);
        // Without --ci the static self-tests stay out, as do the
        // sections' own.
        let o = parse(&args(&["all"])).unwrap();
        want.remove(2);
        assert_eq!(o.sections, want);
        assert!(!o.self_test);
        assert!(parse(&args(&["all", "--model"])).is_err());
    }

    #[test]
    fn restore_subcommand_is_exclusive_and_defaults_parse() {
        let o = parse(&args(&["restore"])).unwrap();
        assert_eq!(o.sections, vec![Section::Restore(RestoreSpec::default())]);
        assert!(!o.self_test);
    }

    #[test]
    fn restore_ci_adds_self_tests_and_arguments_parse() {
        let o = parse(&args(&["restore", "--ci", "--format", "json"])).unwrap();
        assert!(o.self_test);
        assert_eq!(o.format, Format::Json);
        let o = parse(&args(&["restore", "--seeds", "3,4"])).unwrap();
        assert_eq!(
            o.sections,
            vec![Section::Restore(RestoreSpec { seeds: vec![3, 4] })]
        );
        assert!(parse(&args(&["restore", "--ops", "500"])).is_err());
        assert!(parse(&args(&["restore", "--seeds", "nope"])).is_err());
        assert!(parse(&args(&["restore", "--model"])).is_err());
    }

    #[test]
    fn edge_subcommand_is_exclusive_and_defaults_parse() {
        let o = parse(&args(&["edge"])).unwrap();
        assert_eq!(o.sections, vec![Section::Edge(EdgeSpec::default())]);
        assert!(!o.self_test);
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
        assert_eq!(
            o.sections,
            vec![Section::Edge(EdgeSpec {
                seeds: vec![3, 4],
                ops: 500,
                clients: 4,
            })]
        );
        assert!(parse(&args(&["edge", "--ops", "0"])).is_err());
        assert!(parse(&args(&["edge", "--clients", "0"])).is_err());
        assert!(parse(&args(&["edge", "--seeds", "nope"])).is_err());
        assert!(parse(&args(&["edge", "--model"])).is_err());
    }

    /// The parser's contract for the bare form and every subcommand:
    /// `--help` answers with the usage text, an unknown flag is refused
    /// with the subcommand named, and a flag that only another
    /// subcommand takes stays refused.
    #[test]
    fn every_command_answers_help_and_refuses_unknown_and_foreign_flags() {
        let table: [(&[&str], &str, &[&str]); 8] = [
            (&[], "unknown argument", &["--offsets", "4"]),
            (&["trace"], "unknown trace argument", &["--seeds", "1"]),
            (&["chaos"], "unknown chaos argument", &["--ops", "5"]),
            (&["serve"], "unknown serve argument", &["--clients", "2"]),
            (&["analyze"], "unknown analyze argument", &["--seeds", "1"]),
            (
                &["restore"],
                "unknown restore argument",
                &["--clients", "2"],
            ),
            (
                &["edge"],
                "unknown edge argument",
                &["--engine", "parallel"],
            ),
            (&["all"], "unknown all argument", &["--seeds", "1"]),
        ];
        for (command, refusal, foreign) in table {
            let with = |extra: &[&str]| args(&[command, extra].concat());
            assert_eq!(parse(&with(&["--help"])).unwrap_err(), USAGE, "{command:?}");
            let err = parse(&with(&["--no-such-flag"])).unwrap_err();
            assert!(
                err.starts_with(&format!("{refusal} \"--no-such-flag\"")),
                "{command:?}: {err}"
            );
            let err = parse(&with(foreign)).unwrap_err();
            assert!(
                err.starts_with(&format!("{refusal} {:?}", foreign[0])),
                "{command:?} {foreign:?}: {err}"
            );
        }
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
