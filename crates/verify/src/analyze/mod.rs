//! `cfm-verify analyze` — the static program analyzer.
//!
//! Everything the repo proved about conflict freedom so far was either
//! *schedule-level* (the [`crate::schedule`] sweep: any program, any
//! timing) or *dynamic* (trace race detection, chaos soaks: one
//! execution at a time). This module adds the program level in between:
//! an abstract interpreter ([`interp`]) walks a declarative
//! [`ProgramSpec`] through the AT-space mapping without running a
//! machine and statically proves, per `(n, c)` configuration:
//!
//! * **zero bank conflicts** for the program on the valid `b = c·n`
//!   geometry — and *refutes* the `b ∓ 1` neighbours with a concrete
//!   two-operation witness ([`interp::TwoOpWitness`]);
//! * an **ATT occupancy upper bound** (peak concurrently-live entries
//!   per bank, against the hardware capacity `b − 1`);
//! * **lock-order acyclicity** over the spec's program-level
//!   acquisition scripts (the static subsumption of the dynamic
//!   lock-order check, for analyzable programs);
//! * **per-bank access-count footprints** (the static bandwidth
//!   shape).
//!
//! The proof is packaged as a [`HazardSummary`]. Its footprint acts at
//! admission, exercised here end to end: `cfm-serve`
//! ([`cfm_serve::service::Footprints::admit`]) rejects tenant programs
//! whose static [`Footprint`] conflicts with an admitted tenant's,
//! with a typed [`cfm_serve::Reject::StaticConflict`] witness. At
//! runtime the machine needs no summary: its one-pass step proves each
//! access with its own hazard test.
//!
//! The race verdict is deliberately one-sided (sound, not complete):
//! *race-free statically ⇒ race-free dynamically*. The differential
//! check runs every analyzable standard program on a real traced
//! machine and demands the happens-before detector agree; programs the
//! analyzer flags may still execute cleanly (the ATT arbitrates them),
//! which is exactly the "strictly more conservative" contract.
//! Data-dependent offsets are never summarized (see
//! `docs/static-analysis.md`).

pub mod interp;
mod selftest;

use std::collections::BTreeMap;
use std::collections::VecDeque;
use std::ops::RangeInclusive;

use cfm_core::config::CfmConfig;
use cfm_core::machine::CfmMachine;
use cfm_core::spec::{Footprint, HazardSummary, OffsetExpr, OpPattern, OpSpec, ProgramSpec};
use cfm_core::stats::Stats;
use cfm_core::trace::TraceEvent;
use resource_binding::lockorder::LockOrderGraph;

use crate::report::Check;
use crate::trace::hb;

use interp::{Geometry, TwoOpWitness};

pub use selftest::self_tests;

/// What the analyze section sweeps: `(n, c)` ranges plus the block
/// count every program is interpreted over.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AnalyzeSpec {
    /// Processor counts to sweep.
    pub n: RangeInclusive<usize>,
    /// Bank cycle times to sweep.
    pub c: RangeInclusive<u32>,
    /// Blocks of memory the programs are analyzed against.
    pub offsets: usize,
}

impl Default for AnalyzeSpec {
    fn default() -> Self {
        AnalyzeSpec {
            n: 2..=8,
            c: 1..=2,
            offsets: 16,
        }
    }
}

/// The standard program suite every configuration is analyzed with.
/// `disjoint-sweep` is the summary-carrying program (every block has
/// one exclusive accessor); `hotspot-writers` is the deliberately
/// conflicting shape the race verdict must flag; `data-dependent`
/// exercises the analyzer's refusal boundary.
pub fn standard_programs(n: usize) -> Vec<ProgramSpec> {
    let own = OffsetExpr::ProcLinear { base: 0, stride: 1 };
    let next = OffsetExpr::ProcLinear { base: 1, stride: 1 };
    let mut programs = vec![
        ProgramSpec::uniform(
            "disjoint-sweep",
            n,
            2,
            vec![
                OpSpec::new(OpPattern::Write, own),
                OpSpec::new(OpPattern::Read, own),
                OpSpec::new(OpPattern::Swap, own),
            ],
        ),
        ProgramSpec::uniform(
            "read-shared",
            n,
            2,
            vec![
                OpSpec::new(OpPattern::Read, OffsetExpr::Const(0)),
                OpSpec::new(OpPattern::Read, next),
            ],
        ),
        ProgramSpec::uniform(
            "hotspot-writers",
            n,
            2,
            vec![
                OpSpec::new(OpPattern::Write, OffsetExpr::Const(0)),
                OpSpec::new(OpPattern::Read, OffsetExpr::Const(0)),
            ],
        ),
        ProgramSpec::uniform(
            "swap-rotate",
            n,
            2,
            vec![
                OpSpec::new(OpPattern::Swap, next),
                OpSpec::new(OpPattern::FetchAdd, next),
            ],
        ),
        ProgramSpec::uniform(
            "data-dependent",
            n,
            1,
            vec![
                OpSpec::new(OpPattern::Write, OffsetExpr::DataDependent { seed: 0xD1CE }),
                OpSpec::new(OpPattern::Read, own),
            ],
        ),
    ];
    // The lock ladder: disjoint data plus a globally ordered two-lock
    // acquisition script per processor — the acyclic shape the
    // program-level lock-order analysis certifies.
    let mut ladder = ProgramSpec::uniform(
        "lock-ladder",
        n,
        1,
        vec![
            OpSpec::new(OpPattern::Swap, own),
            OpSpec::new(OpPattern::Write, own),
        ],
    );
    ladder.locks = (0..n).map(|p| vec![0, 1 + p % 2]).collect();
    programs.push(ladder);
    programs
}

/// A footprint-level two-operation race witness: two processors touch
/// the same block and at least one writes it. `op_*` index into the
/// processor's per-round operation list, so the pair can be
/// re-instantiated and replayed dynamically
/// ([`witness_operations`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProgramConflictWitness {
    /// The contested block.
    pub offset: usize,
    /// First processor.
    pub proc_a: usize,
    /// Index of the first access in `ops[proc_a]`.
    pub op_a: usize,
    /// Whether the first access writes.
    pub a_writes: bool,
    /// Second processor.
    pub proc_b: usize,
    /// Index of the second access in `ops[proc_b]`.
    pub op_b: usize,
    /// Whether the second access writes.
    pub b_writes: bool,
}

impl std::fmt::Display for ProgramConflictWitness {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let a = if self.a_writes { "writes" } else { "reads" };
        let b = if self.b_writes { "writes" } else { "reads" };
        write!(
            f,
            "block {}: proc {} (op {}) {a} it while proc {} (op {}) {b} it",
            self.offset, self.proc_a, self.op_a, self.proc_b, self.op_b
        )
    }
}

/// Find the first footprint-level race in an analyzable spec: a block
/// two processors share with at least one writer. `None` = statically
/// race-free (or not analyzable — callers gate on
/// [`ProgramSpec::analyzable`] first).
pub fn program_conflict(spec: &ProgramSpec, offsets: usize) -> Option<ProgramConflictWitness> {
    if !spec.analyzable() {
        return None;
    }
    // First toucher per offset, in (proc, op) scan order.
    let mut first: BTreeMap<usize, (usize, usize, bool)> = BTreeMap::new();
    for (p, list) in spec.ops.iter().enumerate() {
        for (i, op) in list.iter().enumerate() {
            let o = op.offset.eval(p, offsets);
            let writes = op.pattern.writes();
            match first.get(&o) {
                None => {
                    first.insert(o, (p, i, writes));
                }
                Some(&(q, j, q_writes)) if q != p && (q_writes || writes) => {
                    return Some(ProgramConflictWitness {
                        offset: o,
                        proc_a: q,
                        op_a: j,
                        a_writes: q_writes,
                        proc_b: p,
                        op_b: i,
                        b_writes: writes,
                    });
                }
                Some(&(_, _, q_writes)) => {
                    // Same proc, or read/read sharing: remember the
                    // strongest access for later pairs.
                    if writes && !q_writes {
                        first.insert(o, (p, i, true));
                    }
                }
            }
        }
    }
    None
}

/// Instantiate the two concrete [`cfm_core::op::Operation`]s a
/// [`ProgramConflictWitness`] names, for dynamic replay.
pub fn witness_operations(
    spec: &ProgramSpec,
    w: &ProgramConflictWitness,
    banks: usize,
    offsets: usize,
) -> (cfm_core::op::Operation, cfm_core::op::Operation) {
    let a = spec.instantiate(w.proc_a, banks, offsets)[w.op_a].clone();
    let b = spec.instantiate(w.proc_b, banks, offsets)[w.op_b].clone();
    (a, b)
}

/// Prove `spec` on the valid `(n, c)` geometry and emit the
/// [`HazardSummary`] artifact, or explain why no summary exists
/// (data-dependent offsets, a conflict, or an ATT bound above the
/// hardware capacity).
pub fn summarize(
    spec: &ProgramSpec,
    n: usize,
    c: u32,
    offsets: usize,
) -> Result<HazardSummary, String> {
    let footprint = spec
        .footprint(offsets)
        .ok_or_else(|| format!("{}: data-dependent offsets, not analyzable", spec.name))?;
    let geom = Geometry::valid(n, c);
    let timeline = interp::interpret(spec, &geom);
    if let Some(w) = timeline.conflict {
        return Err(format!("{}: bank conflict: {w}", spec.name));
    }
    let capacity = geom.banks.saturating_sub(1);
    if timeline.att_peak > capacity {
        return Err(format!(
            "{}: ATT occupancy peak {} exceeds capacity {capacity} (bank {})",
            spec.name, timeline.att_peak, timeline.att_peak_bank
        ));
    }
    let mut summary = HazardSummary::new(n, geom.banks, footprint);
    summary.att_bound = timeline.att_peak;
    summary.per_bank_accesses = timeline.per_bank_accesses;
    Ok(summary)
}

/// Run `spec` on a traced sequential machine and return the event log
/// plus final stats, for the differential happens-before check.
pub(crate) fn run_traced(
    spec: &ProgramSpec,
    n: usize,
    c: u32,
    offsets: usize,
) -> Result<(Vec<TraceEvent>, Stats), String> {
    let cfg = CfmConfig::new(n, c, 16).map_err(|e| format!("config: {e:?}"))?;
    let banks = cfg.banks();
    let mut m = CfmMachine::builder(cfg)
        .offsets(offsets)
        .trace(true)
        .build();
    let mut scripts: Vec<VecDeque<_>> = (0..n)
        .map(|p| spec.instantiate(p, banks, offsets).into())
        .collect();
    while scripts.iter().any(|s| !s.is_empty()) {
        for (p, script) in scripts.iter_mut().enumerate() {
            if !m.is_busy(p) {
                if let Some(op) = script.pop_front() {
                    m.issue(p, op).map_err(|e| format!("issue: {e:?}"))?;
                }
            }
        }
        let _ = m.run(100_000).expect_idle();
    }
    let stats = *m.stats();
    let events = m.take_trace().ok_or("tracing was enabled")?.into_events();
    Ok((events, stats))
}

fn subject(n: usize, c: u32) -> String {
    format!("n={n} c={c} b={}", n * c as usize)
}

/// Analyze every standard program on one `(n, c)` configuration.
pub fn verify_config(n: usize, c: u32, offsets: usize) -> Vec<Check> {
    let b = n * c as usize;
    let subj = subject(n, c);
    let mut checks = Vec::new();
    let programs = standard_programs(n);

    // Per-program bank-conflict proof on the valid geometry, plus the
    // refusal boundary for the data-dependent program.
    for spec in &programs {
        let timeline = interp::interpret(spec, &Geometry::valid(n, c));
        let subj_p = format!("{subj} prog={}", spec.name);
        checks.push(match timeline.conflict {
            None => Check::pass(
                "analyze/program-conflict-free",
                &subj_p,
                format!(
                    "{} injections over {} slots, zero conflicts (ATT peak {})",
                    timeline.accesses, timeline.slots, timeline.att_peak
                ),
            )
            .with_metric("accesses", timeline.accesses)
            .with_metric("slots", timeline.slots)
            .with_metric("att_peak", timeline.att_peak as u64),
            Some(w) => Check::fail(
                "analyze/program-conflict-free",
                &subj_p,
                "the interpreter found a conflict on a valid geometry",
                vec![w.to_string()],
            ),
        });
        if !spec.analyzable() {
            checks.push(match summarize(spec, n, c, offsets) {
                Err(reason) => Check::pass(
                    "analyze/dynamic-fallback",
                    &subj_p,
                    format!("no summary emitted: {reason}"),
                ),
                Ok(_) => Check::fail(
                    "analyze/dynamic-fallback",
                    &subj_p,
                    "a data-dependent program was summarized — the analyzer overclaims",
                    vec!["expected summarize() to refuse".into()],
                ),
            });
        }
    }

    // Race verdicts: the conflicting program must be flagged with a
    // two-op witness, everything else proven race-free.
    {
        let mut lines = Vec::new();
        let mut ok = true;
        for spec in programs.iter().filter(|s| s.analyzable()) {
            let found = program_conflict(spec, offsets);
            let expect_racy = spec.name == "hotspot-writers";
            match (expect_racy, found) {
                (true, Some(w)) => lines.push(format!("{}: flagged: {w}", spec.name)),
                (false, None) => lines.push(format!("{}: race-free", spec.name)),
                (true, None) => {
                    ok = false;
                    lines.push(format!("{}: NOT flagged (detector vacuous)", spec.name));
                }
                (false, Some(w)) => {
                    ok = false;
                    lines.push(format!("{}: falsely flagged: {w}", spec.name));
                }
            }
        }
        checks.push(if ok {
            Check::pass(
                "analyze/race-verdict",
                &subj,
                format!("{} programs classified correctly", lines.len()),
            )
            .with_metric("programs", lines.len() as u64)
        } else {
            Check::fail(
                "analyze/race-verdict",
                &subj,
                "a program was misclassified",
                lines,
            )
        });
    }

    // Summary emission for the proven-safe program, with the ATT bound
    // against the hardware capacity and the per-bank balance.
    match summarize(&programs[0], n, c, offsets) {
        Ok(summary) => {
            let capacity = b.saturating_sub(1);
            checks.push(if summary.att_bound <= capacity {
                Check::pass(
                    "analyze/att-occupancy",
                    &subj,
                    format!(
                        "peak {} concurrently-live entries ≤ capacity {capacity}",
                        summary.att_bound
                    ),
                )
                .with_metric("att_bound", summary.att_bound as u64)
                .with_metric("capacity", capacity as u64)
            } else {
                Check::fail(
                    "analyze/att-occupancy",
                    &subj,
                    format!(
                        "static bound {} exceeds ATT capacity {capacity}",
                        summary.att_bound
                    ),
                    vec![format!("peak bank: {}", summary.per_bank_accesses.len())],
                )
            });
            let max = summary.per_bank_accesses.iter().max().copied().unwrap_or(0);
            let min = summary.per_bank_accesses.iter().min().copied().unwrap_or(0);
            checks.push(if max == min {
                Check::pass(
                    "analyze/per-bank-footprint",
                    &subj,
                    format!("all {b} banks carry exactly {max} accesses — perfectly balanced"),
                )
                .with_metric("per_bank", max)
            } else {
                Check::fail(
                    "analyze/per-bank-footprint",
                    &subj,
                    "the uniform sweep program loads banks unevenly",
                    vec![format!("min {min}, max {max}")],
                )
            });
        }
        Err(reason) => checks.push(Check::fail(
            "analyze/att-occupancy",
            &subj,
            "the statically safe program failed to summarize",
            vec![reason],
        )),
    }

    // Refutations: the misconfigured neighbours must yield concrete
    // witnesses (undersized: a two-op conflict from the interpreter;
    // oversized: an orphan address path).
    if b > 1 {
        let geom = Geometry {
            procs: n,
            banks: b - 1,
            bank_cycle: c as usize,
        };
        let conflict: Option<TwoOpWitness> = interp::interpret(&programs[0], &geom).conflict;
        checks.push(match conflict {
            Some(w) => Check::pass(
                "analyze/refute-undersized",
                &subj,
                format!("b={} refuted with a two-op witness: {w}", b - 1),
            ),
            None => Check::fail(
                "analyze/refute-undersized",
                &subj,
                format!("b={} < c·n yet the walk found no conflict — vacuous", b - 1),
                vec!["expected a same-slot or busy-time witness".into()],
            ),
        });
    }
    {
        let raw = crate::schedule::RawSchedule {
            banks: b + 1,
            bank_cycle: c as usize,
            skew_proc: None,
        };
        checks.push(match raw.check_no_phantom_paths(n) {
            Err(msg) => Check::pass(
                "analyze/refute-oversized",
                &subj,
                format!("b={} refuted: {msg}", b + 1),
            ),
            Ok(()) => Check::fail(
                "analyze/refute-oversized",
                &subj,
                format!("b={} > c·n yet every path has an owner — vacuous", b + 1),
                vec!["expected an orphan address path".into()],
            ),
        });
    }

    checks
}

/// Program-level lock-order acyclicity over the lock-ladder spec.
fn lock_order_check(offsets: usize) -> Check {
    let spec = standard_programs(4)
        .into_iter()
        .find(|s| s.name == "lock-ladder")
        .expect("standard suite has the ladder");
    let _ = offsets;
    let mut g = LockOrderGraph::new();
    for (p, locks) in spec.locks.iter().enumerate() {
        g.add_sequence(&format!("{}:p{p}", spec.name), locks);
    }
    let cycles = g.find_cycles();
    if let Some(cyc) = cycles.first() {
        return Check::fail(
            "analyze/lock-order",
            &spec.name,
            "the program-level acquisition graph has a cycle",
            vec![cyc.path()],
        );
    }
    Check::pass(
        "analyze/lock-order",
        &spec.name,
        format!(
            "{} locks, {} held→acquired edges, no cycle",
            g.locks().count(),
            g.edge_count()
        ),
    )
    .with_metric("edges", g.edge_count() as u64)
}

/// Out-of-range footprint queries must surface as the typed
/// [`cfm_core::spec::FootprintError`] — never silently read as "no
/// accessor" / "no conflict" (the failure mode this report line
/// guards: a wrong geometry looking like an absence of hazards).
fn footprint_range_check(offsets: usize) -> Check {
    let name = "analyze/footprint-range";
    let subj = format!("offsets={offsets}");
    let fp = match standard_programs(4)[0].footprint(offsets) {
        Some(fp) => fp,
        None => {
            return Check::fail(
                name,
                &subj,
                "disjoint-sweep lost its footprint",
                vec!["expected an analyzable spec".into()],
            )
        }
    };
    let writers = fp.writers_at(offsets).map(|_| ());
    let written = fp.written(offsets);
    let touches = fp.touches(offsets + 7);
    let all_typed = [writers.err(), written.err(), touches.err()]
        .iter()
        .all(|e| {
            matches!(
                e,
                Some(cfm_core::spec::FootprintError::OffsetOutOfRange { .. })
            )
        });
    if all_typed {
        let e = writers.unwrap_err();
        Check::pass(
            name,
            &subj,
            format!("out-of-range queries are typed errors, e.g. \"{e}\""),
        )
    } else {
        Check::fail(
            name,
            &subj,
            "an out-of-range query returned an untyped verdict",
            vec![
                format!("writers_at({offsets}): {writers:?}"),
                format!("written({offsets}): {written:?}"),
                format!("touches({}): {touches:?}", offsets + 7),
            ],
        )
    }
}

/// The differential gate: every statically race-free program must run
/// race-free (and bank-conflict-free) on a real traced machine; the
/// flagged program may run clean (the ATT arbitrates it) — the static
/// verdict is allowed to be strictly more conservative, never less.
fn differential_check(n: usize, c: u32, offsets: usize) -> Check {
    let subj = subject(n, c);
    let mut lines = Vec::new();
    let mut dynamic_races = 0u64;
    for spec in standard_programs(n).iter().filter(|s| s.analyzable()) {
        let statically_racy = program_conflict(spec, offsets).is_some();
        let (events, stats) = match run_traced(spec, n, c, offsets) {
            Ok(v) => v,
            Err(e) => {
                return Check::fail(
                    "analyze/differential-dynamic",
                    &subj,
                    format!("{}: traced run failed", spec.name),
                    vec![e],
                )
            }
        };
        let races = hb::find_races(&hb::analyze(&events));
        dynamic_races += races.len() as u64;
        if stats.bank_conflicts != 0 {
            return Check::fail(
                "analyze/differential-dynamic",
                &subj,
                format!("{}: dynamic run hit a bank conflict", spec.name),
                vec![format!("bank_conflicts={}", stats.bank_conflicts)],
            );
        }
        if !statically_racy && !races.is_empty() {
            return Check::fail(
                "analyze/differential-dynamic",
                &subj,
                format!(
                    "{}: proven race-free statically but the happens-before detector \
                     found a race — the analyzer is unsound",
                    spec.name
                ),
                races.iter().map(|r| r.summary.clone()).collect(),
            );
        }
        lines.push(format!(
            "{}: static {} / dynamic {} races",
            spec.name,
            if statically_racy { "racy" } else { "free" },
            races.len()
        ));
    }
    Check::pass(
        "analyze/differential-dynamic",
        &subj,
        format!(
            "{} programs: static verdict ≥ dynamic on every one",
            lines.len()
        ),
    )
    .with_metric("programs", lines.len() as u64)
    .with_metric("dynamic_races", dynamic_races)
}

/// Footprint admission on a live `cfm-serve` service: a conflicting
/// tenant footprint (and a conflicting per-op submit) must be rejected
/// with the typed witness while disjoint traffic flows conflict-free.
fn serve_admission_check(offsets: usize) -> Check {
    use cfm_serve::{Reject, Service, ServiceConfig, TenantSpec};
    let name = "analyze/serve-admission";
    let subj = "n=4 c=1 tenants=writer,reader";
    let cfg = match CfmConfig::new(4, 1, 16) {
        Ok(cfg) => cfg,
        Err(e) => return Check::fail(name, subj, "config rejected", vec![format!("{e:?}")]),
    };
    let service = match Service::start(
        ServiceConfig::new(cfg, offsets)
            .with_tenant(TenantSpec::new("writer").queue_capacity(8))
            .with_tenant(TenantSpec::new("reader").queue_capacity(8)),
    ) {
        Ok(s) => s,
        Err(e) => return Check::fail(name, subj, "service refused to start", vec![e.to_string()]),
    };

    // Tenant 0 holds the hotspot program's footprint (writes block 0).
    let held = standard_programs(4)
        .into_iter()
        .find(|s| s.name == "hotspot-writers")
        .and_then(|s| s.footprint(offsets))
        .expect("hotspot is analyzable");
    if let Err(e) = service.footprints().admit(0, held) {
        return Check::fail(
            name,
            subj,
            "holder's own admission failed",
            vec![e.to_string()],
        );
    }

    // A disjoint read footprint is admitted...
    let mut disjoint = Footprint::new(offsets);
    disjoint.record(0, false, offsets - 1);
    if let Err(e) = service.footprints().admit(1, disjoint) {
        return Check::fail(name, subj, "disjoint admission failed", vec![e.to_string()]);
    }
    // ...but one touching the written block is refused with the witness.
    let mut clash = Footprint::new(offsets);
    clash.record(0, false, 0);
    let fp_reject = service.footprints().admit(1, clash);
    let fp_ok = matches!(
        fp_reject,
        Err(Reject::StaticConflict {
            tenant: 0,
            offset: 0,
            held_writes: true,
            ..
        })
    );
    // Per-op enforcement: the reader cannot touch the claimed block.
    let op_reject = service.submit(1, cfm_core::op::Operation::read(0)).err();
    let op_ok = matches!(
        op_reject,
        Some(Reject::StaticConflict {
            tenant: 0,
            offset: 0,
            held_writes: true,
            requested_writes: false,
        })
    );
    // The holder itself flows, conflict-free.
    let ticket = service.submit(0, cfm_core::op::Operation::write(0, vec![7; 4]));
    let completed = ticket.map(|t| t.wait().is_some()).unwrap_or(false);
    let report = service.drain();

    if fp_ok && op_ok && completed && report.stats.bank_conflicts == 0 {
        Check::pass(
            name,
            subj,
            "conflicting footprint and op rejected with the static witness; \
             holder's traffic completed with 0 bank conflicts",
        )
        .with_metric("rejected_static", report.metrics.tenants[1].rejected_static)
    } else {
        Check::fail(
            name,
            subj,
            "admission did not behave as proven",
            vec![
                format!("footprint reject: {fp_reject:?}"),
                format!("op reject: {op_reject:?}"),
                format!("holder completed: {completed}"),
                format!("bank_conflicts: {}", report.stats.bank_conflicts),
            ],
        )
    }
}

/// Run the analyze section: the `(n, c)` sweep, the fixed-config
/// consumer integrations, and (with `self_test`) the seeded-defect
/// self-tests.
pub fn verify(spec: &AnalyzeSpec, self_test: bool) -> Vec<Check> {
    let mut checks = Vec::new();
    for n in spec.n.clone() {
        for c in spec.c.clone() {
            checks.extend(verify_config(n, c, spec.offsets));
        }
    }
    checks.push(lock_order_check(spec.offsets));
    checks.push(footprint_range_check(spec.offsets));
    checks.push(differential_check(4, 1, spec.offsets));
    checks.push(serve_admission_check(spec.offsets));
    if self_test {
        checks.extend(self_tests(spec.offsets));
    }
    checks
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::Status;

    #[test]
    fn default_sweep_is_all_pass() {
        let spec = AnalyzeSpec {
            n: 2..=4,
            c: 1..=2,
            offsets: 16,
        };
        for check in verify(&spec, true) {
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
    fn hotspot_witness_names_the_shared_block() {
        let spec = &standard_programs(4)[2];
        assert_eq!(spec.name, "hotspot-writers");
        let w = program_conflict(spec, 16).expect("hotspot must be flagged");
        assert_eq!(w.offset, 0);
        assert_ne!(w.proc_a, w.proc_b);
        assert!(w.a_writes || w.b_writes);
        let (a, b) = witness_operations(spec, &w, 4, 16);
        assert_eq!(a.offset(), 0);
        assert_eq!(b.offset(), 0);
    }

    #[test]
    fn disjoint_program_summarizes_and_hotspot_does_not_conflict_freely() {
        let programs = standard_programs(4);
        let s = summarize(&programs[0], 4, 1, 16).expect("disjoint-sweep is provable");
        assert!(s.att_bound <= 3);
        assert_eq!(s.per_bank_accesses.len(), 4);
        let writers = s.footprint().writers_at(0).unwrap();
        assert!(writers.contains(0) && !writers.contains(1));
        assert!(
            summarize(&programs[4], 4, 1, 16).is_err(),
            "data-dependent refuses"
        );
    }
}
