//! Trace-analysis regression tests: one fixed racy trace and one fixed
//! deadlocking acquisition history must keep producing *exactly* the
//! same witnesses, the full trace pipeline must stay green through the
//! same public API the CLI uses, and the JSON report must stay
//! byte-stable.

use cfm_core::config::Engine;
use cfm_core::op::OpKind;
use cfm_core::trace::{MemoryTrace, TraceEvent, TraceSink};
use cfm_verify::cli::{self, Format, Options, Section};
use cfm_verify::trace::{hb, TraceSpec};
use resource_binding::lockorder::LockOrderGraph;

/// The canonical racy trace: a write and a read on the same block from
/// different processors, issued the same slot, sweeping the two banks in
/// opposite directions with no ATT merge recorded — a version tear.
fn racy_trace() -> Vec<TraceEvent> {
    let mut t = MemoryTrace::new();
    t.record(TraceEvent::Issue {
        slot: 0,
        proc: 0,
        op_id: 1,
        kind: OpKind::Write,
        offset: 0,
    });
    t.record(TraceEvent::Issue {
        slot: 0,
        proc: 1,
        op_id: 2,
        kind: OpKind::Read,
        offset: 0,
    });
    for (slot, proc, bank, op_id, write) in [
        (0u64, 0usize, 0usize, 1u64, true),
        (0, 1, 1, 2, false),
        (1, 0, 1, 1, true),
        (1, 1, 0, 2, false),
    ] {
        t.record(TraceEvent::BankAccess {
            slot,
            proc,
            bank,
            offset: 0,
            op_id,
            write,
            word: 0,
        });
    }
    t.into_events()
}

#[test]
fn fixed_racy_trace_yields_the_exact_witness() {
    let races = hb::find_races(&hb::analyze(&racy_trace()));
    assert_eq!(races.len(), 1);
    assert_eq!(
        races[0].summary,
        "ops 1 (proc 0, write) and 2 (proc 1, read) race on offset 0"
    );
    assert_eq!(
        races[0].lines,
        vec![
            "bank 0: op 1 @0 before op 2 @1".to_string(),
            "bank 1: op 2 @0 before op 1 @1".to_string(),
            "word order is mixed and no happens-before edge orders the pair".to_string(),
        ]
    );
}

#[test]
fn fixed_deadlocking_acquisitions_yield_the_exact_cycle() {
    // Two processes taking the same two locks in opposite orders — the
    // smallest possible deadlock.
    let mut g = LockOrderGraph::new();
    g.add_sequence("fwd", &[3, 7]);
    g.add_sequence("rev", &[7, 3]);
    let cycles = g.find_cycles();
    assert_eq!(cycles.len(), 1);
    assert_eq!(cycles[0].locks, vec![3, 7]);
    assert_eq!(cycles[0].path(), "3 -[fwd]-> 7 -[rev]-> 3");
    assert!(!g.is_deadlock_free());
}

#[test]
fn trace_pipeline_passes_on_a_sampled_sweep_with_self_tests() {
    let opts = Options {
        sections: vec![Section::Trace(TraceSpec {
            n: 2..=5,
            c: 1..=2,
            sharers: vec![2, 3],
            engine: Engine::Sequential,
        })],
        self_test: true,
        format: Format::Text,
    };
    let report = cli::run(&opts);
    assert_eq!(report.exit_code(), 0, "{}", report.render_text());
    assert_eq!(report.failed(), 0);
    // The self-tests all ran and all caught their faults.
    let text = report.render_text();
    for name in [
        "self-test/trace-dropped-merge",
        "self-test/trace-reordered-writeback",
        "self-test/trace-lock-cycle",
        "self-test/trace-linearizability",
    ] {
        assert!(text.contains(name), "missing {name} in:\n{text}");
    }
}

#[test]
fn trace_json_report_is_byte_stable_across_runs() {
    let opts = Options {
        sections: vec![Section::Trace(TraceSpec {
            n: 2..=4,
            c: 1..=2,
            sharers: vec![2],
            // The parallel engine must be just as deterministic: two
            // runs of the same sweep render byte-identical JSON.
            engine: Engine::Parallel { threads: 1 },
        })],
        self_test: true,
        format: Format::Json,
    };
    let a = cli::run(&opts).to_json().render();
    let b = cli::run(&opts).to_json().render();
    assert_eq!(a, b, "same workloads must render identical JSON");
    for key in [
        "\"tool\": \"cfm-verify\"",
        "\"status\": \"pass\"",
        "\"trace/race-freedom\"",
        "\"trace/bank-spacing\"",
        "\"trace/linearizability\"",
        "\"trace/lock-order\"",
    ] {
        assert!(a.contains(key), "missing {key} in:\n{a}");
    }
}
