//! End-to-end counterexample tests: deliberately broken inputs must
//! make the verifier fail with usable witnesses, and correct inputs
//! must pass — through the same public API the CLI uses.

use cfm_cache::model::{ModelConfig, ProtocolVariant};
use cfm_verify::cli::{self, Format, Options, Section};
use cfm_verify::coherence::{self, CheckOptions};
use cfm_verify::report::Status;
use cfm_verify::schedule::{RawSchedule, SweepSpec};

fn model_opts(variant: ProtocolVariant) -> CheckOptions {
    CheckOptions {
        cfg: ModelConfig {
            procs: 2,
            blocks: 1,
        },
        variant,
        max_states: 2_000_000,
    }
}

#[test]
fn broken_protocol_variants_yield_violation_traces() {
    for variant in [
        ProtocolVariant::MissingInvalidate,
        ProtocolVariant::LostWriteBack,
    ] {
        let check = coherence::check(&model_opts(variant));
        assert_eq!(check.status, Status::Fail, "{variant:?} must be caught");
        assert!(
            check.counterexample.len() >= 3,
            "{variant:?}: trace too short: {:#?}",
            check.counterexample
        );
        // The trace names the violated invariant and ends with the bad
        // state.
        assert!(check.counterexample[0].contains("invariant"));
        assert!(check.counterexample.last().unwrap().contains("state:"));
    }
}

#[test]
fn correct_protocol_produces_a_passing_check_with_state_metrics() {
    let check = coherence::check(&model_opts(ProtocolVariant::Correct));
    assert_eq!(check.status, Status::Pass, "{}", check.detail);
    let states = check
        .metrics
        .iter()
        .find(|(k, _)| k == "states")
        .map(|&(_, v)| v)
        .expect("states metric");
    assert!(states > 20, "tiny space: {states}");
}

#[test]
fn sabotaged_schedule_fails_the_sweep_machinery() {
    // The same engine the sweep uses must refute a skewed schedule with
    // a witness naming the colliding pair.
    let raw = RawSchedule {
        banks: 8,
        bank_cycle: 1,
        skew_proc: Some(5),
    };
    let witness = raw.refute(8, 1).expect("skew must be refuted");
    assert!(
        witness.contains("5"),
        "witness must name the skewed proc: {witness}"
    );
}

#[test]
fn cli_report_exits_nonzero_on_a_mutant_and_zero_on_correct() {
    let mutant = Options {
        sections: vec![Section::Model(model_opts(
            ProtocolVariant::MissingInvalidate,
        ))],
        self_test: false,
        format: Format::Text,
    };
    let report = cli::run(&mutant);
    assert_eq!(report.exit_code(), 1);
    assert_eq!(report.failed(), 1);

    let model = model_opts(ProtocolVariant::Correct);
    let correct = Options {
        sections: vec![
            Section::Sweep(SweepSpec {
                n: 2..=4,
                c: 1..=2,
                sharers: vec![2],
            }),
            Section::Model(model),
            Section::SelfTest {
                max_states: model.max_states,
            },
        ],
        self_test: true,
        format: Format::Json,
    };
    let report = cli::run(&correct);
    assert_eq!(report.exit_code(), 0, "{}", report.render_text());
    assert!(report.configs_swept() >= 6);
    assert!(report.states_explored() > 0);
}

#[test]
fn json_report_is_byte_stable_across_renders() {
    let opts = Options {
        sections: vec![Section::Sweep(SweepSpec {
            n: 2..=3,
            c: 1..=1,
            sharers: vec![],
        })],
        self_test: false,
        format: Format::Json,
    };
    let a = cli::run(&opts).to_json().render();
    let b = cli::run(&opts).to_json().render();
    assert_eq!(a, b, "same inputs must render identical JSON");
    for key in [
        "\"tool\": \"cfm-verify\"",
        "\"status\": \"pass\"",
        "\"configs_swept\": 2",
        "\"checks\": [",
    ] {
        assert!(a.contains(key), "missing {key} in:\n{a}");
    }
}
