//! Exhaustive coherence model checking (§5).
//!
//! Enumerates the **entire reachable state space** of the pure protocol
//! model ([`cfm_cache::model`]) by breadth-first search with state
//! hashing, asserting on every discovered state:
//!
//! * **single-writer-multiple-reader** — per block, at most one dirty
//!   copy, and a dirty copy excludes valid copies;
//! * **no-stale-read** — any readable copy (valid or dirty) holds the
//!   current block value, and the current value is never lost (some
//!   fresh dirty copy exists whenever memory is stale);
//! * **race resolution** — every concurrent same-block primitive pair
//!   the state space can actually produce is resolved by the access
//!   control matrix (Table 5.2): one side retries, or the pair commutes
//!   (read/read, or write-back racing an already-downgraded flush).
//!
//! Because parent pointers are kept per state, a violation is reported
//! as a **counterexample trace**: the exact event sequence from the
//! initial state to the bad state, plus a dump of the bad state. The
//! deliberately broken [`ProtocolVariant`] mutants exercise this path.

use std::collections::{HashMap, VecDeque};

use cfm_cache::line::LineState;
use cfm_cache::model::{ModelConfig, ModelEvent, ModelState, ProtocolModel, ProtocolVariant};
use cfm_cache::protocol::{access_control, PrimKind};

use crate::report::Check;

/// Model-checking options.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckOptions {
    /// Model dimensions.
    pub cfg: ModelConfig,
    /// Protocol variant to check.
    pub variant: ProtocolVariant,
    /// Hard cap on explored states (the search reports `complete =
    /// false` if it hits the cap).
    pub max_states: usize,
}

impl Default for CheckOptions {
    fn default() -> Self {
        CheckOptions {
            cfg: ModelConfig::small(),
            variant: ProtocolVariant::Correct,
            max_states: 5_000_000,
        }
    }
}

/// A violated invariant with its counterexample trace.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Which invariant failed.
    pub invariant: &'static str,
    /// What exactly is wrong in the bad state.
    pub detail: String,
    /// Event sequence from the initial state to the bad state, followed
    /// by a dump of the bad state.
    pub trace: Vec<String>,
}

/// Result of one exhaustive exploration.
#[derive(Debug, Clone)]
pub struct Exploration {
    /// Distinct states discovered.
    pub states: u64,
    /// Transitions traversed.
    pub transitions: u64,
    /// Concurrent same-block primitive pairs checked against Table 5.2.
    pub races_checked: u64,
    /// Whether the whole reachable space was enumerated (false iff the
    /// state cap was hit).
    pub complete: bool,
    /// The first violation found, if any (the search stops there).
    pub violation: Option<Violation>,
}

/// Enumerate the reachable state space and check every invariant on
/// every state.
pub fn explore(opts: &CheckOptions) -> Exploration {
    let model = ProtocolModel::with_variant(opts.cfg, opts.variant);
    let init = ModelState::initial(opts.cfg);

    let mut ids: HashMap<ModelState, usize> = HashMap::new();
    let mut states: Vec<ModelState> = Vec::new();
    let mut parent: Vec<Option<(usize, ModelEvent)>> = Vec::new();
    let mut queue: VecDeque<usize> = VecDeque::new();

    ids.insert(init.clone(), 0);
    states.push(init);
    parent.push(None);
    queue.push_back(0);

    let mut transitions = 0u64;
    let mut races_checked = 0u64;

    if let Some((invariant, detail)) = invariant_violation(opts.cfg, &states[0], &mut races_checked)
    {
        return Exploration {
            states: 1,
            transitions: 0,
            races_checked,
            complete: false,
            violation: Some(build_violation(
                invariant, detail, 0, &states, &parent, opts.cfg,
            )),
        };
    }

    while let Some(id) = queue.pop_front() {
        let succs = model.successors(&states[id]);
        for (event, next) in succs {
            transitions += 1;
            if let Some(&_known) = ids.get(&next) {
                continue;
            }
            let next_id = states.len();
            ids.insert(next.clone(), next_id);
            states.push(next);
            parent.push(Some((id, event)));
            if let Some((invariant, detail)) =
                invariant_violation(opts.cfg, &states[next_id], &mut races_checked)
            {
                return Exploration {
                    states: states.len() as u64,
                    transitions,
                    races_checked,
                    complete: false,
                    violation: Some(build_violation(
                        invariant, detail, next_id, &states, &parent, opts.cfg,
                    )),
                };
            }
            if states.len() >= opts.max_states {
                return Exploration {
                    states: states.len() as u64,
                    transitions,
                    races_checked,
                    complete: false,
                    violation: None,
                };
            }
            queue.push_back(next_id);
        }
    }

    Exploration {
        states: states.len() as u64,
        transitions,
        races_checked,
        complete: true,
        violation: None,
    }
}

/// Check all coherence invariants on one state; returns the first
/// violated invariant and a description.
fn invariant_violation(
    cfg: ModelConfig,
    s: &ModelState,
    races_checked: &mut u64,
) -> Option<(&'static str, String)> {
    for b in 0..cfg.blocks {
        let mut dirty: Vec<usize> = Vec::new();
        let mut valid: Vec<usize> = Vec::new();
        for p in 0..cfg.procs {
            match s.line(cfg, p, b) {
                LineState::Dirty => dirty.push(p),
                LineState::Valid => valid.push(p),
                LineState::Invalid => {}
            }
        }
        // Single writer, multiple readers.
        if dirty.len() > 1 {
            return Some((
                "single-writer-multiple-reader",
                format!(
                    "block {b}: processors {} and {} both hold dirty copies",
                    dirty[0], dirty[1]
                ),
            ));
        }
        if let (Some(&owner), Some(&reader)) = (dirty.first(), valid.first()) {
            return Some((
                "single-writer-multiple-reader",
                format!(
                    "block {b}: P{owner} holds a dirty copy while P{reader} still holds a \
                     valid copy"
                ),
            ));
        }
        // No readable stale copy, and the current value is never lost.
        for p in 0..cfg.procs {
            if s.line(cfg, p, b) != LineState::Invalid && !s.cached_fresh[s.idx(cfg, p, b)] {
                return Some((
                    "no-stale-read",
                    format!(
                        "block {b}: P{p} holds a {:?} but stale copy — a CPU read would \
                         return an outdated value",
                        s.line(cfg, p, b)
                    ),
                ));
            }
        }
        if !s.mem_fresh[b] && !dirty.iter().any(|&p| s.cached_fresh[s.idx(cfg, p, b)]) {
            return Some((
                "no-stale-read",
                format!(
                    "block {b}: memory is stale and no fresh dirty copy exists — the \
                     current value is lost"
                ),
            ));
        }
    }
    // Race resolution: every concurrent same-block pair must be handled
    // by Table 5.2 or commute.
    for p in 0..cfg.procs {
        let Some((pk, pb)) = s.pending[p] else {
            continue;
        };
        for q in (p + 1)..cfg.procs {
            let Some((qk, qb)) = s.pending[q] else {
                continue;
            };
            if pb != qb {
                continue;
            }
            *races_checked += 1;
            if !pair_resolved(cfg, s, pb, (p, pk), (q, qk)) {
                return Some((
                    "race-resolution",
                    format!(
                        "block {pb}: concurrent {pk:?} by P{p} and {qk:?} by P{q} — \
                         Table 5.2 lets both proceed and they do not commute"
                    ),
                ));
            }
        }
    }
    None
}

/// Whether a concurrent same-block primitive pair is safe: one side
/// retries under Table 5.2, or the pair commutes.
fn pair_resolved(
    cfg: ModelConfig,
    s: &ModelState,
    block: usize,
    (p, pk): (usize, PrimKind),
    (q, qk): (usize, PrimKind),
) -> bool {
    // One side yields (Table 5.2's Retry) — the ATT serializes them.
    if access_control(pk, qk).is_some() || access_control(qk, pk).is_some() {
        return true;
    }
    // Reads commute.
    if pk == PrimKind::Read && qk == PrimKind::Read {
        return true;
    }
    // Two write-backs can only meet when at most one of them still owns
    // a dirty copy (the other was downgraded by a racing read and its
    // flush degenerates to a no-op drop) — then they commute too.
    if pk == PrimKind::WriteBack && qk == PrimKind::WriteBack {
        let dirty_owners = [p, q]
            .iter()
            .filter(|&&x| s.line(cfg, x, block) == LineState::Dirty)
            .count();
        return dirty_owners <= 1;
    }
    false
}

/// Reconstruct the event trace from the initial state to `id` and
/// append a dump of the violating state.
fn build_violation(
    invariant: &'static str,
    detail: String,
    id: usize,
    states: &[ModelState],
    parent: &[Option<(usize, ModelEvent)>],
    cfg: ModelConfig,
) -> Violation {
    let mut events = Vec::new();
    let mut cur = id;
    while let Some((prev, event)) = parent[cur] {
        events.push(event.to_string());
        cur = prev;
    }
    events.reverse();
    let mut trace: Vec<String> = events
        .iter()
        .enumerate()
        .map(|(i, e)| format!("{}. {e}", i + 1))
        .collect();
    trace.push(format!("=> state: {}", dump_state(cfg, &states[id])));
    Violation {
        invariant,
        detail,
        trace,
    }
}

/// A compact one-line dump of a model state.
fn dump_state(cfg: ModelConfig, s: &ModelState) -> String {
    let mut parts = Vec::new();
    for p in 0..cfg.procs {
        for b in 0..cfg.blocks {
            let line = s.line(cfg, p, b);
            if line != LineState::Invalid {
                let fresh = if s.cached_fresh[s.idx(cfg, p, b)] {
                    "fresh"
                } else {
                    "STALE"
                };
                parts.push(format!("P{p}.b{b}={line:?}({fresh})"));
            }
        }
        if let Some((kind, b)) = s.pending[p] {
            parts.push(format!("P{p}.pending={kind:?}(b{b})"));
        }
    }
    for (b, &fresh) in s.mem_fresh.iter().enumerate() {
        if !fresh {
            parts.push(format!("mem.b{b}=STALE"));
        }
    }
    if parts.is_empty() {
        "all lines invalid, memory fresh".into()
    } else {
        parts.join(" ")
    }
}

/// Run the model checker and wrap the result as a report [`Check`].
pub fn check(opts: &CheckOptions) -> Check {
    let subj = format!(
        "procs={} blocks={} variant={:?}",
        opts.cfg.procs, opts.cfg.blocks, opts.variant
    );
    let result = explore(opts);
    match result.violation {
        None if result.complete => Check::pass(
            "coherence/reachable-space",
            &subj,
            format!(
                "{} states, {} transitions exhaustively checked: SWMR, no-stale-read, \
                 {} races resolved by Table 5.2",
                result.states, result.transitions, result.races_checked
            ),
        )
        .with_metric("states", result.states)
        .with_metric("transitions", result.transitions)
        .with_metric("races_checked", result.races_checked),
        None => Check::fail(
            "coherence/reachable-space",
            &subj,
            format!(
                "state cap hit after {} states — exploration incomplete, raise --max-states",
                result.states
            ),
            vec!["the reachable space was not exhausted".into()],
        )
        .with_metric("states", result.states),
        Some(v) => {
            let mut counterexample =
                vec![format!("invariant {} violated: {}", v.invariant, v.detail)];
            counterexample.extend(v.trace);
            Check::fail(
                "coherence/reachable-space",
                &subj,
                format!(
                    "invariant {} violated after {} states (trace below)",
                    v.invariant, result.states
                ),
                counterexample,
            )
            .with_metric("states", result.states)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn opts(procs: usize, blocks: usize, variant: ProtocolVariant) -> CheckOptions {
        CheckOptions {
            cfg: ModelConfig { procs, blocks },
            variant,
            max_states: 2_000_000,
        }
    }

    #[test]
    fn correct_protocol_is_clean_on_two_procs_one_block() {
        let r = explore(&opts(2, 1, ProtocolVariant::Correct));
        assert!(r.complete, "exploration must exhaust the space");
        assert!(r.violation.is_none(), "violation: {:?}", r.violation);
        assert!(r.states > 10, "suspiciously small space: {}", r.states);
        assert!(r.races_checked > 0, "race pairs must actually occur");
    }

    #[test]
    fn correct_protocol_is_clean_on_two_procs_two_blocks() {
        let r = explore(&opts(2, 2, ProtocolVariant::Correct));
        assert!(r.complete);
        assert!(r.violation.is_none(), "violation: {:?}", r.violation);
    }

    #[test]
    fn missing_invalidate_yields_a_stale_sharer_trace() {
        let r = explore(&opts(2, 1, ProtocolVariant::MissingInvalidate));
        let v = r.violation.expect("mutant must be caught");
        // The un-invalidated sharer breaks both SWMR (a valid copy
        // coexists with the new dirty owner) and no-stale-read; BFS
        // reports whichever bad state is reached first.
        assert!(
            v.invariant == "single-writer-multiple-reader" || v.invariant == "no-stale-read",
            "unexpected invariant {}",
            v.invariant
        );
        assert!(!v.trace.is_empty());
        assert!(
            v.trace.iter().any(|l| l.contains("ReadInvalidate")),
            "trace must show the write that went un-invalidated: {:#?}",
            v.trace
        );
    }

    #[test]
    fn lost_write_back_yields_a_stale_read_trace() {
        let r = explore(&opts(2, 1, ProtocolVariant::LostWriteBack));
        let v = r.violation.expect("mutant must be caught");
        // The skipped write-back leaves the owner dirty while the reader
        // caches stale memory: SWMR or no-stale-read fires first.
        assert!(
            v.invariant == "single-writer-multiple-reader" || v.invariant == "no-stale-read",
            "unexpected invariant {}",
            v.invariant
        );
        assert!(v.trace.last().unwrap().contains("state:"));
    }

    #[test]
    fn state_cap_reports_incomplete() {
        let r = explore(&CheckOptions {
            cfg: ModelConfig {
                procs: 2,
                blocks: 2,
            },
            variant: ProtocolVariant::Correct,
            max_states: 100,
        });
        assert!(!r.complete);
        assert_eq!(r.states, 100);
    }
}
