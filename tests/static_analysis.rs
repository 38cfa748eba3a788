//! Differential property tests for the static program analyzer: the
//! analyzer's verdicts must agree with — or be strictly more
//! conservative than — what a real machine execution observes.
//!
//! * A program the analyzer proves race-free must execute with zero
//!   dynamic happens-before races and zero bank conflicts.
//! * A refutation witness must be *concrete*: replaying exactly the two
//!   operations it names on a real machine reproduces the collision as
//!   an address-table merge on the witnessed block.
//!
//! Programs are decoded from sampled words (the same idiom as
//! `engine_equivalence.rs`): each word packs one op spec — two bits of
//! pattern, an offset base, a stride, and a constant/linear selector —
//! dealt round-robin across the processors.

use cfm_verify::analyze::{program_conflict, standard_programs, summarize, witness_operations};
use cfm_verify::trace::hb;
use conflict_free_memory::core::config::{CfmConfig, Engine};
use conflict_free_memory::core::machine::CfmMachine;
use conflict_free_memory::core::op::Completion;
use conflict_free_memory::core::spec::{OffsetExpr, OpPattern, OpSpec, ProgramSpec};
use conflict_free_memory::core::stats::Stats;
use conflict_free_memory::core::trace::TraceEvent;
use conflict_free_memory::core::Word;
use proptest::prelude::*;

const OFFSETS: usize = 8;

/// Decode one packed word into an analyzable op spec.
fn decode_op(word: u64) -> OpSpec {
    let pattern = match word % 4 {
        0 => OpPattern::Read,
        1 => OpPattern::Write,
        2 => OpPattern::Swap,
        _ => OpPattern::FetchAdd,
    };
    let base = (word >> 2) as usize % OFFSETS;
    let offset = if (word >> 7) & 1 == 0 {
        OffsetExpr::Const(base)
    } else {
        OffsetExpr::ProcLinear {
            base,
            stride: (word >> 5) as usize % 3,
        }
    };
    OpSpec::new(pattern, offset)
}

/// Deal the packed words round-robin into an `n`-processor program.
fn decode_program(n: usize, rounds: usize, words: &[u64]) -> ProgramSpec {
    let mut spec = ProgramSpec::uniform("prop", n, rounds, Vec::new());
    spec.ops = vec![Vec::new(); n];
    for (i, &word) in words.iter().enumerate() {
        spec.ops[i % n].push(decode_op(word));
    }
    spec
}

/// Drive `spec` to completion on a machine with the given engine;
/// returns the slots the one-pass step proved whole last.
fn execute(
    spec: &ProgramSpec,
    n: usize,
    c: u32,
    engine: Engine,
    trace: bool,
) -> (Vec<Completion>, Stats, Vec<Vec<Word>>, Vec<TraceEvent>, u64) {
    let cfg = CfmConfig::new(n, c, 16).unwrap().with_engine(engine);
    let banks = cfg.banks();
    let mut m = CfmMachine::builder(cfg)
        .offsets(OFFSETS)
        .trace(trace)
        .build();
    let mut scripts: Vec<std::collections::VecDeque<_>> = (0..n)
        .map(|p| spec.instantiate(p, banks, OFFSETS).into())
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
    let memory = (0..OFFSETS).map(|o| m.peek_block(o)).collect();
    let proven_slots = m.parallel_slots();
    let events = if trace {
        m.take_trace().unwrap().into_events()
    } else {
        Vec::new()
    };
    (completions, *m.stats(), memory, events, proven_slots)
}

proptest! {
    /// Statically race-free ⇒ dynamically race-free: the happens-before
    /// detector finds no race in the traced execution, and the machine
    /// reports zero bank conflicts. (Statically racy programs MAY run
    /// clean — the static verdict is allowed to be conservative, never
    /// unsound.)
    #[test]
    fn static_race_freedom_implies_dynamic(
        n in 2usize..6,
        c in 1u32..3,
        rounds in 1usize..3,
        words in proptest::collection::vec(0u64..u64::MAX, 2..16),
    ) {
        let spec = decode_program(n, rounds, &words);
        prop_assert!(spec.analyzable());
        let statically_racy = program_conflict(&spec, OFFSETS).is_some();
        let (_, stats, _, events, _) =
            execute(&spec, n, c, Engine::Sequential, true);
        prop_assert_eq!(stats.bank_conflicts, 0, "valid geometry must never conflict");
        let races = hb::find_races(&hb::analyze(&events));
        if !statically_racy {
            prop_assert!(
                races.is_empty(),
                "analyzer said race-free but the dynamic detector found: {}",
                races[0].summary
            );
        }
    }

    /// A refutation witness is concrete: the two operations it names,
    /// replayed alone on a real machine so that they genuinely overlap,
    /// collide in the address table on exactly the witnessed block. A
    /// swap/RMW defers its write phase by a full bank sweep, so the
    /// replay anchors on the deferred writer and issues the other op
    /// when that write phase (and its ATT entry) is live — the
    /// interleaving the static witness is warning about.
    #[test]
    fn conflict_witness_replays_dynamically(
        n in 2usize..6,
        c in 1u32..3,
        rounds in 1usize..3,
        words in proptest::collection::vec(0u64..u64::MAX, 2..16),
    ) {
        use conflict_free_memory::core::op::OpKind;
        let spec = decode_program(n, rounds, &words);
        let Some(w) = program_conflict(&spec, OFFSETS) else {
            return Ok(());
        };
        let cfg = CfmConfig::new(n, c, 16).unwrap();
        let banks = cfg.banks();
        let mut m = CfmMachine::builder(cfg).offsets(OFFSETS).trace(true).build();
        let (op_a, op_b) = witness_operations(&spec, &w, banks, OFFSETS);
        prop_assert_eq!(op_a.offset(), w.offset);
        prop_assert_eq!(op_b.offset(), w.offset);
        // Anchor: a deferred writer (swap/RMW) if either side is one,
        // otherwise any writing side. Delay the other op until the
        // anchor's write phase has begun.
        let deferred = |k: OpKind| matches!(k, OpKind::Swap | OpKind::Rmw);
        let ((p1, o1), (p2, o2)) = if deferred(op_a.kind())
            || (!deferred(op_b.kind()) && op_a.kind() != OpKind::Read)
        {
            ((w.proc_a, op_a), (w.proc_b, op_b))
        } else {
            ((w.proc_b, op_b), (w.proc_a, op_a))
        };
        let delay = if deferred(o1.kind()) { banks } else { 0 };
        m.issue(p1, o1).unwrap();
        for _ in 0..delay {
            m.step();
        }
        m.issue(p2, o2).unwrap();
        let _ = m.run(200_000).expect_idle();
        let events = m.take_trace().unwrap().into_events();
        let merges = events
            .iter()
            .filter(|e| matches!(e, TraceEvent::AttMerge { offset, .. } if *offset == w.offset))
            .count();
        prop_assert!(
            merges > 0,
            "witness `{}` did not reproduce: no ATT merge on block {}",
            w, w.offset
        );
    }

}

/// The legacy `u64`-bitmask footprint semantics, reimplemented locally
/// as a differential oracle: for every processor id below 64 (the old
/// mask's whole domain — overflow saturation excluded, because that
/// behaviour was conservative slop the symbolic domain deliberately
/// sheds) the symbolic residue-class footprint must answer every query
/// exactly as the bitmask did.
struct MaskFootprint {
    offsets: usize,
    readers: Vec<u64>,
    writers: Vec<u64>,
}

impl MaskFootprint {
    fn new(offsets: usize) -> Self {
        MaskFootprint {
            offsets,
            readers: vec![0; offsets],
            writers: vec![0; offsets],
        }
    }

    fn record(&mut self, p: usize, writes: bool, offset: usize) {
        assert!(p < 64, "oracle domain");
        if offset >= self.offsets {
            return;
        }
        if writes {
            self.writers[offset] |= 1 << p;
        } else {
            self.readers[offset] |= 1 << p;
        }
    }

    fn reads(&self, p: usize, offset: usize) -> bool {
        self.readers[offset] & (1u64 << p) != 0
    }

    fn writes(&self, p: usize, offset: usize) -> bool {
        self.writers[offset] & (1u64 << p) != 0
    }

    fn written(&self, offset: usize) -> bool {
        self.writers[offset] != 0
    }

    fn touches(&self, offset: usize) -> bool {
        self.readers[offset] != 0 || self.writers[offset] != 0
    }
}

proptest! {
    /// Differential: over the bitmask's whole domain (n ≤ 64), the
    /// symbolic footprint — built through the compact `record_expr`
    /// residue-class path via `ProgramSpec::footprint` — agrees with
    /// the bitmask oracle on every reader / writer membership, written
    /// and touches query, including processors the program never uses.
    #[test]
    fn symbolic_footprint_matches_bitmask_oracle(
        n in 1usize..65,
        rounds in 1usize..3,
        words in proptest::collection::vec(0u64..u64::MAX, 1..24),
    ) {
        let spec = decode_program(n, rounds, &words);
        let sym = spec.footprint(OFFSETS).expect("analyzable");
        let mut mask = MaskFootprint::new(OFFSETS);
        for (p, list) in spec.ops.iter().enumerate() {
            for op in list {
                mask.record(p, op.pattern.writes(), op.offset.eval(p, OFFSETS));
            }
        }
        for o in 0..OFFSETS {
            prop_assert_eq!(sym.written(o).unwrap(), mask.written(o));
            prop_assert_eq!(sym.touches(o).unwrap(), mask.touches(o));
            // Two processors past the program's last: never recorded,
            // and the domains must agree on that too.
            for p in 0..(n + 2).min(64) {
                prop_assert_eq!(
                    sym.writers_at(o).unwrap().contains(p),
                    mask.writes(p, o),
                    "writer membership diverged at p={} o={}", p, o
                );
                prop_assert_eq!(
                    sym.readers_at(o).unwrap().contains(p),
                    mask.reads(p, o),
                    "reader membership diverged at p={} o={}", p, o
                );
            }
        }
    }

}

/// The disjoint sweep at (4, 1) — the program the analyzer proves —
/// must have slots the parallel engine proves whole: the one-pass
/// step's hazard test proves at run time what the analyzer proves
/// ahead of it.
#[test]
fn proven_program_steps_proven_slots() {
    let spec = standard_programs(4)
        .into_iter()
        .find(|s| s.name == "disjoint-sweep")
        .unwrap();
    summarize(&spec, 4, 1, OFFSETS).expect("disjoint sweep is provable");
    let (_, stats, _, _, proven_slots) =
        execute(&spec, 4, 1, Engine::Parallel { threads: 1 }, false);
    assert_eq!(stats.bank_conflicts, 0);
    assert!(
        proven_slots > 0,
        "no slot proven whole — the proven path is dead"
    );
}
