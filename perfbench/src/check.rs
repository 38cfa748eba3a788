//! Output checks. A run whose checker records any violation reports
//! `"correct": false` and exits non-zero.
//!
//! - Every attempted request is answered exactly once.
//! - No completion is torn, hit by a transient fault, or about another
//!   block or kind than its request, and the machine reports no bank
//!   conflict and no torn read.
//! - A read of a *tracked* block returns that block's last write. A block
//!   is tracked when a single closed-loop client at depth 1 owns it (the
//!   sim-disjoint processors, the critical probe's private blocks), so
//!   "last write" is well defined.
//! - The edge reports no wire error.

use std::ops::Range;

use cfm_core::op::{Completion, OpKind, Operation, Outcome};
use cfm_core::Word;

/// Violations kept verbatim; further ones are only counted.
const KEEP: usize = 8;

/// A deliberate corruption fed to the checker by the self-test, to show
/// that a bad response fails the run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Corrupt {
    /// Flip one word of a tracked read's data.
    StaleRead,
    /// Mark one read completion torn.
    Torn,
    /// Deliver one answer twice.
    Duplicate,
    /// Drop one read's answer.
    Lost,
}

impl Corrupt {
    /// Every corruption, with the name `--corrupt` takes.
    pub const ALL: [(&'static str, Corrupt); 4] = [
        ("stale-read", Corrupt::StaleRead),
        ("torn", Corrupt::Torn),
        ("duplicate", Corrupt::Duplicate),
        ("lost", Corrupt::Lost),
    ];
}

/// One client's checker.
pub struct Checker {
    tracked: Range<usize>,
    last: Vec<Vec<Word>>,
    attempted: u64,
    answered: u64,
    refused: u64,
    bad: u64,
    violations: u64,
    kept: Vec<String>,
    corrupt: Option<Corrupt>,
}

impl Checker {
    /// A checker tracking last writes of blocks `tracked`, each starting
    /// as `banks` zero words.
    pub fn new(tracked: Range<usize>, banks: usize) -> Self {
        Checker {
            last: vec![vec![0; banks]; tracked.len()],
            tracked,
            attempted: 0,
            answered: 0,
            refused: 0,
            bad: 0,
            violations: 0,
            kept: Vec::new(),
            corrupt: None,
        }
    }

    /// Corrupt the next answer `corrupt` applies to (self-test only).
    pub fn corrupt_next(&mut self, corrupt: Option<Corrupt>) {
        self.corrupt = corrupt;
    }

    /// Record a violation.
    pub fn violation(&mut self, what: String) {
        self.violations += 1;
        if self.kept.len() < KEEP {
            self.kept.push(what);
        }
    }

    /// A request was sent.
    pub fn attempt(&mut self) {
        self.attempted += 1;
    }

    /// A request was refused: it counts as failed.
    pub fn refused(&mut self, why: &str) {
        self.refused += 1;
        self.violation(format!("request refused: {why}"));
    }

    /// Check the answer `c` to request `op`.
    pub fn answer(&mut self, op: &Operation, c: &Completion) {
        let mut c = std::borrow::Cow::Borrowed(c);
        let mut times = 1;
        match self.corrupt {
            Some(Corrupt::StaleRead)
                if c.kind == OpKind::Read && self.tracked.contains(&c.offset) =>
            {
                let data = c.to_mut().data.as_mut().expect("reads carry data");
                data[0] ^= 1;
                self.corrupt = None;
            }
            Some(Corrupt::Torn) if c.kind == OpKind::Read => {
                c.to_mut().torn = true;
                self.corrupt = None;
            }
            Some(Corrupt::Duplicate) => {
                times = 2;
                self.corrupt = None;
            }
            Some(Corrupt::Lost) if c.kind == OpKind::Read => {
                times = 0;
                self.corrupt = None;
            }
            _ => {}
        }
        for _ in 0..times {
            self.check(op, &c);
        }
    }

    fn check(&mut self, op: &Operation, c: &Completion) {
        self.answered += 1;
        let before = self.violations;
        self.check_answer(op, c);
        if self.violations > before {
            self.bad += 1;
        }
    }

    fn check_answer(&mut self, op: &Operation, c: &Completion) {
        if c.kind != op.kind() || c.offset != op.offset() {
            self.violation(format!(
                "answer {:?}@{} to request {:?}@{}",
                c.kind,
                c.offset,
                op.kind(),
                op.offset()
            ));
            return;
        }
        if c.torn {
            self.violation(format!("torn read of block {}", c.offset));
        }
        if matches!(c.outcome, Outcome::TransientFault) {
            self.violation(format!(
                "{:?} of block {} hit a transient fault",
                c.kind, c.offset
            ));
        }
        if !self.tracked.contains(&c.offset) {
            return;
        }
        let i = c.offset - self.tracked.start;
        match op {
            Operation::Write { data, .. } => self.last[i] = data.to_vec(),
            Operation::Read { .. } if c.data.as_deref() != Some(&self.last[i][..]) => {
                self.violation(format!(
                    "read of block {} did not return its last write",
                    c.offset
                ));
            }
            _ => {}
        }
    }

    /// Machine- and edge-level checks, once the run has drained.
    pub fn finish(&mut self, bank_conflicts: u64, torn_reads: u64, wire_errors: u64) {
        if bank_conflicts != 0 {
            self.violation(format!("{bank_conflicts} bank conflicts"));
        }
        if torn_reads != 0 {
            self.violation(format!("{torn_reads} torn reads"));
        }
        if wire_errors != 0 {
            self.violation(format!("{wire_errors} wire errors"));
        }
    }

    /// Fold another client's checker into this one.
    pub fn merge(&mut self, other: &Checker) {
        self.attempted += other.attempted;
        self.answered += other.answered;
        self.refused += other.refused;
        self.bad += other.bad;
        self.violations += other.violations;
        let room = KEEP.saturating_sub(self.kept.len());
        self.kept.extend(other.kept.iter().take(room).cloned());
    }

    /// Requests attempted.
    pub fn attempted(&self) -> u64 {
        self.attempted
    }

    /// Requests refused, unanswered, or answered wrongly.
    pub fn failed(&self) -> u64 {
        self.refused + self.bad + self.attempted.saturating_sub(self.answered + self.refused)
    }

    /// Every violation, including unanswered or twice-answered requests.
    pub fn verdict(&self) -> (bool, Vec<String>) {
        let mut kept = self.kept.clone();
        let answered = self.answered + self.refused;
        if answered != self.attempted {
            kept.push(format!(
                "{} requests attempted, {} answered",
                self.attempted, answered
            ));
        }
        (kept.is_empty() && self.violations == 0, kept)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn done(op: &Operation, data: Option<Vec<Word>>) -> Completion {
        Completion {
            proc: 0,
            kind: op.kind(),
            offset: op.offset(),
            data: data.map(Vec::into_boxed_slice),
            issued_at: 0,
            completed_at: 16,
            restarts: 0,
            outcome: Outcome::Completed,
            torn: false,
        }
    }

    fn write_then_read(corrupt: Option<Corrupt>) -> Checker {
        let mut ck = Checker::new(4..8, 2);
        ck.corrupt_next(corrupt);
        let w = Operation::write(5, vec![9, 9]);
        let r = Operation::read(5);
        ck.attempt();
        ck.answer(&w, &done(&w, None));
        ck.attempt();
        ck.answer(&r, &done(&r, Some(vec![9, 9])));
        ck
    }

    #[test]
    fn clean_answers_pass() {
        assert!(write_then_read(None).verdict().0);
    }

    #[test]
    fn every_corruption_fails() {
        for (name, c) in Corrupt::ALL {
            assert!(!write_then_read(Some(c)).verdict().0, "{name} passed");
        }
    }

    #[test]
    fn stale_read_of_tracked_block_fails() {
        let mut ck = Checker::new(0..1, 2);
        let r = Operation::read(0);
        ck.attempt();
        ck.answer(&r, &done(&r, Some(vec![1, 0])));
        assert!(!ck.verdict().0);
    }

    #[test]
    fn machine_level_violations_fail() {
        let mut ck = write_then_read(None);
        ck.finish(1, 0, 0);
        assert!(!ck.verdict().0);
        let mut ck = write_then_read(None);
        ck.finish(0, 0, 2);
        assert!(!ck.verdict().0);
    }
}
