//! Reactive per-processor programs and a runner that drives a
//! [`CfmMachine`] with them, plus a driver for fixed operation scripts.
//!
//! The machine itself is a passive state machine; anything that must
//! *react* to completions — spin locks, workload loops, coherence
//! controllers — is naturally expressed as a [`Program`] attached to a
//! processor. The [`Runner`] steps the machine, delivers completions, and
//! asks idle processors for their next operation, all at exact cycle
//! granularity.
//!
//! A workload that needs no reaction is a list of operations per
//! processor. The [`ScriptDriver`] runs such scripts with the same slot
//! discipline as [`Runner::tick`]: each pass polls processor 0, issues
//! its next operation if it is idle, then does the same for processor 1
//! and so on, and the machine steps between passes. Two machines driven
//! with equal scripts therefore see equal completion streams, which is
//! what the checkpoint/restore, fault-injection and trace checks
//! compare. [`ScriptDriver::pass`] runs one pass, for a caller that
//! stops mid-flight (to checkpoint, say); [`ScriptDriver::drain`]
//! alternates passes and steps until the scripts are spent and the
//! machine idles, within a step budget.

use std::collections::VecDeque;

use crate::machine::CfmMachine;
use crate::op::{Completion, Operation, PendingOp, StallError};
use crate::{Cycle, ProcId};

/// The logic a processor runs against the memory system.
pub trait Program {
    /// Called whenever the processor is idle at `cycle`; return the next
    /// operation to issue (it starts in the next cycle), or `None` to stay
    /// idle this cycle.
    fn next_op(&mut self, cycle: Cycle) -> Option<Operation>;

    /// Called when an operation completes.
    fn on_completion(&mut self, completion: &Completion, cycle: Cycle);

    /// Whether the program is done (the runner stops when all are).
    fn finished(&self) -> bool;
}

/// A program that does nothing, for processors that sit idle.
#[derive(Debug, Default, Clone, Copy)]
pub struct Idle;

impl Program for Idle {
    fn next_op(&mut self, _cycle: Cycle) -> Option<Operation> {
        None
    }
    fn on_completion(&mut self, _completion: &Completion, _cycle: Cycle) {}
    fn finished(&self) -> bool {
        true
    }
}

/// Outcome of [`Runner::run`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunOutcome {
    /// Every program reported finished; carries the cycle count consumed.
    Finished(u64),
    /// The cycle budget elapsed first.
    BudgetExhausted {
        /// Cycles executed before the budget ran out (= the budget that
        /// was given, reported so callers can surface a proper error
        /// instead of a bare "did not finish").
        executed: u64,
        /// One [`StallError`] per operation still in flight, naming the
        /// owning processor, the stuck operation, and its last observable
        /// progress — the diagnosis that matters when an injected fault
        /// (not the budget) is what wedged the run.
        stalled: Vec<StallError<PendingOp>>,
    },
}

/// Drives a machine with one [`Program`] per processor.
pub struct Runner {
    machine: CfmMachine,
    programs: Vec<Box<dyn Program>>,
}

impl Runner {
    /// A runner where every processor starts [`Idle`].
    pub fn new(machine: CfmMachine) -> Self {
        let n = machine.config().processors();
        Runner {
            machine,
            programs: (0..n).map(|_| Box::new(Idle) as Box<dyn Program>).collect(),
        }
    }

    /// Attach a program to processor `p`.
    pub fn set_program(&mut self, p: ProcId, program: Box<dyn Program>) {
        self.programs[p] = program;
    }

    /// The machine being driven.
    pub fn machine(&self) -> &CfmMachine {
        &self.machine
    }

    /// Mutable access to the machine (e.g. to poke initial memory).
    pub fn machine_mut(&mut self) -> &mut CfmMachine {
        &mut self.machine
    }

    /// Consume the runner, returning the machine.
    pub fn into_machine(self) -> CfmMachine {
        self.machine
    }

    /// Poll completions and issue next operations for all idle processors,
    /// then step one cycle. Returns the number of completions delivered.
    pub fn tick(&mut self) -> usize {
        let mut delivered = 0;
        let cycle = self.machine.cycle();
        for p in 0..self.programs.len() {
            while let Some(c) = self.machine.poll(p) {
                self.programs[p].on_completion(&c, cycle);
                delivered += 1;
            }
            if !self.machine.is_busy(p) {
                if let Some(op) = self.programs[p].next_op(cycle) {
                    self.machine
                        .issue(p, op)
                        .expect("idle processor accepted operation");
                }
            }
        }
        self.machine.step();
        delivered
    }

    /// Run until every program reports finished and the machine drains, or
    /// the cycle budget is exhausted.
    pub fn run(&mut self, max_cycles: u64) -> RunOutcome {
        let start = self.machine.cycle();
        for _ in 0..max_cycles {
            let all_done = self.programs.iter().all(|p| p.finished()) && self.machine.is_idle();
            if all_done {
                // Drain any final completions to the programs.
                let cycle = self.machine.cycle();
                for p in 0..self.programs.len() {
                    while let Some(c) = self.machine.poll(p) {
                        self.programs[p].on_completion(&c, cycle);
                    }
                }
                return RunOutcome::Finished(self.machine.cycle() - start);
            }
            self.tick();
        }
        let executed = self.machine.cycle() - start;
        let stalled = self
            .machine
            .pending_ops()
            .into_iter()
            .map(|(proc, op)| StallError {
                last_progress: op.last_progress,
                op,
                proc,
                waited: executed,
            })
            .collect();
        RunOutcome::BudgetExhausted { executed, stalled }
    }
}

/// One operation a [`ScriptDriver`] completed: the issuing processor,
/// the call, and its completion.
pub type Scripted = (ProcId, Operation, Completion);

/// Drives a machine with one fixed operation script per processor (see
/// the module docs for the pass order).
#[derive(Debug, Clone)]
pub struct ScriptDriver {
    scripts: Vec<VecDeque<Operation>>,
    /// Calls issued and not yet completed, per processor, oldest first.
    calls: Vec<VecDeque<Operation>>,
}

impl ScriptDriver {
    /// A driver for `scripts[p]`, the operations processor `p` issues
    /// in order.
    pub fn new(scripts: Vec<VecDeque<Operation>>) -> Self {
        let calls = vec![VecDeque::new(); scripts.len()];
        ScriptDriver { scripts, calls }
    }

    /// One pass in processor order: append each processor's completions
    /// to `done`, then issue its next scripted operation if it is idle.
    pub fn pass(&mut self, machine: &mut CfmMachine, done: &mut Vec<Scripted>) {
        for (p, script) in self.scripts.iter_mut().enumerate() {
            while let Some(completion) = machine.poll(p) {
                let call = self.calls[p]
                    .pop_front()
                    .expect("completion matches a call");
                done.push((p, call, completion));
            }
            if !machine.is_busy(p) {
                if let Some(op) = script.pop_front() {
                    self.calls[p].push_back(op.clone());
                    machine.issue(p, op).expect("idle processor accepts");
                }
            }
        }
    }

    /// Alternate passes and steps until every script is spent and the
    /// machine idles, returning the completed operations in delivery
    /// order. `None` if `budget` steps do not suffice.
    pub fn drain(&mut self, machine: &mut CfmMachine, budget: u64) -> Option<Vec<Scripted>> {
        let mut done = Vec::new();
        for steps in 0..=budget {
            self.pass(machine, &mut done);
            if machine.is_idle() && self.scripts.iter().all(VecDeque::is_empty) {
                return Some(done);
            }
            if steps < budget {
                machine.step();
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CfmConfig;
    use crate::op::OpKind;

    /// Writes a block, reads it back, checks the roundtrip.
    struct WriteThenRead {
        offset: usize,
        banks: usize,
        state: u8,
        ok: bool,
    }

    impl Program for WriteThenRead {
        fn next_op(&mut self, _cycle: Cycle) -> Option<Operation> {
            match self.state {
                0 => {
                    self.state = 1;
                    Some(Operation::write(self.offset, vec![42; self.banks]))
                }
                1 => None, // waiting for write completion
                2 => {
                    self.state = 3;
                    Some(Operation::read(self.offset))
                }
                _ => None,
            }
        }
        fn on_completion(&mut self, c: &Completion, _cycle: Cycle) {
            match c.kind {
                OpKind::Write => self.state = 2,
                OpKind::Read => {
                    self.ok = c.data.as_deref() == Some(&vec![42; self.banks][..]);
                    self.state = 4;
                }
                _ => {}
            }
        }
        fn finished(&self) -> bool {
            self.state == 4
        }
    }

    #[test]
    fn runner_drives_programs_to_completion() {
        let cfg = CfmConfig::new(4, 1, 16).unwrap();
        let mut r = Runner::new(CfmMachine::builder(cfg).offsets(16).build());
        for p in 0..4 {
            r.set_program(
                p,
                Box::new(WriteThenRead {
                    offset: p,
                    banks: 4,
                    state: 0,
                    ok: false,
                }),
            );
        }
        match r.run(1000) {
            RunOutcome::Finished(cycles) => assert!(cycles < 100),
            RunOutcome::BudgetExhausted { executed, .. } => {
                panic!("did not finish within the budget ({executed} cycles executed)")
            }
        }
        assert_eq!(r.machine().stats().bank_conflicts, 0);
    }

    #[test]
    fn script_driver_pairs_calls_and_stops_mid_flight_or_on_budget() {
        let cfg = CfmConfig::new(4, 1, 16).unwrap();
        let machine = CfmMachine::builder(cfg).offsets(16).build();
        let scripts: Vec<VecDeque<Operation>> = (0..4)
            .map(|p| VecDeque::from([Operation::write(p, vec![p as u64; 4]), Operation::read(p)]))
            .collect();

        let (mut m, mut driver) = (machine.clone(), ScriptDriver::new(scripts.clone()));
        let done = driver
            .drain(&mut m, 1000)
            .expect("drains within the budget");
        assert_eq!(done.len(), 8);
        for (p, call, completion) in &done {
            assert_eq!(call.offset(), *p);
            assert_eq!(call.kind(), completion.kind);
        }
        assert!(done
            .iter()
            .any(|(_, _, c)| c.data.as_deref() == Some(&[3; 4][..])));

        // Stopping after a few passes and draining the rest yields the
        // same stream as one drain.
        let (mut m2, mut driver2) = (machine.clone(), ScriptDriver::new(scripts.clone()));
        let mut prefix = Vec::new();
        for _ in 0..3 {
            driver2.pass(&mut m2, &mut prefix);
            m2.step();
        }
        prefix.extend(driver2.drain(&mut m2, 1000).unwrap());
        assert_eq!(prefix, done);
        assert_eq!(m2.cycle(), m.cycle());

        let mut m3 = machine;
        assert_eq!(ScriptDriver::new(scripts).drain(&mut m3, 2), None);
        assert_eq!(m3.cycle(), 2);
    }

    #[test]
    fn idle_runner_finishes_immediately() {
        let cfg = CfmConfig::new(2, 1, 16).unwrap();
        let mut r = Runner::new(CfmMachine::builder(cfg).offsets(4).build());
        assert_eq!(r.run(10), RunOutcome::Finished(0));
    }

    #[test]
    fn budget_exhaustion_names_the_stalled_owners() {
        let cfg = CfmConfig::new(4, 2, 16).unwrap();
        let mut r = Runner::new(CfmMachine::builder(cfg).offsets(8).build());
        r.set_program(
            2,
            Box::new(WriteThenRead {
                offset: 1,
                banks: 8,
                state: 0,
                ok: false,
            }),
        );
        // A 2-cycle budget cannot complete the 9-cycle write: the
        // outcome must carry the pending op and its owner.
        match r.run(2) {
            RunOutcome::BudgetExhausted { executed, stalled } => {
                assert_eq!(executed, 2);
                assert_eq!(stalled.len(), 1);
                let s = &stalled[0];
                assert_eq!(s.proc, 2);
                assert_eq!(s.op.kind, OpKind::Write);
                assert_eq!(s.op.offset, 1);
                assert_eq!(s.waited, 2);
                // Display carries the diagnosis end to end.
                assert!(s.to_string().contains("processor 2 stalled"));
            }
            other => panic!("expected budget exhaustion, got {other:?}"),
        }
    }
}
