//! Deterministic workloads whose executions the trace analyses consume.
//!
//! Each function drives a *real* simulator — the core CFM machine, the
//! slot-sharing frontend, the lock programs, or the cache machine — with
//! tracing enabled and returns the raw evidence (event log, operation
//! history, ledger) for the detectors. Everything is seeded and
//! schedule-deterministic, so the resulting report is byte-stable.

use std::cell::RefCell;
use std::collections::{BTreeMap, VecDeque};
use std::rc::Rc;

use cfm_core::config::{CfmConfig, Engine};
use cfm_core::lock::{CriticalLedger, SpinLockProgram};
use cfm_core::machine::CfmMachine;
use cfm_core::op::Operation;
use cfm_core::program::{RunOutcome, Runner, ScriptDriver};
use cfm_core::slotshare::SlotSharedMachine;
use cfm_core::trace::TraceEvent;
use cfm_core::{Cycle, ProcId, Word};

use super::linearize::HistOp;

/// Cycle budget for every workload drive loop.
const BUDGET: u64 = 400_000;

/// Drive `machine` with per-processor operation scripts until
/// everything drains, and return the history (calls paired with
/// completions). Panics if the budget runs out — workloads are sized
/// well below it.
fn scripted_history(machine: &mut CfmMachine, scripts: Vec<VecDeque<Operation>>) -> Vec<HistOp> {
    let done = ScriptDriver::new(scripts)
        .drain(machine, BUDGET)
        .expect("workload did not drain within the budget");
    done.into_iter()
        .map(|(proc, call, c)| HistOp {
            proc,
            issued_at: c.issued_at,
            completed_at: c.completed_at,
            call,
            response: c.data.as_ref().map(|b| b.to_vec()),
        })
        .collect()
}

/// The per-config contention workload: every processor writes a shared
/// block, reads the *other* shared block, fetch-adds a counter word, and
/// re-reads — maximal same-block overlap under the real ATT, executed on
/// the requested slot `engine`. Returns the event log and the completed
/// history.
pub fn core_contention(n: usize, c: u32, engine: Engine) -> (Vec<TraceEvent>, Vec<HistOp>) {
    let cfg = CfmConfig::new(n, c, 16)
        .expect("valid sweep config")
        .with_engine(engine);
    let banks = cfg.banks();
    let mut m = CfmMachine::builder(cfg).offsets(8).trace(true).build();
    let scripts: Vec<VecDeque<Operation>> = (0..n)
        .map(|p| {
            let mut q = VecDeque::new();
            q.push_back(Operation::write(p % 2, vec![(p as Word + 1) * 100; banks]));
            q.push_back(Operation::read((p + 1) % 2));
            q.push_back(Operation::fetch_add(2, 0, 1));
            q.push_back(Operation::read(p % 2));
            q
        })
        .collect();
    let history = scripted_history(&mut m, scripts);
    let events = m.take_trace().expect("tracing was enabled").into_events();
    (events, history)
}

/// A small all-overlapping swap/fetch-add contest on one block, sized
/// for the exhaustive linearizability search. Returns the history and
/// the bank count.
pub fn core_swap_contest(n: usize) -> (Vec<HistOp>, usize) {
    let cfg = CfmConfig::new(n, 1, 16).expect("valid config");
    let banks = cfg.banks();
    let mut m = CfmMachine::builder(cfg).offsets(4).build();
    let scripts: Vec<VecDeque<Operation>> = (0..n)
        .map(|p| {
            let mut q = VecDeque::new();
            q.push_back(Operation::swap(0, vec![p as Word + 1; banks]));
            q.push_back(Operation::fetch_add(0, 0, 10));
            q.push_back(Operation::read(0));
            q
        })
        .collect();
    let history = scripted_history(&mut m, scripts);
    (history, banks)
}

/// Outcome of the lock workload: the critical-section ledger plus the
/// trace of the machine that ran it.
pub struct LockRun {
    /// `(acquire, release, proc)` per completed critical section.
    pub log: Vec<(Cycle, Cycle, ProcId)>,
    /// Completed critical sections.
    pub entries: u64,
    /// Maximum simultaneous occupancy observed (must be ≤ 1).
    pub max_inside: usize,
    /// The machine's event log.
    pub events: Vec<TraceEvent>,
}

/// Run `n` spin-lock programs (swap-based lock of §4.2.2) for `rounds`
/// each on one lock block, tracing the machine underneath.
pub fn lock_contest(n: usize, rounds: u64, hold: u64) -> LockRun {
    let cfg = CfmConfig::new(n, 1, 16).expect("valid config");
    let machine = CfmMachine::builder(cfg).offsets(8).trace(true).build();
    let banks = machine.config().banks();
    let ledger = Rc::new(RefCell::new(CriticalLedger::default()));
    let mut runner = Runner::new(machine);
    for p in 0..n {
        runner.set_program(
            p,
            Box::new(SpinLockProgram::new(
                p,
                0,
                banks,
                hold,
                rounds,
                ledger.clone(),
            )),
        );
    }
    let outcome = runner.run(BUDGET);
    assert!(
        matches!(outcome, RunOutcome::Finished(_)),
        "lock contest did not finish: {outcome:?}"
    );
    let events = runner
        .machine_mut()
        .take_trace()
        .expect("tracing was enabled")
        .into_events();
    let ledger = ledger.borrow();
    LockRun {
        log: ledger.log.clone(),
        entries: ledger.entries,
        max_inside: ledger.max_inside,
        events,
    }
}

/// Run a slot-shared machine with every sharer issuing reads, returning
/// the event log (with [`TraceEvent::SlotEnqueue`]/
/// [`TraceEvent::SlotLaunch`] interleaved among the memory events).
pub fn slot_share_run(slots: usize, sharers: usize) -> Vec<TraceEvent> {
    let cfg = CfmConfig::new(slots, 1, 16).expect("valid config");
    let mut m = SlotSharedMachine::new(cfg, 8, sharers);
    m.enable_trace();
    for p in 0..m.processors() {
        m.issue(p, Operation::read(p % 4))
            .expect("idle sharer accepts");
    }
    assert!(m.run_until_idle(BUDGET), "slot-share run did not drain");
    m.take_trace().expect("tracing was enabled").into_events()
}

/// Outcome of the cache fetch-add contest.
pub struct CacheRun {
    /// The completed history (fetch-adds plus a final read).
    pub history: Vec<HistOp>,
    /// The coherent final counter value.
    pub final_value: Word,
    /// Bank count of the configuration.
    pub banks: usize,
}

/// Drive the cache-coherent machine with `n` processors each performing
/// `adds` atomic fetch-and-adds on one counter word, then read the
/// coherent result — the atomicity contest the linearizability oracle
/// re-checks offline.
pub fn cache_counter_contest(n: usize, adds: usize) -> CacheRun {
    use cfm_cache::machine::{CcMachine, CpuRequest, Rmw};
    let cfg = CfmConfig::new(n, 1, 16).expect("valid config");
    let banks = cfg.banks();
    let mut m = CcMachine::new(cfg, 8, 4);
    let mut remaining: Vec<usize> = vec![adds; n];
    let mut pending: Vec<Option<Operation>> = vec![None; n];
    let mut history = Vec::new();
    for _ in 0..BUDGET {
        for p in 0..n {
            if let Some(r) = m.poll(p) {
                let call = pending[p].take().expect("response matches a call");
                history.push(HistOp {
                    proc: p,
                    issued_at: r.issued_at,
                    completed_at: r.completed_at,
                    call,
                    response: Some(r.data.to_vec()),
                });
            }
            if pending[p].is_none() && remaining[p] > 0 && !m.is_busy(p) {
                let req = CpuRequest::Rmw {
                    offset: 0,
                    rmw: Rmw::FetchAndAdd { word: 0, delta: 1 },
                };
                if m.submit(p, req).is_ok() {
                    remaining[p] -= 1;
                    pending[p] = Some(Operation::fetch_add(0, 0, 1));
                }
            }
        }
        if m.is_idle() && remaining.iter().all(|&r| r == 0) && pending.iter().all(Option::is_none) {
            break;
        }
        m.step();
    }
    // Drain any final responses.
    for (p, slot) in pending.iter_mut().enumerate() {
        if let Some(r) = m.poll(p) {
            let call = slot.take().expect("response matches a call");
            history.push(HistOp {
                proc: p,
                issued_at: r.issued_at,
                completed_at: r.completed_at,
                call,
                response: Some(r.data.to_vec()),
            });
        }
    }
    assert!(
        pending.iter().all(Option::is_none) && remaining.iter().all(|&r| r == 0),
        "cache contest did not drain within the budget"
    );
    CacheRun {
        final_value: m.coherent_block(0)[0],
        history,
        banks,
    }
}

/// Initial memory of the workloads above: all zero blocks.
pub fn zero_memory() -> BTreeMap<usize, Vec<Word>> {
    BTreeMap::new()
}
