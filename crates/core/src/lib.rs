//! # cfm-core — the Conflict-Free Memory architecture, cycle-accurately
//!
//! This crate implements the primary contribution of Shing & Ni's
//! *A Conflict-Free Memory Design for Multiprocessors* (Supercomputing '91;
//! dissertation 1992): a shared-memory design in which every memory access
//! is a **block access** scheduled in an **address–time (AT) space** so
//! that no two processors ever touch the same memory bank in the same time
//! slot. Memory conflicts and interconnection-network contention are
//! eliminated *by construction* rather than reduced statistically.
//!
//! The crate is organised bottom-up, mirroring the hardware:
//!
//! * [`config`] — system parameters (`n`, `b`, `c`, `w`, …) and the derived
//!   quantities of §3.1.4 (block size `l = b·w`, block access time
//!   `β = b + c − 1`), plus the Table 3.3 trade-off generator.
//! * [`atspace`] — the AT-space mapping `bank(t, p) = (t + c·p) mod b` and
//!   its partition properties (§3.1.2, Table 3.1).
//! * [`switch`] — the clock-driven synchronous switch box (Fig 3.4) and the
//!   1-to-c demultiplexer column used when the bank cycle exceeds the CPU
//!   cycle (Fig 3.5).
//! * [`bank`] — pipelined memory banks storing one word per block offset.
//! * [`att`] — the Address Tracking Table of Chapter 4: a per-bank
//!   associative shift queue that arbitrates same-block write/write and
//!   read/write races introduced by staggered block starts, and that
//!   implements the atomic block `swap`.
//! * [`op`] — block operations (read / write / swap) and their in-flight
//!   state machines, including abort and restart outcomes.
//! * [`machine`] — [`machine::CfmMachine`], the slot-stepped simulator that
//!   ties processors, the synchronous interconnect, banks and ATTs
//!   together and checks the conflict-freedom invariant every cycle. Its
//!   parallel engine ([`config::Engine::Parallel`]) steps each slot in one
//!   pass that proves one access at a time, and shards runs of slots
//!   proven hazard-free (windows) across worker threads — conflict
//!   freedom makes the per-slot work disjoint by construction, and both
//!   keep the observable behaviour byte-identical to the sequential
//!   engine (see `docs/performance.md`).
//! * [`program`] — a small "processor program" abstraction for driving the
//!   machine with reactive per-processor logic, used by the lock
//!   implementations and the examples.
//! * [`lock`] — busy-waiting lock/unlock built on atomic block swap
//!   (§4.2.2), which on CFM spins without creating memory or network
//!   traffic hot spots.
//! * [`cluster`] — the multi-cluster extension of §3.3 in which free time
//!   slots serve remote memory requests, wired by the [`topology`]
//!   module's full/mesh/hypercube cluster interconnects.
//! * [`slotshare`] — the §7.2 future-work extension: several processors
//!   sharing each AT-space partition.
//! * [`timing`] — Fig 3.6 block-access timing diagrams.
//! * [`stats`] — counters shared by the simulators.
//! * [`trace`] — structured execution events ([`trace::TraceEvent`]) and
//!   the [`trace::TraceSink`] hook the machines thread through the
//!   schedule, banks and ATTs; `cfm-verify trace` analyses the recorded
//!   logs (happens-before races, linearizability, bank busy times).
//! * [`fault`] — deterministic fault injection ([`fault::FaultPlan`]) and
//!   the degraded-mode [`fault::BankMap`]: seeded, slot-scheduled bank /
//!   switch / response faults the machines consult every slot, with
//!   online remap of dead banks onto spares; `cfm-verify chaos` soaks the
//!   standard workloads under generated plans.
//! * [`snapshot`] — checkpoint/restore: [`machine::CfmMachine::checkpoint`]
//!   captures a running machine (memory image, ATT entries, in-flight
//!   operations, fault state) into a byte-stable versioned
//!   [`snapshot::MachineSnapshot`] that restores into the same shape
//!   byte-identically, or into a *larger* shape (more banks/spares) after
//!   a drain — the substrate of `cfm-serve` live migration and
//!   `cfm-verify restore`.
//! * [`engine`] — the persistent [`engine::WorkerPool`] behind the
//!   parallel engine's proven windows, reusable by anything that needs long-lived
//!   condvar-parked worker threads (the `cfm-serve` event loop runs on
//!   it).
//! * [`spec`] — declarative program specifications with symbolic
//!   offsets, their static [`spec::Footprint`]s, and the
//!   [`spec::HazardSummary`] artifact `cfm-verify analyze` proves; the
//!   footprints gate `cfm-serve` admission.
//! * [`testing`] — the [`testing::Injector`] facade over the machine's
//!   seeded-fault hooks, used by the verifier's self-tests.
//!
//! ## Quick start
//!
//! ```
//! use cfm_core::config::CfmConfig;
//! use cfm_core::machine::CfmMachine;
//! use cfm_core::op::{Operation, Outcome};
//!
//! // Four processors, bank cycle = 1 CPU cycle, so four banks (Fig 3.4).
//! let cfg = CfmConfig::new(4, 1, 32).unwrap();
//! let mut m = CfmMachine::builder(cfg).offsets(64).build();
//!
//! // Processor 2 writes block 7 while processor 0 reads block 3 — they can
//! // start in the *same* cycle because their AT-space subsets are disjoint.
//! m.issue(2, Operation::write(7, vec![1, 2, 3, 4])).unwrap();
//! m.issue(0, Operation::read(3)).unwrap();
//! let done = m.run(100).expect_idle();
//! assert_eq!(done.len(), 2);
//! assert_eq!(m.stats().bank_conflicts, 0); // conflict-free by construction
//! ```

pub mod atspace;
pub mod att;
pub mod bank;
pub mod building_block;
pub mod cluster;
pub mod config;
pub mod engine;
pub mod fault;
pub mod lock;
pub mod machine;
pub mod op;
pub mod program;
pub mod slotshare;
pub mod snapshot;
pub mod spec;
pub mod stats;
pub mod switch;
pub mod sync_programs;
pub mod testing;
pub mod timing;
pub mod topology;
pub mod trace;

/// A machine word as stored in one memory bank entry.
///
/// The paper parameterises the word *width* `w` in bits (Table 3.2); the
/// simulator stores every word in a `u64` and tracks `w` separately in
/// [`config::CfmConfig`] for size/latency accounting, since no experiment
/// depends on sub-word bit layout except the multiple-lock bit maps, which
/// fit easily in 64 bits per word.
pub type Word = u64;

/// Index of a processor, `0 ≤ p < n`.
pub type ProcId = usize;

/// Index of a memory bank, `0 ≤ k < b`.
pub type BankId = usize;

/// Offset of a block within every bank (the `a` of the paper's `a · t`
/// address): block `o` consists of word `o` of every bank.
pub type BlockOffset = usize;

/// A cycle / time-slot number. Slots have the length of one CPU cycle.
pub type Cycle = u64;
