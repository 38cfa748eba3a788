//! # cfm-verify — static conflict-freedom verifier and coherence model checker
//!
//! The CFM's central claim is *structural*: with `b = c·n` banks and the
//! AT-space schedule `bank(t, p) = (t + c·p) mod b`, memory conflicts
//! are impossible by construction (§3), and the cache protocol rides
//! that structure to broadcast-free coherence (§5). The simulator crates
//! *implement* those designs; this crate *proves* them, per
//! configuration, by exhaustive checking:
//!
//! * [`schedule`] — for every swept `(n, c)`: per-slot injectivity of
//!   the AT-space partition, `proc_for`/`bank_for` round-trip,
//!   periodicity, refutation of the misconfigured `b ≠ c·n` neighbours,
//!   omega switch-state permutation extraction, partial-synchrony
//!   exclusivity, and the slot-sharing bookkeeping invariant under load.
//! * [`coherence`] — BFS enumeration of the protocol model's entire
//!   reachable state space with counterexample traces for
//!   single-writer-multiple-reader, no-stale-read, and Table 5.2 race
//!   resolution; deliberately broken variants prove the checker can
//!   fail.
//! * [`trace`] — dynamic analyses over *real* simulator executions via
//!   the structured event layer: a vector-clock happens-before race
//!   detector, an exhaustive linearizability checker for swap/RMW and
//!   the lock protocol, a bank busy-time auditor re-validating the
//!   spacing theorem on observed injections, a physical omega-route
//!   cross-check, and the static lock-order analysis — each with its
//!   own seeded-fault self-test (`cfm-verify trace --ci`).
//! * [`chaos`] — fault-injection soaks: seeded [`cfm_core::fault`]
//!   plans (bank death, transient errors, dropped/corrupted responses,
//!   stuck omega switches) driven against standard workloads, asserting
//!   post-remap injectivity, race freedom, write durability across
//!   remap boundaries, lock correctness, and stuck-switch detection —
//!   with seeded-fault self-tests (`cfm-verify chaos --ci`).
//! * [`serve`] — multi-tenant service soaks over `cfm-serve`: a mixed
//!   roster with a pure hot-spot tenant must keep `bank_conflicts` at 0,
//!   honour the windowed deficit-round-robin fairness bound, exercise
//!   typed queue-full backpressure without deadlocking, and complete
//!   every admitted request on drain — with detector self-tests
//!   (`cfm-verify serve --ci`).
//! * [`edge`] — wire-protocol edge soaks over real TCP: N concurrent
//!   clients push an adversarial tenant mix through `cfm-serve`'s
//!   nonblocking edge with exactly-once accounting and zero bank
//!   conflicts, the latency-critical probe's wire p99 is bounded live
//!   against saturating neighbours, flood shedding must be typed with
//!   retry hints, and seeded wire faults (stale version, unknown frame
//!   type, oversized length) must each be caught by exactly the
//!   intended [`cfm_serve::WireError`] detector
//!   (`cfm-verify edge --ci`).
//! * [`analyze`] — the static *program* analyzer: an abstract
//!   interpreter walks declarative [`cfm_core::spec::ProgramSpec`]s
//!   through the AT-space mapping and proves, before any execution,
//!   zero bank conflicts (with a concrete two-op witness on the
//!   misconfigured `b ∓ 1` neighbours), an ATT occupancy bound,
//!   program-level lock-order acyclicity, and per-bank access
//!   footprints; the resulting [`cfm_core::spec::HazardSummary`]'s
//!   footprint is enforced by `cfm-serve` admission — with seeded-defect
//!   self-tests and a differential gate against the dynamic race
//!   detector (`cfm-verify analyze --ci`).
//! * [`restore`] — checkpoint/restore soaks: machines running under
//!   active seeded fault plans are checkpointed mid-flight through the
//!   versioned byte codec and restored — same shape (byte-identical
//!   continuation), into a strictly larger shape (memory durable,
//!   target trace race-free), and live-migrated at the service layer
//!   while an untouched tenant keeps serving — with seeded-corruption
//!   self-tests for the typed [`cfm_core::snapshot::SnapshotError`]
//!   taxonomy (`cfm-verify restore --ci`).
//! * [`report`] / [`json`] — structured findings rendered as text or
//!   byte-stable JSON (`--format json`) for the CI gate.
//! * [`cli`] — the `cfm-verify` binary: `--sweep`, `--model`,
//!   `--self-test`, `--ci`.
//!
//! Exit codes: 0 = everything proved, 1 = a check failed (report names
//! the witness or trace), 2 = usage error.

pub mod analyze;
pub mod chaos;
pub mod cli;
pub mod coherence;
pub mod edge;
pub mod json;
pub mod report;
pub mod restore;
pub mod schedule;
pub mod serve;
pub mod trace;

/// Usage text shared by `--help` and argument errors.
pub const USAGE: &str = "\
cfm-verify — prove the CFM conflict-free schedule and coherence protocol

USAGE:
  cfm-verify [OPTIONS]
  cfm-verify trace [OPTIONS] [--engine E]
  cfm-verify chaos [--seeds LIST] [--engines LIST]
             [--self-test | --ci] [--format F]
  cfm-verify serve [--seeds LIST] [--ops N]
             [--self-test | --ci] [--format F]
  cfm-verify analyze [--sweep n=A..=B c=C..=D] [--offsets N]
             [--self-test | --ci] [--format F]
  cfm-verify restore [--seeds LIST] [--ops N]
             [--self-test | --ci] [--format F]
  cfm-verify edge [--seeds LIST] [--ops N] [--clients N]
             [--self-test | --ci] [--format F]
  cfm-verify all [--ci] [--format F]

The `trace` subcommand runs the dynamic analyses instead: it executes
real simulator workloads with event tracing enabled and checks the
traces for races (vector-clock happens-before + word-order uniformity),
linearizability (swap/RMW, the lock protocol, the cache counter),
schedule conformance of every observed bank injection, slot-sharing
FIFO accounting, and static lock-order cycles. `trace --ci` adds the
seeded-fault self-tests. `--engine sequential|parallel` selects the
slot engine the core workloads execute on, so the same analyses gate
the parallel engine's one-pass step.

The `chaos` subcommand soaks standard workloads under seeded
fault-injection plans (permanent bank death, transient bank errors,
dropped/corrupted responses, stuck omega switches) and asserts the
degraded-mode contract: post-remap per-slot injectivity, zero races,
no lost or torn writes across remap boundaries, lock correctness, and
stuck-switch detectability. `--seeds` overrides the default plan seeds,
`--engines` the slot engines the soaks rotate through (default
sequential,parallel); `chaos --ci` adds self-tests that
prove each detector non-vacuous.

The `analyze` subcommand runs the static program analyzer: every
standard program spec is abstractly interpreted on each swept `(n, c)`
configuration (default n=2..=8 c=1..=2, --offsets blocks, default 16),
proving zero bank conflicts, the ATT occupancy bound, lock-order
acyclicity, and per-bank footprints — and refuting the `b ∓ 1`
neighbours with concrete witnesses. Every static race verdict is
then differentially checked against the dynamic happens-before
detector, and cfm-serve must reject a conflicting tenant footprint
with the typed witness. `analyze --ci` adds the
seeded-defect self-tests (conflicting program, ATT overflow, lock
cycle).

The `restore` subcommand soaks checkpoint/restore and live migration
under active seeded fault plans: a mid-flight checkpoint restored into
the same shape must continue byte-identically; a quiesced snapshot
restored onto a machine with twice the processors and banks must keep
every unmasked word and serve a race-free workload; a service-level
live migration must move a tenant through the full byte codec while an
untouched tenant keeps completing. `--seeds` overrides the fault-plan
seeds, `--ops` the untouched tenant's read budget; `restore --ci` adds
self-tests proving the typed corruption detectors (truncation, stale
version, aliased restore map) non-vacuous.

The `edge` subcommand soaks the wire-protocol TCP edge: concurrent
wire clients drive an adversarial tenant mix (latency-critical probe
plus hot-spot, scan, and bursty neighbours) over real loopback
sockets with exactly-once accounting and zero bank conflicts, the
probe's wire p99 under saturation must stay within 3x its unloaded
p99, and a flood against tiny edge caps must be shed with typed
Overloaded rejections carrying retry hints. `--seeds` overrides the
traffic seeds, `--ops` the per-soak operation budget, `--clients` the
concurrent client count; `edge --ci` adds seeded wire-fault
self-tests (stale version, unknown frame type, oversized length),
each of which must be caught by exactly the intended typed detector.

The `all` subcommand runs every section — the schedule sweep, the
coherence model check, trace, chaos, restore, serve, edge, and
analyze — in one process with one aggregated report, the single CI
entry point.

The `serve` subcommand soaks the cfm-serve multi-tenant request
service: a roster with one pure hot-spot tenant must complete every
admitted operation with zero bank conflicts, a continuously backlogged
weight-1 tenant must meet the windowed deficit-round-robin fairness
bound against a weight-8 hog, queue flooding must produce typed
QueueFull backpressure with no admission deadlock, and drain must
complete all in-flight work. `--seeds` overrides the traffic seeds,
`--ops` the per-tenant operation budget; `serve --ci` adds detector
self-tests.

Sections (none selected = all, with defaults):
  --sweep n=A..=B c=C..=D   verify every AT-space schedule in the range
                            (default n=2..=16 c=1..=4)
  --model procs=P blocks=B  exhaustively model-check the coherence
                            protocol (default procs=3 blocks=2)
  --self-test               seed faults the checker must detect

Options:
  --sharers LIST            slot-sharing degrees for the sweep (default 2)
  --variant NAME            correct | missing-invalidate | lost-write-back
  --max-states N            model-checker state cap (default 5000000)
  --ci                      run all sections with defaults (the CI gate)
  --format text|json        report format (default text)
  -h, --help                this text

Exit codes: 0 all checks passed, 1 a check failed, 2 usage error.";
