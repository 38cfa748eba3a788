//! # cfm-serve — a multi-tenant request front end for the CFM machine
//!
//! The paper's claim is that the AT-space schedule removes memory and
//! network contention *by construction* — exactly the property a shared
//! memory service wants under hot-spot traffic (the tree-saturation
//! problem a combining network tries to mitigate statistically, CFM
//! avoids structurally). This crate is the front end that turns external
//! per-tenant request streams into scheduled slots:
//!
//! * **Admission** ([`Service::submit`]) — a bounded submission ring per
//!   tenant behind a gate only its submitters lock, with typed rejection
//!   ([`Reject::QueueFull`], [`Reject::Overloaded`]): overload sheds at
//!   the edge instead of queueing without bound, so backpressure is
//!   explicit and a hot tenant cannot grow another tenant's latency
//!   tail. The event loop never takes a gate: it finds work by reading
//!   the rings' slot flags, and the only memory both sides write is the
//!   slots it empties (and, where [`ServiceConfig::max_queued`] binds,
//!   one count of queued operations).
//! * **Scheduling** ([`scheduler::DrrScheduler`]) — a deficit round-robin
//!   pass maps the tenants' rings onto idle processor lanes every slot; a
//!   backlogged tenant is guaranteed its weight share of issue slots,
//!   less at most one quantum, no matter how hard another tenant pushes
//!   (the bound and its derivation: `docs/service.md` §3).
//! * **Batching** — each event-loop iteration coalesces up to one
//!   operation per idle processor into a single-slot batch, issues the
//!   batch, and steps the machine exactly one slot; the machine's
//!   conflict-freedom invariant (zero same-slot bank conflicts) holds for
//!   every batch by construction.
//! * **Event loop** — one `std::thread`, joined at drain or drop (no
//!   tokio, the build is offline). The loop parks on a condvar when
//!   fully idle (in its wire edge's `epoll_wait` when one is attached)
//!   and is woken by submits and drain; it never blocks while
//!   operations are in flight. Its scheduling core holds no lock and
//!   reads no clock, so [`twin::run`] steps the same core under a
//!   virtual slot clock, single-threaded and deterministic.
//! * **Drain** ([`Service::drain`]) — stop admitting, finish everything
//!   already admitted (queued *and* in flight), and return a
//!   [`ServiceReport`] with the machine's own statistics. Dropping a
//!   service instead closes outstanding tickets so no waiter deadlocks.
//! * **QoS** ([`scheduler::QosScheduler`]) — tenants carry a
//!   [`Criticality`] class and an optional per-bank bandwidth budget
//!   ([`TenantSpec::bank_budget`]): latency-critical tenants preempt
//!   best-effort deficit every slot, and a budgeted tenant's issue
//!   rate into each bank is capped per window (deferred, never
//!   rejected), so a hostile neighbor cannot monopolise lanes even
//!   with zero bank conflicts.
//! * **Wire edge** ([`wire`], [`edge`]) — a length-prefixed binary
//!   protocol over TCP ([`Service::serve_edge`]), served by the event
//!   loop's own thread: between slots it reads and decodes ready
//!   connections, admits their submits into the tenants' rings itself,
//!   and encodes each slot's answers straight into their connections'
//!   write buffers — no edge thread, no hand-off between threads per
//!   request, no async runtime. Readiness comes from `epoll` (Linux
//!   only; elsewhere `serve_edge` returns
//!   [`std::io::ErrorKind::Unsupported`]); an idle loop with an edge
//!   polls briefly, then blocks in `epoll_wait` until a socket or an
//!   in-process submit wakes it. Typed frames for
//!   hello/submit/response/reject/metrics/drain, load shedding with
//!   `retry_after_slots` backpressure, thousands of concurrent
//!   connections, and bounded memory: an answer counts against the
//!   in-flight caps until its bytes are written, so a client that never
//!   reads holds at most its cap in answers.
//! * **Observability** ([`metrics`]) — per-tenant counters and
//!   HDR-style latency histograms (log₂ majors × 32 linear sub-buckets,
//!   ≤ 3.2% quantile error) with p50/p90/p99 snapshots, exported as
//!   byte-stable ordered JSON (`bench_serve` writes them to
//!   `BENCH_serve.json`).
//!
//! See `docs/service.md` for the architecture and the admission /
//! backpressure / fairness semantics in detail.
//!
//! ## Quick start
//!
//! ```
//! use cfm_core::config::CfmConfig;
//! use cfm_core::op::Operation;
//! use cfm_serve::{Service, ServiceConfig, TenantSpec};
//!
//! let cfg = CfmConfig::new(4, 1, 16).unwrap();
//! let service = Service::start(
//!     ServiceConfig::new(cfg, 64)
//!         .with_tenant(TenantSpec::new("alice").queue_capacity(32))
//!         .with_tenant(TenantSpec::new("bob").weight(3).queue_capacity(32)),
//! )
//! .unwrap();
//!
//! let banks = 4;
//! let ticket = service
//!     .submit(0, Operation::write(7, vec![1; banks]))
//!     .expect("admitted");
//! let response = ticket.wait().expect("completed");
//! assert_eq!(response.tenant, 0);
//!
//! let report = service.drain();
//! assert_eq!(report.stats.bank_conflicts, 0); // conflict-free by construction
//! ```

pub mod config;
pub mod edge;
pub mod metrics;
mod poll;
pub mod request;
pub mod scheduler;
pub mod service;
pub mod twin;
pub mod wire;

pub use config::{Criticality, ServiceConfig, TenantSpec};
pub use edge::{EdgeConfig, EdgeHandle, EdgeStats};
pub use metrics::{Histogram, MetricsSnapshot, TenantMetrics};
pub use request::{Reject, Request, Response, TenantId, Ticket};
pub use service::{MigrateError, MigrationReport, Service, ServiceReport, StartError};
pub use wire::{Frame, WireError, PROTOCOL_VERSION};
