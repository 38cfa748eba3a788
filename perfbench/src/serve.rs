//! `serve-mixed`: the in-process `Service` at saturation.
//!
//! A latency-critical probe tenant runs closed-loop at depth 1 on four
//! private blocks (uniform, 10% writes), so each of its reads must return
//! its own last write. Beside it four best-effort neighbours share the
//! other 60 blocks: two weight-2 uniform tenants (30% writes), a hot-spot
//! tenant hammering one block (50% writes) under a per-bank budget, and a
//! scanner, each kept [`DEPTH`] requests deep so every processor always
//! has work. Writes to a shared block go through a [`WriteGate`]: at most
//! one is in flight per block.
//!
//! One client thread drives everything: it keeps the neighbours topped
//! up and one probe request in flight, and polls the tickets for answers
//! instead of sleeping on them. With the service's event loop that makes
//! two busy threads, no more than the two cores of the hosts this was
//! tuned on; a client that slept on each ticket measured the host's
//! thread wake-up latency, which varied by 2× from run to run.

use std::collections::VecDeque;
use std::ops::Range;
use std::time::Instant;

use cfm_core::op::Operation;
use cfm_serve::{Criticality, Response, Service, ServiceConfig, ServiceReport, TenantSpec, Ticket};
use cfm_workloads::tenants::{TenantProfile, TenantTraffic};

use crate::check::Checker;
use crate::intervals::{Rate, Series};
use crate::trace::Tracer;
use crate::{machine_config, seed_of, Metric, Opts, Outcome, OFFSETS, SEGMENTS, SETUP_REPS};

/// At most one write in flight per block, across every tenant of a
/// client. The machine tears reads of a block on which two writes
/// overlap (the known defect in `perfbench/README.md`), so the client
/// holds back a write to a block that already has one in flight until
/// that write is answered. Reads are never held back.
/// `--overlapping-writes` turns the gate off, to reproduce the defect.
pub struct WriteGate {
    on: bool,
    busy: Vec<bool>,
}

impl WriteGate {
    fn new(on: bool) -> Self {
        WriteGate {
            on,
            busy: vec![false; OFFSETS],
        }
    }

    /// Whether `op` may be sent now; a write that may takes its block.
    fn admit(&mut self, op: &Operation) -> bool {
        match op {
            Operation::Write { offset, .. } if self.on => {
                !std::mem::replace(&mut self.busy[*offset], true)
            }
            _ => true,
        }
    }

    /// `op` is no longer in flight: answered, refused or lost.
    pub fn release(&mut self, op: &Operation) {
        if let Operation::Write { offset, .. } = op {
            self.busy[*offset] = false;
        }
    }

    /// Nothing is in flight any more.
    pub fn clear(&mut self) {
        self.busy.fill(false);
    }
}

/// The probe's private blocks.
pub const PRIVATE: Range<usize> = 60..64;
/// Blocks the best-effort tenants share.
pub const SHARED: usize = PRIVATE.start;
/// Tenant id of the latency-critical probe.
pub const PROBE: usize = 0;
/// Tenant id of the first uniform tenant (the wire workload's bulk).
pub const UNIFORM_A: usize = 1;
const HOTSPOT: usize = 3;
/// In-flight depth of each best-effort neighbour.
pub const DEPTH: usize = 24;
/// Hot-spot issues allowed per bank per budget window.
const HOT_BUDGET: u32 = 4;
/// Spin-loop hints between two polls that found no answer.
const POLL_BACKOFF: usize = 200;
/// Requests served during set-up.
const WARM_REQUESTS: u64 = 20_000;

/// The service roster every service workload runs: probe, two weight-2
/// uniform tenants, a budgeted hot-spot, a scanner. Queues hold every
/// request a client can have outstanding, so nothing is refused.
pub fn service_config() -> ServiceConfig {
    ServiceConfig::new(machine_config(), OFFSETS)
        .with_tenant(
            TenantSpec::new("probe")
                .criticality(Criticality::LatencyCritical)
                .queue_capacity(2),
        )
        .with_tenant(TenantSpec::new("uniform-a").weight(2).queue_capacity(DEPTH))
        .with_tenant(TenantSpec::new("uniform-b").weight(2).queue_capacity(DEPTH))
        .with_tenant(
            TenantSpec::new("hotspot")
                .queue_capacity(DEPTH)
                .bank_budget(HOT_BUDGET),
        )
        .with_tenant(TenantSpec::new("scan").queue_capacity(DEPTH))
        .max_queued(4 * DEPTH + 2)
}

/// The probe's stream: uniform over its private blocks, 10% writes.
pub fn probe_traffic(seed: u64, segment: usize, banks: usize) -> Traffic {
    Traffic {
        base: PRIVATE.start,
        held: VecDeque::new(),
        gen: TenantTraffic::new(
            TenantProfile::Uniform {
                write_fraction: 0.1,
            },
            PRIVATE.len(),
            banks,
            seed_of(seed, segment, 100),
        ),
    }
}

/// A tenant's seeded operation stream, its offsets shifted by `base`.
pub struct Traffic {
    base: usize,
    gen: TenantTraffic,
    /// Writes the gate held back, with their request ids, oldest first.
    held: VecDeque<(u64, Operation)>,
}

impl Traffic {
    /// A generator over the shared blocks, not shifted.
    pub fn shared(profile: TenantProfile, banks: usize, seed: u64) -> Self {
        Traffic {
            base: 0,
            gen: TenantTraffic::new(profile, SHARED, banks, seed),
            held: VecDeque::new(),
        }
    }

    /// Writes held back by the gate.
    pub fn held(&self) -> usize {
        self.held.len()
    }

    /// The oldest held write whose block has come free, with its request
    /// id; the gate gives it the block.
    pub fn unheld(&mut self, c: &mut Client) -> Option<(u64, Operation)> {
        let i = self.held.iter().position(|(_, op)| c.gate.admit(op))?;
        self.held.remove(i)
    }

    /// A new operation with a new request id, or `None` when the gate
    /// held it back.
    pub fn fresh(&mut self, c: &mut Client) -> Option<(u64, Operation)> {
        let req = c.next_req();
        let op = self.next(&mut c.tr, req);
        if c.gate.admit(&op) {
            return Some((req, op));
        }
        self.held.push_back((req, op));
        None
    }

    /// The next operation, timed as a `workloads.gen` span.
    pub fn next(&mut self, tr: &mut Option<Tracer>, req: u64) -> Operation {
        let t0 = Instant::now();
        let op = match self.gen.tick().expect("no profile used here idles") {
            Operation::Read { offset } => Operation::read(offset + self.base),
            Operation::Write { offset, data } => Operation::write(offset + self.base, data),
            other => unreachable!("tenant traffic offered {other:?}"),
        };
        if let Some(tr) = tr {
            tr.span("workloads.gen", None, req, t0, Instant::now());
        }
        op
    }
}

fn neighbours(seed: u64, segment: usize, banks: usize) -> Vec<(usize, Traffic)> {
    let profiles = [
        (
            UNIFORM_A,
            TenantProfile::Uniform {
                write_fraction: 0.3,
            },
        ),
        (
            2,
            TenantProfile::Uniform {
                write_fraction: 0.3,
            },
        ),
        (
            HOTSPOT,
            TenantProfile::HotSpot {
                hot_offset: 7,
                hot_fraction: 1.0,
                write_fraction: 0.5,
            },
        ),
        (
            4,
            TenantProfile::Scan {
                stride: 1,
                write_fraction: 0.1,
            },
        ),
    ];
    profiles
        .into_iter()
        .map(|(t, p)| (t, Traffic::shared(p, banks, seed_of(seed, segment, t))))
        .collect()
}

/// When a client stops offering work.
#[derive(Clone, Copy)]
pub enum Until {
    /// After this many requests (set-up).
    Requests(u64),
    /// At this instant (the timed part).
    Deadline(Instant),
}

impl Until {
    /// Whether a client that has sent `sent` requests sends another.
    pub fn more(self, sent: u64) -> bool {
        match self {
            Until::Requests(n) => sent < n,
            Until::Deadline(t) => Instant::now() < t,
        }
    }
}

/// Where the time of one class of requests went. Only the
/// client-observed latency is recorded on untraced segments.
#[derive(Default)]
pub struct Stages {
    /// Client-observed latency.
    pub lat: Series,
    /// `Response.queued_ns`: admission to issue.
    pub queued: Series,
    /// `total_ns − queued_ns`: issue to fulfilment.
    pub exec: Series,
    /// Client-observed latency − `total_ns`: the ticket wake in
    /// process; the edge and the wire over TCP.
    pub beyond: Series,
}

impl Stages {
    fn new(now: Instant) -> Self {
        Stages {
            lat: Series::new(now),
            queued: Series::new(now),
            exec: Series::new(now),
            beyond: Series::new(now),
        }
    }

    /// Requests answered.
    pub fn done(&self) -> u64 {
        self.lat.count()
    }

    fn merge(&mut self, other: Stages) {
        self.lat.merge(other.lat);
        self.queued.merge(other.queued);
        self.exec.merge(other.exec);
        self.beyond.merge(other.beyond);
    }
}

/// The client: its checks, spans, and the stages of the critical probe
/// and of the best-effort traffic.
pub struct Client {
    /// Checks of every answer.
    pub ck: Checker,
    /// Spans, on traced segments.
    pub tr: Option<Tracer>,
    /// The latency-critical probe.
    pub probe: Stages,
    /// Best-effort requests.
    pub bulk: Stages,
    /// `completed_at − issued_at` of every completion, in slots (traced).
    pub op_slots: Series,
    /// Time inside `Service::submit` (traced, in process only).
    pub submit: Series,
    /// Throughput of the answers that count.
    pub rate: Rate,
    /// Writes in flight per block.
    pub gate: WriteGate,
    /// Answers counted in `rate`.
    pub counted: u64,
    probe_counts: bool,
    segment: u64,
    sent: u64,
}

impl Client {
    /// A client of segment `segment` whose checker tracks the probe's
    /// private blocks. Its throughput counts the probe's answers when
    /// `probe_counts`.
    pub fn new(opts: &Opts, banks: usize, probe_counts: bool, segment: usize) -> Self {
        Client {
            gate: WriteGate::new(!opts.overlapping_writes),
            ck: Checker::new(PRIVATE, banks),
            tr: None,
            probe: Stages::default(),
            bulk: Stages::default(),
            op_slots: Series::default(),
            submit: Series::default(),
            rate: Rate::default(),
            counted: 0,
            probe_counts,
            segment: segment as u64,
            sent: 0,
        }
    }

    /// Forget what set-up recorded, keeping the checker's model of the
    /// blocks, and start measuring with spans on `tr`.
    pub fn start_measuring(&mut self, tr: Option<Tracer>) {
        let now = Instant::now();
        self.tr = tr;
        self.probe = Stages::new(now);
        self.bulk = Stages::new(now);
        self.op_slots = Series::new(now);
        self.submit = Series::new(now);
        self.rate = Rate::new(now);
        self.counted = 0;
        self.sent = 0;
    }

    /// Requests sent since measuring started.
    pub fn sent(&self) -> u64 {
        self.sent
    }

    /// A fresh request id, unique within the run.
    pub fn next_req(&mut self) -> u64 {
        self.sent += 1;
        self.segment << 40 | self.sent
    }

    /// Check and record the answer to `op`, sent at `t0` and received at
    /// `t1`.
    pub fn answered(
        &mut self,
        critical: bool,
        req: u64,
        op: &Operation,
        resp: &Response,
        t0: Instant,
        t1: Instant,
    ) {
        self.ck.answer(op, &resp.completion);
        if !critical || self.probe_counts {
            self.rate.add(1, t1);
            self.counted += 1;
        }
        let st = if critical {
            &mut self.probe
        } else {
            &mut self.bulk
        };
        let lat = (t1 - t0).as_nanos() as u64;
        st.lat.record(lat, t1);
        let Some(tr) = &mut self.tr else {
            return;
        };
        st.queued.record(resp.queued_ns, t1);
        st.exec
            .record(resp.total_ns.saturating_sub(resp.queued_ns), t1);
        st.beyond.record(lat.saturating_sub(resp.total_ns), t1);
        let c = &resp.completion;
        self.op_slots.record(c.completed_at - c.issued_at, t1);
        // The service stamps admission inside the submit, so its stages
        // are laid out from the moment the request was sent; the rest of
        // the round trip follows them.
        let (s, e) = (tr.offset(t0), tr.offset(t1));
        let issued = s + resp.queued_ns;
        let fulfilled = (s + resp.total_ns).min(e);
        tr.span_ns("client.request", None, req, s, e);
        tr.span_ns("service.queued", Some("client.request"), req, s, issued);
        tr.span_ns(
            "service.exec",
            Some("client.request"),
            req,
            issued,
            fulfilled,
        );
    }
}

fn submit(
    service: &Service,
    c: &mut Client,
    tenant: usize,
    op: &Operation,
    req: u64,
) -> Option<Ticket> {
    c.ck.attempt();
    let t0 = Instant::now();
    let res = service.submit(tenant, op.clone());
    if let Some(tr) = &mut c.tr {
        let t1 = Instant::now();
        tr.span("service.submit", Some("client.request"), req, t0, t1);
        c.submit.record((t1 - t0).as_nanos() as u64, t1);
    }
    match res {
        Ok(ticket) => Some(ticket),
        Err(reject) => {
            c.gate.release(op);
            c.ck.refused(&reject.to_string());
            None
        }
    }
}

struct Outstanding {
    req: u64,
    op: Operation,
    ticket: Ticket,
    t0: Instant,
}

/// Take the answer to `o` if it is in; `true` when it was.
fn reap(c: &mut Client, critical: bool, o: &mut Outstanding) -> bool {
    let Some(resp) = o.ticket.try_take() else {
        return false;
    };
    c.answered(critical, o.req, &o.op, &resp, o.t0, Instant::now());
    c.gate.release(&o.op);
    true
}

/// Send `op` as request `req` of `tenant`, in flight on `lane` once the
/// service takes it.
fn send(
    service: &Service,
    c: &mut Client,
    tenant: usize,
    lane: &mut VecDeque<Outstanding>,
    (req, op): (u64, Operation),
) {
    let t0 = Instant::now();
    if let Some(ticket) = submit(service, c, tenant, &op, req) {
        lane.push_back(Outstanding {
            req,
            op,
            ticket,
            t0,
        });
    }
}

/// Drive the probe and the neighbours until `until`, then collect every
/// outstanding answer. The client never sleeps: it polls the tickets,
/// so the time until it sees an answer is its own loop, not a thread
/// wake-up.
fn drive(
    service: &Service,
    c: &mut Client,
    probe: &mut Traffic,
    gens: &mut [(usize, Traffic)],
    until: Until,
) {
    let mut lanes: Vec<VecDeque<Outstanding>> = gens.iter().map(|_| VecDeque::new()).collect();
    let mut probing: Option<Outstanding> = None;
    loop {
        let more = until.more(c.sent());
        if more {
            for ((tenant, gen), lane) in gens.iter_mut().zip(lanes.iter_mut()) {
                while let Some(next) = gen.unheld(c) {
                    send(service, c, *tenant, lane, next);
                }
                // Held writes count towards the depth, which bounds how
                // many a tenant holds.
                while lane.len() + gen.held() < DEPTH {
                    if let Some(next) = gen.fresh(c) {
                        send(service, c, *tenant, lane, next);
                    }
                }
            }
            if probing.is_none() {
                let req = c.next_req();
                let op = probe.next(&mut c.tr, req);
                let t0 = Instant::now();
                probing = submit(service, c, PROBE, &op, req).map(|ticket| Outstanding {
                    req,
                    op,
                    ticket,
                    t0,
                });
            }
        }
        let mut reaped = false;
        if let Some(o) = &mut probing {
            if reap(c, true, o) {
                probing = None;
                reaped = true;
            }
        }
        for lane in lanes.iter_mut() {
            while lane.front_mut().is_some_and(|o| reap(c, false, o)) {
                lane.pop_front();
                reaped = true;
            }
        }
        if !more && probing.is_none() && lanes.iter().all(VecDeque::is_empty) {
            return;
        }
        if !reaped {
            // Back off briefly before polling the tickets' locks again,
            // so the event loop fulfilling them is not slowed by it.
            for _ in 0..POLL_BACKOFF {
                std::hint::spin_loop();
            }
        }
    }
}

/// A service workload's fixture: a started service, its client and
/// inputs. [`measure`] sets fixtures up, measures them and checks them.
pub trait Fixture: Sized {
    /// What a closed fixture reports beside the service's report.
    type Extra;

    /// Start segment `segment`'s fixture and serve its warm-up traffic.
    fn setup(opts: &Opts, segment: usize) -> Self;

    /// The fixture's client.
    fn client(&mut self) -> &mut Client;

    /// Serve traffic until `until`, then collect every outstanding answer.
    fn drive(&mut self, until: Until);

    /// Start measuring, with spans on `tr`.
    fn start_measuring(&mut self, tr: Option<Tracer>) {
        self.client().start_measuring(tr);
    }

    /// Drain and stop the fixture.
    fn close(self) -> Closed<Self::Extra>;
}

/// A drained fixture.
pub struct Closed<X> {
    /// Its client.
    pub client: Client,
    /// The service's final report.
    pub report: ServiceReport,
    /// Wire errors the edge counted (0 in process).
    pub wire_errors: u64,
    /// What else the workload reports.
    pub extra: X,
}

/// The in-process fixture of `serve-mixed`.
struct InProcess {
    service: Service,
    client: Client,
    probe: Traffic,
    gens: Vec<(usize, Traffic)>,
}

impl Fixture for InProcess {
    type Extra = ();

    fn setup(opts: &Opts, segment: usize) -> Self {
        let service = Service::start(service_config()).expect("valid roster");
        let banks = service.banks();
        let mut f = InProcess {
            client: Client::new(opts, banks, true, segment),
            probe: probe_traffic(opts.seed, segment, banks),
            gens: neighbours(opts.seed, segment, banks),
            service,
        };
        f.drive(Until::Requests(WARM_REQUESTS));
        f
    }

    fn client(&mut self) -> &mut Client {
        &mut self.client
    }

    fn drive(&mut self, until: Until) {
        drive(
            &self.service,
            &mut self.client,
            &mut self.probe,
            &mut self.gens,
            until,
        );
    }

    fn close(self) -> Closed<()> {
        Closed {
            report: self.service.drain(),
            client: self.client,
            wire_errors: 0,
            extra: (),
        }
    }
}

/// What the measured fixtures of a service workload add up to: those
/// of the traced segments in a traced run, of the others otherwise.
pub struct Measured<X> {
    /// The checks of every fixture, set-up ones included.
    pub checker: Checker,
    /// Every set-up time, in seconds.
    pub setups: Vec<f64>,
    /// The probe's stages.
    pub probe: Stages,
    /// The best-effort stages.
    pub bulk: Stages,
    /// Slots per completion.
    pub op_slots: Series,
    /// Time inside `Service::submit`.
    pub submit: Series,
    /// Counted answers per second.
    pub rate: Rate,
    /// The spans of the traced segments.
    pub tracer: Tracer,
    /// Slots the services ran.
    pub cycles: u64,
    /// Operations the services completed.
    pub completed: u64,
    /// ATT-forced restarts.
    pub restarts: u64,
    /// Requests the services refused.
    pub rejected: u64,
    /// Seconds from the start of each fixture's set-up to its drain.
    pub life_s: f64,
    /// The services' reports and the workload's extras.
    pub closed: Vec<(ServiceReport, X)>,
    /// Counted answers and timed wall of the untraced [0] and traced [1]
    /// segments, for the tracing overhead.
    counted: [u64; 2],
    wall: [f64; 2],
}

/// Set up, measure and check [`SEGMENTS`] fixtures of `F`: each segment
/// sets one up [`SETUP_REPS`] times, each set-up timed, and measures the
/// last for its share of the run.
pub fn measure<F: Fixture>(opts: &Opts, origin: Instant) -> Measured<F::Extra> {
    let mut m = Measured {
        checker: Checker::new(0..0, 0),
        setups: Vec::new(),
        probe: Stages::default(),
        bulk: Stages::default(),
        op_slots: Series::default(),
        submit: Series::default(),
        rate: Rate::default(),
        tracer: Tracer::new(origin),
        cycles: 0,
        completed: 0,
        restarts: 0,
        rejected: 0,
        life_s: 0.0,
        closed: Vec::new(),
        counted: [0; 2],
        wall: [0.0; 2],
    };
    for s in 0..SEGMENTS {
        let (mut f, born) = loop {
            let born = Instant::now();
            let f = F::setup(opts, s);
            m.setups.push(born.elapsed().as_secs_f64());
            if m.setups.len() % SETUP_REPS == 0 {
                break (f, born);
            }
            m.check(f.close());
        };
        let traced = opts.traced_segment(s);
        f.start_measuring(traced.then(|| Tracer::new(origin)));
        f.client().ck.corrupt_next(opts.corrupt(s));
        let start = Instant::now();
        f.drive(Until::Deadline(start + opts.segment_seconds()));
        let wall_s = start.elapsed().as_secs_f64();
        let c = m.check(f.close());
        let k = usize::from(traced);
        m.counted[k] += c.client.counted;
        m.wall[k] += wall_s;
        if traced == opts.trace {
            m.life_s += born.elapsed().as_secs_f64();
            m.add(c);
        }
    }
    m
}

impl<X> Measured<X> {
    /// Run the machine- and edge-level checks of a drained fixture and
    /// fold its checker in.
    fn check(&mut self, mut c: Closed<X>) -> Closed<X> {
        let st = &c.report.stats;
        c.client
            .ck
            .finish(st.bank_conflicts, st.torn_reads, c.wire_errors);
        self.checker.merge(&c.client.ck);
        c
    }

    fn add(&mut self, c: Closed<X>) {
        let (cl, r) = (c.client, c.report);
        self.probe.merge(cl.probe);
        self.bulk.merge(cl.bulk);
        self.op_slots.merge(cl.op_slots);
        self.submit.merge(cl.submit);
        self.rate.merge(cl.rate);
        if let Some(tr) = cl.tr {
            self.tracer.merge(tr);
        }
        self.cycles += r.cycles;
        self.completed += r.metrics.completed();
        self.restarts += r.stats.read_restarts + r.stats.write_restarts + r.stats.swap_restarts;
        self.rejected += r.metrics.rejected();
        self.closed.push((r, c.extra));
    }

    /// The end-to-end metrics.
    pub fn end_to_end(&self) -> Vec<Metric> {
        let (rate, n) = self.rate.median();
        let us = |s: &Series| s.p50() / 1e3;
        vec![
            Metric::median_setup(&self.setups),
            Metric::new("ops_per_s", rate, "1/s", n),
            Metric::new(
                "slots_per_op",
                self.cycles as f64 / self.completed as f64,
                "slots",
                self.completed,
            ),
            Metric::new(
                "latency_p50_us",
                us(&self.bulk.lat),
                "us",
                self.bulk.lat.intervals(),
            ),
            Metric::new(
                "critical_p50_us",
                us(&self.probe.lat),
                "us",
                self.probe.lat.intervals(),
            ),
        ]
    }

    /// The per-layer metrics both service workloads report, with the
    /// service stages taken from `stages` (the probe's or the bulk's).
    pub fn layers(&self, stages: &Stages) -> Vec<Metric> {
        let gen = self.tracer.agg("workloads.gen");
        let per_s = |k: usize| self.counted[k] as f64 / self.wall[k];
        vec![
            Metric::new(
                "machine.op_slots_p50",
                self.op_slots.p50(),
                "slots",
                self.op_slots.intervals(),
            ),
            Metric::new(
                "machine.restarts_per_op",
                self.restarts as f64 / self.completed as f64,
                "ratio",
                self.completed,
            ),
            us_metric("service.queued_us_p50", stages.queued.p50(), &stages.queued),
            us_metric("service.exec_us_p50", stages.exec.p50(), &stages.exec),
            Metric::new(
                "service.slots_per_op",
                self.cycles as f64 / self.completed as f64,
                "slots",
                self.completed,
            ),
            Metric::new("service.rejected", self.rejected as f64, "count", 1),
            us_metric(
                "scheduler.critical_queued_us_p99",
                self.probe.queued.p99(),
                &self.probe.queued,
            ),
            Metric::new("workloads.gen_ns_per_op", gen.mean_ns(), "ns", gen.count),
            Metric::new("trace.overhead_frac", 1.0 - per_s(1) / per_s(0), "ratio", 2),
        ]
    }

    /// The run's outcome, reporting `metrics`.
    pub fn outcome(self, opts: &Opts, metrics: Vec<Metric>) -> Outcome {
        Outcome {
            checker: self.checker,
            metrics,
            tracer: opts.trace.then_some(self.tracer),
        }
    }
}

/// A metric in microseconds from a quantile of nanosecond series `s`.
pub fn us_metric(name: &'static str, ns: f64, s: &Series) -> Metric {
    Metric::new(name, ns / 1e3, "us", s.intervals())
}

/// Run the workload.
pub fn run(opts: &Opts, origin: Instant) -> Outcome {
    let m = measure::<InProcess>(opts, origin);
    let metrics = if opts.trace {
        let mut v = m.layers(&m.probe);
        let deferrals: u64 = m
            .closed
            .iter()
            .map(|(r, ())| r.metrics.tenants[HOTSPOT].budget_deferrals)
            .sum();
        let share = m
            .closed
            .iter()
            .map(|(r, ())| share_error(r))
            .fold(0.0, f64::max);
        v.extend([
            Metric::new(
                "service.submit_ns_p50",
                m.submit.p50(),
                "ns",
                m.submit.intervals(),
            ),
            Metric::new(
                "service.submit_ns_p99",
                m.submit.p99(),
                "ns",
                m.submit.intervals(),
            ),
            us_metric(
                "service.handoff_us_p50",
                m.probe.beyond.p50(),
                &m.probe.beyond,
            ),
            Metric::new(
                "service.slots_per_s",
                m.cycles as f64 / m.life_s,
                "1/s",
                m.cycles,
            ),
            Metric::new("scheduler.share_error", share, "ratio", 1),
            Metric::new("scheduler.budget_deferrals", deferrals as f64, "count", 1),
        ]);
        v
    } else {
        m.end_to_end()
    };
    m.outcome(opts, metrics)
}

/// Largest gap between an unbudgeted best-effort tenant's share of the
/// completions and its share of the weights, among those tenants.
fn share_error(r: &ServiceReport) -> f64 {
    let cfg = service_config();
    let be: Vec<usize> = (0..cfg.tenants.len())
        .filter(|&t| {
            let spec = &cfg.tenants[t];
            spec.criticality == Criticality::BestEffort && spec.bank_budget.is_none()
        })
        .collect();
    let done: u64 = be.iter().map(|&t| r.metrics.tenants[t].completed).sum();
    let weight: u32 = be.iter().map(|&t| cfg.tenants[t].weight).sum();
    be.iter()
        .map(|&t| {
            let got = r.metrics.tenants[t].completed as f64 / done.max(1) as f64;
            let want = f64::from(cfg.tenants[t].weight) / f64::from(weight);
            (got - want).abs()
        })
        .fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gate_holds_a_second_write_to_a_block_until_the_first_is_released() {
        let (w7, w8, r7) = (
            Operation::write(7, vec![1; 16]),
            Operation::write(8, vec![1; 16]),
            Operation::read(7),
        );
        let mut g = WriteGate::new(true);
        assert!(g.admit(&w7));
        assert!(!g.admit(&w7), "a second write to block 7 waits");
        assert!(g.admit(&w8), "another block is free");
        assert!(g.admit(&r7), "reads never wait");
        g.release(&w7);
        assert!(g.admit(&w7));

        let mut off = WriteGate::new(false);
        assert!(off.admit(&w7) && off.admit(&w7));
    }
}
