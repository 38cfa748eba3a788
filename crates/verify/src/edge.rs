//! `cfm-verify edge` — wire-protocol edge soak over real TCP.
//!
//! The [`crate::serve`] section proves the in-process service contract;
//! this section asserts the same contract *over the wire*, end to end
//! through `cfm-serve`'s nonblocking TCP edge:
//!
//! * **loopback-soak** — N concurrent wire clients (an adversarial
//!   tenant mix: one latency-critical probe plus hot-spot, scan, and
//!   bursty neighbours) push ≥ the configured op budget through a real
//!   loopback socket, closed-loop, ending with the per-connection drain
//!   handshake. Every submitted request ID must come back exactly once
//!   (as a `Response` or a typed `Reject`), the machine must report
//!   zero bank conflicts, and the service's completion count must match
//!   the wire-level response count — exactly-once, no loss, no
//!   duplication;
//! * **flood-shedding** — with deliberately tiny edge caps, a submit
//!   flood must be shed with wire-level `Reject(Overloaded)` frames
//!   carrying a non-zero `retry_after_slots` hint, an over-cap
//!   connection must get a `Reject` frame then EOF, and the edge must
//!   keep serving healthy traffic afterwards;
//! * **slow-reader** — a client pipelines submits and reads nothing
//!   until the socket buffers fill and the edge stops reading it. The
//!   edge's write buffer must then hold at most the in-flight cap in
//!   answers plus one other frame ([`cfm_serve::EdgeStats::wbuf_high_water`]);
//!   once the client reads, every submit must be answered exactly once.
//!
//! The latency-critical probe's queueing bound is not asserted here in
//! wall-clock time, where the clients share the host's cores with the
//! edge: `cfm-verify serve` asserts it in slots on the service's
//! slot-clock twin (`serve/qos-bound`).
//!
//! The `self-test/edge-*` checks prove the wire-error detectors
//! non-vacuous by seeding protocol faults and asserting each is caught
//! by *exactly* the intended detector (the typed
//! [`cfm_serve::WireError::code`]):
//! a stale `Hello` version must yield code 3 (`VersionMismatch`), an
//! unknown frame type code 5 (`UnknownFrameType`), and an oversized
//! length prefix code 4 (`FrameTooLarge`) — each followed by a clean
//! close, with the edge still healthy for the next client.

use std::collections::HashSet;
use std::io::{self, Read as _, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use cfm_core::config::CfmConfig;
use cfm_serve::wire::{self, Decoder, Frame};
use cfm_serve::{
    Criticality, EdgeConfig, EdgeHandle, Reject, Request, Service, ServiceConfig, TenantSpec,
    PROTOCOL_VERSION,
};
use cfm_workloads::tenants::{adversarial_mix, MixTenant, TenantTraffic};

use crate::report::Check;

/// Which edge soaks to run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EdgeSpec {
    /// Traffic seeds; each runs one loopback soak.
    pub seeds: Vec<u64>,
    /// Total operations pushed over TCP per soak (split across
    /// clients).
    pub ops: u64,
    /// Concurrent wire clients per soak.
    pub clients: usize,
}

impl Default for EdgeSpec {
    /// Two seeded soaks of 6 000 ops each over 8 concurrent clients —
    /// ≥ 10 000 operations over real TCP per `edge --ci` run.
    fn default() -> Self {
        EdgeSpec {
            seeds: vec![21, 22],
            ops: 6_000,
            clients: 8,
        }
    }
}

const WORD_WIDTH: u32 = 16;
const OFFSETS: usize = 32;
const QUEUE_CAPACITY: usize = 64;
/// Per-client pipelining window (below the edge's per-connection
/// in-flight cap, so soak traffic is never shed at the edge).
const WINDOW: usize = 32;

/// Minimal blocking wire client used by every check in this module.
struct WireClient {
    stream: TcpStream,
    dec: Decoder,
}

/// One client's soak bookkeeping, merged across clients by the check.
#[derive(Debug, Default)]
struct ClientTally {
    /// `Response` frames received.
    responses: u64,
    /// Typed backpressure `Reject` frames received.
    rejects: u64,
    /// Request IDs answered more than once, or answers for IDs never
    /// submitted (exactly-once violations).
    misdelivered: u64,
    /// Backpressure rejections whose `retry_after_slots` hint was zero.
    zero_hints: u64,
    /// Frames that are not a valid server-to-client answer.
    protocol_errors: u64,
}

impl WireClient {
    fn connect(addr: SocketAddr) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        stream.set_nodelay(true)?;
        Ok(WireClient {
            stream,
            dec: Decoder::new(),
        })
    }

    fn send(&mut self, frame: &Frame) -> io::Result<()> {
        self.stream.write_all(&wire::encode(frame))
    }

    fn send_raw(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.stream.write_all(bytes)
    }

    /// Next frame; `Ok(None)` on clean EOF, `Err` on a wire or socket
    /// error (the soak treats both as failures — the server never sends
    /// malformed bytes).
    fn recv(&mut self) -> Result<Option<Frame>, String> {
        loop {
            match self.dec.next_frame() {
                Ok(Some(f)) => return Ok(Some(f)),
                Ok(None) => {}
                Err(e) => return Err(format!("client-side wire error: {e}")),
            }
            let mut buf = [0u8; 4096];
            match self.stream.read(&mut buf) {
                Ok(0) => return Ok(None),
                Ok(n) => self.dec.feed(&buf[..n]),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(format!("client read failed: {e}")),
            }
        }
    }

    /// `Hello` → `Welcome` handshake.
    fn hello(&mut self) -> Result<(), String> {
        self.send(&Frame::Hello {
            version: PROTOCOL_VERSION,
        })
        .map_err(|e| format!("hello write failed: {e}"))?;
        match self.recv()? {
            Some(Frame::Welcome { version, .. }) if version == PROTOCOL_VERSION => Ok(()),
            other => Err(format!("expected Welcome, got {other:?}")),
        }
    }

    /// Submit one read of `offset` as request `id` and wait for its
    /// response.
    fn round_trip(&mut self, tenant: usize, id: u64, offset: usize) -> Result<(), String> {
        self.send(&Frame::Submit {
            request_id: id,
            request: Request::new(tenant, cfm_core::op::Operation::read(offset)),
        })
        .map_err(|e| format!("submit write failed: {e}"))?;
        match self.recv()? {
            Some(Frame::Response { request_id, .. }) if request_id == id => Ok(()),
            other => Err(format!("expected the response to {id}, got {other:?}")),
        }
    }
}

/// Build the adversarial-mix service roster: the latency-critical probe
/// gets `Criticality::LatencyCritical`; the neighbours stay best-effort.
fn mix_service(cfg: CfmConfig) -> (Arc<Service>, Vec<MixTenant>) {
    let mix = adversarial_mix(OFFSETS);
    let mut config = ServiceConfig::new(cfg, OFFSETS);
    for t in &mix {
        let mut spec = TenantSpec::new(t.name).queue_capacity(QUEUE_CAPACITY);
        if t.critical {
            spec = spec.criticality(Criticality::LatencyCritical);
        }
        config = config.with_tenant(spec);
    }
    let service = Arc::new(Service::start(config).expect("valid adversarial roster"));
    (service, mix)
}

/// Drive one wire client closed-loop: keep up to [`WINDOW`] submits in
/// flight, account every answer exactly once, then drain politely.
fn drive_client(
    addr: SocketAddr,
    tenant: usize,
    mut traffic: TenantTraffic,
    quota: u64,
) -> Result<ClientTally, String> {
    let mut client = WireClient::connect(addr).map_err(|e| format!("connect failed: {e}"))?;
    client.hello()?;

    let mut tally = ClientTally::default();
    let mut outstanding: HashSet<u64> = HashSet::new();
    let mut next_id: u64 = 0;
    let mut sent: u64 = 0;

    let handle = |frame: Option<Frame>,
                  outstanding: &mut HashSet<u64>,
                  tally: &mut ClientTally|
     -> Result<bool, String> {
        match frame {
            Some(Frame::Response { request_id, .. }) => {
                if outstanding.remove(&request_id) {
                    tally.responses += 1;
                } else {
                    tally.misdelivered += 1;
                }
                Ok(false)
            }
            Some(Frame::Reject { request_id, reject }) => {
                let hint = match reject {
                    Reject::QueueFull {
                        retry_after_slots, ..
                    }
                    | Reject::Overloaded {
                        retry_after_slots, ..
                    } => retry_after_slots,
                    other => return Err(format!("unexpected rejection in soak: {other}")),
                };
                if outstanding.remove(&request_id) {
                    tally.rejects += 1;
                    if hint == 0 {
                        tally.zero_hints += 1;
                    }
                } else {
                    tally.misdelivered += 1;
                }
                Ok(false)
            }
            Some(Frame::Drained) => Ok(true),
            None => Err("server closed the connection mid-soak".into()),
            other => {
                tally.protocol_errors += 1;
                Err(format!("unexpected frame in soak: {other:?}"))
            }
        }
    };

    while sent < quota {
        if outstanding.len() < WINDOW {
            next_id += 1;
            let op = traffic.take_ops(1).pop().expect("infinite stream");
            client
                .send(&Frame::Submit {
                    request_id: next_id,
                    request: Request::new(tenant, op),
                })
                .map_err(|e| format!("submit write failed: {e}"))?;
            outstanding.insert(next_id);
            sent += 1;
        } else {
            let f = client.recv()?;
            if handle(f, &mut outstanding, &mut tally)? {
                return Err("Drained before Drain was sent".into());
            }
        }
    }

    client
        .send(&Frame::Drain)
        .map_err(|e| format!("drain write failed: {e}"))?;
    loop {
        let f = client.recv()?;
        if handle(f, &mut outstanding, &mut tally)? {
            break;
        }
    }
    if !outstanding.is_empty() {
        return Err(format!(
            "{} submits never answered before Drained",
            outstanding.len()
        ));
    }
    Ok(tally)
}

/// One seeded loopback soak: N concurrent wire clients, adversarial
/// mix, exactly-once accounting, zero bank conflicts.
fn loopback_soak(spec: &EdgeSpec, seed: u64) -> Check {
    let cfg = CfmConfig::new(4, 1, WORD_WIDTH).expect("valid soak shape");
    let banks = cfg.banks();
    let clients = spec.clients.max(1);
    let subject = format!("clients={clients} ops={} seed={seed}", spec.ops);

    let (service, mix) = mix_service(cfg);
    let edge = service
        .serve_edge(EdgeConfig::default())
        .expect("edge binds loopback");
    let addr = edge.addr();

    let quota = spec.ops.div_ceil(clients as u64);
    let handles: Vec<_> = (0..clients)
        .map(|i| {
            let tenant = i % mix.len();
            let traffic = TenantTraffic::new(
                mix[tenant].profile.clone(),
                OFFSETS,
                banks,
                seed * 1_000 + i as u64,
            );
            std::thread::spawn(move || drive_client(addr, tenant, traffic, quota))
        })
        .collect();

    let mut tally = ClientTally::default();
    let mut client_errors = Vec::new();
    for h in handles {
        match h.join().expect("client thread") {
            Ok(t) => {
                tally.responses += t.responses;
                tally.rejects += t.rejects;
                tally.misdelivered += t.misdelivered;
                tally.zero_hints += t.zero_hints;
                tally.protocol_errors += t.protocol_errors;
            }
            Err(e) => client_errors.push(e),
        }
    }

    let stats = edge.shutdown();
    let report = Arc::try_unwrap(service)
        .ok()
        .expect("edge and clients done")
        .drain();

    let sent = quota * clients as u64;
    let answered = tally.responses + tally.rejects;
    let ok = client_errors.is_empty()
        && tally.misdelivered == 0
        && tally.zero_hints == 0
        && tally.protocol_errors == 0
        && answered == sent
        && report.stats.bank_conflicts == 0
        && report.metrics.completed() == tally.responses
        && stats.drained_connections == clients as u64
        && stats.wire_errors == 0;

    let check = if ok {
        Check::pass(
            "edge/loopback-soak",
            &subject,
            format!(
                "{sent} ops over TCP through {clients} concurrent clients: {} responses + {} \
                 typed rejections, exactly once, 0 bank conflicts, {} drain handshakes",
                tally.responses, tally.rejects, stats.drained_connections
            ),
        )
    } else {
        Check::fail(
            "edge/loopback-soak",
            &subject,
            format!(
                "sent={sent} answered={answered} responses={} rejects={} misdelivered={} \
                 zero_hints={} protocol_errors={} bank_conflicts={} completed={} drained={} \
                 wire_errors={}",
                tally.responses,
                tally.rejects,
                tally.misdelivered,
                tally.zero_hints,
                tally.protocol_errors,
                report.stats.bank_conflicts,
                report.metrics.completed(),
                stats.drained_connections,
                stats.wire_errors
            ),
            client_errors,
        )
    };
    check
        .with_metric("ops", sent)
        .with_metric("responses", tally.responses)
        .with_metric("rejects", tally.rejects)
        .with_metric("bank_conflicts", report.stats.bank_conflicts)
        .with_metric("drained_connections", stats.drained_connections)
}

/// Flood shedding: tiny edge caps must shed with typed wire rejections
/// (hint included), over-cap connections must be refused then closed,
/// and the edge must stay healthy for the next client.
fn flood_shedding(seed: u64) -> Check {
    let cfg = CfmConfig::new(4, 1, WORD_WIDTH).expect("valid shape");
    let subject = format!("inflight_cap=2 conn_cap=4 seed={seed}");

    let (service, _mix) = mix_service(cfg);
    let edge = service
        .serve_edge(EdgeConfig {
            max_connections: 4,
            max_inflight_per_conn: 2,
            max_inflight_total: 2,
            ..EdgeConfig::default()
        })
        .expect("edge binds loopback");
    let addr = edge.addr();

    let result = (|| -> Result<(u64, u64), String> {
        // 1. Submit flood on one connection: one write_all of 64 frames
        // lands as one dispatch batch, so the in-flight cap of 2 must
        // shed most of it with typed Overloaded + hint.
        let mut flood = WireClient::connect(addr).map_err(|e| e.to_string())?;
        flood.hello()?;
        let mut bytes = Vec::new();
        const FLOOD: u64 = 64;
        for id in 1..=FLOOD {
            wire::encode_into(
                &Frame::Submit {
                    request_id: id,
                    request: Request::new(0, cfm_core::op::Operation::read(0)),
                },
                &mut bytes,
            );
        }
        flood.send_raw(&bytes).map_err(|e| e.to_string())?;
        let mut responses = 0u64;
        let mut shed = 0u64;
        for _ in 0..FLOOD {
            match flood.recv()? {
                Some(Frame::Response { .. }) => responses += 1,
                Some(Frame::Reject {
                    reject:
                        Reject::Overloaded {
                            retry_after_slots, ..
                        },
                    ..
                }) => {
                    if retry_after_slots == 0 {
                        return Err("shed without a retry hint".into());
                    }
                    shed += 1;
                }
                other => return Err(format!("unexpected flood answer: {other:?}")),
            }
        }
        if shed == 0 {
            return Err(format!(
                "a {FLOOD}-op flood against an in-flight cap of 2 was never shed"
            ));
        }

        // 2. Connection cap: fill the remaining slots, then one more
        // connection must get Reject(Overloaded) and EOF.
        let extras: Vec<_> = (0..3)
            .map(|_| WireClient::connect(addr).map_err(|e| e.to_string()))
            .collect::<Result<_, _>>()?;
        // The 5th concurrent connection is over the cap of 4.
        let mut over = WireClient::connect(addr).map_err(|e| e.to_string())?;
        match over.recv()? {
            Some(Frame::Reject {
                reject: Reject::Overloaded { limit: 4, .. },
                ..
            }) => {}
            other => return Err(format!("expected connection shed, got {other:?}")),
        }
        if let Some(f) = over.recv()? {
            return Err(format!("shed connection was not closed: {f:?}"));
        }
        drop(extras);

        // 3. The surviving connection still serves healthy traffic.
        flood.round_trip(0, FLOOD + 1, 1)?;
        flood.send(&Frame::Drain).map_err(|e| e.to_string())?;
        loop {
            match flood.recv()? {
                Some(Frame::Drained) => break,
                Some(Frame::Response { .. } | Frame::Reject { .. }) => {}
                other => return Err(format!("unexpected drain answer: {other:?}")),
            }
        }
        Ok((responses, shed))
    })();

    let stats = edge.shutdown();
    let report = Arc::try_unwrap(service).ok().expect("clients done").drain();

    match result {
        Ok((responses, shed)) => Check::pass(
            "edge/flood-shedding",
            &subject,
            format!(
                "flood shed with typed Overloaded + retry hints ({shed} shed, {responses} \
                 served), over-cap connection refused then closed, edge healthy after"
            ),
        )
        .with_metric("shed_submits", stats.shed_submits)
        .with_metric("shed_connections", stats.shed_connections)
        .with_metric("bank_conflicts", report.stats.bank_conflicts),
        Err(e) => Check::fail("edge/flood-shedding", &subject, e, vec![])
            .with_metric("shed_submits", stats.shed_submits)
            .with_metric("shed_connections", stats.shed_connections),
    }
}

/// Per-connection in-flight cap of the slow-reader check.
const SLOW_READER_CAP: usize = 8;
/// Submits the slow reader may pipeline before the edge must have
/// stopped reading it (a safety stop; the socket buffers fill far
/// sooner).
const SLOW_READER_MAX_SUBMITS: u64 = 1_000_000;
/// How long the slow reader's writes must stay blocked, with the service
/// completing nothing, before the edge counts as stalled on it.
const SLOW_READER_STALL: Duration = Duration::from_millis(200);

/// Slow reader: pipeline submits without reading until the edge stops
/// reading the connection, check the edge's write buffer stayed within
/// the cap, then read everything and account every answer exactly once.
fn slow_reader(seed: u64) -> Check {
    // 32 banks: 256-byte read answers fill the socket buffers sooner.
    let cfg = CfmConfig::new(16, 2, WORD_WIDTH).expect("valid shape");
    let subject = format!(
        "inflight_cap={SLOW_READER_CAP} banks={} seed={seed}",
        cfg.banks()
    );
    let service = Arc::new(
        Service::start(
            ServiceConfig::new(cfg, OFFSETS)
                .with_tenant(TenantSpec::new("slow").queue_capacity(QUEUE_CAPACITY)),
        )
        .expect("valid roster"),
    );
    let edge = service
        .serve_edge(EdgeConfig {
            max_inflight_per_conn: SLOW_READER_CAP,
            ..EdgeConfig::default()
        })
        .expect("edge binds loopback");
    let result = drive_slow_reader(&edge, &service, seed);
    let stats = edge.shutdown();
    let report = Arc::try_unwrap(service).ok().expect("client done").drain();
    let check = match result {
        Ok(r) => {
            let bound = (SLOW_READER_CAP as u64 + 1) * r.max_frame;
            if r.stalled_high_water <= bound
                && stats.wbuf_high_water <= bound
                && report.stats.bank_conflicts == 0
            {
                Check::pass(
                    "edge/slow-reader",
                    &subject,
                    format!(
                        "{} submits pipelined unread until the edge stopped reading; edge write \
                         buffer peaked at {} bytes (bound {bound} = (cap + 1) x {}-byte frame); \
                         then {} responses + {} rejections, each exactly once",
                        r.submitted, stats.wbuf_high_water, r.max_frame, r.responses, r.rejects
                    ),
                )
            } else {
                Check::fail(
                    "edge/slow-reader",
                    &subject,
                    format!(
                        "edge write buffer peaked at {} bytes ({} while stalled), over the \
                         bound {bound}; bank_conflicts={}",
                        stats.wbuf_high_water, r.stalled_high_water, report.stats.bank_conflicts
                    ),
                    vec![],
                )
            }
            .with_metric("submitted", r.submitted)
            .with_metric("responses", r.responses)
            .with_metric("rejects", r.rejects)
            .with_metric("bound_bytes", bound)
        }
        Err(e) => Check::fail("edge/slow-reader", &subject, e, vec![]),
    };
    check
        .with_metric("wbuf_high_water", stats.wbuf_high_water)
        .with_metric("bank_conflicts", report.stats.bank_conflicts)
}

/// What the slow reader saw.
struct SlowReader {
    submitted: u64,
    responses: u64,
    rejects: u64,
    /// The edge's write-buffer high-water mark when it stalled.
    stalled_high_water: u64,
    /// Largest frame the client received, in encoded bytes.
    max_frame: u64,
}

fn drive_slow_reader(
    edge: &EdgeHandle,
    service: &Service,
    seed: u64,
) -> Result<SlowReader, String> {
    let io_err = |e: io::Error| e.to_string();
    let mut client = WireClient::connect(edge.addr()).map_err(io_err)?;
    client.hello()?;
    client.stream.set_nonblocking(true).map_err(io_err)?;
    let offsets = service.offsets();

    // Phase 1: write submits, read nothing, until writes stay blocked
    // while the service completes nothing — the edge has stopped
    // reading this connection.
    let mut out: Vec<u8> = Vec::new();
    let mut at = 0;
    let mut submitted = 0u64;
    let mut blocked: Option<(Instant, u64)> = None;
    loop {
        if at == out.len() {
            if submitted >= SLOW_READER_MAX_SUBMITS {
                return Err(format!(
                    "{submitted} unread submits and the edge still reads the connection"
                ));
            }
            out.clear();
            at = 0;
            for _ in 0..64 {
                submitted += 1;
                let offset = (submitted.wrapping_mul(7) ^ seed) as usize % offsets;
                wire::encode_into(
                    &Frame::Submit {
                        request_id: submitted,
                        request: Request::new(0, cfm_core::op::Operation::read(offset)),
                    },
                    &mut out,
                );
            }
        }
        match client.stream.write(&out[at..]) {
            Ok(n) => {
                at += n;
                blocked = None;
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                let completed = service.metrics().completed();
                match blocked {
                    Some((since, c)) if c == completed => {
                        if since.elapsed() >= SLOW_READER_STALL {
                            break;
                        }
                    }
                    _ => blocked = Some((Instant::now(), completed)),
                }
                std::thread::sleep(Duration::from_millis(1));
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(format!("slow reader write failed: {e}")),
        }
    }
    let stalled_high_water = edge.stats().wbuf_high_water;

    // Phase 2: read everything (finishing the writes as the edge
    // resumes) and account every submit exactly once.
    let mut seen = vec![false; submitted as usize + 1];
    let (mut responses, mut rejects, mut max_frame) = (0u64, 0u64, 0u64);
    let mut buf = vec![0u8; 64 * 1024];
    let deadline = Instant::now() + Duration::from_secs(120);
    while responses + rejects < submitted {
        if Instant::now() > deadline {
            return Err(format!(
                "{} of {submitted} submits unanswered after reading resumed",
                submitted - responses - rejects
            ));
        }
        let mut progress = false;
        if at < out.len() {
            match client.stream.write(&out[at..]) {
                Ok(n) => {
                    at += n;
                    progress = true;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {}
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(format!("slow reader write failed: {e}")),
            }
        }
        match client.stream.read(&mut buf) {
            Ok(0) => return Err("edge closed the slow reader".into()),
            Ok(n) => {
                client.dec.feed(&buf[..n]);
                progress = true;
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {}
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(format!("slow reader read failed: {e}")),
        }
        while let Some(frame) = client
            .dec
            .next_frame()
            .map_err(|e| format!("client-side wire error: {e}"))?
        {
            max_frame = max_frame.max(wire::encode(&frame).len() as u64);
            let id = match frame {
                Frame::Response { request_id, .. } => {
                    responses += 1;
                    request_id
                }
                Frame::Reject {
                    request_id,
                    reject:
                        Reject::Overloaded {
                            retry_after_slots, ..
                        },
                } if retry_after_slots > 0 => {
                    rejects += 1;
                    request_id
                }
                other => return Err(format!("unexpected frame to a slow reader: {other:?}")),
            };
            match seen.get_mut(id as usize) {
                Some(s) if !*s && id > 0 => *s = true,
                _ => return Err(format!("request {id} answered twice or never submitted")),
            }
        }
        if !progress {
            std::thread::sleep(Duration::from_micros(50));
        }
    }
    client.stream.set_nonblocking(false).map_err(io_err)?;
    client.send(&Frame::Drain).map_err(io_err)?;
    match client.recv()? {
        Some(Frame::Drained) => {}
        other => return Err(format!("expected Drained, got {other:?}")),
    }
    Ok(SlowReader {
        submitted,
        responses,
        rejects,
        stalled_high_water,
        max_frame,
    })
}

/// Seed one malformed byte sequence against a live edge and return the
/// `Frame::Error` code the server answers with (then asserts EOF).
fn seed_wire_fault(addr: SocketAddr, bytes: &[u8]) -> Result<u16, String> {
    let mut client = WireClient::connect(addr).map_err(|e| e.to_string())?;
    client.send_raw(bytes).map_err(|e| e.to_string())?;
    let code = match client.recv()? {
        Some(Frame::Error { code, .. }) => code,
        other => return Err(format!("expected Error frame, got {other:?}")),
    };
    match client.recv()? {
        None => Ok(code),
        Some(f) => Err(format!("connection stayed open after error: {f:?}")),
    }
}

/// The seeded wire-fault self-tests: each planted protocol fault must
/// be caught by exactly the intended typed detector, and the edge must
/// keep serving healthy clients afterwards.
fn self_tests() -> Vec<Check> {
    let cfg = CfmConfig::new(4, 1, WORD_WIDTH).expect("valid shape");
    let (service, _mix) = mix_service(cfg);
    let edge = service
        .serve_edge(EdgeConfig::default())
        .expect("edge binds loopback");
    let addr = edge.addr();

    // (name, planted fault, the one code that must catch it)
    let stale_hello = {
        let mut bytes = wire::encode(&Frame::Hello {
            version: PROTOCOL_VERSION,
        });
        let n = bytes.len();
        bytes[n - 2..].copy_from_slice(&9u16.to_le_bytes());
        bytes
    };
    let unknown_type = vec![1, 0, 0, 0, 99]; // length 1, frame type 99
    let oversized = 0x7fff_ffffu32.to_le_bytes().to_vec(); // 2 GiB length prefix
    let faults: [(&str, Vec<u8>, u16, &str); 3] = [
        (
            "self-test/edge-stale-version",
            stale_hello,
            3,
            "Hello v9 against a v1 server",
        ),
        (
            "self-test/edge-unknown-frame",
            unknown_type,
            5,
            "frame type 99",
        ),
        (
            "self-test/edge-oversized-frame",
            oversized,
            4,
            "2 GiB length prefix",
        ),
    ];

    let mut checks = Vec::new();
    for (name, bytes, want, what) in faults {
        checks.push(match seed_wire_fault(addr, &bytes) {
            Ok(code) if code == want => Check::pass(
                name,
                what,
                format!(
                    "caught by exactly the intended detector (wire error code {want}), \
                         connection closed"
                ),
            )
            .with_metric("code", u64::from(code)),
            Ok(code) => Check::fail(
                name,
                what,
                format!("caught by the WRONG detector: code {code}, wanted {want}"),
                vec![],
            )
            .with_metric("code", u64::from(code)),
            Err(e) => Check::fail(name, what, format!("fault was not caught: {e}"), vec![]),
        });
    }

    // The faults above must not have damaged the edge: a healthy client
    // still gets served.
    let healthy = (|| -> Result<(), String> {
        let mut client = WireClient::connect(addr).map_err(|e| e.to_string())?;
        client.hello()?;
        client.round_trip(0, 1, 0)?;
        Ok(())
    })();
    checks.push(match healthy {
        Ok(()) => Check::pass(
            "self-test/edge-isolation",
            "healthy client after seeded faults",
            "three poisoned connections left the edge serving normally",
        ),
        Err(e) => Check::fail(
            "self-test/edge-isolation",
            "healthy client after seeded faults",
            format!("edge damaged by a malformed peer: {e}"),
            vec![],
        ),
    });

    let _ = edge.shutdown();
    let report = Arc::try_unwrap(service).ok().expect("clients done").drain();
    debug_assert_eq!(report.stats.bank_conflicts, 0);
    checks
}

/// Run the wire-edge soak suite.
pub fn verify(spec: &EdgeSpec, self_test: bool) -> Vec<Check> {
    let mut checks = Vec::new();
    for &seed in &spec.seeds {
        checks.push(loopback_soak(spec, seed));
    }
    let first = spec.seeds.first().copied().unwrap_or(1);
    checks.push(flood_shedding(first));
    checks.push(slow_reader(first));
    if self_test {
        checks.extend(self_tests());
    }
    checks
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::Status;

    #[test]
    fn self_tests_all_pass() {
        for check in self_tests() {
            assert_eq!(
                check.status,
                Status::Pass,
                "{} [{}]: {}",
                check.name,
                check.subject,
                check.detail
            );
        }
    }

    #[test]
    fn micro_soak_passes_end_to_end() {
        // A deliberately tiny soak so `cargo test` stays fast; the CI
        // gate runs the full default spec in release mode.
        let spec = EdgeSpec {
            seeds: vec![5],
            ops: 400,
            clients: 3,
        };
        for check in verify(&spec, false) {
            assert_eq!(
                check.status,
                Status::Pass,
                "{} [{}]: {}",
                check.name,
                check.subject,
                check.detail
            );
        }
    }
}
