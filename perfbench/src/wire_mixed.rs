//! `wire-mixed`: the `serve-mixed` service behind `serve_edge` on
//! loopback, with exactly two connections.
//!
//! One connection is the latency-critical probe at depth 1 on its private
//! blocks. The other is a best-effort bulk client on the first uniform
//! tenant, read-mostly (90% reads) and pipelined [`BULK_DEPTH`] deep. The
//! machine is mostly idle: the edge and the wire set the pace. Both
//! connections encode and decode with the crate's own codec, and the
//! benchmark times those calls.
//!
//! As in `serve-mixed`, one client thread drives both connections
//! without sleeping: it keeps the bulk connection topped up and one probe
//! request in flight, and reads whatever either connection has received.

use std::collections::HashMap;
use std::io::{self, Read as _, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use cfm_core::op::Operation;
use cfm_serve::wire::{self, Decoder, Frame};
use cfm_serve::{EdgeConfig, EdgeHandle, EdgeStats, Request, Service, PROTOCOL_VERSION};
use cfm_workloads::tenants::TenantProfile;

use crate::check::Checker;
use crate::serve::{
    measure, probe_traffic, service_config, us_metric, Client, Closed, Fixture, Traffic, Until,
    PROBE, UNIFORM_A,
};
use crate::trace::Tracer;
use crate::{seed_of, Metric, Opts, Outcome};

/// Requests the bulk connection keeps in flight.
const BULK_DEPTH: usize = 16;
/// Requests served during set-up.
const WARM_REQUESTS: u64 = 4_000;

/// One client connection; nonblocking once the handshake is done.
struct Conn {
    stream: TcpStream,
    dec: Decoder,
    wbuf: Vec<u8>,
    bytes: u64,
    nonblocking: bool,
}

impl Conn {
    fn connect(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        let mut c = Conn {
            stream,
            dec: Decoder::new(),
            wbuf: Vec::new(),
            bytes: 0,
            nonblocking: false,
        };
        let hello = Frame::Hello {
            version: PROTOCOL_VERSION,
        };
        c.queue(&hello, &mut None, 0);
        c.flush()?;
        match c.recv(&mut None)? {
            Some(Frame::Welcome { .. }) => {}
            other => return Err(io::Error::other(format!("handshake answered {other:?}"))),
        }
        c.stream.set_nonblocking(true)?;
        c.nonblocking = true;
        Ok(c)
    }

    /// Encode `frame` into the write buffer, timed as `wire.encode`.
    fn queue(&mut self, frame: &Frame, tr: &mut Option<Tracer>, req: u64) {
        let t0 = Instant::now();
        wire::encode_into(frame, &mut self.wbuf);
        if let Some(tr) = tr {
            tr.span(
                "wire.encode",
                Some("client.request"),
                req,
                t0,
                Instant::now(),
            );
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        let mut at = 0;
        while at < self.wbuf.len() {
            match self.stream.write(&self.wbuf[at..]) {
                Ok(0) => return Err(io::Error::other("edge closed the connection")),
                Ok(n) => at += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => std::thread::yield_now(),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        self.bytes += at as u64;
        self.wbuf.clear();
        Ok(())
    }

    /// The next frame from the edge; a complete decode is timed as
    /// `wire.decode`. `None` only on a nonblocking connection with
    /// nothing to read.
    fn recv(&mut self, tr: &mut Option<Tracer>) -> io::Result<Option<Frame>> {
        let mut buf = [0u8; 16 * 1024];
        loop {
            let t0 = Instant::now();
            let next = self
                .dec
                .next_frame()
                .map_err(|e| io::Error::other(format!("edge sent a bad frame: {e}")))?;
            if let Some(frame) = next {
                if let Some(tr) = tr {
                    let req = match &frame {
                        Frame::Response { request_id, .. } => *request_id,
                        _ => 0,
                    };
                    tr.span(
                        "wire.decode",
                        Some("client.request"),
                        req,
                        t0,
                        Instant::now(),
                    );
                }
                return Ok(Some(frame));
            }
            match self.stream.read(&mut buf) {
                Ok(0) => return Err(io::Error::other("edge closed the connection")),
                Ok(n) => {
                    self.bytes += n as u64;
                    self.dec.feed(&buf[..n]);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock && self.nonblocking => {
                    return Ok(None)
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }

    /// The next frame, waiting for it even on a nonblocking connection.
    fn recv_wait(&mut self, tr: &mut Option<Tracer>) -> io::Result<Frame> {
        loop {
            if let Some(frame) = self.recv(tr)? {
                return Ok(frame);
            }
            std::thread::sleep(Duration::from_micros(10));
        }
    }

    /// Polite close: `Drain`, then wait for `Drained`.
    fn drain(&mut self, ck: &mut Checker) {
        self.queue(&Frame::Drain, &mut None, 0);
        let res = self.flush().and_then(|()| loop {
            match self.recv_wait(&mut None)? {
                Frame::Drained => return Ok(()),
                other => ck.violation(format!("frame after the last answer: {other:?}")),
            }
        });
        if let Err(e) = res {
            ck.violation(format!("drain: {e}"));
        }
    }
}

fn submit_frame(tenant: usize, op: &Operation, req: u64) -> Frame {
    Frame::Submit {
        request_id: req,
        request: Request::new(tenant, op.clone()),
    }
}

/// Handle the answer `frame` to request `req`, sent at `t0`.
fn answer(c: &mut Client, critical: bool, frame: Frame, req: u64, op: &Operation, t0: Instant) {
    let t1 = Instant::now();
    match frame {
        Frame::Response {
            request_id,
            response,
        } if request_id == req => c.answered(critical, req, op, &response, t0, t1),
        Frame::Reject { reject, .. } => c.ck.refused(&reject.to_string()),
        other => {
            c.ck.violation(format!("request {req} answered by {other:?}"))
        }
    }
}

/// The two connections and the requests in flight on them.
struct Conns {
    probe: Conn,
    bulk: Conn,
    /// Request id → (critical, operation, sent at).
    outstanding: HashMap<u64, (bool, Operation, Instant)>,
    probing: bool,
}

impl Conns {
    fn on_frame(&mut self, c: &mut Client, frame: Frame) {
        let req = match &frame {
            Frame::Response { request_id, .. } | Frame::Reject { request_id, .. } => *request_id,
            _ => 0,
        };
        match self.outstanding.remove(&req) {
            Some((critical, op, t0)) => {
                self.probing &= !critical;
                answer(c, critical, frame, req, &op, t0);
                c.gate.release(&op);
            }
            None => {
                c.ck.violation(format!("answer to request {req}, which is not outstanding"))
            }
        }
    }

    /// Queue `op` as bulk request `req`, sent at `t0`.
    fn queue_bulk(&mut self, c: &mut Client, (req, op): (u64, Operation), t0: Instant) {
        c.ck.attempt();
        self.bulk
            .queue(&submit_frame(UNIFORM_A, &op, req), &mut c.tr, req);
        self.outstanding.insert(req, (false, op, t0));
    }

    /// Top the bulk connection up and keep a probe request in flight
    /// (when `more`), then take every frame that has arrived. Returns
    /// whether anything arrived.
    fn step(
        &mut self,
        c: &mut Client,
        probe: &mut Traffic,
        bulk: &mut Traffic,
        more: bool,
    ) -> io::Result<bool> {
        if more {
            let t0 = Instant::now();
            let mut queued = false;
            while let Some(next) = bulk.unheld(c) {
                self.queue_bulk(c, next, t0);
                queued = true;
            }
            // Held writes count towards the depth, as in `serve-mixed`.
            while self.outstanding.len() - usize::from(self.probing) + bulk.held() < BULK_DEPTH {
                if let Some(next) = bulk.fresh(c) {
                    self.queue_bulk(c, next, t0);
                    queued = true;
                }
            }
            if queued {
                self.bulk.flush()?;
            }
            if !self.probing {
                let req = c.next_req();
                let op = probe.next(&mut c.tr, req);
                c.ck.attempt();
                let t0 = Instant::now();
                self.probe
                    .queue(&submit_frame(PROBE, &op, req), &mut c.tr, req);
                self.probe.flush()?;
                self.outstanding.insert(req, (true, op, t0));
                self.probing = true;
            }
        }
        let mut arrived = false;
        while let Some(frame) = self.probe.recv(&mut c.tr)? {
            self.on_frame(c, frame);
            arrived = true;
        }
        while let Some(frame) = self.bulk.recv(&mut c.tr)? {
            self.on_frame(c, frame);
            arrived = true;
        }
        Ok(arrived)
    }

    /// Drive both connections until `until`, then collect every
    /// outstanding answer.
    fn drive(&mut self, c: &mut Client, probe: &mut Traffic, bulk: &mut Traffic, until: Until) {
        loop {
            let more = until.more(c.sent());
            match self.step(c, probe, bulk, more) {
                Err(e) => {
                    c.ck.violation(format!("connection: {e}"));
                    self.outstanding.clear();
                    c.gate.clear();
                    self.probing = false;
                    return;
                }
                Ok(_) if !more && self.outstanding.is_empty() => return,
                Ok(true) => {}
                Ok(false) => std::thread::yield_now(),
            }
        }
    }
}

fn bulk_traffic(seed: u64, segment: usize, banks: usize) -> Traffic {
    Traffic::shared(
        TenantProfile::Uniform {
            write_fraction: 0.1,
        },
        banks,
        seed_of(seed, segment, UNIFORM_A),
    )
}

/// A service, its edge, the two connections and their inputs.
struct OverTcp {
    service: Arc<Service>,
    edge: EdgeHandle,
    conns: Conns,
    client: Client,
    probe: Traffic,
    bulk: Traffic,
}

/// What the edge reported, and the bytes both connections carried while
/// measured.
struct Wire {
    edge: EdgeStats,
    bytes: u64,
}

impl Fixture for OverTcp {
    type Extra = Wire;

    fn setup(opts: &Opts, segment: usize) -> Self {
        let service = Arc::new(Service::start(service_config()).expect("valid roster"));
        let edge = service
            .serve_edge(EdgeConfig::default())
            .expect("the edge binds a loopback port");
        let connect = || Conn::connect(edge.addr()).expect("loopback connection to the edge");
        let banks = service.banks();
        let mut f = OverTcp {
            conns: Conns {
                probe: connect(),
                bulk: connect(),
                outstanding: HashMap::new(),
                probing: false,
            },
            client: Client::new(opts, banks, false, segment),
            probe: probe_traffic(opts.seed, segment, banks),
            bulk: bulk_traffic(opts.seed, segment, banks),
            service,
            edge,
        };
        f.drive(Until::Requests(WARM_REQUESTS));
        f
    }

    fn client(&mut self) -> &mut Client {
        &mut self.client
    }

    fn drive(&mut self, until: Until) {
        self.conns
            .drive(&mut self.client, &mut self.probe, &mut self.bulk, until);
    }

    fn start_measuring(&mut self, tr: Option<Tracer>) {
        self.client.start_measuring(tr);
        self.conns.probe.bytes = 0;
        self.conns.bulk.bytes = 0;
    }

    /// Drain both connections, stop the edge and drain the service.
    fn close(mut self) -> Closed<Wire> {
        let bytes = self.conns.probe.bytes + self.conns.bulk.bytes;
        self.conns.probe.drain(&mut self.client.ck);
        self.conns.bulk.drain(&mut self.client.ck);
        let edge = self.edge.shutdown();
        let report = Arc::try_unwrap(self.service)
            .ok()
            .expect("the edge has shut down")
            .drain();
        Closed {
            client: self.client,
            report,
            wire_errors: edge.wire_errors,
            extra: Wire { edge, bytes },
        }
    }
}

/// Run the workload.
pub fn run(opts: &Opts, origin: Instant) -> Outcome {
    let m = measure::<OverTcp>(opts, origin);
    let metrics = if opts.trace {
        let sum = |f: fn(&Wire) -> u64| m.closed.iter().map(|(_, w)| f(w)).sum::<u64>() as f64;
        let (enc, dec) = (m.tracer.agg("wire.encode"), m.tracer.agg("wire.decode"));
        let answered = m.probe.done() + m.bulk.done();
        let b = &m.bulk;
        let stages = (b.queued.p50() + b.exec.p50() + b.beyond.p50()) / 1e3;
        eprintln!(
            "wire-mixed: queued + exec + edge medians {stages:.1} us against a bulk latency median of {:.1} us",
            b.lat.p50() / 1e3
        );
        let mut v = m.layers(b);
        v.extend([
            Metric::new("wire.encode_ns", enc.mean_ns(), "ns", enc.count),
            Metric::new("wire.decode_ns", dec.mean_ns(), "ns", dec.count),
            Metric::new(
                "wire.bytes_per_op",
                sum(|w| w.bytes) / answered as f64,
                "bytes",
                answered,
            ),
            us_metric("edge.overhead_us_p50", b.beyond.p50(), &b.beyond),
            us_metric("edge.overhead_us_p99", b.beyond.p99(), &b.beyond),
            Metric::new(
                "edge.shed_submits",
                sum(|w| w.edge.shed_submits),
                "count",
                1,
            ),
            Metric::new("edge.rejects", sum(|w| w.edge.rejects), "count", 1),
            Metric::new("edge.wire_errors", sum(|w| w.edge.wire_errors), "count", 1),
        ]);
        v
    } else {
        m.end_to_end()
    };
    m.outcome(opts, metrics)
}
