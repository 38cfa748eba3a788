//! Multi-tenant service throughput and latency: `cfm-serve` end to end.
//!
//! Runs the request service over one CFM machine with a mixed tenant
//! roster — two uniform tenants, one pure hot-spot tenant hammering a
//! single block, and one scanning tenant — each driven closed-loop from
//! its own client thread with a bounded in-flight window. Records
//! sustained operations per wall-clock second, per-tenant latency
//! quantiles (admission → fulfillment, HDR-style histograms: log₂
//! majors × 32 linear sub-buckets, ≤ 3.2% quantile error), and
//! admission rejection counts into `BENCH_serve.json`.
//!
//! The roster is deliberately adversarial: the hot-spot tenant would
//! monopolise a FIFO service, and on a conflict-prone memory its block
//! would serialise the banks. Here the deficit round-robin scheduler
//! bounds its share and the CFM layout keeps `bank_conflicts` at 0 —
//! both are asserted in the report.
//!
//! A **wire-edge phase** precedes the soak and measures the TCP
//! surface: ≥ 1 000
//! concurrent wire clients (opened before any traffic flows, held open
//! until every one has completed its budget and the per-connection
//! drain handshake) pump closed-loop reads through the nonblocking
//! edge; sustained connections, wire throughput, and `bank_conflicts`
//! (asserted 0) land in the report's `edge` block.
//!
//! The latency-critical probe's queueing bound is asserted in slots, on
//! the service's slot-clock twin, by `cfm-verify serve`
//! (`serve/qos-bound`); its wire latency is measured by the benchmark's
//! `critical_p50_us` (`perfbench/`). A live migration's cost to an
//! untouched tenant is asserted in slots on the twin too, by
//! `cfm-verify restore` (`restore/migration`): no pass outside the swap
//! window leaves a processor idle while that tenant has work queued.
//!
//! `--smoke` shrinks the per-tenant operation budget for CI.

use std::collections::VecDeque;
use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use cfm_bench::print_table;
use cfm_core::config::CfmConfig;
use cfm_serve::wire::{self, Decoder, Frame};
use cfm_serve::{
    EdgeConfig, Reject, Request, Service, ServiceConfig, TenantSpec, Ticket, PROTOCOL_VERSION,
};
use cfm_workloads::tenants::{TenantProfile, TenantTraffic};

const PROCESSORS: usize = 16;
const CLUSTER: u32 = 1;
const WORD_WIDTH: u32 = 16;
const OFFSETS: usize = 64;
const QUEUE_CAPACITY: usize = 128;
/// Closed-loop in-flight window per client thread.
const WINDOW: usize = 64;

struct TenantRun {
    name: &'static str,
    profile: &'static str,
    weight: u32,
    completed: u64,
    rejected: u64,
}

fn roster(banks: usize) -> Vec<(&'static str, &'static str, u32, TenantProfile)> {
    vec![
        (
            "uniform-a",
            "uniform",
            2,
            TenantProfile::Uniform {
                write_fraction: 0.3,
            },
        ),
        (
            "uniform-b",
            "uniform",
            2,
            TenantProfile::Uniform {
                write_fraction: 0.3,
            },
        ),
        (
            "hotspot",
            "hot-spot",
            1,
            TenantProfile::HotSpot {
                hot_offset: banks % OFFSETS,
                hot_fraction: 1.0,
                write_fraction: 0.5,
            },
        ),
        (
            "scan",
            "scan",
            1,
            TenantProfile::Scan {
                stride: 1,
                write_fraction: 0.1,
            },
        ),
    ]
}

/// Drive one tenant closed-loop: keep up to [`WINDOW`] operations in
/// flight, reaping the oldest ticket to make room; on backpressure reap
/// instead of spinning. Returns (completed, rejected).
fn drive_tenant(
    service: &Service,
    tenant: usize,
    mut traffic: TenantTraffic,
    ops_target: u64,
) -> (u64, u64) {
    let mut outstanding: VecDeque<Ticket> = VecDeque::with_capacity(WINDOW);
    let mut completed = 0u64;
    let mut rejected = 0u64;
    let mut submitted = 0u64;
    while completed < ops_target {
        if submitted < ops_target && outstanding.len() < WINDOW {
            let op = traffic.take_ops(1).pop().expect("infinite stream");
            match service.submit(tenant, op) {
                Ok(ticket) => {
                    outstanding.push_back(ticket);
                    submitted += 1;
                }
                Err(Reject::QueueFull { .. } | Reject::Overloaded { .. }) => {
                    rejected += 1;
                    // Closed-loop response to backpressure: absorb a
                    // completion before offering again.
                    if let Some(ticket) = outstanding.pop_front() {
                        ticket.wait().expect("service alive during bench");
                        completed += 1;
                    } else {
                        std::thread::yield_now();
                    }
                }
                Err(other) => panic!("unexpected rejection: {other}"),
            }
        } else if let Some(ticket) = outstanding.pop_front() {
            ticket.wait().expect("service alive during bench");
            completed += 1;
        }
    }
    (completed, rejected)
}

/// Concurrent wire connections the edge phase sustains (the acceptance
/// floor is 1 000; a power of two divides evenly across the drivers).
const EDGE_CONNECTIONS: usize = 1024;
/// Client threads sharing the fleet; each drives its share of
/// nonblocking sockets round-robin, so the fleet needs only a handful
/// of OS threads on a small host.
const EDGE_DRIVERS: usize = 4;

/// What the wire-edge phase measured.
struct EdgeOutcome {
    connections: usize,
    ops: u64,
    responses: u64,
    rejects: u64,
    wall_s: f64,
    wire_errors: u64,
    drained: u64,
    bank_conflicts: u64,
}

/// One nonblocking connection in the fleet: its socket, incremental
/// decoder, pending write bytes, and closed-loop progress.
struct FleetConn {
    stream: TcpStream,
    dec: Decoder,
    wbuf: Vec<u8>,
    wpos: usize,
    tenant: usize,
    sent: u64,
    answered: u64,
    done: bool,
}

impl FleetConn {
    fn queue(&mut self, frame: &Frame) {
        wire::encode_into(frame, &mut self.wbuf);
    }
}

/// Drive `conns` nonblocking wire connections round-robin, each
/// closed-loop with one request in flight (window 1: the concurrency
/// comes from the fleet width, not per-connection pipelining), through
/// the drain handshake. Returns (responses, rejects).
fn drive_edge_fleet(
    addr: SocketAddr,
    conns: usize,
    ops_per_conn: u64,
    tenant_base: usize,
    tenants: usize,
    barrier: &Barrier,
) -> (u64, u64) {
    let mut fleet: Vec<FleetConn> = (0..conns)
        .map(|i| {
            let stream = TcpStream::connect(addr).expect("edge accepts the fleet");
            stream.set_nodelay(true).expect("nodelay");
            stream.set_nonblocking(true).expect("nonblocking client");
            let mut c = FleetConn {
                stream,
                dec: Decoder::new(),
                wbuf: Vec::new(),
                wpos: 0,
                tenant: (tenant_base + i) % tenants,
                sent: 0,
                answered: 0,
                done: false,
            };
            c.queue(&Frame::Hello {
                version: PROTOCOL_VERSION,
            });
            c
        })
        .collect();
    // Every driver finishes connecting before any traffic flows: the
    // measured concurrency is the whole fleet, not a ramp.
    barrier.wait();
    for c in fleet.iter_mut() {
        let offset = c.tenant % OFFSETS;
        c.queue(&Frame::Submit {
            request_id: 0,
            request: Request::new(c.tenant, cfm_core::op::Operation::read(offset)),
        });
        c.sent = 1;
    }

    let mut responses = 0u64;
    let mut rejects = 0u64;
    let mut remaining = conns;
    let mut buf = [0u8; 4096];
    while remaining > 0 {
        let mut progress = false;
        for c in fleet.iter_mut() {
            if c.done {
                continue;
            }
            // Flush pending bytes as far as the socket allows.
            while c.wpos < c.wbuf.len() {
                match c.stream.write(&c.wbuf[c.wpos..]) {
                    Ok(0) => panic!("edge closed a fleet connection mid-write"),
                    Ok(n) => {
                        c.wpos += n;
                        progress = true;
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                    Err(e) => panic!("fleet write failed: {e}"),
                }
            }
            if c.wpos == c.wbuf.len() {
                c.wbuf.clear();
                c.wpos = 0;
            }
            // Pull whatever the edge has sent.
            let mut eof = false;
            loop {
                match c.stream.read(&mut buf) {
                    Ok(0) => {
                        eof = true;
                        break;
                    }
                    Ok(n) => {
                        c.dec.feed(&buf[..n]);
                        progress = true;
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                    Err(e) => panic!("fleet read failed: {e}"),
                }
            }
            while let Some(frame) = c.dec.next_frame().expect("edge speaks valid wire") {
                match frame {
                    Frame::Welcome { .. } => {}
                    Frame::Response { .. }
                    | Frame::Reject {
                        reject: Reject::QueueFull { .. } | Reject::Overloaded { .. },
                        ..
                    } => {
                        if matches!(frame, Frame::Response { .. }) {
                            responses += 1;
                        } else {
                            rejects += 1;
                        }
                        c.answered += 1;
                        if c.sent < ops_per_conn {
                            let offset = (c.sent as usize * 7 + c.tenant) % OFFSETS;
                            c.queue(&Frame::Submit {
                                request_id: c.sent,
                                request: Request::new(
                                    c.tenant,
                                    cfm_core::op::Operation::read(offset),
                                ),
                            });
                            c.sent += 1;
                        } else if c.answered == ops_per_conn {
                            c.queue(&Frame::Drain);
                        }
                    }
                    Frame::Drained => {
                        c.done = true;
                        remaining -= 1;
                    }
                    other => panic!("unexpected frame in edge fleet: {other:?}"),
                }
            }
            if eof && !c.done {
                panic!("edge closed a fleet connection before Drained");
            }
        }
        if !progress {
            std::thread::sleep(Duration::from_micros(100));
        }
    }
    (responses, rejects)
}

/// The wire-edge phase: [`EDGE_CONNECTIONS`] concurrent connections —
/// all open before the first op and held open through the drain
/// handshake — pump closed-loop reads through the TCP edge.
fn edge_phase(ops_per_conn: u64) -> EdgeOutcome {
    let cfg = CfmConfig::new(PROCESSORS, CLUSTER, WORD_WIDTH).expect("valid bench config");
    // One queue slot per connection: with a window of 1 per connection
    // the service never sheds, so the phase measures throughput, not
    // rejection handling.
    let service = Arc::new(
        Service::start(
            ServiceConfig::new(cfg, OFFSETS)
                .with_tenant(TenantSpec::new("edge-a").queue_capacity(EDGE_CONNECTIONS))
                .with_tenant(TenantSpec::new("edge-b").queue_capacity(EDGE_CONNECTIONS)),
        )
        .expect("valid service config"),
    );
    let edge = service
        .serve_edge(EdgeConfig {
            max_connections: EDGE_CONNECTIONS + 8,
            max_inflight_per_conn: 64,
            max_inflight_total: 4 * EDGE_CONNECTIONS,
            ..EdgeConfig::default()
        })
        .expect("edge binds loopback");
    let addr = edge.addr();

    let start = Instant::now();
    let barrier = Arc::new(Barrier::new(EDGE_DRIVERS));
    let per_driver = EDGE_CONNECTIONS / EDGE_DRIVERS;
    let drivers: Vec<_> = (0..EDGE_DRIVERS)
        .map(|d| {
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                drive_edge_fleet(addr, per_driver, ops_per_conn, d * per_driver, 2, &barrier)
            })
        })
        .collect();
    let mut responses = 0u64;
    let mut rejects = 0u64;
    for d in drivers {
        let (r, j) = d.join().expect("fleet driver");
        responses += r;
        rejects += j;
    }
    let wall_s = start.elapsed().as_secs_f64();

    let stats = edge.shutdown();
    let report = Arc::try_unwrap(service).ok().expect("fleet done").drain();
    EdgeOutcome {
        connections: EDGE_CONNECTIONS,
        ops: EDGE_CONNECTIONS as u64 * ops_per_conn,
        responses,
        rejects,
        wall_s,
        wire_errors: stats.wire_errors,
        drained: stats.drained_connections,
        bank_conflicts: report.stats.bank_conflicts,
    }
}

fn json_report(
    runs: &[TenantRun],
    report: &cfm_serve::ServiceReport,
    edge: &EdgeOutcome,
    wall_s: f64,
    ops_target: u64,
    host_cpus: usize,
    smoke: bool,
) -> String {
    let total: u64 = runs.iter().map(|r| r.completed).sum();
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"bench\": \"bench_serve\",\n");
    out.push_str(&format!("  \"host_cpus\": {host_cpus},\n"));
    out.push_str(&format!("  \"smoke\": {smoke},\n"));
    out.push_str(&format!(
        "  \"machine\": {{\"processors\": {PROCESSORS}, \"cluster\": {CLUSTER}, \
         \"offsets\": {OFFSETS}}},\n"
    ));
    out.push_str(&format!("  \"ops_per_tenant\": {ops_target},\n"));
    out.push_str(&format!("  \"completed\": {total},\n"));
    out.push_str(&format!("  \"wall_time_s\": {wall_s:.4},\n"));
    out.push_str(&format!("  \"ops_per_s\": {:.0},\n", total as f64 / wall_s));
    out.push_str(&format!("  \"cycles\": {},\n", report.cycles));
    out.push_str(&format!(
        "  \"bank_conflicts\": {},\n",
        report.stats.bank_conflicts
    ));
    out.push_str("  \"latency_ns\": {\n");
    out.push_str(&format!(
        "    \"p50\": {}, \"p90\": {}, \"p99\": {}, \"max\": {}, \"mean\": {}\n",
        report.metrics.overall.p50_ns(),
        report.metrics.overall.p90_ns(),
        report.metrics.overall.p99_ns(),
        report.metrics.overall.max_ns(),
        report.metrics.overall.mean_ns(),
    ));
    out.push_str("  },\n");
    out.push_str("  \"edge\": {\n");
    out.push_str(&format!(
        "    \"connections\": {},\n    \"ops\": {},\n    \"responses\": {},\n    \
         \"rejects\": {},\n    \"wall_time_s\": {:.4},\n    \"ops_per_s\": {:.0},\n    \
         \"wire_errors\": {},\n    \"drained_connections\": {},\n    \
         \"bank_conflicts\": {}\n",
        edge.connections,
        edge.ops,
        edge.responses,
        edge.rejects,
        edge.wall_s,
        (edge.responses + edge.rejects) as f64 / edge.wall_s,
        edge.wire_errors,
        edge.drained,
        edge.bank_conflicts,
    ));
    out.push_str("  },\n");
    out.push_str(
        "  \"note\": \"Closed-loop clients, one thread per tenant, in-flight window per \
         client; latency is admission to fulfillment with HDR-style histograms (log2 \
         majors x 32 linear sub-buckets, <= 3.2% quantile error, exact below 32 ns). \
         hotspot drives 100% of its traffic at one block; bank_conflicts must stay 0 \
         regardless. The edge section holds every \
         wire connection open before traffic starts and through the drain handshake, \
         so 'connections' is true concurrency, not a ramp; bank_conflicts must stay 0 \
         end to end over TCP.\",\n",
    );
    out.push_str("  \"tenants\": [\n");
    for (i, (run, m)) in runs.iter().zip(report.metrics.tenants.iter()).enumerate() {
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"profile\": \"{}\", \"weight\": {}, \
             \"completed\": {}, \"rejected\": {}, \"p50_ns\": {}, \"p90_ns\": {}, \
             \"p99_ns\": {}, \"max_ns\": {}}}{}\n",
            run.name,
            run.profile,
            run.weight,
            run.completed,
            run.rejected,
            m.latency.p50_ns(),
            m.latency.p90_ns(),
            m.latency.p99_ns(),
            m.latency.max_ns(),
            if i + 1 == runs.len() { "" } else { "," }
        ));
    }
    out.push_str("  ],\n");
    out.push_str(&format!(
        "  \"build\": \"{}\"\n",
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        }
    ));
    out.push_str("}\n");
    out
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let ops_target: u64 = if smoke { 2_000 } else { 100_000 };
    let host_cpus = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1);

    // Wire-edge phase: the full fleet connects before the first op and
    // every connection completes its budget and the drain handshake.
    let edge_ops_per_conn: u64 = if smoke { 4 } else { 32 };
    let edge = edge_phase(edge_ops_per_conn);
    assert!(
        edge.connections >= 1000,
        "edge phase must sustain >= 1000 concurrent wire clients, got {}",
        edge.connections
    );
    assert_eq!(
        edge.responses + edge.rejects,
        edge.ops,
        "every wire submit is answered exactly once"
    );
    assert_eq!(edge.wire_errors, 0, "no protocol errors over loopback");
    assert_eq!(
        edge.drained, edge.connections as u64,
        "every connection completes the drain handshake"
    );
    assert_eq!(
        edge.bank_conflicts, 0,
        "conflict-freedom must hold under wire load"
    );
    println!(
        "edge phase: {} concurrent wire clients, {} ops in {:.3}s = {:.0} ops/s \
         ({} responses, {} typed rejects, {} drained, bank conflicts {})",
        edge.connections,
        edge.ops,
        edge.wall_s,
        (edge.responses + edge.rejects) as f64 / edge.wall_s,
        edge.responses,
        edge.rejects,
        edge.drained,
        edge.bank_conflicts
    );

    let cfg = CfmConfig::new(PROCESSORS, CLUSTER, WORD_WIDTH).expect("valid bench config");
    let banks = cfg.banks();
    let roster = roster(banks);

    let mut service_cfg = ServiceConfig::new(cfg, OFFSETS);
    for (name, _, weight, _) in &roster {
        service_cfg = service_cfg.with_tenant(
            TenantSpec::new(name)
                .weight(*weight)
                .queue_capacity(QUEUE_CAPACITY),
        );
    }
    let service = Arc::new(Service::start(service_cfg).expect("valid service config"));

    let start = Instant::now();
    let handles: Vec<_> = roster
        .iter()
        .enumerate()
        .map(|(tenant, (_, _, _, profile))| {
            let service = Arc::clone(&service);
            let traffic = TenantTraffic::new(profile.clone(), OFFSETS, banks, 1000 + tenant as u64);
            std::thread::spawn(move || drive_tenant(&service, tenant, traffic, ops_target))
        })
        .collect();
    let per_tenant: Vec<(u64, u64)> = handles
        .into_iter()
        .map(|h| h.join().expect("client thread"))
        .collect();
    let wall_s = start.elapsed().as_secs_f64();

    let service = Arc::try_unwrap(service)
        .ok()
        .expect("all client threads joined");
    let report = service.drain();
    assert_eq!(
        report.stats.bank_conflicts, 0,
        "conflict-freedom must hold under service load"
    );

    let runs: Vec<TenantRun> = roster
        .iter()
        .zip(per_tenant)
        .map(
            |((name, profile, weight, _), (completed, rejected))| TenantRun {
                name,
                profile,
                weight: *weight,
                completed,
                rejected,
            },
        )
        .collect();

    let rows: Vec<Vec<String>> = runs
        .iter()
        .zip(report.metrics.tenants.iter())
        .map(|(r, m)| {
            vec![
                r.name.to_string(),
                r.profile.to_string(),
                r.weight.to_string(),
                r.completed.to_string(),
                r.rejected.to_string(),
                m.latency.p50_ns().to_string(),
                m.latency.p99_ns().to_string(),
            ]
        })
        .collect();
    print_table(
        "cfm-serve closed-loop soak",
        &[
            "tenant", "profile", "weight", "done", "rejected", "p50_ns", "p99_ns",
        ],
        &rows,
    );
    let total: u64 = runs.iter().map(|r| r.completed).sum();
    println!(
        "total {total} ops in {wall_s:.3}s = {:.0} ops/s (cycles {}, bank conflicts {})",
        total as f64 / wall_s,
        report.cycles,
        report.stats.bank_conflicts
    );

    let json = json_report(&runs, &report, &edge, wall_s, ops_target, host_cpus, smoke);
    match std::fs::File::create("BENCH_serve.json").and_then(|mut f| f.write_all(json.as_bytes())) {
        Ok(()) => println!("wrote BENCH_serve.json"),
        Err(e) => println!("could not write BENCH_serve.json: {e}"),
    }
}
