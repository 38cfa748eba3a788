//! End-to-end edge cases for the `cfm-serve` multi-tenant service,
//! exercised through the facade crate exactly as an embedding
//! application would: typed queue-full backpressure, drain with work
//! still in flight, and the deficit-round-robin starvation bound with
//! one pure hot-spot tenant hogging the roster.

use std::sync::Arc;
use std::thread;

use conflict_free_memory::core::config::CfmConfig;
use conflict_free_memory::core::op::Operation;
use conflict_free_memory::serve::{Reject, Response, Service, ServiceConfig, TenantSpec, Ticket};
use conflict_free_memory::workloads::tenants::{TenantProfile, TenantTraffic};

const WORD_WIDTH: u32 = 16;

fn machine_config(processors: usize) -> CfmConfig {
    CfmConfig::new(processors, 1, WORD_WIDTH).unwrap()
}

/// Flooding one bounded queue without ever reaping tickets must produce
/// typed `Reject::QueueFull` backpressure — and every ticket that *was*
/// admitted must still resolve at drain, so backpressure never turns
/// into loss.
#[test]
fn queue_full_rejection_is_typed_and_lossless() {
    let machine = machine_config(4);
    let banks = machine.banks();
    let config = ServiceConfig::new(machine, banks)
        .with_tenant(TenantSpec::new("flooder").queue_capacity(8));
    let service = Service::start(config).expect("valid roster");

    let mut admitted: Vec<Ticket> = Vec::new();
    let mut queue_full = 0u64;
    for _ in 0..512 {
        match service.submit(0, Operation::read(0)) {
            Ok(ticket) => admitted.push(ticket),
            Err(Reject::QueueFull {
                tenant,
                capacity,
                retry_after_slots,
            }) => {
                assert_eq!(tenant, 0);
                assert_eq!(capacity, 8);
                // Drain model: ceil(8 queued / 4 lanes) + bank cycle 1 + 1.
                assert_eq!(retry_after_slots, 4);
                queue_full += 1;
            }
            Err(other) => panic!("unexpected rejection: {other}"),
        }
    }
    assert!(
        queue_full > 0,
        "a 512-op flood must overflow a depth-8 queue"
    );
    assert!(!admitted.is_empty(), "admission must not be all-or-nothing");

    let report = service.drain();
    assert_eq!(report.stats.bank_conflicts, 0);
    for ticket in admitted {
        let response = ticket.wait().expect("admitted op completes at drain");
        assert_eq!(response.tenant, 0);
        assert!(response.total_ns >= response.queued_ns);
    }
    let flooder = &report.metrics.tenants[0];
    assert_eq!(flooder.rejected_queue_full, queue_full);
    assert_eq!(flooder.completed, flooder.submitted);
}

/// Draining while a full queue of requests is still in flight must
/// complete every admitted operation — drain is graceful, not abortive.
#[test]
fn drain_completes_inflight_work() {
    let machine = machine_config(4);
    let banks = machine.banks();
    let config = ServiceConfig::new(machine, banks)
        .with_tenant(TenantSpec::new("writer").queue_capacity(64))
        .with_tenant(TenantSpec::new("reader").queue_capacity(64));
    let service = Service::start(config).expect("valid roster");

    let mut writer = TenantTraffic::new(
        TenantProfile::Uniform {
            write_fraction: 1.0,
        },
        banks,
        banks,
        7,
    );
    let mut tickets = Vec::new();
    for _ in 0..48 {
        tickets.push(service.submit(0, writer.tick().unwrap()).unwrap());
        tickets.push(service.submit(1, Operation::read(0)).unwrap());
    }

    // No waiting: drain races the event loop with 96 ops outstanding.
    let report = service.drain();
    assert_eq!(report.stats.bank_conflicts, 0);
    assert_eq!(report.metrics.completed(), 96);
    for ticket in tickets {
        assert!(ticket.is_ready(), "drain left a ticket unresolved");
        assert!(ticket.wait().is_some());
    }
}

/// A weight-1 tenant sharing the threaded service with a weight-6 pure
/// hot-spot hog, both driven from their own threads, completes every
/// one of its operations with zero bank conflicts. This checks
/// completion only; the deficit round-robin bound itself is asserted
/// exactly in slots on the twin (`cfm-verify serve`, `serve/fairness`).
#[test]
fn hot_spot_hog_cannot_starve_a_meek_tenant() {
    const PROCESSORS: usize = 8;
    const OPS_PER_TENANT: u64 = 4_000;
    const CAPACITY: usize = 32;
    const WINDOW: usize = 48; // > CAPACITY keeps the tenant backlogged

    let machine = machine_config(PROCESSORS);
    let banks = machine.banks();
    let config = ServiceConfig::new(machine, banks)
        .with_tenant(TenantSpec::new("hog").weight(6).queue_capacity(CAPACITY))
        .with_tenant(TenantSpec::new("meek").queue_capacity(CAPACITY));
    let service = Arc::new(Service::start(config).expect("valid roster"));

    let profiles = [
        // Every hog op hammers one offset — the adversarial case for a
        // conventional interleaved memory, a no-op for the CFM schedule.
        TenantProfile::HotSpot {
            hot_offset: 3,
            hot_fraction: 1.0,
            write_fraction: 0.5,
        },
        TenantProfile::Uniform {
            write_fraction: 0.25,
        },
    ];

    let mut drivers = Vec::new();
    for (tenant, profile) in profiles.into_iter().enumerate() {
        let service = Arc::clone(&service);
        drivers.push(thread::spawn(move || {
            let mut traffic = TenantTraffic::new(profile, banks, banks, 40 + tenant as u64);
            let mut window: Vec<Ticket> = Vec::new();
            let mut sent = 0u64;
            while sent < OPS_PER_TENANT {
                let op = match traffic.tick() {
                    Some(op) => op,
                    None => continue,
                };
                loop {
                    match service.submit(tenant, op.clone()) {
                        Ok(ticket) => {
                            window.push(ticket);
                            sent += 1;
                            break;
                        }
                        Err(Reject::QueueFull { .. } | Reject::Overloaded { .. }) => {
                            // Backpressured: reap the oldest ticket and retry.
                            window.remove(0).wait().expect("service alive");
                        }
                        Err(other) => panic!("unexpected rejection: {other}"),
                    }
                }
                if window.len() > WINDOW {
                    window.remove(0).wait().expect("service alive");
                }
            }
            for ticket in window {
                ticket.wait().expect("service alive");
            }
        }));
    }
    for driver in drivers {
        driver.join().expect("tenant driver panicked");
    }

    let service = Arc::try_unwrap(service).ok().expect("drivers done");
    let report = service.drain();
    assert_eq!(report.stats.bank_conflicts, 0, "hot spot caused conflicts");
    let meek = &report.metrics.tenants[1];
    assert_eq!(meek.completed, OPS_PER_TENANT, "meek tenant lost work");
    // Both tenants ran to completion concurrently; with weights 6:1 the
    // meek tenant is guaranteed at least its share of every scheduling
    // round, so its latency distribution must be populated and bounded.
    assert_eq!(meek.latency.count(), OPS_PER_TENANT);
    assert!(meek.latency.p50_ns() <= meek.latency.p99_ns());
}

/// Tickets issued before a live migration must be fulfilled after the
/// restore on the *target* machine: admission is durable across the
/// checkpoint/restore boundary, and so is every committed write. A
/// large bank cycle makes each op span many slots, so a deep backlog is
/// still queued when the migration command lands — those operations are
/// replayed on the target.
#[test]
fn tickets_cross_the_migration_boundary() {
    // c = 4 → b = 16, β = 19 slots per block op: a 64-op backlog takes
    // hundreds of slots, far longer than the submit→migrate gap.
    let machine = CfmConfig::new(4, 4, WORD_WIDTH).unwrap();
    let banks = machine.banks();
    let config = ServiceConfig::new(machine, banks)
        .with_tenant(TenantSpec::new("migrated").queue_capacity(64))
        .with_tenant(TenantSpec::new("bystander").queue_capacity(64));
    let service = Service::start(config).expect("valid roster");

    // A committed write whose durability the migration must preserve.
    service
        .submit(0, Operation::write(7, vec![42; banks]))
        .unwrap()
        .wait()
        .unwrap();

    // Deep backlog from both tenants, tickets in hand, nobody reaped.
    let mut tickets = Vec::new();
    for i in 0..32 {
        tickets.push(service.submit(0, Operation::read(i % banks)).unwrap());
        // Keep the backlog's writes away from the sentinel block 7.
        tickets.push(
            service
                .submit(1, Operation::write(8 + i % 5, vec![i as u64; banks]))
                .unwrap(),
        );
    }

    // Grow 16 banks → 32 while that backlog is outstanding.
    let report = service
        .migrate(&[0], CfmConfig::new(8, 4, WORD_WIDTH).unwrap())
        .expect("migration succeeds");
    assert_eq!((report.from_banks, report.to_banks), (16, 32));
    assert!(
        report.replayed > 0,
        "a β=19 backlog of 64 ops cannot drain in the submit→migrate gap"
    );

    // Every pre-migration ticket resolves post-restore.
    for ticket in tickets {
        let response = ticket.wait().expect("ticket fulfilled after restore");
        assert!(response.total_ns >= response.queued_ns);
    }

    // The pre-migration write is durable on the target; the grown tail
    // of the block reads zero (absent, not torn).
    let read = service.submit(0, Operation::read(7)).unwrap();
    let completion = read.wait().unwrap().completion;
    assert!(!completion.torn);
    let data = completion.data.expect("read returns data");
    assert_eq!(&data[..16], &[42u64; 16][..]);
    assert_eq!(&data[16..], &[0u64; 16][..]);

    let final_report = service.drain();
    assert_eq!(final_report.stats.bank_conflicts, 0);
}

/// Dropping tickets on the floor while `drain` races the event loop
/// must neither deadlock nor panic: the loop fulfills into shared slots
/// whose last Arc it may itself hold, and drain still completes every
/// admitted op.
#[test]
fn drain_races_dropped_tickets() {
    let machine = machine_config(4);
    let banks = machine.banks();
    let config = ServiceConfig::new(machine, banks)
        .with_tenant(TenantSpec::new("dropper").queue_capacity(128))
        .with_tenant(TenantSpec::new("keeper").queue_capacity(128));
    let service = Service::start(config).expect("valid roster");

    let mut kept = Vec::new();
    let mut dropped = Vec::new();
    for i in 0..64 {
        // The dropper's tickets are discarded immediately — some before
        // fulfillment, some after, depending on the race with the loop.
        dropped.push(service.submit(0, Operation::read(i % banks)).unwrap());
        kept.push(
            service
                .submit(1, Operation::write(i % banks, vec![i as u64; banks]))
                .unwrap(),
        );
    }
    // Drop half the backlog's tickets from another thread while the
    // main thread drains — fulfillment and ticket drop race directly.
    let shredder = thread::spawn(move || drop(dropped));
    let report = service.drain();
    shredder.join().expect("dropping tickets never panics");

    assert_eq!(
        report.metrics.completed(),
        128,
        "drain completed everything"
    );
    assert_eq!(report.stats.bank_conflicts, 0);
    for ticket in kept {
        assert!(ticket.wait().is_some(), "kept tickets resolve normally");
    }
}

/// Spin on `ticket` until it resolves, the way a polling client does, so
/// the caller sees the answer the moment the event loop delivers it.
fn spin(mut ticket: Ticket) -> Response {
    while !ticket.is_ready() {
        std::hint::spin_loop();
    }
    ticket.try_take().expect("service alive")
}

/// A ticket that has resolved is already counted: once its waiter
/// returns, `metrics()` reports it `completed`. The event loop counts a
/// slot's completions under its completion lock at the start of the
/// next pass and delivers them only after, and that order must hold on
/// each way out of the pass: serving on, parking idle, quiescing for a
/// migration, and the drain exit, whose report must count every
/// delivered answer.
#[test]
fn resolved_tickets_are_already_counted() {
    // c = 4 → b = 16: multi-slot operations keep a backlog in flight
    // while the migration command lands.
    let machine = CfmConfig::new(4, 4, WORD_WIDTH).unwrap();
    let banks = machine.banks();
    let config = ServiceConfig::new(machine, banks)
        .with_tenant(TenantSpec::new("served").queue_capacity(64))
        .with_tenant(TenantSpec::new("migrated").queue_capacity(64));
    let service = Service::start(config).expect("valid roster");
    let completed = |tenant: usize| service.metrics().tenants[tenant].completed;

    // Park: one request at a time, so the loop goes idle after each.
    const PARKED: u64 = 2_000;
    for i in 0..PARKED as usize {
        spin(service.submit(0, Operation::read(i % banks)).unwrap());
        assert_eq!(completed(0), i as u64 + 1, "parked after request {i}");
    }

    // Serving on: a 16-deep backlog, reaped in submission order.
    let mut tickets: Vec<Ticket> = (0..16)
        .map(|i| service.submit(0, Operation::read(i % banks)).unwrap())
        .collect();
    for (k, ticket) in tickets.drain(..).enumerate() {
        spin(ticket);
        assert!(completed(0) > PARKED + k as u64, "busy, answer {k}");
    }

    // Migration: the backlog drains on the source while the command
    // waits; its last answers are delivered at the swap boundary.
    let backlog: Vec<Ticket> = (0..32)
        .map(|i| {
            service
                .submit(1, Operation::write(i % banks, vec![i as u64; banks]))
                .unwrap()
        })
        .collect();
    thread::scope(|s| {
        let migration =
            s.spawn(|| service.migrate(&[1], CfmConfig::new(4, 4, WORD_WIDTH).unwrap()));
        for (k, ticket) in backlog.into_iter().enumerate() {
            spin(ticket);
            assert!(completed(1) > k as u64, "migration, answer {k}");
        }
        migration
            .join()
            .unwrap()
            .expect("same-shape migration succeeds");
    });

    // Drain: every answer the waiters get is in the final report.
    let tail: Vec<Ticket> = (0..32)
        .map(|i| service.submit(0, Operation::read(i % banks)).unwrap())
        .collect();
    let report = service.drain();
    let answered = tail.into_iter().filter_map(Ticket::wait).count() as u64;
    assert_eq!(answered, 32);
    assert_eq!(report.metrics.tenants[0].completed, PARKED + 16 + answered);
    assert_eq!(report.metrics.tenants[1].completed, 32);
}

/// A pass in which every lane completes in the same slot must resolve
/// every ticket exactly once, each with `queued_ns <= total_ns`. A
/// migration stops issue while a deep backlog waits; after the swap the
/// loop admits one request per lane in a single pass, and reads of equal
/// length then complete together, slot after slot.
#[test]
fn a_slot_completing_every_lane_resolves_each_ticket_once() {
    // c = 4 → b = 32, β = 35 slots: the backlog outlasts the
    // submit→migrate gap.
    const N: usize = 8;
    const BACKLOG: usize = 8 * N;
    let machine = CfmConfig::new(N, 4, WORD_WIDTH).unwrap();
    let banks = machine.banks();
    let config = ServiceConfig::new(machine, banks)
        .with_tenant(TenantSpec::new("wide").queue_capacity(BACKLOG));
    let service = Service::start(config).expect("valid roster");

    let tickets: Vec<Ticket> = (0..BACKLOG)
        .map(|i| service.submit(0, Operation::read(i % banks)).unwrap())
        .collect();
    let report = service.migrate(&[0], machine).expect("migration succeeds");
    assert!(
        report.replayed >= N,
        "a lane's worth of the backlog waits out the swap"
    );

    let responses: Vec<Response> = tickets
        .into_iter()
        .map(|t| t.wait().expect("every ticket resolves"))
        .collect();
    for r in &responses {
        assert!(
            r.queued_ns <= r.total_ns,
            "queued {} > total {}",
            r.queued_ns,
            r.total_ns
        );
    }
    // Group the answers by completion slot: a slot that completed every
    // lane names each lane once.
    let mut by_slot = std::collections::BTreeMap::<u64, Vec<usize>>::new();
    for r in &responses {
        by_slot
            .entry(r.completion.completed_at)
            .or_default()
            .push(r.completion.proc);
    }
    let mut full_slots = 0;
    for lanes in by_slot.values_mut() {
        lanes.sort_unstable();
        if lanes.len() == N {
            assert_eq!(*lanes, (0..N).collect::<Vec<_>>());
            full_slots += 1;
        }
        assert!(
            lanes.windows(2).all(|w| w[0] < w[1]),
            "a lane answered twice in one slot"
        );
    }
    assert!(full_slots > 0, "no slot completed every lane");
    assert_eq!(
        service.metrics().tenants[0].completed,
        BACKLOG as u64,
        "every resolved ticket is counted exactly once"
    );
    let report = service.drain();
    assert_eq!(report.metrics.completed(), BACKLOG as u64);
}
