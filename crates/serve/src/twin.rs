//! A slot-clock twin of the service's event loop.
//!
//! [`run`] steps the loop core the service thread runs — deficit
//! round-robin dequeue onto idle processors, issue and one slot, polling
//! the delivered lanes — from one thread with no park and no edge.
//! Admission goes through the service's own gates and rings, on a shared
//! state no other thread sees, and answers through the same reply path
//! as a served ticket, so a twin run is the threaded service's schedule
//! with the wall clock taken out: the same roster and traffic give the
//! same [`TwinReport`], byte for byte, on either engine. `cfm-verify serve`
//! asserts the latency-critical tenant's queueing bound and the DRR
//! fairness bound in slots on it (`docs/service.md` §3, §6), and
//! `cfm-verify restore` a live migration's.
//!
//! A pass mirrors the service thread's:
//!
//! 1. each client takes its answered requests, then, until slot `slots`,
//!    submits until it has its window outstanding or admission refuses
//!    one (a refused operation is recorded and dropped, as a client that
//!    sheds on backpressure would);
//! 2. the core dequeues onto the idle processors;
//! 3. the last slot's answers are delivered — after the dequeue, as the
//!    thread delivers them after counting them, so a client sees them on
//!    the next pass;
//! 4. unless nothing is queued or in flight (the thread would park), the
//!    core issues the batch, steps one slot and polls.
//!
//! From slot `slots` on the clients stop submitting and the run drains:
//! it ends once everything admitted is answered, so every operation
//! offered is either answered or refused.
//!
//! A run may carry one [`Migration`]. From the first pass at its slot the
//! named tenants' gates are quiesced, as [`Service::migrate`] quiesces
//! them, and the core dequeues nothing until its lanes drain; that pass
//! swaps through the service thread's own `perform_migration`.
//!
//! The slot clock is the machine's cycle: a request's admission slot, and
//! its completion's `issued_at` and `completed_at`, read the same clock.

use std::sync::Arc;
use std::time::Instant;

use cfm_core::config::CfmConfig;
use cfm_core::op::{Completion, Operation};
use cfm_core::stats::Stats;

use crate::config::ServiceConfig;
use crate::request::{Reject, Reply, TenantId, Ticket, TicketInner};
use crate::service::{
    perform_migration, target, LoopCore, MigrateError, MigrationReport, Service, Shared, StartError,
};

/// One live migration a twin run performs.
#[derive(Debug, Clone)]
pub struct Migration {
    /// The slot at or after which the migration starts.
    pub at: u64,
    /// The tenants whose submits are shed while it runs.
    pub tenants: Vec<TenantId>,
    /// The machine shape it moves the service onto.
    pub target: CfmConfig,
}

/// What a twin run did: every answered request on the slot clock.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TwinReport {
    /// Every answered request, in the order its client took it: the
    /// tenant, the slot it was admitted in, and the machine's completion.
    pub completions: Vec<(TenantId, u64, Completion)>,
    /// Every refused offer: the tenant, the slot, and the reason.
    pub refused: Vec<(TenantId, u64, Reject)>,
    /// `offered[t]`: the operations tenant `t` offered.
    pub offered: Vec<u64>,
    /// `idle_lanes[s]`: processors idle when the pass that stepped slot
    /// `s` dequeued, after that pass's admissions; for a slot a
    /// migration's swap stepped, the source machine's processors.
    pub idle_lanes: Vec<usize>,
    /// The migration, if one was asked for: the slot its tenants'
    /// gates quiesced in, and its outcome.
    pub migration: Option<(u64, Result<MigrationReport, MigrateError>)>,
    /// The machine's statistics at the end of the run.
    pub stats: Stats,
}

/// Serve `clients` on a service configured by `config` until the machine
/// has stepped `slots` slots, performing `migration` on the way, then
/// drain. `clients[t]` drives tenant `t`: a window, the most requests it
/// keeps outstanding, and its operations in order.
pub fn run<I: Iterator<Item = Operation>>(
    config: ServiceConfig,
    clients: Vec<(usize, I)>,
    slots: u64,
    mut migration: Option<Migration>,
) -> Result<TwinReport, StartError> {
    Service::validate(&config)?;
    let shared = Shared::new(&config);
    let mut core = LoopCore::new(&config);
    // The core stamps wall-clock latencies; the twin reports none.
    let at = Instant::now();
    let mut clients: Vec<_> = clients
        .into_iter()
        .map(|(window, ops)| (window, ops, Vec::<(u64, Ticket)>::new()))
        .collect();
    let mut report = TwinReport {
        completions: Vec::new(),
        refused: Vec::new(),
        offered: vec![0; clients.len()],
        idle_lanes: Vec::new(),
        migration: None,
        stats: Stats::default(),
    };
    // The target of a migration whose gates are quiesced, and the slot
    // they quiesced in.
    let mut swap: Option<(CfmConfig, u64)> = None;
    loop {
        let slot = core.machine.cycle();
        if let Some(m) = migration.take_if(|m| slot >= m.at) {
            match shared.quiesce_gates(&m.tenants) {
                Ok(()) => swap = Some((m.target, slot)),
                Err(e) => report.migration = Some((slot, Err(e))),
            }
        }
        let mut progress = false;
        for (tenant, (window, ops, outstanding)) in clients.iter_mut().enumerate() {
            outstanding.retain_mut(|(admitted, ticket)| match ticket.try_take() {
                Some(response) => {
                    report
                        .completions
                        .push((tenant, *admitted, response.completion));
                    progress = true;
                    false
                }
                None => true,
            });
            while slot < slots && outstanding.len() < *window {
                let Some(op) = ops.next() else { break };
                report.offered[tenant] += 1;
                let admitted = target(&op, config.offsets).and_then(|target| {
                    shared.admit(tenant, op, target, true, || {
                        let ticket = TicketInner::new();
                        (Reply::Ticket(Arc::clone(&ticket)), Ticket { inner: ticket })
                    })
                });
                match admitted {
                    Ok(ticket) => outstanding.push((slot, ticket)),
                    Err(reject) => {
                        report.refused.push((tenant, slot, reject));
                        break;
                    }
                }
                progress = true;
            }
        }
        let idle = core.free.len();
        let swapping = swap.is_some() && core.quiesced_for_swap();
        if swap.is_none() {
            core.dequeue(&shared);
        }
        for (reply, response) in core.fulfilled.drain(..) {
            reply.deliver(Ok(response), None);
            progress = true;
        }
        if swapping {
            let (target, seen) = swap.take().expect("a swap is pending");
            let processors = core.machine.config().processors();
            let outcome = perform_migration(&mut core, &shared, target);
            let stepped = core.machine.cycle() - slot;
            report
                .idle_lanes
                .extend(std::iter::repeat_n(processors, stepped as usize));
            report.migration = Some((seen, outcome));
        } else if core.must_step(&shared) {
            report.idle_lanes.push(idle);
            core.issue_and_step(at);
            core.poll(at);
        } else if !progress {
            break;
        }
    }
    report.stats = *core.machine.stats();
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Criticality, TenantSpec};
    use cfm_core::config::{CfmConfig, Engine};
    use cfm_workloads::tenants::{adversarial_mix, TenantTraffic};

    const OFFSETS: usize = 32;

    /// The adversarial mix on `engine`: a depth-1 latency-critical probe
    /// beside three best-effort neighbours that keep their queues full.
    fn mix_report(seed: u64, engine: Engine) -> TwinReport {
        let machine = CfmConfig::new(4, 1, 16).unwrap().with_engine(engine);
        let mut config = ServiceConfig::new(machine, OFFSETS);
        let mut clients = Vec::new();
        for (t, tenant) in adversarial_mix(OFFSETS).into_iter().enumerate() {
            let (spec, window) = if tenant.critical {
                (
                    TenantSpec::new(tenant.name).criticality(Criticality::LatencyCritical),
                    1,
                )
            } else {
                (TenantSpec::new(tenant.name).queue_capacity(16), usize::MAX)
            };
            config = config.with_tenant(spec);
            let mut traffic = TenantTraffic::new(tenant.profile, OFFSETS, 4, seed * 10 + t as u64);
            clients.push((
                window,
                std::iter::from_fn(move || traffic.take_ops(1).pop()),
            ));
        }
        run(config, clients, 600, None).unwrap()
    }

    #[test]
    fn a_seed_replays_byte_identically() {
        let a = format!("{:?}", mix_report(3, Engine::Sequential));
        let b = format!("{:?}", mix_report(3, Engine::Sequential));
        assert_eq!(a, b);
        assert_ne!(a, format!("{:?}", mix_report(4, Engine::Sequential)));
    }

    #[test]
    fn both_engines_give_the_same_report() {
        for seed in [1, 2] {
            let reference = mix_report(seed, Engine::Sequential);
            assert!(reference.completions.len() > 100);
            assert_eq!(reference.stats.bank_conflicts, 0);
            assert_eq!(
                format!("{reference:?}"),
                format!("{:?}", mix_report(seed, Engine::Parallel { threads: 1 }))
            );
        }
    }

    #[test]
    fn a_serial_script_matches_the_threaded_service() {
        let machine = CfmConfig::new(4, 1, 16).unwrap();
        let script: Vec<Operation> = (0..12u64)
            .flat_map(|i| {
                let offset = (i as usize * 5) % OFFSETS;
                [
                    Operation::write(offset, vec![i + 1; 4]),
                    Operation::read(offset),
                    Operation::read((offset + 1) % OFFSETS),
                ]
            })
            .collect();
        let config = || ServiceConfig::new(machine, OFFSETS).with_tenant(TenantSpec::new("s"));

        let twin = run(
            config(),
            vec![(1, script.clone().into_iter())],
            u64::MAX,
            None,
        )
        .unwrap();
        let service = Service::start(config()).unwrap();
        let served: Vec<Completion> = script
            .into_iter()
            .map(|op| service.submit(0, op).unwrap().wait().unwrap().completion)
            .collect();
        let report = service.drain();

        let twinned: Vec<Completion> = twin.completions.into_iter().map(|(_, _, c)| c).collect();
        assert_eq!(twinned.len(), 36);
        assert_eq!(twinned, served);
        assert_eq!(twin.stats, report.stats);
    }

    /// A moving tenant keeping its queue full of writes and reads beside
    /// a steady reader, migrated from `engine` onto the same shape with
    /// two spare banks at slot 102, mid-batch.
    fn migration_report(engine: Engine) -> TwinReport {
        let machine = CfmConfig::new(4, 1, 16).unwrap();
        let config = ServiceConfig::new(machine.with_engine(engine), OFFSETS)
            .with_tenant(TenantSpec::new("moving").queue_capacity(16))
            .with_tenant(TenantSpec::new("steady").queue_capacity(16));
        let traffic = |writes: bool| {
            (0..).map(move |i: u64| {
                let offset = (i * 3) as usize % OFFSETS;
                if writes && i.is_multiple_of(2) {
                    Operation::write(offset, vec![i; 4])
                } else {
                    Operation::read(offset)
                }
            })
        };
        let target = machine.with_spares(2).unwrap();
        let migration = Migration {
            at: 102,
            tenants: vec![0],
            target: target.with_engine(Engine::Parallel { threads: 1 }),
        };
        let clients = vec![(usize::MAX, traffic(true)), (16, traffic(false))];
        run(config, clients, 400, Some(migration)).unwrap()
    }

    #[test]
    fn a_migration_replays_byte_identically_on_both_engines() {
        let report = migration_report(Engine::Sequential);
        let debug = format!("{report:?}");
        assert_eq!(debug, format!("{:?}", migration_report(Engine::Sequential)));
        let parallel = migration_report(Engine::Parallel { threads: 1 });
        assert_eq!(debug, format!("{parallel:?}"));

        let Some((seen, Ok(moved))) = report.migration else {
            panic!("the migration did not complete: {:?}", report.migration);
        };
        assert_eq!((seen, moved.from_banks, moved.to_banks), (102, 4, 4));
        // Only the quiesced tenant is refused, with the hint 2b + c + 64.
        assert!(report.refused.iter().all(|(t, _, _)| *t == 0));
        assert!(report.refused.iter().any(|(_, _, r)| *r
            == Reject::Migrating {
                tenant: 0,
                retry_after_slots: 73
            }));
        // One entry per slot, the swap's quiesce steps included: every
        // pass that issued an operation had an idle processor, and the
        // drain window's last slot is one the swap stepped with every
        // lane idle (a drain pass steps with a lane busy).
        assert_eq!(report.idle_lanes.len() as u64, report.stats.cycles);
        for (_, _, c) in &report.completions {
            assert!(report.idle_lanes[c.issued_at as usize] > 0, "{c:?}");
        }
        let last = seen + moved.drained_slots - 1;
        assert_eq!(report.idle_lanes[last as usize], 4);
        assert_eq!(report.stats.bank_conflicts, 0);
    }
}
