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
//! asserts the latency-critical tenant's queueing bound in slots on it
//! (`docs/service.md` §6).
//!
//! A pass mirrors the service thread's:
//!
//! 1. each client takes its answered requests, then submits until it has
//!    its window outstanding or admission refuses one (a refused
//!    operation is dropped, as a client that sheds on backpressure
//!    would);
//! 2. the core dequeues onto the idle processors;
//! 3. the last slot's answers are delivered — after the dequeue, as the
//!    thread delivers them after counting them, so a client sees them on
//!    the next pass;
//! 4. unless nothing is queued or in flight (the thread would park), the
//!    core issues the batch, steps one slot and polls.
//!
//! The slot clock is the machine's cycle: a request's admission slot, and
//! its completion's `issued_at` and `completed_at`, read the same clock.

use std::sync::Arc;
use std::time::Instant;

use cfm_core::op::{Completion, Operation};
use cfm_core::stats::Stats;

use crate::config::ServiceConfig;
use crate::request::{Reply, TenantId, Ticket, TicketInner};
use crate::service::{target, LoopCore, Service, Shared, StartError};

/// What a twin run did: every answered request on the slot clock.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TwinReport {
    /// Every answered request, in the order its client took it: the
    /// tenant, the slot it was admitted in, and the machine's completion.
    pub completions: Vec<(TenantId, u64, Completion)>,
    /// `idle_lanes[s]`: processors idle when the pass that stepped slot
    /// `s` dequeued, after that pass's admissions.
    pub idle_lanes: Vec<usize>,
    /// The machine's statistics at the end of the run.
    pub stats: Stats,
}

/// Serve `clients` on a service configured by `config` until the machine
/// has stepped `slots` slots, or until no client can submit and nothing
/// is left to serve. `clients[t]` drives tenant `t`: a window, the most
/// requests it keeps outstanding, and its operations in order.
pub fn run<I: Iterator<Item = Operation>>(
    config: ServiceConfig,
    clients: Vec<(usize, I)>,
    slots: u64,
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
        idle_lanes: Vec::new(),
        stats: Stats::default(),
    };
    while core.machine.cycle() < slots {
        let slot = core.machine.cycle();
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
            while outstanding.len() < *window {
                let Some(op) = ops.next() else { break };
                let admitted = target(&op, config.offsets).and_then(|target| {
                    shared.admit(tenant, op, target, true, || {
                        let ticket = TicketInner::new();
                        (Reply::Ticket(Arc::clone(&ticket)), Ticket { inner: ticket })
                    })
                });
                let Ok(ticket) = admitted else { break };
                outstanding.push((slot, ticket));
                progress = true;
            }
        }
        let idle = core.free.len();
        core.dequeue(&shared);
        for (reply, response) in core.fulfilled.drain(..) {
            reply.deliver(Ok(response), None);
            progress = true;
        }
        if core.must_step(&shared) {
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
        run(config, clients, 600).unwrap()
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

        let twin = run(config(), vec![(1, script.clone().into_iter())], u64::MAX).unwrap();
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
}
