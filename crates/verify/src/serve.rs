//! `cfm-verify serve` — multi-tenant service soak.
//!
//! The static sections prove the schedule conflict-free and the trace
//! layer re-derives it from healthy executions; this section asserts the
//! *service-level* contract of `cfm-serve` under adversarial tenant
//! mixes:
//!
//! * **conflict-freedom** — a mixed roster including one pure hot-spot
//!   tenant (100% of its traffic at a single block) soaks the machine;
//!   `bank_conflicts` must stay 0 and every admitted operation must
//!   complete exactly once;
//! * **fairness** — with a weight-8 hog and a weight-1 meek tenant both
//!   continuously backlogged, any observed window of `W` completions
//!   grants the meek tenant at least `floor(W·w/Σw) − slack` of them —
//!   the windowed deficit-round-robin bound (the slack covers one
//!   quantum per boundary plus the in-flight skew of one batch per
//!   processor lane);
//! * **admission** — flooding a bounded queue without reaping must
//!   produce typed `QueueFull` rejections (the backpressure path is
//!   non-vacuous) and every admitted ticket must still resolve — no
//!   admission deadlock;
//! * **drain-inflight** — draining with operations still in flight
//!   completes every admitted request before the loop exits;
//! * **qos-bound** — on the slot-clock twin ([`cfm_serve::twin`]), the
//!   adversarial mix runs on a 4-processor machine: a depth-1
//!   latency-critical probe beside hot-spot, scan and bursty best-effort
//!   neighbours whose queues stay full. Every probe request must be
//!   issued on the first pass from its admission on that has an idle
//!   processor, and, where no operation in flight at its admission
//!   restarts, within `β − 1` slots of its admission (`docs/service.md`
//!   §6 derives the constant). A failure prints its replay,
//!   `cfm-verify serve --seeds <seed>`.
//!
//! The `self-test/serve-*` checks prove the detectors non-vacuous: the
//! fairness bound must flag a rigged monopoly allocation, a
//! one-slot queue must reject, a dropped (not drained) service must
//! close — not strand — its waiters, and the QoS property must fail on
//! the same seed once the probe is demoted to best-effort.

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

use cfm_core::config::CfmConfig;
use cfm_serve::twin;
use cfm_serve::{Criticality, Reject, Service, ServiceConfig, TenantSpec, Ticket};
use cfm_workloads::tenants::{adversarial_mix, TenantProfile, TenantTraffic};

use crate::report::Check;

/// Which service soaks to run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeSpec {
    /// Traffic seeds; each soaks one roster on one machine shape, which
    /// the seed picks, so a seed alone replays its soak.
    pub seeds: Vec<u64>,
    /// Operations each tenant submits per soak.
    pub ops_per_tenant: u64,
}

impl Default for ServeSpec {
    /// Two seeded soaks (on shapes n=4 c=2 and n=4 c=1), sized so the
    /// fairness window closes well before either driver runs out of
    /// operations.
    fn default() -> Self {
        ServeSpec {
            seeds: vec![11, 12],
            ops_per_tenant: 6_000,
        }
    }
}

/// `(n, c)` machine shapes a soak's seed picks from.
const SHAPES: [(usize, u32); 3] = [(4, 1), (8, 1), (4, 2)];

const WORD_WIDTH: u32 = 16;
const OFFSETS: usize = 32;
const QUEUE_CAPACITY: usize = 64;
/// Per-driver in-flight window; larger than the queue capacity so a
/// driver keeps its tenant's queue full (continuously backlogged).
const WINDOW: usize = 96;

/// Hog:meek scheduling weights for the fairness soak.
const W_HOG: u32 = 8;
const W_MEEK: u32 = 1;

/// Fairness slack: one quantum can be owed at each window boundary,
/// plus one batch per lane may complete inside the window that was
/// dequeued before it.
fn fairness_slack(processors: usize) -> u64 {
    2 * u64::from(W_HOG) + processors as u64
}

/// The windowed DRR lower bound on the meek tenant's completions.
fn fairness_bound(window: u64, processors: usize) -> i64 {
    let share = window * u64::from(W_MEEK) / u64::from(W_HOG + W_MEEK);
    share as i64 - fairness_slack(processors) as i64
}

/// Drive one tenant closed-loop from its own thread: keep up to
/// [`WINDOW`] operations in flight, reaping the oldest to make room and
/// absorbing backpressure by reaping instead of spinning.
fn drive_tenant(service: &Service, tenant: usize, mut traffic: TenantTraffic, ops: u64) -> u64 {
    let mut outstanding: VecDeque<Ticket> = VecDeque::with_capacity(WINDOW);
    let mut completed = 0u64;
    let mut submitted = 0u64;
    while completed < ops {
        if submitted < ops && outstanding.len() < WINDOW {
            let op = traffic.take_ops(1).pop().expect("infinite stream");
            match service.submit(tenant, op) {
                Ok(ticket) => {
                    outstanding.push_back(ticket);
                    submitted += 1;
                }
                Err(Reject::QueueFull { .. } | Reject::Overloaded { .. }) => {
                    if let Some(ticket) = outstanding.pop_front() {
                        ticket.wait().expect("service alive during soak");
                        completed += 1;
                    } else {
                        std::thread::yield_now();
                    }
                }
                Err(other) => panic!("unexpected rejection in soak: {other}"),
            }
        } else if let Some(ticket) = outstanding.pop_front() {
            ticket.wait().expect("service alive during soak");
            completed += 1;
        }
    }
    completed
}

/// Block until the service has completed at least `target` operations.
fn wait_for_completions(service: &Service, target: u64) -> cfm_serve::MetricsSnapshot {
    loop {
        let snap = service.metrics();
        if snap.completed() >= target {
            return snap;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// One seeded soak: conflict-freedom + fairness on a hog/meek roster.
fn soak(spec: &ServeSpec, seed: u64) -> Vec<Check> {
    // The seed picks the shape, so a replay with the one seed reruns it.
    let (n, c) = SHAPES[(seed % SHAPES.len() as u64) as usize];
    let cfg = CfmConfig::new(n, c, WORD_WIDTH).expect("valid soak shape");
    let banks = cfg.banks();
    let subject = format!("n={n} c={c} seed={seed}");

    let service = Arc::new(
        Service::start(
            ServiceConfig::new(cfg, OFFSETS)
                .with_tenant(
                    TenantSpec::new("hog")
                        .weight(W_HOG)
                        .queue_capacity(QUEUE_CAPACITY),
                )
                .with_tenant(
                    TenantSpec::new("meek")
                        .weight(W_MEEK)
                        .queue_capacity(QUEUE_CAPACITY),
                ),
        )
        .expect("valid soak config"),
    );

    let ops = spec.ops_per_tenant;
    let handles: Vec<_> = [
        TenantProfile::HotSpot {
            hot_offset: 0,
            hot_fraction: 1.0,
            write_fraction: 0.5,
        },
        TenantProfile::Uniform {
            write_fraction: 0.3,
        },
    ]
    .into_iter()
    .enumerate()
    .map(|(tenant, profile)| {
        let service = Arc::clone(&service);
        let traffic = TenantTraffic::new(profile, OFFSETS, banks, seed * 10 + tenant as u64);
        std::thread::spawn(move || drive_tenant(&service, tenant, traffic, ops))
    })
    .collect();

    // Fairness window: warm up until both tenants are backlogged and
    // completing, then measure a window of completions ending well
    // before either driver's budget runs out.
    let warmup = ops / 10;
    let window_target = ops; // total across both tenants
    let t0 = wait_for_completions(&service, warmup);
    let t1 = wait_for_completions(&service, warmup + window_target);
    let window = t1.completed() - t0.completed();
    let meek_delta = t1.tenants[1].completed - t0.tenants[1].completed;
    let bound = fairness_bound(window, n);

    for h in handles {
        h.join().expect("driver thread");
    }
    let service = Arc::try_unwrap(service).ok().expect("drivers joined");
    let report = service.drain();

    let admitted: u64 = report.metrics.tenants.iter().map(|t| t.submitted).sum();
    let completed = report.metrics.completed();
    let mut checks = Vec::new();

    checks.push(
        if report.stats.bank_conflicts == 0 && completed == admitted && completed == 2 * ops {
            Check::pass(
                "serve/conflict-freedom",
                &subject,
                format!(
                    "{completed} ops (one pure hot-spot tenant) in {} slots, 0 bank conflicts",
                    report.cycles
                ),
            )
        } else {
            Check::fail(
                "serve/conflict-freedom",
                &subject,
                format!(
                    "bank_conflicts={} completed={completed} admitted={admitted}",
                    report.stats.bank_conflicts
                ),
                vec![format!("replay: cfm-verify serve --seeds {seed}")],
            )
        }
        .with_metric("ops", completed)
        .with_metric("bank_conflicts", report.stats.bank_conflicts)
        .with_metric("cycles", report.cycles),
    );

    checks.push(
        if (meek_delta as i64) >= bound {
            Check::pass(
                "serve/fairness",
                &subject,
                format!(
                    "meek tenant got {meek_delta} of {window} completions under a weight-8 \
                     hot-spot hog (bound {bound})"
                ),
            )
        } else {
            Check::fail(
                "serve/fairness",
                &subject,
                format!("meek tenant starved: {meek_delta} of {window} < bound {bound}"),
                vec![
                    format!(
                        "window={window} meek={meek_delta} bound={bound} slack={}",
                        fairness_slack(n)
                    ),
                    format!("replay: cfm-verify serve --seeds {seed}"),
                ],
            )
        }
        .with_metric("window", window)
        .with_metric("meek_completions", meek_delta)
        .with_metric("bound", bound.max(0) as u64),
    );

    checks
}

/// Admission check: flood a bounded queue without reaping; typed
/// `QueueFull` rejections must appear and every admitted ticket must
/// still resolve.
fn admission_check(seed: u64) -> Check {
    let cfg = CfmConfig::new(4, 1, WORD_WIDTH).expect("valid shape");
    let banks = cfg.banks();
    let subject = format!("capacity={QUEUE_CAPACITY} seed={seed}");
    let service = Service::start(
        ServiceConfig::new(cfg, OFFSETS)
            .with_tenant(TenantSpec::new("flood").queue_capacity(QUEUE_CAPACITY))
            .max_queued(QUEUE_CAPACITY),
    )
    .expect("valid config");

    let mut traffic = TenantTraffic::new(
        TenantProfile::Uniform {
            write_fraction: 0.5,
        },
        OFFSETS,
        banks,
        seed,
    );
    let mut tickets = Vec::new();
    let mut queue_full = 0u64;
    let mut overloaded = 0u64;
    // Submit far more than the queue holds, never reaping: the bound
    // must push back. (The loop is concurrently draining the queue, so
    // admissions and rejections interleave.)
    for _ in 0..(QUEUE_CAPACITY * 50) {
        let op = traffic.take_ops(1).pop().expect("infinite stream");
        match service.submit(0, op) {
            Ok(t) => tickets.push(t),
            Err(Reject::QueueFull { .. }) => queue_full += 1,
            Err(Reject::Overloaded { .. }) => overloaded += 1,
            Err(other) => {
                return Check::fail(
                    "serve/admission",
                    &subject,
                    format!("unexpected rejection: {other}"),
                    vec![],
                )
            }
        }
    }
    let admitted = tickets.len() as u64;
    let deadline = Instant::now() + Duration::from_secs(30);
    for (resolved, t) in tickets.into_iter().enumerate() {
        if Instant::now() > deadline {
            return Check::fail(
                "serve/admission",
                &subject,
                format!("admission deadlock: only {resolved} of {admitted} tickets resolved"),
                vec![],
            );
        }
        if t.wait().is_none() {
            return Check::fail(
                "serve/admission",
                &subject,
                "ticket abandoned while the service was alive",
                vec![],
            );
        }
    }
    let report = service.drain();
    if queue_full == 0 {
        return Check::fail(
            "serve/admission",
            &subject,
            format!("queue-full path never exercised ({admitted} admitted, 0 rejections)"),
            vec![],
        );
    }
    Check::pass(
        "serve/admission",
        &subject,
        format!(
            "{admitted} admitted and resolved, {queue_full} queue-full + {overloaded} \
             overloaded rejections, no deadlock"
        ),
    )
    .with_metric("admitted", admitted)
    .with_metric("queue_full_rejections", queue_full)
    .with_metric("overloaded_rejections", overloaded)
    .with_metric("bank_conflicts", report.stats.bank_conflicts)
}

/// Drain-during-inflight check: drain with a full queue and operations
/// mid-flight; every admitted request must complete.
fn drain_inflight_check(seed: u64) -> Check {
    let cfg = CfmConfig::new(4, 1, WORD_WIDTH).expect("valid shape");
    let banks = cfg.banks();
    let subject = format!("seed={seed}");
    let service = Service::start(
        ServiceConfig::new(cfg, OFFSETS)
            .with_tenant(TenantSpec::new("burst").queue_capacity(QUEUE_CAPACITY)),
    )
    .expect("valid config");

    let mut traffic = TenantTraffic::new(
        TenantProfile::Scan {
            stride: 3,
            write_fraction: 0.5,
        },
        OFFSETS,
        banks,
        seed,
    );
    let mut tickets = Vec::new();
    for _ in 0..QUEUE_CAPACITY {
        let op = traffic.take_ops(1).pop().expect("infinite stream");
        match service.submit(0, op) {
            Ok(t) => tickets.push(t),
            Err(Reject::QueueFull { .. }) => break,
            Err(other) => {
                return Check::fail(
                    "serve/drain-inflight",
                    &subject,
                    format!("unexpected rejection: {other}"),
                    vec![],
                )
            }
        }
    }
    let admitted = tickets.len() as u64;
    // Drain immediately: the queue is still full and lanes are busy.
    let report = service.drain();
    let unresolved = tickets.into_iter().filter(|t| !t.is_ready()).count();
    let resolved_none = report.metrics.completed() != admitted;
    if unresolved > 0 || resolved_none {
        return Check::fail(
            "serve/drain-inflight",
            &subject,
            format!(
                "drain abandoned work: {unresolved} unresolved tickets, {} of {admitted} \
                 completed",
                report.metrics.completed()
            ),
            vec![],
        );
    }
    Check::pass(
        "serve/drain-inflight",
        &subject,
        format!(
            "drain completed all {admitted} admitted ops mid-flight ({} slots)",
            report.cycles
        ),
    )
    .with_metric("admitted", admitted)
    .with_metric("bank_conflicts", report.stats.bank_conflicts)
}

/// Processors of the `serve/qos-bound` machine.
const QOS_PROCESSORS: usize = 4;
/// Slots each `serve/qos-bound` twin run steps.
const QOS_SLOTS: u64 = 4_000;

/// What the QoS property found for the probe on one twin run.
#[derive(Debug, Default)]
struct QosOutcome {
    /// The machine shape and seed.
    subject: String,
    /// The closed-form bound on a probe request's queueing, `β − 1`.
    bound: u64,
    /// Probe requests answered.
    probes: u64,
    /// Probe requests that broke the exact property or the closed form.
    violations: u64,
    /// The longest a probe request waited, admission to issue, in slots.
    max_queued: u64,
    /// Probe requests every operation in flight at whose admission
    /// completed without a restart: the closed form applies to them.
    closed_form: u64,
    /// The first violation, described.
    first: Option<String>,
    bank_conflicts: u64,
}

/// Run the adversarial mix on the slot-clock twin for `seed`, the probe
/// latency-critical or (for the self-test) best-effort, and check every
/// probe request against the exact property and, where it applies, the
/// closed form (`docs/service.md` §6).
fn qos_run(seed: u64, probe_critical: bool) -> QosOutcome {
    // The seed picks the shape, so a replay with the one seed reruns it.
    let c = 1 + (seed % 2) as u32;
    let cfg = CfmConfig::new(QOS_PROCESSORS, c, WORD_WIDTH).expect("valid QoS shape");
    let beta = cfg.block_access_time();
    let mut config = ServiceConfig::new(cfg, OFFSETS);
    let mut clients = Vec::new();
    let mut probe = 0;
    for (t, tenant) in adversarial_mix(OFFSETS).into_iter().enumerate() {
        let mut spec = TenantSpec::new(tenant.name).queue_capacity(QUEUE_CAPACITY);
        // The probe keeps one request outstanding; the neighbours keep
        // their queues full.
        let window = if tenant.critical {
            probe = t;
            if probe_critical {
                spec = spec.criticality(Criticality::LatencyCritical);
            }
            1
        } else {
            usize::MAX
        };
        config = config.with_tenant(spec);
        let mut traffic =
            TenantTraffic::new(tenant.profile, OFFSETS, cfg.banks(), seed * 10 + t as u64);
        clients.push((
            window,
            std::iter::from_fn(move || traffic.take_ops(1).pop()),
        ));
    }
    let report = twin::run(config, clients, QOS_SLOTS).expect("valid adversarial roster");

    let mut o = QosOutcome {
        subject: format!("n={QOS_PROCESSORS} c={c} beta={beta} seed={seed}"),
        bound: beta - 1,
        bank_conflicts: report.stats.bank_conflicts,
        ..QosOutcome::default()
    };
    let idle = |s: u64| report.idle_lanes[s as usize];
    for &(tenant, admitted, ref done) in &report.completions {
        if tenant != probe {
            continue;
        }
        o.probes += 1;
        let queued = done.issued_at - admitted;
        o.max_queued = o.max_queued.max(queued);
        // The pass that issued the probe had an idle processor; no
        // earlier pass from its admission on may have had one.
        let mut broken = (admitted..done.issued_at).find(|&s| idle(s) > 0).map(|s| {
            format!(
                "probe admitted at slot {admitted} issued at {} but a processor was idle at {s}",
                done.issued_at
            )
        });
        // The operations holding a processor when the probe was admitted:
        // issued before its admission pass, completed at or after it.
        let held: Vec<_> = report
            .completions
            .iter()
            .filter(|(_, _, e)| e.issued_at < admitted && admitted <= e.completed_at)
            .collect();
        if held.len() == QOS_PROCESSORS - idle(admitted)
            && held.iter().all(|(_, _, e)| e.restarts == 0)
        {
            o.closed_form += 1;
            if queued > o.bound && broken.is_none() {
                broken = Some(format!(
                    "probe admitted at slot {admitted} queued {queued} slots behind \
                     restart-free operations (bound {})",
                    o.bound
                ));
            }
        }
        if let Some(what) = broken {
            o.violations += 1;
            o.first.get_or_insert(what);
        }
    }
    o
}

/// QoS bound: the latency-critical probe of the adversarial mix, on the
/// slot-clock twin, is issued on the first pass with an idle processor
/// and, behind restart-free operations, within `β − 1` slots.
fn qos_bound(seed: u64) -> Check {
    let o = qos_run(seed, true);
    if o.violations == 0 && o.closed_form > 0 && o.bank_conflicts == 0 {
        Check::pass(
            "serve/qos-bound",
            &o.subject,
            format!(
                "{} probe requests each issued on the first pass with an idle processor; \
                 {} behind restart-free operations, all within {} slots (max queued {})",
                o.probes, o.closed_form, o.bound, o.max_queued
            ),
        )
    } else {
        Check::fail(
            "serve/qos-bound",
            &o.subject,
            format!(
                "{} of {} probe requests broke the bound ({} under the closed form, \
                 bank_conflicts={})",
                o.violations, o.probes, o.closed_form, o.bank_conflicts
            ),
            vec![
                format!("replay: cfm-verify serve --seeds {seed}"),
                o.first
                    .clone()
                    .unwrap_or_else(|| "no probe request fell under the closed form".into()),
            ],
        )
    }
    .with_metric("probes", o.probes)
    .with_metric("violations", o.violations)
    .with_metric("max_queued_slots", o.max_queued)
    .with_metric("bound_slots", o.bound)
    .with_metric("closed_form_probes", o.closed_form)
    .with_metric("bank_conflicts", o.bank_conflicts)
}

/// The seeded self-tests: each detector must catch a planted violation.
fn self_tests(seed: u64) -> Vec<Check> {
    let mut checks = Vec::new();

    // A rigged monopoly allocation (meek gets nothing in a healthy-sized
    // window) must violate the fairness bound the soak asserts.
    let window = 4_000u64;
    let rigged_meek = 0i64;
    checks.push(if rigged_meek < fairness_bound(window, 4) {
        Check::pass(
            "self-test/serve-fairness",
            format!("window={window} meek=0"),
            format!(
                "monopoly allocation violates the bound ({} > 0): detector non-vacuous",
                fairness_bound(window, 4)
            ),
        )
    } else {
        Check::fail(
            "self-test/serve-fairness",
            format!("window={window} meek=0"),
            "fairness bound accepts a total monopoly — the check is vacuous",
            vec![format!("bound={}", fairness_bound(window, 4))],
        )
    });

    // A one-slot queue must reject an un-reaped flood with QueueFull.
    let cfg = CfmConfig::new(4, 1, WORD_WIDTH).expect("valid shape");
    let service = Service::start(
        ServiceConfig::new(cfg, OFFSETS)
            .with_tenant(TenantSpec::new("tiny").queue_capacity(1))
            .max_queued(1),
    )
    .expect("valid config");
    let mut rejected = false;
    let mut tickets = Vec::new();
    for offset in 0..64 {
        match service.submit(0, cfm_core::op::Operation::read(offset % OFFSETS)) {
            Ok(t) => tickets.push(t),
            Err(Reject::QueueFull { capacity: 1, .. }) | Err(Reject::Overloaded { .. }) => {
                rejected = true;
            }
            Err(_) => {}
        }
    }
    drop(service);
    checks.push(if rejected {
        Check::pass(
            "self-test/serve-reject",
            "capacity=1",
            "one-slot queue produced typed backpressure under flood",
        )
    } else {
        Check::fail(
            "self-test/serve-reject",
            "capacity=1",
            "no rejection from a one-slot queue — admission control is vacuous",
            vec![],
        )
    });

    // Dropping a service (not draining it) must close, not strand, its
    // waiters: every ticket resolves (completed or abandoned).
    let stranded = tickets.into_iter().filter(|t| !t.is_ready()).count() as u64;
    checks.push(if stranded == 0 {
        Check::pass(
            "self-test/serve-shutdown",
            "drop-without-drain",
            "all tickets resolved after drop: closed or completed, none stranded",
        )
    } else {
        Check::fail(
            "self-test/serve-shutdown",
            "drop-without-drain",
            format!("{stranded} tickets stranded after service drop"),
            vec![],
        )
    });

    // Demoting the probe to best-effort on the same seed must break the
    // exact property: the idle processor goes to a neighbour.
    let inverted = qos_run(seed, false);
    checks.push(
        if inverted.violations > 0 {
            Check::pass(
                "self-test/serve-qos-inversion",
                &inverted.subject,
                format!(
                    "a best-effort probe broke the bound on {} of {} requests: detector \
                     non-vacuous",
                    inverted.violations, inverted.probes
                ),
            )
        } else {
            Check::fail(
                "self-test/serve-qos-inversion",
                &inverted.subject,
                "a best-effort probe met the latency-critical bound — the check is vacuous",
                vec![format!("replay: cfm-verify serve --seeds {seed}")],
            )
        }
        .with_metric("violations", inverted.violations),
    );

    checks
}

/// Run the serve soak suite.
pub fn verify(spec: &ServeSpec, self_test: bool) -> Vec<Check> {
    let mut checks = Vec::new();
    for &seed in &spec.seeds {
        checks.extend(soak(spec, seed));
    }
    for &seed in &spec.seeds {
        checks.push(qos_bound(seed));
    }
    let first = spec.seeds.first().copied().unwrap_or(1);
    checks.push(admission_check(first));
    checks.push(drain_inflight_check(first));
    if self_test {
        checks.extend(self_tests(first));
    }
    checks
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::Status;

    #[test]
    fn fairness_bound_is_proportional_minus_slack() {
        // 9000-completion window, weights 8:1 → share 1000, slack 20.
        assert_eq!(fairness_bound(9_000, 4), 1000 - 20);
        // Tiny windows give a vacuous (negative) bound rather than a
        // false positive.
        assert!(fairness_bound(10, 4) < 0);
    }

    #[test]
    fn self_tests_all_pass() {
        for check in self_tests(5) {
            assert_eq!(
                check.status,
                Status::Pass,
                "{}: {}",
                check.subject,
                check.detail
            );
        }
    }

    /// A soak's shape follows its seed, not the seed's place in
    /// `--seeds`, so a printed seed replays the soak it names.
    #[test]
    fn a_soak_seed_picks_its_own_shape() {
        let subject = |seeds: Vec<u64>| {
            let spec = ServeSpec {
                seeds,
                ops_per_tenant: 200,
            };
            verify(&spec, false)
                .into_iter()
                .filter(|check| check.name == "serve/fairness" && check.subject.ends_with("seed=3"))
                .map(|check| check.subject)
                .collect::<Vec<_>>()
        };
        let alone = subject(vec![3]);
        assert_eq!(alone, ["n=4 c=1 seed=3"]);
        assert_eq!(subject(vec![1, 2, 3]), alone);
    }

    #[test]
    fn micro_soak_passes_end_to_end() {
        // A deliberately tiny soak so `cargo test` stays fast; the CI
        // gate runs the full default spec in release mode.
        let spec = ServeSpec {
            seeds: vec![5],
            ops_per_tenant: 400,
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
