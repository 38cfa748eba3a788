//! `cfm-verify serve` — the multi-tenant service's contract.
//!
//! The static sections prove the schedule conflict-free and the trace
//! layer re-derives it from healthy executions; this section asserts the
//! *service-level* contract of `cfm-serve` under adversarial tenant
//! mixes. The conflict-freedom, fairness and QoS checks run on the
//! slot-clock twin ([`cfm_serve::twin`]), so they are exact, start no
//! client thread, and a failure prints its replay,
//! `cfm-verify serve --seeds <seed>`:
//!
//! * **conflict-freedom** — a weight-8 hog sending pure hot-spot traffic
//!   (every operation on one block) beside a weight-1 meek tenant
//!   sending uniform traffic, both with their queues kept full, on a
//!   machine shape the seed picks. `bank_conflicts` must stay 0, every
//!   operation offered must be answered once or refused, and the run
//!   must give the same report on both engines;
//! * **fairness** — on the same run, in every pass-aligned window while
//!   both tenants are backlogged, the meek tenant's issues must be at
//!   least `⌊W·w_meek/Σw⌋ − w_max` of the window's `W`, the deficit
//!   round-robin bound over dequeues (`docs/service.md` §3);
//! * **qos-bound** — the adversarial mix runs on a 4-processor machine:
//!   a depth-1 latency-critical probe beside hot-spot, scan and bursty
//!   best-effort neighbours whose queues stay full. Every probe request
//!   must be issued on the first pass from its admission on that has an
//!   idle processor, and, where no operation in flight at its admission
//!   restarts, within `β − 1` slots of its admission (`docs/service.md`
//!   §6 derives the constant).
//!
//! Two checks run on the threaded service:
//!
//! * **admission** — flooding a bounded queue without reaping must
//!   produce typed `QueueFull` rejections (the backpressure path is
//!   non-vacuous) and every admitted ticket must still resolve — no
//!   admission deadlock;
//! * **drain-inflight** — draining with operations still in flight
//!   completes every admitted request before the loop exits.
//!
//! The `self-test/serve-*` checks prove the detectors non-vacuous: on
//! the same seed, promoting the hog to latency-critical must break the
//! fairness bound, an answer dropped from the report must break the
//! accounting, and demoting the QoS probe to best-effort must break its
//! property; a one-slot queue must reject, and a dropped (not drained)
//! service must close — not strand — its waiters.

use std::time::{Duration, Instant};

use cfm_core::config::{CfmConfig, Engine};
use cfm_serve::twin::{self, TwinReport};
use cfm_serve::{Criticality, Reject, Service, ServiceConfig, TenantSpec};
use cfm_workloads::tenants::{adversarial_mix, TenantProfile, TenantTraffic};

use crate::report::Check;

/// Which service checks to run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeSpec {
    /// Traffic seeds; each runs the hog/meek roster once per engine on a
    /// machine shape the seed picks, and the QoS mix once, so a seed
    /// alone replays its checks.
    pub seeds: Vec<u64>,
    /// Slots the hog/meek roster is served before its run drains.
    pub slots: u64,
}

impl Default for ServeSpec {
    /// Two seeds (shapes n=4 c=2 and n=4 c=1), each run long enough to
    /// answer over 10,000 operations.
    fn default() -> Self {
        ServeSpec {
            seeds: vec![11, 12],
            slots: 45_000,
        }
    }
}

/// `(n, c)` machine shapes a soak's seed picks from.
const SHAPES: [(usize, u32); 3] = [(4, 1), (8, 1), (4, 2)];

const WORD_WIDTH: u32 = 16;
const OFFSETS: usize = 32;
const QUEUE_CAPACITY: usize = 64;

/// Hog:meek scheduling weights for the fairness soak.
const W_HOG: u32 = 8;
const W_MEEK: u32 = 1;

/// The soak's machine shape for `seed`.
fn soak_shape(seed: u64) -> (usize, u32) {
    SHAPES[(seed % SHAPES.len() as u64) as usize]
}

/// A twin client keeping up to `window` requests outstanding from seeded
/// `profile` traffic over `offsets` blocks of `banks` words.
pub(crate) fn client(
    profile: TenantProfile,
    shape: (usize, usize),
    seed: u64,
    window: usize,
) -> TwinClient {
    let mut traffic = TenantTraffic::new(profile, shape.0, shape.1, seed);
    let ops = std::iter::from_fn(move || traffic.take_ops(1).pop());
    (window, Box::new(ops))
}

/// A twin client: its window and its operations.
pub(crate) type TwinClient = (usize, Box<dyn Iterator<Item = cfm_core::op::Operation>>);

/// Serve the hog/meek roster on the twin for `seed` on `engine`, the hog
/// best-effort or (for the self-test) latency-critical, both tenants
/// keeping their queues full.
fn hog_meek(seed: u64, slots: u64, engine: Engine, hog: Criticality) -> TwinReport {
    let (n, c) = soak_shape(seed);
    let cfg = CfmConfig::new(n, c, WORD_WIDTH).expect("valid soak shape");
    let tenant = |name, weight| {
        TenantSpec::new(name)
            .weight(weight)
            .queue_capacity(QUEUE_CAPACITY)
    };
    let config = ServiceConfig::new(cfg.with_engine(engine), OFFSETS)
        .with_tenant(tenant("hog", W_HOG).criticality(hog))
        .with_tenant(tenant("meek", W_MEEK));
    let hot = TenantProfile::HotSpot {
        hot_offset: 0,
        hot_fraction: 1.0,
        write_fraction: 0.5,
    };
    let uniform = TenantProfile::Uniform {
        write_fraction: 0.3,
    };
    let clients = vec![
        client(hot, (OFFSETS, cfg.banks()), seed * 10, usize::MAX),
        client(uniform, (OFFSETS, cfg.banks()), seed * 10 + 1, usize::MAX),
    ];
    twin::run(config, clients, slots, None).expect("valid soak roster")
}

/// Each tenant whose offered operations are not all answered or
/// refused, described.
fn unaccounted(report: &TwinReport) -> Vec<String> {
    (0..report.offered.len())
        .filter_map(|t| {
            let answered = report.completions.iter().filter(|c| c.0 == t).count() as u64;
            let refused = report.refused.iter().filter(|r| r.0 == t).count() as u64;
            let offered = report.offered[t];
            (answered + refused != offered).then(|| {
                format!("tenant {t}: {offered} offered, {answered} answered, {refused} refused")
            })
        })
        .collect()
}

/// What the windowed DRR bound found on one run.
#[derive(Debug, Default)]
struct Fairness {
    /// Windows checked, and window ends at which one fell under the bound.
    windows: u64,
    violations: u64,
    /// The least of the meek tenant's issues minus the bound, floored,
    /// and the first violating window.
    min_margin: i64,
    first: Option<String>,
}

/// Check the DRR bound (`docs/service.md` §3) on the hog/meek `report`:
/// in every window of passes `[s1, s2)` in each of which both tenants'
/// rings still held work after the dequeue, the meek tenant's `m` issues
/// of the window's `W` satisfy `Σw·m ≥ w_meek·W − Σw·w_max`, which
/// implies `m ≥ ⌊W·w_meek/Σw⌋ − w_max`. With `d = Σw·meek − w_meek·all`
/// over the issues before each pass boundary, a window's slack is
/// `d₂ − d₁`, least for the start with the largest `d₁`, so one running
/// maximum per backlogged run checks every window.
fn fairness(report: &TwinReport) -> Fairness {
    let (sum, w) = (i64::from(W_HOG + W_MEEK), i64::from(W_MEEK));
    let slots = report.idle_lanes.len();
    // Per slot, each tenant's issues, and (as a difference array) its
    // operations admitted but not issued after that pass's dequeue.
    let mut issued = vec![[0i64; 2]; slots];
    let mut waiting = vec![[0i64; 2]; slots + 1];
    for &(t, admitted, ref done) in &report.completions {
        issued[done.issued_at as usize][t] += 1;
        waiting[admitted as usize][t] += 1;
        waiting[done.issued_at as usize][t] -= 1;
    }
    let mut f = Fairness {
        min_margin: i64::MAX,
        ..Fairness::default()
    };
    let (mut all, mut meek, mut backlog, mut starts) = (0, 0, [0i64; 2], 0);
    // The start with the largest `d` in the current backlogged run.
    let mut peak: Option<(i64, usize)> = None;
    for s in 0..=slots {
        let d = sum * meek - w * all;
        if let Some((d1, s1)) = peak {
            f.windows += starts;
            let margin = (d - d1).div_euclid(sum) + i64::from(W_HOG);
            f.min_margin = f.min_margin.min(margin);
            if d - d1 < -sum * i64::from(W_HOG) {
                f.violations += 1;
                f.first
                    .get_or_insert_with(|| format!("passes {s1}..{s}: margin {margin}"));
            }
        }
        if s == slots {
            break;
        }
        backlog[0] += waiting[s][0];
        backlog[1] += waiting[s][1];
        if backlog[0] > 0 && backlog[1] > 0 {
            peak = peak.filter(|&(d1, _)| d1 >= d).or(Some((d, s)));
            starts += 1;
        } else {
            (peak, starts) = (None, 0);
        }
        all += issued[s][0] + issued[s][1];
        meek += issued[s][1];
    }
    f
}

/// One seeded soak: the hog/meek roster on both engines, checked for
/// conflict-freedom, accounting, engine equality and the DRR bound.
fn soak(spec: &ServeSpec, seed: u64) -> Vec<Check> {
    let (n, c) = soak_shape(seed);
    let subject = format!("n={n} c={c} seed={seed}");
    let replay = format!("replay: cfm-verify serve --seeds {seed}");
    let best_effort = Criticality::BestEffort;
    let report = hog_meek(seed, spec.slots, Engine::Sequential, best_effort);
    let parallel = Engine::Parallel { threads: 1 };
    let identical = report == hog_meek(seed, spec.slots, parallel, best_effort);
    let ops = report.completions.len() as u64;
    let conflicts = report.stats.bank_conflicts;
    let mut witnesses = unaccounted(&report);
    if !identical {
        witnesses.push("the sequential and parallel engines' reports differ".into());
    }
    let conflict_free = if conflicts == 0 && witnesses.is_empty() {
        Check::pass(
            "serve/conflict-freedom",
            &subject,
            format!(
                "{ops} ops (one pure hot-spot tenant) in {} slots, 0 bank conflicts; every \
                 offer answered or refused; same report on both engines",
                report.stats.cycles
            ),
        )
    } else {
        witnesses.push(replay.clone());
        let detail = format!("bank_conflicts={conflicts} ops={ops}");
        Check::fail("serve/conflict-freedom", &subject, detail, witnesses)
    }
    .with_metric("ops", ops)
    .with_metric("refused", report.refused.len() as u64)
    .with_metric("bank_conflicts", conflicts)
    .with_metric("cycles", report.stats.cycles)
    .with_metric("engines_identical", u64::from(identical));

    let f = fairness(&report);
    let fair = if f.violations == 0 && f.windows > 0 {
        Check::pass(
            "serve/fairness",
            &subject,
            format!(
                "in all {} backlogged windows the meek tenant issued at least \
                 W/9 - 8 of W under a weight-8 hot-spot hog (least margin {})",
                f.windows, f.min_margin
            ),
        )
        .with_metric("min_margin", f.min_margin as u64)
    } else {
        let first = f
            .first
            .unwrap_or_else(|| "no window had both tenants backlogged".into());
        let detail = format!(
            "the meek tenant fell under the DRR bound at {} window ends",
            f.violations
        );
        Check::fail("serve/fairness", &subject, detail, vec![first, replay])
    }
    .with_metric("windows", f.windows)
    .with_metric("violations", f.violations);

    vec![conflict_free, fair]
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
            .with_tenant(TenantSpec::new("flood").queue_capacity(QUEUE_CAPACITY)),
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
    // Submit far more than the queue holds, never reaping: the bound
    // must push back. (The loop is concurrently draining the queue, so
    // admissions and rejections interleave.)
    for _ in 0..(QUEUE_CAPACITY * 50) {
        let op = traffic.take_ops(1).pop().expect("infinite stream");
        match service.submit(0, op) {
            Ok(t) => tickets.push(t),
            Err(Reject::QueueFull { .. }) => queue_full += 1,
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
            "{admitted} admitted and resolved, {queue_full} queue-full rejections, no deadlock"
        ),
    )
    .with_metric("admitted", admitted)
    .with_metric("queue_full_rejections", queue_full)
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
        clients.push(client(
            tenant.profile,
            (OFFSETS, cfg.banks()),
            seed * 10 + t as u64,
            window,
        ));
    }
    let report = twin::run(config, clients, QOS_SLOTS, None).expect("valid adversarial roster");

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
fn self_tests(spec: &ServeSpec, seed: u64) -> Vec<Check> {
    let mut checks = Vec::new();
    let (n, c) = soak_shape(seed);
    let subject = format!("n={n} c={c} seed={seed}");
    let replay = format!("replay: cfm-verify serve --seeds {seed}");

    // On the same seed, promoting the hog to latency-critical must break
    // the fairness bound (every idle lane goes to the hog), and an answer
    // dropped from the report must break the accounting.
    let verdict = |name: &str, caught: bool, what: String| {
        if caught {
            Check::pass(name, &subject, format!("{what}: detector non-vacuous"))
        } else {
            let detail = format!("{what} — the check is vacuous");
            Check::fail(name, &subject, detail, vec![replay.clone()])
        }
    };
    let critical = Criticality::LatencyCritical;
    let f = fairness(&hog_meek(seed, spec.slots, Engine::Sequential, critical));
    let what = format!(
        "a latency-critical hog broke the bound at {} window ends",
        f.violations
    );
    checks.push(verdict("self-test/serve-fairness", f.violations > 0, what));
    let mut report = hog_meek(seed, 1_000, Engine::Sequential, Criticality::BestEffort);
    report.completions.pop();
    let lost = unaccounted(&report);
    let what = format!("a dropped answer left {lost:?}");
    checks.push(verdict(
        "self-test/serve-lost-answer",
        !lost.is_empty(),
        what,
    ));

    // A one-slot queue must reject an un-reaped flood with QueueFull.
    let cfg = CfmConfig::new(4, 1, WORD_WIDTH).expect("valid shape");
    let service = Service::start(
        ServiceConfig::new(cfg, OFFSETS).with_tenant(TenantSpec::new("tiny").queue_capacity(1)),
    )
    .expect("valid config");
    let mut rejected = false;
    let mut tickets = Vec::new();
    for offset in 0..64 {
        match service.submit(0, cfm_core::op::Operation::read(offset % OFFSETS)) {
            Ok(t) => tickets.push(t),
            Err(Reject::QueueFull { capacity: 1, .. }) => rejected = true,
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
                vec![replay],
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
        checks.extend(self_tests(spec, first));
    }
    checks
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::Status;

    /// A short spec so `cargo test` stays fast; the CI gate runs the
    /// default spec in release mode.
    fn micro(seeds: Vec<u64>) -> ServeSpec {
        ServeSpec { seeds, slots: 600 }
    }

    #[test]
    fn self_tests_all_pass() {
        for check in self_tests(&micro(vec![5]), 5) {
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
        let fairness = |seeds: Vec<u64>| {
            verify(&micro(seeds), false)
                .into_iter()
                .filter(|check| check.name == "serve/fairness" && check.subject.ends_with("seed=3"))
                .map(|check| (check.subject, check.detail))
                .collect::<Vec<_>>()
        };
        let alone = fairness(vec![3]);
        assert_eq!(alone[0].0, "n=4 c=1 seed=3");
        assert_eq!(fairness(vec![1, 2, 3]), alone);
    }

    #[test]
    fn micro_soak_passes_end_to_end() {
        for check in verify(&micro(vec![5]), false) {
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
