//! `cfm-verify restore` — checkpoint/restore and live-migration soak.
//!
//! The chaos layer proves the degraded-mode contract *within* one
//! machine's lifetime; this module proves it **across** lifetimes: a
//! running machine under an active seeded [`FaultPlan`] is checkpointed
//! into the versioned byte format, restored (same shape, and into a
//! strictly larger shape), live-migrated at the service layer, and the
//! continuation is held to the contract of `docs/checkpoint-restore.md`:
//!
//! * **byte-identical** — a mid-flight checkpoint (operations in the
//!   sweep, ATT entries live, transient retries pending) restored into
//!   the same shape continues byte-identically: the completion stream,
//!   statistics, cycle counter, and a final re-checkpoint are all equal
//!   to the uninterrupted run, and the snapshot codec round-trips to
//!   the same bytes;
//! * **cross-shape** — after quiescing ([`CfmMachine::quiesce`]), the
//!   survivor memory image restores onto a machine with twice the
//!   processors and banks; every unmasked word survives verbatim, words
//!   of masked banks stay absent (zero, not torn), and the grown
//!   machine serves a fresh full-width workload;
//! * **race-freedom** — the target machine's post-restore trace is
//!   race-free under the happens-before detector (the restore map
//!   introduced no aliasing the schedule could trip over);
//! * **migration** — on the service's slot-clock twin
//!   ([`cfm_serve::twin`]), a live migration moves one tenant through
//!   the full byte codec twice: onto twice the banks, and onto the same
//!   shape with two spare banks. The migration starts while an
//!   untouched steady tenant is backlogged; that tenant must never be
//!   refused, no pass outside the swap window may leave a processor
//!   idle while its queue holds work, the swap must drain within the
//!   `Migrating` retry hint the quiesced tenant was given, and a write
//!   committed before the boundary must read back whole (zero-extended,
//!   never torn) after it. The runs are exact and start no client
//!   thread; a failure prints its replay, `cfm-verify restore --seeds
//!   <seed>`.
//!
//! The `self-test/restore-*` checks prove the detectors non-vacuous: a
//! truncated snapshot, a stale format version, and an aliased restore
//! map must each be refused by exactly the intended typed
//! [`SnapshotError`] while a pristine snapshot still round-trips, and
//! adding the steady tenant to the migration set must break its
//! never-refused property.

use std::collections::VecDeque;

use cfm_core::config::CfmConfig;
use cfm_core::fault::FaultPlan;
use cfm_core::machine::CfmMachine;
use cfm_core::op::OpKind;
use cfm_core::op::Operation;
use cfm_core::program::{ScriptDriver, Scripted};
use cfm_core::snapshot::{MachineSnapshot, SnapshotError};
use cfm_core::Word;
use cfm_serve::twin::{self, Migration, TwinReport};
use cfm_serve::{MigrationReport, Reject, ServiceConfig, TenantId, TenantSpec};
use cfm_workloads::tenants::TenantProfile;

use crate::chaos::{plan_params, shape_for, soak_scripts};
use crate::report::Check;
use crate::serve::{client, TwinClient};
use crate::trace::hb;

/// Cycle budget for every restore drive loop.
const BUDGET: u64 = 400_000;

/// Blocks every soaked machine exposes.
const OFFSETS: usize = 16;

/// The slot horizon faults are generated within.
const HORIZON: u64 = 120;

/// Write/read rounds per processor in the soak workload.
const ROUNDS: u64 = 2;

/// Steps into the workload at which the mid-flight checkpoint is taken —
/// deep enough that operations are mid-sweep and retries may be pending.
const MIDPOINT_STEPS: u64 = 12;

/// Which checkpoint/restore soaks to run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RestoreSpec {
    /// Fault-plan seeds; each soaks one machine shape (the chaos suite's
    /// shapes, rotating per seed index and covering all four with the
    /// default seed list). The first also seeds the migration runs'
    /// traffic.
    pub seeds: Vec<u64>,
}

impl Default for RestoreSpec {
    /// Four seeded soaks, one per machine shape.
    fn default() -> Self {
        RestoreSpec {
            seeds: vec![0xD1CE, 0xFACE, 0xB0BA, 0xCAFE],
        }
    }
}

/// Drive `m` with `driver` until its scripts are spent and the machine
/// idles.
fn drain(driver: &mut ScriptDriver, m: &mut CfmMachine) -> Vec<Scripted> {
    driver
        .drain(m, BUDGET)
        .expect("restore workload did not drain within the budget")
}

/// Mid-flight checkpoint: run one machine under an active fault plan to
/// a midpoint, checkpoint through the full byte codec, restore into the
/// identical shape, and prove the two continuations byte-identical.
fn byte_identical_check(seed: u64, (n, c, spares): (usize, u32, usize)) -> Check {
    let cfg = CfmConfig::new(n, c, 16)
        .expect("valid soak shape")
        .with_spares(spares)
        .expect("spare pool fits");
    let banks = cfg.banks();
    let plan = FaultPlan::generate(seed, &plan_params(n, c, HORIZON));
    let subject = format!("restore: seed={seed:#x} n={n} c={c} b={banks} spares={spares}");

    let mut m = CfmMachine::builder(cfg)
        .offsets(OFFSETS)
        .fault_plan(plan)
        .build();
    let mut driver = ScriptDriver::new(soak_scripts(n, banks, ROUNDS));
    let mut prefix = Vec::new();
    for _ in 0..MIDPOINT_STEPS {
        driver.pass(&mut m, &mut prefix);
        m.step();
    }

    let snap = m.checkpoint();
    let bytes = snap.to_bytes();
    let decoded = match MachineSnapshot::from_bytes(&bytes) {
        Ok(d) => d,
        Err(e) => {
            return Check::fail(
                "restore/byte-identical",
                &subject,
                format!("snapshot failed to round-trip its own bytes: {e}"),
                vec![],
            )
        }
    };
    if decoded != snap || decoded.to_bytes() != bytes {
        return Check::fail(
            "restore/byte-identical",
            &subject,
            "decode(to_bytes(snap)) is not the identity — the codec is not byte-stable",
            vec![],
        );
    }
    let mut restored = match decoded.restore() {
        Ok(r) => r,
        Err(e) => {
            return Check::fail(
                "restore/byte-identical",
                &subject,
                format!("same-shape restore refused mid-flight state: {e}"),
                vec![],
            )
        }
    };

    // Continue the original and the restored twin with identical
    // remaining scripts; every observable must match.
    let done_a = drain(&mut driver.clone(), &mut m);
    let done_b = drain(&mut driver, &mut restored);
    let mut diverged = Vec::new();
    if done_a != done_b {
        diverged.push(format!(
            "completion streams diverged ({} vs {} completions)",
            done_a.len(),
            done_b.len()
        ));
    }
    if m.stats() != restored.stats() {
        diverged.push("statistics diverged".into());
    }
    if m.cycle() != restored.cycle() {
        diverged.push(format!(
            "cycle counters diverged ({} vs {})",
            m.cycle(),
            restored.cycle()
        ));
    }
    if m.checkpoint().to_bytes() != restored.checkpoint().to_bytes() {
        diverged.push("final re-checkpoints are not byte-equal".into());
    }
    let stats = *m.stats();
    if diverged.is_empty() {
        Check::pass(
            "restore/byte-identical",
            &subject,
            format!(
                "mid-flight restore continued byte-identically: {} completions, {} fault(s), \
                 {}-byte snapshot",
                prefix.len() + done_a.len(),
                stats.faults_injected,
                bytes.len()
            ),
        )
        .with_metric("byte_identical", 1)
        .with_metric("snapshot_bytes", bytes.len() as u64)
        .with_metric("completions", (prefix.len() + done_a.len()) as u64)
        .with_metric("faults", stats.faults_injected)
    } else {
        Check::fail(
            "restore/byte-identical",
            &subject,
            "restored continuation diverged from the uninterrupted run",
            diverged,
        )
        .with_metric("byte_identical", 0)
    }
}

/// Quiesced cross-shape restore: run the faulted workload to completion,
/// drain the ATT windows, restore onto a machine with twice the
/// processors and banks, and prove memory durability plus race freedom
/// of the grown machine's own trace.
fn cross_shape_checks(seed: u64, (n, c, spares): (usize, u32, usize)) -> Vec<Check> {
    let cfg = CfmConfig::new(n, c, 16)
        .expect("valid soak shape")
        .with_spares(spares)
        .expect("spare pool fits");
    let banks = cfg.banks();
    let plan = FaultPlan::generate(seed ^ 0xC0DE, &plan_params(n, c, HORIZON));
    let subject = format!(
        "restore: seed={seed:#x} ({n},{c},{spares}) -> ({},{c},{spares})",
        2 * n
    );

    let mut m = CfmMachine::builder(cfg)
        .offsets(OFFSETS)
        .trace(true)
        .fault_plan(plan)
        .build();
    drain(
        &mut ScriptDriver::new(soak_scripts(n, banks, ROUNDS)),
        &mut m,
    );
    // Fire every late-scheduled fault before the boundary so the target
    // starts from settled degraded state.
    while m.cycle() < HORIZON + 40 {
        m.step();
    }
    let quiesce_budget = (2 * banks as u64 + u64::from(c)) * 4 + 64;
    if !m.quiesce(quiesce_budget) {
        return vec![Check::fail(
            "restore/cross-shape",
            &subject,
            format!("machine did not quiesce within {quiesce_budget} slots"),
            vec![],
        )];
    }

    let pre: Vec<Vec<Word>> = (0..OFFSETS).map(|o| m.peek_block(o).to_vec()).collect();
    let masked: Vec<bool> = (0..banks).map(|k| m.bank_map().is_masked(k)).collect();
    let stats_before = *m.stats();
    // Discard the pre-boundary events; the snapshot records that tracing
    // was on, so the restored target resumes with an empty trace.
    m.drain_trace();

    let target = CfmConfig::new(2 * n, c, 16)
        .expect("grown shape is valid")
        .with_spares(spares)
        .expect("spare pool fits");
    let bytes = m.checkpoint().to_bytes();
    let mut big = match MachineSnapshot::from_bytes(&bytes).and_then(|s| s.restore_into(target)) {
        Ok(b) => b,
        Err(e) => {
            return vec![Check::fail(
                "restore/cross-shape",
                &subject,
                format!("quiescent cross-shape restore refused: {e}"),
                vec![],
            )]
        }
    };
    let big_banks = big.config().banks();

    // Durability across the boundary: unmasked words verbatim, masked
    // words absent (zero), new banks zero.
    let mut lost = Vec::new();
    for (o, pre_block) in pre.iter().enumerate() {
        let post = big.peek_block(o);
        for k in 0..big_banks {
            let want = if k >= banks || masked[k] {
                0
            } else {
                pre_block[k]
            };
            if post[k] != want {
                lost.push(format!(
                    "block {o} word {k}: expected {want}, found {} after growth",
                    post[k]
                ));
            }
        }
    }
    if stats_before != *big.stats() {
        lost.push("statistics did not carry across the restore".into());
    }

    // The grown machine must serve a fresh full-width workload; its own
    // trace (resumed across the restore) feeds the race-freedom check.
    let fresh: Vec<VecDeque<Operation>> = (0..2 * n)
        .map(|p| {
            VecDeque::from([
                Operation::write(p % OFFSETS, vec![7_000 + p as Word; big_banks]),
                Operation::read(p % OFFSETS),
            ])
        })
        .collect();
    let done = drain(&mut ScriptDriver::new(fresh), &mut big);
    for (_, _, d) in &done {
        if d.torn {
            lost.push(format!(
                "post-restore read of block {} torn at cycle {}",
                d.offset, d.completed_at
            ));
        }
    }
    let events = big.take_trace().expect("tracing was enabled").into_events();

    let mut checks = Vec::new();
    checks.push(if lost.is_empty() {
        Check::pass(
            "restore/cross-shape",
            &subject,
            format!(
                "{OFFSETS} blocks durable across ({n},{c})->({},{c}) growth; grown machine \
                 served {} ops",
                2 * n,
                done.len()
            ),
        )
        .with_metric("cross_shape", 1)
        .with_metric("from_banks", banks as u64)
        .with_metric("to_banks", big_banks as u64)
        .with_metric("snapshot_bytes", bytes.len() as u64)
    } else {
        Check::fail(
            "restore/cross-shape",
            &subject,
            "a committed word was lost, resurrected, or torn across the shape change",
            lost,
        )
        .with_metric("cross_shape", 0)
    });

    let races = hb::find_races(&hb::analyze(&events));
    checks.push(if races.is_empty() {
        Check::pass(
            "restore/race-freedom",
            &subject,
            format!(
                "{} post-restore events race-free on the target",
                events.len()
            ),
        )
        .with_metric("events", events.len() as u64)
        .with_metric("races", 0)
    } else {
        let first = &races[0];
        Check::fail(
            "restore/race-freedom",
            &subject,
            first.summary.clone(),
            first.lines.clone(),
        )
        .with_metric("races", races.len() as u64)
    });
    checks
}

/// The migration runs' two tenants, the slot their migration is asked
/// for at, the slots they are served before the run drains, and the
/// block and word of the moving tenant's sentinel write.
const MOVING: TenantId = 0;
const STEADY: TenantId = 1;
const MIGRATE_AT: u64 = 600;
const MIGRATION_SLOTS: u64 = 1_500;
const SENTINEL: usize = 7;
const SENTINEL_WORD: Word = 41;

/// The machine every migration run starts on, and the two targets: twice
/// the banks, and the same shape with two spare banks provisioned ahead
/// of an expected fault.
fn migration_shapes() -> [CfmConfig; 3] {
    let source = CfmConfig::new(4, 1, 16).expect("valid shape");
    let grown = CfmConfig::new(8, 1, 16).expect("valid target");
    let spares = source.with_spares(2).expect("spare pool fits");
    [source, grown, spares]
}

/// Serve the two migration tenants on the twin and migrate the tenants
/// in `set` onto `target` at [`MIGRATE_AT`]. The moving tenant writes
/// its sentinel, then keeps its queue full of reads of it between
/// writes to other blocks (those queued at the swap are re-chunked; once
/// blocks grow, the rest are refused); the steady tenant keeps its queue
/// full of seeded uniform reads, so it stays backlogged and offers on
/// every pass.
fn migration_run(seed: u64, target: CfmConfig, set: &[TenantId]) -> TwinReport {
    let [source, ..] = migration_shapes();
    let banks = source.banks();
    let config = ServiceConfig::new(source, OFFSETS)
        .with_tenant(TenantSpec::new("moving").queue_capacity(64))
        .with_tenant(TenantSpec::new("steady").queue_capacity(64));
    let sentinel = Operation::write(SENTINEL, vec![SENTINEL_WORD; banks]);
    let moving = std::iter::once(sentinel).chain((1..).flat_map(move |i: Word| {
        let block = SENTINEL + 1 + i as usize % (OFFSETS - SENTINEL - 1);
        [
            Operation::write(block, vec![i; banks]),
            Operation::read(SENTINEL),
        ]
    }));
    let reads = TenantProfile::Uniform {
        write_fraction: 0.0,
    };
    let steady = client(reads, (OFFSETS, banks), seed, usize::MAX);
    let clients: Vec<TwinClient> = vec![(usize::MAX, Box::new(moving)), steady];
    let migration = Migration {
        at: MIGRATE_AT,
        tenants: set.to_vec(),
        target,
    };
    twin::run(config, clients, MIGRATION_SLOTS, Some(migration)).expect("valid migration roster")
}

/// The steady tenant's refusals for any reason but its own full queue.
fn steady_shed(report: &TwinReport) -> Vec<&(TenantId, u64, Reject)> {
    report
        .refused
        .iter()
        .filter(|(t, _, r)| *t == STEADY && !matches!(r, Reject::QueueFull { .. }))
        .collect()
}

/// Every way one twin migration run onto `target` broke the
/// zero-downtime contract (`docs/checkpoint-restore.md`), and the
/// `Migrating` hint the moving tenant was given.
fn migration_violations(report: &TwinReport, target: CfmConfig) -> (Vec<String>, Option<u64>) {
    let banks = migration_shapes()[0].banks();
    let Some((seen, Ok(moved))) = &report.migration else {
        return (
            vec![format!("migration outcome {:?}", report.migration)],
            None,
        );
    };
    let (seen, swapped) = (*seen, seen + moved.drained_slots);
    let mut violations = Vec::new();
    if (moved.from_banks, moved.to_banks) != (banks, target.banks()) {
        violations.push(format!(
            "swapped {} -> {} banks",
            moved.from_banks, moved.to_banks
        ));
    }
    // The steady tenant offers on every pass, the swap window's too; only
    // its own full queue may refuse it.
    if let Some((_, slot, reject)) = steady_shed(report).first() {
        violations.push(format!(
            "the steady tenant was refused at slot {slot}: {reject}"
        ));
    }

    // Per slot, the operations issued, and the steady tenant's admitted
    // but not issued after the dequeue: a pass that leaves a lane idle
    // while the latter is positive starves it.
    let slots = report.idle_lanes.len();
    let (mut issued, mut queued) = (vec![0usize; slots], vec![0i64; slots]);
    for &(t, admitted, ref done) in &report.completions {
        issued[done.issued_at as usize] += 1;
        if t == STEADY {
            queued[admitted as usize] += 1;
            queued[done.issued_at as usize] -= 1;
        }
    }
    let mut backlog = 0;
    for s in 0..slots {
        backlog += queued[s];
        let outside = !(seen..swapped).contains(&(s as u64));
        if s as u64 == seen && backlog == 0 {
            violations.push(format!(
                "the migration started at slot {seen} with the steady tenant idle"
            ));
        } else if outside && backlog > 0 && report.idle_lanes[s] > issued[s] {
            violations.push(format!(
                "slot {s}, outside the swap window [{seen}, {swapped}), left a processor idle \
                 while the steady tenant had work queued"
            ));
        }
    }

    let hint = report
        .refused
        .iter()
        .find_map(|(t, _, reject)| match reject {
            Reject::Migrating {
                retry_after_slots, ..
            } if *t == MOVING => Some(*retry_after_slots),
            _ => None,
        });
    if hint.is_none_or(|hint| moved.drained_slots > hint) {
        let drained = moved.drained_slots;
        violations.push(format!("the swap drained {drained} slots, hint {hint:?}"));
    }

    let ops = report.completions.iter().filter(|op| op.0 == MOVING);
    let moving = |kind| ops.clone().map(|op| &op.2).filter(move |c| c.kind == kind);
    if moving(OpKind::Write)
        .next()
        .is_none_or(|c| c.completed_at >= seen)
    {
        violations.push("the sentinel write did not commit before the boundary".into());
    }
    let mut after = moving(OpKind::Read)
        .filter(|c| c.issued_at >= swapped)
        .peekable();
    if after.peek().is_none() {
        violations.push("no read of the sentinel after the swap".into());
    }
    let whole = |data: &[Word]| {
        data.len() == target.banks()
            && data[..banks].iter().all(|&w| w == SENTINEL_WORD)
            && data[banks..].iter().all(|&w| w == 0)
    };
    if let Some(c) = after.find(|c| c.torn || !whole(c.data.as_deref().unwrap_or(&[]))) {
        violations.push(format!(
            "the sentinel read back as {:?} (torn={})",
            c.data, c.torn
        ));
    }
    if report.stats.bank_conflicts != 0 {
        violations.push(format!("{} bank conflicts", report.stats.bank_conflicts));
    }
    (violations, hint)
}

/// Live migration of the moving tenant onto `target` on the twin, held
/// to the zero-downtime contract.
fn migration_check(seed: u64, target: CfmConfig) -> Check {
    let shape = |c: CfmConfig| format!("({},{},{})", c.processors(), c.bank_cycle(), c.spares());
    let from = shape(migration_shapes()[0]);
    let subject = format!(
        "restore: migrate {from} -> {} seed={seed:#x}",
        shape(target)
    );
    let report = migration_run(seed, target, &[MOVING]);
    let (violations, hint) = migration_violations(&report, target);
    let moved = report.migration.as_ref().and_then(|(_, m)| m.as_ref().ok());
    let metric = |f: fn(&MigrationReport) -> u64| moved.map_or(0, f);
    let steady = report.completions.iter().filter(|c| c.0 == STEADY).count() as u64;
    let check = match moved {
        Some(moved) if violations.is_empty() => {
            let detail = format!(
                "{} queued ops replayed through a {}-byte snapshot, drained in {} slots (hint \
                 {}); the steady tenant was never shed or starved; the sentinel read back whole",
                moved.replayed,
                moved.snapshot_bytes,
                moved.drained_slots,
                hint.unwrap_or(0)
            );
            Check::pass("restore/migration", &subject, detail)
        }
        _ => {
            let replay = format!("replay: cfm-verify restore --seeds {seed}");
            let witnesses = violations.iter().take(8).cloned().chain([replay]).collect();
            let detail = "the live migration broke the zero-downtime contract";
            Check::fail("restore/migration", &subject, detail, witnesses)
        }
    };
    check
        .with_metric("violations", violations.len() as u64)
        .with_metric("drained_slots", metric(|m| m.drained_slots))
        .with_metric("hint_slots", hint.unwrap_or(0))
        .with_metric("snapshot_bytes", metric(|m| m.snapshot_bytes as u64))
        .with_metric("replayed", metric(|m| m.replayed as u64))
        .with_metric("steady_completions", steady)
        .with_metric("from_banks", metric(|m| m.from_banks as u64))
        .with_metric("to_banks", metric(|m| m.to_banks as u64))
}

/// Adding the steady tenant to the migration set must break its
/// never-refused property on the same seed.
fn migration_self_test(seed: u64) -> Check {
    let subject = format!("restore: migrate moving and steady, seed={seed:#x}");
    let report = migration_run(seed, migration_shapes()[1], &[MOVING, STEADY]);
    let refused = steady_shed(&report).len();
    if refused > 0 {
        let detail = format!("the migrated steady tenant was refused {refused} times");
        Check::pass("self-test/restore-migration-refusal", &subject, detail)
            .with_metric("caught", 1)
    } else {
        let detail = "a migrated steady tenant was never refused — the check is vacuous";
        let replay = format!("replay: cfm-verify restore --seeds {seed}");
        Check::fail(
            "self-test/restore-migration-refusal",
            &subject,
            detail,
            vec![replay],
        )
    }
}

/// A quiescent snapshot with known content, plus its bytes — the raw
/// material the corruption self-tests tamper with.
fn seed_snapshot() -> (MachineSnapshot, Vec<u8>) {
    let cfg = CfmConfig::new(4, 1, 16).expect("valid shape");
    let banks = cfg.banks();
    let mut m = CfmMachine::builder(cfg).offsets(8).build();
    m.execute(0, Operation::write(3, vec![7; banks]));
    let snap = m.checkpoint();
    let bytes = snap.to_bytes();
    (snap, bytes)
}

/// The self-tests: each tampered snapshot must be refused by exactly the
/// intended [`SnapshotError`] detector while the pristine control still
/// round-trips, and the migration's refusal check must catch a migrated
/// steady tenant on `seed`.
pub fn self_tests(seed: u64) -> Vec<Check> {
    vec![
        truncated_self_test(),
        stale_version_self_test(),
        aliased_map_self_test(),
        migration_self_test(seed),
    ]
}

/// A snapshot cut short mid-structure must be a typed `Truncated` — not
/// `BadMagic`, not a panic — and the uncut control must decode.
fn truncated_self_test() -> Check {
    let (snap, bytes) = seed_snapshot();
    let cut = bytes.len() - 9;
    let subject = format!("restore: {}-byte snapshot cut to {cut}", bytes.len());
    let control_ok = MachineSnapshot::from_bytes(&bytes).as_ref() == Ok(&snap);
    match MachineSnapshot::from_bytes(&bytes[..cut]) {
        Err(SnapshotError::Truncated { needed, have }) if control_ok => Check::pass(
            "self-test/restore-truncated",
            &subject,
            format!("typed Truncated caught it (needed {needed}, have {have}); control decodes"),
        )
        .with_metric("caught", 1),
        Err(other) => Check::fail(
            "self-test/restore-truncated",
            &subject,
            format!("wrong detector fired (or control broke): {other}"),
            vec![],
        ),
        Ok(_) => Check::fail(
            "self-test/restore-truncated",
            &subject,
            "truncated snapshot decoded — the length checks are vacuous",
            vec![],
        ),
    }
}

/// A snapshot whose header claims a future format version must be a
/// typed `VersionMismatch` naming the found version.
fn stale_version_self_test() -> Check {
    let (snap, bytes) = seed_snapshot();
    let mut tampered = bytes.clone();
    tampered[8..12].copy_from_slice(&99u32.to_le_bytes());
    let subject = "restore: header version rewritten to 99";
    let control_ok = MachineSnapshot::from_bytes(&bytes).as_ref() == Ok(&snap);
    match MachineSnapshot::from_bytes(&tampered) {
        Err(SnapshotError::VersionMismatch {
            found: 99,
            supported,
        }) if control_ok => Check::pass(
            "self-test/restore-stale-version",
            subject,
            format!("typed VersionMismatch caught it (found 99, supported {supported})"),
        )
        .with_metric("caught", 1),
        Err(other) => Check::fail(
            "self-test/restore-stale-version",
            subject,
            format!("wrong detector fired (or control broke): {other}"),
            vec![],
        ),
        Ok(_) => Check::fail(
            "self-test/restore-stale-version",
            subject,
            "future-versioned snapshot decoded — the version gate is vacuous",
            vec![],
        ),
    }
}

/// A snapshot whose bank map aliases two logical banks onto one physical
/// bank must be refused at restore with `InjectiveMapViolation` — the
/// one error that would silently reintroduce memory conflicts.
fn aliased_map_self_test() -> Check {
    let cfg = CfmConfig::new(4, 1, 16)
        .expect("valid shape")
        .with_spares(1)
        .expect("spare fits");
    let banks = cfg.banks();
    let mut m = CfmMachine::builder(cfg).offsets(8).build();
    m.execute(0, Operation::write(0, vec![7; banks]));
    m.injector().bank_alias(1, 0);
    let subject = "restore: logical bank 1 aliased onto physical 0";
    let control_ok = seed_snapshot().0.restore().is_ok();
    match m.checkpoint().restore() {
        Err(SnapshotError::InjectiveMapViolation(conflict)) if control_ok => Check::pass(
            "self-test/restore-aliased-map",
            subject,
            format!("typed InjectiveMapViolation caught it ({conflict}); healthy control restores"),
        )
        .with_metric("caught", 1),
        Err(other) => Check::fail(
            "self-test/restore-aliased-map",
            subject,
            format!("wrong detector fired (or control broke): {other}"),
            vec![],
        ),
        Ok(_) => Check::fail(
            "self-test/restore-aliased-map",
            subject,
            "aliased restore map accepted — the injectivity gate is vacuous",
            vec![],
        ),
    }
}

/// Run the restore soak suite: per-shape mid-flight and cross-shape
/// restores under active fault plans, the two twin migrations, and
/// (when `self_test`) the self-tests.
pub fn verify(spec: &RestoreSpec, self_test: bool) -> Vec<Check> {
    let mut checks = Vec::new();
    for (i, &seed) in spec.seeds.iter().enumerate() {
        let shape = shape_for(i);
        checks.push(byte_identical_check(seed, shape));
        checks.extend(cross_shape_checks(seed, shape));
    }
    let first = spec.seeds.first().copied().unwrap_or(0);
    let [_, grown, spares] = migration_shapes();
    checks.push(migration_check(first, grown));
    checks.push(migration_check(first, spares));
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
    fn default_shape_rotation_covers_four_shapes() {
        let spec = RestoreSpec::default();
        let shapes: std::collections::BTreeSet<_> = (0..spec.seeds.len()).map(shape_for).collect();
        assert!(shapes.len() >= 4, "rotation covers {} shapes", shapes.len());
    }

    #[test]
    fn self_tests_all_catch_their_corruption() {
        for check in self_tests(0xD1CE) {
            assert_eq!(
                check.status,
                Status::Pass,
                "{} ({}): {}",
                check.name,
                check.subject,
                check.detail
            );
        }
    }

    #[test]
    fn micro_soak_passes_end_to_end() {
        // Two shapes so `cargo test` stays fast; the CI gate runs the
        // full default spec in release mode.
        let spec = RestoreSpec {
            seeds: vec![0xD1CE, 0xFACE],
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
