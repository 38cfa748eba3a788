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
//! * **migration** — [`Service::migrate`] moves a tenant onto a larger
//!   machine through the full byte codec while an untouched tenant
//!   keeps completing reads; a write committed before the boundary
//!   reads back whole (zero-extended, never torn) after it.
//!
//! The `self-test/restore-*` checks prove the [`SnapshotError`] taxonomy
//! non-vacuous: a truncated snapshot, a stale format version, and an
//! aliased restore map must each be refused by exactly the intended
//! typed detector while a pristine snapshot still round-trips.

use std::collections::VecDeque;
use std::sync::Arc;

use cfm_core::config::CfmConfig;
use cfm_core::fault::FaultPlan;
use cfm_core::machine::CfmMachine;
use cfm_core::op::Operation;
use cfm_core::program::{ScriptDriver, Scripted};
use cfm_core::snapshot::{MachineSnapshot, SnapshotError};
use cfm_core::Word;
use cfm_serve::{Reject, Service, ServiceConfig, TenantSpec, Ticket};

use crate::chaos::{plan_params, shape_for, soak_scripts};
use crate::report::Check;
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
    /// default seed list).
    pub seeds: Vec<u64>,
    /// Read operations the untouched tenant completes across the live
    /// migration boundary.
    pub ops_per_tenant: u64,
}

impl Default for RestoreSpec {
    /// Four seeded soaks, one per machine shape, plus a live-migration
    /// soak sized so the untouched tenant is still serving when the
    /// boundary crosses.
    fn default() -> Self {
        RestoreSpec {
            seeds: vec![0xD1CE, 0xFACE, 0xB0BA, 0xCAFE],
            ops_per_tenant: 2_000,
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

/// Drive one read-only tenant closed-loop until it has completed `ops`
/// operations. Returns an error if the tenant was ever shed with a
/// rejection an untouched tenant must never see.
fn drive_reader(service: &Service, tenant: usize, ops: u64) -> Result<u64, String> {
    let mut outstanding: VecDeque<Ticket> = VecDeque::new();
    let mut completed = 0u64;
    let mut next = 0usize;
    while completed < ops {
        if outstanding.len() < 32 {
            match service.submit(tenant, Operation::read(next % OFFSETS)) {
                Ok(t) => {
                    outstanding.push_back(t);
                    next += 1;
                }
                Err(Reject::QueueFull { .. } | Reject::Overloaded { .. }) => {
                    if let Some(t) = outstanding.pop_front() {
                        t.wait().ok_or("ticket abandoned mid-soak")?;
                        completed += 1;
                    } else {
                        std::thread::yield_now();
                    }
                }
                Err(other) => return Err(format!("untouched tenant shed: {other}")),
            }
        } else if let Some(t) = outstanding.pop_front() {
            t.wait().ok_or("ticket abandoned mid-soak")?;
            completed += 1;
        }
    }
    for t in outstanding {
        t.wait().ok_or("ticket abandoned mid-soak")?;
        completed += 1;
    }
    Ok(completed)
}

/// Live migration at the service layer: move one tenant onto a machine
/// with twice the banks while an untouched tenant keeps completing, and
/// prove a pre-boundary write durable (zero-extended, never torn) after
/// the swap.
fn migration_check(ops: u64) -> Check {
    let cfg = CfmConfig::new(4, 1, 16).expect("valid shape");
    let banks = cfg.banks();
    let subject = format!("restore: migrate (4,1)->(8,1), {ops} untouched reads");
    let service = Arc::new(
        Service::start(
            ServiceConfig::new(cfg, OFFSETS)
                .with_tenant(TenantSpec::new("moving").queue_capacity(64))
                .with_tenant(TenantSpec::new("steady").queue_capacity(64)),
        )
        .expect("valid config"),
    );

    // Sentinel committed strictly before the boundary.
    let sentinel = service
        .submit(0, Operation::write(7, vec![41; banks]))
        .expect("admitted")
        .wait();
    if sentinel.is_none() {
        return Check::fail(
            "restore/migration",
            &subject,
            "sentinel write abandoned before the migration",
            vec![],
        );
    }

    let reader = {
        let service = Arc::clone(&service);
        std::thread::spawn(move || drive_reader(&service, 1, ops))
    };

    let target = CfmConfig::new(8, 1, 16).expect("valid target");
    let report = match service.migrate(&[0], target) {
        Ok(r) => r,
        Err(e) => {
            let _ = reader.join();
            return Check::fail(
                "restore/migration",
                &subject,
                format!("live migration failed: {e}"),
                vec![],
            );
        }
    };

    let steady = match reader.join().expect("reader thread") {
        Ok(completed) => completed,
        Err(e) => {
            return Check::fail(
                "restore/migration",
                &subject,
                "the untouched tenant did not keep serving across the boundary",
                vec![e],
            )
        }
    };

    let mut witnesses = Vec::new();
    if service.banks() != 8 || report.from_banks != banks || report.to_banks != 8 {
        witnesses.push(format!(
            "geometry wrong after swap: service has {} banks, report {} -> {}",
            service.banks(),
            report.from_banks,
            report.to_banks
        ));
    }
    match service
        .submit(0, Operation::read(7))
        .expect("migrated tenant re-admitted")
        .wait()
    {
        Some(resp) => {
            let data = resp.completion.data.as_deref().unwrap_or(&[]);
            let whole = data.len() == 8
                && data[..banks].iter().all(|&w| w == 41)
                && data[banks..].iter().all(|&w| w == 0);
            if !whole || resp.completion.torn {
                witnesses.push(format!(
                    "pre-boundary write not durable: read {data:?} (torn={})",
                    resp.completion.torn
                ));
            }
        }
        None => witnesses.push("post-migration read abandoned".into()),
    }
    let service = Arc::try_unwrap(service).ok().expect("reader joined");
    let drained = service.drain();
    if drained.stats.bank_conflicts != 0 {
        witnesses.push(format!(
            "{} bank conflicts on the target",
            drained.stats.bank_conflicts
        ));
    }
    if witnesses.is_empty() {
        Check::pass(
            "restore/migration",
            &subject,
            format!(
                "tenant migrated through a {}-byte snapshot ({} queued ops replayed); \
                 untouched tenant completed {steady} reads; pre-boundary write whole",
                report.snapshot_bytes, report.replayed
            ),
        )
        .with_metric("snapshot_bytes", report.snapshot_bytes as u64)
        .with_metric("replayed", report.replayed as u64)
        .with_metric("steady_completions", steady)
        .with_metric("from_banks", report.from_banks as u64)
        .with_metric("to_banks", report.to_banks as u64)
    } else {
        Check::fail(
            "restore/migration",
            &subject,
            "the live migration broke the zero-downtime contract",
            witnesses,
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

/// Seeded-corruption self-tests: each tampered snapshot must be refused
/// by exactly the intended [`SnapshotError`] detector while the pristine
/// control still round-trips.
pub fn self_tests() -> Vec<Check> {
    vec![
        truncated_self_test(),
        stale_version_self_test(),
        aliased_map_self_test(),
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
/// restores under active fault plans, the live-migration soak, and
/// (when `self_test`) the seeded-corruption self-tests.
pub fn verify(spec: &RestoreSpec, self_test: bool) -> Vec<Check> {
    let mut checks = Vec::new();
    for (i, &seed) in spec.seeds.iter().enumerate() {
        let shape = shape_for(i);
        checks.push(byte_identical_check(seed, shape));
        checks.extend(cross_shape_checks(seed, shape));
    }
    checks.push(migration_check(spec.ops_per_tenant));
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
    fn default_shape_rotation_covers_four_shapes() {
        let spec = RestoreSpec::default();
        let shapes: std::collections::BTreeSet<_> = (0..spec.seeds.len()).map(shape_for).collect();
        assert!(shapes.len() >= 4, "rotation covers {} shapes", shapes.len());
    }

    #[test]
    fn self_tests_all_catch_their_corruption() {
        for check in self_tests() {
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
        // Two shapes and a small migration so `cargo test` stays fast;
        // the CI gate runs the full default spec in release mode.
        let spec = RestoreSpec {
            seeds: vec![0xD1CE, 0xFACE],
            ops_per_tenant: 300,
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
