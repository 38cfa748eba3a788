//! Fault-tolerance properties: the degraded-mode schedule stays
//! conflict-free and data survives remapping, for *any* seeded fault
//! plan — plus a byte-for-byte pinned trace of the canonical remap.

use std::collections::VecDeque;

use conflict_free_memory::core::atspace::AtSpace;
use conflict_free_memory::core::config::CfmConfig;
use conflict_free_memory::core::fault::{FaultKind, FaultPlan, PlanParams};
use conflict_free_memory::core::machine::CfmMachine;
use conflict_free_memory::core::op::Operation;
use conflict_free_memory::core::program::{ScriptDriver, Scripted};
use conflict_free_memory::core::snapshot::MachineSnapshot;
use conflict_free_memory::core::trace::TraceEvent;
use conflict_free_memory::core::Word;
use proptest::prelude::*;

/// Slot horizon the generated plans schedule faults within.
const HORIZON: u64 = 96;

fn soak_plan(seed: u64, banks: usize, processors: usize, permanent: usize) -> FaultPlan {
    FaultPlan::generate(
        seed,
        &PlanParams {
            banks,
            processors,
            horizon: HORIZON,
            permanent,
            transient: 1,
            // Repair windows far shorter than the bounded-retry backoff
            // budget: every transient fault must recover transparently.
            max_repair: 8,
            responses: 1,
            stuck: 0,
        },
    )
}

/// The standard snapshot-soak scripts: each processor writes and reads
/// its owned block, bumps a shared counter, and reads its neighbour.
fn snapshot_scripts(n: usize, banks: usize) -> Vec<VecDeque<Operation>> {
    (0..n)
        .map(|p| {
            let mut q = VecDeque::new();
            for r in 0..2u64 {
                q.push_back(Operation::write(p, vec![(p as Word + 1) * 10 + r; banks]));
                q.push_back(Operation::read(p));
                q.push_back(Operation::fetch_add(n, 0, 1));
                q.push_back(Operation::read((p + 1) % n));
            }
            q
        })
        .collect()
}

/// Drive `m` with `driver` until its scripts are spent and the machine
/// idles.
fn drain(driver: &mut ScriptDriver, m: &mut CfmMachine) -> Vec<Scripted> {
    driver
        .drain(m, 100_000)
        .expect("snapshot soak workload did not drain")
}

/// Debug-rendered trace digest, one event per line.
fn trace_digest(m: &mut CfmMachine) -> String {
    m.take_trace()
        .expect("tracing enabled")
        .into_events()
        .iter()
        .map(|e| format!("{e:?}\n"))
        .collect()
}

proptest! {
    /// Under any seeded fault plan — including more permanent failures
    /// than there are spares — the logical→physical bank map stays
    /// injective and the *composed* per-slot schedule still assigns
    /// every processor a distinct physical bank.
    #[test]
    fn remapped_schedule_stays_injective(
        n in 2usize..9,
        c in 1u32..4,
        spares in 0usize..3,
        seed in 0u64..1u64 << 48,
    ) {
        let cfg = CfmConfig::new(n, c, 8).unwrap().with_spares(spares).unwrap();
        let banks = cfg.banks();
        let mut m = CfmMachine::builder(cfg)
            .offsets(8)
            .fault_plan(soak_plan(seed, banks, n, spares + 1))
            .build();
        for p in 0..n {
            m.issue(p, Operation::write(p, vec![p as Word + 1; banks])).unwrap();
        }
        prop_assert!(
            m.run(50_000).is_idle(),
            "faulted write workload stalled"
        );
        while m.cycle() < HORIZON + 16 {
            m.step();
        }
        if let Err(conflict) = m.bank_map().check_injective() {
            prop_assert!(false, "map conflict: {}", conflict);
        }
        let space = AtSpace::new(m.config());
        for t in 0..2 * banks as u64 {
            let mut seen = vec![false; m.bank_map().physical_banks()];
            for p in 0..n {
                if let Some(ph) = m.bank_map().phys(space.bank_for(t, p)) {
                    prop_assert!(!seen[ph], "slot {}: physical bank {} reused", t, ph);
                    seen[ph] = true;
                }
            }
        }
    }

    /// Writes issued *after* the fault horizon round-trip intact through
    /// the degraded machine: every word lands and reads back except those
    /// on masked (dead, spare-less) banks.
    #[test]
    fn post_remap_writes_round_trip(
        n in 2usize..7,
        c in 1u32..3,
        spares in 0usize..3,
        seed in 0u64..1u64 << 48,
    ) {
        let cfg = CfmConfig::new(n, c, 8).unwrap().with_spares(spares).unwrap();
        let banks = cfg.banks();
        let mut m = CfmMachine::builder(cfg)
            .offsets(8)
            .fault_plan(soak_plan(seed, banks, n, spares + 1))
            .build();
        while m.cycle() < HORIZON + 16 {
            m.step();
        }
        for p in 0..n {
            let value = 1000 + p as Word;
            m.execute(p, Operation::write(p, vec![value; banks]));
            let done = m.execute(p, Operation::read(p));
            let data = done.data.as_deref().unwrap();
            prop_assert!(!done.torn, "proc {}: torn degraded-mode read", p);
            for (k, &w) in data.iter().enumerate() {
                if m.bank_map().is_masked(k) {
                    prop_assert_eq!(w, 0, "masked bank {} must read zero", k);
                } else {
                    prop_assert_eq!(w, value, "proc {} word {} lost", p, k);
                }
            }
        }
    }

    /// A mid-run checkpoint through the full byte codec, restored into
    /// the same shape, continues byte-identically with the uninterrupted
    /// run for *any* shape, seed, fault plan, and checkpoint depth:
    /// completion stream, statistics, cycle counter, post-boundary trace
    /// digest, and a final re-checkpoint all agree.
    #[test]
    fn mid_run_snapshot_round_trip_is_byte_identical(
        n in 2usize..7,
        c in 1u32..3,
        spares in 0usize..3,
        seed in 0u64..1u64 << 48,
        midpoint in 1u64..24,
    ) {
        let build = || {
            let cfg = CfmConfig::new(n, c, 8).unwrap().with_spares(spares).unwrap();
            let banks = cfg.banks();
            let m = CfmMachine::builder(cfg)
                .offsets(8)
                .trace(true)
                .fault_plan(soak_plan(seed, banks, n, spares + 1))
                .build();
            (m, ScriptDriver::new(snapshot_scripts(n, banks)))
        };
        let (mut m, mut driver) = build();
        let (mut reference, mut ref_driver) = build();

        // Identical drives to the midpoint: operations mid-sweep, ATT
        // entries live, transient retries possibly pending.
        let mut prefix = Vec::new();
        let mut ref_prefix = Vec::new();
        for _ in 0..midpoint {
            driver.pass(&mut m, &mut prefix);
            m.step();
            ref_driver.pass(&mut reference, &mut ref_prefix);
            reference.step();
        }
        prop_assert_eq!(&prefix, &ref_prefix, "identical drives diverged pre-boundary");

        // Reset both traces at the boundary so the digests compare the
        // continuation only (a restored machine resumes tracing empty).
        m.drain_trace();
        reference.drain_trace();

        let bytes = m.checkpoint().to_bytes();
        let decoded = MachineSnapshot::from_bytes(&bytes).expect("snapshot decodes");
        prop_assert_eq!(decoded.to_bytes(), bytes.clone(), "codec must round-trip bytes");
        let mut restored = decoded.restore().expect("same-shape restore succeeds");
        prop_assert_eq!(restored.cycle(), reference.cycle());

        let done = drain(&mut driver, &mut restored);
        let ref_done = drain(&mut ref_driver, &mut reference);
        prop_assert_eq!(done, ref_done, "continuation completion streams diverged");
        prop_assert_eq!(restored.cycle(), reference.cycle());
        prop_assert_eq!(restored.stats(), reference.stats());
        prop_assert_eq!(
            trace_digest(&mut restored),
            trace_digest(&mut reference),
            "post-boundary trace digests diverged"
        );
        prop_assert_eq!(
            restored.checkpoint().to_bytes(),
            reference.checkpoint().to_bytes(),
            "final memory images diverged"
        );
    }

    /// A quiesced snapshot restores into a strictly larger shape: every
    /// unmasked word survives verbatim (new banks read zero), and two
    /// independent restores from the same bytes drive a fresh full-width
    /// workload to byte-identical conclusions.
    #[test]
    fn quiesced_snapshot_restores_into_larger_shape(
        n in 2usize..6,
        c in 1u32..3,
        spares in 0usize..3,
        seed in 0u64..1u64 << 48,
        grow in 1usize..3,
    ) {
        let cfg = CfmConfig::new(n, c, 8).unwrap().with_spares(spares).unwrap();
        let banks = cfg.banks();
        let mut m = CfmMachine::builder(cfg)
            .offsets(8)
            .fault_plan(soak_plan(seed, banks, n, spares + 1))
            .build();
        drain(&mut ScriptDriver::new(snapshot_scripts(n, banks)), &mut m);
        while m.cycle() < HORIZON + 16 {
            m.step();
        }
        prop_assert!(
            m.quiesce((2 * banks as u64 + c as u64) * 4 + 64),
            "machine did not quiesce after the fault horizon"
        );

        // Survivor image and mask, recorded just before the boundary.
        let masked: Vec<bool> = (0..banks).map(|k| m.bank_map().is_masked(k)).collect();
        let pre: Vec<Box<[Word]>> = (0..8)
            .map(|o| m.execute(0, Operation::read(o)).data.expect("read returns data"))
            .collect();
        // The pre-reads repopulate the ATT; drain it again so the
        // checkpoint is quiescent and eligible for a cross-shape restore.
        prop_assert!(
            m.quiesce((2 * banks as u64 + c as u64) * 4 + 64),
            "machine did not re-quiesce after the survivor reads"
        );

        let bytes = m.checkpoint().to_bytes();
        let big_n = n + grow;
        let target = || {
            CfmConfig::new(big_n, c, 8).unwrap().with_spares(spares).unwrap()
        };
        let restore = || {
            MachineSnapshot::from_bytes(&bytes)
                .expect("snapshot decodes")
                .restore_into(target())
                .expect("cross-shape restore succeeds")
        };
        let mut big = restore();
        let big_banks = target().banks();

        // Durability: surviving words verbatim, masked and new banks zero.
        for (o, pre_block) in pre.iter().enumerate() {
            let done = big.execute(0, Operation::read(o));
            prop_assert!(!done.torn, "offset {} torn after cross-shape restore", o);
            let data = done.data.as_deref().unwrap();
            prop_assert_eq!(data.len(), big_banks);
            for (k, &w) in data.iter().enumerate() {
                let want = if k >= banks || masked[k] { 0 } else { pre_block[k] };
                prop_assert_eq!(w, want, "offset {} word {} changed across restore", o, k);
            }
        }

        // Determinism: two independent restores from the same bytes
        // (fresh, so the durability reads above don't skew the cycle
        // counter), driven with the identical fresh full-width workload,
        // conclude identically.
        let mut first = restore();
        let mut twin = restore();
        let mut first_driver = ScriptDriver::new(snapshot_scripts(big_n, big_banks));
        let done = drain(&mut first_driver.clone(), &mut first);
        let twin_done = drain(&mut first_driver, &mut twin);
        prop_assert_eq!(done, twin_done, "independent restores diverged");
        prop_assert_eq!(
            first.checkpoint().to_bytes(),
            twin.checkpoint().to_bytes(),
            "independent restores ended with different images"
        );
    }
}

/// The canonical remap timeline, pinned byte-for-byte: a committed
/// write, a permanent failure of bank 1 remapping onto the spare, and a
/// fresh read that completes untorn on the remapped layout. Any change
/// to fault activation order, remap bookkeeping, or completion timing
/// shows up as a diff here.
#[test]
fn remap_trace_is_pinned() {
    let cfg = CfmConfig::new(4, 1, 8).unwrap().with_spares(1).unwrap();
    let banks = cfg.banks();
    let mut m = CfmMachine::builder(cfg).offsets(8).trace(true).build();
    m.execute(0, Operation::write(2, vec![7; banks]));
    m.injector().fault_plan(FaultPlan::single(
        6,
        FaultKind::PermanentBankFailure { bank: 1 },
    ));
    m.execute(1, Operation::read(2));
    let events = m.take_trace().expect("tracing enabled").into_events();
    let rendered: String = events
        .iter()
        .filter(|e| {
            matches!(
                e,
                TraceEvent::Fault { .. }
                    | TraceEvent::BankRemap { .. }
                    | TraceEvent::Complete { .. }
            )
        })
        .map(|e| format!("{e:?}\n"))
        .collect();
    let pinned = "\
Complete { slot: 3, proc: 0, op_id: 1, kind: Write, offset: 2, issued_at: 0, restarts: 0, completed: true, torn: false }
Fault { slot: 6, fault: PermanentBankFailure { bank: 1 } }
BankRemap { slot: 6, bank: 1, old_phys: 1, new_phys: Some(4) }
Complete { slot: 7, proc: 1, op_id: 2, kind: Read, offset: 2, issued_at: 4, restarts: 0, completed: true, torn: false }
";
    assert_eq!(
        rendered, pinned,
        "remap trace drifted from the pinned regression"
    );
}
