//! Property-based tests over the core invariants (proptest).

use conflict_free_memory::binding::region::DimRange;
use conflict_free_memory::core::atspace::AtSpace;
use conflict_free_memory::core::config::CfmConfig;
use conflict_free_memory::core::machine::CfmMachine;
use conflict_free_memory::core::op::{OpKind, Operation};
use conflict_free_memory::net::topology::OmegaTopology;
use proptest::prelude::*;

proptest! {
    /// The AT-space assignment is a bijection between processors and a
    /// subset of banks at every slot, for any (n, c).
    #[test]
    fn atspace_is_injective(n in 1usize..32, c in 1u32..6, t in 0u64..1000) {
        let cfg = CfmConfig::new(n, c, 16).unwrap();
        let space = AtSpace::new(&cfg);
        let mut seen = vec![false; cfg.banks()];
        for p in 0..n {
            let k = space.bank_for(t, p);
            prop_assert!(!seen[k]);
            seen[k] = true;
        }
    }

    /// `proc_for` inverts `bank_for` everywhere.
    #[test]
    fn atspace_inverse(n in 1usize..32, c in 1u32..6, t in 0u64..1000) {
        let cfg = CfmConfig::new(n, c, 16).unwrap();
        let space = AtSpace::new(&cfg);
        for p in 0..n {
            prop_assert_eq!(space.proc_for(t, space.bank_for(t, p)), Some(p));
        }
    }

    /// The invariant hooks prove `proc_for(t, bank_for(t, p)) == Some(p)`
    /// and per-slot injectivity *exhaustively over a full period* for any
    /// valid (n, c) — sampled configurations, exhaustive slots (the
    /// periodicity hook extends the period proof to all time).
    #[test]
    fn atspace_round_trip_exhaustive(n in 1usize..64, c in 1u32..8) {
        let cfg = CfmConfig::new(n, c, 16).unwrap();
        let space = AtSpace::new(&cfg);
        if let Err(w) = space.check_round_trip(n) {
            prop_assert!(false, "round-trip witness: {}", w);
        }
        if let Err(w) = space.check_period_injective(n) {
            prop_assert!(false, "conflict witness: {}", w);
        }
        prop_assert!(space.check_periodicity(n, 2));
    }

    /// Every shift permutation routes through an omega network without
    /// conflict (Lawrie's theorem, which the synchronous omega rests on).
    #[test]
    fn omega_routes_all_shifts(k in 1u32..8, shift in 0usize..256) {
        let ports = 1usize << k;
        let topo = OmegaTopology::new(ports);
        let pairs: Vec<_> = (0..ports).map(|i| (i, (i + shift) % ports)).collect();
        prop_assert!(topo.routable(&pairs));
    }

    /// Derived configuration quantities always satisfy the paper's
    /// identities: b = c·n, l = b·w, β = b + c − 1.
    #[test]
    fn config_identities(n in 1usize..128, c in 1u32..8, w in 1u32..64) {
        let cfg = CfmConfig::new(n, c, w).unwrap();
        prop_assert_eq!(cfg.banks(), n * c as usize);
        prop_assert_eq!(cfg.block_bits(), (n * c as usize) as u64 * w as u64);
        prop_assert_eq!(
            cfg.block_access_time(),
            cfg.banks() as u64 + c as u64 - 1
        );
    }

    /// Any mix of block operations on a CFM machine completes with zero
    /// bank conflicts, and operations on distinct blocks always take
    /// exactly β (no interference of any kind).
    #[test]
    fn machine_conflict_freedom(
        n in 1usize..9,
        c in 1u32..4,
        skews in proptest::collection::vec(0u64..16, 1..9),
    ) {
        let cfg = CfmConfig::new(n, c, 16).unwrap();
        let beta = cfg.block_access_time();
        let mut m = CfmMachine::builder(cfg).offsets(16).build();
        // Stagger issues per processor by the given skews.
        let mut issued = 0usize;
        for t in 0..200u64 {
            for (p, &skew) in skews.iter().enumerate().take(n) {
                if t == skew {
                    m.issue(p, Operation::read(p % 16)).unwrap();
                    issued += 1;
                }
            }
            m.step();
        }
        let mut done = 0;
        for p in 0..n {
            while let Some(cmp) = m.poll(p) {
                prop_assert_eq!(cmp.latency(), beta);
                done += 1;
            }
        }
        prop_assert_eq!(done, issued);
        prop_assert_eq!(m.stats().bank_conflicts, 0);
    }

    /// Concurrent whole-block writes to one block never tear it: the
    /// final block is exactly one of the written values (or the initial
    /// value if all writes were superseded mid-flight, which cannot
    /// happen — someone always completes).
    #[test]
    fn competing_writes_never_tear(
        n in 2usize..9,
        delays in proptest::collection::vec(0u64..12, 2..9),
    ) {
        let cfg = CfmConfig::new(n, 1, 16).unwrap();
        let mut m = CfmMachine::builder(cfg).offsets(4).build();
        let writers = delays.len().min(n);
        for t in 0..100u64 {
            for (p, &d) in delays.iter().enumerate().take(writers) {
                if t == d {
                    let val = p as u64 + 1;
                    m.issue(p, Operation::write(0, vec![val; n])).unwrap();
                }
            }
            m.step();
        }
        let _ = m.run(50_000);
        let block = m.peek_block(0);
        let first = block[0];
        prop_assert!(block.iter().all(|&w| w == first), "torn block {:?}", block);
        prop_assert!(first as usize <= writers);
        prop_assert_eq!(m.stats().torn_reads, 0);
    }

    /// Concurrent swaps on one block always produce a serial outcome: the
    /// multiset of observed old values is a chain from the initial value
    /// to the final value.
    #[test]
    fn swaps_serialize(n in 2usize..7, stagger in 0u64..8) {
        let cfg = CfmConfig::new(n, 1, 16).unwrap();
        let mut m = CfmMachine::builder(cfg).offsets(4).build();
        for p in 0..n {
            for _ in 0..stagger.min(p as u64) {
                m.step();
            }
            m.issue(p, Operation::swap(0, vec![p as u64 + 1; n])).unwrap();
        }
        let done = m.run(500_000).expect_idle();
        let final_val = m.peek_block(0)[0];
        // Observed old values must be {0} plus all new values except the
        // final one (the chain property).
        let mut olds: Vec<u64> = done
            .iter()
            .filter(|cmp| cmp.kind == OpKind::Swap)
            .map(|cmp| cmp.data.as_ref().unwrap()[0])
            .collect();
        olds.sort_unstable();
        let mut expect: Vec<u64> = (1..=n as u64).filter(|&v| v != final_val).collect();
        expect.push(0);
        expect.sort_unstable();
        prop_assert_eq!(olds, expect);
    }

    /// The cache machine's invariants hold for any seed: at most one
    /// dirty copy per block at every cycle, and replaying write responses
    /// in delivery order reproduces the final coherent memory exactly.
    #[test]
    fn cache_machine_serializes_for_any_seed(seed in 0u64..1000) {
        use conflict_free_memory::cache::machine::{CcMachine, CpuRequest, Rmw};
        use conflict_free_memory::core::Word;
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};

        let n = 3;
        let offsets = 4usize;
        let cfg = CfmConfig::new(n, 1, 16).unwrap();
        let mut m = CcMachine::new(cfg, offsets, 2);
        let banks = m.config().banks();
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut model: Vec<Vec<Word>> = vec![vec![0; banks]; offsets];
        let mut outstanding: Vec<Option<CpuRequest>> = vec![None; n];
        for cyc in 0..4_000 {
            #[allow(clippy::needless_range_loop)] // p indexes a parallel array
            for p in 0..n {
                if cyc < 3_000 && outstanding[p].is_none() && rng.gen_bool(0.3) {
                    let offset = rng.gen_range(0..offsets);
                    let req = match rng.gen_range(0..3) {
                        0 => CpuRequest::Store {
                            offset,
                            word: rng.gen_range(0..banks),
                            value: rng.gen_range(1..100),
                        },
                        1 => CpuRequest::Rmw {
                            offset,
                            rmw: Rmw::FetchAndAdd {
                                word: rng.gen_range(0..banks),
                                delta: 1,
                            },
                        },
                        _ => CpuRequest::Load { offset },
                    };
                    m.submit(p, req.clone()).unwrap();
                    outstanding[p] = Some(req);
                }
            }
            m.step();
            prop_assert_eq!(m.check_single_dirty(), None);
            #[allow(clippy::needless_range_loop)]
            for p in 0..n {
                if m.poll(p).is_some() {
                    match outstanding[p].take().expect("response implies request") {
                        CpuRequest::Store { offset, word, value } => {
                            model[offset][word] = value;
                        }
                        CpuRequest::Rmw { offset, rmw: Rmw::FetchAndAdd { word, .. } } => {
                            model[offset][word] = model[offset][word].wrapping_add(1);
                        }
                        _ => {}
                    }
                }
            }
        }
        prop_assert!(outstanding.iter().all(|o| o.is_none()));
        prop_assert!(m.run_until_idle(100_000));
        for (offset, expected) in model.iter().enumerate() {
            prop_assert_eq!(m.coherent_block(offset), expected.clone());
        }
    }

    /// Cluster topologies are metrics: symmetric, zero iff equal, and
    /// triangle inequality holds.
    #[test]
    fn cluster_topologies_are_metrics(dim in 1u32..5, seed in 0u64..500) {
        use conflict_free_memory::core::topology::ClusterTopology;
        let n = 1usize << dim;
        let topos = [
            ClusterTopology::Hypercube { dim },
            ClusterTopology::Mesh2D { width: n.min(4), height: n.div_ceil(n.min(4)) },
            ClusterTopology::Full,
        ];
        let pick = |x: u64| (x as usize) % n;
        let (a, b, c) = (pick(seed), pick(seed / 7 + 3), pick(seed / 13 + 5));
        for t in topos {
            if t.clusters() < n {
                continue;
            }
            prop_assert_eq!(t.hops(a, b), t.hops(b, a));
            prop_assert_eq!(t.hops(a, a), 0);
            if a != b {
                prop_assert!(t.hops(a, b) >= 1);
            }
            prop_assert!(t.hops(a, c) <= t.hops(a, b) + t.hops(b, c));
        }
    }

    /// BlockTransform laws: multiple test-and-set is all-or-nothing and
    /// ClearBits undoes a successful acquisition exactly.
    #[test]
    fn block_transform_laws(
        block in proptest::collection::vec(0u64..16, 4),
        pattern in proptest::collection::vec(0u64..16, 4),
    ) {
        use conflict_free_memory::core::op::BlockTransform;
        let mtas = BlockTransform::MultipleTestAndSet {
            pattern: pattern.clone().into_boxed_slice(),
        };
        let after = mtas.apply(&block);
        let conflict = block.iter().zip(&pattern).any(|(b, p)| b & p != 0);
        if conflict {
            prop_assert_eq!(&after, &block, "failed acquisition must not change the block");
        } else {
            for ((a, b), p) in after.iter().zip(&block).zip(&pattern) {
                prop_assert_eq!(*a, b | p);
            }
            // Clearing the pattern restores the original exactly.
            let clear = BlockTransform::ClearBits {
                pattern: pattern.clone().into_boxed_slice(),
            };
            prop_assert_eq!(clear.apply(&after), block.clone());
        }
        // Idempotence of a successful acquisition's failure mode: applying
        // the same pattern again is a conflict (when the pattern is
        // non-empty) and leaves the block unchanged.
        if !conflict && pattern.iter().any(|&p| p != 0) {
            prop_assert_eq!(mtas.apply(&after), after);
        }
    }

    /// DimRange::intersects agrees with brute force on arbitrary strided
    /// ranges (the CRT implementation).
    #[test]
    fn dim_intersection_is_exact(
        sa in 0usize..20, la in 0usize..20, ta in 1usize..8,
        sb in 0usize..20, lb in 0usize..20, tb in 1usize..8,
    ) {
        let a = DimRange::strided(sa, sa + la, ta);
        let b = DimRange::strided(sb, sb + lb, tb);
        let brute = a.iter().any(|x| b.contains(x));
        prop_assert_eq!(a.intersects(&b), brute);
    }
}

proptest! {
    /// Any configuration in the acceptance sweep produces a race-free,
    /// schedule-conformant trace under the contention workload — on
    /// either slot engine: the happens-before detector finds no
    /// unordered mixed-order pair and every observed injection sits on
    /// the c-spaced lattice.
    #[test]
    fn traced_executions_are_race_free(n in 2usize..13, c in 1u32..5, eng in 0usize..2) {
        use cfm_verify::trace::{hb, workloads};
        use conflict_free_memory::core::config::Engine;
        let engine = [Engine::Sequential, Engine::Parallel { threads: 1 }][eng];
        let (events, history) = workloads::core_contention(n, c, engine);
        let analysis = hb::analyze(&events);
        prop_assert_eq!(analysis.ops.len(), history.len());
        let races = hb::find_races(&analysis);
        prop_assert!(races.is_empty(), "race found: {}", races[0].summary);
        let banks = n * c as usize;
        prop_assert!(hb::audit_bank_spacing(&events, banks, c as u64).is_ok());
    }
}
