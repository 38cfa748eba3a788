//! Per-tenant traffic generators for the multi-tenant request service.
//!
//! `cfm-serve` schedules *tenants* onto processor lanes; exercising it
//! needs traffic that differs per tenant the way real co-located clients
//! differ: a uniform scatter, a hot-spot tenant hammering one block, a
//! sequential scanner, and a bursty on/off source. Each profile is a
//! seeded deterministic stream of block [`Operation`]s, so service-level
//! results (fairness bounds, rejection counts) are reproducible run to
//! run.
//!
//! Generators are *tick*-driven: [`TenantTraffic::tick`] returns the
//! operation the tenant offers this tick, or `None` when the profile is
//! in an idle phase (only [`TenantProfile::Bursty`] ever idles). A
//! closed-loop driver calls `tick` whenever it has submission budget; an
//! open-loop driver calls it once per simulated time step.

use cfm_core::op::Operation;
use cfm_core::Word;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// The shape of one tenant's offered load.
#[derive(Debug, Clone, PartialEq)]
pub enum TenantProfile {
    /// Uniformly random block offsets.
    Uniform {
        /// Fraction of operations that are writes.
        write_fraction: f64,
    },
    /// A pure hot-spot client: probability `hot_fraction` of hitting one
    /// fixed block, the rest uniform — the service-level analogue of the
    /// paper's hot-spot traffic.
    HotSpot {
        /// The contended block offset.
        hot_offset: usize,
        /// Probability an operation targets `hot_offset`.
        hot_fraction: f64,
        /// Fraction of operations that are writes.
        write_fraction: f64,
    },
    /// Sequential whole-memory scan with a fixed stride, wrapping at the
    /// end of memory — models an analytics/backup tenant.
    Scan {
        /// Offset advance per operation (≥ 1).
        stride: usize,
        /// Fraction of operations that are writes.
        write_fraction: f64,
    },
    /// On/off source: `burst` consecutive offering ticks (uniform
    /// offsets), then `idle` silent ticks, repeating.
    Bursty {
        /// Ticks per on-phase (≥ 1).
        burst: usize,
        /// Ticks per off-phase.
        idle: usize,
        /// Fraction of operations that are writes.
        write_fraction: f64,
    },
}

/// A seeded operation stream for one tenant over a machine with `blocks`
/// block offsets and `banks`-word blocks.
#[derive(Debug, Clone)]
pub struct TenantTraffic {
    profile: TenantProfile,
    blocks: usize,
    banks: usize,
    rng: SmallRng,
    /// Next offset for [`TenantProfile::Scan`].
    cursor: usize,
    /// Tick position within the burst+idle period for
    /// [`TenantProfile::Bursty`].
    phase: usize,
}

impl TenantTraffic {
    /// A generator for `profile` over `blocks` offsets of `banks` words,
    /// deterministic in `seed`.
    ///
    /// # Panics
    /// If `blocks` is 0, a write/hot fraction is outside `[0, 1]`, a
    /// hot-spot offset is out of range, a scan stride is 0, or a burst
    /// length is 0.
    pub fn new(profile: TenantProfile, blocks: usize, banks: usize, seed: u64) -> Self {
        assert!(blocks > 0, "tenant traffic needs at least one block");
        match &profile {
            TenantProfile::Uniform { write_fraction } => {
                assert!((0.0..=1.0).contains(write_fraction));
            }
            TenantProfile::HotSpot {
                hot_offset,
                hot_fraction,
                write_fraction,
            } => {
                assert!(*hot_offset < blocks, "hot offset out of range");
                assert!((0.0..=1.0).contains(hot_fraction));
                assert!((0.0..=1.0).contains(write_fraction));
            }
            TenantProfile::Scan {
                stride,
                write_fraction,
            } => {
                assert!(*stride >= 1, "scan stride must be >= 1");
                assert!((0.0..=1.0).contains(write_fraction));
            }
            TenantProfile::Bursty {
                burst,
                write_fraction,
                ..
            } => {
                assert!(*burst >= 1, "burst length must be >= 1");
                assert!((0.0..=1.0).contains(write_fraction));
            }
        }
        TenantTraffic {
            profile,
            blocks,
            banks,
            rng: SmallRng::seed_from_u64(seed),
            cursor: 0,
            phase: 0,
        }
    }

    /// The operation this tenant offers on the current tick, or `None`
    /// during an idle phase. The stream is infinite: callers decide when
    /// to stop.
    pub fn tick(&mut self) -> Option<Operation> {
        let (offset, write_fraction) = match self.profile.clone() {
            TenantProfile::Uniform { write_fraction } => {
                (self.rng.gen_range(0..self.blocks), write_fraction)
            }
            TenantProfile::HotSpot {
                hot_offset,
                hot_fraction,
                write_fraction,
            } => {
                let offset = if self.rng.gen_bool(hot_fraction) {
                    hot_offset
                } else {
                    self.rng.gen_range(0..self.blocks)
                };
                (offset, write_fraction)
            }
            TenantProfile::Scan {
                stride,
                write_fraction,
            } => {
                let offset = self.cursor;
                self.cursor = (self.cursor + stride) % self.blocks;
                (offset, write_fraction)
            }
            TenantProfile::Bursty {
                burst,
                idle,
                write_fraction,
            } => {
                let offering = self.phase < burst;
                self.phase = (self.phase + 1) % (burst + idle);
                if !offering {
                    return None;
                }
                (self.rng.gen_range(0..self.blocks), write_fraction)
            }
        };
        Some(if self.rng.gen_bool(write_fraction) {
            let data: Vec<Word> = (0..self.banks).map(|_| self.rng.gen()).collect();
            Operation::write(offset, data)
        } else {
            Operation::read(offset)
        })
    }

    /// Collect the next `n` *offered* operations, skipping idle ticks.
    pub fn take_ops(&mut self, n: usize) -> Vec<Operation> {
        let mut ops = Vec::with_capacity(n);
        while ops.len() < n {
            if let Some(op) = self.tick() {
                ops.push(op);
            }
        }
        ops
    }
}

/// One tenant's slot in an [`adversarial_mix`]: roster name, traffic
/// profile, and whether this tenant is the latency-critical probe (the
/// one whose tail the mix tries to ruin) or a saturating neighbor.
#[derive(Debug, Clone, PartialEq)]
pub struct MixTenant {
    /// Roster name, stable across runs (keys metrics and bench JSON).
    pub name: &'static str,
    /// The tenant's offered-load shape.
    pub profile: TenantProfile,
    /// `true` for the probe the QoS policy must protect.
    pub critical: bool,
}

/// The standard adversarial client mix for QoS soaks and benches: one
/// latency-critical read-mostly probe surrounded by the three neighbor
/// shapes most hostile to a shared memory's latency tail — a pure
/// hot-spot hammer on one block, a striding whole-memory scanner, and
/// an on/off bursty source. All three neighbors are write-heavy and,
/// driven closed-loop, saturate every lane the scheduler gives them.
/// `cfm-verify serve` bounds the probe's queueing under this mix in
/// slots (`serve/qos-bound`).
///
/// # Panics
/// If `blocks` is 0.
pub fn adversarial_mix(blocks: usize) -> Vec<MixTenant> {
    assert!(blocks > 0, "adversarial mix needs at least one block");
    vec![
        MixTenant {
            name: "probe",
            profile: TenantProfile::Uniform {
                write_fraction: 0.1,
            },
            critical: true,
        },
        MixTenant {
            name: "hotspot",
            profile: TenantProfile::HotSpot {
                hot_offset: blocks / 2,
                hot_fraction: 1.0,
                write_fraction: 0.5,
            },
            critical: false,
        },
        MixTenant {
            name: "scan",
            profile: TenantProfile::Scan {
                stride: 1,
                write_fraction: 0.5,
            },
            critical: false,
        },
        MixTenant {
            name: "bursty",
            profile: TenantProfile::Bursty {
                burst: 64,
                idle: 16,
                write_fraction: 0.5,
            },
            critical: false,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn offsets(ops: &[Operation]) -> Vec<usize> {
        ops.iter()
            .map(|op| match op {
                Operation::Read { offset } => *offset,
                Operation::Write { offset, .. } => *offset,
                Operation::Swap { offset, .. } => *offset,
                Operation::Rmw { offset, .. } => *offset,
            })
            .collect()
    }

    #[test]
    fn streams_are_deterministic_in_seed() {
        let profile = TenantProfile::Uniform {
            write_fraction: 0.3,
        };
        let a = TenantTraffic::new(profile.clone(), 64, 8, 7).take_ops(200);
        let b = TenantTraffic::new(profile.clone(), 64, 8, 7).take_ops(200);
        let c = TenantTraffic::new(profile, 64, 8, 8).take_ops(200);
        assert_eq!(offsets(&a), offsets(&b));
        assert_ne!(offsets(&a), offsets(&c));
    }

    #[test]
    fn hot_spot_concentrates_on_one_block() {
        let mut t = TenantTraffic::new(
            TenantProfile::HotSpot {
                hot_offset: 5,
                hot_fraction: 0.9,
                write_fraction: 0.0,
            },
            64,
            8,
            11,
        );
        let hits = offsets(&t.take_ops(1000))
            .iter()
            .filter(|&&o| o == 5)
            .count();
        assert!(hits > 850, "hot hits {hits}");
    }

    #[test]
    fn scan_strides_and_wraps() {
        let mut t = TenantTraffic::new(
            TenantProfile::Scan {
                stride: 3,
                write_fraction: 0.0,
            },
            8,
            4,
            0,
        );
        assert_eq!(offsets(&t.take_ops(6)), vec![0, 3, 6, 1, 4, 7]);
    }

    #[test]
    fn bursty_idles_between_bursts() {
        let mut t = TenantTraffic::new(
            TenantProfile::Bursty {
                burst: 2,
                idle: 3,
                write_fraction: 0.5,
            },
            16,
            4,
            3,
        );
        let offered: Vec<bool> = (0..10).map(|_| t.tick().is_some()).collect();
        assert_eq!(
            offered,
            vec![true, true, false, false, false, true, true, false, false, false]
        );
    }

    #[test]
    fn adversarial_mix_is_valid_and_has_one_probe() {
        for blocks in [1, 8, 64] {
            let mix = adversarial_mix(blocks);
            assert_eq!(mix.len(), 4);
            assert_eq!(mix.iter().filter(|t| t.critical).count(), 1);
            assert_eq!(mix[0].name, "probe");
            // Every profile constructs a generator (the asserts in
            // `TenantTraffic::new` accept it) at any geometry.
            for (i, t) in mix.into_iter().enumerate() {
                let mut traffic = TenantTraffic::new(t.profile, blocks, 4, i as u64);
                assert!(!traffic.take_ops(8).is_empty());
            }
        }
    }

    #[test]
    fn writes_match_machine_block_length() {
        let mut t = TenantTraffic::new(
            TenantProfile::Uniform {
                write_fraction: 1.0,
            },
            16,
            6,
            1,
        );
        for op in t.take_ops(10) {
            match op {
                Operation::Write { data, .. } => assert_eq!(data.len(), 6),
                other => panic!("expected write, got {other:?}"),
            }
        }
    }
}
