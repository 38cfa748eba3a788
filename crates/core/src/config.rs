//! System parameters of a CFM configuration (§3.1.4, Tables 3.2 and 3.3).
//!
//! The paper characterises a configuration by the number of processors
//! `n`, the number of memory banks `b`, the memory bank cycle `c` (in CPU
//! cycles), and the memory word width `w` (bits). Conflict freedom
//! requires `b = c · n`; the block (= cache line) size is `l = b · w`
//! bits, and a block access takes `β = b + c − 1` CPU cycles.

use std::fmt;

/// Errors constructing a [`CfmConfig`]. Every invalid shape is a typed,
/// recoverable error — misconfiguration (including fault-plan / spare-bank
/// setups built from user input) must never abort the process.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigError {
    /// `n`, `c` and `w` must all be non-zero.
    ZeroParameter,
    /// The derived bank count `b = c · n` (plus spares) overflowed `usize`.
    TooLarge,
    /// The block size is not a whole number of bits per bank.
    BlockNotDivisible {
        /// Requested block size in bits.
        block_bits: u32,
        /// Requested bank count.
        banks: usize,
    },
    /// The bank count is not a multiple of the bank cycle, so no integral
    /// conflict-free processor count `n = b / c` exists.
    CycleNotDividingBanks {
        /// Requested bank count.
        banks: usize,
        /// Requested bank cycle.
        bank_cycle: u32,
    },
    /// More spare banks requested than primary banks — a spare pool larger
    /// than the machine it protects is always a configuration mistake.
    TooManySpares {
        /// Requested spares.
        spares: usize,
        /// Primary bank count `b = c · n`.
        banks: usize,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::ZeroParameter => {
                write!(f, "processors, bank cycle and word width must be non-zero")
            }
            ConfigError::TooLarge => write!(f, "derived bank count overflows usize"),
            ConfigError::BlockNotDivisible { block_bits, banks } => write!(
                f,
                "block size {block_bits} bits is not divisible by {banks} banks"
            ),
            ConfigError::CycleNotDividingBanks { banks, bank_cycle } => write!(
                f,
                "bank count {banks} is not a multiple of bank cycle {bank_cycle}"
            ),
            ConfigError::TooManySpares { spares, banks } => {
                write!(f, "{spares} spare banks exceed the {banks} primary banks")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

/// Which slot engine [`crate::machine::CfmMachine::step`] runs.
///
/// The paper's conflict-freedom theorem (§3.1.4) makes every slot's
/// hazards a property of single accesses: at any slot the active accesses
/// touch pairwise-disjoint banks, so only same-offset ATT arbitration, a
/// fault on the access's bank or a held entry can make one of them more
/// than a plain word access. The parallel engine exploits this: its
/// per-slot step tests each access and runs the proven ones without the
/// reference checks. Traces, stats and [`crate::op::Completion`] streams
/// stay byte-identical to the sequential engine (see
/// `docs/performance.md` for the safety argument).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Engine {
    /// Walk processors in order on the calling thread (the default).
    #[default]
    Sequential,
    /// Step each slot in one pass on the calling thread, proving one
    /// access at a time.
    Parallel {
        /// Unused: [`CfmConfig::with_engine`] sets it to 1. Kept because
        /// existing callers spell the variant with it.
        threads: usize,
    },
}

/// A fully conflict-free CFM configuration.
///
/// Invariant: `banks == bank_cycle * processors` (the condition `b = c·n`
/// of §3.1.4 under which the AT-space partition supports every processor).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CfmConfig {
    processors: usize,
    bank_cycle: u32,
    word_width: u32,
    spares: usize,
    engine: Engine,
}

impl CfmConfig {
    /// Build a configuration from the number of processors `n`, the memory
    /// bank cycle `c` (CPU cycles per bank access) and the memory word
    /// width `w` in bits. The bank count is derived as `b = c · n`; no
    /// spare banks are configured (see [`CfmConfig::with_spares`]).
    pub fn new(processors: usize, bank_cycle: u32, word_width: u32) -> Result<Self, ConfigError> {
        if processors == 0 || bank_cycle == 0 || word_width == 0 {
            return Err(ConfigError::ZeroParameter);
        }
        processors
            .checked_mul(bank_cycle as usize)
            .ok_or(ConfigError::TooLarge)?;
        Ok(CfmConfig {
            processors,
            bank_cycle,
            word_width,
            spares: 0,
            engine: Engine::Sequential,
        })
    }

    /// Configure `spares` spare memory banks standing by for graceful
    /// degradation: a permanent bank failure is remapped onto a spare
    /// online, keeping the full conflict-free schedule. Spares sit outside
    /// the AT-space (the schedule still cycles over `b = c · n` logical
    /// banks), so they change capacity, not timing.
    pub fn with_spares(mut self, spares: usize) -> Result<Self, ConfigError> {
        let banks = self.banks();
        if spares > banks {
            return Err(ConfigError::TooManySpares { spares, banks });
        }
        banks.checked_add(spares).ok_or(ConfigError::TooLarge)?;
        self.spares = spares;
        Ok(self)
    }

    /// Select the slot engine [`crate::machine::CfmMachine::step`] runs.
    /// The default is [`Engine::Sequential`]; [`Engine::Parallel`] runs
    /// the one-pass step while keeping the observable behaviour
    /// (completions, stats, traces) byte-identical. The parallel
    /// engine's `threads` field is set to 1 whatever the caller passed;
    /// this cannot fail.
    pub fn with_engine(mut self, engine: Engine) -> Self {
        self.engine = match engine {
            Engine::Parallel { .. } => Engine::Parallel { threads: 1 },
            Engine::Sequential => Engine::Sequential,
        };
        self
    }

    /// Derive the configuration that supports a given cache-line size
    /// `block_bits` with `banks` memory banks of cycle `c` (the axis of
    /// Table 3.3). Every invalid shape is a typed [`ConfigError`] naming
    /// the constraint that failed.
    pub fn from_block(block_bits: u32, banks: usize, bank_cycle: u32) -> Result<Self, ConfigError> {
        if banks == 0 || bank_cycle == 0 || block_bits == 0 {
            return Err(ConfigError::ZeroParameter);
        }
        if !(block_bits as usize).is_multiple_of(banks) {
            return Err(ConfigError::BlockNotDivisible { block_bits, banks });
        }
        let word_width = block_bits / banks as u32;
        if !banks.is_multiple_of(bank_cycle as usize) {
            return Err(ConfigError::CycleNotDividingBanks { banks, bank_cycle });
        }
        let processors = banks / bank_cycle as usize;
        if processors == 0 {
            return Err(ConfigError::ZeroParameter);
        }
        Ok(CfmConfig {
            processors,
            bank_cycle,
            word_width,
            spares: 0,
            engine: Engine::Sequential,
        })
    }

    /// Number of processors `n`.
    #[inline]
    pub fn processors(&self) -> usize {
        self.processors
    }

    /// Memory bank cycle `c`, in CPU cycles.
    #[inline]
    pub fn bank_cycle(&self) -> u32 {
        self.bank_cycle
    }

    /// Memory word width `w`, in bits.
    #[inline]
    pub fn word_width(&self) -> u32 {
        self.word_width
    }

    /// Number of memory banks `b = c · n`.
    #[inline]
    pub fn banks(&self) -> usize {
        self.processors * self.bank_cycle as usize
    }

    /// Configured spare banks (0 unless set via [`CfmConfig::with_spares`]).
    #[inline]
    pub fn spares(&self) -> usize {
        self.spares
    }

    /// The slot engine (see [`CfmConfig::with_engine`]).
    #[inline]
    pub fn engine(&self) -> Engine {
        self.engine
    }

    /// Total physical banks the machine provisions: `b` scheduled banks
    /// plus the configured spares.
    #[inline]
    pub fn total_banks(&self) -> usize {
        self.banks() + self.spares
    }

    /// Words per block — one word per bank.
    #[inline]
    pub fn block_words(&self) -> usize {
        self.banks()
    }

    /// Block (and cache line) size `l = b · w`, in bits.
    #[inline]
    pub fn block_bits(&self) -> u64 {
        self.banks() as u64 * self.word_width as u64
    }

    /// Block access time `β = b + c − 1`, in CPU cycles (§3.1.4).
    #[inline]
    pub fn block_access_time(&self) -> u64 {
        self.banks() as u64 + self.bank_cycle as u64 - 1
    }

    /// Number of time slots in one AT-space period (equals the number of
    /// banks: every block access sweeps each bank exactly once).
    #[inline]
    pub fn slots_per_period(&self) -> usize {
        self.banks()
    }

    /// Duration of an atomic swap: a read phase and a write phase, each
    /// sweeping all banks, pipelined back to back (§4.2.1).
    #[inline]
    pub fn swap_access_time(&self) -> u64 {
        2 * self.banks() as u64 + self.bank_cycle as u64 - 1
    }
}

/// One row of the configuration trade-off of Table 3.3: for a fixed block
/// size and bank cycle, fewer/wider banks give lower latency but support
/// fewer processors conflict-free.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TradeoffRow {
    /// Number of memory banks `b`.
    pub banks: usize,
    /// Memory word width `w` in bits.
    pub word_width: u32,
    /// Memory (block access) latency `β = b + c − 1` in CPU cycles.
    pub latency: u64,
    /// Number of processors supported conflict-free, `n = b / c`.
    pub processors: usize,
}

/// Generate the Table 3.3 trade-off: all configurations with the given
/// block size (`block_bits`) and bank cycle `c`, sweeping the bank count
/// over powers of two from `block_bits` down to `c` (word width must be a
/// whole number of bits and at least one processor must be supported).
pub fn tradeoff_table(block_bits: u32, bank_cycle: u32) -> Vec<TradeoffRow> {
    let mut rows = Vec::new();
    let mut banks = block_bits as usize;
    while banks >= bank_cycle as usize {
        if let Ok(cfg) = CfmConfig::from_block(block_bits, banks, bank_cycle) {
            rows.push(TradeoffRow {
                banks,
                word_width: cfg.word_width(),
                latency: cfg.block_access_time(),
                processors: cfg.processors(),
            });
        }
        if banks == 1 {
            break;
        }
        banks /= 2;
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_quantities_match_paper_formulas() {
        // Fig 3.5's example: 4 processors, bank cycle 2 → 8 banks.
        let cfg = CfmConfig::new(4, 2, 16).unwrap();
        assert_eq!(cfg.banks(), 8);
        assert_eq!(cfg.block_words(), 8);
        assert_eq!(cfg.block_bits(), 128);
        assert_eq!(cfg.block_access_time(), 9); // β = 8 + 2 − 1
        assert_eq!(cfg.swap_access_time(), 17); // 2·8 + 2 − 1
    }

    #[test]
    fn unit_bank_cycle() {
        // Fig 3.4's 4×4 switch: c = 1, b = n = 4, β = 4.
        let cfg = CfmConfig::new(4, 1, 8).unwrap();
        assert_eq!(cfg.banks(), 4);
        assert_eq!(cfg.block_access_time(), 4);
    }

    #[test]
    fn zero_parameters_rejected() {
        assert_eq!(CfmConfig::new(0, 1, 8), Err(ConfigError::ZeroParameter));
        assert_eq!(CfmConfig::new(4, 0, 8), Err(ConfigError::ZeroParameter));
        assert_eq!(CfmConfig::new(4, 1, 0), Err(ConfigError::ZeroParameter));
    }

    #[test]
    fn table_3_3_rows_reproduced() {
        // Table 3.3: l = 256 bits, c = 2.
        let rows = tradeoff_table(256, 2);
        let expect = [
            (256, 1, 257, 128),
            (128, 2, 129, 64),
            (64, 4, 65, 32),
            (32, 8, 33, 16),
            (16, 16, 17, 8),
            (8, 32, 9, 4),
        ];
        // Our sweep also yields the degenerate rows below 8 banks (4 banks /
        // 64-bit words / 2 processors, 2 banks / 128-bit words / 1
        // processor); the paper's table stops at 8 banks. Check the
        // published prefix exactly.
        assert!(rows.len() >= expect.len());
        for (row, (b, w, lat, n)) in rows.iter().zip(expect.iter()) {
            assert_eq!(row.banks, *b);
            assert_eq!(row.word_width, *w as u32);
            assert_eq!(row.latency, *lat as u64);
            assert_eq!(row.processors, *n);
        }
    }

    #[test]
    fn slots_per_period_equals_banks() {
        let cfg = CfmConfig::new(6, 3, 8).unwrap();
        assert_eq!(cfg.slots_per_period(), 18);
        assert_eq!(cfg.block_words(), 18);
    }

    #[test]
    fn from_block_round_trips_tradeoff_rows() {
        for row in tradeoff_table(256, 2) {
            let cfg = CfmConfig::from_block(256, row.banks, 2).unwrap();
            assert_eq!(cfg.block_bits(), 256);
            assert_eq!(cfg.block_access_time(), row.latency);
            assert_eq!(cfg.processors(), row.processors);
        }
    }

    #[test]
    fn from_block_rejects_indivisible_with_typed_errors() {
        assert_eq!(
            CfmConfig::from_block(256, 3, 2), // 256 % 3 != 0
            Err(ConfigError::BlockNotDivisible {
                block_bits: 256,
                banks: 3
            })
        );
        assert_eq!(
            CfmConfig::from_block(256, 128, 3), // 128 % 3 != 0
            Err(ConfigError::CycleNotDividingBanks {
                banks: 128,
                bank_cycle: 3
            })
        );
        assert_eq!(
            CfmConfig::from_block(0, 8, 2),
            Err(ConfigError::ZeroParameter)
        );
    }

    #[test]
    fn spares_extend_physical_banks_not_the_schedule() {
        let cfg = CfmConfig::new(4, 2, 16).unwrap().with_spares(2).unwrap();
        assert_eq!(cfg.banks(), 8);
        assert_eq!(cfg.spares(), 2);
        assert_eq!(cfg.total_banks(), 10);
        // Timing quantities are unchanged by spares.
        assert_eq!(cfg.block_access_time(), 9);
        assert_eq!(cfg.slots_per_period(), 8);
    }

    #[test]
    fn engine_selection_defaults_sequential_and_normalises_threads() {
        let cfg = CfmConfig::new(4, 1, 8).unwrap();
        assert_eq!(cfg.engine(), Engine::Sequential);
        // Any thread count, zero included, selects the same engine.
        let par = cfg.with_engine(Engine::Parallel { threads: 4 });
        assert_eq!(par.engine(), Engine::Parallel { threads: 1 });
        let one = cfg.with_engine(Engine::Parallel { threads: 0 });
        assert_eq!(one.engine(), Engine::Parallel { threads: 1 });
        // The engine is a performance knob, not a shape parameter: timing
        // quantities are untouched.
        assert_eq!(par.banks(), cfg.banks());
        assert_eq!(par.block_access_time(), cfg.block_access_time());
    }

    #[test]
    fn oversized_spare_pool_is_a_typed_error() {
        let cfg = CfmConfig::new(2, 1, 8).unwrap();
        assert_eq!(
            cfg.with_spares(3),
            Err(ConfigError::TooManySpares {
                spares: 3,
                banks: 2
            })
        );
        assert_eq!(
            cfg.with_spares(3).unwrap_err().to_string(),
            "3 spare banks exceed the 2 primary banks"
        );
    }
}
