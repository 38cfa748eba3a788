//! Declarative program specifications and static hazard summaries.
//!
//! The reactive [`crate::program::Program`] trait is good for *driving*
//! the machine but opaque to analysis: the next operation only exists
//! once the previous one completed. This module adds a declarative
//! counterpart — [`ProgramSpec`], a per-processor list of [`OpSpec`]s
//! whose block offsets are symbolic [`OffsetExpr`]s — that a static
//! analyzer (`cfm-verify analyze`) can interpret *without running a
//! slot*, and that [`ProgramSpec::instantiate`] lowers to the concrete
//! [`Operation`]s a [`crate::program::Runner`] executes. One spec, two
//! consumers: what is proven is exactly what runs.
//!
//! Two artifacts of the analysis live here, next to the specs they
//! summarize:
//!
//! * [`Footprint`] — per-offset reader/writer processor sets, exact at
//!   any processor count.
//! * [`HazardSummary`] — the analyzer's output: a proven footprint plus
//!   the ATT occupancy bound and per-bank access counts.
//!
//! Both are consumed by `cfm-verify` only (see
//! `docs/static-analysis.md`): neither admission nor the running machine
//! reads them. At runtime the machine proves every access with its own
//! hazard test. Offsets with data-dependent expressions are never
//! summarized.

use crate::op::Operation;
use crate::{BlockOffset, ProcId};

/// Identifier of a program-level lock in a [`ProgramSpec`]'s acquisition
/// script (the analyzer's lock-order graph nodes).
pub type LockId = usize;

/// A block offset as a function of the executing processor — the
/// symbolic index domain of the static analyzer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OffsetExpr {
    /// The same block for every processor (shared data).
    Const(BlockOffset),
    /// `(base + stride · p) mod offsets` — per-processor striding
    /// (`stride = 1, base = 0` is the disjoint "own block" pattern).
    ProcLinear {
        /// Offset of processor 0.
        base: BlockOffset,
        /// Per-processor stride.
        stride: usize,
    },
    /// An offset computed from run-time data — *not* statically
    /// analyzable. `eval` derives a deterministic pseudo-random offset
    /// from the seed so the spec still instantiates and runs; the
    /// analyzer refuses to summarize it.
    DataDependent {
        /// Seed of the deterministic surrogate offset.
        seed: u64,
    },
}

impl OffsetExpr {
    /// The concrete offset for processor `p` on a machine with
    /// `offsets` blocks.
    pub fn eval(&self, p: ProcId, offsets: usize) -> BlockOffset {
        debug_assert!(offsets > 0);
        match *self {
            OffsetExpr::Const(o) => o % offsets,
            OffsetExpr::ProcLinear { base, stride } => (base + stride * p) % offsets,
            OffsetExpr::DataDependent { seed } => {
                // splitmix64 of (seed, p): stable surrogate for "data we
                // cannot see statically".
                let mut z = seed ^ (p as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                (z ^ (z >> 31)) as usize % offsets
            }
        }
    }

    /// Whether the analyzer can resolve this expression without running
    /// the program.
    pub fn statically_known(&self) -> bool {
        !matches!(self, OffsetExpr::DataDependent { .. })
    }
}

/// The operation kind of one [`OpSpec`] (data is derived
/// deterministically at instantiation).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpPattern {
    /// Block read.
    Read,
    /// Block write.
    Write,
    /// Atomic block swap.
    Swap,
    /// Fetch-and-add RMW on word 0.
    FetchAdd,
}

impl OpPattern {
    /// Whether the instantiated operation runs a write phase (and thus
    /// inserts an ATT entry).
    pub fn writes(self) -> bool {
        !matches!(self, OpPattern::Read)
    }
}

/// One operation of a [`ProgramSpec`]: a kind plus a symbolic offset.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpSpec {
    /// What to do.
    pub pattern: OpPattern,
    /// Where to do it.
    pub offset: OffsetExpr,
}

impl OpSpec {
    /// Shorthand constructor.
    pub fn new(pattern: OpPattern, offset: OffsetExpr) -> Self {
        OpSpec { pattern, offset }
    }
}

/// A declarative multi-processor program: per-processor operation lists
/// (repeated `rounds` times, issued back-to-back) plus program-level
/// lock acquisition scripts for the lock-order analysis.
#[derive(Debug, Clone)]
pub struct ProgramSpec {
    /// Display name (appears in analyzer reports).
    pub name: String,
    /// Number of processors the spec is written for.
    pub processors: usize,
    /// How many times each processor repeats its op list.
    pub rounds: usize,
    /// Per-processor operation lists (`ops.len() == processors`;
    /// processors past the list's end idle).
    pub ops: Vec<Vec<OpSpec>>,
    /// Per-processor ordered lock acquisitions (`locks[p]` is the order
    /// in which processor `p` takes program locks; empty = lock-free).
    /// Earlier-acquired locks are held while later ones are taken, so
    /// each consecutive pair is a held-before edge.
    pub locks: Vec<Vec<LockId>>,
}

impl ProgramSpec {
    /// A lock-free spec where every processor runs the same op list.
    pub fn uniform(name: &str, processors: usize, rounds: usize, ops: Vec<OpSpec>) -> Self {
        ProgramSpec {
            name: name.to_string(),
            processors,
            rounds,
            ops: vec![ops; processors],
            locks: Vec::new(),
        }
    }

    /// Whether every offset in the spec is statically known — the
    /// precondition for building a [`Footprint`] / [`HazardSummary`].
    pub fn analyzable(&self) -> bool {
        self.ops
            .iter()
            .flatten()
            .all(|op| op.offset.statically_known())
    }

    /// Lower processor `p`'s stream to concrete operations for a machine
    /// with `banks` banks and `offsets` blocks. Write/swap data is
    /// deterministic (derived from processor, round and op index), so
    /// the dynamic differential runs are reproducible.
    pub fn instantiate(&self, p: ProcId, banks: usize, offsets: usize) -> Vec<Operation> {
        let Some(list) = self.ops.get(p) else {
            return Vec::new();
        };
        let mut out = Vec::with_capacity(self.rounds * list.len());
        for round in 0..self.rounds {
            for (i, op) in list.iter().enumerate() {
                let offset = op.offset.eval(p, offsets);
                let tag = ((p as u64) << 24) | ((round as u64) << 12) | i as u64;
                out.push(match op.pattern {
                    OpPattern::Read => Operation::read(offset),
                    OpPattern::Write => Operation::write(offset, vec![tag; banks]),
                    OpPattern::Swap => Operation::swap(offset, vec![tag ^ 0x5A5A; banks]),
                    OpPattern::FetchAdd => Operation::fetch_add(offset, 0, tag | 1),
                });
            }
        }
        out
    }

    /// The spec's access footprint on a machine with `offsets` blocks,
    /// or `None` if any offset is data-dependent (not analyzable).
    pub fn footprint(&self, offsets: usize) -> Option<Footprint> {
        if !self.analyzable() {
            return None;
        }
        let mut fp = Footprint::new(offsets);
        if self.ops.windows(2).all(|w| w[0] == w[1]) {
            // Uniform spec: emit each op's accessor set symbolically as
            // residue classes — O(ops × stride period), so an n = 1024
            // sweep stays one class per offset instead of 1024 inserts.
            if let Some(list) = self.ops.first() {
                for op in list {
                    fp.record_expr(op.pattern.writes(), &op.offset, self.ops.len());
                }
            }
        } else {
            for (p, list) in self.ops.iter().enumerate() {
                for op in list {
                    fp.record(p, op.pattern.writes(), op.offset.eval(p, offsets));
                }
            }
        }
        Some(fp)
    }
}

/// A bounded strided residue class of processor ids: the arithmetic
/// progression `{first, first + step, …, first + (count − 1)·step}` —
/// equivalently `{p ≡ first (mod step), first ≤ p ≤ max}`. The symbolic
/// footprint domain stores per-offset reader/writer sets as unions of
/// these classes, so membership, exclusive-writer and pairwise
/// disjointness stay *exact* at any processor count (the old `u64`
/// bitmask saturated into a conservative overflow bucket past p = 63).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProcClass {
    /// Smallest member.
    pub first: ProcId,
    /// Distance between consecutive members (≥ 1; irrelevant when
    /// `count == 1`).
    pub step: usize,
    /// Number of members (≥ 1).
    pub count: usize,
}

impl ProcClass {
    /// The one-processor class `{p}`.
    pub fn singleton(p: ProcId) -> Self {
        ProcClass {
            first: p,
            step: 1,
            count: 1,
        }
    }

    /// Largest member.
    pub fn max(&self) -> ProcId {
        self.first + (self.count - 1) * self.step
    }

    /// Exact membership test.
    pub fn contains(&self, p: ProcId) -> bool {
        p >= self.first
            && (p - self.first).is_multiple_of(self.step)
            && (p - self.first) / self.step < self.count
    }

    /// Iterate the members in increasing order.
    pub fn members(&self) -> impl Iterator<Item = ProcId> + '_ {
        (0..self.count).map(move |k| self.first + k * self.step)
    }

    /// Exact pairwise-disjointness test: whether the two bounded residue
    /// classes share any processor. Solved by the Chinese remainder
    /// theorem — `x ≡ first₁ (mod step₁)` and `x ≡ first₂ (mod step₂)`
    /// are simultaneously satisfiable iff `gcd(step₁, step₂)` divides
    /// `first₂ − first₁`, and then the least common solution is checked
    /// against both ranges. No enumeration, so it is exact and O(log)
    /// at n = 1024 just as at n = 4.
    pub fn intersects(&self, other: &ProcClass) -> bool {
        let (s1, s2) = (self.step as i128, other.step as i128);
        let (a1, a2) = (self.first as i128, other.first as i128);
        let (g, x, _) = ext_gcd(s1, s2);
        if (a2 - a1) % g != 0 {
            return false;
        }
        let lcm = s1 / g * s2;
        // x solves s1·x ≡ g (mod s2), so the least simultaneous member
        // ≥ a1 is a1 + s1·((a2 − a1)/g · x mod (s2/g)).
        let k = ((a2 - a1) / g % (s2 / g) * (x % (s2 / g))).rem_euclid(s2 / g);
        let mut sol = a1 + s1 * k;
        let lo = a1.max(a2);
        if sol < lo {
            sol += (lo - sol + lcm - 1) / lcm * lcm;
        }
        sol <= (self.max() as i128).min(other.max() as i128)
    }
}

/// Extended Euclid: returns `(g, x, y)` with `a·x + b·y = g = gcd(a, b)`.
fn ext_gcd(a: i128, b: i128) -> (i128, i128, i128) {
    if b == 0 {
        (a, 1, 0)
    } else {
        let (g, x, y) = ext_gcd(b, a % b);
        (g, y, x - a / b * y)
    }
}

fn gcd(a: usize, b: usize) -> usize {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

/// A finite processor set as a union of [`ProcClass`]es.
#[derive(Debug, Clone, Default)]
pub struct ProcSet {
    classes: Vec<ProcClass>,
}

impl ProcSet {
    /// Whether the set has no members.
    pub fn is_empty(&self) -> bool {
        self.classes.is_empty()
    }

    /// Exact membership test (linear in the class count, which the
    /// symbolic constructors keep at O(period), not O(n)).
    pub fn contains(&self, p: ProcId) -> bool {
        self.classes.iter().any(|c| c.contains(p))
    }

    /// The classes forming the union.
    pub fn classes(&self) -> &[ProcClass] {
        &self.classes
    }

    /// Insert one processor. Consecutive singletons coalesce into a
    /// run, so the common "record every processor in a loop"
    /// construction stays one class.
    fn insert(&mut self, p: ProcId) {
        if self.contains(p) {
            return;
        }
        for c in &mut self.classes {
            if p == c.first + c.count * c.step {
                c.count += 1;
                return;
            }
            if c.first >= c.step && p == c.first - c.step {
                c.first = p;
                c.count += 1;
                return;
            }
        }
        self.classes.push(ProcClass::singleton(p));
    }

    /// Insert a whole class (deduplicating fully-covered inserts).
    fn insert_class(&mut self, class: ProcClass) {
        if class.count == 0 {
            return;
        }
        if class.count == 1 {
            self.insert(class.first);
            return;
        }
        if self.classes.contains(&class) {
            return;
        }
        self.classes.push(class);
    }

    /// Exact pairwise-disjointness: whether the two sets share any
    /// processor.
    pub fn intersects(&self, other: &ProcSet) -> bool {
        self.classes
            .iter()
            .any(|a| other.classes.iter().any(|b| a.intersects(b)))
    }

    /// All members, sorted and deduplicated — the semantic value of the
    /// set, independent of which classes represent it.
    pub fn members_sorted(&self) -> Vec<ProcId> {
        let mut v: Vec<ProcId> = self.classes.iter().flat_map(|c| c.members()).collect();
        v.sort_unstable();
        v.dedup();
        v
    }
}

impl PartialEq for ProcSet {
    /// Semantic equality: same members, regardless of class structure.
    fn eq(&self, other: &Self) -> bool {
        self.members_sorted() == other.members_sorted()
    }
}

impl Eq for ProcSet {}

/// A typed out-of-range error from a footprint query: the offset is not
/// covered by the domain the footprint was built over. Callers must
/// surface this (admission rejects, the analyzer reports) instead of
/// receiving a silent `false` that could be misread as "no conflict".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FootprintError {
    /// The queried offset is ≥ the footprint's block count.
    OffsetOutOfRange {
        /// The offset asked about.
        offset: BlockOffset,
        /// The footprint's domain size.
        offsets: usize,
    },
}

impl std::fmt::Display for FootprintError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            FootprintError::OffsetOutOfRange { offset, offsets } => write!(
                f,
                "offset {offset} outside the footprint domain of {offsets} blocks"
            ),
        }
    }
}

impl std::error::Error for FootprintError {}

/// Per-offset reader/writer processor sets — the static access shape of
/// a program. Sets are symbolic unions of strided residue classes
/// ([`ProcClass`]), exact at any processor count.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Footprint {
    offsets: usize,
    /// `readers[o]` = processors that read block `o`.
    readers: Vec<ProcSet>,
    /// `writers[o]` = processors that run a write phase
    /// (write/swap/RMW) on block `o`.
    writers: Vec<ProcSet>,
}

impl Footprint {
    /// An empty footprint over `offsets` blocks.
    pub fn new(offsets: usize) -> Self {
        Footprint {
            offsets,
            readers: vec![ProcSet::default(); offsets],
            writers: vec![ProcSet::default(); offsets],
        }
    }

    /// Number of blocks the footprint is defined over.
    pub fn offsets(&self) -> usize {
        self.offsets
    }

    /// Record one access: processor `p` reads (or, with `writes`, runs a
    /// write phase on) block `offset`. Out-of-range offsets are ignored
    /// (the machine rejects them at issue anyway); processor ids are
    /// unbounded — there is no mask ceiling.
    pub fn record(&mut self, p: ProcId, writes: bool, offset: BlockOffset) {
        if offset >= self.offsets {
            return;
        }
        if writes {
            self.writers[offset].insert(p);
        } else {
            self.readers[offset].insert(p);
        }
    }

    /// Record a whole [`ProcClass`] of accessors at once — the symbolic
    /// constructor [`Footprint::record_expr`] builds on this, keeping
    /// the representation O(stride period) instead of O(n).
    pub fn record_class(&mut self, class: ProcClass, writes: bool, offset: BlockOffset) {
        if offset >= self.offsets || class.count == 0 {
            return;
        }
        if writes {
            self.writers[offset].insert_class(class);
        } else {
            self.readers[offset].insert_class(class);
        }
    }

    /// Record a symbolic [`OffsetExpr`] for *all* of `procs` processors
    /// in one pass: the accessor set of each touched offset is emitted
    /// directly as residue classes (`p ≡ r (mod offsets/gcd(stride,
    /// offsets))`), so a `ProcLinear` sweep at n = 1024 costs the stride
    /// period, not 1024 singleton inserts. Data-dependent expressions
    /// fall back to per-processor evaluation of the deterministic
    /// surrogate.
    pub fn record_expr(&mut self, writes: bool, expr: &OffsetExpr, procs: usize) {
        if procs == 0 || self.offsets == 0 {
            return;
        }
        match *expr {
            OffsetExpr::Const(o) => {
                self.record_class(
                    ProcClass {
                        first: 0,
                        step: 1,
                        count: procs,
                    },
                    writes,
                    o % self.offsets,
                );
            }
            OffsetExpr::ProcLinear { base, stride } => {
                // Offsets repeat in p with period `offsets / gcd`; the
                // processors landing on one offset form exactly one
                // residue class mod that period.
                let period = self.offsets / gcd(stride % self.offsets, self.offsets);
                for r in 0..period.min(procs) {
                    let class = ProcClass {
                        first: r,
                        step: period,
                        count: (procs - r).div_ceil(period),
                    };
                    self.record_class(class, writes, (base + stride * r) % self.offsets);
                }
            }
            OffsetExpr::DataDependent { .. } => {
                for p in 0..procs {
                    self.record(p, writes, expr.eval(p, self.offsets));
                }
            }
        }
    }

    /// The readers of `offset` as a symbolic set.
    pub fn readers_at(&self, offset: BlockOffset) -> Result<&ProcSet, FootprintError> {
        self.check(offset)?;
        Ok(&self.readers[offset])
    }

    /// The writers of `offset` as a symbolic set.
    pub fn writers_at(&self, offset: BlockOffset) -> Result<&ProcSet, FootprintError> {
        self.check(offset)?;
        Ok(&self.writers[offset])
    }

    fn check(&self, offset: BlockOffset) -> Result<(), FootprintError> {
        if offset >= self.offsets {
            return Err(FootprintError::OffsetOutOfRange {
                offset,
                offsets: self.offsets,
            });
        }
        Ok(())
    }

    /// Whether any processor touches `offset` at all. Out-of-range is a
    /// typed [`FootprintError`], never a silent `false` that could be
    /// misread as "no conflict".
    pub fn touches(&self, offset: BlockOffset) -> Result<bool, FootprintError> {
        self.check(offset)?;
        Ok(!self.readers[offset].is_empty() || !self.writers[offset].is_empty())
    }

    /// Whether any processor runs a write phase on `offset`.
    /// Out-of-range is a typed [`FootprintError`].
    pub fn written(&self, offset: BlockOffset) -> Result<bool, FootprintError> {
        self.check(offset)?;
        Ok(!self.writers[offset].is_empty())
    }
}

/// The artifact a static analysis produces: a footprint proven for a
/// specific machine geometry, plus the analyzer's ATT occupancy bound
/// and per-bank access counts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HazardSummary {
    processors: usize,
    banks: usize,
    footprint: Footprint,
    /// Upper bound on concurrent live entries in any single ATT proven
    /// by the analyzer (must be ≤ the hardware capacity `b − 1`).
    pub att_bound: usize,
    /// Static per-bank access counts over the analyzed program — the
    /// per-bank bandwidth footprint.
    pub per_bank_accesses: Vec<u64>,
}

impl HazardSummary {
    /// A summary for a machine with `processors` processors and `banks`
    /// banks, carrying the proven footprint. `att_bound` and
    /// `per_bank_accesses` default to zero (unknown); the analyzer
    /// fills them.
    pub fn new(processors: usize, banks: usize, footprint: Footprint) -> Self {
        HazardSummary {
            processors,
            banks,
            per_bank_accesses: vec![0; banks],
            att_bound: 0,
            footprint,
        }
    }

    /// Processor count the summary was proven for.
    pub fn processors(&self) -> usize {
        self.processors
    }

    /// Bank count the summary was proven for.
    pub fn banks(&self) -> usize {
        self.banks
    }

    /// Block count the summary was proven for.
    pub fn offsets(&self) -> usize {
        self.footprint.offsets()
    }

    /// The proven footprint.
    pub fn footprint(&self) -> &Footprint {
        &self.footprint
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::OpKind;

    #[test]
    fn offset_exprs_evaluate_and_classify() {
        assert_eq!(OffsetExpr::Const(9).eval(3, 8), 1);
        assert_eq!(OffsetExpr::ProcLinear { base: 2, stride: 3 }.eval(2, 16), 8);
        let d = OffsetExpr::DataDependent { seed: 7 };
        assert_eq!(d.eval(1, 8), d.eval(1, 8), "surrogate is deterministic");
        assert!(OffsetExpr::Const(0).statically_known());
        assert!(!d.statically_known());
    }

    #[test]
    fn disjoint_spec_footprint_has_exclusive_writers() {
        let spec = ProgramSpec::uniform(
            "disjoint",
            4,
            2,
            vec![
                OpSpec::new(
                    OpPattern::Read,
                    OffsetExpr::ProcLinear { base: 0, stride: 1 },
                ),
                OpSpec::new(
                    OpPattern::Write,
                    OffsetExpr::ProcLinear { base: 0, stride: 1 },
                ),
            ],
        );
        let fp = spec.footprint(8).expect("analyzable");
        for p in 0..4 {
            assert_eq!(fp.writers_at(p).unwrap().members_sorted(), vec![p]);
            assert_eq!(fp.readers_at(p).unwrap().members_sorted(), vec![p]);
        }
        assert!(!fp.touches(4).unwrap(), "blocks past the last processor");
    }

    #[test]
    fn shared_reads_and_shared_writes_are_recorded_apart() {
        let mut fp = Footprint::new(4);
        fp.record(0, false, 0);
        fp.record(1, false, 0);
        fp.record(0, true, 1);
        fp.record(1, true, 1);
        assert!(!fp.written(0).unwrap(), "read-only sharing");
        assert_eq!(fp.readers_at(0).unwrap().members_sorted(), vec![0, 1]);
        assert_eq!(fp.writers_at(1).unwrap().members_sorted(), vec![0, 1]);
    }

    #[test]
    fn data_dependent_spec_has_no_footprint() {
        let spec = ProgramSpec::uniform(
            "dyn",
            2,
            1,
            vec![OpSpec::new(
                OpPattern::Write,
                OffsetExpr::DataDependent { seed: 1 },
            )],
        );
        assert!(!spec.analyzable());
        assert!(spec.footprint(8).is_none());
        assert_eq!(spec.instantiate(0, 4, 8).len(), 1, "still runs dynamically");
    }

    #[test]
    fn instantiation_matches_footprint() {
        let spec = ProgramSpec::uniform(
            "mix",
            3,
            2,
            vec![
                OpSpec::new(
                    OpPattern::Swap,
                    OffsetExpr::ProcLinear { base: 1, stride: 2 },
                ),
                OpSpec::new(OpPattern::Read, OffsetExpr::Const(0)),
            ],
        );
        let fp = spec.footprint(16).unwrap();
        let mut dynamic = Footprint::new(16);
        for p in 0..3 {
            for op in spec.instantiate(p, 6, 16) {
                dynamic.record(p, op.kind() != OpKind::Read, op.offset());
            }
        }
        assert_eq!(fp, dynamic, "static footprint equals the executed one");
    }

    #[test]
    fn high_proc_ids_are_tracked_exactly() {
        // The old bitmask saturated past p = 63 into a conservative
        // "anyone" bucket; the symbolic domain stays exact.
        let mut fp = Footprint::new(2);
        fp.record(100, false, 0);
        assert!(fp.readers_at(0).unwrap().contains(100));
        assert!(!fp.readers_at(0).unwrap().contains(99));
        assert!(!fp.written(0).unwrap(), "p = 100 only reads");
        fp.record(777, true, 1);
        assert_eq!(fp.writers_at(1).unwrap().members_sorted(), vec![777]);
    }

    #[test]
    fn out_of_range_queries_are_typed_errors() {
        let fp = Footprint::new(4);
        let err = FootprintError::OffsetOutOfRange {
            offset: 4,
            offsets: 4,
        };
        assert_eq!(fp.writers_at(4).err(), Some(err));
        assert_eq!(fp.written(4), Err(err));
        assert_eq!(
            fp.touches(9),
            Err(FootprintError::OffsetOutOfRange {
                offset: 9,
                offsets: 4,
            })
        );
        assert!(err.to_string().contains("outside the footprint domain"));
    }

    #[test]
    fn symbolic_sweep_is_compact_and_exact_past_64_procs() {
        let n = 256;
        let spec = ProgramSpec::uniform(
            "sweep",
            n,
            1,
            vec![OpSpec::new(
                OpPattern::Write,
                OffsetExpr::ProcLinear { base: 0, stride: 1 },
            )],
        );
        let fp = spec.footprint(n).unwrap();
        for p in 0..n {
            let writers = fp.writers_at(p).unwrap();
            assert!(writers.contains(p), "own block written at p = {p}");
            assert!(!writers.contains((p + 1) % n));
        }
        // One residue class per offset — not n singletons.
        for o in 0..n {
            assert_eq!(fp.writers_at(o).unwrap().classes().len(), 1);
        }
    }

    #[test]
    fn record_expr_matches_per_proc_recording() {
        let n = 97; // prime, to exercise non-trivial residue periods
        for stride in [0, 1, 2, 3, 5, 8, 16] {
            let expr = OffsetExpr::ProcLinear { base: 3, stride };
            let mut sym = Footprint::new(16);
            sym.record_expr(true, &expr, n);
            let mut conc = Footprint::new(16);
            for p in 0..n {
                conc.record(p, true, expr.eval(p, 16));
            }
            assert_eq!(sym, conc, "stride {stride}");
        }
    }

    #[test]
    fn residue_class_intersection_is_exact() {
        let evens = ProcClass {
            first: 0,
            step: 2,
            count: 50,
        };
        let odds = ProcClass {
            first: 1,
            step: 2,
            count: 50,
        };
        let by3 = ProcClass {
            first: 3,
            step: 3,
            count: 20,
        };
        assert!(!evens.intersects(&odds), "disjoint residues");
        assert!(evens.intersects(&by3), "6 ∈ both");
        assert!(odds.intersects(&by3), "3 ∈ both");
        let far = ProcClass {
            first: 200,
            step: 2,
            count: 4,
        };
        assert!(
            !evens.intersects(&far),
            "same residue, disjoint ranges (evens end at 98)"
        );
        // Brute-force cross-check over a dense grid of class shapes.
        for (f1, s1, c1) in [(0, 1, 7), (2, 3, 5), (1, 4, 6), (5, 5, 3)] {
            for (f2, s2, c2) in [(0, 2, 9), (3, 3, 4), (2, 6, 3), (7, 1, 2)] {
                let a = ProcClass {
                    first: f1,
                    step: s1,
                    count: c1,
                };
                let b = ProcClass {
                    first: f2,
                    step: s2,
                    count: c2,
                };
                let brute = a.members().any(|p| b.contains(p));
                assert_eq!(a.intersects(&b), brute, "{a:?} vs {b:?}");
            }
        }
    }
}
