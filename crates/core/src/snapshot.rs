//! Checkpoint/restore: byte-stable, versioned machine snapshots.
//!
//! [`crate::machine::CfmMachine::checkpoint`] captures a running machine —
//! the committed memory image and writer stamps, every ATT entry
//! (including held/retrying ones), in-flight operations, undelivered
//! completions, statistics and the live fault state
//! ([`crate::fault::BankMap`] remaps/masks, pending transient retries
//! and response faults) — into a [`MachineSnapshot`].
//! The snapshot serialises to a *byte-stable* versioned format
//! ([`MachineSnapshot::to_bytes`]): same machine state, same bytes, on any
//! host. Restoring ([`MachineSnapshot::restore_into`]) rebuilds a machine
//! either with the **same shape** (bank count, processors, spares — the
//! engine and lane count may differ freely), which continues
//! byte-identically to the uninterrupted run, or with a **larger shape**
//! (more banks, more spares), which requires a quiescent snapshot and
//! materialises the logical memory image onto fresh healthy hardware.
//!
//! Every failure mode is a typed [`SnapshotError`] — truncated bytes, a
//! stale format version, a shape-incompatible ATT entry or in-flight
//! operation, a non-injective restore map — never a panic. See
//! `docs/checkpoint-restore.md` for the format, the versioning rules and
//! the migration state machine built on top in `cfm-serve`.

use std::fmt;

use crate::att::{Entry, PriorityMode, TrackKind};
use crate::config::{CfmConfig, ConfigError, Engine};
use crate::fault::{FaultEvent, FaultKind, MapConflict};
use crate::machine::CfmMachine;
use crate::op::{BlockTransform, Completion, OpKind, Outcome};
use crate::stats::Stats;
use crate::{BankId, BlockOffset, Cycle, ProcId, Word};

/// The snapshot format version this build writes and accepts.
///
/// Version history: 1 = initial format; 2 = appends the dynamic-window
/// counters (`dynamic_slots`, `dynamic_windows`) after `static_windows`;
/// 3 = drops the static-window counters (`static_slots`,
/// `static_windows`) and the trailing armed-summary block.
pub const SNAPSHOT_VERSION: u32 = 3;

/// Leading magic of every serialised snapshot.
pub const SNAPSHOT_MAGIC: [u8; 8] = *b"CFMSNAP\0";

/// Why a snapshot could not be decoded or restored. Every variant is a
/// typed refusal — restore never panics on bad input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// The byte stream ended before the structure it promised.
    Truncated {
        /// Bytes the decoder needed to make progress.
        needed: usize,
        /// Bytes actually available.
        have: usize,
    },
    /// The leading magic is not `CFMSNAP\0` — not a snapshot at all.
    BadMagic,
    /// The snapshot was written by an unsupported format version.
    VersionMismatch {
        /// Version found in the header.
        found: u32,
        /// The version this build supports.
        supported: u32,
    },
    /// A structurally invalid field (bad enum tag, inconsistent
    /// dimension, oversized length) — the named component is corrupt.
    Malformed {
        /// Which component failed to decode or validate.
        what: &'static str,
    },
    /// A live or held ATT entry cannot be carried into a machine of a
    /// different shape: entry lifetimes and arbitration windows are
    /// functions of the bank count. Drain the machine before a
    /// cross-shape restore.
    ShapeIncompatibleAtt {
        /// Logical bank whose ATT holds the entry.
        bank: BankId,
        /// The entry's owning processor.
        proc: ProcId,
        /// The block offset the entry tracks.
        offset: BlockOffset,
    },
    /// An in-flight operation cannot be carried into a machine of a
    /// different shape: its sweep position and buffers are sized by the
    /// bank count. Drain the machine before a cross-shape restore.
    ShapeIncompatibleOp {
        /// The processor whose operation is still in flight.
        proc: ProcId,
    },
    /// The target shape is smaller than the snapshot in the named
    /// dimension — state would be silently dropped.
    ShrinkingShape {
        /// The dimension that shrank (`"banks"`, `"processors"`, …).
        what: &'static str,
        /// The snapshot's size in that dimension.
        snapshot: usize,
        /// The target machine's size.
        target: usize,
    },
    /// The restore map is not injective: two live logical banks would
    /// share one physical bank, silently re-introducing the memory
    /// conflicts the whole design exists to exclude.
    InjectiveMapViolation(MapConflict),
    /// The shape parameters recorded in the snapshot do not form a valid
    /// machine configuration.
    BadConfig(ConfigError),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Truncated { needed, have } => {
                write!(f, "snapshot truncated: needed {needed} bytes, have {have}")
            }
            SnapshotError::BadMagic => write!(f, "not a CFM snapshot (bad magic)"),
            SnapshotError::VersionMismatch { found, supported } => write!(
                f,
                "snapshot format version {found} unsupported (this build reads {supported})"
            ),
            SnapshotError::Malformed { what } => write!(f, "malformed snapshot field: {what}"),
            SnapshotError::ShapeIncompatibleAtt { bank, proc, offset } => write!(
                f,
                "ATT entry (bank {bank}, processor {proc}, block {offset}) cannot cross a \
                 shape change — drain before a cross-shape restore"
            ),
            SnapshotError::ShapeIncompatibleOp { proc } => write!(
                f,
                "processor {proc} has an operation in flight — drain before a cross-shape restore"
            ),
            SnapshotError::ShrinkingShape {
                what,
                snapshot,
                target,
            } => write!(
                f,
                "target machine has fewer {what} ({target}) than the snapshot ({snapshot})"
            ),
            SnapshotError::InjectiveMapViolation(c) => {
                write!(f, "restore map is not injective: {c}")
            }
            SnapshotError::BadConfig(e) => write!(f, "snapshot records an invalid shape: {e}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

impl From<MapConflict> for SnapshotError {
    fn from(c: MapConflict) -> Self {
        SnapshotError::InjectiveMapViolation(c)
    }
}

impl From<ConfigError> for SnapshotError {
    fn from(e: ConfigError) -> Self {
        SnapshotError::BadConfig(e)
    }
}

/// One ATT's captured entries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct AttState {
    /// Live queue entries, oldest first (restore re-inserts in this
    /// order, reproducing the newest-first queue).
    pub(crate) live: Vec<Entry>,
    /// Entries pinned by fault-stalled write phases.
    pub(crate) held: Vec<Entry>,
}

/// One in-flight operation's full state, mirrored out of the machine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct InFlightState {
    pub(crate) kind: OpKind,
    pub(crate) offset: BlockOffset,
    pub(crate) write_data: Vec<Word>,
    pub(crate) transform: Option<BlockTransform>,
    /// Phase tag: 0 = read sweep, 1 = write sweep, 2 = pipeline drain.
    pub(crate) phase: u8,
    pub(crate) visited: usize,
    pub(crate) bank0_updated: bool,
    pub(crate) read_buf: Vec<Word>,
    pub(crate) observed_writers: Vec<u64>,
    pub(crate) issued_at: Cycle,
    pub(crate) restarts: u32,
    pub(crate) fault_retries: u32,
    pub(crate) op_id: u64,
    pub(crate) completes_at: Cycle,
    pub(crate) sleep_until: Cycle,
    pub(crate) held_entry: Option<(BankId, Cycle)>,
    pub(crate) outcome: Outcome,
    pub(crate) last_progress: Cycle,
}

/// A complete, self-contained checkpoint of a [`CfmMachine`].
///
/// Obtained from [`CfmMachine::checkpoint`]; serialised with
/// [`MachineSnapshot::to_bytes`] / [`MachineSnapshot::from_bytes`];
/// turned back into a machine with [`MachineSnapshot::restore`] (same
/// shape and engine as recorded) or [`MachineSnapshot::restore_into`]
/// (same or larger shape, any engine).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MachineSnapshot {
    // Shape.
    pub(crate) processors: usize,
    pub(crate) bank_cycle: u32,
    pub(crate) word_width: u32,
    pub(crate) spares: usize,
    pub(crate) engine: Engine,
    pub(crate) offsets: usize,
    // Modes.
    pub(crate) att_enabled: bool,
    pub(crate) mode: PriorityMode,
    /// Whether the source machine was tracing at checkpoint — restore
    /// resumes tracing (with an empty trace) when set. Recorded events
    /// are *not* part of the snapshot; take them with
    /// [`CfmMachine::drain_trace`] before checkpointing.
    pub(crate) tracing: bool,
    // Progress.
    pub(crate) cycle: Cycle,
    pub(crate) next_op_id: u64,
    pub(crate) stats: Stats,
    pub(crate) parallel_slots: u64,
    pub(crate) dynamic_slots: u64,
    pub(crate) dynamic_windows: u64,
    // Seeded-fault hooks.
    pub(crate) att_insert_drops: u64,
    pub(crate) retry_suppressions: u64,
    pub(crate) skip_remap_copy: bool,
    // Memory image (physical banks × offsets).
    pub(crate) bank_words: Vec<Vec<Word>>,
    pub(crate) writer_ids: Vec<Vec<u64>>,
    // Bank map.
    pub(crate) map: Vec<Option<usize>>,
    pub(crate) free_spares: Vec<usize>,
    // ATTs (one per logical bank).
    pub(crate) atts: Vec<AttState>,
    // Fault state.
    pub(crate) plan_seed: u64,
    pub(crate) plan_events: Vec<FaultEvent>,
    pub(crate) fault_next: usize,
    pub(crate) transient_until: Vec<Option<Cycle>>,
    pub(crate) pending_responses: Vec<Vec<FaultKind>>,
    // Operations.
    pub(crate) inflight: Vec<Option<InFlightState>>,
    pub(crate) done: Vec<Vec<Completion>>,
}

impl MachineSnapshot {
    /// Number of processors of the captured machine.
    pub fn processors(&self) -> usize {
        self.processors
    }

    /// Number of logical (scheduled) banks of the captured machine.
    pub fn banks(&self) -> usize {
        self.atts.len()
    }

    /// Configured spare banks of the captured machine.
    pub fn spares(&self) -> usize {
        self.spares
    }

    /// Blocks of shared memory per bank.
    pub fn offsets(&self) -> usize {
        self.offsets
    }

    /// The next cycle the captured machine would have simulated.
    pub fn cycle(&self) -> Cycle {
        self.cycle
    }

    /// The captured statistics.
    pub fn stats(&self) -> &Stats {
        &self.stats
    }

    /// Whether the captured machine was fully drained: no operation in
    /// flight and every ATT arbitration window (live and held) empty —
    /// the precondition for restoring into a machine of a different
    /// shape. Undelivered completions do *not* block: they are at rest
    /// and carried across the restore. Use
    /// [`crate::machine::CfmMachine::quiesce`] to reach this state —
    /// idling alone is not enough, because ATT entries outlive the
    /// operations that inserted them by up to `b − 1` slots.
    pub fn is_quiescent(&self) -> bool {
        self.inflight.iter().all(Option::is_none)
            && self
                .atts
                .iter()
                .all(|a| a.live.is_empty() && a.held.is_empty())
    }

    /// The captured machine's configuration, rebuilt from the recorded
    /// shape (processors, bank cycle, word width, spares, engine).
    pub fn config(&self) -> Result<CfmConfig, SnapshotError> {
        Ok(
            CfmConfig::new(self.processors, self.bank_cycle, self.word_width)?
                .with_spares(self.spares)?
                .with_engine(self.engine),
        )
    }

    /// Restore into a machine of exactly the recorded shape and engine —
    /// the continuation is byte-identical to the uninterrupted run
    /// (stats, memory, completions, trace events).
    pub fn restore(&self) -> Result<CfmMachine, SnapshotError> {
        self.restore_into(self.config()?)
    }

    /// Restore into a machine configured by `target`.
    ///
    /// *Same shape* (equal processors, bank cycle and spares; the engine,
    /// lane count and word width are free): everything is restored
    /// verbatim — in-flight operations, ATT entries (held ones
    /// included), the degraded bank map, pending fault retries — and
    /// the machine continues byte-identically.
    ///
    /// *Larger shape* (more banks and/or more spares): requires a
    /// [quiescent](Self::is_quiescent) snapshot. The surviving logical
    /// memory image is materialised onto fresh healthy hardware with an
    /// identity bank map (words of masked banks were lost and read as 0
    /// with the masked writer stamp; words of newly added banks carry
    /// the same stamp — absent, not a second writer tearing pre-restore
    /// blocks); the fault plan, statistics, cycle
    /// counter and seeded hooks carry over.
    ///
    /// Either path proves the restore map injective before returning —
    /// an aliased map is a typed
    /// [`SnapshotError::InjectiveMapViolation`], never a silent alias.
    pub fn restore_into(&self, target: CfmConfig) -> Result<CfmMachine, SnapshotError> {
        CfmMachine::restore_impl(self, target)
    }

    /// Serialise to the byte-stable versioned format: `CFMSNAP\0`, a
    /// `u32` version, then every field little-endian in fixed order.
    /// Equal snapshots render byte-identically.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut e = Enc::new();
        e.bytes(&SNAPSHOT_MAGIC);
        e.u32(SNAPSHOT_VERSION);
        e.usize(self.processors);
        e.u32(self.bank_cycle);
        e.u32(self.word_width);
        e.usize(self.spares);
        match self.engine {
            Engine::Sequential => e.u8(0),
            Engine::Parallel { threads } => {
                e.u8(1);
                e.usize(threads);
            }
        }
        e.usize(self.offsets);
        e.bool(self.att_enabled);
        e.u8(match self.mode {
            PriorityMode::LatestWins => 0,
            PriorityMode::EarliestWins => 1,
        });
        e.bool(self.tracing);
        e.u64(self.cycle);
        e.u64(self.next_op_id);
        enc_stats(&mut e, &self.stats);
        e.u64(self.parallel_slots);
        e.u64(self.dynamic_slots);
        e.u64(self.dynamic_windows);
        e.u64(self.att_insert_drops);
        e.u64(self.retry_suppressions);
        e.bool(self.skip_remap_copy);
        e.usize(self.bank_words.len());
        for row in &self.bank_words {
            e.words(row);
        }
        e.usize(self.writer_ids.len());
        for row in &self.writer_ids {
            e.words(row);
        }
        e.usize(self.map.len());
        for slot in &self.map {
            enc_opt_usize(&mut e, *slot);
        }
        e.usize(self.free_spares.len());
        for s in &self.free_spares {
            e.usize(*s);
        }
        e.usize(self.atts.len());
        for att in &self.atts {
            e.usize(att.live.len());
            for entry in &att.live {
                enc_entry(&mut e, entry);
            }
            e.usize(att.held.len());
            for entry in &att.held {
                enc_entry(&mut e, entry);
            }
        }
        e.u64(self.plan_seed);
        e.usize(self.plan_events.len());
        for ev in &self.plan_events {
            e.u64(ev.at_slot);
            enc_fault_kind(&mut e, &ev.kind);
        }
        e.usize(self.fault_next);
        e.usize(self.transient_until.len());
        for t in &self.transient_until {
            match t {
                Some(c) => {
                    e.u8(1);
                    e.u64(*c);
                }
                None => e.u8(0),
            }
        }
        e.usize(self.pending_responses.len());
        for q in &self.pending_responses {
            e.usize(q.len());
            for k in q {
                enc_fault_kind(&mut e, k);
            }
        }
        e.usize(self.inflight.len());
        for slot in &self.inflight {
            match slot {
                None => e.u8(0),
                Some(op) => {
                    e.u8(1);
                    enc_inflight(&mut e, op);
                }
            }
        }
        e.usize(self.done.len());
        for q in &self.done {
            e.usize(q.len());
            for c in q {
                enc_completion(&mut e, c);
            }
        }
        e.buf
    }

    /// Decode a snapshot serialised by [`Self::to_bytes`]. Truncation, a
    /// foreign magic, a stale version or any structurally invalid field
    /// is a typed [`SnapshotError`].
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, SnapshotError> {
        let mut d = Dec::new(bytes);
        let magic = d.bytes(8)?;
        if magic != SNAPSHOT_MAGIC {
            return Err(SnapshotError::BadMagic);
        }
        let version = d.u32()?;
        if version != SNAPSHOT_VERSION {
            return Err(SnapshotError::VersionMismatch {
                found: version,
                supported: SNAPSHOT_VERSION,
            });
        }
        let processors = d.usize()?;
        let bank_cycle = d.u32()?;
        let word_width = d.u32()?;
        let spares = d.usize()?;
        let engine = match d.u8()? {
            0 => Engine::Sequential,
            1 => Engine::Parallel {
                threads: d.usize()?,
            },
            _ => return Err(SnapshotError::Malformed { what: "engine tag" }),
        };
        let offsets = d.usize()?;
        let att_enabled = d.bool()?;
        let mode = match d.u8()? {
            0 => PriorityMode::LatestWins,
            1 => PriorityMode::EarliestWins,
            _ => {
                return Err(SnapshotError::Malformed {
                    what: "priority mode",
                })
            }
        };
        let tracing = d.bool()?;
        let cycle = d.u64()?;
        let next_op_id = d.u64()?;
        let stats = dec_stats(&mut d)?;
        let parallel_slots = d.u64()?;
        let dynamic_slots = d.u64()?;
        let dynamic_windows = d.u64()?;
        let att_insert_drops = d.u64()?;
        let retry_suppressions = d.u64()?;
        let skip_remap_copy = d.bool()?;
        let rows = d.len()?;
        let mut bank_words = Vec::with_capacity(rows);
        for _ in 0..rows {
            bank_words.push(d.words()?);
        }
        let rows = d.len()?;
        let mut writer_ids = Vec::with_capacity(rows);
        for _ in 0..rows {
            writer_ids.push(d.words()?);
        }
        let n = d.len()?;
        let mut map = Vec::with_capacity(n);
        for _ in 0..n {
            map.push(dec_opt_usize(&mut d)?);
        }
        let n = d.len()?;
        let mut free_spares = Vec::with_capacity(n);
        for _ in 0..n {
            free_spares.push(d.usize()?);
        }
        let n = d.len()?;
        let mut atts = Vec::with_capacity(n);
        for _ in 0..n {
            let live_n = d.len()?;
            let mut live = Vec::with_capacity(live_n);
            for _ in 0..live_n {
                live.push(dec_entry(&mut d)?);
            }
            let held_n = d.len()?;
            let mut held = Vec::with_capacity(held_n);
            for _ in 0..held_n {
                held.push(dec_entry(&mut d)?);
            }
            atts.push(AttState { live, held });
        }
        let plan_seed = d.u64()?;
        let n = d.len()?;
        let mut plan_events = Vec::with_capacity(n);
        for _ in 0..n {
            let at_slot = d.u64()?;
            let kind = dec_fault_kind(&mut d)?;
            plan_events.push(FaultEvent { at_slot, kind });
        }
        let fault_next = d.usize()?;
        let n = d.len()?;
        let mut transient_until = Vec::with_capacity(n);
        for _ in 0..n {
            transient_until.push(match d.u8()? {
                0 => None,
                1 => Some(d.u64()?),
                _ => {
                    return Err(SnapshotError::Malformed {
                        what: "transient tag",
                    })
                }
            });
        }
        let n = d.len()?;
        let mut pending_responses = Vec::with_capacity(n);
        for _ in 0..n {
            let q_n = d.len()?;
            let mut q = Vec::with_capacity(q_n);
            for _ in 0..q_n {
                q.push(dec_fault_kind(&mut d)?);
            }
            pending_responses.push(q);
        }
        let n = d.len()?;
        let mut inflight = Vec::with_capacity(n);
        for _ in 0..n {
            inflight.push(match d.u8()? {
                0 => None,
                1 => Some(dec_inflight(&mut d)?),
                _ => {
                    return Err(SnapshotError::Malformed {
                        what: "inflight tag",
                    })
                }
            });
        }
        let n = d.len()?;
        let mut done = Vec::with_capacity(n);
        for _ in 0..n {
            let q_n = d.len()?;
            let mut q = Vec::with_capacity(q_n);
            for _ in 0..q_n {
                q.push(dec_completion(&mut d)?);
            }
            done.push(q);
        }
        if !d.at_end() {
            return Err(SnapshotError::Malformed {
                what: "trailing bytes",
            });
        }
        Ok(MachineSnapshot {
            processors,
            bank_cycle,
            word_width,
            spares,
            engine,
            offsets,
            att_enabled,
            mode,
            tracing,
            cycle,
            next_op_id,
            stats,
            parallel_slots,
            dynamic_slots,
            dynamic_windows,
            att_insert_drops,
            retry_suppressions,
            skip_remap_copy,
            bank_words,
            writer_ids,
            map,
            free_spares,
            atts,
            plan_seed,
            plan_events,
            fault_next,
            transient_until,
            pending_responses,
            inflight,
            done,
        })
    }
}

// ---------------------------------------------------------------------
// Byte codec helpers: little-endian, fixed field order, no map iteration
// anywhere — equal values render byte-identically.

struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    fn new() -> Self {
        Enc { buf: Vec::new() }
    }

    fn bytes(&mut self, b: &[u8]) {
        self.buf.extend_from_slice(b);
    }

    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    fn bool(&mut self, v: bool) {
        self.u8(v as u8);
    }

    fn words(&mut self, ws: &[u64]) {
        self.usize(ws.len());
        for w in ws {
            self.u64(*w);
        }
    }
}

struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Dec { buf, pos: 0 }
    }

    fn need(&self, n: usize) -> Result<(), SnapshotError> {
        if self.pos.saturating_add(n) > self.buf.len() {
            Err(SnapshotError::Truncated {
                needed: self.pos.saturating_add(n),
                have: self.buf.len(),
            })
        } else {
            Ok(())
        }
    }

    fn bytes(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        self.need(n)?;
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, SnapshotError> {
        Ok(self.bytes(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, SnapshotError> {
        let b = self.bytes(4)?;
        Ok(u32::from_le_bytes(b.try_into().expect("4 bytes")))
    }

    fn u64(&mut self) -> Result<u64, SnapshotError> {
        let b = self.bytes(8)?;
        Ok(u64::from_le_bytes(b.try_into().expect("8 bytes")))
    }

    fn usize(&mut self) -> Result<usize, SnapshotError> {
        usize::try_from(self.u64()?).map_err(|_| SnapshotError::Malformed {
            what: "usize overflow",
        })
    }

    fn bool(&mut self) -> Result<bool, SnapshotError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(SnapshotError::Malformed { what: "bool tag" }),
        }
    }

    /// A length prefix, sanity-bounded by the remaining bytes (every
    /// element costs at least one byte) so corrupt input cannot force an
    /// absurd allocation.
    fn len(&mut self) -> Result<usize, SnapshotError> {
        let v = self.usize()?;
        if v > self.buf.len().saturating_sub(self.pos) {
            return Err(SnapshotError::Truncated {
                needed: self.pos.saturating_add(v),
                have: self.buf.len(),
            });
        }
        Ok(v)
    }

    fn words(&mut self) -> Result<Vec<u64>, SnapshotError> {
        let n = self.len()?;
        self.need(n.saturating_mul(8))?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(self.u64()?);
        }
        Ok(out)
    }

    fn at_end(&self) -> bool {
        self.pos == self.buf.len()
    }
}

fn enc_opt_usize(e: &mut Enc, v: Option<usize>) {
    match v {
        Some(x) => {
            e.u8(1);
            e.usize(x);
        }
        None => e.u8(0),
    }
}

fn dec_opt_usize(d: &mut Dec<'_>) -> Result<Option<usize>, SnapshotError> {
    match d.u8()? {
        0 => Ok(None),
        1 => Ok(Some(d.usize()?)),
        _ => Err(SnapshotError::Malformed { what: "option tag" }),
    }
}

fn enc_stats(e: &mut Enc, s: &Stats) {
    for v in [
        s.cycles,
        s.issued,
        s.completed,
        s.word_accesses,
        s.wasted_word_accesses,
        s.bank_conflicts,
        s.write_aborts,
        s.read_restarts,
        s.write_restarts,
        s.swap_restarts,
        s.torn_reads,
        s.faults_injected,
        s.fault_retries,
        s.fault_aborts,
        s.dropped_responses,
        s.corrupted_responses,
        s.bank_remaps,
        s.banks_masked,
        s.masked_accesses,
    ] {
        e.u64(v);
    }
}

fn dec_stats(d: &mut Dec<'_>) -> Result<Stats, SnapshotError> {
    let mut s = Stats::default();
    for field in [
        &mut s.cycles,
        &mut s.issued,
        &mut s.completed,
        &mut s.word_accesses,
        &mut s.wasted_word_accesses,
        &mut s.bank_conflicts,
        &mut s.write_aborts,
        &mut s.read_restarts,
        &mut s.write_restarts,
        &mut s.swap_restarts,
        &mut s.torn_reads,
        &mut s.faults_injected,
        &mut s.fault_retries,
        &mut s.fault_aborts,
        &mut s.dropped_responses,
        &mut s.corrupted_responses,
        &mut s.bank_remaps,
        &mut s.banks_masked,
        &mut s.masked_accesses,
    ] {
        *field = d.u64()?;
    }
    Ok(s)
}

fn enc_entry(e: &mut Enc, entry: &Entry) {
    e.usize(entry.offset);
    e.u8(match entry.kind {
        TrackKind::Write => 0,
        TrackKind::SwapWrite => 1,
    });
    e.usize(entry.proc);
    e.u64(entry.inserted_at);
}

fn dec_entry(d: &mut Dec<'_>) -> Result<Entry, SnapshotError> {
    let offset = d.usize()?;
    let kind = match d.u8()? {
        0 => TrackKind::Write,
        1 => TrackKind::SwapWrite,
        _ => return Err(SnapshotError::Malformed { what: "entry kind" }),
    };
    let proc = d.usize()?;
    let inserted_at = d.u64()?;
    Ok(Entry {
        offset,
        kind,
        proc,
        inserted_at,
    })
}

fn enc_fault_kind(e: &mut Enc, k: &FaultKind) {
    match *k {
        FaultKind::PermanentBankFailure { bank } => {
            e.u8(0);
            e.usize(bank);
        }
        FaultKind::TransientBankError { bank, repair_slot } => {
            e.u8(1);
            e.usize(bank);
            e.u64(repair_slot);
        }
        FaultKind::StuckSwitch {
            column,
            switch,
            state,
        } => {
            e.u8(2);
            e.u32(column);
            e.usize(switch);
            e.u8(state);
        }
        FaultKind::DroppedResponse { proc } => {
            e.u8(3);
            e.usize(proc);
        }
        FaultKind::CorruptedResponse { proc } => {
            e.u8(4);
            e.usize(proc);
        }
    }
}

fn dec_fault_kind(d: &mut Dec<'_>) -> Result<FaultKind, SnapshotError> {
    Ok(match d.u8()? {
        0 => FaultKind::PermanentBankFailure { bank: d.usize()? },
        1 => FaultKind::TransientBankError {
            bank: d.usize()?,
            repair_slot: d.u64()?,
        },
        2 => FaultKind::StuckSwitch {
            column: d.u32()?,
            switch: d.usize()?,
            state: d.u8()?,
        },
        3 => FaultKind::DroppedResponse { proc: d.usize()? },
        4 => FaultKind::CorruptedResponse { proc: d.usize()? },
        _ => return Err(SnapshotError::Malformed { what: "fault kind" }),
    })
}

fn enc_op_kind(e: &mut Enc, k: OpKind) {
    e.u8(match k {
        OpKind::Read => 0,
        OpKind::Write => 1,
        OpKind::Swap => 2,
        OpKind::Rmw => 3,
    });
}

fn dec_op_kind(d: &mut Dec<'_>) -> Result<OpKind, SnapshotError> {
    Ok(match d.u8()? {
        0 => OpKind::Read,
        1 => OpKind::Write,
        2 => OpKind::Swap,
        3 => OpKind::Rmw,
        _ => return Err(SnapshotError::Malformed { what: "op kind" }),
    })
}

fn enc_outcome(e: &mut Enc, o: Outcome) {
    e.u8(match o {
        Outcome::Completed => 0,
        Outcome::Overwritten => 1,
        Outcome::TransientFault => 2,
    });
}

fn dec_outcome(d: &mut Dec<'_>) -> Result<Outcome, SnapshotError> {
    Ok(match d.u8()? {
        0 => Outcome::Completed,
        1 => Outcome::Overwritten,
        2 => Outcome::TransientFault,
        _ => return Err(SnapshotError::Malformed { what: "outcome" }),
    })
}

fn enc_transform(e: &mut Enc, t: &BlockTransform) {
    match t {
        BlockTransform::FetchAdd { word, delta } => {
            e.u8(0);
            e.usize(*word);
            e.u64(*delta);
        }
        BlockTransform::TestAndSet { word } => {
            e.u8(1);
            e.usize(*word);
        }
        BlockTransform::MultipleTestAndSet { pattern } => {
            e.u8(2);
            e.words(pattern);
        }
        BlockTransform::ClearBits { pattern } => {
            e.u8(3);
            e.words(pattern);
        }
    }
}

fn dec_transform(d: &mut Dec<'_>) -> Result<BlockTransform, SnapshotError> {
    Ok(match d.u8()? {
        0 => BlockTransform::FetchAdd {
            word: d.usize()?,
            delta: d.u64()?,
        },
        1 => BlockTransform::TestAndSet { word: d.usize()? },
        2 => BlockTransform::MultipleTestAndSet {
            pattern: d.words()?.into_boxed_slice(),
        },
        3 => BlockTransform::ClearBits {
            pattern: d.words()?.into_boxed_slice(),
        },
        _ => return Err(SnapshotError::Malformed { what: "transform" }),
    })
}

fn enc_inflight(e: &mut Enc, op: &InFlightState) {
    enc_op_kind(e, op.kind);
    e.usize(op.offset);
    e.words(&op.write_data);
    match &op.transform {
        None => e.u8(0),
        Some(t) => {
            e.u8(1);
            enc_transform(e, t);
        }
    }
    e.u8(op.phase);
    e.usize(op.visited);
    e.bool(op.bank0_updated);
    e.words(&op.read_buf);
    e.words(&op.observed_writers);
    e.u64(op.issued_at);
    e.u32(op.restarts);
    e.u32(op.fault_retries);
    e.u64(op.op_id);
    e.u64(op.completes_at);
    e.u64(op.sleep_until);
    match op.held_entry {
        None => e.u8(0),
        Some((bank, at)) => {
            e.u8(1);
            e.usize(bank);
            e.u64(at);
        }
    }
    enc_outcome(e, op.outcome);
    e.u64(op.last_progress);
}

fn dec_inflight(d: &mut Dec<'_>) -> Result<InFlightState, SnapshotError> {
    let kind = dec_op_kind(d)?;
    let offset = d.usize()?;
    let write_data = d.words()?;
    let transform = match d.u8()? {
        0 => None,
        1 => Some(dec_transform(d)?),
        _ => {
            return Err(SnapshotError::Malformed {
                what: "transform tag",
            })
        }
    };
    let phase = d.u8()?;
    if phase > 2 {
        return Err(SnapshotError::Malformed { what: "phase tag" });
    }
    let visited = d.usize()?;
    let bank0_updated = d.bool()?;
    let read_buf = d.words()?;
    let observed_writers = d.words()?;
    let issued_at = d.u64()?;
    let restarts = d.u32()?;
    let fault_retries = d.u32()?;
    let op_id = d.u64()?;
    let completes_at = d.u64()?;
    let sleep_until = d.u64()?;
    let held_entry = match d.u8()? {
        0 => None,
        1 => Some((d.usize()?, d.u64()?)),
        _ => return Err(SnapshotError::Malformed { what: "held tag" }),
    };
    let outcome = dec_outcome(d)?;
    let last_progress = d.u64()?;
    Ok(InFlightState {
        kind,
        offset,
        write_data,
        transform,
        phase,
        visited,
        bank0_updated,
        read_buf,
        observed_writers,
        issued_at,
        restarts,
        fault_retries,
        op_id,
        completes_at,
        sleep_until,
        held_entry,
        outcome,
        last_progress,
    })
}

fn enc_completion(e: &mut Enc, c: &Completion) {
    e.usize(c.proc);
    enc_op_kind(e, c.kind);
    e.usize(c.offset);
    match &c.data {
        None => e.u8(0),
        Some(words) => {
            e.u8(1);
            e.words(words);
        }
    }
    e.u64(c.issued_at);
    e.u64(c.completed_at);
    e.u32(c.restarts);
    enc_outcome(e, c.outcome);
    e.bool(c.torn);
}

fn dec_completion(d: &mut Dec<'_>) -> Result<Completion, SnapshotError> {
    let proc = d.usize()?;
    let kind = dec_op_kind(d)?;
    let offset = d.usize()?;
    let data = match d.u8()? {
        0 => None,
        1 => Some(d.words()?.into_boxed_slice()),
        _ => return Err(SnapshotError::Malformed { what: "data tag" }),
    };
    let issued_at = d.u64()?;
    let completed_at = d.u64()?;
    let restarts = d.u32()?;
    let outcome = dec_outcome(d)?;
    let torn = d.bool()?;
    Ok(Completion {
        proc,
        kind,
        offset,
        data,
        issued_at,
        completed_at,
        restarts,
        outcome,
        torn,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::CfmMachine;
    use crate::op::Operation;

    fn cfg(n: usize, c: u32) -> CfmConfig {
        CfmConfig::new(n, c, 16).unwrap()
    }

    fn plan() -> crate::fault::FaultPlan {
        crate::fault::FaultPlan::new(vec![
            FaultEvent {
                at_slot: 2,
                kind: FaultKind::TransientBankError {
                    bank: 1,
                    repair_slot: 6,
                },
            },
            FaultEvent {
                at_slot: 4,
                kind: FaultKind::PermanentBankFailure { bank: 2 },
            },
        ])
    }

    fn seed_ops(m: &mut CfmMachine) {
        let b = m.config().banks();
        m.issue(0, Operation::write(3, vec![7; b])).unwrap();
        m.issue(1, Operation::write(3, vec![9; b])).unwrap();
        m.issue(2, Operation::read(3)).unwrap();
        m.issue(3, Operation::swap(5, vec![1; b])).unwrap();
    }

    fn drain(m: &mut CfmMachine, budget: u64) -> Vec<Completion> {
        let mut out = Vec::new();
        for _ in 0..budget {
            for p in 0..m.config().processors() {
                while let Some(c) = m.poll(p) {
                    out.push(c);
                }
            }
            if m.is_idle() {
                break;
            }
            m.step();
        }
        for p in 0..m.config().processors() {
            while let Some(c) = m.poll(p) {
                out.push(c);
            }
        }
        out
    }

    #[test]
    fn same_shape_restore_continues_byte_identically() {
        // Two identical machines under an active fault plan, racing
        // writes in flight. One runs straight through; the other is
        // checkpointed mid-run, serialised, decoded, restored, and
        // continued — every observable must match.
        let config = cfg(4, 1).with_spares(1).unwrap();
        let build = || {
            CfmMachine::builder(config)
                .offsets(8)
                .fault_plan(plan())
                .build()
        };
        let mut reference = build();
        let mut live = build();
        seed_ops(&mut reference);
        seed_ops(&mut live);
        for _ in 0..3 {
            reference.step();
            live.step();
        }
        let snap = live.checkpoint();
        let bytes = snap.to_bytes();
        let decoded = MachineSnapshot::from_bytes(&bytes).unwrap();
        assert_eq!(decoded, snap);
        assert_eq!(decoded.to_bytes(), bytes, "byte-stable codec");
        let mut restored = decoded.restore().unwrap();
        let tail_ref = drain(&mut reference, 10_000);
        let tail_restored = drain(&mut restored, 10_000);
        assert_eq!(tail_restored, tail_ref);
        assert_eq!(restored.stats(), reference.stats());
        assert_eq!(restored.cycle(), reference.cycle());
        for o in 0..8 {
            assert_eq!(restored.peek_block(o), reference.peek_block(o));
        }
    }

    #[test]
    fn corruption_is_caught_typed() {
        let m = CfmMachine::builder(cfg(4, 1)).offsets(8).build();
        let bytes = m.checkpoint().to_bytes();
        // Truncation at any boundary.
        assert!(matches!(
            MachineSnapshot::from_bytes(&bytes[..bytes.len() - 4]),
            Err(SnapshotError::Truncated { .. })
        ));
        assert!(matches!(
            MachineSnapshot::from_bytes(&bytes[..5]),
            Err(SnapshotError::Truncated { .. })
        ));
        // Foreign magic.
        let mut bad = bytes.clone();
        bad[0] = b'X';
        assert_eq!(
            MachineSnapshot::from_bytes(&bad),
            Err(SnapshotError::BadMagic)
        );
        // Stale format version.
        let mut stale = bytes.clone();
        stale[8..12].copy_from_slice(&99u32.to_le_bytes());
        assert_eq!(
            MachineSnapshot::from_bytes(&stale),
            Err(SnapshotError::VersionMismatch {
                found: 99,
                supported: SNAPSHOT_VERSION
            })
        );
    }

    #[test]
    fn version_two_images_are_refused_typed() {
        // Version 3 dropped the static-window counters and the armed
        // summary block, so a version-2 image no longer decodes: it is
        // refused by the version gate before any field is read.
        let mut m = CfmMachine::builder(cfg(4, 1)).offsets(8).build();
        seed_ops(&mut m);
        m.step();
        let bytes = m.checkpoint().to_bytes();
        assert_eq!(bytes[8..12], 3u32.to_le_bytes(), "this build writes v3");
        let decoded = MachineSnapshot::from_bytes(&bytes).unwrap();
        assert_eq!(decoded.to_bytes(), bytes, "byte-stable codec");
        let mut v2 = bytes.clone();
        v2[8..12].copy_from_slice(&2u32.to_le_bytes());
        assert_eq!(
            MachineSnapshot::from_bytes(&v2),
            Err(SnapshotError::VersionMismatch {
                found: 2,
                supported: 3
            })
        );
    }

    #[test]
    fn aliased_restore_map_is_refused() {
        let mut m = CfmMachine::builder(cfg(4, 1))
            .offsets(8)
            .inject(|inj| {
                inj.bank_alias(3, 1);
            })
            .build();
        let snap = m.checkpoint();
        assert!(matches!(
            snap.restore(),
            Err(SnapshotError::InjectiveMapViolation(_))
        ));
        // Cross-shape materialisation refuses the same alias (it would
        // merge two logical banks' words).
        assert!(matches!(
            snap.restore_into(cfg(8, 1)),
            Err(SnapshotError::InjectiveMapViolation(_))
        ));
        let _ = &mut m;
    }

    #[test]
    fn cross_shape_requires_quiescence() {
        // A read in flight (no ATT entry) → the in-flight detector.
        let mut m = CfmMachine::builder(cfg(4, 1)).offsets(8).build();
        m.issue(0, Operation::read(2)).unwrap();
        m.step();
        assert!(matches!(
            m.checkpoint().restore_into(cfg(8, 1)),
            Err(SnapshotError::ShapeIncompatibleOp { proc: 0 })
        ));
        // A write in flight (live ATT entry) → the ATT detector.
        let mut m = CfmMachine::builder(cfg(4, 1)).offsets(8).build();
        m.issue(1, Operation::write(2, vec![5; 4])).unwrap();
        m.step();
        assert!(matches!(
            m.checkpoint().restore_into(cfg(8, 1)),
            Err(SnapshotError::ShapeIncompatibleAtt {
                proc: 1,
                offset: 2,
                ..
            })
        ));
        // Same shape carries both without complaint.
        let snap = m.checkpoint();
        assert!(!snap.is_quiescent());
        assert!(snap.restore().is_ok());
    }

    #[test]
    fn cross_shape_growth_preserves_memory_and_serves() {
        let mut m = CfmMachine::builder(cfg(4, 1)).offsets(8).build();
        m.issue(0, Operation::write(2, vec![11, 12, 13, 14]))
            .unwrap();
        let _ = m.run(100).expect_idle();
        // Idle is not enough: the write's ATT entry outlives it.
        assert!(!m.is_quiescent());
        assert!(m.quiesce(100));
        let snap = m.checkpoint();
        assert!(snap.is_quiescent());
        let mut big = snap.restore_into(cfg(8, 1)).unwrap();
        assert_eq!(big.cycle(), m.cycle());
        assert_eq!(big.stats(), m.stats());
        let block = big.peek_block(2);
        assert_eq!(&block[..4], &[11, 12, 13, 14]);
        assert_eq!(&block[4..], &[0; 4]);
        // The grown machine serves reads of pre-migration data without
        // reporting a tear: the new banks' words are absent, not a
        // second writer.
        big.issue(1, Operation::read(2)).unwrap();
        let done = big.run(200).expect_idle();
        assert_eq!(done.len(), 1);
        assert!(!done[0].torn);
        assert_eq!(&done[0].data.as_deref().unwrap()[..4], &[11, 12, 13, 14]);
    }

    #[test]
    fn masked_bank_words_stay_lost_after_growth() {
        // Mask bank 2 (no spares), write through the degraded machine,
        // grow: the masked word reads 0 and is not reported torn.
        let mut m = CfmMachine::builder(cfg(4, 1))
            .offsets(8)
            .fault_plan(crate::fault::FaultPlan::single(
                1,
                FaultKind::PermanentBankFailure { bank: 2 },
            ))
            .build();
        m.issue(0, Operation::write(3, vec![5, 6, 7, 8])).unwrap();
        let _ = m.run(100).expect_idle();
        assert_eq!(m.stats().banks_masked, 1);
        assert!(m.quiesce(100));
        let snap = m.checkpoint();
        let mut big = snap.restore_into(cfg(8, 1)).unwrap();
        assert!(
            !big.bank_map().is_degraded(),
            "evacuated onto healthy hardware"
        );
        big.issue(0, Operation::read(3)).unwrap();
        let done = big.run(200).expect_idle();
        assert!(!done[0].torn);
        let data = done[0].data.as_deref().unwrap();
        assert_eq!(
            &data[..4],
            &[5, 6, 0, 8],
            "masked word lost, others durable"
        );
    }

    #[test]
    fn shrinking_shapes_are_refused() {
        let m = CfmMachine::builder(cfg(8, 1)).offsets(8).build();
        assert!(matches!(
            m.checkpoint().restore_into(cfg(4, 1)),
            Err(SnapshotError::ShrinkingShape { what: "banks", .. })
        ));
    }

    #[test]
    fn engine_change_is_a_same_shape_restore() {
        // Same processors/cycle/spares with a different engine restores
        // verbatim, mid-flight ops included.
        let mut m = CfmMachine::builder(cfg(4, 1)).offsets(8).build();
        seed_ops(&mut m);
        m.step();
        let snap = m.checkpoint();
        let parallel = cfg(4, 1).with_engine(Engine::Parallel { threads: 2 });
        let mut restored = snap.restore_into(parallel).unwrap();
        let tail_restored = drain(&mut restored, 10_000);
        let tail_ref = drain(&mut m, 10_000);
        assert_eq!(tail_restored, tail_ref, "engines are byte-identical");
    }
}
