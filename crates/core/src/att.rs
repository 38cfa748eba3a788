//! Address Tracking Tables (Chapter 4).
//!
//! The CFM lets two processors access the *same block* concurrently with
//! staggered bank orders, which can interleave their word writes and tear
//! the block (Fig 4.1). Each bank therefore carries an **Address Tracking
//! Table (ATT)**: an associative queue of `b − 1` entries that shifts one
//! position per slot. A write operation inserts its block offset into the
//! ATT of the *first* bank it updates; every subsequent word access of any
//! operation compares its offset against a priority-defined subset of the
//! local ATT and aborts or restarts on a match.
//!
//! ## Priority modes
//!
//! * [`PriorityMode::LatestWins`] — §4.1.2 verbatim: among competing
//!   same-block plain writes the **latest issued** completes; a write
//!   aborts when it detects a later-issued write. "Later" is decided by
//!   entry age: at the op's `(n+1)`-th word access, entries of age
//!   `1..=n−1` are later-issued, age `n` is a same-slot tie (compared
//!   until the op has updated bank 0 — Fig 4.4's tie-break), and ages
//!   `n+1..` are earlier. The abort is sound for *two* racing writes; we
//!   reproduce it as published, including its ≥ 3-writer caveat (see
//!   `EXPERIMENTS.md`).
//!
//! * [`PriorityMode::EarliestWins`] — the §4.2.1 regime required for
//!   atomic swap: the earlier-starting write phase wins and losers
//!   **restart** (Fig 4.6's actions: a plain write detecting a swap-write
//!   restarts, a swap detecting any write restarts whole, a swap's read
//!   phase restarts the swap). Concretely, a write-phase access defers to
//!   any live entry **inserted strictly before its own write phase
//!   began** (the paper's "earlier" age window), with same-slot ties
//!   broken by processor id. Three properties make this sound and live,
//!   proved in `DESIGN.md` §6 and exercised by the property tests:
//!
//!   1. *Pairwise detection is inescapable.* An op's read-phase and
//!      write-phase visits to a competitor's start bank are exactly `b`
//!      slots apart, and an ATT entry lives exactly `b` slots — so for
//!      any two overlapping operations, at least one lands inside the
//!      other's entry window and defers. Two sweeps that never detect
//!      each other are therefore strictly ordered per-bank (their
//!      per-bank time offsets are rigid), i.e. already serial.
//!   2. *Restart = back-off.* A loser sleeps until the blocking entry
//!      expires before re-sweeping. Immediate restarts can livelock: two
//!      writers' successive incarnations keep deferring to each other's
//!      *previous* entries.
//!   3. *Deference is acyclic.* An op only defers to write phases that
//!      started strictly before its own current phase (or tie with a
//!      smaller processor id), so the earliest active phase never defers
//!      and completes within `b` slots — progress.
//!
//!   Two deliberate deviations from the dissertation text, recorded in
//!   `EXPERIMENTS.md`: Fig 4.6f's plain-write abort is replaced by a
//!   restart (the abort relies on the detected winner overwriting the
//!   loser's data, which fails for ≥ 3 concurrent writers), and the tie
//!   break is by processor id rather than first-to-bank-0 (the bank-0
//!   rule can make both parties of a mixed tie/stale conflict defer at
//!   once).
//!
//! Reads compare **all** live entries and restart from the current bank
//! on any match, in both modes (§4.1.2, Fig 4.5).

use std::collections::VecDeque;

use crate::trace::{TraceEvent, TraceSink};
use crate::{BankId, BlockOffset, Cycle, ProcId};

/// What kind of write inserted an ATT entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrackKind {
    /// A plain block write.
    Write,
    /// The write phase of an atomic swap.
    SwapWrite,
}

/// One ATT entry: a write phase that started at this bank.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Entry {
    /// Block offset being written.
    pub offset: BlockOffset,
    /// Plain write or swap write.
    pub kind: TrackKind,
    /// Issuing processor (tie-break and self-match filter).
    pub proc: ProcId,
    /// Cycle the entry was inserted = the write phase's first access
    /// (age = now − inserted_at).
    pub inserted_at: Cycle,
}

/// Which competing write wins a same-block race.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PriorityMode {
    /// §4.1.2: latest-issued write wins (abort semantics); plain writes
    /// only.
    LatestWins,
    /// §4.2.1: earliest write phase wins (restart semantics); enables
    /// atomic swap.
    #[default]
    EarliestWins,
}

/// Result of an ATT comparison for a write-phase access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteVerdict {
    /// No conflicting entry: store the word.
    Proceed,
    /// Abort the operation; its block will be overwritten anyway
    /// (latest-wins mode only).
    Abort {
        /// The later-issued entry that outranks the aborting write.
        blocker: Entry,
    },
    /// Restart the operation after the blocking entry expires (for a
    /// swap, the whole swap restarts from its read phase).
    Restart {
        /// The conflicting entry that forced the restart.
        blocker: Entry,
    },
}

/// The Address Tracking Table of one memory bank.
#[derive(Debug, Clone)]
pub struct Att {
    entries: VecDeque<Entry>,
    /// Entries pinned by a fault-stalled write phase: the owner committed
    /// some words, hit a transient bank error, and is backing off. The
    /// partial block stays torn until the owner resumes, so its entry
    /// must keep arbitrating — held entries are exempt from [`Self::expire`]
    /// (in hardware the faulted controller freezes the valid bit instead
    /// of letting the queue shift the entry out).
    held: Vec<Entry>,
    /// Maximum entry age retained — `b − 1` in hardware.
    capacity: usize,
    /// Arbitrating-entry count per block offset (live queue + held), kept
    /// in sync by every insert/expire/remove/trim. The comparison paths
    /// ([`Self::read_conflict`], [`Self::write_verdict`],
    /// [`Self::contended_by_other`]) consult it first so the common case —
    /// no live entry for the accessed offset — is O(1) instead of a
    /// full-queue scan. A dense array indexed by offset (not a hash map):
    /// probes are a single bounds-checked load. Grown on demand;
    /// [`Self::with_offsets`] pre-sizes it.
    by_offset: Vec<u32>,
    /// No live entry expires before this slot: a lower bound on the
    /// oldest entry's expiry (`Cycle::MAX` for an empty queue), exact
    /// after every expiry pass. It lets [`Self::expire`] skip the queue
    /// in the slots where nothing can shift out. Removing an entry only
    /// delays the true expiry, so the bound stays valid.
    expires_at: Cycle,
}

impl Att {
    /// An ATT for a machine with `banks` memory banks (capacity `b − 1`).
    pub fn new(banks: usize) -> Self {
        Att {
            entries: VecDeque::with_capacity(banks.saturating_sub(1)),
            held: Vec::new(),
            capacity: banks.saturating_sub(1),
            by_offset: Vec::new(),
            expires_at: Cycle::MAX,
        }
    }

    /// [`Self::new`] with the offset index pre-sized for `offsets` block
    /// offsets, so the hot path never grows it mid-run.
    pub fn with_offsets(banks: usize, offsets: usize) -> Self {
        let mut att = Self::new(banks);
        att.by_offset = vec![0; offsets];
        att
    }

    /// Make [`Self::expires_at`] exact after an expiry pass: the oldest
    /// live entry expires once its age exceeds the capacity.
    fn refresh_expiry(&mut self) {
        self.expires_at = self
            .entries
            .back()
            .map_or(Cycle::MAX, |e| e.inserted_at + self.capacity as Cycle + 1);
    }

    fn index_add(&mut self, offset: BlockOffset) {
        if offset >= self.by_offset.len() {
            self.by_offset.resize(offset + 1, 0);
        }
        self.by_offset[offset] += 1;
    }

    fn index_sub(&mut self, offset: BlockOffset) {
        if let Some(n) = self.by_offset.get_mut(offset) {
            *n = n.saturating_sub(1);
        }
    }

    /// Whether any arbitrating entry (live or held) tracks this offset —
    /// O(1) via the offset index. The common no-contention case short-
    /// circuits every comparison path through here. The index alone
    /// answers, with no emptiness test of the queues first: it reads 0
    /// for an empty table, and whether a bank's queues are empty varies
    /// from access to access, so that branch mispredicts.
    #[inline]
    fn offset_tracked(&self, offset: BlockOffset) -> bool {
        self.by_offset.get(offset).is_some_and(|&n| n > 0)
    }

    /// Drop entries older than the capacity. The hardware queue shifts one
    /// slot per cycle; here age is computed from cycle numbers, so expiry
    /// is the only per-cycle maintenance.
    pub fn expire(&mut self, now: Cycle) {
        if now < self.expires_at {
            return;
        }
        while let Some(back) = self.entries.back() {
            if now.saturating_sub(back.inserted_at) > self.capacity as Cycle {
                let e = *back;
                self.entries.pop_back();
                self.index_sub(e.offset);
            } else {
                break;
            }
        }
        self.refresh_expiry();
    }

    /// [`Self::expire`] with every shifted-out entry recorded as a
    /// [`TraceEvent::AttExpire`] — the trace analyses use expiries to
    /// bound how long an entry could have arbitrated.
    pub fn expire_traced<S: TraceSink + ?Sized>(&mut self, now: Cycle, bank: BankId, sink: &mut S) {
        if now < self.expires_at {
            return;
        }
        while let Some(back) = self.entries.back() {
            if now.saturating_sub(back.inserted_at) > self.capacity as Cycle {
                let e = *back;
                self.entries.pop_back();
                self.index_sub(e.offset);
                sink.record(TraceEvent::AttExpire {
                    slot: now,
                    bank,
                    proc: e.proc,
                    offset: e.offset,
                });
            } else {
                break;
            }
        }
        self.refresh_expiry();
    }

    /// [`Self::insert`] with the insertion recorded as a
    /// [`TraceEvent::AttInsert`].
    pub fn insert_traced<S: TraceSink + ?Sized>(
        &mut self,
        entry: Entry,
        bank: BankId,
        op_id: u64,
        sink: &mut S,
    ) {
        sink.record(TraceEvent::AttInsert {
            slot: entry.inserted_at,
            bank,
            proc: entry.proc,
            offset: entry.offset,
            op_id,
        });
        self.insert(entry);
    }

    /// [`Self::remove`] with the withdrawal recorded as a
    /// [`TraceEvent::AttRemove`].
    #[allow(clippy::too_many_arguments)] // the trace context is wide
    pub fn remove_traced<S: TraceSink + ?Sized>(
        &mut self,
        offset: BlockOffset,
        proc: ProcId,
        inserted_at: Cycle,
        now: Cycle,
        bank: BankId,
        sink: &mut S,
    ) {
        sink.record(TraceEvent::AttRemove {
            slot: now,
            bank,
            proc,
            offset,
        });
        self.remove(offset, proc, inserted_at);
    }

    /// Insert the entry for a write phase starting at this bank this
    /// cycle.
    pub fn insert(&mut self, entry: Entry) {
        self.expires_at = self
            .expires_at
            .min(entry.inserted_at + self.capacity as Cycle + 1);
        self.entries.push_front(entry);
        self.index_add(entry.offset);
        // A bank receives at most one injection per slot, so at most one
        // insert per slot; capacity can still be exceeded transiently if
        // `expire` has not run this cycle, so trim defensively.
        while self.entries.len() > self.capacity + 1 {
            if let Some(e) = self.entries.pop_back() {
                self.index_sub(e.offset);
            }
        }
    }

    /// All live entries (newest first).
    pub fn entries(&self) -> impl Iterator<Item = &Entry> {
        self.entries.iter()
    }

    /// Remove the entry a restarting write phase inserted (it is no
    /// longer a competitor). Without this, a *stale* entry of an already
    /// backed-off write keeps killing other writers — with three or more
    /// writers the stale entries form a rock-paper-scissors cycle and the
    /// system livelocks. In hardware this is the aborting controller
    /// clearing its entry's valid bit.
    pub fn remove(&mut self, offset: BlockOffset, proc: ProcId, inserted_at: Cycle) {
        // Entries are unique by (offset, proc, inserted_at): a processor
        // runs one operation at a time and a write phase inserts exactly
        // once, so a single removal suffices — no need for the former
        // double full-queue `retain`. The offset index makes the common
        // miss (entry already expired) O(1).
        if !self.offset_tracked(offset) {
            return;
        }
        let matches =
            |e: &Entry| e.offset == offset && e.proc == proc && e.inserted_at == inserted_at;
        if let Some(i) = self.entries.iter().position(matches) {
            self.entries.remove(i);
            self.index_sub(offset);
        } else if let Some(i) = self.held.iter().position(matches) {
            self.held.remove(i);
            self.index_sub(offset);
        }
    }

    /// Pin the matching entry as **held**: its owner's write phase is
    /// fault-stalled with words already committed, so the entry must keep
    /// arbitrating (readers restart, later writers defer) past its normal
    /// `b − 1`-slot lifetime — until the owner resumes and re-inserts a
    /// fresh entry, completes, or abandons the operation, all of which
    /// release it via [`Self::remove`]. A withdrawn-and-expired entry here
    /// would let a concurrent sweep observe the torn half-written block.
    pub fn hold(&mut self, offset: BlockOffset, proc: ProcId, inserted_at: Cycle) {
        let mut i = 0;
        while i < self.entries.len() {
            let e = self.entries[i];
            if e.offset == offset && e.proc == proc && e.inserted_at == inserted_at {
                self.entries.remove(i);
                self.held.push(e);
            } else {
                i += 1;
            }
        }
    }

    /// The entries currently pinned by fault-stalled write phases.
    pub fn held_entries(&self) -> &[Entry] {
        &self.held
    }

    /// Re-pin a held entry captured by a snapshot. Unlike [`Self::hold`]
    /// — which moves an already-indexed live entry — this entry comes
    /// from outside the queue, so the offset index must be bumped here.
    pub(crate) fn restore_held(&mut self, entry: Entry) {
        self.held.push(entry);
        self.index_add(entry.offset);
    }

    /// All arbitrating entries: the live queue plus any held ones.
    fn arbitrating(&self) -> impl Iterator<Item = &Entry> {
        self.entries.iter().chain(self.held.iter())
    }

    /// Whether an arbitrating entry for `offset` from a processor other
    /// than `me` exists, at any age (including a same-slot insertion).
    ///
    /// This is the parallel engine's *hazard probe*: the one-pass step may
    /// only run a processor's access in place if the target bank's ATT is
    /// provably indifferent to it — no same-offset entry from anyone else,
    /// so every comparison ([`Self::read_conflict`],
    /// [`Self::write_verdict`]) is statically `None`/`Proceed` and no
    /// restart/abort/hold can reach across banks. O(1) on the offset
    /// index for the common uncontended case.
    pub fn contended_by_other(&self, offset: BlockOffset, me: ProcId) -> bool {
        if !self.offset_tracked(offset) {
            return false;
        }
        self.arbitrating()
            .any(|e| e.offset == offset && e.proc != me)
    }

    /// Whether any same-offset write entry from another processor is live,
    /// regardless of age — the read-operation comparison (§4.1.2: "the
    /// accessing address of the read operation needs to be compared with
    /// all the entries").
    pub fn read_conflict(&self, offset: BlockOffset, me: ProcId, now: Cycle) -> Option<Entry> {
        if !self.offset_tracked(offset) {
            return None;
        }
        self.arbitrating()
            .find(|e| e.offset == offset && e.proc != me && now > e.inserted_at)
            .copied()
    }

    /// Find a same-offset entry from another processor with age in
    /// `lo ..= hi` (inclusive, in slots).
    fn find_in_ages(
        &self,
        offset: BlockOffset,
        me: ProcId,
        now: Cycle,
        lo: u64,
        hi: u64,
    ) -> Option<Entry> {
        if lo > hi || !self.offset_tracked(offset) {
            return None;
        }
        self.entries
            .iter()
            .filter(|e| e.offset == offset && e.proc != me)
            .find(|e| {
                let age = now.saturating_sub(e.inserted_at);
                age >= lo && age <= hi
            })
            .copied()
    }

    /// Invariant hook: the structural properties the hardware shift queue
    /// guarantees — used by `cfm-verify` and the machine's debug checks.
    ///
    /// * entries are ordered newest-first (`inserted_at` non-increasing),
    ///   mirroring the shift-register order;
    /// * after [`Self::expire`], no entry is older than the capacity
    ///   (`b − 1` slots);
    /// * at most one in-flight insertion beyond capacity is buffered.
    pub fn check_shift_invariant(&self, now: Cycle) -> Result<(), String> {
        let mut prev: Option<Cycle> = None;
        for e in &self.entries {
            if let Some(p) = prev {
                if e.inserted_at > p {
                    return Err(format!(
                        "ATT order violated: entry at cycle {} follows entry at cycle {}",
                        e.inserted_at, p
                    ));
                }
            }
            prev = Some(e.inserted_at);
            let age = now.saturating_sub(e.inserted_at);
            if age > self.capacity as Cycle + 1 {
                return Err(format!(
                    "ATT entry from cycle {} outlived the queue (age {} > capacity {})",
                    e.inserted_at, age, self.capacity
                ));
            }
        }
        if self.entries.len() > self.capacity + 1 {
            return Err(format!(
                "ATT holds {} entries, capacity {}",
                self.entries.len(),
                self.capacity
            ));
        }
        // Full recount of the offset index — O(offsets + entries), so the
        // release hot paths (which call this from the verify soaks' inner
        // loops) never pay it; debug and test builds still cross-check
        // every structural mutation.
        #[cfg(any(debug_assertions, test))]
        {
            let mut counts = vec![0u32; self.by_offset.len()];
            for e in self.arbitrating() {
                if e.offset >= counts.len() {
                    counts.resize(e.offset + 1, 0);
                }
                counts[e.offset] += 1;
            }
            let padded = |v: &[u32], len: usize| {
                let mut v = v.to_vec();
                v.resize(len.max(v.len()), 0);
                v
            };
            let len = counts.len().max(self.by_offset.len());
            if padded(&counts, len) != padded(&self.by_offset, len) {
                return Err(format!(
                    "ATT offset index out of sync: actual {:?}, index {:?}",
                    counts, self.by_offset
                ));
            }
        }
        Ok(())
    }

    /// Verdict for a write-phase word access.
    ///
    /// * `n` — banks already updated by the current write phase,
    /// * `bank0_updated` — whether the op has updated bank 0 (§4.1.2's
    ///   simultaneous-write tie-break; latest-wins only),
    /// * `phase_start` — the cycle the current write phase made its first
    ///   access (earliest-wins only; equals `now − n` since write-phase
    ///   accesses are consecutive).
    #[allow(clippy::too_many_arguments)] // mirrors the hardware's inputs
    pub fn write_verdict(
        &self,
        mode: PriorityMode,
        offset: BlockOffset,
        me: ProcId,
        now: Cycle,
        n: u64,
        bank0_updated: bool,
        phase_start: Cycle,
    ) -> WriteVerdict {
        match mode {
            PriorityMode::LatestWins => {
                // Comparing set: first n entries (ages 1..=n) before bank 0
                // is updated, first n−1 after (§4.1.2's algorithm).
                let hi = if bank0_updated {
                    n.saturating_sub(1)
                } else {
                    n
                };
                match self.find_in_ages(offset, me, now, 1, hi) {
                    Some(blocker) => WriteVerdict::Abort { blocker },
                    None => WriteVerdict::Proceed,
                }
            }
            PriorityMode::EarliestWins => {
                // Defer to any live entry from a write phase that started
                // strictly before ours, or in the same slot with a lower
                // processor id. Later-starting phases are invisible: their
                // owners will defer when they meet our entry — and they
                // must meet it, because their read- and write-phase visits
                // to our start bank straddle exactly the entry's lifetime.
                // Held (fault-stalled) entries always count as earlier.
                if !self.offset_tracked(offset) {
                    return WriteVerdict::Proceed;
                }
                let blocker = self
                    .arbitrating()
                    .filter(|e| e.offset == offset && e.proc != me && now > e.inserted_at)
                    .find(|e| {
                        e.inserted_at < phase_start || (e.inserted_at == phase_start && e.proc < me)
                    })
                    .copied();
                match blocker {
                    Some(blocker) => WriteVerdict::Restart { blocker },
                    None => WriteVerdict::Proceed,
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(offset: usize, kind: TrackKind, proc: usize, at: Cycle) -> Entry {
        Entry {
            offset,
            kind,
            proc,
            inserted_at: at,
        }
    }

    #[test]
    fn entries_expire_after_b_minus_1_slots() {
        let mut att = Att::new(8);
        att.insert(entry(3, TrackKind::Write, 0, 10));
        att.expire(17); // age 7 = b−1: still live
        assert_eq!(att.entries().count(), 1);
        att.expire(18); // age 8: gone
        assert_eq!(att.entries().count(), 0);
    }

    #[test]
    fn read_conflict_sees_all_live_ages() {
        let mut att = Att::new(8);
        att.insert(entry(3, TrackKind::Write, 1, 10));
        assert!(att.read_conflict(3, 0, 11).is_some());
        assert!(att.read_conflict(3, 0, 17).is_some());
        assert!(att.read_conflict(4, 0, 11).is_none()); // other offset
        assert!(att.read_conflict(3, 1, 11).is_none()); // own entry
        assert!(att.read_conflict(3, 0, 10).is_none()); // same-cycle insert invisible
    }

    #[test]
    fn latest_wins_abort_window() {
        // Write W at visit n = 4 (first access 4 slots ago). A later write
        // that started here 2 slots ago must abort W; one that started 6
        // slots ago (earlier-issued) must not.
        let mut att = Att::new(8);
        att.insert(entry(5, TrackKind::Write, 1, 18)); // age 2 at now=20
        assert!(matches!(
            att.write_verdict(PriorityMode::LatestWins, 5, 0, 20, 4, false, 16),
            WriteVerdict::Abort { blocker } if blocker.proc == 1
        ));
        let mut att = Att::new(8);
        att.insert(entry(5, TrackKind::Write, 1, 14)); // age 6 at now=20
        assert_eq!(
            att.write_verdict(PriorityMode::LatestWins, 5, 0, 20, 4, false, 16),
            WriteVerdict::Proceed
        );
    }

    #[test]
    fn latest_wins_tie_break_on_bank0() {
        // Simultaneous writes: the age-n entry is compared only until the
        // current op has updated bank 0 (Fig 4.4).
        let mut att = Att::new(8);
        att.insert(entry(5, TrackKind::Write, 1, 16)); // age 4 at now=20
        assert!(matches!(
            att.write_verdict(PriorityMode::LatestWins, 5, 0, 20, 4, false, 16),
            WriteVerdict::Abort { .. }
        ));
        assert_eq!(
            att.write_verdict(PriorityMode::LatestWins, 5, 0, 20, 4, true, 16),
            WriteVerdict::Proceed
        );
    }

    #[test]
    fn earliest_wins_defers_to_earlier_phase_starts() {
        let mut att = Att::new(8);
        att.insert(entry(5, TrackKind::Write, 1, 14)); // phase started at 14
                                                       // My phase started at 16: theirs is earlier → restart.
        assert!(matches!(
            att.write_verdict(PriorityMode::EarliestWins, 5, 0, 20, 4, false, 16),
            WriteVerdict::Restart { .. }
        ));
        // My phase started at 12: theirs is later → invisible, proceed.
        assert_eq!(
            att.write_verdict(PriorityMode::EarliestWins, 5, 0, 20, 8, false, 12),
            WriteVerdict::Proceed
        );
    }

    #[test]
    fn earliest_wins_tie_broken_by_processor_id() {
        let mut att = Att::new(8);
        att.insert(entry(5, TrackKind::Write, 1, 14)); // proc 1, phase 14
                                                       // Same phase start, I am proc 0 < 1 → I win the tie.
        assert_eq!(
            att.write_verdict(PriorityMode::EarliestWins, 5, 0, 20, 6, false, 14),
            WriteVerdict::Proceed
        );
        // Same phase start, I am proc 2 > 1 → I defer.
        assert!(matches!(
            att.write_verdict(PriorityMode::EarliestWins, 5, 2, 20, 6, false, 14),
            WriteVerdict::Restart { .. }
        ));
    }

    #[test]
    fn earliest_wins_swap_entries_block_like_writes() {
        let mut att = Att::new(8);
        att.insert(entry(5, TrackKind::SwapWrite, 1, 10));
        assert!(matches!(
            att.write_verdict(PriorityMode::EarliestWins, 5, 0, 15, 3, false, 12),
            WriteVerdict::Restart { .. }
        ));
    }

    #[test]
    fn different_offsets_never_conflict() {
        let mut att = Att::new(8);
        att.insert(entry(7, TrackKind::SwapWrite, 1, 14));
        for mode in [PriorityMode::LatestWins, PriorityMode::EarliestWins] {
            assert_eq!(
                att.write_verdict(mode, 5, 0, 20, 4, false, 16),
                WriteVerdict::Proceed
            );
        }
    }

    #[test]
    fn shift_invariant_holds_through_insert_and_expire() {
        let mut att = Att::new(8);
        for t in 0..20u64 {
            att.expire(t);
            if t % 3 == 0 {
                att.insert(entry(
                    (t % 5) as usize,
                    TrackKind::Write,
                    (t % 4) as usize,
                    t,
                ));
            }
            assert_eq!(att.check_shift_invariant(t), Ok(()));
        }
    }

    #[test]
    fn shift_invariant_rejects_missed_expiry() {
        let mut att = Att::new(4);
        att.insert(entry(1, TrackKind::Write, 0, 0));
        // 10 cycles later without expire(): the entry has outlived the
        // hardware queue, which shifts it out after b − 1 slots.
        assert!(att.check_shift_invariant(10).is_err());
    }

    #[test]
    fn held_entries_survive_expiry_and_keep_arbitrating() {
        let mut att = Att::new(4);
        att.insert(entry(3, TrackKind::Write, 1, 10));
        att.hold(3, 1, 10);
        att.expire(100); // far past the b − 1 lifetime
        assert_eq!(att.held_entries().len(), 1);
        assert!(att.read_conflict(3, 0, 100).is_some());
        assert!(matches!(
            att.write_verdict(PriorityMode::EarliestWins, 3, 0, 100, 0, false, 99),
            WriteVerdict::Restart { .. }
        ));
        assert_eq!(att.check_shift_invariant(100), Ok(()));
        att.remove(3, 1, 10);
        assert!(att.held_entries().is_empty());
        assert!(att.read_conflict(3, 0, 100).is_none());
    }

    #[test]
    fn remove_drops_exactly_the_identified_entry() {
        // Removal is keyed on the full (offset, proc, inserted_at)
        // identity: same-offset entries from other processors or other
        // phase starts must survive, whether live or held.
        let mut att = Att::new(8);
        att.insert(entry(5, TrackKind::Write, 0, 10));
        att.insert(entry(5, TrackKind::Write, 1, 11));
        att.insert(entry(5, TrackKind::SwapWrite, 0, 12));
        att.insert(entry(6, TrackKind::Write, 0, 13));
        att.remove(5, 0, 10);
        let left: Vec<_> = att.entries().copied().collect();
        assert_eq!(
            left,
            vec![
                entry(6, TrackKind::Write, 0, 13),
                entry(5, TrackKind::SwapWrite, 0, 12),
                entry(5, TrackKind::Write, 1, 11),
            ]
        );
        // Mismatched identity fields are no-ops.
        att.remove(5, 1, 12); // proc 1 inserted at 11, not 12
        att.remove(7, 0, 13); // offset never inserted
        assert_eq!(att.entries().count(), 3);
        // Held entries are removable by the same identity.
        att.hold(5, 1, 11);
        assert_eq!(att.held_entries().len(), 1);
        att.remove(5, 1, 11);
        assert!(att.held_entries().is_empty());
        assert_eq!(att.entries().count(), 2);
        assert_eq!(att.check_shift_invariant(13), Ok(()));
    }

    #[test]
    fn contended_by_other_tracks_live_and_held_entries() {
        let mut att = Att::new(8);
        assert!(!att.contended_by_other(3, 0));
        att.insert(entry(3, TrackKind::Write, 1, 10));
        assert!(att.contended_by_other(3, 0));
        assert!(!att.contended_by_other(3, 1)); // own entry is not a hazard
        assert!(!att.contended_by_other(4, 0)); // other offset
        att.hold(3, 1, 10);
        att.expire(100); // held entries outlive expiry and still arbitrate
        assert!(att.contended_by_other(3, 0));
        att.remove(3, 1, 10);
        assert!(!att.contended_by_other(3, 0));
    }

    #[test]
    fn offset_index_stays_consistent_through_churn() {
        // The invariant check cross-validates the offset index against the
        // actual queues; drive every mutation path and keep it green.
        let mut att = Att::new(4);
        for t in 0..40u64 {
            att.expire(t);
            att.insert(entry(
                (t % 3) as usize,
                TrackKind::Write,
                (t % 5) as usize,
                t,
            ));
            if t % 7 == 0 {
                att.hold((t % 3) as usize, (t % 5) as usize, t);
            }
            if t % 11 == 0 && t > 0 {
                att.remove(((t - 1) % 3) as usize, ((t - 1) % 5) as usize, t - 1);
            }
            assert_eq!(att.check_shift_invariant(t), Ok(()));
        }
    }

    #[test]
    fn same_cycle_insertions_are_invisible() {
        // An entry inserted this cycle is not compared (the hardware
        // compares against the shifted queue of prior slots); ties are
        // resolved at the next visits.
        let mut att = Att::new(8);
        att.insert(entry(5, TrackKind::Write, 1, 20));
        assert_eq!(
            att.write_verdict(PriorityMode::EarliestWins, 5, 0, 20, 0, false, 20),
            WriteVerdict::Proceed
        );
    }
}
