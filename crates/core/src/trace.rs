//! Structured execution traces — the event layer the `cfm-verify trace`
//! analyses consume.
//!
//! The static verifier proves schedule properties of the *abstract*
//! AT-space; this module records what the *executed* machine actually
//! does, one [`TraceEvent`] per observable micro-step, each stamped with
//! its time slot. The [`crate::machine::CfmMachine`] (and the machines
//! layered on it) thread a [`TraceSink`] through the schedule
//! ([`crate::atspace`]), the banks ([`crate::bank`]), the Address
//! Tracking Tables ([`crate::att`]) and the slot-sharing frontend
//! ([`crate::slotshare`]); `cfm-net`'s synchronous omega emits
//! [`TraceEvent::NetRoute`] hops for the physical switch path.
//!
//! Downstream, `cfm-verify` rebuilds happens-before order, word-access
//! interleavings, per-bank injection schedules and ATT arbitration
//! decisions from these events — closing the loop between the schedule
//! proofs and execution-level evidence.
//!
//! Tracing is opt-in and zero-cost when off: machines hold an
//! `Option<MemoryTrace>` and pass a [`NullSink`] when it is `None`.

use crate::fault::FaultKind;
use crate::op::OpKind;
use crate::{BankId, BlockOffset, Cycle, ProcId, Word};

/// Why an ATT comparison forced an operation off the banks — the
/// "merge"/arbitration outcomes of Chapter 4.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MergeAction {
    /// A read-phase access matched a live write entry and the read (or
    /// the whole swap/RMW) restarts (Fig 4.5, Fig 4.6a).
    ReadRestart,
    /// A write-phase access deferred to an earlier write phase and
    /// restarts after back-off (§4.2.1, earliest-wins).
    WriteRestart,
    /// A write-phase access detected a later-issued write and aborts
    /// (§4.1.2, latest-wins).
    WriteAbort,
}

impl MergeAction {
    /// Stable lowercase label used in reports and witnesses.
    pub fn label(self) -> &'static str {
        match self {
            MergeAction::ReadRestart => "read-restart",
            MergeAction::WriteRestart => "write-restart",
            MergeAction::WriteAbort => "write-abort",
        }
    }
}

/// One observable micro-step of an executing machine, stamped with the
/// time slot in which it happened.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceEvent {
    /// An operation was accepted by a processor's issue port.
    Issue {
        /// Slot of acceptance (first word access happens at `slot`… or
        /// later, never before).
        slot: Cycle,
        /// Issuing processor.
        proc: ProcId,
        /// Unique operation id (the tear checker's writer-id stamp).
        op_id: u64,
        /// Operation kind.
        kind: OpKind,
        /// Block offset targeted.
        offset: BlockOffset,
    },
    /// The AT-space schedule routed a processor's address injection to a
    /// bank: `bank = (slot + c·proc) mod b`. Emitted once per injection,
    /// whether or not the access proceeds past the ATT comparison.
    Route {
        /// Injection slot.
        slot: Cycle,
        /// Injecting processor.
        proc: ProcId,
        /// Bank selected by the schedule.
        bank: BankId,
    },
    /// The physical path the synchronous omega network realizes for an
    /// injection — the switch-state walk, as opposed to the arithmetic
    /// shortcut behind [`TraceEvent::Route`].
    NetRoute {
        /// Slot of the walk.
        slot: Cycle,
        /// Input port (the processor).
        input: usize,
        /// Output port the switch states deliver the address to.
        output: usize,
    },
    /// A word was actually read from or written to a bank.
    BankAccess {
        /// Access slot.
        slot: Cycle,
        /// Accessing processor.
        proc: ProcId,
        /// Bank accessed.
        bank: BankId,
        /// Block offset.
        offset: BlockOffset,
        /// Operation id of the accessor.
        op_id: u64,
        /// `true` = write, `false` = read.
        write: bool,
        /// The word read or written.
        word: Word,
    },
    /// A write phase inserted its entry into the ATT of its first bank.
    AttInsert {
        /// Insertion slot.
        slot: Cycle,
        /// Bank whose ATT received the entry.
        bank: BankId,
        /// Writing processor.
        proc: ProcId,
        /// Block offset tracked.
        offset: BlockOffset,
        /// Operation id of the writer.
        op_id: u64,
    },
    /// An ATT comparison matched and arbitrated a same-block conflict —
    /// the event that orders racing operations.
    AttMerge {
        /// Slot of the comparison.
        slot: Cycle,
        /// Bank whose ATT matched.
        bank: BankId,
        /// The losing (deferring/aborting) processor.
        proc: ProcId,
        /// Losing operation's id.
        op_id: u64,
        /// Block offset in conflict.
        offset: BlockOffset,
        /// The processor whose entry won the arbitration.
        blocker_proc: ProcId,
        /// Slot the winning entry was inserted (identifies the entry).
        blocker_inserted_at: Cycle,
        /// What the loser does.
        action: MergeAction,
    },
    /// A backed-off write phase withdrew its own (now stale) entry.
    AttRemove {
        /// Removal slot.
        slot: Cycle,
        /// Bank whose ATT dropped the entry.
        bank: BankId,
        /// Owning processor.
        proc: ProcId,
        /// Block offset of the withdrawn entry.
        offset: BlockOffset,
    },
    /// An entry aged out of the shift queue (`b` slots after insertion).
    AttExpire {
        /// Expiry slot.
        slot: Cycle,
        /// Bank whose ATT shifted the entry out.
        bank: BankId,
        /// Owning processor.
        proc: ProcId,
        /// Block offset of the expired entry.
        offset: BlockOffset,
    },
    /// A slot-shared machine queued an operation behind its partition.
    SlotEnqueue {
        /// Enqueue slot.
        slot: Cycle,
        /// The sharing processor.
        sharer: ProcId,
        /// The AT-space partition it shares.
        partition: usize,
    },
    /// A queued operation reached the head of its partition queue and
    /// was issued to the underlying conflict-free machine.
    SlotLaunch {
        /// Launch slot.
        slot: Cycle,
        /// The sharing processor.
        sharer: ProcId,
        /// The partition it launched on.
        partition: usize,
        /// Slots spent queued behind other sharers.
        waited: u64,
    },
    /// A fault-plan event activated (all kinds, including response faults
    /// at the slot their effect strikes).
    Fault {
        /// Activation slot.
        slot: Cycle,
        /// The fault that struck.
        fault: FaultKind,
    },
    /// A transient bank error forced a phase restart; the operation backs
    /// off exponentially before re-entering its AT-space partition.
    FaultRetry {
        /// Slot of the faulted injection.
        slot: Cycle,
        /// Retrying processor.
        proc: ProcId,
        /// Operation id of the retrier.
        op_id: u64,
        /// The erroring bank.
        bank: BankId,
        /// Retry attempt number (1-based).
        attempt: u32,
        /// Slots the operation sleeps before retrying.
        backoff: u64,
    },
    /// A permanent bank failure reconfigured the bank map online: the
    /// logical bank was remapped onto a spare physical bank, or masked
    /// when no spare was left. [`TraceEvent::Route`] events stay logical,
    /// so the schedule audits remain valid across the remap boundary.
    BankRemap {
        /// Reconfiguration slot.
        slot: Cycle,
        /// The logical bank that failed.
        bank: BankId,
        /// Physical bank retired.
        old_phys: usize,
        /// Spare physical bank now serving the logical bank, or `None`
        /// if the bank was masked.
        new_phys: Option<usize>,
    },
    /// An operation left the memory system.
    Complete {
        /// Slot the completion was delivered.
        slot: Cycle,
        /// Issuing processor.
        proc: ProcId,
        /// Operation id.
        op_id: u64,
        /// Operation kind.
        kind: OpKind,
        /// Block offset accessed.
        offset: BlockOffset,
        /// Issue slot.
        issued_at: Cycle,
        /// ATT-forced restarts suffered.
        restarts: u32,
        /// `true` when the operation completed, `false` when a
        /// latest-wins abort superseded it.
        completed: bool,
        /// Whether the tear checker saw mixed writer versions.
        torn: bool,
    },
}

impl TraceEvent {
    /// The slot stamp of the event.
    pub fn slot(&self) -> Cycle {
        match self {
            TraceEvent::Issue { slot, .. }
            | TraceEvent::Route { slot, .. }
            | TraceEvent::NetRoute { slot, .. }
            | TraceEvent::BankAccess { slot, .. }
            | TraceEvent::AttInsert { slot, .. }
            | TraceEvent::AttMerge { slot, .. }
            | TraceEvent::AttRemove { slot, .. }
            | TraceEvent::AttExpire { slot, .. }
            | TraceEvent::SlotEnqueue { slot, .. }
            | TraceEvent::SlotLaunch { slot, .. }
            | TraceEvent::Fault { slot, .. }
            | TraceEvent::FaultRetry { slot, .. }
            | TraceEvent::BankRemap { slot, .. }
            | TraceEvent::Complete { slot, .. } => *slot,
        }
    }
}

/// Receiver of trace events. Machines call [`TraceSink::record`] at
/// every observable micro-step; implementations decide what to keep.
pub trait TraceSink {
    /// Record one event.
    fn record(&mut self, event: TraceEvent);
}

/// A sink that drops everything — threaded through the hooks when
/// tracing is disabled, so the hot paths stay branch-free.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullSink;

impl TraceSink for NullSink {
    #[inline]
    fn record(&mut self, _event: TraceEvent) {}
}

/// The standard in-memory sink: an append-only event log in emission
/// order (which is slot order, since machines emit as they step).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MemoryTrace {
    events: Vec<TraceEvent>,
}

impl MemoryTrace {
    /// An empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// The recorded events, in emission order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Copy a per-lane buffer segment to the end of the log — the window
    /// merge splicing one lane's events for one slot (the lane keeps its
    /// buffer, and its capacity, for the next window).
    pub(crate) fn extend_from_slice(&mut self, events: &[TraceEvent]) {
        self.events.extend_from_slice(events);
    }

    /// Drop every recorded event, keeping the allocation for reuse
    /// ([`crate::machine::CfmMachine::discard_trace`]).
    pub(crate) fn clear(&mut self) {
        self.events.clear();
    }

    /// Consume the trace, returning the raw event log (for tampering in
    /// seeded-fault self-tests as much as for analysis).
    pub fn into_events(self) -> Vec<TraceEvent> {
        self.events
    }

    /// Build a trace from a raw event log (the tampered counterpart of
    /// [`MemoryTrace::into_events`]).
    pub fn from_events(events: Vec<TraceEvent>) -> Self {
        MemoryTrace { events }
    }
}

impl TraceSink for MemoryTrace {
    #[inline]
    fn record(&mut self, event: TraceEvent) {
        self.events.push(event);
    }
}

/// A bare event vector is a sink — a plain per-lane buffer, such as a
/// window lane's, that a merge splices into a log.
impl TraceSink for Vec<TraceEvent> {
    #[inline]
    fn record(&mut self, event: TraceEvent) {
        self.push(event);
    }
}

/// A sink that batches events in an internal buffer and forwards them to
/// the inner sink `chunk` at a time — amortising a per-event cost (lock,
/// syscall, channel send…) the inner sink may carry. `BENCH_trace.json`
/// showed per-event emission on the hot path; batching moves that cost off
/// it.
///
/// Buffered events are **never lost**: [`BufferedSink::flush`] drains
/// explicitly, and the `Drop` impl flushes whatever remains, so dropping
/// the sink (including mid-panic unwinding) delivers every recorded event
/// to the inner sink.
#[derive(Debug)]
pub struct BufferedSink<S: TraceSink> {
    inner: S,
    buf: Vec<TraceEvent>,
    chunk: usize,
}

impl<S: TraceSink> BufferedSink<S> {
    /// Wrap `inner`, forwarding events in batches of `chunk` (clamped to
    /// at least 1).
    pub fn new(inner: S, chunk: usize) -> Self {
        let chunk = chunk.max(1);
        BufferedSink {
            inner,
            buf: Vec::with_capacity(chunk),
            chunk,
        }
    }

    /// Forward every buffered event to the inner sink, in order.
    pub fn flush(&mut self) {
        for event in self.buf.drain(..) {
            self.inner.record(event);
        }
    }

    /// Events currently buffered (not yet forwarded).
    pub fn buffered(&self) -> usize {
        self.buf.len()
    }

    /// Flush and return the inner sink.
    pub fn into_inner(mut self) -> S
    where
        S: Default,
    {
        self.flush();
        std::mem::take(&mut self.inner)
    }

    /// The inner sink (events still buffered are not visible in it until
    /// a flush).
    pub fn inner(&self) -> &S {
        &self.inner
    }
}

impl<S: TraceSink> TraceSink for BufferedSink<S> {
    #[inline]
    fn record(&mut self, event: TraceEvent) {
        self.buf.push(event);
        if self.buf.len() >= self.chunk {
            self.flush();
        }
    }
}

impl<S: TraceSink> Drop for BufferedSink<S> {
    fn drop(&mut self) {
        self.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memory_trace_records_in_order() {
        let mut t = MemoryTrace::new();
        assert!(t.is_empty());
        t.record(TraceEvent::Route {
            slot: 3,
            proc: 1,
            bank: 0,
        });
        t.record(TraceEvent::Issue {
            slot: 5,
            proc: 0,
            op_id: 1,
            kind: OpKind::Read,
            offset: 2,
        });
        assert_eq!(t.len(), 2);
        assert_eq!(t.events()[0].slot(), 3);
        assert_eq!(t.events()[1].slot(), 5);
        let back = MemoryTrace::from_events(t.clone().into_events());
        assert_eq!(back, t);
    }

    #[test]
    fn null_sink_discards() {
        let mut sink = NullSink;
        sink.record(TraceEvent::AttRemove {
            slot: 0,
            bank: 0,
            proc: 0,
            offset: 0,
        });
    }

    fn route(slot: Cycle) -> TraceEvent {
        TraceEvent::Route {
            slot,
            proc: 0,
            bank: 0,
        }
    }

    #[test]
    fn buffered_sink_batches_and_preserves_order() {
        let mut sink = BufferedSink::new(MemoryTrace::new(), 3);
        for slot in 0..7 {
            sink.record(route(slot));
        }
        // Two full batches forwarded, one event still buffered.
        assert_eq!(sink.inner().len(), 6);
        assert_eq!(sink.buffered(), 1);
        let trace = sink.into_inner();
        assert_eq!(trace.len(), 7);
        let slots: Vec<Cycle> = trace.events().iter().map(TraceEvent::slot).collect();
        assert_eq!(slots, (0..7).collect::<Vec<_>>());
    }

    #[test]
    fn buffered_sink_flushes_on_drop_losing_nothing() {
        // The inner sink outlives the buffer via a shared log so the drop
        // flush is observable.
        #[derive(Default)]
        struct SharedLog(std::rc::Rc<std::cell::RefCell<Vec<TraceEvent>>>);
        impl TraceSink for SharedLog {
            fn record(&mut self, event: TraceEvent) {
                self.0.borrow_mut().push(event);
            }
        }
        let log = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
        {
            let mut sink = BufferedSink::new(SharedLog(log.clone()), 64);
            for slot in 0..5 {
                sink.record(route(slot));
            }
            // Nothing forwarded yet: the batch is far from full.
            assert_eq!(log.borrow().len(), 0);
        } // drop flushes
        assert_eq!(log.borrow().len(), 5);
        let slots: Vec<Cycle> = log.borrow().iter().map(TraceEvent::slot).collect();
        assert_eq!(slots, (0..5).collect::<Vec<_>>());
    }

    #[test]
    fn vec_sink_records_in_order() {
        let mut buf: Vec<TraceEvent> = Vec::new();
        buf.record(route(1));
        buf.record(route(2));
        assert_eq!(buf.len(), 2);
        assert_eq!(buf[1].slot(), 2);
    }

    #[test]
    fn merge_action_labels_are_stable() {
        assert_eq!(MergeAction::ReadRestart.label(), "read-restart");
        assert_eq!(MergeAction::WriteRestart.label(), "write-restart");
        assert_eq!(MergeAction::WriteAbort.label(), "write-abort");
    }
}
