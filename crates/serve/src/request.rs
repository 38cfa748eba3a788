//! Requests, typed admission rejection, and completion tickets.

use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use cfm_core::op::{Completion, Operation};
use parking_lot::{Condvar, Mutex};

use crate::edge::{Edge, Route};

/// Index of a tenant in the [`crate::ServiceConfig`] roster.
pub type TenantId = usize;

/// One submission: the tenant plus its block operation.
///
/// This is the *single* request envelope in the system — the wire codec
/// ([`crate::wire`]) encodes and decodes exactly this struct, and the
/// edge admits its tenant and operation through the same checks as the
/// in-process [`crate::Service::submit`], so a frame that round-trips
/// the codec is byte-for-byte the request the service admits. There is no separate "wire request"
/// type to drift out of sync.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Target tenant (an index into the service roster).
    pub tenant: TenantId,
    /// The block operation to perform.
    pub op: Operation,
}

impl Request {
    /// A request from `tenant` performing `op`.
    pub fn new(tenant: TenantId, op: Operation) -> Self {
        Request { tenant, op }
    }
}

/// Why a submit was refused admission. Every variant is a *normal*
/// backpressure signal, not an error in the service: the caller is
/// expected to shed, retry later, or slow down.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Reject {
    /// The tenant's own bounded queue is full.
    QueueFull {
        /// The tenant whose queue is at capacity.
        tenant: TenantId,
        /// The configured per-tenant bound.
        capacity: usize,
        /// Estimate of machine slots until the queue has room: the
        /// backlog drained at one dequeue per lane per slot, plus one
        /// bank cycle of pipeline settle. A client that retries after
        /// this many slots' worth of wall time will usually be
        /// admitted (subject to competing submitters).
        retry_after_slots: u64,
    },
    /// The service-wide queued-operation bound is reached — global load
    /// shedding, independent of which tenant is responsible.
    Overloaded {
        /// Operations queued across all tenants at rejection time.
        queued: usize,
        /// The configured global bound.
        limit: usize,
        /// Estimate of machine slots until global queueing falls below
        /// the bound (same drain model as
        /// [`Reject::QueueFull::retry_after_slots`]).
        retry_after_slots: u64,
    },
    /// The service is draining or shut down and admits nothing new.
    ShuttingDown,
    /// No such tenant in the roster.
    UnknownTenant {
        /// The offending tenant ID.
        tenant: TenantId,
    },
    /// The operation's block offset is outside the machine's memory.
    NoSuchBlock {
        /// The requested offset.
        offset: usize,
        /// Blocks available.
        offsets: usize,
    },
    /// Write/swap data length differs from the machine's bank count.
    WrongBlockLength {
        /// Words supplied.
        got: usize,
        /// Words required (= banks).
        want: usize,
    },
    /// The tenant is being live-migrated ([`crate::Service::migrate`]):
    /// its queue is quiesced across the checkpoint/restore boundary, so
    /// new submits are shed until the tenant is re-admitted on the
    /// target machine. Untouched tenants are never rejected with this.
    Migrating {
        /// The tenant whose queue is quiesced.
        tenant: TenantId,
        /// Upper-bound estimate of machine slots until re-admission —
        /// the remaining drain + ATT-settle + swap window. A client that
        /// retries after this many slots' worth of wall time will not
        /// see `Migrating` again for the same migration.
        retry_after_slots: u64,
    },
}

impl fmt::Display for Reject {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Reject::QueueFull {
                tenant,
                capacity,
                retry_after_slots,
            } => {
                write!(
                    f,
                    "tenant {tenant} queue full (capacity {capacity}) — \
                     retry after ~{retry_after_slots} slots"
                )
            }
            Reject::Overloaded {
                queued,
                limit,
                retry_after_slots,
            } => {
                write!(
                    f,
                    "service overloaded ({queued} queued, limit {limit}) — \
                     retry after ~{retry_after_slots} slots"
                )
            }
            Reject::ShuttingDown => write!(f, "service is shutting down"),
            Reject::UnknownTenant { tenant } => write!(f, "unknown tenant {tenant}"),
            Reject::NoSuchBlock { offset, offsets } => {
                write!(f, "block {offset} out of range ({offsets} blocks)")
            }
            Reject::WrongBlockLength { got, want } => {
                write!(f, "block data has {got} words, machine wants {want}")
            }
            Reject::Migrating {
                tenant,
                retry_after_slots,
            } => {
                write!(
                    f,
                    "tenant {tenant} is migrating — retry after ~{retry_after_slots} slots"
                )
            }
        }
    }
}

impl std::error::Error for Reject {}

/// A fulfilled request: the machine-level completion plus wall-clock
/// latency accounting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// The submitting tenant.
    pub tenant: TenantId,
    /// The machine's completion record (data for reads/swaps, restart
    /// count, slot-level latency).
    pub completion: Completion,
    /// Wall-clock nanoseconds from admission to the start of the event
    /// loop pass that issued the request (queueing delay). The loop reads
    /// the clock once per pass, after its slot, and that read starts the
    /// next pass; a request admitted after it reads 0. Never above
    /// [`Self::total_ns`].
    pub queued_ns: u64,
    /// Wall-clock nanoseconds from admission to the clock read that ended
    /// the pass whose slot completed the request (the latency the tenant
    /// observes; recorded in the service histograms).
    pub total_ns: u64,
}

/// Shared slot a ticket waits on. `closed` is set (instead of a
/// response) when the service shuts down without completing the request,
/// so no waiter can deadlock on an abandoned ticket.
///
/// `resolved` is stored, with `Release`, after the response or the close
/// is in `slot`: a poll reads it first and takes the lock only once it is
/// set, so a client polling an unresolved ticket never contends with the
/// event loop for the ticket's mutex.
pub(crate) struct TicketInner {
    pub(crate) slot: Mutex<TicketState>,
    pub(crate) ready: Condvar,
    resolved: AtomicBool,
}

#[derive(Default)]
pub(crate) struct TicketState {
    pub(crate) response: Option<Response>,
    pub(crate) closed: bool,
}

impl TicketInner {
    pub(crate) fn new() -> Arc<Self> {
        Arc::new(TicketInner {
            slot: Mutex::new(TicketState::default()),
            ready: Condvar::new(),
            resolved: AtomicBool::new(false),
        })
    }

    /// Deliver the response and wake the waiter.
    pub(crate) fn fulfill(&self, response: Response) {
        let mut state = self.slot.lock();
        debug_assert!(state.response.is_none() && !state.closed);
        state.response = Some(response);
        self.resolved.store(true, Ordering::Release);
        drop(state);
        self.ready.notify_all();
    }

    /// Mark the ticket abandoned (service shut down before completion)
    /// and wake the waiter.
    pub(crate) fn close(&self) {
        let mut state = self.slot.lock();
        state.closed = true;
        self.resolved.store(true, Ordering::Release);
        drop(state);
        self.ready.notify_all();
    }

    /// Whether the response or the close is in `slot` (no lock taken).
    fn resolved(&self) -> bool {
        self.resolved.load(Ordering::Acquire)
    }
}

/// Where an admitted request's outcome goes: an in-process [`Ticket`],
/// or a connection of the wire edge the event loop serves.
pub(crate) enum Reply {
    Ticket(Arc<TicketInner>),
    Edge(Route),
}

impl Reply {
    /// Deliver the outcome (`Err` only when the service abandons the
    /// request): fulfil or close the ticket, or encode the answer into
    /// `edge`. A wire answer with no edge left to take it is dropped.
    pub(crate) fn deliver(self, outcome: Result<Response, Reject>, edge: Option<&mut Edge>) {
        match self {
            Reply::Ticket(ticket) => match outcome {
                Ok(response) => ticket.fulfill(response),
                Err(_) => ticket.close(),
            },
            Reply::Edge(route) => {
                if let Some(edge) = edge {
                    edge.answer(route, outcome);
                }
            }
        }
    }
}

/// Handle to one admitted request. Obtained from
/// [`crate::Service::submit`]; redeemed with [`Ticket::wait`].
pub struct Ticket {
    pub(crate) inner: Arc<TicketInner>,
}

impl fmt::Debug for Ticket {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Ticket")
            .field("ready", &self.is_ready())
            .finish()
    }
}

impl Ticket {
    /// Block until the request completes. Returns `None` only if the
    /// service was dropped (not drained) before the request finished —
    /// [`crate::Service::drain`] completes every admitted request, so a
    /// drained service never abandons a ticket.
    pub fn wait(self) -> Option<Response> {
        let mut state = self.inner.slot.lock();
        loop {
            if let Some(response) = state.response.take() {
                return Some(response);
            }
            if state.closed {
                return None;
            }
            self.inner.ready.wait(&mut state);
        }
    }

    /// Take the response if it is already available, without blocking.
    pub fn try_take(&mut self) -> Option<Response> {
        if !self.inner.resolved() {
            return None;
        }
        self.inner.slot.lock().response.take()
    }

    /// Whether the response is available (or the ticket was abandoned).
    pub fn is_ready(&self) -> bool {
        if !self.inner.resolved() {
            return false;
        }
        let state = self.inner.slot.lock();
        state.response.is_some() || state.closed
    }
}
