//! The TCP edge: serves the [`crate::wire`] protocol from the service's
//! own event-loop thread — no edge thread, no async runtime.
//!
//! ## Architecture
//!
//! [`serve`] (or [`crate::Service::serve_edge`]) binds a nonblocking
//! listener, registers it and one `eventfd` with a fresh epoll instance
//! (see the `poll` module, Linux only), and hands them to the service's
//! event loop. The `cfm-serve-loop` thread that steps the machine runs
//! the edge's pass itself, around each slot:
//!
//! 1. when a readiness check is due (below), one `epoll_wait` with a zero
//!    timeout accepts waiting connections (shedding with a wire-level
//!    [`crate::Reject::Overloaded`] frame — retry hint included — when
//!    the connection cap is reached) and lists the connections that are
//!    ready;
//! 2. it reads and decodes the listed connections, and checks each
//!    `Submit`'s block against the machine's offsets;
//! 3. it admits those submits into the tenants' submission rings through
//!    the same checks as [`crate::Service::submit`];
//! 4. it delivers the last slot's completions, encoding each wire answer
//!    straight into its connection's write buffer, then flushes write
//!    buffers as far as the sockets allow, carrying partial writes across
//!    passes.
//!
//! An answer whose connection has closed is dropped and counted
//! ([`EdgeStats::stale_completions`]). Connection tokens carry a
//! generation that is unique in the process, so a new connection that
//! reuses a slot or a file descriptor never receives an old connection's
//! response, even from an earlier edge of the same service.
//!
//! The edge keeps no copy of the machine's geometry: a `Welcome` and the
//! retry hints read the configuration of the machine the loop steps when
//! they are answered, so they follow a live migration
//! ([`crate::Service::migrate`]).
//!
//! One service serves at most one edge at a time. The edge holds no
//! `Arc<Service>`: the service can be drained as soon as the edge is shut
//! down. A drain (or drop) of a service whose edge is still attached
//! writes the answers already computed as far as the sockets take them,
//! then closes the edge.
//!
//! ## One thread, and when it polls
//!
//! A readiness check costs a system call, so the loop does not make one
//! every pass. While it has work it checks on each pass after one that
//! delivered a wire answer — the answers' clients are the likeliest to
//! have sent more — and on every [`POLL_EVERY_PASSES`]th pass otherwise.
//! With nothing to do it polls for up to [`IDLE_SPIN`], yielding the CPU
//! between polls, and then blocks in `epoll_wait` with no timeout: an
//! idle edge costs no wake-ups at all. In-process submits, `drain`,
//! `migrate`, dropping the service and [`EdgeHandle::shutdown`] wake a
//! loop waiting there through the eventfd, which they write only while it
//! waits. A service without an edge parks on its condvar as before.
//!
//! Why no edge thread: one would put four wake-ups on every wire request
//! — client → edge (socket), edge → loop, loop → edge, edge → client
//! (socket) — and on a 2-vCPU host those hand-offs, not the machine, set
//! the pace of `wire-mixed` (`docs/performance.md`, the wire-path
//! ledger).
//!
//! ## Backpressure and bounded memory
//!
//! Load shedding happens at three layers, all typed on the wire:
//! - connection cap ([`EdgeConfig::max_connections`]): accepted, sent
//!   one `Reject(Overloaded)` frame, closed. The listener's accept queue
//!   is as deep as the cap (at least std's 128), so a burst of connects
//!   up to the cap does not wait out SYN retransmits;
//! - in-flight caps ([`EdgeConfig::max_inflight_per_conn`],
//!   [`EdgeConfig::max_inflight_total`]): the submit is refused with
//!   `Reject(Overloaded)` carrying a `retry_after_slots` hint computed
//!   from the same drain model the service uses in-process;
//! - the service's own admission ([`crate::Service::submit`]):
//!   any in-process [`crate::Reject`] is forwarded verbatim as a
//!   `Reject` frame — the wire surface and the in-process surface are
//!   the same typed enum.
//!
//! A submit counts against both in-flight caps from the moment it is
//! decoded until the bytes of its answer have been written to the
//! socket — not merely until the answer is encoded. A connection at its
//! cap is not read (it loses `EPOLLIN` interest), and it asks for
//! `EPOLLOUT` only while output is pending. Every other frame (shedding
//! rejections, `Welcome`, `Metrics`) is answered only once the write
//! buffer is empty. So a client that submits but never reads holds at
//! most its cap in answers plus one other frame of edge write buffer;
//! [`EdgeStats::wbuf_high_water`] reports the largest buffer seen.
//!
//! ## Drain handshake
//!
//! A client that is done sends [`Frame::Drain`]. The edge stops
//! accepting submits on that connection (`Reject(ShuttingDown)` if the
//! client breaks its promise), waits for the connection's in-flight
//! operations to finish, flushes their responses, sends
//! [`Frame::Drained`], and closes. Responses are therefore never lost
//! by a polite disconnect.

use std::collections::VecDeque;
use std::io::{self, Read as _, Write as _};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use cfm_core::config::CfmConfig;
use parking_lot::{Condvar, Mutex};

use crate::metrics::MetricsSnapshot;
use crate::poll::{self, EventFd, Poller};
use crate::request::{Reject, Request, Response};
use crate::service::{drain_window_slots, target, Service, Shared, Target};
use crate::wire::{self, Decoder, Frame, PROTOCOL_VERSION};

/// [`Frame::Error`] code for a frame that is well-formed but illegal in
/// its direction or state (e.g. a client sending `Welcome`). Codes ≥ 1
/// are [`crate::WireError::code`]s.
pub const ERR_PROTOCOL_VIOLATION: u16 = 0;

/// How long a fully idle event loop with an edge attached keeps polling
/// for readiness, yielding the CPU between polls, before it blocks in
/// `epoll_wait`. A request that arrives within it is picked up without a
/// wake-up: with no spin, `wire-mixed` ran ~9% slower (six 10 s rounds,
/// 2 vCPUs).
pub const IDLE_SPIN: Duration = Duration::from_micros(100);

/// While it has work, the event loop checks readiness on every pass after
/// one that delivered a wire answer, and on every this-many passes
/// otherwise. The system call lengthens the pass that steps the machine:
/// checking on every pass ran `wire-mixed` ~10% slower (six 10 s rounds,
/// 2 vCPUs).
pub const POLL_EVERY_PASSES: u32 = 4;

/// Tuning for one edge listener.
#[derive(Debug, Clone)]
pub struct EdgeConfig {
    /// Address to bind, e.g. `"127.0.0.1:0"` (the default) for an
    /// ephemeral loopback port.
    pub addr: String,
    /// Concurrent connections before accept-time shedding; also the depth
    /// of the listener's accept queue (at least std's 128).
    pub max_connections: usize,
    /// In-flight operations per connection before submit-time shedding.
    /// An operation is in flight from admission until its answer's bytes
    /// are written to the socket.
    pub max_inflight_per_conn: usize,
    /// In-flight operations across all connections before submit-time
    /// shedding (same accounting as `max_inflight_per_conn`).
    pub max_inflight_total: usize,
}

impl Default for EdgeConfig {
    fn default() -> Self {
        EdgeConfig {
            addr: "127.0.0.1:0".to_string(),
            max_connections: 2048,
            max_inflight_per_conn: 64,
            max_inflight_total: 4096,
        }
    }
}

/// What an edge shares with its handle: the counters, written only by the
/// event loop, and whether the loop has closed the edge.
#[derive(Debug, Default)]
pub(crate) struct Link {
    accepted: AtomicU64,
    active: AtomicU64,
    shed_connections: AtomicU64,
    shed_submits: AtomicU64,
    responses: AtomicU64,
    rejects: AtomicU64,
    wire_errors: AtomicU64,
    drained_connections: AtomicU64,
    stale_completions: AtomicU64,
    wbuf_high_water: AtomicU64,
    edge_polls: AtomicU64,
    idle_spins: AtomicU64,
    parks: AtomicU64,
    closed: Mutex<bool>,
    closed_cv: Condvar,
}

/// Count one more.
fn bump(counter: &AtomicU64) {
    counter.fetch_add(1, Ordering::Relaxed);
}

impl Link {
    fn stats(&self) -> EdgeStats {
        let get = |c: &AtomicU64| c.load(Ordering::Relaxed);
        EdgeStats {
            accepted: get(&self.accepted),
            active: get(&self.active),
            shed_connections: get(&self.shed_connections),
            shed_submits: get(&self.shed_submits),
            responses: get(&self.responses),
            rejects: get(&self.rejects),
            wire_errors: get(&self.wire_errors),
            drained_connections: get(&self.drained_connections),
            stale_completions: get(&self.stale_completions),
            wbuf_high_water: get(&self.wbuf_high_water),
            edge_polls: get(&self.edge_polls),
            idle_spins: get(&self.idle_spins),
            parks: get(&self.parks),
        }
    }

    /// Whether the loop has closed the edge (or never will open it).
    pub(crate) fn is_closed(&self) -> bool {
        *self.closed.lock()
    }

    fn wait_closed(&self) {
        let mut closed = self.closed.lock();
        while !*closed {
            self.closed_cv.wait(&mut closed);
        }
    }
}

/// A point-in-time snapshot of the edge counters (all monotonic except
/// `active`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EdgeStats {
    /// Connections accepted (including ones later shed or closed).
    pub accepted: u64,
    /// Connections currently open.
    pub active: u64,
    /// Connections shed at accept time by the connection cap.
    pub shed_connections: u64,
    /// Submits shed at the edge by the in-flight caps (before reaching
    /// the service).
    pub shed_submits: u64,
    /// Response frames sent.
    pub responses: u64,
    /// Reject frames sent (edge shedding plus forwarded service
    /// rejections).
    pub rejects: u64,
    /// Connections dropped for a typed [`crate::WireError`].
    pub wire_errors: u64,
    /// Connections that completed the drain handshake.
    pub drained_connections: u64,
    /// Completions dropped because their connection had closed.
    pub stale_completions: u64,
    /// Largest number of unwritten bytes any connection's write buffer
    /// held.
    pub wbuf_high_water: u64,
    /// Readiness checks the event loop made between slots while it had
    /// work (see [`POLL_EVERY_PASSES`]).
    pub edge_polls: u64,
    /// Readiness checks the event loop made while idle, before blocking
    /// (see [`IDLE_SPIN`]).
    pub idle_spins: u64,
    /// Times the idle event loop blocked in `epoll_wait`.
    pub parks: u64,
}

impl EdgeStats {
    /// The counters as one JSON object, fields in declaration order,
    /// indented as the value of a top-level key.
    pub(crate) fn json_into(&self, out: &mut String) {
        let fields = [
            ("accepted", self.accepted),
            ("active", self.active),
            ("shed_connections", self.shed_connections),
            ("shed_submits", self.shed_submits),
            ("responses", self.responses),
            ("rejects", self.rejects),
            ("wire_errors", self.wire_errors),
            ("drained_connections", self.drained_connections),
            ("stale_completions", self.stale_completions),
            ("wbuf_high_water", self.wbuf_high_water),
            ("edge_polls", self.edge_polls),
            ("idle_spins", self.idle_spins),
            ("parks", self.parks),
        ];
        out.push_str("{\n");
        for (i, (name, value)) in fields.iter().enumerate() {
            let comma = if i + 1 == fields.len() { "" } else { "," };
            out.push_str(&format!("    \"{name}\": {value}{comma}\n"));
        }
        out.push_str("  }");
    }
}

/// Where a wire request's outcome goes: the connection's token (slot
/// plus generation) and the client's request ID.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Route {
    pub(crate) conn: u64,
    pub(crate) request_id: u64,
}

/// Handle to an edge the service's event loop serves: address, counters,
/// shutdown. It holds the service's shared state, not the service, so
/// the service can be drained once the edge is shut down.
pub struct EdgeHandle {
    addr: SocketAddr,
    link: Arc<Link>,
    /// `None` once the edge is shut down.
    shared: Option<Arc<Shared>>,
}

impl std::fmt::Debug for EdgeHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EdgeHandle")
            .field("addr", &self.addr)
            .field("stats", &self.stats())
            .finish()
    }
}

impl EdgeHandle {
    /// The bound address (useful with an ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Snapshot the edge counters.
    pub fn stats(&self) -> EdgeStats {
        self.link.stats()
    }

    /// Close the edge and wait until the event loop has. A loop blocked in
    /// `epoll_wait` is woken through the eventfd. Open connections are
    /// closed without ceremony (polite clients drain first); the service
    /// itself is untouched and can keep serving in-process work or be
    /// drained afterwards.
    pub fn shutdown(mut self) -> EdgeStats {
        self.close();
        self.stats()
    }

    fn close(&mut self) {
        if let Some(shared) = self.shared.take() {
            shared.detach_edge(&self.link);
            self.link.wait_closed();
        }
    }
}

impl Drop for EdgeHandle {
    fn drop(&mut self) {
        self.close();
    }
}

/// Serve the wire protocol for `service` per `config`: bind, set up
/// readiness, and hand the edge to the service's event loop, which
/// serves it from then on (see the module docs). Returns immediately.
///
/// Fails with a typed [`io::Error`] if binding or setting up readiness
/// fails, with [`io::ErrorKind::AlreadyExists`] if the service already
/// serves an edge, and with [`io::ErrorKind::Unsupported`] off Linux.
pub fn serve(service: &Service, config: EdgeConfig) -> io::Result<EdgeHandle> {
    let poller = Poller::new(EVENTS_PER_WAKE)?;
    let wake = Arc::new(EventFd::new()?);
    let listener = TcpListener::bind(&config.addr)?;
    poll::listen(&listener, config.max_connections.max(STD_BACKLOG))?;
    listener.set_nonblocking(true)?;
    let addr = listener.local_addr()?;
    poller.add(&listener, poll::READABLE, LISTENER)?;
    poller.add(&*wake, poll::READABLE, WAKE)?;
    let link = Arc::new(Link::default());
    let edge = Box::new(Edge {
        link: Arc::clone(&link),
        listener,
        wake,
        poller,
        offsets: service.offsets(),
        config,
        conns: Vec::new(),
        free: Vec::new(),
        live: 0,
        inflight_total: 0,
        high_water: 0,
        listener_paused: false,
        work: Vec::new(),
        batch: Vec::new(),
        refused: Vec::new(),
        scratch: vec![0; READ_CHUNK],
        passes: 0,
        answered: false,
    });
    let shared = service.attach_edge(edge)?;
    Ok(EdgeHandle {
        addr,
        link,
        shared: Some(shared),
    })
}

impl Service {
    /// Serve the wire protocol over TCP for this service. Equivalent to
    /// [`edge::serve`](serve).
    pub fn serve_edge(&self, config: EdgeConfig) -> io::Result<EdgeHandle> {
        serve(self, config)
    }
}

/// Epoll token of the listener.
const LISTENER: u64 = u64::MAX;
/// Epoll token of the eventfd that wakes the event loop.
const WAKE: u64 = u64::MAX - 1;
/// Readiness events taken per `epoll_wait`.
const EVENTS_PER_WAKE: usize = 256;
/// Bytes read from one connection per pass. Level-triggered epoll
/// reports the connection again if more is waiting, so this bounds the
/// decoder without losing input.
const READ_CHUNK: usize = 16 * 1024;
/// After a failed `accept` (say, out of file descriptors) the listener
/// is disarmed, and rearmed after at most this many milliseconds.
const ACCEPT_RETRY_MS: u32 = 10;
/// The accept queue std's `TcpListener::bind` asks for; the edge never
/// listens with a shallower one.
const STD_BACKLOG: usize = 128;

/// Connection generations, unique in the process: a token never names a
/// connection of another edge, so an answer routed to a closed edge's
/// connection cannot reach a later edge's.
static GENERATION: AtomicU64 = AtomicU64::new(0);

/// The connection slot a token names (its low 32 bits; the high bits
/// are the generation).
fn slot_of(token: u64) -> usize {
    (token & 0xFFFF_FFFF) as usize
}

/// One connection's state: decoder, write buffer (with partial-write
/// offset), and the answers it still owes against the in-flight caps.
struct Conn {
    stream: TcpStream,
    token: u64,
    dec: Decoder,
    /// A decoded frame held back until the connection can take its
    /// answer (see the module docs on bounded memory).
    stalled: Option<Frame>,
    wbuf: Vec<u8>,
    wpos: usize,
    /// Submits admitted and not yet answered on the socket: those still
    /// in the service plus those in `owed_ends`.
    owed: usize,
    /// End offsets in `wbuf` of encoded answers not yet written.
    owed_ends: VecDeque<usize>,
    /// The epoll interest currently registered.
    interest: u32,
    /// Readiness epoll reported since the last read.
    ready: u32,
    /// Already on the work list.
    listed: bool,
    draining: bool,
    sent_drained: bool,
    close_after_flush: bool,
    dead: bool,
}

impl Conn {
    fn new(stream: TcpStream, token: u64) -> Self {
        Conn {
            stream,
            token,
            dec: Decoder::new(),
            stalled: None,
            wbuf: Vec::new(),
            wpos: 0,
            owed: 0,
            owed_ends: VecDeque::new(),
            interest: poll::READABLE,
            ready: 0,
            listed: false,
            draining: false,
            sent_drained: false,
            close_after_flush: false,
            dead: false,
        }
    }

    fn unflushed(&self) -> usize {
        self.wbuf.len() - self.wpos
    }

    fn queue(&mut self, frame: &Frame) {
        wire::encode_into(frame, &mut self.wbuf);
    }

    /// Queue the answer to an admitted submit; it stays owed until its
    /// last byte is written.
    fn queue_answer(&mut self, frame: &Frame) {
        self.queue(frame);
        self.owed_ends.push_back(self.wbuf.len());
    }

    fn open(&self) -> bool {
        !self.dead && !self.close_after_flush
    }
}

/// Everything the event loop owns of one edge: listener, readiness,
/// connections. Boxed, so the loop's own state grows by one pointer.
/// Dropping it closes every socket and tells the handle.
pub(crate) struct Edge {
    link: Arc<Link>,
    listener: TcpListener,
    wake: Arc<EventFd>,
    poller: Poller,
    config: EdgeConfig,
    offsets: usize,
    /// Connection slots; a token's low 32 bits index this.
    conns: Vec<Option<Conn>>,
    free: Vec<usize>,
    live: usize,
    /// Owed answers across all connections.
    inflight_total: usize,
    high_water: usize,
    listener_paused: bool,
    /// Connections to visit: read on the next pass, flushed on this one.
    work: Vec<usize>,
    /// Decoded submits waiting for admission.
    batch: Vec<(Route, Request, Target)>,
    /// Submits refused, waiting to be answered.
    refused: Vec<(Route, Reject)>,
    scratch: Vec<u8>,
    /// Loop passes since the edge was attached, for the polling cadence.
    passes: u32,
    /// The last pass delivered a wire answer.
    answered: bool,
}

impl Drop for Edge {
    fn drop(&mut self) {
        self.link.active.store(0, Ordering::Relaxed);
        *self.link.closed.lock() = true;
        self.link.closed_cv.notify_all();
    }
}

/// `conns[slot_of(token)]` if it still holds the connection `token`
/// names.
fn lookup(conns: &mut [Option<Conn>], token: u64) -> Option<&mut Conn> {
    conns
        .get_mut(slot_of(token))
        .and_then(Option::as_mut)
        .filter(|c| c.token == token)
}

/// Whether `c` may admit one more submit under the in-flight caps.
fn has_room(config: &EdgeConfig, inflight_total: usize, c: &Conn) -> bool {
    !c.draining
        && c.owed < config.max_inflight_per_conn
        && inflight_total < config.max_inflight_total
}

/// Put `slot` on the work list once.
fn list(work: &mut Vec<usize>, c: &mut Conn) {
    if !c.listed {
        c.listed = true;
        work.push(slot_of(c.token));
    }
}

impl Edge {
    /// The eventfd that wakes the loop out of this edge's `epoll_wait`.
    pub(crate) fn wake(&self) -> Arc<EventFd> {
        Arc::clone(&self.wake)
    }

    /// Whether a connection is listed for a visit: the loop must not
    /// block while one is.
    pub(crate) fn busy(&self) -> bool {
        !self.work.is_empty()
    }

    /// The loop's input step: check readiness if due (see
    /// [`POLL_EVERY_PASSES`]), then read and decode every listed
    /// connection. `machine` is the configuration of the machine the
    /// loop steps now, which a `Welcome` and the retry hints report;
    /// `metrics` snapshots the service for a `MetricsRequest`. Fails only
    /// if epoll itself fails, which leaves nothing to serve the edge
    /// with.
    pub(crate) fn input(
        &mut self,
        machine: &CfmConfig,
        metrics: &dyn Fn() -> MetricsSnapshot,
    ) -> io::Result<()> {
        self.passes = self.passes.wrapping_add(1);
        if std::mem::take(&mut self.answered) || self.passes.is_multiple_of(POLL_EVERY_PASSES) {
            bump(&self.link.edge_polls);
            self.poll(Some(0), machine)?;
        }
        for i in 0..self.work.len() {
            let slot = self.work[i];
            self.read(slot);
            self.dispatch(slot, machine, metrics);
        }
        Ok(())
    }

    /// With the loop fully idle: poll for up to [`IDLE_SPIN`], yielding
    /// between polls, then block until something is ready. Fails only if
    /// epoll itself fails.
    pub(crate) fn idle_wait(&mut self, machine: &CfmConfig) -> io::Result<()> {
        let start = Instant::now();
        while start.elapsed() < IDLE_SPIN {
            bump(&self.link.idle_spins);
            if self.poll(Some(0), machine)? > 0 {
                return Ok(());
            }
            thread::yield_now();
        }
        bump(&self.link.parks);
        let timeout = self.listener_paused.then_some(ACCEPT_RETRY_MS);
        self.poll(timeout, machine)?;
        Ok(())
    }

    /// One `epoll_wait`: accept if the listener is ready (or waits to be
    /// rearmed), reset the eventfd, list the ready connections. Returns
    /// the number of events.
    fn poll(&mut self, timeout_ms: Option<u32>, machine: &CfmConfig) -> io::Result<usize> {
        let n = self.poller.wait(timeout_ms)?;
        let mut accept = self.listener_paused;
        for i in 0..n {
            let event = self.poller.event(i);
            match event.token() {
                LISTENER => accept = true,
                WAKE => {
                    let _ = self.wake.reset();
                }
                token => {
                    if let Some(c) = lookup(&mut self.conns, token) {
                        c.ready |= event.readiness();
                        list(&mut self.work, c);
                    }
                }
            }
        }
        if accept {
            self.accept(machine);
        }
        Ok(n)
    }

    /// Accept every waiting connection, shedding past the cap.
    fn accept(&mut self, machine: &CfmConfig) {
        if self.listener_paused {
            if self
                .poller
                .modify(&self.listener, poll::READABLE, LISTENER)
                .is_err()
            {
                return;
            }
            self.listener_paused = false;
        }
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    bump(&self.link.accepted);
                    if self.live >= self.config.max_connections {
                        bump(&self.link.shed_connections);
                        bump(&self.link.rejects);
                        let hint = drain_window_slots(machine, self.inflight_total);
                        shed_connection(stream, self.live, self.config.max_connections, hint);
                        continue;
                    }
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let _ = stream.set_nodelay(true);
                    let slot = self.free.pop().unwrap_or_else(|| {
                        self.conns.push(None);
                        self.conns.len() - 1
                    });
                    let generation = GENERATION.fetch_add(1, Ordering::Relaxed) + 1;
                    let token = ((generation & 0xFFFF_FFFF) << 32) | slot as u64;
                    if self.poller.add(&stream, poll::READABLE, token).is_err() {
                        self.free.push(slot);
                        continue;
                    }
                    self.conns[slot] = Some(Conn::new(stream, token));
                    self.live += 1;
                    self.link.active.store(self.live as u64, Ordering::Relaxed);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::Interrupted | io::ErrorKind::ConnectionAborted
                    ) =>
                {
                    continue
                }
                // Out of descriptors or similar: the listener would stay
                // readable and spin the loop, so disarm it and retry
                // after a short timeout.
                Err(_) => {
                    if self.poller.modify(&self.listener, 0, LISTENER).is_ok() {
                        self.listener_paused = true;
                    }
                    break;
                }
            }
        }
    }

    /// Read one chunk from the connection if epoll reported it readable.
    fn read(&mut self, slot: usize) {
        let Some(c) = self.conns[slot].as_mut() else {
            return;
        };
        let ready = std::mem::take(&mut c.ready);
        if ready & poll::CLOSED != 0 {
            // Reset, or closed both ways: nothing can be delivered.
            c.dead = true;
            return;
        }
        if ready & poll::READABLE != 0 && c.open() && c.stalled.is_none() {
            match c.stream.read(&mut self.scratch) {
                Ok(0) => c.dead = true,
                Ok(n) => c.dec.feed(&self.scratch[..n]),
                // Spurious or interrupted: level-triggered epoll reports
                // the connection again if bytes are waiting.
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock | io::ErrorKind::Interrupted
                    ) => {}
                Err(_) => c.dead = true,
            }
        }
    }

    /// Dispatch decoded frames until the decoder runs dry or a frame must
    /// wait (a frame whose answer the connection cannot take yet).
    fn dispatch(
        &mut self,
        slot: usize,
        machine: &CfmConfig,
        metrics: &dyn Fn() -> MetricsSnapshot,
    ) {
        let Some(c) = self.conns[slot].as_mut() else {
            return;
        };
        let link = &self.link;
        let config = &self.config;
        while c.open() {
            let frame = match c.stalled.take() {
                Some(frame) => frame,
                None => match c.dec.next_frame() {
                    Ok(None) => break,
                    Ok(Some(frame)) => frame,
                    Err(e) => {
                        bump(&link.wire_errors);
                        c.queue(&Frame::Error {
                            code: e.code(),
                            message: e.to_string(),
                        });
                        c.close_after_flush = true;
                        break;
                    }
                },
            };
            match frame {
                Frame::Submit {
                    request_id,
                    request,
                } if has_room(config, self.inflight_total, c) => {
                    c.owed += 1;
                    self.inflight_total += 1;
                    let route = Route {
                        conn: c.token,
                        request_id,
                    };
                    match target(&request.op, self.offsets) {
                        Ok(target) => self.batch.push((route, request, target)),
                        Err(reject) => self.refused.push((route, reject)),
                    }
                }
                Frame::Drain => c.draining = true,
                // Every other answer waits for an empty write buffer.
                frame if c.unflushed() > 0 => {
                    c.stalled = Some(frame);
                    break;
                }
                Frame::Submit { request_id, .. } if c.draining => {
                    bump(&link.rejects);
                    c.queue(&Frame::Reject {
                        request_id,
                        reject: Reject::ShuttingDown,
                    });
                }
                Frame::Submit { request_id, .. } => {
                    bump(&link.shed_submits);
                    bump(&link.rejects);
                    let queued = self.inflight_total;
                    c.queue(&Frame::Reject {
                        request_id,
                        reject: Reject::Overloaded {
                            queued,
                            limit: config.max_inflight_total,
                            retry_after_slots: drain_window_slots(machine, queued),
                        },
                    });
                }
                Frame::Hello { .. } => c.queue(&Frame::Welcome {
                    version: PROTOCOL_VERSION,
                    banks: machine.banks() as u32,
                    offsets: self.offsets as u32,
                    processors: machine.processors() as u32,
                }),
                Frame::MetricsRequest => c.queue(&Frame::Metrics {
                    json: metrics().to_json_with_edge(&link.stats()),
                }),
                Frame::Welcome { .. }
                | Frame::Response { .. }
                | Frame::Reject { .. }
                | Frame::Metrics { .. }
                | Frame::Drained
                | Frame::Error { .. } => {
                    c.queue(&Frame::Error {
                        code: ERR_PROTOCOL_VIOLATION,
                        message: "frame not valid client-to-server".to_string(),
                    });
                    c.close_after_flush = true;
                }
            }
        }
    }

    /// Hand every decoded submit to `admit` (the service's admission);
    /// the refused ones are answered by the next [`Edge::output`].
    pub(crate) fn admit(
        &mut self,
        mut admit: impl FnMut(Route, Request, Target) -> Result<(), Reject>,
    ) {
        for (route, request, target) in self.batch.drain(..) {
            if let Err(reject) = admit(route, request, target) {
                self.refused.push((route, reject));
            }
        }
    }

    /// Encode an admitted submit's outcome into its connection (`Err`
    /// only when the service abandons the request), or drop and count it
    /// if the connection is gone.
    pub(crate) fn answer(&mut self, route: Route, outcome: Result<Response, Reject>) {
        self.answered = true;
        let Some(c) = lookup(&mut self.conns, route.conn) else {
            bump(&self.link.stale_completions);
            return;
        };
        let request_id = route.request_id;
        match outcome {
            Ok(response) => {
                bump(&self.link.responses);
                c.queue_answer(&Frame::Response {
                    request_id,
                    response,
                });
            }
            Err(reject) => {
                bump(&self.link.rejects);
                c.queue_answer(&Frame::Reject { request_id, reject });
            }
        }
        list(&mut self.work, c);
    }

    /// The loop's output step, after the slot's answers: answer the
    /// refused submits, then flush every listed connection, finish its
    /// drain and settle its epoll interest. A connection with a held-back
    /// frame that can now move stays listed for the next pass.
    pub(crate) fn output(&mut self) {
        for (route, reject) in std::mem::take(&mut self.refused) {
            if let Some(c) = lookup(&mut self.conns, route.conn) {
                bump(&self.link.rejects);
                c.queue_answer(&Frame::Reject {
                    request_id: route.request_id,
                    reject,
                });
                list(&mut self.work, c);
            }
        }
        let mut kept = 0;
        for i in 0..self.work.len() {
            let slot = self.work[i];
            if self.settle(slot) {
                self.work[kept] = slot;
                kept += 1;
            }
        }
        self.work.truncate(kept);
    }

    /// Flush, finish a drain, and settle the connection's epoll interest.
    /// Returns whether it should stay listed; a closed connection is
    /// removed.
    fn settle(&mut self, slot: usize) -> bool {
        self.flush(slot);
        let Some(c) = self.conns[slot].as_mut() else {
            return false;
        };
        if c.draining
            && !c.sent_drained
            && !c.dead
            && c.owed == 0
            && c.stalled.is_none()
            && c.unflushed() == 0
        {
            c.queue(&Frame::Drained);
            c.sent_drained = true;
            c.close_after_flush = true;
            bump(&self.link.drained_connections);
            self.flush(slot);
        }
        let Some(c) = self.conns[slot].as_mut() else {
            return false;
        };
        if c.dead {
            self.remove(slot);
            return false;
        }
        let can_move = match &c.stalled {
            None => false,
            Some(Frame::Submit { .. }) if has_room(&self.config, self.inflight_total, c) => true,
            Some(_) => c.unflushed() == 0,
        };
        if can_move {
            return true;
        }
        c.listed = false;
        let mut interest = 0;
        if c.open() && c.stalled.is_none() && c.owed < self.config.max_inflight_per_conn {
            interest |= poll::READABLE;
        }
        if c.unflushed() > 0 {
            interest |= poll::WRITABLE;
        }
        if interest != c.interest {
            if self.poller.modify(&c.stream, interest, c.token).is_err() {
                self.remove(slot);
                return false;
            }
            c.interest = interest;
        }
        false
    }

    /// Write as much of the buffer as the socket takes, releasing each
    /// answer whose last byte went out.
    fn flush(&mut self, slot: usize) {
        let Some(c) = self.conns[slot].as_mut() else {
            return;
        };
        let pending = c.unflushed();
        if pending == 0 || c.dead {
            return;
        }
        if pending > self.high_water {
            self.high_water = pending;
            self.link
                .wbuf_high_water
                .store(pending as u64, Ordering::Relaxed);
        }
        while c.wpos < c.wbuf.len() {
            match c.stream.write(&c.wbuf[c.wpos..]) {
                Ok(0) => {
                    c.dead = true;
                    break;
                }
                Ok(n) => c.wpos += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    c.dead = true;
                    break;
                }
            }
        }
        while c.owed_ends.front().is_some_and(|&end| end <= c.wpos) {
            c.owed_ends.pop_front();
            c.owed -= 1;
            self.inflight_total -= 1;
        }
        if c.wpos == c.wbuf.len() {
            c.wbuf.clear();
            if c.close_after_flush {
                c.dead = true;
            }
        } else if c.wpos > 0 {
            // Keep the buffer to its unwritten tail, so a slow reader
            // cannot grow it with bytes already sent.
            c.wbuf.drain(..c.wpos);
            for end in c.owed_ends.iter_mut() {
                *end -= c.wpos;
            }
        }
        c.wpos = 0;
    }

    /// Close the connection in `slot`, releasing what it owed (answers
    /// still in the service will arrive as stale completions). Dropping
    /// the stream closes its descriptor, which leaves the epoll set.
    fn remove(&mut self, slot: usize) {
        if let Some(c) = self.conns[slot].take() {
            self.inflight_total -= c.owed;
            self.live -= 1;
            self.free.push(slot);
            self.link.active.store(self.live as u64, Ordering::Relaxed);
        }
    }
}

/// Best-effort typed refusal for an over-cap connection: one `Reject`
/// frame into the fresh socket buffer, then close.
fn shed_connection(stream: TcpStream, queued: usize, limit: usize, retry_after_slots: u64) {
    let mut stream = stream;
    let _ = stream.set_nonblocking(true);
    let bytes = wire::encode(&Frame::Reject {
        request_id: 0,
        reject: Reject::Overloaded {
            queued,
            limit,
            retry_after_slots,
        },
    });
    let _ = stream.write(&bytes);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{ServiceConfig, TenantSpec};
    use crate::request::Response;
    use cfm_core::config::CfmConfig;
    use cfm_core::op::{Operation, Outcome};
    use std::time::Duration;

    fn small_service() -> Arc<Service> {
        let cfg = CfmConfig::new(4, 1, 16).unwrap();
        Arc::new(
            Service::start(
                ServiceConfig::new(cfg, 32)
                    .with_tenant(TenantSpec::new("a").queue_capacity(16))
                    .with_tenant(TenantSpec::new("b").queue_capacity(16)),
            )
            .unwrap(),
        )
    }

    /// Minimal blocking test client speaking the wire protocol.
    struct Client {
        stream: TcpStream,
        dec: Decoder,
    }

    impl Client {
        fn connect(addr: SocketAddr) -> Self {
            let stream = TcpStream::connect(addr).unwrap();
            stream
                .set_read_timeout(Some(Duration::from_secs(10)))
                .unwrap();
            Client {
                stream,
                dec: Decoder::new(),
            }
        }

        fn send(&mut self, frame: &Frame) {
            self.stream.write_all(&wire::encode(frame)).unwrap();
        }

        fn send_raw(&mut self, bytes: &[u8]) {
            self.stream.write_all(bytes).unwrap();
        }

        /// Next frame, or `None` on clean EOF.
        fn recv(&mut self) -> Option<Frame> {
            loop {
                if let Some(f) = self.dec.next_frame().unwrap() {
                    return Some(f);
                }
                let mut buf = [0u8; 4096];
                match self.stream.read(&mut buf) {
                    Ok(0) => return None,
                    Ok(n) => self.dec.feed(&buf[..n]),
                    Err(e) => panic!("client read failed: {e}"),
                }
            }
        }
    }

    #[test]
    fn hello_submit_metrics_drain_round_trip() {
        let service = small_service();
        let edge = service.serve_edge(EdgeConfig::default()).unwrap();
        let mut client = Client::connect(edge.addr());

        client.send(&Frame::Hello {
            version: PROTOCOL_VERSION,
        });
        assert_eq!(
            client.recv(),
            Some(Frame::Welcome {
                version: PROTOCOL_VERSION,
                banks: 4,
                offsets: 32,
                processors: 4,
            })
        );

        client.send(&Frame::Submit {
            request_id: 1,
            request: crate::Request::new(0, Operation::write(5, vec![42; 4])),
        });
        client.send(&Frame::Submit {
            request_id: 2,
            request: crate::Request::new(1, Operation::read(5)),
        });
        // Responses arrive tagged; the read may race the write at the
        // scheduler so only the IDs (not the read data) are pinned.
        let mut got = Vec::new();
        for _ in 0..2 {
            match client.recv() {
                Some(Frame::Response {
                    request_id,
                    response: Response { tenant, .. },
                }) => got.push((request_id, tenant)),
                other => panic!("expected response, got {other:?}"),
            }
        }
        got.sort_unstable();
        assert_eq!(got, vec![(1, 0), (2, 1)]);

        client.send(&Frame::MetricsRequest);
        match client.recv() {
            Some(Frame::Metrics { json }) => {
                assert!(json.contains("\"budget_deferrals\""));
                // The edge's own counters ride beside the service's.
                assert!(json.contains("\"edge\": {"), "{json}");
                assert!(json.contains("\"responses\": 2,"), "{json}");
                assert!(json.contains("\"parks\": "), "{json}");
            }
            other => panic!("expected metrics, got {other:?}"),
        }

        client.send(&Frame::Drain);
        assert_eq!(client.recv(), Some(Frame::Drained));
        assert_eq!(client.recv(), None, "server closes after Drained");

        let stats = edge.shutdown();
        assert_eq!(stats.accepted, 1);
        assert_eq!(stats.responses, 2);
        assert_eq!(stats.wire_errors, 0);
        assert_eq!(stats.drained_connections, 1);
        let report = Arc::try_unwrap(service).ok().unwrap().drain();
        assert_eq!(report.stats.bank_conflicts, 0);
    }

    #[test]
    fn welcome_and_block_length_follow_a_migration() {
        let service = small_service();
        let edge = service.serve_edge(EdgeConfig::default()).unwrap();
        let mut client = Client::connect(edge.addr());
        let welcome = |banks, processors| Frame::Welcome {
            version: PROTOCOL_VERSION,
            banks,
            offsets: 32,
            processors,
        };
        let hello = Frame::Hello {
            version: PROTOCOL_VERSION,
        };
        client.send(&hello);
        assert_eq!(client.recv(), Some(welcome(4, 4)));

        let grown = CfmConfig::new(8, 1, 16).unwrap();
        assert_eq!(service.migrate(&[], grown).unwrap().to_banks, 8);

        // The same connection now sees the grown machine, and a write
        // sized from its Welcome is admitted and read back.
        client.send(&hello);
        assert_eq!(client.recv(), Some(welcome(8, 8)));
        client.send(&Frame::Submit {
            request_id: 1,
            request: crate::Request::new(0, Operation::write(5, vec![42; 8])),
        });
        match client.recv() {
            Some(Frame::Response {
                request_id: 1,
                response,
            }) => assert_eq!(response.completion.outcome, Outcome::Completed),
            other => panic!("expected the write's response, got {other:?}"),
        }
        client.send(&Frame::Submit {
            request_id: 2,
            request: crate::Request::new(1, Operation::read(5)),
        });
        match client.recv() {
            Some(Frame::Response {
                request_id: 2,
                response,
            }) => assert_eq!(response.completion.data.as_deref(), Some(&[42; 8][..])),
            other => panic!("expected the read's response, got {other:?}"),
        }

        drop(client);
        edge.shutdown();
        let report = Arc::try_unwrap(service).ok().unwrap().drain();
        assert_eq!(report.stats.bank_conflicts, 0);
    }

    #[test]
    fn stale_version_gets_typed_error_then_close() {
        let service = small_service();
        let edge = service.serve_edge(EdgeConfig::default()).unwrap();
        let mut client = Client::connect(edge.addr());

        let mut bytes = wire::encode(&Frame::Hello {
            version: PROTOCOL_VERSION,
        });
        let n = bytes.len();
        bytes[n - 2..].copy_from_slice(&9u16.to_le_bytes());
        client.send_raw(&bytes);

        match client.recv() {
            Some(Frame::Error { code, message }) => {
                assert_eq!(code, 3, "VersionMismatch code");
                assert!(message.contains("version 9"), "message {message:?}");
            }
            other => panic!("expected error frame, got {other:?}"),
        }
        assert_eq!(client.recv(), None, "connection is dropped after error");
        assert_eq!(edge.shutdown().wire_errors, 1);
    }

    #[test]
    fn service_rejections_are_forwarded_verbatim() {
        let service = small_service();
        let edge = service.serve_edge(EdgeConfig::default()).unwrap();
        let mut client = Client::connect(edge.addr());
        client.send(&Frame::Submit {
            request_id: 7,
            request: crate::Request::new(9, Operation::read(0)),
        });
        assert_eq!(
            client.recv(),
            Some(Frame::Reject {
                request_id: 7,
                reject: Reject::UnknownTenant { tenant: 9 },
            })
        );
        // Refused while decoding, before the batch reaches admission.
        client.send(&Frame::Submit {
            request_id: 8,
            request: crate::Request::new(0, Operation::read(99)),
        });
        assert_eq!(
            client.recv(),
            Some(Frame::Reject {
                request_id: 8,
                reject: Reject::NoSuchBlock {
                    offset: 99,
                    offsets: 32,
                },
            })
        );
        assert_eq!(edge.shutdown().rejects, 2);
    }

    #[test]
    fn inflight_cap_sheds_with_typed_overload_and_hint() {
        let service = small_service();
        let edge = service
            .serve_edge(EdgeConfig {
                max_inflight_total: 0,
                ..EdgeConfig::default()
            })
            .unwrap();
        let mut client = Client::connect(edge.addr());
        client.send(&Frame::Submit {
            request_id: 3,
            request: crate::Request::new(0, Operation::read(0)),
        });
        match client.recv() {
            Some(Frame::Reject {
                request_id: 3,
                reject:
                    Reject::Overloaded {
                        queued: 0,
                        limit: 0,
                        retry_after_slots,
                    },
            }) => assert!(retry_after_slots > 0, "hint must be non-zero"),
            other => panic!("expected overload shed, got {other:?}"),
        }
        let stats = edge.shutdown();
        assert_eq!(stats.shed_submits, 1);
    }

    #[test]
    fn connection_cap_sheds_with_reject_then_close() {
        let service = small_service();
        let edge = service
            .serve_edge(EdgeConfig {
                max_connections: 0,
                ..EdgeConfig::default()
            })
            .unwrap();
        let mut client = Client::connect(edge.addr());
        match client.recv() {
            Some(Frame::Reject {
                request_id: 0,
                reject: Reject::Overloaded { limit: 0, .. },
            }) => {}
            other => panic!("expected connection shed, got {other:?}"),
        }
        assert_eq!(client.recv(), None);
        let stats = edge.shutdown();
        assert_eq!(stats.shed_connections, 1);
        assert_eq!(stats.active, 0);
    }

    #[test]
    fn client_to_server_direction_is_enforced() {
        let service = small_service();
        let edge = service.serve_edge(EdgeConfig::default()).unwrap();
        let mut client = Client::connect(edge.addr());
        client.send(&Frame::Drained);
        match client.recv() {
            Some(Frame::Error { code, .. }) => assert_eq!(code, ERR_PROTOCOL_VIOLATION),
            other => panic!("expected protocol violation, got {other:?}"),
        }
        assert_eq!(client.recv(), None);
        edge.shutdown();
    }
}
