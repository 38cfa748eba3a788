//! The TCP edge: serves the [`crate::wire`] protocol on one dedicated
//! thread that blocks on readiness — no async runtime, same discipline
//! as the event loop itself.
//!
//! ## Architecture
//!
//! [`serve`] (or [`crate::Service::serve_edge`]) binds a nonblocking
//! listener and spawns a single `cfm-edge` thread. The thread sleeps in
//! `epoll_wait` (see the `poll` module, Linux only) on the listener,
//! every connection, and one `eventfd`, with no timeout: an idle edge
//! costs no wake-ups at all. Each wake it:
//!
//! 1. accepts waiting connections (shedding with a wire-level
//!    [`crate::Reject::Overloaded`] frame — retry hint included — when
//!    the connection cap is reached);
//! 2. takes the completion queue: the service's event loop pushes each
//!    finished wire request there as `(connection, request_id,
//!    outcome)`, and the edge encodes it into that connection's write
//!    buffer. A completion whose connection has closed is dropped and
//!    counted ([`EdgeStats::stale_completions`]); connection tokens carry
//!    a generation, so a new connection that reuses a slot or a file
//!    descriptor never receives an old connection's response;
//! 3. reads and decodes the connections epoll reported ready, and submits
//!    every admissible `Submit` of the pass to the service as one batch
//!    under one lock, through the same admission checks as
//!    [`crate::Service::submit_request`];
//! 4. flushes write buffers as far as the sockets allow, carrying
//!    partial writes across wakes.
//!
//! Only connections that epoll reported, or that received completions,
//! are visited.
//!
//! ## One wake per slot
//!
//! The service writes the eventfd at most once per machine slot — after
//! the whole slot's completions are queued, and only if the edge is
//! parked in `epoll_wait` — never once per response. The edge therefore
//! picks up a slot's responses as one burst, its clients answer with
//! bursts of submits, and the batch path hands those to the scheduler
//! together. Waking the edge on every response instead cost `wire-mixed`
//! about a fifth of its throughput and raised its `slots_per_op` by about
//! 3% (four 12 s pairs on a 2-vCPU host): the extra eventfd writes land
//! on the event loop's thread, and the machine sees requests in smaller
//! groups.
//!
//! ## Backpressure and bounded memory
//!
//! Load shedding happens at three layers, all typed on the wire:
//! - connection cap ([`EdgeConfig::max_connections`]): accepted, sent
//!   one `Reject(Overloaded)` frame, closed;
//! - in-flight caps ([`EdgeConfig::max_inflight_per_conn`],
//!   [`EdgeConfig::max_inflight_total`]): the submit is refused with
//!   `Reject(Overloaded)` carrying a `retry_after_slots` hint computed
//!   from the same drain model the service uses in-process;
//! - the service's own admission ([`crate::Service::submit_request`]):
//!   any in-process [`crate::Reject`] is forwarded verbatim as a
//!   `Reject` frame — the wire surface and the in-process surface are
//!   the same typed enum.
//!
//! A submit counts against both in-flight caps from the moment it is
//! admitted until the bytes of its answer have been written to the
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
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;

use parking_lot::Mutex;

use crate::poll::{self, EventFd, Poller};
use crate::request::{Reject, Request, Response};
use crate::service::{Service, Target};
use crate::wire::{self, Decoder, Frame, PROTOCOL_VERSION};

/// [`Frame::Error`] code for a frame that is well-formed but illegal in
/// its direction or state (e.g. a client sending `Welcome`). Codes ≥ 1
/// are [`crate::WireError::code`]s.
pub const ERR_PROTOCOL_VIOLATION: u16 = 0;

/// Tuning for one edge listener.
#[derive(Debug, Clone)]
pub struct EdgeConfig {
    /// Address to bind, e.g. `"127.0.0.1:0"` (the default) for an
    /// ephemeral loopback port.
    pub addr: String,
    /// Concurrent connections before accept-time shedding.
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

#[derive(Debug, Default)]
struct StatsInner {
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
}

/// Where a wire request's outcome goes: the connection's token (slot
/// plus generation) and the client's request ID.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Route {
    pub(crate) conn: u64,
    pub(crate) request_id: u64,
}

/// One edge's completion queue: the service's event loop pushes finished
/// wire requests, the edge takes them in bulk. The eventfd is written
/// only while the edge is parked in `epoll_wait`; a running edge takes the
/// queue on its next pass anyway.
pub(crate) struct CompletionQueue {
    done: Mutex<Vec<(Route, Result<Response, Reject>)>>,
    parked: AtomicBool,
    wake: EventFd,
}

impl CompletionQueue {
    fn new() -> io::Result<Self> {
        Ok(CompletionQueue {
            done: Mutex::new(Vec::new()),
            parked: AtomicBool::new(false),
            wake: EventFd::new()?,
        })
    }

    /// Queue one outcome. The pusher then owes one
    /// [`CompletionQueue::wake_if_parked`] for its whole batch.
    pub(crate) fn push(&self, route: Route, outcome: Result<Response, Reject>) {
        self.done.lock().push((route, outcome));
    }

    /// Wake the edge if it is parked (or about to park): after a push,
    /// this either sees the edge's parked flag or the edge's check of the
    /// queue sees the push — the queue's mutex orders the two.
    pub(crate) fn wake_if_parked(&self) {
        if self.parked.swap(false, Ordering::SeqCst) {
            self.wake();
        }
    }

    /// Wake the edge unconditionally. Writing a live eventfd fails only
    /// if the counter would overflow, which `notify` already treats as
    /// success.
    fn wake(&self) {
        let _ = self.wake.notify();
    }

    /// Announce that the edge is about to block. Returns `false` (and
    /// stays unparked) if completions are already waiting.
    fn park(&self) -> bool {
        self.parked.store(true, Ordering::SeqCst);
        if self.done.lock().is_empty() {
            true
        } else {
            self.parked.store(false, Ordering::Relaxed);
            false
        }
    }

    /// Move every queued outcome into the empty `into`.
    fn take(&self, into: &mut Vec<(Route, Result<Response, Reject>)>) {
        std::mem::swap(&mut *self.done.lock(), into);
    }
}

/// Handle to a running edge thread: address, counters, shutdown.
pub struct EdgeHandle {
    addr: SocketAddr,
    stats: Arc<StatsInner>,
    stop: Arc<AtomicBool>,
    completions: Arc<CompletionQueue>,
    thread: Option<thread::JoinHandle<()>>,
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
        let s = &self.stats;
        EdgeStats {
            accepted: s.accepted.load(Ordering::Relaxed),
            active: s.active.load(Ordering::Relaxed),
            shed_connections: s.shed_connections.load(Ordering::Relaxed),
            shed_submits: s.shed_submits.load(Ordering::Relaxed),
            responses: s.responses.load(Ordering::Relaxed),
            rejects: s.rejects.load(Ordering::Relaxed),
            wire_errors: s.wire_errors.load(Ordering::Relaxed),
            drained_connections: s.drained_connections.load(Ordering::Relaxed),
            stale_completions: s.stale_completions.load(Ordering::Relaxed),
            wbuf_high_water: s.wbuf_high_water.load(Ordering::Relaxed),
        }
    }

    /// Stop the edge thread and wait for it. The thread is blocked in
    /// `epoll_wait`; the eventfd wakes it. Open connections are closed
    /// without ceremony (polite clients drain first); the service itself
    /// is untouched and can keep serving in-process work or be drained
    /// afterwards.
    pub fn shutdown(mut self) -> EdgeStats {
        self.stop_thread();
        self.stats()
    }

    fn stop_thread(&mut self) {
        self.stop.store(true, Ordering::Release);
        self.completions.wake();
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for EdgeHandle {
    fn drop(&mut self) {
        self.stop_thread();
    }
}

/// Serve the wire protocol for `service` per `config`. Binds, spawns
/// the `cfm-edge` thread, and returns immediately; see the module docs
/// for the loop. The service outlives the edge — shut the edge down
/// (or drop the handle) before draining the service.
///
/// Fails with a typed [`io::Error`] if binding or setting up readiness
/// fails, and with [`io::ErrorKind::Unsupported`] off Linux.
pub fn serve(service: Arc<Service>, config: EdgeConfig) -> io::Result<EdgeHandle> {
    let poller = Poller::new(EVENTS_PER_WAKE)?;
    let completions = Arc::new(CompletionQueue::new()?);
    let listener = TcpListener::bind(&config.addr)?;
    listener.set_nonblocking(true)?;
    let addr = listener.local_addr()?;
    poller.add(&listener, poll::READABLE, LISTENER)?;
    poller.add(&completions.wake, poll::READABLE, WAKE)?;
    let stats = Arc::new(StatsInner::default());
    let stop = Arc::new(AtomicBool::new(false));
    let edge = Edge {
        processors: service.processors() as u64,
        bank_cycle: u64::from(service.bank_cycle()),
        welcome: Frame::Welcome {
            version: PROTOCOL_VERSION,
            banks: service.banks() as u32,
            offsets: service.offsets() as u32,
            processors: service.processors() as u32,
        },
        service,
        config,
        stats: Arc::clone(&stats),
        completions: Arc::clone(&completions),
        poller,
        conns: Vec::new(),
        free: Vec::new(),
        live: 0,
        generation: 0,
        inflight_total: 0,
        high_water: 0,
        listener_paused: false,
        work: Vec::new(),
        batch: Vec::new(),
        refused: Vec::new(),
        done: Vec::new(),
        scratch: vec![0; READ_CHUNK],
    };
    let thread = thread::Builder::new().name("cfm-edge".to_string()).spawn({
        let stop = Arc::clone(&stop);
        move || edge.run(&listener, &stop)
    })?;
    Ok(EdgeHandle {
        addr,
        stats,
        stop,
        completions,
        thread: Some(thread),
    })
}

impl Service {
    /// Serve the wire protocol over TCP for this service. Equivalent to
    /// [`edge::serve`](serve); the `Arc` receiver is what lets the edge
    /// thread share the service with in-process submitters.
    pub fn serve_edge(self: &Arc<Self>, config: EdgeConfig) -> io::Result<EdgeHandle> {
        serve(Arc::clone(self), config)
    }
}

/// Epoll token of the listener.
const LISTENER: u64 = u64::MAX;
/// Epoll token of the completion queue's eventfd.
const WAKE: u64 = u64::MAX - 1;
/// Readiness events taken per `epoll_wait`.
const EVENTS_PER_WAKE: usize = 256;
/// Bytes read from one connection per wake. Level-triggered epoll
/// reports the connection again if more is waiting, so this bounds the
/// decoder without losing input.
const READ_CHUNK: usize = 16 * 1024;
/// After a failed `accept` (say, out of file descriptors) the listener
/// is disarmed, and rearmed after at most this many milliseconds.
const ACCEPT_RETRY_MS: u32 = 10;

/// Retry hint in machine slots for a backlog of `waiting` operations:
/// drained at one dequeue per lane per slot, plus one bank cycle of
/// pipeline settle — the same model the service uses for its in-process
/// [`Reject::QueueFull`] / [`Reject::Overloaded`] hints.
fn retry_hint(waiting: usize, processors: u64, bank_cycle: u64) -> u64 {
    (waiting as u64).div_ceil(processors.max(1)) + bank_cycle + 1
}

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
    /// Readiness epoll reported this wake.
    ready: u32,
    /// Already on this wake's work list.
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

/// Everything the `cfm-edge` thread owns.
struct Edge {
    service: Arc<Service>,
    config: EdgeConfig,
    stats: Arc<StatsInner>,
    completions: Arc<CompletionQueue>,
    poller: Poller,
    welcome: Frame,
    processors: u64,
    bank_cycle: u64,
    /// Connection slots; a token's low 32 bits index this.
    conns: Vec<Option<Conn>>,
    free: Vec<usize>,
    live: usize,
    generation: u64,
    /// Owed answers across all connections.
    inflight_total: usize,
    high_water: usize,
    listener_paused: bool,
    /// Slots to visit this wake.
    work: Vec<usize>,
    batch: Vec<(Route, Request, Target)>,
    refused: Vec<(Route, Reject)>,
    done: Vec<(Route, Result<Response, Reject>)>,
    scratch: Vec<u8>,
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
    fn run(mut self, listener: &TcpListener, stop: &AtomicBool) {
        loop {
            let timeout = if !self.completions.park() {
                Some(0)
            } else if self.listener_paused {
                Some(ACCEPT_RETRY_MS)
            } else {
                None
            };
            // A failing epoll_wait means the epoll descriptor itself is
            // broken; there is nothing left to serve with.
            let waited = self.poller.wait(timeout);
            self.completions.parked.store(false, Ordering::Relaxed);
            let Ok(n) = waited else {
                return;
            };
            let mut accept = self.listener_paused;
            for i in 0..n {
                let event = self.poller.event(i);
                match event.token() {
                    LISTENER => accept = true,
                    WAKE => {
                        let _ = self.completions.wake.reset();
                    }
                    token => {
                        if let Some(c) = lookup(&mut self.conns, token) {
                            c.ready |= event.readiness();
                            list(&mut self.work, c);
                        }
                    }
                }
            }
            if stop.load(Ordering::Acquire) {
                return;
            }
            if accept {
                self.accept(listener);
            }
            self.deliver_completions();
            self.serve_listed();
            self.stats.active.store(self.live as u64, Ordering::Relaxed);
        }
    }

    /// Accept every waiting connection, shedding past the cap.
    fn accept(&mut self, listener: &TcpListener) {
        if self.listener_paused {
            if self
                .poller
                .modify(listener, poll::READABLE, LISTENER)
                .is_err()
            {
                return;
            }
            self.listener_paused = false;
        }
        loop {
            match listener.accept() {
                Ok((stream, _)) => {
                    self.stats.accepted.fetch_add(1, Ordering::Relaxed);
                    if self.live >= self.config.max_connections {
                        self.stats.shed_connections.fetch_add(1, Ordering::Relaxed);
                        self.stats.rejects.fetch_add(1, Ordering::Relaxed);
                        let hint =
                            retry_hint(self.inflight_total, self.processors, self.bank_cycle);
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
                    self.generation = self.generation.wrapping_add(1);
                    let token = ((self.generation & 0xFFFF_FFFF) << 32) | slot as u64;
                    if self.poller.add(&stream, poll::READABLE, token).is_err() {
                        self.free.push(slot);
                        continue;
                    }
                    self.conns[slot] = Some(Conn::new(stream, token));
                    self.live += 1;
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
                    if self.poller.modify(listener, 0, LISTENER).is_ok() {
                        self.listener_paused = true;
                    }
                    break;
                }
            }
        }
    }

    /// Encode every queued completion into its connection, dropping (and
    /// counting) those whose connection is gone.
    fn deliver_completions(&mut self) {
        self.completions.take(&mut self.done);
        for (route, outcome) in self.done.drain(..) {
            let Some(c) = lookup(&mut self.conns, route.conn) else {
                self.stats.stale_completions.fetch_add(1, Ordering::Relaxed);
                continue;
            };
            let request_id = route.request_id;
            match outcome {
                Ok(response) => {
                    self.stats.responses.fetch_add(1, Ordering::Relaxed);
                    c.queue_answer(&Frame::Response {
                        request_id,
                        response,
                    });
                }
                // The service abandoned the request (dropped underneath
                // the edge) — surface it typed.
                Err(reject) => {
                    self.stats.rejects.fetch_add(1, Ordering::Relaxed);
                    c.queue_answer(&Frame::Reject { request_id, reject });
                }
            }
            list(&mut self.work, c);
        }
    }

    /// Visit the listed connections in rounds: read and dispatch, submit
    /// the round's batch under one lock, flush. A connection goes round
    /// again only while a held-back frame can move after its flush.
    fn serve_listed(&mut self) {
        let mut round = std::mem::take(&mut self.work);
        while !round.is_empty() {
            for &slot in &round {
                self.input(slot);
            }
            self.submit_batch();
            for slot in round.drain(..) {
                if self.output(slot) {
                    self.work.push(slot);
                }
            }
            std::mem::swap(&mut round, &mut self.work);
        }
        self.work = round;
    }

    /// Read what epoll reported (one chunk) and dispatch decoded frames.
    fn input(&mut self, slot: usize) {
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
        self.dispatch(slot);
    }

    /// Dispatch decoded frames until the decoder runs dry or a frame must
    /// wait (a frame whose answer the connection cannot take yet).
    fn dispatch(&mut self, slot: usize) {
        let Some(c) = self.conns[slot].as_mut() else {
            return;
        };
        let stats = &self.stats;
        let config = &self.config;
        while c.open() {
            let frame = match c.stalled.take() {
                Some(frame) => frame,
                None => match c.dec.next_frame() {
                    Ok(None) => break,
                    Ok(Some(frame)) => frame,
                    Err(e) => {
                        stats.wire_errors.fetch_add(1, Ordering::Relaxed);
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
                    match self.service.target(&request.op) {
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
                    stats.rejects.fetch_add(1, Ordering::Relaxed);
                    c.queue(&Frame::Reject {
                        request_id,
                        reject: Reject::ShuttingDown,
                    });
                }
                Frame::Submit { request_id, .. } => {
                    stats.shed_submits.fetch_add(1, Ordering::Relaxed);
                    stats.rejects.fetch_add(1, Ordering::Relaxed);
                    let queued = self.inflight_total;
                    c.queue(&Frame::Reject {
                        request_id,
                        reject: Reject::Overloaded {
                            queued,
                            limit: config.max_inflight_total,
                            retry_after_slots: retry_hint(queued, self.processors, self.bank_cycle),
                        },
                    });
                }
                Frame::Hello { .. } => c.queue(&self.welcome),
                Frame::MetricsRequest => c.queue(&Frame::Metrics {
                    json: self.service.metrics().to_json(),
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

    /// Hand this round's admissible submits to the service under one
    /// lock; encode its refusals, and those [`Service::target`] made
    /// while decoding, as the answers they are.
    fn submit_batch(&mut self) {
        self.service
            .submit_routed(&self.completions, &mut self.batch, &mut self.refused);
        for (route, reject) in self.refused.drain(..) {
            if let Some(c) = lookup(&mut self.conns, route.conn) {
                self.stats.rejects.fetch_add(1, Ordering::Relaxed);
                c.queue_answer(&Frame::Reject {
                    request_id: route.request_id,
                    reject,
                });
            }
        }
    }

    /// Flush, finish a drain, and settle the connection's epoll interest.
    /// Returns whether it should go round again; a closed connection is
    /// removed.
    fn output(&mut self, slot: usize) -> bool {
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
            self.stats
                .drained_connections
                .fetch_add(1, Ordering::Relaxed);
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
            self.stats
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
    use cfm_core::op::Operation;
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
            Some(Frame::Metrics { json }) => assert!(json.contains("\"budget_deferrals\"")),
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
        // Refused while decoding, before the batch reaches the lock.
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
