//! The reactor: one thread, one [`Poller`], every
//! connection.
//!
//! The reactor owns the listener and all connection fds, runs the
//! accept/read/write state machines, and reassembles partial frames per
//! connection through a [`FrameDecoder`]. Application logic lives behind
//! the [`Handler`] trait: the reactor hands it complete frames and
//! lifecycle edges, and the handler answers through an [`Outbox`] — an
//! explicit op list rather than direct socket access, so the handler can
//! never block the loop on a slow peer and the borrow story stays simple.
//!
//! # Connection state machine
//!
//! ```text
//!           accept                    frame error / Close op
//! listener ───────► open ──────────────────────────────► draining
//!                   │ ▲ │  read 0 / read error                │ write buffer
//!                   │ │ │  (peer closed)                      │ flushed
//!              Park │ │ Unpark                                ▼
//!                   ▼ │ │                                   closed
//!                 parked ───────────────────────────────────► ▲
//!                          peer hangup (POLLHUP/EPOLLRDHUP)   │
//!                    open ────────────────────────────────────┘
//! ```
//!
//! Reads are level-triggered and drained to `WouldBlock`; write interest
//! is registered only while a connection's output buffer is non-empty.
//! `Close` means *flush pending writes, then close* — so an error reply
//! queued just before a close is still delivered.
//!
//! A **parked** connection (the handler's [`Outbox::park`]) keeps its fd
//! registered but drops read interest and stops both socket reads and
//! frame dispatch: bytes stay in the kernel buffer, TCP flow control
//! backpressures the peer, and nothing is lost. Hangup conditions are
//! still reported regardless of interest (see [`Interest::NONE`]), so a
//! parked peer's disconnect tears the connection down normally. `Unpark`
//! restores read interest and immediately dispatches any frames that were
//! already decoded before the park — arrival order is preserved exactly.
//!
//! # Writes
//!
//! Handler sends are queued per connection and flushed once per loop
//! iteration with a single vectored write (`writev`-style): many small
//! frames — acks, position updates — coalesce into one syscall instead of
//! paying one `write(2)` each. A connection that reports writable flushes
//! immediately, same as before.
//!
//! # Wakeup
//!
//! The loop has no timer (the poller waits without a timeout), so work
//! from other threads reaches it only through its [`Wakeup`] self-pipe.
//! [`Handler::on_start`] hands the handler a [`WakeupHandle`] it may clone
//! to other threads (the serve layer gives it to session subscriptions
//! and drain waiters); when notified, the reactor drains the pipe and
//! calls [`Handler::on_wakeup`].
//!
//! # Shutdown
//!
//! [`ReactorHandle::shutdown`] stops accepting, performs one final read
//! sweep so frames already in kernel buffers are decoded and delivered
//! (drain in-flight), calls [`Handler::on_shutdown`] (the serve layer
//! uses this to emit `SessionClosed` to subscribers), flushes pending
//! writes under a bounded deadline, and only then closes the fds.

use crate::frame::{FrameDecoder, FrameError, RawFrame, WireMode};
use crate::poller::{Event, Interest, Poller, PollerKind};
use crate::wakeup::{Wakeup, WakeupHandle};
use std::collections::{BTreeMap, VecDeque};
use std::io::{self, IoSlice, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Opaque identifier for one accepted connection (unique per reactor,
/// never reused).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ConnId(pub u64);

impl std::fmt::Display for ConnId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "conn#{}", self.0)
    }
}

/// Reactor tuning knobs.
#[derive(Debug, Clone)]
pub struct ReactorConfig {
    /// Readiness backend selection.
    pub poller: PollerKind,
    /// Size of the per-loop read scratch buffer.
    pub read_buffer: usize,
    /// Per-frame payload/line cap handed to each connection's decoder.
    pub max_frame_payload: usize,
    /// Connections beyond this are accepted and immediately closed
    /// (counted in [`ReactorStats::rejected`]).
    pub max_connections: usize,
    /// How long shutdown may spend flushing pending writes before
    /// closing anyway.
    pub shutdown_flush: Duration,
}

impl Default for ReactorConfig {
    fn default() -> Self {
        Self {
            poller: PollerKind::Auto,
            read_buffer: 64 * 1024,
            max_frame_payload: crate::frame::DEFAULT_MAX_PAYLOAD,
            max_connections: usize::MAX,
            shutdown_flush: Duration::from_millis(500),
        }
    }
}

/// Live counters shared between the reactor thread and observers.
/// Everything is monotonic except `open` and `parked` (gauges).
#[derive(Debug, Default)]
pub struct ReactorStats {
    /// Connections accepted.
    pub accepted: AtomicU64,
    /// Connections fully closed (every accepted connection ends here).
    pub closed: AtomicU64,
    /// Currently open connections.
    pub open: AtomicU64,
    /// Connections refused because `max_connections` was reached.
    pub rejected: AtomicU64,
    /// Currently parked connections (read interest dropped while the
    /// handler holds back admission).
    pub parked: AtomicU64,
    /// Wakeup-pipe notifications the reactor woke on.
    pub wakeups: AtomicU64,
    /// Interest changes the poller refused; each one closes its
    /// connection (stale interest is a silent stall, so the connection
    /// cannot be kept).
    pub reregister_failures: AtomicU64,
    /// Complete JSON frames delivered to the handler.
    pub frames_in_json: AtomicU64,
    /// Complete binary frames delivered to the handler.
    pub frames_in_binary: AtomicU64,
    /// Frames queued for send by the handler.
    pub frames_out: AtomicU64,
    /// Reads that resumed a partially received frame (reassembly events).
    pub partial_resumes: AtomicU64,
    /// Terminal framing errors (bad magic/version, oversized, non-UTF-8).
    pub frame_errors: AtomicU64,
    /// Connections that disconnected mid-frame (EOF with bytes pending).
    pub midframe_disconnects: AtomicU64,
    /// Payload bytes received.
    pub bytes_in: AtomicU64,
    /// Payload bytes written.
    pub bytes_out: AtomicU64,
}

/// The application half of the reactor. All callbacks run on the reactor
/// thread — they must not block; slow work belongs on the shard workers.
pub trait Handler: Send + 'static {
    /// The reactor thread is up: `wakeup` is this reactor's notification
    /// handle. Clone it to any thread that must nudge the loop (for
    /// example a queue drainer signalling room for a parked connection).
    fn on_start(&mut self, _wakeup: WakeupHandle, _out: &mut Outbox) {}
    /// A connection was accepted.
    fn on_open(&mut self, conn: ConnId, out: &mut Outbox);
    /// One complete frame arrived. `mode` is the connection's negotiated
    /// protocol (fixed from its first byte).
    fn on_frame(&mut self, conn: ConnId, frame: RawFrame, mode: WireMode, out: &mut Outbox);
    /// The connection's byte stream is unrecoverable (see
    /// [`FrameError`]). The handler may queue one error reply; the
    /// reactor flushes it and then closes the connection.
    fn on_frame_error(&mut self, conn: ConnId, err: FrameError, out: &mut Outbox);
    /// The connection is gone (peer close, error, or server close).
    /// `midframe` reports an EOF with a partial frame pending.
    fn on_close(&mut self, conn: ConnId, midframe: bool, out: &mut Outbox);
    /// The wakeup pipe fired: whoever holds this reactor's
    /// [`WakeupHandle`] asked for attention (for the serve layer, session
    /// events are waiting to be forwarded, or a session queue drained and
    /// parked connections may retry). Notifications collapse, so one call
    /// may stand for several.
    fn on_wakeup(&mut self, _out: &mut Outbox) {}
    /// Shutdown has begun: in-flight frames are already delivered, fds
    /// are still open, queued sends will be flushed before close.
    fn on_shutdown(&mut self, out: &mut Outbox);
}

/// The handler's channel back to the sockets: an op list the reactor
/// applies after each callback.
#[derive(Debug, Default)]
pub struct Outbox {
    ops: Vec<Op>,
}

#[derive(Debug)]
enum Op {
    Send(ConnId, Vec<u8>),
    Close(ConnId),
    Park(ConnId),
    Unpark(ConnId),
}

impl Outbox {
    /// Queues one already-encoded frame for delivery.
    pub fn send(&mut self, conn: ConnId, frame_bytes: Vec<u8>) {
        self.ops.push(Op::Send(conn, frame_bytes));
    }

    /// Requests a close after pending writes flush.
    pub fn close(&mut self, conn: ConnId) {
        self.ops.push(Op::Close(conn));
    }

    /// Stops reading and dispatching this connection (see the module docs
    /// on parking). Pending replies still flush; the peer backpressures
    /// through TCP. No-op on a draining connection.
    pub fn park(&mut self, conn: ConnId) {
        self.ops.push(Op::Park(conn));
    }

    /// Resumes a parked connection: read interest returns and frames
    /// decoded before the park dispatch immediately, in arrival order.
    pub fn unpark(&mut self, conn: ConnId) {
        self.ops.push(Op::Unpark(conn));
    }
}

/// Control handle for a running reactor. Dropping it shuts the reactor
/// down.
pub struct ReactorHandle {
    local_addr: SocketAddr,
    stats: Arc<ReactorStats>,
    backend: &'static str,
    shutdown: Arc<AtomicBool>,
    wakeup: WakeupHandle,
    join: Option<std::thread::JoinHandle<io::Result<()>>>,
}

impl ReactorHandle {
    /// The address the reactor is listening on.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The live counters.
    pub fn stats(&self) -> Arc<ReactorStats> {
        Arc::clone(&self.stats)
    }

    /// Which readiness backend runs (`"epoll"` or `"poll"`).
    pub fn backend_name(&self) -> &'static str {
        self.backend
    }

    /// Graceful shutdown: drain, flush, close, join. Idempotent.
    pub fn shutdown(&mut self) -> io::Result<()> {
        self.shutdown.store(true, Ordering::SeqCst);
        self.wakeup.notify();
        match self.join.take() {
            Some(join) => join.join().map_err(|_| {
                io::Error::new(io::ErrorKind::Other, "reactor thread panicked")
            })?,
            None => Ok(()),
        }
    }
}

impl Drop for ReactorHandle {
    fn drop(&mut self) {
        let _ = self.shutdown();
    }
}

/// Binds the reactor to `listener` and spawns its thread.
pub fn spawn<H: Handler>(
    listener: TcpListener,
    config: ReactorConfig,
    handler: H,
) -> io::Result<ReactorHandle> {
    listener.set_nonblocking(true)?;
    let local_addr = listener.local_addr()?;
    let mut poller = Poller::new(config.poller)?;
    let backend = poller.backend_name();
    poller.register(listener.as_raw_fd(), LISTENER_TOKEN, Interest::READ)?;
    let wakeup = Wakeup::new()?;
    poller.register(wakeup.as_raw_fd(), WAKEUP_TOKEN, Interest::READ)?;
    let wakeup_handle = wakeup.handle();
    let stats = Arc::new(ReactorStats::default());
    let shutdown = Arc::new(AtomicBool::new(false));
    let mut reactor = Reactor {
        poller,
        listener,
        wakeup,
        config,
        handler,
        conns: BTreeMap::new(),
        next_token: FIRST_CONN_TOKEN,
        stats: Arc::clone(&stats),
        shutdown: Arc::clone(&shutdown),
        events: Vec::new(),
        dirty: Vec::new(),
    };
    let join = std::thread::Builder::new()
        .name("rfidraw-reactor".to_string())
        .spawn(move || reactor.run())?;
    Ok(ReactorHandle {
        local_addr,
        stats,
        backend,
        shutdown,
        wakeup: wakeup_handle,
        join: Some(join),
    })
}

const LISTENER_TOKEN: u64 = 0;
const WAKEUP_TOKEN: u64 = 1;
const FIRST_CONN_TOKEN: u64 = 2;

/// Most iovecs handed to one vectored write. Far below any platform's
/// IOV_MAX; past this the syscall is already well amortized.
const MAX_FLUSH_IOVECS: usize = 64;

struct Conn {
    stream: TcpStream,
    decoder: FrameDecoder,
    /// Pending output frames, oldest first; `wpos` is the flushed prefix
    /// of the front frame and `wq_bytes` the total unflushed byte count.
    wq: VecDeque<Vec<u8>>,
    wq_bytes: usize,
    wpos: usize,
    write_registered: bool,
    read_registered: bool,
    /// Close once the write queue drains.
    closing: bool,
    /// Reads and dispatch suspended by the handler (see [`Outbox::park`]).
    parked: bool,
    /// Queued for the end-of-iteration flush pass.
    dirty: bool,
}

impl Conn {
    fn pending_out(&self) -> usize {
        self.wq_bytes
    }

    fn desired_interest(&self) -> Interest {
        Interest { readable: !self.parked, writable: self.pending_out() > 0 }
    }
}

struct Reactor<H: Handler> {
    poller: Poller,
    listener: TcpListener,
    wakeup: Wakeup,
    config: ReactorConfig,
    handler: H,
    conns: BTreeMap<u64, Conn>,
    next_token: u64,
    stats: Arc<ReactorStats>,
    shutdown: Arc<AtomicBool>,
    events: Vec<Event>,
    /// Tokens with queued output awaiting the end-of-iteration flush.
    dirty: Vec<u64>,
}

impl<H: Handler> Reactor<H> {
    fn run(&mut self) -> io::Result<()> {
        let mut scratch = vec![0u8; self.config.read_buffer.max(1)];
        {
            let mut out = Outbox::default();
            let handle = self.wakeup.handle();
            self.handler.on_start(handle, &mut out);
            self.apply(out);
        }
        while !self.shutdown.load(Ordering::SeqCst) {
            // Everything queued goes out before the loop sleeps.
            self.flush_dirty();
            let mut events = std::mem::take(&mut self.events);
            self.poller.wait(&mut events, -1)?;
            for ev in &events {
                if ev.token == LISTENER_TOKEN {
                    self.accept_ready();
                } else if ev.token == WAKEUP_TOKEN {
                    self.wakeup.drain();
                    self.stats.wakeups.fetch_add(1, Ordering::Relaxed);
                    let mut out = Outbox::default();
                    self.handler.on_wakeup(&mut out);
                    self.apply(out);
                } else if self.conns.contains_key(&ev.token) {
                    let parked = self.conns[&ev.token].parked;
                    if parked {
                        if ev.closed {
                            // The peer vanished while parked: interest is
                            // off but hangups always surface. Tear down;
                            // the handler discards its stash.
                            let midframe = self.conns[&ev.token].decoder.has_partial();
                            if midframe {
                                self.stats.midframe_disconnects.fetch_add(1, Ordering::Relaxed);
                            }
                            let mut queue = VecDeque::new();
                            self.remove_conn(ev.token, midframe, &mut queue);
                            self.apply_queue(queue);
                        }
                    } else if ev.readable || ev.closed {
                        self.read_ready(ev.token, &mut scratch);
                    }
                    if ev.writable && self.conns.contains_key(&ev.token) {
                        self.write_ready(ev.token);
                    }
                }
            }
            self.events = events;
        }
        self.run_shutdown(&mut scratch);
        Ok(())
    }

    fn accept_ready(&mut self) {
        loop {
            match self.listener.accept() {
                Ok((stream, _peer)) => self.adopt_stream(stream),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                // Transient accept failures (ECONNABORTED etc.): keep serving.
                Err(_) => break,
            }
        }
    }

    /// Registers one accepted connection and opens it with the handler.
    fn adopt_stream(&mut self, stream: TcpStream) {
        if self.conns.len() >= self.config.max_connections {
            self.stats.rejected.fetch_add(1, Ordering::Relaxed);
            drop(stream);
            return;
        }
        if stream.set_nonblocking(true).is_err() {
            return;
        }
        // Replies are small writes that must not wait for the peer's
        // delayed ACK. Best effort: without it the connection still works.
        let _ = stream.set_nodelay(true);
        let token = self.next_token;
        self.next_token += 1;
        if self.poller.register(stream.as_raw_fd(), token, Interest::READ).is_err() {
            return;
        }
        self.conns.insert(
            token,
            Conn {
                stream,
                decoder: FrameDecoder::new(self.config.max_frame_payload),
                wq: VecDeque::new(),
                wq_bytes: 0,
                wpos: 0,
                write_registered: false,
                read_registered: true,
                closing: false,
                parked: false,
                dirty: false,
            },
        );
        self.stats.accepted.fetch_add(1, Ordering::Relaxed);
        self.stats.open.fetch_add(1, Ordering::Relaxed);
        let mut out = Outbox::default();
        self.handler.on_open(ConnId(token), &mut out);
        self.apply(out);
    }

    /// Drains the socket to `WouldBlock`, feeds the decoder, and
    /// dispatches every complete frame. Parked connections are left
    /// alone: their bytes stay in the kernel buffer on purpose.
    fn read_ready(&mut self, token: u64, scratch: &mut [u8]) {
        let mut eof = false;
        {
            let Some(conn) = self.conns.get_mut(&token) else { return };
            if conn.parked {
                return;
            }
            loop {
                match conn.stream.read(scratch) {
                    Ok(0) => {
                        eof = true;
                        break;
                    }
                    Ok(n) => {
                        let before = conn.decoder.partial_resumes();
                        conn.decoder.feed(&scratch[..n]);
                        let resumed = conn.decoder.partial_resumes() - before;
                        self.stats.bytes_in.fetch_add(n as u64, Ordering::Relaxed);
                        if resumed > 0 {
                            self.stats.partial_resumes.fetch_add(resumed, Ordering::Relaxed);
                        }
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(_) => {
                        eof = true;
                        break;
                    }
                }
            }
        }
        self.dispatch_decoded(token);
        if eof && self.conns.contains_key(&token) {
            // (If the handler parked mid-dispatch, this is the same
            // teardown a hangup event on a parked conn would get.)
            let midframe = self.conns[&token].decoder.has_partial();
            if midframe {
                self.stats.midframe_disconnects.fetch_add(1, Ordering::Relaxed);
            }
            let mut queue = VecDeque::new();
            self.remove_conn(token, midframe, &mut queue);
            self.apply_queue(queue);
        }
    }

    /// Pops complete frames off a connection's decoder and hands them to
    /// the handler; a framing error sends one `on_frame_error` and marks
    /// the connection draining. Stops at a park: frames decoded but not
    /// yet dispatched wait, preserving arrival order across the park.
    fn dispatch_decoded(&mut self, token: u64) {
        loop {
            if !self.conns.contains_key(&token) {
                return;
            }
            let conn = self.conns.get_mut(&token).expect("checked above");
            if conn.closing || conn.parked {
                // Draining: late frames are not processed. Parked: frames
                // wait for the unpark.
                return;
            }
            let mode = conn.decoder.mode();
            match conn.decoder.next() {
                Ok(Some(frame)) => {
                    match &frame {
                        RawFrame::Json(_) => {
                            self.stats.frames_in_json.fetch_add(1, Ordering::Relaxed)
                        }
                        RawFrame::Binary(_) => {
                            self.stats.frames_in_binary.fetch_add(1, Ordering::Relaxed)
                        }
                    };
                    let mut out = Outbox::default();
                    self.handler.on_frame(ConnId(token), frame, mode, &mut out);
                    self.apply(out);
                }
                Ok(None) => return,
                Err(err) => {
                    self.stats.frame_errors.fetch_add(1, Ordering::Relaxed);
                    let mut out = Outbox::default();
                    self.handler.on_frame_error(ConnId(token), err, &mut out);
                    // Error reply (if any) flushes, then the conn closes.
                    out.close(ConnId(token));
                    self.apply(out);
                    return;
                }
            }
        }
    }

    fn write_ready(&mut self, token: u64) {
        let flushed = {
            let Some(conn) = self.conns.get_mut(&token) else { return };
            match flush_conn(conn, &self.stats) {
                FlushOutcome::Pending => false,
                FlushOutcome::Drained => true,
                FlushOutcome::Broken => {
                    let mut queue = VecDeque::new();
                    self.remove_conn(token, false, &mut queue);
                    self.apply_queue(queue);
                    return;
                }
            }
        };
        if flushed {
            let mut queue = VecDeque::new();
            self.sync_interest(token, &mut queue);
            if self.conns.get(&token).map(|c| c.closing).unwrap_or(false) {
                self.remove_conn(token, false, &mut queue);
            }
            self.apply_queue(queue);
        }
    }

    /// One vectored flush per connection that queued output this
    /// iteration: every frame queued since the last pass goes out in (at
    /// most a few) `writev`-style syscalls instead of one write per frame.
    fn flush_dirty(&mut self) {
        if self.dirty.is_empty() {
            return;
        }
        let dirty = std::mem::take(&mut self.dirty);
        for token in dirty {
            let outcome = {
                let Some(conn) = self.conns.get_mut(&token) else { continue };
                if !conn.dirty {
                    continue;
                }
                conn.dirty = false;
                flush_conn(conn, &self.stats)
            };
            let mut queue = VecDeque::new();
            match outcome {
                FlushOutcome::Broken => {
                    self.remove_conn(token, false, &mut queue);
                }
                FlushOutcome::Pending | FlushOutcome::Drained => {
                    self.sync_interest(token, &mut queue);
                    let done = self
                        .conns
                        .get(&token)
                        .map(|c| c.closing && c.pending_out() == 0)
                        .unwrap_or(false);
                    if done {
                        self.remove_conn(token, false, &mut queue);
                    }
                }
            }
            self.apply_queue(queue);
        }
    }

    /// Brings the poller registration in line with the connection state
    /// (read interest off while parked, write interest only with queued
    /// output). A refused reregister would leave the fd with stale
    /// interest — a silent stall — so it counts in
    /// [`ReactorStats::reregister_failures`] and closes the connection.
    fn sync_interest(&mut self, token: u64, queue: &mut VecDeque<Op>) {
        let (fd, want) = {
            let Some(conn) = self.conns.get_mut(&token) else { return };
            let want = conn.desired_interest();
            let have =
                Interest { readable: conn.read_registered, writable: conn.write_registered };
            if want == have {
                return;
            }
            (conn.stream.as_raw_fd(), want)
        };
        if self.poller.reregister(fd, token, want).is_ok() {
            let conn = self.conns.get_mut(&token).expect("conn checked above");
            conn.read_registered = want.readable;
            conn.write_registered = want.writable;
        } else {
            self.stats.reregister_failures.fetch_add(1, Ordering::Relaxed);
            self.remove_conn(token, false, queue);
        }
    }

    fn apply(&mut self, out: Outbox) {
        self.apply_queue(VecDeque::from(out.ops));
    }

    /// Applies handler ops; close callbacks may enqueue further ops, so
    /// this loops until the queue is empty.
    fn apply_queue(&mut self, mut queue: VecDeque<Op>) {
        while let Some(op) = queue.pop_front() {
            match op {
                Op::Send(id, bytes) => {
                    let Some(conn) = self.conns.get_mut(&id.0) else { continue };
                    if conn.closing || bytes.is_empty() {
                        continue;
                    }
                    self.stats.frames_out.fetch_add(1, Ordering::Relaxed);
                    conn.wq_bytes += bytes.len();
                    conn.wq.push_back(bytes);
                    if !conn.dirty {
                        conn.dirty = true;
                        self.dirty.push(id.0);
                    }
                }
                Op::Close(id) => {
                    let Some(conn) = self.conns.get_mut(&id.0) else { continue };
                    conn.closing = true;
                    if conn.pending_out() == 0 {
                        self.remove_conn(id.0, false, &mut queue);
                    }
                }
                Op::Park(id) => {
                    let Some(conn) = self.conns.get_mut(&id.0) else { continue };
                    if conn.closing || conn.parked {
                        continue;
                    }
                    conn.parked = true;
                    self.stats.parked.fetch_add(1, Ordering::Relaxed);
                    self.sync_interest(id.0, &mut queue);
                }
                Op::Unpark(id) => {
                    let Some(conn) = self.conns.get_mut(&id.0) else { continue };
                    if !conn.parked {
                        continue;
                    }
                    conn.parked = false;
                    self.stats.parked.fetch_sub(1, Ordering::Relaxed);
                    self.sync_interest(id.0, &mut queue);
                    // Frames decoded before the park have been waiting;
                    // dispatch them now, ahead of anything still in the
                    // kernel buffer (the poller re-reports that data).
                    self.dispatch_decoded(id.0);
                }
            }
        }
    }

    /// Tears one connection down: deregister, drop (closes the fd),
    /// notify the handler, then release its park.
    fn remove_conn(&mut self, token: u64, midframe: bool, queue: &mut VecDeque<Op>) {
        let Some(conn) = self.conns.remove(&token) else { return };
        let _ = self.poller.deregister(conn.stream.as_raw_fd());
        let was_parked = conn.parked;
        drop(conn);
        self.stats.closed.fetch_add(1, Ordering::Relaxed);
        self.stats.open.fetch_sub(1, Ordering::Relaxed);
        let mut out = Outbox::default();
        self.handler.on_close(ConnId(token), midframe, &mut out);
        // The handler settles a parked connection's books (its abandoned
        // stash) first, so an observer that sees the park gauge fall with
        // an Acquire load also sees them settled.
        if was_parked {
            self.stats.parked.fetch_sub(1, Ordering::Release);
        }
        queue.extend(out.ops);
    }

    /// The graceful-shutdown sequence (see the module docs).
    fn run_shutdown(&mut self, scratch: &mut [u8]) {
        let _ = self.poller.deregister(self.listener.as_raw_fd());
        // Drain in-flight: one nonblocking read sweep picks up frames
        // already buffered in the kernel, then dispatch completes them.
        // Parked connections are skipped — their admission is stalled by
        // construction, and the handler discards their stash on close.
        let tokens: Vec<u64> = self.conns.keys().copied().collect();
        for token in tokens {
            if self.conns.get(&token).map(|c| !c.parked).unwrap_or(false) {
                self.read_ready(token, scratch);
            }
        }
        let mut out = Outbox::default();
        self.handler.on_shutdown(&mut out);
        self.apply(out);
        self.flush_dirty();
        // Bounded flush of pending writes.
        let deadline = Instant::now() + self.config.shutdown_flush;
        let mut events = std::mem::take(&mut self.events);
        while self.conns.values().any(|c| c.pending_out() > 0) && Instant::now() < deadline {
            if self.poller.wait(&mut events, 5).is_err() {
                break;
            }
            let writable: Vec<u64> =
                events.iter().filter(|e| e.writable).map(|e| e.token).collect();
            for token in writable {
                if self.conns.contains_key(&token) {
                    self.write_ready(token);
                }
            }
        }
        self.events = events;
        // Close whatever is left.
        let tokens: Vec<u64> = self.conns.keys().copied().collect();
        for token in tokens {
            let midframe =
                self.conns.get(&token).map(|c| c.decoder.has_partial()).unwrap_or(false);
            if midframe {
                self.stats.midframe_disconnects.fetch_add(1, Ordering::Relaxed);
            }
            let mut queue = VecDeque::new();
            self.remove_conn(token, midframe, &mut queue);
            self.apply_queue(queue);
        }
    }
}

enum FlushOutcome {
    /// Bytes remain buffered.
    Pending,
    /// The buffer drained completely.
    Drained,
    /// The socket is broken (EPIPE/reset); the connection must close.
    Broken,
}

/// Writes as much of the connection's queue as the socket accepts, many
/// frames per syscall (vectored).
fn flush_conn(conn: &mut Conn, stats: &ReactorStats) -> FlushOutcome {
    while conn.pending_out() > 0 {
        let mut slices: Vec<IoSlice<'_>> = Vec::with_capacity(conn.wq.len().min(MAX_FLUSH_IOVECS));
        let mut iter = conn.wq.iter();
        if let Some(front) = iter.next() {
            slices.push(IoSlice::new(&front[conn.wpos..]));
        }
        for frame in iter.take(MAX_FLUSH_IOVECS - 1) {
            slices.push(IoSlice::new(frame));
        }
        match conn.stream.write_vectored(&slices) {
            Ok(0) => return FlushOutcome::Broken,
            Ok(mut n) => {
                stats.bytes_out.fetch_add(n as u64, Ordering::Relaxed);
                conn.wq_bytes -= n;
                while n > 0 {
                    let front_remaining = match conn.wq.front() {
                        Some(front) => front.len() - conn.wpos,
                        None => break,
                    };
                    if n >= front_remaining {
                        conn.wq.pop_front();
                        conn.wpos = 0;
                        n -= front_remaining;
                    } else {
                        conn.wpos += n;
                        n = 0;
                    }
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return FlushOutcome::Pending,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => return FlushOutcome::Broken,
        }
    }
    FlushOutcome::Drained
}
