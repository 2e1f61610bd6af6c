//! The TCP front end: `rfidraw-net`'s reactor wired to the tracking
//! service.
//!
//! One reactor thread owns every connection (accept, framed reads,
//! buffered writes); this module supplies the [`rfidraw_net::Handler`]
//! that answers each complete frame against the shared [`LocalClient`].
//! The integration tests assert that the positions it streams are
//! bit-identical to standalone trackers.
//!
//! **Pushed updates.** A subscription opened here carries the reactor's
//! [`WakeupHandle`]: a worker sends each drain's events, then pokes the
//! pipe once, and [`rfidraw_net::Handler::on_wakeup`] forwards them.
//! Reads that cannot finish a tick never reach a worker: admission
//! applies them on the reactor thread (see [`LocalClient`]'s scheduling),
//! so they produce no events to push.
//!
//! Each connection speaks either newline-JSON (wire v2) or length-
//! prefixed binary (wire v3); the reactor's decoder negotiates from the
//! first byte and replies are encoded in the connection's own protocol.
//! Framing-level corruption (bad magic, oversized declared length, an
//! over-long line) is unrecoverable by construction, so the handler
//! queues exactly one `Error` frame and the reactor flushes it and closes.
//! Payload-level garbage (valid frame, malformed JSON or binary body)
//! costs an `Error` reply and nothing else — the connection survives.
//!
//! On graceful shutdown the reactor first delivers frames already
//! received, then [`rfidraw_net::Handler::on_shutdown`] drains every
//! subscription and emits a final `SessionClosed { reason: "shutdown" }`
//! per still-open subscription before the flush-and-close, so clients
//! always observe an explicit end-of-stream.
//!
//! **Backpressure never sleeps the reactor thread.** Ingest on this
//! front end goes through the session's *non-blocking* admission path:
//! when a queue fills mid-batch, the handler stashes the unadmitted tail
//! as a `PendingIngest`, parks the connection (the reactor drops its read
//! interest, so the kernel TCP buffer pushes the stall back onto that
//! client alone), and holds the `IngestAck`. The reactor's wakeup handle,
//! armed on the session as a drain waiter, is poked when space frees;
//! [`rfidraw_net::Handler::on_wakeup`] then re-admits from the stash, and
//! once the whole batch is in, sends the merged ack and unparks.
//! Admission stays lossless per connection — every read is acked as
//! accepted exactly once — while other connections keep flowing. See
//! DESIGN.md §13 for the state machine.

use crate::service::{LocalClient, ServeError};
use crate::session::{EnqueueOutcome, IngestReceipt, SessionEvent, SessionShared};
use crate::wire::{
    self, DecodeError, IngestAck, IngestBatch, Message, MetricsText, PositionUpdate,
    SessionClosed, TraceDumpReply, WireError,
};
use crate::wire3;
use rfidraw_core::stream::PhaseRead;
use rfidraw_net::{
    ConnId, FrameError, Outbox, RawFrame, ReactorConfig, ReactorHandle, ReactorStats,
    WakeupHandle, WireMode,
};
use rfidraw_protocol::Epc;
use std::collections::HashMap;
use std::io;
use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
use std::sync::{mpsc, Arc};

/// One live subscription being forwarded onto a connection.
struct Sub {
    epc: Epc,
    rx: mpsc::Receiver<SessionEvent>,
}

/// A partially admitted ingest: the connection is parked and this
/// carries everything needed to finish the batch as the session drains.
struct PendingIngest {
    epc: Epc,
    session: Arc<SessionShared>,
    reads: Vec<PhaseRead>,
    /// Index of the first read not yet admitted. Reads at and beyond it
    /// are counted in no metric until a retry resolves them.
    next: usize,
    /// Accounting accumulated across admission rounds; becomes the single
    /// merged `IngestAck` once the batch completes.
    receipt: IngestReceipt,
}

impl PendingIngest {
    fn stashed(&self) -> u64 {
        (self.reads.len() - self.next) as u64
    }
}

/// Per-connection handler state.
#[derive(Default)]
struct ConnState {
    /// Negotiated protocol; `Unknown` until the first complete frame.
    mode: WireMode,
    subs: Vec<Sub>,
    /// The stash of a parked connection's partially admitted ingest.
    /// `Some` exactly while the reactor has the connection parked.
    pending: Option<PendingIngest>,
}

/// An `Error` reply with one of [`WireError::code`]'s stable codes.
fn error_reply(code: &str, message: String) -> Message {
    Message::Error(WireError { code: code.to_string(), message })
}

fn serve_error(e: &ServeError) -> Message {
    let code = match e {
        ServeError::SessionLimit { .. } => "limit",
        ServeError::ShuttingDown => "shutdown",
    };
    error_reply(code, e.to_string())
}

fn encode_for(mode: WireMode, msg: &Message) -> Vec<u8> {
    match mode {
        WireMode::Binary => wire3::encode_frame(msg),
        // JSON is also the answer for `Unknown`: a frame error can fire
        // before negotiation completes, and text is the diagnosable
        // choice for a peer we know nothing about.
        WireMode::Json | WireMode::Unknown => {
            let mut line = wire::encode(msg).into_bytes();
            line.push(b'\n');
            line
        }
    }
}

/// Runs admission rounds for a pending ingest until the batch completes
/// or the queue is full with a drain waiter armed. Returns `true` when
/// the batch fully resolved (the merged ack may be sent).
///
/// The arm-then-retry protocol closes the obvious race: after a `Full`
/// round, the reactor's wakeup handle is armed on the session as a drain
/// waiter and the enqueue retried once more — a drain that landed between
/// the failed attempt and the arm is caught by the retry, one that lands
/// after the arm pokes the handle. Spurious wakeups just re-run this and
/// park again.
fn advance_pending(
    client: &LocalClient,
    wakeup: Option<&WakeupHandle>,
    p: &mut PendingIngest,
    initial: bool,
) -> bool {
    let capacity = client.queue_capacity();
    let g = client.metrics();
    let accepted_before = p.receipt.accepted;
    let rejected_before = p.receipt.rejected;
    let mut armed = false;
    let done = loop {
        match p.session.try_enqueue(&p.reads[p.next..], capacity, g) {
            EnqueueOutcome::Done(r) => {
                p.receipt.merge(r);
                p.next = p.reads.len();
                break true;
            }
            EnqueueOutcome::Full { receipt, admitted } => {
                p.receipt.merge(receipt);
                p.next += admitted;
                if armed {
                    break false;
                }
                let Some(wakeup) = wakeup else { break false };
                p.session.register_drain_waiter(wakeup.clone());
                armed = true;
            }
        }
    };
    // Retry rounds resolve reads that were counted into `parked_reads`
    // when the stash formed; attribute how each one left the stash.
    if !initial {
        g.readmissions.add(p.receipt.accepted - accepted_before);
        g.parked_rejected.add(p.receipt.rejected - rejected_before);
    }
    // Scheduling may apply quiet reads right here, on the reactor thread;
    // the drain waiters that fires poke this reactor's own pipe, so a
    // stash still parked on the session is retried on the next turn.
    if p.receipt.accepted > accepted_before {
        client.schedule(&p.session);
    }
    done
}

/// The application handler running on the reactor thread.
struct ServeHandler {
    client: LocalClient,
    conns: HashMap<u64, ConnState>,
    /// This reactor's wakeup pipe (from `on_start`); subscriptions and
    /// drain waiters clone it to signal events or re-admission room.
    wakeup: Option<WakeupHandle>,
}

impl ServeHandler {
    fn new(client: LocalClient) -> Self {
        Self { client, conns: HashMap::new(), wakeup: None }
    }

    /// Ingest: validate, then admit without ever blocking the reactor
    /// thread — a partial admission parks the connection and holds the
    /// ack until the stash drains.
    fn handle_ingest(&mut self, conn: ConnId, batch: IngestBatch, mode: WireMode, out: &mut Outbox) {
        // Wire-boundary validation: a crafted batch (1e999 → Inf, negative
        // time) is refused whole and counted; it never creates a session
        // or reaches a tracker queue, and the connection survives.
        let invalid = batch.reads.iter().filter(|r| !wire::read_is_valid(r)).count() as u64;
        if invalid > 0 {
            let total = batch.reads.len();
            self.client.note_invalid_ingest(batch.epc, total as u64, invalid);
            let message = format!(
                "batch refused: {invalid} of {total} reads have non-finite or negative fields"
            );
            out.send(conn, encode_for(mode, &error_reply("invalid", message)));
            return;
        }
        let session = match self.client.session(batch.epc) {
            Ok(s) => s,
            Err(e) => {
                out.send(conn, encode_for(mode, &serve_error(&e)));
                return;
            }
        };
        let mut pending = PendingIngest {
            epc: batch.epc,
            session,
            reads: batch.reads,
            next: 0,
            receipt: IngestReceipt::default(),
        };
        if advance_pending(&self.client, self.wakeup.as_ref(), &mut pending, true) {
            let ack = IngestAck::from_receipt(pending.epc, pending.receipt);
            out.send(conn, encode_for(mode, &Message::IngestAck(ack)));
            return;
        }
        // Partial admission: count the stash once, park, hold the ack.
        let stashed = pending.stashed();
        self.client.metrics().parked_reads.add(stashed);
        match self.conns.get_mut(&conn.0) {
            Some(state) => {
                state.pending = Some(pending);
                out.park(conn);
            }
            // Unknown connection (racing close): the stash dies here, with
            // the same accounting as a mid-park disconnect.
            None => pending.session.note_parked_discarded(stashed, self.client.metrics()),
        }
    }

    /// Forwards one connection's pending subscription events; a `Closed`
    /// event retires its subscription.
    fn forward_events(conn: ConnId, state: &mut ConnState, out: &mut Outbox) {
        let mode = state.mode;
        state.subs.retain_mut(|sub| loop {
            let (msg, live) = match sub.rx.try_recv() {
                Ok(SessionEvent::Position { epc, t, pos }) => {
                    (Message::PositionUpdate(PositionUpdate { epc, t, x: pos.x, z: pos.z }), true)
                }
                Ok(SessionEvent::Closed { epc, reason }) => {
                    (session_closed(epc, reason.as_str()), false)
                }
                // In-process-only detail, not part of the wire protocol.
                Ok(SessionEvent::Acquired { .. })
                | Ok(SessionEvent::Stale { .. })
                | Ok(SessionEvent::Degraded { .. }) => continue,
                Err(mpsc::TryRecvError::Empty) => return true,
                // Channel gone without a Closed event (service dropped):
                // nothing more will arrive, report the end-of-stream.
                Err(mpsc::TryRecvError::Disconnected) => {
                    (session_closed(sub.epc, "shutdown"), false)
                }
            };
            out.send(conn, encode_for(mode, &msg));
            if !live {
                return false;
            }
        });
    }
}

/// The wire end-of-stream frame for one subscription.
fn session_closed(epc: Epc, reason: &str) -> Message {
    Message::SessionClosed(SessionClosed { epc, reason: reason.to_string() })
}

impl rfidraw_net::Handler for ServeHandler {
    fn on_start(&mut self, wakeup: WakeupHandle, _out: &mut Outbox) {
        self.wakeup = Some(wakeup);
    }

    fn on_open(&mut self, conn: ConnId, _out: &mut Outbox) {
        self.conns.insert(conn.0, ConnState::default());
    }

    fn on_frame(&mut self, conn: ConnId, frame: RawFrame, mode: WireMode, out: &mut Outbox) {
        if let Some(state) = self.conns.get_mut(&conn.0) {
            state.mode = mode;
        }
        let msg = match &frame {
            RawFrame::Json(line) => wire::decode(line),
            RawFrame::Binary(bin) => wire3::decode_frame(bin),
        };
        let reply = match msg {
            // Payload-level failure: the framing is intact, so the
            // connection survives with an error reply.
            Err(e) => {
                let code = match e {
                    DecodeError::Version { .. } => "version",
                    DecodeError::Malformed(_) => "parse",
                };
                error_reply(code, e.to_string())
            }
            // Ingest replies itself: its ack may wait for a parked stash.
            Ok(Message::Ingest(batch)) => {
                self.handle_ingest(conn, batch, mode, out);
                return;
            }
            // A subscription carries this reactor's wakeup handle, so a
            // worker that sends it events pokes the loop to forward them.
            Ok(Message::Subscribe(sub)) => match self.client.session(sub.epc) {
                Ok(session) => {
                    let rx = session.subscribe(self.wakeup.clone());
                    if let Some(state) = self.conns.get_mut(&conn.0) {
                        state.subs.push(Sub { epc: sub.epc, rx });
                    }
                    return;
                }
                Err(e) => serve_error(&e),
            },
            Ok(Message::TelemetryRequest) => Message::Telemetry(self.client.telemetry()),
            Ok(Message::MetricsRequest) => {
                Message::MetricsText(MetricsText { body: self.client.telemetry().to_prometheus() })
            }
            Ok(Message::TraceQuery(q)) => match self.client.trace_recorder() {
                Some(rec) => {
                    let mut dumps = rec.dumps();
                    if q.max_dumps > 0 && dumps.len() > q.max_dumps as usize {
                        dumps.drain(..dumps.len() - q.max_dumps as usize);
                    }
                    if q.clear {
                        rec.clear_dumps();
                    }
                    Message::TraceDump(TraceDumpReply { dumps })
                }
                None => error_reply(
                    "unsupported",
                    "service was started without a trace recorder".to_string(),
                ),
            },
            // Server→client messages arriving at the server are a protocol
            // violation; refuse but keep the connection.
            Ok(other) => error_reply("unsupported", format!("not a client request: {other:?}")),
        };
        out.send(conn, encode_for(mode, &reply));
    }

    fn on_frame_error(&mut self, conn: ConnId, err: FrameError, out: &mut Outbox) {
        // The byte stream is unrecoverable; the reactor closes after this
        // reply flushes. Answer in the negotiated protocol when known,
        // else infer it from the failure itself (length/magic problems
        // are binary-side, line/UTF-8 problems are JSON-side).
        let mode = match self.conns.get(&conn.0).map(|s| s.mode) {
            Some(WireMode::Unknown) | None => match err {
                FrameError::BadMagic { .. }
                | FrameError::BadVersion { .. }
                | FrameError::Oversized { .. } => WireMode::Binary,
                FrameError::LineTooLong { .. } | FrameError::NotUtf8 => WireMode::Json,
            },
            Some(mode) => mode,
        };
        out.send(conn, encode_for(mode, &error_reply("frame", err.to_string())));
    }

    fn on_close(&mut self, conn: ConnId, _midframe: bool, _out: &mut Outbox) {
        if let Some(state) = self.conns.remove(&conn.0) {
            if let Some(p) = state.pending {
                // Parked connection died with a stash outstanding: the
                // unadmitted reads are accounted as discarded so the
                // parking conservation law stays exact.
                p.session.note_parked_discarded(p.stashed(), self.client.metrics());
            }
        }
    }

    fn on_wakeup(&mut self, out: &mut Outbox) {
        // A subscription has events or a drain waiter fired; one firing
        // may stand for several, so forward every subscription and retry
        // every parked stash (those still blocked re-arm and stay parked).
        for (&token, state) in self.conns.iter_mut() {
            let conn = ConnId(token);
            Self::forward_events(conn, state, out);
            let Some(mut p) = state.pending.take() else { continue };
            if advance_pending(&self.client, self.wakeup.as_ref(), &mut p, false) {
                let ack = IngestAck::from_receipt(p.epc, p.receipt);
                out.send(conn, encode_for(state.mode, &Message::IngestAck(ack)));
                out.unpark(conn);
            } else {
                state.pending = Some(p);
            }
        }
    }

    fn on_shutdown(&mut self, out: &mut Outbox) {
        // In-flight frames were already delivered by the reactor's final
        // read sweep; whatever replies they queued are ahead of us in the
        // write buffers. Drain every subscription one last time, then
        // announce the shutdown on each still-open subscription so no
        // client is left waiting on a stream that will never end.
        for (&token, state) in self.conns.iter_mut() {
            Self::forward_events(ConnId(token), state, out);
            for sub in state.subs.drain(..) {
                out.send(
                    ConnId(token),
                    encode_for(state.mode, &session_closed(sub.epc, "shutdown")),
                );
            }
        }
    }
}

/// The TCP front end bound to an address: one reactor thread that
/// accepts connections, speaks both wire protocols, and serves the shared
/// [`LocalClient`].
pub struct ReactorServer {
    handle: ReactorHandle,
}

impl ReactorServer {
    /// Binds `addr` and starts one reactor thread with `cfg`. The
    /// reactor's live counters are registered with the service telemetry.
    pub fn bind<A: ToSocketAddrs>(
        addr: A,
        client: LocalClient,
        cfg: ReactorConfig,
    ) -> io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let handle = rfidraw_net::spawn(listener, cfg, ServeHandler::new(client.clone()))?;
        client.register_net_stats(handle.stats());
        Ok(Self { handle })
    }

    /// The bound address (resolves the ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.handle.local_addr()
    }

    /// The reactor's live counters.
    pub fn stats(&self) -> Arc<ReactorStats> {
        self.handle.stats()
    }

    /// Which readiness backend runs (`"epoll"` or `"poll"`).
    pub fn backend_name(&self) -> &'static str {
        self.handle.backend_name()
    }

    /// Graceful shutdown: deliver in-flight frames, emit `SessionClosed`
    /// to open subscriptions, flush, close, join. Also runs on drop.
    pub fn shutdown(&mut self) -> io::Result<()> {
        self.handle.shutdown()
    }
}
