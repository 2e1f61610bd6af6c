//! Thread-per-connection front end and the dual-protocol [`WireClient`].
//!
//! [`WireServer`] is the original blocking front end: each connection gets
//! a reader thread (parses frames, calls into the shared [`LocalClient`])
//! and a writer thread (serializes replies and subscription pushes; an
//! mpsc channel in between keeps frames atomic even when a subscription
//! forwarder and a request reply race). It speaks newline-JSON (wire v2)
//! only and stays available as the config-selectable fallback behind the
//! reactor front end ([`crate::reactor`]); both share the request
//! dispatcher in this module, so their semantics cannot drift.
//!
//! [`WireClient`] is the matching blocking client and speaks both
//! protocols: [`WireProtocol::JsonV2`] (newline JSON) and
//! [`WireProtocol::BinaryV3`] (length-prefixed binary). Protocol choice
//! happens at connect time — the server infers it from the first byte the
//! client sends and answers in kind.
//!
//! **Connection discipline.** Replies to requests and subscription pushes
//! share one ordered byte stream, so a connection that both ingests and
//! subscribes will see `IngestAck` frames interleaved with
//! `PositionUpdate` frames. The convenience helpers on [`WireClient`]
//! (`ingest`, `telemetry`) assume the next inbound frame answers the
//! request — use one connection for ingest and a separate one for
//! subscriptions, as the integration tests do.

use crate::service::{LocalClient, ServeError};
use crate::session::SessionEvent;
use crate::telemetry::TelemetryReport;
use crate::wire::{
    self, DecodeError, IngestAck, IngestBatch, Message, MetricsText, PositionUpdate,
    SessionClosed, Subscribe, TraceDumpReply, TraceQuery, WireError,
};
use crate::wire3;
use rfidraw_core::stream::PhaseRead;
use rfidraw_metrics::TraceDump;
use rfidraw_net::{FrameDecoder, RawFrame, ReactorStats, WakeupHandle, WireMode};
use rfidraw_protocol::Epc;
use std::io::{self, BufRead, BufReader, BufWriter, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;

/// What handling one client request produced (shared by both front ends,
/// so reactor and thread-per-connection semantics cannot drift).
pub(crate) enum Dispatch {
    /// Send this reply.
    Reply(Message),
    /// A subscription was opened; its events now belong on this
    /// connection.
    Subscribed(mpsc::Receiver<SessionEvent>),
}

/// Wire-boundary validation shared by both front ends: a crafted batch
/// (1e999 → Inf, negative time) must never reach a tracker queue. Returns
/// the refusal reply when the whole batch must be refused (counted; the
/// connection survives), `None` when the batch may proceed to admission.
pub(crate) fn validate_ingest(client: &LocalClient, batch: &IngestBatch) -> Option<Message> {
    let invalid = batch.reads.iter().filter(|r| !wire::read_is_valid(r)).count() as u64;
    if invalid == 0 {
        return None;
    }
    client.note_invalid_ingest(batch.epc, batch.reads.len() as u64, invalid);
    Some(Message::Error(WireError {
        code: "invalid".to_string(),
        message: format!(
            "batch refused: {invalid} of {} reads have non-finite or negative fields",
            batch.reads.len()
        ),
    }))
}

/// Handles one decoded client→server message against the service. A
/// subscription pokes `wakeup` (the reactor's own) after each batch.
pub(crate) fn dispatch_request(
    client: &LocalClient,
    msg: Message,
    wakeup: Option<&WakeupHandle>,
) -> Dispatch {
    match msg {
        Message::Ingest(batch) => {
            let reply = match validate_ingest(client, &batch) {
                Some(refusal) => refusal,
                None => match client.ingest(batch.epc, &batch.reads) {
                    Ok(receipt) => Message::IngestAck(IngestAck::from_receipt(batch.epc, receipt)),
                    Err(e) => Message::Error(serve_error(&e)),
                },
            };
            Dispatch::Reply(reply)
        }
        Message::Subscribe(sub) => match client.session(sub.epc) {
            Ok(session) => Dispatch::Subscribed(session.subscribe(wakeup.cloned())),
            Err(e) => Dispatch::Reply(Message::Error(serve_error(&e))),
        },
        Message::TelemetryRequest => Dispatch::Reply(Message::Telemetry(client.telemetry())),
        Message::MetricsRequest => Dispatch::Reply(Message::MetricsText(MetricsText {
            body: client.telemetry().to_prometheus(),
        })),
        Message::TraceQuery(q) => match client.trace_recorder() {
            Some(rec) => {
                let mut dumps = rec.dumps();
                if q.max_dumps > 0 && dumps.len() > q.max_dumps as usize {
                    dumps.drain(..dumps.len() - q.max_dumps as usize);
                }
                if q.clear {
                    rec.clear_dumps();
                }
                Dispatch::Reply(Message::TraceDump(TraceDumpReply { dumps }))
            }
            None => Dispatch::Reply(Message::Error(WireError {
                code: "unsupported".to_string(),
                message: "service was started without a trace recorder".to_string(),
            })),
        },
        // Server→client messages arriving at the server are a protocol
        // violation; refuse but keep the connection.
        other => Dispatch::Reply(Message::Error(WireError {
            code: "unsupported".to_string(),
            message: format!("not a client request: {other:?}"),
        })),
    }
}

/// Maps a payload-level decode failure to its error reply (connection
/// survives; framing-level failures are the reactor's business).
pub(crate) fn decode_error_reply(e: &DecodeError) -> Message {
    let code = match e {
        DecodeError::Version { .. } => "version",
        DecodeError::Malformed(_) => "parse",
    };
    Message::Error(WireError { code: code.to_string(), message: e.to_string() })
}

pub(crate) fn serve_error(e: &ServeError) -> WireError {
    let code = match e {
        ServeError::SessionLimit { .. } => "limit",
        ServeError::ShuttingDown => "shutdown",
    };
    WireError { code: code.to_string(), message: e.to_string() }
}

/// The thread-per-connection TCP server: an accept loop fanning out
/// blocking handlers that all share one [`LocalClient`]. Newline-JSON
/// only (the fallback matrix lives in DESIGN.md §12).
pub struct WireServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
    stats: Arc<ReactorStats>,
}

impl WireServer {
    /// Binds `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and starts
    /// accepting.
    pub fn bind<A: ToSocketAddrs>(addr: A, client: LocalClient) -> io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop_flag = Arc::clone(&stop);
        // The same counter block the reactor uses, so telemetry sums both
        // front ends uniformly.
        let stats = Arc::new(ReactorStats::default());
        client.register_net_stats(Arc::clone(&stats));
        let conn_stats = Arc::clone(&stats);
        let accept = std::thread::Builder::new()
            .name("rfidraw-serve-accept".to_string())
            .spawn(move || {
                for conn in listener.incoming() {
                    if stop_flag.load(Ordering::Acquire) {
                        return;
                    }
                    if let Ok(stream) = conn {
                        spawn_connection(stream, client.clone(), Arc::clone(&conn_stats));
                    }
                }
            })?;
        Ok(Self { addr: local, stop, accept: Some(accept), stats })
    }

    /// The bound address (resolves the ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// This front end's live connection/frame counters.
    pub fn stats(&self) -> Arc<ReactorStats> {
        Arc::clone(&self.stats)
    }
}

impl Drop for WireServer {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Release);
        // Wake the blocking accept with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        // Connection handler threads exit on their own when the peer hangs
        // up (reader sees EOF) or the tracking service closes the sessions
        // they forward (the forwarder sends `SessionClosed` and returns).
    }
}

fn spawn_connection(stream: TcpStream, client: LocalClient, stats: Arc<ReactorStats>) {
    let _ = std::thread::Builder::new().name("rfidraw-serve-conn".to_string()).spawn(move || {
        stats.accepted.fetch_add(1, Ordering::Relaxed);
        stats.open.fetch_add(1, Ordering::Relaxed);
        let write_stream = match stream.try_clone() {
            Ok(s) => s,
            Err(_) => {
                stats.open.fetch_sub(1, Ordering::Relaxed);
                stats.closed.fetch_add(1, Ordering::Relaxed);
                return;
            }
        };
        // All outbound frames funnel through one writer thread so a
        // subscription push can never split a reply frame.
        let (tx, rx) = mpsc::channel::<String>();
        let writer_stats = Arc::clone(&stats);
        let writer = std::thread::spawn(move || {
            let mut w = BufWriter::new(write_stream);
            while let Ok(line) = rx.recv() {
                if w.write_all(line.as_bytes()).is_err() || w.flush().is_err() {
                    return;
                }
                writer_stats.bytes_out.fetch_add(line.len() as u64, Ordering::Relaxed);
            }
        });
        serve_connection(stream, &client, &tx, &stats);
        // Dropping our sender ends the writer thread once any subscription
        // forwarders (which hold clones) finish too.
        drop(tx);
        let _ = writer.join();
        stats.open.fetch_sub(1, Ordering::Relaxed);
        stats.closed.fetch_add(1, Ordering::Relaxed);
    });
}

/// Queues one frame; `false` means the writer is gone (connection dead).
fn send_msg(tx: &mpsc::Sender<String>, stats: &ReactorStats, msg: &Message) -> bool {
    let mut line = wire::encode(msg);
    line.push('\n');
    if tx.send(line).is_ok() {
        stats.frames_out.fetch_add(1, Ordering::Relaxed);
        true
    } else {
        false
    }
}

fn serve_connection(
    stream: TcpStream,
    client: &LocalClient,
    tx: &mpsc::Sender<String>,
    stats: &Arc<ReactorStats>,
) {
    let mut r = BufReader::new(stream);
    let mut line = String::new();
    loop {
        line.clear();
        let n = match r.read_line(&mut line) {
            Ok(0) | Err(_) => return,
            Ok(n) => n,
        };
        stats.bytes_in.fetch_add(n as u64, Ordering::Relaxed);
        if line.trim().is_empty() {
            // Tolerate keep-alive blank lines.
            continue;
        }
        stats.frames_in_json.fetch_add(1, Ordering::Relaxed);
        let reply_sent = match wire::decode(&line) {
            Err(e) => send_msg(tx, stats, &decode_error_reply(&e)),
            Ok(msg) => match dispatch_request(client, msg, None) {
                Dispatch::Reply(reply) => send_msg(tx, stats, &reply),
                Dispatch::Subscribed(events) => {
                    let tx = tx.clone();
                    let sub_stats = Arc::clone(stats);
                    let _ = std::thread::Builder::new()
                        .name("rfidraw-serve-sub".to_string())
                        .spawn(move || forward_events(&events, &tx, &sub_stats));
                    true
                }
            },
        };
        if !reply_sent {
            return;
        }
    }
}

/// Maps a session's event stream onto the wire until the session closes or
/// the connection dies. Only positions and the final close go out;
/// acquisition/stale/cursor events are in-process-only detail.
fn forward_events(
    events: &mpsc::Receiver<SessionEvent>,
    tx: &mpsc::Sender<String>,
    stats: &ReactorStats,
) {
    while let Ok(ev) = events.recv() {
        match ev {
            SessionEvent::Position { epc, t, pos } => {
                let msg = Message::PositionUpdate(PositionUpdate { epc, t, x: pos.x, z: pos.z });
                if !send_msg(tx, stats, &msg) {
                    return;
                }
            }
            SessionEvent::Closed { epc, reason } => {
                let msg = Message::SessionClosed(SessionClosed {
                    epc,
                    reason: reason.as_str().to_string(),
                });
                let _ = send_msg(tx, stats, &msg);
                return;
            }
            SessionEvent::Acquired { .. }
            | SessionEvent::Stale { .. }
            | SessionEvent::Degraded { .. }
            | SessionEvent::Cursor { .. } => {}
        }
    }
}

/// Which protocol a [`WireClient`] speaks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WireProtocol {
    /// Newline-delimited JSON envelopes (wire v2). Understood by both
    /// front ends.
    #[default]
    JsonV2,
    /// Length-prefixed binary frames (wire v3). Requires the reactor
    /// front end.
    BinaryV3,
}

/// A blocking wire-protocol client over one TCP connection, speaking
/// either protocol (fixed at connect time; the server negotiates from the
/// first byte received).
pub struct WireClient {
    reader: TcpStream,
    writer: TcpStream,
    decoder: FrameDecoder,
    protocol: WireProtocol,
    buf: Vec<u8>,
}

impl WireClient {
    /// Connects speaking newline-JSON (wire v2).
    pub fn connect<A: ToSocketAddrs>(addr: A) -> io::Result<Self> {
        Self::connect_with(addr, WireProtocol::JsonV2)
    }

    /// Connects speaking binary framing (wire v3).
    pub fn connect_binary<A: ToSocketAddrs>(addr: A) -> io::Result<Self> {
        Self::connect_with(addr, WireProtocol::BinaryV3)
    }

    /// Connects with an explicit protocol choice.
    pub fn connect_with<A: ToSocketAddrs>(addr: A, protocol: WireProtocol) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let writer = stream.try_clone()?;
        let mode = match protocol {
            WireProtocol::JsonV2 => WireMode::Json,
            WireProtocol::BinaryV3 => WireMode::Binary,
        };
        Ok(Self {
            reader: stream,
            writer,
            decoder: FrameDecoder::with_mode(mode, rfidraw_net::DEFAULT_MAX_PAYLOAD),
            protocol,
            buf: vec![0u8; 16 * 1024],
        })
    }

    /// The protocol this connection speaks.
    pub fn protocol(&self) -> WireProtocol {
        self.protocol
    }

    /// Sends one frame.
    pub fn send(&mut self, msg: &Message) -> io::Result<()> {
        match self.protocol {
            WireProtocol::JsonV2 => wire::write_frame(&mut self.writer, msg),
            WireProtocol::BinaryV3 => {
                self.writer.write_all(&wire3::encode_frame(msg))?;
                self.writer.flush()
            }
        }
    }

    /// The raw write half (protocol-violation tests speak through this).
    pub fn stream_mut(&mut self) -> &mut TcpStream {
        &mut self.writer
    }

    /// Receives the next frame; `None` when the server hung up cleanly.
    /// Decode failures and mid-frame EOF surface as `InvalidData` /
    /// `UnexpectedEof`.
    pub fn recv(&mut self) -> io::Result<Option<Message>> {
        loop {
            match self.decoder.next() {
                Ok(Some(RawFrame::Json(line))) => {
                    return match wire::decode(&line) {
                        Ok(msg) => Ok(Some(msg)),
                        Err(e) => Err(io::Error::new(io::ErrorKind::InvalidData, e.to_string())),
                    };
                }
                Ok(Some(RawFrame::Binary(frame))) => {
                    return match wire3::decode_frame(&frame) {
                        Ok(msg) => Ok(Some(msg)),
                        Err(e) => Err(io::Error::new(io::ErrorKind::InvalidData, e.to_string())),
                    };
                }
                Ok(None) => {}
                Err(e) => {
                    return Err(io::Error::new(io::ErrorKind::InvalidData, e.to_string()));
                }
            }
            let n = self.reader.read(&mut self.buf)?;
            if n == 0 {
                if self.decoder.has_partial() {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "server closed mid-frame",
                    ));
                }
                return Ok(None);
            }
            self.decoder.feed(&self.buf[..n]);
        }
    }

    /// Ingests a batch and waits for its ack. Only valid on a connection
    /// with no active subscription (see the module docs).
    pub fn ingest(&mut self, epc: Epc, reads: &[PhaseRead]) -> io::Result<IngestAck> {
        self.send(&Message::Ingest(IngestBatch { epc, reads: reads.to_vec() }))?;
        match self.recv()? {
            Some(Message::IngestAck(ack)) => Ok(ack),
            Some(Message::Error(e)) => Err(io::Error::new(
                io::ErrorKind::Other,
                format!("server refused ingest ({}): {}", e.code, e.message),
            )),
            Some(other) => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("expected IngestAck, got {other:?}"),
            )),
            None => Err(io::ErrorKind::UnexpectedEof.into()),
        }
    }

    /// Starts a subscription on this connection; the server then pushes
    /// [`Message::PositionUpdate`] frames, ending with
    /// [`Message::SessionClosed`]. Read them with [`WireClient::recv`].
    pub fn subscribe(&mut self, epc: Epc) -> io::Result<()> {
        self.send(&Message::Subscribe(Subscribe { epc }))
    }

    /// Fetches a telemetry snapshot. Only valid on a connection with no
    /// active subscription (see the module docs).
    pub fn telemetry(&mut self) -> io::Result<TelemetryReport> {
        self.send(&Message::TelemetryRequest)?;
        match self.recv()? {
            Some(Message::Telemetry(report)) => Ok(report),
            Some(Message::Error(e)) => Err(io::Error::new(
                io::ErrorKind::Other,
                format!("server refused telemetry ({}): {}", e.code, e.message),
            )),
            Some(other) => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("expected Telemetry, got {other:?}"),
            )),
            None => Err(io::ErrorKind::UnexpectedEof.into()),
        }
    }

    /// Fetches the Prometheus text exposition. Only valid on a connection
    /// with no active subscription (see the module docs).
    pub fn metrics(&mut self) -> io::Result<String> {
        self.send(&Message::MetricsRequest)?;
        match self.recv()? {
            Some(Message::MetricsText(m)) => Ok(m.body),
            Some(Message::Error(e)) => Err(io::Error::new(
                io::ErrorKind::Other,
                format!("server refused metrics ({}): {}", e.code, e.message),
            )),
            Some(other) => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("expected MetricsText, got {other:?}"),
            )),
            None => Err(io::ErrorKind::UnexpectedEof.into()),
        }
    }

    /// Fetches flight-recorder dumps (newest last). `max_dumps = 0` means
    /// all retained; `clear` discards them server-side after the reply.
    /// Only valid on a connection with no active subscription.
    pub fn trace_query(&mut self, max_dumps: u64, clear: bool) -> io::Result<Vec<TraceDump>> {
        self.send(&Message::TraceQuery(TraceQuery { max_dumps, clear }))?;
        match self.recv()? {
            Some(Message::TraceDump(reply)) => Ok(reply.dumps),
            Some(Message::Error(e)) => Err(io::Error::new(
                io::ErrorKind::Other,
                format!("server refused trace query ({}): {}", e.code, e.message),
            )),
            Some(other) => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("expected TraceDump, got {other:?}"),
            )),
            None => Err(io::ErrorKind::UnexpectedEof.into()),
        }
    }
}
