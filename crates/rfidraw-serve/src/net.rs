//! The blocking wire-protocol client, [`WireClient`].
//!
//! It speaks both protocols: [`WireProtocol::JsonV2`] (newline JSON) and
//! [`WireProtocol::BinaryV3`] (length-prefixed binary). Protocol choice
//! happens at connect time — the server ([`crate::ReactorServer`]) infers
//! it from the first byte the client sends and answers in kind.
//!
//! **Connection discipline.** Replies to requests and subscription pushes
//! share one ordered byte stream, so a connection that both ingests and
//! subscribes will see `IngestAck` frames interleaved with
//! `PositionUpdate` frames. The convenience helpers on [`WireClient`]
//! (`ingest`, `telemetry`) assume the next inbound frame answers the
//! request — use one connection for ingest and a separate one for
//! subscriptions, as the integration tests do.

use crate::telemetry::TelemetryReport;
use crate::wire::{self, IngestAck, IngestBatch, Message, Subscribe, TraceQuery};
use crate::wire3;
use rfidraw_core::stream::PhaseRead;
use rfidraw_metrics::TraceDump;
use rfidraw_net::{FrameDecoder, RawFrame, WireMode};
use rfidraw_protocol::Epc;
use std::io::{self, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};

/// Which protocol a [`WireClient`] speaks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WireProtocol {
    /// Newline-delimited JSON envelopes (wire v2).
    #[default]
    JsonV2,
    /// Length-prefixed binary frames (wire v3).
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
