//! The framed wire protocol: newline-delimited JSON with a versioned
//! envelope.
//!
//! Every frame is one line of compact JSON (`\n`-terminated; JSON string
//! escaping guarantees no raw newline inside a frame), parsing to an
//! [`Envelope`] whose `v` field gates compatibility. Client→server
//! messages are [`Message::Ingest`], [`Message::Subscribe`],
//! [`Message::TelemetryRequest`], [`Message::MetricsRequest`], and
//! [`Message::TraceQuery`]; server→client messages are
//! [`Message::IngestAck`], [`Message::PositionUpdate`],
//! [`Message::SessionClosed`], [`Message::Telemetry`],
//! [`Message::MetricsText`], [`Message::TraceDump`], and
//! [`Message::Error`].
//!
//! **Version history.** v1: ingest/subscribe/telemetry. v2 (this build):
//! adds the observability pair — Prometheus text exposition
//! (`MetricsRequest`/`MetricsText`) and flight-recorder retrieval
//! (`TraceQuery`/`TraceDump`).
//!
//! The encoding rides the vendored serde stack, so the wire form is the
//! same JSON the telemetry report and the rest of the workspace use.

use crate::session::IngestReceipt;
use crate::telemetry::TelemetryReport;
use rfidraw_core::stream::PhaseRead;
use rfidraw_protocol::Epc;
use serde::{Deserialize, Serialize};
use std::io::Write;

/// The protocol version this build speaks.
pub const WIRE_VERSION: u64 = 2;

/// The versioned frame envelope.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Envelope {
    /// Protocol version; frames with a different version are refused with
    /// [`Message::Error`].
    pub v: u64,
    /// The payload.
    pub msg: Message,
}

/// All wire messages.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Message {
    /// Client→server: route a batch of reads into a tag's session.
    Ingest(IngestBatch),
    /// Server→client: per-batch ingest accounting.
    IngestAck(IngestAck),
    /// Client→server: stream a session's position updates on this
    /// connection.
    Subscribe(Subscribe),
    /// Server→client: a live position estimate.
    PositionUpdate(PositionUpdate),
    /// Server→client: the session ended; no further updates follow.
    SessionClosed(SessionClosed),
    /// Client→server: request a telemetry snapshot.
    TelemetryRequest,
    /// Server→client: the telemetry snapshot.
    Telemetry(TelemetryReport),
    /// Client→server: request the Prometheus text exposition.
    MetricsRequest,
    /// Server→client: the Prometheus text payload.
    MetricsText(MetricsText),
    /// Client→server: fetch flight-recorder dumps.
    TraceQuery(TraceQuery),
    /// Server→client: the requested flight-recorder dumps.
    TraceDump(TraceDumpReply),
    /// Server→client: the previous frame could not be honored.
    Error(WireError),
}

/// A batch of reads for one tag.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct IngestBatch {
    /// The replying tag.
    pub epc: Epc,
    /// Its reads, in time order.
    pub reads: Vec<PhaseRead>,
}

/// Ingest accounting echoed back to the producer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct IngestAck {
    /// The tag the batch was routed to.
    pub epc: Epc,
    /// Reads accepted into the queue.
    pub accepted: u64,
    /// Always 0: admission is lossless and never evicts a queued read.
    /// Kept so the ack's layout (wire v3 encodes it) stays fixed.
    pub dropped: u64,
    /// Reads refused because the session had closed.
    pub rejected: u64,
}

impl IngestAck {
    /// Builds the ack from a service receipt.
    pub fn from_receipt(epc: Epc, r: IngestReceipt) -> Self {
        Self { epc, accepted: r.accepted, dropped: 0, rejected: r.rejected }
    }
}

/// Subscription request for one tag's position stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Subscribe {
    /// The tag to follow.
    pub epc: Epc,
}

/// One live position estimate.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PositionUpdate {
    /// The tag.
    pub epc: Epc,
    /// Tick timestamp (s, stream time).
    pub t: f64,
    /// Estimate, plane horizontal coordinate (m).
    pub x: f64,
    /// Estimate, plane vertical coordinate (m).
    pub z: f64,
}

/// End-of-session notice.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SessionClosed {
    /// The tag whose session ended.
    pub epc: Epc,
    /// `"idle"`, `"explicit"`, or `"shutdown"`.
    pub reason: String,
}

/// The Prometheus text-format payload (exposition format 0.0.4).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MetricsText {
    /// The full scrape body.
    pub body: String,
}

/// Flight-recorder retrieval request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceQuery {
    /// At most this many dumps, newest last; `0` means all retained.
    pub max_dumps: u64,
    /// Clear the retained dumps after this reply.
    pub clear: bool,
}

/// The flight-recorder dumps a [`TraceQuery`] asked for.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceDumpReply {
    /// Retained dumps, oldest first.
    pub dumps: Vec<rfidraw_metrics::TraceDump>,
}

/// A server-side refusal, tied to nothing (the protocol is pipelined; the
/// client correlates by order).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WireError {
    /// Stable machine-readable code (`"version"`, `"parse"`, `"invalid"`,
    /// `"limit"`, `"unsupported"`, `"shutdown"`).
    pub code: String,
    /// Human-readable detail.
    pub message: String,
}

/// Whether one read passes wire-boundary validation: a finite,
/// non-negative timestamp and a finite phase.
///
/// JSON cannot carry a literal NaN, but it happily carries `1e999`
/// (which parses to infinity) and negative timestamps, and in-process
/// producers can hand over anything at all — so this is the boundary
/// where hostile numerics are refused before they reach a tracker queue.
/// A batch containing any inadmissible read is refused whole with a
/// [`WireError`] of code `"invalid"`; the connection stays up.
pub fn read_is_valid(r: &PhaseRead) -> bool {
    r.t.is_finite() && r.t >= 0.0 && r.phase.is_finite()
}

/// Frame decode failures.
#[derive(Debug, Clone, PartialEq)]
pub enum DecodeError {
    /// The line was not a valid envelope.
    Malformed(String),
    /// The envelope parsed but its version is not [`WIRE_VERSION`].
    Version {
        /// The version the peer sent.
        got: u64,
    },
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::Malformed(e) => write!(f, "malformed frame: {e}"),
            DecodeError::Version { got } => {
                write!(f, "unsupported wire version {got} (this build speaks {WIRE_VERSION})")
            }
        }
    }
}

impl std::error::Error for DecodeError {}

/// Encodes a message as one frame line (no trailing newline).
pub fn encode(msg: &Message) -> String {
    serde_json::to_string(&Envelope { v: WIRE_VERSION, msg: msg.clone() })
        .expect("wire types always serialize")
}

/// Decodes one frame line.
pub fn decode(line: &str) -> Result<Message, DecodeError> {
    let env: Envelope =
        serde_json::from_str(line.trim_end()).map_err(|e| DecodeError::Malformed(e.to_string()))?;
    if env.v != WIRE_VERSION {
        return Err(DecodeError::Version { got: env.v });
    }
    Ok(env.msg)
}

/// Writes one frame (message + newline) and flushes.
pub fn write_frame<W: Write>(w: &mut W, msg: &Message) -> std::io::Result<()> {
    let mut line = encode(msg);
    line.push('\n');
    w.write_all(line.as_bytes())?;
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfidraw_core::array::AntennaId;

    fn sample_messages() -> Vec<Message> {
        vec![
            Message::Ingest(IngestBatch {
                epc: Epc::from_index(3),
                reads: vec![
                    PhaseRead { t: 0.25, antenna: AntennaId(1), phase: 1.5 },
                    PhaseRead { t: 0.26, antenna: AntennaId(2), phase: -0.5 },
                ],
            }),
            Message::IngestAck(IngestAck {
                epc: Epc::from_index(3),
                accepted: 2,
                dropped: 0,
                rejected: 0,
            }),
            Message::Subscribe(Subscribe { epc: Epc::from_index(3) }),
            Message::PositionUpdate(PositionUpdate {
                epc: Epc::from_index(3),
                t: 1.0,
                x: 1.25,
                z: 0.75,
            }),
            Message::SessionClosed(SessionClosed {
                epc: Epc::from_index(3),
                reason: "idle".to_string(),
            }),
            Message::TelemetryRequest,
            Message::MetricsRequest,
            Message::MetricsText(MetricsText {
                body: "# TYPE rfidraw_reads_ingested_total counter\n".to_string(),
            }),
            Message::TraceQuery(TraceQuery { max_dumps: 4, clear: false }),
            Message::TraceDump(TraceDumpReply {
                dumps: vec![rfidraw_metrics::TraceDump {
                    trigger: Some(rfidraw_metrics::TraceEventRecord {
                        seq: 41,
                        t_us: 1000,
                        session: 7,
                        stage: "stale_reset".to_string(),
                        kind: "anomaly".to_string(),
                        a: 1.5,
                        b: 2.25,
                    }),
                    events: vec![rfidraw_metrics::TraceEventRecord {
                        seq: 40,
                        t_us: 900,
                        session: 7,
                        stage: "queue_wait".to_string(),
                        kind: "span".to_string(),
                        a: 12.0,
                        b: 1.0,
                    }],
                }],
            }),
            Message::Error(WireError {
                code: "parse".to_string(),
                message: "expected `{`".to_string(),
            }),
        ]
    }

    #[test]
    fn every_message_roundtrips() {
        for msg in sample_messages() {
            let line = encode(&msg);
            assert!(!line.contains('\n'), "frames must be single lines");
            let back = decode(&line).unwrap();
            assert_eq!(msg, back);
        }
    }

    #[test]
    fn frames_roundtrip_through_io() {
        let mut buf = Vec::new();
        for msg in sample_messages() {
            write_frame(&mut buf, &msg).unwrap();
        }
        // Read back through the decoder the service reads JSON with.
        let mut decoder = rfidraw_net::FrameDecoder::with_mode(
            rfidraw_net::WireMode::Json,
            rfidraw_net::DEFAULT_MAX_PAYLOAD,
        );
        decoder.feed(&buf);
        for msg in sample_messages() {
            let Some(rfidraw_net::RawFrame::Json(line)) = decoder.next().unwrap() else {
                panic!("expected a JSON frame");
            };
            assert_eq!(msg, decode(&line).unwrap());
        }
        assert_eq!(decoder.next().unwrap(), None, "every frame consumed");
        assert!(!decoder.has_partial());
    }

    #[test]
    fn version_mismatch_is_refused() {
        let line = serde_json::to_string(&Envelope { v: 999, msg: Message::TelemetryRequest })
            .unwrap();
        assert_eq!(decode(&line), Err(DecodeError::Version { got: 999 }));
    }

    #[test]
    fn malformed_lines_are_refused() {
        assert!(matches!(decode("not json"), Err(DecodeError::Malformed(_))));
        assert!(matches!(decode("{\"v\": 1}"), Err(DecodeError::Malformed(_))));
    }

    #[test]
    fn read_validation_refuses_hostile_numerics() {
        let ok = PhaseRead { t: 0.5, antenna: AntennaId(1), phase: -1.2 };
        assert!(read_is_valid(&ok));
        for bad in [
            PhaseRead { t: f64::NAN, antenna: AntennaId(1), phase: 0.0 },
            PhaseRead { t: f64::INFINITY, antenna: AntennaId(1), phase: 0.0 },
            PhaseRead { t: -0.001, antenna: AntennaId(1), phase: 0.0 },
            PhaseRead { t: 0.5, antenna: AntennaId(1), phase: f64::NAN },
            PhaseRead { t: 0.5, antenna: AntennaId(1), phase: f64::NEG_INFINITY },
        ] {
            assert!(!read_is_valid(&bad), "{bad:?} must be refused");
        }
        // The JSON route that smuggles infinity without a NaN literal:
        // numbers too large for f64 saturate when parsed.
        let line = r#"{"t": 1e999, "antenna": 1, "phase": 0.0}"#;
        let smuggled: PhaseRead = serde_json::from_str(line).unwrap();
        assert!(smuggled.t.is_infinite());
        assert!(!read_is_valid(&smuggled));
    }

    #[test]
    fn floats_survive_the_wire_bit_exactly() {
        // Shortest-roundtrip float formatting is what makes TCP-carried
        // trajectories bit-identical to in-process ones.
        let p = Message::PositionUpdate(PositionUpdate {
            epc: Epc::from_index(1),
            t: 0.1 + 0.2,
            x: std::f64::consts::PI,
            z: -1.0 / 3.0,
        });
        let back = decode(&encode(&p)).unwrap();
        match (p, back) {
            (Message::PositionUpdate(a), Message::PositionUpdate(b)) => {
                assert_eq!(a.t.to_bits(), b.t.to_bits());
                assert_eq!(a.x.to_bits(), b.x.to_bits());
                assert_eq!(a.z.to_bits(), b.z.to_bits());
            }
            _ => unreachable!(),
        }
    }
}
