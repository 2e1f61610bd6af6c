//! Multi-session live tracking service for RF-IDraw.
//!
//! This crate turns the streaming tracker (`rfidraw_core::online`) into a
//! long-running service: many tags tracked concurrently, each behind a
//! bounded, lossless ingest queue that stalls its producer when full,
//! placed on an EPC-sharded registry, drained fairly by a small worker
//! pool, observable through runtime telemetry, and reachable in-process
//! and over TCP. The TCP face is [`ReactorServer`]: one `rfidraw-net`
//! reactor thread for all connections, speaking newline-JSON wire v2
//! *and* length-prefixed binary wire v3 with per-connection negotiation.
//! [`WireClient`] is its blocking client.
//!
//! # Observability
//!
//! With [`ServeConfig::observability`] set, the service owns a shared
//! [`rfidraw_metrics::TraceRecorder`]: workers record queue-wait and
//! compute spans per session, and every per-session tracker emits its
//! core events (phase-unwrap breaches, lobe lock/relock, vote-map spans,
//! candidate vote mass) into the same ring, tagged with the session id.
//! Anomalies — refused and invalid reads from the serving layer; stale
//! resets, degradation changes and vote flips from the tracker, their
//! one source — each snapshot the last N events into a
//! retained [`rfidraw_metrics::TraceDump`]. Without a recorder no
//! tracker holds a sink, and each core emit site costs one branch. The
//! results surface three ways: per-stage latency histograms inside
//! [`TelemetryReport`], a Prometheus text exposition
//! ([`TelemetryReport::to_prometheus`], wire `MetricsRequest`), and raw
//! dumps over the wire (`TraceQuery`/`TraceDump`). Instrumentation only
//! observes: positions stay bit-identical with tracing on, off, or
//! sampled, which the integration tests enforce.
//!
//! # Architecture
//!
//! ```text
//!  producers ──ingest──▶ per-EPC bounded queues ──▶ worker pool (round
//!  (reader HW,            (lossless: a full queue   robin, drain_batch
//!   TCP clients,           stalls or parks its      per visit)
//!   simulators)            producer)                   │
//!                                                      ▼
//!                                        one OnlineTracker per session
//!                                                      │
//!                            subscribers ◀──events─────┘
//!                            (in-process mpsc, TCP PositionUpdate)
//! ```
//!
//! Sessions are created lazily on first ingest/subscribe, capped at
//! [`ServeConfig::max_sessions`], and evicted after
//! [`ServeConfig::idle_timeout`] without ingest. The per-session queue +
//! single-drainer claim preserve each tag's read order exactly, so the
//! multiplexed service produces trajectories **bit-identical** to running
//! one standalone [`rfidraw_core::online::OnlineTracker`] per tag — the
//! crate's integration tests assert this for both the in-process client
//! and the loopback TCP path.
//!
//! # Quick start
//!
//! ```
//! use rfidraw_core::geom::{Point2, Rect};
//! use rfidraw_serve::{ServeConfig, TrackerTemplate, TrackingService};
//!
//! let region = Rect::new(Point2::new(0.5, 0.3), Point2::new(2.3, 1.7));
//! let mut cfg = ServeConfig::new(TrackerTemplate::paper_default(region));
//! cfg.workers = None; // manual pumping for this doctest
//! let service = TrackingService::start(cfg);
//! let client = service.client();
//! assert!(client.active_sessions().is_empty());
//! let report = service.telemetry();
//! assert_eq!(report.active_sessions, 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod net;
pub mod reactor;
pub(crate) mod registry;
pub mod service;
pub mod session;
pub mod telemetry;
pub mod wire;
pub mod wire3;

pub use config::{NetConfig, ServeConfig, TrackerTemplate};
pub use net::{WireClient, WireProtocol};
pub use reactor::ReactorServer;
pub use service::{LocalClient, ServeError, SessionView, TrackingService};
pub use session::{CloseReason, IngestReceipt, SessionEvent};
pub use telemetry::{NetTelemetry, SessionTelemetry, ShardTelemetry, TelemetryReport};
pub use wire::{Message, WIRE_VERSION};
