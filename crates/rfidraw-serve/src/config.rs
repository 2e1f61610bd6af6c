//! Service configuration: how sessions are built, bounded, and drained.

use rfidraw_core::array::Deployment;
use rfidraw_core::exec::Parallelism;
use rfidraw_core::geom::{Plane, Rect};
use rfidraw_core::online::{OnlineConfig, OnlineTracker};
use rfidraw_core::position::MultiResConfig;
use rfidraw_core::trace::TraceConfig;
use rfidraw_metrics::TraceSettings;
use std::time::Duration;

/// Everything needed to build one per-session [`OnlineTracker`].
///
/// The service builds one tracker from this template when its first
/// session opens and gives every session a clone of it, so every session
/// runs the identical pipeline configuration — which is what makes
/// multiplexed results bit-identical to a standalone tracker — and all
/// of them share that tracker's coarse and fine vote tables.
#[derive(Debug, Clone)]
pub struct TrackerTemplate {
    /// The antenna deployment shared by all sessions.
    pub deployment: Deployment,
    /// The writing plane.
    pub plane: Plane,
    /// Acquisition (multi-resolution positioning) settings.
    pub position: MultiResConfig,
    /// Per-tick tracing settings.
    pub trace: TraceConfig,
    /// Streaming-tracker settings (tick, pruning, stale gap).
    pub online: OnlineConfig,
}

impl TrackerTemplate {
    /// The paper-default deployment and plane over `region`, with a stale
    /// gap of 1 s so sessions self-reset after silence instead of trusting
    /// a broken phase unwrap.
    pub fn paper_default(region: Rect) -> Self {
        let mut position = MultiResConfig::for_region(region);
        position.fine_resolution = 0.02;
        Self {
            deployment: Deployment::paper_default(),
            plane: Plane::at_depth(2.0),
            position,
            trace: TraceConfig::default(),
            online: OnlineConfig {
                max_read_gap: Some(1.0),
                ..OnlineConfig::default()
            },
        }
    }

    /// Builds a fresh tracker from this template, with its coarse and
    /// fine vote tables built, so its clones share them.
    pub fn build(&self) -> OnlineTracker {
        let tracker = OnlineTracker::new(
            self.deployment.clone(),
            self.plane,
            self.position.clone(),
            self.trace.clone(),
            self.online.clone(),
        );
        tracker.positioner().prebuild_tables();
        tracker
    }
}

impl ServeConfig {
    /// The vote-table precision every session tracker will use.
    pub fn table_precision(&self) -> rfidraw_core::engine::TablePrecision {
        self.tracker.position.precision
    }
}

/// Network front-end settings: what callers of
/// [`crate::ReactorServer::bind`] pass it (`cfg.net.reactor.clone()`).
/// The service itself never reads them.
#[derive(Debug, Clone, Default)]
pub struct NetConfig {
    /// Reactor tuning (readiness backend, read buffer size, frame cap,
    /// connection cap, shutdown flush budget).
    pub reactor: rfidraw_net::ReactorConfig,
}

/// The full service configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// How each session's tracker is built.
    pub tracker: TrackerTemplate,
    /// Bounded per-session ingest queue capacity (reads).
    ///
    /// Admission is lossless: no read is refused or evicted for a full
    /// queue, because the tracer's phase unwrap needs every read of its
    /// tag, in order. An in-process producer
    /// ([`crate::LocalClient::ingest`]) waits until the queue has room or
    /// the session closes. The TCP front end never waits on its
    /// event-loop thread: it *parks* the connection (stashes the
    /// unadmitted reads and drops read interest, so the kernel TCP buffer
    /// stalls that client alone) and re-admits when the session drains.
    ///
    /// # Panics
    /// [`crate::TrackingService::start`] panics when this is zero.
    pub queue_capacity: usize,
    /// Hard cap on concurrently live sessions; ingest for new tags beyond
    /// it is refused (and counted).
    pub max_sessions: usize,
    /// Sessions with no ingest for this long (wall clock) are evicted.
    pub idle_timeout: Duration,
    /// Worker threads draining session queues round-robin. With workers,
    /// the thread that schedules a session applies reads that cannot
    /// finish a tick itself instead of handing them over. `None` starts
    /// no threads: the owner pumps manually via
    /// [`crate::TrackingService::pump`] (deterministic single-threaded
    /// mode, used by tests and benchmarks), and every read waits for it,
    /// except that an in-process producer facing a full queue runs the
    /// ready queue itself.
    pub workers: Option<Parallelism>,
    /// Maximum reads drained from one session per round-robin visit. The
    /// fairness knob: a hot tag yields the worker after this many reads so
    /// it cannot starve other sessions.
    pub drain_batch: usize,
    /// Reactor tuning for the TCP front end.
    pub net: NetConfig,
    /// Optional pipeline trace recorder (ring capacity, flight-recorder
    /// dump length and retention). `Some` enables the serve-layer spans
    /// (queue wait, compute, ingest anomalies) and installs the recorder
    /// as every session tracker's sink, so the core events (lobe locks,
    /// vote-map spans, stale resets, degradation, vote flips) reach it
    /// too. `None` leaves every sink empty.
    pub observability: Option<TraceSettings>,
}

impl ServeConfig {
    /// Sensible service defaults around a tracker template: queue of 1024
    /// reads, 64 sessions, 30 s idle timeout, auto worker threads, 64-read
    /// drain batches, default reactor tuning, no trace recorder.
    pub fn new(tracker: TrackerTemplate) -> Self {
        Self {
            tracker,
            queue_capacity: 1024,
            max_sessions: 64,
            idle_timeout: Duration::from_secs(30),
            workers: Some(Parallelism::Auto),
            drain_batch: 64,
            net: NetConfig::default(),
            observability: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfidraw_core::geom::Point2;

    #[test]
    fn template_builds_trackers() {
        let region = Rect::new(Point2::new(0.5, 0.3), Point2::new(2.3, 1.7));
        let t = TrackerTemplate::paper_default(region);
        let tracker = t.build();
        assert!(!tracker.is_tracking());
        assert!(t.online.max_read_gap.is_some());
    }
}
