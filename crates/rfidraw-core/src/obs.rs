//! Observability vocabulary for the tracking pipeline.
//!
//! RF-IDraw's accuracy depends on internal state that is invisible from the
//! outside: which grating lobe each wide pair is locked to (§5.2), how far
//! the incremental phase unwrap has drifted, and how vote mass splits across
//! candidate trajectories. This module defines the *vocabulary* for
//! exporting that state — [`TraceEvent`], the [`Stage`] taxonomy, and the
//! [`TraceSink`] consumer trait — without prescribing a consumer. The
//! ring-buffer recorder and flight recorder live in
//! `rfidraw-metrics::trace`; this crate only emits.
//!
//! ## One branch per site when no sink is installed
//!
//! Every instrumented component (the vote engine, the positioner, the
//! tracer and the online tracker) carries an `Option<SharedSink>` that is
//! `None` until `set_trace_sink` installs one. [`emit`] and
//! [`SpanTimer::start`] check it before they read a clock, so with no sink
//! an emit site costs one branch. The few values computed only to be
//! emitted (per-candidate vote masses, the best candidate for vote-flip
//! detection, the coarse filter's coverage, the per-read unwrap-step test)
//! sit behind the same check. With or without a sink the positions
//! computed are bit-identical: instrumentation only observes, it never
//! participates in the arithmetic.
//!
//! ## Determinism
//!
//! Emit sites are placed outside the compute kernels' inner loops and pass
//! data that is itself deterministic (votes, lobe indices, counts). Only
//! the *timestamps* and span durations vary run to run; the event payloads
//! that describe algorithm decisions do not.

use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// Pipeline stage an event belongs to. Stored as a dense `u16` so a
/// lock-free ring buffer can hold it in an atomic word; use
/// [`Stage::as_str`] for the human/exposition name.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u16)]
pub enum Stage {
    /// Incremental phase unwrap took a step close to the ±π ambiguity
    /// horizon (`a` = |wrapped step| in radians, `b` = antenna id).
    UnwrapHorizon,
    /// A candidate trace locked a grating lobe at acquisition
    /// (`a` = lobe index, `b` = candidate index).
    LobeLock,
    /// Lobes were locked again after a stale reset — re-acquisition
    /// (`a` = lobe index, `b` = candidate index).
    LobeRelock,
    /// The read stream went silent past the unwrap horizon and all
    /// tracking state was dropped (`a` = observed gap in seconds).
    StaleReset,
    /// Multi-resolution acquisition span (duration in `a`, µs).
    Acquire,
    /// Coarse spatial filter outcome (`a` = fraction of the fine grid kept).
    CoarseFilter,
    /// Peak extraction / non-maximum suppression outcome
    /// (`a` = candidates returned, `b` = best vote).
    PeakSelect,
    /// One-time distance-difference table build span (duration in `a`, µs).
    EngineTable,
    /// Full vote-map evaluation span (duration in `a`, µs;
    /// `b` = measurement count).
    EngineEvaluate,
    /// Batch trajectory tracing span (duration in `a`, µs;
    /// `b` = candidate count).
    TraceAdvance,
    /// A candidate trace's cumulative vote after a tick
    /// (`a` = cumulative vote, `b` = candidate index).
    CandidateVote,
    /// The best-vote candidate changed identity between ticks
    /// (`a` = new best index, `b` = previous best index).
    VoteFlip,
    /// Time a read spent queued before a worker drained it
    /// (duration in `a`, µs).
    QueueWait,
    /// Time a worker spent advancing a session's tracker for one drained
    /// batch (duration in `a`, µs; `b` = reads in the batch).
    Compute,
    /// Reads the serving layer refused at its ingest boundary: offered to
    /// a closed session, or left in a parked connection's stash when that
    /// connection closed (`a` = reads refused, `b` = the session's queue
    /// depth).
    IngestReject,
    /// A read failed payload validation (non-finite phase/timestamp,
    /// duplicate, out of order) and was refused by the ingest boundary or
    /// the tracker (`a` = the offending read's timestamp).
    InvalidRead,
    /// The tracker's set of usable antenna pairs changed — an antenna
    /// dropped out or rejoined (`a` = missing pairs after the change,
    /// `b` = the triggering read's timestamp). `a = 0` means fully
    /// recovered.
    Degraded,
}

/// Every stage, in discriminant order. Keep in sync with the enum.
pub const ALL_STAGES: [Stage; 17] = [
    Stage::UnwrapHorizon,
    Stage::LobeLock,
    Stage::LobeRelock,
    Stage::StaleReset,
    Stage::Acquire,
    Stage::CoarseFilter,
    Stage::PeakSelect,
    Stage::EngineTable,
    Stage::EngineEvaluate,
    Stage::TraceAdvance,
    Stage::CandidateVote,
    Stage::VoteFlip,
    Stage::QueueWait,
    Stage::Compute,
    Stage::IngestReject,
    Stage::InvalidRead,
    Stage::Degraded,
];

impl Stage {
    /// Stable snake_case name, used in dumps and metric labels.
    pub fn as_str(self) -> &'static str {
        match self {
            Stage::UnwrapHorizon => "unwrap_horizon",
            Stage::LobeLock => "lobe_lock",
            Stage::LobeRelock => "lobe_relock",
            Stage::StaleReset => "stale_reset",
            Stage::Acquire => "acquire",
            Stage::CoarseFilter => "coarse_filter",
            Stage::PeakSelect => "peak_select",
            Stage::EngineTable => "engine_table",
            Stage::EngineEvaluate => "engine_evaluate",
            Stage::TraceAdvance => "trace_advance",
            Stage::CandidateVote => "candidate_vote",
            Stage::VoteFlip => "vote_flip",
            Stage::QueueWait => "queue_wait",
            Stage::Compute => "compute",
            Stage::IngestReject => "ingest_reject",
            Stage::InvalidRead => "invalid_read",
            Stage::Degraded => "degraded",
        }
    }

    /// Inverse of `self as u16`, for decoding ring-buffer slots.
    pub fn from_u16(v: u16) -> Option<Stage> {
        ALL_STAGES.iter().copied().find(|&s| s as u16 == v)
    }
}

/// What kind of observation an event is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u16)]
pub enum TraceKind {
    /// A timed interval; `a` carries the duration in microseconds.
    Span,
    /// A point observation with stage-specific payload in `a`/`b`.
    Instant,
    /// Something went wrong enough to be worth a flight-recorder dump.
    /// Anomalies bypass sampling in the recorder.
    Anomaly,
}

impl TraceKind {
    /// Stable snake_case name.
    pub fn as_str(self) -> &'static str {
        match self {
            TraceKind::Span => "span",
            TraceKind::Instant => "instant",
            TraceKind::Anomaly => "anomaly",
        }
    }

    /// Inverse of `self as u16`.
    pub fn from_u16(v: u16) -> Option<TraceKind> {
        [TraceKind::Span, TraceKind::Instant, TraceKind::Anomaly]
            .into_iter()
            .find(|&k| k as u16 == v)
    }
}

/// One observation. Fixed-size and `Copy` so a lock-free ring can store it
/// as a handful of atomic words.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceEvent {
    /// Monotonic timestamp (µs since [`now_us`]'s process epoch).
    pub t_us: u64,
    /// Session identity — for served sessions, derived from the tag EPC;
    /// 0 when the emitting component is not session-scoped.
    pub session: u64,
    /// Which stage of the pipeline emitted this.
    pub stage: Stage,
    /// Span, instant, or anomaly.
    pub kind: TraceKind,
    /// Primary payload (stage-specific; duration in µs for spans).
    pub a: f64,
    /// Secondary payload (stage-specific).
    pub b: f64,
}

/// Consumer of trace events. Implementations must be cheap and wait-free on
/// the caller's path — the hot loops call [`TraceSink::record`] inline.
/// (`Debug` is required so instrumented pipeline structs can keep deriving
/// `Debug` while holding a sink.)
pub trait TraceSink: Send + Sync + std::fmt::Debug {
    /// Accept one event. May drop it (sampling, ring overwrite).
    fn record(&self, event: TraceEvent);
}

/// The handle instrumented components hold.
pub type SharedSink = Arc<dyn TraceSink>;

/// Microseconds since the first call in this process (monotonic).
pub fn now_us() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    let epoch = *EPOCH.get_or_init(Instant::now);
    Instant::now().duration_since(epoch).as_micros() as u64
}

/// Emits one event if a sink is installed.
#[inline]
pub fn emit(
    sink: Option<&SharedSink>,
    session: u64,
    stage: Stage,
    kind: TraceKind,
    a: f64,
    b: f64,
) {
    if let Some(s) = sink {
        s.record(TraceEvent { t_us: now_us(), session, stage, kind, a, b });
    }
}

/// Times a scope and emits a [`TraceKind::Span`] event on drop. Costs
/// nothing (not even a clock read) when no sink is installed.
pub struct SpanTimer<'a> {
    armed: Option<(&'a SharedSink, Instant, u64)>,
    session: u64,
    stage: Stage,
    b: f64,
}

impl<'a> SpanTimer<'a> {
    /// Starts the span. `b` is the stage-specific secondary payload,
    /// fixed at start time.
    #[inline]
    pub fn start(sink: Option<&'a SharedSink>, session: u64, stage: Stage, b: f64) -> Self {
        let armed = sink.map(|s| (s, Instant::now(), now_us()));
        Self { armed, session, stage, b }
    }
}

impl Drop for SpanTimer<'_> {
    fn drop(&mut self) {
        if let Some((sink, started, t_us)) = self.armed.take() {
            sink.record(TraceEvent {
                t_us,
                session: self.session,
                stage: self.stage,
                kind: TraceKind::Span,
                a: started.elapsed().as_micros() as f64,
                b: self.b,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    #[derive(Debug)]
    struct Collect(Mutex<Vec<TraceEvent>>);
    impl TraceSink for Collect {
        fn record(&self, event: TraceEvent) {
            self.0.lock().unwrap().push(event);
        }
    }

    #[test]
    fn stage_u16_round_trips() {
        for &s in &ALL_STAGES {
            assert_eq!(Stage::from_u16(s as u16), Some(s), "{}", s.as_str());
        }
        assert_eq!(Stage::from_u16(u16::MAX), None);
        for k in [TraceKind::Span, TraceKind::Instant, TraceKind::Anomaly] {
            assert_eq!(TraceKind::from_u16(k as u16), Some(k));
        }
    }

    #[test]
    fn stage_names_are_unique() {
        let mut names: Vec<&str> = ALL_STAGES.iter().map(|s| s.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), ALL_STAGES.len());
    }

    #[test]
    fn now_us_is_monotone() {
        let a = now_us();
        let b = now_us();
        assert!(b >= a);
    }

    #[test]
    fn span_timer_emits_once_with_duration() {
        let collect = Arc::new(Collect(Mutex::new(Vec::new())));
        let shared: SharedSink = collect.clone();
        emit(Some(&shared), 1, Stage::StaleReset, TraceKind::Anomaly, 0.5, 0.0);
        {
            let _t = SpanTimer::start(Some(&shared), 2, Stage::Acquire, 1.0);
        }
        {
            // A disarmed timer emits nothing.
            let _t = SpanTimer::start(None, 7, Stage::EngineEvaluate, 3.0);
        }
        let events = collect.0.lock().unwrap();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].stage, Stage::StaleReset);
        assert_eq!(events[0].kind, TraceKind::Anomaly);
        assert_eq!(events[1].stage, Stage::Acquire);
        assert_eq!(events[1].kind, TraceKind::Span);
        assert_eq!(events[1].session, 2);
        assert_eq!(events[1].b, 1.0);
    }
}
