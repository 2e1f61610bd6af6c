//! Trace recorder and flight recorder.
//!
//! Implements `rfidraw-core`'s [`TraceSink`] over a bounded ring of the
//! most recent [`TraceEvent`]s behind one lock: the pipeline's
//! instrumented paths publish events (spans, instants, anomalies) from any
//! number of threads, and the ring keeps the newest `capacity` of them,
//! each numbered by its global write order (`seq`).
//!
//! Three consumers sit on top of the ring:
//!
//! * **Flight recorder** — whenever an *anomaly* event arrives (stale
//!   reset, refused or invalid reads, a vote-mass flip between candidate
//!   trajectories), the recorder copies the last `dump_len` events into a
//!   serializable [`TraceDump`], so the events *leading up to* a failure
//!   are diagnosable after the fact. The trigger is appended and its
//!   window copied under the same lock, so a dump holds exactly the
//!   `dump_len` events that end at its trigger, with consecutive `seq`,
//!   whatever other writers do meanwhile.
//! * **Per-stage latency histograms** — every span's duration is folded
//!   into one [`LatencyHistogram`] per [`Stage`], feeding
//!   `TelemetryReport` and the Prometheus exposition.
//! * **Live snapshots** — [`TraceRecorder::snapshot`] and
//!   [`TraceRecorder::recent`] copy the ring's newest events at any time.
//!
//! The recorder only observes: it never affects computed positions.

use crate::runtime::{HistogramSnapshot, LatencyHistogram};
use rfidraw_core::obs::{Stage, TraceEvent, TraceKind, TraceSink, ALL_STAGES};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

/// Recorder configuration. Serializable so a service config can carry it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceSettings {
    /// Ring capacity in events. Rounded up to at least `dump_len`.
    pub capacity: usize,
    /// Events captured per flight-recorder dump (the "last N").
    pub dump_len: usize,
    /// Retained flight-recorder dumps; older dumps are discarded.
    pub max_dumps: usize,
}

impl Default for TraceSettings {
    fn default() -> Self {
        Self { capacity: 4096, dump_len: 256, max_dumps: 8 }
    }
}

/// A recorded event in serializable form (stage/kind by stable name).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceEventRecord {
    /// Global write number (total order across the whole run).
    pub seq: u64,
    /// Monotonic timestamp (µs, process epoch).
    pub t_us: u64,
    /// Session id (0 = not session-scoped).
    pub session: u64,
    /// Stage name (see [`Stage::as_str`]).
    pub stage: String,
    /// `span`, `instant`, or `anomaly`.
    pub kind: String,
    /// Primary payload (duration µs for spans).
    pub a: f64,
    /// Secondary payload.
    pub b: f64,
}

impl TraceEventRecord {
    fn from_event(seq: u64, ev: TraceEvent) -> Self {
        Self {
            seq,
            t_us: ev.t_us,
            session: ev.session,
            stage: ev.stage.as_str().to_string(),
            kind: ev.kind.as_str().to_string(),
            a: ev.a,
            b: ev.b,
        }
    }
}

/// A flight-recorder dump: the last events before (and including) a
/// trigger. Serializable, and shipped over the wire protocol on request.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceDump {
    /// What fired the dump; `None` for an on-demand snapshot.
    pub trigger: Option<TraceEventRecord>,
    /// The captured events, oldest first.
    pub events: Vec<TraceEventRecord>,
}

impl TraceDump {
    /// Events matching a stage name (convenience for tests/diagnosis).
    pub fn events_for_stage(&self, stage: &str) -> Vec<&TraceEventRecord> {
        self.events.iter().filter(|e| e.stage == stage).collect()
    }
}

/// Span-latency aggregate for one pipeline stage.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StageLatency {
    /// Stage name (see [`Stage::as_str`]).
    pub stage: String,
    /// Histogram of that stage's span durations (µs).
    pub histogram: HistogramSnapshot,
}

/// Ring events with their `seq`, oldest first.
type Ring = VecDeque<(u64, TraceEvent)>;

/// A copy of the newest `limit` events of `ring`, oldest first. Callers
/// hold the ring's lock only for this copy, not for [`records`].
fn tail(ring: &Ring, limit: usize) -> Vec<(u64, TraceEvent)> {
    ring.range(ring.len().saturating_sub(limit)..).copied().collect()
}

/// Ring events in serializable form.
fn records(events: Vec<(u64, TraceEvent)>) -> Vec<TraceEventRecord> {
    events.into_iter().map(|(seq, ev)| TraceEventRecord::from_event(seq, ev)).collect()
}

/// The trace/flight recorder. Install it on the pipeline as a
/// [`TraceSink`] (it is `Send + Sync`; share it with `Arc`).
#[derive(Debug)]
pub struct TraceRecorder {
    /// The newest `capacity` events. Its newest `seq` plus one is the
    /// number of events written.
    ring: Mutex<Ring>,
    capacity: usize,
    /// Anomaly events observed (each produced a dump, subject to capacity).
    anomalies: AtomicU64,
    /// Span-duration histograms, indexed by `Stage as usize`.
    stage_hist: Vec<LatencyHistogram>,
    /// Flight-recorder dumps, oldest first.
    dumps: Mutex<VecDeque<TraceDump>>,
    dump_len: usize,
    max_dumps: usize,
}

impl TraceRecorder {
    /// Creates a recorder with the given settings.
    pub fn new(settings: TraceSettings) -> Self {
        let capacity = settings.capacity.max(settings.dump_len).max(16);
        Self {
            ring: Mutex::new(VecDeque::with_capacity(capacity)),
            capacity,
            anomalies: AtomicU64::new(0),
            stage_hist: ALL_STAGES
                .iter()
                .map(|_| LatencyHistogram::default_bounds())
                .collect(),
            dumps: Mutex::new(VecDeque::new()),
            dump_len: settings.dump_len,
            max_dumps: settings.max_dumps.max(1),
        }
    }

    fn lock_ring(&self) -> MutexGuard<'_, Ring> {
        self.ring.lock().expect("trace ring poisoned")
    }

    fn lock_dumps(&self) -> MutexGuard<'_, VecDeque<TraceDump>> {
        self.dumps.lock().expect("dump store poisoned")
    }

    /// Ring capacity in events.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Events written into the ring.
    pub fn events_recorded(&self) -> u64 {
        self.lock_ring().back().map_or(0, |&(seq, _)| seq + 1)
    }

    /// Anomaly events observed so far.
    pub fn anomaly_count(&self) -> u64 {
        self.anomalies.load(Ordering::Relaxed)
    }

    /// Accepts one event: the `TraceSink` entry point, exposed for
    /// components that hold the concrete recorder.
    pub fn offer(&self, event: TraceEvent) {
        if event.kind == TraceKind::Span {
            self.stage_hist[event.stage as usize].observe_us(event.a.max(0.0) as u64);
        }
        let mut ring = self.lock_ring();
        let seq = ring.back().map_or(0, |&(seq, _)| seq + 1);
        if ring.len() == self.capacity {
            ring.pop_front();
        }
        ring.push_back((seq, event));
        if event.kind != TraceKind::Anomaly {
            return;
        }
        self.anomalies.fetch_add(1, Ordering::Relaxed);
        let window = tail(&ring, self.dump_len);
        // Take the dump store before letting the next writer in, so dumps
        // are stored in the order of their triggers.
        let mut dumps = self.lock_dumps();
        drop(ring);
        if dumps.len() == self.max_dumps {
            dumps.pop_front();
        }
        dumps.push_back(TraceDump {
            trigger: Some(TraceEventRecord::from_event(seq, event)),
            events: records(window),
        });
    }

    /// The most recent `limit` ring events, oldest first.
    pub fn recent(&self, limit: usize) -> Vec<TraceEventRecord> {
        let events = tail(&self.lock_ring(), limit);
        records(events)
    }

    /// An on-demand dump of the last `dump_len` events (no trigger).
    pub fn snapshot(&self) -> TraceDump {
        TraceDump { trigger: None, events: self.recent(self.dump_len) }
    }

    /// All retained flight-recorder dumps, oldest first.
    pub fn dumps(&self) -> Vec<TraceDump> {
        self.lock_dumps().iter().cloned().collect()
    }

    /// The most recent flight-recorder dump, if any anomaly has fired.
    pub fn last_dump(&self) -> Option<TraceDump> {
        self.lock_dumps().back().cloned()
    }

    /// Takes all retained dumps, oldest first, and leaves the store empty
    /// (e.g. to ship them). One lock covers both, so a dump stored
    /// meanwhile is either taken or retained, never lost.
    pub fn take_dumps(&self) -> Vec<TraceDump> {
        std::mem::take(&mut *self.lock_dumps()).into()
    }

    /// Per-stage span-latency histograms, for stages that observed at least
    /// one span. Sorted by stage name.
    pub fn stage_latencies(&self) -> Vec<StageLatency> {
        let mut out: Vec<StageLatency> = ALL_STAGES
            .iter()
            .filter_map(|&s| {
                let h = &self.stage_hist[s as usize];
                if h.count() == 0 {
                    return None;
                }
                Some(StageLatency {
                    stage: s.as_str().to_string(),
                    histogram: h.snapshot(),
                })
            })
            .collect();
        out.sort_by(|a, b| a.stage.cmp(&b.stage));
        out
    }

    /// Convenience: records an anomaly happening *now* (components that are
    /// not threaded through `rfidraw-core`'s sink plumbing, e.g. the serve
    /// layer's ingest path, call this directly).
    pub fn record_anomaly(&self, session: u64, stage: Stage, a: f64, b: f64) {
        self.offer(TraceEvent {
            t_us: rfidraw_core::obs::now_us(),
            session,
            stage,
            kind: TraceKind::Anomaly,
            a,
            b,
        });
    }

    /// Convenience: records a completed span of `dur_us` microseconds.
    pub fn record_span(&self, session: u64, stage: Stage, dur_us: f64, b: f64) {
        self.offer(TraceEvent {
            t_us: rfidraw_core::obs::now_us(),
            session,
            stage,
            kind: TraceKind::Span,
            a: dur_us,
            b,
        });
    }
}

impl TraceSink for TraceRecorder {
    fn record(&self, event: TraceEvent) {
        self.offer(event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(stage: Stage, kind: TraceKind, a: f64) -> TraceEvent {
        TraceEvent { t_us: rfidraw_core::obs::now_us(), session: 1, stage, kind, a, b: 0.0 }
    }

    #[test]
    fn records_and_reads_back_in_order() {
        let rec = TraceRecorder::new(TraceSettings::default());
        for i in 0..10 {
            rec.offer(ev(Stage::CandidateVote, TraceKind::Instant, i as f64));
        }
        let events = rec.recent(100);
        assert_eq!(events.len(), 10);
        for (i, e) in events.iter().enumerate() {
            assert_eq!(e.seq, i as u64);
            assert_eq!(e.a, i as f64);
            assert_eq!(e.stage, "candidate_vote");
        }
    }

    #[test]
    fn ring_keeps_only_the_newest_events() {
        let settings = TraceSettings { capacity: 32, dump_len: 16, ..TraceSettings::default() };
        let rec = TraceRecorder::new(settings);
        for i in 0..100 {
            rec.offer(ev(Stage::Compute, TraceKind::Instant, i as f64));
        }
        let events = rec.recent(1000);
        assert_eq!(events.len(), 32);
        assert_eq!(events.first().unwrap().seq, 68);
        assert_eq!(events.last().unwrap().seq, 99);
        assert_eq!(rec.events_recorded(), 100);
    }

    #[test]
    fn anomaly_dump_contains_the_trigger_and_preceding_events() {
        let rec = TraceRecorder::new(TraceSettings::default());
        for i in 0..20 {
            rec.offer(ev(Stage::CandidateVote, TraceKind::Instant, i as f64));
        }
        rec.record_anomaly(9, Stage::VoteFlip, 2.0, 1.0);
        let dump = rec.last_dump().expect("anomaly must produce a dump");
        let trigger = dump.trigger.as_ref().expect("triggered dump");
        assert_eq!(trigger.stage, "vote_flip");
        assert_eq!(trigger.kind, "anomaly");
        assert_eq!(trigger.session, 9);
        // The dump's newest event IS the trigger, preceded by the votes.
        assert_eq!(dump.events.last().unwrap().seq, trigger.seq);
        assert_eq!(dump.events_for_stage("candidate_vote").len(), 20);
    }

    #[test]
    fn dump_store_is_bounded() {
        let rec = TraceRecorder::new(TraceSettings { max_dumps: 3, ..Default::default() });
        for i in 0..10 {
            rec.record_anomaly(0, Stage::StaleReset, i as f64, 0.0);
        }
        let dumps = rec.dumps();
        assert_eq!(dumps.len(), 3);
        assert_eq!(dumps.last().unwrap().trigger.as_ref().unwrap().a, 9.0);
        assert_eq!(rec.take_dumps(), dumps);
        assert!(rec.dumps().is_empty());
        assert_eq!(rec.anomaly_count(), 10);
    }

    #[test]
    fn span_durations_feed_stage_histograms() {
        let rec = TraceRecorder::new(TraceSettings::default());
        rec.record_span(1, Stage::EngineEvaluate, 150.0, 0.0);
        rec.record_span(1, Stage::EngineEvaluate, 250.0, 0.0);
        rec.record_span(1, Stage::QueueWait, 60.0, 0.0);
        rec.offer(ev(Stage::CandidateVote, TraceKind::Instant, 1.0)); // not a span
        let stages = rec.stage_latencies();
        assert_eq!(stages.len(), 2);
        assert_eq!(stages[0].stage, "engine_evaluate");
        assert_eq!(stages[0].histogram.count, 2);
        assert_eq!(stages[1].stage, "queue_wait");
        assert_eq!(stages[1].histogram.count, 1);
    }

    #[test]
    fn dump_round_trips_through_json() {
        let rec = TraceRecorder::new(TraceSettings::default());
        rec.record_span(3, Stage::Compute, 42.5, 8.0);
        rec.record_anomaly(3, Stage::IngestReject, 7.0, 0.25);
        let dump = rec.last_dump().unwrap();
        let json = serde_json::to_string(&dump).unwrap();
        let back: TraceDump = serde_json::from_str(&json).unwrap();
        assert_eq!(dump, back);
    }

    #[test]
    fn wraparound_under_concurrent_writers_yields_consistent_events() {
        // Satellite: many writers hammer a tiny ring (forcing constant
        // wrap-around) while a reader snapshots concurrently. Every event a
        // snapshot returns must be internally consistent — the payload `a`
        // always encodes its writer id, never a mixture — and the final
        // drain must see exactly the newest `capacity` events.
        let rec = TraceRecorder::new(TraceSettings {
            capacity: 64,
            dump_len: 64,
            ..Default::default()
        });
        const WRITERS: u64 = 4;
        const PER_WRITER: u64 = 5_000;
        std::thread::scope(|s| {
            for w in 0..WRITERS {
                let rec = &rec;
                s.spawn(move || {
                    for i in 0..PER_WRITER {
                        rec.offer(TraceEvent {
                            t_us: i,
                            session: w,
                            stage: Stage::Compute,
                            kind: TraceKind::Instant,
                            a: w as f64,
                            b: i as f64,
                        });
                    }
                });
            }
            let rec = &rec;
            s.spawn(move || {
                for _ in 0..200 {
                    for e in rec.recent(64) {
                        // Consistency: payload fields belong to one event.
                        let w = e.session;
                        assert!(w < WRITERS, "torn session {w}");
                        assert_eq!(e.a, w as f64, "slot mixed two writers");
                        assert_eq!(e.t_us, e.b as u64, "slot mixed two events");
                    }
                }
            });
        });
        assert_eq!(rec.events_recorded(), WRITERS * PER_WRITER);
        let finals = rec.recent(64);
        assert_eq!(finals.len(), 64, "quiescent ring reads back full");
        // Quiescent: the 64 newest sequence numbers, each exactly once.
        let min_seq = WRITERS * PER_WRITER - 64;
        let mut seqs: Vec<u64> = finals.iter().map(|e| e.seq).collect();
        seqs.sort_unstable();
        seqs.dedup();
        assert_eq!(seqs.len(), 64);
        assert!(seqs.iter().all(|&s| s >= min_seq));
    }

    #[test]
    fn concurrent_dumps_end_at_their_trigger_with_consecutive_seq() {
        // Writers interleave instants with anomalies on a ring that wraps
        // many times. Every dump must be the `dump_len` events that end at
        // its own trigger: no event newer than the trigger, none skipped.
        const WRITERS: u64 = 4;
        const PER_WRITER: u64 = 2_000;
        const DUMP_LEN: usize = 32;
        let rec = TraceRecorder::new(TraceSettings {
            capacity: 64,
            dump_len: DUMP_LEN,
            max_dumps: 1_000,
        });
        let start = std::sync::Barrier::new(WRITERS as usize);
        std::thread::scope(|s| {
            for w in 0..WRITERS {
                let (rec, start) = (&rec, &start);
                s.spawn(move || {
                    start.wait();
                    for i in 0..PER_WRITER {
                        let kind =
                            if i % 20 == 19 { TraceKind::Anomaly } else { TraceKind::Instant };
                        rec.offer(TraceEvent {
                            t_us: i,
                            session: w,
                            stage: Stage::Compute,
                            kind,
                            a: w as f64,
                            b: i as f64,
                        });
                    }
                });
            }
        });
        let dumps = rec.dumps();
        assert_eq!(dumps.len() as u64, WRITERS * PER_WRITER / 20);
        assert_eq!(rec.anomaly_count(), dumps.len() as u64);
        for dump in &dumps {
            let trigger = dump.trigger.as_ref().expect("anomaly-triggered dump");
            assert_eq!(dump.events.len() as u64, (trigger.seq + 1).min(DUMP_LEN as u64));
            assert_eq!(dump.events.last(), Some(trigger), "the dump ends at its trigger");
            for pair in dump.events.windows(2) {
                assert_eq!(pair[1].seq, pair[0].seq + 1, "consecutive seq");
            }
        }
        let triggers: Vec<u64> = dumps.iter().map(|d| d.trigger.as_ref().unwrap().seq).collect();
        assert!(triggers.windows(2).all(|p| p[0] < p[1]), "dumps in trigger order");
    }

    #[test]
    fn take_dumps_under_concurrent_anomalies_loses_none() {
        // Anomaly writers race a reader that repeatedly takes the dump
        // store. The store holds more dumps than the writers make, so
        // every anomaly's dump is either taken or still retained.
        const WRITERS: u64 = 3;
        const PER_WRITER: u64 = 300;
        let rec =
            TraceRecorder::new(TraceSettings { capacity: 64, dump_len: 8, max_dumps: 10_000 });
        let start = std::sync::Barrier::new(WRITERS as usize + 1);
        let done = AtomicU64::new(0);
        let shipped = std::thread::scope(|s| {
            for w in 0..WRITERS {
                let (rec, start, done) = (&rec, &start, &done);
                s.spawn(move || {
                    start.wait();
                    for i in 0..PER_WRITER {
                        rec.offer(ev(Stage::Compute, TraceKind::Instant, i as f64));
                        rec.record_anomaly(w, Stage::StaleReset, i as f64, 0.0);
                    }
                    done.fetch_add(1, Ordering::SeqCst);
                });
            }
            start.wait();
            let mut shipped = 0;
            while done.load(Ordering::SeqCst) < WRITERS {
                shipped += rec.take_dumps().len() as u64;
            }
            shipped
        });
        assert_eq!(rec.anomaly_count(), WRITERS * PER_WRITER);
        assert_eq!(shipped + rec.dumps().len() as u64, rec.anomaly_count());
    }
}
