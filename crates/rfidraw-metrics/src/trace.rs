//! Lock-free trace recorder and flight recorder.
//!
//! Implements `rfidraw-core`'s [`TraceSink`] over a bounded, lock-free ring
//! buffer: the pipeline's instrumented hot paths publish [`TraceEvent`]s
//! (spans, instants, anomalies) and this module keeps the most recent ones,
//! cheaply, from any number of threads.
//!
//! Three consumers sit on top of the ring:
//!
//! * **Flight recorder** — whenever an *anomaly* event arrives (stale
//!   reset, dropped/rejected reads, a vote-mass flip between candidate
//!   trajectories), the recorder snapshots the last `dump_len` events into
//!   a serializable [`TraceDump`], so the events *leading up to* a failure
//!   are diagnosable after the fact. Anomalies bypass sampling.
//! * **Per-stage latency histograms** — span durations are folded into one
//!   [`LatencyHistogram`] per [`Stage`], feeding `TelemetryReport` and the
//!   Prometheus exposition.
//! * **Live snapshots** — [`TraceRecorder::snapshot`] reads the ring at any
//!   time without stopping writers.
//!
//! ## Ring design (no `unsafe`)
//!
//! The crate forbids `unsafe`, so the ring cannot be the textbook
//! `UnsafeCell` seqlock. Instead every slot is a handful of relaxed atomic
//! words plus a per-slot *ticket* (`2·n+1` while slot `n mod capacity` is
//! being written, `2·n+2` once complete). Writers claim write numbers with
//! one `fetch_add` on the head counter, then wait (briefly, and only when
//! lapped by the entire ring mid-write — never in the common case) for the
//! slot's previous write to finish before publishing, so two writers never
//! interleave field stores in one slot. Readers never wait: they discard
//! slots whose ticket changed mid-read or is odd (torn). The ticket
//! re-check rejects exactly the overwrite-during-read case. `f64` payloads
//! travel as
//! `to_bits`/`from_bits`, and [`Stage`]/`TraceKind` as their `u16`
//! discriminants, so each field fits an `AtomicU64`.
//!
//! Sampling keeps 1-in-`sample_every` non-anomaly events (a runtime knob,
//! adjustable while running). Sampling and tracing never affect computed
//! positions — the recorder only observes.

use crate::runtime::{HistogramSnapshot, LatencyHistogram};
use rfidraw_core::obs::{Stage, TraceEvent, TraceKind, TraceSink, ALL_STAGES};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Mutex;

/// Recorder configuration. Serializable so a service config can carry it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceSettings {
    /// Ring capacity in events. Rounded up to at least `dump_len`.
    pub capacity: usize,
    /// Events captured per flight-recorder dump (the "last N").
    pub dump_len: usize,
    /// Keep 1 in this many non-anomaly events (1 = keep everything,
    /// 0 = drop everything except anomalies). Runtime-adjustable via
    /// [`TraceRecorder::set_sample_every`].
    pub sample_every: u32,
    /// Retained flight-recorder dumps; older dumps are discarded.
    pub max_dumps: usize,
}

impl Default for TraceSettings {
    fn default() -> Self {
        Self { capacity: 4096, dump_len: 256, sample_every: 1, max_dumps: 8 }
    }
}

/// One ring slot: a ticket plus the event fields, all independently atomic.
/// See the module docs for the torn-read protocol.
#[derive(Debug)]
struct Slot {
    /// `0` = never written; odd = write in progress; even = ticket of the
    /// completed write (`2·n+2` for global write number `n`).
    ticket: AtomicU64,
    t_us: AtomicU64,
    session: AtomicU64,
    /// `stage as u16` in the high half-word, `kind as u16` in the low.
    stage_kind: AtomicU64,
    a_bits: AtomicU64,
    b_bits: AtomicU64,
}

impl Slot {
    fn empty() -> Self {
        Self {
            ticket: AtomicU64::new(0),
            t_us: AtomicU64::new(0),
            session: AtomicU64::new(0),
            stage_kind: AtomicU64::new(0),
            a_bits: AtomicU64::new(0),
            b_bits: AtomicU64::new(0),
        }
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

/// The lock-free trace/flight recorder. Install it on the pipeline as a
/// [`TraceSink`] (it is `Send + Sync`; share it with `Arc`).
#[derive(Debug)]
pub struct TraceRecorder {
    slots: Vec<Slot>,
    /// Total accepted writes (ticket source).
    head: AtomicU64,
    /// Events offered, before sampling.
    seen: AtomicU64,
    /// Non-anomaly events discarded by sampling.
    sampled_out: AtomicU64,
    /// Anomaly events observed (each produced a dump, subject to capacity).
    anomalies: AtomicU64,
    sample_every: AtomicU32,
    /// Span-duration histograms, indexed by `Stage as u16`.
    stage_hist: Vec<LatencyHistogram>,
    /// Flight-recorder dumps, newest last. Locked only on the anomaly path
    /// and on reads — never on the per-event hot path.
    dumps: Mutex<VecDeque<TraceDump>>,
    dump_len: usize,
    max_dumps: usize,
}

impl TraceRecorder {
    /// Creates a recorder with the given settings.
    pub fn new(settings: TraceSettings) -> Self {
        let capacity = settings.capacity.max(settings.dump_len).max(16);
        let mut slots = Vec::with_capacity(capacity);
        slots.resize_with(capacity, Slot::empty);
        Self {
            slots,
            head: AtomicU64::new(0),
            seen: AtomicU64::new(0),
            sampled_out: AtomicU64::new(0),
            anomalies: AtomicU64::new(0),
            sample_every: AtomicU32::new(settings.sample_every),
            stage_hist: ALL_STAGES
                .iter()
                .map(|_| LatencyHistogram::default_bounds())
                .collect(),
            dumps: Mutex::new(VecDeque::new()),
            dump_len: settings.dump_len,
            max_dumps: settings.max_dumps.max(1),
        }
    }

    /// Ring capacity in events.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Current sampling divisor (see [`TraceSettings::sample_every`]).
    pub fn sample_every(&self) -> u32 {
        self.sample_every.load(Ordering::Relaxed)
    }

    /// Changes the sampling divisor at runtime. `1` keeps everything; `0`
    /// keeps only anomalies. Takes effect for subsequent events.
    pub fn set_sample_every(&self, n: u32) {
        self.sample_every.store(n, Ordering::Relaxed);
    }

    /// Events offered to the recorder (before sampling).
    pub fn events_seen(&self) -> u64 {
        self.seen.load(Ordering::Relaxed)
    }

    /// Events written into the ring.
    pub fn events_recorded(&self) -> u64 {
        self.head.load(Ordering::Relaxed)
    }

    /// Non-anomaly events discarded by sampling.
    pub fn events_sampled_out(&self) -> u64 {
        self.sampled_out.load(Ordering::Relaxed)
    }

    /// Anomaly events observed so far.
    pub fn anomaly_count(&self) -> u64 {
        self.anomalies.load(Ordering::Relaxed)
    }

    /// Accepts one event: the `TraceSink` entry point, exposed for
    /// components that hold the concrete recorder.
    pub fn offer(&self, event: TraceEvent) {
        let nth = self.seen.fetch_add(1, Ordering::Relaxed);
        if event.kind != TraceKind::Anomaly {
            let every = self.sample_every.load(Ordering::Relaxed);
            if every == 0 || (every > 1 && nth % u64::from(every) != 0) {
                self.sampled_out.fetch_add(1, Ordering::Relaxed);
                return;
            }
        }
        if event.kind == TraceKind::Span {
            let idx = event.stage as usize;
            if let Some(h) = self.stage_hist.get(idx) {
                h.observe_us(event.a.max(0.0) as u64);
            }
        }
        let n = self.head.fetch_add(1, Ordering::Relaxed);
        let cap = self.slots.len() as u64;
        let slot = &self.slots[(n % cap) as usize];
        // Wait for the slot's previous occupant (write n − capacity) to
        // finish, so field stores from two writers never interleave. Only
        // contended when a writer stalls long enough for the whole ring to
        // lap it.
        let expected = if n >= cap { 2 * (n - cap) + 2 } else { 0 };
        while slot.ticket.load(Ordering::Acquire) != expected {
            std::hint::spin_loop();
        }
        // Odd ticket: write in progress. Readers started before this point
        // re-check the ticket and discard the slot.
        slot.ticket.store(2 * n + 1, Ordering::Release);
        slot.t_us.store(event.t_us, Ordering::Relaxed);
        slot.session.store(event.session, Ordering::Relaxed);
        slot.stage_kind.store(
            (u64::from(event.stage as u16) << 16) | u64::from(event.kind as u16),
            Ordering::Relaxed,
        );
        slot.a_bits.store(event.a.to_bits(), Ordering::Relaxed);
        slot.b_bits.store(event.b.to_bits(), Ordering::Relaxed);
        slot.ticket.store(2 * n + 2, Ordering::Release);

        if event.kind == TraceKind::Anomaly {
            self.anomalies.fetch_add(1, Ordering::Relaxed);
            let dump = TraceDump {
                trigger: Some(TraceEventRecord::from_event(n, event)),
                events: self.recent(self.dump_len),
            };
            let mut dumps = self.dumps.lock().expect("dump store poisoned");
            if dumps.len() == self.max_dumps {
                dumps.pop_front();
            }
            dumps.push_back(dump);
        }
    }

    /// The most recent `limit` consistently-read ring events, oldest first.
    ///
    /// Never blocks writers; slots being overwritten while the read is in
    /// flight are simply skipped (their events are either newer — caught on
    /// a re-read — or already gone).
    pub fn recent(&self, limit: usize) -> Vec<TraceEventRecord> {
        let mut out: Vec<TraceEventRecord> = Vec::with_capacity(self.slots.len().min(limit));
        for slot in &self.slots {
            let before = slot.ticket.load(Ordering::Acquire);
            if before == 0 || before % 2 == 1 {
                continue; // never written, or write in flight
            }
            let t_us = slot.t_us.load(Ordering::Relaxed);
            let session = slot.session.load(Ordering::Relaxed);
            let stage_kind = slot.stage_kind.load(Ordering::Relaxed);
            let a_bits = slot.a_bits.load(Ordering::Relaxed);
            let b_bits = slot.b_bits.load(Ordering::Relaxed);
            if slot.ticket.load(Ordering::Acquire) != before {
                continue; // torn: overwritten while reading
            }
            let (stage, kind) = match (
                Stage::from_u16((stage_kind >> 16) as u16),
                TraceKind::from_u16((stage_kind & 0xFFFF) as u16),
            ) {
                (Some(s), Some(k)) => (s, k),
                _ => continue, // torn beyond recognition
            };
            out.push(TraceEventRecord::from_event(
                before / 2 - 1,
                TraceEvent {
                    t_us,
                    session,
                    stage,
                    kind,
                    a: f64::from_bits(a_bits),
                    b: f64::from_bits(b_bits),
                },
            ));
        }
        out.sort_by_key(|e| e.seq);
        if out.len() > limit {
            out.drain(..out.len() - limit);
        }
        out
    }

    /// An on-demand dump of the last `dump_len` events (no trigger).
    pub fn snapshot(&self) -> TraceDump {
        TraceDump { trigger: None, events: self.recent(self.dump_len) }
    }

    /// All retained flight-recorder dumps, oldest first.
    pub fn dumps(&self) -> Vec<TraceDump> {
        self.dumps.lock().expect("dump store poisoned").iter().cloned().collect()
    }

    /// The most recent flight-recorder dump, if any anomaly has fired.
    pub fn last_dump(&self) -> Option<TraceDump> {
        self.dumps.lock().expect("dump store poisoned").back().cloned()
    }

    /// Discards all retained dumps (e.g. after shipping them).
    pub fn clear_dumps(&self) {
        self.dumps.lock().expect("dump store poisoned").clear();
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
    fn sampling_keeps_one_in_n_but_all_anomalies() {
        let rec = TraceRecorder::new(TraceSettings { sample_every: 4, ..Default::default() });
        for _ in 0..100 {
            rec.offer(ev(Stage::QueueWait, TraceKind::Span, 10.0));
        }
        for _ in 0..5 {
            rec.offer(ev(Stage::StaleReset, TraceKind::Anomaly, 1.0));
        }
        assert_eq!(rec.events_seen(), 105);
        assert_eq!(rec.events_sampled_out(), 75);
        assert_eq!(rec.anomaly_count(), 5);
        // 25 sampled spans + 5 anomalies made it into the ring.
        assert_eq!(rec.events_recorded(), 30);
    }

    #[test]
    fn sample_every_zero_keeps_only_anomalies() {
        let rec = TraceRecorder::new(TraceSettings::default());
        rec.set_sample_every(0);
        rec.offer(ev(Stage::Compute, TraceKind::Span, 1.0));
        rec.offer(ev(Stage::InvalidRead, TraceKind::Anomaly, 1.0));
        assert_eq!(rec.events_recorded(), 1);
        assert_eq!(rec.recent(10)[0].stage, "invalid_read");
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
        rec.clear_dumps();
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
}
