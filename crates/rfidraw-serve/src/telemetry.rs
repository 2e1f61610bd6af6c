//! Service telemetry: per-session and global counters plus the
//! ingest→position latency histogram, snapshottable as a serializable
//! report.
//!
//! The live counters are `rfidraw_metrics::runtime` primitives (lock-free
//! atomics, bumped from ingest and worker threads without coordination);
//! [`TelemetryReport`] / [`SessionTelemetry`] are their point-in-time
//! snapshots, serializable through the vendored serde stack for the wire
//! protocol and for operators.
//!
//! The accounting invariant the counters maintain (enforced by the crate's
//! backpressure tests): for every session and globally,
//!
//! ```text
//! ingested = processed + dropped + queued      (conservation in the queue)
//! attempted = ingested + rejected              (at the ingest boundary)
//! ```
//!
//! `invalid` and `degraded_events` are *attribution* counters layered on
//! top, not new terms in those sums: a read refused by wire-level
//! validation is counted in both `invalid` and `rejected` (it never enters
//! the queue), while a read the tracker itself refuses ([`TrackError`],
//! e.g. out-of-order after a clock skew) is counted in both `invalid` and
//! `processed` (it was drained from the queue; the tracker just refused to
//! let it mutate state). So every attempted read is accounted for exactly
//! once in the conservation sums, and `invalid` explains *why* some of
//! them produced nothing.
//!
//! The reactor front end's `Block` parking adds one more attribution
//! layer. A read a parked connection stashed is counted in `parked_reads`
//! when the stash forms, and leaves the stash exactly one way:
//!
//! ```text
//! parked_reads = readmissions + parked_rejected + parked_discarded
//!                + currently stashed
//! ```
//!
//! Readmitted reads then count as `ingested` like any other; a
//! `parked_rejected` read was refused at retry because its session closed
//! (counted in `rejected` by the session); a `parked_discarded` read lost
//! its connection mid-park (counted in `rejected` at the boundary, since
//! it never entered a queue). Stashed reads are counted *nowhere else*
//! until they resolve, so the two sums above stay exact at every instant.
//!
//! [`TrackError`]: rfidraw_core::online::TrackError

use rfidraw_metrics::runtime::{Counter, HistogramSnapshot, LatencyHistogram};
use rfidraw_metrics::{PromText, StageLatency, TraceRecorder};
use rfidraw_protocol::Epc;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Live counters for one session.
#[derive(Debug, Default)]
pub(crate) struct SessionMetrics {
    /// Reads accepted into the queue.
    pub ingested: Counter,
    /// Reads evicted from the queue by `DropOldest` (or discarded at
    /// session close).
    pub dropped: Counter,
    /// Reads refused at the ingest boundary (`Reject` on a full queue, or
    /// a closed session).
    pub rejected: Counter,
    /// Reads fed through the tracker.
    pub processed: Counter,
    /// Position snapshots (live estimates) the tracker emitted.
    pub positions: Counter,
    /// Stale resets (read gap exceeded the tracker's unwrap horizon).
    pub stale_resets: Counter,
    /// Reads refused for being hostile or inconsistent (non-finite values,
    /// out-of-order timestamps, duplicates) — at the wire boundary or by
    /// the tracker itself. Attribution only; see the module docs.
    pub invalid: Counter,
    /// Changes of the tracker's missing-pair set (antenna dropout or
    /// re-admission).
    pub degraded: Counter,
}

/// Live service-wide counters.
#[derive(Debug)]
pub(crate) struct GlobalMetrics {
    pub ingested: Counter,
    pub dropped: Counter,
    pub rejected: Counter,
    pub processed: Counter,
    /// Processed reads the thread that scheduled their session applied
    /// itself, with no hand-off to a worker (a subset of `processed`).
    pub inline: Counter,
    pub positions: Counter,
    pub stale_resets: Counter,
    pub invalid: Counter,
    pub degraded: Counter,
    /// Reads stashed by a parked reactor connection (counted once, when
    /// the stash forms). See the module docs for the conservation law.
    pub parked_reads: Counter,
    /// Stashed reads later admitted into a queue after a drain signal.
    pub readmissions: Counter,
    /// Stashed reads refused at retry because the session had closed.
    pub parked_rejected: Counter,
    /// Stashed reads abandoned because the parked connection closed.
    pub parked_discarded: Counter,
    /// Sessions ever created.
    pub sessions_opened: Counter,
    /// Sessions evicted by the idle timeout.
    pub sessions_evicted: Counter,
    /// Sessions closed explicitly or at shutdown.
    pub sessions_closed: Counter,
    /// Ingests refused because the session cap was reached.
    pub sessions_rejected: Counter,
    /// Ingest→position latency (enqueue to the position estimate that the
    /// read produced).
    pub latency: LatencyHistogram,
    /// Time reads spend queued before a worker picks them up.
    pub queue_wait: LatencyHistogram,
    /// Time a worker spends inside the tracker per drained batch.
    pub compute: LatencyHistogram,
    /// The pipeline trace recorder, when the service was configured with
    /// one ([`crate::ServeConfig::trace`]). Always compiled; the
    /// `trace` cargo feature only controls whether the *core* hot path
    /// emits into it.
    pub trace: Option<Arc<TraceRecorder>>,
}

impl GlobalMetrics {
    pub fn new(trace: Option<Arc<TraceRecorder>>) -> Self {
        Self {
            ingested: Counter::new(),
            dropped: Counter::new(),
            rejected: Counter::new(),
            processed: Counter::new(),
            inline: Counter::new(),
            positions: Counter::new(),
            stale_resets: Counter::new(),
            invalid: Counter::new(),
            degraded: Counter::new(),
            parked_reads: Counter::new(),
            readmissions: Counter::new(),
            parked_rejected: Counter::new(),
            parked_discarded: Counter::new(),
            sessions_opened: Counter::new(),
            sessions_evicted: Counter::new(),
            sessions_closed: Counter::new(),
            sessions_rejected: Counter::new(),
            latency: LatencyHistogram::default_bounds(),
            queue_wait: LatencyHistogram::default_bounds(),
            compute: LatencyHistogram::default_bounds(),
            trace,
        }
    }
}

/// Point-in-time snapshot of one session's counters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SessionTelemetry {
    /// The session's tag.
    pub epc: Epc,
    /// Reads accepted into this session's queue.
    pub reads_ingested: u64,
    /// Reads evicted from the queue (`DropOldest` / close).
    pub reads_dropped: u64,
    /// Reads refused at the ingest boundary.
    pub reads_rejected: u64,
    /// Reads fed through the tracker.
    pub reads_processed: u64,
    /// Position snapshots emitted.
    pub positions: u64,
    /// Stale resets.
    pub stale_resets: u64,
    /// Reads refused as hostile or inconsistent (wire validation or
    /// tracker [`TrackError`]); attribution on top of
    /// `reads_rejected`/`reads_processed`, see the module docs.
    ///
    /// [`TrackError`]: rfidraw_core::online::TrackError
    pub reads_invalid: u64,
    /// Missing-pair-set changes (antenna dropout / re-admission).
    pub degraded_events: u64,
    /// Reads currently waiting in the queue.
    pub queue_depth: u64,
    /// Whether the tracker has acquired and is producing estimates.
    pub tracking: bool,
    /// Whether the tracker is currently running on a reduced pair set.
    pub degraded: bool,
}

/// Point-in-time snapshot of one registry shard: how sessions spread over
/// shards and how much the workers have drained from each.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShardTelemetry {
    /// The shard index (EPC-hash placement, stable for a session's life).
    pub shard: u64,
    /// Sessions currently placed on this shard.
    pub sessions: u64,
    /// Reads currently queued across this shard's sessions.
    pub queue_depth: u64,
    /// Reads drained from this shard since start, by workers, `pump` and
    /// inline drains alike. Summed over shards this equals
    /// `reads_processed` — a conservation check the fault tests enforce.
    pub reads_drained: u64,
    /// Times a worker (or `pump`) took one of this shard's sessions off
    /// the ready queue to drain it. A producer's inline drain
    /// (`reads_inline`) is not a visit, so summed over shards
    /// `(reads_drained − reads_inline) / drain_visits` is the mean reads
    /// per worker drain.
    pub drain_visits: u64,
}

/// Point-in-time snapshot of the network front end: the counters of
/// every [`crate::ReactorServer`] the service has ever bound, summed.
///
/// Conservation: `connections_accepted = connections_closed +
/// connections_open` once the servers quiesce, and every accepted frame
/// is counted in exactly one of `frames_in_json` / `frames_in_binary`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct NetTelemetry {
    /// Connections accepted.
    pub connections_accepted: u64,
    /// Connections fully closed.
    pub connections_closed: u64,
    /// Connections currently open.
    pub connections_open: u64,
    /// Connections refused at the front end's connection cap.
    pub connections_rejected: u64,
    /// Complete newline-JSON (wire v2) frames received.
    pub frames_in_json: u64,
    /// Complete binary (wire v3) frames received.
    pub frames_in_binary: u64,
    /// Frames sent (replies and subscription pushes).
    pub frames_out: u64,
    /// Reads that resumed a partially received frame (reassembly events).
    pub partial_frame_resumes: u64,
    /// Terminal framing errors (bad magic/version, oversized declared
    /// length, non-UTF-8 text).
    pub frame_errors: u64,
    /// Connections that disconnected mid-frame.
    pub midframe_disconnects: u64,
    /// Payload bytes received.
    pub bytes_in: u64,
    /// Payload bytes sent.
    pub bytes_out: u64,
    /// Connections currently parked (read interest dropped under `Block`
    /// backpressure, waiting for their session to drain). A gauge: returns
    /// to 0 whenever no queue is full.
    pub connections_parked: u64,
    /// Reactor wakeup-pipe firings (pushed updates, drain signals,
    /// shutdown pokes).
    pub wakeups: u64,
    /// Poller reregister failures; each one force-closed its connection.
    pub reregister_failures: u64,
}

impl NetTelemetry {
    /// Adds one front end's live counters into this snapshot.
    pub(crate) fn absorb(&mut self, s: &rfidraw_net::ReactorStats) {
        use std::sync::atomic::Ordering::Relaxed;
        self.connections_accepted += s.accepted.load(Relaxed);
        self.connections_closed += s.closed.load(Relaxed);
        self.connections_open += s.open.load(Relaxed);
        self.connections_rejected += s.rejected.load(Relaxed);
        self.frames_in_json += s.frames_in_json.load(Relaxed);
        self.frames_in_binary += s.frames_in_binary.load(Relaxed);
        self.frames_out += s.frames_out.load(Relaxed);
        self.partial_frame_resumes += s.partial_resumes.load(Relaxed);
        self.frame_errors += s.frame_errors.load(Relaxed);
        self.midframe_disconnects += s.midframe_disconnects.load(Relaxed);
        self.bytes_in += s.bytes_in.load(Relaxed);
        self.bytes_out += s.bytes_out.load(Relaxed);
        self.connections_parked += s.parked.load(Relaxed);
        self.wakeups += s.wakeups.load(Relaxed);
        self.reregister_failures += s.reregister_failures.load(Relaxed);
    }
}

/// Point-in-time snapshot of the whole service.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TelemetryReport {
    /// Sessions currently live.
    pub active_sessions: u64,
    /// Sessions ever created.
    pub sessions_opened: u64,
    /// Sessions evicted by the idle timeout.
    pub sessions_evicted: u64,
    /// Sessions closed explicitly or at shutdown.
    pub sessions_closed: u64,
    /// Ingests refused at the session cap.
    pub sessions_rejected: u64,
    /// Reads accepted into queues, service-wide.
    pub reads_ingested: u64,
    /// Reads evicted from queues, service-wide.
    pub reads_dropped: u64,
    /// Reads refused at the ingest boundary, service-wide.
    pub reads_rejected: u64,
    /// Reads fed through trackers, service-wide.
    pub reads_processed: u64,
    /// Of `reads_processed`, the reads that could not finish a tick and
    /// that the thread scheduling their session (a producer or the
    /// reactor) applied itself instead of handing them to a worker.
    /// Always 0 without worker threads.
    pub reads_inline: u64,
    /// Position snapshots emitted, service-wide.
    pub positions: u64,
    /// Stale resets, service-wide.
    pub stale_resets: u64,
    /// Reads refused as hostile or inconsistent, service-wide.
    pub reads_invalid: u64,
    /// Missing-pair-set changes, service-wide.
    pub degraded_events: u64,
    /// Reads stashed by parked reactor connections (`Block` backpressure).
    /// Conservation: `parked_reads = readmissions + parked_rejected +
    /// parked_discarded + currently stashed` (see the module docs).
    pub parked_reads: u64,
    /// Stashed reads later admitted after a drain signal.
    pub readmissions: u64,
    /// Stashed reads refused at retry because the session had closed.
    pub parked_rejected: u64,
    /// Stashed reads abandoned because the parked connection closed.
    pub parked_discarded: u64,
    /// Vote tables sessions shared instead of building: every session
    /// after the first clones the service's prototype tracker and shares
    /// its coarse and fine table, so this is `2 × (sessions_opened − 1)`.
    pub table_cache_hits: u64,
    /// Vote tables built: the prototype's coarse and fine table, built
    /// when the first session opened (0 before that, 2 after).
    pub table_cache_misses: u64,
    /// Bytes held by the prototype's built tables, which every session
    /// shares.
    pub table_cache_bytes: u64,
    /// Ingest→position latency histogram.
    pub latency: HistogramSnapshot,
    /// Enqueue→dequeue wait histogram (how long reads sit in queues).
    pub queue_wait: HistogramSnapshot,
    /// Per-batch tracker compute-time histogram.
    pub compute: HistogramSnapshot,
    /// Per-stage span latency histograms from the trace recorder (empty
    /// when no recorder is configured or the `trace` feature is off).
    pub stages: Vec<StageLatency>,
    /// Network front-end counters, summed over every server registered
    /// with the service (all zeros when serving is purely in-process).
    pub net: NetTelemetry,
    /// Per-shard registry breakdown (always one row per configured shard).
    pub shards: Vec<ShardTelemetry>,
    /// Per-session breakdown, in EPC order.
    pub sessions: Vec<SessionTelemetry>,
}

impl TelemetryReport {
    /// A human-readable multi-line rendering (the wire/JSON form is the
    /// machine-readable one).
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "sessions: {} active / {} opened / {} evicted / {} closed / {} refused at cap\n",
            self.active_sessions,
            self.sessions_opened,
            self.sessions_evicted,
            self.sessions_closed,
            self.sessions_rejected,
        ));
        out.push_str(&format!(
            "reads:    {} ingested, {} processed ({} inline), {} dropped, {} rejected ({} invalid)\n",
            self.reads_ingested,
            self.reads_processed,
            self.reads_inline,
            self.reads_dropped,
            self.reads_rejected,
            self.reads_invalid,
        ));
        out.push_str(&format!(
            "output:   {} position snapshots, {} stale resets, {} degraded transitions\n",
            self.positions, self.stale_resets, self.degraded_events,
        ));
        out.push_str(&format!(
            "tables:   {} cache hits / {} misses, {} bytes resident\n",
            self.table_cache_hits,
            self.table_cache_misses,
            self.table_cache_bytes,
        ));
        out.push_str(&format!(
            "net:      {} conns accepted / {} closed / {} open / {} rejected, \
             {} json + {} binary frames in, {} out, {} partial resumes, \
             {} frame errors, {} mid-frame disconnects\n",
            self.net.connections_accepted,
            self.net.connections_closed,
            self.net.connections_open,
            self.net.connections_rejected,
            self.net.frames_in_json,
            self.net.frames_in_binary,
            self.net.frames_out,
            self.net.partial_frame_resumes,
            self.net.frame_errors,
            self.net.midframe_disconnects,
        ));
        out.push_str(&format!(
            "parking:  {} conns parked now, {} reads stashed, {} readmitted, \
             {} rejected at retry, {} discarded, {} wakeups\n",
            self.net.connections_parked,
            self.parked_reads,
            self.readmissions,
            self.parked_rejected,
            self.parked_discarded,
            self.net.wakeups,
        ));
        out.push_str(&format!("latency:  {}\n", self.latency.summary()));
        out.push_str(&format!("queue:    {}\n", self.queue_wait.summary()));
        out.push_str(&format!("compute:  {}\n", self.compute.summary()));
        for sh in &self.shards {
            out.push_str(&format!(
                "  shard {:<3} {} sessions, depth {}, {} drained over {} visits\n",
                sh.shard, sh.sessions, sh.queue_depth, sh.reads_drained, sh.drain_visits,
            ));
        }
        for st in &self.stages {
            out.push_str(&format!("  stage {:<16} {}\n", st.stage, st.histogram.summary()));
        }
        for s in &self.sessions {
            out.push_str(&format!(
                "  {}: {} in / {} done / {} dropped / {} rejected, {} positions, depth {}, {}\n",
                s.epc,
                s.reads_ingested,
                s.reads_processed,
                s.reads_dropped,
                s.reads_rejected,
                s.positions,
                s.queue_depth,
                if s.tracking { "tracking" } else { "warming up" },
            ));
        }
        out
    }

    /// Prometheus text-format (0.0.4) rendering of every counter and
    /// histogram in the report, suitable for any standard scraper. Latency
    /// families keep the repo's native microsecond unit (`*_us`).
    pub fn to_prometheus(&self) -> String {
        let mut p = PromText::new();
        p.gauge("rfidraw_sessions_active", "Sessions currently live.", &[], self.active_sessions as f64);
        p.counter("rfidraw_sessions_opened_total", "Sessions ever created.", &[], self.sessions_opened);
        p.counter("rfidraw_sessions_evicted_total", "Sessions evicted by the idle timeout.", &[], self.sessions_evicted);
        p.counter("rfidraw_sessions_closed_total", "Sessions closed explicitly or at shutdown.", &[], self.sessions_closed);
        p.counter("rfidraw_sessions_rejected_total", "Ingests refused at the session cap.", &[], self.sessions_rejected);
        p.counter("rfidraw_reads_ingested_total", "Reads accepted into queues.", &[], self.reads_ingested);
        p.counter("rfidraw_reads_dropped_total", "Reads evicted from queues.", &[], self.reads_dropped);
        p.counter("rfidraw_reads_rejected_total", "Reads refused at the ingest boundary.", &[], self.reads_rejected);
        p.counter("rfidraw_reads_processed_total", "Reads fed through trackers.", &[], self.reads_processed);
        p.counter("rfidraw_reads_inline_total", "Processed reads the scheduling thread applied without a worker hand-off.", &[], self.reads_inline);
        p.counter("rfidraw_positions_total", "Position snapshots emitted.", &[], self.positions);
        p.counter("rfidraw_stale_resets_total", "Stale-gap tracker resets.", &[], self.stale_resets);
        p.counter("rfidraw_reads_invalid_total", "Reads refused as hostile or inconsistent.", &[], self.reads_invalid);
        p.counter("rfidraw_degraded_total", "Missing-pair-set changes (antenna dropout or re-admission).", &[], self.degraded_events);
        p.counter("rfidraw_parked_reads_total", "Reads stashed by parked reactor connections.", &[], self.parked_reads);
        p.counter("rfidraw_readmissions_total", "Stashed reads admitted after a drain signal.", &[], self.readmissions);
        p.counter("rfidraw_parked_rejected_total", "Stashed reads refused at retry (session closed).", &[], self.parked_rejected);
        p.counter("rfidraw_parked_discarded_total", "Stashed reads abandoned (connection closed mid-park).", &[], self.parked_discarded);
        p.counter("rfidraw_table_cache_hits_total", "Vote tables sessions shared instead of building.", &[], self.table_cache_hits);
        p.counter("rfidraw_table_cache_misses_total", "Vote tables built.", &[], self.table_cache_misses);
        p.gauge("rfidraw_table_cache_resident_bytes", "Bytes held by the shared vote tables.", &[], self.table_cache_bytes as f64);
        p.counter("rfidraw_net_connections_accepted_total", "Connections accepted by the network front ends.", &[], self.net.connections_accepted);
        p.counter("rfidraw_net_connections_closed_total", "Connections fully closed.", &[], self.net.connections_closed);
        p.gauge("rfidraw_net_connections_open", "Connections currently open.", &[], self.net.connections_open as f64);
        p.counter("rfidraw_net_connections_rejected_total", "Connections refused at the front-end cap.", &[], self.net.connections_rejected);
        p.counter("rfidraw_net_frames_in_json_total", "Newline-JSON (wire v2) frames received.", &[], self.net.frames_in_json);
        p.counter("rfidraw_net_frames_in_binary_total", "Binary (wire v3) frames received.", &[], self.net.frames_in_binary);
        p.counter("rfidraw_net_frames_out_total", "Frames sent (replies and subscription pushes).", &[], self.net.frames_out);
        p.counter("rfidraw_net_partial_frame_resumes_total", "Reads that resumed a partially received frame.", &[], self.net.partial_frame_resumes);
        p.counter("rfidraw_net_frame_errors_total", "Terminal framing errors.", &[], self.net.frame_errors);
        p.counter("rfidraw_net_midframe_disconnects_total", "Connections lost mid-frame.", &[], self.net.midframe_disconnects);
        p.counter("rfidraw_net_bytes_in_total", "Payload bytes received.", &[], self.net.bytes_in);
        p.counter("rfidraw_net_bytes_out_total", "Payload bytes sent.", &[], self.net.bytes_out);
        p.gauge("rfidraw_net_parked_connections", "Connections currently parked under Block backpressure.", &[], self.net.connections_parked as f64);
        p.counter("rfidraw_net_wakeups_total", "Reactor wakeup-pipe firings.", &[], self.net.wakeups);
        p.counter("rfidraw_net_reregister_failures_total", "Poller reregister failures (each closed its connection).", &[], self.net.reregister_failures);
        for sh in &self.shards {
            let shard = sh.shard.to_string();
            let labels: [(&str, &str); 1] = [("shard", shard.as_str())];
            p.gauge("rfidraw_shard_sessions", "Sessions placed on this registry shard.", &labels, sh.sessions as f64);
            p.gauge("rfidraw_shard_queue_depth", "Reads queued across this shard's sessions.", &labels, sh.queue_depth as f64);
            p.counter("rfidraw_shard_reads_drained_total", "Reads drained from this shard.", &labels, sh.reads_drained);
            p.counter("rfidraw_shard_drain_visits_total", "Ready-queue dequeues of this shard's sessions (inline drains are not visits).", &labels, sh.drain_visits);
        }
        p.histogram("rfidraw_latency_us", "Ingest-to-position latency (µs).", &[], &self.latency);
        p.histogram("rfidraw_queue_wait_us", "Enqueue-to-dequeue wait (µs).", &[], &self.queue_wait);
        p.histogram("rfidraw_compute_us", "Tracker compute time per batch (µs).", &[], &self.compute);
        for st in &self.stages {
            p.histogram(
                "rfidraw_stage_us",
                "Per-stage span latency from the trace recorder (µs).",
                &[("stage", st.stage.as_str())],
                &st.histogram,
            );
        }
        for s in &self.sessions {
            let epc = s.epc.to_string();
            let labels: [(&str, &str); 1] = [("epc", epc.as_str())];
            p.counter("rfidraw_session_reads_ingested_total", "Per-session reads accepted.", &labels, s.reads_ingested);
            p.counter("rfidraw_session_reads_processed_total", "Per-session reads processed.", &labels, s.reads_processed);
            p.counter("rfidraw_session_reads_dropped_total", "Per-session reads dropped.", &labels, s.reads_dropped);
            p.counter("rfidraw_session_reads_rejected_total", "Per-session reads rejected.", &labels, s.reads_rejected);
            p.counter("rfidraw_session_positions_total", "Per-session position snapshots.", &labels, s.positions);
            p.counter("rfidraw_session_stale_resets_total", "Per-session stale resets.", &labels, s.stale_resets);
            p.counter("rfidraw_session_reads_invalid_total", "Per-session reads refused as invalid.", &labels, s.reads_invalid);
            p.counter("rfidraw_session_degraded_total", "Per-session missing-pair-set changes.", &labels, s.degraded_events);
            p.gauge("rfidraw_session_queue_depth", "Per-session queued reads.", &labels, s.queue_depth as f64);
            p.gauge(
                "rfidraw_session_tracking",
                "1 once the session's tracker has acquired.",
                &labels,
                if s.tracking { 1.0 } else { 0.0 },
            );
            p.gauge(
                "rfidraw_session_degraded",
                "1 while the session runs on a reduced pair set.",
                &labels,
                if s.degraded { 1.0 } else { 0.0 },
            );
        }
        p.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfidraw_metrics::runtime::LatencyHistogram;

    fn report() -> TelemetryReport {
        let h = LatencyHistogram::default_bounds();
        h.observe_us(120);
        TelemetryReport {
            active_sessions: 1,
            sessions_opened: 2,
            sessions_evicted: 1,
            sessions_closed: 0,
            sessions_rejected: 3,
            reads_ingested: 100,
            reads_dropped: 5,
            reads_rejected: 7,
            reads_processed: 90,
            reads_inline: 70,
            positions: 42,
            stale_resets: 1,
            reads_invalid: 2,
            degraded_events: 1,
            parked_reads: 16,
            readmissions: 13,
            parked_rejected: 2,
            parked_discarded: 1,
            table_cache_hits: 2,
            table_cache_misses: 2,
            table_cache_bytes: 4096,
            latency: h.snapshot(),
            queue_wait: LatencyHistogram::default_bounds().snapshot(),
            compute: LatencyHistogram::default_bounds().snapshot(),
            stages: vec![StageLatency {
                stage: "engine_evaluate".to_string(),
                histogram: h.snapshot(),
            }],
            net: NetTelemetry {
                connections_accepted: 9,
                connections_closed: 6,
                connections_open: 3,
                connections_rejected: 1,
                frames_in_json: 50,
                frames_in_binary: 70,
                frames_out: 110,
                partial_frame_resumes: 12,
                frame_errors: 2,
                midframe_disconnects: 1,
                bytes_in: 40_000,
                bytes_out: 52_000,
                connections_parked: 1,
                wakeups: 14,
                reregister_failures: 0,
            },
            shards: vec![
                ShardTelemetry {
                    shard: 0,
                    sessions: 1,
                    queue_depth: 5,
                    reads_drained: 60,
                    drain_visits: 8,
                },
                ShardTelemetry {
                    shard: 1,
                    sessions: 0,
                    queue_depth: 0,
                    reads_drained: 30,
                    drain_visits: 8,
                },
            ],
            sessions: vec![SessionTelemetry {
                epc: Epc::from_index(7),
                reads_ingested: 100,
                reads_dropped: 5,
                reads_rejected: 7,
                reads_processed: 90,
                positions: 42,
                stale_resets: 1,
                reads_invalid: 2,
                degraded_events: 1,
                queue_depth: 5,
                tracking: true,
                degraded: false,
            }],
        }
    }

    #[test]
    fn report_roundtrips_through_json() {
        let r = report();
        let json = serde_json::to_string_pretty(&r).unwrap();
        let back: TelemetryReport = serde_json::from_str(&json).unwrap();
        assert_eq!(r, back);
    }

    #[test]
    fn render_mentions_the_required_fields() {
        let r = report();
        let text = r.render();
        assert!(text.contains("1 active"));
        assert!(text.contains("90 processed (70 inline)"));
        assert!(text.contains("1 evicted"));
        assert!(text.contains("latency:"));
        assert!(text.contains("queue:"));
        assert!(text.contains("stage engine_evaluate"));
        assert!(text.contains("2 cache hits / 2 misses, 4096 bytes resident"));
        assert!(text.contains("9 conns accepted"));
        assert!(text.contains("50 json + 70 binary frames in"));
        assert!(text.contains("12 partial resumes"));
        assert!(text.contains("1 conns parked now"));
        assert!(text.contains("16 reads stashed, 13 readmitted"));
        assert!(text.contains("14 wakeups"));
        assert!(text.contains("shard 0"));
        assert!(text.contains("60 drained over 8 visits"));
    }

    #[test]
    fn prometheus_exposition_covers_counters_histograms_and_stages() {
        let text = report().to_prometheus();
        assert!(text.contains("# TYPE rfidraw_reads_ingested_total counter"));
        assert!(text.contains("rfidraw_reads_ingested_total 100"));
        assert!(text.contains("rfidraw_sessions_active 1"));
        assert!(text.contains("# TYPE rfidraw_latency_us histogram"));
        assert!(text.contains("rfidraw_latency_us_count 1"));
        assert!(text.contains("rfidraw_stage_us_bucket{stage=\"engine_evaluate\",le=\"+Inf\"} 1"));
        assert!(text.contains("rfidraw_reads_invalid_total 2"));
        assert!(text.contains("rfidraw_reads_inline_total 70"));
        assert!(text.contains("rfidraw_degraded_total 1"));
        assert!(text.contains("rfidraw_table_cache_hits_total 2"));
        assert!(text.contains("rfidraw_table_cache_misses_total 2"));
        assert!(text.contains("rfidraw_table_cache_resident_bytes 4096"));
        assert!(text.contains("rfidraw_net_connections_accepted_total 9"));
        assert!(text.contains("rfidraw_net_frames_in_binary_total 70"));
        assert!(text.contains("rfidraw_net_partial_frame_resumes_total 12"));
        assert!(text.contains("rfidraw_net_frame_errors_total 2"));
        assert!(text.contains("rfidraw_parked_reads_total 16"));
        assert!(text.contains("rfidraw_readmissions_total 13"));
        assert!(text.contains("rfidraw_parked_rejected_total 2"));
        assert!(text.contains("rfidraw_parked_discarded_total 1"));
        assert!(text.contains("rfidraw_net_parked_connections 1"));
        assert!(text.contains("rfidraw_net_wakeups_total 14"));
        assert!(text.contains("rfidraw_net_reregister_failures_total 0"));
        assert!(text.contains("rfidraw_shard_reads_drained_total{shard=\"0\"} 60"));
        assert!(text.contains("rfidraw_shard_sessions{shard=\"1\"} 0"));
        assert!(text.contains("rfidraw_session_positions_total{epc="));
        // HELP/TYPE declared once per family despite per-session repeats.
        assert_eq!(text.matches("# TYPE rfidraw_stage_us histogram").count(), 1);
    }
}
