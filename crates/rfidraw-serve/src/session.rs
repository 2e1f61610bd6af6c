//! One tracking session: a bounded ingest queue, a tracker (plus optional
//! cursor state machine), subscribers, and counters.
//!
//! A session is shared between producers (ingest / subscribe), one drainer
//! at a time, and the registry (idle eviction). The `scheduled` flag is
//! set while the session sits on the service's ready queue or is being
//! drained, so only its holder drains: a worker, or the producer that won
//! it and applies reads that cannot finish a tick on the spot
//! (`SessionShared::drain_quiet`). That is what keeps per-session read
//! order — and therefore results — identical to a standalone tracker. The
//! queue and the tracker sit behind *separate* locks so ingest never waits
//! for a tracker tick: producers only touch the queue lock (a quiet drain
//! only `try_lock`s the engine and backs off when it is busy), and
//! drainers hold the engine lock only while processing.

use crate::config::{BackpressurePolicy, CursorSetup};
use crate::telemetry::{GlobalMetrics, SessionMetrics, SessionTelemetry};
use rfidraw_core::geom::Point2;
use rfidraw_core::obs::Stage;
use rfidraw_core::online::{OnlineEvent, OnlineTracker, TrackError};
use rfidraw_core::stream::PhaseRead;
use rfidraw_net::WakeupHandle;
use rfidraw_protocol::Epc;
use rfidraw_touch::{CursorEvent, CursorTracker};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Why a session ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CloseReason {
    /// No ingest within the idle timeout.
    Idle,
    /// The owner closed it via the client API.
    Explicit,
    /// The service shut down.
    Shutdown,
}

impl CloseReason {
    /// Stable string form (used on the wire).
    pub fn as_str(self) -> &'static str {
        match self {
            CloseReason::Idle => "idle",
            CloseReason::Explicit => "explicit",
            CloseReason::Shutdown => "shutdown",
        }
    }
}

/// Events a session broadcasts to its in-process subscribers.
#[derive(Debug, Clone, PartialEq)]
pub enum SessionEvent {
    /// The tracker acquired with this many candidates.
    Acquired {
        /// The session's tag.
        epc: Epc,
        /// Candidate count at acquisition.
        candidates: usize,
    },
    /// A new live position estimate.
    Position {
        /// The session's tag.
        epc: Epc,
        /// Tick timestamp (s, stream time).
        t: f64,
        /// The estimate.
        pos: Point2,
    },
    /// The tracker went stale (read gap) and reset.
    Stale {
        /// The session's tag.
        epc: Epc,
        /// The observed gap (s).
        gap: f64,
    },
    /// The tracker's missing-pair set changed: an antenna dropped out (or
    /// was re-admitted) and positioning continues on the surviving pairs.
    Degraded {
        /// The session's tag.
        epc: Epc,
        /// Pairs currently excluded from voting; empty = whole again.
        missing_pairs: Vec<rfidraw_core::array::AntennaPair>,
    },
    /// A cursor-mode event (only when the service was configured with
    /// [`crate::config::CursorSetup`]).
    Cursor {
        /// The session's tag.
        epc: Epc,
        /// The cursor event.
        event: CursorEvent,
    },
    /// The session ended; no further events follow.
    Closed {
        /// The session's tag.
        epc: Epc,
        /// Why it ended.
        reason: CloseReason,
    },
}

/// Per-batch ingest accounting, returned to the producer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct IngestReceipt {
    /// Reads accepted into the queue.
    pub accepted: u64,
    /// Older queued reads evicted to make room (`DropOldest`).
    pub dropped: u64,
    /// Reads refused outright (`Reject` on full, or session closed).
    pub rejected: u64,
}

impl IngestReceipt {
    pub(crate) fn merge(&mut self, other: IngestReceipt) {
        self.accepted += other.accepted;
        self.dropped += other.dropped;
        self.rejected += other.rejected;
    }
}

/// The trace-event session id for a tag: the low eight EPC bytes, big
/// endian, so distinct `Epc::from_index` tags map to distinct ids and the
/// id is recoverable from the EPC by inspection.
pub(crate) fn session_id(epc: Epc) -> u64 {
    u64::from_be_bytes(epc.0[4..12].try_into().expect("epc tail is 8 bytes"))
}

struct QueuedRead {
    read: PhaseRead,
    enqueued: Instant,
}

struct Engine {
    tracker: OnlineTracker,
    cursor: Option<CursorTracker>,
}

/// One subscription's channel, plus the reactor to poke after each batch
/// sent on it (subscriptions opened through the reactor front end).
struct Subscriber {
    tx: mpsc::Sender<SessionEvent>,
    wakeup: Option<WakeupHandle>,
}

impl Subscriber {
    /// Sends a batch, then pokes the reactor once; `false` when the
    /// receiver is gone.
    fn deliver(&self, events: &[SessionEvent]) -> bool {
        let alive = events.iter().all(|e| self.tx.send(e.clone()).is_ok());
        if let (true, Some(w)) = (alive, &self.wakeup) {
            w.notify();
        }
        alive
    }
}

/// What a non-blocking enqueue attempt produced (see
/// [`SessionShared::try_enqueue`]).
#[derive(Debug)]
pub(crate) enum EnqueueOutcome {
    /// Every read was resolved (accepted, dropped-for, or rejected).
    Done(IngestReceipt),
    /// `Block` policy and the queue filled: the first `admitted` reads of
    /// the attempted slice were accepted (and are counted in `receipt`);
    /// the rest were *not counted anywhere* — the caller owns them and
    /// must retry after a drain (they enter the metrics when admitted).
    Full {
        /// Accounting for the resolved prefix.
        receipt: IngestReceipt,
        /// How many reads of the attempted slice were resolved.
        admitted: usize,
    },
}

pub(crate) struct SessionShared {
    pub(crate) epc: Epc,
    queue: Mutex<VecDeque<QueuedRead>>,
    /// Producers blocked by [`BackpressurePolicy::Block`] wait here.
    space: Condvar,
    /// One-shot callbacks fired when queue space frees or the session
    /// closes — the async face of `space`, armed by the reactor front end
    /// for parked connections (each waiter pokes a reactor wakeup pipe).
    drain_waiters: Mutex<Vec<Box<dyn Fn() + Send>>>,
    engine: Mutex<Engine>,
    subscribers: Mutex<Vec<Subscriber>>,
    /// Set while the session is on the ready queue or being drained, so
    /// one thread at a time drains it (which preserves the read order).
    pub(crate) scheduled: AtomicBool,
    closed: AtomicBool,
    last_activity: Mutex<Instant>,
    pub(crate) metrics: SessionMetrics,
}

impl SessionShared {
    pub fn new(epc: Epc, tracker: OnlineTracker, cursor: Option<&CursorSetup>) -> Self {
        Self {
            epc,
            queue: Mutex::new(VecDeque::new()),
            space: Condvar::new(),
            drain_waiters: Mutex::new(Vec::new()),
            engine: Mutex::new(Engine {
                tracker,
                cursor: cursor.map(|c| CursorTracker::new(c.config, c.map.clone())),
            }),
            subscribers: Mutex::new(Vec::new()),
            scheduled: AtomicBool::new(false),
            closed: AtomicBool::new(false),
            last_activity: Mutex::new(Instant::now()),
            metrics: SessionMetrics::default(),
        }
    }

    pub fn is_closed(&self) -> bool {
        self.closed.load(Ordering::Acquire)
    }

    pub fn queue_depth(&self) -> usize {
        self.queue.lock().expect("queue lock").len()
    }

    pub fn idle_for(&self) -> Duration {
        self.last_activity.lock().expect("activity lock").elapsed()
    }

    fn touch(&self) {
        *self.last_activity.lock().expect("activity lock") = Instant::now();
    }

    /// Enqueues a batch under the configured policy, counting every
    /// decision in both the session and global metrics. `schedule` makes
    /// the session runnable: once the batch is in and, under `Block`,
    /// before every wait for space, so no producer sleeps on a full queue
    /// that nobody was told to drain.
    pub fn enqueue(
        &self,
        reads: &[PhaseRead],
        policy: BackpressurePolicy,
        capacity: usize,
        global: &GlobalMetrics,
        schedule: impl Fn(),
    ) -> IngestReceipt {
        let mut receipt = IngestReceipt::default();
        let mut rest = reads;
        loop {
            match self.try_enqueue(rest, policy, capacity, global) {
                EnqueueOutcome::Done(r) => {
                    receipt.merge(r);
                    break;
                }
                EnqueueOutcome::Full { receipt: r, admitted } => {
                    receipt.merge(r);
                    rest = &rest[admitted..];
                    schedule();
                    // Sleep until a drain frees space or the session
                    // closes; the timeout is only a backstop.
                    let q = self.queue.lock().expect("queue lock");
                    if q.len() >= capacity && !self.is_closed() {
                        let _ = self
                            .space
                            .wait_timeout(q, Duration::from_millis(5))
                            .expect("queue lock");
                    }
                }
            }
        }
        if receipt.accepted > 0 {
            schedule();
        }
        receipt
    }

    /// Non-blocking batch enqueue: the same accounting as
    /// [`enqueue`](Self::enqueue) for every read it resolves, but under `Block`
    /// with a full queue it returns [`EnqueueOutcome::Full`] instead of
    /// sleeping on the `space` condvar. The reactor front end lives on
    /// this: the reactor thread *is* the producer there, so it must never
    /// sleep — it parks the connection and retries after a drain signal.
    ///
    /// Reads beyond the admitted prefix are counted nowhere; they enter
    /// the metrics only when a later call resolves them, so conservation
    /// (`ingested = processed + dropped + queued`) holds at every instant.
    pub(crate) fn try_enqueue(
        &self,
        reads: &[PhaseRead],
        policy: BackpressurePolicy,
        capacity: usize,
        global: &GlobalMetrics,
    ) -> EnqueueOutcome {
        let mut receipt = IngestReceipt::default();
        let mut admitted = 0usize;
        let mut full = false;
        {
            let mut q = self.queue.lock().expect("queue lock");
            for &read in reads {
                if self.is_closed() {
                    receipt.rejected += 1;
                    admitted += 1;
                    continue;
                }
                if q.len() < capacity {
                    q.push_back(QueuedRead { read, enqueued: Instant::now() });
                    receipt.accepted += 1;
                    admitted += 1;
                    continue;
                }
                match policy {
                    BackpressurePolicy::Reject => {
                        receipt.rejected += 1;
                        admitted += 1;
                    }
                    BackpressurePolicy::DropOldest => {
                        q.pop_front();
                        q.push_back(QueuedRead { read, enqueued: Instant::now() });
                        receipt.accepted += 1;
                        receipt.dropped += 1;
                        admitted += 1;
                    }
                    BackpressurePolicy::Block => {
                        full = true;
                        break;
                    }
                }
            }
        }
        self.settle_receipt(receipt, global);
        if full {
            EnqueueOutcome::Full { receipt, admitted }
        } else {
            EnqueueOutcome::Done(receipt)
        }
    }

    /// Books a resolved receipt into session + global metrics, records
    /// backpressure anomalies, and refreshes the idle clock. Shared by the
    /// blocking and non-blocking enqueue paths so their accounting cannot
    /// drift.
    fn settle_receipt(&self, receipt: IngestReceipt, global: &GlobalMetrics) {
        self.metrics.ingested.add(receipt.accepted);
        self.metrics.dropped.add(receipt.dropped);
        self.metrics.rejected.add(receipt.rejected);
        global.ingested.add(receipt.accepted);
        global.dropped.add(receipt.dropped);
        global.rejected.add(receipt.rejected);
        // Backpressure losses are flight-recorder anomalies: a drop or
        // rejection is exactly the "why is my trajectory missing reads?"
        // moment the recorder exists to explain.
        if let Some(rec) = global.trace.as_deref() {
            let sid = session_id(self.epc);
            let depth = self.queue_depth() as f64;
            if receipt.dropped > 0 {
                rec.record_anomaly(sid, Stage::IngestDrop, receipt.dropped as f64, depth);
            }
            if receipt.rejected > 0 {
                rec.record_anomaly(sid, Stage::IngestReject, receipt.rejected as f64, depth);
            }
        }
        if receipt.accepted > 0 {
            self.touch();
        }
    }

    /// Arms a one-shot callback fired the next time queue space frees
    /// (`take_batch`) or the session closes. If the session is already
    /// closed the callback fires immediately — the closed check happens
    /// under the waiter lock, so a waiter can never be stranded by a
    /// racing close.
    ///
    /// Callers follow an arm-then-retry protocol (arm, then attempt one
    /// more `try_enqueue`), so a drain that lands between their first
    /// failed attempt and the arm is never lost; spurious firings are
    /// harmless.
    pub(crate) fn register_drain_waiter(&self, waiter: Box<dyn Fn() + Send>) {
        let mut waiters = self.drain_waiters.lock().expect("drain waiters lock");
        if self.is_closed() {
            drop(waiters);
            waiter();
            return;
        }
        waiters.push(waiter);
    }

    /// Fires (and consumes) every armed drain waiter.
    fn fire_drain_waiters(&self) {
        let waiters = {
            let mut w = self.drain_waiters.lock().expect("drain waiters lock");
            std::mem::take(&mut *w)
        };
        for waiter in waiters {
            waiter();
        }
    }

    /// Counts reads a parked connection abandoned (closed mid-park with a
    /// stash outstanding). They never entered the queue, so — like a
    /// wire-validation refusal — they count as rejected at the ingest
    /// boundary, with `parked_discarded` attributing why.
    pub(crate) fn note_parked_discarded(&self, n: u64, global: &GlobalMetrics) {
        if n == 0 {
            return;
        }
        self.metrics.rejected.add(n);
        global.rejected.add(n);
        global.parked_discarded.add(n);
        if let Some(rec) = global.trace.as_deref() {
            rec.record_anomaly(
                session_id(self.epc),
                Stage::IngestReject,
                n as f64,
                self.queue_depth() as f64,
            );
        }
    }

    /// Takes up to `n` queued reads if `admit` approves the queue as it
    /// stands (the caller holds the `scheduled` flag), and wakes blocked
    /// producers for the freed space.
    fn take_batch(
        &self,
        n: usize,
        admit: impl FnOnce(&VecDeque<QueuedRead>) -> bool,
    ) -> Vec<QueuedRead> {
        let mut q = self.queue.lock().expect("queue lock");
        let take = if admit(&q) { n.min(q.len()) } else { 0 };
        let batch: Vec<QueuedRead> = q.drain(..take).collect();
        drop(q);
        if !batch.is_empty() {
            self.space.notify_all();
            self.fire_drain_waiters();
        }
        batch
    }

    /// Drains up to `max_reads` reads through the tracker, broadcasting
    /// events and recording latency. Returns the number processed and
    /// whether reads remain, in which case the caller (which holds the
    /// `scheduled` flag) must re-queue the session. Otherwise the flag is
    /// released under the queue lock, so an enqueue landing afterwards
    /// sees it clear and schedules the session itself.
    pub fn drain(&self, max_reads: usize, global: &GlobalMetrics) -> (usize, bool) {
        let batch = self.take_batch(max_reads, |_| true);
        if !batch.is_empty() {
            self.process(&batch, global, || self.engine.lock().expect("engine lock"));
        }
        self.finish_drain(batch.len())
    }

    /// The producer's drain, run by the thread that just won the
    /// `scheduled` flag: when the engine is free and no queued read can
    /// finish a tick ([`OnlineTracker::is_quiet`]), it applies them all
    /// here, with the same books as [`Self::drain`], and so spares a
    /// worker its wake-up and park. Otherwise it takes nothing. Returns
    /// the same pair as `drain`: when reads remain, the caller must queue
    /// the session for a worker.
    ///
    /// Locks nest engine → queue; nothing nests queue → engine.
    pub fn drain_quiet(&self, global: &GlobalMetrics) -> (usize, bool) {
        let Ok(engine) = self.engine.try_lock() else {
            return (0, true);
        };
        let batch = self.take_batch(usize::MAX, |q| {
            engine.tracker.is_quiet(q.iter().map(|qr| &qr.read))
        });
        if !batch.is_empty() {
            self.process(&batch, global, move || engine);
        }
        self.finish_drain(batch.len())
    }

    /// Ends a drain of `processed` reads: reports whether reads remain,
    /// or releases the `scheduled` flag under the queue lock.
    fn finish_drain(&self, processed: usize) -> (usize, bool) {
        let q = self.queue.lock().expect("queue lock");
        let runnable = !q.is_empty();
        if !runnable {
            self.scheduled.store(false, Ordering::Release);
        }
        (processed, runnable)
    }

    /// Runs a taken batch through the tracker, whose lock `engine` takes
    /// (see [`Self::drain`]).
    fn process<'a>(
        &'a self,
        batch: &[QueuedRead],
        global: &GlobalMetrics,
        engine: impl FnOnce() -> MutexGuard<'a, Engine>,
    ) {
        let processed = batch.len();
        let sid = session_id(self.epc);
        let recorder = global.trace.as_deref();
        // Queue wait is measured at dequeue, before any tracker work, so
        // the wait/compute split is clean.
        for qr in batch {
            let wait = qr.enqueued.elapsed();
            global.queue_wait.observe(wait);
            if let Some(rec) = recorder {
                rec.record_span(sid, Stage::QueueWait, wait.as_micros() as f64, 1.0);
            }
        }
        let mut out_events: Vec<SessionEvent> = Vec::new();
        let compute_start = Instant::now();
        {
            let mut engine = engine();
            for qr in batch {
                let events = match engine.tracker.push(qr.read) {
                    Ok(events) => events,
                    Err(err) => {
                        // A hostile or inconsistent read (NaN, out-of-order,
                        // duplicate): the tracker refused it without mutating
                        // state, so the session just counts it and moves on.
                        // It stays in `processed` for queue conservation;
                        // `invalid` attributes why it produced nothing.
                        self.metrics.invalid.inc();
                        global.invalid.inc();
                        if let Some(rec) = recorder {
                            let class = match err {
                                TrackError::NonFiniteTimestamp { .. } => 1.0,
                                TrackError::NonFinitePhase { .. } => 2.0,
                                TrackError::OutOfOrder { .. } => 3.0,
                                TrackError::DuplicateRead { .. } => 4.0,
                            };
                            rec.record_anomaly(sid, Stage::InvalidRead, qr.read.t, class);
                        }
                        continue;
                    }
                };
                let mut produced_position = false;
                for e in &events {
                    match e {
                        OnlineEvent::Acquired { candidates } => {
                            out_events.push(SessionEvent::Acquired {
                                epc: self.epc,
                                candidates: *candidates,
                            });
                        }
                        OnlineEvent::Position { t, pos } => {
                            produced_position = true;
                            self.metrics.positions.inc();
                            global.positions.inc();
                            out_events.push(SessionEvent::Position {
                                epc: self.epc,
                                t: *t,
                                pos: *pos,
                            });
                            if let Some(cursor) = engine.cursor.as_mut() {
                                for ce in cursor.update(*t, *pos) {
                                    out_events.push(SessionEvent::Cursor {
                                        epc: self.epc,
                                        event: ce,
                                    });
                                }
                            }
                        }
                        OnlineEvent::Pruned { .. } => {}
                        OnlineEvent::Degraded { missing_pairs } => {
                            self.metrics.degraded.inc();
                            global.degraded.inc();
                            out_events.push(SessionEvent::Degraded {
                                epc: self.epc,
                                missing_pairs: missing_pairs.clone(),
                            });
                        }
                        OnlineEvent::Stale { gap } => {
                            self.metrics.stale_resets.inc();
                            global.stale_resets.inc();
                            out_events.push(SessionEvent::Stale { epc: self.epc, gap: *gap });
                        }
                    }
                }
                if produced_position {
                    global.latency.observe(qr.enqueued.elapsed());
                }
            }
        }
        let compute = compute_start.elapsed();
        global.compute.observe(compute);
        if let Some(rec) = recorder {
            rec.record_span(sid, Stage::Compute, compute.as_micros() as f64, processed as f64);
        }
        self.metrics.processed.add(processed as u64);
        global.processed.add(processed as u64);
        self.broadcast(&out_events);
    }

    /// Registers a subscriber. With a `wakeup`, every batch of events sent
    /// to it is followed by one poke of that reactor.
    pub fn subscribe(&self, wakeup: Option<WakeupHandle>) -> mpsc::Receiver<SessionEvent> {
        let (tx, rx) = mpsc::channel();
        self.subscribers.lock().expect("subscribers lock").push(Subscriber { tx, wakeup });
        rx
    }

    /// Delivers a batch to every live subscriber under the subscribers
    /// lock, so it cannot straddle a [`Self::close`].
    fn broadcast(&self, events: &[SessionEvent]) {
        if !events.is_empty() {
            self.subscribers.lock().expect("subscribers lock").retain(|sub| sub.deliver(events));
        }
    }

    /// Marks the session closed: discards (and counts) anything still
    /// queued, wakes blocked producers, and notifies subscribers. Safe to
    /// call more than once; only the first call broadcasts.
    pub fn close(&self, reason: CloseReason, global: &GlobalMetrics) {
        if self.closed.swap(true, Ordering::AcqRel) {
            return;
        }
        let discarded = {
            let mut q = self.queue.lock().expect("queue lock");
            let n = q.len() as u64;
            q.clear();
            n
        };
        if discarded > 0 {
            self.metrics.dropped.add(discarded);
            global.dropped.add(discarded);
        }
        self.space.notify_all();
        // `closed` is already set, so a waiter arming concurrently either
        // lands in the vector before this take (and fires here) or sees
        // the flag and fires immediately — never stranded.
        self.fire_drain_waiters();
        // `Closed` goes out under the subscribers lock, which also empties
        // the list: a drain still in flight broadcasts to no one, so
        // `Closed` is always the last event a subscriber sees.
        let closed = [SessionEvent::Closed { epc: self.epc, reason }];
        for sub in self.subscribers.lock().expect("subscribers lock").drain(..) {
            sub.deliver(&closed);
        }
    }

    /// The session's trajectory so far (the tracker's best candidate).
    pub fn trajectory(&self) -> Vec<Point2> {
        self.engine.lock().expect("engine lock").tracker.trajectory().to_vec()
    }

    /// Live tracker state for views/telemetry.
    pub fn tracker_state(&self) -> (bool, usize, Option<Point2>) {
        let engine = self.engine.lock().expect("engine lock");
        (
            engine.tracker.is_tracking(),
            engine.tracker.alive_candidates(),
            engine.tracker.current_estimate(),
        )
    }

    /// Whether the session's tracker currently runs on a reduced pair set.
    pub fn is_degraded(&self) -> bool {
        self.engine.lock().expect("engine lock").tracker.is_degraded()
    }

    pub fn telemetry(&self) -> SessionTelemetry {
        let (tracking, degraded) = {
            let engine = self.engine.lock().expect("engine lock");
            (engine.tracker.is_tracking(), engine.tracker.is_degraded())
        };
        SessionTelemetry {
            epc: self.epc,
            reads_ingested: self.metrics.ingested.get(),
            reads_dropped: self.metrics.dropped.get(),
            reads_rejected: self.metrics.rejected.get(),
            reads_processed: self.metrics.processed.get(),
            positions: self.metrics.positions.get(),
            stale_resets: self.metrics.stale_resets.get(),
            reads_invalid: self.metrics.invalid.get(),
            degraded_events: self.metrics.degraded.get(),
            queue_depth: self.queue_depth() as u64,
            tracking,
            degraded,
        }
    }

    /// Counts a batch refused by wire-level validation before it could be
    /// enqueued: all `total` reads are rejected (they never entered the
    /// queue), `invalid` of them attributed to failing validation.
    pub(crate) fn note_invalid_ingest(&self, total: u64, invalid: u64) {
        self.metrics.rejected.add(total);
        self.metrics.invalid.add(invalid);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TrackerTemplate;
    use rfidraw_core::array::AntennaId;
    use rfidraw_core::geom::Rect;

    /// A session over the paper-default tracker.
    fn session() -> SessionShared {
        let region = Rect::new(Point2::new(0.5, 0.3), Point2::new(2.3, 1.7));
        SessionShared::new(Epc::from_index(1), TrackerTemplate::paper_default(region).build(), None)
    }

    fn read(t: f64, antenna: u8) -> PhaseRead {
        PhaseRead { t, antenna: AntennaId(antenna), phase: 0.5 }
    }

    /// Queues `reads` and takes the `scheduled` flag, as the thread that
    /// calls `drain_quiet` holds it.
    fn stage(session: &SessionShared, reads: &[PhaseRead], global: &GlobalMetrics) {
        let outcome = session.try_enqueue(reads, BackpressurePolicy::Block, 8, global);
        assert!(matches!(outcome, EnqueueOutcome::Done(r) if r.accepted == reads.len() as u64));
        assert!(!session.scheduled.swap(true, Ordering::AcqRel));
    }

    /// While another thread holds the engine, `drain_quiet` takes nothing
    /// and reports the session runnable with the flag still held, so the
    /// caller hands it to the ready queue and no wakeup is lost. Once the
    /// engine is free the same quiet reads are applied on the spot and
    /// the flag is released.
    #[test]
    fn drain_quiet_backs_off_while_the_engine_is_busy() {
        let session = session();
        let global = GlobalMetrics::new(None);
        stage(&session, &[read(0.0, 1), read(0.001, 2)], &global);

        let busy = session.engine.lock().expect("engine lock");
        assert_eq!(session.drain_quiet(&global), (0, true));
        assert_eq!(session.queue_depth(), 2, "the reads stay queued");
        assert!(session.scheduled.load(Ordering::Acquire), "the caller keeps the flag");
        assert_eq!(global.processed.get(), 0);
        drop(busy);

        assert_eq!(session.drain_quiet(&global), (2, false));
        assert_eq!(session.queue_depth(), 0);
        assert!(!session.scheduled.load(Ordering::Acquire), "released with the queue empty");
        assert_eq!(session.metrics.processed.get(), 2);
        assert_eq!(global.processed.get(), 2);
    }

    /// A queue holding one read that is not quiet (here a stale gap) is
    /// left whole for a worker, quiet reads ahead of it included.
    #[test]
    fn drain_quiet_leaves_a_queue_that_can_emit_to_a_worker() {
        let session = session();
        let global = GlobalMetrics::new(None);
        stage(&session, &[read(0.0, 1)], &global);
        assert_eq!(session.drain_quiet(&global), (1, false));

        stage(&session, &[read(0.5, 2), read(5.0, 3)], &global);
        assert_eq!(session.drain_quiet(&global), (0, true));
        assert_eq!(session.queue_depth(), 2);
        assert_eq!(session.drain(64, &global), (2, false), "a worker drains it");
        assert_eq!(session.metrics.stale_resets.get(), 1);
    }
}
