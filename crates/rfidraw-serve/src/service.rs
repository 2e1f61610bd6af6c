//! The multi-session tracking service: registry, worker pool, client
//! handle.
//!
//! [`TrackingService::start`] owns the worker threads; [`LocalClient`] is
//! the cheap, cloneable in-process handle that ingest paths, subscribers,
//! and the TCP front end ([`crate::reactor`]) all share. Sessions spin up
//! lazily — the first read (or subscription) for an unseen EPC clones the
//! service's prototype tracker, which the first session builds from the
//! configured template — and die by idle timeout, explicit close, or
//! shutdown. Clones share the prototype's vote tables, so the service
//! holds one coarse and one fine table whatever its session count.
//!
//! **Scheduling & determinism.** The enqueue that makes a session's
//! queue non-empty wins its `scheduled` flag. If none of the queued reads
//! can finish a tick, that thread applies them itself (worker mode only;
//! see `LocalClient::schedule`); otherwise it pushes the session onto
//! one service-wide FIFO ready queue and wakes one idle worker. A worker
//! drains at most `drain_batch` reads and re-queues the session at the
//! back if reads remain, so a hot tag cannot starve the rest; no worker
//! scans the sessions. The flag keeps a session queued at most once, so
//! one thread at a time drains it and its read order is exactly the
//! ingest order — multiplexing changes *scheduling*, never *results*
//! (enforced bit-for-bit by the crate's integration tests). Idle
//! eviction runs on a deadline, at most once every `idle_timeout / 4`.

use crate::config::ServeConfig;
use crate::registry::ShardedRegistry;
use crate::session::{CloseReason, IngestReceipt, SessionEvent, SessionShared};
use crate::telemetry::{GlobalMetrics, NetTelemetry, TelemetryReport};
use rfidraw_core::geom::Point2;
use rfidraw_core::obs::Stage;
use rfidraw_core::online::OnlineTracker;
use rfidraw_core::stream::PhaseRead;
use rfidraw_metrics::{TraceDump, TraceRecorder};
use rfidraw_protocol::Epc;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Errors the service surfaces to clients.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// A new session was needed but the registry is at `max_sessions`.
    SessionLimit {
        /// The configured cap.
        max: usize,
    },
    /// The service is shutting down.
    ShuttingDown,
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::SessionLimit { max } => {
                write!(f, "session registry is full ({max} sessions)")
            }
            ServeError::ShuttingDown => write!(f, "service is shutting down"),
        }
    }
}

impl std::error::Error for ServeError {}

/// A read-only view of one session's tracking state.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionView {
    /// The session's tag.
    pub epc: Epc,
    /// The best candidate's trajectory so far.
    pub trajectory: Vec<Point2>,
    /// Whether acquisition has completed.
    pub tracking: bool,
    /// Candidates still alive.
    pub alive_candidates: usize,
    /// The live estimate.
    pub current: Option<Point2>,
    /// Whether the tracker is running on a reduced antenna-pair set.
    pub degraded: bool,
}

/// The ready queue's lock-protected state.
#[derive(Default)]
struct Ready {
    /// Runnable sessions, oldest first.
    sessions: VecDeque<Arc<SessionShared>>,
    /// Workers waiting on `ServiceInner::work`; a push signals only when
    /// one is, so busy (or absent) workers cost producers no futex call.
    idle: usize,
}

/// Vote tables per tracker: one coarse, one fine.
const TABLES_PER_TRACKER: u64 = 2;

struct ServiceInner {
    cfg: ServeConfig,
    /// The tracker every session clones, built from `cfg.tracker` when the
    /// first session opens. The config cannot change after `start`, so
    /// its tables never go stale.
    prototype: OnceLock<OnlineTracker>,
    /// EPC-sharded session registry (see [`crate::registry`]): sessions
    /// are placed by EPC hash and never migrate.
    registry: ShardedRegistry,
    /// The FIFO of runnable sessions (see the module docs).
    ready: Mutex<Ready>,
    /// Idle workers wait here for a runnable session or the next sweep.
    work: Condvar,
    /// When the next idle sweep is due, and the time between sweeps.
    next_sweep: Mutex<Instant>,
    sweep_period: Duration,
    global: GlobalMetrics,
    shutdown: AtomicBool,
    /// Network front-end counter blocks registered by
    /// `ReactorServer::bind`, folded into every telemetry snapshot.
    net_sources: Mutex<Vec<Arc<rfidraw_net::ReactorStats>>>,
}

impl ServiceInner {
    fn get_or_create(&self, epc: Epc) -> Result<Arc<SessionShared>, ServeError> {
        if self.shutdown.load(Ordering::Acquire) {
            return Err(ServeError::ShuttingDown);
        }
        let built = self.registry.get_or_insert(epc, self.cfg.max_sessions, || {
            let mut tracker = self.prototype.get_or_init(|| self.cfg.tracker.build()).clone();
            // The per-session tracker emits core events (phase unwrap, lobe
            // locking, stale resets, degradation, vote flips) into the
            // shared recorder, tagged with the session id; the recorder
            // has no other source of the tracker's anomalies.
            if let Some(rec) = &self.global.trace {
                let sink: rfidraw_core::obs::SharedSink = Arc::clone(rec) as _;
                tracker.set_trace_sink(Some(sink), crate::session::session_id(epc));
            }
            Arc::new(SessionShared::new(epc, tracker))
        });
        match built {
            Ok((session, inserted)) => {
                if inserted {
                    self.global.sessions_opened.inc();
                }
                Ok(session)
            }
            Err(crate::registry::RegistryFull) => {
                self.global.sessions_rejected.inc();
                Err(ServeError::SessionLimit { max: self.cfg.max_sessions })
            }
        }
    }

    /// Appends a session whose `scheduled` flag the caller holds, waking
    /// one idle worker if there is one.
    fn push_ready(&self, session: Arc<SessionShared>) {
        let mut ready = self.ready.lock().expect("ready lock");
        ready.sessions.push_back(session);
        let wake = ready.idle > 0;
        drop(ready);
        if wake {
            self.work.notify_one();
        }
    }

    /// Drains one dequeued session by at most `drain_batch` reads and puts
    /// it back at the end of the queue if reads remain. Returns reads
    /// processed.
    fn run(&self, session: Arc<SessionShared>) -> usize {
        let (processed, runnable) = session.drain(self.cfg.drain_batch, &self.global);
        self.registry.note_drain(session.epc, processed);
        if runnable {
            self.push_ready(session);
        }
        processed
    }

    /// Runs every session that is runnable now once; returns reads
    /// processed. Sessions re-queued by their drain wait for the next call.
    fn run_ready(&self) -> usize {
        let runnable = std::mem::take(&mut self.ready.lock().expect("ready lock").sessions);
        runnable.into_iter().map(|s| self.run(s)).sum()
    }

    /// Evicts sessions whose last ingest is older than the idle timeout,
    /// if the sweep deadline has passed; returns the time to the next one.
    fn sweep_if_due(&self) -> Duration {
        let now = Instant::now();
        let mut next = self.next_sweep.lock().expect("sweep lock");
        if now < *next {
            return *next - now;
        }
        *next = now + self.sweep_period;
        drop(next);
        // Count before the close announces it: a subscriber that sees
        // `Closed` may ask for telemetry at once.
        for s in self.registry.take_idle(self.cfg.idle_timeout) {
            self.global.sessions_evicted.inc();
            s.close(CloseReason::Idle, &self.global);
        }
        self.sweep_period
    }

    /// Wire-boundary refusal accounting: a batch of `total` reads was
    /// refused before enqueue because `invalid` of them failed validation.
    /// Counts globally always; per-session only when the target session
    /// already exists — a hostile batch must not create one.
    fn note_invalid_ingest(&self, epc: Epc, total: u64, invalid: u64) {
        self.global.rejected.add(total);
        self.global.invalid.add(invalid);
        if let Some(s) = self.registry.get(epc) {
            s.note_invalid_ingest(total, invalid);
        }
        if let Some(rec) = self.global.trace.as_deref() {
            rec.record_anomaly(
                crate::session::session_id(epc),
                Stage::InvalidRead,
                total as f64,
                invalid as f64,
            );
        }
    }

    fn telemetry(&self) -> TelemetryReport {
        let sessions: Vec<Arc<SessionShared>> = self.registry.snapshot_sorted();
        let opened = self.global.sessions_opened.get();
        let prototype = self.prototype.get();
        let net = {
            let sources = self.net_sources.lock().expect("net sources lock");
            let mut net = NetTelemetry::default();
            for s in sources.iter() {
                net.absorb(s);
            }
            net
        };
        TelemetryReport {
            active_sessions: sessions.len() as u64,
            sessions_opened: opened,
            sessions_evicted: self.global.sessions_evicted.get(),
            sessions_closed: self.global.sessions_closed.get(),
            sessions_rejected: self.global.sessions_rejected.get(),
            reads_ingested: self.global.ingested.get(),
            reads_dropped: self.global.dropped.get(),
            reads_rejected: self.global.rejected.get(),
            reads_invalid: self.global.invalid.get(),
            reads_processed: self.global.processed.get(),
            reads_inline: self.global.inline.get(),
            positions: self.global.positions.get(),
            stale_resets: self.global.stale_resets.get(),
            degraded_events: self.global.degraded.get(),
            parked_reads: self.global.parked_reads.get(),
            readmissions: self.global.readmissions.get(),
            parked_rejected: self.global.parked_rejected.get(),
            parked_discarded: self.global.parked_discarded.get(),
            // The first session built the prototype's tables; every later
            // session's clone shares them.
            table_cache_hits: TABLES_PER_TRACKER * opened.saturating_sub(1),
            table_cache_misses: prototype.map_or(0, |_| TABLES_PER_TRACKER),
            table_cache_bytes: prototype.map_or(0, |p| p.positioner().table_bytes()),
            latency: self.global.latency.snapshot(),
            queue_wait: self.global.queue_wait.snapshot(),
            compute: self.global.compute.snapshot(),
            stages: self
                .global
                .trace
                .as_ref()
                .map(|r| r.stage_latencies())
                .unwrap_or_default(),
            net,
            shards: self.registry.telemetry(),
            sessions: sessions.iter().map(|s| s.telemetry()).collect(),
        }
    }
}

/// The cloneable in-process client handle.
///
/// Cloning shares the same service; handles stay valid for the service's
/// lifetime (calls after shutdown return [`ServeError::ShuttingDown`] /
/// rejected reads).
#[derive(Clone)]
pub struct LocalClient {
    inner: Arc<ServiceInner>,
}

impl LocalClient {
    /// Routes a batch of reads into `epc`'s session (created lazily).
    /// Admission is lossless: while the session's queue is full this
    /// waits for room, and with no worker threads it runs the ready queue
    /// itself first, as [`TrackingService::quiesce`] does. Only a session
    /// that closes meanwhile refuses reads.
    ///
    /// Reads for one tag must be ingested in time order (the order an
    /// inventory produces them); batches from concurrent producers for
    /// *different* tags interleave freely.
    pub fn ingest(&self, epc: Epc, reads: &[PhaseRead]) -> Result<IngestReceipt, ServeError> {
        let inner = &self.inner;
        let session = inner.get_or_create(epc)?;
        let receipt = session.enqueue(reads, inner.cfg.queue_capacity, &inner.global, || {
            self.schedule(&session);
            if inner.cfg.workers.is_none() {
                inner.run_ready();
            }
        });
        if receipt.accepted > 0 {
            self.schedule(&session);
        }
        Ok(receipt)
    }

    /// Subscribes to a session's event stream (created lazily). Events
    /// arrive in processing order; a [`SessionEvent::Closed`] is always
    /// last.
    pub fn subscribe(&self, epc: Epc) -> Result<mpsc::Receiver<SessionEvent>, ServeError> {
        Ok(self.inner.get_or_create(epc)?.subscribe(None))
    }

    /// Closes a session explicitly; returns whether it existed. Anything
    /// still queued is discarded and counted as dropped.
    pub fn close_session(&self, epc: Epc) -> bool {
        match self.inner.registry.remove(epc) {
            Some(s) => {
                self.inner.global.sessions_closed.inc();
                s.close(CloseReason::Explicit, &self.inner.global);
                true
            }
            None => false,
        }
    }

    /// A snapshot of one session's tracking state.
    pub fn session_view(&self, epc: Epc) -> Option<SessionView> {
        let session = self.inner.registry.get(epc)?;
        let trajectory = session.trajectory();
        let (tracking, alive_candidates, current) = session.tracker_state();
        let degraded = session.is_degraded();
        Some(SessionView { epc, trajectory, tracking, alive_candidates, current, degraded })
    }

    /// The EPCs of all live sessions, in order.
    pub fn active_sessions(&self) -> Vec<Epc> {
        self.inner.registry.snapshot_sorted().iter().map(|s| s.epc).collect()
    }

    /// A serializable snapshot of all counters and the latency histogram.
    pub fn telemetry(&self) -> TelemetryReport {
        self.inner.telemetry()
    }

    /// The shared pipeline trace recorder, when configured.
    pub fn trace_recorder(&self) -> Option<Arc<TraceRecorder>> {
        self.inner.global.trace.clone()
    }

    /// Flight-recorder dumps captured so far (empty without a recorder).
    pub fn trace_dumps(&self) -> Vec<TraceDump> {
        self.inner.global.trace.as_ref().map(|r| r.dumps()).unwrap_or_default()
    }

    /// The full telemetry report rendered in Prometheus text format.
    pub fn prometheus(&self) -> String {
        self.inner.telemetry().to_prometheus()
    }

    /// Resolves (creating lazily) a session. The reactor front end splits
    /// session lookup from admission so it can hold the session across
    /// park/retry cycles, and subscribes with its own wakeup handle.
    pub(crate) fn session(&self, epc: Epc) -> Result<Arc<SessionShared>, ServeError> {
        self.inner.get_or_create(epc)
    }

    /// The shared global counter block (non-blocking ingest paths book
    /// their own accounting through it).
    pub(crate) fn metrics(&self) -> &GlobalMetrics {
        &self.inner.global
    }

    /// Every session queue's capacity, for non-blocking admission.
    pub(crate) fn queue_capacity(&self) -> usize {
        self.inner.cfg.queue_capacity
    }

    /// Makes a session runnable after an enqueue: the caller that wins
    /// its `scheduled` flag appends it to the ready queue. With worker
    /// threads it first applies the queued reads itself if none can
    /// finish a tick ([`SessionShared::drain_quiet`]), which spares a
    /// worker's wake-up and park; manual `pump` mode keeps every read
    /// queued, since its callers stage queues before they pump. The
    /// reactor's non-blocking admission calls this too.
    pub(crate) fn schedule(&self, session: &Arc<SessionShared>) {
        if session.scheduled.swap(true, Ordering::AcqRel) {
            return;
        }
        if self.inner.cfg.workers.is_some() {
            let (inline, runnable) = session.drain_quiet(&self.inner.global);
            if inline > 0 {
                self.inner.global.inline.add(inline as u64);
                self.inner.registry.note_inline(session.epc, inline);
            }
            if !runnable {
                return;
            }
        }
        self.inner.push_ready(Arc::clone(session));
    }

    /// Records a wire-validation refusal without touching the session
    /// registry (hostile batches never create sessions).
    pub(crate) fn note_invalid_ingest(&self, epc: Epc, total: u64, invalid: u64) {
        self.inner.note_invalid_ingest(epc, total, invalid);
    }

    /// Registers a network front end's counter block so every telemetry
    /// snapshot includes its connection/frame accounting.
    pub(crate) fn register_net_stats(&self, stats: Arc<rfidraw_net::ReactorStats>) {
        self.inner.net_sources.lock().expect("net sources lock").push(stats);
    }
}

/// The service: owns the registry and the worker pool.
pub struct TrackingService {
    inner: Arc<ServiceInner>,
    workers: Vec<JoinHandle<()>>,
}

impl TrackingService {
    /// Starts the service. With `cfg.workers = Some(p)` this spawns
    /// `p.thread_count()` draining threads; with `None` the owner drives
    /// processing via [`TrackingService::pump`].
    ///
    /// # Panics
    /// Panics on a zero queue capacity, zero drain batch, or zero session
    /// cap.
    pub fn start(cfg: ServeConfig) -> Self {
        assert!(cfg.queue_capacity > 0, "queue capacity must be positive");
        assert!(cfg.drain_batch > 0, "drain batch must be positive");
        assert!(cfg.max_sessions > 0, "session cap must be positive");
        let worker_count = cfg.workers.map(|p| p.thread_count()).unwrap_or(0);
        let recorder = cfg.observability.as_ref().map(|s| Arc::new(TraceRecorder::new(s.clone())));
        let registry = ShardedRegistry::new();
        // A quarter of the idle timeout, so a session is evicted at most a
        // quarter late (floored at 1 ms, capped at a day).
        let sweep_period =
            (cfg.idle_timeout / 4).clamp(Duration::from_millis(1), Duration::from_secs(86_400));
        let inner = Arc::new(ServiceInner {
            cfg,
            prototype: OnceLock::new(),
            registry,
            ready: Mutex::new(Ready::default()),
            work: Condvar::new(),
            next_sweep: Mutex::new(Instant::now() + sweep_period),
            sweep_period,
            global: GlobalMetrics::new(recorder),
            shutdown: AtomicBool::new(false),
            net_sources: Mutex::new(Vec::new()),
        });
        let workers = (0..worker_count)
            .map(|i| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("rfidraw-serve-worker-{i}"))
                    .spawn(move || worker_loop(&inner))
                    .expect("spawn worker")
            })
            .collect();
        Self { inner, workers }
    }

    /// A client handle (cheap to clone, freely shareable across threads).
    pub fn client(&self) -> LocalClient {
        LocalClient { inner: Arc::clone(&self.inner) }
    }

    /// Drains once each session that was runnable when it was called (at
    /// most `drain_batch` reads each), then sweeps idle sessions if due;
    /// returns the number of reads processed. This is the processing
    /// engine in manual mode (`workers: None`) and is also safe alongside
    /// worker threads (a session is queued at most once, so one caller
    /// drains it).
    pub fn pump(&self) -> usize {
        let n = self.inner.run_ready();
        self.inner.sweep_if_due();
        n
    }

    /// Blocks until every queue is empty and no worker is mid-batch. In
    /// manual mode this pumps on the calling thread.
    pub fn quiesce(&self) {
        loop {
            if self.workers.is_empty() {
                while self.inner.run_ready() > 0 {}
            }
            let busy = self
                .inner
                .registry
                .snapshot()
                .iter()
                .any(|s| s.queue_depth() > 0 || s.scheduled.load(Ordering::Acquire));
            if !busy {
                return;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// A serializable snapshot of all counters and the latency histogram.
    pub fn telemetry(&self) -> TelemetryReport {
        self.inner.telemetry()
    }
}

impl Drop for TrackingService {
    fn drop(&mut self) {
        self.inner.shutdown.store(true, Ordering::Release);
        // Under the ready lock, which workers hold from the flag check to
        // their wait, so none misses the wakeup.
        let ready = self.inner.ready.lock().expect("ready lock");
        self.inner.work.notify_all();
        drop(ready);
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
        // Close every remaining session: unblocks producers, tells
        // subscribers the stream is over.
        for s in self.inner.registry.drain_all() {
            self.inner.global.sessions_closed.inc();
            s.close(CloseReason::Shutdown, &self.inner.global);
        }
    }
}

/// Pops runnable sessions and drains them; with none, waits until one is
/// pushed or the idle sweep falls due.
fn worker_loop(inner: &ServiceInner) {
    loop {
        let until_sweep = inner.sweep_if_due();
        let mut ready = inner.ready.lock().expect("ready lock");
        let session = loop {
            if inner.shutdown.load(Ordering::Acquire) {
                return;
            }
            if let Some(session) = ready.sessions.pop_front() {
                break Some(session);
            }
            ready.idle += 1;
            let (guard, wait) = inner.work.wait_timeout(ready, until_sweep).expect("ready lock");
            ready = guard;
            ready.idle -= 1;
            if wait.timed_out() {
                break None;
            }
        };
        drop(ready);
        if let Some(session) = session {
            inner.run(session);
        }
    }
}
