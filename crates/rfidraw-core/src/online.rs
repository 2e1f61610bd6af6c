//! Real-time (streaming) tracking.
//!
//! The paper's prototype "ran [the algorithms] in real-time" (§6): reads
//! arrive one by one from the readers, and the system must maintain a live
//! position estimate. [`OnlineTracker`] is that incremental pipeline:
//!
//! 1. **warm-up** — per-antenna phases are unwrapped incrementally; a
//!    snapshot is emitted whenever every needed antenna brackets the next
//!    tick;
//! 2. **acquisition** — the first snapshot runs multi-resolution
//!    positioning; each candidate seeds a lobe-locked trace;
//! 3. **tracking** — every new snapshot advances all candidate traces one
//!    tick; the best-cumulative-vote candidate provides the live estimate,
//!    and hopeless candidates are pruned to bound the per-tick cost.
//!
//! The offline batch pipeline (`SnapshotBuilder` + `MultiResPositioner` +
//! `TrajectoryTracer::trace_candidates`) remains the reference; this module
//! reuses the same tracer via its incremental API, so both paths share the
//! vote arithmetic.

use crate::array::{AntennaId, AntennaPair, Deployment};
use crate::geom::{Plane, Point2};
use crate::obs::{self, SharedSink, Stage, TraceKind};
use crate::phase::{unwrap_step, wrap_pi, wrap_tau};
use crate::position::{MultiResConfig, MultiResPositioner};
use crate::stream::{PairSnapshot, PhaseRead};
use crate::trace::{TraceConfig, TrajectoryTracer};
use crate::vote::PairMeasurement;
use std::collections::BTreeMap;
use std::f64::consts::TAU;

/// Online-tracker tuning.
#[derive(Debug, Clone, PartialEq)]
pub struct OnlineConfig {
    /// Snapshot period (s).
    pub tick: f64,
    /// Candidates whose cumulative vote falls behind the best by more than
    /// this many turns² are dropped (the over-constrained system's
    /// incoherence signal, §5.2). `f64::INFINITY` disables pruning.
    pub prune_margin: f64,
    /// Ticks to wait before pruning starts (votes need time to separate).
    pub prune_after: usize,
    /// If the stream goes silent for longer than this (s), the incremental
    /// phase unwrap is no longer trustworthy: the tracker declares itself
    /// stale, resets, and re-acquires from the reads that follow (emitting
    /// [`OnlineEvent::Stale`] then a fresh [`OnlineEvent::Acquired`]).
    /// `None` disables the check.
    pub max_read_gap: Option<f64>,
    /// If one antenna goes silent for longer than this (s) while the rest
    /// of the stream keeps flowing, that antenna is *dropped*: its pairs
    /// stop voting and the tracker keeps positioning on the surviving pair
    /// subset (the §5.1 over-constrained redundancy), emitting
    /// [`OnlineEvent::Degraded`] on every change of the missing-pair set.
    /// `None` disables per-antenna dropout: a silent antenna then stalls
    /// tick emission, exactly the pre-degradation behavior.
    pub dropout_after: Option<f64>,
    /// Hysteresis before a dropped antenna is re-admitted (s): its reads
    /// must span at least this long without an internal gap exceeding
    /// [`OnlineConfig::dropout_after`]. Guards against a flapping antenna
    /// oscillating the pair set (and thrashing lobe re-locks) every read.
    pub readmit_after: f64,
}

/// How many distinct antennas one [`OnlineTracker::is_quiet`] call
/// follows; a batch touching more is judged not quiet.
const QUIET_ANTENNAS: usize = 16;

impl Default for OnlineConfig {
    fn default() -> Self {
        Self {
            tick: 0.04,
            prune_margin: 0.5,
            prune_after: 25,
            max_read_gap: None,
            dropout_after: None,
            readmit_after: 0.2,
        }
    }
}

/// A read the tracker refused. The read is rejected *before* any state
/// mutation, so a rejected read is simply absent: the tracker continues
/// exactly as if it had never arrived.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TrackError {
    /// The read's timestamp is NaN or infinite.
    NonFiniteTimestamp {
        /// The reporting antenna.
        antenna: AntennaId,
        /// The offending timestamp.
        t: f64,
    },
    /// The read's phase is NaN or infinite.
    NonFinitePhase {
        /// The reporting antenna.
        antenna: AntennaId,
        /// The read's (finite) timestamp.
        t: f64,
    },
    /// The read is older than the newest accepted read of the same antenna
    /// — feeding it would corrupt the incremental unwrap.
    OutOfOrder {
        /// The reporting antenna.
        antenna: AntennaId,
        /// The offending timestamp.
        t: f64,
        /// The antenna's newest accepted timestamp.
        newest: f64,
    },
    /// The read duplicates an already-accepted `(antenna, timestamp)` slot;
    /// the first read keeps its claim (keep-first dedupe).
    DuplicateRead {
        /// The reporting antenna.
        antenna: AntennaId,
        /// The duplicated timestamp.
        t: f64,
    },
}

impl std::fmt::Display for TrackError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TrackError::NonFiniteTimestamp { antenna, t } => {
                write!(f, "antenna {antenna:?} reported a non-finite timestamp ({t})")
            }
            TrackError::NonFinitePhase { antenna, t } => {
                write!(f, "antenna {antenna:?} reported a non-finite phase at t={t}")
            }
            TrackError::OutOfOrder { antenna, t, newest } => write!(
                f,
                "antenna {antenna:?} read at t={t} arrived after its newer read at t={newest}"
            ),
            TrackError::DuplicateRead { antenna, t } => {
                write!(f, "antenna {antenna:?} already has a read at t={t} (keep-first)")
            }
        }
    }
}

impl std::error::Error for TrackError {}

/// Events produced by feeding reads to the tracker.
#[derive(Debug, Clone, PartialEq)]
pub enum OnlineEvent {
    /// Acquisition finished with this many candidate starting positions.
    Acquired {
        /// Number of candidates the positioner proposed.
        candidates: usize,
    },
    /// A new live position estimate (the best candidate's newest point).
    Position {
        /// Tick timestamp (s).
        t: f64,
        /// Estimated position.
        pos: Point2,
    },
    /// A candidate was pruned; `remaining` are still alive.
    Pruned {
        /// Candidates still alive.
        remaining: usize,
    },
    /// The read stream went silent longer than
    /// [`OnlineConfig::max_read_gap`]; all tracking state was reset and
    /// acquisition restarts with the read that triggered this event.
    Stale {
        /// The observed gap (s).
        gap: f64,
    },
    /// The set of antenna pairs excluded from voting changed: an antenna
    /// went silent past [`OnlineConfig::dropout_after`] (pairs added) or a
    /// returning antenna survived re-admission hysteresis (pairs removed).
    /// Positioning continues on the surviving pairs — the §5.1
    /// over-constrained vote tolerates missing equations.
    Degraded {
        /// Pairs currently excluded because an endpoint antenna is
        /// dropped; empty means the tracker is whole again.
        missing_pairs: Vec<AntennaPair>,
    },
}

#[derive(Debug, Clone)]
struct AntennaState {
    prev: Option<(f64, f64)>,
    last: Option<(f64, f64)>,
    /// Newest accepted read time. Unlike `prev`/`last` this survives a
    /// dropout (which clears the unwrap history): it is the monotonicity
    /// baseline, so a late read from a dropped antenna is still rejected.
    newest_t: Option<f64>,
    /// Whether the antenna is currently excluded from the pair set.
    dropped: bool,
    /// Start of the re-admission probation window (first read after the
    /// outage). `None` until the dropped antenna is heard from again.
    probation_since: Option<f64>,
}

#[derive(Debug, Clone)]
struct CandidateTrace {
    locked: Vec<(AntennaPair, i64)>,
    points: Vec<Point2>,
    cumulative_vote: f64,
    alive: bool,
}

/// The streaming tracker.
#[derive(Debug, Clone)]
pub struct OnlineTracker {
    cfg: OnlineConfig,
    positioner: MultiResPositioner,
    tracer: TrajectoryTracer,
    pairs: Vec<AntennaPair>,
    wide_pairs: Vec<AntennaPair>,
    antennas: Vec<AntennaId>,
    states: BTreeMap<AntennaId, AntennaState>,
    next_tick: Option<f64>,
    traces: Vec<CandidateTrace>,
    ticks_done: usize,
    last_read_t: Option<f64>,
    first_read_t: Option<f64>,
    /// Where this tracker's events go, tagged with `session`; `None` (the
    /// default) makes every emit site one branch (see [`crate::obs`]).
    sink: Option<SharedSink>,
    session: u64,
    /// Best candidate after the previous tick, for vote-flip detection.
    /// Kept only while a sink is installed.
    last_best: Option<usize>,
    /// Whether acquisition has ever completed — distinguishes the first
    /// lobe lock from a re-lock after a stale reset.
    had_acquired: bool,
}

impl OnlineTracker {
    /// Creates a tracker. Acquisition and tracing run on the calling
    /// thread; trackers of different tags run side by side on a serving
    /// layer's workers.
    ///
    /// # Panics
    /// Panics on invalid configs (see [`MultiResPositioner::new`] and
    /// [`TrajectoryTracer::new`]) or a non-positive tick.
    pub fn new(
        dep: Deployment,
        plane: Plane,
        position_cfg: MultiResConfig,
        trace_cfg: TraceConfig,
        cfg: OnlineConfig,
    ) -> Self {
        assert!(cfg.tick.is_finite() && cfg.tick > 0.0, "tick must be positive");
        let pairs: Vec<AntennaPair> = dep.all_pairs().copied().collect();
        let wide_pairs: Vec<AntennaPair> = dep.wide_pairs().to_vec();
        let mut antennas: Vec<AntennaId> = pairs.iter().flat_map(|p| [p.i, p.j]).collect();
        antennas.sort();
        antennas.dedup();
        let states = antennas
            .iter()
            .map(|&a| {
                (
                    a,
                    AntennaState {
                        prev: None,
                        last: None,
                        newest_t: None,
                        dropped: false,
                        probation_since: None,
                    },
                )
            })
            .collect();
        let positioner = MultiResPositioner::new(dep.clone(), plane, position_cfg);
        let tracer = TrajectoryTracer::new(dep, plane, trace_cfg);
        Self {
            cfg,
            positioner,
            tracer,
            pairs,
            wide_pairs,
            antennas,
            states,
            next_tick: None,
            traces: Vec::new(),
            ticks_done: 0,
            last_read_t: None,
            first_read_t: None,
            sink: None,
            session: 0,
            last_best: None,
            had_acquired: false,
        }
    }

    /// Installs a trace sink on the tracker and everything it drives (the
    /// positioner, its engines, and the tracer), tagging all events with
    /// `session`. Observability only — tracked positions are bit-identical
    /// with or without a sink (see [`crate::obs`]).
    pub fn set_trace_sink(&mut self, sink: Option<SharedSink>, session: u64) {
        self.positioner.set_trace_sink(sink.clone(), session);
        self.tracer.set_trace_sink(sink.clone(), session);
        self.sink = sink;
        self.session = session;
        // Untracked while no sink was installed; the next tick sets it.
        self.last_best = None;
    }

    /// Drops all tracking state — per-antenna unwrap history, the tick
    /// clock, every candidate trace — returning the tracker to warm-up as
    /// if freshly constructed. The next reads re-acquire from scratch.
    ///
    /// This is the lifecycle hook a serving layer needs: a session that
    /// went silent past its unwrap horizon cannot trust incremental state,
    /// so it resets instead of being torn down and rebuilt (keeping the
    /// positioner's precomputed tables warm).
    pub fn reset(&mut self) {
        for s in self.states.values_mut() {
            s.prev = None;
            s.last = None;
            s.newest_t = None;
            s.dropped = false;
            s.probation_since = None;
        }
        self.next_tick = None;
        self.traces.clear();
        self.ticks_done = 0;
        self.last_read_t = None;
        self.first_read_t = None;
        // A best-candidate change across a reset is re-acquisition, not a
        // vote flip.
        self.last_best = None;
    }

    /// The acquisition positioner. Clones of a tracker share its vote
    /// tables (see [`MultiResPositioner::prebuild_tables`]).
    pub fn positioner(&self) -> &MultiResPositioner {
        &self.positioner
    }

    /// The timestamp of the newest read the tracker has accepted, if any.
    pub fn last_read_time(&self) -> Option<f64> {
        self.last_read_t
    }

    /// Whether a read arriving at `t` would exceed
    /// [`OnlineConfig::max_read_gap`] and trigger a stale reset.
    pub fn would_be_stale(&self, t: f64) -> bool {
        match (self.cfg.max_read_gap, self.last_read_t) {
            (Some(limit), Some(last)) => t - last > limit,
            _ => false,
        }
    }

    /// Whether pushing `reads` in order would only buffer them: no stale
    /// reset, no dropout bookkeeping, no end of warm-up and no completed
    /// tick, hence no event and no change to the trajectory or the
    /// estimate. Reads [`push`](Self::push) would refuse (non-finite,
    /// duplicate, out of order) and reads from unknown antennas count as
    /// quiet. Never mutates the tracker.
    ///
    /// Conservative: `false` only means the check cannot rule an event
    /// out. It is always `false` while [`OnlineConfig::dropout_after`] is
    /// set, and for a batch that touches more than 16 distinct antennas.
    /// A serving layer uses it to pick the thread that applies reads; the
    /// reads still go through `push` in order, so no result depends on it.
    pub fn is_quiet<'a>(&self, reads: impl IntoIterator<Item = &'a PhaseRead>) -> bool {
        if self.cfg.dropout_after.is_some() {
            return false;
        }
        // The batch's accepted reads so far, per antenna: (antenna,
        // newest t, count). With dropout off no antenna is ever dropped,
        // so every antenna gates warm-up and every tick.
        let mut touched = [(AntennaId(0), 0.0, 0u32); QUIET_ANTENNAS];
        let mut n_touched = 0;
        let mut last_read_t = self.last_read_t;
        for read in reads {
            let Some(state) = self.states.get(&read.antenna) else {
                continue;
            };
            if !read.t.is_finite() || !read.phase.is_finite() {
                continue;
            }
            let slot = touched[..n_touched].iter().position(|e| e.0 == read.antenna);
            let newest = slot.map(|i| touched[i].1).or(state.newest_t);
            if newest.is_some_and(|n| read.t <= n) {
                continue;
            }
            if let (Some(limit), Some(last)) = (self.cfg.max_read_gap, last_read_t) {
                if read.t - last > limit {
                    return false;
                }
            }
            last_read_t = Some(last_read_t.map_or(read.t, |last| last.max(read.t)));
            let i = match slot {
                Some(i) => i,
                None if n_touched < QUIET_ANTENNAS => {
                    touched[n_touched] = (read.antenna, read.t, 0);
                    n_touched += 1;
                    n_touched - 1
                }
                None => return false,
            };
            touched[i].1 = read.t;
            touched[i].2 += 1;
            let seen = |ant: AntennaId| touched[..n_touched].iter().find(|e| e.0 == ant);
            let completes = match self.next_tick {
                // Warm-up ends once every antenna holds two samples.
                None => self.states.iter().all(|(&ant, s)| {
                    let held = u32::from(s.prev.is_some()) + u32::from(s.last.is_some());
                    held + seen(ant).map_or(0, |e| e.2) >= 2
                }),
                // The tick is due once every antenna has read at or past it.
                Some(tick_t) => {
                    read.t >= tick_t
                        && self.states.iter().all(|(&ant, s)| {
                            let last = seen(ant).map(|e| e.1).or(s.last.map(|(t, _)| t));
                            last.is_some_and(|t| t >= tick_t)
                        })
                }
            };
            if completes {
                return false;
            }
        }
        true
    }

    /// Whether acquisition has completed.
    pub fn is_tracking(&self) -> bool {
        !self.traces.is_empty()
    }

    /// The best candidate's trajectory so far (empty before acquisition).
    pub fn trajectory(&self) -> &[Point2] {
        match self.best_index() {
            Some(i) => &self.traces[i].points,
            None => &[],
        }
    }

    /// The live position estimate.
    pub fn current_estimate(&self) -> Option<Point2> {
        self.best_index()
            .and_then(|i| self.traces[i].points.last().copied())
    }

    /// Number of still-alive candidates.
    pub fn alive_candidates(&self) -> usize {
        self.traces.iter().filter(|t| t.alive).count()
    }

    /// Pairs currently excluded from voting because an endpoint antenna is
    /// dropped. Empty when the tracker is whole.
    pub fn missing_pairs(&self) -> Vec<AntennaPair> {
        self.pairs
            .iter()
            .copied()
            .filter(|p| self.is_dropped(p.i) || self.is_dropped(p.j))
            .collect()
    }

    /// Whether any antenna is currently dropped (see
    /// [`OnlineConfig::dropout_after`]).
    pub fn is_degraded(&self) -> bool {
        self.states.values().any(|s| s.dropped)
    }

    fn is_dropped(&self, ant: AntennaId) -> bool {
        self.states.get(&ant).is_some_and(|s| s.dropped)
    }

    fn best_index(&self) -> Option<usize> {
        self.traces
            .iter()
            .enumerate()
            .filter(|(_, t)| t.alive)
            .max_by(|a, b| a.1.cumulative_vote.total_cmp(&b.1.cumulative_vote))
            .map(|(i, _)| i)
    }

    /// Feeds one read; returns whatever events it triggered, or a
    /// [`TrackError`] describing why the read was refused.
    ///
    /// Reads must be fed in non-decreasing time order per antenna (the
    /// order a reader produces them); a read that is non-finite, older than
    /// the same antenna's newest accepted read, or a duplicate of it is
    /// rejected *before any state mutation* — the tracker continues exactly
    /// as if the read had never arrived, so callers may count the error and
    /// keep feeding. Unknown antennas are ignored (`Ok` with no events).
    pub fn push(&mut self, read: PhaseRead) -> Result<Vec<OnlineEvent>, TrackError> {
        let Some(probe) = self.states.get(&read.antenna) else {
            return Ok(Vec::new());
        };
        if !read.t.is_finite() {
            return Err(TrackError::NonFiniteTimestamp {
                antenna: read.antenna,
                t: read.t,
            });
        }
        if !read.phase.is_finite() {
            return Err(TrackError::NonFinitePhase {
                antenna: read.antenna,
                t: read.t,
            });
        }
        if let Some(newest) = probe.newest_t {
            if read.t == newest {
                return Err(TrackError::DuplicateRead {
                    antenna: read.antenna,
                    t: read.t,
                });
            }
            if read.t < newest {
                return Err(TrackError::OutOfOrder {
                    antenna: read.antenna,
                    t: read.t,
                    newest,
                });
            }
        }

        let mut events = Vec::new();
        if let Some(last) = self.last_read_t {
            if self.would_be_stale(read.t) {
                let gap = read.t - last;
                let was_degraded = self.is_degraded();
                self.reset();
                obs::emit(
                    self.sink.as_ref(),
                    self.session,
                    Stage::StaleReset,
                    TraceKind::Anomaly,
                    gap,
                    read.t,
                );
                events.push(OnlineEvent::Stale { gap });
                if was_degraded {
                    // The reset re-admitted every antenna; close out the
                    // degradation episode for subscribers.
                    obs::emit(
                        self.sink.as_ref(),
                        self.session,
                        Stage::Degraded,
                        TraceKind::Anomaly,
                        0.0,
                        read.t,
                    );
                    events.push(OnlineEvent::Degraded {
                        missing_pairs: Vec::new(),
                    });
                }
            }
        }
        self.last_read_t = Some(match self.last_read_t {
            Some(last) => last.max(read.t),
            None => read.t,
        });
        if self.first_read_t.is_none() {
            self.first_read_t = Some(read.t);
        }

        // A gap inside a dropped antenna's own read stream invalidates the
        // unwrap it has rebuilt so far: restart probation from this read.
        if let Some(limit) = self.cfg.dropout_after {
            if let Some(s) = self.states.get_mut(&read.antenna) {
                if s.dropped {
                    if let Some(newest) = s.newest_t {
                        if read.t - newest > limit {
                            s.prev = None;
                            s.last = None;
                            s.probation_since = None;
                        }
                    }
                }
            }
        }

        if let Some(state) = self.states.get_mut(&read.antenna) {
            let unwrapped = match state.last {
                None => wrap_tau(read.phase),
                Some((_, prev_phase)) => unwrap_step(prev_phase, read.phase),
            };
            // An unwrap step near ±π is at the ambiguity horizon: one more
            // radian of motion between reads and the unwrap would pick the
            // wrong branch. Worth surfacing before it corrupts the trace.
            if self.sink.is_some() {
                if let Some((_, prev_phase)) = state.last {
                    let step = (unwrapped - prev_phase).abs();
                    if step > 0.9 * std::f64::consts::PI {
                        obs::emit(
                            self.sink.as_ref(),
                            self.session,
                            Stage::UnwrapHorizon,
                            TraceKind::Instant,
                            step,
                            read.antenna.0 as f64,
                        );
                    }
                }
            }
            state.prev = state.last;
            state.last = Some((read.t, unwrapped));
            state.newest_t = Some(read.t);
        }

        // Dropout sweep + re-admission hysteresis (inert unless enabled).
        if self.cfg.dropout_after.is_some() {
            if let Some(e) = self.update_degradation(&read) {
                events.push(e);
            }
        }

        // Initialize the tick clock once every active antenna has two
        // samples (a dropped antenna must not gate the survivors).
        if self.next_tick.is_none() {
            let mut t0 = f64::NEG_INFINITY;
            let mut any_active = false;
            let mut warmed_up = true;
            for s in self.states.values().filter(|s| !s.dropped) {
                any_active = true;
                match s.prev {
                    Some((t, _)) if s.last.is_some() => t0 = t0.max(t),
                    _ => {
                        warmed_up = false;
                        break;
                    }
                }
            }
            if any_active && warmed_up {
                self.next_tick = Some(t0);
            }
        }

        // Emit every tick all active antennas can bracket.
        while let Some(tick_t) = self.next_tick {
            let mut any_active = false;
            let mut ready = true;
            for s in self.states.values().filter(|s| !s.dropped) {
                any_active = true;
                if !matches!(s.last, Some((t, _)) if t >= tick_t) {
                    ready = false;
                    break;
                }
            }
            if !any_active || !ready {
                break;
            }
            let snap = self.snapshot_at(tick_t);
            events.extend(self.consume_snapshot(snap));
            self.next_tick = Some(tick_t + self.cfg.tick);
        }
        Ok(events)
    }

    /// Drops antennas that went silent past `dropout_after`, walks the
    /// reading antenna through its probation window, and reports the new
    /// missing-pair set when either changed it.
    fn update_degradation(&mut self, read: &PhaseRead) -> Option<OnlineEvent> {
        let Some(limit) = self.cfg.dropout_after else {
            return None;
        };
        let mut changed = false;
        let mut readmitted = None;
        if let Some(s) = self.states.get_mut(&read.antenna) {
            if s.dropped {
                match s.probation_since {
                    None => s.probation_since = Some(read.t),
                    Some(since) => {
                        if read.t - since >= self.cfg.readmit_after && s.prev.is_some() {
                            s.dropped = false;
                            s.probation_since = None;
                            readmitted = Some(read.antenna);
                            changed = true;
                        }
                    }
                }
            }
        }
        // An antenna that never read at all is judged against the stream
        // start, so a dead-on-arrival antenna still gets dropped.
        let baseline = self.first_read_t.unwrap_or(read.t);
        for (&ant, s) in self.states.iter_mut() {
            if ant == read.antenna || s.dropped {
                continue;
            }
            let last_seen = s.newest_t.unwrap_or(baseline);
            if read.t - last_seen > limit {
                s.dropped = true;
                s.prev = None;
                s.last = None;
                s.probation_since = None;
                changed = true;
            }
        }
        if let Some(ant) = readmitted {
            // During the outage the antenna's unwrap restarted on an
            // arbitrary 2π branch, so every lobe lock on its pairs points
            // at a stale branch; discard them and let the next snapshot
            // re-lock (§5.2) at each trace's current position.
            for trace in &mut self.traces {
                trace.locked.retain(|(p, _)| p.i != ant && p.j != ant);
            }
        }
        if !changed {
            return None;
        }
        if self.states.values().all(|s| s.dropped) {
            // Nothing left to clock ticks from; re-initialize once reads
            // survive probation again.
            self.next_tick = None;
        }
        let missing = self.missing_pairs();
        obs::emit(
            self.sink.as_ref(),
            self.session,
            Stage::Degraded,
            TraceKind::Anomaly,
            missing.len() as f64,
            read.t,
        );
        Some(OnlineEvent::Degraded {
            missing_pairs: missing,
        })
    }

    /// Interpolates every active antenna at `tick_t` and forms the pair
    /// snapshot; pairs with a dropped endpoint are simply absent.
    fn snapshot_at(&self, tick_t: f64) -> PairSnapshot {
        let mut phases: BTreeMap<AntennaId, f64> = BTreeMap::new();
        for &ant in &self.antennas {
            let Some(s) = self.states.get(&ant) else {
                continue;
            };
            if s.dropped {
                continue;
            }
            let Some((t1, p1)) = s.last else {
                continue;
            };
            let phi = match s.prev {
                Some((t0, p0)) if t1 > t0 && tick_t < t1 => {
                    p0 + (p1 - p0) * ((tick_t - t0) / (t1 - t0)).clamp(0.0, 1.0)
                }
                _ => p1,
            };
            phases.insert(ant, phi);
        }
        let mut wrapped = Vec::with_capacity(self.pairs.len());
        let mut turns = Vec::with_capacity(self.pairs.len());
        for &pair in &self.pairs {
            let (Some(&pi), Some(&pj)) = (phases.get(&pair.i), phases.get(&pair.j)) else {
                continue;
            };
            let d = pj - pi;
            wrapped.push(PairMeasurement::new(pair, wrap_pi(d)));
            turns.push((pair, d / TAU));
        }
        PairSnapshot {
            t: tick_t,
            wrapped,
            unwrapped_turns: turns,
        }
    }

    fn consume_snapshot(&mut self, snap: PairSnapshot) -> Vec<OnlineEvent> {
        let mut events = Vec::new();
        if self.traces.is_empty() {
            // Acquisition on the first snapshot.
            let lock_stage = if self.had_acquired { Stage::LobeRelock } else { Stage::LobeLock };
            let _acq_span =
                obs::SpanTimer::start(self.sink.as_ref(), self.session, Stage::Acquire, 0.0);
            // A degraded snapshot can fall below the positioning floor (no
            // coarse or no wide measurement at all); skip and retry on the
            // next tick rather than acquire from an under-constrained vote.
            let Some(candidates) = self.positioner.try_locate(&snap.wrapped) else {
                return events;
            };
            for (ci, c) in candidates.iter().enumerate() {
                let locked = self.tracer.try_lock_lobes(&snap, c.position);
                for &(_, k) in &locked {
                    obs::emit(
                        self.sink.as_ref(),
                        self.session,
                        lock_stage,
                        TraceKind::Instant,
                        k as f64,
                        ci as f64,
                    );
                }
                self.traces.push(CandidateTrace {
                    locked,
                    points: vec![c.position],
                    cumulative_vote: c.vote,
                    alive: true,
                });
            }
            self.had_acquired = true;
            if self.sink.is_some() {
                self.last_best = self.best_index();
            }
            events.push(OnlineEvent::Acquired {
                candidates: self.traces.len(),
            });
            if let Some(pos) = self.current_estimate() {
                events.push(OnlineEvent::Position { t: snap.t, pos });
            }
            return events;
        }

        // Lock any wide pair visible in this snapshot that a trace has no
        // lock for — the pair just came back from a dropout (its old lock
        // was discarded at re-admission) or acquisition itself happened on
        // a degraded snapshot. Locked at the trace's current point, the
        // same way acquisition seeds locks.
        for trace in self.traces.iter_mut().filter(|t| t.alive) {
            for &wp in &self.wide_pairs {
                if trace.locked.iter().any(|(p, _)| *p == wp) {
                    continue;
                }
                let Some(&(_, turns)) = snap.unwrapped_turns.iter().find(|(p, _)| *p == wp)
                else {
                    continue;
                };
                let Some(&at) = trace.points.last() else {
                    continue;
                };
                let k = self.tracer.lock_pair(wp, turns, at);
                trace.locked.push((wp, k));
                obs::emit(
                    self.sink.as_ref(),
                    self.session,
                    Stage::LobeRelock,
                    TraceKind::Instant,
                    k as f64,
                    snap.t,
                );
            }
        }

        for trace in self.traces.iter_mut().filter(|t| t.alive) {
            let Some(&prev) = trace.points.last() else {
                continue;
            };
            // `None` means no wide pair survives in this snapshot: hold the
            // current estimate instead of advancing on zero information.
            let Some((next, vote)) = self.tracer.advance_avail(prev, &snap, &trace.locked) else {
                continue;
            };
            trace.points.push(next);
            trace.cumulative_vote += vote;
        }
        self.ticks_done += 1;

        // Prune hopeless candidates once votes have had time to separate.
        if self.ticks_done >= self.cfg.prune_after && self.cfg.prune_margin.is_finite() {
            if let Some(best) = self.best_index() {
                let best_vote = self.traces[best].cumulative_vote;
                let margin = self.cfg.prune_margin;
                let mut pruned = false;
                for (i, t) in self.traces.iter_mut().enumerate() {
                    if i != best && t.alive && t.cumulative_vote < best_vote - margin {
                        t.alive = false;
                        pruned = true;
                    }
                }
                if pruned {
                    events.push(OnlineEvent::Pruned {
                        remaining: self.traces.iter().filter(|t| t.alive).count(),
                    });
                }
            }
        }

        // Per-tick vote masses and best-candidate identity: the §5.2
        // disambiguation signal. A vote flip means the trajectory the live
        // estimate follows just changed — an anomaly worth a flight dump.
        if self.sink.is_some() {
            for (i, t) in self.traces.iter().enumerate() {
                if t.alive {
                    obs::emit(
                        self.sink.as_ref(),
                        self.session,
                        Stage::CandidateVote,
                        TraceKind::Instant,
                        t.cumulative_vote,
                        i as f64,
                    );
                }
            }
            let new_best = self.best_index();
            if let (Some(nb), Some(ob)) = (new_best, self.last_best) {
                if nb != ob {
                    obs::emit(
                        self.sink.as_ref(),
                        self.session,
                        Stage::VoteFlip,
                        TraceKind::Anomaly,
                        nb as f64,
                        ob as f64,
                    );
                }
            }
            self.last_best = new_best;
        }

        if let Some(pos) = self.current_estimate() {
            events.push(OnlineEvent::Position { t: snap.t, pos });
        }
        events
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geom::Rect;
    use crate::position::Candidate;
    use crate::trace::ideal_snapshots;

    fn setup() -> (Deployment, Plane, OnlineTracker) {
        let dep = Deployment::paper_default();
        let plane = Plane::at_depth(2.0);
        let region = Rect::new(Point2::new(0.5, 0.3), Point2::new(2.3, 1.7));
        let mut mcfg = MultiResConfig::for_region(region);
        mcfg.fine_resolution = 0.02;
        let tracker = OnlineTracker::new(
            dep.clone(),
            plane,
            mcfg,
            TraceConfig::default(),
            OnlineConfig {
                tick: 0.04,
                prune_margin: 0.3,
                prune_after: 10,
                max_read_gap: None,
                ..OnlineConfig::default()
            },
        );
        (dep, plane, tracker)
    }

    /// Generates the ideal interleaved read stream for a moving tag: every
    /// antenna read every `per_antenna_dt`, slightly staggered.
    fn reads_for_path(
        dep: &Deployment,
        plane: Plane,
        path: &[Point2],
        duration: f64,
    ) -> Vec<PhaseRead> {
        let mut reads = Vec::new();
        let antennas: Vec<AntennaId> = dep.antennas().iter().map(|a| a.id).collect();
        let per_antenna_dt = 0.02;
        let mut t = 0.0;
        while t < duration {
            for (i, &ant) in antennas.iter().enumerate() {
                let tt = t + i as f64 * (per_antenna_dt / antennas.len() as f64);
                let frac = (tt / duration).clamp(0.0, 1.0);
                let idx = ((path.len() - 1) as f64 * frac) as usize;
                let p = plane.lift(path[idx.min(path.len() - 1)]);
                let a = dep.antenna(ant).unwrap();
                let phase = wrap_tau(
                    -TAU * dep.path_factor() * p.dist(a.pos) / dep.wavelength().meters(),
                );
                reads.push(PhaseRead { t: tt, antenna: ant, phase });
            }
            t += per_antenna_dt;
        }
        reads
    }

    fn circle_path() -> Vec<Point2> {
        (0..200)
            .map(|i| {
                let a = TAU * i as f64 / 200.0;
                Point2::new(1.4 + 0.1 * a.cos(), 1.0 + 0.1 * a.sin())
            })
            .collect()
    }

    #[test]
    fn online_tracker_acquires_and_tracks() {
        let (dep, plane, mut tracker) = setup();
        let path = circle_path();
        let reads = reads_for_path(&dep, plane, &path, 4.0);
        let mut acquired = false;
        let mut positions = 0;
        for r in reads {
            for e in tracker.push(r).unwrap() {
                match e {
                    OnlineEvent::Acquired { candidates } => {
                        acquired = true;
                        assert!(candidates >= 1);
                    }
                    OnlineEvent::Position { pos, .. } => {
                        positions += 1;
                        assert!(pos.is_finite());
                    }
                    OnlineEvent::Pruned { remaining } => assert!(remaining >= 1),
                    OnlineEvent::Stale { .. } => panic!("no gap in this stream"),
                    OnlineEvent::Degraded { .. } => panic!("dropout detection is off"),
                }
            }
        }
        assert!(acquired, "tracker never acquired");
        assert!(positions > 50, "only {positions} live estimates");
        assert!(tracker.is_tracking());

        // The live trajectory matches the circle after removing the offset.
        let traj = tracker.trajectory();
        assert!(traj.len() > 50);
        let center_est = {
            let mut c = Point2::new(0.0, 0.0);
            for p in traj {
                c = c + *p;
            }
            c * (1.0 / traj.len() as f64)
        };
        assert!(
            center_est.dist(Point2::new(1.4, 1.0)) < 0.15,
            "circle centre estimate {center_est:?}"
        );
    }

    #[test]
    fn online_matches_offline_tracing() {
        // The streaming path must agree with the batch path on the same
        // noise-free data.
        let (dep, plane, mut tracker) = setup();
        let path = circle_path();
        let reads = reads_for_path(&dep, plane, &path, 4.0);
        for r in reads {
            tracker.push(r).unwrap();
        }
        let online = tracker.trajectory().to_vec();
        assert!(online.len() > 10);

        // Offline: ideal snapshots along the same (resampled) truth.
        let truth: Vec<Point2> = (0..online.len())
            .map(|i| {
                let frac = i as f64 / (online.len() - 1) as f64;
                let idx = ((path.len() - 1) as f64 * frac) as usize;
                path[idx]
            })
            .collect();
        let snaps = ideal_snapshots(&dep, plane, &truth, 0.04);
        let tracer = TrajectoryTracer::new(dep, plane, TraceConfig::default());
        let offline = tracer.trace_from(
            Candidate {
                position: truth[0],
                vote: 0.0,
            },
            &snaps,
        );
        // Both should lie within a few centimetres of the truth throughout.
        for (o, t) in online.iter().zip(&truth) {
            assert!(o.dist(*t) < 0.10, "online {o:?} vs truth {t:?}");
        }
        for (o, t) in offline.points.iter().zip(&truth) {
            assert!(o.dist(*t) < 0.05, "offline {o:?} vs truth {t:?}");
        }
    }

    #[test]
    fn pruning_reduces_candidates() {
        let (dep, plane, mut tracker) = setup();
        let path = circle_path();
        let reads = reads_for_path(&dep, plane, &path, 4.0);
        let mut saw_prune = false;
        let mut initial_candidates = 0;
        for r in reads {
            for e in tracker.push(r).unwrap() {
                match e {
                    OnlineEvent::Acquired { candidates } => initial_candidates = candidates,
                    OnlineEvent::Pruned { .. } => saw_prune = true,
                    _ => {}
                }
            }
        }
        // Pruning only happens when acquisition was ambiguous; either way
        // the tracker must end with at least one live candidate.
        assert!(tracker.alive_candidates() >= 1);
        if initial_candidates > 1 {
            assert!(
                saw_prune || tracker.alive_candidates() == initial_candidates,
                "ambiguous acquisition should eventually prune or keep all"
            );
        }
    }

    #[test]
    fn unknown_antennas_are_ignored() {
        let (_, _, mut tracker) = setup();
        let events = tracker
            .push(PhaseRead {
                t: 0.0,
                antenna: AntennaId(99),
                phase: 1.0,
            })
            .unwrap();
        assert!(events.is_empty());
        assert!(!tracker.is_tracking());
    }

    #[test]
    fn hostile_reads_are_typed_errors_not_panics() {
        let (dep, _, mut tracker) = setup();
        let ant = dep.antennas()[0].id;
        assert!(matches!(
            tracker.push(PhaseRead { t: f64::NAN, antenna: ant, phase: 0.0 }),
            Err(TrackError::NonFiniteTimestamp { .. })
        ));
        assert!(matches!(
            tracker.push(PhaseRead { t: 0.0, antenna: ant, phase: f64::INFINITY }),
            Err(TrackError::NonFinitePhase { .. })
        ));
        tracker
            .push(PhaseRead { t: 1.0, antenna: ant, phase: 0.5 })
            .unwrap();
        assert!(matches!(
            tracker.push(PhaseRead { t: 1.0, antenna: ant, phase: 0.6 }),
            Err(TrackError::DuplicateRead { .. })
        ));
        assert!(matches!(
            tracker.push(PhaseRead { t: 0.5, antenna: ant, phase: 0.6 }),
            Err(TrackError::OutOfOrder { newest, .. }) if newest == 1.0
        ));
        // Rejected reads left no trace: the accepted read is still newest.
        assert_eq!(tracker.last_read_time(), Some(1.0));
    }

    #[test]
    fn clone_shares_built_tables_and_tracks_like_a_fresh_tracker() {
        // A serving layer builds one tracker and clones it per session: the
        // clone must share the built tables, not copy them...
        let (dep, plane, proto) = setup();
        proto.positioner().prebuild_tables();
        let mut clone = proto.clone();
        let addrs = |t: &OnlineTracker| t.positioner().f64_tables().map(<[f64]>::as_ptr);
        assert_eq!(addrs(&proto), addrs(&clone), "the clone copied a table");
        // ...and track exactly like a tracker that builds its own, whose
        // fine table stays lazy (the cell-list path computes distances).
        let (_, _, mut fresh) = setup();
        for r in reads_for_path(&dep, plane, &circle_path(), 2.0) {
            clone.push(r).unwrap();
            fresh.push(r).unwrap();
        }
        let bits = |t: &OnlineTracker| -> Vec<(u64, u64)> {
            t.trajectory().iter().map(|p| (p.x.to_bits(), p.z.to_bits())).collect()
        };
        assert!(!clone.trajectory().is_empty(), "the clone never tracked");
        assert_eq!(bits(&clone), bits(&fresh));
    }

    #[test]
    fn no_estimate_before_acquisition() {
        let (_, _, tracker) = setup();
        assert_eq!(tracker.current_estimate(), None);
        assert!(tracker.trajectory().is_empty());
    }
}
