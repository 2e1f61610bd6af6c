//! Lobe-locked trajectory tracing (paper §4 and §5.2).
//!
//! Tracing exploits two facts about grating lobes:
//!
//! * all lobes of a pair **rotate together** as the source moves, so even a
//!   wrong (but nearby) lobe reproduces the trajectory *shape* with only an
//!   absolute offset and mild distortion (§4, Fig. 7);
//! * the system is **over-constrained** — six wide pairs constrain a 2-D
//!   position — so locking the wrong lobes makes the per-tick total vote
//!   degrade over the trajectory, revealing bad initial candidates (§5.2,
//!   Fig. 10f).
//!
//! The tracer therefore: seeds one trace per candidate initial position,
//! locks each wide pair to the grating lobe nearest that seed (a fixed
//! integer `k` against the continuously-unwrapped pair phase), advances tick
//! by tick by maximizing the total fixed-lobe vote within a small vicinity
//! of the previous point, and finally returns the trace whose cumulative
//! vote is highest.

use crate::array::{AntennaPair, Deployment};
use crate::exec::Parallelism;
use crate::geom::{Plane, Point2};
use crate::obs::{self, SharedSink, Stage, TraceKind};
use crate::position::Candidate;
use crate::stream::PairSnapshot;
use crate::vote::PairMeasurement;
use serde::{Deserialize, Serialize};
use std::f64::consts::TAU;

/// Vicinity points per block of the tick kernel ([`TrajectoryTracer`]'s
/// step). Pure tuning: blocking never changes a point's operations or the
/// scan order, so no result depends on it.
const STEP_BLOCK: usize = 16;

/// Tuning parameters for [`TrajectoryTracer`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceConfig {
    /// Search radius around the previous position per tick (m). Bounds the
    /// trackable speed at `vicinity_radius / tick`.
    pub vicinity_radius: f64,
    /// Resolution of the per-tick local search (m).
    pub step_resolution: f64,
    /// Whether the coarse pairs' (nearest-lobe) votes join the per-tick
    /// objective. They anchor the absolute position; the wide pairs' locked
    /// lobes dominate the local shape either way.
    pub include_coarse: bool,
    /// Centred moving-average window applied to the output trajectory
    /// (ticks; 1 disables smoothing).
    pub smooth_window: usize,
    /// Thread-level parallelism of [`TrajectoryTracer::trace_candidates`]
    /// (one candidate's trace per unit of work). Never changes any result
    /// (see [`crate::exec`]), only wall-clock time.
    pub parallelism: Parallelism,
}

impl Default for TraceConfig {
    fn default() -> Self {
        Self {
            vicinity_radius: 0.10,
            step_resolution: 0.005,
            include_coarse: true,
            smooth_window: 3,
            parallelism: Parallelism::Auto,
        }
    }
}

impl TraceConfig {
    fn validate(&self) {
        assert!(
            self.vicinity_radius.is_finite() && self.vicinity_radius > 0.0,
            "vicinity radius must be positive"
        );
        assert!(
            self.step_resolution.is_finite()
                && self.step_resolution > 0.0
                && self.step_resolution <= self.vicinity_radius,
            "step resolution must be positive and no larger than the vicinity radius"
        );
        assert!(self.smooth_window >= 1, "smoothing window must be at least 1");
    }
}

/// A reconstructed trajectory for one candidate initial position.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceResult {
    /// The candidate this trace started from.
    pub initial: Candidate,
    /// The locked lobe index per wide pair.
    pub locked_lobes: Vec<(AntennaPair, i64)>,
    /// Reconstructed positions, one per snapshot (smoothed).
    pub points: Vec<Point2>,
    /// Total vote of the chosen point at every tick (Fig. 10f).
    pub per_step_votes: Vec<f64>,
    /// Sum of the per-step votes — the trace-selection criterion.
    pub total_vote: f64,
}

/// The trajectory tracing engine.
#[derive(Debug, Clone)]
pub struct TrajectoryTracer {
    dep: Deployment,
    plane: Plane,
    config: TraceConfig,
    /// Precomputed local-search offsets within the vicinity disc, stored
    /// as separate x and z columns so the tick kernel loads contiguous
    /// lanes.
    offsets_x: Vec<f64>,
    offsets_z: Vec<f64>,
    /// Pre-resolved wide pairs: `(pair, i, j)` with `i`, `j` indices into
    /// `dep.antennas()` — the tick kernel computes each antenna's distance
    /// once per vicinity point and the pairs index into those.
    wide_idx: Vec<(AntennaPair, usize, usize)>,
    /// Pre-resolved coarse pairs, same layout.
    coarse_idx: Vec<(AntennaPair, usize, usize)>,
    /// `path_factor / λ`, the distance-difference-to-turns factor.
    turns_factor: f64,
    /// Where this component's events go, tagged with `session`; `None` (the
    /// default) makes every emit site one branch (see [`crate::obs`]).
    sink: Option<SharedSink>,
    session: u64,
}

impl TrajectoryTracer {
    /// Creates a tracer.
    ///
    /// # Panics
    /// Panics on an invalid configuration or a deployment without wide
    /// pairs.
    pub fn new(dep: Deployment, plane: Plane, config: TraceConfig) -> Self {
        config.validate();
        assert!(!dep.wide_pairs().is_empty(), "tracing needs wide pairs");
        let r = config.vicinity_radius;
        let s = config.step_resolution;
        let n = (r / s).floor() as i64;
        let mut offsets_x = Vec::new();
        let mut offsets_z = Vec::new();
        for iz in -n..=n {
            for ix in -n..=n {
                let o = Point2::new(ix as f64 * s, iz as f64 * s);
                if o.norm() <= r + 1e-12 {
                    offsets_x.push(o.x);
                    offsets_z.push(o.z);
                }
            }
        }
        let index = |id| {
            dep.antennas()
                .iter()
                .position(|a| a.id == id)
                .expect("validated pair")
        };
        let resolve = |pairs: &mut dyn Iterator<Item = &AntennaPair>| {
            pairs
                .map(|&pair| (pair, index(pair.i), index(pair.j)))
                .collect::<Vec<_>>()
        };
        let wide_idx = resolve(&mut dep.wide_pairs().iter());
        let coarse_idx = resolve(&mut dep.coarse_pairs());
        let turns_factor = dep.path_factor() / dep.wavelength().meters();
        Self {
            dep,
            plane,
            config,
            offsets_x,
            offsets_z,
            wide_idx,
            coarse_idx,
            turns_factor,
            sink: None,
            session: 0,
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &TraceConfig {
        &self.config
    }

    /// Installs a trace sink: batch-tracing spans and per-candidate vote
    /// masses are emitted to it tagged with `session`. Observability only —
    /// never changes a traced point (see [`crate::obs`]).
    pub fn set_trace_sink(&mut self, sink: Option<SharedSink>, session: u64) {
        self.sink = sink;
        self.session = session;
    }

    /// Locks each wide pair to the grating lobe nearest `position`, given a
    /// snapshot's unwrapped phases — the first step of any trace, exposed
    /// for incremental (online) tracking.
    ///
    /// # Panics
    /// Panics if the snapshot lacks a wide pair.
    pub fn lock_lobes(&self, snap: &PairSnapshot, position: Point2) -> Vec<(AntennaPair, i64)> {
        let p3 = self.plane.lift(position);
        self.dep
            .wide_pairs()
            .iter()
            .map(|&pair| {
                let turns = snap
                    .turns_of(pair)
                    .unwrap_or_else(|| panic!("snapshot lacks wide pair {pair:?}"));
                let k = crate::vote::lock_lobe(&self.dep, pair, turns, p3);
                (pair, k)
            })
            .collect()
    }

    /// Locks whatever wide pairs the snapshot *does* carry — the
    /// degraded-mode counterpart of [`TrajectoryTracer::lock_lobes`] for
    /// snapshots built from a surviving antenna subset. With a full pair
    /// set the result is identical to `lock_lobes`. May return an empty
    /// vector when no wide pair is present.
    pub fn try_lock_lobes(
        &self,
        snap: &PairSnapshot,
        position: Point2,
    ) -> Vec<(AntennaPair, i64)> {
        let p3 = self.plane.lift(position);
        self.dep
            .wide_pairs()
            .iter()
            .filter_map(|&pair| {
                let turns = snap.turns_of(pair)?;
                Some((pair, crate::vote::lock_lobe(&self.dep, pair, turns, p3)))
            })
            .collect()
    }

    /// Locks one wide pair at `position` given its current unwrapped turns
    /// — the re-lock primitive used when an antenna rejoins after a
    /// dropout (its unwrap restarted on a new branch, so the old lock is
    /// meaningless).
    pub fn lock_pair(&self, pair: AntennaPair, turns: f64, position: Point2) -> i64 {
        crate::vote::lock_lobe(&self.dep, pair, turns, self.plane.lift(position))
    }

    /// Advances one tick from `prev` using `snap` and the locked lobes;
    /// returns the new point and its total vote. This is the incremental
    /// core of [`TrajectoryTracer::trace_from`], exposed for online use.
    ///
    /// # Panics
    /// Panics if the snapshot lacks a locked wide pair.
    pub fn advance(
        &self,
        prev: Point2,
        snap: &PairSnapshot,
        locked: &[(AntennaPair, i64)],
    ) -> (Point2, f64) {
        let mut wide_targets = Vec::with_capacity(self.wide_idx.len());
        for (idx, &(pair, i, j)) in self.wide_idx.iter().enumerate() {
            let turns = snap
                .turns_of(pair)
                .unwrap_or_else(|| panic!("snapshot lacks wide pair {pair:?}"));
            wide_targets.push((i, j, turns + locked[idx].1 as f64));
        }
        let mut coarse_targets = Vec::new();
        self.coarse_targets(snap, &mut coarse_targets);
        self.step(prev, &wide_targets, &coarse_targets)
    }

    /// Degraded-mode counterpart of [`TrajectoryTracer::advance`]: wide
    /// pairs missing from the snapshot or from `locked` simply do not vote
    /// (§5.1's over-constrained redundancy is what makes the subset still
    /// informative). Returns `None` when no locked wide pair is available —
    /// without at least one fixed-lobe constraint the step would be
    /// unanchored.
    ///
    /// `locked` is keyed by pair (order-insensitive); votes are summed in
    /// deployment wide-pair order, so with a full snapshot and a full lock
    /// set the result is bit-identical to `advance`.
    pub fn advance_avail(
        &self,
        prev: Point2,
        snap: &PairSnapshot,
        locked: &[(AntennaPair, i64)],
    ) -> Option<(Point2, f64)> {
        let mut wide_targets = Vec::with_capacity(self.wide_idx.len());
        for &(pair, i, j) in &self.wide_idx {
            let Some(turns) = snap.turns_of(pair) else { continue };
            let Some(&(_, k)) = locked.iter().find(|(p, _)| *p == pair) else { continue };
            wide_targets.push((i, j, turns + k as f64));
        }
        if wide_targets.is_empty() {
            return None;
        }
        let mut coarse_targets = Vec::new();
        self.coarse_targets(snap, &mut coarse_targets);
        Some(self.step(prev, &wide_targets, &coarse_targets))
    }

    /// Traces from one initial position through the snapshot sequence.
    ///
    /// The lobes are locked against the *first* snapshot; every subsequent
    /// snapshot contributes one traced point.
    ///
    /// # Panics
    /// Panics if `snapshots` is empty.
    pub fn trace_from(&self, initial: Candidate, snapshots: &[PairSnapshot]) -> TraceResult {
        assert!(!snapshots.is_empty(), "cannot trace an empty snapshot sequence");
        let locked = self.lock_lobes(&snapshots[0], initial.position);

        let mut points = Vec::with_capacity(snapshots.len());
        let mut votes = Vec::with_capacity(snapshots.len());
        let mut prev = initial.position;
        // Per-snapshot vote targets, in turns, against precomputed geometry.
        let mut wide_targets = Vec::with_capacity(self.wide_idx.len());
        let mut coarse_targets = Vec::with_capacity(self.coarse_idx.len());
        for snap in snapshots {
            wide_targets.clear();
            for (idx, &(pair, i, j)) in self.wide_idx.iter().enumerate() {
                let turns = snap
                    .turns_of(pair)
                    .unwrap_or_else(|| panic!("snapshot lacks wide pair {pair:?}"));
                let k = locked[idx].1;
                wide_targets.push((i, j, turns + k as f64));
            }
            coarse_targets.clear();
            self.coarse_targets(snap, &mut coarse_targets);
            let (best, vote) = self.step(prev, &wide_targets, &coarse_targets);
            points.push(best);
            votes.push(vote);
            prev = best;
        }

        let smoothed = moving_average(&points, self.config.smooth_window);
        let total_vote = votes.iter().sum();
        TraceResult {
            initial,
            locked_lobes: locked,
            points: smoothed,
            per_step_votes: votes,
            total_vote,
        }
    }

    /// Traces every candidate and returns `(winner_index, all_traces)`;
    /// the winner has the highest cumulative vote (§5.2).
    ///
    /// # Panics
    /// Panics if `candidates` or `snapshots` is empty.
    pub fn trace_candidates(
        &self,
        candidates: &[Candidate],
        snapshots: &[PairSnapshot],
    ) -> (usize, Vec<TraceResult>) {
        assert!(!candidates.is_empty(), "no candidate initial positions to trace");
        // Candidates trace independently; the ordered map keeps the output
        // order (and therefore the winner tie-break below) identical to a
        // serial loop for every thread count.
        let _span = obs::SpanTimer::start(
            self.sink.as_ref(),
            self.session,
            Stage::TraceAdvance,
            candidates.len() as f64,
        );
        let traces: Vec<TraceResult> = self
            .config
            .parallelism
            .map_ordered(candidates, |&c| self.trace_from(c, snapshots));
        // Per-candidate vote mass, emitted in candidate order from this
        // thread so the event sequence is deterministic.
        if self.sink.is_some() {
            for (i, t) in traces.iter().enumerate() {
                obs::emit(
                    self.sink.as_ref(),
                    self.session,
                    Stage::CandidateVote,
                    TraceKind::Instant,
                    t.total_vote,
                    i as f64,
                );
            }
        }
        // `total_cmp` orders like `partial_cmp` for the finite votes the
        // arithmetic produces, without a panic path for hostile input.
        let winner = traces
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_vote.total_cmp(&b.1.total_vote))
            .map(|(i, _)| i)
            .expect("at least one trace");
        (winner, traces)
    }

    /// Appends the coarse pairs' `(i, j, measured_turns)` targets the
    /// snapshot carries, in deployment order (none unless
    /// `include_coarse`).
    fn coarse_targets(&self, snap: &PairSnapshot, out: &mut Vec<(usize, usize, f64)>) {
        if !self.config.include_coarse {
            return;
        }
        for &(pair, i, j) in &self.coarse_idx {
            if let Some(m) = snap.wrapped.iter().find(|m| m.pair == pair) {
                out.push((i, j, m.turns()));
            }
        }
    }

    /// One tracing step: the vicinity point with the best total vote.
    ///
    /// `wide_targets` are `(i, j, target_turns)` — antenna indices into
    /// `dep.antennas()` — with the locked lobe folded into the target
    /// (fixed-lobe quadratic penalty); `coarse_targets` are
    /// `(i, j, measured_turns)` scored against the nearest lobe.
    ///
    /// The offsets are walked in blocks of [`STEP_BLOCK`] points: each
    /// referenced antenna's distance is computed once per point (not once
    /// per pair it belongs to), then every pair's term is applied to the
    /// whole block. Per point that is exactly the per-pair sequence —
    /// the same [`crate::geom::Point3::dist`] expression, wide then coarse
    /// terms in order, `v -= r·r` — and the scan keeps the first strict
    /// maximum, so the chosen point and its vote are bit-identical to
    /// scoring one point at a time (DESIGN.md §16). The fixed-width lane
    /// loops are what the compiler vectorizes.
    fn step(
        &self,
        prev: Point2,
        wide_targets: &[(usize, usize, f64)],
        coarse_targets: &[(usize, usize, f64)],
    ) -> (Point2, f64) {
        const B: usize = STEP_BLOCK;
        let antennas = self.dep.antennas();
        let mut used = vec![false; antennas.len()];
        for &(i, j, _) in wide_targets.iter().chain(coarse_targets) {
            used[i] = true;
            used[j] = true;
        }
        let tf = self.turns_factor;
        // Row 0 accumulates the block's votes; row `1 + a` holds antenna
        // `a`'s distances to the block's points.
        let mut rows = vec![[0.0; B]; 1 + antennas.len()];
        let (v, dist) = rows.split_first_mut().expect("vote row");
        let mut best = prev;
        let mut best_vote = f64::NEG_INFINITY;
        let mut score = |ox: &[f64; B], oz: &[f64; B], len: usize| {
            let point = |b: usize| Point2::new(prev.x + ox[b], prev.z + oz[b]);
            for ((d, ant), _) in dist.iter_mut().zip(antennas).zip(&used).filter(|(_, &u)| u) {
                for (b, db) in d.iter_mut().enumerate() {
                    *db = self.plane.lift(point(b)).dist(ant.pos);
                }
            }
            v.fill(0.0);
            for &(i, j, target) in wide_targets {
                let (di, dj) = (&dist[i], &dist[j]);
                for b in 0..B {
                    let r = tf * (di[b] - dj[b]) - target;
                    v[b] -= r * r;
                }
            }
            for &(i, j, measured) in coarse_targets {
                let (di, dj) = (&dist[i], &dist[j]);
                for b in 0..B {
                    let f = crate::phase::frac_dist_to_integer(tf * (di[b] - dj[b]) - measured);
                    v[b] -= f * f;
                }
            }
            for (b, &vb) in v[..len].iter().enumerate() {
                if vb > best_vote {
                    best_vote = vb;
                    best = point(b);
                }
            }
        };
        let xs = self.offsets_x.chunks_exact(B);
        let zs = self.offsets_z.chunks_exact(B);
        let (tail_x, tail_z) = (xs.remainder(), zs.remainder());
        for (ox, oz) in xs.zip(zs) {
            score(ox.try_into().expect("full block"), oz.try_into().expect("full block"), B);
        }
        if !tail_x.is_empty() {
            // The short last block is padded with zero offsets: those lanes
            // are scored but never scanned.
            let mut ox = [0.0; B];
            let mut oz = [0.0; B];
            ox[..tail_x.len()].copy_from_slice(tail_x);
            oz[..tail_z.len()].copy_from_slice(tail_z);
            score(&ox, &oz, tail_x.len());
        }
        (best, best_vote)
    }
}

/// Centred moving average over a point sequence (window 1 = identity).
/// Endpoints use the available one-sided samples, so output length equals
/// input length.
pub fn moving_average(points: &[Point2], window: usize) -> Vec<Point2> {
    assert!(window >= 1, "window must be at least 1");
    if window == 1 || points.len() <= 2 {
        return points.to_vec();
    }
    let half = window / 2;
    (0..points.len())
        .map(|i| {
            let lo = i.saturating_sub(half);
            let hi = (i + half + 1).min(points.len());
            let n = (hi - lo) as f64;
            let mut acc = Point2::new(0.0, 0.0);
            for p in &points[lo..hi] {
                acc = acc + *p;
            }
            acc * (1.0 / n)
        })
        .collect()
}

/// Noise-free snapshots along a known path: the forward model used by tests
/// and figure harnesses (realistic streams come from `rfidraw-protocol` via
/// [`crate::stream::SnapshotBuilder`]).
///
/// The unwrapped turns are exact (`pair_turns` along the path is continuous
/// by construction), and the wrapped measurements are their 2π reductions.
pub fn ideal_snapshots(
    dep: &Deployment,
    plane: Plane,
    path: &[Point2],
    tick: f64,
) -> Vec<PairSnapshot> {
    let pairs: Vec<AntennaPair> = dep.all_pairs().copied().collect();
    path.iter()
        .enumerate()
        .map(|(n, &p2)| {
            let p3 = plane.lift(p2);
            let mut wrapped = Vec::with_capacity(pairs.len());
            let mut turns = Vec::with_capacity(pairs.len());
            for &pair in &pairs {
                let t = dep.pair_turns(pair, p3);
                turns.push((pair, t));
                wrapped.push(PairMeasurement::new(pair, crate::phase::wrap_pi(TAU * t)));
            }
            PairSnapshot {
                t: n as f64 * tick,
                wrapped,
                unwrapped_turns: turns,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::array::Deployment;
    use crate::geom::Plane;

    fn letter_q_path() -> Vec<Point2> {
        // A coarse handwritten-'q'-like path: a loop plus a descender,
        // ~15 cm tall, centred near (1.3, 1.0).
        let mut path = Vec::new();
        let c = Point2::new(1.3, 1.05);
        for i in 0..=40 {
            let a = TAU * i as f64 / 40.0;
            path.push(Point2::new(c.x + 0.05 * a.cos(), c.z + 0.05 * a.sin()));
        }
        for i in 1..=30 {
            let t = i as f64 / 30.0;
            path.push(Point2::new(c.x + 0.05, c.z - 0.15 * t));
        }
        path
    }

    fn dense(path: &[Point2], per_seg: usize) -> Vec<Point2> {
        let mut out = Vec::new();
        for w in path.windows(2) {
            for k in 0..per_seg {
                out.push(w[0].lerp(w[1], k as f64 / per_seg as f64));
            }
        }
        out.push(*path.last().unwrap());
        out
    }

    fn setup() -> (Deployment, Plane, TrajectoryTracer) {
        let dep = Deployment::paper_default();
        let plane = Plane::at_depth(2.0);
        let tracer = TrajectoryTracer::new(dep.clone(), plane, TraceConfig::default());
        (dep, plane, tracer)
    }

    #[test]
    fn traces_noise_free_path_exactly() {
        let (dep, plane, tracer) = setup();
        let path = dense(&letter_q_path(), 3);
        let snaps = ideal_snapshots(&dep, plane, &path, 0.02);
        let start = Candidate {
            position: path[0],
            vote: 0.0,
        };
        let result = tracer.trace_from(start, &snaps);
        assert_eq!(result.points.len(), path.len());
        let max_err = result
            .points
            .iter()
            .zip(&path)
            .map(|(a, b)| a.dist(*b))
            .fold(0.0_f64, f64::max);
        assert!(max_err < 0.02, "max tracing error {max_err} m");
        assert!(result.total_vote > -0.5, "total vote {}", result.total_vote);
    }

    #[test]
    fn wrong_adjacent_lobe_preserves_shape() {
        // §4 / Fig. 7(a): start from an offset position that locks adjacent
        // lobes; the reconstructed shape must match the truth up to a shift.
        let (dep, plane, tracer) = setup();
        let path = dense(&letter_q_path(), 3);
        let snaps = ideal_snapshots(&dep, plane, &path, 0.02);
        // ~13 cm offset start: the paper's "adjacent lobe" regime.
        let offset_start = Candidate {
            position: path[0] + Point2::new(0.10, 0.08),
            vote: 0.0,
        };
        let result = tracer.trace_from(offset_start, &snaps);
        // Remove the initial offset, then compare shapes point by point.
        let shift = result.points[0] - path[0];
        let errs: Vec<f64> = result
            .points
            .iter()
            .zip(&path)
            .map(|(a, b)| (*a - shift).dist(*b))
            .collect();
        let mean_err = errs.iter().sum::<f64>() / errs.len() as f64;
        assert!(
            mean_err < 0.05,
            "shape error {mean_err:.3} m after removing offset"
        );
    }

    #[test]
    fn correct_start_outvotes_wrong_start() {
        // §5.2: the over-constrained system gives the true start a higher
        // cumulative vote than a wrong one.
        let (dep, plane, tracer) = setup();
        let path = dense(&letter_q_path(), 3);
        let snaps = ideal_snapshots(&dep, plane, &path, 0.02);
        let good = Candidate { position: path[0], vote: 0.0 };
        let bad = Candidate {
            position: path[0] + Point2::new(0.35, -0.25),
            vote: 0.0,
        };
        let (winner, traces) = tracer.trace_candidates(&[bad, good], &snaps);
        assert_eq!(winner, 1, "true start must win the vote");
        assert!(traces[1].total_vote > traces[0].total_vote);
    }

    #[test]
    fn per_step_votes_of_wrong_start_degrade() {
        // Fig. 10(f): the wrong candidate's vote drops as the trace
        // progresses while the good one stays near zero.
        let (dep, plane, tracer) = setup();
        let path = dense(&letter_q_path(), 3);
        let snaps = ideal_snapshots(&dep, plane, &path, 0.02);
        let good = tracer.trace_from(Candidate { position: path[0], vote: 0.0 }, &snaps);
        let bad = tracer.trace_from(
            Candidate {
                position: path[0] + Point2::new(0.35, -0.25),
                vote: 0.0,
            },
            &snaps,
        );
        let late = |v: &[f64]| {
            let n = v.len();
            v[(3 * n / 4)..].iter().sum::<f64>() / (n - 3 * n / 4) as f64
        };
        assert!(
            late(&good.per_step_votes) > late(&bad.per_step_votes),
            "good late vote {} vs bad {}",
            late(&good.per_step_votes),
            late(&bad.per_step_votes)
        );
    }

    #[test]
    fn advance_avail_matches_advance_on_full_snapshots_and_degrades_on_subsets() {
        let (dep, plane, tracer) = setup();
        let path = dense(&letter_q_path(), 3);
        let snaps = ideal_snapshots(&dep, plane, &path, 0.02);
        let locked = tracer.lock_lobes(&snaps[0], path[0]);
        assert_eq!(tracer.try_lock_lobes(&snaps[0], path[0]), locked);

        let mut prev = path[0];
        for snap in &snaps[1..20] {
            let full = tracer.advance(prev, snap, &locked);
            let avail = tracer.advance_avail(prev, snap, &locked).unwrap();
            assert_eq!(full.0.x.to_bits(), avail.0.x.to_bits());
            assert_eq!(full.0.z.to_bits(), avail.0.z.to_bits());
            assert_eq!(full.1.to_bits(), avail.1.to_bits());
            prev = full.0;
        }

        // Drop one wide pair from a snapshot: advance_avail still steps
        // close to the truth on the surviving subset.
        let gone = dep.wide_pairs()[0];
        let mut degraded = snaps[1].clone();
        degraded.wrapped.retain(|m| m.pair != gone);
        degraded.unwrapped_turns.retain(|(p, _)| *p != gone);
        let (next, _) = tracer.advance_avail(path[0], &degraded, &locked).unwrap();
        assert!(next.dist(path[1]) < 0.03, "degraded step {next:?} vs {:?}", path[1]);

        // No wide pair at all: the step is unanchored and must decline.
        let mut dark = snaps[1].clone();
        dark.wrapped.retain(|m| !dep.wide_pairs().contains(&m.pair));
        dark.unwrapped_turns.retain(|(p, _)| !dep.wide_pairs().contains(p));
        assert!(tracer.advance_avail(path[0], &dark, &locked).is_none());
    }

    #[test]
    fn moving_average_identity_and_smoothing() {
        let pts = vec![
            Point2::new(0.0, 0.0),
            Point2::new(1.0, 0.0),
            Point2::new(0.0, 0.0),
            Point2::new(1.0, 0.0),
            Point2::new(0.0, 0.0),
        ];
        assert_eq!(moving_average(&pts, 1), pts);
        let sm = moving_average(&pts, 3);
        assert_eq!(sm.len(), pts.len());
        // Interior points of an alternating series average towards 1/3 or 2/3.
        assert!((sm[2].x - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "empty snapshot sequence")]
    fn trace_rejects_empty_snapshots() {
        let (_, _, tracer) = setup();
        let _ = tracer.trace_from(
            Candidate {
                position: Point2::new(1.0, 1.0),
                vote: 0.0,
            },
            &[],
        );
    }

    #[test]
    #[should_panic(expected = "step resolution")]
    fn config_rejects_step_larger_than_radius() {
        let dep = Deployment::paper_default();
        let plane = Plane::at_depth(2.0);
        let cfg = TraceConfig {
            vicinity_radius: 0.01,
            step_resolution: 0.05,
            ..TraceConfig::default()
        };
        let _ = TrajectoryTracer::new(dep, plane, cfg);
    }

    #[test]
    fn ideal_snapshots_are_consistent() {
        let (dep, plane, _) = setup();
        let path = vec![Point2::new(1.0, 1.0), Point2::new(1.05, 1.0)];
        let snaps = ideal_snapshots(&dep, plane, &path, 0.1);
        assert_eq!(snaps.len(), 2);
        for s in &snaps {
            assert_eq!(s.wrapped.len(), dep.all_pairs().count());
            for (m, (pair, turns)) in s.wrapped.iter().zip(&s.unwrapped_turns) {
                assert_eq!(m.pair, *pair);
                let w = crate::phase::wrap_pi(TAU * turns);
                assert!((w - m.delta_phi).abs() < 1e-12);
            }
        }
    }
}
