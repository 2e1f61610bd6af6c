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
use crate::geom::{Plane, Point2};
use crate::obs::{self, SharedSink, Stage, TraceKind};
use crate::phase::frac_dist_to_integer;
use crate::position::Candidate;
use crate::stream::PairSnapshot;
use crate::vote::PairMeasurement;
use serde::{Deserialize, Serialize};
use std::f64::consts::TAU;
use std::sync::Arc;

/// Lanes per tile of the tick kernel ([`TrajectoryTracer`]'s step), and
/// tiles per block of its bound pass. Pure tuning: no result depends on
/// it, since the scan keeps the best vote with ties to the lowest scan
/// index whatever order the tiles are scored in.
const STEP_BLOCK: usize = 16;

/// Height, in lattice rows, of the strips the vicinity disc is cut into
/// before it is chunked into tiles: four rows of a strip walked column by
/// column give 4×4 squares. Pure tuning, like [`STEP_BLOCK`].
const STRIP_ROWS: usize = 4;

/// Relative float slack of the tile bound (2⁻⁴⁰): about 2¹² times the
/// rounding error of the vote terms it covers (DESIGN.md §16, *Pruning*).
const BOUND_SLACK: f64 = 1.0 / (1u64 << 40) as f64;

/// The vicinity disc cut into tiles of [`STEP_BLOCK`] lanes, built once
/// per tracer and shared by its clones.
#[derive(Debug)]
struct Tiles {
    /// Lane offsets, tile-major, [`STEP_BLOCK`] lanes per tile; the last
    /// tile's padded lanes hold zero offsets and are never scanned.
    x: Vec<f64>,
    z: Vec<f64>,
    /// Each lane's index in the row-major scan of the disc: exact ties go
    /// to the lowest.
    scan: Vec<u32>,
    /// Number of disc points (the unpadded lanes).
    points: usize,
    /// Per tile, padded to whole blocks of [`STEP_BLOCK`] tiles: the
    /// centre offset `c`, the bounding radius `ρ` (no lane lies farther
    /// from `c`) and the reach `|c| + ρ` (no point of the tile's hull lies
    /// farther from the previous point).
    cx: Vec<f64>,
    cz: Vec<f64>,
    rho: Vec<f64>,
    reach: Vec<f64>,
    /// The largest reach: the disc's reach `R`.
    max_reach: f64,
}

impl Tiles {
    /// Cuts the lattice points of the disc of `radius` at `step` spacing
    /// into tiles: strips of [`STRIP_ROWS`] rows, bottom to top, each
    /// walked column by column in the opposite direction of the strip
    /// below it, chunked into runs of [`STEP_BLOCK`] points.
    fn new(radius: f64, step: f64) -> Self {
        const B: usize = STEP_BLOCK;
        let n = (radius / step).floor() as i64;
        let side = (2 * n + 1) as usize;
        // Each lattice point's scan index and offset, `None` outside the
        // disc, at `row · side + column`.
        let mut lattice = vec![None; side * side];
        let mut points = 0;
        for iz in -n..=n {
            for ix in -n..=n {
                let o = Point2::new(ix as f64 * step, iz as f64 * step);
                if o.norm() <= radius + 1e-12 {
                    lattice[(iz + n) as usize * side + (ix + n) as usize] = Some((points, o));
                    points += 1;
                }
            }
        }
        let mut order = Vec::with_capacity(points);
        for (strip, first_row) in (0..side).step_by(STRIP_ROWS).enumerate() {
            let rows = first_row..(first_row + STRIP_ROWS).min(side);
            for column in 0..side {
                let column = if strip % 2 == 0 { column } else { side - 1 - column };
                order.extend(rows.clone().filter_map(|row| lattice[row * side + column]));
            }
        }
        let count = points.div_ceil(B);
        let padded = count.div_ceil(B) * B;
        let mut tiles = Self {
            x: vec![0.0; count * B],
            z: vec![0.0; count * B],
            scan: vec![0; count * B],
            points,
            cx: vec![0.0; padded],
            cz: vec![0.0; padded],
            rho: vec![0.0; padded],
            reach: vec![0.0; padded],
            max_reach: 0.0,
        };
        for (t, lanes) in order.chunks(B).enumerate() {
            let (mut lo, mut hi) = (lanes[0].1, lanes[0].1);
            for (b, &(k, o)) in lanes.iter().enumerate() {
                tiles.x[t * B + b] = o.x;
                tiles.z[t * B + b] = o.z;
                tiles.scan[t * B + b] = u32::try_from(k).expect("vicinity disc fits u32 indices");
                lo = Point2::new(lo.x.min(o.x), lo.z.min(o.z));
                hi = Point2::new(hi.x.max(o.x), hi.z.max(o.z));
            }
            // The centre of the lanes' bounding box.
            let c = lo.lerp(hi, 0.5);
            let rho = lanes.iter().map(|&(_, o)| c.dist(o)).fold(0.0, f64::max);
            tiles.cx[t] = c.x;
            tiles.cz[t] = c.z;
            tiles.rho[t] = rho;
            tiles.reach[t] = c.norm() + rho;
            tiles.max_reach = tiles.max_reach.max(tiles.reach[t]);
        }
        tiles
    }

    /// Number of tiles.
    fn count(&self) -> usize {
        self.x.len() / STEP_BLOCK
    }

    /// Number of real lanes of tile `t`: [`STEP_BLOCK`] for all but a
    /// short last tile.
    fn lanes(&self, t: usize) -> usize {
        (self.points - t * STEP_BLOCK).min(STEP_BLOCK)
    }
}

/// One tracing step's outcome.
struct Step {
    point: Point2,
    vote: f64,
    /// Tiles the scan scored; the rest were pruned by their bound. Read
    /// by the pruning test only.
    #[cfg_attr(not(test), allow(dead_code))]
    scored_tiles: usize,
}

/// One pair's `(i, j, target, gradient, curvature, slack)`: its target and
/// the constants of its tile bound at the tick's previous point.
type PairBound = (usize, usize, f64, f64, f64, f64);

/// One tick's kernels and scratch rows, for the targets of one step
/// around `prev`.
struct Tick<'a> {
    tracer: &'a TrajectoryTracer,
    prev: Point2,
    wide: &'a [(usize, usize, f64)],
    coarse: &'a [(usize, usize, f64)],
    /// The antennas some target references.
    used: Vec<bool>,
    /// Row 0 accumulates a block's votes (or bounds); row `1 + a` holds
    /// antenna `a`'s distances to the block's points.
    rows: Vec<[f64; STEP_BLOCK]>,
}

impl<'a> Tick<'a> {
    fn new(
        tracer: &'a TrajectoryTracer,
        prev: Point2,
        wide: &'a [(usize, usize, f64)],
        coarse: &'a [(usize, usize, f64)],
    ) -> Self {
        let antennas = tracer.dep.antennas().len();
        let mut used = vec![false; antennas];
        for &(i, j, _) in wide.iter().chain(coarse) {
            used[i] = true;
            used[j] = true;
        }
        Self {
            tracer,
            prev,
            wide,
            coarse,
            used,
            rows: vec![[0.0; STEP_BLOCK]; 1 + antennas],
        }
    }

    /// Fills each used antenna's row with its distance to every lane's
    /// point `prev + (ox, oz)` in the plane, one fixed-width loop per
    /// antenna; returns the vote row, zeroed, and the distance rows.
    fn distances(
        &mut self,
        ox: &[f64],
        oz: &[f64],
    ) -> (&mut [f64; STEP_BLOCK], &[[f64; STEP_BLOCK]]) {
        let (ox, oz) = (&ox[..STEP_BLOCK], &oz[..STEP_BLOCK]);
        let (prev, plane) = (self.prev, self.tracer.plane);
        let (v, dist) = self.rows.split_first_mut().expect("vote row");
        let antennas = self.tracer.dep.antennas();
        for ((d, ant), _) in dist.iter_mut().zip(antennas).zip(&self.used).filter(|(_, &u)| u) {
            for (b, db) in d.iter_mut().enumerate() {
                *db = plane.lift(Point2::new(prev.x + ox[b], prev.z + oz[b])).dist(ant.pos);
            }
        }
        v.fill(0.0);
        (v, dist)
    }

    /// The bound pass: an upper bound on every vote each tile's lanes can
    /// compute, from the tile's centre, [`STEP_BLOCK`] tiles at a time.
    ///
    /// Within a tile, a pair's turns `tf·(dᵢ − dⱼ)` move from the
    /// centre's by at most `δ = tf·ρ·G`, `G` a bound on the gradient of
    /// `dᵢ − dⱼ` over the tile: its gradient at `prev` plus the distance
    /// from `prev`, at most `|c| + ρ`, times the Hessian bound
    /// `1/(dᵢ − R) + 1/(dⱼ − R)` (each distance is 1-Lipschitz with a
    /// Hessian norm of at most `1/d`), and never more than 2. A lane's
    /// term is then at least `core − δ − slack`, `core` being `|r|` for
    /// wide terms and the fold for coarse ones and the slack covering the
    /// rounding of the distances, the lifted points and the bound itself;
    /// squared and accumulated in the lanes' order, those floors sum to at
    /// least the lane's vote, since rounding is monotone.
    fn bounds(&mut self) -> Vec<f64> {
        const B: usize = STEP_BLOCK;
        let tracer = self.tracer;
        let tiles = &*tracer.tiles;
        let (prev, tf) = (self.prev, tracer.turns_factor);
        let reach = tiles.max_reach;
        let p3 = tracer.plane.lift(prev);
        // Each antenna's distance and in-plane gradient at `prev`.
        let at_prev: Vec<(f64, f64, f64)> = tracer
            .dep
            .antennas()
            .iter()
            .map(|a| {
                let d = p3.dist(a.pos);
                (d, (prev.x - a.pos.x) / d, (prev.z - a.pos.z) / d)
            })
            .collect();
        let pair_bound = |&(i, j, target): &(usize, usize, f64)| -> PairBound {
            let ((di, xi, zi), (dj, xj, zj)) = (at_prev[i], at_prev[j]);
            let (gradient, curvature) = if di - reach > 0.0 && dj - reach > 0.0 {
                let g = ((xi - xj) * (xi - xj) + (zi - zj) * (zi - zj)).sqrt();
                (tf * g, tf * (1.0 / (di - reach) + 1.0 / (dj - reach)))
            } else {
                (2.0 * tf, 0.0)
            };
            let slack = BOUND_SLACK * tf * (di + dj + prev.x.abs() + prev.z.abs() + 4.0 * reach);
            (i, j, target, gradient, curvature, slack)
        };
        let wide: Vec<PairBound> = self.wide.iter().map(pair_bound).collect();
        let coarse: Vec<PairBound> = self.coarse.iter().map(pair_bound).collect();
        let mut bounds = Vec::with_capacity(tiles.cx.len());
        let centres = tiles.cx.chunks_exact(B).zip(tiles.cz.chunks_exact(B));
        let spans = tiles.rho.chunks_exact(B).zip(tiles.reach.chunks_exact(B));
        for ((cx, cz), span) in centres.zip(spans) {
            let (v, dist) = self.distances(cx, cz);
            subtract_floors(v, dist, span, tf, &wide, f64::abs);
            subtract_floors(v, dist, span, tf, &coarse, frac_dist_to_integer);
            bounds.extend_from_slice(v);
        }
        bounds.truncate(tiles.count());
        bounds
    }

    /// Tile `t`'s lane votes, by the per-point arithmetic of a
    /// one-point-at-a-time scan: each used antenna's distance once per
    /// lane, the same [`crate::geom::Point3::dist`] expression, wide then
    /// coarse terms in order, `v -= r·r`.
    fn votes(&mut self, t: usize) -> &[f64; STEP_BLOCK] {
        const B: usize = STEP_BLOCK;
        let tracer = self.tracer;
        let tf = tracer.turns_factor;
        let lanes = t * B..(t + 1) * B;
        let (wide, coarse) = (self.wide, self.coarse);
        let (v, dist) = self.distances(&tracer.tiles.x[lanes.clone()], &tracer.tiles.z[lanes]);
        for &(i, j, target) in wide {
            let (di, dj) = (&dist[i], &dist[j]);
            for b in 0..B {
                let r = tf * (di[b] - dj[b]) - target;
                v[b] -= r * r;
            }
        }
        for &(i, j, measured) in coarse {
            let (di, dj) = (&dist[i], &dist[j]);
            for b in 0..B {
                let f = frac_dist_to_integer(tf * (di[b] - dj[b]) - measured);
                v[b] -= f * f;
            }
        }
        v
    }
}

/// Subtracts each of `pairs`' squared term floors from a block of tile
/// bounds `v`, given the centres' antenna distances `dist` and the tiles'
/// `(ρ, |c| + ρ)`: `core` is `|r|` for wide terms and the fold for coarse
/// ones ([`Tick::bounds`]). Generic in `core`, so each kind of term gets
/// its own vectorizable lane loop.
fn subtract_floors(
    v: &mut [f64; STEP_BLOCK],
    dist: &[[f64; STEP_BLOCK]],
    (rho, reach): (&[f64], &[f64]),
    tf: f64,
    pairs: &[PairBound],
    core: impl Fn(f64) -> f64,
) {
    let (rho, reach) = (&rho[..STEP_BLOCK], &reach[..STEP_BLOCK]);
    let cap = 2.0 * tf;
    for &(i, j, target, gradient, curvature, slack) in pairs {
        let (di, dj) = (&dist[i], &dist[j]);
        for b in 0..STEP_BLOCK {
            let x = tf * (di[b] - dj[b]) - target;
            // The smaller of the two gradient bounds (`cap` if the first
            // is NaN).
            let g = gradient + reach[b] * curvature;
            let delta = rho[b] * if g < cap { g } else { cap };
            let l = core(x) - delta - (BOUND_SLACK * (x.abs() + delta) + slack);
            // A NaN floor stays NaN: its tile is never pruned.
            let l = if l < 0.0 { 0.0 } else { l };
            v[b] -= l * l;
        }
    }
}

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
}

impl Default for TraceConfig {
    fn default() -> Self {
        Self {
            vicinity_radius: 0.10,
            step_resolution: 0.005,
            include_coarse: true,
            smooth_window: 3,
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
    /// The vicinity disc's offsets cut into tiles, shared by clones.
    tiles: Arc<Tiles>,
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
        let tiles = Arc::new(Tiles::new(config.vicinity_radius, config.step_resolution));
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
            tiles,
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
        self.wide_targets(snap, locked, &mut wide_targets);
        let mut coarse_targets = Vec::new();
        self.coarse_targets(snap, &mut coarse_targets);
        let step = self.step(prev, &wide_targets, &coarse_targets);
        (step.point, step.vote)
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
        let step = self.step(prev, &wide_targets, &coarse_targets);
        Some((step.point, step.vote))
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
            self.wide_targets(snap, &locked, &mut wide_targets);
            coarse_targets.clear();
            self.coarse_targets(snap, &mut coarse_targets);
            let step = self.step(prev, &wide_targets, &coarse_targets);
            points.push(step.point);
            votes.push(step.vote);
            prev = step.point;
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
        let _span = obs::SpanTimer::start(
            self.sink.as_ref(),
            self.session,
            Stage::TraceAdvance,
            candidates.len() as f64,
        );
        let traces: Vec<TraceResult> = candidates
            .iter()
            .map(|&c| self.trace_from(c, snapshots))
            .collect();
        // Per-candidate vote mass, emitted in candidate order.
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

    /// Appends every wide pair's `(i, j, target_turns)` target, in
    /// deployment order: the snapshot's unwrapped turns plus the pair's
    /// locked lobe (`locked` in wide-pair order, as
    /// [`TrajectoryTracer::lock_lobes`] returns it).
    ///
    /// # Panics
    /// Panics if the snapshot lacks a wide pair.
    fn wide_targets(
        &self,
        snap: &PairSnapshot,
        locked: &[(AntennaPair, i64)],
        out: &mut Vec<(usize, usize, f64)>,
    ) {
        for (idx, &(pair, i, j)) in self.wide_idx.iter().enumerate() {
            let turns = snap
                .turns_of(pair)
                .unwrap_or_else(|| panic!("snapshot lacks wide pair {pair:?}"));
            out.push((i, j, turns + locked[idx].1 as f64));
        }
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

    /// One tracing step: the vicinity point with the best total vote,
    /// ties to the lowest index in the disc's row-major scan.
    ///
    /// `wide_targets` are `(i, j, target_turns)` — antenna indices into
    /// `dep.antennas()` — with the locked lobe folded into the target
    /// (fixed-lobe quadratic penalty); `coarse_targets` are
    /// `(i, j, measured_turns)` scored against the nearest lobe.
    ///
    /// A branch-and-bound scan (DESIGN.md §16). The bound pass scores each
    /// tile's centre, blocks of [`STEP_BLOCK`] tiles at a time, and turns
    /// it into an upper bound on every vote the tile's lanes can compute.
    /// Tiles are then scored best bound first, and the scan stops at the
    /// first tile whose bound is below the best vote found: no lane from
    /// there on can win or tie. A scored tile runs the per-point
    /// arithmetic of a one-point-at-a-time scan — each referenced
    /// antenna's distance once per lane, the same
    /// [`crate::geom::Point3::dist`] expression, wide then coarse terms in
    /// order, `v -= r·r` — on its 16 lanes in fixed-width loops the
    /// compiler vectorizes. Keeping the best vote with ties to the lowest
    /// scan index, and accepting only votes above `−∞`, gives the point
    /// and vote bits of the full scan's first strict maximum; a disc with
    /// no vote above `−∞` returns `prev` with `−∞`.
    fn step(
        &self,
        prev: Point2,
        wide_targets: &[(usize, usize, f64)],
        coarse_targets: &[(usize, usize, f64)],
    ) -> Step {
        const B: usize = STEP_BLOCK;
        let tiles = &*self.tiles;
        let mut tick = Tick::new(self, prev, wide_targets, coarse_targets);
        // `(bound, tile)`, best first, a NaN bound read as `+∞` so that it
        // is never pruned.
        let mut order: Vec<(f64, usize)> = tick
            .bounds()
            .into_iter()
            .map(|u| if u.is_nan() { f64::INFINITY } else { u })
            .zip(0..)
            .collect();
        order.sort_unstable_by(|a, b| b.0.total_cmp(&a.0));

        let mut best = prev;
        let mut best_vote = f64::NEG_INFINITY;
        // With `best_vote` at `−∞`, no index ties below 0: only a vote
        // above `−∞` is accepted.
        let mut best_scan = 0;
        let mut scored_tiles = 0;
        for &(bound, t) in &order {
            if bound < best_vote {
                break;
            }
            scored_tiles += 1;
            let votes = tick.votes(t);
            let lanes = t * B..(t + 1) * B;
            let scan = &tiles.scan[lanes.clone()];
            let (ox, oz) = (&tiles.x[lanes.clone()], &tiles.z[lanes]);
            for (b, (&vb, &idx)) in votes.iter().zip(scan).enumerate().take(tiles.lanes(t)) {
                if vb > best_vote || (vb == best_vote && idx < best_scan) {
                    best_vote = vb;
                    best_scan = idx;
                    best = Point2::new(prev.x + ox[b], prev.z + oz[b]);
                }
            }
        }
        Step {
            point: best,
            vote: best_vote,
            scored_tiles,
        }
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
    use rand::{rngs::StdRng, Rng, SeedableRng};

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

    /// Ideal snapshot of a tag at `at` plus up to ±0.3 turns of noise per
    /// pair, on the unwrapped and the wrapped turns alike.
    fn noisy_snapshot(
        dep: &Deployment,
        plane: Plane,
        at: Point2,
        rng: &mut StdRng,
    ) -> PairSnapshot {
        let mut snap = ideal_snapshots(dep, plane, &[at], 0.04).remove(0);
        for (m, (_, turns)) in snap.wrapped.iter_mut().zip(&mut snap.unwrapped_turns) {
            let noise = rng.gen_range(-0.3..0.3);
            *turns += noise;
            m.delta_phi = crate::phase::wrap_pi(m.delta_phi + TAU * noise);
        }
        snap
    }

    /// Locks the wide pairs at `prev`, each lock moved by −1, 0 or +1.
    fn off_by_one_locks(
        tracer: &TrajectoryTracer,
        snap: &PairSnapshot,
        prev: Point2,
        rng: &mut StdRng,
    ) -> Vec<(AntennaPair, i64)> {
        let mut locked = tracer.lock_lobes(snap, prev);
        for (_, k) in &mut locked {
            *k += rng.gen_range(-1i64..2);
        }
        locked
    }

    /// The step's `(wide, coarse)` targets for a full lock set.
    type Targets = (Vec<(usize, usize, f64)>, Vec<(usize, usize, f64)>);
    fn targets(
        tracer: &TrajectoryTracer,
        snap: &PairSnapshot,
        locked: &[(AntennaPair, i64)],
    ) -> Targets {
        let (mut wide, mut coarse) = (Vec::new(), Vec::new());
        tracer.wide_targets(snap, locked, &mut wide);
        tracer.coarse_targets(snap, &mut coarse);
        (wide, coarse)
    }

    /// The bound pass, checked on its own: every lane's vote is at most its
    /// tile's bound, where the bound is weakest. Shallow planes make the
    /// distances' curvature large (and put the disc within its reach of an
    /// antenna, the `d − R ≤ 0` fallback); previous points sit at and
    /// around antennas and outside the antenna square; and whole-turn
    /// shifts past 2⁵² round the turns more coarsely than a tile moves
    /// them. The equivalence suite sees a bound that is too low only when
    /// it prunes the winner; this test sees it at any lane.
    #[test]
    fn tile_bounds_hold_every_lane_vote() {
        let dep = Deployment::paper_default();
        let mut rng = StdRng::seed_from_u64(16);
        let mut lanes = 0;
        for depth in [0.1, 0.13, 0.17, 0.22, 0.3, 0.5, 2.0] {
            let plane = Plane::at_depth(depth);
            for include_coarse in [true, false] {
                let config = TraceConfig { include_coarse, ..TraceConfig::default() };
                let tracer = TrajectoryTracer::new(dep.clone(), plane, config);
                for shift_exp in [0, 12, 40, 52, 53, 54, 56, 60] {
                    for n in 0..6 {
                        let mut jitter =
                            |r: f64| Point2::new(rng.gen_range(-r..r), rng.gen_range(-r..r));
                        let prev = if n < 4 {
                            let a = dep.antennas()[n % dep.antennas().len()].pos;
                            Point2::new(a.x, a.z) + jitter(0.1)
                        } else {
                            Point2::new(1.3, 1.3) + jitter(1.9)
                        };
                        let at = prev + jitter(0.05);
                        let mut snap = noisy_snapshot(&dep, plane, at, &mut rng);
                        let locked = off_by_one_locks(&tracer, &snap, prev, &mut rng);
                        if shift_exp > 0 {
                            for (_, turns) in &mut snap.unwrapped_turns {
                                let whole = rng.gen_range(1u64 << (shift_exp - 1)..1 << shift_exp);
                                let sign = if rng.gen_range(0.0..1.0) < 0.5 { 1.0 } else { -1.0 };
                                *turns += sign * whole as f64;
                            }
                        }
                        let (wide, coarse) = targets(&tracer, &snap, &locked);
                        // The whole target set, and each pair on its own,
                        // where no other pair's slack can hide its bound.
                        let mut sets = vec![(wide.clone(), coarse.clone())];
                        sets.extend(wide.iter().map(|&w| (vec![w], vec![])));
                        sets.extend(coarse.iter().map(|&c| (vec![], vec![c])));
                        for (wide, coarse) in &sets {
                            let mut tick = Tick::new(&tracer, prev, wide, coarse);
                            let bounds = tick.bounds();
                            for (t, &bound) in bounds.iter().enumerate() {
                                let votes = *tick.votes(t);
                                let real = votes.iter().take(tracer.tiles.lanes(t));
                                for (b, &vote) in real.enumerate() {
                                    assert!(
                                        !(vote > bound),
                                        "depth {depth}, prev {prev:?}, shift 2^{shift_exp}, \
                                         {} wide and {} coarse targets, tile {t} lane {b}: \
                                         vote {vote:e} above bound {bound:e}",
                                        wide.len(),
                                        coarse.len()
                                    );
                                    lanes += 1;
                                }
                            }
                        }
                    }
                }
            }
        }
        assert_eq!(lanes, 7 * (13 + 7) * 8 * 6 * 1257);
    }

    /// The bit-identity suites cannot see a bound that stops pruning, so
    /// the pruning is pinned as a count: on a seeded noisy stream (±0.3
    /// turns of noise per pair, locks off by one), the scan must score at
    /// most a bounded share of the default disc's 79 tiles.
    #[test]
    fn noisy_ticks_score_a_bounded_share_of_tiles() {
        let (dep, plane, tracer) = setup();
        assert_eq!(tracer.tiles.points, 1257);
        assert_eq!(tracer.tiles.count(), 79);
        let mut rng = StdRng::seed_from_u64(28);
        let path = dense(&letter_q_path(), 3);
        let (mut scored, mut ticks) = (0, 0);
        let mut prev = path[0];
        for &at in &path[1..] {
            let snap = noisy_snapshot(&dep, plane, at, &mut rng);
            let locked = off_by_one_locks(&tracer, &snap, prev, &mut rng);
            let (wide, coarse) = targets(&tracer, &snap, &locked);
            let step = tracer.step(prev, &wide, &coarse);
            scored += step.scored_tiles;
            ticks += 1;
            prev = step.point;
        }
        // Measured: 31.7% of 210 ticks × 79 tiles.
        let share = scored as f64 / (ticks * tracer.tiles.count()) as f64;
        assert!(share < 0.36, "scored {share:.3} of the tiles");
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
