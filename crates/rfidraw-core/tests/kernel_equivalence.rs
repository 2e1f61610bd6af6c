//! Property tests pinning the pair-major engine to the reference
//! [`VoteMap`] path bit-for-bit: random grids, measurement subsets and
//! masks. These are the determinism contract of the
//! engine's layout change — any divergence, even in the last mantissa bit,
//! fails here. The same contract covers the tracer's tick kernel (pinned
//! to a one-point-at-a-time, per-pair reference step) and the libm-free
//! nearest-integer fold both kernels share.

use proptest::prelude::*;
use rand::{rngs::StdRng, Rng, SeedableRng};
use rfidraw_core::array::{AntennaPair, Deployment};
use rfidraw_core::geom::{Plane, Point2, Point3, Rect};
use rfidraw_core::grid::{Grid2, VoteMap};
use rfidraw_core::phase::frac_dist_to_integer;
use rfidraw_core::position::Candidate;
use rfidraw_core::stream::PairSnapshot;
use rfidraw_core::trace::{ideal_snapshots, moving_average, TraceConfig, TrajectoryTracer};
use rfidraw_core::vote::{ideal_measurements, PairMeasurement};
use rfidraw_core::{TablePrecision, VoteEngine};
use std::hint::black_box;

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// The kept cells of `mask`, ascending: the shape of a lifted filter.
fn kept(mask: &[bool]) -> Vec<usize> {
    (0..mask.len()).filter(|&c| mask[c]).collect()
}

fn argmax(values: &[f64]) -> usize {
    let mut best = 0;
    for (i, &v) in values.iter().enumerate() {
        if v > values[best] {
            best = i;
        }
    }
    best
}

/// A random but valid scene: paper deployment, a plane at a random depth,
/// a random sub-rect of the tracking region at a random resolution, and
/// ideal measurements for a random in-region tag.
#[allow(clippy::type_complexity)]
fn scene(
    depth: f64,
    x0: f64,
    z0: f64,
    w: f64,
    h: f64,
    res: f64,
    tag_fx: f64,
    tag_fz: f64,
) -> (Deployment, Plane, Grid2, Vec<PairMeasurement>) {
    let dep = Deployment::paper_default();
    let plane = Plane::at_depth(depth);
    let grid = Grid2::new(
        Rect::new(Point2::new(x0, z0), Point2::new(x0 + w, z0 + h)),
        res,
    );
    let tag = Point2::new(x0 + tag_fx * w, z0 + tag_fz * h);
    let ms = ideal_measurements(&dep, dep.all_pairs(), plane.lift(tag));
    (dep, plane, grid, ms)
}

proptest! {
    /// Full-grid evaluation of any measurement subset equals the reference
    /// path bit-for-bit.
    #[test]
    fn engine_full_grid_matches_reference(
        depth in 1.0f64..4.0,
        x0 in -0.5f64..1.0,
        z0 in -0.5f64..1.0,
        w in 0.4f64..1.6,
        h in 0.4f64..1.6,
        res in 0.03f64..0.12,
        tag_fx in 0.1f64..0.9,
        tag_fz in 0.1f64..0.9,
        subset_mask in 0u32..255,
    ) {
        let (dep, plane, grid, all_ms) = scene(depth, x0, z0, w, h, res, tag_fx, tag_fz);
        // A non-empty random subset of the measurements (bit i keeps m[i]).
        let ms: Vec<PairMeasurement> = all_ms
            .iter()
            .enumerate()
            .filter(|(i, _)| subset_mask & (1 << (i % 8)) != 0 || subset_mask == 0)
            .map(|(_, &m)| m)
            .collect();
        prop_assume!(!ms.is_empty());

        let reference = VoteMap::evaluate(&dep, &ms, plane, grid.clone());
        let engine = VoteEngine::for_deployment(&dep, plane, grid);
        let evaluated = engine.evaluate(&ms);
        prop_assert_eq!(bits(reference.values()), bits(evaluated.values()));
    }

    /// Cell-list evaluation (both the lazy and the table-backed path) of a
    /// mask's kept cells equals the reference masked path on those cells
    /// bit-for-bit, for any mask.
    #[test]
    fn masked_paths_match_reference(
        depth in 1.0f64..4.0,
        res in 0.04f64..0.12,
        tag_fx in 0.1f64..0.9,
        tag_fz in 0.1f64..0.9,
        mask_seed in any::<u64>(),
        keep_mod in 2usize..7,
    ) {
        let (dep, plane, grid, ms) = scene(depth, 0.2, 0.1, 1.2, 0.9, res, tag_fx, tag_fz);
        // A pseudo-random mask from a seed (xorshift), density 1/keep_mod.
        let mut state = mask_seed | 1;
        let mask: Vec<bool> = (0..grid.len())
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state as usize) % keep_mod == 0
            })
            .collect();

        let cells = kept(&mask);
        let reference = VoteMap::evaluate_masked(&dep, &ms, plane, grid.clone(), &mask);
        let want: Vec<f64> = cells.iter().map(|&c| reference.values()[c]).collect();
        let engine = VoteEngine::for_deployment(&dep, plane, grid);
        let lazy = engine.evaluate_cells(&ms, &cells);
        engine.build_table();
        let tabled = engine.evaluate_cells(&ms, &cells);
        prop_assert_eq!(bits(&want), bits(&lazy));
        prop_assert_eq!(bits(&want), bits(&tabled));
    }

    /// The quantized engine's accuracy contract over random deployments,
    /// grids, and measurement subsets: every cell's
    /// vote differs from the f64 kernel by at most the *derived* bound
    /// ([`VoteEngine::vote_error_bound`]), and the argmax-identity theorem
    /// holds — whenever the f64 best/runner-up gap exceeds twice the
    /// bound the quantized argmax cell is exactly the f64 one; otherwise
    /// the quantized pick is still within `2·bound` of the f64 optimum.
    #[test]
    fn quantized_votes_stay_bounded_and_argmax_agrees(
        depth in 1.0f64..4.0,
        x0 in -0.5f64..1.0,
        z0 in -0.5f64..1.0,
        w in 0.4f64..1.6,
        h in 0.4f64..1.6,
        res in 0.03f64..0.12,
        tag_fx in 0.1f64..0.9,
        tag_fz in 0.1f64..0.9,
        subset_mask in 0u32..255,
    ) {
        let (dep, plane, grid, all_ms) = scene(depth, x0, z0, w, h, res, tag_fx, tag_fz);
        let ms: Vec<PairMeasurement> = all_ms
            .iter()
            .enumerate()
            .filter(|(i, _)| subset_mask & (1 << (i % 8)) != 0 || subset_mask == 0)
            .map(|(_, &m)| m)
            .collect();
        prop_assume!(!ms.is_empty());
        let precision = TablePrecision::I16;

        let engine64 = VoteEngine::for_deployment(&dep, plane, grid.clone());
        let mut engine_q = VoteEngine::for_deployment(&dep, plane, grid);
        engine_q.set_precision(precision);

        let bound = engine64.vote_error_bound(&ms, precision);
        let m64 = engine64.evaluate(&ms);
        let mq = engine_q.evaluate(&ms);

        let mut worst = 0.0f64;
        for (&a, &b) in m64.values().iter().zip(mq.values()) {
            worst = worst.max((a - b).abs());
        }
        prop_assert!(
            worst <= bound,
            "{:?}: worst |Δvote| {} exceeds the derived bound {}",
            precision,
            worst,
            bound
        );

        let best64 = argmax(m64.values());
        let best_q = argmax(mq.values());
        let runner_up = m64
            .values()
            .iter()
            .enumerate()
            .filter(|(i, _)| *i != best64)
            .map(|(_, &v)| v)
            .fold(f64::NEG_INFINITY, f64::max);
        let gap = m64.values()[best64] - runner_up;
        if gap > 2.0 * bound {
            prop_assert_eq!(
                best64, best_q,
                "{:?}: separated argmax must be identical", precision
            );
        } else {
            prop_assert!(
                m64.values()[best64] - m64.values()[best_q] <= 2.0 * bound,
                "{:?}: quantized pick is more than 2·bound below the f64 optimum",
                precision
            );
        }
    }

    /// The quantized paths keep the engine's determinism contract: a
    /// fresh engine reproduces the full map bit for bit, and the
    /// cell-list path (lazy quantize-on-the-fly, built for the baseline
    /// target in this crate, and table-backed through the dispatched
    /// gather kernel) matches the full map on a pseudo-random mask's kept
    /// cells.
    #[test]
    fn quantized_masked_matches_full_quantized_map(
        depth in 1.0f64..4.0,
        res in 0.04f64..0.12,
        tag_fx in 0.1f64..0.9,
        tag_fz in 0.1f64..0.9,
        mask_seed in any::<u64>(),
        keep_mod in 2usize..7,
    ) {
        let (dep, plane, grid, ms) = scene(depth, 0.2, 0.1, 1.2, 0.9, res, tag_fx, tag_fz);
        let precision = TablePrecision::I16;
        let mut engine = VoteEngine::for_deployment(&dep, plane, grid.clone());
        engine.set_precision(precision);
        let mut fresh = VoteEngine::for_deployment(&dep, plane, grid);
        fresh.set_precision(precision);

        let full = engine.evaluate(&ms);
        prop_assert_eq!(
            bits(full.values()),
            bits(fresh.evaluate(&ms).values()),
            "a fresh engine must reproduce the map bit for bit"
        );

        let mut state = mask_seed | 1;
        let mask: Vec<bool> = (0..engine.grid().len())
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state as usize) % keep_mod == 0
            })
            .collect();
        let cells = kept(&mask);
        let lazy = engine.evaluate_cells(&ms, &cells);
        engine.prebuild();
        let tabled = engine.evaluate_cells(&ms, &cells);
        prop_assert_eq!(bits(&lazy), bits(&tabled));
        let want: Vec<f64> = cells.iter().map(|&c| full.values()[c]).collect();
        prop_assert_eq!(bits(&want), bits(&lazy));
    }
}

// ---------------------------------------------------------------------
// The nearest-integer fold: `frac_dist_to_integer` vs `|x − x.round()|`.
// ---------------------------------------------------------------------

/// The definition the branch-free fold must reproduce bit for bit.
fn frac_round_form(x: f64) -> f64 {
    (x - x.round()).abs()
}

fn assert_fold_matches(x: f64) {
    let x = black_box(x);
    let got = frac_dist_to_integer(x);
    let want = frac_round_form(x);
    assert_eq!(
        got.to_bits(),
        want.to_bits(),
        "x = {x:e} ({:#018x}): fold {got:e} ({:#018x}) vs round form {want:e} ({:#018x})",
        x.to_bits(),
        got.to_bits(),
        want.to_bits()
    );
}

/// Every edge of the fold's case split: signed zeros, half-integer ties
/// (where the fold rounds to even and `round` away from zero), the
/// neighbours of ±2⁵¹, ±2⁵² and ±2⁵³ (where the f64 spacing becomes ½, 1
/// and 2), subnormals, the extremes, infinities and NaNs with assorted
/// payloads.
#[test]
fn frac_dist_to_integer_matches_round_form_on_edges() {
    let mut xs: Vec<f64> = vec![
        0.0,
        f64::from_bits(1),
        f64::from_bits(0x000f_ffff_ffff_ffff),
        f64::MIN_POSITIVE,
        f64::EPSILON,
        0.25,
        0.49999999999999994,
        0.5,
        0.5000000000000001,
        0.75,
        1.0,
        1.5,
        2.5,
        3.5,
        1234.5,
        1e15 + 0.5,
        f64::MAX,
        f64::INFINITY,
        f64::NAN,
        f64::from_bits(0x7ff0_0000_0000_0001),
        f64::from_bits(0x7ff8_dead_beef_0001),
    ];
    for e in [51, 52, 53] {
        let p = 2f64.powi(e);
        for d in -4i64..=4 {
            xs.push(f64::from_bits((p.to_bits() as i64 + d) as u64));
        }
        xs.extend([p - 0.5, p - 1.5, p + 0.5, p + 1.0, p + 2.0, p + 3.0]);
    }
    for k in 0..200 {
        xs.push(k as f64 + 0.5);
        xs.push(k as f64 * 0.37);
    }
    for x in xs.clone() {
        xs.push(-x);
    }
    for x in xs {
        assert_fold_matches(x);
    }
}

proptest! {
    /// Raw bit patterns (every sign, exponent, NaN payload) and values
    /// whose exponent is drawn from around the fold's 2⁵² switch and the
    /// sub-one range, where the rounding cases live.
    #[test]
    fn frac_dist_to_integer_matches_round_form_on_raw_bits(
        raw in proptest::collection::vec(any::<u64>(), 256..512),
        exponents in proptest::collection::vec(960u64..1090, 256..512),
    ) {
        let mut xs = Vec::with_capacity(2 * raw.len());
        for (&bits, &exp) in raw.iter().zip(exponents.iter().cycle()) {
            xs.push(f64::from_bits(bits));
            // Same sign and mantissa, steered exponent.
            xs.push(f64::from_bits((bits & 0x800f_ffff_ffff_ffff) | (exp << 52)));
        }
        for &x in &xs {
            assert_fold_matches(x);
        }
        // The same inputs through a slice map, the loop shape the sweeps
        // vectorize.
        let folded: Vec<f64> = black_box(&xs).iter().map(|&x| frac_dist_to_integer(x)).collect();
        for (&x, &f) in xs.iter().zip(&folded) {
            prop_assert_eq!(f.to_bits(), frac_round_form(x).to_bits(), "x = {:e}", x);
        }
    }
}

// ---------------------------------------------------------------------
// The tracer's tick kernel vs a one-point-at-a-time, per-pair reference.
// ---------------------------------------------------------------------

/// The per-tick step as first written: every vicinity point scored on its
/// own, two antenna distances per pair, the fold through `round`. The
/// tracer's blocked per-antenna kernel must reproduce its chosen point and
/// vote bit for bit.
struct ReferenceStep {
    dep: Deployment,
    plane: Plane,
    config: TraceConfig,
    offsets: Vec<Point2>,
}

impl ReferenceStep {
    fn new(dep: Deployment, plane: Plane, config: TraceConfig) -> Self {
        let r = config.vicinity_radius;
        let s = config.step_resolution;
        let n = (r / s).floor() as i64;
        let mut offsets = Vec::new();
        for iz in -n..=n {
            for ix in -n..=n {
                let o = Point2::new(ix as f64 * s, iz as f64 * s);
                if o.norm() <= r + 1e-12 {
                    offsets.push(o);
                }
            }
        }
        Self { dep, plane, config, offsets }
    }

    fn pos(&self, pair: AntennaPair) -> (Point3, Point3) {
        let a = |id| self.dep.antenna(id).expect("deployment pair").pos;
        (a(pair.i), a(pair.j))
    }

    /// `TrajectoryTracer::advance_avail`'s contract: wide pairs present in
    /// both the snapshot and `locked` vote in deployment order, then the
    /// coarse pairs the snapshot carries (if enabled); `None` without a
    /// wide pair.
    fn advance_avail(
        &self,
        prev: Point2,
        snap: &PairSnapshot,
        locked: &[(AntennaPair, i64)],
    ) -> Option<(Point2, f64)> {
        let mut wide = Vec::new();
        for &pair in self.dep.wide_pairs() {
            let Some(turns) = snap.turns_of(pair) else { continue };
            let Some(&(_, k)) = locked.iter().find(|(p, _)| *p == pair) else { continue };
            let (pi, pj) = self.pos(pair);
            wide.push((pi, pj, turns + k as f64));
        }
        if wide.is_empty() {
            return None;
        }
        let mut coarse = Vec::new();
        if self.config.include_coarse {
            for &pair in self.dep.coarse_pairs() {
                if let Some(m) = snap.wrapped.iter().find(|m| m.pair == pair) {
                    let (pi, pj) = self.pos(pair);
                    coarse.push((pi, pj, m.turns()));
                }
            }
        }
        let tf = self.dep.path_factor() / self.dep.wavelength().meters();
        let mut best = prev;
        let mut best_vote = f64::NEG_INFINITY;
        for off in &self.offsets {
            let p2 = prev + *off;
            let p3 = self.plane.lift(p2);
            let mut v = 0.0;
            for &(pi, pj, target) in &wide {
                let turns = tf * (p3.dist(pi) - p3.dist(pj));
                let r = turns - target;
                v -= r * r;
            }
            for &(pi, pj, measured) in &coarse {
                let turns = tf * (p3.dist(pi) - p3.dist(pj));
                let f = frac_round_form(turns - measured);
                v -= f * f;
            }
            if v > best_vote {
                best_vote = v;
                best = p2;
            }
        }
        Some((best, best_vote))
    }
}

/// A noisy snapshot of a tag near `at`: ideal phases plus up to ±0.3
/// turns of noise per pair, so votes are far from zero and lobe locks
/// can be off by one.
fn noisy_snapshot(dep: &Deployment, plane: Plane, at: Point2, rng: &mut StdRng) -> PairSnapshot {
    let mut snap = ideal_snapshots(dep, plane, &[at], 0.04).remove(0);
    for (m, (_, turns)) in snap.wrapped.iter_mut().zip(snap.unwrapped_turns.iter_mut()) {
        let noise = rng.gen_range(-0.3..0.3);
        *turns += noise;
        m.delta_phi = rfidraw_core::phase::wrap_pi(m.delta_phi + std::f64::consts::TAU * noise);
    }
    snap
}

fn same_step(got: Option<(Point2, f64)>, want: Option<(Point2, f64)>) -> Result<(), String> {
    let bits =
        |s: Option<(Point2, f64)>| s.map(|(p, v)| (p.x.to_bits(), p.z.to_bits(), v.to_bits()));
    if bits(got) == bits(want) {
        Ok(())
    } else {
        Err(format!("kernel {got:?} vs reference {want:?}"))
    }
}

/// Vicinity settings whose offset counts are not multiples of any power
/// of two above 1: 5 offsets (fewer than one block), 1257 (the default
/// 10 cm / 5 mm disc), and 317.
const ODD_VICINITIES: [(f64, f64); 3] = [(0.01, 0.01), (0.10, 0.005), (0.05, 0.005)];

/// A previous point of one of three kinds: inside the antenna square, a
/// few centimetres from an antenna (where a shallow plane puts the disc
/// within its reach of the antenna, the bound's `d − R ≤ 0` case), or
/// outside the antenna square.
fn previous_point(dep: &Deployment, kind: usize, rng: &mut StdRng) -> Point2 {
    let (mut lo, mut hi) = (Point2::new(f64::MAX, f64::MAX), Point2::new(f64::MIN, f64::MIN));
    for a in dep.antennas() {
        lo = Point2::new(lo.x.min(a.pos.x), lo.z.min(a.pos.z));
        hi = Point2::new(hi.x.max(a.pos.x), hi.z.max(a.pos.z));
    }
    match kind {
        0 => Point2::new(rng.gen_range(0.3..2.3), rng.gen_range(0.3..2.3)),
        1 => {
            let a = dep.antennas()[rng.gen_range(0..dep.antennas().len())].pos;
            Point2::new(a.x + rng.gen_range(-0.08..0.08), a.z + rng.gen_range(-0.08..0.08))
        }
        _ => {
            let out = rng.gen_range(0.05..1.5);
            let x = rng.gen_range(lo.x - 1.5..hi.x + 1.5);
            let z = rng.gen_range(lo.z - 1.5..hi.z + 1.5);
            match rng.gen_range(0..4) {
                0 => Point2::new(lo.x - out, z),
                1 => Point2::new(hi.x + out, z),
                2 => Point2::new(x, lo.z - out),
                _ => Point2::new(x, hi.z + out),
            }
        }
    }
}

/// Moves a locked snapshot's pair turns where the tile bound is weakest:
/// whole turns, between 2^(`shift_exp` − 1) and 2^`shift_exp`, added to
/// the unwrapped turns, so that the best vote is very negative and, past
/// 2⁵², the turns round more coarsely than a tile moves them; and NaN or
/// ±∞ in some pairs' unwrapped or wrapped turns.
fn hostile_turns(snap: &mut PairSnapshot, shift_exp: u32, non_finite: bool, rng: &mut StdRng) {
    if shift_exp > 0 {
        for (_, turns) in &mut snap.unwrapped_turns {
            let whole = rng.gen_range(1u64 << (shift_exp - 1)..1 << shift_exp) as f64;
            *turns += if rng.gen_range(0.0..1.0) < 0.5 { whole } else { -whole };
        }
    }
    if non_finite {
        let odd = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY];
        for (_, turns) in &mut snap.unwrapped_turns {
            if rng.gen_range(0.0..1.0) < 0.1 {
                *turns = odd[rng.gen_range(0..3)];
            }
        }
        for m in &mut snap.wrapped {
            if rng.gen_range(0.0..1.0) < 0.1 {
                m.delta_phi = odd[rng.gen_range(0..3)];
            }
        }
    }
}

proptest! {
    /// Random previous points (inside and outside the antenna square and
    /// next to antennas), plane depths down to 0.1 m, lobe locks (some off
    /// by one), noisy snapshots, turns off by whole turns and NaN or ±∞
    /// turns, degraded pair subsets, `include_coarse` on and off, and
    /// vicinity settings: `advance_avail`, `advance` and `trace_from` pick
    /// the same point with the same vote bits as the per-pair reference.
    #[test]
    fn trace_step_matches_per_pair_reference(
        seed in any::<u64>(),
        depth in 0.1f64..3.5,
        shallow in any::<bool>(),
        radius in 0.004f64..0.12,
        step_frac in 0.04f64..1.0,
        odd_idx in 0usize..6,
        include_coarse in any::<bool>(),
        drop_chance in 0.0f64..0.5,
        prev_kind in 0usize..3,
        hostile_idx in 0usize..4,
        shift_exp in 1u32..63,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let (vicinity_radius, step_resolution) = match ODD_VICINITIES.get(odd_idx) {
            Some(&fixed) => fixed,
            None => (radius, (radius * step_frac).max(radius / 30.0)),
        };
        let config = TraceConfig {
            vicinity_radius,
            step_resolution,
            include_coarse,
            ..TraceConfig::default()
        };
        // Half the cases on a plane within 0.3 m of the antenna wall, where
        // the distances' curvature is large.
        let depth = if shallow { 0.1 + (depth - 0.1) * 0.06 } else { depth };
        let dep = Deployment::paper_default();
        let plane = Plane::at_depth(depth);
        let tracer = TrajectoryTracer::new(dep.clone(), plane, config.clone());
        let reference = ReferenceStep::new(dep.clone(), plane, config);

        let mut prev = previous_point(&dep, prev_kind, &mut rng);
        let start = prev;
        let mut snaps = Vec::new();
        for _ in 0..4 {
            let at = prev + Point2::new(rng.gen_range(-0.05..0.05), rng.gen_range(-0.05..0.05));
            let mut snap = noisy_snapshot(&dep, plane, at, &mut rng);
            let mut locked = tracer.lock_lobes(&snap, prev);
            for (_, k) in &mut locked {
                *k += rng.gen_range(-1i64..2);
            }
            if hostile_idx > 0 {
                let shift = if hostile_idx & 1 == 1 { shift_exp } else { 0 };
                hostile_turns(&mut snap, shift, hostile_idx & 2 == 2, &mut rng);
            }

            // Full snapshot, full locks: both entry points.
            let want = reference.advance_avail(prev, &snap, &locked);
            same_step(Some(tracer.advance(prev, &snap, &locked)), want)
                .map_err(TestCaseError::fail)?;
            same_step(tracer.advance_avail(prev, &snap, &locked), want)
                .map_err(TestCaseError::fail)?;

            // A degraded pair subset and a partial lock set.
            let mut degraded = snap.clone();
            let gone: Vec<AntennaPair> = dep
                .all_pairs()
                .copied()
                .filter(|_| rng.gen_range(0.0..1.0) < drop_chance)
                .collect();
            degraded.wrapped.retain(|m| !gone.contains(&m.pair));
            degraded.unwrapped_turns.retain(|(p, _)| !gone.contains(p));
            let partial: Vec<(AntennaPair, i64)> = locked
                .iter()
                .copied()
                .filter(|_| rng.gen_range(0.0..1.0) >= drop_chance)
                .collect();
            same_step(
                tracer.advance_avail(prev, &degraded, &partial),
                reference.advance_avail(prev, &degraded, &partial),
            )
            .map_err(TestCaseError::fail)?;

            prev = want.expect("full lock set").0;
            snaps.push(snap);
        }

        // A whole trace: locks from the first snapshot, one reference step
        // per snapshot, the same smoothing.
        let traced = tracer.trace_from(Candidate { position: start, vote: 0.0 }, &snaps);
        let mut at = start;
        let mut points = Vec::new();
        for (snap, &vote) in snaps.iter().zip(&traced.per_step_votes) {
            let (next, want) = reference
                .advance_avail(at, snap, &traced.locked_lobes)
                .expect("full lock set");
            prop_assert_eq!(vote.to_bits(), want.to_bits());
            points.push(next);
            at = next;
        }
        let smoothed = moving_average(&points, tracer.config().smooth_window);
        for (got, want) in traced.points.iter().zip(&smoothed) {
            prop_assert_eq!(got.x.to_bits(), want.x.to_bits());
            prop_assert_eq!(got.z.to_bits(), want.z.to_bits());
        }
    }
}

/// Unwrapped turns of 10²⁰ swamp every wide term (`r` rounds to exactly
/// −10²⁰ at every vicinity point, and the coarse terms vanish below its
/// square's ulp), so the whole disc ties: the kernel must keep the first
/// point of the scan, as the reference does, not the last.
#[test]
fn trace_step_keeps_first_of_exactly_tied_points() {
    let dep = Deployment::paper_default();
    let plane = Plane::at_depth(2.0);
    for (vicinity_radius, step_resolution) in ODD_VICINITIES {
        let config = TraceConfig {
            vicinity_radius,
            step_resolution,
            ..TraceConfig::default()
        };
        let tracer = TrajectoryTracer::new(dep.clone(), plane, config.clone());
        let reference = ReferenceStep::new(dep.clone(), plane, config);
        let prev = Point2::new(1.2, 0.9);
        let mut snap = ideal_snapshots(&dep, plane, &[prev], 0.04).remove(0);
        for (_, turns) in &mut snap.unwrapped_turns {
            *turns = 1e20;
        }
        let locked = tracer.lock_lobes(&snap, prev);
        let want = reference.advance_avail(prev, &snap, &locked);
        assert_eq!(want.expect("wide pairs").0, prev + reference.offsets[0]);
        same_step(Some(tracer.advance(prev, &snap, &locked)), want).unwrap();
    }
}

