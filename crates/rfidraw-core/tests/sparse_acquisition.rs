//! Sparse acquisition against its dense form. Stage 2 of
//! [`MultiResPositioner`] lifts the stage-1 filter to the list of kept fine
//! cells, scores only those cells and picks its candidates among them with
//! a k-pass peak picker. The dense reference here computes what
//! acquisition computed before: the per-cell lift to a full fine mask, a
//! full fine map with `−∞` on the dropped cells
//! ([`VoteMap::evaluate_masked`] at f64, the full i16 engine map at i16),
//! and the peaks of a stable descending sort plus a greedy non-maximum
//! suppression pass, kept verbatim in [`sorted_peaks`]. Every kept cell,
//! vote and candidate must match it bit for bit.

use proptest::prelude::*;
use rand::{rngs::StdRng, Rng, SeedableRng};
use rfidraw_core::array::Deployment;
use rfidraw_core::exec::Parallelism;
use rfidraw_core::geom::{Plane, Point2, Rect};
use rfidraw_core::grid::{Grid2, VoteMap};
use rfidraw_core::phase::wrap_pi;
use rfidraw_core::position::{Candidate, MultiResConfig, MultiResPositioner};
use rfidraw_core::vote::{ideal_measurements, PairMeasurement};
use rfidraw_core::{TablePrecision, VoteEngine};
use std::f64::consts::PI;

/// `VoteMap::peaks` as it was before the k-pass picker, kept verbatim:
/// the finite cells in a stable descending sort, then one greedy pass
/// that keeps each cell at least `min_separation` from those kept before.
fn sorted_peaks(map: &VoteMap, max_peaks: usize, min_separation: f64) -> Vec<(Point2, f64)> {
    let (grid, values) = (map.grid(), map.values());
    let mut order: Vec<usize> = (0..values.len())
        .filter(|&i| values[i].is_finite())
        .collect();
    order.sort_by(|&a, &b| values[b].partial_cmp(&values[a]).expect("finite votes"));
    let mut picked: Vec<(Point2, f64)> = Vec::new();
    for idx in order {
        if picked.len() >= max_peaks {
            break;
        }
        let (ix, iz) = grid.unflat(idx);
        let p = grid.point(ix, iz);
        if picked.iter().all(|(q, _)| q.dist(p) >= min_separation) {
            picked.push((p, values[idx]));
        }
    }
    picked
}

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

fn peak_bits(peaks: &[(Point2, f64)]) -> Vec<[u64; 3]> {
    peaks
        .iter()
        .map(|(p, v)| [p.x.to_bits(), p.z.to_bits(), v.to_bits()])
        .collect()
}

fn candidate_bits(candidates: &[Candidate]) -> Vec<[u64; 3]> {
    let peaks: Vec<(Point2, f64)> = candidates.iter().map(|c| (c.position, c.vote)).collect();
    peak_bits(&peaks)
}

/// The dense form of one acquisition under `config`: the fine mask, the
/// masked fine map and the ranked candidates, or `None` where
/// `try_locate` declines (no coarse or no wide measurement).
fn dense_reference(
    dep: &Deployment,
    plane: Plane,
    config: &MultiResConfig,
    ms: &[PairMeasurement],
) -> Option<(Vec<bool>, VoteMap, Vec<Candidate>)> {
    let is_wide = |m: &&PairMeasurement| dep.wide_pairs().contains(&m.pair);
    let wide: Vec<PairMeasurement> = ms.iter().filter(is_wide).copied().collect();
    let coarse: Vec<PairMeasurement> = ms
        .iter()
        .filter(|m| !is_wide(m) && dep.coarse_pairs().any(|p| *p == m.pair))
        .copied()
        .collect();
    if coarse.is_empty() || wide.is_empty() {
        return None;
    }
    let all: Vec<PairMeasurement> = wide.iter().chain(&coarse).copied().collect();
    let coarse_grid = Grid2::new(config.region, config.coarse_resolution);
    let fine_grid = Grid2::new(config.region, config.fine_resolution);
    let i16_engine = |grid: &Grid2| {
        let mut engine = VoteEngine::for_deployment(dep, plane, grid.clone(), Parallelism::Serial);
        engine.set_precision(TablePrecision::I16);
        engine
    };
    let coarse_map = match config.precision {
        TablePrecision::F64 => VoteMap::evaluate(dep, &coarse, plane, coarse_grid.clone()),
        TablePrecision::I16 => i16_engine(&coarse_grid).evaluate(&coarse),
    };
    let mask = coarse_map.mask_top_fraction(config.coarse_keep_fraction);
    let fine_mask: Vec<bool> = fine_grid
        .iter()
        .map(|(_, p)| {
            let (ix, iz) = coarse_grid.nearest(p);
            mask[coarse_grid.flat(ix, iz)]
        })
        .collect();
    let fine_map = match config.precision {
        TablePrecision::F64 => VoteMap::evaluate_masked(dep, &all, plane, fine_grid, &fine_mask),
        TablePrecision::I16 => {
            let full = i16_engine(&fine_grid).evaluate(&all);
            let values = full
                .values()
                .iter()
                .zip(&fine_mask)
                .map(|(&v, &keep)| if keep { v } else { f64::NEG_INFINITY })
                .collect();
            VoteMap::from_values(fine_grid, values)
        }
    };
    let candidates = sorted_peaks(
        &fine_map,
        config.max_candidates,
        config.candidate_separation,
    )
    .into_iter()
    .map(|(position, vote)| Candidate { position, vote })
    .collect();
    Some((fine_mask, fine_map, candidates))
}

/// A measurement set over the paper deployment: the forward model for a
/// random tag in `region` with no, mild or heavy phase noise, or uniformly
/// random phases; in half the sets each pair is then dropped with a random
/// probability, so some sets lose every coarse or every wide pair.
fn measurements(
    rng: &mut StdRng,
    dep: &Deployment,
    plane: Plane,
    region: Rect,
) -> Vec<PairMeasurement> {
    let tag = Point2::new(
        rng.gen_range(region.min.x..region.max.x),
        rng.gen_range(region.min.z..region.max.z),
    );
    let mut ms = ideal_measurements(dep, dep.all_pairs(), plane.lift(tag));
    match rng.gen_range(0usize..4) {
        0 => {}
        1 => ms.iter_mut().for_each(|m| {
            m.delta_phi = wrap_pi(m.delta_phi + rng.gen_range(-0.3..0.3));
        }),
        2 => ms.iter_mut().for_each(|m| {
            m.delta_phi = wrap_pi(m.delta_phi + rng.gen_range(-1.5..1.5));
        }),
        _ => ms
            .iter_mut()
            .for_each(|m| m.delta_phi = rng.gen_range(-PI..PI)),
    }
    if rng.gen::<bool>() {
        let keep = rng.gen_range(0.2..1.0);
        ms.retain(|_| rng.gen_range(0.0..1.0) < keep);
    }
    ms
}

proptest! {
    /// `try_locate`, `try_locate_with_stages` and `locate_with_stages`
    /// against the dense reference, bit for bit: random sub-regions,
    /// depths, fine resolutions, filter fractions, candidate counts and
    /// separations; F64 and I16; with the fine table prebuilt (gathered
    /// from) or lazy (computed on the fly); serial and several thread
    /// counts.
    #[test]
    fn sparse_acquisition_matches_dense_reference(
        seed in any::<u64>(),
        precision_idx in 0usize..2,
        prebuild in any::<bool>(),
        par_idx in 0usize..4,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let dep = Deployment::paper_default();
        let plane = Plane::at_depth(rng.gen_range(1.5..3.5));
        let (x0, z0) = (rng.gen_range(-0.5..1.0), rng.gen_range(-0.2..0.8));
        let (w, h) = (rng.gen_range(0.6..2.6), rng.gen_range(0.5..1.8));
        let region = Rect::new(Point2::new(x0, z0), Point2::new(x0 + w, z0 + h));
        let mut config = MultiResConfig::for_region(region);
        config.fine_resolution = [0.015, 0.02, 0.025][rng.gen_range(0usize..3)];
        config.coarse_keep_fraction = rng.gen_range(0.02..0.3);
        config.max_candidates = rng.gen_range(1usize..6);
        config.candidate_separation = [0.0, 0.05, 0.15, 0.3][rng.gen_range(0usize..4)];
        config.parallelism = [
            Parallelism::Serial,
            Parallelism::Threads(2),
            Parallelism::Threads(3),
            Parallelism::Auto,
        ][par_idx];
        config.precision = [TablePrecision::F64, TablePrecision::I16][precision_idx];
        let positioner = MultiResPositioner::new(dep.clone(), plane, config.clone());
        if prebuild {
            positioner.prebuild_tables();
        }
        for set in 0..3 {
            let ms = measurements(&mut rng, &dep, plane, region);
            let stages = positioner.try_locate_with_stages(&ms);
            let Some((mask, map, want)) = dense_reference(&dep, plane, &config, &ms) else {
                prop_assert!(stages.is_none(), "set {}: sparse located, dense declined", set);
                prop_assert!(positioner.try_locate(&ms).is_none());
                continue;
            };
            let Some(stages) = stages else {
                return Err(TestCaseError::fail(format!("set {set}: sparse declined")));
            };
            let kept: Vec<usize> = (0..mask.len()).filter(|&c| mask[c]).collect();
            let kept_votes: Vec<f64> = kept.iter().map(|&c| map.values()[c]).collect();
            prop_assert_eq!(&stages.fine_cells, &kept, "set {}", set);
            prop_assert_eq!(bits(&stages.fine_votes), bits(&kept_votes), "set {}", set);
            prop_assert_eq!(candidate_bits(&stages.candidates), candidate_bits(&want));
            let located = positioner.try_locate(&ms).expect("stages located");
            prop_assert_eq!(candidate_bits(&located), candidate_bits(&want));
            let full = positioner.locate_with_stages(&ms).candidates;
            prop_assert_eq!(candidate_bits(&full), candidate_bits(&want));
        }
    }

    /// The k-pass peak picker against the sort-and-greedy reference on the
    /// dense map it replaces, over random cell lists (every cell or a
    /// random ascending subset) of small unit-resolution grids. Votes mix
    /// continuous values with ties, `±0`, `±∞` and NaN; `max_peaks` runs
    /// from 0 past the cell count; `min_separation` takes negative, zero,
    /// on-lattice (exact distance ties), off-lattice and NaN values.
    /// `VoteMap::peaks`, which runs the picker over every cell, must
    /// match the reference on the dense map too.
    #[test]
    fn peak_picker_matches_sorted_greedy_reference(
        seed in any::<u64>(),
        nx in 2usize..12,
        nz in 2usize..12,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let rect = Rect::new(
            Point2::new(0.0, 0.0),
            Point2::new((nx - 1) as f64, (nz - 1) as f64),
        );
        let grid = Grid2::new(rect, 1.0);
        let density = if rng.gen::<bool>() { 1.0 } else { rng.gen_range(0.1..1.0) };
        let cells: Vec<usize> = (0..grid.len())
            .filter(|_| rng.gen_range(0.0..1.0) < density)
            .collect();
        let palette = [-3.0, -2.5, -1.0, -0.0, 0.0, f64::NEG_INFINITY, f64::INFINITY, f64::NAN];
        let votes: Vec<f64> = cells
            .iter()
            .map(|_| match rng.gen_range(0usize..palette.len() + 3) {
                i if i < palette.len() => palette[i],
                _ => rng.gen_range(-4.0..0.0),
            })
            .collect();
        let mut dense = vec![f64::NEG_INFINITY; grid.len()];
        for (&c, &v) in cells.iter().zip(&votes) {
            dense[c] = v;
        }
        let map = VoteMap::from_values(grid.clone(), dense);
        let seps = [-1.0, 0.0, 1.0, 1.5, 2.0, 2.5, 3.5, f64::NAN];
        for _ in 0..4 {
            let max_peaks = rng.gen_range(0..grid.len() + 3);
            let min_sep = seps[rng.gen_range(0usize..seps.len())];
            let want = peak_bits(&sorted_peaks(&map, max_peaks, min_sep));
            let got = grid.pick_peaks(&cells, &votes, max_peaks, min_sep);
            prop_assert_eq!(peak_bits(&got), want.clone(), "k {} sep {}", max_peaks, min_sep);
            prop_assert_eq!(peak_bits(&map.peaks(max_peaks, min_sep)), want);
        }
    }
}
