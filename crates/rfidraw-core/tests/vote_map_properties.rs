//! Property-based tests for [`VoteMap`] peak extraction, non-maximum
//! suppression and threshold masking, on synthetic maps built with
//! [`VoteMap::from_values`] (arbitrary vote surfaces, not just physical
//! ones).
//!
//! The grid uses a 1 m resolution so lattice coordinates are exact in
//! `f64` and the geometric assertions below have no rounding slack to hide
//! behind.

use proptest::prelude::*;
use rand::{rngs::StdRng, Rng, SeedableRng};
use rfidraw_core::geom::{Point2, Rect};
use rfidraw_core::grid::{Grid2, VoteMap};

/// Builds an `nx × nz` unit-resolution grid and wraps the first `nx·nz`
/// of `raw` as its vote surface.
fn synthetic_map(nx: usize, nz: usize, raw: &[f64]) -> VoteMap {
    assert!(raw.len() >= nx * nz);
    let rect = Rect::new(
        Point2::new(0.0, 0.0),
        Point2::new((nx - 1) as f64, (nz - 1) as f64),
    );
    let grid = Grid2::new(rect, 1.0);
    assert_eq!(grid.nx(), nx);
    assert_eq!(grid.nz(), nz);
    VoteMap::from_values(grid, raw[..nx * nz].to_vec())
}

/// True when `mask_a` keeps a subset of what `mask_b` keeps.
fn is_subset(mask_a: &[bool], mask_b: &[bool]) -> bool {
    mask_a.iter().zip(mask_b).all(|(&a, &b)| !a || b)
}

proptest! {
    #[test]
    fn peaks_are_sorted_and_respect_the_suppression_radius(
        nx in 2usize..10,
        nz in 2usize..10,
        raw in proptest::collection::vec(-5.0f64..0.0, 81..82),
        min_sep in 1.0f64..3.5,
        max_peaks in 1usize..12,
    ) {
        let map = synthetic_map(nx, nz, &raw);
        let peaks = map.peaks(max_peaks, min_sep);
        prop_assert!(peaks.len() <= max_peaks);
        prop_assert!(!peaks.is_empty(), "finite cells exist, so at least one peak");
        for w in peaks.windows(2) {
            prop_assert!(w[0].1 >= w[1].1, "peaks not sorted by vote");
        }
        for (i, (p, _)) in peaks.iter().enumerate() {
            for (q, _) in &peaks[i + 1..] {
                prop_assert!(p.dist(*q) >= min_sep, "NMS violated: {p:?} vs {q:?}");
            }
        }
    }

    #[test]
    fn every_cell_is_a_peak_or_suppressed_by_a_better_one(
        nx in 2usize..10,
        nz in 2usize..10,
        raw in proptest::collection::vec(-5.0f64..0.0, 81..82),
        min_sep in 1.0f64..3.5,
    ) {
        // With an unbounded peak budget, NMS partitions the lattice: every
        // cell is either picked or lies within the suppression radius of a
        // picked peak with a vote at least as good.
        let map = synthetic_map(nx, nz, &raw);
        let peaks = map.peaks(nx * nz, min_sep);
        let grid = map.grid().clone();
        for (idx, p) in grid.iter() {
            let v = map.values()[idx];
            let dominated = peaks
                .iter()
                .any(|(q, qv)| q.dist(p) < 1e-12 || (q.dist(p) < min_sep && *qv >= v));
            prop_assert!(dominated, "cell {p:?} (vote {v}) escaped NMS");
        }
    }

    #[test]
    fn best_peak_is_the_global_and_a_local_maximum(
        nx in 2usize..10,
        nz in 2usize..10,
        raw in proptest::collection::vec(-5.0f64..0.0, 81..82),
        min_sep in 1.0f64..3.5,
    ) {
        let map = synthetic_map(nx, nz, &raw);
        let peaks = map.peaks(4, min_sep);
        let (_, max_v) = map.argmax();
        // The first peak carries the global maximum vote...
        prop_assert_eq!(peaks[0].1.to_bits(), max_v.to_bits());
        // ...and every peak dominates its 4-neighbourhood unless the better
        // neighbour was already suppressed by an earlier (better) peak.
        let grid = map.grid().clone();
        for (k, (p, v)) in peaks.iter().enumerate() {
            let (ix, iz) = grid.nearest(*p);
            let mut neighbours = Vec::new();
            if ix > 0 { neighbours.push((ix - 1, iz)); }
            if ix + 1 < grid.nx() { neighbours.push((ix + 1, iz)); }
            if iz > 0 { neighbours.push((ix, iz - 1)); }
            if iz + 1 < grid.nz() { neighbours.push((ix, iz + 1)); }
            for (qx, qz) in neighbours {
                let q = grid.point(qx, qz);
                let qv = map.values()[grid.flat(qx, qz)];
                let suppressed_earlier = peaks[..k]
                    .iter()
                    .any(|(e, _)| e.dist(q) < min_sep);
                prop_assert!(
                    qv <= *v || suppressed_earlier,
                    "peak {p:?} (vote {v}) beaten by free neighbour {q:?} (vote {qv})"
                );
            }
        }
    }

    #[test]
    fn slack_mask_is_monotone_and_keeps_the_argmax(
        nx in 2usize..10,
        nz in 2usize..10,
        raw in proptest::collection::vec(-5.0f64..0.0, 81..82),
        s1 in 0.0f64..5.0,
        s2 in 0.0f64..5.0,
    ) {
        let map = synthetic_map(nx, nz, &raw);
        let (lo, hi) = if s1 <= s2 { (s1, s2) } else { (s2, s1) };
        let tight = map.mask_within_of_max(lo);
        let loose = map.mask_within_of_max(hi);
        prop_assert!(is_subset(&tight, &loose), "slack mask not monotone");
        let (best, _) = map.argmax();
        let grid = map.grid();
        let (ix, iz) = grid.nearest(best);
        prop_assert!(tight[grid.flat(ix, iz)], "argmax cell masked out");
    }

    #[test]
    fn top_fraction_mask_is_monotone_and_large_enough(
        nx in 2usize..10,
        nz in 2usize..10,
        raw in proptest::collection::vec(-5.0f64..0.0, 81..82),
        f1 in 0.01f64..1.0,
        f2 in 0.01f64..1.0,
    ) {
        let map = synthetic_map(nx, nz, &raw);
        let (lo, hi) = if f1 <= f2 { (f1, f2) } else { (f2, f1) };
        let tight = map.mask_top_fraction(lo);
        let loose = map.mask_top_fraction(hi);
        prop_assert!(is_subset(&tight, &loose), "fraction mask not monotone");
        // The mask keeps at least ceil(fraction · cells) cells (ties can
        // only add more) and always the argmax cell.
        let keep = ((map.values().len() as f64 * lo).ceil() as usize).max(1);
        let kept = tight.iter().filter(|&&b| b).count();
        prop_assert!(kept >= keep, "kept {kept} < promised {keep}");
        let (best, _) = map.argmax();
        let grid = map.grid();
        let (ix, iz) = grid.nearest(best);
        prop_assert!(tight[grid.flat(ix, iz)], "argmax cell masked out");
    }

    #[test]
    fn masked_cells_never_become_peaks(
        nx in 2usize..10,
        nz in 2usize..10,
        raw in proptest::collection::vec(-5.0f64..0.0, 81..82),
        drop_every in 2usize..5,
    ) {
        // -inf (masked) cells are invisible to peak extraction.
        let mut values = raw[..nx * nz].to_vec();
        for (i, v) in values.iter_mut().enumerate() {
            if i % drop_every == 0 {
                *v = f64::NEG_INFINITY;
            }
        }
        let any_finite = values.iter().any(|v| v.is_finite());
        prop_assume!(any_finite);
        let map = synthetic_map(nx, nz, &values);
        let grid = map.grid().clone();
        for (p, v) in map.peaks(nx * nz, 1.0) {
            prop_assert!(v.is_finite());
            let (ix, iz) = grid.nearest(p);
            prop_assert!(grid.flat(ix, iz) % drop_every != 0, "masked cell picked");
        }
    }

    /// The acquisition's two mask steps against their first forms: the
    /// top-fraction threshold picked by a full descending sort, and the
    /// coarse-to-fine lift (the ascending kept fine cells) looking up
    /// `nearest` for every fine cell.
    /// Votes are drawn from a small palette (ties, `-0.0` next to `0.0`,
    /// `-inf` cells) mixed with continuous values; the fine grid is also
    /// laid over a shifted rectangle so the lift clamps at the edges.
    #[test]
    fn acquisition_masks_match_per_cell_and_sorted_forms(
        seed in any::<u64>(),
        x0 in -1.0f64..1.0,
        z0 in -1.0f64..1.0,
        w in 0.2f64..2.0,
        h in 0.2f64..2.0,
        coarse_res in 0.03f64..0.2,
        ratio in 0.1f64..1.0,
        ratio_idx in 0usize..6,
        shift in -0.3f64..0.3,
        fraction in 0.001f64..1.0,
        keep_all in any::<bool>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        // Half and quarter cells put fine points on the coarse grid's
        // rounding boundaries; a fraction of 1 selects the last slot.
        let fine_ratio = [0.5, 0.25, 1.0].get(ratio_idx).copied().unwrap_or(ratio);
        let fraction = if keep_all { 1.0 } else { fraction };
        let rect = Rect::new(Point2::new(x0, z0), Point2::new(x0 + w, z0 + h));
        let coarse = Grid2::new(rect, coarse_res);
        let palette = [-3.0, -2.5, -1.0, -0.0, 0.0, f64::NEG_INFINITY];
        let values: Vec<f64> = (0..coarse.len())
            .map(|_| match rng.gen_range(0usize..palette.len() + 2) {
                i if i < palette.len() => palette[i],
                _ => rng.gen_range(-4.0..0.0),
            })
            .collect();
        let map = VoteMap::from_values(coarse.clone(), values);

        let mut sorted: Vec<f64> = map.values().iter().copied().filter(|v| v.is_finite()).collect();
        sorted.sort_by(|a, b| b.partial_cmp(a).expect("finite votes"));
        let keep = ((sorted.len() as f64 * fraction).ceil() as usize).max(1);
        let threshold = sorted.get(keep - 1).copied().unwrap_or(f64::NEG_INFINITY);
        let want: Vec<bool> = map.values().iter().map(|&v| v >= threshold).collect();
        let mask = map.mask_top_fraction(fraction);
        prop_assert_eq!(&mask, &want);

        let moved = Point2::new(shift, -shift);
        for fine_rect in [rect, Rect::new(rect.min + moved, rect.max + moved)] {
            let fine = Grid2::new(fine_rect, coarse_res * fine_ratio);
            let per_cell: Vec<usize> = fine
                .iter()
                .filter(|&(_, p)| {
                    let (ix, iz) = coarse.nearest(p);
                    mask[coarse.flat(ix, iz)]
                })
                .map(|(i, _)| i)
                .collect();
            prop_assert_eq!(fine.lift_mask(&coarse, &mask), per_cell);
        }
    }
}
