//! Search grids over the writing plane and vote-map evaluation (§5.1).
//!
//! The voting algorithm scores candidate positions on a regular 2-D grid
//! spanning the region of interest of the writing plane. [`Grid2`] describes
//! the lattice; [`VoteMap`] holds per-cell total votes and provides the
//! filtering operations the two-stage algorithm needs: thresholding into a
//! candidate mask (the coarse spatial filter of Fig. 6b–c) and peak
//! extraction with non-maximum suppression (the candidate positions fed to
//! the tracer).

use crate::array::Deployment;
use crate::geom::{Plane, Point2, Rect};
use crate::vote::PairMeasurement;
use serde::{Deserialize, Serialize};

/// A regular lattice over a rectangle of the writing plane.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Grid2 {
    rect: Rect,
    res: f64,
    nx: usize,
    nz: usize,
}

impl Grid2 {
    /// Creates a grid covering `rect` with cell size `res` metres.
    ///
    /// The lattice always includes both rectangle edges (the last row/column
    /// may overshoot by less than one cell).
    ///
    /// # Panics
    /// Panics if `res` is not finite-positive, or if the rectangle is
    /// degenerate, or if the grid would exceed 100 million cells (a guard
    /// against accidentally swapping metres and centimetres).
    pub fn new(rect: Rect, res: f64) -> Self {
        assert!(res.is_finite() && res > 0.0, "grid resolution must be positive, got {res}");
        assert!(
            rect.width() > 0.0 && rect.height() > 0.0,
            "grid rectangle must have positive area"
        );
        let nx = (rect.width() / res).ceil() as usize + 1;
        let nz = (rect.height() / res).ceil() as usize + 1;
        assert!(
            nx.saturating_mul(nz) <= 100_000_000,
            "grid of {nx}×{nz} cells is implausibly large; check units"
        );
        Self { rect, res, nx, nz }
    }

    /// The covered rectangle.
    pub fn rect(&self) -> Rect {
        self.rect
    }

    /// Cell size in metres.
    pub fn resolution(&self) -> f64 {
        self.res
    }

    /// Number of columns (x direction).
    pub fn nx(&self) -> usize {
        self.nx
    }

    /// Number of rows (z direction).
    pub fn nz(&self) -> usize {
        self.nz
    }

    /// Total number of lattice points.
    pub fn len(&self) -> usize {
        self.nx * self.nz
    }

    /// True when the grid has no points (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The lattice point at column `ix`, row `iz`.
    pub fn point(&self, ix: usize, iz: usize) -> Point2 {
        debug_assert!(ix < self.nx && iz < self.nz);
        Point2::new(
            self.rect.min.x + ix as f64 * self.res,
            self.rect.min.z + iz as f64 * self.res,
        )
    }

    /// Flat index of `(ix, iz)`, row-major over z.
    pub fn flat(&self, ix: usize, iz: usize) -> usize {
        iz * self.nx + ix
    }

    /// Inverse of [`Grid2::flat`].
    pub fn unflat(&self, idx: usize) -> (usize, usize) {
        (idx % self.nx, idx / self.nx)
    }

    /// Iterates `(flat_index, point)` over the lattice.
    pub fn iter(&self) -> impl Iterator<Item = (usize, Point2)> + '_ {
        (0..self.len()).map(move |i| {
            let (ix, iz) = self.unflat(i);
            (i, self.point(ix, iz))
        })
    }

    /// The lattice point nearest to an arbitrary plane point (clamped to the
    /// grid). The column depends only on `p.x` and the row only on `p.z`.
    pub fn nearest(&self, p: Point2) -> (usize, usize) {
        (self.nearest_column(p.x), self.nearest_row(p.z))
    }

    /// The column of [`Grid2::nearest`] for any point with this `x`.
    fn nearest_column(&self, x: f64) -> usize {
        let fx = ((x - self.rect.min.x) / self.res).round();
        fx.clamp(0.0, (self.nx - 1) as f64) as usize
    }

    /// The row of [`Grid2::nearest`] for any point with this `z`.
    fn nearest_row(&self, z: f64) -> usize {
        let fz = ((z - self.rect.min.z) / self.res).round();
        fz.clamp(0.0, (self.nz - 1) as f64) as usize
    }

    /// Lifts `mask`, given over the cells of `from`, onto this grid: the
    /// ascending flat indices of the cells whose nearest `from` cell is
    /// kept. This is the coarse-to-fine lift of the stage-1 spatial
    /// filter, and stage 2 scores exactly these cells.
    ///
    /// Identical to keeping every cell `p` with `from.nearest(p)` kept,
    /// but since the nearest column depends only on a cell's `x` and the
    /// nearest row only on its `z`, both are resolved once per column and
    /// once per row instead of once per cell, and the rows that share a
    /// nearest `from` row share one list of kept columns.
    ///
    /// # Panics
    /// Panics if the mask length does not match `from`.
    pub fn lift_mask(&self, from: &Grid2, mask: &[bool]) -> Vec<usize> {
        assert_eq!(mask.len(), from.len(), "mask length must match the source grid");
        let columns: Vec<usize> = (0..self.nx)
            .map(|ix| from.nearest_column(self.point(ix, 0).x))
            .collect();
        let mut cells = Vec::new();
        let mut kept_columns = Vec::new();
        let mut lifted_row = None;
        for iz in 0..self.nz {
            let row = from.nearest_row(self.point(0, iz).z);
            if lifted_row != Some(row) {
                let flags = &mask[from.flat(0, row)..][..from.nx];
                kept_columns.clear();
                kept_columns.extend((0..self.nx).filter(|&ix| flags[columns[ix]]));
                lifted_row = Some(row);
            }
            let first = self.flat(0, iz);
            cells.extend(kept_columns.iter().map(|&ix| first + ix));
        }
        cells
    }

    /// Non-maximum suppression over scored cells: up to `max_peaks`
    /// `(point, vote)` pairs, best first, no two closer than
    /// `min_separation` metres. `votes[i]` scores the cell at flat index
    /// `cells[i]`; a cell with a non-finite vote is never picked.
    ///
    /// Each pick is the best vote among the cells neither picked nor within
    /// `min_separation` of an earlier pick, ties going to the lower cell
    /// index. Those are the picks, bit for bit, of a stable descending sort
    /// of the finite cells followed by one greedy pass that keeps each cell
    /// far enough from the cells kept before it (DESIGN.md §16), found in
    /// `max_peaks` passes over the cells without the sort.
    ///
    /// # Panics
    /// Panics if `cells` and `votes` differ in length.
    pub fn pick_peaks(
        &self,
        cells: &[usize],
        votes: &[f64],
        max_peaks: usize,
        min_separation: f64,
    ) -> Vec<(Point2, f64)> {
        assert_eq!(cells.len(), votes.len(), "one vote per cell");
        // The cells still open to a pick, as (position in `cells`, point).
        let mut open: Vec<(usize, Point2)> = cells
            .iter()
            .zip(votes)
            .enumerate()
            .filter(|(_, (_, v))| v.is_finite())
            .map(|(i, (&c, _))| {
                let (ix, iz) = self.unflat(c);
                (i, self.point(ix, iz))
            })
            .collect();
        let better = |i: usize, than: usize| {
            votes[i] > votes[than] || (votes[i] == votes[than] && cells[i] < cells[than])
        };
        // `p.dist(q)` is `hypot(dx, dz)`, a libm call that errs by at most
        // 1 ulp and is exactly at least `max(|dx|, |dz|)`. A cell whose
        // larger offset reaches `keep` therefore passes `dist >=
        // min_separation` without the call; only the rest make it, so every
        // cell decides as before (NaN, negative and infinite separations
        // included, which `keep` inherits).
        let keep = min_separation * (1.0 + 4.0 * f64::EPSILON) + f64::MIN_POSITIVE;
        let mut picked = Vec::new();
        while picked.len() < max_peaks {
            let Some(&(best, p)) = open.iter().reduce(|b, o| if better(o.0, b.0) { o } else { b })
            else {
                break;
            };
            picked.push((p, votes[best]));
            if picked.len() < max_peaks {
                open.retain(|&(i, q)| {
                    let (dx, dz) = (p.x - q.x, p.z - q.z);
                    i != best && (dx.abs().max(dz.abs()) >= keep || p.dist(q) >= min_separation)
                });
            }
        }
        picked
    }
}

/// Per-cell total votes over a [`Grid2`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct VoteMap {
    grid: Grid2,
    values: Vec<f64>,
}

impl VoteMap {
    /// Evaluates the total nearest-lobe vote of `measurements` on every
    /// lattice point.
    pub fn evaluate(
        dep: &Deployment,
        measurements: &[PairMeasurement],
        plane: Plane,
        grid: Grid2,
    ) -> Self {
        let resolved = crate::vote::resolve_measurements(dep, measurements);
        let tf = dep.path_factor() / dep.wavelength().meters();
        let values = grid
            .iter()
            .map(|(_, p)| crate::vote::total_vote_resolved(&resolved, tf, plane.lift(p)))
            .collect();
        Self { grid, values }
    }

    /// Like [`VoteMap::evaluate`] but only on cells where `mask` is true;
    /// masked-out cells get `f64::NEG_INFINITY`. The dense reference for
    /// the engine's cell-list evaluation
    /// ([`crate::engine::VoteEngine::evaluate_cells`]), which scores only
    /// the kept cells.
    ///
    /// # Panics
    /// Panics if the mask length does not match the grid.
    pub fn evaluate_masked(
        dep: &Deployment,
        measurements: &[PairMeasurement],
        plane: Plane,
        grid: Grid2,
        mask: &[bool],
    ) -> Self {
        assert_eq!(mask.len(), grid.len(), "mask length must match the grid");
        let resolved = crate::vote::resolve_measurements(dep, measurements);
        let tf = dep.path_factor() / dep.wavelength().meters();
        let values = grid
            .iter()
            .map(|(i, p)| {
                if mask[i] {
                    crate::vote::total_vote_resolved(&resolved, tf, plane.lift(p))
                } else {
                    f64::NEG_INFINITY
                }
            })
            .collect();
        Self { grid, values }
    }

    /// Wraps precomputed per-cell values (same order as [`Grid2::iter`]) —
    /// the constructor used by [`crate::engine::VoteEngine`] and by tests
    /// that need synthetic maps.
    ///
    /// # Panics
    /// Panics if the value count does not match the grid.
    pub fn from_values(grid: Grid2, values: Vec<f64>) -> Self {
        assert_eq!(values.len(), grid.len(), "value count must match the grid");
        Self { grid, values }
    }

    /// The underlying grid.
    pub fn grid(&self) -> &Grid2 {
        &self.grid
    }

    /// Per-cell values (same order as [`Grid2::iter`]).
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// The best (highest) vote and its lattice point.
    pub fn argmax(&self) -> (Point2, f64) {
        let (idx, &v) = self
            .values
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).expect("votes are comparable"))
            .expect("grids are never empty");
        let (ix, iz) = self.grid.unflat(idx);
        (self.grid.point(ix, iz), v)
    }

    /// Mask of cells whose vote is within `slack` of the map maximum.
    ///
    /// This is the coarse spatial filter of §5.1 stage 1: keep every point
    /// the coarse pairs consider plausible.
    pub fn mask_within_of_max(&self, slack: f64) -> Vec<bool> {
        let (_, max) = self.argmax();
        self.values.iter().map(|&v| v >= max - slack).collect()
    }

    /// Mask keeping the best `fraction` of cells (by vote).
    ///
    /// # Panics
    /// Panics unless `0 < fraction <= 1`.
    pub fn mask_top_fraction(&self, fraction: f64) -> Vec<bool> {
        assert!(
            fraction > 0.0 && fraction <= 1.0,
            "fraction must be in (0, 1], got {fraction}"
        );
        // The threshold is the `keep`-th best finite vote. Selecting it
        // leaves the rest unordered; values tied with it (including ±0,
        // which compare equal) give the same `>=` mask whichever of them
        // lands in the slot, so the mask equals a full sort's.
        let mut finite: Vec<f64> = self.values.iter().copied().filter(|v| v.is_finite()).collect();
        let keep = ((finite.len() as f64 * fraction).ceil() as usize).max(1);
        let threshold = if keep <= finite.len() {
            *finite
                .select_nth_unstable_by(keep - 1, |a, b| b.partial_cmp(a).expect("finite votes"))
                .1
        } else {
            f64::NEG_INFINITY
        };
        self.values.iter().map(|&v| v >= threshold).collect()
    }

    /// Local maxima with non-maximum suppression: returns up to `max_peaks`
    /// points, best first, no two closer than `min_separation` metres,
    /// ignoring `-inf` (masked) cells: [`Grid2::pick_peaks`] over every
    /// cell of the map.
    pub fn peaks(&self, max_peaks: usize, min_separation: f64) -> Vec<(Point2, f64)> {
        let cells: Vec<usize> = (0..self.values.len()).collect();
        self.grid.pick_peaks(&cells, &self.values, max_peaks, min_separation)
    }

    /// Fraction of cells that survive a mask — a measure of how selective a
    /// filter is (used by the Fig. 6 walk-through).
    pub fn mask_coverage(mask: &[bool]) -> f64 {
        if mask.is_empty() {
            return 0.0;
        }
        mask.iter().filter(|&&b| b).count() as f64 / mask.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::array::Deployment;
    use crate::vote::ideal_measurements;

    fn region() -> Rect {
        Rect::new(Point2::new(0.0, 0.0), Point2::new(3.0, 2.0))
    }

    #[test]
    fn grid_dimensions_cover_rect() {
        let g = Grid2::new(region(), 0.1);
        assert_eq!(g.nx(), 31);
        assert_eq!(g.nz(), 21);
        assert_eq!(g.len(), 31 * 21);
        let last = g.point(g.nx() - 1, g.nz() - 1);
        assert!(last.x >= 3.0 - 1e-9 && last.z >= 2.0 - 1e-9);
    }

    #[test]
    fn grid_flat_roundtrip() {
        let g = Grid2::new(region(), 0.25);
        for i in 0..g.len() {
            let (ix, iz) = g.unflat(i);
            assert_eq!(g.flat(ix, iz), i);
        }
    }

    #[test]
    fn grid_nearest_clamps() {
        let g = Grid2::new(region(), 0.5);
        assert_eq!(g.nearest(Point2::new(-10.0, -10.0)), (0, 0));
        let (ix, iz) = g.nearest(Point2::new(10.0, 10.0));
        assert_eq!((ix, iz), (g.nx() - 1, g.nz() - 1));
        // Interior point maps to the closest lattice site (0.5 m lattice).
        let (ix, iz) = g.nearest(Point2::new(1.26, 0.74));
        let p = g.point(ix, iz);
        assert!((p.x - 1.5).abs() < 1e-9 && (p.z - 0.5).abs() < 1e-9, "{p:?}");
    }

    #[test]
    #[should_panic(expected = "implausibly large")]
    fn grid_guards_against_unit_mistakes() {
        let _ = Grid2::new(region(), 1e-6);
    }

    #[test]
    fn votemap_argmax_lands_near_truth() {
        let dep = Deployment::paper_default();
        let plane = Plane::at_depth(2.0);
        let truth = Point2::new(1.2, 0.9);
        let ms = ideal_measurements(&dep, dep.all_pairs(), plane.lift(truth));
        let map = VoteMap::evaluate(&dep, &ms, plane, Grid2::new(region(), 0.02));
        let (best, v) = map.argmax();
        assert!(v > -1e-3, "best vote {v}");
        assert!(best.dist(truth) <= 0.03, "argmax {best:?} vs truth {truth:?}");
    }

    #[test]
    fn coarse_mask_is_selective_but_contains_truth() {
        let dep = Deployment::paper_default();
        let plane = Plane::at_depth(2.0);
        let truth = Point2::new(1.4, 1.1);
        let ms = ideal_measurements(
            &dep,
            dep.coarse_pairs().collect::<Vec<_>>().into_iter(),
            plane.lift(truth),
        );
        let grid = Grid2::new(region(), 0.05);
        let map = VoteMap::evaluate(&dep, &ms, plane, grid.clone());
        let mask = map.mask_top_fraction(0.1);
        assert!(VoteMap::mask_coverage(&mask) <= 0.11);
        let (ix, iz) = grid.nearest(truth);
        assert!(mask[grid.flat(ix, iz)], "coarse filter excluded the truth");
    }

    #[test]
    fn masked_evaluation_blocks_cells() {
        let dep = Deployment::paper_default();
        let plane = Plane::at_depth(2.0);
        let truth = Point2::new(1.0, 1.0);
        let ms = ideal_measurements(&dep, dep.all_pairs(), plane.lift(truth));
        let grid = Grid2::new(region(), 0.2);
        let mut mask = vec![false; grid.len()];
        let (ix, iz) = grid.nearest(truth);
        mask[grid.flat(ix, iz)] = true;
        let map = VoteMap::evaluate_masked(&dep, &ms, plane, grid, &mask);
        let finite = map.values().iter().filter(|v| v.is_finite()).count();
        assert_eq!(finite, 1);
    }

    #[test]
    fn peaks_respect_separation_and_order() {
        let dep = Deployment::paper_default();
        let plane = Plane::at_depth(2.0);
        let truth = Point2::new(1.5, 1.0);
        // Wide pairs only: many near-perfect peaks (the ambiguity of Fig 6a).
        let ms = ideal_measurements(&dep, dep.wide_pairs(), plane.lift(truth));
        let map = VoteMap::evaluate(&dep, &ms, plane, Grid2::new(region(), 0.02));
        let peaks = map.peaks(8, 0.10);
        assert!(peaks.len() > 1, "wide pairs alone should be ambiguous");
        for w in peaks.windows(2) {
            assert!(w[0].1 >= w[1].1, "peaks not sorted by vote");
        }
        for (idx, (p, _)) in peaks.iter().enumerate() {
            for (q, _) in &peaks[idx + 1..] {
                assert!(p.dist(*q) >= 0.10 - 1e-9, "peaks too close");
            }
        }
    }

    #[test]
    fn mask_within_of_max_keeps_max() {
        let dep = Deployment::paper_default();
        let plane = Plane::at_depth(2.0);
        let truth = Point2::new(0.8, 0.6);
        let ms = ideal_measurements(&dep, dep.all_pairs(), plane.lift(truth));
        let map = VoteMap::evaluate(&dep, &ms, plane, Grid2::new(region(), 0.1));
        let mask = map.mask_within_of_max(0.01);
        let (best, _) = map.argmax();
        let (ix, iz) = map.grid().nearest(best);
        assert!(mask[map.grid().flat(ix, iz)]);
    }

    #[test]
    fn mask_coverage_counts() {
        assert_eq!(VoteMap::mask_coverage(&[true, false, true, false]), 0.5);
        assert_eq!(VoteMap::mask_coverage(&[]), 0.0);
    }
}
