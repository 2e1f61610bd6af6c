//! Two-stage multi-resolution positioning (paper §5.1, Fig. 6).
//!
//! Stage 1 evaluates the votes of the **coarse** pairs (the unambiguous
//! λ/2-effective pairs plus the intermediate refine pairs among antennas
//! 5–8) on a coarse grid, and keeps the best-voted region as a *spatial
//! filter* (Fig. 6b–c). Stage 2 evaluates the **wide** pairs' votes on a
//! fine grid restricted to that filter: the surviving grating-lobe
//! intersections are the candidate positions (Fig. 6d), ranked by their
//! total vote from *all* pairs.
//!
//! The positioner returns several candidates (not just the best) because
//! residual ambiguity is resolved later by trajectory tracing (§5.2): the
//! candidate whose traced trajectory keeps the highest cumulative vote wins.

use crate::array::Deployment;
use crate::engine::{TablePrecision, VoteEngine};
use crate::exec::Parallelism;
use crate::geom::{Plane, Point2, Rect};
use crate::grid::{Grid2, VoteMap};
use crate::obs::{self, SharedSink, Stage, TraceKind};
use crate::vote::PairMeasurement;
use serde::{Deserialize, Serialize};

/// Tuning parameters for [`MultiResPositioner`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MultiResConfig {
    /// Region of the writing plane to search.
    pub region: Rect,
    /// Stage-1 grid cell size (m). The coarse beams are wide; 5 cm suffices.
    pub coarse_resolution: f64,
    /// Stage-2 grid cell size (m). Must resolve individual grating lobes;
    /// 1 cm for the paper geometry.
    pub fine_resolution: f64,
    /// Fraction of coarse cells kept as the stage-1 spatial filter.
    pub coarse_keep_fraction: f64,
    /// Maximum number of candidate positions returned.
    pub max_candidates: usize,
    /// Minimum separation between returned candidates (m) — non-maximum
    /// suppression radius, of the order of the lobe spacing.
    pub candidate_separation: f64,
    /// Thread-level parallelism of the vote-map evaluation. Never changes
    /// any result (see [`crate::exec`]), only wall-clock time.
    pub parallelism: Parallelism,
    /// Numeric representation of both engines' vote tables. `F64` (the
    /// default) is bit-exact; the fixed-point `I16` reaches 4× compression
    /// with a derived, test-asserted vote-error bound (see
    /// [`crate::engine`]).
    pub precision: TablePrecision,
}

impl MultiResConfig {
    /// Sensible defaults for the paper's room-scale deployment: searches
    /// `region` at 5 cm/1 cm, keeps 8% of the coarse map, and returns up to
    /// 3 candidates at least 15 cm apart.
    pub fn for_region(region: Rect) -> Self {
        Self {
            region,
            coarse_resolution: 0.05,
            fine_resolution: 0.01,
            coarse_keep_fraction: 0.08,
            max_candidates: 3,
            candidate_separation: 0.15,
            parallelism: Parallelism::Auto,
            precision: TablePrecision::F64,
        }
    }

    fn validate(&self) {
        assert!(
            self.fine_resolution <= self.coarse_resolution,
            "fine resolution {} must not exceed coarse resolution {}",
            self.fine_resolution,
            self.coarse_resolution
        );
        assert!(self.max_candidates >= 1, "must request at least one candidate");
        assert!(
            self.coarse_keep_fraction > 0.0 && self.coarse_keep_fraction <= 1.0,
            "coarse_keep_fraction must be in (0, 1]"
        );
    }
}

/// One candidate position with its total vote from all pairs (≤ 0, higher
/// is better).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Candidate {
    /// The candidate position in the writing plane.
    pub position: Point2,
    /// Total vote from all antenna pairs at that position.
    pub vote: f64,
}

/// Intermediate products of one positioning pass, exposed for the Fig. 6
/// walk-through and for diagnosis.
#[derive(Debug, Clone)]
pub struct PositioningStages {
    /// Stage-1 vote map from the coarse pairs (Fig. 6c).
    pub coarse_map: VoteMap,
    /// The spatial filter on the *fine* grid
    /// ([`MultiResPositioner::fine_grid`]): the ascending flat indices of
    /// the fine cells it keeps.
    pub fine_cells: Vec<usize>,
    /// Stage-2 votes (all pairs) on `fine_cells`, one per cell in the same
    /// order (Fig. 6d).
    pub fine_votes: Vec<f64>,
    /// Final ranked candidates.
    pub candidates: Vec<Candidate>,
}

/// The multi-resolution positioning engine.
#[derive(Debug, Clone)]
pub struct MultiResPositioner {
    dep: Deployment,
    plane: Plane,
    config: MultiResConfig,
    /// Stage-1 evaluator: full coarse-grid scans, so its distance table is
    /// built eagerly and amortized across `locate()` calls.
    coarse_engine: VoteEngine,
    /// Stage-2 evaluator: scores the fine cells the stage-1 filter keeps.
    /// A standalone positioner leaves its table lazy, since the filter
    /// keeps only a few percent of the fine grid and on-the-fly distances
    /// cost less than one full-grid table; the serving template prebuilds
    /// it ([`MultiResPositioner::prebuild_tables`]) and every session's
    /// clone gathers from it (see [`crate::engine`]).
    fine_engine: VoteEngine,
    /// Where this component's events go, tagged with `session`; `None` (the
    /// default) makes every emit site one branch (see [`crate::obs`]).
    sink: Option<SharedSink>,
    session: u64,
}

impl MultiResPositioner {
    /// Creates a positioner for one deployment, writing plane and config.
    ///
    /// # Panics
    /// Panics if the configuration is inconsistent (see [`MultiResConfig`])
    /// or the deployment lacks coarse or wide pairs.
    pub fn new(dep: Deployment, plane: Plane, config: MultiResConfig) -> Self {
        config.validate();
        assert!(
            !dep.wide_pairs().is_empty(),
            "multi-resolution positioning needs widely-spaced pairs"
        );
        assert!(
            !dep.coarse_primary_pairs().is_empty(),
            "multi-resolution positioning needs unambiguous coarse pairs"
        );
        let coarse_grid = Grid2::new(config.region, config.coarse_resolution);
        let fine_grid = Grid2::new(config.region, config.fine_resolution);
        let mut coarse_engine =
            VoteEngine::for_deployment(&dep, plane, coarse_grid, config.parallelism);
        let mut fine_engine =
            VoteEngine::for_deployment(&dep, plane, fine_grid, config.parallelism);
        coarse_engine.set_precision(config.precision);
        fine_engine.set_precision(config.precision);
        Self {
            dep,
            plane,
            config,
            coarse_engine,
            fine_engine,
            sink: None,
            session: 0,
        }
    }

    /// Installs a trace sink on the positioner and both its engines
    /// (filter/peak outcome events plus evaluation spans). Observability
    /// only — never changes the candidates (see [`crate::obs`]).
    pub fn set_trace_sink(&mut self, sink: Option<SharedSink>, session: u64) {
        self.coarse_engine.set_trace_sink(sink.clone(), session);
        self.fine_engine.set_trace_sink(sink.clone(), session);
        self.sink = sink;
        self.session = session;
    }

    /// The deployment in use.
    pub fn deployment(&self) -> &Deployment {
        &self.dep
    }

    /// The writing plane in use.
    pub fn plane(&self) -> Plane {
        self.plane
    }

    /// The configuration in use.
    pub fn config(&self) -> &MultiResConfig {
        &self.config
    }

    /// The stage-1 (coarse) grid.
    pub fn coarse_grid(&self) -> &Grid2 {
        self.coarse_engine.grid()
    }

    /// The stage-2 (fine) grid, which [`PositioningStages::fine_cells`]
    /// index.
    pub fn fine_grid(&self) -> &Grid2 {
        self.fine_engine.grid()
    }

    /// Eagerly builds both distance tables (idempotent). A standalone
    /// positioner leaves the fine table lazy — the stage-1 filter keeps so
    /// little of the fine grid that on-the-fly distances win for a single
    /// user — but clones share the tables (see [`crate::engine`]), so when
    /// many sessions clone one positioner, one eager build is amortized
    /// over all of them and every stage-2 evaluation takes the faster
    /// table-backed gather. Which path runs never changes any value.
    pub fn prebuild_tables(&self) {
        self.coarse_engine.prebuild();
        self.fine_engine.prebuild();
    }

    /// The coarse and fine f64 tables, built if need be (tests compare
    /// their addresses to check sharing).
    #[cfg(test)]
    pub(crate) fn f64_tables(&self) -> [&[f64]; 2] {
        [self.coarse_engine.build_table(), self.fine_engine.build_table()]
    }

    /// Bytes held by the built coarse and fine tables (an unbuilt table
    /// counts zero).
    pub fn table_bytes(&self) -> u64 {
        [&self.coarse_engine, &self.fine_engine]
            .into_iter()
            .filter(|e| e.is_table_built())
            .map(VoteEngine::table_bytes)
            .sum()
    }

    /// Runs both stages and returns the ranked candidates.
    ///
    /// `measurements` must contain one entry per deployment pair (missing
    /// pairs are tolerated — their votes are simply absent — but at least
    /// one coarse and one wide measurement are required).
    ///
    /// # Panics
    /// Panics if the measurement set contains no coarse or no wide pair.
    pub fn locate(&self, measurements: &[PairMeasurement]) -> Vec<Candidate> {
        self.locate_with_stages(measurements).candidates
    }

    /// Fallible variant of [`MultiResPositioner::locate`] for degraded
    /// measurement subsets: returns `None` when the set lacks coarse or
    /// wide pairs (stage 1 or stage 2 would have nothing to vote with),
    /// instead of panicking. With a full pair set the candidates are
    /// bit-identical to [`MultiResPositioner::locate`].
    pub fn try_locate(&self, measurements: &[PairMeasurement]) -> Option<Vec<Candidate>> {
        self.try_locate_with_stages(measurements).map(|s| s.candidates)
    }

    /// Runs both stages, returning every intermediate product.
    ///
    /// # Panics
    /// Panics if the measurement set contains no coarse or no wide pair
    /// (use [`MultiResPositioner::try_locate_with_stages`] when the set may
    /// be a degraded subset).
    pub fn locate_with_stages(&self, measurements: &[PairMeasurement]) -> PositioningStages {
        let (coarse_ms, wide_ms) = self.split(measurements);
        assert!(
            !coarse_ms.is_empty(),
            "no coarse-pair measurements supplied to locate()"
        );
        assert!(
            !wide_ms.is_empty(),
            "no wide-pair measurements supplied to locate()"
        );
        self.stages_from(coarse_ms, wide_ms)
    }

    /// Fallible variant of [`MultiResPositioner::locate_with_stages`]:
    /// `None` when the measurement set has no coarse or no wide pair.
    pub fn try_locate_with_stages(
        &self,
        measurements: &[PairMeasurement],
    ) -> Option<PositioningStages> {
        let (coarse_ms, wide_ms) = self.split(measurements);
        if coarse_ms.is_empty() || wide_ms.is_empty() {
            return None;
        }
        Some(self.stages_from(coarse_ms, wide_ms))
    }

    fn stages_from(
        &self,
        coarse_ms: Vec<PairMeasurement>,
        wide_ms: Vec<PairMeasurement>,
    ) -> PositioningStages {
        // Stage 1: coarse spatial filter (Fig. 6b–c), evaluated through the
        // engine so the coarse distance table is computed once per
        // positioner rather than once per call.
        let coarse_map = self.coarse_engine.evaluate(&coarse_ms);
        let coarse_mask = coarse_map.mask_top_fraction(self.config.coarse_keep_fraction);

        // Lift the mask onto the fine grid: the kept fine cells, ascending.
        let fine_grid = self.fine_engine.grid();
        let fine_cells = fine_grid.lift_mask(coarse_map.grid(), &coarse_mask);
        if self.sink.is_some() {
            obs::emit(
                self.sink.as_ref(),
                self.session,
                Stage::CoarseFilter,
                TraceKind::Instant,
                fine_cells.len() as f64 / fine_grid.len() as f64,
                0.0,
            );
        }

        // Stage 2: all pairs on the kept fine cells. Using all pairs (not
        // just wide ones) ranks candidates by their total vote, as §5.1
        // prescribes; the wide pairs dominate the local structure while the
        // coarse pairs keep penalizing the wrong region.
        let all_ms: Vec<PairMeasurement> =
            wide_ms.iter().chain(coarse_ms.iter()).copied().collect();
        let fine_votes = self.fine_engine.evaluate_cells(&all_ms, &fine_cells);

        let candidates: Vec<Candidate> = fine_grid
            .pick_peaks(
                &fine_cells,
                &fine_votes,
                self.config.max_candidates,
                self.config.candidate_separation,
            )
            .into_iter()
            .map(|(position, vote)| Candidate { position, vote })
            .collect();
        obs::emit(
            self.sink.as_ref(),
            self.session,
            Stage::PeakSelect,
            TraceKind::Instant,
            candidates.len() as f64,
            candidates.first().map_or(f64::NEG_INFINITY, |c| c.vote),
        );

        PositioningStages {
            coarse_map,
            fine_cells,
            fine_votes,
            candidates,
        }
    }

    /// Splits a measurement set into (coarse, wide) according to the pair
    /// roles registered in the deployment. Unknown pairs are ignored.
    fn split(
        &self,
        measurements: &[PairMeasurement],
    ) -> (Vec<PairMeasurement>, Vec<PairMeasurement>) {
        let mut coarse = Vec::new();
        let mut wide = Vec::new();
        for m in measurements {
            if self.dep.wide_pairs().contains(&m.pair) {
                wide.push(*m);
            } else if self.dep.coarse_pairs().any(|p| *p == m.pair) {
                coarse.push(*m);
            }
        }
        (coarse, wide)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::array::Deployment;
    use crate::vote::ideal_measurements;

    fn setup(truth: Point2) -> (MultiResPositioner, Vec<PairMeasurement>) {
        let dep = Deployment::paper_default();
        let plane = Plane::at_depth(2.0);
        let region = Rect::new(Point2::new(0.0, 0.0), Point2::new(3.0, 2.0));
        let ms = ideal_measurements(&dep, dep.all_pairs(), plane.lift(truth));
        let mut config = MultiResConfig::for_region(region);
        // Coarser fine grid keeps the tests fast; 2 cm still resolves lobes.
        config.fine_resolution = 0.02;
        (MultiResPositioner::new(dep, plane, config), ms)
    }

    #[test]
    fn locate_finds_noise_free_truth() {
        let truth = Point2::new(1.2, 0.9);
        let (pos, ms) = setup(truth);
        let candidates = pos.locate(&ms);
        assert!(!candidates.is_empty());
        let best = candidates[0];
        assert!(
            best.position.dist(truth) <= 0.05,
            "best candidate {:?} vs truth {truth:?}",
            best.position
        );
        assert!(best.vote > -1e-2, "best vote {}", best.vote);
    }

    #[test]
    fn candidates_are_ranked_and_separated() {
        let truth = Point2::new(1.8, 1.2);
        let (pos, ms) = setup(truth);
        let candidates = pos.locate(&ms);
        for w in candidates.windows(2) {
            assert!(w[0].vote >= w[1].vote);
            assert!(w[0].position.dist(w[1].position) >= 0.15 - 1e-9);
        }
    }

    #[test]
    fn stage1_filter_removes_most_of_the_plane() {
        let truth = Point2::new(1.0, 1.0);
        let (pos, ms) = setup(truth);
        let stages = pos.locate_with_stages(&ms);
        let g = pos.fine_grid();
        let coverage = stages.fine_cells.len() as f64 / g.len() as f64;
        assert!(
            coverage <= 0.12,
            "coarse filter keeps {coverage:.2} of the plane"
        );
        assert_eq!(stages.fine_votes.len(), stages.fine_cells.len());
        // And the filter still contains the truth.
        let (ix, iz) = g.nearest(truth);
        assert!(stages.fine_cells.binary_search(&g.flat(ix, iz)).is_ok());
    }

    #[test]
    fn wide_pairs_alone_would_be_ambiguous() {
        // Sanity for the paper's core claim: without the coarse filter,
        // several near-perfect candidates exist.
        let dep = Deployment::paper_default();
        let plane = Plane::at_depth(2.0);
        let truth = Point2::new(1.5, 1.0);
        let region = Rect::new(Point2::new(0.0, 0.0), Point2::new(3.0, 2.0));
        let ms = ideal_measurements(&dep, dep.wide_pairs(), plane.lift(truth));
        let map = VoteMap::evaluate(&dep, &ms, plane, Grid2::new(region, 0.02));
        let peaks = map.peaks(10, 0.15);
        let near_perfect = peaks.iter().filter(|(_, v)| *v > -0.01).count();
        assert!(
            near_perfect >= 2,
            "expected residual ambiguity, found {near_perfect} strong peaks"
        );
    }

    #[test]
    fn try_locate_declines_degraded_subsets_and_matches_locate_when_full() {
        let truth = Point2::new(1.0, 1.0);
        let (pos, ms) = setup(truth);
        let coarse_only: Vec<_> = ms
            .iter()
            .filter(|m| pos.deployment().coarse_pairs().any(|p| *p == m.pair))
            .copied()
            .collect();
        assert!(pos.try_locate(&coarse_only).is_none());
        let wide_only: Vec<_> = ms
            .iter()
            .filter(|m| pos.deployment().wide_pairs().contains(&m.pair))
            .copied()
            .collect();
        assert!(pos.try_locate(&wide_only).is_none());
        assert_eq!(pos.try_locate(&ms).unwrap(), pos.locate(&ms));
    }

    #[test]
    #[should_panic(expected = "no wide-pair measurements")]
    fn locate_requires_wide_measurements() {
        let truth = Point2::new(1.0, 1.0);
        let (pos, ms) = setup(truth);
        let coarse_only: Vec<_> = ms
            .iter()
            .filter(|m| pos.deployment().coarse_pairs().any(|p| *p == m.pair))
            .copied()
            .collect();
        let _ = pos.locate(&coarse_only);
    }

    #[test]
    #[should_panic(expected = "fine resolution")]
    fn config_rejects_inverted_resolutions() {
        let region = Rect::new(Point2::new(0.0, 0.0), Point2::new(1.0, 1.0));
        let mut c = MultiResConfig::for_region(region);
        c.fine_resolution = 0.2;
        c.coarse_resolution = 0.1;
        MultiResConfig::validate(&c);
    }

    #[test]
    fn quantized_precisions_locate_the_same_point_noise_free() {
        let truth = Point2::new(1.2, 0.9);
        let (pos64, ms) = setup(truth);
        let best64 = pos64.locate(&ms)[0];
        let dep = Deployment::paper_default();
        let plane = Plane::at_depth(2.0);
        let region = Rect::new(Point2::new(0.0, 0.0), Point2::new(3.0, 2.0));
        let mut config = MultiResConfig::for_region(region);
        config.fine_resolution = 0.02;
        config.precision = TablePrecision::I16;
        let pos = MultiResPositioner::new(dep, plane, config);
        let best = pos.locate(&ms)[0];
        // Noise-free, well-separated peak: the vote gap dwarfs the i16
        // quantization bound on this scene.
        assert_eq!(best64.position, best.position);
    }

    #[test]
    fn locate_works_at_several_depths() {
        for depth in [2.0, 3.0, 5.0] {
            let dep = Deployment::paper_default();
            let plane = Plane::at_depth(depth);
            let truth = Point2::new(1.3, 1.1);
            let region = Rect::new(Point2::new(0.0, 0.0), Point2::new(3.0, 2.0));
            let ms = ideal_measurements(&dep, dep.all_pairs(), plane.lift(truth));
            let mut config = MultiResConfig::for_region(region);
            config.fine_resolution = 0.02;
            let pos = MultiResPositioner::new(dep, plane, config);
            let best = pos.locate(&ms)[0];
            assert!(
                best.position.dist(truth) <= 0.06,
                "depth {depth}: {:?} vs {truth:?}",
                best.position
            );
        }
    }
}
