//! Engine/reference equivalence on noisy measurements.
//!
//! Every test here asserts **bit-identical** results (`f64::to_bits`, not
//! approximate comparison) between the vote-map engine and the reference
//! [`VoteMap`] path. The measurement sets are deliberately noisy
//! (deterministic or random phase perturbations on top of the ideal
//! forward model), so the equivalence is exercised away from the easy
//! all-zeros vote landscape the ideal-measurement suites score.

use rfidraw_core::array::Deployment;
use rfidraw_core::engine::VoteEngine;
use rfidraw_core::geom::{Plane, Point2, Rect};
use rfidraw_core::grid::{Grid2, VoteMap};
use rfidraw_core::vote::{ideal_measurements, PairMeasurement};

fn region() -> Rect {
    Rect::new(Point2::new(0.0, 0.0), Point2::new(3.0, 2.0))
}

/// Ideal measurements with a deterministic, pair-dependent phase
/// perturbation — noisy enough to move peaks off lattice-symmetric spots.
fn noisy_measurements(dep: &Deployment, plane: Plane, truth: Point2) -> Vec<PairMeasurement> {
    let mut ms = ideal_measurements(dep, dep.all_pairs(), plane.lift(truth));
    for (n, m) in ms.iter_mut().enumerate() {
        let jitter = ((n as f64 * 2.399963) % 1.0 - 0.5) * 0.6; // ±0.3 rad
        m.delta_phi = rfidraw_core::phase::wrap_pi(m.delta_phi + jitter);
    }
    ms
}

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

#[test]
fn noisy_vote_map_matches_reference_bitwise() {
    let dep = Deployment::paper_default();
    let plane = Plane::at_depth(2.0);
    let ms = noisy_measurements(&dep, plane, Point2::new(1.3, 0.8));
    let grid = Grid2::new(region(), 0.04);
    let reference = VoteMap::evaluate(&dep, &ms, plane, grid.clone());
    let map = VoteEngine::for_deployment(&dep, plane, grid).evaluate(&ms);
    assert_eq!(bits(reference.values()), bits(map.values()));
}

#[test]
fn noisy_cell_list_matches_masked_reference_bitwise() {
    let dep = Deployment::paper_default();
    let plane = Plane::at_depth(2.0);
    let ms = noisy_measurements(&dep, plane, Point2::new(0.9, 1.4));
    let grid = Grid2::new(region(), 0.04);
    // A ragged mask, scored as the ascending list of its kept cells.
    let mask: Vec<bool> = (0..grid.len()).map(|i| (i * 7) % 13 < 9).collect();
    let cells: Vec<usize> = (0..grid.len()).filter(|&c| mask[c]).collect();
    let reference = VoteMap::evaluate_masked(&dep, &ms, plane, grid.clone(), &mask);
    let want: Vec<f64> = cells.iter().map(|&c| reference.values()[c]).collect();
    let engine = VoteEngine::for_deployment(&dep, plane, grid);
    // Both the lazy and the table-backed cell-list paths must agree.
    let lazy = engine.evaluate_cells(&ms, &cells);
    engine.build_table();
    let tabled = engine.evaluate_cells(&ms, &cells);
    assert_eq!(bits(&want), bits(&lazy), "lazy");
    assert_eq!(bits(&want), bits(&tabled), "tabled");
}

mod properties {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        // Randomized phase perturbations: the engine must stay
        // bit-identical to the reference everywhere, not just on the
        // handpicked cases above.
        #[test]
        fn engine_matches_reference_under_random_noise(
            x in 0.4f64..2.6,
            z in 0.3f64..1.7,
            jitters in proptest::collection::vec(-0.4f64..0.4, 12..13),
        ) {
            let dep = Deployment::paper_default();
            let plane = Plane::at_depth(2.0);
            let mut ms = ideal_measurements(&dep, dep.all_pairs(), plane.lift(Point2::new(x, z)));
            for (m, j) in ms.iter_mut().zip(&jitters) {
                m.delta_phi = rfidraw_core::phase::wrap_pi(m.delta_phi + j);
            }
            let grid = Grid2::new(region(), 0.1);
            let reference = VoteMap::evaluate(&dep, &ms, plane, grid.clone());
            let map = VoteEngine::for_deployment(&dep, plane, grid).evaluate(&ms);
            prop_assert_eq!(bits(reference.values()), bits(map.values()));
        }
    }
}
