//! Serial/parallel equivalence: the determinism contract of the parallel
//! vote-map engine and tracer.
//!
//! Every test here asserts **bit-identical** results (`f64::to_bits`, not
//! approximate comparison) across [`Parallelism::Serial`], two threads and
//! `available_parallelism()` threads — the guarantee that lets callers pick
//! any thread count without changing a single reproduced figure. The
//! measurement sets are deliberately noisy (deterministic phase
//! perturbations on top of the ideal forward model), so the equivalence is
//! exercised away from the easy all-zeros vote landscape.

use rfidraw_core::array::Deployment;
use rfidraw_core::engine::VoteEngine;
use rfidraw_core::exec::Parallelism;
use rfidraw_core::geom::{Plane, Point2, Rect};
use rfidraw_core::grid::{Grid2, VoteMap};
use rfidraw_core::position::{MultiResConfig, MultiResPositioner};
use rfidraw_core::trace::{ideal_snapshots, TraceConfig, TrajectoryTracer};
use rfidraw_core::vote::{ideal_measurements, PairMeasurement};

/// The parallelism settings the ISSUE contract names: serial, two threads,
/// and whatever this machine's `available_parallelism()` resolves to.
fn settings() -> Vec<Parallelism> {
    vec![
        Parallelism::Serial,
        Parallelism::Threads(2),
        Parallelism::Threads(
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
        ),
        Parallelism::Auto,
    ]
}

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

fn point_bits(p: Point2) -> (u64, u64) {
    (p.x.to_bits(), p.z.to_bits())
}

#[test]
fn vote_map_is_bit_identical_across_thread_counts() {
    let dep = Deployment::paper_default();
    let plane = Plane::at_depth(2.0);
    let ms = noisy_measurements(&dep, plane, Point2::new(1.3, 0.8));
    let grid = Grid2::new(region(), 0.04);
    let reference = VoteMap::evaluate(&dep, &ms, plane, grid.clone());
    for par in settings() {
        let engine = VoteEngine::for_deployment(&dep, plane, grid.clone(), par);
        let map = engine.evaluate(&ms);
        assert_eq!(
            bits(reference.values()),
            bits(map.values()),
            "vote map diverged under {par:?}"
        );
    }
}

#[test]
fn masked_vote_map_is_bit_identical_across_thread_counts() {
    let dep = Deployment::paper_default();
    let plane = Plane::at_depth(2.0);
    let ms = noisy_measurements(&dep, plane, Point2::new(0.9, 1.4));
    let grid = Grid2::new(region(), 0.04);
    // A ragged mask that straddles any shard boundary, scored as the
    // ascending list of its kept cells.
    let mask: Vec<bool> = (0..grid.len()).map(|i| (i * 7) % 13 < 9).collect();
    let cells: Vec<usize> = (0..grid.len()).filter(|&c| mask[c]).collect();
    let reference = VoteMap::evaluate_masked(&dep, &ms, plane, grid.clone(), &mask);
    let want: Vec<f64> = cells.iter().map(|&c| reference.values()[c]).collect();
    for par in settings() {
        let engine = VoteEngine::for_deployment(&dep, plane, grid.clone(), par);
        // Both the lazy and the table-backed cell-list paths must agree.
        let lazy = engine.evaluate_cells(&ms, &cells);
        engine.build_table();
        let tabled = engine.evaluate_cells(&ms, &cells);
        assert_eq!(bits(&want), bits(&lazy), "lazy {par:?}");
        assert_eq!(bits(&want), bits(&tabled), "tabled {par:?}");
    }
}

#[test]
fn candidate_list_is_bit_identical_across_thread_counts() {
    let dep = Deployment::paper_default();
    let plane = Plane::at_depth(2.0);
    let ms = noisy_measurements(&dep, plane, Point2::new(1.6, 1.1));
    let mut reference: Option<Vec<(u64, u64, u64)>> = None;
    for par in settings() {
        let mut cfg = MultiResConfig::for_region(region());
        cfg.fine_resolution = 0.02; // keep the fine stage test-sized
        cfg.parallelism = par;
        let positioner = MultiResPositioner::new(dep.clone(), plane, cfg);
        let candidates = positioner.locate(&ms);
        assert!(!candidates.is_empty());
        let got: Vec<(u64, u64, u64)> = candidates
            .iter()
            .map(|c| {
                let (x, z) = point_bits(c.position);
                (x, z, c.vote.to_bits())
            })
            .collect();
        match &reference {
            None => reference = Some(got),
            Some(want) => assert_eq!(want, &got, "candidates diverged under {par:?}"),
        }
    }
}

#[test]
fn traced_trajectory_is_bit_identical_across_thread_counts() {
    let dep = Deployment::paper_default();
    let plane = Plane::at_depth(2.0);
    // A short curved path, traced from three competing candidates so the
    // parallel candidate map actually has work to shard.
    let path: Vec<Point2> = (0..60)
        .map(|i| {
            let t = i as f64 / 59.0;
            Point2::new(
                1.2 + 0.18 * (std::f64::consts::TAU * t).cos(),
                1.0 + 0.12 * (std::f64::consts::TAU * t).sin(),
            )
        })
        .collect();
    let snaps = ideal_snapshots(&dep, plane, &path, 0.04);
    let candidates = vec![
        rfidraw_core::position::Candidate { position: path[0], vote: 0.0 },
        rfidraw_core::position::Candidate {
            position: path[0] + Point2::new(0.11, 0.07),
            vote: -0.01,
        },
        rfidraw_core::position::Candidate {
            position: path[0] + Point2::new(-0.30, 0.22),
            vote: -0.02,
        },
    ];

    let mut reference: Option<(usize, Vec<rfidraw_core::trace::TraceResult>)> = None;
    for par in settings() {
        let cfg = TraceConfig {
            parallelism: par,
            ..TraceConfig::default()
        };
        let tracer = TrajectoryTracer::new(dep.clone(), plane, cfg);
        let (winner, traces) = tracer.trace_candidates(&candidates, &snaps);
        match &reference {
            None => reference = Some((winner, traces)),
            Some((want_winner, want_traces)) => {
                assert_eq!(*want_winner, winner, "winner diverged under {par:?}");
                assert_eq!(want_traces.len(), traces.len());
                for (want, got) in want_traces.iter().zip(&traces) {
                    // Structural equality first (clear failure messages)...
                    assert_eq!(want.locked_lobes, got.locked_lobes, "{par:?}");
                    assert_eq!(want.points.len(), got.points.len(), "{par:?}");
                    // ...then strict bit-identity of every float.
                    for (a, b) in want.points.iter().zip(&got.points) {
                        assert_eq!(point_bits(*a), point_bits(*b), "{par:?}");
                    }
                    assert_eq!(
                        bits(&want.per_step_votes),
                        bits(&got.per_step_votes),
                        "{par:?}"
                    );
                    assert_eq!(want.total_vote.to_bits(), got.total_vote.to_bits(), "{par:?}");
                }
            }
        }
    }
}

mod properties {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        // Randomized phase perturbations and thread counts: the engine must
        // stay bit-identical to the serial reference everywhere, not just
        // on the handpicked cases above.
        #[test]
        fn engine_thread_invariance_under_random_noise(
            x in 0.4f64..2.6,
            z in 0.3f64..1.7,
            threads in 2usize..9,
            jitters in proptest::collection::vec(-0.4f64..0.4, 12..13),
        ) {
            let dep = Deployment::paper_default();
            let plane = Plane::at_depth(2.0);
            let mut ms = ideal_measurements(&dep, dep.all_pairs(), plane.lift(Point2::new(x, z)));
            for (m, j) in ms.iter_mut().zip(&jitters) {
                m.delta_phi = rfidraw_core::phase::wrap_pi(m.delta_phi + j);
            }
            let grid = Grid2::new(region(), 0.1);
            let serial = VoteMap::evaluate(&dep, &ms, plane, grid.clone());
            let engine = VoteEngine::for_deployment(&dep, plane, grid, Parallelism::Threads(threads));
            let map = engine.evaluate(&ms);
            prop_assert_eq!(bits(serial.values()), bits(map.values()));
        }
    }
}
