//! Lifecycle edges of the streaming tracker that the serving layer
//! (`rfidraw-serve`) depends on: stale detection and re-acquisition after a
//! long read gap, explicit `reset`, antenna-dropout degradation and
//! re-admission, and candidate pruning keeping the per-tick cost bounded
//! under a pathological (incoherent) stream.

use proptest::prelude::*;
use rfidraw_core::array::{AntennaId, Deployment};
use rfidraw_core::geom::{Plane, Point2, Rect};
use rfidraw_core::online::{OnlineConfig, OnlineEvent, OnlineTracker};
use rfidraw_core::phase::wrap_tau;
use rfidraw_core::position::MultiResConfig;
use rfidraw_core::stream::PhaseRead;
use rfidraw_core::trace::TraceConfig;
use std::f64::consts::TAU;

fn tracker_with(cfg: OnlineConfig) -> (Deployment, Plane, OnlineTracker) {
    let dep = Deployment::paper_default();
    let plane = Plane::at_depth(2.0);
    let region = Rect::new(Point2::new(0.5, 0.3), Point2::new(2.3, 1.7));
    let mut mcfg = MultiResConfig::for_region(region);
    mcfg.fine_resolution = 0.02;
    let t = OnlineTracker::new(dep.clone(), plane, mcfg, TraceConfig::default(), cfg);
    (dep, plane, t)
}

fn tracker(max_read_gap: Option<f64>) -> (Deployment, Plane, OnlineTracker) {
    tracker_with(OnlineConfig {
        tick: 0.04,
        prune_margin: 0.3,
        prune_after: 10,
        max_read_gap,
        ..OnlineConfig::default()
    })
}

/// Ideal staggered reads for a static tag at `p`, spanning `[t0, t0+dur)`.
fn static_reads(dep: &Deployment, plane: Plane, p: Point2, t0: f64, dur: f64) -> Vec<PhaseRead> {
    let antennas: Vec<AntennaId> = dep.antennas().iter().map(|a| a.id).collect();
    let per_antenna_dt = 0.02;
    let pos = plane.lift(p);
    let mut reads = Vec::new();
    let mut t = 0.0;
    while t < dur {
        for (i, &ant) in antennas.iter().enumerate() {
            let tt = t0 + t + i as f64 * (per_antenna_dt / antennas.len() as f64);
            let a = dep.antenna(ant).unwrap();
            let phase =
                wrap_tau(-TAU * dep.path_factor() * pos.dist(a.pos) / dep.wavelength().meters());
            reads.push(PhaseRead { t: tt, antenna: ant, phase });
        }
        t += per_antenna_dt;
    }
    reads
}

#[test]
fn long_gap_goes_stale_and_reacquires() {
    let (dep, plane, mut tracker) = tracker(Some(1.0));
    let before = Point2::new(1.0, 1.0);
    let after = Point2::new(1.8, 1.2);

    let mut acquisitions = 0;
    let mut stales = 0;
    for r in static_reads(&dep, plane, before, 0.0, 1.5) {
        for e in tracker.push(r).unwrap() {
            match e {
                OnlineEvent::Acquired { .. } => acquisitions += 1,
                OnlineEvent::Stale { .. } => stales += 1,
                _ => {}
            }
        }
    }
    assert_eq!(acquisitions, 1, "first segment acquires once");
    assert_eq!(stales, 0, "no gap inside the first segment");
    assert!(tracker.is_tracking());
    let est_before = tracker.current_estimate().expect("estimate before gap");
    assert!(est_before.dist(before) < 0.10);

    // 5 s of silence, then the tag reappears elsewhere. The tracker must
    // notice the gap, reset, and re-acquire at the new location instead of
    // trusting a phase unwrap across the silence.
    for r in static_reads(&dep, plane, after, 6.5, 1.5) {
        for e in tracker.push(r).unwrap() {
            match e {
                OnlineEvent::Acquired { .. } => acquisitions += 1,
                OnlineEvent::Stale { gap } => {
                    stales += 1;
                    assert!(gap > 4.0, "reported gap {gap} should be the silence length");
                }
                _ => {}
            }
        }
    }
    assert_eq!(stales, 1, "exactly one stale reset");
    assert_eq!(acquisitions, 2, "re-acquisition after the reset");
    let est_after = tracker.current_estimate().expect("estimate after gap");
    assert!(
        est_after.dist(after) < 0.10,
        "post-gap estimate {est_after:?} should be near the new position {after:?}"
    );
}

#[test]
fn gap_check_disabled_by_default() {
    let (dep, plane, mut tracker) = tracker(None);
    for r in static_reads(&dep, plane, Point2::new(1.0, 1.0), 0.0, 1.0) {
        tracker.push(r).unwrap();
    }
    let mut stales = 0;
    for r in static_reads(&dep, plane, Point2::new(1.0, 1.0), 8.0, 1.0) {
        for e in tracker.push(r).unwrap() {
            if matches!(e, OnlineEvent::Stale { .. }) {
                stales += 1;
            }
        }
    }
    assert_eq!(stales, 0, "max_read_gap: None must never reset");
}

#[test]
fn reset_returns_to_warmup() {
    let (dep, plane, mut tracker) = tracker(None);
    for r in static_reads(&dep, plane, Point2::new(1.2, 0.9), 0.0, 1.5) {
        tracker.push(r).unwrap();
    }
    assert!(tracker.is_tracking());
    assert!(tracker.last_read_time().is_some());

    tracker.reset();
    assert!(!tracker.is_tracking());
    assert_eq!(tracker.current_estimate(), None);
    assert!(tracker.trajectory().is_empty());
    assert_eq!(tracker.last_read_time(), None);

    // The same tracker re-acquires cleanly after a reset.
    let p = Point2::new(1.6, 1.1);
    for r in static_reads(&dep, plane, p, 100.0, 1.5) {
        tracker.push(r).unwrap();
    }
    assert!(tracker.is_tracking());
    let est = tracker.current_estimate().expect("estimate after reset");
    assert!(est.dist(p) < 0.10);
}

#[test]
fn pruning_bounds_candidates_under_incoherent_stream() {
    // A pathological stream: phases that are a deterministic pseudo-random
    // walk, coherent with no tag position at all. Acquisition proposes
    // whatever weak peaks the mush produces; pruning must then keep the
    // per-tick work bounded instead of advancing every candidate forever.
    let (dep, _plane, mut tracker) = tracker(None);
    let antennas: Vec<AntennaId> = dep.antennas().iter().map(|a| a.id).collect();
    let per_antenna_dt = 0.02;
    let mut acquired = 0usize;
    let mut min_alive = usize::MAX;
    let mut t = 0.0;
    while t < 6.0 {
        for (i, &ant) in antennas.iter().enumerate() {
            let tt = t + i as f64 * (per_antenna_dt / antennas.len() as f64);
            // Smooth per-antenna drift plus antenna-dependent chop: never a
            // consistent geometry, but unwrappable (small per-read steps).
            let phase = wrap_tau(
                1.7 * (ant.0 as f64) + 2.0 * tt * (1.0 + 0.3 * (ant.0 as f64 * 1.3).sin())
                    + 0.4 * (7.0 * tt + ant.0 as f64).sin(),
            );
            for e in tracker.push(PhaseRead { t: tt, antenna: ant, phase }).unwrap() {
                if let OnlineEvent::Acquired { candidates } = e {
                    acquired = candidates;
                }
            }
        }
        if tracker.is_tracking() {
            min_alive = min_alive.min(tracker.alive_candidates());
        }
        t += per_antenna_dt;
    }
    assert!(acquired >= 1, "even an incoherent snapshot proposes candidates");
    assert!(tracker.alive_candidates() >= 1, "the best candidate survives");
    if acquired > 1 {
        assert!(
            min_alive < acquired,
            "pruning never fired: {acquired} candidates alive through 6 s of incoherent data"
        );
    }
    // The per-tick cost bound: the work scales with the candidates still
    // alive, which pruning has squeezed to a small constant.
    assert!(
        tracker.alive_candidates() <= 4,
        "{} candidates still alive after 6 s",
        tracker.alive_candidates()
    );
}

#[test]
fn antenna_dropout_degrades_then_recovers() {
    let (dep, plane, mut tracker) = tracker_with(OnlineConfig {
        tick: 0.04,
        prune_margin: 0.3,
        prune_after: 10,
        max_read_gap: None,
        dropout_after: Some(0.1),
        readmit_after: 0.2,
    });
    let p = Point2::new(1.2, 1.0);
    let victim = AntennaId(1); // a corner of the wide square

    // Clean warm-up: acquire on the full antenna set.
    for r in static_reads(&dep, plane, p, 0.0, 1.0) {
        tracker.push(r).unwrap();
    }
    assert!(tracker.is_tracking());
    assert!(!tracker.is_degraded());
    assert!(tracker.missing_pairs().is_empty());

    // 1.5 s with one antenna silent: the tracker must drop it, report the
    // degradation once, and keep positioning on the surviving pairs (§5.1
    // over-constrained redundancy).
    let mut degraded_sets = Vec::new();
    let mut positions_during_blackout = 0;
    for r in static_reads(&dep, plane, p, 1.0, 1.5) {
        if r.antenna == victim {
            continue;
        }
        for e in tracker.push(r).unwrap() {
            match e {
                OnlineEvent::Degraded { missing_pairs } => degraded_sets.push(missing_pairs),
                OnlineEvent::Position { pos, .. } => {
                    positions_during_blackout += 1;
                    assert!(pos.dist(p) < 0.15, "degraded estimate {pos:?} drifted from {p:?}");
                }
                _ => {}
            }
        }
    }
    assert_eq!(degraded_sets.len(), 1, "exactly one dropout episode");
    assert!(!degraded_sets[0].is_empty());
    assert!(
        degraded_sets[0].iter().all(|pr| pr.i == victim || pr.j == victim),
        "only the victim's pairs go missing"
    );
    assert!(
        positions_during_blackout > 20,
        "only {positions_during_blackout} estimates while degraded"
    );
    assert!(tracker.is_degraded());
    assert_eq!(tracker.missing_pairs(), degraded_sets[0]);

    // The antenna comes back; once its reads survive the hysteresis window
    // the pair set is whole again and tracking continues seamlessly.
    let mut recovered = false;
    for r in static_reads(&dep, plane, p, 2.5, 1.0) {
        for e in tracker.push(r).unwrap() {
            if let OnlineEvent::Degraded { missing_pairs } = e {
                assert!(missing_pairs.is_empty(), "re-admission must empty the missing set");
                recovered = true;
            }
        }
    }
    assert!(recovered, "victim was never re-admitted");
    assert!(!tracker.is_degraded());
    assert!(tracker.is_tracking());
    let est = tracker.current_estimate().expect("estimate after recovery");
    assert!(est.dist(p) < 0.10, "post-recovery estimate {est:?}");
}

#[test]
fn dropout_detection_is_inert_on_a_clean_stream() {
    // With every antenna reading steadily, a dropout-enabled tracker must
    // behave bit-identically to one with the check disabled (which is
    // itself the pre-degradation pipeline).
    let (dep, plane, mut plain) = tracker(None);
    let (_, _, mut with_dropout) = tracker_with(OnlineConfig {
        tick: 0.04,
        prune_margin: 0.3,
        prune_after: 10,
        max_read_gap: None,
        dropout_after: Some(0.1),
        readmit_after: 0.2,
    });
    for r in static_reads(&dep, plane, Point2::new(1.4, 1.1), 0.0, 2.0) {
        let a = plain.push(r).unwrap();
        let b = with_dropout.push(r).unwrap();
        assert_eq!(a, b, "event streams diverged at t={}", r.t);
    }
    assert!(plain.is_tracking());
    assert_eq!(plain.trajectory(), with_dropout.trajectory());
}

proptest! {
    /// Any interleaving of a per-antenna blackout and a global gap must
    /// never panic, and a clean tail always brings the tracker back to a
    /// live tracking state (re-admitting the antenna, re-acquiring after a
    /// stale reset, or both).
    #[test]
    fn blackouts_and_gaps_never_wedge_the_tracker(
        victim_idx in 0usize..8,
        blackout_start in 0.8f64..1.6,
        blackout_dur in 0.05f64..1.2,
        gap_len in 0.0f64..3.0,
    ) {
        let dep = Deployment::paper_default();
        let plane = Plane::at_depth(2.0);
        let region = Rect::new(Point2::new(0.5, 0.3), Point2::new(2.3, 1.7));
        let mut mcfg = MultiResConfig::for_region(region);
        mcfg.fine_resolution = 0.05; // coarse grid: speed over precision here
        let mut tracker = OnlineTracker::new(
            dep.clone(),
            plane,
            mcfg,
            TraceConfig::default(),
            OnlineConfig {
                tick: 0.04,
                prune_margin: 0.3,
                prune_after: 10,
                max_read_gap: Some(0.5),
                dropout_after: Some(0.1),
                readmit_after: 0.2,
            },
        );
        let antennas: Vec<AntennaId> = dep.antennas().iter().map(|a| a.id).collect();
        let victim = antennas[victim_idx % antennas.len()];
        let p = Point2::new(1.3, 1.0);
        let mut saw_stale = false;
        for r in static_reads(&dep, plane, p, 0.0, 2.0) {
            let blacked_out =
                r.antenna == victim && r.t >= blackout_start && r.t < blackout_start + blackout_dur;
            if blacked_out {
                continue;
            }
            for e in tracker.push(r).unwrap() {
                if matches!(e, OnlineEvent::Stale { .. }) {
                    saw_stale = true;
                }
            }
        }
        for r in static_reads(&dep, plane, p, 2.0 + gap_len, 1.0) {
            for e in tracker.push(r).unwrap() {
                if matches!(e, OnlineEvent::Stale { .. }) {
                    saw_stale = true;
                }
            }
        }
        prop_assert!(tracker.is_tracking(), "clean tail must end in tracking");
        if gap_len > 0.6 {
            prop_assert!(saw_stale, "a gap past max_read_gap must surface as Stale");
        }
        if let Some(est) = tracker.current_estimate() {
            prop_assert!(est.is_finite());
        }
    }
}
