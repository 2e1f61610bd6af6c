//! `OnlineTracker::is_quiet` is sound and useful. Sound: whenever it
//! holds for a batch, pushing that batch emits no event and leaves the
//! tracker's observable state alone — over random streams with warm-up,
//! stale gaps, hostile reads, unknown antennas, dropout on and off, and
//! random batch splits. Useful: on a clean stream fed one read at a time,
//! most reads are quiet (only the read that completes a tick, or warm-up,
//! is not), so a serving layer that applies quiet reads inline saves real
//! work.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rfidraw_core::array::{AntennaId, Deployment};
use rfidraw_core::geom::{Plane, Point2, Rect};
use rfidraw_core::online::{OnlineConfig, OnlineTracker};
use rfidraw_core::phase::wrap_tau;
use rfidraw_core::position::MultiResConfig;
use rfidraw_core::stream::PhaseRead;
use rfidraw_core::trace::TraceConfig;
use std::f64::consts::TAU;

/// The paper-default deployment and plane, with a 1 s stale gap as the
/// serving layer configures it.
fn tracker(fine_resolution: f64, dropout_after: Option<f64>) -> OnlineTracker {
    let region = Rect::new(Point2::new(0.5, 0.3), Point2::new(2.3, 1.7));
    let mut position = MultiResConfig::for_region(region);
    position.fine_resolution = fine_resolution;
    OnlineTracker::new(
        Deployment::paper_default(),
        Plane::at_depth(2.0),
        position,
        TraceConfig::default(),
        OnlineConfig { max_read_gap: Some(1.0), dropout_after, ..OnlineConfig::default() },
    )
}

/// Ideal staggered reads, every antenna every 20 ms, of a tag circling
/// `center` from `t0` for `dur` seconds.
fn circling_reads(center: Point2, t0: f64, dur: f64) -> Vec<PhaseRead> {
    let dep = Deployment::paper_default();
    let plane = Plane::at_depth(2.0);
    let antennas: Vec<AntennaId> = dep.antennas().iter().map(|a| a.id).collect();
    let per_antenna_dt = 0.02;
    let mut reads = Vec::new();
    let mut t = 0.0;
    while t < dur {
        for (i, &ant) in antennas.iter().enumerate() {
            let tt = t + i as f64 * (per_antenna_dt / antennas.len() as f64);
            let a = TAU * tt / 2.0;
            let pos = plane.lift(center + Point2::new(0.08 * a.cos(), 0.08 * a.sin()));
            let antenna = dep.antenna(ant).expect("deployment antenna");
            let phase = wrap_tau(
                -TAU * dep.path_factor() * pos.dist(antenna.pos) / dep.wavelength().meters(),
            );
            reads.push(PhaseRead { t: t0 + tt, antenna: ant, phase });
        }
        t += per_antenna_dt;
    }
    reads
}

/// A stream of `segments` circling segments, each after a gap that is
/// either past the 1 s stale limit or short, jittered and thinned at
/// random as a real inventory's reads are, then hostile edits: an
/// antenna blackout, non-finite fields, duplicates, out-of-order and
/// unknown-antenna reads.
fn hostile_stream(rng: &mut StdRng, segments: usize) -> Vec<PhaseRead> {
    let mut reads = Vec::new();
    let mut t0 = 0.0;
    for _ in 0..segments {
        let center = Point2::new(rng.gen_range(0.9..1.9), rng.gen_range(0.7..1.3));
        let dur = rng.gen_range(0.3..0.9);
        reads.extend(circling_reads(center, t0, dur));
        let stale = rng.gen_range(0..2) == 0;
        let gap = if stale { rng.gen_range(1.05..1.6) } else { rng.gen_range(0.0..0.9) };
        t0 += dur + gap;
    }
    for r in &mut reads {
        r.t += rng.gen_range(0.0..0.0025);
    }
    reads.sort_by(|a, b| a.t.total_cmp(&b.t));
    let keep = rng.gen_range(0.5..1.0);
    reads.retain(|_| rng.gen_range(0.0..1.0) < keep);
    // One antenna goes silent for a while (a dropout when enabled).
    if rng.gen_range(0..2) == 0 {
        let silent = AntennaId(rng.gen_range(1..9));
        let from = rng.gen_range(0.0..t0);
        let to = from + rng.gen_range(0.1..0.6);
        reads.retain(|r| r.antenna != silent || r.t < from || r.t > to);
    }
    let mut out = Vec::with_capacity(reads.len() + reads.len() / 8);
    for (i, &r) in reads.iter().enumerate() {
        out.push(r);
        match rng.gen_range(0..60) {
            0 => out.push(PhaseRead { t: f64::NAN, ..r }),
            1 => out.push(PhaseRead { phase: f64::INFINITY, ..r }),
            2 => out.push(PhaseRead { t: f64::NEG_INFINITY, ..r }),
            3 => out.push(PhaseRead { phase: r.phase + 0.3, ..r }),
            4 if i >= 8 => out.push(PhaseRead { t: reads[i - 8].t, ..r }),
            5 => out.push(PhaseRead { antenna: AntennaId(200), ..r }),
            _ => {}
        }
    }
    out
}

/// What a push may never change when its batch was judged quiet.
fn observable(tracker: &OnlineTracker) -> (bool, usize, Option<(u64, u64)>) {
    (
        tracker.is_tracking(),
        tracker.trajectory().len(),
        tracker.current_estimate().map(|p| (p.x.to_bits(), p.z.to_bits())),
    )
}

/// Largest batch per split mode: one read at a time (the open-loop
/// serving path), a few reads, and bulk frames.
const MAX_BATCH: [usize; 3] = [1, 5, 40];

proptest! {
    /// Whenever `is_quiet(batch)` holds, pushing the batch returns no
    /// event and leaves `is_tracking`, the trajectory length and the
    /// estimate unchanged.
    #[test]
    fn quiet_batches_never_emit_or_move_the_estimate(
        seed in any::<u64>(),
        segments in 1usize..4,
        dropout in any::<bool>(),
        split in 0usize..3,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let reads = hostile_stream(&mut rng, segments);
        let mut tracker = tracker(0.05, dropout.then_some(0.15));
        let (mut quiet_reads, mut emitted) = (0usize, 0usize);
        let mut rest = reads.as_slice();
        while !rest.is_empty() {
            let n = rng.gen_range(1..MAX_BATCH[split] + 1).min(rest.len());
            let (batch, tail) = rest.split_at(n);
            rest = tail;
            let quiet = tracker.is_quiet(batch);
            let before = observable(&tracker);
            let events: Vec<_> = batch
                .iter()
                .filter_map(|&r| tracker.push(r).ok())
                .flatten()
                .collect();
            emitted += events.len();
            if quiet {
                quiet_reads += batch.len();
                prop_assert!(events.is_empty(), "quiet batch {batch:?} emitted {events:?}");
                prop_assert_eq!(observable(&tracker), before, "quiet batch {:?}", batch);
            }
        }
        prop_assert!(emitted > 0, "the stream must exercise the tracker");
        if dropout {
            prop_assert_eq!(quiet_reads, 0, "dropout bookkeeping is never quiet");
        }
    }
}

/// On a clean paper-default stream fed one read at a time, at least 80%
/// of reads are quiet: every antenna reads every 20 ms and the tick is
/// 40 ms, so about one read in 16 completes a tick.
#[test]
fn clean_stream_is_mostly_quiet() {
    let mut tracker = tracker(0.02, None);
    let reads = circling_reads(Point2::new(1.4, 1.0), 0.0, 3.0);
    let mut quiet = 0;
    for &r in &reads {
        let q = tracker.is_quiet([&r]);
        let events = tracker.push(r).expect("clean read");
        assert!(!q || events.is_empty(), "a quiet read emitted {events:?}");
        quiet += usize::from(q);
    }
    assert!(tracker.is_tracking(), "the stream must acquire");
    assert!(
        quiet * 5 >= reads.len() * 4,
        "only {quiet} of {} reads were quiet",
        reads.len()
    );
}
