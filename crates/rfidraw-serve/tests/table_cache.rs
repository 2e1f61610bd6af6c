//! Shared vote tables across sessions: 8 concurrent sessions over one
//! deployment must build exactly one coarse and one fine table between
//! them, produce positions bit-identical to standalone trackers, and
//! surface the sharing through the service telemetry.

use rfidraw_channel::{Channel, Scenario};
use rfidraw_core::array::Deployment;
use rfidraw_core::geom::{Plane, Point2, Point3, Rect};
use rfidraw_core::stream::PhaseRead;
use rfidraw_protocol::inventory::{demux_phase_reads, InventoryConfig, InventorySim, SimTag};
use rfidraw_protocol::Epc;
use rfidraw_serve::{ServeConfig, TrackerTemplate, TrackingService};
use std::collections::BTreeMap;

fn region() -> Rect {
    Rect::new(Point2::new(0.5, 0.3), Point2::new(2.3, 1.7))
}

/// 8 static tags inventoried together, demuxed into per-tag streams.
fn eight_tag_streams(seed: u64, duration: f64) -> BTreeMap<Epc, Vec<PhaseRead>> {
    let plane = Plane::at_depth(2.0);
    let positions: Vec<Point2> = (0..8)
        .map(|i| Point2::new(0.7 + 0.4 * f64::from(i % 4), 0.6 + 0.7 * f64::from(i / 4)))
        .collect();
    let trajectories: Vec<Box<dyn Fn(f64) -> Point3>> = positions
        .iter()
        .map(|&p| {
            let f: Box<dyn Fn(f64) -> Point3> = Box::new(move |_t| plane.lift(p));
            f
        })
        .collect();
    let tags: Vec<SimTag<'_>> = trajectories
        .iter()
        .enumerate()
        .map(|(i, f)| SimTag { epc: Epc::from_index(i as u32 + 1), trajectory: f.as_ref() })
        .collect();
    let channel = Channel::new(Deployment::paper_default(), Scenario::Los.config(), seed);
    let mut sim = InventorySim::new(channel, InventoryConfig::paper_default(0.030, seed));
    demux_phase_reads(&sim.run(&tags, duration))
}

fn bits(trajectory: &[Point2]) -> Vec<(u64, u64)> {
    trajectory.iter().map(|p| (p.x.to_bits(), p.z.to_bits())).collect()
}

#[test]
fn eight_sessions_share_exactly_two_tables_bit_identically() {
    let streams = eight_tag_streams(11, 3.0);
    assert_eq!(streams.len(), 8, "every tag should be read");

    let template = TrackerTemplate::paper_default(region());
    let mut cfg = ServeConfig::new(template.clone());
    cfg.workers = None; // deterministic manual pumping
    cfg.queue_capacity = 1 << 14;
    let service = TrackingService::start(cfg);
    let client = service.client();
    for (&epc, reads) in &streams {
        client.ingest(epc, reads).expect("ingest");
    }
    while service.pump() > 0 {}
    let served: BTreeMap<Epc, Vec<(u64, u64)>> = streams
        .keys()
        .map(|&epc| (epc, bits(&client.session_view(epc).expect("session exists").trajectory)))
        .collect();

    // Every session clones one prototype tracker and scores through its
    // tables, bit-identically to a standalone tracker with its own.
    let standalone: BTreeMap<Epc, Vec<(u64, u64)>> = streams
        .iter()
        .map(|(&epc, reads)| {
            let mut tracker = template.build();
            for &r in reads {
                // The service counts a refused read and goes on; so does this.
                let _ = tracker.push(r);
            }
            (epc, bits(tracker.trajectory()))
        })
        .collect();
    let tracked = served.values().filter(|t| !t.is_empty()).count();
    assert!(tracked >= 6, "only {tracked}/8 sessions produced a trajectory");
    assert_eq!(served, standalone, "shared tables changed a position");

    // 8 sessions × (coarse + fine): the first session built both tables,
    // every later session shares them.
    let report = service.telemetry();
    assert_eq!(report.table_cache_misses, 2, "exactly one coarse and one fine table built");
    assert_eq!(report.table_cache_hits, 14, "7 later sessions × 2 tables each");
    assert_eq!(report.table_cache_bytes, template.build().positioner().table_bytes());
    assert_eq!(report.windowed_evals, 0, "no windowed tracking configured");
    let prom = report.to_prometheus();
    assert!(prom.contains("rfidraw_table_cache_hits_total 14"));
    assert!(prom.contains("rfidraw_table_cache_misses_total 2"));
}
