//! Shared vote tables across sessions: 8 concurrent sessions over one
//! deployment must build exactly one coarse and one fine table between
//! them, produce positions bit-identical to standalone trackers, and
//! surface the sharing through the service telemetry.

use rfidraw_core::geom::Point2;
use rfidraw_protocol::Epc;
use rfidraw_serve::{ServeConfig, TrackingService};
use std::collections::BTreeMap;

mod common;

use common::eight_tag_streams;

fn bits(trajectory: &[Point2]) -> Vec<(u64, u64)> {
    trajectory.iter().map(|p| (p.x.to_bits(), p.z.to_bits())).collect()
}

#[test]
fn eight_sessions_share_exactly_two_tables_bit_identically() {
    let streams = eight_tag_streams(11, 3.0);
    assert_eq!(streams.len(), 8, "every tag should be read");

    let template = common::template();
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
    let prom = report.to_prometheus();
    assert!(prom.contains("rfidraw_table_cache_hits_total 14"));
    assert!(prom.contains("rfidraw_table_cache_misses_total 2"));
}
