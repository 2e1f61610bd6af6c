//! Helpers the serving integration tests share: the paper template over
//! the standard tracking region, the eight-tag inventory scenario, and
//! positions as raw bits for bit-identity checks.

// Each test crate compiles this module and uses only some of it.
#![allow(dead_code)]

use rfidraw_channel::{Channel, Scenario};
use rfidraw_core::array::Deployment;
use rfidraw_core::geom::{Plane, Point2, Point3, Rect};
use rfidraw_core::stream::PhaseRead;
use rfidraw_protocol::inventory::{demux_phase_reads, InventoryConfig, InventorySim, SimTag};
use rfidraw_protocol::Epc;
use rfidraw_serve::TrackerTemplate;
use std::collections::BTreeMap;

/// The paper's default tracker over the standard tracking region.
pub fn template() -> TrackerTemplate {
    TrackerTemplate::paper_default(Rect::new(Point2::new(0.5, 0.3), Point2::new(2.3, 1.7)))
}

/// 8 static tags spread across the tracking region, inventoried together
/// (they contend for ALOHA slots), demuxed into per-tag read streams.
pub fn eight_tag_streams(seed: u64, duration: f64) -> BTreeMap<Epc, Vec<PhaseRead>> {
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

/// A position as raw bits, for bit-identity comparisons.
pub fn bits(p: Point2) -> (u64, u64) {
    (p.x.to_bits(), p.z.to_bits())
}
