//! Loopback-TCP tests: the wire protocol end to end, with the streamed
//! trajectories bit-identical to standalone trackers, plus the protocol's
//! error paths.

use rfidraw_channel::{Channel, Scenario};
use rfidraw_core::array::Deployment;
use rfidraw_core::exec::Parallelism;
use rfidraw_core::geom::{Plane, Point2, Point3, Rect};
use rfidraw_core::online::OnlineEvent;
use rfidraw_core::stream::PhaseRead;
use rfidraw_protocol::inventory::{demux_phase_reads, InventoryConfig, InventorySim, SimTag};
use rfidraw_protocol::Epc;
use rfidraw_serve::wire::{self, Envelope, Message};
use rfidraw_serve::{ReactorServer, ServeConfig, TrackerTemplate, TrackingService, WireClient};
use std::collections::BTreeMap;
use std::io::Write;

fn template() -> TrackerTemplate {
    TrackerTemplate::paper_default(Rect::new(Point2::new(0.5, 0.3), Point2::new(2.3, 1.7)))
}

/// Binds the TCP front end in front of `service`.
fn serve(service: &TrackingService) -> ReactorServer {
    ReactorServer::bind("127.0.0.1:0", service.client(), rfidraw_net::ReactorConfig::default())
        .expect("bind loopback")
}

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

#[test]
fn eight_sessions_over_tcp_match_standalone_trackers_bit_for_bit() {
    let streams = eight_tag_streams(13, 3.0);
    assert_eq!(streams.len(), 8);

    // Reference: standalone trackers, fed directly.
    let tpl = template();
    let reference: BTreeMap<Epc, Vec<(f64, f64, f64)>> = streams
        .iter()
        .map(|(&epc, reads)| {
            let mut tracker = tpl.build();
            let mut positions = Vec::new();
            for &r in reads {
                for e in tracker.push(r).unwrap() {
                    if let OnlineEvent::Position { t, pos } = e {
                        positions.push((t, pos.x, pos.z));
                    }
                }
            }
            (epc, positions)
        })
        .collect();
    assert!(
        reference.values().filter(|p| !p.is_empty()).count() >= 6,
        "the scenario must produce real position streams"
    );

    let mut cfg = ServeConfig::new(template());
    cfg.workers = Some(Parallelism::Threads(4));
    let service = TrackingService::start(cfg);
    let server = serve(&service);
    let addr = server.local_addr();

    // Per tag: one subscriber connection collecting the pushed stream, and
    // one ingest connection (separate, per the connection discipline).
    let collectors: Vec<_> = streams
        .keys()
        .map(|&epc| {
            let mut sub = WireClient::connect(addr).expect("connect subscriber");
            sub.subscribe(epc).expect("subscribe");
            // A round trip on the same connection: the server handles one
            // connection's frames in order, so the reply proves the
            // subscription is registered before any producer below ingests.
            sub.telemetry().expect("subscription barrier");
            std::thread::spawn(move || {
                let mut positions = Vec::new();
                loop {
                    match sub.recv().expect("subscriber recv") {
                        Some(Message::PositionUpdate(p)) => {
                            assert_eq!(p.epc, epc);
                            positions.push((p.t, p.x, p.z));
                        }
                        Some(Message::SessionClosed(c)) => {
                            assert_eq!(c.epc, epc);
                            assert_eq!(c.reason, "explicit");
                            return (epc, positions);
                        }
                        Some(other) => panic!("unexpected frame on subscription: {other:?}"),
                        None => panic!("server hung up before SessionClosed"),
                    }
                }
            })
        })
        .collect();

    let producers: Vec<_> = streams
        .iter()
        .map(|(&epc, reads)| {
            let reads = reads.clone();
            std::thread::spawn(move || {
                let mut client = WireClient::connect(addr).expect("connect producer");
                let mut accepted = 0u64;
                for chunk in reads.chunks(32) {
                    let ack = client.ingest(epc, chunk).expect("ingest over tcp");
                    assert_eq!(ack.epc, epc);
                    assert_eq!(ack.dropped + ack.rejected, 0, "Block is lossless");
                    accepted += ack.accepted;
                }
                assert_eq!(accepted as usize, reads.len());
            })
        })
        .collect();
    for p in producers {
        p.join().expect("producer");
    }
    service.quiesce();
    // Closing each session flushes a SessionClosed to its subscriber,
    // which is the collectors' stop signal.
    let local = service.client();
    for &epc in streams.keys() {
        assert!(local.close_session(epc));
    }

    for c in collectors {
        let (epc, got) = c.join().expect("collector");
        let expected = &reference[&epc];
        assert_eq!(got.len(), expected.len(), "{epc}: position count over TCP");
        for ((gt, gx, gz), (et, ex, ez)) in got.iter().zip(expected) {
            assert_eq!(gt.to_bits(), et.to_bits(), "{epc}: tick time bits");
            assert_eq!(gx.to_bits(), ex.to_bits(), "{epc}: x bits");
            assert_eq!(gz.to_bits(), ez.to_bits(), "{epc}: z bits");
        }
    }

    // Telemetry over the wire agrees with the in-process snapshot.
    let mut tc = WireClient::connect(addr).expect("connect telemetry");
    let report = tc.telemetry().expect("telemetry over tcp");
    let total: usize = streams.values().map(Vec::len).sum();
    assert_eq!(report.reads_ingested, total as u64);
    assert_eq!(report.reads_processed, total as u64);
    assert_eq!(report.reads_dropped + report.reads_rejected, 0);
    // The service's trackers refused no read of the clean streams, so
    // neither did the standalone ones the reference ran.
    assert_eq!(report.reads_invalid, 0);
    assert_eq!(report.sessions_closed, 8);
}

#[test]
fn version_mismatch_gets_an_error_frame() {
    let service = TrackingService::start({
        let mut cfg = ServeConfig::new(template());
        cfg.workers = None;
        cfg
    });
    let server = serve(&service);
    let mut client = WireClient::connect(server.local_addr()).unwrap();

    let bad = serde_json::to_string(&Envelope { v: 999, msg: Message::TelemetryRequest }).unwrap();
    client.send_raw(&bad).unwrap();
    match client.recv().unwrap() {
        Some(Message::Error(e)) => assert_eq!(e.code, "version"),
        other => panic!("expected a version error, got {other:?}"),
    }
    // The connection survives the refusal.
    let report = client.telemetry().unwrap();
    assert_eq!(report.active_sessions, 0);
}

#[test]
fn malformed_and_unsupported_frames_get_error_frames() {
    let service = TrackingService::start({
        let mut cfg = ServeConfig::new(template());
        cfg.workers = None;
        cfg
    });
    let server = serve(&service);
    let mut client = WireClient::connect(server.local_addr()).unwrap();

    client.send_raw("this is not json").unwrap();
    match client.recv().unwrap() {
        Some(Message::Error(e)) => assert_eq!(e.code, "parse"),
        other => panic!("expected a parse error, got {other:?}"),
    }

    // A server→client message sent at the server is refused, not crashed on.
    client
        .send(&Message::SessionClosed(wire::SessionClosed {
            epc: Epc::from_index(1),
            reason: "idle".to_string(),
        }))
        .unwrap();
    match client.recv().unwrap() {
        Some(Message::Error(e)) => assert_eq!(e.code, "unsupported"),
        other => panic!("expected an unsupported error, got {other:?}"),
    }
}

#[test]
fn session_cap_is_reported_over_the_wire() {
    let service = TrackingService::start({
        let mut cfg = ServeConfig::new(template());
        cfg.workers = None;
        cfg.max_sessions = 1;
        cfg
    });
    let server = serve(&service);
    let mut client = WireClient::connect(server.local_addr()).unwrap();

    let read = PhaseRead { t: 0.0, antenna: rfidraw_core::array::AntennaId(1), phase: 0.5 };
    client.ingest(Epc::from_index(1), &[read]).unwrap();
    let err = client.ingest(Epc::from_index(2), &[read]).unwrap_err();
    let text = err.to_string();
    assert!(text.contains("limit"), "cap refusal should carry the limit code: {text}");
}

/// Raw-line escape hatch so tests can speak protocol violations.
trait SendRaw {
    fn send_raw(&mut self, line: &str) -> std::io::Result<()>;
}

impl SendRaw for WireClient {
    fn send_raw(&mut self, line: &str) -> std::io::Result<()> {
        let stream = self.stream_mut();
        stream.write_all(line.as_bytes())?;
        stream.write_all(b"\n")?;
        stream.flush()
    }
}
