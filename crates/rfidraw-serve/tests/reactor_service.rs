//! Reactor front-end integration: the TCP front end must be
//! observationally identical to standalone trackers — bit-for-bit on
//! every streamed position — for eight concurrent sessions, across JSON
//! (wire v2) and binary (wire v3) clients in any mix, with telemetry over
//! the wire that conserves every read. Plus the connection lifecycle:
//! idle eviction delivers `SessionClosed("idle")` with the connection
//! staying usable, and graceful shutdown flushes
//! `SessionClosed("shutdown")` before the socket closes.

use rfidraw_channel::{Channel, Scenario};
use rfidraw_core::array::{AntennaId, Deployment};
use rfidraw_core::exec::Parallelism;
use rfidraw_core::geom::{Plane, Point2, Point3, Rect};
use rfidraw_core::online::OnlineEvent;
use rfidraw_core::stream::PhaseRead;
use rfidraw_protocol::inventory::{demux_phase_reads, InventoryConfig, InventorySim, SimTag};
use rfidraw_protocol::Epc;
use rfidraw_serve::wire::Message;
use rfidraw_serve::{
    ReactorServer, ServeConfig, TrackerTemplate, TrackingService, WireClient, WireProtocol,
};
use std::collections::BTreeMap;
use std::time::Duration;

fn template() -> TrackerTemplate {
    TrackerTemplate::paper_default(Rect::new(Point2::new(0.5, 0.3), Point2::new(2.3, 1.7)))
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

type PositionBits = Vec<(u64, u64, u64)>;

/// Standalone-tracker oracle: one tracker per tag, positions as raw bits.
/// Tracker-refused reads (possible on faulted streams) are skipped, which
/// is exactly what the service's workers do.
fn standalone_reference(
    tpl: &TrackerTemplate,
    streams: &BTreeMap<Epc, Vec<PhaseRead>>,
) -> BTreeMap<Epc, PositionBits> {
    streams
        .iter()
        .map(|(&epc, reads)| {
            let mut tracker = tpl.build();
            let mut positions = Vec::new();
            for &r in reads {
                if let Ok(events) = tracker.push(r) {
                    for e in events {
                        if let OnlineEvent::Position { t, pos } = e {
                            positions.push((t.to_bits(), pos.x.to_bits(), pos.z.to_bits()));
                        }
                    }
                }
            }
            (epc, positions)
        })
        .collect()
}

fn service_config() -> ServeConfig {
    service_config_with(template())
}

fn service_config_with(tpl: TrackerTemplate) -> ServeConfig {
    let mut cfg = ServeConfig::new(tpl);
    cfg.workers = Some(Parallelism::Threads(4));
    cfg
}

/// Runs the eight streams through the TCP front end: per tag one
/// subscriber connection (protocol chosen by `sub_protocol`) and one
/// producer connection (`prod_protocol`). Returns each tag's streamed
/// positions as bits and the telemetry once every read is processed.
/// After the sessions close it checks the telemetry fetched over the
/// wire: every read ingested and processed, none lost, every session
/// closed.
fn run_frontend(
    streams: &BTreeMap<Epc, Vec<PhaseRead>>,
    cfg: ServeConfig,
    sub_protocol: impl Fn(usize) -> WireProtocol,
    prod_protocol: impl Fn(usize) -> WireProtocol,
) -> (BTreeMap<Epc, PositionBits>, rfidraw_serve::TelemetryReport) {
    let reactor_cfg = cfg.net.reactor.clone();
    let service = TrackingService::start(cfg);
    let mut server =
        ReactorServer::bind("127.0.0.1:0", service.client(), reactor_cfg).expect("bind reactor");
    let addr = server.local_addr();

    let collectors: Vec<_> = streams
        .keys()
        .enumerate()
        .map(|(i, &epc)| {
            let mut sub =
                WireClient::connect_with(addr, sub_protocol(i)).expect("connect subscriber");
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
                            positions.push((p.t.to_bits(), p.x.to_bits(), p.z.to_bits()));
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
        .enumerate()
        .map(|(i, (&epc, reads))| {
            let reads = reads.clone();
            let protocol = prod_protocol(i);
            std::thread::spawn(move || {
                let mut client =
                    WireClient::connect_with(addr, protocol).expect("connect producer");
                let mut accepted = 0u64;
                for chunk in reads.chunks(32) {
                    let ack = client.ingest(epc, chunk).expect("ingest");
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
    let report = service.telemetry();
    let local = service.client();
    for &epc in streams.keys() {
        assert!(local.close_session(epc));
    }
    let mut got = BTreeMap::new();
    for c in collectors {
        let (epc, positions) = c.join().expect("collector");
        got.insert(epc, positions);
    }

    let mut tc = WireClient::connect(addr).expect("connect telemetry");
    let wire_report = tc.telemetry().expect("telemetry over tcp");
    let total: u64 = streams.values().map(|r| r.len() as u64).sum();
    assert_eq!(wire_report.reads_ingested, total);
    assert_eq!(wire_report.reads_processed, total);
    assert_eq!(wire_report.reads_dropped + wire_report.reads_rejected, 0);
    assert_eq!(wire_report.sessions_closed, streams.len() as u64);
    server.shutdown().expect("graceful shutdown");
    (got, report)
}

fn assert_streams_equal(
    label: &str,
    got: &BTreeMap<Epc, PositionBits>,
    expected: &BTreeMap<Epc, PositionBits>,
) {
    for (epc, exp) in expected {
        let g = &got[epc];
        assert_eq!(g.len(), exp.len(), "{label}: {epc}: position count");
        assert_eq!(g, exp, "{label}: {epc}: position bits diverged");
    }
}

/// JSON/binary equivalence: the same ingest over wire v2 and wire v3, in
/// a mix of eight concurrent sessions (producers and subscribers split
/// across both protocols), produces position streams bit-identical to the
/// standalone reference, and the telemetry conserves every read and every
/// connection regardless of protocol.
#[test]
fn mixed_protocol_sessions_are_equivalent_and_conserve() {
    let streams = eight_tag_streams(13, 3.0);
    let reference = standalone_reference(&template(), &streams);

    // Even tags: binary producer + JSON subscriber. Odd tags: the
    // opposite. Every session therefore crosses protocols somewhere.
    let (got, report) = run_frontend(
        &streams,
        service_config(),
        |i| if i % 2 == 0 { WireProtocol::JsonV2 } else { WireProtocol::BinaryV3 },
        |i| if i % 2 == 0 { WireProtocol::BinaryV3 } else { WireProtocol::JsonV2 },
    );
    assert_streams_equal("mixed-protocol reactor", &got, &reference);

    // Read conservation is protocol-independent.
    let total: u64 = streams.values().map(|r| r.len() as u64).sum();
    assert_eq!(report.reads_ingested, total);
    assert_eq!(report.reads_processed, total);
    assert_eq!(report.reads_dropped + report.reads_rejected, 0);

    // Both protocols actually ran, and the frame counters saw them.
    assert!(report.net.frames_in_json > 0, "JSON producers must be counted");
    assert!(report.net.frames_in_binary > 0, "binary producers must be counted");
    assert_eq!(report.net.frame_errors, 0);
    assert_eq!(report.net.midframe_disconnects, 0);
    // Connection conservation: everything accepted is either still open
    // or fully closed.
    assert_eq!(
        report.net.connections_accepted,
        report.net.connections_open + report.net.connections_closed
    );
    assert!(report.net.connections_accepted >= 16, "8 producers + 8 subscribers");

    // Shard conservation: every processed read was drained from exactly
    // one shard; every live session is owned by exactly one shard.
    assert_eq!(report.shards.len(), 8, "default shard count");
    assert_eq!(
        report.shards.iter().map(|s| s.reads_drained).sum::<u64>(),
        report.reads_processed
    );
    assert_eq!(
        report.shards.iter().map(|s| s.sessions).sum::<u64>(),
        report.active_sessions
    );
}

/// Idle eviction under the reactor: a session that stops ingesting is
/// evicted after `idle_timeout`, its subscriber receives
/// `SessionClosed("idle")`, and the connection remains fully usable.
#[test]
fn idle_eviction_delivers_session_closed_and_the_connection_survives() {
    let mut cfg = service_config();
    cfg.idle_timeout = Duration::from_millis(200);
    cfg.workers = Some(Parallelism::Threads(1));
    let service = TrackingService::start(cfg);
    let server = ReactorServer::bind(
        "127.0.0.1:0",
        service.client(),
        rfidraw_net::ReactorConfig::default(),
    )
    .unwrap();
    let epc = Epc::from_index(42);

    // Binary subscriber, JSON producer: the lifecycle crosses protocols.
    let mut sub = WireClient::connect_binary(server.local_addr()).unwrap();
    sub.subscribe(epc).unwrap();
    let mut producer = WireClient::connect(server.local_addr()).unwrap();
    let ack = producer
        .ingest(epc, &[PhaseRead { t: 0.1, antenna: AntennaId(1), phase: 0.5 }])
        .unwrap();
    assert_eq!(ack.accepted, 1);

    // No further ingest: the sweeper evicts and the reactor forwards the
    // close. Positions may or may not precede it (one read never
    // acquires), so skip any.
    loop {
        match sub.recv().expect("subscriber recv") {
            Some(Message::PositionUpdate(_)) => {}
            Some(Message::SessionClosed(c)) => {
                assert_eq!(c.epc, epc);
                assert_eq!(c.reason, "idle");
                break;
            }
            other => panic!("expected idle SessionClosed, got {other:?}"),
        }
    }

    // The connection outlives its subscription.
    let report = sub.telemetry().expect("connection must survive the eviction");
    assert_eq!(report.active_sessions, 0);
    assert_eq!(report.sessions_evicted, 1);
}

/// Updates are pushed: a worker that completes a tick pokes the reactor
/// through its wakeup pipe, and the reactor forwards the update with no
/// other traffic to wake it. One ingest whose reads complete the first
/// tick, then silence: the subscriber still receives that position, and
/// the reactor woke on its pipe to send it.
#[test]
fn updates_are_pushed_without_further_traffic() {
    let streams = eight_tag_streams(13, 3.0);
    let (&epc, reads) = streams.iter().next().expect("a tag stream");
    let mut tracker = template().build();
    let (first, end) = reads
        .iter()
        .enumerate()
        .find_map(|(i, &r)| {
            tracker.push(r).ok()?.into_iter().find_map(|e| match e {
                OnlineEvent::Position { t, pos } => Some(((t, pos), i + 1)),
                _ => None,
            })
        })
        .expect("the stream tracks");

    let mut cfg = service_config();
    cfg.workers = Some(Parallelism::Threads(1));
    let service = TrackingService::start(cfg);
    let server = ReactorServer::bind(
        "127.0.0.1:0",
        service.client(),
        rfidraw_net::ReactorConfig::default(),
    )
    .unwrap();
    let mut sub = WireClient::connect_binary(server.local_addr()).unwrap();
    sub.subscribe(epc).unwrap();
    sub.telemetry().expect("subscription barrier");
    let mut producer = WireClient::connect_binary(server.local_addr()).unwrap();
    let ack = producer.ingest(epc, &reads[..end]).unwrap();
    assert_eq!(ack.accepted as usize, end);

    // A deadline, so an update that is never pushed fails the test.
    sub.stream_mut().set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    match sub.recv().expect("the update arrives without further traffic") {
        Some(Message::PositionUpdate(p)) => {
            assert_eq!(p.epc, epc);
            assert_eq!(p.t.to_bits(), first.0.to_bits());
            assert_eq!((p.x.to_bits(), p.z.to_bits()), (first.1.x.to_bits(), first.1.z.to_bits()));
        }
        other => panic!("expected a PositionUpdate, got {other:?}"),
    }
    assert!(service.telemetry().net.wakeups >= 1, "the update went out on a reactor wakeup");
}

/// Graceful reactor shutdown: in-flight frames are processed, pending
/// writes are flushed, and every open subscription sees
/// `SessionClosed("shutdown")` before the clean EOF — on both protocols.
#[test]
fn graceful_shutdown_delivers_session_closed_then_clean_eof() {
    let service = TrackingService::start(service_config());
    let mut server = ReactorServer::bind(
        "127.0.0.1:0",
        service.client(),
        rfidraw_net::ReactorConfig::default(),
    )
    .unwrap();
    let addr = server.local_addr();

    let epc_a = Epc::from_index(1);
    let epc_b = Epc::from_index(2);
    let mut sub_json = WireClient::connect(addr).unwrap();
    sub_json.subscribe(epc_a).unwrap();
    sub_json.telemetry().expect("subscription barrier");
    let mut sub_bin = WireClient::connect_binary(addr).unwrap();
    sub_bin.subscribe(epc_b).unwrap();
    sub_bin.telemetry().expect("subscription barrier");

    let mut producer = WireClient::connect_binary(addr).unwrap();
    for (epc, t) in [(epc_a, 0.1), (epc_b, 0.2)] {
        let ack = producer
            .ingest(epc, &[PhaseRead { t, antenna: AntennaId(1), phase: 0.5 }])
            .unwrap();
        assert_eq!(ack.accepted, 1);
    }
    service.quiesce();
    server.shutdown().expect("graceful shutdown");

    for (mut sub, epc) in [(sub_json, epc_a), (sub_bin, epc_b)] {
        loop {
            match sub.recv().expect("recv during shutdown") {
                Some(Message::PositionUpdate(_)) => {}
                Some(Message::SessionClosed(c)) => {
                    assert_eq!(c.epc, epc);
                    assert_eq!(c.reason, "shutdown");
                    break;
                }
                other => panic!("expected shutdown SessionClosed, got {other:?}"),
            }
        }
        assert!(
            sub.recv().expect("post-close recv").is_none(),
            "after SessionClosed the server must close cleanly"
        );
    }
}

/// The acceptance gate under fault injection: faulted streams (duplicate
/// reads, swapped order, a per-antenna blackout, a clock-skew step — the
/// wire-encodable fault classes; non-finite fields are covered by the
/// hostile-batch and corpus tests) served over TCP in a protocol mix must
/// stay bit-identical to standalone trackers fed the identical faulted
/// bytes.
#[test]
fn faulted_streams_stay_bit_identical_to_standalone_trackers() {
    use rfidraw_channel::{Blackout, ClockSkew, FaultSchedule, ScheduledFaults};

    // Dropout detection on, so the blackout exercises degraded-mode
    // positioning through the wire path too (thresholds as in the
    // fault_injection suite: above natural inventory gaps, below the
    // scheduled blackout).
    let mut tpl = template();
    tpl.online.dropout_after = Some(1.0);
    tpl.online.readmit_after = 0.3;

    let clean = eight_tag_streams(11, 3.0);
    let streams: BTreeMap<Epc, Vec<PhaseRead>> = clean
        .iter()
        .enumerate()
        .map(|(i, (&epc, reads))| {
            let schedule = match i {
                0 => Some(FaultSchedule {
                    duplicate_chance: 0.03,
                    swap_chance: 0.03,
                    ..FaultSchedule::default()
                }),
                2 => Some(FaultSchedule {
                    duplicate_chance: 0.02,
                    blackouts: vec![Blackout {
                        antenna: AntennaId(3),
                        start: 0.8,
                        duration: 1.6,
                    }],
                    ..FaultSchedule::default()
                }),
                4 => Some(FaultSchedule {
                    swap_chance: 0.02,
                    clock_skew: Some(ClockSkew { start: 1.5, offset: -0.3 }),
                    ..FaultSchedule::default()
                }),
                _ => None,
            };
            match schedule {
                Some(sch) => {
                    let (faulted, ledger) =
                        ScheduledFaults::new(sch, 2000 + i as u64).apply(reads);
                    assert!(
                        ledger.duplicates + ledger.swaps + ledger.blacked_out + ledger.skewed > 0,
                        "tag {i}: the schedule must actually inject faults"
                    );
                    (epc, faulted)
                }
                None => (epc, reads.clone()),
            }
        })
        .collect();
    // Everything must survive wire validation: these fault classes keep
    // fields finite, so no batch is refused at the boundary.
    assert!(streams.values().flatten().all(rfidraw_serve::wire::read_is_valid));

    let reference = standalone_reference(&tpl, &streams);
    assert!(
        reference.values().filter(|p| !p.is_empty()).count() >= 6,
        "faulted scenarios must still track"
    );

    let (via_reactor, report) = run_frontend(
        &streams,
        service_config_with(tpl),
        |i| if i % 2 == 0 { WireProtocol::BinaryV3 } else { WireProtocol::JsonV2 },
        |i| if i % 2 == 0 { WireProtocol::JsonV2 } else { WireProtocol::BinaryV3 },
    );
    assert_streams_equal("faulted reactor", &via_reactor, &reference);
    let total: u64 = streams.values().map(|r| r.len() as u64).sum();
    assert_eq!(report.reads_ingested, total);
    assert_eq!(report.reads_processed, total);
    assert!(report.degraded_events > 0, "the blackout must surface degraded transitions");
    assert_eq!(
        report.shards.iter().map(|s| s.reads_drained).sum::<u64>(),
        report.reads_processed
    );
}
