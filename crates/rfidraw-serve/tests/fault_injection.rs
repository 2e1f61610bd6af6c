//! Fault-injection suite for the ingest boundary: every fault class the
//! hostile-producer scheduler can emit runs against eight concurrent
//! sessions, and the service must (a) never panic, (b) keep faulted
//! sessions bit-identical to a standalone tracker fed the same faulted
//! stream, (c) keep clean sessions bit-identical to their unfaulted
//! reference, and (d) reconcile every refused read in telemetry. The wire
//! front-end gets its own hostile treatment: crafted batches, truncated
//! frames, and a corpus of malformed lines, none of which may kill a
//! connection or fabricate a session.

use rfidraw_channel::{
    Blackout, Channel, ClockSkew, FaultSchedule, Scenario, ScheduledFaults,
};
use rfidraw_core::array::{AntennaId, Deployment};
use rfidraw_core::exec::Parallelism;
use rfidraw_core::geom::{Plane, Point2, Point3, Rect};
use rfidraw_core::grid::Grid2;
use rfidraw_core::stream::PhaseRead;
use rfidraw_core::TablePrecision;
use rfidraw_protocol::inventory::{demux_phase_reads, InventoryConfig, InventorySim, SimTag};
use rfidraw_protocol::Epc;
use rfidraw_serve::wire::{self, Envelope, Message};
use rfidraw_serve::{ReactorServer, ServeConfig, TrackerTemplate, TrackingService, WireClient};
use std::collections::BTreeMap;
use std::io::Write;

fn template() -> TrackerTemplate {
    template_with(TablePrecision::F64)
}

fn template_with(precision: TablePrecision) -> TrackerTemplate {
    let mut tpl =
        TrackerTemplate::paper_default(Rect::new(Point2::new(0.5, 0.3), Point2::new(2.3, 1.7)));
    // Dropout detection on, so per-antenna blackouts exercise degraded-mode
    // positioning end to end rather than just surviving. The inventory sim
    // reads each antenna every ~0.15 s with natural gaps up to ~0.9 s, so
    // the threshold sits just above those and the scheduled blackout well
    // beyond it.
    tpl.online.dropout_after = Some(1.0);
    tpl.online.readmit_after = 0.3;
    tpl.position.precision = precision;
    tpl
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

/// Every fault class, spread across the four faulted tags (odd stream
/// indices stay clean as in-band controls).
fn fault_schedule_for(index: usize) -> Option<FaultSchedule> {
    match index {
        0 => Some(FaultSchedule {
            nan_phase_chance: 0.02,
            nan_timestamp_chance: 0.01,
            negative_timestamp_chance: 0.01,
            ..FaultSchedule::default()
        }),
        2 => Some(FaultSchedule {
            duplicate_chance: 0.03,
            swap_chance: 0.03,
            ..FaultSchedule::default()
        }),
        4 => Some(FaultSchedule {
            duplicate_chance: 0.02,
            blackouts: vec![Blackout { antenna: AntennaId(3), start: 0.8, duration: 1.6 }],
            ..FaultSchedule::default()
        }),
        6 => Some(FaultSchedule {
            nan_phase_chance: 0.01,
            clock_skew: Some(ClockSkew { start: 1.5, offset: -0.3 }),
            ..FaultSchedule::default()
        }),
        _ => None,
    }
}

fn bits(p: Point2) -> (u64, u64) {
    (p.x.to_bits(), p.z.to_bits())
}

/// The tentpole guarantee: with every fault class live across eight
/// concurrent sessions, the service neither panics nor diverges — each
/// session (faulted or clean) stays bit-identical to a standalone tracker
/// fed the identical stream, refused reads are attributed exactly, and
/// the queue conservation law holds to the last read.
#[test]
fn all_fault_classes_survive_eight_concurrent_sessions() {
    run_all_fault_classes(TablePrecision::F64);
}

/// And once more through the quantized fixed-point tables: i16 sessions
/// must balance every fault class, refusal attribution, and conservation
/// law bit-for-bit against i16 oracle trackers — every kernel runs one
/// fixed per-cell operation sequence, so bit-identity is by construction
/// rather than by tolerance.
#[test]
fn all_fault_classes_survive_under_i16_tables() {
    run_all_fault_classes(TablePrecision::I16);
}

fn run_all_fault_classes(precision: TablePrecision) {
    let clean_streams = eight_tag_streams(11, 3.0);
    assert_eq!(clean_streams.len(), 8);

    // Apply each tag's schedule once; the service and the oracle must see
    // the *same* faulted bytes.
    let streams: BTreeMap<Epc, Vec<PhaseRead>> = clean_streams
        .iter()
        .enumerate()
        .map(|(i, (&epc, reads))| match fault_schedule_for(i) {
            Some(schedule) => {
                let (faulted, ledger) =
                    ScheduledFaults::new(schedule, 1000 + i as u64).apply(reads);
                assert!(
                    ledger.malformed() + ledger.duplicates + ledger.swaps + ledger.blacked_out
                        + ledger.skewed
                        > 0,
                    "tag {i}: the schedule must actually inject faults"
                );
                (epc, faulted)
            }
            None => (epc, reads.clone()),
        })
        .collect();

    // Oracle: one standalone tracker per tag, fed the same faulted stream;
    // typed refusals counted, never panics.
    let tpl = template_with(precision);
    let reference: BTreeMap<Epc, (Vec<Point2>, u64)> = streams
        .iter()
        .map(|(&epc, reads)| {
            let mut tracker = tpl.build();
            let mut invalid = 0u64;
            for &r in reads {
                if tracker.push(r).is_err() {
                    invalid += 1;
                }
            }
            (epc, (tracker.trajectory().to_vec(), invalid))
        })
        .collect();
    let faulted_invalid: u64 = reference
        .values()
        .map(|(_, inv)| *inv)
        .sum();
    assert!(faulted_invalid > 0, "the schedules must produce tracker refusals");
    for (i, (epc, _)) in streams.iter().enumerate() {
        if fault_schedule_for(i).is_none() {
            assert_eq!(reference[epc].1, 0, "clean tag {i} must see no refusals");
        }
    }
    assert!(
        reference.values().filter(|(t, _)| !t.is_empty()).count() >= 6,
        "faulted scenarios must still track"
    );

    let mut cfg = ServeConfig::new(template_with(precision));
    cfg.workers = Some(Parallelism::Threads(4));
    cfg.queue_capacity = 256;
    cfg.drain_batch = 16;
    let service = TrackingService::start(cfg);
    let client = service.client();

    let handles: Vec<_> = streams
        .iter()
        .map(|(&epc, reads)| {
            let client = client.clone();
            let reads = reads.clone();
            std::thread::spawn(move || {
                for chunk in reads.chunks(32) {
                    let receipt = client.ingest(epc, chunk).expect("ingest");
                    assert_eq!(receipt.accepted as usize, chunk.len(), "Block is lossless");
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("producer thread must not panic");
    }
    service.quiesce();

    for (&epc, (expected_trajectory, expected_invalid)) in &reference {
        let view = client.session_view(epc).expect("session exists");
        assert_eq!(
            view.trajectory.iter().copied().map(bits).collect::<Vec<_>>(),
            expected_trajectory.iter().copied().map(bits).collect::<Vec<_>>(),
            "{epc}: trajectory diverged from the standalone tracker"
        );
        let report = service.telemetry();
        let st = report.sessions.iter().find(|s| s.epc == epc).expect("session telemetry");
        assert_eq!(
            st.reads_invalid, *expected_invalid,
            "{epc}: per-session invalid attribution"
        );
    }

    // Exact conservation: every read sent was ingested; every ingested
    // read was processed (Block + quiesce); refusals are attribution
    // within `processed`, not leakage.
    let total: u64 = streams.values().map(|r| r.len() as u64).sum();
    let report = service.telemetry();
    assert_eq!(report.active_sessions, 8);
    assert_eq!(report.reads_ingested, total);
    assert_eq!(report.reads_processed, total);
    assert_eq!(report.reads_dropped, 0);
    assert_eq!(report.reads_rejected, 0);
    assert_eq!(report.reads_invalid, faulted_invalid);
    assert_eq!(
        report.reads_invalid,
        report.sessions.iter().map(|s| s.reads_invalid).sum::<u64>()
    );
    // The blackout tag ran an antenna dark for 1.6 s with dropout
    // detection at 1.0 s: degraded transitions must have surfaced.
    assert!(report.degraded_events > 0, "blackout must produce degraded transitions");
    // EPC-sharded registry conservation: every processed read was drained
    // from exactly one shard, every live session is owned by exactly one
    // shard, and after quiesce no shard holds queued reads.
    assert_eq!(report.shards.len(), 8, "default shard count");
    assert_eq!(
        report.shards.iter().map(|s| s.reads_drained).sum::<u64>(),
        report.reads_processed,
        "shard drain counters must sum to the processed total"
    );
    assert_eq!(
        report.shards.iter().map(|s| s.sessions).sum::<u64>(),
        report.active_sessions,
        "shard session counts must sum to the live total"
    );
    assert_eq!(
        report.shards.iter().map(|s| s.queue_depth).sum::<u64>(),
        0,
        "quiesce must leave every shard drained"
    );
    // 8 sessions, 2 tables: every session shares the coarse and fine
    // table the first one built, and the telemetry counts their exact
    // bytes at the sessions' precision.
    assert_eq!(report.table_cache_misses, 2);
    assert_eq!(report.table_cache_hits, 14);
    let cells = |res: f64| Grid2::new(tpl.position.region, res).len() as u64;
    let pairs = tpl.deployment.all_pairs().count() as u64;
    assert_eq!(
        report.table_cache_bytes,
        (cells(tpl.position.coarse_resolution) + cells(tpl.position.fine_resolution))
            * pairs
            * precision.entry_bytes(),
        "table bytes at {precision:?}"
    );
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

fn manual_service() -> TrackingService {
    let mut cfg = ServeConfig::new(template());
    cfg.workers = None;
    TrackingService::start(cfg)
}

/// Binds the TCP front end in front of `service`.
fn serve(service: &TrackingService) -> ReactorServer {
    ReactorServer::bind("127.0.0.1:0", service.client(), rfidraw_net::ReactorConfig::default())
        .expect("bind loopback")
}

/// Hostile numerics over TCP: the whole batch is refused with an
/// `"invalid"` error frame, the refusal is counted (globally always,
/// per-session only when the session already exists), the connection
/// survives — and crucially, a hostile batch never creates a session.
#[test]
fn hostile_wire_batches_are_refused_counted_and_create_no_session() {
    let service = manual_service();
    let server = serve(&service);
    let mut client = WireClient::connect(server.local_addr()).unwrap();
    let hostile_epc = Epc::from_index(7);

    // A negative timestamp survives JSON serialization, so the typed
    // client path exercises it directly.
    let batch = [
        PhaseRead { t: 0.1, antenna: AntennaId(1), phase: 0.5 },
        PhaseRead { t: -0.2, antenna: AntennaId(2), phase: 0.5 },
        PhaseRead { t: 0.3, antenna: AntennaId(3), phase: 0.5 },
    ];
    let err = client.ingest(hostile_epc, &batch).unwrap_err();
    assert!(err.to_string().contains("invalid"), "refusal must carry the invalid code: {err}");

    // JSON cannot write NaN, but `1e999` parses to infinity: smuggle it
    // through a raw frame.
    let good = Message::Ingest(wire::IngestBatch {
        epc: hostile_epc,
        reads: vec![PhaseRead { t: 777.25, antenna: AntennaId(1), phase: 0.5 }],
    });
    let line = serde_json::to_string(&Envelope { v: wire::WIRE_VERSION, msg: good }).unwrap();
    let smuggled = line.replace("777.25", "1e999");
    assert_ne!(line, smuggled, "the timestamp literal must be in the frame");
    client.send_raw(&smuggled).unwrap();
    match client.recv().unwrap() {
        Some(Message::Error(e)) => assert_eq!(e.code, "invalid"),
        other => panic!("expected an invalid error, got {other:?}"),
    }

    // The connection survived both refusals, the counters reconcile, and
    // no session was fabricated for the hostile producer.
    let report = client.telemetry().unwrap();
    assert_eq!(report.active_sessions, 0, "hostile batches must not create sessions");
    assert_eq!(report.reads_ingested, 0);
    assert_eq!(report.reads_rejected, 4, "both refused batches count whole");
    assert_eq!(report.reads_invalid, 2, "one bad read per batch");

    // Once a session legitimately exists, refusals for it are also
    // attributed per-session.
    let ok = [PhaseRead { t: 0.1, antenna: AntennaId(1), phase: 0.5 }];
    client.ingest(hostile_epc, &ok).unwrap();
    let err = client.ingest(hostile_epc, &batch).unwrap_err();
    assert!(err.to_string().contains("invalid"));
    let report = client.telemetry().unwrap();
    assert_eq!(report.active_sessions, 1);
    let st = &report.sessions[0];
    assert_eq!(st.reads_rejected, 3);
    assert_eq!(st.reads_invalid, 1);
    assert_eq!(report.reads_rejected, 7);
    assert_eq!(report.reads_invalid, 3);
}

/// A frame cut off mid-JSON gets a parse error; the same connection then
/// completes a normal request.
#[test]
fn truncated_frames_get_a_parse_error_and_the_connection_survives() {
    let service = manual_service();
    let server = serve(&service);
    let mut client = WireClient::connect(server.local_addr()).unwrap();

    let whole = serde_json::to_string(&Envelope {
        v: wire::WIRE_VERSION,
        msg: Message::Ingest(wire::IngestBatch {
            epc: Epc::from_index(1),
            reads: vec![PhaseRead { t: 0.5, antenna: AntennaId(1), phase: 0.25 }],
        }),
    })
    .unwrap();
    let truncated = &whole[..whole.len() / 2];
    client.send_raw(truncated).unwrap();
    match client.recv().unwrap() {
        Some(Message::Error(e)) => assert_eq!(e.code, "parse"),
        other => panic!("expected a parse error, got {other:?}"),
    }

    let report = client.telemetry().expect("connection must survive a truncated frame");
    assert_eq!(report.active_sessions, 0);
}

/// Every line in the malformed-frame corpus yields exactly one error
/// frame — never a dropped connection, never a panic, never a session.
#[test]
fn malformed_frame_corpus_never_kills_the_connection() {
    let corpus = include_str!("corpus/malformed_frames.jsonl");
    let lines: Vec<&str> = corpus.lines().filter(|l| !l.trim().is_empty()).collect();
    assert!(lines.len() >= 20, "corpus should stay substantial, got {}", lines.len());

    let service = manual_service();
    let server = serve(&service);
    let mut client = WireClient::connect(server.local_addr()).unwrap();
    // A deadline, so a reply that never comes fails the test.
    client.stream_mut().set_read_timeout(Some(std::time::Duration::from_secs(10))).unwrap();

    for (i, line) in lines.iter().enumerate() {
        client.send_raw(line).unwrap();
        match client.recv().unwrap() {
            Some(Message::Error(_)) => {}
            other => panic!("corpus line {} ({line:?}) should be refused, got {other:?}", i + 1),
        }
    }

    // One connection ate the whole corpus and still works; nothing
    // reached a tracker and no session exists.
    let report = client.telemetry().expect("connection alive after the corpus");
    assert_eq!(report.active_sessions, 0);
    assert_eq!(report.reads_ingested, 0);
    assert_eq!(report.reads_processed, 0);
    // Front-end counter conservation: this connection is still open, every
    // corpus line (plus the telemetry request above) was counted as a JSON
    // frame, and malformed *payloads* are not framing errors.
    assert_eq!(
        report.net.connections_accepted,
        report.net.connections_open + report.net.connections_closed
    );
    assert_eq!(report.net.connections_open, 1);
    assert!(report.net.frames_in_json > lines.len() as u64);
    assert_eq!(report.net.frame_errors, 0);
    assert!(report.net.frames_out >= lines.len() as u64, "one error reply per corpus line");
    assert!(report.net.bytes_in > 0);
}

/// A JSON frame carrying a 1 MiB string is refused with one error reply
/// inside a generous deadline, and the same connection then completes a
/// normal request. The reactor thread parses the frame, so a string
/// parser that rescanned the rest of the input per character (about 25 s
/// on this frame) would stall every connection it serves.
#[test]
fn a_one_mebibyte_json_string_is_refused_promptly() {
    let service = manual_service();
    let server = serve(&service);
    let mut client = WireClient::connect(server.local_addr()).unwrap();
    let deadline = std::time::Duration::from_secs(10);
    client.stream_mut().set_read_timeout(Some(deadline)).unwrap();

    let long = "é".repeat(1 << 19); // 1 MiB of two-byte characters
    let line = format!("{{\"v\":{},\"msg\":{{\"Bogus\":\"{long}\"}}}}", wire::WIRE_VERSION);
    let started = std::time::Instant::now();
    client.send_raw(&line).unwrap();
    match client.recv().expect("an error reply before the read deadline") {
        Some(Message::Error(e)) => assert_eq!(e.code, "parse"),
        other => panic!("expected a parse error, got {other:?}"),
    }
    assert!(started.elapsed() < deadline, "took {:?}", started.elapsed());

    let report = client.telemetry().expect("connection alive after the long frame");
    assert_eq!(report.active_sessions, 0);
    assert_eq!(report.net.frame_errors, 0);
}
