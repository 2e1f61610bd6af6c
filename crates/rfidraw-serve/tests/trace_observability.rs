//! Observability tests: tracing must only *observe* — positions stay
//! bit-identical with the recorder off, on, sampled, or disabled, across
//! worker counts — each session tracker's core events must reach the
//! service recorder under the session's id, with every stale reset and
//! degradation the telemetry counts recorded as exactly one anomaly, and
//! the flight recorder must capture ingest refusals and ship them (plus
//! the Prometheus exposition) over loopback TCP.

use rfidraw_channel::{Channel, Scenario};
use rfidraw_core::array::{AntennaId, Deployment};
use rfidraw_core::exec::Parallelism;
use rfidraw_core::geom::{Plane, Point2, Point3, Rect};
use rfidraw_core::stream::PhaseRead;
use rfidraw_metrics::TraceSettings;
use rfidraw_protocol::inventory::{demux_phase_reads, InventoryConfig, InventorySim, SimTag};
use rfidraw_protocol::Epc;
use rfidraw_serve::wire::{IngestAck, IngestBatch, Message};
use rfidraw_serve::{ReactorServer, ServeConfig, TrackerTemplate, TrackingService, WireClient};
use std::collections::BTreeMap;
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

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

fn bits(p: Point2) -> (u64, u64) {
    (p.x.to_bits(), p.z.to_bits())
}

/// Runs the full stream set through one service configuration and returns
/// every session's trajectory as raw bits.
fn service_trajectories(
    streams: &BTreeMap<Epc, Vec<PhaseRead>>,
    observability: Option<TraceSettings>,
    workers: Option<Parallelism>,
) -> BTreeMap<Epc, Vec<(u64, u64)>> {
    let mut cfg = ServeConfig::new(template());
    cfg.workers = workers;
    cfg.queue_capacity = 100_000; // Block never engages in manual mode
    cfg.observability = observability;
    let service = TrackingService::start(cfg);
    let client = service.client();
    for (&epc, reads) in streams {
        client.ingest(epc, reads).expect("ingest");
    }
    service.quiesce();
    streams
        .keys()
        .map(|&epc| {
            let view = client.session_view(epc).expect("session exists");
            (epc, view.trajectory.into_iter().map(bits).collect())
        })
        .collect()
}

/// The tentpole guarantee: instrumentation never changes results. The
/// same streams produce bit-identical trajectories with no recorder, a
/// keep-everything recorder, a sampled recorder, and an anomalies-only
/// recorder, single-threaded and multi-threaded alike — all equal to
/// standalone trackers.
#[test]
fn positions_are_bit_identical_with_tracing_off_on_and_sampled() {
    let streams = eight_tag_streams(11, 2.0);
    assert_eq!(streams.len(), 8);

    let tpl = template();
    let reference: BTreeMap<Epc, Vec<(u64, u64)>> = streams
        .iter()
        .map(|(&epc, reads)| {
            let mut tracker = tpl.build();
            for &r in reads {
                for _ in tracker.push(r).unwrap() {}
            }
            (epc, tracker.trajectory().iter().copied().map(bits).collect())
        })
        .collect();
    assert!(
        reference.values().filter(|t| !t.is_empty()).count() >= 6,
        "the scenario must exercise tracking"
    );

    let variants: Vec<(&str, Option<TraceSettings>, Option<Parallelism>)> = vec![
        ("no recorder, manual", None, None),
        ("recorder keep-all, manual", Some(TraceSettings::default()), None),
        (
            "recorder sampled 1-in-7, two workers",
            Some(TraceSettings { sample_every: 7, ..TraceSettings::default() }),
            Some(Parallelism::Threads(2)),
        ),
        (
            "recorder anomalies-only, two workers",
            Some(TraceSettings { sample_every: 0, ..TraceSettings::default() }),
            Some(Parallelism::Threads(2)),
        ),
    ];
    for (label, settings, workers) in variants {
        let got = service_trajectories(&streams, settings, workers);
        assert_eq!(got, reference, "{label}: trajectories diverged from standalone trackers");
    }

    // And only the sensitivity to events, not the positions, varies: the
    // keep-all run must actually have recorded serve-layer spans.
    let mut cfg = ServeConfig::new(template());
    cfg.workers = None;
    cfg.queue_capacity = 100_000;
    cfg.observability = Some(TraceSettings::default());
    let service = TrackingService::start(cfg);
    let client = service.client();
    for (&epc, reads) in &streams {
        client.ingest(epc, reads).expect("ingest");
    }
    service.quiesce();
    let rec = client.trace_recorder().expect("recorder configured");
    assert!(rec.events_seen() > 0, "serve-layer spans must flow into the recorder");
    let report = service.telemetry();
    assert!(report.queue_wait.count > 0, "queue-wait histogram sampled");
    assert!(report.compute.count > 0, "compute histogram sampled");
    let stage_names: Vec<&str> = report.stages.iter().map(|s| s.stage.as_str()).collect();
    assert!(stage_names.contains(&"queue_wait"), "stages: {stage_names:?}");
    assert!(stage_names.contains(&"compute"), "stages: {stage_names:?}");
}

/// One tag's stream from the eight-tag scenario, with antenna 3 blacked
/// out from 1.0 s to 4.0 s and every read in [2.6 s, 3.8 s) removed: the
/// blackout outlasts `dropout_after`, so the session degrades, and the
/// 1.2 s silence outlasts the 1 s stale gap while it is still degraded,
/// so the stale reset also closes the degradation episode.
fn gap_and_blackout_stream() -> (Epc, Vec<PhaseRead>) {
    let (epc, reads) = eight_tag_streams(11, 6.0).into_iter().next().expect("a tag");
    let reads = reads
        .into_iter()
        .filter(|r| !(r.antenna == AntennaId(3) && (1.0..4.0).contains(&r.t)))
        .filter(|r| !(2.6..3.8).contains(&r.t))
        .collect();
    (epc, reads)
}

/// A manual-pump service whose sessions detect antenna dropout, fed
/// `stream` through a recorder with the given sampling.
fn run_recorded(stream: &(Epc, Vec<PhaseRead>), sample_every: u32) -> TrackingService {
    let mut tpl = template();
    tpl.online.dropout_after = Some(1.0);
    tpl.online.readmit_after = 0.3;
    let mut cfg = ServeConfig::new(tpl);
    cfg.workers = None;
    cfg.queue_capacity = 100_000;
    cfg.observability =
        Some(TraceSettings { capacity: 1 << 16, sample_every, ..TraceSettings::default() });
    let service = TrackingService::start(cfg);
    service.client().ingest(stream.0, &stream.1).expect("ingest");
    service.quiesce();
    service
}

/// Every session's tracker reports into the service's recorder: the core
/// stages arrive under the same session id as the serve layer's compute
/// spans, and the recorder's stale-reset and degradation anomalies come
/// from the tracker alone, one per event the telemetry counts.
#[test]
fn core_events_share_the_session_recorder_and_anomalies_count_once() {
    let stream = gap_and_blackout_stream();

    let service = run_recorded(&stream, 1);
    let rec = service.client().trace_recorder().expect("recorder configured");
    let events = rec.recent(rec.capacity());
    assert!(events.len() < rec.capacity(), "the ring must hold the whole run");
    let sessions_of = |stage: &str| -> Vec<u64> {
        let mut ids: Vec<u64> =
            events.iter().filter(|e| e.stage == stage).map(|e| e.session).collect();
        ids.sort_unstable();
        ids.dedup();
        ids
    };
    let compute = sessions_of("compute");
    assert_eq!(compute.len(), 1, "one session drained: {compute:?}");
    for stage in ["lobe_lock", "acquire", "candidate_vote", "lobe_relock", "engine_evaluate"] {
        assert_eq!(sessions_of(stage), compute, "{stage} events under the session's id");
    }
    assert!(
        events.iter().any(|e| e.stage == "acquire" && e.kind == "span"),
        "acquisition is timed as a span"
    );

    let service = run_recorded(&stream, 0);
    let rec = service.client().trace_recorder().expect("recorder configured");
    let anomalies = rec.recent(rec.capacity());
    assert!(anomalies.iter().all(|e| e.kind == "anomaly"), "sample_every 0 keeps anomalies only");
    let count = |stage: &str| anomalies.iter().filter(|e| e.stage == stage).count() as u64;
    let report = service.telemetry();
    assert_eq!(report.stale_resets, 1, "the 1.2 s silence resets the session once");
    assert!(report.degraded_events >= 2, "dropout, then the reset's close-out");
    assert_eq!(count("stale_reset"), report.stale_resets);
    assert_eq!(count("degraded"), report.degraded_events);
}

fn synth_reads(n: usize, t0: f64) -> Vec<PhaseRead> {
    (0..n)
        .map(|i| PhaseRead {
            t: t0 + i as f64 * 0.001,
            antenna: AntennaId(1 + (i % 8) as u8),
            phase: 0.5,
        })
        .collect()
}

/// A manual-pump service with an 8-read queue and a recorder, behind the
/// reactor: a 20-read wire ingest admits 8 reads and parks its connection
/// with 12 stashed, then the session closes mid-park, so the retry
/// rejects the stash and the held ack arrives. Returns the service, the
/// server, the producer's connection and that ack.
fn reject_a_parked_stash(epc: Epc) -> (TrackingService, ReactorServer, WireClient, IngestAck) {
    let mut cfg = ServeConfig::new(template());
    cfg.workers = None;
    cfg.queue_capacity = 8;
    cfg.observability = Some(TraceSettings::default());
    let service = TrackingService::start(cfg);
    let server =
        ReactorServer::bind("127.0.0.1:0", service.client(), rfidraw_net::ReactorConfig::default())
            .expect("bind loopback");
    let mut conn = WireClient::connect(server.local_addr()).expect("connect");
    conn.send(&Message::Ingest(IngestBatch { epc, reads: synth_reads(20, 0.0) }))
        .expect("send the batch");
    let stats = server.stats();
    let deadline = Instant::now() + Duration::from_secs(5);
    while stats.parked.load(Ordering::Relaxed) == 0 {
        assert!(Instant::now() < deadline, "the connection must park first");
        std::thread::sleep(Duration::from_millis(5));
    }
    assert!(service.client().close_session(epc));
    conn.stream_mut().set_read_timeout(Some(Duration::from_secs(10))).expect("read timeout");
    let ack = match conn.recv().expect("held ack") {
        Some(Message::IngestAck(ack)) => ack,
        other => panic!("expected the held IngestAck, got {other:?}"),
    };
    (service, server, conn, ack)
}

/// A refusal at the ingest boundary is an anomaly: the stash rejected
/// against a closed session must leave one retained flight-recorder dump
/// whose trigger names the stage and the refused count.
#[test]
fn backpressure_rejection_triggers_a_flight_recorder_dump() {
    let (service, _server, _conn, ack) = reject_a_parked_stash(Epc::from_index(1));
    assert_eq!(ack.accepted, 8, "the admitted prefix was acked");
    assert_eq!(ack.rejected, 12, "the stash was rejected against the closed session");
    assert_eq!(service.telemetry().parked_rejected, 12);

    let client = service.client();
    let dumps = client.trace_dumps();
    assert_eq!(dumps.len(), 1, "one refusal → one dump");
    let trigger = dumps[0].trigger.as_ref().expect("anomaly-triggered dump");
    assert_eq!(trigger.stage, "ingest_reject");
    assert_eq!(trigger.kind, "anomaly");
    assert_eq!(trigger.a, 12.0, "trigger carries the refused count");
    // The dump's event window contains its own trigger.
    assert!(
        dumps[0].events.iter().any(|e| e.seq == trigger.seq),
        "dump window must include the trigger event"
    );

    let rec = client.trace_recorder().unwrap();
    assert_eq!(rec.anomaly_count(), 1);
}

/// The TraceDump round-trips over loopback TCP, alongside the Prometheus
/// exposition, and clearing works.
#[test]
fn trace_dumps_and_metrics_round_trip_over_tcp() {
    let epc = Epc::from_index(42);
    let (service, _server, mut client, ack) = reject_a_parked_stash(epc);
    assert_eq!(ack.rejected, 12);
    assert_eq!(client.telemetry().expect("telemetry over tcp").parked_rejected, 12);
    // Drain a fresh session's reads so queue-wait/compute spans exist.
    assert_eq!(client.ingest(epc, &synth_reads(4, 1.0)).expect("wire ingest").accepted, 4);
    while service.pump() > 0 {}

    // Prometheus exposition over the wire sees the rejection counters.
    let body = client.metrics().expect("metrics over tcp");
    assert!(body.contains("# TYPE rfidraw_reads_rejected_total counter"), "{body}");
    assert!(body.contains("rfidraw_reads_rejected_total 12"), "{body}");
    assert!(body.contains("rfidraw_stage_us_bucket"), "per-stage histograms exposed: {body}");

    // The dump fetched over TCP is exactly the dump the service retains.
    let local_dumps = service.client().trace_dumps();
    let wire_dumps = client.trace_query(0, false).expect("trace query over tcp");
    assert_eq!(wire_dumps, local_dumps, "TCP-carried dumps must round-trip bit-exactly");
    assert_eq!(wire_dumps.len(), 1);
    assert_eq!(wire_dumps[0].trigger.as_ref().unwrap().stage, "ingest_reject");

    // max_dumps truncates to the newest; clear empties the retention.
    let limited = client.trace_query(1, true).expect("limited query");
    assert_eq!(limited.len(), 1);
    assert!(client.trace_query(0, false).expect("post-clear query").is_empty());
    assert!(service.client().trace_dumps().is_empty(), "clear acts server-side");
}

/// Without a recorder the trace query is refused, but the connection (and
/// the metrics endpoint) keep working.
#[test]
fn trace_query_without_a_recorder_is_a_clean_refusal() {
    let mut cfg = ServeConfig::new(template());
    cfg.workers = None;
    let service = TrackingService::start(cfg);
    let server =
        ReactorServer::bind("127.0.0.1:0", service.client(), rfidraw_net::ReactorConfig::default())
            .expect("bind loopback");
    let mut client = WireClient::connect(server.local_addr()).expect("connect");

    let err = client.trace_query(0, false).expect_err("no recorder configured");
    assert!(err.to_string().contains("unsupported"), "{err}");
    // The refusal is per-request: the same connection still serves metrics.
    let body = client.metrics().expect("metrics still work");
    assert!(body.contains("rfidraw_sessions_active 0"));
}
