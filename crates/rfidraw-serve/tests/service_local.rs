//! In-process service tests: determinism against standalone trackers,
//! lossless admission into full queues (with and without workers), session
//! lifecycle (idle eviction, explicit close, the session cap), and the
//! ready queue under contention.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rfidraw_channel::{Channel, Scenario};
use rfidraw_core::array::{AntennaId, Deployment};
use rfidraw_core::exec::Parallelism;
use rfidraw_core::geom::{Plane, Point2, Point3, Rect};
use rfidraw_core::online::OnlineEvent;
use rfidraw_core::stream::PhaseRead;
use rfidraw_protocol::inventory::{demux_phase_reads, InventoryConfig, InventorySim, SimTag};
use rfidraw_protocol::Epc;
use rfidraw_serve::{
    ServeConfig, ServeError, SessionEvent, TelemetryReport, TrackerTemplate, TrackingService,
};
use std::collections::BTreeMap;
use std::sync::mpsc::{self, RecvTimeoutError};
use std::time::{Duration, Instant};

fn region() -> Rect {
    Rect::new(Point2::new(0.5, 0.3), Point2::new(2.3, 1.7))
}

fn template() -> TrackerTemplate {
    TrackerTemplate::paper_default(region())
}

/// 8 static tags spread across the tracking region, inventoried together
/// (they contend for ALOHA slots), demuxed into per-tag read streams.
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

/// The reference: one standalone tracker per tag, fed in order.
fn standalone_positions(
    streams: &BTreeMap<Epc, Vec<PhaseRead>>,
) -> BTreeMap<Epc, (Vec<(f64, Point2)>, Vec<Point2>)> {
    let tpl = template();
    streams
        .iter()
        .map(|(&epc, reads)| {
            let mut tracker = tpl.build();
            let mut positions = Vec::new();
            for &r in reads {
                for e in tracker.push(r).unwrap() {
                    if let OnlineEvent::Position { t, pos } = e {
                        positions.push((t, pos));
                    }
                }
            }
            (epc, (positions, tracker.trajectory().to_vec()))
        })
        .collect()
}

fn bits(p: Point2) -> (u64, u64) {
    (p.x.to_bits(), p.z.to_bits())
}

#[test]
fn eight_concurrent_sessions_match_standalone_trackers_bit_for_bit() {
    let streams = eight_tag_streams(11, 3.0);
    assert_eq!(streams.len(), 8, "every tag should be read");
    let reference = standalone_positions(&streams);
    let total_reads: usize = streams.values().map(Vec::len).sum();
    // The scenario must actually exercise tracking, not just plumbing.
    let tracking_tags =
        reference.values().filter(|(positions, _)| !positions.is_empty()).count();
    assert!(
        tracking_tags >= 6,
        "only {tracking_tags}/8 reference trackers produced positions"
    );

    let mut cfg = ServeConfig::new(template());
    cfg.workers = Some(Parallelism::Threads(4));
    cfg.queue_capacity = 64; // small on purpose: force Block to engage
    cfg.drain_batch = 16;
    let service = TrackingService::start(cfg);
    let client = service.client();

    // One producer thread per tag (per-tag order is the producer's
    // contract), subscribed before the first read so no event is missed.
    let handles: Vec<_> = streams
        .iter()
        .map(|(&epc, reads)| {
            let client = client.clone();
            let reads = reads.clone();
            std::thread::spawn(move || {
                let events = client.subscribe(epc).expect("subscribe");
                for chunk in reads.chunks(32) {
                    let receipt = client.ingest(epc, chunk).expect("ingest");
                    assert_eq!(receipt.accepted as usize, chunk.len(), "Block is lossless");
                    assert_eq!(receipt.rejected, 0);
                }
                (epc, events)
            })
        })
        .collect();
    let subscriptions: Vec<_> = handles.into_iter().map(|h| h.join().expect("producer")).collect();
    service.quiesce();

    for (&epc, (expected_positions, expected_trajectory)) in &reference {
        // Trajectory through the service == standalone, bit for bit.
        let view = client.session_view(epc).expect("session exists");
        assert_eq!(
            view.trajectory.iter().copied().map(bits).collect::<Vec<_>>(),
            expected_trajectory.iter().copied().map(bits).collect::<Vec<_>>(),
            "{epc}: trajectory diverged from the standalone tracker"
        );
        // And so is the live event stream the subscriber saw.
        let events = &subscriptions.iter().find(|(e, _)| *e == epc).expect("subscribed").1;
        let mut got = Vec::new();
        while let Ok(ev) = events.try_recv() {
            if let SessionEvent::Position { t, pos, .. } = ev {
                got.push((t, pos));
            }
        }
        assert_eq!(got.len(), expected_positions.len(), "{epc}: position count");
        for ((gt, gp), (et, ep)) in got.iter().zip(expected_positions) {
            assert_eq!(gt.to_bits(), et.to_bits(), "{epc}: tick time");
            assert_eq!(bits(*gp), bits(*ep), "{epc}: position bits");
        }
    }

    // Lossless accounting: everything ingested was processed.
    let report = service.telemetry();
    assert_eq!(report.active_sessions, 8);
    assert_eq!(report.sessions_opened, 8);
    assert_eq!(report.reads_ingested, total_reads as u64);
    assert_eq!(report.reads_processed, total_reads as u64);
    assert_eq!(report.reads_dropped, 0);
    assert_eq!(report.reads_rejected, 0);
    assert_eq!(
        report.positions,
        reference.values().map(|(p, _)| p.len() as u64).sum::<u64>()
    );
    // Latency is sampled once per read that yielded a position (a single
    // read can complete more than one tick), so: 0 < samples ≤ positions.
    assert!(report.latency.count > 0, "ingest→position latency was sampled");
    assert!(report.latency.count <= report.positions);
}

/// Synthetic reads for accounting tests (the tracker's output does not
/// matter, only the counters).
fn synth_reads(n: usize, t0: f64) -> Vec<PhaseRead> {
    (0..n)
        .map(|i| PhaseRead {
            t: t0 + i as f64 * 0.001,
            antenna: AntennaId(1 + (i % 8) as u8),
            phase: 0.5,
        })
        .collect()
}

fn manual_cfg(capacity: usize) -> ServeConfig {
    let mut cfg = ServeConfig::new(template());
    cfg.workers = None;
    cfg.queue_capacity = capacity;
    cfg
}

#[test]
fn block_policy_is_lossless_under_a_slow_drainer() {
    let mut cfg = ServeConfig::new(template());
    cfg.workers = Some(Parallelism::Threads(1));
    cfg.queue_capacity = 4; // tiny: the producer must block repeatedly
    cfg.drain_batch = 4;
    let service = TrackingService::start(cfg);
    let client = service.client();
    let epc = Epc::from_index(1);

    let reads = synth_reads(300, 0.0);
    let receipt = client.ingest(epc, &reads).unwrap();
    assert_eq!(receipt.accepted, 300);
    assert_eq!(receipt.rejected, 0);

    service.quiesce();
    let report = service.telemetry();
    assert_eq!(report.reads_ingested, 300);
    assert_eq!(report.reads_processed, 300);
    assert_eq!(report.reads_dropped, 0);
    assert_eq!(report.reads_rejected, 0);
}

/// With no worker threads, a producer that overflows its queue runs the
/// ready queue itself before it waits, since no other thread would drain
/// the queue for it. A tracked stream goes in as 20-read batches against
/// an 8-read queue, each batch behind a watchdog: every batch is accepted
/// whole, the producer's own drains leave at most one queue's worth for
/// the owner, the books balance, and the positions delivered are
/// bit-identical to a standalone tracker's.
#[test]
fn manual_mode_producer_drains_its_own_overflow() {
    let epc = Epc::from_index(1);
    let streams = BTreeMap::from([(epc, one_tag_stream(7, 3.0))]);
    let want = standalone_positions(&streams).remove(&epc).expect("reference").0;
    assert!(!want.is_empty(), "the stream must track");
    let reads = streams[&epc].clone();
    let total = reads.len() as u64;

    let service = TrackingService::start(manual_cfg(8));
    let client = service.client();
    let events = client.subscribe(epc).unwrap();
    let (tx, rx) = mpsc::channel();
    let producer = std::thread::spawn(move || {
        for chunk in reads.chunks(20) {
            let receipt = client.ingest(epc, chunk).expect("ingest");
            if tx.send((chunk.len() as u64, receipt)).is_err() {
                return;
            }
        }
    });
    // The watchdog turns a producer that never returns into a failure.
    for batch in 0..streams[&epc].chunks(20).len() {
        let (sent, receipt) = match rx.recv_timeout(Duration::from_secs(60)) {
            Ok(got) => got,
            Err(RecvTimeoutError::Timeout) => {
                panic!("batch {batch}: an ingest into a full queue never returned")
            }
            Err(RecvTimeoutError::Disconnected) => {
                std::panic::resume_unwind(producer.join().expect_err("the producer panicked"))
            }
        };
        assert_eq!(receipt.accepted, sent, "batch {batch}: accepted whole");
        assert_eq!(receipt.rejected, 0, "batch {batch}: rejected");
    }
    producer.join().expect("producer");
    let before = service.telemetry();
    assert!(before.reads_processed + 8 >= total, "the producer drained its own overflow");

    service.quiesce();
    let r = service.telemetry();
    assert_eq!(r.reads_ingested, total);
    assert_eq!(r.reads_processed, total);
    assert_eq!(r.reads_dropped + r.reads_rejected + r.reads_invalid, 0);
    assert_eq!(r.reads_inline, 0, "manual mode applies nothing inline");
    assert_eq!(r.sessions[0].queue_depth, 0);
    assert_eq!(r.shards.iter().map(|s| s.reads_drained).sum::<u64>(), r.reads_processed);
    let got: Vec<(f64, Point2)> = std::iter::from_fn(|| events.try_recv().ok())
        .filter_map(|e| match e {
            SessionEvent::Position { t, pos, .. } => Some((t, pos)),
            _ => None,
        })
        .collect();
    assert_eq!(got.len(), want.len(), "position count");
    for ((gt, gp), (wt, wp)) in got.iter().zip(&want) {
        assert_eq!(gt.to_bits(), wt.to_bits(), "tick time");
        assert_eq!(bits(*gp), bits(*wp), "position bits");
    }
}

#[test]
fn idle_sessions_are_evicted_and_subscribers_notified() {
    let mut cfg = manual_cfg(64);
    cfg.idle_timeout = Duration::from_millis(30);
    let service = TrackingService::start(cfg);
    let client = service.client();
    let epc = Epc::from_index(1);

    let events = client.subscribe(epc).unwrap();
    client.ingest(epc, &synth_reads(4, 0.0)).unwrap();
    while service.pump() > 0 {}
    assert_eq!(client.active_sessions(), vec![epc]);

    std::thread::sleep(Duration::from_millis(60));
    service.pump(); // the sweep runs on the pump path in manual mode

    assert!(client.active_sessions().is_empty());
    let report = service.telemetry();
    assert_eq!(report.sessions_evicted, 1);
    assert_eq!(report.active_sessions, 0);
    let closed = std::iter::from_fn(|| events.try_recv().ok())
        .find(|e| matches!(e, SessionEvent::Closed { .. }));
    assert!(
        matches!(
            closed,
            Some(SessionEvent::Closed { reason: rfidraw_serve::CloseReason::Idle, .. })
        ),
        "subscriber should see an idle close, got {closed:?}"
    );

    // Ingest after eviction transparently opens a fresh session.
    client.ingest(epc, &synth_reads(4, 10.0)).unwrap();
    assert_eq!(client.active_sessions(), vec![epc]);
    assert_eq!(service.telemetry().sessions_opened, 2);
}

#[test]
fn session_cap_refuses_new_tags_and_counts_them() {
    let mut cfg = manual_cfg(64);
    cfg.max_sessions = 2;
    let service = TrackingService::start(cfg);
    let client = service.client();

    client.ingest(Epc::from_index(1), &synth_reads(1, 0.0)).unwrap();
    client.ingest(Epc::from_index(2), &synth_reads(1, 0.0)).unwrap();
    let err = client.ingest(Epc::from_index(3), &synth_reads(1, 0.0)).unwrap_err();
    assert_eq!(err, ServeError::SessionLimit { max: 2 });
    // Existing sessions keep working at the cap.
    client.ingest(Epc::from_index(1), &synth_reads(1, 1.0)).unwrap();

    let report = service.telemetry();
    assert_eq!(report.active_sessions, 2);
    assert_eq!(report.sessions_rejected, 1);
}

#[test]
fn explicit_close_discards_the_queue_and_counts_it() {
    let service = TrackingService::start(manual_cfg(64));
    let client = service.client();
    let epc = Epc::from_index(1);

    let events = client.subscribe(epc).unwrap();
    client.ingest(epc, &synth_reads(10, 0.0)).unwrap();
    assert!(client.close_session(epc));
    assert!(!client.close_session(epc), "second close is a no-op");

    let report = service.telemetry();
    assert_eq!(report.sessions_closed, 1);
    assert_eq!(report.reads_dropped, 10, "queued reads discarded at close count as dropped");
    assert_eq!(report.active_sessions, 0);
    let closed = std::iter::from_fn(|| events.try_recv().ok())
        .find(|e| matches!(e, SessionEvent::Closed { .. }));
    assert!(matches!(
        closed,
        Some(SessionEvent::Closed { reason: rfidraw_serve::CloseReason::Explicit, .. })
    ));
}

#[test]
fn hot_tag_cannot_starve_other_sessions() {
    // One hot tag with a huge backlog, one trickle tag: after a single
    // pump round, the trickle tag must have been served too.
    let mut cfg = manual_cfg(10_000);
    cfg.drain_batch = 8;
    let service = TrackingService::start(cfg);
    let client = service.client();

    let hot = Epc::from_index(1);
    let cold = Epc::from_index(2);
    client.ingest(hot, &synth_reads(1000, 0.0)).unwrap();
    client.ingest(cold, &synth_reads(4, 0.0)).unwrap();

    let processed = service.pump();
    // Round-robin with drain_batch = 8: at most 8 from the hot queue plus
    // the cold queue's 4 — the cold session is fully drained immediately.
    assert!(processed <= 12, "one round should drain at most one batch per session");
    let report = service.telemetry();
    let cold_t = report.sessions.iter().find(|s| s.epc == cold).unwrap();
    assert_eq!(cold_t.reads_processed, 4, "cold session served in the first round");
    let hot_t = report.sessions.iter().find(|s| s.epc == hot).unwrap();
    assert!(hot_t.reads_processed <= 8);
}

/// One static tag read alone for `duration` seconds.
fn one_tag_stream(seed: u64, duration: f64) -> Vec<PhaseRead> {
    let plane = Plane::at_depth(2.0);
    let traj = move |_t: f64| -> Point3 { plane.lift(Point2::new(1.1, 0.9)) };
    let tags = [SimTag { epc: Epc::from_index(1), trajectory: &traj }];
    let channel = Channel::new(Deployment::paper_default(), Scenario::Los.config(), seed);
    let mut sim = InventorySim::new(channel, InventoryConfig::paper_default(0.030, seed));
    demux_phase_reads(&sim.run(&tags, duration)).remove(&Epc::from_index(1)).expect("tag stream")
}

/// `Closed` stays a subscriber's last event when the close lands while a
/// worker is still tracking a batch it took before the close: that
/// drain's positions must not follow the `Closed`. A 30 s stream goes
/// into a `Block` queue that holds just over half of it, so `ingest`
/// returns only after the one worker has taken the first half as one
/// batch; the close follows at once, long before that half is tracked.
#[test]
fn closed_stays_last_when_the_close_lands_mid_drain() {
    let reads = one_tag_stream(5, 30.0);
    let half = reads.len() / 2 + 1;
    let mut cfg = ServeConfig::new(template());
    cfg.workers = Some(Parallelism::Threads(1));
    cfg.queue_capacity = half;
    cfg.drain_batch = half;
    let service = TrackingService::start(cfg);
    let client = service.client();
    let epc = Epc::from_index(1);

    let events = client.subscribe(epc).unwrap();
    assert_eq!(client.ingest(epc, &reads).unwrap().accepted, reads.len() as u64);
    assert!(client.close_session(epc));

    // The stream ends when the last sender is dropped; the deadline turns
    // a subscription that never ends into a failure, not a hang.
    let deadline = Instant::now() + Duration::from_secs(60);
    let mut seen = Vec::new();
    loop {
        match events.recv_timeout(deadline.saturating_duration_since(Instant::now())) {
            Ok(event) => seen.push(event),
            Err(RecvTimeoutError::Disconnected) => break,
            Err(RecvTimeoutError::Timeout) => panic!("the subscription never ended"),
        }
    }
    let closed = seen
        .iter()
        .position(|e| matches!(e, SessionEvent::Closed { .. }))
        .expect("the subscriber sees Closed");
    assert_eq!(closed + 1, seen.len(), "{} events followed Closed", seen.len() - closed - 1);
}

/// What one stress run produced: the telemetry after quiescing, the
/// reads offered, the producers' summed receipts, and each session's
/// streamed positions.
struct StressOutcome {
    report: TelemetryReport,
    offered: u64,
    accepted: u64,
    positions: BTreeMap<Epc, Vec<(f64, Point2)>>,
}

/// Producer threads, each feeding its own sessions.
const STRESS_PRODUCERS: usize = 4;
/// Sessions per producer thread.
const STRESS_SESSIONS_PER_PRODUCER: usize = 16;

/// One seeded stress run. Session `i` replays `streams[i % 8]` under its
/// own EPC. Each producer thread owns 16 sessions and feeds them batches
/// of 1–5 reads, picking the session and the batch size from its own
/// seeded generator. The 2-read queue means every batch of 3 or more
/// overflows, and the producer sleeps in `LocalClient::ingest` until a
/// worker drains.
fn stress_run(workers: usize, streams: &[Vec<PhaseRead>], seed: u64) -> StressOutcome {
    let sessions = STRESS_PRODUCERS * STRESS_SESSIONS_PER_PRODUCER;
    let mut cfg = ServeConfig::new(template());
    cfg.workers = Some(Parallelism::Threads(workers));
    cfg.queue_capacity = 2;
    cfg.drain_batch = 1;
    cfg.max_sessions = sessions;
    // No idle sweep for the whole run: a worker that missed its wakeup
    // must not be rescued by the sweep timer.
    cfg.idle_timeout = Duration::from_secs(3600);
    let service = TrackingService::start(cfg);
    let client = service.client();
    let epc_of = |i: usize| Epc::from_index(i as u32 + 1);
    let subscriptions: Vec<_> =
        (0..sessions).map(|i| (epc_of(i), client.subscribe(epc_of(i)).unwrap())).collect();

    let producers: Vec<_> = (0..STRESS_PRODUCERS)
        .map(|p| {
            let client = client.clone();
            let owned: Vec<(Epc, Vec<PhaseRead>)> = (0..STRESS_SESSIONS_PER_PRODUCER)
                .map(|k| {
                    let i = p * STRESS_SESSIONS_PER_PRODUCER + k;
                    (epc_of(i), streams[i % streams.len()].clone())
                })
                .collect();
            std::thread::spawn(move || {
                let mut rng = StdRng::seed_from_u64(seed * 16 + p as u64);
                let mut next = vec![0usize; owned.len()];
                let (mut offered, mut accepted) = (0u64, 0u64);
                loop {
                    let open: Vec<usize> =
                        (0..owned.len()).filter(|&k| next[k] < owned[k].1.len()).collect();
                    if open.is_empty() {
                        return (offered, accepted);
                    }
                    let k = open[rng.gen_range(0..open.len())];
                    let (epc, reads) = &owned[k];
                    let end = (next[k] + rng.gen_range(1..6)).min(reads.len());
                    let receipt = client.ingest(*epc, &reads[next[k]..end]).expect("ingest");
                    offered += (end - next[k]) as u64;
                    accepted += receipt.accepted;
                    next[k] = end;
                }
            })
        })
        .collect();
    let (mut offered, mut accepted) = (0u64, 0u64);
    for producer in producers {
        let (o, a) = producer.join().expect("producer");
        offered += o;
        accepted += a;
    }
    service.quiesce();
    let report = service.telemetry();
    let positions = subscriptions
        .into_iter()
        .map(|(epc, events)| {
            let got = std::iter::from_fn(|| events.try_recv().ok())
                .filter_map(|e| match e {
                    SessionEvent::Position { t, pos, .. } => Some((t, pos)),
                    _ => None,
                })
                .collect();
            (epc, got)
        })
        .collect();
    StressOutcome { report, offered, accepted, positions }
}

/// The ready queue under contention: 4 producer threads × 16 sessions, a
/// 2-read queue and 1-read drains, so sessions are re-queued, released
/// and re-scheduled all the time, and producers wait on full queues. With
/// 2 and with 4 workers:
/// - every run finishes before a deadline, so a lost wakeup fails the
///   test instead of hanging it;
/// - the books balance exactly and nothing is dropped or refused;
/// - no tracker refuses a read, so no session was ever drained by two
///   workers at once (that would hand it reads out of order);
/// - every session's positions are bit-identical to a standalone
///   tracker's.
#[test]
fn ready_queue_stress_keeps_results_and_books_exact() {
    let base = eight_tag_streams(23, 2.0);
    let reference = standalone_positions(&base);
    let streams: Vec<Vec<PhaseRead>> = base.into_values().collect();
    let expected: Vec<&Vec<(f64, Point2)>> = reference.values().map(|(p, _)| p).collect();
    assert!(expected.iter().filter(|p| !p.is_empty()).count() >= 6, "the streams must track");

    for workers in [2, 4] {
        let label = format!("{workers} workers");
        let (tx, rx) = mpsc::channel();
        let run_streams = streams.clone();
        let run = std::thread::spawn(move || {
            let _ = tx.send(stress_run(workers, &run_streams, 41));
        });
        let out = match rx.recv_timeout(Duration::from_secs(300)) {
            Ok(out) => out,
            Err(RecvTimeoutError::Timeout) => {
                panic!("{label}: the run did not finish in 300 s; a wakeup was lost")
            }
            Err(RecvTimeoutError::Disconnected) => {
                std::panic::resume_unwind(run.join().expect_err("the run panicked"))
            }
        };
        run.join().expect("stress run");
        let r = &out.report;
        assert_eq!(r.reads_ingested, out.accepted, "{label}: ingested");
        assert_eq!(r.reads_dropped, 0, "{label}: dropped");
        assert_eq!(r.reads_rejected, 0, "{label}: rejected");
        assert_eq!(out.offered, out.accepted, "{label}: offered = accepted");
        assert_eq!(r.reads_ingested, r.reads_processed + r.reads_dropped, "{label}");
        assert_eq!(
            r.shards.iter().map(|s| s.reads_drained).sum::<u64>(),
            r.reads_processed,
            "{label}: shard conservation"
        );
        for s in &r.sessions {
            assert_eq!(s.queue_depth, 0, "{label}: {} drained", s.epc);
            assert_eq!(s.reads_ingested, s.reads_processed + s.reads_dropped, "{label}");
        }
        assert_eq!(r.reads_invalid, 0, "{label}: a session's reads were reordered");
        for (i, (epc, got)) in out.positions.iter().enumerate() {
            let want = expected[i % expected.len()];
            assert_eq!(got.len(), want.len(), "{label}: {epc}: position count");
            for ((gt, gp), (wt, wp)) in got.iter().zip(want.iter()) {
                assert_eq!(gt.to_bits(), wt.to_bits(), "{label}: {epc}: tick time");
                assert_eq!(bits(*gp), bits(*wp), "{label}: {epc}: position bits");
            }
        }
    }
}

/// What a one-read run produced: the telemetry after quiescing and each
/// session's streamed positions.
struct OneReadOutcome {
    report: TelemetryReport,
    positions: BTreeMap<Epc, Vec<(f64, Point2)>>,
}

/// Producer threads of a one-read run, each feeding half the sessions.
const ONE_READ_PRODUCERS: usize = 2;

/// One seeded run of the open-loop shape: one read per `ingest`, from 2
/// producer threads that each pick their next session with their own
/// seeded generator. A producer whose read completes a tick (per a
/// standalone tracker) waits for that read's positions before it sends
/// more, the way a writer at air time is slower than the tick; so the
/// reads in between can only buffer. With `workers: None` the test
/// thread pumps while the producers run.
fn one_read_run(
    workers: Option<Parallelism>,
    streams: &BTreeMap<Epc, Vec<PhaseRead>>,
    seed: u64,
) -> OneReadOutcome {
    let mut cfg = ServeConfig::new(template());
    cfg.workers = workers;
    cfg.idle_timeout = Duration::from_secs(3600);
    let service = TrackingService::start(cfg);
    let client = service.client();
    let tpl = template();
    // Per session: its reads, and how many positions the reads up to and
    // including each one complete.
    let sessions: Vec<(Epc, Vec<PhaseRead>, Vec<usize>)> = streams
        .iter()
        .map(|(&epc, reads)| {
            let mut tracker = tpl.build();
            let mut done = 0;
            let upto = reads
                .iter()
                .map(|&r| {
                    let events = tracker.push(r).expect("clean stream");
                    done += events.iter().filter(|e| matches!(e, OnlineEvent::Position { .. })).count();
                    done
                })
                .collect();
            (epc, reads.clone(), upto)
        })
        .collect();
    let per_producer = sessions.len().div_ceil(ONE_READ_PRODUCERS);
    let producers: Vec<_> = sessions
        .chunks(per_producer)
        .enumerate()
        .map(|(p, owned)| {
            let client = client.clone();
            let owned = owned.to_vec();
            let events: Vec<_> =
                owned.iter().map(|(epc, _, _)| client.subscribe(*epc).expect("subscribe")).collect();
            std::thread::spawn(move || {
                let mut rng = StdRng::seed_from_u64(seed * 16 + p as u64);
                let mut next = vec![0usize; owned.len()];
                let mut got = vec![Vec::new(); owned.len()];
                loop {
                    let open: Vec<usize> =
                        (0..owned.len()).filter(|&k| next[k] < owned[k].1.len()).collect();
                    if open.is_empty() {
                        break;
                    }
                    let k = open[rng.gen_range(0..open.len())];
                    let (epc, reads, upto) = &owned[k];
                    let i = next[k];
                    let receipt = client.ingest(*epc, &reads[i..i + 1]).expect("ingest");
                    assert_eq!(receipt.accepted, 1, "{epc}: Block is lossless");
                    next[k] += 1;
                    // The deadline turns a lost wakeup into a failure.
                    while got[k].len() < upto[i] {
                        match events[k].recv_timeout(Duration::from_secs(60)) {
                            Ok(SessionEvent::Position { t, pos, .. }) => got[k].push((t, pos)),
                            Ok(_) => {}
                            Err(e) => panic!("{epc}: read {i}'s position never came: {e:?}"),
                        }
                    }
                }
                owned.iter().map(|(epc, _, _)| *epc).zip(got).collect::<Vec<_>>()
            })
        })
        .collect();
    if workers.is_none() {
        while !producers.iter().all(|h| h.is_finished()) {
            if service.pump() == 0 {
                std::thread::yield_now();
            }
        }
    }
    let positions = producers.into_iter().flat_map(|h| h.join().expect("producer")).collect();
    service.quiesce();
    OneReadOutcome { report: service.telemetry(), positions }
}

/// One-read ingests, as a gateway forwards them, over 8 sessions from 2
/// producer threads. With 2 workers, the thread that schedules a session
/// applies most reads itself (they cannot finish a tick), and results
/// stay bit-identical to standalone trackers with exact books. Without
/// workers (manual `pump`), no read is applied inline.
#[test]
fn one_read_ingests_apply_quiet_reads_inline() {
    let streams = eight_tag_streams(29, 3.0);
    let reference = standalone_positions(&streams);
    assert!(reference.values().filter(|(p, _)| !p.is_empty()).count() >= 6, "the streams must track");
    let total: u64 = streams.values().map(|r| r.len() as u64).sum();
    for workers in [Some(Parallelism::Threads(2)), None] {
        let label = format!("workers {workers:?}");
        let out = one_read_run(workers, &streams, 31);
        let r = &out.report;
        assert_eq!(r.reads_ingested, total, "{label}: ingested");
        assert_eq!(r.reads_processed, total, "{label}: processed");
        assert_eq!(r.reads_invalid, 0, "{label}: a session's reads were reordered");
        assert_eq!(
            r.shards.iter().map(|s| s.reads_drained).sum::<u64>(),
            r.reads_processed,
            "{label}: shard conservation"
        );
        for (epc, (want, _)) in &reference {
            let got = &out.positions[epc];
            assert_eq!(got.len(), want.len(), "{label}: {epc}: position count");
            for ((gt, gp), (wt, wp)) in got.iter().zip(want) {
                assert_eq!(gt.to_bits(), wt.to_bits(), "{label}: {epc}: tick time");
                assert_eq!(bits(*gp), bits(*wp), "{label}: {epc}: position bits");
            }
        }
        match workers {
            Some(_) => assert!(
                r.reads_inline * 2 > r.reads_processed,
                "{label}: only {} of {} reads applied inline",
                r.reads_inline,
                r.reads_processed
            ),
            None => assert_eq!(r.reads_inline, 0, "{label}: manual mode applies nothing inline"),
        }
    }
}
