//! Backpressure on the reactor front end: park, don't sleep.
//!
//! The regression this suite pins down: the reactor thread used to *be*
//! the producer on the ingest path, so a full session queue put the one
//! thread that owns every connection to sleep on a session condvar —
//! head-of-line blocking the whole front end behind one slow session.
//! The fix parks only the offending connection (stash + drop read
//! interest) and re-admits through the wakeup pipe when the session
//! drains. These tests drive the full TCP path and assert:
//!
//! 1. the stall regression: with one session wedged, a second
//!    connection's ingest still round-trips within a bounded deadline;
//! 2. parking is lossless and order-preserving: positions streamed
//!    through park/re-admit cycles are bit-identical to a standalone
//!    tracker fed the same reads;
//! 3. conservation stays exact when a parked connection dies or its
//!    session closes mid-park (`parked_reads = readmissions +
//!    parked_rejected + parked_discarded + stashed`).

use rfidraw_channel::{Channel, Scenario};
use rfidraw_core::array::{AntennaId, Deployment};
use rfidraw_core::exec::Parallelism;
use rfidraw_core::geom::{Plane, Point2, Point3, Rect};
use rfidraw_core::online::OnlineEvent;
use rfidraw_core::stream::PhaseRead;
use rfidraw_protocol::inventory::{demux_phase_reads, InventoryConfig, InventorySim, SimTag};
use rfidraw_protocol::Epc;
use rfidraw_serve::wire::{IngestBatch, Message};
use rfidraw_serve::{ReactorServer, ServeConfig, TrackerTemplate, TrackingService, WireClient};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

fn template() -> TrackerTemplate {
    TrackerTemplate::paper_default(Rect::new(Point2::new(0.5, 0.3), Point2::new(2.3, 1.7)))
}

/// A tiny-queue config: capacity 4 makes every multi-read batch
/// overrun the queue, so parking is exercised constantly.
fn tiny_queue_config(workers: Option<Parallelism>) -> ServeConfig {
    let mut cfg = ServeConfig::new(template());
    cfg.queue_capacity = 4;
    cfg.workers = workers;
    cfg
}

/// Valid, strictly ordered synthetic reads (they need not track; ingest
/// accounting is what these tests measure).
fn synthetic_reads(n: usize, t0: f64) -> Vec<PhaseRead> {
    (0..n)
        .map(|i| PhaseRead {
            t: t0 + 0.01 * i as f64,
            antenna: AntennaId(1 + (i % 4) as u8),
            phase: 0.1 + 0.01 * (i % 50) as f64,
        })
        .collect()
}

fn wait_until(deadline: Duration, mut cond: impl FnMut() -> bool) -> bool {
    let start = Instant::now();
    while start.elapsed() < deadline {
        if cond() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    false
}

/// One real position stream (the first tag of the standard eight-tag
/// scenario) plus its standalone-tracker reference bits.
fn tracked_stream(seed: u64) -> (Vec<PhaseRead>, Vec<(u64, u64, u64)>) {
    let plane = Plane::at_depth(2.0);
    let pos = Point2::new(1.1, 0.9);
    let traj = move |_t: f64| -> Point3 { plane.lift(pos) };
    let tags = [SimTag { epc: Epc::from_index(1), trajectory: &traj }];
    let channel = Channel::new(Deployment::paper_default(), Scenario::Los.config(), seed);
    let mut sim = InventorySim::new(channel, InventoryConfig::paper_default(0.030, seed));
    let reads = demux_phase_reads(&sim.run(&tags, 3.0))
        .remove(&Epc::from_index(1))
        .expect("tag stream");
    let mut tracker = template().build();
    let mut bits = Vec::new();
    for &r in &reads {
        if let Ok(events) = tracker.push(r) {
            for e in events {
                if let OnlineEvent::Position { t, pos } = e {
                    bits.push((t.to_bits(), pos.x.to_bits(), pos.z.to_bits()));
                }
            }
        }
    }
    (reads, bits)
}

/// The stall regression (fails on the pre-fix reactor): one session with
/// a wedged queue must not take the whole front end down with it. A
/// 12-read batch against a 4-slot queue with no worker draining
/// parks connection A; connection B's ingest must still round-trip well
/// inside its 5 s deadline. Then a pump loop drains the stash and A's
/// held ack arrives complete and lossless.
#[test]
fn blocked_session_does_not_stall_other_connections() {
    // No workers: the "deliberately slow worker" is us, pumping manually
    // only after B's round-trip proves the reactor never slept.
    let service = TrackingService::start(tiny_queue_config(None));
    let server = ReactorServer::bind(
        "127.0.0.1:0",
        service.client(),
        rfidraw_net::ReactorConfig::default(),
    )
    .unwrap();
    let stats = server.stats();
    let epc_a = Epc::from_index(1);
    let epc_b = Epc::from_index(2);

    // Connection A fires a 12-read batch and does NOT wait for the ack:
    // 4 reads fill the queue, 8 must be stashed and A parked.
    let mut conn_a = WireClient::connect(server.local_addr()).unwrap();
    conn_a
        .send(&Message::Ingest(IngestBatch { epc: epc_a, reads: synthetic_reads(12, 0.0) }))
        .unwrap();
    assert!(
        wait_until(Duration::from_secs(5), || stats.parked.load(Ordering::Relaxed) == 1),
        "connection A must end up parked, not block the reactor"
    );

    // Connection B's ingest must round-trip while A is parked. On the
    // pre-fix reactor the event loop is asleep in the session condvar
    // here and this read times out.
    let mut conn_b = WireClient::connect(server.local_addr()).unwrap();
    conn_b.stream_mut().set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let started = Instant::now();
    let ack = conn_b
        .ingest(epc_b, &synthetic_reads(1, 0.0))
        .expect("a parked session must not stall other connections");
    assert_eq!(ack.accepted, 1);
    assert!(started.elapsed() < Duration::from_secs(5));

    let mid = service.telemetry();
    assert_eq!(mid.parked_reads, 8, "12 sent, 4 admitted, 8 stashed");
    assert_eq!(mid.readmissions, 0);
    assert_eq!(mid.net.connections_parked, 1);

    // Now drain: every take fires A's drain waiter, the reactor
    // re-admits from the stash, and the held ack finally arrives —
    // complete, lossless, and in one piece.
    let done = AtomicBool::new(false);
    std::thread::scope(|s| {
        s.spawn(|| {
            while !done.load(Ordering::Acquire) {
                service.pump();
                std::thread::sleep(Duration::from_millis(1));
            }
        });
        conn_a.stream_mut().set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        let ack = match conn_a.recv().expect("held ack").expect("held ack frame") {
            Message::IngestAck(ack) => ack,
            other => panic!("expected the held IngestAck, got {other:?}"),
        };
        assert_eq!(ack.epc, epc_a);
        assert_eq!(ack.accepted, 12, "Block is lossless across park/re-admit");
        assert_eq!(ack.dropped + ack.rejected, 0);
        done.store(true, Ordering::Release);
    });

    service.quiesce();
    let report = service.telemetry();
    assert_eq!(report.parked_reads, 8);
    assert_eq!(report.readmissions, 8, "every stashed read was re-admitted");
    assert_eq!(report.parked_rejected + report.parked_discarded, 0);
    assert_eq!(report.net.connections_parked, 0, "the park gauge returns to zero");
    assert!(report.net.wakeups > 0, "re-admission goes through the wakeup pipe");
    assert_eq!(report.reads_ingested, 13);
    assert_eq!(report.reads_processed, 13);
    assert_eq!(report.reads_dropped + report.reads_rejected, 0);
}

/// Order preservation across parked boundaries: a real tracked stream
/// pushed through a 4-slot queue parks the producer connection over and
/// over; the streamed positions must still be bit-identical to a
/// standalone tracker, which can only happen if re-admission keeps the
/// exact arrival order (no reorder, no loss, no duplication).
#[test]
fn park_and_readmit_preserves_read_order_bit_for_bit() {
    let (reads, reference) = tracked_stream(13);
    assert!(!reference.is_empty(), "the scenario must produce positions");

    let service = TrackingService::start(tiny_queue_config(Some(Parallelism::Threads(1))));
    let server = ReactorServer::bind(
        "127.0.0.1:0",
        service.client(),
        rfidraw_net::ReactorConfig::default(),
    )
    .unwrap();
    let addr = server.local_addr();
    let epc = Epc::from_index(1);

    let mut sub = WireClient::connect(addr).unwrap();
    sub.subscribe(epc).unwrap();
    let collector = std::thread::spawn(move || {
        let mut bits = Vec::new();
        loop {
            match sub.recv().expect("subscriber recv") {
                Some(Message::PositionUpdate(p)) => {
                    bits.push((p.t.to_bits(), p.x.to_bits(), p.z.to_bits()))
                }
                Some(Message::SessionClosed(c)) => {
                    assert_eq!(c.reason, "explicit");
                    return bits;
                }
                other => panic!("unexpected subscription frame: {other:?}"),
            }
        }
    });

    // Pipelined producer: two 32-read frames in flight at a time, so the
    // second frame crosses a parked boundary sitting in the kernel
    // buffer while the first is still mid-stash.
    let mut producer = WireClient::connect(addr).unwrap();
    let chunks: Vec<&[PhaseRead]> = reads.chunks(32).collect();
    let mut accepted = 0u64;
    for pair in chunks.chunks(2) {
        for chunk in pair {
            producer
                .send(&Message::Ingest(IngestBatch { epc, reads: chunk.to_vec() }))
                .unwrap();
        }
        for _ in pair {
            match producer.recv().expect("ack").expect("ack frame") {
                Message::IngestAck(ack) => {
                    assert_eq!(ack.dropped + ack.rejected, 0, "Block is lossless");
                    accepted += ack.accepted;
                }
                other => panic!("expected IngestAck, got {other:?}"),
            }
        }
    }
    assert_eq!(accepted as usize, reads.len());

    service.quiesce();
    let report = service.telemetry();
    assert!(report.parked_reads > 0, "a 4-slot queue must actually park");
    assert_eq!(report.readmissions, report.parked_reads, "every stash fully re-admitted");
    assert_eq!(report.parked_rejected + report.parked_discarded, 0);
    assert_eq!(report.reads_ingested, reads.len() as u64);
    assert_eq!(report.reads_processed, reads.len() as u64);

    assert!(service.client().close_session(epc));
    let got = collector.join().expect("collector");
    assert_eq!(got.len(), reference.len(), "position count");
    assert_eq!(got, reference, "positions diverged: order was not preserved across parking");
}

/// A parked connection dying mid-park must leave the books exact: the
/// stash it abandons is counted as discarded (and rejected at the ingest
/// boundary), the park gauge returns to zero, and queue conservation
/// still balances.
#[test]
fn parked_connection_closed_mid_park_keeps_conservation_exact() {
    let service = TrackingService::start(tiny_queue_config(None));
    let server = ReactorServer::bind(
        "127.0.0.1:0",
        service.client(),
        rfidraw_net::ReactorConfig::default(),
    )
    .unwrap();
    let stats = server.stats();
    let epc = Epc::from_index(7);

    let mut conn = WireClient::connect(server.local_addr()).unwrap();
    conn.send(&Message::Ingest(IngestBatch { epc, reads: synthetic_reads(12, 0.0) })).unwrap();
    assert!(
        wait_until(Duration::from_secs(5), || stats.parked.load(Ordering::Relaxed) == 1),
        "the connection must park first"
    );

    // Kill the connection while parked. Interest::NONE still reports
    // hangup on both poller backends, so the reactor notices without
    // read interest.
    drop(conn);
    assert!(
        wait_until(Duration::from_secs(5), || stats.parked.load(Ordering::Relaxed) == 0),
        "a dead parked connection must be torn down"
    );

    let report = service.telemetry();
    assert_eq!(report.parked_reads, 8);
    assert_eq!(report.parked_discarded, 8, "the abandoned stash is attributed");
    assert_eq!(report.readmissions + report.parked_rejected, 0);
    // Boundary conservation: 12 attempted = 4 ingested + 8 rejected
    // (the discarded stash never entered a queue).
    assert_eq!(report.reads_ingested, 4);
    assert_eq!(report.reads_rejected, 8);
    // Queue conservation: all 4 admitted reads are still queued.
    assert_eq!(report.reads_processed + report.reads_dropped, 0);
    assert_eq!(report.sessions.iter().map(|s| s.queue_depth).sum::<u64>(), 4);
}

/// A session closing while its producer is parked: the close fires the
/// drain waiters, the retry rejects the stash against the closed
/// session, and the held ack still arrives (accepted prefix + rejected
/// tail) with the connection unparked — no stranded parks, books exact.
#[test]
fn session_closed_mid_park_rejects_the_stash_and_releases_the_ack() {
    let service = TrackingService::start(tiny_queue_config(None));
    let server = ReactorServer::bind(
        "127.0.0.1:0",
        service.client(),
        rfidraw_net::ReactorConfig::default(),
    )
    .unwrap();
    let stats = server.stats();
    let epc = Epc::from_index(9);

    let mut conn = WireClient::connect(server.local_addr()).unwrap();
    conn.send(&Message::Ingest(IngestBatch { epc, reads: synthetic_reads(12, 0.0) })).unwrap();
    assert!(
        wait_until(Duration::from_secs(5), || stats.parked.load(Ordering::Relaxed) == 1),
        "the connection must park first"
    );

    assert!(service.client().close_session(epc));
    conn.stream_mut().set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let ack = match conn.recv().expect("held ack").expect("held ack frame") {
        Message::IngestAck(ack) => ack,
        other => panic!("expected the held IngestAck, got {other:?}"),
    };
    assert_eq!(ack.accepted, 4, "the admitted prefix was acked");
    assert_eq!(ack.rejected, 8, "the stash was rejected against the closed session");

    assert!(
        wait_until(Duration::from_secs(5), || stats.parked.load(Ordering::Relaxed) == 0),
        "the close must unpark the connection"
    );
    let report = service.telemetry();
    assert_eq!(report.parked_reads, 8);
    assert_eq!(report.parked_rejected, 8);
    assert_eq!(report.readmissions + report.parked_discarded, 0);
    // The 4 queued reads were discarded by the close (counted dropped):
    // ingested = processed + dropped + queued and attempted = ingested +
    // rejected both balance.
    assert_eq!(report.reads_ingested, 4);
    assert_eq!(report.reads_dropped, 4);
    assert_eq!(report.reads_rejected, 8);
    assert_eq!(report.reads_processed, 0);

    // The connection survives its parked episode.
    let t = conn.telemetry().expect("connection must remain usable");
    assert_eq!(t.parked_rejected, 8);
}
