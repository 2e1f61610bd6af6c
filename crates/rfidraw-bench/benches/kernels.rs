//! Criterion benches for the compute kernels that dominate experiment
//! wall-clock: vote-grid evaluation, per-tick tracing steps, baseline
//! beamforming, snapshot construction, and recognition.

use criterion::{criterion_group, criterion_main, Criterion};
use rfidraw::core::array::Deployment;
use rfidraw::core::baseline::BaselineArrays;
use rfidraw::core::engine::VoteEngine;
use rfidraw::core::geom::{Plane, Point2, Rect};
use rfidraw::core::grid::{Grid2, VoteMap};
use rfidraw::core::phase::wrap_pi;
use rfidraw::core::position::{MultiResConfig, MultiResPositioner};
use rfidraw::core::trace::{ideal_snapshots, TraceConfig, TrajectoryTracer};
use rfidraw::core::vote::ideal_measurements;
use rfidraw::recognition::Recognizer;
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::f64::consts::TAU;
use std::hint::black_box;

fn region() -> Rect {
    Rect::new(Point2::new(0.0, 0.0), Point2::new(3.0, 2.0))
}

fn bench_vote_grid(c: &mut Criterion) {
    let dep = Deployment::paper_default();
    let plane = Plane::at_depth(2.0);
    let tag = plane.lift(Point2::new(1.2, 0.9));
    let ms = ideal_measurements(&dep, dep.all_pairs(), tag);
    c.bench_function("vote_grid_5cm_all_pairs", |b| {
        b.iter(|| {
            let map = VoteMap::evaluate(&dep, &ms, plane, Grid2::new(region(), 0.05));
            black_box(map.argmax())
        })
    });
}

/// The reference (table-free) evaluation path on the same dense 1 cm grid
/// the engine benches use. CI's perf-sanity gate compares
/// `engine_1cm_serial` against this: the pair-major kernel must never be
/// slower than recomputing distances per call.
fn bench_vote_reference(c: &mut Criterion) {
    let dep = Deployment::paper_default();
    let plane = Plane::at_depth(2.0);
    let tag = plane.lift(Point2::new(1.2, 0.9));
    let ms = ideal_measurements(&dep, dep.all_pairs(), tag);
    c.bench_function("vote_reference_1cm", |b| {
        b.iter(|| {
            let map = VoteMap::evaluate(&dep, &ms, plane, Grid2::new(region(), 0.01));
            black_box(map.argmax())
        })
    });
}

/// The vote-map engine on a dense 1 cm grid, with the table built up
/// front so the bench isolates the accumulation kernel.
fn bench_vote_engine(c: &mut Criterion) {
    let dep = Deployment::paper_default();
    let plane = Plane::at_depth(2.0);
    let tag = plane.lift(Point2::new(1.2, 0.9));
    let ms = ideal_measurements(&dep, dep.all_pairs(), tag);
    let grid = Grid2::new(region(), 0.01);
    let engine = VoteEngine::for_deployment(&dep, plane, grid.clone());
    engine.build_table();
    c.bench_function("engine_1cm_serial", |b| {
        b.iter(|| black_box(engine.evaluate(black_box(&ms)).argmax()))
    });

    // The quantized i16 kernel on the same grid: a quarter of the f64
    // table bytes, f32 accumulation. CI's perf-sanity gate requires
    // `engine_1cm_i16` to beat `engine_1cm_serial` by at least 1.56x.
    use rfidraw::core::engine::TablePrecision;
    let mut engine = VoteEngine::for_deployment(&dep, plane, grid);
    engine.set_precision(TablePrecision::I16);
    engine.prebuild();
    c.bench_function("engine_1cm_i16", |b| {
        b.iter(|| black_box(engine.evaluate(black_box(&ms)).argmax()))
    });
}

/// The set-up work of a tracking service: `TrackerTemplate::build()` on
/// the serving template's region, which builds the prototype tracker's
/// coarse and fine f64 vote tables serially. Every later session clones
/// the prototype and shares its tables, so this is the server-side cost
/// a service pays once, when its first session opens.
fn bench_template_build(c: &mut Criterion) {
    use rfidraw::serve::TrackerTemplate;
    let template =
        TrackerTemplate::paper_default(Rect::new(Point2::new(-0.2, 0.0), Point2::new(3.2, 2.2)));
    c.bench_function("template_build", |b| b.iter(|| black_box(template.build())));
}

/// `multires_locate` on a standalone positioner, whose fine table stays
/// lazy: stage 2 computes the kept cells' distances on the fly.
fn bench_multires_locate(c: &mut Criterion) {
    let dep = Deployment::paper_default();
    let plane = Plane::at_depth(2.0);
    let tag = plane.lift(Point2::new(1.2, 0.9));
    let ms = ideal_measurements(&dep, dep.all_pairs(), tag);
    let mut cfg = MultiResConfig::for_region(region());
    cfg.fine_resolution = 0.02;
    let pos = MultiResPositioner::new(dep, plane, cfg);
    c.bench_function("multires_locate", |b| {
        b.iter(|| black_box(pos.locate(black_box(&ms))))
    });
}

/// Acquisition as a tracking service runs it: the positioner of a
/// tracker built from the serving template over the serving benchmark's
/// region, whose coarse and fine tables are prebuilt, so stage 2 gathers
/// the kept cells from the fine table.
fn bench_multires_locate_served(c: &mut Criterion) {
    use rfidraw::serve::TrackerTemplate;
    let template =
        TrackerTemplate::paper_default(Rect::new(Point2::new(-0.2, 0.0), Point2::new(3.2, 2.2)));
    let tracker = template.build();
    let pos = tracker.positioner();
    let dep = pos.deployment();
    let ms = ideal_measurements(dep, dep.all_pairs(), pos.plane().lift(Point2::new(1.2, 0.9)));
    c.bench_function("multires_locate_served", |b| {
        b.iter(|| black_box(pos.locate(black_box(&ms))))
    });
}

fn bench_trace_steps(c: &mut Criterion) {
    let dep = Deployment::paper_default();
    let plane = Plane::at_depth(2.0);
    let path: Vec<Point2> = (0..100)
        .map(|i| Point2::new(1.0 + 0.002 * i as f64, 1.0 + 0.03 * (i as f64 * 0.2).sin()))
        .collect();
    let snaps = ideal_snapshots(&dep, plane, &path, 0.04);
    let tracer = TrajectoryTracer::new(dep, plane, TraceConfig::default());
    let start = rfidraw::core::position::Candidate {
        position: path[0],
        vote: 0.0,
    };
    c.bench_function("trace_100_ticks", |b| {
        b.iter(|| black_box(tracer.trace_from(start, black_box(&snaps))))
    });

    // The same path with up to ±0.3 turns of noise per pair and every lobe
    // lock moved by −1, 0 or +1 (seeded), so votes sit far from zero and
    // the tick's tile bounds leave about half the tiles to score, where
    // the noise-free snapshots above let them prune almost every tile.
    let mut rng = StdRng::seed_from_u64(100);
    let mut noisy = snaps.clone();
    for snap in &mut noisy {
        for (m, (_, turns)) in snap.wrapped.iter_mut().zip(&mut snap.unwrapped_turns) {
            let noise = rng.gen_range(-0.3..0.3);
            *turns += noise;
            m.delta_phi = wrap_pi(m.delta_phi + TAU * noise);
        }
    }
    let mut locked = tracer.lock_lobes(&noisy[0], path[0]);
    for (_, k) in &mut locked {
        *k += rng.gen_range(-1i64..2);
    }
    c.bench_function("trace_100_ticks_noisy", |b| {
        b.iter(|| {
            let mut prev = path[0];
            for snap in black_box(&noisy) {
                prev = tracer.advance(prev, snap, &locked).0;
            }
            black_box(prev)
        })
    });
}

fn bench_baseline_locate(c: &mut Criterion) {
    let baseline = BaselineArrays::paper_default();
    let plane = Plane::at_depth(2.0);
    let tag = plane.lift(Point2::new(1.2, 0.9));
    let ms = ideal_measurements(baseline.deployment(), &baseline.pairs(), tag);
    c.bench_function("baseline_locate", |b| {
        b.iter(|| black_box(baseline.locate(black_box(&ms), plane, region())))
    });
}

/// Serving-layer overhead: routing, sharded registry lookup, bounded
/// queueing, and round-robin draining of a fixed read budget spread over
/// 1 to 10240 concurrent sessions (the 1k/10k points are the
/// 100k-session serving trajectory at bench-affordable scale). The reads
/// carry an antenna outside the deployment so the tracker ignores them —
/// the tracker kernels are benched separately above; this isolates what
/// the service itself costs per read.
fn bench_serve_ingest(c: &mut Criterion) {
    use rfidraw::core::array::AntennaId;
    use rfidraw::core::stream::PhaseRead;
    use rfidraw::protocol::Epc;
    use rfidraw::serve::{ServeConfig, TrackerTemplate, TrackingService};

    const TOTAL_READS: usize = 4096;
    for sessions in [1usize, 8, 64, 1024, 10240] {
        // Past the read budget every session still ingests one read per
        // iteration, so the 10k point measures per-session routing cost.
        let per_session = (TOTAL_READS / sessions).max(1);
        let total = per_session * sessions;
        let mut cfg = ServeConfig::new(TrackerTemplate::paper_default(region()));
        cfg.workers = None; // drain on the bench thread: deterministic cost
        cfg.queue_capacity = TOTAL_READS;
        cfg.max_sessions = sessions;
        let service = TrackingService::start(cfg);
        let client = service.client();
        let batch: Vec<PhaseRead> = (0..per_session)
            .map(|i| PhaseRead { t: i as f64 * 1e-3, antenna: AntennaId(0), phase: 0.5 })
            .collect();
        let epcs: Vec<Epc> = (0..sessions).map(|i| Epc::from_index(i as u32 + 1)).collect();
        c.bench_function(&format!("serve_ingest_{total}_reads_{sessions}_sessions"), |b| {
            b.iter(|| {
                for &epc in &epcs {
                    black_box(client.ingest(epc, black_box(&batch)).expect("ingest"));
                }
                while service.pump() > 0 {}
            })
        });
    }
}

/// Wire-format cost at the serving boundary: the same 4096-read /
/// 64-session ingest load pre-encoded as newline-JSON (wire v2) and
/// length-prefixed binary (wire v3), pushed through the frame decoder,
/// payload decode, wire-boundary validation, ingest, and a full drain —
/// the per-frame server path minus the sockets. CI gates binary at
/// >= 1.5x JSON here.
fn bench_serve_wire(c: &mut Criterion) {
    use rfidraw::core::array::AntennaId;
    use rfidraw::core::stream::PhaseRead;
    use rfidraw::net::{FrameDecoder, RawFrame, DEFAULT_MAX_PAYLOAD};
    use rfidraw::protocol::Epc;
    use rfidraw::serve::wire::{self, IngestBatch, Message};
    use rfidraw::serve::{wire3, ServeConfig, TrackerTemplate, TrackingService};

    const SESSIONS: usize = 64;
    const PER_SESSION: usize = 64;
    let mut cfg = ServeConfig::new(TrackerTemplate::paper_default(region()));
    cfg.workers = None;
    cfg.queue_capacity = PER_SESSION;
    cfg.max_sessions = SESSIONS;
    let service = TrackingService::start(cfg);
    let client = service.client();

    let frames: Vec<(Vec<u8>, Vec<u8>)> = (0..SESSIONS)
        .map(|s| {
            let epc = Epc::from_index(s as u32 + 1);
            let reads: Vec<PhaseRead> = (0..PER_SESSION)
                .map(|i| PhaseRead { t: i as f64 * 1e-3, antenna: AntennaId(0), phase: 0.5 })
                .collect();
            let msg = Message::Ingest(IngestBatch { epc, reads });
            let mut json = wire::encode(&msg).into_bytes();
            json.push(b'\n');
            (json, wire3::encode_frame(&msg))
        })
        .collect();

    let total = SESSIONS * PER_SESSION;
    for binary in [false, true] {
        let name = if binary { "serve_wire_binary" } else { "serve_wire_json" };
        c.bench_function(&format!("{name}_{total}_reads_{SESSIONS}_sessions"), |b| {
            b.iter(|| {
                for (json, bin) in &frames {
                    let bytes: &[u8] = if binary { bin } else { json };
                    let mut dec = FrameDecoder::new(DEFAULT_MAX_PAYLOAD);
                    dec.feed(black_box(bytes));
                    let frame = dec.next().expect("well-framed").expect("complete frame");
                    let msg = match frame {
                        RawFrame::Json(line) => wire::decode(&line).expect("decodes"),
                        RawFrame::Binary(fr) => wire3::decode_frame(&fr).expect("decodes"),
                    };
                    let Message::Ingest(batch) = msg else { unreachable!() };
                    assert!(batch.reads.iter().all(wire::read_is_valid));
                    black_box(client.ingest(batch.epc, &batch.reads).expect("ingest"));
                }
                while service.pump() > 0 {}
            })
        });
    }
}

/// The reactor-stall regression as a throughput number: one connection
/// keeps a tiny queue perpetually overrun (a feeder thread
/// pipelines oversized batches it never waits on, so the connection
/// stays parked with a stash), while eight healthy sessions round-trip
/// 32-read ingests over real sockets each iteration. Before parking
/// landed, the reactor thread slept in the full session's condvar and
/// this bench would deadlock; now it measures what the healthy path
/// costs while a parked connection sits on the poller.
fn bench_serve_block_one_slow_session(c: &mut Criterion) {
    use rfidraw::core::array::AntennaId;
    use rfidraw::core::stream::PhaseRead;
    use rfidraw::protocol::Epc;
    use rfidraw::serve::wire::{self, IngestBatch, Message};
    use rfidraw::serve::{
        ReactorServer, ServeConfig, TrackerTemplate, TrackingService, WireClient,
    };
    use std::io::Write;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    const HEALTHY: usize = 8;
    const PER_BATCH: usize = 32;
    let mut cfg = ServeConfig::new(TrackerTemplate::paper_default(region()));
    cfg.workers = None; // drained on the bench thread, like serve_ingest
    cfg.queue_capacity = 64;
    cfg.max_sessions = HEALTHY + 1;
    let service = TrackingService::start(cfg);
    let server = ReactorServer::bind(
        "127.0.0.1:0",
        service.client(),
        rfidraw::net::ReactorConfig::default(),
    )
    .expect("bind");
    let addr = server.local_addr();
    let stats = server.stats();

    // The hot producer: a raw socket rewriting one pre-encoded 4096-read
    // frame forever, never reading acks. Kernel-buffer backpressure (the
    // parked connection has no read interest) throttles it; partial
    // writes resume mid-frame so the framing stays intact.
    let stop = Arc::new(AtomicBool::new(false));
    let feeder = {
        let stop = Arc::clone(&stop);
        let reads: Vec<PhaseRead> = (0..4096)
            .map(|i| PhaseRead { t: i as f64 * 1e-3, antenna: AntennaId(0), phase: 0.5 })
            .collect();
        let msg = Message::Ingest(IngestBatch { epc: Epc::from_index(1), reads });
        let mut frame = wire::encode(&msg).into_bytes();
        frame.push(b'\n');
        std::thread::spawn(move || {
            let stream = std::net::TcpStream::connect(addr).expect("hot connect");
            stream.set_write_timeout(Some(Duration::from_millis(50))).expect("timeout");
            let mut stream = &stream;
            let mut pos = 0usize;
            while !stop.load(Ordering::Acquire) {
                match stream.write(&frame[pos..]) {
                    Ok(0) | Err(_) if stop.load(Ordering::Acquire) => break,
                    Ok(0) => break,
                    Ok(n) => {
                        pos += n;
                        if pos == frame.len() {
                            pos = 0;
                        }
                    }
                    Err(e)
                        if matches!(
                            e.kind(),
                            std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                        ) => {}
                    Err(_) => break,
                }
            }
        })
    };
    // Parking normally lands well under a second; on a loaded box the
    // wait can stretch, so the timeout is generous and each waited
    // second dumps reactor stats — if the assert ever fires, the last
    // line pins the stalled stage (accept vs read vs decode vs park).
    let start = Instant::now();
    let mut last_report = 0u64;
    while stats.parked.load(Ordering::Relaxed) == 0 {
        let secs = start.elapsed().as_secs();
        if secs > last_report {
            last_report = secs;
            eprintln!(
                "[serve_block wait {}s] accepted={} open={} bytes_in={} json={} bin={} parked={}",
                secs,
                stats.accepted.load(Ordering::Relaxed),
                stats.open.load(Ordering::Relaxed),
                stats.bytes_in.load(Ordering::Relaxed),
                stats.frames_in_json.load(Ordering::Relaxed),
                stats.frames_in_binary.load(Ordering::Relaxed),
                stats.parked.load(Ordering::Relaxed),
            );
        }
        assert!(start.elapsed() < Duration::from_secs(30), "hot connection never parked");
        std::thread::sleep(Duration::from_millis(2));
    }

    let mut healthy: Vec<WireClient> =
        (0..HEALTHY).map(|_| WireClient::connect(addr).expect("connect")).collect();
    let batch: Vec<PhaseRead> = (0..PER_BATCH)
        .map(|i| PhaseRead { t: i as f64 * 1e-3, antenna: AntennaId(0), phase: 0.5 })
        .collect();
    let total = HEALTHY * PER_BATCH;
    c.bench_function(&format!("serve_block_one_slow_session_{total}_reads"), |b| {
        b.iter(|| {
            for (i, client) in healthy.iter_mut().enumerate() {
                let epc = Epc::from_index(i as u32 + 2);
                let ack = client.ingest(epc, black_box(&batch)).expect("healthy ingest");
                assert_eq!(ack.dropped + ack.rejected, 0);
            }
            while service.pump() > 0 {}
        })
    });
    stop.store(true, Ordering::Release);
    feeder.join().expect("feeder");
}

/// The cost of a live trace recorder on the serial 1 cm vote-engine
/// evaluation: compare `engine_1cm_trace_recorder` with
/// `engine_1cm_serial`, the same evaluation with no sink installed, where
/// each emit site costs one branch.
fn bench_trace_recorder(c: &mut Criterion) {
    use rfidraw::core::obs::SharedSink;
    use rfidraw::metrics::{TraceRecorder, TraceSettings};
    use std::sync::Arc;

    let dep = Deployment::paper_default();
    let plane = Plane::at_depth(2.0);
    let tag = plane.lift(Point2::new(1.2, 0.9));
    let ms = ideal_measurements(&dep, dep.all_pairs(), tag);
    let rec = Arc::new(TraceRecorder::new(TraceSettings::default()));
    let sink: SharedSink = Arc::clone(&rec) as _;
    let mut engine = VoteEngine::for_deployment(&dep, plane, Grid2::new(region(), 0.01));
    engine.set_trace_sink(Some(sink), 1);
    engine.build_table();
    c.bench_function("engine_1cm_trace_recorder", |b| {
        b.iter(|| black_box(engine.evaluate(black_box(&ms)).argmax()))
    });
    black_box(rec.events_recorded());
}

fn bench_recognizer(c: &mut Criterion) {
    let rec = Recognizer::from_font();
    let path = rfidraw::handwriting::layout::layout_word("q", 0.1, 0.0).unwrap();
    c.bench_function("recognize_letter", |b| {
        b.iter(|| black_box(rec.recognize(black_box(&path.points))))
    });
}

criterion_group! {
    name = kernels;
    config = Criterion::default().sample_size(10);
    targets = bench_vote_grid, bench_vote_reference, bench_vote_engine, bench_template_build,
              bench_multires_locate, bench_multires_locate_served,
              bench_trace_steps, bench_baseline_locate, bench_serve_ingest, bench_serve_wire,
              bench_serve_block_one_slow_session,
              bench_trace_recorder, bench_recognizer
}
criterion_main!(kernels);
