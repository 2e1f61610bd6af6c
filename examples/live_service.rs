//! Three users writing words at the same time, tracked **live** by the
//! multi-session service (`rfidraw-serve`) instead of an offline batch
//! reconstruction.
//!
//! ```sh
//! cargo run --release -p rfidraw --example live_service -- [WORD_A] [WORD_B] [WORD_C]
//! ```
//!
//! One shared inventory reads all three tags (their replies contend for
//! ALOHA slots); the stream is demultiplexed by EPC and pushed into the
//! service from one producer thread per tag, exactly the way a reader
//! gateway would. Each tag lazily gets its own session — a bounded queue
//! in front of a streaming tracker — drained fairly by the worker pool.
//! The example prints each session's traced trajectory and the service's
//! final telemetry report — including the per-stage latency breakdown
//! from the pipeline trace recorder — then injects a stale-gap anomaly
//! (a tag that goes silent mid-word for longer than the tracker's
//! `max_read_gap`) and shows the flight-recorder dump it leaves behind.
//! It **exits nonzero if the lossless ingest path dropped or
//! rejected a single read, or if the injected anomaly fails to produce a
//! dump** — CI runs it as a regression gate.

use rfidraw::core::exec::Parallelism;
use rfidraw::core::geom::{Plane, Point2, Rect};
use rfidraw::handwriting::layout::layout_word;
use rfidraw::handwriting::pen::{write_word, PenConfig, Style};
use rfidraw::pipeline::sample_words;
use rfidraw::plot::{ascii_plot, densify};
use rfidraw::channel::{Channel, Scenario};
use rfidraw::core::array::Deployment;
use rfidraw::protocol::inventory::{demux_phase_reads, InventoryConfig, InventorySim, SimTag};
use rfidraw::protocol::Epc;
use rfidraw::serve::{ServeConfig, SessionEvent, TrackerTemplate, TrackingService};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let defaults = sample_words(3, 42);
    let words: Vec<String> = (0..3)
        .map(|i| args.get(i).cloned().unwrap_or_else(|| defaults[i].to_string()))
        .collect();

    println!("=== Live multi-session tracking service ===");
    println!(
        "three users write \"{}\", \"{}\" and \"{}\" simultaneously\n",
        words[0], words[1], words[2]
    );

    // Ground truth: three words, spatially separated on the writing plane.
    let plane = Plane::at_depth(2.0);
    let region = Rect::new(Point2::new(-0.2, 0.0), Point2::new(3.2, 2.2));
    let lead = 0.5;
    let pen = PenConfig { start_time: lead, ..PenConfig::default() };
    let starts = [Point2::new(0.4, 1.6), Point2::new(1.7, 1.1), Point2::new(0.8, 0.5)];
    let truths: Vec<_> = words
        .iter()
        .zip(starts)
        .enumerate()
        .map(|(user, (word, start))| {
            let path = layout_word(word, 0.10, 0.025)
                .unwrap_or_else(|e| panic!("cannot lay out {word:?}: {e}"))
                .place_at(start);
            write_word(&path, Style::user(user as u64), pen)
        })
        .collect();
    let duration = truths
        .iter()
        .filter_map(|w| w.samples.last().map(|s| s.t))
        .fold(0.0f64, f64::max)
        + lead;

    // One shared channel and inventory: the tags contend for the medium.
    let dep = Deployment::paper_default();
    let channel = Channel::new(dep, Scenario::Los.config(), 7);
    let mut sim = InventorySim::new(channel, InventoryConfig::paper_default(0.030, 7));
    let trajectories: Vec<_> = truths
        .iter()
        .map(|w| {
            let w = w.clone();
            move |t: f64| plane.lift(w.position_at(t))
        })
        .collect();
    let tags: Vec<SimTag<'_>> = trajectories
        .iter()
        .enumerate()
        .map(|(i, f)| SimTag { epc: Epc::from_index(0xA + i as u32), trajectory: f })
        .collect();
    let records = sim.run(&tags, duration);
    let streams = demux_phase_reads(&records);
    println!(
        "inventory: {} reads over {duration:.1} s across {} tags",
        records.len(),
        streams.len()
    );

    // The service: lossless admission, auto worker pool, and the
    // pipeline trace recorder (queue-wait/compute spans, flight recorder).
    let mut cfg = ServeConfig::new(TrackerTemplate::paper_default(region));
    cfg.workers = Some(Parallelism::Auto);
    cfg.observability = Some(rfidraw::metrics::TraceSettings::default());
    let service = TrackingService::start(cfg);
    let client = service.client();

    // One producer per tag, feeding reads in batches of 32 as a gateway
    // would, with a subscription capturing the live event stream.
    let producers: Vec<_> = streams
        .iter()
        .map(|(&epc, reads)| {
            let client = client.clone();
            let reads = reads.clone();
            std::thread::spawn(move || {
                let events = client.subscribe(epc).expect("subscribe");
                for chunk in reads.chunks(32) {
                    client.ingest(epc, chunk).expect("ingest");
                }
                (epc, events)
            })
        })
        .collect();
    let sessions: Vec<_> = producers.into_iter().map(|h| h.join().expect("producer")).collect();
    service.quiesce();

    // Per-session traced output.
    for (i, (epc, events)) in sessions.iter().enumerate() {
        let mut acquired = 0usize;
        let mut positions = 0usize;
        let mut stale = 0usize;
        while let Ok(ev) = events.try_recv() {
            match ev {
                SessionEvent::Acquired { candidates, .. } => acquired = candidates,
                SessionEvent::Position { .. } => positions += 1,
                SessionEvent::Stale { .. } => stale += 1,
                _ => {}
            }
        }
        let view = client.session_view(*epc).expect("session exists");
        println!(
            "\nsession {epc} (\"{}\"): acquired with {acquired} candidates, \
             {positions} live positions, {stale} stale resets, {}",
            words[i],
            if view.tracking { "tracking" } else { "warming up" }
        );
        if view.trajectory.len() > 1 {
            println!("{}", ascii_plot(&[&densify(&view.trajectory, 3)], 80, 14));
        }
    }

    // The final telemetry report, human and machine readable.
    let report = service.telemetry();
    println!("\n--- telemetry ---\n{}", report.render());
    println!("as JSON: {} bytes", serde_json::to_string(&report).expect("serializable").len());

    // CI gate: the lossless happy path must not shed a single read.
    if report.reads_dropped != 0 || report.reads_rejected != 0 {
        eprintln!(
            "ERROR: dropped {} / rejected {} reads on the lossless path",
            report.reads_dropped, report.reads_rejected
        );
        std::process::exit(1);
    }
    let total: usize = streams.values().map(Vec::len).sum();
    if report.reads_processed != total as u64 {
        eprintln!("ERROR: processed {} of {} ingested reads", report.reads_processed, total);
        std::process::exit(1);
    }
    println!("\nall {total} reads processed; no drops, no rejections");

    // --- Act 2: an injected anomaly for the flight recorder. One more
    // tag starts writing, goes silent mid-word for longer than the
    // tracker's stale gap (1 s), then resumes: the tracker resets, and
    // the recorder snapshots the events leading up to the reset.
    let gap_epc = Epc::from_index(0xEE);
    let source = streams.values().next().expect("at least one stream");
    let gap_start = duration * 0.4;
    let gap_end = gap_start + 1.5; // > max_read_gap = 1.0 s
    let gapped: Vec<_> = source
        .iter()
        .copied()
        .filter(|r| r.t < gap_start || r.t >= gap_end)
        .collect();
    println!(
        "\n--- injected anomaly: tag {gap_epc} goes silent for {:.1} s mid-word ---",
        gap_end - gap_start
    );
    client.ingest(gap_epc, &gapped).expect("ingest gapped stream");
    service.quiesce();

    let dumps = client.trace_dumps();
    let stale_dump = dumps
        .iter()
        .find(|d| d.trigger.as_ref().is_some_and(|t| t.stage == "stale_reset"));
    match stale_dump {
        Some(dump) => {
            let trigger = dump.trigger.as_ref().expect("anomaly-triggered");
            println!(
                "flight recorder: {} dump(s); stale-reset trigger at seq {} \
                 (gap {:.2} s, read t = {:.2} s), {} events in the window",
                dumps.len(),
                trigger.seq,
                trigger.a,
                trigger.b,
                dump.events.len()
            );
            for e in dump.events.iter().rev().take(5).rev() {
                println!(
                    "  seq {:>6}  {:>10} µs  session {:>4}  {:<14} {:<8} a={:.3} b={:.3}",
                    e.seq, e.t_us, e.session, e.stage, e.kind, e.a, e.b
                );
            }
        }
        None => {
            eprintln!("ERROR: the injected stale gap produced no flight-recorder dump");
            std::process::exit(1);
        }
    }
    println!("\nfinal per-stage latency breakdown:\n{}", service.telemetry().render());
}
