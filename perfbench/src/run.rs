//! One benchmark invocation: generate, compute the oracle, set up, run,
//! check, and turn what was measured into named metrics.
//!
//! The measured time is split into [`reps`] repetitions, each with its
//! own inputs against a freshly started server. Latency and accuracy are
//! taken over the updates of all repetitions pooled, throughput and CPU
//! cost are medians over repetitions. Fresh servers matter: much of the
//! run-to-run spread of the latency tail comes from one server
//! instance's thread interplay, which a single long run cannot average
//! out.

use crate::gen::{epc_index, Inputs, Scale, Workload};
use crate::oracle::{Oracle, PushProfile};
use crate::proc::CpuDelta;
use crate::replay::{replay, Replay};
use crate::span::{SpanLog, ROOT};
use crate::stats::{mean, median, quantile, Metrics};
use crate::tcp::{self, Pacing, Schedule, TcpRun};
use std::io;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Writers in every workload: 22 rooms of three.
pub const WRITERS: usize = 66;
/// Air time of the bulk pool each closed-loop pass replays (s).
pub const BULK_POOL_S: f64 = 8.0;
/// Air time at the start of each repetition whose updates are checked but
/// not timed (s). A freshly started server answers the first second or
/// two several times slower (on `taps` on a 2-vCPU virtual machine, a p75
/// of 4–11 ms in the first second against about 2 ms later), and by an
/// amount that differs from run to run.
pub const WARMUP_S: f64 = 2.0;
/// Set-ups per invocation (the repetitions' own plus extra ones);
/// `setup_s` is their median.
pub const SETUPS: usize = 11;

/// Repetitions per invocation, each on a fresh server with its own
/// inputs. A `live` repetition must stay long enough that a writer's
/// single acquisition is a small share of the tracker's work, so `live`
/// has the fewest; closed-loop repetitions are cut shortest.
pub fn reps(workload: Workload) -> usize {
    match workload {
        Workload::Live => 2,
        Workload::Taps => 3,
        Workload::Bulk => 3,
    }
}
/// Threads for input generation and the untimed oracle (outside the
/// measured window).
const PREP_THREADS: usize = 2;

/// What to run.
#[derive(Debug, Clone)]
pub struct Options {
    /// The traffic mix.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Measured seconds over all repetitions.
    pub seconds: f64,
    /// Whether this is the traced run (per-layer metrics).
    pub trace: bool,
    /// Input size (air time is per repetition, warm-up included).
    pub scale: Scale,
    /// Leading seconds of each repetition left out of the latency figures.
    pub warmup_s: f64,
    /// Repetitions on fresh servers.
    pub reps: usize,
    /// Set-ups to take the median of (at least `reps`).
    pub setups: usize,
    /// Where the traced run writes its spans (`None`: not written).
    pub spans_dir: Option<PathBuf>,
}

impl Options {
    /// The benchmark's standard sizes for `workload` over `seconds`.
    pub fn new(workload: Workload, seed: u64, seconds: f64, trace: bool) -> Self {
        let reps = reps(workload);
        let air_s = match workload {
            Workload::Live | Workload::Taps => seconds / reps as f64 + WARMUP_S,
            Workload::Bulk => BULK_POOL_S,
        };
        Self {
            workload,
            seed,
            seconds,
            trace,
            scale: Scale {
                writers: WRITERS,
                air_s,
            },
            warmup_s: WARMUP_S,
            reps,
            setups: SETUPS,
            spans_dir: Some(PathBuf::from(".bench_out")),
        }
    }
}

/// The environment a result was measured in.
#[derive(Debug, Clone, PartialEq)]
pub struct Env {
    /// `available_parallelism`.
    pub nproc: usize,
    /// Reactor readiness backend.
    pub poller: &'static str,
    /// Vote-table precision.
    pub table_precision: &'static str,
    /// Service worker threads.
    pub workers: usize,
    /// Input seed.
    pub seed: u64,
}

impl Env {
    /// One-line JSON rendering.
    pub fn render(&self) -> String {
        format!(
            "{{\"nproc\": {}, \"poller\": \"{}\", \"table_precision\": \"{}\", \"workers\": {}, \
             \"seed\": {}, \"transport\": \"loopback\"}}",
            self.nproc, self.poller, self.table_precision, self.workers, self.seed
        )
    }
}

/// The checks one TCP run passed or failed, and what it measured.
#[derive(Debug, Clone, Default)]
pub struct Checked {
    /// Reads written to the gateway.
    pub reads_sent: u64,
    /// Reads acked as accepted.
    pub reads_accepted: u64,
    /// Reads acked as dropped or rejected.
    pub reads_lost: u64,
    /// Frames written.
    pub frames_sent: u64,
    /// Updates the oracle expects.
    pub expected: u64,
    /// Updates delivered bit-identical and in order.
    pub matched: u64,
    /// Expected updates that never arrived, arrived extra, or differ.
    pub bad_updates: u64,
    /// Error replies or undecodable frames.
    pub errors: u64,
    /// Read-to-update latency of every matched update past the warm-up
    /// (ms).
    pub latency_ms: Vec<f64>,
    /// The same, first update after each acquisition (ms).
    pub first_latency_ms: Vec<f64>,
    /// Distance to the truth of every matched update (cm).
    pub err_cm: Vec<f64>,
    /// Arrival of the last matched update.
    pub last_arrival: Option<Instant>,
}

impl Checked {
    /// Reads plus expected updates.
    pub fn attempted(&self) -> u64 {
        self.reads_sent + self.expected
    }

    /// Reads not acked as accepted, lost reads, bad updates and errors.
    pub fn failed(&self) -> u64 {
        self.reads_sent.saturating_sub(self.reads_accepted)
            + self.reads_lost
            + self.bad_updates
            + self.errors
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Compares every delivered update with the oracle, in order and bit for
/// bit, and measures latency from the due time of the frame that carried
/// the read completing each tick, for frames due `warmup_s` or more after
/// the run's first send.
pub fn check(run: &TcpRun, oracle: &Oracle, schedule: &Schedule, warmup_s: f64) -> Checked {
    let timed_from = run.first_send + Duration::from_secs_f64(warmup_s);
    let reads_per_pass: u64 = schedule.frames.iter().map(|f| f.len as u64).sum();
    let mut c = Checked {
        frames_sent: run.sent.len() as u64,
        reads_sent: reads_per_pass * run.passes as u64,
        errors: run.log.errors.len() as u64,
        ..Checked::default()
    };
    for a in &run.log.acks {
        c.reads_accepted += a.accepted;
        c.reads_lost += a.dropped + a.rejected;
    }
    let empty = Vec::new();
    for p in 0..run.passes {
        for (w, expected) in oracle.expected.iter().enumerate() {
            let got = run.log.updates.get(&epc_index(p, w)).unwrap_or(&empty);
            c.expected += expected.len() as u64;
            for (e, u) in expected.iter().zip(got) {
                let same = e.t.to_bits() == u.t.to_bits()
                    && e.x.to_bits() == u.x.to_bits()
                    && e.z.to_bits() == u.z.to_bits();
                if !same {
                    c.bad_updates += 1;
                    continue;
                }
                c.matched += 1;
                let seq = p as usize * run.frames_per_pass
                    + schedule.frame_of_read[w][e.read as usize] as usize;
                if run.due[seq] >= timed_from {
                    let lat = ms(u.at.saturating_duration_since(run.due[seq]));
                    c.latency_ms.push(lat);
                    if e.first {
                        c.first_latency_ms.push(lat);
                    }
                }
                c.err_cm.push(e.err_cm);
                c.last_arrival = Some(c.last_arrival.map_or(u.at, |l| l.max(u.at)));
            }
            c.bad_updates += expected.len().abs_diff(got.len()) as u64;
        }
    }
    c
}

/// Everything one invocation produced.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Every check passed.
    pub correct: bool,
    /// Reads sent plus updates expected, over every TCP run.
    pub attempted: u64,
    /// Failures among them (see [`Checked::failed`]).
    pub failed: u64,
    /// End-to-end metrics: medians over the untraced repetitions.
    pub end_to_end: Metrics,
    /// Per-layer metrics (traced runs only).
    pub per_layer: Metrics,
    /// Where it ran.
    pub env: Env,
    /// Human-readable lines (inputs and their digests, runs, self times,
    /// overhead).
    pub notes: Vec<String>,
}

/// The per-repetition end-to-end metrics: throughput and CPU cost.
/// Latency and accuracy are pooled over repetitions instead (see [`run`])
/// and `setup_s` is taken over all set-ups.
fn end_to_end(run: &TcpRun, c: &Checked) -> Metrics {
    let mut m = Metrics::default();
    let wall = c
        .last_arrival
        .map_or(0.0, |l| l.duration_since(run.first_send).as_secs_f64());
    m.put("positions_per_s", c.matched as f64 / wall, "1/s");
    m.put(
        "cpu_us_per_position",
        run.cpu.server_ms * 1e3 / c.matched as f64,
        "us",
    );
    m
}

/// Per-metric medians over repetitions (all share names and order).
fn median_of(reps: &[Metrics]) -> Metrics {
    let mut out = Metrics::default();
    for (i, (name, _, unit)) in reps[0].0.iter().enumerate() {
        let mut v: Vec<f64> = reps.iter().map(|m| m.0[i].1).collect();
        out.put(name, median(&mut v), unit);
    }
    out
}

fn pct(d: &[f64], q: f64) -> f64 {
    quantile(&mut d.to_vec(), q)
}

/// Per-layer metrics from the traced TCP run, the in-process replay and
/// the timed oracle.
fn per_layer(
    run: &TcpRun,
    c: &Checked,
    baseline: &rfidraw_serve::TelemetryReport,
    r: &Replay,
    profile: &PushProfile,
    gen_s: f64,
    notes: &mut Vec<String>,
) -> Metrics {
    let mut m = Metrics::default();
    let cpu: CpuDelta = run.cpu;
    let positions = c.matched as f64;
    let frames = c.frames_sent as f64;
    let reads = c.reads_sent as f64;
    let tel = run
        .log
        .telemetry
        .clone()
        .unwrap_or_else(|| baseline.clone());
    let net = |f: fn(&rfidraw_serve::NetTelemetry) -> u64| {
        f(&tel.net).saturating_sub(f(&baseline.net)) as f64
    };
    m.put("reactor.cpu_ms_per_s", cpu.reactor_ms / cpu.wall_s, "ms/s");
    m.put(
        "reactor.frames_out_per_position",
        net(|n| n.frames_out) / positions,
        "ratio",
    );
    m.put("reactor.wakeups", net(|n| n.wakeups), "count");
    m.put(
        "reactor.partial_resumes",
        net(|n| n.partial_frame_resumes),
        "count",
    );
    let rtt_us: Vec<f64> = run
        .log
        .acks
        .iter()
        .zip(&run.sent)
        .map(|(a, s)| a.at.saturating_duration_since(*s).as_secs_f64() * 1e6)
        .collect();
    m.put("net.ack_rtt_p50_us", pct(&rtt_us, 0.50), "us");
    m.put("net.ack_rtt_p99_us", pct(&rtt_us, 0.99), "us");
    let rf = r.frames as f64;
    m.put("frame.decode_ns_per_frame", r.frame_decode_ns / rf, "ns");
    m.put("wire3.decode_ns_per_frame", r.wire3_decode_ns / rf, "ns");
    m.put(
        "wire3.encode_ns_per_update",
        r.encode_ns / r.positions as f64,
        "ns",
    );
    m.put(
        "wire.validate_ns_per_read",
        r.validate_ns / r.reads as f64,
        "ns",
    );
    m.put("service.ingest_ns_per_frame", r.ingest_ns / rf, "ns");
    m.put("worker.cpu_ms_per_s", cpu.worker_ms / cpu.wall_s, "ms/s");
    let pump_ns_per_position = r.pump_ns / r.positions as f64;
    let pump_ms_scaled = pump_ns_per_position * positions / 1e6;
    m.put(
        "worker.overhead_share",
        1.0 - pump_ms_scaled / cpu.worker_ms,
        "ratio",
    );
    let (drained, visits) = tel.shards.iter().fold((0u64, 0u64), |(d, v), s| {
        (d + s.reads_drained, v + s.drain_visits)
    });
    m.put(
        "shard.reads_per_visit",
        drained as f64 / visits.max(1) as f64,
        "reads",
    );
    m.put(
        "session.queue_wait_p50_us",
        tel.queue_wait.p50_us().unwrap_or(f64::NAN),
        "us",
    );
    m.put(
        "session.queue_wait_p99_us",
        tel.queue_wait.p99_us().unwrap_or(f64::NAN),
        "us",
    );
    m.put(
        "service.compute_p99_us",
        tel.compute.p99_us().unwrap_or(f64::NAN),
        "us",
    );
    m.put("session.parked_reads", tel.parked_reads as f64, "count");
    m.put(
        "service.pump_us_per_position",
        pump_ns_per_position / 1e3,
        "us",
    );
    m.put(
        "online.tick_us_p50",
        pct(&profile.tick_ns, 0.50) / 1e3,
        "us",
    );
    m.put(
        "online.tick_us_p99",
        pct(&profile.tick_ns, 0.99) / 1e3,
        "us",
    );
    m.put(
        "online.acquire_us_p50",
        pct(&profile.acquire_ns, 0.50) / 1e3,
        "us",
    );
    m.put(
        "online.acquire_us_p99",
        pct(&profile.acquire_ns, 0.99) / 1e3,
        "us",
    );
    let acquire_total: f64 = profile.acquire_ns.iter().sum();
    m.put(
        "online.acquire_share",
        acquire_total / profile.total_ns(),
        "ratio",
    );
    m.put("online.buffer_ns_per_read", mean(&profile.buffer_ns), "ns");
    m.put("cache.hits", tel.table_cache_hits as f64, "count");
    m.put("cache.misses", tel.table_cache_misses as f64, "count");
    m.put("cache.bytes", tel.table_cache_bytes as f64, "bytes");
    let late_ms: Vec<f64> = run
        .sent
        .iter()
        .zip(&run.due)
        .map(|(s, d)| ms(s.saturating_duration_since(*d)))
        .collect();
    m.put("gen.late_p99_ms", pct(&late_ms, 0.99), "ms");
    m.put("gen.inputs_s", gen_s, "s");
    // What the traced layers account for, scaled from the replay's
    // per-call cost to the TCP run's call counts.
    let layers_ns = [
        ("frame.decode", r.frame_decode_ns / rf * frames),
        ("wire3.decode", r.wire3_decode_ns / rf * frames),
        ("wire.validate", r.validate_ns / r.reads as f64 * reads),
        ("service.ingest", r.ingest_ns / rf * frames),
        ("service.pump", pump_ns_per_position * positions),
        ("wire3.encode", r.encode_ns / r.positions as f64 * positions),
    ];
    let attributed_ms: f64 = layers_ns.iter().map(|l| l.1 / 1e6).sum();
    m.put(
        "unattributed_share",
        1.0 - attributed_ms / cpu.server_ms,
        "ratio",
    );
    // The latency tails, too noisy on a small shared machine to carry a
    // bound, are reported here from the traced repetition.
    m.put("update_p90_ms", pct(&c.latency_ms, 0.90), "ms");
    m.put("update_p99_ms", pct(&c.latency_ms, 0.99), "ms");
    m.put("first_update_p90_ms", pct(&c.first_latency_ms, 0.90), "ms");
    m.put("first_update_p99_ms", pct(&c.first_latency_ms, 0.99), "ms");
    for (name, ns) in layers_ns {
        notes.push(format!(
            "layer_share layer={name} ms={:.1} share_of_server_cpu={:.4}",
            ns / 1e6,
            ns / 1e6 / cpu.server_ms
        ));
    }
    m
}

/// Client-side spans of a TCP run: each write, each frame's ack wait, and
/// each matched update's read-to-update interval.
fn tcp_spans(run: &TcpRun, oracle: &Oracle, schedule: &Schedule, spans: &mut SpanLog) {
    let writer_of = |seq: usize| schedule.frames[seq % run.frames_per_pass].writer as usize;
    let epc_of_seq = |seq: usize| epc_index((seq / run.frames_per_pass) as u32, writer_of(seq));
    for &(first, start, end) in &run.writes {
        spans.record(
            "client.frame_write",
            start,
            end,
            ROOT,
            epc_of_seq(first as usize),
            first,
        );
    }
    for (seq, (a, s)) in run.log.acks.iter().zip(&run.sent).enumerate() {
        spans.record(
            "client.ack_wait",
            *s,
            a.at,
            ROOT,
            epc_of_seq(seq),
            seq as u32,
        );
    }
    for p in 0..run.passes {
        for (w, expected) in oracle.expected.iter().enumerate() {
            let epc = epc_index(p, w);
            let Some(got) = run.log.updates.get(&epc) else {
                continue;
            };
            for (e, u) in expected.iter().zip(got) {
                let seq = p as usize * run.frames_per_pass
                    + schedule.frame_of_read[w][e.read as usize] as usize;
                spans.record("client.update", run.due[seq], u.at, ROOT, epc, seq as u32);
            }
        }
    }
}

/// Per-second server CPU of a traced run, from its `/proc` snapshots.
fn cpu_timeline(run: &TcpRun, client: &[u32]) -> String {
    let per_s: Vec<String> = run
        .snaps
        .windows(2)
        .map(|w| {
            let d = CpuDelta::between(&w[0], &w[1], client);
            format!(
                "{:.0}/{:.0}",
                d.reactor_ms / d.wall_s,
                d.worker_ms / d.wall_s
            )
        })
        .collect();
    format!("cpu_timeline reactor/worker_ms_per_s=[{}]", per_s.join(" "))
}

fn summary(label: &str, run: &TcpRun, c: &Checked) -> String {
    format!(
        "run {label}: passes={} frames={} reads={} accepted={} lost={} expected={} matched={} \
         bad={} errors={} complete={} wall_s={:.2} server_cpu_ms={:.0} reactor_cpu_ms={:.0}",
        run.passes,
        c.frames_sent,
        c.reads_sent,
        c.reads_accepted,
        c.reads_lost,
        c.expected,
        c.matched,
        c.bad_updates,
        c.errors,
        run.complete,
        run.cpu.wall_s,
        run.cpu.server_ms,
        run.cpu.reactor_ms,
    )
}

/// The input seed of repetition `rep` (every repetition writes different
/// words, so accuracy rests on more distinct input than one repetition).
pub fn rep_seed(seed: u64, rep: usize) -> u64 {
    seed.wrapping_mul(0x100).wrapping_add(rep as u64)
}

/// One repetition's inputs, expectations and frames.
struct Prepared {
    inputs: Inputs,
    oracle: Oracle,
    schedule: Schedule,
}

/// Generates repetition `rep`'s inputs and oracle; with `spans`, the
/// oracle is timed (the tracker-layer profile).
fn prepare(
    o: &Options,
    rep: usize,
    spans: Option<&mut SpanLog>,
    notes: &mut Vec<String>,
) -> (Prepared, Option<PushProfile>, f64) {
    let t = Instant::now();
    let inputs = Inputs::generate(o.workload, o.scale, rep_seed(o.seed, rep), PREP_THREADS);
    let gen_s = t.elapsed().as_secs_f64();
    let template = tcp::serve_config(1).tracker;
    let t = Instant::now();
    let (oracle, profile) = match spans {
        Some(spans) => {
            let (oracle, profile) = Oracle::run_timed(&template, &inputs, spans);
            (oracle, Some(profile))
        }
        None => (Oracle::run(&template, &inputs, PREP_THREADS), None),
    };
    let oracle_s = t.elapsed().as_secs_f64();
    let schedule = Schedule::build(&inputs);
    notes.push(format!(
        "inputs workload={} rep={rep} writers={} air_s={} reads={} frames_per_pass={} \
         expected_per_pass={} digest={:016x} gen_s={gen_s:.2} oracle_s={oracle_s:.2}",
        o.workload.name(),
        inputs.writers.len(),
        inputs.air_s,
        inputs.total_reads(),
        schedule.frames.len(),
        oracle.per_pass(),
        inputs.digest(),
    ));
    (
        Prepared {
            inputs,
            oracle,
            schedule,
        },
        profile,
        gen_s,
    )
}

/// Runs one invocation.
pub fn run(o: &Options) -> io::Result<Outcome> {
    let mut spans = SpanLog::new(Instant::now());
    let mut notes = Vec::new();
    let reps = o.reps.max(1);
    let mut prepared = Vec::with_capacity(reps);
    let mut profile = None;
    let mut gen_s = 0.0;
    for rep in 0..reps {
        let timed = (o.trace && rep == 0).then_some(&mut spans);
        let (p, prof, g) = prepare(o, rep, timed, &mut notes);
        prepared.push(p);
        profile = profile.or(prof);
        gen_s += g;
    }
    let writers = prepared[0].inputs.writers.len();
    let sessions = match o.workload {
        // Every closed-loop pass subscribes a fresh set of EPCs.
        Workload::Bulk => writers * (tcp::MAX_PASSES as usize + 1),
        Workload::Live | Workload::Taps => writers,
    };
    let pacing = if o.workload.open_loop() {
        Pacing::OpenLoop
    } else {
        Pacing::ClosedLoop {
            seconds: o.seconds / reps as f64 + o.warmup_s,
        }
    };
    let mut setup_times = Vec::new();
    for _ in reps..o.setups {
        setup_times.push(tcp::setup(writers, sessions)?.setup_s);
    }
    let mut env = None;
    let mut per_rep = Vec::with_capacity(reps);
    let mut all_checked = Vec::new();
    let (mut attempted, mut failed, mut complete) = (0u64, 0u64, true);
    for (rep, p) in prepared.iter_mut().enumerate() {
        let served = tcp::setup(writers, sessions)?;
        setup_times.push(served.setup_s);
        env.get_or_insert(Env {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            poller: served.backend,
            table_precision: served.precision,
            workers: served.workers,
            seed: o.seed,
        });
        let run = tcp::run(served, &mut p.schedule, &p.oracle, pacing, false)?;
        let checked = check(&run, &p.oracle, &p.schedule, o.warmup_s);
        notes.push(summary(&format!("rep {rep}"), &run, &checked));
        attempted += checked.attempted();
        failed += checked.failed();
        complete &= run.complete;
        per_rep.push(end_to_end(&run, &checked));
        all_checked.push(checked);
    }
    let env = env.expect("at least one repetition");
    // Latency quantiles are taken over the updates of every repetition
    // pooled: a median of two or three per-repetition quantiles moved
    // about half as much again between runs. Acquisitions are few per
    // repetition (one per writer visit), and accuracy also gains from
    // pooling (each repetition writes different words).
    let pooled = |f: fn(&Checked) -> &Vec<f64>| -> Vec<f64> {
        all_checked
            .iter()
            .flat_map(|c| f(c).iter().copied())
            .collect()
    };
    let first = pooled(|c| &c.first_latency_ms);
    let all = pooled(|c| &c.latency_ms);
    let mut e2e = Metrics::default();
    e2e.put("update_p50_ms", pct(&all, 0.50), "ms");
    e2e.put("update_p75_ms", pct(&all, 0.75), "ms");
    e2e.put("first_update_p50_ms", pct(&first, 0.50), "ms");
    e2e.0.extend(median_of(&per_rep).0);
    e2e.put("track_err_p50_cm", pct(&pooled(|c| &c.err_cm), 0.50), "cm");
    e2e.put("setup_s", median(&mut setup_times.clone()), "s");
    notes.push(format!("setup_s samples={setup_times:?}"));
    notes.push(format!(
        "samples updates={} first_updates={} update_p90_ms={:.4} update_p99_ms={:.4} \
         first_update_p90_ms={:.4} first_update_p99_ms={:.4}",
        all.len(),
        first.len(),
        pct(&all, 0.90),
        pct(&all, 0.99),
        pct(&first, 0.90),
        pct(&first, 0.99)
    ));

    let mut layers = Metrics::default();
    if o.trace {
        let Prepared {
            inputs,
            oracle,
            schedule,
        } = &mut prepared[0];
        let served = tcp::setup(writers, sessions)?;
        let baseline = served.baseline.clone();
        let traced = tcp::run(served, schedule, oracle, pacing, true)?;
        let (inputs, oracle, schedule) = (&*inputs, &*oracle, &*schedule);
        let tc = check(&traced, oracle, schedule, o.warmup_s);
        notes.push(summary("traced", &traced, &tc));
        notes.push(cpu_timeline(&traced, &traced.client_tids));
        attempted += tc.attempted();
        failed += tc.failed();
        complete &= traced.complete;
        tcp_spans(&traced, oracle, schedule, &mut spans);
        let replayed = replay(inputs, schedule, oracle, &mut spans);
        failed += replayed.mismatches;
        let profile = profile.expect("traced runs time the oracle");
        layers = per_layer(
            &traced, &tc, &baseline, &replayed, &profile, gen_s, &mut notes,
        );
        // Tracing overhead: the traced repetition against the untraced
        // median.
        let mut traced_e2e = end_to_end(&traced, &tc);
        traced_e2e.put("update_p50_ms", pct(&tc.latency_ms, 0.50), "ms");
        for name in ["cpu_us_per_position", "update_p50_ms", "positions_per_s"] {
            let (a, b) = (
                e2e.get(name).unwrap_or(f64::NAN),
                traced_e2e.get(name).unwrap_or(f64::NAN),
            );
            notes.push(format!(
                "trace_overhead metric={name} untraced={a:.4} traced={b:.4} delta={:+.4} ({:+.2}%)",
                b - a,
                (b - a) / a * 100.0
            ));
        }
        for (name, st) in spans.self_times() {
            notes.push(format!(
                "self_time workload={} layer={name} spans={} total_ms={:.3} self_ms={:.3}",
                o.workload.name(),
                st.count,
                st.total_ns as f64 / 1e6,
                st.self_ns as f64 / 1e6
            ));
        }
        if let Some(dir) = &o.spans_dir {
            let path = dir.join(format!("spans-{}.csv", o.workload.name()));
            spans.write_csv(
                &path,
                &format!("workload={} env={}", o.workload.name(), env.render()),
            )?;
            notes.push(format!(
                "spans written={} path={}",
                spans.spans().len(),
                path.display()
            ));
        }
    }
    Ok(Outcome {
        correct: failed == 0 && complete,
        attempted,
        failed,
        end_to_end: e2e,
        per_layer: layers,
        env,
        notes,
    })
}
