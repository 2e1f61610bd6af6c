//! The serving stack on loopback, and the load generator that drives it.
//!
//! The server is `TrackingService` (`ServeConfig::new` defaults, only
//! `max_sessions` raised) behind one `ReactorServer` on 127.0.0.1. The
//! load generator uses two connections and two threads: the calling
//! thread writes ingest frames (wire v3) on the *gateway* connection, and
//! one receiver thread waits on both connections with the repository's
//! own poller, timestamping every `IngestAck` on the gateway and every
//! `PositionUpdate` on the *subscriber* connection.
//!
//! In open-loop runs both threads wait by spinning, yielding the CPU at
//! every turn, instead of sleeping. The server then leaves a CPU idle
//! only to a yielding client thread, never to a halted virtual CPU: on a
//! 2-vCPU virtual machine, runs with sleeping clients had a p50 update
//! latency of 0.7 ms in some runs and 2.7 ms in others at the same or
//! lower CPU cost per update, as the host's cost of waking an idle vCPU
//! varied.

use crate::gen::{epc_index, epc_of, slot_of, Inputs};
use crate::oracle::Oracle;
use crate::proc::{thread_id, CpuDelta, CpuSnap};
use rfidraw_core::exec::Parallelism;
use rfidraw_net::{FrameDecoder, Interest, Poller, PollerKind, RawFrame, WireMode};
use rfidraw_protocol::Epc;
use rfidraw_serve::wire::{IngestBatch, Message, Subscribe, TraceQuery};
use rfidraw_serve::{
    wire3, ReactorServer, ServeConfig, TelemetryReport, TrackerTemplate, TrackingService,
};
use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::Thread;
use std::time::{Duration, Instant};

/// Frames a closed-loop sender keeps in flight (incomplete, see
/// [`Completion`]).
pub const WINDOW: u64 = 16;

/// Most closed-loop passes per run (each subscribes fresh EPCs, so this
/// also bounds the sessions a run creates).
pub const MAX_PASSES: u32 = 64;

/// How long the sender waits for the server before it gives up and
/// reports the run incomplete.
const STALL: Duration = Duration::from_secs(30);

/// Token (and stream index) of the gateway connection; the subscriber
/// is the other one.
const GATEWAY: usize = 0;

/// Parks until `done` holds; `false` if it still fails after [`STALL`].
fn wait_for(done: impl Fn() -> bool) -> bool {
    let give_up = Instant::now() + STALL;
    while !done() {
        if Instant::now() >= give_up {
            return false;
        }
        std::thread::park_timeout(Duration::from_millis(1));
    }
    true
}

/// Byte offset of the EPC's 4-byte index inside an encoded ingest frame
/// (frame header, then the EPC, whose last four bytes hold the index).
const EPC_INDEX_AT: usize = rfidraw_net::HEADER_LEN + 8;

/// One wire frame of a schedule: a run of one writer's reads.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FrameRef {
    /// Writer index.
    pub writer: u32,
    /// First read (index into the writer's stream).
    pub first: u32,
    /// Reads carried.
    pub len: u32,
    /// Air time of the frame's last read (s): when an open-loop sender
    /// must put it on the wire.
    pub due_s: f64,
}

/// Every frame of one replay pass, encoded back to back.
#[derive(Debug, Clone)]
pub struct Schedule {
    /// Frames in send order.
    pub frames: Vec<FrameRef>,
    /// The encoded frames, back to back.
    pub bytes: Vec<u8>,
    /// Start of frame `k` in `bytes` is `offsets[k]`; one extra end entry.
    pub offsets: Vec<usize>,
    /// Per writer, per read: the frame that carries it.
    pub frame_of_read: Vec<Vec<u32>>,
}

impl Schedule {
    /// Cuts the inputs into frames of `reads_per_frame` reads of one
    /// writer each, in the order a gateway completes them: reads are
    /// merged by air time (ties by writer), and a frame is due when its
    /// last read arrives. Partial frames are flushed at the end.
    pub fn build(inputs: &Inputs) -> Self {
        let rpf = inputs.workload.reads_per_frame() as u32;
        let mut order: Vec<(f64, u32, u32)> = Vec::with_capacity(inputs.total_reads());
        for (w, writer) in inputs.writers.iter().enumerate() {
            for (i, r) in writer.reads.iter().enumerate() {
                order.push((r.t, w as u32, i as u32));
            }
        }
        order.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        let mut frames = Vec::new();
        let mut pending: Vec<(u32, u32, f64)> = vec![(0, 0, 0.0); inputs.writers.len()];
        for &(t, w, i) in &order {
            let p = &mut pending[w as usize];
            if p.1 == 0 {
                p.0 = i;
            }
            p.1 += 1;
            p.2 = t;
            if p.1 == rpf {
                frames.push(FrameRef {
                    writer: w,
                    first: p.0,
                    len: p.1,
                    due_s: t,
                });
                p.1 = 0;
            }
        }
        for (w, p) in pending.iter().enumerate() {
            if p.1 > 0 {
                frames.push(FrameRef {
                    writer: w as u32,
                    first: p.0,
                    len: p.1,
                    due_s: p.2,
                });
            }
        }
        let mut bytes = Vec::new();
        let mut offsets = Vec::with_capacity(frames.len() + 1);
        let mut frame_of_read: Vec<Vec<u32>> = inputs
            .writers
            .iter()
            .map(|w| vec![0; w.reads.len()])
            .collect();
        for (k, f) in frames.iter().enumerate() {
            offsets.push(bytes.len());
            let range = f.first as usize..(f.first + f.len) as usize;
            bytes.extend(wire3::encode_frame(&Message::Ingest(IngestBatch {
                epc: epc_of(0, f.writer as usize),
                reads: inputs.writers[f.writer as usize].reads[range.clone()].to_vec(),
            })));
            for slot in &mut frame_of_read[f.writer as usize][range] {
                *slot = k as u32;
            }
        }
        offsets.push(bytes.len());
        Self {
            frames,
            bytes,
            offsets,
            frame_of_read,
        }
    }

    /// The bytes of frame `k`.
    pub fn frame_bytes(&self, k: usize) -> &[u8] {
        &self.bytes[self.offsets[k]..self.offsets[k + 1]]
    }

    /// Rewrites every frame's EPC to the one its writer uses in `pass`.
    fn retarget(&mut self, pass: u32) {
        for (k, f) in self.frames.iter().enumerate() {
            let at = self.offsets[k] + EPC_INDEX_AT;
            let index = epc_index(pass, f.writer as usize);
            self.bytes[at..at + 4].copy_from_slice(&index.to_be_bytes());
        }
    }
}

/// The service configuration every run uses: `ServeConfig::new` over the
/// paper template for the benchmark region, only `max_sessions` raised.
pub fn serve_config(max_sessions: usize) -> ServeConfig {
    let mut cfg = ServeConfig::new(TrackerTemplate::paper_default(crate::gen::region()));
    cfg.max_sessions = max_sessions;
    cfg
}

/// A started server with both client connections open and every
/// first-pass session subscribed.
pub struct Served {
    // Field order is drop order: the reactor stops before the service.
    reactor: ReactorServer,
    _service: TrackingService,
    gateway: TcpStream,
    subscriber: TcpStream,
    /// Telemetry returned by the set-up round trip.
    pub baseline: TelemetryReport,
    /// `TrackingService::start` until that round trip returned (s).
    pub setup_s: f64,
    /// The reactor's readiness backend.
    pub backend: &'static str,
    /// Worker threads the service started.
    pub workers: usize,
    /// Vote-table precision of every session.
    pub precision: &'static str,
}

/// Encodes one message per EPC plus a trailing request.
fn subscribe_bytes(epcs: impl Iterator<Item = Epc>, then: &Message) -> Vec<u8> {
    let mut out = Vec::new();
    for epc in epcs {
        out.extend(wire3::encode_frame(&Message::Subscribe(Subscribe { epc })));
    }
    out.extend(wire3::encode_frame(then));
    out
}

fn binary_decoder() -> FrameDecoder {
    FrameDecoder::with_mode(WireMode::Binary, rfidraw_net::DEFAULT_MAX_PAYLOAD)
}

fn decode(frame: RawFrame) -> io::Result<Message> {
    match frame {
        RawFrame::Binary(bin) => wire3::decode_frame(&bin)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string())),
        RawFrame::Json(line) => Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("unexpected JSON frame on a binary connection: {line}"),
        )),
    }
}

fn frame_err(e: rfidraw_net::FrameError) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, e.to_string())
}

/// Starts the service and reactor, connects both client connections,
/// subscribes every EPC of `writers` in pass 0, and waits for a telemetry
/// round trip sent after the last `Subscribe`, so every session and the
/// shared vote tables exist. The whole sequence is timed as `setup_s`.
pub fn setup(writers: usize, max_sessions: usize) -> io::Result<Served> {
    let started = Instant::now();
    let cfg = serve_config(max_sessions);
    let reactor_cfg = cfg.net.reactor.clone();
    let workers = cfg.workers.map_or(0, Parallelism::thread_count);
    let precision = cfg.table_precision().label();
    let service = TrackingService::start(cfg);
    let reactor = ReactorServer::bind("127.0.0.1:0", service.client(), reactor_cfg)?;
    let backend = reactor.backend_name();
    let gateway = TcpStream::connect(reactor.local_addr())?;
    let mut subscriber = TcpStream::connect(reactor.local_addr())?;
    gateway.set_nodelay(true)?;
    subscriber.set_nodelay(true)?;
    let subs = subscribe_bytes(
        (0..writers).map(|w| epc_of(0, w)),
        &Message::TelemetryRequest,
    );
    subscriber.write_all(&subs)?;
    let mut dec = binary_decoder();
    let mut buf = vec![0u8; 64 * 1024];
    let baseline = loop {
        match dec.next().map_err(frame_err)? {
            Some(frame) => match decode(frame)? {
                Message::Telemetry(report) => break report,
                other => {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("unexpected reply during set-up: {other:?}"),
                    ))
                }
            },
            None => {
                let n = subscriber.read(&mut buf)?;
                if n == 0 {
                    return Err(io::ErrorKind::UnexpectedEof.into());
                }
                dec.feed(&buf[..n]);
            }
        }
    };
    let setup_s = started.elapsed().as_secs_f64();
    Ok(Served {
        reactor,
        _service: service,
        gateway,
        subscriber,
        baseline,
        setup_s,
        backend,
        workers,
        precision,
    })
}

/// One ingest ack as the client saw it.
#[derive(Debug, Clone, Copy)]
pub struct Ack {
    /// Arrival.
    pub at: Instant,
    /// Reads accepted.
    pub accepted: u64,
    /// Reads evicted to make room.
    pub dropped: u64,
    /// Reads refused.
    pub rejected: u64,
}

/// One position update as the client saw it.
#[derive(Debug, Clone, Copy)]
pub struct Update {
    /// Tick time (s).
    pub t: f64,
    /// Estimate (m).
    pub x: f64,
    /// Estimate (m).
    pub z: f64,
    /// Arrival.
    pub at: Instant,
}

/// Everything the receiver thread saw.
#[derive(Debug, Default)]
pub struct RecvLog {
    /// Gateway acks, in order (ack `k` answers frame `k`).
    pub acks: Vec<Ack>,
    /// Updates per EPC index, in arrival order.
    pub updates: HashMap<u32, Vec<Update>>,
    /// The final telemetry report.
    pub telemetry: Option<TelemetryReport>,
    /// Error replies and undecodable frames.
    pub errors: Vec<String>,
    /// `SessionClosed` notices.
    pub closed: u64,
}

/// When a closed-loop frame is complete: it is acked and every update
/// whose tick one of its reads completes has arrived. A client that waits
/// for its results, not for admission: with `Block` admission an ack only
/// means the read was queued, so an ack window would bound nothing but
/// the session queues.
struct Completion {
    /// Per frame of a pass: the updates it completes.
    need: Vec<u32>,
    /// Per writer, per expected update: the frame (within a pass) that
    /// carries its completing read.
    frame_of_update: Vec<Vec<u32>>,
    /// Per frame sent (pass-major): updates received so far.
    got: Vec<u32>,
}

impl Completion {
    fn new(oracle: &Oracle, schedule: &Schedule) -> Self {
        let frame_of_update: Vec<Vec<u32>> = oracle
            .expected
            .iter()
            .enumerate()
            .map(|(w, exp)| {
                exp.iter()
                    .map(|e| schedule.frame_of_read[w][e.read as usize])
                    .collect()
            })
            .collect();
        let mut need = vec![0u32; schedule.frames.len()];
        for &f in frame_of_update.iter().flatten() {
            need[f as usize] += 1;
        }
        Self {
            need,
            frame_of_update,
            got: Vec::new(),
        }
    }

    fn got(&mut self, seq: usize) -> &mut u32 {
        if self.got.len() <= seq {
            self.got.resize(seq + 1, 0);
        }
        &mut self.got[seq]
    }

    /// Frame `seq` was acked (acks arrive in frame order); whether that
    /// completed it.
    fn on_ack(&mut self, seq: usize) -> bool {
        let need = self.need[seq % self.need.len()];
        *self.got(seq) == need
    }

    /// The `k`-th update of `epc_index` arrived, `acks` frames are acked;
    /// whether that completed its frame.
    fn on_update(&mut self, epc_index: u32, k: usize, acks: usize) -> bool {
        let (pass, w) = slot_of(epc_index);
        let Some(&f) = self.frame_of_update.get(w).and_then(|v| v.get(k)) else {
            return false;
        };
        let seq = pass as usize * self.need.len() + f as usize;
        let got = self.got(seq);
        *got += 1;
        *got == self.need[f as usize] && seq < acks
    }
}

struct Shared {
    acked: AtomicU64,
    /// Closed-loop frames completed (see [`Completion`]).
    completed: AtomicU64,
    updates: AtomicU64,
    barriers: AtomicU64,
    reports: AtomicU64,
    stop: AtomicBool,
    receiver_tid: AtomicU32,
    sender: Thread,
}

fn receive(
    streams: [TcpStream; 2],
    shared: &Shared,
    mut completion: Option<Completion>,
    spin: bool,
) -> io::Result<RecvLog> {
    shared.receiver_tid.store(thread_id(), Ordering::SeqCst);
    let mut streams = streams;
    let mut poller = Poller::new(PollerKind::Auto)?;
    for (token, s) in streams.iter().enumerate() {
        poller.register(s.as_raw_fd(), token as u64, Interest::READ)?;
    }
    let mut decoders = [binary_decoder(), binary_decoder()];
    let mut buf = vec![0u8; 256 * 1024];
    let mut events = Vec::new();
    let mut log = RecvLog::default();
    while !shared.stop.load(Ordering::SeqCst) {
        poller.wait(&mut events, if spin { 0 } else { 20 })?;
        if spin && events.is_empty() {
            std::thread::yield_now();
            continue;
        }
        let mut acked = 0u64;
        let mut completed = 0u64;
        let mut updates = 0u64;
        for ev in &events {
            let k = ev.token as usize;
            // Level-triggered readiness: one read per report never blocks,
            // and whatever is left is reported again on the next wait.
            let n = streams[k].read(&mut buf)?;
            if n == 0 {
                return Ok(log);
            }
            let at = Instant::now();
            decoders[k].feed(&buf[..n]);
            while let Some(frame) = decoders[k].next().map_err(frame_err)? {
                match decode(frame) {
                    Ok(Message::IngestAck(a)) => {
                        if let Some(c) = completion.as_mut() {
                            completed += c.on_ack(log.acks.len()) as u64;
                        }
                        log.acks.push(Ack {
                            at,
                            accepted: a.accepted,
                            dropped: a.dropped,
                            rejected: a.rejected,
                        });
                        acked += 1;
                    }
                    Ok(Message::PositionUpdate(p)) => {
                        let index = u32::from_be_bytes(p.epc.0[8..12].try_into().expect("4 bytes"));
                        let stream = log.updates.entry(index).or_default();
                        if let Some(c) = completion.as_mut() {
                            completed += c.on_update(index, stream.len(), log.acks.len()) as u64;
                        }
                        stream.push(Update {
                            t: p.t,
                            x: p.x,
                            z: p.z,
                            at,
                        });
                        updates += 1;
                    }
                    Ok(Message::Telemetry(report)) => {
                        log.telemetry = Some(report);
                        shared.reports.fetch_add(1, Ordering::SeqCst);
                    }
                    // The pass barrier: a trace query answered in order
                    // after a pass's subscriptions (without a recorder the
                    // answer is an "unsupported" refusal).
                    Ok(Message::TraceDump(_)) => {
                        shared.barriers.fetch_add(1, Ordering::SeqCst);
                    }
                    // A refused ingest answers its frame in place of the
                    // ack: nothing was accepted.
                    Ok(Message::Error(e)) if k == GATEWAY => {
                        log.errors
                            .push(format!("ingest refused: {}: {}", e.code, e.message));
                        log.acks.push(Ack {
                            at,
                            accepted: 0,
                            dropped: 0,
                            rejected: 0,
                        });
                        acked += 1;
                        // Its updates will never come; do not stall on it.
                        completed += completion.is_some() as u64;
                    }
                    Ok(Message::Error(e)) if e.code == "unsupported" => {
                        shared.barriers.fetch_add(1, Ordering::SeqCst);
                    }
                    Ok(Message::SessionClosed(_)) => log.closed += 1,
                    Ok(other) => log.errors.push(format!("{other:?}")),
                    Err(e) => log.errors.push(e.to_string()),
                }
            }
        }
        if completed > 0 {
            shared.completed.fetch_add(completed, Ordering::SeqCst);
        }
        if acked > 0 || completed > 0 {
            shared.acked.fetch_add(acked, Ordering::SeqCst);
            shared.sender.unpark();
        }
        if updates > 0 {
            shared.updates.fetch_add(updates, Ordering::SeqCst);
        }
    }
    Ok(log)
}

/// What one TCP run produced.
#[derive(Debug)]
pub struct TcpRun {
    /// When the first frame was written.
    pub first_send: Instant,
    /// Per frame sent (pass-major): when it was due (open loop: its air
    /// time on the run's clock; closed loop: when the sender reached it,
    /// before waiting for the window).
    pub due: Vec<Instant>,
    /// Per frame sent: when the write that carried it began.
    pub sent: Vec<Instant>,
    /// Writes issued: (first frame carried, start, end).
    pub writes: Vec<(u32, Instant, Instant)>,
    /// Replay passes sent.
    pub passes: u32,
    /// Frames per pass.
    pub frames_per_pass: usize,
    /// What the receiver saw.
    pub log: RecvLog,
    /// CPU from the first send until the last expected update arrived.
    pub cpu: CpuDelta,
    /// Per-second CPU snapshots (traced runs only), ending with the
    /// snapshot `cpu` ends at.
    pub snaps: Vec<CpuSnap>,
    /// The load generator's thread ids (excluded from server CPU).
    pub client_tids: [u32; 2],
    /// Whether every ack and expected update arrived before the timeout.
    pub complete: bool,
}

/// How the sender paces frames.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Pacing {
    /// Each frame at its air time, one pass.
    OpenLoop,
    /// At most [`WINDOW`] frames incomplete (see [`Completion`]); passes
    /// under fresh EPCs until `seconds` have passed.
    ClosedLoop {
        /// Run length (s); the pass in flight when it ends completes.
        seconds: f64,
    },
}

/// Drives one run against `served`: sends the schedule, waits for every
/// ack and every update the oracle expects (or a timeout), then fetches
/// the final telemetry and shuts everything down.
pub fn run(
    served: Served,
    schedule: &mut Schedule,
    oracle: &Oracle,
    pacing: Pacing,
    traced: bool,
) -> io::Result<TcpRun> {
    let writers = oracle.expected.len();
    let expected_per_pass = oracle.per_pass();
    let completion = match pacing {
        Pacing::OpenLoop => None,
        Pacing::ClosedLoop { .. } => Some(Completion::new(oracle, schedule)),
    };
    let spin = pacing == Pacing::OpenLoop;
    let shared = Arc::new(Shared {
        acked: AtomicU64::new(0),
        completed: AtomicU64::new(0),
        updates: AtomicU64::new(0),
        barriers: AtomicU64::new(0),
        reports: AtomicU64::new(0),
        stop: AtomicBool::new(false),
        receiver_tid: AtomicU32::new(0),
        sender: std::thread::current(),
    });
    let Served {
        reactor,
        _service,
        gateway,
        subscriber,
        ..
    } = served;
    let streams = [gateway.try_clone()?, subscriber.try_clone()?];
    let mut gateway = gateway;
    let mut subscriber = subscriber;
    let receiver = {
        let shared = Arc::clone(&shared);
        std::thread::Builder::new()
            .name("perfbench-recv".to_string())
            .spawn(move || receive(streams, &shared, completion, spin))?
    };
    while shared.receiver_tid.load(Ordering::SeqCst) == 0 {
        std::thread::yield_now();
    }
    let client_tids = [thread_id(), shared.receiver_tid.load(Ordering::SeqCst)];
    let n = schedule.frames.len();
    let mut due = Vec::with_capacity(n);
    let mut sent = Vec::with_capacity(n);
    let mut writes = Vec::new();
    let mut snaps = Vec::new();
    let cpu_start = CpuSnap::take();
    let mut next_snap = cpu_start.at + Duration::from_secs(1);
    let mut take_snap = |now: Instant, snaps: &mut Vec<CpuSnap>| {
        if traced && now >= next_snap {
            snaps.push(CpuSnap::take());
            next_snap = now + Duration::from_secs(1);
        }
    };
    let first_send;
    let mut passes = 0u32;
    let mut stalled = false;
    match pacing {
        Pacing::OpenLoop => {
            let start = Instant::now() + Duration::from_millis(2);
            first_send = start;
            let mut i = 0;
            while i < n {
                let now = Instant::now();
                let at = start + Duration::from_secs_f64(schedule.frames[i].due_s);
                if now < at {
                    std::thread::yield_now();
                    continue;
                }
                let mut j = i;
                while j < n && start + Duration::from_secs_f64(schedule.frames[j].due_s) <= now {
                    due.push(start + Duration::from_secs_f64(schedule.frames[j].due_s));
                    sent.push(now);
                    j += 1;
                }
                gateway.write_all(&schedule.bytes[schedule.offsets[i]..schedule.offsets[j]])?;
                writes.push((i as u32, now, Instant::now()));
                i = j;
                take_snap(now, &mut snaps);
            }
            passes = 1;
        }
        Pacing::ClosedLoop { seconds } => {
            first_send = Instant::now();
            let deadline = first_send + Duration::from_secs_f64(seconds);
            let mut seq = 0u64;
            'passes: while passes < MAX_PASSES {
                if passes > 0 && Instant::now() >= deadline {
                    break;
                }
                // Subscribe the next pass's EPCs a whole pass ahead; the
                // trailing query's answer proves they are in place.
                let next = subscribe_bytes(
                    (0..writers).map(|w| epc_of(passes + 1, w)),
                    &Message::TraceQuery(TraceQuery {
                        max_dumps: 1,
                        clear: false,
                    }),
                );
                subscriber.write_all(&next)?;
                if !wait_for(|| shared.barriers.load(Ordering::SeqCst) >= passes as u64) {
                    stalled = true;
                    break;
                }
                schedule.retarget(passes);
                for k in 0..n {
                    due.push(Instant::now());
                    if !wait_for(|| seq - shared.completed.load(Ordering::SeqCst) < WINDOW) {
                        due.pop();
                        stalled = true;
                        break 'passes;
                    }
                    let now = Instant::now();
                    sent.push(now);
                    gateway.write_all(schedule.frame_bytes(k))?;
                    writes.push((seq as u32, now, Instant::now()));
                    seq += 1;
                    take_snap(now, &mut snaps);
                }
                passes += 1;
            }
            schedule.retarget(0);
        }
    }
    // Wait for every ack and every expected update.
    let frames_sent = sent.len() as u64;
    let expected = expected_per_pass as u64 * passes as u64;
    let complete = !stalled
        && wait_for(|| {
            shared.acked.load(Ordering::SeqCst) >= frames_sent
                && shared.updates.load(Ordering::SeqCst) >= expected
        });
    let cpu_end = CpuSnap::take();
    let cpu = CpuDelta::between(&cpu_start, &cpu_end, &client_tids);
    snaps.push(cpu_end);
    subscriber.write_all(&wire3::encode_frame(&Message::TelemetryRequest))?;
    let complete = wait_for(|| shared.reports.load(Ordering::SeqCst) > 0) && complete;
    shared.stop.store(true, Ordering::SeqCst);
    let log = receiver
        .join()
        .map_err(|_| io::Error::other("receiver thread panicked"))??;
    drop(gateway);
    drop(subscriber);
    let mut reactor = reactor;
    reactor.shutdown()?;
    drop(_service);
    Ok(TcpRun {
        first_send,
        due,
        sent,
        writes,
        passes,
        frames_per_pass: n,
        log,
        cpu,
        snaps,
        client_tids,
        complete,
    })
}
