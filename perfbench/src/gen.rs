//! Input generation: seeded writers, their pen motion, and the reads a
//! shared Gen-2 inventory produces for them.
//!
//! Writers are grouped into rooms of three. Each room has its own channel
//! and its own pair of 4-port readers, so the three tags of a room contend
//! for ALOHA slots exactly as in `examples/live_service.rs`. A writer's
//! ground truth is a [`Script`]: a dense, timed pen path plus the
//! intervals during which the tag is in the field at all (a tag outside
//! them is placed far from every antenna, so it is never energized and
//! takes no slot).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rfidraw_channel::{Channel, Scenario};
use rfidraw_core::array::Deployment;
use rfidraw_core::geom::{Plane, Point2, Point3, Rect};
use rfidraw_core::stream::PhaseRead;
use rfidraw_handwriting::pen::{write_word, PenConfig, Style};
use rfidraw_handwriting::{layout_word, Corpus};
use rfidraw_protocol::inventory::{demux_phase_reads, InventoryConfig, InventorySim, SimTag};
use rfidraw_protocol::Epc;

/// The three traffic mixes the benchmark runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Writers write words at real time; one read per frame, open loop.
    Live,
    /// The same kind of writers replayed closed loop, 64 reads per frame.
    Bulk,
    /// Writers make short single-glyph strokes separated by silences
    /// longer than the tracker's stale gap; one read per frame, open loop.
    Taps,
}

impl Workload {
    /// Every workload, in declaration order.
    pub const ALL: [Workload; 3] = [Workload::Live, Workload::Bulk, Workload::Taps];

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's name on the command line and in results.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Live => "live",
            Workload::Bulk => "bulk",
            Workload::Taps => "taps",
        }
    }

    /// Whether frames go out on the air-time schedule (open loop) rather
    /// than as fast as acks allow (closed loop).
    pub fn open_loop(self) -> bool {
        !matches!(self, Workload::Bulk)
    }

    /// Reads per wire frame.
    pub fn reads_per_frame(self) -> usize {
        match self {
            Workload::Bulk => 64,
            Workload::Live | Workload::Taps => 1,
        }
    }
}

/// How much input to generate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scale {
    /// Writers (rounded up to whole rooms of three).
    pub writers: usize,
    /// Seconds of air time per writer.
    pub air_s: f64,
}

/// The writing region every session searches (the `live_service` region).
pub fn region() -> Rect {
    Rect::new(Point2::new(-0.2, 0.0), Point2::new(3.2, 2.2))
}

/// Writers per room (per shared reader pair).
pub const ROOM: usize = 3;

/// Where the three writers of a room start their words.
const ANCHORS: [Point2; ROOM] = [
    Point2 { x: 0.4, z: 1.6 },
    Point2 { x: 1.7, z: 1.1 },
    Point2 { x: 0.8, z: 0.5 },
];

/// Pen speed (m/s) for writing and for the hand's moves between words.
const PEN_SPEED: f64 = 0.20;
/// Pen sample rate of a script (Hz).
const SAMPLE_HZ: f64 = 200.0;

/// A writer's ground truth: timed pen positions and when the tag is in
/// the field.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Script {
    /// Pen samples, strictly increasing in time.
    samples: Vec<(f64, Point2)>,
    /// Closed intervals during which the tag can be read.
    present: Vec<(f64, f64)>,
}

impl Script {
    fn end(&self) -> f64 {
        self.samples.last().map_or(0.0, |s| s.0)
    }

    fn last_pos(&self) -> Option<Point2> {
        self.samples.last().map(|s| s.1)
    }

    fn push(&mut self, t: f64, p: Point2) {
        debug_assert!(self.samples.last().is_none_or(|s| s.0 < t));
        self.samples.push((t, p));
    }

    /// Holds still at `p` for `secs`, starting at `from`.
    fn hold(&mut self, from: f64, p: Point2, secs: f64) {
        let n = (secs * SAMPLE_HZ).ceil() as usize;
        for k in 0..=n {
            self.push(from + k as f64 / SAMPLE_HZ, p);
        }
    }

    /// Moves in a straight line from the current position to `to` at pen
    /// speed.
    fn move_to(&mut self, to: Point2) {
        let from = self.last_pos().expect("a move starts from a position");
        let t0 = self.end();
        let n = ((from.dist(to) / PEN_SPEED) * SAMPLE_HZ).ceil().max(1.0) as usize;
        for k in 1..=n {
            self.push(
                t0 + k as f64 / SAMPLE_HZ,
                from.lerp(to, k as f64 / n as f64),
            );
        }
    }

    /// Writes `text` starting at `at`, beginning one sample after the
    /// current end of the script (or at `from` when empty).
    fn write(&mut self, text: &str, x_height: f64, at: Point2, style: Style, from: f64) {
        let path = layout_word(text, x_height, x_height * 0.25)
            .expect("corpus words and a-z glyphs lay out")
            .place_at(at);
        let timed = write_word(
            &path,
            style,
            PenConfig {
                speed: PEN_SPEED,
                sample_rate: SAMPLE_HZ,
                start_time: 0.0,
            },
        );
        let t0 = from + 1.0 / SAMPLE_HZ;
        for s in &timed.samples {
            self.push(t0 + s.t, s.pos);
        }
    }

    /// Whether the tag is in the field at `t`.
    pub fn present_at(&self, t: f64) -> bool {
        self.present.is_empty() || self.present.iter().any(|&(a, b)| t >= a && t <= b)
    }

    /// The pen position at `t`, linearly interpolated and clamped to the
    /// script's ends (presence is ignored: this is the truth the tracker
    /// is scored against).
    pub fn position_at(&self, t: f64) -> Point2 {
        let s = &self.samples;
        let i = s.partition_point(|x| x.0 <= t);
        if i == 0 {
            return s[0].1;
        }
        if i == s.len() {
            return s[s.len() - 1].1;
        }
        let (ta, pa) = s[i - 1];
        let (tb, pb) = s[i];
        pa.lerp(pb, (t - ta) / (tb - ta))
    }
}

/// One writer: its identity, truth, and the reads the inventory produced.
#[derive(Debug, Clone)]
pub struct Writer {
    /// Ground truth.
    pub script: Script,
    /// The tag's reads in air-time order.
    pub reads: Vec<PhaseRead>,
}

/// A workload's generated input.
#[derive(Debug, Clone)]
pub struct Inputs {
    /// Which workload these inputs are for.
    pub workload: Workload,
    /// Air time each writer's script covers (s).
    pub air_s: f64,
    /// Every writer, rooms in order.
    pub writers: Vec<Writer>,
}

/// EPC index stride between replay passes (bulk reuses the writers under
/// fresh EPCs each pass).
pub const PASS_STRIDE: u32 = 1_000_000;

/// The EPC index (the request id in spans and the key of received
/// updates) writer `w` uses in replay pass `pass`.
pub fn epc_index(pass: u32, w: usize) -> u32 {
    pass * PASS_STRIDE + w as u32 + 1
}

/// Inverse of [`epc_index`]: `(pass, writer)`.
pub fn slot_of(epc_index: u32) -> (u32, usize) {
    let i = epc_index - 1;
    (i / PASS_STRIDE, (i % PASS_STRIDE) as usize)
}

/// The EPC writer `w` uses in replay pass `pass`.
pub fn epc_of(pass: u32, w: usize) -> Epc {
    Epc::from_index(epc_index(pass, w))
}

impl Inputs {
    /// Generates the inputs for `workload` at `scale` from `seed`. The
    /// same arguments give byte-identical inputs (see [`Inputs::digest`]).
    /// Rooms are simulated on up to `threads` threads.
    pub fn generate(workload: Workload, scale: Scale, seed: u64, threads: usize) -> Self {
        let rooms = scale.writers.div_ceil(ROOM).max(1);
        let corpus = Corpus::common();
        let words: Vec<&'static str> = corpus
            .words()
            .iter()
            .copied()
            .filter(|w| (3..=6).contains(&w.len()))
            .collect();
        // Scripts are drawn serially from one stream so that the thread
        // count cannot change them.
        let mut rng = StdRng::seed_from_u64(seed ^ 0x7e11_57a7);
        let scripts: Vec<Script> = (0..rooms * ROOM)
            .map(|w| {
                let style = Style::user(seed.wrapping_mul(7919).wrapping_add(w as u64));
                let anchor = ANCHORS[w % ROOM];
                match workload {
                    Workload::Live => word_script(
                        &mut rng,
                        &words,
                        style,
                        anchor,
                        scale.air_s,
                        &Visits::live(scale.air_s),
                    ),
                    Workload::Bulk => word_script(
                        &mut rng,
                        &words,
                        style,
                        anchor,
                        scale.air_s,
                        &Visits::bulk(),
                    ),
                    Workload::Taps => tap_script(&mut rng, style, anchor, scale.air_s),
                }
            })
            .collect();
        let mut reads: Vec<Vec<PhaseRead>> = vec![Vec::new(); scripts.len()];
        let threads = threads.clamp(1, rooms);
        std::thread::scope(|scope| {
            let mut chunks: Vec<(usize, &mut [Vec<PhaseRead>])> = Vec::new();
            let per = rooms.div_ceil(threads) * ROOM;
            for (i, chunk) in reads.chunks_mut(per).enumerate() {
                chunks.push((i * per, chunk));
            }
            for (first, chunk) in chunks {
                let scripts = &scripts;
                scope.spawn(move || {
                    for (r, out) in chunk.chunks_mut(ROOM).enumerate() {
                        let room = first / ROOM + r;
                        let room_reads = simulate_room(
                            &scripts[room * ROOM..room * ROOM + ROOM],
                            seed,
                            room,
                            scale.air_s,
                        );
                        for (slot, stream) in out.iter_mut().zip(room_reads) {
                            *slot = stream;
                        }
                    }
                });
            }
        });
        let writers = scripts
            .into_iter()
            .zip(reads)
            .map(|(script, reads)| Writer { script, reads })
            .collect();
        Self {
            workload,
            air_s: scale.air_s,
            writers,
        }
    }

    /// Total reads over all writers.
    pub fn total_reads(&self) -> usize {
        self.writers.iter().map(|w| w.reads.len()).sum()
    }

    /// Every read as bytes (writer index, time bits, antenna, phase bits),
    /// the form the determinism check compares.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.total_reads() * 21);
        for (w, writer) in self.writers.iter().enumerate() {
            for r in &writer.reads {
                out.extend_from_slice(&(w as u32).to_le_bytes());
                out.extend_from_slice(&r.t.to_bits().to_le_bytes());
                out.push(r.antenna.0);
                out.extend_from_slice(&r.phase.to_bits().to_le_bytes());
            }
        }
        out
    }

    /// FNV-1a digest of [`Inputs::to_bytes`].
    pub fn digest(&self) -> u64 {
        self.to_bytes()
            .iter()
            .fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
                (h ^ b as u64).wrapping_mul(0x0100_0000_01b3)
            })
    }
}

/// How a writer's visits are shaped.
#[derive(Debug, Clone)]
struct Visits {
    /// Words per visit.
    words: std::ops::Range<usize>,
    /// The first visit starts at a random moment before this (s).
    first_by: f64,
}

impl Visits {
    /// `live`: one or two words (about 7–15 s) per visit, the first visit
    /// starting anywhere in the first 6 s (at most half the air time), so
    /// acquisitions come at a steady rate rather than all at once when the
    /// server has just started.
    fn live(air_s: f64) -> Self {
        Self {
            words: 1..3,
            first_by: (air_s / 2.0).min(6.0),
        }
    }

    /// `bulk`: two to four words per visit, every writer starting in the
    /// first 1.5 s, so a short pool replays mostly tracking ticks.
    fn bulk() -> Self {
        Self {
            words: 2..5,
            first_by: 1.5,
        }
    }
}

/// Visits of words at the writer's anchor: a still lead-in, then each
/// word, a move back to the anchor and a short pause. Between visits the
/// tag leaves the field for 1.2–1.6 s (longer than the tracker's 1 s
/// stale gap), so each visit acquires afresh. Writers start at random
/// moments, so rooms do not start in step.
fn word_script(
    rng: &mut StdRng,
    words: &[&str],
    style: Style,
    anchor: Point2,
    air_s: f64,
    visits: &Visits,
) -> Script {
    let mut s = Script::default();
    let mut t = rng.gen_range(0.0..visits.first_by);
    while t < air_s {
        s.hold(t, anchor, 0.5);
        for _ in 0..rng.gen_range(visits.words.clone()) {
            let word = words[rng.gen_range(0..words.len())];
            s.write(word, 0.10, anchor, style, s.end());
            s.move_to(anchor);
            let end = s.end();
            s.hold(end + 1.0 / SAMPLE_HZ, anchor, 0.2);
        }
        s.present.push((t, s.end()));
        t = s.end() + rng.gen_range(1.2..1.6);
    }
    s
}

/// Single small glyphs near the anchor, each preceded by a short still
/// lead-in; between strokes the tag leaves the field for 1.15–1.45 s,
/// longer than the tracker's 1 s stale gap, so every stroke re-acquires.
/// The first stroke starts anywhere in one stroke period (about 2 s, at
/// most half the air time), so writers do not acquire in step.
fn tap_script(rng: &mut StdRng, style: Style, anchor: Point2, air_s: f64) -> Script {
    let mut s = Script::default();
    let mut t = rng.gen_range(0.0..(air_s / 2.0).min(2.0));
    while t < air_s {
        let c = (b'a' + rng.gen_range(0..26u8)) as char;
        let at = anchor + Point2::new(rng.gen_range(-0.15..0.15), rng.gen_range(-0.10..0.10));
        s.hold(t, at, 0.15);
        s.write(&c.to_string(), 0.03, at, style, s.end());
        s.present.push((t, s.end()));
        t = s.end() + rng.gen_range(1.15..1.45);
    }
    s
}

/// Runs one room's shared inventory and splits the reads per writer.
fn simulate_room(scripts: &[Script], seed: u64, room: usize, air_s: f64) -> Vec<Vec<PhaseRead>> {
    let plane = Plane::at_depth(2.0);
    let room_seed = seed
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(room as u64);
    let channel = Channel::new(
        Deployment::paper_default(),
        Scenario::Los.config(),
        room_seed,
    );
    let mut sim = InventorySim::new(
        channel,
        InventoryConfig::paper_default(0.030, room_seed ^ 0xa10a),
    );
    let far = Point3::new(1.0, 50.0, 1.0);
    let trajectories: Vec<_> = scripts
        .iter()
        .map(|script| {
            move |t: f64| {
                if script.present_at(t) {
                    plane.lift(script.position_at(t))
                } else {
                    far
                }
            }
        })
        .collect();
    let tags: Vec<SimTag<'_>> = trajectories
        .iter()
        .enumerate()
        .map(|(i, f)| SimTag {
            epc: Epc::from_index(i as u32 + 1),
            trajectory: f,
        })
        .collect();
    let mut streams = demux_phase_reads(&sim.run(&tags, air_s));
    (0..scripts.len())
        .map(|i| {
            streams
                .remove(&Epc::from_index(i as u32 + 1))
                .unwrap_or_default()
        })
        .collect()
}
