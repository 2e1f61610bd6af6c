//! The output oracle: one standalone `OnlineTracker` per writer, built
//! from the same `TrackerTemplate` the service uses, fed the writer's
//! reads in order. Every position the service delivers must equal the
//! oracle's, bit for bit and in order.
//!
//! The oracle also records which read completed each tick (the latency
//! origin), whether the position is the first after a (re)acquisition,
//! and its distance to the true pen position. A timed oracle run doubles
//! as the tracker-layer profile: every `push` is timed and classified by
//! the event it returned.

use crate::gen::{epc_index, Inputs};
use crate::span::{SpanLog, ROOT};
use rfidraw_core::online::OnlineEvent;
use rfidraw_serve::TrackerTemplate;
use std::time::Instant;

/// One position the service must deliver.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Expected {
    /// Tick time (s, air time).
    pub t: f64,
    /// Estimate, plane horizontal coordinate (m).
    pub x: f64,
    /// Estimate, plane vertical coordinate (m).
    pub z: f64,
    /// Index of the read (in the writer's stream) that completed the tick.
    pub read: u32,
    /// First position after an acquisition ("time to cursor").
    pub first: bool,
    /// Distance to the true pen position at `t` (cm).
    pub err_cm: f64,
}

/// What one `push` returned, for the tracker-layer profile.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PushClass {
    /// Returned `Acquired` (acquisition ran).
    Acquire,
    /// Returned a `Position` without acquiring (a trace tick).
    Tick,
    /// Returned no event (the read was buffered).
    Buffer,
    /// Anything else (a stale reset alone, a prune alone).
    Other,
}

impl PushClass {
    fn of(events: &[OnlineEvent]) -> Self {
        if events
            .iter()
            .any(|e| matches!(e, OnlineEvent::Acquired { .. }))
        {
            PushClass::Acquire
        } else if events
            .iter()
            .any(|e| matches!(e, OnlineEvent::Position { .. }))
        {
            PushClass::Tick
        } else if events.is_empty() {
            PushClass::Buffer
        } else {
            PushClass::Other
        }
    }

    /// The span name for pushes of this class.
    pub fn span_name(self) -> &'static str {
        match self {
            PushClass::Acquire => "online.push.acquire",
            PushClass::Tick => "online.push.tick",
            PushClass::Buffer => "online.push.buffer",
            PushClass::Other => "online.push.other",
        }
    }
}

/// Per-class push durations (ns) from a timed run.
#[derive(Debug, Clone, Default)]
pub struct PushProfile {
    /// Pushes that acquired.
    pub acquire_ns: Vec<f64>,
    /// Pushes that produced a tick without acquiring.
    pub tick_ns: Vec<f64>,
    /// Pushes with no event.
    pub buffer_ns: Vec<f64>,
    /// Everything else.
    pub other_ns: Vec<f64>,
}

impl PushProfile {
    fn add(&mut self, class: PushClass, ns: f64) {
        match class {
            PushClass::Acquire => self.acquire_ns.push(ns),
            PushClass::Tick => self.tick_ns.push(ns),
            PushClass::Buffer => self.buffer_ns.push(ns),
            PushClass::Other => self.other_ns.push(ns),
        }
    }

    /// Total time in all pushes (ns).
    pub fn total_ns(&self) -> f64 {
        [
            &self.acquire_ns,
            &self.tick_ns,
            &self.buffer_ns,
            &self.other_ns,
        ]
        .iter()
        .map(|v| v.iter().sum::<f64>())
        .sum()
    }
}

/// The oracle's expectations for every writer.
#[derive(Debug, Clone)]
pub struct Oracle {
    /// Per writer, the positions in delivery order.
    pub expected: Vec<Vec<Expected>>,
}

impl Oracle {
    /// Positions expected per replay pass.
    pub fn per_pass(&self) -> usize {
        self.expected.iter().map(Vec::len).sum()
    }

    /// Feeds every writer's reads to its own standalone tracker, on up to
    /// `threads` threads (writers are independent, so the split cannot
    /// change any result).
    pub fn run(template: &TrackerTemplate, inputs: &Inputs, threads: usize) -> Self {
        let n = inputs.writers.len();
        let mut expected: Vec<Vec<Expected>> = vec![Vec::new(); n];
        let per = n.div_ceil(threads.clamp(1, n.max(1))).max(1);
        std::thread::scope(|scope| {
            for (c, chunk) in expected.chunks_mut(per).enumerate() {
                scope.spawn(move || {
                    for (i, out) in chunk.iter_mut().enumerate() {
                        *out = track_writer(template, inputs, c * per + i, &mut |_, _, _, _| {});
                    }
                });
            }
        });
        Self { expected }
    }

    /// The same, on the calling thread, timing every `push`: each one
    /// becomes a span named by its [`PushClass`] under a per-writer root
    /// span, and its duration lands in the returned profile.
    pub fn run_timed(
        template: &TrackerTemplate,
        inputs: &Inputs,
        spans: &mut SpanLog,
    ) -> (Self, PushProfile) {
        let mut profile = PushProfile::default();
        let mut expected = Vec::with_capacity(inputs.writers.len());
        for w in 0..inputs.writers.len() {
            let epc = epc_index(0, w);
            let started = Instant::now();
            let mut pushes: Vec<(PushClass, Instant, Instant, u32)> = Vec::new();
            let out = track_writer(template, inputs, w, &mut |class, a, b, seq| {
                pushes.push((class, a, b, seq));
            });
            let root = spans.record("oracle.writer", started, Instant::now(), ROOT, epc, 0);
            for (class, a, b, seq) in pushes {
                profile.add(class, b.duration_since(a).as_nanos() as f64);
                spans.record(class.span_name(), a, b, root, epc, seq);
            }
            expected.push(out);
        }
        (Self { expected }, profile)
    }
}

fn track_writer(
    template: &TrackerTemplate,
    inputs: &Inputs,
    w: usize,
    on_push: &mut dyn FnMut(PushClass, Instant, Instant, u32),
) -> Vec<Expected> {
    let writer = &inputs.writers[w];
    let mut tracker = template.build();
    let mut out = Vec::new();
    for (i, &read) in writer.reads.iter().enumerate() {
        let a = Instant::now();
        let events = tracker
            .push(read)
            .expect("simulated reads are valid and in order");
        let b = Instant::now();
        on_push(PushClass::of(&events), a, b, i as u32);
        let acquired = events
            .iter()
            .any(|e| matches!(e, OnlineEvent::Acquired { .. }));
        let mut first = acquired;
        for e in &events {
            if let OnlineEvent::Position { t, pos } = e {
                let truth = writer.script.position_at(*t);
                out.push(Expected {
                    t: *t,
                    x: pos.x,
                    z: pos.z,
                    read: i as u32,
                    first,
                    err_cm: pos.dist(truth) * 100.0,
                });
                first = false;
            }
        }
    }
    out
}
