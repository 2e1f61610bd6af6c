//! The in-process replay behind the per-layer numbers: the same frames
//! fed through each layer's public entry point on one thread, with the
//! service in manual mode (`workers: None`) so `TrackingService::pump`
//! runs the drain and the trackers on the calling thread.
//!
//! Per frame, under a `replay.frame` root span: `FrameDecoder::feed` and
//! `next` (`frame.decode`), `wire3::decode_frame` (`wire3.decode`),
//! `wire::read_is_valid` over its reads (`wire.validate`) and
//! `LocalClient::ingest` (`service.ingest`). After each frame one
//! `TrackingService::pump` (`service.pump`), the drain a worker runs when
//! an ingest wakes it. Every delivered position is encoded as the
//! reactor would (`wire3::encode_frame`, `wire3.encode`) and checked
//! against the oracle.

use crate::gen::{epc_index, epc_of, Inputs};
use crate::oracle::Oracle;
use crate::span::{SpanLog, ROOT};
use crate::tcp::{serve_config, Schedule};
use rfidraw_net::{FrameDecoder, RawFrame};
use rfidraw_serve::wire::{self, Message, PositionUpdate};
use rfidraw_serve::{wire3, SessionEvent, TrackingService};
use std::time::Instant;

/// Summed time per layer over one replay.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Replay {
    /// Frames replayed.
    pub frames: u64,
    /// Reads replayed.
    pub reads: u64,
    /// Positions delivered.
    pub positions: u64,
    /// `FrameDecoder::feed` + `next` (ns).
    pub frame_decode_ns: f64,
    /// `wire3::decode_frame` (ns).
    pub wire3_decode_ns: f64,
    /// `wire::read_is_valid` (ns).
    pub validate_ns: f64,
    /// `LocalClient::ingest` (ns).
    pub ingest_ns: f64,
    /// `TrackingService::pump` (ns).
    pub pump_ns: f64,
    /// `wire3::encode_frame` of each position update (ns).
    pub encode_ns: f64,
    /// Positions that differ from the oracle, or are missing or extra.
    pub mismatches: u64,
}

/// Replays one pass of `schedule` in-process, recording spans into
/// `spans`.
pub fn replay(
    inputs: &Inputs,
    schedule: &Schedule,
    oracle: &Oracle,
    spans: &mut SpanLog,
) -> Replay {
    let writers = inputs.writers.len();
    let mut cfg = serve_config(writers.max(1));
    cfg.workers = None;
    let service = TrackingService::start(cfg);
    let client = service.client();
    let subs: Vec<_> = (0..writers)
        .map(|w| {
            client
                .subscribe(epc_of(0, w))
                .expect("session cap covers every writer")
        })
        .collect();
    let mut decoder = FrameDecoder::new(rfidraw_net::DEFAULT_MAX_PAYLOAD);
    let mut r = Replay::default();
    let ns = |a: Instant, b: Instant| b.duration_since(a).as_nanos() as f64;
    for (k, f) in schedule.frames.iter().enumerate() {
        let (epc, seq) = (epc_index(0, f.writer as usize), k as u32);
        let t0 = Instant::now();
        decoder.feed(schedule.frame_bytes(k));
        let raw = decoder
            .next()
            .expect("well-formed frame")
            .expect("a whole frame was fed");
        let t1 = Instant::now();
        let RawFrame::Binary(bin) = raw else {
            panic!("ingest frames are binary")
        };
        let Ok(Message::Ingest(batch)) = wire3::decode_frame(&bin) else {
            panic!("frame {k} is an ingest")
        };
        let t2 = Instant::now();
        let valid = batch.reads.iter().all(wire::read_is_valid);
        let t3 = Instant::now();
        let receipt = client
            .ingest(batch.epc, &batch.reads)
            .expect("session exists");
        let t4 = Instant::now();
        assert!(
            valid && receipt.accepted == batch.reads.len() as u64,
            "frame {k} refused"
        );
        let root = spans.record("replay.frame", t0, t4, ROOT, epc, seq);
        spans.record("frame.decode", t0, t1, root, epc, seq);
        spans.record("wire3.decode", t1, t2, root, epc, seq);
        spans.record("wire.validate", t2, t3, root, epc, seq);
        spans.record("service.ingest", t3, t4, root, epc, seq);
        let t5 = Instant::now();
        service.pump();
        let t6 = Instant::now();
        spans.record("service.pump", t5, t6, ROOT, epc, seq);
        r.frames += 1;
        r.reads += batch.reads.len() as u64;
        r.frame_decode_ns += ns(t0, t1);
        r.wire3_decode_ns += ns(t1, t2);
        r.validate_ns += ns(t2, t3);
        r.ingest_ns += ns(t3, t4);
        r.pump_ns += ns(t5, t6);
    }
    loop {
        let t5 = Instant::now();
        let drained = service.pump();
        r.pump_ns += ns(t5, Instant::now());
        if drained == 0 {
            break;
        }
    }
    for (w, rx) in subs.iter().enumerate() {
        let expected = &oracle.expected[w];
        let mut got = 0usize;
        while let Ok(ev) = rx.try_recv() {
            let SessionEvent::Position { epc, t, pos } = ev else {
                continue;
            };
            let t0 = Instant::now();
            let frame = wire3::encode_frame(&Message::PositionUpdate(PositionUpdate {
                epc,
                t,
                x: pos.x,
                z: pos.z,
            }));
            let t1 = Instant::now();
            spans.record("wire3.encode", t0, t1, ROOT, epc_index(0, w), got as u32);
            std::hint::black_box(frame);
            r.encode_ns += ns(t0, t1);
            match expected.get(got) {
                Some(e)
                    if e.t.to_bits() == t.to_bits()
                        && e.x.to_bits() == pos.x.to_bits()
                        && e.z.to_bits() == pos.z.to_bits() => {}
                _ => r.mismatches += 1,
            }
            got += 1;
        }
        r.positions += got as u64;
        r.mismatches += expected.len().saturating_sub(got) as u64;
    }
    r
}
