//! The benchmark at tiny scale: every declared metric is emitted, the
//! oracle agrees with the served updates, inputs are a pure function of
//! the seed, and open-loop schedules follow the reads' air times.

use perfbench::gen::{Inputs, Scale, Workload};
use perfbench::run::{run, Options};
use perfbench::tcp::Schedule;

const TINY: Scale = Scale {
    writers: 3,
    air_s: 2.0,
};

/// The metric names one section of `BENCHMARK.json` declares.
fn declared(section: &str) -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json next to the package");
    let start = json
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &json[start..];
    let body = &body[..body.find(']').expect("section is an array")];
    body.split("\"name\": \"")
        .skip(1)
        .map(|s| s[..s.find('"').expect("closing quote")].to_string())
        .collect()
}

fn tiny(workload: Workload) -> Options {
    let mut o = Options::new(workload, 7, 2.0, true);
    o.scale = TINY;
    o.reps = 1;
    o.warmup_s = 0.0;
    o.setups = 2;
    o.spans_dir = None;
    o
}

#[test]
fn every_workload_emits_every_declared_metric_and_matches_the_oracle() {
    let e2e = declared("end_to_end");
    let layers = declared("per_layer");
    assert!(e2e.contains(&"setup_s".to_string()));
    for workload in Workload::ALL {
        let out = run(&tiny(workload)).expect("tiny run");
        assert!(
            out.correct,
            "{}: {} of {} failed",
            workload.name(),
            out.failed,
            out.attempted
        );
        assert_eq!(out.failed, 0);
        assert!(out.attempted > 0);
        for name in &e2e {
            let v = out.end_to_end.get(name);
            assert!(
                v.is_some_and(f64::is_finite),
                "{}: {name} = {v:?}",
                workload.name()
            );
        }
        for name in &layers {
            assert!(
                out.per_layer.get(name).is_some(),
                "{}: {name} missing",
                workload.name()
            );
        }
        assert_eq!(
            out.end_to_end.0.len(),
            e2e.len(),
            "{}: undeclared metric",
            workload.name()
        );
        assert_eq!(
            out.per_layer.0.len(),
            layers.len(),
            "{}: undeclared metric",
            workload.name()
        );
    }
}

#[test]
fn the_same_seed_generates_byte_identical_inputs() {
    for workload in Workload::ALL {
        let a = Inputs::generate(workload, TINY, 11, 1);
        let b = Inputs::generate(workload, TINY, 11, 2);
        let c = Inputs::generate(workload, TINY, 12, 2);
        assert!(a.total_reads() > 0);
        assert_eq!(
            a.to_bytes(),
            b.to_bytes(),
            "{}: thread count changed inputs",
            workload.name()
        );
        assert_ne!(
            a.to_bytes(),
            c.to_bytes(),
            "{}: seed ignored",
            workload.name()
        );
    }
}

#[test]
fn open_loop_schedules_send_each_read_at_its_air_time() {
    for workload in [Workload::Live, Workload::Taps] {
        let inputs = Inputs::generate(workload, TINY, 3, 2);
        let s = Schedule::build(&inputs);
        assert_eq!(s.frames.len(), inputs.total_reads(), "one read per frame");
        for (k, f) in s.frames.iter().enumerate() {
            assert_eq!(f.len, 1);
            let read = inputs.writers[f.writer as usize].reads[f.first as usize];
            assert_eq!(
                f.due_s.to_bits(),
                read.t.to_bits(),
                "frame {k} is due at its air time"
            );
            assert_eq!(
                s.frame_of_read[f.writer as usize][f.first as usize],
                k as u32
            );
        }
        assert!(
            s.frames.windows(2).all(|w| w[0].due_s <= w[1].due_s),
            "sent in air-time order"
        );
    }
}

#[test]
fn closed_loop_frames_carry_every_read_once_in_order() {
    let inputs = Inputs::generate(Workload::Bulk, TINY, 3, 2);
    let s = Schedule::build(&inputs);
    let mut next = vec![0u32; inputs.writers.len()];
    for f in &s.frames {
        assert!(f.len >= 1 && f.len as usize <= Workload::Bulk.reads_per_frame());
        assert_eq!(
            f.first, next[f.writer as usize],
            "per-writer reads stay in order"
        );
        next[f.writer as usize] += f.len;
    }
    for (w, writer) in inputs.writers.iter().enumerate() {
        assert_eq!(next[w] as usize, writer.reads.len());
    }
}
