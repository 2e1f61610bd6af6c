//! `perfbench --workload <live|bulk|taps> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints notes and an environment record, then as its last line one
//! JSON object: `correct`, `attempted`, `failed`, and the end-to-end
//! metrics (`--trace 0`) or the per-layer metrics (`--trace 1`).

use perfbench::gen::Workload;
use perfbench::run::{run, Options};
use perfbench::stats::result_json;
use std::process::ExitCode;

fn usage(msg: &str) -> ExitCode {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload <live|bulk|taps> --seed <n> --seconds <s> --trace <0|1>"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else {
            return usage(&format!("{flag} needs a value"));
        };
        match flag.as_str() {
            "--workload" => workload = Workload::parse(value),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s > 0.0),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => Some(false),
                    "1" => Some(true),
                    _ => None,
                }
            }
            other => return usage(&format!("unknown flag {other}")),
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (workload, seed, seconds, trace)
    else {
        return usage("--workload, --seed, --seconds and --trace are all required");
    };
    let opts = Options::new(workload, seed, seconds, trace);
    let outcome = match run(&opts) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: run failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    for note in &outcome.notes {
        println!("{note}");
    }
    println!("env {}", outcome.env.render());
    let metrics = if trace {
        &outcome.per_layer
    } else {
        &outcome.end_to_end
    };
    for (name, value, unit) in &outcome.end_to_end.0 {
        println!("end_to_end {name} = {value} {unit}");
    }
    for (name, value, unit) in &outcome.per_layer.0 {
        println!("per_layer {name} = {value} {unit}");
    }
    println!(
        "failed_frac = {} ({} failed of {} attempted)",
        outcome.failed as f64 / outcome.attempted.max(1) as f64,
        outcome.failed,
        outcome.attempted
    );
    println!(
        "{}",
        result_json(outcome.correct, outcome.attempted, outcome.failed, metrics)
    );
    ExitCode::SUCCESS
}
