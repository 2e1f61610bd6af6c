//! Paper-metric regression suite: the accuracy gate for the quantized i16
//! vote tables and for accidental pipeline drift.
//!
//! Re-runs the fig. 11 trajectory-error CDF and the fig. 12
//! initial-position-error CDF at reduced scale (5 words per scenario on a
//! 2 cm fine grid — the full pipeline, not a toy), under the f64 and
//! quantized-i16 table precisions, and fails when:
//!
//! * the f64 median or p90 of either CDF drifts more than 2% from the
//!   committed baselines in `results/paper_metrics_baseline.txt`, or
//! * the i16 median or p90 of either CDF degrades more than 2% versus
//!   the f64 run of the same scenario.
//!
//! The pipeline is deterministic per `(word, user, seed)`, so on an
//! unchanged tree the f64 metrics reproduce the baselines exactly; the 2%
//! tolerance is headroom for intentional algorithmic tuning, not noise.
//! After such a change, regenerate the baselines with
//! `UPDATE_PAPER_METRICS=1 cargo test -p rfidraw-bench --test paper_metrics`.

use rfidraw::channel::Scenario;
use rfidraw::core::engine::TablePrecision;
use rfidraw::metrics::Cdf;
use rfidraw::pipeline::PipelineConfig;
use rfidraw_bench::harness::{paper_trials, pooled_errors, run_batch};
use std::collections::BTreeMap;
use std::fmt::Write as _;

const TRIALS: usize = 5;
const USERS: u64 = 5;
const SEED: u64 = 2014;
/// Relative drift allowed between an f64 run and its committed baseline.
const F64_DRIFT: f64 = 0.02;
/// Relative degradation allowed for a reduced precision (the quantized
/// i16 tables) versus f64 on the same scenario.
const REDUCED_DEGRADATION: f64 = 0.02;
/// The reduced precisions gated against the f64 run.
const REDUCED: [TablePrecision; 1] = [TablePrecision::I16];

const BASELINE_PATH: &str =
    concat!(env!("CARGO_MANIFEST_DIR"), "/../../results/paper_metrics_baseline.txt");

fn config(scenario: Scenario, precision: TablePrecision) -> PipelineConfig {
    let mut cfg = PipelineConfig::paper_default();
    cfg.scenario = scenario;
    cfg.precision = precision;
    // 2 cm fine grid: every pipeline stage runs, at a quarter of the
    // full-figure cell count, so the suite stays tier-1 fast.
    cfg.fine_resolution_scale = 2.0;
    cfg
}

/// The four gated metrics of one `(scenario, precision)` run, in cm:
/// fig11 (pooled trajectory error) median + p90, fig12 (per-run initial
/// position error) median + p90.
fn metrics_for(scenario: Scenario, precision: TablePrecision) -> BTreeMap<&'static str, f64> {
    let results = run_batch(&config(scenario, precision), &paper_trials(TRIALS, USERS, SEED));
    let ok = results.iter().filter(|(_, r)| r.is_ok()).count();
    assert_eq!(ok, TRIALS, "{scenario:?}/{precision:?}: every trial must succeed");

    let (rf, _) = pooled_errors(&results);
    assert!(rf.len() > 100, "{scenario:?}/{precision:?}: too few pooled samples");
    let fig11 = Cdf::from_samples(rf);
    let init: Vec<f64> = results
        .iter()
        .filter_map(|(_, r)| r.as_ref().ok())
        .map(|run| run.initial_position_error() * 100.0)
        .collect();
    let fig12 = Cdf::from_samples(init);

    BTreeMap::from([
        ("fig11_median_cm", fig11.median() * 100.0),
        ("fig11_p90_cm", fig11.percentile(90.0) * 100.0),
        ("fig12_median_cm", fig12.median()),
        ("fig12_p90_cm", fig12.percentile(90.0)),
    ])
}

fn scenario_key(s: Scenario) -> &'static str {
    match s {
        Scenario::Los => "los",
        Scenario::Nlos => "nlos",
    }
}

/// Parses `results/paper_metrics_baseline.txt`: `<scenario> <metric> <cm>`
/// per line, `#` comments ignored.
fn committed_baselines() -> BTreeMap<(String, String), f64> {
    let text = std::fs::read_to_string(BASELINE_PATH)
        .unwrap_or_else(|e| panic!("read {BASELINE_PATH}: {e}"));
    text.lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(|l| {
            let mut parts = l.split_whitespace();
            let scenario = parts.next().expect("scenario field").to_string();
            let metric = parts.next().expect("metric field").to_string();
            let value: f64 = parts
                .next()
                .expect("value field")
                .parse()
                .expect("numeric baseline value");
            ((scenario, metric), value)
        })
        .collect()
}

#[test]
fn fig11_and_fig12_hold_under_reduced_precisions() {
    let scenarios = [Scenario::Los, Scenario::Nlos];
    type Metrics = BTreeMap<&'static str, f64>;
    let runs: Vec<(Scenario, Metrics, Vec<(TablePrecision, Metrics)>)> = scenarios
        .iter()
        .map(|&s| {
            (
                s,
                metrics_for(s, TablePrecision::F64),
                REDUCED.iter().map(|&p| (p, metrics_for(s, p))).collect(),
            )
        })
        .collect();

    // Maintenance mode: rewrite the committed f64 baselines instead of
    // gating against them.
    if std::env::var_os("UPDATE_PAPER_METRICS").is_some() {
        let mut out = String::from(
            "# f64 paper-metric baselines (cm), 5 words/scenario on a 2 cm fine grid.\n\
             # Regenerate: UPDATE_PAPER_METRICS=1 cargo test -p rfidraw-bench --test paper_metrics\n",
        );
        for (scenario, f64_metrics, _) in &runs {
            for (metric, value) in f64_metrics {
                writeln!(out, "{} {} {:.6}", scenario_key(*scenario), metric, value).unwrap();
            }
        }
        std::fs::write(BASELINE_PATH, out).expect("write baselines");
        return;
    }

    let baselines = committed_baselines();
    for (scenario, f64_metrics, reduced_runs) in &runs {
        let key = scenario_key(*scenario);
        for (metric, &measured) in f64_metrics {
            let committed = baselines
                .get(&(key.to_string(), (*metric).to_string()))
                .unwrap_or_else(|| panic!("no committed baseline for {key} {metric}"));
            assert!(
                (measured - committed).abs() <= F64_DRIFT * committed,
                "{key} {metric}: f64 drifted from the committed baseline: \
                 measured {measured:.4} cm vs committed {committed:.4} cm (>2%)"
            );
        }
        for (precision, reduced_metrics) in reduced_runs {
            for (metric, &reduced_value) in reduced_metrics {
                let f64_value = f64_metrics[metric];
                assert!(
                    reduced_value <= f64_value * (1.0 + REDUCED_DEGRADATION),
                    "{key} {metric}: {precision:?} degraded >2% vs f64: \
                     {reduced_value:.4} cm vs {f64_value:.4} cm"
                );
            }
        }
    }
}
