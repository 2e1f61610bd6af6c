//! The end-to-end experiment pipeline.
//!
//! [`run_word`] performs one complete trial exactly as the paper's
//! evaluation does (§6–§8): a user writes one word in the air; two readers
//! inventory the tag through the RF channel; the resulting phase-read
//! stream is snapshotted; RF-IDraw's multi-resolution positioning picks
//! candidate start points; the tracer reconstructs one trajectory per
//! candidate and keeps the best-voted one. The same read-level machinery
//! (with the two-ULA antenna arrangement) produces the baseline's per-tick
//! independent position estimates.
//!
//! Everything is deterministic per `(word, user, seed)`.

use rfidraw_channel::{Channel, FaultConfig, FaultInjector, Scenario};
use rfidraw_core::array::Deployment;
use rfidraw_core::baseline::BaselineArrays;
use rfidraw_core::engine::TablePrecision;
use rfidraw_core::geom::{Plane, Point2, Rect};
use rfidraw_core::online::OnlineConfig;
use rfidraw_core::position::{Candidate, MultiResConfig, MultiResPositioner};
use rfidraw_core::stream::{PairSnapshot, SnapshotBuilder, StreamError};
use rfidraw_core::trace::{TraceConfig, TraceResult, TrajectoryTracer};
use rfidraw_handwriting::corpus::Corpus;
use rfidraw_handwriting::layout::{layout_word, LayoutError};
use rfidraw_handwriting::pen::{write_word, PenConfig, Style, TimedPath};
use rfidraw_protocol::inventory::{phase_reads, InventoryConfig, InventorySim, SimTag};
use rfidraw_protocol::Epc;

/// Everything a pipeline run needs to know.
#[derive(Debug, Clone)]
pub struct PipelineConfig {
    /// LOS or NLOS channel.
    pub scenario: Scenario,
    /// Distance from the antenna wall to the writing plane (m); the paper
    /// evaluates 2–5 m.
    pub depth: f64,
    /// Search region of the writing plane.
    pub region: Rect,
    /// Where the word's first pen-down lands.
    pub start_point: Point2,
    /// Letter x-height (m); the paper's letters are ~10 cm wide.
    pub x_height: f64,
    /// Reader port dwell (s).
    pub dwell: f64,
    /// Snapshot tick (s).
    pub tick: f64,
    /// Seconds the user holds still before writing (gives the positioner
    /// stationary phase data) and after finishing.
    pub lead_in: f64,
    /// Pen kinematics.
    pub pen: PenConfig,
    /// Trajectory tracer parameters.
    pub trace: TraceConfig,
    /// Fine/coarse grid resolutions etc. are derived from the region via
    /// [`MultiResConfig::for_region`]; this scales the fine resolution
    /// (1.0 = the 1 cm default) to trade accuracy for speed.
    pub fine_resolution_scale: f64,
    /// Fault injection applied to the read stream (defaults to none).
    pub fault: FaultConfig,
    /// Optional Hampel outlier rejection applied to the read stream before
    /// snapshotting (see `rfidraw_core::filter`).
    pub hampel: Option<rfidraw_core::filter::HampelConfig>,
    /// Numeric width of the positioning engines' vote tables.
    /// [`TablePrecision::F64`] (the default) is bit-exact versus the
    /// reference kernel; [`TablePrecision::I16`] quarters table bytes and
    /// memory bandwidth with a derived vote-error bound, and the
    /// paper-metric regression suite gates its fig11/fig12 accuracy to
    /// within 2% of the f64 baselines.
    pub precision: TablePrecision,
    /// Master seed.
    pub seed: u64,
}

impl PipelineConfig {
    /// The paper's nominal setup: LOS, 2 m depth, 10 cm letters.
    pub fn paper_default() -> Self {
        Self {
            scenario: Scenario::Los,
            depth: 2.0,
            region: Rect::new(Point2::new(-0.2, 0.0), Point2::new(3.2, 2.2)),
            start_point: Point2::new(0.9, 1.1),
            x_height: 0.10,
            dwell: 0.030,
            tick: 0.040,
            lead_in: 0.5,
            pen: PenConfig::default(),
            trace: TraceConfig::default(),
            fine_resolution_scale: 1.0,
            fault: FaultConfig::default(),
            hampel: None,
            precision: TablePrecision::F64,
            seed: 1,
        }
    }

    /// A smaller/faster configuration for tests and doc examples: coarser
    /// grids, a faster pen, shorter lead-in, a reduced search region.
    pub fn fast_demo() -> Self {
        Self {
            region: Rect::new(Point2::new(0.4, 0.5), Point2::new(2.2, 1.7)),
            lead_in: 0.3,
            tick: 0.05,
            fine_resolution_scale: 2.0,
            pen: PenConfig {
                speed: 0.3,
                ..PenConfig::default()
            },
            trace: TraceConfig {
                vicinity_radius: 0.08,
                step_resolution: 0.01,
                ..TraceConfig::default()
            },
            ..Self::paper_default()
        }
    }

    fn multires(&self) -> MultiResConfig {
        let mut c = MultiResConfig::for_region(self.region);
        c.fine_resolution *= self.fine_resolution_scale;
        c.coarse_resolution = c.coarse_resolution.max(c.fine_resolution);
        c.precision = self.precision;
        c
    }

    /// The [`OnlineConfig`] a live tracker over this pipeline's scene should
    /// use: the pipeline tick.
    pub fn online_config(&self) -> OnlineConfig {
        OnlineConfig {
            tick: self.tick,
            ..OnlineConfig::default()
        }
    }
}

/// Everything produced by one trial.
#[derive(Debug, Clone)]
pub struct WordRun {
    /// The word written.
    pub word: String,
    /// The pen's ground-truth motion (the VICON substitute).
    pub truth: TimedPath,
    /// Snapshot timestamps (one per traced point).
    pub times: Vec<f64>,
    /// Ground-truth positions at the snapshot times.
    pub truth_at_ticks: Vec<Point2>,
    /// The candidate initial positions the positioner proposed.
    pub candidates: Vec<Candidate>,
    /// All candidate traces (winner first is NOT guaranteed; see
    /// `winner`).
    pub traces: Vec<TraceResult>,
    /// Index of the winning trace in `traces`.
    pub winner: usize,
    /// The winning RF-IDraw trajectory (same length as `times`).
    pub rfidraw_trace: Vec<Point2>,
    /// The baseline's per-tick independent estimates (same length as
    /// `times`).
    pub baseline_trace: Vec<Point2>,
}

impl WordRun {
    /// The winning trace's result object.
    pub fn winning_trace(&self) -> &TraceResult {
        &self.traces[self.winner]
    }

    /// RF-IDraw's initial-position error (m).
    pub fn initial_position_error(&self) -> f64 {
        self.candidates[self.winner.min(self.candidates.len() - 1)]
            .position
            .dist(self.truth_at_ticks[0])
    }

    /// The baseline's initial-position error (m).
    pub fn baseline_initial_position_error(&self) -> f64 {
        self.baseline_trace[0].dist(self.truth_at_ticks[0])
    }

    /// RF-IDraw point-by-point trajectory errors after removing the initial
    /// offset (m) — the paper's §8.1 metric.
    pub fn rfidraw_errors(&self) -> Vec<f64> {
        rfidraw_metrics::initial_aligned_errors(&self.rfidraw_trace, &self.truth_at_ticks)
    }

    /// Baseline point-by-point errors after removing the DC offset (m).
    pub fn baseline_errors(&self) -> Vec<f64> {
        rfidraw_metrics::dc_aligned_errors(&self.baseline_trace, &self.truth_at_ticks)
    }

    /// Median RF-IDraw trajectory error in centimetres.
    pub fn median_trajectory_error_cm(&self) -> f64 {
        rfidraw_metrics::Cdf::from_samples(self.rfidraw_errors()).median() * 100.0
    }

    /// Splits a reconstructed trajectory into per-letter segments using the
    /// ground truth's letter timing (the paper's manual segmentation).
    pub fn letter_segments(&self, trace: &[Point2]) -> Vec<Vec<Point2>> {
        assert_eq!(trace.len(), self.times.len(), "trace/tick length mismatch");
        (0..self.word.len())
            .filter_map(|li| {
                let span = self.truth.letter_span(li)?;
                let t0 = self.truth.samples[span.start].t;
                let t1 = self.truth.samples[span.end - 1].t;
                let seg: Vec<Point2> = self
                    .times
                    .iter()
                    .zip(trace)
                    .filter(|(t, _)| **t >= t0 && **t <= t1)
                    .map(|(_, p)| *p)
                    .collect();
                Some(seg)
            })
            .collect()
    }
}

/// Failures of a pipeline run.
#[derive(Debug)]
pub enum PipelineError {
    /// The word could not be laid out.
    Layout(LayoutError),
    /// The read stream was too sparse to snapshot (tag out of range, or
    /// severe loss).
    Stream(StreamError),
    /// The positioner returned no candidates.
    NoCandidates,
}

impl std::fmt::Display for PipelineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PipelineError::Layout(e) => write!(f, "layout failed: {e}"),
            PipelineError::Stream(e) => write!(f, "stream construction failed: {e}"),
            PipelineError::NoCandidates => write!(f, "positioning produced no candidates"),
        }
    }
}

impl std::error::Error for PipelineError {}

impl From<LayoutError> for PipelineError {
    fn from(e: LayoutError) -> Self {
        PipelineError::Layout(e)
    }
}

impl From<StreamError> for PipelineError {
    fn from(e: StreamError) -> Self {
        PipelineError::Stream(e)
    }
}

/// Generates the ground-truth pen motion for one `(word, user)` pair.
pub fn ground_truth(word: &str, user: u64, cfg: &PipelineConfig) -> Result<TimedPath, LayoutError> {
    let path = layout_word(word, cfg.x_height, cfg.x_height * 0.25)?.place_at(cfg.start_point);
    let pen = PenConfig {
        start_time: cfg.lead_in,
        ..cfg.pen
    };
    Ok(write_word(&path, Style::user(user), pen))
}

/// Simulates the read stream for an arbitrary deployment and pen motion,
/// then snapshots the pairs of that deployment.
fn simulate_snapshots(
    dep: &Deployment,
    pairs: Vec<rfidraw_core::array::AntennaPair>,
    truth: &TimedPath,
    cfg: &PipelineConfig,
    seed_salt: u64,
) -> Result<Vec<PairSnapshot>, StreamError> {
    let plane = Plane::at_depth(cfg.depth);
    let channel = Channel::new(dep.clone(), cfg.scenario.config(), cfg.seed ^ seed_salt);
    let mut sim = InventorySim::new(
        channel,
        InventoryConfig::paper_default(cfg.dwell, cfg.seed ^ seed_salt ^ 0x9e37),
    );
    let trajectory = move |t: f64| plane.lift(truth.position_at(t));
    let epc = Epc::from_index(1);
    let duration = truth.samples.last().map(|s| s.t).unwrap_or(0.0) + cfg.lead_in;
    let records = sim.run(
        &[SimTag {
            epc,
            trajectory: &trajectory,
        }],
        duration,
    );
    let mut reads = phase_reads(&records, epc);
    let mut injector = FaultInjector::new(cfg.fault, cfg.seed ^ seed_salt ^ 0xFA17);
    reads = injector.apply(&reads);
    if let Some(hampel) = cfg.hampel {
        reads = rfidraw_core::filter::hampel_filter(&reads, hampel);
    }
    SnapshotBuilder::new(pairs, cfg.tick).build(&reads)
}

/// Averages the pair phases of the stationary lead-in snapshots into one
/// low-noise measurement set for initial positioning. Uses the unwrapped
/// turns (continuous, so a plain mean is valid while the tag is still) of
/// snapshots within the first half of the lead-in.
fn averaged_initial_measurements(
    snapshots: &[PairSnapshot],
    lead_in: f64,
    tick: f64,
) -> Vec<rfidraw_core::vote::PairMeasurement> {
    let t0 = snapshots[0].t;
    let k = ((lead_in * 0.5 / tick).floor() as usize).clamp(1, snapshots.len());
    let window: Vec<&PairSnapshot> = snapshots
        .iter()
        .take(k)
        .filter(|s| s.t - t0 <= lead_in * 0.5)
        .collect();
    let window = if window.is_empty() {
        vec![&snapshots[0]]
    } else {
        window
    };
    snapshots[0]
        .unwrapped_turns
        .iter()
        .enumerate()
        .map(|(i, &(pair, _))| {
            let mean_turns: f64 = window
                .iter()
                .map(|s| s.unwrapped_turns[i].1)
                .sum::<f64>()
                / window.len() as f64;
            rfidraw_core::vote::PairMeasurement::new(
                pair,
                rfidraw_core::phase::wrap_pi(mean_turns * std::f64::consts::TAU),
            )
        })
        .collect()
}

/// Runs one complete trial.
pub fn run_word(word: &str, user: u64, cfg: &PipelineConfig) -> Result<WordRun, PipelineError> {
    let truth = ground_truth(word, user, cfg)?;
    let plane = Plane::at_depth(cfg.depth);

    // --- RF-IDraw system ---
    let dep = Deployment::paper_default();
    let pairs: Vec<_> = dep.all_pairs().copied().collect();
    let snapshots = simulate_snapshots(&dep, pairs, &truth, cfg, 0x51)?;
    if snapshots.is_empty() {
        return Err(PipelineError::Stream(StreamError::NoCommonSpan));
    }

    let positioner = MultiResPositioner::new(dep.clone(), plane, cfg.multires());
    // The user holds still during the lead-in; averaging the first few
    // snapshots' (continuous) pair phases beats using a single noisy one —
    // the paper's "initial phase measurements" (§5.2) are likewise plural.
    let initial_ms = averaged_initial_measurements(&snapshots, cfg.lead_in, cfg.tick);
    let candidates = positioner.locate(&initial_ms);
    if candidates.is_empty() {
        return Err(PipelineError::NoCandidates);
    }

    let tracer = TrajectoryTracer::new(dep, plane, cfg.trace.clone());
    let (winner, traces) = tracer.trace_candidates(&candidates, &snapshots);

    // --- Baseline system (same antenna count, two ULAs) ---
    let baseline = BaselineArrays::paper_default();
    let b_snapshots = simulate_snapshots(
        baseline.deployment(),
        baseline.pairs(),
        &truth,
        cfg,
        0xB5,
    )?;
    let baseline_trace: Vec<Point2> = baseline
        .trace(&b_snapshots, plane, cfg.region)
        .into_iter()
        .collect();

    // Align everything on the RF-IDraw snapshot clock.
    let times: Vec<f64> = snapshots.iter().map(|s| s.t).collect();
    let truth_at_ticks: Vec<Point2> = times.iter().map(|&t| truth.position_at(t)).collect();
    let rfidraw_trace = traces[winner].points.clone();
    // The baseline ran on its own snapshot clock; index-align it.
    let baseline_trace = rfidraw_metrics::index_resample(&baseline_trace, times.len());

    Ok(WordRun {
        word: word.to_string(),
        truth,
        times,
        truth_at_ticks,
        candidates,
        traces,
        winner,
        rfidraw_trace,
        baseline_trace,
    })
}

/// Samples `n` words from the embedded corpus, reproducibly.
pub fn sample_words(n: usize, seed: u64) -> Vec<&'static str> {
    use rand::SeedableRng;
    let corpus = Corpus::common();
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    corpus.sample(&mut rng, n)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fast_demo_run_traces_a_short_word() {
        let cfg = PipelineConfig::fast_demo();
        let run = run_word("on", 0, &cfg).expect("pipeline succeeds");
        assert_eq!(run.rfidraw_trace.len(), run.times.len());
        assert_eq!(run.baseline_trace.len(), run.times.len());
        assert!(!run.candidates.is_empty());
        assert!(run.winner < run.traces.len());
        // The shape error should be centimetre-scale even in the demo config.
        let median = run.median_trajectory_error_cm();
        assert!(median < 15.0, "median shape error {median} cm");
    }

    #[test]
    fn rfidraw_beats_baseline_on_shape() {
        let cfg = PipelineConfig::fast_demo();
        let run = run_word("so", 1, &cfg).expect("pipeline succeeds");
        let med = |v: Vec<f64>| rfidraw_metrics::Cdf::from_samples(v).median();
        let rf = med(run.rfidraw_errors());
        let bl = med(run.baseline_errors());
        assert!(
            rf < bl,
            "RF-IDraw median {rf:.3} m should beat baseline {bl:.3} m"
        );
    }

    #[test]
    fn ground_truth_is_deterministic() {
        let cfg = PipelineConfig::fast_demo();
        let a = ground_truth("play", 2, &cfg).unwrap();
        let b = ground_truth("play", 2, &cfg).unwrap();
        assert_eq!(a, b);
        let c = ground_truth("play", 3, &cfg).unwrap();
        assert_ne!(a, c, "different users should write differently");
    }

    #[test]
    fn letter_segments_cover_the_word() {
        let cfg = PipelineConfig::fast_demo();
        let run = run_word("it", 0, &cfg).expect("pipeline succeeds");
        let segs = run.letter_segments(&run.rfidraw_trace);
        assert_eq!(segs.len(), 2);
        for (i, s) in segs.iter().enumerate() {
            assert!(s.len() > 3, "letter {i} segment has only {} points", s.len());
        }
    }

    #[test]
    fn sample_words_is_reproducible() {
        assert_eq!(sample_words(10, 7), sample_words(10, 7));
        assert_eq!(sample_words(10, 7).len(), 10);
    }

    #[test]
    fn unsupported_word_is_a_layout_error() {
        let cfg = PipelineConfig::fast_demo();
        match run_word("Hello", 0, &cfg) {
            Err(PipelineError::Layout(_)) => {}
            other => panic!("expected layout error, got {other:?}"),
        }
    }
}
