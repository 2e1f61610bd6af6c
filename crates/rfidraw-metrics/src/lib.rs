//! # rfidraw-metrics
//!
//! Evaluation metrics and reporting for the RF-IDraw reproduction.
//!
//! * [`align`] — the paper's trajectory-error metric (§8.1): remove a fixed
//!   offset between reconstruction and ground truth (the *initial-position*
//!   offset for RF-IDraw, the *mean/DC* offset for the baseline — the
//!   latter is favourable to the baseline, exactly as the paper grants),
//!   then measure point-by-point distances.
//! * [`cdf`] — empirical CDFs, medians and percentiles (Figs. 11–12).
//! * [`report`] — plain-text tables and CSV series in a consistent format,
//!   including paper-vs-measured comparison rows for `EXPERIMENTS.md`.
//! * [`runtime`] — service telemetry: lock-free counters and fixed-bucket
//!   latency histograms with serializable snapshots (used by
//!   `rfidraw-serve`).
//! * [`trace`] — the pipeline trace recorder: a bounded ring of
//!   `rfidraw-core` trace events behind one lock, per-stage latency
//!   histograms, and an anomaly-triggered flight recorder producing
//!   serializable [`TraceDump`]s.
//! * [`exposition`] — Prometheus text-format rendering of counters and
//!   histograms.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod align;
pub mod bootstrap;
pub mod cdf;
pub mod exposition;
pub mod report;
pub mod runtime;
pub mod shape;
pub mod trace;

pub use align::{dc_aligned_errors, index_resample, initial_aligned_errors};
pub use bootstrap::{median_ci, BootstrapCi};
pub use cdf::Cdf;
pub use exposition::PromText;
pub use report::{Comparison, Series, Table};
pub use runtime::{Counter, HistogramSnapshot, LatencyHistogram};
pub use trace::{StageLatency, TraceDump, TraceEventRecord, TraceRecorder, TraceSettings};
pub use shape::{dtw_distance, procrustes, procrustes_distance, Procrustes};
