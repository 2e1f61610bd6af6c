//! Exporting runs for external tooling.
//!
//! Reconstructed trajectories are most useful outside the terminal — in a
//! plotting notebook, a gesture dataset, or a regression corpus. This
//! module serializes a [`WordRun`] into JSON and
//! CSV forms that preserve everything an analysis needs: the time base,
//! ground truth, both systems' reconstructions and the candidate votes.

use crate::pipeline::WordRun;
use rfidraw_core::geom::Point2;
use serde::{Deserialize, Serialize};

/// The JSON export schema for one trial.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunExport {
    /// The word written.
    pub word: String,
    /// Snapshot timestamps (s).
    pub times: Vec<f64>,
    /// Ground truth at the snapshot times.
    pub truth: Vec<Point2>,
    /// RF-IDraw's winning reconstruction.
    pub rfidraw: Vec<Point2>,
    /// The antenna-array baseline's reconstruction.
    pub baseline: Vec<Point2>,
    /// `(initial error m, cumulative vote)` per candidate, winner first.
    pub candidates: Vec<(f64, f64)>,
    /// Index of the winning candidate in the original candidate order.
    pub winner: usize,
}

impl RunExport {
    /// Builds the export view of a run.
    pub fn from_run(run: &WordRun) -> Self {
        Self {
            word: run.word.clone(),
            times: run.times.clone(),
            truth: run.truth_at_ticks.clone(),
            rfidraw: run.rfidraw_trace.clone(),
            baseline: run.baseline_trace.clone(),
            candidates: run
                .candidates
                .iter()
                .zip(&run.traces)
                .map(|(c, t)| (c.position.dist(run.truth_at_ticks[0]), t.total_vote))
                .collect(),
            winner: run.winner,
        }
    }

    /// Serializes to pretty JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("export schema is serializable")
    }

    /// Parses a previously exported run.
    pub fn from_json(s: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(s)
    }

    /// CSV with one row per tick: `t, truth_x, truth_z, rf_x, rf_z, bl_x,
    /// bl_z`.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("t,truth_x,truth_z,rfidraw_x,rfidraw_z,baseline_x,baseline_z\n");
        for i in 0..self.times.len() {
            out.push_str(&format!(
                "{},{},{},{},{},{},{}\n",
                self.times[i],
                self.truth[i].x,
                self.truth[i].z,
                self.rfidraw[i].x,
                self.rfidraw[i].z,
                self.baseline[i].x,
                self.baseline[i].z,
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{run_word, PipelineConfig};

    fn sample_run() -> WordRun {
        let mut cfg = PipelineConfig::fast_demo();
        cfg.seed = 13;
        run_word("it", 0, &cfg).expect("pipeline succeeds")
    }

    #[test]
    fn json_roundtrip_preserves_everything() {
        let run = sample_run();
        let export = RunExport::from_run(&run);
        let json = export.to_json();
        let back = RunExport::from_json(&json).expect("parses");
        assert_eq!(export, back);
        assert_eq!(back.word, "it");
        assert_eq!(back.times.len(), back.rfidraw.len());
    }

    #[test]
    fn csv_has_one_row_per_tick_plus_header() {
        let run = sample_run();
        let export = RunExport::from_run(&run);
        let csv = export.to_csv();
        let lines: Vec<&str> = csv.trim_end().lines().collect();
        assert_eq!(lines.len(), export.times.len() + 1);
        assert!(lines[0].starts_with("t,truth_x"));
        assert_eq!(lines[1].split(',').count(), 7);
    }

    #[test]
    fn candidates_are_exported_with_votes() {
        let run = sample_run();
        let export = RunExport::from_run(&run);
        assert_eq!(export.candidates.len(), run.candidates.len());
        assert!(export.winner < export.candidates.len());
        for (err, vote) in &export.candidates {
            assert!(*err >= 0.0 && err.is_finite());
            assert!(vote.is_finite());
        }
    }

    #[test]
    fn from_json_rejects_garbage() {
        assert!(RunExport::from_json("not json").is_err());
        assert!(RunExport::from_json("{}").is_err());
    }
}
