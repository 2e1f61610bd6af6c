//! Parallel trial execution and shared experiment plumbing.

use rfidraw::pipeline::{run_word, PipelineConfig, WordRun};
use std::sync::Mutex;

/// One trial specification: a word, the writing user, and a seed.
#[derive(Debug, Clone)]
pub struct Trial {
    /// The word to write.
    pub word: String,
    /// Which user style writes it.
    pub user: u64,
    /// Pipeline seed for this trial.
    pub seed: u64,
}

/// The paper's evaluation corpus: `n` words across `users` users, seeds
/// derived deterministically. Words are sampled from the embedded corpus.
pub fn paper_trials(n: usize, users: u64, seed: u64) -> Vec<Trial> {
    let words = rfidraw::pipeline::sample_words(n, seed);
    words
        .into_iter()
        .enumerate()
        .map(|(i, word)| Trial {
            word: word.to_string(),
            user: i as u64 % users,
            seed: seed.wrapping_add(i as u64 * 7919),
        })
        .collect()
}

/// Runs all trials in parallel across the available cores, preserving trial
/// order in the output. Each trial runs on one thread, exactly as a direct
/// [`run_word`] call on its seed would. Failed trials (e.g. severe read
/// loss) are returned as `Err` alongside their error message.
pub fn run_batch(
    cfg: &PipelineConfig,
    trials: &[Trial],
) -> Vec<(Trial, Result<WordRun, String>)> {
    let n_threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
        .min(trials.len().max(1));
    let next = Mutex::new(0usize);
    let results: Mutex<Vec<Option<(Trial, Result<WordRun, String>)>>> =
        Mutex::new((0..trials.len()).map(|_| None).collect());

    std::thread::scope(|scope| {
        for _ in 0..n_threads {
            scope.spawn(|| loop {
                let idx = {
                    let mut guard = next.lock().unwrap();
                    let i = *guard;
                    if i >= trials.len() {
                        return;
                    }
                    *guard += 1;
                    i
                };
                let trial = trials[idx].clone();
                let mut local_cfg = cfg.clone();
                local_cfg.seed = trial.seed;
                let outcome = run_word(&trial.word, trial.user, &local_cfg)
                    .map_err(|e| e.to_string());
                results.lock().unwrap()[idx] = Some((trial, outcome));
            });
        }
    });

    results
        .into_inner()
        .expect("no trial thread panicked")
        .into_iter()
        .map(|r| r.expect("every trial slot filled"))
        .collect()
}

/// Pools the per-point RF-IDraw and baseline errors of successful runs.
pub fn pooled_errors(
    results: &[(Trial, Result<WordRun, String>)],
) -> (Vec<f64>, Vec<f64>) {
    let mut rf = Vec::new();
    let mut bl = Vec::new();
    for (_, r) in results {
        if let Ok(run) = r {
            rf.extend(run.rfidraw_errors());
            bl.extend(run.baseline_errors());
        }
    }
    (rf, bl)
}

/// Counts failed trials and reports them through the diagnostics layer
/// (stderr unless `--quiet`, always counted); returns the success count.
pub fn report_failures(results: &[(Trial, Result<WordRun, String>)]) -> usize {
    let mut ok = 0;
    for (t, r) in results {
        match r {
            Ok(_) => ok += 1,
            Err(e) => crate::diag::global()
                .warn(&format!("trial {:?} (user {}) failed: {e}", t.word, t.user)),
        }
    }
    ok
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_trials_are_deterministic_and_spread_users() {
        let a = paper_trials(10, 5, 1);
        let b = paper_trials(10, 5, 1);
        assert_eq!(a.len(), 10);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.word, y.word);
            assert_eq!(x.seed, y.seed);
        }
        let users: std::collections::BTreeSet<u64> = a.iter().map(|t| t.user).collect();
        assert_eq!(users.len(), 5);
    }

    #[test]
    fn run_batch_preserves_order_and_parallelism_is_safe() {
        let cfg = rfidraw::pipeline::PipelineConfig::fast_demo();
        let trials = vec![
            Trial { word: "on".into(), user: 0, seed: 1 },
            Trial { word: "it".into(), user: 1, seed: 2 },
        ];
        let results = run_batch(&cfg, &trials);
        assert_eq!(results.len(), 2);
        assert_eq!(results[0].0.word, "on");
        assert_eq!(results[1].0.word, "it");
        assert_eq!(report_failures(&results), 2);
        let (rf, bl) = pooled_errors(&results);
        assert!(!rf.is_empty() && !bl.is_empty());
        // Each pooled trial must match a direct run on its own seed bit for
        // bit, whichever worker ran it and whatever ran beside it.
        let bits = |points: &[rfidraw::core::geom::Point2]| -> Vec<(u64, u64)> {
            points
                .iter()
                .map(|p| (p.x.to_bits(), p.z.to_bits()))
                .collect()
        };
        for (trial, outcome) in &results {
            let pooled = outcome.as_ref().expect("trial succeeded");
            let mut direct_cfg = cfg.clone();
            direct_cfg.seed = trial.seed;
            let direct =
                run_word(&trial.word, trial.user, &direct_cfg).expect("direct run succeeded");
            let word = &trial.word;
            assert_eq!(
                bits(&pooled.rfidraw_trace),
                bits(&direct.rfidraw_trace),
                "{word}"
            );
            assert_eq!(
                bits(&pooled.baseline_trace),
                bits(&direct.baseline_trace),
                "{word}"
            );
        }
    }
}
