//! Execution policy for the compute-heavy kernels (vote maps, tracing).
//!
//! [`Parallelism`] selects how much thread-level parallelism the vote-map
//! engine and the tracer use. Every parallel code path in this workspace is
//! **deterministic**: each output cell (or candidate trace) is computed
//! independently by exactly the same sequence of floating-point operations
//! regardless of how the work is sharded, so results are bit-identical
//! across [`Parallelism::Serial`], any [`Parallelism::Threads`] count and
//! [`Parallelism::Auto`]. There are no cross-shard floating-point
//! reductions — shards write disjoint output slices and never combine
//! partial sums.
//!
//! The helpers here are deliberately minimal: scoped threads
//! (`std::thread::scope`) over disjoint `chunks_mut` slices, no work
//! stealing, no shared mutable state. A shard is a contiguous block of
//! whole "rows" (cells, or table rows), which keeps writes cache-friendly
//! and makes the disjointness obvious.

use serde::{Deserialize, Serialize};
use std::sync::OnceLock;

/// How many threads the vote-map engine and tracer may use.
///
/// The choice never changes any result, only wall-clock time: see the
/// module docs for the determinism guarantee.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Parallelism {
    /// Single-threaded: run everything on the calling thread.
    Serial,
    /// A fixed number of worker threads (values below 1 behave as 1).
    Threads(usize),
    /// Use [`std::thread::available_parallelism`] threads (the default),
    /// resolved once per process.
    Auto,
}

impl Default for Parallelism {
    fn default() -> Self {
        Parallelism::Auto
    }
}

impl Parallelism {
    /// The number of worker threads this policy resolves to on this machine.
    ///
    /// `Auto` asks [`std::thread::available_parallelism`] once and caches
    /// the answer for the life of the process: on Linux the query re-reads
    /// the cgroup CPU quota files on every call, tens of microseconds that
    /// every `Auto` sweep would otherwise pay.
    pub fn thread_count(self) -> usize {
        static AUTO: OnceLock<usize> = OnceLock::new();
        match self {
            Parallelism::Serial => 1,
            Parallelism::Threads(n) => n.max(1),
            Parallelism::Auto => *AUTO.get_or_init(|| {
                std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(1)
            }),
        }
    }

    /// Fills `out` by sharding it into contiguous blocks of whole rows of
    /// `row_len` elements, one block per worker thread. `fill` is called
    /// once per shard with `(first_row, shard)` where `shard` covers rows
    /// `first_row ..` of the output.
    ///
    /// Determinism: each element is written by exactly one shard, and `fill`
    /// must compute an element the same way regardless of which shard it
    /// lands in (which is automatic when it only depends on the element's
    /// global row index). Under that contract the output is bit-identical
    /// for every thread count.
    ///
    /// # Panics
    /// Panics if `row_len` is zero or does not divide `out.len()`, or
    /// propagates a panic from `fill`.
    pub fn run_row_sharded<T, F>(self, out: &mut [T], row_len: usize, fill: F)
    where
        T: Send,
        F: Fn(usize, &mut [T]) + Sync,
    {
        assert!(row_len > 0, "row length must be positive");
        assert_eq!(
            out.len() % row_len,
            0,
            "output length {} is not a whole number of rows of {row_len}",
            out.len()
        );
        let rows = out.len() / row_len;
        let threads = self.thread_count().min(rows.max(1));
        if threads <= 1 {
            fill(0, out);
            return;
        }
        // Even split by rows; the last shard may be short.
        let rows_per_shard = (rows + threads - 1) / threads;
        let chunk = rows_per_shard * row_len;
        std::thread::scope(|scope| {
            for (shard_idx, shard) in out.chunks_mut(chunk).enumerate() {
                let fill = &fill;
                scope.spawn(move || fill(shard_idx * rows_per_shard, shard));
            }
        });
    }

    /// Maps `f` over `items`, preserving order in the output. Each worker
    /// thread owns a contiguous block of items; results land in their
    /// original positions, so downstream order-sensitive selection (e.g.
    /// "last maximum wins" tie-breaks) behaves exactly as a serial map.
    pub fn map_ordered<T, R, F>(self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(&T) -> R + Sync,
    {
        let threads = self.thread_count().min(items.len().max(1));
        if threads <= 1 {
            return items.iter().map(f).collect();
        }
        let mut out: Vec<Option<R>> = Vec::new();
        out.resize_with(items.len(), || None);
        let chunk = (items.len() + threads - 1) / threads;
        std::thread::scope(|scope| {
            for (slots, block) in out.chunks_mut(chunk).zip(items.chunks(chunk)) {
                let f = &f;
                scope.spawn(move || {
                    for (slot, item) in slots.iter_mut().zip(block) {
                        *slot = Some(f(item));
                    }
                });
            }
        });
        out.into_iter()
            .map(|r| r.expect("every mapped slot is filled"))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thread_count_resolves() {
        assert_eq!(Parallelism::Serial.thread_count(), 1);
        assert_eq!(Parallelism::Threads(3).thread_count(), 3);
        assert_eq!(Parallelism::Threads(0).thread_count(), 1);
        assert!(Parallelism::Auto.thread_count() >= 1);
    }

    #[test]
    fn row_sharded_fill_is_identical_across_thread_counts() {
        let reference = |len: usize| -> Vec<f64> {
            (0..len).map(|i| (i as f64).sin() * 0.1).collect()
        };
        for len in [1usize, 7, 64, 1000] {
            let expect = reference(len);
            for par in [
                Parallelism::Serial,
                Parallelism::Threads(2),
                Parallelism::Threads(5),
                Parallelism::Auto,
            ] {
                let mut out = vec![0.0; len];
                par.run_row_sharded(&mut out, 1, |first, shard| {
                    for (i, v) in shard.iter_mut().enumerate() {
                        *v = ((first + i) as f64).sin() * 0.1;
                    }
                });
                assert_eq!(out, expect, "{par:?} len {len}");
            }
        }
    }

    #[test]
    fn row_sharded_respects_row_boundaries() {
        // Rows of 3: each row must be filled from its own row index.
        let mut out = vec![0usize; 5 * 3];
        Parallelism::Threads(4).run_row_sharded(&mut out, 3, |first_row, shard| {
            for (r, row) in shard.chunks_mut(3).enumerate() {
                for v in row {
                    *v = first_row + r;
                }
            }
        });
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, i / 3);
        }
    }

    #[test]
    #[should_panic(expected = "whole number of rows")]
    fn row_sharded_rejects_ragged_rows() {
        let mut out = vec![0.0; 7];
        Parallelism::Serial.run_row_sharded(&mut out, 3, |_, _| {});
    }

    #[test]
    fn map_ordered_preserves_order() {
        let items: Vec<usize> = (0..37).collect();
        let expect: Vec<usize> = items.iter().map(|i| i * i).collect();
        for par in [
            Parallelism::Serial,
            Parallelism::Threads(2),
            Parallelism::Threads(8),
        ] {
            let got = par.map_ordered(&items, |&i| i * i);
            assert_eq!(got, expect, "{par:?}");
        }
    }

    #[test]
    fn map_ordered_handles_empty_and_single() {
        let empty: Vec<u32> = Vec::new();
        assert!(Parallelism::Threads(4).map_ordered(&empty, |&x| x).is_empty());
        assert_eq!(Parallelism::Threads(4).map_ordered(&[5u32], |&x| x + 1), vec![6]);
    }
}
