//! Thread CPU time from `/proc`.
//!
//! The server runs inside the benchmark process, so its CPU is the
//! process total minus the load generator's own threads. The process
//! total also covers threads that already exited (the short-lived scoped
//! helpers the vote-map evaluation spawns), which a per-thread walk would
//! miss. Times are in clock ticks of 10 ms (`USER_HZ` = 100 on Linux).

use std::time::Instant;

/// Milliseconds per clock tick.
pub const MS_PER_TICK: f64 = 10.0;

/// `utime + stime` from a `stat` line, in ticks. The command name sits in
/// parentheses and may hold spaces, so fields are counted after the last
/// `)`.
fn stat_ticks(stat: &str) -> Option<(String, u64)> {
    let open = stat.find('(')?;
    let close = stat.rfind(')')?;
    let comm = stat[open + 1..close].to_string();
    let rest: Vec<&str> = stat[close + 1..].split_whitespace().collect();
    // rest[0] is field 3 (state); utime and stime are fields 14 and 15.
    let utime: u64 = rest.get(11)?.parse().ok()?;
    let stime: u64 = rest.get(12)?.parse().ok()?;
    Some((comm, utime + stime))
}

/// The calling thread's kernel thread id.
pub fn thread_id() -> u32 {
    std::fs::read_link("/proc/thread-self")
        .ok()
        .and_then(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .and_then(|s| s.parse().ok())
        })
        .unwrap_or(0)
}

/// One thread's CPU at a snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ThreadCpu {
    /// Kernel thread id.
    pub tid: u32,
    /// Thread name (`comm`, cut to 15 bytes by the kernel).
    pub comm: String,
    /// `utime + stime` in ticks.
    pub ticks: u64,
}

/// Process and per-thread CPU at one instant.
#[derive(Debug, Clone)]
pub struct CpuSnap {
    /// When it was taken.
    pub at: Instant,
    /// Whole-process ticks, exited threads included.
    pub process: u64,
    /// Every live thread.
    pub threads: Vec<ThreadCpu>,
}

impl CpuSnap {
    /// Reads `/proc/self/stat` and every `/proc/self/task/*/stat`.
    pub fn take() -> Self {
        let at = Instant::now();
        let process = std::fs::read_to_string("/proc/self/stat")
            .ok()
            .and_then(|s| stat_ticks(&s))
            .map_or(0, |(_, t)| t);
        let mut threads = Vec::new();
        if let Ok(dir) = std::fs::read_dir("/proc/self/task") {
            for entry in dir.flatten() {
                let Some(tid) = entry.file_name().to_str().and_then(|s| s.parse().ok()) else {
                    continue;
                };
                if let Some((comm, ticks)) = std::fs::read_to_string(entry.path().join("stat"))
                    .ok()
                    .and_then(|s| stat_ticks(&s))
                {
                    threads.push(ThreadCpu { tid, comm, ticks });
                }
            }
        }
        threads.sort_by_key(|t| t.tid);
        Self {
            at,
            process,
            threads,
        }
    }

    fn ticks_where(&self, pred: impl Fn(&ThreadCpu) -> bool) -> u64 {
        self.threads
            .iter()
            .filter(|t| pred(t))
            .map(|t| t.ticks)
            .sum()
    }
}

/// CPU spent between two snapshots, split by who spent it.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CpuDelta {
    /// Wall time between the snapshots (s).
    pub wall_s: f64,
    /// Everything but the load generator's threads (ms).
    pub server_ms: f64,
    /// The reactor thread(s) (ms).
    pub reactor_ms: f64,
    /// Server CPU not on a reactor thread: workers and their helpers (ms).
    pub worker_ms: f64,
}

impl CpuDelta {
    /// The CPU between `a` and `b`, excluding the threads in `client`.
    pub fn between(a: &CpuSnap, b: &CpuSnap, client: &[u32]) -> Self {
        let is_client = |t: &ThreadCpu| client.contains(&t.tid);
        let is_reactor = |t: &ThreadCpu| t.comm.starts_with("rfidraw-reactor");
        let d = |x: u64, y: u64| y.saturating_sub(x) as f64 * MS_PER_TICK;
        let client_ms = d(a.ticks_where(is_client), b.ticks_where(is_client));
        let server_ms = (d(a.process, b.process) - client_ms).max(0.0);
        let reactor_ms = d(a.ticks_where(is_reactor), b.ticks_where(is_reactor));
        Self {
            wall_s: b.at.duration_since(a.at).as_secs_f64(),
            server_ms,
            reactor_ms,
            worker_ms: (server_ms - reactor_ms).max(0.0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_parsing_skips_spaces_in_comm() {
        let line = "42 (rfidraw serve) S 1 2 3 4 5 6 7 8 9 10 120 30 0 0 20 0 1 0";
        assert_eq!(stat_ticks(line), Some(("rfidraw serve".to_string(), 150)));
    }

    #[test]
    fn own_thread_is_listed() {
        let tid = thread_id();
        assert!(tid > 0);
        assert!(CpuSnap::take().threads.iter().any(|t| t.tid == tid));
    }
}
