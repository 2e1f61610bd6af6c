//! The EPC-sharded session registry.
//!
//! Sessions are placed by an FNV-1a hash of the EPC bytes
//! ([`rfidraw_net::shard_index`]), so a tag's session lives on exactly one
//! shard for its whole life — sessions never migrate, and ingest routing
//! and the idle sweep touch one shard's lock at a time instead of a single
//! global registry lock. The global `max_sessions` cap is enforced with
//! one atomic (`fetch_update` under the owning shard's lock), so the cap
//! stays exact without any cross-shard locking.
//!
//! The registry only finds sessions; workers take runnable ones from the
//! service's ready queue. Each session keeps its own FIFO queue and
//! `scheduled` flag, so per-tag read order (and therefore every
//! trajectory) is bit-identical to a standalone tracker — the crate's
//! integration tests assert this in-process and over TCP.

use crate::session::SessionShared;
use crate::telemetry::ShardTelemetry;
use rfidraw_metrics::runtime::Counter;
use rfidraw_protocol::Epc;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// The registry's shard count. Each shard has its own lock, so producers
/// of different tags rarely contend; telemetry reports one row per shard.
pub(crate) const SHARDS: usize = 8;

/// One shard: an independently locked slice of the session map plus its
/// own drain bookkeeping.
pub(crate) struct Shard {
    sessions: Mutex<BTreeMap<Epc, Arc<SessionShared>>>,
    /// Reads drained from this shard's sessions, inline ones included
    /// (sums to the service's `reads_processed` — a conservation check in
    /// the fault tests).
    pub drained: Counter,
    /// Dequeues of this shard's sessions from the ready queue (inline
    /// drains are not visits).
    pub visits: Counter,
}

impl Shard {
    fn new() -> Self {
        Self {
            sessions: Mutex::new(BTreeMap::new()),
            drained: Counter::new(),
            visits: Counter::new(),
        }
    }
}

/// When an insert is refused because the registry is at its session cap.
pub(crate) struct RegistryFull;

/// The sharded registry (see the module docs).
pub(crate) struct ShardedRegistry {
    shards: [Shard; SHARDS],
    /// Live sessions across all shards; bounded by the cap at insert.
    live: AtomicUsize,
}

impl ShardedRegistry {
    pub fn new() -> Self {
        Self {
            shards: std::array::from_fn(|_| Shard::new()),
            live: AtomicUsize::new(0),
        }
    }

    /// Which shard owns `epc` (stable for the registry's lifetime).
    pub fn shard_of(&self, epc: Epc) -> usize {
        rfidraw_net::shard_index(&epc.0, self.shards.len())
    }

    pub fn get(&self, epc: Epc) -> Option<Arc<SessionShared>> {
        let shard = &self.shards[self.shard_of(epc)];
        shard.sessions.lock().expect("shard lock").get(&epc).cloned()
    }

    /// Returns the existing session or inserts the one `build` creates,
    /// refusing with [`RegistryFull`] at `max_sessions` live sessions.
    /// The cap is exact: the live count is claimed atomically before the
    /// insert, under the owning shard's lock only.
    pub fn get_or_insert(
        &self,
        epc: Epc,
        max_sessions: usize,
        build: impl FnOnce() -> Arc<SessionShared>,
    ) -> Result<(Arc<SessionShared>, bool), RegistryFull> {
        let shard = &self.shards[self.shard_of(epc)];
        let mut map = shard.sessions.lock().expect("shard lock");
        if let Some(s) = map.get(&epc) {
            return Ok((Arc::clone(s), false));
        }
        let claimed = self
            .live
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |n| {
                (n < max_sessions).then_some(n + 1)
            })
            .is_ok();
        if !claimed {
            return Err(RegistryFull);
        }
        let session = build();
        map.insert(epc, Arc::clone(&session));
        Ok((session, true))
    }

    pub fn remove(&self, epc: Epc) -> Option<Arc<SessionShared>> {
        let shard = &self.shards[self.shard_of(epc)];
        let removed = shard.sessions.lock().expect("shard lock").remove(&epc);
        if removed.is_some() {
            self.live.fetch_sub(1, Ordering::AcqRel);
        }
        removed
    }

    /// Removes every session (shutdown); returns them for closing.
    pub fn drain_all(&self) -> Vec<Arc<SessionShared>> {
        let mut all = Vec::new();
        for shard in &self.shards {
            let mut map = shard.sessions.lock().expect("shard lock");
            all.extend(map.values().cloned());
            self.live.fetch_sub(map.len(), Ordering::AcqRel);
            map.clear();
        }
        all
    }

    /// Every live session, shard-major then EPC order.
    pub fn snapshot(&self) -> Vec<Arc<SessionShared>> {
        let mut all = Vec::new();
        for shard in &self.shards {
            all.extend(shard.sessions.lock().expect("shard lock").values().cloned());
        }
        all
    }

    /// Every live session in global EPC order (for stable telemetry and
    /// `active_sessions` listings).
    pub fn snapshot_sorted(&self) -> Vec<Arc<SessionShared>> {
        let mut all = self.snapshot();
        all.sort_by_key(|s| s.epc);
        all
    }

    /// Books one dequeue of `epc`'s session, which drained `reads` reads.
    pub fn note_drain(&self, epc: Epc, reads: usize) {
        let shard = &self.shards[self.shard_of(epc)];
        shard.visits.inc();
        shard.drained.add(reads as u64);
    }

    /// Books `reads` reads the producer of `epc`'s session applied inline:
    /// drained, but no visit (the session never reached the ready queue).
    pub fn note_inline(&self, epc: Epc, reads: usize) {
        self.shards[self.shard_of(epc)].drained.add(reads as u64);
    }

    /// Sessions idle past `timeout` with empty queues and no drain pending
    /// — removed and returned for closing.
    pub fn take_idle(&self, timeout: std::time::Duration) -> Vec<Arc<SessionShared>> {
        let mut evicted = Vec::new();
        for shard in &self.shards {
            let mut map = shard.sessions.lock().expect("shard lock");
            let idle: Vec<Epc> = map
                .iter()
                .filter(|(_, s)| {
                    s.idle_for() > timeout
                        && s.queue_depth() == 0
                        && !s.scheduled.load(Ordering::Acquire)
                })
                .map(|(epc, _)| *epc)
                .collect();
            for epc in idle {
                if let Some(s) = map.remove(&epc) {
                    self.live.fetch_sub(1, Ordering::AcqRel);
                    evicted.push(s);
                }
            }
        }
        evicted
    }

    /// Per-shard telemetry rows (always [`SHARDS`] rows, zeros included,
    /// so operators see the placement spread).
    pub fn telemetry(&self) -> Vec<ShardTelemetry> {
        self.shards
            .iter()
            .enumerate()
            .map(|(i, shard)| {
                let (sessions, queue_depth) = {
                    let map = shard.sessions.lock().expect("shard lock");
                    (map.len() as u64, map.values().map(|s| s.queue_depth() as u64).sum())
                };
                ShardTelemetry {
                    shard: i as u64,
                    sessions,
                    queue_depth,
                    reads_drained: shard.drained.get(),
                    drain_visits: shard.visits.get(),
                }
            })
            .collect()
    }
}
