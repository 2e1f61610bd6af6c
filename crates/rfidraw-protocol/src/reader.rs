//! A multi-port reader and its antenna dwell schedule.
//!
//! Commercial 4-port readers (the paper uses ThingMagic M6e units \[33\])
//! drive one antenna at a time, cycling ports on a configurable dwell. The
//! dwell time is the key sampling knob: a short dwell revisits every
//! antenna often (good for phase unwrapping of a moving tag) at the cost of
//! more switching overhead.

use rfidraw_core::array::{AntennaId, ReaderId};
use serde::{Deserialize, Serialize};

/// Static configuration of one reader.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReaderConfig {
    /// The reader's identity (must match the deployment's antennas).
    pub reader: ReaderId,
    /// The antennas on this reader's ports, in cycling order.
    pub ports: Vec<AntennaId>,
    /// Time spent on each port before switching (s).
    pub dwell: f64,
    /// Dead time consumed by the RF switch at each port change (s).
    pub switch_time: f64,
}

impl ReaderConfig {
    /// Creates a reader configuration.
    ///
    /// # Panics
    /// Panics if there are no ports, duplicate ports, or non-positive
    /// dwell/switch times.
    pub fn new(reader: ReaderId, ports: Vec<AntennaId>, dwell: f64, switch_time: f64) -> Self {
        assert!(!ports.is_empty(), "a reader needs at least one port");
        let mut sorted = ports.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), ports.len(), "duplicate antenna on reader ports");
        assert!(dwell.is_finite() && dwell > 0.0, "dwell must be positive");
        assert!(
            switch_time.is_finite() && switch_time >= 0.0,
            "switch time must be non-negative"
        );
        Self {
            reader,
            ports,
            dwell,
            switch_time,
        }
    }

    /// The paper deployment's two readers with a given port dwell:
    /// reader 1 on antennas 1–4, reader 2 on antennas 5–8.
    pub fn paper_pair(dwell: f64) -> Vec<ReaderConfig> {
        let ids = |lo: u8| (lo..lo + 4).map(AntennaId).collect::<Vec<_>>();
        vec![
            ReaderConfig::new(ReaderId(1), ids(1), dwell, 1.0e-3),
            ReaderConfig::new(ReaderId(2), ids(5), dwell, 1.0e-3),
        ]
    }

    /// Duration of one full port cycle.
    pub fn cycle(&self) -> f64 {
        self.ports.len() as f64 * (self.dwell + self.switch_time)
    }
}

/// Tracks which port a reader is on at any simulation time.
#[derive(Debug, Clone)]
pub struct PortSchedule {
    cfg: ReaderConfig,
}

impl PortSchedule {
    /// Creates the schedule for one reader.
    pub fn new(cfg: ReaderConfig) -> Self {
        Self { cfg }
    }

    /// The reader configuration.
    pub fn config(&self) -> &ReaderConfig {
        &self.cfg
    }

    /// The global slot index and offset within it at time `t`. A "slot"
    /// here is one dwell plus its trailing switch gap.
    fn slot_of(&self, t: f64) -> (u64, f64) {
        let slot = self.cfg.dwell + self.cfg.switch_time;
        let idx = (t / slot).floor().max(0.0) as u64;
        let within = t - idx as f64 * slot;
        (idx, within)
    }

    /// The antenna active at time `t`, or `None` during a switch gap.
    pub fn active_antenna(&self, t: f64) -> Option<AntennaId> {
        let (idx, within) = self.slot_of(t);
        if within < self.cfg.dwell {
            Some(self.cfg.ports[(idx % self.cfg.ports.len() as u64) as usize])
        } else {
            None
        }
    }

    /// The time the currently-active dwell period ends (or the next dwell
    /// begins, when `t` falls in a switch gap). Guaranteed to be strictly
    /// greater than `t`: floating-point rounding at an exact slot boundary
    /// would otherwise stall callers that loop on this value, so such edge
    /// cases skip forward one whole slot.
    pub fn next_boundary(&self, t: f64) -> f64 {
        let slot = self.cfg.dwell + self.cfg.switch_time;
        let (idx, within) = self.slot_of(t);
        let nb = if within < self.cfg.dwell {
            idx as f64 * slot + self.cfg.dwell
        } else {
            (idx + 1) as f64 * slot
        };
        if nb > t {
            nb
        } else {
            (idx + 2) as f64 * slot
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> ReaderConfig {
        ReaderConfig::new(
            ReaderId(1),
            vec![AntennaId(1), AntennaId(2), AntennaId(3), AntennaId(4)],
            0.030,
            0.002,
        )
    }

    #[test]
    fn schedule_cycles_all_ports() {
        let s = PortSchedule::new(cfg());
        let mut seen = std::collections::BTreeSet::new();
        let mut t = 0.0;
        while t < s.config().cycle() {
            if let Some(a) = s.active_antenna(t) {
                seen.insert(a);
            }
            t += 0.001;
        }
        assert_eq!(seen.len(), 4);
    }

    #[test]
    fn switch_gaps_have_no_antenna() {
        let s = PortSchedule::new(cfg());
        // Just after the first dwell (30 ms) there is a 2 ms gap.
        assert_eq!(s.active_antenna(0.0305), None);
        assert_eq!(s.active_antenna(0.010), Some(AntennaId(1)));
        assert_eq!(s.active_antenna(0.033), Some(AntennaId(2)));
    }

    #[test]
    fn schedule_is_periodic() {
        let s = PortSchedule::new(cfg());
        let cycle = s.config().cycle();
        for i in 0..200 {
            let t = i as f64 * 0.0007;
            assert_eq!(s.active_antenna(t), s.active_antenna(t + cycle));
        }
    }

    #[test]
    fn next_boundary_advances() {
        let s = PortSchedule::new(cfg());
        let mut t = 0.0;
        for _ in 0..50 {
            let nb = s.next_boundary(t);
            assert!(nb > t, "boundary {nb} not after {t}");
            t = nb + 1e-9;
        }
    }

    #[test]
    fn paper_pair_covers_eight_antennas() {
        let readers = ReaderConfig::paper_pair(0.03);
        assert_eq!(readers.len(), 2);
        let all: Vec<u8> = readers
            .iter()
            .flat_map(|r| r.ports.iter().map(|a| a.0))
            .collect();
        assert_eq!(all, vec![1, 2, 3, 4, 5, 6, 7, 8]);
    }

    #[test]
    #[should_panic(expected = "duplicate antenna")]
    fn rejects_duplicate_ports() {
        let _ = ReaderConfig::new(
            ReaderId(1),
            vec![AntennaId(1), AntennaId(1)],
            0.03,
            0.001,
        );
    }

    #[test]
    #[should_panic(expected = "at least one port")]
    fn rejects_empty_ports() {
        let _ = ReaderConfig::new(ReaderId(1), vec![], 0.03, 0.001);
    }
}
