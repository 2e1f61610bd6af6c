//! In-memory spans recorded around calls into the program's public
//! functions, written out when a run ends.
//!
//! A span has a name, a start and an end, an optional parent span and a
//! request id (the writer's EPC index and the frame or read sequence
//! number). A layer's *self time* is the duration of its spans minus the
//! part of each that its child spans cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Sentinel parent of a root span.
pub const ROOT: u32 = u32::MAX;

/// One recorded span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// The layer boundary it times.
    pub name: &'static str,
    /// Start, ns since the log's origin.
    pub start_ns: u64,
    /// End, ns since the log's origin.
    pub end_ns: u64,
    /// Index of the parent span in the log, or [`ROOT`].
    pub parent: u32,
    /// Request id: EPC index of the writer.
    pub epc: u32,
    /// Request id: frame (or read) sequence number.
    pub seq: u32,
}

/// Self time of one span name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SelfTime {
    /// Spans of this name.
    pub count: u64,
    /// Summed durations (ns).
    pub total_ns: u64,
    /// Summed durations minus child coverage (ns).
    pub self_ns: u64,
}

/// An append-only span log sharing one time origin.
#[derive(Debug)]
pub struct SpanLog {
    origin: Instant,
    spans: Vec<Span>,
}

impl SpanLog {
    /// An empty log whose origin is `origin`.
    pub fn new(origin: Instant) -> Self {
        Self {
            origin,
            spans: Vec::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Records a span and returns its index (usable as a parent).
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: u32,
        epc: u32,
        seq: u32,
    ) -> u32 {
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent,
            epc,
            seq,
        });
        id
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per span name.
    pub fn self_times(&self) -> BTreeMap<&'static str, SelfTime> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if s.parent != ROOT {
                children[s.parent as usize].push((s.start_ns, s.end_ns));
            }
        }
        let mut out: BTreeMap<&'static str, SelfTime> = BTreeMap::new();
        for (s, kids) in self.spans.iter().zip(children.iter_mut()) {
            let dur = s.end_ns.saturating_sub(s.start_ns);
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            let e = out.entry(s.name).or_default();
            e.count += 1;
            e.total_ns += dur;
            e.self_ns += dur - covered.min(dur);
        }
        out
    }

    /// Writes every span as one CSV line
    /// (`name,start_ns,end_ns,parent,epc,seq`; a root's parent is `-`).
    pub fn write_csv(&self, path: &Path, header: &str) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "# {header}")?;
        writeln!(w, "name,start_ns,end_ns,parent,epc,seq")?;
        for s in &self.spans {
            if s.parent == ROOT {
                writeln!(
                    w,
                    "{},{},{},-,{},{}",
                    s.name, s.start_ns, s.end_ns, s.epc, s.seq
                )?;
            } else {
                writeln!(
                    w,
                    "{},{},{},{},{},{}",
                    s.name, s.start_ns, s.end_ns, s.parent, s.epc, s.seq
                )?;
            }
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_overlapping_children_once() {
        let o = Instant::now();
        let at = |us: u64| o + Duration::from_micros(us);
        let mut log = SpanLog::new(o);
        let root = log.record("frame", at(0), at(100), ROOT, 1, 0);
        log.record("decode", at(10), at(30), root, 1, 0);
        log.record("ingest", at(20), at(50), root, 1, 0);
        log.record("pump", at(200), at(260), ROOT, 1, 0);
        let st = log.self_times();
        assert_eq!(st["frame"].total_ns, 100_000);
        assert_eq!(st["frame"].self_ns, 60_000);
        assert_eq!(st["decode"].self_ns, 20_000);
        assert_eq!(st["pump"].self_ns, 60_000);
    }
}
