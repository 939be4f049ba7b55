//! The traced run's span log: one span around every call the benchmark
//! makes into a product layer, kept in memory and written to
//! `benchmark/out/<workload>.spans.jsonl` when the run ends.
//!
//! A span is `(id, name, start, end, parent, request)`; spans of one op
//! share the op's index as `request`. A layer's *self time* is its
//! span's duration minus the part its children cover.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// Spans kept per run. The log stops at a root boundary once full, so
/// every tree in the file is whole; the file stays near 10 MB.
pub const SPAN_CAP: usize = 100_000;

/// Handle of an open (or closed) span: its 1-based line in the file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(u32);

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<SpanId>,
    request: u64,
}

/// In-memory span recorder. Disabled (the untraced run) every call is
/// one branch.
#[derive(Debug)]
pub struct SpanLog {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    /// Root spans not recorded because the log was full.
    dropped_roots: u64,
}

impl SpanLog {
    /// A log that records (`enabled`) or ignores every span.
    pub fn new(enabled: bool) -> Self {
        SpanLog {
            enabled,
            origin: Instant::now(),
            spans: Vec::with_capacity(if enabled { SPAN_CAP + 64 } else { 0 }),
            dropped_roots: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn push(&mut self, name: &'static str, parent: Option<SpanId>, request: u64) -> SpanId {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            request,
        });
        SpanId(self.spans.len() as u32)
    }

    /// Opens a root span (one per op or round). `None` when disabled or
    /// full — its children are then skipped too.
    pub fn root(&mut self, name: &'static str, request: u64) -> Option<SpanId> {
        if !self.enabled {
            return None;
        }
        if self.spans.len() >= SPAN_CAP {
            self.dropped_roots += 1;
            return None;
        }
        Some(self.push(name, None, request))
    }

    /// Opens a span under `parent`, inheriting its request id.
    pub fn child(&mut self, name: &'static str, parent: Option<SpanId>) -> Option<SpanId> {
        let parent = parent?;
        let request = self.spans[parent.0 as usize - 1].request;
        Some(self.push(name, Some(parent), request))
    }

    /// Closes a span at the current instant.
    pub fn close(&mut self, id: Option<SpanId>) {
        if let Some(id) = id {
            self.spans[id.0 as usize - 1].end_ns = self.now_ns();
        }
    }

    /// Spans recorded.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Root spans (ops or rounds) that arrived after the log was full.
    pub fn dropped_roots(&self) -> u64 {
        self.dropped_roots
    }

    /// Durations (ns) of every recorded span called `name`.
    pub fn durations(&self, name: &str) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end_ns - s.start_ns)
            .collect()
    }

    /// Per span name: `(count, total self time ns)`, self time being the
    /// span's duration minus its direct children's.
    pub fn self_times(&self) -> BTreeMap<&'static str, (u64, u64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_ns[parent.0 as usize - 1] += span.end_ns - span.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(child_ns) {
            let entry = out.entry(span.name).or_default();
            entry.0 += 1;
            entry.1 += (span.end_ns - span.start_ns).saturating_sub(children);
        }
        out
    }

    /// Writes one JSON object per span, in id order:
    /// `{"id":1,"name":"op","start_ns":0,"end_ns":9,"parent":null,"request":0}`.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s
                .parent
                .map_or_else(|| "null".to_owned(), |p| p.0.to_string());
            writeln!(
                out,
                "{{\"id\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"request\":{}}}",
                i + 1,
                s.name,
                s.start_ns,
                s.end_ns,
                parent,
                s.request
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_log_records_nothing() {
        let mut log = SpanLog::new(false);
        let root = log.root("op", 0);
        assert!(root.is_none());
        let child = log.child("layer", root);
        log.close(child);
        log.close(root);
        assert_eq!(log.len(), 0);
    }

    #[test]
    fn self_time_is_duration_minus_children_and_parents_exist() {
        let mut log = SpanLog::new(true);
        let root = log.root("op", 7);
        let a = log.child("layer.a", root);
        std::thread::sleep(std::time::Duration::from_millis(2));
        log.close(a);
        let b = log.child("layer.b", root);
        log.close(b);
        log.close(root);
        assert_eq!(log.len(), 3);
        let selfs = log.self_times();
        let total_root = log.durations("op")[0];
        let total_a = log.durations("layer.a")[0];
        let total_b = log.durations("layer.b")[0];
        assert!(total_a >= 2_000_000);
        assert_eq!(selfs["op"], (1, total_root - total_a - total_b));
        assert_eq!(selfs["layer.a"], (1, total_a));

        let path = std::env::temp_dir().join(format!("qosr-spans-{}.jsonl", std::process::id()));
        log.write_jsonl(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        #[derive(serde::Deserialize)]
        struct Line {
            id: u64,
            name: String,
            start_ns: u64,
            end_ns: u64,
            parent: Option<u64>,
            request: u64,
        }
        let lines: Vec<Line> = text
            .lines()
            .map(|l| serde_json::from_str(l).unwrap())
            .collect();
        assert_eq!(lines.len(), 3);
        let ids: Vec<u64> = lines.iter().map(|l| l.id).collect();
        assert_eq!(lines[0].name, "op");
        assert_eq!(lines[0].parent, None);
        for line in &lines {
            assert_eq!(line.request, 7);
            assert!(line.end_ns >= line.start_ns);
            if let Some(parent) = line.parent {
                assert!(ids.contains(&parent));
            }
        }
    }

    #[test]
    fn a_full_log_drops_whole_trees() {
        let mut log = SpanLog::new(true);
        for i in 0..SPAN_CAP as u64 {
            let r = log.root("op", i);
            log.close(r);
        }
        let root = log.root("op", u64::MAX);
        assert!(root.is_none());
        assert!(log.child("layer", root).is_none());
        assert_eq!(log.len(), SPAN_CAP);
    }
}
