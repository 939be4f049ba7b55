//! Reduces a traced run to literals a test can pin: per-kind event
//! counts, an FNV-1a 64 of the event stream and an FNV-1a 64 of every
//! request's span-tree shape.
//!
//! Wall-clock measurements are left out, so the digest is a function of
//! the run alone: `detail` strings are dropped from events before they
//! are hashed, request-span and request-outcome events (which carry
//! durations and offsets) are counted but not hashed, and span shapes
//! keep kinds, attempts, planners, ψ bits, contended resources, retries
//! and conflicts but no durations.

use qosr::obs::{EventKind, RequestTrace, SpanRecord, TraceEvent};
use std::collections::BTreeMap;
use std::fmt::Write;
use std::sync::Arc;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// What a traced run is pinned by.
#[derive(Debug, PartialEq)]
pub struct TraceDigest {
    /// `Kind=count` per event kind, sorted by kind name.
    pub kinds: String,
    /// FNV-1a 64 of the events' JSON lines, `detail` removed, request
    /// spans and outcomes skipped.
    pub events: u64,
    /// FNV-1a 64 of one shape line per request trace, in trace-id order.
    pub shapes: u64,
}

impl TraceDigest {
    pub fn new(events: &[TraceEvent], traces: &[Arc<RequestTrace>]) -> Self {
        let mut counts: BTreeMap<String, usize> = BTreeMap::new();
        let mut hash = FNV_OFFSET;
        for event in events {
            *counts.entry(format!("{:?}", event.kind)).or_default() += 1;
            if matches!(
                event.kind,
                EventKind::RequestSpan | EventKind::RequestOutcome
            ) {
                continue;
            }
            let mut event = event.clone();
            event.detail = None;
            hash = fnv1a(hash, serde_json::to_string(&event).unwrap().as_bytes());
            hash = fnv1a(hash, b"\n");
        }
        let kinds = counts
            .iter()
            .map(|(kind, n)| format!("{kind}={n}"))
            .collect::<Vec<_>>()
            .join(" ");

        let mut traces = traces.to_vec();
        traces.sort_by_key(|t| t.trace);
        let mut shapes = FNV_OFFSET;
        for trace in &traces {
            shapes = fnv1a(shapes, shape(trace).as_bytes());
            shapes = fnv1a(shapes, b"\n");
        }
        TraceDigest {
            kinds,
            events: hash,
            shapes,
        }
    }

    /// The digest as the `(kinds, events, shapes)` tuple pins are
    /// written in.
    pub fn as_pin(&self) -> (&str, u64, u64) {
        (&self.kinds, self.events, self.shapes)
    }
}

/// One request's span tree without its durations, e.g.
/// `7 degraded r1 c0 | queue collect plan:basic~3fd… commit collect@1 …`.
fn shape(trace: &RequestTrace) -> String {
    let mut line = format!(
        "{} {} r{} c{} |",
        trace.trace, trace.outcome, trace.retries, trace.conflicts
    );
    for span in &trace.spans {
        push_span(&mut line, span);
    }
    line
}

fn push_span(line: &mut String, span: &SpanRecord) {
    write!(line, " {}", span.kind.name()).unwrap();
    if let Some(attempt) = span.attempt {
        write!(line, "@{attempt}").unwrap();
    }
    if let Some(planner) = &span.planner {
        write!(line, ":{planner}").unwrap();
    }
    if let Some(psi) = span.psi {
        write!(line, "~{:016x}", psi.to_bits()).unwrap();
    }
    if let Some(resource) = span.resource {
        write!(line, "#{resource}").unwrap();
    }
    if !span.children.is_empty() {
        line.push_str(" {");
        for child in &span.children {
            push_span(line, child);
        }
        line.push_str(" }");
    }
}
