//! Request-scoped tracing: one causal span tree per admission request.
//!
//! The global telemetry ([`Counters`](crate::Counters), phase
//! histograms) answers *that* p99 regressed; this module answers *which
//! requests paid it and where*. A [`TraceId`] is minted at ingress (a
//! wire frame's `trace` field, the CLI, the scenario engine, the load
//! generator) and rides the request through every admission layer; the
//! layers measure their work into [`SpanRecord`]s (queue-wait,
//! collect-share, plan, replan, commit — with Ψ, planner, conflict and
//! retry annotations) and the completed [`RequestTrace`] is handed to a
//! [`Tracer`].
//!
//! The tracer is **zero-cost when disabled**: one relaxed atomic load
//! per request, no clock reads, no allocation. When enabled it
//! aggregates per-span-kind latency histograms, pushes the span tree
//! into its [`FlightRecorder`] ring, and — when a
//! [`TraceSink`] is live — emits one flat [`EventKind::RequestSpan`]
//! event per span plus a closing [`EventKind::RequestOutcome`], in the
//! same arrival-order lockstep as the rest of the trace stream, so
//! JSONL replay ([`TraceSummary`](crate::TraceSummary)) reproduces the
//! live per-request attribution exactly.
//!
//! Span trees serialize to a *canonical* compact JSON line
//! ([`RequestTrace::to_jsonl`]): absent fields are omitted (never
//! `null`) and field order is fixed, so re-encoding a decoded line is
//! bit-for-bit identical — the property `tests/trace_properties.rs`
//! pins.

use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use crate::event::{EventKind, TraceEvent};
use crate::flight::FlightRecorder;
use crate::hist::Histogram;
use crate::sink::TraceSink;

/// The identity of one traced admission request, minted at ingress and
/// propagated unchanged through every layer. Plain `u64` on the wire
/// (the `trace` field of an `establish` frame).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TraceId(pub u64);

impl TraceId {
    /// The raw id.
    pub fn value(self) -> u64 {
        self.0
    }
}

impl fmt::Display for TraceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

/// What one span of a request's tree measured.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SpanKind {
    /// Everything between ingress and the first measured phase: socket
    /// read, gather-window wait, round scheduling, bookkeeping. Computed
    /// as the residual `total - measured`, so per-request attribution
    /// always sums exactly to the observed total.
    Queue,
    /// The request's share of the round's phase-1 availability snapshot
    /// (one collect per batched round, attributed to every request in
    /// it).
    Collect,
    /// Phase-2 planning over the QRG.
    Plan,
    /// A replan after a same-round commit conflict (one span per
    /// attempt, annotated with the contended resource).
    Replan,
    /// Phase-3 two-phase reserve/commit dispatch.
    Commit,
}

impl SpanKind {
    /// Every kind, in histogram-slot order.
    pub const ALL: [SpanKind; 5] = [
        SpanKind::Queue,
        SpanKind::Collect,
        SpanKind::Plan,
        SpanKind::Replan,
        SpanKind::Commit,
    ];

    /// Stable lowercase label used on events and in reports.
    pub fn name(self) -> &'static str {
        match self {
            SpanKind::Queue => "queue",
            SpanKind::Collect => "collect",
            SpanKind::Plan => "plan",
            SpanKind::Replan => "replan",
            SpanKind::Commit => "commit",
        }
    }

    /// Slot in [`SpanKind::ALL`] / the [`Tracer`] histogram array.
    pub fn index(self) -> usize {
        self as usize
    }

    /// Parses a [`SpanKind::name`] back (for replay aggregation).
    pub fn from_name(name: &str) -> Option<SpanKind> {
        SpanKind::ALL.into_iter().find(|k| k.name() == name)
    }
}

/// One node of a request's causal span tree: a measured slice of the
/// admission pipeline, with the annotations that explain it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SpanRecord {
    /// Which pipeline slice this span measures.
    pub kind: SpanKind,
    /// Start offset in nanoseconds from the request's ingress.
    pub start_ns: u64,
    /// Measured wall-clock duration in nanoseconds.
    pub duration_ns: u64,
    /// The contention index Ψ the slice produced (plan/replan spans).
    #[serde(skip_serializing_if = "Option::is_none")]
    pub psi: Option<f64>,
    /// The planning algorithm used (plan/replan spans).
    #[serde(skip_serializing_if = "Option::is_none")]
    pub planner: Option<String>,
    /// The contended resource id (replan spans after a commit conflict).
    #[serde(skip_serializing_if = "Option::is_none")]
    pub resource: Option<u64>,
    /// Attempt ordinal (replan/retry spans; first replan is 1).
    #[serde(skip_serializing_if = "Option::is_none")]
    pub attempt: Option<u32>,
    /// Free-form context.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub detail: Option<String>,
    /// Child spans nested inside this one.
    #[serde(default, skip_serializing_if = "Vec::is_empty")]
    pub children: Vec<SpanRecord>,
}

impl SpanRecord {
    /// A bare span of `kind` covering `[start_ns, start_ns + duration_ns)`.
    pub fn new(kind: SpanKind, start_ns: u64, duration_ns: u64) -> Self {
        SpanRecord {
            kind,
            start_ns,
            duration_ns,
            psi: None,
            planner: None,
            resource: None,
            attempt: None,
            detail: None,
            children: Vec::new(),
        }
    }

    /// Sets the contention index Ψ.
    pub fn with_psi(mut self, psi: f64) -> Self {
        self.psi = Some(psi);
        self
    }

    /// Sets the planner label.
    pub fn with_planner(mut self, planner: impl Into<String>) -> Self {
        self.planner = Some(planner.into());
        self
    }

    /// Sets the contended resource id.
    pub fn with_resource(mut self, resource: u64) -> Self {
        self.resource = Some(resource);
        self
    }

    /// Sets the attempt ordinal.
    pub fn with_attempt(mut self, attempt: u32) -> Self {
        self.attempt = Some(attempt);
        self
    }

    /// Sets the free-form detail text.
    pub fn with_detail(mut self, detail: impl Into<String>) -> Self {
        self.detail = Some(detail.into());
        self
    }

    /// Appends a child span.
    pub fn with_child(mut self, child: SpanRecord) -> Self {
        self.children.push(child);
        self
    }

    /// This span's duration plus every descendant's.
    pub fn subtree_ns(&self) -> u64 {
        self.duration_ns
            + self
                .children
                .iter()
                .map(SpanRecord::subtree_ns)
                .sum::<u64>()
    }
}

/// The completed causal trace of one admission request: identity,
/// outcome, end-to-end latency, and the span tree that attributes it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RequestTrace {
    /// The ingress-minted trace id.
    pub trace: u64,
    /// The service spec's name.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub service: Option<String>,
    /// `"committed"`, `"degraded"` or `"rejected"` (the same vocabulary
    /// the wire outcome frames use).
    pub outcome: String,
    /// The session id at the brokers, when admitted.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub session: Option<u64>,
    /// The committed end-to-end QoS rank, when admitted.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub rank: Option<u32>,
    /// The committed bottleneck contention index Ψ, when admitted.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub psi: Option<f64>,
    /// Same-round commit conflicts this request hit.
    #[serde(default, skip_serializing_if = "is_zero")]
    pub conflicts: u32,
    /// Retries / replan attempts spent.
    #[serde(default, skip_serializing_if = "is_zero")]
    pub retries: u32,
    /// End-to-end wall-clock nanoseconds from ingress to outcome.
    pub total_ns: u64,
    /// Root spans in causal order. Their durations sum exactly to
    /// [`RequestTrace::total_ns`] (the queue span absorbs the residual).
    pub spans: Vec<SpanRecord>,
}

fn is_zero(count: &u32) -> bool {
    *count == 0
}

/// Outcome label for admitted-as-planned requests.
pub const OUTCOME_COMMITTED: &str = "committed";
/// Outcome label for admitted-but-degraded requests.
pub const OUTCOME_DEGRADED: &str = "degraded";
/// Outcome label for rejected requests.
pub const OUTCOME_REJECTED: &str = "rejected";

impl RequestTrace {
    /// The summed duration of every root span of `kind`.
    pub fn span_ns(&self, kind: SpanKind) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.kind == kind)
            .map(|s| s.duration_ns)
            .sum()
    }

    /// Encodes the trace as one canonical compact JSON line (no trailing
    /// newline). Decoding and re-encoding a canonical line is bit-for-bit
    /// stable.
    pub fn to_jsonl(&self) -> String {
        serde_json::to_string(self).expect("a RequestTrace value tree always serializes")
    }

    /// Decodes a [`RequestTrace::to_jsonl`] line.
    pub fn from_jsonl(line: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(line)
    }
}

/// The recording end of request-scoped tracing: an enable flag, live
/// per-span-kind aggregates, and the flight-recorder ring.
///
/// Disabled (the default) the whole layer costs one relaxed atomic load
/// per request — instrumented code checks [`Tracer::enabled`] before
/// reading any clock or building any span. The benchmark's
/// `obs.trace.overhead_ratio` prices the enabled mode against it.
#[derive(Debug)]
pub struct Tracer {
    enabled: AtomicBool,
    flight: FlightRecorder,
    /// Nanosecond histogram per [`SpanKind`], over every span recorded
    /// (children included) — the live side of the replay-equivalence
    /// contract with [`TraceSummary`](crate::TraceSummary).
    spans: [Histogram; SpanKind::ALL.len()],
    /// End-to-end request latency.
    totals: Histogram,
    committed: AtomicU64,
    degraded: AtomicU64,
    rejected: AtomicU64,
}

/// Default flight-ring capacity (span trees retained).
pub const DEFAULT_FLIGHT_CAPACITY: usize = 256;

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new(DEFAULT_FLIGHT_CAPACITY)
    }
}

impl Tracer {
    /// A disabled tracer whose flight ring retains `flight_capacity`
    /// recent span trees once enabled.
    pub fn new(flight_capacity: usize) -> Self {
        Tracer {
            enabled: AtomicBool::new(false),
            flight: FlightRecorder::new(flight_capacity),
            spans: std::array::from_fn(|_| Histogram::new()),
            totals: Histogram::new(),
            committed: AtomicU64::new(0),
            degraded: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
        }
    }

    /// Whether requests are currently traced (one relaxed load — the
    /// entire disabled-mode cost).
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Turns request tracing on or off. Requests already in flight keep
    /// the decision they took at ingress.
    pub fn set_enabled(&self, enabled: bool) {
        self.enabled.store(enabled, Ordering::Relaxed);
    }

    /// The flight-recorder ring of recent span trees.
    pub fn flight(&self) -> &FlightRecorder {
        &self.flight
    }

    /// Records a completed trace: aggregates its spans, pushes it into
    /// the flight ring, and — when `sink` is enabled — emits one
    /// [`EventKind::RequestSpan`] per span (depth-first, causal order)
    /// plus a closing [`EventKind::RequestOutcome`], stamped `time`.
    /// Call from the arrival-order section of the pipeline so the event
    /// stream stays deterministic. Returns the shared trace for callers
    /// that feed outcome frames.
    pub fn record(
        &self,
        trace: RequestTrace,
        sink: &dyn TraceSink,
        time: f64,
    ) -> Arc<RequestTrace> {
        for span in &trace.spans {
            self.aggregate(span);
        }
        self.totals.record(trace.total_ns);
        match trace.outcome.as_str() {
            OUTCOME_COMMITTED => self.committed.fetch_add(1, Ordering::Relaxed),
            OUTCOME_DEGRADED => self.degraded.fetch_add(1, Ordering::Relaxed),
            _ => self.rejected.fetch_add(1, Ordering::Relaxed),
        };
        if sink.enabled() {
            for span in &trace.spans {
                emit_span(sink, time, trace.trace, span);
            }
            let mut ev = TraceEvent::new(time, EventKind::RequestOutcome)
                .with_trace(trace.trace)
                .with_name(trace.outcome.clone())
                .with_duration_ns(trace.total_ns);
            if let Some(service) = &trace.service {
                ev = ev.with_service(service.clone());
            }
            if let Some(session) = trace.session {
                ev = ev.with_session(session);
            }
            if let Some(rank) = trace.rank {
                ev = ev.with_level(rank);
            }
            if let Some(psi) = trace.psi {
                ev = ev.with_psi(psi);
            }
            sink.emit(&ev);
        }
        let trace = Arc::new(trace);
        self.flight.record(Arc::clone(&trace));
        trace
    }

    fn aggregate(&self, span: &SpanRecord) {
        self.spans[span.kind.index()].record(span.duration_ns);
        for child in &span.children {
            self.aggregate(child);
        }
    }

    /// The live nanosecond histogram for one span kind.
    pub fn span_histogram(&self, kind: SpanKind) -> &Histogram {
        &self.spans[kind.index()]
    }

    /// The live end-to-end request-latency histogram.
    pub fn total_histogram(&self) -> &Histogram {
        &self.totals
    }

    /// `(committed, degraded, rejected)` counts over recorded traces.
    pub fn outcome_counts(&self) -> (u64, u64, u64) {
        (
            self.committed.load(Ordering::Relaxed),
            self.degraded.load(Ordering::Relaxed),
            self.rejected.load(Ordering::Relaxed),
        )
    }

    /// Total traces recorded since construction.
    pub fn recorded(&self) -> u64 {
        self.flight.recorded()
    }
}

/// Emits one flat [`EventKind::RequestSpan`] event for `span` and then
/// its children (depth-first — the order the work actually happened).
fn emit_span(sink: &dyn TraceSink, time: f64, trace: u64, span: &SpanRecord) {
    let mut ev = TraceEvent::new(time, EventKind::RequestSpan)
        .with_trace(trace)
        .with_name(span.kind.name())
        .with_duration_ns(span.duration_ns)
        .with_value(span.start_ns as f64);
    if let Some(psi) = span.psi {
        ev = ev.with_psi(psi);
    }
    if let Some(resource) = span.resource {
        ev = ev.with_resource(resource);
    }
    if let Some(attempt) = span.attempt {
        ev = ev.with_level(attempt);
    }
    if let Some(planner) = &span.planner {
        ev = ev.with_detail(planner.clone());
    } else if let Some(detail) = &span.detail {
        ev = ev.with_detail(detail.clone());
    }
    sink.emit(&ev);
    for child in &span.children {
        emit_span(sink, time, trace, child);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::{MemorySink, NullSink};

    fn sample_trace(id: u64) -> RequestTrace {
        RequestTrace {
            trace: id,
            service: Some("clip".into()),
            outcome: OUTCOME_DEGRADED.into(),
            session: Some(9),
            rank: Some(1),
            psi: Some(0.375),
            conflicts: 1,
            retries: 1,
            total_ns: 1000,
            spans: vec![
                SpanRecord::new(SpanKind::Queue, 0, 100),
                SpanRecord::new(SpanKind::Collect, 100, 200),
                SpanRecord::new(SpanKind::Plan, 300, 300)
                    .with_planner("basic")
                    .with_psi(0.5),
                SpanRecord::new(SpanKind::Replan, 600, 250)
                    .with_attempt(1)
                    .with_resource(3)
                    .with_child(SpanRecord::new(SpanKind::Plan, 620, 200).with_planner("tradeoff")),
                SpanRecord::new(SpanKind::Commit, 850, 150),
            ],
        }
    }

    #[test]
    fn canonical_jsonl_reencodes_bit_for_bit() {
        let trace = sample_trace(7);
        let line = trace.to_jsonl();
        let back = RequestTrace::from_jsonl(&line).unwrap();
        assert_eq!(back, trace);
        assert_eq!(back.to_jsonl(), line);
        assert!(!line.contains("null"), "absent fields are omitted: {line}");
    }

    #[test]
    fn span_sums_attribute_the_total() {
        let trace = sample_trace(1);
        let measured: u64 = trace.spans.iter().map(|s| s.duration_ns).sum();
        assert_eq!(measured, trace.total_ns);
        assert_eq!(trace.span_ns(SpanKind::Plan), 300);
        assert_eq!(trace.spans[3].subtree_ns(), 450);
    }

    #[test]
    fn disabled_tracer_is_just_a_flag() {
        let tracer = Tracer::new(4);
        assert!(!tracer.enabled());
        tracer.set_enabled(true);
        assert!(tracer.enabled());
    }

    #[test]
    fn record_aggregates_and_fills_the_ring() {
        let tracer = Tracer::new(8);
        tracer.set_enabled(true);
        tracer.record(sample_trace(1), &NullSink, 1.0);
        tracer.record(sample_trace(2), &NullSink, 2.0);
        assert_eq!(tracer.recorded(), 2);
        assert_eq!(tracer.outcome_counts(), (0, 2, 0));
        assert_eq!(tracer.total_histogram().count(), 2);
        // The replan child plan span aggregates into the plan histogram.
        assert_eq!(tracer.span_histogram(SpanKind::Plan).count(), 4);
        assert_eq!(tracer.span_histogram(SpanKind::Queue).count(), 2);
        let dump = tracer.flight().dump();
        assert_eq!(dump.len(), 2);
        assert_eq!(dump[0].trace, 1);
        assert_eq!(dump[1].trace, 2);
    }

    #[test]
    fn record_emits_flat_span_events_in_causal_order() {
        let tracer = Tracer::new(4);
        let sink = MemorySink::new();
        tracer.record(sample_trace(5), &sink, 3.5);
        let events = sink.events();
        // 5 roots + 1 nested child + 1 outcome.
        assert_eq!(events.len(), 7);
        let names: Vec<_> = events
            .iter()
            .map(|e| e.name.as_deref().unwrap().to_string())
            .collect();
        assert_eq!(
            names,
            ["queue", "collect", "plan", "replan", "plan", "commit", "degraded"]
        );
        assert!(events.iter().all(|e| e.trace == Some(5)));
        let outcome = events.last().unwrap();
        assert_eq!(outcome.kind, EventKind::RequestOutcome);
        assert_eq!(outcome.duration_ns, Some(1000));
        assert_eq!(outcome.session, Some(9));
    }

    #[test]
    fn span_kind_names_round_trip() {
        for kind in SpanKind::ALL {
            assert_eq!(SpanKind::from_name(kind.name()), Some(kind));
            assert_eq!(SpanKind::ALL[kind.index()], kind);
        }
        assert_eq!(SpanKind::from_name("nope"), None);
    }
}
