//! # qosr-obs — observability for the reservation runtime
//!
//! The paper's whole evaluation (§5) is about *explaining* reservation
//! outcomes — success rate, end-to-end QoS level, the bottleneck
//! contention index ψ — yet a bare run only surfaces final aggregates.
//! This crate adds the missing middle layer: a structured, session-scoped
//! **event log** of everything the planner and the brokers decide, plus
//! process-wide **counters and histograms**, behind an API that costs
//! nothing when disabled.
//!
//! The pieces:
//!
//! * [`TraceEvent`] / [`EventKind`] — one flat, serializable record per
//!   lifecycle step: plan started/completed/rejected, every candidate
//!   `(Q^in, Q^out)` pair evaluated with its ψ, the selected per-hop ψ,
//!   reservations committed/rejected/released, α-tradeoff downgrades,
//!   QoS upgrades, and advance-booking conflicts.
//! * [`TraceSink`] — where events go. [`NullSink`] (the default
//!   everywhere) reports `enabled() == false` so instrumented code skips
//!   event construction entirely; [`JsonlSink`] streams events as JSON
//!   Lines to a file; [`MemorySink`] buffers them for tests.
//! * [`Counters`] / [`PsiHistogram`] — always-on monotonic counters
//!   (plans, reservations, skeleton-cache hits vs misses, downgrades)
//!   and a fixed-bucket distribution of committed bottleneck ψ values.
//! * [`hist`] — a self-contained HDR-style log-bucketed [`Histogram`]:
//!   fixed atomic buckets, lock-free record, shard merging, and
//!   p50/p90/p99 that agree exactly between merged shards and a single
//!   instance. All Ψ bucket math lives here too.
//! * [`metrics`] — the live [`MetricsRegistry`]: attached counters and
//!   request tracer plus ring-buffered utilization/queue gauges,
//!   rendered in Prometheus text format and optionally served over a
//!   minimal blocking HTTP responder ([`serve`]) for `--metrics-addr`.
//! * [`replay`] — load a JSONL trace back and reduce it to a
//!   [`TraceSummary`] whose success rate and mean QoS level reproduce
//!   the run's `RunMetrics` exactly, or to per-session timelines — now
//!   including the same request-span and utilization blocks the live
//!   registry reports. The `qosr trace` / `qosr report` CLI subcommands
//!   are thin wrappers over this module.
//! * [`trace`] — request-scoped tracing: a [`TraceId`] minted at
//!   ingress rides each request through queue, collect, plan, replan
//!   and commit, producing a causal [`SpanRecord`] tree
//!   ([`RequestTrace`]) that attributes the request's end-to-end
//!   latency span by span, recorded by a [`Tracer`] that is zero-cost
//!   (one relaxed load) when disabled. The tracer's per-span-kind
//!   histograms are the only phase clock: the registry's
//!   `qosr_phase_duration_seconds` summaries are rendered from them.
//! * [`flight`] — the [`FlightRecorder`]: a fixed-size ring of recent
//!   span trees, always on, dumped oldest-first as canonical JSONL on
//!   demand (`qosr flight`) or automatically on SLO breaches.
//! * [`slo`] — the [`SloEngine`]: declarative [`SloTargets`] (p99
//!   establish latency, rejection rate, degraded rate) evaluated with
//!   multi-window burn rates into wire-serializable [`SloReport`]s.
//!
//! The crate deliberately depends on nothing but the serialization
//! stand-ins: resource ids travel as raw `u64`s (see
//! [`TraceEvent::resource`]) and are given names by
//! [`EventKind::ResourceName`] preamble events, so any layer — core,
//! broker, sim — can emit without new dependency edges.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod counters;
mod event;
pub mod flight;
pub mod hist;
pub mod metrics;
pub mod replay;
mod sink;
pub mod slo;
pub mod trace;

pub use counters::{Counters, CountersSnapshot};
pub use event::{EventKind, TraceEvent};
pub use flight::FlightRecorder;
pub use hist::{Histogram, HistogramSnapshot, PsiHistogram, PSI_BUCKETS};
pub use metrics::{serve, GaugeSample, MetricsRegistry, MetricsServer};
pub use replay::{read_jsonl, session_timelines, TraceSummary, UtilStat};
pub use sink::{JsonlSink, MemorySink, NullSink, TraceSink};
pub use slo::{SloEngine, SloOutcome, SloReport, SloTargets};
pub use trace::{RequestTrace, SpanKind, SpanRecord, TraceId, Tracer};
