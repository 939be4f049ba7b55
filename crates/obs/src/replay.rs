//! Replaying a recorded trace: JSONL loading, per-session timelines,
//! and the run-level [`TraceSummary`].
//!
//! The summary is designed to agree *exactly* with the simulator's
//! `RunMetrics` for the same run: the coordinator emits exactly one
//! [`EventKind::PlanStarted`] per establishment attempt and one
//! [`EventKind::ReservationCommitted`] per success, carrying the
//! committed QoS rank — so [`TraceSummary::success_rate`] and
//! [`TraceSummary::mean_qos_level`] reproduce the paper's figure-8/9
//! metrics from the event log alone. The `qosr report` CLI subcommand
//! is a thin formatter over this module.

use std::collections::BTreeMap;
use std::fs::File;
use std::io::{self, BufRead, BufReader};
use std::path::Path;

use crate::event::{EventKind, TraceEvent};
use crate::hist::{psi_bucket_bounds, Histogram, PsiHistogram};
use crate::trace::Tracer;

/// Reads a JSON Lines trace file, skipping blank lines. A malformed
/// line aborts with [`io::ErrorKind::InvalidData`] naming the line
/// number.
pub fn read_jsonl(path: impl AsRef<Path>) -> io::Result<Vec<TraceEvent>> {
    let file = File::open(path)?;
    let reader = BufReader::new(file);
    let mut events = Vec::new();
    for (idx, line) in reader.lines().enumerate() {
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        let event: TraceEvent = serde_json::from_str(&line).map_err(|err| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("line {}: {}", idx + 1, err),
            )
        })?;
        events.push(event);
    }
    Ok(events)
}

/// Groups events by session id, preserving event order within each
/// session. Events without a session id (preamble, plan-phase events
/// before an id is assigned) are returned separately as the second
/// element.
pub fn session_timelines(
    events: &[TraceEvent],
) -> (BTreeMap<u64, Vec<TraceEvent>>, Vec<TraceEvent>) {
    let mut by_session: BTreeMap<u64, Vec<TraceEvent>> = BTreeMap::new();
    let mut unscoped = Vec::new();
    for event in events {
        match event.session {
            Some(id) => by_session.entry(id).or_default().push(event.clone()),
            None => unscoped.push(event.clone()),
        }
    }
    (by_session, unscoped)
}

/// Run-level aggregates reduced from a trace, mirroring `RunMetrics`.
#[derive(Debug, Default)]
pub struct TraceSummary {
    /// Establishment attempts ([`EventKind::PlanStarted`]).
    pub plans_started: u64,
    /// Attempts whose planning phase produced a plan.
    pub plans_completed: u64,
    /// Attempts rejected during planning.
    pub plans_rejected: u64,
    /// Sessions committed at every broker.
    pub committed: u64,
    /// Plans that a broker rejected during dispatch.
    pub rejected_at_dispatch: u64,
    /// Sessions released.
    pub released: u64,
    /// Renegotiation upgrades.
    pub upgrades: u64,
    /// α-tradeoff downgrades taken.
    pub downgrades: u64,
    /// Advance-booking conflicts.
    pub advance_conflicts: u64,
    /// Advance requests booked ([`EventKind::AdvanceBooked`]).
    pub advance_booked: u64,
    /// Rigid advance requests admitted by preempt-and-repack
    /// ([`EventKind::AdvanceRepacked`]).
    pub advance_repacked: u64,
    /// Advance requests rejected ([`EventKind::AdvanceRejected`]).
    pub advance_rejected: u64,
    /// Total volume booked by advance requests (sum of
    /// [`EventKind::AdvanceBooked`]/[`EventKind::AdvanceRepacked`]
    /// `value` payloads).
    pub advance_volume: f64,
    /// Injected faults that fired (crashes, drops, commit failures).
    pub faults_injected: u64,
    /// Crashed hosts that came back up.
    pub host_recoveries: u64,
    /// Establishment retries taken after transient failures.
    pub retries: u64,
    /// Partial-plan rollbacks (two-phase aborts).
    pub rollbacks: u64,
    /// Commits at a lower rank than first planned (graceful degradation).
    pub degraded: u64,
    /// Live sessions killed by host crashes.
    pub sessions_lost: u64,
    /// Establishments that failed after exhausting fault retries.
    pub fault_failures: u64,
    /// Batched admission rounds planned against one epoch snapshot.
    pub batches_planned: u64,
    /// Same-round commit conflicts caught by the sequential commit phase.
    pub commit_conflicts: u64,
    /// Conflicted requests replanned against the round's working view.
    pub replans: u64,
    /// Delta-aware prepares that repaired the cached relaxation in
    /// place ([`EventKind::DeltaRepair`] with `feasible = true`).
    pub delta_repairs: u64,
    /// Delta-aware prepares that fell back to a full rebuild
    /// ([`EventKind::DeltaRepair`] with `feasible = false`).
    pub delta_fallbacks: u64,
    /// QRG nodes recomputed by incremental relaxation repairs (summed
    /// from [`EventKind::DeltaRepair`] `value` payloads).
    pub relax_nodes_repaired: u64,
    /// Scenario-DSL rule firings ([`EventKind::ScenarioTrigger`]).
    pub scenario_triggers: u64,
    /// Firing counts per scenario rule label.
    pub triggers_by_rule: BTreeMap<String, u64>,
    /// Sum of committed QoS ranks (for [`TraceSummary::mean_qos_level`]).
    pub qos_level_sum: u64,
    /// Commits per bottleneck resource, keyed by resolved name.
    pub bottlenecks: BTreeMap<String, u64>,
    /// Histogram of committed bottleneck Ψ values.
    pub psi_hist: PsiHistogram,
    /// Utilization aggregates per sampled resource/broker label, from
    /// [`EventKind::UtilizationSample`] events.
    pub utilization: BTreeMap<String, UtilStat>,
    /// Traced requests seen ([`EventKind::RequestOutcome`] events).
    pub requests_traced: u64,
    /// Traced-request outcome counts keyed by label
    /// (`committed`/`degraded`/`rejected`).
    pub request_outcomes: BTreeMap<String, u64>,
    /// Per-span-kind nanosecond distributions rebuilt from
    /// [`EventKind::RequestSpan`] events, keyed by span name (`queue`,
    /// `collect`, `plan`, `replan`, `commit`) — the offline twin of the
    /// live [`Tracer`] span histograms, sharing the same bucketing so
    /// per-request attribution from a JSONL trace agrees with the live
    /// aggregates field-for-field.
    pub request_spans: BTreeMap<String, Histogram>,
    /// End-to-end traced-request latency distribution (from
    /// [`EventKind::RequestOutcome`] `duration_ns`).
    pub request_total: Histogram,
    /// Resource id → name bindings from the trace preamble.
    pub names: BTreeMap<u64, String>,
}

/// Aggregate of one label's sampled utilization time series.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct UtilStat {
    /// Samples seen.
    pub samples: u64,
    /// Sum of sampled values (for the mean).
    pub sum: f64,
    /// Largest sampled value.
    pub peak: f64,
}

impl UtilStat {
    /// Mean sampled utilization, or `None` before any sample.
    pub fn mean(&self) -> Option<f64> {
        (self.samples > 0).then(|| self.sum / self.samples as f64)
    }
}

impl TraceSummary {
    /// Reduces an event stream to run-level aggregates.
    pub fn from_events(events: &[TraceEvent]) -> Self {
        let mut summary = TraceSummary::default();
        // Names first, so bottleneck keys resolve even if a commit
        // precedes a late ResourceName event in a hand-edited trace.
        for event in events {
            if event.kind == EventKind::ResourceName {
                if let (Some(id), Some(name)) = (event.resource, event.name.as_ref()) {
                    summary.names.insert(id, name.clone());
                }
            }
        }
        for event in events {
            match event.kind {
                EventKind::ResourceName => {}
                EventKind::PlanStarted => summary.plans_started += 1,
                EventKind::PlanCompleted => summary.plans_completed += 1,
                EventKind::PlanRejected => summary.plans_rejected += 1,
                EventKind::CandidateEvaluated | EventKind::HopSelected => {}
                EventKind::TradeoffDowngrade => summary.downgrades += 1,
                EventKind::ReservationCommitted => {
                    summary.committed += 1;
                    summary.qos_level_sum += u64::from(event.level.unwrap_or(0));
                    if let Some(psi) = event.psi {
                        summary.psi_hist.record(psi);
                    }
                    if let Some(resource) = event.resource {
                        let key = summary.resource_label(resource);
                        *summary.bottlenecks.entry(key).or_insert(0) += 1;
                    }
                }
                EventKind::ReservationRejected => summary.rejected_at_dispatch += 1,
                EventKind::SessionUpgraded => summary.upgrades += 1,
                EventKind::SessionReleased => summary.released += 1,
                EventKind::AdvanceConflict => summary.advance_conflicts += 1,
                EventKind::AdvanceBooked => {
                    summary.advance_booked += 1;
                    summary.advance_volume += event.value.unwrap_or(0.0);
                }
                EventKind::AdvanceRepacked => {
                    summary.advance_repacked += 1;
                    summary.advance_volume += event.value.unwrap_or(0.0);
                }
                EventKind::AdvanceRejected => summary.advance_rejected += 1,
                EventKind::FaultInjected => summary.faults_injected += 1,
                EventKind::HostRecovered => summary.host_recoveries += 1,
                EventKind::EstablishRetry => summary.retries += 1,
                EventKind::EstablishRollback => summary.rollbacks += 1,
                EventKind::DegradedEstablish => summary.degraded += 1,
                EventKind::SessionLost => summary.sessions_lost += 1,
                EventKind::EstablishFaulted => summary.fault_failures += 1,
                EventKind::BatchPlanned => summary.batches_planned += 1,
                EventKind::CommitConflict => summary.commit_conflicts += 1,
                EventKind::Replanned => summary.replans += 1,
                EventKind::DeltaRepair => {
                    if event.feasible == Some(true) {
                        summary.delta_repairs += 1;
                        summary.relax_nodes_repaired += event.value.unwrap_or(0.0) as u64;
                    } else {
                        summary.delta_fallbacks += 1;
                    }
                }
                EventKind::UtilizationSample => {
                    if let (Some(name), Some(value)) = (event.name.as_ref(), event.value) {
                        let stat = summary.utilization.entry(name.clone()).or_default();
                        stat.samples += 1;
                        stat.sum += value;
                        stat.peak = stat.peak.max(value);
                    }
                }
                EventKind::ScenarioTrigger => {
                    summary.scenario_triggers += 1;
                    let label = event.name.clone().unwrap_or_else(|| "rule".to_owned());
                    *summary.triggers_by_rule.entry(label).or_insert(0) += 1;
                }
                EventKind::RequestSpan => {
                    if let (Some(name), Some(ns)) = (event.name.as_ref(), event.duration_ns) {
                        summary
                            .request_spans
                            .entry(name.clone())
                            .or_default()
                            .record(ns);
                    }
                }
                EventKind::RequestOutcome => {
                    summary.requests_traced += 1;
                    let label = event.name.clone().unwrap_or_else(|| "unknown".to_owned());
                    *summary.request_outcomes.entry(label).or_insert(0) += 1;
                    if let Some(ns) = event.duration_ns {
                        summary.request_total.record(ns);
                    }
                }
            }
        }
        summary
    }

    /// Checks that this summary's per-request attribution agrees
    /// field-for-field with a live [`Tracer`]'s aggregates: per-span-kind
    /// histogram snapshots, the end-to-end latency snapshot, outcome
    /// counts, and the traced-request total. Returns the first
    /// disagreement as `Err(description)`. Replay equivalence tests use
    /// this as the single source of truth for "the JSONL trace carries
    /// the whole attribution story".
    pub fn request_attribution_matches(&self, tracer: &Tracer) -> Result<(), String> {
        use crate::trace::{SpanKind, OUTCOME_COMMITTED, OUTCOME_DEGRADED, OUTCOME_REJECTED};
        for kind in SpanKind::ALL {
            let live = tracer.span_histogram(kind).snapshot();
            let replayed = self
                .request_spans
                .get(kind.name())
                .map(|h| h.snapshot())
                .unwrap_or_default();
            if live != replayed {
                return Err(format!(
                    "span `{}` diverged: live {live:?} vs replay {replayed:?}",
                    kind.name()
                ));
            }
        }
        let live_total = tracer.total_histogram().snapshot();
        let replayed_total = self.request_total.snapshot();
        if live_total != replayed_total {
            return Err(format!(
                "request total diverged: live {live_total:?} vs replay {replayed_total:?}"
            ));
        }
        let (committed, degraded, rejected) = tracer.outcome_counts();
        let outcome = |label: &str| self.request_outcomes.get(label).copied().unwrap_or(0);
        if committed != outcome(OUTCOME_COMMITTED)
            || degraded != outcome(OUTCOME_DEGRADED)
            || rejected != outcome(OUTCOME_REJECTED)
        {
            return Err(format!(
                "outcomes diverged: live ({committed}, {degraded}, {rejected}) vs replay {:?}",
                self.request_outcomes
            ));
        }
        if tracer.recorded() != self.requests_traced {
            return Err(format!(
                "traced count diverged: live {} vs replay {}",
                tracer.recorded(),
                self.requests_traced
            ));
        }
        Ok(())
    }

    /// The resolved display name for a resource id, falling back to the
    /// `r{id}` form used by `ResourceId`'s own `Display`.
    pub fn resource_label(&self, resource: u64) -> String {
        self.names
            .get(&resource)
            .cloned()
            .unwrap_or_else(|| format!("r{resource}"))
    }

    /// Committed sessions over establishment attempts — the paper's
    /// success rate (figure 8). `None` before any attempt.
    pub fn success_rate(&self) -> Option<f64> {
        (self.plans_started > 0).then(|| self.committed as f64 / self.plans_started as f64)
    }

    /// Mean committed end-to-end QoS rank — the paper's average QoS
    /// level (figure 9). `None` before any commit.
    pub fn mean_qos_level(&self) -> Option<f64> {
        (self.committed > 0).then(|| self.qos_level_sum as f64 / self.committed as f64)
    }

    /// Renders the summary as the table printed by `qosr report`.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "trace summary");
        let _ = writeln!(out, "  establishment attempts : {}", self.plans_started);
        let _ = writeln!(
            out,
            "  plans completed        : {} ({} rejected in planning)",
            self.plans_completed, self.plans_rejected
        );
        let _ = writeln!(
            out,
            "  sessions committed     : {} ({} rejected at dispatch)",
            self.committed, self.rejected_at_dispatch
        );
        let _ = writeln!(out, "  sessions released      : {}", self.released);
        let _ = writeln!(out, "  upgrades               : {}", self.upgrades);
        let _ = writeln!(out, "  tradeoff downgrades    : {}", self.downgrades);
        if self.advance_conflicts > 0 {
            let _ = writeln!(out, "  advance conflicts      : {}", self.advance_conflicts);
        }
        if self.advance_booked > 0 || self.advance_repacked > 0 || self.advance_rejected > 0 {
            let _ = writeln!(out, "  advance bookings       : {}", self.advance_booked);
            let _ = writeln!(out, "  advance repacks        : {}", self.advance_repacked);
            let _ = writeln!(out, "  advance rejections     : {}", self.advance_rejected);
            let _ = writeln!(out, "  advance volume booked  : {:.1}", self.advance_volume);
        }
        if self.faults_injected > 0
            || self.host_recoveries > 0
            || self.retries > 0
            || self.rollbacks > 0
            || self.degraded > 0
            || self.sessions_lost > 0
            || self.fault_failures > 0
        {
            let _ = writeln!(out, "  faults injected        : {}", self.faults_injected);
            let _ = writeln!(out, "  host recoveries        : {}", self.host_recoveries);
            let _ = writeln!(out, "  establish retries      : {}", self.retries);
            let _ = writeln!(out, "  rollbacks              : {}", self.rollbacks);
            let _ = writeln!(out, "  degraded establishes   : {}", self.degraded);
            let _ = writeln!(out, "  sessions lost          : {}", self.sessions_lost);
            let _ = writeln!(out, "  fault-exhausted fails  : {}", self.fault_failures);
        }
        if self.batches_planned > 0 || self.commit_conflicts > 0 || self.replans > 0 {
            let _ = writeln!(out, "  batch rounds planned   : {}", self.batches_planned);
            let _ = writeln!(out, "  commit conflicts       : {}", self.commit_conflicts);
            let _ = writeln!(out, "  replans                : {}", self.replans);
        }
        if self.scenario_triggers > 0 {
            let _ = writeln!(out, "  scenario triggers      : {}", self.scenario_triggers);
            for (rule, count) in &self.triggers_by_rule {
                let _ = writeln!(out, "    {rule:<24} {count}");
            }
        }
        if self.delta_repairs > 0 || self.delta_fallbacks > 0 {
            let _ = writeln!(out, "  delta repairs          : {}", self.delta_repairs);
            let _ = writeln!(out, "  delta fallbacks        : {}", self.delta_fallbacks);
            let _ = writeln!(
                out,
                "  relax nodes repaired   : {}",
                self.relax_nodes_repaired
            );
        }
        match self.success_rate() {
            Some(rate) => {
                let _ = writeln!(out, "  success rate           : {:.4}", rate);
            }
            None => {
                let _ = writeln!(out, "  success rate           : n/a");
            }
        }
        match self.mean_qos_level() {
            Some(level) => {
                let _ = writeln!(out, "  mean QoS level         : {:.4}", level);
            }
            None => {
                let _ = writeln!(out, "  mean QoS level         : n/a");
            }
        }
        if !self.bottlenecks.is_empty() {
            let _ = writeln!(out, "  bottleneck resources   :");
            for (name, count) in &self.bottlenecks {
                let _ = writeln!(out, "    {name:<24} {count}");
            }
        }
        let counts = self.psi_hist.counts();
        if counts.iter().any(|&c| c > 0) {
            let _ = writeln!(out, "  committed Ψ histogram  :");
            for (i, &count) in counts.iter().enumerate() {
                if count == 0 {
                    continue;
                }
                match psi_bucket_bounds(i) {
                    (lower, Some(upper)) => {
                        let _ = writeln!(out, "    [{lower:.1}, {upper:.1})              {count}");
                    }
                    (lower, None) => {
                        let _ = writeln!(out, "    [{lower:.1}, ∞)                {count}");
                    }
                }
            }
        }
        if !self.utilization.is_empty() {
            let _ = writeln!(out, "  utilization (mean/peak):");
            for (name, stat) in &self.utilization {
                let _ = writeln!(
                    out,
                    "    {name:<24} {:.3} / {:.3}",
                    stat.mean().unwrap_or(0.0),
                    stat.peak
                );
            }
        }
        if self.requests_traced > 0 {
            let _ = writeln!(out, "  traced requests        : {}", self.requests_traced);
            for (label, count) in &self.request_outcomes {
                let _ = writeln!(out, "    {label:<24} {count}");
            }
            let _ = writeln!(out, "  request spans (µs)     :");
            for (name, hist) in &self.request_spans {
                let us = |q| hist.percentile(q).unwrap_or(0) as f64 / 1e3;
                let _ = writeln!(
                    out,
                    "    {name:<10} n={:<7} p50={:<9.1} p99={:<9.1} max={:.1}",
                    hist.count(),
                    us(0.50),
                    us(0.99),
                    hist.max().unwrap_or(0) as f64 / 1e3,
                );
            }
            let us = |q| self.request_total.percentile(q).unwrap_or(0) as f64 / 1e3;
            let _ = writeln!(
                out,
                "    {:<10} n={:<7} p50={:<9.1} p99={:<9.1} max={:.1}",
                "total",
                self.request_total.count(),
                us(0.50),
                us(0.99),
                self.request_total.max().unwrap_or(0) as f64 / 1e3,
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn commit(time: f64, session: u64, level: u32, psi: f64, resource: u64) -> TraceEvent {
        TraceEvent::new(time, EventKind::ReservationCommitted)
            .with_session(session)
            .with_level(level)
            .with_psi(psi)
            .with_resource(resource)
    }

    #[test]
    fn summary_reduces_lifecycle_counts() {
        let events = vec![
            TraceEvent::new(0.0, EventKind::ResourceName)
                .with_resource(3)
                .with_name("h0.cpu"),
            TraceEvent::new(1.0, EventKind::PlanStarted).with_service("clip"),
            TraceEvent::new(1.0, EventKind::PlanCompleted)
                .with_service("clip")
                .with_level(2),
            commit(1.0, 1, 2, 0.35, 3),
            TraceEvent::new(2.0, EventKind::PlanStarted).with_service("clip"),
            TraceEvent::new(2.0, EventKind::PlanRejected).with_service("clip"),
            TraceEvent::new(3.0, EventKind::SessionReleased).with_session(1),
        ];
        let summary = TraceSummary::from_events(&events);
        assert_eq!(summary.plans_started, 2);
        assert_eq!(summary.plans_completed, 1);
        assert_eq!(summary.plans_rejected, 1);
        assert_eq!(summary.committed, 1);
        assert_eq!(summary.released, 1);
        assert_eq!(summary.success_rate(), Some(0.5));
        assert_eq!(summary.mean_qos_level(), Some(2.0));
        assert_eq!(summary.bottlenecks.get("h0.cpu"), Some(&1));
        assert_eq!(summary.psi_hist.counts()[3], 1); // 0.35 ∈ [0.3, 0.4)
    }

    #[test]
    fn unresolved_resources_fall_back_to_display_form() {
        let events = vec![
            TraceEvent::new(0.0, EventKind::PlanStarted),
            commit(0.0, 1, 1, 0.1, 42),
        ];
        let summary = TraceSummary::from_events(&events);
        assert_eq!(summary.bottlenecks.get("r42"), Some(&1));
    }

    #[test]
    fn timelines_group_by_session() {
        let events = vec![
            TraceEvent::new(0.0, EventKind::ResourceName)
                .with_resource(0)
                .with_name("x"),
            commit(1.0, 1, 1, 0.2, 0),
            commit(2.0, 2, 2, 0.3, 0),
            TraceEvent::new(3.0, EventKind::SessionReleased).with_session(1),
        ];
        let (by_session, unscoped) = session_timelines(&events);
        assert_eq!(by_session.len(), 2);
        assert_eq!(by_session[&1].len(), 2);
        assert_eq!(by_session[&2].len(), 1);
        assert_eq!(unscoped.len(), 1);
    }

    #[test]
    fn batch_admission_events_reduce_and_render() {
        let events = vec![
            TraceEvent::new(0.0, EventKind::PlanStarted),
            TraceEvent::new(0.0, EventKind::BatchPlanned)
                .with_level(8)
                .with_detail("epoch 0, 1 plan groups"),
            TraceEvent::new(0.0, EventKind::CommitConflict)
                .with_service("clip")
                .with_resource(2)
                .with_psi(1.4),
            TraceEvent::new(0.0, EventKind::Replanned)
                .with_service("clip")
                .with_detail("replan 1, epoch 0"),
            TraceEvent::new(0.0, EventKind::DeltaRepair)
                .with_service("clip")
                .with_feasible(true)
                .with_level(2)
                .with_value(7.0)
                .with_detail("epoch 0"),
            TraceEvent::new(0.0, EventKind::DeltaRepair)
                .with_service("clip")
                .with_feasible(false)
                .with_detail("epoch 0, full: delta too large"),
        ];
        let summary = TraceSummary::from_events(&events);
        assert_eq!(summary.batches_planned, 1);
        assert_eq!(summary.commit_conflicts, 1);
        assert_eq!(summary.replans, 1);
        assert_eq!(summary.delta_repairs, 1);
        assert_eq!(summary.delta_fallbacks, 1);
        assert_eq!(summary.relax_nodes_repaired, 7);
        let rendered = summary.render();
        assert!(rendered.contains("batch rounds planned   : 1"));
        assert!(rendered.contains("commit conflicts       : 1"));
        assert!(rendered.contains("replans                : 1"));
        assert!(rendered.contains("delta repairs          : 1"));
        assert!(rendered.contains("delta fallbacks        : 1"));
        assert!(rendered.contains("relax nodes repaired   : 7"));
    }

    #[test]
    fn batch_block_is_hidden_for_non_batched_traces() {
        let summary = TraceSummary::from_events(&[]);
        assert!(!summary.render().contains("batch rounds planned"));
    }

    #[test]
    fn telemetry_events_reduce_into_phase_and_utilization_blocks() {
        let span = |trace, name, ns| {
            TraceEvent::new(1.0, EventKind::RequestSpan)
                .with_trace(trace)
                .with_name(name)
                .with_duration_ns(ns)
        };
        let events = vec![
            span(1, "plan", 1_500),
            span(1, "commit", 900),
            span(2, "plan", 2_500),
            TraceEvent::new(1.0, EventKind::RequestOutcome)
                .with_trace(1)
                .with_name("committed")
                .with_duration_ns(2_400),
            TraceEvent::new(1.0, EventKind::RequestOutcome)
                .with_trace(2)
                .with_name("rejected")
                .with_duration_ns(2_500),
            TraceEvent::new(2.0, EventKind::UtilizationSample)
                .with_name("h0.cpu")
                .with_value(0.25),
            TraceEvent::new(3.0, EventKind::UtilizationSample)
                .with_name("h0.cpu")
                .with_value(0.75),
        ];
        let summary = TraceSummary::from_events(&events);
        assert_eq!(summary.request_spans["plan"].count(), 2);
        assert_eq!(summary.request_spans["commit"].count(), 1);
        assert_eq!(summary.request_total.count(), 2);
        let util = &summary.utilization["h0.cpu"];
        assert_eq!(util.samples, 2);
        assert_eq!(util.mean(), Some(0.5));
        assert_eq!(util.peak, 0.75);
        let rendered = summary.render();
        assert!(rendered.contains("request spans (µs)"));
        assert!(!rendered.contains("phase timings"));
        assert!(rendered.contains("utilization (mean/peak)"));
        assert!(rendered.contains("h0.cpu"));
    }

    #[test]
    fn scenario_triggers_reduce_and_render_per_rule() {
        let events = vec![
            TraceEvent::new(600.0, EventKind::ScenarioTrigger)
                .with_name("flash")
                .with_detail("at 600: 1 event(s)"),
            TraceEvent::new(700.0, EventKind::ScenarioTrigger)
                .with_name("flash")
                .with_detail("at 700: 1 event(s)"),
            TraceEvent::new(800.0, EventKind::ScenarioTrigger)
                .with_name("storm")
                .with_value(0.82),
        ];
        let summary = TraceSummary::from_events(&events);
        assert_eq!(summary.scenario_triggers, 3);
        assert_eq!(summary.triggers_by_rule["flash"], 2);
        assert_eq!(summary.triggers_by_rule["storm"], 1);
        let rendered = summary.render();
        assert!(rendered.contains("scenario triggers      : 3"));
        assert!(rendered.contains("flash"));
        // Untriggered traces omit the block entirely.
        assert!(!TraceSummary::from_events(&[])
            .render()
            .contains("scenario triggers"));
    }

    #[test]
    fn advance_events_reduce_and_render() {
        let events = vec![
            TraceEvent::new(1.0, EventKind::AdvanceBooked)
                .with_session(7)
                .with_value(600.0)
                .with_psi(0.6),
            TraceEvent::new(2.0, EventKind::AdvanceRepacked)
                .with_session(8)
                .with_value(400.0)
                .with_detail("moved 2 malleable sessions"),
            TraceEvent::new(3.0, EventKind::AdvanceRejected)
                .with_session(9)
                .with_detail("insufficient"),
        ];
        let summary = TraceSummary::from_events(&events);
        assert_eq!(summary.advance_booked, 1);
        assert_eq!(summary.advance_repacked, 1);
        assert_eq!(summary.advance_rejected, 1);
        assert_eq!(summary.advance_volume, 1000.0);
        let rendered = summary.render();
        assert!(rendered.contains("advance bookings       : 1"));
        assert!(rendered.contains("advance volume booked  : 1000.0"));
        // Traces with no advance traffic omit the block entirely.
        assert!(!TraceSummary::from_events(&[])
            .render()
            .contains("advance bookings"));
    }

    #[test]
    fn request_span_events_rebuild_the_live_attribution() {
        use crate::sink::MemorySink;
        use crate::trace::{RequestTrace, SpanKind, SpanRecord, Tracer, OUTCOME_COMMITTED};
        let tracer = Tracer::new(8);
        let sink = MemorySink::new();
        for id in 0..3u64 {
            tracer.record(
                RequestTrace {
                    trace: id,
                    service: Some("svc".into()),
                    outcome: OUTCOME_COMMITTED.into(),
                    session: Some(id),
                    rank: Some(2),
                    psi: Some(0.2),
                    conflicts: 0,
                    retries: 0,
                    total_ns: 300 + id,
                    spans: vec![
                        SpanRecord::new(SpanKind::Queue, 0, 100),
                        SpanRecord::new(SpanKind::Plan, 100, 150 + id),
                        SpanRecord::new(SpanKind::Commit, 250 + id, 50),
                    ],
                },
                &sink,
                id as f64,
            );
        }
        let summary = TraceSummary::from_events(&sink.events());
        assert_eq!(summary.requests_traced, 3);
        assert_eq!(summary.request_outcomes["committed"], 3);
        assert_eq!(summary.request_spans["plan"].count(), 3);
        summary.request_attribution_matches(&tracer).unwrap();
        let rendered = summary.render();
        assert!(rendered.contains("traced requests        : 3"));
        assert!(rendered.contains("request spans"));
        // Untraced traces omit the block entirely.
        assert!(!TraceSummary::from_events(&[])
            .render()
            .contains("traced requests"));
    }

    #[test]
    fn empty_trace_yields_no_rates() {
        let summary = TraceSummary::from_events(&[]);
        assert_eq!(summary.success_rate(), None);
        assert_eq!(summary.mean_qos_level(), None);
        assert!(summary.render().contains("n/a"));
    }
}
