//! Phase-timing spans for the admission pipeline.
//!
//! An admission runs through distinct phases — availability collection,
//! planning, two-phase commit dispatch, conflict replanning, rollback —
//! and the question the ROADMAP's heavy-traffic work keeps asking is
//! *where the time goes*. [`PhaseTimers`] holds one log-bucketed
//! [`Histogram`] of wall-clock nanoseconds per [`Phase`];
//! [`PhaseTimers::span`] hands out an RAII [`Span`] guard that measures
//! from construction to drop and records into the phase's histogram.
//!
//! The whole layer is **zero-cost when disabled** (the default): a span
//! taken while `enabled()` is false performs exactly one relaxed atomic
//! load, never reads the clock, and its drop is a no-op. When a tracing
//! sink is also live, [`PhaseTimers::span_traced`] additionally emits one
//! [`EventKind::PhaseTiming`] event per measured span, which is how the
//! offline [`TraceSummary`](crate::TraceSummary) reconstructs the same
//! per-phase distributions the live registry reports.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

use crate::event::{EventKind, TraceEvent};
use crate::hist::Histogram;
use crate::sink::TraceSink;

/// One timed phase of the establishment/admission pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Phase 1: collecting availability observations from the proxies.
    Collect,
    /// Phase 2: computing a reservation plan over the QRG.
    Plan,
    /// Phase 3: two-phase reserve/commit dispatch to the brokers.
    Commit,
    /// Replanning a batched request against the round's working view
    /// after a same-round commit conflict (or a coordinator replan).
    Replan,
    /// Rolling back partially reserved hops after a dispatch failure.
    Rollback,
}

impl Phase {
    /// Every phase, in histogram-slot order.
    pub const ALL: [Phase; 5] = [
        Phase::Collect,
        Phase::Plan,
        Phase::Commit,
        Phase::Replan,
        Phase::Rollback,
    ];

    /// Stable lowercase name used as the metric/event label.
    pub fn name(self) -> &'static str {
        match self {
            Phase::Collect => "collect",
            Phase::Plan => "plan",
            Phase::Commit => "commit",
            Phase::Replan => "replan",
            Phase::Rollback => "rollback",
        }
    }

    /// Slot in [`Phase::ALL`] / the [`PhaseTimers`] histogram array.
    pub fn index(self) -> usize {
        self as usize
    }

    /// Parses a [`Phase::name`] back (for replay aggregation).
    pub fn from_name(name: &str) -> Option<Phase> {
        Phase::ALL.into_iter().find(|p| p.name() == name)
    }
}

/// Per-phase wall-clock histograms behind a single enable flag.
///
/// Disabled by default; attaching a
/// [`MetricsRegistry`](crate::MetricsRegistry) (or calling
/// [`PhaseTimers::set_enabled`]) turns measurement on.
#[derive(Debug, Default)]
pub struct PhaseTimers {
    enabled: AtomicBool,
    phases: [Histogram; Phase::ALL.len()],
}

impl PhaseTimers {
    /// Fresh timers, disabled.
    pub fn new() -> Self {
        PhaseTimers::default()
    }

    /// Turns measurement on or off. Spans already in flight keep the
    /// decision they took at construction.
    pub fn set_enabled(&self, enabled: bool) {
        self.enabled.store(enabled, Ordering::Relaxed);
    }

    /// Whether spans currently measure (one relaxed load — the entire
    /// disabled-mode cost).
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// The nanosecond histogram for one phase.
    pub fn histogram(&self, phase: Phase) -> &Histogram {
        &self.phases[phase.index()]
    }

    /// Records a measured duration directly (for pre-measured values,
    /// e.g. replayed [`EventKind::PhaseTiming`] events).
    pub fn record_ns(&self, phase: Phase, ns: u64) {
        self.phases[phase.index()].record(ns);
    }

    /// An RAII guard that measures from now until drop and records into
    /// `phase`'s histogram. Inert (no clock read) when disabled.
    pub fn span(&self, phase: Phase) -> Span<'_> {
        Span {
            timers: self,
            phase,
            start: self.enabled().then(Instant::now),
            sink: None,
        }
    }

    /// Like [`PhaseTimers::span`], but when both the timers and `sink`
    /// are enabled the guard also emits one [`EventKind::PhaseTiming`]
    /// event (stamped `time`, phase name, measured nanoseconds) on drop
    /// — keeping live histograms and the trace in exact count lockstep.
    pub fn span_traced<'a>(&'a self, phase: Phase, sink: &'a dyn TraceSink, time: f64) -> Span<'a> {
        let measuring = self.enabled();
        Span {
            timers: self,
            phase,
            start: measuring.then(Instant::now),
            sink: (measuring && sink.enabled()).then_some((sink, time)),
        }
    }
}

/// The RAII measurement guard handed out by [`PhaseTimers::span`].
pub struct Span<'a> {
    timers: &'a PhaseTimers,
    phase: Phase,
    start: Option<Instant>,
    sink: Option<(&'a dyn TraceSink, f64)>,
}

impl Span<'_> {
    /// Ends the span now, returning the measured nanoseconds (`None`
    /// when the timers were disabled at construction). Use this instead
    /// of drop when the caller needs the measurement — e.g. to buffer a
    /// [`EventKind::PhaseTiming`] event for deterministic later emission.
    pub fn end(mut self) -> Option<u64> {
        self.finish()
    }

    fn finish(&mut self) -> Option<u64> {
        let start = self.start.take()?;
        let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.timers.record_ns(self.phase, ns);
        if let Some((sink, time)) = self.sink.take() {
            sink.emit(
                &TraceEvent::new(time, EventKind::PhaseTiming)
                    .with_name(self.phase.name())
                    .with_duration_ns(ns),
            );
        }
        Some(ns)
    }
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        let _ = self.finish();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::MemorySink;

    #[test]
    fn disabled_spans_record_nothing() {
        let timers = PhaseTimers::new();
        assert!(!timers.enabled());
        let span = timers.span(Phase::Plan);
        assert_eq!(span.end(), None);
        drop(timers.span(Phase::Commit));
        for phase in Phase::ALL {
            assert_eq!(timers.histogram(phase).count(), 0);
        }
    }

    #[test]
    fn enabled_spans_record_into_their_phase() {
        let timers = PhaseTimers::new();
        timers.set_enabled(true);
        let ns = timers.span(Phase::Collect).end().expect("measured");
        drop(timers.span(Phase::Collect));
        assert_eq!(timers.histogram(Phase::Collect).count(), 2);
        assert_eq!(timers.histogram(Phase::Plan).count(), 0);
        assert!(timers.histogram(Phase::Collect).max().unwrap() >= ns.min(1));
    }

    #[test]
    fn traced_spans_emit_phase_timing_events() {
        let timers = PhaseTimers::new();
        timers.set_enabled(true);
        let sink = MemorySink::default();
        drop(timers.span_traced(Phase::Commit, &sink, 4.5));
        let events = sink.events();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].kind, EventKind::PhaseTiming);
        assert_eq!(events[0].time, 4.5);
        assert_eq!(events[0].name.as_deref(), Some("commit"));
        assert!(events[0].duration_ns.is_some());
    }

    #[test]
    fn traced_spans_stay_silent_when_timers_disabled() {
        let timers = PhaseTimers::new();
        let sink = MemorySink::default();
        drop(timers.span_traced(Phase::Commit, &sink, 1.0));
        assert!(sink.events().is_empty());
        assert_eq!(timers.histogram(Phase::Commit).count(), 0);
    }

    #[test]
    fn phase_names_round_trip() {
        for phase in Phase::ALL {
            assert_eq!(Phase::from_name(phase.name()), Some(phase));
            assert_eq!(Phase::ALL[phase.index()], phase);
        }
        assert_eq!(Phase::from_name("nope"), None);
    }
}
