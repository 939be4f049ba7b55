//! SLO engine: declarative admission-service targets evaluated with
//! multi-window burn rates.
//!
//! The admission service is treated as an SLA-bound service (per
//! "Design of QoS-aware Provisioning Systems"): operators declare
//! [`SloTargets`] — a p99 establish-latency bound, a maximum rejection
//! rate, a maximum degraded-commit rate — and the engine evaluates each
//! over two windows at once: a *long* window (everything since start,
//! the budget view) and a *short* window (the most recent
//! [`SHORT_WINDOW`] requests, the spike view). A target's **burn rate**
//! is `observed / target`; a target is **breached** only when both
//! windows burn above 1.0 — the classic multi-window rule that ignores
//! one-off blips (short spikes over a healthy history) and long-stale
//! history (a bad past the service has recovered from).
//!
//! [`SloReport`]s travel over the wire (the `slo` frame behind
//! `qosr slo`) and the burn rates are exported as Prometheus gauge
//! series by `qosr serve`. Breach *transitions* (healthy → breached)
//! also trigger an automatic flight-recorder dump, so the span trees of
//! the requests that burned the budget are on disk before the ring
//! recycles them.

use std::collections::VecDeque;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

use serde::{Deserialize, Serialize};

use crate::hist::Histogram;
use crate::trace::{OUTCOME_COMMITTED, OUTCOME_DEGRADED};

/// Requests in the short (spike-detection) window.
pub const SHORT_WINDOW: usize = 256;

/// Declarative service-level targets for the admission path.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SloTargets {
    /// p99 establish latency bound, nanoseconds.
    pub p99_establish_ns: u64,
    /// Maximum tolerated rejection rate (0..=1).
    pub max_rejection_rate: f64,
    /// Maximum tolerated degraded-commit rate (0..=1).
    pub max_degraded_rate: f64,
}

impl Default for SloTargets {
    /// Deliberately generous defaults — a local `qosr serve` should run
    /// clean out of the box; production operators tighten per service.
    fn default() -> Self {
        SloTargets {
            p99_establish_ns: 250_000_000, // 250ms
            max_rejection_rate: 0.5,
            max_degraded_rate: 0.5,
        }
    }
}

/// How one observed request left the admission pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SloOutcome {
    /// Admitted at the planned rank.
    Committed,
    /// Admitted below the first-planned rank.
    Degraded,
    /// Not admitted.
    Rejected,
}

impl SloOutcome {
    /// Maps a [`RequestTrace`](crate::RequestTrace) outcome label.
    pub fn from_label(label: &str) -> SloOutcome {
        match label {
            OUTCOME_COMMITTED => SloOutcome::Committed,
            OUTCOME_DEGRADED => SloOutcome::Degraded,
            _ => SloOutcome::Rejected,
        }
    }
}

#[derive(Debug, Default)]
struct ShortWindow {
    entries: VecDeque<(SloOutcome, u64)>,
}

/// Evaluates [`SloTargets`] over long and short windows as requests
/// complete. `observe` is cheap (three relaxed atomics, one histogram
/// record, one short-window push under a small mutex) and is called for
/// *every* request, traced or not — SLO accounting never depends on the
/// tracing flag.
#[derive(Debug)]
pub struct SloEngine {
    targets: SloTargets,
    committed: AtomicU64,
    degraded: AtomicU64,
    rejected: AtomicU64,
    latency: Histogram,
    short: Mutex<ShortWindow>,
    breached: AtomicBool,
    breaches: AtomicU64,
}

impl SloEngine {
    /// An engine evaluating `targets`.
    pub fn new(targets: SloTargets) -> Self {
        SloEngine {
            targets,
            committed: AtomicU64::new(0),
            degraded: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            latency: Histogram::new(),
            short: Mutex::new(ShortWindow::default()),
            breached: AtomicBool::new(false),
            breaches: AtomicU64::new(0),
        }
    }

    /// The declared targets.
    pub fn targets(&self) -> SloTargets {
        self.targets
    }

    /// Records one completed request with its end-to-end latency.
    pub fn observe(&self, outcome: SloOutcome, latency_ns: u64) {
        match outcome {
            SloOutcome::Committed => self.committed.fetch_add(1, Ordering::Relaxed),
            SloOutcome::Degraded => self.degraded.fetch_add(1, Ordering::Relaxed),
            SloOutcome::Rejected => self.rejected.fetch_add(1, Ordering::Relaxed),
        };
        self.latency.record(latency_ns);
        let mut short = self.short.lock().expect("slo window lock poisoned");
        if short.entries.len() == SHORT_WINDOW {
            short.entries.pop_front();
        }
        short.entries.push_back((outcome, latency_ns));
    }

    /// Evaluates the targets over both windows right now.
    pub fn report(&self) -> SloReport {
        let committed = self.committed.load(Ordering::Relaxed);
        let degraded = self.degraded.load(Ordering::Relaxed);
        let rejected = self.rejected.load(Ordering::Relaxed);
        let total = committed + degraded + rejected;
        let p99_ns = self.latency.percentile(0.99).unwrap_or(0);

        let (short_total, short_degraded, short_rejected, short_p99_ns) = {
            let short = self.short.lock().expect("slo window lock poisoned");
            let mut lat: Vec<u64> = short.entries.iter().map(|(_, ns)| *ns).collect();
            lat.sort_unstable();
            let p99 = if lat.is_empty() {
                0
            } else {
                // Nearest-rank p99 over the short window.
                let rank = ((lat.len() as f64) * 0.99).ceil() as usize;
                lat[rank.saturating_sub(1).min(lat.len() - 1)]
            };
            let deg = short
                .entries
                .iter()
                .filter(|(o, _)| *o == SloOutcome::Degraded)
                .count() as u64;
            let rej = short
                .entries
                .iter()
                .filter(|(o, _)| *o == SloOutcome::Rejected)
                .count() as u64;
            (short.entries.len() as u64, deg, rej, p99)
        };

        let rejection_rate = rate(rejected, total);
        let degraded_rate = rate(degraded, total);
        let short_rejection_rate = rate(short_rejected, short_total);
        let short_degraded_rate = rate(short_degraded, short_total);

        let rejection_burn = burn(rejection_rate, self.targets.max_rejection_rate);
        let degraded_burn = burn(degraded_rate, self.targets.max_degraded_rate);
        let latency_burn = burn(p99_ns as f64, self.targets.p99_establish_ns as f64);
        let short_rejection_burn = burn(short_rejection_rate, self.targets.max_rejection_rate);
        let short_degraded_burn = burn(short_degraded_rate, self.targets.max_degraded_rate);
        let short_latency_burn = burn(short_p99_ns as f64, self.targets.p99_establish_ns as f64);

        // A target is breached only when both windows burn over 1.0.
        let breached = total > 0
            && ((rejection_burn > 1.0 && short_rejection_burn > 1.0)
                || (degraded_burn > 1.0 && short_degraded_burn > 1.0)
                || (latency_burn > 1.0 && short_latency_burn > 1.0));

        SloReport {
            target_p99_ns: self.targets.p99_establish_ns,
            target_rejection_rate: self.targets.max_rejection_rate,
            target_degraded_rate: self.targets.max_degraded_rate,
            total,
            committed,
            degraded,
            rejected,
            p99_ns,
            rejection_rate,
            degraded_rate,
            short_total,
            short_p99_ns,
            short_rejection_rate,
            short_degraded_rate,
            rejection_burn,
            degraded_burn,
            latency_burn,
            short_rejection_burn,
            short_degraded_burn,
            short_latency_burn,
            breached,
            breaches: self.breaches.load(Ordering::Relaxed),
        }
    }

    /// Like [`SloEngine::report`], but also latches the breach state and
    /// returns whether this evaluation *entered* a breach (healthy →
    /// breached edge) — the trigger for an automatic flight dump.
    pub fn evaluate(&self) -> (SloReport, bool) {
        let mut report = self.report();
        let was = self.breached.swap(report.breached, Ordering::Relaxed);
        let entered = report.breached && !was;
        if entered {
            report.breaches = self.breaches.fetch_add(1, Ordering::Relaxed) + 1;
        }
        (report, entered)
    }
}

fn rate(part: u64, total: u64) -> f64 {
    if total == 0 {
        0.0
    } else {
        part as f64 / total as f64
    }
}

/// `observed / target`. A zero target allows nothing, so any
/// observation burns it at `f64::MAX`: over 1.0, so the target breaches,
/// yet finite, so the report still travels as JSON (which has no
/// infinity).
fn burn(observed: f64, target: f64) -> f64 {
    if target <= 0.0 {
        if observed > 0.0 {
            f64::MAX
        } else {
            0.0
        }
    } else {
        observed / target
    }
}

/// A point-in-time evaluation of the SLO targets: per-target observed
/// values and burn rates over both windows. Travels over the wire as
/// the `slo` response frame.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SloReport {
    /// Declared p99 establish-latency target, nanoseconds.
    pub target_p99_ns: u64,
    /// Declared maximum rejection rate.
    pub target_rejection_rate: f64,
    /// Declared maximum degraded-commit rate.
    pub target_degraded_rate: f64,
    /// Requests observed since start (long window).
    pub total: u64,
    /// Long-window committed count.
    pub committed: u64,
    /// Long-window degraded count.
    pub degraded: u64,
    /// Long-window rejected count.
    pub rejected: u64,
    /// Long-window p99 establish latency, nanoseconds.
    pub p99_ns: u64,
    /// Long-window rejection rate.
    pub rejection_rate: f64,
    /// Long-window degraded rate.
    pub degraded_rate: f64,
    /// Requests in the short window (≤ [`SHORT_WINDOW`]).
    pub short_total: u64,
    /// Short-window p99 establish latency, nanoseconds.
    pub short_p99_ns: u64,
    /// Short-window rejection rate.
    pub short_rejection_rate: f64,
    /// Short-window degraded rate.
    pub short_degraded_rate: f64,
    /// Long-window rejection burn (`rate / target`).
    pub rejection_burn: f64,
    /// Long-window degraded burn.
    pub degraded_burn: f64,
    /// Long-window latency burn (`p99 / target`).
    pub latency_burn: f64,
    /// Short-window rejection burn.
    pub short_rejection_burn: f64,
    /// Short-window degraded burn.
    pub short_degraded_burn: f64,
    /// Short-window latency burn.
    pub short_latency_burn: f64,
    /// Whether any target currently burns over 1.0 in *both* windows.
    pub breached: bool,
    /// Healthy→breached transitions latched so far.
    pub breaches: u64,
}

impl SloReport {
    /// Renders the report as an operator-facing table (for `qosr slo`).
    pub fn render(&self) -> String {
        let mut out = String::new();
        let status = if self.breached { "BREACHED" } else { "ok" };
        let _ = writeln!(
            out,
            "slo status: {status}  ({} requests, {} breach transitions)",
            self.total, self.breaches
        );
        let _ = writeln!(
            out,
            "  {:<12} {:>14} {:>14} {:>12} {:>12}",
            "target", "long", "short", "burn(long)", "burn(short)"
        );
        let _ = writeln!(
            out,
            "  {:<12} {:>14} {:>14} {:>12.3} {:>12.3}",
            format!("p99<{}ms", self.target_p99_ns / 1_000_000),
            format!("{:.3}ms", self.p99_ns as f64 / 1e6),
            format!("{:.3}ms", self.short_p99_ns as f64 / 1e6),
            self.latency_burn,
            self.short_latency_burn,
        );
        let _ = writeln!(
            out,
            "  {:<12} {:>14} {:>14} {:>12.3} {:>12.3}",
            format!("reject<{:.0}%", self.target_rejection_rate * 100.0),
            format!("{:.2}%", self.rejection_rate * 100.0),
            format!("{:.2}%", self.short_rejection_rate * 100.0),
            self.rejection_burn,
            self.short_rejection_burn,
        );
        let _ = writeln!(
            out,
            "  {:<12} {:>14} {:>14} {:>12.3} {:>12.3}",
            format!("degrade<{:.0}%", self.target_degraded_rate * 100.0),
            format!("{:.2}%", self.degraded_rate * 100.0),
            format!("{:.2}%", self.short_degraded_rate * 100.0),
            self.degraded_burn,
            self.short_degraded_burn,
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tight() -> SloTargets {
        SloTargets {
            p99_establish_ns: 1_000,
            max_rejection_rate: 0.10,
            max_degraded_rate: 0.10,
        }
    }

    #[test]
    fn clean_traffic_reports_clean() {
        let engine = SloEngine::new(tight());
        for _ in 0..100 {
            engine.observe(SloOutcome::Committed, 500);
        }
        let (report, entered) = engine.evaluate();
        assert!(!report.breached);
        assert!(!entered);
        assert_eq!(report.total, 100);
        assert_eq!(report.committed, 100);
        assert!(report.latency_burn <= 1.0);
        assert_eq!(report.rejection_burn, 0.0);
    }

    #[test]
    fn breach_requires_both_windows() {
        let engine = SloEngine::new(tight());
        // A rejected-heavy past...
        for _ in 0..100 {
            engine.observe(SloOutcome::Rejected, 500);
        }
        let (report, entered) = engine.evaluate();
        assert!(report.breached, "both windows over budget");
        assert!(entered, "first evaluation enters the breach");
        assert_eq!(report.breaches, 1);
        // ...then the service recovers: the short window goes clean while
        // the long window still burns over 1.0 — no longer a breach.
        for _ in 0..SHORT_WINDOW {
            engine.observe(SloOutcome::Committed, 500);
        }
        let (report, entered) = engine.evaluate();
        assert!(report.rejection_burn > 1.0, "long window still burning");
        assert!(report.short_rejection_burn == 0.0);
        assert!(!report.breached);
        assert!(!entered);
        assert_eq!(report.breaches, 1, "transition count is latched");
    }

    #[test]
    fn short_spike_over_healthy_history_is_not_a_breach() {
        let engine = SloEngine::new(tight());
        for _ in 0..10_000 {
            engine.observe(SloOutcome::Committed, 500);
        }
        // A full short window of rejections: short burn spikes, long stays low.
        for _ in 0..SHORT_WINDOW {
            engine.observe(SloOutcome::Rejected, 500);
        }
        let (report, entered) = engine.evaluate();
        assert!(report.short_rejection_burn > 1.0);
        assert!(report.rejection_burn <= 1.0);
        assert!(!report.breached);
        assert!(!entered);
    }

    #[test]
    fn latency_target_uses_p99_in_both_windows() {
        let engine = SloEngine::new(tight());
        for _ in 0..300 {
            engine.observe(SloOutcome::Committed, 5_000);
        }
        let (report, entered) = engine.evaluate();
        assert!(report.latency_burn > 1.0);
        assert!(report.short_latency_burn > 1.0);
        assert!(report.breached);
        assert!(entered);
    }

    #[test]
    fn report_roundtrips_through_serde() {
        let engine = SloEngine::new(SloTargets::default());
        engine.observe(SloOutcome::Committed, 100);
        engine.observe(SloOutcome::Degraded, 200);
        engine.observe(SloOutcome::Rejected, 300);
        let report = engine.report();
        let json = serde_json::to_string(&report).unwrap();
        let back: SloReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, report);
    }

    #[test]
    fn render_mentions_status_and_targets() {
        let engine = SloEngine::new(SloTargets::default());
        engine.observe(SloOutcome::Committed, 1_000_000);
        let text = engine.report().render();
        assert!(text.contains("slo status: ok"));
        assert!(text.contains("p99<250ms"));
        assert!(text.contains("reject<50%"));
    }
}
