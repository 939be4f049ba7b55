//! The Availability Change Index window (§4.3.1, eq. 5).
//!
//! Each broker keeps a sliding window of recent availability
//! observations and summarizes it as α = current availability over the
//! windowed average: α ≈ 1 means a stable resource, α < 1 one whose
//! availability is shrinking (contention building up), α > 1 one that is
//! recovering. The tradeoff planner (§4.3.1) consults the bottleneck's α
//! to decide whether the best reachable QoS level is worth committing to
//! or whether to step down to a less contended plan — see
//! [`qosr_core::Planner::Tradeoff`].

use crate::SimTime;
use std::collections::VecDeque;

/// Cap for the "recovering from full exhaustion" corner case, where the
/// windowed average is zero but current availability is positive.
const ALPHA_CAP: f64 = 1.0e6;

/// Sliding window of availability reports computing the paper's
/// *Availability Change Index* `α = r^avail / r^avail_avg` (eq. 5).
///
/// Per the paper, `r^avail_avg` is the average of the values *reported
/// during the past `T` time units*, and is updated **after** each report
/// — so the current report is compared against history that does not yet
/// include it.
///
/// ```
/// use qosr_broker::{AlphaWindow, SimTime};
/// let mut w = AlphaWindow::new(3.0);
/// assert_eq!(w.observe(SimTime::new(0.0), 100.0), 1.0); // no history yet
/// // Availability halves: the trend index drops below 1.
/// assert_eq!(w.observe(SimTime::new(1.0), 50.0), 0.5);
/// ```
#[derive(Debug, Clone)]
pub struct AlphaWindow {
    window: f64,
    reports: VecDeque<(SimTime, f64)>,
}

impl AlphaWindow {
    /// Creates a window of `T = window` time units.
    ///
    /// # Panics
    /// Panics when `window` is not finite and positive.
    pub fn new(window: f64) -> Self {
        assert!(
            window.is_finite() && window > 0.0,
            "alpha window must be finite and positive, got {window}"
        );
        AlphaWindow {
            window,
            reports: VecDeque::new(),
        }
    }

    /// The window length `T`.
    pub fn window(&self) -> f64 {
        self.window
    }

    /// Records a report of `avail` at `now` and returns the α for it.
    /// With no prior reports in the window, α is `1.0` (no known trend).
    pub fn observe(&mut self, now: SimTime, avail: f64) -> f64 {
        let cutoff = now - self.window;
        while self.reports.front().is_some_and(|&(t, _)| t < cutoff) {
            self.reports.pop_front();
        }
        let alpha = if self.reports.is_empty() {
            1.0
        } else {
            let avg = self.reports.iter().map(|&(_, a)| a).sum::<f64>() / self.reports.len() as f64;
            if avg > 0.0 {
                avail / avg
            } else if avail > 0.0 {
                ALPHA_CAP
            } else {
                1.0
            }
        };
        self.reports.push_back((now, avail));
        alpha
    }

    /// Number of reports currently inside the window.
    pub fn len(&self) -> usize {
        self.reports.len()
    }

    /// `true` when the window holds no reports.
    pub fn is_empty(&self) -> bool {
        self.reports.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_report_is_neutral() {
        let mut w = AlphaWindow::new(3.0);
        assert_eq!(w.observe(SimTime::ZERO, 100.0), 1.0);
        assert_eq!(w.len(), 1);
    }

    #[test]
    fn alpha_tracks_trend() {
        let mut w = AlphaWindow::new(3.0);
        w.observe(SimTime::new(0.0), 100.0);
        // Down-trend.
        assert!((w.observe(SimTime::new(1.0), 60.0) - 0.6).abs() < 1e-12);
        // Up vs avg(100, 60) = 80.
        assert!((w.observe(SimTime::new(2.0), 100.0) - 1.25).abs() < 1e-12);
    }

    #[test]
    fn window_evicts() {
        let mut w = AlphaWindow::new(3.0);
        w.observe(SimTime::new(0.0), 100.0);
        w.observe(SimTime::new(2.0), 50.0);
        // At t=5 only the t=2 report remains: α = 50/50.
        assert!((w.observe(SimTime::new(5.0), 50.0) - 1.0).abs() < 1e-12);
        assert_eq!(w.len(), 2); // t=2 evicted next time, t=5 and this one
    }

    #[test]
    fn zero_average_recovery_is_capped() {
        let mut w = AlphaWindow::new(3.0);
        w.observe(SimTime::new(0.0), 0.0);
        let a = w.observe(SimTime::new(1.0), 10.0);
        assert_eq!(a, 1.0e6);
        // Zero over zero: neutral.
        let mut w = AlphaWindow::new(3.0);
        w.observe(SimTime::new(0.0), 0.0);
        assert_eq!(w.observe(SimTime::new(1.0), 0.0), 1.0);
    }

    #[test]
    #[should_panic(expected = "alpha window")]
    fn rejects_bad_window() {
        AlphaWindow::new(0.0);
    }
}
