//! Broker for host-local resources (CPU, memory, disk I/O bandwidth).

use crate::{AlphaWindow, Broker, BrokerReport, ReserveError, SessionId, SimTime};
use parking_lot::Mutex;
use qosr_model::ResourceId;
use std::collections::{HashMap, VecDeque};

/// Configuration of a [`LocalBroker`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LocalBrokerConfig {
    /// Sliding-window length `T` (in time units) over which
    /// `r^avail_avg` is computed for the availability-change index α
    /// (§4.3.1). The paper's evaluation uses `T = 3` TU.
    pub alpha_window: f64,
    /// How far back (in time units) the availability change log must be
    /// able to answer [`Broker::available_at`] queries. Bounds memory.
    pub log_horizon: f64,
}

impl Default for LocalBrokerConfig {
    fn default() -> Self {
        LocalBrokerConfig {
            alpha_window: 3.0,
            log_horizon: 64.0,
        }
    }
}

#[derive(Debug)]
struct Inner {
    available: f64,
    ledger: HashMap<SessionId, f64>,
    /// Sliding α window over reported availabilities (eq. 5).
    alpha: AlphaWindow,
    /// `(change time, availability after the change)`, pruned to the log
    /// horizon. Never empty: seeded with the creation event.
    changes: VecDeque<(SimTime, f64)>,
}

impl Inner {
    /// The availability after the last change at or before `t`; before
    /// the log begins, the oldest known value.
    fn available_at(&self, t: SimTime) -> f64 {
        match self.changes.partition_point(|&(ct, _)| ct <= t) {
            0 => self.changes.front().expect("log never empty").1,
            n => self.changes[n - 1].1,
        }
    }
}

/// A Resource Broker for a single local resource.
///
/// Thread-safe (interior mutability behind a [`parking_lot::Mutex`]);
/// every operation is O(log) or amortized O(1) except
/// [`Broker::available_at`], which binary-searches the change log.
#[derive(Debug)]
pub struct LocalBroker {
    resource: ResourceId,
    capacity: f64,
    config: LocalBrokerConfig,
    inner: Mutex<Inner>,
}

impl LocalBroker {
    /// Creates a broker with `capacity` units, all available, at time
    /// `created`.
    ///
    /// # Panics
    /// Panics if `capacity` is not finite and positive.
    pub fn new(
        resource: ResourceId,
        capacity: f64,
        created: SimTime,
        config: LocalBrokerConfig,
    ) -> Self {
        assert!(
            capacity.is_finite() && capacity > 0.0,
            "capacity must be finite and positive, got {capacity}"
        );
        let mut changes = VecDeque::new();
        changes.push_back((created, capacity));
        LocalBroker {
            resource,
            capacity,
            config,
            inner: Mutex::new(Inner {
                available: capacity,
                ledger: HashMap::new(),
                alpha: AlphaWindow::new(config.alpha_window),
                changes,
            }),
        }
    }

    /// Broker configuration.
    pub fn config(&self) -> &LocalBrokerConfig {
        &self.config
    }

    /// Number of sessions currently holding reservations.
    pub fn active_sessions(&self) -> usize {
        self.inner.lock().ledger.len()
    }

    fn log_change(inner: &mut Inner, now: SimTime, horizon: f64) {
        inner.changes.push_back((now, inner.available));
        // Prune entries made redundant by a newer entry that is itself
        // older than the horizon (we must keep one entry at or before
        // `now - horizon` so historical queries stay answerable).
        let cutoff = now - horizon;
        while inner.changes.len() >= 2 && inner.changes[1].0 <= cutoff {
            inner.changes.pop_front();
        }
    }
}

impl Broker for LocalBroker {
    fn resource(&self) -> ResourceId {
        self.resource
    }

    fn capacity(&self) -> f64 {
        self.capacity
    }

    fn available(&self) -> f64 {
        self.inner.lock().available
    }

    fn available_at(&self, t: SimTime) -> f64 {
        self.inner.lock().available_at(t)
    }

    fn report_observed(&self, now: SimTime, observed_at: SimTime) -> BrokerReport {
        let mut inner = self.inner.lock();
        let avail = inner.available_at(observed_at);
        let alpha = inner.alpha.observe(now, avail);
        BrokerReport { avail, alpha }
    }

    fn reserve(&self, session: SessionId, amount: f64, now: SimTime) -> Result<(), ReserveError> {
        if !amount.is_finite() || amount <= 0.0 {
            return Err(ReserveError::InvalidAmount {
                resource: self.resource,
                amount,
            });
        }
        let mut inner = self.inner.lock();
        if amount > inner.available {
            return Err(ReserveError::Insufficient {
                resource: self.resource,
                requested: amount,
                available: inner.available,
            });
        }
        inner.available -= amount;
        *inner.ledger.entry(session).or_insert(0.0) += amount;
        Self::log_change(&mut inner, now, self.config.log_horizon);
        Ok(())
    }

    fn release(&self, session: SessionId, now: SimTime) -> f64 {
        let mut inner = self.inner.lock();
        let Some(amount) = inner.ledger.remove(&session) else {
            return 0.0;
        };
        inner.available = (inner.available + amount).min(self.capacity);
        Self::log_change(&mut inner, now, self.config.log_horizon);
        amount
    }

    fn release_amount(&self, session: SessionId, amount: f64, now: SimTime) -> f64 {
        if !amount.is_finite() || amount <= 0.0 {
            return 0.0;
        }
        let mut inner = self.inner.lock();
        let Some(held) = inner.ledger.get_mut(&session) else {
            return 0.0;
        };
        let released = amount.min(*held);
        *held -= released;
        if *held <= 0.0 {
            inner.ledger.remove(&session);
        }
        inner.available = (inner.available + released).min(self.capacity);
        Self::log_change(&mut inner, now, self.config.log_horizon);
        released
    }

    fn reserved_for(&self, session: SessionId) -> f64 {
        self.inner
            .lock()
            .ledger
            .get(&session)
            .copied()
            .unwrap_or(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn broker(capacity: f64) -> LocalBroker {
        LocalBroker::new(
            ResourceId(0),
            capacity,
            SimTime::ZERO,
            LocalBrokerConfig::default(),
        )
    }

    #[test]
    fn reserve_and_release_roundtrip() {
        let b = broker(100.0);
        let (s1, s2) = (SessionId(1), SessionId(2));
        assert_eq!(b.available(), 100.0);
        b.reserve(s1, 30.0, SimTime::new(1.0)).unwrap();
        b.reserve(s2, 50.0, SimTime::new(2.0)).unwrap();
        assert_eq!(b.available(), 20.0);
        assert_eq!(b.reserved_for(s1), 30.0);
        assert_eq!(b.active_sessions(), 2);
        // Over-reservation rejected and state unchanged.
        let err = b
            .reserve(SessionId(3), 21.0, SimTime::new(3.0))
            .unwrap_err();
        assert!(matches!(err, ReserveError::Insufficient { available, .. } if available == 20.0));
        assert_eq!(b.available(), 20.0);
        // Releases restore availability; double release is a no-op.
        assert_eq!(b.release(s1, SimTime::new(4.0)), 30.0);
        assert_eq!(b.release(s1, SimTime::new(4.0)), 0.0);
        assert_eq!(b.available(), 50.0);
    }

    #[test]
    fn same_session_accumulates() {
        let b = broker(100.0);
        let s = SessionId(7);
        b.reserve(s, 10.0, SimTime::new(1.0)).unwrap();
        b.reserve(s, 15.0, SimTime::new(1.0)).unwrap();
        assert_eq!(b.reserved_for(s), 25.0);
        assert_eq!(b.release(s, SimTime::new(2.0)), 25.0);
        assert_eq!(b.available(), 100.0);
    }

    #[test]
    fn rejects_invalid_amounts() {
        let b = broker(10.0);
        for bad in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            assert!(matches!(
                b.reserve(SessionId(1), bad, SimTime::ZERO),
                Err(ReserveError::InvalidAmount { .. })
            ));
        }
    }

    #[test]
    fn exact_exhaustion_allowed() {
        let b = broker(10.0);
        b.reserve(SessionId(1), 10.0, SimTime::ZERO).unwrap();
        assert_eq!(b.available(), 0.0);
    }

    #[test]
    fn available_at_reconstructs_history() {
        let b = broker(100.0);
        b.reserve(SessionId(1), 40.0, SimTime::new(10.0)).unwrap();
        b.reserve(SessionId(2), 20.0, SimTime::new(20.0)).unwrap();
        b.release(SessionId(1), SimTime::new(30.0));
        assert_eq!(b.available_at(SimTime::new(5.0)), 100.0);
        assert_eq!(b.available_at(SimTime::new(10.0)), 60.0);
        assert_eq!(b.available_at(SimTime::new(15.0)), 60.0);
        assert_eq!(b.available_at(SimTime::new(25.0)), 40.0);
        assert_eq!(b.available_at(SimTime::new(35.0)), 80.0);
        // Before the log begins: oldest known value.
        assert_eq!(b.available_at(SimTime::new(-5.0)), 100.0);
    }

    #[test]
    fn log_pruning_keeps_horizon_answerable() {
        let b = LocalBroker::new(
            ResourceId(0),
            100.0,
            SimTime::ZERO,
            LocalBrokerConfig {
                alpha_window: 3.0,
                log_horizon: 10.0,
            },
        );
        for i in 1..=100u64 {
            b.reserve(SessionId(i), 0.5, SimTime::new(i as f64))
                .unwrap();
        }
        // Entries well inside the horizon survive.
        assert_eq!(b.available_at(SimTime::new(95.0)), 100.0 - 95.0 * 0.5);
        // The log does not grow without bound: ~horizon entries plus slack.
        assert!(b.inner.lock().changes.len() <= 12);
    }

    #[test]
    fn alpha_reflects_trend() {
        let b = broker(100.0);
        // First report: no history -> neutral.
        let r = b.report(SimTime::new(0.0));
        assert_eq!(r.alpha, 1.0);
        assert_eq!(r.avail, 100.0);
        // Drop availability, report again: α = 60 / avg(100) = 0.6.
        b.reserve(SessionId(1), 40.0, SimTime::new(1.0)).unwrap();
        let r = b.report(SimTime::new(1.0));
        assert!((r.alpha - 0.6).abs() < 1e-12);
        // Recover: α = 100 / avg(100, 60) = 1.25.
        b.release(SessionId(1), SimTime::new(2.0));
        let r = b.report(SimTime::new(2.0));
        assert!((r.alpha - 1.25).abs() < 1e-12);
    }

    #[test]
    fn alpha_window_evicts_old_reports() {
        let b = broker(100.0); // T = 3
        b.report(SimTime::new(0.0)); // avail 100 -> evicted later
        b.reserve(SessionId(1), 50.0, SimTime::new(0.5)).unwrap();
        b.report(SimTime::new(2.0)); // avail 50
                                     // At t=5, the t=0 report (age 5 > 3) is out of the window; only
                                     // the t=2 report (50) remains: α = 50/50 = 1.
        let r = b.report(SimTime::new(5.0));
        assert!((r.alpha - 1.0).abs() < 1e-12);
    }

    #[test]
    fn stale_report_uses_historical_availability() {
        let b = broker(100.0);
        b.reserve(SessionId(1), 70.0, SimTime::new(10.0)).unwrap();
        // Observed 5 TU ago (t=8): the reservation hadn't happened yet.
        let r = b.report_observed(SimTime::new(13.0), SimTime::new(8.0));
        assert_eq!(r.avail, 100.0);
        // An accurate report sees 30.
        assert_eq!(b.report(SimTime::new(13.0)).avail, 30.0);
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn rejects_bad_capacity() {
        broker(0.0);
    }
}

#[cfg(test)]
mod release_amount_tests {
    use super::*;
    use crate::Broker;

    #[test]
    fn partial_release() {
        let b = LocalBroker::new(
            ResourceId(0),
            100.0,
            SimTime::ZERO,
            LocalBrokerConfig::default(),
        );
        let s = SessionId(1);
        b.reserve(s, 40.0, SimTime::new(1.0)).unwrap();
        assert_eq!(b.release_amount(s, 15.0, SimTime::new(2.0)), 15.0);
        assert_eq!(b.reserved_for(s), 25.0);
        assert_eq!(b.available(), 75.0);
        // Releasing more than held clamps; entry disappears at zero.
        assert_eq!(b.release_amount(s, 100.0, SimTime::new(3.0)), 25.0);
        assert_eq!(b.reserved_for(s), 0.0);
        assert_eq!(b.active_sessions(), 0);
        assert_eq!(b.available(), 100.0);
        // Unknown session / bad amounts are no-ops.
        assert_eq!(b.release_amount(SessionId(9), 5.0, SimTime::new(3.0)), 0.0);
        assert_eq!(b.release_amount(s, -1.0, SimTime::new(3.0)), 0.0);
        assert_eq!(b.release_amount(s, f64::NAN, SimTime::new(3.0)), 0.0);
    }
}
