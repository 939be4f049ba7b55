//! The higher-level, end-to-end network path broker.

use parking_lot::Mutex;
use qosr_broker::{
    AlphaWindow, Broker, BrokerReport, LocalBroker, ReserveError, SessionId, SimTime,
};
use qosr_model::ResourceId;
use std::collections::HashMap;
use std::sync::Arc;

/// End-to-end network Resource Broker over a fixed route of links — the
/// higher level of the paper's two-level network reservation (§3).
///
/// * **Availability** is the *minimum* of the link availabilities
///   reported by the per-link brokers.
/// * **Reservation** is all-or-nothing across the route: each link broker
///   must accept the amount; the first rejection rolls back the links
///   already reserved (using partial release, so other path reservations
///   of the same session on a shared link are untouched).
/// * The **α window** is the path broker's own, fed by the min-values it
///   reports — exactly what a higher-level broker in the paper would
///   observe.
///
/// A zero-link route (both endpoints on the same host) is permitted and
/// behaves as an infinite resource: this mirrors co-located components
/// needing no network reservation.
pub struct NetworkBroker {
    resource: ResourceId,
    route: Vec<Arc<LocalBroker>>,
    state: Mutex<PathState>,
}

struct PathState {
    alpha: AlphaWindow,
    /// Per-session amount this *path* reserved (each link holds the same
    /// amount on behalf of the session).
    ledger: HashMap<SessionId, f64>,
}

impl NetworkBroker {
    /// Creates a path broker over `route` (ordered per-link brokers).
    pub fn new(resource: ResourceId, route: Vec<Arc<LocalBroker>>, alpha_window: f64) -> Self {
        NetworkBroker {
            resource,
            route,
            state: Mutex::new(PathState {
                alpha: AlphaWindow::new(alpha_window),
                ledger: HashMap::new(),
            }),
        }
    }

    /// The route's per-link brokers, in path order.
    pub fn route(&self) -> &[Arc<LocalBroker>] {
        &self.route
    }

    fn min_over_links(&self, f: impl Fn(&LocalBroker) -> f64) -> f64 {
        self.route
            .iter()
            .map(|l| f(l))
            .fold(f64::INFINITY, f64::min)
    }
}

impl Broker for NetworkBroker {
    fn resource(&self) -> ResourceId {
        self.resource
    }

    fn capacity(&self) -> f64 {
        self.min_over_links(|l| l.capacity())
    }

    fn available(&self) -> f64 {
        self.min_over_links(|l| l.available())
    }

    fn available_at(&self, t: SimTime) -> f64 {
        self.min_over_links(|l| l.available_at(t))
    }

    fn report_observed(&self, now: SimTime, observed_at: SimTime) -> BrokerReport {
        let avail = self.available_at(observed_at);
        let alpha = self.state.lock().alpha.observe(now, avail);
        BrokerReport { avail, alpha }
    }

    fn reserve(&self, session: SessionId, amount: f64, now: SimTime) -> Result<(), ReserveError> {
        if !amount.is_finite() || amount <= 0.0 {
            return Err(ReserveError::InvalidAmount {
                resource: self.resource,
                amount,
            });
        }
        let mut done: Vec<&Arc<LocalBroker>> = Vec::with_capacity(self.route.len());
        for link in &self.route {
            match link.reserve(session, amount, now) {
                Ok(()) => done.push(link),
                Err(e) => {
                    for l in done {
                        l.release_amount(session, amount, now);
                    }
                    // Surface the failure as the *path* resource failing,
                    // preserving the requested/available amounts.
                    return Err(match e {
                        ReserveError::Insufficient { available, .. } => {
                            ReserveError::Insufficient {
                                resource: self.resource,
                                requested: amount,
                                available,
                            }
                        }
                        other => other,
                    });
                }
            }
        }
        *self.state.lock().ledger.entry(session).or_insert(0.0) += amount;
        Ok(())
    }

    fn release(&self, session: SessionId, now: SimTime) -> f64 {
        let Some(amount) = self.state.lock().ledger.remove(&session) else {
            return 0.0;
        };
        for link in &self.route {
            link.release_amount(session, amount, now);
        }
        amount
    }

    fn release_amount(&self, session: SessionId, amount: f64, now: SimTime) -> f64 {
        if !amount.is_finite() || amount <= 0.0 {
            return 0.0;
        }
        let mut state = self.state.lock();
        let Some(held) = state.ledger.get_mut(&session) else {
            return 0.0;
        };
        let released = amount.min(*held);
        *held -= released;
        if *held <= 0.0 {
            state.ledger.remove(&session);
        }
        drop(state);
        for link in &self.route {
            link.release_amount(session, released, now);
        }
        released
    }

    fn reserved_for(&self, session: SessionId) -> f64 {
        self.state
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
    use qosr_broker::LocalBrokerConfig;

    fn link(i: u32, capacity: f64) -> Arc<LocalBroker> {
        Arc::new(LocalBroker::new(
            ResourceId(i),
            capacity,
            SimTime::ZERO,
            LocalBrokerConfig::default(),
        ))
    }

    fn path(links: &[Arc<LocalBroker>]) -> NetworkBroker {
        NetworkBroker::new(ResourceId(100), links.to_vec(), 3.0)
    }

    #[test]
    fn availability_is_min_over_links() {
        let links = [link(0, 100.0), link(1, 60.0), link(2, 80.0)];
        let p = path(&links);
        assert_eq!(p.capacity(), 60.0);
        assert_eq!(p.available(), 60.0);
        links[2]
            .reserve(SessionId(9), 50.0, SimTime::new(1.0))
            .unwrap();
        assert_eq!(p.available(), 30.0); // link 2 now has 30
        assert_eq!(p.available_at(SimTime::new(0.5)), 60.0);
        assert_eq!(p.report(SimTime::new(1.0)).avail, 30.0);
    }

    #[test]
    fn reserve_holds_every_link_and_release_frees_them() {
        let links = [link(0, 100.0), link(1, 60.0)];
        let p = path(&links);
        let s = SessionId(1);
        p.reserve(s, 40.0, SimTime::new(1.0)).unwrap();
        assert_eq!(links[0].available(), 60.0);
        assert_eq!(links[1].available(), 20.0);
        assert_eq!(p.reserved_for(s), 40.0);
        assert_eq!(p.release(s, SimTime::new(2.0)), 40.0);
        assert_eq!(links[0].available(), 100.0);
        assert_eq!(links[1].available(), 60.0);
        assert_eq!(p.release(s, SimTime::new(2.0)), 0.0);
    }

    #[test]
    fn failed_reserve_rolls_back_earlier_links() {
        let links = [link(0, 100.0), link(1, 30.0)];
        let p = path(&links);
        let err = p
            .reserve(SessionId(1), 40.0, SimTime::new(1.0))
            .unwrap_err();
        // Error surfaces as the path resource.
        assert_eq!(err.resource(), ResourceId(100));
        assert!(matches!(err, ReserveError::Insufficient { available, .. } if available == 30.0));
        assert_eq!(links[0].available(), 100.0);
        assert_eq!(links[1].available(), 30.0);
    }

    #[test]
    fn shared_link_between_two_paths_of_one_session() {
        // Paths A (l0, shared) and B (shared, l2) of the same session:
        // releasing A must not disturb B's hold on the shared link.
        let l0 = link(0, 100.0);
        let shared = link(1, 100.0);
        let l2 = link(2, 100.0);
        let a = NetworkBroker::new(ResourceId(100), vec![l0.clone(), shared.clone()], 3.0);
        let b = NetworkBroker::new(ResourceId(101), vec![shared.clone(), l2.clone()], 3.0);
        let s = SessionId(1);
        a.reserve(s, 10.0, SimTime::new(1.0)).unwrap();
        b.reserve(s, 20.0, SimTime::new(1.0)).unwrap();
        assert_eq!(shared.available(), 70.0);
        assert_eq!(a.release(s, SimTime::new(2.0)), 10.0);
        assert_eq!(shared.available(), 80.0); // B's 20 still held
        assert_eq!(shared.reserved_for(s), 20.0);
        assert_eq!(b.release(s, SimTime::new(3.0)), 20.0);
        assert_eq!(shared.available(), 100.0);
    }

    #[test]
    fn partial_release_on_path() {
        let links = [link(0, 100.0)];
        let p = path(&links);
        let s = SessionId(1);
        p.reserve(s, 30.0, SimTime::new(1.0)).unwrap();
        assert_eq!(p.release_amount(s, 10.0, SimTime::new(2.0)), 10.0);
        assert_eq!(p.reserved_for(s), 20.0);
        assert_eq!(links[0].available(), 80.0);
        assert_eq!(p.release_amount(s, 999.0, SimTime::new(3.0)), 20.0);
        assert_eq!(links[0].available(), 100.0);
    }

    #[test]
    fn empty_route_is_unconstrained() {
        let p = path(&[]);
        assert_eq!(p.available(), f64::INFINITY);
        p.reserve(SessionId(1), 1.0e9, SimTime::ZERO).unwrap();
        assert_eq!(p.reserved_for(SessionId(1)), 1.0e9);
        assert_eq!(p.release(SessionId(1), SimTime::ZERO), 1.0e9);
    }

    #[test]
    fn rejects_invalid_amounts() {
        let links = [link(0, 10.0)];
        let p = path(&links);
        for bad in [0.0, -3.0, f64::NAN] {
            assert!(matches!(
                p.reserve(SessionId(1), bad, SimTime::ZERO),
                Err(ReserveError::InvalidAmount { .. })
            ));
        }
    }
}
