//! The broker directory: snapshots and atomic multi-resource
//! reservation.

use crate::{Broker, ReserveError, SessionId, SimTime};
use qosr_core::AvailabilityView;
use qosr_model::{ResourceId, ResourceVector};
use rand::{Rng, RngExt};
use std::sync::Arc;

/// Directory of every Resource Broker in the environment, keyed by
/// [`ResourceId`].
///
/// Provides the two operations the QoSProxies need:
///
/// * **snapshots** — fresh ([`BrokerRegistry::snapshot`]) or deliberately
///   stale ([`BrokerRegistry::snapshot_stale`], §5.2.4) availability
///   views to plan against;
/// * **atomic multi-resource reservation**
///   ([`BrokerRegistry::reserve_all`]) — reserve a whole
///   [`ResourceVector`] all-or-nothing, rolling back on the first
///   rejection (the paper: "the failure to reserve one resource leads to
///   the reservation failure for the whole distributed service
///   session").
///
/// Every walk over the brokers visits them in [`ResourceId`] order, so
/// sums over them are a function of the registry's contents alone.
#[derive(Default)]
pub struct BrokerRegistry {
    /// Sorted by resource id, one broker per id.
    brokers: Vec<(ResourceId, Arc<dyn Broker>)>,
}

impl BrokerRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a broker under its resource id, replacing any previous
    /// broker for that resource.
    pub fn register(&mut self, broker: Arc<dyn Broker>) {
        let id = broker.resource();
        match self.brokers.binary_search_by_key(&id, |(r, _)| *r) {
            Ok(at) => self.brokers[at].1 = broker,
            Err(at) => self.brokers.insert(at, (id, broker)),
        }
    }

    /// The broker for `id`, if registered.
    pub fn get(&self, id: ResourceId) -> Option<&Arc<dyn Broker>> {
        self.brokers
            .binary_search_by_key(&id, |(r, _)| *r)
            .ok()
            .map(|at| &self.brokers[at].1)
    }

    /// Number of registered brokers.
    pub fn len(&self) -> usize {
        self.brokers.len()
    }

    /// `true` when no brokers are registered.
    pub fn is_empty(&self) -> bool {
        self.brokers.is_empty()
    }

    /// Iterates over all brokers in [`ResourceId`] order.
    pub fn iter(&self) -> impl Iterator<Item = &Arc<dyn Broker>> {
        self.brokers.iter().map(|(_, b)| b)
    }

    /// An accurate availability snapshot of every registered resource at
    /// `now` (each broker's report also feeds its α window).
    pub fn snapshot(&self, now: SimTime) -> AvailabilityView {
        let mut view = AvailabilityView::new();
        for broker in self.iter() {
            let r = broker.report(now);
            view.set_with_alpha(broker.resource(), r.avail, r.alpha);
        }
        view
    }

    /// An *inaccurate* snapshot (§5.2.4): each resource is observed with
    /// an independent age drawn uniformly from `[0, max_age]` time units,
    /// reading the availability that was true at that moment.
    pub fn snapshot_stale(
        &self,
        now: SimTime,
        max_age: f64,
        rng: &mut impl Rng,
    ) -> AvailabilityView {
        assert!(max_age >= 0.0, "max_age must be non-negative");
        let mut view = AvailabilityView::new();
        for (id, broker) in &self.brokers {
            let age = if max_age > 0.0 {
                rng.random_range(0.0..=max_age)
            } else {
                0.0
            };
            let r = broker.report_observed(now, now - age);
            view.set_with_alpha(*id, r.avail, r.alpha);
        }
        view
    }

    /// Reserves the whole `demand` vector for `session`, all-or-nothing:
    /// on the first rejection every already-reserved resource is rolled
    /// back and the error is returned.
    pub fn reserve_all(
        &self,
        session: SessionId,
        demand: &ResourceVector,
        now: SimTime,
    ) -> Result<(), ReserveError> {
        self.reserve_pairs(session, demand.iter(), now)
    }

    /// [`BrokerRegistry::reserve_all`] over `(resource, amount)` pairs,
    /// reserved in the order given; a rollback releases the resources
    /// already reserved in that same order. The pairs are walked a
    /// second time only to roll back.
    pub(crate) fn reserve_pairs(
        &self,
        session: SessionId,
        pairs: impl Iterator<Item = (ResourceId, f64)> + Clone,
        now: SimTime,
    ) -> Result<(), ReserveError> {
        for (reserved, (id, amount)) in pairs.clone().enumerate() {
            let result = match self.get(id) {
                Some(broker) => broker.reserve(session, amount, now),
                None => Err(ReserveError::UnknownResource { resource: id }),
            };
            if let Err(e) = result {
                for (id, _) in pairs.take(reserved) {
                    self.get(id).expect("reserved above").release(session, now);
                }
                return Err(e);
            }
        }
        Ok(())
    }

    /// Releases everything `session` holds across all brokers, returning
    /// the total released amount.
    pub fn release_all(&self, session: SessionId, now: SimTime) -> f64 {
        self.iter().map(|b| b.release(session, now)).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{LocalBroker, LocalBrokerConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn registry(capacities: &[f64]) -> BrokerRegistry {
        let mut reg = BrokerRegistry::new();
        for (i, &c) in capacities.iter().enumerate() {
            reg.register(Arc::new(LocalBroker::new(
                ResourceId(i as u32),
                c,
                SimTime::ZERO,
                LocalBrokerConfig::default(),
            )));
        }
        reg
    }

    fn demand(pairs: &[(u32, f64)]) -> ResourceVector {
        ResourceVector::from_pairs(pairs.iter().map(|&(i, a)| (ResourceId(i), a))).unwrap()
    }

    #[test]
    fn snapshot_reports_all() {
        let reg = registry(&[100.0, 50.0]);
        let view = reg.snapshot(SimTime::new(1.0));
        assert_eq!(view.avail(ResourceId(0)), 100.0);
        assert_eq!(view.avail(ResourceId(1)), 50.0);
        assert_eq!(view.len(), 2);
        assert_eq!(reg.len(), 2);
    }

    #[test]
    fn reserve_all_success_and_release() {
        let reg = registry(&[100.0, 50.0]);
        let s = SessionId(1);
        reg.reserve_all(s, &demand(&[(0, 60.0), (1, 20.0)]), SimTime::new(1.0))
            .unwrap();
        assert_eq!(reg.get(ResourceId(0)).unwrap().available(), 40.0);
        assert_eq!(reg.get(ResourceId(1)).unwrap().available(), 30.0);
        assert_eq!(reg.release_all(s, SimTime::new(2.0)), 80.0);
        assert_eq!(reg.get(ResourceId(0)).unwrap().available(), 100.0);
    }

    #[test]
    fn reserve_all_rolls_back_on_failure() {
        let reg = registry(&[100.0, 50.0]);
        let s = SessionId(1);
        // Second resource over-demands; first must be rolled back.
        let err = reg
            .reserve_all(s, &demand(&[(0, 60.0), (1, 70.0)]), SimTime::new(1.0))
            .unwrap_err();
        assert_eq!(err.resource(), ResourceId(1));
        assert_eq!(reg.get(ResourceId(0)).unwrap().available(), 100.0);
        assert_eq!(reg.get(ResourceId(1)).unwrap().available(), 50.0);
    }

    #[test]
    fn reserve_all_unknown_resource_rolls_back() {
        let reg = registry(&[100.0]);
        let err = reg
            .reserve_all(SessionId(1), &demand(&[(0, 10.0), (9, 1.0)]), SimTime::ZERO)
            .unwrap_err();
        assert!(matches!(err, ReserveError::UnknownResource { .. }));
        assert_eq!(reg.get(ResourceId(0)).unwrap().available(), 100.0);
    }

    #[test]
    fn stale_snapshot_sees_the_past() {
        let reg = registry(&[100.0]);
        reg.reserve_all(SessionId(1), &demand(&[(0, 80.0)]), SimTime::new(10.0))
            .unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        // max_age 0 behaves like an accurate snapshot.
        let fresh = reg.snapshot_stale(SimTime::new(10.5), 0.0, &mut rng);
        assert_eq!(fresh.avail(ResourceId(0)), 20.0);
        // With a large max age, some draws land before the reservation.
        let mut saw_past = false;
        for _ in 0..64 {
            let v = reg.snapshot_stale(SimTime::new(11.0), 8.0, &mut rng);
            if v.avail(ResourceId(0)) == 100.0 {
                saw_past = true;
                break;
            }
        }
        assert!(saw_past, "stale snapshots never observed the past");
    }
}
