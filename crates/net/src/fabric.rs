//! Glue: registering link/path resources and caching path brokers.

use crate::{LinkId, NetNode, NetworkBroker, Topology, TopologyError};
use qosr_broker::{LocalBroker, LocalBrokerConfig, SimTime};
use qosr_model::{ResourceId, ResourceKind, ResourceSpace};
use std::collections::HashMap;
use std::sync::Arc;

/// A deployed network: the topology, one [`LocalBroker`] per link (over
/// its bandwidth, indexed by [`LinkId`]), and a cache of end-to-end
/// [`NetworkBroker`]s per endpoint pair.
///
/// Link resources are registered in the shared [`ResourceSpace`] as
/// `L1, L2, …` ([`ResourceKind::NetworkLink`]); end-to-end paths as
/// `path:A->B` ([`ResourceKind::NetworkPath`]). Paths are *directed* at
/// the reservation level (the pair `(from, to)` keys the cache) but ride
/// on undirected links, matching the paper's receiver-initiated
/// reservations over shared-capacity links.
pub struct NetworkFabric {
    topology: Topology,
    links: Vec<Arc<LocalBroker>>,
    paths: HashMap<(NetNode, NetNode), Arc<NetworkBroker>>,
    alpha_window: f64,
}

impl NetworkFabric {
    /// Deploys link brokers over `topology`. `capacities[i]` is the
    /// bandwidth of link `i`; link resources are registered in `space`.
    ///
    /// # Panics
    /// Panics if `capacities.len() != topology.n_links()`.
    pub fn new(
        topology: Topology,
        capacities: &[f64],
        space: &mut ResourceSpace,
        created: SimTime,
        config: LocalBrokerConfig,
    ) -> Self {
        assert_eq!(
            capacities.len(),
            topology.n_links(),
            "one capacity per link required"
        );
        let links: Vec<Arc<LocalBroker>> = capacities
            .iter()
            .enumerate()
            .map(|(i, &cap)| {
                let rid = space.register(LinkId(i).to_string(), ResourceKind::NetworkLink);
                Arc::new(LocalBroker::new(rid, cap, created, config))
            })
            .collect();
        NetworkFabric {
            topology,
            links,
            paths: HashMap::new(),
            alpha_window: config.alpha_window,
        }
    }

    /// The underlying topology.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// The per-link broker of `link`.
    pub fn link_broker(&self, link: LinkId) -> &Arc<LocalBroker> {
        &self.links[link.0]
    }

    /// All link brokers, in link order (`link_brokers()[l.0]` is link
    /// `l`'s).
    pub fn link_brokers(&self) -> &[Arc<LocalBroker>] {
        &self.links
    }

    /// Returns (creating and caching on first use) the end-to-end path
    /// broker from `from` to `to`, registering its resource in `space`.
    pub fn path_broker(
        &mut self,
        from: NetNode,
        to: NetNode,
        space: &mut ResourceSpace,
    ) -> Result<Arc<NetworkBroker>, TopologyError> {
        if let Some(b) = self.paths.get(&(from, to)) {
            return Ok(b.clone());
        }
        let route = self.topology.route(from, to)?;
        let rid = space.register(format!("path:{from}->{to}"), ResourceKind::NetworkPath);
        let brokers = route.iter().map(|&l| self.links[l.0].clone()).collect();
        let broker = Arc::new(NetworkBroker::new(rid, brokers, self.alpha_window));
        self.paths.insert((from, to), broker.clone());
        Ok(broker)
    }

    /// All path brokers created so far, in unspecified order.
    pub fn path_brokers(&self) -> impl Iterator<Item = &Arc<NetworkBroker>> {
        self.paths.values()
    }

    /// The resource id of the cached path `(from, to)`, if created.
    pub fn path_resource(&self, from: NetNode, to: NetNode) -> Option<ResourceId> {
        self.paths
            .get(&(from, to))
            .map(|b| qosr_broker::Broker::resource(b.as_ref()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qosr_broker::{Broker, SessionId};

    fn ring_fabric() -> (NetworkFabric, ResourceSpace) {
        let mut t = Topology::new(4, 1);
        for i in 0..4 {
            t.add_link(NetNode::Host(i), NetNode::Host((i + 1) % 4))
                .unwrap();
        }
        t.add_link(NetNode::Domain(0), NetNode::Host(0)).unwrap();
        let mut space = ResourceSpace::new();
        let fabric = NetworkFabric::new(
            t,
            &[100.0, 90.0, 80.0, 70.0, 60.0],
            &mut space,
            SimTime::ZERO,
            LocalBrokerConfig::default(),
        );
        (fabric, space)
    }

    #[test]
    fn registers_link_resources() {
        let (fabric, space) = ring_fabric();
        assert_eq!(space.len(), 5);
        assert_eq!(space.name(fabric.link_broker(LinkId(0)).resource()), "L1");
        assert_eq!(
            space.info(space.id("L3").unwrap()).kind,
            ResourceKind::NetworkLink
        );
        assert_eq!(fabric.link_brokers().len(), 5);
    }

    #[test]
    fn path_broker_spans_route_and_is_cached() {
        let (mut fabric, mut space) = ring_fabric();
        let p = fabric
            .path_broker(NetNode::Domain(0), NetNode::Host(2), &mut space)
            .unwrap();
        // D1 -> H1 -> H2 -> H3: links L5, L1, L2; min capacity = 60.
        assert_eq!(p.route().len(), 3);
        assert_eq!(p.capacity(), 60.0);
        assert_eq!(space.info(p.resource()).kind, ResourceKind::NetworkPath);
        // Cached: same Arc next time.
        let p2 = fabric
            .path_broker(NetNode::Domain(0), NetNode::Host(2), &mut space)
            .unwrap();
        assert!(Arc::ptr_eq(&p, &p2));
        assert_eq!(
            fabric.path_resource(NetNode::Domain(0), NetNode::Host(2)),
            Some(p.resource())
        );
        assert_eq!(fabric.path_brokers().count(), 1);
    }

    #[test]
    fn reservations_interact_through_shared_links() {
        let (mut fabric, mut space) = ring_fabric();
        let p_a = fabric
            .path_broker(NetNode::Host(0), NetNode::Host(1), &mut space)
            .unwrap();
        let p_b = fabric
            .path_broker(NetNode::Host(0), NetNode::Host(2), &mut space)
            .unwrap();
        // Both use L1.
        p_a.reserve(SessionId(1), 80.0, SimTime::new(1.0)).unwrap();
        assert_eq!(p_b.available(), 20.0);
        let err = p_b
            .reserve(SessionId(2), 30.0, SimTime::new(2.0))
            .unwrap_err();
        assert_eq!(err.resource(), p_b.resource());
        p_a.release(SessionId(1), SimTime::new(3.0));
        assert_eq!(p_b.available(), 90.0); // constrained by L2 (90)
    }
}

#[cfg(test)]
mod direction_tests {
    use super::*;
    use qosr_broker::{Broker, LocalBrokerConfig, SessionId, SimTime};

    #[test]
    fn opposite_directions_are_distinct_resources_sharing_links() {
        let mut t = Topology::new(2, 0);
        t.add_link(NetNode::Host(0), NetNode::Host(1)).unwrap();
        let mut space = ResourceSpace::new();
        let mut fabric = NetworkFabric::new(
            t,
            &[100.0],
            &mut space,
            SimTime::ZERO,
            LocalBrokerConfig::default(),
        );
        let ab = fabric
            .path_broker(NetNode::Host(0), NetNode::Host(1), &mut space)
            .unwrap();
        let ba = fabric
            .path_broker(NetNode::Host(1), NetNode::Host(0), &mut space)
            .unwrap();
        assert_ne!(ab.resource(), ba.resource());
        assert!(!Arc::ptr_eq(&ab, &ba));
        // Both ride the same link: reservations in one direction shrink
        // the other's availability (shared-capacity links, as in the
        // paper's simulation).
        ab.reserve(SessionId(1), 70.0, SimTime::new(1.0)).unwrap();
        assert_eq!(ba.available(), 30.0);
        assert!(ba.reserve(SessionId(2), 40.0, SimTime::new(2.0)).is_err());
        ab.release(SessionId(1), SimTime::new(3.0));
        assert_eq!(ba.available(), 100.0);
    }
}
