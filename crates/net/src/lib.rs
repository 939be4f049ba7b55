//! # qosr-net — network substrate for end-to-end reservation (§3)
//!
//! The paper manages end-to-end network resources in **two levels**: at
//! the higher level, one Resource Broker treats the whole path between
//! two end hosts as a single resource; at the lower level, RSVP-style
//! bandwidth brokers manage each link. The higher-level availability is
//! *"the minimum of the link bandwidth availabilities reported by the
//! lower-level … brokers"*, and a path reservation succeeds only if every
//! link on the route accepts it.
//!
//! This crate provides:
//!
//! * [`Topology`] — hosts, client domains, undirected links, and
//!   shortest-hop routing;
//! * the lower level: one plain
//!   [`LocalBroker`](qosr_broker::LocalBroker) per link, over the link's
//!   bandwidth and indexed by [`LinkId`];
//! * [`NetworkBroker`] — the higher-level end-to-end path broker
//!   (min-over-links availability, all-or-nothing reserve with
//!   rollback);
//! * [`NetworkFabric`] — glue that registers link and path resources in a
//!   [`qosr_model::ResourceSpace`] and caches path brokers per
//!   endpoint pair.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod fabric;
mod path;
mod topology;

pub use fabric::NetworkFabric;
pub use path::NetworkBroker;
pub use topology::{LinkId, NetNode, Topology, TopologyError};
