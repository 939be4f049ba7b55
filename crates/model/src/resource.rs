//! Reservable resources and resource-requirement vectors (§2.2).

use crate::ModelError;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fmt;

/// The kind of a reservable resource, mirroring the resource types the
/// paper's runtime architecture brokers (§3): host-local resources (CPU,
/// memory, disk I/O bandwidth), single network links (managed by
/// RSVP-style per-link bandwidth brokers), and end-to-end network paths
/// (the higher level of the paper's two-level network reservation).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ResourceKind {
    /// CPU capacity of a host.
    Compute,
    /// Memory of a host.
    Memory,
    /// Disk I/O bandwidth of a host.
    DiskIo,
    /// Bandwidth of a single network link.
    NetworkLink,
    /// End-to-end network bandwidth between two hosts (min over the links
    /// of the route; reserved all-or-nothing across them).
    NetworkPath,
    /// Anything else a deployment wants to broker.
    Other,
}

impl fmt::Display for ResourceKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ResourceKind::Compute => "compute",
            ResourceKind::Memory => "memory",
            ResourceKind::DiskIo => "disk-io",
            ResourceKind::NetworkLink => "link",
            ResourceKind::NetworkPath => "path",
            ResourceKind::Other => "other",
        };
        f.write_str(s)
    }
}

/// Opaque identifier of one reservable resource within a
/// [`ResourceSpace`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct ResourceId(pub u32);

impl ResourceId {
    /// The raw index value.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for ResourceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

/// Metadata registered for one resource.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResourceInfo {
    /// Unique human-readable name, e.g. `"H1.cpu"` or `"L3"`.
    pub name: String,
    /// What kind of resource this is.
    pub kind: ResourceKind,
}

/// Registry of all reservable resources in an environment.
///
/// A `ResourceSpace` assigns dense [`ResourceId`]s, which every other
/// layer (brokers, QRG construction, simulation metrics) uses as the
/// resource key.
#[derive(Debug, Default, Clone)]
pub struct ResourceSpace {
    entries: Vec<ResourceInfo>,
    by_name: HashMap<String, ResourceId>,
}

impl ResourceSpace {
    /// Creates an empty space.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a resource, returning its id. Registering a name twice
    /// returns the existing id (the kind must match).
    ///
    /// # Panics
    /// Panics if the name was previously registered with a different kind.
    pub fn register(&mut self, name: impl Into<String>, kind: ResourceKind) -> ResourceId {
        let name = name.into();
        if let Some(&id) = self.by_name.get(&name) {
            assert_eq!(
                self.entries[id.index()].kind,
                kind,
                "resource {name:?} re-registered with a different kind"
            );
            return id;
        }
        let id = ResourceId(u32::try_from(self.entries.len()).expect("too many resources"));
        self.entries.push(ResourceInfo {
            name: name.clone(),
            kind,
        });
        self.by_name.insert(name, id);
        id
    }

    /// Looks up a resource by name.
    pub fn id(&self, name: &str) -> Option<ResourceId> {
        self.by_name.get(name).copied()
    }

    /// Metadata of a resource.
    pub fn info(&self, id: ResourceId) -> &ResourceInfo {
        &self.entries[id.index()]
    }

    /// Convenience accessor for a resource's name.
    pub fn name(&self, id: ResourceId) -> &str {
        &self.entries[id.index()].name
    }

    /// Number of registered resources.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` if no resources have been registered.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterator over all ids, in registration order.
    pub fn ids(&self) -> impl Iterator<Item = ResourceId> + '_ {
        (0..self.entries.len() as u32).map(ResourceId)
    }

    /// Iterator over `(id, info)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (ResourceId, &ResourceInfo)> {
        self.entries
            .iter()
            .enumerate()
            .map(|(i, info)| (ResourceId(i as u32), info))
    }
}

/// A resource-requirement (or availability) vector `R = [r_1 … r_M]`.
///
/// Entries are kept sorted by [`ResourceId`] with no duplicates; amounts
/// are finite and strictly positive (zero demands are dropped on
/// construction, since requiring zero of a resource is the same as not
/// requiring it). The comparison semantics follow the paper: `Ra <= Rb`
/// iff every resource amount of `Ra` is `<=` the corresponding amount in
/// `Rb` (resources absent from a vector count as zero demand).
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct ResourceVector {
    entries: Vec<(ResourceId, f64)>,
}

impl ResourceVector {
    /// The empty vector (no demand).
    pub fn empty() -> Self {
        Self::default()
    }

    /// Builds a vector from `(resource, amount)` pairs; duplicate
    /// resources are summed, zero amounts dropped.
    pub fn from_pairs(
        pairs: impl IntoIterator<Item = (ResourceId, f64)>,
    ) -> Result<Self, ModelError> {
        let mut entries: Vec<(ResourceId, f64)> = Vec::new();
        for (id, amount) in pairs {
            if !amount.is_finite() || amount < 0.0 {
                return Err(ModelError::InvalidAmount { value: amount });
            }
            entries.push((id, amount));
        }
        entries.sort_by_key(|&(id, _)| id);
        let mut merged: Vec<(ResourceId, f64)> = Vec::with_capacity(entries.len());
        for (id, amount) in entries {
            match merged.last_mut() {
                Some((last_id, last_amount)) if *last_id == id => *last_amount += amount,
                _ => merged.push((id, amount)),
            }
        }
        merged.retain(|&(_, a)| a > 0.0);
        Ok(ResourceVector { entries: merged })
    }

    /// Demand for one resource (zero if absent).
    pub fn get(&self, id: ResourceId) -> f64 {
        match self.entries.binary_search_by_key(&id, |&(i, _)| i) {
            Ok(pos) => self.entries[pos].1,
            Err(_) => 0.0,
        }
    }

    /// Number of resources with non-zero demand.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` if the vector demands nothing.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterator over `(resource, amount)` pairs in id order.
    pub fn iter(&self) -> impl Iterator<Item = (ResourceId, f64)> + Clone + '_ {
        self.entries.iter().copied()
    }

    /// `true` iff every demand in `self` is `<=` the matching amount in
    /// `other` (the paper's `R_a <= R_b`).
    pub fn fits_within(&self, other: &ResourceVector) -> bool {
        self.entries.iter().all(|&(id, a)| a <= other.get(id))
    }

    /// Returns `self` scaled by `factor` (used for "fat" sessions whose
    /// demand is N× the base requirement).
    ///
    /// # Panics
    /// Panics if `factor` is negative or not finite.
    pub fn scaled(&self, factor: f64) -> ResourceVector {
        assert!(
            factor.is_finite() && factor >= 0.0,
            "scale factor must be finite and >= 0, got {factor}"
        );
        let mut entries = self.entries.clone();
        entries.retain_mut(|(_, a)| {
            *a *= factor;
            *a > 0.0
        });
        ResourceVector { entries }
    }

    /// Element-wise sum of two vectors.
    pub fn add(&self, other: &ResourceVector) -> ResourceVector {
        ResourceVector::from_pairs(self.iter().chain(other.iter()))
            .expect("summing valid vectors cannot fail")
    }

    /// The largest ratio `demand / availability(resource)` over the
    /// demanded resources, together with the resource attaining it — the
    /// building block of the paper's contention index ψ (eq. 2) and edge
    /// weight Ψ (eq. 3). Returns `None` for an empty vector. A zero or
    /// negative availability yields `f64::INFINITY` for that resource.
    pub fn max_ratio_over<F: Fn(ResourceId) -> f64>(
        &self,
        availability: F,
    ) -> Option<(ResourceId, f64)> {
        let mut best: Option<(ResourceId, f64)> = None;
        for &(id, demand) in &self.entries {
            let avail = availability(id);
            let ratio = if avail > 0.0 {
                demand / avail
            } else {
                f64::INFINITY
            };
            match best {
                Some((_, b)) if b >= ratio => {}
                _ => best = Some((id, ratio)),
            }
        }
        best
    }
}

impl fmt::Display for ResourceVector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, (id, amount)) in self.entries.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{id}: {amount}")?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rid(i: u32) -> ResourceId {
        ResourceId(i)
    }

    #[test]
    fn space_registration() {
        let mut space = ResourceSpace::new();
        let cpu = space.register("H1.cpu", ResourceKind::Compute);
        let link = space.register("L1", ResourceKind::NetworkLink);
        assert_ne!(cpu, link);
        assert_eq!(space.id("H1.cpu"), Some(cpu));
        assert_eq!(space.name(link), "L1");
        assert_eq!(space.info(cpu).kind, ResourceKind::Compute);
        assert_eq!(space.len(), 2);
        // Re-registration returns the same id.
        assert_eq!(space.register("H1.cpu", ResourceKind::Compute), cpu);
        assert_eq!(space.len(), 2);
        assert_eq!(space.ids().count(), 2);
    }

    #[test]
    #[should_panic(expected = "different kind")]
    fn space_kind_conflict_panics() {
        let mut space = ResourceSpace::new();
        space.register("x", ResourceKind::Compute);
        space.register("x", ResourceKind::Memory);
    }

    #[test]
    fn vector_merges_and_sorts() {
        let v = ResourceVector::from_pairs([(rid(3), 1.0), (rid(1), 2.0), (rid(3), 4.0)]).unwrap();
        assert_eq!(v.len(), 2);
        assert_eq!(v.get(rid(1)), 2.0);
        assert_eq!(v.get(rid(3)), 5.0);
        assert_eq!(v.get(rid(0)), 0.0);
        let ids: Vec<_> = v.iter().map(|(id, _)| id).collect();
        assert_eq!(ids, vec![rid(1), rid(3)]);
    }

    #[test]
    fn vector_drops_zero_and_rejects_bad() {
        let v = ResourceVector::from_pairs([(rid(0), 0.0), (rid(1), 1.0)]).unwrap();
        assert_eq!(v.len(), 1);
        assert!(ResourceVector::from_pairs([(rid(0), -1.0)]).is_err());
        assert!(ResourceVector::from_pairs([(rid(0), f64::NAN)]).is_err());
        assert!(ResourceVector::from_pairs([(rid(0), f64::INFINITY)]).is_err());
    }

    #[test]
    fn fits_within_semantics() {
        let req = ResourceVector::from_pairs([(rid(0), 5.0), (rid(2), 3.0)]).unwrap();
        let avail_ok = ResourceVector::from_pairs([(rid(0), 5.0), (rid(2), 10.0)]).unwrap();
        let avail_bad = ResourceVector::from_pairs([(rid(0), 4.9), (rid(2), 10.0)]).unwrap();
        let avail_missing = ResourceVector::from_pairs([(rid(0), 9.0)]).unwrap();
        assert!(req.fits_within(&avail_ok));
        assert!(!req.fits_within(&avail_bad));
        assert!(!req.fits_within(&avail_missing));
        assert!(ResourceVector::empty().fits_within(&ResourceVector::empty()));
    }

    #[test]
    fn scaled_and_add() {
        let v = ResourceVector::from_pairs([(rid(0), 2.0), (rid(1), 3.0)]).unwrap();
        let s = v.scaled(10.0);
        assert_eq!(s.get(rid(0)), 20.0);
        assert_eq!(s.get(rid(1)), 30.0);
        assert!(v.scaled(0.0).is_empty());

        let w = ResourceVector::from_pairs([(rid(1), 1.0), (rid(2), 7.0)]).unwrap();
        let sum = v.add(&w);
        assert_eq!(sum.get(rid(0)), 2.0);
        assert_eq!(sum.get(rid(1)), 4.0);
        assert_eq!(sum.get(rid(2)), 7.0);
    }

    #[test]
    fn max_ratio() {
        let v = ResourceVector::from_pairs([(rid(0), 5.0), (rid(1), 10.0)]).unwrap();
        // avail: r0 -> 50 (ratio .1), r1 -> 20 (ratio .5)
        let (id, psi) = v
            .max_ratio_over(|id| if id == rid(0) { 50.0 } else { 20.0 })
            .unwrap();
        assert_eq!(id, rid(1));
        assert!((psi - 0.5).abs() < 1e-12);
        // Zero availability -> infinite contention.
        let (_, psi) = v.max_ratio_over(|_| 0.0).unwrap();
        assert!(psi.is_infinite());
        assert!(ResourceVector::empty().max_ratio_over(|_| 1.0).is_none());
    }

    #[test]
    fn display() {
        let v = ResourceVector::from_pairs([(rid(0), 2.0)]).unwrap();
        assert_eq!(v.to_string(), "{r0: 2}");
    }
}
