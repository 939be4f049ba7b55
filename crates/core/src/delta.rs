//! Delta-aware replanning: diff consecutive availability snapshots and
//! repair the previous relaxation instead of recomputing it.
//!
//! In steady state, consecutive [`crate::EpochSnapshot`]s differ in only
//! a handful of resources — sessions commit and terminate, but most of
//! the resource space sits untouched between rounds. Yet every plan used
//! to rebuild all candidate weights and resweep Pass I from scratch.
//! This module provides the two pieces that make planning incremental:
//!
//! * [`AvailabilityDelta`] — the set of resources whose availability (or
//!   availability-change index α) moved between two views, under a
//!   **ψ-quantization threshold**: a resource whose relative move is
//!   within the threshold is treated as *unchanged*, so its candidates
//!   keep their previous weight. With the default threshold of `0.0`
//!   (exact), the repaired state is bit-identical to a full rebuild.
//! * [`RelaxCache`] — the state a [`crate::PlanCtx`] retains between
//!   [`crate::PlanCtx::prepare_delta`] / [`crate::PlanCtx::prepare_epoch`]
//!   calls: the *effective* availability view the current buffers were
//!   computed against, a resource → candidate inverted index (CSR) for
//!   seeding the repair, the session/options fingerprint that guards
//!   reuse, and the epoch-generation token that turns a same-snapshot
//!   re-prepare into a no-op.
//!
//! The repair path falls back to a full rebuild when the cache is cold,
//! the session or options changed, or the delta touches more than
//! [`DeltaConfig::max_dirty_fraction`] of the candidate edges (at that
//! point the sparse repair stops being cheaper than the dense sweep).
//! Every outcome is reported as a [`RepairOutcome`] so callers can count
//! repairs vs. fallbacks.

use crate::AvailabilityView;
use qosr_model::{ResourceId, SessionInstance};

/// Tuning knobs for the delta-repair path.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeltaConfig {
    /// ψ-quantization threshold: a resource counts as changed only when
    /// its availability (or α) moved by **more than** this fraction of
    /// the previous value (`|new − old| > threshold · |old|`; any move
    /// away from exactly `0` counts). `0.0` (the default) means exact —
    /// repaired buffers are bit-identical to a full rebuild. A positive
    /// threshold trades bounded staleness for fewer repairs.
    pub psi_threshold: f64,
    /// Fall back to a full rebuild when more than this fraction of the
    /// candidate edges is touched by the delta.
    pub max_dirty_fraction: f64,
}

impl Default for DeltaConfig {
    fn default() -> Self {
        DeltaConfig {
            psi_threshold: 0.0,
            max_dirty_fraction: 0.5,
        }
    }
}

/// Why a delta-path prepare fell back to a full rebuild.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FullReason {
    /// First prepare through this context (nothing to repair yet).
    ColdCache,
    /// The session (service, scale, or bindings) differs from the cached
    /// one.
    SessionChanged,
    /// The planning options differ from the cached ones.
    OptionsChanged,
    /// The delta touched more than [`DeltaConfig::max_dirty_fraction`]
    /// of the candidate edges.
    DeltaTooLarge,
}

/// How much work a successful repair actually did. All-zero means the
/// snapshot was unchanged (pure reuse).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RepairStats {
    /// Resources whose effective availability/α moved past the
    /// quantization threshold.
    pub resources_changed: usize,
    /// Candidate edges re-evaluated because they demand a changed
    /// resource.
    pub candidates_reevaluated: usize,
    /// QRG nodes whose relaxation value was recomputed.
    pub nodes_recomputed: usize,
}

/// Outcome of [`crate::PlanCtx::prepare_delta`] /
/// [`crate::PlanCtx::prepare_epoch`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RepairOutcome {
    /// The previous state could not be repaired; a full prepare +
    /// relaxation ran instead.
    Full(FullReason),
    /// The previous state was repaired in place.
    Repaired(RepairStats),
}

impl RepairOutcome {
    /// `true` when the delta path fell back to a full rebuild.
    pub fn is_full(&self) -> bool {
        matches!(self, RepairOutcome::Full(_))
    }

    /// The repair statistics, when repaired.
    pub fn stats(&self) -> Option<RepairStats> {
        match self {
            RepairOutcome::Repaired(s) => Some(*s),
            RepairOutcome::Full(_) => None,
        }
    }
}

/// `true` when `new` counts as a change from `old` under the
/// ψ-quantization `threshold` (strictly *more than* the threshold
/// fraction of the old magnitude — a move landing exactly on the
/// threshold is quantized away).
#[inline]
pub(crate) fn quantized_change(old: f64, new: f64, threshold: f64) -> bool {
    (new - old).abs() > threshold * old.abs()
}

/// Diffs `next` against `prev` under the quantization threshold,
/// pushing `(resource, new_avail, new_alpha)` for every changed
/// resource, in ascending resource-id order. Resources absent from a
/// view compare at the accessor defaults (`avail = 0.0`, `α = 1.0`), so
/// removal is a change to zero availability — observationally identical
/// for planning, which only ever reads through those accessors.
///
/// Both views store their entries sorted by resource id, so the diff is
/// a linear two-pointer merge — no per-entry lookups.
pub(crate) fn diff_views(
    prev: &AvailabilityView,
    next: &AvailabilityView,
    threshold: f64,
    out: &mut Vec<(ResourceId, f64, f64)>,
) {
    out.clear();
    let a = prev.entries();
    let b = next.entries();
    let (mut i, mut j) = (0, 0);
    while i < a.len() || j < b.len() {
        let in_a = i < a.len();
        let in_b = j < b.len();
        if in_a && (!in_b || a[i].0 < b[j].0) {
            // Removed from `next`: compare against the defaults.
            let (rid, (avail, alpha)) = a[i];
            i += 1;
            if quantized_change(avail, 0.0, threshold) || quantized_change(alpha, 1.0, threshold) {
                out.push((rid, 0.0, 1.0));
            }
        } else if in_b && (!in_a || b[j].0 < a[i].0) {
            // New in `next`: `prev` reads as the defaults.
            let (rid, (avail, alpha)) = b[j];
            j += 1;
            if quantized_change(0.0, avail, threshold) || quantized_change(1.0, alpha, threshold) {
                out.push((rid, avail, alpha));
            }
        } else {
            let (rid, (pa, pal)) = a[i];
            let (_, (na, nal)) = b[j];
            i += 1;
            j += 1;
            if quantized_change(pa, na, threshold) || quantized_change(pal, nal, threshold) {
                out.push((rid, na, nal));
            }
        }
    }
}

/// The quantized difference between two availability views — typically
/// consecutive [`crate::EpochSnapshot`]s of one admission queue.
#[derive(Debug, Clone)]
pub struct AvailabilityDelta {
    changed: Vec<(ResourceId, f64, f64)>,
    examined: usize,
}

impl AvailabilityDelta {
    /// Computes the delta from `prev` to `next` under the ψ-quantization
    /// `threshold` (see [`DeltaConfig::psi_threshold`]).
    pub fn between(prev: &AvailabilityView, next: &AvailabilityView, threshold: f64) -> Self {
        let mut changed = Vec::new();
        diff_views(prev, next, threshold, &mut changed);
        let examined = next.len()
            + prev
                .iter()
                .filter(|&(rid, _, _)| !next.contains(rid))
                .count();
        AvailabilityDelta { changed, examined }
    }

    /// The changed resources with their new `(availability, α)` values,
    /// in unspecified order. A resource that disappeared from the newer
    /// view reports `(0.0, 1.0)` — the accessor defaults.
    pub fn entries(&self) -> impl Iterator<Item = (ResourceId, f64, f64)> + '_ {
        self.changed.iter().copied()
    }

    /// The changed resource ids, in unspecified order.
    pub fn changed(&self) -> impl Iterator<Item = ResourceId> + '_ {
        self.changed.iter().map(|&(rid, _, _)| rid)
    }

    /// Number of changed resources.
    pub fn len(&self) -> usize {
        self.changed.len()
    }

    /// `true` when nothing moved past the threshold.
    pub fn is_empty(&self) -> bool {
        self.changed.is_empty()
    }

    /// Number of resources examined (the union of both views).
    pub fn examined(&self) -> usize {
        self.examined
    }
}

/// The retained state behind [`crate::PlanCtx`]'s delta-repair path. See
/// the module docs; all bookkeeping is crate-internal, the public
/// surface is [`RepairOutcome`].
#[derive(Debug, Default)]
pub struct RelaxCache {
    /// Whether the cached state describes the context's buffers.
    pub(crate) valid: bool,
    /// Tuning knobs (survive invalidation).
    pub(crate) config: DeltaConfig,
    /// Fingerprint: service identity of the cached session.
    pub(crate) service_uid: u64,
    /// Fingerprint: session scale bits.
    pub(crate) scale_bits: u64,
    /// Fingerprint: the session's bound resources, flattened in
    /// component order (the per-component grouping is pinned by the
    /// service uid).
    pub(crate) bindings: Vec<ResourceId>,
    /// Generation token of the [`crate::EpochSnapshot`] the buffers were
    /// last prepared against (`None` for plain working views), for the
    /// same-snapshot fast path.
    pub(crate) token: Option<u64>,
    /// The *effective* availability the buffers were computed against —
    /// the last fully-installed view plus every applied (quantized)
    /// delta. With a zero threshold this tracks the actual view exactly.
    pub(crate) view: AvailabilityView,
    /// Inverted index: sorted resource ids with demanding candidates.
    pub(crate) idx_rids: Vec<ResourceId>,
    /// CSR offsets into `idx_cands`, parallel to `idx_rids`.
    pub(crate) idx_start: Vec<u32>,
    /// Candidate ids demanding each indexed resource.
    pub(crate) idx_cands: Vec<u32>,
    /// Scratch: `(resource, candidate)` pairs while rebuilding the index.
    pub(crate) idx_pairs: Vec<(ResourceId, u32)>,
    /// Scratch: the changed entries of the current delta.
    pub(crate) pending: Vec<(ResourceId, f64, f64)>,
    /// Scratch: per-candidate dedup marks while seeding the repair.
    pub(crate) cand_seen: Vec<bool>,
    /// Scratch: the deduped dirty-candidate worklist of the current
    /// repair, in discovery order.
    pub(crate) dirty_cands: Vec<u32>,
    /// Scratch: per-node seed marks (an in-edge weight changed).
    pub(crate) dirty_nodes: Vec<bool>,
    /// Scratch: per-node affected marks for [`crate::relax`]'s repair
    /// sweep (pushed to out-neighbors when a distance moves).
    pub(crate) moved_nodes: Vec<bool>,
}

impl RelaxCache {
    /// Marks the cached state as not describing the buffers anymore.
    pub(crate) fn invalidate(&mut self) {
        self.valid = false;
        self.token = None;
    }

    /// `true` when the cached fingerprint matches `session`.
    pub(crate) fn matches_session(&self, session: &SessionInstance) -> bool {
        if self.service_uid != session.service().uid()
            || self.scale_bits != session.scale().to_bits()
        {
            return false;
        }
        let mut flat = self.bindings.iter();
        session
            .bindings()
            .iter()
            .all(|b| b.resources().iter().all(|r| flat.next() == Some(r)))
            && flat.next().is_none()
    }

    /// Installs the fingerprint, effective view, and token after a full
    /// prepare.
    pub(crate) fn install(
        &mut self,
        session: &SessionInstance,
        view: &AvailabilityView,
        token: Option<u64>,
    ) {
        self.service_uid = session.service().uid();
        self.scale_bits = session.scale().to_bits();
        self.bindings.clear();
        for b in session.bindings() {
            self.bindings.extend_from_slice(b.resources());
        }
        self.view = view.clone();
        self.token = token;
        self.valid = true;
    }

    /// Rebuilds the resource → candidates inverted index from the
    /// prepared demand segments.
    pub(crate) fn rebuild_index(&mut self, demand_off: &[u32], demand_buf: &[(ResourceId, f64)]) {
        self.idx_pairs.clear();
        for e in 0..demand_off.len().saturating_sub(1) {
            for &(rid, _) in &demand_buf[demand_off[e] as usize..demand_off[e + 1] as usize] {
                self.idx_pairs.push((rid, e as u32));
            }
        }
        self.idx_pairs.sort_unstable();
        self.idx_rids.clear();
        self.idx_start.clear();
        self.idx_cands.clear();
        for &(rid, e) in &self.idx_pairs {
            if self.idx_rids.last() != Some(&rid) {
                self.idx_rids.push(rid);
                self.idx_start
                    .push(u32::try_from(self.idx_cands.len()).expect("QRG too large"));
            }
            self.idx_cands.push(e);
        }
        self.idx_start
            .push(u32::try_from(self.idx_cands.len()).expect("QRG too large"));
    }

    /// Candidate ids demanding `rid` (empty when none do). The hot path
    /// inlines this lookup to keep `cand_seen` mutable alongside it.
    #[cfg(test)]
    pub(crate) fn candidates_of(&self, rid: ResourceId) -> &[u32] {
        match self.idx_rids.binary_search(&rid) {
            Ok(i) => &self.idx_cands[self.idx_start[i] as usize..self.idx_start[i + 1] as usize],
            Err(_) => &[],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rid(n: u32) -> ResourceId {
        ResourceId(n)
    }

    #[test]
    fn exact_delta_catches_every_move_and_only_moves() {
        let mut a = AvailabilityView::new();
        a.set_with_alpha(rid(0), 100.0, 1.0);
        a.set_with_alpha(rid(1), 50.0, 0.8);
        a.set_with_alpha(rid(2), 10.0, 1.0);
        let mut b = a.clone();
        b.set_with_alpha(rid(1), 49.0, 0.8); // availability moved
        b.set_with_alpha(rid(2), 10.0, 0.9); // only α moved

        let d = AvailabilityDelta::between(&a, &b, 0.0);
        let mut changed: Vec<_> = d.changed().collect();
        changed.sort();
        assert_eq!(changed, vec![rid(1), rid(2)]);
        assert_eq!(d.examined(), 3);
        assert!(AvailabilityDelta::between(&a, &a, 0.0).is_empty());
    }

    #[test]
    fn removal_counts_as_change_to_accessor_defaults() {
        let mut a = AvailabilityView::new();
        a.set(rid(0), 100.0);
        a.set(rid(1), 25.0);
        let mut b = AvailabilityView::new();
        b.set(rid(0), 100.0);

        let d = AvailabilityDelta::between(&a, &b, 0.0);
        let entries: Vec<_> = d.entries().collect();
        assert_eq!(entries, vec![(rid(1), 0.0, 1.0)]);
    }

    #[test]
    fn threshold_is_strict_a_move_landing_exactly_on_it_is_quantized_away() {
        let t = 0.1;
        // 100 -> 110: exactly the threshold fraction — unchanged.
        assert!(!quantized_change(100.0, 110.0, t));
        assert!(!quantized_change(100.0, 90.0, t));
        // The tiniest overshoot counts.
        assert!(quantized_change(100.0, 110.0 + 1e-9, t));
        assert!(quantized_change(100.0, 90.0 - 1e-9, t));
        // Any move away from exactly zero counts.
        assert!(quantized_change(0.0, 1e-12, t));
        assert!(!quantized_change(0.0, 0.0, t));
    }

    #[test]
    fn inverted_index_maps_resources_to_their_candidates() {
        let mut cache = RelaxCache::default();
        // Three candidates: 0 demands {r0, r2}, 1 demands {r1}, 2 none.
        let demand_off = [0u32, 2, 3, 3];
        let demand_buf = [(rid(0), 1.0), (rid(2), 2.0), (rid(1), 3.0)];
        cache.rebuild_index(&demand_off, &demand_buf);
        assert_eq!(cache.candidates_of(rid(0)), &[0]);
        assert_eq!(cache.candidates_of(rid(1)), &[1]);
        assert_eq!(cache.candidates_of(rid(2)), &[0]);
        assert_eq!(cache.candidates_of(rid(9)), &[] as &[u32]);
    }
}
