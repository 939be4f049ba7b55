//! Snapshots of end-to-end resource availability.

use qosr_model::ResourceId;

/// A snapshot of resource availability (and availability trend) at plan
/// time, as collected by the main QoSProxy from the Resource Brokers of
/// all participating hosts (§3).
///
/// Each entry carries:
/// * `avail` — the currently available (unreserved) amount `r^avail`;
/// * `alpha` — the *Availability Change Index* `α = r^avail /
///   r^avail_avg` of §4.3.1 (eq. 5), reported by the broker; `α ≥ 1`
///   means the availability trend is up or unchanged, `α < 1` down.
///
/// Resources absent from the view are treated as having **zero**
/// availability: a planner must never reserve a resource it has no
/// observation for.
///
/// Storage is a vector sorted by resource id. Views are small (a
/// handful to a few hundred resources) and sit on the hot planning
/// path, where every candidate evaluation reads them: a branchy binary
/// search over a contiguous array beats hashing the key, and the sorted
/// order lets the delta path diff two views with a linear merge instead
/// of per-entry probes.
#[derive(Debug, Clone, Default)]
pub struct AvailabilityView {
    /// `(resource, (avail, alpha))`, strictly ascending by resource id.
    entries: Vec<(ResourceId, (f64, f64))>,
}

impl AvailabilityView {
    /// Creates an empty view.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty view with room for `n` observations.
    pub fn with_capacity(n: usize) -> Self {
        AvailabilityView {
            entries: Vec::with_capacity(n),
        }
    }

    #[inline]
    fn search(&self, id: ResourceId) -> Result<usize, usize> {
        self.entries.binary_search_by_key(&id, |&(rid, _)| rid)
    }

    /// The observation for `id`, if any.
    #[inline]
    pub(crate) fn get(&self, id: ResourceId) -> Option<(f64, f64)> {
        self.search(id).ok().map(|i| self.entries[i].1)
    }

    /// The sorted backing entries (for merge-style diffs).
    #[inline]
    pub(crate) fn entries(&self) -> &[(ResourceId, (f64, f64))] {
        &self.entries
    }

    /// Records availability for `id` with a neutral trend (`α = 1`).
    pub fn set(&mut self, id: ResourceId, avail: f64) {
        self.set_with_alpha(id, avail, 1.0);
    }

    /// Records availability and availability-change index for `id`.
    pub fn set_with_alpha(&mut self, id: ResourceId, avail: f64, alpha: f64) {
        match self.search(id) {
            Ok(i) => self.entries[i].1 = (avail, alpha),
            Err(i) => self.entries.insert(i, (id, (avail, alpha))),
        }
    }

    /// Observed availability of `id`; zero when unobserved.
    #[inline]
    pub fn avail(&self, id: ResourceId) -> f64 {
        self.get(id).map_or(0.0, |(a, _)| a)
    }

    /// Observed availability-change index of `id`; `1.0` (no trend) when
    /// unobserved.
    #[inline]
    pub fn alpha(&self, id: ResourceId) -> f64 {
        self.get(id).map_or(1.0, |(_, al)| al)
    }

    /// `true` if the view carries an observation for `id`.
    pub fn contains(&self, id: ResourceId) -> bool {
        self.search(id).is_ok()
    }

    /// Number of observed resources.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when no resources are observed.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates over `(resource, avail, alpha)` observations in
    /// ascending resource-id order.
    pub fn iter(&self) -> impl Iterator<Item = (ResourceId, f64, f64)> + '_ {
        self.entries.iter().map(|&(id, (a, al))| (id, a, al))
    }

    /// Subtracts `amount` from the recorded availability of `id`,
    /// clamping at zero. Unobserved resources stay unobserved: a debit
    /// cannot create an observation out of thin air.
    ///
    /// Used by the batched admission pipeline to keep a *working copy*
    /// of an epoch snapshot current as plans from the same round commit
    /// ahead of later arrivals.
    pub fn debit(&mut self, id: ResourceId, amount: f64) {
        if let Ok(i) = self.search(id) {
            let avail = &mut self.entries[i].1 .0;
            *avail = (*avail - amount).max(0.0);
        }
    }

    /// Checks a demand vector against the view and returns the *worst*
    /// shortfall, if any: the `(resource, requested, available)` triple
    /// maximizing `requested − available` over all entries that do not
    /// fit. Returns `None` when every entry fits (within a small epsilon
    /// absorbing float drift from repeated debits).
    ///
    /// Duplicate resources in `demand` are **not** summed; callers pass
    /// per-resource totals (as produced by
    /// [`ReservationPlan::total_demand`](crate::ReservationPlan::total_demand)).
    pub fn first_deficit(
        &self,
        demand: impl IntoIterator<Item = (ResourceId, f64)>,
    ) -> Option<(ResourceId, f64, f64)> {
        let mut worst: Option<(ResourceId, f64, f64)> = None;
        for (id, requested) in demand {
            let available = self.avail(id);
            let short = requested - available;
            if short > 1e-9 && worst.is_none_or(|(_, r, a)| short > r - a) {
                worst = Some((id, requested, available));
            }
        }
        worst
    }

    /// Builds a view by probing `avail` (with neutral α) for each id.
    pub fn from_fn(
        ids: impl IntoIterator<Item = ResourceId>,
        mut avail: impl FnMut(ResourceId) -> f64,
    ) -> Self {
        let mut view = AvailabilityView::new();
        for id in ids {
            let a = avail(id);
            view.set(id, a);
        }
        view
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rid(i: u32) -> ResourceId {
        ResourceId(i)
    }

    #[test]
    fn defaults_for_unobserved() {
        let view = AvailabilityView::new();
        assert_eq!(view.avail(rid(0)), 0.0);
        assert_eq!(view.alpha(rid(0)), 1.0);
        assert!(!view.contains(rid(0)));
        assert!(view.is_empty());
    }

    #[test]
    fn set_and_get() {
        let mut view = AvailabilityView::new();
        view.set(rid(1), 100.0);
        view.set_with_alpha(rid(2), 50.0, 0.8);
        assert_eq!(view.avail(rid(1)), 100.0);
        assert_eq!(view.alpha(rid(1)), 1.0);
        assert_eq!(view.avail(rid(2)), 50.0);
        assert_eq!(view.alpha(rid(2)), 0.8);
        assert_eq!(view.len(), 2);
        // Overwrite.
        view.set_with_alpha(rid(1), 70.0, 1.2);
        assert_eq!(view.avail(rid(1)), 70.0);
        assert_eq!(view.alpha(rid(1)), 1.2);
        assert_eq!(view.len(), 2);
    }

    #[test]
    fn debit_clamps_and_ignores_unobserved() {
        let mut view = AvailabilityView::new();
        view.set_with_alpha(rid(1), 100.0, 0.9);
        view.debit(rid(1), 30.0);
        assert_eq!(view.avail(rid(1)), 70.0);
        assert_eq!(view.alpha(rid(1)), 0.9, "debit preserves the trend");
        view.debit(rid(1), 1000.0);
        assert_eq!(view.avail(rid(1)), 0.0, "clamped at zero");
        view.debit(rid(2), 10.0);
        assert!(!view.contains(rid(2)), "debit never creates observations");
    }

    #[test]
    fn first_deficit_reports_worst_shortfall() {
        let mut view = AvailabilityView::new();
        view.set(rid(1), 100.0);
        view.set(rid(2), 10.0);
        assert_eq!(view.first_deficit([(rid(1), 50.0), (rid(2), 10.0)]), None);
        // rid(3) is unobserved (zero availability) and overshoots by 20;
        // rid(2) overshoots by 5. The worst shortfall wins.
        let hit = view
            .first_deficit([(rid(2), 15.0), (rid(3), 20.0)])
            .expect("deficit");
        assert_eq!(hit, (rid(3), 20.0, 0.0));
    }

    #[test]
    fn from_fn_probes_all() {
        let view = AvailabilityView::from_fn([rid(0), rid(3)], |id| id.0 as f64 * 10.0);
        assert_eq!(view.avail(rid(0)), 0.0);
        assert!(view.contains(rid(0)));
        assert_eq!(view.avail(rid(3)), 30.0);
        let mut seen: Vec<_> = view.iter().map(|(id, a, _)| (id, a)).collect();
        seen.sort_by_key(|&(id, _)| id);
        assert_eq!(seen, vec![(rid(0), 0.0), (rid(3), 30.0)]);
    }
}
