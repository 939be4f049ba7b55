//! Epoch-stamped availability snapshots for batched admission.

use crate::availability::AvailabilityView;
use std::sync::atomic::{AtomicU64, Ordering};

/// Process-global snapshot generation counter. Epoch numbers restart at
/// zero per queue (and may wrap), so the delta-repair cache keys its
/// same-snapshot fast path on this token instead: two distinct
/// snapshots never share a generation, even across queues or after an
/// epoch wrap. Starts at 1 so 0 can never collide with a real token.
static GENERATION: AtomicU64 = AtomicU64::new(1);

/// One epoch-stamped availability snapshot, shared by every request in a
/// batched admission round.
///
/// The batched pipeline collects availability from all brokers **once**
/// per round instead of once per request, stamps the result with a
/// monotonically increasing epoch, and plans every request of the round
/// against the same immutable view. The epoch identifies the round in
/// trace events and makes the staleness of any plan explicit: a plan
/// carries the epoch it was computed against, and the sequential commit
/// phase revalidates it against a *working copy* of the same snapshot
/// that is debited as earlier arrivals commit.
#[derive(Debug, Clone)]
pub struct EpochSnapshot {
    epoch: u64,
    generation: u64,
    taken_at: f64,
    view: AvailabilityView,
}

impl EpochSnapshot {
    /// Wraps a collected availability view with its epoch stamp and
    /// collection time. A process-unique generation token is minted
    /// here (see [`EpochSnapshot::generation`]).
    pub fn new(epoch: u64, taken_at: f64, view: AvailabilityView) -> Self {
        EpochSnapshot {
            epoch,
            generation: GENERATION.fetch_add(1, Ordering::Relaxed),
            taken_at,
            view,
        }
    }

    /// The admission round this snapshot was taken for.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// A process-unique token identifying this exact snapshot. Unlike
    /// [`EpochSnapshot::epoch`] it never repeats (not across queues,
    /// not after an epoch wrap), which is what lets
    /// [`crate::PlanCtx::prepare_epoch`] treat a matching token as
    /// "same snapshot, nothing changed" without comparing views.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Simulation/wall time the snapshot was collected at.
    pub fn taken_at(&self) -> f64 {
        self.taken_at
    }

    /// The immutable availability view all requests in the round plan
    /// against.
    pub fn view(&self) -> &AvailabilityView {
        &self.view
    }

    /// A mutable *working copy* of the view for the commit phase to
    /// debit as plans from this round commit.
    pub fn working(&self) -> AvailabilityView {
        self.view.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qosr_model::ResourceId;

    #[test]
    fn snapshot_wraps_view_and_working_copy_is_independent() {
        let mut view = AvailabilityView::new();
        view.set(ResourceId(0), 100.0);
        let snap = EpochSnapshot::new(7, 3.5, view);
        assert_eq!(snap.epoch(), 7);
        assert_eq!(snap.taken_at(), 3.5);
        let mut working = snap.working();
        working.debit(ResourceId(0), 40.0);
        assert_eq!(working.avail(ResourceId(0)), 60.0);
        assert_eq!(
            snap.view().avail(ResourceId(0)),
            100.0,
            "the snapshot itself is immutable"
        );
    }

    #[test]
    fn generations_are_unique_even_when_epochs_repeat() {
        let view = AvailabilityView::new();
        let a = EpochSnapshot::new(u64::MAX, 0.0, view.clone());
        let b = EpochSnapshot::new(0, 0.0, view.clone()); // wrapped epoch
        let c = EpochSnapshot::new(0, 0.0, view); // repeated epoch
        assert_ne!(a.generation(), b.generation());
        assert_ne!(b.generation(), c.generation());
        assert_ne!(a.generation(), c.generation());
    }
}
