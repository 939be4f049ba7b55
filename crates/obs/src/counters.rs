//! Always-on monotonic counters and the ψ histogram.
//!
//! Unlike trace events, counters are *not* gated on a sink: they are
//! relaxed atomic increments, cheap enough to leave on unconditionally.
//! Each [`Coordinator`](../../qosr_broker/struct.Coordinator.html) owns
//! its own [`Counters`]; one process-wide instance ([`Counters::global`])
//! backs the places that have no natural owner, such as the
//! `QrgSkeleton` memo's hit/miss accounting.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

use serde::Serialize;

use crate::hist::{HistogramSnapshot, PsiHistogram};

/// Monotonic event counters for one coordinator (or for the process,
/// via [`Counters::global`]). All increments are relaxed atomics; reads
/// are advisory snapshots, not synchronization points.
#[derive(Debug, Default)]
pub struct Counters {
    plans_started: AtomicU64,
    plans_completed: AtomicU64,
    plans_rejected: AtomicU64,
    reservations_committed: AtomicU64,
    reservations_rejected: AtomicU64,
    sessions_released: AtomicU64,
    upgrades: AtomicU64,
    tradeoff_downgrades: AtomicU64,
    skeleton_hits: AtomicU64,
    skeleton_misses: AtomicU64,
    faults_injected: AtomicU64,
    rollbacks: AtomicU64,
    retries: AtomicU64,
    degraded_commits: AtomicU64,
    sessions_lost: AtomicU64,
    fault_failures: AtomicU64,
    establish_attempts: AtomicU64,
    establishments: AtomicU64,
    batches_planned: AtomicU64,
    commit_conflicts: AtomicU64,
    replans: AtomicU64,
    delta_repairs: AtomicU64,
    delta_fallbacks: AtomicU64,
    relax_nodes_repaired: AtomicU64,
    serve_requests: AtomicU64,
    serve_batches: AtomicU64,
    serve_protocol_errors: AtomicU64,
    serve_disconnects: AtomicU64,
    advance_booked: AtomicU64,
    advance_repacked: AtomicU64,
    advance_rejected: AtomicU64,
    psi: PsiHistogram,
}

impl Counters {
    /// A fresh, all-zero counter set.
    pub fn new() -> Self {
        Counters::default()
    }

    /// The process-wide instance. Used by code with no owning
    /// coordinator — notably every planning context's `QrgSkeleton`
    /// set. Because tests in one binary share this, assert on *deltas*
    /// of its values, never absolutes.
    pub fn global() -> &'static Counters {
        static GLOBAL: OnceLock<Counters> = OnceLock::new();
        GLOBAL.get_or_init(Counters::new)
    }

    /// A planning attempt began (establishment phase 2).
    pub fn record_plan_started(&self) {
        self.plans_started.fetch_add(1, Ordering::Relaxed);
    }

    /// Planning produced a feasible end-to-end plan.
    pub fn record_plan_completed(&self) {
        self.plans_completed.fetch_add(1, Ordering::Relaxed);
    }

    /// Planning found no feasible plan.
    pub fn record_plan_rejected(&self) {
        self.plans_rejected.fetch_add(1, Ordering::Relaxed);
    }

    /// A session's reservations were committed at every broker; records
    /// the plan's bottleneck Ψ into the histogram.
    pub fn record_commit(&self, psi: f64) {
        self.reservations_committed.fetch_add(1, Ordering::Relaxed);
        self.psi.record(psi);
    }

    /// A broker rejected dispatch and the plan was rolled back.
    pub fn record_reservation_rejected(&self) {
        self.reservations_rejected.fetch_add(1, Ordering::Relaxed);
    }

    /// A session terminated and released its reservations.
    pub fn record_release(&self) {
        self.sessions_released.fetch_add(1, Ordering::Relaxed);
    }

    /// A renegotiation swapped a session to a better plan.
    pub fn record_upgrade(&self) {
        self.upgrades.fetch_add(1, Ordering::Relaxed);
    }

    /// The α-tradeoff policy stepped a plan down from the best reachable
    /// level.
    pub fn record_tradeoff_downgrade(&self) {
        self.tradeoff_downgrades.fetch_add(1, Ordering::Relaxed);
    }

    /// A planning context switched to a spec whose `QrgSkeleton` it
    /// already held.
    pub fn record_skeleton_hit(&self) {
        self.skeleton_hits.fetch_add(1, Ordering::Relaxed);
    }

    /// A planning context had to build a `QrgSkeleton` from scratch.
    pub fn record_skeleton_miss(&self) {
        self.skeleton_misses.fetch_add(1, Ordering::Relaxed);
    }

    /// An injected fault fired: a host crash, a dropped protocol
    /// message, or a forced commit failure.
    pub fn record_fault_injected(&self) {
        self.faults_injected.fetch_add(1, Ordering::Relaxed);
    }

    /// Partially reserved hops were rolled back after a later hop of the
    /// same plan failed.
    pub fn record_rollback(&self) {
        self.rollbacks.fetch_add(1, Ordering::Relaxed);
    }

    /// A failed establishment attempt was retried (bounded backoff).
    pub fn record_retry(&self) {
        self.retries.fetch_add(1, Ordering::Relaxed);
    }

    /// An establishment committed at a lower rank than its first attempt
    /// planned — graceful degradation after capacity was lost mid-flight.
    pub fn record_degraded_commit(&self) {
        self.degraded_commits.fetch_add(1, Ordering::Relaxed);
    }

    /// A live session was killed by a host crash and fully released.
    pub fn record_session_lost(&self) {
        self.sessions_lost.fetch_add(1, Ordering::Relaxed);
    }

    /// An establishment exhausted its retry budget on injected faults.
    pub fn record_fault_failure(&self) {
        self.fault_failures.fetch_add(1, Ordering::Relaxed);
    }

    /// An establishment request entered the coordinator (counted once
    /// per request, before any retries). Replaces the old
    /// `Mutex<MessageStats>.attempts` bookkeeping on the establish path.
    pub fn record_establish_attempt(&self) {
        self.establish_attempts.fetch_add(1, Ordering::Relaxed);
    }

    /// An establishment request ultimately committed. Replaces the old
    /// `Mutex<MessageStats>.established` bookkeeping.
    pub fn record_establishment(&self) {
        self.establishments.fetch_add(1, Ordering::Relaxed);
    }

    /// A batched admission round planned its requests in parallel
    /// against one epoch snapshot.
    pub fn record_batch_planned(&self) {
        self.batches_planned.fetch_add(1, Ordering::Relaxed);
    }

    /// The sequential commit phase found a plan whose resource was
    /// consumed by an earlier commit in the same round.
    pub fn record_commit_conflict(&self) {
        self.commit_conflicts.fetch_add(1, Ordering::Relaxed);
    }

    /// A conflicted request was replanned against the round's working
    /// view instead of being failed.
    pub fn record_replan(&self) {
        self.replans.fetch_add(1, Ordering::Relaxed);
    }

    /// A delta-aware prepare repaired the cached relaxation in place
    /// instead of recomputing it from scratch.
    pub fn record_delta_repair(&self) {
        self.delta_repairs.fetch_add(1, Ordering::Relaxed);
    }

    /// A delta-aware prepare fell back to a full rebuild (cold cache,
    /// session/options change, or an oversized delta).
    pub fn record_delta_fallback(&self) {
        self.delta_fallbacks.fetch_add(1, Ordering::Relaxed);
    }

    /// `n` QRG nodes were recomputed by incremental relaxation repairs
    /// (the full-sweep path does not count here).
    pub fn record_relax_nodes_repaired(&self, n: u64) {
        self.relax_nodes_repaired.fetch_add(n, Ordering::Relaxed);
    }

    /// A wire-protocol request frame was decoded by the admission
    /// server (establish, terminate, stats, …).
    pub fn record_serve_request(&self) {
        self.serve_requests.fetch_add(1, Ordering::Relaxed);
    }

    /// The admission server flushed one coalesced batch into the
    /// [`AdmissionQueue`](../../qosr_broker/struct.AdmissionQueue.html).
    pub fn record_serve_batch(&self) {
        self.serve_batches.fetch_add(1, Ordering::Relaxed);
    }

    /// A client sent a malformed frame (bad length prefix, truncated
    /// payload, or undecodable JSON).
    pub fn record_serve_protocol_error(&self) {
        self.serve_protocol_errors.fetch_add(1, Ordering::Relaxed);
    }

    /// A client connection closed (cleanly or not) and its leased
    /// sessions were released.
    pub fn record_serve_disconnect(&self) {
        self.serve_disconnects.fetch_add(1, Ordering::Relaxed);
    }

    /// An advance request (rigid window or malleable bulk transfer) was
    /// booked without displacing anyone.
    pub fn record_advance_booked(&self) {
        self.advance_booked.fetch_add(1, Ordering::Relaxed);
    }

    /// A rigid advance request was admitted by preempting malleable
    /// bookings and replanning them around it.
    pub fn record_advance_repacked(&self) {
        self.advance_repacked.fetch_add(1, Ordering::Relaxed);
    }

    /// An advance request was rejected (no feasible profile, or the
    /// repack could not make room).
    pub fn record_advance_rejected(&self) {
        self.advance_rejected.fetch_add(1, Ordering::Relaxed);
    }

    /// The committed-Ψ histogram.
    pub fn psi_histogram(&self) -> &PsiHistogram {
        &self.psi
    }

    /// A point-in-time, serializable copy of every counter.
    pub fn snapshot(&self) -> CountersSnapshot {
        CountersSnapshot {
            plans_started: self.plans_started.load(Ordering::Relaxed),
            plans_completed: self.plans_completed.load(Ordering::Relaxed),
            plans_rejected: self.plans_rejected.load(Ordering::Relaxed),
            reservations_committed: self.reservations_committed.load(Ordering::Relaxed),
            reservations_rejected: self.reservations_rejected.load(Ordering::Relaxed),
            sessions_released: self.sessions_released.load(Ordering::Relaxed),
            upgrades: self.upgrades.load(Ordering::Relaxed),
            tradeoff_downgrades: self.tradeoff_downgrades.load(Ordering::Relaxed),
            skeleton_hits: self.skeleton_hits.load(Ordering::Relaxed),
            skeleton_misses: self.skeleton_misses.load(Ordering::Relaxed),
            faults_injected: self.faults_injected.load(Ordering::Relaxed),
            rollbacks: self.rollbacks.load(Ordering::Relaxed),
            retries: self.retries.load(Ordering::Relaxed),
            degraded_commits: self.degraded_commits.load(Ordering::Relaxed),
            sessions_lost: self.sessions_lost.load(Ordering::Relaxed),
            fault_failures: self.fault_failures.load(Ordering::Relaxed),
            establish_attempts: self.establish_attempts.load(Ordering::Relaxed),
            establishments: self.establishments.load(Ordering::Relaxed),
            batches_planned: self.batches_planned.load(Ordering::Relaxed),
            commit_conflicts: self.commit_conflicts.load(Ordering::Relaxed),
            replans: self.replans.load(Ordering::Relaxed),
            delta_repairs: self.delta_repairs.load(Ordering::Relaxed),
            delta_fallbacks: self.delta_fallbacks.load(Ordering::Relaxed),
            relax_nodes_repaired: self.relax_nodes_repaired.load(Ordering::Relaxed),
            serve_requests: self.serve_requests.load(Ordering::Relaxed),
            serve_batches: self.serve_batches.load(Ordering::Relaxed),
            serve_protocol_errors: self.serve_protocol_errors.load(Ordering::Relaxed),
            serve_disconnects: self.serve_disconnects.load(Ordering::Relaxed),
            advance_booked: self.advance_booked.load(Ordering::Relaxed),
            advance_repacked: self.advance_repacked.load(Ordering::Relaxed),
            advance_rejected: self.advance_rejected.load(Ordering::Relaxed),
            psi_buckets: self.psi.counts().to_vec(),
            psi_milli: self.psi.milli().snapshot(),
        }
    }
}

/// A serializable point-in-time copy of a [`Counters`] instance.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct CountersSnapshot {
    /// Planning attempts begun.
    pub plans_started: u64,
    /// Planning attempts that produced a plan.
    pub plans_completed: u64,
    /// Planning attempts that found no feasible plan.
    pub plans_rejected: u64,
    /// Sessions committed at every broker.
    pub reservations_committed: u64,
    /// Dispatches rejected by a broker and rolled back.
    pub reservations_rejected: u64,
    /// Sessions terminated and released.
    pub sessions_released: u64,
    /// Renegotiations that swapped to a better plan.
    pub upgrades: u64,
    /// α-tradeoff downgrades taken during planning.
    pub tradeoff_downgrades: u64,
    /// `QrgSkeleton` memo hits.
    pub skeleton_hits: u64,
    /// `QrgSkeleton` memo misses (fresh builds).
    pub skeleton_misses: u64,
    /// Injected faults that fired (crashes, drops, commit failures).
    pub faults_injected: u64,
    /// Partial-plan rollbacks (two-phase aborts).
    pub rollbacks: u64,
    /// Establishment retries taken.
    pub retries: u64,
    /// Commits at a lower rank than first planned (graceful degradation).
    pub degraded_commits: u64,
    /// Live sessions killed by host crashes.
    pub sessions_lost: u64,
    /// Establishments that failed after exhausting fault retries.
    pub fault_failures: u64,
    /// Establishment requests received (once per request, before
    /// retries).
    pub establish_attempts: u64,
    /// Establishment requests that ultimately committed.
    pub establishments: u64,
    /// Batched admission rounds planned.
    pub batches_planned: u64,
    /// Same-round commit conflicts detected by the sequential commit
    /// phase.
    pub commit_conflicts: u64,
    /// Conflicted requests replanned against the round's working view.
    pub replans: u64,
    /// Delta-aware prepares that repaired the cached relaxation in
    /// place.
    pub delta_repairs: u64,
    /// Delta-aware prepares that fell back to a full rebuild.
    pub delta_fallbacks: u64,
    /// QRG nodes recomputed by incremental relaxation repairs.
    pub relax_nodes_repaired: u64,
    /// Wire-protocol request frames decoded by the admission server.
    pub serve_requests: u64,
    /// Coalesced batches the admission server flushed into its queue.
    pub serve_batches: u64,
    /// Malformed frames received by the admission server.
    pub serve_protocol_errors: u64,
    /// Client connections closed (sessions leased to them released).
    pub serve_disconnects: u64,
    /// Advance requests booked (rigid windows and malleable profiles).
    pub advance_booked: u64,
    /// Rigid advance requests admitted by preempt-and-repack.
    pub advance_repacked: u64,
    /// Advance requests rejected.
    pub advance_rejected: u64,
    /// Committed-Ψ histogram counts
    /// ([`PSI_BUCKETS`](crate::PSI_BUCKETS) edges + overflow).
    pub psi_buckets: Vec<u64>,
    /// Quantile snapshot of committed Ψ in milli-Ψ fixed point
    /// (`round(Ψ × 1000)`): count/min/max/p50/p90/p99.
    pub psi_milli: HistogramSnapshot,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_reflects_records() {
        let c = Counters::new();
        c.record_plan_started();
        c.record_plan_started();
        c.record_plan_completed();
        c.record_plan_rejected();
        c.record_commit(0.4);
        c.record_release();
        c.record_upgrade();
        c.record_tradeoff_downgrade();
        c.record_skeleton_hit();
        c.record_skeleton_hit();
        c.record_skeleton_miss();
        c.record_delta_repair();
        c.record_delta_fallback();
        c.record_relax_nodes_repaired(12);
        c.record_relax_nodes_repaired(3);
        c.record_serve_request();
        c.record_serve_request();
        c.record_serve_batch();
        c.record_serve_protocol_error();
        c.record_serve_disconnect();
        c.record_advance_booked();
        c.record_advance_booked();
        c.record_advance_repacked();
        c.record_advance_rejected();
        let snap = c.snapshot();
        assert_eq!(snap.plans_started, 2);
        assert_eq!(snap.plans_completed, 1);
        assert_eq!(snap.plans_rejected, 1);
        assert_eq!(snap.reservations_committed, 1);
        assert_eq!(snap.sessions_released, 1);
        assert_eq!(snap.upgrades, 1);
        assert_eq!(snap.tradeoff_downgrades, 1);
        assert_eq!(snap.skeleton_hits, 2);
        assert_eq!(snap.skeleton_misses, 1);
        assert_eq!(snap.delta_repairs, 1);
        assert_eq!(snap.delta_fallbacks, 1);
        assert_eq!(snap.relax_nodes_repaired, 15);
        assert_eq!(snap.serve_requests, 2);
        assert_eq!(snap.serve_batches, 1);
        assert_eq!(snap.serve_protocol_errors, 1);
        assert_eq!(snap.serve_disconnects, 1);
        assert_eq!(snap.advance_booked, 2);
        assert_eq!(snap.advance_repacked, 1);
        assert_eq!(snap.advance_rejected, 1);
        assert_eq!(snap.psi_buckets[4], 1); // 0.4 falls in [0.4, 0.5)
        assert_eq!(snap.psi_milli.count, 1);
        assert_eq!(snap.psi_milli.max, 400); // milli-Ψ fixed point
    }

    #[test]
    fn global_is_shared_and_monotonic() {
        let before = Counters::global().snapshot().skeleton_hits;
        Counters::global().record_skeleton_hit();
        let after = Counters::global().snapshot().skeleton_hits;
        assert!(after > before);
    }
}
