//! What [`qosr::core::PlanCtx`] plans, pinned and cross-checked.
//!
//! `planner_outcomes_are_pinned` holds one literal row per (case,
//! planner) — sink level, rank, Ψ bits, signature and bottleneck
//! resource, or the error, plus the RNG's next draw after the random
//! planner — over dense synthetic chains and random diamond DAGs from
//! `qosr_bench::synth` under randomized availability (down to
//! infeasibility) and availability-change indices α. The rows were
//! recorded before the planner had a single representation, so they
//! carry the outcomes of the legacy per-call graph construction it
//! replaced. `ctx_matches_legacy_{on_chains,on_dags}` check each half
//! from a fresh context; in `planner_outcomes_are_pinned` one `PlanCtx`
//! serves every case, so skeleton memoization and buffer
//! re-preparation are exercised too; `one_ctx_serves_interleaved_sessions`
//! checks a context shared across services against a fresh one per call.
//!
//! The second half locks the **delta-repair** path: a
//! context driven exclusively through [`PlanCtx::prepare_delta`] /
//! [`PlanCtx::prepare_epoch`] over arbitrary availability walks must
//! hold exactly the state a from-scratch full prepare would build
//! against its *effective* view — Pass-I distances bit-for-bit, chosen
//! predecessor edges, every planner's plan, and the RNG stream. With
//! the default zero ψ-threshold the effective view is pinned to the
//! actual view, so repaired planning is byte-identical to full
//! planning; with a positive threshold the tests pin the quantization
//! semantics (threshold-exact moves quantized away, oscillation around
//! the effective value never drifts, crossings rebase it).

use proptest::prelude::*;
use qosr::core::{
    AvailabilityView, DeltaConfig, EpochSnapshot, PlanCtx, Planner, QrgOptions, RepairOutcome,
    RepairStats,
};
use qosr::model::ResourceSpace;
use qosr_bench::synth::{random_dag_scenario, synthetic_chain, synthetic_chain_multi};
use rand::rngs::StdRng;
use rand::{RngCore, RngExt, SeedableRng};

const ALL_PLANNERS: [Planner; 4] = [
    Planner::Basic,
    Planner::Tradeoff,
    Planner::Random,
    Planner::Dag,
];

/// Random availability snapshot: most resources in a feasible band,
/// some scarce (forcing degradation or infeasibility), with random α.
fn random_view(space: &ResourceSpace, rng: &mut StdRng) -> AvailabilityView {
    let mut view = AvailabilityView::new();
    for rid in space.ids() {
        let avail = if rng.random::<f64>() < 0.2 {
            rng.random_range(0.5..=4.0) // scarce
        } else {
            rng.random_range(5.0..=150.0)
        };
        view.set_with_alpha(rid, avail, rng.random_range(0.3..=1.4));
    }
    view
}

/// Plans `session` under `view` with every planner through the shared
/// `ctx` and through a fresh context, and asserts byte-identical outcomes
/// and RNG streams.
fn assert_shared_matches_fresh(
    ctx: &mut PlanCtx,
    session: &qosr::model::SessionInstance,
    view: &AvailabilityView,
    seed: u64,
) -> Result<(), TestCaseError> {
    let options = QrgOptions::default();
    for planner in ALL_PLANNERS {
        let mut rng_fresh = StdRng::seed_from_u64(seed ^ 0x9e3779b97f4a7c15);
        let mut rng_shared = rng_fresh.clone();

        let fresh = PlanCtx::new().plan_session(session, view, &options, planner, &mut rng_fresh);
        let shared = ctx.plan_session(session, view, &options, planner, &mut rng_shared);

        match (fresh, shared) {
            (Ok(a), Ok(b)) => prop_assert_eq!(a, b, "plan mismatch under {:?}", planner),
            (Err(a), Err(b)) => prop_assert_eq!(a, b, "error mismatch under {:?}", planner),
            (a, b) => prop_assert!(false, "{:?}: fresh {:?} vs shared {:?}", planner, a, b),
        }
        // The shared context must consume the RNG identically (same
        // candidate sets in the same order), not merely end at the same
        // plan.
        prop_assert_eq!(
            rng_fresh,
            rng_shared,
            "RNG streams diverged under {:?}",
            planner
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases_from_env(128))]

    #[test]
    fn one_ctx_serves_interleaved_sessions(seed in any::<u64>(), k in 1usize..=4, q in 1usize..=4) {
        // Interleave two different services through the same context:
        // each prepare must fully re-specialize the buffers.
        let (chain, chain_space) = synthetic_chain(k, q);
        let (dag, dag_space, _) = random_dag_scenario(seed);
        let mut avail_rng = StdRng::seed_from_u64(seed ^ 0xabcdef);
        let mut ctx = PlanCtx::new();
        for _ in 0..2 {
            let view = random_view(&chain_space, &mut avail_rng);
            assert_shared_matches_fresh(&mut ctx, &chain, &view, seed)?;
            let view = random_view(&dag_space, &mut avail_rng);
            assert_shared_matches_fresh(&mut ctx, &dag, &view, seed)?;
        }
    }
}

/// Asserts a delta-driven context holds exactly the state a fresh full
/// prepare builds against the delta context's *effective* view: every
/// planner's plan (or error) and RNG stream, plus the Pass-I result
/// bit-for-bit.
fn assert_delta_state_matches_full(
    delta: &mut PlanCtx,
    session: &qosr::model::SessionInstance,
    seed: u64,
) -> Result<(), TestCaseError> {
    let options = QrgOptions::default();
    let view = delta
        .effective_view()
        .expect("delta cache is live after a delta-path prepare")
        .clone();
    let mut full = PlanCtx::new();
    full.prepare(session, &view, &options);
    for planner in ALL_PLANNERS {
        let mut rng_full = StdRng::seed_from_u64(seed ^ 0x5bd1e995);
        let mut rng_delta = rng_full.clone();
        let a = full.plan(planner, &mut rng_full);
        let b = delta.plan(planner, &mut rng_delta);
        match (a, b) {
            (Ok(a), Ok(b)) => prop_assert_eq!(a, b, "repaired plan mismatch under {:?}", planner),
            (Err(a), Err(b)) => prop_assert_eq!(a, b, "error mismatch under {:?}", planner),
            (a, b) => prop_assert!(false, "{:?}: full {:?} vs repaired {:?}", planner, a, b),
        }
        prop_assert_eq!(
            rng_full,
            rng_delta,
            "RNG streams diverged under {:?}",
            planner
        );
    }
    let (full_dist, full_pred) = full.relaxation().expect("full context planned");
    let (delta_dist, delta_pred) = delta.relaxation().expect("delta context planned");
    prop_assert_eq!(full_dist.len(), delta_dist.len());
    for n in 0..full_dist.len() {
        prop_assert_eq!(
            full_dist[n].to_bits(),
            delta_dist[n].to_bits(),
            "Pass-I distance bits differ at node {}",
            n
        );
    }
    prop_assert_eq!(full_pred, delta_pred, "Pass-I predecessors differ");
    Ok(())
}

/// `view`'s observations as exact-comparable triples.
fn observations(view: &AvailabilityView) -> Vec<(qosr::model::ResourceId, u64, u64)> {
    view.iter()
        .map(|(rid, a, al)| (rid, a.to_bits(), al.to_bits()))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases_from_env(48))]

    #[test]
    fn delta_walk_matches_full_at_zero_threshold(
        seed in any::<u64>(),
        k in 1usize..=4,
        q in 1usize..=4,
        slots in 1usize..=3,
    ) {
        // Arbitrary delta sequences: each step re-randomizes a subset of
        // the resources (sometimes none — a pure reuse; sometimes all —
        // forcing the DeltaTooLarge fallback), with the default exact
        // threshold. The repaired state must match a full prepare on
        // the current view at every step.
        let (session, space) = synthetic_chain_multi(k, q, slots);
        let rids: Vec<_> = space.ids().collect();
        let mut rng = StdRng::seed_from_u64(seed);
        let options = QrgOptions::default();
        let mut delta = PlanCtx::new();
        let mut view = random_view(&space, &mut rng);
        let cold = delta.prepare_delta(&session, &view, &options);
        prop_assert!(cold.is_full(), "first prepare has nothing to repair");
        assert_delta_state_matches_full(&mut delta, &session, seed)?;
        for step in 0..5u64 {
            let p = [0.0, 0.2, 0.6, 1.0][rng.random_range(0..4usize)];
            for &rid in &rids {
                if rng.random::<f64>() < p {
                    let avail = if rng.random::<f64>() < 0.2 {
                        rng.random_range(0.5..=4.0)
                    } else {
                        rng.random_range(5.0..=150.0)
                    };
                    view.set_with_alpha(rid, avail, rng.random_range(0.3..=1.4));
                }
            }
            delta.prepare_delta(&session, &view, &options);
            // Exact threshold: the effective view tracks the actual one.
            let effective = delta.effective_view().expect("cache live");
            prop_assert_eq!(observations(effective), observations(&view));
            assert_delta_state_matches_full(&mut delta, &session, seed ^ step)?;
        }
    }

    #[test]
    fn threshold_exact_deltas_are_quantized_away(seed in any::<u64>(), k in 1usize..=3, q in 1usize..=3) {
        // τ = 0.25 against a base of 64.0: every bound below is exact in
        // binary floating point, so "exactly at the threshold" really is
        // exact. A move of 16.0 (== 0.25 · 64) must be quantized away; a
        // move of 17.0 must land.
        let (session, space) = synthetic_chain_multi(k, q, 2);
        let rids: Vec<_> = space.ids().collect();
        let options = QrgOptions::default();
        let mut delta = PlanCtx::new();
        delta.set_delta_config(DeltaConfig { psi_threshold: 0.25, max_dirty_fraction: 1.0 });
        let mut view = AvailabilityView::new();
        for &rid in &rids {
            view.set(rid, 64.0);
        }
        delta.prepare_delta(&session, &view, &options);
        let target = rids[(seed % rids.len() as u64) as usize];

        view.set(target, 80.0); // |80 − 64| == 0.25 · 64 — not a change
        let out = delta.prepare_delta(&session, &view, &options);
        prop_assert_eq!(out, RepairOutcome::Repaired(RepairStats::default()));
        prop_assert_eq!(delta.effective_view().expect("live").avail(target), 64.0);
        assert_delta_state_matches_full(&mut delta, &session, seed)?;

        view.set(target, 81.0); // 17 > 16 — past the threshold
        let out = delta.prepare_delta(&session, &view, &options);
        prop_assert!(
            out.stats().is_some_and(|s| s.resources_changed == 1),
            "a move past the threshold must repair exactly one resource, got {:?}",
            out
        );
        prop_assert_eq!(delta.effective_view().expect("live").avail(target), 81.0);
        assert_delta_state_matches_full(&mut delta, &session, seed)?;

        // α quantizes independently: 1.0 → 1.25 is exactly at the
        // threshold (no change), 1.0 → 1.5 crosses it.
        view.set_with_alpha(target, 81.0, 1.25);
        let out = delta.prepare_delta(&session, &view, &options);
        prop_assert_eq!(out, RepairOutcome::Repaired(RepairStats::default()));
        prop_assert_eq!(delta.effective_view().expect("live").alpha(target), 1.0);
        view.set_with_alpha(target, 81.0, 1.5);
        let out = delta.prepare_delta(&session, &view, &options);
        prop_assert!(out.stats().is_some_and(|s| s.resources_changed == 1));
        prop_assert_eq!(delta.effective_view().expect("live").alpha(target), 1.5);
        assert_delta_state_matches_full(&mut delta, &session, seed)?;
    }

    #[test]
    fn oscillation_crosses_the_threshold_both_ways(seed in any::<u64>(), k in 1usize..=3, q in 2usize..=4) {
        // Quantization is relative to the *effective* (last applied)
        // value, so sub-threshold oscillation never drifts the effective
        // view — and a crossing rebases it, changing which later moves
        // count.
        let (session, space) = synthetic_chain_multi(k, q, 2);
        let rids: Vec<_> = space.ids().collect();
        let options = QrgOptions::default();
        let mut delta = PlanCtx::new();
        delta.set_delta_config(DeltaConfig { psi_threshold: 0.25, max_dirty_fraction: 1.0 });
        let mut view = AvailabilityView::new();
        for &rid in &rids {
            view.set(rid, 64.0);
        }
        delta.prepare_delta(&session, &view, &options);
        let target = rids[(seed % rids.len() as u64) as usize];

        // Oscillate within the threshold band around 64 (±16): pinned.
        for &osc in &[78.0, 50.0, 78.0, 50.0] {
            view.set(target, osc);
            let out = delta.prepare_delta(&session, &view, &options);
            prop_assert_eq!(out, RepairOutcome::Repaired(RepairStats::default()));
            prop_assert_eq!(delta.effective_view().expect("live").avail(target), 64.0);
        }
        assert_delta_state_matches_full(&mut delta, &session, seed)?;

        // Cross upward: 82 − 64 = 18 > 16 — applied, and the band
        // rebases around 82 (±20.5).
        view.set(target, 82.0);
        prop_assert!(delta.prepare_delta(&session, &view, &options).stats().is_some_and(|s| s.resources_changed == 1));
        prop_assert_eq!(delta.effective_view().expect("live").avail(target), 82.0);
        // 64 is now *inside* the rebased band (|64 − 82| = 18 < 20.5).
        view.set(target, 64.0);
        prop_assert_eq!(delta.prepare_delta(&session, &view, &options), RepairOutcome::Repaired(RepairStats::default()));
        prop_assert_eq!(delta.effective_view().expect("live").avail(target), 82.0);
        // Cross downward: |50 − 82| = 32 > 20.5 — applied.
        view.set(target, 50.0);
        prop_assert!(delta.prepare_delta(&session, &view, &options).stats().is_some_and(|s| s.resources_changed == 1));
        prop_assert_eq!(delta.effective_view().expect("live").avail(target), 50.0);
        assert_delta_state_matches_full(&mut delta, &session, seed)?;
    }

    #[test]
    fn epoch_wrap_keeps_tokens_and_repairs_correct(seed in any::<u64>(), k in 1usize..=3, q in 1usize..=4) {
        // Epoch numbers wrap; generation tokens must not. Across the
        // wrap, re-preparing the same snapshot stays a token-compare
        // no-op and fresh snapshots keep repairing correctly.
        let (session, space) = synthetic_chain_multi(k, q, 2);
        let rids: Vec<_> = space.ids().collect();
        let options = QrgOptions::default();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut delta = PlanCtx::new();
        let mut view = random_view(&space, &mut rng);
        let mut epoch = u64::MAX - 1;
        for step in 0..4u64 {
            let snapshot = EpochSnapshot::new(epoch, step as f64, view.clone());
            delta.prepare_epoch(&session, &snapshot, &options);
            let again = delta.prepare_epoch(&session, &snapshot, &options);
            prop_assert_eq!(
                again,
                RepairOutcome::Repaired(RepairStats::default()),
                "same-snapshot re-prepare must be a token no-op (epoch {})",
                epoch
            );
            assert_delta_state_matches_full(&mut delta, &session, seed ^ step)?;
            epoch = epoch.wrapping_add(1);
            let rid = rids[rng.random_range(0..rids.len())];
            view.set_with_alpha(rid, rng.random_range(5.0..=150.0), rng.random_range(0.3..=1.4));
        }
    }

    #[test]
    fn post_conflict_working_view_replans_match_full(seed in any::<u64>(), k in 2usize..=4, q in 2usize..=4) {
        // The admission commit phase debits a working copy of the epoch
        // snapshot as earlier arrivals commit, then replans conflicted
        // requests against it through the delta path. Those replans must
        // match a full prepare on the working view, debit after debit.
        let (session, space) = synthetic_chain_multi(k, q, 2);
        let rids: Vec<_> = space.ids().collect();
        let options = QrgOptions::default();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut view = AvailabilityView::new();
        for &rid in &rids {
            view.set_with_alpha(rid, rng.random_range(80.0..=200.0), rng.random_range(0.5..=1.2));
        }
        let snapshot = EpochSnapshot::new(0, 0.0, view);
        let mut delta = PlanCtx::new();
        delta.prepare_epoch(&session, &snapshot, &options);
        assert_delta_state_matches_full(&mut delta, &session, seed)?;
        let mut working = snapshot.working();
        for conflict in 0..3u64 {
            for &rid in &rids {
                if rng.random::<f64>() < 0.4 {
                    working.debit(rid, rng.random_range(1.0..=60.0));
                }
            }
            delta.prepare_delta(&session, &working, &options);
            let effective = delta.effective_view().expect("cache live");
            prop_assert_eq!(observations(effective), observations(&working));
            assert_delta_state_matches_full(&mut delta, &session, seed ^ conflict)?;
        }
    }
}

/// States in the steady-state replanning walk.
const WALK_STATES: usize = 64;

/// The steady-state replanning walk: a 4×4 chain with three resource
/// slots per component (twelve resources) and 64 availability states,
/// each a multiplicative jitter of one resource on the state before, far
/// from infeasibility.
fn replan_walk() -> (qosr::model::SessionInstance, Vec<AvailabilityView>) {
    let (session, space) = synthetic_chain_multi(4, 4, 3);
    let rids: Vec<_> = space.ids().collect();
    let mut avail: Vec<f64> = (0..rids.len()).map(|i| 90.0 + 7.0 * i as f64).collect();
    let factors = [0.93, 1.06, 0.97, 1.04];
    let views = (0..WALK_STATES)
        .map(|s| {
            if s > 0 {
                avail[s % rids.len()] *= factors[s % factors.len()];
            }
            let mut view = AvailabilityView::new();
            for (&rid, &a) in rids.iter().zip(&avail) {
                view.set_with_alpha(rid, a, 1.0);
            }
            view
        })
        .collect();
    (session, views)
}

/// The state visited at `step` of the ping-pong schedule 0, 1, …, 63,
/// 62, …, 1, 0, 1, …: every step, turnarounds included, moves one
/// resource.
fn ping_pong(step: usize) -> usize {
    let period = 2 * (WALK_STATES - 1);
    let p = step % period;
    p.min(period - p)
}

/// Two laps' worth of the ping-pong walk through the delta path, each
/// step planned against a full prepare of the same state. The counts
/// were recorded before the timed replanning comparison was retired:
/// after the cold start every step is a one-resource repair that
/// re-evaluates about 12.7 of the 52 candidates a full prepare
/// evaluates and recomputes about 5 relaxation nodes.
#[test]
fn replan_walk_repairs_one_resource_per_step() {
    let (session, views) = replan_walk();
    let options = QrgOptions::default();
    let mut full = PlanCtx::new();
    let mut delta = PlanCtx::new();
    let (mut repairs, mut fallbacks) = (0, 0);
    let (mut reevaluated, mut recomputed) = (0, 0);
    for step in 0..2 * WALK_STATES {
        let view = &views[ping_pong(step)];
        full.prepare(&session, view, &options);
        assert_eq!(full.candidates().count(), 52, "step {step}");
        match delta.prepare_delta(&session, view, &options) {
            RepairOutcome::Repaired(stats) => {
                assert_eq!(stats.resources_changed, 1, "step {step}");
                repairs += 1;
                reevaluated += stats.candidates_reevaluated;
                recomputed += stats.nodes_recomputed;
            }
            RepairOutcome::Full(_) => fallbacks += 1,
        }
        let seed = step as u64;
        let a = full.plan(Planner::Basic, &mut StdRng::seed_from_u64(seed));
        let b = delta.plan(Planner::Basic, &mut StdRng::seed_from_u64(seed));
        assert!(a.is_ok(), "step {step}: the walk stays feasible");
        assert_eq!(a, b, "step {step}");
    }
    assert_eq!(
        (repairs, fallbacks),
        (127, 1),
        "only the cold start rebuilds"
    );
    assert_eq!(reevaluated, 1_612);
    assert_eq!(recomputed, 636);
}

/// One literal row per (case, planner): the plan's `sink_level`, `rank`,
/// `psi` bits, signature and bottleneck resource, or the error; after
/// [`Planner::Random`] also the RNG's next `u64`.
fn outcome_row(
    ctx: &mut PlanCtx,
    case: &str,
    session: &qosr::model::SessionInstance,
    view: &AvailabilityView,
    planner: Planner,
    seed: u64,
) -> String {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x9e3779b97f4a7c15);
    let outcome = match ctx.plan_session(session, view, &QrgOptions::default(), planner, &mut rng) {
        Ok(p) => format!(
            "level={} rank={} psi={:016x} sig={:?} bn={:?}",
            p.sink_level,
            p.rank,
            p.psi.to_bits(),
            p.signature(),
            p.bottleneck.map(|b| b.resource.0)
        ),
        Err(e) => format!("{e:?}"),
    };
    let next = if planner == Planner::Random {
        format!(" next={:016x}", rng.next_u64())
    } else {
        String::new()
    };
    format!("{case} {planner:?}: {outcome}{next}")
}

/// The chain rows: dense chains (k ≤ 6, q ≤ 5) under two random views
/// each, with all four planners.
fn chain_outcome_rows(ctx: &mut PlanCtx) -> Vec<String> {
    let mut rows = Vec::new();
    for k in 1..=6usize {
        for q in 1..=5usize {
            let (session, space) = synthetic_chain(k, q);
            let seed = (10 * k + q) as u64;
            let mut avail_rng = StdRng::seed_from_u64(seed);
            for v in 0..2 {
                let view = random_view(&space, &mut avail_rng);
                for planner in ALL_PLANNERS {
                    let case = format!("chain{k}x{q}/{v}");
                    rows.push(outcome_row(ctx, &case, &session, &view, planner, seed));
                }
            }
        }
    }
    rows
}

/// The DAG rows: random diamond DAGs under their own availability and
/// one random view, with the two DAG planners.
fn dag_outcome_rows(ctx: &mut PlanCtx) -> Vec<String> {
    let mut rows = Vec::new();
    for seed in 0..32u64 {
        let (session, space, avail) = random_dag_scenario(seed);
        let mut own = AvailabilityView::new();
        for (i, rid) in space.ids().enumerate() {
            own.set(rid, avail[i]);
        }
        let random = random_view(&space, &mut StdRng::seed_from_u64(seed.wrapping_add(1)));
        for (v, view) in [own, random].iter().enumerate() {
            for planner in [Planner::Tradeoff, Planner::Dag] {
                let case = format!("dag{seed}/{v}");
                rows.push(outcome_row(ctx, &case, &session, view, planner, seed));
            }
        }
    }
    rows
}

fn assert_rows_pinned(rows: &[String], pinned: &[&str]) {
    assert_eq!(rows.len(), pinned.len());
    for (got, want) in rows.iter().zip(pinned) {
        assert_eq!(got, want);
    }
}

/// The chain rows from a fresh context match the outcomes the legacy
/// per-call graph construction produced.
#[test]
fn ctx_matches_legacy_on_chains() {
    assert_rows_pinned(
        &chain_outcome_rows(&mut PlanCtx::new()),
        PINNED_CHAIN_OUTCOMES,
    );
}

/// The DAG rows from a fresh context match the outcomes the legacy
/// per-call graph construction produced.
#[test]
fn ctx_matches_legacy_on_dags() {
    assert_rows_pinned(&dag_outcome_rows(&mut PlanCtx::new()), PINNED_DAG_OUTCOMES);
}

/// Every row, chains then DAGs, with one context serving every case.
#[test]
fn planner_outcomes_are_pinned() {
    let mut ctx = PlanCtx::new();
    let mut rows = chain_outcome_rows(&mut ctx);
    rows.extend(dag_outcome_rows(&mut ctx));
    let pinned: Vec<&str> = PINNED_CHAIN_OUTCOMES
        .iter()
        .chain(PINNED_DAG_OUTCOMES)
        .copied()
        .collect();
    assert_rows_pinned(&rows, &pinned);
}

/// The outcomes of [`chain_outcome_rows`], recorded before the planner
/// was reduced to one representation.
const PINNED_CHAIN_OUTCOMES: &[&str] = &[
    "chain1x1/0 Basic: level=0 rank=1 psi=3f90cba30fda95cb sig=[(0, 0, 0)] bn=Some(0)",
    "chain1x1/0 Tradeoff: level=0 rank=1 psi=3f90cba30fda95cb sig=[(0, 0, 0)] bn=Some(0)",
    "chain1x1/0 Random: level=0 rank=1 psi=3f90cba30fda95cb sig=[(0, 0, 0)] bn=Some(0) next=3096be0ce574416e",
    "chain1x1/0 Dag: level=0 rank=1 psi=3f90cba30fda95cb sig=[(0, 0, 0)] bn=Some(0)",
    "chain1x1/1 Basic: level=0 rank=1 psi=3fa7ca2fecaa4255 sig=[(0, 0, 0)] bn=Some(0)",
    "chain1x1/1 Tradeoff: level=0 rank=1 psi=3fa7ca2fecaa4255 sig=[(0, 0, 0)] bn=Some(0)",
    "chain1x1/1 Random: level=0 rank=1 psi=3fa7ca2fecaa4255 sig=[(0, 0, 0)] bn=Some(0) next=3096be0ce574416e",
    "chain1x1/1 Dag: level=0 rank=1 psi=3fa7ca2fecaa4255 sig=[(0, 0, 0)] bn=Some(0)",
    "chain1x2/0 Basic: level=1 rank=2 psi=3fa206d86473d2b0 sig=[(0, 0, 1)] bn=Some(0)",
    "chain1x2/0 Tradeoff: level=1 rank=2 psi=3fa206d86473d2b0 sig=[(0, 0, 1)] bn=Some(0)",
    "chain1x2/0 Random: level=1 rank=2 psi=3fa206d86473d2b0 sig=[(0, 0, 1)] bn=Some(0) next=108e71d0a1fe39b4",
    "chain1x2/0 Dag: level=1 rank=2 psi=3fa206d86473d2b0 sig=[(0, 0, 1)] bn=Some(0)",
    "chain1x2/1 Basic: level=1 rank=2 psi=3fa0843c2d952a91 sig=[(0, 0, 1)] bn=Some(0)",
    "chain1x2/1 Tradeoff: level=1 rank=2 psi=3fa0843c2d952a91 sig=[(0, 0, 1)] bn=Some(0)",
    "chain1x2/1 Random: level=1 rank=2 psi=3fa0843c2d952a91 sig=[(0, 0, 1)] bn=Some(0) next=108e71d0a1fe39b4",
    "chain1x2/1 Dag: level=1 rank=2 psi=3fa0843c2d952a91 sig=[(0, 0, 1)] bn=Some(0)",
    "chain1x3/0 Basic: NoFeasiblePlan",
    "chain1x3/0 Tradeoff: NoFeasiblePlan",
    "chain1x3/0 Random: NoFeasiblePlan next=4f698c2c0b770107",
    "chain1x3/0 Dag: NoFeasiblePlan",
    "chain1x3/1 Basic: level=2 rank=3 psi=3fc0cb0e19ffcf76 sig=[(0, 0, 2)] bn=Some(0)",
    "chain1x3/1 Tradeoff: level=0 rank=1 psi=3fa5531e18e35095 sig=[(0, 0, 0)] bn=Some(0)",
    "chain1x3/1 Random: level=2 rank=3 psi=3fc0cb0e19ffcf76 sig=[(0, 0, 2)] bn=Some(0) next=11ac0ea99e67991d",
    "chain1x3/1 Dag: level=2 rank=3 psi=3fc0cb0e19ffcf76 sig=[(0, 0, 2)] bn=Some(0)",
    "chain1x4/0 Basic: level=3 rank=4 psi=3fd91f789f557339 sig=[(0, 0, 3)] bn=Some(0)",
    "chain1x4/0 Tradeoff: level=3 rank=4 psi=3fd91f789f557339 sig=[(0, 0, 3)] bn=Some(0)",
    "chain1x4/0 Random: level=3 rank=4 psi=3fd91f789f557339 sig=[(0, 0, 3)] bn=Some(0) next=57ab44963f996e58",
    "chain1x4/0 Dag: level=3 rank=4 psi=3fd91f789f557339 sig=[(0, 0, 3)] bn=Some(0)",
    "chain1x4/1 Basic: level=3 rank=4 psi=3fb0865aeb5a3383 sig=[(0, 0, 3)] bn=Some(0)",
    "chain1x4/1 Tradeoff: level=1 rank=2 psi=3fa499d7bf01847d sig=[(0, 0, 1)] bn=Some(0)",
    "chain1x4/1 Random: level=3 rank=4 psi=3fb0865aeb5a3383 sig=[(0, 0, 3)] bn=Some(0) next=57ab44963f996e58",
    "chain1x4/1 Dag: level=3 rank=4 psi=3fb0865aeb5a3383 sig=[(0, 0, 3)] bn=Some(0)",
    "chain1x5/0 Basic: level=0 rank=1 psi=3fe404866dab4f13 sig=[(0, 0, 0)] bn=Some(0)",
    "chain1x5/0 Tradeoff: level=0 rank=1 psi=3fe404866dab4f13 sig=[(0, 0, 0)] bn=Some(0)",
    "chain1x5/0 Random: level=0 rank=1 psi=3fe404866dab4f13 sig=[(0, 0, 0)] bn=Some(0) next=1d000c030d8d007d",
    "chain1x5/0 Dag: level=0 rank=1 psi=3fe404866dab4f13 sig=[(0, 0, 0)] bn=Some(0)",
    "chain1x5/1 Basic: level=4 rank=5 psi=3fb642c12fbe5e93 sig=[(0, 0, 4)] bn=Some(0)",
    "chain1x5/1 Tradeoff: level=1 rank=2 psi=3fa642c12fbe5e93 sig=[(0, 0, 1)] bn=Some(0)",
    "chain1x5/1 Random: level=4 rank=5 psi=3fb642c12fbe5e93 sig=[(0, 0, 4)] bn=Some(0) next=1d000c030d8d007d",
    "chain1x5/1 Dag: level=4 rank=5 psi=3fb642c12fbe5e93 sig=[(0, 0, 4)] bn=Some(0)",
    "chain2x1/0 Basic: level=0 rank=1 psi=3f9d0c6cb0a942a9 sig=[(0, 0, 0), (1, 0, 0)] bn=Some(0)",
    "chain2x1/0 Tradeoff: level=0 rank=1 psi=3f9d0c6cb0a942a9 sig=[(0, 0, 0), (1, 0, 0)] bn=Some(0)",
    "chain2x1/0 Random: level=0 rank=1 psi=3f9d0c6cb0a942a9 sig=[(0, 0, 0), (1, 0, 0)] bn=Some(0) next=a67d6c99e3e2b0ae",
    "chain2x1/0 Dag: level=0 rank=1 psi=3f9d0c6cb0a942a9 sig=[(0, 0, 0), (1, 0, 0)] bn=Some(0)",
    "chain2x1/1 Basic: level=0 rank=1 psi=3f9c28276d6399f5 sig=[(0, 0, 0), (1, 0, 0)] bn=Some(1)",
    "chain2x1/1 Tradeoff: level=0 rank=1 psi=3f9c28276d6399f5 sig=[(0, 0, 0), (1, 0, 0)] bn=Some(1)",
    "chain2x1/1 Random: level=0 rank=1 psi=3f9c28276d6399f5 sig=[(0, 0, 0), (1, 0, 0)] bn=Some(1) next=a67d6c99e3e2b0ae",
    "chain2x1/1 Dag: level=0 rank=1 psi=3f9c28276d6399f5 sig=[(0, 0, 0), (1, 0, 0)] bn=Some(1)",
    "chain2x2/0 Basic: level=1 rank=2 psi=3faaac476aa39384 sig=[(0, 0, 0), (1, 0, 1)] bn=Some(1)",
    "chain2x2/0 Tradeoff: level=1 rank=2 psi=3faaac476aa39384 sig=[(0, 0, 0), (1, 0, 1)] bn=Some(1)",
    "chain2x2/0 Random: level=1 rank=2 psi=3fbace21e8d177de sig=[(0, 0, 1), (1, 1, 1)] bn=Some(0) next=6680503c181143c7",
    "chain2x2/0 Dag: level=1 rank=2 psi=3faaac476aa39384 sig=[(0, 0, 0), (1, 0, 1)] bn=Some(1)",
    "chain2x2/1 Basic: NoFeasiblePlan",
    "chain2x2/1 Tradeoff: NoFeasiblePlan",
    "chain2x2/1 Random: NoFeasiblePlan next=0686fbcd3999e63f",
    "chain2x2/1 Dag: NoFeasiblePlan",
    "chain2x3/0 Basic: level=0 rank=1 psi=3fee2d340bf0bdec sig=[(0, 0, 0), (1, 0, 0)] bn=Some(1)",
    "chain2x3/0 Tradeoff: level=0 rank=1 psi=3fee2d340bf0bdec sig=[(0, 0, 0), (1, 0, 0)] bn=Some(1)",
    "chain2x3/0 Random: level=0 rank=1 psi=3fee2d340bf0bdec sig=[(0, 0, 0), (1, 0, 0)] bn=Some(1) next=eaf64fbc8fc56c5a",
    "chain2x3/0 Dag: level=0 rank=1 psi=3fee2d340bf0bdec sig=[(0, 0, 0), (1, 0, 0)] bn=Some(1)",
    "chain2x3/1 Basic: level=0 rank=1 psi=3fec42b1574d1367 sig=[(0, 0, 0), (1, 0, 0)] bn=Some(1)",
    "chain2x3/1 Tradeoff: level=0 rank=1 psi=3fec42b1574d1367 sig=[(0, 0, 0), (1, 0, 0)] bn=Some(1)",
    "chain2x3/1 Random: level=0 rank=1 psi=3fec42b1574d1367 sig=[(0, 0, 0), (1, 0, 0)] bn=Some(1) next=eaf64fbc8fc56c5a",
    "chain2x3/1 Dag: level=0 rank=1 psi=3fec42b1574d1367 sig=[(0, 0, 0), (1, 0, 0)] bn=Some(1)",
    "chain2x4/0 Basic: level=3 rank=4 psi=3fa8cf1595863243 sig=[(0, 0, 0), (1, 0, 3)] bn=Some(1)",
    "chain2x4/0 Tradeoff: level=3 rank=4 psi=3fa8cf1595863243 sig=[(0, 0, 0), (1, 0, 3)] bn=Some(1)",
    "chain2x4/0 Random: level=3 rank=4 psi=3fba254173fe1126 sig=[(0, 0, 1), (1, 1, 3)] bn=Some(0) next=684bfc01e17df7af",
    "chain2x4/0 Dag: level=3 rank=4 psi=3fa8cf1595863243 sig=[(0, 0, 0), (1, 0, 3)] bn=Some(1)",
    "chain2x4/1 Basic: level=3 rank=4 psi=3fb2ef16a1d7f41e sig=[(0, 0, 3), (1, 3, 3)] bn=Some(1)",
    "chain2x4/1 Tradeoff: level=0 rank=1 psi=3fa03aa5af4b6387 sig=[(0, 0, 0), (1, 0, 0)] bn=Some(1)",
    "chain2x4/1 Random: level=3 rank=4 psi=3fb992b780d3e2a6 sig=[(0, 0, 1), (1, 1, 3)] bn=Some(1) next=684bfc01e17df7af",
    "chain2x4/1 Dag: level=3 rank=4 psi=3fb2ef16a1d7f41e sig=[(0, 0, 3), (1, 3, 3)] bn=Some(1)",
    "chain2x5/0 Basic: level=4 rank=5 psi=3fcc0e6685966978 sig=[(0, 0, 4), (1, 4, 4)] bn=Some(1)",
    "chain2x5/0 Tradeoff: level=1 rank=2 psi=3fbd2db24d7db55e sig=[(0, 0, 1), (1, 1, 1)] bn=Some(1)",
    "chain2x5/0 Random: level=4 rank=5 psi=3fd2846262686454 sig=[(0, 0, 2), (1, 2, 4)] bn=Some(1) next=fe6346d8f74af021",
    "chain2x5/0 Dag: level=4 rank=5 psi=3fcc0e6685966978 sig=[(0, 0, 4), (1, 4, 4)] bn=Some(1)",
    "chain2x5/1 Basic: level=4 rank=5 psi=3fb3114a55a68957 sig=[(0, 0, 4), (1, 4, 4)] bn=Some(1)",
    "chain2x5/1 Tradeoff: level=1 rank=2 psi=3fa3d48abf79ff79 sig=[(0, 0, 1), (1, 1, 1)] bn=Some(1)",
    "chain2x5/1 Random: level=4 rank=5 psi=3fb92b4da4423a68 sig=[(0, 0, 2), (1, 2, 4)] bn=Some(1) next=fe6346d8f74af021",
    "chain2x5/1 Dag: level=4 rank=5 psi=3fb3114a55a68957 sig=[(0, 0, 4), (1, 4, 4)] bn=Some(1)",
    "chain3x1/0 Basic: level=0 rank=1 psi=3fe077f837534af1 sig=[(0, 0, 0), (1, 0, 0), (2, 0, 0)] bn=Some(0)",
    "chain3x1/0 Tradeoff: level=0 rank=1 psi=3fe077f837534af1 sig=[(0, 0, 0), (1, 0, 0), (2, 0, 0)] bn=Some(0)",
    "chain3x1/0 Random: level=0 rank=1 psi=3fe077f837534af1 sig=[(0, 0, 0), (1, 0, 0), (2, 0, 0)] bn=Some(0) next=4f4970ef25a9328f",
    "chain3x1/0 Dag: level=0 rank=1 psi=3fe077f837534af1 sig=[(0, 0, 0), (1, 0, 0), (2, 0, 0)] bn=Some(0)",
    "chain3x1/1 Basic: level=0 rank=1 psi=3fc3a9fa212ba4d7 sig=[(0, 0, 0), (1, 0, 0), (2, 0, 0)] bn=Some(0)",
    "chain3x1/1 Tradeoff: level=0 rank=1 psi=3fc3a9fa212ba4d7 sig=[(0, 0, 0), (1, 0, 0), (2, 0, 0)] bn=Some(0)",
    "chain3x1/1 Random: level=0 rank=1 psi=3fc3a9fa212ba4d7 sig=[(0, 0, 0), (1, 0, 0), (2, 0, 0)] bn=Some(0) next=4f4970ef25a9328f",
    "chain3x1/1 Dag: level=0 rank=1 psi=3fc3a9fa212ba4d7 sig=[(0, 0, 0), (1, 0, 0), (2, 0, 0)] bn=Some(0)",
    "chain3x2/0 Basic: level=1 rank=2 psi=3fcb423afb477bb1 sig=[(0, 0, 0), (1, 0, 0), (2, 0, 1)] bn=Some(2)",
    "chain3x2/0 Tradeoff: level=1 rank=2 psi=3fcb423afb477bb1 sig=[(0, 0, 0), (1, 0, 0), (2, 0, 1)] bn=Some(2)",
    "chain3x2/0 Random: level=1 rank=2 psi=3fcdfc0dae01d4de sig=[(0, 0, 1), (1, 1, 1), (2, 1, 1)] bn=Some(2) next=b29041342be1fdf6",
    "chain3x2/0 Dag: level=1 rank=2 psi=3fcb423afb477bb1 sig=[(0, 0, 0), (1, 0, 0), (2, 0, 1)] bn=Some(2)",
    "chain3x2/1 Basic: NoFeasiblePlan",
    "chain3x2/1 Tradeoff: NoFeasiblePlan",
    "chain3x2/1 Random: NoFeasiblePlan next=430cdd36323272b3",
    "chain3x2/1 Dag: NoFeasiblePlan",
    "chain3x3/0 Basic: level=2 rank=3 psi=3fb955b06a8f8cda sig=[(0, 0, 2), (1, 2, 2), (2, 2, 2)] bn=Some(2)",
    "chain3x3/0 Tradeoff: level=0 rank=1 psi=3fb0e3caf1b50891 sig=[(0, 0, 0), (1, 0, 0), (2, 0, 0)] bn=Some(2)",
    "chain3x3/0 Random: level=2 rank=3 psi=3fb955b06a8f8cda sig=[(0, 0, 2), (1, 2, 2), (2, 2, 2)] bn=Some(2) next=4065782ad47fdc27",
    "chain3x3/0 Dag: level=2 rank=3 psi=3fb955b06a8f8cda sig=[(0, 0, 2), (1, 2, 2), (2, 2, 2)] bn=Some(2)",
    "chain3x3/1 Basic: level=2 rank=3 psi=3fac9790a1fe153a sig=[(0, 0, 0), (1, 0, 0), (2, 0, 2)] bn=Some(2)",
    "chain3x3/1 Tradeoff: level=2 rank=3 psi=3fac9790a1fe153a sig=[(0, 0, 0), (1, 0, 0), (2, 0, 2)] bn=Some(2)",
    "chain3x3/1 Random: level=2 rank=3 psi=3fbe3f3e977b47bc sig=[(0, 0, 2), (1, 2, 2), (2, 2, 2)] bn=Some(0) next=4065782ad47fdc27",
    "chain3x3/1 Dag: level=2 rank=3 psi=3fac9790a1fe153a sig=[(0, 0, 0), (1, 0, 0), (2, 0, 2)] bn=Some(2)",
    "chain3x4/0 Basic: level=3 rank=4 psi=3faed2f589351d48 sig=[(0, 0, 1), (1, 1, 1), (2, 1, 3)] bn=Some(2)",
    "chain3x4/0 Tradeoff: level=3 rank=4 psi=3faed2f589351d48 sig=[(0, 0, 1), (1, 1, 1), (2, 1, 3)] bn=Some(2)",
    "chain3x4/0 Random: level=3 rank=4 psi=3fb328f9cf9aca3a sig=[(0, 0, 3), (1, 3, 3), (2, 3, 3)] bn=Some(1) next=0d494f43e03826a0",
    "chain3x4/0 Dag: level=3 rank=4 psi=3faed2f589351d48 sig=[(0, 0, 1), (1, 1, 1), (2, 1, 3)] bn=Some(2)",
    "chain3x4/1 Basic: level=3 rank=4 psi=3faffe4f08578c77 sig=[(0, 0, 2), (1, 2, 2), (2, 2, 3)] bn=Some(2)",
    "chain3x4/1 Tradeoff: level=3 rank=4 psi=3faffe4f08578c77 sig=[(0, 0, 2), (1, 2, 2), (2, 2, 3)] bn=Some(2)",
    "chain3x4/1 Random: level=3 rank=4 psi=3fb17370ed4706cc sig=[(0, 0, 3), (1, 3, 3), (2, 3, 3)] bn=Some(2) next=0d494f43e03826a0",
    "chain3x4/1 Dag: level=3 rank=4 psi=3faffe4f08578c77 sig=[(0, 0, 2), (1, 2, 2), (2, 2, 3)] bn=Some(2)",
    "chain3x5/0 Basic: level=4 rank=5 psi=3fc8f320fed28161 sig=[(0, 0, 3), (1, 3, 3), (2, 3, 4)] bn=Some(1)",
    "chain3x5/0 Tradeoff: level=4 rank=5 psi=3fc8f320fed28161 sig=[(0, 0, 3), (1, 3, 3), (2, 3, 4)] bn=Some(1)",
    "chain3x5/0 Random: level=4 rank=5 psi=3fd0337c7d92aa74 sig=[(0, 0, 1), (1, 1, 4), (2, 4, 4)] bn=Some(1) next=d63d202327041262",
    "chain3x5/0 Dag: level=4 rank=5 psi=3fc8f320fed28161 sig=[(0, 0, 3), (1, 3, 3), (2, 3, 4)] bn=Some(1)",
    "chain3x5/1 Basic: level=4 rank=5 psi=3fcb3b3317266844 sig=[(0, 0, 0), (1, 0, 3), (2, 3, 4)] bn=Some(2)",
    "chain3x5/1 Tradeoff: level=4 rank=5 psi=3fcb3b3317266844 sig=[(0, 0, 0), (1, 0, 3), (2, 3, 4)] bn=Some(2)",
    "chain3x5/1 Random: level=4 rank=5 psi=3fcdf451ccaa3f7e sig=[(0, 0, 1), (1, 1, 4), (2, 4, 4)] bn=Some(2) next=d63d202327041262",
    "chain3x5/1 Dag: level=4 rank=5 psi=3fcb3b3317266844 sig=[(0, 0, 0), (1, 0, 3), (2, 3, 4)] bn=Some(2)",
    "chain4x1/0 Basic: level=0 rank=1 psi=3febaedfc680bc0f sig=[(0, 0, 0), (1, 0, 0), (2, 0, 0), (3, 0, 0)] bn=Some(2)",
    "chain4x1/0 Tradeoff: level=0 rank=1 psi=3febaedfc680bc0f sig=[(0, 0, 0), (1, 0, 0), (2, 0, 0), (3, 0, 0)] bn=Some(2)",
    "chain4x1/0 Random: level=0 rank=1 psi=3febaedfc680bc0f sig=[(0, 0, 0), (1, 0, 0), (2, 0, 0), (3, 0, 0)] bn=Some(2) next=5d481ebaedc20a67",
    "chain4x1/0 Dag: level=0 rank=1 psi=3febaedfc680bc0f sig=[(0, 0, 0), (1, 0, 0), (2, 0, 0), (3, 0, 0)] bn=Some(2)",
    "chain4x1/1 Basic: level=0 rank=1 psi=3fa9392a531904e9 sig=[(0, 0, 0), (1, 0, 0), (2, 0, 0), (3, 0, 0)] bn=Some(2)",
    "chain4x1/1 Tradeoff: level=0 rank=1 psi=3fa9392a531904e9 sig=[(0, 0, 0), (1, 0, 0), (2, 0, 0), (3, 0, 0)] bn=Some(2)",
    "chain4x1/1 Random: level=0 rank=1 psi=3fa9392a531904e9 sig=[(0, 0, 0), (1, 0, 0), (2, 0, 0), (3, 0, 0)] bn=Some(2) next=5d481ebaedc20a67",
    "chain4x1/1 Dag: level=0 rank=1 psi=3fa9392a531904e9 sig=[(0, 0, 0), (1, 0, 0), (2, 0, 0), (3, 0, 0)] bn=Some(2)",
    "chain4x2/0 Basic: NoFeasiblePlan",
    "chain4x2/0 Tradeoff: NoFeasiblePlan",
    "chain4x2/0 Random: NoFeasiblePlan next=efdb3abe2d004720",
    "chain4x2/0 Dag: NoFeasiblePlan",
    "chain4x2/1 Basic: level=1 rank=2 psi=3fc0f955f90a19e3 sig=[(0, 0, 0), (1, 0, 0), (2, 0, 0), (3, 0, 1)] bn=Some(0)",
    "chain4x2/1 Tradeoff: level=1 rank=2 psi=3fc0f955f90a19e3 sig=[(0, 0, 0), (1, 0, 0), (2, 0, 0), (3, 0, 1)] bn=Some(0)",
    "chain4x2/1 Random: level=1 rank=2 psi=3fc0f955f90a19e3 sig=[(0, 0, 0), (1, 0, 0), (2, 0, 1), (3, 1, 1)] bn=Some(0) next=5d1c1980e4d3bf09",
    "chain4x2/1 Dag: level=1 rank=2 psi=3fc0f955f90a19e3 sig=[(0, 0, 0), (1, 0, 0), (2, 0, 0), (3, 0, 1)] bn=Some(0)",
    "chain4x3/0 Basic: NoFeasiblePlan",
    "chain4x3/0 Tradeoff: NoFeasiblePlan",
    "chain4x3/0 Random: NoFeasiblePlan next=7f6ec036c3408d8e",
    "chain4x3/0 Dag: NoFeasiblePlan",
    "chain4x3/1 Basic: NoFeasiblePlan",
    "chain4x3/1 Tradeoff: NoFeasiblePlan",
    "chain4x3/1 Random: NoFeasiblePlan next=7f6ec036c3408d8e",
    "chain4x3/1 Dag: NoFeasiblePlan",
    "chain4x4/0 Basic: NoFeasiblePlan",
    "chain4x4/0 Tradeoff: NoFeasiblePlan",
    "chain4x4/0 Random: NoFeasiblePlan next=b73d33a86d6bc79e",
    "chain4x4/0 Dag: NoFeasiblePlan",
    "chain4x4/1 Basic: NoFeasiblePlan",
    "chain4x4/1 Tradeoff: NoFeasiblePlan",
    "chain4x4/1 Random: NoFeasiblePlan next=b73d33a86d6bc79e",
    "chain4x4/1 Dag: NoFeasiblePlan",
    "chain4x5/0 Basic: level=4 rank=5 psi=3fbb758710d61b70 sig=[(0, 0, 0), (1, 0, 0), (2, 0, 3), (3, 3, 4)] bn=Some(1)",
    "chain4x5/0 Tradeoff: level=4 rank=5 psi=3fbb758710d61b70 sig=[(0, 0, 0), (1, 0, 0), (2, 0, 3), (3, 3, 4)] bn=Some(1)",
    "chain4x5/0 Random: level=4 rank=5 psi=3fc0a451dba88cc0 sig=[(0, 0, 2), (1, 2, 0), (2, 0, 2), (3, 2, 4)] bn=Some(1) next=c75a7f7d4c1beb09",
    "chain4x5/0 Dag: level=4 rank=5 psi=3fbb758710d61b70 sig=[(0, 0, 0), (1, 0, 0), (2, 0, 3), (3, 3, 4)] bn=Some(1)",
    "chain4x5/1 Basic: level=4 rank=5 psi=3fb911179283bfcf sig=[(0, 0, 0), (1, 0, 2), (2, 2, 2), (3, 2, 4)] bn=Some(2)",
    "chain4x5/1 Tradeoff: level=4 rank=5 psi=3fb911179283bfcf sig=[(0, 0, 0), (1, 0, 2), (2, 2, 2), (3, 2, 4)] bn=Some(2)",
    "chain4x5/1 Random: level=4 rank=5 psi=3fc19dca2a85d5bc sig=[(0, 0, 2), (1, 2, 0), (2, 0, 2), (3, 2, 4)] bn=Some(2) next=c75a7f7d4c1beb09",
    "chain4x5/1 Dag: level=4 rank=5 psi=3fb911179283bfcf sig=[(0, 0, 0), (1, 0, 2), (2, 2, 2), (3, 2, 4)] bn=Some(2)",
    "chain5x1/0 Basic: NoFeasiblePlan",
    "chain5x1/0 Tradeoff: NoFeasiblePlan",
    "chain5x1/0 Random: NoFeasiblePlan next=480a80e9cc9d3ddb",
    "chain5x1/0 Dag: NoFeasiblePlan",
    "chain5x1/1 Basic: NoFeasiblePlan",
    "chain5x1/1 Tradeoff: NoFeasiblePlan",
    "chain5x1/1 Random: NoFeasiblePlan next=480a80e9cc9d3ddb",
    "chain5x1/1 Dag: NoFeasiblePlan",
    "chain5x2/0 Basic: NoFeasiblePlan",
    "chain5x2/0 Tradeoff: NoFeasiblePlan",
    "chain5x2/0 Random: NoFeasiblePlan next=f7c8daf8808df870",
    "chain5x2/0 Dag: NoFeasiblePlan",
    "chain5x2/1 Basic: NoFeasiblePlan",
    "chain5x2/1 Tradeoff: NoFeasiblePlan",
    "chain5x2/1 Random: NoFeasiblePlan next=f7c8daf8808df870",
    "chain5x2/1 Dag: NoFeasiblePlan",
    "chain5x3/0 Basic: NoFeasiblePlan",
    "chain5x3/0 Tradeoff: NoFeasiblePlan",
    "chain5x3/0 Random: NoFeasiblePlan next=39a214892d21cdd6",
    "chain5x3/0 Dag: NoFeasiblePlan",
    "chain5x3/1 Basic: level=2 rank=3 psi=3fb4866804f50e5d sig=[(0, 0, 0), (1, 0, 0), (2, 0, 0), (3, 0, 0), (4, 0, 2)] bn=Some(1)",
    "chain5x3/1 Tradeoff: level=2 rank=3 psi=3fb4866804f50e5d sig=[(0, 0, 0), (1, 0, 0), (2, 0, 0), (3, 0, 0), (4, 0, 2)] bn=Some(1)",
    "chain5x3/1 Random: level=2 rank=3 psi=3fb4866804f50e5d sig=[(0, 0, 0), (1, 0, 0), (2, 0, 0), (3, 0, 1), (4, 1, 2)] bn=Some(1) next=6e68befaa8a51fcd",
    "chain5x3/1 Dag: level=2 rank=3 psi=3fb4866804f50e5d sig=[(0, 0, 0), (1, 0, 0), (2, 0, 0), (3, 0, 0), (4, 0, 2)] bn=Some(1)",
    "chain5x4/0 Basic: NoFeasiblePlan",
    "chain5x4/0 Tradeoff: NoFeasiblePlan",
    "chain5x4/0 Random: NoFeasiblePlan next=b31d30effea91c48",
    "chain5x4/0 Dag: NoFeasiblePlan",
    "chain5x4/1 Basic: NoFeasiblePlan",
    "chain5x4/1 Tradeoff: NoFeasiblePlan",
    "chain5x4/1 Random: NoFeasiblePlan next=b31d30effea91c48",
    "chain5x4/1 Dag: NoFeasiblePlan",
    "chain5x5/0 Basic: level=4 rank=5 psi=3fc08b4a3fbbcc2a sig=[(0, 0, 0), (1, 0, 0), (2, 0, 1), (3, 1, 2), (4, 2, 4)] bn=Some(4)",
    "chain5x5/0 Tradeoff: level=4 rank=5 psi=3fc08b4a3fbbcc2a sig=[(0, 0, 0), (1, 0, 0), (2, 0, 1), (3, 1, 2), (4, 2, 4)] bn=Some(4)",
    "chain5x5/0 Random: level=4 rank=5 psi=3fc6d82f34bfd687 sig=[(0, 0, 2), (1, 2, 4), (2, 4, 4), (3, 4, 1), (4, 1, 4)] bn=Some(3) next=a58335590efb4c50",
    "chain5x5/0 Dag: level=4 rank=5 psi=3fc08b4a3fbbcc2a sig=[(0, 0, 0), (1, 0, 0), (2, 0, 1), (3, 1, 2), (4, 2, 4)] bn=Some(4)",
    "chain5x5/1 Basic: level=4 rank=5 psi=3fca5421bb76b781 sig=[(0, 0, 0), (1, 0, 0), (2, 0, 2), (3, 2, 4), (4, 4, 4)] bn=Some(4)",
    "chain5x5/1 Tradeoff: level=4 rank=5 psi=3fca5421bb76b781 sig=[(0, 0, 0), (1, 0, 0), (2, 0, 2), (3, 2, 4), (4, 4, 4)] bn=Some(4)",
    "chain5x5/1 Random: level=4 rank=5 psi=3fcf07ba0aa75845 sig=[(0, 0, 2), (1, 2, 4), (2, 4, 4), (3, 4, 1), (4, 1, 4)] bn=Some(4) next=a58335590efb4c50",
    "chain5x5/1 Dag: level=4 rank=5 psi=3fca5421bb76b781 sig=[(0, 0, 0), (1, 0, 0), (2, 0, 2), (3, 2, 4), (4, 4, 4)] bn=Some(4)",
    "chain6x1/0 Basic: NoFeasiblePlan",
    "chain6x1/0 Tradeoff: NoFeasiblePlan",
    "chain6x1/0 Random: NoFeasiblePlan next=f16e1d12643a227f",
    "chain6x1/0 Dag: NoFeasiblePlan",
    "chain6x1/1 Basic: level=0 rank=1 psi=3fd38d7d1348eaac sig=[(0, 0, 0), (1, 0, 0), (2, 0, 0), (3, 0, 0), (4, 0, 0), (5, 0, 0)] bn=Some(5)",
    "chain6x1/1 Tradeoff: level=0 rank=1 psi=3fd38d7d1348eaac sig=[(0, 0, 0), (1, 0, 0), (2, 0, 0), (3, 0, 0), (4, 0, 0), (5, 0, 0)] bn=Some(5)",
    "chain6x1/1 Random: level=0 rank=1 psi=3fd38d7d1348eaac sig=[(0, 0, 0), (1, 0, 0), (2, 0, 0), (3, 0, 0), (4, 0, 0), (5, 0, 0)] bn=Some(5) next=7ea98c032dfc272a",
    "chain6x1/1 Dag: level=0 rank=1 psi=3fd38d7d1348eaac sig=[(0, 0, 0), (1, 0, 0), (2, 0, 0), (3, 0, 0), (4, 0, 0), (5, 0, 0)] bn=Some(5)",
    "chain6x2/0 Basic: level=1 rank=2 psi=3fe844c5755f90ad sig=[(0, 0, 0), (1, 0, 0), (2, 0, 0), (3, 0, 1), (4, 1, 1), (5, 1, 1)] bn=Some(1)",
    "chain6x2/0 Tradeoff: level=1 rank=2 psi=3fe844c5755f90ad sig=[(0, 0, 0), (1, 0, 0), (2, 0, 0), (3, 0, 1), (4, 1, 1), (5, 1, 1)] bn=Some(1)",
    "chain6x2/0 Random: level=1 rank=2 psi=3fefde2f3f9f1b12 sig=[(0, 0, 1), (1, 1, 1), (2, 1, 0), (3, 0, 1), (4, 1, 1), (5, 1, 1)] bn=Some(1) next=dbdf89aa1fa92b1b",
    "chain6x2/0 Dag: level=1 rank=2 psi=3fe844c5755f90ad sig=[(0, 0, 0), (1, 0, 0), (2, 0, 0), (3, 0, 1), (4, 1, 1), (5, 1, 1)] bn=Some(1)",
    "chain6x2/1 Basic: NoFeasiblePlan",
    "chain6x2/1 Tradeoff: NoFeasiblePlan",
    "chain6x2/1 Random: NoFeasiblePlan next=840dc9bb08dfa5d3",
    "chain6x2/1 Dag: NoFeasiblePlan",
    "chain6x3/0 Basic: NoFeasiblePlan",
    "chain6x3/0 Tradeoff: NoFeasiblePlan",
    "chain6x3/0 Random: NoFeasiblePlan next=cbe93e3379ff863d",
    "chain6x3/0 Dag: NoFeasiblePlan",
    "chain6x3/1 Basic: NoFeasiblePlan",
    "chain6x3/1 Tradeoff: NoFeasiblePlan",
    "chain6x3/1 Random: NoFeasiblePlan next=cbe93e3379ff863d",
    "chain6x3/1 Dag: NoFeasiblePlan",
    "chain6x4/0 Basic: NoFeasiblePlan",
    "chain6x4/0 Tradeoff: NoFeasiblePlan",
    "chain6x4/0 Random: NoFeasiblePlan next=8964992678e1544a",
    "chain6x4/0 Dag: NoFeasiblePlan",
    "chain6x4/1 Basic: NoFeasiblePlan",
    "chain6x4/1 Tradeoff: NoFeasiblePlan",
    "chain6x4/1 Random: NoFeasiblePlan next=8964992678e1544a",
    "chain6x4/1 Dag: NoFeasiblePlan",
    "chain6x5/0 Basic: NoFeasiblePlan",
    "chain6x5/0 Tradeoff: NoFeasiblePlan",
    "chain6x5/0 Random: NoFeasiblePlan next=5de2dc477b1d3cf3",
    "chain6x5/0 Dag: NoFeasiblePlan",
    "chain6x5/1 Basic: level=4 rank=5 psi=3fe529e4c77ca58c sig=[(0, 0, 0), (1, 0, 2), (2, 2, 3), (3, 3, 4), (4, 4, 4), (5, 4, 4)] bn=Some(0)",
    "chain6x5/1 Tradeoff: level=4 rank=5 psi=3fe529e4c77ca58c sig=[(0, 0, 0), (1, 0, 2), (2, 2, 3), (3, 3, 4), (4, 4, 4), (5, 4, 4)] bn=Some(0)",
    "chain6x5/1 Random: level=4 rank=5 psi=3fe529e4c77ca58c sig=[(0, 0, 0), (1, 0, 1), (2, 1, 0), (3, 0, 2), (4, 2, 0), (5, 0, 4)] bn=Some(0) next=e5cc0f42bb38ac03",
    "chain6x5/1 Dag: level=4 rank=5 psi=3fe529e4c77ca58c sig=[(0, 0, 0), (1, 0, 2), (2, 2, 3), (3, 3, 4), (4, 4, 4), (5, 4, 4)] bn=Some(0)",
];

/// The outcomes of [`dag_outcome_rows`], recorded alongside
/// [`PINNED_CHAIN_OUTCOMES`].
const PINNED_DAG_OUTCOMES: &[&str] = &[
    "dag0/0 Tradeoff: NoFeasiblePlan",
    "dag0/0 Dag: NoFeasiblePlan",
    "dag0/1 Tradeoff: level=0 rank=2 psi=3fe5ab441f10b6a2 sig=[(0, 0, 1), (1, 1, 0), (2, 0, 1), (3, 0, 1), (4, 0, 2), (5, 10, 0)] bn=Some(1)",
    "dag0/1 Dag: level=0 rank=2 psi=3fe5ab441f10b6a2 sig=[(0, 0, 1), (1, 1, 0), (2, 0, 1), (3, 0, 1), (4, 0, 2), (5, 10, 0)] bn=Some(1)",
    "dag1/0 Tradeoff: level=0 rank=3 psi=3fddc5f6eb6f69bc sig=[(0, 0, 1), (1, 1, 1), (2, 1, 0), (3, 1, 1), (4, 1, 0), (5, 3, 0)] bn=Some(0)",
    "dag1/0 Dag: level=0 rank=3 psi=3fddc5f6eb6f69bc sig=[(0, 0, 1), (1, 1, 1), (2, 1, 0), (3, 1, 1), (4, 1, 0), (5, 3, 0)] bn=Some(0)",
    "dag1/1 Tradeoff: level=0 rank=3 psi=3fd03fbf90b398e3 sig=[(0, 0, 1), (1, 1, 1), (2, 1, 0), (3, 1, 1), (4, 1, 0), (5, 3, 0)] bn=Some(1)",
    "dag1/1 Dag: level=0 rank=3 psi=3fd03fbf90b398e3 sig=[(0, 0, 1), (1, 1, 1), (2, 1, 0), (3, 1, 1), (4, 1, 0), (5, 3, 0)] bn=Some(1)",
    "dag2/0 Tradeoff: NoFeasiblePlan",
    "dag2/0 Dag: NoFeasiblePlan",
    "dag2/1 Tradeoff: NoFeasiblePlan",
    "dag2/1 Dag: NoFeasiblePlan",
    "dag3/0 Tradeoff: NoFeasiblePlan",
    "dag3/0 Dag: NoFeasiblePlan",
    "dag3/1 Tradeoff: NoFeasiblePlan",
    "dag3/1 Dag: NoFeasiblePlan",
    "dag4/0 Tradeoff: level=0 rank=1 psi=3fed8b354a9b7284 sig=[(0, 0, 0), (1, 0, 2), (2, 2, 0), (3, 2, 0), (4, 0, 0)] bn=Some(2)",
    "dag4/0 Dag: level=0 rank=1 psi=3fed8b354a9b7284 sig=[(0, 0, 0), (1, 0, 2), (2, 2, 0), (3, 2, 0), (4, 0, 0)] bn=Some(2)",
    "dag4/1 Tradeoff: NoFeasiblePlan",
    "dag4/1 Dag: NoFeasiblePlan",
    "dag5/0 Tradeoff: NoFeasiblePlan",
    "dag5/0 Dag: NoFeasiblePlan",
    "dag5/1 Tradeoff: NoFeasiblePlan",
    "dag5/1 Dag: NoFeasiblePlan",
    "dag6/0 Tradeoff: NoFeasiblePlan",
    "dag6/0 Dag: NoFeasiblePlan",
    "dag6/1 Tradeoff: NoFeasiblePlan",
    "dag6/1 Dag: NoFeasiblePlan",
    "dag7/0 Tradeoff: NoFeasiblePlan",
    "dag7/0 Dag: NoFeasiblePlan",
    "dag7/1 Tradeoff: level=0 rank=1 psi=3fee9cbcb11ffe28 sig=[(0, 0, 0), (1, 0, 0), (2, 0, 0), (3, 0, 0), (4, 0, 0)] bn=Some(0)",
    "dag7/1 Dag: level=0 rank=1 psi=3fee9cbcb11ffe28 sig=[(0, 0, 0), (1, 0, 0), (2, 0, 0), (3, 0, 0), (4, 0, 0)] bn=Some(0)",
    "dag8/0 Tradeoff: level=1 rank=2 psi=3fd737dcfed9a828 sig=[(0, 0, 0), (1, 0, 1), (2, 0, 0), (3, 0, 1), (4, 5, 1), (5, 1, 1)] bn=Some(1)",
    "dag8/0 Dag: level=1 rank=2 psi=3fd737dcfed9a828 sig=[(0, 0, 0), (1, 0, 1), (2, 0, 0), (3, 0, 1), (4, 5, 1), (5, 1, 1)] bn=Some(1)",
    "dag8/1 Tradeoff: NoFeasiblePlan",
    "dag8/1 Dag: NoFeasiblePlan",
    "dag9/0 Tradeoff: NoFeasiblePlan",
    "dag9/0 Dag: NoFeasiblePlan",
    "dag9/1 Tradeoff: NoFeasiblePlan",
    "dag9/1 Dag: NoFeasiblePlan",
    "dag10/0 Tradeoff: level=1 rank=2 psi=3fd8d6d30c61555b sig=[(0, 0, 0), (1, 0, 0), (2, 0, 0), (3, 0, 1)] bn=Some(1)",
    "dag10/0 Dag: level=1 rank=2 psi=3fd8d6d30c61555b sig=[(0, 0, 0), (1, 0, 0), (2, 0, 0), (3, 0, 1)] bn=Some(1)",
    "dag10/1 Tradeoff: level=1 rank=2 psi=3fe5dfe64756e635 sig=[(0, 0, 2), (1, 2, 0), (2, 2, 0), (3, 0, 1)] bn=Some(1)",
    "dag10/1 Dag: level=1 rank=2 psi=3fe5dfe64756e635 sig=[(0, 0, 2), (1, 2, 0), (2, 2, 0), (3, 0, 1)] bn=Some(1)",
    "dag11/0 Tradeoff: NoFeasiblePlan",
    "dag11/0 Dag: NoFeasiblePlan",
    "dag11/1 Tradeoff: NoFeasiblePlan",
    "dag11/1 Dag: NoFeasiblePlan",
    "dag12/0 Tradeoff: NoFeasiblePlan",
    "dag12/0 Dag: NoFeasiblePlan",
    "dag12/1 Tradeoff: NoFeasiblePlan",
    "dag12/1 Dag: NoFeasiblePlan",
    "dag13/0 Tradeoff: NoFeasiblePlan",
    "dag13/0 Dag: NoFeasiblePlan",
    "dag13/1 Tradeoff: BacktrackFailed { sink_level: 1 }",
    "dag13/1 Dag: BacktrackFailed { sink_level: 1 }",
    "dag14/0 Tradeoff: level=1 rank=2 psi=3fd4b35ecc743e13 sig=[(0, 0, 0), (1, 0, 0), (2, 0, 0), (3, 0, 0), (4, 0, 1), (5, 1, 0), (6, 0, 1)] bn=Some(2)",
    "dag14/0 Dag: level=1 rank=2 psi=3fd4b35ecc743e13 sig=[(0, 0, 0), (1, 0, 0), (2, 0, 0), (3, 0, 0), (4, 0, 1), (5, 1, 0), (6, 0, 1)] bn=Some(2)",
    "dag14/1 Tradeoff: NoFeasiblePlan",
    "dag14/1 Dag: NoFeasiblePlan",
    "dag15/0 Tradeoff: NoFeasiblePlan",
    "dag15/0 Dag: NoFeasiblePlan",
    "dag15/1 Tradeoff: NoFeasiblePlan",
    "dag15/1 Dag: NoFeasiblePlan",
    "dag16/0 Tradeoff: level=0 rank=1 psi=3fecd1b393834ab7 sig=[(0, 0, 1), (1, 1, 0), (2, 0, 2), (3, 0, 1), (4, 0, 2), (5, 18, 0)] bn=Some(2)",
    "dag16/0 Dag: level=0 rank=1 psi=3fecd1b393834ab7 sig=[(0, 0, 1), (1, 1, 0), (2, 0, 2), (3, 0, 1), (4, 0, 2), (5, 18, 0)] bn=Some(2)",
    "dag16/1 Tradeoff: NoFeasiblePlan",
    "dag16/1 Dag: NoFeasiblePlan",
    "dag17/0 Tradeoff: level=0 rank=1 psi=3fc8f105efb0a906 sig=[(0, 0, 0), (1, 0, 0), (2, 0, 1), (3, 0, 1), (4, 0, 2), (5, 7, 0)] bn=Some(1)",
    "dag17/0 Dag: level=0 rank=1 psi=3fc8f105efb0a906 sig=[(0, 0, 0), (1, 0, 0), (2, 0, 1), (3, 0, 1), (4, 0, 2), (5, 7, 0)] bn=Some(1)",
    "dag17/1 Tradeoff: NoFeasiblePlan",
    "dag17/1 Dag: NoFeasiblePlan",
    "dag18/0 Tradeoff: level=0 rank=2 psi=3fde4ac45e055b38 sig=[(0, 0, 0), (1, 0, 0), (2, 0, 0), (3, 0, 0), (4, 0, 2), (5, 1, 0)] bn=Some(1)",
    "dag18/0 Dag: level=0 rank=2 psi=3fde4ac45e055b38 sig=[(0, 0, 0), (1, 0, 0), (2, 0, 0), (3, 0, 0), (4, 0, 2), (5, 1, 0)] bn=Some(1)",
    "dag18/1 Tradeoff: level=0 rank=2 psi=3fd55a84127cacab sig=[(0, 0, 0), (1, 0, 0), (2, 0, 0), (3, 0, 0), (4, 0, 2), (5, 1, 0)] bn=Some(0)",
    "dag18/1 Dag: level=0 rank=2 psi=3fd55a84127cacab sig=[(0, 0, 0), (1, 0, 0), (2, 0, 0), (3, 0, 0), (4, 0, 2), (5, 1, 0)] bn=Some(0)",
    "dag19/0 Tradeoff: level=0 rank=1 psi=3fdf0e40e052a72c sig=[(0, 0, 0), (1, 0, 1), (2, 0, 0), (3, 0, 0), (4, 1, 0)] bn=Some(0)",
    "dag19/0 Dag: level=0 rank=1 psi=3fdf0e40e052a72c sig=[(0, 0, 0), (1, 0, 1), (2, 0, 0), (3, 0, 0), (4, 1, 0)] bn=Some(0)",
    "dag19/1 Tradeoff: level=0 rank=1 psi=3fe068bb83ced475 sig=[(0, 0, 0), (1, 0, 0), (2, 0, 0), (3, 0, 0), (4, 0, 0)] bn=Some(0)",
    "dag19/1 Dag: level=0 rank=1 psi=3fe068bb83ced475 sig=[(0, 0, 0), (1, 0, 0), (2, 0, 0), (3, 0, 0), (4, 0, 0)] bn=Some(0)",
    "dag20/0 Tradeoff: level=0 rank=1 psi=3fd192c99b35c9b6 sig=[(0, 0, 0), (1, 0, 0), (2, 0, 0), (3, 0, 0)] bn=Some(0)",
    "dag20/0 Dag: level=0 rank=1 psi=3fd192c99b35c9b6 sig=[(0, 0, 0), (1, 0, 0), (2, 0, 0), (3, 0, 0)] bn=Some(0)",
    "dag20/1 Tradeoff: level=0 rank=1 psi=3fd73e5a4218de06 sig=[(0, 0, 0), (1, 0, 0), (2, 0, 0), (3, 0, 0)] bn=Some(0)",
    "dag20/1 Dag: level=0 rank=1 psi=3fd73e5a4218de06 sig=[(0, 0, 0), (1, 0, 0), (2, 0, 0), (3, 0, 0)] bn=Some(0)",
    "dag21/0 Tradeoff: NoFeasiblePlan",
    "dag21/0 Dag: NoFeasiblePlan",
    "dag21/1 Tradeoff: NoFeasiblePlan",
    "dag21/1 Dag: NoFeasiblePlan",
    "dag22/0 Tradeoff: NoFeasiblePlan",
    "dag22/0 Dag: NoFeasiblePlan",
    "dag22/1 Tradeoff: NoFeasiblePlan",
    "dag22/1 Dag: NoFeasiblePlan",
    "dag23/0 Tradeoff: level=2 rank=3 psi=3fcae2de02cc4782 sig=[(0, 0, 0), (1, 0, 0), (2, 0, 1), (3, 1, 2)] bn=Some(1)",
    "dag23/0 Dag: level=2 rank=3 psi=3fcae2de02cc4782 sig=[(0, 0, 0), (1, 0, 0), (2, 0, 1), (3, 1, 2)] bn=Some(1)",
    "dag23/1 Tradeoff: level=2 rank=3 psi=3fc2947df36aa57b sig=[(0, 0, 0), (1, 0, 0), (2, 0, 1), (3, 1, 2)] bn=Some(0)",
    "dag23/1 Dag: level=2 rank=3 psi=3fc2947df36aa57b sig=[(0, 0, 0), (1, 0, 0), (2, 0, 1), (3, 1, 2)] bn=Some(0)",
    "dag24/0 Tradeoff: NoFeasiblePlan",
    "dag24/0 Dag: NoFeasiblePlan",
    "dag24/1 Tradeoff: NoFeasiblePlan",
    "dag24/1 Dag: NoFeasiblePlan",
    "dag25/0 Tradeoff: NoFeasiblePlan",
    "dag25/0 Dag: NoFeasiblePlan",
    "dag25/1 Tradeoff: NoFeasiblePlan",
    "dag25/1 Dag: NoFeasiblePlan",
    "dag26/0 Tradeoff: level=0 rank=1 psi=3fde39743ed19937 sig=[(0, 0, 0), (1, 0, 1), (2, 1, 2), (3, 1, 2), (4, 1, 0), (5, 9, 1), (6, 1, 0)] bn=Some(0)",
    "dag26/0 Dag: level=0 rank=1 psi=3fde39743ed19937 sig=[(0, 0, 0), (1, 0, 1), (2, 1, 2), (3, 1, 2), (4, 1, 0), (5, 9, 1), (6, 1, 0)] bn=Some(0)",
    "dag26/1 Tradeoff: NoFeasiblePlan",
    "dag26/1 Dag: NoFeasiblePlan",
    "dag27/0 Tradeoff: level=0 rank=1 psi=3fe14192c001c85e sig=[(0, 0, 1), (1, 1, 0), (2, 1, 1), (3, 0, 0), (4, 0, 0)] bn=Some(0)",
    "dag27/0 Dag: level=0 rank=1 psi=3fe14192c001c85e sig=[(0, 0, 1), (1, 1, 0), (2, 1, 1), (3, 0, 0), (4, 0, 0)] bn=Some(0)",
    "dag27/1 Tradeoff: level=0 rank=1 psi=3fe293aca7378566 sig=[(0, 0, 1), (1, 1, 0), (2, 1, 1), (3, 0, 0), (4, 0, 0)] bn=Some(0)",
    "dag27/1 Dag: level=0 rank=1 psi=3fe293aca7378566 sig=[(0, 0, 1), (1, 1, 0), (2, 1, 1), (3, 0, 0), (4, 0, 0)] bn=Some(0)",
    "dag28/0 Tradeoff: level=2 rank=3 psi=3fdfbd1c50627a41 sig=[(0, 0, 0), (1, 0, 0), (2, 0, 0), (3, 0, 2)] bn=Some(0)",
    "dag28/0 Dag: level=2 rank=3 psi=3fdfbd1c50627a41 sig=[(0, 0, 0), (1, 0, 0), (2, 0, 0), (3, 0, 2)] bn=Some(0)",
    "dag28/1 Tradeoff: NoFeasiblePlan",
    "dag28/1 Dag: NoFeasiblePlan",
    "dag29/0 Tradeoff: level=0 rank=1 psi=3fee0e53ad7bed86 sig=[(0, 0, 0), (1, 0, 2), (2, 0, 2), (3, 0, 0), (4, 6, 0)] bn=Some(2)",
    "dag29/0 Dag: level=0 rank=1 psi=3fee0e53ad7bed86 sig=[(0, 0, 0), (1, 0, 2), (2, 0, 2), (3, 0, 0), (4, 6, 0)] bn=Some(2)",
    "dag29/1 Tradeoff: NoFeasiblePlan",
    "dag29/1 Dag: NoFeasiblePlan",
    "dag30/0 Tradeoff: NoFeasiblePlan",
    "dag30/0 Dag: NoFeasiblePlan",
    "dag30/1 Tradeoff: NoFeasiblePlan",
    "dag30/1 Dag: NoFeasiblePlan",
    "dag31/0 Tradeoff: NoFeasiblePlan",
    "dag31/0 Dag: NoFeasiblePlan",
    "dag31/1 Tradeoff: NoFeasiblePlan",
    "dag31/1 Dag: NoFeasiblePlan",
];
