//! Property-based verification of the two-pass DAG heuristic (§4.3.2)
//! against the exhaustive embedded-graph oracle.
//!
//! The heuristic has two *documented* limitations — it may fail to
//! assemble a plan for a Pass-I-reachable sink, and its plan may not
//! have the globally minimal bottleneck index. These tests pin down
//! exactly what **is** guaranteed:
//!
//! * a returned plan is always a *valid*, *feasible* embedded graph;
//! * its sink level is the oracle-optimal one (Pass-I reachability
//!   over-approximates embeddability, and success at the Pass-I-best
//!   sink produces an embedding, squeezing it to the optimum);
//! * its `Ψ_G` is never below the oracle minimum for that sink;
//! * `NoFeasiblePlan` is returned only when the oracle also finds no
//!   embedding at all.

use proptest::prelude::*;
use qosr::core::{AvailabilityView, PlanCtx, PlanError, Planner, QrgOptions, ReservationPlan};
use qosr::model::SessionInstance;
use qosr_bench::oracle::{best_embedding, enumerate_embeddings};
use qosr_bench::synth::random_dag_scenario;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The DAG heuristic's plan for `session` under `view`.
fn dag_plan(
    session: &SessionInstance,
    view: &AvailabilityView,
) -> Result<ReservationPlan, PlanError> {
    // The DAG heuristic never reads the RNG.
    let mut rng = StdRng::seed_from_u64(0);
    PlanCtx::new().plan_session(
        session,
        view,
        &QrgOptions::default(),
        Planner::Dag,
        &mut rng,
    )
}

fn view_for(space: &qosr::model::ResourceSpace, avail: &[f64]) -> AvailabilityView {
    let mut view = AvailabilityView::new();
    for (i, rid) in space.ids().enumerate() {
        view.set(rid, avail[i]);
    }
    view
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases_from_env(300))]

    #[test]
    fn heuristic_plans_are_valid_optimal_rank_embeddings(seed in any::<u64>()) {
        let (session, space, avail) = random_dag_scenario(seed);
        let view = view_for(&space, &avail);
        let service = session.service();
        let oracle_best = best_embedding(&session, &view);

        match dag_plan(&session, &view) {
            Ok(plan) => {
                // The plan is a consistent embedded graph…
                let graph = service.graph();
                for (v, a) in plan.assignments.iter().enumerate() {
                    if graph.preds(v).is_empty() {
                        continue;
                    }
                    let link = service.link(v, a.qin);
                    for (pos, &u) in graph.preds(v).iter().enumerate() {
                        prop_assert_eq!(
                            link[pos],
                            plan.assignments[u].qout,
                            "dependency edge {}->{} broken", u, v
                        );
                    }
                }
                // …whose demands all fit the snapshot…
                for a in &plan.assignments {
                    prop_assert!(a.demand.iter().all(|(rid, req)| req <= view.avail(rid)));
                }
                // …at the oracle-optimal sink level…
                let best = oracle_best.expect("a returned plan implies an embedding exists");
                prop_assert_eq!(plan.sink_level, best.sink_level,
                    "heuristic rank differs from oracle");
                // …with Ψ_G bounded below by the oracle optimum.
                prop_assert!(plan.psi >= best.psi - 1e-9,
                    "heuristic beat the exhaustive optimum?!");
            }
            Err(PlanError::NoFeasiblePlan) => {
                prop_assert!(
                    enumerate_embeddings(&session, &view).is_empty(),
                    "planner said infeasible but the oracle found an embedding"
                );
            }
            Err(PlanError::BacktrackFailed { .. }) => {
                // Documented limitation (1): Pass II gave up. The oracle
                // may or may not have an embedding; nothing to assert
                // beyond the error being the documented one.
            }
            Err(e) => prop_assert!(false, "unexpected error {e:?}"),
        }
    }

    /// Chains produced by degenerate DAG parameters must never hit the
    /// heuristic's limitations: where the dependency graph is a chain,
    /// the DAG planner is exact.
    #[test]
    fn heuristic_is_exact_when_the_dag_degenerates(seed in any::<u64>()) {
        let (session, space, avail) = random_dag_scenario(seed);
        if !session.service().graph().is_chain() {
            // Only exercise the degenerate case here; the general case
            // is covered above.
            return Ok(());
        }
        let view = view_for(&space, &avail);
        match (dag_plan(&session, &view), best_embedding(&session, &view)) {
            (Ok(plan), Some(best)) => {
                prop_assert_eq!(plan.sink_level, best.sink_level);
                prop_assert!((plan.psi - best.psi).abs() < 1e-9);
            }
            (Err(PlanError::NoFeasiblePlan), None) => {}
            (a, b) => prop_assert!(false, "{:?} vs {:?}", a.map(|p| p.sink_level), b.map(|e| e.sink_level)),
        }
    }
}

/// Deterministic regression sweep: over a fixed block of seeds, count
/// how the heuristic fares. Guards against silent regressions in the
/// success/failure profile (these exact numbers are also reported by the
/// `experiments dagquality` harness).
#[test]
fn heuristic_quality_profile_is_stable() {
    let mut success = 0u32;
    let mut spurious_failure = 0u32; // backtrack failed, embedding existed
    let mut true_failure = 0u32;
    let mut infeasible = 0u32;
    let mut suboptimal_psi = 0u32;
    for seed in 0..400u64 {
        let (session, space, avail) = random_dag_scenario(seed);
        let view = view_for(&space, &avail);
        match dag_plan(&session, &view) {
            Ok(plan) => {
                success += 1;
                let best = best_embedding(&session, &view).unwrap();
                if plan.psi > best.psi + 1e-9 {
                    suboptimal_psi += 1;
                }
            }
            Err(PlanError::BacktrackFailed { .. }) => {
                if best_embedding(&session, &view).is_some() {
                    spurious_failure += 1;
                } else {
                    true_failure += 1;
                }
            }
            Err(PlanError::NoFeasiblePlan) => infeasible += 1,
            Err(e) => panic!("unexpected {e}"),
        }
    }
    // The generator deliberately produces many infeasible scenarios
    // (sparse tables); among the rest, the heuristic's failure modes
    // must stay rare (the paper presents them as corner cases). The
    // reference profile for seeds 0..400 is success=150,
    // backtrack_failed=16 (thereof spurious: most), infeasible=234,
    // suboptimal=8.
    assert!(success >= 120, "only {success}/400 planned");
    assert!(
        infeasible <= 300,
        "generator degenerated: {infeasible} infeasible"
    );
    assert!(
        spurious_failure + true_failure <= 40,
        "too many backtrack failures: {spurious_failure} spurious + {true_failure} true"
    );
    // Suboptimal-Ψ plans are allowed but must be the clear minority.
    assert!(
        suboptimal_psi * 3 <= success,
        "{suboptimal_psi}/{success} plans had non-minimal Ψ_G"
    );
}
