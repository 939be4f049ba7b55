//! The reservation planners (§4.1.2, §4.3, and the §5 baseline).

use crate::backtrack::{backtrack_into, Assignment};
use crate::view::{CtxView, PlanWorkspace};
use crate::{PlanError, ReservationPlan};
use rand::{Rng, RngExt};

/// Which planning algorithm [`crate::PlanCtx::plan`] runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Planner {
    /// The paper's basic algorithm (§4.1.2): selects the plan that (1)
    /// achieves the highest end-to-end QoS level reachable under current
    /// availability and (2) requires the lowest percentage of bottleneck
    /// resource(s) among all feasible plans achieving it — the
    /// minimax-shortest path in the QRG. Chains only; use
    /// [`Planner::Dag`] for DAGs.
    #[default]
    Basic,
    /// Basic + the QoS/success-rate tradeoff policy of §4.3.1: if the
    /// availability trend α of the bottleneck resource at the best sink
    /// `s0` is below 1.0 (availability going down), settle for the
    /// highest-ranked sink `s` with `ψ_s ≤ α_{s0} · ψ_{s0}` instead,
    /// lowering bottleneck pressure by the ratio `1 − α_{s0}`. When no
    /// sink satisfies the bound, the plan for `s0` is returned unchanged
    /// (the paper leaves this case unspecified; falling back to the basic
    /// choice never performs worse than *basic*).
    Tradeoff,
    /// The contention-unaware baseline of §5: a random feasible path to
    /// the highest reachable end-to-end QoS level instead of the
    /// minimax-shortest one. Chains only, matching its use in the paper.
    Random,
    /// The two-pass DAG heuristic of §4.3.2. Exact on chains (where it
    /// coincides with [`Planner::Basic`]); on general DAGs it may fail to
    /// assemble a plan for a Pass-I-reachable sink, or return a plan
    /// whose bottleneck is not globally minimal — the paper's two
    /// documented limitations.
    Dag,
}

/// Highest-ranked sink level that Pass I marked reachable.
fn best_reachable_sink(view: &CtxView, dist: &[f64]) -> Option<usize> {
    view.sink_order()
        .iter()
        .copied()
        .find(|&level| dist[view.sink_node(level)].is_finite())
}

pub(crate) fn ensure_chain(view: &CtxView) -> Result<(), PlanError> {
    if view.service().graph().is_chain() {
        Ok(())
    } else {
        Err(PlanError::NotAChain)
    }
}

/// Pass II + assembly of the minimax planners ([`Planner::Basic`],
/// [`Planner::Dag`]) over a relaxed Pass-I result, fresh or repaired by
/// the delta path.
pub(crate) fn finish_minimax(
    view: &CtxView,
    dist: &[f64],
    pred: &[Option<u32>],
    work: &mut PlanWorkspace,
) -> Result<ReservationPlan, PlanError> {
    work.downgrade = None;
    let target = best_reachable_sink(view, dist).ok_or(PlanError::NoFeasiblePlan)?;
    backtrack_into(view, dist, pred, target, &mut work.bt, &mut work.asg)?;
    Ok(ReservationPlan::assemble(view, &work.asg))
}

/// Pass II + assembly of [`Planner::Tradeoff`] over a relaxed Pass-I
/// result (see [`finish_minimax`]).
pub(crate) fn finish_tradeoff(
    view: &CtxView,
    dist: &[f64],
    pred: &[Option<u32>],
    work: &mut PlanWorkspace,
) -> Result<ReservationPlan, PlanError> {
    work.downgrade = None;
    let target = best_reachable_sink(view, dist).ok_or(PlanError::NoFeasiblePlan)?;
    backtrack_into(view, dist, pred, target, &mut work.bt, &mut work.asg)?;

    // The basic plan's bottleneck (same max-ψ rule as plan assembly),
    // read straight off the assignments so the basic plan is only
    // materialized when it is the final answer.
    let mut psi0 = 0.0f64;
    let mut alpha = None;
    for a in &work.asg {
        if let Some(b) = view.edge_bottleneck(a.edge) {
            if alpha.is_none() || b.psi > psi0 {
                psi0 = b.psi;
                alpha = Some(b.alpha);
            }
        }
    }
    let Some(alpha) = alpha else {
        // No demand at all — nothing to trade.
        return Ok(ReservationPlan::assemble(view, &work.asg));
    };
    if alpha >= 1.0 {
        return Ok(ReservationPlan::assemble(view, &work.asg));
    }
    let bound = alpha * psi0;
    for &level in view.sink_order() {
        let node = view.sink_node(level);
        if dist[node].is_finite() && dist[node] <= bound {
            // A lower-pressure level exists; re-backtrack for it (reusing
            // the Pass-I result). If the DAG heuristic fails for this
            // level, keep scanning.
            match backtrack_into(view, dist, pred, level, &mut work.bt, &mut work.asg_alt) {
                Ok(()) => {
                    if level != target {
                        let ranking = view.service().sink_ranking();
                        work.downgrade = Some((ranking[target], ranking[level]));
                    }
                    return Ok(ReservationPlan::assemble(view, &work.asg_alt));
                }
                Err(_) => continue,
            }
        }
    }
    Ok(ReservationPlan::assemble(view, &work.asg))
}

/// Path walk + assembly of [`Planner::Random`] over a relaxed Pass-I
/// result (see [`finish_minimax`]). The caller has already checked
/// [`ensure_chain`].
pub(crate) fn finish_random(
    view: &CtxView,
    dist: &[f64],
    work: &mut PlanWorkspace,
    rng: &mut impl Rng,
) -> Result<ReservationPlan, PlanError> {
    work.downgrade = None;
    let target = best_reachable_sink(view, dist).ok_or(PlanError::NoFeasiblePlan)?;
    let target_node = view.sink_node(target);

    // Backward reachability to the target over feasible QRG edges.
    let reach = &mut work.reach;
    reach.clear();
    reach.resize(view.n_nodes(), false);
    reach[target_node] = true;
    for &n in view.relax_order().iter().rev() {
        if n == target_node {
            continue;
        }
        reach[n] = view
            .out_edges(n)
            .iter()
            .any(|&e| view.edge_weight(e).is_some() && reach[view.edge_endpoints(e).1]);
    }

    let mut node = view.source_node();
    debug_assert!(reach[node], "target reachable implies source can reach it");
    work.asg.clear();
    loop {
        if node == target_node {
            break;
        }
        // Reused candidates buffer: one uniform pick per step, no
        // per-step allocation.
        work.candidates.clear();
        work.candidates.extend(
            view.out_edges(node)
                .iter()
                .copied()
                .filter(|&e| view.edge_weight(e).is_some() && reach[view.edge_endpoints(e).1]),
        );
        debug_assert!(
            !work.candidates.is_empty(),
            "walk cannot dead-end inside reach set"
        );
        let e = work.candidates[rng.random_range(0..work.candidates.len())];
        if let Some((component, qin, qout)) = view.edge_pair(e) {
            work.asg.push(Assignment {
                component,
                qin,
                qout,
                edge: e,
            });
        }
        node = view.edge_endpoints(e).1;
    }
    Ok(ReservationPlan::assemble(view, &work.asg))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_fixtures::*;
    use crate::AvailabilityView;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn basic_picks_min_bottleneck_path_to_best_level() {
        let fx = ChainFixture::paper_like();
        let plan = run(&mut fx.ctx_with_avail(100.0), Planner::Basic).unwrap();
        assert_eq!(plan.sink_level, 2); // highest level "p"
        assert!((plan.psi - 0.24).abs() < 1e-12);
        // The minimax path routes through c_S level "c", not "b".
        assert_eq!(plan.signature(), vec![(0, 0, 1), (1, 1, 3), (2, 3, 2)]);
    }

    #[test]
    fn basic_degrades_to_lower_levels_as_availability_shrinks() {
        let fx = ChainFixture::paper_like();
        // 20 units: p needs >= 24 on the client link -> q is best.
        let plan = run(&mut fx.ctx_with_avail(20.0), Planner::Basic).unwrap();
        assert_eq!(plan.sink_level, 1);
        // 11 units: q needs >= 18 -> only r (needs 10) remains.
        let plan = run(&mut fx.ctx_with_avail(11.0), Planner::Basic).unwrap();
        assert_eq!(plan.sink_level, 0);
        // 3 units: nothing fits.
        assert_eq!(
            run(&mut fx.ctx_with_avail(3.0), Planner::Basic),
            Err(PlanError::NoFeasiblePlan)
        );
    }

    #[test]
    fn basic_rejects_dags_but_dag_planner_handles_them() {
        let fx = DagFixture::diamond();
        let mut ctx = fx.ctx_with_avail(100.0);
        assert_eq!(run(&mut ctx, Planner::Basic), Err(PlanError::NotAChain));
        let plan = run(&mut ctx, Planner::Dag).unwrap();
        assert_eq!(plan.sink_level, 1);
        assert!((plan.psi - 0.10).abs() < 1e-12);
    }

    #[test]
    fn dag_planner_matches_basic_on_chains() {
        let fx = ChainFixture::paper_like();
        for avail in [10.0, 20.0, 40.0, 100.0, 1000.0] {
            let mut ctx = fx.ctx_with_avail(avail);
            match (run(&mut ctx, Planner::Basic), run(&mut ctx, Planner::Dag)) {
                (Ok(a), Ok(b)) => assert_eq!(a, b, "avail {avail}"),
                (Err(a), Err(b)) => assert_eq!(a, b),
                (a, b) => panic!("mismatch at {avail}: {a:?} vs {b:?}"),
            }
        }
    }

    #[test]
    fn tradeoff_steps_down_when_trend_is_down() {
        let fx = ChainFixture::paper_like();
        // Neutral trend: identical to basic.
        let mut ctx = fx.ctx_with_avail(100.0);
        assert_eq!(
            run(&mut ctx, Planner::Tradeoff).unwrap(),
            run(&mut ctx, Planner::Basic).unwrap()
        );

        // Bottleneck (bw12) trending down: alpha 0.5.
        // basic: level p with psi .24; bound = .5*.24 = .12;
        // psi(q)=.18 > .12, psi(r)=.10 <= .12 -> tradeoff picks r.
        let mut view = AvailabilityView::new();
        for name in ["cpu0", "cpu1", "bw01"] {
            view.set(fx.space.id(name).unwrap(), 100.0);
        }
        view.set_with_alpha(fx.space.id("bw12").unwrap(), 100.0, 0.5);
        let plan = run(&mut prepared(&fx.session, &view), Planner::Tradeoff).unwrap();
        assert_eq!(plan.sink_level, 0);
        assert!((plan.psi - 0.10).abs() < 1e-12);
    }

    #[test]
    fn tradeoff_falls_back_to_basic_when_no_level_satisfies_bound() {
        let fx = ChainFixture::paper_like();
        let mut view = AvailabilityView::new();
        for name in ["cpu0", "cpu1", "bw01"] {
            view.set(fx.space.id(name).unwrap(), 100.0);
        }
        // alpha so low that even the cheapest level violates the bound:
        // bound = 0.05 * 0.24 = 0.012 < psi(r) = 0.10.
        view.set_with_alpha(fx.space.id("bw12").unwrap(), 100.0, 0.05);
        let plan = run(&mut prepared(&fx.session, &view), Planner::Tradeoff).unwrap();
        assert_eq!(plan.sink_level, 2); // the basic choice
    }

    #[test]
    fn random_reaches_best_level_but_varies_paths() {
        let fx = ChainFixture::paper_like();
        let mut ctx = fx.ctx_with_avail(100.0);
        let mut rng = StdRng::seed_from_u64(7);
        let mut signatures = std::collections::HashSet::new();
        for _ in 0..200 {
            let plan = ctx.plan(Planner::Random, &mut rng).unwrap();
            // Always the highest reachable level...
            assert_eq!(plan.sink_level, 2);
            // ...and always a feasible plan with psi within bounds.
            assert!(plan.psi >= 0.24 - 1e-12 && plan.psi <= 1.0);
            signatures.insert(plan.signature());
        }
        // The QRG has several paths to p; random must explore more than one.
        assert!(signatures.len() > 1, "random planner never varied its path");
    }

    #[test]
    fn random_is_never_better_than_basic() {
        let fx = ChainFixture::paper_like();
        let mut rng = StdRng::seed_from_u64(11);
        for avail in [15.0, 25.0, 60.0, 100.0] {
            let mut ctx = fx.ctx_with_avail(avail);
            if let Ok(basic) = run(&mut ctx, Planner::Basic) {
                for _ in 0..50 {
                    let r = ctx.plan(Planner::Random, &mut rng).unwrap();
                    assert_eq!(r.sink_level, basic.sink_level);
                    assert!(r.psi >= basic.psi - 1e-12);
                }
            }
        }
    }

    #[test]
    fn planner_enum_dispatches() {
        let fx = ChainFixture::paper_like();
        let mut ctx = fx.ctx_with_avail(100.0);
        let mut rng = StdRng::seed_from_u64(3);
        for p in [
            Planner::Basic,
            Planner::Tradeoff,
            Planner::Random,
            Planner::Dag,
        ] {
            let plan = ctx.plan(p, &mut rng).unwrap();
            assert_eq!(plan.sink_level, 2);
        }
    }
}

#[cfg(test)]
mod edge_case_tests {
    use super::*;
    use crate::test_fixtures::{prepared, run};
    use crate::AvailabilityView;
    use qosr_model::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::sync::Arc;

    fn single_component_session(
        demands: &[(usize, f64)], // (qout, amount); one input level
        n_out: usize,
    ) -> (SessionInstance, ResourceSpace) {
        let schema = QosSchema::new("q", ["x"]);
        let v = |x: u32| QosVector::new(schema.clone(), [x]);
        let mut b = TableTranslation::builder(1, n_out, 1);
        for &(o, d) in demands {
            b = b.entry(0, o, [d]);
        }
        let comp = ComponentSpec::new(
            "only",
            vec![v(0)],
            (1..=n_out as u32).map(v).collect(),
            vec![SlotSpec::new("s", ResourceKind::Compute)],
            Arc::new(b.build()),
        );
        let service =
            Arc::new(ServiceSpec::chain("svc", vec![comp], (1..=n_out as u32).collect()).unwrap());
        let mut space = ResourceSpace::new();
        let rid = space.register("r", ResourceKind::Compute);
        let session =
            SessionInstance::new(service, vec![ComponentBinding::new([rid])], 1.0).unwrap();
        (session, space)
    }

    #[test]
    fn single_component_service_plans() {
        let (session, space) = single_component_session(&[(0, 10.0), (1, 90.0)], 2);
        let view = AvailabilityView::from_fn(space.ids(), |_| 100.0);
        let mut ctx = prepared(&session, &view);
        let mut rng = StdRng::seed_from_u64(1);
        for planner in [
            Planner::Basic,
            Planner::Tradeoff,
            Planner::Random,
            Planner::Dag,
        ] {
            let plan = ctx.plan(planner, &mut rng).unwrap();
            assert_eq!(plan.sink_level, 1);
            assert_eq!(plan.assignments.len(), 1);
            assert!((plan.psi - 0.9).abs() < 1e-12);
        }
    }

    #[test]
    fn zero_demand_translation_yields_weightless_edge() {
        // A translation entry whose demands are all zero: the pair is
        // feasible, the edge weight is 0, and the plan has no bottleneck.
        let (session, space) = single_component_session(&[(0, 0.0)], 1);
        let view = AvailabilityView::from_fn(space.ids(), |_| 100.0);
        let mut ctx = prepared(&session, &view);
        assert_eq!(ctx.candidates().filter(|c| c.feasible).count(), 1);
        let plan = run(&mut ctx, Planner::Basic).unwrap();
        assert_eq!(plan.psi, 0.0);
        assert!(plan.bottleneck.is_none());
        assert!(plan.total_demand().is_empty());
        // Tradeoff has nothing to trade without a bottleneck.
        assert_eq!(run(&mut ctx, Planner::Tradeoff).unwrap(), plan);
    }

    #[test]
    fn demand_equal_to_availability_is_feasible_at_psi_one() {
        let (session, space) = single_component_session(&[(0, 100.0)], 1);
        let view = AvailabilityView::from_fn(space.ids(), |_| 100.0);
        let plan = run(&mut prepared(&session, &view), Planner::Basic).unwrap();
        assert_eq!(plan.psi, 1.0);
        // One unit less and it is infeasible.
        let view = AvailabilityView::from_fn(space.ids(), |_| 99.999);
        assert_eq!(
            run(&mut prepared(&session, &view), Planner::Basic),
            Err(PlanError::NoFeasiblePlan)
        );
    }

    #[test]
    fn best_ranked_sink_wins_even_at_higher_psi() {
        // Level 2 requires far more pressure than level 1; the algorithm
        // is greedy on QoS first (paper: highest possible level, then
        // min bottleneck).
        let (session, space) = single_component_session(&[(0, 1.0), (1, 99.0)], 2);
        let view = AvailabilityView::from_fn(space.ids(), |_| 100.0);
        let plan = run(&mut prepared(&session, &view), Planner::Basic).unwrap();
        assert_eq!(plan.sink_level, 1);
        assert!((plan.psi - 0.99).abs() < 1e-12);
    }

    #[test]
    fn ranking_permutation_changes_the_chosen_sink() {
        // Same table, inverted ranking: the planner must follow the
        // user's linear order, not the level index.
        let schema = QosSchema::new("q", ["x"]);
        let v = |x: u32| QosVector::new(schema.clone(), [x]);
        let comp = ComponentSpec::new(
            "only",
            vec![v(0)],
            vec![v(1), v(2)],
            vec![SlotSpec::new("s", ResourceKind::Compute)],
            Arc::new(
                TableTranslation::builder(1, 2, 1)
                    .entry(0, 0, [10.0])
                    .entry(0, 1, [20.0])
                    .build(),
            ),
        );
        // Rank level 0 best.
        let service = Arc::new(ServiceSpec::chain("svc", vec![comp], vec![2, 1]).unwrap());
        let mut space = ResourceSpace::new();
        let rid = space.register("r", ResourceKind::Compute);
        let session =
            SessionInstance::new(service, vec![ComponentBinding::new([rid])], 1.0).unwrap();
        let view = AvailabilityView::from_fn(space.ids(), |_| 100.0);
        let plan = run(&mut prepared(&session, &view), Planner::Basic).unwrap();
        assert_eq!(plan.sink_level, 0);
        assert_eq!(plan.rank, 2);
    }
}
