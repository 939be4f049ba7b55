//! Property-based verification of the planners against a brute-force
//! oracle.
//!
//! Random chain services (random level counts, partial translation
//! tables, shared resources, fat scales, random availability) are
//! planned both by the library and by exhaustive path enumeration. The
//! paper's specification (§4.1.2) is checked exactly:
//!
//! * the selected sink is the highest-ranked reachable end-to-end level;
//! * the selected plan's bottleneck Ψ equals the minimum over all
//!   feasible paths to that sink;
//! * when no path is feasible, the planner reports `NoFeasiblePlan`;
//! * the DAG heuristic coincides with the basic planner on chains;
//! * the random planner reaches the same sink with Ψ no better than
//!   basic's;
//! * the tradeoff planner equals basic under neutral availability trends
//!   and never outranks basic otherwise.

use proptest::prelude::*;
use qosr::core::{AvailabilityView, PlanCtx, PlanError, Planner, QrgOptions};
use qosr::model::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::sync::Arc;

/// A randomly generated chain scenario.
struct Scenario {
    session: SessionInstance,
    space: ResourceSpace,
    avail: Vec<f64>,
    alphas: Vec<f64>,
}

fn generate(seed: u64, k: usize, max_q: usize, shared_resources: bool) -> Scenario {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut space = ResourceSpace::new();
    let n_resources = if shared_resources {
        rng.random_range(1..=3)
    } else {
        k * 2
    };
    let rids: Vec<ResourceId> = (0..n_resources)
        .map(|i| space.register(format!("r{i}"), ResourceKind::Compute))
        .collect();

    let schemas: Vec<_> = (0..=k)
        .map(|i| QosSchema::new(format!("s{i}"), ["g"]))
        .collect();
    let mut components = Vec::new();
    let mut bindings = Vec::new();
    let mut prev_out = 1usize; // source input level count
    for c in 0..k {
        let n_in = if c == 0 { 1 } else { prev_out };
        let n_out = rng.random_range(1..=max_q);
        let n_slots = rng.random_range(1..=2usize);
        let mut builder = TableTranslation::builder(n_in, n_out, n_slots);
        let mut any = false;
        for i in 0..n_in {
            for o in 0..n_out {
                if rng.random::<f64>() < 0.75 {
                    let demand: Vec<f64> =
                        (0..n_slots).map(|_| rng.random_range(1.0..=40.0)).collect();
                    builder = builder.entry(i, o, demand);
                    any = true;
                }
            }
        }
        if !any {
            // Guarantee at least one entry so the table is never fully
            // empty (a fully empty table is legal but trivially
            // infeasible; we cover infeasibility via availability).
            builder = builder.entry(0, 0, vec![5.0; n_slots]);
        }
        let levels = |s: &Arc<QosSchema>, n: usize| -> Vec<QosVector> {
            (1..=n as u32)
                .map(|x| QosVector::new(s.clone(), [x]))
                .collect()
        };
        let slots: Vec<SlotSpec> = (0..n_slots)
            .map(|s| SlotSpec::new(format!("slot{s}"), ResourceKind::Compute))
            .collect();
        components.push(ComponentSpec::new(
            format!("c{c}"),
            levels(&schemas[c], n_in),
            levels(&schemas[c + 1], n_out),
            slots,
            Arc::new(builder.build()),
        ));
        bindings.push(ComponentBinding::new(
            (0..n_slots)
                .map(|_| rids[rng.random_range(0..rids.len())])
                .collect::<Vec<_>>(),
        ));
        prev_out = n_out;
    }
    // Random strict ranking of the sink levels.
    let mut ranking: Vec<u32> = (1..=prev_out as u32).collect();
    for i in (1..ranking.len()).rev() {
        let j = rng.random_range(0..=i);
        ranking.swap(i, j);
    }
    let service = Arc::new(
        ServiceSpec::chain("prop", components, ranking).expect("generated chain is valid"),
    );
    let scale = [1.0, 2.0, 10.0][rng.random_range(0..3usize)];
    let session = SessionInstance::new(service, bindings, scale).unwrap();
    let avail: Vec<f64> = (0..n_resources)
        .map(|_| rng.random_range(5.0..=120.0))
        .collect();
    let alphas: Vec<f64> = (0..n_resources)
        .map(|_| rng.random_range(0.3..=1.4))
        .collect();
    Scenario {
        session,
        space,
        avail,
        alphas,
    }
}

/// A context prepared for `s` under `view` with `options`.
fn prepared(s: &Scenario, view: &AvailabilityView, options: &QrgOptions) -> PlanCtx {
    let mut ctx = PlanCtx::new();
    ctx.prepare(&s.session, view, options);
    ctx
}

/// An RNG for the planners that never read it.
fn unused_rng() -> StdRng {
    StdRng::seed_from_u64(0)
}

fn view_of(s: &Scenario, with_alpha: bool) -> AvailabilityView {
    let mut view = AvailabilityView::new();
    for (i, rid) in s.space.ids().enumerate() {
        if with_alpha {
            view.set_with_alpha(rid, s.avail[i], s.alphas[i]);
        } else {
            view.set(rid, s.avail[i]);
        }
    }
    view
}

/// Exhaustive oracle: enumerates every source→sink path of a chain,
/// returning `(best sink level, min Ψ among paths to it)`.
fn oracle(s: &Scenario, view: &AvailabilityView) -> Option<(usize, f64)> {
    let service = s.session.service();
    let k = service.components().len();
    // feasible[c] = list of (qin, qout, psi) edges under `view`.
    let mut feasible: Vec<Vec<(usize, usize, f64)>> = Vec::with_capacity(k);
    for c in 0..k {
        let comp = service.component(c);
        let mut edges = Vec::new();
        for i in 0..comp.input_levels().len() {
            for o in 0..comp.output_levels().len() {
                let Some(demand) = s.session.demand(c, i, o) else {
                    continue;
                };
                if !demand.iter().all(|(rid, req)| req <= view.avail(rid)) {
                    continue;
                }
                let psi = demand
                    .max_ratio_over(|rid| view.avail(rid))
                    .map_or(0.0, |(_, p)| p);
                edges.push((i, o, psi));
            }
        }
        feasible.push(edges);
    }
    // DFS over per-component edge choices with matching levels.
    let mut best: Option<(u32, usize, f64)> = None; // (rank, level, psi)
    fn dfs(
        c: usize,
        qin: usize,
        psi: f64,
        feasible: &[Vec<(usize, usize, f64)>],
        service: &ServiceSpec,
        best: &mut Option<(u32, usize, f64)>,
    ) {
        if c == feasible.len() {
            // qin is the sink's chosen output level here.
            let level = qin;
            let rank = service.sink_ranking()[level];
            let better = match *best {
                None => true,
                Some((br, bl, bp)) => rank > br || (rank == br && bl == level && psi < bp),
            };
            // Note: paths to a *different* lower-ranked level never beat
            // a higher rank; equal rank implies same level (ranks are
            // strict).
            if better {
                *best = Some((rank, level, psi));
            }
            return;
        }
        for &(i, o, epsi) in &feasible[c] {
            if i == qin {
                dfs(c + 1, o, psi.max(epsi), feasible, service, best);
            }
        }
    }
    dfs(0, 0, 0.0, &feasible, service, &mut best);
    best.map(|(_, level, psi)| (level, psi))
}

fn check_plan_consistency(
    s: &Scenario,
    view: &AvailabilityView,
    plan: &qosr::core::ReservationPlan,
) {
    let service = s.session.service();
    let k = service.components().len();
    assert_eq!(plan.assignments.len(), k);
    for (c, a) in plan.assignments.iter().enumerate() {
        assert_eq!(a.component, c);
        // Demand matches the translation function through the binding.
        let expected = s.session.demand(c, a.qin, a.qout).expect("pair feasible");
        assert_eq!(a.demand, expected);
        // Per-edge feasibility against the snapshot.
        assert!(a.demand.iter().all(|(rid, req)| req <= view.avail(rid)));
        // Equivalence along the chain.
        if c > 0 {
            assert_eq!(
                service.link(c, a.qin),
                &[plan.assignments[c - 1].qout],
                "equivalence broken at component {c}"
            );
        }
    }
    assert_eq!(plan.rank, service.sink_ranking()[plan.sink_level]);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases_from_env(256))]

    #[test]
    fn basic_matches_bruteforce_oracle(seed in any::<u64>(), k in 1usize..=4, q in 1usize..=4, shared in any::<bool>()) {
        let s = generate(seed, k, q, shared);
        let view = view_of(&s, false);
        let basic = prepared(&s, &view, &QrgOptions::default()).plan(Planner::Basic, &mut unused_rng());
        match (basic, oracle(&s, &view)) {
            (Ok(plan), Some((level, psi))) => {
                prop_assert_eq!(plan.sink_level, level, "sink level mismatch");
                prop_assert!((plan.psi - psi).abs() < 1e-9,
                    "psi {} != oracle {}", plan.psi, psi);
                check_plan_consistency(&s, &view, &plan);
            }
            (Err(PlanError::NoFeasiblePlan), None) => {}
            (got, want) => prop_assert!(false, "planner {:?} vs oracle {:?}", got.map(|p| (p.sink_level, p.psi)), want),
        }
    }

    #[test]
    fn dag_heuristic_equals_basic_on_chains(seed in any::<u64>(), k in 1usize..=4, q in 1usize..=4) {
        let s = generate(seed, k, q, true);
        let view = view_of(&s, false);
        let mut ctx = prepared(&s, &view, &QrgOptions::default());
        match (ctx.plan(Planner::Basic, &mut unused_rng()), ctx.plan(Planner::Dag, &mut unused_rng())) {
            (Ok(a), Ok(b)) => prop_assert_eq!(a, b),
            (Err(a), Err(b)) => prop_assert_eq!(a, b),
            (a, b) => prop_assert!(false, "{a:?} vs {b:?}"),
        }
    }

    #[test]
    fn random_planner_reaches_best_sink_never_beats_basic(seed in any::<u64>(), k in 1usize..=4, q in 1usize..=4) {
        let s = generate(seed, k, q, false);
        let view = view_of(&s, false);
        let mut ctx = prepared(&s, &view, &QrgOptions::default());
        let mut rng = StdRng::seed_from_u64(seed ^ 0xdead);
        match (ctx.plan(Planner::Basic, &mut unused_rng()), ctx.plan(Planner::Random, &mut rng)) {
            (Ok(basic), Ok(random)) => {
                prop_assert_eq!(basic.sink_level, random.sink_level);
                prop_assert!(random.psi >= basic.psi - 1e-9);
                check_plan_consistency(&s, &view, &random);
            }
            (Err(a), Err(b)) => prop_assert_eq!(a, b),
            (a, b) => prop_assert!(false, "{a:?} vs {b:?}"),
        }
    }

    #[test]
    fn tradeoff_neutral_trend_equals_basic(seed in any::<u64>(), k in 1usize..=4, q in 1usize..=4) {
        let s = generate(seed, k, q, true);
        let view = view_of(&s, false); // all alphas 1.0
        let mut ctx = prepared(&s, &view, &QrgOptions::default());
        match (ctx.plan(Planner::Basic, &mut unused_rng()), ctx.plan(Planner::Tradeoff, &mut unused_rng())) {
            (Ok(a), Ok(b)) => prop_assert_eq!(a, b),
            (Err(a), Err(b)) => prop_assert_eq!(a, b),
            (a, b) => prop_assert!(false, "{a:?} vs {b:?}"),
        }
    }

    #[test]
    fn tradeoff_never_outranks_basic_and_respects_bound(seed in any::<u64>(), k in 1usize..=4, q in 1usize..=4) {
        let s = generate(seed, k, q, true);
        let view = view_of(&s, true); // random alphas
        let mut ctx = prepared(&s, &view, &QrgOptions::default());
        match (ctx.plan(Planner::Basic, &mut unused_rng()), ctx.plan(Planner::Tradeoff, &mut unused_rng())) {
            (Ok(basic), Ok(tradeoff)) => {
                prop_assert!(tradeoff.rank <= basic.rank);
                check_plan_consistency(&s, &view, &tradeoff);
                // If it stepped down, the chosen plan's bottleneck must
                // satisfy the paper's bound psi_s <= alpha_s0 * psi_s0.
                if tradeoff.rank < basic.rank {
                    let alpha0 = basic.bottleneck.map_or(1.0, |b| b.alpha);
                    prop_assert!(alpha0 < 1.0, "stepped down without a down trend");
                    prop_assert!(tradeoff.psi <= alpha0 * basic.psi + 1e-9);
                }
            }
            (Err(a), Err(b)) => prop_assert_eq!(a, b),
            (a, b) => prop_assert!(false, "{a:?} vs {b:?}"),
        }
    }

    #[test]
    fn plans_are_invariant_to_psi_monotone_redefinition_at_sink_choice(seed in any::<u64>(), k in 1usize..=3, q in 1usize..=3) {
        // The reachable sink set (and hence the chosen level) depends
        // only on edge existence, not on the psi definition.
        let s = generate(seed, k, q, true);
        let view = view_of(&s, false);
        let base = prepared(&s, &view, &QrgOptions::default()).plan(Planner::Basic, &mut unused_rng());
        for psi in [qosr::core::PsiDef::Headroom, qosr::core::PsiDef::NegLogSurvival] {
            let mut alt = prepared(&s, &view, &QrgOptions { psi, ..QrgOptions::default() });
            match (&base, alt.plan(Planner::Basic, &mut unused_rng())) {
                (Ok(a), Ok(b)) => prop_assert_eq!(a.sink_level, b.sink_level),
                (Err(a), Err(b)) => prop_assert_eq!(a, &b),
                (a, b) => prop_assert!(false, "{a:?} vs {b:?}"),
            }
        }
    }
}
