//! Numeric replication of the paper's figure-8 walkthrough of Pass II's
//! fan-out non-convergence resolution (§4.3.2).
//!
//! Setup (figure 6's DAG): `c1 → c2 → {c3, c4} → c5`, fan-out at `c2`,
//! fan-in at `c5`. After Pass I, backtracking fixes `c3`'s output `Qn`
//! and `c4`'s output `Qp`, but the branches' Pass-I predecessors pull
//! `c2` toward *different* output nodes. The paper resolves locally:
//!
//! > "for `Qi` to reach `Qn` and `Qp`, the highest Ψe is **0.30**; while
//! > for `Qh` to reach `Qn` and `Qp`, the highest Ψe is **0.35**" — so
//! > `Qi` is selected.
//!
//! We build a QRG whose relevant edges carry exactly those contention
//! indices (demands against availability 100) and assert the resolution.

use qosr::core::{AvailabilityView, NodeRef, PlanCtx, Planner, QrgOptions};
use qosr::model::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

fn build() -> (SessionInstance, ResourceSpace) {
    let src = QosSchema::new("src", ["q"]);
    let s1 = QosSchema::new("c1.out", ["q"]);
    let s2 = QosSchema::new("c2.out", ["q"]);
    let s3 = QosSchema::new("c3.out", ["q"]);
    let s4 = QosSchema::new("c4.out", ["q"]);
    let s5 = QosSchema::new("c5.out", ["q"]);
    let v = |s: &Arc<QosSchema>, x: u32| QosVector::new(s.clone(), [x]);

    let mut space = ResourceSpace::new();
    let r: Vec<ResourceId> = (0..5)
        .map(|i| space.register(format!("r{i}"), ResourceKind::Compute))
        .collect();

    // c1: single output level feeding c2.
    let c1 = ComponentSpec::new(
        "c1",
        vec![v(&src, 0)],
        vec![v(&s1, 1)],
        vec![SlotSpec::new("cpu", ResourceKind::Compute)],
        Arc::new(
            TableTranslation::builder(1, 1, 1)
                .entry(0, 0, [5.0])
                .build(),
        ),
    );
    // c2 (fan-out): outputs Qh (index 0) and Qi (index 1).
    // Pass-I distances: dist(Qh) = 0.10, dist(Qi) = 0.15.
    let c2 = ComponentSpec::new(
        "c2",
        vec![v(&s1, 1)],
        vec![v(&s2, 1), v(&s2, 2)], // Qh, Qi
        vec![SlotSpec::new("cpu", ResourceKind::Compute)],
        Arc::new(
            TableTranslation::builder(1, 2, 1)
                .entry(0, 0, [10.0]) // -> Qh at psi 0.10
                .entry(0, 1, [15.0]) // -> Qi at psi 0.15
                .build(),
        ),
    );
    // c3: single output Qn. From Qh it costs psi 0.35; from Qi, 0.30 —
    // the paper's numbers.
    let c3 = ComponentSpec::new(
        "c3",
        vec![v(&s2, 1), v(&s2, 2)],
        vec![v(&s3, 1)], // Qn
        vec![SlotSpec::new("cpu", ResourceKind::Compute)],
        Arc::new(
            TableTranslation::builder(2, 1, 1)
                .entry(0, 0, [35.0]) // Qh -> Qn : 0.35
                .entry(1, 0, [30.0]) // Qi -> Qn : 0.30
                .build(),
        ),
    );
    // c4: single output Qp. From Qh: 0.20 (tempting Pass I); from Qi: 0.25.
    let c4 = ComponentSpec::new(
        "c4",
        vec![v(&s2, 1), v(&s2, 2)],
        vec![v(&s4, 1)], // Qp
        vec![SlotSpec::new("cpu", ResourceKind::Compute)],
        Arc::new(
            TableTranslation::builder(2, 1, 1)
                .entry(0, 0, [20.0]) // Qh -> Qp : 0.20
                .entry(1, 0, [25.0]) // Qi -> Qp : 0.25
                .build(),
        ),
    );
    // c5 (fan-in): its input Qr is the concatenation of (Qn, Qp).
    let c5 = ComponentSpec::new(
        "c5",
        vec![QosVector::concat([&v(&s3, 1), &v(&s4, 1)])],
        vec![v(&s5, 1)], // Qv
        vec![SlotSpec::new("cpu", ResourceKind::Compute)],
        Arc::new(
            TableTranslation::builder(1, 1, 1)
                .entry(0, 0, [8.0])
                .build(),
        ),
    );

    let graph = DependencyGraph::new(5, vec![(0, 1), (1, 2), (1, 3), (2, 4), (3, 4)]).unwrap();
    let service =
        Arc::new(ServiceSpec::new("figure6", vec![c1, c2, c3, c4, c5], graph, vec![1]).unwrap());
    let session = SessionInstance::new(
        service,
        r.iter().map(|&rid| ComponentBinding::new([rid])).collect(),
        1.0,
    )
    .unwrap();
    (session, space)
}

/// A context prepared for the figure-6 session with every resource at
/// availability 100.
fn prepared() -> (PlanCtx, ResourceSpace) {
    let (session, space) = build();
    let view = AvailabilityView::from_fn(space.ids(), |_| 100.0);
    let mut ctx = PlanCtx::new();
    ctx.prepare(&session, &view, &QrgOptions::default());
    (ctx, space)
}

fn out(component: usize, level: usize) -> NodeRef {
    NodeRef::Out { component, level }
}

#[test]
fn pass_one_creates_the_non_convergence() {
    let (mut ctx, _) = prepared();

    // Branch distances as designed.
    assert!((ctx.minimax(out(1, 0)).0 - 0.10).abs() < 1e-12); // Qh
    assert!((ctx.minimax(out(1, 1)).0 - 0.15).abs() < 1e-12); // Qi

    // c3's best route to Qn goes through Qi (0.30 beats 0.35)…
    let (psi_c3, from_c3) = ctx.minimax(out(2, 0));
    assert_eq!(from_c3, Some(1));
    assert!((psi_c3 - 0.30).abs() < 1e-12);
    // …while c4's goes through Qh (0.20 beats 0.25): non-convergence.
    let (psi_c4, from_c4) = ctx.minimax(out(3, 0));
    assert_eq!(from_c4, Some(0));
    assert!((psi_c4 - 0.20).abs() < 1e-12);
    // Fan-in takes the max of the branches: dist(Qr) = 0.30.
    let qr = NodeRef::In {
        component: 4,
        level: 0,
    };
    assert!((ctx.minimax(qr).0 - 0.30).abs() < 1e-12);
}

#[test]
fn pass_two_resolves_to_qi_exactly_like_the_paper() {
    let (mut ctx, space) = prepared();
    // The DAG heuristic never reads the RNG.
    let plan = ctx
        .plan(Planner::Dag, &mut StdRng::seed_from_u64(0))
        .unwrap();

    // The paper: Qi is selected (highest Ψe to reach {Qn, Qp} is 0.30,
    // vs 0.35 via Qh).
    assert_eq!(plan.assignments[1].qout, 1, "c2 must select Qi");
    // Both branches re-point their inputs at Qi.
    assert_eq!(plan.assignments[2].qin, 1);
    assert_eq!(plan.assignments[3].qin, 1);
    // The embedded graph's bottleneck is the c3 edge Qi->Qn at 0.30.
    assert!((plan.psi - 0.30).abs() < 1e-12);
    let b = plan.bottleneck.unwrap();
    assert_eq!(b.resource, space.id("r2").unwrap());

    // Had the resolution picked Qh instead, Ψ_G would have been 0.35 —
    // the heuristic's local choice is the better one here, as in the
    // paper's example.
}
