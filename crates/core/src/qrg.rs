//! Tests of the QoS-Resource Graph as §4.1.1 defines it — nodes, edges,
//! weights and the DOT rendering — read through a prepared [`PlanCtx`]
//! and its skeleton.

use crate::test_fixtures::*;
use crate::{AvailabilityView, NodeRef, PlanCtx};

/// Feasible translation candidates (the QRG's translation edges).
fn n_translation_edges(ctx: &PlanCtx) -> usize {
    ctx.candidates().filter(|c| c.feasible).count()
}

mod tests {
    use super::*;

    #[test]
    fn builds_nodes_and_edges_for_chain() {
        let fx = ChainFixture::paper_like();
        let ctx = fx.ctx_with_avail(1000.0);
        // Nodes: per component, inputs + outputs.
        let svc = fx.session.service();
        let expected: usize = svc
            .components()
            .iter()
            .map(|c| c.input_levels().len() + c.output_levels().len())
            .sum();
        let sk = ctx.skeleton();
        assert_eq!(sk.n_nodes(), expected);
        assert_eq!(
            sk.node_refs[sk.source_node],
            NodeRef::In {
                component: 0,
                level: 0
            }
        );
        // With abundant availability every table entry is an edge.
        let table_entries: usize = (0..svc.components().len())
            .map(|c| {
                let comp = svc.component(c);
                (0..comp.input_levels().len())
                    .flat_map(|i| (0..comp.output_levels().len()).map(move |j| (i, j)))
                    .filter(|&(i, j)| comp.translate(i, j).is_some())
                    .count()
            })
            .sum();
        assert_eq!(n_translation_edges(&ctx), table_entries);
    }

    #[test]
    fn infeasible_demand_drops_edge() {
        let fx = ChainFixture::paper_like();
        // Tiny availability: nothing fits.
        let ctx = fx.ctx_with_avail(0.5);
        assert_eq!(n_translation_edges(&ctx), 0);
        // Equivalence edges are unaffected by availability.
        assert!(ctx.to_dot().contains("style=dashed, arrowhead=none"));
    }

    #[test]
    fn edge_weight_is_max_ratio() {
        let fx = ChainFixture::paper_like();
        let ctx = fx.ctx_with_avail(100.0);
        // Component 0, (0, 0) demands [cpu0=4]; weight = 4/100.
        let edge = ctx.candidate(0, 0, 0).expect("edge must exist");
        assert!(edge.feasible);
        assert!((edge.psi - 0.04).abs() < 1e-12);
        assert_eq!(edge.resource, fx.space.id("cpu0"));
        assert_eq!(edge.alpha, Some(1.0));
    }

    #[test]
    fn scale_inflates_demand_and_weight() {
        let fx = ChainFixture::paper_like_scaled(10.0);
        let ctx = fx.ctx_with_avail(100.0);
        let edge = ctx.candidate(0, 0, 0).expect("edge must exist");
        assert!((edge.psi - 0.4).abs() < 1e-12);
        // Demands that no longer fit are dropped: component 0 entry (0,2)
        // demands 24 * 10 = 240 > 100.
        assert!(!ctx.candidate(0, 0, 2).unwrap().feasible);
    }

    #[test]
    fn relax_order_is_topological() {
        let fx = DagFixture::diamond();
        let ctx = fx.ctx_with_avail(1000.0);
        let sk = ctx.skeleton();
        let mut seen = vec![false; sk.n_nodes()];
        for &n in &sk.relax_order {
            for &e in sk.in_edges(n) {
                let from = sk.candidates[e as usize].from as usize;
                assert!(seen[from], "node {n} relaxed before its parent {from}");
            }
            seen[n] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn unobserved_resource_means_unavailable() {
        let fx = ChainFixture::paper_like();
        // Empty availability view: every translation edge vanishes.
        let ctx = prepared(&fx.session, &AvailabilityView::new());
        assert_eq!(n_translation_edges(&ctx), 0);
    }
}

mod dot_tests {
    use super::*;

    #[test]
    fn dot_output_is_well_formed() {
        let fx = ChainFixture::paper_like();
        let ctx = fx.ctx_with_avail(100.0);
        let dot = ctx.to_dot();
        assert!(dot.starts_with("digraph qrg {"));
        assert!(dot.trim_end().ends_with('}'));
        // One cluster per component.
        assert_eq!(dot.matches("subgraph cluster_").count(), 3);
        // Every node id appears.
        let sk = ctx.skeleton();
        for n in 0..sk.n_nodes() {
            assert!(dot.contains(&format!("n{n} ")), "node {n} missing");
        }
        // Translation edges carry weights; equivalences are dashed.
        assert!(dot.contains("label=\"0."));
        assert!(dot.contains("style=dashed, arrowhead=none"));
        // Edge counts match: feasible translations plus equivalences.
        let equivalences = sk.candidates.iter().filter(|c| c.pair.is_none()).count();
        let edges = n_translation_edges(&ctx) + equivalences;
        assert_eq!(
            dot.matches("];").count(),
            edges + sk.n_nodes() + 1, // +1: the global node style
            "every edge and node declaration terminates with ];"
        );
    }
}
