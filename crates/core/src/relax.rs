//! Pass I: minimax ("shortest path with + redefined as max") relaxation
//! over the QRG (§4.1.2, extended per §4.3.2 for fan-in components).
//!
//! The paper computes the plan by running Dijkstra's algorithm with the
//! path-length operator `+` replaced by `max`. Because the QRG is a DAG
//! (levels of components ordered by the dependency graph), a single
//! relaxation sweep in topological order computes exactly the same
//! fixpoint as Dijkstra — including the tie-breaking rule — without a
//! priority queue:
//!
//! * the **source** `Q^in` node gets value 0;
//! * a `Q^in` node's value is the **max** over the values of the
//!   upstream `Q^out` node(s) it is equivalent to — one per predecessor
//!   component; for fan-in components this is the "maximum of those
//!   associated with the Q^out nodes of the adjacent components" rule of
//!   Pass I in §4.3.2 (for single-predecessor components it degenerates
//!   to plain propagation across a 0-weight edge);
//! * a `Q^out` node's value is the **min** over its incoming translation
//!   edges `e = (q^in → q^out)` of `max(value(q^in), Ψ_e)`, with the
//!   paper's tie-break: when `max(a, b) = max(a, c) = a`, prefer the
//!   predecessor with `min(b, c)` (and, for full determinism, the lowest
//!   edge id after that).

use crate::view::CtxView;
use crate::NodeRef;

/// Pass I over the prepared view, writing into caller-provided buffers
/// (cleared and resized here) so the hot path allocates nothing in steady
/// state: `dist` gets each node's minimax distance from the source
/// (`f64::INFINITY` when unreachable), `pred` each `Q^out` node's chosen
/// incoming translation candidate (the Dijkstra predecessor).
pub(crate) fn relax_into(view: &CtxView, dist: &mut Vec<f64>, pred: &mut Vec<Option<u32>>) {
    let n = view.n_nodes();
    dist.clear();
    dist.resize(n, f64::INFINITY);
    pred.clear();
    pred.resize(n, None);
    let source = view.source_node();
    let tie_break = !view.disable_tie_break();

    for &node in view.relax_order() {
        let (d, p) = relax_node(view, node, source, tie_break, dist);
        dist[node] = d;
        pred[node] = p;
    }
}

/// One node's relaxation value `(dist, pred)` from its in-edge weights
/// and its predecessors' current distances — the per-node step shared by
/// the full sweep ([`relax_into`]) and the incremental repair
/// ([`relax_repair`]), so their fixpoints agree bit-for-bit by
/// construction.
#[inline]
fn relax_node(
    view: &CtxView,
    node: usize,
    source: usize,
    tie_break: bool,
    dist: &[f64],
) -> (f64, Option<u32>) {
    match view.node_ref(node) {
        NodeRef::In { .. } => {
            if node == source {
                return (0.0, None);
            }
            let ins = view.in_edges(node);
            if ins.is_empty() {
                // Only the source component has no predecessors, and
                // its single input node is handled above.
                return (f64::INFINITY, None);
            }
            // AND-node: usable only when every upstream Q^out it is
            // equivalent to is reachable; value = max over them.
            // (Equivalence edges are feasible under any availability.)
            let mut value = 0.0f64;
            for &e in ins {
                value = value.max(dist[view.edge_endpoints(e).0]);
            }
            (value, None)
        }
        NodeRef::Out { .. } => {
            let mut best: Option<(f64, f64, u32)> = None;
            for &e in view.in_edges(node) {
                let Some(weight) = view.edge_weight(e) else {
                    continue; // infeasible candidate edge
                };
                let upstream = dist[view.edge_endpoints(e).0];
                if !upstream.is_finite() {
                    continue;
                }
                let value = upstream.max(weight);
                let better = match best {
                    None => true,
                    Some((bv, bw, be)) => {
                        value < bv
                            || (value == bv
                                && tie_break
                                && (weight < bw || (weight == bw && e < be)))
                    }
                };
                if better {
                    best = Some((value, weight, e));
                }
            }
            match best {
                Some((value, _, e)) => (value, Some(e)),
                None => (f64::INFINITY, None),
            }
        }
    }
}

/// Repairs an existing Pass-I result in place after a subset of
/// candidate weights changed, instead of resweeping every node.
///
/// `seed[n]` marks the nodes with at least one re-weighted in-edge. The
/// sweep walks the same precomputed topological order as [`relax_into`]
/// but recomputes a node only when it is seed-dirty or marked `affected`
/// — a push: whenever a recomputed node's distance bits move, its
/// out-neighbors are marked, so clean nodes cost two flag reads instead
/// of an in-edge scan. (`affected` is a caller-owned scratch buffer
/// resized here.) Returns the number of nodes recomputed.
///
/// Correctness: [`relax_node`] is a pure function of the node's in-edge
/// weights and its predecessors' distances. A node is recomputed exactly
/// when one of those inputs changed — re-weighted in-edges via `seed`,
/// predecessor distances via the push (a predecessor precedes the node
/// in the topological order, so the mark lands before the node is
/// visited) — so by induction every node ends at the value a full sweep
/// would assign, bitwise. Predecessor-edge changes without a distance
/// change do not propagate: downstream nodes read only `dist`. The
/// propagation test compares bits so INFINITY == INFINITY counts as
/// unmoved and no float-equality subtlety can stop (or force)
/// propagation differently from a full sweep.
pub(crate) fn relax_repair(
    view: &CtxView,
    dist: &mut [f64],
    pred: &mut [Option<u32>],
    seed: &[bool],
    affected: &mut Vec<bool>,
) -> usize {
    let n = view.n_nodes();
    debug_assert_eq!(dist.len(), n);
    debug_assert_eq!(seed.len(), n);
    affected.clear();
    affected.resize(n, false);
    let source = view.source_node();
    let tie_break = !view.disable_tie_break();
    let mut recomputed = 0usize;

    for &node in view.relax_order() {
        if !seed[node] && !affected[node] {
            continue;
        }
        recomputed += 1;
        let (d, p) = relax_node(view, node, source, tie_break, dist);
        if d.to_bits() != dist[node].to_bits() {
            for &e in view.out_edges(node) {
                affected[view.edge_endpoints(e).1] = true;
            }
        }
        dist[node] = d;
        pred[node] = p;
    }
    recomputed
}

#[cfg(test)]
mod tests {
    use crate::test_fixtures::*;
    use crate::{AvailabilityView, NodeRef, PlanCtx, Planner, QrgOptions};

    fn out(component: usize, level: usize) -> NodeRef {
        NodeRef::Out { component, level }
    }

    fn input(component: usize, level: usize) -> NodeRef {
        NodeRef::In { component, level }
    }

    #[test]
    fn source_is_zero_and_sinks_get_bottleneck() {
        let fx = ChainFixture::paper_like();
        let mut ctx = fx.ctx_with_avail(100.0);
        assert_eq!(ctx.minimax(input(0, 0)), (0.0, None));
        // Best path to the top end-to-end level p has bottleneck 0.24
        // (see fixture docs); to q it is 0.18; to r it is 0.10.
        assert!((ctx.minimax(out(2, 2)).0 - 0.24).abs() < 1e-12);
        assert!((ctx.minimax(out(2, 1)).0 - 0.18).abs() < 1e-12);
        assert!((ctx.minimax(out(2, 0)).0 - 0.10).abs() < 1e-12);
    }

    #[test]
    fn unreachable_when_demand_does_not_fit() {
        let fx = ChainFixture::paper_like();
        // Availability 20: component 2's cheapest edge to p needs 24.
        let mut ctx = fx.ctx_with_avail(20.0);
        assert_eq!(ctx.minimax(out(2, 2)), (f64::INFINITY, None));
        // But r (needs only 10 via k) is reachable.
        assert!(ctx.minimax(out(2, 0)).0.is_finite());
    }

    #[test]
    fn tie_break_prefers_smaller_incoming_weight() {
        // Two inputs reach the same output with equal minimax value `a`
        // but different incoming weights: the rule picks min weight.
        let fx = TieBreakFixture::new();
        let mut ctx = PlanCtx::new();
        ctx.prepare(&fx.session, &fx.view(), &QrgOptions::default());
        // The chosen edge must be the lighter one (weight 0.1), i.e. from
        // input level 1, even though input 0 arrives first.
        assert_eq!(ctx.minimax(out(1, 0)), (0.3, Some(1)));
        assert!((ctx.candidate(1, 1, 0).unwrap().psi - 0.1).abs() < 1e-12);
    }

    #[test]
    fn tie_break_can_be_disabled_for_ablation() {
        let fx = TieBreakFixture::new();
        let mut ctx = PlanCtx::new();
        let options = QrgOptions {
            disable_tie_break: true,
            ..QrgOptions::default()
        };
        ctx.prepare(&fx.session, &fx.view(), &options);
        // Same distance, but the first-encountered edge wins.
        assert_eq!(ctx.minimax(out(1, 0)), (0.3, Some(0)));
    }

    #[test]
    fn fan_in_takes_max_of_parents() {
        let fx = DagFixture::diamond();
        let mut ctx = fx.ctx_with_avail(100.0);
        // See fixture docs: dist(a out2) = 0.05, dist(b out2) = 0.10;
        // merge input (2,2) = max = 0.10; top sink = max(0.10, 0.09) = 0.10.
        assert!((ctx.minimax(out(1, 1)).0 - 0.05).abs() < 1e-12);
        assert!((ctx.minimax(out(2, 1)).0 - 0.10).abs() < 1e-12);
        assert!((ctx.minimax(input(3, 1)).0 - 0.10).abs() < 1e-12);
        assert!((ctx.minimax(out(3, 1)).0 - 0.10).abs() < 1e-12);
    }

    #[test]
    fn fan_in_unreachable_if_any_parent_is() {
        let fx = DagFixture::diamond();
        // Give b's CPU too little for its out2 edge (needs 8).
        let mut view = AvailabilityView::new();
        for (name, amount) in [
            ("cpu_s", 100.0),
            ("cpu_a", 100.0),
            ("cpu_b", 7.0),
            ("cpu_m", 100.0),
        ] {
            view.set(fx.space.id(name).unwrap(), amount);
        }
        let mut ctx = PlanCtx::new();
        ctx.prepare(&fx.session, &view, &QrgOptions::default());
        // b can still produce out1 (needs 5) but not out2.
        assert!(ctx.minimax(out(2, 0)).0.is_finite());
        assert!(!ctx.minimax(out(2, 1)).0.is_finite());
        // merge input (2,2) requires b out2 -> unreachable, and so is the
        // top sink via that input.
        assert!(!ctx.minimax(input(3, 1)).0.is_finite());
    }

    /// §4.2's O(K·Q²) as a count: on a dense chain (every table cell
    /// populated) the QRG has `q + (k−1)·q²` translation candidates and
    /// `(k−1)·q` equivalences; Pass I visits each node once and scans
    /// each candidate once, as an in-edge of its target; Pass II assigns
    /// one level pair per component.
    #[test]
    fn planning_work_is_k_q_squared() {
        let cases = [2, 4, 8, 16, 32]
            .map(|k| (k, 8))
            .into_iter()
            .chain([4, 8, 16, 32, 64].map(|q| (4, q)));
        for (k, q) in cases {
            let (session, space) = dense_chain(k, q);
            let mut ctx = PlanCtx::new();
            ctx.prepare(&session, &uniform(&space, 1e9), &QrgOptions::default());
            let sk = ctx.skeleton();
            let translations = sk.candidates.iter().filter(|c| c.pair.is_some()).count();
            let equivalences = sk.n_candidates() - translations;
            assert_eq!(translations, q + (k - 1) * q * q, "k={k} q={q}");
            assert_eq!(equivalences, (k - 1) * q, "k={k} q={q}");

            let mut visits = vec![0u32; sk.n_nodes()];
            let mut scanned = 0;
            for &n in &sk.relax_order {
                visits[n] += 1;
                scanned += sk.in_edges(n).len();
            }
            assert!(visits.iter().all(|&v| v == 1), "k={k} q={q}");
            assert_eq!(scanned, sk.n_candidates(), "k={k} q={q}");

            let plan = run(&mut ctx, Planner::Basic).unwrap();
            assert_eq!(plan.assignments.len(), k, "k={k} q={q}");
        }
    }
}
