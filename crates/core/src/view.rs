//! The planners' read-only view of a prepared snapshot.
//!
//! Pass I (`relax.rs`), Pass II (`backtrack.rs`), plan assembly
//! (`plan.rs`) and the four planners (`planner.rs`) all run against a
//! [`CtxView`]: the memoized [`QrgSkeleton`] of the service plus the
//! per-snapshot weight, feasibility and bottleneck buffers a
//! [`crate::PlanCtx`] prepared. Candidate ids are the edge ids; an
//! infeasible translation candidate answers `edge_weight() == None` and
//! every algorithm skips it, so the feasible edges keep their relative
//! order and every edge-id comparison (the relaxation tie-break,
//! first-found scans, the random planner's candidate lists) depends only
//! on the skeleton's candidate order.

use crate::backtrack::{Assignment, BtScratch};
use crate::ctx::EdgeBottleneck;
use crate::skeleton::QrgSkeleton;
use crate::{NodeRef, QrgOptions};
use qosr_model::{ResourceId, ResourceVector, ServiceSpec};

/// Skeleton structure plus the per-snapshot buffers of a prepared
/// [`crate::PlanCtx`].
pub(crate) struct CtxView<'a> {
    pub(crate) sk: &'a QrgSkeleton,
    pub(crate) options: &'a QrgOptions,
    pub(crate) demand_off: &'a [u32],
    pub(crate) demand_buf: &'a [(ResourceId, f64)],
    pub(crate) weight: &'a [f64],
    pub(crate) bottleneck: &'a [Option<EdgeBottleneck>],
}

impl CtxView<'_> {
    /// The service being planned.
    pub(crate) fn service(&self) -> &ServiceSpec {
        self.sk.service()
    }

    /// `true` when the paper's tie-breaking rule is disabled (ablation).
    pub(crate) fn disable_tie_break(&self) -> bool {
        self.options.disable_tie_break
    }

    /// Total number of QRG nodes.
    pub(crate) fn n_nodes(&self) -> usize {
        self.sk.n_nodes()
    }

    /// What node `n` represents.
    pub(crate) fn node_ref(&self, n: usize) -> NodeRef {
        self.sk.node_refs[n]
    }

    /// The QRG source node.
    pub(crate) fn source_node(&self) -> usize {
        self.sk.source_node
    }

    /// Node index of `Q^in` level `i` of component `c`.
    pub(crate) fn in_node(&self, c: usize, i: usize) -> usize {
        self.sk.in_offset[c] + i
    }

    /// Node index of `Q^out` level `j` of component `c`.
    pub(crate) fn out_node(&self, c: usize, j: usize) -> usize {
        self.sk.out_offset[c] + j
    }

    /// Node index of sink output level `level`.
    pub(crate) fn sink_node(&self, level: usize) -> usize {
        self.sk.out_offset[self.sk.service().graph().sink()] + level
    }

    /// Nodes in relaxation (topological) order.
    pub(crate) fn relax_order(&self) -> &[usize] {
        &self.sk.relax_order
    }

    /// Sink output levels ordered best-first.
    pub(crate) fn sink_order(&self) -> &[usize] {
        &self.sk.sink_order
    }

    /// Ids of candidates arriving at node `n` (infeasible ones included;
    /// filter with [`CtxView::edge_weight`]).
    pub(crate) fn in_edges(&self, n: usize) -> &[u32] {
        self.sk.in_edges(n)
    }

    /// Ids of candidates leaving node `n`.
    pub(crate) fn out_edges(&self, n: usize) -> &[u32] {
        self.sk.out_edges(n)
    }

    /// `(from, to)` node indices of candidate `e`.
    pub(crate) fn edge_endpoints(&self, e: u32) -> (usize, usize) {
        let cand = &self.sk.candidates[e as usize];
        (cand.from as usize, cand.to as usize)
    }

    /// Weight Ψ of candidate `e`, or `None` when it is infeasible under
    /// the prepared snapshot. Equivalence edges are always `Some(0.0)`.
    pub(crate) fn edge_weight(&self, e: u32) -> Option<f64> {
        let w = self.weight[e as usize];
        w.is_finite().then_some(w)
    }

    /// `(component, qin, qout)` for translation candidates, `None` for
    /// equivalence edges.
    pub(crate) fn edge_pair(&self, e: u32) -> Option<(usize, usize, usize)> {
        self.sk.candidates[e as usize]
            .pair
            .map(|(c, i, j)| (c as usize, i as usize, j as usize))
    }

    /// The *feasible* translation candidate of component `c` from input
    /// level `i` to output level `j`, if any.
    pub(crate) fn translation_edge(&self, c: usize, i: usize, j: usize) -> Option<u32> {
        self.sk
            .pair_candidate(c, i, j)
            .filter(|&e| self.weight[e as usize].is_finite())
    }

    /// The scaled demand of translation candidate `e` as a canonical
    /// vector.
    pub(crate) fn edge_demand(&self, e: u32) -> ResourceVector {
        let seg = &self.demand_buf
            [self.demand_off[e as usize] as usize..self.demand_off[e as usize + 1] as usize];
        // The segment already satisfies the canonical invariants, so this
        // is a plain copy.
        ResourceVector::from_pairs(seg.iter().copied())
            .expect("prepared demands are validated at session construction")
    }

    /// The bottleneck of translation candidate `e` (absent for
    /// equivalence edges and empty demands).
    pub(crate) fn edge_bottleneck(&self, e: u32) -> Option<EdgeBottleneck> {
        self.bottleneck[e as usize]
    }
}

/// Reusable buffers for one full planning run (Pass I + Pass II +
/// assembly). [`crate::PlanCtx`] holds one and reuses it across calls.
#[derive(Debug, Default)]
pub(crate) struct PlanScratch {
    /// Pass I minimax distances.
    pub dist: Vec<f64>,
    /// Pass I chosen incoming translation edge per `Q^out` node.
    pub pred: Vec<Option<u32>>,
    /// Pass II + assembly buffers.
    pub work: PlanWorkspace,
}

/// Reusable Pass II + assembly buffers for one planning run — the part
/// of [`PlanScratch`] the planners write while they read its Pass-I
/// result.
#[derive(Debug, Default)]
pub(crate) struct PlanWorkspace {
    /// Pass II scratch.
    pub(crate) bt: BtScratch,
    /// Primary backtracked assignments.
    pub(crate) asg: Vec<Assignment>,
    /// Secondary assignment buffer (tradeoff candidate levels).
    pub(crate) asg_alt: Vec<Assignment>,
    /// Backward-reachability marks (random planner).
    pub(crate) reach: Vec<bool>,
    /// Feasible outgoing-edge candidates of one node (random planner).
    pub(crate) candidates: Vec<u32>,
    /// `(from_rank, to_rank)` when the last tradeoff run stepped down
    /// from the best reachable level (§4.3.1); `None` otherwise. Cleared
    /// by every planner, read back through
    /// [`crate::PlanCtx::last_downgrade`].
    pub(crate) downgrade: Option<(u32, u32)>,
}
