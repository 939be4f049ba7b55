//! The planner's internal view of a QRG.
//!
//! Pass I/II and the four planners are implemented once, generically over
//! [`PlanView`] (see `relax.rs`, `backtrack.rs`, `planner.rs`). Two
//! implementations exist:
//!
//! * [`QrgView`] — adapts a materialized [`Qrg`] (the documented §4.1.1
//!   construction: one graph built per availability snapshot). Edge ids
//!   are compact over the *feasible* translation edges.
//! * `CtxView` (in `ctx.rs`) — the amortized hot path: a cached
//!   per-service [`crate::QrgSkeleton`] plus per-call weight/feasibility
//!   buffers in a reusable [`crate::PlanCtx`]. Edge ids range over *all
//!   candidate* edges; infeasible candidates report `edge_weight == None`.
//!
//! Both views enumerate edges in the same per-component construction
//! order, so the feasible edges of the skeleton view are an
//! order-preserving subsequence of the legacy ids. Every edge-id
//! comparison in the algorithms (the relaxation tie-break, first-found
//! scans) therefore decides identically under either view, which is what
//! makes the two paths produce byte-identical [`crate::ReservationPlan`]s.

use crate::backtrack::{Assignment, BtScratch};
use crate::qrg::EdgeBottleneck;
use crate::{EdgeKind, NodeRef, Qrg};
use qosr_model::{ResourceVector, ServiceSpec};

/// Read-only interface the planning algorithms run against.
pub(crate) trait PlanView {
    /// The service being planned.
    fn service(&self) -> &ServiceSpec;
    /// `true` when the paper's tie-breaking rule is disabled (ablation).
    fn disable_tie_break(&self) -> bool;
    /// Total number of QRG nodes.
    fn n_nodes(&self) -> usize;
    /// What node `n` represents.
    fn node_ref(&self, n: usize) -> NodeRef;
    /// The QRG source node.
    fn source_node(&self) -> usize;
    /// Node index of `Q^in` level `i` of component `c`.
    fn in_node(&self, c: usize, i: usize) -> usize;
    /// Node index of `Q^out` level `j` of component `c`.
    fn out_node(&self, c: usize, j: usize) -> usize;
    /// Nodes in relaxation (topological) order.
    fn relax_order(&self) -> &[usize];
    /// Sink output levels ordered best-first.
    fn sink_order(&self) -> &[usize];
    /// Ids of edges arriving at node `n` (may include infeasible
    /// candidates; filter with [`PlanView::edge_weight`]).
    fn in_edges(&self, n: usize) -> &[u32];
    /// Ids of edges leaving node `n`.
    fn out_edges(&self, n: usize) -> &[u32];
    /// `(from, to)` node indices of edge `e`.
    fn edge_endpoints(&self, e: u32) -> (usize, usize);
    /// Weight Ψ of edge `e`, or `None` when the edge is infeasible under
    /// the current availability. Equivalence edges are always `Some(0.0)`.
    fn edge_weight(&self, e: u32) -> Option<f64>;
    /// `(component, qin, qout)` for translation edges, `None` for
    /// equivalence edges.
    fn edge_pair(&self, e: u32) -> Option<(usize, usize, usize)>;
    /// The *feasible* translation edge of component `c` from input level
    /// `i` to output level `j`, if any.
    fn translation_edge(&self, c: usize, i: usize, j: usize) -> Option<u32>;
    /// The scaled demand of translation edge `e` as a canonical vector.
    fn edge_demand(&self, e: u32) -> ResourceVector;
    /// The bottleneck of translation edge `e` (absent for equivalence
    /// edges and empty demands).
    fn edge_bottleneck(&self, e: u32) -> Option<EdgeBottleneck>;

    /// Node index of sink output level `level`.
    fn sink_node(&self, level: usize) -> usize {
        self.out_node(self.service().graph().sink(), level)
    }
}

/// Adapter running the generic algorithms over a materialized [`Qrg`].
pub(crate) struct QrgView<'q, 'a> {
    qrg: &'q Qrg<'a>,
    sink_order: Vec<usize>,
}

impl<'q, 'a> QrgView<'q, 'a> {
    pub(crate) fn new(qrg: &'q Qrg<'a>) -> Self {
        let sink_order = qrg.session().service().sink_rank_order();
        QrgView { qrg, sink_order }
    }
}

impl PlanView for QrgView<'_, '_> {
    fn service(&self) -> &ServiceSpec {
        self.qrg.session().service()
    }

    fn disable_tie_break(&self) -> bool {
        self.qrg.options().disable_tie_break
    }

    fn n_nodes(&self) -> usize {
        self.qrg.n_nodes()
    }

    fn node_ref(&self, n: usize) -> NodeRef {
        self.qrg.node_ref(n)
    }

    fn source_node(&self) -> usize {
        self.qrg.source_node()
    }

    fn in_node(&self, c: usize, i: usize) -> usize {
        self.qrg.in_node(c, i)
    }

    fn out_node(&self, c: usize, j: usize) -> usize {
        self.qrg.out_node(c, j)
    }

    fn relax_order(&self) -> &[usize] {
        self.qrg.relax_order()
    }

    fn sink_order(&self) -> &[usize] {
        &self.sink_order
    }

    fn in_edges(&self, n: usize) -> &[u32] {
        self.qrg.in_edges(n)
    }

    fn out_edges(&self, n: usize) -> &[u32] {
        self.qrg.out_edges(n)
    }

    fn edge_endpoints(&self, e: u32) -> (usize, usize) {
        let edge = self.qrg.edge(e);
        (edge.from, edge.to)
    }

    fn edge_weight(&self, e: u32) -> Option<f64> {
        // A materialized Qrg only contains feasible edges.
        Some(self.qrg.edge(e).weight)
    }

    fn edge_pair(&self, e: u32) -> Option<(usize, usize, usize)> {
        match self.qrg.edge(e).kind {
            EdgeKind::Translation {
                component,
                qin,
                qout,
                ..
            } => Some((component, qin, qout)),
            EdgeKind::Equivalence => None,
        }
    }

    fn translation_edge(&self, c: usize, i: usize, j: usize) -> Option<u32> {
        self.qrg.translation_edge(c, i, j)
    }

    fn edge_demand(&self, e: u32) -> ResourceVector {
        match &self.qrg.edge(e).kind {
            EdgeKind::Translation { demand, .. } => demand.clone(),
            EdgeKind::Equivalence => ResourceVector::empty(),
        }
    }

    fn edge_bottleneck(&self, e: u32) -> Option<EdgeBottleneck> {
        match &self.qrg.edge(e).kind {
            EdgeKind::Translation { bottleneck, .. } => *bottleneck,
            EdgeKind::Equivalence => None,
        }
    }
}

/// Reusable buffers for one full planning run (Pass I + Pass II +
/// assembly). [`crate::PlanCtx`] holds one and reuses it across calls;
/// the legacy `plan_*` entry points allocate a fresh one per call.
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
