//! The availability-independent structure of a QoS-Resource Graph,
//! cached per [`ServiceSpec`].
//!
//! For one service session, the QRG (§4.1.1) has one node per `Q^in` and
//! per `Q^out` level of each component. The source component's single
//! input level is the *source node*; the sink component's output levels
//! are the *sink nodes* (the achievable end-to-end QoS levels). Two kinds
//! of edge join them:
//!
//! * **translation candidates** `In(c, i) → Out(c, j)`, one per populated
//!   cell of component `c`'s translation table; whether a candidate is
//!   *feasible* (its scaled demand fits current availability) and its
//!   weight Ψ depend on the snapshot and live in [`crate::PlanCtx`];
//! * **equivalence edges** `Out(u, j) → In(v, i)` (weight 0): the output
//!   of `u` feeds the input of `v` along a dependency edge. A fan-in
//!   component's input level has one per predecessor and is usable only
//!   when **all** of them are (Pass I takes the max over them).
//!
//! Everything here is a pure function of the service spec, so a
//! [`crate::PlanCtx`] builds a `QrgSkeleton` the first time it plans a
//! spec and keeps it, keyed on [`ServiceSpec::uid`], for every later
//! planning call on that spec:
//!
//! * the node layout: component by component, its `Q^in` levels then its
//!   `Q^out` levels (`in_offset`/`out_offset`/`node_refs`);
//! * the candidate edges, numbered component by component: first the
//!   populated translation cells in row-major `(i, j)` order, then one
//!   equivalence edge per (input level, predecessor) pair. Candidate ids
//!   are the edge ids every planner compares, so this order is part of
//!   the tie-breaking and of the random planner's RNG stream;
//! * flat CSR adjacency (`in_start`+`in_ids`, `out_start`+`out_ids`),
//!   each node's list in candidate-id order;
//! * each candidate's *unscaled* `(slot, amount)` demand pairs, so a
//!   [`crate::PlanCtx`] can bind and scale them per session without
//!   consulting the translation tables again;
//! * an O(1) `(component, qin, qout) → candidate` lookup table;
//! * the relaxation order (components in topological order; within a
//!   component, `Q^in` nodes before `Q^out` nodes) and the best-first
//!   sink ranking.

use qosr_model::ServiceSpec;
use std::sync::Arc;

/// Identifies a QRG node: an input or output QoS level of one component.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NodeRef {
    /// `Q^in` level `level` of component `component`.
    In {
        /// Component index.
        component: usize,
        /// Input level index.
        level: usize,
    },
    /// `Q^out` level `level` of component `component`.
    Out {
        /// Component index.
        component: usize,
        /// Output level index.
        level: usize,
    },
}

/// One candidate edge: a populated translation cell or an equivalence
/// link. Whether a translation candidate is *feasible* depends on the
/// availability snapshot and lives in [`crate::PlanCtx`], not here.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Candidate {
    /// Source node index.
    pub from: u32,
    /// Target node index.
    pub to: u32,
    /// `(component, qin, qout)` for translation candidates; `None` for
    /// equivalence edges.
    pub pair: Option<(u32, u32, u32)>,
}

/// The availability-independent part of a QRG. See the module docs.
#[derive(Debug)]
pub struct QrgSkeleton {
    service: Arc<ServiceSpec>,
    /// Node-index offsets: `In(c, i)` is node `in_offset[c] + i`.
    pub(crate) in_offset: Vec<usize>,
    /// Node-index offsets: `Out(c, j)` is node `out_offset[c] + j`.
    pub(crate) out_offset: Vec<usize>,
    pub(crate) node_refs: Vec<NodeRef>,
    pub(crate) source_node: usize,
    /// Candidate edges, in the order the module docs describe.
    pub(crate) candidates: Vec<Candidate>,
    /// Unscaled demand segment of candidate `e`:
    /// `slot_demands[d_off[e] .. d_off[e + 1]]` (empty for equivalence
    /// edges), each entry a `(slot, amount)` pair of the translation
    /// table.
    pub(crate) d_off: Vec<u32>,
    pub(crate) slot_demands: Vec<(u32, f64)>,
    /// CSR incoming adjacency: candidates into node `n` are
    /// `in_ids[in_start[n] .. in_start[n + 1]]`.
    pub(crate) in_start: Vec<u32>,
    pub(crate) in_ids: Vec<u32>,
    /// CSR outgoing adjacency, same layout.
    pub(crate) out_start: Vec<u32>,
    pub(crate) out_ids: Vec<u32>,
    /// Nodes in relaxation (topological) order.
    pub(crate) relax_order: Vec<usize>,
    /// Sink output levels ordered best-first (cached
    /// [`ServiceSpec::sink_rank_order`]).
    pub(crate) sink_order: Vec<usize>,
    /// `(c, i, j) → candidate` lookup:
    /// `pair_edge[pair_base[c] + i * n_out[c] + j]`, `u32::MAX` when the
    /// table cell is unpopulated.
    pub(crate) pair_base: Vec<u32>,
    pub(crate) pair_edge: Vec<u32>,
    /// Output-level count per component (the `pair_edge` row stride).
    pub(crate) n_out: Vec<u32>,
}

impl QrgSkeleton {
    /// Computes the skeleton of `service`.
    pub fn build(service: Arc<ServiceSpec>) -> QrgSkeleton {
        let graph = service.graph();
        let k = service.components().len();

        let mut in_offset = Vec::with_capacity(k);
        let mut out_offset = Vec::with_capacity(k);
        let mut node_refs = Vec::new();
        for (c, comp) in service.components().iter().enumerate() {
            in_offset.push(node_refs.len());
            for level in 0..comp.input_levels().len() {
                node_refs.push(NodeRef::In {
                    component: c,
                    level,
                });
            }
            out_offset.push(node_refs.len());
            for level in 0..comp.output_levels().len() {
                node_refs.push(NodeRef::Out {
                    component: c,
                    level,
                });
            }
        }
        let n_nodes = node_refs.len();

        let mut candidates: Vec<Candidate> = Vec::new();
        let mut d_off: Vec<u32> = vec![0];
        let mut slot_demands: Vec<(u32, f64)> = Vec::new();
        let mut in_lists: Vec<Vec<u32>> = vec![Vec::new(); n_nodes];
        let mut out_lists: Vec<Vec<u32>> = vec![Vec::new(); n_nodes];
        let mut pair_base: Vec<u32> = Vec::with_capacity(k);
        let mut pair_edge: Vec<u32> = Vec::new();
        let mut n_out: Vec<u32> = Vec::with_capacity(k);

        for (c, comp) in service.components().iter().enumerate() {
            let n_in_c = comp.input_levels().len();
            let n_out_c = comp.output_levels().len();
            pair_base.push(u32::try_from(pair_edge.len()).expect("QRG too large"));
            n_out.push(n_out_c as u32);
            pair_edge.resize(pair_edge.len() + n_in_c * n_out_c, u32::MAX);
            let base = *pair_base.last().unwrap() as usize;

            // Candidate translation edges: every populated table cell, in
            // row-major (i, j) order.
            for i in 0..n_in_c {
                for j in 0..n_out_c {
                    let Some(slots) = comp.translate(i, j) else {
                        continue;
                    };
                    let id = u32::try_from(candidates.len()).expect("QRG too large");
                    let from = (in_offset[c] + i) as u32;
                    let to = (out_offset[c] + j) as u32;
                    in_lists[to as usize].push(id);
                    out_lists[from as usize].push(id);
                    pair_edge[base + i * n_out_c + j] = id;
                    slot_demands.extend(slots.iter().map(|(slot, amount)| (slot as u32, amount)));
                    d_off.push(u32::try_from(slot_demands.len()).expect("QRG too large"));
                    candidates.push(Candidate {
                        from,
                        to,
                        pair: Some((c as u32, i as u32, j as u32)),
                    });
                }
            }
            // Equivalence edges into each of c's input levels, one per
            // predecessor.
            for i in 0..n_in_c {
                let preds = graph.preds(c);
                for (pos, &u) in preds.iter().enumerate() {
                    let j = service.link(c, i)[pos];
                    let id = u32::try_from(candidates.len()).expect("QRG too large");
                    let from = (out_offset[u] + j) as u32;
                    let to = (in_offset[c] + i) as u32;
                    in_lists[to as usize].push(id);
                    out_lists[from as usize].push(id);
                    d_off.push(*d_off.last().unwrap());
                    candidates.push(Candidate {
                        from,
                        to,
                        pair: None,
                    });
                }
            }
        }

        // Flatten the adjacency lists into CSR form, preserving per-node
        // push order (= candidate-id order).
        let flatten = |lists: &[Vec<u32>]| {
            let mut start = Vec::with_capacity(lists.len() + 1);
            let mut ids = Vec::with_capacity(candidates.len());
            start.push(0u32);
            for list in lists {
                ids.extend_from_slice(list);
                start.push(u32::try_from(ids.len()).expect("QRG too large"));
            }
            (start, ids)
        };
        let (in_start, in_ids) = flatten(&in_lists);
        let (out_start, out_ids) = flatten(&out_lists);

        let mut relax_order = Vec::with_capacity(n_nodes);
        for &c in graph.topo_order() {
            let comp = &service.components()[c];
            for i in 0..comp.input_levels().len() {
                relax_order.push(in_offset[c] + i);
            }
            for j in 0..comp.output_levels().len() {
                relax_order.push(out_offset[c] + j);
            }
        }

        let source_node = in_offset[graph.source()];
        let sink_order = service.sink_rank_order();

        QrgSkeleton {
            service,
            in_offset,
            out_offset,
            node_refs,
            source_node,
            candidates,
            d_off,
            slot_demands,
            in_start,
            in_ids,
            out_start,
            out_ids,
            relax_order,
            sink_order,
            pair_base,
            pair_edge,
            n_out,
        }
    }

    /// The service this skeleton describes.
    pub fn service(&self) -> &Arc<ServiceSpec> {
        &self.service
    }

    /// Total number of QRG nodes.
    pub fn n_nodes(&self) -> usize {
        self.node_refs.len()
    }

    /// Total number of candidate edges (populated translation cells plus
    /// equivalence edges).
    pub fn n_candidates(&self) -> usize {
        self.candidates.len()
    }

    /// The candidate id of translation cell `(c, i, j)`, populated or
    /// not.
    pub(crate) fn pair_candidate(&self, c: usize, i: usize, j: usize) -> Option<u32> {
        let idx = self.pair_base[c] as usize + i * self.n_out[c] as usize + j;
        let id = self.pair_edge[idx];
        (id != u32::MAX).then_some(id)
    }

    /// The unscaled `(slot, amount)` demand pairs of candidate `e`.
    pub(crate) fn slot_demand(&self, e: u32) -> &[(u32, f64)] {
        &self.slot_demands[self.d_off[e as usize] as usize..self.d_off[e as usize + 1] as usize]
    }

    /// Candidates into node `n`.
    pub(crate) fn in_edges(&self, n: usize) -> &[u32] {
        &self.in_ids[self.in_start[n] as usize..self.in_start[n + 1] as usize]
    }

    /// Candidates out of node `n`.
    pub(crate) fn out_edges(&self, n: usize) -> &[u32] {
        &self.out_ids[self.out_start[n] as usize..self.out_start[n + 1] as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_fixtures::*;
    use crate::{AvailabilityView, PlanCtx, QrgOptions};

    #[test]
    fn candidate_order_follows_the_tables() {
        // One translation candidate per populated table cell, row-major
        // within each component; one equivalence per (input level,
        // predecessor) after them.
        let fx = DagFixture::diamond();
        let svc = fx.session.service();
        let sk = QrgSkeleton::build(svc.clone());
        let mut want = Vec::new();
        for c in 0..svc.components().len() {
            let comp = svc.component(c);
            for i in 0..comp.input_levels().len() {
                for j in 0..comp.output_levels().len() {
                    if comp.translate(i, j).is_some() {
                        want.push(Some((c as u32, i as u32, j as u32)));
                    }
                }
            }
            want.extend((0..comp.input_levels().len() * svc.graph().preds(c).len()).map(|_| None));
        }
        let got: Vec<_> = sk.candidates.iter().map(|cand| cand.pair).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn shared_memoizes_per_spec() {
        // A context that alternates between four specs builds each
        // skeleton once and plans every later call on the same one.
        let chain = ChainFixture::paper_like();
        let (diamond, other) = (DagFixture::diamond(), DagFixture::non_convergent());
        let tie = TieBreakFixture::new();
        let cases = [
            (&chain.session, &chain.space),
            (&diamond.session, &diamond.space),
            (&other.session, &other.space),
            (&tie.session, &tie.space),
        ];
        let mut ctx = PlanCtx::new();
        let mut first = Vec::new();
        for round in 0..3 {
            for (k, (session, space)) in cases.iter().enumerate() {
                let view = AvailabilityView::from_fn(space.ids(), |_| 100.0);
                ctx.prepare(session, &view, &QrgOptions::default());
                if round == 0 {
                    first.push(Arc::downgrade(ctx.skeleton_arc()));
                } else {
                    let built = first[k].upgrade().expect("the first build is still held");
                    assert!(Arc::ptr_eq(ctx.skeleton_arc(), &built), "spec {k} rebuilt");
                }
            }
        }
        assert_eq!(ctx.skeleton_count(), 4);
        // A structurally identical but distinct spec gets its own entry.
        let twin = ChainFixture::paper_like();
        let view = AvailabilityView::from_fn(twin.space.ids(), |_| 100.0);
        ctx.prepare(&twin.session, &view, &QrgOptions::default());
        let built = first[0].upgrade().unwrap();
        assert!(!Arc::ptr_eq(ctx.skeleton_arc(), &built));
        assert_eq!(ctx.skeleton_count(), 5);
    }
}
