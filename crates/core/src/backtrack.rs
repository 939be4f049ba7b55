//! Pass II: backtracking the relaxation to assemble the reservation plan
//! (§4.1.2 for chains; §4.3.2 Pass II, including local fan-out
//! non-convergence resolution, for DAGs).
//!
//! Starting from the chosen sink node, components are visited in reverse
//! topological order. Each component's output level is dictated by the
//! input levels its successors selected; when the successors of a
//! *fan-out* component disagree (the paper's non-convergence case,
//! fig. 8), the conflict is resolved **locally**: the successors' already
//! backtracked `Q^out` levels stay fixed, and the fan-out component's
//! `Q^out` is re-selected as the level that reaches all of them with the
//! lowest maximum edge contention Ψ. The input level of each component
//! then follows the Pass-I predecessor edge of its (possibly re-selected)
//! output node.

use crate::view::CtxView;
use crate::PlanError;

/// One component's selected levels and the QRG translation edge realizing
/// them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Assignment {
    pub component: usize,
    pub qin: usize,
    pub qout: usize,
    pub edge: u32,
}

/// Reusable Pass-II working memory (per-component level selections and
/// fan-out resolution candidates).
#[derive(Debug, Default)]
pub(crate) struct BtScratch {
    chosen_in: Vec<Option<usize>>,
    chosen_out: Vec<Option<usize>>,
    picks: Vec<(usize, usize)>,
    best_picks: Vec<(usize, usize)>,
}

/// Pass II: backtracks from sink output level `target_level` into `out`
/// (cleared here; one assignment per component, in component-index
/// order) using the Pass-I results `dist`/`pred`.
///
/// Fails with [`PlanError::BacktrackFailed`] when the fan-out resolution
/// cannot find a converging output level — the documented limitation (1)
/// of the DAG heuristic. Never fails on chain graphs whose target sink is
/// reachable.
pub(crate) fn backtrack_into(
    view: &CtxView,
    dist: &[f64],
    pred: &[Option<u32>],
    target_level: usize,
    scratch: &mut BtScratch,
    out: &mut Vec<Assignment>,
) -> Result<(), PlanError> {
    let service = view.service();
    let graph = service.graph();
    let k = service.components().len();
    let sink = graph.sink();

    scratch.chosen_in.clear();
    scratch.chosen_in.resize(k, None);
    scratch.chosen_out.clear();
    scratch.chosen_out.resize(k, None);

    let fail = || PlanError::BacktrackFailed {
        sink_level: target_level,
    };

    for &c in graph.topo_order().iter().rev() {
        // 1. Determine c's output level from its successors (or the
        //    target, for the sink component).
        let out_level = if c == sink {
            target_level
        } else {
            let succs = graph.succs(c);
            let wanted_of = |chosen_in: &[Option<usize>], s: usize| {
                let i = chosen_in[s].expect("successor processed before predecessor");
                let pos = graph.preds(s).iter().position(|&p| p == c).unwrap();
                service.link(s, i)[pos]
            };
            let first = wanted_of(&scratch.chosen_in, succs[0]);
            if succs[1..]
                .iter()
                .all(|&s| wanted_of(&scratch.chosen_in, s) == first)
            {
                first
            } else {
                resolve_fan_out(view, dist, c, scratch).ok_or_else(fail)?
            }
        };

        let out_node = view.out_node(c, out_level);
        if !dist[out_node].is_finite() {
            return Err(fail());
        }
        // 2. Follow the Pass-I predecessor edge to fix c's input level.
        let edge_id = pred[out_node].ok_or_else(fail)?;
        let Some((_, qin, _)) = view.edge_pair(edge_id) else {
            unreachable!("Q^out predecessors are always translation edges");
        };
        scratch.chosen_out[c] = Some(out_level);
        scratch.chosen_in[c] = Some(qin);
    }

    // Re-derive each component's plan edge: fan-out resolution may have
    // replaced a successor's input level after its pass was done.
    out.clear();
    out.reserve(k);
    for c in 0..k {
        let (qin, qout) = (
            scratch.chosen_in[c].unwrap(),
            scratch.chosen_out[c].unwrap(),
        );
        let edge = view.translation_edge(c, qin, qout).ok_or_else(fail)?;
        out.push(Assignment {
            component: c,
            qin,
            qout,
            edge,
        });
    }
    Ok(())
}

/// Resolves fan-out non-convergence at component `c` (§4.3.2): fixes the
/// successors' backtracked output levels and picks the output level of
/// `c` that reaches all of them feasibly with minimal max edge Ψ. On
/// success, rewrites the successors' chosen input levels and returns the
/// selected output level of `c`.
fn resolve_fan_out(
    view: &CtxView,
    dist: &[f64],
    c: usize,
    scratch: &mut BtScratch,
) -> Option<usize> {
    let service = view.service();
    let graph = service.graph();
    let succs = graph.succs(c);
    let n_out = service.component(c).output_levels().len();

    // Best candidate so far: (cost, dist, o); the successor input-level
    // rewrites it implies live in `scratch.best_picks`.
    let mut best: Option<(f64, f64, usize)> = None;
    scratch.best_picks.clear();

    for o in 0..n_out {
        let out_node = view.out_node(c, o);
        if !dist[out_node].is_finite() {
            continue;
        }
        let mut cost = 0.0f64;
        scratch.picks.clear();
        let mut feasible = true;
        for &s in succs {
            let fixed_out = scratch.chosen_out[s].expect("successor processed before predecessor");
            let pos_c = graph.preds(s).iter().position(|&p| p == c).unwrap();
            // The best feasible input level of s that is fed by o, agrees
            // with every already-decided predecessor of s, and has a
            // feasible translation edge to s's fixed output.
            let mut best_i: Option<(f64, usize)> = None;
            for i in 0..service.component(s).input_levels().len() {
                let link = service.link(s, i);
                if link[pos_c] != o {
                    continue;
                }
                let conflicts = graph.preds(s).iter().enumerate().any(|(kk, &p)| {
                    p != c && scratch.chosen_out[p].is_some_and(|po| link[kk] != po)
                });
                if conflicts || !dist[view.in_node(s, i)].is_finite() {
                    continue;
                }
                let Some(e) = view.translation_edge(s, i, fixed_out) else {
                    continue;
                };
                let w = view.edge_weight(e).expect("translation_edge is feasible");
                if best_i.is_none_or(|(bw, _)| w < bw) {
                    best_i = Some((w, i));
                }
            }
            match best_i {
                Some((w, i)) => {
                    cost = cost.max(w);
                    scratch.picks.push((s, i));
                }
                None => {
                    feasible = false;
                    break;
                }
            }
        }
        if !feasible {
            continue;
        }
        let d = dist[out_node];
        let better = match best {
            None => true,
            Some((bc, bd, bo)) => cost < bc || (cost == bc && (d < bd || (d == bd && o < bo))),
        };
        if better {
            best = Some((cost, d, o));
            std::mem::swap(&mut scratch.picks, &mut scratch.best_picks);
        }
    }

    let (_, _, o) = best?;
    for &(s, i) in &scratch.best_picks {
        scratch.chosen_in[s] = Some(i);
    }
    Some(o)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_fixtures::*;
    use crate::{NodeRef, PlanCtx};

    /// Pass II from sink level `level` over `ctx`'s prepared snapshot.
    fn backtrack(ctx: &mut PlanCtx, level: usize) -> Result<Vec<Assignment>, PlanError> {
        let (view, dist, pred) = ctx.relaxed();
        let mut out = Vec::new();
        backtrack_into(
            &view,
            dist,
            pred,
            level,
            &mut BtScratch::default(),
            &mut out,
        )?;
        Ok(out)
    }

    #[test]
    fn chain_backtrack_follows_predecessors() {
        let fx = ChainFixture::paper_like();
        let mut ctx = fx.ctx_with_avail(100.0);
        // Target the top level p (index 2); expected plan (see fixture
        // docs): c_S -> c (qout 1), c_P c->h (qin 1, qout 3), c_C h->p.
        let asg = backtrack(&mut ctx, 2).unwrap();
        assert_eq!(asg.len(), 3);
        assert_eq!((asg[0].qin, asg[0].qout), (0, 1));
        assert_eq!((asg[1].qin, asg[1].qout), (1, 3));
        assert_eq!((asg[2].qin, asg[2].qout), (3, 2));
    }

    #[test]
    fn dag_fan_out_resolution() {
        let fx = DagFixture::diamond();
        let mut ctx = fx.ctx_with_avail(100.0);
        let asg = backtrack(&mut ctx, 1).unwrap();
        // Non-convergence at the source is resolved to output level 1
        // (grade 2), forcing a to take input 1 even though its Pass-I
        // predecessor was input 0.
        assert_eq!((asg[0].qin, asg[0].qout), (0, 1));
        assert_eq!((asg[1].qin, asg[1].qout), (1, 1));
        assert_eq!((asg[2].qin, asg[2].qout), (1, 1));
        assert_eq!((asg[3].qin, asg[3].qout), (1, 1));
    }

    #[test]
    fn backtrack_fails_when_no_convergence_possible() {
        let fx = DagFixture::non_convergent();
        let mut ctx = fx.ctx_with_avail(100.0);
        // Pass I reaches the top sink, but no single source output level
        // can feed both branches' fixed outputs.
        let sink = NodeRef::Out {
            component: 3,
            level: 1,
        };
        assert!(ctx.minimax(sink).0.is_finite());
        assert_eq!(
            backtrack(&mut ctx, 1),
            Err(PlanError::BacktrackFailed { sink_level: 1 })
        );
    }
}
