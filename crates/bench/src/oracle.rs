//! Brute-force oracles: exhaustive enumeration of feasible embedded
//! graphs (end-to-end reservation plans) for small services.
//!
//! Used by the property-test suites and by the `dagquality` experiment
//! to quantify the two documented limitations of the paper's DAG
//! heuristic (§4.3.2): spurious Pass-II failures and non-minimal
//! bottleneck indices.

use qosr_core::AvailabilityView;
use qosr_model::SessionInstance;

/// One feasible embedded graph: a `(qin, qout)` choice per component.
#[derive(Debug, Clone, PartialEq)]
pub struct Embedding {
    /// Per-component `(qin, qout)` selections, component-index order.
    pub choices: Vec<(usize, usize)>,
    /// The end-to-end (sink output) level reached.
    pub sink_level: usize,
    /// The embedding's bottleneck index `Ψ_G`.
    pub psi: f64,
}

/// Exhaustively enumerates every feasible embedded graph of `session`
/// under `view`. Exponential in the component count — intended for
/// services with ≤ ~6 components and small level sets.
pub fn enumerate_embeddings(session: &SessionInstance, view: &AvailabilityView) -> Vec<Embedding> {
    let service = session.service();
    let graph = service.graph();
    let k = service.components().len();

    // Feasible translation edges per component: (qin, qout, psi).
    let mut edges: Vec<Vec<(usize, usize, f64)>> = Vec::with_capacity(k);
    for c in 0..k {
        let comp = service.component(c);
        let mut list = Vec::new();
        for i in 0..comp.input_levels().len() {
            for o in 0..comp.output_levels().len() {
                let Some(demand) = session.demand(c, i, o) else {
                    continue;
                };
                if !demand.iter().all(|(rid, req)| req <= view.avail(rid)) {
                    continue;
                }
                let psi = demand
                    .max_ratio_over(|rid| view.avail(rid))
                    .map_or(0.0, |(_, p)| p);
                list.push((i, o, psi));
            }
        }
        edges.push(list);
    }

    // Depth-first product over per-component choices, checking the
    // dependency-edge consistency constraint: for each predecessor u of
    // v, link(v, qin_v)[pos(u)] == qout_u. Components are assigned in
    // topological order so predecessors are always decided first.
    let topo = graph.topo_order().to_vec();
    let mut chosen: Vec<Option<(usize, usize)>> = vec![None; k];
    let mut out = Vec::new();

    fn dfs(
        depth: usize,
        topo: &[usize],
        edges: &[Vec<(usize, usize, f64)>],
        session: &SessionInstance,
        chosen: &mut Vec<Option<(usize, usize)>>,
        psi: f64,
        out: &mut Vec<Embedding>,
    ) {
        let service = session.service();
        let graph = service.graph();
        if depth == topo.len() {
            let choices: Vec<(usize, usize)> =
                chosen.iter().map(|c| c.expect("complete")).collect();
            let sink_level = choices[graph.sink()].1;
            out.push(Embedding {
                choices,
                sink_level,
                psi,
            });
            return;
        }
        let v = topo[depth];
        'edge: for &(i, o, epsi) in &edges[v] {
            // Consistency with already-decided predecessors (the source
            // component has none — and no link table entries).
            if !graph.preds(v).is_empty() {
                let link = service.link(v, i);
                for (pos, &u) in graph.preds(v).iter().enumerate() {
                    let (_, u_out) = chosen[u].expect("topological order");
                    if link[pos] != u_out {
                        continue 'edge;
                    }
                }
            }
            chosen[v] = Some((i, o));
            dfs(depth + 1, topo, edges, session, chosen, psi.max(epsi), out);
            chosen[v] = None;
        }
    }
    dfs(0, &topo, &edges, session, &mut chosen, 0.0, &mut out);
    out
}

/// The oracle-optimal plan: the highest-ranked reachable sink level and
/// the minimum `Ψ_G` among embeddings reaching it.
pub fn best_embedding(session: &SessionInstance, view: &AvailabilityView) -> Option<Embedding> {
    let service = session.service();
    let ranking = service.sink_ranking();
    enumerate_embeddings(session, view)
        .into_iter()
        .fold(None, |best: Option<Embedding>, e| match best {
            None => Some(e),
            Some(b) => {
                let better = ranking[e.sink_level] > ranking[b.sink_level]
                    || (e.sink_level == b.sink_level && e.psi < b.psi);
                Some(if better { e } else { b })
            }
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth::synthetic_chain;
    use qosr_core::{PlanCtx, Planner, QrgOptions};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn oracle_agrees_with_basic_on_chains() {
        for (k, q, avail) in [(2, 3, 50.0), (3, 3, 8.0), (4, 2, 100.0)] {
            let (session, space) = synthetic_chain(k, q);
            let view = AvailabilityView::from_fn(space.ids(), |_| avail);
            let planned = PlanCtx::new().plan_session(
                &session,
                &view,
                &QrgOptions::default(),
                Planner::Basic,
                &mut StdRng::seed_from_u64(0),
            );
            match (planned, best_embedding(&session, &view)) {
                (Ok(plan), Some(best)) => {
                    assert_eq!(plan.sink_level, best.sink_level, "k={k} q={q}");
                    assert!((plan.psi - best.psi).abs() < 1e-9);
                }
                (Err(_), None) => {}
                (a, b) => panic!("planner {a:?} vs oracle {b:?}"),
            }
        }
    }

    #[test]
    fn embedding_count_is_path_count_on_chains() {
        let (session, space) = synthetic_chain(3, 2);
        let view = AvailabilityView::from_fn(space.ids(), |_| 1000.0);
        // Fully populated tables: 2 choices at c0, then 2x2 at c1, etc.
        // Paths: c0 picks one of 2 outputs; c1 input fixed by c0, picks
        // one of 2 outputs; same at c2 -> 2^3 = 8.
        assert_eq!(enumerate_embeddings(&session, &view).len(), 8);
    }
}
