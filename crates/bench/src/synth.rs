//! Synthetic service generators shared by the experiments, the bench
//! world of `qosr serve` and the property tests.

use qosr_model::*;
use std::sync::Arc;

/// Builds a chain of `k` components, each with `q` input and `q` output
/// levels and a fully populated translation table (every `(i, o)` pair
/// feasible), one compute slot per component bound to its own resource.
///
/// Demands are deterministic smooth functions of `(component, i, o)` so
/// different paths have different bottlenecks.
pub fn synthetic_chain(k: usize, q: usize) -> (SessionInstance, ResourceSpace) {
    synthetic_chain_multi(k, q, 1)
}

/// [`synthetic_chain`] generalized to `slots` resource slots per
/// component (CPU, memory, disk I/O — cycling through the kinds), each
/// bound to its own resource: the paper's *multi-resource* reservation
/// setting, where every translation entry demands an amount of every
/// slot and the per-candidate bottleneck is the max over them.
///
/// Per-slot demands are skewed by deterministic factors so different
/// slots bottleneck different `(i, o)` pairs. With `slots = 1` this is
/// exactly the classic single-resource chain.
pub fn synthetic_chain_multi(k: usize, q: usize, slots: usize) -> (SessionInstance, ResourceSpace) {
    assert!(k >= 1 && q >= 1 && slots >= 1);
    const KINDS: [(&str, ResourceKind); 3] = [
        ("cpu", ResourceKind::Compute),
        ("mem", ResourceKind::Memory),
        ("io", ResourceKind::DiskIo),
    ];
    let mut space = ResourceSpace::new();
    let mut components = Vec::with_capacity(k);
    let mut bindings = Vec::with_capacity(k);

    let schemas: Vec<_> = (0..=k)
        .map(|i| QosSchema::new(format!("lvl{i}"), ["grade"]))
        .collect();
    let levels = |s: &Arc<QosSchema>, n: usize| -> Vec<QosVector> {
        (1..=n as u32)
            .map(|x| QosVector::new(s.clone(), [x]))
            .collect()
    };

    for c in 0..k {
        let n_in = if c == 0 { 1 } else { q };
        let mut b = TableTranslation::builder(n_in, q, slots);
        for i in 0..n_in {
            for o in 0..q {
                // Demand grows with output grade and with the distance
                // between input and output grades (up/down-scaling cost).
                let base = 2.0 + o as f64;
                let warp = 0.5 * (i as f64 - o as f64).abs();
                let jitter = ((c * 31 + i * 7 + o * 3) % 5) as f64 * 0.25;
                let amounts: Vec<f64> = (0..slots)
                    .map(|s| {
                        // Slot skew: each slot scales the common shape
                        // differently so the bottleneck slot varies
                        // across (i, o) pairs and components.
                        let skew = 1.0 + 0.35 * s as f64 + 0.1 * ((c + i + o + s) % 3) as f64;
                        (base + warp + jitter) * skew
                    })
                    .collect();
                b = b.entry(i, o, amounts);
            }
        }
        let mut specs = Vec::with_capacity(slots);
        let mut rids = Vec::with_capacity(slots);
        for s in 0..slots {
            let (name, kind) = KINDS[s % KINDS.len()];
            specs.push(SlotSpec::new(format!("{name}{}", s / KINDS.len()), kind));
            rids.push(space.register(format!("r{c}_{name}{}", s / KINDS.len()), kind));
        }
        components.push(ComponentSpec::new(
            format!("c{c}"),
            levels(&schemas[c], n_in),
            levels(&schemas[c + 1], q),
            specs,
            Arc::new(b.build()),
        ));
        bindings.push(ComponentBinding::new(rids));
    }

    let service = Arc::new(
        ServiceSpec::chain(
            format!("synth-{k}x{q}"),
            components,
            (1..=q as u32).collect(),
        )
        .unwrap(),
    );
    let session = SessionInstance::new(service, bindings, 1.0).unwrap();
    (session, space)
}

/// A random diamond-family DAG scenario: optional prefix chain, a
/// fan-out component feeding `m ∈ 2..=3` parallel branches, a fan-in
/// merge, and an optional suffix chain. Translation tables are randomly
/// sparse, resources may be shared, and availability is drawn per
/// resource — exercising both documented limitations of the DAG
/// heuristic when checked against [`crate::oracle`].
pub fn random_dag_scenario(seed: u64) -> (SessionInstance, ResourceSpace, Vec<f64>) {
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    let mut rng = StdRng::seed_from_u64(seed);
    let prefix = rng.random_range(0..=1usize);
    let branches = rng.random_range(2..=3usize);
    let suffix = rng.random_range(0..=1usize);

    // Component layout: [prefix…, fanout, branch…, merge, suffix…].
    let fanout = prefix;
    let first_branch = fanout + 1;
    let merge = first_branch + branches;
    let k = merge + 1 + suffix;

    let mut edges = Vec::new();
    for c in 1..=fanout {
        edges.push((c - 1, c));
    }
    for b in 0..branches {
        edges.push((fanout, first_branch + b));
        edges.push((first_branch + b, merge));
    }
    for c in merge + 1..k {
        edges.push((c - 1, c));
    }
    let graph = DependencyGraph::new(k, edges).unwrap();

    let mut space = ResourceSpace::new();
    let n_resources = rng.random_range(2..=4usize);
    let rids: Vec<ResourceId> = (0..n_resources)
        .map(|i| space.register(format!("r{i}"), ResourceKind::Compute))
        .collect();

    // Output level counts per component.
    let n_out: Vec<usize> = (0..k).map(|_| rng.random_range(1..=3)).collect();
    let schemas: Vec<_> = (0..k)
        .map(|c| QosSchema::new(format!("out{c}"), ["g"]))
        .collect();
    let src_schema = QosSchema::new("src", ["g"]);
    let out_levels = |c: usize| -> Vec<QosVector> {
        (1..=n_out[c] as u32)
            .map(|x| QosVector::new(schemas[c].clone(), [x]))
            .collect()
    };

    // Input levels per component (and their decompositions).
    let mut components = Vec::with_capacity(k);
    let mut bindings = Vec::with_capacity(k);
    for c in 0..k {
        let preds = graph.preds(c).to_vec();
        let input_levels: Vec<QosVector> = if preds.is_empty() {
            vec![QosVector::new(src_schema.clone(), [0])]
        } else if preds.len() == 1 {
            out_levels(preds[0])
        } else {
            // Fan-in: a random non-empty subset of the cartesian product
            // of predecessor output levels, concatenated.
            let mut combos: Vec<Vec<usize>> = vec![vec![]];
            for &p in &preds {
                let mut next = Vec::new();
                for combo in &combos {
                    for o in 0..n_out[p] {
                        let mut cc = combo.clone();
                        cc.push(o);
                        next.push(cc);
                    }
                }
                combos = next;
            }
            let keep: Vec<Vec<usize>> = combos
                .into_iter()
                .filter(|_| rng.random::<f64>() < 0.6)
                .collect();
            let keep = if keep.is_empty() {
                vec![vec![0; preds.len()]]
            } else {
                keep
            };
            keep.iter()
                .map(|combo| {
                    let parts: Vec<QosVector> = preds
                        .iter()
                        .zip(combo)
                        .map(|(&p, &o)| out_levels(p)[o].clone())
                        .collect();
                    QosVector::concat(parts.iter())
                })
                .collect()
        };

        let n_in = input_levels.len();
        let mut builder = TableTranslation::builder(n_in, n_out[c], 1);
        let mut any = false;
        for i in 0..n_in {
            for o in 0..n_out[c] {
                if rng.random::<f64>() < 0.75 {
                    builder = builder.entry(i, o, [rng.random_range(1.0..=40.0)]);
                    any = true;
                }
            }
        }
        if !any {
            builder = builder.entry(0, 0, [5.0]);
        }
        components.push(ComponentSpec::new(
            format!("c{c}"),
            input_levels,
            out_levels(c),
            vec![SlotSpec::new("cpu", ResourceKind::Compute)],
            Arc::new(builder.build()),
        ));
        bindings.push(ComponentBinding::new([
            rids[rng.random_range(0..rids.len())]
        ]));
    }

    let sink = graph.sink();
    let mut ranking: Vec<u32> = (1..=n_out[sink] as u32).collect();
    for i in (1..ranking.len()).rev() {
        let j = rng.random_range(0..=i);
        ranking.swap(i, j);
    }
    let service = Arc::new(
        ServiceSpec::new(format!("dag-{seed}"), components, graph, ranking)
            .expect("generated DAG is valid"),
    );
    let scale = [1.0, 2.0][rng.random_range(0..2usize)];
    let session = SessionInstance::new(service, bindings, scale).unwrap();
    let avail: Vec<f64> = (0..n_resources)
        .map(|_| rng.random_range(5.0..=120.0))
        .collect();
    (session, space, avail)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qosr_core::{AvailabilityView, PlanCtx, Planner, QrgOptions, QrgSkeleton};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// A context prepared for `session` under uniform availability.
    fn prepared(session: &SessionInstance, space: &ResourceSpace, avail: f64) -> PlanCtx {
        let view = AvailabilityView::from_fn(space.ids(), |_| avail);
        let mut ctx = PlanCtx::new();
        ctx.prepare(session, &view, &QrgOptions::default());
        ctx
    }

    #[test]
    fn synthetic_chains_plan_successfully() {
        for (k, q) in [(1, 1), (3, 4), (8, 8)] {
            let (session, space) = synthetic_chain(k, q);
            let plan = prepared(&session, &space, 1000.0)
                .plan(Planner::Basic, &mut StdRng::seed_from_u64(0))
                .expect("ample availability");
            assert_eq!(plan.assignments.len(), k);
            // Highest level reachable with ample availability.
            assert_eq!(plan.sink_level, q - 1);
        }
    }

    #[test]
    fn node_count_scales_with_k_and_q() {
        let (s1, sp1) = synthetic_chain(2, 2);
        let (s2, sp2) = synthetic_chain(4, 8);
        let nodes = |s: &SessionInstance| QrgSkeleton::build(s.service().clone()).n_nodes();
        assert!(nodes(&s2) > nodes(&s1));
        let edges = |ctx: PlanCtx| ctx.candidates().filter(|c| c.feasible).count();
        assert!(edges(prepared(&s2, &sp2, 100.0)) > edges(prepared(&s1, &sp1, 100.0)));
    }
}
