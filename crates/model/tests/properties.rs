//! Property-based tests of the model's algebraic laws.

use proptest::prelude::*;
use qosr_model::*;
use std::cmp::Ordering;

fn qos_pair() -> impl Strategy<Value = (QosVector, QosVector, QosVector)> {
    (1usize..=4).prop_flat_map(|arity| {
        let vals = prop::collection::vec(0u32..10, arity);
        (vals.clone(), vals.clone(), vals).prop_map(move |(a, b, c)| {
            let schema = QosSchema::new("p", (0..arity).map(|i| format!("x{i}")));
            (
                QosVector::new(schema.clone(), a),
                QosVector::new(schema.clone(), b),
                QosVector::new(schema, c),
            )
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases_from_env(512))]

    /// The dominance relation is a partial order: reflexive,
    /// antisymmetric, transitive; `compare` is consistent with it.
    #[test]
    fn qos_partial_order_laws((a, b, c) in qos_pair()) {
        // Reflexivity.
        prop_assert_eq!(a.compare(&a).unwrap(), Some(Ordering::Equal));
        prop_assert!(a.dominated_by(&a).unwrap());
        // Antisymmetry.
        if a.dominated_by(&b).unwrap() && b.dominated_by(&a).unwrap() {
            prop_assert_eq!(&a, &b);
        }
        // Transitivity.
        if a.dominated_by(&b).unwrap() && b.dominated_by(&c).unwrap() {
            prop_assert!(a.dominated_by(&c).unwrap());
        }
        // compare() duality.
        match a.compare(&b).unwrap() {
            Some(Ordering::Less) => {
                prop_assert_eq!(b.compare(&a).unwrap(), Some(Ordering::Greater));
            }
            Some(Ordering::Equal) => prop_assert_eq!(&a, &b),
            Some(Ordering::Greater) => {
                prop_assert_eq!(b.compare(&a).unwrap(), Some(Ordering::Less));
            }
            None => prop_assert_eq!(b.compare(&a).unwrap(), None),
        }
    }

    /// Concatenation preserves component-wise dominance and splits back
    /// into the original parts.
    #[test]
    fn qos_concat_laws((a, b, _) in qos_pair(), (x, y, _) in qos_pair()) {
        let ab = QosVector::concat([&a, &x]);
        let cd = QosVector::concat([&b, &y]);
        prop_assert_eq!(ab.values().len(), a.values().len() + x.values().len());
        // Dominance of the concatenation iff dominance of both parts.
        let whole = ab.dominated_by(&cd).unwrap();
        let parts = a.dominated_by(&b).unwrap() && x.dominated_by(&y).unwrap();
        prop_assert_eq!(whole, parts);
        // Split restores the parts' values.
        let split = ab.split_values(&[a.values().len(), x.values().len()]).unwrap();
        prop_assert_eq!(split[0], a.values());
        prop_assert_eq!(split[1], x.values());
    }

    /// Resource-vector algebra: `add` is commutative and associative,
    /// `scaled` distributes over `add`, and `fits_within` is monotone
    /// under `add` on the availability side.
    #[test]
    fn resource_vector_algebra(
        a in prop::collection::vec((0u32..6, 0.0f64..50.0), 0..6),
        b in prop::collection::vec((0u32..6, 0.0f64..50.0), 0..6),
        c in prop::collection::vec((0u32..6, 0.0f64..50.0), 0..6),
        k in 0.0f64..4.0,
    ) {
        let rv = |pairs: &[(u32, f64)]| {
            ResourceVector::from_pairs(pairs.iter().map(|&(i, x)| (ResourceId(i), x))).unwrap()
        };
        let (a, b, c) = (rv(&a), rv(&b), rv(&c));

        prop_assert_eq!(a.add(&b), b.add(&a));
        // Associativity holds up to floating-point rounding.
        let l = a.add(&b).add(&c);
        let r = a.add(&b.add(&c));
        for id in (0..6).map(ResourceId) {
            prop_assert!((l.get(id) - r.get(id)).abs() < 1e-9);
        }
        // Distribution within float tolerance.
        let lhs = a.add(&b).scaled(k);
        let rhs = a.scaled(k).add(&b.scaled(k));
        for id in (0..6).map(ResourceId) {
            prop_assert!((lhs.get(id) - rhs.get(id)).abs() < 1e-9);
        }
        // a fits within a + anything.
        prop_assert!(a.fits_within(&a.add(&b)));
        // fits_within is antitone in the demand: a+b fits -> a fits.
        if a.add(&b).fits_within(&c) {
            prop_assert!(a.fits_within(&c));
        }
        // max_ratio_over is exactly the max of per-entry ratios.
        if let Some((_, psi)) = a.max_ratio_over(|_| 10.0) {
            let expect = a.iter().map(|(_, x)| x / 10.0).fold(f64::MIN, f64::max);
            prop_assert!((psi - expect).abs() < 1e-12);
        } else {
            prop_assert!(a.is_empty());
        }
    }

    /// Random DAG edge sets: `DependencyGraph::new` either rejects, or
    /// yields a graph whose topological order is valid and whose
    /// accessors are mutually consistent.
    #[test]
    fn dependency_graph_consistency(
        n in 1usize..7,
        raw_edges in prop::collection::vec((0usize..7, 0usize..7), 0..12),
    ) {
        let edges: Vec<(usize, usize)> = raw_edges
            .into_iter()
            .filter(|&(u, v)| u < n && v < n)
            .collect();
        let Ok(g) = DependencyGraph::new(n, edges.clone()) else {
            return Ok(()); // rejection is fine; acceptance is what we check
        };
        // Topo order covers every node once and respects edges.
        let mut pos = vec![usize::MAX; n];
        for (i, &v) in g.topo_order().iter().enumerate() {
            prop_assert_eq!(pos[v], usize::MAX);
            pos[v] = i;
        }
        for &(u, v) in g.edges() {
            prop_assert!(pos[u] < pos[v]);
        }
        // preds/succs are inverse relations.
        for v in 0..n {
            for &u in g.preds(v) {
                prop_assert!(g.succs(u).contains(&v));
            }
            for &w in g.succs(v) {
                prop_assert!(g.preds(w).contains(&v));
            }
        }
        // Source/sink as advertised.
        prop_assert!(g.preds(g.source()).is_empty());
        prop_assert!(g.succs(g.sink()).is_empty());
        // Chain detection agrees with degrees.
        let degrees_chainlike =
            (0..n).all(|v| g.preds(v).len() <= 1 && g.succs(v).len() <= 1);
        prop_assert_eq!(g.is_chain(), degrees_chainlike);
    }

    /// Session demand = translation × scale through the binding, for all
    /// feasible pairs; infeasible pairs stay infeasible.
    #[test]
    fn session_demand_scales_linearly(seedling in 1.0f64..30.0, scale in 0.5f64..10.0) {
        let schema = QosSchema::new("q", ["x"]);
        let v = |x: u32| QosVector::new(schema.clone(), [x]);
        let comp = ComponentSpec::new(
            "c",
            vec![v(0)],
            vec![v(1), v(2)],
            vec![SlotSpec::new("s", ResourceKind::Compute)],
            std::sync::Arc::new(
                TableTranslation::builder(1, 2, 1)
                    .entry(0, 0, [seedling])
                    .build(),
            ),
        );
        let service = std::sync::Arc::new(
            ServiceSpec::chain("svc", vec![comp], vec![1, 2]).unwrap());
        let mut sp = ResourceSpace::new();
        let rid = sp.register("r", ResourceKind::Compute);
        let session = SessionInstance::new(
            service, vec![ComponentBinding::new([rid])], scale).unwrap();
        let d = session.demand(0, 0, 0).unwrap();
        prop_assert!((d.get(rid) - seedling * scale).abs() < 1e-9);
        prop_assert!(session.demand(0, 0, 1).is_none());
    }
}
