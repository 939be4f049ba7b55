//! Shared fixtures for the core crate's unit tests.
//!
//! `ChainFixture::paper_like` mirrors the structure of the paper's
//! figure 10(a): a 3-component chain `c_S → c_P → c_C` over four
//! resources (server CPU, proxy CPU, server→proxy bandwidth,
//! proxy→client bandwidth) with three end-to-end levels `r < q < p`.
//!
//! With every resource at availability 100 the minimax distances are:
//!
//! * `dist(p) = 0.24` via `c_S→c`, `c→h`, `h→p` (client bandwidth 24);
//! * `dist(q) = 0.18` via `c_S→d`, `d→j`, `j→q`;
//! * `dist(r) = 0.10` via `c_S→d`, `d→k`, `k→r`.

use crate::{AvailabilityView, PlanCtx, PlanError, Planner, QrgOptions, ReservationPlan};
use qosr_model::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

/// Uniform availability on every resource of `space`, α = 1.
pub fn uniform(space: &ResourceSpace, avail: f64) -> AvailabilityView {
    AvailabilityView::from_fn(space.ids(), |_| avail)
}

/// A context prepared for `session` under `view` with default options.
pub fn prepared(session: &SessionInstance, view: &AvailabilityView) -> PlanCtx {
    let mut ctx = PlanCtx::new();
    ctx.prepare(session, view, &QrgOptions::default());
    ctx
}

/// Runs `planner` on the prepared snapshot with a fixed-seed RNG (only
/// [`Planner::Random`] reads it).
pub fn run(ctx: &mut PlanCtx, planner: Planner) -> Result<ReservationPlan, PlanError> {
    ctx.plan(planner, &mut StdRng::seed_from_u64(0))
}

/// A dense chain of `k` components, the first with one input level and
/// `q` output levels, the others with `q` of each, every translation
/// cell populated; one compute slot per component on its own resource.
pub fn dense_chain(k: usize, q: usize) -> (SessionInstance, ResourceSpace) {
    let mut space = ResourceSpace::new();
    let schemas: Vec<_> = (0..=k)
        .map(|c| QosSchema::new(format!("lvl{c}"), ["grade"]))
        .collect();
    let levels = |c: usize, n: usize| -> Vec<QosVector> {
        (1..=n as u32)
            .map(|x| QosVector::new(schemas[c].clone(), [x]))
            .collect()
    };
    let mut components = Vec::with_capacity(k);
    let mut bindings = Vec::with_capacity(k);
    for c in 0..k {
        let n_in = if c == 0 { 1 } else { q };
        let mut table = TableTranslation::builder(n_in, q, 1);
        for i in 0..n_in {
            for o in 0..q {
                table = table.entry(i, o, [1.0 + (i + o) as f64]);
            }
        }
        components.push(ComponentSpec::new(
            format!("c{c}"),
            levels(c, n_in),
            levels(c + 1, q),
            vec![SlotSpec::new("cpu", ResourceKind::Compute)],
            Arc::new(table.build()),
        ));
        bindings.push(ComponentBinding::new([
            space.register(format!("cpu{c}"), ResourceKind::Compute)
        ]));
    }
    let ranking = (1..=q as u32).collect();
    let service = Arc::new(ServiceSpec::chain("dense", components, ranking).unwrap());
    let session = SessionInstance::new(service, bindings, 1.0).unwrap();
    (session, space)
}

/// Chain fixture: session + resource space.
pub struct ChainFixture {
    pub session: SessionInstance,
    pub space: ResourceSpace,
}

impl ChainFixture {
    /// 3-component chain modelled after figure 10(a); scale 1.
    pub fn paper_like() -> Self {
        Self::paper_like_scaled(1.0)
    }

    /// Same service with a demand scale factor (a "fat" session).
    pub fn paper_like_scaled(scale: f64) -> Self {
        let mut space = ResourceSpace::new();
        let cpu0 = space.register("cpu0", ResourceKind::Compute);
        let cpu1 = space.register("cpu1", ResourceKind::Compute);
        let bw01 = space.register("bw01", ResourceKind::NetworkPath);
        let bw12 = space.register("bw12", ResourceKind::NetworkPath);

        let src_schema = QosSchema::new("src", ["quality"]);
        let grade_s = QosSchema::new("gs", ["grade"]);
        let grade_p = QosSchema::new("gp", ["grade"]);
        let e2e = QosSchema::new("e2e", ["level"]);
        let v = |s: &Arc<QosSchema>, x: u32| QosVector::new(s.clone(), [x]);

        // c_S: one input (the source data), outputs d(1) < c(2) < b(3).
        let c_s = ComponentSpec::new(
            "c_S",
            vec![v(&src_schema, 9)],
            vec![v(&grade_s, 1), v(&grade_s, 2), v(&grade_s, 3)],
            vec![SlotSpec::new("cpu", ResourceKind::Compute)],
            Arc::new(
                TableTranslation::builder(1, 3, 1)
                    .entry(0, 0, [4.0])
                    .entry(0, 1, [12.0])
                    .entry(0, 2, [24.0])
                    .build(),
            ),
        );

        // c_P: inputs = c_S outputs; outputs k(1) < j(2) < i(3) < h(4).
        // CPU cost rises when upscaling from a lower-grade input;
        // bandwidth cost is set by the input grade (the incoming stream).
        let c_p = ComponentSpec::new(
            "c_P",
            vec![v(&grade_s, 1), v(&grade_s, 2), v(&grade_s, 3)],
            vec![
                v(&grade_p, 1),
                v(&grade_p, 2),
                v(&grade_p, 3),
                v(&grade_p, 4),
            ],
            vec![
                SlotSpec::new("cpu", ResourceKind::Compute),
                SlotSpec::new("bw_in", ResourceKind::NetworkPath),
            ],
            Arc::new(
                TableTranslation::builder(3, 4, 2)
                    .entry(0, 0, [8.0, 8.0])
                    .entry(0, 1, [14.0, 8.0])
                    .entry(1, 0, [6.0, 16.0])
                    .entry(1, 1, [8.0, 16.0])
                    .entry(1, 2, [12.0, 16.0])
                    .entry(1, 3, [20.0, 16.0])
                    .entry(2, 2, [8.0, 24.0])
                    .entry(2, 3, [12.0, 24.0])
                    .build(),
            ),
        );

        // c_C: inputs = c_P outputs; end-to-end levels r(1) < q(2) < p(3).
        let c_c = ComponentSpec::new(
            "c_C",
            vec![
                v(&grade_p, 1),
                v(&grade_p, 2),
                v(&grade_p, 3),
                v(&grade_p, 4),
            ],
            vec![v(&e2e, 1), v(&e2e, 2), v(&e2e, 3)],
            vec![SlotSpec::new("bw_out", ResourceKind::NetworkPath)],
            Arc::new(
                TableTranslation::builder(4, 3, 1)
                    .entry(0, 0, [10.0])
                    .entry(0, 1, [22.0])
                    .entry(1, 1, [18.0])
                    .entry(1, 2, [32.0])
                    .entry(2, 1, [20.0])
                    .entry(2, 2, [28.0])
                    .entry(3, 2, [24.0])
                    .build(),
            ),
        );

        let service =
            Arc::new(ServiceSpec::chain("figure10a", vec![c_s, c_p, c_c], vec![1, 2, 3]).unwrap());
        let session = SessionInstance::new(
            service,
            vec![
                ComponentBinding::new([cpu0]),
                ComponentBinding::new([cpu1, bw01]),
                ComponentBinding::new([bw12]),
            ],
            scale,
        )
        .unwrap();
        ChainFixture { session, space }
    }

    /// A context prepared under uniform availability `avail`, α = 1.
    pub fn ctx_with_avail(&self, avail: f64) -> PlanCtx {
        prepared(&self.session, &uniform(&self.space, avail))
    }
}

/// Minimal two-component fixture engineered to exercise the paper's
/// tie-breaking rule: both inputs of component 1 arrive with value 0.3,
/// and its single output is reachable through edges of weight 0.2 (from
/// input 0) and 0.1 (from input 1).
pub struct TieBreakFixture {
    pub session: SessionInstance,
    pub space: ResourceSpace,
}

impl TieBreakFixture {
    pub fn new() -> Self {
        let mut space = ResourceSpace::new();
        let r0 = space.register("r0", ResourceKind::Compute);
        let r1 = space.register("r1", ResourceKind::Compute);

        let src = QosSchema::new("src", ["q"]);
        let mid = QosSchema::new("mid", ["q"]);
        let out = QosSchema::new("out", ["q"]);
        let v = |s: &Arc<QosSchema>, x: u32| QosVector::new(s.clone(), [x]);

        let c0 = ComponentSpec::new(
            "c0",
            vec![v(&src, 0)],
            vec![v(&mid, 1), v(&mid, 2)],
            vec![SlotSpec::new("r", ResourceKind::Compute)],
            Arc::new(
                TableTranslation::builder(1, 2, 1)
                    .entry(0, 0, [30.0])
                    .entry(0, 1, [30.0])
                    .build(),
            ),
        );
        let c1 = ComponentSpec::new(
            "c1",
            vec![v(&mid, 1), v(&mid, 2)],
            vec![v(&out, 1)],
            vec![SlotSpec::new("r", ResourceKind::Compute)],
            Arc::new(
                TableTranslation::builder(2, 1, 1)
                    .entry(0, 0, [20.0])
                    .entry(1, 0, [10.0])
                    .build(),
            ),
        );
        let service = Arc::new(ServiceSpec::chain("tie", vec![c0, c1], vec![0]).unwrap());
        let session = SessionInstance::new(
            service,
            vec![ComponentBinding::new([r0]), ComponentBinding::new([r1])],
            1.0,
        )
        .unwrap();
        TieBreakFixture { session, space }
    }

    pub fn view(&self) -> AvailabilityView {
        uniform(&self.space, 100.0)
    }
}

/// DAG fixtures (diamond: src fans out to a and b, which fan in at
/// merge).
pub struct DagFixture {
    pub session: SessionInstance,
    pub space: ResourceSpace,
}

impl DagFixture {
    /// Diamond whose Pass-II backtracking hits fan-out non-convergence
    /// and resolves it to source grade 2 (see backtrack tests).
    ///
    /// With all availabilities at 100: `dist(a out2) = 0.05` (via the
    /// cheap upscale edge from grade 1), `dist(b out2) = 0.10`, merge
    /// input (2,2) = 0.10, top sink = 0.10.
    pub fn diamond() -> Self {
        let mut space = ResourceSpace::new();
        let cpu_s = space.register("cpu_s", ResourceKind::Compute);
        let cpu_a = space.register("cpu_a", ResourceKind::Compute);
        let cpu_b = space.register("cpu_b", ResourceKind::Compute);
        let cpu_m = space.register("cpu_m", ResourceKind::Compute);

        let src = QosSchema::new("src", ["q"]);
        let g = QosSchema::new("g", ["grade"]);
        let ga = QosSchema::new("ga", ["grade"]);
        let gb = QosSchema::new("gb", ["grade"]);
        let gm = QosSchema::new("gm", ["grade"]);
        let v = |s: &Arc<QosSchema>, x: u32| QosVector::new(s.clone(), [x]);

        let c_src = ComponentSpec::new(
            "src",
            vec![v(&src, 0)],
            vec![v(&g, 1), v(&g, 2)],
            vec![SlotSpec::new("cpu", ResourceKind::Compute)],
            Arc::new(
                TableTranslation::builder(1, 2, 1)
                    .entry(0, 0, [5.0])
                    .entry(0, 1, [10.0])
                    .build(),
            ),
        );
        let c_a = ComponentSpec::new(
            "a",
            vec![v(&g, 1), v(&g, 2)],
            vec![v(&ga, 1), v(&ga, 2)],
            vec![SlotSpec::new("cpu", ResourceKind::Compute)],
            Arc::new(
                TableTranslation::builder(2, 2, 1)
                    .entry(0, 0, [4.0])
                    .entry(0, 1, [1.0]) // cheap upscale: tempts Pass I
                    .entry(1, 0, [3.0])
                    .entry(1, 1, [6.0])
                    .build(),
            ),
        );
        let c_b = ComponentSpec::new(
            "b",
            vec![v(&g, 1), v(&g, 2)],
            vec![v(&gb, 1), v(&gb, 2)],
            vec![SlotSpec::new("cpu", ResourceKind::Compute)],
            Arc::new(
                TableTranslation::builder(2, 2, 1)
                    .entry(0, 0, [5.0])
                    .entry(1, 1, [8.0])
                    .build(),
            ),
        );
        let c_m = ComponentSpec::new(
            "merge",
            vec![
                QosVector::concat([&v(&ga, 1), &v(&gb, 1)]),
                QosVector::concat([&v(&ga, 2), &v(&gb, 2)]),
            ],
            vec![v(&gm, 1), v(&gm, 2)],
            vec![SlotSpec::new("cpu", ResourceKind::Compute)],
            Arc::new(
                TableTranslation::builder(2, 2, 1)
                    .entry(0, 0, [7.0])
                    .entry(1, 0, [2.0])
                    .entry(1, 1, [9.0])
                    .build(),
            ),
        );
        let graph = DependencyGraph::new(4, vec![(0, 1), (0, 2), (1, 3), (2, 3)]).unwrap();
        let service = Arc::new(
            ServiceSpec::new("diamond", vec![c_src, c_a, c_b, c_m], graph, vec![1, 2]).unwrap(),
        );
        let session = SessionInstance::new(
            service,
            vec![
                ComponentBinding::new([cpu_s]),
                ComponentBinding::new([cpu_a]),
                ComponentBinding::new([cpu_b]),
                ComponentBinding::new([cpu_m]),
            ],
            1.0,
        )
        .unwrap();
        DagFixture { session, space }
    }

    /// Diamond where Pass I reaches the top sink but no single source
    /// output level can feed both branches — Pass II must fail
    /// (limitation (1) of the heuristic).
    pub fn non_convergent() -> Self {
        let mut space = ResourceSpace::new();
        let cpu_s = space.register("cpu_s", ResourceKind::Compute);
        let cpu_a = space.register("cpu_a", ResourceKind::Compute);
        let cpu_b = space.register("cpu_b", ResourceKind::Compute);
        let cpu_m = space.register("cpu_m", ResourceKind::Compute);

        let src = QosSchema::new("src", ["q"]);
        let g = QosSchema::new("g", ["grade"]);
        let ga = QosSchema::new("ga", ["grade"]);
        let gb = QosSchema::new("gb", ["grade"]);
        let gm = QosSchema::new("gm", ["grade"]);
        let v = |s: &Arc<QosSchema>, x: u32| QosVector::new(s.clone(), [x]);

        let c_src = ComponentSpec::new(
            "src",
            vec![v(&src, 0)],
            vec![v(&g, 1), v(&g, 2)],
            vec![SlotSpec::new("cpu", ResourceKind::Compute)],
            Arc::new(
                TableTranslation::builder(1, 2, 1)
                    .entry(0, 0, [5.0])
                    .entry(0, 1, [10.0])
                    .build(),
            ),
        );
        // a only works from grade 1; b only from grade 2.
        let c_a = ComponentSpec::new(
            "a",
            vec![v(&g, 1), v(&g, 2)],
            vec![v(&ga, 1)],
            vec![SlotSpec::new("cpu", ResourceKind::Compute)],
            Arc::new(
                TableTranslation::builder(2, 1, 1)
                    .entry(0, 0, [4.0])
                    .build(),
            ),
        );
        let c_b = ComponentSpec::new(
            "b",
            vec![v(&g, 1), v(&g, 2)],
            vec![v(&gb, 1)],
            vec![SlotSpec::new("cpu", ResourceKind::Compute)],
            Arc::new(
                TableTranslation::builder(2, 1, 1)
                    .entry(1, 0, [5.0])
                    .build(),
            ),
        );
        let c_m = ComponentSpec::new(
            "merge",
            vec![QosVector::concat([&v(&ga, 1), &v(&gb, 1)])],
            vec![v(&gm, 1), v(&gm, 2)],
            vec![SlotSpec::new("cpu", ResourceKind::Compute)],
            Arc::new(
                TableTranslation::builder(1, 2, 1)
                    .entry(0, 0, [7.0])
                    .entry(0, 1, [9.0])
                    .build(),
            ),
        );
        let graph = DependencyGraph::new(4, vec![(0, 1), (0, 2), (1, 3), (2, 3)]).unwrap();
        let service = Arc::new(
            ServiceSpec::new("nonconv", vec![c_src, c_a, c_b, c_m], graph, vec![1, 2]).unwrap(),
        );
        let session = SessionInstance::new(
            service,
            vec![
                ComponentBinding::new([cpu_s]),
                ComponentBinding::new([cpu_a]),
                ComponentBinding::new([cpu_b]),
                ComponentBinding::new([cpu_m]),
            ],
            1.0,
        )
        .unwrap();
        DagFixture { session, space }
    }

    /// A context prepared under uniform availability `avail`, α = 1.
    pub fn ctx_with_avail(&self, avail: f64) -> PlanCtx {
        prepared(&self.session, &uniform(&self.space, avail))
    }
}
