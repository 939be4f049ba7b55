//! DAG dependency graphs and the two-pass heuristic (§4.3.2,
//! figures 6–8).
//!
//! A grid-style analysis pipeline: an ingest component fans out to two
//! parallel analyzers whose outputs fan in at a visualizer. The fan-in
//! component's input QoS is the *concatenation* of its predecessors'
//! output QoS. Pass I of the heuristic probes minimax distances with the
//! fan-in max rule; Pass II backtracks and resolves fan-out
//! non-convergence locally.
//!
//! ```sh
//! cargo run --example grid_dag
//! ```

use qosr::prelude::*;
use rand::SeedableRng;
use std::sync::Arc;

fn main() {
    // Grades: the ingest produces a data stream at grade 1 (decimated)
    // or 2 (full); each analyzer consumes it and emits results at grade
    // 1 or 2; the visualizer merges both result streams.
    let raw = QosSchema::new("raw", ["grade"]);
    let feed = QosSchema::new("feed", ["grade"]);
    let spectral = QosSchema::new("spectral", ["grade"]);
    let spatial = QosSchema::new("spatial", ["grade"]);
    let vis = QosSchema::new("vis", ["grade"]);
    let v = |s: &Arc<QosSchema>, g: u32| QosVector::new(s.clone(), [g]);

    let ingest = ComponentSpec::new(
        "ingest",
        vec![v(&raw, 2)],
        vec![v(&feed, 1), v(&feed, 2)],
        vec![SlotSpec::new("cpu", ResourceKind::Compute)],
        Arc::new(
            TableTranslation::builder(1, 2, 1)
                .entry(0, 0, [6.0])
                .entry(0, 1, [14.0])
                .build(),
        ),
    );
    // Spectral analysis: can produce full-grade results even from the
    // decimated feed (cheap interpolation) — this tempts Pass I into a
    // plan the sibling branch cannot share.
    let spectral_an = ComponentSpec::new(
        "spectral-analyzer",
        vec![v(&feed, 1), v(&feed, 2)],
        vec![v(&spectral, 1), v(&spectral, 2)],
        vec![SlotSpec::new("cpu", ResourceKind::Compute)],
        Arc::new(
            TableTranslation::builder(2, 2, 1)
                .entry(0, 0, [5.0])
                .entry(0, 1, [7.0])
                .entry(1, 0, [4.0])
                .entry(1, 1, [9.0])
                .build(),
        ),
    );
    // Spatial analysis: full-grade results strictly need the full feed.
    let spatial_an = ComponentSpec::new(
        "spatial-analyzer",
        vec![v(&feed, 1), v(&feed, 2)],
        vec![v(&spatial, 1), v(&spatial, 2)],
        vec![SlotSpec::new("cpu", ResourceKind::Compute)],
        Arc::new(
            TableTranslation::builder(2, 2, 1)
                .entry(0, 0, [6.0])
                .entry(1, 1, [12.0])
                .build(),
        ),
    );
    // The visualizer is a fan-in component: its inputs are
    // concatenations of (spectral, spatial) output grades.
    let visualizer = ComponentSpec::new(
        "visualizer",
        vec![
            QosVector::concat([&v(&spectral, 1), &v(&spatial, 1)]),
            QosVector::concat([&v(&spectral, 2), &v(&spatial, 2)]),
        ],
        vec![v(&vis, 1), v(&vis, 2)],
        vec![SlotSpec::new("cpu", ResourceKind::Compute)],
        Arc::new(
            TableTranslation::builder(2, 2, 1)
                .entry(0, 0, [8.0])
                .entry(1, 0, [5.0])
                .entry(1, 1, [15.0])
                .build(),
        ),
    );

    let graph = DependencyGraph::new(4, vec![(0, 1), (0, 2), (1, 3), (2, 3)]).unwrap();
    let service = Arc::new(
        ServiceSpec::new(
            "grid-analysis",
            vec![ingest, spectral_an, spatial_an, visualizer],
            graph,
            vec![1, 2],
        )
        .unwrap(),
    );
    println!(
        "dependency graph: chain = {}, fan-out at ingest = {}, fan-in at visualizer = {}",
        service.graph().is_chain(),
        service.graph().is_fan_out(0),
        service.graph().is_fan_in(3),
    );

    let mut space = ResourceSpace::new();
    let rids: Vec<_> = ["ingest.cpu", "spectral.cpu", "spatial.cpu", "vis.cpu"]
        .iter()
        .map(|n| space.register(*n, ResourceKind::Compute))
        .collect();
    let session = SessionInstance::new(
        service.clone(),
        rids.iter().map(|&r| ComponentBinding::new([r])).collect(),
        1.0,
    )
    .unwrap();

    let mut ctx = PlanCtx::new();
    // Only the random planner reads it.
    let mut rng = rand::rngs::StdRng::seed_from_u64(0);
    for (name, avail) in [
        ("ample resources", [100.0, 100.0, 100.0, 100.0]),
        ("spatial analyzer CPU scarce", [100.0, 100.0, 10.0, 100.0]),
        ("visualizer CPU scarce", [100.0, 100.0, 100.0, 9.0]),
    ] {
        let mut view = AvailabilityView::new();
        for (i, &rid) in rids.iter().enumerate() {
            view.set(rid, avail[i]);
        }
        ctx.prepare(&session, &view, &QrgOptions::default());
        println!("\nsnapshot: {name}");
        match ctx.plan(Planner::Dag, &mut rng) {
            Ok(plan) => {
                println!(
                    "  embedded graph reaches {} (rank {}), Ψ_G = {:.2}",
                    plan.end_to_end, plan.rank, plan.psi
                );
                for a in &plan.assignments {
                    let comp = service.component(a.component);
                    println!(
                        "  {:>18}: {} -> {}",
                        comp.name(),
                        comp.input_levels()[a.qin],
                        comp.output_levels()[a.qout],
                    );
                }
            }
            Err(e) => println!("  heuristic failed: {e}"),
        }
    }
}
