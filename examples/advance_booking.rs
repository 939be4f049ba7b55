//! Advance reservations — the paper's §6 "next step", implemented on a
//! piecewise-constant reservation timeline.
//!
//! A virtual-laboratory session (the paper's motivating Grid scenario)
//! is booked for a *future* window: the coordinator plans against the
//! guaranteed minimum availability over the window and books
//! all-or-nothing. Conflicting bookings degrade later requests to lower
//! QoS levels or reject them, exactly like immediate reservations do —
//! but ahead of time.
//!
//! ```sh
//! cargo run --example advance_booking
//! ```

use qosr::broker::{
    AdvanceRegistry, AdvanceRequest, AlphaPolicy, SessionId, SimTime, TimelineBroker,
};
use qosr::prelude::*;
use rand::SeedableRng;
use std::sync::Arc;

fn main() {
    // A remote-experiment service: instrument feed -> analysis -> steering.
    let feed_q = QosSchema::new("feed", ["sample_rate"]);
    let result_q = QosSchema::new("result", ["resolution"]);
    let v = |s: &std::sync::Arc<QosSchema>, x: u32| QosVector::new(s.clone(), [x]);

    let instrument = ComponentSpec::new(
        "instrument-feed",
        vec![v(&feed_q, 100)],
        vec![v(&feed_q, 10), v(&feed_q, 100)],
        vec![SlotSpec::new("bw", ResourceKind::NetworkPath)],
        Arc::new(
            TableTranslation::builder(1, 2, 1)
                .entry(0, 0, [5.0])
                .entry(0, 1, [40.0])
                .build(),
        ),
    );
    let analysis = ComponentSpec::new(
        "analysis",
        vec![v(&feed_q, 10), v(&feed_q, 100)],
        vec![v(&result_q, 1), v(&result_q, 2)],
        vec![SlotSpec::new("cpu", ResourceKind::Compute)],
        Arc::new(
            TableTranslation::builder(2, 2, 1)
                .entry(0, 0, [10.0])
                .entry(1, 0, [8.0])
                .entry(1, 1, [55.0])
                .build(),
        ),
    );
    let service = Arc::new(
        ServiceSpec::chain("virtual-lab", vec![instrument, analysis], vec![1, 2]).unwrap(),
    );

    let mut space = ResourceSpace::new();
    let bw = space.register("path:instrument->hpc", ResourceKind::NetworkPath);
    let cpu = space.register("hpc.cpu", ResourceKind::Compute);
    let session_of = |scale: f64| {
        SessionInstance::new(
            service.clone(),
            vec![ComponentBinding::new([bw]), ComponentBinding::new([cpu])],
            scale,
        )
        .unwrap()
    };

    let mut ctx = PlanCtx::new();
    // Only the random planner reads it.
    let mut rng = rand::rngs::StdRng::seed_from_u64(0);
    let mut plan = |session: &SessionInstance, view: &AvailabilityView| {
        ctx.plan_session(
            session,
            view,
            &QrgOptions::default(),
            Planner::Basic,
            &mut rng,
        )
    };

    let mut registry = AdvanceRegistry::new();
    registry.register(Arc::new(TimelineBroker::new(bw, 100.0)));
    registry.register(Arc::new(TimelineBroker::new(cpu, 100.0)));

    let t = SimTime::new;
    // Team A books the 09:00-12:00 slot (hours as TU) at full quality.
    let window_a = (t(9.0), t(12.0));
    let view = registry.snapshot_window(window_a.0, window_a.1);
    let session_a = session_of(1.0);
    let plan_a = plan(&session_a, &view).unwrap();
    registry
        .book(
            &AdvanceRequest::rigid(SessionId(1), plan_a.total_demand(), window_a.0, window_a.1),
            t(0.0),
        )
        .into_result()
        .unwrap();
    println!(
        "team A books 09:00-12:00 -> {} (Ψ = {:.2})",
        plan_a.end_to_end, plan_a.psi
    );

    // Team B wants an overlapping 11:00-14:00 slot. Within the overlap
    // the CPU has only 45 units left, so the planner degrades to the
    // low-resolution level.
    let window_b = (t(11.0), t(14.0));
    let view = registry.snapshot_window(window_b.0, window_b.1);
    println!(
        "availability over 11:00-14:00: bw = {}, cpu = {}",
        view.avail(bw),
        view.avail(cpu)
    );
    let session_b = session_of(1.0);
    let plan_b = plan(&session_b, &view).unwrap();
    registry
        .book(
            &AdvanceRequest::rigid(SessionId(2), plan_b.total_demand(), window_b.0, window_b.1),
            t(0.0),
        )
        .into_result()
        .unwrap();
    println!(
        "team B books 11:00-14:00 -> {} (degraded: Ψ = {:.2})",
        plan_b.end_to_end, plan_b.psi
    );

    // Team C asks for the same afternoon slot at 10x scale ("fat"
    // session): nothing fits while A and B hold their windows…
    let window_c = (t(11.0), t(13.0));
    let view = registry.snapshot_window(window_c.0, window_c.1);
    let session_c = session_of(10.0);
    match plan(&session_c, &view) {
        Ok(_) => unreachable!(),
        Err(e) => println!("team C (10x) for 11:00-13:00 -> rejected: {e}"),
    }
    // …but the evening is wide open.
    let window_c = (t(14.0), t(16.0));
    let view = registry.snapshot_window(window_c.0, window_c.1);
    let plan_c = plan(&session_c, &view).unwrap();
    registry
        .book(
            &AdvanceRequest::rigid(SessionId(3), plan_c.total_demand(), window_c.0, window_c.1),
            t(0.0),
        )
        .into_result()
        .unwrap();
    println!(
        "team C books 14:00-16:00 -> {} at 10x (Ψ = {:.2})",
        plan_c.end_to_end, plan_c.psi
    );

    // Team A cancels; the overlap frees up for an upgrade.
    let cancelled = registry.cancel_all(SessionId(1));
    let view = registry.snapshot_window(window_b.0, window_b.1);
    println!(
        "after A cancels ({} bookings, {} volume-units released), \
         11:00-14:00 availability: bw = {}, cpu = {}",
        cancelled.bookings_removed,
        cancelled.released_volume,
        view.avail(bw),
        view.avail(cpu)
    );

    // A malleable bulk transfer: move 150 volume-units of results over
    // the path before 18:00, whenever contention is lowest — the broker
    // picks start, duration, and rate around the rigid bookings.
    let transfer = AdvanceRequest::malleable(SessionId(4), bw, 150.0, t(18.0))
        .earliest(t(11.0))
        .max_rate(60.0)
        .alpha_policy(AlphaPolicy::Tradeoff);
    let outcome = registry.book(&transfer, t(10.0));
    let profile = outcome.profile().expect("the evening is wide open");
    println!(
        "bulk transfer (150 units by 18:00) -> [{:.1}, {:.1}) over {} segment(s), psi = {:.2}",
        profile.start.value(),
        profile.end.value(),
        profile.segments.len(),
        profile.psi
    );

    // A rigid crisis session may preempt it: its fixed 80-unit path
    // demand does not fit next to the running transfer, so the broker
    // evicts the transfer, books the crisis window, and replans the
    // transfer around it — all-or-nothing.
    let crisis_demand = ResourceVector::from_pairs([(bw, 80.0), (cpu, 40.0)]).unwrap();
    let outcome = registry.book(
        &AdvanceRequest::rigid(SessionId(5), crisis_demand, t(11.0), t(13.0)).allow_preempt(true),
        t(10.0),
    );
    println!(
        "crisis session books 11:00-13:00, repacking {} malleable session(s)",
        outcome.moved().len()
    );
    if let Some(broker) = registry.get(bw) {
        for b in broker.bookings_of(SessionId(4)) {
            println!(
                "  transfer replanned: rate {:.1} over [{:.1}, {:.1})",
                b.amount,
                b.from.value(),
                b.to.value()
            );
        }
    }
}
