//! The paper's running example (figures 1, 4, and 5): a *Video
//! Streaming + Tracking* service.
//!
//! A video server streams to a tracking proxy that recognizes objects in
//! the frames, then forwards the stream plus tracking results to the
//! client. Three components: `VideoSender → ObjectTracker → VideoPlayer`.
//! Both the tracker and the player have the paper's hypothetical *image
//! intrapolation* capability — they can upscale a lower-quality input at
//! the cost of extra CPU — which is what creates multiple feasible
//! reservation plans per end-to-end QoS level.
//!
//! The example plans the same session under several availability
//! snapshots and shows how the selected plan and its bottleneck shift —
//! the paper's "contention-awareness" in action.
//!
//! ```sh
//! cargo run --example video_tracking
//! ```

use qosr::prelude::*;
use rand::SeedableRng;
use std::sync::Arc;

fn main() {
    // QoS spaces: the sender's output is [frame_rate, image_size]; the
    // tracker adds the number of trackable objects; the player adds
    // buffering delay (smaller value index = larger delay).
    let src = QosSchema::new("master", ["frame_rate", "image_size"]);
    let feed = QosSchema::new("feed", ["frame_rate", "image_size"]);
    let tracked = QosSchema::new("tracked", ["frame_rate", "image_size", "objects"]);
    let shown = QosSchema::new(
        "shown",
        ["frame_rate", "image_size", "objects", "smoothness"],
    );

    let sv = |r, s| QosVector::new(src.clone(), [r, s]);
    let fv = |r, s| QosVector::new(feed.clone(), [r, s]);
    let tv = |r, s, o| QosVector::new(tracked.clone(), [r, s, o]);
    let pv = |r, s, o, d| QosVector::new(shown.clone(), [r, s, o, d]);

    // VideoSender: CPU + disk I/O on the video server.
    let sender = ComponentSpec::new(
        "VideoSender",
        vec![sv(30, 480)],
        vec![fv(15, 240), fv(30, 240), fv(30, 480)],
        vec![
            SlotSpec::new("cpu", ResourceKind::Compute),
            SlotSpec::new("disk", ResourceKind::DiskIo),
        ],
        Arc::new(
            TableTranslation::builder(1, 3, 2)
                .entry(0, 0, [6.0, 8.0])
                .entry(0, 1, [10.0, 14.0])
                .entry(0, 2, [18.0, 26.0])
                .build(),
        ),
    );

    // ObjectTracker: CPU on the proxy + bandwidth server->proxy. It can
    // upscale 240-line input to 480 ("image intrapolation") for more
    // CPU, and track 1 or 2 objects.
    let tracker = ComponentSpec::new(
        "ObjectTracker",
        vec![fv(15, 240), fv(30, 240), fv(30, 480)],
        vec![
            tv(15, 240, 1),
            tv(30, 240, 2),
            tv(30, 480, 1),
            tv(30, 480, 2),
        ],
        vec![
            SlotSpec::new("cpu", ResourceKind::Compute),
            SlotSpec::new("bw_in", ResourceKind::NetworkPath),
        ],
        Arc::new(
            TableTranslation::builder(3, 4, 2)
                // From the 15/240 feed: cheap, low quality only.
                .entry(0, 0, [5.0, 6.0])
                // From 30/240: track 2 objects, or upscale to 480.
                .entry(1, 1, [12.0, 12.0])
                .entry(1, 2, [20.0, 12.0]) // intrapolation: extra CPU
                .entry(1, 3, [26.0, 12.0])
                // From 30/480: native high quality.
                .entry(2, 2, [10.0, 24.0])
                .entry(2, 3, [16.0, 24.0])
                .build(),
        ),
    );

    // VideoPlayer: CPU at the client + bandwidth proxy->client. Its
    // output adds smoothness (1 = long buffering, 2 = short).
    let player = ComponentSpec::new(
        "VideoPlayer",
        vec![
            tv(15, 240, 1),
            tv(30, 240, 2),
            tv(30, 480, 1),
            tv(30, 480, 2),
        ],
        vec![
            pv(15, 240, 1, 1),
            pv(30, 240, 2, 1),
            pv(30, 240, 2, 2),
            pv(30, 480, 1, 2),
            pv(30, 480, 2, 1),
            pv(30, 480, 2, 2),
        ],
        vec![
            SlotSpec::new("cpu", ResourceKind::Compute),
            SlotSpec::new("bw_out", ResourceKind::NetworkPath),
        ],
        Arc::new(
            TableTranslation::builder(4, 6, 2)
                .entry(0, 0, [3.0, 6.0])
                .entry(1, 1, [6.0, 12.0])
                .entry(1, 2, [9.0, 16.0]) // short buffering needs headroom
                .entry(2, 3, [8.0, 22.0])
                .entry(3, 4, [10.0, 24.0])
                .entry(3, 5, [14.0, 30.0])
                .build(),
        ),
    );

    // The user ranks the six end-to-end levels linearly (the paper lets
    // the user arbitrate incomparable levels).
    let service = Arc::new(
        ServiceSpec::chain(
            "video-streaming+tracking",
            vec![sender, tracker, player],
            vec![1, 2, 3, 4, 5, 6],
        )
        .unwrap(),
    );

    // Resources: server cpu+disk, proxy cpu, client cpu, two paths.
    let mut space = ResourceSpace::new();
    let s_cpu = space.register("server.cpu", ResourceKind::Compute);
    let s_disk = space.register("server.disk", ResourceKind::DiskIo);
    let p_cpu = space.register("proxy.cpu", ResourceKind::Compute);
    let c_cpu = space.register("client.cpu", ResourceKind::Compute);
    let bw_sp = space.register("path:server->proxy", ResourceKind::NetworkPath);
    let bw_pc = space.register("path:proxy->client", ResourceKind::NetworkPath);

    let session = SessionInstance::new(
        service,
        vec![
            ComponentBinding::new([s_cpu, s_disk]),
            ComponentBinding::new([p_cpu, bw_sp]),
            ComponentBinding::new([c_cpu, bw_pc]),
        ],
        1.0,
    )
    .unwrap();
    session.validate_kinds(&space).unwrap();

    // Three availability snapshots: balanced, bandwidth-starved between
    // server and proxy, and CPU-starved at the proxy.
    let snapshots: [(&str, [f64; 6]); 3] = [
        ("balanced", [100.0, 100.0, 100.0, 100.0, 100.0, 100.0]),
        (
            "server->proxy bandwidth scarce",
            [100.0, 100.0, 100.0, 100.0, 26.0, 100.0],
        ),
        (
            "proxy CPU scarce",
            [100.0, 100.0, 22.0, 100.0, 100.0, 100.0],
        ),
    ];

    let mut ctx = PlanCtx::new();
    // Only the random planner reads it.
    let mut rng = rand::rngs::StdRng::seed_from_u64(0);
    for (name, avail) in snapshots {
        let mut view = AvailabilityView::new();
        for (i, rid) in [s_cpu, s_disk, p_cpu, c_cpu, bw_sp, bw_pc]
            .into_iter()
            .enumerate()
        {
            view.set(rid, avail[i]);
        }
        ctx.prepare(&session, &view, &QrgOptions::default());
        println!("snapshot: {name}");
        match ctx.plan(Planner::Basic, &mut rng) {
            Ok(plan) => {
                println!("  end-to-end QoS: {} (rank {})", plan.end_to_end, plan.rank);
                for a in &plan.assignments {
                    let comp = session.service().component(a.component);
                    println!(
                        "  {:>13}: {} -> {}  reserving {}",
                        comp.name(),
                        comp.input_levels()[a.qin],
                        comp.output_levels()[a.qout],
                        a.demand,
                    );
                }
                if let Some(b) = plan.bottleneck {
                    println!(
                        "  bottleneck: {} at Ψ = {:.2}",
                        space.name(b.resource),
                        b.psi
                    );
                }
            }
            Err(e) => println!("  no feasible plan: {e}"),
        }
        println!();
    }
}
