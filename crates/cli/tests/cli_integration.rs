//! End-to-end tests of the CLI commands over the checked-in scenario
//! files.

use qosr_cli::commands::{dot, plan, validate};
use qosr_core::Planner;
use std::path::PathBuf;

fn data(file: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/data")
        .join(file)
}

#[test]
fn video_tracking_scenario_plans_around_the_bottleneck() {
    let path = data("video_tracking.json");
    let summary = validate(&path).unwrap();
    assert!(summary.contains("3 components"));
    assert!(summary.contains("chain"));

    // The server->proxy path has only 26 units: the native high-quality
    // feed (24 in + intrapolation unavailable at that grade) forces the
    // planner to weigh intrapolation at the tracker (26 CPU, 12 bw)
    // against the heavy stream (16 CPU, 24 bw). Both reach the top
    // end-to-end level; the minimax plan picks the lower-psi one.
    let out = plan(&path, Planner::Basic, 0, &[]).unwrap();
    assert!(out.contains("rank 3 of 3"), "{out}");
    // Bottleneck must be reported with its resource name.
    assert!(out.contains("bottleneck"));

    let dot_out = dot(&path).unwrap();
    assert!(dot_out.contains("VideoSender"));
    assert!(dot_out.contains("digraph"));
}

#[test]
fn all_planners_run_on_the_simple_scenario() {
    let path = data("clip.json");
    for p in [
        Planner::Basic,
        Planner::Tradeoff,
        Planner::Random,
        Planner::Dag,
    ] {
        let out = plan(&path, p, 7, &[]).unwrap();
        assert!(out.contains("end-to-end QoS"), "{p:?}: {out}");
    }
}

#[test]
fn missing_file_is_an_io_error() {
    let err = validate(&data("nope.json")).unwrap_err();
    assert!(err.to_string().contains("I/O error"));
}

#[test]
fn explain_and_overrides() {
    use qosr_cli::commands::explain;
    let path = data("video_tracking.json");
    // Baseline: top level reachable.
    let out = explain(&path, &[]).unwrap();
    assert!(out.contains("reachable"));
    assert!(out.contains("committed plan"));

    // Starve the proxy CPU: the top levels become unreachable.
    let overrides = vec![("proxy.cpu".to_owned(), 6.0)];
    let out = explain(&path, &overrides).unwrap();
    assert!(out.contains("UNREACHABLE"), "{out}");

    // plan honours the same override.
    let out = plan(&path, Planner::Basic, 0, &overrides).unwrap();
    assert!(out.contains("frame_rate=15"), "{out}");

    // Unknown override name is a clear error.
    let err = explain(&path, &[("nope".to_owned(), 1.0)]).unwrap_err();
    assert!(err.to_string().contains("nope"));
}

/// Runs the `qosr` binary from this crate's directory.
fn qosr(args: &[&str]) -> std::process::Output {
    std::process::Command::new(env!("CARGO_BIN_EXE_qosr"))
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .expect("qosr runs")
}

#[test]
fn avail_overrides_must_be_a_number_of_units() {
    for bad in ["NaN", "-5", "inf", "1e400"] {
        let avail = format!("server.cpu={bad}");
        let out = qosr(&["plan", "tests/data/clip.json", "--avail", &avail]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "{bad} was accepted");
        assert!(
            stderr.contains("\"server.cpu\": available must be"),
            "{bad}: {stderr}"
        );
    }
    let out = qosr(&["plan", "tests/data/clip.json", "--avail", "server.cpu=0"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    // Zero units is a valid availability: planning runs and finds nothing.
    assert!(
        stderr.contains("planning failed: no end-to-end"),
        "{stderr}"
    );
}

#[test]
fn live_commands_refuse_the_dag_planner() {
    for command in ["metrics", "top"] {
        let out = qosr(&[command, "--planner", "dag", "--horizon", "1"]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "{command} ran with --planner dag");
        assert!(
            stderr.contains("--planner accepts basic, tradeoff or random"),
            "{command}: {stderr}"
        );
    }
}

/// Runs the `qosr` binary and returns its standard output, asserting a
/// successful exit.
fn qosr_stdout(args: &[&str]) -> String {
    let out = qosr(args);
    assert!(
        out.status.success(),
        "qosr {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("stdout is UTF-8")
}

#[test]
fn cli_stdout_is_pinned() {
    for (args, expected) in CLI_PINS {
        assert_eq!(qosr_stdout(args), *expected, "qosr {args:?}");
    }
}

/// `qosr` invocations and their exact standard output, recorded from the
/// binary built before the planner was reduced to one representation.
const CLI_PINS: &[(&[&str], &str)] = &[
    (
        &["plan", "tests/data/clip.json", "--planner", "basic"],
        r#"end-to-end QoS: player.out[frame_rate=30] (rank 2 of 2)
  encoder          source[frame_rate=30] -> encoder.out[frame_rate=30]
    reserve    25.00 of server.cpu
  player           encoder.out[frame_rate=30] -> player.out[frame_rate=30]
    reserve    16.00 of path:server->client
bottleneck Ψ = 0.3200
  on path:server->client (ψ = 0.3200, α = 0.90)
"#,
    ),
    (
        &["plan", "tests/data/clip.json", "--planner", "tradeoff"],
        r#"end-to-end QoS: player.out[frame_rate=15] (rank 1 of 2)
  encoder          source[frame_rate=30] -> encoder.out[frame_rate=15]
    reserve    12.00 of server.cpu
  player           encoder.out[frame_rate=15] -> player.out[frame_rate=15]
    reserve     8.00 of path:server->client
bottleneck Ψ = 0.1600
  on path:server->client (ψ = 0.1600, α = 0.90)
"#,
    ),
    (
        &[
            "plan",
            "tests/data/clip.json",
            "--planner",
            "random",
            "--seed",
            "7",
        ],
        r#"end-to-end QoS: player.out[frame_rate=30] (rank 2 of 2)
  encoder          source[frame_rate=30] -> encoder.out[frame_rate=30]
    reserve    25.00 of server.cpu
  player           encoder.out[frame_rate=30] -> player.out[frame_rate=30]
    reserve    16.00 of path:server->client
bottleneck Ψ = 0.3200
  on path:server->client (ψ = 0.3200, α = 0.90)
"#,
    ),
    (
        &["plan", "tests/data/clip.json", "--planner", "dag"],
        r#"end-to-end QoS: player.out[frame_rate=30] (rank 2 of 2)
  encoder          source[frame_rate=30] -> encoder.out[frame_rate=30]
    reserve    25.00 of server.cpu
  player           encoder.out[frame_rate=30] -> player.out[frame_rate=30]
    reserve    16.00 of path:server->client
bottleneck Ψ = 0.3200
  on path:server->client (ψ = 0.3200, α = 0.90)
"#,
    ),
    (
        &[
            "plan",
            "tests/data/video_tracking.json",
            "--planner",
            "basic",
        ],
        r#"end-to-end QoS: VideoPlayer.out[frame_rate=30, image_size=480, objects=2, smoothness=2] (rank 3 of 3)
  VideoSender      source[frame_rate=30, image_size=480] -> VideoSender.out[frame_rate=30, image_size=240]
    reserve    10.00 of server.cpu
    reserve    14.00 of server.disk
  ObjectTracker    VideoSender.out[frame_rate=30, image_size=240] -> ObjectTracker.out[frame_rate=30, image_size=480, objects=2]
    reserve    26.00 of proxy.cpu
    reserve    12.00 of path:server->proxy
  VideoPlayer      ObjectTracker.out[frame_rate=30, image_size=480, objects=2] -> VideoPlayer.out[frame_rate=30, image_size=480, objects=2, smoothness=2]
    reserve    30.00 of path:proxy->client
bottleneck Ψ = 0.4615
  on path:server->proxy (ψ = 0.4615, α = 1.00)
"#,
    ),
    (
        &[
            "plan",
            "tests/data/video_tracking.json",
            "--planner",
            "tradeoff",
        ],
        r#"end-to-end QoS: VideoPlayer.out[frame_rate=30, image_size=480, objects=2, smoothness=2] (rank 3 of 3)
  VideoSender      source[frame_rate=30, image_size=480] -> VideoSender.out[frame_rate=30, image_size=240]
    reserve    10.00 of server.cpu
    reserve    14.00 of server.disk
  ObjectTracker    VideoSender.out[frame_rate=30, image_size=240] -> ObjectTracker.out[frame_rate=30, image_size=480, objects=2]
    reserve    26.00 of proxy.cpu
    reserve    12.00 of path:server->proxy
  VideoPlayer      ObjectTracker.out[frame_rate=30, image_size=480, objects=2] -> VideoPlayer.out[frame_rate=30, image_size=480, objects=2, smoothness=2]
    reserve    30.00 of path:proxy->client
bottleneck Ψ = 0.4615
  on path:server->proxy (ψ = 0.4615, α = 1.00)
"#,
    ),
    (
        &[
            "plan",
            "tests/data/video_tracking.json",
            "--planner",
            "random",
            "--seed",
            "7",
        ],
        r#"end-to-end QoS: VideoPlayer.out[frame_rate=30, image_size=480, objects=2, smoothness=2] (rank 3 of 3)
  VideoSender      source[frame_rate=30, image_size=480] -> VideoSender.out[frame_rate=30, image_size=480]
    reserve    18.00 of server.cpu
    reserve    26.00 of server.disk
  ObjectTracker    VideoSender.out[frame_rate=30, image_size=480] -> ObjectTracker.out[frame_rate=30, image_size=480, objects=2]
    reserve    16.00 of proxy.cpu
    reserve    24.00 of path:server->proxy
  VideoPlayer      ObjectTracker.out[frame_rate=30, image_size=480, objects=2] -> VideoPlayer.out[frame_rate=30, image_size=480, objects=2, smoothness=2]
    reserve    30.00 of path:proxy->client
bottleneck Ψ = 0.9231
  on path:server->proxy (ψ = 0.9231, α = 1.00)
"#,
    ),
    (
        &["plan", "tests/data/video_tracking.json", "--planner", "dag"],
        r#"end-to-end QoS: VideoPlayer.out[frame_rate=30, image_size=480, objects=2, smoothness=2] (rank 3 of 3)
  VideoSender      source[frame_rate=30, image_size=480] -> VideoSender.out[frame_rate=30, image_size=240]
    reserve    10.00 of server.cpu
    reserve    14.00 of server.disk
  ObjectTracker    VideoSender.out[frame_rate=30, image_size=240] -> ObjectTracker.out[frame_rate=30, image_size=480, objects=2]
    reserve    26.00 of proxy.cpu
    reserve    12.00 of path:server->proxy
  VideoPlayer      ObjectTracker.out[frame_rate=30, image_size=480, objects=2] -> VideoPlayer.out[frame_rate=30, image_size=480, objects=2, smoothness=2]
    reserve    30.00 of path:proxy->client
bottleneck Ψ = 0.4615
  on path:server->proxy (ψ = 0.4615, α = 1.00)
"#,
    ),
    (
        &[
            "plan",
            "tests/data/video_tracking.json",
            "--avail",
            "proxy.cpu=6",
        ],
        r#"end-to-end QoS: VideoPlayer.out[frame_rate=15, image_size=240, objects=1, smoothness=1] (rank 1 of 3)
  VideoSender      source[frame_rate=30, image_size=480] -> VideoSender.out[frame_rate=15, image_size=240]
    reserve     6.00 of server.cpu
    reserve     8.00 of server.disk
  ObjectTracker    VideoSender.out[frame_rate=15, image_size=240] -> ObjectTracker.out[frame_rate=15, image_size=240, objects=1]
    reserve     5.00 of proxy.cpu
    reserve     6.00 of path:server->proxy
  VideoPlayer      ObjectTracker.out[frame_rate=15, image_size=240, objects=1] -> VideoPlayer.out[frame_rate=15, image_size=240, objects=1, smoothness=1]
    reserve     6.00 of path:proxy->client
bottleneck Ψ = 0.8333
  on proxy.cpu (ψ = 0.8333, α = 1.00)
"#,
    ),
    (
        &["explain", "tests/data/clip.json"],
        r#"end-to-end levels (best first):
  player.out[frame_rate=30]  reachable, bottleneck ψ = 0.3200
  player.out[frame_rate=15]  reachable, bottleneck ψ = 0.1600
4 of 6 (Q^in, Q^out) pairs feasible across 2 components
committed plan: player.out[frame_rate=30] at Ψ = 0.3200
  bottleneck path:server->client (ψ = 0.3200, α = 0.90)
"#,
    ),
    (
        &["explain", "tests/data/video_tracking.json"],
        r#"end-to-end levels (best first):
  VideoPlayer.out[frame_rate=30, image_size=480, objects=2, smoothness=2]  reachable, bottleneck ψ = 0.4615
  VideoPlayer.out[frame_rate=30, image_size=240, objects=2, smoothness=2]  reachable, bottleneck ψ = 0.4615
  VideoPlayer.out[frame_rate=15, image_size=240, objects=1, smoothness=1]  reachable, bottleneck ψ = 0.2308
10 of 21 (Q^in, Q^out) pairs feasible across 3 components
committed plan: VideoPlayer.out[frame_rate=30, image_size=480, objects=2, smoothness=2] at Ψ = 0.4615
  bottleneck path:server->proxy (ψ = 0.4615, α = 1.00)
"#,
    ),
    (
        &[
            "explain",
            "tests/data/video_tracking.json",
            "--avail",
            "proxy.cpu=6",
        ],
        r#"end-to-end levels (best first):
  VideoPlayer.out[frame_rate=30, image_size=480, objects=2, smoothness=2]  UNREACHABLE under current availability
  VideoPlayer.out[frame_rate=30, image_size=240, objects=2, smoothness=2]  UNREACHABLE under current availability
  VideoPlayer.out[frame_rate=15, image_size=240, objects=1, smoothness=1]  reachable, bottleneck ψ = 0.8333
7 of 21 (Q^in, Q^out) pairs feasible across 3 components
committed plan: VideoPlayer.out[frame_rate=15, image_size=240, objects=1, smoothness=1] at Ψ = 0.8333
  bottleneck proxy.cpu (ψ = 0.8333, α = 1.00)
"#,
    ),
    (
        &["dot", "tests/data/clip.json"],
        r#"digraph qrg {
  rankdir=LR;
  node [shape=ellipse, fontsize=10];
  subgraph cluster_0 {
    label="encoder";
    style=dashed;
    n0 [label="in source[frame_rate=30]"];
    n1 [label="out encoder.out[frame_rate=15]"];
    n2 [label="out encoder.out[frame_rate=30]"];
  }
  subgraph cluster_1 {
    label="player";
    style=dashed;
    n3 [label="in encoder.out[frame_rate=15]"];
    n4 [label="in encoder.out[frame_rate=30]"];
    n5 [label="out player.out[frame_rate=15]"];
    n6 [label="out player.out[frame_rate=30]"];
  }
  n0 -> n1 [label="0.120"];
  n0 -> n2 [label="0.250"];
  n3 -> n5 [label="0.160"];
  n4 -> n6 [label="0.320"];
  n1 -> n3 [style=dashed, arrowhead=none];
  n2 -> n4 [style=dashed, arrowhead=none];
}
"#,
    ),
    (
        &["dot", "tests/data/video_tracking.json"],
        r#"digraph qrg {
  rankdir=LR;
  node [shape=ellipse, fontsize=10];
  subgraph cluster_0 {
    label="VideoSender";
    style=dashed;
    n0 [label="in source[frame_rate=30, image_size=480]"];
    n1 [label="out VideoSender.out[frame_rate=15, image_size=240]"];
    n2 [label="out VideoSender.out[frame_rate=30, image_size=240]"];
    n3 [label="out VideoSender.out[frame_rate=30, image_size=480]"];
  }
  subgraph cluster_1 {
    label="ObjectTracker";
    style=dashed;
    n4 [label="in VideoSender.out[frame_rate=15, image_size=240]"];
    n5 [label="in VideoSender.out[frame_rate=30, image_size=240]"];
    n6 [label="in VideoSender.out[frame_rate=30, image_size=480]"];
    n7 [label="out ObjectTracker.out[frame_rate=15, image_size=240, objects=1]"];
    n8 [label="out ObjectTracker.out[frame_rate=30, image_size=240, objects=2]"];
    n9 [label="out ObjectTracker.out[frame_rate=30, image_size=480, objects=2]"];
  }
  subgraph cluster_2 {
    label="VideoPlayer";
    style=dashed;
    n10 [label="in ObjectTracker.out[frame_rate=15, image_size=240, objects=1]"];
    n11 [label="in ObjectTracker.out[frame_rate=30, image_size=240, objects=2]"];
    n12 [label="in ObjectTracker.out[frame_rate=30, image_size=480, objects=2]"];
    n13 [label="out VideoPlayer.out[frame_rate=15, image_size=240, objects=1, smoothness=1]"];
    n14 [label="out VideoPlayer.out[frame_rate=30, image_size=240, objects=2, smoothness=2]"];
    n15 [label="out VideoPlayer.out[frame_rate=30, image_size=480, objects=2, smoothness=2]"];
  }
  n0 -> n1 [label="0.080"];
  n0 -> n2 [label="0.140"];
  n0 -> n3 [label="0.260"];
  n4 -> n7 [label="0.231"];
  n5 -> n8 [label="0.462"];
  n5 -> n9 [label="0.462"];
  n6 -> n9 [label="0.923"];
  n1 -> n4 [style=dashed, arrowhead=none];
  n2 -> n5 [style=dashed, arrowhead=none];
  n3 -> n6 [style=dashed, arrowhead=none];
  n10 -> n13 [label="0.060"];
  n11 -> n14 [label="0.160"];
  n12 -> n15 [label="0.300"];
  n7 -> n10 [style=dashed, arrowhead=none];
  n8 -> n11 [style=dashed, arrowhead=none];
  n9 -> n12 [style=dashed, arrowhead=none];
}
"#,
    ),
];
