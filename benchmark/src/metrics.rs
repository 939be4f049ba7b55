//! The benchmark's vocabulary: every metric name with its unit, in the
//! order printed. `BENCHMARK.json` at the repository root lists the same
//! names (a test holds the two together); every later performance claim
//! in this repository is made in them.

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 4] = [
    "paper_establish",
    "serve_saturate",
    "serve_mixed",
    "advance_mix",
];

/// End-to-end metrics `(name, unit)`: what `--trace 0` prints.
pub const END_TO_END: [(&str, &str); 7] = [
    ("throughput_ops_s", "ops/s"),
    ("lat_p95_us", "us"),
    ("admit_share", "ratio"),
    ("mean_qos_rank", "rank"),
    ("mean_psi", "ratio"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
];

/// Per-layer metrics `(name, unit)`: what `--trace 1` prints. A layer a
/// workload does not cross reads 0 there.
pub const PER_LAYER: [(&str, &str); 65] = [
    // The run as a whole (untraced slice) and the generator.
    ("run.windows", "count"),
    ("run.best_lat_p50_us", "us"),
    ("run.best_lat_p99_us", "us"),
    ("run.best_cpu_us_per_op", "us"),
    ("run.mean_ops_s", "ops/s"),
    ("run.lat_p50_us", "us"),
    ("run.lat_p99_us", "us"),
    ("run.lat_p999_us", "us"),
    ("run.lat_max_us", "us"),
    ("run.window_rate_iqr_share", "ratio"),
    ("run.fail_share", "ratio"),
    ("gen.cpu_us_per_op", "us"),
    // Counting allocator, traced slice.
    ("alloc.count_per_op", "1/op"),
    ("alloc.bytes_per_op", "bytes/op"),
    // model / core.
    ("model.instantiate_ns", "ns"),
    ("core.prepare_ns", "ns"),
    ("core.plan_ns", "ns"),
    // broker: proxy, local brokers, network paths.
    ("broker.proxy.collect_ns", "ns"),
    ("broker.proxy.plan_ns", "ns"),
    ("broker.proxy.commit_ns", "ns"),
    ("broker.proxy.terminate_ns", "ns"),
    ("broker.proxy.messages_per_op", "1/op"),
    ("broker.proxy.rollback_share", "ratio"),
    ("broker.local.reserve_release_ns", "ns"),
    ("net.path_reserve_release_ns", "ns"),
    // broker: batched admission.
    ("broker.admission.admit_ns_per_session.b1", "ns"),
    ("broker.admission.admit_ns_per_session.b32", "ns"),
    ("broker.admission.admit_ns_per_session.b256", "ns"),
    ("broker.admission.queue_us", "us"),
    ("broker.admission.collect_us", "us"),
    ("broker.admission.plan_us", "us"),
    ("broker.admission.replan_us", "us"),
    ("broker.admission.commit_us", "us"),
    ("broker.admission.total_us", "us"),
    ("broker.admission.mean_round_size", "count"),
    ("broker.admission.replan_share", "ratio"),
    // broker: advance reservations.
    ("broker.advance.load_s", "s"),
    ("broker.advance.book_rigid_us", "us"),
    ("broker.advance.book_malleable_us", "us"),
    ("broker.advance.cancel_us", "us"),
    ("broker.advance.query_us", "us"),
    ("broker.advance.repack_share", "ratio"),
    ("broker.advance.reject_share", "ratio"),
    ("broker.advance.breakpoints", "count"),
    // cli: codecs.
    ("cli.wire.enc_request_ns", "ns"),
    ("cli.wire.dec_request_ns", "ns"),
    ("cli.wire.enc_response_ns", "ns"),
    ("cli.wire.dec_response_ns", "ns"),
    ("cli.wire.request_bytes_per_op", "bytes/op"),
    ("cli.wire.response_bytes_per_op", "bytes/op"),
    // cli: the server around the pipeline.
    ("cli.serve.outside_us", "us"),
    ("cli.serve.server_cpu_us_per_op", "us"),
    ("cli.serve.ctx_switches_per_op", "1/op"),
    ("cli.serve.ping_rtt_us", "us"),
    ("cli.serve.rtt1_us", "us"),
    ("cli.serve.connect_us", "us"),
    ("cli.serve.lease_release_us_per_session", "us"),
    ("cli.serve.open20k.lat_p50_us", "us"),
    ("cli.serve.open20k.lat_p99_us", "us"),
    ("cli.serve.open20k.late_p99_us", "us"),
    ("cli.serve.open20k.server_cpu_us_per_op", "us"),
    // obs / sim.
    ("obs.trace.overhead_ratio", "ratio"),
    ("obs.trace.spans", "count"),
    ("sim.scenario_us_per_op", "us"),
    ("sim.dsl_load_us", "us"),
];

/// One result line: the object the contract asks for as the last line
/// of standard output.
pub fn result_json(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&str, &str, f64)],
) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (name, unit, value)) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(&format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Deserialize;
    use std::collections::BTreeMap;

    #[derive(Deserialize)]
    struct Named {
        name: String,
        #[serde(default)]
        unit: Option<String>,
    }

    #[derive(Deserialize)]
    struct Declared {
        command: Vec<String>,
        paths: Vec<String>,
        run_seconds: u64,
        workloads: Vec<Named>,
        end_to_end: Vec<Named>,
        per_layer: Vec<Named>,
    }

    #[derive(Deserialize)]
    struct Value {
        value: f64,
        unit: String,
    }

    #[derive(Deserialize)]
    struct Line {
        correct: bool,
        attempted: u64,
        failed: u64,
        metrics: BTreeMap<String, Value>,
    }

    #[test]
    fn benchmark_json_declares_exactly_these_names_and_units() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let declared: Declared = serde_json::from_str(&text).expect("BENCHMARK.json parses");
        assert_eq!(declared.paths, ["benchmark"]);
        assert!(declared.command.iter().any(|a| a == "benchmark/Cargo.toml"));
        assert!((1..=60).contains(&declared.run_seconds));
        let names = |v: &[Named]| v.iter().map(|n| n.name.clone()).collect::<Vec<_>>();
        assert_eq!(names(&declared.workloads), WORKLOADS);
        let pairs = |v: &[Named]| {
            v.iter()
                .map(|n| (n.name.clone(), n.unit.clone().unwrap_or_default()))
                .collect::<Vec<_>>()
        };
        let own = |v: &[(&str, &str)]| {
            v.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect::<Vec<_>>()
        };
        assert_eq!(pairs(&declared.end_to_end), own(&END_TO_END));
        assert_eq!(pairs(&declared.per_layer), own(&PER_LAYER));
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(seen.insert(*name), "{name} is used twice");
            assert!(name.len() <= 64 && name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(unit.len() <= 16 && !unit.is_empty());
            assert!(unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(END_TO_END.iter().any(|&(n, u)| n == "setup_s" && u == "s"));
    }

    #[test]
    fn result_line_round_trips() {
        let line = result_json(
            true,
            1000,
            0,
            &[("lat_p95_us", "us", 1.2034), ("setup_s", "s", 0.5)],
        );
        let parsed: Line = serde_json::from_str(&line).unwrap();
        assert!(parsed.correct);
        assert_eq!((parsed.attempted, parsed.failed), (1000, 0));
        assert_eq!(parsed.metrics["lat_p95_us"].value, 1.2034);
        assert_eq!(parsed.metrics["setup_s"].unit, "s");
    }
}
