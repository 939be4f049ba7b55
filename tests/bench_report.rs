//! Guards the committed benchmark artifacts: `BENCH_obs.json` must
//! exist at the workspace root, carry every field the telemetry
//! overhead report promises, and show disabled-mode telemetry within
//! the noise envelope of the non-telemetry admission reference; and
//! `BENCH_replan.json` must carry the delta-repair figures with the
//! steady-state ≥ 3× repaired-vs-full relaxation claim intact; and
//! `BENCH_serve.json` must show the network front-end sustaining the
//! ≥ 100k requests/s claim with every request answered; and
//! `BENCH_advance.json` must hold the reservation index's ≥ 10×
//! window-query claim and the malleable planner's > 1 admitted-volume
//! uplift over rigid peak-rate booking. Runs
//! under plain `cargo test`, so CI fails if an artifact goes missing
//! or a bench regenerates one with its headline claim broken.

use serde::{find_field, Value};

fn load(name: &str) -> Vec<(String, Value)> {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(name);
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("{name} must be committed at the workspace root: {e}"));
    let value: ReportValue =
        serde_json::from_str(&text).unwrap_or_else(|e| panic!("{name} must parse as JSON: {e:?}"));
    value.0
}

/// Thin wrapper so the vendored `serde_json::from_str` (which needs a
/// `Deserialize` target) hands back the raw object fields.
struct ReportValue(Vec<(String, Value)>);

impl serde::Deserialize for ReportValue {
    fn from_value(v: &Value) -> Result<Self, serde::DeError> {
        match v.as_object() {
            Some(fields) => Ok(ReportValue(fields.to_vec())),
            None => Err(serde::DeError::custom("expected a JSON object")),
        }
    }
}

fn number(fields: &[(String, Value)], name: &str) -> f64 {
    match find_field(fields, name) {
        Some(Value::Float(f)) => *f,
        Some(Value::Int(n)) => *n as f64,
        Some(Value::UInt(n)) => *n as f64,
        other => panic!("field {name:?} must be a number, got {other:?}"),
    }
}

#[test]
fn bench_obs_json_has_the_required_fields() {
    let fields = load("BENCH_obs.json");
    assert_eq!(
        find_field(&fields, "bench").and_then(Value::as_str),
        Some("obs_overhead")
    );
    assert_eq!(
        find_field(&fields, "unit").and_then(Value::as_str),
        Some("ns/session")
    );
    for required in [
        "disabled_ns_per_session",
        "enabled_ns_per_session",
        "traced_ns_per_session",
        "request_traced_ns_per_session",
        "enabled_overhead_ratio",
        "traced_overhead_ratio",
        "request_traced_overhead_ratio",
    ] {
        let v = number(&fields, required);
        assert!(v.is_finite() && v > 0.0, "{required} = {v}");
    }
}

#[test]
fn bench_obs_disabled_mode_is_within_noise() {
    let fields = load("BENCH_obs.json");
    match find_field(&fields, "disabled_within_noise") {
        Some(Value::Bool(true)) => {}
        other => panic!("disabled_within_noise must be true, got {other:?}"),
    }
    // The committed run carried a reference measurement; keep the ratio
    // honest too (the bench asserts <= 1.10 before writing — with
    // request tracing disabled the extra cost is one relaxed atomic
    // load per request, so only machine noise separates the runs).
    let ratio = number(&fields, "disabled_vs_reference_ratio");
    assert!(
        ratio > 0.0 && ratio <= 1.10,
        "disabled/reference ratio {ratio} outside the noise envelope"
    );
}

#[test]
fn bench_replan_json_has_the_required_fields() {
    let fields = load("BENCH_replan.json");
    assert_eq!(
        find_field(&fields, "bench").and_then(Value::as_str),
        Some("replan")
    );
    assert_eq!(
        find_field(&fields, "unit").and_then(Value::as_str),
        Some("ns/prepare")
    );
    assert_eq!(
        find_field(&fields, "chain").and_then(Value::as_str),
        Some("4x4")
    );
    for required in [
        "full_ns_per_prepare",
        "repaired_ns_per_prepare",
        "speedup",
        "repairs",
        "mean_candidates_reevaluated",
        "mean_nodes_recomputed",
    ] {
        let v = number(&fields, required);
        assert!(v.is_finite() && v > 0.0, "{required} = {v}");
    }
    // The committed run used the exact (bit-identical) threshold.
    assert_eq!(number(&fields, "psi_threshold"), 0.0);
}

#[test]
fn bench_replan_repair_is_at_least_three_times_faster() {
    let fields = load("BENCH_replan.json");
    let speedup = number(&fields, "speedup");
    assert!(
        speedup >= 3.0,
        "committed steady-state repair speedup {speedup} dropped below 3x"
    );
    // Only the cold start may rebuild fully in steady state.
    assert_eq!(number(&fields, "cold_fallbacks"), 1.0);
    let full = number(&fields, "full_ns_per_prepare");
    let repaired = number(&fields, "repaired_ns_per_prepare");
    let ratio = full / repaired;
    assert!(
        (ratio - speedup).abs() < 1e-6,
        "speedup field {speedup} inconsistent with {full}/{repaired}"
    );
}

#[test]
fn bench_advance_json_has_the_required_fields() {
    let fields = load("BENCH_advance.json");
    assert_eq!(
        find_field(&fields, "bench").and_then(Value::as_str),
        Some("advance")
    );
    assert_eq!(
        find_field(&fields, "unit").and_then(Value::as_str),
        Some("ns/query")
    );
    for required in [
        "bookings",
        "breakpoints",
        "oracle_ns_per_query",
        "index_ns_per_query",
        "query_speedup",
        "transfers_offered",
        "rigid_admitted_volume",
        "malleable_admitted_volume",
        "admitted_volume_uplift",
    ] {
        let v = number(&fields, required);
        assert!(v.is_finite() && v > 0.0, "{required} = {v}");
    }
    // The headline claim is made at a million bookings.
    assert_eq!(number(&fields, "bookings"), 1_000_000.0);
}

#[test]
fn bench_advance_index_and_uplift_claims_hold() {
    let fields = load("BENCH_advance.json");
    let speedup = number(&fields, "query_speedup");
    assert!(
        speedup >= 10.0,
        "committed window-query speedup {speedup} dropped below 10x"
    );
    let oracle = number(&fields, "oracle_ns_per_query");
    let index = number(&fields, "index_ns_per_query");
    let ratio = oracle / index;
    assert!(
        ((ratio - speedup) / speedup).abs() < 1e-9,
        "query_speedup field {speedup} inconsistent with {oracle}/{index}"
    );
    let uplift = number(&fields, "admitted_volume_uplift");
    assert!(
        uplift > 1.0,
        "committed malleable-vs-rigid admitted-volume uplift {uplift} is not > 1"
    );
    let rigid = number(&fields, "rigid_admitted_volume");
    let malleable = number(&fields, "malleable_admitted_volume");
    assert!(
        ((malleable / rigid - uplift) / uplift).abs() < 1e-9,
        "admitted_volume_uplift field {uplift} inconsistent with {malleable}/{rigid}"
    );
}

#[test]
fn bench_admission_carries_the_phase_breakdown() {
    let fields = load("BENCH_admission.json");
    let breakdown = find_field(&fields, "phase_breakdown")
        .and_then(Value::as_array)
        .expect("BENCH_admission.json phase_breakdown array");
    let mut phases: Vec<&str> = Vec::new();
    for row in breakdown.iter().filter_map(Value::as_object) {
        let phase = find_field(row, "phase")
            .and_then(Value::as_str)
            .expect("phase name");
        phases.push(phase);
        for required in ["spans", "mean_ns", "ns_per_session"] {
            let v = number(row, required);
            assert!(v.is_finite() && v >= 0.0, "{phase}.{required} = {v}");
        }
    }
    for expected in ["collect", "plan", "commit"] {
        assert!(
            phases.contains(&expected),
            "phase breakdown must include {expected:?}, got {phases:?}"
        );
    }
}

#[test]
fn bench_serve_json_has_the_required_fields() {
    let fields = load("BENCH_serve.json");
    assert_eq!(
        find_field(&fields, "bench").and_then(Value::as_str),
        Some("serve")
    );
    assert_eq!(
        find_field(&fields, "unit").and_then(Value::as_str),
        Some("requests/s")
    );
    assert_eq!(
        find_field(&fields, "world").and_then(Value::as_str),
        Some("bench")
    );
    let load_report = find_field(&fields, "load")
        .and_then(Value::as_object)
        .expect("BENCH_serve.json load object");
    for required in [
        "rate_target",
        "connections",
        "duration_s",
        "requests",
        "responses",
        "elapsed_s",
        "requests_per_sec",
        "p50_ns",
        "p99_ns",
        "p999_ns",
        "mean_ns",
        "max_ns",
    ] {
        let v = number(load_report, required);
        assert!(v.is_finite() && v > 0.0, "load.{required} = {v}");
    }
    // Percentiles must be ordered and every request answered.
    assert!(number(load_report, "p50_ns") <= number(load_report, "p99_ns"));
    assert!(number(load_report, "p99_ns") <= number(load_report, "p999_ns"));
    assert!(number(load_report, "p999_ns") <= number(load_report, "max_ns"));
    assert_eq!(
        number(load_report, "requests"),
        number(load_report, "responses"),
        "the committed run must have drained every request"
    );
}

#[test]
fn bench_serve_sustains_the_throughput_claim() {
    let fields = load("BENCH_serve.json");
    let load_report = find_field(&fields, "load")
        .and_then(Value::as_object)
        .expect("BENCH_serve.json load object");
    let rps = number(load_report, "requests_per_sec");
    assert!(
        rps >= 100_000.0,
        "committed serve throughput {rps:.0} req/s dropped below the 100k claim"
    );
    let committed = number(load_report, "committed");
    assert!(
        committed > 0.0,
        "the committed run must have admitted sessions"
    );
}

#[test]
fn bench_obs_agrees_with_the_admission_reference() {
    let obs = load("BENCH_obs.json");
    let admission = load("BENCH_admission.json");
    let reference = number(&obs, "reference_admission_ns_per_session");
    let committed = number(&admission, "pipeline_ns_per_session");
    assert_eq!(
        reference, committed,
        "BENCH_obs.json must have been generated against the committed admission reference"
    );
}
