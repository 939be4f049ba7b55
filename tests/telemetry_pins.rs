//! Live telemetry pinned as literals: for seeded instrumented runs, the
//! run's `RunMetrics` and an FNV-1a 64 of `MetricsRegistry::render()`
//! with the wall-clock `qosr_phase_duration_seconds` family removed.
//!
//! What is left after that removal (every counter family, the committed
//! Ψ histogram and every gauge series) is a function of the run alone,
//! so these pins hold across changes to how phases are timed. Sample
//! values are hashed at 12 significant digits: the per-host utilization
//! gauge sums broker capacities in registry iteration order, which is
//! not fixed, so its last bit varies from run to run.

use qosr::obs::{MetricsRegistry, NullSink};
use qosr::sim::{run_scenario_instrumented, BatchArrivals, ScenarioConfig};
use std::sync::Arc;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(FNV_OFFSET, |hash, &b| {
        (hash ^ u64::from(b)).wrapping_mul(FNV_PRIME)
    })
}

/// The exposition minus every line of the phase-duration family, each
/// sample value rounded to 12 significant digits.
fn render_without_phases(registry: &MetricsRegistry) -> String {
    let mut out = String::new();
    for line in registry.render().lines() {
        if line.contains("qosr_phase_duration_seconds") {
            continue;
        }
        match line.rsplit_once(' ').map(|(k, v)| (k, v.parse::<f64>())) {
            Some((key, Ok(value))) if !line.starts_with('#') => {
                out.push_str(&format!("{key} {value:.11e}\n"));
            }
            _ => out.push_str(&format!("{line}\n")),
        }
    }
    out
}

/// One pinned case: `(RunMetrics as JSON, render digest)`.
fn observe(config: &ScenarioConfig) -> (String, u64) {
    let registry = MetricsRegistry::new();
    let result = run_scenario_instrumented(config, Arc::new(NullSink), Some(&registry));
    let metrics = serde_json::to_string(&result.metrics).unwrap();
    (metrics, fnv1a(render_without_phases(&registry).as_bytes()))
}

fn config(batch: Option<BatchArrivals>) -> ScenarioConfig {
    ScenarioConfig {
        seed: 21,
        rate_per_60tu: 150.0,
        horizon: 600.0,
        sample_period: Some(30.0),
        batch_arrivals: batch,
        ..Default::default()
    }
}

fn check(name: &str, config: &ScenarioConfig, pin: (&str, u64)) {
    let (metrics, digest) = observe(config);
    assert_eq!(metrics, pin.0, "{name}: RunMetrics");
    assert_eq!(digest, pin.1, "{name}: render digest");
}

#[test]
fn sequential_run_telemetry_is_pinned() {
    check(
        "sequential",
        &config(None),
        (
            concat!(
                "{\"overall\":{\"attempts\":1540,\"successes\":1386,\"qos_level_sum\":4081},",
                "\"per_class\":[{\"attempts\":360,\"successes\":347,\"qos_level_sum\":1028},",
                "{\"attempts\":176,\"successes\":164,\"qos_level_sum\":488},{\"attempts\":694,",
                "\"successes\":604,\"qos_level_sum\":1776},{\"attempts\":310,\"successes\":271,",
                "\"qos_level_sum\":789}],\"paths_a\":{\"counts\":{\"Qa-Qb-Qe-Qh-Ql-Qp\":71,",
                "\"Qa-Qb-Qe-Qi-Qm-Qp\":47,\"Qa-Qc-Qf-Qh-Ql-Qp\":167,\"Qa-Qc-Qf-Qi-Qm-Qp\":100,",
                "\"Qa-Qc-Qf-Qj-Qn-Qp\":115,\"Qa-Qc-Qf-Qj-Qn-Qq\":9,\"Qa-Qc-Qf-Qk-Qo-Qq\":1,",
                "\"Qa-Qc-Qf-Qk-Qo-Qr\":6,\"Qa-Qd-Qg-Qj-Qn-Qp\":204,\"Qa-Qd-Qg-Qj-Qn-Qq\":1,",
                "\"Qa-Qd-Qg-Qk-Qo-Qq\":1,\"Qa-Qd-Qg-Qk-Qo-Qr\":16},\"total\":738},",
                "\"paths_b\":{\"counts\":{\"Qa-Qb-Qd-Qf-Qi-Ql\":97,\"Qa-Qb-Qd-Qf-Qi-Qm\":4,",
                "\"Qa-Qb-Qd-Qg-Qj-Ql\":13,\"Qa-Qb-Qd-Qh-Qk-Ql\":26,\"Qa-Qb-Qd-Qh-Qk-Qn\":1,",
                "\"Qa-Qc-Qe-Qf-Qi-Ql\":191,\"Qa-Qc-Qe-Qf-Qi-Qm\":1,\"Qa-Qc-Qe-Qg-Qj-Ql\":158,",
                "\"Qa-Qc-Qe-Qh-Qk-Ql\":149,\"Qa-Qc-Qe-Qh-Qk-Qm\":2,\"Qa-Qc-Qe-Qh-Qk-Qn\":6},",
                "\"total\":648},\"bottlenecks\":{\"H1.cpu\":146,\"H2.cpu\":216,\"H3.cpu\":129,",
                "\"H4.cpu\":184,\"path:H1->D1\":61,\"path:H1->D2\":108,\"path:H2->D3\":98,",
                "\"path:H2->D4\":22,\"path:H3->D5\":144,\"path:H3->D6\":80,\"path:H4->D7\":149,",
                "\"path:H4->D8\":44,\"path:H4->H1\":1,\"path:H4->H3\":4},\"plan_failures\":154,",
                "\"reserve_failures\":0,\"upgrades\":0,\"final_qos\":{\"attempts\":1386,",
                "\"successes\":1386,\"qos_level_sum\":4081},\"fault_failures\":0,",
                "\"faults_injected\":0,\"sessions_lost\":0,\"rollbacks\":0,\"retries\":0,",
                "\"degraded_establishes\":0,\"batches_planned\":0,\"commit_conflicts\":0,",
                "\"replans\":0,\"scenario_triggers\":0,\"burst_arrivals\":0,\"advance_booked\":0,",
                "\"advance_repacked\":0,\"advance_rejected\":0,\"bulk_volume_admitted\":0.0}",
            ),
            0x0b59eca27df4d998,
        ),
    );
}

#[test]
fn batched_run_telemetry_is_pinned() {
    let batch = BatchArrivals {
        size: 8,
        max_replans: 2,
    };
    check(
        "batched",
        &config(Some(batch)),
        (
            concat!(
                "{\"overall\":{\"attempts\":1540,\"successes\":1360,\"qos_level_sum\":4028},",
                "\"per_class\":[{\"attempts\":360,\"successes\":345,\"qos_level_sum\":1029},",
                "{\"attempts\":176,\"successes\":165,\"qos_level_sum\":492},{\"attempts\":694,",
                "\"successes\":587,\"qos_level_sum\":1733},{\"attempts\":310,\"successes\":263,",
                "\"qos_level_sum\":774}],\"paths_a\":{\"counts\":{\"Qa-Qb-Qe-Qh-Ql-Qp\":94,",
                "\"Qa-Qb-Qe-Qi-Qm-Qp\":40,\"Qa-Qc-Qf-Qh-Ql-Qp\":174,\"Qa-Qc-Qf-Qi-Qm-Qp\":90,",
                "\"Qa-Qc-Qf-Qj-Qn-Qp\":104,\"Qa-Qc-Qf-Qj-Qn-Qq\":4,\"Qa-Qc-Qf-Qk-Qo-Qq\":5,",
                "\"Qa-Qc-Qf-Qk-Qo-Qr\":1,\"Qa-Qd-Qg-Qj-Qn-Qp\":199,\"Qa-Qd-Qg-Qj-Qn-Qq\":1,",
                "\"Qa-Qd-Qg-Qk-Qo-Qq\":2,\"Qa-Qd-Qg-Qk-Qo-Qr\":7},\"total\":721},",
                "\"paths_b\":{\"counts\":{\"Qa-Qb-Qd-Qf-Qi-Ql\":106,\"Qa-Qb-Qd-Qf-Qi-Qm\":6,",
                "\"Qa-Qb-Qd-Qg-Qj-Ql\":14,\"Qa-Qb-Qd-Qh-Qk-Ql\":29,\"Qa-Qb-Qd-Qh-Qk-Qn\":4,",
                "\"Qa-Qc-Qe-Qf-Qi-Ql\":171,\"Qa-Qc-Qe-Qf-Qi-Qm\":3,\"Qa-Qc-Qe-Qg-Qj-Ql\":134,",
                "\"Qa-Qc-Qe-Qh-Qk-Ql\":168,\"Qa-Qc-Qe-Qh-Qk-Qm\":1,\"Qa-Qc-Qe-Qh-Qk-Qn\":3},",
                "\"total\":639},\"bottlenecks\":{\"H1.cpu\":134,\"H2.cpu\":176,\"H3.cpu\":132,",
                "\"H4.cpu\":175,\"path:H1->D1\":73,\"path:H1->D2\":118,\"path:H2->D3\":103,",
                "\"path:H2->D4\":24,\"path:H3->D5\":132,\"path:H3->D6\":87,\"path:H4->D7\":155,",
                "\"path:H4->D8\":46,\"path:H4->H1\":1,\"path:H4->H3\":4},\"plan_failures\":180,",
                "\"reserve_failures\":0,\"upgrades\":0,\"final_qos\":{\"attempts\":1360,",
                "\"successes\":1360,\"qos_level_sum\":4028},\"fault_failures\":0,",
                "\"faults_injected\":0,\"sessions_lost\":0,\"rollbacks\":0,\"retries\":0,",
                "\"degraded_establishes\":14,\"batches_planned\":193,\"commit_conflicts\":80,",
                "\"replans\":80,\"scenario_triggers\":0,\"burst_arrivals\":0,\"advance_booked\":0,",
                "\"advance_repacked\":0,\"advance_rejected\":0,\"bulk_volume_admitted\":0.0}",
            ),
            0x56d77af9dfd649f8,
        ),
    );
}
