//! Observability integration tests: exact event sequences for known
//! session lifecycles, JSONL round-trips, `TraceSummary` reproducing the
//! simulator's `RunMetrics` exactly, and the sequential establish's
//! event streams and span trees pinned as literals.

#[path = "support/trace_digest.rs"]
mod trace_digest;

use qosr::broker::{EstablishedSession, LocalBrokerConfig, ObservationPolicy};
use qosr::obs::TraceId;
use qosr::prelude::*;
use qosr::sim::services::ServiceOptions;
use qosr::sim::{PaperEnvironment, TopologyVariant};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::sync::Arc;
use trace_digest::TraceDigest;

/// One host, one CPU of capacity 100, one component offering two output
/// levels with CPU demands `low` / `high` (ranks 1 and 2).
fn one_hop_world(low: f64, high: f64) -> (Coordinator, SessionInstance, Arc<MemorySink>) {
    let mut space = ResourceSpace::new();
    let cpu = space.register("h0.cpu", ResourceKind::Compute);

    let mut brokers = BrokerRegistry::new();
    brokers.register(Arc::new(LocalBroker::new(
        cpu,
        100.0,
        SimTime::ZERO,
        Default::default(),
    )));

    let sink = Arc::new(MemorySink::default());
    let coordinator =
        Coordinator::with_trace(vec![Arc::new(QosProxy::new("h0", brokers))], sink.clone());

    let schema = QosSchema::new("q", ["x"]);
    let v = |x: u32| QosVector::new(schema.clone(), [x]);
    let comp = ComponentSpec::new(
        "c0",
        vec![v(9)],
        vec![v(1), v(2)],
        vec![SlotSpec::new("cpu", ResourceKind::Compute)],
        Arc::new(
            TableTranslation::builder(1, 2, 1)
                .entry(0, 0, [low])
                .entry(0, 1, [high])
                .build(),
        ),
    );
    let service = Arc::new(ServiceSpec::chain("svc", vec![comp], vec![1, 2]).unwrap());
    let session = SessionInstance::new(service, vec![ComponentBinding::new([cpu])], 1.0).unwrap();
    (coordinator, session, sink)
}

fn kinds(events: &[TraceEvent]) -> Vec<EventKind> {
    events.iter().map(|e| e.kind).collect()
}

#[test]
fn commit_then_release_emits_exact_sequence() {
    let (coordinator, session, sink) = one_hop_world(20.0, 60.0);
    let mut rng = StdRng::seed_from_u64(1);

    let est = coordinator
        .establish_request(
            &SessionRequest::new(session.clone()),
            SimTime::ZERO + 1.0,
            &mut rng,
        )
        .into_result()
        .expect("feasible world must establish");
    coordinator.terminate(&est, SimTime::ZERO + 5.0);

    let events = sink.events();
    assert_eq!(
        kinds(&events),
        vec![
            EventKind::PlanStarted,
            EventKind::CandidateEvaluated,
            EventKind::CandidateEvaluated,
            EventKind::PlanCompleted,
            EventKind::HopSelected,
            EventKind::ReservationCommitted,
            EventKind::SessionReleased,
        ]
    );

    // Both candidates were feasible, with ψ = demand / 100.
    let candidates: Vec<&TraceEvent> = events
        .iter()
        .filter(|e| e.kind == EventKind::CandidateEvaluated)
        .collect();
    assert!(candidates.iter().all(|e| e.feasible == Some(true)));
    let psis: Vec<f64> = candidates.iter().filter_map(|e| e.psi).collect();
    assert!(psis.contains(&0.2) && psis.contains(&0.6));

    // The commit carries the achieved rank (2: the better level fits),
    // its Ψ, and the bottleneck resource.
    let commit = events
        .iter()
        .find(|e| e.kind == EventKind::ReservationCommitted)
        .unwrap();
    assert_eq!(commit.session, Some(est.id.0));
    assert_eq!(commit.service.as_deref(), Some("svc"));
    assert_eq!(commit.level, Some(2));
    assert_eq!(commit.psi, Some(0.6));
    assert_eq!(commit.resource, Some(0));
    assert_eq!(commit.time, 1.0);

    let release = events.last().unwrap();
    assert_eq!(release.session, Some(est.id.0));
    assert_eq!(release.time, 5.0);
    assert_eq!(release.detail.as_deref(), Some("released 60"));
}

#[test]
fn infeasible_plan_emits_rejection_naming_the_resource() {
    // Demands 120/150 against capacity 100: every candidate overshoots.
    let (coordinator, session, sink) = one_hop_world(120.0, 150.0);
    let mut rng = StdRng::seed_from_u64(1);

    coordinator
        .establish_request(
            &SessionRequest::new(session.clone()),
            SimTime::ZERO + 2.0,
            &mut rng,
        )
        .into_result()
        .expect_err("overcommitted world must reject");

    let events = sink.events();
    assert_eq!(
        kinds(&events),
        vec![
            EventKind::PlanStarted,
            EventKind::CandidateEvaluated,
            EventKind::CandidateEvaluated,
            EventKind::PlanRejected,
        ]
    );

    // Infeasible candidates report their overshoot ratio (> 1) and the
    // limiting resource.
    for e in &events[1..3] {
        assert_eq!(e.feasible, Some(false));
        assert!(e.psi.unwrap() > 1.0, "overshoot ratio must exceed 1");
        assert_eq!(e.resource, Some(0));
    }

    // The rejection names the nearest-miss resource: rank 1 at demand
    // 120 (ratio 1.2) misses by less than rank 2 at 150.
    let rejection = events.last().unwrap();
    assert_eq!(rejection.resource, Some(0));
    assert_eq!(rejection.psi, Some(1.2));
    assert!(rejection.detail.is_some());
}

#[test]
fn jsonl_sink_round_trips_the_event_stream() {
    let dir = std::env::temp_dir().join("qosr-obs-roundtrip");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("trace.jsonl");

    let (coordinator, session, memory) = one_hop_world(20.0, 60.0);
    let jsonl = Arc::new(JsonlSink::create(&path).unwrap());
    // Mirror the run into a JSONL file by re-emitting the memory trace.
    let mut rng = StdRng::seed_from_u64(1);
    let est = coordinator
        .establish_request(
            &SessionRequest::new(session.clone()),
            SimTime::ZERO + 1.0,
            &mut rng,
        )
        .into_result()
        .unwrap();
    coordinator.terminate(&est, SimTime::ZERO + 5.0);
    for event in memory.events() {
        jsonl.emit(&event);
    }
    jsonl.flush().unwrap();

    let back = qosr::obs::read_jsonl(&path).unwrap();
    assert_eq!(back, memory.events());
    std::fs::remove_file(&path).ok();
}

/// The acceptance check: reducing a recorded trace must reproduce
/// the run's `RunMetrics` exactly — success rate, mean QoS level, and
/// the per-resource bottleneck table.
#[test]
fn trace_summary_matches_run_metrics_exactly() {
    let config = qosr::sim::ScenarioConfig {
        seed: 3,
        rate_per_60tu: 120.0,
        horizon: 600.0,
        ..Default::default()
    };
    let sink = Arc::new(MemorySink::default());
    let result = qosr::sim::run_scenario_traced(&config, sink.clone());
    let summary = TraceSummary::from_events(&sink.events());

    let overall = &result.metrics.overall;
    assert!(overall.attempts > 0, "run must attempt sessions");
    assert_eq!(summary.plans_started, overall.attempts);
    assert_eq!(summary.committed, overall.successes);
    assert_eq!(summary.qos_level_sum, overall.qos_level_sum);
    assert_eq!(summary.success_rate(), Some(overall.success_rate()));
    assert_eq!(summary.mean_qos_level(), Some(overall.avg_qos_level()));
    assert_eq!(summary.plans_rejected, result.metrics.plan_failures);
    assert_eq!(
        summary.rejected_at_dispatch,
        result.metrics.reserve_failures
    );
    assert_eq!(summary.bottlenecks, result.metrics.bottlenecks);

    // And the trace is bitwise-deterministic: the traced run's metrics
    // equal the untraced run's.
    let untraced = qosr::sim::run_scenario(&config);
    assert_eq!(untraced.metrics, result.metrics);
}

/// Replay equivalence under fire: a faulted run's trace must reduce to
/// the exact fault counters the simulator reports — crashes, recoveries,
/// retries, rollbacks, degraded commits, lost sessions and
/// retry-exhausted failures — while the classic fields keep matching.
#[test]
fn faulted_trace_summary_matches_run_metrics_exactly() {
    let config = qosr::sim::ScenarioConfig {
        seed: 7,
        rate_per_60tu: 120.0,
        horizon: 300.0,
        faults: qosr::sim::FaultPlan {
            seed: 11,
            crashes: vec![
                qosr::sim::HostCrash {
                    host: 1,
                    at: 60.0,
                    recover_at: Some(150.0),
                },
                qosr::sim::HostCrash {
                    host: 2,
                    at: 200.0,
                    recover_at: Some(260.0),
                },
            ],
            drop_probability: 0.05,
            commit_failure_probability: 0.15,
            max_retries: 2,
            backoff_base: 0.25,
            tradeoff_fallback: true,
        },
        ..Default::default()
    };
    let sink = Arc::new(MemorySink::default());
    let result = qosr::sim::run_scenario_traced(&config, sink.clone());
    let summary = TraceSummary::from_events(&sink.events());
    let metrics = &result.metrics;

    // The run must actually exercise the fault paths, or this test
    // passes vacuously.
    assert!(metrics.faults_injected > 0, "faults must fire");
    assert!(metrics.sessions_lost > 0, "crashes must lose sessions");
    assert!(metrics.retries > 0, "retries must trigger");
    assert!(metrics.rollbacks > 0, "rollbacks must trigger");

    // Classic fields still line up under fire.
    assert_eq!(summary.plans_started, metrics.overall.attempts);
    assert_eq!(summary.committed, metrics.overall.successes);
    assert_eq!(summary.plans_rejected, metrics.plan_failures);
    assert_eq!(summary.rejected_at_dispatch, metrics.reserve_failures);
    assert_eq!(summary.bottlenecks, metrics.bottlenecks);

    // And so does every fault counter, event-for-counter.
    assert_eq!(summary.faults_injected, metrics.faults_injected);
    assert_eq!(summary.retries, metrics.retries);
    assert_eq!(summary.rollbacks, metrics.rollbacks);
    assert_eq!(summary.degraded, metrics.degraded_establishes);
    assert_eq!(summary.sessions_lost, metrics.sessions_lost);
    assert_eq!(summary.fault_failures, metrics.fault_failures);
    // Both scheduled recoveries fall inside the horizon.
    assert_eq!(summary.host_recoveries, 2);

    // Tracing never perturbs a faulted run: the untraced metrics are
    // identical.
    let untraced = qosr::sim::run_scenario(&config);
    assert_eq!(untraced.metrics, result.metrics);
}

#[test]
fn trace_summary_counts_upgrades_like_run_metrics() {
    let config = qosr::sim::ScenarioConfig {
        seed: 21,
        rate_per_60tu: 150.0,
        horizon: 1800.0,
        upgrade_period: Some(30.0),
        ..Default::default()
    };
    let sink = Arc::new(MemorySink::default());
    let result = qosr::sim::run_scenario_traced(&config, sink.clone());
    let summary = TraceSummary::from_events(&sink.events());

    assert!(result.metrics.upgrades > 0, "seed must exercise upgrades");
    assert_eq!(summary.upgrades, result.metrics.upgrades);
    assert_eq!(summary.plans_started, result.metrics.overall.attempts);
    assert_eq!(summary.committed, result.metrics.overall.successes);
}

/// Runs `config` with a registry, a memory sink and a caller-owned
/// tracer, and checks the three views of its phases agree: every
/// `qosr_phase_duration_seconds_count` in the exposition is the
/// tracer's span count, the replayed JSONL trace reproduces the
/// tracer's attribution, and the run's metrics are the plain run's.
fn observed_run_agrees_with_itself(config: &qosr::sim::ScenarioConfig) -> MetricsRegistry {
    let sink = Arc::new(MemorySink::default());
    let registry = MetricsRegistry::new();
    let tracer = Arc::new(qosr::obs::Tracer::new(64));
    let result = qosr::sim::run_scenario_observed(
        config,
        sink.clone(),
        Some(&registry),
        Some(tracer.clone()),
    );
    assert!(result.metrics.overall.successes > 0, "the run must commit");

    let rendered = registry.render();
    for kind in qosr::obs::SpanKind::ALL {
        let line = format!(
            "qosr_phase_duration_seconds_count{{phase=\"{}\"}} {}\n",
            kind.name(),
            tracer.span_histogram(kind).count()
        );
        assert!(rendered.contains(&line), "missing `{}`", line.trim_end());
    }
    for kind in [
        qosr::obs::SpanKind::Collect,
        qosr::obs::SpanKind::Plan,
        qosr::obs::SpanKind::Commit,
    ] {
        assert!(
            tracer.span_histogram(kind).count() > 0,
            "{} must be measured in a committed run",
            kind.name()
        );
    }
    // A registry traces every request.
    assert_eq!(tracer.recorded(), result.metrics.overall.attempts);

    let summary = TraceSummary::from_events(&sink.events());
    summary
        .request_attribution_matches(&tracer)
        .expect("replayed attribution must match the live tracer");
    assert!(!summary.utilization.is_empty(), "utilization block");
    for stat in summary.utilization.values() {
        assert!(stat.samples > 0);
        assert!(stat.peak >= 0.0);
    }

    // Telemetry never perturbs the run.
    assert_eq!(qosr::sim::run_scenario(config).metrics, result.metrics);
    registry
}

#[test]
fn live_registry_and_trace_replay_agree_on_phase_spans() {
    observed_run_agrees_with_itself(&qosr::sim::ScenarioConfig {
        seed: 9,
        rate_per_60tu: 150.0,
        horizon: 600.0,
        sample_period: Some(30.0),
        ..Default::default()
    });
}

/// The tentpole acceptance bar for request tracing: per-request latency
/// attribution recomputed offline from the JSONL event trace must agree
/// field-for-field with the live tracer's aggregates — span-kind
/// histogram snapshots, end-to-end latency snapshot, outcome counts,
/// and the traced-request total — and every recorded span tree must
/// account for its request exactly (root spans sum to `total_ns`).
#[test]
fn request_attribution_replays_exactly() {
    let config = qosr::sim::ScenarioConfig {
        seed: 13,
        rate_per_60tu: 150.0,
        horizon: 600.0,
        trace_requests: true,
        ..Default::default()
    };
    let sink = Arc::new(MemorySink::default());
    let tracer = Arc::new(qosr::obs::Tracer::new(64));
    let traced =
        qosr::sim::run_scenario_observed(&config, sink.clone(), None, Some(tracer.clone()));
    assert!(tracer.recorded() > 0, "the run must trace requests");
    assert!(
        traced.metrics.overall.successes > 0,
        "the run must commit sessions"
    );

    // Offline replay of the event stream reproduces the live
    // aggregates exactly — the single source of truth for "the JSONL
    // trace carries the whole attribution story".
    let summary = TraceSummary::from_events(&sink.events());
    summary
        .request_attribution_matches(&tracer)
        .expect("replayed attribution must match the live tracer");

    // Exact per-request accounting: for every span tree in the flight
    // ring, the root spans sum to the end-to-end latency — attribution
    // has no unexplained residual.
    let dump = tracer.flight().dump();
    assert!(!dump.is_empty(), "flight ring must retain traces");
    for trace in &dump {
        let attributed: u64 = qosr::obs::SpanKind::ALL
            .into_iter()
            .map(|kind| trace.span_ns(kind))
            .sum();
        assert_eq!(
            attributed, trace.total_ns,
            "trace {:016x}: span tree must attribute every nanosecond",
            trace.trace
        );
        // And each line survives the canonical JSONL codec bit-for-bit.
        let line = trace.to_jsonl();
        let back = qosr::obs::RequestTrace::from_jsonl(&line).unwrap();
        assert_eq!(&back, &**trace);
        assert_eq!(back.to_jsonl(), line);
    }
}

/// Request tracing is observability, not behaviour: a traced run and an
/// untraced run of the same scenario produce bit-identical metrics.
#[test]
fn request_tracing_never_perturbs_the_run() {
    let base = qosr::sim::ScenarioConfig {
        seed: 17,
        rate_per_60tu: 180.0,
        horizon: 600.0,
        ..Default::default()
    };
    let untraced = qosr::sim::run_scenario(&base);

    let traced_config = qosr::sim::ScenarioConfig {
        trace_requests: true,
        ..base.clone()
    };
    let sink = Arc::new(MemorySink::default());
    let tracer = Arc::new(qosr::obs::Tracer::new(32));
    let traced =
        qosr::sim::run_scenario_observed(&traced_config, sink.clone(), None, Some(tracer.clone()));

    assert!(tracer.recorded() > 0, "the traced run must record");
    assert_eq!(
        untraced.metrics, traced.metrics,
        "tracing must not change a single counter"
    );
}

#[test]
fn batched_admission_phase_spans_replay_exactly() {
    let registry = observed_run_agrees_with_itself(&qosr::sim::ScenarioConfig {
        seed: 5,
        rate_per_60tu: 180.0,
        horizon: 600.0,
        sample_period: Some(30.0),
        batch_arrivals: Some(qosr::sim::BatchArrivals {
            size: 8,
            max_replans: 2,
        }),
        ..Default::default()
    });
    // The queue-depth gauges were sampled during the run.
    assert!(registry.gauge("admission_in_flight", None).is_some());
    assert!(registry.gauge("admission_last_batch", None).is_some());
}

/// How a pinned sequential run observes availability and what it
/// injects: the three modes `tests/establish_cost.rs` pins outcomes for.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Mode {
    Accurate,
    Stale,
    Faults,
}

/// `tests/establish_cost.rs`'s pinned drive (world seed 7, capacities
/// 200–800, 48 arrivals half a TU apart, basic and tradeoff planners
/// alternating, departures after their holding time) on a coordinator
/// whose sink records every event and whose tracer records every
/// request.
fn traced_sequential_run(mode: Mode, seed: u64) -> TraceDigest {
    let sink = Arc::new(MemorySink::default());
    let env = PaperEnvironment::build_with_topology_traced(
        &mut StdRng::seed_from_u64(7),
        &ServiceOptions::default(),
        (200.0, 800.0),
        LocalBrokerConfig::default(),
        TopologyVariant::FullMesh,
        sink.clone(),
    );
    env.coordinator.tracer().set_enabled(true);
    let pairs: Vec<(usize, usize)> = (0..8)
        .flat_map(|domain| {
            (0..4)
                .filter(move |&service| service != domain / 2)
                .map(move |service| (service, domain))
        })
        .collect();
    let mut draws = StdRng::seed_from_u64(seed);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED);
    let (observation, retry) = match mode {
        Mode::Accurate => (ObservationPolicy::Accurate, RetryPolicy::default()),
        Mode::Stale => (
            ObservationPolicy::Stale { max_age: 2.0 },
            RetryPolicy::default(),
        ),
        Mode::Faults => {
            env.coordinator.faults().configure(seed, 0.05, 0.05);
            let retry = RetryPolicy {
                max_retries: 2,
                backoff_base: 0.25,
                tradeoff_fallback: true,
            };
            (ObservationPolicy::Accurate, retry)
        }
    };
    let crashed = env.coordinator.proxies()[1].host().to_string();
    let arrivals = 48;

    let mut live: Vec<(f64, EstablishedSession)> = Vec::new();
    for i in 0..arrivals {
        let now = i as f64 * 0.5;
        live.retain(|(due, est)| {
            let keep = *due > now;
            if !keep {
                env.coordinator.terminate(est, SimTime::new(now));
            }
            keep
        });
        if mode == Mode::Faults && i == arrivals / 3 {
            env.coordinator.crash_host(&crashed, SimTime::new(now));
        }
        if mode == Mode::Faults && i == arrivals / 2 {
            env.coordinator.recover_host(&crashed, SimTime::new(now));
        }
        let (service, domain) = pairs[draws.random_range(0..pairs.len())];
        let scale = [1.0, 1.0, 3.0, 6.0][draws.random_range(0..4usize)];
        let hold = draws.random_range(5.0..40.0);
        let planner = if i % 2 == 0 {
            Planner::Basic
        } else {
            Planner::Tradeoff
        };
        let request = SessionRequest::new(env.session(service, domain, scale).unwrap())
            .planner(planner)
            .observation(observation)
            .retry(retry)
            .traced(TraceId(i as u64));
        let outcome = env
            .coordinator
            .establish_request(&request, SimTime::new(now), &mut rng);
        if let Some(est) = outcome.into_session() {
            live.push((now + hold, est));
        }
    }
    let traces = env.coordinator.tracer().flight().dump();
    assert_eq!(traces.len(), arrivals, "every request leaves a trace");
    TraceDigest::new(&sink.events(), &traces)
}

/// The sequential establish's event stream and span trees, recorded
/// before its per-attempt steps moved into the pipeline it shares with
/// admission rounds: per-kind event counts, a hash of every event with
/// `detail` removed, and a hash of every request's span-tree shape.
#[test]
fn sequential_establish_traces_are_pinned() {
    let pins: [(Mode, u64, (&str, u64, u64)); 3] = [
        (
            Mode::Accurate,
            11,
            (
                concat!(
                    "CandidateEvaluated=792 HopSelected=123 PlanCompleted=41 PlanRejected=7 ",
                    "PlanStarted=48 RequestOutcome=48 RequestSpan=185 ReservationCommitted=41 ",
                    "SessionReleased=9 TradeoffDowngrade=8",
                ),
                0x2b27db4f58a4a1ea,
                0x31b03259bb270b7a,
            ),
        ),
        (
            Mode::Stale,
            12,
            (
                concat!(
                    "CandidateEvaluated=786 HopSelected=126 PlanCompleted=42 PlanRejected=6 ",
                    "PlanStarted=48 RequestOutcome=48 RequestSpan=186 ReservationCommitted=42 ",
                    "SessionReleased=12 TradeoffDowngrade=16",
                ),
                0x304928872f9bc285,
                0x77e368175584d2aa,
            ),
        ),
        (
            Mode::Faults,
            13,
            (
                concat!(
                    "CandidateEvaluated=1545 DegradedEstablish=1 EstablishRetry=47 ",
                    "EstablishRollback=10 FaultInjected=30 HopSelected=135 HostRecovered=1 ",
                    "PlanCompleted=45 PlanRejected=16 PlanStarted=48 RequestOutcome=48 ",
                    "RequestSpan=283 ReservationCommitted=32 SessionReleased=6 ",
                    "TradeoffDowngrade=12",
                ),
                0xe5aa8fb892e5fc95,
                0xf0376ff0ba3d57b1,
            ),
        ),
    ];
    for (mode, seed, pin) in pins {
        let digest = traced_sequential_run(mode, seed);
        assert_eq!(digest.as_pin(), pin, "{mode:?}");
    }
}

/// Two identical runs in one process render byte-identical telemetry,
/// every sample at full precision (the wall-clock phase family aside):
/// the per-host utilization gauge sums its brokers in the registry's
/// iteration order, so that order must be a function of the run.
#[test]
fn identical_runs_render_identical_telemetry() {
    let config = qosr::sim::ScenarioConfig {
        seed: 21,
        rate_per_60tu: 150.0,
        horizon: 600.0,
        sample_period: Some(30.0),
        ..Default::default()
    };
    let render = || {
        let registry = MetricsRegistry::new();
        qosr::sim::run_scenario_instrumented(&config, Arc::new(NullSink), Some(&registry));
        registry
            .render()
            .lines()
            .filter(|line| !line.contains("qosr_phase_duration_seconds"))
            .map(|line| format!("{line}\n"))
            .collect::<String>()
    };
    let (first, second) = (render(), render());
    assert!(first.contains("qosr_host_utilization{host="), "{first}");
    let differ: Vec<_> = first
        .lines()
        .zip(second.lines())
        .filter(|(a, b)| a != b)
        .collect();
    assert!(first == second, "lines that differ: {differ:#?}");
}
