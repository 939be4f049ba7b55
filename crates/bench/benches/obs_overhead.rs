//! Telemetry overhead: the admission pipeline of `benches/admission.rs`
//! measured with the live telemetry layer in each of its states —
//! disabled (the default: every span is one relaxed atomic load),
//! phase timers enabled recording into histograms, and timers enabled
//! with a JSONL trace streaming to a discarding writer.
//!
//! The world, batch size, and round driver are identical to the
//! admission bench, so the disabled-mode figure is directly comparable
//! to `BENCH_admission.json`'s `pipeline_ns_per_session`: disabled
//! telemetry must sit within noise of it (the zero-cost claim), and the
//! committed `BENCH_obs.json` records the ratio so CI can hold the
//! line. `--bench` writes the JSON; `--quick` shortens the measurement
//! window (CI smoke).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use qosr_bench::synth::synthetic_chain;
use qosr_broker::{
    AdmissionConfig, AdmissionQueue, BrokerRegistry, Coordinator, LocalBroker, LocalBrokerConfig,
    QosProxy, SessionRequest, SimTime,
};
use qosr_model::{ResourceKind, SessionInstance};
use qosr_obs::{JsonlSink, TraceSink};
use serde::Serialize;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Chain shape: components × levels per component (as admission.rs).
const CHAIN: (usize, usize) = (4, 4);
/// Requests per admission round (as admission.rs).
const BATCH: usize = 128;
/// Hosts (QoSProxies) the chain's resources are spread across.
const HOSTS: usize = 4;
/// Background resources per host (as admission.rs).
const EXTRA_PER_HOST: usize = 30;
/// Disabled-mode throughput must stay within this factor of the
/// reference admission throughput. Tightened from 1.25 once the
/// request-tracing layer landed: the disabled path is a single relaxed
/// atomic load per request, so only machine noise separates the runs.
const NOISE_FACTOR: f64 = 1.10;

/// Builds the admission bench's world, optionally tracing to `sink`.
fn build_world(sink: Option<Arc<dyn TraceSink>>) -> (Coordinator, SessionInstance) {
    let (session, mut space) = synthetic_chain(CHAIN.0, CHAIN.1);
    let chain_rids: Vec<_> = space.ids().collect();
    let mut registries: Vec<BrokerRegistry> = (0..HOSTS).map(|_| BrokerRegistry::new()).collect();
    for (c, rid) in chain_rids.iter().enumerate() {
        registries[c % HOSTS].register(Arc::new(LocalBroker::new(
            *rid,
            1.0e12,
            SimTime::ZERO,
            LocalBrokerConfig::default(),
        )));
    }
    for (h, registry) in registries.iter_mut().enumerate() {
        for i in 0..EXTRA_PER_HOST {
            let rid = space.register(format!("bg{h}_{i}"), ResourceKind::Compute);
            registry.register(Arc::new(LocalBroker::new(
                rid,
                1.0e12,
                SimTime::ZERO,
                LocalBrokerConfig::default(),
            )));
        }
    }
    let proxies: Vec<_> = registries
        .into_iter()
        .enumerate()
        .map(|(h, reg)| Arc::new(QosProxy::new(format!("H{h}"), reg)))
        .collect();
    let coordinator = match sink {
        Some(sink) => Coordinator::with_trace(proxies, sink),
        None => Coordinator::new(proxies),
    };
    (coordinator, session)
}

fn requests(session: &SessionInstance) -> Vec<SessionRequest> {
    (0..BATCH)
        .map(|_| SessionRequest::new(session.clone()))
        .collect()
}

/// One admission round: admit the batch, assert full success, release.
fn pipeline_round(queue: &AdmissionQueue<'_>, reqs: &[SessionRequest], now: SimTime) {
    let world = queue.coordinator();
    let mut held: Vec<_> = queue
        .admit(reqs, now)
        .into_iter()
        .filter_map(|o| o.into_session())
        .collect();
    assert_eq!(held.len(), reqs.len(), "unbounded capacity must admit all");
    for est in held.drain(..) {
        world.terminate(&est, now);
    }
}

/// Measures `f` with doubling calibration up to `target`, returning
/// mean ns per call.
fn time_ns(mut f: impl FnMut(), target: Duration) -> f64 {
    let mut iters: u64 = 1;
    loop {
        let start = Instant::now();
        for _ in 0..iters {
            f();
        }
        let elapsed = start.elapsed();
        if elapsed >= target || iters >= u64::MAX / 4 {
            return elapsed.as_nanos() as f64 / iters as f64;
        }
        let per_iter = (elapsed.as_nanos() / u128::from(iters)).max(1);
        iters = ((target.as_nanos() / per_iter) as u64).max(iters * 2);
    }
}

/// ns/session for one telemetry mode. `enable_timers` flips the phase
/// timers on the fresh coordinator; `traced` streams JSONL to a
/// discarding writer; `trace_requests` enables the request tracer and
/// marks every request with a trace id, so each admission builds and
/// records a full causal span tree into the flight ring.
fn measure_mode(enable_timers: bool, traced: bool, trace_requests: bool, target: Duration) -> f64 {
    let sink: Option<Arc<dyn TraceSink>> =
        traced.then(|| Arc::new(JsonlSink::new(std::io::sink())) as Arc<dyn TraceSink>);
    let (mut coordinator, session) = build_world(sink);
    coordinator.phase_timers().set_enabled(enable_timers);
    if trace_requests {
        let tracer = Arc::new(qosr_obs::Tracer::new(256));
        tracer.set_enabled(true);
        coordinator.set_tracer(tracer);
    }
    let coordinator = coordinator;
    let mut reqs = requests(&session);
    if trace_requests {
        reqs = reqs
            .into_iter()
            .enumerate()
            .map(|(i, r)| r.traced(qosr_obs::TraceId(i as u64 + 1)))
            .collect();
    }
    let queue = AdmissionQueue::new(
        &coordinator,
        AdmissionConfig {
            seed: 0x5eed,
            ..AdmissionConfig::default()
        },
    );
    let mut t = 0.0f64;
    let round_ns = time_ns(
        || {
            t += 1.0;
            pipeline_round(&queue, &reqs, black_box(SimTime::new(t)));
        },
        target,
    );
    round_ns / BATCH as f64
}

#[derive(Serialize)]
struct BenchReport {
    bench: &'static str,
    unit: &'static str,
    chain: String,
    batch: usize,
    disabled_ns_per_session: f64,
    enabled_ns_per_session: f64,
    traced_ns_per_session: f64,
    request_traced_ns_per_session: f64,
    /// `enabled / disabled` — the cost of live phase histograms.
    enabled_overhead_ratio: f64,
    /// `traced / disabled` — histograms plus JSONL serialization.
    traced_overhead_ratio: f64,
    /// `request_traced / disabled` — full causal span trees recorded
    /// into the flight ring for every request.
    request_traced_overhead_ratio: f64,
    /// `pipeline_ns_per_session` from `BENCH_admission.json`, when
    /// present (the non-telemetry reference measured on that machine).
    reference_admission_ns_per_session: Option<f64>,
    /// `disabled / reference` — the zero-cost-when-disabled claim.
    disabled_vs_reference_ratio: Option<f64>,
    /// Whether `disabled` sits within the noise envelope of the
    /// reference (always true when no reference is committed).
    disabled_within_noise: bool,
}

/// The subset of `BENCH_admission.json` the overhead comparison needs.
#[derive(serde::Deserialize)]
struct ReferenceReport {
    pipeline_ns_per_session: f64,
}

/// The pipeline's ns/session from the committed admission report.
fn reference_throughput() -> Option<f64> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_admission.json");
    let text = std::fs::read_to_string(path).ok()?;
    let report: ReferenceReport = serde_json::from_str(&text).ok()?;
    Some(report.pipeline_ns_per_session)
}

fn bench_obs_overhead(c: &mut Criterion) {
    let bench_mode = std::env::args().any(|a| a == "--bench");
    let quick = std::env::args().any(|a| a == "--quick");
    let target = if quick {
        Duration::from_millis(60)
    } else {
        Duration::from_millis(400)
    };

    // Criterion display: per-round cost of each telemetry state.
    let mut group = c.benchmark_group("obs_overhead");
    for (label, enable, traced) in [
        ("disabled", false, false),
        ("timers", true, false),
        ("timers+jsonl", true, true),
    ] {
        let sink: Option<Arc<dyn TraceSink>> =
            traced.then(|| Arc::new(JsonlSink::new(std::io::sink())) as Arc<dyn TraceSink>);
        let (coordinator, session) = build_world(sink);
        coordinator.phase_timers().set_enabled(enable);
        let reqs = requests(&session);
        let queue = AdmissionQueue::new(
            &coordinator,
            AdmissionConfig {
                seed: 0x5eed,
                ..AdmissionConfig::default()
            },
        );
        let mut t = 0.0f64;
        group.bench_function(BenchmarkId::new("pipeline", label), |b| {
            b.iter(|| {
                t += 1.0;
                pipeline_round(&queue, &reqs, black_box(SimTime::new(t)));
            })
        });
    }
    group.finish();

    if !bench_mode {
        return; // smoke run (cargo test / CI): no JSON
    }

    let disabled = measure_mode(false, false, false, target);
    let enabled = measure_mode(true, false, false, target);
    let traced = measure_mode(true, true, false, target);
    let request_traced = measure_mode(false, false, true, target);
    println!(
        "telemetry ns/session: disabled {disabled:.0}, timers {enabled:.0}, \
         timers+jsonl {traced:.0}, request-traced {request_traced:.0}"
    );

    let reference = reference_throughput();
    let ratio = reference.map(|r| disabled / r);
    let within = ratio.is_none_or(|r| r <= NOISE_FACTOR);
    if let (Some(reference), Some(ratio)) = (reference, ratio) {
        println!(
            "disabled vs BENCH_admission reference: {disabled:.0} / {reference:.0} = {ratio:.3} \
             (noise bound {NOISE_FACTOR})"
        );
    }
    // Quick (CI smoke) windows are too short to hold the noise bound
    // honestly; the committed full-mode run enforces it.
    assert!(
        within || quick,
        "disabled telemetry must be within noise of the reference admission throughput"
    );

    let report = BenchReport {
        bench: "obs_overhead",
        unit: "ns/session",
        chain: format!("{}x{}", CHAIN.0, CHAIN.1),
        batch: BATCH,
        disabled_ns_per_session: disabled,
        enabled_ns_per_session: enabled,
        traced_ns_per_session: traced,
        request_traced_ns_per_session: request_traced,
        enabled_overhead_ratio: enabled / disabled,
        traced_overhead_ratio: traced / disabled,
        request_traced_overhead_ratio: request_traced / disabled,
        reference_admission_ns_per_session: reference,
        disabled_vs_reference_ratio: ratio,
        disabled_within_noise: within,
    };
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_obs.json");
    let file = std::fs::File::create(path).expect("create BENCH_obs.json");
    serde_json::to_writer_pretty(std::io::BufWriter::new(file), &report)
        .expect("serialize bench report");
    println!(
        "enabled overhead {:.3}x, traced {:.3}x -> {path}",
        report.enabled_overhead_ratio, report.traced_overhead_ratio
    );
}

criterion_group!(benches, bench_obs_overhead);
criterion_main!(benches);
