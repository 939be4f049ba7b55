//! Batched admission throughput: ns/session of the [`AdmissionQueue`]
//! pipeline, which plans a whole batch against one epoch-stamped
//! snapshot and commits sequentially, plus its per-phase split.
//!
//! The world is deliberately broker-heavy (4 hosts, `EXTRA_PER_HOST`
//! background resources each, as a deployed QoSProxy tracks every host
//! CPU and link, not just the ones one session touches), so phase-1
//! collection costs what it costs in the paper's environment. The
//! measured figures land in `BENCH_admission.json` at the workspace
//! root in `--bench` mode, beside a frozen [`History`] of the designs
//! the pipeline replaced; `--quick` shortens the measurement window (CI
//! smoke).

use criterion::{criterion_group, criterion_main, Criterion};
use qosr_bench::synth::synthetic_chain;
use qosr_broker::{
    AdmissionConfig, AdmissionQueue, BrokerRegistry, Coordinator, LocalBroker, LocalBrokerConfig,
    QosProxy, SessionRequest, SimTime,
};
use qosr_model::{ResourceKind, SessionInstance};
use qosr_obs::Phase;
use serde::Serialize;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Chain shape: components × levels per component.
const CHAIN: (usize, usize) = (4, 4);
/// Requests per admission round.
const BATCH: usize = 128;
/// Hosts (QoSProxies) the chain's resources are spread across.
const HOSTS: usize = 4;
/// Background resources per host (host CPUs, links, devices the proxy
/// tracks but this service does not touch).
const EXTRA_PER_HOST: usize = 30;

struct World {
    coordinator: Coordinator,
    session: SessionInstance,
    resources: usize,
}

/// 4 proxies, chain resources spread round-robin, plus the background
/// fleet; capacities are effectively unbounded so the measurement is
/// pure admission cost, never conflict handling.
fn build_world() -> World {
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
    let resources = space.ids().count();
    let proxies: Vec<_> = registries
        .into_iter()
        .enumerate()
        .map(|(h, reg)| Arc::new(QosProxy::new(format!("H{h}"), reg)))
        .collect();
    World {
        coordinator: Coordinator::new(proxies),
        session,
        resources,
    }
}

fn requests(world: &World) -> Vec<SessionRequest> {
    (0..BATCH)
        .map(|_| SessionRequest::new(world.session.clone()))
        .collect()
}

/// One round through the admission pipeline.
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

/// One row of [`History::pipeline_by_workers`].
#[derive(Serialize)]
struct WorkerResult {
    workers: usize,
    ns_per_session: f64,
    /// Throughput multiple over the 4-thread single-mutex baseline.
    speedup_vs_mutex_4thread: f64,
}

/// Figures this bench measured for designs that no longer exist, on the
/// same world and batch, written into every report so the comparison
/// survives the code: the single-mutex coordinator (every request its
/// own collect round, one global lock around establishment) and the
/// per-round planning worker pool, which sequential planning beat at
/// every worker count. Not re-measured.
#[derive(Serialize)]
struct History {
    note: &'static str,
    mutex_1thread_ns_per_session: f64,
    mutex_4thread_ns_per_session: f64,
    pipeline_by_workers: [WorkerResult; 4],
}

const HISTORY: History = History {
    note: "single-mutex coordinator and per-round planning worker pool, as last \
           committed before both were deleted; not re-measured",
    mutex_1thread_ns_per_session: 55978.32368259804,
    mutex_4thread_ns_per_session: 53773.40489783654,
    pipeline_by_workers: [
        WorkerResult {
            workers: 1,
            ns_per_session: 2556.625855034722,
            speedup_vs_mutex_4thread: 21.032958260960022,
        },
        WorkerResult {
            workers: 2,
            ns_per_session: 3064.994661282138,
            speedup_vs_mutex_4thread: 17.544371472197682,
        },
        WorkerResult {
            workers: 4,
            ns_per_session: 3301.0908667214358,
            speedup_vs_mutex_4thread: 16.28958640306772,
        },
        WorkerResult {
            workers: 8,
            ns_per_session: 3828.17450438862,
            speedup_vs_mutex_4thread: 14.046748609863709,
        },
    ],
};

/// One pipeline phase's wall-clock profile over the instrumented pass.
#[derive(Serialize)]
struct PhaseBreakdown {
    phase: &'static str,
    spans: u64,
    mean_ns: f64,
    p99_ns: u64,
    /// Phase time attributed to each admitted session
    /// (`sum / (rounds × batch)`).
    ns_per_session: f64,
}

#[derive(Serialize)]
struct BenchReport {
    bench: &'static str,
    unit: &'static str,
    chain: String,
    batch: usize,
    hosts: usize,
    world_resources: usize,
    pipeline_ns_per_session: f64,
    /// Collect/plan/commit/replan split of the pipeline, measured on a
    /// separate pass with the phase timers enabled (the headline number
    /// above stays instrumentation-free).
    phase_breakdown: Vec<PhaseBreakdown>,
    history: History,
}

fn bench_admission(c: &mut Criterion) {
    let bench_mode = std::env::args().any(|a| a == "--bench");
    let quick = std::env::args().any(|a| a == "--quick");
    let target = if quick {
        Duration::from_millis(60)
    } else {
        Duration::from_millis(400)
    };

    let world = build_world();
    let reqs = requests(&world);
    let mut t = 0.0f64;
    let mut tick = || {
        t += 1.0;
        SimTime::new(t)
    };

    let queue = AdmissionQueue::new(
        &world.coordinator,
        AdmissionConfig {
            seed: 0x5eed,
            ..AdmissionConfig::default()
        },
    );

    // Criterion display: per-round cost.
    let mut group = c.benchmark_group("batched_admission");
    group.bench_function("pipeline", |b| {
        b.iter(|| pipeline_round(&queue, &reqs, black_box(tick())))
    });
    group.finish();

    if !bench_mode {
        return; // smoke run (cargo test / CI): no JSON
    }

    // Manual measurement for the committed report.
    let pipeline_ns_per_session =
        time_ns(|| pipeline_round(&queue, &reqs, tick()), target) / BATCH as f64;
    println!("pipeline: {pipeline_ns_per_session:.0} ns/session");

    // Per-phase breakdown on a separate instrumented pass (the live
    // span timers are disabled during the headline measurements, so
    // those stay free of measurement overhead).
    let timers = world.coordinator.phase_timers();
    timers.set_enabled(true);
    let rounds: usize = if quick { 20 } else { 200 };
    for _ in 0..rounds {
        pipeline_round(&queue, &reqs, tick());
    }
    timers.set_enabled(false);
    let sessions = (rounds * BATCH) as f64;
    let phase_breakdown: Vec<PhaseBreakdown> =
        [Phase::Collect, Phase::Plan, Phase::Commit, Phase::Replan]
            .into_iter()
            .map(|phase| {
                let hist = timers.histogram(phase);
                PhaseBreakdown {
                    phase: phase.name(),
                    spans: hist.count(),
                    mean_ns: hist.mean().unwrap_or(0.0),
                    p99_ns: hist.percentile(0.99).unwrap_or(0),
                    ns_per_session: hist.sum() as f64 / sessions,
                }
            })
            .collect();
    for p in &phase_breakdown {
        println!(
            "phase {:<8} {} spans, mean {:.0} ns, {:.0} ns/session",
            p.phase, p.spans, p.mean_ns, p.ns_per_session
        );
    }

    let report = BenchReport {
        bench: "batched_admission",
        unit: "ns/session",
        chain: format!("{}x{}", CHAIN.0, CHAIN.1),
        batch: BATCH,
        hosts: HOSTS,
        world_resources: world.resources,
        pipeline_ns_per_session,
        phase_breakdown,
        history: HISTORY,
    };
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_admission.json");
    let file = std::fs::File::create(path).expect("create BENCH_admission.json");
    serde_json::to_writer_pretty(std::io::BufWriter::new(file), &report)
        .expect("serialize bench report");
    println!("-> {path}");
}

criterion_group!(benches, bench_admission);
criterion_main!(benches);
