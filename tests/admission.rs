//! Integration coverage for the batched admission pipeline behind the
//! redesigned session API, driven through the `qosr` facade against the
//! paper's figure-9 environment:
//!
//! * the [`SessionRequest`] builder's per-request policy (QoS floor,
//!   deadline) classifies outcomes before anything is reserved;
//! * a batch is reproducible: same seed, same outcomes, counters and
//!   trace, with one contended batch pinned as literals;
//! * scarcity provokes same-round conflicts that replan into degraded
//!   commits instead of rejections, with the per-host message shards
//!   accounting for the traffic;
//! * concurrent `admit` rounds from many OS threads never over-commit
//!   a broker (`ADMISSION_STRESS=1` scales the schedule up — the CI
//!   concurrent-rounds step runs it under a pinned `RUST_TEST_THREADS`).

#[path = "support/trace_digest.rs"]
mod trace_digest;

use qosr::broker::LocalBrokerConfig;
use qosr::obs::{MemorySink, NullSink, TraceId, TraceSink};
use qosr::prelude::*;
use qosr::sim::services::ServiceOptions;
use qosr::sim::{PaperEnvironment, TopologyVariant};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use trace_digest::TraceDigest;

fn paper_env(seed: u64, capacity_range: (f64, f64)) -> PaperEnvironment {
    paper_env_traced(seed, capacity_range, Arc::new(NullSink))
}

fn paper_env_traced(
    seed: u64,
    capacity_range: (f64, f64),
    sink: Arc<dyn TraceSink>,
) -> PaperEnvironment {
    let mut rng = StdRng::seed_from_u64(seed);
    PaperEnvironment::build_with_topology_traced(
        &mut rng,
        &ServiceOptions::default(),
        capacity_range,
        LocalBrokerConfig::default(),
        TopologyVariant::FullMesh,
        sink,
    )
}

/// Admits twenty fat sessions of three services piled on two domains
/// of a scarce world, every fourth planned by the random planner — the
/// batch contends, replans and rejects — and returns one
/// `(outcome kind, rank, psi bits, session id)` row per request.
fn admit_contended_batch(env: &PaperEnvironment) -> Vec<(&'static str, u32, u64, u64)> {
    contended_queue(env)
        .admit(&contended_requests(env), SimTime::new(1.0))
        .iter()
        .map(outcome_row)
        .collect()
}

/// The twenty requests of [`admit_contended_batch`].
fn contended_requests(env: &PaperEnvironment) -> Vec<SessionRequest> {
    (0..20)
        .map(|i| {
            let request =
                SessionRequest::new(env.session([0, 1, 3][i % 3], 4 + (i % 2), 5.0).unwrap());
            if i % 4 == 3 {
                request.planner(Planner::Random)
            } else {
                request
            }
        })
        .collect()
}

/// The queue [`admit_contended_batch`] admits through.
fn contended_queue(env: &PaperEnvironment) -> AdmissionQueue<'_> {
    AdmissionQueue::new(
        &env.coordinator,
        AdmissionConfig {
            seed: 3,
            ..AdmissionConfig::default()
        },
    )
}

/// One [`admit_contended_batch`] row; zeros when rejected.
fn outcome_row(outcome: &EstablishOutcome) -> (&'static str, u32, u64, u64) {
    let kind = match outcome {
        EstablishOutcome::Committed(_) => "committed",
        EstablishOutcome::Degraded { .. } => "degraded",
        EstablishOutcome::Rejected { .. } => "rejected",
    };
    match outcome.session() {
        Some(est) => (kind, est.plan.rank, est.plan.psi.to_bits(), est.id.0),
        None => (kind, 0, 0, 0),
    }
}

/// `(service, domain)` pairs honouring the excluded-service rule.
fn valid_pairs() -> impl Iterator<Item = (usize, usize)> {
    (0..8).flat_map(|domain| {
        (0..4)
            .filter(move |&service| service != domain / 2)
            .map(move |service| (service, domain))
    })
}

#[test]
fn builder_policy_gates_admission_before_reserving() {
    let env = paper_env(11, (1000.0, 4000.0));
    let session = env.session(1, 0, 1.0).unwrap();
    let queue = AdmissionQueue::new(&env.coordinator, AdmissionConfig::default());
    let now = SimTime::new(10.0);

    let batch = vec![
        SessionRequest::new(session.clone()),
        SessionRequest::new(session.clone()).qos_min(u32::MAX),
        SessionRequest::new(session.clone()).deadline(SimTime::new(5.0)),
    ];
    let before: Vec<f64> = env
        .coordinator
        .proxies()
        .iter()
        .flat_map(|p| p.brokers().iter().map(|b| b.available()))
        .collect();
    let outcomes = queue.admit(&batch, now);

    assert!(matches!(outcomes[0], EstablishOutcome::Committed(_)));
    assert!(matches!(
        &outcomes[1],
        EstablishOutcome::Rejected {
            error: qosr::broker::EstablishError::QosBelowMin { .. },
            ..
        }
    ));
    assert!(matches!(
        &outcomes[2],
        EstablishOutcome::Rejected {
            error: qosr::broker::EstablishError::DeadlineExpired { .. },
            ..
        }
    ));

    // The rejected requests reserved nothing: terminating the one
    // committed session restores the untouched world.
    env.coordinator
        .terminate(outcomes[0].session().unwrap(), SimTime::new(11.0));
    let after: Vec<f64> = env
        .coordinator
        .proxies()
        .iter()
        .flat_map(|p| p.brokers().iter().map(|b| b.available()))
        .collect();
    assert_eq!(before, after);
}

#[test]
fn same_seed_batches_admit_identically() {
    let run = || {
        let sink = Arc::new(MemorySink::default());
        let env = paper_env_traced(7, (250.0, 1000.0), sink.clone());
        let rows = admit_contended_batch(&env);
        (rows, env.coordinator.counters().snapshot(), sink.events())
    };
    let first = run();
    assert!(!first.2.is_empty(), "the traced run must emit events");
    assert_eq!(first, run());
}

/// Recorded at the last commit that had a planning worker pool, where
/// it passed at 1 and at 4 workers: the pipeline that replaced it must
/// admit this batch to the bit.
#[test]
fn contended_batch_outcomes_are_pinned() {
    let env = paper_env(7, (250.0, 1000.0));
    let rows = admit_contended_batch(&env);
    let rejected = ("rejected", 0, 0, 0);
    assert_eq!(
        rows,
        [
            ("committed", 3, 0x3fca583ac2653389, 1),
            ("committed", 3, 0x3fd5cc6e1d5030ca, 2),
            ("committed", 3, 0x3fd07d7b27e4504f, 3),
            ("committed", 3, 0x3fdfb4fd41e90126, 4),
            ("committed", 3, 0x3fc6ac8956d9ee6c, 5),
            ("degraded", 1, 0x3fee368cdf6a03c9, 6),
            ("committed", 3, 0x3fca583ac2653389, 7),
            rejected,
            ("degraded", 2, 0x3fe9f3938f15b2ab, 8),
            rejected,
            rejected,
            rejected,
            rejected,
            rejected,
            rejected,
            rejected,
            rejected,
            rejected,
            rejected,
            rejected,
        ]
    );
    assert_eq!(
        serde_json::to_string(&env.coordinator.counters().snapshot()).unwrap(),
        concat!(
            r#"{"plans_started":20,"plans_completed":20,"plans_rejected":12,"#,
            r#""reservations_committed":8,"reservations_rejected":0,"sessions_released":0,"#,
            r#""upgrades":0,"tradeoff_downgrades":0,"skeleton_hits":0,"skeleton_misses":0,"#,
            r#""faults_injected":0,"rollbacks":0,"retries":0,"degraded_commits":2,"#,
            r#""sessions_lost":0,"fault_failures":0,"establish_attempts":20,"#,
            r#""establishments":8,"batches_planned":1,"commit_conflicts":14,"replans":14,"#,
            r#""delta_repairs":6,"delta_fallbacks":14,"relax_nodes_repaired":8,"#,
            r#""serve_requests":0,"serve_batches":0,"serve_protocol_errors":0,"#,
            r#""serve_disconnects":0,"advance_booked":0,"advance_repacked":0,"#,
            r#""advance_rejected":0,"psi_buckets":[0,1,3,1,1,0,0,0,1,1,0],"#,
            r#""psi_milli":{"count":8,"sum":3438,"min":177,"max":944,"p50":263,"p90":944,"p99":944}}"#,
        )
    );
}

/// The contended batch on a coordinator whose sink records every event
/// and whose tracer records every request, recorded before a round's
/// per-request steps moved into the pipeline it shares with the
/// sequential establish: per-kind event counts, a hash of every event
/// with `detail` removed, and a hash of every request's span-tree shape.
#[test]
fn contended_batch_traces_are_pinned() {
    let sink = Arc::new(MemorySink::default());
    let env = paper_env_traced(7, (250.0, 1000.0), sink.clone());
    env.coordinator.tracer().set_enabled(true);
    let requests: Vec<SessionRequest> = contended_requests(&env)
        .into_iter()
        .enumerate()
        .map(|(i, request)| request.traced(TraceId(i as u64)))
        .collect();
    let mut rows = Vec::new();
    let mut traces = Vec::new();
    contended_queue(&env).admit_traced(&requests, SimTime::new(1.0), |_, outcome, trace| {
        rows.push(outcome_row(&outcome));
        traces.push(trace.expect("every request is traced"));
    });
    // Tracing changes no outcome.
    assert_eq!(rows, admit_contended_batch(&paper_env(7, (250.0, 1000.0))));
    let digest = TraceDigest::new(&sink.events(), &traces);
    assert_eq!(
        digest.as_pin(),
        (
            concat!(
                "BatchPlanned=1 CandidateEvaluated=339 CommitConflict=14 DegradedEstablish=2 ",
                "DeltaRepair=20 HopSelected=60 PlanCompleted=20 PlanRejected=12 PlanStarted=20 ",
                "Replanned=14 RequestOutcome=20 RequestSpan=96 ReservationCommitted=8",
            ),
            0xc873bf6d8041113c,
            0x9c57f034713ce09d,
        )
    );
}

#[test]
fn scarcity_replans_conflicts_and_shards_account_for_traffic() {
    let env = paper_env(7, (250.0, 1000.0));
    // Many fat requests for the same service pile demand on one host.
    let requests: Vec<SessionRequest> = (0..12)
        .map(|i| SessionRequest::new(env.session(1, 4 + (i % 2), 6.0).unwrap()))
        .collect();
    let queue = AdmissionQueue::new(
        &env.coordinator,
        AdmissionConfig {
            seed: 3,
            ..AdmissionConfig::default()
        },
    );
    let outcomes = queue.admit(&requests, SimTime::new(1.0));

    let snap = env.coordinator.counters().snapshot();
    assert_eq!(snap.batches_planned, 1);
    assert!(
        snap.commit_conflicts > 0,
        "12 fat same-host sessions against ~250 capacity must conflict"
    );
    assert!(snap.replans > 0, "conflicts must be replanned, not dropped");
    assert!(
        outcomes.iter().any(|o| o.is_admitted()),
        "replanning must salvage part of the batch"
    );

    // One collect round for the whole batch, fanned to every host; the
    // per-host shards add up to the coordinator totals.
    let host_stats = env.coordinator.host_stats();
    assert_eq!(host_stats.len(), 4);
    for h in &host_stats {
        assert_eq!(h.collect_roundtrips, 1, "host {} collected once", h.host);
    }
    let stats = env.coordinator.stats();
    assert_eq!(stats.collect_roundtrips, 4);
    assert_eq!(
        stats.dispatches,
        host_stats.iter().map(|h| h.dispatches).sum::<u64>()
    );
    assert!(
        host_stats.iter().filter(|h| h.dispatches > 0).count() > 1,
        "commits must spread across host shards"
    );
}

#[test]
fn concurrent_admission_rounds_never_over_commit() {
    let stress = std::env::var("ADMISSION_STRESS").is_ok_and(|v| v == "1");
    let (threads, rounds, batch) = if stress { (8, 20, 16) } else { (4, 3, 8) };

    let env = paper_env(42, (400.0, 1600.0));
    let initial: Vec<f64> = env
        .coordinator
        .proxies()
        .iter()
        .flat_map(|p| p.brokers().iter().map(|b| b.available()))
        .collect();
    let queue = AdmissionQueue::new(
        &env.coordinator,
        AdmissionConfig {
            seed: 17,
            ..AdmissionConfig::default()
        },
    );
    let pairs: Vec<_> = valid_pairs().collect();

    // Concurrent rounds race each other's commits: conflict detection
    // against a round's working view can miss the other round's
    // reservations, but the brokers are the commit authority — a late
    // loser is replanned or rejected, never over-committed.
    let established = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let queue = &queue;
                let env = &env;
                let pairs = &pairs;
                scope.spawn(move || {
                    let mut held = Vec::new();
                    for round in 0..rounds {
                        let requests: Vec<SessionRequest> = (0..batch)
                            .map(|i| {
                                let (service, domain) =
                                    pairs[(t * 31 + round * 7 + i) % pairs.len()];
                                SessionRequest::new(env.session(service, domain, 3.0).unwrap())
                            })
                            .collect();
                        let now = SimTime::new((round + 1) as f64);
                        held.extend(
                            queue
                                .admit(&requests, now)
                                .into_iter()
                                .filter_map(|o| o.into_session()),
                        );
                    }
                    held
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("admission thread panicked"))
            .collect::<Vec<_>>()
    });
    assert_eq!(queue.rounds(), (threads * rounds) as u64);

    for proxy in env.coordinator.proxies() {
        for broker in proxy.brokers().iter() {
            let available = broker.available();
            assert!(
                available >= -1e-9 && available <= broker.capacity() + 1e-9,
                "resource {:?} over-committed under concurrent rounds: {} of {}",
                broker.resource(),
                available,
                broker.capacity()
            );
        }
    }

    // Full teardown restores the untouched world.
    for est in &established {
        env.coordinator.terminate(est, SimTime::new(1000.0));
    }
    let after: Vec<f64> = env
        .coordinator
        .proxies()
        .iter()
        .flat_map(|p| p.brokers().iter().map(|b| b.available()))
        .collect();
    for (before, after) in initial.iter().zip(&after) {
        assert!(
            (before - after).abs() < 1e-6,
            "teardown must conserve capacity: {before} vs {after}"
        );
    }
}
