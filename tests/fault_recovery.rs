//! Chaos/property harness for the fault-injection & recovery subsystem.
//!
//! Three layers of evidence that the two-phase establish protocol and the
//! crash/recovery machinery are safe:
//!
//! 1. **Conservation** — arbitrary interleavings of establishes,
//!    terminations, host crashes and recoveries leave every broker back
//!    at its initial availability once all sessions end and all hosts
//!    recover, and at no point does a *live* session hold a reservation
//!    on a down host.
//! 2. **Transparency** — an empty [`FaultPlan`] (any injector seed)
//!    leaves a scenario run byte-for-byte identical to the default
//!    configuration: fault support costs nothing when unused.
//! 3. **Determinism** — the same `(scenario seed, fault plan)` pair
//!    replays byte-identically, however chaotic the schedule.
//!
//! Case count honours `PROPTEST_CASES` (the CI chaos step runs 256); the
//! local default keeps `cargo test` fast.

use proptest::prelude::*;
use qosr::broker::LocalBrokerConfig;
use qosr::prelude::*;
use qosr::sim::services::ServiceOptions;
use qosr::sim::{run_scenario, FaultPlan, HostCrash, PaperEnvironment, ScenarioConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Arbitrary fault schedules: up to three crash/recover pairs inside a
/// 240 TU horizon, modest message-loss and commit-failure probabilities,
/// and a bounded retry budget.
fn fault_plan() -> impl Strategy<Value = FaultPlan> {
    (
        any::<u64>(),
        prop::collection::vec((0usize..4, 20.0f64..180.0, 10.0f64..120.0), 0..3),
        0.0f64..0.10,
        0.0f64..0.10,
        0u32..=3,
        any::<bool>(),
    )
        .prop_map(
            |(
                seed,
                crashes,
                drop_probability,
                commit_failure_probability,
                max_retries,
                fallback,
            )| {
                FaultPlan {
                    seed,
                    crashes: crashes
                        .into_iter()
                        .map(|(host, at, outage)| HostCrash {
                            host,
                            at,
                            recover_at: Some(at + outage),
                        })
                        .collect(),
                    drop_probability,
                    commit_failure_probability,
                    max_retries,
                    backoff_base: 0.25,
                    tradeoff_fallback: fallback,
                }
            },
        )
}

fn chaos_config(seed: u64, faults: FaultPlan) -> ScenarioConfig {
    ScenarioConfig {
        seed,
        rate_per_60tu: 90.0,
        horizon: 240.0,
        faults,
        ..Default::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases_from_env(24))]

    /// Whatever the fault schedule does, the scenario's books balance:
    /// every arrival is accounted for exactly once, class totals add up,
    /// fault counters stay within their budgets — and replaying the same
    /// `(seed, plan)` pair reproduces the run byte for byte.
    #[test]
    fn chaos_accounting_balances_and_replays_byte_identically(
        seed in 0u64..1_000_000,
        plan in fault_plan(),
    ) {
        let config = chaos_config(seed, plan);
        let first = run_scenario(&config);
        let m = &first.metrics;

        // Every arrival ends in exactly one bucket.
        prop_assert_eq!(
            m.overall.attempts,
            m.overall.successes + m.plan_failures + m.reserve_failures + m.fault_failures
        );
        let class_attempts: u64 = m.per_class.iter().map(|c| c.attempts).sum();
        let class_successes: u64 = m.per_class.iter().map(|c| c.successes).sum();
        prop_assert_eq!(class_attempts, m.overall.attempts);
        prop_assert_eq!(class_successes, m.overall.successes);

        // Fault bookkeeping stays within its budgets.
        prop_assert!(m.sessions_lost <= m.overall.successes);
        prop_assert!(m.degraded_establishes <= m.overall.successes);
        prop_assert!(
            m.retries <= m.overall.attempts * u64::from(config.faults.max_retries),
            "retries {} exceed budget of {} per attempt",
            m.retries,
            config.faults.max_retries
        );
        if config.faults.is_empty() {
            prop_assert_eq!(m.faults_injected, 0);
            prop_assert_eq!(m.fault_failures, 0);
            prop_assert_eq!(m.sessions_lost, 0);
        }

        // Determinism regression: byte-identical metrics and message
        // stats on replay.
        let second = run_scenario(&config);
        prop_assert_eq!(
            serde_json::to_string(&first.metrics).unwrap(),
            serde_json::to_string(&second.metrics).unwrap()
        );
        prop_assert_eq!(
            serde_json::to_string(&first.messages).unwrap(),
            serde_json::to_string(&second.messages).unwrap()
        );
    }

    /// Fault support is invisible until armed: a plan with no fault
    /// sources — whatever its injector seed and backoff settings — yields
    /// runs byte-identical to the default configuration.
    #[test]
    fn empty_fault_plan_is_byte_identical_to_no_faults(
        seed in 0u64..1_000_000,
        injector_seed in any::<u64>(),
    ) {
        let baseline = chaos_config(seed, FaultPlan::default());
        let armed_but_empty = chaos_config(
            seed,
            FaultPlan {
                seed: injector_seed,
                ..FaultPlan::default()
            },
        );
        let a = run_scenario(&baseline);
        let b = run_scenario(&armed_but_empty);
        prop_assert_eq!(
            serde_json::to_string(&a.metrics).unwrap(),
            serde_json::to_string(&b.metrics).unwrap()
        );
        prop_assert_eq!(
            serde_json::to_string(&a.messages).unwrap(),
            serde_json::to_string(&b.messages).unwrap()
        );
        prop_assert_eq!(a.metrics.faults_injected, 0);
        prop_assert_eq!(a.metrics.sessions_lost, 0);
    }

    /// The tentpole invariant, driven directly against the figure-9
    /// environment: arbitrary interleavings of establish / terminate /
    /// crash / recover conserve capacity. After every crash the lost
    /// sessions are aborted, and from then on **no live session holds a
    /// reservation on a down host**; once all hosts recover and all
    /// sessions end, every broker is back at its initial availability.
    #[test]
    fn crash_recovery_schedules_conserve_capacity(
        seed in 0u64..1_000_000,
        injector_seed in any::<u64>(),
        drop_probability in 0.0f64..0.15,
        commit_failure_probability in 0.0f64..0.25,
        max_retries in 0u32..=3,
        steps in prop::collection::vec((0u32..10, any::<u64>()), 20..60),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let env = PaperEnvironment::build(
            &mut rng,
            &ServiceOptions::default(),
            (1000.0, 4000.0),
            LocalBrokerConfig::default(),
        );
        env.coordinator
            .faults()
            .configure(injector_seed, drop_probability, commit_failure_probability);
        let options = EstablishOptions {
            retry: RetryPolicy {
                max_retries,
                backoff_base: 0.25,
                tradeoff_fallback: true,
            },
            ..Default::default()
        };

        // Snapshot the untouched world (brokers in proxy order).
        let brokers: Vec<_> = env
            .coordinator
            .proxies()
            .iter()
            .flat_map(|p| p.brokers().iter().cloned())
            .collect();
        let initial: Vec<f64> = brokers.iter().map(|b| b.available()).collect();

        let mut live: Vec<qosr::broker::EstablishedSession> = Vec::new();
        let mut down: Vec<usize> = Vec::new();
        let mut t = 0.0;

        for (action, pick) in steps {
            t += 1.0;
            let now = SimTime::new(t);
            match action {
                // Establish (may legitimately fail: down hosts, faults).
                0..=5 => {
                    let domain = (pick % 8) as usize;
                    // Skip the domain's excluded service (its own proxy
                    // host) per the paper's rule.
                    let mut service = (pick / 8 % 4) as usize;
                    if service == domain / 2 {
                        service = (service + 1) % 4;
                    }
                    let session = env
                        .session(service, domain, 1.0)
                        .expect("valid pair is instantiable");
                    let request = SessionRequest::new(session).options(options.clone());
                    if let Ok(est) = env
                        .coordinator
                        .establish_request(&request, now, &mut rng)
                        .into_result()
                    {
                        live.push(est);
                    }
                }
                // Terminate one live session.
                6 | 7 => {
                    if !live.is_empty() {
                        let est = live.remove(pick as usize % live.len());
                        env.coordinator.terminate(&est, now);
                    }
                }
                // Crash a host; abort the sessions it was carrying.
                8 => {
                    let h = (pick % 4) as usize;
                    if !down.contains(&h) {
                        env.coordinator.crash_host(&format!("H{}", h + 1), now);
                        down.push(h);
                        let host_brokers = env.coordinator.proxies()[h].brokers();
                        let mut i = 0;
                        while i < live.len() {
                            if host_brokers.iter().any(|b| b.reserved_for(live[i].id) > 0.0) {
                                let est = live.remove(i);
                                env.coordinator.abort(&est, now);
                            } else {
                                i += 1;
                            }
                        }
                    }
                }
                // Recover the most recently crashed host.
                9 => {
                    if let Some(h) = down.pop() {
                        env.coordinator.recover_host(&format!("H{}", h + 1), now);
                    }
                }
                _ => unreachable!("action is drawn from 0..10"),
            }

            // Invariant: live sessions never hold capacity on down hosts.
            for &h in &down {
                for broker in env.coordinator.proxies()[h].brokers().iter() {
                    for est in &live {
                        let held = broker.reserved_for(est.id);
                        prop_assert!(
                            held == 0.0,
                            "live session {} holds {held} on down host H{}",
                            est.id.0,
                            h + 1
                        );
                    }
                }
            }
        }

        // Drain: everyone recovers, every session ends.
        t += 1.0;
        for h in down {
            env.coordinator.recover_host(&format!("H{}", h + 1), SimTime::new(t));
        }
        for est in live {
            env.coordinator.terminate(&est, SimTime::new(t));
        }
        for (broker, &before) in brokers.iter().zip(&initial) {
            let after = broker.available();
            prop_assert!(
                (after - before).abs() < 1e-6,
                "broker for resource {:?} ended at {after}, started at {before}",
                broker.resource()
            );
        }
    }
}

/// Maps a raw draw to a valid `(service, domain)` pair, skipping the
/// domain's excluded service (its own proxy host) per the paper's rule.
fn pick_pair(pick: u64) -> (usize, usize) {
    let domain = (pick % 8) as usize;
    let mut service = (pick / 8 % 4) as usize;
    if service == domain / 2 {
        service = (service + 1) % 4;
    }
    (service, domain)
}

fn fresh_env(seed: u64, capacity_range: (f64, f64)) -> PaperEnvironment {
    let mut rng = StdRng::seed_from_u64(seed);
    PaperEnvironment::build(
        &mut rng,
        &ServiceOptions::default(),
        capacity_range,
        LocalBrokerConfig::default(),
    )
}

/// Four hosts with one CPU each; sessions are one-component chains
/// bound to a single host CPU, demanding 20 (rank 1) or 60 (rank 2)
/// times their scale. With exactly one binding and one translation row
/// per rank, a plan's committed demand is a pure function of its rank.
struct DisjointWorld {
    coordinator: qosr::broker::Coordinator,
    service: std::sync::Arc<ServiceSpec>,
    cpus: Vec<ResourceId>,
}

impl DisjointWorld {
    fn session(&self, host: usize, scale: f64) -> SessionInstance {
        SessionInstance::new(
            self.service.clone(),
            vec![ComponentBinding::new([self.cpus[host]])],
            scale,
        )
        .expect("single-binding session is instantiable")
    }

    fn brokers(&self) -> Vec<std::sync::Arc<dyn qosr::broker::Broker>> {
        self.coordinator
            .proxies()
            .iter()
            .flat_map(|p| p.brokers().iter().cloned())
            .collect()
    }
}

fn disjoint_world(capacity: f64) -> DisjointWorld {
    use std::sync::Arc;
    let mut space = ResourceSpace::new();
    let mut proxies = Vec::new();
    let mut cpus = Vec::new();
    for h in 0..4 {
        let cpu = space.register(format!("H{h}.cpu"), ResourceKind::Compute);
        let mut reg = qosr::broker::BrokerRegistry::new();
        reg.register(Arc::new(qosr::broker::LocalBroker::new(
            cpu,
            capacity,
            SimTime::ZERO,
            LocalBrokerConfig::default(),
        )));
        proxies.push(Arc::new(qosr::broker::QosProxy::new(format!("H{h}"), reg)));
        cpus.push(cpu);
    }
    let schema = QosSchema::new("q", ["x"]);
    let v = |x: u32| QosVector::new(schema.clone(), [x]);
    let comp = ComponentSpec::new(
        "c",
        vec![v(0)],
        vec![v(1), v(2)],
        vec![SlotSpec::new("cpu", ResourceKind::Compute)],
        Arc::new(
            TableTranslation::builder(1, 2, 1)
                .entry(0, 0, [20.0])
                .entry(0, 1, [60.0])
                .build(),
        ),
    );
    let service = Arc::new(ServiceSpec::chain("svc", vec![comp], vec![1, 2]).unwrap());
    DisjointWorld {
        coordinator: qosr::broker::Coordinator::new(proxies),
        service,
        cpus,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases_from_env(24))]

    /// With no same-round conflicts, a batch commits exactly what
    /// sequential admission in arrival order commits: the same
    /// requests admitted at the same ranks, leaving
    /// every broker at the same availability. The world's sessions are
    /// single-component with one binding each, so plans have no
    /// Ψ-driven path freedom — any divergence is a pipeline bug, not
    /// the planner re-ranking hops against drifted availability.
    #[test]
    fn conflict_free_batches_match_sequential_admission(
        queue_seed in any::<u64>(),
        picks in prop::collection::vec((0usize..4, 1.0f64..4.0), 1..12),
    ) {
        let batch_world = disjoint_world(100_000.0);
        let seq_world = disjoint_world(100_000.0);
        let now = SimTime::new(1.0);

        let requests = |w: &DisjointWorld| -> Vec<SessionRequest> {
            picks
                .iter()
                .map(|&(host, scale)| SessionRequest::new(w.session(host, scale)))
                .collect()
        };
        let queue = AdmissionQueue::new(
            &batch_world.coordinator,
            AdmissionConfig {
                seed: queue_seed,
                ..AdmissionConfig::default()
            },
        );
        let batch_outcomes = queue.admit(&requests(&batch_world), now);

        let mut rng = StdRng::seed_from_u64(queue_seed);
        let seq_outcomes: Vec<EstablishOutcome> = requests(&seq_world)
            .iter()
            .map(|request| seq_world.coordinator.establish_request(request, now, &mut rng))
            .collect();

        // Ample capacity means the batch never conflicted, so both
        // paths must agree request by request.
        let snap = batch_world.coordinator.counters().snapshot();
        prop_assert_eq!(snap.commit_conflicts, 0);
        prop_assert_eq!(snap.replans, 0);
        for (i, (b, s)) in batch_outcomes.iter().zip(&seq_outcomes).enumerate() {
            prop_assert_eq!(b.is_admitted(), s.is_admitted(), "request {} diverged", i);
            if let (Some(be), Some(se)) = (b.session(), s.session()) {
                prop_assert_eq!(be.plan.rank, se.plan.rank, "request {} rank diverged", i);
            }
        }

        // Identical committed capacity totals, broker by broker.
        for (b, s) in batch_world.brokers().iter().zip(&seq_world.brokers()) {
            prop_assert!(
                (b.available() - s.available()).abs() < 1e-6,
                "resource {:?}: batch left {}, sequential left {}",
                b.resource(),
                b.available(),
                s.available()
            );
        }
    }

    /// Under scarcity — fat sessions against tight capacity — batched
    /// admission conflicts and replans, but never over-commits a
    /// broker, whatever the replan budget, and terminating everything
    /// that was admitted restores the untouched world.
    #[test]
    fn contended_batches_never_over_commit(
        env_seed in 0u64..1_000_000,
        queue_seed in any::<u64>(),
        max_replans in 0u32..=3,
        picks in prop::collection::vec((any::<u64>(), 1.0f64..10.0), 4..16),
    ) {
        let env = fresh_env(env_seed, (150.0, 600.0));
        let now = SimTime::new(1.0);

        let requests: Vec<SessionRequest> = picks
            .iter()
            .map(|&(p, scale)| {
                let (service, domain) = pick_pair(p);
                SessionRequest::new(env.session(service, domain, scale).unwrap())
            })
            .collect();
        let brokers: Vec<_> = env
            .coordinator
            .proxies()
            .iter()
            .flat_map(|p| p.brokers().iter().cloned())
            .collect();
        let initial: Vec<f64> = brokers.iter().map(|b| b.available()).collect();

        let queue = AdmissionQueue::new(
            &env.coordinator,
            AdmissionConfig {
                max_replans,
                seed: queue_seed,
                ..AdmissionConfig::default()
            },
        );
        let outcomes = queue.admit(&requests, now);

        // No broker over-commits: availability never goes negative (a
        // reservation beyond capacity) and never exceeds capacity (a
        // double release). Path brokers report the min over their
        // shared links, so the bound — not a per-session sum — is the
        // invariant that holds for every broker kind.
        let admitted: Vec<_> = outcomes.into_iter().filter_map(|o| o.into_session()).collect();
        for broker in &brokers {
            let after = broker.available();
            prop_assert!(
                after >= -1e-9 && after <= broker.capacity() + 1e-9,
                "resource {:?} over-committed: available {} of capacity {}",
                broker.resource(),
                after,
                broker.capacity()
            );
        }

        // Terminating every admitted session restores the world.
        for est in &admitted {
            env.coordinator.terminate(est, SimTime::new(2.0));
        }
        for (broker, &before) in brokers.iter().zip(&initial) {
            prop_assert!(
                (broker.available() - before).abs() < 1e-6,
                "resource {:?} ended at {}, started at {}",
                broker.resource(),
                broker.available(),
                before
            );
        }
    }
}

/// A fixed chaotic scenario actually exercises the machinery end to end:
/// hosts crash and recover mid-run, sessions are lost, commits fail and
/// are retried. (Guards against the chaos properties passing vacuously.)
#[test]
fn chaotic_scenario_exercises_every_fault_path() {
    let config = chaos_config(
        7,
        FaultPlan {
            seed: 11,
            crashes: vec![
                HostCrash {
                    host: 1,
                    at: 60.0,
                    recover_at: Some(120.0),
                },
                HostCrash {
                    host: 3,
                    at: 150.0,
                    recover_at: Some(200.0),
                },
            ],
            drop_probability: 0.05,
            commit_failure_probability: 0.15,
            max_retries: 2,
            backoff_base: 0.25,
            tradeoff_fallback: true,
        },
    );
    let result = run_scenario(&config);
    let m = &result.metrics;
    assert!(m.overall.attempts > 100, "run must see real load");
    assert!(
        m.overall.successes > 0,
        "faults must not kill every session"
    );
    assert!(m.faults_injected > 0, "crashes and commit failures count");
    assert!(m.sessions_lost > 0, "crashed hosts lose their sessions");
    assert!(m.rollbacks > 0, "failed commits roll prepared hops back");
    assert!(m.retries > 0, "the retry budget absorbs transient faults");
    assert_eq!(
        m.overall.attempts,
        m.overall.successes + m.plan_failures + m.reserve_failures + m.fault_failures
    );
}
