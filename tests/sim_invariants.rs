//! Conservation and bookkeeping invariants of the simulated
//! environment, driven directly through the public `PaperEnvironment` /
//! `Coordinator` API (bypassing `run_scenario` so every reservation is
//! visible to the test).

use qosr::broker::{
    Broker, EstablishOptions, EstablishedSession, LocalBrokerConfig, SessionRequest, SimTime,
};
use qosr::sim::{services::ServiceOptions, PaperEnvironment, TopologyVariant, WorkloadGenerator};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Sum of held amounts over the *physical* resources (host CPUs and
/// individual links). Path brokers are views over links — two paths
/// over one link alias each other — so they must not be counted
/// directly.
fn total_reserved(env: &PaperEnvironment) -> f64 {
    let cpus: f64 = (0..4)
        .map(|h| {
            let rid = env.host_cpu(h);
            let b = env
                .coordinator
                .owner_of(rid)
                .unwrap()
                .brokers()
                .get(rid)
                .unwrap();
            b.capacity() - b.available()
        })
        .sum();
    let links: f64 = env
        .fabric
        .link_brokers()
        .iter()
        .map(|l| l.capacity() - l.available())
        .sum();
    cpus + links
}

/// A plan's total demand expanded onto physical resources: path demands
/// count once per link of the route.
fn physical_demand(env: &PaperEnvironment, est: &EstablishedSession) -> f64 {
    let route_len: std::collections::HashMap<_, _> = env
        .fabric
        .path_brokers()
        .map(|p| (Broker::resource(p.as_ref()), p.route().len()))
        .collect();
    est.plan
        .total_demand()
        .iter()
        .map(|(rid, amount)| amount * route_len.get(&rid).copied().unwrap_or(1) as f64)
        .sum()
}

/// After establishing a burst of sessions and terminating every one of
/// them, every broker (including the per-link brokers inside the path
/// brokers) must be exactly back to full capacity.
#[test]
fn drain_restores_every_resource() {
    for variant in [TopologyVariant::FullMesh, TopologyVariant::Ring] {
        let mut rng = StdRng::seed_from_u64(99);
        let env = PaperEnvironment::build_with_topology(
            &mut rng,
            &ServiceOptions {
                requirement_scale: 0.5,
                diversity_ratio: None,
            },
            (1000.0, 4000.0),
            LocalBrokerConfig::default(),
            variant,
        );
        let workload = WorkloadGenerator::new(120.0);
        let opts = EstablishOptions::default();
        let mut held: Vec<EstablishedSession> = Vec::new();
        let mut now = SimTime::ZERO;
        for _ in 0..500 {
            now += 0.5;
            let req = workload.sample(&mut rng);
            let session = env.session(req.service, req.domain, req.scale).unwrap();
            let request = SessionRequest::new(session).options(opts.clone());
            if let Ok(est) = env
                .coordinator
                .establish_request(&request, now, &mut rng)
                .into_result()
            {
                held.push(est);
            }
        }
        assert!(!held.is_empty());
        assert!(total_reserved(&env) > 0.0);

        // Everything the physical brokers hold must equal the sum of the
        // plans' demands (path demands expanded over their routes).
        let planned: f64 = held.iter().map(|e| physical_demand(&env, e)).sum();
        assert!(
            (total_reserved(&env) - planned).abs() < 1e-6,
            "{variant:?}: reserved {} vs planned {}",
            total_reserved(&env),
            planned
        );

        for est in &held {
            now += 0.1;
            env.coordinator.terminate(est, now);
        }
        // Proxy-level brokers are clean…
        assert!(
            total_reserved(&env) < 1e-9,
            "{variant:?} leaked reservations"
        );
        // …and so are the underlying links.
        for (i, l) in env.fabric.link_brokers().iter().enumerate() {
            assert_eq!(
                l.available(),
                l.capacity(),
                "{variant:?} leaked on {:?}",
                qosr::net::LinkId(i)
            );
        }
    }
}

/// Every established plan's per-resource demand must have fit the
/// availability at establishment time — i.e. a committed reservation
/// never exceeds a broker's capacity, and brokers never go negative even
/// under churn.
#[test]
fn availability_never_negative_under_churn() {
    let mut rng = StdRng::seed_from_u64(4242);
    let env = PaperEnvironment::build(
        &mut rng,
        &ServiceOptions {
            requirement_scale: 1.0, // heavy demand to force rejections
            diversity_ratio: None,
        },
        (1000.0, 4000.0),
        LocalBrokerConfig::default(),
    );
    let workload = WorkloadGenerator::new(240.0);
    let opts = EstablishOptions::default();
    let mut held: Vec<EstablishedSession> = Vec::new();
    let mut now = SimTime::ZERO;
    for step in 0..2000 {
        now += 0.25;
        let req = workload.sample(&mut rng);
        let session = env.session(req.service, req.domain, req.scale).unwrap();
        let request = SessionRequest::new(session).options(opts.clone());
        if let Ok(est) = env
            .coordinator
            .establish_request(&request, now, &mut rng)
            .into_result()
        {
            held.push(est);
        }
        // Random churn: terminate an old session every few steps.
        if step % 3 == 0 && !held.is_empty() {
            let est = held.swap_remove(step % held.len());
            env.coordinator.terminate(&est, now);
        }
        if step % 200 == 0 {
            for p in env.coordinator.proxies() {
                for b in p.brokers().iter() {
                    assert!(b.available() >= -1e-9, "negative availability");
                    assert!(b.available() <= b.capacity() + 1e-9, "over-capacity");
                }
            }
        }
    }
    let stats = env.coordinator.stats();
    assert_eq!(stats.attempts, 2000);
    assert!(
        stats.established > 0 && stats.established < 2000,
        "expected a mix of admits and rejections, got {}",
        stats.established
    );
}

/// The establishment protocol's message accounting matches its
/// structure: one collection round trip per proxy per attempt.
#[test]
fn message_accounting_matches_protocol() {
    let mut rng = StdRng::seed_from_u64(5);
    let env = PaperEnvironment::build(
        &mut rng,
        &ServiceOptions::default(),
        (1000.0, 4000.0),
        LocalBrokerConfig::default(),
    );
    let opts = EstablishOptions::default();
    let mut now = SimTime::ZERO;
    let workload = WorkloadGenerator::new(60.0);
    for _ in 0..50 {
        now += 1.0;
        let req = workload.sample(&mut rng);
        let session = env.session(req.service, req.domain, req.scale).unwrap();
        let request = SessionRequest::new(session).options(opts.clone());
        let _ = env.coordinator.establish_request(&request, now, &mut rng);
    }
    let stats = env.coordinator.stats();
    assert_eq!(stats.attempts, 50);
    assert_eq!(
        stats.collect_roundtrips,
        50 * 4,
        "one RT per proxy per attempt"
    );
    // Each established session dispatches to exactly 2 proxies (server
    // CPU; proxy CPU + both network paths are owned by the proxy host).
    assert_eq!(stats.dispatches, stats.established * 2);
}
