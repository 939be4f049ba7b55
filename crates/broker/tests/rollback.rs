//! Rollback correctness of the two-phase reserve/commit dispatch.
//!
//! Every test drives the public `Coordinator` API against real brokers
//! and checks the exactly-once rollback guarantee: a failure at any hop
//! — injected commit failure, broker rejection mid-prepare, crashed
//! host — releases precisely the prepared segments, precisely once,
//! leaving every broker at full availability and any *other* holdings of
//! the same session untouched.

use qosr_broker::{
    Broker, BrokerRegistry, BrokerReport, Coordinator, EstablishError, EstablishOptions,
    FaultError, LocalBroker, LocalBrokerConfig, QosProxy, ReserveError, RetryPolicy, SessionId,
    SessionRequest, SimTime,
};
use qosr_model::{
    ComponentBinding, ComponentSpec, QosSchema, QosVector, ResourceId, ResourceKind, ResourceSpace,
    ResourceVector, ServiceSpec, SessionInstance, SlotSpec, TableTranslation,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A broker that counts `release`/`release_amount` calls, to prove the
/// rollback touches each prepared hop exactly once.
struct CountingBroker {
    inner: LocalBroker,
    releases: AtomicU64,
}

impl CountingBroker {
    fn new(resource: ResourceId, capacity: f64) -> Self {
        CountingBroker {
            inner: LocalBroker::new(
                resource,
                capacity,
                SimTime::ZERO,
                LocalBrokerConfig::default(),
            ),
            releases: AtomicU64::new(0),
        }
    }

    fn releases(&self) -> u64 {
        self.releases.load(Ordering::SeqCst)
    }
}

impl Broker for CountingBroker {
    fn resource(&self) -> ResourceId {
        self.inner.resource()
    }
    fn capacity(&self) -> f64 {
        self.inner.capacity()
    }
    fn available(&self) -> f64 {
        self.inner.available()
    }
    fn available_at(&self, t: SimTime) -> f64 {
        self.inner.available_at(t)
    }
    fn report_observed(&self, now: SimTime, observed_at: SimTime) -> BrokerReport {
        self.inner.report_observed(now, observed_at)
    }
    fn reserve(&self, session: SessionId, amount: f64, now: SimTime) -> Result<(), ReserveError> {
        self.inner.reserve(session, amount, now)
    }
    fn release(&self, session: SessionId, now: SimTime) -> f64 {
        self.releases.fetch_add(1, Ordering::SeqCst);
        self.inner.release(session, now)
    }
    fn release_amount(&self, session: SessionId, amount: f64, now: SimTime) -> f64 {
        self.releases.fetch_add(1, Ordering::SeqCst);
        self.inner.release_amount(session, amount, now)
    }
    fn reserved_for(&self, session: SessionId) -> f64 {
        self.inner.reserved_for(session)
    }
}

/// A broker that over-reports its availability for the first `lies`
/// reports, then tells the truth. Reservations always run against the
/// true state, so a plan built on the lie fails at prepare — the
/// deterministic stand-in for a mid-flight availability change.
struct LyingBroker {
    inner: LocalBroker,
    reported: f64,
    lies: AtomicU64,
}

impl LyingBroker {
    fn new(resource: ResourceId, capacity: f64, reported: f64, lies: u64) -> Self {
        LyingBroker {
            inner: LocalBroker::new(
                resource,
                capacity,
                SimTime::ZERO,
                LocalBrokerConfig::default(),
            ),
            reported,
            lies: AtomicU64::new(lies),
        }
    }
}

impl Broker for LyingBroker {
    fn resource(&self) -> ResourceId {
        self.inner.resource()
    }
    fn capacity(&self) -> f64 {
        self.inner.capacity()
    }
    fn available(&self) -> f64 {
        self.inner.available()
    }
    fn available_at(&self, t: SimTime) -> f64 {
        self.inner.available_at(t)
    }
    fn report_observed(&self, now: SimTime, observed_at: SimTime) -> BrokerReport {
        let truth = self.inner.report_observed(now, observed_at);
        if self
            .lies
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1))
            .is_ok()
        {
            BrokerReport {
                avail: self.reported,
                alpha: truth.alpha,
            }
        } else {
            truth
        }
    }
    fn reserve(&self, session: SessionId, amount: f64, now: SimTime) -> Result<(), ReserveError> {
        self.inner.reserve(session, amount, now)
    }
    fn release(&self, session: SessionId, now: SimTime) -> f64 {
        self.inner.release(session, now)
    }
    fn release_amount(&self, session: SessionId, amount: f64, now: SimTime) -> f64 {
        self.inner.release_amount(session, amount, now)
    }
    fn reserved_for(&self, session: SessionId) -> f64 {
        self.inner.reserved_for(session)
    }
}

/// Three hosts A/B/C, one CPU each, a three-component chain with one QoS
/// level demanding 10 CPU units per component.
struct ThreeHosts {
    coordinator: Coordinator,
    session: SessionInstance,
    cpus: Vec<Arc<CountingBroker>>,
}

fn three_hosts() -> ThreeHosts {
    let mut space = ResourceSpace::new();
    let schema = QosSchema::new("q", ["x"]);
    let v = |x: u32| QosVector::new(schema.clone(), [x]);

    let mut proxies = Vec::new();
    let mut cpus = Vec::new();
    let mut bindings = Vec::new();
    let mut components = Vec::new();
    for (i, host) in ["A", "B", "C"].iter().enumerate() {
        let cpu = space.register(format!("{host}.cpu"), ResourceKind::Compute);
        let broker = Arc::new(CountingBroker::new(cpu, 100.0));
        let mut reg = BrokerRegistry::new();
        reg.register(broker.clone());
        proxies.push(Arc::new(QosProxy::new(*host, reg)));
        cpus.push(broker);
        bindings.push(ComponentBinding::new([cpu]));
        let input = if i == 0 { v(0) } else { v(1) };
        components.push(ComponentSpec::new(
            format!("c{i}"),
            vec![input],
            vec![v(1)],
            vec![SlotSpec::new("cpu", ResourceKind::Compute)],
            Arc::new(
                TableTranslation::builder(1, 1, 1)
                    .entry(0, 0, [10.0])
                    .build(),
            ),
        ));
    }
    let service = Arc::new(ServiceSpec::chain("svc", components, vec![1]).unwrap());
    let session = SessionInstance::new(service, bindings, 1.0).unwrap();
    ThreeHosts {
        coordinator: Coordinator::new(proxies),
        session,
        cpus,
    }
}

#[test]
fn commit_failure_rolls_back_every_prepared_hop_exactly_once() {
    // All three hops prepare; the commit to B (hop 1) fails. The
    // transaction must abort with all three prepared segments released
    // exactly once each.
    for victim in ["A", "B", "C"] {
        let w = three_hosts();
        let mut rng = StdRng::seed_from_u64(1);
        w.coordinator.faults().script_commit_failures(victim, 1);
        let err = w
            .coordinator
            .establish_request(
                &SessionRequest::new(w.session.clone()),
                SimTime::new(1.0),
                &mut rng,
            )
            .into_result()
            .unwrap_err();
        match err {
            EstablishError::Fault(FaultError::CommitFailed { host }) => assert_eq!(host, victim),
            other => panic!("expected CommitFailed on {victim}, got {other}"),
        }
        for cpu in &w.cpus {
            assert_eq!(cpu.releases(), 1, "victim {victim}: not exactly once");
            assert_eq!(cpu.available(), cpu.capacity(), "victim {victim}: leaked");
        }
        let snap = w.coordinator.counters().snapshot();
        assert_eq!(snap.rollbacks, 1);
        assert_eq!(snap.faults_injected, 1);
        assert_eq!(snap.fault_failures, 1);
        assert_eq!(w.coordinator.stats().established, 0);
    }
}

#[test]
fn prepare_failure_releases_only_the_prepared_prefix() {
    // B over-reports availability once: planning places demand it cannot
    // hold, so prepare fails at hop 1 — only hop 0 (A) was prepared and
    // only it may be released.
    let mut space = ResourceSpace::new();
    let schema = QosSchema::new("q", ["x"]);
    let v = |x: u32| QosVector::new(schema.clone(), [x]);
    let cpu_a = space.register("A.cpu", ResourceKind::Compute);
    let cpu_b = space.register("B.cpu", ResourceKind::Compute);
    let cpu_c = space.register("C.cpu", ResourceKind::Compute);

    let a = Arc::new(CountingBroker::new(cpu_a, 100.0));
    let b = Arc::new(LyingBroker::new(cpu_b, 5.0, 100.0, u64::MAX));
    let c = Arc::new(CountingBroker::new(cpu_c, 100.0));
    let mut reg_a = BrokerRegistry::new();
    reg_a.register(a.clone());
    let mut reg_b = BrokerRegistry::new();
    reg_b.register(b.clone());
    let mut reg_c = BrokerRegistry::new();
    reg_c.register(c.clone());
    let coordinator = Coordinator::new(vec![
        Arc::new(QosProxy::new("A", reg_a)),
        Arc::new(QosProxy::new("B", reg_b)),
        Arc::new(QosProxy::new("C", reg_c)),
    ]);

    let comp = |i: usize, input: QosVector| {
        ComponentSpec::new(
            format!("c{i}"),
            vec![input],
            vec![v(1)],
            vec![SlotSpec::new("cpu", ResourceKind::Compute)],
            Arc::new(
                TableTranslation::builder(1, 1, 1)
                    .entry(0, 0, [10.0])
                    .build(),
            ),
        )
    };
    let service = Arc::new(
        ServiceSpec::chain(
            "svc",
            vec![comp(0, v(0)), comp(1, v(1)), comp(2, v(1))],
            vec![1],
        )
        .unwrap(),
    );
    let session = SessionInstance::new(
        service,
        vec![
            ComponentBinding::new([cpu_a]),
            ComponentBinding::new([cpu_b]),
            ComponentBinding::new([cpu_c]),
        ],
        1.0,
    )
    .unwrap();

    let mut rng = StdRng::seed_from_u64(2);
    let err = coordinator
        .establish_request(
            &SessionRequest::new(session.clone()),
            SimTime::new(1.0),
            &mut rng,
        )
        .into_result()
        .unwrap_err();
    match err {
        EstablishError::Reserve(e) => assert_eq!(e.resource(), cpu_b),
        other => panic!("expected a reserve rejection, got {other}"),
    }
    // Hop 0 was prepared and rolled back exactly once; hop 2 was never
    // reached, so its broker saw no release at all.
    assert_eq!(a.releases(), 1);
    assert_eq!(c.releases(), 0);
    assert_eq!(a.available(), 100.0);
    assert_eq!(b.available(), 5.0);
    let snap = coordinator.counters().snapshot();
    assert_eq!(snap.rollbacks, 1);
    assert_eq!(snap.reservations_rejected, 1);
}

#[test]
fn retry_absorbs_a_transient_commit_failure() {
    let w = three_hosts();
    let mut rng = StdRng::seed_from_u64(3);
    w.coordinator.faults().script_commit_failures("B", 1);
    let options = EstablishOptions {
        retry: RetryPolicy {
            max_retries: 1,
            ..RetryPolicy::default()
        },
        ..EstablishOptions::default()
    };
    let est = w
        .coordinator
        .establish_request(
            &SessionRequest::new(w.session.clone()).options(options.clone()),
            SimTime::new(1.0),
            &mut rng,
        )
        .into_result()
        .unwrap();
    for cpu in &w.cpus {
        assert_eq!(cpu.reserved_for(est.id), 10.0);
        // The failed first attempt rolled back exactly once.
        assert_eq!(cpu.releases(), 1);
    }
    let snap = w.coordinator.counters().snapshot();
    assert_eq!(snap.retries, 1);
    assert_eq!(snap.rollbacks, 1);
    assert_eq!(snap.faults_injected, 1);
    assert_eq!(snap.fault_failures, 0);
    assert_eq!(w.coordinator.stats().established, 1);
    w.coordinator.terminate(&est, SimTime::new(2.0));
    for cpu in &w.cpus {
        assert_eq!(cpu.available(), cpu.capacity());
    }
}

#[test]
fn retry_after_prepare_failure_degrades_gracefully() {
    // Two hosts, a two-level chain (level 2 needs 40, level 1 needs 10).
    // B reports 100 available exactly once but truly holds 20: the first
    // attempt plans rank 2 and dies at prepare; the retry re-collects,
    // sees the truth, and commits rank 1 — a degraded establishment.
    let mut space = ResourceSpace::new();
    let schema = QosSchema::new("q", ["x"]);
    let v = |x: u32| QosVector::new(schema.clone(), [x]);
    let cpu_a = space.register("A.cpu", ResourceKind::Compute);
    let cpu_b = space.register("B.cpu", ResourceKind::Compute);
    let a = Arc::new(CountingBroker::new(cpu_a, 100.0));
    let b = Arc::new(LyingBroker::new(cpu_b, 20.0, 100.0, 1));
    let mut reg_a = BrokerRegistry::new();
    reg_a.register(a.clone());
    let mut reg_b = BrokerRegistry::new();
    reg_b.register(b.clone());
    let coordinator = Coordinator::new(vec![
        Arc::new(QosProxy::new("A", reg_a)),
        Arc::new(QosProxy::new("B", reg_b)),
    ]);

    let c0 = ComponentSpec::new(
        "c0",
        vec![v(0)],
        vec![v(1), v(2)],
        vec![SlotSpec::new("cpu", ResourceKind::Compute)],
        Arc::new(
            TableTranslation::builder(1, 2, 1)
                .entry(0, 0, [10.0])
                .entry(0, 1, [40.0])
                .build(),
        ),
    );
    let c1 = ComponentSpec::new(
        "c1",
        vec![v(1), v(2)],
        vec![v(1), v(2)],
        vec![SlotSpec::new("cpu", ResourceKind::Compute)],
        Arc::new(
            TableTranslation::builder(2, 2, 1)
                .entry(0, 0, [10.0])
                .entry(1, 1, [40.0])
                .build(),
        ),
    );
    let service = Arc::new(ServiceSpec::chain("svc", vec![c0, c1], vec![1, 2]).unwrap());
    let session = SessionInstance::new(
        service,
        vec![
            ComponentBinding::new([cpu_a]),
            ComponentBinding::new([cpu_b]),
        ],
        1.0,
    )
    .unwrap();

    let mut rng = StdRng::seed_from_u64(4);
    let options = EstablishOptions {
        retry: RetryPolicy {
            max_retries: 2,
            ..RetryPolicy::default()
        },
        ..EstablishOptions::default()
    };
    let est = coordinator
        .establish_request(
            &SessionRequest::new(session.clone()).options(options.clone()),
            SimTime::new(1.0),
            &mut rng,
        )
        .into_result()
        .unwrap();
    assert_eq!(est.plan.rank, 1, "should have degraded to rank 1");
    let snap = coordinator.counters().snapshot();
    assert_eq!(snap.degraded_commits, 1);
    assert_eq!(snap.retries, 1);
    assert_eq!(snap.rollbacks, 1);
    assert_eq!(b.reserved_for(est.id), 10.0);
    assert_eq!(a.reserved_for(est.id), 10.0);
}

#[test]
fn down_host_is_unplannable_until_recovery() {
    let w = three_hosts();
    let mut rng = StdRng::seed_from_u64(5);
    w.coordinator.crash_host("B", SimTime::new(1.0));
    // B's resources go unobserved, so no feasible plan exists (the chain
    // has no alternative binding) — the failure is a *plan* rejection,
    // not a reservation leak.
    let err = w
        .coordinator
        .establish_request(
            &SessionRequest::new(w.session.clone()),
            SimTime::new(2.0),
            &mut rng,
        )
        .into_result()
        .unwrap_err();
    assert!(matches!(err, EstablishError::Plan(_)));
    for cpu in &w.cpus {
        assert_eq!(cpu.available(), cpu.capacity());
        assert_eq!(cpu.releases(), 0);
    }
    // Recovery re-admits the capacity.
    w.coordinator.recover_host("B", SimTime::new(3.0));
    let est = w
        .coordinator
        .establish_request(
            &SessionRequest::new(w.session.clone()),
            SimTime::new(4.0),
            &mut rng,
        )
        .into_result()
        .unwrap();
    assert_eq!(est.plan.rank, 1);
}

#[test]
fn network_path_rollback_spares_shared_link_holdings() {
    // The qosr-net partial-release case: the session already holds path
    // P2 across a shared link; a failed multi-resource reservation that
    // prepared path P1 (also over the shared link) must roll P1 back
    // without disturbing P2's hold.
    use qosr_net::NetworkBroker;

    let link = |i: u32, capacity: f64| {
        Arc::new(LocalBroker::new(
            ResourceId(i),
            capacity,
            SimTime::ZERO,
            LocalBrokerConfig::default(),
        ))
    };
    let l0 = link(0, 100.0);
    let shared = link(1, 100.0);
    let l2 = link(2, 100.0);
    let p1 = Arc::new(NetworkBroker::new(
        ResourceId(10),
        vec![l0.clone(), shared.clone()],
        3.0,
    ));
    let p2 = Arc::new(NetworkBroker::new(
        ResourceId(11),
        vec![shared.clone(), l2.clone()],
        3.0,
    ));
    let cpu = Arc::new(LocalBroker::new(
        ResourceId(200),
        10.0,
        SimTime::ZERO,
        LocalBrokerConfig::default(),
    ));
    let mut reg = BrokerRegistry::new();
    reg.register(p1.clone());
    reg.register(p2.clone());
    reg.register(cpu.clone());

    let s = SessionId(1);
    p2.reserve(s, 20.0, SimTime::new(1.0)).unwrap();
    assert_eq!(shared.available(), 80.0);

    // Demand iterates in id order: P1 (10) prepares first, then the CPU
    // (200) over-demands and forces the rollback.
    let demand =
        ResourceVector::from_pairs([(ResourceId(10), 30.0), (ResourceId(200), 50.0)]).unwrap();
    let err = reg.reserve_all(s, &demand, SimTime::new(2.0)).unwrap_err();
    assert_eq!(err.resource(), ResourceId(200));

    // P1 fully rolled back; P2's 20 on the shared link untouched.
    assert_eq!(p1.reserved_for(s), 0.0);
    assert_eq!(l0.available(), 100.0);
    assert_eq!(shared.available(), 80.0);
    assert_eq!(shared.reserved_for(s), 20.0);
    assert_eq!(p2.reserved_for(s), 20.0);
}
