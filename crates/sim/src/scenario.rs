//! Scenario configuration and the main simulation loop.

use crate::dsl::{EventSpec, Rule, Trigger, DEFAULT_POLL};
use crate::engine::{Event, EventQueue};
use crate::env::{PaperEnvironment, TopologyVariant};
use crate::fault::FaultPlan;
use crate::metrics::{MessageStatsRecord, RunMetrics, RunResult};
use crate::services::{path_label, ServiceOptions, ServiceType};
use crate::workload::WorkloadGenerator;
use qosr_broker::{
    AdmissionConfig, AdmissionQueue, EstablishError, EstablishOptions, EstablishedSession,
    LocalBrokerConfig, ObservationPolicy, RetryPolicy, SessionId, SessionRequest as AdmitRequest,
    SimTime,
};
use qosr_core::{Planner, PsiDef, QrgOptions};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Which planning algorithm a run uses (serializable mirror of
/// [`qosr_core::Planner`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum PlannerKind {
    /// The basic algorithm (§4.1).
    #[default]
    Basic,
    /// Basic + the QoS/success-rate tradeoff policy (§4.3.1).
    Tradeoff,
    /// The contention-unaware random baseline (§5).
    Random,
}

impl From<PlannerKind> for Planner {
    fn from(k: PlannerKind) -> Planner {
        match k {
            PlannerKind::Basic => Planner::Basic,
            PlannerKind::Tradeoff => Planner::Tradeoff,
            PlannerKind::Random => Planner::Random,
        }
    }
}

impl PlannerKind {
    /// The paper's name for the algorithm.
    pub fn label(self) -> &'static str {
        match self {
            PlannerKind::Basic => "basic",
            PlannerKind::Tradeoff => "tradeoff",
            PlannerKind::Random => "random",
        }
    }
}

/// Which per-resource contention-index definition to use (ablation;
/// serializable mirror of [`qosr_core::PsiDef`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum PsiKind {
    /// The paper's `req / avail` (eq. 2).
    #[default]
    Utilization,
    /// `req / (avail − req)`.
    Headroom,
    /// `−ln(1 − req/avail)`.
    NegLogSurvival,
}

/// Inter-host wiring (serializable mirror of
/// [`crate::TopologyVariant`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum TopologyKind {
    /// Full mesh between the hosts (the figure-9 replica; 14 links).
    #[default]
    FullMesh,
    /// Ring between the hosts (12 links; some routes span two links).
    Ring,
}

impl From<TopologyKind> for TopologyVariant {
    fn from(k: TopologyKind) -> TopologyVariant {
        match k {
            TopologyKind::FullMesh => TopologyVariant::FullMesh,
            TopologyKind::Ring => TopologyVariant::Ring,
        }
    }
}

impl From<PsiKind> for PsiDef {
    fn from(k: PsiKind) -> PsiDef {
        match k {
            PsiKind::Utilization => PsiDef::Utilization,
            PsiKind::Headroom => PsiDef::Headroom,
            PsiKind::NegLogSurvival => PsiDef::NegLogSurvival,
        }
    }
}

/// All parameters of one simulation run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioConfig {
    /// RNG seed (drives capacities, workload, and the random planner).
    pub seed: u64,
    /// Average session generation rate, sessions per 60 TU (the paper
    /// sweeps 60–240).
    pub rate_per_60tu: f64,
    /// Simulated horizon in TU (the paper runs 10800).
    pub horizon: f64,
    /// The planning algorithm.
    pub planner: PlannerKind,
    /// Maximum observation age `E` in TU; 0 = accurate observations
    /// (§5.2.4).
    pub staleness: f64,
    /// When set, compress requirement diversity to this max:min ratio
    /// (§5.2.5 uses 3.0); `None` = the full figure-10 tables.
    pub diversity_ratio: Option<f64>,
    /// Global requirement multiplier (calibration constant; see
    /// EXPERIMENTS.md).
    pub requirement_scale: f64,
    /// Uniform range resource capacities are drawn from (paper:
    /// 1000–4000).
    pub capacity_range: (f64, f64),
    /// Period (TU) between service-popularity shifts.
    pub prob_shift_period: f64,
    /// The α sliding-window length `T` (paper: 3 TU).
    pub alpha_window: f64,
    /// ψ definition (ablation; the paper uses utilization).
    pub psi: PsiKind,
    /// Disable the Dijkstra tie-breaking rule (ablation).
    pub disable_tie_break: bool,
    /// Inter-host wiring variant.
    pub topology: TopologyKind,
    /// When set, every `period` TU live sessions attempt an in-place QoS
    /// upgrade via renegotiation (an extension beyond the paper; see
    /// DESIGN.md).
    pub upgrade_period: Option<f64>,
    /// When set, sample per-resource utilization and the live-session
    /// count every `period` TU into [`crate::TimeSample`]s.
    pub sample_period: Option<f64>,
    /// The deterministic fault schedule (host crashes, message drops,
    /// commit failures) plus the retry budget absorbing it. The default
    /// is the empty plan: no faults, and a run bit-identical to one
    /// without fault support.
    #[serde(default)]
    pub faults: FaultPlan,
    /// When set, arrivals are buffered and admitted in concurrent
    /// batched rounds through [`qosr_broker::AdmissionQueue`] (one
    /// availability snapshot per round, parallel planning, sequential
    /// conflict-checked commits). `None` — the default — admits every
    /// arrival individually, identical to earlier releases.
    #[serde(default)]
    pub batch_arrivals: Option<BatchArrivals>,
    /// Scenario-DSL rules (trigger → events) compiled into the event
    /// stream, usually populated from a `*.scenario.json` file via
    /// [`crate::ScenarioFile::to_config`]. Empty — the default — leaves
    /// the run bit-identical to earlier releases.
    #[serde(default)]
    pub rules: Vec<Rule>,
    /// When `true`, every arrival is tagged with a sequential
    /// [`qosr_obs::TraceId`] at ingress and the coordinator's request
    /// tracer is enabled: each admission leaves a causal span tree in
    /// the flight ring and per-phase latency histograms in the tracer.
    /// `false` — the default — skips all of it; run *outcomes* are
    /// bit-identical either way (tracing only observes).
    #[serde(default)]
    pub trace_requests: bool,
}

/// Batched-admission knob: buffer arrivals and flush them through the
/// [`qosr_broker::AdmissionQueue`] pipeline in rounds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct BatchArrivals {
    /// Flush a round when this many arrivals are pending (a final
    /// partial round flushes at the horizon).
    pub size: usize,
    /// Replan budget per request after same-round commit conflicts.
    pub max_replans: u32,
}

impl Default for BatchArrivals {
    fn default() -> Self {
        BatchArrivals {
            size: 8,
            max_replans: 2,
        }
    }
}

impl Default for ScenarioConfig {
    fn default() -> Self {
        ScenarioConfig {
            seed: 1,
            rate_per_60tu: 60.0,
            horizon: 10_800.0,
            planner: PlannerKind::Basic,
            staleness: 0.0,
            diversity_ratio: None,
            requirement_scale: DEFAULT_REQUIREMENT_SCALE,
            capacity_range: (1000.0, 4000.0),
            prob_shift_period: 600.0,
            alpha_window: 3.0,
            psi: PsiKind::Utilization,
            disable_tie_break: false,
            topology: TopologyKind::FullMesh,
            upgrade_period: None,
            sample_period: None,
            faults: FaultPlan::default(),
            batch_arrivals: None,
            rules: Vec::new(),
            trace_requests: false,
        }
    }
}

/// The calibrated default requirement scale (see EXPERIMENTS.md for the
/// calibration procedure: chosen so *basic*'s success-rate curve passes
/// through the bands the paper reports in Tables 3–4).
pub const DEFAULT_REQUIREMENT_SCALE: f64 = 0.5;

/// The administrative session the scenario DSL's `resize_capacity`
/// event reserves under. Real session ids count up from zero, so the
/// sentinel never collides; reading `reserved_for(DRAIN_SESSION)` back
/// from each broker gives the current drain as ground truth (and
/// self-heals when a host crash wipes the broker's book).
const DRAIN_SESSION: SessionId = SessionId(u64::MAX);

/// Current utilization (reserved / capacity) of one named physical
/// resource, or the mean over every host CPU and link when `resource`
/// is `None`. Drives [`Trigger::UtilizationAbove`].
fn measured_utilization(env: &PaperEnvironment, resource: Option<&str>) -> f64 {
    use qosr_broker::Broker as _;
    let mut total = 0.0;
    let mut count = 0u32;
    let mut matched = None;
    {
        let mut visit = |name: &str, util: f64| {
            if let Some(target) = resource {
                if name == target {
                    matched = Some(util);
                }
            } else {
                total += util;
                count += 1;
            }
        };
        for h in 0..crate::env::N_HOSTS {
            let rid = env.host_cpu(h);
            let b = env
                .coordinator
                .owner_of(rid)
                .expect("host CPUs are brokered")
                .brokers()
                .get(rid)
                .expect("registered");
            visit(env.space.name(rid), 1.0 - b.available() / b.capacity());
        }
        for l in env.fabric.link_brokers() {
            visit(
                env.space.name(l.resource()),
                1.0 - l.available() / l.capacity(),
            );
        }
    }
    match resource {
        Some(name) => {
            matched.unwrap_or_else(|| panic!("utilization trigger names unknown resource `{name}`"))
        }
        None => total / f64::from(count),
    }
}

/// Moves one broker's administrative drain so its usable capacity is
/// `factor` × nominal. Draining reserves at most what is currently
/// available (live sessions are never evicted); restoring releases the
/// drain back.
fn drain_to(broker: &dyn qosr_broker::Broker, factor: f64, now: SimTime) {
    let target = broker.capacity() * (1.0 - factor);
    let current = broker.reserved_for(DRAIN_SESSION);
    if target > current {
        let take = (target - current).min(broker.available());
        if take > 0.0 {
            let _ = broker.reserve(DRAIN_SESSION, take, now);
        }
    } else if current > target {
        broker.release_amount(DRAIN_SESSION, current - target, now);
    }
}

/// Applies [`EventSpec::ResizeCapacity`] to one named physical resource,
/// or to every host CPU and link when `resource` is `None`.
fn resize_capacity(env: &PaperEnvironment, factor: f64, resource: Option<&str>, now: SimTime) {
    use qosr_broker::Broker as _;
    let mut matched = false;
    for h in 0..crate::env::N_HOSTS {
        let rid = env.host_cpu(h);
        if resource.is_none_or(|r| r == env.space.name(rid)) {
            let b = env
                .coordinator
                .owner_of(rid)
                .expect("host CPUs are brokered")
                .brokers()
                .get(rid)
                .expect("registered");
            drain_to(b.as_ref(), factor, now);
            matched = true;
        }
    }
    for l in env.fabric.link_brokers() {
        if resource.is_none_or(|r| r == env.space.name(l.resource())) {
            drain_to(l.as_ref(), factor, now);
            matched = true;
        }
    }
    assert!(
        matched,
        "resize_capacity names unknown resource `{}`",
        resource.unwrap_or_default()
    );
}

/// Executes one simulation run.
pub fn run_scenario(config: &ScenarioConfig) -> RunResult {
    run_scenario_traced(config, std::sync::Arc::new(qosr_obs::NullSink))
}

/// Executes one simulation run with the coordinator streaming
/// session-lifecycle [`qosr_obs::TraceEvent`]s (timestamped in sim-time)
/// to `sink`. The trace opens with one `ResourceName` event per resource
/// so replays can name bottlenecks; metrics are identical to
/// [`run_scenario`] under the same config — the trace's reduction via
/// `qosr_obs::TraceSummary` reproduces this run's [`RunMetrics`] exactly.
pub fn run_scenario_traced(
    config: &ScenarioConfig,
    sink: std::sync::Arc<dyn qosr_obs::TraceSink>,
) -> RunResult {
    run_scenario_instrumented(config, sink, None)
}

/// Executes one simulation run with full live telemetry: trace events
/// stream to `sink` (as in [`run_scenario_traced`]) and, when a
/// [`qosr_obs::MetricsRegistry`] is given, the run additionally
///
/// * attaches the coordinator's counters and request tracer, and
///   traces every request (as [`ScenarioConfig::trace_requests`]
///   does), so the registry's queue/collect/plan/replan/commit
///   wall-clock summaries cover every admission — and, with a live
///   `sink`, each request's span tree streams there too;
/// * feeds the registry's gauges from every sampling tick
///   ([`ScenarioConfig::sample_period`]): per-resource utilization
///   (`utilization{resource=...}`), per-host broker utilization
///   (`host_utilization{host=...}`), live session count
///   (`active_sessions`), buffered arrivals (`pending_requests`), and —
///   for batched runs — the admission queue's in-flight round size and
///   last batch size.
///
/// The registry outlives the run, so `qosr metrics` can render a
/// one-shot exposition afterwards and `--metrics-addr` can serve it
/// live while the run is still going.
pub fn run_scenario_instrumented(
    config: &ScenarioConfig,
    sink: std::sync::Arc<dyn qosr_obs::TraceSink>,
    registry: Option<&qosr_obs::MetricsRegistry>,
) -> RunResult {
    run_scenario_observed(config, sink, registry, None)
}

/// [`run_scenario_instrumented`] with a caller-owned request tracer.
///
/// When `tracer` is given it replaces the coordinator's private one, so
/// span histograms, outcome counts, and the flight ring survive the run
/// for inspection (`tracer.set_enabled(true)` is still implied by
/// [`ScenarioConfig::trace_requests`] or an attached `registry`). Pass
/// `None` to keep the coordinator's internal tracer, which dies with
/// the run.
pub fn run_scenario_observed(
    config: &ScenarioConfig,
    sink: std::sync::Arc<dyn qosr_obs::TraceSink>,
    registry: Option<&qosr_obs::MetricsRegistry>,
    tracer: Option<std::sync::Arc<qosr_obs::Tracer>>,
) -> RunResult {
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    let start = std::time::Instant::now();
    let mut rng = StdRng::seed_from_u64(config.seed);

    let service_options = ServiceOptions {
        requirement_scale: config.requirement_scale,
        diversity_ratio: config.diversity_ratio,
    };
    let broker_config = LocalBrokerConfig {
        alpha_window: config.alpha_window,
        // The change log must cover the maximum observation age.
        log_horizon: (config.staleness * 2.0).max(64.0),
    };
    let mut env = PaperEnvironment::build_with_topology_traced(
        &mut rng,
        &service_options,
        config.capacity_range,
        broker_config,
        config.topology.into(),
        sink.clone(),
    );
    if let Some(tracer) = tracer {
        env.coordinator.set_tracer(tracer);
    }
    let env = env;
    if let Some(registry) = registry {
        registry.attach_counters(env.coordinator.counters_arc());
        registry.attach_tracer(std::sync::Arc::clone(env.coordinator.tracer()));
    }
    if sink.enabled() {
        // Preamble: bind every resource id to its display name so a
        // replayed trace can label bottleneck resources.
        for rid in env.space.ids() {
            sink.emit(
                &qosr_obs::TraceEvent::new(0.0, qosr_obs::EventKind::ResourceName)
                    .with_resource(u64::from(rid.0))
                    .with_name(env.space.name(rid)),
            );
        }
    }

    // Arm the fault injector (a no-op with the default empty plan: its
    // RNG stream is separate from the scenario's and a never-firing
    // injector draws nothing from it).
    let faults = &config.faults;
    env.coordinator.faults().configure(
        faults.seed,
        faults.drop_probability,
        faults.commit_failure_probability,
    );
    for crash in &faults.crashes {
        assert!(
            crash.host < crate::env::N_HOSTS,
            "fault plan crashes unknown host {}",
            crash.host
        );
        if let Some(recover_at) = crash.recover_at {
            assert!(
                recover_at > crash.at,
                "host {} recovery at {recover_at} not after crash at {}",
                crash.host,
                crash.at
            );
        }
    }

    let establish_options = EstablishOptions {
        planner: config.planner.into(),
        observation: if config.staleness > 0.0 {
            ObservationPolicy::Stale {
                max_age: config.staleness,
            }
        } else {
            ObservationPolicy::Accurate
        },
        qrg: QrgOptions {
            psi: config.psi.into(),
            disable_tie_break: config.disable_tie_break,
        },
        retry: RetryPolicy {
            max_retries: faults.max_retries,
            backoff_base: faults.backoff_base,
            tradeoff_fallback: faults.tradeoff_fallback,
        },
    };

    let mut workload = WorkloadGenerator::new(config.rate_per_60tu);
    let mut queue = EventQueue::new();
    let mut metrics = RunMetrics::default();
    /// A live session: its handle and instance (for replanning).
    struct Active {
        established: EstablishedSession,
        instance: qosr_model::SessionInstance,
    }
    let mut active: HashMap<SessionId, Active> = HashMap::new();
    let horizon = SimTime::new(config.horizon);

    /// Flushes one batched admission round and records every outcome
    /// exactly as the per-arrival path would.
    #[allow(clippy::too_many_arguments)]
    fn flush_batch(
        admission: &AdmissionQueue<'_>,
        env: &PaperEnvironment,
        establish_options: &EstablishOptions,
        pending: &mut Vec<(
            crate::workload::SessionRequest,
            qosr_model::SessionInstance,
            Option<qosr_obs::TraceId>,
        )>,
        now: SimTime,
        queue: &mut EventQueue,
        active: &mut HashMap<SessionId, Active>,
        metrics: &mut RunMetrics,
    ) {
        if pending.is_empty() {
            return;
        }
        let requests: Vec<AdmitRequest> = pending
            .iter()
            .map(|(_, session, trace)| {
                let request = AdmitRequest::new(session.clone()).options(establish_options.clone());
                match trace {
                    Some(id) => request.traced(*id),
                    None => request,
                }
            })
            .collect();
        let outcomes = admission.admit(&requests, now);
        for ((meta, instance, _), outcome) in pending.drain(..).zip(outcomes) {
            match outcome.into_result() {
                Ok(established) => {
                    let level = established.plan.rank;
                    metrics.record_outcome(meta.class, Some(level));
                    if let Some(b) = established.plan.bottleneck {
                        metrics.record_bottleneck(env.space.name(b.resource));
                    }
                    let ty = ServiceType::of_service(meta.service);
                    let label = path_label(ty, &established.plan.signature());
                    match ty {
                        ServiceType::A => metrics.paths_a.record(label),
                        ServiceType::B => metrics.paths_b.record(label),
                    }
                    queue.schedule(now + meta.duration, Event::Departure(established.id));
                    active.insert(
                        established.id,
                        Active {
                            established,
                            instance,
                        },
                    );
                }
                Err(err) => {
                    metrics.record_outcome(meta.class, None);
                    match err {
                        EstablishError::Plan(_)
                        | EstablishError::QosBelowMin { .. }
                        | EstablishError::DeadlineExpired { .. } => metrics.plan_failures += 1,
                        EstablishError::Reserve(_) => metrics.reserve_failures += 1,
                        EstablishError::Fault(_) => metrics.fault_failures += 1,
                    }
                }
            }
        }
    }

    let admission = config.batch_arrivals.map(|b| {
        AdmissionQueue::new(
            &env.coordinator,
            AdmissionConfig {
                max_replans: b.max_replans,
                seed: config.seed,
                observation: establish_options.observation,
            },
        )
    });
    let mut pending: Vec<(
        crate::workload::SessionRequest,
        qosr_model::SessionInstance,
        Option<qosr_obs::TraceId>,
    )> = Vec::new();

    // Request tracing: mint sequential ids at ingress so every span
    // tree is attributable to one arrival, in arrival order. A registry
    // renders its phase summaries from the span trees, so it implies
    // tracing.
    let trace_requests = config.trace_requests || registry.is_some();
    if trace_requests {
        env.coordinator.tracer().set_enabled(true);
    }
    let mut next_trace: u64 = 0;

    queue.schedule(
        SimTime::ZERO + workload.next_interarrival(&mut rng),
        Event::Arrival,
    );
    if config.prob_shift_period > 0.0 {
        queue.schedule(
            SimTime::ZERO + config.prob_shift_period,
            Event::ProbabilityShift,
        );
    }
    if let Some(period) = config.upgrade_period {
        assert!(period > 0.0, "upgrade period must be positive");
        queue.schedule(SimTime::ZERO + period, Event::UpgradeScan);
    }
    let mut timeseries: Vec<crate::TimeSample> = Vec::new();
    if let Some(period) = config.sample_period {
        assert!(period > 0.0, "sample period must be positive");
        queue.schedule(SimTime::ZERO + period, Event::Sample);
    }
    for crash in &faults.crashes {
        queue.schedule(SimTime::ZERO + crash.at, Event::HostDown(crash.host));
        if let Some(recover_at) = crash.recover_at {
            queue.schedule(SimTime::ZERO + recover_at, Event::HostUp(crash.host));
        }
    }

    // Arm the scenario-DSL rules. File-loaded configs were validated by
    // `ScenarioFile::validate`; re-checking here makes a hand-built
    // config fail fast too.
    let rule_problems = crate::dsl::validate_rules(&config.rules);
    assert!(
        rule_problems.is_empty(),
        "invalid scenario rules: {}",
        rule_problems.join("; ")
    );
    /// Per-rule firing state. Condition triggers fire on the upward
    /// crossing and re-arm once the predicate is false again (crossing
    /// hysteresis); timed triggers never disarm.
    struct RuleState {
        armed: bool,
        fired: bool,
    }
    let mut rule_states: Vec<RuleState> = config
        .rules
        .iter()
        .map(|_| RuleState {
            armed: true,
            fired: false,
        })
        .collect();
    // Mutable workload knobs the DSL events steer. `base_rate` is the
    // rate the diurnal curve oscillates around; `demand_scale`
    // multiplies every subsequent request's resource demand. Both stay
    // at their neutral values (and the RNG draw order stays untouched)
    // when no rule fires, keeping rule-free runs bit-identical to
    // earlier releases.
    let mut demand_scale = 1.0_f64;
    let mut base_rate = config.rate_per_60tu;
    let mut diurnal: Option<(f64, f64)> = None;
    // Advance-reservation state for `bulk_transfer` events: a shadow
    // bandwidth calendar mirroring the link brokers' nominal
    // capacities. Built lazily on the first firing so rule-free runs
    // construct nothing and stay bit-identical to earlier releases.
    let mut advance: Option<qosr_broker::AdvanceRegistry> = None;
    let mut advance_sessions: u64 = 0;
    for (i, rule) in config.rules.iter().enumerate() {
        match &rule.trigger {
            Trigger::At(t) => queue.schedule(SimTime::ZERO + *t, Event::ScenarioRule(i)),
            Trigger::Every {
                period,
                start,
                until,
            } => {
                let first = start.unwrap_or(*period);
                if until.is_none_or(|u| first <= u) {
                    queue.schedule(SimTime::ZERO + first, Event::ScenarioRule(i));
                }
            }
            Trigger::UtilizationAbove { poll, .. } | Trigger::SessionsAbove { poll, .. } => queue
                .schedule(
                    SimTime::ZERO + poll.unwrap_or(DEFAULT_POLL),
                    Event::ScenarioPoll(i),
                ),
        }
    }

    /// Samples one request from the workload and admits it through the
    /// configured path (per-arrival or batched), recording the outcome.
    /// Shared by [`Event::Arrival`] and [`Event::BurstArrival`] so
    /// scenario bursts take exactly the organic admission path.
    macro_rules! admit_one {
        ($now:expr) => {{
            let now = $now;
            let mut request = workload.sample(&mut rng);
            if demand_scale != 1.0 {
                request.scale *= demand_scale;
            }
            let session = env
                .session(request.service, request.domain, request.scale)
                .expect("generated requests are always instantiable");
            let trace_id = trace_requests.then(|| {
                let id = qosr_obs::TraceId(next_trace);
                next_trace += 1;
                id
            });
            if let Some(batch) = &config.batch_arrivals {
                pending.push((request, session, trace_id));
                if pending.len() >= batch.size {
                    flush_batch(
                        admission.as_ref().expect("queue exists when batching"),
                        &env,
                        &establish_options,
                        &mut pending,
                        now,
                        &mut queue,
                        &mut active,
                        &mut metrics,
                    );
                }
            } else {
                let mut admit = AdmitRequest::new(session).options(establish_options.clone());
                if let Some(id) = trace_id {
                    admit = admit.traced(id);
                }
                match env
                    .coordinator
                    .establish_request(&admit, now, &mut rng)
                    .into_result()
                {
                    Ok(established) => {
                        let level = established.plan.rank;
                        metrics.record_outcome(request.class, Some(level));
                        if let Some(b) = established.plan.bottleneck {
                            metrics.record_bottleneck(env.space.name(b.resource));
                        }
                        let ty = ServiceType::of_service(request.service);
                        let label = path_label(ty, &established.plan.signature());
                        match ty {
                            ServiceType::A => metrics.paths_a.record(label),
                            ServiceType::B => metrics.paths_b.record(label),
                        }
                        queue.schedule(now + request.duration, Event::Departure(established.id));
                        active.insert(
                            established.id,
                            Active {
                                established,
                                instance: admit.into_session(),
                            },
                        );
                    }
                    Err(err) => {
                        metrics.record_outcome(request.class, None);
                        match err {
                            EstablishError::Plan(_)
                            | EstablishError::QosBelowMin { .. }
                            | EstablishError::DeadlineExpired { .. } => metrics.plan_failures += 1,
                            EstablishError::Reserve(_) => metrics.reserve_failures += 1,
                            EstablishError::Fault(_) => metrics.fault_failures += 1,
                        }
                    }
                }
            }
        }};
    }

    /// Fires rule `$i` now: bumps the counter, emits the trace event
    /// (`$value` carries the measured quantity for condition triggers),
    /// and applies the rule's events in order.
    macro_rules! fire_rule {
        ($now:expr, $i:expr, $value:expr) => {{
            let now = $now;
            let i: usize = $i;
            let value: Option<f64> = $value;
            let rule = &config.rules[i];
            rule_states[i].fired = true;
            metrics.scenario_triggers += 1;
            if sink.enabled() {
                let events: Vec<&str> = rule.events.iter().map(|e| e.kind()).collect();
                let mut ev =
                    qosr_obs::TraceEvent::new(now.value(), qosr_obs::EventKind::ScenarioTrigger)
                        .with_name(rule.label(i))
                        .with_detail(format!("{} -> {}", rule.trigger.kind(), events.join("+")));
                if let Some(v) = value {
                    ev = ev.with_value(v);
                }
                sink.emit(&ev);
            }
            for spec in &rule.events {
                match spec {
                    EventSpec::FlashCrowd { sessions, over } => {
                        let n = *sessions;
                        for k in 0..n {
                            // Spread the burst evenly over the window,
                            // first arrival immediately.
                            let offset = if n > 1 {
                                *over * f64::from(k) / f64::from(n - 1)
                            } else {
                                0.0
                            };
                            queue.schedule(now + offset, Event::BurstArrival);
                        }
                    }
                    EventSpec::CrashHost { host, down_for } => {
                        queue.schedule(now, Event::HostDown(*host));
                        if let Some(d) = down_for {
                            queue.schedule(now + *d, Event::HostUp(*host));
                        }
                    }
                    EventSpec::RecoverHost { host } => {
                        queue.schedule(now, Event::HostUp(*host));
                    }
                    EventSpec::ResizeCapacity { factor, resource } => {
                        resize_capacity(&env, *factor, resource.as_deref(), now);
                    }
                    EventSpec::QosShift {
                        demand_scale: scale,
                    } => demand_scale = *scale,
                    EventSpec::SetRate { per_60tu } => {
                        base_rate = *per_60tu;
                        workload.set_rate(base_rate);
                    }
                    EventSpec::ScaleRate { factor } => {
                        base_rate *= factor;
                        workload.set_rate(base_rate);
                    }
                    EventSpec::Diurnal { period, amplitude } => {
                        diurnal = Some((*period, *amplitude));
                    }
                    EventSpec::HeavyTail { alpha, min, cap } => {
                        workload.set_duration_model(crate::workload::DurationModel::BoundedPareto {
                            alpha: *alpha,
                            min: min.unwrap_or(crate::workload::MIN_DURATION),
                            cap: cap.unwrap_or(crate::workload::MAX_DURATION),
                        })
                    }
                    EventSpec::ShiftWeights => workload.shift_weights(&mut rng),
                    EventSpec::BulkTransfer {
                        volume,
                        within,
                        resource,
                        min_rate,
                        max_rate,
                    } => {
                        let registry = advance.get_or_insert_with(|| {
                            let mut reg = qosr_broker::AdvanceRegistry::new();
                            for l in env.fabric.link_brokers() {
                                use qosr_broker::Broker as _;
                                reg.register(std::sync::Arc::new(
                                    qosr_broker::TimelineBroker::new(l.resource(), l.capacity()),
                                ));
                            }
                            reg.set_sink(sink.clone());
                            reg.set_counters(env.coordinator.counters_arc());
                            reg
                        });
                        let rid = match resource.as_deref() {
                            Some(name) => {
                                use qosr_broker::Broker as _;
                                env.fabric
                                    .link_brokers()
                                    .iter()
                                    .map(|l| l.resource())
                                    .find(|&r| env.space.name(r) == name)
                                    .unwrap_or_else(|| {
                                        panic!("bulk_transfer names unknown link `{name}`")
                                    })
                            }
                            None => {
                                use qosr_broker::Broker as _;
                                env.fabric.link_brokers()[0].resource()
                            }
                        };
                        advance_sessions += 1;
                        let mut request = qosr_broker::AdvanceRequest::malleable(
                            SessionId(advance_sessions),
                            rid,
                            *volume,
                            now + *within,
                        )
                        .earliest(now);
                        if config.planner == PlannerKind::Tradeoff {
                            request = request.alpha_policy(qosr_broker::AlphaPolicy::Tradeoff);
                        }
                        if let Some(r) = min_rate {
                            request = request.min_rate(*r);
                        }
                        if let Some(r) = max_rate {
                            request = request.max_rate(*r);
                        }
                        match &registry.book(&request, now) {
                            qosr_broker::AdvanceOutcome::Booked { profile } => {
                                metrics.advance_booked += 1;
                                metrics.bulk_volume_admitted += profile.volume;
                            }
                            qosr_broker::AdvanceOutcome::Repacked { profile, .. } => {
                                metrics.advance_repacked += 1;
                                metrics.bulk_volume_admitted += profile.volume;
                            }
                            qosr_broker::AdvanceOutcome::Rejected { .. } => {
                                metrics.advance_rejected += 1;
                            }
                        }
                    }
                }
            }
        }};
    }

    while let Some((now, event)) = queue.pop() {
        if now > horizon {
            break;
        }
        match event {
            Event::Arrival => {
                // Under a diurnal curve the rate tracks the time of day;
                // `set_rate` draws nothing, so rule-free runs are
                // untouched.
                if let Some((period, amplitude)) = diurnal {
                    let phase = std::f64::consts::TAU * now.value() / period;
                    workload.set_rate(base_rate * (1.0 + amplitude * phase.sin()));
                }
                queue.schedule(now + workload.next_interarrival(&mut rng), Event::Arrival);
                admit_one!(now);
            }
            Event::BurstArrival => {
                metrics.burst_arrivals += 1;
                admit_one!(now);
            }
            Event::Departure(id) => {
                if let Some(entry) = active.remove(&id) {
                    env.coordinator.terminate(&entry.established, now);
                    metrics.final_qos.record(Some(entry.established.plan.rank));
                }
            }
            Event::ProbabilityShift => {
                workload.shift_weights(&mut rng);
                queue.schedule(now + config.prob_shift_period, Event::ProbabilityShift);
            }
            Event::UpgradeScan => {
                let period = config.upgrade_period.expect("scan only scheduled when set");
                // Deterministic iteration order for reproducibility.
                let mut ids: Vec<SessionId> = active.keys().copied().collect();
                ids.sort_unstable();
                for id in ids {
                    let entry = active.get_mut(&id).expect("still live");
                    if entry.established.plan.rank
                        >= *entry
                            .instance
                            .service()
                            .sink_ranking()
                            .iter()
                            .max()
                            .expect("non-empty ranking")
                    {
                        continue; // already at the top level
                    }
                    let current = entry.established.clone();
                    // A failed swap leaves the old reservations in
                    // force; keep the old handle in that case.
                    if let Ok((upgraded, swapped)) = env.coordinator.renegotiate(
                        current,
                        &entry.instance,
                        &establish_options,
                        now,
                        &mut rng,
                    ) {
                        if swapped {
                            metrics.upgrades += 1;
                        }
                        entry.established = upgraded;
                    }
                }
                queue.schedule(now + period, Event::UpgradeScan);
            }
            Event::Sample => {
                let period = config
                    .sample_period
                    .expect("sample only scheduled when set");
                let mut utilization = std::collections::BTreeMap::new();
                for h in 0..crate::env::N_HOSTS {
                    let rid = env.host_cpu(h);
                    let b = env
                        .coordinator
                        .owner_of(rid)
                        .expect("host CPUs are brokered")
                        .brokers()
                        .get(rid)
                        .expect("registered");
                    utilization.insert(
                        env.space.name(rid).to_owned(),
                        1.0 - b.available() / b.capacity(),
                    );
                }
                for l in env.fabric.link_brokers() {
                    use qosr_broker::Broker as _;
                    utilization.insert(
                        env.space.name(l.resource()).to_owned(),
                        1.0 - l.available() / l.capacity(),
                    );
                }
                if sink.enabled() {
                    for (name, util) in &utilization {
                        sink.emit(
                            &qosr_obs::TraceEvent::new(
                                now.value(),
                                qosr_obs::EventKind::UtilizationSample,
                            )
                            .with_name(name.clone())
                            .with_value(*util),
                        );
                    }
                }
                if let Some(registry) = registry {
                    let t = now.value();
                    for (name, util) in &utilization {
                        registry.set_gauge("utilization", Some(("resource", name)), t, *util);
                    }
                    // Per-host broker utilization: everything each
                    // host's proxy brokers, reserved over capacity.
                    for proxy in env.coordinator.proxies() {
                        let (mut avail, mut cap) = (0.0, 0.0);
                        for b in proxy.brokers().iter() {
                            avail += b.available();
                            cap += b.capacity();
                        }
                        let util = if cap > 0.0 { 1.0 - avail / cap } else { 0.0 };
                        registry.set_gauge(
                            "host_utilization",
                            Some(("host", proxy.host())),
                            t,
                            util,
                        );
                    }
                    registry.set_gauge("active_sessions", None, t, active.len() as f64);
                    registry.set_gauge("pending_requests", None, t, pending.len() as f64);
                    if let Some(admission) = &admission {
                        registry.set_gauge(
                            "admission_in_flight",
                            None,
                            t,
                            admission.in_flight() as f64,
                        );
                        registry.set_gauge(
                            "admission_last_batch",
                            None,
                            t,
                            admission.last_batch_size() as f64,
                        );
                    }
                }
                timeseries.push(crate::TimeSample {
                    time: now.value(),
                    active_sessions: active.len() as u64,
                    utilization,
                });
                queue.schedule(now + period, Event::Sample);
            }
            Event::HostDown(h) => {
                let host = format!("H{}", h + 1);
                env.coordinator.crash_host(&host, now);
                // Sessions holding reservations on the crashed host are
                // lost: release them everywhere (the recovering broker
                // reclaims crashed-session state, so capacity conserves).
                // Their stale Departure events become harmless no-ops.
                let host_brokers = env.coordinator.proxies()[h].brokers();
                let mut victims: Vec<SessionId> = active
                    .keys()
                    .copied()
                    .filter(|&id| host_brokers.iter().any(|b| b.reserved_for(id) > 0.0))
                    .collect();
                victims.sort_unstable();
                for id in victims {
                    let entry = active.remove(&id).expect("victim is live");
                    env.coordinator.abort(&entry.established, now);
                    metrics.sessions_lost += 1;
                }
            }
            Event::HostUp(h) => {
                let host = format!("H{}", h + 1);
                env.coordinator.recover_host(&host, now);
            }
            Event::ScenarioRule(i) => {
                let rule = &config.rules[i];
                if let Trigger::Every { period, until, .. } = &rule.trigger {
                    let next = now + *period;
                    if !rule.once && next.value() <= until.unwrap_or(config.horizon) {
                        queue.schedule(next, Event::ScenarioRule(i));
                    }
                }
                fire_rule!(now, i, None);
            }
            Event::ScenarioPoll(i) => {
                let (met, value, poll) = match &config.rules[i].trigger {
                    Trigger::UtilizationAbove {
                        threshold,
                        resource,
                        poll,
                    } => {
                        let u = measured_utilization(&env, resource.as_deref());
                        (u > *threshold, u, poll.unwrap_or(DEFAULT_POLL))
                    }
                    Trigger::SessionsAbove { count, poll } => {
                        let n = active.len() as u64;
                        (n > *count, n as f64, poll.unwrap_or(DEFAULT_POLL))
                    }
                    _ => unreachable!("polls are only scheduled for condition triggers"),
                };
                // Crossing hysteresis: fire on the upward edge only,
                // re-arm once the predicate is false again.
                let fire = met && rule_states[i].armed;
                rule_states[i].armed = !met;
                if fire {
                    fire_rule!(now, i, Some(value));
                }
                if !(config.rules[i].once && rule_states[i].fired) {
                    queue.schedule(now + poll, Event::ScenarioPoll(i));
                }
            }
        }
    }

    // A final partial round: arrivals still buffered when the horizon
    // hit are admitted at the horizon (they count like any others).
    if let Some(admission) = &admission {
        flush_batch(
            admission,
            &env,
            &establish_options,
            &mut pending,
            horizon,
            &mut queue,
            &mut active,
            &mut metrics,
        );
    }

    // Sessions still live at the horizon contribute their final level.
    for entry in active.values() {
        metrics.final_qos.record(Some(entry.established.plan.rank));
    }

    // Protocol-level fault accounting lives in the coordinator's
    // counters (this run's coordinator is fresh, so the snapshot is
    // exactly this run's): copy it into the metrics record.
    let snap = env.coordinator.counters().snapshot();
    metrics.faults_injected = snap.faults_injected;
    metrics.rollbacks = snap.rollbacks;
    metrics.retries = snap.retries;
    metrics.degraded_establishes = snap.degraded_commits;
    metrics.batches_planned = snap.batches_planned;
    metrics.commit_conflicts = snap.commit_conflicts;
    metrics.replans = snap.replans;

    RunResult {
        config: config.clone(),
        metrics,
        messages: MessageStatsRecord::from(env.coordinator.stats()),
        timeseries,
        wall_seconds: start.elapsed().as_secs_f64(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(planner: PlannerKind, rate: f64, seed: u64) -> ScenarioConfig {
        ScenarioConfig {
            seed,
            rate_per_60tu: rate,
            horizon: 1200.0,
            planner,
            ..ScenarioConfig::default()
        }
    }

    #[test]
    fn runs_and_counts_sessions() {
        let r = run_scenario(&quick(PlannerKind::Basic, 60.0, 1));
        // Expect roughly rate * horizon / 60 = 1200 arrivals.
        assert!(
            r.metrics.overall.attempts > 900 && r.metrics.overall.attempts < 1500,
            "attempts {}",
            r.metrics.overall.attempts
        );
        assert_eq!(r.messages.attempts, r.metrics.overall.attempts);
        assert_eq!(r.metrics.overall.successes, r.messages.established);
        // Per-class attempts sum to overall.
        let sum: u64 = r.metrics.per_class.iter().map(|c| c.attempts).sum();
        assert_eq!(sum, r.metrics.overall.attempts);
        assert!(r.wall_seconds >= 0.0);
    }

    #[test]
    fn accurate_observations_never_fail_dispatch() {
        let r = run_scenario(&quick(PlannerKind::Basic, 180.0, 2));
        assert_eq!(r.metrics.reserve_failures, 0);
        // Under heavy load some plans must fail.
        assert!(r.metrics.plan_failures > 0);
    }

    #[test]
    fn stale_observations_can_fail_dispatch() {
        let cfg = ScenarioConfig {
            staleness: 8.0,
            ..quick(PlannerKind::Basic, 180.0, 3)
        };
        let r = run_scenario(&cfg);
        assert!(
            r.metrics.reserve_failures > 0,
            "expected dispatch failures under E=8 at high load"
        );
    }

    #[test]
    fn deterministic_under_seed() {
        let a = run_scenario(&quick(PlannerKind::Tradeoff, 100.0, 7));
        let b = run_scenario(&quick(PlannerKind::Tradeoff, 100.0, 7));
        assert_eq!(a.metrics, b.metrics);
        assert_eq!(a.messages, b.messages);
    }

    #[test]
    fn different_seeds_differ() {
        let a = run_scenario(&quick(PlannerKind::Basic, 100.0, 1));
        let b = run_scenario(&quick(PlannerKind::Basic, 100.0, 2));
        assert_ne!(a.metrics, b.metrics);
    }

    #[test]
    fn all_reservations_released_after_departures() {
        // Horizon long enough that every session ends (no arrivals in the
        // tail beyond max duration): run a short burst then drain by
        // checking full availability at the end of a fresh mini-sim.
        // Here we simply verify that active reservations at the end are
        // bounded by sessions whose departure is after the horizon —
        // indirectly, every broker's availability must be within
        // capacity.
        let cfg = quick(PlannerKind::Basic, 60.0, 5);
        let r = run_scenario(&cfg);
        assert!(r.metrics.overall.successes > 0);
        // Re-build the same environment: capacities must be reproducible
        // and positive (sanity of the deterministic construction).
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let env = PaperEnvironment::build(
            &mut rng,
            &crate::services::ServiceOptions {
                requirement_scale: cfg.requirement_scale,
                diversity_ratio: None,
            },
            cfg.capacity_range,
            qosr_broker::LocalBrokerConfig::default(),
        );
        for p in env.coordinator.proxies() {
            for b in p.brokers().iter() {
                assert!(b.available() == b.capacity());
            }
        }
    }

    #[test]
    fn basic_beats_random_under_load() {
        // The paper's headline result. Moderate horizon keeps the test
        // fast; the gap at rate 180 is large enough to be robust.
        let basic = run_scenario(&quick(PlannerKind::Basic, 180.0, 11));
        let random = run_scenario(&quick(PlannerKind::Random, 180.0, 11));
        assert!(
            basic.metrics.overall.success_rate() > random.metrics.overall.success_rate(),
            "basic {} <= random {}",
            basic.metrics.overall.success_rate(),
            random.metrics.overall.success_rate()
        );
    }

    #[test]
    fn tradeoff_lowers_qos_but_not_below_level_1() {
        let tradeoff = run_scenario(&quick(PlannerKind::Tradeoff, 180.0, 13));
        let basic = run_scenario(&quick(PlannerKind::Basic, 180.0, 13));
        let t_qos = tradeoff.metrics.overall.avg_qos_level();
        let b_qos = basic.metrics.overall.avg_qos_level();
        assert!((1.0..=3.0).contains(&t_qos));
        assert!(
            t_qos < b_qos,
            "tradeoff avg QoS {t_qos} should be below basic {b_qos}"
        );
    }

    #[test]
    fn config_roundtrips_through_serde() {
        let cfg = ScenarioConfig {
            planner: PlannerKind::Tradeoff,
            diversity_ratio: Some(3.0),
            ..ScenarioConfig::default()
        };
        let json = serde_json_like(&cfg);
        assert!(json.contains("Tradeoff"));
    }

    /// Minimal serde smoke test without pulling in serde_json: uses the
    /// Debug of the Serialize impl via bincode-like manual check — here
    /// we just ensure the derive exists by serializing to a string with
    /// `format!` over the Debug repr (the real JSON path is exercised by
    /// the experiments binary).
    fn serde_json_like(cfg: &ScenarioConfig) -> String {
        format!("{cfg:?}")
    }
}

#[cfg(test)]
mod batch_tests {
    use super::*;

    fn batched(size: usize, rate: f64, seed: u64) -> ScenarioConfig {
        ScenarioConfig {
            seed,
            rate_per_60tu: rate,
            horizon: 1200.0,
            batch_arrivals: Some(BatchArrivals {
                size,
                max_replans: 2,
            }),
            ..ScenarioConfig::default()
        }
    }

    #[test]
    fn batched_arrivals_admit_in_rounds() {
        let r = run_scenario(&batched(8, 120.0, 9));
        assert!(r.metrics.batches_planned > 0);
        assert!(
            r.metrics.overall.attempts > 1800,
            "{}",
            r.metrics.overall.attempts
        );
        assert!(r.metrics.overall.successes > 0);
        assert_eq!(r.messages.attempts, r.metrics.overall.attempts);
        // One collect round per batch (4 hosts each), not one per
        // arrival: the message saving batching buys.
        assert_eq!(
            r.messages.collect_roundtrips,
            r.metrics.batches_planned * crate::env::N_HOSTS as u64
        );
        assert!(r.messages.collect_roundtrips < r.messages.attempts);
    }

    #[test]
    fn batched_load_provokes_conflicts_and_replans() {
        let r = run_scenario(&batched(16, 240.0, 23));
        assert!(
            r.metrics.commit_conflicts > 0,
            "heavy batched load should conflict"
        );
        assert!(r.metrics.replans > 0, "conflicts should be replanned");
        // Conservation sanity: batching never over-commits a broker.
        // (Capacity bounds are asserted by the brokers themselves; a
        // violated reserve would have panicked the run.)
        assert!(r.metrics.overall.successes > 0);
    }
}

#[cfg(test)]
mod upgrade_tests {
    use super::*;

    #[test]
    fn upgrades_recover_qos_for_tradeoff_sessions() {
        let base = ScenarioConfig {
            seed: 21,
            rate_per_60tu: 150.0,
            horizon: 1800.0,
            planner: PlannerKind::Tradeoff,
            ..ScenarioConfig::default()
        };
        let without = run_scenario(&base);
        let with = run_scenario(&ScenarioConfig {
            upgrade_period: Some(30.0),
            ..base
        });
        assert_eq!(without.metrics.upgrades, 0);
        assert!(with.metrics.upgrades > 0, "no upgrades happened");
        // Final QoS with upgrades beats both its own establishment-time
        // QoS and the no-upgrade baseline's final QoS.
        let final_with = with.metrics.final_qos.avg_qos_level();
        let established_with = with.metrics.overall.avg_qos_level();
        let final_without = without.metrics.final_qos.avg_qos_level();
        assert!(
            final_with > established_with + 0.02,
            "upgrades had no effect: final {final_with} vs established {established_with}"
        );
        assert!(final_with > final_without + 0.02);
        // Upgrades must not hurt admissions.
        assert!(
            (with.metrics.overall.success_rate() - without.metrics.overall.success_rate()).abs()
                < 0.05
        );
    }

    #[test]
    fn final_qos_equals_established_without_upgrades() {
        let r = run_scenario(&ScenarioConfig {
            seed: 3,
            rate_per_60tu: 100.0,
            horizon: 900.0,
            planner: PlannerKind::Basic,
            ..ScenarioConfig::default()
        });
        assert_eq!(r.metrics.final_qos.successes, r.metrics.overall.successes);
        assert_eq!(
            r.metrics.final_qos.qos_level_sum,
            r.metrics.overall.qos_level_sum
        );
    }
}

#[cfg(test)]
mod sampling_tests {
    use super::*;

    #[test]
    fn sampling_produces_a_series() {
        let r = run_scenario(&ScenarioConfig {
            seed: 4,
            rate_per_60tu: 120.0,
            horizon: 600.0,
            sample_period: Some(30.0),
            ..ScenarioConfig::default()
        });
        // ~600/30 samples, at 30-TU spacing.
        assert!(
            r.timeseries.len() >= 18 && r.timeseries.len() <= 20,
            "{} samples",
            r.timeseries.len()
        );
        let mut last = 0.0;
        for s in &r.timeseries {
            assert!(s.time > last);
            last = s.time;
            // 4 CPUs + 14 links sampled, utilization in [0, 1].
            assert_eq!(s.utilization.len(), 18);
            for (name, &u) in &s.utilization {
                assert!((0.0..=1.0).contains(&u), "{name} at {u}");
            }
        }
        // Under load, utilization must be visibly non-zero somewhere.
        let peak = r
            .timeseries
            .iter()
            .flat_map(|s| s.utilization.values())
            .cloned()
            .fold(0.0, f64::max);
        assert!(peak > 0.1, "peak utilization {peak}");
        // Active sessions grow from zero toward steady state.
        assert!(r.timeseries.last().unwrap().active_sessions > 0);
    }

    #[test]
    fn sampling_off_by_default() {
        let r = run_scenario(&ScenarioConfig {
            seed: 4,
            rate_per_60tu: 60.0,
            horizon: 300.0,
            ..ScenarioConfig::default()
        });
        assert!(r.timeseries.is_empty());
    }
}

#[cfg(test)]
mod dsl_tests {
    use super::*;

    fn quick(planner: PlannerKind, rate: f64, seed: u64) -> ScenarioConfig {
        ScenarioConfig {
            seed,
            rate_per_60tu: rate,
            horizon: 1200.0,
            planner,
            ..ScenarioConfig::default()
        }
    }

    fn rule(trigger: Trigger, events: Vec<EventSpec>) -> Rule {
        Rule {
            name: String::new(),
            trigger,
            events,
            once: false,
        }
    }

    #[test]
    fn flash_crowd_injects_the_exact_burst() {
        let mut cfg = quick(PlannerKind::Basic, 60.0, 11);
        cfg.rules = vec![rule(
            Trigger::At(300.0),
            vec![EventSpec::FlashCrowd {
                sessions: 40,
                over: 20.0,
            }],
        )];
        let r = run_scenario(&cfg);
        assert_eq!(r.metrics.scenario_triggers, 1);
        assert_eq!(r.metrics.burst_arrivals, 40);
        // Bursts ride on top of the organic Poisson arrivals. The extra
        // sample() draws shift later interarrival variates, so the
        // organic count itself may drift by a hair.
        let baseline = run_scenario(&quick(PlannerKind::Basic, 60.0, 11));
        let delta =
            r.metrics.overall.attempts as i64 - baseline.metrics.overall.attempts as i64 - 40;
        assert!(delta.abs() <= 5, "organic drift {delta}");
    }

    #[test]
    fn bulk_transfer_books_through_the_advance_planner() {
        let mut cfg = quick(PlannerKind::Tradeoff, 60.0, 21);
        cfg.rules = vec![
            rule(
                Trigger::At(100.0),
                vec![EventSpec::BulkTransfer {
                    volume: 500.0,
                    within: 200.0,
                    resource: None,
                    min_rate: None,
                    max_rate: Some(20.0),
                }],
            ),
            rule(
                // A transfer that cannot fit: more volume than the link
                // can carry at line rate before the deadline.
                Trigger::At(150.0),
                vec![EventSpec::BulkTransfer {
                    volume: 1e9,
                    within: 10.0,
                    resource: None,
                    min_rate: None,
                    max_rate: None,
                }],
            ),
        ];
        let r = run_scenario(&cfg);
        assert_eq!(r.metrics.scenario_triggers, 2);
        assert_eq!(r.metrics.advance_booked, 1);
        assert_eq!(r.metrics.advance_rejected, 1);
        assert_eq!(r.metrics.bulk_volume_admitted, 500.0);
        // The advance calendar is a shadow structure: booking through it
        // draws nothing from the scenario RNG, so the organic workload
        // is untouched.
        let baseline = run_scenario(&quick(PlannerKind::Tradeoff, 60.0, 21));
        assert_eq!(r.metrics.overall, baseline.metrics.overall);
        assert_eq!(r.messages, baseline.messages);
    }

    #[test]
    fn inert_rules_leave_the_run_bit_identical() {
        // A rule that never fires must not perturb the RNG draw order.
        let mut cfg = quick(PlannerKind::Tradeoff, 120.0, 12);
        cfg.rules = vec![rule(
            Trigger::At(cfg.horizon * 10.0),
            vec![EventSpec::ShiftWeights],
        )];
        let baseline = run_scenario(&quick(PlannerKind::Tradeoff, 120.0, 12));
        let r = run_scenario(&cfg);
        assert_eq!(r.metrics, baseline.metrics);
        assert_eq!(r.messages, baseline.messages);
    }

    #[test]
    fn deterministic_with_rules_under_seed() {
        let mut cfg = quick(PlannerKind::Tradeoff, 120.0, 13);
        cfg.rules = vec![
            rule(
                Trigger::At(200.0),
                vec![
                    EventSpec::FlashCrowd {
                        sessions: 30,
                        over: 15.0,
                    },
                    EventSpec::QosShift { demand_scale: 1.3 },
                ],
            ),
            rule(
                Trigger::Every {
                    period: 300.0,
                    start: None,
                    until: None,
                },
                vec![EventSpec::ShiftWeights],
            ),
            rule(
                Trigger::SessionsAbove {
                    count: 20,
                    poll: None,
                },
                vec![EventSpec::Diurnal {
                    period: 600.0,
                    amplitude: 0.4,
                }],
            ),
        ];
        let a = run_scenario(&cfg);
        let b = run_scenario(&cfg);
        assert_eq!(a.metrics, b.metrics);
        assert_eq!(a.messages, b.messages);
        assert!(
            a.metrics.scenario_triggers >= 4,
            "{}",
            a.metrics.scenario_triggers
        );
    }

    #[test]
    fn resize_capacity_drains_and_restores() {
        // Shrink every resource to 40% up front: success must suffer
        // against the untouched baseline, and restoring at mid-run must
        // leave the drain empty again by the horizon.
        let mut cfg = quick(PlannerKind::Basic, 120.0, 14);
        cfg.rules = vec![
            rule(
                Trigger::At(0.0),
                vec![EventSpec::ResizeCapacity {
                    factor: 0.4,
                    resource: None,
                }],
            ),
            rule(
                Trigger::At(600.0),
                vec![EventSpec::ResizeCapacity {
                    factor: 1.0,
                    resource: None,
                }],
            ),
        ];
        let r = run_scenario(&cfg);
        let baseline = run_scenario(&quick(PlannerKind::Basic, 120.0, 14));
        assert_eq!(r.metrics.scenario_triggers, 2);
        assert!(
            r.metrics.overall.successes < baseline.metrics.overall.successes,
            "drained run {} vs baseline {}",
            r.metrics.overall.successes,
            baseline.metrics.overall.successes
        );
    }

    #[test]
    fn once_rules_fire_once() {
        let mut cfg = quick(PlannerKind::Basic, 60.0, 15);
        cfg.rules = vec![Rule {
            name: "single".into(),
            trigger: Trigger::Every {
                period: 100.0,
                start: None,
                until: None,
            },
            events: vec![EventSpec::ShiftWeights],
            once: true,
        }];
        let r = run_scenario(&cfg);
        assert_eq!(r.metrics.scenario_triggers, 1);
    }

    #[test]
    fn condition_triggers_use_crossing_hysteresis() {
        // Session count stays above 1 nearly the whole run; without
        // hysteresis this would fire on every poll.
        let mut cfg = quick(PlannerKind::Basic, 120.0, 16);
        cfg.rules = vec![rule(
            Trigger::SessionsAbove {
                count: 1,
                poll: Some(5.0),
            },
            vec![EventSpec::QosShift { demand_scale: 1.0 }],
        )];
        let r = run_scenario(&cfg);
        assert!(
            r.metrics.scenario_triggers >= 1 && r.metrics.scenario_triggers < 20,
            "{} firings",
            r.metrics.scenario_triggers
        );
    }

    #[test]
    fn scenario_crash_events_lose_sessions() {
        let mut cfg = quick(PlannerKind::Basic, 120.0, 17);
        cfg.rules = vec![rule(
            Trigger::At(400.0),
            vec![EventSpec::CrashHost {
                host: 0,
                down_for: Some(200.0),
            }],
        )];
        let r = run_scenario(&cfg);
        assert!(r.metrics.sessions_lost > 0);
    }

    #[test]
    fn trace_replay_counts_rule_firings() {
        let mut cfg = quick(PlannerKind::Basic, 90.0, 18);
        cfg.rules = vec![Rule {
            name: "pulse".into(),
            trigger: Trigger::Every {
                period: 250.0,
                start: None,
                until: None,
            },
            events: vec![EventSpec::ScaleRate { factor: 1.1 }],
            once: false,
        }];
        let sink = std::sync::Arc::new(qosr_obs::MemorySink::new());
        let r = run_scenario_traced(&cfg, sink.clone());
        let summary = qosr_obs::TraceSummary::from_events(&sink.events());
        assert_eq!(summary.scenario_triggers, r.metrics.scenario_triggers);
        assert_eq!(
            summary.triggers_by_rule.get("pulse").copied().unwrap_or(0),
            r.metrics.scenario_triggers
        );
        assert_eq!(summary.committed, r.metrics.overall.successes);
        assert_eq!(summary.qos_level_sum, r.metrics.overall.qos_level_sum);
    }

    #[test]
    #[should_panic(expected = "invalid scenario rules")]
    fn invalid_rules_fail_fast() {
        let mut cfg = quick(PlannerKind::Basic, 60.0, 19);
        cfg.rules = vec![rule(Trigger::At(-5.0), vec![EventSpec::ShiftWeights])];
        run_scenario(&cfg);
    }
}
