//! QoSProxies and the coordinated session-establishment protocol (§3,
//! §4.2).
//!
//! One [`QosProxy`] runs per end host, fronting that host's Resource
//! Brokers. For each service session the [`Coordinator`] — the paper's
//! *main QoSProxy*, which stores the service's QoS-Resource Model — runs
//! the three-phase protocol of §4.2:
//!
//! 1. **Collect**: every participating QoSProxy reports the availability
//!    (and α) of its local resources — one message round trip each;
//! 2. **Compute**: the main QoSProxy builds the QRG and computes the
//!    end-to-end reservation plan locally;
//! 3. **Dispatch**: the plan's segments are dispatched to the owning
//!    proxies as a **two-phase reserve/commit**: every segment is first
//!    reserved (prepare), then every prepared segment is confirmed
//!    (commit). Any failure in either phase — a broker rejection, a
//!    crashed host, a lost message, or an injected commit failure —
//!    rolls back *all* prepared segments exactly once.
//!
//! On a per-request establish ([`Coordinator::establish_request`]),
//! failures injected by the coordinator's [`FaultInjector`] are absorbed
//! by the request's bounded [`RetryPolicy`]: each retry re-collects
//! availability (down hosts report nothing, so planning routes around
//! them), optionally falling back to the α-tradeoff planner so the
//! session degrades to a lower QoS level instead of failing hard. An
//! [`AdmissionQueue`](crate::AdmissionQueue) round retries nothing: a
//! faulted commit there is final.

use crate::pipeline::Pipeline;
use crate::request::{planner_label, EstablishOutcome, SessionRequest, SpanCollector};
use crate::{
    BrokerRegistry, EstablishError, FaultError, FaultInjector, ReserveError, RetryPolicy,
    SessionId, SimTime,
};
use qosr_core::{
    AvailabilityView, EpochSnapshot, PlanCtxPool, Planner, QrgOptions, ReservationPlan,
};
use qosr_model::{ResourceId, ResourceVector, SessionInstance};
use qosr_obs::{Counters, EventKind, NullSink, SpanKind, TraceEvent, TraceSink, Tracer};
use rand::Rng;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// How the coordinator observes resource availability when planning.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ObservationPolicy {
    /// Plan computation and reservation are atomic: observations are
    /// always consistent and up to date (the paper's base assumption).
    Accurate,
    /// Each resource may have been observed up to `max_age` time units
    /// ago (independently, uniformly distributed) — the relaxation of
    /// §5.2.4. Reservations still run against *true* broker state, so
    /// they can now fail.
    Stale {
        /// Maximum observation age `E`, in time units.
        max_age: f64,
    },
}

/// Options for one establishment attempt.
#[derive(Debug, Clone)]
pub struct EstablishOptions {
    /// Which planning algorithm the main QoSProxy runs.
    pub planner: Planner,
    /// Observation accuracy model.
    pub observation: ObservationPolicy,
    /// QRG construction options (ψ definition, tie-break ablation).
    pub qrg: QrgOptions,
    /// Bounded retry + backoff applied when an attempt fails. The
    /// default takes no retries, leaving the fault-free protocol
    /// byte-identical to the pre-fault behavior.
    pub retry: RetryPolicy,
}

impl Default for EstablishOptions {
    fn default() -> Self {
        EstablishOptions {
            planner: Planner::Basic,
            observation: ObservationPolicy::Accurate,
            qrg: QrgOptions::default(),
            retry: RetryPolicy::default(),
        }
    }
}

/// A successfully established session: its id and the reservation plan
/// in force. Pass it to [`Coordinator::terminate`] to cancel the
/// reservations when the session ends.
#[derive(Debug, Clone)]
pub struct EstablishedSession {
    /// The session's id at the brokers.
    pub id: SessionId,
    /// The end-to-end reservation plan in force.
    pub plan: ReservationPlan,
}

/// Message-passing accounting for the three-phase protocol (§4.2 derives
/// the overhead as one round trip per participating QoSProxy plus local
/// execution).
///
/// Assembled on demand by [`Coordinator::stats`] from per-host shard
/// counters plus the coordinator's [`Counters`] — there is no lock on
/// the establish path.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MessageStats {
    /// Availability-collection round trips (phase 1).
    pub collect_roundtrips: u64,
    /// Plan-segment reserve (prepare) messages (phase 3a).
    pub dispatches: u64,
    /// Plan-segment commit confirmations (phase 3b).
    pub commit_roundtrips: u64,
    /// Establishment attempts.
    pub attempts: u64,
    /// Successful establishments.
    pub established: u64,
}

/// Per-host relaxed-atomic message counters. One shard per proxy, in
/// proxy order, so protocol traffic on disjoint hosts never contends on
/// a shared lock (or even a shared cache line of counters).
#[derive(Debug, Default)]
struct ShardCounters {
    collect_roundtrips: AtomicU64,
    dispatches: AtomicU64,
    commit_roundtrips: AtomicU64,
}

/// Protocol message statistics for one host, as reported by
/// [`Coordinator::host_stats`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HostMessageStats {
    /// The host the shard counts traffic for.
    pub host: String,
    /// Availability-collection round trips to this host (phase 1).
    pub collect_roundtrips: u64,
    /// Reserve (prepare) messages to this host (phase 3a).
    pub dispatches: u64,
    /// Commit confirmations to this host (phase 3b).
    pub commit_roundtrips: u64,
}

/// The per-host reservation front end: a QoSProxy and its local Resource
/// Brokers.
pub struct QosProxy {
    host: String,
    brokers: BrokerRegistry,
}

impl QosProxy {
    /// Creates a proxy for `host` fronting the given brokers.
    pub fn new(host: impl Into<String>, brokers: BrokerRegistry) -> Self {
        QosProxy {
            host: host.into(),
            brokers,
        }
    }

    /// The host this proxy runs on.
    pub fn host(&self) -> &str {
        &self.host
    }

    /// The proxy's local brokers.
    pub fn brokers(&self) -> &BrokerRegistry {
        &self.brokers
    }

    /// Phase 1: report availability of all local resources into `view`.
    fn collect_into(
        &self,
        view: &mut AvailabilityView,
        now: SimTime,
        observation: ObservationPolicy,
        rng: &mut impl Rng,
    ) {
        match observation {
            ObservationPolicy::Accurate => {
                for broker in self.brokers.iter() {
                    let r = broker.report(now);
                    view.set_with_alpha(broker.resource(), r.avail, r.alpha);
                }
            }
            ObservationPolicy::Stale { max_age } => {
                let stale = self.brokers.snapshot_stale(now, max_age, rng);
                for (id, avail, alpha) in stale.iter() {
                    view.set_with_alpha(id, avail, alpha);
                }
            }
        }
    }
}

impl QosProxy {
    pub(crate) fn release_session(&self, session: SessionId, now: SimTime) -> f64 {
        self.brokers.release_all(session, now)
    }
}

/// The main QoSProxy: coordinates multi-resource reservations across the
/// per-host proxies.
pub struct Coordinator {
    proxies: Vec<Arc<QosProxy>>,
    /// Which proxy owns each resource.
    owner: HashMap<ResourceId, usize>,
    next_session: AtomicU64,
    /// Per-host message counters, parallel to `proxies`.
    shards: Vec<ShardCounters>,
    /// Pool of reusable planning contexts (phase 2): each caches a QRG
    /// skeleton and planning scratch, and concurrent planners (the
    /// batched [`AdmissionQueue`](crate::AdmissionQueue)) check out
    /// their own instead of serializing on one shared context.
    plan_pool: PlanCtxPool,
    /// Session-lifecycle event destination ([`NullSink`] by default, so
    /// instrumented paths cost one branch).
    sink: Arc<dyn TraceSink>,
    /// This coordinator's monotonic counters (always on).
    counters: Arc<Counters>,
    /// Fault injection (disabled by default: one relaxed atomic load per
    /// protocol message boundary).
    faults: Arc<FaultInjector>,
    /// Request-scoped tracing (disabled by default: requests pay one
    /// relaxed atomic load; see [`qosr_obs::Tracer`]).
    tracer: Arc<Tracer>,
}

impl Coordinator {
    /// Builds a coordinator over the given per-host proxies, with tracing
    /// disabled ([`NullSink`]).
    ///
    /// # Panics
    /// Panics if two proxies broker the same resource.
    pub fn new(proxies: Vec<Arc<QosProxy>>) -> Self {
        Coordinator::with_trace(proxies, Arc::new(NullSink))
    }

    /// Builds a coordinator that emits session-lifecycle [`TraceEvent`]s
    /// to `sink` (see the `qosr-obs` crate).
    ///
    /// # Panics
    /// Panics if two proxies broker the same resource.
    pub fn with_trace(proxies: Vec<Arc<QosProxy>>, sink: Arc<dyn TraceSink>) -> Self {
        let mut owner = HashMap::new();
        for (i, proxy) in proxies.iter().enumerate() {
            for broker in proxy.brokers.iter() {
                let prev = owner.insert(broker.resource(), i);
                assert!(
                    prev.is_none(),
                    "resource {} brokered by two proxies",
                    broker.resource()
                );
            }
        }
        let shards = proxies.iter().map(|_| ShardCounters::default()).collect();
        Coordinator {
            proxies,
            owner,
            next_session: AtomicU64::new(1),
            shards,
            plan_pool: PlanCtxPool::new(),
            sink,
            counters: Arc::new(Counters::new()),
            faults: Arc::new(FaultInjector::disabled()),
            tracer: Arc::new(Tracer::default()),
        }
    }

    /// The per-host proxies.
    pub fn proxies(&self) -> &[Arc<QosProxy>] {
        &self.proxies
    }

    /// The coordinator's trace sink.
    pub fn sink(&self) -> &Arc<dyn TraceSink> {
        &self.sink
    }

    /// The coordinator's monotonic counters.
    pub fn counters(&self) -> &Counters {
        &self.counters
    }

    /// A shareable handle to the coordinator's counters (for attaching
    /// to a `MetricsRegistry`).
    pub fn counters_arc(&self) -> Arc<Counters> {
        Arc::clone(&self.counters)
    }

    /// The coordinator's request tracer, its only phase clock. Disabled
    /// by default — call [`Tracer::set_enabled`] to start assembling
    /// per-request span trees for [`SessionRequest`]s carrying a trace
    /// id (see [`SessionRequest::traced`]); completed trees land in the
    /// tracer's span histograms and flight ring and, when the sink is
    /// live, as [`EventKind::RequestSpan`]/[`EventKind::RequestOutcome`]
    /// events. Untraced requests read no clock.
    pub fn tracer(&self) -> &Arc<Tracer> {
        &self.tracer
    }

    /// Replaces the coordinator's tracer with a shared one, so a caller
    /// (e.g. the scenario engine's observed entry point, or a server
    /// sharing one tracer with its advance registry) can keep reading
    /// span histograms and the flight ring after the coordinator is
    /// gone.
    pub fn set_tracer(&mut self, tracer: Arc<Tracer>) {
        self.tracer = tracer;
    }

    /// The coordinator's fault injector. Disabled unless configured;
    /// use [`FaultInjector::configure`], [`Coordinator::crash_host`] and
    /// [`Coordinator::recover_host`] to arm it.
    pub fn faults(&self) -> &Arc<FaultInjector> {
        &self.faults
    }

    /// Marks `host` crashed: its brokers stop answering collect,
    /// prepare and commit messages until [`Coordinator::recover_host`].
    /// Records the fault and emits [`EventKind::FaultInjected`].
    pub fn crash_host(&self, host: &str, now: SimTime) {
        self.faults.crash(host);
        self.counters.record_fault_injected();
        if self.sink.enabled() {
            self.sink.emit(
                &TraceEvent::new(now.value(), EventKind::FaultInjected)
                    .with_name(host)
                    .with_detail("host crashed"),
            );
        }
    }

    /// Marks `host` recovered: its brokers answer again, re-admitting
    /// their capacity to planning (the upgrade scan then reclaims it).
    /// Emits [`EventKind::HostRecovered`].
    pub fn recover_host(&self, host: &str, now: SimTime) {
        self.faults.recover(host);
        if self.sink.enabled() {
            self.sink
                .emit(&TraceEvent::new(now.value(), EventKind::HostRecovered).with_name(host));
        }
    }

    /// The proxy owning `resource`, if any.
    pub fn owner_of(&self, resource: ResourceId) -> Option<&Arc<QosProxy>> {
        self.owner.get(&resource).map(|&i| &self.proxies[i])
    }

    /// Cumulative protocol message statistics, assembled from the
    /// per-host shard counters and the coordinator's [`Counters`].
    pub fn stats(&self) -> MessageStats {
        let mut stats = MessageStats::default();
        for shard in &self.shards {
            stats.collect_roundtrips += shard.collect_roundtrips.load(Ordering::Relaxed);
            stats.dispatches += shard.dispatches.load(Ordering::Relaxed);
            stats.commit_roundtrips += shard.commit_roundtrips.load(Ordering::Relaxed);
        }
        let snap = self.counters.snapshot();
        stats.attempts = snap.establish_attempts;
        stats.established = snap.establishments;
        stats
    }

    /// Per-host protocol message statistics, in proxy order. Shows how
    /// protocol traffic spreads across the host shards.
    pub fn host_stats(&self) -> Vec<HostMessageStats> {
        self.proxies
            .iter()
            .zip(&self.shards)
            .map(|(proxy, shard)| HostMessageStats {
                host: proxy.host().to_string(),
                collect_roundtrips: shard.collect_roundtrips.load(Ordering::Relaxed),
                dispatches: shard.dispatches.load(Ordering::Relaxed),
                commit_roundtrips: shard.commit_roundtrips.load(Ordering::Relaxed),
            })
            .collect()
    }

    /// The coordinator's pool of planning contexts, which admission
    /// rounds check their group contexts out of.
    pub(crate) fn plan_pool(&self) -> &PlanCtxPool {
        &self.plan_pool
    }

    /// Allocates the next session id.
    pub(crate) fn alloc_session_id(&self) -> SessionId {
        SessionId(self.next_session.fetch_add(1, Ordering::Relaxed))
    }

    /// Runs one phase-1 collect and stamps the resulting view with
    /// `epoch` — the shared snapshot a batched admission round plans
    /// against.
    pub(crate) fn epoch_snapshot(
        &self,
        epoch: u64,
        now: SimTime,
        observation: ObservationPolicy,
        rng: &mut impl Rng,
    ) -> EpochSnapshot {
        let view = self.collect(now, observation, rng, self.sink.enabled());
        EpochSnapshot::new(epoch, now.value(), view)
    }

    /// Admits one [`SessionRequest`] through the three-phase
    /// establishment protocol and classifies the result as a structured
    /// [`EstablishOutcome`].
    ///
    /// On [`EstablishOutcome::Committed`] (or
    /// [`EstablishOutcome::Degraded`], when retries settled for a lower
    /// rank than first planned) the session's resources are reserved at
    /// the brokers; on [`EstablishOutcome::Rejected`] nothing is left
    /// reserved — every attempt rolls its prepared hops back before the
    /// next attempt (or the rejection) is taken. Retries re-collect
    /// availability, so planning routes around hosts that crashed
    /// mid-flight; with [`RetryPolicy::tradeoff_fallback`] the
    /// α-tradeoff policy then degrades the session to a lower QoS level
    /// rather than failing it outright. The request's
    /// [`qos_min`](SessionRequest::qos_min) floor and
    /// [`deadline`](SessionRequest::deadline) are enforced before
    /// anything is reserved.
    pub fn establish_request(
        &self,
        request: &SessionRequest,
        now: SimTime,
        rng: &mut impl Rng,
    ) -> EstablishOutcome {
        // Request-scoped tracing costs one relaxed load here; only a
        // traced request under an enabled tracer builds a collector.
        let mut collector = match request.trace {
            Some(ctx) if self.tracer.enabled() => Some(SpanCollector::new(ctx)),
            _ => None,
        };
        let pipeline = Pipeline::new(self, request, now);
        let options = &request.options;
        let mut events = Vec::new();
        let started = pipeline.start(&mut events);
        pipeline.flush(&mut events);
        let outcome = match started {
            Err(rejection) => pipeline.reject(rejection),
            Ok(()) => {
                // The rank the first successful plan reached, for
                // degraded-commit classification.
                let mut first_planned = None;
                let mut attempt = 0u32;
                // Each span opens where the previous one closed: the
                // first collect here, a retry's collect at the failed
                // attempt's last span.
                if let Some(c) = collector.as_mut() {
                    c.start_lap();
                }
                loop {
                    let retry = (attempt > 0).then_some(attempt);

                    // Phase 1: collect availability (one round trip per
                    // reachable proxy; down hosts report nothing, so the
                    // planner never places demand on them).
                    let view = self.collect(now, options.observation, rng, pipeline.traced);
                    if let Some(c) = collector.as_mut() {
                        c.record_lap(SpanKind::Collect).attempt = retry;
                    }

                    // Phase 2: local computation at the main QoSProxy, on
                    // a planning context checked out of the pool.
                    let planner = match retry {
                        Some(_) => pipeline.fallback_planner(),
                        None => options.planner,
                    };
                    let planned = {
                        let mut ctx = self.plan_pool.checkout();
                        ctx.prepare(&request.session, &view, &options.qrg);
                        pipeline.plan(&mut ctx, planner, rng, Some(&mut events))
                    };
                    pipeline.flush(&mut events);
                    if let Some(c) = collector.as_mut() {
                        let span = c.record_lap(SpanKind::Plan);
                        span.planner = Some(planner_label(planner).to_string());
                        span.attempt = retry;
                        span.psi = planned.as_ref().ok().map(|plan| plan.psi);
                    }

                    // Phase 3: two-phase reserve/commit across the owning
                    // proxies.
                    let rejection = match planned {
                        Ok(plan) => {
                            let first = *first_planned.get_or_insert(plan.rank);
                            let demand = plan.total_demand();
                            match pipeline.commit(plan, &demand, attempt, collector.as_mut()) {
                                Ok(est) => break pipeline.classify(est, first),
                                Err(rejection) => rejection,
                            }
                        }
                        Err(rejection) => rejection,
                    };
                    // A QoS floor violated by the *best* feasible plan
                    // cannot be fixed by retrying (retries only keep or
                    // lower the rank), so it is terminal immediately.
                    let floor = matches!(rejection.error, EstablishError::QosBelowMin { .. });
                    if floor || attempt >= options.retry.max_retries {
                        break pipeline.reject(rejection);
                    }
                    attempt += 1;
                    self.counters.record_retry();
                    if let Some(c) = collector.as_mut() {
                        c.retries += 1;
                    }
                    if pipeline.traced {
                        let policy = &options.retry;
                        pipeline.emit(&pipeline.event(EventKind::EstablishRetry).with_detail(
                            format!(
                                "{}; retry {attempt}/{} after backoff {}",
                                rejection.error,
                                policy.max_retries,
                                policy.backoff_delay(attempt)
                            ),
                        ));
                    }
                }
            }
        };
        if let Some(collector) = collector {
            let trace = collector.finish(&outcome, request.session.service().name());
            self.tracer.record(trace, self.sink.as_ref(), now.value());
        }
        outcome
    }

    /// Phase 1 helper: collect availability from every reachable proxy.
    /// Down hosts are skipped (their resources stay unobserved, which the
    /// planner treats as zero availability); a dropped report message
    /// leaves that host's resources unobserved the same way.
    pub(crate) fn collect(
        &self,
        now: SimTime,
        observation: ObservationPolicy,
        rng: &mut impl Rng,
        traced: bool,
    ) -> AvailabilityView {
        let mut view = AvailabilityView::with_capacity(self.owner.len());
        let faults_active = self.faults.is_active();
        for (i, proxy) in self.proxies.iter().enumerate() {
            if faults_active {
                if self.faults.is_down(proxy.host()) {
                    continue;
                }
                self.shards[i]
                    .collect_roundtrips
                    .fetch_add(1, Ordering::Relaxed);
                if self.faults.drop_message() {
                    self.counters.record_fault_injected();
                    if traced {
                        self.sink.emit(
                            &TraceEvent::new(now.value(), EventKind::FaultInjected)
                                .with_name(proxy.host())
                                .with_detail("availability report lost"),
                        );
                    }
                    continue;
                }
            } else {
                self.shards[i]
                    .collect_roundtrips
                    .fetch_add(1, Ordering::Relaxed);
            }
            proxy.collect_into(&mut view, now, observation, rng);
        }
        view
    }

    /// Terminates an established session *after a host crash*: all its
    /// reservations (on up and down hosts alike — a recovering broker
    /// reclaims crashed-session state before re-admitting capacity) are
    /// released and the loss is recorded. Returns the total amount
    /// released.
    pub fn abort(&self, session: &EstablishedSession, now: SimTime) -> f64 {
        let released: f64 = self
            .proxies
            .iter()
            .map(|p| p.release_session(session.id, now))
            .sum();
        self.counters.record_session_lost();
        if self.sink.enabled() {
            self.sink.emit(
                &TraceEvent::new(now.value(), EventKind::SessionLost)
                    .with_session(session.id.0)
                    .with_detail(format!("released {released}")),
            );
        }
        released
    }

    /// Releases `id`'s holdings at exactly the brokers `demand` names —
    /// O(session resources) rather than O(environment resources). Valid
    /// whenever the session's reservations are known to sit where its
    /// plan put them (the normal terminate and renegotiate-swap paths);
    /// the fault paths ([`Coordinator::abort`], rollback) keep their
    /// full scans because crashes can leave holdings the plan no longer
    /// describes.
    fn release_planned(&self, id: SessionId, demand: &ResourceVector, now: SimTime) -> f64 {
        let mut released = 0.0;
        for (rid, _) in demand.iter() {
            if let Some(broker) = self.owner_of(rid).and_then(|p| p.brokers.get(rid)) {
                released += broker.release(id, now);
            }
        }
        released
    }

    /// Terminates an established session, releasing all its reservations.
    /// Returns the total amount released.
    pub fn terminate(&self, session: &EstablishedSession, now: SimTime) -> f64 {
        let released = self.release_planned(session.id, &session.plan.total_demand(), now);
        self.counters.record_release();
        if self.sink.enabled() {
            self.sink.emit(
                &TraceEvent::new(now.value(), EventKind::SessionReleased)
                    .with_session(session.id.0)
                    .with_detail(format!("released {released}")),
            );
        }
        released
    }

    /// Re-plans a *live* session against current availability **plus its
    /// own holdings** (a session may always keep what it already has),
    /// without touching any reservation. Returns the best plan currently
    /// achievable — compare it with the plan in force to decide whether
    /// to [`Coordinator::renegotiate`].
    pub fn replan(
        &self,
        current: &EstablishedSession,
        session: &SessionInstance,
        options: &EstablishOptions,
        now: SimTime,
        rng: &mut impl Rng,
    ) -> Result<ReservationPlan, EstablishError> {
        let mut view = self.collect(now, options.observation, rng, self.sink.enabled());
        // Add the session's own holdings back into the view. The plan's
        // demand vector names every broker the session reserved at, so
        // only those are asked.
        for (rid, _) in current.plan.total_demand().iter() {
            if let Some(broker) = self.owner_of(rid).and_then(|p| p.brokers.get(rid)) {
                let held = broker.reserved_for(current.id);
                if held > 0.0 {
                    view.set_with_alpha(rid, view.avail(rid) + held, view.alpha(rid));
                }
            }
        }
        let mut ctx = self.plan_pool.checkout();
        Ok(ctx.plan_session(session, &view, &options.qrg, options.planner, rng)?)
    }

    /// Upgrades (or re-shapes) a live session: re-plans with the
    /// session's holdings added back and, if the candidate plan is
    /// *strictly better* — higher end-to-end rank, or the same rank with
    /// lower bottleneck Ψ — atomically swaps the reservations (release
    /// old, reserve new; the old reservations are restored if the swap
    /// fails midway). Returns the session handle now in force and
    /// whether a swap happened.
    ///
    /// This is the QoS-renegotiation capability the paper's framework
    /// family (EPIQ/Qualman) builds towards; the simulator's upgrade
    /// policy uses it to let *tradeoff* sessions recover QoS when load
    /// subsides.
    pub fn renegotiate(
        &self,
        current: EstablishedSession,
        session: &SessionInstance,
        options: &EstablishOptions,
        now: SimTime,
        rng: &mut impl Rng,
    ) -> Result<(EstablishedSession, bool), EstablishError> {
        let candidate = match self.replan(&current, session, options, now, rng) {
            Ok(plan) => plan,
            // A session that cannot even re-plan keeps what it has.
            Err(EstablishError::Plan(_)) => return Ok((current, false)),
            Err(e) => return Err(e),
        };
        let better = candidate.rank > current.plan.rank
            || (candidate.rank == current.plan.rank && candidate.psi < current.plan.psi - 1e-12);
        if !better {
            return Ok((current, false));
        }

        // Atomic swap: free the old holdings, then reserve the new plan
        // under the same session id; restore the old plan on failure.
        let traced = self.sink.enabled();
        let old_demand = current.plan.total_demand();
        self.release_planned(current.id, &old_demand, now);
        match self.dispatch(current.id, &candidate.total_demand(), now, traced, true) {
            Ok(()) => {
                self.counters.record_upgrade();
                if traced {
                    self.sink.emit(
                        &TraceEvent::new(now.value(), EventKind::SessionUpgraded)
                            .with_session(current.id.0)
                            .with_level(candidate.rank)
                            .with_psi(candidate.psi),
                    );
                }
                Ok((
                    EstablishedSession {
                        id: current.id,
                        plan: candidate,
                    },
                    true,
                ))
            }
            Err(e) => {
                // The restore never consults the injector: the capacity
                // was freed an instant ago on hosts the session already
                // held, so re-reserving it cannot fail.
                self.dispatch(current.id, &old_demand, now, traced, false)
                    .expect("restoring freshly freed reservations cannot fail");
                if matches!(e, EstablishError::Fault(_)) {
                    // A faulted upgrade aborts cleanly: the session keeps
                    // its (restored) plan.
                    return Ok((current, false));
                }
                Err(e)
            }
        }
    }

    /// Phase 3 helper: the two-phase reserve/commit of a demand vector
    /// across the owning proxies. Phase 3a (prepare) reserves every
    /// segment; phase 3b (commit) confirms each prepared segment. Any
    /// failure — broker rejection, down host, dropped message, injected
    /// commit failure — rolls back *all* prepared segments exactly once.
    /// `use_faults: false` bypasses the injector (the renegotiation
    /// restore path, which must not fail spuriously).
    pub(crate) fn dispatch(
        &self,
        id: SessionId,
        total: &ResourceVector,
        now: SimTime,
        traced: bool,
        use_faults: bool,
    ) -> Result<(), EstablishError> {
        // One (proxy, resource, amount) hop per demanded resource, stably
        // sorted by proxy: each proxy's segment is one run of hops, in
        // resource-id order, and segments go out in proxy order.
        let mut hops: Vec<Hop> = Vec::with_capacity(total.len());
        for (rid, amount) in total.iter() {
            let Some(&p) = self.owner.get(&rid) else {
                return Err(ReserveError::UnknownResource { resource: rid }.into());
            };
            hops.push((p, rid, amount));
        }
        hops.sort_by_key(|&(p, _, _)| p);
        let faults_active = use_faults && self.faults.is_active();

        // Phase 3a (prepare): reserve each segment at its proxy. The
        // first `prepared` hops are held.
        let mut prepared = 0;
        for segment in segments(&hops) {
            let p = segment[0].0;
            let host = self.proxies[p].host();
            if faults_active {
                if self.faults.is_down(host) {
                    self.rollback(id, &hops[..prepared], now, traced);
                    return Err(FaultError::HostDown {
                        host: host.to_string(),
                    }
                    .into());
                }
                if self.faults.drop_message() {
                    self.counters.record_fault_injected();
                    if traced {
                        self.sink.emit(
                            &TraceEvent::new(now.value(), EventKind::FaultInjected)
                                .with_session(id.0)
                                .with_name(host)
                                .with_detail("reserve request lost"),
                        );
                    }
                    self.rollback(id, &hops[..prepared], now, traced);
                    return Err(FaultError::MessageLost {
                        host: host.to_string(),
                    }
                    .into());
                }
            }
            self.shards[p].dispatches.fetch_add(1, Ordering::Relaxed);
            let pairs = segment.iter().map(|&(_, rid, amount)| (rid, amount));
            if let Err(e) = self.proxies[p].brokers.reserve_pairs(id, pairs, now) {
                self.rollback(id, &hops[..prepared], now, traced);
                return Err(e.into());
            }
            prepared += segment.len();
        }

        // Phase 3b (commit): confirm each prepared segment. A crash,
        // drop or injected failure here aborts the whole transaction —
        // the classic partial-commit case the rollback must cover.
        for segment in segments(&hops) {
            let p = segment[0].0;
            let host = self.proxies[p].host();
            if faults_active {
                if self.faults.is_down(host) {
                    self.rollback(id, &hops, now, traced);
                    return Err(FaultError::HostDown {
                        host: host.to_string(),
                    }
                    .into());
                }
                if self.faults.drop_message() {
                    self.counters.record_fault_injected();
                    if traced {
                        self.sink.emit(
                            &TraceEvent::new(now.value(), EventKind::FaultInjected)
                                .with_session(id.0)
                                .with_name(host)
                                .with_detail("commit request lost"),
                        );
                    }
                    self.rollback(id, &hops, now, traced);
                    return Err(FaultError::MessageLost {
                        host: host.to_string(),
                    }
                    .into());
                }
                if self.faults.fail_commit(host) {
                    self.counters.record_fault_injected();
                    if traced {
                        self.sink.emit(
                            &TraceEvent::new(now.value(), EventKind::FaultInjected)
                                .with_session(id.0)
                                .with_name(host)
                                .with_detail("commit failure injected"),
                        );
                    }
                    self.rollback(id, &hops, now, traced);
                    return Err(FaultError::CommitFailed {
                        host: host.to_string(),
                    }
                    .into());
                }
            }
            self.shards[p]
                .commit_roundtrips
                .fetch_add(1, Ordering::Relaxed);
        }
        Ok(())
    }

    /// Releases every prepared segment of a failed two-phase dispatch
    /// (the proxies of the `prepared` hops), exactly once, and records
    /// the rollback (when any hop was held).
    fn rollback(&self, id: SessionId, prepared: &[Hop], now: SimTime, traced: bool) {
        if prepared.is_empty() {
            return;
        }
        let mut released = 0;
        for segment in segments(prepared) {
            self.proxies[segment[0].0].release_session(id, now);
            released += 1;
        }
        self.counters.record_rollback();
        if traced {
            self.sink.emit(
                &TraceEvent::new(now.value(), EventKind::EstablishRollback)
                    .with_session(id.0)
                    .with_detail(format!("released {released} prepared segment(s)")),
            );
        }
    }
}

/// One demanded resource in a dispatch: `(owning proxy, resource,
/// amount)`.
type Hop = (usize, ResourceId, f64);

/// The per-proxy segments of hops sorted by proxy.
fn segments(hops: &[Hop]) -> impl Iterator<Item = &[Hop]> {
    hops.chunk_by(|a, b| a.0 == b.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{LocalBroker, LocalBrokerConfig};
    use qosr_model::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::sync::Arc;

    /// A two-host setup running a two-component chain: component 0 uses
    /// host A's CPU, component 1 uses host B's CPU.
    struct Setup {
        coordinator: Coordinator,
        session: SessionInstance,
        cpu_a: ResourceId,
        cpu_b: ResourceId,
    }

    fn setup(capacity_a: f64, capacity_b: f64) -> Setup {
        let mut space = ResourceSpace::new();
        let cpu_a = space.register("A.cpu", ResourceKind::Compute);
        let cpu_b = space.register("B.cpu", ResourceKind::Compute);

        let mut reg_a = BrokerRegistry::new();
        reg_a.register(Arc::new(LocalBroker::new(
            cpu_a,
            capacity_a,
            SimTime::ZERO,
            LocalBrokerConfig::default(),
        )));
        let mut reg_b = BrokerRegistry::new();
        reg_b.register(Arc::new(LocalBroker::new(
            cpu_b,
            capacity_b,
            SimTime::ZERO,
            LocalBrokerConfig::default(),
        )));
        let coordinator = Coordinator::new(vec![
            Arc::new(QosProxy::new("A", reg_a)),
            Arc::new(QosProxy::new("B", reg_b)),
        ]);

        let schema = QosSchema::new("q", ["x"]);
        let v = |x: u32| QosVector::new(schema.clone(), [x]);
        let c0 = ComponentSpec::new(
            "c0",
            vec![v(9)],
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
        Setup {
            coordinator,
            session,
            cpu_a,
            cpu_b,
        }
    }

    #[test]
    fn establish_reserves_and_terminate_releases() {
        let s = setup(100.0, 100.0);
        let mut rng = StdRng::seed_from_u64(1);
        let request = SessionRequest::new(s.session.clone());
        let outcome = s
            .coordinator
            .establish_request(&request, SimTime::new(1.0), &mut rng);
        assert!(matches!(outcome, EstablishOutcome::Committed(_)));
        let est = outcome.into_session().unwrap();
        assert_eq!(est.plan.sink_level, 1); // top level fits
        let broker_a = s
            .coordinator
            .owner_of(s.cpu_a)
            .unwrap()
            .brokers()
            .get(s.cpu_a)
            .unwrap()
            .clone();
        let broker_b = s
            .coordinator
            .owner_of(s.cpu_b)
            .unwrap()
            .brokers()
            .get(s.cpu_b)
            .unwrap()
            .clone();
        assert_eq!(broker_a.available(), 60.0);
        assert_eq!(broker_b.available(), 60.0);

        let stats = s.coordinator.stats();
        assert_eq!(stats.attempts, 1);
        assert_eq!(stats.established, 1);
        assert_eq!(stats.collect_roundtrips, 2);
        assert_eq!(stats.dispatches, 2);

        let released = s.coordinator.terminate(&est, SimTime::new(5.0));
        assert_eq!(released, 80.0);
        assert_eq!(broker_a.available(), 100.0);
    }

    #[test]
    fn establish_degrades_qos_under_scarcity() {
        let s = setup(100.0, 20.0); // host B can't host level 2 (needs 40)
        let mut rng = StdRng::seed_from_u64(1);
        let request = SessionRequest::new(s.session.clone());
        let est = s
            .coordinator
            .establish_request(&request, SimTime::new(1.0), &mut rng)
            .into_result()
            .unwrap();
        assert_eq!(est.plan.sink_level, 0);
    }

    #[test]
    fn establish_fails_cleanly_when_nothing_fits() {
        let s = setup(5.0, 5.0);
        let mut rng = StdRng::seed_from_u64(1);
        let request = SessionRequest::new(s.session.clone());
        let outcome = s
            .coordinator
            .establish_request(&request, SimTime::new(1.0), &mut rng);
        let EstablishOutcome::Rejected {
            error,
            nearest_miss,
        } = outcome
        else {
            panic!("nothing fits, the request must be rejected");
        };
        assert!(matches!(error, EstablishError::Plan(_)));
        // The rejection names the blocking resource: level-1 demand (10)
        // overshoots the 5 available.
        let miss = nearest_miss.expect("a blocking resource is identifiable");
        assert!((miss.ratio - 2.0).abs() < 1e-9, "ratio {}", miss.ratio);
        let stats = s.coordinator.stats();
        assert_eq!(stats.attempts, 1);
        assert_eq!(stats.established, 0);
    }

    #[test]
    fn qos_floor_rejects_below_min_without_reserving() {
        let s = setup(100.0, 20.0); // best achievable rank is 1
        let mut rng = StdRng::seed_from_u64(1);
        let request = SessionRequest::new(s.session.clone()).qos_min(2);
        let outcome = s
            .coordinator
            .establish_request(&request, SimTime::new(1.0), &mut rng);
        assert!(matches!(
            outcome.error(),
            Some(EstablishError::QosBelowMin {
                achieved: 1,
                min: 2
            })
        ));
        // Nothing was reserved.
        let broker_a = s.coordinator.proxies()[0].brokers().get(s.cpu_a).unwrap();
        assert_eq!(broker_a.available(), 100.0);
        // And the floor is satisfiable when capacity allows it.
        let s2 = setup(100.0, 100.0);
        let request = SessionRequest::new(s2.session.clone()).qos_min(2);
        let est = s2
            .coordinator
            .establish_request(&request, SimTime::new(1.0), &mut rng)
            .into_result()
            .unwrap();
        assert_eq!(est.plan.rank, 2);
    }

    #[test]
    fn expired_deadline_rejects_before_planning() {
        let s = setup(100.0, 100.0);
        let mut rng = StdRng::seed_from_u64(1);
        let request = SessionRequest::new(s.session.clone()).deadline(SimTime::new(5.0));
        let outcome = s
            .coordinator
            .establish_request(&request, SimTime::new(6.0), &mut rng);
        assert!(matches!(
            outcome.error(),
            Some(EstablishError::DeadlineExpired { .. })
        ));
        // At or before the deadline the request admits normally.
        let outcome = s
            .coordinator
            .establish_request(&request, SimTime::new(5.0), &mut rng);
        assert!(outcome.is_admitted());
    }

    /// Per-kind span counts in the coordinator's tracer.
    fn span_counts(coordinator: &Coordinator) -> Vec<u64> {
        SpanKind::ALL
            .map(|kind| coordinator.tracer().span_histogram(kind).count())
            .to_vec()
    }

    #[test]
    fn traced_establish_records_one_collect_plan_and_commit_span() {
        let s = setup(100.0, 100.0);
        s.coordinator.tracer().set_enabled(true);
        let mut rng = StdRng::seed_from_u64(9);
        let request = SessionRequest::new(s.session.clone()).traced(qosr_obs::TraceId(1));
        let est = s
            .coordinator
            .establish_request(&request, SimTime::new(1.0), &mut rng)
            .into_result()
            .unwrap();
        // queue, collect, plan, replan, commit.
        assert_eq!(span_counts(&s.coordinator), [1, 1, 1, 0, 1]);
        let trace = &s.coordinator.tracer().flight().dump()[0];
        let kinds: Vec<SpanKind> = trace.spans.iter().map(|span| span.kind).collect();
        assert_eq!(
            kinds,
            [
                SpanKind::Queue,
                SpanKind::Collect,
                SpanKind::Plan,
                SpanKind::Commit
            ]
        );
        let sum: u64 = trace.spans.iter().map(|span| span.duration_ns).sum();
        assert_eq!(sum, trace.total_ns);
        // Plan opens where collect closed and commit where plan closed:
        // each boundary is one clock read.
        for pair in trace.spans[1..].windows(2) {
            assert_eq!(pair[1].start_ns, pair[0].start_ns + pair[0].duration_ns);
        }
        s.coordinator.terminate(&est, SimTime::new(2.0));
    }

    /// An enabled tracer measures only requests that carry a trace id:
    /// an untraced establish leaves no span and no flight entry.
    #[test]
    fn enabled_tracer_skips_untraced_establishes() {
        let s = setup(100.0, 100.0);
        s.coordinator.tracer().set_enabled(true);
        let mut rng = StdRng::seed_from_u64(9);
        s.coordinator
            .establish_request(
                &SessionRequest::new(s.session.clone()),
                SimTime::new(1.0),
                &mut rng,
            )
            .into_result()
            .unwrap();
        assert_eq!(span_counts(&s.coordinator), [0; 5]);
        assert_eq!(s.coordinator.tracer().recorded(), 0);
        assert!(s.coordinator.tracer().flight().is_empty());
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let s = setup(100.0, 100.0);
        let mut rng = StdRng::seed_from_u64(9);
        let request = SessionRequest::new(s.session.clone()).traced(qosr_obs::TraceId(1));
        s.coordinator
            .establish_request(&request, SimTime::new(1.0), &mut rng)
            .into_result()
            .unwrap();
        assert_eq!(span_counts(&s.coordinator), [0; 5]);
        assert!(s.coordinator.tracer().flight().is_empty());
    }

    #[test]
    fn host_stats_shard_traffic_by_proxy() {
        let s = setup(100.0, 100.0);
        let mut rng = StdRng::seed_from_u64(1);
        let request = SessionRequest::new(s.session.clone());
        s.coordinator
            .establish_request(&request, SimTime::new(1.0), &mut rng)
            .into_result()
            .unwrap();
        let shards = s.coordinator.host_stats();
        assert_eq!(shards.len(), 2);
        assert_eq!(shards[0].host, "A");
        assert_eq!(shards[1].host, "B");
        // One collect + one reserve + one commit per host: the plan
        // places one component on each.
        for shard in &shards {
            assert_eq!(shard.collect_roundtrips, 1);
            assert_eq!(shard.dispatches, 1);
            assert_eq!(shard.commit_roundtrips, 1);
        }
        let totals = s.coordinator.stats();
        assert_eq!(totals.collect_roundtrips, 2);
        assert_eq!(totals.dispatches, 2);
        assert_eq!(totals.commit_roundtrips, 2);
    }

    #[test]
    fn stale_observation_can_fail_dispatch_with_rollback() {
        let s = setup(100.0, 100.0);
        let mut rng = StdRng::seed_from_u64(42);
        // Drain host B *after* t=10 so a stale observation (age > 0) can
        // still see the old availability.
        let broker_b = s.coordinator.proxies()[1]
            .brokers()
            .get(s.cpu_b)
            .unwrap()
            .clone();
        broker_b
            .reserve(SessionId(999), 90.0, SimTime::new(10.0))
            .unwrap();

        let opts = EstablishOptions {
            observation: ObservationPolicy::Stale { max_age: 20.0 },
            ..EstablishOptions::default()
        };
        // Try repeatedly: some establishments will observe the pre-drain
        // availability of B (100), plan level 2 (needs 40 > 10 actual)
        // and then fail at dispatch.
        let broker_a = s.coordinator.proxies()[0]
            .brokers()
            .get(s.cpu_a)
            .unwrap()
            .clone();
        let request = SessionRequest::new(s.session.clone()).options(opts);
        let mut saw_dispatch_failure = false;
        for i in 0..200 {
            let now = SimTime::new(10.5 + i as f64 * 0.01);
            match s
                .coordinator
                .establish_request(&request, now, &mut rng)
                .into_result()
            {
                Ok(est) => {
                    s.coordinator.terminate(&est, now);
                }
                Err(EstablishError::Reserve(e)) => {
                    saw_dispatch_failure = true;
                    assert_eq!(e.resource(), s.cpu_b);
                    // Rollback: host A must be fully available again.
                    assert_eq!(broker_a.available(), 100.0);
                    break;
                }
                Err(EstablishError::Plan(_)) => {}
                Err(e) => unreachable!("unexpected establishment error: {e}"),
            }
        }
        assert!(
            saw_dispatch_failure,
            "stale observations never caused a dispatch failure"
        );
    }
}

#[cfg(test)]
mod renegotiation_tests {
    use super::*;
    use crate::{BrokerRegistry, LocalBroker, LocalBrokerConfig};
    use qosr_model::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::sync::Arc;

    /// Single host, single CPU, a one-component service with levels 1/2.
    struct World {
        coordinator: Coordinator,
        session: SessionInstance,
        cpu: ResourceId,
    }

    fn world(capacity: f64) -> World {
        let mut space = ResourceSpace::new();
        let cpu = space.register("cpu", ResourceKind::Compute);
        let mut reg = BrokerRegistry::new();
        reg.register(Arc::new(LocalBroker::new(
            cpu,
            capacity,
            SimTime::ZERO,
            LocalBrokerConfig::default(),
        )));
        let coordinator = Coordinator::new(vec![Arc::new(QosProxy::new("H", reg))]);

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
        let session =
            SessionInstance::new(service, vec![ComponentBinding::new([cpu])], 1.0).unwrap();
        World {
            coordinator,
            session,
            cpu,
        }
    }

    #[test]
    fn upgrade_after_contention_clears() {
        let w = world(100.0);
        let mut rng = StdRng::seed_from_u64(1);
        let opts = EstablishOptions::default();
        let request = SessionRequest::new(w.session.clone());
        // A background session grabs 60 units; ours only fits level 1.
        let blocker = w
            .coordinator
            .establish_request(&request, SimTime::new(1.0), &mut rng)
            .into_result()
            .unwrap();
        assert_eq!(blocker.plan.rank, 2);
        let ours = w
            .coordinator
            .establish_request(&request, SimTime::new(2.0), &mut rng)
            .into_result()
            .unwrap();
        assert_eq!(ours.plan.rank, 1);

        // While blocked: replan sees no improvement (20 held + 20 free).
        let candidate = w
            .coordinator
            .replan(&ours, &w.session, &opts, SimTime::new(3.0), &mut rng)
            .unwrap();
        assert_eq!(candidate.rank, 1);
        let (ours, swapped) = w
            .coordinator
            .renegotiate(ours, &w.session, &opts, SimTime::new(3.5), &mut rng)
            .unwrap();
        assert!(!swapped);
        assert_eq!(ours.plan.rank, 1);

        // Blocker leaves; renegotiation upgrades us to level 2.
        w.coordinator.terminate(&blocker, SimTime::new(4.0));
        let (ours, swapped) = w
            .coordinator
            .renegotiate(ours, &w.session, &opts, SimTime::new(5.0), &mut rng)
            .unwrap();
        assert!(swapped);
        assert_eq!(ours.plan.rank, 2);
        // Exactly the new demand is held.
        let broker = w
            .coordinator
            .owner_of(w.cpu)
            .unwrap()
            .brokers()
            .get(w.cpu)
            .unwrap();
        assert_eq!(broker.reserved_for(ours.id), 60.0);
        assert_eq!(broker.available(), 40.0);
        w.coordinator.terminate(&ours, SimTime::new(6.0));
        assert_eq!(broker.available(), 100.0);
    }

    #[test]
    fn replan_counts_own_holdings_as_available() {
        let w = world(60.0); // only ever fits one level-2 OR three level-1s
        let mut rng = StdRng::seed_from_u64(2);
        let opts = EstablishOptions::default();
        let est = w
            .coordinator
            .establish_request(
                &SessionRequest::new(w.session.clone()),
                SimTime::new(1.0),
                &mut rng,
            )
            .into_result()
            .unwrap();
        assert_eq!(est.plan.rank, 2); // takes all 60
                                      // Raw availability is 0, yet replanning the same session still
                                      // finds level 2 because its own 60 are added back.
        let plan = w
            .coordinator
            .replan(&est, &w.session, &opts, SimTime::new(2.0), &mut rng)
            .unwrap();
        assert_eq!(plan.rank, 2);
        // And renegotiate keeps (not degrades) the session.
        let (est, swapped) = w
            .coordinator
            .renegotiate(est, &w.session, &opts, SimTime::new(3.0), &mut rng)
            .unwrap();
        assert!(!swapped);
        assert_eq!(est.plan.rank, 2);
    }

    #[test]
    fn renegotiate_keeps_session_when_replan_infeasible() {
        let w = world(100.0);
        let mut rng = StdRng::seed_from_u64(3);
        let opts = EstablishOptions::default();
        let est = w
            .coordinator
            .establish_request(
                &SessionRequest::new(w.session.clone()),
                SimTime::new(1.0),
                &mut rng,
            )
            .into_result()
            .unwrap();
        // An outside reservation grabs everything that's left directly at
        // the broker (not via the coordinator).
        let broker = w
            .coordinator
            .owner_of(w.cpu)
            .unwrap()
            .brokers()
            .get(w.cpu)
            .unwrap()
            .clone();
        broker
            .reserve(SessionId(777), broker.available(), SimTime::new(2.0))
            .unwrap();
        // The session keeps its plan: its own holdings still support it.
        let (est, swapped) = w
            .coordinator
            .renegotiate(est, &w.session, &opts, SimTime::new(3.0), &mut rng)
            .unwrap();
        assert!(!swapped);
        assert_eq!(broker.reserved_for(est.id), 60.0);
    }
}
