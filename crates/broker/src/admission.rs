//! Batched, concurrent session admission — the admission pipeline.
//!
//! Arrivals often come in bursts. Admitting a burst one session at a
//! time repeats phase 1 (availability collection, one message round
//! trip per host) once per session and serializes phase 2 (plan
//! computation) even though the plans are independent. The
//! [`AdmissionQueue`] amortizes both: each call to
//! [`AdmissionQueue::admit`] runs one *round* —
//!
//! 1. **Snapshot**: one epoch-stamped phase-1 collect
//!    ([`qosr_core::EpochSnapshot`]) shared by the whole batch;
//! 2. **Group + plan**: requests with the same *shape* (same service
//!    spec, scale and bindings, same [`qosr_core::QrgOptions`]) are
//!    grouped, and each group shares **one** [`qosr_core::PlanCtx`]
//!    prepared once against the snapshot via
//!    [`qosr_core::PlanCtx::prepare_epoch`] — a delta-aware prepare
//!    that *repairs* the context's previous relaxation instead of
//!    recomputing it when the availability delta since the last epoch
//!    is small. Pass II ([`qosr_core::PlanCtx::plan`]) then runs for
//!    every request, in arrival order on the calling thread, over its
//!    group's relaxation. Planning is ~0.5 µs per session, so a round
//!    spawns no threads: a per-round worker pool cost more in
//!    spawn/join and hand-offs than it ever planned in parallel (the
//!    per-worker-count figures are kept in `BENCH_history.json`);
//! 3. **Sequential commit**: once the whole round is planned, plans are
//!    committed in arrival order through the ordinary two-phase
//!    reserve/commit dispatch. Before each dispatch the round's
//!    *working view* (snapshot minus what earlier commits in the round
//!    consumed) is checked: a plan whose Ψ-critical resource was
//!    consumed by an earlier commit is detected as a **commit
//!    conflict** and *replanned* against the working view (bounded by
//!    [`AdmissionConfig::max_replans`]) rather than failed — the
//!    batched analogue of the single-session retry-with-degradation
//!    path. Replans reuse the request's group context through
//!    [`qosr_core::PlanCtx::prepare_delta`], so the debited working
//!    view feeds back as a delta and post-conflict replans are
//!    incremental too. (Planning and committing are not interleaved
//!    per request: a replan moves the group context off the snapshot,
//!    and later requests of the group must still plan against it.)
//!
//! Per request, a round runs the same deadline gate, Pass II, QoS
//! floor, commit and Committed/Degraded classification — with the same
//! counters and trace events — as a sequential
//! [`Coordinator::establish_request`]: both drive one crate-private
//! request pipeline. What a round keeps to itself is its policy: one
//! snapshot per epoch, no retries, and replans against the working view.
//!
//! A round is reproducible: each request plans with an RNG derived from
//! `(seed, epoch, index, attempt)`, group contexts are prepared in
//! discovery order, and each request's trace events are buffered while
//! it plans and emitted when it commits, so a trace reads request by
//! request in arrival order. Two queues with the same seed admit the
//! same batches with identical outcomes, counters and traces. Several
//! caller threads may run rounds on one queue concurrently (each round
//! checks its contexts out of the coordinator's pool); the brokers stay
//! the commit authority, so racing rounds never over-commit.

use crate::pipeline::{Pipeline, Rejection};
use crate::request::{planner_label, EstablishOutcome, NearestMiss, SessionRequest, SpanCollector};
use crate::{Coordinator, EstablishError, ObservationPolicy, ReserveError, SimTime};
use qosr_core::{AvailabilityView, FullReason, PlanCtx, RepairOutcome, ReservationPlan};
use qosr_obs::{Counters, EventKind, RequestTrace, SpanKind, SpanRecord, TraceEvent};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Tuning knobs for a batched admission round.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdmissionConfig {
    /// How many times one request may be replanned after a commit
    /// conflict before it is rejected.
    pub max_replans: u32,
    /// Base seed for the per-request derived RNGs; two queues with the
    /// same seed admit identical batches identically.
    pub seed: u64,
    /// Observation accuracy for the round's single phase-1 snapshot.
    /// Per-request observation options are not consulted — sharing one
    /// snapshot is the point of batching — and of a request's
    /// [`RetryPolicy`](crate::RetryPolicy) a round honours only
    /// `tradeoff_fallback`, as the planner its conflict replans use.
    pub observation: ObservationPolicy,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        AdmissionConfig {
            max_replans: 2,
            seed: 0,
            observation: ObservationPolicy::Accurate,
        }
    }
}

/// The batched admission pipeline over a [`Coordinator`].
///
/// Stateless between rounds apart from a monotonically increasing epoch
/// counter; cheap to construct and to keep around. See the
/// module docs above for the round structure.
pub struct AdmissionQueue<'a> {
    coordinator: &'a Coordinator,
    config: AdmissionConfig,
    epoch: AtomicU64,
    /// Requests in the round currently being admitted (0 between
    /// rounds) — the live queue-depth gauge.
    in_flight: AtomicUsize,
    /// Size of the most recently admitted batch.
    last_batch: AtomicUsize,
}

/// What planning produced for one request, kept until its turn to
/// commit: the plan (or its rejection) plus the buffered trace events
/// to emit then.
struct Planned<'a> {
    pipeline: Pipeline<'a>,
    /// The request's arrival index in the round.
    index: usize,
    result: Result<ReservationPlan, Rejection>,
    events: Vec<TraceEvent>,
    downgraded: bool,
    /// When the request is traced: the wall-clock instant Pass II
    /// started and how long it ran, so the commit phase can attach an
    /// exact plan span without re-timing.
    span: Option<(Instant, u64)>,
}

/// Mixes `(base, epoch, index, attempt)` into an independent RNG seed
/// (splitmix64 finalizer), so requests and their replans never share
/// random streams.
fn derive_seed(base: u64, epoch: u64, index: u64, attempt: u64) -> u64 {
    let mut z = base
        ^ epoch.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ index.wrapping_mul(0xBF58_476D_1CE4_E5B9)
        ^ attempt.wrapping_mul(0x94D0_49BB_1331_11EB);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Whether two requests can share one prepared planning context: same
/// service spec, same scale, same per-component bindings, same QRG
/// construction options. Per-request knobs that only affect Pass II or
/// commit (planner choice, QoS floor, deadline) do not split groups.
fn same_shape(a: &SessionRequest, b: &SessionRequest) -> bool {
    a.session.service().uid() == b.session.service().uid()
        && a.session.scale().to_bits() == b.session.scale().to_bits()
        && a.options.qrg == b.options.qrg
        && a.session.bindings().len() == b.session.bindings().len()
        && a.session
            .bindings()
            .iter()
            .zip(b.session.bindings())
            .all(|(x, y)| x.resources() == y.resources())
}

/// Records a delta-aware prepare's outcome into the coordinator's
/// counters.
fn record_delta_outcome(counters: &Counters, outcome: &RepairOutcome) {
    match outcome {
        RepairOutcome::Repaired(stats) => {
            counters.record_delta_repair();
            counters.record_relax_nodes_repaired(stats.nodes_recomputed as u64);
        }
        RepairOutcome::Full(_) => counters.record_delta_fallback(),
    }
}

/// A human label for why a delta prepare fell back to a full rebuild.
fn fallback_label(reason: FullReason) -> &'static str {
    match reason {
        FullReason::ColdCache => "cold cache",
        FullReason::SessionChanged => "session changed",
        FullReason::OptionsChanged => "options changed",
        FullReason::DeltaTooLarge => "delta too large",
    }
}

/// Builds the [`EventKind::DeltaRepair`] trace record for one prepare.
fn delta_repair_event(t: f64, service: &str, outcome: &RepairOutcome, when: String) -> TraceEvent {
    let ev = TraceEvent::new(t, EventKind::DeltaRepair).with_service(service);
    match outcome {
        RepairOutcome::Repaired(stats) => ev
            .with_feasible(true)
            .with_level(stats.resources_changed as u32)
            .with_value(stats.nodes_recomputed as f64)
            .with_detail(when),
        RepairOutcome::Full(reason) => ev
            .with_feasible(false)
            .with_detail(format!("{when}, full rebuild: {}", fallback_label(*reason))),
    }
}

impl<'a> AdmissionQueue<'a> {
    /// A queue admitting batches through `coordinator` under `config`.
    pub fn new(coordinator: &'a Coordinator, config: AdmissionConfig) -> Self {
        AdmissionQueue {
            coordinator,
            config,
            epoch: AtomicU64::new(0),
            in_flight: AtomicUsize::new(0),
            last_batch: AtomicUsize::new(0),
        }
    }

    /// The coordinator this queue admits through.
    pub fn coordinator(&self) -> &Coordinator {
        self.coordinator
    }

    /// The queue's configuration.
    pub fn config(&self) -> &AdmissionConfig {
        &self.config
    }

    /// How many admission rounds have run (the next round's epoch).
    pub fn rounds(&self) -> u64 {
        self.epoch.load(Ordering::Relaxed)
    }

    /// Requests in the round currently being admitted (0 between
    /// rounds). Sampled by the simulator's telemetry tick as the
    /// queue-depth gauge.
    pub fn in_flight(&self) -> usize {
        self.in_flight.load(Ordering::Relaxed)
    }

    /// Size of the most recently admitted batch (0 before any round).
    pub fn last_batch_size(&self) -> usize {
        self.last_batch.load(Ordering::Relaxed)
    }

    /// Admits one batch: snapshot, plan, sequential commit with
    /// conflict-triggered replans. Returns one [`EstablishOutcome`] per
    /// request, in arrival order. Admitted outcomes hold live
    /// reservations (terminate them via [`Coordinator::terminate`]);
    /// rejected ones hold nothing.
    pub fn admit(&self, requests: &[SessionRequest], now: SimTime) -> Vec<EstablishOutcome> {
        let mut outcomes = Vec::with_capacity(requests.len());
        self.admit_with(requests, now, |_, outcome| outcomes.push(outcome));
        outcomes
    }

    /// [`AdmissionQueue::admit`], streaming: runs the same round but
    /// hands each `(arrival index, outcome)` to `on_outcome` the moment
    /// its sequential commit lands, instead of collecting the whole
    /// round into a `Vec` first. Servers use this to push results onto
    /// the wire while later requests in the round are still committing;
    /// the callback is invoked exactly once per request, in arrival
    /// order, from the calling thread.
    pub fn admit_with(
        &self,
        requests: &[SessionRequest],
        now: SimTime,
        mut on_outcome: impl FnMut(usize, EstablishOutcome),
    ) {
        self.admit_traced(requests, now, |i, outcome, _| on_outcome(i, outcome));
    }

    /// [`AdmissionQueue::admit_with`], additionally handing each
    /// callback the request's recorded span tree when the request was
    /// traced ([`SessionRequest::traced`]) and the coordinator's
    /// [`qosr_obs::Tracer`] is enabled — `None` otherwise. Servers use
    /// the trace to fill per-request latency attribution into outcome
    /// frames without re-parsing the trace log.
    pub fn admit_traced(
        &self,
        requests: &[SessionRequest],
        now: SimTime,
        mut on_outcome: impl FnMut(usize, EstablishOutcome, Option<Arc<RequestTrace>>),
    ) {
        let n = requests.len();
        if n == 0 {
            return;
        }
        let coordinator = self.coordinator;
        let traced = coordinator.sink().enabled();
        // A round builds span trees only for traced requests under an
        // enabled tracer; a round with none reads no clock.
        let tracing = coordinator.tracer().enabled() && requests.iter().any(|r| r.trace.is_some());
        let epoch = self.epoch.fetch_add(1, Ordering::Relaxed);
        self.in_flight.store(n, Ordering::Relaxed);
        self.last_batch.store(n, Ordering::Relaxed);

        // Phase 1, once per round: the epoch-stamped snapshot every
        // request in the batch plans against. The collect span is
        // measured once and shared by every traced request in the round
        // — batching means they all paid for exactly this one collect.
        let collect_started = tracing.then(Instant::now);
        let mut snap_rng = StdRng::seed_from_u64(derive_seed(self.config.seed, epoch, u64::MAX, 0));
        let snapshot =
            coordinator.epoch_snapshot(epoch, now, self.config.observation, &mut snap_rng);
        let collect_ns = collect_started.map(|s| s.elapsed().as_nanos() as u64);

        // Phase 2a: group same-shaped requests and prepare one shared
        // planning context per group against the snapshot.
        // prepare_epoch repairs the context's previous relaxation from
        // the availability delta when it can (falling back to a full
        // rebuild otherwise).
        let t = now.value();
        let mut group_of: Vec<usize> = Vec::with_capacity(n);
        let mut reps: Vec<usize> = Vec::new();
        let mut group_ctxs = Vec::new();
        for (i, request) in requests.iter().enumerate() {
            let found = reps.iter().position(|&r| same_shape(&requests[r], request));
            let g = match found {
                Some(g) => g,
                None => {
                    let mut ctx = coordinator.plan_pool().checkout();
                    let outcome =
                        ctx.prepare_epoch(&request.session, &snapshot, &request.options.qrg);
                    record_delta_outcome(coordinator.counters(), &outcome);
                    if traced {
                        coordinator.sink().emit(&delta_repair_event(
                            t,
                            request.session.service().name(),
                            &outcome,
                            format!("epoch {epoch}"),
                        ));
                    }
                    reps.push(i);
                    group_ctxs.push(ctx);
                    group_ctxs.len() - 1
                }
            };
            group_of.push(g);
        }

        // Phase 2b: Pass II for each request over its group's
        // relaxation. The whole round is planned before anything
        // commits — a replan in phase 3 moves the group context off the
        // snapshot — and events stay buffered per request so the trace
        // reads request by request.
        let planned: Vec<Planned> = requests
            .iter()
            .enumerate()
            .map(|(i, request)| self.plan_one(request, &mut group_ctxs[group_of[i]], epoch, i, now))
            .collect();

        coordinator.counters().record_batch_planned();
        if traced {
            coordinator.sink().emit(
                &TraceEvent::new(t, EventKind::BatchPlanned)
                    .with_level(n as u32)
                    .with_detail(format!("epoch {epoch}, {} plan groups", reps.len())),
            );
        }

        // Phase 3, sequential in arrival order: commit against live
        // broker state, detecting conflicts against the round's working
        // view (snapshot minus earlier commits).
        let mut working = snapshot.working();
        for (i, (request, planned)) in requests.iter().zip(planned).enumerate() {
            let gctx: &mut PlanCtx = &mut group_ctxs[group_of[i]];
            let mut collector = match request.trace {
                Some(ctx) if tracing => Some(SpanCollector::new(ctx)),
                _ => None,
            };
            if let (Some(c), Some(started), Some(ns)) =
                (collector.as_mut(), collect_started, collect_ns)
            {
                let offset = c.offset_ns(started);
                c.push(SpanRecord::new(SpanKind::Collect, offset, ns));
            }
            let outcome = self.commit_one(planned, gctx, &mut working, epoch, collector.as_mut());
            self.in_flight.store(n - i - 1, Ordering::Relaxed);
            let trace = collector.map(|c| {
                let trace = c.finish(&outcome, request.session.service().name());
                coordinator
                    .tracer()
                    .record(trace, coordinator.sink().as_ref(), t)
            });
            on_outcome(i, outcome, trace);
        }
    }

    /// Phase 2b for one request: the deadline gate and Pass II against
    /// its group's shared, delta-prepared context, buffering the trace
    /// events until the request commits.
    fn plan_one<'r>(
        &'r self,
        request: &'r SessionRequest,
        ctx: &mut PlanCtx,
        epoch: u64,
        index: usize,
        now: SimTime,
    ) -> Planned<'r> {
        let pipeline = Pipeline::new(self.coordinator, request, now);
        let mut events = Vec::new();
        let mut downgraded = false;
        let mut span = None;
        let result = pipeline.start(&mut events).and_then(|()| {
            let mut rng =
                StdRng::seed_from_u64(derive_seed(self.config.seed, epoch, index as u64, 0));
            // Traced requests capture the raw instants so commit_one can
            // attach the exact plan span.
            let span_wanted = request.trace.is_some() && self.coordinator.tracer().enabled();
            let started = span_wanted.then(Instant::now);
            let result = pipeline.plan(ctx, request.options.planner, &mut rng, Some(&mut events));
            span = started.map(|s| (s, s.elapsed().as_nanos() as u64));
            downgraded = ctx.last_downgrade().is_some();
            result
        });
        Planned {
            pipeline,
            index,
            result,
            events,
            downgraded,
            span,
        }
    }

    /// Phase 3 for one request: emit its buffered plan events, then
    /// commit its plan — replanning on conflict (bounded), rejecting
    /// when the budget is spent. Replans go through the request's group
    /// context: the debited working view arrives as a delta, so a
    /// post-conflict replan repairs the group's relaxation instead of
    /// rebuilding it.
    fn commit_one(
        &self,
        planned: Planned<'_>,
        gctx: &mut PlanCtx,
        working: &mut AvailabilityView,
        epoch: u64,
        mut collector: Option<&mut SpanCollector>,
    ) -> EstablishOutcome {
        let Planned {
            pipeline,
            index,
            result,
            mut events,
            downgraded,
            span,
        } = planned;
        let request = pipeline.request;
        let counters = self.coordinator.counters();
        pipeline.flush(&mut events);
        if let (Some(c), Some((started, ns))) = (collector.as_deref_mut(), span) {
            let offset = c.offset_ns(started);
            let mut span = SpanRecord::new(SpanKind::Plan, offset, ns)
                .with_planner(planner_label(request.options.planner));
            span.psi = result.as_ref().ok().map(|plan| plan.psi);
            if downgraded {
                span.detail = Some("downgraded".to_string());
            }
            c.push(span);
        }

        let mut plan = match result {
            Ok(plan) => plan,
            Err(rejection) => return pipeline.reject(rejection),
        };
        // This request's commit phase starts now (the round planned the
        // others since its plan span closed); each commit and replan
        // span after it opens where the previous one closed.
        if let Some(c) = collector.as_deref_mut() {
            c.start_lap();
        }
        let first = plan.rank;
        let mut replans = 0u32;
        loop {
            let demand = plan.total_demand();
            // Conflict detection: does the round's working view still
            // cover this plan, or did an earlier commit consume its
            // Ψ-critical capacity?
            let (resource, requested, available) = match working.first_deficit(demand.iter()) {
                Some(deficit) => deficit,
                None => match pipeline.commit(plan, &demand, replans, collector.as_deref_mut()) {
                    Ok(est) => {
                        for (rid, amount) in demand.iter() {
                            working.debit(rid, amount);
                        }
                        return pipeline.classify(est, first);
                    }
                    Err(Rejection {
                        error:
                            EstablishError::Reserve(ReserveError::Insufficient {
                                resource,
                                requested,
                                available,
                            }),
                        ..
                    }) => {
                        // Live broker state diverged from the round
                        // snapshot (outside traffic, stale observation).
                        // Clamp the working view to the truth the broker
                        // just reported, so the replan routes around it.
                        let seen = working.avail(resource);
                        if seen > available {
                            working.debit(resource, seen - available);
                        }
                        (resource, requested, available)
                    }
                    Err(rejection) => return pipeline.reject(rejection),
                },
            };
            let miss = NearestMiss {
                resource,
                ratio: requested / available.max(1e-9),
            };
            counters.record_commit_conflict();
            if let Some(c) = collector.as_deref_mut() {
                c.conflicts += 1;
            }
            if pipeline.traced {
                pipeline.emit(
                    &pipeline
                        .event(EventKind::CommitConflict)
                        .with_resource(u64::from(resource.0))
                        .with_psi(miss.ratio)
                        .with_detail(format!(
                            "requested {requested}, {available} left in epoch {epoch}"
                        )),
                );
            }
            if replans >= self.config.max_replans {
                return pipeline.reject(Rejection {
                    error: ReserveError::Insufficient {
                        resource,
                        requested,
                        available,
                    }
                    .into(),
                    nearest: Some(miss),
                    session: None,
                });
            }
            replans += 1;
            counters.record_replan();
            if let Some(c) = collector.as_deref_mut() {
                c.retries += 1;
            }
            if pipeline.traced {
                pipeline.emit(&pipeline.event(EventKind::Replanned).with_detail(format!(
                    "replan {replans}/{} in epoch {epoch}",
                    self.config.max_replans
                )));
            }

            // Replan against the working view with the planner a
            // sequential retry falls back to, so the request degrades to
            // a feasible level instead of repeating the conflicted plan.
            let planner = pipeline.fallback_planner();
            let mut rng = StdRng::seed_from_u64(derive_seed(
                self.config.seed,
                epoch,
                index as u64,
                u64::from(replans),
            ));
            let t = pipeline.now.value();
            // The working view diverged from whatever the group context
            // last planned against only by what this round debited —
            // exactly the delta the repair path wants.
            let outcome = gctx.prepare_delta(&request.session, working, &request.options.qrg);
            record_delta_outcome(counters, &outcome);
            if pipeline.traced {
                pipeline.emit(&delta_repair_event(
                    t,
                    request.session.service().name(),
                    &outcome,
                    format!("replan {replans} in epoch {epoch}"),
                ));
            }
            let plan_started = collector.is_some().then(Instant::now);
            let replanned = pipeline.plan(gctx, planner, &mut rng, None);
            if let (Some(c), Some(plan_started)) = (collector.as_deref_mut(), plan_started) {
                // The replan opens at the lap; it and its inner plan end
                // together, on one read.
                let plan_start_ns = c.offset_ns(plan_started);
                let span = c.record_lap(SpanKind::Replan);
                let end_ns = span.start_ns + span.duration_ns;
                let inner = SpanRecord::new(
                    SpanKind::Plan,
                    plan_start_ns,
                    end_ns.saturating_sub(plan_start_ns),
                )
                .with_planner(planner_label(planner));
                span.attempt = Some(replans);
                span.resource = Some(u64::from(resource.0));
                span.psi = replanned.as_ref().ok().map(|p| p.psi);
                span.children.push(inner);
            }
            match replanned {
                Ok(p) => plan = p,
                Err(rejection) => return pipeline.reject(rejection),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BrokerRegistry, LocalBroker, LocalBrokerConfig, QosProxy};
    use qosr_core::Planner;
    use qosr_model::*;
    use std::sync::Arc;

    /// Single host, single CPU, a one-component service whose levels
    /// demand 20 (rank 1) and 60 (rank 2).
    struct World {
        coordinator: Coordinator,
        session: SessionInstance,
        cpu: ResourceId,
    }

    fn world(capacity: f64) -> World {
        world_traced(capacity, Arc::new(qosr_obs::NullSink))
    }

    fn world_traced(capacity: f64, sink: Arc<dyn qosr_obs::TraceSink>) -> World {
        let mut space = ResourceSpace::new();
        let cpu = space.register("cpu", ResourceKind::Compute);
        let mut reg = BrokerRegistry::new();
        reg.register(Arc::new(LocalBroker::new(
            cpu,
            capacity,
            SimTime::ZERO,
            LocalBrokerConfig::default(),
        )));
        let coordinator = Coordinator::with_trace(vec![Arc::new(QosProxy::new("H", reg))], sink);

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

    fn available(w: &World) -> f64 {
        w.coordinator.proxies()[0]
            .brokers()
            .get(w.cpu)
            .unwrap()
            .available()
    }

    #[test]
    fn batch_replans_conflicts_into_degraded_commits() {
        let w = world(100.0);
        let queue = AdmissionQueue::new(
            &w.coordinator,
            AdmissionConfig {
                seed: 7,
                ..AdmissionConfig::default()
            },
        );
        let requests: Vec<_> = (0..3)
            .map(|_| SessionRequest::new(w.session.clone()))
            .collect();
        let outcomes = queue.admit(&requests, SimTime::new(1.0));
        assert_eq!(queue.rounds(), 1);

        // All three planned rank 2 (60) against the 100-unit snapshot;
        // the first commits, the other two conflict and replan to rank 1.
        assert!(matches!(&outcomes[0], EstablishOutcome::Committed(est) if est.plan.rank == 2));
        for outcome in &outcomes[1..] {
            assert!(
                matches!(outcome, EstablishOutcome::Degraded { from: 2, to: 1, .. }),
                "expected a 2→1 degraded commit, got admitted={}",
                outcome.is_admitted()
            );
        }
        assert_eq!(available(&w), 0.0); // 60 + 20 + 20

        let snap = w.coordinator.counters().snapshot();
        assert_eq!(snap.batches_planned, 1);
        assert_eq!(snap.commit_conflicts, 2);
        assert_eq!(snap.replans, 2);
        assert_eq!(snap.establishments, 3);
        assert_eq!(snap.establish_attempts, 3);
        // One collect round trip for the whole batch.
        assert_eq!(w.coordinator.stats().collect_roundtrips, 1);
        // One shared prepare for the whole (same-shaped) batch plus one
        // per replan. This tiny world has a single resource, so any
        // commit dirties every candidate and the replans rebuild fully
        // (delta too large) — still counted on the delta path.
        assert_eq!(snap.delta_fallbacks + snap.delta_repairs, 3);
    }

    #[test]
    fn exhausted_replan_budget_rejects_without_over_commit() {
        let w = world(100.0);
        let queue = AdmissionQueue::new(
            &w.coordinator,
            AdmissionConfig {
                max_replans: 0,
                seed: 7,
                ..AdmissionConfig::default()
            },
        );
        let requests: Vec<_> = (0..3)
            .map(|_| SessionRequest::new(w.session.clone()))
            .collect();
        let outcomes = queue.admit(&requests, SimTime::new(1.0));

        assert!(matches!(&outcomes[0], EstablishOutcome::Committed(est) if est.plan.rank == 2));
        for outcome in &outcomes[1..] {
            let EstablishOutcome::Rejected {
                error,
                nearest_miss,
            } = outcome
            else {
                panic!("replan budget 0 must reject conflicting requests");
            };
            assert!(matches!(
                error,
                EstablishError::Reserve(ReserveError::Insufficient { .. })
            ));
            let miss = nearest_miss.expect("conflicts name the contended resource");
            assert_eq!(miss.resource, w.cpu);
            assert!((miss.ratio - 1.5).abs() < 1e-9, "60 requested / 40 left");
        }
        // Only the first commit holds capacity: no over-commit.
        assert_eq!(available(&w), 40.0);
        let snap = w.coordinator.counters().snapshot();
        assert_eq!(snap.commit_conflicts, 2);
        assert_eq!(snap.replans, 0);
    }

    #[test]
    fn same_seed_queues_admit_identically() {
        let run = || {
            let sink = Arc::new(qosr_obs::MemorySink::default());
            let w = world_traced(100.0, sink.clone());
            let queue = AdmissionQueue::new(
                &w.coordinator,
                AdmissionConfig {
                    seed: 42,
                    ..AdmissionConfig::default()
                },
            );
            let requests: Vec<_> = (0..5)
                .map(|i| {
                    let planner = if i % 2 == 0 {
                        Planner::Basic
                    } else {
                        Planner::Random
                    };
                    SessionRequest::new(w.session.clone()).planner(planner)
                })
                .collect();
            let outcomes = queue.admit(&requests, SimTime::new(1.0));
            let shape: Vec<_> = outcomes
                .iter()
                .map(|o| (o.is_admitted(), o.session().map(|e| (e.id.0, e.plan.rank))))
                .collect();
            let snap = w.coordinator.counters().snapshot();
            (shape, available(&w), snap, sink.events())
        };
        let (shape, avail, snap, events) = run();
        assert_eq!(snap.commit_conflicts, 4, "the batch must contend");
        assert!(!events.is_empty());
        assert_eq!((shape, avail, snap, events), run());
    }

    #[test]
    fn steady_state_rounds_reuse_the_repaired_relaxation() {
        let w = world(100.0);
        let queue = AdmissionQueue::new(
            &w.coordinator,
            AdmissionConfig {
                seed: 3,
                ..AdmissionConfig::default()
            },
        );
        // A floor above the best reachable rank: every round plans,
        // nothing commits, availability never moves.
        let requests: Vec<_> = (0..4)
            .map(|_| SessionRequest::new(w.session.clone()).qos_min(3))
            .collect();
        for round in 0..3 {
            let outcomes = queue.admit(&requests, SimTime::new(1.0 + round as f64));
            assert!(outcomes.iter().all(|o| !o.is_admitted()));
        }
        let snap = w.coordinator.counters().snapshot();
        // Round 1 pays the one full build (cold pooled context); rounds
        // 2 and 3 find an unchanged view and repair for free — one
        // prepare per round despite four same-shaped requests each.
        assert_eq!(snap.delta_fallbacks, 1);
        assert_eq!(snap.delta_repairs, 2);
        assert_eq!(snap.relax_nodes_repaired, 0, "empty deltas repair no nodes");
        assert_eq!(available(&w), 100.0);
    }

    #[test]
    fn admit_with_streams_in_arrival_order_and_matches_admit() {
        let shape = |outcomes: &[(usize, EstablishOutcome)]| -> Vec<_> {
            outcomes
                .iter()
                .map(|(i, o)| {
                    (
                        *i,
                        o.is_admitted(),
                        o.session().map(|e| (e.id.0, e.plan.rank)),
                    )
                })
                .collect()
        };
        let config = AdmissionConfig {
            seed: 9,
            ..AdmissionConfig::default()
        };

        let w = world(100.0);
        let queue = AdmissionQueue::new(&w.coordinator, config);
        let requests: Vec<_> = (0..4)
            .map(|_| SessionRequest::new(w.session.clone()))
            .collect();
        let mut streamed = Vec::new();
        queue.admit_with(&requests, SimTime::new(1.0), |i, o| streamed.push((i, o)));
        let indices: Vec<_> = streamed.iter().map(|(i, _)| *i).collect();
        assert_eq!(indices, vec![0, 1, 2, 3], "callback fires in arrival order");

        let w2 = world(100.0);
        let queue2 = AdmissionQueue::new(&w2.coordinator, config);
        let collected: Vec<_> = queue2
            .admit(&requests, SimTime::new(1.0))
            .into_iter()
            .enumerate()
            .collect();
        assert_eq!(shape(&streamed), shape(&collected));
        assert_eq!(available(&w), available(&w2));
    }

    #[test]
    fn traced_batches_assemble_exact_span_trees() {
        let w = world(100.0);
        w.coordinator.tracer().set_enabled(true);
        let queue = AdmissionQueue::new(
            &w.coordinator,
            AdmissionConfig {
                seed: 7,
                ..AdmissionConfig::default()
            },
        );
        let requests: Vec<_> = (0..3)
            .map(|i| SessionRequest::new(w.session.clone()).traced(qosr_obs::TraceId(100 + i)))
            .collect();
        let mut traces = Vec::new();
        queue.admit_traced(&requests, SimTime::new(1.0), |i, outcome, trace| {
            traces.push((i, outcome.is_admitted(), trace));
        });
        assert_eq!(traces.len(), 3);
        for (i, admitted, trace) in &traces {
            assert!(*admitted);
            let trace = trace.as_ref().expect("traced request yields a span tree");
            assert_eq!(trace.trace, 100 + *i as u64);
            // Root span durations sum *exactly* to the end-to-end total
            // (the queue residual absorbs everything unmeasured).
            let measured: u64 = trace.spans.iter().map(|s| s.duration_ns).sum();
            assert_eq!(measured, trace.total_ns);
            assert_eq!(trace.spans[0].kind, SpanKind::Queue);
            assert_eq!(trace.spans[1].kind, SpanKind::Collect);
            assert_eq!(trace.spans[2].kind, SpanKind::Plan);
            assert_eq!(trace.spans[2].planner.as_deref(), Some("basic"));
            assert_eq!(trace.spans.last().unwrap().kind, SpanKind::Commit);
        }

        // The first request commits clean; the other two conflict,
        // replan (contended resource annotated, the inner plan nested
        // as a child span) and commit degraded.
        let first = traces[0].2.as_ref().unwrap();
        assert_eq!(first.outcome, "committed");
        assert_eq!(first.conflicts, 0);
        assert!(first.spans.iter().all(|s| s.kind != SpanKind::Replan));
        for (_, _, trace) in &traces[1..] {
            let trace = trace.as_ref().unwrap();
            assert_eq!(trace.outcome, "degraded");
            assert_eq!(trace.conflicts, 1);
            assert_eq!(trace.retries, 1);
            let replan = trace
                .spans
                .iter()
                .find(|s| s.kind == SpanKind::Replan)
                .expect("conflicted requests carry a replan span");
            assert_eq!(replan.attempt, Some(1));
            assert_eq!(replan.resource, Some(u64::from(w.cpu.0)));
            assert_eq!(replan.children.len(), 1);
            assert_eq!(replan.children[0].kind, SpanKind::Plan);
            // The replan and its inner plan end on one read, and the
            // commit opens where the replan closed.
            let end = |s: &SpanRecord| s.start_ns + s.duration_ns;
            assert_eq!(end(&replan.children[0]), end(replan));
            assert_eq!(trace.spans.last().unwrap().start_ns, end(replan));
        }

        // The tracer aggregated all three; the flight ring holds them.
        assert_eq!(w.coordinator.tracer().recorded(), 3);
        assert_eq!(w.coordinator.tracer().outcome_counts(), (1, 2, 0));
        assert_eq!(w.coordinator.tracer().flight().len(), 3);

        // Untraced requests yield no span tree even while tracing is on.
        let plain = vec![SessionRequest::new(w.session.clone())];
        queue.admit_traced(&plain, SimTime::new(2.0), |_, _, trace| {
            assert!(trace.is_none());
        });
        assert_eq!(w.coordinator.tracer().recorded(), 3);
    }

    #[test]
    fn tracing_is_off_by_default_and_admission_is_unchanged() {
        let w = world(100.0);
        assert!(!w.coordinator.tracer().enabled());
        let queue = AdmissionQueue::new(&w.coordinator, AdmissionConfig::default());
        let requests: Vec<_> = (0..2)
            .map(|i| SessionRequest::new(w.session.clone()).traced(qosr_obs::TraceId(i)))
            .collect();
        let mut saw = 0;
        queue.admit_traced(&requests, SimTime::new(1.0), |_, outcome, trace| {
            assert!(trace.is_none(), "disabled tracer must not record");
            assert!(outcome.is_admitted());
            saw += 1;
        });
        assert_eq!(saw, 2);
        assert_eq!(w.coordinator.tracer().recorded(), 0);
        assert!(w.coordinator.tracer().flight().is_empty());
    }

    #[test]
    fn empty_batch_is_a_no_op() {
        let w = world(100.0);
        let queue = AdmissionQueue::new(&w.coordinator, AdmissionConfig::default());
        assert!(queue.admit(&[], SimTime::new(1.0)).is_empty());
        assert_eq!(queue.rounds(), 0);
        assert_eq!(w.coordinator.counters().snapshot().batches_planned, 0);
    }

    #[test]
    fn qos_floor_and_deadline_apply_in_batches() {
        let w = world(100.0);
        let queue = AdmissionQueue::new(
            &w.coordinator,
            AdmissionConfig {
                seed: 1,
                ..AdmissionConfig::default()
            },
        );
        let requests = vec![
            SessionRequest::new(w.session.clone()),
            // Floor of 2, but request 0 consumes the 60: a replan could
            // only reach rank 1, so the floor rejects it.
            SessionRequest::new(w.session.clone()).qos_min(2),
            // Already past its deadline: dropped without planning.
            SessionRequest::new(w.session.clone()).deadline(SimTime::new(0.5)),
        ];
        let outcomes = queue.admit(&requests, SimTime::new(1.0));
        assert!(outcomes[0].is_admitted());
        assert!(matches!(
            outcomes[1].error(),
            Some(EstablishError::QosBelowMin {
                achieved: 1,
                min: 2
            })
        ));
        assert!(matches!(
            outcomes[2].error(),
            Some(EstablishError::DeadlineExpired { .. })
        ));
        assert_eq!(available(&w), 40.0);
    }
}
