//! The session-request builder and structured establishment outcomes.
//!
//! This is the client-facing admission API: a [`SessionRequest`] bundles
//! the session instance with everything the coordinator needs to admit
//! it — planning options, an optional QoS floor, an optional admission
//! deadline — and [`Coordinator::establish_request`] returns a
//! structured [`EstablishOutcome`] instead of an ad-hoc result tuple:
//!
//! ```no_run
//! # use qosr_broker::*;
//! # use rand::rngs::StdRng;
//! # use rand::SeedableRng;
//! # fn demo(coordinator: &Coordinator, session: qosr_model::SessionInstance) {
//! let mut rng = StdRng::seed_from_u64(7);
//! let request = SessionRequest::new(session)
//!     .qos_min(1)
//!     .deadline(SimTime::new(30.0))
//!     .alpha_policy(AlphaPolicy::Tradeoff);
//! match coordinator.establish_request(&request, SimTime::new(1.0), &mut rng) {
//!     EstablishOutcome::Committed(est) => println!("rank {}", est.plan.rank),
//!     EstablishOutcome::Degraded { session, from, to } => {
//!         println!("degraded {from} → {to} ({})", session.id.0)
//!     }
//!     EstablishOutcome::Rejected { error, nearest_miss } => {
//!         println!("rejected: {error} (nearest miss: {nearest_miss:?})")
//!     }
//! }
//! # }
//! ```
//!
//! The same request type feeds the batched
//! [`AdmissionQueue`](crate::AdmissionQueue), so single-session and
//! batched admission share one vocabulary.

use crate::SimTime;
use crate::{EstablishError, EstablishOptions, EstablishedSession, ObservationPolicy, RetryPolicy};
use qosr_core::{Planner, QrgOptions};
use qosr_model::{ResourceId, SessionInstance};
use qosr_obs::{RequestTrace, SpanKind, SpanRecord, TraceId};

/// The request-scoped tracing context riding a [`SessionRequest`]: the
/// ingress-minted id plus the ingress instant, from which every span
/// offset and the end-to-end latency are measured.
#[derive(Debug, Clone, Copy)]
pub(crate) struct TraceCtx {
    /// The ingress-minted trace id.
    pub(crate) id: TraceId,
    /// When the request entered the system (wire read / CLI mint). The
    /// gap between this and the first measured phase becomes the
    /// `queue` span.
    pub(crate) arrived: std::time::Instant,
}

/// How the request wants the availability-change index α (§4.3.1) used
/// during planning.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AlphaPolicy {
    /// Plan purely on current availability, ignoring trends (the basic
    /// algorithm).
    #[default]
    Ignore,
    /// Trade end-to-end QoS for success rate: step around resources
    /// whose availability is trending down (α < 1), per §4.3.1.
    Tradeoff,
}

/// One session-admission request: the instance to admit plus the
/// planning options and QoS constraints to admit it under.
///
/// Build with [`SessionRequest::new`] and the chained setters; defaults
/// match [`EstablishOptions::default`] with no QoS floor and no
/// deadline, so a bare `SessionRequest::new(session)` passed to
/// `Coordinator::establish_request` admits under the basic planner with
/// accurate observations and no retries.
#[derive(Debug, Clone)]
pub struct SessionRequest {
    pub(crate) session: SessionInstance,
    pub(crate) options: EstablishOptions,
    pub(crate) qos_min: Option<u32>,
    pub(crate) deadline: Option<SimTime>,
    pub(crate) trace: Option<TraceCtx>,
}

impl SessionRequest {
    /// A request for `session` under default options: basic planner,
    /// accurate observation, no retries, no QoS floor, no deadline.
    pub fn new(session: SessionInstance) -> Self {
        SessionRequest {
            session,
            options: EstablishOptions::default(),
            qos_min: None,
            deadline: None,
            trace: None,
        }
    }

    /// Marks the request as traced under `id`, capturing *now* as its
    /// ingress instant: the coordinator (or batched admission queue)
    /// will assemble a causal [`qosr_obs::RequestTrace`] attributing the
    /// request's end-to-end latency span by span, provided the
    /// coordinator's [`qosr_obs::Tracer`] is enabled. Queue wait is
    /// charged from this call on; `qosr serve` makes it when a round
    /// resolves its frames, after the socket read and the gather window
    /// (see [`qosr_obs::SpanKind::Queue`]).
    pub fn traced(mut self, id: TraceId) -> Self {
        self.trace = Some(TraceCtx {
            id,
            arrived: std::time::Instant::now(),
        });
        self
    }

    /// Requires the committed end-to-end QoS rank to be at least `min`
    /// (1-based). A plan below the floor is rejected with
    /// [`EstablishError::QosBelowMin`] *before* anything is reserved.
    pub fn qos_min(mut self, min: u32) -> Self {
        self.qos_min = Some(min);
        self
    }

    /// Drops the request with [`EstablishError::DeadlineExpired`] if
    /// admission is attempted after `deadline` — the knob batched
    /// clients use to bound queueing delay.
    pub fn deadline(mut self, deadline: SimTime) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Selects how the α availability-change index is used:
    /// [`AlphaPolicy::Tradeoff`] plans with the α-tradeoff policy,
    /// [`AlphaPolicy::Ignore`] with the basic algorithm.
    pub fn alpha_policy(mut self, policy: AlphaPolicy) -> Self {
        self.options.planner = match policy {
            AlphaPolicy::Ignore => Planner::Basic,
            AlphaPolicy::Tradeoff => Planner::Tradeoff,
        };
        self
    }

    /// Sets the planning algorithm directly (finer-grained than
    /// [`SessionRequest::alpha_policy`]).
    pub fn planner(mut self, planner: Planner) -> Self {
        self.options.planner = planner;
        self
    }

    /// Sets the observation accuracy model for phase 1 of
    /// [`Coordinator::establish_request`](crate::Coordinator::establish_request).
    /// An [`AdmissionQueue`](crate::AdmissionQueue) round ignores it: the
    /// round observes once, under
    /// [`AdmissionConfig::observation`](crate::AdmissionConfig::observation).
    pub fn observation(mut self, observation: ObservationPolicy) -> Self {
        self.options.observation = observation;
        self
    }

    /// Sets QRG construction options (ψ definition, tie-break ablation).
    pub fn qrg(mut self, qrg: QrgOptions) -> Self {
        self.options.qrg = qrg;
        self
    }

    /// Sets the bounded retry/backoff policy
    /// [`Coordinator::establish_request`](crate::Coordinator::establish_request)
    /// applies to a failed attempt. An
    /// [`AdmissionQueue`](crate::AdmissionQueue) round retries nothing and
    /// honours only [`RetryPolicy::tradeoff_fallback`], as the planner its
    /// conflict replans use; its replan budget is
    /// [`AdmissionConfig::max_replans`](crate::AdmissionConfig::max_replans).
    pub fn retry(mut self, retry: RetryPolicy) -> Self {
        self.options.retry = retry;
        self
    }

    /// Replaces the full option block at once (for callers that already
    /// hold an [`EstablishOptions`]).
    pub fn options(mut self, options: EstablishOptions) -> Self {
        self.options = options;
        self
    }

    /// The session instance this request admits.
    pub fn session(&self) -> &SessionInstance {
        &self.session
    }

    /// The establishment options in force for this request.
    pub fn establish_options(&self) -> &EstablishOptions {
        &self.options
    }

    /// The QoS floor, if any.
    pub fn min_rank(&self) -> Option<u32> {
        self.qos_min
    }

    /// The admission deadline, if any.
    pub fn due(&self) -> Option<SimTime> {
        self.deadline
    }

    /// The trace id, when the request is traced.
    pub fn trace_id(&self) -> Option<TraceId> {
        self.trace.map(|t| t.id)
    }

    /// Consumes the request, yielding the session instance back (useful
    /// after admission, when the caller keeps the instance for
    /// renegotiation or termination bookkeeping).
    pub fn into_session(self) -> SessionInstance {
        self.session
    }

    /// Consumes the request, yielding the session instance and the
    /// options — for callers (e.g. the serve front-end's lease table)
    /// that need to keep both without cloning them.
    pub fn into_parts(self) -> (SessionInstance, EstablishOptions) {
        (self.session, self.options)
    }
}

/// The stable lowercase label of a planner, for span annotations.
pub(crate) fn planner_label(planner: Planner) -> &'static str {
    match planner {
        Planner::Basic => "basic",
        Planner::Tradeoff => "tradeoff",
        Planner::Random => "random",
        Planner::Dag => "dag",
    }
}

/// Accumulates the measured [`SpanRecord`]s of one traced request while
/// it moves through the pipeline, then assembles the final
/// [`RequestTrace`]. Only constructed when the coordinator's tracer is
/// enabled *and* the request carries a [`TraceCtx`] — untraced requests
/// never reach this type.
pub(crate) struct SpanCollector {
    pub(crate) id: TraceId,
    origin: std::time::Instant,
    spans: Vec<SpanRecord>,
    /// Where the last recorded span closed (or the last
    /// [`SpanCollector::start_lap`]): the start of a phase that follows
    /// straight on from it.
    lap: std::time::Instant,
    pub(crate) retries: u32,
    pub(crate) conflicts: u32,
}

impl SpanCollector {
    pub(crate) fn new(ctx: TraceCtx) -> Self {
        SpanCollector {
            id: ctx.id,
            origin: ctx.arrived,
            spans: Vec::new(),
            lap: ctx.arrived,
            retries: 0,
            conflicts: 0,
        }
    }

    /// Nanosecond offset of `at` from the request's ingress (saturating
    /// to zero for instants captured before ingress).
    pub(crate) fn offset_ns(&self, at: std::time::Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Closes a span of `kind` opened at `started` (duration runs to
    /// *now*, one clock read) and returns it for annotation.
    pub(crate) fn record(
        &mut self,
        kind: SpanKind,
        started: std::time::Instant,
    ) -> &mut SpanRecord {
        let now = std::time::Instant::now();
        let span = SpanRecord::new(
            kind,
            self.offset_ns(started),
            now.saturating_duration_since(started).as_nanos() as u64,
        );
        self.lap = now;
        self.spans.push(span);
        self.spans.last_mut().expect("span just pushed")
    }

    /// [`SpanCollector::record`] for a phase that opened where the last
    /// recorded span closed (or at the last [`SpanCollector::start_lap`]),
    /// so the boundary between them costs one clock read.
    pub(crate) fn record_lap(&mut self, kind: SpanKind) -> &mut SpanRecord {
        self.record(kind, self.lap)
    }

    /// Marks *now* as the start of the next [`SpanCollector::record_lap`]
    /// span, for a phase that does not follow straight on from the last
    /// recorded one.
    pub(crate) fn start_lap(&mut self) {
        self.lap = std::time::Instant::now();
    }

    /// Appends an externally measured span (a batched round's shared
    /// collect span and each request's plan span, timed before the
    /// request's collector exists).
    pub(crate) fn push(&mut self, span: SpanRecord) {
        self.spans.push(span);
    }

    /// Assembles the final trace. The end-to-end total runs from ingress
    /// to *now*; the unmeasured residual (whatever the caller did
    /// between its ingress stamp and the phases, scheduling, waiting on
    /// other requests of a round) becomes a leading [`SpanKind::Queue`]
    /// span, so the root spans' durations sum *exactly* to `total_ns`.
    pub(crate) fn finish(self, outcome: &EstablishOutcome, service: &str) -> RequestTrace {
        let (label, session, rank, psi) = match outcome {
            EstablishOutcome::Committed(est) => (
                qosr_obs::trace::OUTCOME_COMMITTED,
                Some(est.id.0),
                Some(est.plan.rank),
                Some(est.plan.psi),
            ),
            EstablishOutcome::Degraded { session: est, .. } => (
                qosr_obs::trace::OUTCOME_DEGRADED,
                Some(est.id.0),
                Some(est.plan.rank),
                Some(est.plan.psi),
            ),
            EstablishOutcome::Rejected { .. } => {
                (qosr_obs::trace::OUTCOME_REJECTED, None, None, None)
            }
        };
        self.finish_with(label, session, rank, psi, service)
    }

    /// [`SpanCollector::finish`] for callers whose outcome is not an
    /// [`EstablishOutcome`] (the advance-reservation path): same
    /// queue-residual assembly, caller-supplied outcome fields.
    pub(crate) fn finish_with(
        mut self,
        outcome: &str,
        session: Option<u64>,
        rank: Option<u32>,
        psi: Option<f64>,
        service: &str,
    ) -> RequestTrace {
        let measured: u64 = self.spans.iter().map(|s| s.duration_ns).sum();
        let total_ns = (self.origin.elapsed().as_nanos() as u64).max(measured);
        let mut spans = vec![SpanRecord::new(SpanKind::Queue, 0, total_ns - measured)];
        spans.append(&mut self.spans);
        RequestTrace {
            trace: self.id.value(),
            service: Some(service.to_string()),
            outcome: outcome.to_string(),
            session,
            rank,
            psi,
            conflicts: self.conflicts,
            retries: self.retries,
            total_ns,
            spans,
        }
    }
}

/// The blocking resource of a failed plan: the infeasible candidate
/// closest to fitting, with its `req/avail` overshoot ratio (> 1).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NearestMiss {
    /// The most-overshooting resource of the nearest-to-feasible
    /// candidate.
    pub resource: ResourceId,
    /// Its `req/avail` overshoot ratio (> 1; 1.2 means 20% short).
    pub ratio: f64,
}

/// The structured result of one admission:
/// [`Coordinator::establish_request`](crate::Coordinator::establish_request) and the batched
/// [`AdmissionQueue`](crate::AdmissionQueue) both return it.
#[derive(Debug, Clone)]
pub enum EstablishOutcome {
    /// The session committed at the rank its first plan asked for.
    Committed(EstablishedSession),
    /// The session committed, but at a lower end-to-end rank than first
    /// planned — the graceful-degradation path (retry fallback, or a
    /// batched replan after a same-round conflict).
    Degraded {
        /// The committed session.
        session: EstablishedSession,
        /// The rank the first plan achieved.
        from: u32,
        /// The rank actually committed.
        to: u32,
    },
    /// The session was not admitted; nothing is left reserved.
    Rejected {
        /// Why admission failed.
        error: EstablishError,
        /// When planning failed outright: the blocking resource closest
        /// to fitting, naming what extra capacity would have admitted
        /// the session.
        nearest_miss: Option<NearestMiss>,
    },
}

impl EstablishOutcome {
    /// `true` for [`EstablishOutcome::Committed`] and
    /// [`EstablishOutcome::Degraded`] — the session holds reservations.
    pub fn is_admitted(&self) -> bool {
        !matches!(self, EstablishOutcome::Rejected { .. })
    }

    /// The established session, if admitted.
    pub fn session(&self) -> Option<&EstablishedSession> {
        match self {
            EstablishOutcome::Committed(est) | EstablishOutcome::Degraded { session: est, .. } => {
                Some(est)
            }
            EstablishOutcome::Rejected { .. } => None,
        }
    }

    /// Consumes the outcome, yielding the established session if
    /// admitted.
    pub fn into_session(self) -> Option<EstablishedSession> {
        match self {
            EstablishOutcome::Committed(est) | EstablishOutcome::Degraded { session: est, .. } => {
                Some(est)
            }
            EstablishOutcome::Rejected { .. } => None,
        }
    }

    /// The rejection error, if not admitted.
    pub fn error(&self) -> Option<&EstablishError> {
        match self {
            EstablishOutcome::Rejected { error, .. } => Some(error),
            _ => None,
        }
    }

    /// Collapses to the classic `Result` shape (degraded commits are
    /// `Ok`), for call sites that only branch on admitted-or-not.
    pub fn into_result(self) -> Result<EstablishedSession, EstablishError> {
        match self {
            EstablishOutcome::Committed(est) | EstablishOutcome::Degraded { session: est, .. } => {
                Ok(est)
            }
            EstablishOutcome::Rejected { error, .. } => Err(error),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qosr_core::ReservationPlan;
    use qosr_model::*;
    use std::sync::Arc;

    fn instance() -> SessionInstance {
        let schema = QosSchema::new("q", ["x"]);
        let v = |x: u32| QosVector::new(schema.clone(), [x]);
        let comp = ComponentSpec::new(
            "c",
            vec![v(0)],
            vec![v(1)],
            vec![SlotSpec::new("cpu", ResourceKind::Compute)],
            Arc::new(
                TableTranslation::builder(1, 1, 1)
                    .entry(0, 0, [10.0])
                    .build(),
            ),
        );
        let service = Arc::new(ServiceSpec::chain("svc", vec![comp], vec![1]).unwrap());
        SessionInstance::new(service, vec![ComponentBinding::new([ResourceId(0)])], 1.0).unwrap()
    }

    #[test]
    fn builder_chains_constraints_and_options() {
        let req = SessionRequest::new(instance())
            .qos_min(2)
            .deadline(SimTime::new(12.0))
            .alpha_policy(AlphaPolicy::Tradeoff)
            .retry(crate::RetryPolicy {
                max_retries: 2,
                ..Default::default()
            });
        assert_eq!(req.min_rank(), Some(2));
        assert_eq!(req.due(), Some(SimTime::new(12.0)));
        assert!(matches!(req.establish_options().planner, Planner::Tradeoff));
        assert_eq!(req.establish_options().retry.max_retries, 2);
        let req = req.alpha_policy(AlphaPolicy::Ignore);
        assert!(matches!(req.establish_options().planner, Planner::Basic));
        assert_eq!(req.into_session().service().name(), "svc");
    }

    #[test]
    fn outcome_helpers_classify_variants() {
        let schema = QosSchema::new("q", ["x"]);
        let est = EstablishedSession {
            id: crate::SessionId(4),
            plan: ReservationPlan {
                assignments: vec![],
                sink_level: 0,
                rank: 1,
                end_to_end: QosVector::new(schema, [1]),
                psi: 0.5,
                bottleneck: None,
            },
        };
        let committed = EstablishOutcome::Committed(est.clone());
        assert!(committed.is_admitted());
        assert_eq!(committed.session().unwrap().id.0, 4);
        assert!(committed.into_result().is_ok());

        let degraded = EstablishOutcome::Degraded {
            session: est,
            from: 2,
            to: 1,
        };
        assert!(degraded.is_admitted());
        assert!(degraded.error().is_none());
        assert_eq!(degraded.into_session().unwrap().plan.rank, 1);

        let rejected = EstablishOutcome::Rejected {
            error: EstablishError::QosBelowMin {
                achieved: 1,
                min: 3,
            },
            nearest_miss: Some(NearestMiss {
                resource: ResourceId(2),
                ratio: 1.25,
            }),
        };
        assert!(!rejected.is_admitted());
        assert!(rejected.session().is_none());
        assert!(matches!(
            rejected.error(),
            Some(EstablishError::QosBelowMin { .. })
        ));
        assert!(rejected.into_result().is_err());
    }
}
