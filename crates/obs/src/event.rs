//! The trace-event record.
//!
//! One [`TraceEvent`] is one timestamped fact about one session's
//! lifecycle. The record is a *flat* struct — a unit-enum [`EventKind`]
//! plus optional payload fields — rather than a data-carrying enum, so
//! that every event serializes to one self-describing JSON object and
//! any language can consume the JSONL stream with no schema negotiation.
//! Fields that do not apply to a kind are simply `null`.

use serde::{Deserialize, Serialize};

/// What happened. See each variant for which [`TraceEvent`] payload
/// fields it populates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum EventKind {
    /// Preamble: binds [`TraceEvent::resource`] to a human-readable
    /// [`TraceEvent::name`]. Emitted once per resource at trace start by
    /// whoever owns the resource space (e.g. the simulator).
    ResourceName,
    /// Phase 2 of the establishment protocol began for a new session
    /// attempt. Payload: `service`.
    PlanStarted,
    /// The planner scored one candidate `(Q^in, Q^out)` translation pair.
    /// Payload: `component`, `qin`, `qout`, `feasible`, `psi` (the
    /// contention index ψ when feasible; the limiting `req/avail`
    /// overshoot ratio when not), `resource`/`alpha` (the pair's most
    /// stressed resource).
    CandidateEvaluated,
    /// Planning produced an end-to-end plan. Payload: `service`, `level`
    /// (the achieved rank), `psi` (bottleneck Ψ), `resource`/`alpha`
    /// (the bottleneck resource).
    PlanCompleted,
    /// Planning failed — no feasible end-to-end plan. Payload: `service`,
    /// `detail` (the error), and when identifiable `resource`/`psi` (the
    /// nearest-miss blocking resource and its overshoot ratio).
    PlanRejected,
    /// One hop (component) of the committed plan, with its per-hop ψ.
    /// Payload: `component`, `qin`, `qout`, `psi`, `resource`.
    HopSelected,
    /// The α-tradeoff policy (§4.3.1) stepped the session down from the
    /// best reachable level. Payload: `level` (the rank settled for),
    /// `detail` (the rank given up).
    TradeoffDowngrade,
    /// Phase 3 dispatched and every broker accepted: the session is
    /// established. Payload: `session`, `service`, `level`, `psi`,
    /// `resource`/`alpha` (plan bottleneck).
    ReservationCommitted,
    /// A broker rejected its segment during dispatch; the whole plan was
    /// rolled back. Payload: `session`, `resource` (the rejecting
    /// broker), `detail`.
    ReservationRejected,
    /// A live session renegotiated to a strictly better plan. Payload:
    /// `session`, `level` (new rank), `psi`.
    SessionUpgraded,
    /// A session terminated and released all its reservations. Payload:
    /// `session`, `detail` (total amount released).
    SessionReleased,
    /// An advance-booking window could not be reserved atomically and
    /// was rolled back. Payload: `session`, `resource`, `detail`.
    AdvanceConflict,
    /// An advance request was booked: a rigid window committed across
    /// its brokers, or a malleable bulk transfer got a rate profile.
    /// Payload: `session`, `value` (booked volume), `psi` (the profile's
    /// contention index), `detail` (the `[start, end)` window), and for
    /// malleable requests `resource`.
    AdvanceBooked,
    /// A rigid advance request displaced malleable bookings: the
    /// victims were cancelled, the rigid window committed, and every
    /// victim was replanned around it (all-or-nothing). Payload:
    /// `session` (the rigid winner), `value` (its booked volume), `psi`,
    /// `detail` (how many malleable sessions moved).
    AdvanceRepacked,
    /// An advance request was rejected — no feasible window/profile, and
    /// (if preemption was allowed) repacking could not make room.
    /// Payload: `session`, `detail` (the error), `value` (the nearest
    /// feasible deadline for malleable requests, when one exists).
    AdvanceRejected,
    /// A fault fired: a host crashed, a protocol message was dropped, or
    /// a commit was made to fail. Payload: `name` (the affected host),
    /// `detail` (what kind of fault).
    FaultInjected,
    /// A crashed host came back up and re-admitted its capacity.
    /// Payload: `name` (the host).
    HostRecovered,
    /// An establishment attempt failed transiently and a retry was
    /// scheduled (bounded, with exponential backoff). Payload: `service`,
    /// `detail` (cause, attempt number, backoff delay).
    EstablishRetry,
    /// Partially reserved hops of a plan were rolled back after a later
    /// hop failed (two-phase reserve/commit abort). Payload: `session`,
    /// `detail`.
    EstablishRollback,
    /// An establishment committed, but at a lower end-to-end rank than
    /// the first attempt planned — the graceful-degradation path.
    /// Payload: `session`, `level` (the committed rank), `detail` (the
    /// rank first planned).
    DegradedEstablish,
    /// A live session was killed because a host holding part of its
    /// reservation crashed; all its reservations were released. Payload:
    /// `session`, `detail` (total amount released).
    SessionLost,
    /// An establishment exhausted its retry budget on injected faults
    /// and failed. Payload: `service`, `detail`.
    EstablishFaulted,
    /// A batched admission round planned all its requests against one
    /// epoch-stamped availability snapshot. Payload: `level` (batch
    /// size), `detail` (epoch and plan-group count).
    BatchPlanned,
    /// The sequential commit phase of a batched round found that an
    /// earlier commit in the same round consumed a plan's Ψ-critical
    /// resource — the plan no longer fits the round's working view.
    /// Payload: `service`, `resource` (the contended resource), `psi`
    /// (the `req/avail` overshoot ratio), `detail`.
    CommitConflict,
    /// A conflicted request was replanned against the round's working
    /// view (bounded retries) instead of being failed. Payload:
    /// `service`, `detail` (replan attempt number and epoch).
    Replanned,
    /// A delta-aware prepare either repaired the cached relaxation in
    /// place or fell back to a full rebuild. Payload: `service`,
    /// `feasible` (`true` = repaired, `false` = full rebuild), `level`
    /// (resources whose availability moved past the ψ-quantization
    /// threshold), `value` (QRG nodes recomputed by the repair),
    /// `detail` (epoch/attempt context, or the fallback reason).
    DeltaRepair,
    /// One span of a traced request's causal tree (see
    /// [`RequestTrace`](crate::RequestTrace)), emitted depth-first in
    /// causal order when a tracer records with a live sink. Payload:
    /// `trace`, `name` (the span kind: `queue`, `collect`, `plan`,
    /// `replan`, `commit`), `duration_ns`, `value` (start offset from
    /// ingress, ns), and when present `psi`, `resource` (conflict),
    /// `level` (attempt), `detail` (planner).
    RequestSpan,
    /// A traced request completed, closing its span tree. Payload:
    /// `trace`, `name` (the outcome: `committed`, `degraded`,
    /// `rejected`), `duration_ns` (end-to-end latency), and when
    /// admitted `session`, `level` (rank), `psi`; `service` when known.
    RequestOutcome,
    /// One sampled utilization observation from the simulator's
    /// sampling tick. Payload: `name` (the resource or broker label),
    /// `value` (utilization in `[0, 1]`, i.e. `1 - available/capacity`).
    UtilizationSample,
    /// A scenario-DSL rule fired: a timed trigger reached its instant or
    /// a condition trigger crossed its threshold, and the rule's events
    /// were applied to the run. Payload: `name` (the rule's label),
    /// `detail` (the trigger kind and a summary of the applied events),
    /// `value` (the measured quantity for condition triggers — the
    /// utilization or session count that crossed).
    ScenarioTrigger,
}

/// One timestamped trace record. Construct with [`TraceEvent::new`] and
/// the builder-style `with_*` methods:
///
/// ```
/// use qosr_obs::{EventKind, TraceEvent};
/// let ev = TraceEvent::new(12.5, EventKind::ReservationCommitted)
///     .with_session(7)
///     .with_level(3)
///     .with_psi(0.42)
///     .with_resource(2);
/// assert_eq!(ev.kind, EventKind::ReservationCommitted);
/// assert_eq!(ev.session, Some(7));
/// let line = serde_json::to_string(&ev).unwrap();
/// let back: TraceEvent = serde_json::from_str(&line).unwrap();
/// assert_eq!(back, ev);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceEvent {
    /// Event timestamp in simulated time units (TU). Instrumented code
    /// forwards its `SimTime`, so replayed timelines are in sim-time.
    pub time: f64,
    /// What happened.
    pub kind: EventKind,
    /// The session id at the brokers, once one exists.
    #[serde(default)]
    pub session: Option<u64>,
    /// The service spec's name.
    #[serde(default)]
    pub service: Option<String>,
    /// Component index within the service.
    #[serde(default)]
    pub component: Option<u32>,
    /// Input QoS level index of a candidate/hop.
    #[serde(default)]
    pub qin: Option<u32>,
    /// Output QoS level index of a candidate/hop.
    #[serde(default)]
    pub qout: Option<u32>,
    /// Whether the candidate pair fits current availability.
    #[serde(default)]
    pub feasible: Option<bool>,
    /// An end-to-end QoS rank (1-based; higher is better).
    #[serde(default)]
    pub level: Option<u32>,
    /// A contention index ψ (or, for infeasible candidates, the limiting
    /// `req/avail` overshoot ratio, which is then > 1).
    #[serde(default)]
    pub psi: Option<f64>,
    /// The availability-change index α of the event's resource.
    #[serde(default)]
    pub alpha: Option<f64>,
    /// A resource id (`ResourceId.0`, widened). Resolve to a name via
    /// [`EventKind::ResourceName`] preamble events.
    #[serde(default)]
    pub resource: Option<u64>,
    /// A human-readable resource name ([`EventKind::ResourceName`]).
    #[serde(default)]
    pub name: Option<String>,
    /// Free-form context (error text, amounts, ranks given up).
    #[serde(default)]
    pub detail: Option<String>,
    /// A measured wall-clock duration in nanoseconds: a span's
    /// ([`EventKind::RequestSpan`]) or a traced request's end-to-end
    /// latency ([`EventKind::RequestOutcome`]).
    #[serde(default)]
    pub duration_ns: Option<u64>,
    /// A sampled measurement ([`EventKind::UtilizationSample`]).
    #[serde(default)]
    pub value: Option<f64>,
    /// The ingress-minted request trace id ([`EventKind::RequestSpan`],
    /// [`EventKind::RequestOutcome`]).
    #[serde(default)]
    pub trace: Option<u64>,
}

impl TraceEvent {
    /// A bare event of `kind` at `time`, all payload fields empty.
    pub fn new(time: f64, kind: EventKind) -> Self {
        TraceEvent {
            time,
            kind,
            session: None,
            service: None,
            component: None,
            qin: None,
            qout: None,
            feasible: None,
            level: None,
            psi: None,
            alpha: None,
            resource: None,
            name: None,
            detail: None,
            duration_ns: None,
            value: None,
            trace: None,
        }
    }

    /// Sets the session id.
    pub fn with_session(mut self, session: u64) -> Self {
        self.session = Some(session);
        self
    }

    /// Sets the service name.
    pub fn with_service(mut self, service: impl Into<String>) -> Self {
        self.service = Some(service.into());
        self
    }

    /// Sets the `(component, qin, qout)` triple of a candidate or hop.
    pub fn with_pair(mut self, component: u32, qin: u32, qout: u32) -> Self {
        self.component = Some(component);
        self.qin = Some(qin);
        self.qout = Some(qout);
        self
    }

    /// Sets the feasibility flag.
    pub fn with_feasible(mut self, feasible: bool) -> Self {
        self.feasible = Some(feasible);
        self
    }

    /// Sets the QoS rank.
    pub fn with_level(mut self, level: u32) -> Self {
        self.level = Some(level);
        self
    }

    /// Sets the contention index ψ.
    pub fn with_psi(mut self, psi: f64) -> Self {
        self.psi = Some(psi);
        self
    }

    /// Sets the availability-change index α.
    pub fn with_alpha(mut self, alpha: f64) -> Self {
        self.alpha = Some(alpha);
        self
    }

    /// Sets the resource id.
    pub fn with_resource(mut self, resource: u64) -> Self {
        self.resource = Some(resource);
        self
    }

    /// Sets the resource name.
    pub fn with_name(mut self, name: impl Into<String>) -> Self {
        self.name = Some(name.into());
        self
    }

    /// Sets the free-form detail text.
    pub fn with_detail(mut self, detail: impl Into<String>) -> Self {
        self.detail = Some(detail.into());
        self
    }

    /// Sets the measured duration in nanoseconds.
    pub fn with_duration_ns(mut self, duration_ns: u64) -> Self {
        self.duration_ns = Some(duration_ns);
        self
    }

    /// Sets the sampled measurement value.
    pub fn with_value(mut self, value: f64) -> Self {
        self.value = Some(value);
        self
    }

    /// Sets the request trace id.
    pub fn with_trace(mut self, trace: u64) -> Self {
        self.trace = Some(trace);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_sets_payload_fields() {
        let ev = TraceEvent::new(1.0, EventKind::CandidateEvaluated)
            .with_pair(2, 0, 1)
            .with_feasible(false)
            .with_psi(1.5)
            .with_resource(9)
            .with_alpha(0.8)
            .with_detail("x");
        assert_eq!(ev.component, Some(2));
        assert_eq!(ev.qin, Some(0));
        assert_eq!(ev.qout, Some(1));
        assert_eq!(ev.feasible, Some(false));
        assert_eq!(ev.psi, Some(1.5));
        assert_eq!(ev.resource, Some(9));
        assert_eq!(ev.alpha, Some(0.8));
        assert_eq!(ev.detail.as_deref(), Some("x"));
    }

    #[test]
    fn serde_roundtrip_preserves_every_field() {
        let ev = TraceEvent::new(3.25, EventKind::PlanCompleted)
            .with_service("svc")
            .with_level(3)
            .with_psi(0.24)
            .with_resource(4)
            .with_alpha(1.0);
        let json = serde_json::to_string(&ev).unwrap();
        let back: TraceEvent = serde_json::from_str(&json).unwrap();
        assert_eq!(back, ev);
    }

    #[test]
    fn telemetry_fields_round_trip() {
        let ev = TraceEvent::new(2.0, EventKind::RequestSpan)
            .with_trace(7)
            .with_name("plan")
            .with_duration_ns(12_345);
        let back: TraceEvent = serde_json::from_str(&serde_json::to_string(&ev).unwrap()).unwrap();
        assert_eq!(back.duration_ns, Some(12_345));
        assert_eq!(back.trace, Some(7));
        let ev = TraceEvent::new(3.0, EventKind::UtilizationSample)
            .with_name("h0.cpu")
            .with_value(0.75);
        let back: TraceEvent = serde_json::from_str(&serde_json::to_string(&ev).unwrap()).unwrap();
        assert_eq!(back.value, Some(0.75));
    }

    #[test]
    fn missing_optional_fields_deserialize_as_none() {
        let json = r#"{"time": 1.0, "kind": "SessionReleased", "session": 4}"#;
        let ev: TraceEvent = serde_json::from_str(json).unwrap();
        assert_eq!(ev.kind, EventKind::SessionReleased);
        assert_eq!(ev.session, Some(4));
        assert_eq!(ev.psi, None);
        assert_eq!(ev.service, None);
    }
}
