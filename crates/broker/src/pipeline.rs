//! The per-request half of the establishment protocol (§4.2), shared by
//! both drivers: [`Coordinator::establish_request`] runs it once per
//! attempt, and an [`AdmissionQueue`](crate::AdmissionQueue) round once
//! per request against its epoch snapshot.
//!
//! A [`Pipeline`] is one request at one instant. It owns every step
//! whose outcome, counters and trace events must not depend on which
//! driver runs it:
//!
//! 1. [`Pipeline::start`]: the attempt counters,
//!    [`EventKind::PlanStarted`] and the admission-deadline gate;
//! 2. [`Pipeline::plan`]: Pass II on an already-prepared [`PlanCtx`],
//!    the QoS floor and the planning events;
//! 3. [`Pipeline::commit`]: the two-phase dispatch of a plan under a
//!    fresh session id;
//! 4. [`Pipeline::classify`] and [`Pipeline::reject`]: the outcome, its
//!    counter and its terminal event;
//! 5. [`Pipeline::fallback_planner`]: the basic → tradeoff fallback for
//!    a second try.
//!
//! What differs stays with the drivers, on purpose (DESIGN.md, "One
//! request pipeline, two drivers"): how availability is observed and a
//! context prepared, which RNG plans, and what a failure leads to — a
//! fresh collect under the request's [`RetryPolicy`](crate::RetryPolicy)
//! for a sequential establish, a replan against the round's working view
//! for a round.

use crate::request::{EstablishOutcome, NearestMiss, SessionRequest, SpanCollector};
use crate::{Coordinator, EstablishError, EstablishedSession, SessionId, SimTime};
use qosr_core::{PlanCtx, Planner, ReservationPlan};
use qosr_model::ResourceVector;
use qosr_obs::{EventKind, SpanKind, TraceEvent};
use rand::Rng;

/// Why a request, or one try of it, was not admitted. The terminal
/// trace event is built from it only once the failure is final
/// ([`Pipeline::reject`]).
pub(crate) struct Rejection {
    pub(crate) error: EstablishError,
    /// The planner's nearest miss, or the contended resource of a
    /// conflict the round could not replan.
    pub(crate) nearest: Option<NearestMiss>,
    /// The session id a failed dispatch ran under.
    pub(crate) session: Option<SessionId>,
}

impl From<EstablishError> for Rejection {
    fn from(error: EstablishError) -> Self {
        Rejection {
            error,
            nearest: None,
            session: None,
        }
    }
}

/// One request at one instant, as both drivers see it.
pub(crate) struct Pipeline<'a> {
    coordinator: &'a Coordinator,
    pub(crate) request: &'a SessionRequest,
    pub(crate) now: SimTime,
    /// Whether the coordinator's sink is live; events are built only
    /// then.
    pub(crate) traced: bool,
}

impl<'a> Pipeline<'a> {
    pub(crate) fn new(
        coordinator: &'a Coordinator,
        request: &'a SessionRequest,
        now: SimTime,
    ) -> Self {
        Pipeline {
            coordinator,
            request,
            now,
            traced: coordinator.sink().enabled(),
        }
    }

    /// An event of `kind` stamped with this request's instant and
    /// service.
    pub(crate) fn event(&self, kind: EventKind) -> TraceEvent {
        TraceEvent::new(self.now.value(), kind).with_service(self.request.session.service().name())
    }

    pub(crate) fn emit(&self, event: &TraceEvent) {
        self.coordinator.sink().emit(event);
    }

    /// Emits and clears buffered events.
    pub(crate) fn flush(&self, events: &mut Vec<TraceEvent>) {
        for event in events.drain(..) {
            self.emit(&event);
        }
    }

    /// Counts the establishment attempt, buffers its
    /// [`EventKind::PlanStarted`], and drops a request already past its
    /// deadline before anything is observed or planned.
    pub(crate) fn start(&self, events: &mut Vec<TraceEvent>) -> Result<(), Rejection> {
        let counters = self.coordinator.counters();
        counters.record_establish_attempt();
        counters.record_plan_started();
        if self.traced {
            events.push(self.event(EventKind::PlanStarted));
        }
        let t = self.now.value();
        match self.request.deadline {
            Some(due) if t > due.value() => Err(EstablishError::DeadlineExpired {
                deadline: due.value(),
                now: t,
            }
            .into()),
            _ => Ok(()),
        }
    }

    /// Pass II on a context the driver prepared for this request, then
    /// the request's QoS floor: the best feasible plan either clears it
    /// or the request is rejected with nothing reserved.
    ///
    /// With `events`, the plan is the try's first and is announced:
    /// every candidate, any tradeoff downgrade and, on success,
    /// [`EventKind::PlanCompleted`] plus one [`EventKind::HopSelected`]
    /// per hop are buffered there, and the downgrade and the completion
    /// are counted. Without, the plan is a round's replan and only its
    /// rejection is reported.
    pub(crate) fn plan(
        &self,
        ctx: &mut PlanCtx,
        planner: Planner,
        rng: &mut impl Rng,
        mut events: Option<&mut Vec<TraceEvent>>,
    ) -> Result<ReservationPlan, Rejection> {
        let result = ctx.plan(planner, rng);
        let t = self.now.value();
        if let Some(events) = events.as_deref_mut() {
            if self.traced {
                for c in ctx.candidates() {
                    let mut ev = TraceEvent::new(t, EventKind::CandidateEvaluated)
                        .with_pair(c.component, c.qin, c.qout)
                        .with_feasible(c.feasible)
                        .with_psi(c.psi);
                    if let Some(rid) = c.resource {
                        ev = ev.with_resource(u64::from(rid.0));
                    }
                    if let Some(alpha) = c.alpha {
                        ev = ev.with_alpha(alpha);
                    }
                    events.push(ev);
                }
            }
            if let Some((from, to)) = ctx.last_downgrade() {
                self.coordinator.counters().record_tradeoff_downgrade();
                if self.traced {
                    events.push(
                        self.event(EventKind::TradeoffDowngrade)
                            .with_level(to)
                            .with_detail(format!("stepped down from rank {from}")),
                    );
                }
            }
        }
        let plan = match result {
            Ok(plan) => plan,
            Err(e) => {
                return Err(Rejection {
                    error: e.into(),
                    nearest: ctx
                        .nearest_miss()
                        .map(|(resource, ratio)| NearestMiss { resource, ratio }),
                    session: None,
                })
            }
        };
        if let Some(min) = self.request.qos_min {
            if plan.rank < min {
                return Err(EstablishError::QosBelowMin {
                    achieved: plan.rank,
                    min,
                }
                .into());
            }
        }
        if let Some(events) = events {
            self.coordinator.counters().record_plan_completed();
            if self.traced {
                events.push(with_plan(self.event(EventKind::PlanCompleted), &plan));
                for a in &plan.assignments {
                    let mut ev = TraceEvent::new(t, EventKind::HopSelected).with_pair(
                        a.component as u32,
                        a.qin as u32,
                        a.qout as u32,
                    );
                    if let Some(c) = ctx.candidate(a.component, a.qin, a.qout) {
                        ev = ev.with_psi(c.psi);
                        if let Some(rid) = c.resource {
                            ev = ev.with_resource(u64::from(rid.0));
                        }
                    }
                    events.push(ev);
                }
            }
        }
        Ok(plan)
    }

    /// Phase 3: the two-phase reserve/commit of `demand` (the plan's
    /// total demand) under a fresh session id, all-or-nothing with
    /// exactly-once rollback. On success the establishment is counted
    /// and [`EventKind::ReservationCommitted`] emitted. `attempt` (0 for
    /// the first try) annotates the request's commit span, which opens
    /// at the collector's lap and also covers any rollback.
    pub(crate) fn commit(
        &self,
        plan: ReservationPlan,
        demand: &ResourceVector,
        attempt: u32,
        collector: Option<&mut SpanCollector>,
    ) -> Result<EstablishedSession, Rejection> {
        let coordinator = self.coordinator;
        let id = coordinator.alloc_session_id();
        let dispatched = coordinator.dispatch(id, demand, self.now, self.traced, true);
        if let Some(c) = collector {
            let span = c.record_lap(SpanKind::Commit);
            if attempt > 0 {
                span.attempt = Some(attempt);
            }
            if dispatched.is_err() {
                span.detail = Some("rolled back".to_string());
            }
        }
        if let Err(error) = dispatched {
            return Err(Rejection {
                error,
                nearest: None,
                session: Some(id),
            });
        }
        coordinator.counters().record_establishment();
        coordinator.counters().record_commit(plan.psi);
        if self.traced {
            self.emit(&with_plan(
                self.event(EventKind::ReservationCommitted)
                    .with_session(id.0),
                &plan,
            ));
        }
        Ok(EstablishedSession { id, plan })
    }

    /// Classifies a committed session against the rank its request was
    /// first planned at: [`EstablishOutcome::Degraded`], counted and
    /// traced as [`EventKind::DegradedEstablish`], when it committed
    /// lower.
    pub(crate) fn classify(&self, est: EstablishedSession, first: u32) -> EstablishOutcome {
        if est.plan.rank >= first {
            return EstablishOutcome::Committed(est);
        }
        self.coordinator.counters().record_degraded_commit();
        if self.traced {
            self.emit(
                &self
                    .event(EventKind::DegradedEstablish)
                    .with_session(est.id.0)
                    .with_level(est.plan.rank)
                    .with_detail(format!("first plan had rank {first}")),
            );
        }
        EstablishOutcome::Degraded {
            from: first,
            to: est.plan.rank,
            session: est,
        }
    }

    /// Rejects the request for good: counts the failure by kind and
    /// emits its terminal event — [`EventKind::PlanRejected`] for a
    /// planning, floor or deadline failure (naming the nearest miss),
    /// [`EventKind::ReservationRejected`] for a broker rejection,
    /// [`EventKind::EstablishFaulted`] for an injected fault.
    pub(crate) fn reject(&self, rejection: Rejection) -> EstablishOutcome {
        let counters = self.coordinator.counters();
        match &rejection.error {
            EstablishError::Plan(_)
            | EstablishError::QosBelowMin { .. }
            | EstablishError::DeadlineExpired { .. } => counters.record_plan_rejected(),
            EstablishError::Reserve(_) => counters.record_reservation_rejected(),
            EstablishError::Fault(_) => counters.record_fault_failure(),
        }
        if self.traced {
            let mut ev = match &rejection.error {
                EstablishError::Reserve(e) => self
                    .event(EventKind::ReservationRejected)
                    .with_resource(u64::from(e.resource().0))
                    .with_detail(e.to_string()),
                EstablishError::Fault(e) => self
                    .event(EventKind::EstablishFaulted)
                    .with_name(e.host())
                    .with_detail(e.to_string()),
                error => {
                    let mut ev = self
                        .event(EventKind::PlanRejected)
                        .with_detail(error.to_string());
                    if let EstablishError::QosBelowMin { achieved, .. } = error {
                        ev = ev.with_level(*achieved);
                    }
                    if let Some(miss) = rejection.nearest {
                        ev = ev
                            .with_resource(u64::from(miss.resource.0))
                            .with_psi(miss.ratio);
                    }
                    ev
                }
            };
            if let Some(id) = rejection.session {
                ev = ev.with_session(id.0);
            }
            self.emit(&ev);
        }
        EstablishOutcome::Rejected {
            error: rejection.error,
            nearest_miss: rejection.nearest,
        }
    }

    /// The planner a second try uses: with
    /// [`RetryPolicy::tradeoff_fallback`](crate::RetryPolicy::tradeoff_fallback),
    /// the α-tradeoff policy in place of the basic algorithm, so
    /// resources trending down (α < 1 — typical right after a crash or a
    /// same-round commit) are stepped around and the request degrades
    /// to a feasible level instead of repeating the plan that failed.
    pub(crate) fn fallback_planner(&self) -> Planner {
        let options = &self.request.options;
        if options.retry.tradeoff_fallback && matches!(options.planner, Planner::Basic) {
            Planner::Tradeoff
        } else {
            options.planner
        }
    }
}

/// `ev` carrying `plan`'s rank, Ψ and bottleneck resource.
fn with_plan(ev: TraceEvent, plan: &ReservationPlan) -> TraceEvent {
    let ev = ev.with_level(plan.rank).with_psi(plan.psi);
    match &plan.bottleneck {
        Some(b) => ev
            .with_resource(u64::from(b.resource.0))
            .with_alpha(b.alpha),
        None => ev,
    }
}
