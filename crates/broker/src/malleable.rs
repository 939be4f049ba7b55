//! Malleable advance requests and the deadline-driven planner.
//!
//! The paper's reservation model books *rigid* windows: a fixed demand
//! over a fixed `[from, to)` interval. Bulk data transfers want the
//! dual formulation — "move `volume` units before `deadline`", leaving
//! the broker free to pick start time, duration, and rate profile (the
//! *malleable* reservations of the flexible-bandwidth-framework line of
//! work referenced in PAPERS.md).
//!
//! This module defines the request/outcome surface shared by both
//! shapes and the planning algorithm for the malleable one:
//!
//! * [`AdvanceRequest`] — a builder covering rigid windows and
//!   malleable `{volume, deadline, min_rate, max_rate}` transfers, with
//!   an [`AlphaPolicy`] knob that trades start-time slack against the
//!   contention share ψ and an opt-in preempt-and-repack flag;
//! * [`AdvanceOutcome`] — `Booked`, `Repacked { moved }`, or
//!   `Rejected { nearest_feasible_deadline }`;
//! * [`AdvanceProfile`] / [`RateSegment`] — the concrete plan: when the
//!   transfer runs and at what rate in each availability step.
//!
//! The planner first sweeps *constant-rate* candidate profiles anchored
//! at the request's earliest start and at every availability breakpoint
//! before the deadline (a fixed-point iteration per candidate: guess a
//! rate, measure availability over the implied window, clamp, repeat).
//! If no single rate fits, it falls back to *water-filling*: run at the
//! usable availability of each step, pausing through steps below
//! `min_rate`, until the volume is moved or the deadline passes. When
//! even that fails, the same water-fill without a deadline yields the
//! `nearest_feasible_deadline` hint carried by the rejection.
//!
//! All three read the availability steps from the timeline index's
//! cursor, one O(log n) pull at a time, and stop pulling as soon as
//! they can: the sweep at the first candidate that fits
//! ([`AlphaPolicy::Ignore`]) or at the deadline
//! ([`AlphaPolicy::Tradeoff`]), the bounded water-fill at the deadline,
//! the unbounded one at the step that completes the volume. A transfer
//! admitted at its first candidate costs the same with ten breakpoints
//! beyond its start as with a hundred thousand. Planning and commit
//! share one acquisition of the broker's lock, so the profile that was
//! validated is the profile that is installed.
//!
//! A transfer can be too small to book: when `volume / rate` is below
//! the resolution of `f64` time at the start, the window it implies is
//! empty. Such a constant-rate candidate does not fit, such a
//! water-fill residue completes the transfer without a segment of its
//! own, and a plan left with no segment at all is rejected as an
//! invalid amount.

use crate::advance::{Booking, TimelineBroker, TimelineIndex};
use crate::error::ReserveError;
use crate::request::{AlphaPolicy, TraceCtx};
use crate::time::{SessionId, SimTime};
use qosr_model::{ResourceId, ResourceVector};
use qosr_obs::TraceId;

/// One constant-rate piece of a malleable transfer plan.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RateSegment {
    /// Segment start (inclusive).
    pub from: SimTime,
    /// Segment end (exclusive).
    pub to: SimTime,
    /// Reserved rate over `[from, to)`.
    pub rate: f64,
}

impl RateSegment {
    /// Volume moved by this segment: `rate × (to − from)`.
    pub fn volume(&self) -> f64 {
        self.rate * self.to.since(self.from)
    }
}

/// The concrete plan an admitted advance request was booked under.
///
/// Rigid requests get a degenerate profile: `resource` is `None` (the
/// demand may span several resources), `segments` is empty, and
/// `volume` sums demand × duration across the demand vector.
#[derive(Debug, Clone, PartialEq)]
pub struct AdvanceProfile {
    /// Resource the plan runs on (`None` for rigid multi-resource
    /// bookings).
    pub resource: Option<ResourceId>,
    /// When the plan starts.
    pub start: SimTime,
    /// When the plan completes.
    pub end: SimTime,
    /// Total volume booked (rate × duration, summed over segments).
    pub volume: f64,
    /// Contention share ψ of the plan: booked rate over availability,
    /// maximised across segments. ψ ≤ 1 for any admitted plan.
    pub psi: f64,
    /// Constant-rate pieces of the plan, in time order. A single entry
    /// for constant-rate plans; several when the planner water-filled
    /// around existing bookings.
    pub segments: Vec<RateSegment>,
}

/// The shape of an advance request: a fixed window or a malleable
/// deadline-driven transfer.
#[derive(Debug, Clone, PartialEq)]
pub enum AdvanceShape {
    /// Book exactly `demand` over `[from, to)` on every resource in the
    /// vector — the paper's original model.
    Rigid {
        /// Per-resource demand to hold over the window.
        demand: ResourceVector,
        /// Window start (inclusive).
        from: SimTime,
        /// Window end (exclusive).
        to: SimTime,
    },
    /// Move `volume` units on one resource before `deadline`; the
    /// broker picks start, duration, and rate profile.
    Malleable {
        /// Resource the transfer runs on.
        resource: ResourceId,
        /// Total volume to move (rate × time units).
        volume: f64,
        /// Earliest permitted start (defaults to [`SimTime::ZERO`]).
        earliest: SimTime,
        /// Completion deadline (exclusive upper bound on the plan).
        deadline: SimTime,
        /// Minimum usable rate: steps offering less are paused through
        /// rather than trickled (defaults to `0.0`).
        min_rate: f64,
        /// Rate ceiling, e.g. a NIC line rate (defaults to
        /// `f64::INFINITY`).
        max_rate: f64,
    },
}

/// A builder-style advance-reservation request.
///
/// Mirrors the [`crate::SessionRequest`] redesign: construct with
/// [`AdvanceRequest::rigid`] or [`AdvanceRequest::malleable`], refine
/// with chained setters, then book through
/// [`crate::AdvanceRegistry::book`].
///
/// ```
/// use qosr_broker::{AdvanceRequest, AlphaPolicy, SessionId, SimTime};
/// use qosr_model::ResourceId;
///
/// let request = AdvanceRequest::malleable(
///     SessionId(7),
///     ResourceId(0),
///     600.0,
///     SimTime::new(120.0),
/// )
/// .earliest(SimTime::new(10.0))
/// .min_rate(1.0)
/// .max_rate(40.0)
/// .alpha_policy(AlphaPolicy::Tradeoff)
/// .allow_preempt(false);
/// assert_eq!(request.session(), SessionId(7));
/// ```
#[derive(Debug, Clone)]
pub struct AdvanceRequest {
    session: SessionId,
    shape: AdvanceShape,
    policy: AlphaPolicy,
    preempt: bool,
    pub(crate) trace: Option<TraceCtx>,
}

impl AdvanceRequest {
    /// A rigid request: hold `demand` over `[from, to)`.
    pub fn rigid(session: SessionId, demand: ResourceVector, from: SimTime, to: SimTime) -> Self {
        Self {
            session,
            shape: AdvanceShape::Rigid { demand, from, to },
            policy: AlphaPolicy::Ignore,
            preempt: false,
            trace: None,
        }
    }

    /// A malleable request: move `volume` units on `resource` before
    /// `deadline`. Starts as early as [`SimTime::ZERO`] with no rate
    /// floor or ceiling; refine with [`earliest`](Self::earliest),
    /// [`min_rate`](Self::min_rate), and [`max_rate`](Self::max_rate).
    pub fn malleable(
        session: SessionId,
        resource: ResourceId,
        volume: f64,
        deadline: SimTime,
    ) -> Self {
        Self {
            session,
            shape: AdvanceShape::Malleable {
                resource,
                volume,
                earliest: SimTime::ZERO,
                deadline,
                min_rate: 0.0,
                max_rate: f64::INFINITY,
            },
            policy: AlphaPolicy::Ignore,
            preempt: false,
            trace: None,
        }
    }

    /// Tags the request with an ingress-minted trace id, so
    /// [`crate::AdvanceRegistry::book`] records a span tree for it when
    /// the registry's tracer is enabled. The ingress instant is *now* —
    /// call this at the point the request entered the system.
    pub fn traced(mut self, id: TraceId) -> Self {
        self.trace = Some(TraceCtx {
            id,
            arrived: std::time::Instant::now(),
        });
        self
    }

    /// The trace id, when the request is traced.
    pub fn trace_id(&self) -> Option<TraceId> {
        self.trace.map(|t| t.id)
    }

    /// Earliest permitted start for a malleable transfer. No-op on
    /// rigid requests (their window is the shape).
    pub fn earliest(mut self, at: SimTime) -> Self {
        if let AdvanceShape::Malleable { earliest, .. } = &mut self.shape {
            *earliest = at;
        }
        self
    }

    /// Minimum usable rate for a malleable transfer; availability steps
    /// below it are paused through. No-op on rigid requests.
    pub fn min_rate(mut self, rate: f64) -> Self {
        if let AdvanceShape::Malleable { min_rate, .. } = &mut self.shape {
            *min_rate = rate;
        }
        self
    }

    /// Rate ceiling for a malleable transfer. No-op on rigid requests.
    pub fn max_rate(mut self, rate: f64) -> Self {
        if let AdvanceShape::Malleable { max_rate, .. } = &mut self.shape {
            *max_rate = rate;
        }
        self
    }

    /// How to weigh start-time slack against contention share ψ:
    /// [`AlphaPolicy::Ignore`] books the earliest feasible profile,
    /// [`AlphaPolicy::Tradeoff`] the lowest-ψ one (earliest on ties).
    pub fn alpha_policy(mut self, policy: AlphaPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Allow this request to preempt malleable bookings and replan them
    /// (all-or-nothing, rolled back on failure) when it cannot be
    /// admitted as-is.
    pub fn allow_preempt(mut self, preempt: bool) -> Self {
        self.preempt = preempt;
        self
    }

    /// The requesting session.
    pub fn session(&self) -> SessionId {
        self.session
    }

    /// The request's shape.
    pub fn shape(&self) -> &AdvanceShape {
        &self.shape
    }

    /// The configured slack-vs-ψ policy.
    pub fn policy(&self) -> AlphaPolicy {
        self.policy
    }

    /// Whether this request may preempt-and-repack malleable bookings.
    pub fn preempts(&self) -> bool {
        self.preempt
    }

    /// Planner-ready view of a malleable shape; `None` for rigid.
    pub(crate) fn malleable_spec(&self) -> Option<MalleableSpec> {
        match &self.shape {
            AdvanceShape::Malleable {
                resource,
                volume,
                earliest,
                deadline,
                min_rate,
                max_rate,
            } => Some(MalleableSpec {
                resource: *resource,
                volume: *volume,
                earliest: *earliest,
                deadline: *deadline,
                min_rate: *min_rate,
                max_rate: *max_rate,
                policy: self.policy,
            }),
            AdvanceShape::Rigid { .. } => None,
        }
    }
}

/// Outcome of booking an [`AdvanceRequest`].
#[derive(Debug, Clone)]
pub enum AdvanceOutcome {
    /// Admitted as requested.
    Booked {
        /// The plan the request was booked under.
        profile: AdvanceProfile,
    },
    /// Admitted after preempting and replanning malleable bookings.
    Repacked {
        /// The plan the request was booked under.
        profile: AdvanceProfile,
        /// Malleable sessions that were moved to make room.
        moved: Vec<SessionId>,
    },
    /// Not admitted; state is unchanged.
    Rejected {
        /// Why admission failed.
        error: ReserveError,
        /// For malleable requests: the earliest deadline under which
        /// the same transfer *would* fit today, when one exists.
        nearest_feasible_deadline: Option<SimTime>,
    },
}

impl AdvanceOutcome {
    /// `true` for [`Booked`](Self::Booked) and
    /// [`Repacked`](Self::Repacked).
    pub fn is_booked(&self) -> bool {
        matches!(self, Self::Booked { .. } | Self::Repacked { .. })
    }

    /// The booked plan, when admitted.
    pub fn profile(&self) -> Option<&AdvanceProfile> {
        match self {
            Self::Booked { profile } | Self::Repacked { profile, .. } => Some(profile),
            Self::Rejected { .. } => None,
        }
    }

    /// Sessions moved by a repack (empty otherwise).
    pub fn moved(&self) -> &[SessionId] {
        match self {
            Self::Repacked { moved, .. } => moved,
            _ => &[],
        }
    }

    /// The rejection error, when not admitted.
    pub fn error(&self) -> Option<&ReserveError> {
        match self {
            Self::Rejected { error, .. } => Some(error),
            _ => None,
        }
    }

    /// Collapse into a `Result`, dropping repack/nearest-deadline
    /// detail.
    pub fn into_result(self) -> Result<AdvanceProfile, ReserveError> {
        match self {
            Self::Booked { profile } | Self::Repacked { profile, .. } => Ok(profile),
            Self::Rejected { error, .. } => Err(error),
        }
    }
}

/// Planner-ready malleable request: the `Malleable` shape flattened,
/// with the request's policy attached. Kept by [`crate::AdvanceRegistry`]
/// so preempted transfers can be replanned from their original terms.
#[derive(Debug, Clone)]
pub(crate) struct MalleableSpec {
    pub resource: ResourceId,
    pub volume: f64,
    pub earliest: SimTime,
    pub deadline: SimTime,
    pub min_rate: f64,
    pub max_rate: f64,
    pub policy: AlphaPolicy,
}

/// Plan and book a malleable transfer on `broker`.
///
/// On success the bookings are installed and the chosen profile
/// returned. On failure nothing is booked and the error carries the
/// nearest feasible deadline when the transfer would fit with more
/// slack.
pub(crate) fn book_malleable(
    broker: &TimelineBroker,
    session: SessionId,
    spec: &MalleableSpec,
    now: SimTime,
) -> Result<AdvanceProfile, (ReserveError, Option<SimTime>)> {
    if !spec.volume.is_finite() || spec.volume <= 0.0 {
        return Err((
            ReserveError::InvalidAmount {
                resource: spec.resource,
                amount: spec.volume,
            },
            None,
        ));
    }
    if spec.max_rate.is_nan() || spec.max_rate <= 0.0 {
        return Err((
            ReserveError::InvalidAmount {
                resource: spec.resource,
                amount: spec.max_rate,
            },
            None,
        ));
    }
    if !spec.min_rate.is_finite() || spec.min_rate < 0.0 {
        return Err((
            ReserveError::InvalidAmount {
                resource: spec.resource,
                amount: spec.min_rate,
            },
            None,
        ));
    }

    let start = spec.earliest.max(now);
    let capacity = broker.capacity();
    // One acquisition of the broker's lock covers planning and commit:
    // every read below goes to the index behind this guard and the
    // booking goes through the same guard, so what was validated is
    // what is installed, whoever else is booking.
    let mut timeline = broker.lock();
    let index = timeline.index();
    let steps = || {
        index
            .cursor(start)
            .map(move |(at, reserved)| (at, capacity - reserved))
    };
    if start >= spec.deadline {
        let (_, _, _, nearest) = water_fill(steps(), start, None, spec);
        return Err((
            ReserveError::Insufficient {
                resource: spec.resource,
                requested: spec.volume,
                available: 0.0,
            },
            nearest,
        ));
    }

    if let Some((segment, psi)) =
        constant_rate_sweep(steps().map(|(at, _)| at), index, capacity, spec)
    {
        timeline
            .reserve_window(session, segment.rate, segment.from, segment.to)
            .map_err(|e| (e, None))?;
        return Ok(AdvanceProfile {
            resource: Some(spec.resource),
            start: segment.from,
            end: segment.to,
            volume: segment.volume(),
            psi,
            segments: vec![segment],
        });
    }

    // Variable-rate fallback: water-fill each availability step up to
    // the deadline.
    let (segments, achieved, max_psi, completion) =
        water_fill(steps(), start, Some(spec.deadline), spec);
    if let Some(end) = completion {
        let Some(first) = segments.first() else {
            // The whole volume is below what the clock can resolve at
            // `start`: there is no window to book it over.
            return Err((
                ReserveError::InvalidAmount {
                    resource: spec.resource,
                    amount: spec.volume,
                },
                None,
            ));
        };
        let plan_start = first.from;
        // Validate every segment against the same pre-booking index,
        // then install unchecked: the segments are time-disjoint, so
        // one-snapshot validation is exact, whereas booking them
        // sequentially through the checked path could trip over
        // ulp-level drift in the running level at shared breakpoints.
        for seg in &segments {
            let seg_avail = capacity - index.max_reserved(seg.from, seg.to);
            if seg.rate > seg_avail {
                return Err((
                    ReserveError::Insufficient {
                        resource: spec.resource,
                        requested: seg.rate,
                        available: seg_avail,
                    },
                    None,
                ));
            }
        }
        let bookings: Vec<Booking> = segments
            .iter()
            .map(|seg| Booking {
                from: seg.from,
                to: seg.to,
                amount: seg.rate,
            })
            .collect();
        timeline.install(session, &bookings);
        return Ok(AdvanceProfile {
            resource: Some(spec.resource),
            start: plan_start,
            end,
            volume: segments.iter().map(RateSegment::volume).sum(),
            psi: max_psi,
            segments,
        });
    }

    // Infeasible by the deadline: rerun the water-fill unbounded to
    // report when the transfer *would* complete.
    let (_, _, _, nearest) = water_fill(steps(), start, None, spec);
    Err((
        ReserveError::Insufficient {
            resource: spec.resource,
            requested: spec.volume,
            available: achieved,
        },
        nearest,
    ))
}

/// Constant-rate sweep: one candidate profile anchored at each of
/// `candidates` (step starts, ascending) that lies before the deadline.
/// [`AlphaPolicy::Ignore`] takes the first that fits and pulls no
/// further; [`AlphaPolicy::Tradeoff`] pulls up to the deadline and takes
/// the lowest ψ, the earliest on ties. Returns the profile's single
/// segment and its ψ.
fn constant_rate_sweep(
    candidates: impl Iterator<Item = SimTime>,
    index: &TimelineIndex,
    capacity: f64,
    spec: &MalleableSpec,
) -> Option<(RateSegment, f64)> {
    let mut fits = candidates
        .take_while(|&s| s < spec.deadline)
        .filter_map(|s| constant_rate_at(index, capacity, spec, s));
    match spec.policy {
        AlphaPolicy::Ignore => fits.next(),
        AlphaPolicy::Tradeoff => fits.reduce(|best, c| if c.1 < best.1 { c } else { best }),
    }
}

/// Fixed-point search for a constant-rate profile starting at `s`:
/// guess a rate, measure availability over the implied window, clamp,
/// repeat until the rate is self-consistent. Returns the segment and
/// its ψ, or `None` when no constant rate from `s` can finish by the
/// deadline.
fn constant_rate_at(
    index: &TimelineIndex,
    capacity: f64,
    spec: &MalleableSpec,
    s: SimTime,
) -> Option<(RateSegment, f64)> {
    let horizon = spec.deadline.since(s);
    if horizon <= 0.0 {
        return None;
    }
    // Any feasible rate must reach `volume` by the deadline and respect
    // the request's floor.
    let floor = spec.min_rate.max(spec.volume / horizon);
    let mut rate = spec.max_rate.min(capacity);
    for _ in 0..64 {
        if rate <= 0.0 || rate < floor {
            return None;
        }
        let duration = spec.volume / rate;
        if !duration.is_finite() {
            return None;
        }
        let end = SimTime::new(s.value() + duration);
        if end > spec.deadline {
            return None;
        }
        let avail = capacity - index.max_reserved(s, end);
        let usable = avail.min(spec.max_rate);
        if rate <= usable {
            // Self-consistent: the window the rate implies really does
            // offer that rate. `rate <= avail` bitwise, so the checked
            // booking path accepts it without any epsilon slack.
            if end <= s {
                // …but `volume / rate` is below the time resolution at
                // `s`, so there is no window to book.
                return None;
            }
            let psi = if avail > 0.0 {
                rate / avail
            } else {
                f64::INFINITY
            };
            let segment = RateSegment {
                from: s,
                to: end,
                rate,
            };
            return Some((segment, psi));
        }
        rate = usable;
    }
    None
}

/// Greedy water-fill over the availability `steps` from `start` (the
/// cursor's `(time, available)` entries, pulled one at a time and
/// peeked one ahead for each step's end): run each step at
/// `min(availability, max_rate)`, pause through steps below `min_rate`,
/// stop at `deadline` (or, when `None` — the nearest-feasible-deadline
/// probe — at the step that completes the volume). Returns
/// `(segments, achieved_volume, max_psi, completion_time)`;
/// `completion_time` is `None` when the volume cannot be moved.
fn water_fill(
    steps: impl Iterator<Item = (SimTime, f64)>,
    start: SimTime,
    deadline: Option<SimTime>,
    spec: &MalleableSpec,
) -> (Vec<RateSegment>, f64, f64, Option<SimTime>) {
    let mut steps = steps.peekable();
    let mut segments: Vec<RateSegment> = Vec::new();
    let mut achieved = 0.0_f64;
    let mut max_psi = 0.0_f64;
    let mut remaining = spec.volume;
    while let Some((step_start, step_avail)) = steps.next() {
        if deadline.is_some_and(|d| step_start >= d) {
            break;
        }
        let seg_start = step_start.max(start);
        // Upper bound of this step, clipped to the deadline; `None`
        // marks the unbounded final step.
        let bound = match (steps.peek().map(|&(next, _)| next), deadline) {
            (Some(next), Some(d)) => Some(next.min(d)),
            (Some(next), None) => Some(next),
            (None, d) => d,
        };
        if bound.is_some_and(|e| e <= seg_start) {
            continue;
        }
        let rate = step_avail.min(spec.max_rate);
        if rate <= 0.0 || rate < spec.min_rate {
            continue; // pause through this step
        }
        let step_volume = bound.map(|e| rate * e.since(seg_start));
        match step_volume {
            Some(v) if v < remaining => {
                let e = bound.expect("bounded step");
                segments.push(RateSegment {
                    from: seg_start,
                    to: e,
                    rate,
                });
                achieved += v;
                remaining -= v;
                max_psi = max_psi.max(rate / step_avail);
            }
            _ => {
                // This step can finish the transfer. Clamp to the step
                // bound: `remaining / rate` can overshoot it by an ulp,
                // which would spill the segment into the next
                // availability step (or past the deadline).
                let duration = remaining / rate;
                let e = SimTime::new(seg_start.value() + duration);
                let e = bound.map_or(e, |b| e.min(b));
                // A residue below the time resolution at `seg_start`
                // is moved in no time: it completes the transfer
                // without a (zero-length) segment of its own.
                if e > seg_start {
                    segments.push(RateSegment {
                        from: seg_start,
                        to: e,
                        rate,
                    });
                    max_psi = max_psi.max(rate / step_avail);
                }
                achieved += remaining;
                return (segments, achieved, max_psi, Some(e));
            }
        }
    }
    (segments, achieved, max_psi, None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::advance::AdvanceRegistry;

    fn t(v: f64) -> SimTime {
        SimTime::new(v)
    }

    fn spec(volume: f64, deadline: f64) -> MalleableSpec {
        MalleableSpec {
            resource: ResourceId(0),
            volume,
            earliest: SimTime::ZERO,
            deadline: t(deadline),
            min_rate: 0.0,
            max_rate: f64::INFINITY,
            policy: AlphaPolicy::Ignore,
        }
    }

    #[test]
    fn builder_chains_and_accessors() {
        let req = AdvanceRequest::malleable(SessionId(7), ResourceId(2), 600.0, t(120.0))
            .earliest(t(10.0))
            .min_rate(1.0)
            .max_rate(40.0)
            .alpha_policy(AlphaPolicy::Tradeoff)
            .allow_preempt(true);
        assert_eq!(req.session(), SessionId(7));
        assert!(req.preempts());
        assert_eq!(req.policy(), AlphaPolicy::Tradeoff);
        let spec = req.malleable_spec().expect("malleable shape");
        assert_eq!(spec.resource, ResourceId(2));
        assert_eq!(spec.volume, 600.0);
        assert_eq!(spec.earliest, t(10.0));
        assert_eq!(spec.deadline, t(120.0));
        assert_eq!(spec.min_rate, 1.0);
        assert_eq!(spec.max_rate, 40.0);

        let rigid = AdvanceRequest::rigid(
            SessionId(1),
            ResourceVector::from_pairs([(ResourceId(0), 5.0)]).expect("demand"),
            t(0.0),
            t(10.0),
        )
        .earliest(t(99.0)) // no-op on rigid shapes
        .min_rate(3.0);
        assert!(rigid.malleable_spec().is_none());
        assert!(matches!(rigid.shape(), AdvanceShape::Rigid { .. }));
    }

    #[test]
    fn outcome_helpers_classify_variants() {
        let profile = AdvanceProfile {
            resource: Some(ResourceId(0)),
            start: t(0.0),
            end: t(10.0),
            volume: 50.0,
            psi: 0.5,
            segments: vec![RateSegment {
                from: t(0.0),
                to: t(10.0),
                rate: 5.0,
            }],
        };
        let booked = AdvanceOutcome::Booked {
            profile: profile.clone(),
        };
        assert!(booked.is_booked());
        assert!(booked.error().is_none());
        assert!(booked.moved().is_empty());
        assert_eq!(booked.profile().map(|p| p.volume), Some(50.0));

        let repacked = AdvanceOutcome::Repacked {
            profile: profile.clone(),
            moved: vec![SessionId(3)],
        };
        assert!(repacked.is_booked());
        assert_eq!(repacked.moved(), &[SessionId(3)]);
        assert!(repacked.clone().into_result().is_ok());

        let rejected = AdvanceOutcome::Rejected {
            error: ReserveError::InvalidAmount {
                resource: ResourceId(0),
                amount: -1.0,
            },
            nearest_feasible_deadline: Some(t(42.0)),
        };
        assert!(!rejected.is_booked());
        assert!(rejected.profile().is_none());
        assert!(rejected.error().is_some());
        assert!(rejected.into_result().is_err());
    }

    #[test]
    fn constant_rate_policy_picks_earliest_or_lowest_psi() {
        // Capacity 10 with an 8-unit obstacle over [0, 10): availability
        // is 2 until t=10, then 10.
        let setup = || {
            let broker = TimelineBroker::new(ResourceId(0), 10.0);
            broker
                .reserve_window(SessionId(99), 8.0, t(0.0), t(10.0))
                .expect("obstacle");
            broker
        };

        // Ignore: earliest feasible start wins — rate 2 over [0, 20).
        let broker = setup();
        let mut s = spec(40.0, 30.0);
        s.max_rate = 4.0;
        let profile = book_malleable(&broker, SessionId(1), &s, t(0.0)).expect("feasible");
        assert_eq!(profile.start, t(0.0));
        assert_eq!(profile.end, t(20.0));
        assert_eq!(profile.volume, 40.0);
        assert_eq!(profile.segments.len(), 1);
        assert_eq!(profile.segments[0].rate, 2.0);
        assert_eq!(profile.psi, 1.0);

        // Tradeoff: waiting for the obstacle to clear gives ψ = 4/10.
        let broker = setup();
        let mut s = spec(40.0, 30.0);
        s.max_rate = 4.0;
        s.policy = AlphaPolicy::Tradeoff;
        let profile = book_malleable(&broker, SessionId(1), &s, t(0.0)).expect("feasible");
        assert_eq!(profile.start, t(10.0));
        assert_eq!(profile.end, t(20.0));
        assert_eq!(profile.segments[0].rate, 4.0);
        assert!((profile.psi - 0.4).abs() < 1e-12);
        // The booking really landed: [10, 20) now offers 10 − 4 = 6.
        assert_eq!(broker.available_over(t(10.0), t(20.0)), 6.0);
    }

    #[test]
    fn water_fill_spans_availability_steps() {
        // Availability staircase 2 → 5 → 10; no constant rate moves 70
        // units by t=20, but water-filling the first two steps does.
        let broker = TimelineBroker::new(ResourceId(0), 10.0);
        broker
            .reserve_window(SessionId(98), 8.0, t(0.0), t(10.0))
            .expect("obstacle");
        broker
            .reserve_window(SessionId(99), 5.0, t(10.0), t(20.0))
            .expect("obstacle");
        let profile =
            book_malleable(&broker, SessionId(1), &spec(70.0, 20.0), t(0.0)).expect("water-fill");
        assert_eq!(profile.segments.len(), 2);
        assert_eq!(
            profile.segments[0],
            RateSegment {
                from: t(0.0),
                to: t(10.0),
                rate: 2.0
            }
        );
        assert_eq!(
            profile.segments[1],
            RateSegment {
                from: t(10.0),
                to: t(20.0),
                rate: 5.0
            }
        );
        assert_eq!(profile.volume, 70.0);
        assert_eq!(profile.end, t(20.0));
        assert_eq!(profile.psi, 1.0);
        // Both steps are now saturated.
        assert_eq!(broker.available_over(t(0.0), t(20.0)), 0.0);
    }

    #[test]
    fn min_rate_pauses_through_thin_steps() {
        // Step [0, 10) offers only 2 — below the 3-unit floor — so the
        // transfer pauses and runs at full rate afterwards.
        let broker = TimelineBroker::new(ResourceId(0), 10.0);
        broker
            .reserve_window(SessionId(99), 8.0, t(0.0), t(10.0))
            .expect("obstacle");
        let mut s = spec(50.0, 30.0);
        s.min_rate = 3.0;
        s.max_rate = 5.0;
        let profile = book_malleable(&broker, SessionId(1), &s, t(0.0)).expect("feasible");
        assert_eq!(profile.start, t(10.0));
        assert_eq!(profile.end, t(20.0));
        assert_eq!(
            profile.segments,
            vec![RateSegment {
                from: t(10.0),
                to: t(20.0),
                rate: 5.0
            }]
        );
    }

    #[test]
    fn infeasible_reports_nearest_deadline() {
        let broker = TimelineBroker::new(ResourceId(0), 10.0);
        broker
            .reserve_window(SessionId(99), 8.0, t(0.0), t(10.0))
            .expect("obstacle");
        let (error, nearest) =
            book_malleable(&broker, SessionId(1), &spec(100.0, 10.0), t(0.0)).expect_err("too big");
        match error {
            ReserveError::Insufficient {
                requested,
                available,
                ..
            } => {
                assert_eq!(requested, 100.0);
                assert_eq!(available, 20.0); // 2 × 10 achievable by the deadline
            }
            other => panic!("unexpected error: {other:?}"),
        }
        // 20 units by t=10, the remaining 80 at rate 10 → done at t=18.
        assert_eq!(nearest, Some(t(18.0)));
        // Nothing was booked.
        assert!(broker.bookings_of(SessionId(1)).is_empty());
        assert_eq!(broker.available_over(t(10.0), t(20.0)), 10.0);
    }

    fn registry(capacity: f64) -> AdvanceRegistry {
        let mut registry = AdvanceRegistry::new();
        registry.register(std::sync::Arc::new(TimelineBroker::new(
            ResourceId(0),
            capacity,
        )));
        registry
    }

    #[test]
    fn volume_below_the_time_resolution_books_nothing() {
        // 1e-9 units at up to 3,000 per TU take 3e-13 TU; one ulp of
        // time at t = 1e6 is 1.2e-10, so every window the planner can
        // form is empty. It must say so, not book `[s, s)`.
        let registry = registry(3000.0);
        let request =
            AdvanceRequest::malleable(SessionId(1), ResourceId(0), 1e-9, t(2e6)).earliest(t(1e6));
        match registry.book(&request, t(0.0)) {
            AdvanceOutcome::Rejected {
                error,
                nearest_feasible_deadline,
            } => {
                assert_eq!(
                    error,
                    ReserveError::InvalidAmount {
                        resource: ResourceId(0),
                        amount: 1e-9
                    }
                );
                assert_eq!(nearest_feasible_deadline, None);
            }
            other => panic!("expected a rejection, got {other:?}"),
        }
        let broker = registry.get(ResourceId(0)).expect("registered");
        assert!(broker.bookings_of(SessionId(1)).is_empty());
        assert_eq!(broker.breakpoints(), 0);
    }

    #[test]
    fn water_fill_residue_adds_no_zero_length_segment() {
        // Availability 2 / 5 / 1 over three 10-TU steps from t = 1e6 and
        // one ulp more than 70 units to move by their end: no constant
        // rate fits, the first two steps move 20 + 50, and the 1.4e-14
        // left over takes no representable time in the third.
        let registry = registry(10.0);
        let base = 1e6;
        for (i, reserved) in [8.0, 5.0, 9.0].into_iter().enumerate() {
            let from = t(base + 10.0 * i as f64);
            let demand = ResourceVector::from_pairs([(ResourceId(0), reserved)]).expect("demand");
            let obstacle =
                AdvanceRequest::rigid(SessionId(90 + i as u64), demand, from, from + 10.0);
            assert!(registry.book(&obstacle, t(0.0)).is_booked());
        }
        let volume = f64::from_bits(70f64.to_bits() + 1);
        let request =
            AdvanceRequest::malleable(SessionId(1), ResourceId(0), volume, t(base + 30.0))
                .earliest(t(base));
        let outcome = registry.book(&request, t(0.0));
        let profile = outcome.profile().expect("water-filled");
        assert_eq!(
            profile.segments,
            vec![
                RateSegment {
                    from: t(base),
                    to: t(base + 10.0),
                    rate: 2.0
                },
                RateSegment {
                    from: t(base + 10.0),
                    to: t(base + 20.0),
                    rate: 5.0
                },
            ]
        );
        assert_eq!(profile.end, t(base + 20.0));
        assert_eq!(profile.volume, 70.0);
        assert_eq!(profile.psi, 1.0);
        let broker = registry.get(ResourceId(0)).expect("registered");
        assert_eq!(broker.bookings_of(SessionId(1)).len(), 2);
        assert_eq!(broker.available_over(t(base), t(base + 20.0)), 0.0);
        assert_eq!(broker.available_over(t(base + 20.0), t(base + 30.0)), 1.0);
    }

    /// The planner's cost is per step *consumed*: counted, not timed,
    /// on an index with 100,000 breakpoints beyond the request's start.
    #[test]
    fn planner_pulls_only_the_steps_it_consumes() {
        use std::cell::Cell;

        // 50,000 separated windows of differing heights from t = 10:
        // breakpoints at 10, 11, 12, … — 100,000 of them.
        let capacity = 100.0;
        let mut index = TimelineIndex::new();
        for i in 0..50_000 {
            let from = t(10.0 + 2.0 * f64::from(i));
            index.add(from, from + 1.0, 1.5 + f64::from(i % 7));
        }
        assert_eq!(index.breakpoints(), 100_000);
        let start = t(0.0);
        let pulls = Cell::new(0usize);
        let steps = || {
            pulls.set(0);
            index
                .cursor(start)
                .map(|(at, reserved)| (at, capacity - reserved))
                .inspect(|_| pulls.set(pulls.get() + 1))
        };

        // A transfer the first candidate admits never looks further.
        let small = spec(50.0, 150_000.0);
        let (segment, _) = constant_rate_sweep(steps().map(|(at, _)| at), &index, capacity, &small)
            .expect("the first candidate fits");
        assert_eq!(segment.from, start);
        assert!(pulls.get() <= 2, "sweep pulled {} steps", pulls.get());

        // A water-fill that runs into its deadline k breakpoints away
        // pulls the origin, those k, and the one that tells it to stop.
        let k = 1_000;
        let hopeless = spec(1e9, 9.5 + k as f64);
        let (segments, _, _, completion) =
            water_fill(steps(), start, Some(hopeless.deadline), &hopeless);
        assert_eq!(completion, None);
        assert_eq!(segments.len(), k + 1);
        assert!(
            pulls.get() <= k + 2,
            "water-fill pulled {} steps",
            pulls.get()
        );

        // The unbounded probe stops at the step that completes the
        // volume (peeking one ahead for that step's end): 1e6 units at
        // ~97 per TU is a tenth of the way through the breakpoints.
        let (segments, _, _, completion) = water_fill(steps(), start, None, &spec(1e6, 1.0));
        assert!(completion.is_some_and(|end| end < t(11_000.0)));
        assert!(
            pulls.get() <= segments.len() + 1,
            "the probe pulled {} steps for {} segments",
            pulls.get(),
            segments.len()
        );
    }

    #[test]
    fn registry_repack_moves_malleable_sessions() {
        let registry = registry(10.0);

        // Malleable A books rate 4 over [0, 10).
        let a = AdvanceRequest::malleable(SessionId(1), ResourceId(0), 40.0, t(30.0)).max_rate(4.0);
        assert!(registry.book(&a, t(0.0)).is_booked());

        // Rigid B needs 8 over [0, 10): only 6 free, so it must preempt.
        let demand = ResourceVector::from_pairs([(ResourceId(0), 8.0)]).expect("demand");
        let b = AdvanceRequest::rigid(SessionId(2), demand.clone(), t(0.0), t(10.0))
            .allow_preempt(true);
        let outcome = registry.book(&b, t(0.0));
        assert!(outcome.is_booked());
        assert_eq!(outcome.moved(), &[SessionId(1)]);

        // A was replanned to rate 2 over [0, 20) around the rigid block.
        let broker = registry.get(ResourceId(0)).expect("registered");
        let replanned = broker.bookings_of(SessionId(1));
        assert_eq!(replanned.len(), 1);
        assert_eq!(replanned[0].amount, 2.0);
        assert_eq!(replanned[0].to, t(20.0));
        assert_eq!(broker.available_over(t(0.0), t(10.0)), 0.0);

        // Rigid C cannot fit even after evicting A: all-or-nothing
        // rollback leaves every booking exactly as it was.
        let c = AdvanceRequest::rigid(SessionId(3), demand, t(0.0), t(10.0)).allow_preempt(true);
        let outcome = registry.book(&c, t(0.0));
        assert!(!outcome.is_booked());
        assert!(outcome.error().is_some());
        let broker = registry.get(ResourceId(0)).expect("registered");
        assert_eq!(broker.bookings_of(SessionId(1)).len(), 1);
        assert_eq!(broker.bookings_of(SessionId(1))[0].amount, 2.0);
        assert!(broker.bookings_of(SessionId(3)).is_empty());
        assert_eq!(broker.available_over(t(0.0), t(10.0)), 0.0);
    }
}
