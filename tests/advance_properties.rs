//! Property-based tests of the advance-reservation timeline: arbitrary
//! booking/cancel sequences are checked against a brute-force reference
//! that samples the reserved level on a fine grid, the O(log n)
//! [`TimelineIndex`] is pinned bit-identical to the linear [`Timeline`]
//! oracle (`support/timeline.rs`, which carries its own unit tests),
//! preempt-and-repack is checked for conservation (no overcommit, no
//! missed deadline), concurrent water-filled transfers are raced for one
//! window each, malleable and rigid booking are compared on an obstacle
//! course, and the malleable planner's outcomes on a fixed sequence are
//! pinned to the bit. `PROPTEST_CASES` scales the property tests (CI
//! runs 256 cases in release mode).

#[path = "support/timeline.rs"]
mod timeline;

use proptest::prelude::*;
use qosr::broker::{
    AdvanceRegistry, AdvanceRequest, SessionId, SimTime, TimelineBroker, TimelineIndex,
};
use qosr::model::{ResourceId, ResourceVector};
use std::sync::Arc;
use timeline::Timeline;

#[derive(Debug, Clone)]
enum Op {
    Book {
        session: u8,
        from: u8,
        len: u8,
        amount: f64,
    },
    Cancel {
        session: u8,
    },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => (0u8..5, 0u8..40, 1u8..20, 1.0f64..50.0).prop_map(|(session, from, len, amount)| {
            Op::Book { session, from, len, amount }
        }),
        1 => (0u8..5).prop_map(|session| Op::Cancel { session }),
    ]
}

const CAPACITY: f64 = 100.0;

fn rigid(session: u8, amount: f64, from: SimTime, to: SimTime) -> AdvanceRequest {
    let demand = ResourceVector::from_pairs([(ResourceId(0), amount)]).expect("demand");
    AdvanceRequest::rigid(SessionId(session as u64), demand, from, to)
}

/// Reference model: a dense per-half-unit grid of reserved amounts.
#[derive(Default)]
struct Grid {
    /// reserved[t2] = total booked over [t2/2, t2/2 + 0.5).
    reserved: Vec<f64>,
    bookings: Vec<(u8, usize, usize, f64)>, // session, from2, to2, amount
}

impl Grid {
    fn max_over(&self, from2: usize, to2: usize) -> f64 {
        (from2..to2.max(from2 + 1))
            .map(|t| self.reserved.get(t).copied().unwrap_or(0.0))
            .fold(0.0, f64::max)
    }
    fn add(&mut self, session: u8, from2: usize, to2: usize, amount: f64) {
        if self.reserved.len() < to2 {
            self.reserved.resize(to2, 0.0);
        }
        for t in from2..to2 {
            self.reserved[t] += amount;
        }
        self.bookings.push((session, from2, to2, amount));
    }
    /// Cancels a session, returning `(released_volume, bookings_removed)`.
    fn cancel(&mut self, session: u8) -> (f64, usize) {
        let mut volume = 0.0;
        let mut removed = 0;
        let mut kept = Vec::new();
        for b in self.bookings.drain(..) {
            if b.0 == session {
                for t in b.1..b.2 {
                    self.reserved[t] -= b.3;
                }
                volume += b.3 * (b.2 - b.1) as f64 / 2.0;
                removed += 1;
            } else {
                kept.push(b);
            }
        }
        self.bookings = kept;
        (volume, removed)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases_from_env(256))]

    #[test]
    fn advance_registry_matches_grid_reference(ops in prop::collection::vec(op_strategy(), 1..40)) {
        let mut registry = AdvanceRegistry::new();
        registry.register(Arc::new(TimelineBroker::new(ResourceId(0), CAPACITY)));
        let mut grid = Grid::default();
        for op in &ops {
            match *op {
                Op::Book { session, from, len, amount } => {
                    // Windows on integer bounds; the grid uses half-unit
                    // resolution so boundaries are exact.
                    let (from2, to2) = (from as usize * 2, (from as usize + len as usize) * 2);
                    let t_from = SimTime::new(from as f64);
                    let t_to = SimTime::new((from as usize + len as usize) as f64);
                    let free = CAPACITY - grid.max_over(from2, to2);
                    let outcome = registry.book(
                        &rigid(session, amount, t_from, t_to), SimTime::ZERO);
                    if amount <= free + 1e-9 {
                        prop_assert!(outcome.is_booked(), "rejected a fitting booking");
                        grid.add(session, from2, to2, amount);
                    } else {
                        prop_assert!(!outcome.is_booked(), "accepted an overcommit");
                    }
                }
                Op::Cancel { session } => {
                    let (expected_volume, expected_removed) = grid.cancel(session);
                    let outcome = registry.cancel_all(SessionId(session as u64));
                    prop_assert!((outcome.released_volume - expected_volume).abs() < 1e-6);
                    prop_assert_eq!(outcome.bookings_removed, expected_removed);
                }
            }
            // Availability agrees with the reference on a sample of windows.
            let broker = registry.get(ResourceId(0)).expect("registered");
            for (a, b) in [(0usize, 20usize), (10, 45), (30, 60), (0, 60)] {
                let lib = broker.available_over(SimTime::new(a as f64), SimTime::new(b as f64));
                let reference = CAPACITY - grid.max_over(a * 2, b * 2);
                prop_assert!((lib - reference).abs() < 1e-6,
                    "window [{a},{b}): {lib} vs {reference}");
            }
        }
    }

    /// Timeline add/remove are exact inverses and compaction preserves
    /// all queries at or after the compaction point.
    #[test]
    fn timeline_add_remove_compact(
        windows in prop::collection::vec((0u8..40, 1u8..20, 1.0f64..50.0), 1..16),
        cut in 0u8..50,
    ) {
        let mut tl = Timeline::new();
        for &(from, len, amount) in &windows {
            tl.add(SimTime::new(from as f64), SimTime::new((from as u16 + len as u16) as f64), amount);
        }
        // Snapshot some queries, compact, re-check those at/after `cut`.
        let probes: Vec<(f64, f64)> = (0..12)
            .map(|i| (cut as f64 + i as f64, cut as f64 + i as f64 + 3.0))
            .collect();
        let before: Vec<f64> = probes
            .iter()
            .map(|&(a, b)| tl.max_reserved(SimTime::new(a), SimTime::new(b)))
            .collect();
        tl.compact(SimTime::new(cut as f64));
        for (&(a, b), &expect) in probes.iter().zip(&before) {
            let got = tl.max_reserved(SimTime::new(a), SimTime::new(b));
            prop_assert!((got - expect).abs() < 1e-9, "after compact: [{a},{b})");
        }
        // Removing everything empties the profile for future windows.
        let mut tl = Timeline::new();
        for &(from, len, amount) in &windows {
            let (f, t) = (SimTime::new(from as f64), SimTime::new((from as u16 + len as u16) as f64));
            tl.add(f, t, amount);
        }
        for &(from, len, amount) in &windows {
            let (f, t) = (SimTime::new(from as f64), SimTime::new((from as u16 + len as u16) as f64));
            tl.remove(f, t, amount);
        }
        prop_assert_eq!(tl.breakpoints(), 0);
        prop_assert_eq!(tl.max_reserved(SimTime::new(0.0), SimTime::new(100.0)), 0.0);
    }
}

// ---------------------------------------------------------------------
// TimelineIndex ≡ Timeline differential tests
// ---------------------------------------------------------------------

#[derive(Debug, Clone)]
enum IxOp {
    Add { from: u8, len: u8, amount: u8 },
    RemoveEarlier { pick: usize },
    Compact { at: u8 },
}

fn ix_op_strategy() -> impl Strategy<Value = IxOp> {
    prop_oneof![
        5 => (0u8..60, 1u8..20, 1u8..64).prop_map(|(from, len, amount)| {
            IxOp::Add { from, len, amount }
        }),
        2 => (0usize..64).prop_map(|pick| IxOp::RemoveEarlier { pick }),
        1 => (0u8..40).prop_map(|at| IxOp::Compact { at }),
    ]
}

const IX_PROBES: [(f64, f64); 6] = [
    (0.0, 80.0),
    (5.0, 23.0),
    (17.0, 41.0),
    (33.0, 34.0),
    (0.0, 1.0),
    (79.0, 80.0),
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases_from_env(128))]

    /// With integer amounts every delta sum is exact, so the treap index
    /// must agree with the linear oracle *bit for bit* on every window
    /// maximum, after every operation, including compactions.
    #[test]
    fn index_matches_timeline_bitwise(ops in prop::collection::vec(ix_op_strategy(), 1..48)) {
        let mut tl = Timeline::new();
        let mut ix = TimelineIndex::new();
        let mut live: Vec<(SimTime, SimTime, f64)> = Vec::new();
        for op in &ops {
            match *op {
                IxOp::Add { from, len, amount } => {
                    let (f, t) = (
                        SimTime::new(from as f64),
                        SimTime::new((from as u16 + len as u16) as f64),
                    );
                    tl.add(f, t, amount as f64);
                    ix.add(f, t, amount as f64);
                    live.push((f, t, amount as f64));
                }
                IxOp::RemoveEarlier { pick } => {
                    if !live.is_empty() {
                        let (f, t, amount) = live.swap_remove(pick % live.len());
                        tl.remove(f, t, amount);
                        ix.remove(f, t, amount);
                    }
                }
                IxOp::Compact { at } => {
                    let now = SimTime::new(at as f64);
                    tl.compact(now);
                    ix.compact(now);
                    live.retain(|&(_, t, _)| t > now);
                }
            }
            prop_assert_eq!(tl.breakpoints(), ix.breakpoints(), "breakpoint count diverged");
            for (a, b) in IX_PROBES {
                let want = tl.max_reserved(SimTime::new(a), SimTime::new(b));
                let got = ix.max_reserved(SimTime::new(a), SimTime::new(b));
                prop_assert_eq!(
                    want.to_bits(), got.to_bits(),
                    "window [{}, {}): oracle {} vs index {}", a, b, want, got
                );
            }
        }
    }

    /// With arbitrary float amounts the two structures may associate
    /// sums differently; they must still agree to float tolerance.
    #[test]
    fn index_matches_timeline_within_tolerance(
        windows in prop::collection::vec((0u8..60, 1u8..20, 1e-3f64..1e3), 1..32),
    ) {
        let mut tl = Timeline::new();
        let mut ix = TimelineIndex::new();
        for &(from, len, amount) in &windows {
            let (f, t) = (
                SimTime::new(from as f64),
                SimTime::new((from as u16 + len as u16) as f64),
            );
            tl.add(f, t, amount);
            ix.add(f, t, amount);
            for (a, b) in IX_PROBES {
                let want = tl.max_reserved(SimTime::new(a), SimTime::new(b));
                let got = ix.max_reserved(SimTime::new(a), SimTime::new(b));
                prop_assert!(
                    (want - got).abs() <= 1e-9 * want.abs().max(1.0),
                    "window [{a}, {b}): oracle {want} vs index {got}"
                );
            }
        }
    }
}

// ---------------------------------------------------------------------
// Preempt-and-repack conservation
// ---------------------------------------------------------------------

#[derive(Debug, Clone)]
enum AdvOp {
    Malleable {
        volume: f64,
        deadline: u8,
        max_rate: f64,
    },
    Rigid {
        amount: f64,
        from: u8,
        len: u8,
    },
}

fn adv_op_strategy() -> impl Strategy<Value = AdvOp> {
    prop_oneof![
        2 => (1.0f64..400.0, 20u8..120, 1.0f64..50.0).prop_map(|(volume, deadline, max_rate)| {
            AdvOp::Malleable { volume, deadline, max_rate }
        }),
        2 => (1.0f64..80.0, 0u8..50, 1u8..20).prop_map(|(amount, from, len)| {
            AdvOp::Rigid { amount, from, len }
        }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases_from_env(128))]

    /// Conservation under preempt-and-repack: whatever sequence of
    /// malleable transfers and preempting rigid requests arrives, no
    /// booking ever exceeds capacity and every admitted malleable
    /// transfer keeps its full volume booked before its deadline.
    #[test]
    fn repack_conserves_capacity_and_deadlines(
        ops in prop::collection::vec(adv_op_strategy(), 1..24),
    ) {
        let mut registry = AdvanceRegistry::new();
        registry.register(Arc::new(TimelineBroker::new(ResourceId(0), CAPACITY)));
        let now = SimTime::ZERO;
        let mut admitted: Vec<(SessionId, f64, SimTime)> = Vec::new();
        for (i, op) in ops.iter().enumerate() {
            let session = SessionId(1 + i as u64);
            match *op {
                AdvOp::Malleable { volume, deadline, max_rate } => {
                    let request = AdvanceRequest::malleable(
                        session, ResourceId(0), volume, SimTime::new(deadline as f64),
                    ).max_rate(max_rate);
                    if registry.book(&request, now).is_booked() {
                        admitted.push((session, volume, SimTime::new(deadline as f64)));
                    }
                }
                AdvOp::Rigid { amount, from, len } => {
                    let demand = ResourceVector::from_pairs([(ResourceId(0), amount)])
                        .expect("demand");
                    let request = AdvanceRequest::rigid(
                        session, demand,
                        SimTime::new(from as f64),
                        SimTime::new((from as u16 + len as u16) as f64),
                    ).allow_preempt(true);
                    let _ = registry.book(&request, now);
                }
            }
            let broker = registry.get(ResourceId(0)).expect("registered");
            // No window is ever overcommitted.
            for w in 0..13 {
                let (a, b) = (w as f64 * 10.0, w as f64 * 10.0 + 10.0);
                let free = broker.available_over(SimTime::new(a), SimTime::new(b));
                prop_assert!(free >= -1e-9, "overcommit in [{a}, {b}): free = {free}");
            }
            // Every admitted malleable transfer still has its full
            // volume booked, entirely before its deadline — even after
            // arbitrary repacks.
            for &(sid, volume, deadline) in &admitted {
                let bookings = broker.bookings_of(sid);
                prop_assert!(!bookings.is_empty(), "session {sid:?} lost its bookings");
                let booked: f64 = bookings.iter().map(|b| b.volume()).sum();
                prop_assert!(
                    (booked - volume).abs() <= 1e-6 * volume.max(1.0),
                    "session {sid:?}: booked {booked} of {volume}"
                );
                for b in &bookings {
                    prop_assert!(
                        b.to <= deadline,
                        "session {sid:?}: segment ends {:?} after deadline {deadline:?}", b.to
                    );
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// Concurrent malleable booking
// ---------------------------------------------------------------------

/// Four threads race 500 rounds of water-filled transfers onto one
/// link. Each round's window is a rising staircase of ten steps whose
/// best rectangle (2,981) is below the transfer's volume (3,300), so no
/// constant rate fits, and whose area (5,463) holds one such transfer,
/// not two: a planner that validates its segments under one acquisition
/// of the broker's lock and installs them under another can admit two
/// contenders that both validated against the empty window.
#[test]
fn concurrent_water_fills_never_over_commit() {
    const THREADS: u64 = 4;
    const ROUNDS: u64 = 500;
    const VOLUME: f64 = 3300.0;

    let mut registry = AdvanceRegistry::new();
    registry.register(Arc::new(TimelineBroker::new(ResourceId(0), CAPACITY)));
    let window = |round: u64| SimTime::new(100.0 * round as f64);
    for round in 0..ROUNDS {
        // Step i of the window offers 9.63 + 10 i.
        for step in 0..9u64 {
            let from = window(round) + 10.0 * step as f64;
            let obstacle = rigid(0, 90.37 - 10.0 * step as f64, from, from + 10.0);
            assert!(registry.book(&obstacle, SimTime::ZERO).is_booked());
        }
    }

    // Every round starts on a barrier, so the four contenders for one
    // window plan at the same moment.
    let barrier = std::sync::Barrier::new(THREADS as usize);
    let admitted: Vec<(u64, f64)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|thread| {
                let (registry, barrier) = (&registry, &barrier);
                scope.spawn(move || {
                    let mut admitted = Vec::new();
                    for round in 0..ROUNDS {
                        let session = 1 + round * THREADS + thread;
                        let request = AdvanceRequest::malleable(
                            SessionId(session),
                            ResourceId(0),
                            VOLUME,
                            window(round + 1),
                        )
                        .earliest(window(round));
                        barrier.wait();
                        let outcome = registry.book(&request, SimTime::ZERO);
                        if let Some(profile) = outcome.profile() {
                            assert!(
                                profile.segments.len() > 1,
                                "round {round} did not water-fill"
                            );
                            admitted.push((session, profile.volume));
                        }
                    }
                    admitted
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("booking thread"))
            .collect()
    });

    assert_eq!(
        admitted.len() as u64,
        ROUNDS,
        "one contender per window fits"
    );
    let broker = registry.get(ResourceId(0)).expect("registered");
    // The window minimum is the minimum over every breakpoint in it.
    let free = broker.available_over(SimTime::ZERO, window(ROUNDS));
    assert!(free >= -1e-9, "over-committed: minimum availability {free}");
    let booked: f64 = admitted.iter().map(|&(_, volume)| volume).sum();
    let released: f64 = admitted
        .iter()
        .map(|&(session, _)| registry.cancel_all(SessionId(session)).released_volume)
        .sum();
    assert!(
        (released - booked).abs() <= 1e-6 * booked,
        "released {released}, admitted {booked}"
    );
}

// ---------------------------------------------------------------------
// Rigid vs malleable admitted volume
// ---------------------------------------------------------------------

/// The obstacle course: a capacity-100 link carrying 52 rigid 70-unit
/// obstacles over the first half of every 20 TU, offered 60 transfers
/// of 400 units, one every 16 TU, each due 24 TU after it arrives and
/// capped at 50 units/TU. The transfers are offered twice, each time to
/// a fresh copy of the link: as rigid peak-rate windows starting on
/// arrival, and as malleable requests that leave start, duration and
/// rate to the planner. Returns `(count, volume)` admitted by each.
fn obstacle_course() -> ((usize, f64), (usize, f64)) {
    const TRANSFERS: u64 = 60;
    const VOLUME: f64 = 400.0;
    const RATE: f64 = 50.0;
    let link = || {
        let mut registry = AdvanceRegistry::new();
        registry.register(Arc::new(TimelineBroker::new(ResourceId(0), CAPACITY)));
        for k in 0..52u8 {
            let from = SimTime::new(20.0 * f64::from(k));
            let obstacle = rigid(k + 1, 70.0, from, from + 10.0);
            assert!(registry.book(&obstacle, SimTime::ZERO).is_booked());
        }
        registry
    };
    let (rigid_link, malleable_link) = (link(), link());
    let (mut rigid_admitted, mut malleable_admitted) = ((0, 0.0), (0, 0.0));
    for i in 0..TRANSFERS {
        let session = SessionId(1000 + i);
        let arrival = SimTime::new(16.0 * i as f64);
        let demand = ResourceVector::from_pairs([(ResourceId(0), RATE)]).expect("demand");
        let request = AdvanceRequest::rigid(session, demand, arrival, arrival + VOLUME / RATE);
        if rigid_link.book(&request, arrival).is_booked() {
            rigid_admitted.0 += 1;
            rigid_admitted.1 += VOLUME;
        }
        let request = AdvanceRequest::malleable(session, ResourceId(0), VOLUME, arrival + 24.0)
            .earliest(arrival)
            .max_rate(RATE);
        if let Some(profile) = malleable_link.book(&request, arrival).profile() {
            malleable_admitted.0 += 1;
            malleable_admitted.1 += profile.volume;
        }
    }
    (rigid_admitted, malleable_admitted)
}

/// Malleable booking admits five times the volume rigid peak-rate
/// booking does on the obstacle course. Counts and volumes were
/// recorded before the timed comparison that first reported them was
/// retired.
#[test]
fn malleable_booking_admits_five_times_the_rigid_volume() {
    let (rigid, malleable) = obstacle_course();
    assert_eq!(rigid, (12, 4_800.0));
    assert_eq!(malleable.0, 60);
    assert_eq!(malleable.1.to_bits(), 24_000.000_000_000_01f64.to_bits());
}

// ---------------------------------------------------------------------
// Malleable planner outcome pin
// ---------------------------------------------------------------------

/// Runs the fixed pin sequence — non-integer rigid obstacles, malleable
/// transfers under both policies with rate floors and ceilings, and
/// cancels, on one capacity-100 link — and renders every outcome as one
/// line of `f64::to_bits` hex.
fn malleable_pin_rows() -> Vec<String> {
    use qosr::broker::{AdvanceOutcome, AlphaPolicy, ReserveError};

    let mut registry = AdvanceRegistry::new();
    registry.register(Arc::new(TimelineBroker::new(ResourceId(0), CAPACITY)));
    let mut state: u64 = 0x243F_6A88_85A3_08D3;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        state >> 33
    };
    let mut unit = move || next() as f64 / (1u64 << 31) as f64;
    let bits = |x: f64| format!("{:016x}", x.to_bits());
    let render = |outcome: &AdvanceOutcome| match outcome {
        AdvanceOutcome::Booked { profile } | AdvanceOutcome::Repacked { profile, .. } => {
            let segments: Vec<String> = profile
                .segments
                .iter()
                .map(|s| {
                    format!(
                        " {}/{}/{}",
                        bits(s.from.value()),
                        bits(s.to.value()),
                        bits(s.rate)
                    )
                })
                .collect();
            format!(
                "booked [{} {}) volume {} psi {} segments {}",
                bits(profile.start.value()),
                bits(profile.end.value()),
                bits(profile.volume),
                bits(profile.psi),
                segments.len(),
            ) + &segments.concat()
        }
        AdvanceOutcome::Rejected {
            error,
            nearest_feasible_deadline,
        } => {
            let error = match error {
                ReserveError::Insufficient {
                    requested,
                    available,
                    ..
                } => {
                    format!("insufficient {} of {}", bits(*requested), bits(*available))
                }
                ReserveError::InvalidAmount { amount, .. } => format!("invalid {}", bits(*amount)),
                ReserveError::UnknownResource { .. } => "unknown".to_owned(),
            };
            let nearest = nearest_feasible_deadline.map_or("none".to_owned(), |d| bits(d.value()));
            format!("rejected {error} nearest {nearest}")
        }
    };

    let mut rows = Vec::new();
    let mut admitted: Vec<SessionId> = Vec::new();
    for i in 0..200u64 {
        let session = SessionId(i + 1);
        let now = SimTime::new(i as f64 * 0.3);
        let pick = unit();
        let row = if pick < 0.4 {
            let from = 1000.0 * unit();
            let to = from + 1.0 + 40.0 * unit();
            let request = rigid(
                session.0 as u8,
                3.0 + 45.0 * unit(),
                SimTime::new(from),
                SimTime::new(to),
            );
            let outcome = registry.book(&request, now);
            if outcome.is_booked() {
                admitted.push(session);
            }
            format!("rigid {}", render(&outcome))
        } else if pick < 0.8 {
            let earliest = 900.0 * unit();
            let window = 4.0 + 150.0 * unit();
            let load = unit();
            let volume = window * (1.0 + 90.0 * load);
            let mut request = AdvanceRequest::malleable(
                session,
                ResourceId(0),
                volume,
                SimTime::new(earliest + window),
            )
            .earliest(SimTime::new(earliest));
            if unit() < 0.7 {
                request = request.max_rate(20.0 + 80.0 * unit());
            }
            if unit() < 0.4 {
                request = request.min_rate(1.0 + 25.0 * unit());
            }
            if unit() < 0.5 {
                request = request.alpha_policy(AlphaPolicy::Tradeoff);
            }
            let outcome = registry.book(&request, now);
            if outcome.is_booked() {
                admitted.push(session);
            }
            format!("malleable {}", render(&outcome))
        } else {
            let victim = if admitted.is_empty() || unit() < 0.1 {
                session
            } else {
                admitted.swap_remove((unit() * admitted.len() as f64) as usize)
            };
            let out = registry.cancel_all(victim);
            format!(
                "cancel {} removed {}",
                bits(out.released_volume),
                out.bookings_removed
            )
        };
        rows.push(row);
    }
    rows
}

/// Recorded at the last commit whose malleable planner listed every
/// breakpoint to the end of the horizon before planning
/// (`TimelineBroker::availability_after`): the cursor-fed planner must
/// decide this sequence to the bit.
#[test]
fn malleable_outcomes_are_pinned() {
    let rows = malleable_pin_rows();
    assert_eq!(rows.len(), MALLEABLE_PIN.len());
    for (i, (got, want)) in rows.iter().zip(MALLEABLE_PIN).enumerate() {
        assert_eq!(got, want, "op {i}");
    }
}

#[rustfmt::skip]
const MALLEABLE_PIN: [&str; 200] = [
    "malleable booked [4073d3f839c08000 40744be4d3a95731) volume 40876c360f7a0792 psi 3ff0000000000000 segments 1 4073d3f839c08000/40744be4d3a95731/4059000000000000",
    "malleable booked [4065257c8cbc0000 4069d4d10cd550ec) volume 40a670b86cb95a8e psi 3fe8864585333333 segments 1 4065257c8cbc0000/4069d4d10cd550ec/405328e650100000",
    "malleable booked [406e175383e40000 406e3562eecab416) volume 4055c7c4dbd319fb psi 3fedad87fe000000 segments 1 406e175383e40000/406e3562eecab416/40572f923e700000",
    "malleable booked [404dfe2cbafc0000 404f6feb4815f634) volume 407203498d790b75 psi 3fefed5beb333333 segments 1 404dfe2cbafc0000/404f6feb4815f634/4058f16fcfc00000",
    "rigid booked [40688f4f42120000 406bb3efa1560000) volume 4073a4bec6a38904 psi 3fe11f3c87d2a27a segments 0",
    "rigid booked [404a5eecfbf80000 404dec6506880000) volume 406c259721ea5903 psi 3fd448528191eb85 segments 0",
    "malleable booked [40882935cd214000 4088312389ca8142) volume 4055c42e517df1b2 psi 3fec1c9126000000 segments 1 40882935cd214000/4088312389ca8142/4055f65165b00000",
    "malleable booked [4088c66d25c28000 408b957ecf6eff5a) volume 40c18e2e64761bf2 psi 3ff0000000000000 segments 1 4088c66d25c28000/408b957ecf6eff5a/4059000000000000",
    "rigid booked [40808e26113b8000 4081cd9aa48a0000) volume 4099b9524b3f8a66 psi 3fda62dd9dc51eb8 segments 0",
    "cancel 0000000000000000 removed 0",
    "malleable booked [4082322dd2304000 40830404e1dbac34) volume 409d3740e4b47eb6 psi 3fe6cfb07799999a segments 1 4082322dd2304000/40830404e1dbac34/4051d241dd700000",
    "malleable booked [4079d15cccdc0000 407f5d1618a0d409) volume 40c154a30cc7169c psi 3ff0000000000000 segments 1 4079d15cccdc0000/407f5d1618a0d409/4059000000000000",
    "malleable rejected insufficient 40be3769ba30b3b1 of 409d7f844891bd8d nearest 40823a648bd9e8f7",
    "rigid booked [407fda84e37a0000 4081197e65ab8000) volume 4090d2ce38a6a62c psi 3fdf3deec5abe796 segments 0",
    "malleable booked [407540218c138000 407700c19b5dd052) volume 40a5e7d0bf20ec01 psi 3ff0000000000000 segments 1 407540218c138000/407700c19b5dd052/4059000000000000",
    "rigid rejected insufficient 403084a22f060000 of 0000000000000000 nearest none",
    "malleable booked [4085f21ef8770000 4086283eb5ee9004) volume 4083975dea09d133 psi 3feda7116ccccccd segments 1 4085f21ef8770000/4086283eb5ee9004/40572a859d000000",
    "rigid booked [4050a3c7a3a40000 4054b34c1a580000) volume 40871a070a8965df psi 3fdd20f4543851ec segments 0",
    "malleable rejected insufficient 4074e77f0c83c14a of 0000000000000000 nearest 408bb4501e63f479",
    "malleable booked [408bbf1a39f2c000 408c46a3c80f5025) volume 4090b6091124d09b psi 3fe4335e17cccccd segments 1 408bbf1a39f2c000/408c46a3c80f5025/404f904305300000",
    "malleable booked [406e3562eecab416 4071227d47e01b7a) volume 40a96173adfe71ec psi 3ff0000000000000 segments 1 406e3562eecab416/4071227d47e01b7a/4059000000000000",
    "malleable booked [408c46a3c80f5025 408fbfb6b59a09d4) volume 40c5b4b64ca30886 psi 3ff0000000000000 segments 1 408c46a3c80f5025/408fbfb6b59a09d4/4059000000000000",
    "rigid booked [407fa45476a80000 4080280b242d0000) volume 4043a349841312a5 psi 3faa44e83e3fe5a7 segments 0",
    "malleable rejected insufficient 40878e0f077ffbfd of 0000000000000000 nearest 408c191ec448937f",
    "malleable booked [40858580c93cc000 40885433d30eedda) volume 40ac57f0890cd4b6 psi 3ff0000000000000 segments 5 40858580c93cc000/4085f21ef8770000/4045b96bd9a00000 4085f21ef8770000/4086283eb5ee9004/401d57a630000000 4086283eb5ee9004/40882935cd214000/4045b96bd9a00000 40882935cd214000/4088312389ca8142/40284d74d2800000 4088312389ca8142/40885433d30eedda/4045b96bd9a00000",
    "cancel 40876c360f7a0792 removed 1",
    "malleable booked [406cda9c3fb40000 406d41da33b9d066) volume 40721402476c91dc psi 3fecb06c59333333 segments 1 406cda9c3fb40000/406d41da33b9d066/405669d4a5b00000",
    "malleable booked [40830404e1dbac34 4083ea4279557ab3) volume 40a5d8265ed3f9f4 psi 3fef16c94b000000 segments 1 40830404e1dbac34/4083ea4279557ab3/405849cd42980000",
    "malleable rejected insufficient 40974d28c3398c8d of 0000000000000000 nearest 4080bff5def8c358",
    "cancel 4099b9524b3f8a66 removed 1",
    "malleable booked [4083ea4279557ab3 4084af3bd919d01c) volume 40a0a1cab031529e psi 3febab212d000000 segments 1 4083ea4279557ab3/4084af3bd919d01c/40559db1eb280000",
    "malleable rejected insufficient 409c44503d4a369e of 4091219154e9443a nearest 408ffe945b709969",
    "cancel 4073a4bec6a38904 removed 1",
    "cancel 4083975dea09d133 removed 1",
    "malleable booked [407f5d1618a0d409 408059a7b908e72b) volume 408d97a92eb69217 psi 3fe4f1126f51c6ca segments 1 407f5d1618a0d409/408059a7b908e72b/404622f545000000",
    "cancel 4090d2ce38a6a62c removed 1",
    "malleable rejected insufficient 40c820c18d3453da of 40c214213a319c84 nearest 40810fa7f02d00c2",
    "malleable rejected insufficient 40ae2f6918355b06 of 40a76012be216c19 nearest 4081b59563bdb67c",
    "cancel 40c154a30cc7169c removed 1",
    "rigid rejected insufficient 40361cb6e2dc0000 of 0000000000000000 nearest none",
    "malleable rejected insufficient 4084dcbc7b0486dd of 40722da94216cf85 nearest 4071b96d72196672",
    "cancel 40a670b86cb95a8e removed 1",
    "malleable booked [403f46a59af00000 404a10ff3364449e) volume 4092cf8a38b68397 psi 3fe278896a000000 segments 1 403f46a59af00000/404a10ff3364449e/404cdc56b5a00000",
    "malleable rejected insufficient 40aac0cc6113b6d1 of 40881936b6d92768 nearest 4090f5e7b3e51c44",
    "cancel 409d3740e4b47eb6 removed 1",
    "malleable booked [4054b34c1a580000 40601fc2e09d7f3f) volume 40a0c3289d918802 psi 3fddba641d333333 segments 1 4054b34c1a580000/40601fc2e09d7f3f/4047399e36d00000",
    "rigid rejected insufficient 4014777785b00000 of 0000000000000000 nearest none",
    "cancel 40a5e7d0bf20ec01 removed 1",
    "malleable booked [406926e9062b0000 406d7c5bb5af4043) volume 409b21a4dd039e28 psi 3ff0000000000000 segments 3 406926e9062b0000/406cda9c3fb40000/404b1496a9900000 406cda9c3fb40000/406d41da33b9d066/4024b15ad2800000 406d41da33b9d066/406d7c5bb5af4043/404b1496a9900000",
    "rigid booked [4084df442c0c8000 408575e456d30000) volume 4080731659e40215 psi 3fd1e4865c5851ec segments 0",
    "malleable rejected insufficient 40ab3cb4d8d6a3a0 of 40aacfcd1d41d8a9 nearest 405f2146d37d8354",
    "cancel 0000000000000000 removed 0",
    "cancel 40a5d8265ed3f9f4 removed 1",
    "malleable booked [407920f337938000 407e1db3b9fbe43b) volume 40b99f84e19daacb psi 3fea4e0902666666 segments 1 407920f337938000/407e1db3b9fbe43b/40548cf709e00000",
    "rigid booked [407208242ef70000 4072a069fc060000) volume 40751f9bd6cb471b psi 3fd6ba6557a51eb8 segments 0",
    "malleable booked [4050f460dfd80000 4054130c67bba3da) volume 40853f9401eccfcf psi 3ff0000000000000 segments 1 4050f460dfd80000/4054130c67bba3da/404b3e411e340000",
    "malleable booked [4082579dfeb94000 4085e0e0cd2957b4) volume 40b73d955010f687 psi 3ff0000000000000 segments 6 4082579dfeb94000/4083ea4279557ab3/40501d1e52080000 4083ea4279557ab3/4084af3bd919d01c/402b1270a6c00000 4084af3bd919d01c/4084df442c0c8000/40501d1e52080000 4084df442c0c8000/408575e456d30000/40501d1e52080000 408575e456d30000/40858580c93cc000/40501d1e52080000 40858580c93cc000/4085e0e0cd2957b4/404c469426600000",
    "malleable booked [40658567c5bf0000 406716ccfaaa2f1a) volume 40929e7406bcd1e2 psi 3fee6635bd666666 segments 1 40658567c5bf0000/406716ccfaaa2f1a/4057bfd9fbf80000",
    "rigid rejected insufficient 403faeeacce60000 of 4031cc23d8800000 nearest none",
    "cancel 0000000000000000 removed 0",
    "malleable rejected insufficient 40b58ea4f9b4c5a9 of 40972a881c5753a5 nearest 4090e341359fe10c",
    "rigid booked [40835802dd9d8000 4083d7814d670000) volume 40783bff78eb8698 psi 3fe5e76c88b23ecc segments 0",
    "malleable rejected insufficient 40b59a02d943cc25 of 40b0338110fbe866 nearest 4082f2abb6bce1b0",
    "malleable booked [407dcedcc2a10000 407f4c8d6292e4a0) volume 40969d534044e314 psi 3ff0000000000000 segments 2 407dcedcc2a10000/407e1db3b9fbe43b/4031cc23d8800000 407e1db3b9fbe43b/407f4c8d6292e4a0/4051f535b9c80000",
    "malleable booked [40766014c30c0000 4077891e7aceeeb4) volume 409d01f2f2094f94 psi 3ff0000000000000 segments 1 40766014c30c0000/4077891e7aceeeb4/4059000000000000",
    "malleable booked [407aab15838a8000 40811280efe626f9) volume 40b02714807b9209 psi 3ff0000000000000 segments 7 407aab15838a8000/407dcedcc2a10000/4031cc23d8800000 407e1db3b9fbe43b/407f4c8d6292e4a0/403c2b2918e00000 407f4c8d6292e4a0/407f5d1618a0d409/40501b2390580000 407f5d1618a0d409/407fa45476a80000/404bdd0abb000000 407fa45476a80000/4080280b242d0000/404a08b9d7f20000 4080280b242d0000/408059a7b908e72b/404bdd0abb000000 408059a7b908e72b/40811280efe626f9/40501b2390580000",
    "rigid rejected insufficient 403bd496d3300000 of 0000000000000000 nearest none",
    "rigid rejected insufficient 403275a301400000 of 0000000000000000 nearest none",
    "rigid booked [408144b23a950000 4081eee72cc60000) volume 4080ff2fda7189d1 psi 3fd05c6cbed851ec segments 0",
    "malleable booked [40712b9e3ef50000 4073ebd48accb38c) volume 40a62c983ee44f41 psi 3ff0000000000000 segments 1 40712b9e3ef50000/4073ebd48accb38c/40501f3069c38000",
    "malleable booked [4067dd9306800000 40681a273c209a14) volume 4067a9e4f2bc2fd0 psi 3ff0000000000000 segments 1 4067dd9306800000/40681a273c209a14/4059000000000000",
    "cancel 4090b6091124d09b removed 1",
    "malleable rejected insufficient 409ae9b6c294c73a of 4093922a7e2858de nearest 4087dd0fb548db52",
    "cancel 4067a9e4f2bc2fd0 removed 1",
    "cancel 40751f9bd6cb471b removed 1",
    "rigid rejected insufficient 4044a25f93e60000 of 0000000000000000 nearest none",
    "malleable booked [4073ebd48accb38c 407540b22330eb52) volume 40865369159d6dd2 psi 3fd57652a999999a segments 1 4073ebd48accb38c/407540b22330eb52/4040c47094800000",
    "malleable rejected insufficient 40a4e1898590006c of 405d97a4a551073a nearest 40881bd8e81bf9f4",
    "cancel 40783bff78eb8698 removed 1",
    "rigid rejected insufficient 404581eed3370000 of 404523a94a600000 nearest none",
    "rigid rejected insufficient 4042c56985510000 of 0000000000000000 nearest none",
    "cancel 40ac57f0890cd4b6 removed 5",
    "cancel 4080ff2fda7189d1 removed 1",
    "malleable rejected insufficient 40928a78feca75e4 of 0000000000000000 nearest 408fe3eaae137bb5",
    "malleable booked [40749f40f54a8000 4077a03f2993818a) volume 40a466b2f35e94a5 psi 3ff0000000000000 segments 3 40749f40f54a8000/407540b22330eb52/40509dc7b5c00000 407540b22330eb52/40766014c30c0000/4059000000000000 4077891e7aceeeb4/4077a03f2993818a/4059000000000000",
    "malleable booked [4081add6ce35c000 40839384d9773c69) volume 40a0dbe02800b5e1 psi 3ff0000000000000 segments 1 4081add6ce35c000/40839384d9773c69/4041c5c35bf00000",
    "cancel 0000000000000000 removed 0",
    "malleable rejected insufficient 40a423110871bbff of 409e9c1b50b1f6b8 nearest 4061c6664dca6229",
    "malleable rejected insufficient 409100c59570d7e3 of 4085d91c88a8d0af nearest 4090112529451ea3",
    "malleable booked [40728de648748000 40736fc9f5dd01f2) volume 407f55ef3aa60aba psi 3ff0000000000000 segments 1 40728de648748000/40736fc9f5dd01f2/4041c19f2c790000",
    "rigid rejected insufficient 4021b48f2e280000 of 0000000000000000 nearest none",
    "malleable rejected insufficient 40af2082550ff1d1 of 409d8b0a214f646b nearest 4081a6d8d4aa4765",
    "rigid rejected insufficient 4041b0d9ee7e0000 of 40284d74d2800000 nearest none",
    "malleable rejected insufficient 40b47c4c10870a2d of 4091bb0933d0108b nearest 408767f5b1592e5d",
    "malleable booked [40858660790e4000 4085ed1eadf3de18) volume 4081700a27cee9d0 psi 3ff0000000000000 segments 1 40858660790e4000/4085ed1eadf3de18/4045b96bd9a00000",
    "malleable rejected insufficient 40ad305bef8cd7cf of 40898325fee00fc1 nearest 408062b2d99e74f5",
    "rigid booked [405a68bc11dc0000 406114882e300000) volume 4081b28e7c162af3 psi 3fd5d46cc2c0511e segments 0",
    "malleable rejected insufficient 40904400dbff0beb of 0000000000000000 nearest 4085f99e0b9f1e77",
    "rigid rejected insufficient 40345c6d4dc80000 of 4014026040800000 nearest none",
    "rigid rejected insufficient 404363a3e3dd0000 of 40284d74d2800000 nearest none",
    "cancel 40c5b4b64ca30886 removed 1",
    "cancel 407203498d790b75 removed 1",
    "malleable rejected insufficient 40a69ddfdf30dd77 of 40a1459897c198af nearest 4088b5670b88a91d",
    "rigid rejected insufficient 403b5f85d9ce0000 of 0000000000000000 nearest none",
    "rigid booked [408c40509ef78000 408c94cc1b3d0000) volume 407517f99f6c124d psi 3fd474316191eb85 segments 0",
    "malleable booked [4085e0e0cd2957b4 4087d99fc58acdc3) volume 40abe005be526460 psi 3ff0000000000000 segments 1 4085e0e0cd2957b4/4087d99fc58acdc3/404c469426600000",
    "cancel 409d01f2f2094f94 removed 1",
    "rigid rejected insufficient 40333c27dc640000 of 0000000000000000 nearest none",
    "rigid rejected insufficient 404681e1cb780000 of 0000000000000000 nearest none",
    "rigid rejected insufficient 40361be37d700000 of 401e59d31e580000 nearest none",
    "cancel 406c259721ea5903 removed 1",
    "cancel 409b21a4dd039e28 removed 3",
    "rigid rejected insufficient 4047745515c70000 of 4014026040800000 nearest none",
    "rigid rejected insufficient 403a725dc7420000 of 4014026040800000 nearest none",
    "cancel 407f55ef3aa60aba removed 1",
    "cancel 40a466b2f35e94a5 removed 3",
    "cancel 40871a070a8965df removed 1",
    "malleable rejected insufficient 40ad3263ac741a23 of 40a80e7948f5f8a2 nearest 4074455fb80562a5",
    "cancel 4043a349841312a5 removed 1",
    "malleable rejected insufficient 40a618ba8a6e1983 of 40a53c427122a6e4 nearest 408c8626053eaaf2",
    "cancel 40b73d955010f687 removed 6",
    "rigid rejected insufficient 403c7b8f019e0000 of 0000000000000000 nearest none",
    "rigid booked [407596b7d12a0000 407784039bcb0000) volume 4072df818fad4f0e psi 3fb912d079c7ae14 segments 0",
    "rigid booked [4068ace037640000 4069631ca62c0000) volume 406631c1f8c2190d psi 3fd3f4347b6b851f segments 0",
    "malleable booked [408059a7b908e72b 4081eda252f497e0) volume 409c11f7b804f58f psi 3ff0000000000000 segments 1 408059a7b908e72b/4081eda252f497e0/4041c9b8df500000",
    "rigid rejected insufficient 4031ba7131ee0000 of 0000000000000000 nearest none",
    "cancel 409c11f7b804f58f removed 1",
    "malleable rejected insufficient 40c040a0d290ac99 of 409dfa6289f57cd6 nearest 4080bc46dea748da",
    "malleable rejected insufficient 40a1d408f1b45533 of 0000000000000000 nearest 4081f4affbc158ff",
    "malleable rejected insufficient 40b8a64a1690c86a of 40add346ec6af6c1 nearest 407629fe5cc35202",
    "malleable booked [4043800000000000 4055d1cf828626b6) volume 409fe48e0af06b0b psi 3ff0000000000000 segments 1 4043800000000000/4055d1cf828626b6/404523a94a600000",
    "rigid booked [405438f4684c0000 405dfc2c4bb80000) volume 4076ee9acf98dbd4 psi 3feaacfcb1cedf6b segments 0",
    "malleable rejected insufficient 40b51f585e20310c of 4044de63ae7662ef nearest 408318e6c9f2b5cb",
    "malleable booked [4084af3bd919d01c 40854c269427683f) volume 4096145bd97e4422 psi 3ff0000000000000 segments 1 4084af3bd919d01c/40854c269427683f/405202bb83ed8000",
    "cancel 4081b28e7c162af3 removed 1",
    "rigid rejected insufficient 403fcfaccbe60000 of 0000000000000000 nearest none",
    "rigid booked [4061f6d5866e0000 4062e2681be80000) volume 4061dd1d988f6763 psi 3fc8d92cd58a3d71 segments 0",
    "malleable booked [406a442a79670000 4074303b4341fd09) volume 40b10a9aca90c81b psi 3ff0000000000000 segments 7 406a442a79670000/406cda9c3fb40000/405625387c880000 406cda9c3fb40000/406d41da33b9d066/4024b15ad2800000 406d41da33b9d066/406e175383e40000/405625387c880000 406e175383e40000/406e3562eecab416/401d06dc19000000 4071227d47e01b7a/40712b9e3ef50000/405625387c880000 40712b9e3ef50000/4073ebd48accb38c/4041c19f2c790000 4073ebd48accb38c/4074303b4341fd09/40509dc7b5c00000",
    "rigid rejected insufficient 400f662ecdf00000 of 0000000000000000 nearest none",
    "rigid rejected insufficient 402c60973b980000 of 0000000000000000 nearest none",
    "malleable rejected insufficient 40c308b1a51dea04 of 40a5a282bedf1882 nearest 4086b7ed034b4182",
    "malleable rejected insufficient 40bb91ce9a519535 of 40adb779d41c0702 nearest 4088beef6b6cddaa",
    "rigid booked [408f1840d4bd0000 40900fd2fbc3c000) volume 4085b043e707ba25 psi 3fcafb5dde970a3d segments 0",
    "rigid rejected insufficient 4043afa947730000 of 0000000000000000 nearest none",
    "cancel 40a0dbe02800b5e1 removed 1",
    "cancel 40969d534044e314 removed 2",
    "malleable booked [405bdacb549e0000 40627f2d8391f91f) volume 40a3ffc651ace151 psi 3ff0000000000000 segments 4 405bdacb549e0000/405dfc2c4bb80000/404613b4c1c00000 405dfc2c4bb80000/40601fc2e09d7f3f/404ac661c9300000 40601fc2e09d7f3f/4061f6d5866e0000/40570521db500000 4061f6d5866e0000/40627f2d8391f91f/405425953e4b0000",
    "cancel 40abe005be526460 removed 1",
    "malleable rejected insufficient 402fda39282b3eff of 0000000000000000 nearest 40671e0eaea21ad7",
    "cancel 40b99f84e19daacb removed 1",
    "malleable booked [4081b98cf2358000 4083796eb7dc669e) volume 40aa776bf41cf94d psi 3fe35d0b24333333 segments 1 4081b98cf2358000/4083796eb7dc669e/404e416168900000",
    "cancel 0000000000000000 removed 0",
    "rigid booked [407e58d5af900000 407e746a10e40000) volume 40171cb56d24fb26 psi 3fa7e490e11a2010 segments 0",
    "rigid rejected insufficient 4044a4aa16170000 of 402b1270a6c00000 nearest none",
    "rigid rejected insufficient 40383150a7b20000 of 402b1270a6c00000 nearest none",
    "malleable rejected insufficient 40985dd5b39cb1dc of 408865945a304e46 nearest 4069e63ab9ebc529",
    "rigid rejected insufficient 403c90f96f740000 of 0000000000000000 nearest none",
    "malleable rejected insufficient 408e5b04afc328f7 of 4080412b732307ae nearest 4083a06364688522",
    "malleable rejected insufficient 40c24665a61f029e of 40b5975cb8994812 nearest 4086d5c629e475a5",
    "rigid booked [408568d5fe800000 408671ebf5530000) volume 406e836435b1681a psi 3fc0aca162563eda segments 0",
    "malleable booked [40811280efe626f9 408186ac9262b3a0) volume 4091d4afbe53629e psi 3fe925c442cccccd segments 1 40811280efe626f9/408186ac9262b3a0/4053a58154300000",
    "malleable rejected insufficient 40bd2769ce6143b8 of 40ac347cfa70d9b3 nearest 4078036b73d0042e",
    "cancel 4092cf8a38b68397 removed 1",
    "malleable booked [4077c163bf5e0000 407926e55269b68f) volume 4099f6825f457ad9 psi 3fe7cc007e99999a segments 1 4077c163bf5e0000/407926e55269b68f/4052976062e80000",
    "malleable rejected insufficient 40998bb57be84892 of 408d670a4c7603b9 nearest 407591309e6203c9",
    "cancel 4080731659e40215 removed 1",
    "malleable rejected insufficient 40b356a529a0d79f of 40af81f7aab10469 nearest 407ac9e0102d8486",
    "malleable rejected insufficient 40bcd86e7c5d9456 of 40912009550e7440 nearest 40907b103755ad99",
    "rigid booked [408d41a6550f0000 408dd00bda688000) volume 4085dc79e9c4ab9e psi 3fd9273f3d3851ec segments 0",
    "malleable rejected insufficient 40aa2d9e556fe06f of 40aa208f43e238cc nearest 406b5873e0a335b0",
    "rigid rejected insufficient 402e67165efc0000 of 0000000000000000 nearest none",
    "rigid booked [4043118f33000000 404c712873480000) volume 40798e1925a91918 psi 3fd82ede3dbdfc09 segments 0",
    "malleable rejected insufficient 40c5ef32075a5b2e of 40ba392ef1f3b539 nearest 408565ed7fdbd888",
    "cancel 0000000000000000 removed 0",
    "cancel 0000000000000000 removed 0",
    "malleable rejected insufficient 40c41e97b333107a of 40bae01379ef2c31 nearest 40805ffa32751013",
    "rigid booked [4034442a22b00000 404721972f900000) volume 4088c8e096ebb8ed psi 3feb2faeef072702 segments 0",
    "rigid booked [408d0d4901248000 408d8235020e0000) volume 40733458b366e2ce psi 3fd62af4e2903b69 segments 0",
    "rigid booked [408f1aaa56098000 408f6f52c12e0000) volume 4071b1bfc214f991 psi 3fd5b20528fbf917 segments 0",
    "rigid rejected insufficient 40449740a4d20000 of 0000000000000000 nearest none",
    "malleable rejected insufficient 40a1aecb6a2ee507 of 0000000000000000 nearest 408c631bb413742f",
    "rigid rejected insufficient 402da653e5900000 of 0000000000000000 nearest none",
    "malleable rejected insufficient 40c9ff6fff99d342 of 40b9fee632e0b170 nearest 408f7dfd9a3b40ab",
    "rigid booked [40671731f8de0000 4068aa645cf60000) volume 4065f7d649734c27 psi 3fc1da84ef170a3d segments 0",
    "malleable rejected insufficient 40baa82093f86d03 of 40a57148459bba61 nearest 4087d3f6b8a7d016",
    "cancel 40c18e2e64761bf2 removed 1",
    "malleable rejected insufficient 40a7517ca8344e7e of 40a4a94d2a8242f2 nearest 408ab25216842bad",
    "rigid booked [408936a006ca8000 408a6ad903510000) volume 4097269b046282d9 psi 3fd89cbd1f2b851f segments 0",
    "malleable booked [4081908a8de74000 4081f661aac2668c) volume 407f6b2f8ac3098e psi 3ff0000000000000 segments 1 4081908a8de74000/4081f661aac2668c/4043be9e97700000",
    "rigid booked [408d21303ebc0000 408e0eb008ca8000) volume 408fb10a8ad10d5c psi 3feb8d887fb4a827 segments 0",
    "malleable rejected insufficient 40a76f1c66f9055b of 40909d06fcfe6942 nearest 407ad5a337a9dcf5",
    "malleable rejected insufficient 40bb03c5343bbdeb of 40a0c40d97e61bb8 nearest 408f2592891d0115",
    "malleable rejected insufficient 40987b83e1f44d92 of 407b849bdc44ff31 nearest 40818347d20243f3",
    "cancel 40a0a1cab031529e removed 1",
    "malleable rejected insufficient 40b93c091c8cb122 of 40b633a5e40be923 nearest 408ae46ddfc0497c",
    "malleable rejected insufficient 40b08a3579fdd6f4 of 40885066e38ea244 nearest 407f286251500205",
    "rigid booked [408a0162e8a80000 408a92536bd08000) volume 4082905f9887cb14 psi 3fe10c7b45119367 segments 0",
    "malleable booked [404d8ccccccccccc 4063b273d6c3310e) volume 40a584319ca19048 psi 3ff0000000000000 segments 9 404d8ccccccccccc/4050f460dfd80000/404cdc56b5a00000 4050f460dfd80000/4054130c67bba3da/4009e15976c00000 4054130c67bba3da/405438f4684c0000/404cdc56b5a00000 405438f4684c0000/4054b34c1a580000/404829a9ae300000 4054b34c1a580000/4055d1cf828626b6/3ffe016eec000000 4055d1cf828626b6/405bdacb549e0000/404613b4c1c00000 40601fc2e09d7f3f/4061f6d5866e0000/401fade24b000000 40627f2d8391f91f/4062e2681be80000/405425953e4b0000 4062e2681be80000/4063b273d6c3310e/4058bb2c4c680000",
    "malleable rejected insufficient 40bd04e68738bc5b of 408bb64541e68cc3 nearest 407a695bd464f637",
    "rigid booked [408a2f1369198000 408aef66dad28000) volume 40845fbebed9f88b psi 3fee2e18012111bf segments 0",
];
