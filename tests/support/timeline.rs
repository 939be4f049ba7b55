//! The linear reservation timeline: the test oracle for
//! [`TimelineIndex`].
//!
//! A `BTreeMap` of `time → delta` whose window queries sum every delta
//! up to the window and scan the ones inside it, O(n) per query. It
//! holds the same piecewise-constant profile as the index with none of
//! the tree, so the differential tests in `advance_properties.rs` check
//! the index against it operation by operation.

use qosr::broker::{SimTime, TimelineIndex};
use std::collections::BTreeMap;

/// Deltas at or below this magnitude are dropped, merging the two
/// segments they separate. The same threshold as `TimelineIndex`'s, so
/// the two keep identical breakpoint sets under identical operations.
const DELTA_EPS: f64 = 1e-12;

/// A piecewise-constant "reserved amount" profile over time.
///
/// Stored as a delta map: at each breakpoint time the reserved total
/// changes by the stored delta. The reserved amount before the first
/// breakpoint is zero (plus whatever [`Timeline::compact`] folded into
/// the base).
#[derive(Debug, Clone, Default)]
pub struct Timeline {
    /// Reserved amount before the first remaining breakpoint.
    base: f64,
    /// `time → delta` (summing deltas up to and including `t` plus
    /// `base` gives the reserved amount at `t`).
    deltas: BTreeMap<SimTime, f64>,
}

impl Timeline {
    /// An empty timeline (nothing reserved, ever).
    pub fn new() -> Self {
        Self::default()
    }

    /// The maximum reserved amount over `[from, to)`.
    pub fn max_reserved(&self, from: SimTime, to: SimTime) -> f64 {
        assert!(from <= to, "window must be ordered");
        // Reserved level just before `from`:
        let mut level = self.base;
        for (_, d) in self.deltas.range(..=from) {
            level += d;
        }
        let mut max = level;
        if from < to {
            for (_, d) in self.deltas.range((
                std::ops::Bound::Excluded(from),
                std::ops::Bound::Excluded(to),
            )) {
                level += d;
                max = max.max(level);
            }
        }
        max
    }

    /// Adds `amount` over `[from, to)`. Deltas that cancel to (near)
    /// zero are pruned immediately, so abutting equal-rate windows do
    /// not accumulate breakpoints between them.
    pub fn add(&mut self, from: SimTime, to: SimTime, amount: f64) {
        assert!(from < to, "window must be non-empty");
        for (key, signed) in [(from, amount), (to, -amount)] {
            let entry = self.deltas.entry(key).or_insert(0.0);
            *entry += signed;
            if entry.abs() <= DELTA_EPS {
                self.deltas.remove(&key);
            }
        }
    }

    /// Removes a previously added window (exact inverse of
    /// [`Timeline::add`]).
    pub fn remove(&mut self, from: SimTime, to: SimTime, amount: f64) {
        self.add(from, to, -amount);
    }

    /// Folds all breakpoints strictly before `now` into the base level
    /// and merges adjacent equal-valued segments (near-zero deltas left
    /// over from float cancellation).
    pub fn compact(&mut self, now: SimTime) {
        let keep = self.deltas.split_off(&now);
        // `split_off(&now)` keeps keys >= now in `keep`; fold the rest.
        for (_, d) in std::mem::take(&mut self.deltas) {
            self.base += d;
        }
        self.deltas = keep;
        // A (near-)zero delta separates two segments at the same level:
        // dropping it merges them.
        self.deltas.retain(|_, d| d.abs() > DELTA_EPS);
    }

    /// Number of breakpoints currently stored.
    pub fn breakpoints(&self) -> usize {
        self.deltas.len()
    }
}

fn t(x: f64) -> SimTime {
    SimTime::new(x)
}

#[test]
fn timeline_max_reserved() {
    let mut tl = Timeline::new();
    assert_eq!(tl.max_reserved(t(0.0), t(100.0)), 0.0);
    tl.add(t(10.0), t(20.0), 5.0);
    tl.add(t(15.0), t(30.0), 7.0);
    // [0,10): 0; [10,15): 5; [15,20): 12; [20,30): 7.
    assert_eq!(tl.max_reserved(t(0.0), t(10.0)), 0.0);
    assert_eq!(tl.max_reserved(t(0.0), t(12.0)), 5.0);
    assert_eq!(tl.max_reserved(t(12.0), t(40.0)), 12.0);
    assert_eq!(tl.max_reserved(t(20.0), t(40.0)), 7.0);
    assert_eq!(tl.max_reserved(t(30.0), t(40.0)), 0.0);
    // Point-in-time query at a boundary sees the level at that time.
    assert_eq!(tl.max_reserved(t(15.0), t(15.0)), 12.0);
    // Window ending exactly at a rise does not include it.
    assert_eq!(tl.max_reserved(t(0.0), t(15.0)), 5.0);
}

#[test]
fn timeline_remove_and_compact() {
    let mut tl = Timeline::new();
    tl.add(t(10.0), t(20.0), 5.0);
    tl.add(t(30.0), t(40.0), 9.0);
    tl.remove(t(10.0), t(20.0), 5.0);
    assert_eq!(tl.max_reserved(t(0.0), t(25.0)), 0.0);
    assert_eq!(tl.breakpoints(), 2); // only the 30/40 pair remains
    tl.compact(t(35.0));
    // Base now carries the level at 30 (+9); breakpoint at 40 kept.
    assert_eq!(tl.max_reserved(t(35.0), t(39.0)), 9.0);
    assert_eq!(tl.max_reserved(t(41.0), t(50.0)), 0.0);
    assert_eq!(tl.breakpoints(), 1);
}

#[test]
fn breakpoints_stay_bounded_under_add_remove_cycles() {
    let mut tl = Timeline::new();
    let mut ix = TimelineIndex::new();
    // Abutting equal-rate windows: interior deltas cancel, so the
    // profile stays two breakpoints no matter how many windows.
    for i in 0..1000 {
        let s = t(f64::from(i));
        tl.add(s, s + 1.0, 2.0);
        ix.add(s, s + 1.0, 2.0);
    }
    assert_eq!(tl.breakpoints(), 2);
    assert_eq!(ix.breakpoints(), 2);
    assert_eq!(tl.max_reserved(t(0.0), t(1000.0)), 2.0);
    assert_eq!(ix.max_reserved(t(0.0), t(1000.0)), 2.0);
    for i in 0..1000 {
        let s = t(f64::from(i));
        tl.remove(s, s + 1.0, 2.0);
        ix.remove(s, s + 1.0, 2.0);
    }
    assert_eq!(tl.breakpoints(), 0);
    assert_eq!(ix.breakpoints(), 0);
    // Churn at one window never accumulates breakpoints either.
    for _ in 0..100 {
        tl.add(t(5.0), t(6.0), 1.5);
        tl.remove(t(5.0), t(6.0), 1.5);
        ix.add(t(5.0), t(6.0), 1.5);
        ix.remove(t(5.0), t(6.0), 1.5);
    }
    assert_eq!(tl.breakpoints(), 0);
    assert_eq!(ix.breakpoints(), 0);
}

#[test]
fn index_matches_timeline_oracle() {
    // Deterministic differential run with integer amounts (exact
    // f64 arithmetic, so tree association cannot diverge from the
    // linear scan): every query must be bit-identical.
    let mut tl = Timeline::new();
    let mut ix = TimelineIndex::new();
    let mut state: u64 = 0x9E3779B97F4A7C15;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        state >> 33
    };
    let mut live: Vec<(SimTime, SimTime, f64)> = Vec::new();
    for step in 0..400 {
        if !live.is_empty() && next() % 4 == 0 {
            let (a, b, amt) = live.swap_remove((next() as usize) % live.len());
            tl.remove(a, b, amt);
            ix.remove(a, b, amt);
        } else {
            let from = t((next() % 200) as f64);
            let to = from + (1 + next() % 40) as f64;
            let amount = (1 + next() % 50) as f64;
            tl.add(from, to, amount);
            ix.add(from, to, amount);
            live.push((from, to, amount));
        }
        let a = t((next() % 220) as f64);
        let b = a + (next() % 60) as f64;
        assert_eq!(ix.max_reserved(a, b), tl.max_reserved(a, b), "step {step}");
        assert_eq!(ix.breakpoints(), tl.breakpoints(), "step {step}");
        if step % 97 == 0 {
            let now = t((next() % 100) as f64);
            tl.compact(now);
            ix.compact(now);
            live.retain(|(_, to, _)| *to >= now);
        }
    }
}
