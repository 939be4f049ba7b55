//! Advance reservations — the paper's stated next step (§6: *"One of
//! our next steps is to extend our multi-resource reservation framework
//! to support advance reservations"*, following Foster et al.'s
//! GARA architecture).
//!
//! An advance reservation books `amount` units of a resource over a
//! future time window `[from, to)`. The broker keeps a
//! **piecewise-constant reservation timeline**; a window reservation is
//! admitted iff the *minimum* availability over the window covers the
//! amount. Planning for a future window then reuses the ordinary QRG
//! machinery: [`AdvanceRegistry::snapshot_window`] produces an
//! [`AvailabilityView`] of per-resource window minima, and any planner
//! from `qosr-core` runs on it unchanged.
//!
//! The timeline is a [`TimelineIndex`]: a balanced search tree (treap)
//! over the profile's level deltas, augmented with subtree delta sums
//! and maximum prefix sums, making point levels, window maxima,
//! successor queries and range adds all O(log n) in the number of
//! breakpoints. It is the only structure [`TimelineBroker`] keeps. Its
//! differential-testing oracle, a linear `BTreeMap` of `time → delta`
//! that scans every breakpoint, lives with the tests
//! (`tests/support/timeline.rs`, driven by `tests/advance_properties.rs`).
//!
//! A planner that walks the profile in time order does so through
//! `TimelineIndex::cursor`: one `(time, reserved level)` step per pull,
//! O(log n) each, so a walk costs what it consumes — not the distance
//! to the end of the horizon. Planning and committing happen under one
//! acquisition of the broker's lock (`TimelineBroker::lock`): the
//! planner reads the index behind the guard and books through the same
//! guard, so no other booking can land between validation and install.
//!
//! Booking goes through the request/outcome API in
//! [`malleable`](crate::malleable): build an
//! [`AdvanceRequest`](crate::AdvanceRequest) (rigid window or malleable
//! bulk transfer) and hand it to [`AdvanceRegistry::book`], which
//! returns a structured [`AdvanceOutcome`](crate::AdvanceOutcome).

use crate::malleable::{
    book_malleable, AdvanceOutcome, AdvanceProfile, AdvanceRequest, AdvanceShape, MalleableSpec,
};
use crate::request::SpanCollector;
use crate::{ReserveError, SessionId, SimTime};
use parking_lot::{Mutex, MutexGuard};
use qosr_core::AvailabilityView;
use qosr_model::{ResourceId, ResourceVector};
use qosr_obs::{Counters, EventKind, NullSink, SpanKind, TraceEvent, TraceSink, Tracer};
use std::cmp::Ordering;
use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

/// Deltas at or below this magnitude are dropped: they separate two
/// segments at (numerically) the same level, so pruning them *is* the
/// merge of adjacent equal-valued segments. The linear test oracle in
/// `tests/support/timeline.rs` uses the same threshold, so it and
/// [`TimelineIndex`] keep identical breakpoint sets under identical
/// operation sequences.
const DELTA_EPS: f64 = 1e-12;

/// The null link of the index arena and the booking slab: no node, no
/// slot, end of list.
const NIL: u32 = u32::MAX;

/// A slot number for the next push onto an arena of `len` entries.
fn next_slot(len: usize) -> u32 {
    u32::try_from(len)
        .ok()
        .filter(|&i| i != NIL)
        .expect("arena outgrew u32 slot numbers")
}

/// One node of the [`TimelineIndex`] treap: a breakpoint (`key`,
/// `delta`) plus cached subtree aggregates. 48 bytes; children are slot
/// numbers in the index's arena.
#[derive(Debug, Clone)]
struct IndexNode {
    key: SimTime,
    delta: f64,
    /// Heap priority — a deterministic hash of the key bits, so tree
    /// shape (and thus float association) is a pure function of the
    /// breakpoint set, independent of insertion order. A full `u64`: a
    /// narrower hash ties more often, and a tie can change the shape.
    priority: u64,
    /// Sum of deltas in this subtree.
    sum: f64,
    /// Maximum over the subtree's in-order delta prefix sums
    /// (`NEG_INFINITY` never appears on a live node).
    maxp: f64,
    /// Left child ([`NIL`] if none); on a free slot, the next free slot.
    left: u32,
    /// Right child ([`NIL`] if none).
    right: u32,
}

const _: () = assert!(std::mem::size_of::<IndexNode>() == 48);

fn splitmix64(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl IndexNode {
    fn new(key: SimTime, delta: f64) -> Self {
        IndexNode {
            key,
            delta,
            priority: splitmix64(key.value().to_bits()),
            sum: delta,
            maxp: delta,
            left: NIL,
            right: NIL,
        }
    }
}

/// An O(log n) reservation timeline: a piecewise-constant "reserved
/// amount" profile stored as level deltas at breakpoint times, held in
/// a treap keyed by breakpoint time and augmented with subtree delta
/// sums and maximum prefix sums. The reserved amount before the first
/// breakpoint is zero, plus whatever [`TimelineIndex::compact`] folded
/// into the base.
///
/// The nodes live in one `Vec` and link to each other by `u32` slot
/// number, not one heap allocation each; slots a removal or compaction
/// frees are threaded onto a free list and reused by the next insert,
/// so the arena never outgrows the peak breakpoint count.
///
/// * [`TimelineIndex::add`]/[`TimelineIndex::remove`] — two point
///   upserts, O(log n) each.
/// * [`TimelineIndex::max_reserved`] — a prefix-sum query at the window
///   start plus one max-prefix aggregate over the open interval,
///   O(log n) total (a linear delta map walks every breakpoint).
/// * [`TimelineIndex::compact`] — folds expired breakpoints into the
///   base using cached subtree sums.
/// * `next_after` / `cursor` (crate-internal) — the successor query and
///   the step-at-a-time walk the malleable planner reads, O(log n) per
///   step taken.
///
/// Tree shape is deterministic in the breakpoint *set* (priorities are
/// hashed from key bits), so query results do not depend on the order
/// in which bookings arrived.
#[derive(Debug, Clone)]
pub struct TimelineIndex {
    /// Reserved amount before the first remaining breakpoint.
    base: f64,
    /// Slot of the root node ([`NIL`] when empty).
    root: u32,
    /// The arena: live nodes and free slots.
    nodes: Vec<IndexNode>,
    /// Head of the free-slot list, threaded through `left`.
    free: u32,
    /// Live nodes (breakpoints).
    len: usize,
}

impl Default for TimelineIndex {
    fn default() -> Self {
        TimelineIndex {
            base: 0.0,
            root: NIL,
            nodes: Vec::new(),
            free: NIL,
            len: 0,
        }
    }
}

impl TimelineIndex {
    /// An empty index (nothing reserved, ever).
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `amount` over `[from, to)` — two O(log n) point-delta
    /// upserts. Deltas cancelling to (near) zero are pruned, so abutting
    /// equal-rate windows do not accumulate breakpoints between them.
    pub fn add(&mut self, from: SimTime, to: SimTime, amount: f64) {
        assert!(from < to, "window must be non-empty");
        self.root = self.upsert(self.root, from, amount);
        self.root = self.upsert(self.root, to, -amount);
    }

    /// Removes a previously added window (exact inverse of
    /// [`TimelineIndex::add`]).
    pub fn remove(&mut self, from: SimTime, to: SimTime, amount: f64) {
        self.add(from, to, -amount);
    }

    /// The reserved level at time `at` (base plus all deltas with key
    /// `<= at`), in O(log n).
    pub fn level_at(&self, at: SimTime) -> f64 {
        self.base + self.sum_upto(self.root, at)
    }

    /// The maximum reserved amount over `[from, to)`, in O(log n): the
    /// level at `from`, then every level a breakpoint strictly inside
    /// the window starts (`from == to` reads the level at `from`).
    pub fn max_reserved(&self, from: SimTime, to: SimTime) -> f64 {
        assert!(from <= to, "window must be ordered");
        let level = self.level_at(from);
        if from < to {
            let (_, maxp) = self.agg_open(self.root, Some(from), Some(to));
            // Empty interval → maxp = -∞ → `level` wins.
            level.max(level + maxp)
        } else {
            level
        }
    }

    /// Folds all breakpoints strictly before `now` into the base level.
    /// Each fully-expired subtree is folded in O(1) via its cached sum;
    /// its slots go back on the free list.
    pub fn compact(&mut self, now: SimTime) {
        let mut folded = 0.0;
        self.root = self.compact_rec(self.root, now, &mut folded);
        self.base += folded;
    }

    /// Number of breakpoints currently stored.
    pub fn breakpoints(&self) -> usize {
        self.len
    }

    /// The first breakpoint strictly after `at`, in O(log n).
    pub(crate) fn next_after(&self, at: SimTime) -> Option<SimTime> {
        let mut slot = self.root;
        let mut next = None;
        while slot != NIL {
            let n = self.node(slot);
            if n.key > at {
                next = Some(n.key);
                slot = n.left;
            } else {
                slot = n.right;
            }
        }
        next
    }

    /// A cursor over the reserved-level steps from `from` onward:
    /// `(from, level_at(from))`, then `(k, level_at(k))` for every later
    /// breakpoint `k`, ascending; the last step extends indefinitely.
    /// Each pull costs one successor query and one point level, so a
    /// consumer pays O(log n) per step it *takes*, however many lie
    /// beyond. Levels come from [`TimelineIndex::level_at`], never from
    /// a running sum: the tree's float association is part of the
    /// value.
    pub(crate) fn cursor(&self, from: SimTime) -> impl Iterator<Item = (SimTime, f64)> + '_ {
        std::iter::successors(Some(from), move |&at| self.next_after(at))
            .map(move |at| (at, self.level_at(at)))
    }

    fn node(&self, at: u32) -> &IndexNode {
        &self.nodes[at as usize]
    }

    fn node_mut(&mut self, at: u32) -> &mut IndexNode {
        &mut self.nodes[at as usize]
    }

    /// `(sum, max-prefix-sum)` of a possibly-empty subtree. The empty
    /// aggregate is `(0, -∞)`: it contributes nothing to sums and never
    /// wins a max.
    fn agg(&self, at: u32) -> (f64, f64) {
        if at == NIL {
            return (0.0, f64::NEG_INFINITY);
        }
        let n = self.node(at);
        (n.sum, n.maxp)
    }

    /// Recomputes node `at`'s aggregates from its children.
    fn pull(&mut self, at: u32) {
        let (left, right) = (self.node(at).left, self.node(at).right);
        let (ls, lm) = self.agg(left);
        let (rs, rm) = self.agg(right);
        let n = self.node_mut(at);
        let here = ls + n.delta;
        n.sum = here + rs;
        n.maxp = lm.max(here).max(here + rm);
    }

    /// A slot holding a fresh leaf: the free list's head, else a new
    /// slot at the end of the arena.
    fn alloc(&mut self, key: SimTime, delta: f64) -> u32 {
        self.len += 1;
        let node = IndexNode::new(key, delta);
        if self.free == NIL {
            let at = next_slot(self.nodes.len());
            self.nodes.push(node);
            return at;
        }
        let at = self.free;
        self.free = self.node(at).left;
        *self.node_mut(at) = node;
        at
    }

    /// Puts slot `at` on the free list; its left link becomes the list's.
    fn release(&mut self, at: u32) {
        self.len -= 1;
        let free = self.free;
        self.node_mut(at).left = free;
        self.free = at;
    }

    /// Releases every slot of the subtree at `at`.
    fn release_subtree(&mut self, at: u32) {
        if at == NIL {
            return;
        }
        let (left, right) = (self.node(at).left, self.node(at).right);
        self.release_subtree(left);
        self.release_subtree(right);
        self.release(at);
    }

    /// Adds `amount` to the delta at `key` in the subtree at `at`,
    /// returning the subtree's new root.
    fn upsert(&mut self, at: u32, key: SimTime, amount: f64) -> u32 {
        if at == NIL {
            return if amount.abs() > DELTA_EPS {
                self.alloc(key, amount)
            } else {
                NIL
            };
        }
        match key.cmp(&self.node(at).key) {
            Ordering::Equal => {
                let n = self.node_mut(at);
                n.delta += amount;
                if n.delta.abs() <= DELTA_EPS {
                    let (left, right) = (n.left, n.right);
                    self.release(at);
                    self.merge(left, right)
                } else {
                    self.pull(at);
                    at
                }
            }
            Ordering::Less => {
                let l = self.upsert(self.node(at).left, key, amount);
                self.node_mut(at).left = l;
                if l != NIL && self.node(l).priority > self.node(at).priority {
                    self.node_mut(at).left = self.node(l).right;
                    self.pull(at);
                    self.node_mut(l).right = at;
                    self.pull(l);
                    l
                } else {
                    self.pull(at);
                    at
                }
            }
            Ordering::Greater => {
                let r = self.upsert(self.node(at).right, key, amount);
                self.node_mut(at).right = r;
                if r != NIL && self.node(r).priority > self.node(at).priority {
                    self.node_mut(at).right = self.node(r).left;
                    self.pull(at);
                    self.node_mut(r).left = at;
                    self.pull(r);
                    r
                } else {
                    self.pull(at);
                    at
                }
            }
        }
    }

    /// Joins two subtrees whose keys are ordered `a < b`, returning the
    /// joined root.
    fn merge(&mut self, a: u32, b: u32) -> u32 {
        if a == NIL {
            return b;
        }
        if b == NIL {
            return a;
        }
        if self.node(a).priority > self.node(b).priority {
            let right = self.merge(self.node(a).right, b);
            self.node_mut(a).right = right;
            self.pull(a);
            a
        } else {
            let left = self.merge(a, self.node(b).left);
            self.node_mut(b).left = left;
            self.pull(b);
            b
        }
    }

    /// Sum of deltas with key `<= key`. Recursive on purpose: the
    /// operand order below is the float association outcomes are pinned
    /// to, and a running accumulator would re-associate it.
    fn sum_upto(&self, at: u32, key: SimTime) -> f64 {
        if at == NIL {
            return 0.0;
        }
        let n = self.node(at);
        if n.key <= key {
            self.agg(n.left).0 + n.delta + self.sum_upto(n.right, key)
        } else {
            self.sum_upto(n.left, key)
        }
    }

    /// `(sum, max-prefix-sum)` over keys strictly inside `(lo, hi)`
    /// (`None` = unbounded). Once a side is unbounded the cached
    /// aggregates answer whole subtrees, keeping the walk O(log n).
    fn agg_open(&self, at: u32, lo: Option<SimTime>, hi: Option<SimTime>) -> (f64, f64) {
        if at == NIL {
            return (0.0, f64::NEG_INFINITY);
        }
        let n = self.node(at);
        if lo.is_none() && hi.is_none() {
            return (n.sum, n.maxp);
        }
        if lo.is_some_and(|l| n.key <= l) {
            return self.agg_open(n.right, lo, hi);
        }
        if hi.is_some_and(|h| n.key >= h) {
            return self.agg_open(n.left, lo, hi);
        }
        let (ls, lm) = self.agg_open(n.left, lo, None);
        let (rs, rm) = self.agg_open(n.right, None, hi);
        let here = ls + n.delta;
        (here + rs, lm.max(here).max(here + rm))
    }

    fn compact_rec(&mut self, at: u32, now: SimTime, folded: &mut f64) -> u32 {
        if at == NIL {
            return NIL;
        }
        let IndexNode {
            key,
            delta,
            left,
            right,
            ..
        } = *self.node(at);
        if key < now {
            // This node and its whole left subtree expire: fold their
            // delta sum in one cached-aggregate read.
            *folded += self.agg(left).0 + delta;
            self.release_subtree(left);
            self.release(at);
            self.compact_rec(right, now, folded)
        } else {
            let left = self.compact_rec(left, now, folded);
            self.node_mut(at).left = left;
            self.pull(at);
            at
        }
    }
}

/// One booked window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Booking {
    /// Window start (inclusive).
    pub from: SimTime,
    /// Window end (exclusive).
    pub to: SimTime,
    /// Booked amount.
    pub amount: f64,
}

impl Booking {
    /// The booking's volume: `amount × (to − from)`.
    pub fn volume(&self) -> f64 {
        self.amount * self.to.since(self.from)
    }
}

/// What a cancellation released: the structured result of
/// [`TimelineBroker::cancel`] and [`AdvanceRegistry::cancel_all`].
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CancelOutcome {
    /// Total volume released — Σ `amount × (to − from)` over the
    /// removed bookings.
    pub released_volume: f64,
    /// How many bookings were removed.
    pub bookings_removed: usize,
}

impl CancelOutcome {
    /// `true` when the session held no bookings.
    pub fn is_empty(&self) -> bool {
        self.bookings_removed == 0
    }

    /// Folds another outcome into this one (for aggregating across
    /// brokers).
    pub fn absorb(&mut self, other: CancelOutcome) {
        self.released_volume += other.released_volume;
        self.bookings_removed += other.bookings_removed;
    }
}

/// An advance-reservation broker for one resource: a capacity plus a
/// reservation [`TimelineIndex`] and a per-session booking ledger.
///
/// Booking goes through [`AdvanceRegistry::book`] with an
/// [`AdvanceRequest`](crate::AdvanceRequest):
///
/// ```
/// use qosr_broker::{AdvanceRegistry, AdvanceRequest, SessionId, SimTime, TimelineBroker};
/// use qosr_model::{ResourceId, ResourceVector};
/// use std::sync::Arc;
/// let mut reg = AdvanceRegistry::new();
/// reg.register(Arc::new(TimelineBroker::new(ResourceId(0), 100.0)));
/// let (t9, t12) = (SimTime::new(9.0), SimTime::new(12.0));
/// let demand = ResourceVector::from_pairs([(ResourceId(0), 60.0)]).unwrap();
/// let request = AdvanceRequest::rigid(SessionId(1), demand, t9, t12);
/// assert!(reg.book(&request, SimTime::ZERO).is_booked());
/// let broker = reg.get(ResourceId(0)).unwrap();
/// assert_eq!(broker.available_over(t9, t12), 40.0);
/// assert_eq!(broker.available_over(t12, SimTime::new(20.0)), 100.0);
/// ```
pub struct TimelineBroker {
    resource: ResourceId,
    capacity: f64,
    inner: Mutex<TimelineInner>,
}

#[derive(Debug, Default)]
struct TimelineInner {
    index: TimelineIndex,
    ledger: Ledger,
}

/// The per-session booking ledger: every booking in one slab, each
/// session's bookings a singly linked list through it in booking order,
/// and one `(first, last)` map entry per session. Slots a cancel or a
/// compaction frees go on a free list threaded through `next`.
///
/// Order matters: `cancel` removes a session's windows from the index
/// and sums their volumes in booking order, and both are float sums.
#[derive(Debug)]
struct Ledger {
    sessions: HashMap<SessionId, (u32, u32)>,
    slots: Vec<LedgerSlot>,
    /// Head of the free-slot list.
    free: u32,
}

#[derive(Debug, Clone, Copy)]
struct LedgerSlot {
    booking: Booking,
    /// The session's next booking, or the next free slot ([`NIL`] ends
    /// either list).
    next: u32,
}

const _: () = assert!(std::mem::size_of::<LedgerSlot>() == 32);

impl Default for Ledger {
    fn default() -> Self {
        Ledger {
            sessions: HashMap::new(),
            slots: Vec::new(),
            free: NIL,
        }
    }
}

impl Ledger {
    /// Appends `booking` to `session`'s list.
    fn push(&mut self, session: SessionId, booking: Booking) {
        let slot = LedgerSlot { booking, next: NIL };
        let at = if self.free == NIL {
            let at = next_slot(self.slots.len());
            self.slots.push(slot);
            at
        } else {
            let at = self.free;
            self.free = self.slots[at as usize].next;
            self.slots[at as usize] = slot;
            at
        };
        match self.sessions.get_mut(&session) {
            Some((_, last)) => {
                self.slots[*last as usize].next = at;
                *last = at;
            }
            None => {
                self.sessions.insert(session, (at, at));
            }
        }
    }

    /// `session`'s bookings, in booking order.
    fn bookings(&self, session: SessionId) -> impl Iterator<Item = &Booking> + '_ {
        let first = self.sessions.get(&session).map(|&(first, _)| first);
        std::iter::successors(first, move |&at| {
            Some(self.slots[at as usize].next).filter(|&next| next != NIL)
        })
        .map(move |at| &self.slots[at as usize].booking)
    }

    /// Drops `session`'s list, handing each booking to `each` in booking
    /// order as its slot is freed.
    fn remove(&mut self, session: SessionId, mut each: impl FnMut(Booking)) {
        let Some((mut at, _)) = self.sessions.remove(&session) else {
            return;
        };
        while at != NIL {
            let slot = &mut self.slots[at as usize];
            let next = slot.next;
            each(slot.booking);
            slot.next = self.free;
            self.free = at;
            at = next;
        }
    }

    /// One pass over every list: frees the slots of bookings `keep`
    /// refuses, relinks the survivors in their order, and forgets
    /// sessions left with none.
    fn retain(&mut self, mut keep: impl FnMut(&Booking) -> bool) {
        let Ledger {
            sessions,
            slots,
            free,
        } = self;
        sessions.retain(|_, (first, last)| {
            let (mut head, mut tail) = (NIL, NIL);
            let mut at = *first;
            while at != NIL {
                let slot = &mut slots[at as usize];
                let next = slot.next;
                if keep(&slot.booking) {
                    slot.next = NIL;
                    if tail == NIL {
                        head = at;
                    } else {
                        slots[tail as usize].next = at;
                    }
                    tail = at;
                } else {
                    slot.next = *free;
                    *free = at;
                }
                at = next;
            }
            (*first, *last) = (head, tail);
            head != NIL
        });
    }
}

impl TimelineBroker {
    /// Creates a broker with the given constant capacity.
    ///
    /// # Panics
    /// Panics if `capacity` is not finite and positive.
    pub fn new(resource: ResourceId, capacity: f64) -> Self {
        assert!(
            capacity.is_finite() && capacity > 0.0,
            "capacity must be finite and positive, got {capacity}"
        );
        TimelineBroker {
            resource,
            capacity,
            inner: Mutex::new(TimelineInner::default()),
        }
    }

    /// The resource this broker manages.
    pub fn resource(&self) -> ResourceId {
        self.resource
    }

    /// Total capacity.
    pub fn capacity(&self) -> f64 {
        self.capacity
    }

    /// The guaranteed (minimum) availability over `[from, to)`.
    pub fn available_over(&self, from: SimTime, to: SimTime) -> f64 {
        self.capacity - self.inner.lock().index.max_reserved(from, to)
    }

    /// Takes the broker's lock for a plan-then-commit sequence: what
    /// the planner reads through [`TimelineGuard::index`] is still true
    /// when it books through the same guard. The lock is not
    /// re-entrant — nothing called while the guard lives may go back to
    /// this broker's locking methods.
    pub(crate) fn lock(&self) -> TimelineGuard<'_> {
        TimelineGuard {
            broker: self,
            inner: self.inner.lock(),
        }
    }

    /// Books `amount` over `[from, to)` for `session`; rejected if the
    /// window's minimum availability cannot cover it.
    pub(crate) fn reserve_window(
        &self,
        session: SessionId,
        amount: f64,
        from: SimTime,
        to: SimTime,
    ) -> Result<(), ReserveError> {
        self.lock().reserve_window(session, amount, from, to)
    }

    /// Puts back bookings that were provably admitted before
    /// (preempt-and-repack rollback), without an admission check.
    pub(crate) fn restore(&self, session: SessionId, bookings: &[Booking]) {
        self.lock().install(session, bookings);
    }

    /// Cancels every booking of `session`, reporting the released
    /// volume and booking count (zeroes when none).
    pub fn cancel(&self, session: SessionId) -> CancelOutcome {
        let mut inner = self.inner.lock();
        let TimelineInner { index, ledger } = &mut *inner;
        let mut outcome = CancelOutcome::default();
        ledger.remove(session, |b| {
            index.remove(b.from, b.to, b.amount);
            outcome.released_volume += b.volume();
            outcome.bookings_removed += 1;
        });
        outcome
    }

    /// The bookings `session` currently holds, in booking order.
    pub fn bookings_of(&self, session: SessionId) -> Vec<Booking> {
        self.inner
            .lock()
            .ledger
            .bookings(session)
            .copied()
            .collect()
    }

    /// Whether any booking of `session` overlaps `[from, to)` — what
    /// [`TimelineBroker::bookings_of`] would answer, without the copy.
    pub(crate) fn holds_over(&self, session: SessionId, from: SimTime, to: SimTime) -> bool {
        self.inner
            .lock()
            .ledger
            .bookings(session)
            .any(|b| b.from < to && b.to > from)
    }

    /// Number of breakpoints in the reservation index.
    pub fn breakpoints(&self) -> usize {
        self.inner.lock().index.breakpoints()
    }

    /// Folds expired breakpoints into the timeline base (call
    /// periodically with the current time). Past bookings stop being
    /// cancellable after compaction.
    pub fn compact(&self, now: SimTime) {
        let mut inner = self.inner.lock();
        inner.index.compact(now);
        inner.ledger.retain(|b| b.to > now);
    }
}

/// One [`TimelineBroker`], locked: the index to plan against and the
/// two ways to book on it (see [`TimelineBroker::lock`]).
pub(crate) struct TimelineGuard<'a> {
    broker: &'a TimelineBroker,
    inner: MutexGuard<'a, TimelineInner>,
}

impl TimelineGuard<'_> {
    /// The reservation index, as of this acquisition.
    pub(crate) fn index(&self) -> &TimelineIndex {
        &self.inner.index
    }

    /// The checked booking path behind both rigid and constant-rate
    /// malleable booking.
    pub(crate) fn reserve_window(
        &mut self,
        session: SessionId,
        amount: f64,
        from: SimTime,
        to: SimTime,
    ) -> Result<(), ReserveError> {
        let resource = self.broker.resource;
        if !amount.is_finite() || amount <= 0.0 {
            return Err(ReserveError::InvalidAmount { resource, amount });
        }
        let available = self.broker.capacity - self.inner.index.max_reserved(from, to);
        if amount > available {
            return Err(ReserveError::Insufficient {
                resource,
                requested: amount,
                available,
            });
        }
        self.install(session, &[Booking { from, to, amount }]);
        Ok(())
    }

    /// Adds bookings without an admission check: the caller has
    /// validated them against this same guard, or is restoring state
    /// that was admitted before.
    pub(crate) fn install(&mut self, session: SessionId, bookings: &[Booking]) {
        for &b in bookings {
            self.inner.index.add(b.from, b.to, b.amount);
            self.inner.ledger.push(session, b);
        }
    }
}

/// One evicted session's bookings, grouped per resource, kept so a
/// failed repack can restore them exactly.
type SavedSession = (SessionId, Vec<(ResourceId, Vec<Booking>)>);

/// Directory of [`TimelineBroker`]s with window snapshots and atomic
/// multi-resource advance booking. [`AdvanceRegistry::book`] is the
/// entry point: rigid windows commit all-or-nothing across brokers
/// (optionally preempting and repacking malleable sessions), malleable
/// bulk transfers get a rate profile from the deadline-window planner.
pub struct AdvanceRegistry {
    brokers: HashMap<ResourceId, Arc<TimelineBroker>>,
    /// Specs of admitted malleable sessions — what preempt-and-repack
    /// replans when a rigid request needs their window.
    malleable: Mutex<HashMap<SessionId, MalleableSpec>>,
    /// Where booking outcomes are reported ([`NullSink`] by default).
    sink: Arc<dyn TraceSink>,
    /// Advance booking/repack/reject counters (private instance by
    /// default; share one via [`AdvanceRegistry::set_counters`]).
    counters: Arc<Counters>,
    /// Request tracer for span trees of traced advance requests: a
    /// shared one ([`AdvanceRegistry::set_tracer`]) or a private one
    /// built when [`AdvanceRegistry::tracer`] first asks for it. Empty
    /// means disabled — a registry nobody traces never pays for the
    /// tracer's histograms and flight ring.
    tracer: OnceLock<Arc<Tracer>>,
}

impl Default for AdvanceRegistry {
    fn default() -> Self {
        AdvanceRegistry {
            brokers: HashMap::new(),
            malleable: Mutex::new(HashMap::new()),
            sink: Arc::new(NullSink),
            counters: Arc::new(Counters::new()),
            tracer: OnceLock::new(),
        }
    }
}

impl AdvanceRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Routes advance trace events (bookings, repacks, rejections,
    /// rolled-back conflicts) to `sink`.
    pub fn set_sink(&mut self, sink: Arc<dyn TraceSink>) {
        self.sink = sink;
    }

    /// Shares a counter set (e.g. a coordinator's) so advance outcomes
    /// land in the same snapshot as admission counters.
    pub fn set_counters(&mut self, counters: Arc<Counters>) {
        self.counters = counters;
    }

    /// Shares a request tracer (e.g. a coordinator's) so traced advance
    /// requests land in the same flight ring and span histograms as
    /// session admissions.
    pub fn set_tracer(&mut self, tracer: Arc<Tracer>) {
        self.tracer = OnceLock::from(tracer);
    }

    /// The registry's request tracer (a private instance, disabled
    /// until switched on, unless one was shared via
    /// [`AdvanceRegistry::set_tracer`]).
    pub fn tracer(&self) -> &Arc<Tracer> {
        self.tracer.get_or_init(Arc::default)
    }

    /// Registers a broker under its resource id.
    pub fn register(&mut self, broker: Arc<TimelineBroker>) {
        self.brokers.insert(broker.resource(), broker);
    }

    /// The broker for `id`, if registered — an O(1) hash lookup.
    pub fn get(&self, id: ResourceId) -> Option<&Arc<TimelineBroker>> {
        self.brokers.get(&id)
    }

    /// Number of registered brokers.
    pub fn len(&self) -> usize {
        self.brokers.len()
    }

    /// `true` when empty.
    pub fn is_empty(&self) -> bool {
        self.brokers.is_empty()
    }

    /// An [`AvailabilityView`] of the guaranteed availability of every
    /// resource over `[from, to)` — plug it into
    /// [`qosr_core::PlanCtx::prepare`] to plan an advance reservation
    /// with any planner.
    pub fn snapshot_window(&self, from: SimTime, to: SimTime) -> AvailabilityView {
        let mut view = AvailabilityView::new();
        for broker in self.brokers.values() {
            view.set(broker.resource(), broker.available_over(from, to));
        }
        view
    }

    /// Books an [`AdvanceRequest`], returning the structured
    /// [`AdvanceOutcome`].
    ///
    /// * Rigid requests commit their demand vector all-or-nothing over
    ///   the window. When the window is full and the request allows
    ///   preemption, malleable sessions overlapping it are evicted, the
    ///   rigid window is booked, and every victim is replanned around
    ///   it ([`AdvanceOutcome::Repacked`]); if any victim cannot be
    ///   replanned the whole repack rolls back.
    /// * Malleable requests get a `(start, duration, rate)` profile
    ///   from the deadline-window planner
    ///   (the `malleable` module); infeasible ones report the nearest
    ///   deadline that *would* have fit.
    ///
    /// `now` stamps trace events and floors malleable start times.
    pub fn book(&self, request: &AdvanceRequest, now: SimTime) -> AdvanceOutcome {
        let session = request.session();
        // A tracer nobody built or shared is a disabled one.
        let tracer = self.tracer.get().filter(|t| t.enabled());
        let mut collector = tracer.and(request.trace).map(SpanCollector::new);
        let outcome = match request.shape() {
            AdvanceShape::Rigid { demand, from, to } => {
                let (from, to) = (*from, *to);
                let plan_started = collector.is_some().then(std::time::Instant::now);
                let psi = self.rigid_psi(demand, from, to);
                if let (Some(c), Some(started)) = (collector.as_mut(), plan_started) {
                    c.record(SpanKind::Plan, started).psi = Some(psi);
                }
                let commit_started = collector.is_some().then(std::time::Instant::now);
                let outcome = match self.try_reserve_all(session, demand, from, to) {
                    Ok(()) => {
                        let profile = Self::rigid_profile(demand, from, to, psi);
                        self.emit_booked(now, session, &profile);
                        AdvanceOutcome::Booked { profile }
                    }
                    Err(error) if request.preempts() => {
                        self.repack(session, demand, from, to, now, error)
                    }
                    Err(error) => {
                        self.emit_rejected(now, session, &error, None);
                        AdvanceOutcome::Rejected {
                            error,
                            nearest_feasible_deadline: None,
                        }
                    }
                };
                if let (Some(c), Some(started)) = (collector.as_mut(), commit_started) {
                    let span = c.record(SpanKind::Commit, started);
                    match &outcome {
                        AdvanceOutcome::Repacked { moved, .. } => {
                            span.detail = Some(format!("repacked {} sessions", moved.len()));
                        }
                        AdvanceOutcome::Rejected { .. } => {
                            span.detail = Some("rolled back".to_string());
                        }
                        AdvanceOutcome::Booked { .. } => {}
                    }
                }
                outcome
            }
            AdvanceShape::Malleable { resource, .. } => 'malleable: {
                let Some(broker) = self.brokers.get(resource) else {
                    let error = ReserveError::UnknownResource {
                        resource: *resource,
                    };
                    self.emit_rejected(now, session, &error, None);
                    break 'malleable AdvanceOutcome::Rejected {
                        error,
                        nearest_feasible_deadline: None,
                    };
                };
                let spec = request.malleable_spec().expect("shape checked above");
                // The deadline-window planner both plans the rate
                // profile and commits it; one plan span covers it.
                let plan_started = collector.is_some().then(std::time::Instant::now);
                let outcome = match book_malleable(broker, session, &spec, now) {
                    Ok(profile) => {
                        self.malleable.lock().insert(session, spec);
                        self.emit_booked(now, session, &profile);
                        AdvanceOutcome::Booked { profile }
                    }
                    Err((error, nearest)) => {
                        self.emit_rejected(now, session, &error, nearest);
                        AdvanceOutcome::Rejected {
                            error,
                            nearest_feasible_deadline: nearest,
                        }
                    }
                };
                if let (Some(c), Some(started)) = (collector.as_mut(), plan_started) {
                    let span = c.record(SpanKind::Plan, started);
                    span.resource = Some(u64::from(resource.0));
                    if let AdvanceOutcome::Booked { profile } = &outcome {
                        span.psi = Some(profile.psi);
                    }
                }
                outcome
            }
        };
        if let Some((collector, tracer)) = collector.zip(tracer) {
            let (label, psi) = match &outcome {
                AdvanceOutcome::Booked { profile } | AdvanceOutcome::Repacked { profile, .. } => {
                    (qosr_obs::trace::OUTCOME_COMMITTED, Some(profile.psi))
                }
                AdvanceOutcome::Rejected { .. } => (qosr_obs::trace::OUTCOME_REJECTED, None),
            };
            let trace = collector.finish_with(label, Some(session.0), None, psi, "advance");
            tracer.record(trace, self.sink.as_ref(), now.value());
        }
        outcome
    }

    /// Cancels all of `session`'s bookings across all brokers (and
    /// drops its malleable spec, if it had one).
    pub fn cancel_all(&self, session: SessionId) -> CancelOutcome {
        self.malleable.lock().remove(&session);
        let mut outcome = CancelOutcome::default();
        for b in self.brokers.values() {
            outcome.absorb(b.cancel(session));
        }
        outcome
    }

    fn try_reserve_all(
        &self,
        session: SessionId,
        demand: &ResourceVector,
        from: SimTime,
        to: SimTime,
    ) -> Result<(), ReserveError> {
        let mut done: Vec<&Arc<TimelineBroker>> = Vec::with_capacity(demand.len());
        for (id, amount) in demand.iter() {
            let Some(broker) = self.brokers.get(&id) else {
                for b in done {
                    b.cancel(session);
                }
                let e = ReserveError::UnknownResource { resource: id };
                self.emit_conflict(session, id, from, &e);
                return Err(e);
            };
            if let Err(e) = broker.reserve_window(session, amount, from, to) {
                for b in done {
                    b.cancel(session);
                }
                self.emit_conflict(session, id, from, &e);
                return Err(e);
            }
            done.push(broker);
        }
        Ok(())
    }

    /// A rigid request hit a full window and allows preemption: evict
    /// every malleable session overlapping the window on a demanded
    /// resource, book the rigid window, then replan each victim around
    /// it — all-or-nothing, restoring every original booking on any
    /// failure.
    fn repack(
        &self,
        session: SessionId,
        demand: &ResourceVector,
        from: SimTime,
        to: SimTime,
        now: SimTime,
        error: ReserveError,
    ) -> AdvanceOutcome {
        let victims: Vec<(SessionId, MalleableSpec)> = {
            let specs = self.malleable.lock();
            let mut v: Vec<(SessionId, MalleableSpec)> = specs
                .iter()
                .filter(|(sid, _)| {
                    demand.iter().any(|(id, _)| {
                        self.brokers
                            .get(&id)
                            .is_some_and(|b| b.holds_over(**sid, from, to))
                    })
                })
                .map(|(sid, spec)| (*sid, spec.clone()))
                .collect();
            v.sort_by_key(|(sid, _)| *sid);
            v
        };
        if victims.is_empty() {
            self.emit_rejected(now, session, &error, None);
            return AdvanceOutcome::Rejected {
                error,
                nearest_feasible_deadline: None,
            };
        }
        // Evict: remember every victim's bookings, then cancel them.
        let mut saved: Vec<SavedSession> = Vec::new();
        for (sid, _) in &victims {
            let per: Vec<(ResourceId, Vec<Booking>)> = self
                .brokers
                .iter()
                .filter_map(|(rid, b)| {
                    let bs = b.bookings_of(*sid);
                    (!bs.is_empty()).then_some((*rid, bs))
                })
                .collect();
            for b in self.brokers.values() {
                b.cancel(*sid);
            }
            saved.push((*sid, per));
        }
        let psi = self.rigid_psi(demand, from, to);
        if self.try_reserve_all(session, demand, from, to).is_err() {
            self.restore_saved(&saved);
            self.emit_rejected(now, session, &error, None);
            return AdvanceOutcome::Rejected {
                error,
                nearest_feasible_deadline: None,
            };
        }
        let mut replanned: Vec<SessionId> = Vec::new();
        for (sid, spec) in &victims {
            let ok = self
                .brokers
                .get(&spec.resource)
                .is_some_and(|b| book_malleable(b, *sid, spec, now).is_ok());
            if ok {
                replanned.push(*sid);
            } else {
                // A victim no longer fits anywhere before its deadline:
                // unwind the whole repack.
                for done in &replanned {
                    for b in self.brokers.values() {
                        b.cancel(*done);
                    }
                }
                for b in self.brokers.values() {
                    b.cancel(session);
                }
                self.restore_saved(&saved);
                self.emit_rejected(now, session, &error, None);
                return AdvanceOutcome::Rejected {
                    error,
                    nearest_feasible_deadline: None,
                };
            }
        }
        let profile = Self::rigid_profile(demand, from, to, psi);
        self.emit_repacked(now, session, &profile, replanned.len());
        AdvanceOutcome::Repacked {
            profile,
            moved: replanned,
        }
    }

    fn restore_saved(&self, saved: &[SavedSession]) {
        for (sid, per) in saved {
            for (rid, bs) in per {
                if let Some(b) = self.brokers.get(rid) {
                    b.restore(*sid, bs);
                }
            }
        }
    }

    /// The most-stressed demanded resource's `demand/avail` over the
    /// window, *before* booking — ≤ 1 whenever the booking succeeds.
    fn rigid_psi(&self, demand: &ResourceVector, from: SimTime, to: SimTime) -> f64 {
        let mut psi = 0.0f64;
        for (id, amount) in demand.iter() {
            let Some(b) = self.brokers.get(&id) else {
                continue;
            };
            let avail = b.available_over(from, to);
            psi = if avail > 0.0 {
                psi.max(amount / avail)
            } else {
                f64::INFINITY
            };
        }
        psi
    }

    fn rigid_profile(
        demand: &ResourceVector,
        from: SimTime,
        to: SimTime,
        psi: f64,
    ) -> AdvanceProfile {
        let volume = demand.iter().map(|(_, a)| a * to.since(from)).sum();
        AdvanceProfile {
            resource: None,
            start: from,
            end: to,
            volume,
            psi,
            segments: Vec::new(),
        }
    }

    fn emit_booked(&self, now: SimTime, session: SessionId, profile: &AdvanceProfile) {
        self.counters.record_advance_booked();
        if !self.sink.enabled() {
            return;
        }
        let mut ev = TraceEvent::new(now.value(), EventKind::AdvanceBooked)
            .with_session(session.0)
            .with_value(profile.volume)
            .with_psi(profile.psi)
            .with_detail(format!(
                "[{}, {})",
                profile.start.value(),
                profile.end.value()
            ));
        if let Some(rid) = profile.resource {
            ev = ev.with_resource(u64::from(rid.0));
        }
        self.sink.emit(&ev);
    }

    fn emit_repacked(&self, now: SimTime, session: SessionId, profile: &AdvanceProfile, n: usize) {
        self.counters.record_advance_repacked();
        if !self.sink.enabled() {
            return;
        }
        self.sink.emit(
            &TraceEvent::new(now.value(), EventKind::AdvanceRepacked)
                .with_session(session.0)
                .with_value(profile.volume)
                .with_psi(profile.psi)
                .with_detail(format!("moved {n} malleable session(s)")),
        );
    }

    fn emit_rejected(
        &self,
        now: SimTime,
        session: SessionId,
        error: &ReserveError,
        nearest: Option<SimTime>,
    ) {
        self.counters.record_advance_rejected();
        if !self.sink.enabled() {
            return;
        }
        let mut ev = TraceEvent::new(now.value(), EventKind::AdvanceRejected)
            .with_session(session.0)
            .with_detail(error.to_string());
        if let Some(d) = nearest {
            ev = ev.with_value(d.value());
        }
        self.sink.emit(&ev);
    }

    fn emit_conflict(&self, session: SessionId, id: ResourceId, from: SimTime, e: &ReserveError) {
        if self.sink.enabled() {
            self.sink.emit(
                &TraceEvent::new(from.value(), EventKind::AdvanceConflict)
                    .with_session(session.0)
                    .with_resource(u64::from(id.0))
                    .with_detail(e.to_string()),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn t(x: f64) -> SimTime {
        SimTime::new(x)
    }

    #[test]
    fn broker_admission_over_windows() {
        let b = TimelineBroker::new(ResourceId(0), 100.0);
        let s1 = SessionId(1);
        // Book 60 for [10, 20).
        b.reserve_window(s1, 60.0, t(10.0), t(20.0)).unwrap();
        assert_eq!(b.available_over(t(10.0), t(20.0)), 40.0);
        assert_eq!(b.available_over(t(20.0), t(30.0)), 100.0);
        // A 50-unit booking overlapping the window is rejected…
        let err = b
            .reserve_window(SessionId(2), 50.0, t(15.0), t(25.0))
            .unwrap_err();
        assert!(matches!(err, ReserveError::Insufficient { available, .. } if available == 40.0));
        // …but fits right after.
        b.reserve_window(SessionId(2), 50.0, t(20.0), t(25.0))
            .unwrap();
        // Cancel frees the window, reporting released volume.
        let out = b.cancel(s1);
        assert_eq!(out.released_volume, 600.0); // 60 × 10 TU
        assert_eq!(out.bookings_removed, 1);
        assert_eq!(b.available_over(t(10.0), t(20.0)), 100.0);
        assert!(b.cancel(s1).is_empty());
    }

    #[test]
    fn broker_rejects_bad_amounts_and_tracks_bookings() {
        let b = TimelineBroker::new(ResourceId(0), 10.0);
        for bad in [0.0, -1.0, f64::NAN] {
            assert!(matches!(
                b.reserve_window(SessionId(1), bad, t(0.0), t(1.0)),
                Err(ReserveError::InvalidAmount { .. })
            ));
        }
        b.reserve_window(SessionId(1), 4.0, t(5.0), t(9.0)).unwrap();
        let bookings = b.bookings_of(SessionId(1));
        assert_eq!(bookings.len(), 1);
        assert_eq!(bookings[0].amount, 4.0);
        assert_eq!(bookings[0].volume(), 16.0);
        b.compact(t(20.0));
        assert!(b.bookings_of(SessionId(1)).is_empty());
    }

    /// The eager list the cursor replaced, kept as its reference: every
    /// breakpoint after `from` by an in-order walk of the whole tree,
    /// each with its own `level_at`.
    fn eager_steps(index: &TimelineIndex, from: SimTime) -> Vec<(SimTime, f64)> {
        fn collect_after(ix: &TimelineIndex, at: u32, from: SimTime, out: &mut Vec<SimTime>) {
            if at == NIL {
                return;
            }
            let n = ix.node(at);
            if n.key > from {
                collect_after(ix, n.left, from, out);
                out.push(n.key);
                collect_after(ix, n.right, from, out);
            } else {
                collect_after(ix, n.right, from, out);
            }
        }
        let mut keys = vec![from];
        collect_after(index, index.root, from, &mut keys);
        keys.into_iter()
            .map(|key| (key, index.level_at(key)))
            .collect()
    }

    /// Checks the arena's bookkeeping: `breakpoints()` is the number of
    /// nodes an in-order walk reaches, every slot is reachable or free
    /// (never both, never twice), and so the arena is exactly live
    /// nodes plus free list.
    fn check_arena(ix: &TimelineIndex) -> Result<(), String> {
        fn walk(ix: &TimelineIndex, at: u32, seen: &mut [bool]) -> Result<usize, String> {
            if at == NIL {
                return Ok(0);
            }
            let slot = seen
                .get_mut(at as usize)
                .ok_or(format!("link to slot {at} past the arena"))?;
            if std::mem::replace(slot, true) {
                return Err(format!("slot {at} reached twice"));
            }
            let n = ix.node(at);
            Ok(walk(ix, n.left, seen)? + 1 + walk(ix, n.right, seen)?)
        }
        let mut seen = vec![false; ix.nodes.len()];
        let live = walk(ix, ix.root, &mut seen)?;
        if live != ix.breakpoints() {
            return Err(format!(
                "{live} nodes reachable, {} counted",
                ix.breakpoints()
            ));
        }
        let mut free = 0;
        let mut at = ix.free;
        while at != NIL {
            let slot = seen
                .get_mut(at as usize)
                .ok_or(format!("free link to slot {at} past the arena"))?;
            if std::mem::replace(slot, true) {
                return Err(format!(
                    "slot {at} is both reachable and free, or free twice"
                ));
            }
            free += 1;
            at = ix.node(at).left;
        }
        if ix.nodes.len() != live + free {
            return Err(format!(
                "arena of {} slots holds {live} live + {free} free",
                ix.nodes.len()
            ));
        }
        Ok(())
    }

    #[test]
    fn a_window_cycled_reuses_its_two_slots() {
        let mut ix = TimelineIndex::new();
        for i in 0..1_000 {
            let from = t(f64::from(i % 7));
            ix.add(from, from + 2.5, 1.25);
            assert_eq!(ix.breakpoints(), 2);
            ix.remove(from, from + 2.5, 1.25);
            assert_eq!(ix.breakpoints(), 0);
        }
        assert_eq!(
            ix.nodes.len(),
            2,
            "the arena grows only to the peak live count"
        );
        check_arena(&ix).unwrap();
    }

    #[test]
    fn a_session_cycled_reuses_its_ledger_slots() {
        let b = TimelineBroker::new(ResourceId(0), 10.0);
        for i in 0..1_000 {
            let s = SessionId(i);
            b.reserve_window(s, 1.0, t(0.0), t(1.0)).unwrap();
            b.reserve_window(s, 2.0, t(3.0), t(4.0)).unwrap();
            assert_eq!(b.cancel(s).bookings_removed, 2);
        }
        let inner = b.inner.lock();
        assert_eq!(inner.ledger.slots.len(), 2);
        assert!(inner.ledger.sessions.is_empty());
        assert_eq!(inner.index.nodes.len(), 4);
    }

    #[test]
    fn compaction_keeps_the_survivors_in_booking_order() {
        let b = TimelineBroker::new(ResourceId(0), 100.0);
        let s = SessionId(1);
        let first = Booking {
            from: t(10.0),
            to: t(20.5),
            amount: 1.5,
        };
        let expiring = Booking {
            from: t(0.0),
            to: t(5.0),
            amount: 2.25,
        };
        let third = Booking {
            from: t(30.0),
            to: t(40.1),
            amount: 0.7,
        };
        for bk in [first, expiring, third] {
            b.reserve_window(s, bk.amount, bk.from, bk.to).unwrap();
        }
        // A session whose only booking expires leaves the ledger; one
        // whose last booking expires gets a new tail.
        b.reserve_window(SessionId(2), 3.0, t(1.0), t(4.0)).unwrap();
        let tail = SessionId(3);
        b.reserve_window(tail, 1.0, t(8.0), t(9.0)).unwrap();
        b.reserve_window(tail, 1.0, t(2.0), t(3.0)).unwrap();
        b.compact(t(6.0));
        assert_eq!(b.bookings_of(s), vec![first, third]);
        assert!(b.bookings_of(SessionId(2)).is_empty());
        assert_eq!(b.bookings_of(tail).len(), 1);
        assert_eq!(b.inner.lock().ledger.sessions.len(), 2);
        let expected = 0.0 + first.volume() + third.volume();
        let out = b.cancel(s);
        assert_eq!(out.bookings_removed, 2);
        assert_eq!(out.released_volume.to_bits(), expected.to_bits());
        b.reserve_window(tail, 1.0, t(40.0), t(41.0)).unwrap();
        let kept: Vec<_> = b.bookings_of(tail).iter().map(|bk| bk.from).collect();
        assert_eq!(kept, vec![t(8.0), t(40.0)]);
        assert_eq!(b.cancel(tail).released_volume, 2.0);
        assert_eq!(b.available_over(t(0.0), t(50.0)), 100.0);
        assert_eq!(b.breakpoints(), 0);
    }

    #[test]
    fn holds_over_reads_the_ledger_without_copying_it() {
        let b = TimelineBroker::new(ResourceId(0), 10.0);
        let s = SessionId(1);
        b.reserve_window(s, 1.0, t(10.0), t(20.0)).unwrap();
        b.reserve_window(s, 1.0, t(30.0), t(40.0)).unwrap();
        assert!(b.holds_over(s, t(15.0), t(16.0)));
        assert!(b.holds_over(s, t(39.0), t(50.0)));
        assert!(!b.holds_over(s, t(20.0), t(30.0)), "windows are half-open");
        assert!(!b.holds_over(s, t(0.0), t(10.0)));
        assert!(!b.holds_over(SessionId(2), t(0.0), t(50.0)));
    }

    #[test]
    fn availability_after_lists_breakpoint_levels() {
        let b = TimelineBroker::new(ResourceId(0), 100.0);
        b.reserve_window(SessionId(1), 60.0, t(10.0), t(20.0))
            .unwrap();
        let timeline = b.lock();
        let available = |from| -> Vec<(SimTime, f64)> {
            timeline
                .index()
                .cursor(from)
                .map(|(at, reserved)| (at, b.capacity() - reserved))
                .collect()
        };
        assert_eq!(
            available(t(0.0)),
            vec![(t(0.0), 100.0), (t(10.0), 40.0), (t(20.0), 100.0)]
        );
        // A query origin inside a segment sees that segment's level.
        assert_eq!(available(t(15.0)), vec![(t(15.0), 40.0), (t(20.0), 100.0)]);
        // On a breakpoint the origin is that step; past the last one it
        // is the only step.
        assert_eq!(available(t(10.0)), vec![(t(10.0), 40.0), (t(20.0), 100.0)]);
        assert_eq!(available(t(20.0)), vec![(t(20.0), 100.0)]);
        assert_eq!(timeline.index().next_after(t(10.0)), Some(t(20.0)));
        assert_eq!(timeline.index().next_after(t(20.0)), None);
        assert_eq!(timeline.index().breakpoints(), 2);
    }

    #[derive(Debug, Clone)]
    enum IxOp {
        Add { from: f64, len: f64, amount: f64 },
        Remove { pick: usize },
        Compact { at: f64 },
    }

    fn ix_op() -> impl Strategy<Value = IxOp> {
        prop_oneof![
            5 => (0.0f64..60.0, 0.01f64..20.0, 0.001f64..64.0)
                .prop_map(|(from, len, amount)| IxOp::Add { from, len, amount }),
            2 => (0usize..64).prop_map(|pick| IxOp::Remove { pick }),
            1 => (0.0f64..40.0).prop_map(|at| IxOp::Compact { at }),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases_from_env(128))]

        /// After every operation of a random add / remove / compact
        /// sequence with non-integer amounts and times, the cursor
        /// yields the eager list bit for bit — from before the first
        /// breakpoint, on every breakpoint, between every two, and
        /// after the last.
        #[test]
        fn cursor_matches_eager_list_bitwise(ops in prop::collection::vec(ix_op(), 1..48)) {
            let bits = |steps: Vec<(SimTime, f64)>| -> Vec<(u64, u64)> {
                steps
                    .into_iter()
                    .map(|(at, level)| (at.value().to_bits(), level.to_bits()))
                    .collect()
            };
            let mut ix = TimelineIndex::new();
            let mut live: Vec<(SimTime, SimTime, f64)> = Vec::new();
            for op in &ops {
                match *op {
                    IxOp::Add { from, len, amount } => {
                        let (from, to) = (t(from), t(from + len));
                        ix.add(from, to, amount);
                        live.push((from, to, amount));
                    }
                    IxOp::Remove { pick } => {
                        if !live.is_empty() {
                            let (from, to, amount) = live.swap_remove(pick % live.len());
                            ix.remove(from, to, amount);
                        }
                    }
                    IxOp::Compact { at } => {
                        ix.compact(t(at));
                        live.retain(|&(_, to, _)| to > t(at));
                    }
                }
                prop_assert_eq!(check_arena(&ix), Ok(()));
                // Every time is >= 0, so -1 lies before the first
                // breakpoint and its eager list names them all.
                let before = t(-1.0);
                let keys: Vec<SimTime> =
                    eager_steps(&ix, before).into_iter().skip(1).map(|(at, _)| at).collect();
                prop_assert_eq!(keys.len(), ix.breakpoints());
                let mut origins = vec![before];
                for pair in keys.windows(2) {
                    origins.push(pair[0]);
                    origins.push(t((pair[0].value() + pair[1].value()) / 2.0));
                }
                if let Some(&last) = keys.last() {
                    origins.push(last);
                    origins.push(last + 1.0);
                }
                for from in origins {
                    prop_assert_eq!(
                        bits(ix.cursor(from).collect()),
                        bits(eager_steps(&ix, from)),
                        "cursor from {:?}", from
                    );
                }
            }
        }
    }

    #[test]
    fn registry_atomic_booking() {
        let mut reg = AdvanceRegistry::new();
        reg.register(Arc::new(TimelineBroker::new(ResourceId(0), 100.0)));
        reg.register(Arc::new(TimelineBroker::new(ResourceId(1), 30.0)));
        let demand =
            ResourceVector::from_pairs([(ResourceId(0), 50.0), (ResourceId(1), 40.0)]).unwrap();
        // Resource 1 can never cover 40: all-or-nothing must roll back.
        let outcome = reg.book(
            &AdvanceRequest::rigid(SessionId(1), demand, t(0.0), t(10.0)),
            t(0.0),
        );
        assert!(!outcome.is_booked());
        assert_eq!(outcome.error().unwrap().resource(), ResourceId(1));
        assert_eq!(
            reg.get(ResourceId(0))
                .unwrap()
                .available_over(t(0.0), t(10.0)),
            100.0
        );

        let demand =
            ResourceVector::from_pairs([(ResourceId(0), 50.0), (ResourceId(1), 20.0)]).unwrap();
        let outcome = reg.book(
            &AdvanceRequest::rigid(SessionId(1), demand, t(0.0), t(10.0)),
            t(0.0),
        );
        assert!(outcome.is_booked());
        let profile = outcome.profile().unwrap();
        assert_eq!(profile.volume, 700.0); // (50 + 20) × 10 TU
        assert!(profile.psi <= 1.0);
        let view = reg.snapshot_window(t(0.0), t(10.0));
        assert_eq!(view.avail(ResourceId(0)), 50.0);
        assert_eq!(view.avail(ResourceId(1)), 10.0);
        // Outside the window everything is free.
        let view = reg.snapshot_window(t(10.0), t(20.0));
        assert_eq!(view.avail(ResourceId(0)), 100.0);
        let released = reg.cancel_all(SessionId(1));
        assert_eq!(released.released_volume, 700.0);
        assert_eq!(released.bookings_removed, 2);
    }

    #[test]
    fn rigid_windows_book_through_the_builder_api() {
        let b = TimelineBroker::new(ResourceId(0), 100.0);
        b.reserve_window(SessionId(1), 60.0, t(10.0), t(20.0))
            .unwrap();
        assert_eq!(b.available_over(t(10.0), t(20.0)), 40.0);

        let mut reg = AdvanceRegistry::new();
        reg.register(Arc::new(TimelineBroker::new(ResourceId(1), 50.0)));
        let demand = ResourceVector::from_pairs([(ResourceId(1), 20.0)]).unwrap();
        let request = AdvanceRequest::rigid(SessionId(2), demand, t(0.0), t(5.0));
        assert!(reg.book(&request, t(0.0)).is_booked());
        assert_eq!(reg.cancel_all(SessionId(2)).released_volume, 100.0);
    }

    #[test]
    fn traced_bookings_record_span_trees() {
        let mut reg = AdvanceRegistry::new();
        reg.register(Arc::new(TimelineBroker::new(ResourceId(0), 50.0)));
        reg.tracer().set_enabled(true);
        let demand = ResourceVector::from_pairs([(ResourceId(0), 20.0)]).unwrap();

        // A booked rigid window: plan (with ψ) + commit spans, exact
        // root-span accounting, committed outcome.
        let request = AdvanceRequest::rigid(SessionId(1), demand.clone(), t(0.0), t(5.0))
            .traced(qosr_obs::TraceId(7));
        assert_eq!(request.trace_id(), Some(qosr_obs::TraceId(7)));
        assert!(reg.book(&request, t(0.0)).is_booked());
        let traces = reg.tracer().flight().dump();
        assert_eq!(traces.len(), 1);
        let trace = &traces[0];
        assert_eq!(trace.trace, 7);
        assert_eq!(trace.outcome, "committed");
        assert_eq!(trace.service.as_deref(), Some("advance"));
        assert_eq!(trace.session, Some(1));
        let measured: u64 = trace.spans.iter().map(|s| s.duration_ns).sum();
        assert_eq!(measured, trace.total_ns);
        assert_eq!(trace.spans[1].kind, SpanKind::Plan);
        assert!(trace.spans[1].psi.is_some());
        assert_eq!(trace.spans[2].kind, SpanKind::Commit);

        // A rejected window rolls back and records the rejection.
        let over = ResourceVector::from_pairs([(ResourceId(0), 45.0)]).unwrap();
        let request =
            AdvanceRequest::rigid(SessionId(2), over, t(0.0), t(5.0)).traced(qosr_obs::TraceId(8));
        assert!(!reg.book(&request, t(0.0)).is_booked());
        let traces = reg.tracer().flight().dump();
        assert_eq!(traces.len(), 2);
        assert_eq!(traces[1].outcome, "rejected");
        let commit = traces[1].spans.iter().find(|s| s.kind == SpanKind::Commit);
        assert_eq!(commit.unwrap().detail.as_deref(), Some("rolled back"));

        // A traced malleable transfer records the planner span with the
        // booked profile's ψ and resource.
        let request = AdvanceRequest::malleable(SessionId(3), ResourceId(0), 30.0, t(100.0))
            .traced(qosr_obs::TraceId(9));
        assert!(reg.book(&request, t(0.0)).is_booked());
        let traces = reg.tracer().flight().dump();
        assert_eq!(traces[2].outcome, "committed");
        assert!(traces[2].psi.is_some());
        let plan = traces[2].spans.iter().find(|s| s.kind == SpanKind::Plan);
        assert_eq!(plan.unwrap().resource, Some(0));

        // Untraced bookings never touch the tracer.
        let plain = AdvanceRequest::rigid(
            SessionId(4),
            ResourceVector::from_pairs([(ResourceId(0), 1.0)]).unwrap(),
            t(50.0),
            t(55.0),
        );
        assert!(reg.book(&plain, t(0.0)).is_booked());
        assert_eq!(reg.tracer().recorded(), 3);
    }

    #[test]
    fn planning_against_a_window_snapshot() {
        use qosr_core::{PlanCtx, Planner, QrgOptions};
        use qosr_model::*;
        use rand::SeedableRng;
        use std::sync::Arc as StdArc;

        // One-component service over one resource.
        let schema = QosSchema::new("q", ["level"]);
        let v = |x: u32| QosVector::new(schema.clone(), [x]);
        let comp = ComponentSpec::new(
            "c",
            vec![v(0)],
            vec![v(1), v(2)],
            vec![SlotSpec::new("cpu", ResourceKind::Compute)],
            StdArc::new(
                TableTranslation::builder(1, 2, 1)
                    .entry(0, 0, [10.0])
                    .entry(0, 1, [60.0])
                    .build(),
            ),
        );
        let service = StdArc::new(ServiceSpec::chain("svc", vec![comp], vec![1, 2]).unwrap());
        let rid = {
            let mut sp = ResourceSpace::new();
            sp.register("cpu", ResourceKind::Compute)
        };
        let session =
            SessionInstance::new(service, vec![ComponentBinding::new([rid])], 1.0).unwrap();

        let mut reg = AdvanceRegistry::new();
        reg.register(Arc::new(TimelineBroker::new(rid, 100.0)));
        // Pre-book 70 units over [10, 20).
        reg.get(rid)
            .unwrap()
            .reserve_window(SessionId(99), 70.0, t(10.0), t(20.0))
            .unwrap();

        let mut ctx = PlanCtx::new();
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        let mut plan = |view: &AvailabilityView| {
            ctx.plan_session(
                &session,
                view,
                &QrgOptions::default(),
                Planner::Basic,
                &mut rng,
            )
            .unwrap()
        };
        // Planning for [12, 18): only level 1 fits (60 > 30).
        assert_eq!(plan(&reg.snapshot_window(t(12.0), t(18.0))).rank, 1);
        // Planning for [20, 30): level 2 fits.
        let plan = plan(&reg.snapshot_window(t(20.0), t(30.0)));
        assert_eq!(plan.rank, 2);
        // Book it through the request API.
        let outcome = reg.book(
            &AdvanceRequest::rigid(SessionId(1), plan.total_demand(), t(20.0), t(30.0)),
            t(0.0),
        );
        assert!(outcome.is_booked());
        assert_eq!(reg.get(rid).unwrap().available_over(t(20.0), t(30.0)), 40.0);
    }
}
