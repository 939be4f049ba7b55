//! What the advance ledger holds in memory, counted rather than timed. A
//! counting global allocator tracks live allocations and live requested
//! bytes while one link is loaded with `advance_mix`'s standing shape
//! (56,000 rigid windows on a link of capacity 3,000, starts in order
//! across a 1M-TU horizon with 0–4 TU of jitter, lengths 1–999 TU,
//! integer amounts 1–99), then churned with book/cancel pairs. The file
//! holds a single `#[test]`, so nothing else allocates while it counts.

#[path = "support/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::live;
use qosr::broker::{AdvanceRegistry, AdvanceRequest, SessionId, SimTime, TimelineBroker};
use qosr::model::{ResourceId, ResourceVector};
use std::sync::Arc;

const STANDING: u64 = 56_000;
const HORIZON: u64 = 1_000_000;
const CAPACITY: f64 = 3_000.0;
const CHURN: u64 = 10_000;

/// A splitmix64 stream: deterministic draws that allocate nothing.
struct Draws(u64);

impl Draws {
    fn below(&mut self, n: u64) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        (z ^ (z >> 31)) % n
    }
}

/// Books `[from, from + len)` of `amount` for `session` on link 0.
fn book(registry: &AdvanceRegistry, session: u64, from: u64, len: u64, amount: u64) -> bool {
    let demand = ResourceVector::from_pairs([(ResourceId(0), amount as f64)]).expect("demand");
    let (from, to) = (SimTime::new(from as f64), SimTime::new((from + len) as f64));
    let request = AdvanceRequest::rigid(SessionId(session), demand, from, to);
    registry.book(&request, SimTime::ZERO).is_booked()
}

#[test]
fn standing_bookings_live_in_a_few_flat_arrays() {
    let mut registry = AdvanceRegistry::new();
    let broker = Arc::new(TimelineBroker::new(ResourceId(0), CAPACITY));
    registry.register(Arc::clone(&broker));
    let mut draws = Draws(42);
    let (mut session, mut slot, mut booked) = (0, 0, 0);
    while booked < STANDING {
        let from = slot % STANDING * HORIZON / STANDING + draws.below(5);
        let (len, amount) = (1 + draws.below(999), 1 + draws.below(99));
        slot += 1;
        session += 1;
        booked += u64::from(book(&registry, session, from, len, amount));
    }
    assert_eq!(slot, STANDING, "every standing draw fits");
    assert_eq!(broker.breakpoints(), 107_528);

    // Book/cancel pairs on top: every allocation a pair makes must be
    // returned.
    let mut churn = || {
        for _ in 0..CHURN {
            let from = draws.below(HORIZON);
            let (len, amount) = (1 + draws.below(999), 1 + draws.below(99));
            session += 1;
            book(&registry, session, from, len, amount);
            registry.cancel_all(SessionId(session));
        }
        live()
    };
    let (count, _) = live();
    let churned = churn();
    assert_eq!(
        churned.0, count,
        "live allocations after {CHURN} book/cancel pairs"
    );
    // The first round grows the session map's table once (its tombstones
    // use up the slack); after that, reused slots mean a second round
    // moves not one byte.
    assert_eq!(churn(), churned, "a second round of churn grew the ledger");
    assert_eq!(broker.breakpoints(), 107_528);

    // What the registry holds is what dropping it frees. With a boxed
    // treap node per breakpoint and a `Vec` per session it held 163,534
    // allocations (2.92 per booking) and 296.4 requested bytes per
    // booking; the arena, the slab and the two maps are a handful of
    // allocations whatever the booking count. The bytes are capacity:
    // 131,072 nodes of 48 B, 65,536 slots of 32 B and a 131,072-bucket
    // table of 16 B entries.
    drop((registry, broker));
    let (count_left, bytes_left) = live();
    assert_eq!(churned.0 - count_left, 8, "allocations the registry holds");
    let bytes_per_booking = (churned.1 - bytes_left) as f64 / STANDING as f64;
    assert!(
        bytes_per_booking < 190.0,
        "{bytes_per_booking:.1} requested bytes per booking"
    );
}
