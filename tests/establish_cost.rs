//! Sequential establishes on the paper's figure-9 world, pinned and
//! counted rather than timed.
//!
//! * **Pins.** Three runs of `Coordinator::establish_request` —
//!   accurate observations, `Stale { max_age: 2 }`, and injected faults
//!   (lost messages, failed commits, one host crash) absorbed by a
//!   `RetryPolicy` with the tradeoff fallback. Each arrival alternates
//!   the basic and tradeoff planners, the arrival stream switches
//!   service constantly, and sessions depart after their holding time.
//!   Every outcome row (kind, rank, ψ bits, session id), the
//!   coordinator's counters, its protocol message counts and the next
//!   draw of the establish RNG are literals recorded before planning
//!   contexts kept their skeletons, so they prove that change moved no
//!   outcome.
//! * **Counts.** Over 10,000 accurate establishes: how many QRG
//!   skeletons were built (`Counters::global()`'s skeleton misses) and
//!   how many allocations one establish makes (a counting global
//!   allocator read around each call). The file holds a single test,
//!   so nothing else allocates or plans while it counts.

#[path = "support/counting_alloc.rs"]
mod counting_alloc;

use qosr::broker::{EstablishedSession, LocalBrokerConfig, MessageStats, ObservationPolicy};
use qosr::obs::Counters;
use qosr::prelude::*;
use qosr::sim::services::ServiceOptions;
use qosr::sim::PaperEnvironment;
use rand::rngs::StdRng;
use rand::{RngCore, RngExt, SeedableRng};

/// How a run observes availability and what it injects.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Mode {
    Accurate,
    Stale,
    Faults,
}

/// One outcome: `(kind, rank, ψ bits, session id)`, zeros when rejected.
type Row = (&'static str, u32, u64, u64);

/// What one run leaves behind.
struct Run {
    rows: Vec<Row>,
    /// The coordinator's counters, as JSON.
    counters: String,
    /// Protocol messages sent: collects, reserves and commits.
    messages: MessageStats,
    /// The establish RNG's next `u64` after the run.
    next: u64,
    /// `alloc` + `realloc` calls made inside `establish_request`.
    allocations: usize,
}

fn world(seed: u64, capacity: (f64, f64)) -> PaperEnvironment {
    let mut rng = StdRng::seed_from_u64(seed);
    PaperEnvironment::build(
        &mut rng,
        &ServiceOptions::default(),
        capacity,
        LocalBrokerConfig::default(),
    )
}

/// `arrivals` establishes, one every half TU, each held 5–40 TU. The
/// arrival stream (service, domain, scale, holding time) and the
/// establish RNG are seeded from `seed`.
fn drive(env: &PaperEnvironment, mode: Mode, arrivals: usize, seed: u64) -> Run {
    // (service, domain) pairs honouring the excluded-service rule.
    let pairs: Vec<(usize, usize)> = (0..8)
        .flat_map(|domain| {
            (0..4)
                .filter(move |&service| service != domain / 2)
                .map(move |service| (service, domain))
        })
        .collect();
    let mut draws = StdRng::seed_from_u64(seed);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED);
    let (observation, retry) = match mode {
        Mode::Accurate => (ObservationPolicy::Accurate, RetryPolicy::default()),
        Mode::Stale => (
            ObservationPolicy::Stale { max_age: 2.0 },
            RetryPolicy::default(),
        ),
        Mode::Faults => {
            env.coordinator.faults().configure(seed, 0.05, 0.05);
            let retry = RetryPolicy {
                max_retries: 2,
                backoff_base: 0.25,
                tradeoff_fallback: true,
            };
            (ObservationPolicy::Accurate, retry)
        }
    };
    let crashed = env.coordinator.proxies()[1].host().to_string();

    let mut live: Vec<(f64, EstablishedSession)> = Vec::new();
    let mut rows = Vec::with_capacity(arrivals);
    let mut allocations = 0;
    for i in 0..arrivals {
        let now = i as f64 * 0.5;
        live.retain(|(due, est)| {
            let keep = *due > now;
            if !keep {
                env.coordinator.terminate(est, SimTime::new(now));
            }
            keep
        });
        if mode == Mode::Faults && i == arrivals / 3 {
            env.coordinator.crash_host(&crashed, SimTime::new(now));
        }
        if mode == Mode::Faults && i == arrivals / 2 {
            env.coordinator.recover_host(&crashed, SimTime::new(now));
        }

        let (service, domain) = pairs[draws.random_range(0..pairs.len())];
        let scale = [1.0, 1.0, 3.0, 6.0][draws.random_range(0..4usize)];
        let hold = draws.random_range(5.0..40.0);
        let planner = if i % 2 == 0 {
            Planner::Basic
        } else {
            Planner::Tradeoff
        };
        let request = SessionRequest::new(env.session(service, domain, scale).unwrap())
            .planner(planner)
            .observation(observation)
            .retry(retry);

        let before = counting_alloc::calls();
        let outcome = env
            .coordinator
            .establish_request(&request, SimTime::new(now), &mut rng);
        allocations += counting_alloc::calls() - before;

        let kind = match outcome {
            EstablishOutcome::Committed(_) => "committed",
            EstablishOutcome::Degraded { .. } => "degraded",
            EstablishOutcome::Rejected { .. } => "rejected",
        };
        rows.push(match outcome.into_session() {
            Some(est) => {
                let row = (kind, est.plan.rank, est.plan.psi.to_bits(), est.id.0);
                live.push((now + hold, est));
                row
            }
            None => REJECTED,
        });
    }
    Run {
        rows,
        counters: serde_json::to_string(&env.coordinator.counters().snapshot()).unwrap(),
        messages: env.coordinator.stats(),
        next: rng.next_u64(),
        allocations,
    }
}

/// Arrivals per pinned run.
const PINNED_ARRIVALS: usize = 48;
/// Establishes per counted run.
const COUNTED: usize = 10_000;

#[test]
fn sequential_establish_outcomes_and_costs() {
    for pin in PINS {
        let (mode, seed) = (pin.mode, pin.seed);
        let run = drive(&world(7, (200.0, 800.0)), mode, PINNED_ARRIVALS, seed);
        assert_eq!(run.rows, pin.rows, "{mode:?}: outcome rows");
        assert_eq!(run.counters, pin.counters, "{mode:?}: coordinator counters");
        assert_eq!(run.messages, pin.messages, "{mode:?}: protocol messages");
        assert_eq!(run.next, pin.next, "{mode:?}: establish RNG stream");
    }

    // The counts run on the world `paper_establish` measures (world seed
    // 42, capacities 1,000-4,000), where every establish commits.
    let env = world(42, (1000.0, 4000.0));
    let misses = Counters::global().snapshot().skeleton_misses;
    let run = drive(&env, Mode::Accurate, COUNTED, 21);
    assert_eq!(run.rows.iter().filter(|r| r.0 == "rejected").count(), 0);
    // One build per service: the planning context keeps each skeleton.
    // A process-wide memo of weak references, with the context holding
    // only its last skeleton, built 7,498 here: each switch of service
    // freed the old one.
    let builds = Counters::global().snapshot().skeleton_misses - misses;
    assert_eq!(builds, 4, "QRG skeletons built");
    // 88.8 with that memo, a hash map and a vector per proxy in every
    // dispatch, and an availability view grown from empty on every
    // collect. The total moves by a call or so between processes
    // (hash-table growth depends on the per-process hash seed), so it is
    // compared per establish at one decimal.
    let per_establish = run.allocations as f64 / COUNTED as f64;
    assert_eq!(
        format!("{per_establish:.1}"),
        "18.1",
        "allocations per establish"
    );
}

/// What a pinned run must reproduce, recorded before planning contexts
/// kept their skeletons.
struct Pin {
    mode: Mode,
    seed: u64,
    rows: &'static [Row],
    /// The coordinator's counters, as JSON.
    counters: &'static str,
    messages: MessageStats,
    /// The establish RNG's next `u64` after the run.
    next: u64,
}

const PINS: [Pin; 3] = [
    Pin {
        mode: Mode::Accurate,
        seed: 11,
        rows: ACCURATE_ROWS,
        counters: ACCURATE_COUNTERS,
        messages: MessageStats {
            collect_roundtrips: 192,
            dispatches: 82,
            commit_roundtrips: 82,
            attempts: 48,
            established: 41,
        },
        next: 0xc0b5026bf3cd1636,
    },
    Pin {
        mode: Mode::Stale,
        seed: 12,
        rows: STALE_ROWS,
        counters: STALE_COUNTERS,
        messages: MessageStats {
            collect_roundtrips: 192,
            dispatches: 84,
            commit_roundtrips: 84,
            attempts: 48,
            established: 42,
        },
        next: 0x04b703f57fc959c0,
    },
    Pin {
        mode: Mode::Faults,
        seed: 13,
        rows: FAULTS_ROWS,
        counters: FAULTS_COUNTERS,
        messages: MessageStats {
            collect_roundtrips: 359,
            dispatches: 84,
            commit_roundtrips: 68,
            attempts: 48,
            established: 32,
        },
        next: 0x7f9e32294682b6b1,
    },
];

const REJECTED: Row = ("rejected", 0, 0, 0);

const ACCURATE_ROWS: &[Row] = &[
    ("committed", 3, 0x3fb5cc6e1d5030c9, 1),
    ("committed", 3, 0x3fc10167012372d1, 2),
    ("committed", 3, 0x3fac8661b7570b43, 3),
    ("committed", 3, 0x3fa663c3d0afbf8f, 4),
    ("committed", 3, 0x3fcc60f0ccc5473e, 5),
    ("committed", 3, 0x3fdb31a961d8f319, 6),
    ("committed", 3, 0x3fc4d48e370565e6, 7),
    ("committed", 1, 0x3faca88593c09be1, 8),
    ("committed", 3, 0x3fe1dee046484b03, 9),
    ("committed", 2, 0x3fa6a7ea60057c2b, 10),
    ("committed", 3, 0x3fe23b3c51bcdc20, 11),
    ("committed", 2, 0x3fd1c75517b9ca7b, 12),
    ("committed", 3, 0x3fb40eeebd13ee03, 13),
    ("committed", 1, 0x3fb8877473b41abf, 14),
    ("committed", 1, 0x3fe458ab6cbf2bba, 15),
    ("committed", 3, 0x3fbac2d783a1ab3a, 16),
    ("committed", 3, 0x3fb2938cec2ff93e, 17),
    ("committed", 2, 0x3fb113c5bc9b80f1, 18),
    ("committed", 3, 0x3fb7abeda55a71e6, 19),
    ("committed", 2, 0x3fd04b308216b0ca, 20),
    ("committed", 3, 0x3fe6590ba25508c6, 21),
    REJECTED,
    ("committed", 3, 0x3fb4f8e86e8bd8e2, 22),
    ("committed", 2, 0x3fd5ce2ce7c166fe, 23),
    ("committed", 3, 0x3fefa6b40d98fb9c, 24),
    ("committed", 3, 0x3fe236e945f07aba, 25),
    ("committed", 3, 0x3fb96dbd133939af, 26),
    ("committed", 3, 0x3fd28ffc28be393c, 27),
    ("committed", 3, 0x3fdc2ff21059173f, 28),
    ("committed", 3, 0x3fe6691c6e2283f2, 29),
    REJECTED,
    ("committed", 1, 0x3fc92fb7b53eb9b2, 30),
    ("committed", 3, 0x3fee03e9783a0be0, 31),
    REJECTED,
    ("committed", 3, 0x3fde20fcd7462def, 32),
    REJECTED,
    REJECTED,
    REJECTED,
    ("committed", 3, 0x3fe201ee94d12dec, 33),
    ("committed", 1, 0x3feedef3b338b7bf, 34),
    ("committed", 3, 0x3fc31f422a32de08, 35),
    ("committed", 3, 0x3fc0b936f63cae6d, 36),
    ("committed", 3, 0x3fe49755cea408ad, 37),
    ("committed", 3, 0x3fd925ed2e04a25f, 38),
    ("committed", 3, 0x3fe4b68b4c2c2239, 39),
    ("committed", 3, 0x3fd74053585116a4, 40),
    ("committed", 3, 0x3fe2425d5ee55529, 41),
    REJECTED,
];
const ACCURATE_COUNTERS: &str = concat!(
    r#"{"plans_started":48,"plans_completed":41,"plans_rejected":7,"#,
    r#""reservations_committed":41,"reservations_rejected":0,"#,
    r#""sessions_released":9,"upgrades":0,"tradeoff_downgrades":8,"#,
    r#""skeleton_hits":0,"skeleton_misses":0,"faults_injected":0,"#,
    r#""rollbacks":0,"retries":0,"degraded_commits":0,"sessions_lost":0,"#,
    r#""fault_failures":0,"establish_attempts":48,"establishments":41,"#,
    r#""batches_planned":0,"commit_conflicts":0,"replans":0,"#,
    r#""delta_repairs":0,"delta_fallbacks":0,"relax_nodes_repaired":0,"#,
    r#""serve_requests":0,"serve_batches":0,"serve_protocol_errors":0,"#,
    r#""serve_disconnects":0,"advance_booked":0,"advance_repacked":0,"#,
    r#""advance_rejected":0,"psi_buckets":[12,6,4,3,3,5,4,1,0,3,0],"#,
    r#""psi_milli":{"count":41,"sum":14275,"min":44,"max":989,"p50":279,"#,
    r#""p90":703,"p99":989}}"#,
);

const STALE_ROWS: &[Row] = &[
    ("committed", 3, 0x3fb2938cec2ff93e, 1),
    ("committed", 3, 0x3fb4a397dabe0545, 2),
    ("committed", 3, 0x3fb07d7b27e4504f, 3),
    ("committed", 3, 0x3fd128be2be6c8b9, 4),
    ("committed", 3, 0x3fa663c3d0afbf8f, 5),
    ("committed", 2, 0x3fa3d424fcc11cab, 6),
    ("committed", 3, 0x3fb15bada82e3465, 7),
    ("committed", 2, 0x3fb0d6300175dc42, 8),
    ("committed", 3, 0x3fb606dd7f6e8405, 9),
    ("committed", 2, 0x3faabe258fe6861a, 10),
    ("committed", 3, 0x3fdb31a961d8f319, 11),
    ("committed", 2, 0x3fe19572c49ea727, 12),
    ("committed", 3, 0x3fd1d5ce751310a4, 13),
    ("committed", 2, 0x3fa2657971b21666, 14),
    ("committed", 3, 0x3fd684a23eb4e131, 15),
    ("committed", 1, 0x3fad436b4f66c1ef, 16),
    ("committed", 3, 0x3fc363d44b85e0d6, 17),
    ("committed", 3, 0x3fcd108f49de60a5, 18),
    ("committed", 3, 0x3fdd659f3517eac0, 19),
    ("committed", 3, 0x3fdf8a34db231c17, 20),
    ("committed", 3, 0x3fcfcd99f50a6ccf, 21),
    ("committed", 2, 0x3faf098bfe70e84d, 22),
    ("committed", 3, 0x3fcbb14527a2fef8, 23),
    ("committed", 2, 0x3fb429799c52c454, 24),
    ("committed", 3, 0x3fc4ba806ae656c5, 25),
    ("committed", 2, 0x3fd06a0d019964f0, 26),
    ("committed", 3, 0x3fc4ba806ae656c5, 27),
    ("committed", 3, 0x3fc2a0bd39a39885, 28),
    ("committed", 3, 0x3fc5ccef44d17f6d, 29),
    ("committed", 1, 0x3fbbdeff8319a435, 30),
    ("committed", 3, 0x3fec26076a8e237e, 31),
    ("committed", 2, 0x3fbeffa57fd8a12b, 32),
    ("committed", 3, 0x3fcafb667f461d6c, 33),
    ("committed", 2, 0x3fe4fac6ba5765bb, 34),
    REJECTED,
    ("committed", 2, 0x3fb8cf7d4f360c1b, 35),
    ("committed", 1, 0x3fe9fc6a0a47bc60, 36),
    ("committed", 2, 0x3fd56f050f5c794b, 37),
    REJECTED,
    REJECTED,
    ("committed", 3, 0x3fe8d19418df7155, 38),
    REJECTED,
    REJECTED,
    ("committed", 2, 0x3fd098e2baa37e5b, 39),
    ("committed", 3, 0x3fd13e493d2dc07c, 40),
    ("committed", 3, 0x3fe9d32be19a739c, 41),
    REJECTED,
    ("committed", 2, 0x3fe7bbc55cdc2224, 42),
];
const STALE_COUNTERS: &str = concat!(
    r#"{"plans_started":48,"plans_completed":42,"plans_rejected":6,"#,
    r#""reservations_committed":42,"reservations_rejected":0,"#,
    r#""sessions_released":12,"upgrades":0,"tradeoff_downgrades":16,"#,
    r#""skeleton_hits":0,"skeleton_misses":0,"faults_injected":0,"#,
    r#""rollbacks":0,"retries":0,"degraded_commits":0,"sessions_lost":0,"#,
    r#""fault_failures":0,"establish_attempts":48,"establishments":42,"#,
    r#""batches_planned":0,"commit_conflicts":0,"replans":0,"#,
    r#""delta_repairs":0,"delta_fallbacks":0,"relax_nodes_repaired":0,"#,
    r#""serve_requests":0,"serve_batches":0,"serve_protocol_errors":0,"#,
    r#""serve_disconnects":0,"advance_booked":0,"advance_repacked":0,"#,
    r#""advance_rejected":0,"psi_buckets":[14,7,9,2,3,1,1,2,3,0,0],"#,
    r#""psi_milli":{"count":42,"sum":11443,"min":36,"max":880,"p50":171,"#,
    r#""p90":751,"p99":880}}"#,
);

const FAULTS_ROWS: &[Row] = &[
    ("committed", 3, 0x3fb2211b9690a211, 2),
    ("committed", 3, 0x3fdef563c81d07e7, 3),
    ("committed", 3, 0x3fdbdd536247f5de, 4),
    ("committed", 3, 0x3fa4ca5a665a0d4e, 5),
    ("committed", 3, 0x3fe1d5ce751310a4, 6),
    REJECTED,
    ("committed", 3, 0x3fe296ce04e4aec9, 9),
    ("committed", 2, 0x3fc49d83a3444347, 10),
    ("degraded", 2, 0x3fd9ce2b3eee2e42, 13),
    ("committed", 2, 0x3fa7a50af8800697, 14),
    ("committed", 3, 0x3fed2981a803a198, 16),
    ("committed", 3, 0x3fd6d2f1e3dba18b, 17),
    REJECTED,
    ("committed", 2, 0x3fb73ace8658064c, 18),
    ("committed", 3, 0x3fe205854d5caa22, 19),
    REJECTED,
    REJECTED,
    REJECTED,
    REJECTED,
    REJECTED,
    ("committed", 3, 0x3fe14b3c5972d6ff, 20),
    ("committed", 2, 0x3fd2f8a1b3e98978, 21),
    REJECTED,
    REJECTED,
    REJECTED,
    ("committed", 3, 0x3fd600c72dbc04a1, 23),
    ("committed", 3, 0x3fd925ed2e04a25f, 24),
    ("committed", 3, 0x3fdf0ac7dea7aec5, 25),
    ("committed", 3, 0x3fe52f9fc68cf758, 26),
    ("committed", 3, 0x3fe4e5bf25452298, 28),
    ("committed", 3, 0x3fc9056abc174b9b, 30),
    ("committed", 2, 0x3fdd3e292d307abf, 33),
    REJECTED,
    ("committed", 3, 0x3fb3a22944bf4fae, 34),
    ("committed", 3, 0x3fc53a4a74bf3fc2, 36),
    ("committed", 3, 0x3fd55df19523c20e, 37),
    REJECTED,
    ("committed", 3, 0x3fcf19c3f20f8f7e, 39),
    REJECTED,
    ("committed", 2, 0x3fd4696dd8c677e6, 40),
    REJECTED,
    REJECTED,
    REJECTED,
    ("committed", 3, 0x3fe31605e3bb3971, 41),
    ("committed", 3, 0x3fc0dcdf831e1666, 42),
    ("committed", 3, 0x3fc2ba488af4bdf6, 43),
    ("committed", 3, 0x3fd174d12f202808, 44),
    ("committed", 3, 0x3fcccdd4324850b7, 45),
];
const FAULTS_COUNTERS: &str = concat!(
    r#"{"plans_started":48,"plans_completed":45,"plans_rejected":16,"#,
    r#""reservations_committed":32,"reservations_rejected":0,"#,
    r#""sessions_released":6,"upgrades":0,"tradeoff_downgrades":12,"#,
    r#""skeleton_hits":0,"skeleton_misses":0,"faults_injected":30,"#,
    r#""rollbacks":10,"retries":47,"degraded_commits":1,"#,
    r#""sessions_lost":0,"fault_failures":0,"establish_attempts":48,"#,
    r#""establishments":32,"batches_planned":0,"commit_conflicts":0,"#,
    r#""replans":0,"delta_repairs":0,"delta_fallbacks":0,"#,
    r#""relax_nodes_repaired":0,"serve_requests":0,"serve_batches":0,"#,
    r#""serve_protocol_errors":0,"serve_disconnects":0,"#,
    r#""advance_booked":0,"advance_repacked":0,"advance_rejected":0,"#,
    r#""psi_buckets":[5,5,4,5,5,5,2,0,0,1,0],"psi_milli":{"count":32,"#,
    r#""sum":11237,"min":41,"max":911,"p50":335,"p90":607,"p99":911}}"#,
);
