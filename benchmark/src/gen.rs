//! Input generation. The run's `--seed` reaches this file and nothing
//! else: every random draw the benchmark makes happens here, and the
//! product crates only ever see the generated ops.
//!
//! Each generator folds the ops it emits into an [`InputHash`] (the
//! first [`HASHED_OPS`] of them, so the hash does not depend on how far
//! a run got); `main` prints it as `input_hash`. One seed gives one op
//! stream and one hash; two seeds give two.

use crate::stats::{COUNT_WINDOWS, WINDOW_OPS};
use crate::surface::{self, Sampler};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Ops folded into the input hash: the prefix the count metrics cover.
pub const HASHED_OPS: u64 = (COUNT_WINDOWS * WINDOW_OPS) as u64;

/// FNV-1a over the generated op stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InputHash(u64);

impl Default for InputHash {
    fn default() -> Self {
        InputHash(0xcbf2_9ce4_8422_2325)
    }
}

impl InputHash {
    fn feed(&mut self, word: u64) {
        for byte in word.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn feed_f64(&mut self, value: f64) {
        self.feed(value.to_bits());
    }

    /// The hash so far.
    pub fn value(self) -> u64 {
        self.0
    }
}

/// splitmix64: derives independent sub-seeds from the run seed.
fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The generator handed to product calls that take `&mut impl Rng`
/// (`Coordinator::establish_request`, `PlanCtx::plan`). The planners the
/// benchmark asks for never draw from it; it exists to satisfy the
/// signature, and is still derived here so no other file sees the seed.
pub fn product_rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(mix(seed, 0xA11C))
}

// ───────────────────────── paper_establish ─────────────────────────

/// Arrival rate of the paper loop, sessions per 60 TU (figure 11's
/// contended middle: success ≈ 0.8).
pub const PAPER_RATE_PER_60TU: f64 = 180.0;

/// One arrival of the paper's §5 loop.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PaperOp {
    /// Arrival time, TU.
    pub at: f64,
    /// Requested service, 0-based.
    pub service: usize,
    /// Requesting domain, 0-based.
    pub domain: usize,
    /// Demand scale ("fat" factor).
    pub scale: f64,
    /// Holding time, TU.
    pub duration: f64,
    /// Plan with the tradeoff planner (odd arrivals) or basic (even).
    pub tradeoff: bool,
}

/// The paper's Poisson arrival stream on the figure-9 world.
pub struct PaperGen {
    rng: StdRng,
    sampler: Sampler,
    clock: f64,
    index: u64,
    hash: InputHash,
}

impl PaperGen {
    /// The stream `seed` names.
    pub fn new(seed: u64) -> Self {
        PaperGen {
            rng: StdRng::seed_from_u64(mix(seed, 1)),
            sampler: Sampler::new(PAPER_RATE_PER_60TU),
            clock: 0.0,
            index: 0,
            hash: InputHash::default(),
        }
    }

    /// Appends the next `n` arrivals to `out`.
    pub fn fill(&mut self, out: &mut Vec<PaperOp>, n: usize) {
        for _ in 0..n {
            self.clock += self.sampler.interarrival(&mut self.rng);
            let s = self.sampler.sample(&mut self.rng);
            let op = PaperOp {
                at: self.clock,
                service: s.service,
                domain: s.domain,
                scale: s.scale,
                duration: s.duration,
                tradeoff: self.index % 2 == 1,
            };
            if self.index < HASHED_OPS {
                self.hash.feed_f64(op.at);
                self.hash.feed(op.service as u64);
                self.hash.feed(op.domain as u64);
                self.hash.feed_f64(op.scale);
                self.hash.feed_f64(op.duration);
            }
            self.index += 1;
            out.push(op);
        }
    }

    /// Hash of the ops emitted so far.
    pub fn hash(&self) -> InputHash {
        self.hash
    }
}

/// Paper-world establish templates for the isolated admission probes.
pub fn paper_requests(seed: u64, n: usize) -> Vec<surface::Sample> {
    let mut rng = StdRng::seed_from_u64(mix(seed, 2));
    let sampler = Sampler::new(PAPER_RATE_PER_60TU);
    (0..n).map(|_| sampler.sample(&mut rng)).collect()
}

// ───────────────────────── serve_saturate ─────────────────────────

/// First frame id of a serve run: ten digits whatever the seed, so the
/// seed never changes a frame's length.
pub fn first_frame_id(seed: u64) -> u64 {
    1_000_000_000 + mix(seed, 3) % 1_000_000_000
}

/// Poisson gaps (ns) of the open-loop probe at `rate_per_s`.
pub fn poisson_gaps_ns(seed: u64, rate_per_s: f64, n: usize) -> Vec<u64> {
    let mut rng = StdRng::seed_from_u64(mix(seed, 4));
    (0..n)
        .map(|_| {
            let u: f64 = 1.0 - rng.random::<f64>();
            (-u.ln() / rate_per_s * 1e9) as u64
        })
        .collect()
}

// ─────────────────────────── serve_mixed ───────────────────────────

/// Establishes per `serve_mixed` round.
pub const MIXED_ESTABLISHES: usize = 20;

/// One templated establish of a mixed round.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MixedEstablish {
    /// Requested service, 0-based.
    pub service: usize,
    /// Requesting domain, 0-based.
    pub domain: usize,
    /// Demand scale.
    pub scale: f64,
    /// One in four: `planner:"tradeoff"` plus a `qos_min` floor.
    pub tradeoff: bool,
}

/// The generated part of one `serve_mixed` round (terminates and
/// cancels follow from the server's answers).
#[derive(Debug, Clone, PartialEq)]
pub struct MixedRound {
    /// The round's establishes, in send order.
    pub establishes: Vec<MixedEstablish>,
    /// Volume of the round's malleable advance transfer.
    pub advance_volume: f64,
    /// Its rate cap.
    pub advance_max_rate: f64,
}

/// Round stream of `serve_mixed`.
pub struct MixedGen {
    rng: StdRng,
    sampler: Sampler,
    ops: u64,
    hash: InputHash,
}

impl MixedGen {
    /// The stream `seed` names.
    pub fn new(seed: u64) -> Self {
        MixedGen {
            rng: StdRng::seed_from_u64(mix(seed, 5)),
            sampler: Sampler::new(PAPER_RATE_PER_60TU),
            ops: 0,
            hash: InputHash::default(),
        }
    }

    /// The next round.
    pub fn round(&mut self) -> MixedRound {
        let mut establishes = Vec::with_capacity(MIXED_ESTABLISHES);
        for i in 0..MIXED_ESTABLISHES {
            let s = self.sampler.sample(&mut self.rng);
            let e = MixedEstablish {
                service: s.service,
                domain: s.domain,
                scale: s.scale,
                tradeoff: i % 4 == 3,
            };
            if self.ops < HASHED_OPS {
                self.hash.feed(e.service as u64);
                self.hash.feed(e.domain as u64);
                self.hash.feed_f64(e.scale);
            }
            self.ops += 1;
            establishes.push(e);
        }
        let round = MixedRound {
            establishes,
            advance_volume: self.rng.random_range(50..500u64) as f64,
            advance_max_rate: self.rng.random_range(10..50u64) as f64,
        };
        if self.ops < HASHED_OPS {
            self.hash.feed_f64(round.advance_volume);
            self.hash.feed_f64(round.advance_max_rate);
        }
        round
    }

    /// Hash of the rounds emitted so far.
    pub fn hash(&self) -> InputHash {
        self.hash
    }
}

// ─────────────────────────── advance_mix ───────────────────────────

/// Links of the advance world.
pub const ADVANCE_LINKS: usize = 4;
/// Reservation horizon, TU.
pub const ADVANCE_HORIZON: u64 = 1_000_000;
/// Standing rigid bookings loaded by the fill step: 56,000 per link.
///
/// Not the round 200,000: each `TimelineBroker` keeps its sessions in a
/// hash map whose table holds 57,344 entries at this size, and a table
/// more than half full doubles *once* when insert/remove churn has used
/// up its slack. At 50,000 per link that happened about a million ops
/// in — inside a fast run and after the end of a slow one, so
/// `peak_rss_mb` read 70 or 79 MB by host luck. At 56,000 plus ~750 live
/// dynamic sessions the slack is gone within the first seconds of every
/// run, and the table never grows again.
pub const ADVANCE_STANDING: usize = 224_000;
/// Capacity of every link: the standing load averages 1,250 with
/// excursions near 2,600, so the standing set always fits and the
/// dynamic bookings on top of it meet real contention.
pub const ADVANCE_CAPACITY: f64 = 3_000.0;
/// Offered sessions kept alive: every offered session is cancelled
/// exactly this many book ops after it was offered, so the population
/// is level by construction.
pub const ADVANCE_LIVE: usize = 4_096;
/// Malleable transfers start in this tail of the horizon. The planner's
/// cost grows with the breakpoints after its start; the tail keeps one
/// transfer in the hundreds of microseconds so a run still cuts
/// hundreds of windows.
pub const ADVANCE_MALLEABLE_TAIL: (u64, u64) = (20_000, 4_000);

/// One call into the advance layer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AdvanceOp {
    /// `book` of a rigid window on one link.
    Rigid {
        /// Link index.
        link: usize,
        /// Window start, TU.
        from: f64,
        /// Window end, TU.
        to: f64,
        /// Demand.
        amount: f64,
    },
    /// `book` of a malleable transfer on one link.
    Malleable {
        /// Link index.
        link: usize,
        /// Earliest start, TU.
        earliest: f64,
        /// Deadline, TU.
        deadline: f64,
        /// Volume to move.
        volume: f64,
        /// Rate cap.
        max_rate: f64,
        /// One in eight carries `allow_preempt`, as the issue wrote it.
        /// The product honours the flag on rigid requests only, so it is
        /// inert here — deliberately: a rigid request that preempts can
        /// panic the planner (see README.md, "Findings").
        preempt: bool,
    },
    /// `cancel_all` of the oldest offered session.
    Cancel,
    /// A window read: `snapshot_window` over every link (`whole`) or
    /// `available_over` on one.
    Query {
        /// Link index (ignored when `whole`).
        link: usize,
        /// Window start, TU.
        from: f64,
        /// Window end, TU.
        to: f64,
        /// Read every link at once.
        whole: bool,
    },
}

/// Op kinds by `index mod 10`: 3 rigid books, 1 malleable book, 4
/// cancels, 2 window reads — books equal cancels, so the live
/// population never drifts (see README.md for why this is not the
/// 4/2/2/2 mix the issue sketched).
const ADVANCE_PATTERN: [u8; 10] = [b'R', b'C', b'R', b'C', b'Q', b'R', b'C', b'M', b'C', b'Q'];

/// Seed of the standing set. The world is the same in every run — as
/// the paper world is (`ServeOptions::default().world_seed`) — and the
/// run's seed drives only the ops offered to it: a different standing
/// set is a different index shape, which moved every timing by ±5%.
const ADVANCE_WORLD_SEED: u64 = 42;

/// Op stream of `advance_mix`.
pub struct AdvanceGen {
    world_rng: StdRng,
    rng: StdRng,
    index: u64,
    malleable: u64,
    hash: InputHash,
}

impl AdvanceGen {
    /// The stream `seed` names.
    pub fn new(seed: u64) -> Self {
        AdvanceGen {
            world_rng: StdRng::seed_from_u64(ADVANCE_WORLD_SEED),
            rng: StdRng::seed_from_u64(mix(seed, 6)),
            index: 0,
            malleable: 0,
            hash: InputHash::default(),
        }
    }

    /// One standing booking: the shape `benches/advance.rs` loads
    /// (integer amounts keep every level sum exact), except that starts
    /// follow the draw index across the horizon, a few TU of jitter
    /// apart, so the set loads in start-time order — as a server
    /// restores a ledger from its log. Drawn uniformly, the load is a
    /// random walk over a growing 85 MB index: twice as long, and as
    /// unsteady as the host's memory (1.0–1.6 s in runs of one binary,
    /// against 0.52–0.56 s in order).
    pub fn standing(&mut self, i: usize) -> AdvanceOp {
        let slot = (i % ADVANCE_STANDING) as u64 * ADVANCE_HORIZON / ADVANCE_STANDING as u64;
        let from = (slot + self.world_rng.random_range(0..5u64)) as f64;
        let len = self.world_rng.random_range(1..1000u64) as f64;
        AdvanceOp::Rigid {
            link: i % ADVANCE_LINKS,
            from,
            to: from + len,
            amount: self.world_rng.random_range(1..100u64) as f64,
        }
    }

    fn rigid(&mut self) -> AdvanceOp {
        let link = self.rng.random_range(0..ADVANCE_LINKS);
        let from = self.rng.random_range(0..ADVANCE_HORIZON) as f64;
        let len = self.rng.random_range(1..1000u64) as f64;
        AdvanceOp::Rigid {
            link,
            from,
            to: from + len,
            amount: self.rng.random_range(100..1800u64) as f64,
        }
    }

    fn malleable(&mut self) -> AdvanceOp {
        self.malleable += 1;
        let (lo, hi) = ADVANCE_MALLEABLE_TAIL;
        let earliest = self
            .rng
            .random_range(ADVANCE_HORIZON - lo..ADVANCE_HORIZON - hi) as f64;
        AdvanceOp::Malleable {
            link: self.rng.random_range(0..ADVANCE_LINKS),
            earliest,
            deadline: earliest + self.rng.random_range(500..5000u64) as f64,
            volume: self.rng.random_range(5_000..50_000u64) as f64,
            max_rate: self.rng.random_range(50..300u64) as f64,
            preempt: self.malleable.is_multiple_of(8),
        }
    }

    fn query(&mut self) -> AdvanceOp {
        let from = self.rng.random_range(0..ADVANCE_HORIZON) as f64;
        let len = self.rng.random_range(1..ADVANCE_HORIZON / 4) as f64;
        AdvanceOp::Query {
            link: self.rng.random_range(0..ADVANCE_LINKS),
            from,
            to: from + len,
            whole: self.rng.random::<bool>(),
        }
    }

    fn fold(&mut self, op: &AdvanceOp) {
        if self.index >= HASHED_OPS {
            return;
        }
        let words: [f64; 5] = match *op {
            AdvanceOp::Rigid {
                link,
                from,
                to,
                amount,
            } => [link as f64, from, to, amount, -3.0],
            AdvanceOp::Malleable {
                link,
                earliest,
                deadline,
                volume,
                max_rate,
                ..
            } => [link as f64, earliest, deadline, volume, max_rate],
            AdvanceOp::Cancel => [-1.0; 5],
            AdvanceOp::Query {
                link,
                from,
                to,
                whole,
            } => [link as f64, from, to, if whole { 1.0 } else { 0.0 }, -2.0],
        };
        for w in words {
            self.hash.feed_f64(w);
        }
    }

    /// The next book op of the fill (3 rigid : 1 malleable, the
    /// measured mix's own ratio), outside the measured stream.
    pub fn fill_book(&mut self, i: usize) -> AdvanceOp {
        if i % 4 == 3 {
            self.malleable()
        } else {
            self.rigid()
        }
    }

    /// The next measured op.
    pub fn next(&mut self) -> AdvanceOp {
        let op = match ADVANCE_PATTERN[(self.index % 10) as usize] {
            b'R' => self.rigid(),
            b'M' => self.malleable(),
            b'C' => AdvanceOp::Cancel,
            _ => self.query(),
        };
        self.fold(&op);
        self.index += 1;
        op
    }

    /// Hash of the measured ops emitted so far.
    pub fn hash(&self) -> InputHash {
        self.hash
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paper_hash(seed: u64) -> u64 {
        let mut g = PaperGen::new(seed);
        let mut ops = Vec::new();
        g.fill(&mut ops, 5000);
        g.hash().value()
    }

    fn mixed_hash(seed: u64) -> u64 {
        let mut g = MixedGen::new(seed);
        for _ in 0..200 {
            g.round();
        }
        g.hash().value()
    }

    fn advance_hash(seed: u64) -> u64 {
        let mut g = AdvanceGen::new(seed);
        for i in 0..100 {
            g.standing(i);
        }
        for _ in 0..5000 {
            g.next();
        }
        g.hash().value()
    }

    #[test]
    fn one_seed_gives_one_hash_and_two_seeds_give_two() {
        for hash in [paper_hash, mixed_hash, advance_hash] {
            assert_eq!(hash(7), hash(7));
            assert_ne!(hash(7), hash(8));
        }
        assert_eq!(first_frame_id(7), first_frame_id(7));
        assert_ne!(first_frame_id(7), first_frame_id(8));
        assert_eq!(poisson_gaps_ns(7, 2e4, 64), poisson_gaps_ns(7, 2e4, 64));
        assert_ne!(poisson_gaps_ns(7, 2e4, 64), poisson_gaps_ns(8, 2e4, 64));
    }

    #[test]
    fn frame_ids_keep_ten_digits() {
        for seed in 0..200 {
            let first = first_frame_id(seed);
            assert_eq!(first.to_string().len(), 10);
            assert_eq!((first + 500_000_000).to_string().len(), 10);
        }
    }

    #[test]
    fn advance_pattern_balances_books_and_cancels() {
        let books = ADVANCE_PATTERN
            .iter()
            .filter(|k| matches!(k, b'R' | b'M'))
            .count();
        let cancels = ADVANCE_PATTERN.iter().filter(|&&k| k == b'C').count();
        assert_eq!(books, cancels);
        let mut g = AdvanceGen::new(3);
        let kinds: Vec<AdvanceOp> = (0..10).map(|_| g.next()).collect();
        assert!(matches!(kinds[1], AdvanceOp::Cancel));
        assert!(matches!(kinds[7], AdvanceOp::Malleable { .. }));
        assert!(matches!(kinds[9], AdvanceOp::Query { .. }));
    }

    #[test]
    fn paper_stream_is_ordered_and_alternates_planners() {
        let mut g = PaperGen::new(11);
        let mut ops = Vec::new();
        g.fill(&mut ops, 1000);
        assert!(ops.windows(2).all(|w| w[0].at < w[1].at));
        assert!(ops.iter().step_by(2).all(|o| !o.tradeoff));
        assert!(ops.iter().skip(1).step_by(2).all(|o| o.tradeoff));
        // 180 sessions per 60 TU: three arrivals per TU.
        let rate = ops.len() as f64 / ops.last().unwrap().at;
        assert!((rate - 3.0).abs() < 0.3, "rate {rate}");
    }
}
