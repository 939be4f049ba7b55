//! `advance_mix`: advance reservations in process on one thread. An
//! `AdvanceRegistry` over four `TimelineBroker` links (building them is
//! `setup_s`) is filled with 224,000 standing rigid bookings on a 1M-TU
//! horizon (`broker.advance.load_s`, untimed end to end: half a second
//! of memory-bound work that drifted 30% between two sets of runs of one
//! binary); the measured ops then book rigid windows and malleable
//! transfers on top, cancel the oldest offered session, and read
//! windows back — reads beside writes on one index. One op is one call.
//!
//! `broker.advance` (`TimelineIndex`) and `broker.malleable` do all the
//! work; nothing else runs.

use crate::gen::{
    AdvanceGen, AdvanceOp, ADVANCE_CAPACITY, ADVANCE_LINKS, ADVANCE_LIVE, ADVANCE_STANDING,
};
use crate::harness::{median_u64, Env, Layers, Meter, Workload};
use crate::stats::WINDOW_OPS;
use crate::surface::{AdvanceWorld, Booked};
use crate::sys;
use std::collections::{HashMap, VecDeque};
use std::time::{Duration, Instant};

/// Window reads re-checked against the benchmark's own ledger.
const LEDGER_CHECKS: usize = 200;

/// One booked piece: `(from, to, amount)`.
type Piece = (f64, f64, f64);

/// What the benchmark itself knows is booked: the standing set per
/// link, and every live offered session's pieces.
#[derive(Default)]
struct Ledger {
    standing: Vec<Vec<Piece>>,
    live: HashMap<u64, (usize, Vec<Piece>)>,
}

impl Ledger {
    /// Guaranteed availability of `link` over `[from, to)` by brute
    /// force: sweep every overlapping piece's start and end.
    fn available_over(&self, link: usize, from: f64, to: f64, capacity: f64) -> f64 {
        let mut level = 0.0;
        // (time, is_start, amount); ends sort before starts at one time
        // because a piece does not cover its own end.
        let mut events: Vec<(f64, bool, f64)> = Vec::new();
        let pieces = self.standing[link].iter().chain(
            self.live
                .values()
                .filter(|(l, _)| *l == link)
                .flat_map(|(_, p)| p.iter()),
        );
        for &(f, t, amount) in pieces {
            if f >= to || t <= from {
                continue;
            }
            if f <= from {
                level += amount;
            } else {
                events.push((f, true, amount));
            }
            if t < to {
                events.push((t, false, amount));
            }
        }
        events.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        let mut peak = level;
        for (_, start, amount) in events {
            level += if start { amount } else { -amount };
            peak = peak.max(level);
        }
        capacity - peak
    }
}

fn pieces_of(op: &AdvanceOp, booked: &Booked) -> (usize, Vec<Piece>) {
    match *op {
        AdvanceOp::Rigid {
            link,
            from,
            to,
            amount,
            ..
        } => (link, vec![(from, to, amount)]),
        AdvanceOp::Malleable { link, .. } => (link, booked.segments.clone()),
        _ => unreachable!("only books reach the ledger"),
    }
}

/// Registry, op stream, offered-session queue and ledger of one run.
pub struct AdvanceMix {
    world: AdvanceWorld,
    gen: AdvanceGen,
    ledger: Ledger,
    /// Offered sessions, oldest first (admitted or not).
    offered: VecDeque<u64>,
    next_session: u64,
    ops: Vec<AdvanceOp>,
    index: u64,
    queries: Vec<(usize, f64, f64)>,
    repacked: u64,
    rejected: u64,
    books: u64,
    /// Seconds the standing load took.
    load_s: f64,
}

impl AdvanceMix {
    fn book(&mut self, op: &AdvanceOp) -> Booked {
        self.next_session += 1;
        let session = self.next_session;
        let booked = match *op {
            AdvanceOp::Rigid {
                link,
                from,
                to,
                amount,
            } => self.world.book_rigid(session, link, from, to, amount),
            AdvanceOp::Malleable {
                link,
                earliest,
                deadline,
                volume,
                max_rate,
                preempt,
            } => self
                .world
                .book_malleable(session, link, earliest, deadline, volume, max_rate, preempt),
            _ => unreachable!("only books are booked"),
        };
        self.offered.push_back(session);
        booked
    }

    /// Files an admitted booking (and whatever a repack moved).
    fn file(&mut self, op: &AdvanceOp, booked: &Booked) {
        if !booked.admitted {
            return;
        }
        self.ledger
            .live
            .insert(self.next_session, pieces_of(op, booked));
        for &moved in &booked.moved {
            if let Some((link, pieces)) = self.ledger.live.get_mut(&moved) {
                *pieces = self.world.bookings_of(*link, moved);
            }
        }
    }
}

impl Workload for AdvanceMix {
    fn setup(seed: u64, _traced: bool) -> Result<Self, String> {
        Ok(AdvanceMix {
            world: AdvanceWorld::build(ADVANCE_LINKS, ADVANCE_CAPACITY),
            gen: AdvanceGen::new(seed),
            ledger: Ledger {
                standing: vec![Vec::new(); ADVANCE_LINKS],
                live: HashMap::new(),
            },
            offered: VecDeque::new(),
            next_session: 0,
            ops: Vec::new(),
            index: 0,
            queries: Vec::new(),
            repacked: 0,
            rejected: 0,
            books: 0,
            load_s: 0.0,
        })
    }

    fn fill(&mut self) -> Result<(), String> {
        let started = Instant::now();
        for standing in &mut self.ledger.standing {
            standing.reserve(ADVANCE_STANDING / ADVANCE_LINKS);
        }
        self.offered.reserve(ADVANCE_LIVE + 8);
        self.ops.reserve(WINDOW_OPS);
        // Standing set: exactly ADVANCE_STANDING admitted bookings (a
        // draw that does not fit is redrawn, so no seed can fail).
        let mut loaded = 0;
        let mut draws = 0;
        while loaded < ADVANCE_STANDING {
            let op = self.gen.standing(draws);
            draws += 1;
            if draws > 2 * ADVANCE_STANDING {
                return Err("the standing set does not fit the links".to_owned());
            }
            let AdvanceOp::Rigid {
                link,
                from,
                to,
                amount,
                ..
            } = op
            else {
                unreachable!("standing bookings are rigid");
            };
            self.next_session += 1;
            let session = self.next_session;
            if self
                .world
                .book_rigid(session, link, from, to, amount)
                .admitted
            {
                self.ledger.standing[link].push((from, to, amount));
                loaded += 1;
            }
        }
        self.load_s = started.elapsed().as_secs_f64();
        // The live offered population the measured ops keep level.
        for i in 0..ADVANCE_LIVE {
            let op = self.gen.fill_book(i);
            let booked = self.book(&op);
            self.file(&op, &booked);
        }
        Ok(())
    }

    fn window(&mut self, meter: &mut Meter, env: &mut Env) {
        let gen_started = sys::thread_cpu_ns();
        self.ops.clear();
        for _ in 0..WINDOW_OPS {
            self.ops.push(self.gen.next());
        }
        env.gen_cpu_ns += sys::thread_cpu_ns() - gen_started;

        let counting = meter.in_count_prefix();
        meter.open();
        for i in 0..self.ops.len() {
            let op = self.ops[i];
            let root = env.spans.root("op", self.index);
            match op {
                AdvanceOp::Rigid { .. } | AdvanceOp::Malleable { .. } => {
                    let name = if matches!(op, AdvanceOp::Rigid { .. }) {
                        "broker.advance.book_rigid"
                    } else {
                        "broker.advance.book_malleable"
                    };
                    let span = env.spans.child(name, root);
                    let started = Instant::now();
                    let booked = self.book(&op);
                    meter.record(started.elapsed().as_nanos() as u64);
                    env.spans.close(span);
                    self.books += 1;
                    self.repacked += u64::from(booked.repacked);
                    self.rejected += u64::from(!booked.admitted);
                    if counting {
                        env.counts.offer(booked.admitted.then_some((1, booked.psi)));
                    }
                    env.checks
                        .require(!booked.admitted || booked.psi <= 1.0 + 1e-9, || {
                            format!("booked profile with Ψ = {}", booked.psi)
                        });
                    self.file(&op, &booked);
                }
                AdvanceOp::Cancel => {
                    let session = self
                        .offered
                        .pop_front()
                        .expect("books equal cancels: the queue never empties");
                    let span = env.spans.child("broker.advance.cancel", root);
                    let started = Instant::now();
                    let (released, removed) = self.world.cancel(session);
                    meter.record(started.elapsed().as_nanos() as u64);
                    env.spans.close(span);
                    let (_, pieces) = self.ledger.live.remove(&session).unwrap_or_default();
                    let admitted: f64 = pieces.iter().map(|(f, t, a)| a * (t - f)).sum();
                    env.checks.require(
                        removed == pieces.len()
                            && (released - admitted).abs() <= 1e-6 * admitted.max(1.0),
                        || {
                            format!(
                                "session {session}: released {released} in {removed} bookings, \
                                 admitted {admitted} in {}",
                                pieces.len()
                            )
                        },
                    );
                }
                AdvanceOp::Query {
                    link,
                    from,
                    to,
                    whole,
                } => {
                    let span = env.spans.child("broker.advance.query", root);
                    let started = Instant::now();
                    let read = if whole {
                        self.world.snapshot_window(from, to)
                    } else {
                        self.world.available_over(link, from, to)
                    };
                    meter.record(started.elapsed().as_nanos() as u64);
                    env.spans.close(span);
                    std::hint::black_box(read);
                    if self.queries.len() < LEDGER_CHECKS {
                        self.queries.push((link, from, to));
                    }
                }
            }
            env.spans.close(root);
            self.index += 1;
        }
        meter.close();
        env.checks.attempted += self.ops.len() as u64;
    }

    fn finish(mut self, env: &mut Env, layers: &mut Layers) {
        // Sampled window reads against the ledger, on the final state.
        let capacity = self.world.capacity();
        env.checks.attempted += self.queries.len() as u64;
        for &(link, from, to) in &self.queries {
            let product = self.world.available_over(link, from, to);
            let ledger = self.ledger.available_over(link, from, to, capacity);
            env.checks
                .require((product - ledger).abs() <= 1e-6 * capacity, || {
                    format!("link {link} [{from}, {to}): index says {product}, ledger {ledger}")
                });
        }
        // Released volume equals admitted volume for everything still
        // offered.
        let (mut released, mut admitted) = (0.0, 0.0);
        for session in self.offered.drain(..) {
            released += self.world.cancel(session).0;
            let (_, pieces) = self.ledger.live.remove(&session).unwrap_or_default();
            admitted += pieces.iter().map(|(f, t, a)| a * (t - f)).sum::<f64>();
        }
        env.checks.require(
            (released - admitted).abs() <= 1e-6 * admitted.max(1.0),
            || format!("drain released {released}, ledger admitted {admitted}"),
        );
        env.checks.require(self.ledger.live.is_empty(), || {
            format!(
                "{} ledger sessions were never offered",
                self.ledger.live.len()
            )
        });
        if !env.traced {
            return;
        }
        for (metric, span) in [
            ("broker.advance.book_rigid_us", "broker.advance.book_rigid"),
            (
                "broker.advance.book_malleable_us",
                "broker.advance.book_malleable",
            ),
            ("broker.advance.cancel_us", "broker.advance.cancel"),
            ("broker.advance.query_us", "broker.advance.query"),
        ] {
            layers.insert(metric, median_u64(&mut env.spans.durations(span)) / 1e3);
        }
        layers.insert("broker.advance.load_s", self.load_s);
        let books = self.books.max(1) as f64;
        layers.insert("broker.advance.repack_share", self.repacked as f64 / books);
        layers.insert("broker.advance.reject_share", self.rejected as f64 / books);
        layers.insert(
            "broker.advance.breakpoints",
            self.world.breakpoints() as f64,
        );
    }

    fn input_hash(&self) -> u64 {
        self.gen.hash().value()
    }

    fn probes(_seed: u64, _budget: Duration, _layers: &mut Layers) -> Result<(), String> {
        // Every layer this workload crosses is measured in place.
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ledger_sweep_matches_hand_computed_windows() {
        let ledger = Ledger {
            standing: vec![vec![(0.0, 10.0, 5.0), (5.0, 15.0, 3.0)]],
            live: HashMap::from([(1, (0, vec![(10.0, 20.0, 4.0)]))]),
        };
        // [0,5): 5. [5,10): 8. [10,15): 3+4 = 7. [15,20): 4.
        assert_eq!(ledger.available_over(0, 0.0, 5.0, 10.0), 5.0);
        assert_eq!(ledger.available_over(0, 0.0, 20.0, 10.0), 2.0);
        assert_eq!(ledger.available_over(0, 10.0, 20.0, 10.0), 3.0);
        assert_eq!(ledger.available_over(0, 15.0, 30.0, 10.0), 6.0);
        assert_eq!(ledger.available_over(0, 20.0, 30.0, 10.0), 10.0);
    }
}
