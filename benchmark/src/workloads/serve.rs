//! The two wire workloads: an in-process `qosr serve` at
//! `ServeOptions::default()`, one loopback TCP connection, one client
//! thread, closed loop.
//!
//! * `serve_saturate` — bench world, 256 in flight: 256 plain
//!   `establish` frames, their 256 outcomes, 256 `terminate`s, their
//!   answers. Every frame stays on the hand-rolled fast codec path.
//! * `serve_mixed` — paper world, 32 in flight, every establish traced:
//!   20 establishes per round (1 in 4 `planner:"tradeoff"` with a
//!   `qos_min`), terminates for what was admitted [`MIXED_LAG`] rounds
//!   earlier, one `renegotiate`, one malleable `advance`, one
//!   `advance_cancel`, one `stats`.
//!
//! One op is one request frame; its latency runs from the flush that
//! sent it to its response being decoded. On `serve_saturate` only the
//! establishes are timed: the server answers a batch of establishes all
//! at once after its admission round and a batch of terminates one by
//! one as they arrive, so the two kinds' latencies do not overlap, and
//! the median of their union is the *last terminate answered* — a
//! maximum, which moved 20% run to run under a noisy neighbour where the
//! establishes' own median moved 3–7%. The terminates still count as ops.

use crate::gen::{self, MixedGen, MixedRound, MIXED_ESTABLISHES};
use crate::harness::{Env, Layers, Meter, Workload};
use crate::spans::SpanId;
use crate::stats::WINDOW_OPS;
use crate::surface::{
    read_response, start_server, write_request, Attribution, Frame, FrameTape, Reply, Server, World,
};
use crate::sys;
use crate::workloads::serve_probes;
use std::collections::VecDeque;
use std::io::{BufReader, BufWriter, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Frames in flight on `serve_saturate` — the server's `max_batch`.
pub const SATURATE_IN_FLIGHT: usize = 256;
/// Frames in flight on `serve_mixed`.
pub const MIXED_IN_FLIGHT: usize = 32;
/// Rounds a `serve_mixed` session is held before its terminate is sent.
/// Tuned once so `admit_share` lands in 0.75–0.90, then frozen.
pub const MIXED_LAG: usize = 7;
/// The `qos_min` floor carried by the tradeoff establishes.
const MIXED_QOS_FLOOR: u32 = 2;

/// One blocking connection to the in-process server.
pub struct Client {
    writer: BufWriter<TcpStream>,
    reader: BufReader<TcpStream>,
    /// Frames sent that the admission thread answers (all but pings).
    pub sent: u64,
}

impl Client {
    /// Connects with `TCP_NODELAY`.
    pub fn connect(addr: SocketAddr) -> Result<Client, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
        stream
            .set_nodelay(true)
            .map_err(|e| format!("nodelay: {e}"))?;
        // A wedged server fails the run instead of hanging it.
        stream
            .set_read_timeout(Some(Duration::from_secs(20)))
            .map_err(|e| format!("timeout: {e}"))?;
        let reader = BufReader::new(stream.try_clone().map_err(|e| format!("clone: {e}"))?);
        Ok(Client {
            writer: BufWriter::new(stream),
            reader,
            sent: 0,
        })
    }

    /// Buffers one frame.
    pub fn send(&mut self, frame: &Frame, tape: Option<&mut FrameTape>) -> Result<(), String> {
        self.sent += 1;
        write_request(&mut self.writer, frame, tape)
    }

    /// Buffers a `ping` (not counted: the reader answers it alone).
    pub fn send_ping(&mut self, id: u64) -> Result<(), String> {
        write_request(&mut self.writer, &Frame::ping(id), None)
    }

    /// Flushes what was buffered.
    pub fn flush(&mut self) -> Result<(), String> {
        self.writer.flush().map_err(|e| format!("flush: {e}"))
    }

    /// Reads the next response.
    pub fn recv(&mut self, tape: Option<&mut FrameTape>) -> Result<Reply, String> {
        read_response(&mut self.reader, tape)?
            .ok_or_else(|| "server closed the connection".to_owned())
    }

    /// The buffered write and read halves, for a sender and a reader
    /// thread.
    pub fn into_halves(self) -> (BufWriter<TcpStream>, BufReader<TcpStream>) {
        (self.writer, self.reader)
    }

    /// One frame out, one frame back.
    pub fn call(&mut self, frame: &Frame) -> Result<Reply, String> {
        self.send(frame, None)?;
        self.flush()?;
        self.recv(None)
    }
}

/// Sums of the server's attribution fields over traced outcomes.
#[derive(Debug, Default, Clone, Copy)]
struct AttributionSums {
    outcomes: u64,
    queue_ns: u64,
    collect_ns: u64,
    plan_ns: u64,
    replan_ns: u64,
    commit_ns: u64,
    total_ns: u64,
    outside_ns: u64,
    replanned: u64,
}

/// What both wire workloads share: server, connection, bookkeeping and
/// the end-of-run checks.
struct Wire {
    server: Option<Server>,
    client: Client,
    first_id: u64,
    next_id: u64,
    establishes: u64,
    attribution: AttributionSums,
    tape: Option<FrameTape>,
    rounds_seen: u64,
    dead: bool,
}

impl Wire {
    fn start(world: World, seed: u64, traced: bool) -> Result<Wire, String> {
        let server = start_server(world)?;
        let mut client = Client::connect(server.addr())?;
        // Set-up ends when the server answers: its threads are up and
        // the connection is registered.
        client.send_ping(0)?;
        client.flush()?;
        client.recv(None)?;
        Ok(Wire {
            server: Some(server),
            client,
            first_id: gen::first_frame_id(seed),
            next_id: gen::first_frame_id(seed),
            establishes: 0,
            attribution: AttributionSums::default(),
            tape: traced.then(FrameTape::default),
            rounds_seen: 0,
            dead: false,
        })
    }

    fn id(&mut self) -> u64 {
        self.next_id += 1;
        self.next_id
    }

    /// Sends `frames`, flushes once, and reads one reply per frame,
    /// recording each frame's latency from the flush (`timed`) or only
    /// counting it. Replies are handed to `on_reply` with the index of
    /// the frame they answer.
    fn exchange(
        &mut self,
        frames: &[(u64, Frame)],
        timed: bool,
        meter: &mut Meter,
        env: &mut Env,
        round: Option<SpanId>,
        mut on_reply: impl FnMut(usize, Reply, &mut Env),
    ) {
        if self.dead {
            env.checks.fail(frames.len() as u64, || {
                "connection already failed".to_owned()
            });
            return;
        }
        let span = env.spans.child("cli.wire.write_requests", round);
        for (_, frame) in frames {
            if let Err(e) = self.client.send(frame, self.tape.as_mut()) {
                self.dead = true;
                env.checks.fail(frames.len() as u64, || e);
                return;
            }
        }
        env.spans.close(span);
        // Stamped before the flush: the write wakes the server's reader,
        // which on a busy box runs before this thread gets to look at
        // the clock again.
        let sent_at = Instant::now();
        let span = env.spans.child("cli.serve.flush", round);
        let flushed = self.client.flush();
        env.spans.close(span);
        if let Err(e) = flushed {
            self.dead = true;
            env.checks.fail(frames.len() as u64, || e);
            return;
        }
        let mut span = env.spans.child("cli.serve.await_first", round);
        for (i, (id, _)) in frames.iter().enumerate() {
            let reply = match self.client.recv(self.tape.as_mut()) {
                Ok(reply) => reply,
                Err(e) => {
                    self.dead = true;
                    env.checks.fail((frames.len() - i) as u64, || e);
                    return;
                }
            };
            let lat_ns = sent_at.elapsed().as_nanos() as u64;
            if i == 0 {
                env.spans.close(span);
                span = env.spans.child("cli.wire.read_responses", round);
            }
            if timed {
                meter.record(lat_ns);
            } else {
                meter.count();
            }
            env.checks.require(reply.id() == Some(*id), || {
                format!("frame {id} was answered with {reply:?}")
            });
            if let Reply::Error { message, .. } = &reply {
                env.checks.fail(1, || format!("frame {id}: {message}"));
            }
            if let Reply::Outcome {
                attribution: Some(a),
                ..
            } = &reply
            {
                self.attribute(a, lat_ns, env);
            }
            on_reply(i, reply, env);
        }
        env.spans.close(span);
    }

    fn attribute(&mut self, a: &Attribution, lat_ns: u64, env: &mut Env) {
        let parts = a.queue_ns + a.collect_ns + a.plan_ns + a.replan_ns + a.commit_ns;
        env.checks.require(parts == a.total_ns, || {
            format!("attribution {parts} ns != total {} ns", a.total_ns)
        });
        env.checks.require(lat_ns >= a.total_ns, || {
            format!(
                "client latency {lat_ns} ns below server total {} ns",
                a.total_ns
            )
        });
        let s = &mut self.attribution;
        s.outcomes += 1;
        s.queue_ns += a.queue_ns;
        s.collect_ns += a.collect_ns;
        s.plan_ns += a.plan_ns;
        s.replan_ns += a.replan_ns;
        s.commit_ns += a.commit_ns;
        s.total_ns += a.total_ns;
        s.outside_ns += lat_ns.saturating_sub(a.total_ns);
        s.replanned += u64::from(a.replan_ns > 0);
    }

    /// Untimed `stats` poll between windows.
    fn poll_stats(&mut self, env: &mut Env) -> Option<(u64, u64, f64, f64)> {
        if self.dead {
            return None;
        }
        let id = self.id();
        env.checks.attempted += 1;
        match self.client.call(&Frame::stats(id)) {
            Ok(Reply::Stats {
                id: got,
                rounds,
                live_sessions,
                total_available,
                total_capacity,
                over_committed,
            }) => {
                env.checks
                    .require(got == id, || format!("stats {id} answered as {got}"));
                env.checks
                    .require(!over_committed, || "stats.over_committed".to_owned());
                self.rounds_seen = rounds;
                Some((rounds, live_sessions, total_available, total_capacity))
            }
            Ok(other) => {
                env.checks
                    .fail(1, || format!("stats answered with {other:?}"));
                None
            }
            Err(e) => {
                self.dead = true;
                env.checks.fail(1, || e);
                None
            }
        }
    }

    /// Capacity audit, `shutdown`, `bye`, join — and the layer metrics
    /// the traced slice read off the wire.
    fn finish(mut self, env: &mut Env, layers: &mut Layers) {
        if let Some((rounds, live, available, capacity)) = self.poll_stats(env) {
            env.checks.require(live == 0, || {
                format!("{live} sessions still leased after terminate-all")
            });
            env.checks
                .require((available - capacity).abs() <= 1e-9 * capacity, || {
                    format!("total_available {available} != total_capacity {capacity}")
                });
            if env.traced {
                layers.insert(
                    "broker.admission.mean_round_size",
                    self.establishes as f64 / rounds.max(1) as f64,
                );
            }
        }
        let server = self.server.take().expect("server runs until finish");
        let sent = self.client.sent;
        let bye = if self.dead {
            Err("connection already failed".to_owned())
        } else {
            self.client
                .send(&Frame::shutdown(), None)
                .and_then(|()| self.client.flush())
                .and_then(|()| self.client.recv(None))
        };
        env.checks.attempted += 1;
        match bye {
            Ok(Reply::Bye { drained }) => {
                env.checks.require(drained == sent, || {
                    format!("bye.drained {drained} != frames sent {sent}")
                });
                server.wait();
            }
            other => {
                env.checks
                    .fail(1, || format!("shutdown answered with {other:?}"));
                server.shutdown();
            }
        }
        if !env.traced {
            return;
        }
        let s = self.attribution;
        let n = s.outcomes.max(1) as f64;
        let us = |ns: u64| ns as f64 / n / 1e3;
        layers.insert("broker.admission.queue_us", us(s.queue_ns));
        layers.insert("broker.admission.collect_us", us(s.collect_ns));
        layers.insert("broker.admission.plan_us", us(s.plan_ns));
        layers.insert("broker.admission.replan_us", us(s.replan_ns));
        layers.insert("broker.admission.commit_us", us(s.commit_ns));
        layers.insert("broker.admission.total_us", us(s.total_ns));
        layers.insert("broker.admission.replan_share", s.replanned as f64 / n);
        layers.insert("cli.serve.outside_us", us(s.outside_ns));
        if let Some(tape) = &self.tape {
            serve_probes::wire_codec(tape, layers);
        }
    }
}

/// `serve_saturate`: the service plane at capacity.
pub struct ServeSaturate {
    wire: Wire,
    traced: bool,
    establish: Vec<(u64, Frame)>,
    terminate: Vec<(u64, Frame)>,
    sessions: Vec<u64>,
}

impl Workload for ServeSaturate {
    fn setup(seed: u64, traced: bool) -> Result<Self, String> {
        Ok(ServeSaturate {
            wire: Wire::start(World::Bench, seed, traced)?,
            traced,
            establish: Vec::with_capacity(SATURATE_IN_FLIGHT),
            terminate: Vec::with_capacity(SATURATE_IN_FLIGHT),
            sessions: Vec::with_capacity(SATURATE_IN_FLIGHT),
        })
    }

    fn window(&mut self, meter: &mut Meter, env: &mut Env) {
        let counting = meter.in_count_prefix();
        meter.open();
        while meter.pending() < WINDOW_OPS {
            let first = self.wire.next_id + 1;
            let round = env.spans.root("round", first);
            self.establish.clear();
            for _ in 0..SATURATE_IN_FLIGHT {
                let id = self.wire.id();
                self.establish
                    .push((id, Frame::establish_plain(id, self.traced)));
            }
            self.wire.establishes += SATURATE_IN_FLIGHT as u64;
            self.sessions.clear();
            let sessions = &mut self.sessions;
            self.wire
                .exchange(&self.establish, true, meter, env, round, |_, reply, env| {
                    let Reply::Outcome {
                        session, rank, psi, ..
                    } = reply
                    else {
                        return;
                    };
                    if counting {
                        env.counts
                            .offer(session.map(|_| (rank.unwrap_or(0), psi.unwrap_or(0.0))));
                    }
                    sessions.extend(session);
                });
            self.terminate.clear();
            for &session in &self.sessions {
                let id = self.wire.id();
                self.terminate.push((id, Frame::terminate(id, session)));
            }
            // Counted, not timed: see the module comment.
            self.wire
                .exchange(&self.terminate, false, meter, env, round, |_, _, _| {});
            env.spans.close(round);
            env.checks.attempted += (self.establish.len() + self.terminate.len()) as u64;
            if self.wire.dead {
                break;
            }
        }
        meter.close();
        self.wire.poll_stats(env);
    }

    fn finish(self, env: &mut Env, layers: &mut Layers) {
        self.wire.finish(env, layers);
    }

    fn input_hash(&self) -> u64 {
        // The stream is `establish(id)` for consecutive ids: the first
        // id names it.
        self.wire.first_id
    }

    fn probes(seed: u64, budget: Duration, layers: &mut Layers) -> Result<(), String> {
        serve_probes::run(World::Bench, seed, budget, layers)
    }
}

/// What a frame of a mixed round asks for, so its reply can be filed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Establish,
    Terminate,
    Renegotiate,
    Advance,
    AdvanceCancel,
    Stats,
}

/// `serve_mixed`: the same three layers, used the slow way.
pub struct ServeMixed {
    wire: Wire,
    gen: MixedGen,
    queue: VecDeque<MixedRound>,
    /// Sessions admitted per round, oldest first.
    held: VecDeque<Vec<u64>>,
    /// Advance sessions booked and not yet cancelled.
    advances: VecDeque<u64>,
    frames: Vec<(u64, Frame)>,
    kinds: Vec<Kind>,
}

impl ServeMixed {
    /// Builds one round's frames from the generated part and what the
    /// server answered in earlier rounds.
    fn build_round(&mut self, round: &MixedRound) {
        self.frames.clear();
        self.kinds.clear();
        for e in &round.establishes {
            let id = self.wire.id();
            let floor = e.tradeoff.then_some(MIXED_QOS_FLOOR);
            self.frames.push((
                id,
                Frame::establish_paper(id, e.service, e.domain, e.scale, floor),
            ));
            self.kinds.push(Kind::Establish);
        }
        self.wire.establishes += round.establishes.len() as u64;
        // Renegotiate the newest session still held (it stays held for
        // MIXED_LAG more rounds, so the terminate below cannot race it).
        let newest = self.held.back().and_then(|s| s.last().copied());
        if self.held.len() >= MIXED_LAG {
            for session in self.held.pop_front().unwrap_or_default() {
                let id = self.wire.id();
                self.frames.push((id, Frame::terminate(id, session)));
                self.kinds.push(Kind::Terminate);
            }
        }
        if let Some(session) = newest {
            let id = self.wire.id();
            self.frames.push((id, Frame::renegotiate(id, session)));
            self.kinds.push(Kind::Renegotiate);
        }
        let id = self.wire.id();
        // The server's sim-clock is its round counter; a deadline far
        // past the last count seen is always in the future.
        let deadline = self.wire.rounds_seen as f64 + 100_000.0;
        self.frames.push((
            id,
            Frame::advance(
                id,
                0,
                round.advance_volume,
                deadline,
                round.advance_max_rate,
            ),
        ));
        self.kinds.push(Kind::Advance);
        if let Some(session) = self.advances.pop_front() {
            let id = self.wire.id();
            self.frames.push((id, Frame::advance_cancel(id, session)));
            self.kinds.push(Kind::AdvanceCancel);
        }
        let id = self.wire.id();
        self.frames.push((id, Frame::stats(id)));
        self.kinds.push(Kind::Stats);
    }
}

impl Workload for ServeMixed {
    fn setup(seed: u64, traced: bool) -> Result<Self, String> {
        // Every establish is traced in both slices; the tape is what the
        // traced slice adds.
        Ok(ServeMixed {
            wire: Wire::start(World::Paper, seed, traced)?,
            gen: MixedGen::new(seed),
            queue: VecDeque::new(),
            held: VecDeque::new(),
            advances: VecDeque::new(),
            frames: Vec::new(),
            kinds: Vec::new(),
        })
    }

    fn window(&mut self, meter: &mut Meter, env: &mut Env) {
        let gen_started = sys::thread_cpu_ns();
        // A round is ~40 ops; 48 rounds always cover a window.
        while self.queue.len() < 48 {
            self.queue.push_back(self.gen.round());
        }
        env.gen_cpu_ns += sys::thread_cpu_ns() - gen_started;

        let counting = meter.in_count_prefix();
        meter.open();
        while meter.pending() < WINDOW_OPS {
            let generated = match self.queue.pop_front() {
                Some(round) => round,
                None => self.gen.round(),
            };
            self.build_round(&generated);
            let root = env.spans.root("round", self.frames[0].0);
            let mut admitted = Vec::with_capacity(MIXED_ESTABLISHES);
            let mut booked = None;
            let mut rounds_seen = self.wire.rounds_seen;
            let frames = std::mem::take(&mut self.frames);
            let kinds = std::mem::take(&mut self.kinds);
            for (chunk, chunk_kinds) in frames
                .chunks(MIXED_IN_FLIGHT)
                .zip(kinds.chunks(MIXED_IN_FLIGHT))
            {
                self.wire
                    .exchange(chunk, true, meter, env, root, |i, reply, env| {
                        match (chunk_kinds[i], reply) {
                            (
                                Kind::Establish,
                                Reply::Outcome {
                                    session, rank, psi, ..
                                },
                            ) => {
                                if counting {
                                    env.counts.offer(
                                        session.map(|_| (rank.unwrap_or(0), psi.unwrap_or(0.0))),
                                    );
                                }
                                admitted.extend(session);
                            }
                            (Kind::Advance, Reply::Advance { session, .. }) => {
                                env.checks.require(session.is_some(), || {
                                    "an advance transfer on an idle timeline was refused".to_owned()
                                });
                                booked = session;
                            }
                            (
                                Kind::Stats,
                                Reply::Stats {
                                    rounds,
                                    over_committed,
                                    ..
                                },
                            ) => {
                                env.checks
                                    .require(!over_committed, || "stats.over_committed".to_owned());
                                rounds_seen = rounds;
                            }
                            (Kind::Terminate, Reply::Terminated { .. })
                            | (Kind::Renegotiate, Reply::Renegotiated { .. })
                            | (Kind::AdvanceCancel, Reply::AdvanceCancelled { .. }) => {}
                            // An `error` reply was already counted.
                            (_, Reply::Error { .. }) => {}
                            (kind, other) => env
                                .checks
                                .fail(1, || format!("{kind:?} answered with {other:?}")),
                        }
                    });
            }
            env.spans.close(root);
            env.checks.attempted += frames.len() as u64;
            self.frames = frames;
            self.kinds = kinds;
            self.wire.rounds_seen = rounds_seen;
            self.held.push_back(admitted);
            self.advances.extend(booked);
            if self.wire.dead {
                break;
            }
        }
        meter.close();
    }

    fn finish(mut self, env: &mut Env, layers: &mut Layers) {
        // Terminate-all: everything still held, every advance booked.
        let mut scratch = Meter::default();
        let mut frames = Vec::new();
        for session in self.held.drain(..).flatten() {
            let id = self.wire.id();
            frames.push((id, Frame::terminate(id, session)));
        }
        for session in self.advances.drain(..) {
            let id = self.wire.id();
            frames.push((id, Frame::advance_cancel(id, session)));
        }
        env.checks.attempted += frames.len() as u64;
        for chunk in frames.chunks(MIXED_IN_FLIGHT) {
            self.wire
                .exchange(chunk, false, &mut scratch, env, None, |_, _, _| {});
        }
        self.wire.finish(env, layers);
    }

    fn input_hash(&self) -> u64 {
        self.gen.hash().value()
    }

    fn probes(seed: u64, budget: Duration, layers: &mut Layers) -> Result<(), String> {
        serve_probes::run(World::Paper, seed, budget, layers)
    }
}

/// A server of its own for a probe, and one connection to it.
pub fn probe_server(world: World) -> Result<(Server, Client), String> {
    let server = start_server(world)?;
    let client = Client::connect(server.addr())?;
    Ok((server, client))
}
