//! Integration coverage for the `qosr serve` network front-end: the
//! server must be an *observationally transparent* wrapper around the
//! in-process admission pipeline, and no client behaviour — batching,
//! disconnecting mid-lease, hammering from many sockets at once, or
//! asking the server to shut down — may ever leak reserved capacity.
//!
//! * **Equivalence**: the same seeded request sequence pushed through a
//!   live server on `127.0.0.1:0` and through an [`AdmissionQueue`] on
//!   an identically-built world produces frame-identical outcomes
//!   (status, session id, rank, ψ, rejection error), and tearing all
//!   sessions down leaves both worlds at full capacity.
//! * **Robustness**: a client that dies mid-lease releases exactly what
//!   it held; a shutdown drains in-flight work before the `bye`;
//!   concurrent clients never over-commit a broker.
//!
//! `QOSR_SERVE_ROUNDS` scales the equivalence schedule up (CI smoke
//! runs the default).

use qosr::broker::LocalBrokerConfig;
use qosr::prelude::*;
use qosr::sim::services::ServiceOptions;
use qosr::sim::PaperEnvironment;
use qosr_cli::serve::{start, ServeOptions, WorldKind};
use qosr_cli::wire::{
    read_frame, write_frame, AdvanceDef, EstablishDef, OutcomeFrame, RequestFrame, ResponseFrame,
    StatsFrame,
};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::io::{BufReader, Write as _};
use std::net::{SocketAddr, TcpStream};

const WORLD_SEED: u64 = 0xC0FFEE;
const CAPACITY: (f64, f64) = (1000.0, 4000.0);
const PIPELINE_SEED: u64 = 0x5eed;

fn paper_opts() -> ServeOptions {
    ServeOptions {
        world: WorldKind::Paper,
        world_seed: WORLD_SEED,
        capacity: CAPACITY,
        seed: PIPELINE_SEED,
        ..ServeOptions::default()
    }
}

fn paper_env() -> PaperEnvironment {
    let mut rng = StdRng::seed_from_u64(WORLD_SEED);
    PaperEnvironment::build(
        &mut rng,
        &ServiceOptions::default(),
        CAPACITY,
        LocalBrokerConfig::default(),
    )
}

/// Per-broker availability across the whole world — the conservation
/// oracle shared with `tests/admission.rs`.
fn availability(coordinator: &qosr::broker::Coordinator) -> Vec<f64> {
    coordinator
        .proxies()
        .iter()
        .flat_map(|p| p.brokers().iter().map(|b| b.available()))
        .collect()
}

/// `(service, domain)` pairs honouring the excluded-service rule.
fn valid_pairs() -> Vec<(usize, usize)> {
    (0..8)
        .flat_map(|domain| {
            (0..4)
                .filter(move |&service| service != domain / 2)
                .map(move |service| (service, domain))
        })
        .collect()
}

/// A deterministic schedule of admission rounds: each round is a batch
/// of establishes over seeded `(service, domain, scale)` draws at an
/// explicit sim-time.
fn schedule(rounds: usize, per_round: usize) -> Vec<(f64, Vec<EstablishDef>)> {
    let pairs = valid_pairs();
    let mut rng = StdRng::seed_from_u64(0xD15EA5E);
    let mut next_id = 0u64;
    (0..rounds)
        .map(|r| {
            let batch = (0..per_round)
                .map(|_| {
                    let (service, domain) = pairs[rng.random_range(0..pairs.len())];
                    next_id += 1;
                    let mut def = EstablishDef::new(next_id);
                    def.service = service;
                    def.domain = domain;
                    // Occasional fat sessions provoke degradations and
                    // rejections, not just clean commits.
                    def.scale = if rng.random::<f64>() < 0.2 { 4.0 } else { 1.0 };
                    def
                })
                .collect();
            (r as f64, batch)
        })
        .collect()
}

struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    fn connect(addr: SocketAddr) -> Client {
        let writer = TcpStream::connect(addr).expect("connect");
        writer.set_nodelay(true).expect("nodelay");
        let reader = BufReader::new(writer.try_clone().expect("clone"));
        Client { writer, reader }
    }

    fn send(&mut self, frame: &RequestFrame) {
        write_frame(&mut self.writer, frame).expect("send");
        self.writer.flush().expect("flush");
    }

    fn recv(&mut self) -> ResponseFrame {
        read_frame(&mut self.reader)
            .expect("recv")
            .expect("open stream")
    }

    fn stats(&mut self, id: u64) -> StatsFrame {
        self.send(&RequestFrame::Stats { id });
        match self.recv() {
            ResponseFrame::Stats(stats) => stats,
            other => panic!("expected stats, got {other:?}"),
        }
    }
}

/// The tentpole guarantee: over-the-wire admission is outcome-identical
/// to in-process admission on the same world, and full teardown
/// restores every broker on both sides.
#[test]
fn server_outcomes_match_in_process_admission() {
    let rounds: usize = std::env::var("QOSR_SERVE_ROUNDS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(12);
    let plan = schedule(rounds, 16);

    // In-process reference: identical world, identical config, the
    // same explicit round times.
    let env = paper_env();
    let pristine = availability(&env.coordinator);
    let queue = AdmissionQueue::new(
        &env.coordinator,
        AdmissionConfig {
            seed: PIPELINE_SEED,
            ..AdmissionConfig::default()
        },
    );
    let mut expected: Vec<OutcomeFrame> = Vec::new();
    let mut established = Vec::new();
    for (now, batch) in &plan {
        let requests: Vec<SessionRequest> = batch
            .iter()
            .map(|def| {
                SessionRequest::new(
                    env.session(def.service, def.domain, def.scale)
                        .expect("valid pair"),
                )
            })
            .collect();
        for (i, outcome) in queue
            .admit(&requests, SimTime::new(*now))
            .into_iter()
            .enumerate()
        {
            expected.push(OutcomeFrame::from_outcome(batch[i].id, &outcome));
            if let Some(est) = outcome.into_session() {
                established.push(est);
            }
        }
    }

    // Over the wire: one `batch` frame per round pins the same
    // sim-time the reference used.
    let server = start(&paper_opts()).expect("start server");
    let mut client = Client::connect(server.addr());
    let mut actual: Vec<OutcomeFrame> = Vec::new();
    let mut sessions: Vec<u64> = Vec::new();
    for (now, batch) in &plan {
        client.send(&RequestFrame::Batch {
            now: Some(*now),
            requests: batch.clone(),
        });
        for _ in batch {
            match client.recv() {
                ResponseFrame::Outcome(frame) => {
                    if let Some(session) = frame.session {
                        sessions.push(session);
                    }
                    actual.push(frame);
                }
                other => panic!("expected an outcome, got {other:?}"),
            }
        }
    }

    assert_eq!(actual.len(), expected.len());
    for (a, e) in actual.iter().zip(&expected) {
        assert_eq!(a, e, "over-the-wire outcome diverged from in-process");
    }

    // Teardown both sides: capacity must be conserved exactly.
    let final_time = plan.len() as f64 + 1.0;
    for est in &established {
        env.coordinator.terminate(est, SimTime::new(final_time));
    }
    assert_eq!(availability(&env.coordinator), pristine);

    for (i, session) in sessions.iter().enumerate() {
        client.send(&RequestFrame::Terminate {
            id: 1_000_000 + i as u64,
            session: *session,
        });
        match client.recv() {
            ResponseFrame::Terminated { released, .. } => {
                assert!(released > 0.0, "terminate must release capacity")
            }
            other => panic!("expected terminated, got {other:?}"),
        }
    }
    let stats = client.stats(2_000_000);
    assert_eq!(stats.live_sessions, 0);
    assert!(!stats.over_committed);
    assert_eq!(
        stats.total_available, stats.total_capacity,
        "teardown must restore the server's world to full capacity"
    );

    server.shutdown();
}

/// The `qosr load --attrib` acceptance bar, asserted at the protocol
/// level: an establish carrying a trace id gets its outcome frame back
/// with server-side latency attribution whose phases sum *exactly* to
/// the end-to-end total (the queue span absorbs the residual, so there
/// is no unexplained remainder and no tolerance needed), the flight
/// ring retains the span trees for `flight` to dump, and the `slo`
/// frame reports every observed request.
#[test]
fn traced_establishes_attribute_latency_exactly() {
    let server = start(&paper_opts()).expect("start server");
    let mut client = Client::connect(server.addr());

    const TRACED: u64 = 24;
    let pairs = valid_pairs();
    let mut rng = StdRng::seed_from_u64(0xACC0); // attribution schedule
    let mut admitted = 0u64;
    for id in 0..TRACED {
        let (service, domain) = pairs[rng.random_range(0..pairs.len())];
        let mut def = EstablishDef::new(id);
        def.service = service;
        def.domain = domain;
        def.scale = if rng.random::<f64>() < 0.2 { 4.0 } else { 1.0 };
        def.trace = Some(0x7000 + id);
        client.send(&RequestFrame::Establish(def));
        match client.recv() {
            ResponseFrame::Outcome(frame) => {
                assert_eq!(frame.id, id);
                assert_eq!(
                    frame.trace,
                    Some(0x7000 + id),
                    "the outcome must echo the request's trace id"
                );
                let total = frame.total_ns.expect("traced outcome carries total_ns");
                assert!(total > 0, "end-to-end latency must be measured");
                let attributed = frame.queue_ns.unwrap_or(0)
                    + frame.collect_ns.unwrap_or(0)
                    + frame.plan_ns.unwrap_or(0)
                    + frame.replan_ns.unwrap_or(0)
                    + frame.commit_ns.unwrap_or(0);
                assert_eq!(
                    attributed, total,
                    "request {id}: phase attribution must sum exactly to total_ns"
                );
                if frame.is_admitted() {
                    admitted += 1;
                    assert!(
                        frame.plan_ns.unwrap_or(0) > 0,
                        "an admitted request spends time planning"
                    );
                }
            }
            other => panic!("expected an outcome, got {other:?}"),
        }
    }
    assert!(admitted > 0, "the schedule must admit sessions");

    // The flight ring holds every traced request's span tree, and each
    // tree accounts for its request exactly.
    client.send(&RequestFrame::Flight { id: 9_000 });
    match client.recv() {
        ResponseFrame::Flight(frame) => {
            assert_eq!(frame.id, 9_000);
            assert_eq!(frame.traces.len() as u64, TRACED);
            for trace in &frame.traces {
                let spans: u64 = trace.spans.iter().map(|s| s.duration_ns).sum();
                assert_eq!(spans, trace.total_ns, "root spans must sum to total");
            }
        }
        other => panic!("expected a flight dump, got {other:?}"),
    }

    // The SLO engine observed every request (traced or not) and is not
    // breached by a short healthy run under the default targets.
    client.send(&RequestFrame::Slo { id: 9_001 });
    match client.recv() {
        ResponseFrame::Slo(frame) => {
            assert_eq!(frame.id, 9_001);
            assert_eq!(frame.report.total, TRACED);
            assert_eq!(
                frame.report.committed + frame.report.degraded + frame.report.rejected,
                TRACED
            );
            assert!(!frame.report.breached, "healthy run must not breach");
        }
        other => panic!("expected an slo report, got {other:?}"),
    }

    // Untraced requests still flow through the fast path untouched: no
    // attribution fields come back without a trace id.
    let mut plain = EstablishDef::new(77_000);
    plain.service = 1;
    plain.domain = 0;
    client.send(&RequestFrame::Establish(plain));
    match client.recv() {
        ResponseFrame::Outcome(frame) => {
            assert!(frame.trace.is_none() && frame.total_ns.is_none());
        }
        other => panic!("expected an outcome, got {other:?}"),
    }

    server.shutdown();
}

/// A client that vanishes mid-lease releases exactly what it held —
/// nothing more (the survivor's sessions stay reserved), nothing less.
#[test]
fn disconnect_releases_only_the_dead_clients_leases() {
    let server = start(&paper_opts()).expect("start server");
    let mut survivor = Client::connect(server.addr());
    let mut doomed = Client::connect(server.addr());

    let establish = |client: &mut Client, id: u64, service: usize, domain: usize| {
        let mut def = EstablishDef::new(id);
        def.service = service;
        def.domain = domain;
        client.send(&RequestFrame::Establish(def));
        match client.recv() {
            ResponseFrame::Outcome(frame) => frame,
            other => panic!("expected an outcome, got {other:?}"),
        }
    };

    let kept = establish(&mut survivor, 1, 1, 0);
    assert!(kept.is_admitted(), "baseline establish must admit");
    let leaked = establish(&mut doomed, 2, 2, 0);
    assert!(leaked.is_admitted(), "doomed client's establish must admit");

    let before = survivor.stats(10);
    assert_eq!(before.live_sessions, 2);
    let held_by_doomed = before.total_capacity - before.total_available;

    // Kill the doomed client without terminating anything.
    drop(doomed);

    // The disconnect is processed asynchronously; poll stats until the
    // lease count drops.
    let mut after = survivor.stats(11);
    for _ in 0..200 {
        if after.live_sessions == 1 {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(5));
        after = survivor.stats(12);
    }
    assert_eq!(
        after.live_sessions, 1,
        "dead client's lease must be released"
    );
    assert!(!after.over_committed);
    assert!(
        after.total_available > before.total_available,
        "the dead client's reservations must come back"
    );
    assert!(
        after.total_available < before.total_available + held_by_doomed,
        "the survivor's session must stay reserved"
    );

    server.shutdown();
}

/// `shutdown` drains queued establishes before acknowledging: every
/// request sent ahead of the shutdown frame still gets its outcome on
/// the same connection, then the `bye` reports the drained count.
#[test]
fn shutdown_drains_in_flight_batches() {
    let server = start(&paper_opts()).expect("start server");
    let mut client = Client::connect(server.addr());

    const BURST: u64 = 32;
    for id in 0..BURST {
        let mut def = EstablishDef::new(id);
        def.service = 1;
        def.domain = 0;
        write_frame(&mut client.writer, &RequestFrame::Establish(def)).expect("send");
    }
    write_frame(&mut client.writer, &RequestFrame::Shutdown).expect("send");
    client.writer.flush().expect("flush");

    let mut outcomes = 0u64;
    loop {
        match client.recv() {
            ResponseFrame::Outcome(frame) => {
                assert!(frame.id < BURST);
                outcomes += 1;
            }
            ResponseFrame::Bye { drained } => {
                // Everything pipelined ahead of the shutdown was
                // answered first, and the bye accounts for all of it.
                assert_eq!(
                    outcomes, BURST,
                    "every in-flight establish gets its outcome"
                );
                assert!(
                    drained >= BURST,
                    "bye reports {drained} answered, burst was {BURST}"
                );
                break;
            }
            other => panic!("expected outcome or bye, got {other:?}"),
        }
    }
    server.wait();
}

/// Advance frames that used to reach `TimelineIndex::add` with an empty
/// or inverted window — a panic on the admission thread, which every
/// connection shares — are answered, and the server keeps serving.
#[test]
fn degenerate_advance_windows_are_answered_not_fatal() {
    let server = start(&paper_opts()).expect("start server");
    let mut client = Client::connect(server.addr());
    // A dead admission thread answers nothing: fail, do not hang.
    client
        .writer
        .set_read_timeout(Some(std::time::Duration::from_secs(20)))
        .expect("read timeout");
    // The reader answers pings alone; `stats` needs the admission thread.
    let still_serving = |client: &mut Client, id: u64| {
        client.send(&RequestFrame::Ping { id });
        assert_eq!(client.recv(), ResponseFrame::Pong { id });
        client.stats(id + 1);
    };

    // A transfer whose volume takes less than one ulp of time at its
    // earliest start: rejected as an invalid amount, nothing booked.
    let mut def = AdvanceDef::malleable(1, 0, 1e-9, 2e6);
    def.earliest = Some(1e6);
    client.send(&RequestFrame::Advance(def));
    match client.recv() {
        ResponseFrame::Advance(outcome) => {
            assert_eq!((outcome.id, outcome.status.as_str()), (1, "rejected"));
            let error = outcome.error.expect("rejections carry the error");
            assert!(error.contains("invalid amount"), "{error}");
        }
        other => panic!("expected an advance outcome, got {other:?}"),
    }
    still_serving(&mut client, 10);

    // Rigid windows with `from == to` and `from > to`: error frames.
    for (id, from, to) in [(2, 5.0, 5.0), (3, 5.0, 4.0)] {
        client.send(&RequestFrame::Advance(AdvanceDef::rigid(
            id,
            vec![(0, 1.0)],
            from,
            to,
        )));
        match client.recv() {
            ResponseFrame::Error { id: got, message } => {
                assert_eq!(got, Some(id));
                assert!(message.contains("from < to"), "{message}");
            }
            other => panic!("expected an error frame, got {other:?}"),
        }
        still_serving(&mut client, 10 * id);
    }

    server.shutdown();
}

/// Many clients hammering concurrently: whatever interleaving the
/// accept loop and coalescer produce, no broker ever goes negative, and
/// a full teardown restores full capacity.
#[test]
fn concurrent_clients_never_over_commit() {
    let server = start(&paper_opts()).expect("start server");
    let addr = server.addr();
    const CLIENTS: usize = 6;
    const PER_CLIENT: u64 = 20;

    let workers: Vec<_> = (0..CLIENTS)
        .map(|c| {
            std::thread::spawn(move || {
                let pairs = valid_pairs();
                let mut rng = StdRng::seed_from_u64(c as u64);
                let mut client = Client::connect(addr);
                let mut sessions = Vec::new();
                for i in 0..PER_CLIENT {
                    let (service, domain) = pairs[rng.random_range(0..pairs.len())];
                    let mut def = EstablishDef::new(((c as u64) << 32) | i);
                    def.service = service;
                    def.domain = domain;
                    def.scale = if rng.random::<f64>() < 0.25 { 3.0 } else { 1.0 };
                    client.send(&RequestFrame::Establish(def));
                    match client.recv() {
                        ResponseFrame::Outcome(frame) => {
                            if let Some(session) = frame.session {
                                sessions.push(session);
                            }
                        }
                        other => panic!("expected an outcome, got {other:?}"),
                    }
                }
                // Half the clients clean up politely; the rest just
                // disconnect and lean on lease release.
                if c % 2 == 0 {
                    for (i, session) in sessions.iter().enumerate() {
                        client.send(&RequestFrame::Terminate {
                            id: 3_000_000 + i as u64,
                            session: *session,
                        });
                        match client.recv() {
                            ResponseFrame::Terminated { .. } => {}
                            other => panic!("expected terminated, got {other:?}"),
                        }
                    }
                }
            })
        })
        .collect();
    for worker in workers {
        worker.join().expect("client thread");
    }

    let mut auditor = Client::connect(addr);
    let mut stats = auditor.stats(1);
    for _ in 0..200 {
        if stats.live_sessions == 0 {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(5));
        stats = auditor.stats(2);
    }
    assert!(!stats.over_committed, "no broker may ever go negative");
    assert_eq!(stats.live_sessions, 0, "all leases must be released");
    assert_eq!(
        stats.total_available, stats.total_capacity,
        "full teardown must restore full capacity"
    );

    server.shutdown();
}
