//! Isolated probes of the layers the wire workloads cross, run after
//! the traced slice on servers of their own: the codecs over the
//! workload's recorded frame mix, `AdmissionQueue::admit` at three
//! round sizes, the transport floor (`ping`), the full wake-up chain
//! (one establish in flight), connection set-up, lease release on
//! disconnect, and a short open-loop step at 20,000 establishes/s.

use crate::gen;
use crate::harness::{best_ns_per_call, median_u64, Layers};
use crate::stats::percentile;
use crate::surface::{
    read_response, start_server, write_request, Frame, FrameTape, PaperWorld, Reply, RequestBatch,
    World,
};
use crate::sys;
use crate::workloads::serve::{probe_server, Client, SATURATE_IN_FLIGHT};
use std::io::Write as _;
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Offered rate of the open-loop step, establishes per second.
const OPEN_RATE: f64 = 20_000.0;
/// The sender naps this long when nothing is due: frames go out in
/// bursts of about four, and the server's threads get the core.
const OPEN_NAP: Duration = Duration::from_micros(200);

/// Times the four codec directions over the frames `tape` recorded and
/// reports exact bytes per frame.
pub fn wire_codec(tape: &FrameTape, layers: &mut Layers) {
    let (requests, responses) = tape.len();
    if requests == 0 || responses == 0 {
        return;
    }
    let budget = Duration::from_millis(120);
    let mut request_bytes = Vec::new();
    tape.encode_requests(&mut request_bytes);
    let mut response_bytes = Vec::new();
    tape.encode_responses(&mut response_bytes);
    let mut scratch = Vec::with_capacity(request_bytes.len().max(response_bytes.len()));
    let per = |ns_per_pass: f64, frames: usize| ns_per_pass / frames as f64;
    layers.insert(
        "cli.wire.enc_request_ns",
        per(
            best_ns_per_call(budget, 1, || {
                scratch.clear();
                tape.encode_requests(&mut scratch);
            }),
            requests,
        ),
    );
    layers.insert(
        "cli.wire.dec_request_ns",
        per(
            best_ns_per_call(budget, 1, || {
                std::hint::black_box(FrameTape::decode_requests(&request_bytes));
            }),
            requests,
        ),
    );
    layers.insert(
        "cli.wire.enc_response_ns",
        per(
            best_ns_per_call(budget, 1, || {
                scratch.clear();
                tape.encode_responses(&mut scratch);
            }),
            responses,
        ),
    );
    layers.insert(
        "cli.wire.dec_response_ns",
        per(
            best_ns_per_call(budget, 1, || {
                std::hint::black_box(FrameTape::decode_responses(&response_bytes));
            }),
            responses,
        ),
    );
    layers.insert(
        "cli.wire.request_bytes_per_op",
        request_bytes.len() as f64 / requests as f64,
    );
    layers.insert(
        "cli.wire.response_bytes_per_op",
        response_bytes.len() as f64 / responses as f64,
    );
}

/// `AdmissionQueue::admit` at the default configuration on paper-world
/// requests, rounds of 1, 32 and 256: ns per session of the fastest
/// batch of rounds (terminates untimed).
fn admission(seed: u64, budget: Duration, layers: &mut Layers) {
    let world = PaperWorld::build();
    let admission = world.admission();
    let samples = gen::paper_requests(seed, SATURATE_IN_FLIGHT);
    for (name, size) in [
        ("broker.admission.admit_ns_per_session.b1", 1usize),
        ("broker.admission.admit_ns_per_session.b32", 32),
        ("broker.admission.admit_ns_per_session.b256", 256),
    ] {
        let batch = RequestBatch::new(
            samples[..size]
                .iter()
                .map(|s| world.instantiate(s.service, s.domain, s.scale)),
        );
        let rounds = SATURATE_IN_FLIGHT / size;
        let deadline = Instant::now() + budget / 3;
        let mut best = f64::INFINITY;
        let mut now = 0.0;
        loop {
            let mut spent = Duration::ZERO;
            for _ in 0..rounds {
                now += 1.0;
                let t = Instant::now();
                let admitted = admission.admit(&batch, now);
                spent += t.elapsed();
                admission.release(&admitted, now);
            }
            best = best.min(spent.as_nanos() as f64 / (rounds * batch.len()) as f64);
            if Instant::now() >= deadline {
                break;
            }
        }
        layers.insert(name, best);
    }
}

fn establish_frame(world: World, id: u64) -> Frame {
    match world {
        World::Bench => Frame::establish_plain(id, false),
        // Service 0 from domain 2: never the domain's excluded service.
        World::Paper => Frame::establish_paper(id, 0, 2, 1.0, None),
    }
}

/// `ping` round trips (the reader answers alone: the transport floor)
/// and lockstep establish round trips (reader → admission → writer: the
/// full wake-up chain). Medians, µs.
fn round_trips(world: World, budget: Duration, layers: &mut Layers) -> Result<(), String> {
    let (server, mut client) = probe_server(world)?;
    let mut id = 0u64;
    let mut pings = Vec::new();
    let deadline = Instant::now() + budget / 2;
    while Instant::now() < deadline {
        id += 1;
        let t = Instant::now();
        client.send_ping(id)?;
        client.flush()?;
        let reply = client.recv(None)?;
        pings.push(t.elapsed().as_nanos() as u64);
        if reply != (Reply::Pong { id }) {
            return Err(format!("ping {id} answered with {reply:?}"));
        }
    }
    layers.insert("cli.serve.ping_rtt_us", median_u64(&mut pings) / 1e3);

    let mut trips = Vec::new();
    let deadline = Instant::now() + budget / 2;
    while Instant::now() < deadline {
        id += 1;
        let t = Instant::now();
        let reply = client.call(&establish_frame(world, id))?;
        trips.push(t.elapsed().as_nanos() as u64);
        if let Reply::Outcome {
            session: Some(session),
            ..
        } = reply
        {
            id += 1;
            client.call(&Frame::terminate(id, session))?;
        }
    }
    layers.insert("cli.serve.rtt1_us", median_u64(&mut trips) / 1e3);
    drop(client);
    server.shutdown();
    Ok(())
}

/// Connection set-up (connect + first answered ping), and how long a
/// dropped connection's sessions take to be released.
fn connections(world: World, budget: Duration, layers: &mut Layers) -> Result<(), String> {
    let (server, mut watcher) = probe_server(world)?;
    let mut connects = Vec::new();
    let deadline = Instant::now() + budget / 2;
    while Instant::now() < deadline && connects.len() < 400 {
        let t = Instant::now();
        let mut c = Client::connect(server.addr())?;
        c.send_ping(1)?;
        c.flush()?;
        c.recv(None)?;
        connects.push(t.elapsed().as_nanos() as u64);
    }
    layers.insert("cli.serve.connect_us", median_u64(&mut connects) / 1e3);

    let mut releases = Vec::new();
    let deadline = Instant::now() + budget / 2;
    let mut id = 0u64;
    while releases.len() < 3 || (Instant::now() < deadline && releases.len() < 25) {
        let mut holder = Client::connect(server.addr())?;
        for _ in 0..SATURATE_IN_FLIGHT {
            id += 1;
            holder.send(&establish_frame(world, id), None)?;
        }
        holder.flush()?;
        let mut held = 0u64;
        for _ in 0..SATURATE_IN_FLIGHT {
            if let Reply::Outcome {
                session: Some(_), ..
            } = holder.recv(None)?
            {
                held += 1;
            }
        }
        let t = Instant::now();
        drop(holder);
        loop {
            id += 1;
            match watcher.call(&Frame::stats(id))? {
                Reply::Stats {
                    live_sessions: 0, ..
                } => break,
                Reply::Stats { .. } => {}
                other => return Err(format!("stats answered with {other:?}")),
            }
            if t.elapsed() > Duration::from_secs(10) {
                return Err("leases of a dropped connection were never released".to_owned());
            }
        }
        releases.push(t.elapsed().as_nanos() as u64 / held.max(1));
    }
    layers.insert(
        "cli.serve.lease_release_us_per_session",
        median_u64(&mut releases) / 1e3,
    );
    drop(watcher);
    server.shutdown();
    Ok(())
}

/// Open-loop step on the bench world: establishes leave on a Poisson
/// schedule drawn from the seed whatever the server does; latency runs
/// from each frame's due time, and the generator's own lateness is
/// reported beside it. Diagnostic only (see README.md).
fn open_loop(seed: u64, budget: Duration, layers: &mut Layers) -> Result<(), String> {
    let frames = (OPEN_RATE * budget.as_secs_f64()) as usize;
    if frames == 0 {
        return Ok(());
    }
    let mut due_ns = gen::poisson_gaps_ns(seed, OPEN_RATE, frames);
    for i in 1..frames {
        due_ns[i] += due_ns[i - 1];
    }
    let server = start_server(World::Bench)?;
    let (mut writer, mut reader) = Client::connect(server.addr())?.into_halves();
    let (session_tx, session_rx) = mpsc::channel::<u64>();
    let cpu_started = sys::process_cpu_ns();
    let started = Instant::now();

    let due = &due_ns;
    let (reader_result, lateness, sender_cpu) = std::thread::scope(|scope| {
        let reader_thread = scope.spawn(move || -> Result<(Vec<f64>, u64), String> {
            let cpu0 = sys::thread_cpu_ns();
            let mut latencies = Vec::with_capacity(frames);
            loop {
                match read_response(&mut reader, None)? {
                    Some(Reply::Outcome { id, session, .. }) => {
                        let now = started.elapsed().as_nanos() as u64;
                        let due = due[id as usize];
                        latencies.push(now.saturating_sub(due) as f64 / 1e3);
                        if let Some(session) = session {
                            // The sender may have finished; then the
                            // lease dies with the connection.
                            let _ = session_tx.send(session);
                        }
                    }
                    Some(Reply::Bye { .. }) | None => break,
                    Some(Reply::Error { message, .. }) => return Err(message),
                    Some(_) => {}
                }
            }
            Ok((latencies, sys::thread_cpu_ns() - cpu0))
        });

        let cpu0 = sys::thread_cpu_ns();
        let mut lateness = Vec::with_capacity(frames);
        let mut next = 0usize;
        let mut terminate_id = frames as u64;
        let mut send = |next: &mut usize, lateness: &mut Vec<f64>| -> Result<(), String> {
            let now = started.elapsed().as_nanos() as u64;
            while *next < frames && due[*next] <= now {
                lateness.push((now - due[*next]) as f64 / 1e3);
                write_request(
                    &mut writer,
                    &Frame::establish_plain(*next as u64, false),
                    None,
                )?;
                *next += 1;
            }
            while let Ok(session) = session_rx.try_recv() {
                terminate_id += 1;
                write_request(&mut writer, &Frame::terminate(terminate_id, session), None)?;
            }
            writer.flush().map_err(|e| format!("flush: {e}"))
        };
        let mut outcome = Ok(());
        while next < frames {
            outcome = send(&mut next, &mut lateness);
            if outcome.is_err() {
                break;
            }
            std::thread::sleep(OPEN_NAP);
        }
        // Everything is offered; `shutdown` drains what is queued and
        // the `bye` stops the reader.
        let stop = outcome.and_then(|()| {
            write_request(&mut writer, &Frame::shutdown(), None)?;
            writer.flush().map_err(|e| format!("flush: {e}"))
        });
        let sender_cpu = sys::thread_cpu_ns() - cpu0;
        if stop.is_err() {
            // Unblock the reader: the server closes every connection.
            drop(writer);
        }
        let reader_result = reader_thread
            .join()
            .unwrap_or_else(|_| Err("open-loop reader panicked".to_owned()));
        (stop.and(reader_result), lateness, sender_cpu)
    });
    let process_cpu = sys::process_cpu_ns() - cpu_started;
    server.wait();
    let (latencies, reader_cpu) = reader_result?;
    if latencies.len() != frames {
        return Err(format!(
            "open loop: {} of {frames} establishes answered",
            latencies.len()
        ));
    }
    layers.insert("cli.serve.open20k.lat_p50_us", percentile(&latencies, 0.50));
    layers.insert("cli.serve.open20k.lat_p99_us", percentile(&latencies, 0.99));
    layers.insert("cli.serve.open20k.late_p99_us", percentile(&lateness, 0.99));
    layers.insert(
        "cli.serve.open20k.server_cpu_us_per_op",
        process_cpu.saturating_sub(sender_cpu + reader_cpu) as f64 / 1e3 / frames as f64,
    );
    Ok(())
}

/// Every isolated probe of a wire workload, within about `budget`: half
/// of it for the open-loop step, the rest shared.
pub fn run(world: World, seed: u64, budget: Duration, layers: &mut Layers) -> Result<(), String> {
    admission(seed, budget / 6, layers);
    round_trips(world, budget / 6, layers)?;
    connections(world, budget / 6, layers)?;
    open_loop(seed, budget / 2, layers)
}
