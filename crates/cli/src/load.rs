//! The `qosr load` subcommand: an open-loop load generator for
//! [`crate::serve`].
//!
//! Open-loop means the send schedule is fixed by `--rate` alone — a
//! sender never waits for responses before issuing the next request, so
//! a slow server accumulates queueing delay in the measured latency
//! instead of silently throttling the offered load (the coordinated-
//! omission trap closed-loop generators fall into).
//!
//! Each of `--connections` sender threads paces `rate / connections`
//! establishes per second (with seeded ±20% jitter so the senders do
//! not phase-lock into synchronized bursts), while a paired reader
//! thread timestamps every response against its send time and records
//! the nanosecond latency in a shared lock-free
//! [`Histogram`]. The final [`LoadReport`] is what `--json` prints and
//! `--out` writes.

use crate::dto::ScenarioError;
use crate::wire::{
    read_frame, read_response_frame, write_frame, write_request_frame, EstablishDef, RequestFrame,
    ResponseFrame,
};
use qosr_obs::Histogram;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use serde::Serialize;
use std::collections::VecDeque;
use std::io::{BufReader, BufWriter, Write as _};
use std::net::{Shutdown, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Knobs for `qosr load`, all settable from the command line.
#[derive(Debug, Clone)]
pub struct LoadOptions {
    /// The server to load (`--addr HOST:PORT`).
    pub addr: String,
    /// Aggregate offered load in requests per second (`--rate`).
    pub rate: f64,
    /// How long to offer it, in seconds (`--duration`).
    pub duration: f64,
    /// Concurrent connections, each with its own sender (`--connections`).
    pub connections: usize,
    /// Seed for the pacing jitter (`--seed`).
    pub seed: u64,
    /// Service template index sent with every establish (`--service`).
    pub service: usize,
    /// Domain template index sent with every establish (`--domain`).
    pub domain: usize,
    /// Demand scale factor sent with every establish (`--scale`).
    pub scale: f64,
    /// Write the report as JSON here (`--out FILE`).
    pub out: Option<PathBuf>,
    /// Print the report as JSON instead of a table (`--json`).
    pub json: bool,
    /// Send a `shutdown` frame when done and wait for the `bye`
    /// (`--shutdown`) — lets scripts tear the server down in one go.
    pub shutdown: bool,
    /// Request server-side latency attribution (`--attrib`): every
    /// establish carries a trace id, and the report splits the
    /// client-observed latency into the server's span-tree phases
    /// (queue/collect/plan/replan/commit) versus everything outside
    /// them (network plus client-side queueing).
    pub attrib: bool,
}

impl Default for LoadOptions {
    fn default() -> Self {
        LoadOptions {
            addr: "127.0.0.1:7464".into(),
            rate: 50_000.0,
            duration: 5.0,
            connections: 4,
            seed: 0,
            service: 0,
            domain: 0,
            scale: 1.0,
            out: None,
            json: false,
            shutdown: false,
            attrib: false,
        }
    }
}

/// What one load run measured; serialized verbatim by `--json` and
/// `--out`.
#[derive(Debug, Clone, Serialize)]
pub struct LoadReport {
    /// Offered load the run asked for, requests per second.
    pub rate_target: f64,
    /// Connections (sender threads) used.
    pub connections: u64,
    /// Configured duration in seconds.
    pub duration_s: f64,
    /// Establish frames sent.
    pub requests: u64,
    /// Outcome frames received.
    pub responses: u64,
    /// Responses with status `committed`.
    pub committed: u64,
    /// Responses with status `degraded`.
    pub degraded: u64,
    /// Responses with status `rejected`.
    pub rejected: u64,
    /// `error` frames received (bad templates, protocol trouble).
    pub errors: u64,
    /// Wall-clock seconds from first send to last response.
    pub elapsed_s: f64,
    /// Completed requests per second (`responses / elapsed_s`).
    pub requests_per_sec: f64,
    /// Median request latency in nanoseconds.
    pub p50_ns: u64,
    /// 99th-percentile request latency in nanoseconds.
    pub p99_ns: u64,
    /// 99.9th-percentile request latency in nanoseconds.
    pub p999_ns: u64,
    /// Mean request latency in nanoseconds.
    pub mean_ns: f64,
    /// Worst observed request latency in nanoseconds.
    pub max_ns: u64,
    /// Server-side latency attribution — present only under `--attrib`.
    pub attribution: Option<AttribReport>,
}

/// Where traced requests spent their time, split between the server's
/// span tree and everything the server cannot see. All means are over
/// the responses that carried attribution.
#[derive(Debug, Clone, Serialize)]
pub struct AttribReport {
    /// Responses whose outcome frame carried a server span tree.
    pub matched: u64,
    /// Responses whose phase nanoseconds did **not** sum exactly to the
    /// server's `total_ns` — the span-tree accounting identity promises
    /// this stays 0.
    pub mismatches: u64,
    /// Mean client-observed latency (send to response decode), ns.
    pub client_mean_ns: f64,
    /// Mean server-side end-to-end latency (span-tree total), ns.
    pub server_mean_ns: f64,
    /// Mean latency outside the server's span tree: network transit
    /// plus client- and server-side socket queueing, ns.
    pub network_queue_mean_ns: f64,
    /// Mean server queue phase (ingress to round pickup), ns.
    pub queue_mean_ns: f64,
    /// Mean collect phase (phase-1 bid gathering share), ns.
    pub collect_mean_ns: f64,
    /// Mean plan phase (phase-2 relaxation), ns.
    pub plan_mean_ns: f64,
    /// Mean replan phase (conflict repair), ns.
    pub replan_mean_ns: f64,
    /// Mean commit phase (two-phase reserve/commit), ns.
    pub commit_mean_ns: f64,
}

/// Tallies shared by every connection.
#[derive(Default)]
struct Tallies {
    responses: AtomicU64,
    committed: AtomicU64,
    degraded: AtomicU64,
    rejected: AtomicU64,
    errors: AtomicU64,
    // Attribution sums (populated only when outcomes carry span trees).
    attrib_matched: AtomicU64,
    attrib_mismatches: AtomicU64,
    attrib_client_ns: AtomicU64,
    attrib_server_ns: AtomicU64,
    attrib_queue_ns: AtomicU64,
    attrib_collect_ns: AtomicU64,
    attrib_plan_ns: AtomicU64,
    attrib_replan_ns: AtomicU64,
    attrib_commit_ns: AtomicU64,
}

/// How long the drain phase waits for stragglers after the offered
/// load stops.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(10);

/// The sender's minimum nap between catch-up bursts (see the pacing
/// loop in [`connection_worker`]).
const MIN_NAP: Duration = Duration::from_micros(500);

/// Runs one open-loop load test against a running `qosr serve`.
pub fn run_load(opts: &LoadOptions) -> Result<LoadReport, ScenarioError> {
    if !(opts.rate.is_finite() && opts.rate > 0.0) {
        return Err(ScenarioError::Invalid(format!(
            "--rate must be finite and positive, got {}",
            opts.rate
        )));
    }
    if !(opts.duration.is_finite() && opts.duration > 0.0) {
        return Err(ScenarioError::Invalid(format!(
            "--duration must be finite and positive, got {}",
            opts.duration
        )));
    }
    let connections = opts.connections.max(1);
    let hist = Arc::new(Histogram::new());
    let tallies = Arc::new(Tallies::default());
    let started = Instant::now();

    let mut workers = Vec::with_capacity(connections);
    for conn in 0..connections {
        let opts = opts.clone();
        let hist = Arc::clone(&hist);
        let tallies = Arc::clone(&tallies);
        workers.push(
            std::thread::Builder::new()
                .name(format!("qosr-load-{conn}"))
                .spawn(move || connection_worker(conn, connections, &opts, hist, tallies))
                .map_err(ScenarioError::Io)?,
        );
    }

    let mut requests = 0u64;
    let mut failures: Vec<String> = Vec::new();
    for worker in workers {
        match worker.join() {
            Ok(Ok(sent)) => requests += sent,
            Ok(Err(e)) => failures.push(e.to_string()),
            Err(_) => failures.push("a load connection panicked".into()),
        }
    }
    if requests == 0 {
        let detail = failures
            .first()
            .cloned()
            .unwrap_or_else(|| "no connection could send".into());
        return Err(ScenarioError::Invalid(format!(
            "load run sent nothing: {detail}"
        )));
    }
    let elapsed_s = started.elapsed().as_secs_f64();

    if opts.shutdown {
        shutdown_server(&opts.addr)?;
    }

    let responses = tallies.responses.load(Ordering::Relaxed);
    Ok(LoadReport {
        rate_target: opts.rate,
        connections: connections as u64,
        duration_s: opts.duration,
        requests,
        responses,
        committed: tallies.committed.load(Ordering::Relaxed),
        degraded: tallies.degraded.load(Ordering::Relaxed),
        rejected: tallies.rejected.load(Ordering::Relaxed),
        errors: tallies.errors.load(Ordering::Relaxed),
        elapsed_s,
        requests_per_sec: if elapsed_s > 0.0 {
            responses as f64 / elapsed_s
        } else {
            0.0
        },
        p50_ns: hist.percentile(0.50).unwrap_or(0),
        p99_ns: hist.percentile(0.99).unwrap_or(0),
        p999_ns: hist.percentile(0.999).unwrap_or(0),
        mean_ns: hist.mean().unwrap_or(0.0),
        max_ns: hist.max().unwrap_or(0),
        attribution: attrib_report(&tallies),
    })
}

/// Folds the attribution sums into per-request means, when any outcome
/// carried a span tree.
fn attrib_report(tallies: &Tallies) -> Option<AttribReport> {
    let matched = tallies.attrib_matched.load(Ordering::Relaxed);
    if matched == 0 {
        return None;
    }
    let mean = |sum: &AtomicU64| sum.load(Ordering::Relaxed) as f64 / matched as f64;
    let client_mean_ns = mean(&tallies.attrib_client_ns);
    let server_mean_ns = mean(&tallies.attrib_server_ns);
    Some(AttribReport {
        matched,
        mismatches: tallies.attrib_mismatches.load(Ordering::Relaxed),
        client_mean_ns,
        server_mean_ns,
        network_queue_mean_ns: (client_mean_ns - server_mean_ns).max(0.0),
        queue_mean_ns: mean(&tallies.attrib_queue_ns),
        collect_mean_ns: mean(&tallies.attrib_collect_ns),
        plan_mean_ns: mean(&tallies.attrib_plan_ns),
        replan_mean_ns: mean(&tallies.attrib_replan_ns),
        commit_mean_ns: mean(&tallies.attrib_commit_ns),
    })
}

/// One connection: a paced sender on this thread, a latency-recording
/// reader on a helper thread. Returns the number of establishes sent.
fn connection_worker(
    conn: usize,
    connections: usize,
    opts: &LoadOptions,
    hist: Arc<Histogram>,
    tallies: Arc<Tallies>,
) -> Result<u64, ScenarioError> {
    let stream = TcpStream::connect(opts.addr.as_str()).map_err(ScenarioError::Io)?;
    stream.set_nodelay(true).map_err(ScenarioError::Io)?;
    let read_half = stream.try_clone().map_err(ScenarioError::Io)?;
    let write_half = stream.try_clone().map_err(ScenarioError::Io)?;
    // Buffered sends, flushed once per catch-up burst: the wire sees
    // one write per pacing tick, not two per frame.
    let mut out = BufWriter::new(write_half);

    // Send timestamps shared with the reader. A deque, not a map: the
    // server answers one connection's establishes in send order (one
    // admission thread, FIFO batches, an order-preserving writer
    // channel), so matching a response is a pop from the front —
    // `take_in_flight` falls back to a scan if order ever breaks.
    let in_flight: Arc<Mutex<VecDeque<(u64, Instant)>>> = Arc::new(Mutex::new(VecDeque::new()));

    let reader = {
        let in_flight = Arc::clone(&in_flight);
        std::thread::Builder::new()
            .name(format!("qosr-load-r{conn}"))
            .spawn(move || reader_worker(read_half, &in_flight, &hist, &tallies))
            .map_err(ScenarioError::Io)?
    };

    // Open-loop pacing: the k-th request of this connection is due at
    // `start + k * interval (± jitter)` whether or not responses came
    // back.
    let interval = Duration::from_secs_f64(connections as f64 / opts.rate);
    let mut rng = StdRng::seed_from_u64(opts.seed ^ (conn as u64).wrapping_mul(0x9E3779B97F4A7C15));
    let deadline = Instant::now() + Duration::from_secs_f64(opts.duration);
    let mut next_due = Instant::now();
    let mut sent = 0u64;
    let mut io_error = None;
    'sending: while Instant::now() < deadline {
        // Send everything already due (catches up after oversleeping).
        while next_due <= Instant::now() {
            // Request ids are globally unique: connection in the high
            // bits, sequence in the low.
            let id = ((conn as u64) << 40) | sent;
            let mut def = EstablishDef::new(id);
            def.service = opts.service;
            def.domain = opts.domain;
            def.scale = opts.scale;
            if opts.attrib {
                // The request id is already globally unique — reuse it
                // as the trace id so dumps correlate with the report.
                def.trace = Some(id);
            }
            in_flight.lock().unwrap().push_back((id, Instant::now()));
            if write_request_frame(&mut out, &RequestFrame::Establish(def)).is_err() {
                io_error = Some("server closed the connection mid-run".to_string());
                break 'sending;
            }
            sent += 1;
            let jitter = 0.8 + 0.4 * rng.random::<f64>();
            next_due += interval.mul_secs_f64(jitter);
            if Instant::now() >= deadline {
                break 'sending;
            }
        }
        if out.flush().is_err() {
            io_error = Some("server closed the connection mid-run".to_string());
            break;
        }
        // Nap in coarse quanta: at high rates the inter-request gap is
        // microseconds — below sleep resolution — and waking per request
        // burns the core on scheduler churn. Oversleeping is harmless:
        // the catch-up loop above sends the accumulated burst, and the
        // open-loop schedule (`next_due`) never slips.
        let now = Instant::now();
        let until = next_due.max(now + MIN_NAP).min(deadline);
        if until > now {
            std::thread::sleep(until - now);
        }
    }
    let _ = out.flush();

    // Drain: wait for every response (bounded), then close the write
    // side so the server's reader sees EOF and releases our leases.
    let drain_deadline = Instant::now() + DRAIN_TIMEOUT;
    while !in_flight.lock().unwrap().is_empty() && Instant::now() < drain_deadline {
        std::thread::sleep(Duration::from_millis(1));
    }
    let _ = stream.shutdown(Shutdown::Both);
    let _ = reader.join();
    match io_error {
        Some(e) if sent == 0 => Err(ScenarioError::Invalid(e)),
        _ => Ok(sent),
    }
}

/// `Instant + Duration * f64` without the unstable `Duration::mul_f64`
/// rounding differences mattering here.
trait MulSecs {
    fn mul_secs_f64(self, k: f64) -> Duration;
}

impl MulSecs for Duration {
    fn mul_secs_f64(self, k: f64) -> Duration {
        Duration::from_secs_f64(self.as_secs_f64() * k)
    }
}

/// Removes `id`'s send timestamp: the front in the common (in-order)
/// case, a linear scan if the server ever answered out of order.
fn take_in_flight(in_flight: &Mutex<VecDeque<(u64, Instant)>>, id: u64) -> Option<Instant> {
    let mut queue = in_flight.lock().unwrap();
    match queue.front() {
        Some(&(front, sent_at)) if front == id => {
            queue.pop_front();
            Some(sent_at)
        }
        _ => queue
            .iter()
            .position(|&(other, _)| other == id)
            .and_then(|i| queue.remove(i))
            .map(|(_, sent_at)| sent_at),
    }
}

fn reader_worker(
    stream: TcpStream,
    in_flight: &Mutex<VecDeque<(u64, Instant)>>,
    hist: &Histogram,
    tallies: &Tallies,
) {
    let mut reader = BufReader::new(stream);
    loop {
        match read_response_frame(&mut reader) {
            Ok(Some(ResponseFrame::Outcome(outcome))) => {
                if let Some(sent_at) = take_in_flight(in_flight, outcome.id) {
                    let client_ns = sent_at.elapsed().as_nanos() as u64;
                    hist.record(client_ns);
                    if let Some(total_ns) = outcome.total_ns {
                        let queue = outcome.queue_ns.unwrap_or(0);
                        let collect = outcome.collect_ns.unwrap_or(0);
                        let plan = outcome.plan_ns.unwrap_or(0);
                        let replan = outcome.replan_ns.unwrap_or(0);
                        let commit = outcome.commit_ns.unwrap_or(0);
                        tallies.attrib_matched.fetch_add(1, Ordering::Relaxed);
                        if queue + collect + plan + replan + commit != total_ns {
                            tallies.attrib_mismatches.fetch_add(1, Ordering::Relaxed);
                        }
                        tallies
                            .attrib_client_ns
                            .fetch_add(client_ns, Ordering::Relaxed);
                        tallies
                            .attrib_server_ns
                            .fetch_add(total_ns, Ordering::Relaxed);
                        tallies.attrib_queue_ns.fetch_add(queue, Ordering::Relaxed);
                        tallies
                            .attrib_collect_ns
                            .fetch_add(collect, Ordering::Relaxed);
                        tallies.attrib_plan_ns.fetch_add(plan, Ordering::Relaxed);
                        tallies
                            .attrib_replan_ns
                            .fetch_add(replan, Ordering::Relaxed);
                        tallies
                            .attrib_commit_ns
                            .fetch_add(commit, Ordering::Relaxed);
                    }
                }
                tallies.responses.fetch_add(1, Ordering::Relaxed);
                match outcome.status.as_str() {
                    "committed" => tallies.committed.fetch_add(1, Ordering::Relaxed),
                    "degraded" => tallies.degraded.fetch_add(1, Ordering::Relaxed),
                    _ => tallies.rejected.fetch_add(1, Ordering::Relaxed),
                };
            }
            Ok(Some(ResponseFrame::Error { id, .. })) => {
                if let Some(id) = id {
                    take_in_flight(in_flight, id);
                }
                tallies.errors.fetch_add(1, Ordering::Relaxed);
            }
            Ok(Some(_)) => {}
            Ok(None) | Err(_) => break,
        }
    }
}

/// Sends a `shutdown` frame on a fresh connection and waits for the
/// `bye` acknowledging the drain.
fn shutdown_server(addr: &str) -> Result<(), ScenarioError> {
    let mut stream = TcpStream::connect(addr).map_err(ScenarioError::Io)?;
    stream.set_nodelay(true).map_err(ScenarioError::Io)?;
    write_frame(&mut stream, &RequestFrame::Shutdown)
        .map_err(|e| ScenarioError::Invalid(format!("shutdown frame failed: {e}")))?;
    stream.flush().map_err(ScenarioError::Io)?;
    let mut reader = BufReader::new(stream);
    loop {
        match read_frame::<_, ResponseFrame>(&mut reader) {
            Ok(Some(ResponseFrame::Bye { .. })) | Ok(None) => return Ok(()),
            Ok(Some(_)) => continue,
            Err(e) => {
                return Err(ScenarioError::Invalid(format!(
                    "waiting for bye failed: {e}"
                )))
            }
        }
    }
}

/// Renders the report as the `qosr load` table.
pub fn render_report(report: &LoadReport) -> String {
    let mut out = String::new();
    out.push_str("qosr load report\n");
    out.push_str(&format!(
        "  offered       {:.0} req/s x {:.1}s over {} connections\n",
        report.rate_target, report.duration_s, report.connections
    ));
    out.push_str(&format!(
        "  sent          {} requests ({} answered)\n",
        report.requests, report.responses
    ));
    out.push_str(&format!(
        "  outcomes      {} committed, {} degraded, {} rejected, {} errors\n",
        report.committed, report.degraded, report.rejected, report.errors
    ));
    out.push_str(&format!(
        "  throughput    {:.0} req/s over {:.2}s\n",
        report.requests_per_sec, report.elapsed_s
    ));
    out.push_str(&format!(
        "  latency       p50 {} ns, p99 {} ns, p99.9 {} ns, mean {:.0} ns, max {} ns\n",
        report.p50_ns, report.p99_ns, report.p999_ns, report.mean_ns, report.max_ns
    ));
    if let Some(attrib) = &report.attribution {
        out.push_str(&format!(
            "  attribution   {} traced ({} accounting mismatches)\n",
            attrib.matched, attrib.mismatches
        ));
        out.push_str(&format!(
            "    client mean   {:.0} ns = network+socket {:.0} ns + server {:.0} ns\n",
            attrib.client_mean_ns, attrib.network_queue_mean_ns, attrib.server_mean_ns
        ));
        out.push_str(&format!(
            "    server mean   queue {:.0} ns, collect {:.0} ns, plan {:.0} ns, \
             replan {:.0} ns, commit {:.0} ns\n",
            attrib.queue_mean_ns,
            attrib.collect_mean_ns,
            attrib.plan_mean_ns,
            attrib.replan_mean_ns,
            attrib.commit_mean_ns
        ));
    }
    out
}
