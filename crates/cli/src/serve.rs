//! The `qosr serve` subcommand: admission as a network service.
//!
//! Accepts [`crate::wire`] frames over plain `std::net` TCP and feeds
//! them into the batched
//! [`AdmissionQueue`], streaming one
//! [`crate::wire::ResponseFrame`] per request back as each sequential
//! commit lands (via `AdmissionQueue::admit_with`). No async runtime:
//! the same blocking accept-loop shape as the metrics exposition
//! server, plus one reader and one writer thread per connection and a
//! single *admission thread* that owns the world.
//!
//! ```text
//!   accept loop ──┬─ reader(conn 1) ─┐                   ┌─ writer(conn 1)
//!                 ├─ reader(conn 2) ─┼─» admission thread ┼─ writer(conn 2)
//!                 └─ …               ┘    (owns the world) └─ …
//! ```
//!
//! The admission thread coalesces consecutive `establish` frames — from
//! any connection — into one admission round (up to
//! [`ServeOptions::max_batch`]), so a hot server amortizes phase 1
//! exactly like the in-process pipeline. A `batch` frame always runs as
//! exactly one round at an explicit sim-time, which is what makes the
//! over-the-wire equivalence tests deterministic.
//!
//! Every admitted session is *leased* to the connection that admitted
//! it: when a client disconnects (cleanly or not), the admission thread
//! terminates everything that connection still holds, so capacity is
//! conserved no matter how clients die. A commit that lands for an
//! already-dead connection is released on the spot. Advance
//! reservations (the `advance` frame, booked on shadow
//! [`qosr_broker::TimelineBroker`] timelines mirroring the world's
//! capacities) are leased the same way — a disconnect cancels the
//! connection's remaining advance bookings.

use crate::dto::ScenarioError;
use crate::wire::{
    read_request_frame, write_response_frame, AdvanceDef, AdvanceOutcomeFrame, EstablishDef,
    FlightFrame, OutcomeFrame, RequestFrame, ResponseFrame, SloFrame, StatsFrame, WireError,
};
use qosr_bench::synth::synthetic_chain;
use qosr_broker::{
    AdmissionConfig, AdmissionQueue, AdvanceRegistry, AdvanceRequest, AlphaPolicy, BrokerRegistry,
    Coordinator, EstablishOptions, EstablishedSession, LocalBroker, LocalBrokerConfig, QosProxy,
    SessionId, SessionRequest, SimTime, TimelineBroker,
};
use qosr_core::Planner;
use qosr_model::{ResourceId, ResourceKind, ResourceVector, SessionInstance};
use qosr_obs::{
    Counters, MetricsRegistry, MetricsServer, SloEngine, SloOutcome, SloTargets, TraceId,
};
use qosr_sim::services::ServiceOptions;
use qosr_sim::PaperEnvironment;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;
use std::io::{BufWriter, Write as _};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, Sender, TryRecvError};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long the admission thread waits for one more establish while
/// hot (see the gather window in [`admission_loop`]): long enough to
/// bridge high-rate inter-arrival gaps, short enough to be invisible
/// next to a round's own cost.
const GATHER_WINDOW: Duration = Duration::from_micros(100);

/// Which world the server admits into.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WorldKind {
    /// The admission-bench synthetic world: a 4×4 chain spread over 4
    /// hosts with a background broker fleet and effectively unbounded
    /// capacity — the throughput-measurement world.
    #[default]
    Bench,
    /// The paper's figure-9 environment (4 hosts, 8 domains, 4
    /// services), capacities drawn from `--capacity` under
    /// `--world-seed` — the world the equivalence tests mirror
    /// in-process.
    Paper,
}

impl WorldKind {
    /// Parses `bench` / `paper`.
    pub fn parse(s: &str) -> Option<WorldKind> {
        match s {
            "bench" => Some(WorldKind::Bench),
            "paper" => Some(WorldKind::Paper),
            _ => None,
        }
    }
}

/// Knobs for `qosr serve`, all settable from the command line.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Listen address (`--addr`, port 0 lets the OS pick).
    pub addr: String,
    /// The world to admit into (`--world bench|paper`).
    pub world: WorldKind,
    /// Seed for the paper world's capacity draws (`--world-seed`).
    pub world_seed: u64,
    /// Capacity range for the paper world (`--capacity LO,HI`).
    pub capacity: (f64, f64),
    /// Replan budget per conflicted request (`--max-replans`).
    pub max_replans: u32,
    /// Admission pipeline base seed (`--seed`).
    pub seed: u64,
    /// Most establishes coalesced into one round (`--max-batch`).
    pub max_batch: usize,
    /// Write the bound address here once listening (`--addr-file`) —
    /// how scripts find a port-0 server.
    pub addr_file: Option<PathBuf>,
    /// Also serve Prometheus metrics (`--metrics-addr HOST:PORT`).
    pub metrics_addr: Option<String>,
    /// Declared SLO targets, evaluated once per command sweep
    /// (`--slo-p99-ms`, `--slo-max-rejection`, `--slo-max-degraded`).
    pub slo: SloTargets,
    /// Flight-recorder ring capacity: how many recent request span
    /// trees a `flight` frame (or a breach dump) can return
    /// (`--flight-capacity`).
    pub flight_capacity: usize,
    /// Dump the flight ring to this JSONL file whenever the SLO engine
    /// *enters* breach (`--flight-dump PATH`). Each breach overwrites
    /// the file with the freshest evidence.
    pub flight_dump: Option<PathBuf>,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            addr: "127.0.0.1:0".into(),
            world: WorldKind::Bench,
            world_seed: 42,
            capacity: (1000.0, 4000.0),
            max_replans: 2,
            seed: 0,
            max_batch: 256,
            addr_file: None,
            metrics_addr: None,
            slo: SloTargets::default(),
            flight_capacity: 256,
            flight_dump: None,
        }
    }
}

/// The world the admission thread owns: a coordinator plus a way to
/// instantiate sessions from the wire's `(service, domain, scale)`
/// template indices.
// One instance exists per server, owned by the admission thread for
// its whole life — the variant size imbalance cannot matter.
#[allow(clippy::large_enum_variant)]
enum ServerWorld {
    Bench {
        coordinator: Coordinator,
        template: SessionInstance,
    },
    Paper {
        // Boxed: the environment is an order of magnitude bigger than
        // the bench variant, and the enum lives on the admission
        // thread's stack.
        env: Box<PaperEnvironment>,
    },
}

/// Background resources per host in the bench world: a deployed proxy
/// tracks every host resource, not just the ones one service touches.
const BENCH_EXTRA_PER_HOST: usize = 30;

impl ServerWorld {
    fn build(opts: &ServeOptions) -> ServerWorld {
        match opts.world {
            WorldKind::Bench => {
                let (template, mut space) = synthetic_chain(4, 4);
                let chain_rids: Vec<_> = space.ids().collect();
                let hosts = 4;
                let mut registries: Vec<BrokerRegistry> =
                    (0..hosts).map(|_| BrokerRegistry::new()).collect();
                for (c, rid) in chain_rids.iter().enumerate() {
                    registries[c % hosts].register(Arc::new(LocalBroker::new(
                        *rid,
                        1.0e12,
                        SimTime::ZERO,
                        LocalBrokerConfig::default(),
                    )));
                }
                for (h, registry) in registries.iter_mut().enumerate() {
                    for i in 0..BENCH_EXTRA_PER_HOST {
                        let rid = space.register(format!("bg{h}_{i}"), ResourceKind::Compute);
                        registry.register(Arc::new(LocalBroker::new(
                            rid,
                            1.0e12,
                            SimTime::ZERO,
                            LocalBrokerConfig::default(),
                        )));
                    }
                }
                let proxies: Vec<_> = registries
                    .into_iter()
                    .enumerate()
                    .map(|(h, registry)| Arc::new(QosProxy::new(format!("H{h}"), registry)))
                    .collect();
                ServerWorld::Bench {
                    coordinator: Coordinator::new(proxies),
                    template,
                }
            }
            WorldKind::Paper => {
                let mut rng = StdRng::seed_from_u64(opts.world_seed);
                ServerWorld::Paper {
                    env: Box::new(PaperEnvironment::build(
                        &mut rng,
                        &ServiceOptions::default(),
                        opts.capacity,
                        LocalBrokerConfig::default(),
                    )),
                }
            }
        }
    }

    fn coordinator(&self) -> &Coordinator {
        match self {
            ServerWorld::Bench { coordinator, .. } => coordinator,
            ServerWorld::Paper { env } => &env.coordinator,
        }
    }

    fn coordinator_mut(&mut self) -> &mut Coordinator {
        match self {
            ServerWorld::Bench { coordinator, .. } => coordinator,
            ServerWorld::Paper { env } => &mut env.coordinator,
        }
    }

    /// Instantiates the session a templated establish names, or a
    /// client-facing error string.
    fn instantiate(&self, def: &EstablishDef) -> Result<SessionInstance, String> {
        if !(def.scale.is_finite() && def.scale > 0.0) {
            return Err(format!(
                "scale must be finite and positive, got {}",
                def.scale
            ));
        }
        match self {
            ServerWorld::Bench { template, .. } => {
                if def.service != 0 || def.domain != 0 {
                    return Err(format!(
                        "the bench world has a single template: service 0, domain 0 \
                         (got service {}, domain {})",
                        def.service, def.domain
                    ));
                }
                if def.scale == 1.0 {
                    Ok(template.clone())
                } else {
                    SessionInstance::new(
                        template.service().clone(),
                        template.bindings().to_vec(),
                        def.scale,
                    )
                    .map_err(|e| e.to_string())
                }
            }
            ServerWorld::Paper { env } => {
                if def.service >= 4 || def.domain >= 8 {
                    return Err(format!(
                        "the paper world has services 0..4 and domains 0..8 \
                         (got service {}, domain {})",
                        def.service, def.domain
                    ));
                }
                if def.service == def.domain / 2 {
                    return Err(format!(
                        "domain {} never requests its excluded service {}",
                        def.domain, def.service
                    ));
                }
                env.session(def.service, def.domain, def.scale)
                    .map_err(|e| e.to_string())
            }
        }
    }
}

fn parse_planner(s: &str) -> Result<Planner, String> {
    match s {
        "basic" => Ok(Planner::Basic),
        "tradeoff" => Ok(Planner::Tradeoff),
        "random" => Ok(Planner::Random),
        "dag" => Ok(Planner::Dag),
        other => Err(format!(
            "unknown planner `{other}` (expected basic, tradeoff, random, or dag)"
        )),
    }
}

/// Builds the `SessionRequest` a wire establish resolves to.
fn resolve(world: &ServerWorld, def: &EstablishDef) -> Result<SessionRequest, String> {
    let instance = world.instantiate(def)?;
    let mut request = SessionRequest::new(instance);
    if let Some(min) = def.qos_min {
        request = request.qos_min(min);
    }
    if let Some(deadline) = def.deadline {
        request = request.deadline(SimTime::new(deadline));
    }
    if let Some(planner) = &def.planner {
        request = request.planner(parse_planner(planner)?);
    }
    if let Some(trace) = def.trace {
        request = request.traced(TraceId(trace));
    }
    Ok(request)
}

/// Builds the `AdvanceRequest` a wire advance frame resolves to (or a
/// client-facing error string); `session` is the id the server will
/// book it under.
fn resolve_advance(def: &AdvanceDef, session: SessionId) -> Result<AdvanceRequest, String> {
    let policy = match def.policy.as_deref() {
        None | Some("ignore") => AlphaPolicy::Ignore,
        Some("tradeoff") => AlphaPolicy::Tradeoff,
        Some(other) => {
            return Err(format!(
                "unknown policy `{other}` (expected ignore or tradeoff)"
            ))
        }
    };
    let rid_of = |rid: u64| {
        u32::try_from(rid)
            .map(ResourceId)
            .map_err(|_| format!("resource id {rid} out of range"))
    };
    let rigid = def.demand.is_some() || def.from.is_some() || def.to.is_some();
    let malleable = def.resource.is_some() || def.volume.is_some() || def.deadline.is_some();
    let request = match (rigid, malleable) {
        (true, false) => {
            let (Some(demand), Some(from), Some(to)) = (&def.demand, def.from, def.to) else {
                return Err("a rigid advance frame needs demand, from, and to".into());
            };
            let mut pairs = Vec::with_capacity(demand.len());
            for &(rid, amount) in demand {
                pairs.push((rid_of(rid)?, amount));
            }
            let demand = ResourceVector::from_pairs(pairs).map_err(|e| e.to_string())?;
            if from >= to {
                return Err(format!(
                    "a rigid window needs from < to, got [{from}, {to})"
                ));
            }
            AdvanceRequest::rigid(session, demand, SimTime::new(from), SimTime::new(to))
        }
        (false, true) => {
            let (Some(resource), Some(volume), Some(deadline)) =
                (def.resource, def.volume, def.deadline)
            else {
                return Err(
                    "a malleable advance frame needs resource, volume, and deadline".into(),
                );
            };
            let mut request = AdvanceRequest::malleable(
                session,
                rid_of(resource)?,
                volume,
                SimTime::new(deadline),
            );
            if let Some(earliest) = def.earliest {
                request = request.earliest(SimTime::new(earliest));
            }
            if let Some(rate) = def.min_rate {
                request = request.min_rate(rate);
            }
            if let Some(rate) = def.max_rate {
                request = request.max_rate(rate);
            }
            request
        }
        _ => {
            return Err(
                "an advance frame is either rigid (demand, from, to) or malleable \
                 (resource, volume, deadline), not both or neither"
                    .into(),
            )
        }
    };
    let mut request = request.alpha_policy(policy).allow_preempt(def.preempt);
    if let Some(trace) = def.trace {
        request = request.traced(TraceId(trace));
    }
    Ok(request)
}

/// What the per-connection reader threads feed the admission thread.
enum Cmd {
    /// A connection opened: its response channel and a control clone of
    /// the stream (used only to force-close it at server teardown).
    Connect {
        conn: u64,
        writer: Sender<Vec<ResponseFrame>>,
        writer_thread: JoinHandle<()>,
        control: TcpStream,
    },
    /// A decoded request frame.
    Frame { conn: u64, frame: RequestFrame },
    /// The connection's reader exited (EOF, error, or protocol error).
    Disconnect { conn: u64 },
    /// Internal stop (from [`Server::shutdown`]): drain and exit
    /// without a `bye` target.
    Stop,
}

/// One open connection, as the admission thread sees it.
struct Conn {
    writer: Sender<Vec<ResponseFrame>>,
    writer_thread: Option<JoinHandle<()>>,
    control: TcpStream,
}

/// One admitted session and the lease bookkeeping renegotiation and
/// disconnect-cleanup need.
struct LiveSession {
    conn: u64,
    est: EstablishedSession,
    instance: SessionInstance,
    options: EstablishOptions,
}

/// A running `qosr serve` instance. Dropping it (or calling
/// [`Server::shutdown`]) stops everything; [`Server::wait`] blocks
/// until a client-sent `shutdown` frame stops it instead.
pub struct Server {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    cmd_tx: Sender<Cmd>,
    accept: Option<JoinHandle<()>>,
    admission: Option<JoinHandle<()>>,
    metrics: Option<MetricsServer>,
}

impl Server {
    /// The bound listen address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Blocks until the server stops — i.e. until some client sends a
    /// `shutdown` frame. This is what `qosr serve` does after printing
    /// the address.
    pub fn wait(mut self) {
        self.join();
    }

    /// Stops the server from this process: drains queued requests,
    /// releases every live session, and joins all threads.
    pub fn shutdown(mut self) {
        self.request_stop();
        self.join();
    }

    fn request_stop(&self) {
        // Ignore send failure: the admission thread may already have
        // exited on a client-sent shutdown frame.
        let _ = self.cmd_tx.send(Cmd::Stop);
    }

    fn join(&mut self) {
        if let Some(handle) = self.admission.take() {
            let _ = handle.join();
        }
        // The admission thread's finale sets the stop flag; one
        // throwaway connection unblocks the accept loop (the
        // MetricsServer pattern).
        self.stop.store(true, Ordering::Relaxed);
        let _ = TcpStream::connect(self.addr);
        if let Some(handle) = self.accept.take() {
            let _ = handle.join();
        }
        self.metrics = None;
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if self.admission.is_some() || self.accept.is_some() {
            self.request_stop();
            self.join();
        }
    }
}

/// Binds `opts.addr`, builds the world, and spawns the accept loop and
/// the admission thread. Returns as soon as the server is listening.
pub fn start(opts: &ServeOptions) -> Result<Server, ScenarioError> {
    let listener = TcpListener::bind(opts.addr.as_str()).map_err(ScenarioError::Io)?;
    let addr = listener.local_addr().map_err(ScenarioError::Io)?;
    if let Some(path) = &opts.addr_file {
        std::fs::write(path, format!("{addr}\n")).map_err(ScenarioError::Io)?;
    }

    let mut world = ServerWorld::build(opts);
    // The server always traces: flight and attribution are on-demand
    // per request (an establish without a `trace` id pays one relaxed
    // atomic load and reads no clock), so there is no flag to forget
    // before an incident. The registry's phase summaries come from the
    // same tracer, so they cover traced establishes only.
    let tracer = Arc::new(qosr_obs::Tracer::new(opts.flight_capacity.max(1)));
    tracer.set_enabled(true);
    world.coordinator_mut().set_tracer(Arc::clone(&tracer));
    let world = world;
    let slo = Arc::new(SloEngine::new(opts.slo));
    let counters = world.coordinator().counters_arc();
    let registry = Arc::new(MetricsRegistry::new());
    registry.attach_counters(Arc::clone(&counters));
    registry.attach_tracer(Arc::clone(&tracer));
    let metrics = match &opts.metrics_addr {
        None => None,
        Some(addr) => {
            Some(qosr_obs::serve(addr.as_str(), Arc::clone(&registry)).map_err(ScenarioError::Io)?)
        }
    };

    let stop = Arc::new(AtomicBool::new(false));
    let (cmd_tx, cmd_rx) = mpsc::channel::<Cmd>();

    let accept = {
        let stop = Arc::clone(&stop);
        let cmd_tx = cmd_tx.clone();
        let counters = Arc::clone(&counters);
        std::thread::Builder::new()
            .name("qosr-serve-accept".into())
            .spawn(move || accept_loop(listener, stop, cmd_tx, counters))
            .map_err(ScenarioError::Io)?
    };

    let admission = {
        let config = AdmissionConfig {
            max_replans: opts.max_replans,
            seed: opts.seed,
            ..AdmissionConfig::default()
        };
        let max_batch = opts.max_batch.max(1);
        let stop = Arc::clone(&stop);
        let registry = Arc::clone(&registry);
        let server_addr = addr;
        let slo = Arc::clone(&slo);
        let flight_dump = opts.flight_dump.clone();
        std::thread::Builder::new()
            .name("qosr-serve-admit".into())
            .spawn(move || {
                admission_loop(
                    world,
                    config,
                    max_batch,
                    cmd_rx,
                    stop,
                    registry,
                    server_addr,
                    slo,
                    flight_dump,
                )
            })
            .map_err(ScenarioError::Io)?
    };

    Ok(Server {
        addr,
        stop,
        cmd_tx,
        accept: Some(accept),
        admission: Some(admission),
        metrics,
    })
}

fn accept_loop(
    listener: TcpListener,
    stop: Arc<AtomicBool>,
    cmd_tx: Sender<Cmd>,
    counters: Arc<Counters>,
) {
    let mut next_conn = 0u64;
    for stream in listener.incoming() {
        if stop.load(Ordering::Relaxed) {
            break;
        }
        let Ok(stream) = stream else { continue };
        let _ = stream.set_nodelay(true);
        let (Ok(write_half), Ok(control)) = (stream.try_clone(), stream.try_clone()) else {
            continue;
        };
        next_conn += 1;
        let conn = next_conn;
        let (writer_tx, writer_rx) = mpsc::channel::<Vec<ResponseFrame>>();
        let writer_thread = match std::thread::Builder::new()
            .name(format!("qosr-serve-w{conn}"))
            .spawn(move || writer_loop(write_half, writer_rx))
        {
            Ok(handle) => handle,
            Err(_) => continue,
        };
        if cmd_tx
            .send(Cmd::Connect {
                conn,
                writer: writer_tx.clone(),
                writer_thread,
                control,
            })
            .is_err()
        {
            break;
        }
        let reader_tx = cmd_tx.clone();
        let reader_counters = Arc::clone(&counters);
        let _ = std::thread::Builder::new()
            .name(format!("qosr-serve-r{conn}"))
            .spawn(move || reader_loop(stream, conn, writer_tx, reader_tx, reader_counters));
    }
}

/// Decodes frames off one connection. Pings are answered right here;
/// everything else goes to the admission thread. The first framing
/// error gets an `error` response and closes the connection (a peer
/// that desynchronized the length-prefix stream cannot be resynced).
fn reader_loop(
    stream: TcpStream,
    conn: u64,
    writer: Sender<Vec<ResponseFrame>>,
    cmd_tx: Sender<Cmd>,
    counters: Arc<Counters>,
) {
    // Buffered: a hot client sends thousands of tiny frames per read
    // syscall.
    let mut stream = std::io::BufReader::new(stream);
    loop {
        match read_request_frame(&mut stream) {
            Ok(Some(frame)) => {
                counters.record_serve_request();
                if let RequestFrame::Ping { id } = frame {
                    if writer.send(vec![ResponseFrame::Pong { id }]).is_err() {
                        break;
                    }
                    continue;
                }
                if cmd_tx.send(Cmd::Frame { conn, frame }).is_err() {
                    break;
                }
            }
            Ok(None) | Err(WireError::Io(_)) => break,
            Err(e) => {
                counters.record_serve_protocol_error();
                let _ = writer.send(vec![ResponseFrame::Error {
                    id: None,
                    message: e.to_string(),
                }]);
                break;
            }
        }
    }
    let _ = cmd_tx.send(Cmd::Disconnect { conn });
}

/// Serializes responses onto one connection. The channel carries whole
/// batches (an admission round sends all of a connection's outcomes as
/// one `Vec`), so a hot round costs one channel wake-up here, not one
/// per frame. Batches still coalesce greedily: write everything queued,
/// flush once when the queue runs dry.
fn writer_loop(stream: TcpStream, rx: Receiver<Vec<ResponseFrame>>) {
    let mut out = BufWriter::new(stream);
    'outer: while let Ok(first) = rx.recv() {
        for frame in &first {
            if write_response_frame(&mut out, frame).is_err() {
                break 'outer;
            }
        }
        loop {
            match rx.try_recv() {
                Ok(next) => {
                    for frame in &next {
                        if write_response_frame(&mut out, frame).is_err() {
                            break 'outer;
                        }
                    }
                }
                Err(TryRecvError::Empty) => break,
                Err(TryRecvError::Disconnected) => break 'outer,
            }
        }
        if out.flush().is_err() {
            break;
        }
    }
    let _ = out.flush();
}

/// The admission thread: owns the world, the queue, the connection
/// table, and the session leases.
#[allow(clippy::too_many_arguments)]
fn admission_loop(
    world: ServerWorld,
    config: AdmissionConfig,
    max_batch: usize,
    cmd_rx: Receiver<Cmd>,
    stop: Arc<AtomicBool>,
    registry: Arc<MetricsRegistry>,
    server_addr: SocketAddr,
    slo: Arc<SloEngine>,
    flight_dump: Option<PathBuf>,
) {
    let coordinator = world.coordinator();
    let counters = coordinator.counters_arc();
    let queue = AdmissionQueue::new(coordinator, config);
    // Advance reservations live on shadow timelines mirroring every
    // broker's capacity. Advance sessions are leased to the connection
    // that booked them, exactly like admitted sessions.
    let advance = {
        let mut registry = AdvanceRegistry::new();
        for proxy in coordinator.proxies() {
            for broker in proxy.brokers().iter() {
                registry.register(Arc::new(TimelineBroker::new(
                    broker.resource(),
                    broker.capacity(),
                )));
            }
        }
        registry.set_counters(Arc::clone(&counters));
        // Advance bookings land in the same flight ring as establishes:
        // one `flight` frame reconstructs the whole recent timeline.
        registry.set_tracer(Arc::clone(coordinator.tracer()));
        registry
    };
    let mut next_advance_session = 0u64;
    // Advance session id → owning connection.
    let mut advance_leases: HashMap<u64, u64> = HashMap::new();
    let mut conns: HashMap<u64, Conn> = HashMap::new();
    let mut sessions: HashMap<u64, LiveSession> = HashMap::new();
    let mut pending: std::collections::VecDeque<Cmd> = std::collections::VecDeque::new();
    let mut renegotiations = 0u64;
    // `drained` counts every request frame answered before the server
    // stopped — the `bye` reports it so a shutting-down client can see
    // that nothing it pipelined ahead of the shutdown was dropped.
    // `bye_to` remembers who asked.
    let mut draining = false;
    let mut drained = 0u64;
    let mut bye_to: Option<u64> = None;
    // Whether the last admission round coalesced multiple requests —
    // the signal that arms the gather window below.
    let mut hot = false;

    'serve: loop {
        if pending.is_empty() {
            match cmd_rx.recv() {
                Ok(cmd) => pending.push_back(cmd),
                Err(_) => break,
            }
        }
        while let Ok(cmd) = cmd_rx.try_recv() {
            pending.push_back(cmd);
        }

        while let Some(cmd) = pending.pop_front() {
            // The server's sim-clock: one tick per admission round.
            let clock = queue.rounds() as f64;
            match cmd {
                Cmd::Connect {
                    conn,
                    writer,
                    writer_thread,
                    control,
                } => {
                    conns.insert(
                        conn,
                        Conn {
                            writer,
                            writer_thread: Some(writer_thread),
                            control,
                        },
                    );
                }
                Cmd::Disconnect { conn } => {
                    counters.record_serve_disconnect();
                    release_leases(coordinator, &mut sessions, conn, SimTime::new(clock));
                    release_advance_leases(&advance, &mut advance_leases, conn);
                    close_conn(&mut conns, conn);
                }
                Cmd::Frame { conn, frame } => {
                    if !matches!(frame, RequestFrame::Shutdown) {
                        drained += 1;
                    }
                    match frame {
                        RequestFrame::Establish(def) => {
                            // Coalesce the run of consecutive
                            // establishes queued behind this one.
                            let mut batch = vec![(conn, def)];
                            while batch.len() < max_batch {
                                match pending.front() {
                                    Some(Cmd::Frame {
                                        frame: RequestFrame::Establish(_),
                                        ..
                                    }) => {
                                        let Some(Cmd::Frame {
                                            conn: c,
                                            frame: RequestFrame::Establish(d),
                                        }) = pending.pop_front()
                                        else {
                                            unreachable!("front() said establish");
                                        };
                                        drained += 1;
                                        batch.push((c, d));
                                    }
                                    _ => break,
                                }
                            }
                            // Gather window: a round has a fixed cost
                            // (epoch snapshot + group prepares), so
                            // running it per lone request caps
                            // throughput far below the pipeline's
                            // capacity. When the server is hot —
                            // requests already queuing faster than
                            // rounds complete — briefly wait for more
                            // before committing the round. A cold
                            // lockstep client never pays: `hot` only
                            // arms once a round actually coalesced.
                            if hot && !draining && pending.is_empty() {
                                while batch.len() < max_batch {
                                    match cmd_rx.recv_timeout(GATHER_WINDOW) {
                                        Ok(Cmd::Frame {
                                            conn: c,
                                            frame: RequestFrame::Establish(d),
                                        }) => {
                                            drained += 1;
                                            batch.push((c, d));
                                        }
                                        Ok(other) => {
                                            pending.push_back(other);
                                            break;
                                        }
                                        Err(_) => break,
                                    }
                                }
                            }
                            hot = batch.len() > 1;
                            run_round(&world, &queue, &mut conns, &mut sessions, batch, None, &slo);
                        }
                        RequestFrame::Batch { now, requests } => {
                            let batch: Vec<_> = requests.into_iter().map(|d| (conn, d)).collect();
                            run_round(&world, &queue, &mut conns, &mut sessions, batch, now, &slo);
                        }
                        RequestFrame::Advance(def) => {
                            let session = SessionId(next_advance_session + 1);
                            let response = match resolve_advance(&def, session) {
                                Ok(request) => {
                                    let outcome = advance.book(&request, SimTime::new(clock));
                                    if outcome.is_booked() {
                                        next_advance_session += 1;
                                        advance_leases.insert(session.0, conn);
                                    }
                                    ResponseFrame::Advance(AdvanceOutcomeFrame::from_outcome(
                                        def.id, session, &outcome,
                                    ))
                                }
                                Err(message) => ResponseFrame::Error {
                                    id: Some(def.id),
                                    message,
                                },
                            };
                            send_to(&conns, conn, response);
                        }
                        RequestFrame::AdvanceCancel { id, session } => {
                            let response = match advance_leases.get(&session) {
                                Some(&owner) if owner == conn => {
                                    advance_leases.remove(&session);
                                    let cancelled = advance.cancel_all(SessionId(session));
                                    ResponseFrame::AdvanceCancelled {
                                        id,
                                        session,
                                        released_volume: cancelled.released_volume,
                                        bookings_removed: cancelled.bookings_removed as u64,
                                    }
                                }
                                Some(_) => ResponseFrame::Error {
                                    id: Some(id),
                                    message: format!(
                                        "advance session {session} is leased to another connection"
                                    ),
                                },
                                None => ResponseFrame::Error {
                                    id: Some(id),
                                    message: format!("unknown advance session {session}"),
                                },
                            };
                            send_to(&conns, conn, response);
                        }
                        RequestFrame::Terminate { id, session } => {
                            let response = match sessions.get(&session) {
                                Some(lease) if lease.conn == conn => {
                                    let lease = sessions.remove(&session).expect("just found");
                                    let released =
                                        coordinator.terminate(&lease.est, SimTime::new(clock));
                                    ResponseFrame::Terminated {
                                        id,
                                        session,
                                        released,
                                    }
                                }
                                Some(_) => ResponseFrame::Error {
                                    id: Some(id),
                                    message: format!(
                                        "session {session} is leased to another connection"
                                    ),
                                },
                                None => ResponseFrame::Error {
                                    id: Some(id),
                                    message: format!("unknown session {session}"),
                                },
                            };
                            send_to(&conns, conn, response);
                        }
                        RequestFrame::Renegotiate { id, session } => {
                            let response = match sessions.get_mut(&session) {
                                Some(lease) if lease.conn == conn => {
                                    renegotiations += 1;
                                    let mut rng = StdRng::seed_from_u64(
                                        config.seed ^ renegotiations.wrapping_mul(0x9E37),
                                    );
                                    match coordinator.renegotiate(
                                        lease.est.clone(),
                                        &lease.instance,
                                        &lease.options,
                                        SimTime::new(clock),
                                        &mut rng,
                                    ) {
                                        Ok((est, upgraded)) => {
                                            let frame = ResponseFrame::Renegotiated {
                                                id,
                                                session: est.id.0,
                                                rank: est.plan.rank,
                                                psi: est.plan.psi,
                                                upgraded,
                                            };
                                            lease.est = est;
                                            frame
                                        }
                                        // The old plan was restored; the
                                        // lease stands.
                                        Err(e) => ResponseFrame::Error {
                                            id: Some(id),
                                            message: format!("renegotiation failed: {e}"),
                                        },
                                    }
                                }
                                Some(_) => ResponseFrame::Error {
                                    id: Some(id),
                                    message: format!(
                                        "session {session} is leased to another connection"
                                    ),
                                },
                                None => ResponseFrame::Error {
                                    id: Some(id),
                                    message: format!("unknown session {session}"),
                                },
                            };
                            send_to(&conns, conn, response);
                        }
                        RequestFrame::Stats { id } => {
                            let frame =
                                stats_frame(id, &queue, &counters, &conns, &sessions, &world);
                            send_to(&conns, conn, ResponseFrame::Stats(frame));
                        }
                        RequestFrame::Flight { id } => {
                            let traces = coordinator
                                .tracer()
                                .flight()
                                .dump()
                                .iter()
                                .map(|t| (**t).clone())
                                .collect();
                            send_to(
                                &conns,
                                conn,
                                ResponseFrame::Flight(FlightFrame { id, traces }),
                            );
                        }
                        RequestFrame::Slo { id } => {
                            let report = slo.report();
                            send_to(&conns, conn, ResponseFrame::Slo(SloFrame { id, report }));
                        }
                        RequestFrame::Ping { id } => {
                            // Normally answered by the reader; handle it
                            // anyway for robustness.
                            send_to(&conns, conn, ResponseFrame::Pong { id });
                        }
                        RequestFrame::Shutdown => {
                            if !draining {
                                draining = true;
                                bye_to = Some(conn);
                                // No new connections while draining.
                                stop.store(true, Ordering::Relaxed);
                                let _ = TcpStream::connect(server_addr);
                            }
                        }
                    }
                }
                Cmd::Stop => {
                    if !draining {
                        draining = true;
                        bye_to = None;
                        stop.store(true, Ordering::Relaxed);
                        let _ = TcpStream::connect(server_addr);
                    }
                }
            }
        }

        // Refresh the gauges once per sweep, not once per command — a
        // `set_gauge` locks and allocates, and a hot sweep processes
        // hundreds of frames.
        let clock = queue.rounds() as f64;
        registry.set_gauge("serve_connections", None, clock, conns.len() as f64);
        registry.set_gauge("serve_pending", None, clock, pending.len() as f64);
        registry.set_gauge("serve_live_sessions", None, clock, sessions.len() as f64);

        // Evaluate the SLO targets once per sweep. An evaluation that
        // *enters* breach dumps the flight ring: the span trees of the
        // requests that burned the budget, captured while they are
        // still in the ring.
        let (report, entered_breach) = slo.evaluate();
        registry.set_gauge("slo_latency_burn", None, clock, report.latency_burn);
        registry.set_gauge("slo_rejection_burn", None, clock, report.rejection_burn);
        registry.set_gauge("slo_degraded_burn", None, clock, report.degraded_burn);
        registry.set_gauge(
            "slo_breached",
            None,
            clock,
            if report.breached { 1.0 } else { 0.0 },
        );
        if entered_breach {
            eprintln!(
                "qosr serve: SLO breach #{} (latency burn {:.2}, rejection burn {:.2}, \
                 degraded burn {:.2})",
                report.breaches, report.latency_burn, report.rejection_burn, report.degraded_burn
            );
            if let Some(path) = &flight_dump {
                match std::fs::File::create(path) {
                    Ok(file) => {
                        let mut out = std::io::BufWriter::new(file);
                        match coordinator.tracer().flight().dump_jsonl(&mut out) {
                            Ok(n) => eprintln!(
                                "qosr serve: dumped {n} flight traces to {}",
                                path.display()
                            ),
                            Err(e) => eprintln!("qosr serve: flight dump failed: {e}"),
                        }
                    }
                    Err(e) => eprintln!(
                        "qosr serve: cannot open flight dump {}: {e}",
                        path.display()
                    ),
                }
            }
        }

        if draining {
            // The backlog (and anything that raced in behind it) is
            // processed; acknowledge and stop.
            while let Ok(cmd) = cmd_rx.try_recv() {
                pending.push_back(cmd);
            }
            if pending.is_empty() {
                break 'serve;
            }
        }
    }

    // Finale: acknowledge the shutdown, release every live session, and
    // tear the connections down writer-first so queued frames (the
    // `bye` included) reach the wire before the sockets die.
    if let Some(conn) = bye_to {
        send_to(&conns, conn, ResponseFrame::Bye { drained });
    }
    let clock = queue.rounds() as f64;
    let session_ids: Vec<u64> = sessions.keys().copied().collect();
    for id in session_ids {
        if let Some(lease) = sessions.remove(&id) {
            coordinator.terminate(&lease.est, SimTime::new(clock));
        }
    }
    let conn_ids: Vec<u64> = conns.keys().copied().collect();
    for conn in conn_ids {
        close_conn(&mut conns, conn);
    }
    registry.set_gauge("serve_connections", None, clock, 0.0);
    registry.set_gauge("serve_live_sessions", None, clock, 0.0);
}

/// Runs one admission round over `batch`, streaming each outcome to its
/// connection as the commit lands. Sessions committed for a connection
/// that died mid-round are released immediately.
///
/// Every outcome feeds the SLO engine. Traced requests report their
/// span tree's exact end-to-end latency; untraced ones fall back to
/// the round's elapsed wall-clock at commit time (queueing ahead of
/// the round is not attributed — tracing exists for that).
#[allow(clippy::too_many_arguments)]
fn run_round(
    world: &ServerWorld,
    queue: &AdmissionQueue<'_>,
    conns: &mut HashMap<u64, Conn>,
    sessions: &mut HashMap<u64, LiveSession>,
    batch: Vec<(u64, EstablishDef)>,
    explicit_now: Option<f64>,
    slo: &SloEngine,
) {
    let coordinator = queue.coordinator();
    let counters = coordinator.counters_arc();
    let now = SimTime::new(explicit_now.unwrap_or(queue.rounds() as f64));

    // Frames accumulate per connection and go out as one batch per
    // writer when the round ends: a channel send wakes the writer
    // thread, and a hot round has hundreds of outcomes — one wake per
    // connection per round, not one per frame.
    let mut outgoing: HashMap<u64, Vec<ResponseFrame>> = HashMap::new();

    // Resolve templates; invalid ones answer with an error and do not
    // join the round.
    let mut ids: Vec<u64> = Vec::with_capacity(batch.len());
    let mut owners: Vec<u64> = Vec::with_capacity(batch.len());
    let mut requests: Vec<SessionRequest> = Vec::with_capacity(batch.len());
    for (conn, def) in batch {
        match resolve(world, &def) {
            Ok(request) => {
                ids.push(def.id);
                owners.push(conn);
                requests.push(request);
            }
            Err(message) => outgoing
                .entry(conn)
                .or_default()
                .push(ResponseFrame::Error {
                    id: Some(def.id),
                    message,
                }),
        }
    }
    if !requests.is_empty() {
        counters.record_serve_batch();
        // Outcomes accumulate as each commit lands; lease bookkeeping is
        // deferred so the requests can be consumed afterward without
        // cloning their session instances.
        let mut leases: Vec<Option<(u64, EstablishedSession)>> =
            (0..requests.len()).map(|_| None).collect();
        let round_started = Instant::now();
        queue.admit_traced(&requests, now, |i, outcome, trace| {
            let mut frame = OutcomeFrame::from_outcome(ids[i], &outcome);
            if let Some(trace) = &trace {
                frame.attach_trace(trace);
            }
            let latency_ns = trace
                .as_ref()
                .map(|t| t.total_ns)
                .unwrap_or_else(|| round_started.elapsed().as_nanos() as u64);
            slo.observe(SloOutcome::from_label(&frame.status), latency_ns);
            let conn = owners[i];
            let alive = conns.contains_key(&conn);
            if let Some(est) = outcome.into_session() {
                if alive {
                    leases[i] = Some((conn, est));
                } else {
                    // The lease-holder died before its commit landed:
                    // nothing may stay reserved on behalf of a dead client.
                    coordinator.terminate(&est, now);
                }
            }
            if alive {
                outgoing
                    .entry(conn)
                    .or_default()
                    .push(ResponseFrame::Outcome(frame));
            }
        });
        for (lease, request) in leases.into_iter().zip(requests) {
            if let Some((conn, est)) = lease {
                let (instance, options) = request.into_parts();
                sessions.insert(
                    est.id.0,
                    LiveSession {
                        conn,
                        est,
                        instance,
                        options,
                    },
                );
            }
        }
    }
    for (conn, frames) in outgoing {
        if let Some(entry) = conns.get(&conn) {
            let _ = entry.writer.send(frames);
        }
    }
}

/// Terminates every session leased to `conn`.
fn release_leases(
    coordinator: &Coordinator,
    sessions: &mut HashMap<u64, LiveSession>,
    conn: u64,
    now: SimTime,
) {
    let owned: Vec<u64> = sessions
        .iter()
        .filter(|(_, lease)| lease.conn == conn)
        .map(|(&id, _)| id)
        .collect();
    for id in owned {
        if let Some(lease) = sessions.remove(&id) {
            coordinator.terminate(&lease.est, now);
        }
    }
}

/// Cancels every advance session leased to `conn` — the
/// reservation-timeline analogue of [`release_leases`].
fn release_advance_leases(advance: &AdvanceRegistry, leases: &mut HashMap<u64, u64>, conn: u64) {
    leases.retain(|&session, &mut owner| {
        if owner == conn {
            advance.cancel_all(SessionId(session));
            false
        } else {
            true
        }
    });
}

/// Removes `conn` from the table. Order matters: half-close the read
/// side first so a blocked reader sees EOF and drops its clone of the
/// response sender — only then can the writer's channel disconnect and
/// its thread drain the queued frames (a pending `bye` included), flush,
/// and exit. Full close comes last, after the writer is joined, so
/// nothing already written is torn out of the send buffer.
fn close_conn(conns: &mut HashMap<u64, Conn>, conn: u64) {
    if let Some(mut entry) = conns.remove(&conn) {
        let _ = entry.control.shutdown(Shutdown::Read);
        drop(entry.writer);
        if let Some(handle) = entry.writer_thread.take() {
            let _ = handle.join();
        }
        let _ = entry.control.shutdown(Shutdown::Both);
    }
}

fn send_to(conns: &HashMap<u64, Conn>, conn: u64, response: ResponseFrame) {
    if let Some(entry) = conns.get(&conn) {
        let _ = entry.writer.send(vec![response]);
    }
}

/// Snapshot for a `stats` frame: admission progress plus a capacity
/// audit over every broker of every proxy.
fn stats_frame(
    id: u64,
    queue: &AdmissionQueue<'_>,
    counters: &Counters,
    conns: &HashMap<u64, Conn>,
    sessions: &HashMap<u64, LiveSession>,
    world: &ServerWorld,
) -> StatsFrame {
    let snap = counters.snapshot();
    let mut total_available = 0.0;
    let mut total_capacity = 0.0;
    let mut over_committed = false;
    for proxy in world.coordinator().proxies() {
        for broker in proxy.brokers().iter() {
            let available = broker.available();
            total_available += available;
            total_capacity += broker.capacity();
            if available < -1e-9 {
                over_committed = true;
            }
        }
    }
    StatsFrame {
        id,
        rounds: queue.rounds(),
        requests: snap.serve_requests,
        establishments: snap.establishments,
        releases: snap.sessions_released,
        live_sessions: sessions.len() as u64,
        connections: conns.len() as u64,
        total_available,
        total_capacity,
        over_committed,
    }
}

/// `qosr serve`: start, announce, and block until a client-sent
/// `shutdown` frame (the subcommand's whole lifetime).
pub fn serve(opts: &ServeOptions) -> Result<String, ScenarioError> {
    let server = start(opts)?;
    let addr = server.addr();
    eprintln!("qosr serve: admitting on {addr} (world: {:?})", opts.world);
    if let Some(metrics) = &opts.metrics_addr {
        eprintln!("qosr serve: metrics on http://{metrics}");
    }
    server.wait();
    Ok(format!("qosr serve: stopped ({addr})\n"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{read_frame, write_frame};
    use std::io::BufReader;

    struct Client {
        stream: TcpStream,
        reader: BufReader<TcpStream>,
    }

    impl Client {
        fn connect(addr: SocketAddr) -> Client {
            let stream = TcpStream::connect(addr).expect("connect");
            stream.set_nodelay(true).unwrap();
            let reader = BufReader::new(stream.try_clone().expect("clone"));
            Client { stream, reader }
        }

        fn send(&mut self, frame: &RequestFrame) {
            write_frame(&mut self.stream, frame).expect("send");
            self.stream.flush().unwrap();
        }

        fn recv(&mut self) -> ResponseFrame {
            read_frame(&mut self.reader)
                .expect("recv")
                .expect("open stream")
        }
    }

    #[test]
    fn bench_world_commits_over_the_wire() {
        let server = start(&ServeOptions::default()).expect("start");
        let mut client = Client::connect(server.addr());

        client.send(&RequestFrame::Ping { id: 99 });
        assert_eq!(client.recv(), ResponseFrame::Pong { id: 99 });

        client.send(&RequestFrame::Establish(EstablishDef::new(1)));
        let ResponseFrame::Outcome(outcome) = client.recv() else {
            panic!("expected an outcome frame");
        };
        assert_eq!(outcome.id, 1);
        assert_eq!(outcome.status, "committed");
        let session = outcome.session.expect("committed outcomes name a session");

        client.send(&RequestFrame::Terminate { id: 2, session });
        let ResponseFrame::Terminated {
            id: 2, released, ..
        } = client.recv()
        else {
            panic!("expected a terminated frame");
        };
        assert!(released > 0.0, "terminate releases held capacity");

        client.send(&RequestFrame::Stats { id: 3 });
        let ResponseFrame::Stats(stats) = client.recv() else {
            panic!("expected a stats frame");
        };
        assert_eq!(stats.live_sessions, 0);
        assert!(!stats.over_committed);
        assert!(stats.requests >= 4);

        server.shutdown();
    }

    #[test]
    fn invalid_templates_answer_with_errors() {
        let server = start(&ServeOptions::default()).expect("start");
        let mut client = Client::connect(server.addr());

        let mut def = EstablishDef::new(7);
        def.service = 3; // bench world has only service 0
        client.send(&RequestFrame::Establish(def));
        let ResponseFrame::Error { id, message } = client.recv() else {
            panic!("expected an error frame");
        };
        assert_eq!(id, Some(7));
        assert!(message.contains("bench world"));

        client.send(&RequestFrame::Terminate {
            id: 8,
            session: 424242,
        });
        let ResponseFrame::Error { id, .. } = client.recv() else {
            panic!("expected an error frame");
        };
        assert_eq!(id, Some(8));

        server.shutdown();
    }

    #[test]
    fn rigid_advance_frames_need_a_non_empty_window() {
        // `TimelineIndex` asserts on `[t, t)` and on inverted windows;
        // a wire frame must never get that far.
        for (from, to) in [(5.0, 5.0), (5.0, 4.0)] {
            let def = AdvanceDef::rigid(1, vec![(0, 1.0)], from, to);
            let error = resolve_advance(&def, SessionId(1)).unwrap_err();
            assert!(error.contains("from < to"), "{error}");
        }
        assert!(resolve_advance(
            &AdvanceDef::rigid(1, vec![(0, 1.0)], 4.0, 5.0),
            SessionId(1)
        )
        .is_ok());
    }

    #[test]
    fn advance_frames_book_cancel_and_reject_over_the_wire() {
        let server = start(&ServeOptions::default()).expect("start");
        let mut client = Client::connect(server.addr());

        // A malleable transfer on resource 0 (bench capacities are huge).
        let mut def = AdvanceDef::malleable(1, 0, 500.0, 100.0);
        def.max_rate = Some(25.0);
        def.policy = Some("tradeoff".into());
        client.send(&RequestFrame::Advance(def));
        let ResponseFrame::Advance(outcome) = client.recv() else {
            panic!("expected an advance outcome frame");
        };
        assert_eq!(outcome.id, 1);
        assert_eq!(outcome.status, "booked");
        assert_eq!(outcome.volume, Some(500.0));
        let session = outcome.session.expect("booked outcomes name a session");

        // A rigid window booking alongside it.
        client.send(&RequestFrame::Advance(AdvanceDef::rigid(
            2,
            vec![(0, 10.0), (1, 5.0)],
            0.0,
            4.0,
        )));
        let ResponseFrame::Advance(outcome) = client.recv() else {
            panic!("expected an advance outcome frame");
        };
        assert_eq!(outcome.status, "booked");

        // Cancelling the transfer reports what it released.
        client.send(&RequestFrame::AdvanceCancel { id: 3, session });
        let ResponseFrame::AdvanceCancelled {
            id: 3,
            released_volume,
            bookings_removed,
            ..
        } = client.recv()
        else {
            panic!("expected an advance-cancelled frame");
        };
        assert!(released_volume >= 500.0 - 1e-6);
        assert!(bookings_removed >= 1);

        // Cancelling it again: the lease is gone.
        client.send(&RequestFrame::AdvanceCancel { id: 4, session });
        let ResponseFrame::Error { id, message } = client.recv() else {
            panic!("expected an error frame");
        };
        assert_eq!(id, Some(4));
        assert!(message.contains("unknown advance session"));

        // A malformed def (both shapes at once) answers with an error.
        let mut bad = AdvanceDef::rigid(5, vec![(0, 1.0)], 0.0, 1.0);
        bad.volume = Some(10.0);
        client.send(&RequestFrame::Advance(bad));
        let ResponseFrame::Error { id, .. } = client.recv() else {
            panic!("expected an error frame");
        };
        assert_eq!(id, Some(5));

        // An unknown resource rejects cleanly, keeping the connection.
        client.send(&RequestFrame::Advance(AdvanceDef::malleable(
            6, 999_999, 10.0, 50.0,
        )));
        let ResponseFrame::Advance(outcome) = client.recv() else {
            panic!("expected an advance outcome frame");
        };
        assert_eq!(outcome.status, "rejected");
        assert!(outcome.error.is_some());

        server.shutdown();
    }

    #[test]
    fn disconnects_release_advance_leases() {
        let server = start(&ServeOptions::default()).expect("start");

        // Client 1 books resource 0's full bench capacity over [0, 5).
        let mut holder = Client::connect(server.addr());
        holder.send(&RequestFrame::Advance(AdvanceDef::rigid(
            1,
            vec![(0, 1.0e12)],
            0.0,
            5.0,
        )));
        let ResponseFrame::Advance(outcome) = holder.recv() else {
            panic!("expected an advance outcome frame");
        };
        assert_eq!(outcome.status, "booked");

        // Client 2 cannot book the same window while the lease stands…
        let mut rival = Client::connect(server.addr());
        rival.send(&RequestFrame::Advance(AdvanceDef::rigid(
            2,
            vec![(0, 1.0e12)],
            0.0,
            5.0,
        )));
        let ResponseFrame::Advance(outcome) = rival.recv() else {
            panic!("expected an advance outcome frame");
        };
        assert_eq!(outcome.status, "rejected");

        // …but once client 1 dies, its advance bookings are cancelled.
        drop(holder);
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        let mut id = 3;
        loop {
            rival.send(&RequestFrame::Advance(AdvanceDef::rigid(
                id,
                vec![(0, 1.0e12)],
                0.0,
                5.0,
            )));
            let ResponseFrame::Advance(outcome) = rival.recv() else {
                panic!("expected an advance outcome frame");
            };
            if outcome.status == "booked" {
                break;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "the dead client's advance lease was never released"
            );
            std::thread::sleep(Duration::from_millis(10));
            id += 1;
        }

        server.shutdown();
    }

    #[test]
    fn shutdown_frame_stops_the_server_with_a_bye() {
        let server = start(&ServeOptions::default()).expect("start");
        let mut client = Client::connect(server.addr());
        client.send(&RequestFrame::Shutdown);
        assert!(matches!(client.recv(), ResponseFrame::Bye { .. }));
        // wait() returns because the client-sent shutdown drained it.
        server.wait();
    }
}
