//! The product surface: the only file of the benchmark that names a
//! `qosr_*` crate. Workloads, probes and checks are written against the
//! small types below, so a product refactor (ROADMAP's "one of each"
//! deletions) can break the benchmark's build here and nowhere else.
//!
//! What is reached, and nothing wider:
//!
//! | layer | entry points |
//! |---|---|
//! | `sim` | `WorkloadGenerator::{new, sample, next_interarrival}`, `PaperEnvironment::{build, session}`, `EventQueue`, `ScenarioFile::{load, load_dir, to_config}`, `run_scenario` |
//! | `model` | `SessionInstance` (via `PaperEnvironment::session`), `ResourceVector::from_pairs` |
//! | `core` | `PlanCtx::{new, prepare, plan}`, `AvailabilityView` |
//! | `broker` | `Coordinator::{establish_request, terminate, stats, counters, tracer, proxies}`, `SessionRequest`, `AdmissionQueue::{new, admit}` with `AdmissionConfig::default()`, `Broker::{reserve, release, available, capacity}`, `AdvanceRegistry::{register, book, cancel_all, snapshot_window}`, `AdvanceRequest`, `TimelineBroker::{new, available_over, bookings_of, breakpoints}` |
//! | `net` | `NetworkFabric::path_brokers`, `NetworkBroker::route` |
//! | `obs` | `Tracer::{set_enabled, span_histogram}`, `TraceId` |
//! | `cli` | `serve::{start, ServeOptions::default(), WorldKind}`, `wire::{write_request_frame, read_request_frame, write_response_frame, read_response_frame}` and the frame types |
//!
//! Always with the product's own defaults: `ServeOptions::default()`
//! (four planning workers, `max_batch` 256) and
//! `AdmissionConfig::default()` — what a user of `qosr serve` gets.

use qosr_broker::{
    AdmissionConfig, AdmissionQueue, AdvanceRegistry, AdvanceRequest, Broker, EstablishedSession,
    LocalBrokerConfig, SessionId, SessionRequest, SimTime, TimelineBroker,
};
use qosr_cli::serve::{self, ServeOptions, WorldKind};
use qosr_cli::wire::{self, AdvanceDef, EstablishDef, OutcomeFrame, RequestFrame, ResponseFrame};
use qosr_core::{AvailabilityView, PlanCtx, Planner, QrgOptions};
use qosr_model::{ResourceId, ResourceVector, SessionInstance};
use qosr_obs::{SpanKind, TraceId};
use qosr_sim::services::ServiceOptions;
use qosr_sim::{Event, EventQueue, PaperEnvironment, ScenarioFile, WorkloadGenerator};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::io::{Read, Write};
use std::net::SocketAddr;
use std::path::Path;
use std::sync::Arc;

// ────────────────────────────── sim ──────────────────────────────

/// One sampled service request of the paper's workload model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    /// Requested service, 0-based.
    pub service: usize,
    /// Requesting domain, 0-based.
    pub domain: usize,
    /// Demand scale.
    pub scale: f64,
    /// Holding time, TU.
    pub duration: f64,
}

/// `qosr_sim::WorkloadGenerator`, drawing from the caller's generator.
pub struct Sampler(WorkloadGenerator);

impl Sampler {
    /// A sampler at `rate_per_60tu` sessions per 60 TU.
    pub fn new(rate_per_60tu: f64) -> Self {
        Sampler(WorkloadGenerator::new(rate_per_60tu))
    }

    /// Samples one request.
    pub fn sample(&self, rng: &mut StdRng) -> Sample {
        let r = self.0.sample(rng);
        Sample {
            service: r.service,
            domain: r.domain,
            scale: r.scale,
            duration: r.duration,
        }
    }

    /// Exponential gap to the next arrival, TU.
    pub fn interarrival(&self, rng: &mut StdRng) -> f64 {
        self.0.next_interarrival(rng)
    }
}

/// Departure calendar: `qosr_sim::EventQueue` holding only departures.
#[derive(Default)]
pub struct Departures(EventQueue);

impl Departures {
    /// Schedules `session`'s departure at `at`.
    pub fn schedule(&mut self, at: f64, session: u64) {
        self.0
            .schedule(SimTime::new(at), Event::Departure(SessionId(session)));
    }

    /// Pops the earliest departure due at or before `now`.
    pub fn pop_due(&mut self, now: f64) -> Option<u64> {
        if self.0.peek_time()? > SimTime::new(now) {
            return None;
        }
        match self.0.pop() {
            Some((_, Event::Departure(id))) => Some(id.0),
            _ => None,
        }
    }

    /// Pops the earliest departure whatever its time.
    pub fn pop_any(&mut self) -> Option<u64> {
        self.pop_due(f64::MAX)
    }
}

/// A shipped scenario, loaded.
pub struct Scenario(ScenarioFile);

/// Loads one `*.scenario.json`.
pub fn load_scenario(path: &Path) -> Result<Scenario, String> {
    ScenarioFile::load(path)
        .map(Scenario)
        .map_err(|e| e.to_string())
}

impl Scenario {
    /// Runs the scenario at its pinned seed; returns the attempts made.
    pub fn run(&self) -> u64 {
        qosr_sim::run_scenario(&self.0.to_config())
            .metrics
            .overall
            .attempts
    }
}

/// Runs every scenario under `root/scenarios` at its pinned seed and
/// compares the metrics with `root/scenarios/goldens/<name>.json`.
/// Returns how many were checked, or the first divergence.
pub fn verify_scenarios(root: &Path) -> Result<usize, String> {
    let dir = root.join("scenarios");
    let library = ScenarioFile::load_dir(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    if library.is_empty() {
        return Err(format!("no scenarios under {}", dir.display()));
    }
    for (path, scenario) in &library {
        let name = path
            .file_name()
            .and_then(|n| n.to_str())
            .unwrap_or_default()
            .trim_end_matches(".scenario.json");
        let golden = dir.join("goldens").join(format!("{name}.json"));
        let text =
            std::fs::read_to_string(&golden).map_err(|e| format!("{}: {e}", golden.display()))?;
        let pinned: qosr_sim::RunMetrics =
            serde_json::from_str(&text).map_err(|e| format!("{}: {e}", golden.display()))?;
        let got = qosr_sim::run_scenario(&scenario.to_config()).metrics;
        if got != pinned {
            return Err(format!("scenario {name} diverges from its golden"));
        }
    }
    Ok(library.len())
}

// ───────────────────────── the paper world ─────────────────────────

/// An instantiated session (`qosr_model::SessionInstance`).
#[derive(Clone)]
pub struct Session(SessionInstance);

/// A session holding reservations (`qosr_broker::EstablishedSession`).
pub struct Established(EstablishedSession);

impl Established {
    /// The session id.
    pub fn id(&self) -> u64 {
        self.0.id.0
    }

    /// Committed end-to-end QoS rank.
    pub fn rank(&self) -> u32 {
        self.0.plan.rank
    }

    /// Bottleneck contention index Ψ of the committed plan.
    pub fn psi(&self) -> f64 {
        self.0.plan.psi
    }
}

/// The figure-9 environment, built the way `qosr serve --world paper`
/// builds it (`ServeOptions::default()` seed and capacity range), so
/// `paper_establish` and `serve_mixed` admit into one world.
pub struct PaperWorld(PaperEnvironment);

/// Protocol and outcome counters of a coordinator.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ProxyCounts {
    /// Collect round trips + dispatches + commit round trips.
    pub messages: u64,
    /// Establishment attempts.
    pub attempts: u64,
    /// Attempts rolled back after a failed reserve.
    pub rollbacks: u64,
}

impl PaperWorld {
    /// Builds the world.
    pub fn build() -> Self {
        let opts = ServeOptions::default();
        let mut rng = StdRng::seed_from_u64(opts.world_seed);
        PaperWorld(PaperEnvironment::build(
            &mut rng,
            &ServiceOptions::default(),
            opts.capacity,
            LocalBrokerConfig::default(),
        ))
    }

    /// Switches the coordinator's request tracer on, so
    /// [`PaperWorld::establish`] calls carrying a trace id leave span
    /// trees behind.
    pub fn enable_request_tracing(&self) {
        self.0.coordinator.tracer().set_enabled(true);
    }

    /// `PaperEnvironment::session`.
    pub fn instantiate(&self, service: usize, domain: usize, scale: f64) -> Session {
        Session(
            self.0
                .session(service, domain, scale)
                .expect("generated requests are always instantiable"),
        )
    }

    /// `Coordinator::establish_request`; `None` when rejected.
    pub fn establish(
        &self,
        session: Session,
        tradeoff: bool,
        trace: Option<u64>,
        now: f64,
        rng: &mut StdRng,
    ) -> Option<Established> {
        let request = paper_request(session, tradeoff, trace);
        self.0
            .coordinator
            .establish_request(&request, SimTime::new(now), rng)
            .into_session()
            .map(Established)
    }

    /// `Coordinator::terminate`; returns the capacity released.
    pub fn terminate(&self, session: &Established, now: f64) -> f64 {
        self.0.coordinator.terminate(&session.0, SimTime::new(now))
    }

    /// Whether every broker of every proxy has all of its capacity back.
    pub fn idle(&self) -> bool {
        self.0.coordinator.proxies().iter().all(|proxy| {
            proxy
                .brokers()
                .iter()
                .all(|b| (b.available() - b.capacity()).abs() <= 1e-9 * b.capacity())
        })
    }

    /// Message and rollback counters so far.
    pub fn counts(&self) -> ProxyCounts {
        let stats = self.0.coordinator.stats();
        ProxyCounts {
            messages: stats.collect_roundtrips + stats.dispatches + stats.commit_roundtrips,
            attempts: stats.attempts,
            rollbacks: self.0.coordinator.counters().snapshot().rollbacks,
        }
    }

    /// Mean `(collect, plan, commit)` span, ns, over the traced
    /// establishes so far (read back from `Coordinator::tracer()`).
    pub fn span_means_ns(&self) -> (f64, f64, f64) {
        let tracer = self.0.coordinator.tracer();
        let mean = |kind| tracer.span_histogram(kind).mean().unwrap_or(0.0);
        (
            mean(SpanKind::Collect),
            mean(SpanKind::Plan),
            mean(SpanKind::Commit),
        )
    }

    /// The availability every broker reports right now.
    pub fn live_view(&self) -> View {
        let mut view = AvailabilityView::new();
        for proxy in self.0.coordinator.proxies() {
            for b in proxy.brokers().iter() {
                view.set(b.resource(), b.available());
            }
        }
        View(view)
    }

    /// Reserve + release of one unit on host 1's CPU broker.
    pub fn local_reserve_release(&self, now: f64) {
        let rid = self.0.host_cpu(0);
        let broker = self
            .0
            .coordinator
            .owner_of(rid)
            .and_then(|p| p.brokers().get(rid))
            .expect("host CPUs are brokered");
        reserve_release(broker.as_ref(), now);
    }

    /// Reserve + release of one unit on the longest-route path broker.
    pub fn path_reserve_release(&self, now: f64) {
        let broker = self
            .0
            .fabric
            .path_brokers()
            .max_by_key(|b| (b.route().len(), b.resource()))
            .expect("the fabric has paths");
        reserve_release(broker.as_ref(), now);
    }

    /// A batched admission pipeline over this world, at the product's
    /// default configuration.
    pub fn admission(&self) -> Admission<'_> {
        Admission {
            queue: AdmissionQueue::new(&self.0.coordinator, AdmissionConfig::default()),
        }
    }
}

/// Session id no admission ever allocates (ids count up from zero).
const PROBE_SESSION: SessionId = SessionId(u64::MAX - 1);

fn reserve_release(broker: &dyn Broker, now: f64) {
    let now = SimTime::new(now);
    broker
        .reserve(PROBE_SESSION, 1.0, now)
        .expect("one unit fits a live broker");
    std::hint::black_box(broker.release(PROBE_SESSION, now));
}

fn paper_request(session: Session, tradeoff: bool, trace: Option<u64>) -> SessionRequest {
    let mut request = SessionRequest::new(session.0);
    if tradeoff {
        request = request.planner(Planner::Tradeoff);
    }
    if let Some(id) = trace {
        request = request.traced(TraceId(id));
    }
    request
}

/// One admission round's requests (`qosr_broker::SessionRequest`s),
/// built once outside any timed region.
pub struct RequestBatch(Vec<SessionRequest>);

impl RequestBatch {
    /// Basic-planner requests for `sessions`, in order.
    pub fn new(sessions: impl IntoIterator<Item = Session>) -> Self {
        RequestBatch(
            sessions
                .into_iter()
                .map(|s| paper_request(s, false, None))
                .collect(),
        )
    }

    /// Requests in the round.
    pub fn len(&self) -> usize {
        self.0.len()
    }
}

/// `qosr_broker::AdmissionQueue` at `AdmissionConfig::default()`.
pub struct Admission<'a> {
    queue: AdmissionQueue<'a>,
}

impl Admission<'_> {
    /// `AdmissionQueue::admit`: one round over `batch`.
    pub fn admit(&self, batch: &RequestBatch, now: f64) -> Vec<Option<Established>> {
        self.queue
            .admit(&batch.0, SimTime::new(now))
            .into_iter()
            .map(|o| o.into_session().map(Established))
            .collect()
    }

    /// Terminates what a round admitted.
    pub fn release(&self, admitted: &[Option<Established>], now: f64) {
        for est in admitted.iter().flatten() {
            self.queue
                .coordinator()
                .terminate(&est.0, SimTime::new(now));
        }
    }
}

// ────────────────────────────── core ──────────────────────────────

/// An availability snapshot (`qosr_core::AvailabilityView`).
pub struct View(AvailabilityView);

/// One reusable planning context (`qosr_core::PlanCtx`).
#[derive(Default)]
pub struct Plans(PlanCtx);

impl Plans {
    /// `PlanCtx::prepare` against `view`.
    pub fn prepare(&mut self, session: &Session, view: &View) {
        self.0.prepare(&session.0, &view.0, &QrgOptions::default());
    }

    /// `PlanCtx::plan` with the basic planner; whether a plan exists.
    pub fn plan(&mut self, rng: &mut StdRng) -> bool {
        self.0.plan(Planner::Basic, rng).is_ok()
    }
}

// ───────────────────────────── advance ─────────────────────────────

/// What one `book` call decided.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Booked {
    /// Booked (as asked, or after a repack).
    pub admitted: bool,
    /// Admitted by preempting and replanning malleable sessions.
    pub repacked: bool,
    /// Sessions a repack moved.
    pub moved: Vec<u64>,
    /// Volume booked.
    pub volume: f64,
    /// Contention share Ψ of the booked profile.
    pub psi: f64,
    /// `(from, to, rate)` pieces of a malleable plan (empty for rigid).
    pub segments: Vec<(f64, f64, f64)>,
}

/// An `AdvanceRegistry` over `links` `TimelineBroker`s.
pub struct AdvanceWorld {
    registry: AdvanceRegistry,
    links: Vec<Arc<TimelineBroker>>,
}

impl AdvanceWorld {
    /// `links` timelines of `capacity` each, resources `0..links`.
    pub fn build(links: usize, capacity: f64) -> Self {
        let mut registry = AdvanceRegistry::new();
        let links: Vec<_> = (0..links)
            .map(|l| Arc::new(TimelineBroker::new(ResourceId(l as u32), capacity)))
            .collect();
        for link in &links {
            registry.register(Arc::clone(link));
        }
        AdvanceWorld { registry, links }
    }

    fn outcome(&self, request: &AdvanceRequest) -> Booked {
        let outcome = self.registry.book(request, SimTime::ZERO);
        let moved = outcome.moved().iter().map(|s| s.0).collect::<Vec<_>>();
        match outcome.profile() {
            None => Booked::default(),
            Some(profile) => Booked {
                admitted: true,
                repacked: !moved.is_empty(),
                moved,
                volume: profile.volume,
                psi: profile.psi,
                segments: profile
                    .segments
                    .iter()
                    .map(|s| (s.from.value(), s.to.value(), s.rate))
                    .collect(),
            },
        }
    }

    /// `book` of a rigid window on one link.
    pub fn book_rigid(&self, session: u64, link: usize, from: f64, to: f64, amount: f64) -> Booked {
        let demand = ResourceVector::from_pairs([(ResourceId(link as u32), amount)])
            .expect("one positive demand");
        let request = AdvanceRequest::rigid(
            SessionId(session),
            demand,
            SimTime::new(from),
            SimTime::new(to),
        );
        self.outcome(&request)
    }

    /// `book` of a malleable transfer on one link.
    // The arguments are the request's own fields, one to one.
    #[allow(clippy::too_many_arguments)]
    pub fn book_malleable(
        &self,
        session: u64,
        link: usize,
        earliest: f64,
        deadline: f64,
        volume: f64,
        max_rate: f64,
        preempt: bool,
    ) -> Booked {
        let request = AdvanceRequest::malleable(
            SessionId(session),
            ResourceId(link as u32),
            volume,
            SimTime::new(deadline),
        )
        .earliest(SimTime::new(earliest))
        .max_rate(max_rate)
        .allow_preempt(preempt);
        self.outcome(&request)
    }

    /// `cancel_all`: `(released volume, bookings removed)`.
    pub fn cancel(&self, session: u64) -> (f64, usize) {
        let out = self.registry.cancel_all(SessionId(session));
        (out.released_volume, out.bookings_removed)
    }

    /// `snapshot_window` over every link; returns the tightest
    /// availability so the read cannot be optimised away.
    pub fn snapshot_window(&self, from: f64, to: f64) -> f64 {
        let view = self
            .registry
            .snapshot_window(SimTime::new(from), SimTime::new(to));
        view.iter()
            .map(|(_, avail, _)| avail)
            .fold(f64::INFINITY, f64::min)
    }

    /// `TimelineBroker::available_over` on one link.
    pub fn available_over(&self, link: usize, from: f64, to: f64) -> f64 {
        self.links[link].available_over(SimTime::new(from), SimTime::new(to))
    }

    /// `(from, to, amount)` of every booking `session` holds on `link`.
    pub fn bookings_of(&self, link: usize, session: u64) -> Vec<(f64, f64, f64)> {
        self.links[link]
            .bookings_of(SessionId(session))
            .iter()
            .map(|b| (b.from.value(), b.to.value(), b.amount))
            .collect()
    }

    /// Breakpoints across every link's index.
    pub fn breakpoints(&self) -> usize {
        self.links.iter().map(|l| l.breakpoints()).sum()
    }

    /// Capacity of every link.
    pub fn capacity(&self) -> f64 {
        self.links[0].capacity()
    }
}

// ────────────────────────────── serve ──────────────────────────────

/// Which world `qosr serve` admits into.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum World {
    /// The synthetic 4×4-chain throughput world (the default).
    Bench,
    /// The paper's figure-9 world.
    Paper,
}

/// A running in-process `qosr serve`.
pub struct Server(serve::Server);

/// `serve::start(&ServeOptions::default())` on `world`.
pub fn start_server(world: World) -> Result<Server, String> {
    let opts = ServeOptions {
        world: match world {
            World::Bench => WorldKind::Bench,
            World::Paper => WorldKind::Paper,
        },
        ..ServeOptions::default()
    };
    serve::start(&opts).map(Server).map_err(|e| e.to_string())
}

impl Server {
    /// The bound loopback address.
    pub fn addr(&self) -> SocketAddr {
        self.0.addr()
    }

    /// Joins a server a client already sent `shutdown` to.
    pub fn wait(self) {
        self.0.wait();
    }

    /// Stops the server from this side and joins it.
    pub fn shutdown(self) {
        self.0.shutdown();
    }
}

/// A request frame ready to send (`wire::RequestFrame`).
#[derive(Clone)]
pub struct Frame(RequestFrame);

impl Frame {
    /// A plain `establish` on the bench world's one template — the
    /// shape the fast codec path handles end to end. `trace` asks the
    /// server for latency attribution on the outcome.
    pub fn establish_plain(id: u64, trace: bool) -> Frame {
        let mut def = EstablishDef::new(id);
        def.trace = trace.then_some(id);
        Frame(RequestFrame::Establish(def))
    }

    /// A traced paper-world `establish`; `floor` adds
    /// `planner:"tradeoff"` and that `qos_min`.
    pub fn establish_paper(
        id: u64,
        service: usize,
        domain: usize,
        scale: f64,
        floor: Option<u32>,
    ) -> Frame {
        let mut def = EstablishDef::new(id);
        def.service = service;
        def.domain = domain;
        def.scale = scale;
        def.trace = Some(id);
        if let Some(min) = floor {
            def.planner = Some("tradeoff".to_owned());
            def.qos_min = Some(min);
        }
        Frame(RequestFrame::Establish(def))
    }

    /// `terminate`.
    pub fn terminate(id: u64, session: u64) -> Frame {
        Frame(RequestFrame::Terminate { id, session })
    }

    /// `renegotiate`.
    pub fn renegotiate(id: u64, session: u64) -> Frame {
        Frame(RequestFrame::Renegotiate { id, session })
    }

    /// A malleable `advance` transfer.
    pub fn advance(id: u64, resource: u64, volume: f64, deadline: f64, max_rate: f64) -> Frame {
        let mut def = AdvanceDef::malleable(id, resource, volume, deadline);
        def.max_rate = Some(max_rate);
        Frame(RequestFrame::Advance(def))
    }

    /// `advance_cancel`.
    pub fn advance_cancel(id: u64, session: u64) -> Frame {
        Frame(RequestFrame::AdvanceCancel { id, session })
    }

    /// `stats`.
    pub fn stats(id: u64) -> Frame {
        Frame(RequestFrame::Stats { id })
    }

    /// `ping` (answered by the connection's reader alone).
    pub fn ping(id: u64) -> Frame {
        Frame(RequestFrame::Ping { id })
    }

    /// `shutdown`.
    pub fn shutdown() -> Frame {
        Frame(RequestFrame::Shutdown)
    }
}

/// The server's per-phase latency attribution on an outcome, ns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Attribution {
    /// Waiting for the round (absorbs the residual).
    pub queue_ns: u64,
    /// The round's shared availability collect.
    pub collect_ns: u64,
    /// Planning.
    pub plan_ns: u64,
    /// Replanning after commit conflicts.
    pub replan_ns: u64,
    /// Reserve + commit.
    pub commit_ns: u64,
    /// End to end inside the server.
    pub total_ns: u64,
}

/// What the benchmark reads off a response frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Reply {
    /// Result of an `establish`.
    Outcome {
        /// Correlation id.
        id: u64,
        /// The admitted session, when admitted.
        session: Option<u64>,
        /// Committed rank, when admitted.
        rank: Option<u32>,
        /// Committed Ψ, when admitted.
        psi: Option<f64>,
        /// Attribution, when the request carried a trace id.
        attribution: Option<Attribution>,
    },
    /// A `terminate` completed.
    Terminated {
        /// Correlation id.
        id: u64,
    },
    /// A `renegotiate` completed.
    Renegotiated {
        /// Correlation id.
        id: u64,
    },
    /// Result of an `advance`.
    Advance {
        /// Correlation id.
        id: u64,
        /// The advance session, when booked.
        session: Option<u64>,
    },
    /// An `advance_cancel` completed.
    AdvanceCancelled {
        /// Correlation id.
        id: u64,
    },
    /// The server snapshot.
    Stats {
        /// Correlation id.
        id: u64,
        /// Admission rounds so far (the server's sim-clock).
        rounds: u64,
        /// Sessions currently leased.
        live_sessions: u64,
        /// Σ available over every broker.
        total_available: f64,
        /// Σ capacity over every broker.
        total_capacity: f64,
        /// Any broker below zero.
        over_committed: bool,
    },
    /// Answer to a `ping`.
    Pong {
        /// Correlation id.
        id: u64,
    },
    /// The server stopped after answering this many frames.
    Bye {
        /// Frames answered before stopping.
        drained: u64,
    },
    /// Anything the benchmark counts as a failure.
    Error {
        /// Correlation id, when known.
        id: Option<u64>,
        /// The server's message.
        message: String,
    },
}

impl Reply {
    /// The correlation id the frame echoes.
    pub fn id(&self) -> Option<u64> {
        match self {
            Reply::Outcome { id, .. }
            | Reply::Terminated { id }
            | Reply::Renegotiated { id }
            | Reply::Advance { id, .. }
            | Reply::AdvanceCancelled { id }
            | Reply::Stats { id, .. }
            | Reply::Pong { id } => Some(*id),
            Reply::Error { id, .. } => *id,
            Reply::Bye { .. } => None,
        }
    }
}

fn attribution(o: &OutcomeFrame) -> Option<Attribution> {
    Some(Attribution {
        queue_ns: o.queue_ns?,
        collect_ns: o.collect_ns?,
        plan_ns: o.plan_ns?,
        replan_ns: o.replan_ns?,
        commit_ns: o.commit_ns?,
        total_ns: o.total_ns?,
    })
}

fn reply_of(frame: &ResponseFrame) -> Reply {
    match frame {
        ResponseFrame::Outcome(o) => Reply::Outcome {
            id: o.id,
            session: o.session,
            rank: o.rank,
            psi: o.psi,
            attribution: attribution(o),
        },
        ResponseFrame::Terminated { id, .. } => Reply::Terminated { id: *id },
        ResponseFrame::Renegotiated { id, .. } => Reply::Renegotiated { id: *id },
        ResponseFrame::Advance(a) => Reply::Advance {
            id: a.id,
            session: if a.is_booked() { a.session } else { None },
        },
        ResponseFrame::AdvanceCancelled { id, .. } => Reply::AdvanceCancelled { id: *id },
        ResponseFrame::Stats(s) => Reply::Stats {
            id: s.id,
            rounds: s.rounds,
            live_sessions: s.live_sessions,
            total_available: s.total_available,
            total_capacity: s.total_capacity,
            over_committed: s.over_committed,
        },
        ResponseFrame::Pong { id } => Reply::Pong { id: *id },
        ResponseFrame::Bye { drained } => Reply::Bye { drained: *drained },
        ResponseFrame::Error { id, message } => Reply::Error {
            id: *id,
            message: message.clone(),
        },
        other => Reply::Error {
            id: None,
            message: format!("unexpected frame {other:?}"),
        },
    }
}

/// The first frames a traced run sent and received, kept so the codec
/// probes time the workload's own frame mix.
#[derive(Default)]
pub struct FrameTape {
    requests: Vec<RequestFrame>,
    responses: Vec<ResponseFrame>,
}

/// Frames of each direction a [`FrameTape`] keeps.
pub const TAPE_FRAMES: usize = 4096;

impl FrameTape {
    /// `(requests, responses)` recorded.
    pub fn len(&self) -> (usize, usize) {
        (self.requests.len(), self.responses.len())
    }

    /// Encodes every recorded request into `out`
    /// (`wire::write_request_frame`).
    pub fn encode_requests(&self, out: &mut Vec<u8>) {
        for frame in &self.requests {
            wire::write_request_frame(out, frame).expect("encode into memory");
        }
    }

    /// Decodes a buffer of request frames (`wire::read_request_frame`);
    /// returns how many.
    pub fn decode_requests(mut bytes: &[u8]) -> usize {
        let mut n = 0;
        while let Some(frame) = wire::read_request_frame(&mut bytes).expect("own encoding") {
            std::hint::black_box(frame);
            n += 1;
        }
        n
    }

    /// Encodes every recorded response into `out`
    /// (`wire::write_response_frame`).
    pub fn encode_responses(&self, out: &mut Vec<u8>) {
        for frame in &self.responses {
            wire::write_response_frame(out, frame).expect("encode into memory");
        }
    }

    /// Decodes a buffer of response frames
    /// (`wire::read_response_frame`); returns how many.
    pub fn decode_responses(mut bytes: &[u8]) -> usize {
        let mut n = 0;
        while let Some(frame) = wire::read_response_frame(&mut bytes).expect("own encoding") {
            std::hint::black_box(frame);
            n += 1;
        }
        n
    }
}

/// `wire::write_request_frame` (no flush), recording onto `tape`.
pub fn write_request<W: Write>(
    w: &mut W,
    frame: &Frame,
    tape: Option<&mut FrameTape>,
) -> Result<(), String> {
    if let Some(tape) = tape {
        if tape.requests.len() < TAPE_FRAMES {
            tape.requests.push(frame.0.clone());
        }
    }
    wire::write_request_frame(w, &frame.0).map_err(|e| e.to_string())
}

/// `wire::read_response_frame`, recording onto `tape`. `Ok(None)` is a
/// clean end of stream.
pub fn read_response<R: Read>(
    r: &mut R,
    tape: Option<&mut FrameTape>,
) -> Result<Option<Reply>, String> {
    let Some(frame) = wire::read_response_frame(r).map_err(|e| e.to_string())? else {
        return Ok(None);
    };
    let reply = reply_of(&frame);
    if let Some(tape) = tape {
        if tape.responses.len() < TAPE_FRAMES {
            tape.responses.push(frame);
        }
    }
    Ok(Some(reply))
}
