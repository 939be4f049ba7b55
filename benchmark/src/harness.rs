//! The run shared by every workload: timed set-ups, an untimed warm-up,
//! measured windows until the seconds are up, then teardown and checks
//! — and, with tracing asked for, the same again with spans and the
//! counting allocator on, followed by the isolated layer probes.

use crate::spans::SpanLog;
use crate::stats::{reduce_window, LogHistogram, Window, COUNT_WINDOWS, WINDOW_OPS};
use crate::sys;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Untimed warm-up before the first measured window: 4,096 ops.
pub const WARMUP_WINDOWS: usize = 4;
/// Every set-up is timed again *between* measured windows, one every
/// [`SETUP_EVERY`] windows, so its samples span the run as the windows
/// do: timed back to back, a hundred 40 µs set-ups all land in one phase
/// of the host. (Set-ups are all well under a millisecond; what takes
/// longer — the standing load of `advance_mix` — is [`Workload::fill`].)
/// Measured windows between two interleaved set-ups.
pub const SETUP_EVERY: usize = 64;

/// Cuts a run into windows and reduces each as it closes. Memory is
/// constant in the number of ops: one window of latencies, one small
/// record per closed window, one log histogram for the whole run.
pub struct Meter {
    lat: Vec<u32>,
    /// Ops of the open window that were counted without a latency.
    untimed: usize,
    windows: Vec<Window>,
    hist: LogHistogram,
    opened: Instant,
    opened_cpu: u64,
    wall_ns: u64,
    ops: u64,
}

impl Default for Meter {
    fn default() -> Self {
        Meter {
            lat: Vec::with_capacity(WINDOW_OPS + 64),
            untimed: 0,
            windows: Vec::new(),
            hist: LogHistogram::default(),
            opened: Instant::now(),
            opened_cpu: 0,
            wall_ns: 0,
            ops: 0,
        }
    }
}

impl Meter {
    /// Opens a window: stamps wall and process-CPU clocks.
    pub fn open(&mut self) {
        self.lat.clear();
        self.untimed = 0;
        self.opened_cpu = sys::process_cpu_ns();
        self.opened = Instant::now();
    }

    /// Records one completed op's latency.
    pub fn record(&mut self, lat_ns: u64) {
        self.lat.push(lat_ns.min(u64::from(u32::MAX)) as u32);
        self.hist.record(lat_ns);
    }

    /// Counts one completed op whose latency is kept out of the
    /// window's percentiles (the terminates of `serve_saturate`).
    pub fn count(&mut self) {
        self.untimed += 1;
    }

    /// Ops completed in the open window.
    pub fn pending(&self) -> usize {
        self.lat.len() + self.untimed
    }

    /// Closes the window over everything recorded since `open`.
    pub fn close(&mut self) {
        let wall_ns = self.opened.elapsed().as_nanos() as u64;
        let cpu_ns = sys::process_cpu_ns().saturating_sub(self.opened_cpu);
        if self.lat.is_empty() {
            return;
        }
        let ops = self.pending();
        self.ops += ops as u64;
        self.wall_ns += wall_ns;
        self.windows
            .push(reduce_window(&mut self.lat, ops, wall_ns, cpu_ns));
    }

    /// Closed windows, in order.
    pub fn windows(&self) -> &[Window] {
        &self.windows
    }

    /// Whether the next window still feeds the count metrics.
    pub fn in_count_prefix(&self) -> bool {
        self.windows.len() < COUNT_WINDOWS
    }

    /// Whole-run latency histogram.
    pub fn hist(&self) -> &LogHistogram {
        &self.hist
    }

    /// Ops in closed windows.
    pub fn ops(&self) -> u64 {
        self.ops
    }

    /// Wall time inside closed windows, ns.
    pub fn wall_ns(&self) -> u64 {
        self.wall_ns
    }
}

/// The paper's outcome counters, over the count prefix of a run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Counts {
    /// Establishes / bookings offered.
    pub offered: u64,
    /// Of those, admitted.
    pub admitted: u64,
    /// Σ end-to-end QoS rank over the admitted.
    pub rank_sum: u64,
    /// Σ bottleneck Ψ over the admitted.
    pub psi_sum: f64,
}

impl Counts {
    /// Records one offered establish / booking and, when admitted, its
    /// `(rank, Ψ)`.
    pub fn offer(&mut self, admitted: Option<(u32, f64)>) {
        self.offered += 1;
        if let Some((rank, psi)) = admitted {
            self.admitted += 1;
            self.rank_sum += u64::from(rank);
            self.psi_sum += psi;
        }
    }
}

/// Output checks: ops sent, ops that failed one, and the first few
/// reasons.
#[derive(Debug, Default)]
pub struct Checks {
    /// Ops sent (every op is checked).
    pub attempted: u64,
    /// Ops that errored, went unanswered or broke a check.
    pub failed: u64,
    /// The first failures, for the human reading stderr.
    pub notes: Vec<String>,
}

impl Checks {
    /// Counts `n` failed ops with one explanation.
    pub fn fail(&mut self, n: u64, why: impl FnOnce() -> String) {
        self.failed += n;
        if self.notes.len() < 8 {
            self.notes.push(why());
        }
    }

    /// Fails one op unless `ok`.
    pub fn require(&mut self, ok: bool, why: impl FnOnce() -> String) {
        if !ok {
            self.fail(1, why);
        }
    }

    /// Folds another slice's checks into this one.
    pub fn absorb(&mut self, other: Checks) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.notes.extend(other.notes);
    }
}

/// Per-layer metric values by name.
pub type Layers = BTreeMap<&'static str, f64>;

/// Everything a workload's windows write into besides the meter.
pub struct Env {
    /// Span log (records only in the traced slice).
    pub spans: SpanLog,
    /// Count metrics (fed only inside the count prefix).
    pub counts: Counts,
    /// Output checks.
    pub checks: Checks,
    /// Thread CPU the generator spent between windows, ns.
    pub gen_cpu_ns: u64,
    /// Whether this slice is the traced one.
    pub traced: bool,
}

impl Env {
    /// A fresh environment; `traced` switches the span log on.
    pub fn new(traced: bool) -> Self {
        Env {
            spans: SpanLog::new(traced),
            counts: Counts::default(),
            checks: Checks::default(),
            gen_cpu_ns: 0,
            traced,
        }
    }
}

/// Median of a sample of durations, as `f64` in the sample's unit.
pub fn median_u64(values: &mut [u64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_unstable();
    crate::stats::percentile_sorted(values, 0.5) as f64
}

/// Times `f` in batches of `batch` calls for about `budget`; returns the
/// fastest batch's ns per call — the probe-sized version of the
/// best-window estimator.
pub fn best_ns_per_call(budget: Duration, batch: usize, mut f: impl FnMut()) -> f64 {
    let deadline = Instant::now() + budget;
    let mut best = f64::INFINITY;
    loop {
        let t = Instant::now();
        for _ in 0..batch {
            f();
        }
        best = best.min(t.elapsed().as_nanos() as f64 / batch as f64);
        if Instant::now() >= deadline {
            return best;
        }
    }
}

/// One workload: how to set it up, run one window of it, and check it.
pub trait Workload: Sized {
    /// Builds the world and everything the windows need; all of it is
    /// `setup_s`. `traced` arms whatever the traced slice switches on
    /// inside the world (trace ids, the product's request tracer).
    fn setup(seed: u64, traced: bool) -> Result<Self, String>;

    /// Untimed, once, before the warm-up: loads the world with the
    /// standing state the windows run on, through the same calls the
    /// windows make (the warm-up of the other workloads does as much by
    /// itself; `advance_mix` needs 224,000 bookings first).
    fn fill(&mut self) -> Result<(), String> {
        Ok(())
    }

    /// Generates and runs one window: at least [`WINDOW_OPS`] ops
    /// between `meter.open()` and `meter.close()`. Generation happens
    /// before `open` and is charged to `env.gen_cpu_ns`.
    fn window(&mut self, meter: &mut Meter, env: &mut Env);

    /// Untimed teardown: releases everything, runs the output checks,
    /// and reports the layer metrics this slice observed in place.
    fn finish(self, env: &mut Env, layers: &mut Layers);

    /// Hash of the ops generated so far.
    fn input_hash(&self) -> u64;

    /// Isolated layer probes, run once after the traced slice within
    /// about `budget`.
    fn probes(seed: u64, budget: Duration, layers: &mut Layers) -> Result<(), String>;
}

/// One measured slice of a run.
pub struct Slice {
    /// The meter, closed.
    pub meter: Meter,
    /// Counts, checks, spans, generator CPU.
    pub env: Env,
    /// Layer metrics observed in place.
    pub layers: Layers,
    /// Hash of the ops the slice generated.
    pub input_hash: u64,
    /// `(allocations, bytes)` counted over the measured windows.
    pub allocs: (u64, u64),
    /// Context switches over the measured windows.
    pub ctx_switches: u64,
    /// Process CPU over the measured windows, ns.
    pub cpu_ns: u64,
    /// Of that, the calling (generator / client) thread's share, ns.
    pub thread_cpu_ns: u64,
}

/// Fill, warm-up, measured windows for `budget`, teardown and checks.
/// `between` runs after every measured window, outside it.
pub fn run_slice<W: Workload>(
    mut world: W,
    budget: Duration,
    traced: bool,
    mut between: impl FnMut(&Meter),
) -> Result<Slice, String> {
    world.fill()?;
    let mut scratch = Env::new(false);
    let mut warm = Meter::default();
    for _ in 0..WARMUP_WINDOWS {
        world.window(&mut warm, &mut scratch);
    }
    let mut env = Env::new(traced);
    // Failures during warm-up still count.
    env.checks = scratch.checks;
    let mut meter = Meter::default();
    if traced {
        sys::set_alloc_counting(true);
    }
    let allocs0 = sys::alloc_counts();
    let ctx0 = sys::context_switches();
    let cpu0 = sys::process_cpu_ns();
    let thread0 = sys::thread_cpu_ns();
    let deadline = Instant::now() + budget;
    while Instant::now() < deadline {
        world.window(&mut meter, &mut env);
        between(&meter);
    }
    let cpu_ns = sys::process_cpu_ns() - cpu0;
    let thread_cpu_ns = sys::thread_cpu_ns() - thread0;
    let ctx_switches = sys::context_switches() - ctx0;
    let allocs1 = sys::alloc_counts();
    sys::set_alloc_counting(false);
    let input_hash = world.input_hash();
    let mut layers = Layers::new();
    let rss_windows = sys::peak_rss_mb();
    world.finish(&mut env, &mut layers);
    eprintln!(
        "  peak rss: {rss_windows:.1} MB after the windows, {:.1} MB after teardown and checks",
        sys::peak_rss_mb()
    );
    Ok(Slice {
        meter,
        env,
        layers,
        input_hash,
        allocs: (allocs1.0 - allocs0.0, allocs1.1 - allocs0.1),
        ctx_switches,
        cpu_ns,
        thread_cpu_ns,
    })
}

/// Sets the workload up once, timed, and returns the world with the
/// seconds it took.
pub fn timed_setup<W: Workload>(seed: u64) -> Result<(W, f64), String> {
    let t = Instant::now();
    let world = W::setup(seed, false)?;
    Ok((world, t.elapsed().as_secs_f64()))
}
