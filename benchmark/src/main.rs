//! `qosr-benchmark`: one workload per process.
//!
//! ```text
//! qosr-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! qosr-benchmark compare <dirA> <dirB>
//! ```
//!
//! A run sets the workload up (timed), warms it up, measures windows of
//! 1,024 ops until the seconds are up, tears down and checks its
//! outputs. `--trace 0` prints the end-to-end metrics; `--trace 1` runs
//! an untraced and a traced slice plus the isolated layer probes and
//! prints the per-layer metrics. The last line of standard output is the
//! result object. See README.md.

mod compare;
mod gen;
mod harness;
mod metrics;
mod spans;
mod stats;
mod surface;
mod sys;
mod workloads;

use harness::{run_slice, timed_setup, Checks, Layers, Slice, Workload, SETUP_EVERY};
use metrics::{END_TO_END, PER_LAYER, WORKLOADS};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

#[global_allocator]
static ALLOCATOR: sys::CountingAllocator = sys::CountingAllocator;

/// Shares of `--seconds` a traced run gives its untraced slice, its
/// traced slice and the probes.
const TRACE_SPLIT: (f64, f64, f64) = (0.3, 0.3, 0.35);

/// The checkout root: the working directory when it holds the
/// repository (how the driver runs the benchmark), else the parent of
/// this crate.
pub fn repo_root() -> PathBuf {
    let cwd = std::env::current_dir().unwrap_or_default();
    if cwd.join("scenarios").is_dir() && cwd.join("benchmark").is_dir() {
        cwd
    } else {
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("..")
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage() -> String {
    format!(
        "usage: qosr-benchmark --workload <{}> --seed <n> --seconds <s> --trace <0|1>\n       \
         qosr-benchmark compare <dirA> <dirB>",
        WORKLOADS.join("|")
    )
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: String::new(),
        seed: 0,
        seconds: 0.0,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{}", usage()))?;
        let bad = || format!("bad value `{value}` for {flag}\n{}", usage());
        match flag.as_str() {
            "--workload" => parsed.workload = value.clone(),
            "--seed" => parsed.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => parsed.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                parsed.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown argument `{flag}`\n{}", usage())),
        }
    }
    if !WORKLOADS.contains(&parsed.workload.as_str()) {
        return Err(format!(
            "unknown workload `{}`\n{}",
            parsed.workload,
            usage()
        ));
    }
    if !(parsed.seconds.is_finite() && parsed.seconds > 0.0) {
        return Err(format!("--seconds must be positive\n{}", usage()));
    }
    Ok(parsed)
}

/// What a finished run hands back for printing.
struct Report {
    metrics: Vec<(&'static str, &'static str, f64)>,
    checks: Checks,
    input_hash: u64,
}

fn require_windows(slice: &Slice) -> Result<(), String> {
    if slice.meter.windows().is_empty() {
        return Err("the run closed no window: --seconds is too short".to_owned());
    }
    Ok(())
}

/// The untimed `verify` step: the shipped scenarios at their pinned
/// seeds against their goldens, counted as one more checked op.
fn verify(checks: &mut Checks) {
    checks.attempted += 1;
    match surface::verify_scenarios(&repo_root()) {
        Ok(n) => eprintln!("  verify: {n} scenarios match their goldens"),
        Err(e) => checks.fail(1, || format!("verify: {e}")),
    }
}

fn untraced<W: Workload>(args: &Args) -> Result<Report, String> {
    // The set-up is timed again every SETUP_EVERY windows, so its
    // samples span the run as the windows do; the fastest is reported.
    let (world, mut setup_s) = timed_setup::<W>(args.seed)?;
    let mut setup_failed = None;
    let mut slice = run_slice(
        world,
        Duration::from_secs_f64(args.seconds),
        false,
        |meter| {
            if meter.windows().len() % SETUP_EVERY == 0 {
                match timed_setup::<W>(args.seed) {
                    Ok((_, seconds)) => setup_s = setup_s.min(seconds),
                    Err(e) => setup_failed = Some(e),
                }
            }
        },
    )?;
    require_windows(&slice)?;
    if let Some(e) = setup_failed {
        return Err(e);
    }
    let peak_rss_mb = sys::peak_rss_mb();
    verify(&mut slice.env.checks);
    let best = stats::best_window(slice.meter.windows());
    let c = slice.env.counts;
    let admitted = c.admitted.max(1) as f64;
    let values = [
        best.throughput_ops_s,
        best.lat_p95_us,
        c.admitted as f64 / c.offered.max(1) as f64,
        c.rank_sum as f64 / admitted,
        c.psi_sum / admitted,
        peak_rss_mb,
        setup_s,
    ];
    eprintln!(
        "  windows {}  whole-run {:.0} ops/s  p50 {:.2} us  p99 {:.2} us  p99.9 {:.2} us  max {:.2} us",
        slice.meter.windows().len(),
        slice.meter.ops() as f64 * 1e9 / slice.meter.wall_ns().max(1) as f64,
        slice.meter.hist().percentile(0.50) as f64 / 1e3,
        slice.meter.hist().percentile(0.99) as f64 / 1e3,
        slice.meter.hist().percentile(0.999) as f64 / 1e3,
        slice.meter.hist().max() as f64 / 1e3,
    );
    // The per-window series, for anyone who wants to look at the run
    // behind the timing figures (or try another estimator on it).
    let series = repo_root()
        .join("benchmark/out")
        .join(format!("{}.{}.windows.csv", args.workload, args.seed));
    let mut csv = String::from("ops,rate_ops_s,p50_us,p95_us,p99_us,cpu_us_per_op\n");
    for w in slice.meter.windows() {
        csv.push_str(&format!(
            "{},{},{},{},{},{}\n",
            w.ops, w.rate, w.p50_us, w.p95_us, w.p99_us, w.cpu_us_per_op
        ));
    }
    std::fs::create_dir_all(series.parent().expect("has a parent"))
        .and_then(|()| std::fs::write(&series, csv))
        .map_err(|e| format!("{}: {e}", series.display()))?;
    let rates: Vec<f64> = slice.meter.windows().iter().map(|w| w.rate).collect();
    eprintln!(
        "  window rate p5 {:.0}  p25 {:.0}  p50 {:.0}  p75 {:.0}  p95 {:.0}  p99 {:.0} ops/s",
        stats::percentile(&rates, 0.05),
        stats::percentile(&rates, 0.25),
        stats::percentile(&rates, 0.50),
        stats::percentile(&rates, 0.75),
        stats::percentile(&rates, 0.95),
        stats::percentile(&rates, 0.99),
    );
    Ok(Report {
        metrics: END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), value)| (name, unit, value))
            .collect(),
        checks: slice.env.checks,
        input_hash: slice.input_hash,
    })
}

fn traced<W: Workload>(args: &Args) -> Result<Report, String> {
    let seconds = |share: f64| Duration::from_secs_f64(args.seconds * share);
    let plain = run_slice(
        W::setup(args.seed, false)?,
        seconds(TRACE_SPLIT.0),
        false,
        |_| {},
    )?;
    require_windows(&plain)?;
    let traced = run_slice(
        W::setup(args.seed, true)?,
        seconds(TRACE_SPLIT.1),
        true,
        |_| {},
    )?;
    require_windows(&traced)?;

    let mut layers = Layers::new();
    let m = &plain.meter;
    let ops = m.ops().max(1) as f64;
    let rates: Vec<f64> = m.windows().iter().map(|w| w.rate).collect();
    let best = stats::best_window(m.windows());
    layers.insert("run.windows", m.windows().len() as f64);
    layers.insert("run.best_lat_p50_us", best.lat_p50_us);
    layers.insert("run.best_lat_p99_us", best.lat_p99_us);
    layers.insert("run.best_cpu_us_per_op", best.cpu_us_per_op);
    layers.insert("run.mean_ops_s", ops * 1e9 / m.wall_ns().max(1) as f64);
    layers.insert("run.lat_p50_us", m.hist().percentile(0.50) as f64 / 1e3);
    layers.insert("run.lat_p99_us", m.hist().percentile(0.99) as f64 / 1e3);
    layers.insert("run.lat_p999_us", m.hist().percentile(0.999) as f64 / 1e3);
    layers.insert("run.lat_max_us", m.hist().max() as f64 / 1e3);
    layers.insert("run.window_rate_iqr_share", stats::iqr_share(&rates));
    layers.insert("gen.cpu_us_per_op", plain.env.gen_cpu_ns as f64 / 1e3 / ops);

    let traced_ops = traced.meter.ops().max(1) as f64;
    layers.insert("alloc.count_per_op", traced.allocs.0 as f64 / traced_ops);
    layers.insert("alloc.bytes_per_op", traced.allocs.1 as f64 / traced_ops);
    layers.insert(
        "obs.trace.overhead_ratio",
        best.throughput_ops_s / stats::best_window(traced.meter.windows()).throughput_ops_s,
    );
    layers.insert("obs.trace.spans", traced.env.spans.len() as f64);
    if args.workload.starts_with("serve_") {
        // Everything the process burned that the client thread did not.
        layers.insert(
            "cli.serve.server_cpu_us_per_op",
            traced.cpu_ns.saturating_sub(traced.thread_cpu_ns) as f64 / 1e3 / traced_ops,
        );
        layers.insert(
            "cli.serve.ctx_switches_per_op",
            traced.ctx_switches as f64 / traced_ops,
        );
    }
    layers.extend(traced.layers.iter().map(|(&k, &v)| (k, v)));

    let spans_path = repo_root()
        .join("benchmark/out")
        .join(format!("{}.spans.jsonl", args.workload));
    traced
        .env
        .spans
        .write_jsonl(&spans_path)
        .map_err(|e| format!("{}: {e}", spans_path.display()))?;
    eprintln!(
        "  {} spans -> {} ({} later ops not recorded: the log was full)",
        traced.env.spans.len(),
        spans_path.display(),
        traced.env.spans.dropped_roots()
    );
    for (name, (count, self_ns)) in traced.env.spans.self_times() {
        eprintln!(
            "  self time {name:<32} {count:>8} spans  {:>10.3} us mean",
            self_ns as f64 / 1e3 / count.max(1) as f64
        );
    }

    let mut checks = plain.env.checks;
    checks.absorb(traced.env.checks);
    checks.attempted += 1;
    if let Err(e) = W::probes(args.seed, seconds(TRACE_SPLIT.2), &mut layers) {
        checks.fail(1, || format!("probe: {e}"));
    }
    verify(&mut checks);
    layers.insert(
        "run.fail_share",
        checks.failed as f64 / checks.attempted as f64,
    );

    // A name nobody declared would otherwise be dropped in silence.
    for name in layers.keys() {
        assert!(
            PER_LAYER.iter().any(|(n, _)| n == name),
            "{name} is not a declared per-layer metric"
        );
    }
    Ok(Report {
        metrics: PER_LAYER
            .iter()
            .map(|&(name, unit)| (name, unit, layers.get(name).copied().unwrap_or(0.0)))
            .collect(),
        checks,
        input_hash: plain.input_hash,
    })
}

fn run<W: Workload>(args: &Args) -> Result<Report, String> {
    if args.trace {
        traced::<W>(args)
    } else {
        untraced::<W>(args)
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("compare") {
        let [_, a, b] = argv.as_slice() else {
            eprintln!("{}", usage());
            return ExitCode::from(2);
        };
        return match compare::run(&repo_root(), a.as_ref(), b.as_ref()) {
            Ok(false) => ExitCode::SUCCESS,
            Ok(true) => ExitCode::from(1),
            Err(e) => {
                eprintln!("qosr-benchmark compare: {e}");
                ExitCode::from(2)
            }
        };
    }
    let args = match parse(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let cpu = sys::pin_to_one_cpu().map_or_else(|| "unpinned".to_owned(), |c| format!("cpu {c}"));
    eprintln!(
        "qosr-benchmark: {} seed {} for {} s, trace {}, {cpu}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    let report = match args.workload.as_str() {
        "paper_establish" => run::<workloads::paper_establish::PaperEstablish>(&args),
        "serve_saturate" => run::<workloads::serve::ServeSaturate>(&args),
        "serve_mixed" => run::<workloads::serve::ServeMixed>(&args),
        _ => run::<workloads::advance_mix::AdvanceMix>(&args),
    };
    let report = match report {
        Ok(report) => report,
        Err(e) => {
            eprintln!("qosr-benchmark: {e}");
            return ExitCode::from(1);
        }
    };
    for note in &report.checks.notes {
        eprintln!("  FAILED: {note}");
    }
    for (name, unit, value) in &report.metrics {
        eprintln!("  {name:<44} {value:>16.4} {unit}");
    }
    let finite = report.metrics.iter().all(|(_, _, v)| v.is_finite());
    if !finite {
        eprintln!("qosr-benchmark: a metric is not a finite number");
        return ExitCode::from(1);
    }
    println!("input_hash {:016x}", report.input_hash);
    println!(
        "{}",
        metrics::result_json(
            report.checks.failed == 0,
            report.checks.attempted.max(1),
            report.checks.failed,
            &report.metrics
        )
    );
    ExitCode::SUCCESS
}
