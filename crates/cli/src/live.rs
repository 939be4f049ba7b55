//! The `qosr metrics` and `qosr top` subcommands: run instrumented
//! simulations and expose the live telemetry layer.
//!
//! `metrics` executes one paper-environment run with a
//! [`qosr_obs::MetricsRegistry`] attached and dumps the resulting
//! Prometheus text exposition to stdout — a one-shot scrape of the
//! counters, phase-timing summaries, the committed-Ψ histogram, and the
//! utilization gauges. `top` sweeps a list of arrival rates through the
//! same shared registry and prints one live table row per completed
//! rate, so a long sweep shows progress as it goes. Both accept
//! `--metrics-addr HOST:PORT` to additionally serve the exposition over
//! HTTP (via [`qosr_obs::serve`]) for the duration of the command.

use crate::dto::ScenarioError;
use qosr_obs::{serve, MetricsRegistry, MetricsServer, NullSink, SpanKind};
use qosr_sim::{run_scenario_instrumented, BatchArrivals, PlannerKind, ScenarioConfig};
use std::fmt::Write;
use std::sync::Arc;

/// Knobs for the live-telemetry subcommands, all settable from the
/// command line.
#[derive(Debug, Clone)]
pub struct LiveOptions {
    /// RNG seed (`--seed`).
    pub seed: u64,
    /// Arrival rate for `metrics`, sessions per 60 TU (`--rate`).
    pub rate: f64,
    /// The rates `top` sweeps, best-effort in order (`--rates a,b,c`).
    pub rates: Vec<f64>,
    /// Simulated horizon in TU (`--horizon`).
    pub horizon: f64,
    /// When set, admit arrivals through the concurrent batched pipeline
    /// in rounds of this size (`--batch N`).
    pub batch: Option<usize>,
    /// Gauge sampling period in TU (`--sample`).
    pub sample: f64,
    /// Serve the exposition over HTTP while running
    /// (`--metrics-addr HOST:PORT`).
    pub metrics_addr: Option<String>,
    /// The planning algorithm (`--planner basic|tradeoff|random`).
    pub planner: PlannerKind,
}

impl Default for LiveOptions {
    fn default() -> Self {
        LiveOptions {
            seed: 1,
            rate: 120.0,
            rates: vec![60.0, 120.0, 180.0, 240.0],
            horizon: 1200.0,
            batch: None,
            sample: 30.0,
            metrics_addr: None,
            planner: PlannerKind::Tradeoff,
        }
    }
}

impl LiveOptions {
    fn config(&self, rate: f64) -> ScenarioConfig {
        ScenarioConfig {
            seed: self.seed,
            rate_per_60tu: rate,
            horizon: self.horizon,
            planner: self.planner,
            sample_period: Some(self.sample),
            batch_arrivals: self.batch.map(|size| BatchArrivals {
                size,
                ..BatchArrivals::default()
            }),
            ..ScenarioConfig::default()
        }
    }

    fn server(
        &self,
        registry: &Arc<MetricsRegistry>,
    ) -> Result<Option<MetricsServer>, ScenarioError> {
        match &self.metrics_addr {
            None => Ok(None),
            Some(addr) => serve(addr.as_str(), Arc::clone(registry))
                .map(Some)
                .map_err(ScenarioError::Io),
        }
    }
}

/// `metrics`: run one instrumented simulation and return the Prometheus
/// text exposition — nothing else, so the output can be scraped, piped,
/// or diffed directly.
pub fn metrics(opts: &LiveOptions) -> Result<String, ScenarioError> {
    let registry = Arc::new(MetricsRegistry::new());
    let server = opts.server(&registry)?;
    run_scenario_instrumented(&opts.config(opts.rate), Arc::new(NullSink), Some(&registry));
    let payload = registry.render();
    if let Some(server) = server {
        server.shutdown();
    }
    Ok(payload)
}

/// `top`: sweep the configured rates through one shared registry,
/// emitting a table row per completed rate through `row` (the caller
/// prints each immediately — that is the "live" part). Returns the
/// closing summary line.
pub fn top(opts: &LiveOptions, mut row: impl FnMut(&str)) -> Result<String, ScenarioError> {
    if opts.rates.is_empty() {
        return Err(ScenarioError::Invalid(
            "--rates needs at least one rate".into(),
        ));
    }
    let registry = Arc::new(MetricsRegistry::new());
    let server = opts.server(&registry)?;
    if let Some(server) = &server {
        row(&format!("serving /metrics on http://{}", server.addr()));
    }
    row(&format!(
        "{:>6}  {:>8}  {:>7}  {:>7}  {:>10}  {:>10}  {:>8}  {:>8}",
        "rate", "attempts", "succ", "qos", "plan p50", "plan p99", "util", "peak"
    ));

    let mut committed_total = 0;
    for &rate in &opts.rates {
        let result =
            run_scenario_instrumented(&opts.config(rate), Arc::new(NullSink), Some(&registry));
        committed_total += result.metrics.overall.successes;
        let tracer = registry
            .tracer()
            .expect("registry has a tracer after a run");
        let plan = tracer.span_histogram(SpanKind::Plan);
        let (p50, p99) = (
            plan.percentile(0.50).unwrap_or(0) as f64 / 1e3,
            plan.percentile(0.99).unwrap_or(0) as f64 / 1e3,
        );
        let (mean_util, peak_util) = host_utilization(&registry);
        row(&format!(
            "{rate:>6.0}  {:>8}  {:>6.1}%  {:>7.2}  {:>8.1}µs  {:>8.1}µs  {:>7.1}%  {:>7.1}%",
            result.metrics.overall.attempts,
            100.0 * result.metrics.overall.success_rate(),
            result.metrics.overall.avg_qos_level(),
            p50,
            p99,
            100.0 * mean_util,
            100.0 * peak_util,
        ));
    }

    let mut out = String::new();
    let _ = writeln!(
        out,
        "swept {} rates over horizon {} TU: {committed_total} sessions committed",
        opts.rates.len(),
        opts.horizon
    );
    if let Some(server) = server {
        server.shutdown();
    }
    Ok(out)
}

/// Mean and peak of the per-host utilization gauge series accumulated so
/// far (across every host label and sweep step).
fn host_utilization(registry: &MetricsRegistry) -> (f64, f64) {
    let (mut sum, mut n, mut peak) = (0.0, 0u64, 0.0f64);
    for (_, series) in registry.gauge_families("host_utilization") {
        for sample in series {
            sum += sample.value;
            n += 1;
            peak = peak.max(sample.value);
        }
    }
    if n == 0 {
        (0.0, 0.0)
    } else {
        (sum / n as f64, peak)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> LiveOptions {
        LiveOptions {
            horizon: 240.0,
            sample: 60.0,
            ..LiveOptions::default()
        }
    }

    #[test]
    fn metrics_emits_prometheus_text() {
        let out = metrics(&quick()).unwrap();
        assert!(out.contains("# TYPE qosr_plans_started_total counter"));
        assert!(out.contains("# TYPE qosr_committed_psi histogram"));
        assert!(out.contains("# TYPE qosr_phase_duration_seconds summary"));
        assert!(out.contains("qosr_phase_duration_seconds_count{phase=\"plan\"}"));
        assert!(out.contains("# TYPE qosr_utilization gauge"));
        assert!(out.contains("qosr_active_sessions"));
    }

    #[test]
    fn top_emits_one_row_per_rate_plus_header() {
        let opts = LiveOptions {
            rates: vec![60.0, 120.0],
            ..quick()
        };
        let mut rows = Vec::new();
        let footer = top(&opts, |line| rows.push(line.to_owned())).unwrap();
        assert_eq!(rows.len(), 3, "header + 2 rates: {rows:?}");
        assert!(rows[0].contains("rate"));
        assert!(rows[1].trim_start().starts_with("60"));
        assert!(rows[2].trim_start().starts_with("120"));
        assert!(footer.contains("swept 2 rates"));
    }

    #[test]
    fn top_rejects_an_empty_sweep() {
        let opts = LiveOptions {
            rates: Vec::new(),
            ..quick()
        };
        let err = top(&opts, |_| {}).unwrap_err();
        assert!(matches!(err, ScenarioError::Invalid(_)));
    }

    #[test]
    fn metrics_addr_serves_during_the_run() {
        use std::io::{Read as _, Write as _};
        let opts = LiveOptions {
            metrics_addr: Some("127.0.0.1:0".into()),
            ..quick()
        };
        // The one-shot command shuts its server down before returning, so
        // exercise the serving path through the registry directly.
        let registry = Arc::new(MetricsRegistry::new());
        let server = opts.server(&registry).unwrap().unwrap();
        let addr = server.addr();
        run_scenario_instrumented(&opts.config(opts.rate), Arc::new(NullSink), Some(&registry));
        let mut stream = std::net::TcpStream::connect(addr).unwrap();
        stream
            .write_all(b"GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n")
            .unwrap();
        let mut body = String::new();
        stream.read_to_string(&mut body).unwrap();
        assert!(body.starts_with("HTTP/1.1 200 OK"));
        assert!(body.contains("qosr_plans_started_total"));
        server.shutdown();
    }
}
