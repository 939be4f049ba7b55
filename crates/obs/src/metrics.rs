//! Live metrics: gauges, a Prometheus-text registry, and a minimal
//! HTTP exposition server.
//!
//! [`MetricsRegistry`] is the aggregation point the live telemetry
//! layer reports through: attach a coordinator's [`Counters`] and
//! request [`Tracer`], feed utilization/queue gauges from the
//! simulator's sampling tick, and [`MetricsRegistry::render`] produces
//! standard Prometheus text format (version 0.0.4) with all four metric
//! shapes — `counter`s for the monotonic event counts, a `histogram`
//! for committed Ψ, `summary` quantiles for per-phase wall-clock
//! timings (the tracer's span histograms, so they cover traced requests
//! only), and `gauge`s for utilization and queue depth. The `qosr metrics`
//! subcommand dumps one render; [`serve`] exposes the same payload over
//! a blocking [`std::net::TcpListener`] responder for `--metrics-addr`.
//!
//! Gauges keep a short ring-buffer time series ([`GaugeSample`]) behind
//! the current value, so `qosr top` can show recent movement without a
//! full trace.

use std::collections::BTreeMap;
use std::io::{self, Read as _, Write as _};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use crate::counters::Counters;
use crate::hist::PSI_BUCKETS;
use crate::trace::{SpanKind, Tracer};

/// Ring-buffer depth kept per gauge series.
const RING_CAPACITY: usize = 256;

/// One timestamped gauge observation (sim-time, value).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GaugeSample {
    /// Sim-time of the observation.
    pub time: f64,
    /// Observed value.
    pub value: f64,
}

#[derive(Debug, Default)]
struct GaugeSeries {
    value: f64,
    /// Fixed-capacity wrap-cursor ring: grows to `RING_CAPACITY`, then
    /// `cursor` marks the next overwrite slot — which is also the oldest
    /// retained sample.
    ring: Vec<GaugeSample>,
    cursor: usize,
}

impl GaugeSeries {
    fn push(&mut self, sample: GaugeSample) {
        self.value = sample.value;
        if self.ring.len() < RING_CAPACITY {
            self.ring.push(sample);
        } else {
            self.ring[self.cursor] = sample;
            self.cursor = (self.cursor + 1) % RING_CAPACITY;
        }
    }

    /// Chronological (oldest-first) view. Once the ring has wrapped,
    /// in-memory order is rotated: the oldest sample sits at `cursor`,
    /// so the read path must stitch `ring[cursor..]` before
    /// `ring[..cursor]` — returning the raw slice order here would show
    /// the newest samples *before* the oldest after every wrap.
    fn samples(&self) -> Vec<GaugeSample> {
        let (head, tail) = self.ring.split_at(self.cursor);
        tail.iter().chain(head.iter()).copied().collect()
    }
}

/// The label key/value attached to one gauge series (owned form).
type LabelKey = Option<(String, String)>;

/// The live metrics aggregation point. Cheap to share (`Arc`) and
/// thread-safe; every mutator takes `&self`.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    counters: Mutex<Option<Arc<Counters>>>,
    tracer: Mutex<Option<Arc<Tracer>>>,
    gauges: Mutex<BTreeMap<String, BTreeMap<String, GaugeSeries>>>,
    labels: Mutex<BTreeMap<(String, String), LabelKey>>,
}

impl MetricsRegistry {
    /// An empty registry with no sources attached.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Attaches a coordinator's counter block; rendered as `counter`
    /// families plus the committed-Ψ `histogram`.
    pub fn attach_counters(&self, counters: Arc<Counters>) {
        *self.counters.lock().expect("counters lock") = Some(counters);
    }

    /// Attaches a coordinator's request tracer, whose per-span-kind
    /// histograms render as the phase-duration summaries. Attaching
    /// does not enable the tracer: whoever mints trace ids decides
    /// which requests are measured.
    pub fn attach_tracer(&self, tracer: Arc<Tracer>) {
        *self.tracer.lock().expect("tracer lock") = Some(tracer);
    }

    /// The attached request tracer, if any.
    pub fn tracer(&self) -> Option<Arc<Tracer>> {
        self.tracer.lock().expect("tracer lock").clone()
    }

    /// The attached counters, if any.
    pub fn counters(&self) -> Option<Arc<Counters>> {
        self.counters.lock().expect("counters lock").clone()
    }

    /// Sets gauge `family` (optionally labelled `label = (key, value)`)
    /// to `value` at sim-time `time`, appending to the series ring
    /// (bounded at `RING_CAPACITY` = 256, oldest dropped).
    pub fn set_gauge(&self, family: &str, label: Option<(&str, &str)>, time: f64, value: f64) {
        let series_key = label.map(|(k, v)| format!("{k}={v}")).unwrap_or_default();
        self.labels
            .lock()
            .expect("labels lock")
            .entry((family.to_string(), series_key.clone()))
            .or_insert_with(|| label.map(|(k, v)| (k.to_string(), v.to_string())));
        let mut gauges = self.gauges.lock().expect("gauges lock");
        gauges
            .entry(family.to_string())
            .or_default()
            .entry(series_key)
            .or_default()
            .push(GaugeSample { time, value });
    }

    /// The current value of a gauge series, if it has ever been set.
    pub fn gauge(&self, family: &str, label: Option<(&str, &str)>) -> Option<f64> {
        let series_key = label.map(|(k, v)| format!("{k}={v}")).unwrap_or_default();
        self.gauges
            .lock()
            .expect("gauges lock")
            .get(family)?
            .get(&series_key)
            .map(|s| s.value)
    }

    /// The recent time series of a gauge (oldest first, bounded ring).
    pub fn series(&self, family: &str, label: Option<(&str, &str)>) -> Vec<GaugeSample> {
        let series_key = label.map(|(k, v)| format!("{k}={v}")).unwrap_or_default();
        self.gauges
            .lock()
            .expect("gauges lock")
            .get(family)
            .and_then(|m| m.get(&series_key))
            .map(GaugeSeries::samples)
            .unwrap_or_default()
    }

    /// Every series of a gauge family: `(series key, ring)` pairs, where
    /// the series key is `""` for the unlabelled series and `"key=value"`
    /// otherwise. Lets consumers (e.g. `qosr top`) aggregate across
    /// labels without knowing them in advance.
    pub fn gauge_families(&self, family: &str) -> Vec<(String, Vec<GaugeSample>)> {
        self.gauges
            .lock()
            .expect("gauges lock")
            .get(family)
            .map(|m| {
                m.iter()
                    .map(|(key, s)| (key.clone(), s.samples()))
                    .collect()
            })
            .unwrap_or_default()
    }

    /// Renders the full registry in Prometheus text format 0.0.4.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();

        if let Some(counters) = self.counters() {
            let snap = counters.snapshot();
            let families: [(&str, &str, u64); 28] = [
                (
                    "plans_started",
                    "Planning attempts begun",
                    snap.plans_started,
                ),
                (
                    "plans_completed",
                    "Planning attempts that produced a plan",
                    snap.plans_completed,
                ),
                (
                    "plans_rejected",
                    "Planning attempts with no feasible plan",
                    snap.plans_rejected,
                ),
                (
                    "reservations_committed",
                    "Sessions committed at every broker",
                    snap.reservations_committed,
                ),
                (
                    "reservations_rejected",
                    "Dispatches rejected by a broker",
                    snap.reservations_rejected,
                ),
                (
                    "sessions_released",
                    "Sessions terminated and released",
                    snap.sessions_released,
                ),
                ("upgrades", "Renegotiations to a better plan", snap.upgrades),
                (
                    "tradeoff_downgrades",
                    "Alpha-tradeoff downgrades taken",
                    snap.tradeoff_downgrades,
                ),
                (
                    "skeleton_hits",
                    "QRG skeleton memo hits",
                    snap.skeleton_hits,
                ),
                (
                    "skeleton_misses",
                    "QRG skeleton memo misses",
                    snap.skeleton_misses,
                ),
                (
                    "faults_injected",
                    "Injected faults fired",
                    snap.faults_injected,
                ),
                ("rollbacks", "Partial-plan rollbacks", snap.rollbacks),
                ("retries", "Establishment retries", snap.retries),
                (
                    "degraded_commits",
                    "Commits below first-planned rank",
                    snap.degraded_commits,
                ),
                (
                    "sessions_lost",
                    "Sessions killed by host crashes",
                    snap.sessions_lost,
                ),
                (
                    "fault_failures",
                    "Establishments failed after fault retries",
                    snap.fault_failures,
                ),
                (
                    "establish_attempts",
                    "Establishment requests received",
                    snap.establish_attempts,
                ),
                (
                    "establishments",
                    "Establishment requests committed",
                    snap.establishments,
                ),
                (
                    "batches_planned",
                    "Batched admission rounds planned",
                    snap.batches_planned,
                ),
                (
                    "commit_conflicts",
                    "Same-round commit conflicts",
                    snap.commit_conflicts,
                ),
                ("replans", "Conflicted requests replanned", snap.replans),
                (
                    "delta_repairs",
                    "Delta-aware prepares repaired in place",
                    snap.delta_repairs,
                ),
                (
                    "delta_fallbacks",
                    "Delta-aware prepares that fell back to a full rebuild",
                    snap.delta_fallbacks,
                ),
                (
                    "relax_nodes_repaired",
                    "QRG nodes recomputed by incremental relaxation repairs",
                    snap.relax_nodes_repaired,
                ),
                (
                    "serve_requests",
                    "Wire-protocol request frames decoded by the admission server",
                    snap.serve_requests,
                ),
                (
                    "serve_batches",
                    "Coalesced batches the admission server flushed",
                    snap.serve_batches,
                ),
                (
                    "serve_protocol_errors",
                    "Malformed frames received by the admission server",
                    snap.serve_protocol_errors,
                ),
                (
                    "serve_disconnects",
                    "Client connections closed with leased sessions released",
                    snap.serve_disconnects,
                ),
            ];
            for (name, help, value) in families {
                let _ = writeln!(out, "# HELP qosr_{name}_total {help}.");
                let _ = writeln!(out, "# TYPE qosr_{name}_total counter");
                let _ = writeln!(out, "qosr_{name}_total {value}");
            }

            let psi = counters.psi_histogram();
            let _ = writeln!(
                out,
                "# HELP qosr_committed_psi Bottleneck contention index of committed plans."
            );
            let _ = writeln!(out, "# TYPE qosr_committed_psi histogram");
            let counts = psi.counts();
            let mut cumulative = 0u64;
            for (i, &count) in counts.iter().enumerate().take(PSI_BUCKETS.len()) {
                cumulative += count;
                let _ = writeln!(
                    out,
                    "qosr_committed_psi_bucket{{le=\"{}\"}} {cumulative}",
                    PSI_BUCKETS[i]
                );
            }
            cumulative += counts[PSI_BUCKETS.len()];
            let _ = writeln!(out, "qosr_committed_psi_bucket{{le=\"+Inf\"}} {cumulative}");
            let _ = writeln!(out, "qosr_committed_psi_sum {}", psi.sum());
            let _ = writeln!(out, "qosr_committed_psi_count {cumulative}");
        }

        if let Some(tracer) = self.tracer() {
            let _ = writeln!(
                out,
                "# HELP qosr_phase_duration_seconds Wall-clock time per admission phase of traced requests."
            );
            let _ = writeln!(out, "# TYPE qosr_phase_duration_seconds summary");
            for kind in SpanKind::ALL {
                let hist = tracer.span_histogram(kind);
                let name = kind.name();
                for (label, q) in [("0.5", 0.5), ("0.9", 0.9), ("0.99", 0.99)] {
                    if let Some(ns) = hist.percentile(q) {
                        let _ = writeln!(
                            out,
                            "qosr_phase_duration_seconds{{phase=\"{name}\",quantile=\"{label}\"}} {}",
                            ns as f64 / 1e9
                        );
                    }
                }
                let _ = writeln!(
                    out,
                    "qosr_phase_duration_seconds_sum{{phase=\"{name}\"}} {}",
                    hist.sum() as f64 / 1e9
                );
                let _ = writeln!(
                    out,
                    "qosr_phase_duration_seconds_count{{phase=\"{name}\"}} {}",
                    hist.count()
                );
            }
        }

        let gauges = self.gauges.lock().expect("gauges lock");
        let labels = self.labels.lock().expect("labels lock");
        for (family, series) in gauges.iter() {
            let _ = writeln!(out, "# TYPE qosr_{family} gauge");
            for (series_key, entry) in series {
                let label = labels
                    .get(&(family.clone(), series_key.clone()))
                    .and_then(|l| l.as_ref());
                match label {
                    Some((k, v)) => {
                        let _ = writeln!(
                            out,
                            "qosr_{family}{{{k}=\"{}\"}} {}",
                            escape_label(v),
                            entry.value
                        );
                    }
                    None => {
                        let _ = writeln!(out, "qosr_{family} {}", entry.value);
                    }
                }
            }
        }
        out
    }
}

/// Escapes a label value per the Prometheus text format (backslash,
/// double quote, newline).
fn escape_label(value: &str) -> String {
    value
        .replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

/// A running metrics HTTP responder; dropping it (or calling
/// [`MetricsServer::shutdown`]) stops the listener thread.
#[derive(Debug)]
pub struct MetricsServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl MetricsServer {
    /// The bound local address (useful when serving on port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the listener thread and waits for it to exit.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        // Unblock the accept loop with one throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for MetricsServer {
    fn drop(&mut self) {
        if self.handle.is_some() {
            self.stop_and_join();
        }
    }
}

/// Serves `registry.render()` over plain HTTP/1.1 on `addr` (e.g.
/// `127.0.0.1:9184`, or port `0` to let the OS pick — read the result
/// back from [`MetricsServer::addr`]). Every request, regardless of
/// path, gets the current exposition; the implementation is a single
/// blocking accept loop, deliberately dependency-free.
pub fn serve(
    addr: impl ToSocketAddrs,
    registry: Arc<MetricsRegistry>,
) -> io::Result<MetricsServer> {
    let listener = TcpListener::bind(addr)?;
    let local = listener.local_addr()?;
    let stop = Arc::new(AtomicBool::new(false));
    let stop_flag = Arc::clone(&stop);
    let handle = std::thread::Builder::new()
        .name("qosr-metrics".into())
        .spawn(move || {
            for stream in listener.incoming() {
                if stop_flag.load(Ordering::Relaxed) {
                    break;
                }
                if let Ok(mut stream) = stream {
                    let _ = respond(&mut stream, &registry.render());
                }
            }
        })?;
    Ok(MetricsServer {
        addr: local,
        stop,
        handle: Some(handle),
    })
}

/// Drains (best-effort) the request head and writes one 200 response
/// carrying `body` as the exposition payload.
fn respond(stream: &mut TcpStream, body: &str) -> io::Result<()> {
    stream.set_read_timeout(Some(Duration::from_millis(500)))?;
    let mut buf = [0u8; 1024];
    let mut head = Vec::new();
    loop {
        match stream.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => {
                head.extend_from_slice(&buf[..n]);
                if head.windows(4).any(|w| w == b"\r\n\r\n") || head.len() > 16 * 1024 {
                    break;
                }
            }
            Err(_) => break,
        }
    }
    write!(
        stream,
        "HTTP/1.1 200 OK\r\nContent-Type: text/plain; version=0.0.4; charset=utf-8\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_contains_all_four_metric_types() {
        let registry = MetricsRegistry::new();
        let counters = Arc::new(Counters::new());
        counters.record_plan_started();
        counters.record_commit(0.42);
        registry.attach_counters(Arc::clone(&counters));
        let tracer = Arc::new(Tracer::new(4));
        registry.attach_tracer(Arc::clone(&tracer));
        assert!(!tracer.enabled(), "attaching leaves the tracer as it was");
        tracer.record(
            crate::RequestTrace {
                trace: 1,
                service: None,
                outcome: crate::trace::OUTCOME_COMMITTED.into(),
                session: Some(1),
                rank: Some(1),
                psi: Some(0.42),
                conflicts: 0,
                retries: 0,
                total_ns: 2_000,
                spans: vec![
                    crate::SpanRecord::new(SpanKind::Queue, 0, 500),
                    crate::SpanRecord::new(SpanKind::Plan, 500, 1_500),
                ],
            },
            &crate::NullSink,
            1.0,
        );
        registry.set_gauge("utilization", Some(("resource", "h0.cpu")), 1.0, 0.25);
        registry.set_gauge("queue_depth", None, 1.0, 3.0);

        let text = registry.render();
        assert!(text.contains("# TYPE qosr_plans_started_total counter"));
        assert!(text.contains("qosr_plans_started_total 1"));
        assert!(text.contains("# TYPE qosr_delta_repairs_total counter"));
        assert!(text.contains("qosr_delta_fallbacks_total 0"));
        assert!(text.contains("qosr_relax_nodes_repaired_total 0"));
        assert!(text.contains("# TYPE qosr_serve_requests_total counter"));
        assert!(text.contains("qosr_serve_protocol_errors_total 0"));
        assert!(text.contains("# TYPE qosr_committed_psi histogram"));
        assert!(text.contains("qosr_committed_psi_bucket{le=\"0.5\"} 1"));
        assert!(text.contains("qosr_committed_psi_bucket{le=\"+Inf\"} 1"));
        assert!(text.contains("qosr_committed_psi_count 1"));
        assert!(text.contains("# TYPE qosr_phase_duration_seconds summary"));
        assert!(text.contains("qosr_phase_duration_seconds{phase=\"plan\",quantile=\"0.5\"}"));
        assert!(text.contains("qosr_phase_duration_seconds_count{phase=\"plan\"} 1"));
        assert!(text.contains("qosr_phase_duration_seconds_count{phase=\"queue\"} 1"));
        assert!(text.contains("qosr_phase_duration_seconds_count{phase=\"collect\"} 0"));
        assert!(!text.contains("phase=\"rollback\""));
        assert!(text.contains("# TYPE qosr_utilization gauge"));
        assert!(text.contains("qosr_utilization{resource=\"h0.cpu\"} 0.25"));
        assert!(text.contains("qosr_queue_depth 3"));
    }

    #[test]
    fn gauges_keep_a_bounded_ring() {
        let registry = MetricsRegistry::new();
        for i in 0..(RING_CAPACITY + 10) {
            registry.set_gauge("depth", None, i as f64, i as f64);
        }
        let series = registry.series("depth", None);
        assert_eq!(series.len(), RING_CAPACITY);
        assert_eq!(series.first().unwrap().value, 10.0);
        assert_eq!(series.last().unwrap().value, (RING_CAPACITY + 9) as f64);
        assert_eq!(
            registry.gauge("depth", None),
            Some((RING_CAPACITY + 9) as f64)
        );
        assert_eq!(registry.gauge("missing", None), None);
    }

    #[test]
    fn gauge_ring_wraparound_keeps_oldest_first_order() {
        let registry = MetricsRegistry::new();
        // Fill past two full wraps so the cursor lands mid-ring, then
        // pin that every read path stitches the rotated storage back
        // into strictly increasing time order, oldest first.
        let total = RING_CAPACITY * 2 + 37;
        for i in 0..total {
            registry.set_gauge("wrap", None, i as f64, i as f64);
        }
        let series = registry.series("wrap", None);
        assert_eq!(series.len(), RING_CAPACITY);
        assert_eq!(series.first().unwrap().time, (total - RING_CAPACITY) as f64);
        assert_eq!(series.last().unwrap().time, (total - 1) as f64);
        for pair in series.windows(2) {
            assert!(
                pair[0].time < pair[1].time,
                "wrapped ring out of order: {} !< {}",
                pair[0].time,
                pair[1].time
            );
        }
        let families = registry.gauge_families("wrap");
        assert_eq!(families.len(), 1);
        assert_eq!(families[0].1, series, "gauge_families shares the stitch");
        // A partially filled ring is already chronological.
        registry.set_gauge("fresh", None, 1.0, 1.0);
        registry.set_gauge("fresh", None, 2.0, 2.0);
        let fresh = registry.series("fresh", None);
        assert_eq!(fresh.iter().map(|s| s.time).collect::<Vec<_>>(), [1.0, 2.0]);
    }

    #[test]
    fn label_values_are_escaped() {
        assert_eq!(escape_label("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    }

    #[test]
    fn server_serves_the_rendered_payload() {
        let registry = Arc::new(MetricsRegistry::new());
        registry.set_gauge("utilization", Some(("resource", "x")), 0.0, 0.5);
        let server = serve("127.0.0.1:0", Arc::clone(&registry)).expect("bind");
        let addr = server.addr();

        let mut stream = TcpStream::connect(addr).expect("connect");
        write!(stream, "GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).expect("read");
        assert!(response.starts_with("HTTP/1.1 200 OK"));
        assert!(response.contains("text/plain; version=0.0.4"));
        assert!(response.contains("qosr_utilization{resource=\"x\"} 0.5"));

        server.shutdown();
    }
}
