//! `qosr-benchmark compare <dirA> <dirB>`: two sets of saved runs, side
//! by side. A set is a directory of files named `<workload>.<tag>.json`
//! whose last line is a run's result object (`runset.py` writes them).
//! Per workload × metric it prints each side's median and quartiles,
//! the bound `BENCHMARK.json` fixes, and a verdict by the rule of the
//! `choosing-metrics` guide, §8.

use crate::stats::quartiles;
use serde::Deserialize;
use std::collections::BTreeMap;
use std::path::Path;

/// How side B (the change) stands against side A (the parent).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B's median is no worse than A's by more than the bound.
    Ok,
    /// B's median is worse than A's by more than the bound.
    Regressed,
    /// A's own run-to-run spread is wider than the bound, so neither
    /// can be said.
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// `delta` as a share of `|base|` (as it stands when the base is 0).
fn share_of(delta: f64, base: f64) -> f64 {
    if base == 0.0 {
        delta
    } else {
        delta / base.abs()
    }
}

/// How far B's median is worse than A's, as a share of A's (negative
/// when B is better).
fn worse_by(a_med: f64, b_med: f64, higher_is_better: bool) -> f64 {
    let sign = if higher_is_better { -1.0 } else { 1.0 };
    share_of(sign * (b_med - a_med), a_med)
}

/// The §8 rule: regressed when B's median is worse than A's by more than
/// the bound. Where A's interquartile spread exceeds the bound the
/// metric is unresolved — unless the two sides do not overlap at all,
/// in which case the medians' story holds.
pub fn verdict(a: &[f64], b: &[f64], higher_is_better: bool, bound: f64) -> Verdict {
    let (a_q1, a_med, a_q3) = quartiles(a);
    let (_, b_med, _) = quartiles(b);
    let worse = worse_by(a_med, b_med, higher_is_better);
    let spread = share_of(a_q3 - a_q1, a_med);
    let better = |x: f64, y: f64| if higher_is_better { x > y } else { x < y };
    let all_b_better = b.iter().all(|&y| a.iter().all(|&x| better(y, x)));
    let all_b_worse = b.iter().all(|&y| a.iter().all(|&x| better(x, y)));
    let resolved = spread <= bound || all_b_better || all_b_worse;
    match (resolved, worse > bound) {
        (false, _) => Verdict::Unresolved,
        (true, true) => Verdict::Regressed,
        (true, false) => Verdict::Ok,
    }
}

#[derive(Deserialize)]
struct Value {
    value: f64,
}

#[derive(Deserialize)]
struct Line {
    metrics: BTreeMap<String, Value>,
}

#[derive(Deserialize)]
struct Declared {
    name: String,
    better: String,
    #[serde(default)]
    bound: Option<f64>,
}

#[derive(Deserialize)]
struct Benchmark {
    end_to_end: Vec<Declared>,
    per_layer: Vec<Declared>,
}

/// `workload → metric → values`, one value per saved run.
type RunSet = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

fn load_set(dir: &Path) -> Result<RunSet, String> {
    let mut set = RunSet::new();
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut paths: Vec<_> = entries.filter_map(|e| e.ok().map(|e| e.path())).collect();
    paths.sort();
    for path in paths {
        let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
            continue;
        };
        if !name.ends_with(".json") {
            continue;
        }
        let workload = name.split('.').next().unwrap_or_default().to_owned();
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let last = text
            .lines()
            .rev()
            .find(|l| !l.trim().is_empty())
            .ok_or_else(|| format!("{}: empty", path.display()))?;
        let line: Line =
            serde_json::from_str(last).map_err(|e| format!("{}: {e}", path.display()))?;
        let by_metric = set.entry(workload).or_default();
        for (metric, v) in line.metrics {
            by_metric.entry(metric).or_default().push(v.value);
        }
    }
    if set.is_empty() {
        return Err(format!("{}: no <workload>.<tag>.json files", dir.display()));
    }
    Ok(set)
}

/// Four significant digits or so, whatever the magnitude (a 0.2 ms
/// set-up and a 200k ops/s rate share a column).
fn digits(x: f64) -> String {
    match x.abs() {
        a if a >= 1000.0 => format!("{x:.0}"),
        a if a >= 10.0 => format!("{x:.2}"),
        a if a >= 0.1 => format!("{x:.4}"),
        _ => format!("{x:.3e}"),
    }
}

/// Prints the comparison; `Err` on unreadable input. Returns whether
/// any metric regressed.
pub fn run(root: &Path, dir_a: &Path, dir_b: &Path) -> Result<bool, String> {
    let declared_path = root.join("BENCHMARK.json");
    let text = std::fs::read_to_string(&declared_path)
        .map_err(|e| format!("{}: {e}", declared_path.display()))?;
    let benchmark: Benchmark =
        serde_json::from_str(&text).map_err(|e| format!("{}: {e}", declared_path.display()))?;
    let declared: BTreeMap<&str, &Declared> = benchmark
        .end_to_end
        .iter()
        .chain(&benchmark.per_layer)
        .map(|d| (d.name.as_str(), d))
        .collect();
    let (a, b) = (load_set(dir_a)?, load_set(dir_b)?);
    let mut regressed = false;
    println!(
        "{:<16} {:<44} {:>12} {:>12} {:>12} | {:>12} {:>12} {:>12} | {:>6} {:>8}  verdict",
        "workload",
        "metric",
        "A q1",
        "A median",
        "A q3",
        "B q1",
        "B median",
        "B q3",
        "bound",
        "worse"
    );
    for (workload, metrics_a) in &a {
        let Some(metrics_b) = b.get(workload) else {
            continue;
        };
        for (metric, values_a) in metrics_a {
            let (Some(values_b), Some(d)) = (metrics_b.get(metric), declared.get(metric.as_str()))
            else {
                continue;
            };
            if values_a.len() < 2 || values_b.len() < 2 {
                continue;
            }
            let (a1, a2, a3) = quartiles(values_a);
            let (b1, b2, b3) = quartiles(values_b);
            let higher = d.better == "higher";
            let worse = worse_by(a2, b2, higher);
            let (bound, label) = match d.bound {
                Some(bound) => {
                    let v = verdict(values_a, values_b, higher, bound);
                    regressed |= v == Verdict::Regressed;
                    (format!("{:.1}%", bound * 100.0), v.label())
                }
                None => ("-".to_owned(), "-"),
            };
            println!(
                "{workload:<16} {metric:<44} {:>12} {:>12} {:>12} | {:>12} {:>12} {:>12} | {bound:>6} {:>7.2}%  {label}",
                digits(a1),
                digits(a2),
                digits(a3),
                digits(b1),
                digits(b2),
                digits(b3),
                worse * 100.0
            );
        }
    }
    Ok(regressed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_rule_separates_ok_regressed_and_unresolved() {
        let quiet = [100.0, 101.0, 99.5, 100.5, 100.2];
        // Within the bound, tight parent: ok.
        assert_eq!(
            verdict(&quiet, &[103.0, 104.0, 102.5, 103.5, 103.2], false, 0.10),
            Verdict::Ok
        );
        // 20% worse on a lower-is-better metric: regressed.
        assert_eq!(
            verdict(&quiet, &[120.0, 121.0, 119.0, 120.5, 120.2], false, 0.10),
            Verdict::Regressed
        );
        // The same numbers on a higher-is-better metric are a gain.
        assert_eq!(
            verdict(&quiet, &[120.0, 121.0, 119.0, 120.5, 120.2], true, 0.10),
            Verdict::Ok
        );
        // A parent whose own runs spread 30% cannot resolve a 10% bound …
        let noisy = [100.0, 130.0, 85.0, 115.0, 95.0];
        assert_eq!(
            verdict(&noisy, &[104.0, 128.0, 90.0, 112.0, 99.0], false, 0.10),
            Verdict::Unresolved
        );
        // … unless every run of the change beats every run of the parent,
        assert_eq!(
            verdict(&noisy, &[70.0, 80.0, 75.0, 60.0, 84.0], false, 0.10),
            Verdict::Ok
        );
        // or loses to every one of them.
        assert_eq!(
            verdict(&noisy, &[170.0, 180.0, 175.0, 160.0, 184.0], false, 0.10),
            Verdict::Regressed
        );
    }
}
