//! Heuristic-quality census for the two-pass DAG algorithm (§4.3.2).
//!
//! The paper documents two limitations of its DAG heuristic but does not
//! quantify them. This experiment measures both over a corpus of random
//! diamond-family DAG scenarios, comparing against the exhaustive
//! embedded-graph oracle:
//!
//! 1. **spurious failures** — Pass II gives up although a feasible
//!    embedding exists;
//! 2. **suboptimal bottlenecks** — the returned plan's `Ψ_G` exceeds the
//!    global minimum for its sink level.

use crate::oracle::best_embedding;
use crate::synth::random_dag_scenario;
use crate::table::TextTable;
use qosr_core::{AvailabilityView, PlanCtx, PlanError, Planner, QrgOptions};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Aggregate results over the corpus.
#[derive(Debug, Clone, Default)]
pub struct DagQualityReport {
    /// Scenarios examined.
    pub scenarios: u64,
    /// Heuristic produced a plan.
    pub success: u64,
    /// …thereof with globally minimal `Ψ_G`.
    pub optimal_psi: u64,
    /// Mean of `Ψ_G / Ψ_opt` over successful plans (1.0 = always
    /// optimal).
    pub mean_psi_ratio: f64,
    /// Worst observed `Ψ_G / Ψ_opt`.
    pub worst_psi_ratio: f64,
    /// Pass II failed although an embedding exists (limitation 1).
    pub spurious_failures: u64,
    /// Pass II failed and no embedding exists either.
    pub true_failures: u64,
    /// No end-to-end level was Pass-I reachable (genuinely infeasible).
    pub infeasible: u64,
}

/// Runs the census over `n` seeded scenarios.
pub fn run(n: u64) -> DagQualityReport {
    let mut report = DagQualityReport {
        scenarios: n,
        worst_psi_ratio: 1.0,
        ..DagQualityReport::default()
    };
    let mut ratio_sum = 0.0;
    let mut ctx = PlanCtx::new();
    // The DAG heuristic never reads it.
    let mut rng = StdRng::seed_from_u64(0);
    for seed in 0..n {
        let (session, space, avail) = random_dag_scenario(seed);
        let mut view = AvailabilityView::new();
        for (i, rid) in space.ids().enumerate() {
            view.set(rid, avail[i]);
        }
        match ctx.plan_session(
            &session,
            &view,
            &QrgOptions::default(),
            Planner::Dag,
            &mut rng,
        ) {
            Ok(plan) => {
                report.success += 1;
                let best =
                    best_embedding(&session, &view).expect("a plan implies an embedding exists");
                debug_assert_eq!(plan.sink_level, best.sink_level);
                let ratio = if best.psi > 0.0 {
                    plan.psi / best.psi
                } else {
                    1.0
                };
                ratio_sum += ratio;
                report.worst_psi_ratio = report.worst_psi_ratio.max(ratio);
                if plan.psi <= best.psi + 1e-9 {
                    report.optimal_psi += 1;
                }
            }
            Err(PlanError::BacktrackFailed { .. }) => {
                if best_embedding(&session, &view).is_some() {
                    report.spurious_failures += 1;
                } else {
                    report.true_failures += 1;
                }
            }
            Err(PlanError::NoFeasiblePlan) => report.infeasible += 1,
            Err(e) => unreachable!("unexpected planner error {e}"),
        }
    }
    report.mean_psi_ratio = if report.success > 0 {
        ratio_sum / report.success as f64
    } else {
        1.0
    };
    report
}

/// Renders the census.
pub fn render(r: &DagQualityReport) -> String {
    let mut t = TextTable::new(["measure", "value"]);
    let pct = |a: u64, b: u64| {
        if b == 0 {
            "-".to_owned()
        } else {
            format!("{:.1}%", 100.0 * a as f64 / b as f64)
        }
    };
    t.row(["scenarios".to_owned(), r.scenarios.to_string()]);
    t.row([
        "planned".to_owned(),
        format!("{} ({})", r.success, pct(r.success, r.scenarios)),
    ]);
    t.row([
        "…with globally minimal Ψ_G".to_owned(),
        format!("{} ({})", r.optimal_psi, pct(r.optimal_psi, r.success)),
    ]);
    t.row([
        "mean Ψ_G / Ψ_opt".to_owned(),
        format!("{:.4}", r.mean_psi_ratio),
    ]);
    t.row([
        "worst Ψ_G / Ψ_opt".to_owned(),
        format!("{:.4}", r.worst_psi_ratio),
    ]);
    t.row([
        "spurious Pass-II failures".to_owned(),
        format!(
            "{} ({})",
            r.spurious_failures,
            pct(r.spurious_failures, r.scenarios)
        ),
    ]);
    t.row([
        "true Pass-II failures".to_owned(),
        r.true_failures.to_string(),
    ]);
    t.row(["infeasible scenarios".to_owned(), r.infeasible.to_string()]);
    format!(
        "DAG-heuristic quality census (random diamond-family DAGs vs exhaustive oracle)\n{}",
        t.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn census_runs_and_accounts_for_everything() {
        let r = run(64);
        assert_eq!(
            r.success + r.spurious_failures + r.true_failures + r.infeasible,
            r.scenarios
        );
        assert!(r.mean_psi_ratio >= 1.0 - 1e-9);
        assert!(r.worst_psi_ratio >= r.mean_psi_ratio - 1e-9);
        let s = render(&r);
        assert!(s.contains("scenarios"));
        assert!(s.contains("64"));
    }
}
