//! The CLI commands, exposed as functions so they can be tested without
//! spawning a process.

use crate::dto::{check_availability, CompiledScenario, Scenario, ScenarioError};
use qosr_core::{NodeRef, PlanCtx, Planner, QrgOptions};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fmt::Write;
use std::path::Path;

/// Parses a `--planner` value: `basic`, `tradeoff`, `random` or `dag`.
pub fn parse_planner(s: &str) -> Option<Planner> {
    Some(match s {
        "basic" => Planner::Basic,
        "tradeoff" => Planner::Tradeoff,
        "random" => Planner::Random,
        "dag" => Planner::Dag,
        _ => None?,
    })
}

fn compile(path: &Path) -> Result<(Scenario, CompiledScenario), ScenarioError> {
    compile_with(path, &[])
}

/// Compiles a scenario, applying `name=value` availability overrides.
fn compile_with(
    path: &Path,
    overrides: &[(String, f64)],
) -> Result<(Scenario, CompiledScenario), ScenarioError> {
    let scenario = Scenario::load(path)?;
    let mut compiled = scenario.compile()?;
    for (name, value) in overrides {
        let rid = compiled.space.id(name).ok_or_else(|| {
            ScenarioError::Invalid(format!("--avail references unknown resource {name:?}"))
        })?;
        let alpha = compiled.view.alpha(rid);
        check_availability(name, *value, alpha)?;
        compiled.view.set_with_alpha(rid, *value, alpha);
    }
    Ok((scenario, compiled))
}

/// `validate`: parse + compile, then summarize the scenario.
pub fn validate(path: &Path) -> Result<String, ScenarioError> {
    let (scenario, compiled) = compile(path)?;
    let service = compiled.session.service();
    let mut out = String::new();
    let _ = writeln!(out, "scenario {:?}: OK", scenario.name);
    let _ = writeln!(
        out,
        "  {} components, {} resources, dependency graph is a {}",
        service.components().len(),
        compiled.space.len(),
        if service.graph().is_chain() {
            "chain"
        } else {
            "DAG"
        },
    );
    for (c, comp) in service.components().iter().enumerate() {
        let _ = writeln!(
            out,
            "  [{c}] {:<16} {} input / {} output levels, {} slots, {} feasible pairs",
            comp.name(),
            comp.input_levels().len(),
            comp.output_levels().len(),
            comp.slots().len(),
            (0..comp.input_levels().len())
                .flat_map(|i| (0..comp.output_levels().len()).map(move |o| (i, o)))
                .filter(|&(i, o)| comp.translate(i, o).is_some())
                .count(),
        );
    }
    let _ = writeln!(
        out,
        "  end-to-end levels ranked best-first: {:?}",
        service.sink_rank_order()
    );
    Ok(out)
}

/// `plan`: compute and pretty-print the reservation plan under
/// `name=value` availability overrides (`--avail`). `seed` feeds the
/// random planner.
pub fn plan(
    path: &Path,
    planner: Planner,
    seed: u64,
    overrides: &[(String, f64)],
) -> Result<String, ScenarioError> {
    let (_, compiled) = compile_with(path, overrides)?;
    let plan = PlanCtx::new()
        .plan_session(
            &compiled.session,
            &compiled.view,
            &QrgOptions::default(),
            planner,
            &mut StdRng::seed_from_u64(seed),
        )
        .map_err(|e| ScenarioError::Invalid(format!("planning failed: {e}")))?;

    let service = compiled.session.service();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "end-to-end QoS: {} (rank {} of {})",
        plan.end_to_end,
        plan.rank,
        service.sink_ranking().len()
    );
    for a in &plan.assignments {
        let comp = service.component(a.component);
        let _ = writeln!(
            out,
            "  {:<16} {} -> {}",
            comp.name(),
            comp.input_levels()[a.qin],
            comp.output_levels()[a.qout]
        );
        for (rid, amount) in a.demand.iter() {
            let _ = writeln!(
                out,
                "    reserve {amount:>8.2} of {}",
                compiled.space.name(rid)
            );
        }
    }
    let _ = writeln!(out, "bottleneck Ψ = {:.4}", plan.psi);
    if let Some(b) = plan.bottleneck {
        let _ = writeln!(
            out,
            "  on {} (ψ = {:.4}, α = {:.2})",
            compiled.space.name(b.resource),
            b.psi,
            b.alpha
        );
    }
    Ok(out)
}

/// `explain`: show what the minimax relaxation sees — every end-to-end
/// level's reachability and bottleneck index ψ, best level first — then
/// the plan that would be committed.
pub fn explain(path: &Path, overrides: &[(String, f64)]) -> Result<String, ScenarioError> {
    let (_, compiled) = compile_with(path, overrides)?;
    let mut ctx = PlanCtx::new();
    ctx.prepare(&compiled.session, &compiled.view, &QrgOptions::default());
    let service = compiled.session.service();
    let sink = service.graph().sink();

    let mut out = String::new();
    let _ = writeln!(out, "end-to-end levels (best first):");
    for level in service.sink_rank_order() {
        let (psi, _) = ctx.minimax(NodeRef::Out {
            component: sink,
            level,
        });
        let lvl = &service.end_to_end_levels()[level];
        if psi.is_finite() {
            let _ = writeln!(out, "  {lvl}  reachable, bottleneck ψ = {psi:.4}");
        } else {
            let _ = writeln!(out, "  {lvl}  UNREACHABLE under current availability");
        }
    }
    let _ = writeln!(
        out,
        "{} of {} (Q^in, Q^out) pairs feasible across {} components",
        ctx.candidates().filter(|c| c.feasible).count(),
        service
            .components()
            .iter()
            .map(|c| c.input_levels().len() * c.output_levels().len())
            .sum::<usize>(),
        service.components().len(),
    );
    match ctx.plan(Planner::Dag, &mut StdRng::seed_from_u64(0)) {
        Ok(plan) => {
            let _ = writeln!(
                out,
                "committed plan: {} at Ψ = {:.4}",
                plan.end_to_end, plan.psi
            );
            if let Some(b) = plan.bottleneck {
                let _ = writeln!(
                    out,
                    "  bottleneck {} (ψ = {:.4}, α = {:.2})",
                    compiled.space.name(b.resource),
                    b.psi,
                    b.alpha
                );
            }
        }
        Err(e) => {
            let _ = writeln!(out, "no plan: {e}");
        }
    }
    Ok(out)
}

/// `dot`: emit the QRG in Graphviz format.
pub fn dot(path: &Path) -> Result<String, ScenarioError> {
    let (_, compiled) = compile(path)?;
    let mut ctx = PlanCtx::new();
    ctx.prepare(&compiled.session, &compiled.view, &QrgOptions::default());
    Ok(ctx.to_dot())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn scenario_file() -> PathBuf {
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/data/clip.json")
    }

    #[test]
    fn planner_choice_parses() {
        assert_eq!(parse_planner("basic"), Some(Planner::Basic));
        assert_eq!(parse_planner("dag"), Some(Planner::Dag));
        assert_eq!(parse_planner("nope"), None);
    }

    #[test]
    fn commands_run_on_the_sample_scenario() {
        let path = scenario_file();
        let v = validate(&path).unwrap();
        assert!(v.contains("OK"));
        assert!(v.contains("encoder"));

        let p = plan(&path, Planner::Basic, 1, &[]).unwrap();
        assert!(p.contains("end-to-end QoS"));
        assert!(p.contains("reserve"));

        let d = dot(&path).unwrap();
        assert!(d.starts_with("digraph qrg {"));
    }
}
