//! End-to-end multi-resource reservation plans.

use crate::backtrack::Assignment;
use crate::view::CtxView;
use qosr_model::{QosVector, ResourceId, ResourceVector};

/// The bottleneck of a reservation plan: the resource with the highest
/// contention index ψ across all the plan's reservations.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Bottleneck {
    /// The bottleneck resource.
    pub resource: ResourceId,
    /// Its contention index ψ.
    pub psi: f64,
    /// Its availability-change index α (§4.3.1) at snapshot time.
    pub alpha: f64,
}

/// One component's part of a reservation plan: the selected
/// `(Q^in, Q^out)` pair and the resources to reserve for it.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanAssignment {
    /// Component index within the service.
    pub component: usize,
    /// Selected input QoS level index.
    pub qin: usize,
    /// Selected output QoS level index.
    pub qout: usize,
    /// The scaled resource demand to reserve.
    pub demand: ResourceVector,
}

/// A complete end-to-end multi-resource reservation plan for one service
/// session: per-component level selections and reservations, the achieved
/// end-to-end QoS level, and the plan's bottleneck contention Ψ.
#[derive(Debug, Clone, PartialEq)]
pub struct ReservationPlan {
    /// Per-component assignments, in component-index order.
    pub assignments: Vec<PlanAssignment>,
    /// The sink output-level index achieved (the end-to-end QoS level).
    pub sink_level: usize,
    /// The rank of that level in the service's linear QoS order (higher =
    /// better).
    pub rank: u32,
    /// The end-to-end QoS vector achieved.
    pub end_to_end: QosVector,
    /// The plan's bottleneck contention `Ψ_P` / `Ψ_G` (max edge Ψ over
    /// the plan).
    pub psi: f64,
    /// The bottleneck resource attaining `psi` (absent only when every
    /// demand in the plan is empty).
    pub bottleneck: Option<Bottleneck>,
}

impl ReservationPlan {
    /// Assembles a plan from backtracked assignments.
    pub(crate) fn assemble(view: &CtxView, assignments: &[Assignment]) -> ReservationPlan {
        let service = view.service();
        let mut out = Vec::with_capacity(assignments.len());
        let mut psi = 0.0f64;
        let mut bottleneck: Option<Bottleneck> = None;
        let mut sink_level = 0;
        let sink = service.graph().sink();
        for a in assignments {
            if a.component == sink {
                sink_level = a.qout;
            }
            if let Some(b) = view.edge_bottleneck(a.edge) {
                if bottleneck.is_none() || b.psi > psi {
                    psi = b.psi;
                    bottleneck = Some(Bottleneck {
                        resource: b.resource,
                        psi: b.psi,
                        alpha: b.alpha,
                    });
                }
            }
            out.push(PlanAssignment {
                component: a.component,
                qin: a.qin,
                qout: a.qout,
                demand: view.edge_demand(a.edge),
            });
        }
        ReservationPlan {
            assignments: out,
            sink_level,
            rank: service.sink_ranking()[sink_level],
            end_to_end: service.end_to_end_levels()[sink_level].clone(),
            psi,
            bottleneck,
        }
    }

    /// The total demand of the plan across all components (what the
    /// QoSProxies will ask the brokers to reserve).
    pub fn total_demand(&self) -> ResourceVector {
        self.assignments
            .iter()
            .fold(ResourceVector::empty(), |acc, a| acc.add(&a.demand))
    }

    /// Compact `(component, qin, qout)` triple list — the "selected
    /// reservation path" identity used by the paper's Tables 1–2.
    pub fn signature(&self) -> Vec<(usize, usize, usize)> {
        self.assignments
            .iter()
            .map(|a| (a.component, a.qin, a.qout))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use crate::test_fixtures::*;
    use crate::{NodeRef, Planner};

    #[test]
    fn assemble_computes_bottleneck_and_totals() {
        let fx = ChainFixture::paper_like();
        let plan = run(&mut fx.ctx_with_avail(100.0), Planner::Basic).unwrap();
        assert_eq!(plan.sink_level, 2);
        assert_eq!(plan.rank, 3);
        assert!((plan.psi - 0.24).abs() < 1e-12);
        let b = plan.bottleneck.unwrap();
        // Bottleneck is the proxy->client bandwidth (demand 24 of 100).
        assert_eq!(b.resource, fx.space.id("bw12").unwrap());
        assert!((b.psi - 0.24).abs() < 1e-12);
        // Totals: cpu0=12, cpu1=20, bw01=16, bw12=24.
        let total = plan.total_demand();
        assert_eq!(total.get(fx.space.id("cpu0").unwrap()), 12.0);
        assert_eq!(total.get(fx.space.id("cpu1").unwrap()), 20.0);
        assert_eq!(total.get(fx.space.id("bw01").unwrap()), 16.0);
        assert_eq!(total.get(fx.space.id("bw12").unwrap()), 24.0);
        assert_eq!(plan.signature(), vec![(0, 0, 1), (1, 1, 3), (2, 3, 2)]);
        assert_eq!(plan.end_to_end.values(), &[3]);
    }

    #[test]
    fn relaxation_distance_matches_plan_psi_on_chains() {
        let fx = ChainFixture::paper_like();
        for avail in [30.0, 50.0, 100.0, 400.0] {
            let mut ctx = fx.ctx_with_avail(avail);
            if let Ok(plan) = run(&mut ctx, Planner::Basic) {
                let (d, _) = ctx.minimax(NodeRef::Out {
                    component: 2,
                    level: plan.sink_level,
                });
                assert!(
                    (plan.psi - d).abs() < 1e-12,
                    "avail {avail}: plan psi {} != dist {d}",
                    plan.psi
                );
            }
        }
    }
}
