//! # qosr-core — end-to-end multi-resource reservation planning
//!
//! This crate implements section 4 of *"QoS and Contention-Aware
//! Multi-Resource Reservation"* (Xu, Nahrstedt, Wichadakul; HPDC 2000) —
//! the paper's main contribution:
//!
//! 1. **QoS-Resource Graph (QRG) construction** (§4.1.1): given a
//!    [`qosr_model::SessionInstance`] and a snapshot of resource
//!    availability ([`AvailabilityView`]), [`PlanCtx::prepare`] builds
//!    the graph whose nodes are the `Q^in`/`Q^out` levels of every
//!    service component. A *translation edge* `Q^in → Q^out` exists iff
//!    the component's resource requirement `R^req = T_c(Q^in, Q^out)`
//!    fits within the current availability; its weight is the paper's
//!    contention index of the edge, `Ψ = max_i (r_i^req / r_i^avail)`
//!    (eqs. 2–3). *Equivalence edges* (weight 0) connect each `Q^out` to
//!    the downstream `Q^in` it feeds. The availability-independent part
//!    ([`QrgSkeleton`]) is computed once per service spec and shared.
//! 2. **Plan selection** (§4.1.2): every source→sink path is a feasible
//!    end-to-end reservation plan; the algorithm picks, among the paths
//!    reaching the highest-ranked reachable end-to-end QoS level, the one
//!    minimizing the *bottleneck* contention `Ψ_P = max_e Ψ_e` — a
//!    shortest path with `+` redefined as `max`, with the paper's
//!    tie-breaking rule ([`PlanCtx::minimax`] reads the result back).
//! 3. **Planners** ([`Planner`], run by [`PlanCtx::plan`]):
//!    [`Planner::Basic`] (the basic algorithm), [`Planner::Tradeoff`]
//!    (§4.3.1 — trades end-to-end QoS for overall success rate using the
//!    availability-change index α), [`Planner::Random`] (the
//!    contention-*unaware* baseline of §5), and [`Planner::Dag`] (§4.3.2
//!    — the two-pass heuristic for DAG-shaped dependency graphs).
//!
//! ```
//! use std::sync::Arc;
//! use qosr_model::*;
//! use qosr_core::*;
//! use rand::SeedableRng;
//!
//! // One component, two achievable output levels, one CPU slot.
//! let schema = QosSchema::new("q", ["level"]);
//! let lv = |v: u32| QosVector::new(schema.clone(), [v]);
//! let comp = ComponentSpec::new(
//!     "encoder",
//!     vec![lv(0)],
//!     vec![lv(1), lv(2)],
//!     vec![SlotSpec::new("cpu", ResourceKind::Compute)],
//!     Arc::new(TableTranslation::builder(1, 2, 1)
//!         .entry(0, 0, [10.0])
//!         .entry(0, 1, [80.0])
//!         .build()),
//! );
//! let service = Arc::new(ServiceSpec::chain("svc", vec![comp], vec![1, 2]).unwrap());
//!
//! let mut space = ResourceSpace::new();
//! let cpu = space.register("H1.cpu", ResourceKind::Compute);
//! let session = SessionInstance::new(
//!     service, vec![ComponentBinding::new([cpu])], 1.0).unwrap();
//!
//! let mut view = AvailabilityView::new();
//! view.set(cpu, 100.0);
//! let mut ctx = PlanCtx::new();
//! ctx.prepare(&session, &view, &QrgOptions::default());
//! let mut rng = rand::rngs::StdRng::seed_from_u64(0); // read by Random only
//! let plan = ctx.plan(Planner::Basic, &mut rng).unwrap();
//! assert_eq!(plan.sink_level, 1);            // highest level reachable
//! assert!((plan.psi - 0.8).abs() < 1e-12);   // 80 / 100
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod availability;
mod backtrack;
mod ctx;
mod delta;
mod error;
mod plan;
mod planner;
mod pool;
mod psi;
#[cfg(test)]
mod qrg;
mod relax;
mod skeleton;
mod snapshot;
#[cfg(test)]
pub(crate) mod test_fixtures;
mod view;

pub use availability::AvailabilityView;
pub use ctx::{CandidateEval, PlanCtx, QrgOptions};
pub use delta::{
    AvailabilityDelta, DeltaConfig, FullReason, RelaxCache, RepairOutcome, RepairStats,
};
pub use error::PlanError;
pub use plan::{Bottleneck, PlanAssignment, ReservationPlan};
pub use planner::Planner;
pub use pool::{PlanCtxPool, PooledCtx};
pub use psi::PsiDef;
pub use skeleton::{NodeRef, QrgSkeleton};
pub use snapshot::EpochSnapshot;
