//! # qosr — QoS and contention-aware multi-resource reservation
//!
//! Facade crate re-exporting the full public API of the `qosr` workspace,
//! a reproduction of *"QoS and Contention-Aware Multi-Resource
//! Reservation"* (Xu, Nahrstedt, Wichadakul; HPDC 2000).
//!
//! * [`model`] — the component-based QoS-Resource Model (§2).
//! * [`core`] — the QoS-Resource Graph and the reservation-plan
//!   algorithms: *basic*, *tradeoff*, *random*, and the two-pass DAG
//!   heuristic (§4).
//! * [`broker`] — resource brokers, availability histories, QoSProxies
//!   and the coordinated session-establishment protocol (§3), including
//!   deterministic fault injection and two-phase commit recovery.
//! * [`net`] — network topologies, routing, and two-level end-to-end
//!   bandwidth brokering (§3).
//! * [`sim`] — the discrete-event simulation used for the paper's
//!   performance study (§5).
//! * [`obs`] — zero-cost-when-disabled observability: session-lifecycle
//!   trace events, sinks (`NullSink`, `JsonlSink`), counters, trace
//!   replay/summaries, and the live telemetry layer — per-request span
//!   trees, HDR-style latency/Ψ histograms, utilization gauges, and a
//!   Prometheus-text metrics exposition (`MetricsRegistry`).
//!
//! See `examples/quickstart.rs` for a guided tour.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;

pub use error::QosrError;

pub use qosr_broker as broker;
pub use qosr_core as core;
pub use qosr_model as model;
pub use qosr_net as net;
pub use qosr_obs as obs;
pub use qosr_sim as sim;

/// Commonly used items, for `use qosr::prelude::*`.
///
/// ```
/// use qosr::prelude::*;
/// use rand::SeedableRng;
/// use std::sync::Arc;
///
/// // One-component service planned against a snapshot via the facade.
/// let schema = QosSchema::new("q", ["level"]);
/// let comp = ComponentSpec::new(
///     "c",
///     vec![QosVector::new(schema.clone(), [0])],
///     vec![QosVector::new(schema.clone(), [1])],
///     vec![SlotSpec::new("cpu", ResourceKind::Compute)],
///     Arc::new(TableTranslation::builder(1, 1, 1).entry(0, 0, [10.0]).build()),
/// );
/// let service = Arc::new(ServiceSpec::chain("svc", vec![comp], vec![1]).unwrap());
/// let mut space = ResourceSpace::new();
/// let cpu = space.register("cpu", ResourceKind::Compute);
/// let session = SessionInstance::new(
///     service, vec![ComponentBinding::new([cpu])], 1.0).unwrap();
/// let mut view = AvailabilityView::new();
/// view.set(cpu, 40.0);
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0); // read by Random only
/// let plan = PlanCtx::new()
///     .plan_session(&session, &view, &QrgOptions::default(), Planner::Basic, &mut rng)
///     .unwrap();
/// assert_eq!(plan.psi, 0.25);
/// ```
pub mod prelude {
    pub use crate::QosrError;
    pub use qosr_broker::{
        AdmissionConfig, AdmissionQueue, AdvanceRegistry, AlphaPolicy, Broker, BrokerRegistry,
        Coordinator, EstablishOptions, EstablishOutcome, FaultInjector, HostMessageStats,
        LocalBroker, NearestMiss, QosProxy, RetryPolicy, SessionId, SessionRequest, SimTime,
        TimelineBroker,
    };
    pub use qosr_core::{
        AvailabilityView, EpochSnapshot, PlanCtx, PlanCtxPool, Planner, QrgOptions, ReservationPlan,
    };
    pub use qosr_model::{
        ComponentBinding, ComponentSpec, DependencyGraph, QosSchema, QosVector, ResourceId,
        ResourceKind, ResourceSpace, ResourceVector, ServiceSpec, SessionInstance, SlotSpec,
        SlotVector, TableTranslation, Translation,
    };
    pub use qosr_net::{NetNode, NetworkBroker, NetworkFabric, Topology};
    pub use qosr_obs::{
        Counters, EventKind, Histogram, JsonlSink, MemorySink, MetricsRegistry, NullSink,
        PsiHistogram, TraceEvent, TraceSink, TraceSummary,
    };
}
