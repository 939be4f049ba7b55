//! # qosr-broker — the reservation-enabled runtime (§3)
//!
//! The paper assumes a *fully reservation-enabled environment*: every
//! resource type has a **Resource Broker** that can (1) report current
//! availability, (2) make and enforce reservations, and (3) terminate or
//! cancel them. A **QoSProxy** per end host coordinates: the main
//! QoSProxy collects availability from all participants, runs the
//! planning algorithm (from `qosr-core`), and dispatches the plan's
//! segments back to the participating proxies for actual reservation.
//!
//! This crate provides:
//!
//! * [`SimTime`] — the simulated clock (the paper's "time units");
//! * [`Broker`] — the resource-broker trait, with availability reports
//!   carrying the *Availability Change Index* α of §4.3.1 (eq. 5) and a
//!   change log supporting "availability as observed `e` time units ago"
//!   queries (the observation-inaccuracy experiment, §5.2.4);
//! * [`LocalBroker`] — brokers for host-local resources (CPU, memory,
//!   disk I/O bandwidth);
//! * [`BrokerRegistry`] — the directory of all brokers, producing fresh
//!   or deliberately stale [`qosr_core::AvailabilityView`] snapshots and
//!   offering all-or-nothing multi-resource reservation with rollback;
//! * [`QosProxy`] and [`Coordinator`] — the per-host proxies and the
//!   three-phase session-establishment protocol (collect → compute →
//!   two-phase reserve/commit dispatch) with message accounting (§4.2);
//! * [`FaultInjector`] and [`RetryPolicy`] — deterministic, seedable
//!   fault injection (host crashes, dropped protocol messages, commit
//!   failures) and the bounded-retry/backoff recovery with exactly-once
//!   rollback and graceful QoS degradation that the dispatch runs under.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod admission;
mod advance;
mod alpha;
mod broker;
mod error;
mod fault;
mod local;
mod malleable;
mod pipeline;
mod proxy;
mod registry;
mod request;
mod time;

pub use admission::{AdmissionConfig, AdmissionQueue};
pub use advance::{AdvanceRegistry, Booking, CancelOutcome, TimelineBroker, TimelineIndex};
pub use alpha::AlphaWindow;
pub use broker::{Broker, BrokerReport};
pub use error::{EstablishError, FaultError, ReserveError};
pub use fault::{FaultInjector, RetryPolicy};
pub use local::{LocalBroker, LocalBrokerConfig};
pub use malleable::{AdvanceOutcome, AdvanceProfile, AdvanceRequest, AdvanceShape, RateSegment};
pub use proxy::{
    Coordinator, EstablishOptions, EstablishedSession, HostMessageStats, MessageStats,
    ObservationPolicy, QosProxy,
};
pub use registry::BrokerRegistry;
pub use request::{AlphaPolicy, EstablishOutcome, NearestMiss, SessionRequest};
pub use time::{SessionId, SimTime};
