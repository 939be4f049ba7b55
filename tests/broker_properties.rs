//! Property-based tests of the broker layer: arbitrary operation
//! sequences are replayed against a trivial reference model, checking
//! conservation, ledger consistency, the time-travel change log, and
//! that an availability report reads the log and feeds the α window
//! exactly as the two separate queries would.

use proptest::prelude::*;
use qosr::broker::{
    AlphaWindow, Broker, BrokerRegistry, LocalBroker, LocalBrokerConfig, SessionId, SimTime,
};
use qosr::model::{ResourceId, ResourceVector};
use qosr::net::NetworkBroker;
use std::collections::HashMap;
use std::sync::Arc;

#[derive(Debug, Clone)]
enum Op {
    Reserve { session: u8, amount: f64 },
    Release { session: u8 },
    ReleaseAmount { session: u8, amount: f64 },
    Report,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u8..6, 0.1f64..40.0).prop_map(|(session, amount)| Op::Reserve { session, amount }),
        (0u8..6).prop_map(|session| Op::Release { session }),
        (0u8..6, 0.1f64..40.0).prop_map(|(session, amount)| Op::ReleaseAmount { session, amount }),
        Just(Op::Report),
    ]
}

const CAPACITY: f64 = 100.0;
const EPS: f64 = 1e-9;

/// One step of a report history: the reservations that move the change
/// log, and reports observed `age` TU in the past.
#[derive(Debug, Clone)]
enum ReportOp {
    Reserve { session: u8, amount: f64 },
    Release { session: u8 },
    Report { age: f64 },
}

fn report_op_strategy() -> impl Strategy<Value = ReportOp> {
    prop_oneof![
        (0u8..6, 0.1f64..40.0).prop_map(|(session, amount)| ReportOp::Reserve { session, amount }),
        (0u8..6).prop_map(|session| ReportOp::Release { session }),
        (0.0f64..6.0).prop_map(|age| ReportOp::Report { age }),
    ]
}

/// Replays `ops` on `broker`, one every half TU. Every report's
/// availability must be bit-equal to `available_at` at its observation
/// time, and its α bit-equal to a standalone [`AlphaWindow`] of length
/// `window` fed the same reports.
fn check_reports(broker: &dyn Broker, window: f64, ops: &[ReportOp]) -> Result<(), TestCaseError> {
    let mut alpha = AlphaWindow::new(window);
    let mut t = 0.0;
    for op in ops {
        t += 0.5;
        let now = SimTime::new(t);
        match *op {
            ReportOp::Reserve { session, amount } => {
                let _ = broker.reserve(SessionId(u64::from(session)), amount, now);
            }
            ReportOp::Release { session } => {
                broker.release(SessionId(u64::from(session)), now);
            }
            ReportOp::Report { age } => {
                let at = SimTime::new(t - age);
                let avail = broker.available_at(at);
                let report = broker.report_observed(now, at);
                prop_assert_eq!(report.avail.to_bits(), avail.to_bits());
                prop_assert_eq!(report.alpha.to_bits(), alpha.observe(now, avail).to_bits());
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases_from_env(256))]

    /// A `LocalBroker` report is the change log's answer plus one α
    /// observation of it.
    #[test]
    fn local_reports_read_the_log_and_feed_alpha(
        ops in prop::collection::vec(report_op_strategy(), 1..60),
    ) {
        let config = LocalBrokerConfig::default();
        let broker = LocalBroker::new(ResourceId(0), CAPACITY, SimTime::ZERO, config);
        check_reports(&broker, config.alpha_window, &ops)?;
    }

    /// A `NetworkBroker` report over 1–3 links is the route's minimum at
    /// the observation time plus one α observation of the path's own.
    #[test]
    fn path_reports_read_the_links_and_feed_alpha(
        capacities in prop::collection::vec(20.0f64..120.0, 1..4),
        ops in prop::collection::vec(report_op_strategy(), 1..60),
    ) {
        let links: Vec<Arc<LocalBroker>> = capacities
            .iter()
            .enumerate()
            .map(|(i, &cap)| Arc::new(LocalBroker::new(
                ResourceId(i as u32), cap, SimTime::ZERO, LocalBrokerConfig::default(),
            )))
            .collect();
        let path = NetworkBroker::new(ResourceId(99), links, 3.0);
        check_reports(&path, 3.0, &ops)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases_from_env(256))]

    /// LocalBroker against a reference ledger: availability is always
    /// capacity − Σledger, reservations never overcommit, and the change
    /// log reconstructs every past availability exactly.
    #[test]
    fn local_broker_conserves(ops in prop::collection::vec(op_strategy(), 1..60)) {
        let broker = LocalBroker::new(
            ResourceId(0),
            CAPACITY,
            SimTime::ZERO,
            LocalBrokerConfig { alpha_window: 3.0, log_horizon: 1.0e9 },
        );
        let mut model: HashMap<u8, f64> = HashMap::new();
        let mut trace: Vec<(f64, f64)> = vec![(0.0, CAPACITY)];
        let mut t = 0.0;
        for op in &ops {
            t += 1.0;
            let now = SimTime::new(t);
            match *op {
                Op::Reserve { session, amount } => {
                    let held: f64 = model.values().sum();
                    let result = broker.reserve(SessionId(session as u64), amount, now);
                    if amount <= CAPACITY - held + EPS {
                        prop_assert!(result.is_ok(), "rejected fitting reserve: {result:?}");
                        *model.entry(session).or_insert(0.0) += amount;
                        trace.push((t, CAPACITY - model.values().sum::<f64>()));
                    } else {
                        prop_assert!(result.is_err(), "accepted overcommit");
                    }
                }
                Op::Release { session } => {
                    let expected = model.remove(&session).unwrap_or(0.0);
                    let released = broker.release(SessionId(session as u64), now);
                    prop_assert!((released - expected).abs() < EPS);
                    if expected > 0.0 {
                        trace.push((t, CAPACITY - model.values().sum::<f64>()));
                    }
                }
                Op::ReleaseAmount { session, amount } => {
                    let held = model.get(&session).copied().unwrap_or(0.0);
                    let expected = amount.min(held);
                    let released =
                        broker.release_amount(SessionId(session as u64), amount, now);
                    prop_assert!((released - expected).abs() < EPS);
                    if expected > 0.0 {
                        let h = model.get_mut(&session).unwrap();
                        *h -= expected;
                        if *h <= EPS {
                            model.remove(&session);
                        }
                        trace.push((t, CAPACITY - model.values().sum::<f64>()));
                    }
                }
                Op::Report => {
                    let r = broker.report(now);
                    let expected = CAPACITY - model.values().sum::<f64>();
                    prop_assert!((r.avail - expected).abs() < 1e-6);
                    prop_assert!(r.alpha.is_finite() && r.alpha >= 0.0);
                }
            }
            // Core invariants after every op.
            let expected_avail = CAPACITY - model.values().sum::<f64>();
            prop_assert!((broker.available() - expected_avail).abs() < 1e-6);
            prop_assert!(broker.available() >= -EPS && broker.available() <= CAPACITY + EPS);
            for (&s, &held) in &model {
                prop_assert!((broker.reserved_for(SessionId(s as u64)) - held).abs() < 1e-6);
            }
        }
        // The change log replays history exactly at every recorded point
        // (query just after each change time).
        for window in trace.windows(2) {
            let (t0, avail0) = window[0];
            let t1 = window[1].0;
            let mid = SimTime::new((t0 + t1) / 2.0);
            prop_assert!((broker.available_at(mid) - avail0).abs() < 1e-6,
                "history mismatch at {mid}: {} vs {}", broker.available_at(mid), avail0);
        }
    }

    /// Atomic multi-resource reservation: after any failed reserve_all,
    /// every broker is exactly as before; after success, exactly the
    /// demand is held.
    #[test]
    fn registry_all_or_nothing(
        demands in prop::collection::vec((0u32..4, 1.0f64..80.0), 1..6),
        preload in prop::collection::vec((0u32..4, 1.0f64..60.0), 0..4),
    ) {
        let mut registry = BrokerRegistry::new();
        for i in 0..4u32 {
            registry.register(Arc::new(LocalBroker::new(
                ResourceId(i), CAPACITY, SimTime::ZERO, LocalBrokerConfig::default(),
            )));
        }
        // Preload some background sessions.
        for (i, (rid, amount)) in preload.iter().enumerate() {
            let _ = registry.get(ResourceId(*rid)).unwrap().reserve(
                SessionId(1000 + i as u64), *amount, SimTime::new(1.0));
        }
        let before: Vec<f64> = (0..4u32)
            .map(|i| registry.get(ResourceId(i)).unwrap().available())
            .collect();

        let demand = ResourceVector::from_pairs(
            demands.iter().map(|&(rid, a)| (ResourceId(rid), a))).unwrap();
        let session = SessionId(1);
        let fits = demand.iter().all(|(rid, a)| a <= before[rid.index()] + EPS);
        match registry.reserve_all(session, &demand, SimTime::new(2.0)) {
            Ok(()) => {
                prop_assert!(fits, "accepted a demand that did not fit");
                for i in 0..4u32 {
                    let b = registry.get(ResourceId(i)).unwrap();
                    let expect = before[i as usize] - demand.get(ResourceId(i));
                    prop_assert!((b.available() - expect).abs() < 1e-6);
                }
                registry.release_all(session, SimTime::new(3.0));
            }
            Err(_) => {
                prop_assert!(!fits, "rejected a fitting demand");
            }
        }
        // Either way: exactly the pre-state remains.
        for i in 0..4u32 {
            let b = registry.get(ResourceId(i)).unwrap();
            prop_assert!((b.available() - before[i as usize]).abs() < 1e-6);
        }
    }

    /// The two-level network broker: path availability is always the
    /// min over links; a reservation holds the same amount on every
    /// link; failure leaves all links untouched.
    #[test]
    fn network_broker_two_level(
        capacities in prop::collection::vec(20.0f64..120.0, 1..5),
        amounts in prop::collection::vec(1.0f64..100.0, 1..8),
    ) {
        let links: Vec<Arc<LocalBroker>> = capacities
            .iter()
            .enumerate()
            .map(|(i, &cap)| Arc::new(LocalBroker::new(
                ResourceId(i as u32), cap, SimTime::ZERO, LocalBrokerConfig::default(),
            )))
            .collect();
        let path = NetworkBroker::new(ResourceId(99), links.clone(), 3.0);
        let mut held: Vec<(SessionId, f64)> = Vec::new();
        let mut t = 0.0;
        for (i, &amount) in amounts.iter().enumerate() {
            t += 1.0;
            let session = SessionId(i as u64);
            let min_avail = links.iter().map(|l| l.available()).fold(f64::INFINITY, f64::min);
            prop_assert!((path.available() - min_avail).abs() < 1e-9);
            let before: Vec<f64> = links.iter().map(|l| l.available()).collect();
            match path.reserve(session, amount, SimTime::new(t)) {
                Ok(()) => {
                    prop_assert!(amount <= min_avail + EPS);
                    for (l, b) in links.iter().zip(&before) {
                        prop_assert!((l.available() - (b - amount)).abs() < 1e-9);
                    }
                    held.push((session, amount));
                }
                Err(_) => {
                    prop_assert!(amount > min_avail - EPS);
                    for (l, b) in links.iter().zip(&before) {
                        prop_assert!((l.available() - b).abs() < 1e-9, "failed reserve disturbed a link");
                    }
                }
            }
        }
        // Tear down everything; links must return to full capacity.
        for (session, amount) in held {
            t += 1.0;
            prop_assert!((path.release(session, SimTime::new(t)) - amount).abs() < 1e-9);
        }
        for (l, &cap) in links.iter().zip(&capacities) {
            prop_assert!((l.available() - cap).abs() < 1e-9);
        }
    }
}
