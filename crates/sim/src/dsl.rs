//! The scenario DSL: declarative, serde-loadable simulation scenarios.
//!
//! A [`ScenarioFile`] (conventionally `*.scenario.json`; see the curated
//! library under `scenarios/`) describes one simulation run as **data**:
//! a partial [`ScenarioConfig`] patch plus a list of [`Rule`]s, each
//! pairing one [`Trigger`] (*when*) with a list of
//! [`EventSpec`]s (*what*). At run time the rules are compiled into the
//! discrete-event engine's own stream — timed triggers become scheduled
//! [`Event::ScenarioRule`](crate::Event) firings, condition triggers
//! become periodic [`Event::ScenarioPoll`](crate::Event) evaluations
//! with crossing hysteresis — so every firing is totally ordered against
//! arrivals and departures, replayable through the `qosr-obs` trace
//! layer (`EventKind::ScenarioTrigger`), and deterministic under the
//! scenario seed.
//!
//! # Loading and running a scenario file
//!
//! ```
//! use qosr_sim::{run_scenario, ScenarioFile};
//!
//! let file = ScenarioFile::from_json(
//!     r#"{
//!         "name": "mini-flash",
//!         "description": "one mid-run arrival burst",
//!         "config": { "horizon": 300.0, "rate_per_60tu": 60.0 },
//!         "rules": [
//!             { "name": "burst",
//!               "trigger": { "at": 100.0 },
//!               "events": [ { "flash_crowd": { "sessions": 40, "over": 10.0 } } ] }
//!         ]
//!     }"#,
//! )
//! .unwrap();
//! file.validate().unwrap();
//! let result = run_scenario(&file.to_config());
//! assert_eq!(result.metrics.scenario_triggers, 1);
//! assert_eq!(result.metrics.burst_arrivals, 40);
//! ```
//!
//! # Determinism and seeding
//!
//! Rules draw nothing from the RNG themselves (only `shift_weights` and
//! the extra arrivals they inject consume the scenario stream, exactly
//! as organic events would), so a file replays bit-identically under a
//! fixed `config.seed`: same metrics, same trace. See SCENARIOS.md for
//! the full reference and per-scenario examples.

use crate::fault::{FaultPlan, HostCrash};
use crate::scenario::{BatchArrivals, PlannerKind, PsiKind, ScenarioConfig, TopologyKind};
use serde::{DeError, Deserialize, Serialize, Value};
use std::fmt;
use std::path::{Path, PathBuf};

/// Default evaluation period (TU) for condition triggers that leave
/// `poll` unset.
pub const DEFAULT_POLL: f64 = 5.0;

/// When a scenario rule fires.
///
/// JSON encoding is a single-key object naming the trigger kind:
/// `{"at": 600.0}`, `{"every": {"period": 300.0}}`,
/// `{"utilization_above": {"threshold": 0.7}}`,
/// `{"sessions_above": {"count": 150}}`.
#[derive(Debug, Clone, PartialEq)]
pub enum Trigger {
    /// Fire once at an absolute simulated time (TU).
    At(f64),
    /// Fire periodically: first at `start` (default: one `period` in),
    /// then every `period` TU until `until` (default: the horizon).
    Every {
        /// Period between firings (TU).
        period: f64,
        /// First firing time (TU); defaults to `period`.
        start: Option<f64>,
        /// No firing is scheduled after this time (TU).
        until: Option<f64>,
    },
    /// Fire when measured utilization crosses `threshold` upward. The
    /// predicate is re-evaluated every `poll` TU ([`DEFAULT_POLL`] when
    /// unset) and re-arms once utilization drops back below the
    /// threshold, so a sustained overload fires once, not once per poll.
    UtilizationAbove {
        /// Utilization threshold in `[0, 1]` (reserved / capacity).
        threshold: f64,
        /// A physical resource name (`"H1.cpu"`, `"L3"`); unset = the
        /// mean over every host CPU and link.
        resource: Option<String>,
        /// Evaluation period (TU); defaults to [`DEFAULT_POLL`].
        poll: Option<f64>,
    },
    /// Fire when the live-session count crosses `count` upward, with the
    /// same poll-and-re-arm semantics as [`Trigger::UtilizationAbove`].
    SessionsAbove {
        /// The session-count threshold (fires strictly above it).
        count: u64,
        /// Evaluation period (TU); defaults to [`DEFAULT_POLL`].
        poll: Option<f64>,
    },
}

impl Trigger {
    /// The trigger kind's JSON key, for labels and error messages.
    pub fn kind(&self) -> &'static str {
        match self {
            Trigger::At(_) => "at",
            Trigger::Every { .. } => "every",
            Trigger::UtilizationAbove { .. } => "utilization_above",
            Trigger::SessionsAbove { .. } => "sessions_above",
        }
    }
}

/// What a firing rule does to the run.
///
/// JSON encoding mirrors [`Trigger`]: a single-key object naming the
/// event kind, e.g. `{"flash_crowd": {"sessions": 120, "over": 30.0}}`;
/// the payload-free `shift_weights` may also be written as the bare
/// string `"shift_weights"`.
#[derive(Debug, Clone, PartialEq)]
pub enum EventSpec {
    /// Inject `sessions` extra arrivals, evenly spread over the next
    /// `over` TU — a flash crowd on top of the Poisson process.
    FlashCrowd {
        /// Number of extra arrivals.
        sessions: u32,
        /// Window (TU) the burst is spread over; 0 = all at once.
        over: f64,
    },
    /// Crash a host (0-based index; host `h` is `H{h+1}`): its brokers
    /// stop answering and live sessions holding reservations there are
    /// lost. With `down_for` set the host recovers that many TU later.
    CrashHost {
        /// Host index to crash.
        host: usize,
        /// Recovery delay (TU) after the crash; unset = down for good.
        down_for: Option<f64>,
    },
    /// Recover a crashed host immediately.
    RecoverHost {
        /// Host index to recover.
        host: usize,
    },
    /// Resize effective capacity to `factor` × nominal by draining (or
    /// restoring) an administrative reservation on the targeted brokers.
    /// `factor` 1.0 restores full capacity; 0.5 halves it. Applies to
    /// one named physical resource or, unset, to every host CPU and
    /// link.
    ResizeCapacity {
        /// Fraction of nominal capacity left usable, in `(0, 1]`.
        factor: f64,
        /// A physical resource name (`"H1.cpu"`, `"L3"`); unset = all.
        resource: Option<String>,
    },
    /// Multiply every *subsequent* request's resource demand by
    /// `demand_scale` (absolute, not cumulative: the last shift wins).
    QosShift {
        /// The demand multiplier applied on top of the fat/normal scale.
        demand_scale: f64,
    },
    /// Set the arrival rate to an absolute value (sessions per 60 TU).
    SetRate {
        /// The new rate.
        per_60tu: f64,
    },
    /// Multiply the current arrival rate.
    ScaleRate {
        /// The multiplier (0.5 halves the rate, 2.0 doubles it).
        factor: f64,
    },
    /// Install a diurnal arrival-rate curve: from now on the rate tracks
    /// `base · (1 + amplitude · sin(2π · t / period))`, where `base` is
    /// the rate in force when the event fires (later `set_rate` /
    /// `scale_rate` events move the base).
    Diurnal {
        /// Full day length (TU).
        period: f64,
        /// Relative swing in `[0, 1)`; 0.5 swings between 0.5× and 1.5×.
        amplitude: f64,
    },
    /// Switch session durations to a bounded Pareto tail (see
    /// [`DurationModel::BoundedPareto`](crate::DurationModel)).
    HeavyTail {
        /// Tail index α (> 0; smaller = heavier tail).
        alpha: f64,
        /// Minimum duration (TU); defaults to the paper's 20.
        min: Option<f64>,
        /// Duration cap (TU); defaults to the paper's 600.
        cap: Option<f64>,
    },
    /// Redraw the per-service popularity weights immediately (on top of
    /// the periodic `prob_shift_period` reshuffles).
    ShiftWeights,
    /// Submit a malleable advance reservation: move `volume` units over
    /// a network link before a deadline `within` TU after the firing
    /// time. The advance planner picks start, duration, and rate
    /// profile around existing bookings (see DESIGN.md, "Advance
    /// reservations & malleable planning").
    BulkTransfer {
        /// Total volume to move (rate × TU).
        volume: f64,
        /// Relative deadline: the transfer must finish within this many
        /// TU of the rule firing.
        within: f64,
        /// A physical link name (`"L3"`); unset = the first link.
        resource: Option<String>,
        /// Minimum usable rate; thinner availability steps are paused
        /// through rather than trickled.
        min_rate: Option<f64>,
        /// Rate ceiling (e.g. a NIC line rate).
        max_rate: Option<f64>,
    },
}

impl EventSpec {
    /// The event kind's JSON key, for labels and error messages.
    pub fn kind(&self) -> &'static str {
        match self {
            EventSpec::FlashCrowd { .. } => "flash_crowd",
            EventSpec::CrashHost { .. } => "crash_host",
            EventSpec::RecoverHost { .. } => "recover_host",
            EventSpec::ResizeCapacity { .. } => "resize_capacity",
            EventSpec::QosShift { .. } => "qos_shift",
            EventSpec::SetRate { .. } => "set_rate",
            EventSpec::ScaleRate { .. } => "scale_rate",
            EventSpec::Diurnal { .. } => "diurnal",
            EventSpec::HeavyTail { .. } => "heavy_tail",
            EventSpec::ShiftWeights => "shift_weights",
            EventSpec::BulkTransfer { .. } => "bulk_transfer",
        }
    }
}

/// One scenario rule: a [`Trigger`] plus the [`EventSpec`]s it applies.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Rule {
    /// Display label for traces and reports; defaults to `rule<index>`.
    #[serde(default)]
    pub name: String,
    /// When the rule fires.
    pub trigger: Trigger,
    /// What happens, applied in order.
    pub events: Vec<EventSpec>,
    /// Fire at most once, even for periodic or re-arming triggers.
    #[serde(default)]
    pub once: bool,
}

impl Rule {
    /// The rule's display label: its `name`, or `rule<index>` when
    /// unnamed.
    pub fn label(&self, index: usize) -> String {
        if self.name.is_empty() {
            format!("rule{index}")
        } else {
            self.name.clone()
        }
    }
}

// ─── Hand-written serde for the tagged enums ──────────────────────────
//
// The vendored serde derive covers named structs and unit enums only, so
// `Trigger` / `EventSpec` (single-key externally tagged objects) map to
// and from the `Value` tree by hand, with small derived helper structs
// carrying each variant's payload.

#[derive(Serialize, Deserialize)]
struct EveryDef {
    period: f64,
    #[serde(default)]
    start: Option<f64>,
    #[serde(default)]
    until: Option<f64>,
}

#[derive(Serialize, Deserialize)]
struct UtilizationAboveDef {
    threshold: f64,
    #[serde(default)]
    resource: Option<String>,
    #[serde(default)]
    poll: Option<f64>,
}

#[derive(Serialize, Deserialize)]
struct SessionsAboveDef {
    count: u64,
    #[serde(default)]
    poll: Option<f64>,
}

#[derive(Serialize, Deserialize)]
struct FlashCrowdDef {
    sessions: u32,
    over: f64,
}

#[derive(Serialize, Deserialize)]
struct CrashHostDef {
    host: usize,
    #[serde(default)]
    down_for: Option<f64>,
}

#[derive(Serialize, Deserialize)]
struct RecoverHostDef {
    host: usize,
}

#[derive(Serialize, Deserialize)]
struct ResizeCapacityDef {
    factor: f64,
    #[serde(default)]
    resource: Option<String>,
}

#[derive(Serialize, Deserialize)]
struct QosShiftDef {
    demand_scale: f64,
}

#[derive(Serialize, Deserialize)]
struct SetRateDef {
    per_60tu: f64,
}

#[derive(Serialize, Deserialize)]
struct ScaleRateDef {
    factor: f64,
}

#[derive(Serialize, Deserialize)]
struct DiurnalDef {
    period: f64,
    amplitude: f64,
}

#[derive(Serialize, Deserialize)]
struct BulkTransferDef {
    volume: f64,
    within: f64,
    #[serde(default)]
    resource: Option<String>,
    #[serde(default)]
    min_rate: Option<f64>,
    #[serde(default)]
    max_rate: Option<f64>,
}

#[derive(Serialize, Deserialize)]
struct HeavyTailDef {
    alpha: f64,
    #[serde(default)]
    min: Option<f64>,
    #[serde(default)]
    cap: Option<f64>,
}

fn tagged(key: &str, body: Value) -> Value {
    Value::Object(vec![(key.to_owned(), body)])
}

fn untag<'a>(v: &'a Value, what: &str, known: &str) -> Result<(&'a str, &'a Value), DeError> {
    let fields = v
        .as_object()
        .ok_or_else(|| DeError::custom(format!("expected a {what} object, got {}", v.kind())))?;
    if fields.len() != 1 {
        return Err(DeError::custom(format!(
            "a {what} must be a single-key object naming its kind (one of {known}), got {} keys",
            fields.len()
        )));
    }
    let (key, body) = &fields[0];
    Ok((key.as_str(), body))
}

const TRIGGER_KINDS: &str = "at, every, utilization_above, sessions_above";
const EVENT_KINDS: &str = "flash_crowd, crash_host, recover_host, resize_capacity, qos_shift, \
                           set_rate, scale_rate, diurnal, heavy_tail, shift_weights, \
                           bulk_transfer";

impl Serialize for Trigger {
    fn to_value(&self) -> Value {
        match self {
            Trigger::At(t) => tagged("at", t.to_value()),
            Trigger::Every {
                period,
                start,
                until,
            } => tagged(
                "every",
                EveryDef {
                    period: *period,
                    start: *start,
                    until: *until,
                }
                .to_value(),
            ),
            Trigger::UtilizationAbove {
                threshold,
                resource,
                poll,
            } => tagged(
                "utilization_above",
                UtilizationAboveDef {
                    threshold: *threshold,
                    resource: resource.clone(),
                    poll: *poll,
                }
                .to_value(),
            ),
            Trigger::SessionsAbove { count, poll } => tagged(
                "sessions_above",
                SessionsAboveDef {
                    count: *count,
                    poll: *poll,
                }
                .to_value(),
            ),
        }
    }
}

impl Deserialize for Trigger {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let (key, body) = untag(v, "trigger", TRIGGER_KINDS)?;
        let in_key = |e: DeError| e.in_field(key);
        match key {
            "at" => Ok(Trigger::At(f64::from_value(body).map_err(in_key)?)),
            "every" => {
                let d = EveryDef::from_value(body).map_err(in_key)?;
                Ok(Trigger::Every {
                    period: d.period,
                    start: d.start,
                    until: d.until,
                })
            }
            "utilization_above" => {
                let d = UtilizationAboveDef::from_value(body).map_err(in_key)?;
                Ok(Trigger::UtilizationAbove {
                    threshold: d.threshold,
                    resource: d.resource,
                    poll: d.poll,
                })
            }
            "sessions_above" => {
                let d = SessionsAboveDef::from_value(body).map_err(in_key)?;
                Ok(Trigger::SessionsAbove {
                    count: d.count,
                    poll: d.poll,
                })
            }
            other => Err(DeError::custom(format!(
                "unknown trigger `{other}` (expected one of {TRIGGER_KINDS})"
            ))),
        }
    }
}

impl Serialize for EventSpec {
    fn to_value(&self) -> Value {
        match self {
            EventSpec::FlashCrowd { sessions, over } => tagged(
                "flash_crowd",
                FlashCrowdDef {
                    sessions: *sessions,
                    over: *over,
                }
                .to_value(),
            ),
            EventSpec::CrashHost { host, down_for } => tagged(
                "crash_host",
                CrashHostDef {
                    host: *host,
                    down_for: *down_for,
                }
                .to_value(),
            ),
            EventSpec::RecoverHost { host } => {
                tagged("recover_host", RecoverHostDef { host: *host }.to_value())
            }
            EventSpec::ResizeCapacity { factor, resource } => tagged(
                "resize_capacity",
                ResizeCapacityDef {
                    factor: *factor,
                    resource: resource.clone(),
                }
                .to_value(),
            ),
            EventSpec::QosShift { demand_scale } => tagged(
                "qos_shift",
                QosShiftDef {
                    demand_scale: *demand_scale,
                }
                .to_value(),
            ),
            EventSpec::SetRate { per_60tu } => tagged(
                "set_rate",
                SetRateDef {
                    per_60tu: *per_60tu,
                }
                .to_value(),
            ),
            EventSpec::ScaleRate { factor } => {
                tagged("scale_rate", ScaleRateDef { factor: *factor }.to_value())
            }
            EventSpec::Diurnal { period, amplitude } => tagged(
                "diurnal",
                DiurnalDef {
                    period: *period,
                    amplitude: *amplitude,
                }
                .to_value(),
            ),
            EventSpec::HeavyTail { alpha, min, cap } => tagged(
                "heavy_tail",
                HeavyTailDef {
                    alpha: *alpha,
                    min: *min,
                    cap: *cap,
                }
                .to_value(),
            ),
            EventSpec::ShiftWeights => Value::Str("shift_weights".to_owned()),
            EventSpec::BulkTransfer {
                volume,
                within,
                resource,
                min_rate,
                max_rate,
            } => tagged(
                "bulk_transfer",
                BulkTransferDef {
                    volume: *volume,
                    within: *within,
                    resource: resource.clone(),
                    min_rate: *min_rate,
                    max_rate: *max_rate,
                }
                .to_value(),
            ),
        }
    }
}

impl Deserialize for EventSpec {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        // The payload-free event may be written as a bare string.
        if let Some(s) = v.as_str() {
            return match s {
                "shift_weights" => Ok(EventSpec::ShiftWeights),
                other => Err(DeError::custom(format!(
                    "unknown event `{other}` (expected one of {EVENT_KINDS})"
                ))),
            };
        }
        let (key, body) = untag(v, "event", EVENT_KINDS)?;
        let in_key = |e: DeError| e.in_field(key);
        match key {
            "flash_crowd" => {
                let d = FlashCrowdDef::from_value(body).map_err(in_key)?;
                Ok(EventSpec::FlashCrowd {
                    sessions: d.sessions,
                    over: d.over,
                })
            }
            "crash_host" => {
                let d = CrashHostDef::from_value(body).map_err(in_key)?;
                Ok(EventSpec::CrashHost {
                    host: d.host,
                    down_for: d.down_for,
                })
            }
            "recover_host" => {
                let d = RecoverHostDef::from_value(body).map_err(in_key)?;
                Ok(EventSpec::RecoverHost { host: d.host })
            }
            "resize_capacity" => {
                let d = ResizeCapacityDef::from_value(body).map_err(in_key)?;
                Ok(EventSpec::ResizeCapacity {
                    factor: d.factor,
                    resource: d.resource,
                })
            }
            "qos_shift" => {
                let d = QosShiftDef::from_value(body).map_err(in_key)?;
                Ok(EventSpec::QosShift {
                    demand_scale: d.demand_scale,
                })
            }
            "set_rate" => {
                let d = SetRateDef::from_value(body).map_err(in_key)?;
                Ok(EventSpec::SetRate {
                    per_60tu: d.per_60tu,
                })
            }
            "scale_rate" => {
                let d = ScaleRateDef::from_value(body).map_err(in_key)?;
                Ok(EventSpec::ScaleRate { factor: d.factor })
            }
            "diurnal" => {
                let d = DiurnalDef::from_value(body).map_err(in_key)?;
                Ok(EventSpec::Diurnal {
                    period: d.period,
                    amplitude: d.amplitude,
                })
            }
            "heavy_tail" => {
                let d = HeavyTailDef::from_value(body).map_err(in_key)?;
                Ok(EventSpec::HeavyTail {
                    alpha: d.alpha,
                    min: d.min,
                    cap: d.cap,
                })
            }
            "bulk_transfer" => {
                let d = BulkTransferDef::from_value(body).map_err(in_key)?;
                Ok(EventSpec::BulkTransfer {
                    volume: d.volume,
                    within: d.within,
                    resource: d.resource,
                    min_rate: d.min_rate,
                    max_rate: d.max_rate,
                })
            }
            "shift_weights" => {
                // Tolerate `{"shift_weights": {}}` for symmetry.
                match body.as_object() {
                    Some([]) => Ok(EventSpec::ShiftWeights),
                    _ => Err(DeError::custom(
                        "`shift_weights` takes no payload (write it as a string or `{}`)",
                    )),
                }
            }
            other => Err(DeError::custom(format!(
                "unknown event `{other}` (expected one of {EVENT_KINDS})"
            ))),
        }
    }
}

// ─── The file format ──────────────────────────────────────────────────

/// A partial [`ScenarioConfig`]: only the fields present in the file
/// override the defaults, so a scenario names just what it cares about.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ConfigPatch {
    /// Overrides [`ScenarioConfig::seed`].
    #[serde(default)]
    pub seed: Option<u64>,
    /// Overrides [`ScenarioConfig::rate_per_60tu`].
    #[serde(default)]
    pub rate_per_60tu: Option<f64>,
    /// Overrides [`ScenarioConfig::horizon`].
    #[serde(default)]
    pub horizon: Option<f64>,
    /// Overrides [`ScenarioConfig::planner`].
    #[serde(default)]
    pub planner: Option<PlannerKind>,
    /// Overrides [`ScenarioConfig::staleness`].
    #[serde(default)]
    pub staleness: Option<f64>,
    /// Overrides [`ScenarioConfig::diversity_ratio`].
    #[serde(default)]
    pub diversity_ratio: Option<f64>,
    /// Overrides [`ScenarioConfig::requirement_scale`].
    #[serde(default)]
    pub requirement_scale: Option<f64>,
    /// Overrides [`ScenarioConfig::capacity_range`].
    #[serde(default)]
    pub capacity_range: Option<(f64, f64)>,
    /// Overrides [`ScenarioConfig::prob_shift_period`].
    #[serde(default)]
    pub prob_shift_period: Option<f64>,
    /// Overrides [`ScenarioConfig::alpha_window`].
    #[serde(default)]
    pub alpha_window: Option<f64>,
    /// Overrides [`ScenarioConfig::psi`].
    #[serde(default)]
    pub psi: Option<PsiKind>,
    /// Overrides [`ScenarioConfig::disable_tie_break`].
    #[serde(default)]
    pub disable_tie_break: Option<bool>,
    /// Overrides [`ScenarioConfig::topology`].
    #[serde(default)]
    pub topology: Option<TopologyKind>,
    /// Overrides [`ScenarioConfig::upgrade_period`].
    #[serde(default)]
    pub upgrade_period: Option<f64>,
    /// Overrides [`ScenarioConfig::sample_period`].
    #[serde(default)]
    pub sample_period: Option<f64>,
    /// Patches [`ScenarioConfig::faults`] field by field.
    #[serde(default)]
    pub faults: Option<FaultPatch>,
    /// Overrides [`ScenarioConfig::batch_arrivals`].
    #[serde(default)]
    pub batch_arrivals: Option<BatchArrivals>,
}

impl ConfigPatch {
    /// Applies the patch over `base`, returning the merged config.
    pub fn apply(&self, base: ScenarioConfig) -> ScenarioConfig {
        let mut cfg = base;
        if let Some(v) = self.seed {
            cfg.seed = v;
        }
        if let Some(v) = self.rate_per_60tu {
            cfg.rate_per_60tu = v;
        }
        if let Some(v) = self.horizon {
            cfg.horizon = v;
        }
        if let Some(v) = self.planner {
            cfg.planner = v;
        }
        if let Some(v) = self.staleness {
            cfg.staleness = v;
        }
        if let Some(v) = self.diversity_ratio {
            cfg.diversity_ratio = Some(v);
        }
        if let Some(v) = self.requirement_scale {
            cfg.requirement_scale = v;
        }
        if let Some(v) = self.capacity_range {
            cfg.capacity_range = v;
        }
        if let Some(v) = self.prob_shift_period {
            cfg.prob_shift_period = v;
        }
        if let Some(v) = self.alpha_window {
            cfg.alpha_window = v;
        }
        if let Some(v) = self.psi {
            cfg.psi = v;
        }
        if let Some(v) = self.disable_tie_break {
            cfg.disable_tie_break = v;
        }
        if let Some(v) = self.topology {
            cfg.topology = v;
        }
        if let Some(v) = self.upgrade_period {
            cfg.upgrade_period = Some(v);
        }
        if let Some(v) = self.sample_period {
            cfg.sample_period = Some(v);
        }
        if let Some(f) = &self.faults {
            cfg.faults = f.apply(cfg.faults);
        }
        if let Some(v) = self.batch_arrivals {
            cfg.batch_arrivals = Some(v);
        }
        cfg
    }
}

/// A partial [`FaultPlan`], merged over the defaults like
/// [`ConfigPatch`].
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct FaultPatch {
    /// Overrides [`FaultPlan::seed`].
    #[serde(default)]
    pub seed: Option<u64>,
    /// Overrides [`FaultPlan::crashes`].
    #[serde(default)]
    pub crashes: Option<Vec<HostCrash>>,
    /// Overrides [`FaultPlan::drop_probability`].
    #[serde(default)]
    pub drop_probability: Option<f64>,
    /// Overrides [`FaultPlan::commit_failure_probability`].
    #[serde(default)]
    pub commit_failure_probability: Option<f64>,
    /// Overrides [`FaultPlan::max_retries`].
    #[serde(default)]
    pub max_retries: Option<u32>,
    /// Overrides [`FaultPlan::backoff_base`].
    #[serde(default)]
    pub backoff_base: Option<f64>,
    /// Overrides [`FaultPlan::tradeoff_fallback`].
    #[serde(default)]
    pub tradeoff_fallback: Option<bool>,
}

impl FaultPatch {
    /// Applies the patch over `base`, returning the merged plan.
    pub fn apply(&self, base: FaultPlan) -> FaultPlan {
        let mut plan = base;
        if let Some(v) = self.seed {
            plan.seed = v;
        }
        if let Some(v) = &self.crashes {
            plan.crashes = v.clone();
        }
        if let Some(v) = self.drop_probability {
            plan.drop_probability = v;
        }
        if let Some(v) = self.commit_failure_probability {
            plan.commit_failure_probability = v;
        }
        if let Some(v) = self.max_retries {
            plan.max_retries = v;
        }
        if let Some(v) = self.backoff_base {
            plan.backoff_base = v;
        }
        if let Some(v) = self.tradeoff_fallback {
            plan.tradeoff_fallback = v;
        }
        plan
    }
}

/// One `*.scenario.json` file: a named, documented simulation scenario.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioFile {
    /// Scenario name (shown by `qosr run --list` and in reports).
    pub name: String,
    /// One-line description of what the scenario exercises.
    #[serde(default)]
    pub description: String,
    /// Partial base-config overrides.
    #[serde(default)]
    pub config: ConfigPatch,
    /// The trigger/event rules.
    #[serde(default)]
    pub rules: Vec<Rule>,
}

/// Why a scenario file could not be loaded or is not runnable.
#[derive(Debug)]
pub enum DslError {
    /// The file could not be read.
    Io(std::io::Error),
    /// The file is not valid scenario JSON.
    Parse(String),
    /// The scenario parsed but fails validation; one message per
    /// problem.
    Invalid(Vec<String>),
}

impl fmt::Display for DslError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DslError::Io(e) => write!(f, "I/O error: {e}"),
            DslError::Parse(msg) => write!(f, "parse error: {msg}"),
            DslError::Invalid(msgs) => write!(f, "invalid scenario: {}", msgs.join("; ")),
        }
    }
}

impl std::error::Error for DslError {}

impl ScenarioFile {
    /// Parses a scenario from its JSON text.
    pub fn from_json(json: &str) -> Result<Self, DslError> {
        serde_json::from_str(json).map_err(|e| DslError::Parse(e.to_string()))
    }

    /// Loads and parses a scenario file.
    pub fn load(path: impl AsRef<Path>) -> Result<Self, DslError> {
        let text = std::fs::read_to_string(path.as_ref()).map_err(DslError::Io)?;
        Self::from_json(&text)
            .map_err(|e| DslError::Parse(format!("{}: {e}", path.as_ref().display())))
    }

    /// Loads every `*.scenario.json` under `dir`, sorted by file name.
    pub fn load_dir(dir: impl AsRef<Path>) -> Result<Vec<(PathBuf, ScenarioFile)>, DslError> {
        let mut paths: Vec<PathBuf> = std::fs::read_dir(dir.as_ref())
            .map_err(DslError::Io)?
            .filter_map(|entry| entry.ok().map(|e| e.path()))
            .filter(|p| {
                p.file_name()
                    .and_then(|n| n.to_str())
                    .is_some_and(|n| n.ends_with(".scenario.json"))
            })
            .collect();
        paths.sort();
        paths
            .into_iter()
            .map(|p| ScenarioFile::load(&p).map(|f| (p, f)))
            .collect()
    }

    /// Structural validation: every parameter in range, every rule
    /// well-formed. Collects *all* problems rather than stopping at the
    /// first.
    pub fn validate(&self) -> Result<(), DslError> {
        let mut problems = Vec::new();
        if self.name.trim().is_empty() {
            problems.push("scenario name must not be empty".to_owned());
        }
        let c = &self.config;
        let mut check = |ok: bool, msg: String| {
            if !ok {
                problems.push(msg);
            }
        };
        if let Some(v) = c.rate_per_60tu {
            check(
                v > 0.0,
                format!("config.rate_per_60tu must be > 0, got {v}"),
            );
        }
        if let Some(v) = c.horizon {
            check(v > 0.0, format!("config.horizon must be > 0, got {v}"));
        }
        if let Some(v) = c.staleness {
            check(v >= 0.0, format!("config.staleness must be >= 0, got {v}"));
        }
        if let Some(v) = c.requirement_scale {
            check(
                v > 0.0,
                format!("config.requirement_scale must be > 0, got {v}"),
            );
        }
        if let Some((lo, hi)) = c.capacity_range {
            check(
                lo > 0.0 && hi >= lo,
                format!("config.capacity_range must satisfy 0 < lo <= hi, got ({lo}, {hi})"),
            );
        }
        if let Some(v) = c.alpha_window {
            check(v > 0.0, format!("config.alpha_window must be > 0, got {v}"));
        }
        if let Some(v) = c.upgrade_period {
            check(
                v > 0.0,
                format!("config.upgrade_period must be > 0, got {v}"),
            );
        }
        if let Some(v) = c.sample_period {
            check(
                v > 0.0,
                format!("config.sample_period must be > 0, got {v}"),
            );
        }
        if let Some(b) = c.batch_arrivals {
            check(
                b.size >= 1,
                "config.batch_arrivals.size must be >= 1".to_owned(),
            );
        }
        problems.extend(validate_rules(&self.rules));
        if problems.is_empty() {
            Ok(())
        } else {
            Err(DslError::Invalid(problems))
        }
    }

    /// The runnable [`ScenarioConfig`]: the patch applied over the
    /// defaults, with the rules attached.
    pub fn to_config(&self) -> ScenarioConfig {
        let mut cfg = self.config.apply(ScenarioConfig::default());
        cfg.rules = self.rules.clone();
        cfg
    }
}

/// Validates a rule list; returns one message per problem. Shared by
/// [`ScenarioFile::validate`] and the simulation loop's own assertions.
pub(crate) fn validate_rules(rules: &[Rule]) -> Vec<String> {
    let mut problems = Vec::new();
    for (i, rule) in rules.iter().enumerate() {
        let label = rule.label(i);
        let mut check = |ok: bool, msg: String| {
            if !ok {
                problems.push(format!("rule `{label}`: {msg}"));
            }
        };
        if rule.events.is_empty() {
            check(false, "must apply at least one event".to_owned());
        }
        match &rule.trigger {
            Trigger::At(t) => check(
                t.is_finite() && *t >= 0.0,
                format!("trigger time must be >= 0, got {t}"),
            ),
            Trigger::Every {
                period,
                start,
                until,
            } => {
                check(*period > 0.0, format!("period must be > 0, got {period}"));
                if let Some(s) = start {
                    check(*s >= 0.0, format!("start must be >= 0, got {s}"));
                }
                if let (Some(s), Some(u)) = (start, until) {
                    check(u > s, format!("until ({u}) must be after start ({s})"));
                }
            }
            Trigger::UtilizationAbove {
                threshold, poll, ..
            } => {
                check(
                    (0.0..=1.0).contains(threshold),
                    format!("threshold must be in [0, 1], got {threshold}"),
                );
                if let Some(p) = poll {
                    check(*p > 0.0, format!("poll must be > 0, got {p}"));
                }
            }
            Trigger::SessionsAbove { poll, .. } => {
                if let Some(p) = poll {
                    check(*p > 0.0, format!("poll must be > 0, got {p}"));
                }
            }
        }
        for event in &rule.events {
            match event {
                EventSpec::FlashCrowd { sessions, over } => {
                    check(*sessions > 0, "flash_crowd needs sessions >= 1".to_owned());
                    check(
                        over.is_finite() && *over >= 0.0,
                        format!("flash_crowd window must be >= 0, got {over}"),
                    );
                }
                EventSpec::CrashHost { host, down_for } => {
                    check(
                        *host < crate::env::N_HOSTS,
                        format!(
                            "host {host} out of range (environment has {} hosts)",
                            crate::env::N_HOSTS
                        ),
                    );
                    if let Some(d) = down_for {
                        check(*d > 0.0, format!("down_for must be > 0, got {d}"));
                    }
                }
                EventSpec::RecoverHost { host } => check(
                    *host < crate::env::N_HOSTS,
                    format!(
                        "host {host} out of range (environment has {} hosts)",
                        crate::env::N_HOSTS
                    ),
                ),
                EventSpec::ResizeCapacity { factor, .. } => check(
                    *factor > 0.0 && *factor <= 1.0,
                    format!("resize factor must be in (0, 1], got {factor}"),
                ),
                EventSpec::QosShift { demand_scale } => check(
                    *demand_scale > 0.0,
                    format!("demand_scale must be > 0, got {demand_scale}"),
                ),
                EventSpec::SetRate { per_60tu } => check(
                    *per_60tu > 0.0,
                    format!("set_rate needs a positive rate, got {per_60tu}"),
                ),
                EventSpec::ScaleRate { factor } => check(
                    *factor > 0.0,
                    format!("scale_rate factor must be > 0, got {factor}"),
                ),
                EventSpec::Diurnal { period, amplitude } => {
                    check(
                        *period > 0.0,
                        format!("diurnal period must be > 0, got {period}"),
                    );
                    check(
                        (0.0..1.0).contains(amplitude),
                        format!("diurnal amplitude must be in [0, 1), got {amplitude}"),
                    );
                }
                EventSpec::HeavyTail { alpha, min, cap } => {
                    check(
                        *alpha > 0.0,
                        format!("heavy_tail alpha must be > 0, got {alpha}"),
                    );
                    let min = min.unwrap_or(crate::workload::MIN_DURATION);
                    let cap = cap.unwrap_or(crate::workload::MAX_DURATION);
                    check(
                        min > 0.0 && cap > min,
                        format!("heavy_tail needs 0 < min < cap, got min {min}, cap {cap}"),
                    );
                }
                EventSpec::ShiftWeights => {}
                EventSpec::BulkTransfer {
                    volume,
                    within,
                    min_rate,
                    max_rate,
                    ..
                } => {
                    check(
                        volume.is_finite() && *volume > 0.0,
                        format!("bulk_transfer volume must be > 0, got {volume}"),
                    );
                    check(
                        within.is_finite() && *within > 0.0,
                        format!("bulk_transfer deadline (within) must be > 0, got {within}"),
                    );
                    if let Some(r) = min_rate {
                        check(
                            r.is_finite() && *r >= 0.0,
                            format!("bulk_transfer min_rate must be >= 0, got {r}"),
                        );
                    }
                    if let Some(r) = max_rate {
                        check(
                            *r > 0.0,
                            format!("bulk_transfer max_rate must be > 0, got {r}"),
                        );
                    }
                    if let (Some(lo), Some(hi)) = (min_rate, max_rate) {
                        check(
                            hi >= lo,
                            format!("bulk_transfer needs min_rate <= max_rate, got {lo} > {hi}"),
                        );
                    }
                }
            }
        }
    }
    problems
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(file: &ScenarioFile) -> ScenarioFile {
        let json = serde_json::to_string_pretty(file).unwrap();
        ScenarioFile::from_json(&json).unwrap()
    }

    fn sample_file() -> ScenarioFile {
        ScenarioFile {
            name: "sample".into(),
            description: "exercise every trigger and event kind".into(),
            config: ConfigPatch {
                seed: Some(7),
                rate_per_60tu: Some(120.0),
                horizon: Some(1200.0),
                planner: Some(PlannerKind::Tradeoff),
                faults: Some(FaultPatch {
                    max_retries: Some(2),
                    ..FaultPatch::default()
                }),
                ..ConfigPatch::default()
            },
            rules: vec![
                Rule {
                    name: "burst".into(),
                    trigger: Trigger::At(300.0),
                    events: vec![EventSpec::FlashCrowd {
                        sessions: 50,
                        over: 20.0,
                    }],
                    once: false,
                },
                Rule {
                    name: "wave".into(),
                    trigger: Trigger::Every {
                        period: 400.0,
                        start: Some(200.0),
                        until: Some(1000.0),
                    },
                    events: vec![
                        EventSpec::CrashHost {
                            host: 1,
                            down_for: Some(100.0),
                        },
                        EventSpec::ShiftWeights,
                    ],
                    once: false,
                },
                Rule {
                    name: "storm-guard".into(),
                    trigger: Trigger::UtilizationAbove {
                        threshold: 0.8,
                        resource: Some("H1.cpu".into()),
                        poll: Some(10.0),
                    },
                    events: vec![
                        EventSpec::ResizeCapacity {
                            factor: 0.9,
                            resource: None,
                        },
                        EventSpec::QosShift { demand_scale: 0.8 },
                    ],
                    once: true,
                },
                Rule {
                    name: "surge".into(),
                    trigger: Trigger::SessionsAbove {
                        count: 200,
                        poll: None,
                    },
                    events: vec![
                        EventSpec::SetRate { per_60tu: 60.0 },
                        EventSpec::ScaleRate { factor: 1.5 },
                        EventSpec::Diurnal {
                            period: 600.0,
                            amplitude: 0.5,
                        },
                        EventSpec::HeavyTail {
                            alpha: 1.3,
                            min: None,
                            cap: Some(400.0),
                        },
                        EventSpec::RecoverHost { host: 1 },
                    ],
                    once: false,
                },
                Rule {
                    name: "nightly-sync".into(),
                    trigger: Trigger::At(800.0),
                    events: vec![EventSpec::BulkTransfer {
                        volume: 5000.0,
                        within: 300.0,
                        resource: Some("L1".into()),
                        min_rate: Some(2.0),
                        max_rate: Some(60.0),
                    }],
                    once: false,
                },
            ],
        }
    }

    #[test]
    fn every_trigger_and_event_roundtrips() {
        let file = sample_file();
        file.validate().unwrap();
        assert_eq!(roundtrip(&file), file);
    }

    #[test]
    fn json_shapes_are_the_documented_ones() {
        let json = serde_json::to_string(&sample_file()).unwrap();
        assert!(json.contains(r#""at""#), "{json}");
        assert!(json.contains(r#""every""#));
        assert!(json.contains(r#""utilization_above""#));
        assert!(json.contains(r#""sessions_above""#));
        assert!(json.contains(r#""flash_crowd""#));
        assert!(json.contains(r#""shift_weights""#));
        assert!(json.contains(r#""bulk_transfer""#));
    }

    #[test]
    fn partial_config_patches_over_defaults() {
        let file = ScenarioFile::from_json(
            r#"{"name": "patch", "config": {"rate_per_60tu": 200.0, "upgrade_period": 30.0}}"#,
        )
        .unwrap();
        let cfg = file.to_config();
        assert_eq!(cfg.rate_per_60tu, 200.0);
        assert_eq!(cfg.upgrade_period, Some(30.0));
        // Untouched fields keep their defaults.
        assert_eq!(cfg.seed, ScenarioConfig::default().seed);
        assert_eq!(cfg.horizon, ScenarioConfig::default().horizon);
        assert!(cfg.rules.is_empty());
    }

    #[test]
    fn fault_patch_merges_field_by_field() {
        let file = ScenarioFile::from_json(
            r#"{"name": "f", "config": {"faults": {"drop_probability": 0.05, "max_retries": 3}}}"#,
        )
        .unwrap();
        let cfg = file.to_config();
        assert_eq!(cfg.faults.drop_probability, 0.05);
        assert_eq!(cfg.faults.max_retries, 3);
        // Unpatched fault fields keep the empty-plan defaults.
        assert_eq!(cfg.faults.backoff_base, FaultPlan::default().backoff_base);
        assert!(cfg.faults.crashes.is_empty());
    }

    #[test]
    fn unknown_trigger_and_event_kinds_are_named_in_errors() {
        let err = ScenarioFile::from_json(
            r#"{"name": "x", "rules": [{"trigger": {"sometimes": 1}, "events": []}]}"#,
        )
        .unwrap_err();
        assert!(err.to_string().contains("sometimes"), "{err}");
        assert!(err.to_string().contains("utilization_above"), "{err}");

        let err = ScenarioFile::from_json(
            r#"{"name": "x",
                "rules": [{"trigger": {"at": 1.0}, "events": [{"meteor": {}}]}]}"#,
        )
        .unwrap_err();
        assert!(err.to_string().contains("meteor"), "{err}");
        assert!(err.to_string().contains("flash_crowd"), "{err}");
    }

    #[test]
    fn zero_batch_size_is_a_validation_problem() {
        // `workers` left the schema; files that still carry it load.
        let file = ScenarioFile::from_json(
            r#"{"name": "x",
                "config": {"batch_arrivals": {"size": 0, "workers": 4, "max_replans": 2}}}"#,
        )
        .unwrap();
        let err = file.validate().unwrap_err();
        assert!(
            err.to_string()
                .contains("config.batch_arrivals.size must be >= 1"),
            "{err}"
        );
    }

    #[test]
    fn validation_collects_every_problem() {
        let file = ScenarioFile {
            name: " ".into(),
            description: String::new(),
            config: ConfigPatch {
                rate_per_60tu: Some(-1.0),
                ..ConfigPatch::default()
            },
            rules: vec![Rule {
                name: String::new(),
                trigger: Trigger::Every {
                    period: 0.0,
                    start: None,
                    until: None,
                },
                events: vec![
                    EventSpec::CrashHost {
                        host: 99,
                        down_for: None,
                    },
                    EventSpec::ResizeCapacity {
                        factor: 1.5,
                        resource: None,
                    },
                ],
                once: false,
            }],
        };
        let DslError::Invalid(problems) = file.validate().unwrap_err() else {
            panic!("expected Invalid");
        };
        assert!(problems.len() >= 5, "{problems:?}");
        assert!(problems.iter().any(|p| p.contains("rate_per_60tu")));
        assert!(problems.iter().any(|p| p.contains("period")));
        assert!(problems.iter().any(|p| p.contains("host 99")));
        assert!(problems.iter().any(|p| p.contains("resize factor")));
        // Unnamed rules are labelled by index.
        assert!(problems.iter().any(|p| p.contains("rule0")), "{problems:?}");
    }

    #[test]
    fn load_dir_finds_only_scenario_files() {
        let dir = std::env::temp_dir().join("qosr-dsl-load-dir-test");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("b.scenario.json"), r#"{"name": "b"}"#).unwrap();
        std::fs::write(dir.join("a.scenario.json"), r#"{"name": "a"}"#).unwrap();
        std::fs::write(dir.join("notes.txt"), "not a scenario").unwrap();
        let loaded = ScenarioFile::load_dir(&dir).unwrap();
        assert_eq!(loaded.len(), 2);
        // Sorted by file name for stable listings.
        assert_eq!(loaded[0].1.name, "a");
        assert_eq!(loaded[1].1.name, "b");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn malformed_files_surface_parse_errors_with_the_path() {
        let dir = std::env::temp_dir().join("qosr-dsl-parse-error-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("broken.scenario.json");
        std::fs::write(&path, "{ not json").unwrap();
        let err = ScenarioFile::load(&path).unwrap_err();
        assert!(matches!(err, DslError::Parse(_)));
        assert!(err.to_string().contains("broken.scenario.json"));
        assert!(matches!(
            ScenarioFile::load(dir.join("missing.scenario.json")).unwrap_err(),
            DslError::Io(_)
        ));
        std::fs::remove_dir_all(&dir).ok();
    }
}
