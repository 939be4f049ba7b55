//! The JSON scenario format and its conversion into model objects.
//!
//! A *scenario* bundles everything one planning run needs: the service
//! definition (components, levels, translation tables, dependency
//! edges, end-to-end ranking), the environment's resources with their
//! current availability, the slot→resource bindings, and the session's
//! demand scale. Minimal example:
//!
//! ```json
//! {
//!   "name": "clip",
//!   "source_quality": [30],
//!   "resources": [
//!     { "name": "server.cpu", "kind": "compute", "available": 100.0 }
//!   ],
//!   "components": [
//!     {
//!       "name": "encoder",
//!       "output_params": ["frame_rate"],
//!       "outputs": [[15], [30]],
//!       "slots": [ { "name": "cpu", "kind": "compute", "resource": "server.cpu" } ],
//!       "table": [
//!         { "qin": 0, "qout": 0, "demand": [12.0] },
//!         { "qin": 0, "qout": 1, "demand": [25.0] }
//!       ]
//!     }
//!   ],
//!   "ranking": [1, 2]
//! }
//! ```
//!
//! Defaults: `edges` defaults to a chain in component order; a
//! component's `inputs` default to the source quality (source
//! component), the predecessor's outputs (single predecessor), or the
//! full cartesian product of the predecessors' outputs (fan-in);
//! `scale` defaults to 1; `alpha` defaults to 1.

use qosr_core::AvailabilityView;
use qosr_model::{
    ComponentBinding, ComponentSpec, DependencyGraph, ModelError, QosSchema, QosVector,
    ResourceKind, ResourceSpace, ServiceSpec, SessionInstance, SlotSpec, TableTranslation,
};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::Arc;

/// One reservable resource and its current state.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ResourceDto {
    /// Unique resource name.
    pub name: String,
    /// Resource kind: `compute`, `memory`, `disk-io`, `link`, `path`,
    /// or `other`.
    pub kind: String,
    /// Currently available amount.
    pub available: f64,
    /// Availability-change index α (default 1.0 = no trend).
    #[serde(default = "default_alpha")]
    pub alpha: f64,
}

fn default_alpha() -> f64 {
    1.0
}

/// One resource slot of a component, bound to a resource by name.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SlotDto {
    /// Slot name (unique within the component).
    pub name: String,
    /// Expected resource kind (same strings as [`ResourceDto::kind`]).
    pub kind: String,
    /// Name of the resource this slot reserves from.
    pub resource: String,
}

/// One feasible `(input level, output level)` pair and its demand.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TableEntryDto {
    /// Input level index.
    pub qin: usize,
    /// Output level index.
    pub qout: usize,
    /// Demand per slot, in slot order.
    pub demand: Vec<f64>,
}

/// One service component.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ComponentDto {
    /// Component name.
    pub name: String,
    /// Names of the output QoS parameters.
    pub output_params: Vec<String>,
    /// Output QoS levels (each a value per output parameter).
    pub outputs: Vec<Vec<u32>>,
    /// Input QoS levels; see the module docs for the defaults.
    #[serde(default)]
    pub inputs: Option<Vec<Vec<u32>>>,
    /// Resource slots with inline bindings.
    pub slots: Vec<SlotDto>,
    /// The translation table (absent pairs are infeasible).
    pub table: Vec<TableEntryDto>,
}

/// A complete planning scenario.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Scenario {
    /// Service name.
    pub name: String,
    /// The original quality of the source data (the source component's
    /// single input level).
    pub source_quality: Vec<u32>,
    /// Parameter names of the source quality (defaults to `q0, q1, …`).
    #[serde(default)]
    pub source_params: Option<Vec<String>>,
    /// The environment's resources.
    pub resources: Vec<ResourceDto>,
    /// The service components.
    pub components: Vec<ComponentDto>,
    /// Dependency edges (defaults to a chain in component order).
    #[serde(default)]
    pub edges: Option<Vec<(usize, usize)>>,
    /// Rank of each sink output level (higher = better; all distinct).
    pub ranking: Vec<u32>,
    /// Demand scale factor (default 1.0).
    #[serde(default = "default_scale")]
    pub scale: f64,
}

fn default_scale() -> f64 {
    1.0
}

/// Errors loading or converting a scenario.
#[derive(Debug)]
pub enum ScenarioError {
    /// JSON syntax / shape error.
    Json(serde_json::Error),
    /// I/O error reading the file.
    Io(std::io::Error),
    /// The scenario references something undefined or inconsistent.
    Invalid(String),
    /// The model rejected the converted service.
    Model(ModelError),
}

impl fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScenarioError::Json(e) => write!(f, "JSON error: {e}"),
            ScenarioError::Io(e) => write!(f, "I/O error: {e}"),
            ScenarioError::Invalid(msg) => write!(f, "invalid scenario: {msg}"),
            ScenarioError::Model(e) => write!(f, "model validation failed: {e}"),
        }
    }
}

impl std::error::Error for ScenarioError {}

impl From<serde_json::Error> for ScenarioError {
    fn from(e: serde_json::Error) -> Self {
        ScenarioError::Json(e)
    }
}
impl From<std::io::Error> for ScenarioError {
    fn from(e: std::io::Error) -> Self {
        ScenarioError::Io(e)
    }
}
impl From<ModelError> for ScenarioError {
    fn from(e: ModelError) -> Self {
        ScenarioError::Model(e)
    }
}

fn parse_kind(s: &str) -> Result<ResourceKind, ScenarioError> {
    Ok(match s {
        "compute" => ResourceKind::Compute,
        "memory" => ResourceKind::Memory,
        "disk-io" => ResourceKind::DiskIo,
        "link" => ResourceKind::NetworkLink,
        "path" => ResourceKind::NetworkPath,
        "other" => ResourceKind::Other,
        other => {
            return Err(ScenarioError::Invalid(format!(
                "unknown resource kind {other:?} (expected compute/memory/disk-io/link/path/other)"
            )))
        }
    })
}

/// Checks that `available` and `alpha` describe a number of units and
/// an availability trend (α = current availability / windowed average):
/// both finite and ≥ 0. Scenario files and `--avail` overrides both pass
/// through here.
pub(crate) fn check_availability(
    name: &str,
    available: f64,
    alpha: f64,
) -> Result<(), ScenarioError> {
    let valid = |v: f64| v.is_finite() && v >= 0.0;
    if !valid(available) {
        return Err(ScenarioError::Invalid(format!(
            "resource {name:?}: available must be a finite number >= 0, got {available}"
        )));
    }
    if !valid(alpha) {
        return Err(ScenarioError::Invalid(format!(
            "resource {name:?}: alpha must be a finite number >= 0, got {alpha}"
        )));
    }
    Ok(())
}

/// Everything a scenario compiles into.
#[derive(Debug)]
pub struct CompiledScenario {
    /// The resource registry.
    pub space: ResourceSpace,
    /// The session to plan (service + bindings + scale).
    pub session: SessionInstance,
    /// The availability snapshot.
    pub view: AvailabilityView,
}

impl Scenario {
    /// Loads a scenario from a JSON file.
    pub fn load(path: &std::path::Path) -> Result<Scenario, ScenarioError> {
        let text = std::fs::read_to_string(path)?;
        Ok(serde_json::from_str(&text)?)
    }

    /// Compiles the scenario into model objects and an availability
    /// view.
    pub fn compile(&self) -> Result<CompiledScenario, ScenarioError> {
        // Resources.
        let mut space = ResourceSpace::new();
        let mut view = AvailabilityView::new();
        for r in &self.resources {
            if space.id(&r.name).is_some() {
                return Err(ScenarioError::Invalid(format!(
                    "duplicate resource {:?}",
                    r.name
                )));
            }
            check_availability(&r.name, r.available, r.alpha)?;
            let rid = space.register(&r.name, parse_kind(&r.kind)?);
            view.set_with_alpha(rid, r.available, r.alpha);
        }

        // Dependency graph (defaults to a chain).
        let k = self.components.len();
        let graph = match &self.edges {
            Some(edges) => DependencyGraph::new(k, edges.clone())?,
            None => DependencyGraph::chain(k)?,
        };

        // Output schemas first (needed for input defaulting).
        let out_schemas: Vec<Arc<QosSchema>> = self
            .components
            .iter()
            .map(|c| QosSchema::new(format!("{}.out", c.name), c.output_params.clone()))
            .collect();

        let source_params: Vec<String> = self.source_params.clone().unwrap_or_else(|| {
            (0..self.source_quality.len())
                .map(|i| format!("q{i}"))
                .collect()
        });
        let src_schema = QosSchema::new("source", source_params);

        let mut components = Vec::with_capacity(k);
        let mut bindings = Vec::with_capacity(k);
        for (c, dto) in self.components.iter().enumerate() {
            let outputs: Vec<QosVector> = dto
                .outputs
                .iter()
                .map(|vals| QosVector::try_new(out_schemas[c].clone(), vals.clone()))
                .collect::<Result<_, _>>()?;

            let inputs: Vec<QosVector> = match (&dto.inputs, graph.preds(c)) {
                (Some(levels), preds) => {
                    // Explicit inputs: typed with the single pred's
                    // schema, the source schema, or a concatenation.
                    let schema = match preds {
                        [] => src_schema.clone(),
                        [u] => out_schemas[*u].clone(),
                        many => QosSchema::concat(many.iter().map(|&u| &out_schemas[u])),
                    };
                    levels
                        .iter()
                        .map(|vals| QosVector::try_new(schema.clone(), vals.clone()))
                        .collect::<Result<_, _>>()?
                }
                (None, []) => vec![QosVector::try_new(
                    src_schema.clone(),
                    self.source_quality.clone(),
                )?],
                (None, [u]) => self.components[*u]
                    .outputs
                    .iter()
                    .map(|vals| QosVector::try_new(out_schemas[*u].clone(), vals.clone()))
                    .collect::<Result<_, _>>()?,
                (None, many) => {
                    // Fan-in default: full cartesian product of the
                    // predecessors' output levels.
                    let mut combos: Vec<Vec<&Vec<u32>>> = vec![vec![]];
                    for &u in many {
                        let mut next = Vec::new();
                        for combo in &combos {
                            for vals in &self.components[u].outputs {
                                let mut cc = combo.clone();
                                cc.push(vals);
                                next.push(cc);
                            }
                        }
                        combos = next;
                    }
                    let schema = QosSchema::concat(many.iter().map(|&u| &out_schemas[u]));
                    combos
                        .into_iter()
                        .map(|combo| {
                            let vals: Vec<u32> = combo.into_iter().flatten().copied().collect();
                            QosVector::try_new(schema.clone(), vals)
                        })
                        .collect::<Result<_, _>>()?
                }
            };

            // Slots and bindings.
            let mut slots = Vec::with_capacity(dto.slots.len());
            let mut bound = Vec::with_capacity(dto.slots.len());
            for s in &dto.slots {
                let kind = parse_kind(&s.kind)?;
                let rid = space.id(&s.resource).ok_or_else(|| {
                    ScenarioError::Invalid(format!(
                        "slot {:?} of component {:?} binds to unknown resource {:?}",
                        s.name, dto.name, s.resource
                    ))
                })?;
                slots.push(SlotSpec::new(&s.name, kind));
                bound.push(rid);
            }

            // Translation table.
            let mut builder = TableTranslation::builder(inputs.len(), outputs.len(), slots.len());
            for e in &dto.table {
                builder = builder.entry(e.qin, e.qout, e.demand.clone());
            }
            let table = builder.try_build()?;

            components.push(ComponentSpec::new(
                &dto.name,
                inputs,
                outputs,
                slots,
                Arc::new(table),
            ));
            bindings.push(ComponentBinding::new(bound));
        }

        let service = Arc::new(ServiceSpec::new(
            &self.name,
            components,
            graph,
            self.ranking.clone(),
        )?);
        let session = SessionInstance::new(service, bindings, self.scale)?;
        session.validate_kinds(&space)?;

        Ok(CompiledScenario {
            space,
            session,
            view,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qosr_core::{PlanCtx, Planner, QrgOptions};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn plan(compiled: &CompiledScenario, planner: Planner) -> qosr_core::ReservationPlan {
        PlanCtx::new()
            .plan_session(
                &compiled.session,
                &compiled.view,
                &QrgOptions::default(),
                planner,
                &mut StdRng::seed_from_u64(0),
            )
            .unwrap()
    }

    fn minimal_json() -> &'static str {
        r#"{
          "name": "clip",
          "source_quality": [30],
          "resources": [
            { "name": "server.cpu", "kind": "compute", "available": 100.0 },
            { "name": "net", "kind": "path", "available": 50.0, "alpha": 0.9 }
          ],
          "components": [
            {
              "name": "encoder",
              "output_params": ["frame_rate"],
              "outputs": [[15], [30]],
              "slots": [ { "name": "cpu", "kind": "compute", "resource": "server.cpu" } ],
              "table": [
                { "qin": 0, "qout": 0, "demand": [12.0] },
                { "qin": 0, "qout": 1, "demand": [25.0] }
              ]
            },
            {
              "name": "player",
              "output_params": ["frame_rate"],
              "outputs": [[15], [30]],
              "slots": [ { "name": "bw", "kind": "path", "resource": "net" } ],
              "table": [
                { "qin": 0, "qout": 0, "demand": [8.0] },
                { "qin": 1, "qout": 1, "demand": [16.0] }
              ]
            }
          ],
          "ranking": [1, 2]
        }"#
    }

    #[test]
    fn parse_compile_and_plan() {
        let scenario: Scenario = serde_json::from_str(minimal_json()).unwrap();
        assert_eq!(scenario.scale, 1.0); // default
        let compiled = scenario.compile().unwrap();
        assert_eq!(compiled.space.len(), 2);
        assert_eq!(compiled.view.alpha(compiled.space.id("net").unwrap()), 0.9);
        let plan = plan(&compiled, Planner::Basic);
        assert_eq!(plan.rank, 2);
        assert!((plan.psi - 16.0 / 50.0).abs() < 1e-12);
    }

    #[test]
    fn availability_must_be_a_number_of_units() {
        for bad in [f64::NAN, -5.0, f64::INFINITY] {
            let mut scenario: Scenario = serde_json::from_str(minimal_json()).unwrap();
            scenario.resources[1].available = bad;
            let err = scenario.compile().unwrap_err();
            assert!(matches!(err, ScenarioError::Invalid(_)), "{bad}: {err}");
            assert!(err.to_string().contains("\"net\""), "{bad}: {err}");
        }
        // An overflowing literal parses to infinity and is rejected too.
        let json = minimal_json().replace("\"available\": 50.0", "\"available\": 1e400");
        let scenario: Scenario = serde_json::from_str(&json).unwrap();
        assert!(scenario.compile().is_err());
    }

    #[test]
    fn alpha_must_be_finite_and_non_negative() {
        for bad in [f64::NAN, -0.5, f64::INFINITY] {
            let mut scenario: Scenario = serde_json::from_str(minimal_json()).unwrap();
            scenario.resources[1].alpha = bad;
            let err = scenario.compile().unwrap_err();
            assert!(err.to_string().contains("alpha"), "{bad}: {err}");
            assert!(err.to_string().contains("\"net\""), "{bad}: {err}");
        }
    }

    #[test]
    fn zero_availability_and_alpha_are_accepted() {
        let mut scenario: Scenario = serde_json::from_str(minimal_json()).unwrap();
        scenario.resources[1].available = 0.0;
        scenario.resources[1].alpha = 0.0;
        let compiled = scenario.compile().unwrap();
        let net = compiled.space.id("net").unwrap();
        assert_eq!(compiled.view.avail(net), 0.0);
        assert_eq!(compiled.view.alpha(net), 0.0);
    }

    #[test]
    fn unknown_resource_is_reported() {
        let mut scenario: Scenario = serde_json::from_str(minimal_json()).unwrap();
        scenario.components[0].slots[0].resource = "nope".into();
        let err = scenario.compile().unwrap_err();
        assert!(matches!(err, ScenarioError::Invalid(_)));
        assert!(err.to_string().contains("nope"));
    }

    #[test]
    fn unknown_kind_is_reported() {
        let mut scenario: Scenario = serde_json::from_str(minimal_json()).unwrap();
        scenario.resources[0].kind = "quantum".into();
        assert!(scenario.compile().is_err());
    }

    #[test]
    fn kind_mismatch_is_reported() {
        let mut scenario: Scenario = serde_json::from_str(minimal_json()).unwrap();
        scenario.components[0].slots[0].kind = "path".into();
        let err = scenario.compile().unwrap_err();
        assert!(matches!(err, ScenarioError::Model(_)), "{err}");
    }

    #[test]
    fn duplicate_resource_rejected() {
        let mut scenario: Scenario = serde_json::from_str(minimal_json()).unwrap();
        let dup = scenario.resources[0].clone();
        scenario.resources.push(dup);
        assert!(scenario.compile().is_err());
    }

    #[test]
    fn bad_table_entry_rejected() {
        let mut scenario: Scenario = serde_json::from_str(minimal_json()).unwrap();
        scenario.components[0].table[0].demand = vec![1.0, 2.0]; // 2 demands, 1 slot
        assert!(matches!(
            scenario.compile().unwrap_err(),
            ScenarioError::Model(_)
        ));
    }

    #[test]
    fn fan_in_default_is_cartesian_product() {
        let json = r#"{
          "name": "diamond",
          "source_quality": [1],
          "resources": [
            { "name": "r", "kind": "compute", "available": 1000.0 }
          ],
          "components": [
            { "name": "src", "output_params": ["g"], "outputs": [[1],[2]],
              "slots": [{ "name": "s", "kind": "compute", "resource": "r" }],
              "table": [ { "qin": 0, "qout": 0, "demand": [1.0] },
                         { "qin": 0, "qout": 1, "demand": [2.0] } ] },
            { "name": "a", "output_params": ["g"], "outputs": [[1],[2]],
              "slots": [{ "name": "s", "kind": "compute", "resource": "r" }],
              "table": [ { "qin": 0, "qout": 0, "demand": [1.0] },
                         { "qin": 1, "qout": 1, "demand": [2.0] } ] },
            { "name": "b", "output_params": ["g"], "outputs": [[1]],
              "slots": [{ "name": "s", "kind": "compute", "resource": "r" }],
              "table": [ { "qin": 0, "qout": 0, "demand": [1.0] },
                         { "qin": 1, "qout": 0, "demand": [1.0] } ] },
            { "name": "merge", "output_params": ["g"], "outputs": [[1],[2]],
              "slots": [{ "name": "s", "kind": "compute", "resource": "r" }],
              "table": [ { "qin": 0, "qout": 0, "demand": [1.0] },
                         { "qin": 1, "qout": 1, "demand": [2.0] } ] }
          ],
          "edges": [[0,1],[0,2],[1,3],[2,3]],
          "ranking": [1,2],
          "scale": 2.0
        }"#;
        let scenario: Scenario = serde_json::from_str(json).unwrap();
        let compiled = scenario.compile().unwrap();
        // merge inputs default to a out (2 levels) x b out (1 level) = 2.
        assert_eq!(
            compiled.session.service().component(3).input_levels().len(),
            2
        );
        assert_eq!(compiled.session.scale(), 2.0);
        assert_eq!(plan(&compiled, Planner::Dag).rank, 2);
    }
}
