//! Planner errors.

use std::fmt;

/// Errors returned by the reservation planners.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlanError {
    /// No end-to-end QoS level is reachable under the current resource
    /// availability — there is no feasible reservation plan at all.
    NoFeasiblePlan,
    /// The planner only supports chain-shaped dependency graphs (use
    /// [`crate::Planner::Dag`] for DAGs).
    NotAChain,
    /// Pass II of the DAG heuristic failed to assemble an embedded graph
    /// for the sink level that Pass I marked reachable — the paper's
    /// documented limitation (1) of the heuristic (§4.3.2).
    BacktrackFailed {
        /// The sink output-level index the backtracking started from.
        sink_level: usize,
    },
}

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanError::NoFeasiblePlan => {
                write!(
                    f,
                    "no end-to-end QoS level is reachable under current availability"
                )
            }
            PlanError::NotAChain => {
                write!(
                    f,
                    "this planner requires a chain dependency graph; use the dag planner"
                )
            }
            PlanError::BacktrackFailed { sink_level } => write!(
                f,
                "DAG heuristic could not assemble an embedded graph for sink level {sink_level}"
            ),
        }
    }
}

impl std::error::Error for PlanError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display() {
        assert!(PlanError::NoFeasiblePlan
            .to_string()
            .contains("no end-to-end"));
        assert!(PlanError::BacktrackFailed { sink_level: 2 }
            .to_string()
            .contains("level 2"));
        let _: &dyn std::error::Error = &PlanError::NotAChain;
    }
}
