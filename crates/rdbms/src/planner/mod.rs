//! The query planner / optimizer.
//!
//! Responsibilities:
//! * name resolution (tables, views, columns, correlated references),
//! * access-path selection (sequential scan vs. B+-tree index scan),
//! * greedy join ordering with hash joins for equi-joins,
//! * aggregation, HAVING, DISTINCT, ORDER BY, LIMIT lowering,
//! * subquery planning (scalar / IN / EXISTS, correlated or not).
//!
//! Two deliberate period-faithful behaviours reproduce the paper's findings:
//!
//! 1. **Parameter blindness** (§4.1): when a sargable predicate compares a
//!    column to a `?` parameter, the optimizer cannot estimate selectivity
//!    and falls back to a rule-based preference for an available index —
//!    exactly the "blindly generates a plan" behaviour the paper observed
//!    when SAP translated Open SQL into parameterized queries.
//! 2. **Naive nested queries** (§3.4.4): correlated subqueries re-execute
//!    per outer row; there is no decorrelation/unnesting rewrite. Manual
//!    unnesting (as the authors did for their Open SQL reports) therefore
//!    beats the engine's own nested execution.

mod builder;
mod columns;
mod dml;
mod sarg;
mod selectivity;

/// Index-assisted DML helpers.
pub mod sarg_helpers {
    pub use super::dml::{dml_index_probe, pk_lock_range};
}

pub use builder::{PlannedQuery, Planner};
#[doc(hidden)]
pub use columns::prune_columns;

/// Optimizer configuration. Exposed so tests can toggle the vendor
/// behaviours. Access-path costs come from the database's own
/// [`Calibration`](trace::meter::Calibration) ([`crate::Database::planner`]).
#[derive(Debug, Clone, Copy)]
pub struct PlannerConfig {
    /// Rule-based index preference for parameterized sargs (§4.1).
    pub blind_param_plans: bool,
    /// Allow hash joins (else all joins are nested-loop).
    pub enable_hash_join: bool,
}

impl Default for PlannerConfig {
    fn default() -> Self {
        PlannerConfig { blind_param_plans: true, enable_hash_join: true }
    }
}
