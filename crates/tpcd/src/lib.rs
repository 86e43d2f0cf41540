//! # tpcd — a TPC-D benchmark kit for the rdbms engine
//!
//! Deterministic DBGEN-equivalent data generation, the 17 TPC-D queries and
//! two update functions, a power-test driver, and generator-based answer
//! validation. This crate implements the *isolated RDBMS* side of the
//! SIGMOD'97 study; the SAP R/3 side lives in the `r3` crate.

pub mod dbgen;
pub mod power;
pub mod queries;
pub mod records;
pub mod schema;
pub mod throughput;
pub mod updates;
pub mod validate;

pub use dbgen::DbGen;
pub use power::{run_power_test, run_query, PowerResult, StepResult};
pub use queries::QueryParams;
pub use throughput::{
    run_throughput_test, ExtendedIsolatedWorkload, IsolatedWorkload, LockModel, LogDevice,
    StreamWorkload, ThroughputConfig, ThroughputResult,
};
