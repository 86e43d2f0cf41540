//! Experiment harness for the paper reproduction: regenerates every table
//! and figure (see DESIGN.md section 4 for the index).

pub mod diff;
pub mod durability;
pub mod experiments;
pub mod observe;
pub mod paper;
pub mod tracecmd;
pub mod wire;

pub use durability::{run_order_entry_series, run_qthd_series, OrderEntryResult, COMMIT_POLICIES};
pub use experiments::{
    figures, run_throughput_matrix, table1, table2, table3, table4, table5, table6, table7, table8,
    table9, throughput_table, ExpTable, ThroughputSystem,
};
