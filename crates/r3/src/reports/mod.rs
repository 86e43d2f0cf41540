//! The TPC-D reports, as run against SAP R/3.
//!
//! Every query of the benchmark exists in four variants, exactly as in the
//! paper's Tables 4 and 5:
//!
//! | variant    | how it runs |
//! |------------|-------------|
//! | Native 3.0 | the whole query (joins, grouping, complex aggregation, nested subqueries) as one `EXEC SQL` statement over the SAP schema — possible because KONV is transparent ([`native30`]) |
//! | Native 2.2 | the same, except KONV is a cluster table Native SQL cannot touch: queries involving discount/tax split into a pushed-down part plus nested Open SQL KONV reads combined in the application server ([`programs`] with the 2.2 source) |
//! | Open 3.0   | joins pushed down through the new Open SQL join construct; complex aggregations, which Open SQL cannot express, computed in the application server with EXTRACT/SORT; nested subqueries manually unnested ([`programs`]) |
//! | Open 2.2   | single-table Open SQL selects driving application-server nested-loop joins, all grouping/aggregation app-side ([`programs`]) |
//!
//! The release comes from the [`crate::R3System`]; the caller chooses the
//! interface.

pub mod native30;
pub mod programs;
pub mod source;

use crate::system::R3System;
use crate::Release;
use rdbms::error::DbResult;
use rdbms::schema::Row;
use tpcd::QueryParams;
use trace::meter::MeterSnapshot;

/// Which database interface the report uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SapInterface {
    Native,
    Open,
}

impl std::fmt::Display for SapInterface {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SapInterface::Native => write!(f, "Native SQL"),
            SapInterface::Open => write!(f, "Open SQL"),
        }
    }
}

/// Outcome of one report run.
#[derive(Debug, Clone)]
pub struct ReportResult {
    pub query: usize,
    pub rows: usize,
    pub seconds: f64,
    pub work: MeterSnapshot,
}

/// Does query `n` involve the KONV pricing conditions (discount/tax)?
/// These are the queries that cannot run as pure Native SQL in Release 2.2.
pub fn touches_konv(n: usize) -> bool {
    matches!(n, 1 | 3 | 5 | 6 | 7 | 8 | 9 | 10 | 14 | 15)
}

/// Run TPC-D query `n` through the given interface against the system's
/// release, returning the answer rows.
pub fn run_query_rows(
    sys: &R3System,
    iface: SapInterface,
    n: usize,
    p: &QueryParams,
) -> DbResult<Vec<Row>> {
    match (iface, sys.release) {
        (SapInterface::Native, Release::R30) => native30::run(sys, n, p),
        (SapInterface::Native, Release::R22) => {
            if touches_konv(n) {
                programs::run(sys, iface, n, p)
            } else {
                // No encapsulated table involved: the 2.2 Native report is
                // the same full push-down as the 3.0 one.
                native30::run(sys, n, p)
            }
        }
        (SapInterface::Open, _) => programs::run(sys, iface, n, p),
    }
}

/// Run and meter one report.
pub fn run_report(
    sys: &R3System,
    iface: SapInterface,
    n: usize,
    p: &QueryParams,
) -> DbResult<ReportResult> {
    let before = sys.snapshot();
    let rows = run_query_rows(sys, iface, n, p)?;
    let work = sys.snapshot().since(&before);
    Ok(ReportResult {
        query: n,
        rows: rows.len(),
        seconds: sys.db.calibration().seconds(&work),
        work,
    })
}

/// Run the full SAP-side power test: Q1..Q17 through `iface`, then UF1 and
/// UF2 through batch input (the paper's Tables 4/5 columns).
pub fn run_sap_power_test(
    sys: &R3System,
    iface: SapInterface,
    gen: &tpcd::DbGen,
    p: &QueryParams,
) -> DbResult<Vec<(String, f64, MeterSnapshot)>> {
    let cal = sys.db.calibration();
    let mut out = Vec::new();
    for n in 1..=17 {
        let r = run_report(sys, iface, n, p)?;
        out.push((format!("Q{n}"), r.seconds, r.work));
    }
    let before = sys.snapshot();
    crate::batch_input::batch_uf1(sys, gen, 1)?;
    let work = sys.snapshot().since(&before);
    out.push(("UF1".to_string(), cal.seconds(&work), work));
    let before = sys.snapshot();
    crate::batch_input::batch_uf2(sys, gen, 1)?;
    let work = sys.snapshot().since(&before);
    out.push(("UF2".to_string(), cal.seconds(&work), work));
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn konv_query_classification() {
        // Queries touching discount/tax pricing conditions (cannot run as
        // pure Native SQL on 2.2).
        let konv: Vec<usize> = (1..=17).filter(|&n| touches_konv(n)).collect();
        assert_eq!(konv, vec![1, 3, 5, 6, 7, 8, 9, 10, 14, 15]);
    }

    #[test]
    fn interface_display() {
        assert_eq!(SapInterface::Native.to_string(), "Native SQL");
        assert_eq!(SapInterface::Open.to_string(), "Open SQL");
    }
}
