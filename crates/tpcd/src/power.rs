//! The TPC-D power test driver for the isolated-RDBMS baseline.
//!
//! The power test executes all queries and update functions one at a time
//! and measures each individually (paper §3.1). Timings here are the
//! engine's deterministic simulated seconds, derived from metered physical
//! work (see `trace::meter`).

use crate::dbgen::DbGen;
use crate::queries::{self, QueryParams};
use crate::updates;
use rdbms::error::DbResult;
use rdbms::{Database, QueryResult};
use trace::meter::MeterSnapshot;

/// One measured step of the power test.
#[derive(Debug, Clone)]
pub struct StepResult {
    /// "Q1".."Q17", "UF1", "UF2".
    pub step: String,
    /// Simulated seconds of the step.
    pub seconds: f64,
    /// Result rows produced (0 for update functions).
    pub rows: usize,
    /// Raw metered work of the step.
    pub work: MeterSnapshot,
}

/// Full power-test result.
#[derive(Debug, Clone)]
pub struct PowerResult {
    pub steps: Vec<StepResult>,
}

impl PowerResult {
    pub fn step(&self, name: &str) -> Option<&StepResult> {
        self.steps.iter().find(|s| s.step == name)
    }

    /// Total over Q1..Q17 only ("Total (quer.)" row of Tables 4/5).
    pub fn total_queries(&self) -> f64 {
        self.steps.iter().filter(|s| s.step.starts_with('Q')).map(|s| s.seconds).sum()
    }

    /// Total over all steps ("Total (all)" row).
    pub fn total_all(&self) -> f64 {
        self.steps.iter().map(|s| s.seconds).sum()
    }
}

/// Run one query (all its statements), returning the final result set.
pub fn run_query(db: &Database, n: usize, params: &QueryParams) -> DbResult<QueryResult> {
    let stmts = queries::sql(n, params);
    let mut last: Option<QueryResult> = None;
    for stmt in &stmts {
        if let rdbms::ExecOutcome::Rows(r) = db.execute(stmt)? {
            last = Some(r)
        }
    }
    last.ok_or_else(|| rdbms::DbError::execution(format!("Q{n} produced no result set")))
}

/// Execute the complete power test: Q1..Q17 then UF1, UF2 (the paper's
/// Tables 4/5 report them in this order). Each step's work is metered
/// separately; the buffer pool is *not* flushed between steps, matching a
/// continuous benchmark run.
pub fn run_power_test(db: &Database, gen: &DbGen, params: &QueryParams) -> DbResult<PowerResult> {
    let cal = db.calibration();
    let mut steps = Vec::new();
    for n in 1..=17 {
        let before = db.snapshot();
        let result = run_query(db, n, params)?;
        let work = db.snapshot().since(&before);
        steps.push(StepResult {
            step: format!("Q{n}"),
            seconds: cal.seconds(&work),
            rows: result.rows.len(),
            work,
        });
    }
    for (name, f) in [("UF1", true), ("UF2", false)] {
        let before = db.snapshot();
        if f {
            updates::uf1(db, gen, 1)?;
        } else {
            updates::uf2(db, gen, 1)?;
        }
        let work = db.snapshot().since(&before);
        steps.push(StepResult {
            step: name.to_string(),
            seconds: cal.seconds(&work),
            rows: 0,
            work,
        });
    }
    Ok(PowerResult { steps })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::load;

    #[test]
    fn power_test_runs_every_step() {
        let db = Database::with_defaults();
        let gen = DbGen::new(0.002);
        load(&db, &gen).unwrap();
        let params = QueryParams::for_scale(gen.sf);
        let result = run_power_test(&db, &gen, &params).unwrap();
        assert_eq!(result.steps.len(), 19);
        assert!(result.total_all() > result.total_queries());
        for s in &result.steps {
            assert!(s.seconds >= 0.0, "{} has nonnegative time", s.step);
        }
        // Q1 must aggregate nearly all lineitems into <= 6 groups.
        let q1 = result.step("Q1").unwrap();
        assert!(q1.rows >= 3 && q1.rows <= 6, "Q1 groups: {}", q1.rows);
        // Q6 is a single scalar row.
        assert_eq!(result.step("Q6").unwrap().rows, 1);
        // Q13 must be cheap relative to Q1 (it is a selective indexed query).
        let q13 = result.step("Q13").unwrap();
        assert!(
            q13.seconds < q1.seconds / 5.0,
            "Q13 ({}) should be far cheaper than Q1 ({})",
            q13.seconds,
            q1.seconds
        );
    }
}
