//! The ABAP-style report runtime.
//!
//! Reports process database rows in the application server. This module
//! provides the constructs the paper's report listings use (Figures 3–5):
//!
//! * **internal tables** — materialized row collections ("it is not
//!   possible to define indexes on temporary tables", §2.3);
//! * **EXTRACT / SORT / LOOP … AT END OF** — SAP's grouping idiom, which
//!   (§4.2) "proceeds in two separate steps: first, sorting and writing
//!   the sorted result to secondary storage, and then re-reading the
//!   sorted table to perform the grouping" — so a SORT always charges
//!   spill I/O for a write *and* a read pass;
//! * an application-side aggregation helper used by every Open SQL report
//!   that cannot push its aggregates down.

use rdbms::error::{DbError, DbResult};
use rdbms::exec::expr::{BExpr, ExecCtx};
use rdbms::exec::plan::Acc;
use rdbms::schema::Row;
use rdbms::sql::ast::AggFunc;
use rdbms::storage::PAGE_SIZE;
use rdbms::types::Value;
use std::sync::Arc;
use trace::meter::{CostMeter, Counter};

/// An ABAP internal (temporary) table: plain materialized rows, no indexes.
#[derive(Debug, Default, Clone)]
pub struct InternalTable {
    pub rows: Vec<Row>,
}

impl InternalTable {
    pub fn new() -> Self {
        InternalTable { rows: Vec::new() }
    }

    /// APPEND.
    pub fn append(&mut self, meter: &CostMeter, row: Row) {
        meter.bump(Counter::AppTuples);
        self.rows.push(row);
    }

    /// READ TABLE ... WITH KEY — a *linear scan*: internal tables have no
    /// indexes, every probe walks the table (this is why materializing an
    /// inner relation app-side is still expensive).
    pub fn read_with_key(
        &self,
        meter: &CostMeter,
        key_cols: &[usize],
        key: &[Value],
    ) -> Option<&Row> {
        for row in &self.rows {
            meter.bump(Counter::AppTuples);
            if key_cols.iter().zip(key).all(|(&c, v)| row[c].group_eq(v)) {
                return Some(row);
            }
        }
        None
    }

    pub fn len(&self) -> usize {
        self.rows.len()
    }

    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Approximate memory footprint (drives spill accounting).
    pub fn bytes(&self) -> usize {
        self.rows.iter().map(|r| r.iter().map(|v| v.storage_size()).sum::<usize>() + 16).sum()
    }
}

/// An EXTRACT dataset: (sort key, payload) lines accumulated by the report.
#[derive(Debug, Default)]
pub struct Extract {
    lines: Vec<(Vec<Value>, Row)>,
    sorted: bool,
}

impl Extract {
    pub fn new() -> Self {
        Extract::default()
    }

    /// EXTRACT: append one line under the current field-group values.
    pub fn extract(&mut self, meter: &CostMeter, key: Vec<Value>, data: Row) {
        meter.bump(Counter::AppTuples);
        self.lines.push((key, data));
        self.sorted = false;
    }

    pub fn len(&self) -> usize {
        self.lines.len()
    }

    pub fn is_empty(&self) -> bool {
        self.lines.is_empty()
    }

    fn bytes(&self) -> usize {
        self.lines
            .iter()
            .map(|(k, d)| {
                k.iter().map(|v| v.storage_size()).sum::<usize>()
                    + d.iter().map(|v| v.storage_size()).sum::<usize>()
                    + 16
            })
            .sum()
    }

    /// SORT: orders the dataset by its keys. Per §4.2 this writes the
    /// sorted result to secondary storage and re-reads it — two passes of
    /// spill I/O are charged regardless of size.
    pub fn sort(&mut self, meter: &CostMeter) {
        let pages = (self.bytes() / PAGE_SIZE).max(1) as u64;
        meter.add(Counter::AppSpillPages, 2 * pages); // write + re-read
        meter.add(Counter::AppTuples, self.lines.len() as u64);
        self.lines.sort_by(|(a, _), (b, _)| {
            for (x, y) in a.iter().zip(b.iter()) {
                let ord = x.total_cmp(y);
                if !ord.is_eq() {
                    return ord;
                }
            }
            std::cmp::Ordering::Equal
        });
        self.sorted = true;
    }

    /// LOOP ... AT END OF `<key>`: stream groups of equal keys through `f`.
    /// The dataset must have been sorted.
    pub fn loop_groups(
        &self,
        meter: &CostMeter,
        mut f: impl FnMut(&[Value], &[(Vec<Value>, Row)]) -> DbResult<()>,
    ) -> DbResult<()> {
        if !self.sorted && !self.lines.is_empty() {
            return Err(DbError::execution("LOOP over unsorted extract — SORT first"));
        }
        let mut start = 0usize;
        while start < self.lines.len() {
            let key = &self.lines[start].0;
            let mut end = start + 1;
            while end < self.lines.len()
                && self.lines[end].0.iter().zip(key.iter()).all(|(a, b)| a.total_cmp(b).is_eq())
            {
                end += 1;
            }
            meter.add(Counter::AppTuples, (end - start) as u64);
            f(key, &self.lines[start..end])?;
            start = end;
        }
        Ok(())
    }
}

/// Application-side aggregation spec: group columns by index plus
/// aggregates over arbitrary expressions of the input row (ABAP computes
/// the expression per line before extracting — this is how "complex
/// aggregations" are done when Open SQL cannot push them, §4.2).
#[derive(Clone)]
pub struct AppAgg {
    pub group_cols: Vec<usize>,
    pub aggs: Vec<(AggFunc, BExpr)>,
    /// Optional HAVING-style filter over the output row
    /// (group cols then agg results).
    pub having: Option<BExpr>,
}

/// Run an application-side aggregation over `rows` using the EXTRACT/SORT/
/// LOOP machinery (charging its spill), returning output rows of
/// group values followed by aggregate values.
pub fn app_aggregate(meter: &Arc<CostMeter>, rows: &[Row], agg: &AppAgg) -> DbResult<Vec<Row>> {
    let ctx = ExecCtx::new(&[], meter);
    let mut extract = Extract::new();
    for row in rows {
        let key: Vec<Value> = agg.group_cols.iter().map(|&i| row[i].clone()).collect();
        extract.extract(meter, key, row.clone());
    }
    extract.sort(meter);
    let mut out: Vec<Row> = Vec::new();
    extract.loop_groups(meter, |key, lines| {
        let mut result: Row = key.to_vec();
        for (func, expr) in &agg.aggs {
            let mut acc = Acc::new(false);
            for (_, row) in lines {
                acc.update(&expr.eval(row, &ctx)?, *func)?;
            }
            result.push(acc.finish(*func)?);
        }
        if let Some(h) = &agg.having {
            if h.eval_bool(&result, &ctx)? != Some(true) {
                return Ok(());
            }
        }
        out.push(result);
        Ok(())
    })?;
    Ok(out)
}

/// Scalar (ungrouped) application-side aggregation.
pub fn app_aggregate_scalar(
    meter: &Arc<CostMeter>,
    rows: &[Row],
    aggs: &[(AggFunc, BExpr)],
) -> DbResult<Row> {
    let ctx = ExecCtx::new(&[], meter);
    let mut accs: Vec<Acc> = aggs.iter().map(|_| Acc::new(false)).collect();
    for row in rows {
        meter.bump(Counter::AppTuples);
        for ((func, expr), acc) in aggs.iter().zip(&mut accs) {
            acc.update(&expr.eval(row, &ctx)?, *func)?;
        }
    }
    aggs.iter().zip(&accs).map(|((f, _), acc)| acc.finish(*f)).collect()
}

/// Sort rows app-side by (column, desc) keys. Internal-table sorts also
/// spill per §4.2.
pub fn app_sort(meter: &CostMeter, rows: &mut [Row], keys: &[(usize, bool)]) {
    let bytes: usize =
        rows.iter().map(|r| r.iter().map(|v| v.storage_size()).sum::<usize>() + 16).sum();
    let pages = (bytes / PAGE_SIZE).max(1) as u64;
    meter.add(Counter::AppSpillPages, 2 * pages);
    meter.add(Counter::AppTuples, rows.len() as u64);
    rows.sort_by(|a, b| {
        for (i, desc) in keys {
            let ord = a[*i].total_cmp(&b[*i]);
            let ord = if *desc { ord.reverse() } else { ord };
            if !ord.is_eq() {
                return ord;
            }
        }
        std::cmp::Ordering::Equal
    });
}

/// COUNT DISTINCT helper for app-side Q16-style logic.
pub fn app_count_distinct(meter: &CostMeter, values: impl Iterator<Item = Value>) -> i64 {
    let mut acc = Acc::new(true);
    for v in values {
        meter.bump(Counter::AppTuples);
        acc.update(&v, AggFunc::Count).expect("COUNT folds without arithmetic");
    }
    acc.finish(AggFunc::Count).and_then(|n| n.as_int()).expect("COUNT is an integer")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn meter() -> Arc<CostMeter> {
        CostMeter::new()
    }

    #[test]
    fn extract_sort_loop_groups() {
        let m = meter();
        let mut e = Extract::new();
        for (k, v) in [("B", 1), ("A", 2), ("B", 3), ("A", 4), ("C", 5)] {
            e.extract(&m, vec![Value::str(k)], vec![Value::Int(v)]);
        }
        e.sort(&m);
        let mut groups: Vec<(String, i64)> = Vec::new();
        e.loop_groups(&m, |key, lines| {
            let sum: i64 = lines.iter().map(|(_, r)| r[0].as_int().unwrap()).sum();
            groups.push((key[0].to_string(), sum));
            Ok(())
        })
        .unwrap();
        assert_eq!(groups, vec![("A".into(), 6), ("B".into(), 4), ("C".into(), 5)]);
        // Spill was charged (write + read passes).
        assert!(m.get(Counter::AppSpillPages) >= 2);
    }

    #[test]
    fn loop_requires_sort() {
        let m = meter();
        let mut e = Extract::new();
        e.extract(&m, vec![Value::Int(1)], vec![]);
        assert!(e.loop_groups(&m, |_, _| Ok(())).is_err());
    }

    #[test]
    fn app_aggregate_groups_and_aggregates() {
        let m = meter();
        let rows: Vec<Row> = vec![
            vec![Value::str("X"), Value::Int(10)],
            vec![Value::str("Y"), Value::Int(5)],
            vec![Value::str("X"), Value::Int(20)],
        ];
        let agg = AppAgg {
            group_cols: vec![0],
            aggs: vec![
                (AggFunc::Sum, BExpr::Column(1)),
                (AggFunc::Count, BExpr::Column(1)),
                (AggFunc::Avg, BExpr::Column(1)),
            ],
            having: None,
        };
        let out = app_aggregate(&m, &rows, &agg).unwrap();
        assert_eq!(out.len(), 2);
        assert_eq!(out[0][0], Value::str("X"));
        assert_eq!(out[0][1], Value::Int(30));
        assert_eq!(out[0][2], Value::Int(2));
        assert_eq!(out[0][3].as_decimal().unwrap().to_f64(), 15.0);
    }

    #[test]
    fn app_aggregate_complex_expression() {
        // The §4.2 case: AVG(KAWRT * (1 + KBETR/1000)) app-side.
        let m = meter();
        let rows: Vec<Row> = vec![
            vec![Value::Int(1), Value::decimal(10000, 2), Value::decimal(50, 0)],
            vec![Value::Int(1), Value::decimal(20000, 2), Value::decimal(100, 0)],
        ];
        use rdbms::sql::ast::BinOp;
        let charge = BExpr::Binary {
            left: BExpr::Column(1).boxed(),
            op: BinOp::Mul,
            right: BExpr::Binary {
                left: BExpr::Literal(Value::Int(1)).boxed(),
                op: BinOp::Add,
                right: BExpr::Binary {
                    left: BExpr::Column(2).boxed(),
                    op: BinOp::Div,
                    right: BExpr::Literal(Value::Int(1000)).boxed(),
                }
                .boxed(),
            }
            .boxed(),
        };
        let agg = AppAgg { group_cols: vec![0], aggs: vec![(AggFunc::Avg, charge)], having: None };
        let out = app_aggregate(&m, &rows, &agg).unwrap();
        assert_eq!(out.len(), 1);
        // (100*1.05 + 200*1.10)/2 = (105 + 220)/2 = 162.5
        assert!((out[0][1].as_decimal().unwrap().to_f64() - 162.5).abs() < 1e-9);
    }

    #[test]
    fn having_filters_groups() {
        let m = meter();
        let rows: Vec<Row> =
            vec![vec![Value::str("X"), Value::Int(10)], vec![Value::str("Y"), Value::Int(1)]];
        use rdbms::sql::ast::BinOp;
        let agg = AppAgg {
            group_cols: vec![0],
            aggs: vec![(AggFunc::Sum, BExpr::Column(1))],
            having: Some(BExpr::Binary {
                left: BExpr::Column(1).boxed(),
                op: BinOp::Gt,
                right: BExpr::Literal(Value::Int(5)).boxed(),
            }),
        };
        let out = app_aggregate(&m, &rows, &agg).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0][0], Value::str("X"));
    }

    #[test]
    fn internal_table_linear_probe() {
        let m = meter();
        let mut t = InternalTable::new();
        for i in 0..100 {
            t.append(&m, vec![Value::Int(i), Value::str(format!("v{i}"))]);
        }
        let before = m.get(Counter::AppTuples);
        let hit = t.read_with_key(&m, &[0], &[Value::Int(99)]).cloned();
        assert!(hit.is_some());
        // Linear scan: ~100 probes charged for the last entry.
        assert!(m.get(Counter::AppTuples) - before >= 99);
        assert!(t.read_with_key(&m, &[0], &[Value::Int(1000)]).is_none());
    }

    #[test]
    fn sort_rows_app_side() {
        let m = meter();
        let mut rows: Vec<Row> = vec![
            vec![Value::Int(2), Value::str("b")],
            vec![Value::Int(1), Value::str("a")],
            vec![Value::Int(3), Value::str("c")],
        ];
        app_sort(&m, &mut rows, &[(0, true)]);
        assert_eq!(rows[0][0], Value::Int(3));
        assert!(m.get(Counter::AppSpillPages) >= 2);
    }

    #[test]
    fn count_distinct() {
        let m = meter();
        let vals = vec![Value::Int(1), Value::Int(2), Value::Int(1), Value::Null];
        assert_eq!(app_count_distinct(&m, vals.into_iter()), 2);
    }
}
