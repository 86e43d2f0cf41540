//! Physical query plans and their (materializing) executor.
//!
//! Operators execute bottom-up and materialize intermediate results. All
//! physical work — page I/O through the pager, per-tuple CPU — is metered
//! into the engine's [`crate::clock::CostMeter`], which is what the paper-reproduction
//! experiments read out.
//!
//! What is materialized is each operator's *output*; on the way there a row
//! is not copied: scans decode only the columns the plan reads (the rest
//! stay `Value::Null` placeholders, so row width and column positions never
//! change), predicates are evaluated on borrowed values, joins test the
//! (left, right) pair and build the combined row only for matches, and
//! sort/group/distinct order or mark row indexes over borrowed keys.

use crate::catalog::{Index, Table};
use crate::clock::Counter;
use crate::error::{DbError, DbResult};
use crate::exec::expr::{AggSpec, BExpr, ExecCtx};
use crate::lock::KeyRange;
use crate::schema::Row;
use crate::sql::ast::{AggFunc, BinOp, JoinKind};
use crate::storage::codec::{decode_columns, encode_key};
use crate::storage::AccessPattern;
use crate::types::{Decimal, Value};
use std::borrow::Cow;
use std::cmp::Ordering;
use std::collections::{HashMap, HashSet};
use std::ops::Bound;
use std::sync::Arc;

/// A bound for one side of an index range, as expressions evaluated at
/// execution time (they may contain parameters or outer references, which
/// is how parameterized cursors and index nested-loop joins work).
#[derive(Debug, Clone)]
pub struct IndexKeyBound {
    pub values: Vec<BExpr>,
    pub inclusive: bool,
}

/// A physical plan node.
pub enum Plan {
    /// Full table scan with optional pushed-down filter.
    SeqScan {
        table: Arc<Table>,
        filter: Option<BExpr>,
        /// Columns read by `filter` or by any operator above: only these
        /// are decoded, the others are `Value::Null` placeholders. All
        /// columns until the planner's needed-column pass narrows it.
        needed: Vec<bool>,
    },
    /// B+-tree range scan + heap fetch, with optional residual filter.
    IndexScan {
        table: Arc<Table>,
        index: Arc<Index>,
        lower: Option<IndexKeyBound>,
        upper: Option<IndexKeyBound>,
        residual: Option<BExpr>,
        /// As for `SeqScan` (columns read by `residual` included).
        needed: Vec<bool>,
    },
    /// Literal rows (SELECT without FROM, INSERT source).
    Values {
        rows: Vec<Vec<BExpr>>,
    },
    /// Virtual `M$` monitoring view: rows come from the view's provider
    /// closure at *execute* time, so every read — including through a
    /// cached plan — sees the live accumulators. Takes no locks.
    MonitorScan {
        view: Arc<crate::monitor::MonitorView>,
    },
    Filter {
        input: Box<Plan>,
        pred: BExpr,
    },
    Project {
        input: Box<Plan>,
        exprs: Vec<BExpr>,
    },
    /// Nested-loop join; the right side may be *correlated* (contain
    /// `Outer{depth:1}` references to the current left row) — that is how
    /// index nested-loop joins are expressed.
    NLJoin {
        left: Box<Plan>,
        right: Box<Plan>,
        kind: JoinKind,
        on: Option<BExpr>,
        right_correlated: bool,
        right_width: usize,
    },
    /// Hash join: builds on `left`, probes with `right`. Output columns are
    /// left ++ right. For LeftOuter the left side is preserved.
    HashJoin {
        left: Box<Plan>,
        right: Box<Plan>,
        left_keys: Vec<BExpr>,
        right_keys: Vec<BExpr>,
        residual: Option<BExpr>,
        kind: JoinKind,
        right_width: usize,
    },
    Sort {
        input: Box<Plan>,
        keys: Vec<(BExpr, bool)>,
    },
    /// Sort-based grouped aggregation (pipelined sort+group, as the paper
    /// describes the back-end RDBMS doing in Section 4.2). Output row is
    /// group keys followed by aggregate results.
    Aggregate {
        input: Box<Plan>,
        groups: Vec<BExpr>,
        aggs: Vec<AggSpec>,
    },
    Distinct {
        input: Box<Plan>,
    },
    Limit {
        input: Box<Plan>,
        n: u64,
    },
}

/// How a plan reads one base table — the transaction layer picks lock
/// granularity from this (and workload models use it to predict lock
/// footprints).
#[derive(Debug, Clone)]
pub enum TableRead {
    /// Sequential scan: needs a whole-table shared lock.
    Scan,
    /// Index scan on the primary key whose bounds are literal (known
    /// before execution): a shared key-range lock with phantom protection
    /// suffices.
    PkRange(KeyRange),
    /// Index scan on the primary key whose bounds are literals and
    /// parameter markers: the same key-range lock, once the statement's
    /// bindings are known ([`PkBounds::range`]).
    PkParams(PkBounds),
    /// Index-driven access whose keys are only known at run time (probe
    /// sides of index nested-loop joins, secondary indexes): a shared lock
    /// on existing rows.
    Probe,
}

/// The bounds of a primary-key index scan, made of literals and
/// parameter markers.
#[derive(Debug, Clone)]
pub struct PkBounds {
    lower: Option<IndexKeyBound>,
    upper: Option<IndexKeyBound>,
}

impl PkBounds {
    /// The keys the scan reads under `params`, as a lock range.
    pub fn range(&self, params: &[Value]) -> KeyRange {
        let (lo, hi) = (bound_key(&self.lower, params), bound_key(&self.upper, params));
        KeyRange::span(lo.flatten().as_deref(), hi.flatten().as_deref())
    }
}

/// Encoded key bytes for an index bound whose values are all literals or
/// markers bound in `params`: `None` = not known before the scan runs,
/// `Some(None)` = no bound, `Some(Some(bytes))` = the bound.
fn bound_key(bound: &Option<IndexKeyBound>, params: &[Value]) -> Option<Option<Vec<u8>>> {
    match bound {
        None => Some(None),
        Some(b) => {
            let vals: Option<Vec<Value>> = b
                .values
                .iter()
                .map(|e| match e {
                    BExpr::Literal(v) => Some(v.clone()),
                    BExpr::Param(i) => params.get(*i).cloned(),
                    _ => None,
                })
                .collect();
            vals.map(|v| Some(encode_key(&v)))
        }
    }
}

/// Is every value of the bound a literal or a parameter marker?
fn binds_to_key(bound: &Option<IndexKeyBound>) -> bool {
    bound.iter().flat_map(|b| &b.values).all(|e| matches!(e, BExpr::Literal(_) | BExpr::Param(_)))
}

/// One base-table access discovered by [`Plan::table_accesses`].
#[derive(Debug, Clone)]
pub struct TableAccess {
    pub table: String,
    pub read: TableRead,
}

impl Plan {
    /// Base tables this plan reads and how, recursing through children.
    /// Subqueries planned inside expressions are *not* visited: the planner
    /// flags the names they read ([`crate::planner::PlannedQuery`]), and
    /// [`crate::txn::select_read_locks`] locks those tables whole.
    pub fn table_accesses(&self) -> Vec<TableAccess> {
        let mut out = Vec::new();
        self.collect_accesses(&mut out);
        out
    }

    fn collect_accesses(&self, out: &mut Vec<TableAccess>) {
        match self {
            Plan::SeqScan { table, .. } => {
                out.push(TableAccess { table: table.name.clone(), read: TableRead::Scan });
            }
            Plan::IndexScan { table, index, lower, upper, .. } => {
                let on_pk = !table.primary_key.is_empty() && index.columns == table.primary_key;
                let read = match (on_pk, bound_key(lower, &[]), bound_key(upper, &[])) {
                    // An unbounded scan on the PK is an ordered full read:
                    // treat it like a probe (existing rows) rather than a
                    // whole-key-space phantom claim.
                    (true, Some(None), Some(None)) => TableRead::Probe,
                    (true, Some(lo), Some(hi)) => {
                        TableRead::PkRange(KeyRange::span(lo.as_deref(), hi.as_deref()))
                    }
                    (true, ..) if [lower, upper].iter().all(|b| binds_to_key(b)) => {
                        TableRead::PkParams(PkBounds { lower: lower.clone(), upper: upper.clone() })
                    }
                    _ => TableRead::Probe,
                };
                out.push(TableAccess { table: table.name.clone(), read });
            }
            Plan::Values { .. } | Plan::MonitorScan { .. } => {}
            Plan::Filter { input, .. }
            | Plan::Project { input, .. }
            | Plan::Sort { input, .. }
            | Plan::Aggregate { input, .. }
            | Plan::Distinct { input }
            | Plan::Limit { input, .. } => input.collect_accesses(out),
            Plan::NLJoin { left, right, .. } | Plan::HashJoin { left, right, .. } => {
                left.collect_accesses(out);
                right.collect_accesses(out);
            }
        }
    }

    /// Number of columns in this node's output rows.
    pub fn width(&self) -> usize {
        match self {
            Plan::SeqScan { table, .. } | Plan::IndexScan { table, .. } => table.schema.len(),
            Plan::Values { rows } => rows.first().map_or(0, Vec::len),
            Plan::MonitorScan { view } => view.schema().len(),
            Plan::Filter { input, .. }
            | Plan::Sort { input, .. }
            | Plan::Distinct { input }
            | Plan::Limit { input, .. } => input.width(),
            Plan::Project { exprs, .. } => exprs.len(),
            Plan::NLJoin { left, right_width, .. } | Plan::HashJoin { left, right_width, .. } => {
                left.width() + right_width
            }
            Plan::Aggregate { groups, aggs, .. } => groups.len() + aggs.len(),
        }
    }

    /// Mark in `cols` the columns of an enclosing row that this plan reads
    /// through `Outer` references, where that row sits `level` frames above
    /// the plan's own expressions (1 = the row the plan is executed under).
    /// Nested subqueries and correlated join inners run one frame deeper.
    pub(crate) fn mark_outer_refs(&self, level: usize, cols: &mut [bool]) {
        let mut mark = |e: &BExpr| e.mark_outer_refs(level, cols);
        match self {
            Plan::SeqScan { filter, .. } => filter.iter().for_each(mark),
            Plan::IndexScan { lower, upper, residual, .. } => {
                for bound in [lower, upper].into_iter().flatten() {
                    bound.values.iter().for_each(&mut mark);
                }
                residual.iter().for_each(mark);
            }
            Plan::Values { rows } => rows.iter().flatten().for_each(mark),
            Plan::Filter { pred, .. } => mark(pred),
            Plan::Project { exprs, .. } => exprs.iter().for_each(mark),
            Plan::NLJoin { on, .. } => on.iter().for_each(mark),
            Plan::HashJoin { left_keys, right_keys, residual, .. } => {
                left_keys.iter().chain(right_keys).chain(residual).for_each(mark)
            }
            Plan::Sort { keys, .. } => keys.iter().for_each(|(e, _)| mark(e)),
            Plan::Aggregate { groups, aggs, .. } => {
                groups.iter().chain(aggs.iter().filter_map(|a| a.arg.as_ref())).for_each(mark)
            }
            Plan::MonitorScan { .. } | Plan::Distinct { .. } | Plan::Limit { .. } => {}
        }
        match self {
            Plan::SeqScan { .. }
            | Plan::IndexScan { .. }
            | Plan::Values { .. }
            | Plan::MonitorScan { .. } => {}
            Plan::Filter { input, .. }
            | Plan::Project { input, .. }
            | Plan::Sort { input, .. }
            | Plan::Aggregate { input, .. }
            | Plan::Distinct { input }
            | Plan::Limit { input, .. } => input.mark_outer_refs(level, cols),
            Plan::NLJoin { left, right, right_correlated, .. } => {
                left.mark_outer_refs(level, cols);
                right.mark_outer_refs(level + usize::from(*right_correlated), cols);
            }
            Plan::HashJoin { left, right, .. } => {
                left.mark_outer_refs(level, cols);
                right.mark_outer_refs(level, cols);
            }
        }
    }

    /// One-line-per-node plan description (EXPLAIN output), used by tests
    /// to assert optimizer choices and by the experiment harness.
    pub fn describe(&self) -> String {
        let mut out = String::new();
        self.describe_into(&mut out, 0);
        out
    }

    fn describe_into(&self, out: &mut String, depth: usize) {
        let pad = "  ".repeat(depth);
        match self {
            Plan::SeqScan { table, filter, .. } => {
                out.push_str(&format!(
                    "{pad}SeqScan {} {}\n",
                    table.name,
                    if filter.is_some() { "(filtered)" } else { "" }
                ));
            }
            Plan::IndexScan { table, index, .. } => {
                out.push_str(&format!("{pad}IndexScan {} via {}\n", table.name, index.name));
            }
            Plan::Values { rows } => {
                out.push_str(&format!("{pad}Values ({} rows)\n", rows.len()));
            }
            Plan::MonitorScan { view } => {
                out.push_str(&format!("{pad}MonitorScan {}\n", view.name()));
            }
            Plan::Filter { input, .. } => {
                out.push_str(&format!("{pad}Filter\n"));
                input.describe_into(out, depth + 1);
            }
            Plan::Project { input, exprs } => {
                out.push_str(&format!("{pad}Project ({} cols)\n", exprs.len()));
                input.describe_into(out, depth + 1);
            }
            Plan::NLJoin { left, right, kind, .. } => {
                out.push_str(&format!("{pad}NLJoin {kind:?}\n"));
                left.describe_into(out, depth + 1);
                right.describe_into(out, depth + 1);
            }
            Plan::HashJoin { left, right, kind, left_keys, .. } => {
                out.push_str(&format!("{pad}HashJoin {kind:?} ({} keys)\n", left_keys.len()));
                left.describe_into(out, depth + 1);
                right.describe_into(out, depth + 1);
            }
            Plan::Sort { input, keys } => {
                out.push_str(&format!("{pad}Sort ({} keys)\n", keys.len()));
                input.describe_into(out, depth + 1);
            }
            Plan::Aggregate { input, groups, aggs } => {
                out.push_str(&format!(
                    "{pad}Aggregate ({} groups, {} aggs)\n",
                    groups.len(),
                    aggs.len()
                ));
                input.describe_into(out, depth + 1);
            }
            Plan::Distinct { input } => {
                out.push_str(&format!("{pad}Distinct\n"));
                input.describe_into(out, depth + 1);
            }
            Plan::Limit { input, n } => {
                out.push_str(&format!("{pad}Limit {n}\n"));
                input.describe_into(out, depth + 1);
            }
        }
    }

    /// Execute to completion.
    ///
    /// When a [`trace::TraceSession`] is active on the calling thread,
    /// every plan node opens a span named like its EXPLAIN line and records
    /// its output cardinality, so a query execution yields an
    /// `EXPLAIN ANALYZE`-style tree of per-node work deltas. The same spans
    /// open wall-clock frames in the active *request* trace (`M$SPANS`)
    /// when one is installed — either listener is enough to pay for the
    /// label formatting. Without either, the instrumentation is one
    /// thread-local check.
    pub fn execute(&self, ctx: &ExecCtx) -> DbResult<Vec<Row>> {
        if !trace::listening() {
            return self.execute_node(ctx);
        }
        let span = trace::span(&self.node_label());
        let rows = self.execute_node(ctx)?;
        span.attr("rows_out", rows.len());
        Ok(rows)
    }

    /// Span name for this node: operator plus its salient argument,
    /// mirroring the first line [`Plan::describe`] would print for it.
    fn node_label(&self) -> String {
        match self {
            Plan::SeqScan { table, filter, .. } => format!(
                "SeqScan {}{}",
                table.name,
                if filter.is_some() { " (filtered)" } else { "" }
            ),
            Plan::IndexScan { table, index, .. } => {
                format!("IndexScan {} via {}", table.name, index.name)
            }
            Plan::Values { rows } => format!("Values ({} rows)", rows.len()),
            Plan::MonitorScan { view } => format!("MonitorScan {}", view.name()),
            Plan::Filter { .. } => "Filter".to_string(),
            Plan::Project { exprs, .. } => format!("Project ({} cols)", exprs.len()),
            Plan::NLJoin { kind, .. } => format!("NLJoin {kind:?}"),
            Plan::HashJoin { kind, left_keys, .. } => {
                format!("HashJoin {kind:?} ({} keys)", left_keys.len())
            }
            Plan::Sort { keys, .. } => format!("Sort ({} keys)", keys.len()),
            Plan::Aggregate { groups, aggs, .. } => {
                format!("Aggregate ({} groups, {} aggs)", groups.len(), aggs.len())
            }
            Plan::Distinct { .. } => "Distinct".to_string(),
            Plan::Limit { n, .. } => format!("Limit {n}"),
        }
    }

    fn execute_node(&self, ctx: &ExecCtx) -> DbResult<Vec<Row>> {
        match self {
            Plan::SeqScan { table, filter, needed } => {
                // Decode what the filter reads, test it, and decode the
                // remaining needed columns of survivors only.
                let mut first = vec![false; needed.len()];
                if let Some(f) = filter {
                    f.mark_columns(&mut first);
                }
                let rest: Vec<bool> = needed.iter().zip(&first).map(|(n, f)| *n && !*f).collect();
                let mut out = Vec::new();
                let mut row = Row::new();
                let mut scan = table.heap.scan();
                while let Some(item) = scan.next_tuple() {
                    let (_, bytes) = item?;
                    ctx.meter.bump(Counter::DbTuples);
                    if let Some(f) = filter {
                        decode_columns(bytes, &first, &mut row)?;
                        if f.eval_bool(&row, ctx)? != Some(true) {
                            continue;
                        }
                    }
                    decode_columns(bytes, &rest, &mut row)?;
                    // The emptied `row` is regrown with NULLs by the next decode.
                    out.push(std::mem::take(&mut row));
                }
                Ok(out)
            }
            Plan::IndexScan { table, index, lower, upper, residual, needed } => {
                let lo = eval_bound(lower, ctx)?;
                let hi = eval_bound(upper, ctx)?;
                let (lo, hi) = match (lo, hi) {
                    (Some(l), Some(h)) => (l, h),
                    // A NULL in a bound means the predicate is UNKNOWN for
                    // every row: empty result.
                    _ => return Ok(Vec::new()),
                };
                // No lock is held between reading the index and fetching
                // by the rids read, and a rid names another row once its
                // own is gone. While the heap's version has not moved since
                // before the index was read, none did; from then on every
                // row is held against the key of the entry that led to it.
                let version = table.heap.version();
                let entries = {
                    let tree = index.tree.lock();
                    tree.range_scan(as_bound(&lo), as_bound(&hi))?
                };
                let mut changed = false;
                let mut out = Vec::with_capacity(entries.len());
                for (key, rid) in entries {
                    // Unclustered index: each qualifying tuple is a random
                    // heap fetch — the crux of the paper's Table 6.
                    let fetch = |want: &[bool]| {
                        table
                            .heap
                            .get_with(rid, AccessPattern::Random, |bytes| {
                                let mut row = Row::new();
                                decode_columns(bytes, want, &mut row).map(|()| row)
                            })?
                            .ok_or_else(|| DbError::storage("dangling index entry"))?
                    };
                    let mut row = Row::new();
                    if !changed {
                        row = fetch(needed)?;
                        changed = table.heap.version() != version;
                    }
                    if changed {
                        row = fetch(&[])?;
                        if !key.starts_with(&index.key_for(&row)) {
                            return Err(DbError::storage("dangling index entry"));
                        }
                    }
                    ctx.meter.bump(Counter::DbTuples);
                    if let Some(f) = residual {
                        if f.eval_bool(&row, ctx)? != Some(true) {
                            continue;
                        }
                    }
                    out.push(row);
                }
                Ok(out)
            }
            Plan::Values { rows } => {
                let mut out = Vec::with_capacity(rows.len());
                for exprs in rows {
                    let row: Row =
                        exprs.iter().map(|e| e.eval(&[], ctx)).collect::<DbResult<_>>()?;
                    out.push(row);
                }
                Ok(out)
            }
            Plan::MonitorScan { view } => {
                let rows = view.rows();
                ctx.meter.add(Counter::DbTuples, rows.len() as u64);
                Ok(rows)
            }
            Plan::Filter { input, pred } => {
                let rows = input.execute(ctx)?;
                let mut out = Vec::new();
                for row in rows {
                    if pred.eval_bool(&row, ctx)? == Some(true) {
                        out.push(row);
                    }
                }
                Ok(out)
            }
            Plan::Project { input, exprs } => {
                let rows = input.execute(ctx)?;
                let mut out = Vec::with_capacity(rows.len());
                for row in rows {
                    let projected: Row =
                        exprs.iter().map(|e| e.eval(&row, ctx)).collect::<DbResult<_>>()?;
                    out.push(projected);
                }
                Ok(out)
            }
            Plan::NLJoin { left, right, kind, on, right_correlated, right_width } => {
                let left_rows = left.execute(ctx)?;
                // Uncorrelated inner: materialize once, borrow per outer row.
                let materialized_right: Option<Vec<Row>> =
                    if *right_correlated { None } else { Some(right.execute(ctx)?) };
                let mut out = Vec::new();
                for lrow in &left_rows {
                    let correlated_right;
                    let right_rows: &[Row] = match &materialized_right {
                        Some(r) => r,
                        None => {
                            correlated_right = right.execute(&ctx.push_outer(lrow))?;
                            &correlated_right
                        }
                    };
                    let mut matched = false;
                    for rrow in right_rows {
                        ctx.meter.bump(Counter::DbTuples);
                        let ok = match on {
                            Some(p) => p.eval_bool_pair(lrow, rrow, ctx)? == Some(true),
                            None => true,
                        };
                        if ok {
                            matched = true;
                            out.push([lrow.as_slice(), rrow].concat());
                        }
                    }
                    if *kind == JoinKind::LeftOuter && !matched {
                        out.push(null_extended(lrow, *right_width));
                    }
                }
                Ok(out)
            }
            Plan::HashJoin { left, right, left_keys, right_keys, residual, kind, right_width } => {
                let build_rows = left.execute(ctx)?;
                let probe_rows = right.execute(ctx)?;
                // Keys borrow from the build rows wherever the key
                // expression is a plain column.
                let mut table: HashMap<Vec<Cow<Value>>, Vec<usize>> =
                    HashMap::with_capacity(build_rows.len());
                for (i, row) in build_rows.iter().enumerate() {
                    ctx.meter.bump(Counter::DbTuples);
                    let key = join_key(left_keys, row, ctx)?;
                    if key.iter().any(|v| v.is_null()) {
                        continue; // null keys never join
                    }
                    table.entry(key).or_default().push(i);
                }
                let mut matched_build = vec![false; build_rows.len()];
                let mut out = Vec::new();
                for prow in &probe_rows {
                    ctx.meter.bump(Counter::DbTuples);
                    let key = join_key(right_keys, prow, ctx)?;
                    if key.iter().any(|v| v.is_null()) {
                        continue;
                    }
                    if let Some(idxs) = table.get(&key) {
                        for &i in idxs {
                            let ok = match residual {
                                Some(p) => {
                                    p.eval_bool_pair(&build_rows[i], prow, ctx)? == Some(true)
                                }
                                None => true,
                            };
                            if ok {
                                matched_build[i] = true;
                                out.push([build_rows[i].as_slice(), prow].concat());
                            }
                        }
                    }
                }
                if *kind == JoinKind::LeftOuter {
                    for (row, matched) in build_rows.iter().zip(&matched_build) {
                        if !matched {
                            out.push(null_extended(row, *right_width));
                        }
                    }
                }
                Ok(out)
            }
            Plan::Sort { input, keys } => {
                let rows = input.execute(ctx)?;
                ctx.meter.add(Counter::DbTuples, rows.len() as u64);
                sort_rows(rows, keys, ctx)
            }
            Plan::Aggregate { input, groups, aggs } => {
                let rows = input.execute(ctx)?;
                ctx.meter.add(Counter::DbTuples, rows.len() as u64);
                aggregate(rows, groups, aggs, ctx)
            }
            Plan::Distinct { input } => {
                let mut rows = input.execute(ctx)?;
                ctx.meter.add(Counter::DbTuples, rows.len() as u64);
                let first_seen: Vec<bool> = {
                    let mut seen: HashSet<&[Value]> = HashSet::with_capacity(rows.len());
                    rows.iter().map(|row| seen.insert(row)).collect()
                };
                let mut first_seen = first_seen.into_iter();
                rows.retain(|_| first_seen.next().expect("one flag per row"));
                Ok(rows)
            }
            Plan::Limit { input, n } => {
                let mut rows = input.execute(ctx)?;
                rows.truncate(*n as usize);
                Ok(rows)
            }
        }
    }
}

/// `left` followed by `right_width` NULLs (the unmatched side of an outer join).
fn null_extended(left: &[Value], right_width: usize) -> Row {
    let mut row = Vec::with_capacity(left.len() + right_width);
    row.extend_from_slice(left);
    row.resize(left.len() + right_width, Value::Null);
    row
}

fn join_key<'v>(
    keys: &'v [BExpr],
    row: &'v [Value],
    ctx: &'v ExecCtx<'v>,
) -> DbResult<Vec<Cow<'v, Value>>> {
    keys.iter().map(|e| e.eval_cow(row, ctx)).collect()
}

fn eval_bound(bound: &Option<IndexKeyBound>, ctx: &ExecCtx) -> DbResult<Option<EvaluatedBound>> {
    match bound {
        None => Ok(Some(EvaluatedBound::Unbounded)),
        Some(b) => {
            let mut vals = Vec::with_capacity(b.values.len());
            for e in &b.values {
                let v = e.eval(&[], ctx)?;
                if v.is_null() {
                    return Ok(None);
                }
                vals.push(v);
            }
            Ok(Some(EvaluatedBound::Key { bytes: encode_key(&vals), inclusive: b.inclusive }))
        }
    }
}

enum EvaluatedBound {
    Unbounded,
    Key { bytes: Vec<u8>, inclusive: bool },
}

fn as_bound(b: &EvaluatedBound) -> Bound<&[u8]> {
    match b {
        EvaluatedBound::Unbounded => Bound::Unbounded,
        EvaluatedBound::Key { bytes, inclusive: true } => Bound::Included(bytes.as_slice()),
        EvaluatedBound::Key { bytes, inclusive: false } => Bound::Excluded(bytes.as_slice()),
    }
}

/// The values of `exprs` for every row, row-major in one buffer (row `i`
/// owns `keys[i * exprs.len()..][..exprs.len()]`), borrowed from the rows
/// wherever an expression is a plain column.
fn eval_keys<'v>(
    rows: &'v [Row],
    exprs: impl Iterator<Item = &'v BExpr> + Clone,
    ctx: &'v ExecCtx<'v>,
) -> DbResult<Vec<Cow<'v, Value>>> {
    let mut keys = Vec::new();
    for row in rows {
        for e in exprs.clone() {
            keys.push(e.eval_cow(row, ctx)?);
        }
    }
    Ok(keys)
}

/// Move `rows` out in the order `perm` lists their indexes.
fn permute(mut rows: Vec<Row>, perm: &[usize]) -> Vec<Row> {
    perm.iter().map(|&i| std::mem::take(&mut rows[i])).collect()
}

/// Stable multi-key sort: keys are computed once per row and an index
/// permutation is sorted, so neither keys nor rows are copied.
pub fn sort_rows(rows: Vec<Row>, keys: &[(BExpr, bool)], ctx: &ExecCtx) -> DbResult<Vec<Row>> {
    let width = keys.len();
    let mut perm: Vec<usize> = (0..rows.len()).collect();
    {
        let vals = eval_keys(&rows, keys.iter().map(|(e, _)| e), ctx)?;
        perm.sort_by(|&a, &b| {
            let (ka, kb) = (&vals[a * width..][..width], &vals[b * width..][..width]);
            for ((x, y), (_, desc)) in ka.iter().zip(kb).zip(keys) {
                let ord = x.total_cmp(y);
                let ord = if *desc { ord.reverse() } else { ord };
                if !ord.is_eq() {
                    return ord;
                }
            }
            Ordering::Equal
        });
    }
    Ok(permute(rows, &perm))
}

/// One aggregate's accumulator.
struct Acc {
    count: u64,
    sum: Option<Value>,
    min: Option<Value>,
    max: Option<Value>,
    distinct: Option<HashSet<Value>>,
}

impl Acc {
    fn new(distinct: bool) -> Self {
        Acc {
            count: 0,
            sum: None,
            min: None,
            max: None,
            distinct: if distinct { Some(HashSet::new()) } else { None },
        }
    }

    /// Fold one input value in; it is copied only where the accumulator
    /// keeps it (a new distinct value, the first addend, a new extreme).
    fn update(&mut self, v: &Value, func: AggFunc) -> DbResult<()> {
        if v.is_null() {
            return Ok(());
        }
        if let Some(set) = &mut self.distinct {
            if set.contains(v) {
                return Ok(());
            }
            set.insert(v.clone());
        }
        self.count += 1;
        match func {
            AggFunc::Count => {}
            AggFunc::Sum | AggFunc::Avg => {
                self.sum = Some(match &self.sum {
                    None => v.clone(),
                    Some(s) => crate::exec::expr::arith(s, BinOp::Add, v)?,
                });
            }
            AggFunc::Min => {
                if self.min.as_ref().is_none_or(|m| v.total_cmp(m).is_lt()) {
                    self.min = Some(v.clone());
                }
            }
            AggFunc::Max => {
                if self.max.as_ref().is_none_or(|m| v.total_cmp(m).is_gt()) {
                    self.max = Some(v.clone());
                }
            }
        }
        Ok(())
    }

    fn finish(&self, func: AggFunc) -> DbResult<Value> {
        Ok(match func {
            AggFunc::Count => Value::Int(self.count as i64),
            AggFunc::Sum => self.sum.clone().unwrap_or(Value::Null),
            AggFunc::Min => self.min.clone().unwrap_or(Value::Null),
            AggFunc::Max => self.max.clone().unwrap_or(Value::Null),
            AggFunc::Avg => match &self.sum {
                None => Value::Null,
                Some(s) => {
                    let sum = s.as_decimal()?;
                    Value::Decimal(sum.div(Decimal::from_int(self.count as i64))?)
                }
            },
        })
    }
}

/// Sort-based grouping: sort input rows by group keys, then stream groups.
fn aggregate(
    rows: Vec<Row>,
    groups: &[BExpr],
    aggs: &[AggSpec],
    ctx: &ExecCtx,
) -> DbResult<Vec<Row>> {
    // Scalar aggregate (no GROUP BY): one group, present even for empty input.
    if groups.is_empty() {
        let mut accs: Vec<Acc> = aggs.iter().map(|a| Acc::new(a.distinct)).collect();
        for row in &rows {
            accumulate(&mut accs, aggs, row, ctx)?;
        }
        let out: Row = accs
            .iter()
            .zip(aggs)
            .map(|(acc, spec)| acc.finish(spec.func))
            .collect::<DbResult<_>>()?;
        return Ok(vec![out]);
    }
    // Sort row indexes by group key (pipelined sort+group), then stream
    // the groups off the permutation; keys stay borrowed from the rows.
    let width = groups.len();
    let keys = eval_keys(&rows, groups.iter(), ctx)?;
    let key = |i: usize| &keys[i * width..][..width];
    let cmp_keys = |a: usize, b: usize| {
        key(a)
            .iter()
            .zip(key(b))
            .map(|(x, y)| x.total_cmp(y))
            .find(|ord| !ord.is_eq())
            .unwrap_or(Ordering::Equal)
    };
    let mut perm: Vec<usize> = (0..rows.len()).collect();
    perm.sort_by(|&a, &b| cmp_keys(a, b));
    let mut out = Vec::new();
    let mut group_start: Option<usize> = None;
    let mut accs: Vec<Acc> = Vec::new();
    for &i in &perm {
        if group_start.is_none_or(|g| !cmp_keys(g, i).is_eq()) {
            if let Some(g) = group_start {
                out.push(finish_group(key(g), &accs, aggs)?);
            }
            group_start = Some(i);
            accs = aggs.iter().map(|a| Acc::new(a.distinct)).collect();
        }
        accumulate(&mut accs, aggs, &rows[i], ctx)?;
    }
    if let Some(g) = group_start {
        out.push(finish_group(key(g), &accs, aggs)?);
    }
    Ok(out)
}

fn accumulate(accs: &mut [Acc], aggs: &[AggSpec], row: &Row, ctx: &ExecCtx) -> DbResult<()> {
    for (acc, spec) in accs.iter_mut().zip(aggs) {
        match &spec.arg {
            None => {
                // COUNT(*): counts every row.
                acc.count += 1;
            }
            Some(e) => acc.update(e.eval_cow(row, ctx)?.as_ref(), spec.func)?,
        }
    }
    Ok(())
}

fn finish_group(key: &[Cow<Value>], accs: &[Acc], aggs: &[AggSpec]) -> DbResult<Row> {
    let mut row: Row = key.iter().map(|v| v.as_ref().clone()).collect();
    for (acc, spec) in accs.iter().zip(aggs) {
        row.push(acc.finish(spec.func)?);
    }
    Ok(row)
}

impl std::fmt::Debug for Plan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.describe().trim_end())
    }
}
