//! Physical query plans and their pull executor.
//!
//! An open plan ([`Plan::open`]) is a tree of cursors that hand their
//! output up in batches of rows; only sort, distinct, a hash join's build
//! side, an aggregate's groups and a nested-loop join's sides are held
//! whole. All physical work — page I/O through the pager, per-tuple CPU —
//! is metered into the engine's [`trace::meter::CostMeter`], which is what
//! the paper-reproduction experiments read out. What a query meters, and
//! the order it reads pages in, do not depend on how its rows are cut
//! into batches (DESIGN.md §15.5).
//!
//! On the way a row is not copied, and it holds only the columns the plan
//! reads: scans decode just those, into compact rows (the planner rebinds
//! every expression to the compact positions, DESIGN.md §15.1), predicates
//! are evaluated on borrowed values, joins test the (left, right) pair and
//! build the combined row only for matches, and sort/group/distinct order,
//! number or mark rows over borrowed keys. A streamed batch is handed back
//! down once consumed ([`Cursor::recycle`]) to the scan or projection that
//! made its rows, which refills them, so a pipeline allocates per row it
//! keeps, not per row it passes.

use crate::catalog::{Index, Table};
use crate::error::{DbError, DbResult};
use crate::exec::expr::{AggSpec, BExpr, ExecCtx, FxBuild, FxHasher};
use crate::lock::KeyRange;
use crate::schema::Row;
use crate::sql::ast::{AggFunc, BinOp, JoinKind};
use crate::storage::codec::{decode_columns, encode_key};
use crate::storage::{AccessPattern, HeapScan, Rid};
use crate::types::{Decimal, Value};
use std::borrow::Cow;
use std::cmp::Ordering;
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasher, Hash, Hasher};
use std::ops::Bound;
use std::sync::Arc;
use trace::meter::{CostMeter, Counter};

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
        /// The stored columns read by `filter` or by any operator above:
        /// the scan's rows hold only these, in stored order. All columns
        /// until the planner's needed-column pass narrows it.
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
    /// Grouped aggregation, output sorted by the group keys: the order of
    /// the sort+group pipeline the paper describes the back-end RDBMS
    /// running (Section 4.2), computed by hashing (§15.5 of DESIGN.md).
    /// Output row is group keys followed by aggregate results.
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
            _ => {}
        }
        for input in self.inputs().into_iter().flatten() {
            input.collect_accesses(out);
        }
    }

    /// Number of columns in this node's output rows.
    pub fn width(&self) -> usize {
        match self {
            Plan::SeqScan { needed, .. } | Plan::IndexScan { needed, .. } => {
                needed.iter().filter(|n| **n).count()
            }
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
        let correlated = matches!(self, Plan::NLJoin { right_correlated: true, .. });
        let [left, right] = self.inputs();
        left.into_iter().for_each(|p| p.mark_outer_refs(level, cols));
        right.into_iter().for_each(|p| p.mark_outer_refs(level + usize::from(correlated), cols));
    }

    /// The mutable mirror of [`Plan::mark_outer_refs`]: the enclosing row
    /// `level` frames above this plan's own expressions lost columns, and
    /// its column `i` is now column `map[i]` ([`BExpr::rebind`]).
    pub(crate) fn rebind_outer_refs(
        &mut self,
        level: usize,
        map: &[Option<usize>],
    ) -> DbResult<()> {
        for e in self.exprs_mut(true) {
            e.rebind(level, map)?;
        }
        let correlated = matches!(self, Plan::NLJoin { right_correlated: true, .. });
        let [left, right] = self.inputs_mut();
        if let Some(p) = left {
            p.rebind_outer_refs(level, map)?;
        }
        if let Some(p) = right {
            p.rebind_outer_refs(level + usize::from(correlated), map)?;
        }
        Ok(())
    }

    /// [`BExpr::fold_literals`] over every expression of the plan, its
    /// inputs' and its subqueries', except index bounds: those are
    /// evaluated once per open anyway, and whether they are literals
    /// decides the lock a scan takes ([`Plan::table_accesses`]).
    pub(crate) fn fold_literals(&mut self) {
        for e in self.exprs_mut(false) {
            e.fold_literals();
        }
        for input in self.inputs_mut().into_iter().flatten() {
            input.fold_literals();
        }
    }

    /// This node's own expressions, index bounds only if `bounds`.
    fn exprs_mut(&mut self, bounds: bool) -> Vec<&mut BExpr> {
        match self {
            Plan::SeqScan { filter, .. } => filter.iter_mut().collect(),
            Plan::IndexScan { lower, upper, residual, .. } => [lower, upper]
                .into_iter()
                .filter(|_| bounds)
                .flatten()
                .flat_map(|bound| &mut bound.values)
                .chain(residual)
                .collect(),
            Plan::Values { rows } => rows.iter_mut().flatten().collect(),
            Plan::Filter { pred, .. } => vec![pred],
            Plan::Project { exprs, .. } => exprs.iter_mut().collect(),
            Plan::NLJoin { on, .. } => on.iter_mut().collect(),
            Plan::HashJoin { left_keys, right_keys, residual, .. } => {
                left_keys.iter_mut().chain(right_keys).chain(residual).collect()
            }
            Plan::Sort { keys, .. } => keys.iter_mut().map(|(e, _)| e).collect(),
            Plan::Aggregate { groups, aggs, .. } => {
                groups.iter_mut().chain(aggs.iter_mut().filter_map(|a| a.arg.as_mut())).collect()
            }
            Plan::MonitorScan { .. } | Plan::Distinct { .. } | Plan::Limit { .. } => Vec::new(),
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
        out.push_str(&format!("{}{}\n", "  ".repeat(depth), self.node_label()));
        for input in self.inputs().into_iter().flatten() {
            input.describe_into(out, depth + 1);
        }
    }

    /// The node's inputs, left to right.
    fn inputs(&self) -> [Option<&Plan>; 2] {
        match self {
            Plan::SeqScan { .. }
            | Plan::IndexScan { .. }
            | Plan::Values { .. }
            | Plan::MonitorScan { .. } => [None, None],
            Plan::Filter { input, .. }
            | Plan::Project { input, .. }
            | Plan::Sort { input, .. }
            | Plan::Aggregate { input, .. }
            | Plan::Distinct { input }
            | Plan::Limit { input, .. } => [Some(input), None],
            Plan::NLJoin { left, right, .. } | Plan::HashJoin { left, right, .. } => {
                [Some(left), Some(right)]
            }
        }
    }

    /// [`Plan::inputs`], to rewrite.
    fn inputs_mut(&mut self) -> [Option<&mut Plan>; 2] {
        match self {
            Plan::SeqScan { .. }
            | Plan::IndexScan { .. }
            | Plan::Values { .. }
            | Plan::MonitorScan { .. } => [None, None],
            Plan::Filter { input, .. }
            | Plan::Project { input, .. }
            | Plan::Sort { input, .. }
            | Plan::Aggregate { input, .. }
            | Plan::Distinct { input }
            | Plan::Limit { input, .. } => [Some(input), None],
            Plan::NLJoin { left, right, .. } | Plan::HashJoin { left, right, .. } => {
                [Some(left), Some(right)]
            }
        }
    }

    /// Open the plan: a cursor that does no work until its first
    /// [`Cursor::next`].
    ///
    /// When a [`trace::TraceSession`] is active on the calling thread,
    /// every plan node has a span named like its EXPLAIN line, entered for
    /// each of its `next` calls and closed after the last with its output
    /// cardinality, so a query execution yields an `EXPLAIN ANALYZE`-style
    /// tree of per-node work deltas. The same spans are wall-clock frames
    /// in the active *request* trace (`M$SPANS`) when one is installed —
    /// either listener is enough to pay for the label formatting. Without
    /// either, the instrumentation is one thread-local check per open.
    pub fn open(&self) -> Cursor<'_> {
        Cursor {
            node: Node { plan: self, state: State::Start, spare: Vec::new() },
            span: trace::listening().then(|| trace::ResumableSpan::new(self.node_label())),
            rows_out: 0,
        }
    }

    /// Execute to completion: open the plan, then drain it.
    pub fn execute(&self, ctx: &ExecCtx) -> DbResult<Vec<Row>> {
        let mut cursor = self.open();
        let mut rows = Vec::new();
        while let Some(mut batch) = cursor.next(ctx)? {
            rows.append(&mut batch);
        }
        Ok(rows)
    }

    /// This node's EXPLAIN line and span name: operator plus its salient
    /// argument.
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
}

/// Rows per batch for every operator but `SeqScan`, which hands over the
/// survivors of one heap page at a time. A join closes a batch only
/// between two rows of its driving side, so one row's matches may run
/// past it. A constant, not a setting.
pub const BATCH_ROWS: usize = 64;

/// An open plan node ([`Plan::open`]): a pull cursor handing out its
/// output in non-empty batches, then `None`.
pub struct Cursor<'p> {
    node: Node<'p>,
    span: Option<trace::ResumableSpan>,
    rows_out: usize,
}

impl Cursor<'_> {
    /// The next batch of rows, or `None` once the node is drained.
    pub fn next(&mut self, ctx: &ExecCtx) -> DbResult<Option<Vec<Row>>> {
        let Some(span) = &mut self.span else {
            return self.node.pull(ctx);
        };
        let call = span.enter();
        let pulled = self.node.pull(ctx);
        drop(call);
        match &pulled {
            Ok(Some(batch)) => self.rows_out += batch.len(),
            Ok(None) => span.attr("rows_out", self.rows_out),
            Err(_) => {}
        }
        if let Some(span) = self.span.take_if(|_| !matches!(pulled, Ok(Some(_)))) {
            span.close();
        }
        pulled
    }

    /// Hand back rows of batches this cursor gave out, once the caller is
    /// done with them, to be refilled instead of allocated anew. Rows the
    /// caller keeps must not come back. It does no I/O and meters nothing.
    pub fn recycle(&mut self, rows: impl IntoIterator<Item = Row>) {
        self.node.recycle(rows);
    }
}

struct Node<'p> {
    plan: &'p Plan,
    state: State<'p>,
    /// Consumed output rows handed back, for a scan or `Project` to
    /// refill: at most one batch (`BATCH_ROWS`, or a scan's last page of
    /// survivors if that is more).
    spare: Vec<Row>,
}

/// Where an open node stands between two calls.
enum State<'p> {
    /// Not called yet: the first call opens the inputs and drains those
    /// the node reads whole.
    Start,
    /// A `SeqScan`: `first` (what its filter reads) and `rest` split its
    /// `needed` columns, in stored positions; `width` counts them. `last`
    /// is the length of the batch handed out last.
    Scan {
        scan: HeapScan<'p>,
        first: Vec<bool>,
        rest: Vec<bool>,
        width: usize,
        last: usize,
    },
    Fetch {
        entries: std::vec::IntoIter<(Vec<u8>, Rid)>,
        version: u64,
        changed: bool,
        width: usize,
    },
    /// The output, computed in full.
    Rows(std::vec::IntoIter<Row>),
    /// `Filter`, `Project` and `Limit` (with the rows it has been offered).
    Pipe(Input<'p>, u64),
    NLJoin {
        left: std::vec::IntoIter<Row>,
        right: Option<Vec<Row>>,
    },
    HashJoin(Box<Probe<'p>>),
    Done,
}

/// A node's streamed input. It is drained first instead when the node's
/// own expressions hold a subquery, so that the subquery's page reads
/// still follow all of the input's.
enum Input<'p> {
    Open(Box<Cursor<'p>>),
    Drained(std::vec::IntoIter<Row>),
}

impl<'p> Input<'p> {
    fn new<'e>(
        plan: &'p Plan,
        exprs: impl IntoIterator<Item = &'e BExpr>,
        ctx: &ExecCtx,
    ) -> DbResult<Self> {
        let holds_subquery = |e: &BExpr| {
            let mut found = false;
            e.visit(&mut |x| found |= matches!(x, BExpr::Subquery(_)));
            found
        };
        Ok(if exprs.into_iter().any(holds_subquery) {
            Input::Drained(plan.execute(ctx)?.into_iter())
        } else {
            Input::Open(Box::new(plan.open()))
        })
    }

    fn next(&mut self, ctx: &ExecCtx) -> DbResult<Option<Vec<Row>>> {
        match self {
            Input::Open(cursor) => cursor.next(ctx),
            Input::Drained(rows) => Ok(take_batch(rows)),
        }
    }

    /// [`Cursor::recycle`]; drained rows are simply dropped.
    fn recycle(&mut self, rows: impl IntoIterator<Item = Row>) {
        if let Input::Open(cursor) = self {
            cursor.recycle(rows);
        }
    }
}

fn take_batch(rows: &mut std::vec::IntoIter<Row>) -> Option<Vec<Row>> {
    let batch: Vec<Row> = rows.take(BATCH_ROWS).collect();
    (!batch.is_empty()).then_some(batch)
}

impl<'p> Node<'p> {
    fn pull(&mut self, ctx: &ExecCtx) -> DbResult<Option<Vec<Row>>> {
        if let State::Start = self.state {
            self.state = self.start(ctx)?;
        }
        let batch = match (&mut self.state, self.plan) {
            (
                State::Scan { scan, first, rest, width, last },
                Plan::SeqScan { filter, needed, .. },
            ) => {
                // Decode what the filter reads, test it, and decode the
                // remaining needed columns of survivors only, each into a
                // spare row while there is one. A rejected tuple leaves
                // `row` to the next one, string buffers and all.
                let mut out = Vec::with_capacity(*last);
                let mut row = self.spare.pop().unwrap_or_default();
                let mut tuples = Tally(ctx.meter, 0);
                let mut done = false;
                while out.is_empty() || !scan.page_done() {
                    let Some(item) = scan.next_tuple() else {
                        done = true;
                        break;
                    };
                    let (_, bytes) = item?;
                    tuples.1 += 1;
                    if row.capacity() == 0 {
                        row.reserve_exact(*width);
                    }
                    if let Some(f) = filter {
                        decode_columns(bytes, needed, first, &mut row)?;
                        if f.eval_bool(&row, ctx)? != Some(true) {
                            continue;
                        }
                    }
                    decode_columns(bytes, needed, rest, &mut row)?;
                    out.push(std::mem::replace(&mut row, self.spare.pop().unwrap_or_default()));
                }
                *last = out.len();
                if done {
                    self.state = State::Done;
                    self.spare = Vec::new();
                } else {
                    self.spare.push(row);
                }
                return Ok((!out.is_empty()).then_some(out));
            }
            (
                State::Fetch { entries, version, changed, width },
                Plan::IndexScan { table, index, residual, needed, .. },
            ) => {
                let mut out = Vec::new();
                for (key, rid) in entries.by_ref() {
                    // Unclustered index: each qualifying tuple is a random
                    // heap fetch — the crux of the paper's Table 6.
                    let fetch = |keep: &[bool], mut row: Row| {
                        table
                            .heap
                            .get_with(rid, AccessPattern::Random, |bytes| {
                                decode_columns(bytes, keep, &[], &mut row).map(|()| row)
                            })?
                            .ok_or_else(|| DbError::storage("dangling index entry"))?
                    };
                    let mut row = self.spare.pop().unwrap_or_else(|| Row::with_capacity(*width));
                    if !*changed {
                        row = fetch(needed, row)?;
                        *changed = table.heap.version() != *version;
                    }
                    if *changed {
                        row = fetch(&[], row)?;
                        if !key.starts_with(&index.key_for(&row)) {
                            return Err(DbError::storage("dangling index entry"));
                        }
                        let mut kept = needed.iter();
                        row.retain(|_| *kept.next().unwrap_or(&true));
                    }
                    ctx.meter.bump(Counter::DbTuples);
                    if let Some(f) = residual {
                        if f.eval_bool(&row, ctx)? != Some(true) {
                            self.spare.push(row);
                            continue;
                        }
                    }
                    out.push(row);
                    if out.len() == BATCH_ROWS {
                        break;
                    }
                }
                (!out.is_empty()).then_some(out)
            }
            (State::Rows(rows), _) => take_batch(rows),
            // Survivors move to the front in order; the rejected rows go
            // back to the input.
            (State::Pipe(input, _), Plan::Filter { pred, .. }) => loop {
                let Some(mut batch) = input.next(ctx)? else { break None };
                let mut kept = 0;
                for i in 0..batch.len() {
                    if pred.eval_bool(&batch[i], ctx)? == Some(true) {
                        batch.swap(kept, i);
                        kept += 1;
                    }
                }
                input.recycle(batch.drain(kept..));
                if !batch.is_empty() {
                    break Some(batch);
                }
            },
            (State::Pipe(input, _), Plan::Project { exprs, .. }) => match input.next(ctx)? {
                None => None,
                Some(batch) => {
                    let mut out = Vec::with_capacity(batch.len());
                    for row in &batch {
                        let mut new = self.spare.pop().unwrap_or_default();
                        new.resize(exprs.len(), Value::Null);
                        for (slot, e) in new.iter_mut().zip(exprs) {
                            match e.eval_cow(row, ctx)? {
                                Cow::Borrowed(v) => assign(slot, v),
                                Cow::Owned(v) => *slot = v,
                            }
                        }
                        out.push(new);
                    }
                    input.recycle(batch);
                    Some(out)
                }
            },
            // Every row is pulled: stopping at `n` would change what the
            // query meters (DESIGN.md §15.5). The rows cut go back.
            (State::Pipe(input, offered), Plan::Limit { n, .. }) => loop {
                let Some(mut batch) = input.next(ctx)? else { break None };
                let room = n.saturating_sub(*offered);
                *offered += batch.len() as u64;
                input.recycle(batch.drain(room.min(batch.len() as u64) as usize..));
                if !batch.is_empty() {
                    break Some(batch);
                }
            },
            (
                State::NLJoin { left, right: inner },
                Plan::NLJoin { right, kind, on, right_width, .. },
            ) => {
                let mut out = Vec::new();
                while out.len() < BATCH_ROWS {
                    let Some(lrow) = left.next() else { break };
                    let correlated_right;
                    let right_rows: &[Row] = match inner {
                        Some(r) => r,
                        None => {
                            correlated_right = right.execute(&ctx.push_outer(&lrow))?;
                            &correlated_right
                        }
                    };
                    let mut matched = false;
                    for rrow in right_rows {
                        ctx.meter.bump(Counter::DbTuples);
                        let ok = match on {
                            Some(p) => p.eval_bool_pair(&lrow, rrow, ctx)? == Some(true),
                            None => true,
                        };
                        if ok {
                            matched = true;
                            out.push([lrow.as_slice(), rrow].concat());
                        }
                    }
                    if *kind == JoinKind::LeftOuter && !matched {
                        out.push(null_extended(&lrow, *right_width));
                    }
                }
                (!out.is_empty()).then_some(out)
            }
            (State::HashJoin(probe), plan) => probe.pull(plan, ctx)?,
            _ => None,
        };
        if batch.is_none() {
            self.state = State::Done;
            self.spare = Vec::new();
        }
        Ok(batch)
    }

    /// [`Cursor::recycle`]: `Filter`, `Limit` and the hash join pass the
    /// rows down to their (probe) input, whose rows they are; scans and
    /// `Project` keep them to refill, up to one batch. Every other node,
    /// and a drained one, drops them.
    fn recycle(&mut self, rows: impl IntoIterator<Item = Row>) {
        let cap = match (&mut self.state, self.plan) {
            (State::Pipe(input, _), Plan::Filter { .. } | Plan::Limit { .. }) => {
                return input.recycle(rows);
            }
            (State::HashJoin(probe), _) => return probe.recycle(rows),
            (State::Scan { last, .. }, _) => BATCH_ROWS.max(*last),
            (State::Fetch { .. }, _) | (State::Pipe(..), Plan::Project { .. }) => BATCH_ROWS,
            _ => return,
        };
        let room = cap.saturating_sub(self.spare.len());
        self.spare.extend(rows.into_iter().take(room));
    }

    /// The first call's work: open the inputs, drain those read whole.
    fn start(&self, ctx: &ExecCtx) -> DbResult<State<'p>> {
        let plan: &'p Plan = self.plan;
        Ok(match plan {
            Plan::SeqScan { table, filter, needed } => {
                // The filter reads compact positions; map them back to
                // stored ones (the `k`-th needed column is compact `k`).
                let width = plan.width();
                let mut read = vec![false; width];
                if let Some(f) = filter {
                    f.mark_columns(&mut read);
                }
                let mut read = read.into_iter();
                let first: Vec<bool> =
                    needed.iter().map(|&n| n && read.next().unwrap_or(false)).collect();
                let rest = needed.iter().zip(&first).map(|(n, f)| *n && !*f).collect();
                State::Scan { scan: table.heap.scan(), first, rest, width, last: 0 }
            }
            Plan::IndexScan { table, index, lower, upper, .. } => {
                let (lo, hi) = match (eval_bound(lower, ctx)?, eval_bound(upper, ctx)?) {
                    (Some(l), Some(h)) => (l, h),
                    // A NULL in a bound means the predicate is UNKNOWN for
                    // every row: empty result.
                    _ => return Ok(State::Done),
                };
                // No lock is held between reading the index and fetching
                // by the rids read, and a rid names another row once its
                // own is gone. While the heap's version has not moved since
                // before the index was read, none did; from then on every
                // row is held against the key of the entry that led to it.
                let version = table.heap.version();
                let entries = index.tree.lock().range_scan(as_bound(&lo), as_bound(&hi))?;
                State::Fetch {
                    entries: entries.into_iter(),
                    version,
                    changed: false,
                    width: plan.width(),
                }
            }
            Plan::Values { rows } => State::Rows(
                rows.iter()
                    .map(|exprs| exprs.iter().map(|e| e.eval(&[], ctx)).collect())
                    .collect::<DbResult<Vec<Row>>>()?
                    .into_iter(),
            ),
            Plan::MonitorScan { view } => {
                let rows = view.rows();
                ctx.meter.add(Counter::DbTuples, rows.len() as u64);
                State::Rows(rows.into_iter())
            }
            Plan::Filter { input, pred } => State::Pipe(Input::new(input, [pred], ctx)?, 0),
            Plan::Project { input, exprs } => State::Pipe(Input::new(input, exprs, ctx)?, 0),
            Plan::Limit { input, .. } => State::Pipe(Input::new(input, [], ctx)?, 0),
            Plan::NLJoin { left, right, right_correlated, .. } => {
                let left = left.execute(ctx)?.into_iter();
                // Uncorrelated inner: materialize once, borrow per outer row.
                let right = if *right_correlated { None } else { Some(right.execute(ctx)?) };
                State::NLJoin { left, right }
            }
            Plan::HashJoin { .. } => State::HashJoin(Box::new(Probe::build(plan, ctx)?)),
            Plan::Sort { input, keys } => {
                let rows = input.execute(ctx)?;
                ctx.meter.add(Counter::DbTuples, rows.len() as u64);
                State::Rows(sort_rows(rows, keys, ctx)?.into_iter())
            }
            Plan::Aggregate { input, groups, aggs } => {
                State::Rows(aggregate(input, groups, aggs, ctx)?.into_iter())
            }
            Plan::Distinct { input } => {
                let mut rows = input.execute(ctx)?;
                ctx.meter.add(Counter::DbTuples, rows.len() as u64);
                let mut seen = HashSet::with_capacity_and_hasher(rows.len(), FxBuild::default());
                let first_seen: Vec<bool> = rows.iter().map(|row| seen.insert(&row[..])).collect();
                let mut first_seen = first_seen.into_iter();
                rows.retain(|_| first_seen.next().expect("one flag per row"));
                State::Rows(rows.into_iter())
            }
        })
    }
}

/// A hash join past its build: the build rows, grouped by key, and the
/// probe input still to stream.
struct Probe<'p> {
    build: Vec<Row>,
    keys: KeyTable,
    /// The build rows of key `id`, in input order: `first[id]`, then each
    /// one's `next`.
    first: Vec<Option<usize>>,
    next: Vec<Option<usize>>,
    probe_key: RowKey<'p>,
    matched: Vec<bool>,
    /// `None` once drained.
    probe: Option<Input<'p>>,
    /// The rest of the probe batch being joined.
    pending: std::vec::IntoIter<Row>,
    /// Build rows a left outer join has emitted unmatched rows up to.
    unmatched_at: usize,
}

impl<'p> Probe<'p> {
    /// Drain the build side, open the probe side, then hash the build
    /// rows: the probe's first page read follows the build's last.
    fn build(plan: &'p Plan, ctx: &ExecCtx) -> DbResult<Self> {
        let Plan::HashJoin { left, right, left_keys, right_keys, residual, .. } = plan else {
            unreachable!("a hash join's state")
        };
        let build = left.execute(ctx)?;
        let probe = Input::new(right, left_keys.iter().chain(right_keys).chain(residual), ctx)?;
        let mut keys = KeyTable { width: left_keys.len(), ..KeyTable::default() };
        let mut key = RowKey::new(left_keys);
        // Each build row's key id; none for a NULL key, which never joins.
        let mut ids = Vec::with_capacity(build.len());
        let mut tuples = Tally(ctx.meter, 0);
        for row in &build {
            tuples.1 += 1;
            let (hash, null) = key.eval(row, ctx)?;
            ids.push((!null).then(|| keys.intern(hash, key.values(row))));
        }
        let mut first = vec![None; keys.len()];
        let mut next = vec![None; build.len()];
        for (i, id) in ids.into_iter().enumerate().rev() {
            if let Some(id) = id {
                next[i] = first[id].replace(i);
            }
        }
        Ok(Probe {
            matched: vec![false; build.len()],
            build,
            keys,
            first,
            next,
            probe_key: RowKey::new(right_keys),
            probe: Some(probe),
            pending: Vec::new().into_iter(),
            unmatched_at: 0,
        })
    }

    fn pull(&mut self, plan: &Plan, ctx: &ExecCtx) -> DbResult<Option<Vec<Row>>> {
        let Plan::HashJoin { residual, kind, right_width, .. } = plan else {
            unreachable!("a hash join's state")
        };
        let mut out = Vec::with_capacity(BATCH_ROWS);
        let mut tuples = Tally(ctx.meter, 0);
        while out.len() < BATCH_ROWS {
            let Some(mut prow) = self.pending.next() else {
                match self.probe.as_mut().map(|p| p.next(ctx)).transpose()?.flatten() {
                    Some(batch) => self.pending = batch.into_iter(),
                    None => {
                        self.probe = None;
                        break;
                    }
                }
                continue;
            };
            tuples.1 += 1;
            let (hash, null) = self.probe_key.eval(&prow, ctx)?;
            let id = (!null).then(|| self.keys.find(hash, self.probe_key.values(&prow))).flatten();
            // Every match but the last copies the probe row; the last
            // becomes it, the build row's values put in front. An
            // unmatched probe row goes back to the probe input.
            let (mut at, mut last) = (id.and_then(|id| self.first[id]), None);
            while let Some(i) = at {
                at = self.next[i];
                let ok = match residual {
                    Some(p) => p.eval_bool_pair(&self.build[i], &prow, ctx)? == Some(true),
                    None => true,
                };
                if ok {
                    self.matched[i] = true;
                    if let Some(j) = last.replace(i) {
                        out.push([self.build[j].as_slice(), &prow].concat());
                    }
                }
            }
            match last {
                Some(j) => {
                    prow.reserve_exact(self.build[j].len());
                    prow.splice(0..0, self.build[j].iter().cloned());
                    out.push(prow);
                }
                None => self.recycle([prow]),
            }
        }
        // Unmatched build rows of a left outer join come after every match.
        if self.probe.is_none() && *kind == JoinKind::LeftOuter {
            while out.len() < BATCH_ROWS && self.unmatched_at < self.build.len() {
                if !self.matched[self.unmatched_at] {
                    out.push(null_extended(&self.build[self.unmatched_at], *right_width));
                }
                self.unmatched_at += 1;
            }
        }
        Ok((!out.is_empty()).then_some(out))
    }

    /// Rows that came from the probe input go back to it while it is open.
    fn recycle(&mut self, rows: impl IntoIterator<Item = Row>) {
        if let Some(probe) = &mut self.probe {
            probe.recycle(rows);
        }
    }
}

/// One row's key: `exprs` over the row, each plain column read in place
/// and every other value computed into `computed`, a buffer that serves
/// row after row — so a key allocates nothing of its own, whatever its
/// width.
struct RowKey<'e> {
    exprs: &'e [BExpr],
    computed: Vec<Value>,
}

impl<'e> RowKey<'e> {
    fn new(exprs: &'e [BExpr]) -> Self {
        RowKey { exprs, computed: Vec::new() }
    }

    /// Evaluate the key over `row`: its hash, and whether a value is NULL.
    fn eval(&mut self, row: &[Value], ctx: &ExecCtx) -> DbResult<(u64, bool)> {
        self.computed.clear();
        for e in self.exprs.iter().filter(|e| !matches!(e, BExpr::Column(_))) {
            self.computed.push(e.eval(row, ctx)?);
        }
        let mut hasher = FxHasher::default();
        let mut null = false;
        for v in self.values(row) {
            v.hash(&mut hasher);
            null |= v.is_null();
        }
        Ok((hasher.finish(), null))
    }

    /// The key's values over `row`, as [`RowKey::eval`] last computed them.
    fn values<'a>(&'a self, row: &'a [Value]) -> impl Iterator<Item = &'a Value> + Clone {
        let mut computed = self.computed.iter();
        self.exprs.iter().map(move |e| match e {
            BExpr::Column(i) => &row[*i],
            _ => computed.next().expect("one computed value per expression"),
        })
    }
}

/// Keys of `width` values, numbered in first-seen order under `Value`'s
/// `Eq` and `Hash` — the equivalence `total_cmp` uses, so `Int 3` meets
/// `Decimal 3.00` and `'A'` meets `'A  '`. The caller hashes a key once
/// ([`RowKey`]); a lookup compares whole keys along that hash's chain. A
/// key is copied once, when it is first seen.
#[derive(Default)]
struct KeyTable {
    width: usize,
    keys: Vec<Value>,
    /// Hash → the newest key with that hash; `older[id]` → the one before.
    newest: HashMap<u64, usize, FxBuild>,
    older: Vec<Option<usize>>,
}

impl KeyTable {
    fn len(&self) -> usize {
        self.older.len()
    }

    fn key(&self, id: usize) -> &[Value] {
        &self.keys[id * self.width..][..self.width]
    }

    fn find<'a>(&self, hash: u64, key: impl Iterator<Item = &'a Value> + Clone) -> Option<usize> {
        std::iter::successors(self.newest.get(&hash).copied(), |&id| self.older[id])
            .find(|&id| self.key(id).iter().zip(key.clone()).all(|(a, b)| a == b))
    }

    /// The id of `key`, whose hash is `hash`, numbering it if it is new.
    fn intern<'a>(&mut self, hash: u64, key: impl Iterator<Item = &'a Value> + Clone) -> usize {
        self.find(hash, key.clone()).unwrap_or_else(|| {
            let id = self.len();
            self.older.push(self.newest.insert(hash, id));
            self.keys.extend(key.cloned());
            id
        })
    }
}

/// `DbTuples` counted in a local and added to the meter once, when the
/// tally is dropped: at the end of a batch, or on an early error return.
/// The totals are those of one bump per tuple (DESIGN.md §15.5).
struct Tally<'m>(&'m CostMeter, u64);

impl Drop for Tally<'_> {
    fn drop(&mut self) {
        if self.1 > 0 {
            self.0.add(Counter::DbTuples, self.1);
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

/// `*slot = v.clone()`, but a string slot keeps its buffer.
fn assign(slot: &mut Value, v: &Value) {
    match (slot, v) {
        (Value::Str(buf), Value::Str(s)) => buf.clone_from(s),
        (slot, v) => *slot = v.clone(),
    }
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

/// One aggregate's accumulator: COUNT, SUM, MIN, MAX and AVG over the
/// non-null values folded in, optionally DISTINCT. The executor's
/// aggregates and the R/3 report runtime's application-side ones share it.
pub struct Acc {
    count: u64,
    sum: Option<Value>,
    min: Option<Value>,
    max: Option<Value>,
    /// The distinct values folded in so far.
    distinct: Option<KeyTable>,
}

impl Acc {
    pub fn new(distinct: bool) -> Self {
        Acc {
            count: 0,
            sum: None,
            min: None,
            max: None,
            distinct: distinct.then(|| KeyTable { width: 1, ..KeyTable::default() }),
        }
    }

    /// Fold one input value in; it is copied only where the accumulator
    /// keeps it (a new distinct value, the first addend, a new extreme).
    pub fn update(&mut self, v: &Value, func: AggFunc) -> DbResult<()> {
        if v.is_null() {
            return Ok(());
        }
        if let Some(seen) = &mut self.distinct {
            let known = seen.len();
            if seen.intern(FxBuild::default().hash_one(v), std::iter::once(v)) < known {
                return Ok(());
            }
        }
        self.count += 1;
        match func {
            AggFunc::Count => {}
            // An addend of the running sum's own type adds in place.
            AggFunc::Sum | AggFunc::Avg => match (&mut self.sum, v) {
                (Some(Value::Decimal(s)), Value::Decimal(d)) => *s = s.add(*d),
                (Some(Value::Int(s)), Value::Int(d)) => *s += d,
                (Some(s), _) => *s = crate::exec::expr::arith(s, BinOp::Add, v)?,
                (None, _) => self.sum = Some(v.clone()),
            },
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

    pub fn finish(&self, func: AggFunc) -> DbResult<Value> {
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

/// Hash grouping: each row is folded into its group's accumulators in
/// input order as its batch arrives, and the groups are sorted by key at
/// the end — the order, the tie order and the key values (each group's
/// first row's) that sorting the rows by key and folding each run gave.
fn aggregate(
    input: &Plan,
    groups: &[BExpr],
    aggs: &[AggSpec],
    ctx: &ExecCtx,
) -> DbResult<Vec<Row>> {
    let args = aggs.iter().filter_map(|a| a.arg.as_ref());
    let mut input = Input::new(input, groups.iter().chain(args), ctx)?;
    let fresh = || aggs.iter().map(|a| Acc::new(a.distinct)).collect::<Vec<Acc>>();
    let mut keys = KeyTable { width: groups.len(), ..KeyTable::default() };
    let mut key = RowKey::new(groups);
    let mut accs: Vec<Vec<Acc>> = Vec::new();
    // Scalar aggregate (no GROUP BY): one group, present even for empty
    // input, whose key is the empty `keys.key(0)`.
    if groups.is_empty() {
        accs.push(fresh());
    }
    while let Some(batch) = input.next(ctx)? {
        ctx.meter.add(Counter::DbTuples, batch.len() as u64);
        for row in &batch {
            let id = if groups.is_empty() {
                0
            } else {
                let (hash, _) = key.eval(row, ctx)?;
                keys.intern(hash, key.values(row))
            };
            if id == accs.len() {
                accs.push(fresh());
            }
            accumulate(&mut accs[id], aggs, row, ctx)?;
        }
        input.recycle(batch);
    }
    let mut order: Vec<usize> = (0..accs.len()).collect();
    order.sort_by(|&a, &b| {
        let (ka, kb) = (keys.key(a), keys.key(b));
        ka.iter()
            .zip(kb)
            .map(|(x, y)| x.total_cmp(y))
            .find(|o| o.is_ne())
            .unwrap_or(Ordering::Equal)
    });
    order
        .into_iter()
        .map(|g| {
            let mut row = keys.key(g).to_vec();
            for (acc, spec) in accs[g].iter().zip(aggs) {
                row.push(acc.finish(spec.func)?);
            }
            Ok(row)
        })
        .collect()
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

impl std::fmt::Debug for Plan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.describe().trim_end())
    }
}
