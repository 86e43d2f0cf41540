//! Live monitoring: virtual `M$` system views and the per-statement
//! collector behind `M$STATEMENTS`.
//!
//! The paper's diagnosis workflow is SAP's live monitors — ST03 workload
//! statistics, SM50 process overview, DB01 lock waits — read *while the
//! workload runs*, not post-hoc log dumps. This module gives the engine
//! the same surface: a [`MonitorView`] is a virtual table whose rows are
//! produced by a closure at **execute** time, registered in the catalog
//! under an `M$...` name and resolved by the planner like any base table.
//! A second wire connection can therefore `SELECT * FROM M$WAIT_EVENTS`
//! and see the current accumulators, every time, even through a cached
//! plan.
//!
//! Monitor views take no locks, have no catalog version, and are invisible
//! to DDL — reading them never blocks the workload being observed.

use crate::schema::{Column, Row, Schema};
use crate::sql::StatementId;
use crate::types::{DataType, Value};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;
use trace::request::TraceRing;
use trace::wait::{WaitEvent, WaitSnapshot, WaitStats};

/// True if `name` is in the reserved monitoring namespace (`M$` prefix,
/// case-insensitive). Such names never reach the catalog's base-table
/// maps, take no locks, and are not plan-cache dependencies.
pub fn is_monitor_name(name: &str) -> bool {
    let b = name.as_bytes();
    b.len() > 2 && (b[0] == b'M' || b[0] == b'm') && b[1] == b'$'
}

/// A virtual system table: a schema plus a row producer evaluated at
/// execute time, so every read — including through a cached plan — sees
/// fresh data.
pub struct MonitorView {
    name: String,
    schema: Schema,
    rows: Box<dyn Fn() -> Vec<Row> + Send + Sync>,
}

impl MonitorView {
    pub fn new<F>(name: &str, columns: Vec<Column>, rows: F) -> Arc<MonitorView>
    where
        F: Fn() -> Vec<Row> + Send + Sync + 'static,
    {
        let name = name.to_ascii_uppercase();
        let schema = Schema::qualified(columns, &name);
        Arc::new(MonitorView { name, schema, rows: Box::new(rows) })
    }

    pub fn name(&self) -> &str {
        &self.name
    }

    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Produce the view's rows *now*.
    pub fn rows(&self) -> Vec<Row> {
        (self.rows)()
    }
}

impl std::fmt::Debug for MonitorView {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MonitorView").field("name", &self.name).finish_non_exhaustive()
    }
}

fn int(v: u64) -> Value {
    Value::Int(v as i64)
}

/// Build the `M$WAIT_EVENTS` view over a [`WaitStats`]: one row per
/// [`WaitEvent`] with its occurrence count and total waited microseconds.
pub fn wait_events_view(stats: Arc<WaitStats>) -> Arc<MonitorView> {
    MonitorView::new(
        "M$WAIT_EVENTS",
        vec![
            Column::new("EVENT", DataType::VarChar(32)),
            Column::new("WAITS", DataType::Int),
            Column::new("WAITED_US", DataType::Int),
        ],
        move || {
            let snap = stats.snapshot();
            WaitEvent::ALL
                .iter()
                .map(|&ev| vec![Value::str(ev.name()), int(snap.count(ev)), int(snap.micros(ev))])
                .collect()
        },
    )
}

/// Cumulative statistics for one normalized statement shape.
#[derive(Debug, Clone)]
pub struct StatementStats {
    /// Display text: the first concrete SQL seen for this shape.
    pub statement: String,
    pub calls: u64,
    pub rows: u64,
    pub total_micros: u64,
    pub min_micros: u64,
    pub max_micros: u64,
    /// Wait breakdown summed over all calls: each call's request-trace
    /// wait totals ([`RequestGuard::finish`](trace::request::RequestGuard::finish)).
    pub waits: WaitSnapshot,
    /// Elapsed time of the newest execution (`M$STATEMENTS.LAST_US`).
    pub last_micros: u64,
}

struct StatementEntry {
    statement: String,
    calls: u64,
    rows: u64,
    total_micros: u64,
    min_micros: u64,
    max_micros: u64,
    waits: WaitSnapshot,
    last_micros: u64,
    /// Recency stamp from the collector's tick, for LRU eviction.
    last_used: u64,
}

/// pg_stat_statements-style collector: cumulative per-statement counters
/// keyed on the [`StatementId`] of the normalized statement, so `SELECT ...
/// = 1` and `SELECT ... = 2` (or two literal UPDATEs) aggregate into one
/// row while distinct shapes stay separate. The shape map is bounded: past
/// `max_shapes` distinct shapes the least-recently-executed one is evicted
/// (and counted), so a workload generating unbounded distinct SQL cannot
/// grow the collector without limit.
pub struct StatementCollector {
    inner: Mutex<ShapeMap>,
    /// Maximum distinct statement shapes retained.
    max_shapes: usize,
    /// Shapes evicted to stay under `max_shapes` (surfaced in
    /// `M$STATEMENTS` as the collector-wide `EVICTED_SHAPES` column).
    evicted: AtomicU64,
}

struct ShapeMap {
    map: HashMap<StatementId, StatementEntry>,
    /// Monotone use counter stamping `last_used`.
    tick: u64,
}

impl std::fmt::Debug for StatementCollector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StatementCollector")
            .field("max_shapes", &self.max_shapes)
            .finish_non_exhaustive()
    }
}

impl Default for StatementCollector {
    fn default() -> Self {
        StatementCollector::bounded(StatementCollector::DEFAULT_MAX_SHAPES)
    }
}

impl StatementCollector {
    /// Default bound on distinct shapes: generous for real workloads
    /// (TPC-D + SAP reach a few dozen), tight enough that pathological
    /// non-parameterized SQL cannot leak memory.
    pub const DEFAULT_MAX_SHAPES: usize = 512;

    pub fn new() -> Arc<Self> {
        Arc::new(StatementCollector::default())
    }

    /// A collector bounded to `max_shapes` distinct statement shapes.
    pub fn bounded(max_shapes: usize) -> StatementCollector {
        StatementCollector {
            inner: Mutex::new(ShapeMap { map: HashMap::new(), tick: 0 }),
            max_shapes: max_shapes.max(1),
            evicted: AtomicU64::new(0),
        }
    }

    /// Record one completed execution of the statement `id`;
    /// `statement` is the concrete text, kept for display the first time.
    pub fn record(
        &self,
        id: StatementId,
        statement: &str,
        elapsed: Duration,
        rows: u64,
        waits: &WaitSnapshot,
    ) {
        let micros = elapsed.as_micros() as u64;
        let mut inner = self.inner.lock();
        inner.tick += 1;
        let tick = inner.tick;
        if !inner.map.contains_key(&id) && inner.map.len() >= self.max_shapes {
            // Evict the least-recently-executed shape (O(n) scan; the map
            // is bounded, so n <= max_shapes).
            if let Some(coldest) =
                inner.map.iter().min_by_key(|(_, e)| e.last_used).map(|(&k, _)| k)
            {
                inner.map.remove(&coldest);
                self.evicted.fetch_add(1, Ordering::Relaxed);
            }
        }
        let entry = inner.map.entry(id).or_insert_with(|| StatementEntry {
            statement: display_text(statement),
            calls: 0,
            rows: 0,
            total_micros: 0,
            min_micros: u64::MAX,
            max_micros: 0,
            waits: WaitSnapshot::default(),
            last_micros: 0,
            last_used: 0,
        });
        entry.last_used = tick;
        entry.calls += 1;
        entry.rows += rows;
        entry.total_micros += micros;
        entry.min_micros = entry.min_micros.min(micros);
        entry.max_micros = entry.max_micros.max(micros);
        entry.waits = entry.waits.plus(waits);
        entry.last_micros = micros;
    }

    /// Number of distinct statement shapes currently retained.
    pub fn len(&self) -> usize {
        self.inner.lock().map.len()
    }

    pub fn is_empty(&self) -> bool {
        self.inner.lock().map.is_empty()
    }

    /// Shapes evicted so far to keep the map under its bound.
    pub fn evicted_shapes(&self) -> u64 {
        self.evicted.load(Ordering::Relaxed)
    }

    /// The bound on distinct retained shapes.
    pub fn max_shapes(&self) -> usize {
        self.max_shapes
    }

    /// Snapshot of all statements, hottest (most total time) first.
    pub fn snapshot(&self) -> Vec<StatementStats> {
        let inner = self.inner.lock();
        let mut out: Vec<StatementStats> = inner
            .map
            .values()
            .map(|e| StatementStats {
                statement: e.statement.clone(),
                calls: e.calls,
                rows: e.rows,
                total_micros: e.total_micros,
                min_micros: if e.calls == 0 { 0 } else { e.min_micros },
                max_micros: e.max_micros,
                waits: e.waits,
                last_micros: e.last_micros,
            })
            .collect();
        drop(inner);
        out.sort_by(|a, b| b.total_micros.cmp(&a.total_micros).then(a.statement.cmp(&b.statement)));
        out
    }

    /// Sum of per-statement wait breakdowns (for reconciliation against
    /// the engine-wide [`WaitStats`] and cost meters).
    pub fn total_waits(&self) -> WaitSnapshot {
        self.inner.lock().map.values().fold(WaitSnapshot::default(), |acc, e| acc.plus(&e.waits))
    }

    /// Forget everything (between experiment phases).
    pub fn reset(&self) {
        let mut inner = self.inner.lock();
        inner.map.clear();
        inner.tick = 0;
        self.evicted.store(0, Ordering::Relaxed);
    }

    /// Build the `M$STATEMENTS` view over this collector.
    pub fn view(self: &Arc<Self>) -> Arc<MonitorView> {
        let collector = Arc::clone(self);
        MonitorView::new(
            "M$STATEMENTS",
            vec![
                Column::new("STATEMENT", DataType::VarChar(200)),
                Column::new("CALLS", DataType::Int),
                Column::new("TOTAL_ROWS", DataType::Int),
                Column::new("TOTAL_US", DataType::Int),
                Column::new("MEAN_US", DataType::Int),
                Column::new("MIN_US", DataType::Int),
                Column::new("MAX_US", DataType::Int),
                Column::new("LAST_US", DataType::Int),
                Column::new("LOCK_WAITS", DataType::Int),
                Column::new("LOCK_US", DataType::Int),
                Column::new("WAL_FLUSH_US", DataType::Int),
                Column::new("GROUP_COMMIT_US", DataType::Int),
                Column::new("EVICTED_SHAPES", DataType::Int),
            ],
            move || {
                // Collector-wide eviction counter, repeated on every row
                // (a virtual table has nowhere else to put a scalar).
                let evicted = collector.evicted_shapes();
                collector
                    .snapshot()
                    .into_iter()
                    .map(|s| {
                        vec![
                            Value::Str(s.statement),
                            int(s.calls),
                            int(s.rows),
                            int(s.total_micros),
                            int(s.total_micros.checked_div(s.calls).unwrap_or(0)),
                            int(s.min_micros),
                            int(s.max_micros),
                            int(s.last_micros),
                            int(s.waits.count(WaitEvent::Lock)),
                            int(s.waits.micros(WaitEvent::Lock)),
                            int(s.waits.micros(WaitEvent::WalFlush)),
                            int(s.waits.micros(WaitEvent::GroupCommitWait)),
                            int(evicted),
                        ]
                    })
                    .collect()
            },
        )
    }
}

/// Build the `M$TRACES` view over a [`TraceRing`]: one row per retained
/// request trace, newest last, with its critical-path decomposition —
/// the per-event segment columns plus `APP_SERVER_US` always sum to
/// `END_TO_END_US` (see `trace::request::critical_path`).
pub fn traces_view(ring: Arc<TraceRing>) -> Arc<MonitorView> {
    MonitorView::new(
        "M$TRACES",
        vec![
            Column::new("TRACE_ID", DataType::Int),
            Column::new("ORIGIN", DataType::VarChar(32)),
            Column::new("LABEL", DataType::VarChar(200)),
            Column::new("ENQUEUED_US", DataType::Int),
            Column::new("STARTED_US", DataType::Int),
            Column::new("ENDED_US", DataType::Int),
            Column::new("END_TO_END_US", DataType::Int),
            Column::new("DISPATCH_QUEUE_US", DataType::Int),
            Column::new("LOCK_US", DataType::Int),
            Column::new("WAL_FLUSH_US", DataType::Int),
            Column::new("GROUP_COMMIT_US", DataType::Int),
            Column::new("EXEC_US", DataType::Int),
            Column::new("APP_SERVER_US", DataType::Int),
            Column::new("SPANS", DataType::Int),
            Column::new("WAITS", DataType::Int),
            Column::new("DROPPED_SPANS", DataType::Int),
            Column::new("DROPPED_WAITS", DataType::Int),
        ],
        move || {
            ring.snapshot()
                .iter()
                .map(|t| {
                    let p = t.critical_path();
                    vec![
                        int(t.trace_id),
                        Value::str(t.origin),
                        Value::Str(display_text(&t.label)),
                        int(t.enqueued_us),
                        int(t.started_us),
                        int(t.ended_us),
                        int(p.end_to_end_us),
                        int(p.segment(WaitEvent::DispatchQueue)),
                        int(p.segment(WaitEvent::Lock)),
                        int(p.segment(WaitEvent::WalFlush)),
                        int(p.segment(WaitEvent::GroupCommitWait)),
                        int(p.segment(WaitEvent::Exec)),
                        int(p.app_server_us),
                        int(t.span_count() as u64),
                        int(t.waits.len() as u64),
                        int(t.dropped_spans),
                        int(t.dropped_waits),
                    ]
                })
                .collect()
        },
    )
}

/// Build the `M$SPANS` view over a [`TraceRing`]: the span trees of every
/// retained trace flattened in depth-first pre-order, with per-span wait
/// breakdowns. `SPAN_ID` numbers spans within a trace; `PARENT_ID` is -1
/// for roots, so the tree reconstructs with one self-join.
pub fn spans_view(ring: Arc<TraceRing>) -> Arc<MonitorView> {
    MonitorView::new(
        "M$SPANS",
        vec![
            Column::new("TRACE_ID", DataType::Int),
            Column::new("SPAN_ID", DataType::Int),
            Column::new("PARENT_ID", DataType::Int),
            Column::new("DEPTH", DataType::Int),
            Column::new("NAME", DataType::VarChar(200)),
            Column::new("START_US", DataType::Int),
            Column::new("END_US", DataType::Int),
            Column::new("ELAPSED_US", DataType::Int),
            Column::new("LOCK_US", DataType::Int),
            Column::new("WAL_FLUSH_US", DataType::Int),
            Column::new("GROUP_COMMIT_US", DataType::Int),
            Column::new("EXEC_US", DataType::Int),
        ],
        move || {
            let mut rows = Vec::new();
            for t in ring.snapshot() {
                // A span's parent precedes it, so its depth is known; a
                // root's `NO_PARENT` indexes nothing.
                let mut depths: Vec<u64> = Vec::with_capacity(t.spans.len());
                for (id, node) in t.spans.iter().enumerate() {
                    let parent_depth = depths.get(node.parent as usize).copied();
                    let depth = parent_depth.map_or(0, |d| d + 1);
                    depths.push(depth);
                    rows.push(vec![
                        int(t.trace_id),
                        Value::Int(id as i64),
                        Value::Int(parent_depth.map_or(-1, |_| node.parent as i64)),
                        int(depth),
                        Value::Str(display_text(t.span_name(node))),
                        int(node.start_us),
                        int(node.end_us),
                        int(node.elapsed_us()),
                        int(t.span_wait_micros(node, WaitEvent::Lock)),
                        int(t.span_wait_micros(node, WaitEvent::WalFlush)),
                        int(t.span_wait_micros(node, WaitEvent::GroupCommitWait)),
                        int(t.span_wait_micros(node, WaitEvent::Exec)),
                    ]);
                }
            }
            rows
        },
    )
}

/// Normalize statement text for display: collapse whitespace, bound the
/// length to the views' `VARCHAR(200)` columns (in bytes, whole chars).
pub fn display_text(sql: &str) -> String {
    let mut out = String::with_capacity(sql.len().min(200));
    let mut last_space = false;
    for ch in sql.trim().chars() {
        let ch = if ch.is_whitespace() { ' ' } else { ch };
        if ch == ' ' && last_space {
            continue;
        }
        if out.len() + ch.len_utf8() > 200 {
            break;
        }
        last_space = ch == ' ';
        out.push(ch);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn monitor_names_recognized() {
        assert!(is_monitor_name("M$WAIT_EVENTS"));
        assert!(is_monitor_name("m$sessions"));
        assert!(!is_monitor_name("M$"));
        assert!(!is_monitor_name("MANDT"));
        assert!(!is_monitor_name("VBAK"));
    }

    #[test]
    fn view_rows_are_fresh_per_call() {
        let stats = WaitStats::new();
        let view = wait_events_view(Arc::clone(&stats));
        assert_eq!(view.name(), "M$WAIT_EVENTS");
        assert_eq!(view.schema().len(), 3);
        let before = view.rows();
        assert_eq!(before.len(), WaitEvent::COUNT);
        assert_eq!(before[0][1], Value::Int(0));
        stats.record(WaitEvent::Lock, Duration::from_micros(40));
        let after = view.rows();
        assert_eq!(after[0], vec![Value::str("lock"), Value::Int(1), Value::Int(40)]);
    }

    #[test]
    fn collector_aggregates_by_key() {
        let c = StatementCollector::new();
        let mut w = WaitStats::new().snapshot();
        c.record(StatementId(1), "SELECT * FROM T WHERE A = 1", Duration::from_micros(100), 5, &w);
        let stats = WaitStats::new();
        stats.record(WaitEvent::Lock, Duration::from_micros(30));
        w = stats.snapshot();
        c.record(StatementId(1), "SELECT * FROM T WHERE A = 2", Duration::from_micros(300), 7, &w);
        c.record(StatementId(2), "INSERT INTO T VALUES (1)", Duration::from_micros(10), 0, &w);
        assert_eq!(c.len(), 2);
        let snap = c.snapshot();
        assert_eq!(snap[0].statement, "SELECT * FROM T WHERE A = 1", "first-seen text kept");
        assert_eq!(snap[0].calls, 2);
        assert_eq!(snap[0].rows, 12);
        assert_eq!(snap[0].total_micros, 400);
        assert_eq!(snap[0].min_micros, 100);
        assert_eq!(snap[0].max_micros, 300);
        assert_eq!(snap[0].waits.micros(WaitEvent::Lock), 30);
        assert_eq!(snap[0].last_micros, 300, "newest execution shown");
        assert_eq!(c.total_waits().count(WaitEvent::Lock), 2);
        c.reset();
        assert!(c.is_empty());
    }

    #[test]
    fn last_execution_is_the_newest() {
        let c = StatementCollector::new();
        let w = WaitSnapshot::default();
        for i in 0..100 {
            c.record(StatementId(0), "Q", Duration::from_micros(i), 1, &w);
        }
        let snap = c.snapshot();
        assert_eq!(snap[0].calls, 100);
        assert_eq!(snap[0].last_micros, 99, "newest kept");
    }

    #[test]
    fn shape_map_is_lru_bounded_and_counts_evictions() {
        let c = Arc::new(StatementCollector::bounded(4));
        let w = WaitSnapshot::default();
        for i in 0..4 {
            c.record(StatementId(i), "Q", Duration::from_micros(10), 1, &w);
        }
        assert_eq!(c.len(), 4);
        assert_eq!(c.evicted_shapes(), 0);
        // Touch K0 so K1 becomes the coldest, then overflow.
        c.record(StatementId(0), "Q", Duration::from_micros(10), 1, &w);
        c.record(StatementId(4), "Q", Duration::from_micros(10), 1, &w);
        assert_eq!(c.len(), 4, "stays bounded");
        assert_eq!(c.evicted_shapes(), 1);
        let keys: Vec<String> = c.snapshot().into_iter().map(|s| s.statement).collect();
        assert_eq!(keys.len(), 4);
        // K1 (least recently executed) was the one evicted: re-recording
        // it starts a fresh entry while K0 kept its two calls.
        c.record(StatementId(1), "Q", Duration::from_micros(10), 1, &w);
        assert_eq!(c.evicted_shapes(), 2);
        let view = c.view();
        let rows = view.rows();
        let evicted_col = view.schema().len() - 1;
        assert!(
            rows.iter().all(|r| r[evicted_col] == Value::Int(2)),
            "EVICTED_SHAPES on every row"
        );
        c.reset();
        assert_eq!(c.evicted_shapes(), 0);
    }

    #[test]
    fn traces_and_spans_views_expose_the_ring() {
        let ring = TraceRing::new(8);
        {
            let ctx = ring.begin("test", "demo");
            let _g = ctx.install();
            let _outer = trace::span("outer");
            let _inner = trace::span("inner");
        }
        let traces = traces_view(Arc::clone(&ring));
        let rows = traces.rows();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].len(), traces.schema().len());
        assert_eq!(rows[0][1], Value::str("test"));
        // Segment columns (7..=12 incl. APP_SERVER_US) sum to END_TO_END_US.
        let as_i = |v: &Value| match v {
            Value::Int(i) => *i,
            other => panic!("expected int, got {other:?}"),
        };
        let total: i64 = (7..=12).map(|c| as_i(&rows[0][c])).sum();
        assert_eq!(total, as_i(&rows[0][6]), "critical path sums in the view");
        let spans = spans_view(ring);
        let srows = spans.rows();
        assert_eq!(srows.len(), 2);
        assert_eq!(srows[0][4], Value::str("outer"));
        assert_eq!(srows[0][2], Value::Int(-1), "root parent");
        assert_eq!(srows[1][2], srows[0][1], "child links to parent span id");
    }

    #[test]
    fn display_text_fits_the_column() {
        let long = format!("SELECT {}é FROM t", "a".repeat(192));
        let shown = display_text(&long);
        assert_eq!(shown.len(), 199, "a char that would cross 200 bytes is left out");
        assert!(display_text(&"x ".repeat(300)).len() <= 200);
    }

    #[test]
    fn statements_view_shape() {
        let c = StatementCollector::new();
        c.record(
            StatementId(0),
            "SELECT   1",
            Duration::from_micros(50),
            1,
            &WaitSnapshot::default(),
        );
        let view = c.view();
        let rows = view.rows();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].len(), view.schema().len());
        assert_eq!(rows[0][0], Value::str("SELECT 1"), "whitespace collapsed");
        assert_eq!(rows[0][1], Value::Int(1));
    }
}
