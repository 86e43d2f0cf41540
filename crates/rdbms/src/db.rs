//! The `Database` façade: parse, plan, execute.

use crate::catalog::Catalog;
use crate::error::{DbError, DbResult};
use crate::exec::expr::ExecCtx;
use crate::exec::plan::Plan;
use crate::lock::{LockManager, DEFAULT_ESCALATION_THRESHOLD};
use crate::monitor::{is_monitor_name, MonitorView, StatementCollector};
use crate::planner::{PlannedQuery, Planner, PlannerConfig};
use crate::schema::{Column, Row, Schema};
use crate::sql::ast::{Expr, SelectStmt, Statement};
use crate::sql::parse_statement;
use crate::storage::{Pager, PagerConfig, Rid};
use crate::txn::Txn;
use crate::types::{DataType, Value};
use crate::wal::{LogPayload, Lsn, RecoveryReport, UndoAction, Wal, WalConfig, SYSTEM_TXN};
use parking_lot::RwLock;
use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use trace::meter::{Calibration, CostMeter, MeterSnapshot};
use trace::request::{RequestCtx, TraceRing};
use trace::wait::{WaitEvent, WaitStats};

/// Database configuration.
#[derive(Debug, Clone)]
pub struct DbConfig {
    pub pager: PagerConfig,
    pub planner: PlannerConfig,
    pub calibration: Calibration,
    /// How long a transaction blocks on a lock before it is aborted as a
    /// presumed-deadlock victim (backstop behind the wait-for graph).
    pub lock_timeout: Duration,
    /// Write-ahead logging: `None` (the default) runs without durability,
    /// exactly as before the WAL existed; `Some` logs every mutation to
    /// the named file and makes commits durable per the
    /// [`crate::wal::CommitPolicy`].
    pub wal: Option<WalConfig>,
}

impl Default for DbConfig {
    fn default() -> Self {
        DbConfig {
            pager: PagerConfig::default(),
            planner: PlannerConfig::default(),
            calibration: Calibration::default(),
            lock_timeout: Duration::from_secs(5),
            wal: None,
        }
    }
}

/// Completed request traces retained for M$TRACES / M$SPANS and Chrome
/// export: 4096 requests of live history — enough for any experiment's
/// tail analysis — or fewer when they are heavy (the ring has a byte
/// budget of its own, `trace::request::RING_BYTE_BUDGET`).
pub const DEFAULT_TRACE_RING_CAPACITY: usize = 4096;

/// A query result set.
#[derive(Debug, Clone)]
pub struct QueryResult {
    pub schema: Schema,
    pub rows: Vec<Row>,
}

impl QueryResult {
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Single value convenience (first row, first column).
    pub fn scalar(&self) -> DbResult<Value> {
        self.rows
            .first()
            .and_then(|r| r.first())
            .cloned()
            .ok_or_else(|| DbError::execution("empty result, expected scalar"))
    }
}

/// Outcome of executing an arbitrary statement.
#[derive(Debug)]
pub enum ExecOutcome {
    Rows(QueryResult),
    /// Rows affected by DML.
    Count(u64),
    /// DDL.
    Done,
}

impl ExecOutcome {
    pub fn rows(self) -> DbResult<QueryResult> {
        match self {
            ExecOutcome::Rows(r) => Ok(r),
            other => Err(DbError::execution(format!("expected rows, got {other:?}"))),
        }
    }

    pub fn count(self) -> DbResult<u64> {
        match self {
            ExecOutcome::Count(n) => Ok(n),
            other => Err(DbError::execution(format!("expected count, got {other:?}"))),
        }
    }
}

/// A prepared (parameterized) query: planned once with parameter markers, so
/// the optimizer never sees the constants (the paper's §4.1 behaviour), then
/// re-executable with fresh bindings — the engine-side half of SAP R/3's
/// cursor caching.
pub struct Prepared {
    pub plan: Arc<Plan>,
    pub schema: Schema,
    pub n_params: usize,
    /// EXPLAIN text captured at prepare time.
    pub plan_description: String,
    /// Read locks a transaction takes before running this plan, derived
    /// from this plan's access paths (probes → shared row locks, scans →
    /// whole-table shared) when it was planned.
    pub lock_plan: Vec<(String, crate::txn::ReadLockPlan)>,
    /// Base tables/views the statement depends on (uppercase), for
    /// catalog-version invalidation by a plan cache.
    pub dependencies: Vec<String>,
    /// Whether the plan reads an `M$` view; a plan cache never keeps one.
    pub(crate) reads_monitor_view: bool,
    /// [`crate::catalog::Catalog::version`] observed at prepare time.
    pub catalog_version: u64,
}

impl Prepared {
    /// Whether this plan may still run: no DDL since it was planned (one
    /// atomic load), or none on an object it depends on. The one validity
    /// rule every cache of plans applies before reusing one.
    pub fn is_current(&self, catalog: &Catalog) -> bool {
        catalog.version() == self.catalog_version
            || self.dependencies.iter().all(|d| catalog.object_version(d) <= self.catalog_version)
    }
}

/// The database engine.
pub struct Database {
    pager: Arc<Pager>,
    catalog: Catalog,
    meter: Arc<CostMeter>,
    planner_config: RwLock<PlannerConfig>,
    calibration: Calibration,
    locks: Arc<LockManager>,
    next_txn_id: AtomicU64,
    wal: Option<Arc<Wal>>,
    /// Engine-wide wait-event accumulators (lock waits, log forces,
    /// group-commit parks, queue waits, exec time) behind M$WAIT_EVENTS.
    wait: Arc<WaitStats>,
    /// Per-statement collector behind M$STATEMENTS, fed by the server
    /// session layer (and anything else that calls
    /// [`StatementCollector::record`]).
    statements: Arc<StatementCollector>,
    /// Gates the per-statement Exec timers so the observe experiment can
    /// measure collectors-off throughput. Wait events recorded at genuine
    /// block points (locks, log forces) stay on — they cost nothing unless
    /// the thread actually waited.
    monitor_enabled: AtomicBool,
    /// Ring of completed per-request traces behind M$TRACES / M$SPANS.
    /// Requests are minted via [`Database::begin_request`], which gates on
    /// `monitor_enabled` so collectors-off runs trace nothing.
    traces: Arc<TraceRing>,
}

impl Database {
    /// Build a database. Panics if `config.wal` names a log file that
    /// cannot be created — use [`Database::open`] to handle that error.
    pub fn new(config: DbConfig) -> Self {
        Database::open(config).expect("database open failed")
    }

    /// Build a database, creating (truncating) the write-ahead log file if
    /// `config.wal` is set.
    pub fn open(config: DbConfig) -> DbResult<Self> {
        let mut db = Database::fresh_for_recovery(&config);
        if let Some(wal_cfg) = &config.wal {
            let wal = Arc::new(Wal::create(wal_cfg, Arc::clone(&db.meter))?);
            db.attach_wal(wal);
        }
        Ok(db)
    }

    /// Restart from an existing write-ahead log: ARIES analysis/redo/undo
    /// over the log named by `config.wal`, returning the recovered
    /// database (which keeps logging to the same file) and a report of
    /// what restart found. See [`crate::wal::recovery`].
    pub fn recover(config: DbConfig) -> DbResult<(Database, RecoveryReport)> {
        crate::wal::recover(config)
    }

    /// The core engine without any WAL attached (also the substrate the
    /// recovery replay runs against, hence the name).
    pub(crate) fn fresh_for_recovery(config: &DbConfig) -> Self {
        let meter = CostMeter::new();
        let wait = WaitStats::new();
        let pager = Pager::new(config.pager, Arc::clone(&meter));
        let locks = Arc::new(LockManager::configured(
            config.lock_timeout,
            DEFAULT_ESCALATION_THRESHOLD,
            Some(Arc::clone(&meter)),
        ));
        let db = Database {
            catalog: Catalog::new(Arc::clone(&pager)),
            pager,
            meter,
            planner_config: RwLock::new(config.planner),
            calibration: config.calibration,
            locks,
            next_txn_id: AtomicU64::new(1),
            wal: None,
            wait,
            statements: StatementCollector::new(),
            monitor_enabled: AtomicBool::new(true),
            traces: TraceRing::new(DEFAULT_TRACE_RING_CAPACITY),
        };
        db.register_builtin_monitor_views();
        db
    }

    /// Register the engine-level `M$` views: M$WAIT_EVENTS over the wait
    /// accumulators, M$STATEMENTS over the per-statement collector,
    /// M$LOCKS over the lock manager, and M$TRACES / M$SPANS over the
    /// request-trace ring. The server and R/3 layers register their own
    /// views (M$SESSIONS, M$PLAN_CACHE, M$WORKLOAD) on top.
    fn register_builtin_monitor_views(&self) {
        self.catalog
            .register_monitor_view(crate::monitor::wait_events_view(Arc::clone(&self.wait)));
        self.catalog.register_monitor_view(self.statements.view());
        self.catalog.register_monitor_view(crate::monitor::traces_view(Arc::clone(&self.traces)));
        self.catalog.register_monitor_view(crate::monitor::spans_view(Arc::clone(&self.traces)));
        let locks = Arc::clone(&self.locks);
        self.catalog.register_monitor_view(MonitorView::new(
            "M$LOCKS",
            vec![
                Column::new("TABLE_NAME", DataType::VarChar(64)),
                Column::new("TXN", DataType::Int),
                Column::new("STATE", DataType::VarChar(8)),
                Column::new("MODE", DataType::VarChar(16)),
                Column::new("ROW_LOCKS", DataType::Int),
            ],
            move || {
                locks
                    .snapshot_locks()
                    .into_iter()
                    .map(|l| {
                        vec![
                            Value::Str(l.table),
                            Value::Int(l.txn as i64),
                            Value::str(l.state),
                            Value::Str(l.mode),
                            Value::Int(l.row_locks as i64),
                        ]
                    })
                    .collect()
            },
        ));
    }

    /// Attach the reopened log after the redo/undo passes and advance the
    /// transaction-id counter past every id seen in the log.
    pub(crate) fn finish_recovery(&mut self, wal: Arc<Wal>, next_txn_id: u64) {
        self.attach_wal(wal);
        self.next_txn_id.store(next_txn_id.max(1), Ordering::Relaxed);
    }

    fn attach_wal(&mut self, wal: Arc<Wal>) {
        wal.set_wait_stats(Arc::clone(&self.wait));
        self.pager.set_logged();
        self.wal = Some(wal);
    }

    pub fn with_defaults() -> Self {
        Self::new(DbConfig::default())
    }

    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    pub fn meter(&self) -> &Arc<CostMeter> {
        &self.meter
    }

    pub fn pager(&self) -> &Arc<Pager> {
        &self.pager
    }

    pub fn calibration(&self) -> Calibration {
        self.calibration
    }

    /// A planner under the current configuration, pricing access paths
    /// with this database's calibration.
    pub fn planner(&self) -> Planner<'_> {
        Planner::new(&self.catalog, self.planner_config(), self.calibration)
    }

    pub fn planner_config(&self) -> PlannerConfig {
        *self.planner_config.read()
    }

    pub fn set_planner_config(&self, config: PlannerConfig) {
        *self.planner_config.write() = config;
    }

    /// Snapshot the work meter (for experiment bookkeeping).
    pub fn snapshot(&self) -> MeterSnapshot {
        self.meter.snapshot()
    }

    /// Engine-wide wait-event accumulators (the data behind M$WAIT_EVENTS).
    pub fn wait_stats(&self) -> &Arc<WaitStats> {
        &self.wait
    }

    /// The per-statement collector (the data behind M$STATEMENTS).
    pub fn statement_collector(&self) -> &Arc<StatementCollector> {
        &self.statements
    }

    /// Toggle the per-statement Exec timers and collector feeds. Lock/WAL
    /// wait events always record — a thread that did not block records
    /// nothing, so they are free when idle.
    pub fn set_monitor_enabled(&self, on: bool) {
        self.monitor_enabled.store(on, Ordering::Relaxed);
    }

    pub fn monitor_enabled(&self) -> bool {
        self.monitor_enabled.load(Ordering::Relaxed)
    }

    /// The bounded ring of completed request traces (behind M$TRACES and
    /// M$SPANS, and the source for Chrome trace exports).
    pub fn trace_ring(&self) -> &Arc<TraceRing> {
        &self.traces
    }

    /// Mint a trace id for a request entering the system, or `None` when
    /// the monitor is disabled (collectors-off runs trace nothing and pay
    /// nothing). The caller installs the returned context on the serving
    /// thread; dropping the guard lands the finished trace in the ring.
    pub fn begin_request(
        &self,
        origin: &'static str,
        label: impl Into<Arc<str>>,
    ) -> Option<RequestCtx> {
        self.monitor_enabled().then(|| self.traces.begin(origin, label))
    }

    /// The hierarchical lock manager (strict 2PL for open transactions).
    pub fn lock_manager(&self) -> &LockManager {
        &self.locks
    }

    /// The write-ahead log, if this database was configured with one.
    pub fn wal(&self) -> Option<&Arc<Wal>> {
        self.wal.as_ref()
    }

    /// Force everything appended to the WAL so far to disk — an explicit
    /// durability point (end of bulk load, clean shutdown). No-op without
    /// a WAL.
    pub fn wal_flush(&self) -> DbResult<()> {
        match &self.wal {
            Some(wal) => wal.flush(),
            None => Ok(()),
        }
    }

    /// Take a fuzzy checkpoint: log `CheckpointBegin`, then `CheckpointEnd`
    /// carrying the active-transaction table and the pager's dirty-page
    /// table, and force the log. Nothing is quiesced — transactions keep
    /// running — which is exactly why the tables are in the record: restart
    /// analysis starts from them. Returns the `CheckpointEnd` LSN.
    pub fn checkpoint(&self) -> DbResult<Lsn> {
        let wal = self
            .wal
            .as_ref()
            .ok_or_else(|| DbError::storage("checkpoint requires a WAL-enabled database"))?;
        wal.append_batch(SYSTEM_TXN, &[LogPayload::CheckpointBegin]);
        let att = wal.active_transactions();
        let dpt = self.pager.dirty_page_table();
        let lsns = wal.append_batch(SYSTEM_TXN, &[LogPayload::CheckpointEnd { att, dpt }]);
        wal.flush()?;
        Ok(lsns[0])
    }

    /// Plan a SELECT under the current planner configuration. Everything
    /// that runs a SELECT plans it here once, and takes its read locks
    /// ([`crate::txn::select_read_locks`]) from the plan it runs.
    pub fn plan_select(&self, q: &SelectStmt) -> DbResult<PlannedQuery> {
        self.planner().plan_query(q)
    }

    /// Open a transaction. Locks are acquired per statement and held to
    /// commit/rollback; dropping the handle rolls back.
    pub fn begin(&self) -> Txn<'_> {
        let id = self.next_txn_id.fetch_add(1, Ordering::Relaxed);
        Txn::new(self, id)
    }

    /// Execute any single SQL statement (constants visible to the optimizer).
    /// A SELECT or DML statement is a one-statement transaction: it takes
    /// the locks it would take inside one, and commits, or rolls back
    /// whatever it did if it fails. DDL is not transactional.
    pub fn execute(&self, sql: &str) -> DbResult<ExecOutcome> {
        self.execute_statement(&parse_statement(sql)?, sql)
    }

    /// [`Database::execute`] of `stmt`, already parsed from `sql` (the
    /// text DDL is logged as).
    pub fn execute_statement(&self, stmt: &Statement, sql: &str) -> DbResult<ExecOutcome> {
        if !stmt_is_ddl(stmt) {
            return self.autocommit(|txn| txn.execute_statement(stmt));
        }
        self.execute_ddl(stmt)?;
        // DDL is logged as its statement text and replayed by re-execution
        // (recovery replays against a WAL-less engine, so this cannot
        // re-log).
        self.log_ddl(sql)?;
        Ok(ExecOutcome::Done)
    }

    /// Run `f` in a transaction of its own: commit what it did, or, if it
    /// fails, roll it back (dropping the `Txn` does that).
    pub fn autocommit<T>(&self, f: impl FnOnce(&mut Txn<'_>) -> DbResult<T>) -> DbResult<T> {
        let mut txn = self.begin();
        let out = f(&mut txn)?;
        txn.commit()?;
        Ok(out)
    }

    fn log_ddl(&self, sql: &str) -> DbResult<()> {
        let Some(wal) = &self.wal else {
            return Ok(());
        };
        let lsns = wal.append_batch(SYSTEM_TXN, &[LogPayload::Ddl { sql: sql.to_string() }]);
        wal.commit(lsns[0])
    }

    /// Execute a SELECT and return its rows.
    pub fn query(&self, sql: &str) -> DbResult<QueryResult> {
        self.execute(sql)?.rows()
    }

    /// Plan text for a SELECT (EXPLAIN).
    pub fn explain(&self, sql: &str) -> DbResult<String> {
        let stmt = parse_statement(sql)?;
        match stmt {
            Statement::Select(q) => Ok(self.plan_select(&q)?.plan.describe()),
            other => Err(DbError::analysis(format!("cannot EXPLAIN {other:?}"))),
        }
    }

    /// Prepare a parameterized SELECT. The plan is chosen *now*, blind to
    /// the eventual parameter values.
    pub fn prepare(&self, sql: &str) -> DbResult<Prepared> {
        let stmt = parse_statement(sql)?;
        match stmt {
            Statement::Select(q) => self.prepare_select(&q),
            other => Err(DbError::analysis(format!("can only prepare SELECT, got {other:?}"))),
        }
    }

    /// Prepare an already-parsed SELECT (the plan cache's entry point:
    /// it normalizes the AST before planning and must not round-trip
    /// through text).
    pub fn prepare_select(&self, q: &SelectStmt) -> DbResult<Prepared> {
        // Snapshot the version *before* planning so a DDL racing with this
        // prepare invalidates the entry rather than being missed.
        let catalog_version = self.catalog.version();
        let pq = self.plan_select(q)?;
        let lock_plan = crate::txn::select_read_locks(&pq);
        let (monitor, dependencies): (Vec<String>, Vec<String>) =
            pq.names.into_keys().partition(|name| is_monitor_name(name));
        Ok(Prepared {
            plan_description: pq.plan.describe(),
            plan: Arc::new(pq.plan),
            schema: pq.schema,
            n_params: pq.n_params,
            lock_plan,
            dependencies,
            reads_monitor_view: !monitor.is_empty(),
            catalog_version,
        })
    }

    /// Execute a prepared query with bindings (cursor OPEN / REOPEN), as a
    /// one-statement transaction under the plan's read locks.
    pub fn execute_prepared(&self, p: &Prepared, params: &[Value]) -> DbResult<QueryResult> {
        self.autocommit(|txn| txn.execute_prepared(p, params))
    }

    /// Run a prepared plan with bindings; the caller holds its locks.
    pub(crate) fn run_prepared(&self, p: &Prepared, params: &[Value]) -> DbResult<QueryResult> {
        if params.len() < p.n_params {
            return Err(DbError::UnboundParameter(params.len()));
        }
        let rows = self.run(&p.plan, params)?;
        Ok(QueryResult { schema: p.schema.clone(), rows })
    }

    /// Execute a planned SELECT that has no parameters.
    pub(crate) fn execute_planned(&self, pq: PlannedQuery) -> DbResult<QueryResult> {
        let rows = self.run(&pq.plan, &[])?;
        Ok(QueryResult { schema: pq.schema, rows })
    }

    /// Run a plan, timed as one `Exec` wait event.
    fn run(&self, plan: &Plan, params: &[Value]) -> DbResult<Vec<Row>> {
        let exec_started = self.monitor_enabled().then(Instant::now);
        let rows = plan.execute(&ExecCtx::new(params, &self.meter))?;
        if let Some(started) = exec_started {
            self.wait.record(WaitEvent::Exec, started.elapsed());
        }
        Ok(rows)
    }

    fn execute_ddl(&self, stmt: &Statement) -> DbResult<()> {
        match stmt {
            Statement::CreateTable { name, columns, primary_key } => {
                let cols: Vec<Column> = columns
                    .iter()
                    .map(|c| {
                        let mut col = Column::new(&c.name, c.ty);
                        if c.not_null {
                            col = col.not_null();
                        }
                        col
                    })
                    .collect();
                self.catalog.create_table(name, cols, primary_key)?;
                Ok(())
            }
            Statement::CreateIndex { name, table, columns, unique } => {
                self.catalog.create_index(name, table, columns, *unique)?;
                Ok(())
            }
            Statement::CreateView { name, query } => {
                // Validate the view body plans correctly before registering.
                self.plan_select(query)?;
                self.catalog.create_view(name, (**query).clone())?;
                Ok(())
            }
            Statement::DropTable { name } => {
                self.catalog.drop_table(name)?;
                Ok(())
            }
            Statement::DropIndex { name } => {
                self.catalog.drop_index(name)?;
                Ok(())
            }
            Statement::DropView { name } => {
                self.catalog.drop_view(name)?;
                Ok(())
            }
            Statement::Analyze { table } => {
                match table {
                    Some(t) => {
                        let t = self.catalog.table(t)?;
                        self.catalog.analyze_table(&t)?;
                    }
                    None => {
                        for name in self.catalog.table_names() {
                            let t = self.catalog.table(&name)?;
                            self.catalog.analyze_table(&t)?;
                        }
                    }
                }
                Ok(())
            }
            other => Err(DbError::execution(format!("not DDL: {other:?}"))),
        }
    }

    /// Apply one DML statement of an open transaction, timed as one `Exec`
    /// wait event. Each operation is recorded in `ops` as it is done, in
    /// the form the log takes it: with the rids it was done at and the row
    /// images as they were read and stored then (a rid names another row
    /// once its own is gone, so nothing is read back later).
    pub(crate) fn apply_dml(&self, stmt: &Statement, ops: &mut Vec<LogPayload>) -> DbResult<u64> {
        let _exec = self.monitor_enabled().then(|| self.wait.timer(WaitEvent::Exec));
        match stmt {
            Statement::Insert { table, columns, rows } => {
                self.apply_insert(table, columns.as_deref(), rows, ops)
            }
            Statement::Delete { table, filter } => self.apply_delete(table, filter.as_ref(), ops),
            Statement::Update { table, assignments, filter } => {
                self.apply_update(table, assignments, filter.as_ref(), ops)
            }
            other => Err(DbError::execution(format!("not DML: {other:?}"))),
        }
    }

    /// Bookkeeping for a batch of just-logged operations. The WAL rule's
    /// half: pages remember the last record that touched them, and the
    /// pager's dirty-page table remembers the first. The heap's half: a
    /// page that an operation vacated a slot of takes inserts again (see
    /// [`crate::storage::HeapFile::vacated_logged`]).
    pub(crate) fn note_logged(&self, payloads: &[LogPayload], lsns: &[Lsn]) {
        let vacated = |table: &str, rid: &Rid| {
            if let Some(t) = self.catalog.try_table(table) {
                t.heap.vacated_logged(rid.page);
            }
        };
        for (p, &lsn) in payloads.iter().zip(lsns) {
            match p {
                LogPayload::Insert { rid, .. } => self.pager.stamp_lsn(rid.page, lsn),
                LogPayload::Delete { table, rid, .. }
                | LogPayload::Clr { action: UndoAction::Delete { table, rid }, .. } => {
                    self.pager.stamp_lsn(rid.page, lsn);
                    vacated(table, rid);
                }
                LogPayload::Update { table, rid: from, new_rid: to, .. }
                | LogPayload::Clr {
                    action: UndoAction::Revert { table, rid: from, prev_rid: to, .. },
                    ..
                } => {
                    self.pager.stamp_lsn(from.page, lsn);
                    self.pager.stamp_lsn(to.page, lsn);
                    if from != to {
                        vacated(table, from);
                    }
                }
                LogPayload::Clr { action: UndoAction::Insert { rid, .. }, .. } => {
                    self.pager.stamp_lsn(rid.page, lsn);
                }
                _ => {}
            }
        }
    }

    fn apply_insert(
        &self,
        table: &str,
        columns: Option<&[String]>,
        rows: &[Vec<Expr>],
        ops: &mut Vec<LogPayload>,
    ) -> DbResult<u64> {
        let t = self.catalog.table(table)?;
        let ctx = ExecCtx::new(&[], &self.meter);
        let mut inserted = 0u64;
        for exprs in rows {
            let row = self.build_insert_row(&t, columns, exprs, &ctx)?;
            let (rid, row) = self.catalog.insert_stored(&t, &row)?;
            ops.push(LogPayload::Insert { table: t.name.clone(), rid, row });
            inserted += 1;
        }
        Ok(inserted)
    }

    fn apply_delete(
        &self,
        table: &str,
        filter: Option<&Expr>,
        ops: &mut Vec<LogPayload>,
    ) -> DbResult<u64> {
        let t = self.catalog.table(table)?;
        let pred = self.bind_dml_filter(&t.schema, filter)?;
        let _rows_stay = t.changes.lock();
        let rids = self.matching_rids(&t, filter, &pred)?;
        for &rid in &rids {
            let row = self.catalog.delete_row(&t, rid)?;
            ops.push(LogPayload::Delete { table: t.name.clone(), rid, row });
        }
        Ok(rids.len() as u64)
    }

    fn apply_update(
        &self,
        table: &str,
        assignments: &[(String, Expr)],
        filter: Option<&Expr>,
        ops: &mut Vec<LogPayload>,
    ) -> DbResult<u64> {
        let t = self.catalog.table(table)?;
        let pred = self.bind_dml_filter(&t.schema, filter)?;
        let planner = self.planner();
        let mut bound_assignments = Vec::new();
        for (col, e) in assignments {
            let idx = t.schema.resolve(None, col)?;
            let mut used = HashSet::new();
            let mut be = planner.bind_expr(e, &t.schema, &[], &mut used)?;
            be.fold_literals();
            bound_assignments.push((idx, be));
        }
        let ctx = ExecCtx::new(&[], &self.meter);
        let _rows_stay = t.changes.lock();
        let rids = self.matching_rids(&t, filter, &pred)?;
        let mut updates = Vec::new();
        for rid in rids {
            let row = t
                .heap
                .get(rid, crate::storage::AccessPattern::Random)?
                .ok_or_else(|| DbError::storage("row vanished during UPDATE"))?;
            let mut new_row = row.clone();
            for (idx, be) in &bound_assignments {
                new_row[*idx] = be.eval(&row, &ctx)?;
            }
            updates.push((rid, row, new_row));
        }
        let n = updates.len() as u64;
        for (rid, old, new_row) in updates {
            let (new_rid, new) = self.catalog.update_stored(&t, rid, &new_row)?;
            ops.push(LogPayload::Update { table: t.name.clone(), rid, new_rid, old, new });
        }
        Ok(n)
    }

    /// RIDs of the rows matching a DML filter. Uses an index range when the
    /// filter is sargable against one (deletes/updates by key avoid full
    /// scans); otherwise falls back to a metered heap scan.
    fn matching_rids(
        &self,
        t: &crate::catalog::Table,
        filter_ast: Option<&Expr>,
        pred: &Option<crate::exec::expr::BExpr>,
    ) -> DbResult<Vec<crate::storage::Rid>> {
        use crate::planner::sarg_helpers::dml_index_probe;
        let ctx = ExecCtx::new(&[], &self.meter);
        if let Some(f) = filter_ast {
            if let Some(rid_candidates) = dml_index_probe(t, f)? {
                let mut rids = Vec::new();
                for rid in rid_candidates {
                    let Some(row) = t.heap.get(rid, crate::storage::AccessPattern::Random)? else {
                        continue;
                    };
                    self.meter.bump(trace::meter::Counter::DbTuples);
                    let hit = match pred {
                        Some(p) => p.eval_bool(&row, &ctx)? == Some(true),
                        None => true,
                    };
                    if hit {
                        rids.push(rid);
                    }
                }
                return Ok(rids);
            }
        }
        let mut rids = Vec::new();
        for item in t.heap.scan() {
            let (rid, row) = item?;
            self.meter.bump(trace::meter::Counter::DbTuples);
            let hit = match pred {
                Some(p) => p.eval_bool(&row, &ctx)? == Some(true),
                None => true,
            };
            if hit {
                rids.push(rid);
            }
        }
        Ok(rids)
    }

    fn bind_dml_filter(
        &self,
        schema: &Schema,
        filter: Option<&Expr>,
    ) -> DbResult<Option<crate::exec::expr::BExpr>> {
        match filter {
            None => Ok(None),
            Some(f) => {
                let planner = self.planner();
                let mut used = HashSet::new();
                let mut pred = planner.bind_expr(f, schema, &[], &mut used)?;
                pred.fold_literals();
                Ok(Some(pred))
            }
        }
    }

    /// Evaluate constant expressions (no column references) to values. The
    /// plan cache uses this to turn the constants stripped by
    /// [`Statement::normalized`] into bind values.
    pub fn eval_const_exprs(&self, exprs: &[Expr]) -> DbResult<Vec<Value>> {
        let planner = self.planner();
        let empty = Schema::new(Vec::new());
        let mut used = HashSet::new();
        let ctx = ExecCtx::new(&[], &self.meter);
        exprs
            .iter()
            .map(|e| {
                let be = planner.bind_expr(e, &empty, &[], &mut used)?;
                be.eval(&[], &ctx)
            })
            .collect()
    }

    fn build_insert_row(
        &self,
        table: &crate::catalog::Table,
        columns: Option<&[String]>,
        exprs: &[Expr],
        ctx: &ExecCtx,
    ) -> DbResult<Row> {
        let planner = self.planner();
        let empty = Schema::new(Vec::new());
        let mut used = HashSet::new();
        let values: Vec<Value> = exprs
            .iter()
            .map(|e| {
                let be = planner.bind_expr(e, &empty, &[], &mut used)?;
                be.eval(&[], ctx)
            })
            .collect::<DbResult<_>>()?;
        match columns {
            None => {
                if values.len() != table.schema.len() {
                    return Err(DbError::execution(format!(
                        "INSERT has {} values for {} columns",
                        values.len(),
                        table.schema.len()
                    )));
                }
                Ok(values)
            }
            Some(cols) => {
                if values.len() != cols.len() {
                    return Err(DbError::execution("INSERT column/value count mismatch"));
                }
                let mut row = vec![Value::Null; table.schema.len()];
                for (c, v) in cols.iter().zip(values) {
                    let idx = table.schema.resolve(None, c)?;
                    row[idx] = v;
                }
                Ok(row)
            }
        }
    }

    /// Insert one pre-built row as a one-statement transaction (bypasses
    /// SQL parsing but not constraint checks or locks; see
    /// [`Txn::insert_row`]). One row, every index at once;
    /// [`Database::load_rows`] builds each index once for many.
    pub fn insert_row(&self, table_name: &str, row: &[Value]) -> DbResult<()> {
        self.autocommit(|txn| txn.insert_row(table_name, row))
    }

    /// Log a row the bulk path stored: one system-transaction record per
    /// row — committed-if-present, no Begin/Commit bracket, never forced
    /// per row (a loader ends with an explicit `wal_flush`).
    pub(crate) fn log_loaded(&self, table: &crate::catalog::Table, rid: Rid, row: Row) {
        if let Some(wal) = &self.wal {
            let lsns = wal.append_batch(
                SYSTEM_TXN,
                &[LogPayload::Insert { table: table.name.clone(), rid, row }],
            );
            self.pager.stamp_lsn(rid.page, lsns[0]);
        }
    }
}

/// Is this statement DDL (logged by statement text and replayed by
/// re-execution, rather than physiologically)?
pub fn stmt_is_ddl(stmt: &Statement) -> bool {
    matches!(
        stmt,
        Statement::CreateTable { .. }
            | Statement::CreateIndex { .. }
            | Statement::CreateView { .. }
            | Statement::DropTable { .. }
            | Statement::DropIndex { .. }
            | Statement::DropView { .. }
            | Statement::Analyze { .. }
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn db() -> Database {
        Database::with_defaults()
    }

    fn setup_items(db: &Database) {
        db.execute(
            "CREATE TABLE items (id INTEGER NOT NULL, name VARCHAR(30), qty INTEGER, \
             price DECIMAL(10,2), PRIMARY KEY (id))",
        )
        .unwrap();
        for i in 0..100 {
            db.execute(&format!(
                "INSERT INTO items VALUES ({i}, 'item{}', {}, {}.50)",
                i % 10,
                i % 7,
                i
            ))
            .unwrap();
        }
        db.execute("ANALYZE items").unwrap();
    }

    #[test]
    fn database_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Database>();
        assert_send_sync::<crate::txn::LockManager>();
        assert_send_sync::<Prepared>();
        fn assert_send<T: Send>() {}
        assert_send::<crate::txn::Txn<'static>>();
    }

    #[test]
    fn end_to_end_select() {
        let db = db();
        setup_items(&db);
        let r = db.query("SELECT id, name FROM items WHERE qty = 3 ORDER BY id").unwrap();
        assert_eq!(r.rows.len(), (100 / 7));
        assert!(r.rows.windows(2).all(|w| w[0][0].as_int().unwrap() < w[1][0].as_int().unwrap()));
    }

    #[test]
    fn aggregation_and_having() {
        let db = db();
        setup_items(&db);
        let r = db
            .query(
                "SELECT qty, COUNT(*), SUM(price) FROM items GROUP BY qty \
                 HAVING COUNT(*) > 10 ORDER BY qty",
            )
            .unwrap();
        assert!(!r.rows.is_empty());
        for row in &r.rows {
            assert!(row[1].as_int().unwrap() > 10);
        }
    }

    #[test]
    fn scalar_aggregate_on_empty_input() {
        let db = db();
        setup_items(&db);
        let r = db.query("SELECT COUNT(*), SUM(qty) FROM items WHERE id > 1000").unwrap();
        assert_eq!(r.rows.len(), 1);
        assert_eq!(r.rows[0][0], Value::Int(0));
        assert!(r.rows[0][1].is_null());
    }

    #[test]
    fn joins() {
        let db = db();
        setup_items(&db);
        db.execute("CREATE TABLE tags (item_id INTEGER, tag VARCHAR(10))").unwrap();
        db.execute("INSERT INTO tags VALUES (1, 'red'), (1, 'hot'), (2, 'red')").unwrap();
        let r = db
            .query(
                "SELECT i.id, t.tag FROM items i, tags t \
                 WHERE i.id = t.item_id ORDER BY i.id, t.tag",
            )
            .unwrap();
        assert_eq!(r.rows.len(), 3);
        assert_eq!(r.rows[0][1], Value::str("hot"));
        // Explicit JOIN syntax gives same answer.
        let r2 = db
            .query(
                "SELECT i.id, t.tag FROM items i JOIN tags t ON i.id = t.item_id \
                 ORDER BY i.id, t.tag",
            )
            .unwrap();
        assert_eq!(r.rows, r2.rows);
    }

    #[test]
    fn left_outer_join() {
        let db = db();
        db.execute("CREATE TABLE a (x INTEGER)").unwrap();
        db.execute("CREATE TABLE b (y INTEGER)").unwrap();
        db.execute("INSERT INTO a VALUES (1), (2), (3)").unwrap();
        db.execute("INSERT INTO b VALUES (2)").unwrap();
        let r = db.query("SELECT x, y FROM a LEFT OUTER JOIN b ON a.x = b.y ORDER BY x").unwrap();
        assert_eq!(r.rows.len(), 3);
        assert!(r.rows[0][1].is_null());
        assert_eq!(r.rows[1][1], Value::Int(2));
        assert!(r.rows[2][1].is_null());
    }

    #[test]
    fn prepared_queries_rebind() {
        let db = db();
        setup_items(&db);
        let p = db.prepare("SELECT COUNT(*) FROM items WHERE qty = ?").unwrap();
        assert_eq!(p.n_params, 1);
        let a = db.execute_prepared(&p, &[Value::Int(0)]).unwrap();
        let b = db.execute_prepared(&p, &[Value::Int(6)]).unwrap();
        assert!(a.scalar().unwrap().as_int().unwrap() > 0);
        assert!(b.scalar().unwrap().as_int().unwrap() > 0);
        assert!(db.execute_prepared(&p, &[]).is_err(), "missing binding");
    }

    #[test]
    fn prepared_plan_is_blind_and_uses_index() {
        let db = db();
        setup_items(&db);
        db.execute("CREATE INDEX items_qty ON items (qty)").unwrap();
        // Literal query with low selectivity: scan.
        let lit_plan = db.explain("SELECT * FROM items WHERE qty < 9999").unwrap();
        assert!(lit_plan.contains("SeqScan"), "literal low-selectivity: {lit_plan}");
        // Parameterized: blindly picks the index (§4.1).
        let p = db.prepare("SELECT * FROM items WHERE qty < ?").unwrap();
        assert!(
            p.plan_description.contains("IndexScan"),
            "param plan should be blind: {}",
            p.plan_description
        );
        // It still returns correct answers.
        let all = db.execute_prepared(&p, &[Value::Int(9999)]).unwrap();
        assert_eq!(all.rows.len(), 100);
        let none = db.execute_prepared(&p, &[Value::Int(0)]).unwrap();
        assert!(none.rows.is_empty());
        // Switched off, the planner costs the marker as it would a
        // literal: the same statement scans, and reads no index node.
        let index_nodes_read = |p: &Prepared| {
            let before = db.snapshot();
            assert_eq!(db.execute_prepared(p, &[Value::Int(9999)]).unwrap().rows.len(), 100);
            db.snapshot().since(&before).index_node_reads()
        };
        assert!(index_nodes_read(&p) > 0);
        db.set_planner_config(PlannerConfig { blind_param_plans: false, ..db.planner_config() });
        let seeing = db.prepare("SELECT * FROM items WHERE qty < ?").unwrap();
        assert!(seeing.plan_description.contains("SeqScan"), "{}", seeing.plan_description);
        assert_eq!(index_nodes_read(&seeing), 0);
    }

    #[test]
    fn dml_update_delete() {
        let db = db();
        setup_items(&db);
        let n = db.execute("UPDATE items SET qty = 99 WHERE id < 10").unwrap().count().unwrap();
        assert_eq!(n, 10);
        let r = db.query("SELECT COUNT(*) FROM items WHERE qty = 99").unwrap();
        assert_eq!(r.scalar().unwrap(), Value::Int(10));
        let n = db.execute("DELETE FROM items WHERE qty = 99").unwrap().count().unwrap();
        assert_eq!(n, 10);
        let r = db.query("SELECT COUNT(*) FROM items").unwrap();
        assert_eq!(r.scalar().unwrap(), Value::Int(90));
    }

    #[test]
    fn views_expand() {
        let db = db();
        setup_items(&db);
        db.execute("CREATE VIEW cheap AS SELECT id, price FROM items WHERE price < 10").unwrap();
        let r = db.query("SELECT COUNT(*) FROM cheap").unwrap();
        assert_eq!(r.scalar().unwrap(), Value::Int(10));
        // View with alias binding.
        let r = db.query("SELECT c.id FROM cheap c WHERE c.id = 3").unwrap();
        assert_eq!(r.rows.len(), 1);
    }

    #[test]
    fn subqueries() {
        let db = db();
        setup_items(&db);
        // Uncorrelated scalar.
        let r = db
            .query("SELECT COUNT(*) FROM items WHERE price > (SELECT AVG(price) FROM items)")
            .unwrap();
        let n = r.scalar().unwrap().as_int().unwrap();
        assert!(n > 30 && n < 70, "about half above average, got {n}");
        // Correlated EXISTS.
        db.execute("CREATE TABLE tags (item_id INTEGER, tag VARCHAR(10))").unwrap();
        db.execute("INSERT INTO tags VALUES (5, 'x'), (7, 'y')").unwrap();
        let r = db
            .query(
                "SELECT id FROM items i WHERE EXISTS \
                 (SELECT 1 FROM tags t WHERE t.item_id = i.id) ORDER BY id",
            )
            .unwrap();
        assert_eq!(r.rows.len(), 2);
        assert_eq!(r.rows[0][0], Value::Int(5));
        // NOT IN with correct NULL semantics.
        db.execute("INSERT INTO tags VALUES (NULL, 'z')").unwrap();
        let r = db
            .query("SELECT COUNT(*) FROM items WHERE id NOT IN (SELECT item_id FROM tags)")
            .unwrap();
        assert_eq!(r.scalar().unwrap(), Value::Int(0), "NULL in NOT IN set kills all rows");
    }

    #[test]
    fn distinct_and_limit() {
        let db = db();
        setup_items(&db);
        let r = db.query("SELECT DISTINCT qty FROM items ORDER BY qty").unwrap();
        assert_eq!(r.rows.len(), 7);
        let r = db.query("SELECT id FROM items ORDER BY id DESC LIMIT 5").unwrap();
        assert_eq!(r.rows.len(), 5);
        assert_eq!(r.rows[0][0], Value::Int(99));
    }

    #[test]
    fn order_by_alias_and_ordinal() {
        let db = db();
        setup_items(&db);
        let r = db
            .query("SELECT qty, COUNT(*) AS cnt FROM items GROUP BY qty ORDER BY cnt DESC, qty")
            .unwrap();
        let counts: Vec<i64> = r.rows.iter().map(|r| r[1].as_int().unwrap()).collect();
        assert!(counts.windows(2).all(|w| w[0] >= w[1]));
        let r2 = db
            .query("SELECT qty, COUNT(*) AS cnt FROM items GROUP BY qty ORDER BY 2 DESC, 1")
            .unwrap();
        assert_eq!(r.rows, r2.rows);
    }

    #[test]
    fn select_without_from() {
        let db = db();
        let r = db.query("SELECT 1 + 2, 'x'").unwrap();
        assert_eq!(r.rows, vec![vec![Value::Int(3), Value::str("x")]]);
    }

    #[test]
    fn insert_with_column_list_defaults_null() {
        let db = db();
        db.execute("CREATE TABLE t (a INTEGER, b INTEGER, c VARCHAR(5))").unwrap();
        db.execute("INSERT INTO t (c, a) VALUES ('x', 1)").unwrap();
        let r = db.query("SELECT a, b, c FROM t").unwrap();
        assert_eq!(r.rows[0][0], Value::Int(1));
        assert!(r.rows[0][1].is_null());
        assert_eq!(r.rows[0][2], Value::str("x"));
    }

    #[test]
    fn errors_surface() {
        let db = db();
        assert!(matches!(db.query("SELECT * FROM nope"), Err(DbError::Catalog(_))));
        setup_items(&db);
        assert!(db.query("SELECT nonexistent FROM items").is_err());
        assert!(db.query("SELECT id FROM items GROUP BY qty").is_err(), "id not grouped");
    }

    #[test]
    fn index_scan_returns_same_as_seq_scan() {
        let db = db();
        db.execute("CREATE TABLE big (id INTEGER NOT NULL, grp INTEGER, PRIMARY KEY (id))")
            .unwrap();
        for batch in 0..200 {
            let values: Vec<String> = (0..100)
                .map(|i| {
                    let id = batch * 100 + i;
                    format!("({id}, {})", id % 2000)
                })
                .collect();
            db.execute(&format!("INSERT INTO big VALUES {}", values.join(", "))).unwrap();
        }
        db.execute("ANALYZE big").unwrap();
        // Tiny table earlier: scan wins. 20k rows with a selective equality
        // on the primary key: the index must win.
        let plan = db.explain("SELECT grp FROM big WHERE id = 12345").unwrap();
        assert!(plan.contains("IndexScan"), "selective equality should use the index: {plan}");
        let r = db.query("SELECT grp FROM big WHERE id = 12345").unwrap();
        assert_eq!(r.rows, vec![vec![Value::Int(12345 % 2000)]]);
        // Secondary index: same answers as a scan.
        let seq = db.query("SELECT id FROM big WHERE grp = 77 ORDER BY id").unwrap();
        db.execute("CREATE INDEX big_grp ON big (grp)").unwrap();
        db.execute("ANALYZE big").unwrap();
        let plan = db.explain("SELECT id FROM big WHERE grp = 77").unwrap();
        assert!(plan.contains("IndexScan"), "1/2000 selectivity should use the index: {plan}");
        let idx = db.query("SELECT id FROM big WHERE grp = 77 ORDER BY id").unwrap();
        assert_eq!(seq.rows, idx.rows);
        assert_eq!(idx.rows.len(), 10);
    }

    #[test]
    fn the_planner_prices_with_the_databases_calibration() {
        // With random page reads priced far above a whole sequential scan,
        // the selective equality that takes the index by default must scan.
        let dear = Calibration { ms_rand_page_read: 1e9, ..Calibration::default() };
        for (calibration, indexed) in [(Calibration::default(), true), (dear, false)] {
            let db = Database::new(DbConfig { calibration, ..DbConfig::default() });
            db.execute("CREATE TABLE big (id INTEGER NOT NULL, grp INTEGER, PRIMARY KEY (id))")
                .unwrap();
            let values: Vec<String> = (0..2000).map(|id| format!("({id}, {})", id % 20)).collect();
            db.execute(&format!("INSERT INTO big VALUES {}", values.join(", "))).unwrap();
            db.execute("ANALYZE big").unwrap();
            let plan = db.explain("SELECT grp FROM big WHERE id = 1234").unwrap();
            assert_eq!(plan.contains("IndexScan"), indexed, "{calibration:?}: {plan}");
            assert_eq!(db.query("SELECT grp FROM big WHERE id = 1234").unwrap().rows.len(), 1);
        }
    }
}
