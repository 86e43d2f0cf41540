//! Transactions for multi-user workloads.
//!
//! The paper's throughput test (TPC-D §5) runs N concurrent query streams
//! against one update stream. Concurrency control is strict two-phase
//! locking over the hierarchical lock manager in [`crate::lock`]:
//! IS/IX/S/X intention locks at table level with shared/exclusive key-range
//! locks underneath (Gray & Reuter multi-granularity locking — the scheme
//! the commercial RDBMS the paper benchmarks descends from).
//!
//! Granularity is chosen per statement. A SELECT is planned once; its read
//! locks come from that plan's access paths
//! ([`crate::exec::plan::Plan::table_accesses`]) and the names the planner
//! resolved ([`crate::planner::PlannedQuery`]), and that same plan runs:
//!
//! * a SELECT whose every access to a table is index-driven takes IS +
//!   shared key-range locks (literal primary-key bounds) or shared
//!   existing-row locks (run-time probes); any sequential scan falls back
//!   to a whole-table S lock, as do views and tables read from expression
//!   subqueries (their subplans are not visible in the main plan tree);
//! * INSERT with literal primary keys takes IX + exclusive point locks
//!   flagged *fresh*, which slip past existing-row readers — this is what
//!   lets TPC-D refresh pairs run between queries instead of behind them;
//! * DELETE/UPDATE sargable on the primary key take IX + an exclusive
//!   key-range lock (phantom-protecting); anything else takes table X.
//!
//! Rollback is transaction-level via an undo log. Deadlocks are detected
//! with a wait-for graph across both lock levels. Each table grants in
//! arrival order where requests conflict, with conversions (shared→exclusive,
//! escalation) ahead of new requests; a wait aborts only on a genuine cycle
//! or timeout. Every wait is metered as
//! [`Counter::LockWaits`] and the wall wait duration is accumulated per
//! transaction, so multi-stream drivers can attribute lock-wait time to
//! the right stream.
//!
//! This is the engine's only transaction implementation. A statement run
//! outside one — [`Database::execute`], `query`, `execute_prepared`,
//! `insert_row` — is a one-statement `Txn` ([`Database::autocommit`]):
//! it takes the same locks, and a statement that fails is rolled back
//! whole. An R/3 logical unit of work, from its first statement to COMMIT
//! WORK, is one `Txn` too. Only the bulk loader and DDL write outside one.

use crate::catalog::Catalog;
use crate::db::{Database, ExecOutcome, Prepared, QueryResult};
use crate::error::{DbError, DbResult};
use crate::exec::plan::{PkBounds, TableRead};
use crate::monitor::is_monitor_name;
use crate::planner::sarg_helpers::pk_lock_range;
use crate::planner::PlannedQuery;
use crate::schema::Row;
use crate::sql::ast::{Expr, Node, Statement};
use crate::sql::parse_statement;
use crate::storage::codec::encode_key;
use crate::storage::Rid;
use crate::types::Value;
use crate::wal::{LogPayload, Lsn, UndoAction, NULL_LSN};
use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;
use std::time::Duration;
use trace::meter::{CostMeter, Counter, MeterScope, MeterSnapshot};
use trace::wait::WaitEvent;

pub use crate::lock::{KeyRange, LockManager, LockMode, RowLock, RowMode, TxnId};

/// One undo-log record. Replayed in reverse on rollback; RIDs invalidated
/// by later undo steps (a heap update or re-insert can move a row) are
/// patched through a remap table during replay.
enum Undo {
    Insert { table: String, rid: Rid },
    Delete { table: String, rid: Rid, row: Row },
    Update { table: String, prev_rid: Rid, rid: Rid, old: Row },
}

impl Undo {
    /// What taking back a done operation needs of its record: all but the
    /// after-image.
    fn of(op: LogPayload) -> Undo {
        match op {
            LogPayload::Insert { table, rid, .. } => Undo::Insert { table, rid },
            LogPayload::Delete { table, rid, row } => Undo::Delete { table, rid, row },
            LogPayload::Update { table, rid, new_rid, old, .. } => {
                Undo::Update { table, prev_rid: rid, rid: new_rid, old }
            }
            other => unreachable!("not an operation record: {other:?}"),
        }
    }
}

/// Per-transaction metering summary returned by [`Txn::commit`].
#[derive(Debug, Clone, Copy)]
pub struct TxnStats {
    /// Work metered to this transaction (page reads, comparisons, ...).
    pub work: MeterSnapshot,
    /// Wall time the transaction spent blocked on locks.
    pub lock_wait: Duration,
}

/// An open transaction: strict 2PL table locks plus an undo log. Dropping
/// an uncommitted transaction rolls it back (best effort).
pub struct Txn<'db> {
    db: &'db Database,
    id: TxnId,
    meter: Arc<CostMeter>,
    undo: Vec<Undo>,
    /// LSN of the log record for each undo entry, parallel to `undo` (empty
    /// when the database has no WAL). Rollback uses it to chain CLR
    /// `undo_next`.
    op_lsns: Vec<Lsn>,
    lock_wait: Duration,
    done: bool,
}

impl<'db> Txn<'db> {
    pub(crate) fn new(db: &'db Database, id: TxnId) -> Self {
        Txn {
            db,
            id,
            meter: CostMeter::new(),
            undo: Vec::new(),
            op_lsns: Vec::new(),
            lock_wait: Duration::ZERO,
            done: false,
        }
    }

    /// This transaction's identifier in the lock manager and the WAL.
    pub fn id(&self) -> TxnId {
        self.id
    }

    /// Work metered to this transaction so far.
    pub fn work(&self) -> MeterSnapshot {
        self.meter.snapshot()
    }

    /// Wall time this transaction has spent blocked on locks.
    pub fn lock_wait(&self) -> Duration {
        self.lock_wait
    }

    /// Execute one SQL statement inside the transaction. A SELECT is
    /// planned once and takes the read locks of that plan
    /// ([`select_read_locks`]); DML takes an exclusive lock on its target
    /// (plus shared locks for subquery reads); DDL is rejected. A statement that fails mid-flight leaves its partial
    /// effects in the undo log — roll the transaction back to remove them.
    pub fn execute(&mut self, sql: &str) -> DbResult<ExecOutcome> {
        self.execute_statement(&parse_statement(sql)?)
    }

    /// [`Txn::execute`] of a parsed statement.
    pub fn execute_statement(&mut self, stmt: &Statement) -> DbResult<ExecOutcome> {
        if let Statement::Select(q) = stmt {
            // Planned once: the locks are those of the plan that runs.
            let pq = self.db.plan_select(q)?;
            self.lock_reads(&select_read_locks(&pq), &[])?;
            let _scope = MeterScope::enter(Arc::clone(&self.meter));
            return self.db.execute_planned(pq).map(ExecOutcome::Rows);
        }
        self.lock_statement(stmt)?;
        let mut ops = Vec::new();
        let res = {
            let _scope = MeterScope::enter(Arc::clone(&self.meter));
            self.db.apply_dml(stmt, &mut ops).map(ExecOutcome::Count)
        };
        // Even a failed statement's partial effects: they are in the store,
        // so they must be in the undo log and in the WAL too (the rollback
        // that removes them will log compensation records).
        self.note_ops(ops);
        res
    }

    /// Execute a SELECT and return its rows.
    pub fn query(&mut self, sql: &str) -> DbResult<QueryResult> {
        self.execute(sql)?.rows()
    }

    /// Execute a prepared SELECT under this transaction's locks (the wire
    /// protocol's Execute message for a bound portal). Read locks come from
    /// the lock plan computed at prepare time — no replanning here — with
    /// its parameter markers bound to `params`.
    pub fn execute_prepared(&mut self, p: &Prepared, params: &[Value]) -> DbResult<QueryResult> {
        self.lock_reads(&p.lock_plan, params)?;
        let _scope = MeterScope::enter(Arc::clone(&self.meter));
        self.db.run_prepared(p, params)
    }

    /// Bulk-path insert of a pre-built row (the benchmark kit's refresh
    /// functions use this; constraint checks still apply). Takes an
    /// exclusive point lock on the row's primary key (IX at table level);
    /// tables without a primary key fall back to a table X lock.
    pub fn insert_row(&mut self, table: &str, row: &[Value]) -> DbResult<()> {
        let t = self.db.catalog().table(table)?;
        // The row's whole primary key, if it has one.
        let pk: Option<Vec<Value>> =
            t.primary_key.iter().map(|&i| row.get(i).filter(|v| !v.is_null()).cloned()).collect();
        let key = pk.filter(|_| !t.primary_key.is_empty()).map(|vals| vec![encode_key(&vals)]);
        self.lock_new_rows(&t.name, key)?;
        let (rid, row) = {
            let _scope = MeterScope::enter(Arc::clone(&self.meter));
            self.db.catalog().insert_stored(&t, row)?
        };
        self.note_ops(vec![LogPayload::Insert { table: t.name.clone(), rid, row }]);
        Ok(())
    }

    /// Take in the operations a statement just did: to the log, if there is
    /// one, and onto the undo log.
    fn note_ops(&mut self, ops: Vec<LogPayload>) {
        if let Some(wal) = self.db.wal().filter(|_| !ops.is_empty()) {
            let lsns = wal.append_batch(self.id, &ops);
            self.db.note_logged(&ops, &lsns);
            self.op_lsns.extend(lsns);
        }
        self.undo.extend(ops.into_iter().map(Undo::of));
    }

    /// Commit: keep all effects, release locks. With a WAL, a `Commit`
    /// record is appended and made durable per the log's
    /// [`crate::wal::CommitPolicy`] *before* locks are released — under
    /// group commit this is where the calling work process parks until a
    /// leader's force covers it.
    pub fn commit(mut self) -> DbResult<TxnStats> {
        let wal_result = match self.db.wal() {
            Some(wal) if !self.op_lsns.is_empty() => {
                let lsns = wal.append_batch(self.id, &[LogPayload::Commit]);
                wal.commit(lsns[0])
            }
            _ => Ok(()),
        };
        self.done = true;
        self.undo.clear();
        self.op_lsns.clear();
        self.db.lock_manager().release_all(self.id);
        wal_result?;
        Ok(TxnStats { work: self.meter.snapshot(), lock_wait: self.lock_wait })
    }

    /// Roll back: undo every change this transaction made, release locks.
    pub fn rollback(mut self) -> DbResult<TxnStats> {
        let result = self.rollback_inner();
        self.done = true;
        self.db.lock_manager().release_all(self.id);
        if result.is_err() {
            self.meter.bump(Counter::RollbackErrors);
            self.db.meter().bump(Counter::RollbackErrors);
        }
        result?;
        Ok(TxnStats { work: self.meter.snapshot(), lock_wait: self.lock_wait })
    }

    fn rollback_inner(&mut self) -> DbResult<()> {
        let mut staged = Vec::new();
        let result = self.undo_all(&mut staged);
        // Even when an undo step fails partway, the compensation records
        // staged so far and the Abort must reach the log file — otherwise a
        // crash after a failed rollback would replay the transaction's
        // operations as if the rollback never started. (The drop path used
        // to skip this when undo errored.)
        let logged = self.finish_wal_abort(staged);
        result?;
        logged
    }

    /// Replay the undo log in reverse, staging one compensation record per
    /// successfully undone *logged* operation. A record names rows the way
    /// every other log record does, by the rid they live at as it is
    /// written: the rid the row was found at for a delete or revert, the
    /// rid it was put at for a re-insert or revert. (A rid is reused once
    /// its row is gone, so the rid an undone delete once used may by now
    /// name another transaction's row.)
    fn undo_all(&mut self, staged: &mut Vec<LogPayload>) -> DbResult<()> {
        let _scope = MeterScope::enter(Arc::clone(&self.meter));
        // RIDs recorded at do-time can be stale by the time we undo: a heap
        // update or a re-insert may have moved the row. `moved` carries
        // "row recorded at rid R now lives at rid R2" forward through the
        // reverse replay.
        let mut moved: HashMap<(String, Rid), Rid> = HashMap::new();
        let catalog = self.db.catalog();
        while let Some(u) = self.undo.pop() {
            let idx = self.undo.len();
            let action = match u {
                Undo::Insert { table, rid } => {
                    let rid = moved.remove(&(table.clone(), rid)).unwrap_or(rid);
                    let t = catalog.table(&table)?;
                    let _rows_stay = t.changes.lock();
                    catalog.delete_row(&t, rid)?;
                    UndoAction::Delete { table, rid }
                }
                Undo::Delete { table, rid, row } => {
                    let new_rid = catalog.insert_row(&*catalog.table(&table)?, &row)?;
                    moved.insert((table.clone(), rid), new_rid);
                    UndoAction::Insert { table, rid: new_rid, row }
                }
                Undo::Update { table, prev_rid, rid, old } => {
                    let cur = moved.remove(&(table.clone(), rid)).unwrap_or(rid);
                    let t = catalog.table(&table)?;
                    let _rows_stay = t.changes.lock();
                    let restored = catalog.update_row(&t, cur, &old)?;
                    moved.insert((table.clone(), prev_rid), restored);
                    UndoAction::Revert { table, rid: cur, prev_rid: restored, old }
                }
            };
            // Without a WAL there is no log to compensate in.
            if idx < self.op_lsns.len() {
                let undo_next = if idx == 0 { NULL_LSN } else { self.op_lsns[idx - 1] };
                staged.push(LogPayload::Clr { undo_next, action });
            }
        }
        Ok(())
    }

    /// Append the staged compensation records and an `Abort`, then write
    /// them through to the log file. Aborts need not be fsynced, but their
    /// records must not sit only in this process's buffer — restart decides
    /// what is already compensated by reading them.
    fn finish_wal_abort(&mut self, staged: Vec<LogPayload>) -> DbResult<()> {
        let Some(wal) = self.db.wal() else {
            return Ok(());
        };
        if self.op_lsns.is_empty() {
            return Ok(());
        }
        let mut batch = staged;
        batch.push(LogPayload::Abort);
        let lsns = wal.append_batch(self.id, &batch);
        self.db.note_logged(&batch, &lsns);
        self.op_lsns.clear();
        wal.write_buffered(false)
    }

    fn lock_table(&mut self, table: &str, mode: LockMode) -> DbResult<()> {
        let waited = self.db.lock_manager().acquire(self.id, table, mode)?;
        self.note_wait(table, waited);
        Ok(())
    }

    fn lock_row(&mut self, table: &str, lock: RowLock) -> DbResult<()> {
        let waited = self.db.lock_manager().acquire_row(self.id, table, lock)?;
        self.note_wait(table, waited);
        Ok(())
    }

    fn note_wait(&mut self, table: &str, waited: Duration) {
        if waited > Duration::ZERO {
            self.lock_wait += waited;
            self.meter.bump(Counter::LockWaits);
            self.db.meter().bump(Counter::LockWaits);
            // Same condition as the LockWaits meter so M$WAIT_EVENTS lock
            // counts reconcile with it exactly.
            self.db.wait_stats().record(WaitEvent::Lock, waited);
            // Name the contended table on the active request trace, so a
            // slow request's lock segment says *what* it waited on.
            trace::request::annotate("lock_wait_table", table);
        }
    }

    /// Locks of a DML statement; anything else that reaches here is DDL.
    fn lock_statement(&mut self, stmt: &Statement) -> DbResult<()> {
        // Write locks first, then subquery read locks, each in sorted name
        // order, so every transaction requests locks for one statement in
        // the same global order (deadlocks can still arise across
        // statements).
        match stmt {
            Statement::Insert { table, columns, rows } => {
                self.lock_insert(table, columns.as_deref(), rows)?;
                self.lock_subquery_reads(stmt)?;
            }
            Statement::Delete { table, filter } => {
                self.lock_dml(table, filter.as_ref(), false)?;
                self.lock_subquery_reads(stmt)?;
            }
            Statement::Update { table, assignments, filter } => {
                // Updating a primary-key column moves the row in key space:
                // a key-range lock derived from the filter would not cover
                // the destination, so fall back to a table lock.
                let force_table = match self.db.catalog().table(table) {
                    Ok(t) => assignments.iter().any(|(col, _)| {
                        t.schema
                            .resolve(None, col)
                            .map(|i| t.primary_key.contains(&i))
                            .unwrap_or(true)
                    }),
                    Err(_) => true,
                };
                self.lock_dml(table, filter.as_ref(), force_table)?;
                self.lock_subquery_reads(stmt)?;
            }
            _ => {
                return Err(DbError::execution(
                    "DDL is not transactional; execute it outside a transaction",
                ))
            }
        }
        Ok(())
    }

    /// Take a SELECT's read locks, in the order of its lock plan, its
    /// parameter markers bound to `params`.
    fn lock_reads(&mut self, plan: &[(String, ReadLockPlan)], params: &[Value]) -> DbResult<()> {
        for (table, plan) in plan {
            match plan {
                ReadLockPlan::Table => self.lock_table(table, LockMode::Shared)?,
                ReadLockPlan::Rows(locks) => {
                    for lock in locks {
                        self.lock_row(table, lock.clone())?;
                    }
                }
                ReadLockPlan::PkParams(bounds) => {
                    self.lock_row(table, RowLock::shared(bounds.range(params)))?
                }
            }
        }
        Ok(())
    }

    /// INSERT with literal primary-key values takes exclusive *fresh* point
    /// locks (IX at the table), so it coexists with readers of existing
    /// rows. Anything else — no primary key, computed key expressions, a
    /// column list omitting a key column — takes a table X lock.
    fn lock_insert(
        &mut self,
        table: &str,
        columns: Option<&[String]>,
        rows: &[Vec<Expr>],
    ) -> DbResult<()> {
        let Ok(t) = self.db.catalog().table(table) else {
            // Statement will fail with a proper catalog error; locking the
            // nonexistent name is harmless (matches the old behaviour).
            return self.lock_table(table, LockMode::Exclusive);
        };
        // Position of each primary-key column inside the VALUES tuples.
        let positions: Option<Vec<usize>> = match columns {
            _ if t.primary_key.is_empty() => None,
            None => Some(t.primary_key.clone()),
            Some(cols) => t
                .primary_key
                .iter()
                .map(|&ord| {
                    let name = &t.schema.columns()[ord].name;
                    cols.iter().position(|c| c.eq_ignore_ascii_case(name))
                })
                .collect(),
        };
        // Each VALUES tuple's key, if every key column is a literal.
        let keys = positions.and_then(|positions| {
            rows.iter()
                .map(|row| {
                    let vals = positions.iter().map(|&p| match row.get(p) {
                        Some(Expr::Literal(v)) if !v.is_null() => Some(v.clone()),
                        _ => None,
                    });
                    Some(encode_key(&vals.collect::<Option<Vec<_>>>()?))
                })
                .collect()
        });
        self.lock_new_rows(&t.name, keys)
    }

    /// Exclusive *fresh* point locks on the primary keys of rows about to
    /// be inserted, or a table X lock when the keys are not known (`None`).
    fn lock_new_rows(&mut self, table: &str, keys: Option<Vec<Vec<u8>>>) -> DbResult<()> {
        let Some(keys) = keys else {
            return self.lock_table(table, LockMode::Exclusive);
        };
        for key in keys {
            self.lock_row(table, RowLock::insert(KeyRange::point(&key)))?;
        }
        Ok(())
    }

    /// DELETE/UPDATE: an exclusive key-range lock when the filter is
    /// sargable on the primary key (IX at the table, phantom-protecting),
    /// table X otherwise.
    fn lock_dml(&mut self, table: &str, filter: Option<&Expr>, force_table: bool) -> DbResult<()> {
        if force_table {
            return self.lock_table(table, LockMode::Exclusive);
        }
        let Ok(t) = self.db.catalog().table(table) else {
            return self.lock_table(table, LockMode::Exclusive);
        };
        match filter.and_then(|f| pk_lock_range(&t, f)) {
            Some(range) => self.lock_row(&t.name, RowLock::exclusive(range)),
            None => self.lock_table(&t.name, LockMode::Exclusive),
        }
    }

    /// Shared table locks for every table a DML statement reads (subqueries
    /// in filters, assignments, or VALUES expressions).
    fn lock_subquery_reads(&mut self, stmt: &Statement) -> DbResult<()> {
        let (reads, writes) = referenced_tables(stmt, self.db.catalog());
        for t in reads.difference(&writes) {
            self.lock_table(t, LockMode::Shared)?;
        }
        Ok(())
    }
}

/// How a SELECT read-locks one table: whole-table shared, or a set of
/// row/key-range locks when every visible access is index-driven.
#[derive(Debug, Clone)]
pub enum ReadLockPlan {
    /// Whole-table shared lock (sequential scan somewhere in the plan).
    Table,
    /// Key-range / existing-row locks; every access is index-driven.
    Rows(Vec<RowLock>),
    /// One primary-key range whose bounds hold parameter markers: a
    /// shared key-range lock over the keys the bound statement reads.
    PkParams(PkBounds),
}

/// Per-table read-lock plan of a planned SELECT, in table-name order.
/// Tables whose every access in the plan is index-driven get row locks
/// (key ranges for literal primary-key bounds, existing-row locks for
/// run-time probes). A table read once, by a primary-key range whose
/// bounds hold parameter markers, gets that key range, bound when the
/// statement runs ([`ReadLockPlan::PkParams`]). Scanned tables, views,
/// and names read inside an expression subquery (whose subplans are not
/// in the main plan tree) get whole-table shared locks. `M$` views get none. Exposed so workload
/// models can predict the same lock footprint the engine takes.
pub fn select_read_locks(pq: &PlannedQuery) -> Vec<(String, ReadLockPlan)> {
    let mut by_table: HashMap<String, Vec<TableRead>> = HashMap::new();
    for a in pq.plan.table_accesses() {
        by_table.entry(a.table).or_default().push(a.read);
    }
    let mut out = Vec::new();
    for (table, &in_subquery) in &pq.names {
        if is_monitor_name(table) {
            continue;
        }
        let plan = match by_table.remove(table) {
            // The one read of the table is a parameterized primary-key range.
            Some(mut reads) if !in_subquery && matches!(reads[..], [TableRead::PkParams(_)]) => {
                let Some(TableRead::PkParams(bounds)) = reads.pop() else { unreachable!() };
                ReadLockPlan::PkParams(bounds)
            }
            // Among others, a parameterized range locks as a probe does.
            Some(reads) if !in_subquery => reads
                .into_iter()
                .map(|r| match r {
                    TableRead::PkRange(range) => Some(RowLock::shared(range)),
                    TableRead::PkParams(_) | TableRead::Probe => {
                        Some(RowLock::shared_existing(KeyRange::all()))
                    }
                    TableRead::Scan => None,
                })
                .collect::<Option<_>>()
                .map_or(ReadLockPlan::Table, ReadLockPlan::Rows),
            _ => ReadLockPlan::Table,
        };
        out.push((table.clone(), plan));
    }
    out
}

impl Drop for Txn<'_> {
    fn drop(&mut self) {
        if !self.done {
            // A failed undo here has nowhere to return an error, but a
            // corrupted-undo path must at least be observable: count it.
            if self.rollback_inner().is_err() {
                self.meter.bump(Counter::RollbackErrors);
                self.db.meter().bump(Counter::RollbackErrors);
            }
            self.db.lock_manager().release_all(self.id);
        }
    }
}

/// Base tables a statement reads and writes (view references expanded to
/// the tables underneath). Names are upper-cased like the catalog's own
/// lookups. Unknown names are kept — the statement will fail later with a
/// proper catalog error; locking a nonexistent name is harmless.
pub fn referenced_tables(
    stmt: &Statement,
    catalog: &Catalog,
) -> (BTreeSet<String>, BTreeSet<String>) {
    let mut reads = BTreeSet::new();
    let mut writes = BTreeSet::new();
    if let Statement::Insert { table, .. }
    | Statement::Delete { table, .. }
    | Statement::Update { table, .. } = stmt
    {
        writes.insert(table.to_ascii_uppercase());
    }
    // CREATE VIEW reads its defining query's tables — callers that use
    // this for read-set analysis (not locking) want those names. Other DDL
    // reads nothing and takes no data locks (rejected inside transactions).
    stmt.walk(&mut |node| note_read(node, catalog, &mut reads));
    (reads, writes)
}

fn note_read(node: Node<'_>, catalog: &Catalog, reads: &mut BTreeSet<String>) {
    let Node::Table(name) = node else { return };
    let upper = name.to_ascii_uppercase();
    // Virtual M$ monitoring views take no locks and are not plan-cache
    // dependencies.
    if is_monitor_name(&upper) {
        return;
    }
    let view = catalog.view(&upper);
    // Views cannot be self-referential (a view must plan at CREATE time,
    // before its own name exists), so recursion terminates.
    if reads.insert(upper) {
        if let Some(view) = view {
            view.walk(&mut |n| note_read(n, catalog, reads));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lock_compatibility_and_upgrade() {
        let lm = LockManager::new(Duration::from_millis(200));
        lm.acquire(1, "t", LockMode::Shared).unwrap();
        lm.acquire(2, "t", LockMode::Shared).unwrap();
        assert_eq!(lm.held(1), vec!["T"]);
        // Upgrade blocked by the other reader times out.
        assert!(matches!(lm.acquire(1, "t", LockMode::Exclusive), Err(DbError::Deadlock(_))));
        lm.release_all(2);
        lm.acquire(1, "t", LockMode::Exclusive).unwrap();
        // X implies S; re-acquire is free.
        lm.acquire(1, "t", LockMode::Shared).unwrap();
        lm.release_all(1);
        lm.acquire(3, "t", LockMode::Exclusive).unwrap();
    }

    #[test]
    fn referenced_tables_expands_views_and_subqueries() {
        let db = Database::with_defaults();
        db.execute("CREATE TABLE base (a INTEGER)").unwrap();
        db.execute("CREATE TABLE other (b INTEGER)").unwrap();
        db.execute("CREATE VIEW v AS SELECT a FROM base").unwrap();
        let stmt = parse_statement("SELECT * FROM v WHERE a > (SELECT MAX(b) FROM other)").unwrap();
        let (reads, writes) = referenced_tables(&stmt, db.catalog());
        assert!(reads.contains("BASE") && reads.contains("OTHER") && reads.contains("V"));
        assert!(writes.is_empty());
        let stmt =
            parse_statement("UPDATE base SET a = 1 WHERE a IN (SELECT b FROM other)").unwrap();
        let (reads, writes) = referenced_tables(&stmt, db.catalog());
        assert_eq!(writes.iter().collect::<Vec<_>>(), vec!["BASE"]);
        assert!(reads.contains("OTHER"));
    }
}
