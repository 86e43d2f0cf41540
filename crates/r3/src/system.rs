//! The R/3 system: application server + data dictionary + back-end RDBMS.
//!
//! Every call from the application server into the RDBMS goes through the
//! metered helpers here, charging interface crossings and shipped tuples —
//! the costs that drive the paper's Native-vs-Open-vs-isolated comparisons.
//!
//! A logical unit of work (LUW) — one batch-input document, from its first
//! check to COMMIT WORK — is one engine transaction ([`rdbms::Txn`]). Every
//! helper that writes takes the LUW, so each statement of a document runs
//! under its locks and its undo log, and a document commits or vanishes
//! whole. [`R3System::commit_work`] is [`rdbms::Txn::commit`]. A read
//! outside any LUW (a report's Open or Native SQL) is a one-statement
//! transaction of its own.

use crate::buffer::TableBuffer;
use crate::dict::{
    decode_cluster_rows, encode_cluster_rows, encode_row_data, DataDict, LogicalTable, TableKind,
};
use crate::schema::{build_dict, physical_ddl, LogicalRow, MANDT};
use crate::sqltrace::{SqlOp, SqlTrace};
use crate::workload::WorkloadMonitor;
use crate::Release;
use parking_lot::Mutex;
use rdbms::error::{DbError, DbResult};
use rdbms::schema::Row;
use rdbms::types::Value;
use rdbms::{Database, DbConfig, Prepared, QueryResult, Txn};
use std::collections::HashMap;
use std::sync::Arc;
use tpcd::DbGen;
use trace::meter::{CostMeter, Counter, MeterSnapshot};

/// Escape a string for inclusion in a SQL literal.
pub fn sql_quote(s: &str) -> String {
    s.replace('\'', "''")
}

/// The running system.
pub struct R3System {
    pub release: Release,
    pub db: Database,
    pub dict: DataDict,
    pub buffer: TableBuffer,
    /// Cursor cache: Open SQL statement text -> prepared plan (§2.3). A
    /// plan is reused while [`Prepared::is_current`] holds. The key is the
    /// exact text, not the engine's normalized [`rdbms::sql::StatementId`]:
    /// Open SQL generates its statements with `?` markers, so the text
    /// already is the normal form, and normalizing would add a parse to
    /// every crossing (174 per `sap_reports` op, ~20 per `order_entry`
    /// batch-input op).
    cursor_cache: Mutex<HashMap<String, Arc<Prepared>>>,
    /// Number-range allocation lock (SAP serializes NRIV intervals).
    pub(crate) number_range_lock: Mutex<()>,
    /// ST05-style SQL trace; disabled unless a caller enables it.
    pub sql_trace: SqlTrace,
    /// ST03-style workload roll-up, published as `M$WORKLOAD`.
    pub workload: Arc<WorkloadMonitor>,
}

impl R3System {
    /// Install R/3: build the dictionary for the release and create the
    /// physical schema on a fresh database.
    pub fn install(release: Release, config: DbConfig) -> DbResult<Self> {
        let db = Database::new(config);
        let dict = build_dict(release);
        for stmt in physical_ddl(&dict) {
            db.execute(&stmt)?;
        }
        let buffer = TableBuffer::new(Arc::clone(db.meter()));
        let workload = WorkloadMonitor::new();
        db.catalog().register_monitor_view(workload.view());
        Ok(R3System {
            release,
            db,
            dict,
            buffer,
            cursor_cache: Mutex::new(HashMap::new()),
            number_range_lock: Mutex::new(()),
            sql_trace: SqlTrace::default(),
            workload,
        })
    }

    pub fn install_default(release: Release) -> DbResult<Self> {
        Self::install(release, DbConfig::default())
    }

    pub fn meter(&self) -> &Arc<CostMeter> {
        self.db.meter()
    }

    pub fn snapshot(&self) -> MeterSnapshot {
        self.db.meter().snapshot()
    }

    // ------------------------------------------------------------------
    // Metered database interface
    // ------------------------------------------------------------------

    /// One interface crossing: charge `ipc_crossings`, run `call`, and —
    /// with ST05 on — trace it as `op` on `statement()` with `params`
    /// and `rows(result)` rows; a failed call is traced with its error.
    /// `statement` and `rows` run only when tracing is on, so with ST05
    /// off a crossing formats and allocates nothing.
    pub(crate) fn crossing<T>(
        &self,
        op: SqlOp,
        statement: impl FnOnce() -> String,
        params: &[Value],
        call: impl FnOnce() -> DbResult<T>,
        rows: impl FnOnce(&T) -> u64,
    ) -> DbResult<T> {
        let traced = self.sql_trace.begin();
        self.meter().bump(Counter::IpcCrossings);
        let out = call();
        if let Some(t) = traced {
            match &out {
                Ok(v) => t.finish(op, statement(), params, rows(v), 1),
                Err(e) => t.failed(e).finish(op, statement(), params, 0, 1),
            }
        }
        out
    }

    /// One prepared round trip (the Open SQL path: parameterized text,
    /// cursor-cached plan), as a one-statement LUW.
    pub fn db_select_prepared(&self, sql: &str, params: &[Value]) -> DbResult<QueryResult> {
        self.db.autocommit(|luw| self.db_select(luw, sql, params))
    }

    /// [`R3System::db_select_prepared`] inside the LUW `luw`, under its
    /// read locks.
    pub(crate) fn db_select(
        &self,
        luw: &mut Txn<'_>,
        sql: &str,
        params: &[Value],
    ) -> DbResult<QueryResult> {
        // A cursor whose plan DDL made stale is re-prepared: an OPEN.
        let (prepared, reopen) = {
            let mut cache = self.cursor_cache.lock();
            match cache.get(sql).filter(|p| p.is_current(self.db.catalog())) {
                Some(p) => (Arc::clone(p), true),
                None => {
                    let p = Arc::new(self.db.prepare(sql)?);
                    cache.insert(sql.to_string(), Arc::clone(&p));
                    (p, false)
                }
            }
        };
        let op = if reopen { SqlOp::Reopen } else { SqlOp::Open };
        self.crossing(
            op,
            || sql.to_string(),
            params,
            || {
                let result = luw.execute_prepared(&prepared, params)?;
                self.meter().add(Counter::IpcTuples, result.rows.len() as u64);
                Ok(result)
            },
            |result| result.rows.len() as u64,
        )
    }

    /// The prepared plan for a statement (for tests asserting blindness).
    pub fn cached_plan_description(&self, sql: &str) -> Option<String> {
        self.cursor_cache.lock().get(sql).map(|p| p.plan_description.clone())
    }

    /// One direct round trip with literals visible (the Native SQL path).
    pub fn db_execute_direct(&self, sql: &str) -> DbResult<rdbms::ExecOutcome> {
        use rdbms::ExecOutcome;
        self.crossing(
            SqlOp::Exec,
            || sql.to_string(),
            &[],
            || {
                let out = self.db.execute(sql)?;
                if let ExecOutcome::Rows(r) = &out {
                    self.meter().add(Counter::IpcTuples, r.rows.len() as u64);
                }
                Ok(out)
            },
            |out| match out {
                ExecOutcome::Rows(r) => r.rows.len() as u64,
                ExecOutcome::Count(n) => *n,
                _ => 0,
            },
        )
    }

    pub fn db_query_direct(&self, sql: &str) -> DbResult<QueryResult> {
        self.db_execute_direct(sql)?.rows()
    }

    /// COMMIT WORK: commit the logical unit of work `luw` (one batch-input
    /// document). Its locks are released once its commit record is durable
    /// per the database's [`rdbms::CommitPolicy`] — under group commit the
    /// calling work process parks here until a shared log force covers
    /// it. With a WAL the commit round trip is traced as one interface
    /// crossing; without one it costs nothing.
    pub fn commit_work(&self, luw: Txn<'_>) -> DbResult<()> {
        if self.db.wal().is_none() {
            return luw.commit().map(drop);
        }
        self.crossing(SqlOp::Commit, || "COMMIT WORK".into(), &[], || luw.commit().map(drop), |_| 0)
    }

    // ------------------------------------------------------------------
    // Logical-table writes through the dictionary
    // ------------------------------------------------------------------

    /// Insert one logical row in the LUW `luw` (dictionary-mediated;
    /// handles pool and cluster encoding). Used by batch input.
    pub fn insert_logical(&self, luw: &mut Txn<'_>, table: &str, row: &[Value]) -> DbResult<()> {
        if !self.store_logical(table, row, |physical, row| luw.insert_row(physical, row))? {
            let lt = self.dict.table(table)?;
            self.insert_cluster_rows(luw, &lt, std::slice::from_ref(&row.to_vec()))?;
        }
        Ok(())
    }

    /// Insert one record's logical rows as one LUW, without batch input's
    /// checks (master data typed in, or set up for an experiment).
    pub fn insert_record(&self, rows: &[LogicalRow]) -> DbResult<()> {
        self.db
            .autocommit(|luw| rows.iter().try_for_each(|(t, row)| self.insert_logical(luw, t, row)))
    }

    /// Store one logical row: a transparent table's as it is and a pool
    /// table's encoded into its container's row, both through `store`.
    /// A cluster table's rows are stored per document
    /// ([`R3System::insert_cluster_rows`]): `false`, nothing stored.
    fn store_logical(
        &self,
        table: &str,
        row: &[Value],
        store: impl FnOnce(&str, &[Value]) -> DbResult<()>,
    ) -> DbResult<bool> {
        let lt = self.dict.table(table)?;
        if row.len() != lt.columns.len() {
            return Err(DbError::execution(format!(
                "{table}: row has {} fields, dictionary says {}",
                row.len(),
                lt.columns.len()
            )));
        }
        match &lt.kind {
            TableKind::Transparent => store(&lt.name, row)?,
            TableKind::Pool { container } => {
                let varkey = pool_varkey(&lt, row);
                let vardata = encode_row_data(&row[lt.key_len..]);
                store(
                    container,
                    &[
                        Value::str(MANDT),
                        Value::str(&lt.name),
                        Value::Str(varkey),
                        Value::Str(vardata),
                    ],
                )?
            }
            TableKind::Cluster { .. } => return Ok(false),
        }
        Ok(true)
    }

    /// Insert a batch of logical rows of a *cluster* table that share the
    /// same cluster key (one business document) in the LUW `luw`, bundling
    /// them into the physical container row. Appends to an existing blob if
    /// present.
    pub fn insert_cluster_rows(
        &self,
        luw: &mut Txn<'_>,
        lt: &LogicalTable,
        rows: &[Row],
    ) -> DbResult<()> {
        let TableKind::Cluster { container, cluster_key_len } = &lt.kind else {
            return Err(DbError::execution(format!("{} is not a cluster table", lt.name)));
        };
        if rows.is_empty() {
            return Ok(());
        }
        let key = &rows[0][..*cluster_key_len];
        if rows.iter().any(|r| &r[..*cluster_key_len] != key) {
            return Err(DbError::execution("cluster batch insert requires a single cluster key"));
        }
        let data_rows: Vec<Row> = rows.iter().map(|r| r[*cluster_key_len..].to_vec()).collect();
        let key_col = &lt.columns[1].name; // after MANDT
        let key_lit = sql_quote(key[1].as_str()?);
        // Read-modify-write of the container row.
        let existing = luw.query(&format!(
            "SELECT VARDATA FROM {container} WHERE MANDT = '{MANDT}' AND {key_col} = '{key_lit}'"
        ))?;
        if existing.rows.is_empty() {
            let blob = encode_cluster_rows(&data_rows);
            luw.insert_row(
                container,
                &[key[0].clone(), key[1].clone(), Value::Int(0), Value::Str(blob)],
            )?;
        } else {
            let old = existing.rows[0][0].as_str()?.to_string();
            let mut all = decode_cluster_rows(&old, lt.data_cluster_columns())?;
            all.extend(data_rows);
            let blob = encode_cluster_rows(&all);
            luw.execute(&format!(
                "UPDATE {container} SET VARDATA = '{}' WHERE MANDT = '{MANDT}' AND {key_col} = '{key_lit}'",
                sql_quote(&blob)
            ))?;
        }
        Ok(())
    }

    /// Delete all cluster rows for one cluster key (document) in the LUW
    /// `luw`.
    pub fn delete_cluster_document(
        &self,
        luw: &mut Txn<'_>,
        table: &str,
        key: &Value,
    ) -> DbResult<u64> {
        let lt = self.dict.table(table)?;
        let TableKind::Cluster { container, .. } = &lt.kind else {
            return Err(DbError::execution(format!("{table} is not a cluster table")));
        };
        let key_col = &lt.columns[1].name;
        luw.execute(&format!(
            "DELETE FROM {container} WHERE MANDT = '{MANDT}' AND {key_col} = '{}'",
            sql_quote(key.as_str()?)
        ))?
        .count()
    }

    // ------------------------------------------------------------------
    // Direct (experiment-setup) loader
    // ------------------------------------------------------------------

    /// Load the whole TPC-D population into the SAP schema through the
    /// database's bulk interface — used to set up experiments. The
    /// *measured* loading experiment (paper Table 3) goes through
    /// `batch_input` instead. Transparent and pool rows are stored as they
    /// come; a cluster document goes in whole, by the per-document path
    /// (which reads its container back), as a one-document LUW.
    pub fn load_tpcd(&self, gen: &DbGen) -> DbResult<()> {
        use crate::schema as s;
        let konv = self.dict.table("KONV")?;
        self.db.bulk_load(|load| {
            let mut put = |rows: Vec<(&str, Row)>| {
                rows.into_iter().try_for_each(|(t, row)| {
                    let stored =
                        self.store_logical(t, &row, |physical, row| load.insert(physical, row))?;
                    stored
                        .then_some(())
                        .ok_or_else(|| DbError::execution(format!("{t} is clustered")))
                })
            };
            gen.nations().iter().try_for_each(|n| put(s::nation_rows(n)))?;
            gen.regions().iter().try_for_each(|r| put(s::region_rows(r)))?;
            gen.parts().iter().try_for_each(|p| put(s::part_rows(p)))?;
            gen.suppliers().iter().try_for_each(|su| put(s::supplier_rows(su)))?;
            gen.partsupps().iter().try_for_each(|ps| put(s::partsupp_rows(ps)))?;
            gen.customers().iter().try_for_each(|c| put(s::customer_rows(c)))?;
            let (orders, lineitems) = gen.orders_and_lineitems();
            let mut li_idx = 0usize;
            for o in &orders {
                put(s::order_rows(o))?;
                // This order's lineitems (generated contiguously).
                let mut konv_rows: Vec<Row> = Vec::new();
                while li_idx < lineitems.len() && lineitems[li_idx].orderkey == o.orderkey {
                    let (cluster, rest): (Vec<_>, Vec<_>) = s::lineitem_rows(&lineitems[li_idx])
                        .into_iter()
                        .partition(|(t, _)| *t == "KONV" && konv.kind.is_encapsulated());
                    konv_rows.extend(cluster.into_iter().map(|(_, row)| row));
                    put(rest)?;
                    li_idx += 1;
                }
                if !konv_rows.is_empty() {
                    self.db.autocommit(|luw| self.insert_cluster_rows(luw, &konv, &konv_rows))?;
                }
            }
            Ok(())
        })?;
        self.db.execute("ANALYZE")?;
        Ok(())
    }

    // ------------------------------------------------------------------
    // Size accounting (Table 2)
    // ------------------------------------------------------------------

    /// (data bytes, index bytes) of the physical storage behind a logical
    /// table. Pool/cluster tables report their container's share.
    pub fn logical_table_sizes(&self, table: &str) -> DbResult<(u64, u64)> {
        let lt = self.dict.table(table)?;
        let physical = match &lt.kind {
            TableKind::Transparent => lt.name.clone(),
            TableKind::Pool { container } | TableKind::Cluster { container, .. } => {
                container.clone()
            }
        };
        let t = self.db.catalog().table(&physical)?;
        Ok(self.db.catalog().table_sizes(&t))
    }
}

/// The pool container VARKEY: the key fields beyond MANDT, each padded to
/// its declared CHAR width and concatenated.
pub fn pool_varkey(lt: &LogicalTable, row: &[Value]) -> String {
    let mut out = String::new();
    for (col, v) in lt.columns[1..lt.key_len].iter().zip(&row[1..lt.key_len]) {
        let s = match v {
            Value::Str(s) => s.clone(),
            other => other.to_string(),
        };
        let width = col.ty.fixed_width().unwrap_or(s.len());
        out.push_str(&format!("{s:<width$}"));
    }
    out
}

impl LogicalTable {
    /// The columns stored inside a cluster blob (everything after the
    /// cluster key prefix).
    pub fn data_cluster_columns(&self) -> &[rdbms::schema::Column] {
        match &self.kind {
            TableKind::Cluster { cluster_key_len, .. } => &self.columns[*cluster_key_len..],
            _ => &self.columns[..],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn install_creates_physical_schema() {
        let sys = R3System::install_default(Release::R22).unwrap();
        // Transparent tables exist; KONV does not (it is clustered).
        assert!(sys.db.catalog().table("VBAP").is_ok());
        assert!(sys.db.catalog().table("KOCLU").is_ok());
        assert!(sys.db.catalog().table("KAPOL").is_ok());
        assert!(sys.db.catalog().table("KONV").is_err());
        let sys30 = R3System::install_default(Release::R30).unwrap();
        assert!(sys30.db.catalog().table("KONV").is_ok());
        assert!(sys30.db.catalog().table("KOCLU").is_err());
    }

    #[test]
    fn load_small_tpcd_both_releases() {
        for release in [Release::R22, Release::R30] {
            let sys = R3System::install_default(release).unwrap();
            let gen = DbGen::new(0.001);
            sys.load_tpcd(&gen).unwrap();
            let vbap: i64 = sys
                .db
                .query("SELECT COUNT(*) FROM VBAP")
                .unwrap()
                .scalar()
                .unwrap()
                .as_int()
                .unwrap();
            let (_, lineitems) = gen.orders_and_lineitems();
            assert_eq!(vbap, lineitems.len() as i64, "{release:?}");
            // KONV rows: 2 per lineitem (transparent) or bundled (cluster).
            match release {
                Release::R30 => {
                    let konv: i64 = sys
                        .db
                        .query("SELECT COUNT(*) FROM KONV")
                        .unwrap()
                        .scalar()
                        .unwrap()
                        .as_int()
                        .unwrap();
                    assert_eq!(konv, 2 * lineitems.len() as i64);
                }
                Release::R22 => {
                    let (orders, _) = gen.orders_and_lineitems();
                    let koclu: i64 = sys
                        .db
                        .query("SELECT COUNT(*) FROM KOCLU")
                        .unwrap()
                        .scalar()
                        .unwrap()
                        .as_int()
                        .unwrap();
                    assert_eq!(koclu, orders.len() as i64, "one blob per order");
                }
            }
        }
    }

    #[test]
    fn cluster_rmw_append() {
        let sys = R3System::install_default(Release::R22).unwrap();
        let konv = sys.dict.table("KONV").unwrap();
        let mk_row = |stunr: &str| {
            let mut r = vec![
                Value::str(MANDT),
                crate::schema::key16(1),
                crate::schema::key6(1),
                Value::str(stunr),
                Value::str("01"),
                Value::str("DISC"),
                Value::decimal(50, 0),
                Value::decimal(10000, 2),
            ];
            // Pad with defaults up to the dictionary's arity (KONV carries
            // configurable filler fields).
            while r.len() < konv.columns.len() {
                r.push(Value::str("X       "));
            }
            r
        };
        for stunr in ["040", "050"] {
            sys.db.autocommit(|luw| sys.insert_cluster_rows(luw, &konv, &[mk_row(stunr)])).unwrap();
        }
        let blob = sys.db.query("SELECT VARDATA FROM KOCLU").unwrap();
        assert_eq!(blob.rows.len(), 1, "single container row");
        let rows =
            decode_cluster_rows(blob.rows[0][0].as_str().unwrap(), konv.data_cluster_columns())
                .unwrap();
        assert_eq!(rows.len(), 2, "both logical rows in one blob");
    }

    #[test]
    fn pool_insert_encodes() {
        let sys = R3System::install_default(Release::R22).unwrap();
        let gen = DbGen::new(0.001);
        let p = &gen.parts()[0];
        for (t, row) in crate::schema::part_rows(p) {
            sys.db.autocommit(|luw| sys.insert_logical(luw, t, &row)).unwrap();
        }
        let pool = sys.db.query("SELECT TABNAME, VARKEY FROM KAPOL").unwrap();
        assert_eq!(pool.rows.len(), 1);
        assert_eq!(pool.rows[0][0], Value::str("A004"));
    }

    #[test]
    fn prepared_interface_meters_crossings() {
        let sys = R3System::install_default(Release::R30).unwrap();
        let gen = DbGen::new(0.001);
        sys.load_tpcd(&gen).unwrap();
        sys.meter().reset();
        let r = sys
            .db_select_prepared(
                "SELECT NAME1 FROM KNA1 WHERE MANDT = ? AND KUNNR = ?",
                &[Value::str(MANDT), crate::schema::key16(1)],
            )
            .unwrap();
        assert_eq!(r.rows.len(), 1);
        let snap = sys.snapshot();
        assert_eq!(snap.ipc_crossings(), 1);
        assert_eq!(snap.ipc_tuples(), 1);
        // Second call reuses the cursor (same plan object).
        assert!(sys
            .cached_plan_description("SELECT NAME1 FROM KNA1 WHERE MANDT = ? AND KUNNR = ?")
            .is_some());
    }

    #[test]
    fn sizes_inflate_vs_tpcd() {
        // The SAP representation of the same records must be several times
        // larger than the original TPC-D representation (paper Table 2).
        let gen = DbGen::new(0.001);
        let tpcd_db = Database::with_defaults();
        tpcd::schema::load(&tpcd_db, &gen).unwrap();
        let tpcd_total: u64 =
            tpcd::schema::table_sizes(&tpcd_db).unwrap().iter().map(|(_, d, _)| d).sum();

        let sys = R3System::install_default(Release::R22).unwrap();
        sys.load_tpcd(&gen).unwrap();
        let mut sap_total = 0u64;
        let mut seen = std::collections::HashSet::new();
        for t in crate::schema::SAP_TABLES {
            let lt = sys.dict.table(t).unwrap();
            let phys = match &lt.kind {
                TableKind::Transparent => t.to_string(),
                TableKind::Pool { container } | TableKind::Cluster { container, .. } => {
                    container.clone()
                }
            };
            if seen.insert(phys) {
                sap_total += sys.logical_table_sizes(t).unwrap().0;
            }
        }
        let ratio = sap_total as f64 / tpcd_total as f64;
        assert!(
            ratio > 4.0,
            "SAP data should be several times larger: {sap_total} vs {tpcd_total} ({ratio:.1}x)"
        );
    }
}
