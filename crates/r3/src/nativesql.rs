//! The Native SQL interface (`EXEC SQL ... ENDEXEC`, paper §2.3).
//!
//! Native SQL passes statements straight to the back-end RDBMS:
//!
//! * constants are visible, so the optimizer can estimate selectivities
//!   (§4.1: the Native report got the good plan);
//! * vendor-specific features are usable (the engine's `VENDOR_CONTAINS`
//!   string function — using it makes a report non-portable, the paper's
//!   §3.4.4 footnote);
//! * **encapsulated (pool/cluster) tables are unreachable** — they are not
//!   registered under their logical names in the RDBMS schema, and this
//!   layer rejects statements referencing them;
//! * nothing injects the client predicate: a report that forgets
//!   `MANDT = '301'` silently reads every client's data (the paper's
//!   safety argument for Open SQL).

use crate::dict::TableKind;
use crate::system::R3System;
use rdbms::error::{DbError, DbResult};
use rdbms::sql::ast::{Node, Statement};
use rdbms::sql::parse_statement;
use rdbms::{ExecOutcome, QueryResult};

impl R3System {
    /// Execute a Native SQL statement.
    pub fn native_sql(&self, sql: &str) -> DbResult<ExecOutcome> {
        let stmt = parse_statement(sql)?;
        let mut tables = Vec::new();
        collect_statement_tables(&stmt, &mut tables);
        for t in &tables {
            if let Ok(lt) = self.dict.table(t) {
                if lt.kind.is_encapsulated() {
                    let kind = match &lt.kind {
                        TableKind::Pool { .. } => "pool",
                        TableKind::Cluster { .. } => "cluster",
                        TableKind::Transparent => unreachable!(),
                    };
                    return Err(DbError::analysis(format!(
                        "Native SQL cannot access {kind} table {t} \
                         (encapsulated; requires the SAP data dictionary)"
                    )));
                }
            }
        }
        self.db_execute_direct(sql)
    }

    /// Native SQL SELECT returning rows.
    pub fn native_query(&self, sql: &str) -> DbResult<QueryResult> {
        self.native_sql(sql)?.rows()
    }
}

/// Collect all base-table names referenced by a statement, including
/// subqueries in FROM and in expressions.
pub fn collect_statement_tables(stmt: &Statement, out: &mut Vec<String>) {
    if let Statement::Insert { table, .. }
    | Statement::Delete { table, .. }
    | Statement::Update { table, .. } = stmt
    {
        out.push(table.clone());
    }
    stmt.walk(&mut |node| {
        if let Node::Table(name) = node {
            out.push(name.to_string());
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Release;
    use tpcd::DbGen;

    fn sys(release: Release) -> R3System {
        let sys = R3System::install_default(release).unwrap();
        sys.load_tpcd(&DbGen::new(0.001)).unwrap();
        sys
    }

    #[test]
    fn native_sql_reads_transparent_tables() {
        let s = sys(Release::R22);
        let r = s.native_query("SELECT COUNT(*) FROM VBAP WHERE MANDT = '301'").unwrap();
        assert!(r.scalar().unwrap().as_int().unwrap() > 0);
        // Crossings metered.
        assert!(s.snapshot().ipc_crossings() >= 1);
    }

    #[test]
    fn native_sql_rejects_encapsulated_tables() {
        let s = sys(Release::R22);
        let err = s.native_query("SELECT * FROM KONV WHERE MANDT = '301'");
        assert!(err.is_err(), "cluster KONV must be unreachable in 2.2");
        let err = s.native_query("SELECT * FROM VBAP WHERE VBELN IN (SELECT KNUMV FROM A004)");
        assert!(err.is_err(), "pool table in subquery must be caught");
    }

    #[test]
    fn konv_reachable_after_30_conversion() {
        let s = sys(Release::R30);
        let r = s
            .native_query("SELECT COUNT(*) FROM KONV WHERE MANDT = '301' AND KSCHL = 'DISC'")
            .unwrap();
        assert!(r.scalar().unwrap().as_int().unwrap() > 0);
    }

    #[test]
    fn vendor_function_usable_from_native_sql() {
        let s = sys(Release::R30);
        let r = s
            .native_query(
                "SELECT COUNT(*) FROM MAKT WHERE MANDT = '301' \
                 AND VENDOR_CONTAINS(MAKTX, 'green') = TRUE",
            )
            .unwrap();
        assert!(r.scalar().unwrap().as_int().unwrap() > 0, "some parts are green");
    }

    #[test]
    fn forgetting_mandt_reads_everything() {
        // The paper's safety point: Native SQL without the client predicate
        // is answered happily by the RDBMS.
        let s = sys(Release::R22);
        let r = s.native_query("SELECT COUNT(*) FROM KNA1").unwrap();
        assert!(r.scalar().unwrap().as_int().unwrap() > 0);
    }
}
