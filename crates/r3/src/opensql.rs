//! The Open SQL interface (paper §2.3).
//!
//! Open SQL is the portable, dictionary-mediated way ABAP reports access
//! the database. Its defining properties, all implemented here:
//!
//! * the client predicate (`MANDT = '301'`) is injected automatically from
//!   the application context — reports never write it;
//! * statements are translated into **parameterized** SQL and executed
//!   through cached cursors, so the RDBMS optimizer never sees the
//!   constants (§4.1 — this is what produces the blind plans of Table 6);
//! * pool and cluster tables are decoded through the dictionary in the
//!   application server; only their key prefix can be pushed down;
//! * Release 2.2: single-table statements only (joins need predefined join
//!   views over transparent tables along key/foreign-key paths); no
//!   grouping or aggregation;
//! * Release 3.0: inner joins of transparent tables push down, and
//!   *simple* aggregations (a bare column, never an arithmetic
//!   expression) push down too.

use crate::dict::{decode_cluster_rows, decode_row_data, TableKind};
use crate::schema::MANDT;
use crate::sqltrace::SqlOp;
use crate::system::{pool_varkey, R3System};
use crate::Release;
use rdbms::error::{DbError, DbResult};
use rdbms::exec::expr::like_match;
use rdbms::schema::{Column, Row, Schema};
use rdbms::sql::ast::AggFunc;
use rdbms::types::Value;
use rdbms::{QueryResult, Txn};
use std::cmp::Ordering;
use trace::meter::Counter;

/// Comparison operators available in Open SQL WHERE clauses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
    Like,
}

impl CmpOp {
    fn sql(&self) -> &'static str {
        match self {
            CmpOp::Eq => "=",
            CmpOp::Ne => "<>",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
            CmpOp::Like => "LIKE",
        }
    }

    /// Evaluate the comparison on two values (application-side filtering).
    pub fn eval_pub(&self, lhs: &Value, rhs: &Value) -> bool {
        self.eval(lhs, rhs)
    }

    fn eval(&self, lhs: &Value, rhs: &Value) -> bool {
        match self {
            CmpOp::Like => match (lhs, rhs) {
                (Value::Str(s), Value::Str(p)) => like_match(s.trim_end(), p),
                _ => false,
            },
            _ => match lhs.sql_cmp(rhs) {
                None => false,
                Some(ord) => match self {
                    CmpOp::Eq => ord == Ordering::Equal,
                    CmpOp::Ne => ord != Ordering::Equal,
                    CmpOp::Lt => ord == Ordering::Less,
                    CmpOp::Le => ord != Ordering::Greater,
                    CmpOp::Gt => ord == Ordering::Greater,
                    CmpOp::Ge => ord != Ordering::Less,
                    CmpOp::Like => unreachable!(),
                },
            },
        }
    }
}

/// One conjunctive WHERE condition. `field` may be qualified
/// (`VBAP.KWMENG`) inside joins.
#[derive(Debug, Clone)]
pub struct Cond {
    pub field: String,
    pub op: CmpOp,
    pub value: Value,
}

impl Cond {
    pub fn new(field: &str, op: CmpOp, value: Value) -> Self {
        Cond { field: field.to_ascii_uppercase(), op, value }
    }

    pub fn eq(field: &str, value: Value) -> Self {
        Cond::new(field, CmpOp::Eq, value)
    }
}

/// A base table reference with an optional alias (aliases let a join use
/// the same table twice, e.g. KONV for discount and tax conditions).
#[derive(Debug, Clone)]
pub struct BaseRef {
    pub name: String,
    pub alias: Option<String>,
}

impl BaseRef {
    pub fn new(name: &str) -> Self {
        BaseRef { name: name.to_ascii_uppercase(), alias: None }
    }

    pub fn aliased(name: &str, alias: &str) -> Self {
        BaseRef { name: name.to_ascii_uppercase(), alias: Some(alias.to_ascii_uppercase()) }
    }

    /// The name used to qualify fields of this reference.
    pub fn binding(&self) -> &str {
        self.alias.as_deref().unwrap_or(&self.name)
    }

    fn render(&self) -> String {
        match &self.alias {
            Some(a) => format!("{} {a}", self.name),
            None => self.name.clone(),
        }
    }
}

/// FROM clause: a table, or (Release 3.0) a left-deep chain of inner joins.
#[derive(Debug, Clone)]
pub enum TableExpr {
    Table(BaseRef),
    Join {
        left: Box<TableExpr>,
        table: BaseRef,
        /// Equality pairs `left_field = right_field` (qualified names).
        on: Vec<(String, String)>,
    },
}

impl TableExpr {
    pub fn table(name: &str) -> Self {
        TableExpr::Table(BaseRef::new(name))
    }

    pub fn table_as(name: &str, alias: &str) -> Self {
        TableExpr::Table(BaseRef::aliased(name, alias))
    }

    pub fn join(self, table: &str, on: &[(&str, &str)]) -> Self {
        self.join_ref(BaseRef::new(table), on)
    }

    pub fn join_as(self, table: &str, alias: &str, on: &[(&str, &str)]) -> Self {
        self.join_ref(BaseRef::aliased(table, alias), on)
    }

    fn join_ref(self, table: BaseRef, on: &[(&str, &str)]) -> Self {
        TableExpr::Join {
            left: Box::new(self),
            table,
            on: on.iter().map(|(a, b)| (a.to_ascii_uppercase(), b.to_ascii_uppercase())).collect(),
        }
    }

    /// Underlying table names (for dictionary/encapsulation checks).
    pub fn tables(&self) -> Vec<String> {
        match self {
            TableExpr::Table(t) => vec![t.name.clone()],
            TableExpr::Join { left, table, .. } => {
                let mut v = left.tables();
                v.push(table.name.clone());
                v
            }
        }
    }

    /// Binding names (alias or table name) in join order.
    pub fn bindings(&self) -> Vec<String> {
        match self {
            TableExpr::Table(t) => vec![t.binding().to_string()],
            TableExpr::Join { left, table, .. } => {
                let mut v = left.bindings();
                v.push(table.binding().to_string());
                v
            }
        }
    }
}

/// An Open SQL SELECT.
#[derive(Debug, Clone)]
pub struct SelectSpec {
    pub from: TableExpr,
    /// Output fields (qualified inside joins); empty = all fields.
    pub fields: Vec<String>,
    pub conds: Vec<Cond>,
    /// Release 3.0 only.
    pub group_by: Vec<String>,
    /// Release 3.0 only: simple aggregates — a bare column or COUNT(*).
    /// Arithmetic expressions are *not expressible* (paper §2.3/§4.2).
    pub aggs: Vec<(AggFunc, Option<String>)>,
    pub order_by: Vec<(String, bool)>,
    /// SELECT SINGLE: at most one row, full-key predicates expected.
    pub single: bool,
    /// UP TO n ROWS.
    pub up_to: Option<u64>,
}

impl SelectSpec {
    pub fn from_table(name: &str) -> Self {
        SelectSpec {
            from: TableExpr::table(name),
            fields: Vec::new(),
            conds: Vec::new(),
            group_by: Vec::new(),
            aggs: Vec::new(),
            order_by: Vec::new(),
            single: false,
            up_to: None,
        }
    }

    pub fn from_expr(from: TableExpr) -> Self {
        SelectSpec { from, ..SelectSpec::from_table("X") }
    }

    pub fn fields(mut self, fields: &[&str]) -> Self {
        self.fields = fields.iter().map(|f| f.to_ascii_uppercase()).collect();
        self
    }

    pub fn cond(mut self, c: Cond) -> Self {
        self.conds.push(c);
        self
    }

    pub fn group(mut self, cols: &[&str]) -> Self {
        self.group_by = cols.iter().map(|c| c.to_ascii_uppercase()).collect();
        self
    }

    pub fn agg(mut self, func: AggFunc, col: Option<&str>) -> Self {
        self.aggs.push((func, col.map(|c| c.to_ascii_uppercase())));
        self
    }

    pub fn order(mut self, cols: &[(&str, bool)]) -> Self {
        self.order_by = cols.iter().map(|(c, d)| (c.to_ascii_uppercase(), *d)).collect();
        self
    }

    pub fn single(mut self) -> Self {
        self.single = true;
        self
    }

    pub fn up_to(mut self, n: u64) -> Self {
        self.up_to = Some(n);
        self
    }
}

impl R3System {
    /// Execute an Open SQL SELECT as a one-statement LUW.
    pub fn open_select(&self, spec: &SelectSpec) -> DbResult<QueryResult> {
        self.db.autocommit(|luw| self.open_select_in(luw, spec))
    }

    /// Execute an Open SQL SELECT inside the LUW `luw`, under its locks
    /// (held to the LUW's COMMIT WORK).
    pub fn open_select_in(&self, luw: &mut Txn<'_>, spec: &SelectSpec) -> DbResult<QueryResult> {
        // Feature gating.
        let tables = spec.from.tables();
        let multi = tables.len() > 1;
        if multi && self.release == Release::R22 {
            return Err(DbError::analysis(
                "Open SQL joins require Release 3.0 (use a join view or nested SELECTs)",
            ));
        }
        if (!spec.aggs.is_empty() || !spec.group_by.is_empty()) && self.release == Release::R22 {
            return Err(DbError::analysis(
                "Open SQL aggregation requires Release 3.0 (aggregate in the report)",
            ));
        }
        // Encapsulated tables: single-table, dictionary-decoded access only.
        let mut encapsulated = false;
        for t in &tables {
            // A name that is not in the dictionary may be a join view
            // (registered in the RDBMS only).
            if let Ok(lt) = self.dict.table(t) {
                if lt.kind.is_encapsulated() {
                    encapsulated = true;
                }
            }
        }
        if encapsulated {
            if multi {
                return Err(DbError::analysis(
                    "pool/cluster tables cannot participate in Open SQL joins",
                ));
            }
            if !spec.aggs.is_empty() || !spec.group_by.is_empty() {
                return Err(DbError::analysis(
                    "aggregates cannot be applied to pool/cluster tables",
                ));
            }
            return self.select_encapsulated(luw, &tables[0], spec);
        }
        // SELECT SINGLE on a buffered table: try the application buffer.
        if spec.single && !multi {
            if let Some(result) = self.buffered_single(&tables[0], spec)? {
                return Ok(result);
            }
        }
        // Transparent path: translate to parameterized SQL.
        let (sql, params) = self.translate(spec, &tables)?;
        let mut result = self.db_select(luw, &sql, &params)?;
        // Install into the buffer if applicable.
        if spec.single && !multi && self.buffer.is_buffered(&tables[0]) && spec.fields.is_empty() {
            if let Some(key) = self.single_key(&tables[0], spec)? {
                self.buffer.put(&tables[0], &key, result.rows.first().cloned());
            }
        }
        if spec.single {
            result.rows.truncate(1);
        }
        Ok(result)
    }

    /// Open SQL INSERT (dictionary-mediated write) in the LUW `luw`.
    pub fn open_insert(&self, luw: &mut Txn<'_>, table: &str, row: &[Value]) -> DbResult<()> {
        self.crossing(
            SqlOp::Insert,
            || format!("INSERT {table}"),
            &[],
            || self.insert_logical(luw, table, row),
            |_| 1,
        )?;
        // Invalidate any buffered copy.
        if self.buffer.is_buffered(table) {
            if let Ok(lt) = self.dict.table(table) {
                let key = pool_varkey(&lt, row);
                self.buffer.invalidate(table, &key);
            }
        }
        Ok(())
    }

    /// Open SQL DELETE by key conditions, in the LUW `luw`.
    pub fn open_delete(&self, luw: &mut Txn<'_>, table: &str, conds: &[Cond]) -> DbResult<u64> {
        let lt = self.dict.table(table)?;
        if lt.kind.is_encapsulated() {
            // Cluster delete by document key.
            if let Some(c) = conds.iter().find(|c| c.op == CmpOp::Eq) {
                return self.crossing(
                    SqlOp::Delete,
                    || format!("DELETE {table} (cluster document)"),
                    std::slice::from_ref(&c.value),
                    || self.delete_cluster_document(luw, table, &c.value),
                    |&n| n,
                );
            }
            return Err(DbError::analysis("encapsulated delete needs a key condition"));
        }
        let mut sql = format!("DELETE FROM {} WHERE MANDT = '{MANDT}'", lt.name);
        for c in conds {
            sql.push_str(&format!(" AND {} {} {}", c.field, c.op.sql(), literal(&c.value)));
        }
        self.crossing(SqlOp::Delete, || sql.clone(), &[], || luw.execute(&sql)?.count(), |&n| n)
    }

    // ------------------------------------------------------------------

    /// Build the parameterized SQL translation of an Open SQL statement.
    /// Public for tests that inspect the blind-plan mechanism.
    pub fn translate(
        &self,
        spec: &SelectSpec,
        tables: &[String],
    ) -> DbResult<(String, Vec<Value>)> {
        let mut params: Vec<Value> = Vec::new();
        let mut sql = String::from("SELECT ");
        let multi = tables.len() > 1;
        // Projection.
        let mut parts: Vec<String> = Vec::new();
        if spec.aggs.is_empty() {
            if spec.fields.is_empty() {
                if multi {
                    return Err(DbError::analysis("join SELECT requires an explicit field list"));
                }
                parts.push("*".into());
            } else {
                parts.extend(spec.fields.iter().cloned());
            }
        } else {
            parts.extend(spec.group_by.iter().cloned());
            for (f, col) in &spec.aggs {
                match col {
                    None => parts.push("COUNT(*)".into()),
                    Some(c) => parts.push(format!("{f}({c})")),
                }
            }
        }
        sql.push_str(&parts.join(", "));
        // FROM.
        sql.push_str(" FROM ");
        match &spec.from {
            TableExpr::Table(t) => sql.push_str(&t.render()),
            TableExpr::Join { .. } => {
                sql.push_str(&render_join(&spec.from)?);
            }
        }
        // WHERE: automatic client injection, then the conditions.
        let bindings = spec.from.bindings();
        let mandt_field =
            if multi { format!("{}.MANDT", bindings[0]) } else { "MANDT".to_string() };
        sql.push_str(&format!(" WHERE {mandt_field} = ?"));
        params.push(Value::str(MANDT));
        for b in bindings.iter().skip(1) {
            sql.push_str(&format!(" AND {b}.MANDT = {mandt_field}"));
        }
        for c in &spec.conds {
            sql.push_str(&format!(" AND {} {} ?", c.field, c.op.sql()));
            params.push(c.value.clone());
        }
        if !spec.group_by.is_empty() {
            sql.push_str(" GROUP BY ");
            sql.push_str(&spec.group_by.join(", "));
        }
        if !spec.order_by.is_empty() {
            sql.push_str(" ORDER BY ");
            let keys: Vec<String> = spec
                .order_by
                .iter()
                .map(|(c, desc)| format!("{c}{}", if *desc { " DESC" } else { "" }))
                .collect();
            sql.push_str(&keys.join(", "));
        }
        if spec.single {
            sql.push_str(" LIMIT 1");
        } else if let Some(n) = spec.up_to {
            sql.push_str(&format!(" LIMIT {n}"));
        }
        Ok((sql, params))
    }

    /// Key string of a SELECT SINGLE if its conditions cover the full key.
    fn single_key(&self, table: &str, spec: &SelectSpec) -> DbResult<Option<String>> {
        let lt = self.dict.table(table)?;
        let mut key = String::new();
        for col in &lt.key_columns()[1..] {
            match spec.conds.iter().find(|c| c.op == CmpOp::Eq && c.field == col.name) {
                Some(c) => {
                    key.push_str(&c.value.to_string());
                    key.push('\u{1}');
                }
                None => return Ok(None),
            }
        }
        Ok(Some(key))
    }

    /// Probe the table buffer for a SELECT SINGLE; `None` = not buffered /
    /// not a full-key probe / miss.
    fn buffered_single(&self, table: &str, spec: &SelectSpec) -> DbResult<Option<QueryResult>> {
        if !self.buffer.is_buffered(table) || !spec.fields.is_empty() {
            return Ok(None);
        }
        let Some(key) = self.single_key(table, spec)? else {
            return Ok(None);
        };
        let traced = self.sql_trace.begin();
        match self.buffer.get(table, &key) {
            Some(cached) => {
                let lt = self.dict.table(table)?;
                let schema = Schema::qualified(lt.columns.clone(), table);
                let rows = match cached {
                    Some(r) => vec![r],
                    None => vec![],
                };
                if let Some(t) = traced {
                    // Served from the application-server buffer: zero
                    // crossings reach the RDBMS.
                    let params: Vec<Value> = spec.conds.iter().map(|c| c.value.clone()).collect();
                    t.finish(
                        SqlOp::BufferHit,
                        format!("SELECT SINGLE * FROM {table}"),
                        &params,
                        rows.len() as u64,
                        0,
                    );
                }
                Ok(Some(QueryResult { schema, rows }))
            }
            None => Ok(None),
        }
    }

    /// Dictionary-decoded read of a pool or cluster table.
    fn select_encapsulated(
        &self,
        luw: &mut Txn<'_>,
        table: &str,
        spec: &SelectSpec,
    ) -> DbResult<QueryResult> {
        let lt = self.dict.table(table)?;
        let mut rows: Vec<Row> = Vec::new();
        match &lt.kind {
            TableKind::Pool { container } => {
                // Push the key prefix if every key field has an Eq cond.
                let full_key: Option<Vec<Value>> = lt.key_columns()[1..]
                    .iter()
                    .map(|col| {
                        spec.conds
                            .iter()
                            .find(|c| c.op == CmpOp::Eq && c.field == col.name)
                            .map(|c| c.value.clone())
                    })
                    .collect();
                let mut sql = format!(
                    "SELECT VARKEY, VARDATA FROM {container} WHERE MANDT = ? AND TABNAME = ?"
                );
                let mut params = vec![Value::str(MANDT), Value::str(&lt.name)];
                if let Some(vals) = full_key {
                    let mut probe = vec![Value::str(MANDT)];
                    probe.extend(vals);
                    sql.push_str(" AND VARKEY = ?");
                    params.push(Value::Str(pool_varkey(&lt, &probe_row(&lt, &probe))));
                }
                let result = self.db_select(luw, &sql, &params)?;
                for prow in &result.rows {
                    self.meter().bump(Counter::AppTuples); // dictionary decode
                    let varkey = prow[0].as_str()?;
                    let data = decode_row_data(prow[1].as_str()?, lt.data_columns())?;
                    let mut row = decode_pool_key(&lt, varkey)?;
                    row.extend(data);
                    rows.push(row);
                }
            }
            TableKind::Cluster { container, cluster_key_len } => {
                let key_col = &lt.columns[1].name;
                let key_cond = spec.conds.iter().find(|c| c.op == CmpOp::Eq && c.field == *key_col);
                let mut sql = format!("SELECT {key_col}, VARDATA FROM {container} WHERE MANDT = ?");
                let mut params = vec![Value::str(MANDT)];
                if let Some(c) = key_cond {
                    sql.push_str(&format!(" AND {key_col} = ?"));
                    params.push(c.value.clone());
                }
                let result = self.db_select(luw, &sql, &params)?;
                for prow in &result.rows {
                    let decoded =
                        decode_cluster_rows(prow[1].as_str()?, lt.data_cluster_columns())?;
                    for data in decoded {
                        self.meter().bump(Counter::AppTuples); // decode per logical row
                        let mut row: Row = Vec::with_capacity(lt.columns.len());
                        row.push(Value::str(MANDT));
                        row.push(prow[0].clone());
                        row.extend(data);
                        debug_assert_eq!(row.len(), lt.columns.len());
                        let _ = cluster_key_len;
                        rows.push(row);
                    }
                }
            }
            TableKind::Transparent => unreachable!("checked by caller"),
        }
        // Residual predicate evaluation in the application server, each
        // field resolved once per statement (as the projection's are).
        let schema = Schema::qualified(lt.columns.clone(), table);
        let conds: Vec<(usize, &Cond)> = spec
            .conds
            .iter()
            .map(|c| lt.column_index(&c.field).map(|idx| (idx, c)))
            .collect::<DbResult<_>>()?;
        let mut filtered: Vec<Row> = Vec::new();
        'rows: for row in rows {
            for &(idx, c) in &conds {
                self.meter().bump(Counter::AppTuples);
                if !c.op.eval(&row[idx], &c.value) {
                    continue 'rows;
                }
            }
            filtered.push(row);
        }
        // Projection.
        let (schema, mut out_rows) = if spec.fields.is_empty() {
            (schema, filtered)
        } else {
            let idxs: Vec<usize> =
                spec.fields.iter().map(|f| lt.column_index(f)).collect::<DbResult<_>>()?;
            let cols: Vec<Column> = idxs.iter().map(|&i| lt.columns[i].clone()).collect();
            let rows = filtered
                .into_iter()
                .map(|r| idxs.iter().map(|&i| r[i].clone()).collect())
                .collect();
            (Schema::qualified(cols, table), rows)
        };
        // Ordering / limits app-side.
        if !spec.order_by.is_empty() {
            let key_idx: Vec<(usize, bool)> = spec
                .order_by
                .iter()
                .map(|(f, d)| schema.resolve(None, f).map(|i| (i, *d)))
                .collect::<DbResult<_>>()?;
            out_rows.sort_by(|a, b| {
                for (i, desc) in &key_idx {
                    let ord = a[*i].total_cmp(&b[*i]);
                    let ord = if *desc { ord.reverse() } else { ord };
                    if ord != Ordering::Equal {
                        return ord;
                    }
                }
                Ordering::Equal
            });
        }
        if spec.single {
            out_rows.truncate(1);
        } else if let Some(n) = spec.up_to {
            out_rows.truncate(n as usize);
        }
        Ok(QueryResult { schema, rows: out_rows })
    }
}

/// Render a join tree as SQL (Release 3.0 push-down).
fn render_join(expr: &TableExpr) -> DbResult<String> {
    match expr {
        TableExpr::Table(t) => Ok(t.render()),
        TableExpr::Join { left, table, on } => {
            let l = render_join(left)?;
            if on.is_empty() {
                return Err(DbError::analysis("Open SQL join requires ON conditions"));
            }
            let conds: Vec<String> = on.iter().map(|(a, b)| format!("{a} = {b}")).collect();
            Ok(format!("{l} JOIN {} ON {}", table.render(), conds.join(" AND ")))
        }
    }
}

/// Reconstruct the key values of a pool row from its VARKEY.
fn decode_pool_key(lt: &crate::dict::LogicalTable, varkey: &str) -> DbResult<Row> {
    let mut row: Row = vec![Value::str(MANDT)];
    let mut off = 0usize;
    for col in &lt.key_columns()[1..] {
        let w = col.ty.fixed_width().ok_or_else(|| {
            DbError::storage(format!("pool key field {} must be fixed width", col.name))
        })?;
        if off + w > varkey.len() {
            return Err(DbError::storage("pool VARKEY too short"));
        }
        row.push(Value::Str(varkey[off..off + w].to_string()));
        off += w;
    }
    Ok(row)
}

/// A full-width dummy row carrying only the key values (for varkey
/// computation from a key probe).
fn probe_row(lt: &crate::dict::LogicalTable, key_vals: &[Value]) -> Row {
    let mut row: Row = key_vals.to_vec();
    row.resize(lt.columns.len(), Value::Null);
    row
}

/// Render a value as a SQL literal (Native-style DML helpers).
pub fn literal(v: &Value) -> String {
    match v {
        Value::Null => "NULL".into(),
        Value::Int(i) => i.to_string(),
        Value::Decimal(d) => d.to_string(),
        Value::Str(s) => format!("'{}'", crate::system::sql_quote(s)),
        Value::Date(d) => format!("DATE '{d}'"),
        Value::Bool(b) => b.to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::key16;
    use tpcd::DbGen;

    fn sys(release: Release) -> R3System {
        let sys = R3System::install_default(release).unwrap();
        sys.load_tpcd(&DbGen::new(0.001)).unwrap();
        sys
    }

    #[test]
    fn single_table_select_injects_mandt_and_params() {
        let s = sys(Release::R22);
        let spec = SelectSpec::from_table("KNA1")
            .fields(&["KUNNR", "NAME1"])
            .cond(Cond::eq("KUNNR", key16(1)));
        let (sql, params) = s.translate(&spec, &spec.from.tables()).unwrap();
        assert!(sql.contains("MANDT = ?"), "{sql}");
        assert!(sql.contains("KUNNR = ?"), "{sql}");
        assert_eq!(params.len(), 2);
        let r = s.open_select(&spec).unwrap();
        assert_eq!(r.rows.len(), 1);
    }

    #[test]
    fn r22_rejects_joins_and_aggregates() {
        let s = sys(Release::R22);
        let join = SelectSpec::from_expr(
            TableExpr::table("VBAP").join("VBEP", &[("VBAP.VBELN", "VBEP.VBELN")]),
        )
        .fields(&["VBAP.NETWR"]);
        assert!(s.open_select(&join).is_err());
        let agg = SelectSpec::from_table("VBAP").agg(AggFunc::Sum, Some("NETWR"));
        assert!(s.open_select(&agg).is_err());
    }

    #[test]
    fn r30_pushes_joins_and_simple_aggregates() {
        let s = sys(Release::R30);
        let spec = SelectSpec::from_expr(
            TableExpr::table("VBAP")
                .join("VBEP", &[("VBAP.VBELN", "VBEP.VBELN"), ("VBAP.POSNR", "VBEP.POSNR")]),
        )
        .fields(&["VBAP.NETWR", "VBEP.EDATU"]);
        let r = s.open_select(&spec).unwrap();
        let vbap: i64 =
            s.db.query("SELECT COUNT(*) FROM VBAP").unwrap().scalar().unwrap().as_int().unwrap();
        assert_eq!(r.rows.len(), vbap as usize);

        let agg = SelectSpec::from_table("VBAP")
            .group(&["RFLAG"])
            .agg(AggFunc::Sum, Some("KWMENG"))
            .agg(AggFunc::Count, None);
        let r = s.open_select(&agg).unwrap();
        assert!(r.rows.len() >= 2 && r.rows.len() <= 3, "R/A/N flags: {}", r.rows.len());
    }

    #[test]
    fn cluster_table_reads_through_dictionary() {
        let s = sys(Release::R22);
        // Keyed read: one document.
        let spec = SelectSpec::from_table("KONV")
            .cond(Cond::eq("KNUMV", key16(1)))
            .cond(Cond::eq("KSCHL", Value::str("DISC")));
        let r = s.open_select(&spec).unwrap();
        assert!(!r.rows.is_empty());
        let kschl = r.schema.resolve(None, "KSCHL").unwrap();
        assert!(r.rows.iter().all(|row| row[kschl] == Value::str("DISC")));
        // The same logical rows are visible in R30's transparent KONV.
        let s30 = sys(Release::R30);
        let spec30 = SelectSpec::from_table("KONV")
            .cond(Cond::eq("KNUMV", key16(1)))
            .cond(Cond::eq("KSCHL", Value::str("DISC")));
        let r30 = s30.open_select(&spec30).unwrap();
        assert_eq!(r.rows.len(), r30.rows.len());
    }

    #[test]
    fn pool_table_reads() {
        let s = sys(Release::R22);
        let spec = SelectSpec::from_table("A004")
            .cond(Cond::eq("KAPPL", Value::str("V")))
            .cond(Cond::eq("KSCHL", Value::str("PR00")))
            .cond(Cond::eq("MATNR", key16(1)));
        let r = s.open_select(&spec).unwrap();
        assert_eq!(r.rows.len(), 1);
        let knumh = r.schema.resolve(None, "KNUMH").unwrap();
        assert_eq!(r.rows[0][knumh], key16(1));
    }

    #[test]
    fn encapsulated_rejects_joins_and_aggs() {
        let s = sys(Release::R30);
        let spec = SelectSpec::from_table("A004").agg(AggFunc::Count, None);
        assert!(s.open_select(&spec).is_err());
        let join = SelectSpec::from_expr(
            TableExpr::table("A004").join("KONP", &[("A004.KNUMH", "KONP.KNUMH")]),
        )
        .fields(&["KONP.KBETR"]);
        assert!(s.open_select(&join).is_err());
    }

    #[test]
    fn select_single_uses_buffer() {
        let s = sys(Release::R30);
        s.buffer.set_capacity_bytes(1 << 20);
        s.buffer.enable("MARA");
        let spec = SelectSpec::from_table("MARA").cond(Cond::eq("MATNR", key16(1))).single();
        s.meter().reset();
        let r1 = s.open_select(&spec).unwrap();
        assert_eq!(r1.rows.len(), 1);
        let after_first = s.snapshot();
        assert_eq!(after_first.ipc_crossings(), 1, "miss goes to the database");
        let r2 = s.open_select(&spec).unwrap();
        assert_eq!(r2.rows.len(), 1);
        let after_second = s.snapshot();
        assert_eq!(after_second.ipc_crossings(), 1, "hit stays in the app server");
        assert_eq!(after_second.cache_hits(), 1);
        assert_eq!(r1.rows[0], r2.rows[0]);
    }

    #[test]
    fn open_sql_plans_are_blind() {
        let s = sys(Release::R30);
        // Range predicate on the quantity field (the Table 6 experiment):
        // the Open SQL translation is parameterized, so the engine picks
        // the plan without seeing the constant.
        s.db.execute("CREATE INDEX VBAP_KWMENG ON VBAP (KWMENG)").unwrap();
        let spec = SelectSpec::from_table("VBAP").fields(&["KWMENG"]).cond(Cond::new(
            "KWMENG",
            CmpOp::Lt,
            Value::Int(9999),
        ));
        let (sql, _) = s.translate(&spec, &spec.from.tables()).unwrap();
        let _ = s.open_select(&spec).unwrap();
        let plan = s.cached_plan_description(&sql).unwrap();
        assert!(plan.contains("IndexScan"), "blind plan must pick the index: {plan}");
    }

    #[test]
    fn open_delete_and_insert() {
        let s = sys(Release::R22);
        let before: i64 =
            s.db.query("SELECT COUNT(*) FROM KNA1").unwrap().scalar().unwrap().as_int().unwrap();
        let gen = DbGen::new(0.001);
        let mut c = gen.customers()[0].clone();
        c.custkey = 99_999;
        let mut luw = s.db.begin();
        for (t, row) in crate::schema::customer_rows(&c) {
            s.open_insert(&mut luw, t, &row).unwrap();
        }
        s.commit_work(luw).unwrap();
        let mid: i64 =
            s.db.query("SELECT COUNT(*) FROM KNA1").unwrap().scalar().unwrap().as_int().unwrap();
        assert_eq!(mid, before + 1);
        let n =
            s.db.autocommit(|luw| s.open_delete(luw, "KNA1", &[Cond::eq("KUNNR", key16(99_999))]))
                .unwrap();
        assert_eq!(n, 1);
    }
}
