//! Per-connection session: transaction state, statement handles, portals.
//!
//! The two protocols map onto the paper's interface contrast:
//!
//! * **Simple** (`Query`): literal SQL on every call — the 2.2G OPEN path.
//!   The statement is parsed and planned from scratch; selective
//!   predicates written as literals plan as scans and take whole-table
//!   shared locks.
//! * **Extended** (`Parse`/`Bind`/`Execute`/`Sync`): a named statement is
//!   prepared once (through the shared plan cache, so even the *first*
//!   Parse of a popular statement usually hits) and re-executed with new
//!   bindings — the 3.0E REOPEN path. Parameter markers plan as index
//!   probes and take row-level locks.
//!
//! Transactions: `BEGIN` / `COMMIT` / `ROLLBACK` are recognized at the
//! session layer (the engine's transaction API is programmatic).
//! Statements outside a transaction run as the engine's one-statement
//! transactions, so autocommit statements take the same locks a
//! transactional client would. DDL is non-transactional and
//! only legal outside a `BEGIN` block. A statement error aborts the open
//! transaction (the R/3 model: a failed database call rolls the logical
//! unit of work back); the following ReadyForQuery reports Idle.

use crate::protocol::*;
use crate::server::SessionInfo;
use rdbms::monitor::display_text;
use rdbms::sql::{parse_statement, Statement, StatementId};
use rdbms::{
    CachedPlan, Database, ExecOutcome, PlanCache, Prepared, QueryResult, RequestCtx, RequestGuard,
    Txn, Value,
};
use std::collections::HashMap;
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// A named prepared statement: the shared plan plus the bind values that
/// were stripped from the literal text at normalization time.
pub(crate) struct StatementHandle {
    /// Statement text as parsed, kept for re-preparation after DDL and
    /// shared as the label of every execution's request trace.
    pub sql: Arc<str>,
    pub prepared: Arc<Prepared>,
    pub extracted: Vec<Value>,
    pub cache_hit: bool,
    /// The normalized statement's id, the M$STATEMENTS aggregation key.
    pub id: StatementId,
}

impl StatementHandle {
    fn new(sql: Arc<str>, cached: CachedPlan) -> Arc<Self> {
        Arc::new(StatementHandle {
            sql,
            prepared: cached.prepared,
            extracted: cached.extracted_params,
            cache_hit: cached.cache_hit,
            id: cached.id,
        })
    }
}

/// A simple-protocol statement, parsed once: transaction control the
/// session handles itself, or a statement for the engine.
enum Simple {
    Begin,
    Commit,
    Rollback,
    Sql(Statement),
}

impl Simple {
    fn parse(sql: &str) -> Result<Simple, String> {
        let head = sql.trim().trim_end_matches(';').trim();
        let is = |word: &str| head.eq_ignore_ascii_case(word);
        Ok(if is("BEGIN") {
            Simple::Begin
        } else if is("COMMIT") {
            Simple::Commit
        } else if is("ROLLBACK") {
            Simple::Rollback
        } else {
            Simple::Sql(parse_statement(sql).map_err(|e| e.to_string())?)
        })
    }

    /// The M$STATEMENTS key: fixed for transaction control (a hash meets
    /// one of these with probability 2^-64), the normalized statement's id
    /// otherwise, so literal variants of a query or DML statement fold
    /// into one row whichever protocol carried them.
    fn into_id(self) -> StatementId {
        match self {
            Simple::Begin => StatementId(1),
            Simple::Commit => StatementId(2),
            Simple::Rollback => StatementId(3),
            Simple::Sql(stmt) => stmt.into_id(),
        }
    }
}

/// A bound portal: statement + the client's bind values (the full
/// parameter vector is extracted-literals ++ client values, assembled at
/// execute time so a re-prepared statement contributes fresh extractions).
struct Portal {
    stmt: Arc<StatementHandle>,
    client_values: Vec<Value>,
}

/// What the connection loop should do after a message.
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum Disposition {
    Continue,
    /// Clean Terminate from the client.
    Terminate,
    /// Unrecoverable framing/payload error: answer sent, drop connection.
    Fatal,
}

pub(crate) struct Session<'db> {
    db: &'db Database,
    cache: &'db PlanCache,
    txn: Option<Txn<'db>>,
    statements: HashMap<String, Arc<StatementHandle>>,
    portals: HashMap<String, Portal>,
    /// Extended-protocol error state: skip messages until Sync.
    error_until_sync: bool,
    /// Live facts published to `M$SESSIONS`.
    info: Arc<SessionInfo>,
}

impl<'db> Session<'db> {
    pub fn new(db: &'db Database, cache: &'db PlanCache, info: Arc<SessionInfo>) -> Self {
        Session {
            db,
            cache,
            txn: None,
            statements: HashMap::new(),
            portals: HashMap::new(),
            error_until_sync: false,
            info,
        }
    }

    /// Publish `sql` as this session's most recent statement (collapsed
    /// and bounded for the `M$SESSIONS` display column).
    fn note_statement(&self, sql: &str) {
        *self.info.last_statement.lock() = display_text(sql);
    }

    /// End a statement's request and fold it into the database's
    /// [`StatementCollector`](rdbms::StatementCollector) under `id`: its
    /// service time, and the totals of every wait the engine recorded while
    /// it ran (lock queues, WAL flushes, group-commit parks, exec time).
    fn finish_statement(&self, request: RequestGuard, id: StatementId, sql: &str, rows: u64) {
        let (service, waits) = request.finish();
        self.db.statement_collector().record(id, sql, service, rows, &waits);
    }

    /// Is a client-initiated transaction open? (Used by the server to
    /// count disconnect rollbacks; the rollback itself is the `Txn` drop.)
    pub fn in_txn(&self) -> bool {
        self.txn.is_some()
    }

    fn ready_status(&self) -> u8 {
        if self.error_until_sync {
            STATUS_FAILED
        } else if self.txn.is_some() {
            STATUS_IN_TXN
        } else {
            STATUS_IDLE
        }
    }

    fn send_error(&mut self, out: &mut Vec<u8>, msg: &str) {
        let mut p = Vec::new();
        write_string(&mut p, msg);
        // The buffer write cannot fail.
        write_frame(out, MSG_ERROR, &p).expect("vec write");
    }

    fn send_ready(&self, out: &mut Vec<u8>) {
        write_frame(out, MSG_READY, &[self.ready_status()]).expect("vec write");
    }

    fn send_result(&self, out: &mut Vec<u8>, res: &QueryResult) {
        let mut p = Vec::new();
        let cols = res.schema.columns();
        p.extend_from_slice(&(cols.len() as u16).to_be_bytes());
        for c in cols {
            write_string(&mut p, &c.name);
        }
        write_frame(out, MSG_ROW_DESC, &p).expect("vec write");
        for row in &res.rows {
            let mut p = Vec::new();
            p.extend_from_slice(&(row.len() as u16).to_be_bytes());
            for v in row {
                write_value(&mut p, v);
            }
            write_frame(out, MSG_DATA_ROW, &p).expect("vec write");
        }
        let mut p = Vec::new();
        write_string(&mut p, &format!("SELECT {}", res.rows.len()));
        write_frame(out, MSG_COMMAND_COMPLETE, &p).expect("vec write");
    }

    fn send_command_complete(&self, out: &mut Vec<u8>, tag: &str) {
        let mut p = Vec::new();
        write_string(&mut p, tag);
        write_frame(out, MSG_COMMAND_COMPLETE, &p).expect("vec write");
    }

    /// A statement failed: abort any open transaction so its locks do not
    /// outlive the error.
    fn abort_txn_on_error(&mut self) {
        if let Some(txn) = self.txn.take() {
            let _ = txn.rollback();
        }
    }

    /// Handle one decoded frame, appending response frames to `out`.
    pub fn handle_message(&mut self, tag: u8, payload: &[u8], out: &mut Vec<u8>) -> Disposition {
        if self.error_until_sync && !matches!(tag, MSG_SYNC | MSG_TERMINATE) {
            return Disposition::Continue;
        }
        let disposition = match tag {
            MSG_TERMINATE => Disposition::Terminate,
            MSG_SYNC => {
                self.error_until_sync = false;
                self.send_ready(out);
                Disposition::Continue
            }
            MSG_QUERY => self.on_query(payload, out),
            MSG_PARSE => self.on_parse(payload, out),
            MSG_BIND => self.on_bind(payload, out),
            MSG_EXECUTE => self.on_execute(payload, out),
            MSG_CLOSE => self.on_close(payload, out),
            other => {
                self.send_error(out, &format!("unknown message tag {other:#04x}"));
                Disposition::Fatal
            }
        };
        self.info.in_txn.store(self.txn.is_some(), Ordering::Relaxed);
        disposition
    }

    /// Extended-protocol failure: report, then ignore until Sync.
    fn extended_error(&mut self, out: &mut Vec<u8>, msg: &str) -> Disposition {
        self.abort_txn_on_error();
        self.send_error(out, msg);
        self.error_until_sync = true;
        Disposition::Continue
    }

    /// Malformed payload: report and drop the connection (framing state
    /// after a bad payload is untrustworthy).
    fn payload_error(&mut self, out: &mut Vec<u8>, err: &Malformed) -> Disposition {
        self.send_error(out, &err.to_string());
        Disposition::Fatal
    }

    // ---- simple protocol ------------------------------------------------

    fn on_query(&mut self, payload: &[u8], out: &mut Vec<u8>) -> Disposition {
        let sql = match String::from_utf8(payload.to_vec()) {
            Ok(s) => s,
            Err(_) => return self.payload_error(out, &Malformed("query is not UTF-8".into())),
        };
        self.info.queries.fetch_add(1, Ordering::Relaxed);
        self.note_statement(&sql);
        // The request wraps the whole statement including COMMIT, so every
        // span and wait event below attaches to this trace id, and WAL
        // flush and group-commit waits show up on the statement that paid
        // them. The trace lands in M$TRACES either way; an error records
        // nothing in M$STATEMENTS (partial waits would not reconcile).
        let request = self.db.begin_request("server/simple", sql.as_str()).map(RequestCtx::install);
        let done =
            Simple::parse(&sql).and_then(|stmt| Ok((self.run_simple(&stmt, &sql, out)?, stmt)));
        match done {
            Ok((rows, stmt)) => {
                // Normalizing for the id is paid only when the monitor
                // records the statement.
                if let Some(request) = request {
                    self.finish_statement(request, stmt.into_id(), &sql, rows);
                }
            }
            Err(msg) => {
                self.abort_txn_on_error();
                self.send_error(out, &msg);
            }
        }
        self.send_ready(out);
        Disposition::Continue
    }

    fn run_simple(&mut self, stmt: &Simple, sql: &str, out: &mut Vec<u8>) -> Result<u64, String> {
        let stmt = match stmt {
            Simple::Begin => {
                if self.txn.is_some() {
                    return Err("transaction already open".into());
                }
                self.txn = Some(self.db.begin());
                self.send_command_complete(out, "BEGIN");
                return Ok(0);
            }
            Simple::Commit => {
                let txn = self.txn.take().ok_or("no transaction open")?;
                txn.commit().map_err(|e| e.to_string())?;
                self.send_command_complete(out, "COMMIT");
                return Ok(0);
            }
            Simple::Rollback => {
                let txn = self.txn.take().ok_or("no transaction open")?;
                txn.rollback().map_err(|e| e.to_string())?;
                self.send_command_complete(out, "ROLLBACK");
                return Ok(0);
            }
            Simple::Sql(stmt) => stmt,
        };

        // Outside a BEGIN block the engine runs the statement as a
        // one-statement transaction (DDL directly; its catalog version bump
        // invalidates affected cached plans).
        let outcome = match self.txn.as_mut() {
            Some(txn) => txn.execute_statement(stmt),
            None => self.db.execute_statement(stmt, sql),
        }
        .map_err(|e| e.to_string())?;
        let rows = match &outcome {
            ExecOutcome::Rows(r) => r.rows.len() as u64,
            ExecOutcome::Count(n) => *n,
            ExecOutcome::Done => 0,
        };
        match outcome {
            ExecOutcome::Rows(r) => self.send_result(out, &r),
            ExecOutcome::Count(n) => self.send_command_complete(out, &format!("OK {n}")),
            ExecOutcome::Done => self.send_command_complete(out, "OK"),
        }
        Ok(rows)
    }

    // ---- extended protocol ----------------------------------------------

    fn on_parse(&mut self, payload: &[u8], out: &mut Vec<u8>) -> Disposition {
        let mut r = PayloadReader::new(payload);
        let (name, sql) = match (|| {
            let name = r.take_string("statement name")?;
            let sql = r.take_string("statement sql")?;
            r.finish()?;
            Ok::<_, Malformed>((name, sql))
        })() {
            Ok(v) => v,
            Err(e) => return self.payload_error(out, &e),
        };
        let cached = match self.cache.prepare(self.db, &sql) {
            Ok(c) => c,
            Err(e) => return self.extended_error(out, &e.to_string()),
        };
        let client_params = cached.prepared.n_params - cached.extracted_params.len();
        let handle = StatementHandle::new(sql.into(), cached);
        self.statements.insert(name, Arc::clone(&handle));
        let mut p = Vec::new();
        p.push(handle.cache_hit as u8);
        p.extend_from_slice(&(client_params as u32).to_be_bytes());
        write_frame(out, MSG_PARSE_COMPLETE, &p).expect("vec write");
        Disposition::Continue
    }

    fn on_bind(&mut self, payload: &[u8], out: &mut Vec<u8>) -> Disposition {
        let mut r = PayloadReader::new(payload);
        let (portal, stmt_name, values) = match (|| {
            let portal = r.take_string("portal name")?;
            let stmt = r.take_string("statement name")?;
            let n = r.take_u16("parameter count")?;
            let mut values = Vec::with_capacity(n as usize);
            for _ in 0..n {
                values.push(r.take_value()?);
            }
            r.finish()?;
            Ok::<_, Malformed>((portal, stmt, values))
        })() {
            Ok(v) => v,
            Err(e) => return self.payload_error(out, &e),
        };
        let Some(stmt) = self.statements.get(&stmt_name).cloned() else {
            return self.extended_error(out, &format!("unknown statement {stmt_name:?}"));
        };
        let expected = stmt.prepared.n_params - stmt.extracted.len();
        if values.len() != expected {
            return self.extended_error(
                out,
                &format!("statement takes {expected} parameters, {} bound", values.len()),
            );
        }
        self.portals.insert(portal, Portal { stmt, client_values: values });
        write_frame(out, MSG_BIND_COMPLETE, &[]).expect("vec write");
        Disposition::Continue
    }

    fn on_execute(&mut self, payload: &[u8], out: &mut Vec<u8>) -> Disposition {
        let mut r = PayloadReader::new(payload);
        let portal_name = match (|| {
            let p = r.take_string("portal name")?;
            r.finish()?;
            Ok::<_, Malformed>(p)
        })() {
            Ok(v) => v,
            Err(e) => return self.payload_error(out, &e),
        };
        if !self.portals.contains_key(&portal_name) {
            return self.extended_error(out, &format!("unknown portal {portal_name:?}"));
        }
        // DDL since prepare? A stale plan may reference dropped objects —
        // re-prepare through the cache (which drops the stale entry) before
        // running. The paper's REOPEN has the same hazard: the R/3 cursor
        // cache flushes on DD changes.
        if !self.portals[&portal_name].stmt.prepared.is_current(self.db.catalog()) {
            let sql = Arc::clone(&self.portals[&portal_name].stmt.sql);
            let cached = match self.cache.prepare(self.db, &sql) {
                Ok(c) => c,
                Err(e) => return self.extended_error(out, &e.to_string()),
            };
            let fresh = StatementHandle::new(sql, cached);
            self.portals.get_mut(&portal_name).expect("checked above").stmt = fresh;
        }
        let portal = &self.portals[&portal_name];
        let stmt = Arc::clone(&portal.stmt);
        let prepared = Arc::clone(&stmt.prepared);
        // Extracted literals first, client binds after — together they
        // fill the normalized statement's parameter positions in order.
        let mut params = stmt.extracted.clone();
        params.extend(portal.client_values.iter().cloned());
        self.info.executes.fetch_add(1, Ordering::Relaxed);
        self.note_statement(&stmt.sql);
        let request = self
            .db
            .begin_request("server/extended", Arc::clone(&stmt.sql))
            .map(RequestCtx::install);
        let res = match self.txn.as_mut() {
            Some(txn) => txn.execute_prepared(&prepared, &params),
            None => self.db.execute_prepared(&prepared, &params),
        };
        match res {
            Ok(rows) => {
                let n = rows.rows.len() as u64;
                if let Some(request) = request {
                    self.finish_statement(request, stmt.id, &stmt.sql, n);
                }
                self.send_result(out, &rows);
                Disposition::Continue
            }
            Err(e) => self.extended_error(out, &e.to_string()),
        }
    }

    fn on_close(&mut self, payload: &[u8], out: &mut Vec<u8>) -> Disposition {
        let mut r = PayloadReader::new(payload);
        let (kind, name) = match (|| {
            let kind = r.take_u8("close kind")?;
            let name = r.take_string("close name")?;
            r.finish()?;
            Ok::<_, Malformed>((kind, name))
        })() {
            Ok(v) => v,
            Err(e) => return self.payload_error(out, &e),
        };
        match kind {
            b'S' => {
                self.statements.remove(&name);
            }
            b'P' => {
                self.portals.remove(&name);
            }
            other => {
                return self.payload_error(out, &Malformed(format!("unknown close kind {other}")))
            }
        }
        write_frame(out, MSG_CLOSE_COMPLETE, &[]).expect("vec write");
        Disposition::Continue
    }
}
