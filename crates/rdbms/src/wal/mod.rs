//! Write-ahead logging with ARIES-style restart recovery.
//!
//! The engine's pager is a *simulated* disk: it lives in process memory and
//! dies with the process. The one real persistent artifact is the log file
//! this module owns — a sequence of physiological records (row-level
//! operations addressed by RID) from which the entire database state can be
//! reconstructed. Durability is therefore log-structured: a crash throws
//! away every page and [`recovery::recover`] repeats history from the log
//! (analysis / redo / undo, DESIGN.md §10).
//!
//! Key pieces:
//!
//! * **LSNs** ([`Lsn`]) are byte offsets into the log file; the file starts
//!   with an 8-byte magic so offset 0 can mean "none" ([`NULL_LSN`]).
//! * **Records** ([`LogPayload`]) are framed `[len][crc][body]` with an
//!   FNV-1a checksum; a torn or corrupt tail ends the readable prefix, so
//!   truncating the file at any byte offset models a crash.
//! * **Per-transaction backchains**: every record carries the previous LSN
//!   of its transaction, maintained in the live active-transaction table so
//!   rollback and restart-undo can walk a transaction's history backward.
//! * **Group commit** ([`Wal::commit`]): under [`CommitPolicy::GroupCommit`]
//!   a committing thread either becomes the *leader* — writing and fsyncing
//!   everything buffered so far in one force — or parks on a condvar until
//!   a leader's force covers its commit LSN. One disk force thus absorbs
//!   many commits; the batch sizes are metered as
//!   [`Counter::GroupCommitBatch`].
//! * **Fuzzy checkpoints**: [`crate::Database::checkpoint`] logs the active
//!   transaction table and the pager's dirty-page table without quiescing
//!   anything; restart analysis starts from the last complete checkpoint.
//!
//! Transaction 0 is reserved for *system* records: bulk-load inserts and
//! replayed DDL, which carry no begin/commit bracket and are treated as
//! committed if present (asynchronous-commit load semantics; the loader
//! forces the log with [`crate::Database::wal_flush`] when it needs a durability
//! point).

pub mod recovery;

use crate::error::{DbError, DbResult};
use crate::schema::Row;
use crate::storage::codec::{decode_row, encode_row, Reader};
use crate::storage::{PageId, Rid};
use crate::txn::TxnId;
use parking_lot::{Condvar, Mutex};
use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, OnceLock};
use std::time::Instant;
use trace::meter::{CostMeter, Counter};
use trace::wait::{WaitEvent, WaitStats};

pub use recovery::{recover, RecoveryReport};

/// Log sequence number: the byte offset of a record in the log file.
pub type Lsn = u64;

/// "No LSN": the file begins with [`MAGIC`], so no record lives at offset 0.
pub const NULL_LSN: Lsn = 0;

/// File header identifying a log file (and reserving offset 0).
pub const MAGIC: &[u8; 8] = b"R3WAL001";

/// Transaction id reserved for system records (bulk load, DDL): no
/// begin/commit bracket, committed-if-present at restart.
pub const SYSTEM_TXN: TxnId = 0;

/// Frame overhead per record: `[len: u32][crc: u32]`.
const FRAME_HEADER: usize = 8;

/// Sanity cap on a single record body (a row is at most a page).
const MAX_RECORD: u32 = 1 << 24;

/// How commits force the log to disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CommitPolicy {
    /// Write buffered records to the file on commit but never fsync. Fast
    /// and crash-unsafe (commits can be lost); useful as the "WAL off"
    /// baseline that still exercises the logging path.
    NoFsync,
    /// Every commit writes and fsyncs immediately, serialized: one disk
    /// force per commit (the classic durability tax).
    FsyncPerCommit,
    /// Leader-based group commit: one force covers every commit buffered
    /// while the previous force was in flight.
    #[default]
    GroupCommit,
}

impl CommitPolicy {
    pub fn as_str(self) -> &'static str {
        match self {
            CommitPolicy::NoFsync => "no_fsync",
            CommitPolicy::FsyncPerCommit => "fsync_per_commit",
            CommitPolicy::GroupCommit => "group_commit",
        }
    }
}

/// Write-ahead-log configuration carried inside [`crate::DbConfig`].
#[derive(Debug, Clone)]
pub struct WalConfig {
    /// Path of the log file (created/truncated by [`crate::Database::open`],
    /// reopened by [`recover`]).
    pub path: PathBuf,
    pub policy: CommitPolicy,
}

impl WalConfig {
    pub fn new(path: impl Into<PathBuf>) -> Self {
        WalConfig { path: path.into(), policy: CommitPolicy::default() }
    }

    pub fn with_policy(mut self, policy: CommitPolicy) -> Self {
        self.policy = policy;
        self
    }
}

/// The redo half of one undo step, logged as a compensation record so
/// restart can repeat a partially-logged rollback and never undo twice.
#[derive(Debug, Clone, PartialEq)]
pub enum UndoAction {
    /// Undo of an insert: the row at `rid` is deleted.
    Delete { table: String, rid: Rid },
    /// Undo of a delete: `row` is re-inserted and now lives at `rid` (not
    /// the rid it was deleted from: that slot may have a new tenant).
    Insert { table: String, rid: Rid, row: Row },
    /// Undo of an update: the row found at `rid` is restored to `old` and
    /// now lives at `prev_rid`.
    Revert { table: String, rid: Rid, prev_rid: Rid, old: Row },
}

/// One log record body. `Insert`/`Delete`/`Update` are physiological: they
/// name the table, the RID the operation used at do-time, and full
/// before/after row images, so they can be both replayed forward and
/// undone backward (RID drift across replays is handled by a remap table,
/// see [`recovery`]).
#[derive(Debug, Clone, PartialEq)]
pub enum LogPayload {
    Begin,
    Commit,
    Abort,
    Insert {
        table: String,
        rid: Rid,
        row: Row,
    },
    Delete {
        table: String,
        rid: Rid,
        row: Row,
    },
    Update {
        table: String,
        rid: Rid,
        new_rid: Rid,
        old: Row,
        new: Row,
    },
    /// Compensation log record: `undo_next` is the LSN of the next record
    /// of this transaction still to undo ([`NULL_LSN`] when the rollback
    /// is complete up to Begin).
    Clr {
        undo_next: Lsn,
        action: UndoAction,
    },
    CheckpointBegin,
    /// End of a fuzzy checkpoint: the active-transaction table (txn id,
    /// last LSN) and the dirty-page table (page id, recovery LSN) as of
    /// the checkpoint.
    CheckpointEnd {
        att: Vec<(TxnId, Lsn)>,
        dpt: Vec<(PageId, Lsn)>,
    },
    /// DDL, replayed by re-executing the statement text.
    Ddl {
        sql: String,
    },
}

/// A decoded record together with its position and transaction linkage.
#[derive(Debug, Clone)]
pub struct LogRecord {
    pub lsn: Lsn,
    pub txn: TxnId,
    /// Previous record of the same transaction ([`NULL_LSN`] for the first,
    /// and always for [`SYSTEM_TXN`] records).
    pub prev_lsn: Lsn,
    pub payload: LogPayload,
}

// ---------------------------------------------------------------------------
// Binary codec
// ---------------------------------------------------------------------------

fn fnv1a(bytes: &[u8]) -> u32 {
    let mut h: u32 = 0x811c_9dc5;
    for &b in bytes {
        h ^= b as u32;
        h = h.wrapping_mul(0x0100_0193);
    }
    h
}

fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u16(out, s.len() as u16);
    out.extend_from_slice(s.as_bytes());
}

fn put_rid(out: &mut Vec<u8>, rid: Rid) {
    put_u32(out, rid.page);
    put_u16(out, rid.slot);
}

fn put_row(out: &mut Vec<u8>, row: &Row) {
    let bytes = encode_row(row);
    put_u32(out, bytes.len() as u32);
    out.extend_from_slice(&bytes);
}

/// The reads of a log record body: a short read is one error, whatever
/// field it cut.
fn short() -> DbError {
    DbError::storage("truncated log record body")
}

fn take<'a>(c: &mut Reader<'a>, n: usize) -> DbResult<&'a [u8]> {
    c.take(n).ok_or_else(short)
}

fn read_str(c: &mut Reader) -> DbResult<String> {
    let n = c.u16().ok_or_else(short)? as usize;
    String::from_utf8(take(c, n)?.to_vec()).map_err(|_| DbError::storage("bad utf8 in log record"))
}

fn read_rid(c: &mut Reader) -> DbResult<Rid> {
    Ok(Rid { page: c.u32().ok_or_else(short)?, slot: c.u16().ok_or_else(short)? })
}

fn read_row(c: &mut Reader) -> DbResult<Row> {
    let n = c.u32().ok_or_else(short)? as usize;
    decode_row(take(c, n)?)
}

const K_BEGIN: u8 = 1;
const K_COMMIT: u8 = 2;
const K_ABORT: u8 = 3;
const K_INSERT: u8 = 4;
const K_DELETE: u8 = 5;
const K_UPDATE: u8 = 6;
const K_CLR: u8 = 7;
const K_CKPT_BEGIN: u8 = 8;
const K_CKPT_END: u8 = 9;
const K_DDL: u8 = 10;

const A_DELETE: u8 = 1;
const A_INSERT: u8 = 2;
const A_REVERT: u8 = 3;

fn encode_body(txn: TxnId, prev_lsn: Lsn, payload: &LogPayload) -> Vec<u8> {
    let mut out = Vec::with_capacity(64);
    let kind = match payload {
        LogPayload::Begin => K_BEGIN,
        LogPayload::Commit => K_COMMIT,
        LogPayload::Abort => K_ABORT,
        LogPayload::Insert { .. } => K_INSERT,
        LogPayload::Delete { .. } => K_DELETE,
        LogPayload::Update { .. } => K_UPDATE,
        LogPayload::Clr { .. } => K_CLR,
        LogPayload::CheckpointBegin => K_CKPT_BEGIN,
        LogPayload::CheckpointEnd { .. } => K_CKPT_END,
        LogPayload::Ddl { .. } => K_DDL,
    };
    out.push(kind);
    put_u64(&mut out, txn);
    put_u64(&mut out, prev_lsn);
    match payload {
        LogPayload::Begin
        | LogPayload::Commit
        | LogPayload::Abort
        | LogPayload::CheckpointBegin => {}
        LogPayload::Insert { table, rid, row } | LogPayload::Delete { table, rid, row } => {
            put_str(&mut out, table);
            put_rid(&mut out, *rid);
            put_row(&mut out, row);
        }
        LogPayload::Update { table, rid, new_rid, old, new } => {
            put_str(&mut out, table);
            put_rid(&mut out, *rid);
            put_rid(&mut out, *new_rid);
            put_row(&mut out, old);
            put_row(&mut out, new);
        }
        LogPayload::Clr { undo_next, action } => {
            put_u64(&mut out, *undo_next);
            match action {
                UndoAction::Delete { table, rid } => {
                    out.push(A_DELETE);
                    put_str(&mut out, table);
                    put_rid(&mut out, *rid);
                }
                UndoAction::Insert { table, rid, row } => {
                    out.push(A_INSERT);
                    put_str(&mut out, table);
                    put_rid(&mut out, *rid);
                    put_row(&mut out, row);
                }
                UndoAction::Revert { table, rid, prev_rid, old } => {
                    out.push(A_REVERT);
                    put_str(&mut out, table);
                    put_rid(&mut out, *rid);
                    put_rid(&mut out, *prev_rid);
                    put_row(&mut out, old);
                }
            }
        }
        LogPayload::CheckpointEnd { att, dpt } => {
            put_u32(&mut out, att.len() as u32);
            for (t, l) in att {
                put_u64(&mut out, *t);
                put_u64(&mut out, *l);
            }
            put_u32(&mut out, dpt.len() as u32);
            for (p, l) in dpt {
                put_u32(&mut out, *p);
                put_u64(&mut out, *l);
            }
        }
        LogPayload::Ddl { sql } => {
            put_u32(&mut out, sql.len() as u32);
            out.extend_from_slice(sql.as_bytes());
        }
    }
    out
}

fn decode_body(body: &[u8]) -> DbResult<(TxnId, Lsn, LogPayload)> {
    let mut c = Reader(body);
    let kind = c.u8().ok_or_else(short)?;
    let txn = c.u64().ok_or_else(short)?;
    let prev = c.u64().ok_or_else(short)?;
    let payload = match kind {
        K_BEGIN => LogPayload::Begin,
        K_COMMIT => LogPayload::Commit,
        K_ABORT => LogPayload::Abort,
        K_INSERT | K_DELETE => {
            let table = read_str(&mut c)?;
            let rid = read_rid(&mut c)?;
            let row = read_row(&mut c)?;
            if kind == K_INSERT {
                LogPayload::Insert { table, rid, row }
            } else {
                LogPayload::Delete { table, rid, row }
            }
        }
        K_UPDATE => {
            let table = read_str(&mut c)?;
            let rid = read_rid(&mut c)?;
            let new_rid = read_rid(&mut c)?;
            let old = read_row(&mut c)?;
            let new = read_row(&mut c)?;
            LogPayload::Update { table, rid, new_rid, old, new }
        }
        K_CLR => {
            let undo_next = c.u64().ok_or_else(short)?;
            let akind = c.u8().ok_or_else(short)?;
            let action = match akind {
                A_DELETE => UndoAction::Delete { table: read_str(&mut c)?, rid: read_rid(&mut c)? },
                A_INSERT => UndoAction::Insert {
                    table: read_str(&mut c)?,
                    rid: read_rid(&mut c)?,
                    row: read_row(&mut c)?,
                },
                A_REVERT => UndoAction::Revert {
                    table: read_str(&mut c)?,
                    rid: read_rid(&mut c)?,
                    prev_rid: read_rid(&mut c)?,
                    old: read_row(&mut c)?,
                },
                other => {
                    return Err(DbError::storage(format!("unknown CLR action {other}")));
                }
            };
            LogPayload::Clr { undo_next, action }
        }
        K_CKPT_BEGIN => LogPayload::CheckpointBegin,
        K_CKPT_END => {
            let n = c.u32().ok_or_else(short)? as usize;
            let mut att = Vec::with_capacity(n);
            for _ in 0..n {
                let t = c.u64().ok_or_else(short)?;
                let l = c.u64().ok_or_else(short)?;
                att.push((t, l));
            }
            let m = c.u32().ok_or_else(short)? as usize;
            let mut dpt = Vec::with_capacity(m);
            for _ in 0..m {
                let p = c.u32().ok_or_else(short)?;
                let l = c.u64().ok_or_else(short)?;
                dpt.push((p, l));
            }
            LogPayload::CheckpointEnd { att, dpt }
        }
        K_DDL => {
            let n = c.u32().ok_or_else(short)? as usize;
            let sql = String::from_utf8(take(&mut c, n)?.to_vec())
                .map_err(|_| DbError::storage("bad utf8 in DDL record"))?;
            LogPayload::Ddl { sql }
        }
        other => return Err(DbError::storage(format!("unknown log record kind {other}"))),
    };
    Ok((txn, prev, payload))
}

/// Read every intact record from `bytes` (the log file content including
/// the magic header). Stops silently at the first torn or corrupt frame —
/// truncation at any byte offset yields the intact record prefix. Returns
/// the records and the byte offset of the end of the valid prefix.
pub fn scan_records(bytes: &[u8]) -> (Vec<LogRecord>, u64) {
    let mut records = Vec::new();
    if bytes.len() < MAGIC.len() || &bytes[..MAGIC.len()] != MAGIC {
        return (records, MAGIC.len() as u64);
    }
    let mut pos = MAGIC.len();
    loop {
        if pos + FRAME_HEADER > bytes.len() {
            break;
        }
        let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap());
        let crc = u32::from_le_bytes(bytes[pos + 4..pos + 8].try_into().unwrap());
        if len == 0 || len > MAX_RECORD {
            break;
        }
        let start = pos + FRAME_HEADER;
        let end = start + len as usize;
        if end > bytes.len() {
            break;
        }
        let body = &bytes[start..end];
        if fnv1a(body) != crc {
            break;
        }
        let Ok((txn, prev_lsn, payload)) = decode_body(body) else {
            break;
        };
        records.push(LogRecord { lsn: pos as Lsn, txn, prev_lsn, payload });
        pos = end;
    }
    (records, pos as u64)
}

/// Read and decode a log file from disk (see [`scan_records`]).
pub fn read_log(path: &Path) -> DbResult<Vec<LogRecord>> {
    let mut bytes = Vec::new();
    File::open(path)
        .and_then(|mut f| f.read_to_end(&mut bytes))
        .map_err(|e| DbError::storage(format!("read log {}: {e}", path.display())))?;
    Ok(scan_records(&bytes).0)
}

// ---------------------------------------------------------------------------
// The log manager
// ---------------------------------------------------------------------------

struct WalState {
    /// Records appended but not yet written to the file.
    buf: Vec<u8>,
    /// Byte offset the next record will be assigned.
    next_lsn: Lsn,
    /// Everything below this offset has been written *and* fsynced.
    durable_lsn: Lsn,
    /// Everything below this offset has been written (maybe not synced).
    written_lsn: Lsn,
    /// Live transactions and their most recent LSN (the backchain heads —
    /// doubles as the checkpoint's active-transaction table).
    att: HashMap<TxnId, Lsn>,
    /// A leader is currently writing/syncing outside the lock.
    flush_in_progress: bool,
    /// Commit LSNs waiting to be covered by a force (group-batch metering).
    commit_queue: Vec<Lsn>,
}

/// The shared write-ahead log: an append buffer, the active-transaction
/// table, and the group-commit flusher around one real [`File`].
pub struct Wal {
    path: PathBuf,
    policy: CommitPolicy,
    meter: Arc<CostMeter>,
    /// Wait-event sink for M$WAIT_EVENTS (log forces, group-commit parks);
    /// set once by the owning [`crate::Database`] after construction.
    wait: OnceLock<Arc<WaitStats>>,
    state: Mutex<WalState>,
    file: Mutex<File>,
    flushed: Condvar,
}

impl Wal {
    /// Create or truncate the log file at `config.path`.
    pub(crate) fn create(config: &WalConfig, meter: Arc<CostMeter>) -> DbResult<Wal> {
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(&config.path)
            .map_err(|e| DbError::storage(format!("open wal {}: {e}", config.path.display())))?;
        file.write_all(MAGIC).map_err(|e| DbError::storage(format!("write wal header: {e}")))?;
        Ok(Wal::with_file(config, meter, file, MAGIC.len() as Lsn))
    }

    /// Reopen an existing log positioned at `end` (the end of the valid
    /// prefix found by recovery; bytes past it are truncated away).
    pub(crate) fn reopen(config: &WalConfig, meter: Arc<CostMeter>, end: Lsn) -> DbResult<Wal> {
        let mut file =
            OpenOptions::new().read(true).write(true).open(&config.path).map_err(|e| {
                DbError::storage(format!("open wal {}: {e}", config.path.display()))
            })?;
        file.set_len(end).map_err(|e| DbError::storage(format!("truncate wal: {e}")))?;
        file.seek(SeekFrom::End(0)).map_err(|e| DbError::storage(format!("seek wal: {e}")))?;
        Ok(Wal::with_file(config, meter, file, end))
    }

    fn with_file(config: &WalConfig, meter: Arc<CostMeter>, file: File, end: Lsn) -> Wal {
        Wal {
            path: config.path.clone(),
            policy: config.policy,
            meter,
            wait: OnceLock::new(),
            state: Mutex::new(WalState {
                buf: Vec::new(),
                next_lsn: end,
                durable_lsn: end,
                written_lsn: end,
                att: HashMap::new(),
                flush_in_progress: false,
                commit_queue: Vec::new(),
            }),
            file: Mutex::new(file),
            flushed: Condvar::new(),
        }
    }

    /// Attach the wait-event sink (idempotent; first caller wins).
    pub(crate) fn set_wait_stats(&self, wait: Arc<WaitStats>) {
        let _ = self.wait.set(wait);
    }

    pub fn path(&self) -> &Path {
        &self.path
    }

    pub fn policy(&self) -> CommitPolicy {
        self.policy
    }

    /// Seed the active-transaction table (restart undo: loser transactions
    /// must keep their backchain heads so compensation records chain onto
    /// the existing history instead of opening a fresh `Begin`).
    pub(crate) fn seed_att(&self, att: &[(TxnId, Lsn)]) {
        let mut st = self.state.lock();
        for &(t, l) in att {
            st.att.insert(t, l);
        }
    }

    /// Append a batch of records for one transaction, maintaining the
    /// per-transaction backchain. A first record for a live transaction id
    /// is automatically preceded by `Begin` (except [`SYSTEM_TXN`], which
    /// has no bracket). Returns the LSN assigned to each payload in order.
    /// Records are buffered in memory; durability comes from [`Self::commit`],
    /// [`Self::flush`] or a group leader's force.
    pub fn append_batch(&self, txn: TxnId, payloads: &[LogPayload]) -> Vec<Lsn> {
        if payloads.is_empty() {
            return Vec::new();
        }
        let mut st = self.state.lock();
        let mut lsns = Vec::with_capacity(payloads.len());
        let mut bytes = 0u64;
        let mut n = 0u64;
        let needs_begin = txn != SYSTEM_TXN
            && !st.att.contains_key(&txn)
            && !matches!(payloads[0], LogPayload::Begin);
        if needs_begin {
            let (_lsn, b) = Self::push_record(&mut st, txn, &LogPayload::Begin);
            bytes += b;
            n += 1;
        }
        for p in payloads {
            let (lsn, b) = Self::push_record(&mut st, txn, p);
            lsns.push(lsn);
            bytes += b;
            n += 1;
        }
        drop(st);
        self.meter.add(Counter::WalRecords, n);
        self.meter.add(Counter::WalBytes, bytes);
        lsns
    }

    fn push_record(st: &mut WalState, txn: TxnId, payload: &LogPayload) -> (Lsn, u64) {
        let prev = if txn == SYSTEM_TXN {
            NULL_LSN
        } else {
            st.att.get(&txn).copied().unwrap_or(NULL_LSN)
        };
        let body = encode_body(txn, prev, payload);
        let lsn = st.next_lsn;
        let mut frame = Vec::with_capacity(FRAME_HEADER + body.len());
        put_u32(&mut frame, body.len() as u32);
        put_u32(&mut frame, fnv1a(&body));
        frame.extend_from_slice(&body);
        let flen = frame.len() as u64;
        st.buf.extend_from_slice(&frame);
        st.next_lsn += flen;
        if txn != SYSTEM_TXN {
            match payload {
                LogPayload::Commit | LogPayload::Abort => {
                    st.att.remove(&txn);
                }
                _ => {
                    st.att.insert(txn, lsn);
                }
            }
        }
        (lsn, flen)
    }

    /// Snapshot of the active-transaction table (txn id, last LSN).
    pub fn active_transactions(&self) -> Vec<(TxnId, Lsn)> {
        let st = self.state.lock();
        let mut att: Vec<_> = st.att.iter().map(|(&t, &l)| (t, l)).collect();
        att.sort_unstable();
        att
    }

    /// Everything at or below this LSN survives a crash.
    pub fn durable_lsn(&self) -> Lsn {
        self.state.lock().durable_lsn
    }

    /// Make the log durable up to `lsn` according to the commit policy.
    /// This is the commit path: under [`CommitPolicy::GroupCommit`] the
    /// caller either leads a force or parks until one covers it.
    pub fn commit(&self, lsn: Lsn) -> DbResult<()> {
        match self.policy {
            CommitPolicy::NoFsync => self.write_buffered(false),
            CommitPolicy::FsyncPerCommit => {
                let mut st = self.state.lock();
                if self.already_durable(&st, lsn) {
                    return Ok(());
                }
                self.force_locked(&mut st, true)
            }
            CommitPolicy::GroupCommit => self.group_commit(lsn),
        }
    }

    /// Whether an earlier force already made the commit at `lsn` durable.
    /// Such a commit rode in that force without being in its batch, so it
    /// is counted here: every commit call counts once in
    /// [`Counter::GroupCommitBatch`].
    fn already_durable(&self, st: &WalState, lsn: Lsn) -> bool {
        let covered = st.durable_lsn > lsn;
        if covered {
            self.meter.add(Counter::GroupCommitBatch, 1);
        }
        covered
    }

    fn group_commit(&self, lsn: Lsn) -> DbResult<()> {
        let mut st = self.state.lock();
        if self.already_durable(&st, lsn) {
            return Ok(());
        }
        st.commit_queue.push(lsn);
        // Total time this thread spends parked as a follower, recorded as
        // one GroupCommitWait event when the commit completes.
        let mut parked: Option<Instant> = None;
        let result = loop {
            if st.durable_lsn > lsn {
                break Ok(());
            }
            if st.flush_in_progress {
                // Park as a follower; the leader's force may cover us.
                parked.get_or_insert_with(Instant::now);
                self.flushed.wait(&mut st);
                continue;
            }
            // Become the leader: take the buffer, force it outside the
            // state lock so more commits can queue behind us.
            st.flush_in_progress = true;
            let bytes = std::mem::take(&mut st.buf);
            let end = st.next_lsn;
            drop(st);
            let forced = Instant::now();
            let io = self.write_and_sync(&bytes, true);
            let force_time = forced.elapsed();
            st = self.state.lock();
            st.flush_in_progress = false;
            if io.is_ok() {
                st.written_lsn = st.written_lsn.max(end);
                st.durable_lsn = st.durable_lsn.max(end);
                let before = st.commit_queue.len();
                st.commit_queue.retain(|&l| l >= end);
                let batch = (before - st.commit_queue.len()) as u64;
                self.meter.bump(Counter::WalFlushes);
                self.meter.add(Counter::GroupCommitBatch, batch);
                // Same condition as the WalFlushes meter so the two
                // reconcile exactly.
                if let Some(w) = self.wait.get() {
                    w.record(WaitEvent::WalFlush, force_time);
                }
                // This request's commit led the force: its trace shows a
                // wal_flush segment, a follower's shows group_commit_wait.
                trace::request::annotate("group_commit_role", "leader");
            }
            self.flushed.notify_all();
            if let Err(e) = io {
                break Err(e);
            }
        };
        drop(st);
        if let Some(started) = parked {
            if let Some(w) = self.wait.get() {
                w.record(WaitEvent::GroupCommitWait, started.elapsed());
            }
            trace::request::annotate("group_commit_role", "follower");
        }
        result
    }

    /// Write + optionally fsync everything buffered, holding the state
    /// lock (per-commit-fsync and explicit-flush path).
    fn force_locked(
        &self,
        st: &mut parking_lot::MutexGuard<'_, WalState>,
        sync: bool,
    ) -> DbResult<()> {
        let bytes = std::mem::take(&mut st.buf);
        let end = st.next_lsn;
        let forced = Instant::now();
        self.write_and_sync(&bytes, sync)?;
        st.written_lsn = st.written_lsn.max(end);
        if sync {
            st.durable_lsn = st.durable_lsn.max(end);
            self.meter.bump(Counter::WalFlushes);
            self.meter.add(Counter::GroupCommitBatch, 1);
            if let Some(w) = self.wait.get() {
                w.record(WaitEvent::WalFlush, forced.elapsed());
            }
        }
        Ok(())
    }

    fn write_and_sync(&self, bytes: &[u8], sync: bool) -> DbResult<()> {
        let mut f = self.file.lock();
        if !bytes.is_empty() {
            f.write_all(bytes).map_err(|e| DbError::storage(format!("wal write: {e}")))?;
        }
        if sync {
            f.sync_data().map_err(|e| DbError::storage(format!("wal fsync: {e}")))?;
        }
        Ok(())
    }

    /// Write buffered records to the file; fsync if `sync`. Used by the
    /// abort path (aborts need not be durable, but their records must not
    /// be lost in memory) and by explicit durability points.
    pub fn write_buffered(&self, sync: bool) -> DbResult<()> {
        let mut st = self.state.lock();
        self.force_locked(&mut st, sync)
    }

    /// Force everything appended so far to disk (an explicit durability
    /// point: end of bulk load, checkpoint, clean shutdown).
    pub fn flush(&self) -> DbResult<()> {
        self.write_buffered(true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::Value;

    fn tmp(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("rdbms-wal-{name}-{}", std::process::id()));
        p
    }

    fn sample_payloads() -> Vec<LogPayload> {
        vec![
            LogPayload::Begin,
            LogPayload::Insert {
                table: "T".into(),
                rid: Rid::new(3, 7),
                row: vec![Value::Int(42), Value::str("hello"), Value::Null],
            },
            LogPayload::Update {
                table: "T".into(),
                rid: Rid::new(3, 7),
                new_rid: Rid::new(4, 0),
                old: vec![Value::Int(42)],
                new: vec![Value::Int(43)],
            },
            LogPayload::Clr {
                undo_next: 99,
                action: UndoAction::Revert {
                    table: "T".into(),
                    rid: Rid::new(4, 0),
                    prev_rid: Rid::new(3, 7),
                    old: vec![Value::Int(42)],
                },
            },
            LogPayload::CheckpointBegin,
            LogPayload::CheckpointEnd { att: vec![(5, 100)], dpt: vec![(9, 64)] },
            LogPayload::Ddl { sql: "CREATE TABLE t (a INTEGER)".into() },
            LogPayload::Commit,
        ]
    }

    #[test]
    fn record_codec_round_trips() {
        for p in sample_payloads() {
            let body = encode_body(7, 123, &p);
            let (txn, prev, decoded) = decode_body(&body).unwrap();
            assert_eq!(txn, 7);
            assert_eq!(prev, 123);
            assert_eq!(decoded, p);
        }
    }

    #[test]
    fn append_write_scan_round_trips_and_truncation_keeps_prefix() {
        let path = tmp("scan");
        let cfg = WalConfig::new(&path).with_policy(CommitPolicy::NoFsync);
        let wal = Wal::create(&cfg, CostMeter::new()).unwrap();
        let ops: Vec<LogPayload> = sample_payloads()
            .into_iter()
            .filter(|p| !matches!(p, LogPayload::Begin | LogPayload::Commit))
            .collect();
        let lsns = wal.append_batch(9, &ops);
        assert_eq!(lsns.len(), ops.len());
        wal.append_batch(9, &[LogPayload::Commit]);
        wal.flush().unwrap();
        let bytes = std::fs::read(&path).unwrap();
        let (records, end) = scan_records(&bytes);
        assert_eq!(end as usize, bytes.len());
        // Implicit Begin + ops + Commit.
        assert_eq!(records.len(), ops.len() + 2);
        assert!(matches!(records[0].payload, LogPayload::Begin));
        assert!(matches!(records.last().unwrap().payload, LogPayload::Commit));
        // Backchain: each record's prev_lsn is the previous record's lsn.
        for w in records.windows(2) {
            assert_eq!(w[1].prev_lsn, w[0].lsn);
        }
        // Truncating anywhere keeps an intact prefix, never garbage.
        for cut in 0..bytes.len() {
            let (prefix, _) = scan_records(&bytes[..cut]);
            assert!(prefix.len() <= records.len());
            for (a, b) in prefix.iter().zip(&records) {
                assert_eq!(a.payload, b.payload);
            }
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupt_byte_ends_scan() {
        let path = tmp("corrupt");
        let cfg = WalConfig::new(&path).with_policy(CommitPolicy::NoFsync);
        let wal = Wal::create(&cfg, CostMeter::new()).unwrap();
        wal.append_batch(
            1,
            &[LogPayload::Insert { table: "T".into(), rid: Rid::new(0, 0), row: vec![] }],
        );
        wal.append_batch(1, &[LogPayload::Commit]);
        wal.flush().unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let n = bytes.len();
        bytes[n - 3] ^= 0xff; // flip a bit inside the last record body
        let (records, _) = scan_records(&bytes);
        assert_eq!(records.len(), 2, "begin + insert survive, commit is corrupt");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn commit_policies_meter_flushes() {
        for policy in [CommitPolicy::NoFsync, CommitPolicy::FsyncPerCommit] {
            let path = tmp(policy.as_str());
            let meter = CostMeter::new();
            let wal = Wal::create(&WalConfig::new(&path).with_policy(policy), Arc::clone(&meter))
                .unwrap();
            for txn in 1..=3u64 {
                let lsns = wal.append_batch(txn, &[LogPayload::Commit]);
                wal.commit(lsns[0]).unwrap();
            }
            let flushes = meter.get(Counter::WalFlushes);
            match policy {
                CommitPolicy::NoFsync => assert_eq!(flushes, 0),
                _ => assert_eq!(flushes, 3),
            }
            assert!(meter.get(Counter::WalBytes) > 0);
            std::fs::remove_file(&path).ok();
        }
    }

    /// B's force also covers A's records, so A's commit finds itself
    /// durable; it still counts once.
    #[test]
    fn a_commit_an_earlier_force_covered_counts_once() {
        for policy in [CommitPolicy::FsyncPerCommit, CommitPolicy::GroupCommit] {
            let path = tmp(&format!("covered-{}", policy.as_str()));
            let meter = CostMeter::new();
            let wal = Wal::create(&WalConfig::new(&path).with_policy(policy), Arc::clone(&meter))
                .unwrap();
            let a = wal.append_batch(1, &[LogPayload::Commit]);
            let b = wal.append_batch(2, &[LogPayload::Commit]);
            wal.commit(b[0]).unwrap();
            wal.commit(a[0]).unwrap();
            assert_eq!(meter.get(Counter::WalFlushes), 1, "{}", policy.as_str());
            assert_eq!(meter.get(Counter::GroupCommitBatch), 2, "{}", policy.as_str());
            std::fs::remove_file(&path).ok();
        }
    }

    #[test]
    fn group_commit_batches_concurrent_commits() {
        use std::thread;
        let path = tmp("group");
        let meter = CostMeter::new();
        let wal = Arc::new(
            Wal::create(
                &WalConfig::new(&path).with_policy(CommitPolicy::GroupCommit),
                Arc::clone(&meter),
            )
            .unwrap(),
        );
        let commits = 24u64;
        let mut handles = Vec::new();
        for t in 1..=commits {
            let wal = Arc::clone(&wal);
            handles.push(thread::spawn(move || {
                let lsns = wal.append_batch(
                    t,
                    &[
                        LogPayload::Insert {
                            table: "T".into(),
                            rid: Rid::new(t as u32, 0),
                            row: vec![Value::Int(t as i64)],
                        },
                        LogPayload::Commit,
                    ],
                );
                wal.commit(*lsns.last().unwrap()).unwrap();
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let flushes = meter.get(Counter::WalFlushes);
        assert!(flushes >= 1 && flushes <= commits, "flushes={flushes}");
        // Every commit is accounted to exactly one batch.
        assert_eq!(meter.get(Counter::GroupCommitBatch), commits);
        // And everything is durable: the file contains all records.
        let records = read_log(&path).unwrap();
        let commits_in_log =
            records.iter().filter(|r| matches!(r.payload, LogPayload::Commit)).count();
        assert_eq!(commits_in_log as u64, commits);
        std::fs::remove_file(&path).ok();
    }
}
