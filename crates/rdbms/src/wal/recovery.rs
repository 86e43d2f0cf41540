//! ARIES-style restart: analysis, redo, undo.
//!
//! The pager's "disk" is process memory, so a crash loses every page and
//! the stable store *is* the log (DESIGN.md §10). Restart therefore
//! rebuilds the database by repeating history from the start of the log —
//! the degenerate case of ARIES redo where every page's LSN is below every
//! record's LSN — while the analysis and undo passes are the textbook
//! algorithm:
//!
//! 1. **Analysis** starts from the last complete fuzzy checkpoint (its
//!    logged active-transaction table and dirty-page table), scans forward
//!    to the end of the intact log prefix, and classifies every
//!    transaction as a winner (Commit record present) or a loser.
//! 2. **Redo** replays *every* operation record in log order — winners and
//!    losers alike, including compensation records from partially-logged
//!    rollbacks — through the catalog, so indexes and constraints are
//!    maintained. RIDs in the log are do-time addresses; replay keeps a
//!    `logged rid -> actual rid` remap because physical placement can
//!    differ when history is repeated into a fresh heap. The heap reuses
//!    the rid of a deleted row, so one logged rid names different rows
//!    over time: a record that puts a row somewhere (insert, the new side
//!    of an update, a compensating re-insert or revert) sets the entry
//!    for the rid it names, and a record that takes a row away removes it.
//! 3. **Undo** rolls back each loser from its last record, skipping
//!    operations already compensated (their CLRs are in the log), writing
//!    a CLR per undone operation and a final Abort — so recovery itself
//!    crash-recovers: a crash during undo never undoes twice.
//!
//! After the three passes the log file is truncated to its intact prefix,
//! the new compensation records are forced, and the returned [`Database`]
//! continues appending to the same log.

use super::{
    scan_records, LogPayload, LogRecord, Lsn, UndoAction, Wal, MAGIC, NULL_LSN, SYSTEM_TXN,
};
use crate::db::{Database, DbConfig};
use crate::error::{DbError, DbResult};
use crate::storage::{PageId, Rid};
use crate::txn::TxnId;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::Arc;

/// What restart found and did, for operators and tests.
#[derive(Debug, Clone)]
pub struct RecoveryReport {
    /// Intact records found before the torn tail.
    pub records_scanned: usize,
    /// Byte length of the intact log prefix (the file is truncated here).
    pub valid_bytes: u64,
    /// LSN of the checkpoint analysis started from, if any completed.
    pub checkpoint_lsn: Option<Lsn>,
    /// Page id -> recovery LSN restored from the checkpoint's dirty-page
    /// table and maintained through analysis (the classical redo bound;
    /// with a volatile page store redo replays the whole prefix anyway).
    pub dirty_pages: Vec<(PageId, Lsn)>,
    /// Transactions whose Commit record is in the prefix.
    pub committed: Vec<TxnId>,
    /// Transactions rolled back by the undo pass.
    pub losers: Vec<TxnId>,
    /// Operation records replayed by the redo pass.
    pub redo_applied: usize,
    /// Operations undone (CLRs written) by the undo pass.
    pub undo_applied: usize,
}

/// Restart a database from its write-ahead log. `config.wal` must be set;
/// the log file is read, the intact prefix replayed, losers rolled back,
/// and the returned database keeps logging to the same file.
pub fn recover(config: DbConfig) -> DbResult<(Database, RecoveryReport)> {
    let wal_cfg = config
        .wal
        .clone()
        .ok_or_else(|| DbError::storage("recover() needs DbConfig.wal to locate the log"))?;
    let bytes = std::fs::read(&wal_cfg.path)
        .map_err(|e| DbError::storage(format!("read wal {}: {e}", wal_cfg.path.display())))?;
    let (records, valid_bytes) = scan_records(&bytes);

    // ---- Analysis ------------------------------------------------------
    // Find the last *complete* checkpoint.
    let mut checkpoint = None;
    for (i, r) in records.iter().enumerate() {
        if matches!(r.payload, LogPayload::CheckpointEnd { .. }) {
            checkpoint = Some(i);
        }
    }
    let mut att: HashMap<TxnId, Lsn> = HashMap::new();
    let mut dpt: BTreeMap<PageId, Lsn> = BTreeMap::new();
    let scan_from = match checkpoint {
        Some(i) => {
            if let LogPayload::CheckpointEnd { att: catt, dpt: cdpt } = &records[i].payload {
                att.extend(catt.iter().copied());
                dpt.extend(cdpt.iter().copied());
            }
            i + 1
        }
        None => 0,
    };
    let mut committed = BTreeSet::new();
    for r in &records {
        if r.txn != SYSTEM_TXN && matches!(r.payload, LogPayload::Commit) {
            committed.insert(r.txn);
        }
    }
    for r in &records[scan_from..] {
        if r.txn == SYSTEM_TXN {
            continue;
        }
        match &r.payload {
            LogPayload::Commit | LogPayload::Abort => {
                att.remove(&r.txn);
            }
            LogPayload::CheckpointBegin | LogPayload::CheckpointEnd { .. } => {}
            LogPayload::Insert { rid, .. } | LogPayload::Delete { rid, .. } => {
                att.insert(r.txn, r.lsn);
                dpt.entry(rid.page).or_insert(r.lsn);
            }
            LogPayload::Update { rid, new_rid, .. } => {
                att.insert(r.txn, r.lsn);
                dpt.entry(rid.page).or_insert(r.lsn);
                dpt.entry(new_rid.page).or_insert(r.lsn);
            }
            _ => {
                att.insert(r.txn, r.lsn);
            }
        }
    }
    let mut losers: Vec<TxnId> = att.keys().copied().collect();
    losers.sort_unstable();

    // ---- Redo (repeat history into a fresh store) ----------------------
    let mut db = Database::fresh_for_recovery(&config);
    let mut remap: HashMap<(String, Rid), Rid> = HashMap::new();
    let mut redo_applied = 0usize;
    for r in &records {
        if apply_forward(&db, r, &mut remap)? {
            redo_applied += 1;
        }
    }

    // ---- Undo (roll back losers, logging CLRs) -------------------------
    // A crash inside the 8-byte header leaves no usable magic; recreate the
    // file instead of appending after a mangled header.
    let wal = if valid_bytes <= MAGIC.len() as u64 {
        Arc::new(Wal::create(&wal_cfg, Arc::clone(db.meter()))?)
    } else {
        Arc::new(Wal::reopen(&wal_cfg, Arc::clone(db.meter()), valid_bytes)?)
    };
    let seed: Vec<(TxnId, Lsn)> = att.iter().map(|(&t, &l)| (t, l)).collect();
    wal.seed_att(&seed);
    let mut undo_applied = 0usize;
    for &txn in &losers {
        // This transaction's operation records, in log order, and how many
        // of them were already compensated before the crash. Rollback is
        // strict LIFO, so `clrs` CLRs always cover the *last* `clrs` ops.
        let ops: Vec<&LogRecord> = records
            .iter()
            .filter(|r| {
                r.txn == txn
                    && matches!(
                        r.payload,
                        LogPayload::Insert { .. }
                            | LogPayload::Delete { .. }
                            | LogPayload::Update { .. }
                    )
            })
            .collect();
        let clrs = records
            .iter()
            .filter(|r| r.txn == txn && matches!(r.payload, LogPayload::Clr { .. }))
            .count();
        let to_undo = &ops[..ops.len().saturating_sub(clrs)];
        let mut batch = Vec::with_capacity(to_undo.len() + 1);
        // Rows this rollback has put somewhere new: the loser's earlier
        // records still name them by their do-time rid.
        let mut moved = HashMap::new();
        for (i, r) in to_undo.iter().enumerate().rev() {
            let undo_next = if i == 0 { NULL_LSN } else { to_undo[i - 1].lsn };
            let action = undo_one(&db, r, &mut remap, &mut moved)?;
            batch.push(LogPayload::Clr { undo_next, action });
            undo_applied += 1;
        }
        batch.push(LogPayload::Abort);
        wal.append_batch(txn, &batch);
    }
    wal.flush()?;

    let max_txn = records.iter().map(|r| r.txn).max().unwrap_or(0);
    db.finish_recovery(Arc::clone(&wal), max_txn + 1);

    let report = RecoveryReport {
        records_scanned: records.len(),
        valid_bytes,
        checkpoint_lsn: checkpoint.map(|i| records[i].lsn),
        dirty_pages: dpt.into_iter().collect(),
        committed: committed.into_iter().collect(),
        losers,
        redo_applied,
        undo_applied,
    };
    Ok((db, report))
}

/// Replay one record forward. Returns whether an operation was applied.
fn apply_forward(
    db: &Database,
    r: &LogRecord,
    remap: &mut HashMap<(String, Rid), Rid>,
) -> DbResult<bool> {
    let catalog = db.catalog();
    match &r.payload {
        LogPayload::Ddl { sql } => {
            db.execute(sql)?;
            Ok(true)
        }
        LogPayload::Insert { table, rid, row } => {
            let t = catalog.table(table)?;
            let actual = catalog.insert_row(&t, row)?;
            db.pager().stamp_lsn(actual.page, r.lsn);
            remap.insert((table.clone(), *rid), actual);
            Ok(true)
        }
        LogPayload::Delete { table, rid, .. } => {
            let t = catalog.table(table)?;
            let actual = remap.remove(&(table.clone(), *rid)).unwrap_or(*rid);
            catalog.delete_row(&t, actual)?;
            db.pager().stamp_lsn(actual.page, r.lsn);
            Ok(true)
        }
        LogPayload::Update { table, rid, new_rid, new, .. } => {
            let t = catalog.table(table)?;
            let cur = remap.remove(&(table.clone(), *rid)).unwrap_or(*rid);
            let actual = catalog.update_row(&t, cur, new)?;
            db.pager().stamp_lsn(actual.page, r.lsn);
            remap.insert((table.clone(), *new_rid), actual);
            Ok(true)
        }
        LogPayload::Clr { action, .. } => {
            match action {
                UndoAction::Delete { table, rid } => {
                    let t = catalog.table(table)?;
                    let actual = remap.remove(&(table.clone(), *rid)).unwrap_or(*rid);
                    catalog.delete_row(&t, actual)?;
                    db.pager().stamp_lsn(actual.page, r.lsn);
                }
                UndoAction::Insert { table, rid, row } => {
                    let t = catalog.table(table)?;
                    let actual = catalog.insert_row(&t, row)?;
                    db.pager().stamp_lsn(actual.page, r.lsn);
                    remap.insert((table.clone(), *rid), actual);
                }
                UndoAction::Revert { table, rid, prev_rid, old } => {
                    let t = catalog.table(table)?;
                    let cur = remap.remove(&(table.clone(), *rid)).unwrap_or(*rid);
                    let actual = catalog.update_row(&t, cur, old)?;
                    db.pager().stamp_lsn(actual.page, r.lsn);
                    remap.insert((table.clone(), *prev_rid), actual);
                }
            }
            Ok(true)
        }
        _ => Ok(false),
    }
}

/// Undo one operation record against the recovered store, returning the
/// compensation action that describes what was done. As in a live rollback
/// ([`crate::txn`]), the action names a row it takes away by the rid the
/// log last put it at, and a row it puts back by the rid it now has.
fn undo_one(
    db: &Database,
    r: &LogRecord,
    remap: &mut HashMap<(String, Rid), Rid>,
    moved: &mut HashMap<(String, Rid), Rid>,
) -> DbResult<UndoAction> {
    let catalog = db.catalog();
    // (rid the log knows the row by, rid it has in this store)
    let mut find = |table: &String, rid: Rid| {
        let named = moved.remove(&(table.clone(), rid)).unwrap_or(rid);
        (named, remap.remove(&(table.clone(), named)).unwrap_or(named))
    };
    match &r.payload {
        LogPayload::Insert { table, rid, .. } => {
            let (named, actual) = find(table, *rid);
            catalog.delete_row(&*catalog.table(table)?, actual)?;
            Ok(UndoAction::Delete { table: table.clone(), rid: named })
        }
        LogPayload::Delete { table, rid, row } => {
            let actual = catalog.insert_row(&*catalog.table(table)?, row)?;
            moved.insert((table.clone(), *rid), actual);
            Ok(UndoAction::Insert { table: table.clone(), rid: actual, row: row.clone() })
        }
        LogPayload::Update { table, rid, new_rid, old, .. } => {
            let (named, cur) = find(table, *new_rid);
            let actual = catalog.update_row(&*catalog.table(table)?, cur, old)?;
            moved.insert((table.clone(), *rid), actual);
            Ok(UndoAction::Revert {
                table: table.clone(),
                rid: named,
                prev_rid: actual,
                old: old.clone(),
            })
        }
        other => Err(DbError::storage(format!("cannot undo log record {other:?}"))),
    }
}
