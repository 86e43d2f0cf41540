//! Bulk load: rows go to their heaps, and to the log, one by one in the
//! order they come — placed exactly as [`Database::insert_row`] places
//! them, and logged as system-transaction records (committed if present,
//! no Begin/Commit bracket) — while their index entries wait; when the load
//! ends each index is built once, by [`BTree::insert_batch`] over the
//! entries in arrival order, which leaves the tree inserting them one by
//! one would (DESIGN.md §17).
//!
//! Until then the rows are in the heaps but not in the indexes: a load
//! wants its tables to itself. Index probes do not see its rows yet, and a
//! delete or update of one of them before the load ends would leave its
//! index entry dangling.
//!
//! [`BTree::insert_batch`]: crate::index::BTree::insert_batch

use crate::catalog::{Index, Table};
use crate::db::Database;
use crate::error::{DbError, DbResult};
use crate::index::{check_key, Batch};
use crate::schema::{coerce_row, Row};
use crate::storage::Rid;
use crate::types::Value;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashSet;
use std::hash::Hasher;
use std::sync::Arc;
use trace::meter::Counter;

/// A bulk load in progress (see [`Database::bulk_load`]).
pub struct BulkLoad<'a> {
    db: &'a Database,
    /// Every table a row went to, in the order of their first rows.
    tables: Vec<TableLoad>,
}

/// The rows a load put in one table, as index entries waiting for their
/// trees.
struct TableLoad {
    table: Arc<Table>,
    /// One per index of the table, in its order.
    indexes: Vec<IndexLoad>,
}

struct IndexLoad {
    index: Arc<Index>,
    entries: Batch,
    /// For a unique index, the hashes of the keys among `entries`, which
    /// its tree lacks so far: the keys are not held twice, and a hash seen
    /// before sends the check to `entries`.
    hashes: HashSet<u64>,
}

impl IndexLoad {
    /// Is `key`, whose hash is `hash`, among this unique index's entries?
    fn holds(&self, key: &[u8], hash: u64) -> bool {
        self.hashes.contains(&hash) && self.entries.iter().any(|(k, _)| k == key)
    }
}

fn hash_of(key: &[u8]) -> u64 {
    let mut h = DefaultHasher::new();
    h.write(key);
    h.finish()
}

impl Database {
    /// Load rows in bulk: `load` inserts them through the [`BulkLoad`] it
    /// is handed, into any tables, in any order. When it returns — with an
    /// error too, so that every row it stored is indexed — each index of
    /// each table it touched is built once from the entries of its rows.
    pub fn bulk_load<T>(&self, load: impl FnOnce(&mut BulkLoad<'_>) -> DbResult<T>) -> DbResult<T> {
        let mut bulk = BulkLoad { db: self, tables: Vec::new() };
        let out = load(&mut bulk);
        let built = bulk.tables.into_iter().try_for_each(TableLoad::build);
        let out = out?;
        built?;
        Ok(out)
    }

    /// [`Database::bulk_load`] of `rows` into one table; returns how many
    /// it loaded. Rows may be streamed: none is held after it is stored.
    pub fn load_rows<R: AsRef<[Value]>>(
        &self,
        table: &str,
        rows: impl IntoIterator<Item = R>,
    ) -> DbResult<u64> {
        self.bulk_load(|load| {
            let mut n = 0;
            for row in rows {
                load.insert(table, row.as_ref())?;
                n += 1;
            }
            Ok(n)
        })
    }
}

impl BulkLoad<'_> {
    /// Store one row of `table`: its unique keys are checked against the
    /// table's indexes and the rows this load stored before it, then it
    /// goes to the heap and the log, and its index entries wait.
    pub fn insert(&mut self, table: &str, row: &[Value]) -> DbResult<()> {
        let table = self.db.catalog().table(table)?;
        let at = match self.tables.iter().position(|l| Arc::ptr_eq(&l.table, &table)) {
            Some(at) => at,
            None => {
                self.tables.push(TableLoad { table, indexes: Vec::new() });
                self.tables.len() - 1
            }
        };
        let load = &mut self.tables[at];
        let (rid, row) = load.insert(row)?;
        self.db.log_loaded(&load.table, rid, row);
        Ok(())
    }
}

impl TableLoad {
    fn insert(&mut self, row: &[Value]) -> DbResult<(Rid, Row)> {
        let table = &self.table;
        let row = coerce_row(&table.schema, row)?;
        // Held while the row is stored, as `Catalog::insert_stored` holds
        // it: an index made meanwhile backfills from the heap either
        // before the row is there or after its entries are taken.
        let indexes = table.indexes.read();
        let same = |l: &IndexLoad, i: &Arc<Index>| Arc::ptr_eq(&l.index, i);
        if self.indexes.len() != indexes.len()
            || !self.indexes.iter().zip(indexes.iter()).all(|(l, i)| same(l, i))
        {
            let mut was = std::mem::take(&mut self.indexes);
            self.indexes = indexes
                .iter()
                .map(|i| match was.iter().position(|l| same(l, i)) {
                    Some(at) => was.swap_remove(at),
                    None => IndexLoad {
                        index: Arc::clone(i),
                        entries: Batch::default(),
                        hashes: HashSet::new(),
                    },
                })
                .collect();
        }
        let keys: Vec<(Vec<u8>, u64)> = self
            .indexes
            .iter()
            .map(|l| {
                let key = l.index.key_for(&row);
                let hash = if l.index.unique { hash_of(&key) } else { 0 };
                (key, hash)
            })
            .collect();
        for (l, (key, hash)) in self.indexes.iter().zip(&keys) {
            check_key(key, l.index.unique)?;
            if l.index.unique
                && (l.holds(key, *hash) || !l.index.tree.lock().search_exact(key)?.is_empty())
            {
                return Err(DbError::constraint(format!(
                    "unique index {} violated on {}",
                    l.index.name, table.name
                )));
            }
        }
        let rid = table.heap.insert(&row)?;
        for (l, (key, hash)) in self.indexes.iter_mut().zip(keys) {
            if l.index.unique {
                l.hashes.insert(hash);
            }
            l.entries.push(&key, rid);
        }
        table.heap.pager().meter().bump(Counter::DbTuples);
        Ok((rid, row))
    }

    fn build(self) -> DbResult<()> {
        for l in self.indexes {
            l.index.tree.lock().insert_batch(&l.entries)?;
        }
        Ok(())
    }
}
