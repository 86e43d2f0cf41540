//! The system catalog: tables, indexes, views, and optimizer statistics.

use crate::error::{DbError, DbResult};
use crate::index::{check_key, BTree, Batch};
use crate::schema::{Column, Row, Schema};
use crate::sql::ast::SelectStmt;
use crate::storage::codec::encode_key;
use crate::storage::{HeapFile, Pager, Rid};
use crate::types::Value;
use parking_lot::{Mutex, RwLock};
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Per-column statistics gathered by ANALYZE.
#[derive(Debug, Clone, Default)]
pub struct ColumnStats {
    pub n_distinct: u64,
    pub min: Option<Value>,
    pub max: Option<Value>,
    pub null_count: u64,
}

/// Per-table statistics.
#[derive(Debug, Clone, Default)]
pub struct TableStats {
    pub row_count: u64,
    pub pages: u64,
    pub columns: Vec<ColumnStats>,
    /// False until the first ANALYZE; the optimizer falls back to
    /// defaults when false.
    pub analyzed: bool,
}

/// A secondary (or primary-key) B+-tree index.
pub struct Index {
    pub name: String,
    pub table: String,
    /// Column ordinals in the base table, in key order.
    pub columns: Vec<usize>,
    pub unique: bool,
    pub tree: Mutex<BTree>,
}

impl Index {
    /// Encode the key for `row` of the base table.
    pub fn key_for(&self, row: &[Value]) -> Vec<u8> {
        let vals: Vec<Value> = self.columns.iter().map(|&i| row[i].clone()).collect();
        encode_key(&vals)
    }

    pub fn entry_bytes(&self) -> u64 {
        self.tree.lock().entry_bytes()
    }

    pub fn node_pages(&self) -> u64 {
        self.tree.lock().node_pages()
    }

    pub fn height(&self) -> u32 {
        self.tree.lock().height()
    }
}

/// A base table.
pub struct Table {
    pub name: String,
    pub schema: Schema,
    pub heap: HeapFile,
    /// Ordinals of the primary-key columns (may be empty).
    pub primary_key: Vec<usize>,
    pub indexes: RwLock<Vec<Arc<Index>>>,
    pub stats: RwLock<TableStats>,
    /// Held by a statement, or a rollback step, that deletes or updates
    /// rows of this table, from before it reads the rids it will act on
    /// until it has acted. While it is held no row of the table dies,
    /// moves or changes, so no slot changes hands (an insert only ever
    /// takes a slot whose row is gone) and a rid read under it still names
    /// the row it was read for. Inserts and readers do not take it.
    pub changes: Mutex<()>,
}

impl Table {
    /// Current row count: statistics if analyzed, else the live heap count.
    pub fn row_count(&self) -> u64 {
        self.heap.live_rows()
    }

    pub fn find_index(&self, name: &str) -> Option<Arc<Index>> {
        self.indexes.read().iter().find(|i| i.name == name).cloned()
    }
}

/// The catalog.
pub struct Catalog {
    pager: Arc<Pager>,
    tables: RwLock<HashMap<String, Arc<Table>>>,
    views: RwLock<HashMap<String, Arc<SelectStmt>>>,
    /// Monotonic DDL version: bumped by every schema change (CREATE/DROP
    /// TABLE/INDEX/VIEW and ANALYZE). Plan caches record the version they
    /// planned under and treat any entry whose referenced objects changed
    /// since as stale (see [`crate::plancache`]).
    ddl_version: AtomicU64,
    /// Per-object DDL versions, keyed by upper-cased table/view name: the
    /// [`Catalog::version`] at which the object (or one of its indexes, or
    /// its statistics) last changed. Objects never touched by DDL since the
    /// catalog was created are absent (version 0).
    object_versions: RwLock<HashMap<String, u64>>,
    /// Virtual `M$` monitoring views (see [`crate::monitor`]). Kept apart
    /// from base tables and SQL views: they take no locks, are never
    /// plan-cache dependencies, and DDL cannot touch them.
    monitor_views: RwLock<HashMap<String, Arc<crate::monitor::MonitorView>>>,
}

impl Catalog {
    pub fn new(pager: Arc<Pager>) -> Self {
        Catalog {
            pager,
            tables: RwLock::new(HashMap::new()),
            views: RwLock::new(HashMap::new()),
            ddl_version: AtomicU64::new(0),
            object_versions: RwLock::new(HashMap::new()),
            monitor_views: RwLock::new(HashMap::new()),
        }
    }

    /// Register (or replace) a virtual monitoring view. The name must be
    /// in the `M$` namespace.
    pub fn register_monitor_view(&self, view: Arc<crate::monitor::MonitorView>) {
        debug_assert!(crate::monitor::is_monitor_name(view.name()));
        self.monitor_views.write().insert(view.name().to_string(), view);
    }

    pub fn monitor_view(&self, name: &str) -> Option<Arc<crate::monitor::MonitorView>> {
        self.monitor_views.read().get(&name.to_ascii_uppercase()).cloned()
    }

    pub fn pager(&self) -> &Arc<Pager> {
        &self.pager
    }

    /// Current global DDL version (0 for a catalog no DDL ever touched).
    pub fn version(&self) -> u64 {
        self.ddl_version.load(Ordering::Acquire)
    }

    /// The global version at which `name` (a table or view, upper-cased or
    /// not) last changed; 0 if never.
    pub fn object_version(&self, name: &str) -> u64 {
        self.object_versions.read().get(&name.to_ascii_uppercase()).copied().unwrap_or(0)
    }

    /// Record a schema change to `name`: bump the global DDL version and
    /// stamp the object with it.
    fn bump_version(&self, name: &str) {
        let v = self.ddl_version.fetch_add(1, Ordering::AcqRel) + 1;
        self.object_versions.write().insert(name.to_ascii_uppercase(), v);
    }

    pub fn create_table(
        &self,
        name: &str,
        columns: Vec<Column>,
        primary_key_names: &[String],
    ) -> DbResult<Arc<Table>> {
        let name = name.to_ascii_uppercase();
        if crate::monitor::is_monitor_name(&name) {
            return Err(DbError::catalog(format!("'{name}' is in the reserved M$ namespace")));
        }
        if self.tables.read().contains_key(&name) || self.views.read().contains_key(&name) {
            return Err(DbError::catalog(format!("table or view '{name}' already exists")));
        }
        let schema = Schema::qualified(columns, &name);
        let mut primary_key = Vec::new();
        for pk in primary_key_names {
            primary_key.push(schema.resolve(None, pk)?);
        }
        let n_cols = schema.len();
        let table = Arc::new(Table {
            name: name.clone(),
            schema,
            heap: HeapFile::new(Arc::clone(&self.pager)),
            primary_key: primary_key.clone(),
            indexes: RwLock::new(Vec::new()),
            stats: RwLock::new(TableStats {
                columns: vec![ColumnStats::default(); n_cols],
                ..TableStats::default()
            }),
            changes: Mutex::new(()),
        });
        self.tables.write().insert(name.clone(), Arc::clone(&table));
        self.bump_version(&name);
        // Primary key implies a unique index.
        if !primary_key.is_empty() {
            self.create_index_ordinals(&format!("{name}_PKEY"), &name, primary_key, true)?;
        }
        Ok(table)
    }

    pub fn create_index(
        &self,
        index_name: &str,
        table_name: &str,
        column_names: &[String],
        unique: bool,
    ) -> DbResult<Arc<Index>> {
        let table = self.table(table_name)?;
        let mut ordinals = Vec::new();
        for c in column_names {
            ordinals.push(table.schema.resolve(None, c)?);
        }
        self.create_index_ordinals(index_name, &table.name, ordinals, unique)
    }

    fn create_index_ordinals(
        &self,
        index_name: &str,
        table_name: &str,
        columns: Vec<usize>,
        unique: bool,
    ) -> DbResult<Arc<Index>> {
        let index_name = index_name.to_ascii_uppercase();
        let table = self.table(table_name)?;
        // Held from before the backfill reads the heap until the index is
        // in the list: inserts and deletes hold the read side while they
        // change the heap and the indexes, so none falls in between to be
        // missed by the new index or to leave it an entry that dangles.
        let mut indexes = table.indexes.write();
        if indexes.iter().any(|i| i.name == index_name) {
            return Err(DbError::catalog(format!("index '{index_name}' already exists")));
        }
        let mut entries = Batch::default();
        for item in table.heap.scan() {
            let (rid, row) = item?;
            let vals: Vec<Value> = columns.iter().map(|&i| row[i].clone()).collect();
            entries.push(&encode_key(&vals), rid);
        }
        // Built in heap order; a duplicate refuses it before it has a page.
        let tree = BTree::with_entries(Arc::clone(&self.pager), unique, &entries)?;
        let index = Arc::new(Index {
            name: index_name,
            table: table.name.clone(),
            columns,
            unique,
            tree: Mutex::new(tree),
        });
        indexes.push(Arc::clone(&index));
        drop(indexes);
        self.bump_version(&table.name);
        Ok(index)
    }

    pub fn drop_index(&self, name: &str) -> DbResult<()> {
        let name = name.to_ascii_uppercase();
        for table in self.tables.read().values() {
            let mut idxs = table.indexes.write();
            if let Some(pos) = idxs.iter().position(|i| i.name == name) {
                idxs.remove(pos);
                drop(idxs);
                self.bump_version(&table.name);
                return Ok(());
            }
        }
        Err(DbError::catalog(format!("no index '{name}'")))
    }

    pub fn drop_table(&self, name: &str) -> DbResult<()> {
        let name = name.to_ascii_uppercase();
        match self.tables.write().remove(&name) {
            Some(_) => {
                self.bump_version(&name);
                Ok(())
            }
            None => Err(DbError::catalog(format!("no table '{name}'"))),
        }
    }

    pub fn create_view(&self, name: &str, query: SelectStmt) -> DbResult<()> {
        let name = name.to_ascii_uppercase();
        if crate::monitor::is_monitor_name(&name) {
            return Err(DbError::catalog(format!("'{name}' is in the reserved M$ namespace")));
        }
        if self.tables.read().contains_key(&name) || self.views.read().contains_key(&name) {
            return Err(DbError::catalog(format!("table or view '{name}' already exists")));
        }
        self.views.write().insert(name.clone(), Arc::new(query));
        self.bump_version(&name);
        Ok(())
    }

    pub fn drop_view(&self, name: &str) -> DbResult<()> {
        match self.views.write().remove(&name.to_ascii_uppercase()) {
            Some(_) => {
                self.bump_version(name);
                Ok(())
            }
            None => Err(DbError::catalog(format!("no view '{name}'"))),
        }
    }

    pub fn table(&self, name: &str) -> DbResult<Arc<Table>> {
        self.tables
            .read()
            .get(&name.to_ascii_uppercase())
            .cloned()
            .ok_or_else(|| DbError::catalog(format!("no table '{name}'")))
    }

    pub fn try_table(&self, name: &str) -> Option<Arc<Table>> {
        self.tables.read().get(&name.to_ascii_uppercase()).cloned()
    }

    pub fn view(&self, name: &str) -> Option<Arc<SelectStmt>> {
        self.views.read().get(&name.to_ascii_uppercase()).cloned()
    }

    pub fn table_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.tables.read().keys().cloned().collect();
        names.sort();
        names
    }

    /// Insert a row through the catalog, maintaining all indexes and the
    /// primary-key constraint. Returns the RID.
    pub fn insert_row(&self, table: &Table, row: &[Value]) -> DbResult<Rid> {
        self.insert_stored(table, row).map(|(rid, _)| rid)
    }

    /// [`Catalog::insert_row`], returning beside the RID the row as it was
    /// stored (the log's after-image).
    pub fn insert_stored(&self, table: &Table, row: &[Value]) -> DbResult<(Rid, Row)> {
        let row = crate::schema::coerce_row(&table.schema, row)?;
        let indexes = table.indexes.read();
        let keys: Vec<Vec<u8>> = indexes.iter().map(|i| i.key_for(&row)).collect();
        // Check every key first so a refusal leaves no trace.
        for (index, key) in indexes.iter().zip(&keys) {
            check_key(key, index.unique)?;
            if index.unique && !index.tree.lock().search_exact(key)?.is_empty() {
                return Err(DbError::constraint(format!(
                    "unique index {} violated on {}",
                    index.name, table.name
                )));
            }
        }
        let rid = table.heap.insert(&row)?;
        for (index, key) in indexes.iter().zip(&keys) {
            index.tree.lock().insert(key, rid)?;
        }
        self.pager.meter().bump(trace::meter::Counter::DbTuples);
        Ok((rid, row))
    }

    /// Delete a row by RID, maintaining indexes. The row is fetched first
    /// to compute its index keys, and returned (the log's before-image).
    pub fn delete_row(&self, table: &Table, rid: Rid) -> DbResult<Row> {
        let row = table
            .heap
            .get(rid, crate::storage::AccessPattern::Random)?
            .ok_or_else(|| DbError::storage(format!("no row at {rid:?}")))?;
        for index in table.indexes.read().iter() {
            let key = index.key_for(&row);
            index.tree.lock().delete(&key, rid)?;
        }
        self.pager.meter().bump(trace::meter::Counter::DbTuples);
        table.heap.delete(rid)?;
        Ok(row)
    }

    /// Update a row by RID, maintaining indexes.
    pub fn update_row(&self, table: &Table, rid: Rid, new_row: &[Value]) -> DbResult<Rid> {
        self.update_stored(table, rid, new_row).map(|(rid, _)| rid)
    }

    /// [`Catalog::update_row`], returning beside the new RID the row as it
    /// was stored (the log's after-image).
    pub fn update_stored(
        &self,
        table: &Table,
        rid: Rid,
        new_row: &[Value],
    ) -> DbResult<(Rid, Row)> {
        let new_row = crate::schema::coerce_row(&table.schema, new_row)?;
        let old_row = table
            .heap
            .get(rid, crate::storage::AccessPattern::Random)?
            .ok_or_else(|| DbError::storage(format!("no row at {rid:?}")))?;
        let indexes = table.indexes.read();
        let new_keys: Vec<Vec<u8>> = indexes.iter().map(|i| i.key_for(&new_row)).collect();
        let old_keys: Vec<Vec<u8>> = indexes.iter().map(|i| i.key_for(&old_row)).collect();
        // Check every key first so a refusal leaves no trace. A unique key
        // the update keeps is its own row's, so only a changed one is
        // probed.
        for ((index, key), old) in indexes.iter().zip(&new_keys).zip(&old_keys) {
            check_key(key, index.unique)?;
            if index.unique && key != old && !index.tree.lock().search_exact(key)?.is_empty() {
                return Err(DbError::constraint(format!(
                    "unique index {} violated on {}",
                    index.name, table.name
                )));
            }
        }
        for (index, key) in indexes.iter().zip(&old_keys) {
            index.tree.lock().delete(key, rid)?;
        }
        let new_rid = table.heap.update(rid, &new_row)?;
        for (index, key) in indexes.iter().zip(&new_keys) {
            index.tree.lock().insert(key, new_rid)?;
        }
        self.pager.meter().bump(trace::meter::Counter::DbTuples);
        Ok((new_rid, new_row))
    }

    /// Recompute statistics for one table (full pass).
    pub fn analyze_table(&self, table: &Table) -> DbResult<()> {
        let n = table.schema.len();
        let mut distinct: Vec<HashSet<u64>> = vec![HashSet::new(); n];
        let mut mins: Vec<Option<Value>> = vec![None; n];
        let mut maxs: Vec<Option<Value>> = vec![None; n];
        let mut nulls = vec![0u64; n];
        let mut rows = 0u64;
        for item in table.heap.scan() {
            let (_, row) = item?;
            rows += 1;
            for (i, v) in row.iter().enumerate() {
                if v.is_null() {
                    nulls[i] += 1;
                    continue;
                }
                // Hash for approximate-but-exact-at-our-scale NDV.
                use std::hash::{Hash, Hasher};
                let mut h = std::collections::hash_map::DefaultHasher::new();
                v.hash(&mut h);
                distinct[i].insert(h.finish());
                let better_min = match &mins[i] {
                    None => true,
                    Some(m) => v.total_cmp(m).is_lt(),
                };
                if better_min {
                    mins[i] = Some(v.clone());
                }
                let better_max = match &maxs[i] {
                    None => true,
                    Some(m) => v.total_cmp(m).is_gt(),
                };
                if better_max {
                    maxs[i] = Some(v.clone());
                }
            }
        }
        let mut stats = table.stats.write();
        stats.row_count = rows;
        stats.pages = table.heap.page_count() as u64;
        stats.analyzed = true;
        stats.columns = (0..n)
            .map(|i| ColumnStats {
                n_distinct: distinct[i].len() as u64,
                min: mins[i].clone(),
                max: maxs[i].clone(),
                null_count: nulls[i],
            })
            .collect();
        drop(stats);
        // New statistics change what the planner would choose: cached plans
        // for this table are stale (for quality, not correctness).
        self.bump_version(&table.name);
        Ok(())
    }

    /// Data + index sizes in bytes for one table (Table 2 accounting).
    pub fn table_sizes(&self, table: &Table) -> (u64, u64) {
        let data = table.heap.live_bytes();
        let index: u64 = table.indexes.read().iter().map(|i| i.entry_bytes()).sum();
        (data, index)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::PagerConfig;
    use crate::types::DataType;
    use trace::meter::CostMeter;

    fn catalog() -> Catalog {
        Catalog::new(Pager::new(PagerConfig::default(), CostMeter::new()))
    }

    fn make_items(cat: &Catalog) -> Arc<Table> {
        cat.create_table(
            "items",
            vec![
                Column::new("id", DataType::Int).not_null(),
                Column::new("name", DataType::VarChar(30)),
                Column::new("qty", DataType::Int),
            ],
            &["ID".to_string()],
        )
        .unwrap()
    }

    #[test]
    fn create_table_with_pkey_index() {
        let cat = catalog();
        let t = make_items(&cat);
        assert_eq!(t.indexes.read().len(), 1);
        assert_eq!(t.indexes.read()[0].name, "ITEMS_PKEY");
        assert!(t.indexes.read()[0].unique);
        assert!(cat.create_table("ITEMS", vec![], &[]).is_err(), "duplicate rejected");
    }

    #[test]
    fn insert_maintains_indexes_and_pkey() {
        let cat = catalog();
        let t = make_items(&cat);
        cat.insert_row(&t, &[Value::Int(1), Value::str("a"), Value::Int(10)]).unwrap();
        cat.insert_row(&t, &[Value::Int(2), Value::str("b"), Value::Int(20)]).unwrap();
        let dup = cat.insert_row(&t, &[Value::Int(1), Value::str("c"), Value::Int(30)]);
        assert!(matches!(dup, Err(DbError::Constraint(_))));
        assert_eq!(t.heap.live_rows(), 2, "failed insert left no row");
        let idx = t.find_index("ITEMS_PKEY").unwrap();
        let rids = idx.tree.lock().search_exact(&encode_key(&[Value::Int(2)])).unwrap();
        assert_eq!(rids.len(), 1);
    }

    #[test]
    fn secondary_index_backfills() {
        let cat = catalog();
        let t = make_items(&cat);
        for i in 0..50 {
            cat.insert_row(&t, &[Value::Int(i), Value::str("n"), Value::Int(i % 5)]).unwrap();
        }
        let idx = cat.create_index("items_qty", "items", &["QTY".into()], false).unwrap();
        let rids = idx.tree.lock().search_exact(&encode_key(&[Value::Int(3)])).unwrap();
        assert_eq!(rids.len(), 10);
    }

    #[test]
    fn delete_and_update_maintain_indexes() {
        let cat = catalog();
        let t = make_items(&cat);
        let rid = cat.insert_row(&t, &[Value::Int(1), Value::str("a"), Value::Int(10)]).unwrap();
        cat.create_index("items_qty", "items", &["QTY".into()], false).unwrap();
        let new_rid =
            cat.update_row(&t, rid, &[Value::Int(1), Value::str("a"), Value::Int(99)]).unwrap();
        let idx = t.find_index("ITEMS_QTY").unwrap();
        assert!(idx.tree.lock().search_exact(&encode_key(&[Value::Int(10)])).unwrap().is_empty());
        assert_eq!(idx.tree.lock().search_exact(&encode_key(&[Value::Int(99)])).unwrap().len(), 1);
        cat.delete_row(&t, new_rid).unwrap();
        assert_eq!(t.heap.live_rows(), 0);
        assert!(idx.tree.lock().search_exact(&encode_key(&[Value::Int(99)])).unwrap().is_empty());
    }

    #[test]
    fn analyze_computes_stats() {
        let cat = catalog();
        let t = make_items(&cat);
        for i in 0..100 {
            cat.insert_row(
                &t,
                &[Value::Int(i), Value::str(format!("n{}", i % 10)), Value::Int(i % 4)],
            )
            .unwrap();
        }
        cat.analyze_table(&t).unwrap();
        let stats = t.stats.read();
        assert!(stats.analyzed);
        assert_eq!(stats.row_count, 100);
        assert_eq!(stats.columns[0].n_distinct, 100);
        assert_eq!(stats.columns[1].n_distinct, 10);
        assert_eq!(stats.columns[2].n_distinct, 4);
        assert_eq!(stats.columns[0].min, Some(Value::Int(0)));
        assert_eq!(stats.columns[0].max, Some(Value::Int(99)));
    }

    #[test]
    fn views_registered_and_dropped() {
        let cat = catalog();
        let q = crate::sql::parse_query("SELECT 1").unwrap();
        cat.create_view("v", q).unwrap();
        assert!(cat.view("V").is_some());
        assert!(cat.create_view("v", crate::sql::parse_query("SELECT 2").unwrap()).is_err());
        cat.drop_view("v").unwrap();
        assert!(cat.view("v").is_none());
    }

    #[test]
    fn table_sizes_accounted() {
        let cat = catalog();
        let t = make_items(&cat);
        for i in 0..100 {
            cat.insert_row(&t, &[Value::Int(i), Value::str("abcdefghij"), Value::Int(1)]).unwrap();
        }
        let (data, index) = cat.table_sizes(&t);
        assert!(data > 100 * 20, "data bytes counted");
        assert!(index > 0, "pkey index bytes counted");
    }
}
