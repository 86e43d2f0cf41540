//! Shared, size-bounded plan cache keyed by normalized SQL.
//!
//! The paper's 2.2G-vs-3.0E contrast (section 4) is about what crosses the
//! client/server interface: OPEN ships literal SQL that must be parsed and
//! planned on every call, REOPEN re-executes an already-prepared statement.
//! This cache gives the server's Parse path REOPEN economics even when
//! clients send literal SQL: the statement is normalized by replacing
//! predicate-position constants with parameters
//! ([`Statement::normalized`]), so every literal variant of a query shares
//! one cached plan, and that plan sees parameter markers — which the
//! planner treats as sargable probes, yielding index access paths and
//! row-level locks instead of the full scans literal planning produces for
//! selective predicates.
//!
//! Keying is by the *normalized AST* itself: an entry is found by its
//! [`StatementId`] and confirmed by [`Statement::identical`], so a hit can
//! never be a hash collision. Lexer-level literal replacement would merge
//! statements that differ in non-predicate literals (projected constants),
//! which the AST normalization deliberately leaves in place, and the
//! comparison tells those literals apart by type and exact value.
//!
//! Invalidation is [`Prepared::is_current`]: a plan is reused while no DDL
//! touched an object it depends on. Per-object versions keep unrelated DDL
//! (TPC-D Q15 creating and dropping its `revenue0` view every execution)
//! from flushing the whole cache.

use crate::db::{Database, Prepared};
use crate::error::{DbError, DbResult};
use crate::sql::ast::{SelectStmt, Statement, StatementId};
use crate::sql::parse_statement;
use crate::types::Value;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::Arc;
use trace::meter::Counter;

/// A cache lookup's result: the shared plan plus the bind values that were
/// extracted from the literal text during normalization. Execute with
/// `extracted_params` ++ client-supplied params (a statement that already
/// contained `?` markers extracts nothing and uses client binds only).
pub struct CachedPlan {
    pub prepared: Arc<Prepared>,
    /// Values the normalizer stripped from the literal text, in parameter
    /// order. Empty when the client sent a pre-parameterized statement.
    pub extracted_params: Vec<Value>,
    /// Whether the plan came from the cache (vs. freshly planned).
    pub cache_hit: bool,
    /// Identity of the normalized statement, shared by its literal
    /// variants: the per-statement monitoring key
    /// ([`crate::monitor::StatementCollector`]).
    pub id: StatementId,
}

/// One cached plan as reported by [`PlanCache::entries_snapshot`] (the
/// M$PLAN_CACHE monitoring view).
#[derive(Debug, Clone)]
pub struct PlanCacheEntryInfo {
    /// Display text of the statement (first literal text seen for this
    /// normal form, whitespace-collapsed and bounded).
    pub statement: String,
    /// Cache hits served by this entry since insertion.
    pub hits: u64,
    /// Logical clock of the last lookup (larger = more recent).
    pub last_used: u64,
    /// Parameter markers the normalized plan carries.
    pub n_params: usize,
    /// Base tables/views the plan depends on (invalidation set).
    pub dependencies: Vec<String>,
}

/// A normalized SELECT as a map key: hashed by its id, compared exactly.
struct Key {
    id: StatementId,
    stmt: Statement,
}

impl PartialEq for Key {
    fn eq(&self, other: &Key) -> bool {
        self.id == other.id && self.stmt.identical(&other.stmt)
    }
}

impl Eq for Key {}

impl Hash for Key {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.id.hash(state);
    }
}

struct Entry {
    prepared: Arc<Prepared>,
    /// Display text of the statement (first literal text seen).
    display: String,
    /// Cache hits served by this entry since insertion.
    hits: u64,
    /// Logical clock of the last lookup, for LRU eviction.
    last_used: u64,
}

/// Shared, size-bounded plan cache. One per server; sessions call
/// [`PlanCache::prepare`] concurrently.
pub struct PlanCache {
    capacity: usize,
    inner: Mutex<Inner>,
}

struct Inner {
    entries: HashMap<Key, Entry>,
    tick: u64,
}

impl PlanCache {
    /// A cache holding at most `capacity` plans (LRU eviction). Capacity 0
    /// disables caching (every lookup is a miss).
    pub fn new(capacity: usize) -> Self {
        PlanCache { capacity, inner: Mutex::new(Inner { entries: HashMap::new(), tick: 0 }) }
    }

    /// Number of currently cached plans.
    pub fn len(&self) -> usize {
        self.inner.lock().entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drop every cached plan.
    pub fn clear(&self) {
        self.inner.lock().entries.clear();
    }

    /// Parse + normalize `sql` and return a shared plan for it, planning on
    /// a miss. Only SELECT is cacheable; other statements error here and
    /// must take the literal execution path. Hits, misses, and evictions
    /// are metered on the database's cost meter.
    pub fn prepare(&self, db: &Database, sql: &str) -> DbResult<CachedPlan> {
        match parse_statement(sql)? {
            stmt @ Statement::Select(_) => self.prepare_statement(db, stmt, sql),
            other => Err(DbError::analysis(format!("can only cache SELECT plans, got {other:?}"))),
        }
    }

    /// [`PlanCache::prepare`] for an already-parsed SELECT.
    pub fn prepare_select(&self, db: &Database, q: &SelectStmt) -> DbResult<CachedPlan> {
        self.prepare_statement(
            db,
            Statement::Select(Box::new(q.clone())),
            "<select prepared from AST>",
        )
    }

    fn prepare_statement(&self, db: &Database, stmt: Statement, sql: &str) -> DbResult<CachedPlan> {
        let (stmt, stripped) = stmt.normalized();
        let extracted_params = db.eval_const_exprs(&stripped)?;
        let key = Key { id: StatementId::of(&stmt), stmt };
        let id = key.id;

        if let Some(prepared) = self.lookup(db, &key) {
            db.meter().bump(Counter::PlanCacheHits);
            return Ok(CachedPlan { prepared, extracted_params, cache_hit: true, id });
        }

        db.meter().bump(Counter::PlanCacheMisses);
        let Statement::Select(q) = &key.stmt else { unreachable!("only SELECTs are prepared") };
        let prepared = Arc::new(db.prepare_select(q)?);
        // Monitoring views produce their rows at execute time and carry no
        // catalog version to revalidate against; their queries are also
        // exactly the traffic we do not want evicting workload plans. A plan
        // that reads one is never cached, so each of its calls is a miss.
        if !prepared.reads_monitor_view {
            let display = crate::monitor::display_text(sql);
            self.insert(db, key, display, Arc::clone(&prepared));
        }
        Ok(CachedPlan { prepared, extracted_params, cache_hit: false, id })
    }

    /// Return the entry for `key` if present and still current; remove it
    /// if stale.
    fn lookup(&self, db: &Database, key: &Key) -> Option<Arc<Prepared>> {
        let mut inner = self.inner.lock();
        inner.tick += 1;
        let tick = inner.tick;
        let entry = inner.entries.get_mut(key)?;
        if entry.prepared.is_current(db.catalog()) {
            entry.last_used = tick;
            entry.hits += 1;
            Some(Arc::clone(&entry.prepared))
        } else {
            // Stale plan: DDL touched a dependency after prepare. Drop the
            // entry; the caller replans and reinserts.
            inner.entries.remove(key);
            None
        }
    }

    fn insert(&self, db: &Database, key: Key, display: String, prepared: Arc<Prepared>) {
        if self.capacity == 0 {
            return;
        }
        let mut inner = self.inner.lock();
        inner.tick += 1;
        let tick = inner.tick;
        while inner.entries.len() >= self.capacity && !inner.entries.contains_key(&key) {
            // Ticks are unique, so the oldest one names a single victim.
            let oldest = inner.entries.values().map(|e| e.last_used).min().expect("at capacity");
            inner.entries.retain(|_, e| e.last_used != oldest);
            db.meter().bump(Counter::PlanCacheEvictions);
        }
        inner.entries.insert(key, Entry { prepared, display, hits: 0, last_used: tick });
    }

    /// A point-in-time listing of the cached plans, most recently used
    /// first. Backs the M$PLAN_CACHE monitoring view.
    pub fn entries_snapshot(&self) -> Vec<PlanCacheEntryInfo> {
        let inner = self.inner.lock();
        let mut out: Vec<PlanCacheEntryInfo> = inner
            .entries
            .values()
            .map(|e| PlanCacheEntryInfo {
                statement: e.display.clone(),
                hits: e.hits,
                last_used: e.last_used,
                n_params: e.prepared.n_params,
                dependencies: e.prepared.dependencies.clone(),
            })
            .collect();
        out.sort_by_key(|e| std::cmp::Reverse(e.last_used));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::db::Database;

    fn db_with_table() -> Database {
        let db = Database::with_defaults();
        db.execute("CREATE TABLE t (a INTEGER NOT NULL, b INTEGER, PRIMARY KEY (a))").unwrap();
        for i in 0..20 {
            db.execute(&format!("INSERT INTO t VALUES ({i}, {})", i * 10)).unwrap();
        }
        db
    }

    #[test]
    fn literal_variants_share_one_plan() {
        let db = db_with_table();
        let cache = PlanCache::new(8);
        let a = cache.prepare(&db, "SELECT b FROM t WHERE a = 3").unwrap();
        assert!(!a.cache_hit);
        assert_eq!(a.extracted_params, vec![Value::Int(3)]);
        let b = cache.prepare(&db, "SELECT b FROM t WHERE a = 17").unwrap();
        assert!(b.cache_hit, "different literal must hit the same normalized plan");
        assert_eq!(b.extracted_params, vec![Value::Int(17)]);
        assert!(Arc::ptr_eq(&a.prepared, &b.prepared));
        assert_eq!(cache.len(), 1);

        let rows = db.execute_prepared(&b.prepared, &b.extracted_params).unwrap();
        assert_eq!(rows.rows, vec![vec![Value::Int(170)]]);
    }

    #[test]
    fn non_predicate_literals_do_not_collide() {
        let db = db_with_table();
        let cache = PlanCache::new(8);
        let a = cache.prepare(&db, "SELECT 1 FROM t WHERE a = 2").unwrap();
        let b = cache.prepare(&db, "SELECT 9 FROM t WHERE a = 2").unwrap();
        assert!(!b.cache_hit, "projected constants differ: plans must not be shared");
        assert_eq!(cache.len(), 2);
        let ra = db.execute_prepared(&a.prepared, &a.extracted_params).unwrap();
        let rb = db.execute_prepared(&b.prepared, &b.extracted_params).unwrap();
        assert_eq!(ra.rows, vec![vec![Value::Int(1)]]);
        assert_eq!(rb.rows, vec![vec![Value::Int(9)]]);

        // Literals SQL `=` equates are still different statements: each
        // pair projects its own value of its own type.
        for (x, y, vx, vy) in [
            ("3", "3.0", Value::Int(3), Value::decimal(30, 1)),
            ("'x'", "'x '", Value::str("x"), Value::str("x ")),
        ] {
            let before = cache.len();
            let a = cache.prepare(&db, &format!("SELECT {x} FROM t WHERE a = 2")).unwrap();
            let b = cache.prepare(&db, &format!("SELECT {y} FROM t WHERE a = 2")).unwrap();
            assert!(!a.cache_hit && !b.cache_hit, "{x} and {y} must not share a plan");
            assert_ne!(a.id, b.id);
            assert_eq!(cache.len(), before + 2);
            let ra = db.execute_prepared(&a.prepared, &a.extracted_params).unwrap();
            let rb = db.execute_prepared(&b.prepared, &b.extracted_params).unwrap();
            assert!(ra.rows[0][0].identical(&vx), "{x} gave {:?}", ra.rows[0][0]);
            assert!(rb.rows[0][0].identical(&vy), "{y} gave {:?}", rb.rows[0][0]);
        }
    }

    #[test]
    fn pre_parameterized_statement_uses_client_binds() {
        let db = db_with_table();
        let cache = PlanCache::new(8);
        let p = cache.prepare(&db, "SELECT b FROM t WHERE a = ?").unwrap();
        assert!(p.extracted_params.is_empty());
        assert_eq!(p.prepared.n_params, 1);
        let again = cache.prepare(&db, "SELECT b FROM t WHERE a = ?").unwrap();
        assert!(again.cache_hit);
        let rows = db.execute_prepared(&p.prepared, &[Value::Int(5)]).unwrap();
        assert_eq!(rows.rows, vec![vec![Value::Int(50)]]);

        // A marker inside a subquery counts too: the outer `b > 5` stays a
        // literal instead of taking the client's parameter number.
        let nested = "SELECT b FROM t WHERE a = (SELECT MAX(a) FROM t WHERE b < ?) AND b > 5";
        let n = cache.prepare(&db, nested).unwrap();
        assert!(n.extracted_params.is_empty());
        assert_eq!(n.prepared.n_params, 1);
        let rows = db.execute_prepared(&n.prepared, &[Value::Int(100)]).unwrap();
        assert_eq!(rows.rows, vec![vec![Value::Int(90)]]);
    }

    #[test]
    fn ddl_on_dependency_invalidates_entry() {
        let db = db_with_table();
        let cache = PlanCache::new(8);
        let before = cache.prepare(&db, "SELECT b FROM t WHERE a = 3").unwrap();
        assert!(!before.cache_hit);
        db.execute("CREATE INDEX t_b ON t (b)").unwrap();
        let after = cache.prepare(&db, "SELECT b FROM t WHERE a = 3").unwrap();
        assert!(!after.cache_hit, "DDL on t must force a replan");
        // Unrelated DDL leaves the (fresh) entry alone.
        db.execute("CREATE TABLE u (x INTEGER NOT NULL, PRIMARY KEY (x))").unwrap();
        let unrelated = cache.prepare(&db, "SELECT b FROM t WHERE a = 3").unwrap();
        assert!(unrelated.cache_hit, "DDL on another table must not invalidate t's plan");
    }

    #[test]
    fn lru_eviction_at_capacity_is_metered() {
        let db = db_with_table();
        let cache = PlanCache::new(2);
        cache.prepare(&db, "SELECT b FROM t WHERE a = 1").unwrap();
        cache.prepare(&db, "SELECT a FROM t WHERE b = 1").unwrap();
        // Touch the first so the second is the LRU victim.
        cache.prepare(&db, "SELECT b FROM t WHERE a = 2").unwrap();
        cache.prepare(&db, "SELECT a, b FROM t WHERE a = 1").unwrap();
        assert_eq!(cache.len(), 2);
        let snap = db.meter().snapshot();
        assert_eq!(snap.plan_cache_evictions(), 1);
        // The survivor still hits; the victim replans.
        assert!(cache.prepare(&db, "SELECT b FROM t WHERE a = 9").unwrap().cache_hit);
        assert!(!cache.prepare(&db, "SELECT a FROM t WHERE b = 9").unwrap().cache_hit);
    }

    #[test]
    fn monitor_view_queries_bypass_the_cache() {
        let db = db_with_table();
        let cache = PlanCache::new(8);
        let a = cache.prepare(&db, "SELECT EVENT, WAITS FROM M$WAIT_EVENTS").unwrap();
        assert!(!a.cache_hit);
        let b = cache.prepare(&db, "SELECT EVENT, WAITS FROM M$WAIT_EVENTS").unwrap();
        assert!(!b.cache_hit, "M$ statements must not be cached");
        assert_eq!(cache.len(), 0);
        // A subquery reference bypasses too.
        let c = cache
            .prepare(&db, "SELECT b FROM t WHERE a = (SELECT COUNT(*) FROM M$WAIT_EVENTS)")
            .unwrap();
        assert!(!c.cache_hit);
        assert_eq!(cache.len(), 0);
        // Regular statements still cache.
        cache.prepare(&db, "SELECT b FROM t WHERE a = 1").unwrap();
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn entries_snapshot_reports_hits_and_display_text() {
        let db = db_with_table();
        let cache = PlanCache::new(8);
        cache.prepare(&db, "SELECT b  FROM\n  t WHERE a = 3").unwrap();
        cache.prepare(&db, "SELECT b FROM t WHERE a = 4").unwrap();
        cache.prepare(&db, "SELECT a FROM t WHERE b = 0").unwrap();
        let entries = cache.entries_snapshot();
        assert_eq!(entries.len(), 2);
        // Most recently used first.
        assert_eq!(entries[0].statement, "SELECT a FROM t WHERE b = 0");
        assert_eq!(entries[0].hits, 0);
        // Display text is the first-seen literal, whitespace-collapsed.
        assert_eq!(entries[1].statement, "SELECT b FROM t WHERE a = 3");
        assert_eq!(entries[1].hits, 1);
        assert_eq!(entries[1].dependencies, vec!["T".to_string()]);
        assert_eq!(entries[1].n_params, 1);
    }

    #[test]
    fn cached_plan_id_is_stable_across_literals() {
        let db = db_with_table();
        let cache = PlanCache::new(8);
        let a = cache.prepare(&db, "SELECT b FROM t WHERE a = 3").unwrap();
        let b = cache.prepare(&db, "SELECT b FROM t WHERE a = 99").unwrap();
        assert_eq!(a.id, b.id, "literal variants must share a statement id");
        let c = cache.prepare(&db, "SELECT a FROM t WHERE b = 3").unwrap();
        assert_ne!(a.id, c.id);
    }

    #[test]
    fn hit_ratio_is_metered() {
        let db = db_with_table();
        let cache = PlanCache::new(8);
        for i in 0..10 {
            cache.prepare(&db, &format!("SELECT b FROM t WHERE a = {i}")).unwrap();
        }
        let snap = db.meter().snapshot();
        assert_eq!(snap.plan_cache_misses(), 1);
        assert_eq!(snap.plan_cache_hits(), 9);
        assert!(snap.plan_cache_hit_ratio() > 0.89);
    }
}
