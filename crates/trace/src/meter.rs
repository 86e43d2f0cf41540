//! The deterministic cost clock.
//!
//! The paper's numbers are wall-clock seconds on 1996 hardware (SPARCstation
//! 20, 2x60 MHz, 10 MB database buffer, Seagate ST15230N disks). What a
//! reproduction must preserve is the *shape* of the results — which
//! configuration wins, by roughly what factor, and where crossovers fall.
//! Those shapes are functions of physical operation counts (page I/Os split
//! by access pattern, per-tuple CPU work, interface crossings between the
//! RDBMS and the application server, sort spills, consistency checks)
//! multiplied by the relative costs of those operations.
//!
//! Every layer of this workspace meters its real work into a [`CostMeter`];
//! a [`Calibration`] turns the meter into simulated seconds. Calibration is
//! data, not code, so an experiment can sweep it and EXPERIMENTS.md can
//! report both raw counters and derived times.

use serde_json::Json;
use std::fmt;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Identifies one metered operation class. The discriminant is the index
/// into [`CostMeter`]/[`MeterSnapshot`] storage, and [`Counter::name`] is
/// the one source of truth for counter names in JSON exports and displays.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Counter {
    /// Buffer-pool misses served by a sequential page read.
    SeqPageReads = 0,
    /// Buffer-pool misses served by a random page read.
    RandPageReads,
    /// Dirty pages written back.
    PageWrites,
    /// Tuples processed by engine operators (scan, probe, join, agg, ...).
    DbTuples,
    /// Round trips crossing the RDBMS <-> application-server interface
    /// (statement opens, fetch batches, per-tuple crossings of nested
    /// SELECT loops — Section 2.3 of the paper).
    IpcCrossings,
    /// Tuples shipped across the interface to the application server.
    IpcTuples,
    /// Tuples processed inside the application server (ABAP-side joins,
    /// grouping, EXTRACT/LOOP processing).
    AppTuples,
    /// Application-server intermediate spill I/O in pages (Section 4.2:
    /// SAP sorts by writing the sorted result to secondary storage and
    /// re-reading it).
    AppSpillPages,
    /// Per-record batch-input consistency-check units (Section 2.4/3.4.2).
    CheckUnits,
    /// Application-server buffer (cache) probes and hits (Section 4.3).
    CacheProbes,
    CacheHits,
    /// B+-tree node reads (subset of page reads, kept separately so index
    /// ablations can be reported).
    IndexNodeReads,
    /// Times a transaction had to block on a lock held by another
    /// transaction (multi-user workloads only; the wall/simulated wait
    /// duration is tracked by the lock manager / throughput driver).
    LockWaits,
    /// Row/key-range locks granted (the fine level of the hierarchical
    /// lock manager; table locks are not counted here).
    RowLocks,
    /// Times a transaction's row locks on one table were escalated to a
    /// single table lock.
    LockEscalations,
    /// Times a lock conversion (e.g. S -> X on a table the transaction
    /// already shares) had to wait for other holders to drain.
    UpgradeWaits,
    /// Rollbacks that failed while undoing (corrupted-undo paths that
    /// would otherwise be swallowed by `Drop`).
    RollbackErrors,
    /// Times a throughput-driver unit was retried after being picked as a
    /// deadlock victim (TPC-D refresh functions retry with backoff).
    DeadlockRetries,
    /// Log records appended to the write-ahead log.
    WalRecords,
    /// Bytes appended to the write-ahead log (frame headers included).
    WalBytes,
    /// Log forces: `fsync` calls issued against the log file. Under group
    /// commit this is the number of *batched* flushes, not commits.
    WalFlushes,
    /// Commits made durable, summed over group-commit flushes; divided by
    /// [`Counter::WalFlushes`] this gives the mean group-commit batch size.
    GroupCommitBatch,
    /// Shared-plan-cache lookups satisfied by a cached, still-valid plan
    /// (the wire protocol's REOPEN path: Parse skips planning entirely).
    PlanCacheHits,
    /// Shared-plan-cache lookups that had to parse and plan (first
    /// execution of a statement shape, or a stale entry).
    PlanCacheMisses,
    /// Plan-cache entries discarded — capacity (LRU) evictions plus
    /// catalog-version invalidations after DDL.
    PlanCacheEvictions,
}

impl Counter {
    pub const COUNT: usize = 25;

    pub const ALL: [Counter; Counter::COUNT] = [
        Counter::SeqPageReads,
        Counter::RandPageReads,
        Counter::PageWrites,
        Counter::DbTuples,
        Counter::IpcCrossings,
        Counter::IpcTuples,
        Counter::AppTuples,
        Counter::AppSpillPages,
        Counter::CheckUnits,
        Counter::CacheProbes,
        Counter::CacheHits,
        Counter::IndexNodeReads,
        Counter::LockWaits,
        Counter::RowLocks,
        Counter::LockEscalations,
        Counter::UpgradeWaits,
        Counter::RollbackErrors,
        Counter::DeadlockRetries,
        Counter::WalRecords,
        Counter::WalBytes,
        Counter::WalFlushes,
        Counter::GroupCommitBatch,
        Counter::PlanCacheHits,
        Counter::PlanCacheMisses,
        Counter::PlanCacheEvictions,
    ];

    /// Stable snake_case name, used for JSON export and display.
    pub fn name(self) -> &'static str {
        match self {
            Counter::SeqPageReads => "seq_page_reads",
            Counter::RandPageReads => "rand_page_reads",
            Counter::PageWrites => "page_writes",
            Counter::DbTuples => "db_tuples",
            Counter::IpcCrossings => "ipc_crossings",
            Counter::IpcTuples => "ipc_tuples",
            Counter::AppTuples => "app_tuples",
            Counter::AppSpillPages => "app_spill_pages",
            Counter::CheckUnits => "check_units",
            Counter::CacheProbes => "cache_probes",
            Counter::CacheHits => "cache_hits",
            Counter::IndexNodeReads => "index_node_reads",
            Counter::LockWaits => "lock_waits",
            Counter::RowLocks => "row_locks",
            Counter::LockEscalations => "lock_escalations",
            Counter::UpgradeWaits => "upgrade_waits",
            Counter::RollbackErrors => "rollback_errors",
            Counter::DeadlockRetries => "deadlock_retries",
            Counter::WalRecords => "wal_records",
            Counter::WalBytes => "wal_bytes",
            Counter::WalFlushes => "wal_flushes",
            Counter::GroupCommitBatch => "group_commit_batch",
            Counter::PlanCacheHits => "plan_cache_hits",
            Counter::PlanCacheMisses => "plan_cache_misses",
            Counter::PlanCacheEvictions => "plan_cache_evictions",
        }
    }
}

/// Atomic counters for every metered operation class, indexed by
/// [`Counter`] discriminant.
#[derive(Debug, Default)]
pub struct CostMeter {
    counters: [AtomicU64; Counter::COUNT],
}

impl CostMeter {
    pub fn new() -> Arc<Self> {
        Arc::new(CostMeter::default())
    }

    pub fn add(&self, field: Counter, n: u64) {
        self.counters[field as usize].fetch_add(n, Ordering::Relaxed);
        // Mirror the work into every meter scope active on this thread so a
        // transaction / dispatcher request gets its own attribution without
        // threading a meter through every storage-layer call.
        crate::ctx::with(|ctx| {
            for scoped in &ctx.scopes {
                if !std::ptr::eq(Arc::as_ptr(scoped), self) {
                    scoped.counters[field as usize].fetch_add(n, Ordering::Relaxed);
                }
            }
        });
    }

    pub fn bump(&self, field: Counter) {
        self.add(field, 1);
    }

    pub fn get(&self, field: Counter) -> u64 {
        self.counters[field as usize].load(Ordering::Relaxed)
    }

    /// Snapshot all counters.
    pub fn snapshot(&self) -> MeterSnapshot {
        MeterSnapshot { counts: std::array::from_fn(|i| self.counters[i].load(Ordering::Relaxed)) }
    }

    /// Reset every counter to zero (between experiments).
    pub fn reset(&self) {
        for c in &self.counters {
            c.store(0, Ordering::Relaxed);
        }
    }
}

/// RAII guard that registers `meter` as an attribution target on the current
/// thread: while the scope is alive, every [`CostMeter::add`] performed on
/// this thread (against any meter) is mirrored into the scoped meter. Scopes
/// nest — a dispatcher request scope can contain a transaction scope, and
/// both receive the work done inside the inner scope.
///
/// The guard is `!Send` so a scope is always popped on the thread that
/// pushed it.
pub struct MeterScope {
    meter: Arc<CostMeter>,
    _not_send: PhantomData<*const ()>,
}

impl MeterScope {
    pub fn enter(meter: Arc<CostMeter>) -> MeterScope {
        crate::ctx::with(|ctx| ctx.scopes.push(Arc::clone(&meter)));
        MeterScope { meter, _not_send: PhantomData }
    }

    /// The meter this scope feeds.
    pub fn meter(&self) -> &Arc<CostMeter> {
        &self.meter
    }
}

impl Drop for MeterScope {
    fn drop(&mut self) {
        // Scopes are strictly nested (RAII, !Send), so ours is on top.
        let popped = crate::ctx::with(|ctx| ctx.scopes.pop());
        debug_assert!(popped.is_some_and(|p| Arc::ptr_eq(&p, &self.meter)));
    }
}

/// An immutable point-in-time copy of the meter, with difference support.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MeterSnapshot {
    counts: [u64; Counter::COUNT],
}

impl MeterSnapshot {
    pub fn get(&self, field: Counter) -> u64 {
        self.counts[field as usize]
    }

    pub fn set(&mut self, field: Counter, value: u64) {
        self.counts[field as usize] = value;
    }

    /// Builder-style helper: this snapshot with `field` set to `value`.
    pub fn with(mut self, field: Counter, value: u64) -> MeterSnapshot {
        self.set(field, value);
        self
    }

    /// Work performed between `earlier` and `self`.
    ///
    /// Uses `saturating_sub`: snapshots of a live meter taken from another
    /// thread under `Ordering::Relaxed` can observe counters out of order,
    /// and a small negative race must clamp to zero rather than panic on
    /// underflow in debug builds.
    pub fn since(&self, earlier: &MeterSnapshot) -> MeterSnapshot {
        MeterSnapshot {
            counts: std::array::from_fn(|i| self.counts[i].saturating_sub(earlier.counts[i])),
        }
    }

    /// Counter-wise sum of two snapshots.
    pub fn plus(&self, other: &MeterSnapshot) -> MeterSnapshot {
        MeterSnapshot {
            counts: std::array::from_fn(|i| self.counts[i].saturating_add(other.counts[i])),
        }
    }

    pub fn is_zero(&self) -> bool {
        self.counts.iter().all(|&v| v == 0)
    }

    /// Total buffer-pool misses (sequential plus random page reads).
    pub fn pages_read(&self) -> u64 {
        self.seq_page_reads() + self.rand_page_reads()
    }

    pub fn seq_page_reads(&self) -> u64 {
        self.get(Counter::SeqPageReads)
    }

    pub fn rand_page_reads(&self) -> u64 {
        self.get(Counter::RandPageReads)
    }

    pub fn page_writes(&self) -> u64 {
        self.get(Counter::PageWrites)
    }

    pub fn db_tuples(&self) -> u64 {
        self.get(Counter::DbTuples)
    }

    pub fn ipc_crossings(&self) -> u64 {
        self.get(Counter::IpcCrossings)
    }

    pub fn ipc_tuples(&self) -> u64 {
        self.get(Counter::IpcTuples)
    }

    pub fn app_tuples(&self) -> u64 {
        self.get(Counter::AppTuples)
    }

    pub fn app_spill_pages(&self) -> u64 {
        self.get(Counter::AppSpillPages)
    }

    pub fn check_units(&self) -> u64 {
        self.get(Counter::CheckUnits)
    }

    pub fn cache_probes(&self) -> u64 {
        self.get(Counter::CacheProbes)
    }

    pub fn cache_hits(&self) -> u64 {
        self.get(Counter::CacheHits)
    }

    pub fn index_node_reads(&self) -> u64 {
        self.get(Counter::IndexNodeReads)
    }

    pub fn lock_waits(&self) -> u64 {
        self.get(Counter::LockWaits)
    }

    pub fn row_locks(&self) -> u64 {
        self.get(Counter::RowLocks)
    }

    pub fn lock_escalations(&self) -> u64 {
        self.get(Counter::LockEscalations)
    }

    pub fn upgrade_waits(&self) -> u64 {
        self.get(Counter::UpgradeWaits)
    }

    pub fn rollback_errors(&self) -> u64 {
        self.get(Counter::RollbackErrors)
    }

    pub fn deadlock_retries(&self) -> u64 {
        self.get(Counter::DeadlockRetries)
    }

    pub fn wal_records(&self) -> u64 {
        self.get(Counter::WalRecords)
    }

    pub fn wal_bytes(&self) -> u64 {
        self.get(Counter::WalBytes)
    }

    pub fn wal_flushes(&self) -> u64 {
        self.get(Counter::WalFlushes)
    }

    pub fn group_commit_batch(&self) -> u64 {
        self.get(Counter::GroupCommitBatch)
    }

    pub fn plan_cache_hits(&self) -> u64 {
        self.get(Counter::PlanCacheHits)
    }

    pub fn plan_cache_misses(&self) -> u64 {
        self.get(Counter::PlanCacheMisses)
    }

    pub fn plan_cache_evictions(&self) -> u64 {
        self.get(Counter::PlanCacheEvictions)
    }

    /// Fraction of plan-cache lookups served from the cache.
    pub fn plan_cache_hit_ratio(&self) -> f64 {
        let probes = self.plan_cache_hits() + self.plan_cache_misses();
        if probes == 0 {
            0.0
        } else {
            self.plan_cache_hits() as f64 / probes as f64
        }
    }

    pub fn cache_hit_ratio(&self) -> f64 {
        if self.cache_probes() == 0 {
            0.0
        } else {
            self.cache_hits() as f64 / self.cache_probes() as f64
        }
    }

    /// JSON object keyed by [`Counter::name`].
    pub fn to_json(&self) -> Json {
        let mut obj = Json::object();
        for c in Counter::ALL {
            obj = obj.field(c.name(), self.get(c));
        }
        obj
    }
}

impl fmt::Display for MeterSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, c) in Counter::ALL.into_iter().enumerate() {
            if i > 0 {
                write!(f, " ")?;
            }
            write!(f, "{}={}", c.name(), self.get(c))?;
        }
        Ok(())
    }
}

/// Cost constants in milliseconds per unit, calibrated to the paper's 1996
/// environment. See DESIGN.md section 5.
#[derive(Debug, Clone, Copy)]
pub struct Calibration {
    pub ms_seq_page_read: f64,
    pub ms_rand_page_read: f64,
    pub ms_page_write: f64,
    pub ms_db_tuple: f64,
    pub ms_ipc_crossing: f64,
    pub ms_ipc_tuple: f64,
    pub ms_app_tuple: f64,
    pub ms_app_spill_page: f64,
    pub ms_check_unit: f64,
    pub ms_cache_probe: f64,
    /// Cost of forcing the log to disk (one `fsync` of the tail). Dominated
    /// by rotational latency on the 5400 rpm Seagate disks of the paper's
    /// era: ~5.5 ms per revolution.
    pub ms_wal_flush: f64,
}

impl Default for Calibration {
    fn default() -> Self {
        Calibration::sparc20_1996()
    }
}

impl Calibration {
    /// Default calibration: a 1996 SPARCstation 20 class machine.
    ///
    /// * Seagate ST15230N-era disk: ~11 ms average access; sequential
    ///   multi-page transfers amortize to ~1.5 ms/8 KB page.
    /// * 60 MHz SuperSPARC: ~150 us of evaluation work per tuple in the
    ///   engine (TPC-D expressions are arithmetic-heavy); interpreted
    ///   ABAP per-tuple work is several times that.
    /// * SQL interface crossing (parameterized OPEN/FETCH via IPC): ~0.5 ms.
    /// * Batch-input consistency checking: the dominant load cost; one check
    ///   unit is one application-level validation step (dialog simulation,
    ///   dictionary validation, authority check) — SAP transactions cost
    ///   on the order of seconds per record on this hardware.
    pub fn sparc20_1996() -> Self {
        Calibration {
            ms_seq_page_read: 1.5,
            ms_rand_page_read: 11.0,
            ms_page_write: 2.0,
            ms_db_tuple: 0.15,
            ms_ipc_crossing: 0.5,
            ms_ipc_tuple: 0.05,
            ms_app_tuple: 0.5,
            ms_app_spill_page: 3.0,
            ms_check_unit: 150.0,
            ms_cache_probe: 0.08,
            ms_wal_flush: 5.5,
        }
    }

    /// Milliseconds charged per unit of `field`. Counters without a weight
    /// (cache hits, index-node reads, lock waits) are sub-categories or
    /// occurrence counts whose cost is carried elsewhere.
    pub fn ms_per_unit(&self, field: Counter) -> f64 {
        match field {
            Counter::SeqPageReads => self.ms_seq_page_read,
            Counter::RandPageReads => self.ms_rand_page_read,
            Counter::PageWrites => self.ms_page_write,
            Counter::DbTuples => self.ms_db_tuple,
            Counter::IpcCrossings => self.ms_ipc_crossing,
            Counter::IpcTuples => self.ms_ipc_tuple,
            Counter::AppTuples => self.ms_app_tuple,
            Counter::AppSpillPages => self.ms_app_spill_page,
            Counter::CheckUnits => self.ms_check_unit,
            Counter::CacheProbes => self.ms_cache_probe,
            Counter::WalFlushes => self.ms_wal_flush,
            Counter::CacheHits
            | Counter::IndexNodeReads
            | Counter::LockWaits
            | Counter::RowLocks
            | Counter::LockEscalations
            | Counter::UpgradeWaits
            | Counter::RollbackErrors
            | Counter::DeadlockRetries
            | Counter::WalRecords
            | Counter::WalBytes
            | Counter::GroupCommitBatch
            | Counter::PlanCacheHits
            | Counter::PlanCacheMisses
            | Counter::PlanCacheEvictions => 0.0,
        }
    }

    /// Simulated milliseconds for a snapshot of work.
    pub fn millis(&self, m: &MeterSnapshot) -> f64 {
        Counter::ALL.into_iter().map(|c| m.get(c) as f64 * self.ms_per_unit(c)).sum()
    }

    /// Simulated seconds for a snapshot of work.
    pub fn seconds(&self, m: &MeterSnapshot) -> f64 {
        self.millis(m) / 1000.0
    }
}

/// Pretty duration like the paper's tables ("2h 14m 56s", "5m 17s", "34s").
pub fn fmt_duration(seconds: f64) -> String {
    let total = seconds.round() as u64;
    let d = total / 86_400;
    let h = (total % 86_400) / 3600;
    let m = (total % 3600) / 60;
    let s = total % 60;
    if seconds < 1.0 {
        return format!("{:.2}s", seconds);
    }
    let mut out = String::new();
    if d > 0 {
        out.push_str(&format!("{d}d "));
    }
    if h > 0 || d > 0 {
        out.push_str(&format!("{h}h "));
    }
    if m > 0 || h > 0 || d > 0 {
        out.push_str(&format!("{m}m "));
    }
    out.push_str(&format!("{s}s"));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn meter_counts_and_resets() {
        let m = CostMeter::new();
        m.bump(Counter::SeqPageReads);
        m.add(Counter::DbTuples, 10);
        assert_eq!(m.get(Counter::SeqPageReads), 1);
        assert_eq!(m.get(Counter::DbTuples), 10);
        m.reset();
        assert_eq!(m.snapshot(), MeterSnapshot::default());
    }

    #[test]
    fn snapshot_difference() {
        let m = CostMeter::new();
        m.add(Counter::AppTuples, 5);
        let a = m.snapshot();
        m.add(Counter::AppTuples, 7);
        let diff = m.snapshot().since(&a);
        assert_eq!(diff.app_tuples(), 7);
        assert_eq!(diff.seq_page_reads(), 0);
    }

    #[test]
    fn since_saturates_instead_of_underflowing() {
        // A snapshot pair observed out of order (possible across threads
        // under Relaxed loads) must clamp to zero, not panic.
        let later = MeterSnapshot::default().with(Counter::DbTuples, 10);
        let earlier = MeterSnapshot::default().with(Counter::DbTuples, 12);
        assert_eq!(later.since(&earlier).db_tuples(), 0);
    }

    #[test]
    fn counter_names_are_unique_and_indexed() {
        let mut names = std::collections::BTreeSet::new();
        for (i, c) in Counter::ALL.into_iter().enumerate() {
            assert_eq!(c as usize, i, "discriminant must match ALL order");
            assert!(names.insert(c.name()), "duplicate name {}", c.name());
        }
        assert_eq!(names.len(), Counter::COUNT);
    }

    #[test]
    fn calibration_converts_to_seconds() {
        let cal = Calibration::sparc20_1996();
        let snap = MeterSnapshot::default().with(Counter::RandPageReads, 1000);
        let s = cal.seconds(&snap);
        assert!((s - 11.0).abs() < 1e-9);
    }

    #[test]
    fn random_io_much_more_expensive_than_sequential() {
        let cal = Calibration::default();
        assert!(cal.ms_rand_page_read > 4.0 * cal.ms_seq_page_read);
    }

    #[test]
    fn duration_formatting_matches_paper_style() {
        assert_eq!(fmt_duration(317.0), "5m 17s");
        assert_eq!(fmt_duration(34.0), "34s");
        assert_eq!(fmt_duration(8096.0), "2h 14m 56s");
        assert_eq!(fmt_duration(2_231_700.0), "25d 19h 55m 0s");
        assert_eq!(fmt_duration(0.25), "0.25s");
    }

    #[test]
    fn meter_scope_mirrors_work_and_nests() {
        let global = CostMeter::new();
        let outer = CostMeter::new();
        let inner = CostMeter::new();
        global.add(Counter::DbTuples, 1); // before any scope
        {
            let _o = MeterScope::enter(Arc::clone(&outer));
            global.add(Counter::DbTuples, 10);
            {
                let _i = MeterScope::enter(Arc::clone(&inner));
                global.add(Counter::DbTuples, 100);
            }
            global.add(Counter::DbTuples, 1000);
        }
        global.add(Counter::DbTuples, 10000); // after scopes closed
        assert_eq!(global.get(Counter::DbTuples), 11111);
        assert_eq!(outer.get(Counter::DbTuples), 1110);
        assert_eq!(inner.get(Counter::DbTuples), 100);
    }

    #[test]
    fn meter_scope_does_not_double_count_self() {
        let meter = CostMeter::new();
        let _s = MeterScope::enter(Arc::clone(&meter));
        meter.add(Counter::AppTuples, 3);
        assert_eq!(meter.get(Counter::AppTuples), 3);
    }

    #[test]
    fn hit_ratio() {
        let snap =
            MeterSnapshot::default().with(Counter::CacheProbes, 100).with(Counter::CacheHits, 85);
        assert!((snap.cache_hit_ratio() - 0.85).abs() < 1e-12);
        assert_eq!(MeterSnapshot::default().cache_hit_ratio(), 0.0);
    }

    #[test]
    fn snapshot_json_uses_counter_names() {
        let snap = MeterSnapshot::default().with(Counter::IpcCrossings, 3);
        let json = serde_json::to_string(&snap.to_json()).unwrap();
        assert!(json.contains("\"ipc_crossings\":3"));
        assert!(json.contains("\"lock_waits\":0"));
    }
}
