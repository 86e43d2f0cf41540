//! Hierarchical (multi-granularity) lock manager: IS/IX/S/X intention
//! locks at table level with S/X key-range locks underneath, in the Gray &
//! Reuter tradition the commercial engines of the paper's era used.
//!
//! A transaction reading one key range of a table takes IS on the table
//! plus a shared range lock; a writer takes IX plus exclusive ranges (or
//! points). Whole-table operations take plain S/X, which conflict with the
//! other side's intention bits — so a full scan still excludes writers,
//! but an RF1 insert of *new* keys slips past index-driven queries instead
//! of queuing behind them. Key ranges are encoded-key byte intervals
//! (`storage::codec::encode_key` is order-preserving), with inclusive
//! upper bounds widened by byte-increment exactly like the B+-tree's
//! `Included` bound, so a prefix bound covers all composite keys under it.
//!
//! When one transaction accumulates more than `escalation_threshold` range
//! locks on a single table, they are traded for one table lock
//! (escalation).
//!
//! Every table has one wait queue and one grant rule: a request is granted
//! when no other holder and no waiter queued ahead of it conflicts with it
//! ([`LockRequest::conflicts`]). So later readers do not pass a queued
//! writer, while a range request still passes waiters on other keys. A
//! request from a transaction that already holds a lock on the table is a
//! conversion (S -> X, an escalation, a second range): it queues after
//! earlier conversions but ahead of every other waiter, which would
//! otherwise wait for it while it waits for them. The wait-for graph runs
//! from each waiter to the holders and earlier waiters blocking it; a cycle
//! aborts the requester that closes it, and a lock-wait timeout backstops.

use crate::error::{DbError, DbResult};
use crate::index::btree::increment_bytes;
use parking_lot::{Condvar, Mutex};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::time::{Duration, Instant};
use trace::meter::{CostMeter, Counter};

/// Transaction identifier (monotonically increasing per database).
pub type TxnId = u64;

/// Lock strength on a table. `IntentShared`/`IntentExclusive` announce
/// range locks underneath; `Shared`/`Exclusive` cover the whole table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LockMode {
    /// IS — this transaction holds (or will take) shared ranges below.
    IntentShared,
    /// IX — this transaction holds exclusive ranges below.
    IntentExclusive,
    /// S — whole-table read; excludes writers at any granularity.
    Shared,
    /// X — whole-table write; excludes everything.
    Exclusive,
}

impl LockMode {
    /// The classic multi-granularity compatibility matrix.
    pub fn compatible(held: LockMode, requested: LockMode) -> bool {
        use LockMode::*;
        matches!(
            (held, requested),
            (IntentShared, IntentShared | IntentExclusive | Shared)
                | (IntentExclusive, IntentShared | IntentExclusive)
                | (Shared, IntentShared | Shared)
        )
    }

    /// Does holding `self` make a request for `requested` redundant?
    fn covers(self, requested: LockMode) -> bool {
        use LockMode::*;
        match self {
            Exclusive => true,
            Shared => matches!(requested, Shared | IntentShared),
            IntentExclusive => matches!(requested, IntentExclusive | IntentShared),
            IntentShared => requested == IntentShared,
        }
    }

    fn bit(self) -> u8 {
        match self {
            LockMode::IntentShared => 1,
            LockMode::IntentExclusive => 2,
            LockMode::Shared => 4,
            LockMode::Exclusive => 8,
        }
    }

    const ALL: [LockMode; 4] =
        [LockMode::IntentShared, LockMode::IntentExclusive, LockMode::Shared, LockMode::Exclusive];
}

fn bits_compatible(held_bits: u8, requested: LockMode) -> bool {
    LockMode::ALL
        .into_iter()
        .filter(|m| held_bits & m.bit() != 0)
        .all(|m| LockMode::compatible(m, requested))
}

/// A half-open interval of encoded key bytes: `lo` inclusive (empty =
/// unbounded below), `hi` exclusive (`None` = unbounded above).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KeyRange {
    lo: Vec<u8>,
    hi: Option<Vec<u8>>,
}

impl KeyRange {
    /// The whole key space.
    pub fn all() -> KeyRange {
        KeyRange { lo: Vec::new(), hi: None }
    }

    /// A single full key (covers suffixed composite keys under it, like
    /// the B+-tree's `Included` bound).
    pub fn point(key: &[u8]) -> KeyRange {
        KeyRange { lo: key.to_vec(), hi: increment_bytes(key) }
    }

    /// `[lo, hi]` with an inclusive, prefix-widened upper bound; `None`
    /// on either side means unbounded.
    pub fn span(lo: Option<&[u8]>, hi_inclusive: Option<&[u8]>) -> KeyRange {
        KeyRange {
            lo: lo.map(<[u8]>::to_vec).unwrap_or_default(),
            hi: hi_inclusive.and_then(increment_bytes),
        }
    }

    /// Do the two intervals share at least one encoded key?
    pub fn overlaps(&self, other: &KeyRange) -> bool {
        let starts_below = |lo: &[u8], hi: &Option<Vec<u8>>| match hi {
            None => true,
            Some(h) => lo < h.as_slice(),
        };
        starts_below(&self.lo, &other.hi) && starts_below(&other.lo, &self.hi)
    }

    /// Is `other` entirely inside this interval? Used to answer a lock
    /// re-request from a range the transaction already holds.
    pub fn contains(&self, other: &KeyRange) -> bool {
        let lo_ok = self.lo.as_slice() <= other.lo.as_slice();
        let hi_ok = match (&self.hi, &other.hi) {
            (None, _) => true,
            (Some(_), None) => false,
            (Some(a), Some(b)) => b <= a,
        };
        lo_ok && hi_ok
    }
}

/// Row/key-range lock strength.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RowMode {
    /// Readers share; conflicts only with exclusive ranges.
    Shared,
    /// Writers exclude every overlapping range.
    Exclusive,
}

/// One key-range lock request/holding on a table. Built with the
/// constructors, which pick the phantom semantics:
///
/// * [`RowLock::shared`] — predicate read with known bounds; conflicts
///   with *any* exclusive range including inserts (phantom protection).
/// * [`RowLock::shared_existing`] — reads rows located at run time
///   (index-driven probes without static bounds); conflicts with
///   deletes/updates of current rows but not with inserts of new keys.
/// * [`RowLock::exclusive`] — delete/update of existing rows.
/// * [`RowLock::insert`] — exclusive lock on a newly created key.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RowLock {
    mode: RowMode,
    range: KeyRange,
    /// Exclusive lock on a key that did not exist before this transaction
    /// (insert): compatible with `existing`-only readers.
    fresh: bool,
    /// Shared lock on current table contents only (no phantom claim).
    existing: bool,
}

impl RowLock {
    /// Predicate read with phantom protection: conflicts with any
    /// exclusive range in `range`, including inserts of new keys.
    pub fn shared(range: KeyRange) -> RowLock {
        RowLock { mode: RowMode::Shared, range, fresh: false, existing: false }
    }

    /// Read of rows located at run time (no static predicate): conflicts
    /// with deletes/updates of current rows but lets fresh-key inserts
    /// slip past.
    pub fn shared_existing(range: KeyRange) -> RowLock {
        RowLock { mode: RowMode::Shared, range, fresh: false, existing: true }
    }

    /// Delete or update of rows that already exist in `range`.
    pub fn exclusive(range: KeyRange) -> RowLock {
        RowLock { mode: RowMode::Exclusive, range, fresh: false, existing: false }
    }

    /// Exclusive lock on a newly created key: compatible with
    /// [`RowLock::shared_existing`] readers, which cannot observe it.
    pub fn insert(range: KeyRange) -> RowLock {
        RowLock { mode: RowMode::Exclusive, range, fresh: true, existing: false }
    }

    /// Table-level mode this range lock announces (its intention lock).
    fn intention(&self) -> LockMode {
        match self.mode {
            RowMode::Shared => LockMode::IntentShared,
            RowMode::Exclusive => LockMode::IntentExclusive,
        }
    }

    /// Whole-table mode that covers this range lock.
    fn table_mode(&self) -> LockMode {
        match self.mode {
            RowMode::Shared => LockMode::Shared,
            RowMode::Exclusive => LockMode::Exclusive,
        }
    }

    fn conflicts_with(&self, other: &RowLock) -> bool {
        if self.mode == RowMode::Shared && other.mode == RowMode::Shared {
            return false;
        }
        // A reader of current contents cannot observe a key that did not
        // exist when the inserter locked it — S(existing) and X(fresh)
        // never conflict. That is what lets RF1 slip past query streams.
        if self.mode != other.mode {
            let (s, x) = if self.mode == RowMode::Shared { (self, other) } else { (other, self) };
            if s.existing && x.fresh {
                return false;
            }
        }
        self.range.overlaps(&other.range)
    }
}

/// One lock on one table: a table mode, or a key-range lock (which also
/// takes its intention mode on the table). What a blocked transaction
/// waits for, and what workload models hold in virtual time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LockRequest {
    Table(LockMode),
    Row(RowLock),
}

impl LockRequest {
    /// Would the lock manager make these two requests, from different
    /// transactions on the same table, wait for each other? Symmetric.
    pub fn conflicts(&self, other: &LockRequest) -> bool {
        match (self, other) {
            // Two range requests' intention modes never conflict.
            (LockRequest::Row(a), LockRequest::Row(b)) => a.conflicts_with(b),
            _ => !LockMode::compatible(self.table_side(), other.table_side()),
        }
    }

    /// The same access at table granularity: a range lock becomes the
    /// whole-table S or X that covers it.
    pub fn table_granular(&self) -> LockRequest {
        LockRequest::Table(match self {
            LockRequest::Table(mode) => *mode,
            LockRequest::Row(row) => row.table_mode(),
        })
    }

    /// The mode this request takes on the table itself.
    fn table_side(&self) -> LockMode {
        match self {
            LockRequest::Table(mode) => *mode,
            LockRequest::Row(row) => row.intention(),
        }
    }
}

/// One row of the `M$LOCKS` monitoring view: a holder of (or waiter for)
/// locks on one table. See [`LockManager::snapshot_locks`].
#[derive(Debug, Clone)]
pub struct LockInfo {
    pub table: String,
    pub txn: TxnId,
    /// `"HELD"` or `"WAITING"`.
    pub state: &'static str,
    /// Held table modes (`"IX,S"`; empty for row-only holders) or the
    /// blocked request (`"TABLE X"`, `"ROW S"`, `"ROW X"`).
    pub mode: String,
    /// Key-range locks this transaction holds on this table.
    pub row_locks: u64,
}

fn mode_short(m: LockMode) -> &'static str {
    match m {
        LockMode::IntentShared => "IS",
        LockMode::IntentExclusive => "IX",
        LockMode::Shared => "S",
        LockMode::Exclusive => "X",
    }
}

/// A blocked request in a table's wait queue.
struct Waiter {
    txn: TxnId,
    req: LockRequest,
    /// `txn` already holds a lock on the table, so the request converts it
    /// (an S→X upgrade, an escalation, a second range).
    converts: bool,
}

#[derive(Default)]
struct TableLocks {
    /// Table-mode bitmask per holder (a transaction can hold e.g. S|IX).
    held: HashMap<TxnId, u8>,
    rows: Vec<(TxnId, RowLock)>,
    /// Blocked requests in grant order: conversions in arrival order, then
    /// every other request in arrival order.
    queue: Vec<Waiter>,
}

impl TableLocks {
    fn holds_any(&self, me: TxnId) -> bool {
        self.held.get(&me).copied().unwrap_or(0) != 0 || self.rows.iter().any(|(t, _)| *t == me)
    }

    /// The transactions `me`'s request `req` waits for: other holders it
    /// conflicts with, and the waiters in `ahead` (the queue in front of
    /// it) whose requests conflict with it. Range-lock holders are visible
    /// to table requests through their intention bits, which `acquire_row`
    /// grants atomically with the range.
    fn blockers(&self, me: TxnId, req: &LockRequest, ahead: &[Waiter]) -> Vec<TxnId> {
        let mut out = Vec::new();
        for (&txn, &bits) in &self.held {
            // A range request conflicts with another's whole-table lock
            // exactly as its intention mode would.
            if txn != me && bits != 0 && !bits_compatible(bits, req.table_side()) {
                out.push(txn);
            }
        }
        // Held ranges matter only to range requests (a table request saw
        // their intention bits above), as `LockRequest::conflicts`' row arm.
        if let LockRequest::Row(row) = req {
            for (txn, held) in &self.rows {
                if *txn != me && !out.contains(txn) && held.conflicts_with(row) {
                    out.push(*txn);
                }
            }
        }
        for w in ahead {
            if w.txn != me && !out.contains(&w.txn) && w.req.conflicts(req) {
                out.push(w.txn);
            }
        }
        out
    }
}

struct LmState {
    tables: HashMap<String, TableLocks>,
}

/// Hierarchical strict two-phase lock manager with one arrival-order wait
/// queue per table, wait-for-graph deadlock detection and a timeout
/// fallback.
pub struct LockManager {
    state: Mutex<LmState>,
    released: Condvar,
    timeout: Duration,
    escalation_threshold: usize,
    meter: Option<Arc<CostMeter>>,
}

/// Row locks a transaction may hold on one table before they are traded
/// for a single table lock. Sized so a TPC-D refresh pair at SF 0.2
/// (UF1 inserts ~1500 ORDERS+LINEITEM rows) stays row-granular.
pub const DEFAULT_ESCALATION_THRESHOLD: usize = 4096;

impl LockManager {
    /// A lock manager with the default escalation threshold and no meter;
    /// `timeout` bounds every lock wait (the deadlock backstop).
    pub fn new(timeout: Duration) -> Self {
        Self::configured(timeout, DEFAULT_ESCALATION_THRESHOLD, None)
    }

    /// Full-control constructor: `escalation_threshold` row locks per
    /// table before they are traded for one table lock (clamped to at
    /// least 1), and an optional meter that counts row locks,
    /// escalations, and conversion waits.
    pub fn configured(
        timeout: Duration,
        escalation_threshold: usize,
        meter: Option<Arc<CostMeter>>,
    ) -> Self {
        LockManager {
            state: Mutex::new(LmState { tables: HashMap::new() }),
            released: Condvar::new(),
            timeout,
            escalation_threshold: escalation_threshold.max(1),
            meter,
        }
    }

    fn count(&self, c: Counter) {
        if let Some(m) = &self.meter {
            m.bump(c);
        }
    }

    /// Acquire (or convert to) table-level `mode` on `table` for
    /// transaction `me`, blocking while conflicting holders or earlier
    /// conflicting waiters exist. Returns the wall-clock time spent
    /// blocked (zero when granted immediately).
    pub fn acquire(&self, me: TxnId, table: &str, mode: LockMode) -> DbResult<Duration> {
        let key = table.to_ascii_uppercase();
        let mut st = self.state.lock();
        if Self::table_covered(&st, me, &key, mode) {
            return Ok(Duration::ZERO);
        }
        let waited = self.wait_for_grant(&mut st, me, &key, LockRequest::Table(mode))?;
        *st.tables.entry(key).or_default().held.entry(me).or_insert(0) |= mode.bit();
        Ok(waited)
    }

    /// Acquire a key-range lock (granting the matching intention lock on
    /// the table as part of the same request). Escalates to a table lock
    /// once `me` holds more than the escalation threshold of ranges here.
    pub fn acquire_row(&self, me: TxnId, table: &str, row: RowLock) -> DbResult<Duration> {
        let key = table.to_ascii_uppercase();
        let mut st = self.state.lock();
        if Self::row_covered(&st, me, &key, &row) {
            return Ok(Duration::ZERO);
        }
        let intention = row.intention();
        let waited = self.wait_for_grant(&mut st, me, &key, LockRequest::Row(row.clone()))?;
        let t = st.tables.entry(key.clone()).or_default();
        *t.held.entry(me).or_insert(0) |= intention.bit();
        t.rows.push((me, row));
        self.count(Counter::RowLocks);
        let mine = t.rows.iter().filter(|(txn, _)| *txn == me).count();
        if mine <= self.escalation_threshold {
            return Ok(waited);
        }
        // Escalate: trade all of `me`'s ranges here for the one table lock
        // covering them (X if any range is exclusive, else S).
        let mode = t
            .rows
            .iter()
            .filter(|(txn, _)| *txn == me)
            .map(|(_, r)| r.table_mode())
            .find(|m| *m == LockMode::Exclusive)
            .unwrap_or(LockMode::Shared);
        let escalation_wait = self.wait_for_grant(&mut st, me, &key, LockRequest::Table(mode))?;
        let t = st.tables.entry(key).or_default();
        *t.held.entry(me).or_insert(0) |= mode.bit();
        t.rows.retain(|(txn, _)| *txn != me);
        self.count(Counter::LockEscalations);
        Ok(waited + escalation_wait)
    }

    /// Release every lock `me` holds and wake blocked requesters.
    pub fn release_all(&self, me: TxnId) {
        let mut st = self.state.lock();
        st.tables.retain(|_, t| {
            t.held.remove(&me);
            t.rows.retain(|(txn, _)| *txn != me);
            !t.held.is_empty() || !t.rows.is_empty() || !t.queue.is_empty()
        });
        self.released.notify_all();
    }

    /// Tables `me` currently holds locks on (for tests / introspection).
    pub fn held(&self, me: TxnId) -> Vec<String> {
        let st = self.state.lock();
        let mut out: Vec<String> = st
            .tables
            .iter()
            .filter(|(_, t)| t.holds_any(me))
            .map(|(name, _)| name.clone())
            .collect();
        out.sort();
        out
    }

    /// Number of key-range locks `me` holds on `table` (zero after an
    /// escalation traded them for a table lock).
    pub fn row_lock_count(&self, me: TxnId, table: &str) -> usize {
        let key = table.to_ascii_uppercase();
        let st = self.state.lock();
        st.tables.get(&key).map_or(0, |t| t.rows.iter().filter(|(txn, _)| *txn == me).count())
    }

    /// Does `me` hold a whole-table (non-intention) lock on `table`?
    pub fn holds_table_lock(&self, me: TxnId, table: &str) -> bool {
        let key = table.to_ascii_uppercase();
        let st = self.state.lock();
        st.tables.get(&key).is_some_and(|t| {
            let bits = t.held.get(&me).copied().unwrap_or(0);
            bits & (LockMode::Shared.bit() | LockMode::Exclusive.bit()) != 0
        })
    }

    /// True when no transaction holds or waits for anything (test hook for
    /// "no phantom holders survive release_all").
    pub fn is_quiescent(&self) -> bool {
        self.state.lock().tables.is_empty()
    }

    /// Point-in-time picture of the whole lock table for the M$LOCKS
    /// monitoring view: one entry per (table, holder) and one per waiter,
    /// sorted by table then transaction. Takes the state mutex briefly;
    /// never blocks on any lock.
    pub fn snapshot_locks(&self) -> Vec<LockInfo> {
        let st = self.state.lock();
        let mut out = Vec::new();
        for (name, t) in &st.tables {
            let mut holders: Vec<TxnId> = t.held.keys().copied().collect();
            holders.extend(t.rows.iter().map(|(txn, _)| *txn));
            holders.sort_unstable();
            holders.dedup();
            for txn in holders {
                let bits = t.held.get(&txn).copied().unwrap_or(0);
                let mode = LockMode::ALL
                    .into_iter()
                    .filter(|m| bits & m.bit() != 0)
                    .map(mode_short)
                    .collect::<Vec<_>>()
                    .join(",");
                let row_locks = t.rows.iter().filter(|(holder, _)| *holder == txn).count() as u64;
                out.push(LockInfo { table: name.clone(), txn, state: "HELD", mode, row_locks });
            }
            for w in &t.queue {
                let mode = match &w.req {
                    LockRequest::Table(m) => format!("TABLE {}", mode_short(*m)),
                    LockRequest::Row(r) => match r.mode {
                        RowMode::Shared => "ROW S".to_string(),
                        RowMode::Exclusive => "ROW X".to_string(),
                    },
                };
                out.push(LockInfo {
                    table: name.clone(),
                    txn: w.txn,
                    state: "WAITING",
                    mode,
                    row_locks: 0,
                });
            }
        }
        drop(st);
        out.sort_by(|a, b| {
            a.table.cmp(&b.table).then(a.txn.cmp(&b.txn)).then(a.state.cmp(b.state))
        });
        out
    }

    /// Block until `req` is grantable (the caller applies the grant while
    /// the state lock is still held). The one grant rule: no other holder
    /// conflicts with `req` and no waiter queued ahead of it does. A
    /// request that cannot be granted joins the table's queue: behind
    /// earlier conversions if it converts a lock `me` already holds,
    /// otherwise at the back.
    fn wait_for_grant(
        &self,
        st: &mut parking_lot::MutexGuard<'_, LmState>,
        me: TxnId,
        key: &str,
        req: LockRequest,
    ) -> DbResult<Duration> {
        // No entry: nobody holds or waits for anything on the table.
        let Some(t) = st.tables.get_mut(key) else { return Ok(Duration::ZERO) };
        let converts = t.holds_any(me);
        let place = if converts {
            t.queue.iter().take_while(|w| w.converts).count()
        } else {
            t.queue.len()
        };
        if t.blockers(me, &req, &t.queue[..place]).is_empty() {
            return Ok(Duration::ZERO);
        }
        if converts && matches!(req, LockRequest::Table(_)) {
            self.count(Counter::UpgradeWaits);
        }
        t.queue.insert(place, Waiter { txn: me, req, converts });
        let start = Instant::now();
        let outcome = loop {
            if Self::waits_for(st, me).is_empty() {
                break Ok(start.elapsed());
            }
            if Self::in_cycle(st, me) {
                break Err(format!("transaction {me} aborted: deadlock on table {key}"));
            }
            if start.elapsed() >= self.timeout {
                break Err(format!("transaction {me} aborted: lock wait timeout on table {key}"));
            }
            // Wake periodically even without a release so a cycle formed by
            // two requests registering simultaneously is still detected.
            let tick = self.timeout.min(Duration::from_millis(20));
            self.released.wait_for(st, tick);
        };
        if let Some(t) = st.tables.get_mut(key) {
            t.queue.retain(|w| w.txn != me);
        }
        // Leaving the queue may make the waiters behind `me` grantable.
        self.released.notify_all();
        outcome.map_err(DbError::Deadlock)
    }

    fn table_covered(st: &LmState, me: TxnId, key: &str, mode: LockMode) -> bool {
        let bits = st.tables.get(key).and_then(|t| t.held.get(&me)).copied().unwrap_or(0);
        LockMode::ALL.into_iter().any(|m| bits & m.bit() != 0 && m.covers(mode))
    }

    fn row_covered(st: &LmState, me: TxnId, key: &str, row: &RowLock) -> bool {
        if Self::table_covered(st, me, key, row.table_mode()) {
            return true;
        }
        let Some(t) = st.tables.get(key) else { return false };
        t.rows.iter().any(|(txn, held)| {
            *txn == me
                && (held.mode == RowMode::Exclusive || row.mode == RowMode::Shared)
                && held.range.contains(&row.range)
        })
    }

    /// The transactions `txn`'s queued request waits for (none when it is
    /// not queued anywhere).
    fn waits_for(st: &LmState, txn: TxnId) -> Vec<TxnId> {
        st.tables
            .values()
            .find_map(|t| {
                let at = t.queue.iter().position(|w| w.txn == txn)?;
                Some(t.blockers(txn, &t.queue[at].req, &t.queue[..at]))
            })
            .unwrap_or_default()
    }

    /// Does the wait-for graph contain a cycle through `me`? Edges run from
    /// each waiter to the holders and earlier queued waiters blocking it.
    fn in_cycle(st: &LmState, me: TxnId) -> bool {
        let mut visited = HashSet::new();
        let mut stack = Self::waits_for(st, me);
        while let Some(n) = stack.pop() {
            if n == me {
                return true;
            }
            if visited.insert(n) {
                stack.extend(Self::waits_for(st, n));
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, Ordering};

    fn key(i: i64) -> Vec<u8> {
        crate::storage::codec::encode_key(&[crate::types::Value::Int(i)])
    }

    #[test]
    fn compatibility_matrix() {
        use LockMode::*;
        let compat = |a, b| LockMode::compatible(a, b);
        assert!(compat(IntentShared, IntentShared));
        assert!(compat(IntentShared, IntentExclusive));
        assert!(compat(IntentShared, Shared));
        assert!(!compat(IntentShared, Exclusive));
        assert!(compat(IntentExclusive, IntentExclusive));
        assert!(!compat(IntentExclusive, Shared));
        assert!(compat(Shared, Shared));
        assert!(!compat(Shared, IntentExclusive));
        for m in LockMode::ALL {
            assert!(!compat(Exclusive, m));
            assert!(!compat(m, Exclusive));
        }
    }

    #[test]
    fn key_ranges_overlap_and_contain() {
        let r = |a: i64, b: i64| KeyRange::span(Some(&key(a)), Some(&key(b)));
        assert!(r(1, 10).overlaps(&r(10, 20)), "inclusive bounds touch");
        assert!(!r(1, 9).overlaps(&r(10, 20)));
        assert!(r(1, 100).contains(&r(5, 50)));
        assert!(!r(5, 50).contains(&r(1, 100)));
        assert!(KeyRange::all().contains(&r(1, 100)));
        assert!(KeyRange::all().overlaps(&KeyRange::point(&key(7))));
        assert!(r(1, 10).overlaps(&KeyRange::point(&key(10))));
        assert!(!r(1, 10).overlaps(&KeyRange::point(&key(11))));
        // A point on a key prefix covers composite keys extending it.
        let prefix = KeyRange::point(&key(3));
        let composite = crate::storage::codec::encode_key(&[
            crate::types::Value::Int(3),
            crate::types::Value::Int(9),
        ]);
        assert!(prefix.overlaps(&KeyRange::point(&composite)));
    }

    #[test]
    fn range_locks_on_disjoint_keys_do_not_conflict() {
        let lm = LockManager::new(Duration::from_millis(200));
        lm.acquire_row(1, "t", RowLock::shared(KeyRange::span(Some(&key(1)), Some(&key(100)))))
            .unwrap();
        // Disjoint writer proceeds; overlapping writer deadlock-times-out.
        lm.acquire_row(2, "t", RowLock::exclusive(KeyRange::point(&key(200)))).unwrap();
        assert!(matches!(
            lm.acquire_row(2, "t", RowLock::exclusive(KeyRange::point(&key(50)))),
            Err(DbError::Deadlock(_))
        ));
        // Insert of a new key inside the read range conflicts (phantom
        // protection for static predicate ranges)...
        assert!(matches!(
            lm.acquire_row(2, "t", RowLock::insert(KeyRange::point(&key(60)))),
            Err(DbError::Deadlock(_))
        ));
        lm.release_all(1);
        lm.release_all(2);
        // ...but not with an existing-rows-only reader (which spans the
        // whole key space here).
        lm.acquire_row(3, "t", RowLock::shared_existing(KeyRange::all())).unwrap();
        lm.acquire_row(2, "t", RowLock::insert(KeyRange::point(&key(60)))).unwrap();
        // The existing reader does conflict with a delete range.
        assert!(matches!(
            lm.acquire_row(4, "t", RowLock::exclusive(KeyRange::span(None, Some(&key(10))))),
            Err(DbError::Deadlock(_))
        ));
        assert!(!lm.is_quiescent());
        lm.release_all(2);
        lm.release_all(3);
        assert!(lm.is_quiescent());
    }

    #[test]
    fn table_lock_excludes_row_locks_and_vice_versa() {
        let lm = LockManager::new(Duration::from_millis(150));
        lm.acquire(1, "t", LockMode::Shared).unwrap();
        // Reader under IS coexists with table S; row writer does not.
        lm.acquire_row(2, "t", RowLock::shared(KeyRange::point(&key(1)))).unwrap();
        assert!(lm.acquire_row(3, "t", RowLock::exclusive(KeyRange::point(&key(9)))).is_err());
        lm.release_all(1);
        lm.acquire_row(3, "t", RowLock::exclusive(KeyRange::point(&key(9)))).unwrap();
        // Row X (via IX) blocks a whole-table S request.
        assert!(lm.acquire(4, "t", LockMode::Shared).is_err());
        lm.release_all(2);
        lm.release_all(3);
        lm.acquire(4, "t", LockMode::Shared).unwrap();
    }

    #[test]
    fn conversion_waits_for_readers_to_drain() {
        let lm = Arc::new(LockManager::configured(
            Duration::from_secs(5),
            DEFAULT_ESCALATION_THRESHOLD,
            Some(CostMeter::new()),
        ));
        lm.acquire(1, "t", LockMode::Shared).unwrap();
        lm.acquire(2, "t", LockMode::Shared).unwrap();
        let released = Arc::new(AtomicBool::new(false));
        let lm2 = Arc::clone(&lm);
        let rel2 = Arc::clone(&released);
        let h = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(80));
            rel2.store(true, Ordering::SeqCst);
            lm2.release_all(2);
        });
        // The upgrade must wait for txn 2 rather than abort immediately.
        let waited = lm.acquire(1, "t", LockMode::Exclusive).unwrap();
        assert!(released.load(Ordering::SeqCst), "upgrade granted only after the reader left");
        assert!(waited > Duration::ZERO);
        h.join().unwrap();
        assert_eq!(lm.meter.as_ref().unwrap().get(Counter::UpgradeWaits), 1);
    }

    #[test]
    fn pending_upgrader_blocks_new_readers() {
        let lm = Arc::new(LockManager::new(Duration::from_secs(5)));
        lm.acquire(1, "t", LockMode::Shared).unwrap();
        lm.acquire(2, "t", LockMode::Shared).unwrap();
        let lm2 = Arc::clone(&lm);
        let upgrader = std::thread::spawn(move || lm2.acquire(1, "t", LockMode::Exclusive));
        std::thread::sleep(Duration::from_millis(60));
        // A brand-new reader must queue behind the pending upgrade (no
        // starvation), even though its mode is compatible with the
        // current holders.
        let lm3 = Arc::clone(&lm);
        let reader_done = Arc::new(AtomicBool::new(false));
        let done2 = Arc::clone(&reader_done);
        let reader = std::thread::spawn(move || {
            let r = lm3.acquire(3, "t", LockMode::Shared);
            done2.store(true, Ordering::SeqCst);
            r
        });
        std::thread::sleep(Duration::from_millis(80));
        assert!(!reader_done.load(Ordering::SeqCst), "reader must queue behind the upgrader");
        lm.release_all(2);
        upgrader.join().unwrap().unwrap();
        lm.release_all(1);
        reader.join().unwrap().unwrap();
    }

    #[test]
    fn two_simultaneous_upgraders_deadlock_one_victim() {
        let lm = Arc::new(LockManager::new(Duration::from_secs(5)));
        lm.acquire(1, "t", LockMode::Shared).unwrap();
        lm.acquire(2, "t", LockMode::Shared).unwrap();
        let lm2 = Arc::clone(&lm);
        let a = std::thread::spawn(move || {
            let r = lm2.acquire(1, "t", LockMode::Exclusive);
            if r.is_err() {
                lm2.release_all(1);
            }
            r
        });
        let lm3 = Arc::clone(&lm);
        let b = std::thread::spawn(move || {
            let r = lm3.acquire(2, "t", LockMode::Exclusive);
            if r.is_err() {
                lm3.release_all(2);
            }
            r
        });
        let ra = a.join().unwrap();
        let rb = b.join().unwrap();
        assert!(
            ra.is_ok() != rb.is_ok(),
            "exactly one upgrader wins, the other is the deadlock victim: {ra:?} {rb:?}"
        );
    }

    type Order = Arc<parking_lot::Mutex<Vec<TxnId>>>;

    /// Request `req` on `table` for `txn` on its own thread, appending
    /// `txn` to `order` once granted.
    fn request(
        lm: &Arc<LockManager>,
        order: &Order,
        txn: TxnId,
        table: &'static str,
        req: LockRequest,
    ) -> std::thread::JoinHandle<DbResult<Duration>> {
        let (lm, order) = (Arc::clone(lm), Arc::clone(order));
        std::thread::spawn(move || {
            let granted = match req {
                LockRequest::Table(mode) => lm.acquire(txn, table, mode),
                LockRequest::Row(row) => lm.acquire_row(txn, table, row),
            };
            if granted.is_ok() {
                order.lock().push(txn);
            }
            granted
        })
    }

    /// Does `txn` show up queued in `M$LOCKS` within two seconds?
    fn queued(lm: &LockManager, txn: TxnId) -> bool {
        let deadline = Instant::now() + Duration::from_secs(2);
        while Instant::now() < deadline {
            if lm.snapshot_locks().iter().any(|l| l.txn == txn && l.state == "WAITING") {
                return true;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        false
    }

    #[test]
    fn table_x_waiter_is_not_passed_by_a_later_reader() {
        let lm = Arc::new(LockManager::new(Duration::from_secs(5)));
        let order = Order::default();
        lm.acquire(1, "t", LockMode::Shared).unwrap();
        let writer = request(&lm, &order, 2, "t", LockRequest::Table(LockMode::Exclusive));
        assert!(queued(&lm, 2), "the writer waits for the reader");
        let reader = request(&lm, &order, 3, "t", LockRequest::Table(LockMode::Shared));
        assert!(queued(&lm, 3), "a later S must queue behind the X waiter");
        lm.release_all(1);
        writer.join().unwrap().unwrap();
        lm.release_all(2);
        reader.join().unwrap().unwrap();
        assert_eq!(*order.lock(), [2, 3]);
    }

    #[test]
    fn range_writer_waiter_is_not_passed_by_a_later_table_reader() {
        let lm = Arc::new(LockManager::new(Duration::from_secs(5)));
        let order = Order::default();
        lm.acquire(1, "t", LockMode::Shared).unwrap();
        let row_x = LockRequest::Row(RowLock::exclusive(KeyRange::point(&key(7))));
        let writer = request(&lm, &order, 2, "t", row_x);
        assert!(queued(&lm, 2), "IX plus an exclusive range waits for table S");
        let reader = request(&lm, &order, 3, "t", LockRequest::Table(LockMode::Shared));
        assert!(queued(&lm, 3), "a later table S must queue behind the range writer");
        lm.release_all(1);
        writer.join().unwrap().unwrap();
        lm.release_all(2);
        reader.join().unwrap().unwrap();
        assert_eq!(*order.lock(), [2, 3]);
    }

    #[test]
    fn deadlock_closed_by_a_queue_edge_is_detected() {
        use LockMode::{Exclusive, Shared};
        let timeout = Duration::from_secs(10);
        let lm = Arc::new(LockManager::new(timeout));
        let order = Order::default();
        lm.acquire(1, "a", Shared).unwrap();
        lm.acquire(3, "c", Shared).unwrap();
        let t2 = request(&lm, &order, 2, "a", LockRequest::Table(Exclusive));
        assert!(queued(&lm, 2));
        let t3 = request(&lm, &order, 3, "a", LockRequest::Table(Shared));
        assert!(queued(&lm, 3), "S(a) queues behind the X(a) waiter");
        // T1 -> T3 (holder of S(c)) -> T2 (queued ahead of T3 on a) -> T1.
        let start = Instant::now();
        let err = lm.acquire(1, "c", Exclusive).unwrap_err();
        assert!(matches!(&err, DbError::Deadlock(m) if m.contains("deadlock")), "{err}");
        assert!(start.elapsed() < timeout / 4, "found by the graph, not the timeout");
        lm.release_all(1);
        t2.join().unwrap().unwrap();
        lm.release_all(2);
        t3.join().unwrap().unwrap();
        lm.release_all(3);
        assert_eq!(*order.lock(), [2, 3]);
        assert!(lm.is_quiescent());
    }

    #[test]
    fn holder_takes_a_second_range_past_a_queued_table_writer() {
        let lm = Arc::new(LockManager::new(Duration::from_secs(5)));
        let order = Order::default();
        lm.acquire_row(1, "t", RowLock::shared(KeyRange::point(&key(1)))).unwrap();
        let writer = request(&lm, &order, 2, "t", LockRequest::Table(LockMode::Exclusive));
        assert!(queued(&lm, 2));
        // T1 already holds a lock on the table: its request converts, so it
        // is not queued behind T2 (which waits for T1 — plain FIFO would
        // deadlock here).
        let waited = lm.acquire_row(1, "t", RowLock::exclusive(KeyRange::point(&key(2)))).unwrap();
        assert_eq!(waited, Duration::ZERO);
        lm.release_all(1);
        writer.join().unwrap().unwrap();
        lm.release_all(2);
        assert!(lm.is_quiescent());
    }

    #[test]
    fn escalation_trades_ranges_for_a_table_lock() {
        let meter = CostMeter::new();
        let lm = LockManager::configured(Duration::from_millis(200), 4, Some(Arc::clone(&meter)));
        for i in 0..4 {
            lm.acquire_row(1, "t", RowLock::insert(KeyRange::point(&key(i)))).unwrap();
        }
        assert_eq!(lm.row_lock_count(1, "t"), 4);
        assert!(!lm.holds_table_lock(1, "t"));
        lm.acquire_row(1, "t", RowLock::insert(KeyRange::point(&key(99)))).unwrap();
        assert_eq!(lm.row_lock_count(1, "t"), 0, "ranges traded for the table lock");
        assert!(lm.holds_table_lock(1, "t"));
        assert_eq!(meter.get(Counter::LockEscalations), 1);
        assert_eq!(meter.get(Counter::RowLocks), 5);
        // The escalated X excludes even disjoint row locks now.
        assert!(lm.acquire_row(2, "t", RowLock::exclusive(KeyRange::point(&key(1000)))).is_err());
        lm.release_all(1);
        assert!(lm.is_quiescent());
    }
}
