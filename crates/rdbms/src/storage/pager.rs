//! The pager: an in-memory "disk" plus an LRU buffer pool with I/O metering.
//!
//! All pages live authoritatively in a page store (the simulated disk). The
//! buffer pool tracks which pages are *resident*; touching a non-resident
//! page charges one physical read to the [`CostMeter`] — sequential or
//! random according to the caller-declared access pattern — and evicting a
//! dirty page charges one physical write. This reproduces the paper's
//! 10 MB-buffer environment deterministically: a query's I/O bill depends
//! only on its access pattern and the pool size, never on host-machine
//! timing.
//!
//! Two kinds of lock keep work processes out of each other's way unless
//! they touch the same page (DESIGN.md §16.4):
//!
//! * every page has its own latch, shared for [`Pager::read`] and exclusive
//!   for [`Pager::write`], held while the caller's closure runs — decoding,
//!   encoding and row fetches run under it and nothing else;
//! * the pool lock covers the residency bookkeeping (LRU order, dirty-page
//!   table, free list) only. It is a leaf: never held across a closure and
//!   never while another lock is taken.
//!
//! Lock order: a heap's or an index's own lock, then one page latch, then
//! the pool lock. A closure holds its page's latch, so it must not call the
//! pager again.

use crate::error::{DbError, DbResult};
use crate::storage::page::{Page, PageId, PAGE_SIZE};
use parking_lot::{Mutex, RwLock};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};
use trace::meter::{CostMeter, Counter};

/// Declared access pattern of a page read, used to split I/O metering.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessPattern {
    /// Part of a scan over consecutive pages (amortized transfer cost).
    Sequential,
    /// An isolated fetch (index traversal, RID fetch): full seek cost.
    Random,
}

/// Buffer pool configuration.
#[derive(Debug, Clone, Copy)]
pub struct PagerConfig {
    /// Buffer pool capacity in pages. The paper's default SAP installation
    /// gives the RDBMS 10 MB of buffer: 1280 pages of 8 KB.
    pub pool_pages: usize,
}

impl Default for PagerConfig {
    fn default() -> Self {
        PagerConfig { pool_pages: 10 * 1024 * 1024 / PAGE_SIZE }
    }
}

impl PagerConfig {
    pub fn with_pool_bytes(bytes: usize) -> Self {
        PagerConfig { pool_pages: (bytes / PAGE_SIZE).max(8) }
    }
}

/// A page's latch. `None` marks a freed page (or an id not handed out
/// yet), which nothing can read, write or stamp until `allocate` hands
/// its id out.
type Latch = RwLock<Option<Page>>;

/// The page store's first segment holds `2^FIRST_SEGMENT_BITS` latches,
/// every later one twice as many as the one before it.
const FIRST_SEGMENT_BITS: u32 = 10;
/// Enough segments for every [`PageId`].
const SEGMENTS: usize = (PageId::BITS - FIRST_SEGMENT_BITS + 1) as usize;

/// The simulated disk: one latch per page id. Segments are allocated as
/// the store grows and never move, so finding a latch takes no lock.
struct PageStore {
    segments: [OnceLock<Box<[Latch]>>; SEGMENTS],
}

impl PageStore {
    fn new() -> Self {
        PageStore { segments: std::array::from_fn(|_| OnceLock::new()) }
    }

    /// Segment and offset of `pid`'s latch.
    fn locate(pid: PageId) -> (usize, usize) {
        let n = u64::from(pid) + (1 << FIRST_SEGMENT_BITS);
        let log2 = u64::BITS - 1 - n.leading_zeros();
        ((log2 - FIRST_SEGMENT_BITS) as usize, (n - (1 << log2)) as usize)
    }

    fn latch(&self, pid: PageId) -> DbResult<&Latch> {
        let (segment, at) = Self::locate(pid);
        let latches = self.segments[segment].get();
        latches
            .map(|l| &l[at])
            .ok_or_else(|| DbError::storage(format!("page {pid} does not exist")))
    }

    /// `pid`'s latch, allocating its segment first if need be.
    fn latch_or_grow(&self, pid: PageId) -> &Latch {
        let (segment, at) = Self::locate(pid);
        let len = 1usize << (segment as u32 + FIRST_SEGMENT_BITS);
        &self.segments[segment].get_or_init(|| (0..len).map(|_| RwLock::new(None)).collect())[at]
    }
}

fn freed(pid: PageId) -> DbError {
    DbError::storage(format!("page {pid} is free"))
}

/// Queue entries tolerated beyond twice the resident count before stale
/// ones are swept (keeps tiny pools from sweeping on every other access).
const LRU_SLACK: usize = 64;

struct Resident {
    dirty: bool,
    stamp: u64,
}

/// Residency bookkeeping, behind the pool lock.
struct Pool {
    /// Page ids handed out so far, freed ones included.
    pages: usize,
    free_list: Vec<PageId>,
    resident: HashMap<PageId, Resident>,
    lru: VecDeque<(PageId, u64)>,
    next_stamp: u64,
    capacity: usize,
    /// Dirty-page table for WAL checkpoints: page id -> recovery LSN (the
    /// first log record that dirtied the page since it was last written
    /// back). Only maintained when a WAL stamps LSNs.
    dirty_lsn: HashMap<PageId, u64>,
}

impl Pool {
    /// Record an access to `pid`. A page that was not resident becomes so,
    /// which charges a read of the declared pattern (`None` for a fresh
    /// page: there is nothing to read). A write access marks it dirty.
    fn access(&mut self, pid: PageId, read: Option<AccessPattern>, dirty: bool, meter: &CostMeter) {
        let stamp = self.next_stamp;
        self.next_stamp += 1;
        if let Some(r) = self.resident.get_mut(&pid) {
            r.stamp = stamp;
            r.dirty |= dirty;
        } else {
            match read {
                Some(AccessPattern::Sequential) => meter.bump(Counter::SeqPageReads),
                Some(AccessPattern::Random) => meter.bump(Counter::RandPageReads),
                None => {}
            }
            self.evict_if_needed(meter);
            self.resident.insert(pid, Resident { dirty, stamp });
        }
        self.lru.push_back((pid, stamp));
        // Every access queues an entry and only eviction pops, so a working
        // set that fits the pool would grow the queue forever. Once stale
        // entries outnumber live ones, drop them in place: order among the
        // live entries (one per resident page) is kept, so eviction stays
        // exact LRU, and each sweep is paid for by the pushes before it.
        if self.lru.len() > 2 * self.resident.len() + LRU_SLACK {
            let resident = &self.resident;
            self.lru.retain(|(pid, stamp)| resident.get(pid).is_some_and(|r| r.stamp == *stamp));
        }
    }

    fn evict_if_needed(&mut self, meter: &CostMeter) {
        while self.resident.len() >= self.capacity {
            let Some((pid, stamp)) = self.lru.pop_front() else {
                break;
            };
            let evict = match self.resident.get(&pid) {
                Some(r) if r.stamp == stamp => true,
                _ => false, // stale queue entry
            };
            if evict {
                let r = self.resident.remove(&pid).expect("checked above");
                if r.dirty {
                    meter.bump(Counter::PageWrites);
                }
            }
        }
    }
}

/// Shared pager handle.
pub struct Pager {
    store: PageStore,
    pool: Mutex<Pool>,
    meter: Arc<CostMeter>,
    logged: AtomicBool,
}

impl Pager {
    pub fn new(config: PagerConfig, meter: Arc<CostMeter>) -> Arc<Self> {
        Arc::new(Pager {
            store: PageStore::new(),
            pool: Mutex::new(Pool {
                pages: 0,
                free_list: Vec::new(),
                resident: HashMap::new(),
                lru: VecDeque::new(),
                next_stamp: 0,
                capacity: config.pool_pages.max(8),
                dirty_lsn: HashMap::new(),
            }),
            meter,
            logged: AtomicBool::new(false),
        })
    }

    pub fn meter(&self) -> &Arc<CostMeter> {
        &self.meter
    }

    /// From now on operations on this store are logged, each after it is
    /// done (set by the owning [`crate::Database`] when it has a WAL).
    pub(crate) fn set_logged(&self) {
        self.logged.store(true, Ordering::Relaxed);
    }

    /// Are operations on this store logged after they are done? A heap then
    /// keeps a slot whose row just went out of reach of inserts until the
    /// log holds the record (see [`crate::storage::HeapFile`]).
    pub fn logged(&self) -> bool {
        self.logged.load(Ordering::Relaxed)
    }

    /// Allocate a fresh page; it enters the pool dirty (no read charge).
    pub fn allocate(&self) -> PageId {
        let pid = {
            let mut pool = self.pool.lock();
            let pid = match pool.free_list.pop() {
                Some(pid) => pid,
                None => {
                    pool.pages += 1;
                    (pool.pages - 1) as PageId
                }
            };
            pool.access(pid, None, true, &self.meter);
            pid
        };
        // Until the image is stored the id reads as free; only a holder of
        // a stale id from its last life can ask.
        let page = Page::new();
        *self.store.latch_or_grow(pid).write() = Some(page);
        pid
    }

    /// Return a page to the free list. Its contents are discarded: it
    /// leaves the pool without a write-back charge and the dirty-page
    /// table without a trace (its queue entries go stale like an evicted
    /// page's). Freeing a page that is not allocated does nothing.
    pub fn free(&self, pid: PageId) {
        let Ok(latch) = self.store.latch(pid) else {
            return;
        };
        let mut page = latch.write();
        if page.take().is_some() {
            let mut pool = self.pool.lock();
            pool.resident.remove(&pid);
            pool.dirty_lsn.remove(&pid);
            pool.free_list.push(pid);
        }
    }

    /// Stamp a page's LSN after its mutation was logged: raises the page
    /// LSN (monotone) and enters the page into the dirty-page table with
    /// this LSN as its recovery LSN if it is not already there.
    pub fn stamp_lsn(&self, pid: PageId, lsn: u64) {
        let Ok(latch) = self.store.latch(pid) else {
            return;
        };
        if let Some(page) = latch.write().as_mut() {
            page.stamp_lsn(lsn);
            self.pool.lock().dirty_lsn.entry(pid).or_insert(lsn);
        }
    }

    /// The page LSN (0 for unlogged, freed or nonexistent pages).
    pub fn page_lsn(&self, pid: PageId) -> u64 {
        self.store.latch(pid).map_or(0, |latch| latch.read().as_ref().map_or(0, Page::lsn))
    }

    /// The dirty-page table: (page id, recovery LSN) for every page whose
    /// logged changes have not been written back, sorted by page id.
    /// Logged in fuzzy checkpoints ([`crate::wal::LogPayload::CheckpointEnd`]).
    pub fn dirty_page_table(&self) -> Vec<(PageId, u64)> {
        let mut dpt: Vec<_> = self.pool.lock().dirty_lsn.iter().map(|(&p, &l)| (p, l)).collect();
        dpt.sort_unstable();
        dpt
    }

    /// Read access to a page: `f` runs under the page's shared latch and
    /// must not call the pager.
    pub fn read<R>(
        &self,
        pid: PageId,
        pattern: AccessPattern,
        f: impl FnOnce(&Page) -> R,
    ) -> DbResult<R> {
        let guard = self.store.latch(pid)?.read();
        let page = guard.as_ref().ok_or_else(|| freed(pid))?;
        self.pool.lock().access(pid, Some(pattern), false, &self.meter);
        Ok(f(page))
    }

    /// Write access to a page; marks it dirty. `f` runs under the page's
    /// exclusive latch and must not call the pager.
    pub fn write<R>(
        &self,
        pid: PageId,
        pattern: AccessPattern,
        f: impl FnOnce(&mut Page) -> R,
    ) -> DbResult<R> {
        let mut guard = self.store.latch(pid)?.write();
        let page = guard.as_mut().ok_or_else(|| freed(pid))?;
        self.pool.lock().access(pid, Some(pattern), true, &self.meter);
        Ok(f(page))
    }

    /// Total pages ever allocated minus freed (database footprint).
    pub fn allocated_pages(&self) -> usize {
        let pool = self.pool.lock();
        pool.pages - pool.free_list.len()
    }

    /// Number of currently resident pages (for tests).
    pub fn resident_pages(&self) -> usize {
        self.pool.lock().resident.len()
    }

    /// Drop the whole buffer pool content (e.g. between power-test queries
    /// if a cold cache is desired). Dirty pages are "written back" and
    /// charged.
    pub fn flush_all(&self) {
        let mut pool = self.pool.lock();
        let dirty = pool.resident.values().filter(|r| r.dirty).count();
        self.meter.add(Counter::PageWrites, dirty as u64);
        pool.resident.clear();
        pool.lru.clear();
        // Everything is now "on disk": the dirty-page table empties, so the
        // next checkpoint records a higher redo bound.
        pool.dirty_lsn.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashSet;
    use trace::meter::Counter;

    fn pager(pool_pages: usize) -> Arc<Pager> {
        Pager::new(PagerConfig { pool_pages }, CostMeter::new())
    }

    fn resident_set(p: &Pager) -> HashSet<PageId> {
        p.pool.lock().resident.keys().copied().collect()
    }

    #[test]
    fn allocate_read_write_round_trip() {
        let p = pager(16);
        let pid = p.allocate();
        p.write(pid, AccessPattern::Random, |page| {
            page.insert(b"abc").unwrap();
        })
        .unwrap();
        let got =
            p.read(pid, AccessPattern::Random, |page| page.get(0).map(|b| b.to_vec())).unwrap();
        assert_eq!(got, Some(b"abc".to_vec()));
    }

    #[test]
    fn page_ids_find_their_latches_across_segments() {
        for pid in [0, 1, 1023, 1024, 3071, 3072, 1 << 20, PageId::MAX] {
            let (segment, at) = PageStore::locate(pid);
            let len = 1u64 << (segment as u32 + FIRST_SEGMENT_BITS);
            let first = len - (1 << FIRST_SEGMENT_BITS);
            assert_eq!(first + at as u64, u64::from(pid), "page {pid}");
            assert!((at as u64) < len, "page {pid}");
        }
        assert_eq!(PageStore::locate(PageId::MAX).0, SEGMENTS - 1);
        let p = pager(8);
        let pids: Vec<_> = (0..2100).map(|_| p.allocate()).collect();
        for &pid in &pids {
            p.write(pid, AccessPattern::Random, |page| page.stamp_lsn(u64::from(pid) + 1)).unwrap();
        }
        assert!(pids.iter().all(|&pid| p.page_lsn(pid) == u64::from(pid) + 1));
        assert!(p.read(2100, AccessPattern::Random, |_| ()).is_err(), "grown, not handed out");
        assert!(p.read(1 << 20, AccessPattern::Random, |_| ()).is_err(), "never grown");
    }

    #[test]
    fn fresh_allocation_charges_no_read() {
        let p = pager(16);
        let _ = p.allocate();
        assert_eq!(p.meter().get(Counter::SeqPageReads), 0);
        assert_eq!(p.meter().get(Counter::RandPageReads), 0);
    }

    #[test]
    fn cache_hit_charges_nothing_miss_charges_once() {
        let p = pager(8);
        let pid = p.allocate();
        p.read(pid, AccessPattern::Random, |_| ()).unwrap();
        assert_eq!(p.meter().get(Counter::RandPageReads), 0, "resident after alloc");

        // Evict it by touching more pages than capacity.
        let others: Vec<_> = (0..20).map(|_| p.allocate()).collect();
        for &o in &others {
            p.read(o, AccessPattern::Sequential, |_| ()).unwrap();
        }
        p.read(pid, AccessPattern::Random, |_| ()).unwrap();
        assert_eq!(p.meter().get(Counter::RandPageReads), 1, "one miss after eviction");
        p.read(pid, AccessPattern::Random, |_| ()).unwrap();
        assert_eq!(p.meter().get(Counter::RandPageReads), 1, "second read is a hit");
    }

    #[test]
    fn dirty_eviction_charges_write() {
        let p = pager(8);
        let pid = p.allocate();
        p.write(pid, AccessPattern::Random, |pg| {
            pg.insert(b"x").unwrap();
        })
        .unwrap();
        for _ in 0..20 {
            let o = p.allocate();
            p.read(o, AccessPattern::Sequential, |_| ()).unwrap();
        }
        assert!(p.meter().get(Counter::PageWrites) >= 1);
        // Data survives eviction (it lives on the simulated disk).
        let got = p.read(pid, AccessPattern::Random, |pg| pg.get(0).map(|b| b.to_vec())).unwrap();
        assert_eq!(got, Some(b"x".to_vec()));
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let p = pager(8);
        let pids: Vec<_> = (0..8).map(|_| p.allocate()).collect();
        // Touch page 0 so it's most recent.
        p.read(pids[0], AccessPattern::Random, |_| ()).unwrap();
        // Allocate one more: someone must go, and it should not be pids[0].
        let _ = p.allocate();
        p.meter().reset();
        p.read(pids[0], AccessPattern::Random, |_| ()).unwrap();
        assert_eq!(p.meter().get(Counter::RandPageReads), 0, "page 0 stayed resident");
    }

    #[test]
    fn lru_queue_stays_bounded_when_working_set_fits() {
        let p = pager(64);
        let pids: Vec<_> = (0..32).map(|_| p.allocate()).collect();
        for i in 0..1_000_000usize {
            p.read(pids[(i * 7) % pids.len()], AccessPattern::Random, |_| ()).unwrap();
        }
        let pool = p.pool.lock();
        assert_eq!(pool.resident.len(), 32);
        assert!(
            pool.lru.len() <= 2 * pool.resident.len() + LRU_SLACK + 1,
            "1M hits on 32 resident pages left {} queue entries",
            pool.lru.len()
        );
    }

    #[test]
    fn free_and_reuse() {
        let p = pager(8);
        let a = p.allocate();
        p.free(a);
        let b = p.allocate();
        assert_eq!(a, b, "freed page id is reused");
        // Reused page is fresh.
        let n = p.read(b, AccessPattern::Random, |pg| pg.nslots()).unwrap();
        assert_eq!(n, 0);
    }

    #[test]
    fn a_freed_page_is_gone_from_every_table_until_reallocated() {
        let p = pager(8);
        let keep = p.allocate();
        let pid = p.allocate();
        p.stamp_lsn(pid, 7);
        assert_eq!(p.dirty_page_table(), vec![(pid, 7)]);
        p.free(pid);
        p.free(pid); // a second free changes nothing
        assert_eq!((p.allocated_pages(), p.resident_pages()), (1, 1));
        assert!(p.read(pid, AccessPattern::Random, |_| ()).is_err());
        assert!(p.write(pid, AccessPattern::Random, |_| ()).is_err());
        p.stamp_lsn(pid, 9);
        assert_eq!((p.dirty_page_table(), p.page_lsn(pid)), (vec![], 0));
        // Discarded, not written back: no charge now or at a later flush.
        p.flush_all();
        assert_eq!(p.meter().get(Counter::PageWrites), 1, "only `keep` was written");
        assert_eq!(p.allocate(), pid);
        assert_eq!((p.allocated_pages(), p.page_lsn(pid)), (2, 0));
        p.read(keep, AccessPattern::Random, |_| ()).unwrap();
    }

    #[test]
    fn out_of_range_page_errors() {
        let p = pager(8);
        assert!(p.read(99, AccessPattern::Random, |_| ()).is_err());
        assert!(p.write(99, AccessPattern::Random, |_| ()).is_err());
    }

    /// Reference model: exact LRU as an ordered list, most recent last.
    #[derive(Default)]
    struct LruModel {
        order: Vec<PageId>,
    }

    impl LruModel {
        /// Access `pid` in a pool of `capacity`; returns the evicted page.
        fn access(&mut self, pid: PageId, capacity: usize) -> Option<PageId> {
            if let Some(pos) = self.order.iter().position(|&p| p == pid) {
                self.order.remove(pos);
                self.order.push(pid);
                return None;
            }
            let victim = (self.order.len() >= capacity).then(|| self.order.remove(0));
            self.order.push(pid);
            victim
        }
    }

    proptest! {
        /// Whatever the access string — long resident runs that trigger
        /// queue sweeps included — the pool evicts exactly the page a
        /// textbook LRU list evicts, at exactly the same access.
        #[test]
        fn eviction_sequence_equals_exact_lru(
            accesses in prop::collection::vec((0u32..24, 1usize..40), 1..120)
        ) {
            const CAP: usize = 8;
            let p = pager(CAP);
            let mut model = LruModel::default();
            let pids: Vec<PageId> = (0..24).map(|_| p.allocate()).collect();
            for &pid in &pids {
                model.access(pid, CAP);
            }
            for (which, repeat) in accesses {
                let pid = pids[which as usize];
                // Repeats are pure hits: they only lengthen the queue.
                for _ in 0..repeat {
                    let before = resident_set(&p);
                    p.read(pid, AccessPattern::Random, |_| ()).unwrap();
                    let after = resident_set(&p);
                    let evicted: Vec<PageId> = before.difference(&after).copied().collect();
                    let expected: Vec<PageId> = model.access(pid, CAP).into_iter().collect();
                    prop_assert_eq!(evicted, expected);
                    prop_assert_eq!(after.len(), model.order.len());
                }
            }
        }
    }

    #[test]
    fn flush_all_forces_cold_cache() {
        let p = pager(8);
        let pid = p.allocate();
        p.flush_all();
        p.meter().reset();
        p.read(pid, AccessPattern::Sequential, |_| ()).unwrap();
        assert_eq!(p.meter().get(Counter::SeqPageReads), 1);
    }
}
