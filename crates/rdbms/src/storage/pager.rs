//! The pager: an in-memory "disk" plus an LRU buffer pool with I/O metering.
//!
//! All pages live authoritatively in one in-memory vector (the simulated
//! disk). The buffer pool tracks which pages are *resident*; touching a
//! non-resident page charges one physical read to the [`CostMeter`] —
//! sequential or random according to the caller-declared access pattern —
//! and evicting a dirty page charges one physical write. This reproduces
//! the paper's 10 MB-buffer environment deterministically: a query's I/O
//! bill depends only on its access pattern and the pool size, never on
//! host-machine timing.

use crate::clock::{CostMeter, Counter};
use crate::error::{DbError, DbResult};
use crate::storage::page::{Page, PageId, PAGE_SIZE};
use parking_lot::Mutex;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

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

/// Queue entries tolerated beyond twice the resident count before stale
/// ones are swept (keeps tiny pools from sweeping on every other access).
const LRU_SLACK: usize = 64;

struct Resident {
    dirty: bool,
    stamp: u64,
}

struct PagerInner {
    /// The simulated disk; `None` marks a freed page, which nothing can
    /// read, write or stamp until `allocate` hands its id out again.
    pages: Vec<Option<Page>>,
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

impl PagerInner {
    fn page_mut(&mut self, pid: PageId) -> DbResult<&mut Page> {
        match self.pages.get_mut(pid as usize) {
            Some(Some(page)) => Ok(page),
            Some(None) => Err(DbError::storage(format!("page {pid} is free"))),
            None => Err(DbError::storage(format!("page {pid} does not exist"))),
        }
    }

    fn touch(&mut self, pid: PageId) {
        let stamp = self.next_stamp;
        self.next_stamp += 1;
        if let Some(r) = self.resident.get_mut(&pid) {
            r.stamp = stamp;
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

    /// Make `pid` resident, charging a read if it was not.
    fn ensure_resident(&mut self, pid: PageId, pattern: AccessPattern, meter: &CostMeter) {
        if self.resident.contains_key(&pid) {
            self.touch(pid);
            return;
        }
        match pattern {
            AccessPattern::Sequential => meter.bump(Counter::SeqPageReads),
            AccessPattern::Random => meter.bump(Counter::RandPageReads),
        }
        self.evict_if_needed(meter);
        self.resident.insert(pid, Resident { dirty: false, stamp: 0 });
        self.touch(pid);
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
    inner: Mutex<PagerInner>,
    meter: Arc<CostMeter>,
    logged: AtomicBool,
}

impl Pager {
    pub fn new(config: PagerConfig, meter: Arc<CostMeter>) -> Arc<Self> {
        Arc::new(Pager {
            inner: Mutex::new(PagerInner {
                pages: Vec::new(),
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
        let mut g = self.inner.lock();
        let pid = match g.free_list.pop() {
            Some(pid) => {
                g.pages[pid as usize] = Some(Page::new());
                pid
            }
            None => {
                g.pages.push(Some(Page::new()));
                (g.pages.len() - 1) as PageId
            }
        };
        g.evict_if_needed(&self.meter);
        g.resident.insert(pid, Resident { dirty: true, stamp: 0 });
        g.touch(pid);
        pid
    }

    /// Return a page to the free list. Its contents are discarded: it
    /// leaves the pool without a write-back charge and the dirty-page
    /// table without a trace (its queue entries go stale like an evicted
    /// page's). Freeing a page that is not allocated does nothing.
    pub fn free(&self, pid: PageId) {
        let mut g = self.inner.lock();
        if g.page_mut(pid).is_err() {
            return;
        }
        g.pages[pid as usize] = None;
        g.resident.remove(&pid);
        g.dirty_lsn.remove(&pid);
        g.free_list.push(pid);
    }

    /// Stamp a page's LSN after its mutation was logged: raises the page
    /// LSN (monotone) and enters the page into the dirty-page table with
    /// this LSN as its recovery LSN if it is not already there.
    pub fn stamp_lsn(&self, pid: PageId, lsn: u64) {
        let mut g = self.inner.lock();
        if let Ok(page) = g.page_mut(pid) {
            page.stamp_lsn(lsn);
            g.dirty_lsn.entry(pid).or_insert(lsn);
        }
    }

    /// The page LSN (0 for unlogged, freed or nonexistent pages).
    pub fn page_lsn(&self, pid: PageId) -> u64 {
        self.inner.lock().page_mut(pid).map_or(0, |p| p.lsn())
    }

    /// The dirty-page table: (page id, recovery LSN) for every page whose
    /// logged changes have not been written back, sorted by page id.
    /// Logged in fuzzy checkpoints ([`crate::wal::LogPayload::CheckpointEnd`]).
    pub fn dirty_page_table(&self) -> Vec<(PageId, u64)> {
        let g = self.inner.lock();
        let mut dpt: Vec<_> = g.dirty_lsn.iter().map(|(&p, &l)| (p, l)).collect();
        dpt.sort_unstable();
        dpt
    }

    /// Read access to a page.
    pub fn read<R>(
        &self,
        pid: PageId,
        pattern: AccessPattern,
        f: impl FnOnce(&Page) -> R,
    ) -> DbResult<R> {
        let mut g = self.inner.lock();
        g.page_mut(pid)?;
        g.ensure_resident(pid, pattern, &self.meter);
        Ok(f(g.page_mut(pid)?))
    }

    /// Write access to a page; marks it dirty.
    pub fn write<R>(
        &self,
        pid: PageId,
        pattern: AccessPattern,
        f: impl FnOnce(&mut Page) -> R,
    ) -> DbResult<R> {
        let mut g = self.inner.lock();
        g.page_mut(pid)?;
        g.ensure_resident(pid, pattern, &self.meter);
        g.resident.get_mut(&pid).expect("resident").dirty = true;
        Ok(f(g.page_mut(pid)?))
    }

    /// Total pages ever allocated minus freed (database footprint).
    pub fn allocated_pages(&self) -> usize {
        let g = self.inner.lock();
        g.pages.len() - g.free_list.len()
    }

    /// Number of currently resident pages (for tests).
    pub fn resident_pages(&self) -> usize {
        self.inner.lock().resident.len()
    }

    /// Drop the whole buffer pool content (e.g. between power-test queries
    /// if a cold cache is desired). Dirty pages are "written back" and
    /// charged.
    pub fn flush_all(&self) {
        let mut g = self.inner.lock();
        let dirty = g.resident.values().filter(|r| r.dirty).count();
        self.meter.add(Counter::PageWrites, dirty as u64);
        g.resident.clear();
        g.lru.clear();
        // Everything is now "on disk": the dirty-page table empties, so the
        // next checkpoint records a higher redo bound.
        g.dirty_lsn.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::Counter;
    use proptest::prelude::*;
    use std::collections::HashSet;

    fn pager(pool_pages: usize) -> Arc<Pager> {
        Pager::new(PagerConfig { pool_pages }, CostMeter::new())
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
        let g = p.inner.lock();
        assert_eq!(g.resident.len(), 32);
        assert!(
            g.lru.len() <= 2 * g.resident.len() + LRU_SLACK + 1,
            "1M hits on 32 resident pages left {} queue entries",
            g.lru.len()
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
                    let before: HashSet<PageId> =
                        p.inner.lock().resident.keys().copied().collect();
                    p.read(pid, AccessPattern::Random, |_| ()).unwrap();
                    let after: HashSet<PageId> =
                        p.inner.lock().resident.keys().copied().collect();
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
