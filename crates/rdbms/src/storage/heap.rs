//! Heap files: unordered collections of rows stored in slotted pages.
//!
//! A heap gives space back. Inserts go to one *insertion page* until a row
//! no longer fits it (after compaction, see [`Page`]); only then is the
//! free-space map consulted, and the page it yields — or, failing that, a
//! fresh one — becomes the insertion page. The map holds the pages with
//! room for a quarter-page row and is fed only by deletes, so a load
//! without deletes places every row exactly where appending to the tail
//! would. A page whose last tuple dies goes back to the pager, unless it is
//! the insertion page.
//!
//! Every access takes the heap's own lock (shared for reads) and checks
//! that the page still belongs to this heap, so a `Rid` that outlived its
//! page reads as "no such row" whatever the page holds by then. A `Rid`
//! that outlived its *row* can name the slot's next tenant. Two things keep
//! that from being mistaken for the row (DESIGN.md, storage):
//!
//! * [`HeapFile::version`] moves whenever a row dies, moves or is
//!   rewritten, so whoever fetches by rids it read earlier can tell that
//!   none of them changed hands in between;
//! * where operations are logged after they are done ([`Pager::logged`]),
//!   a page that a row was just deleted or moved from takes no insert until
//!   [`HeapFile::vacated_logged`] says the record is in the log: the log
//!   then names a rid's tenants in the order they had it.

use crate::error::{DbError, DbResult};
use crate::schema::Row;
use crate::storage::codec::{decode_row, encode_row};
use crate::storage::page::{Page, PageId, Rid, SlotId, PAGE_SIZE};
use crate::storage::pager::{AccessPattern, Pager};
use parking_lot::RwLock;
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Room (see [`Page::room`]) that puts a page into the free-space map.
const MAPPED_ROOM: usize = PAGE_SIZE / 4;

/// A heap file. Tracks the pages it owns plus live-row statistics
/// maintained incrementally on DML.
pub struct HeapFile {
    pager: Arc<Pager>,
    state: RwLock<HeapState>,
    version: AtomicU64,
}

#[derive(Default)]
struct HeapState {
    /// Owned pages in page-id order, which is allocation order until the
    /// pager hands a freed page out again. Scans follow it.
    pages: Vec<PageId>,
    /// The insertion page: where the last insert went. Never in `free`,
    /// never given back.
    target: Option<PageId>,
    /// The free-space map: page -> room, for every other page that a
    /// delete left with at least [`MAPPED_ROOM`].
    free: BTreeMap<PageId, u16>,
    /// Pages with slots vacated by operations the log does not hold yet,
    /// and how many: they take no insert and are neither mapped nor given
    /// back until it does.
    held: HashMap<PageId, u32>,
    live_rows: u64,
    live_bytes: u64,
}

impl HeapState {
    fn owns(&self, pid: PageId) -> bool {
        self.pages.binary_search(&pid).is_ok()
    }
}

impl HeapFile {
    pub fn new(pager: Arc<Pager>) -> Self {
        HeapFile { pager, state: RwLock::new(HeapState::default()), version: AtomicU64::new(0) }
    }

    pub fn pager(&self) -> &Arc<Pager> {
        &self.pager
    }

    /// Insert a row, returning its RID.
    pub fn insert(&self, row: &Row) -> DbResult<Rid> {
        self.place(&mut self.state.write(), &encode_row(row))
    }

    fn place(&self, st: &mut HeapState, bytes: &[u8]) -> DbResult<Rid> {
        let insert_into =
            |pid| self.pager.write(pid, AccessPattern::Random, |page| page.insert(bytes))?;
        let mut placed = None;
        if let Some(pid) = st.target.filter(|pid| !st.held.contains_key(pid)) {
            placed = insert_into(pid)?.map(|slot| Rid::new(pid, slot));
        }
        let rid = match placed {
            Some(rid) => rid,
            None => {
                let roomy = |(pid, &room): &(&PageId, &u16)| {
                    room as usize >= bytes.len() && !st.held.contains_key(pid)
                };
                let pid = match st.free.iter().find(roomy).map(|(&pid, _)| pid) {
                    Some(pid) => {
                        st.free.remove(&pid);
                        pid
                    }
                    None => {
                        let pid = self.pager.allocate();
                        let at = st.pages.partition_point(|&p| p < pid);
                        st.pages.insert(at, pid);
                        pid
                    }
                };
                st.target = Some(pid);
                let slot = insert_into(pid)?.ok_or_else(|| DbError::storage("page full"))?;
                Rid::new(pid, slot)
            }
        };
        st.live_rows += 1;
        st.live_bytes += bytes.len() as u64;
        Ok(rid)
    }

    /// Fetch one row by RID. `pattern` lets index scans charge random I/O
    /// while a clustered-order sweep can charge sequential.
    pub fn get(&self, rid: Rid, pattern: AccessPattern) -> DbResult<Option<Row>> {
        self.get_with(rid, pattern, decode_row)?.transpose()
    }

    /// Run `f` on the stored bytes of one row, in place: under the heap's
    /// shared lock and the page's read latch, which hold up no access to
    /// any other page. `f` must not call the pager (DESIGN.md §16.4).
    pub fn get_with<R>(
        &self,
        rid: Rid,
        pattern: AccessPattern,
        f: impl FnOnce(&[u8]) -> R,
    ) -> DbResult<Option<R>> {
        let st = self.state.read();
        if !st.owns(rid.page) {
            return Ok(None);
        }
        self.pager.read(rid.page, pattern, |page| page.get(rid.slot).map(f))
    }

    /// A count that moves whenever a row of this heap dies, moves or is
    /// rewritten. Read it, read rids (from an index, say), fetch by them:
    /// if the count has not moved by the time a fetch returns, the rid
    /// still named the row it was read for.
    pub fn version(&self) -> u64 {
        self.version.load(Ordering::Acquire)
    }

    /// Delete a row by RID.
    pub fn delete(&self, rid: Rid) -> DbResult<()> {
        let mut st = self.state.write();
        let (room, empty) = self.kill(&mut st, rid)?;
        self.vacated(&mut st, rid.page, room, empty);
        Ok(())
    }

    /// Take the row at `rid` out of its page and the statistics. Returns
    /// the page's room and whether it is empty now.
    fn kill(&self, st: &mut HeapState, rid: Rid) -> DbResult<(usize, bool)> {
        let dead = || DbError::storage(format!("delete of dead or missing rid {rid:?}"));
        if !st.owns(rid.page) {
            return Err(dead());
        }
        let (len, room, empty) = self.pager.write(rid.page, AccessPattern::Random, |page| {
            let len = page.get(rid.slot).map(|b| b.len()).ok_or_else(dead)?;
            page.delete(rid.slot)?;
            Ok::<_, DbError>((len, page.room(), page.nslots() == 0))
        })??;
        self.version.fetch_add(1, Ordering::Release);
        st.live_rows -= 1;
        st.live_bytes -= len as u64;
        Ok((room, empty))
    }

    /// A slot of `page` lost its row. Where the log is to hear of that
    /// later, the page is held until it has; otherwise its space is on
    /// offer at once.
    fn vacated(&self, st: &mut HeapState, page: PageId, room: usize, empty: bool) {
        if self.pager.logged() {
            *st.held.entry(page).or_default() += 1;
        } else {
            self.offer(st, page, room, empty);
        }
    }

    /// Put a page's space on offer: an empty page goes back to the pager,
    /// a roomy one into the map. Not the insertion page, which inserts try
    /// anyway.
    fn offer(&self, st: &mut HeapState, page: PageId, room: usize, empty: bool) {
        if st.target == Some(page) {
            return;
        }
        if empty {
            let at = st.pages.partition_point(|&p| p < page);
            st.pages.remove(at);
            st.free.remove(&page);
            self.pager.free(page);
        } else if room >= MAPPED_ROOM {
            st.free.insert(page, room as u16);
        }
    }

    /// The log now holds the record of one operation that vacated a slot
    /// of `page` (a delete, or an update that moved the row): once it holds
    /// them all, the page's space is on offer again.
    pub fn vacated_logged(&self, page: PageId) {
        let mut st = self.state.write();
        let Some(unlogged) = st.held.get_mut(&page) else {
            return;
        };
        *unlogged -= 1;
        if *unlogged > 0 {
            return;
        }
        st.held.remove(&page);
        let now = self.pager.read(page, AccessPattern::Random, |p| (p.room(), p.nslots() == 0));
        if let Ok((room, empty)) = now {
            self.offer(&mut st, page, room, empty);
        }
    }

    /// Update a row in place when possible; otherwise delete + reinsert.
    /// Returns the (possibly new) RID.
    pub fn update(&self, rid: Rid, row: &Row) -> DbResult<Rid> {
        let bytes = encode_row(row);
        let mut st = self.state.write();
        let dead = || DbError::storage(format!("update of dead rid {rid:?}"));
        if !st.owns(rid.page) {
            return Err(dead());
        }
        let (updated, old_len) = self.pager.write(rid.page, AccessPattern::Random, |page| {
            let old_len = page.get(rid.slot).map(|b| b.len()).ok_or_else(dead)?;
            Ok::<_, DbError>((page.update_in_place(rid.slot, &bytes)?, old_len))
        })??;
        if updated {
            self.version.fetch_add(1, Ordering::Release);
            st.live_bytes = st.live_bytes - old_len as u64 + bytes.len() as u64;
            return Ok(rid);
        }
        // The row may go back where it was, if that is the insertion page.
        let (room, empty) = self.kill(&mut st, rid)?;
        let new = self.place(&mut st, &bytes)?;
        if new != rid {
            self.vacated(&mut st, rid.page, room, empty);
        }
        Ok(new)
    }

    pub fn page_count(&self) -> usize {
        self.state.read().pages.len()
    }

    pub fn live_rows(&self) -> u64 {
        self.state.read().live_rows
    }

    /// Live data bytes (Table 2 size accounting).
    pub fn live_bytes(&self) -> u64 {
        self.state.read().live_bytes
    }

    /// Full sequential scan in physical order.
    pub fn scan(&self) -> HeapScan<'_> {
        HeapScan { heap: self, page: Page::new(), pid: None, next_slot: 0 }
    }
}

/// Cursor over the live rows of a heap file in physical order. Each page
/// is copied out of the store once (one 8 KB memcpy under the page's read
/// latch), so rows are decoded — and callers' predicates run — without
/// holding it: a predicate may scan this same table, and a second read of
/// a latched page can wait behind a waiting writer.
/// The cursor remembers the last page it copied and asks the heap for the
/// next one it owns, so pages freed or added while it runs are skipped or
/// met, never misread.
/// As an [`Iterator`] it yields fully decoded `(Rid, Row)`;
/// [`HeapScan::next_tuple`] lends the stored bytes instead, for callers
/// that decode only some columns.
pub struct HeapScan<'a> {
    heap: &'a HeapFile,
    /// Private copy of page `pid`; slots below `next_slot` are consumed.
    page: Page,
    pid: Option<PageId>,
    next_slot: SlotId,
}

impl HeapScan<'_> {
    /// The next live row as its stored bytes, valid until the next call.
    pub fn next_tuple(&mut self) -> Option<DbResult<(Rid, &[u8])>> {
        loop {
            if let Some(pid) = self.pid {
                while self.next_slot < self.page.nslots() {
                    let slot = self.next_slot;
                    self.next_slot += 1;
                    // (Looked up twice: returning the first borrow from inside
                    // the loop would keep `self` borrowed across iterations.)
                    if self.page.get(slot).is_some() {
                        let rid = Rid::new(pid, slot);
                        return self.page.get(slot).map(|bytes| Ok((rid, bytes)));
                    }
                }
            }
            let heap = self.heap;
            let st = heap.state.read();
            let at = self.pid.map_or(0, |last| st.pages.partition_point(|&p| p <= last));
            let &pid = st.pages.get(at)?;
            let copy = &mut self.page;
            if let Err(e) = heap.pager.read(pid, AccessPattern::Sequential, |page| {
                copy.raw_mut().copy_from_slice(page.raw())
            }) {
                return Some(Err(e));
            }
            self.pid = Some(pid);
            self.next_slot = 0;
        }
    }

    /// Every slot of the page read last has been handed out: the next
    /// [`HeapScan::next_tuple`] reads another page.
    pub fn page_done(&self) -> bool {
        self.next_slot >= self.page.nslots()
    }
}

impl Iterator for HeapScan<'_> {
    type Item = DbResult<(Rid, Row)>;

    fn next(&mut self) -> Option<Self::Item> {
        self.next_tuple().map(|item| {
            let (rid, bytes) = item?;
            Ok((rid, decode_row(bytes)?))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::pager::PagerConfig;
    use crate::types::Value;
    use trace::meter::{CostMeter, Counter};

    fn heap() -> HeapFile {
        let pager = Pager::new(PagerConfig { pool_pages: 64 }, CostMeter::new());
        HeapFile::new(pager)
    }

    fn row(i: i64) -> Row {
        vec![Value::Int(i), Value::str(format!("row-{i}"))]
    }

    #[test]
    fn insert_get_round_trip() {
        let h = heap();
        let rid = h.insert(&row(7)).unwrap();
        let got = h.get(rid, AccessPattern::Random).unwrap().unwrap();
        assert_eq!(got, row(7));
        assert_eq!(h.live_rows(), 1);
    }

    #[test]
    fn spills_to_multiple_pages_and_scans_in_order() {
        let h = heap();
        let n = 2000;
        for i in 0..n {
            h.insert(&row(i)).unwrap();
        }
        assert!(h.page_count() > 1, "2000 rows must span pages");
        let scanned: Vec<i64> = h.scan().map(|r| r.unwrap().1[0].as_int().unwrap()).collect();
        assert_eq!(scanned, (0..n).collect::<Vec<_>>());
        assert_eq!(h.live_rows(), n as u64);
    }

    #[test]
    fn delete_removes_from_scan_and_stats() {
        let h = heap();
        let rids: Vec<_> = (0..10).map(|i| h.insert(&row(i)).unwrap()).collect();
        let before = h.live_bytes();
        h.delete(rids[3]).unwrap();
        h.delete(rids[7]).unwrap();
        assert!(h.live_bytes() < before);
        assert_eq!(h.live_rows(), 8);
        let left: Vec<i64> = h.scan().map(|r| r.unwrap().1[0].as_int().unwrap()).collect();
        assert_eq!(left, vec![0, 1, 2, 4, 5, 6, 8, 9]);
        assert!(h.get(rids[3], AccessPattern::Random).unwrap().is_none());
        assert!(h.delete(rids[3]).is_err(), "double delete rejected");
    }

    #[test]
    fn update_in_place_and_relocating() {
        let h = heap();
        let rid = h.insert(&vec![Value::str("a long initial value")]).unwrap();
        // Shorter: stays in place.
        let r2 = h.update(rid, &vec![Value::str("tiny")]).unwrap();
        assert_eq!(r2, rid);
        assert_eq!(h.get(rid, AccessPattern::Random).unwrap().unwrap()[0], Value::str("tiny"));
        // Longer: deleted and re-inserted, here into the slot it just left.
        let long = "x".repeat(200);
        let r3 = h.update(r2, &vec![Value::str(long.clone())]).unwrap();
        assert_eq!(h.get(r3, AccessPattern::Random).unwrap().unwrap()[0], Value::str(long));
        assert_eq!(h.live_rows(), 1);
        // Too long for what its page has left: moves to another page.
        while h.page_count() == 1 {
            h.insert(&row(0)).unwrap();
        }
        let longer = "y".repeat(4000);
        let r4 = h.update(r3, &vec![Value::str(longer.clone())]).unwrap();
        assert_ne!(r4.page, r3.page);
        assert_ne!(
            h.get(r3, AccessPattern::Random).unwrap(),
            Some(vec![Value::str(longer.clone())])
        );
        assert_eq!(h.get(r4, AccessPattern::Random).unwrap().unwrap()[0], Value::str(longer));
    }

    #[test]
    fn deleted_space_is_reused_and_emptied_pages_go_back() {
        let h = heap();
        let rids: Vec<_> = (0..2000).map(|i| h.insert(&row(i)).unwrap()).collect();
        let (pages, allocated) = (h.page_count(), h.pager().allocated_pages());
        assert!(pages > 3);
        // Every row of the first page: the page goes back to the pager.
        let first = rids[0].page;
        for rid in rids.iter().filter(|r| r.page == first) {
            h.delete(*rid).unwrap();
        }
        assert_eq!(h.page_count(), pages - 1);
        assert_eq!(h.pager().allocated_pages(), allocated - 1);
        assert_eq!(
            h.get(rids[0], AccessPattern::Random).unwrap(),
            None,
            "freed page reads as no row"
        );
        assert!(h.delete(rids[0]).is_err() && h.update(rids[0], &row(1)).is_err());
        // Half of the second page: mapped, and refilled once the insertion
        // page is full, before any new page is allocated.
        let second = rids.iter().find(|r| r.page != first).unwrap().page;
        let victims: Vec<_> = rids.iter().filter(|r| r.page == second).step_by(2).collect();
        for rid in &victims {
            h.delete(**rid).unwrap();
        }
        let mut refilled = 0;
        while h.pager().allocated_pages() < allocated {
            refilled += usize::from(h.insert(&row(7)).unwrap().page == second);
        }
        assert!(refilled >= victims.len(), "{refilled} rows into {} holes", victims.len());
        let scanned = h.scan().map(|r| r.unwrap().0).collect::<Vec<_>>();
        assert_eq!(scanned.len() as u64, h.live_rows());
        assert!(scanned.windows(2).all(|w| w[0] < w[1]), "scan follows page-id order");
    }

    #[test]
    fn where_the_log_hears_later_a_vacated_page_waits_for_it() {
        let h = heap();
        h.pager().set_logged();
        let rids: Vec<_> = (0..2000).map(|i| h.insert(&row(i)).unwrap()).collect();
        let (first, last) = (rids[0], rids[1999]);
        // The insertion page loses a row: the next one goes elsewhere.
        let version = h.version();
        h.delete(last).unwrap();
        assert!(h.version() > version);
        assert_ne!(h.insert(&row(1)).unwrap().page, last.page);
        // The first page loses them all: it stays until the log has each.
        let allocated = h.pager().allocated_pages();
        let on_first = rids.iter().filter(|r| r.page == first.page).count();
        for rid in &rids[..on_first] {
            h.delete(*rid).unwrap();
        }
        for _ in 1..on_first {
            h.vacated_logged(first.page);
        }
        assert_eq!(h.pager().allocated_pages(), allocated, "one record is still to come");
        h.vacated_logged(first.page);
        assert_eq!(h.pager().allocated_pages(), allocated - 1);
        // A half-emptied page is mapped when the log has its deletes, not
        // before: rows go there once the insertion page is full.
        let second = rids[on_first].page;
        let victims: Vec<_> = rids.iter().filter(|r| r.page == second).step_by(2).collect();
        for rid in &victims {
            h.delete(**rid).unwrap();
        }
        let mut fresh = 0;
        while h.pager().allocated_pages() < allocated {
            fresh += usize::from(h.insert(&row(7)).unwrap().page == second);
        }
        assert_eq!(fresh, 0, "a held page took a row");
        victims.iter().for_each(|_| h.vacated_logged(second));
        while h.pager().allocated_pages() == allocated {
            fresh += usize::from(h.insert(&row(7)).unwrap().page == second);
        }
        assert!(fresh >= victims.len(), "{fresh} rows into {} holes", victims.len());
        // An update that moves a row holds the page it left, one that puts
        // it back where it was holds nothing.
        let moved = h.update(rids[1000], &vec![Value::str("z".repeat(3000))]).unwrap();
        assert_ne!(moved.page, rids[1000].page);
        let stays = h.insert(&row(3)).unwrap();
        let version = h.version();
        assert_eq!(h.update(stays, &vec![Value::str("z".repeat(300))]).unwrap(), stays);
        assert!(h.version() > version);
        assert_eq!(h.insert(&row(4)).unwrap().page, stays.page, "nothing was vacated");
    }

    #[test]
    fn scan_charges_sequential_io_when_pool_small() {
        let meter = CostMeter::new();
        let pager = Pager::new(PagerConfig { pool_pages: 8 }, Arc::clone(&meter));
        let h = HeapFile::new(pager);
        for i in 0..5000 {
            h.insert(&row(i)).unwrap();
        }
        meter.reset();
        let n = h.scan().count();
        assert_eq!(n, 5000);
        assert!(meter.get(Counter::SeqPageReads) > 10, "cold scan reads pages");
        assert_eq!(meter.get(Counter::RandPageReads), 0);
    }
}
