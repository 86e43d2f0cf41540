//! Heap files: unordered collections of rows stored in slotted pages.

use crate::error::{DbError, DbResult};
use crate::schema::Row;
use crate::storage::codec::{decode_row, encode_row};
use crate::storage::page::{Page, PageId, Rid, SlotId};
use crate::storage::pager::{AccessPattern, Pager};
use parking_lot::RwLock;
use std::sync::Arc;

/// A heap file. Tracks the ordered list of pages it owns plus live-row
/// statistics maintained incrementally on DML.
pub struct HeapFile {
    pager: Arc<Pager>,
    state: RwLock<HeapState>,
}

#[derive(Default)]
struct HeapState {
    pages: Vec<PageId>,
    live_rows: u64,
    live_bytes: u64,
}

impl HeapFile {
    pub fn new(pager: Arc<Pager>) -> Self {
        HeapFile { pager, state: RwLock::new(HeapState::default()) }
    }

    pub fn pager(&self) -> &Arc<Pager> {
        &self.pager
    }

    /// Insert a row, returning its RID. Appends to the last page; allocates
    /// a new page when full (no free-space map — deletes leave holes, which
    /// matches the simple heap organizations of mid-90s systems).
    pub fn insert(&self, row: &Row) -> DbResult<Rid> {
        let bytes = encode_row(row);
        let mut st = self.state.write();
        if let Some(&last) = st.pages.last() {
            let slot = self.pager.write(last, AccessPattern::Random, |page| {
                if page.fits(bytes.len()) {
                    Some(page.insert(&bytes))
                } else {
                    None
                }
            })?;
            if let Some(slot) = slot {
                st.live_rows += 1;
                st.live_bytes += bytes.len() as u64;
                return Ok(Rid::new(last, slot?));
            }
        }
        let pid = self.pager.allocate();
        let slot = self.pager.write(pid, AccessPattern::Random, |page| page.insert(&bytes))??;
        st.pages.push(pid);
        st.live_rows += 1;
        st.live_bytes += bytes.len() as u64;
        Ok(Rid::new(pid, slot))
    }

    /// Fetch one row by RID. `pattern` lets index scans charge random I/O
    /// while a clustered-order sweep can charge sequential.
    pub fn get(&self, rid: Rid, pattern: AccessPattern) -> DbResult<Option<Row>> {
        self.get_with(rid, pattern, decode_row)?.transpose()
    }

    /// Run `f` on the stored bytes of one row. The bytes are copied out
    /// first and `f` runs after the page read returns: decoding under the
    /// pool lock instead saves the copy but makes every other thread's
    /// page access wait for it — measured at -12 % `ops_per_s` on the
    /// two-clerk `order_entry` workload (EXPERIMENTS.md).
    pub fn get_with<R>(
        &self,
        rid: Rid,
        pattern: AccessPattern,
        f: impl FnOnce(&[u8]) -> R,
    ) -> DbResult<Option<R>> {
        let bytes =
            self.pager.read(rid.page, pattern, |page| page.get(rid.slot).map(|b| b.to_vec()))?;
        Ok(bytes.map(|b| f(&b)))
    }

    /// Delete a row by RID.
    pub fn delete(&self, rid: Rid) -> DbResult<()> {
        let removed_len = self.pager.write(rid.page, AccessPattern::Random, |page| {
            let len = page.get(rid.slot).map(|b| b.len());
            match len {
                Some(l) => {
                    page.delete(rid.slot)?;
                    Ok::<usize, DbError>(l)
                }
                None => Err(DbError::storage(format!("delete of dead or missing rid {rid:?}"))),
            }
        })??;
        let mut st = self.state.write();
        st.live_rows -= 1;
        st.live_bytes -= removed_len as u64;
        Ok(())
    }

    /// Update a row in place when possible; otherwise delete + reinsert.
    /// Returns the (possibly new) RID.
    pub fn update(&self, rid: Rid, row: &Row) -> DbResult<Rid> {
        let bytes = encode_row(row);
        let (updated, old_len) = self.pager.write(rid.page, AccessPattern::Random, |page| {
            let old = page.get(rid.slot).map(|b| b.len());
            match old {
                Some(l) => {
                    Ok::<(bool, usize), DbError>((page.update_in_place(rid.slot, &bytes)?, l))
                }
                None => Err(DbError::storage(format!("update of dead rid {rid:?}"))),
            }
        })??;
        if updated {
            let mut st = self.state.write();
            st.live_bytes = st.live_bytes - old_len as u64 + bytes.len() as u64;
            return Ok(rid);
        }
        self.delete(rid)?;
        self.insert(row)
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

    fn pages_snapshot(&self) -> Vec<PageId> {
        self.state.read().pages.clone()
    }

    /// Full sequential scan in physical order.
    pub fn scan(&self) -> HeapScan<'_> {
        HeapScan {
            heap: self,
            pages: self.pages_snapshot(),
            page_idx: 0,
            page: Page::new(),
            pid: 0,
            next_slot: 0,
        }
    }
}

/// Cursor over the live rows of a heap file in physical order. Each page
/// is copied out of the pool once (one 8 KB memcpy under the pool lock),
/// so rows are decoded — and callers' predicates run — without holding it.
/// As an [`Iterator`] it yields fully decoded `(Rid, Row)`;
/// [`HeapScan::next_tuple`] lends the stored bytes instead, for callers
/// that decode only some columns.
pub struct HeapScan<'a> {
    heap: &'a HeapFile,
    pages: Vec<PageId>,
    page_idx: usize,
    /// Private copy of page `pid`; slots below `next_slot` are consumed.
    page: Page,
    pid: PageId,
    next_slot: SlotId,
}

impl HeapScan<'_> {
    /// The next live row as its stored bytes, valid until the next call.
    pub fn next_tuple(&mut self) -> Option<DbResult<(Rid, &[u8])>> {
        loop {
            while self.next_slot < self.page.nslots() {
                let slot = self.next_slot;
                self.next_slot += 1;
                // (Looked up twice: returning the first borrow from inside
                // the loop would keep `self` borrowed across iterations.)
                if self.page.get(slot).is_some() {
                    let rid = Rid::new(self.pid, slot);
                    return self.page.get(slot).map(|bytes| Ok((rid, bytes)));
                }
            }
            let &pid = self.pages.get(self.page_idx)?;
            self.page_idx += 1;
            let copy = &mut self.page;
            if let Err(e) = self.heap.pager.read(pid, AccessPattern::Sequential, |page| {
                copy.raw_mut().copy_from_slice(page.raw())
            }) {
                return Some(Err(e));
            }
            self.pid = pid;
            self.next_slot = 0;
        }
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
    use crate::clock::{CostMeter, Counter};
    use crate::storage::pager::PagerConfig;
    use crate::types::Value;

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
        // Longer: relocates.
        let long = "x".repeat(200);
        let r3 = h.update(r2, &vec![Value::str(long.clone())]).unwrap();
        assert_ne!(r3, r2);
        assert!(h.get(r2, AccessPattern::Random).unwrap().is_none());
        assert_eq!(h.get(r3, AccessPattern::Random).unwrap().unwrap()[0], Value::str(long));
        assert_eq!(h.live_rows(), 1);
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
