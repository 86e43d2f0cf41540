//! Fixed-size slotted pages.
//!
//! Layout (all little-endian u16 offsets within the page):
//!
//! ```text
//! +--------+--------+---------------------------+------------------+
//! | nslots | freeend| slot dir (4 bytes/slot) ->| ... <- tuple data|
//! +--------+--------+---------------------------+------------------+
//! ```
//!
//! * `nslots` — number of slot-directory entries (including dead slots).
//! * `freeend` — offset of the byte *after* the lowest tuple byte; tuple
//!   data grows downward from the page end.
//! * each slot is `(offset: u16, len: u16)`; a dead (deleted) slot has
//!   `offset == 0`.
//!
//! Space comes back in three ways, none of which moves a live tuple's slot
//! number (a [`Rid`] stays valid for as long as its row lives): an insert
//! takes the lowest dead slot before it grows the directory; an insert that
//! fits the page's total free space but not the gap between directory and
//! tuple data first compacts the tuple data in place; and a delete drops
//! the dead slots at the end of the directory, so an emptied page is a
//! fresh page again. A slot number, and so a `Rid`, can therefore name
//! different rows over time.

use crate::error::{DbError, DbResult};

pub const PAGE_SIZE: usize = 8192;
const HEADER: usize = 4;
const SLOT_SIZE: usize = 4;

/// Page number within the database file space.
pub type PageId = u32;

/// Slot number within a page.
pub type SlotId = u16;

/// A record identifier: physical address of a tuple.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Rid {
    pub page: PageId,
    pub slot: SlotId,
}

impl Rid {
    pub fn new(page: PageId, slot: SlotId) -> Self {
        Rid { page, slot }
    }
}

/// One fixed-size page.
pub struct Page {
    data: Box<[u8; PAGE_SIZE]>,
    /// LSN of the last logged operation that touched this page (kept
    /// beside the 8 KB image, not inside it — the on-"disk" format
    /// predates the WAL). 0 means never logged.
    lsn: u64,
}

impl Default for Page {
    fn default() -> Self {
        Self::new()
    }
}

impl Clone for Page {
    fn clone(&self) -> Self {
        Page { data: self.data.clone(), lsn: self.lsn }
    }
}

impl Page {
    /// A fresh, formatted, empty page.
    pub fn new() -> Self {
        let mut p =
            Page { data: vec![0u8; PAGE_SIZE].into_boxed_slice().try_into().unwrap(), lsn: 0 };
        p.set_nslots(0);
        p.set_freeend(PAGE_SIZE as u16);
        p
    }

    /// The page LSN: highest log record that modified this page.
    pub fn lsn(&self) -> u64 {
        self.lsn
    }

    /// Stamp the page LSN (monotone: lower stamps are ignored).
    pub fn stamp_lsn(&mut self, lsn: u64) {
        if lsn > self.lsn {
            self.lsn = lsn;
        }
    }

    fn u16_at(&self, off: usize) -> u16 {
        u16::from_le_bytes([self.data[off], self.data[off + 1]])
    }

    fn set_u16(&mut self, off: usize, v: u16) {
        self.data[off..off + 2].copy_from_slice(&v.to_le_bytes());
    }

    pub fn nslots(&self) -> u16 {
        self.u16_at(0)
    }

    fn set_nslots(&mut self, v: u16) {
        self.set_u16(0, v);
    }

    fn freeend(&self) -> u16 {
        self.u16_at(2)
    }

    fn set_freeend(&mut self, v: u16) {
        self.set_u16(2, v);
    }

    fn slot(&self, i: SlotId) -> (u16, u16) {
        let off = HEADER + i as usize * SLOT_SIZE;
        (self.u16_at(off), self.u16_at(off + 2))
    }

    fn set_slot(&mut self, i: SlotId, offset: u16, len: u16) {
        let off = HEADER + i as usize * SLOT_SIZE;
        self.set_u16(off, offset);
        self.set_u16(off + 2, len);
    }

    fn dir_end(&self) -> usize {
        HEADER + self.nslots() as usize * SLOT_SIZE
    }

    /// Free bytes in total: the gap between directory and tuple data plus
    /// the holes that deleted and shrunk tuples left (what an insert can
    /// claim, compacting first if it must). A new slot comes out of this.
    pub fn free_space(&self) -> usize {
        PAGE_SIZE - self.dir_end() - self.live_bytes()
    }

    /// The largest tuple an insert is sure to find room for.
    pub fn room(&self) -> usize {
        self.free_space().saturating_sub(SLOT_SIZE)
    }

    /// The lowest dead slot: the one the next insert reuses.
    fn dead_slot(&self) -> Option<SlotId> {
        (0..self.nslots()).find(|&s| self.slot(s).0 == 0)
    }

    /// Can a tuple of `len` bytes be inserted?
    pub fn fits(&self, len: usize) -> bool {
        self.free_space() >= len + if self.dead_slot().is_some() { 0 } else { SLOT_SIZE }
    }

    /// Pack the live tuples against the page end, in their present order,
    /// so that all free space is the one gap below them.
    fn compact(&mut self) {
        let mut live: Vec<(u16, SlotId)> = self.live_slots().map(|s| (self.slot(s).0, s)).collect();
        // Highest first: each tuple moves up into space already vacated.
        live.sort_unstable_by(|a, b| b.cmp(a));
        let mut end = PAGE_SIZE;
        for (off, slot) in live {
            let len = self.slot(slot).1 as usize;
            end -= len;
            self.data.copy_within(off as usize..off as usize + len, end);
            self.set_slot(slot, end as u16, len as u16);
        }
        self.set_freeend(end as u16);
    }

    /// Insert a tuple; returns its slot, or `None` if the page has no room
    /// for it. A tuple no page has room for is an error.
    pub fn insert(&mut self, tuple: &[u8]) -> DbResult<Option<SlotId>> {
        if tuple.len() > PAGE_SIZE - HEADER - SLOT_SIZE {
            return Err(DbError::storage(format!(
                "tuple of {} bytes exceeds page capacity",
                tuple.len()
            )));
        }
        let reused = self.dead_slot();
        let need = tuple.len() + if reused.is_some() { 0 } else { SLOT_SIZE };
        if (self.freeend() as usize - self.dir_end()) < need {
            if self.free_space() < need {
                return Ok(None);
            }
            self.compact();
        }
        let slot = reused.unwrap_or_else(|| {
            let slot = self.nslots();
            self.set_nslots(slot + 1);
            slot
        });
        let start = self.freeend() as usize - tuple.len();
        self.data[start..start + tuple.len()].copy_from_slice(tuple);
        self.set_slot(slot, start as u16, tuple.len() as u16);
        self.set_freeend(start as u16);
        Ok(Some(slot))
    }

    /// Read a live tuple; `None` if the slot is dead or out of range.
    pub fn get(&self, slot: SlotId) -> Option<&[u8]> {
        if slot >= self.nslots() {
            return None;
        }
        let (off, len) = self.slot(slot);
        if off == 0 {
            return None; // dead
        }
        Some(&self.data[off as usize..off as usize + len as usize])
    }

    /// Mark a slot dead and drop the dead slots that end the directory.
    /// The tuple's bytes stay where they are until an insert needs them.
    pub fn delete(&mut self, slot: SlotId) -> DbResult<()> {
        if slot >= self.nslots() {
            return Err(DbError::storage(format!("no slot {slot}")));
        }
        let (off, _) = self.slot(slot);
        if off == 0 {
            return Err(DbError::storage(format!("slot {slot} already dead")));
        }
        self.set_slot(slot, 0, 0);
        let mut n = self.nslots();
        while n > 0 && self.slot(n - 1).0 == 0 {
            n -= 1;
        }
        self.set_nslots(n);
        if n == 0 {
            self.set_freeend(PAGE_SIZE as u16);
        }
        Ok(())
    }

    /// Overwrite a tuple in place if the new value fits in the old slot's
    /// bytes; otherwise the caller must delete + re-insert.
    pub fn update_in_place(&mut self, slot: SlotId, tuple: &[u8]) -> DbResult<bool> {
        if slot >= self.nslots() {
            return Err(DbError::storage(format!("no slot {slot}")));
        }
        let (off, len) = self.slot(slot);
        if off == 0 {
            return Err(DbError::storage(format!("slot {slot} is dead")));
        }
        if tuple.len() > len as usize {
            return Ok(false);
        }
        let off = off as usize;
        self.data[off..off + tuple.len()].copy_from_slice(tuple);
        self.set_slot(slot as SlotId, off as u16, tuple.len() as u16);
        Ok(true)
    }

    /// Iterate live slot ids.
    pub fn live_slots(&self) -> impl Iterator<Item = SlotId> + '_ {
        (0..self.nslots()).filter(|&s| {
            let (off, _) = self.slot(s);
            off != 0
        })
    }

    /// Count of live tuples.
    pub fn live_count(&self) -> usize {
        self.live_slots().count()
    }

    /// Bytes of live tuple data (for size accounting).
    pub fn live_bytes(&self) -> usize {
        (0..self.nslots())
            .filter_map(|s| {
                let (off, len) = self.slot(s);
                (off != 0).then_some(len as usize)
            })
            .sum()
    }

    /// Raw page bytes (used by B+-tree node codecs).
    pub fn raw(&self) -> &[u8; PAGE_SIZE] {
        &self.data
    }

    pub fn raw_mut(&mut self) -> &mut [u8; PAGE_SIZE] {
        &mut self.data
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn put(p: &mut Page, tuple: &[u8]) -> SlotId {
        p.insert(tuple).unwrap().expect("room")
    }

    #[test]
    fn insert_and_get() {
        let mut p = Page::new();
        let s0 = put(&mut p, b"hello");
        let s1 = put(&mut p, b"world!");
        assert_eq!(p.get(s0), Some(&b"hello"[..]));
        assert_eq!(p.get(s1), Some(&b"world!"[..]));
        assert_eq!(p.live_count(), 2);
        assert_eq!(p.live_bytes(), 11);
    }

    #[test]
    fn delete_marks_dead() {
        let mut p = Page::new();
        let s0 = put(&mut p, b"abc");
        let s1 = put(&mut p, b"def");
        p.delete(s0).unwrap();
        assert_eq!(p.get(s0), None);
        assert_eq!(p.get(s1), Some(&b"def"[..]));
        assert!(p.delete(s0).is_err());
        assert_eq!(p.live_slots().collect::<Vec<_>>(), vec![s1]);
    }

    #[test]
    fn insert_reuses_the_lowest_dead_slot_and_delete_trims_the_directory() {
        let mut p = Page::new();
        let slots: Vec<_> = (0..5u8).map(|i| put(&mut p, &[i; 10])).collect();
        p.delete(slots[1]).unwrap();
        p.delete(slots[3]).unwrap();
        assert_eq!(put(&mut p, b"again"), slots[1]);
        assert_eq!(put(&mut p, b"and again"), slots[3]);
        assert_eq!(put(&mut p, b"new"), 5);
        // Dead slots at the end of the directory go at once.
        p.delete(5).unwrap();
        p.delete(slots[4]).unwrap();
        assert_eq!(p.nslots(), 4);
        for s in p.live_slots().collect::<Vec<_>>() {
            p.delete(s).unwrap();
        }
        assert_eq!((p.nslots(), p.free_space()), (0, PAGE_SIZE - HEADER), "a fresh page again");
    }

    #[test]
    fn insert_compacts_when_only_the_holes_have_room() {
        let mut p = Page::new();
        let tuple = |i: usize| vec![i as u8; 100];
        let mut n = 0;
        while p.fits(100) {
            put(&mut p, &tuple(n));
            n += 1;
        }
        // Free three scattered tuples: no gap holds 250 bytes, the page does
        // (78 tuples leave 76 bytes; a dead slot is there for the taking).
        for s in [3, 40, 41] {
            p.delete(s).unwrap();
        }
        assert!(p.fits(376) && !p.fits(377));
        assert_eq!(put(&mut p, &[0xEE; 250]), 3);
        assert_eq!(p.get(3).unwrap(), &[0xEE; 250][..]);
        for s in (0..n).filter(|s| ![3, 40, 41].contains(s)) {
            assert_eq!(p.get(s as SlotId).unwrap(), &tuple(s)[..], "slot {s} survived compaction");
        }
        // A shrinking update's slack is found again too.
        assert!(p.update_in_place(3, b"tiny").unwrap());
        assert!(p.fits(240));
        put(&mut p, &[0xDD; 240]);
        assert_eq!(p.get(3).unwrap(), b"tiny");
    }

    #[test]
    fn fills_up_and_reports_full() {
        let mut p = Page::new();
        let tuple = [0xABu8; 100];
        let mut n = 0;
        while p.fits(tuple.len()) {
            put(&mut p, &tuple);
            n += 1;
        }
        assert!(n >= 70, "should fit many 100-byte tuples, got {n}");
        assert_eq!(p.insert(&tuple).unwrap(), None);
        // everything still readable
        for s in 0..p.nslots() {
            assert_eq!(p.get(s).unwrap(), &tuple[..]);
        }
    }

    #[test]
    fn oversized_tuple_rejected() {
        let mut p = Page::new();
        assert!(p.insert(&vec![0u8; PAGE_SIZE]).is_err());
    }

    #[test]
    fn update_in_place_when_fits() {
        let mut p = Page::new();
        let s = put(&mut p, b"longvalue");
        assert!(p.update_in_place(s, b"short").unwrap());
        assert_eq!(p.get(s), Some(&b"short"[..]));
        assert!(!p.update_in_place(s, b"muchlongervaluethanbefore").unwrap());
    }

    #[test]
    fn zero_length_tuples_not_confused_with_dead() {
        // A zero-length tuple would get offset == freeend != 0, so it stays live.
        let mut p = Page::new();
        let s = put(&mut p, b"x");
        let z = put(&mut p, b"");
        assert_eq!(p.get(z), Some(&b""[..]));
        p.delete(s).unwrap();
        assert_eq!(p.get(z), Some(&b""[..]));
    }
}
