//! The application-server table buffer (paper §2.3, §4.3).
//!
//! SAP R/3 can buffer table records in the application server so that
//! repeated "small" queries (single-record reads by full key) never cross
//! into the RDBMS. The buffer is an LRU keyed by (table, key-string) with a
//! configurable byte capacity; probes and hits are metered so the Table 8
//! experiment can report hit ratios.
//!
//! Coherency caveat from the paper: "SAP R/3 does not fully guarantee cache
//! coherency in a distributed environment as updates are only propagated
//! periodically" — our single-node simulator invalidates buffered entries
//! on local writes, which is the best case.

use parking_lot::Mutex;
use rdbms::schema::Row;
use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::Arc;
use trace::meter::{CostMeter, Counter};

struct Entry {
    row: Option<Row>, // None caches a miss ("no such record")
    bytes: usize,
    stamp: u64,
}

struct BufferInner {
    entries: HashMap<(String, String), Entry>,
    lru: VecDeque<((String, String), u64)>,
    next_stamp: u64,
    used_bytes: usize,
    capacity_bytes: usize,
    buffered_tables: HashSet<String>,
}

/// The table buffer.
pub struct TableBuffer {
    inner: Mutex<BufferInner>,
    meter: Arc<CostMeter>,
}

fn row_bytes(row: &Option<Row>) -> usize {
    // Buffered records are stored in a compact form: CHAR fields are kept
    // trimmed (SAP's generic buffer stores variable-length rows), so a
    // padded business row buffers much smaller than it is stored.
    48 + row
        .as_ref()
        .map(|r| {
            r.iter()
                .map(|v| match v {
                    rdbms::types::Value::Str(s) => s.trim_end().len() + 2,
                    other => other.storage_size(),
                })
                .sum::<usize>()
        })
        .unwrap_or(0)
}

impl TableBuffer {
    pub fn new(meter: Arc<CostMeter>) -> Self {
        TableBuffer {
            inner: Mutex::new(BufferInner {
                entries: HashMap::new(),
                lru: VecDeque::new(),
                next_stamp: 0,
                used_bytes: 0,
                capacity_bytes: 0,
                buffered_tables: HashSet::new(),
            }),
            meter,
        }
    }

    /// Enable buffering for a table (SE11 "buffering switched on").
    pub fn enable(&self, table: &str) {
        self.inner.lock().buffered_tables.insert(table.to_ascii_uppercase());
    }

    pub fn disable(&self, table: &str) {
        let mut g = self.inner.lock();
        g.buffered_tables.remove(&table.to_ascii_uppercase());
        // Drop its entries.
        let keys: Vec<_> =
            g.entries.keys().filter(|(t, _)| t == &table.to_ascii_uppercase()).cloned().collect();
        for k in keys {
            if let Some(e) = g.entries.remove(&k) {
                g.used_bytes -= e.bytes;
            }
        }
    }

    pub fn set_capacity_bytes(&self, bytes: usize) {
        let mut g = self.inner.lock();
        g.capacity_bytes = bytes;
        Self::evict_to_fit(&mut g);
    }

    pub fn is_buffered(&self, table: &str) -> bool {
        let g = self.inner.lock();
        g.capacity_bytes > 0 && g.buffered_tables.contains(&table.to_ascii_uppercase())
    }

    /// Probe the buffer. `Some(inner)` is a hit (inner `None` = cached
    /// negative); `None` means the caller must go to the database.
    pub fn get(&self, table: &str, key: &str) -> Option<Option<Row>> {
        let mut g = self.inner.lock();
        self.meter.bump(Counter::CacheProbes);
        let map_key = (table.to_ascii_uppercase(), key.to_string());
        if !g.entries.contains_key(&map_key) {
            return None;
        }
        let stamp = g.next_stamp;
        g.next_stamp += 1;
        let row = {
            let e = g.entries.get_mut(&map_key).expect("present");
            e.stamp = stamp;
            e.row.clone()
        };
        g.lru.push_back((map_key, stamp));
        self.meter.bump(Counter::CacheHits);
        Some(row)
    }

    /// Install a fetched record (or a negative result).
    pub fn put(&self, table: &str, key: &str, row: Option<Row>) {
        let mut g = self.inner.lock();
        if g.capacity_bytes == 0 {
            return;
        }
        let map_key = (table.to_ascii_uppercase(), key.to_string());
        let bytes = row_bytes(&row);
        if bytes > g.capacity_bytes {
            return;
        }
        let stamp = g.next_stamp;
        g.next_stamp += 1;
        if let Some(old) = g.entries.insert(map_key.clone(), Entry { row, bytes, stamp }) {
            g.used_bytes -= old.bytes;
        }
        g.used_bytes += bytes;
        g.lru.push_back((map_key, stamp));
        Self::evict_to_fit(&mut g);
        // Cache maintenance costs a little work too (the paper's 2 MB cache
        // was *slower* than no cache: management overhead ate the gains).
        self.meter.bump(Counter::CacheProbes);
    }

    /// Invalidate one record (local write).
    pub fn invalidate(&self, table: &str, key: &str) {
        let mut g = self.inner.lock();
        let map_key = (table.to_ascii_uppercase(), key.to_string());
        if let Some(e) = g.entries.remove(&map_key) {
            g.used_bytes -= e.bytes;
        }
    }

    fn evict_to_fit(g: &mut BufferInner) {
        while g.used_bytes > g.capacity_bytes {
            let Some((key, stamp)) = g.lru.pop_front() else { break };
            let current = matches!(g.entries.get(&key), Some(e) if e.stamp == stamp);
            if current {
                let e = g.entries.remove(&key).expect("checked");
                g.used_bytes -= e.bytes;
            }
        }
    }

    pub fn used_bytes(&self) -> usize {
        self.inner.lock().used_bytes
    }

    pub fn entry_count(&self) -> usize {
        self.inner.lock().entries.len()
    }

    /// Drop everything (between experiments).
    pub fn clear(&self) {
        let mut g = self.inner.lock();
        g.entries.clear();
        g.lru.clear();
        g.used_bytes = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdbms::types::Value;

    fn buffer(cap: usize) -> TableBuffer {
        let b = TableBuffer::new(CostMeter::new());
        b.set_capacity_bytes(cap);
        b.enable("MARA");
        b
    }

    fn row(i: i64) -> Row {
        vec![Value::Int(i), Value::str("data")]
    }

    #[test]
    fn hit_and_miss() {
        let b = buffer(10_000);
        assert!(b.get("MARA", "k1").is_none());
        b.put("MARA", "k1", Some(row(1)));
        assert_eq!(b.get("MARA", "k1"), Some(Some(row(1))));
        assert_eq!(b.meter.get(Counter::CacheHits), 1);
        assert!(b.meter.get(Counter::CacheProbes) >= 2);
    }

    #[test]
    fn negative_caching() {
        let b = buffer(10_000);
        b.put("MARA", "missing", None);
        assert_eq!(b.get("MARA", "missing"), Some(None));
    }

    #[test]
    fn lru_eviction_under_pressure() {
        let b = buffer(400);
        for i in 0..20 {
            b.put("MARA", &format!("k{i}"), Some(row(i)));
        }
        assert!(b.used_bytes() <= 400);
        assert!(b.entry_count() < 20, "older entries evicted");
        // The most recent entry should still be there.
        assert!(b.get("MARA", "k19").is_some());
    }

    #[test]
    fn zero_capacity_disables() {
        let b = TableBuffer::new(CostMeter::new());
        b.enable("MARA");
        assert!(!b.is_buffered("MARA"));
        b.put("MARA", "k", Some(row(1)));
        assert!(b.get("MARA", "k").is_none());
    }

    #[test]
    fn invalidate_and_disable() {
        let b = buffer(10_000);
        b.put("MARA", "k", Some(row(1)));
        b.invalidate("MARA", "k");
        assert!(b.get("MARA", "k").is_none());
        b.put("MARA", "k2", Some(row(2)));
        b.disable("MARA");
        assert_eq!(b.entry_count(), 0);
        assert_eq!(b.used_bytes(), 0);
    }
}
