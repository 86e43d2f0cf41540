//! A disk-resident B+-tree over order-preserving byte keys.
//!
//! Nodes live in pager pages, so index traversals are metered like any
//! other page access (random reads on a cold buffer pool) — this is what
//! makes the paper's Table 6 experiment (index vs. scan plan choice)
//! reproducible from first principles.
//!
//! Design notes:
//! * Keys are opaque byte strings produced by [`crate::storage::codec::encode_key`];
//!   byte order == value order.
//! * Non-unique indexes get a RID suffix appended to every stored key, so
//!   stored keys are always distinct and duplicate handling is uniform.
//! * Deletion is lazy: half-empty nodes are never merged or rebalanced
//!   (matching mid-90s engines), but a leaf that a delete *empties* is
//!   unlinked from its parent and its left neighbour and its page freed,
//!   so does an interior node left without children, and a root with one
//!   child gives way to that child.
//! * Nodes are (de)serialized to an in-memory form for manipulation; the
//!   page is the unit of I/O accounting.
//! * A batch of entries ([`BTree::insert_batch`]) runs the same insertion,
//!   split for split and page allocation for page allocation, over nodes
//!   it decodes once and writes back once, at the end: the tree it leaves
//!   is node for node the one inserting the entries one by one builds.

use crate::clock::Counter;
use crate::error::{DbError, DbResult};
use crate::storage::page::{PageId, Rid, PAGE_SIZE};
use crate::storage::pager::{AccessPattern, Pager};
use bytes::{Buf, BufMut};
use std::collections::{BTreeSet, HashMap};
use std::ops::Bound;
use std::sync::Arc;

const NO_PAGE: PageId = PageId::MAX;
/// Serialized node size budget; split when exceeded.
const NODE_BUDGET: usize = PAGE_SIZE - 64;

#[derive(Debug, Clone, PartialEq)]
enum Node {
    Leaf {
        next: PageId,
        /// Sorted (stored_key, rid) entries.
        entries: Vec<(Vec<u8>, Rid)>,
    },
    Internal {
        /// children.len() == separators.len() + 1; child[i] holds keys
        /// < separators[i]; child.last() holds keys >= last separator.
        separators: Vec<Vec<u8>>,
        children: Vec<PageId>,
    },
}

impl Node {
    fn serialized_size(&self) -> usize {
        match self {
            Node::Leaf { entries, .. } => {
                1 + 2 + 4 + entries.iter().map(|(k, _)| 2 + k.len() + 6).sum::<usize>()
            }
            Node::Internal { separators, children } => {
                1 + 2 + 4 * children.len() + separators.iter().map(|s| 2 + s.len()).sum::<usize>()
            }
        }
    }

    fn encode(&self, out: &mut [u8; PAGE_SIZE]) {
        let mut buf: Vec<u8> = Vec::with_capacity(self.serialized_size());
        match self {
            Node::Leaf { next, entries } => {
                buf.put_u8(1);
                buf.put_u16_le(entries.len() as u16);
                buf.put_u32_le(*next);
                for (k, rid) in entries {
                    buf.put_u16_le(k.len() as u16);
                    buf.put_slice(k);
                    buf.put_u32_le(rid.page);
                    buf.put_u16_le(rid.slot);
                }
            }
            Node::Internal { separators, children } => {
                buf.put_u8(0);
                buf.put_u16_le(separators.len() as u16);
                buf.put_u32_le(children[0]);
                for (s, child) in separators.iter().zip(&children[1..]) {
                    buf.put_u16_le(s.len() as u16);
                    buf.put_slice(s);
                    buf.put_u32_le(*child);
                }
            }
        }
        assert!(buf.len() <= PAGE_SIZE, "node exceeds page: {} bytes", buf.len());
        out[..buf.len()].copy_from_slice(&buf);
    }

    fn decode(data: &[u8; PAGE_SIZE]) -> DbResult<Node> {
        let mut buf = &data[..];
        let kind = buf.get_u8();
        let n = buf.get_u16_le() as usize;
        match kind {
            1 => {
                let next = buf.get_u32_le();
                let mut entries = Vec::with_capacity(n);
                for _ in 0..n {
                    let klen = buf.get_u16_le() as usize;
                    let k = buf[..klen].to_vec();
                    buf.advance(klen);
                    let page = buf.get_u32_le();
                    let slot = buf.get_u16_le();
                    entries.push((k, Rid::new(page, slot)));
                }
                Ok(Node::Leaf { next, entries })
            }
            0 => {
                let first = buf.get_u32_le();
                let mut separators = Vec::with_capacity(n);
                let mut children = Vec::with_capacity(n + 1);
                children.push(first);
                for _ in 0..n {
                    let klen = buf.get_u16_le() as usize;
                    separators.push(buf[..klen].to_vec());
                    buf.advance(klen);
                    children.push(buf.get_u32_le());
                }
                Ok(Node::Internal { separators, children })
            }
            other => Err(DbError::storage(format!("bad btree node kind {other}"))),
        }
    }
}

/// A B+-tree index.
pub struct BTree {
    pager: Arc<Pager>,
    root: PageId,
    unique: bool,
    entry_count: u64,
    entry_bytes: u64,
    node_pages: u64,
    height: u32,
}

/// One interior node on a root-to-leaf path, decoded, and the index of the
/// child the path continues in.
struct Step {
    pid: PageId,
    separators: Vec<Vec<u8>>,
    children: Vec<PageId>,
    idx: usize,
}

/// Result of inserting into a subtree: possibly a split.
enum InsertResult {
    Ok,
    Split { sep: Vec<u8>, right: PageId },
}

/// Where an insertion reads the nodes it passes and leaves the ones it
/// changes.
enum Nodes {
    /// Straight through the pager: every node read is decoded and every
    /// change encoded and written at once (one entry at a time).
    Pager,
    /// A batch's decoded nodes: each is read from the pager on first touch
    /// only, and the changed ones are written back once, by `write_back`.
    Held { nodes: HashMap<PageId, Node>, changed: BTreeSet<PageId> },
}

impl Nodes {
    fn held() -> Nodes {
        Nodes::Held { nodes: HashMap::new(), changed: BTreeSet::new() }
    }

    /// Node `pid`, to be given back by `keep` or `put`.
    fn take(&mut self, tree: &BTree, pid: PageId) -> DbResult<Node> {
        if let Nodes::Held { nodes, .. } = self {
            if let Some(node) = nodes.remove(&pid) {
                return Ok(node);
            }
        }
        tree.load(pid)
    }

    /// Give back a node taken and left as it was.
    fn keep(&mut self, pid: PageId, node: Node) {
        if let Nodes::Held { nodes, .. } = self {
            nodes.insert(pid, node);
        }
    }

    /// Give back a node changed, or made on a fresh page.
    fn put(&mut self, pager: &Pager, pid: PageId, node: Node) -> DbResult<()> {
        match self {
            Nodes::Pager => BTree::store(pager, pid, &node),
            Nodes::Held { nodes, changed } => {
                changed.insert(pid);
                nodes.insert(pid, node);
                Ok(())
            }
        }
    }

    /// Encode and write every changed node, in page order.
    fn write_back(self, pager: &Pager) -> DbResult<()> {
        if let Nodes::Held { nodes, changed } = self {
            for pid in changed {
                BTree::store(pager, pid, &nodes[&pid])?;
            }
        }
        Ok(())
    }
}

/// Entries for [`BTree::insert_batch`], in the order they are to go in.
/// The keys lie end to end in one buffer: a batch is three allocations,
/// however many entries it holds.
#[derive(Debug, Default)]
pub struct Batch {
    keys: Vec<u8>,
    ends: Vec<usize>,
    rids: Vec<Rid>,
}

impl Batch {
    pub fn push(&mut self, key: &[u8], rid: Rid) {
        self.keys.extend_from_slice(key);
        self.ends.push(self.keys.len());
        self.rids.push(rid);
    }

    pub fn iter(&self) -> impl Iterator<Item = (&[u8], Rid)> + '_ {
        let starts = std::iter::once(0).chain(self.ends.iter().copied());
        starts
            .zip(&self.ends)
            .zip(&self.rids)
            .map(|((start, &end), &rid)| (&self.keys[start..end], rid))
    }
}

fn duplicate_key(key: &[u8]) -> DbError {
    DbError::constraint(format!("duplicate key in unique index ({} bytes)", key.len()))
}

/// Refuse a batch that holds some key twice.
fn no_key_twice(entries: &Batch) -> DbResult<()> {
    let mut keys: Vec<&[u8]> = entries.iter().map(|(k, _)| k).collect();
    keys.sort_unstable();
    match keys.windows(2).find(|w| w[0] == w[1]) {
        Some(w) => Err(duplicate_key(w[0])),
        None => Ok(()),
    }
}

impl BTree {
    /// Create an empty tree.
    pub fn new(pager: Arc<Pager>, unique: bool) -> DbResult<Self> {
        let root = pager.allocate();
        let node = Node::Leaf { next: NO_PAGE, entries: Vec::new() };
        Self::store(&pager, root, &node)?;
        Ok(BTree { pager, root, unique, entry_count: 0, entry_bytes: 0, node_pages: 1, height: 1 })
    }

    /// A tree holding `entries`, the one [`BTree::new`] and inserting them
    /// in order would build, built as [`BTree::insert_batch`] does. A
    /// unique tree refuses a batch that holds a key twice before it
    /// allocates a page.
    pub(crate) fn with_entries(pager: Arc<Pager>, unique: bool, entries: &Batch) -> DbResult<Self> {
        if unique {
            no_key_twice(entries)?;
        }
        let mut tree = BTree::new(pager, unique)?;
        tree.replay(Nodes::held(), entries)?;
        Ok(tree)
    }

    fn store(pager: &Pager, pid: PageId, node: &Node) -> DbResult<()> {
        pager.write(pid, AccessPattern::Random, |page| node.encode(page.raw_mut()))
    }

    fn load(&self, pid: PageId) -> DbResult<Node> {
        self.pager.meter().bump(Counter::IndexNodeReads);
        self.pager.read(pid, AccessPattern::Random, |page| Node::decode(page.raw()))?
    }

    /// Stored key: user key, plus RID suffix when non-unique.
    fn stored_key(&self, key: &[u8], rid: Rid) -> Vec<u8> {
        if self.unique {
            key.to_vec()
        } else {
            let mut k = Vec::with_capacity(key.len() + 6);
            k.extend_from_slice(key);
            k.put_u32(rid.page);
            k.put_u16(rid.slot);
            k
        }
    }

    /// Insert an entry. For a unique index, an existing identical key is a
    /// constraint violation.
    pub fn insert(&mut self, key: &[u8], rid: Rid) -> DbResult<()> {
        if self.unique && !self.search_exact(key)?.is_empty() {
            return Err(duplicate_key(key));
        }
        self.insert_entry(&mut Nodes::Pager, key, rid)
    }

    /// Insert `entries` in order, as many [`BTree::insert`] calls would,
    /// split for split and page allocation for page allocation, but with
    /// every node decoded at most once and every changed node written
    /// once, when the batch ends. A unique tree refuses a batch with a key
    /// twice, or a key it already holds, before it allocates or changes a
    /// page.
    pub fn insert_batch(&mut self, entries: &Batch) -> DbResult<()> {
        let mut nodes = Nodes::held();
        if self.unique {
            no_key_twice(entries)?;
            for (key, _) in entries.iter() {
                if self.holds(&mut nodes, key)? {
                    return Err(duplicate_key(key));
                }
            }
        }
        self.replay(nodes, entries)
    }

    fn replay(&mut self, mut nodes: Nodes, entries: &Batch) -> DbResult<()> {
        for (key, rid) in entries.iter() {
            self.insert_entry(&mut nodes, key, rid)?;
        }
        nodes.write_back(&self.pager)
    }

    /// Does this unique tree hold `key`? Looks in the one leaf an insert of
    /// it would go to.
    fn holds(&self, nodes: &mut Nodes, key: &[u8]) -> DbResult<bool> {
        let mut pid = self.root;
        loop {
            let node = nodes.take(self, pid)?;
            let (child, found) = match &node {
                Node::Internal { separators, children } => {
                    (children[separators.partition_point(|s| s.as_slice() <= key)], false)
                }
                Node::Leaf { entries, .. } => {
                    (NO_PAGE, entries.binary_search_by(|(k, _)| k.as_slice().cmp(key)).is_ok())
                }
            };
            nodes.keep(pid, node);
            if child == NO_PAGE {
                return Ok(found);
            }
            pid = child;
        }
    }

    fn insert_entry(&mut self, nodes: &mut Nodes, key: &[u8], rid: Rid) -> DbResult<()> {
        let skey = self.stored_key(key, rid);
        let stored_bytes = (skey.len() + 6) as u64;
        let result = self.insert_rec(nodes, self.root, skey, rid)?;
        if let InsertResult::Split { sep, right } = result {
            let new_root = self.pager.allocate();
            let node = Node::Internal { separators: vec![sep], children: vec![self.root, right] };
            nodes.put(&self.pager, new_root, node)?;
            self.root = new_root;
            self.node_pages += 1;
            self.height += 1;
        }
        self.entry_count += 1;
        self.entry_bytes += stored_bytes;
        Ok(())
    }

    fn insert_rec(
        &mut self,
        nodes: &mut Nodes,
        pid: PageId,
        skey: Vec<u8>,
        rid: Rid,
    ) -> DbResult<InsertResult> {
        match nodes.take(self, pid)? {
            Node::Leaf { next, mut entries } => {
                let pos = entries.partition_point(|(k, _)| *k < skey);
                entries.insert(pos, (skey, rid));
                let node = Node::Leaf { next, entries };
                if node.serialized_size() <= NODE_BUDGET {
                    nodes.put(&self.pager, pid, node)?;
                    return Ok(InsertResult::Ok);
                }
                // Split leaf at the midpoint.
                let Node::Leaf { next, mut entries } = node else { unreachable!() };
                let right_entries = entries.split_off(entries.len() / 2);
                let sep = right_entries[0].0.clone();
                let right_pid = self.pager.allocate();
                self.node_pages += 1;
                nodes.put(&self.pager, right_pid, Node::Leaf { next, entries: right_entries })?;
                nodes.put(&self.pager, pid, Node::Leaf { next: right_pid, entries })?;
                Ok(InsertResult::Split { sep, right: right_pid })
            }
            Node::Internal { mut separators, mut children } => {
                let idx = separators.partition_point(|s| *s <= skey);
                let child = children[idx];
                let InsertResult::Split { sep, right } =
                    self.insert_rec(nodes, child, skey, rid)?
                else {
                    nodes.keep(pid, Node::Internal { separators, children });
                    return Ok(InsertResult::Ok);
                };
                separators.insert(idx, sep);
                children.insert(idx + 1, right);
                let node = Node::Internal { separators, children };
                if node.serialized_size() <= NODE_BUDGET {
                    nodes.put(&self.pager, pid, node)?;
                    return Ok(InsertResult::Ok);
                }
                let Node::Internal { mut separators, mut children } = node else { unreachable!() };
                let mid = separators.len() / 2;
                let right_seps = separators.split_off(mid + 1);
                let up_sep = separators.pop().expect("mid separator");
                let right_children = children.split_off(mid + 1);
                let right_pid = self.pager.allocate();
                self.node_pages += 1;
                nodes.put(
                    &self.pager,
                    right_pid,
                    Node::Internal { separators: right_seps, children: right_children },
                )?;
                nodes.put(&self.pager, pid, Node::Internal { separators, children })?;
                Ok(InsertResult::Split { sep: up_sep, right: right_pid })
            }
        }
    }

    /// Remove an entry. Returns true if found.
    pub fn delete(&mut self, key: &[u8], rid: Rid) -> DbResult<bool> {
        let skey = self.stored_key(key, rid);
        // The interior nodes passed on the way down, with the child taken.
        let mut path: Vec<Step> = Vec::new();
        let mut pid = self.root;
        let (next, mut entries) = loop {
            match self.load(pid)? {
                Node::Internal { separators, children } => {
                    let idx = separators.partition_point(|s| s.as_slice() <= skey.as_slice());
                    let child = children[idx];
                    path.push(Step { pid, separators, children, idx });
                    pid = child;
                }
                Node::Leaf { next, entries } => break (next, entries),
            }
        };
        // For unique trees the same user key may map to any rid.
        let pos = if self.unique {
            entries.iter().position(|(k, r)| k == &skey && *r == rid)
        } else {
            entries.iter().position(|(k, _)| k == &skey)
        };
        let Some(i) = pos else {
            return Ok(false);
        };
        let (k, _) = entries.remove(i);
        self.entry_count -= 1;
        self.entry_bytes -= (k.len() + 6) as u64;
        if entries.is_empty() && !path.is_empty() {
            self.unlink_leaf(pid, next, path)?;
        } else {
            Self::store(&self.pager, pid, &Node::Leaf { next, entries })?;
        }
        Ok(true)
    }

    /// Take the emptied leaf `leaf` out of the tree and free its page, with
    /// every ancestor this leaves childless; then shorten the tree while
    /// its root has a single child.
    fn unlink_leaf(&mut self, leaf: PageId, next: PageId, mut path: Vec<Step>) -> DbResult<()> {
        // The leaf to the left is the rightmost one under the nearest
        // left sibling of an ancestor; it must skip the freed page.
        if let Some(step) = path.iter().rev().find(|s| s.idx > 0) {
            let mut pid = step.children[step.idx - 1];
            loop {
                match self.load(pid)? {
                    Node::Internal { children, .. } => pid = *children.last().expect("child"),
                    Node::Leaf { entries, .. } => {
                        Self::store(&self.pager, pid, &Node::Leaf { next, entries })?;
                        break;
                    }
                }
            }
        }
        let mut freed = leaf;
        while let Some(Step { pid, mut separators, mut children, idx }) = path.pop() {
            self.pager.free(freed);
            self.node_pages -= 1;
            children.remove(idx);
            if children.is_empty() {
                // Never the root: it keeps two children or gives way below.
                freed = pid;
                continue;
            }
            // The removed child's key range falls to a neighbour.
            separators.remove(idx.saturating_sub(1));
            Self::store(&self.pager, pid, &Node::Internal { separators, children })?;
            break;
        }
        while let Node::Internal { children, .. } = self.load(self.root)? {
            if children.len() > 1 {
                break;
            }
            self.pager.free(self.root);
            self.node_pages -= 1;
            self.height -= 1;
            self.root = children[0];
        }
        Ok(())
    }

    /// Exact-match lookup on the user key; returns all matching RIDs.
    pub fn search_exact(&self, key: &[u8]) -> DbResult<Vec<Rid>> {
        let upper = increment_bytes(key);
        let upper_bound = match &upper {
            Some(u) => Bound::Excluded(u.as_slice()),
            None => Bound::Unbounded,
        };
        // For a unique tree, the stored key == user key, so an exact range
        // [key, key] suffices; for non-unique the RID suffix makes matches
        // fall in [key, increment(key)).
        if self.unique {
            self.range_scan(Bound::Included(key), Bound::Included(key))
        } else {
            self.range_scan(Bound::Included(key), upper_bound)
        }
        .map(|v| v.into_iter().map(|(_, rid)| rid).collect())
    }

    /// Range scan over *user* keys. Bounds are byte-encoded keys; for
    /// non-unique trees inclusive upper bounds are widened past the RID
    /// suffix automatically. Returns (stored_key, rid) pairs in key order.
    pub fn range_scan(
        &self,
        lower: Bound<&[u8]>,
        upper: Bound<&[u8]>,
    ) -> DbResult<Vec<(Vec<u8>, Rid)>> {
        // Normalize the upper bound to an exclusive byte bound.
        let upper_owned: Option<Vec<u8>>;
        let upper_excl: Option<&[u8]> = match upper {
            Bound::Unbounded => None,
            Bound::Excluded(u) => {
                upper_owned = Some(u.to_vec());
                upper_owned.as_deref()
            }
            Bound::Included(u) => {
                // Include all stored keys whose user part == u: widen by
                // byte-increment (works for both unique and suffixed keys).
                match increment_bytes(u) {
                    Some(inc) => {
                        upper_owned = Some(inc);
                        upper_owned.as_deref()
                    }
                    None => None,
                }
            }
        };
        let lower_key: &[u8] = match lower {
            Bound::Unbounded => &[],
            Bound::Included(l) | Bound::Excluded(l) => l,
        };
        // Descend to the leaf that may contain lower_key.
        let mut pid = self.root;
        while let Node::Internal { separators, children } = self.load(pid)? {
            let idx = separators.partition_point(|s| s.as_slice() <= lower_key);
            pid = children[idx];
        }
        let mut out = Vec::new();
        loop {
            let Node::Leaf { next, entries } = self.load(pid)? else {
                return Err(DbError::storage("expected leaf"));
            };
            for (k, rid) in entries {
                let below_lower = match lower {
                    Bound::Unbounded => false,
                    Bound::Included(l) => k.as_slice() < l,
                    // Excluded lower on user keys: skip everything with
                    // that exact user-key prefix.
                    Bound::Excluded(l) => {
                        k.as_slice() < l || (!self.unique && k.starts_with(l)) || k.as_slice() == l
                    }
                };
                if below_lower {
                    continue;
                }
                if let Some(u) = upper_excl {
                    if k.as_slice() >= u {
                        return Ok(out);
                    }
                }
                out.push((k, rid));
            }
            if next == NO_PAGE {
                return Ok(out);
            }
            pid = next;
        }
    }

    /// Full scan in key order.
    pub fn scan_all(&self) -> DbResult<Vec<(Vec<u8>, Rid)>> {
        self.range_scan(Bound::Unbounded, Bound::Unbounded)
    }

    pub fn entry_count(&self) -> u64 {
        self.entry_count
    }

    /// Live entry bytes (Table 2 index-size accounting).
    pub fn entry_bytes(&self) -> u64 {
        self.entry_bytes
    }

    pub fn node_pages(&self) -> u64 {
        self.node_pages
    }

    pub fn height(&self) -> u32 {
        self.height
    }

    pub fn is_unique(&self) -> bool {
        self.unique
    }
}

/// Smallest byte string strictly greater than every string having `key` as
/// prefix; `None` when no such string exists (all 0xFF).
pub fn increment_bytes(key: &[u8]) -> Option<Vec<u8>> {
    let mut out = key.to_vec();
    while let Some(last) = out.last_mut() {
        if *last < 0xFF {
            *last += 1;
            return Some(out);
        }
        out.pop();
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::CostMeter;
    use crate::storage::codec::encode_key;
    use crate::storage::pager::PagerConfig;
    use crate::types::Value;

    fn tree(unique: bool) -> BTree {
        let pager = Pager::new(PagerConfig { pool_pages: 256 }, CostMeter::new());
        BTree::new(pager, unique).unwrap()
    }

    fn key(i: i64) -> Vec<u8> {
        encode_key(&[Value::Int(i)])
    }

    #[test]
    fn insert_and_exact_search() {
        let mut t = tree(false);
        for i in 0..100 {
            t.insert(&key(i), Rid::new(i as u32, 0)).unwrap();
        }
        assert_eq!(t.search_exact(&key(42)).unwrap(), vec![Rid::new(42, 0)]);
        assert_eq!(t.search_exact(&key(1000)).unwrap(), vec![]);
        assert_eq!(t.entry_count(), 100);
    }

    #[test]
    fn duplicates_in_non_unique_index() {
        let mut t = tree(false);
        for s in 0..5u16 {
            t.insert(&key(7), Rid::new(1, s)).unwrap();
        }
        let mut rids = t.search_exact(&key(7)).unwrap();
        rids.sort();
        assert_eq!(rids, (0..5).map(|s| Rid::new(1, s)).collect::<Vec<_>>());
    }

    #[test]
    fn unique_index_rejects_duplicates() {
        let mut t = tree(true);
        t.insert(&key(1), Rid::new(0, 0)).unwrap();
        assert!(matches!(t.insert(&key(1), Rid::new(0, 1)), Err(DbError::Constraint(_))));
    }

    #[test]
    fn large_tree_splits_and_stays_sorted() {
        let mut t = tree(false);
        // Insert shuffled-ish order (odd then even) to exercise splits.
        let n: i64 = 20_000;
        for i in (1..n).step_by(2).chain((0..n).step_by(2)) {
            t.insert(&key(i), Rid::new(i as u32, 0)).unwrap();
        }
        assert!(t.height() >= 2, "20k entries must split, height={}", t.height());
        assert!(t.node_pages() > 10);
        let all = t.scan_all().unwrap();
        assert_eq!(all.len(), n as usize);
        for w in all.windows(2) {
            assert!(w[0].0 <= w[1].0, "keys out of order");
        }
        // Every key findable.
        for i in (0..n).step_by(997) {
            assert_eq!(t.search_exact(&key(i)).unwrap(), vec![Rid::new(i as u32, 0)]);
        }
    }

    #[test]
    fn range_scans() {
        let mut t = tree(false);
        for i in 0..1000 {
            t.insert(&key(i), Rid::new(i as u32, 0)).unwrap();
        }
        let lo = key(100);
        let hi = key(200);
        let got = t.range_scan(Bound::Included(&lo), Bound::Excluded(&hi)).unwrap();
        assert_eq!(got.len(), 100);
        assert_eq!(got[0].1, Rid::new(100, 0));
        assert_eq!(got.last().unwrap().1, Rid::new(199, 0));

        let got = t.range_scan(Bound::Included(&lo), Bound::Included(&hi)).unwrap();
        assert_eq!(got.len(), 101);

        let got = t.range_scan(Bound::Excluded(&lo), Bound::Included(&hi)).unwrap();
        assert_eq!(got.len(), 100);
        assert_eq!(got[0].1, Rid::new(101, 0));

        let got = t.range_scan(Bound::Unbounded, Bound::Excluded(&lo)).unwrap();
        assert_eq!(got.len(), 100);
    }

    #[test]
    fn delete_entries() {
        let mut t = tree(false);
        for i in 0..100 {
            t.insert(&key(i), Rid::new(i as u32, 0)).unwrap();
        }
        assert!(t.delete(&key(50), Rid::new(50, 0)).unwrap());
        assert!(!t.delete(&key(50), Rid::new(50, 0)).unwrap(), "double delete");
        assert_eq!(t.search_exact(&key(50)).unwrap(), vec![]);
        assert_eq!(t.entry_count(), 99);
        assert_eq!(t.scan_all().unwrap().len(), 99);
    }

    #[test]
    fn emptied_leaves_are_unlinked_and_the_tree_shrinks_back() {
        let mut t = tree(true);
        // 200-byte keys: some forty to a node, so 20 000 make three levels.
        let key = |i: i64| encode_key(&[Value::str(format!("{i:0200}"))]);
        let n: i64 = 20_000;
        for i in 0..n {
            t.insert(&key(i), Rid::new(i as u32, 0)).unwrap();
        }
        let (pages, height) = (t.node_pages(), t.height());
        assert!(height >= 3 && t.pager.allocated_pages() as u64 == pages);
        // A run in the middle: its leaves go, the chain closes over the gap.
        for i in 5_000..15_000 {
            assert!(t.delete(&key(i), Rid::new(i as u32, 0)).unwrap());
        }
        assert!(t.node_pages() < pages * 2 / 3, "{} of {pages} pages left", t.node_pages());
        assert_eq!(t.pager.allocated_pages() as u64, t.node_pages());
        let left: Vec<i64> = t.scan_all().unwrap().iter().map(|(_, r)| r.page as i64).collect();
        assert_eq!(left, (0..5_000).chain(15_000..n).collect::<Vec<_>>());
        // Keys of the gap route to a neighbour and are found again.
        t.insert(&key(9_999), Rid::new(9_999, 0)).unwrap();
        assert_eq!(t.search_exact(&key(9_999)).unwrap(), vec![Rid::new(9_999, 0)]);
        assert_eq!(t.scan_all().unwrap().len(), 10_001);
        // Everything: one empty root leaf, as `BTree::new` made it.
        for (_, rid) in t.scan_all().unwrap() {
            assert!(t.delete(&key(rid.page as i64), rid).unwrap());
        }
        assert_eq!((t.node_pages(), t.height(), t.entry_count()), (1, 1, 0));
        assert_eq!(t.pager.allocated_pages(), 1);
        assert!(t.scan_all().unwrap().is_empty());
        t.insert(&key(1), Rid::new(1, 0)).unwrap();
        assert_eq!(t.search_exact(&key(1)).unwrap(), vec![Rid::new(1, 0)]);
    }

    #[test]
    fn composite_key_prefix_scan() {
        // Index on (a, b); scan all entries with a == 5.
        let mut t = tree(false);
        for a in 0..10i64 {
            for b in 0..10i64 {
                let k = encode_key(&[Value::Int(a), Value::Int(b)]);
                t.insert(&k, Rid::new(a as u32, b as u16)).unwrap();
            }
        }
        let prefix = encode_key(&[Value::Int(5)]);
        let upper = increment_bytes(&prefix).unwrap();
        let got = t.range_scan(Bound::Included(&prefix), Bound::Excluded(&upper)).unwrap();
        assert_eq!(got.len(), 10);
        assert!(got.iter().all(|(_, r)| r.page == 5));
    }

    #[test]
    fn string_keys() {
        let mut t = tree(false);
        let words = ["apple", "banana", "cherry", "date", "elderberry"];
        for (i, w) in words.iter().enumerate() {
            t.insert(&encode_key(&[Value::str(*w)]), Rid::new(i as u32, 0)).unwrap();
        }
        let k = encode_key(&[Value::str("cherry")]);
        assert_eq!(t.search_exact(&k).unwrap(), vec![Rid::new(2, 0)]);
        // Range [banana, date] inclusive
        let lo = encode_key(&[Value::str("banana")]);
        let hi = encode_key(&[Value::str("date")]);
        let got = t.range_scan(Bound::Included(&lo), Bound::Included(&hi)).unwrap();
        assert_eq!(got.len(), 3);
    }

    #[test]
    fn increment_bytes_cases() {
        assert_eq!(increment_bytes(&[1, 2, 3]), Some(vec![1, 2, 4]));
        assert_eq!(increment_bytes(&[1, 0xFF]), Some(vec![2]));
        assert_eq!(increment_bytes(&[0xFF, 0xFF]), None);
        assert_eq!(increment_bytes(&[]), None);
    }

    #[test]
    fn index_io_is_metered() {
        let meter = CostMeter::new();
        let pager = Pager::new(PagerConfig { pool_pages: 16 }, Arc::clone(&meter));
        let mut t = BTree::new(pager, false).unwrap();
        for i in 0..50_000 {
            t.insert(&key(i), Rid::new(i as u32, 0)).unwrap();
        }
        meter.reset();
        t.search_exact(&key(777)).unwrap();
        assert!(meter.get(Counter::IndexNodeReads) >= 2, "root + leaf at least");
    }

    /// Every node reachable from the root, by page, and the tree's shape
    /// and counts.
    type Shape = (Vec<(PageId, Node)>, PageId, u32, u64, u64, u64, usize);

    fn shape(t: &BTree) -> Shape {
        let mut nodes = Vec::new();
        let mut todo = vec![t.root];
        while let Some(pid) = todo.pop() {
            let node = t.load(pid).unwrap();
            if let Node::Internal { children, .. } = &node {
                todo.extend(children);
            }
            nodes.push((pid, node));
        }
        nodes.sort_by_key(|(pid, _)| *pid);
        let pages = t.pager.allocated_pages();
        (nodes, t.root, t.height, t.node_pages, t.entry_count, t.entry_bytes, pages)
    }

    /// `n` keys in one of four orders: ascending, descending, shuffled, or
    /// drawn from a dozen values (non-unique trees only). Wide keys are
    /// 200 bytes, some forty to a node.
    fn batch_keys(order: u8, wide: bool, n: usize, seed: u64) -> Vec<Vec<u8>> {
        let mut rng = proptest::test_runner::TestRng::new(seed);
        let mut values: Vec<i64> = (0..n as i64).collect();
        match order {
            1 => values.reverse(),
            2 => (1..n).rev().for_each(|i| values.swap(i, rng.below(i as u64 + 1) as usize)),
            3 => values.iter_mut().for_each(|v| *v = rng.below(12) as i64),
            _ => {}
        }
        let encode = |v: i64| {
            if wide {
                encode_key(&[Value::str(format!("{v:0200}"))])
            } else {
                key(v)
            }
        };
        values.into_iter().map(encode).collect()
    }

    fn batch(entries: &[(Vec<u8>, Rid)]) -> Batch {
        let mut batch = Batch::default();
        entries.iter().for_each(|(k, rid)| batch.push(k, *rid));
        batch
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(40))]

        /// The same entries, the first `done` of them inserted one by one
        /// into both trees first: the rest one by one into one tree and in
        /// up to three batches into the other leave the two node for node
        /// equal, on the same pages, with the same counts.
        #[test]
        fn insert_batch_builds_the_tree_sequential_inserts_build(
            (order, wide, unique) in (0u8..4, proptest::strategy::any::<bool>(),
                proptest::strategy::any::<bool>()),
            (n, done, seed) in (0usize..2500, 0usize..100, proptest::strategy::any::<u64>()),
        ) {
            let unique = unique && order != 3;
            let keys = batch_keys(order, wide, n, seed);
            let entries: Vec<(Vec<u8>, Rid)> = keys
                .into_iter()
                .enumerate()
                .map(|(i, k)| (k, Rid::new(i as u32, (i % 7) as u16)))
                .collect();
            let done = n * done / 100;
            let (mut one_by_one, mut batched) = (tree(unique), tree(unique));
            for (k, rid) in &entries[..done] {
                one_by_one.insert(k, *rid).unwrap();
                batched.insert(k, *rid).unwrap();
            }
            for (k, rid) in &entries[done..] {
                one_by_one.insert(k, *rid).unwrap();
            }
            let rest = &entries[done..];
            let cut = (seed as usize % (rest.len() + 1), rest.len() * 2 / 3);
            let (a, b) = (cut.0.min(cut.1), cut.0.max(cut.1));
            for batch in [&rest[..a], &rest[a..b], &rest[b..]] {
                batched.insert_batch(&self::batch(batch)).unwrap();
            }
            proptest::prop_assert!(shape(&batched) == shape(&one_by_one), "order {order}, n {n}");
            if done == 0 {
                let pager = Pager::new(PagerConfig { pool_pages: 256 }, CostMeter::new());
                let built = BTree::with_entries(pager, unique, &self::batch(&entries)).unwrap();
                proptest::prop_assert!(shape(&built) == shape(&one_by_one));
            }
            proptest::prop_assert_eq!(batched.scan_all().unwrap().len(), n);
        }
    }

    #[test]
    fn wide_keys_reach_three_levels_in_a_batch_as_one_by_one() {
        let entries: Vec<(Vec<u8>, Rid)> = batch_keys(2, true, 2500, 7)
            .into_iter()
            .enumerate()
            .map(|(i, k)| (k, Rid::new(i as u32, 0)))
            .collect();
        let mut one_by_one = tree(true);
        for (k, rid) in &entries {
            one_by_one.insert(k, *rid).unwrap();
        }
        let mut batched = tree(true);
        batched.insert_batch(&batch(&entries)).unwrap();
        assert!(one_by_one.height() >= 3, "height {}", one_by_one.height());
        assert!(shape(&batched) == shape(&one_by_one));
    }

    #[test]
    fn a_unique_batch_with_a_duplicate_changes_nothing() {
        let mut t = tree(true);
        let entries: Vec<_> = (0..500).map(|i| (key(i), Rid::new(i as u32, 0))).collect();
        t.insert_batch(&batch(&entries)).unwrap();
        let before = shape(&t);
        // Twice inside the batch, and once in the batch and once in the tree.
        let twice = [(key(900), Rid::new(900, 0)), (key(901), Rid::new(901, 0))];
        let twice = batch(&[&twice[..], &twice[..1]].concat());
        let held = batch(&[(key(902), Rid::new(902, 0)), (key(250), Rid::new(903, 0))]);
        for batch in [&twice, &held] {
            assert!(matches!(t.insert_batch(batch), Err(DbError::Constraint(_))));
            assert!(shape(&t) == before, "a refused batch left a trace");
        }
        let pager = Arc::clone(&t.pager);
        let refused = BTree::with_entries(Arc::clone(&pager), true, &twice);
        assert!(matches!(refused, Err(DbError::Constraint(_))));
        assert_eq!(pager.allocated_pages(), before.6, "no root for a refused tree");
        // A non-unique tree takes the same batch.
        let mut dups = tree(false);
        dups.insert_batch(&twice).unwrap();
        assert_eq!(dups.search_exact(&key(900)).unwrap().len(), 2);
    }
}
