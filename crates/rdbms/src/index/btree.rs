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
//! * A node's bytes are a header (kind, entry count, and the leaf's `next`
//!   or the interior node's first child) and its entries end to end, each
//!   a key length, the key, and the leaf's rid or the interior node's next
//!   child. [`BTree::insert`] and [`BTree::delete`] work on those bytes:
//!   they pick each child by reading the separators where they lie in the
//!   page and shift the leaf's entries to add or remove one. A node is
//!   decoded to an in-memory form only to split it, to unlink an emptied
//!   leaf, and in [`BTree::range_scan`] (the executor's index scans and
//!   [`BTree::scan_all`]). The page is the unit of I/O accounting.
//! * Point lookups ([`BTree::search_exact`]: every unique-key check) and
//!   DML's row probe ([`BTree::range_rids`]) read in place too: they walk
//!   the leaf chain in the page, with exactly the node reads
//!   `range_scan` makes, and admit entries by the same rule.
//! * A batch of entries ([`BTree::insert_batch`]) runs the same insertion,
//!   split for split and page allocation for page allocation, over nodes
//!   it decodes once and writes back once, at the end: the tree it leaves
//!   is node for node the one inserting the entries one by one builds.

use crate::error::{DbError, DbResult};
use crate::storage::page::{PageId, Rid, PAGE_SIZE};
use crate::storage::pager::{AccessPattern, Pager};
use std::borrow::Cow;
use std::collections::{BTreeSet, HashMap};
use std::ops::Bound;
use std::sync::Arc;
use trace::meter::Counter;

const NO_PAGE: PageId = PageId::MAX;
/// Serialized node size budget; split when exceeded.
const NODE_BUDGET: usize = PAGE_SIZE - 64;
/// A node's header: its kind, its entry count (u16), and the leaf's `next`
/// or the interior node's first child (u32).
const HEADER: usize = 7;
const LEAF: u8 = 1;
const INTERIOR: u8 = 0;
/// What follows a key in a leaf entry (its rid) and in an interior one
/// (the child right of the separator).
const RID_LEN: usize = 6;
const CHILD_LEN: usize = 4;
/// The longest entry that shares a node with another as long. A split
/// needs any two entries to fit one node, so a longer key is refused.
const MAX_ENTRY: usize = (NODE_BUDGET - HEADER) / 2;

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

fn leaf_size(entries: &[(Vec<u8>, Rid)]) -> usize {
    HEADER + entries.iter().map(|(k, _)| 2 + k.len() + RID_LEN).sum::<usize>()
}

fn interior_size(separators: &[Vec<u8>]) -> usize {
    HEADER + separators.iter().map(|s| 2 + s.len() + CHILD_LEN).sum::<usize>()
}

impl Node {
    fn serialized_size(&self) -> usize {
        match self {
            Node::Leaf { entries, .. } => leaf_size(entries),
            Node::Internal { separators, .. } => interior_size(separators),
        }
    }

    /// Write the node's bytes at the start of `out`; the rest of `out` is
    /// left as it was.
    fn encode(&self, out: &mut [u8; PAGE_SIZE]) {
        let size = self.serialized_size();
        assert!(size <= PAGE_SIZE, "node exceeds page: {size} bytes");
        let mut at = HEADER;
        match self {
            Node::Leaf { next, entries } => {
                put_header(out, LEAF, entries.len(), *next);
                for (k, rid) in entries {
                    at = put_entry(out, at, k, &rid_bytes(*rid));
                }
            }
            Node::Internal { separators, children } => {
                put_header(out, INTERIOR, separators.len(), children[0]);
                for (s, child) in separators.iter().zip(&children[1..]) {
                    at = put_entry(out, at, s, &child.to_le_bytes());
                }
            }
        }
    }

    fn decode(page: &[u8]) -> DbResult<Node> {
        let link = u32_at(page, 3);
        match page[0] {
            LEAF => {
                let entries = Entries::of(page, LEAF)?;
                let entries = entries.map(|(k, rid)| (k.to_vec(), rid_at(rid))).collect();
                Ok(Node::Leaf { next: link, entries })
            }
            INTERIOR => {
                let entries = Entries::of(page, INTERIOR)?;
                let mut separators = Vec::with_capacity(entries.left);
                let mut children = Vec::with_capacity(entries.left + 1);
                children.push(link);
                for (s, child) in entries {
                    separators.push(s.to_vec());
                    children.push(u32_at(child, 0));
                }
                Ok(Node::Internal { separators, children })
            }
            other => Err(DbError::storage(format!("bad btree node kind {other}"))),
        }
    }
}

fn u16_at(page: &[u8], at: usize) -> usize {
    u16::from_le_bytes([page[at], page[at + 1]]) as usize
}

fn u32_at(page: &[u8], at: usize) -> u32 {
    u32::from_le_bytes([page[at], page[at + 1], page[at + 2], page[at + 3]])
}

fn rid_bytes(rid: Rid) -> [u8; RID_LEN] {
    let [a, b, c, d] = rid.page.to_le_bytes();
    let [e, f] = rid.slot.to_le_bytes();
    [a, b, c, d, e, f]
}

fn rid_at(bytes: &[u8]) -> Rid {
    Rid::new(u32_at(bytes, 0), u16::from_le_bytes([bytes[4], bytes[5]]))
}

fn set_count(page: &mut [u8], count: usize) {
    page[1..3].copy_from_slice(&(count as u16).to_le_bytes());
}

fn put_header(page: &mut [u8], kind: u8, count: usize, link: PageId) {
    page[0] = kind;
    set_count(page, count);
    page[3..HEADER].copy_from_slice(&link.to_le_bytes());
}

/// Write the entry `key`, `tail` at `at`; returns where it ends.
fn put_entry(page: &mut [u8], at: usize, key: &[u8], tail: &[u8]) -> usize {
    let end = at + 2 + key.len();
    page[at..at + 2].copy_from_slice(&(key.len() as u16).to_le_bytes());
    page[at + 2..end].copy_from_slice(key);
    page[end..end + tail.len()].copy_from_slice(tail);
    end + tail.len()
}

/// Add the entry `key`, `tail` at `at` to the node in `page`, which ends
/// at `end`: the entries from `at` on move up to make room.
fn insert_in_page(page: &mut [u8], at: usize, end: usize, key: &[u8], tail: &[u8]) {
    page.copy_within(at..end, at + 2 + key.len() + tail.len());
    put_entry(page, at, key, tail);
    set_count(page, u16_at(page, 1) + 1);
}

/// Take the entry at `at..at + len` out of the node in `page`, which ends
/// at `end`: the entries after it move down over it.
fn remove_from_page(page: &mut [u8], at: usize, len: usize, end: usize) {
    page.copy_within(at + len..end, at);
    set_count(page, u16_at(page, 1) - 1);
}

/// A node's entries where they lie in its bytes, in key order: each item
/// is a key and what follows it (a rid, or the child right of the
/// separator). `at` is where the next entry starts, so once the last has
/// been read it is the node's length.
struct Entries<'a> {
    page: &'a [u8],
    at: usize,
    left: usize,
    tail: usize,
}

impl<'a> Entries<'a> {
    fn of(page: &'a [u8], kind: u8) -> DbResult<Self> {
        if page[0] != kind {
            return Err(DbError::storage(format!(
                "btree node of kind {} where kind {kind} belongs",
                page[0]
            )));
        }
        let tail = if kind == LEAF { RID_LEN } else { CHILD_LEN };
        Ok(Entries { page, at: HEADER, left: u16_at(page, 1), tail })
    }

    /// The node's length.
    fn end(mut self) -> usize {
        while self.next().is_some() {}
        self.at
    }
}

impl<'a> Iterator for Entries<'a> {
    type Item = (&'a [u8], &'a [u8]);

    fn next(&mut self) -> Option<Self::Item> {
        if self.left == 0 {
            return None;
        }
        self.left -= 1;
        let key = self.at + 2;
        let tail = key + u16_at(self.page, self.at);
        self.at = tail + self.tail;
        Some((&self.page[key..tail], &self.page[tail..self.at]))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left, Some(self.left))
    }
}

impl ExactSizeIterator for Entries<'_> {}

/// Where a node whose entries take `sizes` bytes splits: at the midpoint
/// by count, unless that leaves a half larger than a page; then where the
/// larger half is smallest. The entry at the split point starts a leaf's
/// right half (`up` 0) or moves up out of an interior node (`up` 1).
fn split_point(sizes: &[usize], up: usize) -> usize {
    let total: usize = sizes.iter().sum();
    let larger_half = |at: usize| {
        let left: usize = sizes[..at].iter().sum();
        let right = total - left - sizes[at..at + up].iter().sum::<usize>();
        HEADER + left.max(right)
    };
    let mid = sizes.len() / 2;
    if larger_half(mid) <= PAGE_SIZE {
        return mid;
    }
    (1..sizes.len() - up)
        .min_by_key(|&at| larger_half(at))
        .expect("a node over budget has entries on both sides of a split")
}

/// Refuse a key whose entry would be too long to share a node with
/// another as long: a split needs any two entries to fit one node. Index
/// upkeep checks every key of a row before it stores the row.
pub fn check_key(key: &[u8], unique: bool) -> DbResult<()> {
    let overhead = 2 + RID_LEN + if unique { 0 } else { RID_LEN };
    if key.len() + overhead <= MAX_ENTRY {
        return Ok(());
    }
    Err(DbError::constraint(format!(
        "index key of {} bytes is longer than the {} bytes an index entry may hold",
        key.len(),
        MAX_ENTRY - overhead
    )))
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

/// The child of the interior node in `page` that `key` belongs under,
/// found by walking the separators where they lie in the page: its index
/// among the node's children, where the separator right of it starts, and
/// its page.
fn find_child(page: &[u8], key: &[u8]) -> DbResult<(usize, usize, PageId)> {
    let mut entries = Entries::of(page, INTERIOR)?;
    let (mut idx, mut child) = (0, u32_at(page, 3));
    loop {
        let at = entries.at;
        match entries.next() {
            Some((sep, right)) if sep <= key => {
                idx += 1;
                child = u32_at(right, 0);
            }
            _ => return Ok((idx, at, child)),
        }
    }
}

/// A range over user keys as a scan applies it to a tree's stored keys:
/// the key whose leaf the scan starts in, and which entries it admits.
/// [`BTree::range_scan`] and [`BTree::walk`] both admit through it, so
/// they admit the same entries.
struct Span<'a> {
    lower: Bound<&'a [u8]>,
    /// The upper bound as an exclusive bound on stored keys; `None` when
    /// the range runs to the tree's end.
    end: Option<Cow<'a, [u8]>>,
    unique: bool,
}

impl<'a> Span<'a> {
    fn new(lower: Bound<&'a [u8]>, upper: Bound<&'a [u8]>, unique: bool) -> Self {
        let end = match upper {
            Bound::Unbounded => None,
            Bound::Excluded(u) => Some(Cow::Borrowed(u)),
            // Include all stored keys whose user part == u: widen by
            // byte-increment (works for both unique and suffixed keys).
            Bound::Included(u) => increment_bytes(u).map(Cow::Owned),
        };
        Span { lower, end, unique }
    }

    /// The key the descent routes by.
    fn start(&self) -> &'a [u8] {
        match self.lower {
            Bound::Unbounded => &[],
            Bound::Included(l) | Bound::Excluded(l) => l,
        }
    }

    /// Does the stored key `k` fall below the range, to be skipped?
    fn below(&self, k: &[u8]) -> bool {
        match self.lower {
            Bound::Unbounded => false,
            Bound::Included(l) => k < l,
            // Excluded lower on user keys: skip everything with that
            // exact user-key prefix.
            Bound::Excluded(l) => k < l || (!self.unique && k.starts_with(l)) || k == l,
        }
    }

    /// Does the stored key `k` sort past the range, ending the scan?
    fn past(&self, k: &[u8]) -> bool {
        self.end.as_deref().is_some_and(|end| k >= end)
    }
}

/// One interior node on a root-to-leaf path: a copy of its bytes as the
/// descent read them, the index of the child the path continues in, and
/// where the separator right of that child starts (where a new separator
/// for the child's right sibling goes).
struct Step {
    pid: PageId,
    page: Vec<u8>,
    idx: usize,
    at: usize,
}

impl Step {
    /// The step through interior node `pid` toward `key`, and the child it
    /// leads to.
    fn route(pid: PageId, page: &[u8], key: &[u8]) -> DbResult<(Step, PageId)> {
        let (idx, at, child) = find_child(page, key)?;
        Ok((Step { pid, page: page.to_vec(), idx, at }, child))
    }

    fn decode(&self) -> DbResult<(Vec<Vec<u8>>, Vec<PageId>)> {
        match Node::decode(&self.page)? {
            Node::Internal { separators, children } => Ok((separators, children)),
            Node::Leaf { .. } => Err(DbError::storage("expected interior node")),
        }
    }
}

/// Where a leaf takes a new entry: at `at`, moving the entries from there
/// to the node's end `end` up; or, when that would exceed the budget, in
/// its decoded form, to be split.
enum Room {
    Shift { at: usize, end: usize },
    Split { next: PageId, entries: Vec<(Vec<u8>, Rid)> },
}

/// Result of inserting into a subtree: possibly a split.
enum InsertResult {
    Ok,
    Split { sep: Vec<u8>, right: PageId },
}

/// Where an insertion reads the nodes it passes and leaves the ones it
/// changes.
enum Nodes {
    /// Straight through the pager, one entry at a time: the insertion
    /// edits the pages in place (`BTree::insert_in_place`), and a node it
    /// splits is encoded and written at once.
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

/// Refuse a batch that holds a key too long for an index entry or, for a
/// unique tree, some key twice.
fn check_batch(entries: &Batch, unique: bool) -> DbResult<()> {
    for (key, _) in entries.iter() {
        check_key(key, unique)?;
    }
    if !unique {
        return Ok(());
    }
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
    /// batch with a key too long for an entry, or for a unique tree a key
    /// twice, is refused before a page is allocated.
    pub(crate) fn with_entries(pager: Arc<Pager>, unique: bool, entries: &Batch) -> DbResult<Self> {
        check_batch(entries, unique)?;
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
            k.extend_from_slice(&rid.page.to_be_bytes());
            k.extend_from_slice(&rid.slot.to_be_bytes());
            k
        }
    }

    /// Insert an entry. A key too long for an entry is refused, and for a
    /// unique index so is an existing identical key.
    pub fn insert(&mut self, key: &[u8], rid: Rid) -> DbResult<()> {
        check_key(key, self.unique)?;
        if self.unique && !self.search_exact(key)?.is_empty() {
            return Err(duplicate_key(key));
        }
        self.insert_entry(&mut Nodes::Pager, key, rid)
    }

    /// Insert `entries` in order, as many [`BTree::insert`] calls would,
    /// split for split and page allocation for page allocation, but with
    /// every node decoded at most once and every changed node written
    /// once, when the batch ends. A batch with a key too long for an
    /// entry, or for a unique tree a key twice or a key it already holds,
    /// is refused before a page is allocated or changed.
    pub fn insert_batch(&mut self, entries: &Batch) -> DbResult<()> {
        check_batch(entries, self.unique)?;
        let mut nodes = Nodes::held();
        if self.unique {
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
        let result = match nodes {
            Nodes::Pager => self.insert_in_place(skey, rid)?,
            Nodes::Held { .. } => self.insert_rec(nodes, self.root, skey, rid)?,
        };
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

    /// Walk from the root to the leaf `skey` belongs in, choosing each
    /// child by the separators where they lie in the page, and run `leaf`
    /// on the leaf's bytes. Each node is one metered random read, as
    /// [`BTree::load`] makes it. Returns the interior nodes passed and the
    /// leaf's page beside what `leaf` returned.
    fn descend<T>(
        &self,
        skey: &[u8],
        leaf: impl FnOnce(&[u8]) -> DbResult<T>,
    ) -> DbResult<(Vec<Step>, PageId, T)> {
        let mut path = Vec::with_capacity(self.height as usize - 1);
        let mut pid = self.root;
        for _ in 1..self.height {
            self.pager.meter().bump(Counter::IndexNodeReads);
            let (step, child) = self
                .pager
                .read(pid, AccessPattern::Random, |page| Step::route(pid, page.raw(), skey))??;
            path.push(step);
            pid = child;
        }
        self.pager.meter().bump(Counter::IndexNodeReads);
        let found = self.pager.read(pid, AccessPattern::Random, |page| leaf(page.raw()))??;
        Ok((path, pid, found))
    }

    /// [`BTree::insert_entry`] through the pager: the entry goes into the
    /// leaf's page in place, and a separator a split sends up into its
    /// parent's. A node without room is decoded from the copy the descent
    /// kept (the leaf: from the read that found it full) and split.
    fn insert_in_place(&mut self, skey: Vec<u8>, rid: Rid) -> DbResult<InsertResult> {
        let (path, leaf, room) = self.descend(&skey, |page| {
            let mut entries = Entries::of(page, LEAF)?;
            let mut at = entries.at;
            while entries.next().is_some_and(|(k, _)| k < skey.as_slice()) {
                at = entries.at;
            }
            let end = entries.end();
            if end + 2 + skey.len() + RID_LEN <= NODE_BUDGET {
                return Ok(Room::Shift { at, end });
            }
            let Node::Leaf { next, entries } = Node::decode(page)? else {
                unreachable!("a leaf's kind was checked");
            };
            Ok(Room::Split { next, entries })
        })?;
        let mut result = match room {
            Room::Shift { at, end } => {
                let tail = rid_bytes(rid);
                self.pager.write(leaf, AccessPattern::Random, |page| {
                    insert_in_page(page.raw_mut(), at, end, &skey, &tail)
                })?;
                return Ok(InsertResult::Ok);
            }
            Room::Split { next, mut entries } => {
                let pos = entries.partition_point(|(k, _)| *k < skey);
                entries.insert(pos, (skey, rid));
                self.put_leaf(&mut Nodes::Pager, leaf, next, entries)?
            }
        };
        for step in path.into_iter().rev() {
            let InsertResult::Split { sep, right } = result else {
                break;
            };
            let end = Entries::of(&step.page, INTERIOR)?.end();
            if end + 2 + sep.len() + CHILD_LEN <= NODE_BUDGET {
                self.pager.write(step.pid, AccessPattern::Random, |page| {
                    insert_in_page(page.raw_mut(), step.at, end, &sep, &right.to_le_bytes())
                })?;
                return Ok(InsertResult::Ok);
            }
            let (mut separators, mut children) = step.decode()?;
            separators.insert(step.idx, sep);
            children.insert(step.idx + 1, right);
            result = self.put_internal(&mut Nodes::Pager, step.pid, separators, children)?;
        }
        Ok(result)
    }

    /// [`BTree::insert_entry`] over a batch's held nodes.
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
                self.put_leaf(nodes, pid, next, entries)
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
                self.put_internal(nodes, pid, separators, children)
            }
        }
    }

    /// Give back leaf `pid` holding `entries`, split onto a fresh right
    /// page when over budget.
    fn put_leaf(
        &mut self,
        nodes: &mut Nodes,
        pid: PageId,
        next: PageId,
        mut entries: Vec<(Vec<u8>, Rid)>,
    ) -> DbResult<InsertResult> {
        if leaf_size(&entries) <= NODE_BUDGET {
            nodes.put(&self.pager, pid, Node::Leaf { next, entries })?;
            return Ok(InsertResult::Ok);
        }
        let sizes: Vec<usize> = entries.iter().map(|(k, _)| 2 + k.len() + RID_LEN).collect();
        let right_entries = entries.split_off(split_point(&sizes, 0));
        let sep = right_entries[0].0.clone();
        let right_pid = self.pager.allocate();
        self.node_pages += 1;
        nodes.put(&self.pager, right_pid, Node::Leaf { next, entries: right_entries })?;
        nodes.put(&self.pager, pid, Node::Leaf { next: right_pid, entries })?;
        Ok(InsertResult::Split { sep, right: right_pid })
    }

    /// Give back interior node `pid`, split onto a fresh right page when
    /// over budget, the separator at the split point going up.
    fn put_internal(
        &mut self,
        nodes: &mut Nodes,
        pid: PageId,
        mut separators: Vec<Vec<u8>>,
        mut children: Vec<PageId>,
    ) -> DbResult<InsertResult> {
        if interior_size(&separators) <= NODE_BUDGET {
            nodes.put(&self.pager, pid, Node::Internal { separators, children })?;
            return Ok(InsertResult::Ok);
        }
        let sizes: Vec<usize> = separators.iter().map(|s| 2 + s.len() + CHILD_LEN).collect();
        let mid = split_point(&sizes, 1);
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

    /// Remove an entry. Returns true if found. The entry leaves the leaf's
    /// page in place, unless it was the last one of a leaf below the root:
    /// then the leaf is unlinked.
    pub fn delete(&mut self, key: &[u8], rid: Rid) -> DbResult<bool> {
        let skey = self.stored_key(key, rid);
        let (unique, tail) = (self.unique, rid_bytes(rid));
        let (path, leaf, found) = self.descend(&skey, |page| {
            let mut entries = Entries::of(page, LEAF)?;
            let mut at = entries.at;
            while let Some((k, r)) = entries.next() {
                // For unique trees the same user key may map to any rid.
                if k == skey.as_slice() && (!unique || r == tail) {
                    let len = entries.at - at;
                    let (count, next) = (u16_at(page, 1), u32_at(page, 3));
                    return Ok(Some((at, len, entries.end(), count, next)));
                }
                at = entries.at;
            }
            Ok(None)
        })?;
        let Some((at, len, end, count, next)) = found else {
            return Ok(false);
        };
        self.entry_count -= 1;
        self.entry_bytes -= (len - 2) as u64;
        if count == 1 && !path.is_empty() {
            self.unlink_leaf(leaf, next, path)?;
        } else {
            self.pager.write(leaf, AccessPattern::Random, |page| {
                remove_from_page(page.raw_mut(), at, len, end)
            })?;
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
            let mut pid = step.decode()?.1[step.idx - 1];
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
        while let Some(step) = path.pop() {
            let (mut separators, mut children) = step.decode()?;
            self.pager.free(freed);
            self.node_pages -= 1;
            children.remove(step.idx);
            if children.is_empty() {
                // Never the root: it keeps two children or gives way below.
                freed = step.pid;
                continue;
            }
            // The removed child's key range falls to a neighbour.
            separators.remove(step.idx.saturating_sub(1));
            Self::store(&self.pager, step.pid, &Node::Internal { separators, children })?;
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

    /// Exact-match lookup on the user key; returns all matching RIDs. The
    /// inclusive upper bound covers every stored key the user key
    /// prefixes: a unique tree's key itself, a non-unique tree's key with
    /// any rid suffix.
    pub fn search_exact(&self, key: &[u8]) -> DbResult<Vec<Rid>> {
        self.range_rids(Bound::Included(key), Bound::Included(key))
    }

    /// The rids [`BTree::range_scan`] finds for the same bounds, in the
    /// same order, read in place by `BTree::walk`.
    pub fn range_rids(&self, lower: Bound<&[u8]>, upper: Bound<&[u8]>) -> DbResult<Vec<Rid>> {
        let mut rids = Vec::new();
        self.walk(lower, upper, |_, rid| rids.push(rid))?;
        Ok(rids)
    }

    /// Range scan over *user* keys. Bounds are byte-encoded keys; for
    /// non-unique trees inclusive upper bounds are widened past the RID
    /// suffix automatically. Returns (stored_key, rid) pairs in key order.
    pub fn range_scan(
        &self,
        lower: Bound<&[u8]>,
        upper: Bound<&[u8]>,
    ) -> DbResult<Vec<(Vec<u8>, Rid)>> {
        let span = Span::new(lower, upper, self.unique);
        // Descend to the leaf that may contain the lower bound.
        let mut pid = self.root;
        while let Node::Internal { separators, children } = self.load(pid)? {
            pid = children[separators.partition_point(|s| s.as_slice() <= span.start())];
        }
        let mut out = Vec::new();
        loop {
            let Node::Leaf { next, entries } = self.load(pid)? else {
                return Err(DbError::storage("expected leaf"));
            };
            for (k, rid) in entries {
                if span.below(&k) {
                    continue;
                }
                if span.past(&k) {
                    return Ok(out);
                }
                out.push((k, rid));
            }
            if next == NO_PAGE {
                return Ok(out);
            }
            pid = next;
        }
    }

    /// [`BTree::range_scan`] without the decode: call `visit` with each
    /// entry it admits, as the stored key and rid, in key order, read
    /// where the entry lies in its leaf's page under the page's read
    /// latch. The walk makes `range_scan`'s page reads exactly, node read
    /// for node read: the descent routes through each interior node in
    /// the page and reads the leaf it reaches, then the leaf loop reads
    /// that leaf again and each next one until an entry sorts past the
    /// range or the chain ends (so a key past a leaf's last entry reads
    /// the neighbour leaf too). `visit` runs under the latch, so it must
    /// not reach the pager.
    fn walk(
        &self,
        lower: Bound<&[u8]>,
        upper: Bound<&[u8]>,
        mut visit: impl FnMut(&[u8], Rid),
    ) -> DbResult<()> {
        let span = Span::new(lower, upper, self.unique);
        let mut pid = self.root;
        while let Some(child) = self.child_toward(pid, span.start())? {
            pid = child;
        }
        loop {
            self.pager.meter().bump(Counter::IndexNodeReads);
            let next = self.pager.read(pid, AccessPattern::Random, |page| {
                let page = page.raw();
                for (k, rid) in Entries::of(page, LEAF)? {
                    if span.below(k) {
                        continue;
                    }
                    if span.past(k) {
                        return Ok(NO_PAGE);
                    }
                    visit(k, rid_at(rid));
                }
                Ok(u32_at(page, 3))
            })??;
            if next == NO_PAGE {
                return Ok(());
            }
            pid = next;
        }
    }

    /// The child of node `pid` that `key` belongs under, or `None` when
    /// `pid` is a leaf: one metered random read, as [`BTree::load`] makes.
    fn child_toward(&self, pid: PageId, key: &[u8]) -> DbResult<Option<PageId>> {
        self.pager.meter().bump(Counter::IndexNodeReads);
        self.pager.read(pid, AccessPattern::Random, |page| match page.raw()[0] {
            LEAF => Ok(None),
            _ => find_child(page.raw(), key).map(|(_, _, child)| Some(child)),
        })?
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
    use crate::storage::codec::encode_key;
    use crate::storage::pager::PagerConfig;
    use crate::types::Value;
    use std::collections::BTreeMap;
    use trace::meter::CostMeter;

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

    #[test]
    fn a_split_goes_by_bytes_only_where_the_midpoint_overflows_a_page() {
        let larger_half = |sizes: &[usize], at: usize, up: usize| {
            let left: usize = sizes[..at].iter().sum();
            HEADER + left.max(sizes[at + up..].iter().sum())
        };
        for up in [0, 1] {
            let even = vec![40; 300];
            assert_eq!(split_point(&even, up), 150);
            // Two entries as long as an entry may be, among short ones at
            // either end: the midpoint would leave them a half over a page.
            for long_first in [true, false] {
                let mut sizes = vec![30; 101];
                let at = if long_first { 0 } else { sizes.len() };
                sizes.splice(at..at, [MAX_ENTRY, MAX_ENTRY]);
                assert!(larger_half(&sizes, sizes.len() / 2, up) > PAGE_SIZE);
                let split = split_point(&sizes, up);
                assert!(larger_half(&sizes, split, up) <= PAGE_SIZE, "up {up}, at {split}");
            }
        }
    }

    /// Every node reachable from the root, counted, and the leaves left to
    /// right, each with the page its `next` names.
    fn reachable(t: &BTree) -> (u64, Vec<(PageId, PageId)>) {
        let (mut nodes, mut leaves, mut todo) = (0, Vec::new(), vec![t.root]);
        while let Some(pid) = todo.pop() {
            nodes += 1;
            match t.load(pid).unwrap() {
                Node::Internal { children, .. } => todo.extend(children.iter().rev()),
                Node::Leaf { next, .. } => leaves.push((pid, next)),
            }
        }
        (nodes, leaves)
    }

    /// The tree holds exactly `model` (stored key to rid), in order, with
    /// the counts it keeps; every allocated page is a reachable node, and
    /// the leaf chain runs through the leaves left to right.
    fn check_against(t: &BTree, model: &BTreeMap<Vec<u8>, Rid>, context: &str) {
        let all = t.scan_all().unwrap();
        assert!(all.iter().map(|(k, r)| (k, r)).eq(model.iter()), "{context}: entries");
        assert_eq!(t.entry_count(), model.len() as u64, "{context}");
        let bytes: u64 = model.keys().map(|k| k.len() as u64 + 6).sum();
        assert_eq!(t.entry_bytes(), bytes, "{context}");
        let (nodes, leaves) = reachable(t);
        assert_eq!((t.node_pages(), t.pager.allocated_pages() as u64), (nodes, nodes), "{context}");
        let chain = leaves.iter().skip(1).map(|&(pid, _)| pid).chain([NO_PAGE]);
        assert!(leaves.iter().map(|&(_, next)| next).eq(chain), "{context}: leaf chain");
    }

    /// The pages on the path to `skey`, as they are now.
    fn path_pages(t: &BTree, skey: &[u8]) -> Vec<(PageId, [u8; PAGE_SIZE])> {
        let (path, leaf, ()) = t.descend(skey, |_| Ok(())).unwrap();
        let pids = path.iter().map(|s| s.pid).chain([leaf]);
        pids.map(|pid| (pid, t.pager.read(pid, AccessPattern::Random, |p| *p.raw()).unwrap()))
            .collect()
    }

    /// Each page of `before` that is still allocated holds its node's
    /// encoding over its old bytes: an edit in place wrote exactly what
    /// `Node::encode` writes and left the rest of the page as it was.
    fn assert_encoded_over(t: &BTree, before: Vec<(PageId, [u8; PAGE_SIZE])>, context: &str) {
        for (pid, mut expect) in before {
            let Ok(now) = t.pager.read(pid, AccessPattern::Random, |p| *p.raw()) else {
                continue; // freed by an unlink
            };
            Node::decode(&now).unwrap().encode(&mut expect);
            assert!(expect == now, "{context}: page {pid} differs from its encoding");
        }
    }

    /// The user key a stored key holds: all of it in a unique tree, all
    /// but the rid suffix in another.
    fn user_part(unique: bool, skey: &[u8]) -> &[u8] {
        &skey[..skey.len() - if unique { 0 } else { RID_LEN }]
    }

    /// A random history of inserts and deletes, and the model (stored key
    /// to rid) of the tree it leaves. The history grows the tree, shrinks
    /// it to nothing (deletes empty leaves and collapse levels), then
    /// mixes both; a unique tree also meets keys it holds, and deletes
    /// look for entries that are not there.
    struct History {
        rng: proptest::test_runner::TestRng,
        model: BTreeMap<Vec<u8>, Rid>,
        unique: bool,
        wide: bool,
        steps: usize,
        domain: u64,
    }

    /// One step of a [`History`]: an insert or a delete of `user`, `rid`,
    /// stored as `skey`.
    struct Op {
        insert: bool,
        user: Vec<u8>,
        rid: Rid,
        skey: Vec<u8>,
    }

    impl History {
        fn new(unique: bool, wide: bool, steps: usize, seed: u64) -> History {
            let domain = if unique { 4 * steps as u64 } else { steps as u64 / 4 } + 1;
            let rng = proptest::test_runner::TestRng::new(seed);
            History { rng, model: BTreeMap::new(), unique, wide, steps, domain }
        }

        /// A user key that sorts as `v`; wide keys are 200 bytes.
        fn user_key(&self, v: u64) -> Vec<u8> {
            if self.wide {
                encode_key(&[Value::str(format!("{v:0200}"))])
            } else {
                key(v as i64)
            }
        }

        fn random_key(&mut self) -> Vec<u8> {
            let v = self.rng.below(self.domain);
            self.user_key(v)
        }

        /// A key to look up: one the model holds, one of `ends`, or one
        /// the tree may not hold.
        fn lookup_key(&mut self, ends: &[Vec<u8>]) -> Vec<u8> {
            match self.rng.below(3) {
                0 if !self.model.is_empty() => {
                    let nth = self.rng.below(self.model.len() as u64) as usize;
                    user_part(self.unique, self.model.keys().nth(nth).unwrap()).to_vec()
                }
                1 if !ends.is_empty() => ends[self.rng.below(ends.len() as u64) as usize].clone(),
                _ => self.random_key(),
            }
        }

        /// Step `step`'s operation on the tree `t` holds.
        fn op(&mut self, step: usize, t: &BTree) -> Op {
            let inserts_in_ten = [9, 1, 6][step * 5 / self.steps.max(1) / 2];
            let (insert, user, rid) = if self.model.is_empty()
                || self.rng.below(10) < inserts_in_ten
            {
                (true, self.random_key(), Rid::new(step as u32, step as u16 % 7))
            } else if self.rng.below(10) == 0 {
                (false, self.random_key(), Rid::new(u32::MAX, 0))
            } else {
                let nth = self.rng.below(self.model.len() as u64) as usize;
                let (skey, rid) = self.model.iter().nth(nth).map(|(k, r)| (k.clone(), *r)).unwrap();
                (false, user_part(self.unique, &skey).to_vec(), rid)
            };
            Op { skey: t.stored_key(&user, rid), insert, user, rid }
        }

        /// Run `op` on `t` and check its outcome against the model.
        fn run(&self, op: &Op, t: &mut BTree, context: &str) {
            let held = self.model.get(&op.skey);
            if op.insert {
                match t.insert(&op.user, op.rid) {
                    Err(DbError::Constraint(_)) if held.is_some() => {}
                    Ok(()) if held.is_none() => {}
                    other => panic!("{context}: insert gave {other:?}"),
                }
            } else {
                let found = t.delete(&op.user, op.rid).unwrap();
                assert_eq!(found, held == Some(&op.rid), "{context}: delete");
            }
        }

        /// Bring the model up to date with `op`, once it has run.
        fn record(&mut self, op: Op) {
            let held = self.model.get(&op.skey);
            if !op.insert && held == Some(&op.rid) {
                self.model.remove(&op.skey);
            } else if op.insert && held.is_none() {
                self.model.insert(op.skey, op.rid);
            }
        }
    }

    /// A [`History`] applied to a tree and compared with its model after
    /// every step.
    fn run_history(unique: bool, wide: bool, steps: usize, seed: u64) {
        let mut history = History::new(unique, wide, steps, seed);
        let mut t = tree(unique);
        for step in 0..steps {
            let context = format!("unique {unique}, wide {wide}, seed {seed}, step {step}");
            let op = history.op(step, &t);
            let before = path_pages(&t, &op.skey);
            history.run(&op, &mut t, &context);
            history.record(op);
            assert_encoded_over(&t, before, &context);
            check_against(&t, &history.model, &context);
        }
    }

    /// Two trees a [`History`] changes alike, each in its own pool of
    /// eight pages, where LRU order decides which node reads miss. Lookups
    /// go through `range_scan` on one tree and through `walk` on the other.
    struct Twins {
        scanned: BTree,
        walked: BTree,
        scan_meter: Arc<CostMeter>,
        walk_meter: Arc<CostMeter>,
    }

    impl Twins {
        fn new(unique: bool) -> Twins {
            let pooled = || {
                let meter = CostMeter::new();
                let pager = Pager::new(PagerConfig { pool_pages: 8 }, Arc::clone(&meter));
                (BTree::new(pager, unique).unwrap(), meter)
            };
            let ((scanned, scan_meter), (walked, walk_meter)) = (pooled(), pooled());
            Twins { scanned, walked, scan_meter, walk_meter }
        }

        /// Look `lower`..`upper` up in both trees, a point lookup on the
        /// walked tree through `search_exact`: both find the same entries
        /// in the same order with the same metered work. Returns the node
        /// reads.
        fn lookup(&self, lower: Bound<&[u8]>, upper: Bound<&[u8]>, context: &str) -> u64 {
            let before = self.scan_meter.snapshot();
            let want = self.scanned.range_scan(lower, upper).unwrap();
            let scan_work = self.scan_meter.snapshot().since(&before);
            let before = self.walk_meter.snapshot();
            match (lower, upper) {
                (Bound::Included(a), Bound::Included(b)) if a == b => {
                    let rids = self.walked.search_exact(a).unwrap();
                    assert!(rids.iter().eq(want.iter().map(|(_, r)| r)), "{context}: point");
                }
                _ => {
                    let mut got = Vec::new();
                    self.walked.walk(lower, upper, |k, rid| got.push((k.to_vec(), rid))).unwrap();
                    assert!(got == want, "{context}: {lower:?}..{upper:?}");
                }
            }
            let walk_work = self.walk_meter.snapshot().since(&before);
            assert_eq!(walk_work, scan_work, "{context}: {lower:?}..{upper:?}");
            scan_work.index_node_reads()
        }

        /// The user key of each leaf's last entry, leaves left to right,
        /// read alike from both trees (an empty root leaf has none).
        fn leaf_ends(&self) -> Vec<Vec<u8>> {
            let ends = |t: &BTree| -> Vec<Vec<u8>> {
                let leaves = reachable(t).1.into_iter().map(|(pid, _)| t.load(pid).unwrap());
                leaves
                    .filter_map(|leaf| match leaf {
                        Node::Leaf { entries, .. } => {
                            entries.last().map(|(k, _)| user_part(t.unique, k).to_vec())
                        }
                        Node::Internal { .. } => unreachable!("a leaf"),
                    })
                    .collect()
            };
            let found = ends(&self.scanned);
            assert!(ends(&self.walked) == found);
            found
        }
    }

    /// A bound of kind `kind` (unbounded, included, excluded) at `key`.
    fn bound_of(kind: u64, key: &[u8]) -> Bound<&[u8]> {
        match kind {
            0 => Bound::Unbounded,
            1 => Bound::Included(key),
            _ => Bound::Excluded(key),
        }
    }

    /// A [`History`] applied to [`Twins`], with lookups after every step:
    /// all nine pairs of bound kinds over keys the tree holds, keys it may
    /// not hold, and the last keys of leaves. Every 32 steps each leaf's
    /// last key is looked up, and so is a key just past it: a lookup of a
    /// leaf's last key reads the neighbour leaf too. Non-unique trees hold
    /// each key a few times, so an excluded lower bound skips a prefix.
    fn run_lookups(unique: bool, wide: bool, steps: usize, seed: u64) {
        let mut history = History::new(unique, wide, steps, seed);
        let mut twins = Twins::new(unique);
        let mut ends = Vec::new();
        for step in 0..steps {
            let context = format!("unique {unique}, wide {wide}, seed {seed}, step {step}");
            let op = history.op(step, &twins.scanned);
            history.run(&op, &mut twins.scanned, &context);
            history.run(&op, &mut twins.walked, &context);
            history.record(op);
            if step % 32 == 0 {
                ends = twins.leaf_ends();
                let height = twins.scanned.height() as u64;
                for (i, end) in ends.iter().enumerate() {
                    let reads = twins.lookup(Bound::Included(end), Bound::Included(end), &context);
                    if i + 1 < ends.len() {
                        assert!(reads >= height + 2, "{context}: the neighbour of leaf {i}");
                    }
                    let past = [&end[..], &[0]].concat();
                    let lower = bound_of(history.rng.below(3), &past);
                    twins.lookup(lower, bound_of(history.rng.below(3), &past), &context);
                }
            }
            for _ in 0..2 {
                let a = history.lookup_key(&ends);
                let b =
                    if history.rng.below(4) == 0 { a.clone() } else { history.lookup_key(&ends) };
                let (lo, hi) = (a.clone().min(b.clone()), a.max(b));
                let kinds = (history.rng.below(3), history.rng.below(3));
                twins.lookup(bound_of(kinds.0, &lo), bound_of(kinds.1, &hi), &context);
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(40))]

        /// `walk` (and `search_exact` on it) is `range_scan` minus the
        /// decode: the same entries, the same node reads, the same misses.
        #[test]
        fn walk_reads_what_range_scan_reads(
            (unique, wide) in (proptest::strategy::any::<bool>(), proptest::strategy::any::<bool>()),
            (steps, seed) in (0usize..1500, proptest::strategy::any::<u64>()),
        ) {
            run_lookups(unique, wide, steps, seed);
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(1000))]

        /// The same at 1 000 cases (`cargo test --release -p rdbms --lib
        /// walk_reads_what_range_scan_reads_long -- --ignored`).
        #[test]
        #[ignore]
        fn walk_reads_what_range_scan_reads_long(
            (unique, wide) in (proptest::strategy::any::<bool>(), proptest::strategy::any::<bool>()),
            (steps, seed) in (0usize..1500, proptest::strategy::any::<u64>()),
        ) {
            run_lookups(unique, wide, steps, seed);
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(40))]

        #[test]
        fn insert_delete_histories_match_a_model(
            (unique, wide) in (proptest::strategy::any::<bool>(), proptest::strategy::any::<bool>()),
            (steps, seed) in (0usize..3000, proptest::strategy::any::<u64>()),
        ) {
            run_history(unique, wide, steps, seed);
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(2000))]

        /// The same at 2 000 cases (`cargo test --release -p rdbms --lib
        /// -- --ignored`, a few minutes).
        #[test]
        #[ignore]
        fn insert_delete_histories_match_a_model_long(
            (unique, wide) in (proptest::strategy::any::<bool>(), proptest::strategy::any::<bool>()),
            (steps, seed) in (0usize..3000, proptest::strategy::any::<u64>()),
        ) {
            run_history(unique, wide, steps, seed);
        }
    }
}
