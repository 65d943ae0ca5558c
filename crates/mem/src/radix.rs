//! The persistent radix page table.
//!
//! A 4-level, 512-way radix tree maps 36-bit virtual page numbers (48-bit
//! addresses) to [`Frame`]s — the same shape as an x86-64 hardware page
//! table, which is what the paper's Dune libOS manipulates through nested
//! paging.
//!
//! The tree is *persistent* (in the functional-data-structure sense):
//! interior nodes and frames are shared via `Arc`. Taking a snapshot of an
//! address space clones the root `Arc` — O(1) regardless of how much memory
//! is mapped. A subsequent write path-copies at most [`LEVELS`] nodes and
//! copies at most one 4 KiB frame; untouched subtrees remain shared between
//! all snapshots, byte-for-byte and pointer-for-pointer. This reproduces, in
//! software, the CoW fault behaviour the paper gets from hardware paging.

use std::sync::Arc;

use crate::page::{fresh_zero_frame, Frame, PageBuf};
use crate::stats::MemStats;

/// Number of radix levels (level 0 is the leaf level).
pub const LEVELS: u32 = 4;

/// Log2 of the node fan-out.
pub const FANOUT_SHIFT: u32 = 9;

/// Node fan-out (entries per node).
pub const FANOUT: usize = 1 << FANOUT_SHIFT;

/// Number of virtual-page-number bits the tree can map.
pub const VPN_BITS: u32 = LEVELS * FANOUT_SHIFT;

/// Highest mappable virtual page number (inclusive).
pub const MAX_VPN: u64 = (1u64 << VPN_BITS) - 1;

/// Returns the slot index of `vpn` at `level`.
#[inline]
fn slot(vpn: u64, level: u32) -> usize {
    ((vpn >> (FANOUT_SHIFT * level)) & (FANOUT as u64 - 1)) as usize
}

/// Number of pages covered by one entry of a node at `level`.
#[inline]
fn span(level: u32) -> u64 {
    1u64 << (FANOUT_SHIFT * level)
}

/// One node of the radix tree.
#[derive(Clone)]
pub(crate) enum Node {
    /// Levels 3..1: pointers to child nodes.
    Interior(Box<[Option<Arc<Node>>]>),
    /// Level 0: pointers to frames.
    Leaf(Box<[Option<Frame>]>),
}

impl Node {
    fn new_interior() -> Node {
        Node::Interior(empty_slots())
    }

    fn new_leaf() -> Node {
        Node::Leaf(empty_slots())
    }

    fn new_for_level(level: u32) -> Node {
        if level == 0 {
            Node::new_leaf()
        } else {
            Node::new_interior()
        }
    }

    fn is_empty(&self) -> bool {
        match self {
            Node::Interior(slots) => slots.iter().all(Option::is_none),
            Node::Leaf(frames) => frames.iter().all(Option::is_none),
        }
    }
}

fn empty_slots<T>() -> Box<[Option<T>]> {
    (0..FANOUT).map(|_| None).collect()
}

/// A persistent map from virtual page numbers to frames.
///
/// Cloning is O(1) and shares all structure; mutation copies only the
/// nodes along the touched path (and the touched frame, if shared).
#[derive(Clone)]
pub struct PageTable {
    root: Arc<Node>,
}

impl Default for PageTable {
    fn default() -> Self {
        Self::new()
    }
}

impl PageTable {
    /// Creates an empty page table.
    pub fn new() -> Self {
        PageTable {
            root: Arc::new(Node::new_interior()),
        }
    }

    /// Returns `true` if the two tables share their entire structure.
    pub fn same_root(&self, other: &PageTable) -> bool {
        Arc::ptr_eq(&self.root, &other.root)
    }

    /// Looks up the frame mapped at `vpn`, if one has been materialised.
    ///
    /// Demand-zero pages that were never written have no frame and return
    /// `None`; the caller reads zeroes for them.
    pub fn frame(&self, vpn: u64) -> Option<&Frame> {
        debug_assert!(vpn <= MAX_VPN);
        let mut node: &Node = &self.root;
        for level in (1..LEVELS).rev() {
            match node {
                Node::Interior(slots) => {
                    node = slots[slot(vpn, level)].as_deref()?;
                }
                Node::Leaf(_) => unreachable!("leaf above level 0"),
            }
        }
        match node {
            Node::Leaf(frames) => frames[slot(vpn, 0)].as_ref(),
            Node::Interior(_) => unreachable!("interior at level 0"),
        }
    }

    /// Returns the leaf node covering `vpn`, for the read-side leaf cache.
    pub(crate) fn leaf_for(&self, vpn: u64) -> Option<Arc<Node>> {
        let mut node: &Arc<Node> = &self.root;
        for level in (1..LEVELS).rev() {
            match &**node {
                Node::Interior(slots) => {
                    node = slots[slot(vpn, level)].as_ref()?;
                }
                Node::Leaf(_) => unreachable!("leaf above level 0"),
            }
        }
        Some(node.clone())
    }

    /// Gives mutable access to the frame at `vpn`, materialising the path
    /// and a zero frame as needed, with CoW on shared nodes/frames.
    ///
    /// `stats` records node copies, CoW page copies and zero fills.
    pub fn with_frame_mut<R>(
        &mut self,
        vpn: u64,
        stats: &mut MemStats,
        f: impl FnOnce(&mut PageBuf) -> R,
    ) -> R {
        debug_assert!(vpn <= MAX_VPN);
        let mut cur: &mut Arc<Node> = &mut self.root;
        for level in (1..LEVELS).rev() {
            if Arc::strong_count(cur) > 1 {
                stats.node_copies += 1;
            }
            match Arc::make_mut(cur) {
                Node::Interior(slots) => {
                    cur = slots[slot(vpn, level)]
                        .get_or_insert_with(|| Arc::new(Node::new_for_level(level - 1)));
                }
                Node::Leaf(_) => unreachable!("leaf above level 0"),
            }
        }
        if Arc::strong_count(cur) > 1 {
            stats.node_copies += 1;
        }
        match Arc::make_mut(cur) {
            Node::Leaf(frames) => {
                let entry = &mut frames[slot(vpn, 0)];
                let frame = match entry {
                    Some(frame) => {
                        if Arc::strong_count(frame) > 1 {
                            stats.cow_page_copies += 1;
                        }
                        frame
                    }
                    None => {
                        stats.zero_fills += 1;
                        entry.insert(fresh_zero_frame())
                    }
                };
                f(Arc::make_mut(frame))
            }
            Node::Interior(_) => unreachable!("interior at level 0"),
        }
    }

    /// Maps `vpn` directly to `frame`, replacing any existing mapping.
    ///
    /// Used by loaders to install pre-built pages without a CoW copy.
    pub fn install(&mut self, vpn: u64, frame: Frame, stats: &mut MemStats) {
        debug_assert!(vpn <= MAX_VPN);
        let mut cur: &mut Arc<Node> = &mut self.root;
        for level in (1..LEVELS).rev() {
            if Arc::strong_count(cur) > 1 {
                stats.node_copies += 1;
            }
            match Arc::make_mut(cur) {
                Node::Interior(slots) => {
                    cur = slots[slot(vpn, level)]
                        .get_or_insert_with(|| Arc::new(Node::new_for_level(level - 1)));
                }
                Node::Leaf(_) => unreachable!("leaf above level 0"),
            }
        }
        if Arc::strong_count(cur) > 1 {
            stats.node_copies += 1;
        }
        match Arc::make_mut(cur) {
            Node::Leaf(frames) => frames[slot(vpn, 0)] = Some(frame),
            Node::Interior(_) => unreachable!("interior at level 0"),
        }
    }

    /// Discards all frames with vpn in `[lo, hi)`, pruning empty subtrees.
    ///
    /// Only nodes on a path to a discarded frame are path-copied (and
    /// billed in `stats.node_copies`): a range that maps no frame leaves
    /// the table untouched, still sharing its root with any clone.
    ///
    /// Returns the number of frames discarded (recorded in
    /// `stats.pages_discarded` as well).
    pub fn discard_range(&mut self, lo: u64, hi: u64, stats: &mut MemStats) -> u64 {
        if lo >= hi {
            return 0;
        }
        let discarded = discard_rec(
            &mut self.root,
            LEVELS - 1,
            0,
            lo,
            hi.min(MAX_VPN + 1),
            stats,
        );
        stats.pages_discarded += discarded;
        discarded
    }

    /// Calls `f` for every materialised frame, in ascending vpn order.
    pub fn for_each_frame(&self, mut f: impl FnMut(u64, &Frame)) {
        for_each_rec(&self.root, LEVELS - 1, 0, &mut f);
    }

    /// Number of materialised frames.
    pub fn count_frames(&self) -> u64 {
        let mut n = 0;
        self.for_each_frame(|_, _| n += 1);
        n
    }

    /// Number of frames reachable from this table and from nothing else:
    /// the frames dropping this table would free.
    ///
    /// Walks from the root, pruning every node some other owner also
    /// holds (`Arc::strong_count > 1`: everything below it stays alive),
    /// and counts the leaf frames with a single owner. Exact only while
    /// every other owner of the table's nodes and frames is another live
    /// page table, as in a store that owns all its tables; a stray `Arc`
    /// clone of a node or frame (a leaf cache, say) makes it undercount.
    pub fn exclusive_frames(&self) -> u64 {
        exclusive_rec(&self.root)
    }

    /// Number of frames whose storage is pointer-identical in `other` at the
    /// same vpn — i.e. physically shared between the two tables.
    pub fn shared_frames_with(&self, other: &PageTable) -> u64 {
        let mut n = 0;
        self.for_each_frame(|vpn, frame| {
            if let Some(o) = other.frame(vpn) {
                if Arc::ptr_eq(frame, o) {
                    n += 1;
                }
            }
        });
        n
    }

    /// Produces a deep copy in which every frame is freshly allocated.
    ///
    /// This is the "full checkpoint" baseline of experiment E3: cost is
    /// proportional to the number of resident pages.
    pub fn deep_copy(&self) -> PageTable {
        let mut out = PageTable::new();
        let mut scratch = MemStats::new();
        self.for_each_frame(|vpn, frame| {
            out.install(
                vpn,
                Arc::new(PageBuf((*frame.bytes()).to_owned())),
                &mut scratch,
            );
        });
        out
    }
}

fn discard_rec(
    node: &mut Arc<Node>,
    level: u32,
    base: u64,
    lo: u64,
    hi: u64,
    stats: &mut MemStats,
) -> u64 {
    let node_span = span(level + 1);
    let node_lo = base;
    let node_hi = base + node_span;
    if hi <= node_lo || lo >= node_hi {
        return 0;
    }
    // Count frames in fully covered subtrees without copying nodes.
    let mut discarded = 0u64;
    let make_none = lo <= node_lo && node_hi <= hi;
    if make_none {
        // Whole node goes away; caller clears the slot. Count first.
        return count_rec(node, level);
    }
    // Nothing to drop here: leave the node (and its sharing) alone.
    if !maps_any(node, level, base, lo, hi) {
        return 0;
    }
    if Arc::strong_count(node) > 1 {
        stats.node_copies += 1;
    }
    let node = Arc::make_mut(node);
    match node {
        Node::Interior(slots) => {
            let child_span = span(level);
            for (i, entry) in slots.iter_mut().enumerate() {
                let child_lo = base + i as u64 * child_span;
                let child_hi = child_lo + child_span;
                if hi <= child_lo || lo >= child_hi {
                    continue;
                }
                if let Some(child) = entry {
                    if lo <= child_lo && child_hi <= hi {
                        discarded += count_rec(child, level - 1);
                        *entry = None;
                    } else {
                        discarded += discard_rec(child, level - 1, child_lo, lo, hi, stats);
                        if child.is_empty() {
                            *entry = None;
                        }
                    }
                }
            }
        }
        Node::Leaf(frames) => {
            for (i, entry) in frames.iter_mut().enumerate() {
                let vpn = base + i as u64;
                if lo <= vpn && vpn < hi && entry.is_some() {
                    *entry = None;
                    discarded += 1;
                }
            }
        }
    }
    discarded
}

/// Whether any frame under `node` (covering vpns from `base`) lies in
/// `[lo, hi)`.
fn maps_any(node: &Node, level: u32, base: u64, lo: u64, hi: u64) -> bool {
    match node {
        Node::Interior(slots) => {
            let child_span = span(level);
            slots.iter().enumerate().any(|(i, entry)| {
                let child_lo = base + i as u64 * child_span;
                let child_hi = child_lo + child_span;
                entry.as_ref().is_some_and(|child| {
                    lo < child_hi
                        && child_lo < hi
                        && (lo <= child_lo && child_hi <= hi
                            || maps_any(child, level - 1, child_lo, lo, hi))
                })
            })
        }
        Node::Leaf(frames) => frames.iter().enumerate().any(|(i, entry)| {
            let vpn = base + i as u64;
            lo <= vpn && vpn < hi && entry.is_some()
        }),
    }
}

fn exclusive_rec(node: &Arc<Node>) -> u64 {
    if Arc::strong_count(node) > 1 {
        return 0;
    }
    match &**node {
        Node::Interior(slots) => slots.iter().flatten().map(exclusive_rec).sum(),
        Node::Leaf(frames) => frames
            .iter()
            .flatten()
            .filter(|frame| Arc::strong_count(frame) == 1)
            .count() as u64,
    }
}

#[allow(clippy::only_used_in_recursion)] // mirrors discard_rec's signature
fn count_rec(node: &Arc<Node>, level: u32) -> u64 {
    match &**node {
        Node::Interior(slots) => {
            let mut n = 0;
            for entry in slots.iter().flatten() {
                n += count_rec(entry, level - 1);
            }
            n
        }
        Node::Leaf(frames) => frames.iter().flatten().count() as u64,
    }
}

fn for_each_rec(node: &Arc<Node>, level: u32, base: u64, f: &mut impl FnMut(u64, &Frame)) {
    match &**node {
        Node::Interior(slots) => {
            let child_span = span(level);
            for (i, entry) in slots.iter().enumerate() {
                if let Some(child) = entry {
                    for_each_rec(child, level - 1, base + i as u64 * child_span, f);
                }
            }
        }
        Node::Leaf(frames) => {
            for (i, entry) in frames.iter().enumerate() {
                if let Some(frame) = entry {
                    f(base + i as u64, frame);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn write_byte(pt: &mut PageTable, vpn: u64, off: usize, val: u8, stats: &mut MemStats) {
        pt.with_frame_mut(vpn, stats, |page| page.bytes_mut()[off] = val);
    }

    fn read_byte(pt: &PageTable, vpn: u64, off: usize) -> u8 {
        pt.frame(vpn).map(|f| f.bytes()[off]).unwrap_or(0)
    }

    #[test]
    fn empty_table_reads_nothing() {
        let pt = PageTable::new();
        assert!(pt.frame(0).is_none());
        assert!(pt.frame(MAX_VPN).is_none());
        assert_eq!(pt.count_frames(), 0);
    }

    #[test]
    fn write_then_read_back() {
        let mut pt = PageTable::new();
        let mut stats = MemStats::new();
        write_byte(&mut pt, 5, 100, 0xab, &mut stats);
        assert_eq!(read_byte(&pt, 5, 100), 0xab);
        assert_eq!(read_byte(&pt, 5, 101), 0);
        assert_eq!(stats.zero_fills, 1);
        assert_eq!(stats.cow_page_copies, 0);
        assert_eq!(pt.count_frames(), 1);
    }

    #[test]
    fn distant_vpns_use_distinct_subtrees() {
        let mut pt = PageTable::new();
        let mut stats = MemStats::new();
        // vpns differing at the top level.
        let far = 1u64 << (FANOUT_SHIFT * 3);
        write_byte(&mut pt, 0, 0, 1, &mut stats);
        write_byte(&mut pt, far, 0, 2, &mut stats);
        assert_eq!(read_byte(&pt, 0, 0), 1);
        assert_eq!(read_byte(&pt, far, 0), 2);
        assert_eq!(pt.count_frames(), 2);
    }

    #[test]
    fn snapshot_is_o1_and_isolated() {
        let mut pt = PageTable::new();
        let mut stats = MemStats::new();
        write_byte(&mut pt, 7, 0, 11, &mut stats);
        let snap = pt.clone();
        assert!(snap.same_root(&pt));

        write_byte(&mut pt, 7, 0, 99, &mut stats);
        assert_eq!(read_byte(&pt, 7, 0), 99);
        assert_eq!(read_byte(&snap, 7, 0), 11, "snapshot must be immutable");
        assert!(!snap.same_root(&pt));
        assert_eq!(stats.cow_page_copies, 1);
        assert_eq!(stats.node_copies, LEVELS as u64, "one copy per level");
    }

    #[test]
    fn untouched_pages_stay_shared_after_snapshot() {
        let mut pt = PageTable::new();
        let mut stats = MemStats::new();
        for vpn in 0..100 {
            write_byte(&mut pt, vpn, 0, vpn as u8, &mut stats);
        }
        let snap = pt.clone();
        write_byte(&mut pt, 3, 0, 0xff, &mut stats);
        // 99 of 100 frames still physically shared.
        assert_eq!(pt.shared_frames_with(&snap), 99);
        // And the data of untouched pages matches.
        for vpn in 0..100 {
            if vpn != 3 {
                assert_eq!(read_byte(&pt, vpn, 0), vpn as u8);
            }
        }
    }

    #[test]
    fn second_write_after_cow_is_free() {
        let mut pt = PageTable::new();
        let mut stats = MemStats::new();
        write_byte(&mut pt, 1, 0, 1, &mut stats);
        let _snap = pt.clone();
        write_byte(&mut pt, 1, 0, 2, &mut stats);
        let copies_after_first = stats.cow_page_copies;
        write_byte(&mut pt, 1, 1, 3, &mut stats);
        assert_eq!(
            stats.cow_page_copies, copies_after_first,
            "page now unique; no more copies"
        );
    }

    #[test]
    fn discard_range_removes_and_prunes() {
        let mut pt = PageTable::new();
        let mut stats = MemStats::new();
        for vpn in 0..10 {
            write_byte(&mut pt, vpn, 0, 1, &mut stats);
        }
        let n = pt.discard_range(2, 5, &mut stats);
        assert_eq!(n, 3);
        assert_eq!(stats.pages_discarded, 3);
        assert_eq!(pt.count_frames(), 7);
        assert!(pt.frame(2).is_none());
        assert!(pt.frame(5).is_some());
    }

    #[test]
    fn discard_whole_subtree() {
        let mut pt = PageTable::new();
        let mut stats = MemStats::new();
        let base = 1u64 << (FANOUT_SHIFT * 2);
        for i in 0..600u64 {
            write_byte(&mut pt, base + i, 0, 1, &mut stats);
        }
        // Covers more than one full leaf node.
        let n = pt.discard_range(base, base + 600, &mut stats);
        assert_eq!(n, 600);
        assert_eq!(pt.count_frames(), 0);
    }

    #[test]
    fn discard_does_not_affect_snapshot() {
        let mut pt = PageTable::new();
        let mut stats = MemStats::new();
        write_byte(&mut pt, 4, 0, 7, &mut stats);
        let snap = pt.clone();
        pt.discard_range(0, 100, &mut stats);
        assert!(pt.frame(4).is_none());
        assert_eq!(read_byte(&snap, 4, 0), 7);
    }

    #[test]
    fn empty_discard_on_a_clone_copies_nothing() {
        let mut pt = PageTable::new();
        let mut stats = MemStats::new();
        for vpn in 0..10 {
            write_byte(&mut pt, vpn, 0, 1, &mut stats);
        }
        let snap = pt.clone();
        let mut stats = MemStats::new();
        // Same leaf, next leaf, and far beyond: none maps a frame.
        assert_eq!(pt.discard_range(10, 1 << 20, &mut stats), 0);
        assert_eq!(pt.discard_range(600, 700, &mut stats), 0);
        assert!(pt.same_root(&snap), "an empty discard must not path-copy");
        assert_eq!(stats.node_copies, 0);
        assert_eq!(stats.pages_discarded, 0);
        assert_eq!(pt.count_frames(), 10);
    }

    #[test]
    fn populated_discard_on_a_clone_prunes_and_bills_copies() {
        let mut pt = PageTable::new();
        let mut stats = MemStats::new();
        for vpn in 0..10 {
            write_byte(&mut pt, vpn, 0, vpn as u8, &mut stats);
        }
        let snap = pt.clone();
        let mut stats = MemStats::new();
        assert_eq!(pt.discard_range(5, 1 << 20, &mut stats), 5);
        assert_eq!(stats.pages_discarded, 5);
        assert_eq!(stats.node_copies, LEVELS as u64, "one copy per level");
        assert!(!pt.same_root(&snap));
        assert_eq!(pt.count_frames(), 5);
        assert!(pt.frame(5).is_none());
        // The original snapshot keeps every page.
        assert_eq!(snap.count_frames(), 10);
        for vpn in 0..10 {
            assert_eq!(read_byte(&snap, vpn, 0), vpn as u8);
        }
        // Emptying a whole subtree prunes it instead of leaving husks.
        assert_eq!(pt.discard_range(0, 5, &mut stats), 5);
        assert_eq!(pt.count_frames(), 0);
        assert!(pt.root.is_empty());
    }

    #[test]
    fn exclusive_frames_counts_what_only_this_table_maps() {
        let mut pt = PageTable::new();
        let mut stats = MemStats::new();
        let far = 1u64 << (FANOUT_SHIFT * 3);
        for vpn in (0..10).chain([far]) {
            write_byte(&mut pt, vpn, 0, 1, &mut stats);
        }
        assert_eq!(pt.exclusive_frames(), 11, "a lone table owns everything");
        let mut child = pt.clone();
        assert_eq!(pt.exclusive_frames(), 0, "shared root: nothing private");
        assert_eq!(child.exclusive_frames(), 0);
        // Dirty one page and add one: the child owns exactly those two.
        write_byte(&mut child, 3, 0, 2, &mut stats);
        write_byte(&mut child, 20, 0, 2, &mut stats);
        assert_eq!(child.exclusive_frames(), 2);
        // The parent still owns the page the child replaced.
        assert_eq!(pt.exclusive_frames(), 1);
        // Dropping the child's view of pages 0..10 hands them back.
        child.discard_range(0, 10, &mut stats);
        assert_eq!(pt.exclusive_frames(), 10);
        assert_eq!(child.exclusive_frames(), 1, "only page 20 is private");
        drop(child);
        assert_eq!(pt.exclusive_frames(), 11);
    }

    #[test]
    fn install_replaces_frame() {
        let mut pt = PageTable::new();
        let mut stats = MemStats::new();
        let mut buf = PageBuf::zeroed();
        buf.bytes_mut()[0] = 0x55;
        pt.install(9, Arc::new(buf), &mut stats);
        assert_eq!(read_byte(&pt, 9, 0), 0x55);
        assert_eq!(stats.zero_fills, 0, "install is not a zero fill");
    }

    #[test]
    fn for_each_frame_in_order() {
        let mut pt = PageTable::new();
        let mut stats = MemStats::new();
        for &vpn in &[10u64, 2, 77, 3000] {
            write_byte(&mut pt, vpn, 0, 1, &mut stats);
        }
        let mut seen = Vec::new();
        pt.for_each_frame(|vpn, _| seen.push(vpn));
        assert_eq!(seen, vec![2, 10, 77, 3000]);
    }

    #[test]
    fn deep_copy_shares_nothing() {
        let mut pt = PageTable::new();
        let mut stats = MemStats::new();
        for vpn in 0..20 {
            write_byte(&mut pt, vpn, 0, vpn as u8, &mut stats);
        }
        let copy = pt.deep_copy();
        assert_eq!(copy.count_frames(), 20);
        assert_eq!(copy.shared_frames_with(&pt), 0);
        for vpn in 0..20 {
            assert_eq!(read_byte(&copy, vpn, 0), vpn as u8);
        }
    }

    #[test]
    fn max_vpn_is_mappable() {
        let mut pt = PageTable::new();
        let mut stats = MemStats::new();
        write_byte(&mut pt, MAX_VPN, 4095, 0xee, &mut stats);
        assert_eq!(read_byte(&pt, MAX_VPN, 4095), 0xee);
    }
}
