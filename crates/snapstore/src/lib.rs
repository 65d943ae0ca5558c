//! # lwsnap-snapstore — page-granular CoW snapshot store
//!
//! Stores solver snapshots on the persistent radix page table of
//! `lwsnap-mem`, so a snapshot costs O(pages dirtied since its parent)
//! instead of O(whole solver state) — the paper's core cost model
//! applied to the solver service's own snapshot cache.
//!
//! ## How a snapshot becomes pages
//!
//! [`CowStore::put`] encodes the solver through the sectioned codec of
//! `lwsnap_solver::snapshot` (essential state only, every field in its
//! own section at a fixed virtual base; the solver's *snapshot normal
//! form* makes semantically equal states byte-equal), then lays the
//! bytes over a **clone of the parent snapshot's page table** — an O(1)
//! persistent fork. Each 4 KiB page is compared before it is written:
//! a page whose bytes match the parent's stays physically shared, a
//! page of zeroes with no backing frame stays demand-zero, and only
//! genuinely dirtied pages get fresh frames. The result is structural
//! parent-delta storage without an explicit delta chain:
//!
//! ```text
//!   root  ──────►  [H][arena·····][activity····][assigns··]   (all frames)
//!                     │     │           │            │
//!   child ──────►  [H'][arena····A][activity····][assigns·B]
//!                          ▲ shared with root except pages H', A, B
//! ```
//!
//! Removal (eviction or release) drops the victim's table; frames only
//! it referenced are freed by refcount, frames shared with relatives
//! survive. Releasing every intermediate of a linear chain therefore
//! *compacts* the chain automatically: the surviving descendant keeps
//! exactly the union of pages it still maps, nothing else.
//!
//! [`CowStore::resident_bytes`] counts **distinct frames** across all
//! resident snapshots — shared storage priced once — which is what the
//! service's `snapshot_budget_bytes` compares against; with sharing,
//! the same budget holds many times more snapshots than the deep-clone
//! baseline (the `snapstore_density` bench asserts ≥ 5×).
//!
//! ## Residency is counted incrementally
//!
//! The service reads `resident_bytes` after every put and remove, so
//! the count is kept as it changes rather than walked: a `put` adds the
//! fresh frames it installs (CoW page copies plus zero fills — the
//! parent stays resident, so no frame leaves the distinct set), and a
//! `remove` subtracts [`PageTable::exclusive_frames`] of the victim,
//! the frames no other table reaches. Each read is O(1). The section
//! tail a `put` trims with `discard_range` maps nothing in the common
//! case, and an empty discard copies no nodes, so a child's private
//! nodes are only those on paths to its dirtied pages — which keeps
//! the remove walk short too. The full frame walk remains as the
//! reference: `page_stats` (the shared/private split, read by the
//! service's `stats()`, not per request) memoises it, and debug builds
//! assert the counter against it on every `resident_bytes` read.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::cell::Cell;
use std::collections::HashMap;
use std::sync::Arc;

use lwsnap_mem::{MemStats, PageBuf, PageTable, PAGE_SIZE};
use lwsnap_solver::snapshot::{
    self, SnapId, SnapshotStore, StoreMemStats, StorePageStats, NUM_SECTIONS,
};
use lwsnap_solver::Solver;

/// Pages reserved per codec section: 1 Mi pages = 4 GiB of virtual
/// room, far beyond any solver section, and `NUM_SECTIONS` strides fit
/// comfortably in the table's 36-bit vpn space. Fixed bases mean one
/// section's growth never shifts another's pages.
const SECTION_STRIDE: u64 = 1 << 20;

/// Page-granular copy-on-write snapshot store.
///
/// Each resident snapshot is one persistent [`PageTable`] holding the
/// snapshot's encoded state; tables forked from a parent share every
/// frame the child did not dirty. See the crate docs for the layout.
pub struct CowStore {
    slots: Vec<Option<PageTable>>,
    gens: Vec<u32>,
    free: Vec<u32>,
    live: usize,
    stats: MemStats,
    /// Distinct frames across all resident tables, kept exact by `put`
    /// (plus the frames it installs) and `remove` (minus the frames only
    /// the victim mapped).
    frames: u64,
    /// Memoised shared/private page split — invalidated by every
    /// `put`/`remove`, recomputed lazily by a frame walk.
    cache: Cell<Option<StorePageStats>>,
}

impl Default for CowStore {
    fn default() -> Self {
        Self::new()
    }
}

impl CowStore {
    /// An empty store.
    pub fn new() -> CowStore {
        CowStore {
            slots: Vec::new(),
            gens: Vec::new(),
            free: Vec::new(),
            live: 0,
            stats: MemStats::new(),
            frames: 0,
            cache: Cell::new(None),
        }
    }

    /// Cumulative MMU counters: CoW page copies, zero fills and bytes
    /// written by snapshot encoding (the "what was copied, when" the
    /// benches assert on).
    pub fn mem_stats(&self) -> MemStats {
        self.stats
    }

    fn table(&self, id: SnapId) -> Option<&PageTable> {
        if *self.gens.get(id.idx() as usize)? != id.gen() {
            return None;
        }
        self.slots[id.idx() as usize].as_ref()
    }

    /// Writes one encoded section into `table` at its fixed base,
    /// skipping pages whose bytes already match (they stay shared with
    /// the parent) and all-zero pages with no frame (demand-zero).
    fn write_section(table: &mut PageTable, stats: &mut MemStats, sec_idx: usize, bytes: &[u8]) {
        let base = sec_idx as u64 * SECTION_STRIDE;
        let npages = bytes.len().div_ceil(PAGE_SIZE) as u64;
        debug_assert!(npages < SECTION_STRIDE, "section overflows its stride");
        for p in 0..npages {
            let start = (p as usize) * PAGE_SIZE;
            let chunk = &bytes[start..bytes.len().min(start + PAGE_SIZE)];
            let vpn = base + p;
            let (present, dirty) = match table.frame(vpn) {
                Some(frame) => {
                    let fb = frame.bytes();
                    let same =
                        fb[..chunk.len()] == *chunk && fb[chunk.len()..].iter().all(|&b| b == 0);
                    (true, !same)
                }
                None => (false, chunk.iter().any(|&b| b != 0)),
            };
            if !dirty {
                continue;
            }
            // `install` with a fresh frame rather than `with_frame_mut`:
            // the old shared frame must not be copied first just to be
            // overwritten. Bill the page copy / zero fill ourselves
            // (install only counts node copies).
            if present {
                stats.cow_page_copies += 1;
            } else {
                stats.zero_fills += 1;
            }
            stats.bytes_written += chunk.len() as u64;
            let mut buf = PageBuf::zeroed();
            buf.bytes_mut()[..chunk.len()].copy_from_slice(chunk);
            table.install(vpn, Arc::new(buf), stats);
        }
        // Pages past the section's new end are stale parent state (the
        // section shrank, e.g. a reduced learnt database): drop them so
        // reads see zeroes.
        table.discard_range(base + npages, base + SECTION_STRIDE, stats);
    }

    /// Reads `len` bytes of section `sec_idx` back out of `table`;
    /// unmapped (demand-zero) pages read as zeroes.
    fn read_section(table: &PageTable, sec_idx: usize, len: usize) -> Vec<u8> {
        let base = sec_idx as u64 * SECTION_STRIDE;
        let mut out = vec![0u8; len];
        for p in 0..len.div_ceil(PAGE_SIZE) {
            if let Some(frame) = table.frame(base + p as u64) {
                let start = p * PAGE_SIZE;
                let n = PAGE_SIZE.min(len - start);
                out[start..start + n].copy_from_slice(&frame.bytes()[..n]);
            }
        }
        out
    }

    /// The reference page accounting: a walk over every frame of every
    /// resident table. O(resident pages), so only `page_stats` reads it.
    fn recompute(&self) -> StorePageStats {
        // Key frames by allocation address: `Arc::ptr_eq` at scale.
        let mut counts: HashMap<usize, u64> = HashMap::new();
        for table in self.slots.iter().flatten() {
            table.for_each_frame(|_, frame| {
                *counts.entry(Arc::as_ptr(frame) as usize).or_insert(0) += 1;
            });
        }
        let total = counts.len() as u64;
        let shared = counts.values().filter(|&&c| c > 1).count() as u64;
        StorePageStats {
            total_pages: total,
            shared_pages: shared,
            private_pages: total - shared,
        }
    }
}

impl SnapshotStore for CowStore {
    fn put(&mut self, parent: Option<SnapId>, solver: &Solver) -> SnapId {
        let sections = snapshot::encode(solver);
        let mut table = parent
            .and_then(|id| self.table(id).cloned())
            .unwrap_or_default();
        // The parent stays resident, so every frame the child drops or
        // replaces is still mapped; only the fresh frames are new.
        let fresh = |s: &MemStats| s.cow_page_copies + s.zero_fills;
        let before = fresh(&self.stats);
        for (i, sec) in sections.iter().enumerate() {
            Self::write_section(&mut table, &mut self.stats, i, sec);
        }
        self.frames += fresh(&self.stats) - before;
        self.cache.set(None);
        self.live += 1;
        match self.free.pop() {
            Some(idx) => {
                self.slots[idx as usize] = Some(table);
                SnapId::new(idx, self.gens[idx as usize])
            }
            None => {
                self.slots.push(Some(table));
                self.gens.push(0);
                SnapId::new((self.slots.len() - 1) as u32, 0)
            }
        }
    }

    fn get(&self, id: SnapId) -> Option<Solver> {
        let table = self.table(id)?;
        let header = Self::read_section(table, 0, snapshot::HEADER_LEN);
        let lens = snapshot::section_lengths(&header)?;
        let mut sections = Vec::with_capacity(NUM_SECTIONS);
        sections.push(header);
        for (i, &len) in lens.iter().enumerate().skip(1) {
            sections.push(Self::read_section(table, i, len));
        }
        snapshot::decode(&sections)
    }

    fn remove(&mut self, id: SnapId) -> bool {
        let idx = id.idx() as usize;
        if self.gens.get(idx) != Some(&id.gen()) {
            return false;
        }
        let Some(table) = self.slots[idx].take() else {
            return false;
        };
        // Dropping the table frees every frame only it referenced;
        // frames shared with parent/children survive by refcount —
        // chain compaction for free. Count the former while every other
        // table still holds its references.
        self.frames -= table.exclusive_frames();
        self.gens[idx] = id.gen().wrapping_add(1);
        self.free.push(id.idx());
        self.live -= 1;
        self.cache.set(None);
        true
    }

    fn len(&self) -> usize {
        self.live
    }

    fn resident_bytes(&self) -> usize {
        debug_assert_eq!(
            self.frames,
            self.page_stats().total_pages,
            "incremental frame count drifted from the frame walk"
        );
        self.frames as usize * PAGE_SIZE
    }

    fn page_stats(&self) -> StorePageStats {
        if let Some(hit) = self.cache.get() {
            return hit;
        }
        let fresh = self.recompute();
        self.cache.set(Some(fresh));
        fresh
    }

    fn mem_stats(&self) -> StoreMemStats {
        StoreMemStats {
            cow_page_copies: self.stats.cow_page_copies,
            zero_fills: self.stats.zero_fills,
            bytes_written: self.stats.bytes_written,
        }
    }

    fn name(&self) -> &'static str {
        "cow-page"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lwsnap_solver::generators::{random_ksat, IncrementalFamily};
    use lwsnap_solver::snapshot::encode;
    use lwsnap_solver::SolveResult;

    fn worked_solver(seed: u64) -> Solver {
        let fam = IncrementalFamily::new(80, 4, seed);
        let mut s = Solver::new();
        for c in &fam.combined(2).clauses {
            s.add_clause(c);
        }
        assert_eq!(s.solve(), SolveResult::Sat);
        s
    }

    /// The incremental counter against the reference frame walk (the
    /// `debug_assert` in `resident_bytes` checks the same, but only in
    /// debug builds).
    fn assert_counted(store: &CowStore) -> usize {
        let bytes = store.resident_bytes();
        assert_eq!(
            bytes,
            store.page_stats().total_pages as usize * PAGE_SIZE,
            "frame counter drifted from the walk"
        );
        bytes
    }

    fn extended(s: &Solver, fam: &IncrementalFamily, step: u64) -> Solver {
        let mut s = s.clone();
        for c in &fam.increment(step) {
            s.add_clause(c);
        }
        s.solve();
        s
    }

    #[test]
    fn residency_counter_survives_awkward_removal_orders() {
        let fam = IncrementalFamily::new(80, 4, 12);
        let base = worked_solver(12);
        let mut store = CowStore::new();
        assert_eq!(assert_counted(&store), 0);

        // A parent with two children; the parent goes first.
        let p = store.put(None, &base);
        let one = assert_counted(&store);
        let a = store.put(Some(p), &extended(&base, &fam, 3));
        assert_counted(&store);
        let b = store.put(Some(p), &extended(&base, &fam, 4));
        let all = assert_counted(&store);
        assert!(store.remove(p));
        let without_p = assert_counted(&store);
        assert!(without_p <= all && without_p >= one);
        assert!(store.remove(a));
        assert_counted(&store);
        assert!(store.get(b).is_some(), "survivor still reads back");

        // The freed slots are reused; the new generations count afresh.
        let c = store.put(Some(b), &extended(&base, &fam, 5));
        assert_eq!(c.idx(), a.idx(), "slot recycled");
        assert_counted(&store);
        // An identical re-put shares its parent's root outright.
        let twin = store.put(Some(c), &store.get(c).unwrap());
        let with_twin = assert_counted(&store);
        assert!(store.remove(c));
        assert_eq!(assert_counted(&store), with_twin, "twin still maps all");

        // A stale parent handle forks from nothing: no sharing.
        assert!(!store.remove(a), "stale handle");
        let before = assert_counted(&store);
        let orphan = store.put(Some(a), &base);
        assert_eq!(assert_counted(&store), before + one);

        for id in [b, twin, orphan] {
            assert!(store.remove(id));
            assert_counted(&store);
        }
        assert!(store.is_empty());
        assert_eq!(assert_counted(&store), 0);
    }

    #[test]
    fn residency_counter_tracks_shrinking_sections() {
        // Big parent, small child: the child's put discards the
        // parent's section tails, which stay resident in the parent.
        let mut store = CowStore::new();
        let big = worked_solver(13);
        let parent = store.put(None, &big);
        let small = {
            let mut s = Solver::new();
            for c in &IncrementalFamily::new(10, 3, 14).base().clauses {
                s.add_clause(c);
            }
            s.solve();
            s
        };
        let discarded = store.mem_stats().pages_discarded;
        let child = store.put(Some(parent), &small);
        assert!(
            store.mem_stats().pages_discarded > discarded,
            "tail dropped"
        );
        let grand = store.put(Some(child), &big);
        assert_counted(&store);
        assert!(store.remove(parent));
        assert_counted(&store);
        assert!(store.remove(grand));
        assert_counted(&store);
        assert_eq!(encode(&store.get(child).unwrap()), encode(&small));
        assert!(store.remove(child));
        assert_eq!(assert_counted(&store), 0);
    }

    #[test]
    fn roundtrip_is_bit_identical() {
        let mut store = CowStore::new();
        let s = worked_solver(3);
        let id = store.put(None, &s);
        let back = store.get(id).expect("resident snapshot");
        assert_eq!(encode(&back), encode(&s), "store must be lossless");
    }

    #[test]
    fn stale_and_removed_handles_are_dead() {
        let mut store = CowStore::new();
        let s = worked_solver(4);
        let id = store.put(None, &s);
        assert!(store.remove(id));
        assert!(!store.remove(id));
        assert!(store.get(id).is_none());
        let id2 = store.put(None, &s);
        assert_eq!(id2.idx(), id.idx(), "slot recycled");
        assert!(store.get(id).is_none(), "old generation stays dead");
        assert!(store.get(id2).is_some());
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn child_shares_pages_with_parent() {
        let fam = IncrementalFamily::new(80, 4, 5);
        let mut store = CowStore::new();
        let mut s = worked_solver(5);
        let parent = store.put(None, &s);
        let parent_bytes = store.resident_bytes();

        for c in &fam.increment(2) {
            s.add_clause(c);
        }
        assert_eq!(s.solve(), SolveResult::Sat);
        let child = store.put(Some(parent), &s);

        let ps = store.page_stats();
        assert!(ps.shared_pages > 0, "child shares pages: {ps:?}");
        let both = store.resident_bytes();
        assert!(
            both - parent_bytes < parent_bytes,
            "child delta ({} bytes) must undercut a full copy ({parent_bytes})",
            both - parent_bytes
        );
        // Both read back exactly.
        assert_eq!(encode(&store.get(child).unwrap()), encode(&s));
        assert!(store.get(parent).is_some());
    }

    #[test]
    fn unrelated_put_without_parent_shares_nothing() {
        let mut store = CowStore::new();
        let a = store.put(None, &worked_solver(6));
        let _b = store.put(None, &worked_solver(7));
        let ps = store.page_stats();
        assert_eq!(ps.shared_pages, 0, "no parent hint, no sharing: {ps:?}");
        assert!(store.get(a).is_some());
    }

    #[test]
    fn removing_intermediate_compacts_the_chain() {
        // A → B → C, then drop B: C must stay bit-identical and the
        // pages private to B must be freed (resident shrinks).
        let fam = IncrementalFamily::new(80, 4, 8);
        let mut store = CowStore::new();
        let mut s = Solver::new();
        for c in &fam.base().clauses {
            s.add_clause(c);
        }
        s.solve();
        let a = store.put(None, &s);
        for c in &fam.increment(0) {
            s.add_clause(c);
        }
        s.solve();
        let b = store.put(Some(a), &s);
        for c in &fam.increment(1) {
            s.add_clause(c);
        }
        s.solve();
        let c_enc = {
            let id = store.put(Some(b), &s);
            let with_b = store.resident_bytes();
            assert!(store.remove(b));
            let without_b = store.resident_bytes();
            assert!(
                without_b <= with_b,
                "dropping an intermediate never grows residency"
            );
            encode(&store.get(id).unwrap())
        };
        assert_eq!(c_enc, encode(&s), "compacted chain still bit-identical");
        assert!(store.get(a).is_some(), "ancestor unaffected");
    }

    #[test]
    fn many_children_cost_deltas_not_copies() {
        // The density claim at unit scale: N children of one parent
        // must cost far less than N independent copies. Needs a state
        // big enough (dozens of pages) that the per-child floor of a
        // few pages — header, section tails, polarity, model — is small
        // against the whole; easy under-constrained 3-SAT keeps the
        // solving itself cheap.
        let vars = 1500;
        let mut store = CowStore::new();
        let mut base = Solver::new();
        for c in &random_ksat(vars, vars * 2, 3, 9).clauses {
            base.add_clause(c);
        }
        assert_eq!(base.solve(), SolveResult::Sat);
        let parent = store.put(None, &base);
        let one = store.resident_bytes();
        for i in 0..6 {
            let mut child = base.clone();
            for c in &random_ksat(vars, 4, 3, 1000 + i).clauses {
                child.add_clause(c);
            }
            assert_eq!(child.solve(), SolveResult::Sat);
            store.put(Some(parent), &child);
        }
        let all = store.resident_bytes();
        assert!(
            all < one * 3,
            "7 snapshots at {all} bytes vs {one} for one — deltas, not copies"
        );
        // Most of the parent's pages are mapped by every child: the
        // shared set must cover over half the single-snapshot size.
        // (Private pages legitimately accumulate too — each child owns
        // its few delta pages.)
        let ps = store.page_stats();
        assert!(
            ps.shared_pages as usize * PAGE_SIZE > one / 2,
            "parent bulk is shared: {ps:?}, one={one}"
        );
    }

    #[test]
    fn shrinking_sections_leave_no_stale_tail() {
        // Encode a big solver as parent, then a *smaller* one as its
        // child: pages past the child's section ends must read as
        // zeroes, not leftover parent bytes.
        let mut store = CowStore::new();
        let big = worked_solver(10);
        let parent = store.put(None, &big);
        let small = {
            let mut s = Solver::new();
            for c in &IncrementalFamily::new(10, 3, 11).base().clauses {
                s.add_clause(c);
            }
            s.solve();
            s
        };
        let child = store.put(Some(parent), &small);
        assert_eq!(encode(&store.get(child).unwrap()), encode(&small));
    }
}
