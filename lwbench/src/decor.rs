//! Timing decorators for the traced run. Each wraps one layer's public
//! trait and forwards every call unchanged, so a decorated run computes
//! exactly what a bare one does.

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::time::Instant;

use lwsnap_core::{Exit, Guest, GuestState};
use lwsnap_solver::snapshot::StoreMemStats;
use lwsnap_solver::{SnapId, SnapshotStore, Solver, StorePageStats};

/// Calls into one operation and the time they took.
#[derive(Default)]
pub struct Tally {
    calls: AtomicU64,
    ns: AtomicU64,
}

impl Tally {
    pub fn time<R>(&self, f: impl FnOnce() -> R) -> R {
        let t0 = Instant::now();
        let out = f();
        self.add(t0.elapsed().as_nanos() as u64);
        out
    }

    pub fn add(&self, ns: u64) {
        self.calls.fetch_add(1, Relaxed);
        self.ns.fetch_add(ns, Relaxed);
    }

    pub fn calls(&self) -> u64 {
        self.calls.load(Relaxed)
    }

    pub fn ns(&self) -> u64 {
        self.ns.load(Relaxed)
    }

    /// Mean microseconds per call (0 before the first call).
    pub fn mean_us(&self) -> f64 {
        self.ns() as f64 / 1e3 / self.calls().max(1) as f64
    }
}

/// Time spent in each [`SnapshotStore`] operation.
#[derive(Default)]
pub struct StoreTimes {
    pub put: Tally,
    pub get: Tally,
    pub remove: Tally,
    pub resident_bytes: Tally,
    /// `len`, `page_stats` and `mem_stats`.
    pub other: Tally,
}

impl StoreTimes {
    /// Nanoseconds so far: put, get, remove, resident_bytes, other.
    pub fn ns(&self) -> [u64; 5] {
        [
            &self.put,
            &self.get,
            &self.remove,
            &self.resident_bytes,
            &self.other,
        ]
        .map(Tally::ns)
    }
}

/// A [`SnapshotStore`] that times every call into the store it wraps.
pub struct TimedStore {
    inner: Box<dyn SnapshotStore>,
    times: Arc<StoreTimes>,
}

impl TimedStore {
    pub fn new(inner: Box<dyn SnapshotStore>, times: Arc<StoreTimes>) -> TimedStore {
        TimedStore { inner, times }
    }
}

impl SnapshotStore for TimedStore {
    fn put(&mut self, parent: Option<SnapId>, solver: &Solver) -> SnapId {
        let inner = &mut self.inner;
        self.times.put.time(|| inner.put(parent, solver))
    }

    fn get(&self, id: SnapId) -> Option<Solver> {
        self.times.get.time(|| self.inner.get(id))
    }

    fn remove(&mut self, id: SnapId) -> bool {
        let inner = &mut self.inner;
        self.times.remove.time(|| inner.remove(id))
    }

    fn len(&self) -> usize {
        self.times.other.time(|| self.inner.len())
    }

    fn resident_bytes(&self) -> usize {
        self.times
            .resident_bytes
            .time(|| self.inner.resident_bytes())
    }

    fn page_stats(&self) -> StorePageStats {
        self.times.other.time(|| self.inner.page_stats())
    }

    fn mem_stats(&self) -> StoreMemStats {
        self.times.other.time(|| self.inner.mem_stats())
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

/// What a [`TimedGuest`] saw across its resumes.
#[derive(Default, Clone, Copy)]
pub struct GuestTimes {
    pub resumes: u64,
    pub resume_ns: u64,
    /// Guest-memory pages copied on write (snapshot sharing broken).
    pub cow_page_copies: u64,
    /// Radix-tree nodes copied on the write path.
    pub node_copies: u64,
    /// Pages materialised from demand-zero.
    pub zero_fills: u64,
}

/// A [`Guest`] that times each `resume` and the address-space copying it
/// caused.
pub struct TimedGuest<G> {
    pub inner: G,
    pub times: GuestTimes,
}

impl<G> TimedGuest<G> {
    pub fn new(inner: G) -> TimedGuest<G> {
        TimedGuest {
            inner,
            times: GuestTimes::default(),
        }
    }
}

impl<G: Guest> Guest for TimedGuest<G> {
    fn resume(&mut self, state: &mut GuestState) -> Exit {
        let before = *state.mem.stats();
        let t0 = Instant::now();
        let exit = self.inner.resume(state);
        self.times.resume_ns += t0.elapsed().as_nanos() as u64;
        let after = state.mem.stats();
        self.times.resumes += 1;
        self.times.cow_page_copies += after.cow_page_copies.saturating_sub(before.cow_page_copies);
        self.times.node_copies += after.node_copies.saturating_sub(before.node_copies);
        self.times.zero_fills += after.zero_fills.saturating_sub(before.zero_fills);
        exit
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::{Inputs, NODES};
    use lwsnap_core::{strategy::Dfs, Engine};
    use lwsnap_snapstore::CowStore;
    use lwsnap_solver::SolverService;
    use lwsnap_vm::{assemble_source, programs::nqueens_source, Interp};

    /// Runs every plan on one service, interleaving nothing, and returns
    /// each node's verdict and witness.
    fn answers(mut service: SolverService, inputs: &Inputs) -> Vec<String> {
        let mut out = Vec::new();
        for plan in 0..inputs.plans.len() {
            let mut nodes = Vec::new();
            for node in 0..NODES {
                let parent = match inputs.parent(plan, node) {
                    Some(p) => nodes[p],
                    None => service.root(),
                };
                let reply = service.solve(parent, inputs.edge(plan, node)).unwrap();
                out.push(format!("{:?} {:?}", reply.result, reply.model));
                nodes.push(reply.problem);
            }
        }
        out
    }

    #[test]
    fn timed_store_gives_bit_identical_verdicts_and_witnesses() {
        let inputs = Inputs::generate(11, 3);
        let budgeted = |store: Box<dyn SnapshotStore>| {
            let mut service = SolverService::with_store(store);
            service.set_snapshot_budget(Some(64 * 1024));
            service
        };
        let times = Arc::new(StoreTimes::default());
        let bare = answers(budgeted(Box::new(CowStore::new())), &inputs);
        let timed = answers(
            budgeted(Box::new(TimedStore::new(
                Box::new(CowStore::new()),
                times.clone(),
            ))),
            &inputs,
        );
        assert_eq!(bare, timed);
        assert!(times.put.calls() > 0 && times.get.calls() > 0 && times.remove.calls() > 0);
    }

    #[test]
    fn timed_guest_gives_the_identical_nqueens_transcript() {
        let program = assemble_source(&nqueens_source(6, true, true)).unwrap();
        let bare = Engine::new(Dfs::new()).run(&mut Interp::new(), program.boot().unwrap());
        let mut guest = TimedGuest::new(Interp::new());
        let timed = Engine::new(Dfs::new()).run(&mut guest, program.boot().unwrap());
        assert_eq!(bare.transcript, timed.transcript);
        assert_eq!(bare.stats, timed.stats);
        assert!(guest.times.resumes >= timed.stats.extensions_evaluated);
        assert!(guest.times.cow_page_copies > 0);
    }
}
