//! The solver-service workloads: `served-sessions`, `inproc-evict` and
//! `cluster-replicated`. All three run the same closed loop: a client
//! thread keeps a fixed number of sessions in flight with one
//! outstanding solve per session, issuing a session's next step only
//! once the reply to its previous one is in hand.

use std::io;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::time::{Duration, Instant};

use lwsnap_service::{
    Cluster, ClusterStats, PipelinedClient, ProblemId, Server, ServiceConfig, SolverBackend, Ticket,
};
use lwsnap_snapstore::CowStore;
use lwsnap_solver::{Lit, ProblemRef, Reply, SnapshotStore, SolveResult, SolverService};
use lwsnap_trace::Registry;

use crate::decor::{StoreTimes, Tally, TimedStore};
use crate::inputs::{Inputs, Reference, NODES};
use crate::report::{timed_setups, Layers, Outcome, Sample};

/// Distinct session plans per run; running sessions cycle through them.
pub const PLANS: usize = 96;
/// Client threads of every service workload.
pub const CLIENT_THREADS: usize = 2;
/// Sessions each client thread keeps in flight.
pub const SESSIONS_PER_THREAD: usize = 4;
/// Shards per node, as `lwsnapd` defaults to.
pub const SHARDS: usize = 8;
/// `inproc-evict`: byte budget of each `SolverService`, far below the
/// ~1 MiB its four in-flight session trees occupy.
pub const EVICT_BUDGET: usize = 256 * 1024;
/// Cluster nodes of `cluster-replicated`.
pub const CLUSTER_NODES: usize = 2;
/// First session id of the census, far above the timed sessions' ids.
const CENSUS_SESSION: u64 = 1 << 40;
/// Bound on any single wait for a reply, so a lost reply fails the run
/// instead of hanging it.
const READ_TIMEOUT: Duration = Duration::from_secs(30);

/// A solve reply, whatever the transport.
pub struct Got<Id> {
    pub id: Id,
    pub result: SolveResult,
    pub model: Option<Vec<bool>>,
}

/// One way of reaching a solver service.
pub trait Conn {
    type Id: Copy;
    type Pending;
    fn root(&mut self, session: u64) -> io::Result<Self::Id>;
    fn submit(&mut self, parent: Self::Id, clauses: &[Vec<Lit>]) -> io::Result<Self::Pending>;
    fn wait(&mut self, pending: Self::Pending) -> io::Result<Option<Got<Self::Id>>>;
    fn release(&mut self, id: Self::Id);
}

/// Client-side call timers of a traced run, shared by the client threads.
#[derive(Default)]
pub struct CallTimes {
    pub submit: Tally,
    pub wait: Tally,
    pub wait_max_ns: AtomicU64,
}

/// A remote service reached through a [`SolverBackend`].
pub struct Remote<'a> {
    pub backend: &'a dyn SolverBackend,
    pub times: Option<&'a CallTimes>,
}

impl Conn for Remote<'_> {
    type Id = ProblemId;
    type Pending = Ticket;

    fn root(&mut self, session: u64) -> io::Result<ProblemId> {
        self.backend.session_root(session)
    }

    fn submit(&mut self, parent: ProblemId, clauses: &[Vec<Lit>]) -> io::Result<Ticket> {
        let clauses = clauses.to_vec();
        match self.times {
            Some(t) => t.submit.time(|| self.backend.submit(parent, clauses)),
            None => self.backend.submit(parent, clauses),
        }
    }

    fn wait(&mut self, ticket: Ticket) -> io::Result<Option<Got<ProblemId>>> {
        let reply = match self.times {
            Some(t) => {
                let t0 = Instant::now();
                let reply = self.backend.wait(ticket);
                let ns = t0.elapsed().as_nanos() as u64;
                t.wait.add(ns);
                t.wait_max_ns.fetch_max(ns, Relaxed);
                reply
            }
            None => self.backend.wait(ticket),
        }?;
        Ok(reply.map(|r| Got {
            id: r.problem,
            result: r.result,
            model: r.model,
        }))
    }

    fn release(&mut self, id: ProblemId) {
        // Fire-and-forget; a broken connection fails the next solve.
        let _ = self.backend.release(id);
    }
}

/// An in-process [`SolverService`] owned by one client thread.
pub struct Local {
    pub service: SolverService,
    pub timers: Option<LocalTimers>,
}

/// A traced `Local`'s timers: its `solve` calls, its store's calls, and
/// the part of the store's time spent inside `solve` (by operation, as
/// [`StoreTimes::ns`] orders them).
pub struct LocalTimers {
    pub solve: Tally,
    pub store: Arc<StoreTimes>,
    pub in_solve_ns: [u64; 5],
}

impl Conn for Local {
    type Id = ProblemRef;
    type Pending = Option<Reply>;

    fn root(&mut self, _session: u64) -> io::Result<ProblemRef> {
        Ok(self.service.root())
    }

    fn submit(&mut self, parent: ProblemRef, clauses: &[Vec<Lit>]) -> io::Result<Option<Reply>> {
        let service = &mut self.service;
        let Some(t) = &mut self.timers else {
            return Ok(service.solve(parent, clauses));
        };
        let before = t.store.ns();
        let reply = t.solve.time(|| service.solve(parent, clauses));
        for ((acc, after), before) in t.in_solve_ns.iter_mut().zip(t.store.ns()).zip(before) {
            *acc += after - before;
        }
        Ok(reply)
    }

    fn wait(&mut self, reply: Option<Reply>) -> io::Result<Option<Got<ProblemRef>>> {
        Ok(reply.map(|r| Got {
            id: r.problem,
            result: r.result,
            model: r.model,
        }))
    }

    fn release(&mut self, id: ProblemRef) {
        self.service.release(id);
    }
}

/// One answered solve, kept for verification after the timed window.
pub struct Record {
    pub plan: u32,
    pub node: u8,
    pub result: SolveResult,
    pub model: Option<Vec<bool>>,
}

#[derive(Default)]
pub struct LoopOut {
    pub records: Vec<Record>,
    pub samples: Vec<Sample>,
    pub attempted: u64,
    pub failed: u64,
}

impl LoopOut {
    fn absorb(&mut self, other: LoopOut) {
        self.records.extend(other.records);
        self.samples.extend(other.samples);
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

struct Session<Id, P> {
    plan: usize,
    nodes: Vec<Id>,
    pending: Option<(P, Instant)>,
}

/// The session instances one client thread runs: `first`, then every
/// `stride`-th. Threads never share a sequence, so what each thread
/// sends does not depend on how fast the others go.
pub struct Instances {
    pub next: u64,
    pub stride: u64,
}

/// Starts the next session instance: its root, then its base solve.
fn start_session<C: Conn>(
    conn: &mut C,
    inputs: &Inputs,
    instances: &mut Instances,
    out: &mut LoopOut,
) -> Option<Session<C::Id, C::Pending>> {
    let instance = instances.next;
    instances.next += instances.stride;
    let plan = (instance % inputs.plans.len() as u64) as usize;
    out.attempted += 1;
    let root = conn.root(instance).map_err(|_| out.failed += 1).ok()?;
    let t0 = Instant::now();
    let pending = conn
        .submit(root, inputs.edge(plan, 0))
        .map_err(|_| out.failed += 1)
        .ok()?;
    Some(Session {
        plan,
        nodes: Vec::with_capacity(NODES),
        pending: Some((pending, t0)),
    })
}

/// Runs sessions on `conn` with `slots` in flight from `start` until
/// `deadline`, then lets the in-flight sessions finish. A completed
/// session is released, as a caller done with it would.
pub fn closed_loop<C: Conn>(
    conn: &mut C,
    inputs: &Inputs,
    mut instances: Instances,
    slots: usize,
    (start, deadline): (Instant, Instant),
) -> LoopOut {
    let mut out = LoopOut::default();
    let mut sessions: Vec<_> = (0..slots)
        .map(|_| start_session(conn, inputs, &mut instances, &mut out))
        .collect();
    while sessions.iter().any(Option::is_some) {
        for slot in sessions.iter_mut() {
            let Some(sess) = slot.as_mut() else {
                continue;
            };
            let (pending, t0) = sess
                .pending
                .take()
                .expect("a live session has a solve in flight");
            let node = sess.nodes.len();
            let mut done = match conn.wait(pending) {
                Ok(Some(got)) => {
                    let done = Instant::now();
                    out.samples.push(Sample {
                        done_ns: (done - start).as_nanos() as u64,
                        latency_ns: (done - t0).as_nanos() as u64,
                        ops: 1,
                    });
                    out.records.push(Record {
                        plan: sess.plan as u32,
                        node: node as u8,
                        result: got.result,
                        model: got.model,
                    });
                    sess.nodes.push(got.id);
                    sess.nodes.len() == NODES
                }
                _ => {
                    out.failed += 1;
                    true
                }
            };
            if !done {
                let node = sess.nodes.len();
                let parent = sess.nodes[inputs.parent(sess.plan, node).expect("node > 0")];
                out.attempted += 1;
                let t0 = Instant::now();
                match conn.submit(parent, inputs.edge(sess.plan, node)) {
                    Ok(p) => sess.pending = Some((p, t0)),
                    Err(_) => {
                        out.failed += 1;
                        done = true;
                    }
                }
            }
            if done {
                for id in sess.nodes.drain(..).rev() {
                    conn.release(id);
                }
                *slot = if Instant::now() < deadline {
                    start_session(conn, inputs, &mut instances, &mut out)
                } else {
                    None
                };
            }
        }
    }
    out
}

/// Answers that differ from the reference: a verdict, a witness that is
/// not bit-identical, or a model that fails its full constraint path.
pub fn wrong_answers(records: &[Record], inputs: &Inputs, reference: &Reference) -> u64 {
    let mut wrong = reference.bad_models;
    for r in records {
        let (plan, node) = (r.plan as usize, r.node as usize);
        let want = &reference.answers[plan][node];
        let model_ok = match (r.result, &r.model) {
            (SolveResult::Sat, Some(m)) => inputs.path_satisfied(plan, node, m),
            (SolveResult::Unsat, None) => true,
            _ => false,
        };
        if !(model_ok && r.result == want.result && r.model == want.model) {
            wrong += 1;
        }
    }
    wrong
}

/// A mean from a (count, sum) pair, in microseconds of nanosecond sums.
fn mean_us(count: u64, sum_ns: u64) -> f64 {
    sum_ns as f64 / 1e3 / count.max(1) as f64
}

/// The registry counters a run reads, as deltas across its timed window.
#[derive(Clone, Copy, Default)]
struct Reg {
    requests: (u64, u64),
    queue_wait: (u64, u64),
    solve: (u64, u64),
    snap_put: (u64, u64),
    rederive: (u64, u64),
    pages_dirtied: u64,
    bytes_written: u64,
    forwards: u64,
}

impl Reg {
    fn now() -> Reg {
        let r = Registry::global();
        let h = |h: &lwsnap_trace::Histogram| (h.count(), h.sum());
        Reg {
            requests: h(&r.request_ns),
            queue_wait: h(&r.queue_wait_ns),
            solve: h(&r.solve_ns),
            snap_put: h(&r.snap_put_ns),
            rederive: h(&r.rederive_ns),
            pages_dirtied: r.pages_dirtied.value(),
            bytes_written: r.bytes_written.value(),
            forwards: r.forwards.value(),
        }
    }

    fn since(self, before: Reg) -> Reg {
        let d = |a: (u64, u64), b: (u64, u64)| (a.0 - b.0, a.1.wrapping_sub(b.1));
        Reg {
            requests: d(self.requests, before.requests),
            queue_wait: d(self.queue_wait, before.queue_wait),
            solve: d(self.solve, before.solve),
            snap_put: d(self.snap_put, before.snap_put),
            rederive: d(self.rederive, before.rederive),
            pages_dirtied: self.pages_dirtied - before.pages_dirtied,
            bytes_written: self.bytes_written - before.bytes_written,
            forwards: self.forwards - before.forwards,
        }
    }
}

/// Per-query solver and solver-service counters shared by every
/// service workload's traced run, from the timed window's stats `t`;
/// page sharing from `kept`, the store after the census.
fn service_layers(
    layers: &mut Layers,
    t: &lwsnap_solver::ServiceStats,
    kept: &lwsnap_solver::ServiceStats,
    reg: &Reg,
) {
    let q = t.queries.max(1) as f64;
    layers.put("solver.run_us", mean_us(reg.solve.0, reg.solve.1));
    layers.put("solver.conflicts_per_query", t.total_conflicts as f64 / q);
    layers.put(
        "solver.propagations_per_query",
        t.total_propagations as f64 / q,
    );
    layers.put("solver_service.hit_ratio", t.snapshot_hits as f64 / q);
    layers.put("solver_service.rederivations", t.rederivations as f64 / q);
    layers.put(
        "solver_service.replayed_clauses",
        t.replayed_clauses as f64 / q,
    );
    layers.put("solver_service.evictions", t.evictions as f64 / q);
    if reg.rederive.0 > 0 {
        layers.put(
            "solver_service.rederive_us",
            mean_us(reg.rederive.0, reg.rederive.1),
        );
    }
    layers.put("snapstore.put_us", mean_us(reg.snap_put.0, reg.snap_put.1));
    let puts = reg.snap_put.0.max(1) as f64;
    layers.put(
        "snapstore.pages_dirtied_per_put",
        reg.pages_dirtied as f64 / puts,
    );
    layers.put(
        "snapstore.bytes_written_per_put",
        reg.bytes_written as f64 / puts,
    );
    layers.put("snapstore.shared_pages", kept.shared_pages as f64);
    layers.put("snapstore.private_pages", kept.private_pages as f64);
}

/// Runs the closed loop on one client thread per connection in `conns`
/// and merges what they saw.
fn drive<C: Conn + Send>(
    inputs: &Inputs,
    seconds: f64,
    conns: Vec<C>,
) -> (LoopOut, Vec<C>, Duration) {
    let stride = conns.len() as u64;
    let start = Instant::now();
    let window = (start, start + Duration::from_secs_f64(seconds));
    let joined: Vec<(LoopOut, C)> = std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .into_iter()
            .enumerate()
            .map(|(first, mut conn)| {
                scope.spawn(move || {
                    let instances = Instances {
                        next: first as u64,
                        stride,
                    };
                    let out =
                        closed_loop(&mut conn, inputs, instances, SESSIONS_PER_THREAD, window);
                    (out, conn)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let wall = start.elapsed();
    let mut out = LoopOut::default();
    let mut conns = Vec::with_capacity(joined.len());
    for (o, c) in joined {
        out.absorb(o);
        conns.push(c);
    }
    (out, conns, wall)
}

/// Builds every plan's session tree one solve at a time and leaves them
/// live, so that every run ends with the store holding the same
/// problems; calls `after_plan` once each plan's tree is built. Their
/// answers are verified like any other; they are not timed.
fn census<C: Conn>(
    conn: &mut C,
    inputs: &Inputs,
    out: &mut LoopOut,
    mut after_plan: impl FnMut(&mut C),
) {
    for plan in 0..inputs.plans.len() {
        let root = match conn.root(CENSUS_SESSION + plan as u64) {
            Ok(root) => root,
            Err(_) => {
                out.attempted += 1;
                out.failed += 1;
                continue;
            }
        };
        let mut nodes = Vec::with_capacity(NODES);
        for node in 0..NODES {
            out.attempted += 1;
            let parent = inputs.parent(plan, node).map_or(root, |p| nodes[p]);
            match conn
                .submit(parent, inputs.edge(plan, node))
                .and_then(|p| conn.wait(p))
            {
                Ok(Some(got)) => {
                    out.records.push(Record {
                        plan: plan as u32,
                        node: node as u8,
                        result: got.result,
                        model: got.model,
                    });
                    nodes.push(got.id);
                }
                _ => {
                    out.failed += 1;
                    break;
                }
            }
        }
        after_plan(conn);
    }
}

fn outcome(
    workload: &'static str,
    (inputs, reference): (&Inputs, &Reference),
    out: LoopOut,
    (seconds, wall): (f64, Duration),
    setup_s: Vec<f64>,
    store: (u64, u64),
) -> Outcome {
    let wrong = wrong_answers(&out.records, inputs, reference);
    Outcome {
        workload,
        attempted: out.attempted,
        failed: out.failed,
        wrong,
        seconds,
        wall_s: wall.as_secs_f64(),
        samples: out.samples,
        setup_s,
        snapshot_bytes: store.0,
        problems: store.1,
        layers: Layers::default(),
        ledger: Vec::new(),
    }
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// `served-sessions`: one in-process `Server` with `lwsnapd`'s defaults;
/// both client threads share one `PipelinedClient`.
pub fn served(seed: u64, seconds: f64, traced: bool) -> Outcome {
    let inputs = Inputs::generate(seed, PLANS);
    let ((server, client), setup_s) = timed_setups(
        || {
            let server =
                Server::start_with("127.0.0.1:0", ServiceConfig::new(SHARDS), nproc(), nproc())
                    .expect("server starts on loopback");
            let client = PipelinedClient::connect(server.local_addr()).expect("client connects");
            client
                .set_read_timeout(Some(READ_TIMEOUT))
                .expect("read timeout");
            (server, client)
        },
        |(server, client)| {
            drop(client);
            server.shutdown();
        },
    );
    let reference = Reference::build(&inputs);
    let times = CallTimes::default();
    let before = Reg::now();
    let conns = (0..CLIENT_THREADS)
        .map(|_| Remote {
            backend: &client,
            times: traced.then_some(&times),
        })
        .collect();
    let (mut out, _, wall) = drive(&inputs, seconds, conns);
    let reg = Reg::now().since(before);
    let shards = server.service().stats();
    let total = shards.total();
    let reactors = server.reactor_stats();
    let mut untimed = Remote {
        backend: &client,
        times: None,
    };
    census(&mut untimed, &inputs, &mut out, |_| {});
    let kept = server.service().stats().total();
    let mut o = outcome(
        "served-sessions",
        (&inputs, &reference),
        out,
        (seconds, wall),
        setup_s,
        (kept.resident_bytes as u64, kept.live_problems as u64),
    );
    drop(client);
    server.shutdown();
    if traced {
        let round_trip_us = o.mean_latency_us();
        let l = &mut o.layers;
        l.put("client.submit_us", times.submit.mean_us());
        l.put("client.wait_us", times.wait.mean_us());
        l.put(
            "client.wait_max_ms",
            times.wait_max_ns.load(Relaxed) as f64 / 1e6,
        );
        let request_us = mean_us(reg.requests.0, reg.requests.1);
        l.put("net.overhead_us", round_trip_us - request_us);
        let rx: u64 = reactors.iter().map(|r| r.rx_copy_bytes).sum();
        l.put(
            "net.rx_copy_bytes_per_req",
            rx as f64 / reg.requests.0.max(1) as f64,
        );
        l.put(
            "net.completions",
            reactors.iter().map(|r| r.completions).sum::<u64>() as f64,
        );
        l.put(
            "net.queue_peak",
            reactors.iter().map(|r| r.queue_peak).max().unwrap_or(0) as f64,
        );
        let queue_us = mean_us(reg.queue_wait.0, reg.queue_wait.1);
        l.put("pool.queue_wait_us", queue_us);
        l.put("pool.request_us", request_us);
        let queries: Vec<f64> = shards.shards.iter().map(|s| s.queries as f64).collect();
        let mean = queries.iter().sum::<f64>() / queries.len() as f64;
        let max = queries.iter().cloned().fold(0.0, f64::max);
        l.put("sharded.max_shard_share", max / mean.max(1e-9));
        service_layers(l, &total, &kept, &reg);
        let per_req = |h: (u64, u64)| h.1 as f64 / 1e3 / reg.requests.0.max(1) as f64;
        let (run, put) = (per_req(reg.solve), per_req(reg.snap_put));
        o.ledger = vec![
            format!("round trip (submit -> reply in hand)   {round_trip_us:>10.1} us/query"),
            format!(
                "  client.submit_us                     {:>10.1}",
                times.submit.mean_us()
            ),
            format!("  pool.request_us (server, per request) {request_us:>9.1}"),
            format!("    pool.queue_wait_us                 {queue_us:>10.1}"),
            format!("    solver.run_us                      {run:>10.1}"),
            format!("    snapstore.put_us                   {put:>10.1}"),
            format!(
                "    unattributed in request            {:>10.1}",
                request_us - queue_us - run - put
            ),
            format!(
                "  unattributed: wire, reactor, client wake, other sessions {:>6.1}",
                round_trip_us - times.submit.mean_us() - request_us
            ),
        ];
    }
    o
}

/// `inproc-evict`: each client thread owns one `SolverService` over a
/// `CowStore` with a byte budget far below its working set.
pub fn inproc(seed: u64, seconds: f64, traced: bool) -> Outcome {
    let inputs = Inputs::generate(seed, PLANS);
    let build = || -> Vec<Local> {
        (0..CLIENT_THREADS)
            .map(|_| {
                let cow: Box<dyn SnapshotStore> = Box::new(CowStore::new());
                let (store, timers): (Box<dyn SnapshotStore>, _) = if traced {
                    let store = Arc::new(StoreTimes::default());
                    let timers = LocalTimers {
                        solve: Tally::default(),
                        store: Arc::clone(&store),
                        in_solve_ns: [0; 5],
                    };
                    (Box::new(TimedStore::new(cow, store)), Some(timers))
                } else {
                    (cow, None)
                };
                let mut service = SolverService::with_store(store);
                service.set_snapshot_budget(Some(EVICT_BUDGET));
                Local { service, timers }
            })
            .collect()
    };
    let (conns, setup_s) = timed_setups(build, drop);
    let reference = Reference::build(&inputs);
    let before = Reg::now();
    let (mut out, mut conns, wall) = drive(&inputs, seconds, conns);
    let reg = Reg::now().since(before);
    // Read the store timers before `stats()` calls into the store again.
    let timers: Vec<_> = conns.iter().filter_map(|c| c.timers.as_ref()).collect();
    let calls = |op: fn(&StoreTimes) -> &Tally| -> (u64, u64) {
        timers.iter().fold((0, 0), |(n, ns), t| {
            (n + op(&t.store).calls(), ns + op(&t.store).ns())
        })
    };
    let (get, remove, rb, put) = (
        calls(|s| &s.get),
        calls(|s| &s.remove),
        calls(|s| &s.resident_bytes),
        calls(|s| &s.put),
    );
    let solves = timers.iter().fold((0, 0), |(n, ns), t| {
        (n + t.solve.calls(), ns + t.solve.ns())
    });
    let mut in_solve = [0u64; 5];
    for t in &timers {
        for (acc, ns) in in_solve.iter_mut().zip(t.in_solve_ns) {
            *acc += ns;
        }
    }
    let total = ClusterStats {
        shards: conns.iter().map(|c| c.service.stats()).collect(),
    }
    .total();
    // The budget caps `resident_bytes`, so bytes per live problem would
    // only echo it. Bytes per snapshot still held is the store's cost;
    // the census samples it after every plan's tree.
    let mut held = (0u64, 0u64);
    census(&mut conns[0], &inputs, &mut out, |c| {
        let s = c.service.stats();
        held.0 += s.resident_bytes as u64;
        held.1 += s.resident_snapshots as u64;
    });
    let kept = ClusterStats {
        shards: conns.iter().map(|c| c.service.stats()).collect(),
    }
    .total();
    let mut o = outcome(
        "inproc-evict",
        (&inputs, &reference),
        out,
        (seconds, wall),
        setup_s,
        held,
    );
    if traced {
        let l = &mut o.layers;
        let per_q = |ns: u64| ns as f64 / 1e3 / solves.0.max(1) as f64;
        let solve_us = per_q(solves.1);
        let store_us = per_q(in_solve.iter().sum());
        let run_us = per_q(reg.solve.1);
        let self_us = solve_us - store_us - run_us;
        l.put("solver_service.solve_us", solve_us);
        l.put("solver_service.self_us", self_us);
        l.put("snapstore.get_us", mean_us(get.0, get.1));
        l.put("snapstore.remove_us", mean_us(remove.0, remove.1));
        l.put("snapstore.resident_bytes_us", mean_us(rb.0, rb.1));
        l.put(
            "snapstore.resident_bytes_calls",
            rb.0 as f64 / solves.0.max(1) as f64,
        );
        service_layers(l, &total, &kept, &reg);
        // The decorator sees every put, re-derivation put-backs included.
        l.put("snapstore.put_us", mean_us(put.0, put.1));
        let [put_ns, get_ns, remove_ns, rb_ns, other_ns] = in_solve;
        o.ledger = vec![
            format!("solver_service.solve_us              {solve_us:>10.1} us/query"),
            format!(
                "  snapstore.put                      {:>10.1}",
                per_q(put_ns)
            ),
            format!(
                "  snapstore.get                      {:>10.1}",
                per_q(get_ns)
            ),
            format!(
                "  snapstore.remove                   {:>10.1}",
                per_q(remove_ns)
            ),
            format!(
                "  snapstore.resident_bytes           {:>10.1}",
                per_q(rb_ns)
            ),
            format!(
                "  snapstore len/page_stats/mem_stats {:>10.1}",
                per_q(other_ns)
            ),
            format!("  solver.run                         {run_us:>10.1}"),
            format!("  solver_service.self (remainder)    {self_us:>10.1}"),
            format!(
                "    of which re-derivation (replay solves and their store get) {:.1}",
                per_q(reg.rederive.1)
            ),
        ];
    }
    o
}

/// `cluster-replicated`: a two-node local cluster with peers wired, one
/// worker and one reactor per node, driven through one `ClusterBackend`.
pub fn cluster(seed: u64, seconds: f64, traced: bool) -> Outcome {
    let inputs = Inputs::generate(seed, PLANS);
    let ((cluster, backend), setup_s) = timed_setups(
        || {
            let cluster =
                Cluster::start_local_with(CLUSTER_NODES, ServiceConfig::new(SHARDS), 1, 1)
                    .expect("cluster starts on loopback");
            let backend = cluster.connect().expect("backend connects");
            backend
                .set_read_timeout(Some(READ_TIMEOUT))
                .expect("read timeout");
            (cluster, backend)
        },
        |(cluster, backend)| {
            drop(backend);
            cluster.shutdown();
        },
    );
    let reference = Reference::build(&inputs);
    let times = CallTimes::default();
    let before = Reg::now();
    let conns = (0..CLIENT_THREADS)
        .map(|_| Remote {
            backend: &backend,
            times: traced.then_some(&times),
        })
        .collect();
    let (mut out, _, wall) = drive(&inputs, seconds, conns);
    let reg = Reg::now().since(before);
    let fleet = |cluster: &Cluster| {
        (0..CLUSTER_NODES as u16)
            .map(|node| cluster.service(node).expect("node is live").stats().total())
            .fold((0, 0, 0), |a, t| {
                (
                    a.0 + t.resident_bytes as u64,
                    a.1 + t.live_problems as u64,
                    a.2 + t.queries,
                )
            })
    };
    let queries = fleet(&cluster).2;
    let mut untimed = Remote {
        backend: &backend,
        times: None,
    };
    census(&mut untimed, &inputs, &mut out, |_| {});
    let replica_bytes: u64 = backend
        .node_stats()
        .map(|f| f.nodes.iter().map(|(_, s)| s.replica_bytes).sum())
        .unwrap_or(0);
    let (resident, live, _) = fleet(&cluster);
    let mut o = outcome(
        "cluster-replicated",
        (&inputs, &reference),
        out,
        (seconds, wall),
        setup_s,
        (resident, live),
    );
    drop(backend);
    cluster.shutdown();
    if traced {
        let round_trip_us = o.mean_latency_us();
        let l = &mut o.layers;
        l.put(
            "replica.forwards_per_query",
            reg.forwards as f64 / queries.max(1) as f64,
        );
        l.put("replica.bytes", replica_bytes as f64);
        l.put("cluster.submit_us", times.submit.mean_us());
        l.put("cluster.wait_us", times.wait.mean_us());
        let request_us = mean_us(reg.requests.0, reg.requests.1);
        o.ledger = vec![
            format!("round trip (submit -> reply in hand)   {round_trip_us:>10.1} us/query"),
            format!(
                "  cluster.submit_us                    {:>10.1}",
                times.submit.mean_us()
            ),
            format!("  server request (both nodes' requests) {request_us:>9.1}"),
            format!(
                "  unattributed: wire, reactors, replication, other sessions {:>6.1}",
                round_trip_us - times.submit.mean_us() - request_us
            ),
        ];
    }
    o
}
