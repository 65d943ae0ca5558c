//! `backtrack-nqueens`: the paper's Figure 1. A sequential `Engine` with
//! `Dfs` enumerates every answer of the SVM n-queens guest, again and
//! again, on one thread. Nothing of the solver or the service runs.

use std::time::{Duration, Instant};

use lwsnap_core::{strategy::Dfs, Engine, StopReason};
use lwsnap_mem::PAGE_SIZE;
use lwsnap_vm::{assemble_source, programs::nqueens_source, Interp, Program};

use crate::decor::TimedGuest;
use crate::report::{timed_setups, Layers, Outcome, Sample};

/// Board size. One whole search (~3,600 extension steps) is one latency
/// sample: long enough that a scheduling hiccup of the host does not
/// decide the p99, short enough for thousands of samples per run.
pub const N: u64 = 7;
/// Solutions of the N-queens problem (OEIS A000170).
pub const SOLUTIONS: u64 = 40;

fn build() -> Program {
    let program = assemble_source(&nqueens_source(N, true, true)).expect("n-queens assembles");
    program.boot().expect("n-queens boots");
    program
}

/// Whether `transcript` holds `SOLUTIONS` distinct, valid boards.
fn boards_valid(transcript: &[u8]) -> bool {
    let n = N as usize;
    let mut boards: Vec<&[u8]> = transcript
        .split(|&b| b == b'\n')
        .filter(|l| !l.is_empty())
        .collect();
    let valid = boards.iter().all(|rows| {
        rows.len() == n
            && (0..n).all(|c1| {
                (c1 + 1..n).all(|c2| {
                    let (r1, r2) = (rows[c1] as i64, rows[c2] as i64);
                    r1 != r2 && (r1 - r2).abs() != (c2 - c1) as i64
                })
            })
            && rows.iter().all(|&r| (b'0'..b'0' + N as u8).contains(&r))
    });
    boards.sort_unstable();
    boards.dedup();
    valid && boards.len() as u64 == SOLUTIONS
}

pub fn run(seconds: f64, traced: bool) -> Outcome {
    let (program, setup_s) = timed_setups(build, drop);
    let reference = Engine::new(Dfs::new()).run(&mut Interp::new(), program.boot().expect("boots"));
    let reference_ok = reference.stop == StopReason::Exhausted
        && reference.stats.solutions == SOLUTIONS
        && boards_valid(&reference.transcript);

    let mut guest = TimedGuest::new(Interp::new());
    let (mut searches, mut extensions, mut wrong, mut instructions) = (0u64, 0u64, 0u64, 0u64);
    let (mut run_ns, mut restores, mut snapshots, mut inline) = (0u64, 0u64, 0u64, 0u64);
    let mut samples = Vec::new();
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    while Instant::now() < deadline {
        let root = program.boot().expect("boots");
        let mut engine = Engine::new(Dfs::new());
        let t0 = Instant::now();
        let result = if traced {
            guest.inner = Interp::new();
            let result = engine.run(&mut guest, root);
            instructions += guest.inner.total_steps;
            result
        } else {
            engine.run(&mut Interp::new(), root)
        };
        let done = Instant::now();
        let ns = (done - t0).as_nanos() as u64;
        run_ns += ns;
        searches += 1;
        let ext = result.stats.extensions_evaluated;
        samples.push(Sample {
            done_ns: (done - start).as_nanos() as u64,
            latency_ns: ns,
            ops: ext,
        });
        extensions += ext;
        restores += result.stats.restores;
        snapshots += result.stats.snapshots_created;
        inline += result.stats.inline_continues;
        let same = result.stop == reference.stop
            && result.stats == reference.stats
            && result.transcript == reference.transcript;
        if !(same && reference_ok) {
            wrong += ext;
        }
    }
    let wall_s = start.elapsed().as_secs_f64();

    // The memory cost of a guest snapshot: pages copied or zero-filled
    // over snapshots created, from one more search with the counting
    // guest. Both repeat exactly from search to search.
    let mut counting = TimedGuest::new(Interp::new());
    let result = Engine::new(Dfs::new()).run(&mut counting, program.boot().expect("boots"));
    if result.stats != reference.stats {
        wrong += result.stats.extensions_evaluated;
    }
    let copied_pages = counting.times.cow_page_copies + counting.times.zero_fills;

    let mut layers = Layers::default();
    let mut ledger = Vec::new();
    if traced {
        let ext = extensions.max(1) as f64;
        let s = searches.max(1) as f64;
        let t = guest.times;
        let resume_per_ext = t.resume_ns as f64 / 1e3 / ext;
        let run_per_ext = run_ns as f64 / 1e3 / ext;
        layers.put(
            "mem.cow_page_copies_per_ext",
            t.cow_page_copies as f64 / ext,
        );
        layers.put("mem.node_copies_per_ext", t.node_copies as f64 / ext);
        layers.put("core.engine_self_us_per_ext", run_per_ext - resume_per_ext);
        layers.put("core.restores", restores as f64 / s);
        layers.put("core.snapshots_created", snapshots as f64 / s);
        layers.put("core.inline_continues", inline as f64 / s);
        layers.put(
            "vm.resume_us",
            t.resume_ns as f64 / 1e3 / t.resumes.max(1) as f64,
        );
        layers.put("vm.instructions_per_ext", instructions as f64 / ext);
        ledger = vec![
            format!("engine.run per extension               {run_per_ext:>10.3} us/ext"),
            format!("  vm resume (Interp)                   {resume_per_ext:>10.3}"),
            format!(
                "  core engine self (remainder: snapshot capture/restore, strategy) {:>7.3}",
                run_per_ext - resume_per_ext
            ),
        ];
    }
    Outcome {
        workload: "backtrack-nqueens",
        attempted: extensions,
        failed: 0,
        wrong,
        seconds,
        wall_s,
        samples,
        setup_s,
        snapshot_bytes: copied_pages * PAGE_SIZE as u64,
        problems: result.stats.snapshots_created,
        layers,
        ledger,
    }
}
