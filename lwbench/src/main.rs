//! The lwsnap benchmark.
//!
//! ```text
//! lwbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one workload for `--seconds`, checks every answer against a
//! sequential reference, prints a human-readable report and, as its last
//! line, one JSON object: `{"correct", "attempted", "failed", "metrics"}`.
//! `--trace 0` reports the end-to-end metrics with nothing but the
//! program in the measured path (`latency_p99_us` is printed in the
//! report, not in the result line). `--trace 1` wraps each layer in the
//! benchmark's own timing decorators and reports per-layer metrics:
//! half the time runs the workload bare and half traced (their
//! throughput ratio is the tracing overhead), then every other workload
//! runs traced briefly, so that each per-layer metric the named workload
//! does not exercise is measured on the workload that does. Exits
//! non-zero if any answer is wrong or any operation fails.

mod decor;
mod inputs;
mod nqueens;
mod report;
mod service;
mod stats;

use report::{json_line, Outcome, END_TO_END, PER_LAYER, WORKLOADS};

/// The seed used when `--seed` is not given.
const DEFAULT_SEED: u64 = 1;
/// Seconds each other workload runs for in a traced run.
const OTHER_WORKLOAD_SECONDS: f64 = 2.0;

struct Args {
    workload: &'static str,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: lwbench --workload <{}> [--seed N] [--seconds S] [--trace 0|1]",
        WORKLOADS.join("|")
    );
    std::process::exit(2)
}

fn parse_args() -> Args {
    let mut args = Args {
        workload: WORKLOADS[0],
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => {
                args.workload = WORKLOADS
                    .iter()
                    .find(|w| **w == value)
                    .copied()
                    .unwrap_or_else(|| usage())
            }
            "--seed" => args.seed = value.parse().unwrap_or_else(|_| usage()),
            "--seconds" => {
                args.seconds = value.parse().unwrap_or_else(|_| usage());
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    usage();
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                }
            }
            _ => usage(),
        }
    }
    args
}

fn run(workload: &str, seed: u64, seconds: f64, traced: bool) -> Outcome {
    match workload {
        "served-sessions" => service::served(seed, seconds, traced),
        "inproc-evict" => service::inproc(seed, seconds, traced),
        "backtrack-nqueens" => nqueens::run(seconds, traced),
        "cluster-replicated" => service::cluster(seed, seconds, traced),
        _ => unreachable!("workload names are checked when parsed"),
    }
}

fn main() {
    let args = parse_args();
    println!(
        "lwbench: workload {} seed {} seconds {} trace {} nproc {}",
        args.workload,
        args.seed,
        args.seconds,
        args.trace as u8,
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    let (correct, attempted, failed, metrics) = if args.trace {
        traced(&args)
    } else {
        untraced(&args)
    };
    let finite = metrics.iter().all(|(_, v, _)| v.is_finite());
    println!(
        "{}",
        json_line(correct && finite, attempted, failed, &metrics)
    );
    if !(correct && finite) {
        std::process::exit(1);
    }
}

type Result = (bool, u64, u64, Vec<(&'static str, f64, &'static str)>);

fn untraced(args: &Args) -> Result {
    let o = run(args.workload, args.seed, args.seconds, false);
    let metrics = o.end_to_end().unwrap_or_else(|thin| {
        eprintln!("{}: the run is too short for its p99: {thin}", o.workload);
        std::process::exit(1)
    });
    o.print_summary(&metrics);
    let out = END_TO_END
        .iter()
        .map(|&(name, unit)| {
            let m = metrics
                .iter()
                .find(|m| m.name == name)
                .expect("every metric measured");
            (name, m.value, unit)
        })
        .collect();
    (o.correct(), o.attempted, o.failed + o.wrong, out)
}

fn traced(args: &Args) -> Result {
    let half = args.seconds / 2.0;
    let bare = run(args.workload, args.seed, half, false);
    let timed = run(args.workload, args.seed, half, true);
    let overhead = 1.0 - timed.ops_per_s() / bare.ops_per_s();
    let mut runs = vec![bare, timed];
    let mut values: Vec<(&'static str, f64, &'static str)> =
        vec![("trace.overhead_frac", overhead, args.workload)];
    let fill = |o: &Outcome, values: &mut Vec<_>| {
        for (name, _) in PER_LAYER {
            if !values.iter().any(|(n, _, _)| *n == name) {
                if let Some(v) = o.layers.get(name) {
                    values.push((name, v, o.workload));
                }
            }
        }
    };
    fill(&runs[1], &mut values);
    for other in WORKLOADS.iter().filter(|w| **w != args.workload) {
        if values.len() < PER_LAYER.len() {
            let o = run(
                other,
                args.seed,
                OTHER_WORKLOAD_SECONDS.min(args.seconds),
                true,
            );
            fill(&o, &mut values);
            runs.push(o);
        }
    }
    for (i, o) in runs.iter().enumerate() {
        let label = match i {
            0 => "bare",
            1 => "traced",
            _ => "traced, for its layers",
        };
        println!("--- {} ({label}, {:.2} s)", o.workload, o.wall_s);
        o.print_summary(&o.end_to_end().unwrap_or_default());
        o.print_ledger();
    }
    println!(
        "--- per-layer metrics (trace.overhead_frac {overhead:.4}: traced vs bare ops_per_s of {})",
        args.workload
    );
    let mut out = Vec::with_capacity(PER_LAYER.len());
    for (name, unit) in PER_LAYER {
        match values.iter().find(|(n, _, _)| *n == name) {
            Some(&(_, value, from)) => {
                println!("{name:<34} {value:>14.4} {unit:<9} [{from}]");
                out.push((name, value, unit));
            }
            None => {
                eprintln!("per-layer metric {name} was not measured");
                std::process::exit(1);
            }
        }
    }
    let correct = runs.iter().all(Outcome::correct);
    let attempted = runs.iter().map(|o| o.attempted).sum();
    let failed = runs.iter().map(|o| o.failed + o.wrong).sum();
    (correct, attempted, failed, out)
}
