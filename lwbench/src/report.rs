//! Metric names, a run's outcome, and the printed report.

use std::time::{Duration, Instant};

use crate::stats::{median, percentile, ThinTail};

/// The workloads, in the order a traced run visits them.
pub const WORKLOADS: [&str; 4] = [
    "served-sessions",
    "inproc-evict",
    "backtrack-nqueens",
    "cluster-replicated",
];

/// End-to-end metrics of the `--trace 0` result line: (name, unit).
/// `latency_p99_us` is printed in the report but left out: on a shared
/// host the tail amplifies run-to-run speed drift beyond any usable bound.
pub const END_TO_END: [(&str, &str); 4] = [
    ("ops_per_s", "ops/s"),
    ("latency_p50_us", "us"),
    ("snapshot_bytes_per_problem", "B"),
    ("setup_s", "s"),
];

/// Per-layer metrics printed with `--trace 1`: (name, unit).
pub const PER_LAYER: [(&str, &str); 42] = [
    ("client.submit_us", "us"),
    ("client.wait_us", "us"),
    ("client.wait_max_ms", "ms"),
    ("net.overhead_us", "us"),
    ("net.rx_copy_bytes_per_req", "B"),
    ("net.completions", "count"),
    ("net.queue_peak", "count"),
    ("pool.queue_wait_us", "us"),
    ("pool.request_us", "us"),
    ("sharded.max_shard_share", "ratio"),
    ("solver_service.solve_us", "us"),
    ("solver_service.self_us", "us"),
    ("solver_service.hit_ratio", "fraction"),
    ("solver_service.rederivations", "1/query"),
    ("solver_service.replayed_clauses", "1/query"),
    ("solver_service.rederive_us", "us"),
    ("solver_service.evictions", "1/query"),
    ("solver.run_us", "us"),
    ("solver.conflicts_per_query", "1/query"),
    ("solver.propagations_per_query", "1/query"),
    ("snapstore.put_us", "us"),
    ("snapstore.get_us", "us"),
    ("snapstore.remove_us", "us"),
    ("snapstore.resident_bytes_us", "us"),
    ("snapstore.resident_bytes_calls", "1/query"),
    ("snapstore.pages_dirtied_per_put", "1/put"),
    ("snapstore.bytes_written_per_put", "B"),
    ("snapstore.shared_pages", "count"),
    ("snapstore.private_pages", "count"),
    ("mem.cow_page_copies_per_ext", "1/ext"),
    ("mem.node_copies_per_ext", "1/ext"),
    ("core.engine_self_us_per_ext", "us"),
    ("core.restores", "1/search"),
    ("core.snapshots_created", "1/search"),
    ("core.inline_continues", "1/search"),
    ("vm.resume_us", "us"),
    ("vm.instructions_per_ext", "1/ext"),
    ("replica.forwards_per_query", "1/query"),
    ("replica.bytes", "B"),
    ("cluster.submit_us", "us"),
    ("cluster.wait_us", "us"),
    ("trace.overhead_frac", "fraction"),
];

/// Per-layer values measured by one traced run, in measurement order.
#[derive(Default)]
pub struct Layers(Vec<(&'static str, f64)>);

impl Layers {
    pub fn put(&mut self, name: &'static str, value: f64) {
        debug_assert!(PER_LAYER.iter().any(|(n, _)| *n == name), "unlisted {name}");
        self.0.retain(|(n, _)| *n != name);
        self.0.push((name, value));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
    }
}

/// Times each run repeats its set-up; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 100;
/// Pause before each set-up. The host's speed drifts over a few hundred
/// milliseconds, so set-ups timed back to back all land in one phase of
/// it; spaced out over two seconds, their median is steady from run to
/// run.
pub const SETUP_PAUSE: Duration = Duration::from_millis(20);

/// Runs `make` `SETUP_REPEATS` times, `SETUP_PAUSE` apart, handing all
/// but the last result to `teardown`; returns the last with every
/// set-up time in seconds.
pub fn timed_setups<T>(mut make: impl FnMut() -> T, mut teardown: impl FnMut(T)) -> (T, Vec<f64>) {
    let mut times = Vec::with_capacity(SETUP_REPEATS);
    let mut last = None;
    for _ in 0..SETUP_REPEATS {
        if let Some(prev) = last.take() {
            teardown(prev);
        }
        std::thread::sleep(SETUP_PAUSE);
        let t0 = Instant::now();
        let made = make();
        times.push(t0.elapsed().as_secs_f64());
        last = Some(made);
    }
    (last.expect("SETUP_REPEATS > 0"), times)
}

/// Shortest window a run is cut into; the end-to-end metrics are the
/// medians of their per-window values, so a burst of interference on
/// the host moves one window, not the result.
pub const WINDOW_S: f64 = 2.0;
/// Fewest samples a window should hold: 20 beyond its p99.
pub const WINDOW_SAMPLES: usize = 2000;

/// One completed operation: when it completed (since the timed window
/// opened), how long it took, and how many operations it counts for (an
/// n-queens search counts its extension steps).
#[derive(Clone, Copy)]
pub struct Sample {
    pub done_ns: u64,
    pub latency_ns: u64,
    pub ops: u64,
}

/// What one workload run measured and checked.
pub struct Outcome {
    pub workload: &'static str,
    /// Operations sent.
    pub attempted: u64,
    /// Operations that failed or were refused.
    pub failed: u64,
    /// Operations whose answer did not match the reference.
    pub wrong: u64,
    /// Length of the timed window, and the time until its last
    /// in-flight operation completed.
    pub seconds: f64,
    pub wall_s: f64,
    pub samples: Vec<Sample>,
    pub setup_s: Vec<f64>,
    /// Snapshot bytes, and what `snapshot_bytes_per_problem` divides
    /// them by: bytes held ÷ live problems at the end of the run
    /// (served-sessions, cluster-replicated), bytes held ÷ snapshots held,
    /// each summed over the census's samples (inproc-evict), or guest
    /// bytes copied ÷ snapshots created by one search (backtrack-nqueens).
    pub snapshot_bytes: u64,
    pub problems: u64,
    pub layers: Layers,
    /// The traced run's breakdown of the end-to-end time.
    pub ledger: Vec<String>,
}

/// One printed metric.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    pub samples: u64,
}

impl Outcome {
    pub fn mean_latency_us(&self) -> f64 {
        let n = self.samples.len().max(1) as f64;
        self.samples
            .iter()
            .map(|s| s.latency_ns as f64)
            .sum::<f64>()
            / 1e3
            / n
    }

    /// Operations completed.
    pub fn ops(&self) -> u64 {
        self.samples.iter().map(|s| s.ops).sum()
    }

    /// Operations per second over the whole run, drain included.
    pub fn ops_per_s(&self) -> f64 {
        self.ops() as f64 / self.wall_s
    }

    pub fn error_rate(&self) -> f64 {
        (self.failed + self.wrong) as f64 / self.attempted.max(1) as f64
    }

    pub fn correct(&self) -> bool {
        self.attempted > 0 && self.failed == 0 && self.wrong == 0
    }

    /// The end-to-end metrics, or why the run cannot support them.
    /// Throughput and latency percentiles are medians over the run's
    /// windows, as many as fit at least [`WINDOW_S`] and, on average,
    /// [`WINDOW_SAMPLES`] each; every window must hold enough samples
    /// for its own p99.
    pub fn end_to_end(&self) -> Result<Vec<Metric>, ThinTail> {
        let windows = ((self.seconds / WINDOW_S).round() as usize)
            .min(self.samples.len() / WINDOW_SAMPLES)
            .max(1);
        let len_ns = self.seconds * 1e9 / windows as f64;
        let mut ops = vec![0u64; windows];
        let mut lats = vec![Vec::new(); windows];
        for s in &self.samples {
            let w = (s.done_ns as f64 / len_ns) as usize;
            if w < windows {
                ops[w] += s.ops;
                lats[w].push(s.latency_ns);
            }
        }
        let (mut rate, mut p50, mut p99) = (Vec::new(), Vec::new(), Vec::new());
        for (ops, mut lats) in ops.into_iter().zip(lats) {
            lats.sort_unstable();
            rate.push(ops as f64 / (len_ns / 1e9));
            p50.push(percentile(&lats, 0.50)? as f64 / 1e3);
            p99.push(percentile(&lats, 0.99)? as f64 / 1e3);
        }
        let in_windows = self
            .samples
            .iter()
            .filter(|s| (s.done_ns as f64) < self.seconds * 1e9);
        let lat = in_windows.clone().count() as u64;
        let metric = |name, value, unit, samples| Metric {
            name,
            value,
            unit,
            samples,
        };
        Ok(vec![
            metric(
                "ops_per_s",
                median(&mut rate),
                "ops/s",
                in_windows.map(|s| s.ops).sum(),
            ),
            metric("latency_p50_us", median(&mut p50), "us", lat),
            metric("latency_p99_us", median(&mut p99), "us", lat),
            metric(
                "snapshot_bytes_per_problem",
                self.snapshot_bytes as f64 / self.problems.max(1) as f64,
                "B",
                self.problems,
            ),
            metric(
                "setup_s",
                median(&mut self.setup_s.clone()),
                "s",
                self.setup_s.len() as u64,
            ),
        ])
    }

    /// Prints the run's counts and its end-to-end table.
    pub fn print_summary(&self, metrics: &[Metric]) {
        println!(
            "[{}] sent {}  succeeded {}  failed {}  wrong {}  error_rate {} (fraction)",
            self.workload,
            self.attempted,
            self.attempted.saturating_sub(self.failed + self.wrong),
            self.failed,
            self.wrong,
            self.error_rate()
        );
        for m in metrics {
            println!(
                "[{}] {:<28} {:>16.4} {:<6} (n={})",
                self.workload, m.name, m.value, m.unit, m.samples
            );
        }
    }

    pub fn print_ledger(&self) {
        for line in &self.ledger {
            println!("[{}] {line}", self.workload);
        }
    }
}

/// The result line: one JSON object, every value with all its digits.
pub fn json_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&str, f64, &str)],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            // JSON has no NaN; `main` marks such a run incorrect.
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Whether `name` may be printed as a metric or workload name.
    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn every_emitted_name_is_well_formed_and_unique() {
        let mut names: Vec<&str> = WORKLOADS.to_vec();
        names.extend(END_TO_END.iter().map(|(n, _)| *n));
        names.extend(PER_LAYER.iter().map(|(n, _)| *n));
        for name in &names {
            assert!(valid_name(name), "{name}");
        }
        let mut sorted = names.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len(), "a name is used twice");
        assert!(!valid_name("bad name") && !valid_name("") && !valid_name("_x"));
    }

    /// BENCHMARK.json names workloads the program runs and exactly the
    /// metrics it emits.
    #[test]
    fn benchmark_json_lists_the_emitted_names() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let listed: Vec<&str> = json
            .split("\"name\": \"")
            .skip(1)
            .map(|rest| &rest[..rest.find('"').expect("closing quote")])
            .collect();
        let (workloads, metrics) =
            listed.split_at(listed.len() - END_TO_END.len() - PER_LAYER.len());
        assert!(workloads.len() >= 2);
        assert!(workloads.iter().all(|w| WORKLOADS.contains(w)));
        let emitted: Vec<&str> = END_TO_END
            .iter()
            .chain(&PER_LAYER)
            .map(|(n, _)| *n)
            .collect();
        assert_eq!(metrics, emitted);
    }

    #[test]
    fn json_line_keeps_every_digit() {
        let line = json_line(true, 3, 0, &[("a.b", 0.1 + 0.2, "us")]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"a.b\": {\"value\": 0.30000000000000004, \"unit\": \"us\"}}}"
        );
    }
}
