//! Std-only microbenchmark harness.
//!
//! The workspace builds offline, so Criterion is out; this is the small
//! fraction of it we actually use: warm up, run for a fixed wall-clock
//! budget, report mean/min per-iteration time. Bench binaries stay
//! `harness = false` and are gated behind the off-by-default `microbench`
//! feature so `cargo test -q` never pays for them.

pub use std::hint::black_box;
use std::time::{Duration, Instant};

/// Per-benchmark result.
#[derive(Debug, Clone)]
pub struct BenchResult {
    /// Benchmark label.
    pub name: String,
    /// Total measured iterations.
    pub iters: u64,
    /// Mean wall time per iteration in nanoseconds.
    pub mean_ns: f64,
    /// Fastest observed batch, per iteration, in nanoseconds.
    pub min_ns: f64,
}

impl BenchResult {
    /// Print a one-line summary to stdout.
    pub fn report(&self) {
        println!(
            "{:<44} {:>12.1} ns/iter (min {:>12.1} ns, {} iters)",
            self.name, self.mean_ns, self.min_ns, self.iters
        );
    }
}

/// Wall-clock budget per benchmark. Override with `PDAC_BENCH_MS` (a
/// malformed value exits 2).
fn budget() -> Duration {
    let ms = crate::decode::Knobs::env("PDAC_BENCH").get("MS", 200);
    Duration::from_millis(crate::decode::or_exit(ms))
}

/// Time `f` in batches until the budget is spent; prints and returns the
/// per-iteration statistics.
pub fn bench<T>(name: &str, mut f: impl FnMut() -> T) -> BenchResult {
    // Warm-up and batch-size calibration: grow the batch until one batch
    // takes ≳1% of the budget, so timer overhead stays negligible.
    let budget = budget();
    let mut batch: u64 = 1;
    loop {
        let t0 = Instant::now();
        for _ in 0..batch {
            black_box(f());
        }
        let dt = t0.elapsed();
        if dt >= budget / 100 || batch >= 1 << 20 {
            break;
        }
        batch *= 2;
    }

    let mut iters: u64 = 0;
    let mut min_ns = f64::INFINITY;
    let start = Instant::now();
    let mut spent = Duration::ZERO;
    while spent < budget {
        let t0 = Instant::now();
        for _ in 0..batch {
            black_box(f());
        }
        let dt = t0.elapsed();
        min_ns = min_ns.min(dt.as_nanos() as f64 / batch as f64);
        iters += batch;
        spent = start.elapsed();
    }
    let result = BenchResult {
        name: name.to_string(),
        iters,
        mean_ns: spent.as_nanos() as f64 / iters as f64,
        min_ns,
    };
    result.report();
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_measures_something() {
        std::env::set_var("PDAC_BENCH_MS", "5");
        let r = bench("selftest/sum", || (0..100u64).sum::<u64>());
        assert!(r.iters > 0);
        assert!(r.mean_ns > 0.0);
        assert!(r.min_ns <= r.mean_ns * 1.5);
    }
}
