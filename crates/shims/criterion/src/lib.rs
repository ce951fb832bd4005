//! Offline stand-in for the `criterion` crate.
//!
//! Implements the API surface the workspace's benches use — benchmark
//! groups, `bench_function`, `iter`/`iter_batched`, throughput annotation,
//! and the `criterion_group!`/`criterion_main!` macros — with a simple
//! median-of-samples timer instead of criterion's full statistics. Bench
//! sources compile and run unchanged; numbers are indicative rather than
//! statistically rigorous.

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]

use std::time::{Duration, Instant};

/// Batch sizing hints for [`Bencher::iter_batched`] (ignored by the shim).
#[derive(Clone, Copy, Debug)]
pub enum BatchSize {
    /// Small per-iteration inputs.
    SmallInput,
    /// Large per-iteration inputs.
    LargeInput,
    /// One batch per iteration.
    PerIteration,
}

/// Throughput annotation for a benchmark.
#[derive(Clone, Copy, Debug)]
pub enum Throughput {
    /// Bytes processed per iteration.
    Bytes(u64),
    /// Elements processed per iteration.
    Elements(u64),
}

/// The per-benchmark timing driver.
pub struct Bencher {
    samples: usize,
    /// Median nanoseconds per iteration, filled by `iter*`.
    result_ns: f64,
}

const WARMUP_ITERS: u64 = 32;
const ITERS_PER_SAMPLE: u64 = 256;
/// Hard wall-clock cap per benchmark so accidental bench runs (e.g. via
/// `cargo test --all-targets`) stay fast.
const MAX_BENCH_TIME: Duration = Duration::from_millis(500);

impl Bencher {
    fn new(samples: usize) -> Self {
        Bencher { samples, result_ns: f64::NAN }
    }

    /// Times `routine`, recording the median sample.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut routine: F) {
        self.run(|iters| {
            let start = Instant::now();
            for _ in 0..iters {
                std::hint::black_box(routine());
            }
            start.elapsed()
        });
    }

    /// Times `routine` over inputs produced by `setup` (setup excluded
    /// from timing).
    pub fn iter_batched<I, O, S, F>(&mut self, mut setup: S, mut routine: F, _size: BatchSize)
    where
        S: FnMut() -> I,
        F: FnMut(I) -> O,
    {
        self.run(|iters| {
            let inputs: Vec<I> = (0..iters).map(|_| setup()).collect();
            let start = Instant::now();
            for input in inputs {
                std::hint::black_box(routine(input));
            }
            start.elapsed()
        });
    }

    fn run<F: FnMut(u64) -> Duration>(&mut self, mut timed: F) {
        let deadline = Instant::now() + MAX_BENCH_TIME;
        timed(WARMUP_ITERS); // warmup
        let mut per_iter: Vec<f64> = Vec::with_capacity(self.samples);
        for _ in 0..self.samples {
            let d = timed(ITERS_PER_SAMPLE);
            per_iter.push(d.as_nanos() as f64 / ITERS_PER_SAMPLE as f64);
            if Instant::now() >= deadline {
                break;
            }
        }
        per_iter.sort_by(|a, b| a.partial_cmp(b).unwrap());
        self.result_ns = per_iter[per_iter.len() / 2];
    }
}

/// A named group of benchmarks sharing configuration.
pub struct BenchmarkGroup<'a> {
    criterion: &'a mut Criterion,
    name: String,
    throughput: Option<Throughput>,
    /// Group-scoped override of the criterion-wide sample count.
    sample_size: Option<usize>,
}

impl BenchmarkGroup<'_> {
    /// Overrides the sample count for this group only.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = Some(n.max(2));
        self
    }

    /// Annotates subsequent benchmarks with a throughput.
    pub fn throughput(&mut self, throughput: Throughput) -> &mut Self {
        self.throughput = Some(throughput);
        self
    }

    /// Runs one benchmark.
    pub fn bench_function<N: Into<String>, F: FnMut(&mut Bencher)>(
        &mut self,
        id: N,
        mut f: F,
    ) -> &mut Self {
        let id = id.into();
        let mut b = Bencher::new(self.sample_size.unwrap_or(self.criterion.sample_size));
        f(&mut b);
        let mut line = format!("{}/{:<40} {:>12.1} ns/iter", self.name, id, b.result_ns);
        if let Some(tp) = self.throughput {
            match tp {
                Throughput::Bytes(n) => {
                    let gbps = n as f64 * 8.0 / b.result_ns;
                    line.push_str(&format!("  ({gbps:.2} Gbps)"));
                }
                Throughput::Elements(n) => {
                    let meps = n as f64 * 1e3 / b.result_ns;
                    line.push_str(&format!("  ({meps:.2} Melem/s)"));
                }
            }
        }
        println!("{line}");
        self
    }

    /// Ends the group.
    pub fn finish(self) {}
}

/// Entry point mirroring `criterion::Criterion`.
pub struct Criterion {
    sample_size: usize,
}

impl Default for Criterion {
    fn default() -> Self {
        Criterion { sample_size: 16 }
    }
}

impl Criterion {
    /// Sets the default sample count.
    pub fn sample_size(mut self, n: usize) -> Self {
        self.sample_size = n.max(2);
        self
    }

    /// Opens a named benchmark group.
    pub fn benchmark_group<N: Into<String>>(&mut self, name: N) -> BenchmarkGroup<'_> {
        BenchmarkGroup { criterion: self, name: name.into(), throughput: None, sample_size: None }
    }

    /// Runs a stand-alone benchmark.
    pub fn bench_function<N: Into<String>, F: FnMut(&mut Bencher)>(&mut self, id: N, f: F) {
        self.benchmark_group("bench").bench_function(id, f);
    }
}

/// Declares a bench entry function over a list of target functions.
#[macro_export]
macro_rules! criterion_group {
    (name = $name:ident; config = $config:expr; targets = $($target:path),+ $(,)?) => {
        fn $name() {
            let mut criterion = $config;
            $( $target(&mut criterion); )+
        }
    };
    ($name:ident, $($target:path),+ $(,)?) => {
        $crate::criterion_group!(
            name = $name;
            config = $crate::Criterion::default();
            targets = $($target),+
        );
    };
}

/// Declares `main` over bench groups.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    fn targets(c: &mut Criterion) {
        let mut g = c.benchmark_group("shim");
        g.throughput(Throughput::Bytes(64));
        g.bench_function("noop", |b| b.iter(|| 1 + 1));
        g.bench_function("batched", |b| {
            b.iter_batched(|| vec![0u8; 64], |v| v.len(), BatchSize::SmallInput)
        });
        g.finish();
    }

    criterion_group!(
        name = benches;
        config = Criterion::default().sample_size(4);
        targets = targets
    );

    #[test]
    fn group_runs_quickly() {
        let start = std::time::Instant::now();
        benches();
        assert!(start.elapsed() < Duration::from_secs(10));
    }
}
