//! A vendored, API-compatible subset of the `criterion` benchmark harness.
//!
//! The workspace builds offline (no crates.io mirror), so the external
//! `criterion` dev-dependency is replaced by this path crate. It keeps the
//! bench sources unchanged — groups, `bench_function`, `bench_with_input`,
//! `Throughput`, `BenchmarkId`, the `criterion_group!`/`criterion_main!`
//! macros — but the measurement loop is deliberately simple: a short
//! warm-up, then `sample_size` timed samples whose median and mean are
//! printed per benchmark. No statistics beyond that, no HTML reports.
//!
//! Host wall-clock numbers from these benches are advisory; the
//! authoritative performance story of this repository is virtual time (see
//! `pmem_sim::time`).

pub use std::hint::black_box;

use std::fmt;
use std::time::{Duration, Instant};

/// Throughput annotation for a benchmark group (printed with each sample).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Throughput {
    Bytes(u64),
    Elements(u64),
}

/// A benchmark identifier: `function_name/parameter`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BenchmarkId {
    id: String,
}

impl BenchmarkId {
    pub fn new(function_name: impl Into<String>, parameter: impl fmt::Display) -> Self {
        BenchmarkId {
            id: format!("{}/{parameter}", function_name.into()),
        }
    }

    pub fn from_parameter(parameter: impl fmt::Display) -> Self {
        BenchmarkId {
            id: parameter.to_string(),
        }
    }
}

impl fmt::Display for BenchmarkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.id)
    }
}

impl From<&str> for BenchmarkId {
    fn from(s: &str) -> Self {
        BenchmarkId { id: s.to_string() }
    }
}

impl From<String> for BenchmarkId {
    fn from(id: String) -> Self {
        BenchmarkId { id }
    }
}

/// Passed to the benchmark closure; `iter` runs the measured routine.
pub struct Bencher<'a> {
    samples: usize,
    throughput: Option<Throughput>,
    label: &'a str,
}

impl Bencher<'_> {
    /// Time `routine`: warm up briefly, then take `sample_size` samples of a
    /// batch sized so one sample is at least ~1ms, and report median/mean.
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        // Warm-up and batch sizing: grow the batch until it costs >= 1ms.
        let mut batch = 1u64;
        let batch_floor = Duration::from_millis(1);
        loop {
            let start = Instant::now();
            for _ in 0..batch {
                black_box(routine());
            }
            if start.elapsed() >= batch_floor || batch >= 1 << 20 {
                break;
            }
            batch *= 2;
        }
        let mut per_iter: Vec<f64> = (0..self.samples.max(2))
            .map(|_| {
                let start = Instant::now();
                for _ in 0..batch {
                    black_box(routine());
                }
                start.elapsed().as_secs_f64() / batch as f64
            })
            .collect();
        per_iter.sort_by(|a, b| a.total_cmp(b));
        let median = per_iter[per_iter.len() / 2];
        let mean = per_iter.iter().sum::<f64>() / per_iter.len() as f64;
        let rate = match self.throughput {
            Some(Throughput::Bytes(n)) => {
                format!("  {:>10.1} MiB/s", n as f64 / median / (1024.0 * 1024.0))
            }
            Some(Throughput::Elements(n)) => {
                format!("  {:>10.1} Melem/s", n as f64 / median / 1e6)
            }
            None => String::new(),
        };
        println!(
            "{:<40} median {:>12} mean {:>12}{rate}",
            self.label,
            fmt_time(median),
            fmt_time(mean)
        );
    }
}

fn fmt_time(secs: f64) -> String {
    if secs >= 1.0 {
        format!("{secs:.3}s")
    } else if secs >= 1e-3 {
        format!("{:.3}ms", secs * 1e3)
    } else if secs >= 1e-6 {
        format!("{:.3}us", secs * 1e6)
    } else {
        format!("{:.1}ns", secs * 1e9)
    }
}

/// A named group of related benchmarks.
pub struct BenchmarkGroup<'a> {
    name: String,
    sample_size: usize,
    throughput: Option<Throughput>,
    _criterion: &'a mut Criterion,
}

impl BenchmarkGroup<'_> {
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(2);
        self
    }

    pub fn throughput(&mut self, throughput: Throughput) -> &mut Self {
        self.throughput = Some(throughput);
        self
    }

    pub fn bench_function<F>(&mut self, id: impl Into<BenchmarkId>, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher<'_>),
    {
        let label = format!("{}/{}", self.name, id.into());
        let mut b = Bencher {
            samples: self.sample_size,
            throughput: self.throughput,
            label: &label,
        };
        f(&mut b);
        self
    }

    pub fn bench_with_input<I: ?Sized, F>(
        &mut self,
        id: impl Into<BenchmarkId>,
        input: &I,
        mut f: F,
    ) -> &mut Self
    where
        F: FnMut(&mut Bencher<'_>, &I),
    {
        let label = format!("{}/{}", self.name, id.into());
        let mut b = Bencher {
            samples: self.sample_size,
            throughput: self.throughput,
            label: &label,
        };
        f(&mut b, input);
        self
    }

    pub fn finish(&mut self) {}
}

/// The harness entry point, created by [`criterion_main!`].
#[derive(Default)]
pub struct Criterion {
    sample_size: usize,
}

impl Criterion {
    pub fn configure_from_args(mut self) -> Self {
        self.sample_size = 10;
        self
    }

    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        let name = name.into();
        println!("-- bench group: {name} --");
        BenchmarkGroup {
            name,
            sample_size: if self.sample_size == 0 {
                10
            } else {
                self.sample_size
            },
            throughput: None,
            _criterion: self,
        }
    }

    pub fn bench_function<F>(&mut self, id: impl Into<BenchmarkId>, f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher<'_>),
    {
        self.benchmark_group("bench").bench_function(id, f);
        self
    }
}

/// Collect benchmark functions under one group name (Criterion-compatible).
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion = $crate::Criterion::default().configure_from_args();
            $($target(&mut criterion);)+
        }
    };
}

/// Generate `main` running every group (Criterion-compatible).
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_id_formats() {
        assert_eq!(BenchmarkId::new("put", 64).to_string(), "put/64");
        assert_eq!(BenchmarkId::from_parameter("bp4").to_string(), "bp4");
    }

    #[test]
    fn bencher_runs_routine() {
        let mut criterion = Criterion::default().configure_from_args();
        let mut group = criterion.benchmark_group("test");
        group.sample_size(2).throughput(Throughput::Bytes(8));
        let mut calls = 0u64;
        group.bench_function("count", |b| b.iter(|| calls += 1));
        group.finish();
        assert!(calls > 0, "routine never ran");
    }

    #[test]
    fn group_macros_compile() {
        fn bench_noop(c: &mut Criterion) {
            c.benchmark_group("noop").finish();
        }
        criterion_group!(benches, bench_noop);
        benches();
    }
}
