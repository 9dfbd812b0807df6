//! Offline stand-in for the subset of [`criterion`](https://docs.rs/criterion)
//! used by this workspace.
//!
//! The build environment cannot reach crates.io, so the workspace vendors
//! a minimal wall-clock benchmarking harness covering the API the benches
//! under `crates/bench/benches/` consume: [`criterion_group!`] (both the
//! plain and `name = …; config = …; targets = …` forms),
//! [`criterion_main!`], [`Criterion::bench_function`], benchmark groups
//! with [`BenchmarkGroup::bench_with_input`], [`BenchmarkId`], and
//! [`black_box`].
//!
//! Reported numbers are median iteration times without criterion's
//! statistical machinery — good enough to spot order-of-magnitude
//! regressions, not publication-grade.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt::Display;
use std::time::{Duration, Instant};

/// An opaque barrier preventing the optimizer from deleting a computation.
pub fn black_box<T>(x: T) -> T {
    std::hint::black_box(x)
}

/// Benchmark harness configuration and entry point.
#[derive(Debug, Clone)]
pub struct Criterion {
    warm_up: Duration,
    measurement: Duration,
    sample_size: usize,
}

impl Default for Criterion {
    /// Defaults to 300 ms warm-up / 1 s measurement / 20 samples. With
    /// `HIVEMIND_BENCH_QUICK=1` in the environment (the CI bench job),
    /// every benchmark instead runs a fast low-fidelity pass —
    /// explicit `warm_up_time`/`measurement_time` overrides are clamped
    /// down too, since quick mode wins over per-bench configuration.
    fn default() -> Self {
        if quick_mode() {
            Criterion {
                warm_up: Duration::from_millis(20),
                measurement: Duration::from_millis(100),
                sample_size: 5,
            }
        } else {
            Criterion {
                warm_up: Duration::from_millis(300),
                measurement: Duration::from_secs(1),
                sample_size: 20,
            }
        }
    }
}

/// Whether `HIVEMIND_BENCH_QUICK=1` requested a fast low-fidelity pass.
fn quick_mode() -> bool {
    std::env::var("HIVEMIND_BENCH_QUICK").is_ok_and(|v| v == "1")
}

impl Criterion {
    /// Sets the warm-up time before measurement starts (ignored in quick
    /// mode, which keeps its own shorter budget).
    pub fn warm_up_time(mut self, d: Duration) -> Self {
        if !quick_mode() {
            self.warm_up = d;
        }
        self
    }

    /// Sets the target total measurement time per benchmark (ignored in
    /// quick mode, which keeps its own shorter budget).
    pub fn measurement_time(mut self, d: Duration) -> Self {
        if !quick_mode() {
            self.measurement = d;
        }
        self
    }

    /// Sets the number of timing samples per benchmark.
    pub fn sample_size(mut self, n: usize) -> Self {
        assert!(n >= 2, "sample size must be at least 2");
        self.sample_size = n;
        self
    }

    /// Runs a single benchmark.
    pub fn bench_function<F>(&mut self, id: &str, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        run_one(self, id, &mut f);
        self
    }

    /// Opens a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: &str) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            criterion: self,
            name: name.to_string(),
            sample_size: None,
        }
    }
}

/// A named set of benchmarks sharing configuration.
pub struct BenchmarkGroup<'a> {
    criterion: &'a mut Criterion,
    name: String,
    sample_size: Option<usize>,
}

impl BenchmarkGroup<'_> {
    /// Overrides the sample count for this group.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        assert!(n >= 2, "sample size must be at least 2");
        self.sample_size = Some(n);
        self
    }

    /// Runs one benchmark in the group.
    pub fn bench_function<F>(&mut self, id: impl Display, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let full = format!("{}/{}", self.name, id);
        let mut c = self.effective();
        run_one(&mut c, &full, &mut f);
        self
    }

    /// Runs one benchmark parameterized by `input`.
    pub fn bench_with_input<I: ?Sized, F>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        mut f: F,
    ) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        let full = format!("{}/{}", self.name, id.0);
        let mut c = self.effective();
        run_one(&mut c, &full, &mut |b| f(b, input));
        self
    }

    /// Closes the group.
    pub fn finish(self) {}

    fn effective(&self) -> Criterion {
        let mut c = self.criterion.clone();
        if let Some(n) = self.sample_size {
            c.sample_size = n;
        }
        c
    }
}

/// Identifies a benchmark within a group.
#[derive(Debug, Clone)]
pub struct BenchmarkId(String);

impl BenchmarkId {
    /// An id made of a function name and a parameter label.
    pub fn new(function: impl Display, parameter: impl Display) -> Self {
        BenchmarkId(format!("{function}/{parameter}"))
    }

    /// An id made of a parameter label alone.
    pub fn from_parameter(parameter: impl Display) -> Self {
        BenchmarkId(format!("{parameter}"))
    }
}

/// Times closures handed to it by a benchmark body.
pub struct Bencher<'a> {
    config: &'a Criterion,
    reported: Option<Duration>,
}

impl Bencher<'_> {
    /// Measures `f`, timing `sample_size` batches after warm-up.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut f: F) {
        // Warm up and estimate a batch size targeting measurement_time
        // split across the samples.
        let warm_end = Instant::now() + self.config.warm_up;
        let mut warm_iters: u32 = 0;
        let warm_start = Instant::now();
        loop {
            black_box(f());
            warm_iters += 1;
            if Instant::now() >= warm_end {
                break;
            }
        }
        let per_iter = warm_start.elapsed().as_secs_f64() / warm_iters as f64;
        let budget = self.config.measurement.as_secs_f64() / self.config.sample_size as f64;
        let batch = ((budget / per_iter.max(1e-9)) as u64).clamp(1, 1_000_000);

        let mut samples: Vec<f64> = Vec::with_capacity(self.config.sample_size);
        for _ in 0..self.config.sample_size {
            let start = Instant::now();
            for _ in 0..batch {
                black_box(f());
            }
            samples.push(start.elapsed().as_secs_f64() / batch as f64);
        }
        samples.sort_by(f64::total_cmp);
        let median = samples[samples.len() / 2];
        self.reported = Some(Duration::from_secs_f64(median));
    }
}

fn run_one(c: &mut Criterion, id: &str, f: &mut dyn FnMut(&mut Bencher)) {
    let mut b = Bencher {
        config: c,
        reported: None,
    };
    f(&mut b);
    match b.reported {
        Some(t) => println!("{id:<50} time: [{}]", fmt_time(t)),
        None => println!("{id:<50} (no measurement)"),
    }
}

fn fmt_time(t: Duration) -> String {
    let ns = t.as_nanos() as f64;
    if ns < 1e3 {
        format!("{ns:.1} ns")
    } else if ns < 1e6 {
        format!("{:.2} µs", ns / 1e3)
    } else if ns < 1e9 {
        format!("{:.2} ms", ns / 1e6)
    } else {
        format!("{:.2} s", ns / 1e9)
    }
}

/// Declares a group of benchmark functions.
#[macro_export]
macro_rules! criterion_group {
    (name = $name:ident; config = $cfg:expr; targets = $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion: $crate::Criterion = $cfg;
            $($target(&mut criterion);)+
        }
    };
    ($name:ident, $($target:path),+ $(,)?) => {
        $crate::criterion_group! {
            name = $name;
            config = $crate::Criterion::default();
            targets = $($target),+
        }
    };
}

/// Declares the benchmark binary's entry point.
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

    fn sum_to(n: u64) -> u64 {
        (0..n).fold(0, |a, b| a.wrapping_add(b))
    }

    #[test]
    fn bench_function_reports() {
        let mut c = Criterion::default()
            .warm_up_time(Duration::from_millis(5))
            .measurement_time(Duration::from_millis(20))
            .sample_size(3);
        c.bench_function("sum", |b| b.iter(|| sum_to(black_box(1000))));
    }

    #[test]
    fn groups_and_ids_work() {
        let mut c = Criterion::default()
            .warm_up_time(Duration::from_millis(5))
            .measurement_time(Duration::from_millis(20));
        let mut g = c.benchmark_group("g");
        g.sample_size(3);
        g.bench_with_input(BenchmarkId::new("sum", 10), &10u64, |b, &n| {
            b.iter(|| sum_to(n))
        });
        g.bench_with_input(BenchmarkId::from_parameter(99), &99u64, |b, &n| {
            b.iter(|| sum_to(n))
        });
        g.finish();
    }

    #[test]
    fn id_formats() {
        assert_eq!(BenchmarkId::new("f", "p").0, "f/p");
        assert_eq!(BenchmarkId::from_parameter(7).0, "7");
    }
}
