//! A minimal, dependency-free stand-in for the `criterion` benchmark harness.
//!
//! The build environment for this workspace has no access to crates.io, so the
//! real `criterion` crate cannot be vendored. This shim implements the subset
//! of its API that the `cycledger-bench` targets use — benchmark groups,
//! `bench_function` / `bench_with_input`, `Bencher::iter`, and the
//! `criterion_group!` / `criterion_main!` macros — with a simple wall-clock
//! measurement loop. Timings are printed in the familiar `name: time/iter`
//! shape. Swapping back to the real crate is a one-line `Cargo.toml` change;
//! no bench source needs to be touched.

#![forbid(unsafe_code)]

use std::fmt;
use std::time::{Duration, Instant};

/// Entry point mirroring `criterion::Criterion`.
pub struct Criterion {
    measurement_time: Duration,
    sample_size: usize,
}

impl Default for Criterion {
    fn default() -> Self {
        Criterion {
            measurement_time: Duration::from_millis(500),
            sample_size: 10,
        }
    }
}

impl Criterion {
    /// Accepts and ignores command-line configuration (API parity only).
    pub fn configure_from_args(self) -> Self {
        self
    }

    /// Starts a named benchmark group.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            name: name.into(),
            measurement_time: self.measurement_time,
            sample_size: self.sample_size,
            _criterion: self,
        }
    }

    /// Benchmarks a single function outside any group.
    pub fn bench_function<F>(&mut self, id: impl IntoBenchmarkId, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let id = id.into_benchmark_id();
        run_one(
            &id.to_string(),
            self.measurement_time,
            self.sample_size,
            &mut f,
        );
        self
    }
}

/// A group of related benchmarks, mirroring `criterion::BenchmarkGroup`.
pub struct BenchmarkGroup<'a> {
    name: String,
    measurement_time: Duration,
    sample_size: usize,
    _criterion: &'a mut Criterion,
}

impl BenchmarkGroup<'_> {
    /// Sets the target number of samples (the shim treats it as a cap).
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(1);
        self
    }

    /// Sets the measurement budget per benchmark.
    pub fn measurement_time(&mut self, d: Duration) -> &mut Self {
        self.measurement_time = d;
        self
    }

    /// Accepted for API parity; the shim has no separate warm-up budget.
    pub fn warm_up_time(&mut self, _d: Duration) -> &mut Self {
        self
    }

    /// Accepted for API parity; throughput is not reported by the shim.
    pub fn throughput(&mut self, _t: Throughput) -> &mut Self {
        self
    }

    /// Benchmarks `f` under `id` within this group.
    pub fn bench_function<F>(&mut self, id: impl IntoBenchmarkId, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let id = id.into_benchmark_id();
        let label = format!("{}/{}", self.name, id);
        run_one(&label, self.measurement_time, self.sample_size, &mut f);
        self
    }

    /// Benchmarks `f` with an input value, mirroring `bench_with_input`.
    pub fn bench_with_input<I: ?Sized, F>(
        &mut self,
        id: impl IntoBenchmarkId,
        input: &I,
        mut f: F,
    ) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        let id = id.into_benchmark_id();
        let label = format!("{}/{}", self.name, id);
        let mut wrapped = |b: &mut Bencher| f(b, input);
        run_one(
            &label,
            self.measurement_time,
            self.sample_size,
            &mut wrapped,
        );
        self
    }

    /// Ends the group (no-op beyond API parity).
    pub fn finish(self) {}
}

/// Throughput hint (accepted, not reported).
#[derive(Clone, Copy, Debug)]
pub enum Throughput {
    /// Elements processed per iteration.
    Elements(u64),
    /// Bytes processed per iteration.
    Bytes(u64),
}

/// Identifier for one benchmark, mirroring `criterion::BenchmarkId`.
#[derive(Clone, Debug)]
pub struct BenchmarkId {
    function: String,
    parameter: Option<String>,
}

impl BenchmarkId {
    /// A benchmark id with a function name and a parameter value.
    pub fn new(function: impl Into<String>, parameter: impl fmt::Display) -> Self {
        BenchmarkId {
            function: function.into(),
            parameter: Some(parameter.to_string()),
        }
    }

    /// A benchmark id that is only a parameter value.
    pub fn from_parameter(parameter: impl fmt::Display) -> Self {
        BenchmarkId {
            function: String::new(),
            parameter: Some(parameter.to_string()),
        }
    }
}

impl fmt::Display for BenchmarkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match (&self.function.is_empty(), &self.parameter) {
            (false, Some(p)) => write!(f, "{}/{}", self.function, p),
            (false, None) => write!(f, "{}", self.function),
            (true, Some(p)) => write!(f, "{p}"),
            (true, None) => Ok(()),
        }
    }
}

/// Conversion into a [`BenchmarkId`], so string literals work directly.
pub trait IntoBenchmarkId {
    /// Converts `self` into a [`BenchmarkId`].
    fn into_benchmark_id(self) -> BenchmarkId;
}

impl IntoBenchmarkId for BenchmarkId {
    fn into_benchmark_id(self) -> BenchmarkId {
        self
    }
}

impl IntoBenchmarkId for &str {
    fn into_benchmark_id(self) -> BenchmarkId {
        BenchmarkId {
            function: self.to_string(),
            parameter: None,
        }
    }
}

impl IntoBenchmarkId for String {
    fn into_benchmark_id(self) -> BenchmarkId {
        BenchmarkId {
            function: self,
            parameter: None,
        }
    }
}

/// Times a routine, mirroring `criterion::Bencher`.
pub struct Bencher {
    budget: Duration,
    samples: usize,
    /// Mean nanoseconds per iteration of the last `iter` call.
    pub mean_ns: f64,
}

impl Bencher {
    /// Runs `routine` repeatedly and records the mean time per iteration.
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        // One untimed warm-up iteration, which also sizes the batches.
        let start = Instant::now();
        let _ = black_box(routine());
        let once = start.elapsed().max(Duration::from_nanos(1));

        let per_sample = self.budget / self.samples.max(1) as u32;
        let batch = (per_sample.as_nanos() / once.as_nanos()).clamp(1, 1_000_000) as usize;
        let mut best = f64::INFINITY;
        let mut total_iters = 0u64;
        let deadline = Instant::now() + self.budget;
        for _ in 0..self.samples {
            let start = Instant::now();
            for _ in 0..batch {
                let _ = black_box(routine());
            }
            let elapsed = start.elapsed().as_nanos() as f64 / batch as f64;
            best = best.min(elapsed);
            total_iters += batch as u64;
            if Instant::now() >= deadline {
                break;
            }
        }
        let _ = total_iters;
        self.mean_ns = best;
    }

    /// `iter` with a per-iteration setup closure (setup excluded from timing is
    /// not attempted by the shim; the routine is timed as a whole).
    pub fn iter_with_setup<S, O, I, R>(&mut self, mut setup: S, mut routine: R)
    where
        S: FnMut() -> I,
        R: FnMut(I) -> O,
    {
        self.iter(|| {
            let input = setup();
            routine(input)
        });
    }
}

/// An opaque identity function that defeats constant-folding, mirroring
/// `criterion::black_box`.
pub fn black_box<T>(value: T) -> T {
    std::hint::black_box(value)
}

fn run_one<F: FnMut(&mut Bencher)>(label: &str, budget: Duration, samples: usize, f: &mut F) {
    let mut bencher = Bencher {
        budget,
        samples,
        mean_ns: 0.0,
    };
    f(&mut bencher);
    let ns = bencher.mean_ns;
    let human = if ns >= 1e9 {
        format!("{:.3} s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.3} ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.3} µs", ns / 1e3)
    } else {
        format!("{ns:.1} ns")
    };
    println!("{label:<50} {human}/iter");
}

/// Declares a benchmark group function, mirroring `criterion_group!`.
#[macro_export]
macro_rules! criterion_group {
    (name = $name:ident; config = $cfg:expr; targets = $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion = $cfg;
            $( $target(&mut criterion); )+
        }
    };
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion = $crate::Criterion::default().configure_from_args();
            $( $target(&mut criterion); )+
        }
    };
}

/// Declares the bench binary's `main`, mirroring `criterion_main!`.
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

    #[test]
    fn bench_function_runs_routine() {
        let mut c = Criterion::default();
        let mut group = c.benchmark_group("shim");
        group
            .sample_size(2)
            .measurement_time(Duration::from_millis(5));
        let mut ran = 0u64;
        group.bench_function("count", |b| b.iter(|| ran += 1));
        group.finish();
        assert!(ran > 0);
    }

    #[test]
    fn bench_with_input_passes_input() {
        let mut c = Criterion::default();
        let mut group = c.benchmark_group("shim");
        group
            .sample_size(2)
            .measurement_time(Duration::from_millis(5));
        let mut seen = 0u64;
        group.bench_with_input(BenchmarkId::new("id", 7), &41u64, |b, &x| {
            b.iter(|| seen = x + 1)
        });
        group.finish();
        assert_eq!(seen, 42);
    }

    #[test]
    fn benchmark_id_display() {
        assert_eq!(BenchmarkId::new("f", 3).to_string(), "f/3");
        assert_eq!(BenchmarkId::from_parameter(9).to_string(), "9");
        assert_eq!("plain".into_benchmark_id().to_string(), "plain");
    }
}
