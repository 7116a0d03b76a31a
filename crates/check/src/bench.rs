//! A dependency-free micro-benchmark runner on `std::time::Instant`.
//!
//! Each benchmark is warmed up once, auto-calibrated to a bounded number
//! of timed iterations, and summarized as min/mean/max wall time. Kernels
//! that a gate bounds are also timed against a reference task in the
//! same iterations ([`Bench::run_relative`]), so the bound does not move
//! with host speed. Results print as a table and are written to
//! `BENCH_<name>.json` (directory overridable via `DRD_BENCH_DIR`) so the
//! performance trajectory of the tool kernels is recorded run over run.

use std::path::PathBuf;
use std::time::Instant;

use drd_json::escape;

/// Summary of one benchmark.
#[derive(Debug, Clone)]
pub struct Sample {
    /// Benchmark label.
    pub label: String,
    /// Timed iterations.
    pub iters: u32,
    /// Fastest iteration (ns).
    pub min_ns: f64,
    /// Mean iteration (ns).
    pub mean_ns: f64,
    /// Slowest iteration (ns).
    pub max_ns: f64,
}

/// A kernel's wall time over a reference task's, from
/// [`Bench::run_relative`].
#[derive(Debug, Clone)]
struct Ratio {
    label: String,
    reference: String,
    rounds: u32,
    /// Lowest per-round ratio: the statistic a gate bounds.
    min: f64,
    /// Highest per-round ratio.
    max: f64,
}

/// A named group of benchmarks.
#[derive(Debug)]
pub struct Bench {
    name: String,
    target_iters: u32,
    samples: Vec<Sample>,
    ratios: Vec<Ratio>,
}

impl Bench {
    /// Creates a bench group; `name` becomes `BENCH_<name>.json`.
    pub fn new(name: &str) -> Bench {
        Bench {
            name: name.to_owned(),
            target_iters: 10,
            samples: Vec::new(),
            ratios: Vec::new(),
        }
    }

    /// Overrides the default (10) number of timed iterations.
    pub fn iterations(mut self, iters: u32) -> Bench {
        self.target_iters = iters.max(1);
        self
    }

    /// Times `f`, discarding its result. One untimed warmup iteration,
    /// then `iterations` timed ones (fewer for very slow bodies).
    pub fn run<T>(&mut self, label: &str, mut f: impl FnMut() -> T) {
        std::hint::black_box(f());
        let probe = Instant::now();
        std::hint::black_box(f());
        let probe_ns = probe.elapsed().as_nanos() as f64;
        // Keep a single benchmark under ~2 s of timed work.
        let budget_ns = 2e9;
        let iters = if probe_ns > 0.0 {
            ((budget_ns / probe_ns) as u32).clamp(3, self.target_iters)
        } else {
            self.target_iters
        };
        let times: Vec<f64> = (0..iters).map(|_| time_ns(&mut f)).collect();
        self.record(label, &times);
    }

    /// Times each kernel of `bodies[1..]` against the reference task
    /// `bodies[0]`, for gates that must not move with host speed. Each of
    /// `rounds` rounds runs `iters` iterations, and each iteration runs
    /// every body once, reference first, so a host slow phase slows them
    /// all alike. A kernel's ratio in a round is its fastest iteration
    /// over the reference's fastest. A slow phase inflates only the
    /// rounds it overlaps, while a slower kernel shows in every round, so
    /// the lowest ratio over the rounds is what a gate bounds. Every body
    /// is also recorded as a plain sample over all its iterations.
    pub fn run_relative(
        &mut self,
        rounds: u32,
        iters: u32,
        bodies: &mut [(&str, &mut dyn FnMut())],
    ) {
        for (_, body) in bodies.iter_mut() {
            body();
        }
        let mut times = vec![Vec::new(); bodies.len()];
        let mut ratios = vec![Vec::new(); bodies.len()];
        for _ in 0..rounds {
            let mut fastest = vec![f64::INFINITY; bodies.len()];
            for _ in 0..iters {
                for (i, (_, body)) in bodies.iter_mut().enumerate() {
                    let ns = time_ns(body);
                    fastest[i] = fastest[i].min(ns);
                    times[i].push(ns);
                }
            }
            for (ratio, f) in ratios.iter_mut().zip(&fastest) {
                ratio.push(f / fastest[0]);
            }
        }
        for ((label, _), times) in bodies.iter().zip(&times) {
            self.record(label, times);
        }
        for ((label, _), ratio) in bodies.iter().zip(&ratios).skip(1) {
            let ratio = Ratio {
                label: (*label).to_owned(),
                reference: bodies[0].0.to_owned(),
                rounds,
                min: ratio.iter().copied().fold(f64::INFINITY, f64::min),
                max: ratio.iter().copied().fold(0.0f64, f64::max),
            };
            eprintln!(
                "ratio {:<40} {:>8.3} .. {:.3} x {} ({} rounds)",
                ratio.label, ratio.min, ratio.max, ratio.reference, rounds
            );
            self.ratios.push(ratio);
        }
    }

    fn record(&mut self, label: &str, times: &[f64]) {
        let iters = times.len() as u32;
        let min = times.iter().copied().fold(f64::INFINITY, f64::min);
        let max = times.iter().copied().fold(0.0f64, f64::max);
        let mean = times.iter().sum::<f64>() / times.len() as f64;
        eprintln!(
            "bench {:<40} {:>12.1} µs/iter (min {:.1}, max {:.1}, {} iters)",
            label,
            mean / 1e3,
            min / 1e3,
            max / 1e3,
            iters
        );
        self.samples.push(Sample {
            label: label.to_owned(),
            iters,
            min_ns: min,
            mean_ns: mean,
            max_ns: max,
        });
    }

    /// Recorded samples.
    pub fn samples(&self) -> &[Sample] {
        &self.samples
    }

    /// The JSON document for this group.
    pub fn to_json(&self) -> String {
        let results: Vec<String> = self
            .samples
            .iter()
            .map(|s| {
                format!(
                    "    {{\"label\": {}, \"iters\": {}, \"min_ns\": {:.0}, \"mean_ns\": {:.0}, \"max_ns\": {:.0}}}",
                    escape(&s.label),
                    s.iters,
                    s.min_ns,
                    s.mean_ns,
                    s.max_ns
                )
            })
            .collect();
        let ratios: Vec<String> = self
            .ratios
            .iter()
            .map(|r| {
                format!(
                    "    {{\"label\": {}, \"reference\": {}, \"rounds\": {}, \"min\": {:.4}, \"max\": {:.4}}}",
                    escape(&r.label),
                    escape(&r.reference),
                    r.rounds,
                    r.min,
                    r.max
                )
            })
            .collect();
        format!(
            "{{\n  \"name\": {},\n  \"results\": [\n{}\n  ],\n  \"ratios\": [\n{}\n  ]\n}}\n",
            escape(&self.name),
            results.join(",\n"),
            ratios.join(",\n")
        )
    }

    /// Writes `BENCH_<name>.json` and returns its path.
    ///
    /// # Errors
    /// Propagates filesystem errors.
    pub fn finish(self) -> std::io::Result<PathBuf> {
        let dir = std::env::var("DRD_BENCH_DIR").map_or_else(|_| PathBuf::from("."), PathBuf::from);
        std::fs::create_dir_all(&dir)?;
        let path = dir.join(format!("BENCH_{}.json", self.name));
        std::fs::write(&path, self.to_json())?;
        eprintln!("wrote {}", path.display());
        Ok(path)
    }
}

fn time_ns<T>(f: &mut impl FnMut() -> T) -> f64 {
    let t = Instant::now();
    std::hint::black_box(f());
    t.elapsed().as_nanos() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn runner_records_and_serializes() {
        let mut b = Bench::new("selftest").iterations(5);
        b.run("spin", || (0..1000u64).sum::<u64>());
        b.run("noop", || ());
        let mut spin = || {
            std::hint::black_box((0..1000u64).sum::<u64>());
        };
        let mut twice = || {
            std::hint::black_box((0..2000u64).sum::<u64>());
        };
        b.run_relative(
            2,
            3,
            &mut [("spin_ref", &mut spin), ("spin_twice", &mut twice)],
        );
        assert_eq!(b.samples().len(), 4);
        assert_eq!(b.samples()[3].iters, 6, "rounds x iterations");
        let ratio = &b.ratios[0];
        assert!(0.0 < ratio.min && ratio.min <= ratio.max, "{ratio:?}");
        let json = b.to_json();
        assert!(json.contains("\"name\": \"selftest\""));
        assert!(json.contains("\"label\": \"spin\""));
        assert!(json.contains("mean_ns"));
        assert!(json.contains("\"spin_twice\", \"reference\": \"spin_ref\", \"rounds\": 2"));
        drd_json::parse(&json).expect("valid JSON");
    }

    #[test]
    fn finish_writes_json_file() {
        let dir = std::env::temp_dir().join("drd_check_bench_test");
        std::env::set_var("DRD_BENCH_DIR", &dir);
        let mut b = Bench::new("filetest");
        b.run("noop", || ());
        let path = b.finish().unwrap();
        std::env::remove_var("DRD_BENCH_DIR");
        let text = std::fs::read_to_string(path).unwrap();
        assert!(text.contains("filetest"));
    }
}
