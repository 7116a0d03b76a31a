//! A dependency-free micro-benchmark runner on `std::time::Instant`.
//!
//! Each benchmark is warmed up once, auto-calibrated to a bounded number
//! of timed iterations, and summarized as min/mean/max wall time. Kernels
//! that a gate bounds are also timed against a reference task in the
//! same iterations ([`Bench::run_relative`]), so the bound does not move
//! with host speed. Results print as a table; [`Bench::to_json`] renders
//! them for [`write_report`], the one writer of every `BENCH_<name>.json`,
//! so the performance trajectory of the tool kernels is recorded run
//! over run.

use std::path::{Path, PathBuf};
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
    iters: u32,
    /// The kernel's fastest iteration over the reference's fastest: the
    /// statistic a gate bounds.
    ratio: f64,
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
    /// `bodies[0]`, for gates that must not move with host speed. Each
    /// iteration runs every body once, reference first, and a kernel's
    /// ratio is its fastest iteration over the reference's fastest. A
    /// busy host slows the iterations it overlaps but not the fastest
    /// ones, so the ratio compares the bodies at the host's quietest.
    ///
    /// Timing runs in batches of `iters` iterations. While some kernel's
    /// ratio is above its bound (`bounds`, one per kernel), up to three
    /// more batches follow. More iterations only bring each body's
    /// fastest closer to its speed on a quiet host, where a slower kernel
    /// is still above its bound, while a host busy through one batch is
    /// seldom busy through four. Returns the ratios in `bodies[1..]`
    /// order; every body is also recorded as a plain sample over all its
    /// iterations.
    ///
    /// The timing loop allocates nothing of its own, so each body finds
    /// the heap as it left it in the iteration before.
    pub fn run_relative(
        &mut self,
        iters: u32,
        bounds: &[f64],
        bodies: &mut [(&str, &mut dyn FnMut())],
    ) -> Vec<f64> {
        const BATCHES: usize = 4;
        // One 30 MiB block, allocated and freed before timing. Freeing a
        // block that large from its own mapping (glibc caps this at
        // 32 MiB) makes glibc's malloc serve every smaller block from the
        // heap and keep up to twice that much free heap before returning
        // pages to the kernel, so the bodies' buffers reuse pages faulted
        // in once. Without it the heap's layout decided whether a body
        // faulted fresh pages in on every call: in a probe the DLX writer
        // took 326 faults a call and ran a quarter slower, and in this
        // bench some processes read it that slow and others did not.
        drop(std::hint::black_box(vec![0u8; 30 << 20]));
        for (_, body) in bodies.iter_mut() {
            body();
        }
        let mut times: Vec<Vec<f64>> = bodies
            .iter()
            .map(|_| Vec::with_capacity(iters as usize * BATCHES))
            .collect();
        let fastest = |times: &[f64]| times.iter().copied().fold(f64::INFINITY, f64::min);
        let mut ratios = Vec::with_capacity(bodies.len());
        for _ in 0..BATCHES {
            for _ in 0..iters {
                for ((_, body), times) in bodies.iter_mut().zip(&mut times) {
                    times.push(time_ns(body));
                }
            }
            let reference = fastest(&times[0]);
            ratios.clear();
            ratios.extend(times[1..].iter().map(|t| fastest(t) / reference));
            if ratios.iter().zip(bounds).all(|(r, bound)| r <= bound) {
                break;
            }
        }
        for ((label, _), times) in bodies.iter().zip(&times) {
            self.record(label, times);
        }
        for ((label, _), &ratio) in bodies[1..].iter().zip(&ratios) {
            let ratio = Ratio {
                label: (*label).to_owned(),
                reference: bodies[0].0.to_owned(),
                iters: times[0].len() as u32,
                ratio,
            };
            eprintln!(
                "ratio {:<40} {:>8.3} x {} ({} iters)",
                ratio.label, ratio.ratio, ratio.reference, ratio.iters
            );
            self.ratios.push(ratio);
        }
        ratios
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
                    "    {{\"label\": {}, \"reference\": {}, \"iters\": {}, \"ratio\": {:.4}}}",
                    escape(&r.label),
                    escape(&r.reference),
                    r.iters,
                    r.ratio
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
}

/// Writes `json` to `dir/BENCH_<name>.json` and returns the path. Every
/// bench report goes through here, so none is written that the shared
/// parser cannot read back.
///
/// # Errors
/// `InvalidData` when [`drd_json::parse`] rejects `json`, before anything
/// is written; otherwise filesystem errors.
pub fn write_report(dir: &Path, name: &str, json: &str) -> std::io::Result<PathBuf> {
    let file = format!("BENCH_{name}.json");
    if let Err(e) = drd_json::parse(json) {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("{file} is not valid JSON: {e}"),
        ));
    }
    std::fs::create_dir_all(dir)?;
    let path = dir.join(file);
    std::fs::write(&path, json)?;
    eprintln!("wrote {}", path.display());
    Ok(path)
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
        let ratios = b.run_relative(
            3,
            &[f64::INFINITY],
            &mut [("spin_ref", &mut spin), ("spin_twice", &mut twice)],
        );
        assert_eq!(b.samples().len(), 4);
        assert_eq!(b.samples()[3].iters, 3, "within its bound: one batch");
        let ratio = &b.ratios[0];
        assert!(ratio.ratio > 0.0, "{ratio:?}");
        assert_eq!(ratios, vec![ratio.ratio]);
        let json = b.to_json();
        assert!(json.contains("\"name\": \"selftest\""));
        assert!(json.contains("\"label\": \"spin\""));
        assert!(json.contains("mean_ns"));
        assert!(json.contains("\"spin_twice\", \"reference\": \"spin_ref\", \"iters\": 3"));
        drd_json::parse(&json).expect("valid JSON");
    }

    #[test]
    fn a_kernel_over_its_bound_is_timed_in_more_batches() {
        let mut b = Bench::new("batches");
        let mut spin = || {
            std::hint::black_box((0..1000u64).sum::<u64>());
        };
        let mut twice = || {
            std::hint::black_box((0..2000u64).sum::<u64>());
        };
        let ratios = b.run_relative(
            3,
            &[0.0],
            &mut [("spin_ref", &mut spin), ("spin_twice", &mut twice)],
        );
        assert!(ratios[0] > 0.0);
        assert_eq!(b.samples()[1].iters, 12, "four batches of three");
        assert_eq!(b.ratios[0].iters, 12);
    }

    #[test]
    fn write_report_writes_valid_json_and_refuses_the_rest() {
        let dir = std::env::temp_dir().join(format!("drd_check_bench_{}", std::process::id()));
        let mut b = Bench::new("filetest");
        b.run("noop", || ());
        let path = write_report(&dir, "filetest", &b.to_json()).unwrap();
        assert_eq!(path, dir.join("BENCH_filetest.json"));
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("filetest"));

        let err = write_report(&dir, "broken", "{\"name\": \"broken\",}").unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("BENCH_broken.json"), "{err}");
        assert!(!dir.join("BENCH_broken.json").exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
