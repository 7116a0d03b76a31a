//! The closed-loop one-shot workloads: one client runs `drdesync desync`
//! (paper_cores, netgen_ladder) or `drdesync simulate` (mc_variability)
//! over the workload's inputs, round after round, each invocation a
//! fresh process timed from spawn to exit with its outputs on disk.

use std::path::{Path, PathBuf};
use std::time::Instant;

use drd_check::diff::{verify_result, DiffConfig};
use drd_core::Desynchronizer;
use drd_liberty::{vlib90, Library};

use crate::calib;
use crate::flow::{self, Files};
use crate::inputs::{self, Design};
use crate::proc::{invoke, Invocation};
use crate::report::{array, Metric, Obj, Outcome};
use crate::stats::{geomean, median};
use crate::Ctx;

/// Monte-Carlo chips per `simulate` invocation: ~1 s on two cores, so a
/// run holds well over ten invocations.
pub const MC_CHIPS: usize = 4000;

/// Start-up samples per run: each is a few milliseconds of mostly kernel
/// work, so it takes many for a steady median.
pub const SETUP_RUNS: usize = 101;

/// How many start-up samples are due `elapsed` seconds into the timed
/// part of a run: [`SETUP_RUNS`] spread evenly over it (three in a smoke
/// run). Start-up time on a shared host has modes that last seconds
/// (~2.8 and ~3.7 ms for the one-flip-flop `desync`), so samples taken
/// back to back all land in one of them.
pub fn setup_due(ctx: &Ctx, elapsed: f64) -> usize {
    if ctx.smoke {
        3
    } else {
        (1 + (elapsed / ctx.seconds * SETUP_RUNS as f64) as usize).min(SETUP_RUNS)
    }
}

/// What a finished invocation must have produced.
enum Expect {
    /// `-o`, `--sdc` and `--report` files equal to the in-process flow's.
    Files { out: [PathBuf; 3], want: Files },
    /// Standard output equal to a reference run's.
    Stdout(Vec<u8>),
}

/// One job class: a fixed command line run once per round.
struct Job {
    label: String,
    args: Vec<String>,
    /// Work units one invocation completes: input cells or chips.
    work: f64,
    expect: Expect,
}

/// Failed-operation bookkeeping shared by every phase of a run.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    peak_mb: f64,
    first_failure: Option<String>,
}

impl Tally {
    fn record(&mut self, what: &str, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = result {
            self.failed += 1;
            eprintln!("e2e: FAILED {what}: {e}");
            self.first_failure.get_or_insert(format!("{what}: {e}"));
        }
    }

    /// Runs `args` once, checks it, and returns it when it succeeded.
    fn invoke(
        &mut self,
        bin: &Path,
        args: &[String],
        expect: Option<&Expect>,
    ) -> Option<Invocation> {
        let run = invoke(bin, args);
        let checked = match &run {
            Err(e) => Err(format!("spawn: {e}")),
            Ok(inv) => {
                self.peak_mb = self.peak_mb.max(inv.reaped.maxrss_mb);
                if inv.ok() {
                    expect.map_or(Ok(()), |e| check(inv, e))
                } else {
                    Err(format!("exit status {:?}", inv.reaped.code))
                }
            }
        };
        let ok = checked.is_ok();
        self.record(&args.join(" "), checked);
        run.ok().filter(|_| ok)
    }
}

fn check(inv: &Invocation, expect: &Expect) -> Result<(), String> {
    match expect {
        Expect::Stdout(want) if &inv.stdout == want => Ok(()),
        Expect::Stdout(_) => Err("stdout differs from the reference run".into()),
        Expect::Files { out, want } => {
            let read = |p: &PathBuf| {
                std::fs::read_to_string(p).map_err(|e| format!("read {}: {e}", p.display()))
            };
            let got = Files {
                verilog: read(&out[0])?,
                sdc: read(&out[1])?,
                report: read(&out[2])?,
            };
            if got == *want {
                Ok(())
            } else {
                Err("output files differ from the in-process flow".into())
            }
        }
    }
}

fn write_input(dir: &Path, name: &str, text: &str) -> Result<String, String> {
    let path = dir.join(format!("{name}.v"));
    std::fs::write(&path, text).map_err(|e| format!("write {}: {e}", path.display()))?;
    Ok(path.display().to_string())
}

/// `desync` jobs over `designs`, each expected to reproduce the
/// in-process flow byte for byte. Returns the jobs and the in-process
/// results (for the workload's own oracles).
fn desync_jobs(
    ctx: &Ctx,
    designs: &[Design],
    tally: &mut Tally,
) -> Result<(Vec<Job>, Vec<Option<flow::Job>>), String> {
    let (hs, ll) = (vlib90::high_speed(), vlib90::low_leakage());
    let tools = (
        Desynchronizer::new(&hs).map_err(|e| e.to_string())?,
        Desynchronizer::new(&ll).map_err(|e| e.to_string())?,
    );
    let mut jobs = Vec::new();
    let mut results = Vec::new();
    for d in designs {
        let (lib, tool): (&Library, _) = if d.arm {
            (&ll, &tools.1)
        } else {
            (&hs, &tools.0)
        };
        let input = write_input(&ctx.dir, &d.name, &d.verilog)?;
        let out = ["v", "sdc", "rep"].map(|ext| ctx.dir.join(format!("{}.out.{ext}", d.name)));
        let reference = flow::run(lib, tool, d, None);
        let want = match &reference {
            Ok(job) => job.files.clone(),
            Err(e) => {
                tally.record(&format!("in-process flow on {}", d.name), Err(e.clone()));
                results.push(None);
                continue;
            }
        };
        results.push(reference.ok());
        let mut args = vec![
            "desync".to_owned(),
            input,
            "-o".into(),
            out[0].display().to_string(),
            "--sdc".into(),
            out[1].display().to_string(),
            "--report".into(),
            out[2].display().to_string(),
            "--jobs".into(),
            "1".into(),
        ];
        args.extend(d.cli_flags().iter().map(|s| (*s).to_owned()));
        jobs.push(Job {
            label: d.name.clone(),
            args,
            work: d.cells as f64,
            expect: Expect::Files { out, want },
        });
    }
    Ok((jobs, results))
}

/// Seed 0 only: the CLI's SDC for the two small cores equals the
/// committed goldens (the CLI output was already checked equal to the
/// in-process flow, so checking that one suffices).
fn golden_checks(designs: &[Design], results: &[Option<flow::Job>], tally: &mut Tally) {
    for (d, r) in designs.iter().zip(results) {
        if !matches!(d.name.as_str(), "dlx_small" | "armlike_small") {
            continue;
        }
        let path = format!("tests/golden/{}.sdc", d.name);
        let got = r.as_ref().map(|j| j.files.sdc.as_str());
        let verdict = match (std::fs::read_to_string(&path), got) {
            (Ok(want), Some(got)) if want == got => Ok(()),
            (Ok(_), Some(_)) => Err("SDC differs from the golden".to_owned()),
            (Err(e), _) => Err(format!("read {path}: {e}")),
            (_, None) => Err("no in-process result".to_owned()),
        };
        tally.record(&format!("golden {path}"), verdict);
    }
}

/// Every netgen design co-simulates equal to its synchronous reference.
fn netgen_oracle(designs: &[Design], results: &[Option<flow::Job>], tally: &mut Tally) {
    let lib = vlib90::high_speed();
    for (d, r) in designs.iter().zip(results) {
        let (Some(recipe), Some(job)) = (&d.recipe, r) else {
            continue;
        };
        let verdict = verify_result(recipe, &lib, &DiffConfig::default(), &job.result).map(drop);
        tally.record(&format!("co-simulation oracle on {}", d.name), verdict);
    }
}

/// One timed invocation.
struct Sample {
    wall_s: f64,
    cpu_s: f64,
    /// Host-speed scale from the reference runs around it
    /// ([`calib::scale`]).
    scale: f64,
}

struct Samples {
    per_job: Vec<Vec<Sample>>,
    rounds: usize,
    /// Spawn to exit of the fixed one-flip-flop run (s).
    setup: Vec<f64>,
}

/// One untimed warm-up round, then rounds until `ctx.seconds` elapse,
/// with the start-up runs `setup_args` interleaved as they fall due. The
/// program runs on `threads` threads, and so does the reference.
fn closed_loop(
    ctx: &Ctx,
    jobs: &[Job],
    tally: &mut Tally,
    threads: usize,
    setup_args: &[String],
) -> Samples {
    if !ctx.smoke {
        for job in jobs {
            tally.invoke(&ctx.bin, &job.args, Some(&job.expect));
        }
    }
    let mut per_job: Vec<Vec<Sample>> = jobs.iter().map(|_| Vec::new()).collect();
    let (mut setup, mut setup_taken) = (Vec::new(), 0);
    let start = Instant::now();
    let mut rounds = 0;
    // Each reference run closes one invocation's bracket and opens the
    // next one's.
    let mut before = calib::reference_s(threads);
    while rounds == 0 || (!ctx.smoke && start.elapsed().as_secs_f64() < ctx.seconds) {
        for (job, samples) in jobs.iter().zip(&mut per_job) {
            let inv = tally.invoke(&ctx.bin, &job.args, Some(&job.expect));
            let after = calib::reference_s(threads);
            if let Some(inv) = inv {
                samples.push(Sample {
                    wall_s: inv.wall_s,
                    cpu_s: inv.reaped.cpu_s,
                    scale: calib::scale(before, after),
                });
            }
            before = after;
            while setup_taken < setup_due(ctx, start.elapsed().as_secs_f64()) {
                setup_taken += 1;
                if let Some(inv) = tally.invoke(&ctx.bin, setup_args, None) {
                    setup.push(inv.wall_s);
                }
            }
        }
        rounds += 1;
    }
    Samples {
        per_job,
        rounds,
        setup,
    }
}

fn outcome(ctx: &Ctx, jobs: &[Job], s: &Samples, tally: &Tally) -> Outcome {
    let med = |i: usize, pick: fn(&Sample) -> f64| {
        median(&s.per_job[i].iter().map(pick).collect::<Vec<_>>())
    };
    let walls: Vec<f64> = (0..jobs.len())
        .map(|i| med(i, |x| x.wall_s * x.scale))
        .collect();
    let cpus: Vec<f64> = (0..jobs.len())
        .map(|i| med(i, |x| x.cpu_s * x.scale))
        .collect();
    let work: f64 = jobs.iter().map(|j| j.work).sum();
    // Start-up runs are scaled by the rounds' median host speed, not
    // sample by sample (see `calib`).
    let host_scale = median(
        &s.per_job
            .iter()
            .flatten()
            .map(|x| x.scale)
            .collect::<Vec<_>>(),
    );
    let rows = jobs.iter().enumerate().map(|(i, j)| {
        Obj::default()
            .str("job", &j.label)
            .num("work", j.work)
            .raw("samples", s.per_job[i].len())
            .num("wall_ms.p50", walls[i] * 1e3)
            .num("cpu_ms.p50", cpus[i] * 1e3)
            .num("raw_wall_ms.p50", med(i, |x| x.wall_s) * 1e3)
            .num("raw_cpu_ms.p50", med(i, |x| x.cpu_s) * 1e3)
            .num("host_scale.p50", med(i, |x| x.scale))
            .done()
    });
    let detail = Obj::default()
        .raw("seed", ctx.seed)
        .raw("rounds", s.rounds)
        .raw("setup_samples", s.setup.len())
        .raw("jobs", array(rows))
        .str(
            "first_failure",
            tally.first_failure.as_deref().unwrap_or(""),
        )
        .done();
    Outcome {
        attempted: tally.attempted,
        failed: tally.failed,
        metrics: vec![
            Metric {
                name: "setup_s",
                value: median(&s.setup) * host_scale,
                unit: "s",
            },
            Metric {
                name: "job_ms",
                value: geomean(&walls) * 1e3,
                unit: "ms",
            },
            Metric {
                name: "job_cpu_ms",
                value: geomean(&cpus) * 1e3,
                unit: "ms",
            },
            Metric {
                name: "rate",
                value: work / walls.iter().sum::<f64>(),
                unit: "1/s",
            },
            Metric {
                name: "peak_rss_mb",
                value: tally.peak_mb,
                unit: "MB",
            },
        ],
        detail,
    }
}

/// `paper_cores` and `netgen_ladder`.
pub fn desync_workload(ctx: &Ctx, designs: &[Design]) -> Result<Outcome, String> {
    let mut tally = Tally::default();
    let (jobs, results) = desync_jobs(ctx, designs, &mut tally)?;
    if ctx.workload == "paper_cores" && ctx.seed == 0 {
        golden_checks(designs, &results, &mut tally);
    }
    if ctx.workload == "netgen_ladder" {
        netgen_oracle(designs, &results, &mut tally);
    }
    let tiny = write_input(&ctx.dir, "tiny", inputs::TINY)?;
    let tiny_out = ctx.dir.join("tiny.out.v").display().to_string();
    let tiny_args: Vec<String> = ["desync", &tiny, "-o", &tiny_out, "--jobs", "1"]
        .map(str::to_owned)
        .to_vec();
    let samples = closed_loop(ctx, &jobs, &mut tally, 1, &tiny_args);
    Ok(outcome(ctx, &jobs, &samples, &tally))
}

/// `mc_variability`: `simulate` on DLX-small at `nproc` workers, checked
/// against one `--jobs 1` reference run of the same campaign.
pub fn mc_workload(ctx: &Ctx) -> Result<Outcome, String> {
    let mut tally = Tally::default();
    let design = inputs::paper_cores(ctx.seed).swap_remove(0);
    let input = write_input(&ctx.dir, &design.name, &design.verilog)?;
    let chips = if ctx.smoke { 200 } else { MC_CHIPS };
    let campaign = inputs::rng(ctx.seed, 0x4D43).next_u64();
    let args = |jobs: usize| -> Vec<String> {
        vec![
            "simulate".into(),
            input.clone(),
            "--seeds".into(),
            chips.to_string(),
            "--sigma".into(),
            "0.15".into(),
            "--seed".into(),
            format!("{campaign:x}"),
            "--jobs".into(),
            jobs.to_string(),
        ]
    };
    let reference = tally.invoke(&ctx.bin, &args(1), None).map(|inv| inv.stdout);
    // The printed nominal period must be the in-process flow's.
    let lib = vlib90::high_speed();
    let tool = Desynchronizer::new(&lib).map_err(|e| e.to_string())?;
    let period = flow::run(&lib, &tool, &design, None)
        .and_then(|job| flow::output_period_ns(&lib, &job.result));
    let verdict = match (&reference, period) {
        (Some(out), Ok(Some(p))) => {
            let line = format!("nominal effective period: {p:.6} ns");
            if String::from_utf8_lossy(out).contains(&line) {
                Ok(())
            } else {
                Err(format!("stdout lacks `{line}`"))
            }
        }
        (None, _) => Err("no --jobs 1 reference output".to_owned()),
        (_, Ok(None)) => Err("no handshake-controlled region".to_owned()),
        (_, Err(e)) => Err(e),
    };
    tally.record("simulate nominal period vs in-process", verdict);
    let jobs = vec![Job {
        label: format!("simulate {}x{chips}", design.name),
        args: args(ctx.workers),
        work: chips as f64,
        expect: Expect::Stdout(reference.unwrap_or_default()),
    }];
    let tiny = write_input(&ctx.dir, "tiny", inputs::TINY)?;
    let tiny_args: Vec<String> = ["simulate", &tiny, "--seeds", "0", "--jobs", "1"]
        .map(str::to_owned)
        .to_vec();
    let samples = closed_loop(ctx, &jobs, &mut tally, ctx.workers, &tiny_args);
    Ok(outcome(ctx, &jobs, &samples, &tally))
}
