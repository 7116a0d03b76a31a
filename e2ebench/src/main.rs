//! `e2e` — the end-to-end benchmark of `drdesync`.
//!
//! ```text
//! e2e [run] --workload W --seed S [--seconds T] [--trace 0|1] [--smoke]
//! e2e [run] --seed S [--seconds T] [--trace 0|1] [--smoke]
//! e2e compare BASE CHANGE
//! ```
//!
//! `run --workload W` measures one workload and prints its result as the
//! last line of stdout. Untraced (`--trace 0`) it drives the real
//! `drdesync` binary from outside and reports the end-to-end metrics;
//! traced (`--trace 1`) it calls each layer in process inside spans and
//! reports the per-layer metrics. Without `--workload` every workload
//! runs, each in a fresh child process, and the results are collected
//! into `<target>/bench-e2e/e2e_<seed>.json`. `compare` judges two sets
//! of such files against the bounds in `BENCHMARK.json`. See E2E.md.

mod calib;
mod compare;
mod flow;
mod inputs;
mod oneshot;
mod proc;
mod report;
mod serve;
mod stats;
mod trace;
mod traced;

use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

use drd_serve::json;

use crate::report::{out_dir, target_dir, Obj, Outcome};

/// The workloads, in run order, with why each is in the benchmark.
pub const WORKLOADS: [&str; 4] = [
    "paper_cores",
    "netgen_ladder",
    "serve_mix",
    "mc_variability",
];

/// Everything a workload run needs to know.
pub struct Ctx {
    pub workload: String,
    /// The `drdesync` binary under test.
    pub bin: PathBuf,
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: f64,
    /// One round (for serve, one short chunk of each kind) per workload, for
    /// the smoke test.
    pub smoke: bool,
    /// Scratch directory for this run's inputs and outputs.
    pub dir: PathBuf,
    /// Available cores: the worker count of every parallel run.
    pub workers: usize,
}

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    smoke: bool,
}

fn parse_run_args(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workload: None,
        seed: 0,
        seconds: None,
        trace: false,
        smoke: false,
    };
    let mut i = 0;
    while i < args.len() {
        let value = |i: usize| {
            args.get(i + 1)
                .ok_or_else(|| format!("{} expects a value", args[i]))
        };
        match args[i].as_str() {
            "--workload" => {
                let w = value(i)?;
                if !WORKLOADS.contains(&w.as_str()) {
                    return Err(format!(
                        "unknown workload `{w}`; one of {}",
                        WORKLOADS.join(", ")
                    ));
                }
                out.workload = Some(w.clone());
                i += 1;
            }
            "--seed" => {
                out.seed = value(i)?.parse().map_err(|_| "--seed expects an integer")?;
                i += 1;
            }
            "--seconds" => {
                let s: f64 = value(i)?
                    .parse()
                    .map_err(|_| "--seconds expects a number")?;
                if s.is_nan() || s <= 0.0 {
                    return Err("--seconds must be positive".into());
                }
                out.seconds = Some(s);
                i += 1;
            }
            "--trace" => match args.get(i + 1).map(String::as_str) {
                Some("0") | Some("1") => {
                    out.trace = args[i + 1] == "1";
                    i += 1;
                }
                _ => out.trace = true,
            },
            "--smoke" => out.smoke = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
        i += 1;
    }
    Ok(out)
}

/// `run_seconds` from `BENCHMARK.json`, the default run length.
fn default_seconds() -> Result<f64, String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("read BENCHMARK.json (run from the repository root): {e}"))?;
    json::parse(&text)?
        .get("run_seconds")
        .and_then(json::Value::as_num)
        .ok_or_else(|| "BENCHMARK.json has no run_seconds".to_owned())
}

fn run_workload(workload: &str, args: &Args, seconds: f64) -> Result<Outcome, String> {
    let bin = target_dir().join("release/drdesync");
    if !bin.is_file() {
        return Err(format!(
            "the program under test is not built: expected {} (build it with \
             `cargo build --release --offline` at the repository root, or run \
             `bash e2ebench/run.sh`)",
            bin.display()
        ));
    }
    let dir = out_dir()?.join(format!("work-{workload}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let ctx = Ctx {
        workload: workload.to_owned(),
        bin,
        seed: args.seed,
        seconds,
        smoke: args.smoke,
        dir: dir.clone(),
        workers: std::thread::available_parallelism().map_or(1, |n| n.get()),
    };
    let outcome = if args.trace {
        traced::run(&ctx)
    } else {
        match workload {
            "paper_cores" => oneshot::desync_workload(&ctx, &inputs::paper_cores(ctx.seed)),
            "netgen_ladder" => oneshot::desync_workload(&ctx, &inputs::netgen_ladder(ctx.seed)),
            "serve_mix" => serve::run(&ctx),
            _ => oneshot::mc_workload(&ctx),
        }
    };
    let _ = std::fs::remove_dir_all(&dir);
    outcome
}

/// Result files of traced runs end in `_trace`.
fn suffix(args: &Args) -> &'static str {
    if args.trace {
        "_trace"
    } else {
        ""
    }
}

/// Every workload in a fresh child process; the results go to
/// `e2e_<seed>.json`.
fn run_all(args: &Args, seconds: f64) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current exe: {e}"))?;
    let mut results = Obj::default()
        .raw("seed", args.seed)
        .raw("trace", args.trace);
    for w in WORKLOADS {
        let mut cmd = Command::new(&exe);
        cmd.args(["run", "--workload", w, "--seed", &args.seed.to_string()])
            .args([
                "--seconds",
                &seconds.to_string(),
                "--trace",
                if args.trace { "1" } else { "0" },
            ])
            .stderr(Stdio::inherit());
        if args.smoke {
            cmd.arg("--smoke");
        }
        let out = cmd.output().map_err(|e| format!("spawn {w}: {e}"))?;
        let text = String::from_utf8_lossy(&out.stdout);
        let line = text.lines().last().unwrap_or_default();
        if !out.status.success() || json::parse(line).is_err() {
            return Err(format!("workload {w} failed ({})", out.status));
        }
        eprintln!("e2e: {w}: {line}");
        results = results.raw(w, line);
    }
    let doc = results.done();
    let path = out_dir()?.join(format!("e2e_{}{}.json", args.seed, suffix(args)));
    std::fs::write(&path, format!("{doc}\n"))
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    eprintln!("e2e: wrote {}", path.display());
    Ok(doc)
}

fn main_inner() -> Result<(), String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let rest = match argv.first().map(String::as_str) {
        Some("compare") => return compare::run(&argv[1..]),
        Some("measure") => return proc::measure(&argv[1..]),
        Some("run") => &argv[1..],
        _ => &argv[..],
    };
    let args = parse_run_args(rest)?;
    let seconds = match args.seconds {
        Some(s) => s,
        None => default_seconds()?,
    };
    let Some(workload) = &args.workload else {
        println!("{}", run_all(&args, seconds)?);
        return Ok(());
    };
    let outcome = run_workload(workload, &args, seconds)?;
    let line = outcome.line()?;
    let path = out_dir()?.join(format!("{workload}_{}{}.json", args.seed, suffix(&args)));
    let doc = Obj::default()
        .raw("result", &line)
        .raw("detail", &outcome.detail)
        .done();
    std::fs::write(&path, format!("{doc}\n"))
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    println!("{line}");
    Ok(())
}

fn main() -> ExitCode {
    match main_inner() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("e2e: error: {e}");
            ExitCode::from(2)
        }
    }
}
