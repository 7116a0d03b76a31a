//! The `drdesync` command-line tool (§3.2: "The tool has a command line
//! interface and the desynchronization operation consists of a sequence
//! of steps").
//!
//! ```text
//! drdesync desync <input.v> [-o out.v] [--sdc out.sdc] [--blif out.blif]
//!                 [--lib hs|ll] [--single-group] [--muxed] [--strict]
//!                 [--keep-sync-ff KIND]... [--jobs N]
//!                 [--max-cells N] [--max-nets N] [--pass-deadline-ms N]
//!                 [--false-path NET]... [--clock PORT] [--period NS]
//!                 [--trace FILE] [--stop-after PASS] [--dump-after PASS[=FILE]]
//! drdesync gatefile [--lib hs|ll]
//! drdesync regions <input.v> [--lib hs|ll]
//! drdesync simulate <input.v> [--lib hs|ll] [--seeds N] [--sigma S]
//!                   [--seed HEX] [--jobs N] [--check-liveness]
//! drdesync serve (--stdio | --socket PATH) [--lib hs|ll] [--jobs N]
//! ```
//!
//! Exit codes: `0` success (including degraded-but-completed flows, which
//! print a warning summary on stderr), `1` usage or I/O errors (including
//! an unknown `--stop-after`/`--dump-after` pass), `2` parse errors in the
//! input netlist (and invalid `--jobs` values, which are rejected before
//! any flow starts), `3` flow errors (including an unrepairable liveness
//! deadlock, which surfaces as a structured `liveness guard failed`
//! diagnostic).

use std::fmt::Write as _;
use std::process::ExitCode;

use drd_core::{DesyncError, DesyncOptions, Desynchronizer, FlowContext, Pipeline};
use drd_liberty::gatefile::Gatefile;
use drd_liberty::{vlib90, Library};
use drd_netlist::NetlistError;

fn usage() -> &'static str {
    "drdesync — fully-automated desynchronization of synchronous gate-level netlists\n\
     \n\
     USAGE:\n\
       drdesync desync <input.v> [-o OUT.v] [--sdc OUT.sdc] [--blif OUT.blif]\n\
                       [--report OUT.report] [--lib hs|ll] [--single-group]\n\
                       [--muxed] [--strict] [--keep-sync-ff KIND]... [--jobs N]\n\
                       [--max-cells N] [--max-nets N] [--pass-deadline-ms N]\n\
                       [--false-path NET]... [--clock PORT] [--period NS]\n\
                       [--trace FILE] [--stop-after PASS] [--dump-after PASS[=FILE]]\n\
     \n\
     PARALLELISM:\n\
       --jobs N             worker threads for the per-region pass fan-out\n\
                            (N >= 1; default: DRD_WORKERS, else available\n\
                            cores; outputs are byte-identical for any count)\n\
       drdesync gatefile [--lib hs|ll]\n\
       drdesync regions <input.v> [--lib hs|ll]\n\
       drdesync simulate <input.v> [--lib hs|ll] [--seeds N] [--sigma S]\n\
                         [--seed HEX] [--jobs N] [--check-liveness]\n\
       drdesync serve (--stdio | --socket PATH) [--lib hs|ll] [--jobs N]\n\
     \n\
     SERVE:\n\
       long-running server accepting concurrent desynchronization jobs as\n\
       newline-delimited JSON requests on stdin/stdout (--stdio) or a Unix\n\
       domain socket (--socket PATH). One request per line:\n\
         {\"id\":\"j1\",\"kind\":\"desync\",\"verilog\":\"...\",\"options\":{...}}\n\
         {\"id\":\"s1\",\"kind\":\"stats\"}   {\"id\":\"bye\",\"kind\":\"shutdown\"}\n\
       Responses echo the id and carry the CLI exit-code taxonomy in an\n\
       exit_code field; artifacts are byte-identical to a one-shot CLI run.\n\
       Repeat submissions answer from an in-memory flow cache keyed on the\n\
       netlist content hash and the canonicalized options. --jobs N sets\n\
       the cross-job core-token pool (default: all cores). See README.\n\
     \n\
     SIMULATE:\n\
       desynchronizes the input, elaborates the handshake control network\n\
       and measures each region's effective cycle time with the\n\
       event-driven timing simulator; --seeds N (default 256) adds a\n\
       Monte-Carlo campaign of N chips at per-gate sigma S (default 0.15,\n\
       campaign seed --seed, workers --jobs). Data goes to stdout and is\n\
       byte-identical for any worker count; progress goes to stderr.\n\
       --check-liveness prints a per-region liveness verdict (source /\n\
       interior / isolated topology, request rise vs successor response\n\
       bound, and which repair the guard applied, if any).\n\
     \n\
     ROBUSTNESS:\n\
       --strict             fail fast instead of degrading unsupported regions\n\
                            (and instead of the liveness guard's synchronous\n\
                            fallback rung)\n\
       --keep-sync-ff KIND  treat flip-flop KIND as unsupported: regions\n\
                            containing it stay synchronous (repeatable)\n\
       --max-cells N        abort the flow if the netlist exceeds N cells\n\
       --max-nets N         abort the flow if the netlist exceeds N nets\n\
       --pass-deadline-ms N abort if any single pass runs longer than N ms\n\
     \n\
     EXIT CODES:\n\
       0  success (a degraded flow completes with a warning summary on stderr)\n\
       1  usage or I/O error\n\
       2  input netlist parse error\n\
       3  flow error\n"
}

/// Typed CLI failure: the variant decides the process exit code.
enum CliError {
    /// Bad invocation or I/O trouble → exit 1.
    Usage(String),
    /// The input netlist did not parse → exit 2.
    Parse(String),
    /// The desynchronization flow failed → exit 3.
    Flow(String),
}

impl CliError {
    fn code(&self) -> u8 {
        match self {
            CliError::Usage(_) => 1,
            CliError::Parse(_) => 2,
            CliError::Flow(_) => 3,
        }
    }

    fn message(&self) -> &str {
        match self {
            CliError::Usage(m) | CliError::Parse(m) | CliError::Flow(m) => m,
        }
    }
}

impl From<NetlistError> for CliError {
    fn from(e: NetlistError) -> CliError {
        CliError::Parse(e.to_string())
    }
}

impl From<DesyncError> for CliError {
    fn from(e: DesyncError) -> CliError {
        CliError::Flow(e.to_string())
    }
}

impl From<std::io::Error> for CliError {
    fn from(e: std::io::Error) -> CliError {
        CliError::Usage(e.to_string())
    }
}

impl From<String> for CliError {
    fn from(m: String) -> CliError {
        CliError::Usage(m)
    }
}

impl From<&str> for CliError {
    fn from(m: &str) -> CliError {
        CliError::Usage(m.to_owned())
    }
}

impl From<drd_liberty::LibraryError> for CliError {
    fn from(e: drd_liberty::LibraryError) -> CliError {
        CliError::Flow(e.to_string())
    }
}

fn pick_lib(args: &[String]) -> Library {
    match args.iter().position(|a| a == "--lib") {
        Some(i) if args.get(i + 1).map(String::as_str) == Some("ll") => vlib90::low_leakage(),
        _ => vlib90::high_speed(),
    }
}

fn flag_value<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

/// Parses a `--flag N` numeric budget value.
fn parsed_flag<T: std::str::FromStr>(args: &[String], flag: &str) -> Result<Option<T>, CliError> {
    match flag_value(args, flag) {
        None => Ok(None),
        Some(raw) => raw.parse().map(Some).map_err(|_| {
            CliError::Usage(format!("{flag} expects a number, found `{raw}`"))
        }),
    }
}

/// Parses `--jobs N`, rejecting `0`: a zero-worker pool cannot run any
/// task, and silently clamping it up would hide the typo. Rejected as a
/// [`CliError::Parse`] (exit 2) before any flow work starts.
fn validated_jobs(args: &[String]) -> Result<Option<usize>, CliError> {
    match parsed_flag::<usize>(args, "--jobs")? {
        Some(0) => Err(CliError::Parse(
            "--jobs must be at least 1 (a zero-worker pool can run nothing); \
             pass --jobs N with N >= 1, or omit --jobs to use all cores"
                .to_owned(),
        )),
        other => Ok(other),
    }
}

/// The `desync` pipeline shaped by `--stop-after` and `--dump-after`:
/// the passes through the checkpoint, the passes after it, and whether
/// the flow stops before its last pass. Both names are checked here,
/// before any flow work: an unknown name, or a checkpoint after the stop,
/// is a usage error.
fn shaped_pipeline(
    stop_after: Option<&str>,
    dump_after: Option<&str>,
) -> Result<(Pipeline, Pipeline, bool), CliError> {
    let usage = |flag: &'static str| move |e: DesyncError| CliError::Usage(format!("{flag}: {e}"));
    let mut pipeline = Pipeline::standard();
    let mut stopped_early = false;
    if let Some(stop) = stop_after {
        let (through, rest) = pipeline.split_after(stop).map_err(usage("--stop-after"))?;
        if let Some(dump) = dump_after.filter(|d| rest.pass_names().contains(d)) {
            return Err(CliError::Usage(format!(
                "--dump-after pass `{dump}` runs after --stop-after pass `{stop}`, \
                 so its checkpoint would never be written"
            )));
        }
        stopped_early = !rest.pass_names().is_empty();
        pipeline = through;
    }
    let (head, tail) = match dump_after {
        Some(dump) => pipeline.split_after(dump).map_err(usage("--dump-after"))?,
        None => (pipeline, Pipeline::empty()),
    };
    Ok((head, tail, stopped_early))
}

/// `simulate --check-liveness`: a per-region verdict on the flow's
/// liveness model `spec` (DESIGN.md §3i) — topology class, rise time vs
/// the fastest successor's response bound, and the `repairs` the flow
/// recorded.
fn print_liveness_verdicts(
    spec: &drd_sim::HandshakeSpec,
    repairs: &[drd_core::LivenessRepair],
    lib: &Library,
) -> Result<(), CliError> {
    use drd_core::liveness::{is_source, pulse_window, ResponseModel};
    let model = ResponseModel::probe(lib)?;
    let isolated: Vec<usize> = spec.isolated_regions().collect();
    for (i, r) in spec.regions.iter().enumerate() {
        if !r.controlled {
            println!(
                "liveness {}: synchronous (not handshake-controlled)",
                r.name
            );
        } else if isolated.contains(&i) {
            println!(
                "liveness {}: isolated — no controlled predecessor or successor, \
                 not screened by the liveness guard",
                r.name
            );
        } else if !is_source(spec, i) {
            println!(
                "liveness {}: interior — requests held by C-element joins, no pulse hazard",
                r.name
            );
        } else {
            let (rise, bound) = pulse_window(&model, spec, i);
            let verdict = if r.loopback_latch {
                "request latch holds the loopback"
            } else if rise < bound {
                "rise inside the response window"
            } else {
                "HAZARD — pulse can be swallowed"
            };
            println!(
                "liveness {}: source — rise {rise:.3} ns vs successor response {bound:.3} ns: \
                 {verdict}",
                r.name
            );
        }
    }
    for lr in repairs {
        println!("liveness repair: {lr}");
    }
    Ok(())
}

fn run() -> Result<(), CliError> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else {
        eprint!("{}", usage());
        return Err("missing command".into());
    };
    match command.as_str() {
        "gatefile" => {
            let lib = pick_lib(&args);
            let gf = Gatefile::from_library(&lib)?;
            print!("{}", gf.to_text());
            Ok(())
        }
        "regions" => {
            let input = args.get(1).ok_or("missing input netlist")?;
            let lib = pick_lib(&args);
            let mut module = drd_netlist::verilog::parse_module(&std::fs::read_to_string(input)?)?;
            drd_core::region::clean_for_grouping(&mut module, &lib);
            let regions = drd_core::region::group(
                &module,
                &lib,
                &drd_core::region::GroupingOptions::recommended(),
            )?;
            for r in &regions.regions {
                println!(
                    "{}: {} cells, {} sequential{}",
                    r.name,
                    r.cells.len(),
                    r.seq_cells.len(),
                    if r.is_input_region { " (input registers)" } else { "" }
                );
            }
            Ok(())
        }
        "simulate" => {
            let input = args.get(1).ok_or("missing input netlist")?;
            let lib = pick_lib(&args);
            let module = drd_netlist::verilog::parse_module(&std::fs::read_to_string(input)?)?;
            let chips: usize = parsed_flag(&args, "--seeds")?.unwrap_or(256);
            let sigma: f64 = parsed_flag(&args, "--sigma")?.unwrap_or(0.15);
            let seed = match flag_value(&args, "--seed") {
                None => 0xD15E_A5E0,
                Some(raw) => {
                    u64::from_str_radix(raw.trim_start_matches("0x"), 16).map_err(|_| {
                        CliError::Usage(format!("--seed expects a hex value, found `{raw}`"))
                    })?
                }
            };
            let jobs: Option<usize> = validated_jobs(&args)?;
            let workers = jobs.unwrap_or_else(drd_runner::runner::worker_count);

            let tool = Desynchronizer::new(&lib)?;
            let opts = DesyncOptions {
                jobs,
                ..DesyncOptions::default()
            };
            let result = tool.run(module, &opts).0?;
            let spec = drd_flow::handshake_spec(&result.report, &lib)?;
            if args.iter().any(|a| a == "--check-liveness") {
                print_liveness_verdicts(&spec, &result.report.liveness_repairs, &lib)?;
            }
            if !spec.regions.iter().any(|r| r.controlled) {
                println!("no controlled regions — nothing to simulate");
                return Ok(());
            }
            let net = drd_sim::HandshakeNet::elaborate(&spec, &lib)
                .map_err(|e| CliError::Flow(e.to_string()))?;
            eprintln!(
                "control network: {} controlled regions, {} variability gates",
                net.region_names().len(),
                net.gate_count()
            );
            let nominal = net
                .nominal_cycle_times()
                .map_err(|e| CliError::Flow(e.to_string()))?;
            let mut worst = 0.0f64;
            for c in &nominal {
                println!(
                    "region {}: cycle {:.6} ns (matched floor {:.6} ns, {} cycles measured)",
                    c.region, c.cycle_ns, c.matched_delay_ns, c.cycles
                );
                worst = worst.max(c.cycle_ns);
            }
            let ones = vec![1.0f64; net.gate_count()];
            println!("nominal effective period: {worst:.6} ns");
            println!(
                "synchronous reference period: {:.6} ns",
                drd_sim::fs_to_ns(net.sync_period_fs(&ones))
            );

            if chips > 0 {
                eprintln!(
                    "monte carlo: {chips} chips, sigma {sigma}, seed {seed:#x}, \
                     {workers} workers"
                );
                let var = drd_sim::GateVariability::new(seed, sigma);
                let samples = net
                    .monte_carlo(&var, chips, workers)
                    .map_err(|e| CliError::Flow(e.to_string()))?;
                let n = samples.len() as f64;
                let mean = samples.iter().map(|s| s.desync_cycle_ns).sum::<f64>() / n;
                let min = samples
                    .iter()
                    .map(|s| s.desync_cycle_ns)
                    .fold(f64::INFINITY, f64::min);
                let max = samples
                    .iter()
                    .map(|s| s.desync_cycle_ns)
                    .fold(0.0f64, f64::max);
                let sync_worst = samples
                    .iter()
                    .map(|s| s.sync_period_ns)
                    .fold(0.0f64, f64::max);
                let faster = samples
                    .iter()
                    .filter(|s| s.desync_cycle_ns < sync_worst)
                    .count();
                println!(
                    "monte carlo ({chips} chips, sigma {sigma}): desync cycle mean \
                     {mean:.6} ns, min {min:.6} ns, max {max:.6} ns"
                );
                println!("sync worst-case period: {sync_worst:.6} ns");
                println!(
                    "chips faster than sync worst-case: {:.4}",
                    faster as f64 / n
                );
            }
            Ok(())
        }
        "serve" => {
            let lib = pick_lib(&args);
            let tokens = validated_jobs(&args)?.unwrap_or_else(drd_runner::runner::worker_count);
            let server = drd_serve::Server::new(&lib, tokens)?;
            if args.iter().any(|a| a == "--stdio") {
                let stdin = std::io::stdin().lock();
                // `Stdout` (not the non-Send lock) — job threads share it.
                let stdout = std::io::stdout();
                let stop = std::sync::atomic::AtomicBool::new(false);
                drd_serve::serve_stream(&server, stdin, stdout, &stop)?;
                Ok(())
            } else if let Some(path) = flag_value(&args, "--socket") {
                eprintln!("serving on unix socket `{path}` with {tokens} core token(s)");
                drd_serve::serve_unix(&server, std::path::Path::new(path))?;
                Ok(())
            } else {
                Err("serve needs --stdio or --socket PATH".into())
            }
        }
        "desync" => {
            let input = args.get(1).ok_or("missing input netlist")?;
            let dump = flag_value(&args, "--dump-after").map(|v| match v.split_once('=') {
                Some((pass, file)) => (pass, file.to_owned()),
                None => (v, format!("{v}.v")),
            });
            let (head, tail, stopped_early) = shaped_pipeline(
                flag_value(&args, "--stop-after"),
                dump.as_ref().map(|d| d.0),
            )?;
            let lib = pick_lib(&args);
            let module = drd_netlist::verilog::parse_module(&std::fs::read_to_string(input)?)?;
            let mut opts = DesyncOptions::default();
            if args.iter().any(|a| a == "--single-group") {
                opts.grouping.single_group = true;
            }
            if args.iter().any(|a| a == "--muxed") {
                opts.muxed_delay_elements = true;
            }
            for (i, a) in args.iter().enumerate() {
                if a == "--false-path" {
                    if let Some(net) = args.get(i + 1) {
                        opts.grouping.false_path_nets.push(net.clone());
                    }
                }
            }
            if let Some(port) = flag_value(&args, "--clock") {
                opts.clock_port = Some(port.to_owned());
            }
            if let Some(period) = parsed_flag(&args, "--period")? {
                opts.clock_period_ns = period;
            }
            opts.strict = args.iter().any(|a| a == "--strict");
            opts.jobs = validated_jobs(&args)?;
            opts.max_cells = parsed_flag(&args, "--max-cells")?;
            opts.max_nets = parsed_flag(&args, "--max-nets")?;
            opts.pass_deadline_ms = parsed_flag(&args, "--pass-deadline-ms")?;

            let tool = Desynchronizer::new(&lib)?;
            // `--keep-sync-ff KIND` drops KIND's substitution rule, so
            // regions containing it stay synchronous (or, with --strict,
            // fail the flow).
            let mut gatefile = tool.gatefile().clone();
            for (i, a) in args.iter().enumerate() {
                if a == "--keep-sync-ff" {
                    let kind = args
                        .get(i + 1)
                        .ok_or("--keep-sync-ff expects a flip-flop kind")?;
                    gatefile.rules.retain(|r| &r.ff != kind);
                }
            }
            // Head, checkpoint, tail: one context, so one trace.
            let mut cx = FlowContext::new(&lib, &gatefile, module, opts);
            let outcome = head.run(&mut cx).map_err(CliError::from).and_then(|()| {
                if let Some((_, file)) = &dump {
                    std::fs::write(file, cx.netlist_verilog()).map_err(|e| {
                        CliError::Usage(format!("cannot write checkpoint `{file}`: {e}"))
                    })?;
                }
                tail.run(&mut cx).map_err(CliError::from)
            });
            // The trace is written for a failed flow too: its `error`
            // section names the failing pass.
            let trace = cx.trace();
            if let Some(path) = flag_value(&args, "--trace") {
                std::fs::write(path, trace.to_json())?;
            }
            outcome?;

            if stopped_early {
                // Early stop: report partial artifacts and checkpoint the
                // intermediate netlist instead of the finished design.
                let last = trace.passes.last().map_or("<none>", |p| p.name);
                eprintln!(
                    "stopped after pass `{last}` ({} of {} passes run)",
                    trace.passes.len(),
                    Pipeline::standard().pass_names().len()
                );
                for p in &trace.passes {
                    eprintln!("  {}: {} [{}]", p.name, p.detail, p.artifacts.join(", "));
                }
                let verilog = cx.netlist_verilog();
                match flag_value(&args, "-o") {
                    Some(path) => std::fs::write(path, verilog)?,
                    None => print!("{verilog}"),
                }
                if flag_value(&args, "--sdc").is_some() || flag_value(&args, "--blif").is_some() {
                    eprintln!("note: --sdc/--blif skipped — flow stopped before completion");
                }
                return Ok(());
            }

            let result = cx.into_result()?;
            // The summary goes to (unbuffered) stderr in one write.
            eprint!("{}", summary(&result.report));
            let verilog = drd_netlist::verilog::write_design(&result.design);
            match flag_value(&args, "-o") {
                Some(path) => std::fs::write(path, verilog)?,
                None => print!("{verilog}"),
            }
            if let Some(path) = flag_value(&args, "--sdc") {
                std::fs::write(path, &result.sdc)?;
            }
            if let Some(path) = flag_value(&args, "--report") {
                // Identical bytes to a serve response's `report` field —
                // the differential oracle compares the two directly.
                std::fs::write(path, format!("{:?}", result.report))?;
            }
            if let Some(path) = flag_value(&args, "--blif") {
                let flat = drd_netlist::flatten(&result.design, result.design.top())?;
                std::fs::write(path, drd_netlist::blif::write_blif(&flat))?;
            }
            Ok(())
        }
        other => {
            eprint!("{}", usage());
            Err(format!("unknown command `{other}`").into())
        }
    }
}

/// The summary `desync` prints: the clock line, the liveness repairs,
/// the regions left synchronous and one line per region.
fn summary(rep: &drd_core::DesyncReport) -> String {
    let mut out = format!(
        "desynchronized: clock `{}`, {} regions, {} flip-flops substituted, \
         {} controllers, {} C-elements\n",
        rep.clock_net,
        rep.regions.len(),
        rep.substituted_ffs,
        rep.controllers,
        rep.celements
    );
    if !rep.liveness_repairs.is_empty() {
        let _ = writeln!(
            out,
            "warning: liveness guard repaired {} pulse-swallowing hazard record(s):",
            rep.liveness_repairs.len()
        );
        for lr in &rep.liveness_repairs {
            let _ = writeln!(out, "  {lr}");
        }
    }
    if !rep.degradations.is_empty() {
        let _ = writeln!(
            out,
            "warning: {} region(s) left synchronous (run with --strict to fail instead):",
            rep.degradations.len()
        );
        for d in &rep.degradations {
            let _ = writeln!(out, "  {d}");
        }
    }
    for r in &rep.regions {
        let _ = writeln!(
            out,
            "  {}: {} cells, {} ffs, cloud {:.3} ns, delay element {} levels",
            r.name, r.cells, r.ffs, r.critical_delay_ns, r.delem_levels
        );
    }
    out
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {}", e.message());
            ExitCode::from(e.code())
        }
    }
}
