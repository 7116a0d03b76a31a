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
//! drdesync simulate <input.v> [desync's flow flags, --lib to --jobs]
//!                   [--seeds N] [--sigma S] [--seed HEX] [--check-liveness]
//! drdesync serve (--stdio | --socket PATH) [--lib hs|ll] [--jobs N]
//! ```
//!
//! Each command takes only its own flags: an unknown flag, a flag missing
//! its value or a stray argument is a usage error.
//!
//! Exit codes: `0` success (including degraded-but-completed flows, which
//! print a warning summary on stderr), `1` usage or I/O errors (including
//! an unknown flag and an unknown `--stop-after`/`--dump-after` pass), `2`
//! parse errors in the input netlist (and invalid `--jobs` values, which
//! are rejected before any flow starts), `3` flow errors (including an
//! unrepairable liveness deadlock, which surfaces as a structured
//! `liveness guard failed` diagnostic).

use std::borrow::Cow;
use std::fmt::Write as _;
use std::process::ExitCode;

use drd_core::{DesyncError, DesyncOptions, Desynchronizer, FlowContext, LibraryFacts, Pipeline};
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
       drdesync simulate <input.v> [desync's flow flags, --lib to --jobs]\n\
                         [--seeds N] [--sigma S] [--seed HEX] [--check-liveness]\n\
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
       desynchronizes the input as desync does with the same flow flags,\n\
       elaborates the handshake control network and measures each\n\
       region's effective cycle time with the\n\
       event-driven timing simulator; --seeds N (default 256) adds a\n\
       Monte-Carlo campaign of N chips at per-gate sigma S (a finite S >= 0,\n\
       default 0.15; campaign seed --seed, workers --jobs). Data goes to\n\
       stdout and is byte-identical for any worker count; progress goes\n\
       to stderr.\n\
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

/// Whether a flag stands alone or takes the next argument as its value.
#[derive(Clone, Copy)]
enum Arity {
    Switch,
    Value,
}

use Arity::{Switch, Value};

/// The flags that shape the flow, taken alike by `desync` and
/// `simulate`: both run the flow the same flags describe.
const FLOW_FLAGS: &[(&str, Arity)] = &[
    ("--lib", Value),
    ("--single-group", Switch),
    ("--muxed", Switch),
    ("--strict", Switch),
    ("--keep-sync-ff", Value),
    ("--false-path", Value),
    ("--clock", Value),
    ("--period", Value),
    ("--max-cells", Value),
    ("--max-nets", Value),
    ("--pass-deadline-ms", Value),
    ("--jobs", Value),
];

/// `desync`'s output and checkpoint flags.
const DESYNC_FLAGS: &[(&str, Arity)] = &[
    ("-o", Value),
    ("--sdc", Value),
    ("--blif", Value),
    ("--report", Value),
    ("--trace", Value),
    ("--stop-after", Value),
    ("--dump-after", Value),
];

/// `simulate`'s campaign flags.
const SIMULATE_FLAGS: &[(&str, Arity)] = &[
    ("--seeds", Value),
    ("--sigma", Value),
    ("--seed", Value),
    ("--check-liveness", Switch),
];

/// The one flag of `gatefile` and `regions`.
const LIB_FLAG: &[(&str, Arity)] = &[("--lib", Value)];

/// `serve`'s flags.
const SERVE_FLAGS: &[(&str, Arity)] = &[
    ("--stdio", Switch),
    ("--socket", Value),
    ("--lib", Value),
    ("--jobs", Value),
];

/// A command's arguments, checked against the flags it takes: its input
/// netlist (for the commands that read one) and each flag with its
/// value, in command-line order.
struct Args {
    /// The input netlist path; empty for a command that reads none.
    input: String,
    flags: Vec<(String, Option<String>)>,
}

impl Args {
    /// Parses `args` (the words after the command `command`). A flag the
    /// command does not take, a flag missing its value and a stray word
    /// are usage errors.
    fn parse(
        command: &str,
        args: &[String],
        takes_input: bool,
        tables: &[&[(&str, Arity)]],
    ) -> Result<Args, CliError> {
        let mut words = args.iter();
        let input = if takes_input {
            words.next().ok_or("missing input netlist")?.clone()
        } else {
            String::new()
        };
        let mut flags = Vec::new();
        while let Some(word) = words.next() {
            let arity = tables
                .iter()
                .flat_map(|t| t.iter())
                .find(|(flag, _)| flag == word)
                .map(|&(_, arity)| arity);
            let value = match arity {
                Some(Switch) => None,
                Some(Value) => Some(
                    words
                        .next()
                        .ok_or_else(|| format!("{word} expects a value"))?
                        .clone(),
                ),
                None if word.starts_with('-') => {
                    return Err(format!("`{command}` does not take the flag `{word}`").into())
                }
                None => return Err(format!("`{command}`: unexpected argument `{word}`").into()),
            };
            flags.push((word.clone(), value));
        }
        Ok(Args { input, flags })
    }

    /// Every value given to `flag`, in order.
    fn values<'s>(&'s self, flag: &'s str) -> impl Iterator<Item = &'s str> {
        self.flags
            .iter()
            .filter(move |(f, _)| f == flag)
            .filter_map(|(_, v)| v.as_deref())
    }

    /// The first value given to `flag`.
    fn value(&self, flag: &str) -> Option<&str> {
        let (_, value) = self.flags.iter().find(|(f, _)| f == flag)?;
        value.as_deref()
    }

    fn has(&self, flag: &str) -> bool {
        self.flags.iter().any(|(f, _)| f == flag)
    }

    /// Parses a `--flag N` numeric value.
    fn parsed<T: std::str::FromStr>(&self, flag: &str) -> Result<Option<T>, CliError> {
        match self.value(flag) {
            None => Ok(None),
            Some(raw) => raw
                .parse()
                .map(Some)
                .map_err(|_| CliError::Usage(format!("{flag} expects a number, found `{raw}`"))),
        }
    }

    /// Parses `--jobs N`, rejecting `0`: a zero-worker pool cannot run
    /// any task, and silently clamping it up would hide the typo.
    /// Rejected as a [`CliError::Parse`] (exit 2) before any flow work
    /// starts.
    fn jobs(&self) -> Result<Option<usize>, CliError> {
        match self.parsed::<usize>("--jobs")? {
            Some(0) => Err(CliError::Parse(
                "--jobs must be at least 1 (a zero-worker pool can run nothing); \
                 pass --jobs N with N >= 1, or omit --jobs to use all cores"
                    .to_owned(),
            )),
            other => Ok(other),
        }
    }

    /// Parses `--sigma S` (default 0.15). A sigma is a spread, so it
    /// must be finite and at least 0: a NaN or infinite one would reach
    /// the per-gate delay draws, and a negative one means nothing.
    fn sigma(&self) -> Result<f64, CliError> {
        let sigma: f64 = self.parsed("--sigma")?.unwrap_or(0.15);
        if sigma.is_finite() && sigma >= 0.0 {
            return Ok(sigma);
        }
        let raw = self.value("--sigma").unwrap_or_default();
        Err(CliError::Usage(format!(
            "--sigma expects a finite number of at least 0, found `{raw}`"
        )))
    }

    fn library(&self) -> Library {
        match self.value("--lib") {
            Some("ll") => vlib90::low_leakage(),
            _ => vlib90::high_speed(),
        }
    }

    /// The flow options [`FLOW_FLAGS`] describe.
    fn flow_options(&self) -> Result<DesyncOptions, CliError> {
        let mut opts = DesyncOptions::default();
        opts.grouping.single_group = self.has("--single-group");
        opts.muxed_delay_elements = self.has("--muxed");
        opts.strict = self.has("--strict");
        opts.grouping
            .false_path_nets
            .extend(self.values("--false-path").map(str::to_owned));
        opts.clock_port = self.value("--clock").map(str::to_owned);
        if let Some(period) = self.parsed("--period")? {
            opts.clock_period_ns = period;
        }
        opts.jobs = self.jobs()?;
        opts.max_cells = self.parsed("--max-cells")?;
        opts.max_nets = self.parsed("--max-nets")?;
        opts.pass_deadline_ms = self.parsed("--pass-deadline-ms")?;
        Ok(opts)
    }

    /// `tool`'s gatefile without the rule of each `--keep-sync-ff KIND`,
    /// so regions containing KIND stay synchronous (or, with --strict,
    /// fail the flow); copied only when a rule is dropped.
    fn gatefile<'t>(&self, tool: &'t Desynchronizer<'_>) -> Cow<'t, Gatefile> {
        let mut gatefile = Cow::Borrowed(tool.gatefile());
        for kind in self.values("--keep-sync-ff") {
            gatefile.to_mut().rules.retain(|r| r.ff != kind);
        }
        gatefile
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
    facts: &LibraryFacts<'_>,
) -> Result<(), CliError> {
    use drd_core::liveness::{is_source, pulse_window};
    let model = facts.response()?;
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
    let rest = &args[1..];
    match command.as_str() {
        "gatefile" => {
            let args = Args::parse(command, rest, false, &[LIB_FLAG])?;
            let gf = Gatefile::from_library(&args.library())?;
            print!("{}", gf.to_text());
            Ok(())
        }
        "regions" => {
            let args = Args::parse(command, rest, true, &[LIB_FLAG])?;
            let lib = args.library();
            let mut module =
                drd_netlist::verilog::parse_module(&std::fs::read_to_string(&args.input)?)?;
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
                    if r.is_input_region {
                        " (input registers)"
                    } else {
                        ""
                    }
                );
            }
            Ok(())
        }
        "simulate" => {
            let args = Args::parse(command, rest, true, &[FLOW_FLAGS, SIMULATE_FLAGS])?;
            let chips: usize = args.parsed("--seeds")?.unwrap_or(256);
            let sigma = args.sigma()?;
            let seed = match args.value("--seed") {
                None => 0xD15E_A5E0,
                Some(raw) => {
                    u64::from_str_radix(raw.trim_start_matches("0x"), 16).map_err(|_| {
                        CliError::Usage(format!("--seed expects a hex value, found `{raw}`"))
                    })?
                }
            };
            let lib = args.library();
            let module =
                drd_netlist::verilog::parse_module(&std::fs::read_to_string(&args.input)?)?;
            let opts = args.flow_options()?;
            let workers = opts.workers();

            let tool = Desynchronizer::new(&lib)?;
            let gatefile = args.gatefile(&tool);
            let mut cx = FlowContext::new(&lib, &gatefile, module, opts);
            Pipeline::standard().run(&mut cx)?;
            let facts = cx.facts();
            let result = cx.into_result()?;
            let spec = drd_core::handshake_spec_with(&result.report, &facts)?;
            if args.has("--check-liveness") {
                print_liveness_verdicts(&spec, &result.report.liveness_repairs, &facts)?;
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
            let args = Args::parse(command, rest, false, &[SERVE_FLAGS])?;
            let lib = args.library();
            let tokens = args
                .jobs()?
                .unwrap_or_else(drd_runner::runner::worker_count);
            let server = drd_serve::Server::new(&lib, tokens)?;
            if args.has("--stdio") {
                let stdin = std::io::stdin().lock();
                // `Stdout` (not the non-Send lock) — job threads share it.
                let stdout = std::io::stdout();
                let stop = std::sync::atomic::AtomicBool::new(false);
                drd_serve::serve_stream(&server, stdin, stdout, &stop)?;
                Ok(())
            } else if let Some(path) = args.value("--socket") {
                eprintln!("serving on unix socket `{path}` with {tokens} core token(s)");
                drd_serve::serve_unix(&server, std::path::Path::new(path))?;
                Ok(())
            } else {
                Err("serve needs --stdio or --socket PATH".into())
            }
        }
        "desync" => {
            let args = Args::parse(command, rest, true, &[FLOW_FLAGS, DESYNC_FLAGS])?;
            let dump = args.value("--dump-after").map(|v| match v.split_once('=') {
                Some((pass, file)) => (pass, file.to_owned()),
                None => (v, format!("{v}.v")),
            });
            let (head, tail, stopped_early) =
                shaped_pipeline(args.value("--stop-after"), dump.as_ref().map(|d| d.0))?;
            let lib = args.library();
            let module =
                drd_netlist::verilog::parse_module(&std::fs::read_to_string(&args.input)?)?;
            let opts = args.flow_options()?;

            let tool = Desynchronizer::new(&lib)?;
            let gatefile = args.gatefile(&tool);
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
            if let Some(path) = args.value("--trace") {
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
                match args.value("-o") {
                    Some(path) => std::fs::write(path, verilog)?,
                    None => print!("{verilog}"),
                }
                if args.value("--sdc").is_some() || args.value("--blif").is_some() {
                    eprintln!("note: --sdc/--blif skipped — flow stopped before completion");
                }
                return Ok(());
            }

            let result = cx.into_result()?;
            // The summary goes to (unbuffered) stderr in one write.
            eprint!("{}", summary(&result.report));
            let verilog = drd_netlist::verilog::write_design(&result.design);
            match args.value("-o") {
                Some(path) => std::fs::write(path, verilog)?,
                None => print!("{verilog}"),
            }
            if let Some(path) = args.value("--sdc") {
                std::fs::write(path, &result.sdc)?;
            }
            if let Some(path) = args.value("--report") {
                // Identical bytes to a serve response's `report` field —
                // the differential oracle compares the two directly.
                std::fs::write(path, format!("{:?}", result.report))?;
            }
            if let Some(path) = args.value("--blif") {
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
