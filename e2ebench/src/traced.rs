//! The traced run: the workload's designs pushed in process through
//! every layer a user's request crosses, each call inside a span.
//!
//! * Flow jobs (phase A), per design and round: one untraced job, one
//!   traced job (parse → nine passes → `into_result` → write → report)
//!   and one `drdesync desync` invocation, so tracing and process
//!   overheads are measured against the same work.
//! * Serve requests (phase B, `serve_mix` only): request parse, netlist
//!   hash, execute (hit or miss) and the client's response parse, on an
//!   in-process server. Only `serve_mix` crosses the serve layers, and
//!   only its designs are small enough to: the request and response JSON
//!   parser re-validates the rest of its input for every string
//!   character, so parse time grows with the square of the line length
//!   and a full-size core's request would take minutes. These numbers go
//!   to the detail file, not the per-layer metrics every workload shares.
//! * Simulation (phase C, all but `serve_mix`): elaborate, nominal cycle
//!   and Monte Carlo at one worker and at every core. Some fuzzed
//!   `serve_mix` designs are not simulatable (the simulator reports a
//!   deadlock or hits its event cap), so the phase skips them.
//!
//! The per-layer metrics are the layers every workload crosses — the
//! flow job's — and aggregate per round: a layer's `ms` is the sum over
//! the workload's designs of that design's median self time. Serve and
//! simulator layers go to the detail file of the workloads that run them.

use std::collections::{BTreeMap, HashSet};
use std::rc::Rc;
use std::time::Instant;

use drd_core::Desynchronizer;
use drd_liberty::{vlib90, Library};
use drd_netlist::hash::content_hash128;
use drd_serve::protocol::{parse_request, Request};
use drd_serve::{json, Server};
use drd_sim::GateVariability;

use crate::flow::{self, Files, PASS_SPANS};
use crate::inputs::{self, Design};
use crate::report::{array, out_dir, Metric, Obj, Outcome};
use crate::stats::{geomean, growth_exponent, median};
use crate::trace::Tracer;
use crate::Ctx;

/// Every per-layer metric, in report order, with its unit.
pub const LAYER_METRICS: [(&str, &str); 31] = [
    ("netlist.parse.ms", "ms"),
    ("netlist.parse.mb_per_s", "MB/s"),
    ("core.clean.ms", "ms"),
    ("core.clock-id.ms", "ms"),
    ("core.group.ms", "ms"),
    ("core.ddg.ms", "ms"),
    ("core.region-delays.ms", "ms"),
    ("core.ffsub.ms", "ms"),
    ("core.control-network.ms", "ms"),
    ("core.liveness.ms", "ms"),
    ("core.sdc.ms", "ms"),
    ("core.clean.share", "fraction"),
    ("core.clock-id.share", "fraction"),
    ("core.group.share", "fraction"),
    ("core.ddg.share", "fraction"),
    ("core.region-delays.share", "fraction"),
    ("core.ffsub.share", "fraction"),
    ("core.control-network.share", "fraction"),
    ("core.liveness.share", "fraction"),
    ("core.sdc.share", "fraction"),
    ("core.into_result.ms", "ms"),
    ("netlist.write.ms", "ms"),
    ("report.render.ms", "ms"),
    ("core.region-delays.region_max_ms", "ms"),
    ("core.liveness.repairs", "count"),
    ("core.ffsub.cells_delta", "count"),
    ("core.control-network.cells_delta", "count"),
    ("core.liveness.cells_delta", "count"),
    ("out.area_um2", "um2"),
    ("cli.overhead_ms", "ms"),
    ("trace.overhead", "fraction"),
];

/// Layers of a flow job, in call order.
const JOB_LAYERS: [&str; 13] = [
    "netlist.parse",
    PASS_SPANS[0],
    PASS_SPANS[1],
    PASS_SPANS[2],
    PASS_SPANS[3],
    PASS_SPANS[4],
    PASS_SPANS[5],
    PASS_SPANS[6],
    PASS_SPANS[7],
    PASS_SPANS[8],
    "core.into_result",
    "netlist.write",
    "report.render",
];

/// Mix requests after the hot-set pre-warm on `serve_mix`.
const SERVE_MIX_REQUESTS: usize = 1000;
/// Monte-Carlo chips per design (the `mc_variability` design uses the
/// workload's own campaign size).
const SIM_CHIPS: usize = 200;

/// One design as the traced run sees it.
struct Subject {
    design: Design,
    lib: Library,
    /// The in-process flow's files, the oracle for every other path.
    files: Files,
    result: drd_core::DesyncResult,
}

/// The workload's designs, vetted: for `serve_mix` the hot set plus the
/// never-seen designs the mix sends, kept apart.
fn subjects(ctx: &Ctx) -> Result<(Vec<Subject>, Vec<Subject>), String> {
    let vet = |d: Design| -> Option<Subject> {
        let lib = d.library();
        let tool = Desynchronizer::new(&lib).ok()?;
        let job = flow::run(&lib, &tool, &d, None).ok()?;
        Some(Subject {
            design: d,
            lib,
            files: job.files,
            result: job.result,
        })
    };
    let fixed = |designs: Vec<Design>| -> Result<Vec<Subject>, String> {
        let n = designs.len();
        let vetted: Vec<Subject> = designs.into_iter().filter_map(vet).collect();
        if vetted.len() == n {
            Ok(vetted)
        } else {
            Err("a workload design does not desynchronize in process".into())
        }
    };
    match ctx.workload.as_str() {
        "paper_cores" => Ok((fixed(inputs::paper_cores(ctx.seed))?, Vec::new())),
        "netgen_ladder" => Ok((fixed(inputs::netgen_ladder(ctx.seed))?, Vec::new())),
        "mc_variability" => Ok((
            fixed(vec![inputs::paper_cores(ctx.seed).swap_remove(0)])?,
            Vec::new(),
        )),
        _ => {
            let mut rng = inputs::rng(ctx.seed, 0x5E4E);
            let misses = if ctx.smoke {
                12
            } else {
                SERVE_MIX_REQUESTS / 4
            };
            let classes = inputs::stratified(&mut rng, misses, &inputs::MISS_MIX);
            let mut seen = HashSet::new();
            let mut draw = |n: usize, f: &dyn Fn(&mut drd_check::Rng, usize, String) -> Design| {
                let mut out = Vec::new();
                while out.len() < n {
                    let d = f(&mut rng, out.len(), format!("d{}", seen.len()));
                    if seen.insert(content_hash128(d.verilog.as_bytes())) {
                        out.extend(vet(d));
                    }
                }
                out
            };
            let hot = draw(if ctx.smoke { 8 } else { 64 }, &|rng, _, name| {
                inputs::hot_candidate(rng, name)
            });
            let fresh = draw(misses, &|rng, i, name| {
                inputs::serve_candidate(rng, classes[i], name)
            });
            Ok((hot, fresh))
        }
    }
}

/// Per design, per layer: the self time of every traced round (ns), plus
/// the counts of the first round.
#[derive(Default)]
struct LayerSamples {
    ns: BTreeMap<&'static str, Vec<f64>>,
    counts: BTreeMap<(&'static str, &'static str), f64>,
    /// The slowest per-region task of `region-delays`, every round.
    region_max_ns: Vec<f64>,
}

struct FlowPhase {
    per_design: Vec<LayerSamples>,
    untraced_ns: Vec<Vec<f64>>,
    traced_ns: Vec<Vec<f64>>,
    cli_ns: Vec<Vec<f64>>,
    rounds: usize,
}

/// Fails unless the `drdesync desync` output files equal the subject's.
fn cli_job(ctx: &Ctx, s: &Subject) -> Result<f64, String> {
    let input = ctx.dir.join(format!("{}.v", s.design.name));
    let out = ["v", "sdc", "rep"].map(|e| ctx.dir.join(format!("{}.out.{e}", s.design.name)));
    std::fs::write(&input, &s.design.verilog).map_err(|e| format!("write input: {e}"))?;
    let path = |p: &std::path::Path| p.display().to_string();
    let mut args = vec![
        "desync".to_owned(),
        path(&input),
        "-o".into(),
        path(&out[0]),
        "--sdc".into(),
        path(&out[1]),
        "--report".into(),
        path(&out[2]),
        "--jobs".into(),
        "1".into(),
    ];
    args.extend(s.design.cli_flags().iter().map(|f| (*f).to_owned()));
    let inv = crate::proc::invoke(&ctx.bin, &args).map_err(|e| format!("spawn: {e}"))?;
    if !inv.ok() {
        return Err(format!("desync exit {:?}", inv.reaped.code));
    }
    let read = |i: usize| std::fs::read_to_string(&out[i]).map_err(|e| e.to_string());
    let got = Files {
        verilog: read(0)?,
        sdc: read(1)?,
        report: read(2)?,
    };
    if got != s.files {
        return Err("CLI output differs from the in-process flow".into());
    }
    Ok(inv.wall_s * 1e9)
}

/// Phase A. Each round runs every design untraced, traced and through
/// the CLI; rounds continue until half the run length has passed.
fn flow_phase(
    ctx: &Ctx,
    subjects: &[Subject],
    tracer: &Rc<Tracer>,
    fail: &mut dyn FnMut(String),
) -> FlowPhase {
    let tools: Vec<Desynchronizer<'_>> = subjects
        .iter()
        .map(|s| Desynchronizer::new(&s.lib).expect("library vetted above"))
        .collect();
    let n = subjects.len();
    let mut phase = FlowPhase {
        per_design: (0..n).map(|_| LayerSamples::default()).collect(),
        untraced_ns: vec![Vec::new(); n],
        traced_ns: vec![Vec::new(); n],
        cli_ns: vec![Vec::new(); n],
        rounds: 0,
    };
    let start = Instant::now();
    let min_rounds = if ctx.smoke { 1 } else { 3 };
    while phase.rounds < min_rounds
        || (!ctx.smoke && start.elapsed().as_secs_f64() < ctx.seconds / 2.0)
    {
        for (i, s) in subjects.iter().enumerate() {
            // Alternate which goes first so drift hits both alike.
            let mut order = [false, true];
            if phase.rounds % 2 == 1 {
                order.reverse();
            }
            for traced in order {
                let t0 = Instant::now();
                let first = tracer.spans().len();
                let job_span = traced.then(|| tracer.enter("job"));
                let run = flow::run(&s.lib, &tools[i], &s.design, traced.then_some(tracer));
                if let Some(id) = job_span {
                    tracer.exit(id);
                }
                let ns = t0.elapsed().as_secs_f64() * 1e9;
                match run {
                    Ok(job) if job.files == s.files => {}
                    Ok(_) => fail(format!("{}: flow output not repeatable", s.design.name)),
                    Err(e) => fail(e),
                }
                if !traced {
                    phase.untraced_ns[i].push(ns);
                    continue;
                }
                phase.traced_ns[i].push(ns);
                let own = tracer.self_ns(first);
                let spans = tracer.spans();
                let samples = &mut phase.per_design[i];
                for (span, own) in spans[first..].iter().zip(own).skip(1) {
                    samples.ns.entry(span.name).or_default().push(own as f64);
                    if span.name == "core.region-delays" {
                        let slowest = span.counts.iter().find(|c| c.0 == "region_max_ns");
                        samples.region_max_ns.extend(slowest.map(|c| c.1));
                    }
                    if phase.rounds == 0 {
                        for &(key, v) in &span.counts {
                            samples.counts.insert((span.name, key), v);
                        }
                    }
                }
            }
            match cli_job(ctx, s) {
                Ok(ns) => phase.cli_ns[i].push(ns),
                Err(e) => fail(format!("{}: {e}", s.design.name)),
            }
        }
        phase.rounds += 1;
    }
    phase
}

#[derive(Default)]
struct ServePhase {
    parse_request_ns: Vec<f64>,
    hash_ns: Vec<f64>,
    hit_ns: Vec<f64>,
    miss_ns: Vec<f64>,
    client_parse_ns: Vec<f64>,
    response_bytes: Vec<f64>,
    /// Requests for a design sent before, which a cache keeping every
    /// result answers from memory.
    planned_hits: usize,
}

impl ServePhase {
    fn json(&self, requests: usize) -> String {
        let us = |v: &[f64]| median(v) / 1e3;
        let bytes = self.response_bytes.iter().sum::<f64>();
        Obj::default()
            .raw("requests", requests)
            .raw("planned_hits", self.planned_hits)
            .raw("hits", self.hit_ns.len())
            .num("serve.parse_request_us", us(&self.parse_request_ns))
            .num("netlist.hash_us", us(&self.hash_ns))
            .num("serve.hit_us", us(&self.hit_ns))
            .num("serve.miss_ms", us(&self.miss_ns) / 1e3)
            .num(
                "serve.response_kb",
                bytes / self.response_bytes.len().max(1) as f64 / 1e3,
            )
            .num("client.parse_us", us(&self.client_parse_ns))
            .done()
    }
}

/// Phase B: `order` lists subject indices in request order; the first
/// request for each subject is planned as a miss, every later one as a
/// hit. Whether the server answered from its cache is counted, not
/// checked: a server may evict and recompute.
fn serve_phase(
    pool: &[&Subject],
    order: &[usize],
    tracer: &Tracer,
    workers: usize,
    fail: &mut dyn FnMut(String),
) -> ServePhase {
    let lib = vlib90::high_speed();
    let Ok(server) = Server::new(&lib, workers) else {
        fail("server does not build".into());
        return ServePhase::default();
    };
    let escaped: Vec<String> = pool
        .iter()
        .map(|s| json::escape(&s.design.verilog))
        .collect();
    let mut sent = vec![false; pool.len()];
    let mut out = ServePhase::default();
    let dur = |t: Instant| t.elapsed().as_secs_f64() * 1e9;
    for (n, &i) in order.iter().enumerate() {
        let s = pool[i];
        let line = crate::serve::request_line(&format!("t{n}"), &escaped[i]);
        let job = tracer.enter("job");
        let t = Instant::now();
        let request = tracer.span("serve.parse_request", || parse_request(&line));
        out.parse_request_ns.push(dur(t));
        let Ok(request) = request else {
            tracer.exit(job);
            fail(format!("request t{n} does not parse"));
            continue;
        };
        if let Request::Desync(j) = &request {
            let t = Instant::now();
            std::hint::black_box(
                tracer.span("netlist.hash", || content_hash128(j.verilog.as_bytes())),
            );
            out.hash_ns.push(dur(t));
        }
        let exec = tracer.enter("serve.execute");
        let t = Instant::now();
        let response = server.execute(&request, Instant::now());
        let exec_ns = dur(t);
        tracer.exit(exec);
        let cached = response.contains("\"cached\":true");
        tracer.tag(exec, if cached { "hit" } else { "miss" });
        if cached {
            &mut out.hit_ns
        } else {
            &mut out.miss_ns
        }
        .push(exec_ns);
        out.response_bytes.push(response.len() as f64);
        let t = Instant::now();
        let parsed = tracer.span("client.parse", || json::parse(&response));
        out.client_parse_ns.push(dur(t));
        tracer.exit(job);
        let field =
            |v: &json::Value, k: &str| v.get(k).and_then(json::Value::as_str).map(str::to_owned);
        let ok = parsed.as_ref().is_ok_and(|v| {
            field(v, "report").as_deref() == Some(s.files.report.as_str())
                && field(v, "sdc").as_deref() == Some(s.files.sdc.as_str())
                && field(v, "verilog").as_deref() == Some(s.files.verilog.as_str())
        });
        if !ok {
            fail(format!(
                "serve response t{n} differs from the in-process flow"
            ));
        }
        out.planned_hits += usize::from(sent[i]);
        sent[i] = true;
    }
    out
}

#[derive(Default)]
struct SimPhase {
    elaborate_ns: f64,
    nominal_ns: f64,
    serial_ns: f64,
    parallel_ns: f64,
    chips: f64,
    periods: Vec<f64>,
}

impl SimPhase {
    fn json(&self) -> String {
        Obj::default()
            .num("chips", self.chips)
            .num("sim.elaborate_ms", self.elaborate_ns / 1e6)
            .num("sim.nominal_ms", self.nominal_ns / 1e6)
            .num("sim.chip_us", self.serial_ns / self.chips / 1e3)
            .num("sim.mc_speedup", self.serial_ns / self.parallel_ns)
            .num("out.period_ns", geomean(&self.periods))
            .done()
    }
}

/// Phase C over every subject with a handshake-controlled region.
fn sim_phase(
    ctx: &Ctx,
    subjects: &[Subject],
    tracer: &Tracer,
    fail: &mut dyn FnMut(String),
) -> SimPhase {
    let chips = match (ctx.smoke, ctx.workload.as_str()) {
        (true, _) => 50,
        (false, "mc_variability") => crate::oneshot::MC_CHIPS,
        _ => SIM_CHIPS,
    };
    let var = GateVariability::new(inputs::rng(ctx.seed, 0x4D43).next_u64(), 0.15);
    let mut out = SimPhase::default();
    let dur = |t: Instant| t.elapsed().as_secs_f64() * 1e9;
    for s in subjects {
        let job = tracer.enter("job");
        let t = Instant::now();
        let net = tracer.span("sim.elaborate", || flow::handshake_net(&s.lib, &s.result));
        let elaborate = dur(t);
        let net = match net {
            Ok(Some(net)) => net,
            Ok(None) => {
                tracer.exit(job);
                continue;
            }
            Err(e) => {
                tracer.exit(job);
                fail(format!("{}: {e}", s.design.name));
                continue;
            }
        };
        out.elaborate_ns += elaborate;
        let t = Instant::now();
        let nominal = tracer.span("sim.nominal", || net.nominal_cycle_times());
        out.nominal_ns += dur(t);
        match nominal {
            Ok(c) => out
                .periods
                .push(c.iter().map(|c| c.cycle_ns).fold(0.0, f64::max)),
            Err(e) => fail(format!("{}: nominal: {e}", s.design.name)),
        }
        let campaign = |workers: usize, tag: &'static str| {
            let id = tracer.enter("sim.monte_carlo");
            tracer.tag(id, tag);
            let t = Instant::now();
            let samples = net.monte_carlo(&var, chips, workers);
            let ns = dur(t);
            tracer.exit(id);
            (samples.map_err(|e| e.to_string()), ns)
        };
        let (serial, serial_ns) = campaign(1, "serial");
        let (parallel, parallel_ns) = campaign(ctx.workers, "parallel");
        tracer.exit(job);
        out.serial_ns += serial_ns;
        out.parallel_ns += parallel_ns;
        out.chips += chips as f64;
        match (serial, parallel) {
            (Ok(a), Ok(b)) if a == b => {}
            (Ok(_), Ok(_)) => fail(format!(
                "{}: Monte Carlo differs across workers",
                s.design.name
            )),
            (Err(e), _) | (_, Err(e)) => fail(format!("{}: Monte Carlo: {e}", s.design.name)),
        }
    }
    out
}

/// The `serve_mix` request order: the hot set cold, then the 75/25
/// hit/miss mix over `fresh` never-seen designs.
fn request_order(ctx: &Ctx, hot: usize, fresh: usize) -> Vec<usize> {
    let mut rng = inputs::rng(ctx.seed, 0x7ACE);
    let mut order: Vec<usize> = (0..hot).collect();
    let mut next_fresh = 0;
    while next_fresh < fresh {
        if rng.chance(0.75) {
            order.push(rng.range(0, hot));
        } else {
            order.push(hot + next_fresh);
            next_fresh += 1;
        }
    }
    order
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let (hot, fresh) = subjects(ctx)?;
    // The designs the flow layers are measured on: the workload's own,
    // or on `serve_mix` the misses — the requests the server runs the
    // flow for.
    let flow_set: &[Subject] = if ctx.workload == "serve_mix" {
        &fresh[..fresh.len().min(64)]
    } else {
        &hot
    };
    let tracer = Rc::new(Tracer::new());
    let mut attempted = 0u64;
    let mut failures: Vec<String> = Vec::new();
    let mut fail = |e: String| {
        eprintln!("e2e: FAILED {e}");
        failures.push(e);
    };

    let t = Instant::now();
    let a = flow_phase(ctx, flow_set, &tracer, &mut fail);
    eprintln!(
        "e2e: flow jobs: {} rounds in {:.1} s",
        a.rounds,
        t.elapsed().as_secs_f64()
    );
    attempted += (a.rounds * flow_set.len() * 3) as u64;
    let serve = (ctx.workload == "serve_mix").then(|| {
        let pool: Vec<&Subject> = hot.iter().chain(&fresh).collect();
        let order = request_order(ctx, hot.len(), fresh.len());
        let t = Instant::now();
        let b = serve_phase(&pool, &order, &tracer, ctx.workers, &mut fail);
        eprintln!(
            "e2e: serve requests: {} in {:.1} s",
            order.len(),
            t.elapsed().as_secs_f64()
        );
        (order.len(), b)
    });
    attempted += serve.as_ref().map_or(0, |s| s.0 as u64);
    let sim = (ctx.workload != "serve_mix").then(|| {
        let t = Instant::now();
        let c = sim_phase(ctx, flow_set, &tracer, &mut fail);
        eprintln!(
            "e2e: simulation: {} chips in {:.1} s",
            c.chips,
            t.elapsed().as_secs_f64()
        );
        c
    });
    attempted += sim.as_ref().map_or(0, |_| flow_set.len() as u64);

    let med = |v: &[f64]| median(v);
    // Per round: the sum over designs of each design's median.
    let per = |f: &dyn Fn(usize) -> f64| (0..flow_set.len()).map(f).sum::<f64>();
    let layer_ms =
        |layer: &str| per(&|i| a.per_design[i].ns.get(layer).map_or(0.0, |v| med(v))) / 1e6;
    let count = |span: &str, key: &str| {
        per(&|i| {
            a.per_design[i]
                .counts
                .get(&(span, key))
                .copied()
                .unwrap_or(0.0)
        })
    };
    let flow_ms: f64 = PASS_SPANS.iter().map(|p| layer_ms(p)).sum();
    let bytes = per(&|i| flow_set[i].design.verilog.len() as f64);
    let mut values: BTreeMap<String, f64> = BTreeMap::new();
    for layer in JOB_LAYERS {
        values.insert(format!("{layer}.ms"), layer_ms(layer));
    }
    for pass in PASS_SPANS {
        values.insert(format!("{pass}.share"), layer_ms(pass) / flow_ms);
    }
    for pass in ["core.ffsub", "core.control-network", "core.liveness"] {
        values.insert(format!("{pass}.cells_delta"), count(pass, "cells_delta"));
    }
    values.insert(
        "netlist.parse.mb_per_s".into(),
        bytes / 1e6 / (layer_ms("netlist.parse") / 1e3),
    );
    values.insert(
        "core.region-delays.region_max_ms".into(),
        per(&|i| med(&a.per_design[i].region_max_ns)) / 1e6,
    );
    values.insert(
        "core.liveness.repairs".into(),
        count("core.liveness", "repairs"),
    );
    let mut area = 0.0;
    for s in flow_set {
        match flow::output_area(&s.lib, &s.result) {
            Ok(v) => area += v,
            Err(e) => fail(e),
        }
    }
    values.insert("out.area_um2".into(), area);
    values.insert(
        "cli.overhead_ms".into(),
        per(&|i| med(&a.cli_ns[i]) - med(&a.untraced_ns[i])) / 1e6,
    );
    values.insert(
        "trace.overhead".into(),
        per(&|i| med(&a.traced_ns[i])) / per(&|i| med(&a.untraced_ns[i])) - 1.0,
    );

    let metrics = LAYER_METRICS
        .iter()
        .map(|&(name, unit)| Metric {
            name,
            value: values.get(name).copied().unwrap_or(f64::NAN),
            unit,
        })
        .collect();

    // Per-design medians and growth exponents go to the detail file.
    let sizes: Vec<f64> = flow_set.iter().map(|s| s.design.cells as f64).collect();
    let designs = flow_set.iter().enumerate().map(|(i, s)| {
        let mut o = Obj::default()
            .str("design", &s.design.name)
            .raw("cells", s.design.cells);
        for layer in JOB_LAYERS {
            let v = a.per_design[i]
                .ns
                .get(layer)
                .map_or(f64::NAN, |v| med(v) / 1e6);
            o = o.num(&format!("{layer}.ms"), v);
        }
        let flow: f64 = PASS_SPANS
            .iter()
            .map(|p| a.per_design[i].ns.get(p).map_or(0.0, |v| med(v)))
            .sum();
        let ffsub = a.per_design[i].ns.get("core.ffsub").map_or(0.0, |v| med(v));
        o.num("core.ffsub.share", ffsub / flow).done()
    });
    let mut exponents = Obj::default();
    for layer in JOB_LAYERS {
        let pts: Vec<(f64, f64)> = (0..flow_set.len())
            .map(|i| {
                (
                    sizes[i],
                    a.per_design[i].ns.get(layer).map_or(0.0, |v| med(v)),
                )
            })
            .collect();
        exponents = exponents.num(
            &format!("{layer}.exp"),
            growth_exponent(&pts).unwrap_or(f64::NAN),
        );
    }
    let path = out_dir()?.join(format!("trace_{}.json", ctx.workload));
    std::fs::write(&path, tracer.to_json(&ctx.workload))
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    eprintln!("e2e: wrote {}", path.display());
    let detail = Obj::default()
        .raw("seed", ctx.seed)
        .raw("rounds", a.rounds)
        .raw(
            "serve",
            serve
                .as_ref()
                .map_or("null".to_owned(), |(n, b)| b.json(*n)),
        )
        .raw(
            "sim",
            sim.as_ref().map_or("null".to_owned(), SimPhase::json),
        )
        .raw("designs", array(designs))
        .raw("exponents", exponents.done())
        .str("trace_file", &path.display().to_string())
        .str("first_failure", failures.first().map_or("", String::as_str))
        .done();
    Ok(Outcome {
        attempted,
        failed: failures.len() as u64,
        metrics,
        detail,
    })
}
