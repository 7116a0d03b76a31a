//! Workspace-level tests of the instrumented pass pipeline: deterministic
//! pass order, split pipelines (`--stop-after` partial artifacts, head
//! then tail equal to one run), delta bookkeeping, and a golden
//! `FlowTrace` snapshot of the small DLX flow.
//!
//! Re-record the snapshot after an intentional change with:
//!
//! ```bash
//! DRD_BLESS=1 cargo test -q --test pipeline
//! ```

use std::path::PathBuf;

use drd_check::golden::assert_golden;
use drdesync::core::pipeline::{CleanPass, ClockIdPass, DdgPass, GroupPass, RegionDelaysPass};
use drdesync::core::region::{self, Regions};
use drdesync::core::{
    ddg, region_delays, DesyncError, DesyncOptions, Desynchronizer, FlowContext, Pass, PassReport,
    Pipeline,
};
use drdesync::flow::experiment::CaseStudy;
use drdesync::netlist::verilog::{parse_design, parse_module, write_design};
use drdesync::netlist::{CellId, Conn, Endpoint, Module, PortDir};

const STAGES: [&str; 9] = [
    "clean",
    "clock-id",
    "group",
    "ddg",
    "region-delays",
    "ffsub",
    "control-network",
    "liveness",
    "sdc",
];

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

#[test]
fn standard_pipeline_order_is_deterministic() {
    assert_eq!(Pipeline::standard().pass_names(), STAGES);
    assert_eq!(
        Pipeline::standard().pass_names(),
        Pipeline::standard().pass_names()
    );
}

#[test]
fn stop_after_halts_with_partial_artifacts() {
    let case = CaseStudy::dlx(&drdesync::designs::dlx::DlxParams::small()).expect("case builds");
    let tool = Desynchronizer::new(&case.lib).expect("tool builds");
    let mut cx = FlowContext::new(
        &case.lib,
        tool.gatefile(),
        case.module.clone(),
        case.desync.clone(),
    );
    let (head, tail) = Pipeline::standard()
        .split_after("region-delays")
        .expect("standard pass");
    assert_eq!(head.pass_names(), STAGES[..5]);
    assert_eq!(tail.pass_names(), STAGES[5..]);
    head.run(&mut cx).expect("prefix runs");
    let trace = cx.trace();
    assert_eq!(trace.passes.len(), 5);
    assert_eq!(trace.passes.last().unwrap().name, "region-delays");
    // Artifacts up to the stop point exist; later ones do not.
    assert!(cx.clock_net().is_some());
    assert!(cx.regions().is_some());
    assert!(cx.ddg().is_some());
    assert!(cx.region_delays().is_some());
    assert!(cx.network().is_none());
    assert!(cx.sdc().is_none());
    // The checkpoint netlist is still parseable synchronous Verilog.
    let v = cx.netlist_verilog();
    parse_design(&v).expect("checkpoint parses");
    assert!(!v.contains("drd_ctrl_master"));
    // A partial context cannot be finalized.
    match cx.into_result() {
        Err(DesyncError::Pipeline { .. }) => {}
        other => panic!("expected pipeline error, got {:?}", other.map(|_| ())),
    }
}

#[test]
fn pass_deltas_sum_to_final_netlist_stats() {
    let case = CaseStudy::dlx(&drdesync::designs::dlx::DlxParams::small()).expect("case builds");
    let tool = Desynchronizer::new(&case.lib).expect("tool builds");
    let mut cx = FlowContext::new(
        &case.lib,
        tool.gatefile(),
        case.module.clone(),
        case.desync.clone(),
    );
    Pipeline::standard().run(&mut cx).expect("flow runs");
    let trace = cx.trace();
    assert_eq!(trace.passes.len(), STAGES.len());

    let first = trace.passes.first().unwrap();
    let last = trace.passes.last().unwrap();
    assert_eq!(first.cells_before, case.module.cell_count());
    assert_eq!(first.nets_before, case.module.net_count());
    let (cells, nets) = cx.netlist_stats();
    assert_eq!(last.cells_after, cells);
    assert_eq!(last.nets_after, nets);
    assert_eq!(
        trace.cell_delta_sum(),
        cells as i64 - case.module.cell_count() as i64
    );
    assert_eq!(
        trace.net_delta_sum(),
        nets as i64 - case.module.net_count() as i64
    );
    // Deltas chain: each pass starts where the previous one ended.
    for w in trace.passes.windows(2) {
        assert_eq!(w[0].cells_after, w[1].cells_before);
        assert_eq!(w[0].nets_after, w[1].nets_before);
    }

    // The finalized result matches the context's last observed stats.
    let result = cx.into_result().expect("result assembles");
    let top = result.design.module(result.design.top());
    assert_eq!(top.cell_count(), cells);
    assert_eq!(top.net_count(), nets);
}

#[test]
fn golden_dlx_small_flow_trace() {
    let case = CaseStudy::dlx(&drdesync::designs::dlx::DlxParams::small()).expect("case builds");
    let tool = Desynchronizer::new(&case.lib).expect("tool builds");
    let (result, trace) = tool.run(case.module.clone(), &case.desync);
    result.expect("flow runs");
    assert_golden(
        golden_dir().join("dlx_small_flow_trace.json"),
        &trace.to_json_deterministic(),
    );
}

#[test]
fn trace_json_lists_every_stage_with_timings() {
    let case = CaseStudy::dlx(&drdesync::designs::dlx::DlxParams::small()).expect("case builds");
    let tool = Desynchronizer::new(&case.lib).expect("tool builds");
    let (result, trace) = tool.run(case.module.clone(), &case.desync);
    result.expect("flow runs");
    let json = trace.to_json();
    for stage in STAGES {
        assert!(json.contains(&format!("\"name\": \"{stage}\"")), "{json}");
    }
    assert!(json.contains("wall_ns"));
    assert!(json.contains("total_wall_ns"));
    assert_eq!(json.matches('{').count(), json.matches('}').count());
    assert_eq!(json.matches('[').count(), json.matches(']').count());
}

/// The artifacts of a finished flow: the deterministic trace JSON, the
/// SDC, the report and the Verilog.
fn artifacts(cx: FlowContext<'_>) -> [String; 4] {
    let trace = cx.trace().to_json_deterministic();
    let result = cx.into_result().expect("result assembles");
    [
        trace,
        result.sdc,
        format!("{:?}", result.report),
        write_design(&result.design),
    ]
}

/// `--stop-after` and `--dump-after` are pipeline shapes: split after
/// any pass, running the head and then the tail over one context is one
/// full run — the trace accumulates on the context — and the context at
/// the split checkpoints as parseable Verilog. Covers the small DLX and
/// a flow whose `ffsub` degrades a region (the degradation section then
/// spans the split).
#[test]
fn split_after_each_pass_matches_one_full_run() {
    let case = CaseStudy::dlx(&drdesync::designs::dlx::DlxParams::small()).expect("case builds");
    let tool = Desynchronizer::new(&case.lib).expect("tool builds");
    let mut no_dffr = tool.gatefile().clone();
    no_dffr.rules.retain(|r| r.ff != "DFFRX1");
    let mixed = parse_module(
        "module mix (clk, out0, out1);
           input clk; output out0; output out1;
           wire d0; wire d1;
           INVX1 inv0 (.A(out0), .Z(d0));
           DFFX1 r0 (.D(d0), .CK(clk), .Q(out0));
           INVX1 inv1 (.A(out0), .Z(d1));
           DFFRX1 r1 (.D(d1), .RN(1'b1), .CK(clk), .Q(out1));
         endmodule",
    )
    .expect("fixture parses");
    for (label, module, gatefile) in [
        ("dlx_small", &case.module, tool.gatefile()),
        ("mixed_degraded", &mixed, &no_dffr),
    ] {
        let fresh = || FlowContext::new(&case.lib, gatefile, module.clone(), case.desync.clone());
        let mut whole = fresh();
        Pipeline::standard().run(&mut whole).expect("flow runs");
        let reference = artifacts(whole);
        for pass in STAGES {
            let (head, tail) = Pipeline::standard()
                .split_after(pass)
                .expect("standard pass");
            let mut cx = fresh();
            head.run(&mut cx).expect("head runs");
            assert_eq!(cx.trace().passes.last().map(|p| p.name), Some(pass));
            parse_design(&cx.netlist_verilog())
                .unwrap_or_else(|e| panic!("{label}: checkpoint after `{pass}`: {e}"));
            tail.run(&mut cx).expect("tail runs");
            let split = artifacts(cx);
            for (what, (a, b)) in ["trace", "sdc", "report", "verilog"]
                .iter()
                .zip(split.iter().zip(&reference))
            {
                assert!(a == b, "{label}: split after `{pass}` changed the {what}");
            }
        }
    }
}

/// A two-cell module whose second cell instantiates a kind absent from
/// the library: `clean` and `clock-id` succeed, `group` must reject it.
fn module_with_unknown_cell() -> Module {
    let mut m = Module::new("broken");
    m.add_port("clk", PortDir::Input).unwrap();
    m.add_port("d", PortDir::Input).unwrap();
    let clk = m.find_net("clk").unwrap();
    let d = m.find_net("d").unwrap();
    let x = m.add_net("x").unwrap();
    let q = m.add_net("q").unwrap();
    m.add_cell(
        "u_bogus",
        "BOGUSX1",
        &[("A", Conn::Net(d)), ("Z", Conn::Net(x))],
    )
    .unwrap();
    m.add_cell(
        "r0",
        "DFFX1",
        &[
            ("D", Conn::Net(x)),
            ("CK", Conn::Net(clk)),
            ("Q", Conn::Net(q)),
        ],
    )
    .unwrap();
    m
}

/// A pass failing mid-run leaves a `FlowTrace` holding exactly the passes
/// that completed, records the failure, and leaves the context usable —
/// not torn — so callers can still inspect the checkpoint netlist.
#[test]
fn failing_pass_records_partial_trace_and_keeps_context_inspectable() {
    let case = CaseStudy::dlx(&drdesync::designs::dlx::DlxParams::small()).expect("case builds");
    let tool = Desynchronizer::new(&case.lib).expect("tool builds");
    let mut cx = FlowContext::new(
        &case.lib,
        tool.gatefile(),
        module_with_unknown_cell(),
        DesyncOptions::default(),
    );
    let err = Pipeline::standard()
        .run(&mut cx)
        .expect_err("group rejects BOGUSX1");
    let trace = cx.trace();

    // Exactly the completed prefix, in order.
    let names: Vec<&str> = trace.passes.iter().map(|p| p.name).collect();
    assert_eq!(names, ["clean", "clock-id"]);
    let e = trace.error.as_ref().expect("failure recorded");
    assert_eq!(e.pass, "group");
    assert!(e.message.contains("BOGUSX1"), "{}", e.message);
    match err {
        DesyncError::UnknownCell { name } => assert_eq!(name, "BOGUSX1"),
        other => panic!("expected UnknownCell, got {other:?}"),
    }

    // The context holds the last successful pass's artifacts and nothing
    // past the failure point.
    assert!(cx.clock_net().is_some());
    assert!(cx.regions().is_none());
    assert!(cx.network().is_none());
    // The checkpoint netlist is intact, parseable synchronous Verilog.
    let v = cx.netlist_verilog();
    parse_design(&v).expect("checkpoint parses");
    assert!(v.contains("BOGUSX1"));
    // And the partial context still refuses to finalize.
    assert!(matches!(
        cx.into_result(),
        Err(DesyncError::Pipeline { .. })
    ));
}

/// The failure also shows up in the trace's JSON renderings under an
/// `error` key (both timed and deterministic forms), keeping machine
/// consumers of `FlowTrace` aware of aborted runs.
#[test]
fn failing_trace_json_carries_the_error_record() {
    let case = CaseStudy::dlx(&drdesync::designs::dlx::DlxParams::small()).expect("case builds");
    let tool = Desynchronizer::new(&case.lib).expect("tool builds");
    let mut cx = FlowContext::new(
        &case.lib,
        tool.gatefile(),
        module_with_unknown_cell(),
        DesyncOptions::default(),
    );
    Pipeline::standard()
        .run(&mut cx)
        .expect_err("group rejects BOGUSX1");
    let trace = cx.trace();
    for json in [trace.to_json(), trace.to_json_deterministic()] {
        assert!(json.contains("\"error\""), "{json}");
        assert!(json.contains("\"pass\": \"group\""), "{json}");
        assert!(json.contains("BOGUSX1"), "{json}");
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }
    // A successful run must NOT carry the key.
    let mut ok = FlowContext::new(
        &case.lib,
        tool.gatefile(),
        case.module.clone(),
        case.desync.clone(),
    );
    Pipeline::standard().run(&mut ok).expect("clean flow runs");
    assert!(!ok.trace().to_json().contains("\"error\""));
}

/// The one-call entry returns the failure and, with it, the trace of the
/// passes that completed and the failing pass.
#[test]
fn wrapper_apis_propagate_the_pass_failure() {
    let case = CaseStudy::dlx(&drdesync::designs::dlx::DlxParams::small()).expect("case builds");
    let tool = Desynchronizer::new(&case.lib).expect("tool builds");
    let (res, trace) = tool.run(module_with_unknown_cell(), &DesyncOptions::default());
    assert!(matches!(res, Err(DesyncError::UnknownCell { .. })));
    let names: Vec<&str> = trace.passes.iter().map(|p| p.name).collect();
    assert_eq!(names, ["clean", "clock-id"]);
    assert_eq!(trace.error.as_ref().map(|e| e.pass), Some("group"));
}

/// Two pipelines side by side, `in_a → r_a → u_a → r_a2` and
/// `in_b → r_b → u_b → r_b2`, clocked by `clk`: two regions with a cloud
/// each.
fn two_pipelines() -> Module {
    let mut m = Module::new("two");
    for port in ["clk", "in_a", "in_b"] {
        m.add_port(port, PortDir::Input).unwrap();
    }
    let clk = m.find_net("clk").unwrap();
    for s in ["a", "b"] {
        let input = m.find_net(&format!("in_{s}")).unwrap();
        let q = m.add_net(format!("q_{s}")).unwrap();
        let x = m.add_net(format!("x_{s}")).unwrap();
        let out = m.add_port(format!("out_{s}"), PortDir::Output).unwrap();
        let out = m.port(out).net;
        let dff = |m: &mut Module, name: String, d, q| {
            m.add_cell(
                name,
                "DFFX1",
                &[
                    ("D", Conn::Net(d)),
                    ("CK", Conn::Net(clk)),
                    ("Q", Conn::Net(q)),
                ],
            )
            .unwrap();
        };
        dff(&mut m, format!("r_{s}"), input, q);
        m.add_cell(
            format!("u_{s}"),
            "INVX1",
            &[("A", Conn::Net(q)), ("Z", Conn::Net(x))],
        )
        .unwrap();
        dff(&mut m, format!("r_{s}2"), x, out);
    }
    m
}

/// A custom pass that points `u_b`'s input at `u_a`'s output, joining
/// the two clouds into one region.
struct RewireUb;

impl Pass for RewireUb {
    fn name(&self) -> &'static str {
        "rewire"
    }

    fn run(&self, cx: &mut FlowContext<'_>) -> Result<PassReport, DesyncError> {
        let m = cx.working_module_mut()?;
        let (u_b, x_a) = (m.find_cell("u_b").unwrap(), m.find_net("x_a").unwrap());
        m.set_pin(u_b, "A", Conn::Net(x_a));
        Ok(PassReport::new(Vec::new(), "u_b reads u_a".into()))
    }
}

/// Each region as `(name, cells, sequential cells)`, comparable.
fn region_rows(regions: &Regions) -> Vec<(String, Vec<CellId>, Vec<CellId>)> {
    regions
        .regions
        .iter()
        .map(|r| (r.name.clone(), r.cells.clone(), r.seq_cells.clone()))
        .collect()
}

/// A pass that changes the module through `working_module_mut()` between
/// `clean` and `group` drops the connectivity snapshot `clean` handed
/// over: the regions, the DDG and the region delays equal those computed
/// from a fresh build of the changed module, and differ from what the
/// stale snapshot would give.
#[test]
fn a_custom_pass_drops_the_connectivity_snapshot() {
    let case = CaseStudy::dlx(&drdesync::designs::dlx::DlxParams::small()).expect("case builds");
    let lib = &case.lib;
    let tool = Desynchronizer::new(lib).expect("tool builds");
    let opts = DesyncOptions::default();
    let mut cx = FlowContext::new(lib, tool.gatefile(), two_pipelines(), opts.clone());
    let mut pipe = Pipeline::empty();
    pipe.push(Box::new(CleanPass))
        .push(Box::new(RewireUb))
        .push(Box::new(ClockIdPass))
        .push(Box::new(GroupPass))
        .push(Box::new(DdgPass))
        .push(Box::new(RegionDelaysPass));
    pipe.run(&mut cx)
        .expect("the flow runs through region-delays");

    let mut grouping = opts.grouping.clone();
    grouping
        .false_path_nets
        .push(cx.clock_net().unwrap().to_owned());
    let (regions, ddg) = (cx.regions().unwrap().clone(), cx.ddg().unwrap().clone());
    let delays = cx.region_delays().unwrap().to_vec();
    let changed = cx.working_module_mut().unwrap().clone();

    let fresh = changed.connectivity(lib);
    let want = region::group(&changed, lib, &grouping, &fresh).unwrap();
    assert_eq!(region_rows(&regions), region_rows(&want));
    let want_ddg = ddg::build(&changed, lib, &want, &fresh).unwrap();
    assert_eq!(ddg.edges, want_ddg.edges);
    let want_delays = region_delays(&changed, lib, &want, fresh).unwrap();
    let bits = |d: &[f64]| d.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&delays), bits(&want_delays));

    // The snapshot of the module as `clean` left it groups the changed
    // module otherwise: the test sees a snapshot that outlived the change.
    let (_, stale) = region::clean_for_grouping(&mut two_pipelines(), lib);
    let stale = region::group(&changed, lib, &grouping, &stale).unwrap();
    assert_ne!(region_rows(&stale), region_rows(&want));
    let cloud_regions = want.regions.iter().filter(|r| !r.is_input_region).count();
    assert_eq!(cloud_regions, 1, "u_a and u_b share a region");
}

/// A custom pass that drives `net` a second time.
struct DoubleDrive(&'static str);

impl Pass for DoubleDrive {
    fn name(&self) -> &'static str {
        "double-drive"
    }

    fn run(&self, cx: &mut FlowContext<'_>) -> Result<PassReport, DesyncError> {
        let m = cx.working_module_mut()?;
        let net = m.find_net(self.0).unwrap();
        m.add_cell(
            "u_extra",
            "INVX1",
            &[("A", Conn::Const0), ("Z", Conn::Net(net))],
        )?;
        Ok(PassReport::new(Vec::new(), "second driver".into()))
    }
}

/// The pass named `failing` and the error of a flow that finds no
/// connectivity snapshot at `group`, `ddg` or `region-delays` (clean off,
/// or a custom pass that changed the module): each builds one and fails
/// where and as it did when it built its own.
#[test]
fn a_pass_without_a_snapshot_fails_as_when_it_built_its_own() {
    let case = CaseStudy::dlx(&drdesync::designs::dlx::DlxParams::small()).expect("case builds");
    let tool = Desynchronizer::new(&case.lib).expect("tool builds");
    let run = |module: Module, opts: &DesyncOptions, extra: Option<(&str, Box<dyn Pass>)>| {
        let mut cx = FlowContext::new(&case.lib, tool.gatefile(), module, opts.clone());
        let mut pipe = Pipeline::empty();
        let passes: [(&str, Box<dyn Pass>); 5] = [
            ("clean", Box::new(CleanPass)),
            ("clock-id", Box::new(ClockIdPass)),
            ("group", Box::new(GroupPass)),
            ("ddg", Box::new(DdgPass)),
            ("region-delays", Box::new(RegionDelaysPass)),
        ];
        let mut extra = extra;
        for (name, pass) in passes {
            pipe.push(pass);
            if extra.as_ref().is_some_and(|(after, _)| *after == name) {
                pipe.push(extra.take().unwrap().1);
            }
        }
        let err = pipe.run(&mut cx).expect_err("the flow fails");
        (cx.trace().error.as_ref().unwrap().pass, err)
    };
    let no_clean = DesyncOptions {
        clean_logic: false,
        ..DesyncOptions::default()
    };

    // An unknown cell: `group` names the cell before it reads the tables.
    let (pass, err) = run(module_with_unknown_cell(), &no_clean, None);
    assert_eq!(pass, "group");
    assert!(matches!(err, DesyncError::UnknownCell { ref name } if name == "BOGUSX1"));

    // A net driven twice after `group`: `ddg` reports the connectivity
    // error; after `ddg`, `region-delays` reports it as a timing error.
    let (pass, err) = run(
        two_pipelines(),
        &DesyncOptions::default(),
        Some(("group", Box::new(DoubleDrive("x_a")))),
    );
    assert_eq!(pass, "ddg");
    assert!(matches!(err, DesyncError::Netlist(_)), "{err:?}");
    assert!(err.to_string().contains("x_a"), "{err}");
    let (pass, err) = run(
        two_pipelines(),
        &DesyncOptions::default(),
        Some(("ddg", Box::new(DoubleDrive("x_a")))),
    );
    assert_eq!(pass, "region-delays");
    assert!(matches!(err, DesyncError::Sta(_)), "{err:?}");
    assert!(err.to_string().contains("x_a"), "{err}");
}

/// Control-network reads each enable net's loads from the cells ffsub
/// appended. On the four paper cores and the `scale` bench's five netgen
/// steps, those loads equal a fresh connectivity build's of the
/// post-ffsub module, in order, for every enable net.
#[test]
fn enable_loads_from_ffsub_cells_equal_a_fresh_connectivity_build() {
    use drdesync::designs::{armlike::ArmParams, dlx::DlxParams};
    let mut cases: Vec<(String, Module, drdesync::liberty::Library, DesyncOptions)> = Vec::new();
    for case in [
        CaseStudy::dlx(&DlxParams::small()),
        CaseStudy::dlx(&DlxParams::full()),
        CaseStudy::armlike(&ArmParams::small()),
        CaseStudy::armlike(&ArmParams::full()),
    ] {
        let case = case.expect("case builds");
        cases.push((case.name.clone(), case.module, case.lib, case.desync));
    }
    let mut rng = drd_check::Rng::new(0x5CA1_E0DD);
    for (stages, cloud, width) in [
        (4, 60, 4),
        (4, 120, 6),
        (6, 200, 8),
        (8, 320, 8),
        (12, 600, 16),
    ] {
        let recipe = drd_check::netgen::NetRecipe::stepped(&mut rng, stages, cloud, width);
        cases.push((
            format!("{stages}x{cloud}+{width}"),
            recipe.build().expect("recipe builds"),
            drdesync::liberty::vlib90::high_speed(),
            DesyncOptions::default(),
        ));
    }
    for (name, module, lib, opts) in cases {
        let tool = Desynchronizer::new(&lib).expect("tool builds");
        let mut cx = FlowContext::new(&lib, tool.gatefile(), module, opts);
        let (head, _) = Pipeline::standard().split_after("ffsub").unwrap();
        head.run(&mut cx).expect("the flow runs through ffsub");
        let substitution = cx.substitution().unwrap().clone();
        let m = cx.working_module_mut().unwrap();
        let (loads, conn) = (substitution.enable_loads(m), m.connectivity(&lib).unwrap());
        let mut nets = 0;
        for &(gm, gs) in substitution.enables.iter().flatten() {
            for net in [gm, gs] {
                let from_cells: Vec<Endpoint> =
                    loads.loads(net).iter().map(|&p| Endpoint::Pin(p)).collect();
                assert_eq!(from_cells, conn.loads(net), "{name}: {}", m.net(net).name);
                assert!(!from_cells.is_empty(), "{name}: {}", m.net(net).name);
                nets += 1;
            }
        }
        assert!(nets >= 2, "{name}: {nets} enable nets");
    }
}
