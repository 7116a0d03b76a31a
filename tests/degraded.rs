//! Graceful per-region degradation: flows with a deliberately
//! unsupported flip-flop flavour complete with the affected region left
//! synchronous, report exactly that region, and stay flow-equivalent on
//! every region whose fan-in contains no degraded region.
//!
//! Golden snapshots live under `tests/golden/`; re-record with
//! `DRD_BLESS=1 cargo test -q --test degraded`.

use std::collections::HashSet;
use std::path::PathBuf;

use drd_check::golden::{assert_golden, render_desync_report};
use drd_serve::json;
use drdesync::core::{DegradeReason, DesyncOptions, Desynchronizer, FlowContext, Pipeline};
use drdesync::liberty::{vlib90, Lv};
use drdesync::netlist::{CellId, Conn, Design, Module};
use drdesync::sim::{SimOptions, Simulator};

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

/// Two-region netlist: region A (`r0`, DFFX1) feeds region B (`r1`,
/// DFFRX1 with its reset tied off). Dropping DFFRX1's substitution rule
/// degrades exactly region B; region A has no degraded fan-in.
fn mixed_module() -> Module {
    drdesync::netlist::verilog::parse_module(
        "module mix (clk, out0, out1);
           input clk; output out0; output out1;
           wire d0; wire d1;
           INVX1 inv0 (.A(out0), .Z(d0));
           DFFX1 r0 (.D(d0), .CK(clk), .Q(out0));
           INVX1 inv1 (.A(out0), .Z(d1));
           DFFRX1 r1 (.D(d1), .RN(1'b1), .CK(clk), .Q(out1));
         endmodule",
    )
    .expect("fixture parses")
}

/// Region names transitively reachable from `from` along `edges`
/// (including `from` itself): behaviour downstream of a degraded region
/// crosses an unconstrained clock-domain boundary, so only regions
/// outside this set keep the flow-equivalence guarantee.
fn downstream_closure(from: &str, edges: &[(String, String)]) -> HashSet<String> {
    let mut seen: HashSet<String> = HashSet::from([from.to_owned()]);
    loop {
        let before = seen.len();
        for (a, b) in edges {
            if seen.contains(a) {
                seen.insert(b.clone());
            }
        }
        if seen.len() == before {
            return seen;
        }
    }
}

/// The golden fixture of the satellite: one unsupported flip-flop
/// flavour, exactly one `Degradation` entry in the report and the trace,
/// and the still-desynchronized region passes the flow-equivalence
/// oracle.
#[test]
fn golden_mixed_degraded_report_trace_and_flow_equivalence() {
    let lib = vlib90::high_speed();
    let module = mixed_module();
    let tool = Desynchronizer::new(&lib).expect("tool builds");
    let mut gatefile = tool.gatefile().clone();
    gatefile.rules.retain(|r| r.ff != "DFFRX1");

    let mut cx = FlowContext::new(&lib, &gatefile, module.clone(), DesyncOptions::default());
    Pipeline::standard()
        .run(&mut cx)
        .expect("degraded flow completes");
    let trace = cx.trace().to_json_deterministic();
    let result = cx.into_result().expect("result materializes");
    let rep = &result.report;

    assert_eq!(rep.degradations.len(), 1, "{:?}", rep.degradations);
    let d = &rep.degradations[0];
    assert_eq!(d.cells, vec!["r1".to_owned()]);
    assert!(
        matches!(&d.reason, DegradeReason::UnsupportedFf { kind } if kind == "DFFRX1"),
        "{:?}",
        d.reason
    );

    let report = render_desync_report(rep);
    assert_golden(golden_dir().join("mixed_degraded_report.txt"), &report);
    assert_golden(golden_dir().join("mixed_degraded_flow_trace.json"), &trace);

    // The Degradation schema tools consume: one entry with a string
    // region, a string reason and the cells as an array of strings.
    let trace = json::parse(&trace).expect("trace parses");
    let entries = trace
        .get("degradations")
        .and_then(json::Value::as_arr)
        .expect("trace lists degradations");
    assert_eq!(entries.len(), 1, "{entries:?}");
    let entry = &entries[0];
    for key in ["region", "reason"] {
        assert!(
            entry.get(key).and_then(json::Value::as_str).is_some(),
            "{key}: {entry:?}"
        );
    }
    let cells = entry
        .get("cells")
        .and_then(json::Value::as_arr)
        .expect("cells is an array");
    assert!(cells.iter().all(|c| c.as_str().is_some()), "{cells:?}");
    assert!(report.lines().any(|l| l == "degradations (1):"), "{report}");
    assert!(report.contains("left synchronous"), "{report}");

    // Region A is upstream of the degraded region, so its capture
    // sequence must still match the synchronous reference.
    let mut sync = Design::new();
    sync.insert(module);
    let mut reference = Simulator::new(&sync, &lib, SimOptions::default()).unwrap();
    reference.schedule_clock("clk", 2.0, 1.0, 20).unwrap();
    reference.run_for(45.0);
    assert_eq!(reference.captures().capture_count("r0"), 20);

    let mut dut = Simulator::new(&result.design, &lib, SimOptions::default()).unwrap();
    // The degraded flip-flop still needs its clock; the handshake side
    // free-runs after reset.
    dut.schedule_clock("clk", 2.0, 1.0, 20).unwrap();
    dut.poke("drd_rst", Lv::Zero).unwrap();
    dut.run_for(2.0);
    dut.poke("drd_rst", Lv::One).unwrap();
    dut.run_for(200.0);
    assert!(dut.captures().capture_count("r1") > 0, "degraded FF still clocks");

    let ref_seq = reference.captures().sequence("r0").unwrap();
    let dut_seq = dut.captures().sequence("r0_ls").expect("r0 was desynchronized");
    let n = ref_seq.len().min(dut_seq.len());
    assert!(n >= 10, "common prefix long enough: {n}");
    assert_eq!(ref_seq[..n], dut_seq[..n], "region A stays flow-equivalent");
}

/// §acceptance: a partially-degraded DLX-small flow lists each skipped
/// region in the report and passes flow-equivalence on every region with
/// no degraded fan-in.
#[test]
fn partially_degraded_dlx_small_is_flow_equivalent_elsewhere() {
    let lib = vlib90::high_speed();
    let mut module = drdesync::designs::dlx::build(&drdesync::designs::dlx::DlxParams::small())
        .expect("dlx builds");

    // Region membership of the unmodified design (grouping runs before
    // substitution, so the degraded flow sees the same regions).
    let mut cleaned = module.clone();
    drdesync::core::region::clean_for_grouping(&mut cleaned, &lib);
    let regions = drdesync::core::region::group(
        &cleaned,
        &lib,
        &drdesync::core::region::GroupingOptions::recommended(),
    )
    .expect("grouping works");
    let name_of = |id: CellId| cleaned.cell(id).name.to_owned();
    // Degrade the isolated input-register region (the irq synchronizer):
    // rewrite its single flip-flop to the flavour whose rule we drop.
    let victim = regions
        .regions
        .iter()
        .find(|r| r.is_input_region)
        .expect("dlx has an input-register region");
    assert_eq!(victim.seq_cells.len(), 1, "{:?}", victim.seq_cells);
    let ff_name = name_of(victim.seq_cells[0]);
    let id = module.find_cell(&ff_name).expect("victim FF exists");
    let cell = module.cell(id);
    let mut pins: Vec<(String, Conn)> = (0..cell.pins().len())
        .map(|i| (cell.pin_name(i).to_owned(), cell.pins()[i].1))
        .collect();
    pins.push(("RN".to_owned(), Conn::Const1));
    module.remove_cell(id);
    let pin_refs: Vec<(&str, Conn)> = pins.iter().map(|(p, c)| (p.as_str(), *c)).collect();
    module
        .add_cell(ff_name.clone(), "DFFRX1", &pin_refs)
        .expect("replacement FF added");

    let tool = Desynchronizer::new(&lib).expect("tool builds");
    let mut gatefile = tool.gatefile().clone();
    gatefile.rules.retain(|r| r.ff != "DFFRX1");
    let mut cx = FlowContext::new(&lib, &gatefile, module.clone(), DesyncOptions::default());
    Pipeline::standard()
        .run(&mut cx)
        .expect("degraded flow completes");
    let result = cx.into_result().expect("result materializes");
    let rep = &result.report;

    // The report lists each skipped region — here exactly the victim.
    assert_eq!(rep.degradations.len(), 1, "{:?}", rep.degradations);
    assert_eq!(rep.degradations[0].region, victim.name);
    assert_eq!(rep.degradations[0].cells, vec![ff_name.clone()]);

    // Every region outside the degraded region's downstream closure
    // keeps the flow-equivalence guarantee.
    let excluded = downstream_closure(&victim.name, &rep.ddg_edges);
    assert_eq!(
        excluded.len(),
        1,
        "the input region is isolated in the DDG: {excluded:?}"
    );
    let checked_ffs: HashSet<String> = regions
        .regions
        .iter()
        .filter(|r| !excluded.contains(&r.name))
        .flat_map(|r| r.seq_cells.iter().map(|&c| name_of(c)))
        .collect();

    let mut sync = Design::new();
    sync.insert(module);
    let mut reference = Simulator::new(&sync, &lib, SimOptions::default()).unwrap();
    reference.poke("irq", Lv::Zero).unwrap();
    reference.schedule_clock("clk", 3.0, 1.5, 16).unwrap();
    reference.run_for(55.0);
    assert_eq!(reference.captures().capture_count("pc_r0"), 16);

    let mut dut = Simulator::new(&result.design, &lib, SimOptions::default()).unwrap();
    dut.poke("irq", Lv::Zero).unwrap();
    dut.schedule_clock("clk", 3.0, 1.5, 16).unwrap();
    dut.poke("drd_rst", Lv::Zero).unwrap();
    dut.run_for(3.0);
    dut.poke("drd_rst", Lv::One).unwrap();
    dut.run_for(220.0);
    assert!(dut.captures().capture_count("pc_r0_ls") >= 8);
    assert!(
        dut.captures().capture_count(&ff_name) > 0,
        "degraded `{ff_name}` still clocks synchronously"
    );

    let names: Vec<String> = reference.captures().elements().map(str::to_owned).collect();
    let mut compared = 0usize;
    for name in names {
        if !checked_ffs.contains(&name) {
            continue;
        }
        let ref_seq = reference.captures().sequence(&name).unwrap();
        let dut_seq = dut
            .captures()
            .sequence(&format!("{name}_ls"))
            .unwrap_or_else(|| panic!("`{name}` was not desynchronized"));
        let n = ref_seq.len().min(dut_seq.len());
        assert_eq!(ref_seq[..n], dut_seq[..n], "FF `{name}` diverges");
        compared += 1;
    }
    assert!(compared >= 100, "checked {compared} flip-flops");
}
