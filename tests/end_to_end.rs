//! Cross-crate integration tests: the full desynchronization flow from
//! Verilog text in to Verilog/SDC out, with flow-equivalence checking.

use drdesync::core::{DesyncOptions, Desynchronizer};
use drdesync::liberty::{vlib90, Lv};
use drdesync::netlist::Design;
use drdesync::sim::{compare_capture_logs, SimOptions, Simulator};

/// The full loop: generate → write Verilog → parse it back → desynchronize
/// the parsed netlist → simulate both → flow equivalence.
#[test]
fn verilog_roundtrip_then_desynchronize_sample() {
    let lib = vlib90::high_speed();
    let module = drdesync::designs::sample::figure_2_2().unwrap();

    // Round-trip through the textual format, as the real flow would.
    let mut d = Design::new();
    d.insert(module.clone());
    let text = drdesync::netlist::verilog::write_design(&d);
    let parsed = drdesync::netlist::verilog::parse_module(&text).unwrap();

    let tool = Desynchronizer::new(&lib).unwrap();
    let result = tool.run(parsed, &DesyncOptions::default()).0.unwrap();
    assert!(result.report.substituted_ffs >= 20);
    assert!(result.sdc.contains("create_clock"));

    // Reference run.
    let mut sync = Design::new();
    sync.insert(module);
    let mut reference = Simulator::new(&sync, &lib, SimOptions::default()).unwrap();
    for i in 0..drdesync::designs::sample::WIDTH {
        reference
            .poke(&format!("din[{i}]"), Lv::from_bool(i % 2 == 1))
            .unwrap();
    }
    reference.schedule_clock("clk", 2.0, 1.0, 12).unwrap();
    reference.run_for(30.0);

    // Desynchronized run.
    let mut dut = Simulator::new(&result.design, &lib, SimOptions::default()).unwrap();
    for i in 0..drdesync::designs::sample::WIDTH {
        dut.poke(&format!("din[{i}]"), Lv::from_bool(i % 2 == 1))
            .unwrap();
    }
    dut.poke("drd_rst", Lv::Zero).unwrap();
    dut.run_for(2.0);
    dut.poke("drd_rst", Lv::One).unwrap();
    dut.run_for(120.0);

    let check = compare_capture_logs(reference.captures(), dut.captures(), |n| format!("{n}_ls"));
    assert!(check.is_equivalent(), "{check:?}");
}

/// Flow equivalence holds for the (small) DLX pipeline with register-file
/// feedback, and under intra-die variation.
#[test]
fn dlx_flow_equivalence_with_variation() {
    let lib = vlib90::high_speed();
    let params = drdesync::designs::dlx::DlxParams::small();
    let module = drdesync::designs::dlx::build(&params).unwrap();

    let mut sync = Design::new();
    sync.insert(module.clone());
    let mut reference = Simulator::new(&sync, &lib, SimOptions::default()).unwrap();
    reference.poke("irq", Lv::Zero).unwrap();
    reference.schedule_clock("clk", 3.0, 1.5, 16).unwrap();
    reference.run_for(55.0);
    assert_eq!(reference.captures().capture_count("pc_r0"), 16);

    let tool = Desynchronizer::new(&lib).unwrap();
    // "Delay elements must include margins to cope with uncorrelated
    // variability" (§2.5): widen the margin to cover the intra-die sigma
    // used below.
    let desync_opts = DesyncOptions {
        delay_margin: 1.30,
        ..DesyncOptions::default()
    };
    let result = tool.run(module, &desync_opts).0.unwrap();
    // Simulate with per-instance delay variation: the self-timed circuit
    // must still be flow-equivalent (the delay elements carry margin).
    let opts = SimOptions::default().with_variation(0.04, 1234);
    let mut dut = Simulator::new(&result.design, &lib, opts).unwrap();
    dut.poke("irq", Lv::Zero).unwrap();
    dut.poke("drd_rst", Lv::Zero).unwrap();
    dut.run_for(3.0);
    dut.poke("drd_rst", Lv::One).unwrap();
    dut.run_for(220.0);
    assert!(dut.captures().capture_count("pc_r0_ls") >= 8);

    let check = compare_capture_logs(reference.captures(), dut.captures(), |n| format!("{n}_ls"));
    assert!(check.is_equivalent(), "{check:?}");
}

/// The desynchronized netlist is fully standard: it exports to Verilog
/// and BLIF, re-parses, and re-simulates identically.
#[test]
fn desynchronized_netlist_is_portable() {
    let lib = vlib90::high_speed();
    let module = drdesync::designs::sample::figure_2_2().unwrap();
    let tool = Desynchronizer::new(&lib).unwrap();
    let result = tool.run(module, &DesyncOptions::default()).0.unwrap();

    let text = drdesync::netlist::verilog::write_design(&result.design);
    let reparsed = drdesync::netlist::verilog::parse_design(&text).unwrap();
    // Same cell population after a round trip.
    let flat_a = drdesync::netlist::flatten(&result.design, result.design.top()).unwrap();
    let flat_b = drdesync::netlist::flatten(&reparsed, reparsed.top()).unwrap();
    assert_eq!(flat_a.cell_count(), flat_b.cell_count());

    let blif = drdesync::netlist::blif::write_blif(&flat_a);
    assert!(blif.contains(".model"));
    assert!(blif.contains(".gate LDX1"));

    // The re-parsed design still runs.
    let mut sim = Simulator::new(&reparsed, &lib, SimOptions::default()).unwrap();
    for i in 0..drdesync::designs::sample::WIDTH {
        sim.poke(&format!("din[{i}]"), Lv::Zero).unwrap();
    }
    sim.poke("drd_rst", Lv::Zero).unwrap();
    sim.run_for(2.0);
    sim.poke("drd_rst", Lv::One).unwrap();
    sim.run_for(60.0);
    assert!(sim.captures().capture_count("g1_r0_ls") >= 4);
}

/// Scan-inserted designs desynchronize too: scan flip-flops become
/// mux+latch-pair structures (Fig. 3.1a) and the circuit still runs.
#[test]
fn scan_design_desynchronizes() {
    let lib = vlib90::low_leakage();
    let mut module = drdesync::designs::dlx::build(&drdesync::designs::dlx::DlxParams {
        width: 8,
        regs_log2: 3,
        rom_log2: 4,
        ram_log2: 3,
        seed: 7,
    })
    .unwrap();
    let scan = drdesync::flow::insert_scan(&mut module, &lib).unwrap();
    assert!(scan.converted > 100);

    let mut opts = DesyncOptions::default();
    opts.grouping.single_group = true;
    opts.grouping.false_path_nets.push("scan_en".into());
    let tool = Desynchronizer::new(&lib).unwrap();
    let result = tool.run(module, &opts).0.unwrap();
    assert_eq!(result.report.regions.len(), 1);
    // Scan muxes were synthesized around the latch pairs.
    let flat = drdesync::netlist::flatten(&result.design, result.design.top()).unwrap();
    let muxes = flat
        .cells()
        .filter(|(_, c)| c.name.ends_with("_smx"))
        .count();
    assert_eq!(muxes, scan.converted);
}

/// Ablation: lowering every C-element to the majority-gate standard-cell
/// form (for C-element-less target libraries) preserves behaviour — the
/// decomposed desynchronized circuit is still flow-equivalent.
#[test]
fn celement_decomposition_preserves_flow_equivalence() {
    let lib = vlib90::high_speed();
    let module = drdesync::designs::sample::figure_2_2().unwrap();
    let tool = Desynchronizer::new(&lib).unwrap();
    let result = tool
        .run(module.clone(), &DesyncOptions::default())
        .0
        .unwrap();
    let mut flat = drdesync::netlist::flatten(&result.design, result.design.top()).unwrap();
    let n = drdesync::core::celement::decompose_celements(&mut flat, &lib).unwrap();
    assert!(n > 10, "decomposed {n} C-elements");

    // Reference.
    let mut sync = Design::new();
    sync.insert(module);
    let mut reference = Simulator::new(&sync, &lib, SimOptions::default()).unwrap();
    for i in 0..drdesync::designs::sample::WIDTH {
        reference.poke(&format!("din[{i}]"), Lv::One).unwrap();
    }
    reference.schedule_clock("clk", 2.0, 1.0, 10).unwrap();
    reference.run_for(26.0);

    let mut dut = Simulator::from_flat(&flat, &lib, SimOptions::default()).unwrap();
    for i in 0..drdesync::designs::sample::WIDTH {
        dut.poke(&format!("din[{i}]"), Lv::One).unwrap();
    }
    dut.poke("drd_rst", Lv::Zero).unwrap();
    dut.run_for(2.0);
    dut.poke("drd_rst", Lv::One).unwrap();
    dut.run_for(120.0);
    let check = compare_capture_logs(reference.captures(), dut.captures(), |n| format!("{n}_ls"));
    assert!(check.is_equivalent(), "{check:?}");
}

/// The ARM-like scan design (§5.3 configuration: Low-Leakage library,
/// single group) is flow-equivalent after desynchronization, with the
/// scan path held in functional mode.
#[test]
fn armlike_single_group_flow_equivalence() {
    let lib = vlib90::low_leakage();
    let params = drdesync::designs::armlike::ArmParams::small();
    let mut module = drdesync::designs::armlike::build(&params).unwrap();
    drdesync::flow::insert_scan(&mut module, &lib).unwrap();

    let mut sync = Design::new();
    sync.insert(module.clone());
    let mut reference = Simulator::new(&sync, &lib, SimOptions::default()).unwrap();
    for p in ["irq", "scan_in", "scan_en"] {
        reference.poke(p, Lv::Zero).unwrap();
    }
    reference.schedule_clock("clk", 6.0, 3.0, 10).unwrap();
    reference.run_for(70.0);

    let mut opts = DesyncOptions::default();
    opts.grouping.single_group = true;
    opts.grouping.false_path_nets.push("scan_en".into());
    let tool = Desynchronizer::new(&lib).unwrap();
    let result = tool.run(module, &opts).0.unwrap();
    let mut dut = Simulator::new(&result.design, &lib, SimOptions::default()).unwrap();
    for p in ["irq", "scan_in", "scan_en"] {
        dut.poke(p, Lv::Zero).unwrap();
    }
    dut.poke("drd_rst", Lv::Zero).unwrap();
    dut.run_for(5.0);
    dut.poke("drd_rst", Lv::One).unwrap();
    dut.run_for(400.0);
    assert!(dut.captures().capture_count("pc_r0_ls") >= 5);

    let check = compare_capture_logs(reference.captures(), dut.captures(), |n| format!("{n}_ls"));
    assert!(check.is_equivalent(), "{check:?}");
}

/// The Fig. 5.3 property in miniature: with 8-tap multiplexed delay
/// elements, the effective period falls monotonically with the selection
/// while staying flow-equivalent at and above the matched tap. (On this
/// small design every tap stays correct — the fixed control slack covers
/// the tiny clouds; the full failure-point experiment is the `fig_5_3`
/// bench binary, which asserts the too-short region starts at the same
/// selection in both corners.)
#[test]
fn muxed_delay_selection_gates_correctness() {
    let lib = vlib90::high_speed();
    let module =
        drdesync::designs::dlx::build(&drdesync::designs::dlx::DlxParams::small()).unwrap();

    let mut sync = Design::new();
    sync.insert(module.clone());
    let mut reference = Simulator::new(&sync, &lib, SimOptions::default()).unwrap();
    reference.poke("irq", Lv::Zero).unwrap();
    reference.schedule_clock("clk", 3.0, 1.5, 16).unwrap();
    reference.run_for(55.0);

    let opts = DesyncOptions {
        muxed_delay_elements: true,
        ..DesyncOptions::default()
    };
    let tool = Desynchronizer::new(&lib).unwrap();
    let result = tool.run(module, &opts).0.unwrap();

    let watch_net = {
        let r = result
            .report
            .regions
            .iter()
            .filter(|r| r.ffs > 0)
            .max_by_key(|r| r.ffs)
            .unwrap();
        format!("drd_{}_gs", r.name)
    };
    let run_at = |selection: u8| {
        let mut dut = Simulator::new(&result.design, &lib, SimOptions::default()).unwrap();
        dut.poke("irq", Lv::Zero).unwrap();
        dut.watch(&watch_net).unwrap();
        for b in 0..3 {
            dut.poke(
                &format!("dsel[{b}]"),
                Lv::from_bool((selection >> b) & 1 == 1),
            )
            .unwrap();
        }
        dut.poke("drd_rst", Lv::Zero).unwrap();
        dut.run_for(3.0);
        dut.poke("drd_rst", Lv::One).unwrap();
        dut.run_for(250.0);
        let edges = dut.rising_edges(&watch_net);
        let period = (edges[edges.len() - 1] - edges[2]) / (edges.len() - 3) as f64;
        (
            compare_capture_logs(reference.captures(), dut.captures(), |n| format!("{n}_ls")),
            period,
        )
    };

    let (fe2, p2) = run_at(2);
    let (fe7, p7) = run_at(7);
    let (_, p0) = run_at(0);
    assert!(fe2.is_equivalent(), "matched selection: {fe2:?}");
    assert!(fe7.is_equivalent(), "longest selection: {fe7:?}");
    assert!(
        p0 < p2 && p2 < p7,
        "period falls monotonically with selection: {p0:.3} < {p2:.3} < {p7:.3}"
    );
}
