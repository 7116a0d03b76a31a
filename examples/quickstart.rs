//! Quickstart: desynchronize the paper's worked example (the Fig. 2.2
//! circuit) and verify flow equivalence against its synchronous self.
//!
//! Run with: `cargo run --example quickstart --release`

use drdesync::core::{DesyncOptions, Desynchronizer};
use drdesync::liberty::{vlib90, Lv};
use drdesync::netlist::Design;
use drdesync::sim::{compare_capture_logs, SimOptions, Simulator};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let lib = vlib90::high_speed();
    let module = drdesync::designs::sample::figure_2_2()?;
    println!(
        "input: `{}` with {} cells",
        module.name,
        module.cell_count()
    );

    // 1. Desynchronize. The module is cloned because step 2 simulates
    // the original; the trace comes back even when the flow fails.
    let tool = Desynchronizer::new(&lib)?;
    let (result, trace) = tool.run(module.clone(), &DesyncOptions::default());
    let result = result?;
    for pass in &trace.passes {
        println!("pass {:<15} {}", pass.name, pass.detail);
    }
    println!(
        "regions: {:?}",
        result
            .report
            .regions
            .iter()
            .map(|r| &r.name)
            .collect::<Vec<_>>()
    );
    println!(
        "data dependencies (Fig. 2.6): {:?}",
        result.report.ddg_edges
    );

    // 2. Synchronous reference simulation.
    let mut sync = Design::new();
    sync.insert(module);
    let mut reference = Simulator::new(&sync, &lib, SimOptions::default())?;
    for i in 0..drdesync::designs::sample::WIDTH {
        reference.poke(&format!("din[{i}]"), Lv::from_bool(i % 2 == 0))?;
    }
    reference.schedule_clock("clk", 2.0, 1.0, 16)?;
    reference.run_for(40.0);

    // 3. Desynchronized simulation: free-running after reset.
    let mut dut = Simulator::new(&result.design, &lib, SimOptions::default())?;
    for i in 0..drdesync::designs::sample::WIDTH {
        dut.poke(&format!("din[{i}]"), Lv::from_bool(i % 2 == 0))?;
    }
    dut.poke("drd_rst", Lv::Zero)?;
    dut.run_for(2.0);
    dut.poke("drd_rst", Lv::One)?;
    dut.run_for(120.0);

    // 4. Flow equivalence: every register's data sequence matches.
    let check = compare_capture_logs(reference.captures(), dut.captures(), |n| format!("{n}_ls"));
    println!("flow equivalence: {check:?}");
    assert!(check.is_equivalent());

    // 5. Export.
    let verilog = drdesync::netlist::verilog::write_design(&result.design);
    println!(
        "exported {} lines of Verilog and {} lines of SDC",
        verilog.lines().count(),
        result.sdc.lines().count()
    );
    Ok(())
}
