//! Cross-crate property-based tests (drd-check harness): structural
//! invariants of the tool over randomly generated pipelines.

use drd_check::{prop, Rng};

use drdesync::core::region::{group, GroupingOptions};
use drdesync::core::{DesyncOptions, Desynchronizer};
use drdesync::liberty::vlib90;
use drdesync::netlist::{Conn, Module, PortDir};

/// Generates a random multi-stage pipeline: `stages` clouds of width
/// `width`, randomly wired cloud-to-register connections.
fn pipeline(stages: usize, width: usize, taps: &[u8]) -> Module {
    let mut m = Module::new("p");
    m.add_port("clk", PortDir::Input).unwrap();
    m.add_port("din", PortDir::Input).unwrap();
    let clk = m.find_net("clk").unwrap();
    let mut prev: Vec<_> = (0..width)
        .map(|i| {
            let din = m.find_net("din").unwrap();
            let q = m.add_net(format!("q0_{i}")).unwrap();
            m.add_cell(
                format!("r0_{i}"),
                "DFFX1",
                &[
                    ("D", Conn::Net(din)),
                    ("CK", Conn::Net(clk)),
                    ("Q", Conn::Net(q)),
                ],
            )
            .unwrap();
            q
        })
        .collect();
    for s in 1..=stages {
        let mut next = Vec::with_capacity(width);
        for i in 0..width {
            let tap = usize::from(taps[(s * width + i) % taps.len()]) % width;
            let z = m.add_net(format!("c{s}_{i}")).unwrap();
            m.add_cell(
                format!("g{s}_{i}"),
                "NAND2X1",
                &[
                    ("A", Conn::Net(prev[i])),
                    ("B", Conn::Net(prev[tap])),
                    ("Z", Conn::Net(z)),
                ],
            )
            .unwrap();
            let q = m.add_net(format!("q{s}_{i}")).unwrap();
            m.add_cell(
                format!("r{s}_{i}"),
                "DFFX1",
                &[
                    ("D", Conn::Net(z)),
                    ("CK", Conn::Net(clk)),
                    ("Q", Conn::Net(q)),
                ],
            )
            .unwrap();
            next.push(q);
        }
        prev = next;
    }
    m
}

type PipelineInput = (usize, usize, Vec<u8>);

fn pipeline_strategy(max_stages: usize, max_width: usize) -> impl Fn(&mut Rng) -> PipelineInput {
    move |rng| {
        let stages = rng.range(1, max_stages);
        let width = rng.range(1, max_width);
        let taps = (0..32).map(|_| rng.range(0, 8) as u8).collect();
        (stages, width, taps)
    }
}

/// Every cell lands in exactly one region, and regions partition the
/// netlist.
#[test]
fn grouping_partitions_all_cells() {
    let lib = vlib90::high_speed();
    prop(16, pipeline_strategy(4, 5), |(stages, width, taps)| {
        let m = pipeline(*stages, *width, taps);
        let regions = group(
            &m,
            &lib,
            &GroupingOptions::recommended(),
            &m.connectivity(&lib),
        )
        .map_err(|e| format!("grouping: {e}"))?;
        let mut seen = std::collections::HashSet::new();
        for r in &regions.regions {
            for &c in &r.cells {
                if !seen.insert(c) {
                    return Err(format!("cell {c} in two regions"));
                }
            }
        }
        if seen.len() != m.cell_count() {
            return Err(format!(
                "{} grouped of {} cells",
                seen.len(),
                m.cell_count()
            ));
        }
        Ok(())
    });
}

/// Desynchronization conserves the datapath: every original combinational
/// gate survives, every flip-flop becomes exactly one master and one
/// slave latch, and the exported Verilog re-parses.
#[test]
fn desynchronization_structural_invariants() {
    let lib = vlib90::high_speed();
    prop(16, pipeline_strategy(3, 4), |(stages, width, taps)| {
        let m = pipeline(*stages, *width, taps);
        let ff_count = m.cells().filter(|(_, c)| c.kind_name() == "DFFX1").count();
        let tool = Desynchronizer::new(&lib).map_err(|e| e.to_string())?;
        let result = tool
            .run(m, &DesyncOptions::default())
            .0
            .map_err(|e| e.to_string())?;
        if result.report.substituted_ffs != ff_count {
            return Err(format!(
                "substituted {} of {ff_count} ffs",
                result.report.substituted_ffs
            ));
        }

        let flat = drdesync::netlist::flatten(&result.design, result.design.top())
            .map_err(|e| e.to_string())?;
        let masters = flat
            .cells()
            .filter(|(_, c)| c.name.ends_with("_lm"))
            .count();
        let slaves = flat
            .cells()
            .filter(|(_, c)| c.name.ends_with("_ls"))
            .count();
        if masters != ff_count || slaves != ff_count {
            return Err(format!(
                "{masters} masters / {slaves} slaves for {ff_count} ffs"
            ));
        }
        // No flip-flops remain.
        let dffs = flat
            .cells()
            .filter(|(_, c)| c.kind_name().starts_with("DFF"))
            .count();
        if dffs != 0 {
            return Err(format!("{dffs} flip-flops remain"));
        }
        // The export re-parses.
        let text = drdesync::netlist::verilog::write_design(&result.design);
        drdesync::netlist::verilog::parse_design(&text)
            .map(|_| ())
            .map_err(|e| format!("export does not re-parse: {e}"))
    });
}

/// The SDC always covers every controller instance with loop-breaking
/// disables and size_only protection.
#[test]
fn sdc_covers_all_controllers() {
    let lib = vlib90::high_speed();
    prop(16, pipeline_strategy(3, 4), |(stages, width, taps)| {
        let m = pipeline(*stages, *width, taps);
        let tool = Desynchronizer::new(&lib).map_err(|e| e.to_string())?;
        let result = tool
            .run(m, &DesyncOptions::default())
            .0
            .map_err(|e| e.to_string())?;
        let flat = drdesync::netlist::flatten(&result.design, result.design.top())
            .map_err(|e| e.to_string())?;
        for (_, cell) in flat.cells() {
            if let Some(inst) = cell.name.strip_suffix("/u_a") {
                let disable = format!("{inst}/u_nro/A");
                let size_only = format!("set_size_only [get_cells {{{inst}/*}}]");
                if !result.sdc.contains(&disable) {
                    return Err(format!("controller {inst} missing from SDC"));
                }
                if !result.sdc.contains(&size_only) {
                    return Err(format!("controller {inst} missing size_only"));
                }
            }
        }
        Ok(())
    });
}
