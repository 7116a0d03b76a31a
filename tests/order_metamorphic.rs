//! Order-metamorphic checks: Verilog may list a module's cells in any
//! order, so listing them in another order must not change what the flow
//! ships. Each design is a default netgen draw, run once as written and
//! once with its instance lines shuffled.
//!
//! What must not change, per design and for both orders:
//! - every net a cell reads has a driver in the shipped top module (a
//!   cell output, an input port or a constant);
//! - the regions, as a multiset of (cells, flip-flops, delay-element
//!   levels);
//! - the report's counts.
//!
//! Critical delays are not compared bit for bit: static timing sums in
//! cell order, so a shuffled design may differ by one ulp.

use drd_check::netgen::{NetGenParams, NetRecipe};
use drd_check::Rng;
use drdesync::core::{DesyncOptions, DesyncResult, Desynchronizer};
use drdesync::liberty::{vlib90, Library};
use drdesync::netlist::{verilog, Endpoint};

/// Seeds whose shuffled order lists a buffer chain or an inverter pair
/// downstream-first. A clean pass that moves each load only one step along
/// such a chain leaves it on a net whose driver it removed, and for 2559
/// and 2941 the cut also changes the region partition.
const CUT_WIRE_SEEDS: [u64; 9] = [136, 326, 1149, 1336, 1359, 1439, 1695, 2559, 2941];

/// The netgen draw of `seed`, as written and with its instance lines
/// Fisher–Yates-shuffled by the same generator, from the last line down.
fn both_orders(seed: u64) -> (String, String) {
    let mut rng = Rng::new(0xC311_0DE4 ^ seed);
    let text = NetRecipe::sample(&mut rng, &NetGenParams::default()).verilog();
    let mut lines: Vec<&str> = text.lines().collect();
    let is_instance = |line: &str| {
        let line = line.trim_start();
        !line.is_empty()
            && !["module", "endmodule", "input", "output", "wire", "assign"]
                .iter()
                .any(|k| line.starts_with(k))
    };
    let slots: Vec<usize> = (0..lines.len())
        .filter(|&i| is_instance(lines[i]))
        .collect();
    let mut order: Vec<&str> = slots.iter().map(|&i| lines[i]).collect();
    for k in (1..order.len()).rev() {
        let j = (rng.next_u64() % (k as u64 + 1)) as usize;
        order.swap(k, j);
    }
    for (&slot, line) in slots.iter().zip(order) {
        lines[slot] = line;
    }
    let shuffled = lines.join("\n") + "\n";
    (text, shuffled)
}

/// Nets a live cell of the shipped top module reads that nothing drives.
fn undriven(result: &DesyncResult, lib: &Library) -> Vec<String> {
    let m = result.design.top_module();
    let conn = m.connectivity(&result.design.pin_dirs(lib)).unwrap();
    m.nets()
        .filter(|&(id, _)| {
            conn.driver(id).is_none()
                && !m.const_ties().iter().any(|&(n, _)| n == id)
                && conn.loads(id).iter().any(|l| matches!(l, Endpoint::Pin(_)))
        })
        .map(|(_, net)| net.name.to_owned())
        .collect()
}

/// The regions as a sorted multiset of (cells, flip-flops, levels).
fn regions(result: &DesyncResult) -> Vec<(usize, usize, usize)> {
    let mut rows: Vec<_> = (result.report.regions.iter())
        .map(|r| (r.cells, r.ffs, r.delem_levels))
        .collect();
    rows.sort_unstable();
    rows
}

/// The report's counts.
fn counts(result: &DesyncResult) -> [usize; 8] {
    let r = &result.report;
    [
        r.regions.len(),
        r.ddg_edges.len(),
        r.substituted_ffs,
        r.extra_gates,
        r.controllers,
        r.celements,
        r.cleaned_cells,
        r.liveness_repairs.len() + r.degradations.len(),
    ]
}

/// Every difference between the two orders of `seed`, one line each.
fn violations(seed: u64, lib: &Library) -> Vec<String> {
    let tool = Desynchronizer::new(lib).unwrap();
    let (source, shuffled) = both_orders(seed);
    let run = |text: &str| {
        let module = verilog::parse_module(text).unwrap();
        tool.run(module, &DesyncOptions::default()).0.unwrap()
    };
    let (a, b) = (run(&source), run(&shuffled));
    let mut found = Vec::new();
    for (order, result) in [("source", &a), ("shuffled", &b)] {
        let nets = undriven(result, lib);
        if !nets.is_empty() {
            found.push(format!(
                "seed {seed}: {order} order ships undriven {nets:?}"
            ));
        }
    }
    if regions(&a) != regions(&b) {
        found.push(format!(
            "seed {seed}: regions {:?} vs {:?}",
            regions(&a),
            regions(&b)
        ));
    }
    if counts(&a) != counts(&b) {
        found.push(format!(
            "seed {seed}: counts {:?} vs {:?}",
            counts(&a),
            counts(&b)
        ));
    }
    found
}

#[test]
fn cut_wire_seeds_ship_the_same_result_in_any_cell_order() {
    let lib = vlib90::high_speed();
    let found: Vec<String> = CUT_WIRE_SEEDS
        .iter()
        .flat_map(|&s| violations(s, &lib))
        .collect();
    assert!(found.is_empty(), "{}", found.join("\n"));
}

#[test]
fn forty_eight_draws_ship_the_same_result_in_any_cell_order() {
    let lib = vlib90::high_speed();
    let found: Vec<String> = (3000..3048).flat_map(|s| violations(s, &lib)).collect();
    assert!(found.is_empty(), "{}", found.join("\n"));
}
