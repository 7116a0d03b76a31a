//! Design-for-testability: scan insertion (§4.3).
//!
//! "After synthesis, there is the DFT phase where all the sequential
//! elements are substituted by scan ones connected in a scan chain, for
//! making the circuit observable." The scan variant of each flip-flop is
//! found by *feature matching* against the library's gatefile: a scan
//! cell is one whose recognized features equal the original cell's plus a
//! scan mux.

use drd_liberty::gatefile::Gatefile;
use drd_liberty::Library;
use drd_netlist::{Conn, KindRef, Module, PortDir};

use drd_core::DesyncError;

/// Report from scan insertion.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ScanReport {
    /// Flip-flops converted to scan flip-flops.
    pub converted: usize,
    /// Length of the stitched chain.
    pub chain_length: usize,
    /// The chain order (instance names).
    pub chain: Vec<String>,
}

/// Finds the scan variant of `base` in the library via gatefile features.
fn scan_variant<'l>(lib: &'l Library, gatefile: &Gatefile, base: &str) -> Option<&'l str> {
    let base_rule = gatefile.rule(base)?;
    if base_rule.features.scan.is_some() {
        return Some(lib.cell(base)?.name.as_str()); // already scan
    }
    for rule in &gatefile.rules {
        let f = &rule.features;
        if f.scan.is_some()
            && f.sync_reset == base_rule.features.sync_reset
            && f.sync_set == base_rule.features.sync_set
            && f.async_clear == base_rule.features.async_clear
            && f.async_preset == base_rule.features.async_preset
            && f.clock_enable == base_rule.features.clock_enable
        {
            return Some(lib.cell(&rule.ff)?.name.as_str());
        }
    }
    None
}

/// Converts every flip-flop to its scan variant and stitches the chain.
///
/// Adds ports `scan_in`, `scan_en` and `scan_out`. Flip-flops with no
/// scan variant in the library are left unconverted (and excluded from
/// the chain), mirroring practice for uncontrollable cells.
///
/// # Errors
/// Propagates netlist errors.
pub fn insert_scan(module: &mut Module, lib: &Library) -> Result<ScanReport, DesyncError> {
    let gatefile = Gatefile::from_library(lib)?;
    let mut report = ScanReport::default();

    let scan_in = {
        let p = module.add_port("scan_in", PortDir::Input)?;
        module.port(p).net
    };
    let scan_en = {
        let p = module.add_port("scan_en", PortDir::Input)?;
        module.port(p).net
    };
    let scan_out_port = {
        let p = module.add_port("scan_out", PortDir::Output)?;
        module.port(p).net
    };

    let targets: Vec<(String, String, String)> = module
        .cells()
        .filter_map(|(_, cell)| {
            let KindRef::Lib(kind) = cell.kind_ref() else {
                return None;
            };
            let lc = lib.cell(kind)?;
            if lc.class() != drd_liberty::CellClass::FlipFlop {
                return None;
            }
            let variant = scan_variant(lib, &gatefile, kind)?;
            if variant == kind {
                return None;
            }
            Some((cell.name.to_owned(), kind.to_owned(), variant.to_owned()))
        })
        .collect();

    let mut prev_q = scan_in;
    for (name, _old_kind, new_kind) in &targets {
        let id = module.find_cell(name).expect("listed above");
        let old = module.cell(id);
        let scan_rule = gatefile.rule(new_kind).expect("scan variant has a rule");
        let scan = scan_rule.features.scan.as_ref().expect("scan pins");
        // Rebuild the cell with the scan kind and the extra pins.
        let mut pins: Vec<(String, Conn)> = (0..old.pins().len())
            .map(|i| (old.pin_name(i).to_owned(), old.pins()[i].1))
            .collect();
        let q_pin = scan_rule.q_pin.clone();
        let q_conn = old.pin(&q_pin);
        module.remove_cell(id);
        pins.push((scan.scan_in.clone(), Conn::Net(prev_q)));
        pins.push((scan.scan_enable.clone(), Conn::Net(scan_en)));
        // The chain reads this cell's Q; create one if unconnected.
        let q_net = match q_conn {
            Some(Conn::Net(n)) => n,
            _ => {
                let n = module.add_net_auto(&format!("{name}__scanq"));
                pins.push((q_pin.clone(), Conn::Net(n)));
                n
            }
        };
        let pin_refs: Vec<(&str, Conn)> = pins.iter().map(|(p, c)| (p.as_str(), *c)).collect();
        let kind = module.lib_kind(new_kind);
        module.add_cell_of_kind(name.clone(), kind, &pin_refs)?;
        prev_q = q_net;
        report.converted += 1;
        report.chain.push(name.clone());
    }
    report.chain_length = report.converted;
    // Close the chain on the scan-out port.
    let cname = module.unique_cell_name("u_scan_out");
    module.add_cell(
        cname,
        "BUFX1",
        &[("A", Conn::Net(prev_q)), ("Z", Conn::Net(scan_out_port))],
    )?;
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use drd_liberty::{vlib90, Lv};
    use drd_netlist::Design;
    use drd_sim::{SimOptions, Simulator};

    fn shift_register(n: usize) -> Module {
        let mut m = Module::new("sr");
        m.add_port("clk", PortDir::Input).unwrap();
        m.add_port("d", PortDir::Input).unwrap();
        let clk = m.find_net("clk").unwrap();
        let mut prev = m.find_net("d").unwrap();
        for i in 0..n {
            let q = m.add_net(format!("q{i}")).unwrap();
            m.add_cell(
                format!("r{i}"),
                "DFFX1",
                &[
                    ("D", Conn::Net(prev)),
                    ("CK", Conn::Net(clk)),
                    ("Q", Conn::Net(q)),
                ],
            )
            .unwrap();
            prev = q;
        }
        m
    }

    #[test]
    fn converts_and_stitches() {
        let lib = vlib90::high_speed();
        let mut m = shift_register(4);
        let report = insert_scan(&mut m, &lib).unwrap();
        assert_eq!(report.converted, 4);
        assert_eq!(report.chain_length, 4);
        // All flip-flops are now scan cells.
        for (_, cell) in m.cells() {
            if cell.name.starts_with('r') {
                assert_eq!(cell.kind_name(), "SDFFX1", "{}", cell.name);
            }
        }
        assert!(m.find_port("scan_in").is_some());
        assert!(m.find_port("scan_out").is_some());
    }

    /// The fabricated-chip test pattern: shift a pattern in through the
    /// chain and observe it at scan_out `n` cycles later.
    #[test]
    fn scan_chain_shifts_patterns() {
        let lib = vlib90::high_speed();
        let mut m = shift_register(4);
        insert_scan(&mut m, &lib).unwrap();
        let mut design = Design::new();
        design.insert(m);
        let mut sim = Simulator::new(&design, &lib, SimOptions::default()).unwrap();
        sim.poke("clk", Lv::Zero).unwrap();
        sim.poke("d", Lv::Zero).unwrap();
        sim.poke("scan_en", Lv::One).unwrap();
        let pattern = [Lv::One, Lv::Zero, Lv::One, Lv::One];
        let mut observed = Vec::new();
        for cycle in 0..8 {
            let bit = pattern.get(cycle).copied().unwrap_or(Lv::Zero);
            sim.poke("scan_in", bit).unwrap();
            sim.run_for(2.0);
            sim.poke("clk", Lv::One).unwrap();
            sim.run_for(2.0);
            sim.poke("clk", Lv::Zero).unwrap();
            sim.run_for(2.0);
            observed.push(sim.peek("scan_out").unwrap());
        }
        // The pattern emerges after 4 shift cycles.
        assert_eq!(&observed[3..7], &pattern[..], "observed: {observed:?}");
    }

    #[test]
    fn scan_variant_matching() {
        let lib = vlib90::high_speed();
        let gf = Gatefile::from_library(&lib).unwrap();
        assert_eq!(scan_variant(&lib, &gf, "DFFX1"), Some("SDFFX1"));
        assert_eq!(scan_variant(&lib, &gf, "DFFRX1"), Some("SDFFRX1"));
        assert_eq!(scan_variant(&lib, &gf, "SDFFX1"), Some("SDFFX1"));
        // No scan variant exists for the async-set flavour in vlib90.
        assert_eq!(scan_variant(&lib, &gf, "DFFASX1"), None);
    }
}
