//! `vlib90` — a synthetic 90 nm-class standard-cell library.
//!
//! Stands in for the STMicroelectronics CORE9 90 nm library used by the
//! paper (see DESIGN.md's substitution table). Two variants are provided,
//! mirroring the paper's choices: **High-Speed** (used for the DLX case
//! study, §5.2) and **Low-Leakage** (used for the ARM case study, §5.3 —
//! ~1.6× slower, ~8× less leakage).
//!
//! Each variant is built straight from one cell table (in `build`),
//! with the precision a Liberty file states it in: areas and drive
//! resistances to 2 decimals, capacitances, setup/hold times and delays
//! to 4, leakage and switching energy to 5. `tests/golden/vlib90_hs.lib`
//! and `vlib90_ll.lib` hold both variants as Liberty source; a test
//! reads them with [`crate::parse_library`] and requires every cell to
//! equal the built one bit for bit, so the `.lib` ingestion path is
//! checked against this table. Each call builds its library afresh (653
//! allocations, ~20 µs warm): the tool's processes build one library
//! each, so no copy is cached. Key area ratios are calibrated to the
//! paper's observations:
//!
//! * master+slave latch pair ≈ 1.16 × DFF area (Table 5.1's +17.66 %
//!   sequential overhead comes mostly from this substitution),
//! * scan-mux + latch pair ≈ 1.41 × scan-DFF area (Table 5.2's +40.7 %).

use drd_netlist::PortDir;

use crate::cell::{FfInfo, LatchInfo, LibCell, Pin, SeqKind, TimingArc};
use crate::function::Expr;
use crate::Library;

/// The High-Speed variant (paper: "High-Speed version of the ST CORE9
/// 90nm library").
pub fn high_speed() -> Library {
    build("vlib90_hs", 1.0, 1.0)
}

/// The Low-Leakage variant (paper: ARM was implemented in the Low-Leakage
/// library).
pub fn low_leakage() -> Library {
    build("vlib90_ll", 1.6, 0.12)
}

/// The cell table: every delay scaled by `delay_scale`, every leakage by
/// `leak_scale`.
fn build(lib_name: &str, delay_scale: f64, leak_scale: f64) -> Library {
    let mut b = Builder {
        cells: Vec::with_capacity(CELLS),
        delay_scale,
        leak_scale,
    };

    // ---- combinational ----------------------------------------------------
    b.comb("INVX1", 2.08, 1.4, &["A"], "!A", 0.012);
    b.comb("INVX2", 2.60, 0.8, &["A"], "!A", 0.010);
    b.comb("BUFX1", 2.60, 1.3, &["A"], "A", 0.024);
    b.comb("BUFX2", 3.12, 0.7, &["A"], "A", 0.020);
    b.comb("NAND2X1", 2.60, 1.4, &["A", "B"], "!(A & B)", 0.016);
    b.comb(
        "NAND3X1",
        3.64,
        1.5,
        &["A", "B", "C"],
        "!(A & B & C)",
        0.022,
    );
    b.comb(
        "NAND4X1",
        4.68,
        1.6,
        &["A", "B", "C", "D"],
        "!(A & B & C & D)",
        0.028,
    );
    b.comb("NOR2X1", 2.60, 1.6, &["A", "B"], "!(A | B)", 0.020);
    b.comb("NOR3X1", 3.64, 1.8, &["A", "B", "C"], "!(A | B | C)", 0.028);
    b.comb("AND2X1", 3.12, 1.3, &["A", "B"], "A & B", 0.030);
    b.comb("AND3X1", 3.64, 1.3, &["A", "B", "C"], "A & B & C", 0.036);
    b.comb("OR2X1", 3.12, 1.4, &["A", "B"], "A | B", 0.033);
    b.comb("OR3X1", 3.64, 1.4, &["A", "B", "C"], "A | B | C", 0.040);
    b.comb("XOR2X1", 4.68, 1.5, &["A", "B"], "A ^ B", 0.045);
    b.comb("XNOR2X1", 4.68, 1.5, &["A", "B"], "!(A ^ B)", 0.046);
    b.comb(
        "AOI21X1",
        3.12,
        1.5,
        &["A1", "A2", "B"],
        "!((A1 & A2) | B)",
        0.026,
    );
    b.comb(
        "OAI21X1",
        3.12,
        1.5,
        &["A1", "A2", "B"],
        "!((A1 | A2) & B)",
        0.025,
    );
    b.comb(
        "AOI22X1",
        3.64,
        1.6,
        &["A1", "A2", "B1", "B2"],
        "!((A1 & A2) | (B1 & B2))",
        0.032,
    );
    b.comb(
        "OAI22X1",
        3.64,
        1.6,
        &["A1", "A2", "B1", "B2"],
        "!((A1 | A2) & (B1 | B2))",
        0.031,
    );
    b.comb(
        "MUX2X1",
        4.68,
        1.5,
        &["A", "B", "S"],
        "(A & !S) | (B & S)",
        0.042,
    );
    // Full/half adders (two outputs).
    b.multi_out(
        "ADDF",
        10.40,
        &["A", "B", "CI"],
        &[
            ("S", "A ^ B ^ CI", 0.085),
            ("CO", "(A & B) | (CI & (A ^ B))", 0.068),
        ],
    );
    b.multi_out(
        "ADDH",
        6.24,
        &["A", "B"],
        &[("S", "A ^ B", 0.048), ("CO", "A & B", 0.036)],
    );

    // ---- flip-flops --------------------------------------------------------
    b.ff("DFFX1", 14.10, "D", &["D"], None, None, 0.115);
    b.ff("DFFRX1", 15.60, "D & RN", &["D", "RN"], None, None, 0.118);
    b.ff("DFFSX1", 15.60, "D | S", &["D", "S"], None, None, 0.118);
    b.ff(
        "DFFARX1",
        15.60,
        "D",
        &["D"],
        Some(("CDN", "!CDN")),
        None,
        0.118,
    );
    b.ff(
        "DFFASX1",
        15.60,
        "D",
        &["D"],
        None,
        Some(("SDN", "!SDN")),
        0.118,
    );
    b.ff(
        "DFFEX1",
        16.60,
        "(D & EN) | (IQ & !EN)",
        &["D", "EN"],
        None,
        None,
        0.120,
    );
    b.ff(
        "SDFFX1",
        15.00,
        "(D & !SE) | (SI & SE)",
        &["D", "SI", "SE"],
        None,
        None,
        0.122,
    );
    b.ff(
        "SDFFRX1",
        16.40,
        "((D & !SE) | (SI & SE)) & RN",
        &["D", "SI", "SE", "RN"],
        None,
        None,
        0.125,
    );

    // ---- latches -----------------------------------------------------------
    // As in the paper's worked example (§3.1.2), the library deliberately
    // contains only the simplest possible latch.
    b.latch("LDX1", 8.20, 0.095, 0.075);

    // ---- C-Muller elements (§3.1.5) -----------------------------------------
    b.celement("C2X1", 5.20, &["A", "B"], None, None, 0.030);
    b.celement("C2RX1", 6.24, &["A", "B"], Some("RN"), None, 0.032);
    b.celement("C2SX1", 6.24, &["A", "B"], None, Some("SN"), 0.032);
    b.celement("C3RX1", 7.28, &["A", "B", "C"], Some("RN"), None, 0.038);

    debug_assert_eq!(b.cells.len(), CELLS);
    Library::from_cells(lib_name, b.cells).expect("vlib90 cell names are unique")
}

/// Cells in the table.
const CELLS: usize = 35;

/// `x` rounded to the decimal places `scale` selects (`1e2` for 2): the
/// value a Liberty file stating `x` to that many places reads back.
fn decimals(x: f64, scale: f64) -> f64 {
    (x * scale).round() / scale
}

fn function(text: &str) -> Expr {
    Expr::parse(text).expect("vlib90 functions parse")
}

fn input(name: &str, capacitance: f64) -> Pin {
    Pin {
        name: name.to_owned(),
        dir: PortDir::Input,
        function: None,
        capacitance: decimals(capacitance, 1e4),
        drive_resistance: 0.0,
    }
}

/// An output pin; a state output (of a flip-flop, latch or C-element)
/// has no `function`.
fn output(name: &str, function: Option<Expr>, drive_resistance: f64) -> Pin {
    Pin {
        name: name.to_owned(),
        dir: PortDir::Output,
        function,
        capacitance: 0.0,
        drive_resistance: decimals(drive_resistance, 1e2),
    }
}

struct Builder {
    cells: Vec<LibCell>,
    delay_scale: f64,
    leak_scale: f64,
}

impl Builder {
    /// A cell with its area and power; no pins, arcs or state yet.
    fn cell(&self, name: &str, area: f64, pins: usize, arcs: usize) -> LibCell {
        LibCell {
            name: name.to_owned(),
            area: decimals(area, 1e2),
            leakage: decimals(area * 0.012 * self.leak_scale, 1e5),
            switching_energy: decimals(0.0015 + area * 0.0004, 1e5),
            setup: 0.0,
            hold: 0.0,
            pins: Vec::with_capacity(pins),
            seq: SeqKind::None,
            arcs: Vec::with_capacity(arcs),
        }
    }

    /// A sequential cell's setup and hold times, scaled like every delay.
    fn setup_hold(&self, cell: &mut LibCell, setup: f64, hold: f64) {
        cell.setup = decimals(setup * self.delay_scale, 1e4);
        cell.hold = decimals(hold * self.delay_scale, 1e4);
    }

    /// The arc `from → to`: rise `delay` scaled, fall 8 % faster.
    fn arc(&self, from: &str, to: &str, delay: f64) -> TimingArc {
        let rise = delay * self.delay_scale;
        let fall = rise * 0.92;
        TimingArc {
            from: from.to_owned(),
            to: to.to_owned(),
            rise: decimals(rise, 1e4),
            fall: decimals(fall, 1e4),
        }
    }

    fn comb(
        &mut self,
        name: &str,
        area: f64,
        res: f64,
        inputs: &[&str],
        function_text: &str,
        delay: f64,
    ) {
        let mut cell = self.cell(name, area, inputs.len() + 1, inputs.len());
        cell.pins.extend(inputs.iter().map(|i| input(i, 0.0030)));
        cell.pins
            .push(output("Z", Some(function(function_text)), res));
        cell.arcs
            .extend(inputs.iter().map(|i| self.arc(i, "Z", delay)));
        self.cells.push(cell);
    }

    fn multi_out(&mut self, name: &str, area: f64, inputs: &[&str], outputs: &[(&str, &str, f64)]) {
        let pins = inputs.len() + outputs.len();
        let mut cell = self.cell(name, area, pins, inputs.len() * outputs.len());
        cell.pins.extend(inputs.iter().map(|i| input(i, 0.0032)));
        for (pin, function_text, delay) in outputs {
            cell.pins
                .push(output(pin, Some(function(function_text)), 1.50));
            cell.arcs
                .extend(inputs.iter().map(|i| self.arc(i, pin, *delay)));
        }
        self.cells.push(cell);
    }

    #[allow(clippy::too_many_arguments)]
    fn ff(
        &mut self,
        name: &str,
        area: f64,
        next_state: &str,
        data_pins: &[&str],
        clear: Option<(&str, &str)>,
        preset: Option<(&str, &str)>,
        clk_to_q: f64,
    ) {
        let controls = usize::from(clear.is_some()) + usize::from(preset.is_some());
        let mut cell = self.cell(name, area, data_pins.len() + controls + 3, 2);
        self.setup_hold(&mut cell, 0.062, 0.010);
        cell.seq = SeqKind::FlipFlop(FfInfo {
            next_state: function(next_state),
            clocked_on: "CK".to_owned(),
            clear: clear.map(|(_, cond)| function(cond)),
            preset: preset.map(|(_, cond)| function(cond)),
            q: "Q".to_owned(),
            qn: Some("QN".to_owned()),
        });
        cell.pins.extend(data_pins.iter().map(|p| input(p, 0.0028)));
        cell.pins.push(input("CK", 0.0040));
        for (pin, _) in clear.into_iter().chain(preset) {
            cell.pins.push(input(pin, 0.0030));
        }
        cell.pins.push(output("Q", None, 1.30));
        cell.pins.push(output("QN", None, 1.30));
        cell.arcs.push(self.arc("CK", "Q", clk_to_q));
        cell.arcs.push(self.arc("CK", "QN", clk_to_q * 1.05));
        self.cells.push(cell);
    }

    fn latch(&mut self, name: &str, area: f64, g_to_q: f64, d_to_q: f64) {
        let mut cell = self.cell(name, area, 3, 2);
        self.setup_hold(&mut cell, 0.040, 0.008);
        cell.seq = SeqKind::Latch(LatchInfo {
            data_in: function("D"),
            enable: "G".to_owned(),
            clear: None,
            preset: None,
            q: "Q".to_owned(),
            qn: None,
        });
        cell.pins.push(input("D", 0.0026));
        cell.pins.push(input("G", 0.0035));
        cell.pins.push(output("Q", None, 1.30));
        cell.arcs.push(self.arc("D", "Q", d_to_q));
        cell.arcs.push(self.arc("G", "Q", g_to_q));
        self.cells.push(cell);
    }

    fn celement(
        &mut self,
        name: &str,
        area: f64,
        inputs: &[&str],
        reset: Option<&str>,
        set: Option<&str>,
        delay: f64,
    ) {
        let controls = usize::from(reset.is_some()) + usize::from(set.is_some());
        let mut cell = self.cell(name, area, inputs.len() + controls + 1, inputs.len());
        cell.seq = SeqKind::CElement {
            inputs: inputs.iter().map(|&i| i.to_owned()).collect(),
            reset: reset.map(str::to_owned),
            set: set.map(str::to_owned),
            q: "Z".to_owned(),
        };
        cell.pins.extend(inputs.iter().map(|i| input(i, 0.0030)));
        for pin in reset.into_iter().chain(set) {
            cell.pins.push(input(pin, 0.0020));
        }
        cell.pins.push(output("Z", None, 1.40));
        cell.arcs
            .extend(inputs.iter().map(|i| self.arc(i, "Z", delay)));
        self.cells.push(cell);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::CellClass;

    #[test]
    fn both_variants_build() {
        let hs = high_speed();
        let ll = low_leakage();
        assert_eq!(hs.name(), "vlib90_hs");
        assert_eq!(ll.name(), "vlib90_ll");
        assert_eq!(hs.cells().count(), ll.cells().count());
        assert!(hs.cells().count() >= 30);
    }

    #[test]
    fn low_leakage_is_slower_and_leaks_less() {
        let hs = high_speed();
        let ll = low_leakage();
        let h = hs.cell("NAND2X1").unwrap();
        let l = ll.cell("NAND2X1").unwrap();
        assert!(l.max_intrinsic_delay() > 1.4 * h.max_intrinsic_delay());
        assert!(l.leakage < 0.2 * h.leakage);
        assert_eq!(l.area, h.area);
    }

    #[test]
    fn latch_pair_vs_dff_area_ratio_matches_paper() {
        let lib = high_speed();
        let dff = lib.cell("DFFX1").unwrap().area;
        let latch = lib.cell("LDX1").unwrap().area;
        let ratio = 2.0 * latch / dff;
        // Table 5.1: +17.66 % sequential overhead is dominated by this.
        assert!(ratio > 1.10 && ratio < 1.25, "pair/dff ratio {ratio}");

        let sdff = lib.cell("SDFFX1").unwrap().area;
        let mux = lib.cell("MUX2X1").unwrap().area;
        let scan_ratio = (mux + 2.0 * latch) / sdff;
        // Table 5.2: +40.7 % sequential overhead for the scan design.
        assert!(
            scan_ratio > 1.3 && scan_ratio < 1.5,
            "scan ratio {scan_ratio}"
        );
    }

    #[test]
    fn sequential_cells_have_expected_shapes() {
        let lib = high_speed();
        assert_eq!(lib.cell("DFFX1").unwrap().class(), CellClass::FlipFlop);
        assert_eq!(lib.cell("LDX1").unwrap().class(), CellClass::Latch);
        assert_eq!(lib.cell("C2RX1").unwrap().class(), CellClass::CElement);
        let SeqKind::FlipFlop(ff) = &lib.cell("SDFFX1").unwrap().seq else {
            panic!("SDFFX1 must be a flip-flop")
        };
        // Scan mux lives inside next_state, as in real Liberty files.
        let vars = ff.next_state.vars();
        assert!(vars.contains(&"SI".to_owned()) && vars.contains(&"SE".to_owned()));
    }

    #[test]
    fn async_set_reset_conditions() {
        let lib = high_speed();
        let SeqKind::FlipFlop(ar) = &lib.cell("DFFARX1").unwrap().seq else {
            panic!()
        };
        assert!(ar.clear.is_some());
        assert!(ar.preset.is_none());
        let SeqKind::FlipFlop(asx) = &lib.cell("DFFASX1").unwrap().seq else {
            panic!()
        };
        assert!(asx.preset.is_some());
    }

    #[test]
    fn every_cell_has_positive_area_and_pins() {
        for lib in [high_speed(), low_leakage()] {
            for cell in lib.cells() {
                assert!(cell.area > 0.0, "{} area", cell.name);
                assert!(!cell.pins.is_empty(), "{} pins", cell.name);
                assert!(
                    cell.pins
                        .iter()
                        .any(|p| p.dir == drd_netlist::PortDir::Output),
                    "{} must have an output",
                    cell.name
                );
            }
        }
    }
}
