//! `vlib90` — a synthetic 90 nm-class standard-cell library.
//!
//! Stands in for the STMicroelectronics CORE9 90 nm library used by the
//! paper (see DESIGN.md's substitution table). Two variants are provided,
//! mirroring the paper's choices: **High-Speed** (used for the DLX case
//! study, §5.2) and **Low-Leakage** (used for the ARM case study, §5.3 —
//! ~1.6× slower, ~8× less leakage).
//!
//! The library is emitted as genuine Liberty source and then parsed by
//! [`crate::parse_library`], so the entire `.lib` ingestion path of the
//! tool is exercised by construction. Key area ratios are calibrated to
//! the paper's observations:
//!
//! * master+slave latch pair ≈ 1.16 × DFF area (Table 5.1's +17.66 %
//!   sequential overhead comes mostly from this substitution),
//! * scan-mux + latch pair ≈ 1.41 × scan-DFF area (Table 5.2's +40.7 %).

use std::sync::OnceLock;

use crate::{parse_library, Library};

/// Library variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Variant {
    /// High-speed, high-leakage flavour (DLX case study).
    HighSpeed,
    /// Low-leakage, slower flavour (ARM case study).
    LowLeakage,
}

/// The High-Speed variant (paper: "High-Speed version of the ST CORE9
/// 90nm library").
pub fn high_speed() -> Library {
    static CACHE: OnceLock<Library> = OnceLock::new();
    CACHE
        .get_or_init(|| parse_library(&source(Variant::HighSpeed)).expect("vlib90-hs is valid"))
        .clone()
}

/// The Low-Leakage variant (paper: ARM was implemented in the Low-Leakage
/// library).
pub fn low_leakage() -> Library {
    static CACHE: OnceLock<Library> = OnceLock::new();
    CACHE
        .get_or_init(|| parse_library(&source(Variant::LowLeakage)).expect("vlib90-ll is valid"))
        .clone()
}

/// Liberty source text for a variant (useful for testing external flows).
pub fn source(variant: Variant) -> String {
    let (lib_name, delay_scale, leak_scale) = match variant {
        Variant::HighSpeed => ("vlib90_hs", 1.0, 1.0),
        Variant::LowLeakage => ("vlib90_ll", 1.6, 0.12),
    };
    let mut out = String::with_capacity(32 * 1024);
    out.push_str(&format!(
        "/* vlib90 synthetic 90nm library — {lib_name} */\nlibrary ({lib_name}) {{\n"
    ));
    let mut b = Builder {
        out: &mut out,
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

    out.push_str("}\n");
    out
}

struct Builder<'a> {
    out: &'a mut String,
    delay_scale: f64,
    leak_scale: f64,
}

impl Builder<'_> {
    fn power_attrs(&self, area: f64) -> String {
        let leak = area * 0.012 * self.leak_scale;
        let energy = 0.0015 + area * 0.0004;
        format!("    cell_leakage_power : {leak:.5};\n    switching_energy : {energy:.5};\n")
    }

    fn input_pin(&self, name: &str, cap: f64) -> String {
        format!("    pin ({name}) {{ direction : input; capacitance : {cap:.4}; }}\n")
    }

    fn timing(&self, related: &str, delay: f64) -> String {
        let rise = delay * self.delay_scale;
        let fall = rise * 0.92;
        format!(
            "      timing () {{ related_pin : \"{related}\"; intrinsic_rise : {rise:.4}; intrinsic_fall : {fall:.4}; }}\n"
        )
    }

    fn comb(
        &mut self,
        name: &str,
        area: f64,
        res: f64,
        inputs: &[&str],
        function: &str,
        delay: f64,
    ) {
        self.out
            .push_str(&format!("  cell ({name}) {{\n    area : {area:.2};\n"));
        let power = self.power_attrs(area);
        self.out.push_str(&power);
        for input in inputs {
            let pin = self.input_pin(input, 0.0030);
            self.out.push_str(&pin);
        }
        self.out.push_str(&format!(
            "    pin (Z) {{\n      direction : output;\n      function : \"{function}\";\n      drive_resistance : {res:.2};\n"
        ));
        for input in inputs {
            let t = self.timing(input, delay);
            self.out.push_str(&t);
        }
        self.out.push_str("    }\n  }\n");
    }

    fn multi_out(&mut self, name: &str, area: f64, inputs: &[&str], outputs: &[(&str, &str, f64)]) {
        self.out
            .push_str(&format!("  cell ({name}) {{\n    area : {area:.2};\n"));
        let power = self.power_attrs(area);
        self.out.push_str(&power);
        for input in inputs {
            let pin = self.input_pin(input, 0.0032);
            self.out.push_str(&pin);
        }
        for (pin, function, delay) in outputs {
            self.out.push_str(&format!(
                "    pin ({pin}) {{\n      direction : output;\n      function : \"{function}\";\n      drive_resistance : 1.50;\n"
            ));
            for input in inputs {
                let t = self.timing(input, *delay);
                self.out.push_str(&t);
            }
            self.out.push_str("    }\n");
        }
        self.out.push_str("  }\n");
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
        let setup = 0.062 * self.delay_scale;
        let hold = 0.010 * self.delay_scale;
        self.out.push_str(&format!(
            "  cell ({name}) {{\n    area : {area:.2};\n    setup_time : {setup:.4};\n    hold_time : {hold:.4};\n"
        ));
        let power = self.power_attrs(area);
        self.out.push_str(&power);
        self.out.push_str("    ff (IQ, IQN) {\n");
        self.out
            .push_str(&format!("      next_state : \"{next_state}\";\n"));
        self.out.push_str("      clocked_on : \"CK\";\n");
        if let Some((_, cond)) = clear {
            self.out.push_str(&format!("      clear : \"{cond}\";\n"));
        }
        if let Some((_, cond)) = preset {
            self.out.push_str(&format!("      preset : \"{cond}\";\n"));
        }
        self.out.push_str("    }\n");
        for pin in data_pins {
            let p = self.input_pin(pin, 0.0028);
            self.out.push_str(&p);
        }
        let clk = self.input_pin("CK", 0.0040);
        self.out.push_str(&clk);
        if let Some((pin, _)) = clear {
            let p = self.input_pin(pin, 0.0030);
            self.out.push_str(&p);
        }
        if let Some((pin, _)) = preset {
            let p = self.input_pin(pin, 0.0030);
            self.out.push_str(&p);
        }
        self.out.push_str(
            "    pin (Q) {\n      direction : output;\n      function : \"IQ\";\n      drive_resistance : 1.30;\n",
        );
        let t = self.timing("CK", clk_to_q);
        self.out.push_str(&t);
        self.out.push_str("    }\n");
        self.out.push_str(
            "    pin (QN) {\n      direction : output;\n      function : \"IQN\";\n      drive_resistance : 1.30;\n",
        );
        let t = self.timing("CK", clk_to_q * 1.05);
        self.out.push_str(&t);
        self.out.push_str("    }\n  }\n");
    }

    fn latch(&mut self, name: &str, area: f64, g_to_q: f64, d_to_q: f64) {
        let setup = 0.040 * self.delay_scale;
        let hold = 0.008 * self.delay_scale;
        self.out.push_str(&format!(
            "  cell ({name}) {{\n    area : {area:.2};\n    setup_time : {setup:.4};\n    hold_time : {hold:.4};\n"
        ));
        let power = self.power_attrs(area);
        self.out.push_str(&power);
        self.out.push_str(
            "    latch (IQ, IQN) {\n      data_in : \"D\";\n      enable : \"G\";\n    }\n",
        );
        let d = self.input_pin("D", 0.0026);
        self.out.push_str(&d);
        let g = self.input_pin("G", 0.0035);
        self.out.push_str(&g);
        self.out.push_str(
            "    pin (Q) {\n      direction : output;\n      function : \"IQ\";\n      drive_resistance : 1.30;\n",
        );
        let td = self.timing("D", d_to_q);
        self.out.push_str(&td);
        let tg = self.timing("G", g_to_q);
        self.out.push_str(&tg);
        self.out.push_str("    }\n  }\n");
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
        self.out
            .push_str(&format!("  cell ({name}) {{\n    area : {area:.2};\n"));
        let power = self.power_attrs(area);
        self.out.push_str(&power);
        let input_list = inputs.join(" ");
        let mut group = format!("    celement () {{ inputs : \"{input_list}\";");
        if let Some(r) = reset {
            group.push_str(&format!(" reset : \"{r}\";"));
        }
        if let Some(sn) = set {
            group.push_str(&format!(" set : \"{sn}\";"));
        }
        group.push_str(" output : \"Z\"; }\n");
        self.out.push_str(&group);
        for input in inputs {
            let p = self.input_pin(input, 0.0030);
            self.out.push_str(&p);
        }
        if let Some(r) = reset {
            let p = self.input_pin(r, 0.0020);
            self.out.push_str(&p);
        }
        if let Some(sn) = set {
            let p = self.input_pin(sn, 0.0020);
            self.out.push_str(&p);
        }
        self.out
            .push_str("    pin (Z) {\n      direction : output;\n      drive_resistance : 1.40;\n");
        for input in inputs {
            let t = self.timing(input, delay);
            self.out.push_str(&t);
        }
        self.out.push_str("    }\n  }\n");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::{CellClass, SeqKind};

    #[test]
    fn both_variants_parse() {
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
