//! Backend timing-constraint generation (§4.4–§4.6, Figs. 4.2/4.5).
//!
//! The desynchronized circuit has the same datapath as its synchronous
//! counterpart, but it is a latch design with an asynchronous controller
//! network, so its constraints are stricter:
//!
//! * the original clock becomes two non-overlapping master/slave clocks
//!   whose source pins are the controllers' latch-enable drivers
//!   (Fig. 4.2) — the backend then optimizes the datapath exactly as it
//!   would the synchronous version (Fig. 4.3);
//! * the controller timing loops are broken at specific timing-disabled
//!   pins, keeping the critical cycle constrained (Fig. 4.5);
//! * controller gates are `size_only` so re-synthesis cannot introduce
//!   hazards (§4.6.2);
//! * delay-element paths get min/max delay constraints so timing-driven
//!   P&R preserves the matching.

use std::fmt::Write as _;

use crate::controller;

/// Inputs for SDC generation.
#[derive(Debug, Clone)]
pub struct SdcSpec {
    /// Original synchronous clock period (ns).
    pub period_ns: f64,
    /// Original clock port name.
    pub clock_port: String,
    /// `(master, slave)` controller instance names, one pair per
    /// controlled region in region-index order.
    pub controllers: Vec<(String, String)>,
    /// Delay-element instance names and their minimum matched delay (ns).
    pub delay_elements: Vec<(String, f64)>,
    /// Regions left synchronous by graceful degradation. When non-empty,
    /// the original clock is emitted as a *real* clock (it still drives
    /// the degraded regions' flip-flops) and declared asynchronous to the
    /// ClkM/ClkS latch clocks — every degraded-region boundary is a
    /// clock-domain crossing the backend must treat as such.
    pub degraded: Vec<String>,
}

/// Renders a netlist name as a safe `get_ports`/`get_pins`/`get_cells`
/// argument.
///
/// Netlist names are not Tcl-safe: import keeps the bus brackets of escaped
/// identifiers (`\clk[0] ` becomes `clk[0]`), and `[...]` outside braces is
/// Tcl command substitution. Bracing fixes every name except those
/// containing brace or backslash characters, which switch to
/// backslash-escaping (braces would not nest).
fn tcl_arg(name: &str) -> String {
    if !name.contains(['{', '}', '\\']) {
        return format!("{{{name}}}");
    }
    let mut out = String::with_capacity(name.len() + 4);
    for c in name.chars() {
        if matches!(
            c,
            '{' | '}' | '\\' | '[' | ']' | '$' | '"' | ';' | ' ' | '\t'
        ) {
            out.push('\\');
        }
        out.push(c);
    }
    out
}

/// Generates the SDC text: the clocks, then each controller's loop
/// breaking and `size_only` constraints in region-index order, then the
/// delay-element constraints.
pub fn generate(spec: &SdcSpec) -> String {
    let mut out = String::new();
    let p = spec.period_ns;
    let _ = writeln!(out, "# drdesync generated constraints");
    let _ = writeln!(
        out,
        "# original: create_clock -name \"Clk\" -period {p:.2} -waveform {{0 {:.2}}} [get_ports {}]",
        p / 2.0,
        tcl_arg(&spec.clock_port)
    );
    // Fig. 4.2: the falling edge of the master and the rising edge of the
    // slave coincide with the original rising edge.
    let m_rise = p * 5.0 / 12.0;
    let s_fall = p * 7.0 / 6.0;
    let _ = writeln!(
        out,
        "create_clock -name \"ClkM\" -period {p:.2} -waveform {{{m_rise:.2} {p:.2}}} \
         [get_pins {{*_ctlm/u_g/Z}}]"
    );
    let _ = writeln!(
        out,
        "create_clock -name \"ClkS\" -period {p:.2} -waveform {{{p:.2} {s_fall:.2}}} \
         [get_pins {{*_ctls/u_g/Z}}]"
    );
    out.push('\n');

    if !spec.degraded.is_empty() {
        let _ = writeln!(
            out,
            "# degraded regions stay synchronous — clock-domain crossings"
        );
        let _ = writeln!(
            out,
            "create_clock -name \"Clk\" -period {p:.2} -waveform {{0 {:.2}}} [get_ports {}]",
            p / 2.0,
            tcl_arg(&spec.clock_port)
        );
        let _ = writeln!(
            out,
            "set_clock_groups -asynchronous -group {{Clk}} -group {{ClkM ClkS}}"
        );
        for region in &spec.degraded {
            let _ = writeln!(out, "# region `{region}` left on Clk");
        }
        out.push('\n');
    }

    let instances = || spec.controllers.iter().flat_map(|(m, s)| [m, s]);
    let _ = writeln!(out, "# controller loop breaking (Fig. 4.5)");
    for inst in instances() {
        for (cell, pin) in controller::disabled_pins() {
            let _ = writeln!(
                out,
                "set_disable_timing [get_pins {}]",
                tcl_arg(&format!("{inst}/{cell}/{pin}"))
            );
        }
    }
    out.push('\n');

    let _ = writeln!(out, "# allow only safe optimizations (§4.6.2)");
    for inst in instances() {
        let _ = writeln!(
            out,
            "set_size_only [get_cells {}]",
            tcl_arg(&format!("{inst}/*"))
        );
    }
    out.push('\n');

    let _ = writeln!(out, "# matched delay elements: preserve minimum delays");
    for (inst, min_delay) in &spec.delay_elements {
        let _ = writeln!(
            out,
            "set_min_delay {min_delay:.3} -from [get_pins {}] -to [get_pins {}]",
            tcl_arg(&format!("{inst}/in1")),
            tcl_arg(&format!("{inst}/out1"))
        );
        let _ = writeln!(out, "set_dont_touch [get_cells {}]", tcl_arg(inst));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> SdcSpec {
        SdcSpec {
            period_ns: 2.4,
            clock_port: "clk".into(),
            controllers: vec![("drd_g1_ctlm".into(), "drd_g1_ctls".into())],
            delay_elements: vec![("drd_g1_delem".into(), 0.84)],
            degraded: Vec::new(),
        }
    }

    #[test]
    fn clock_transformation_matches_figure_4_2() {
        let sdc = generate(&sample());
        assert!(sdc.contains("create_clock -name \"ClkM\" -period 2.40 -waveform {1.00 2.40}"));
        assert!(sdc.contains("create_clock -name \"ClkS\" -period 2.40 -waveform {2.40 2.80}"));
        assert!(sdc.contains("[get_pins {*_ctlm/u_g/Z}]"));
    }

    #[test]
    fn loop_breaking_and_size_only() {
        let sdc = generate(&sample());
        assert!(sdc.contains("set_disable_timing [get_pins {drd_g1_ctlm/u_nro/A}]"));
        assert!(sdc.contains("set_disable_timing [get_pins {drd_g1_ctls/u_nro/A}]"));
        assert!(sdc.contains("set_size_only [get_cells {drd_g1_ctlm/*}]"));
    }

    #[test]
    fn delay_elements_constrained() {
        let sdc = generate(&sample());
        assert!(sdc.contains("set_min_delay 0.840"));
        assert!(sdc.contains("set_dont_touch [get_cells {drd_g1_delem}]"));
    }

    #[test]
    fn clean_spec_emits_no_cdc_section() {
        let sdc = generate(&sample());
        assert!(!sdc.contains("set_clock_groups"), "{sdc}");
        assert!(
            !sdc.lines()
                .any(|l| l.starts_with("create_clock -name \"Clk\"")),
            "{sdc}"
        );
    }

    #[test]
    fn bracketed_clock_port_is_braced_in_every_get_ports() {
        // Escaped bus-bit identifiers keep their brackets through import
        // (`\clk[0] ` -> `clk[0]`); unbraced, `[0]` is Tcl command
        // substitution.
        let mut spec = sample();
        spec.clock_port = "clk[0]".into();
        spec.degraded = vec!["g2".into()];
        let sdc = generate(&spec);
        assert!(sdc.contains("[get_ports {clk[0]}]"), "{sdc}");
        assert!(!sdc.contains("[get_ports clk[0]]"), "{sdc}");
    }

    #[test]
    fn brace_and_backslash_names_fall_back_to_backslash_escaping() {
        assert_eq!(tcl_arg("clk"), "{clk}");
        assert_eq!(tcl_arg("clk[0]"), "{clk[0]}");
        assert_eq!(tcl_arg("a{b"), "a\\{b");
        assert_eq!(tcl_arg("a\\b[1]"), "a\\\\b\\[1\\]");
    }

    #[test]
    fn controllers_are_constrained_in_region_order_section_by_section() {
        let mut spec = sample();
        spec.controllers = (1..4)
            .map(|i| (format!("drd_g{i}_ctlm"), format!("drd_g{i}_ctls")))
            .collect();
        let sdc = generate(&spec);
        let order = ["g1_ctlm", "g1_ctls", "g2_ctlm", "g3_ctls"];
        let at = |needle: String| {
            sdc.find(&needle)
                .unwrap_or_else(|| panic!("{needle}: {sdc}"))
        };
        let disables: Vec<usize> = order
            .iter()
            .map(|c| at(format!("set_disable_timing [get_pins {{drd_{c}/")))
            .collect();
        let size_only: Vec<usize> = order
            .iter()
            .map(|c| at(format!("set_size_only [get_cells {{drd_{c}/*}}]")))
            .collect();
        assert!(disables.windows(2).all(|w| w[0] < w[1]), "{sdc}");
        assert!(size_only.windows(2).all(|w| w[0] < w[1]), "{sdc}");
        assert!(disables[3] < size_only[0], "{sdc}");
    }

    #[test]
    fn degraded_spec_declares_clock_domain_crossing() {
        let mut spec = sample();
        spec.degraded = vec!["g2".into()];
        let sdc = generate(&spec);
        assert!(
            sdc.contains(
                "create_clock -name \"Clk\" -period 2.40 -waveform {0 1.20} [get_ports {clk}]"
            ),
            "{sdc}"
        );
        assert!(
            sdc.contains("set_clock_groups -asynchronous -group {Clk} -group {ClkM ClkS}"),
            "{sdc}"
        );
        assert!(sdc.contains("region `g2` left on Clk"), "{sdc}");
    }
}
