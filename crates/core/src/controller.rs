//! The 4-phase semi-decoupled latch controller (§2.2, §3.1.3, Figs.
//! 2.3/3.2/4.5).
//!
//! The controller is the classic two-C-element Furber & Day semi-decoupled
//! circuit the thesis adopts:
//!
//! ```text
//! a  = C(ri, !ro)      — rises when a request arrives and the output
//!                        handshake is idle; falls when the request
//!                        withdraws and the output request is out
//! ro = C(a,  !ao)      — the output request follows the latch opening
//! g  = a & !ro         — the latch enable pulses open between the
//!                        request arriving and the output request going
//!                        out: the latch has closed again one C-element
//!                        delay after opening
//! ai = a               — the input acknowledge
//! ```
//!
//! The capture *pulse* is what preserves flow equivalence in practice: a
//! predecessor can only present new data after its own master/slave cycle
//! (several gate delays plus its matched delay element), by which time
//! this latch — open for a single C-element delay — has long closed. The
//! strictly-safe alternative (acknowledge only on capture completion) is
//! the fully-decoupled controller of Fig. 2.4, which trades two more
//! states of controller complexity; see DESIGN.md.
//!
//! Reset polarity encodes the initial data tokens (§2.4.2): at reset every
//! latch holds valid reset data, so **slave** controllers come out of
//! reset with their request *asserted* (`ro` resets to 1 through a
//! set-variant C-element) while **master** controllers reset to 0. This
//! makes the controller network live after reset *and* makes the master
//! phase fire first, matching the synchronous master/slave clock
//! transformation of Fig. 4.2 (the first capture after reset is the
//! master's, so slave data sequences align with the flip-flop ones).
//!
//! All controller gates are hazard-free by construction and marked
//! `size_only` so backend optimization may resize but never restructure
//! them (§4.6.2).

use drd_netlist::{Conn, Module, PortDir};

/// Master or slave role of a controller within a region's pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ControllerRole {
    /// Drives the master latches; resets with `ro = 0`.
    Master,
    /// Drives the slave latches; resets with `ro = 1` (reset data valid).
    Slave,
}

impl ControllerRole {
    /// Module name generated for this role.
    pub fn module_name(self) -> &'static str {
        match self {
            ControllerRole::Master => "drd_ctrl_master",
            ControllerRole::Slave => "drd_ctrl_slave",
        }
    }
}

/// Builds the controller module for `role`.
///
/// Ports: `ri`, `ao`, `rst` (inputs); `ai`, `ro`, `g` (outputs).
pub fn build_controller(role: ControllerRole) -> Module {
    let mut m = Module::new(role.module_name());
    m.add_port("ri", PortDir::Input).expect("fresh module");
    m.add_port("ao", PortDir::Input).expect("fresh module");
    m.add_port("rst", PortDir::Input).expect("fresh module");
    m.add_port("ai", PortDir::Output).expect("fresh module");
    m.add_port("ro", PortDir::Output).expect("fresh module");
    m.add_port("g", PortDir::Output).expect("fresh module");
    let ri = m.find_net("ri").expect("port net");
    let ao = m.find_net("ao").expect("port net");
    let rst = m.find_net("rst").expect("port net");
    let ai = m.find_net("ai").expect("port net");
    let ro = m.find_net("ro").expect("port net");
    let g = m.find_net("g").expect("port net");

    let a = m.add_net("a").expect("fresh name");
    let ro_int = ro; // the C-element drives the request port directly
    let nro = m.add_net("nro").expect("fresh name");
    let nao = m.add_net("nao").expect("fresh name");

    m.add_cell(
        "u_nro",
        "INVX1",
        &[("A", Conn::Net(ro_int)), ("Z", Conn::Net(nro))],
    )
    .expect("fresh name");
    m.add_cell(
        "u_a",
        "C2RX1",
        &[
            ("A", Conn::Net(ri)),
            ("B", Conn::Net(nro)),
            ("RN", Conn::Net(rst)),
            ("Z", Conn::Net(a)),
        ],
    )
    .expect("fresh name");
    m.add_cell(
        "u_nao",
        "INVX1",
        &[("A", Conn::Net(ao)), ("Z", Conn::Net(nao))],
    )
    .expect("fresh name");
    let (ro_cell, ctrl_pin) = match role {
        ControllerRole::Master => ("C2RX1", "RN"),
        ControllerRole::Slave => ("C2SX1", "SN"),
    };
    m.add_cell(
        "u_ro",
        ro_cell,
        &[
            ("A", Conn::Net(a)),
            ("B", Conn::Net(nao)),
            (ctrl_pin, Conn::Net(rst)),
            ("Z", Conn::Net(ro_int)),
        ],
    )
    .expect("fresh name");
    // Latch-enable pulse: open at a+, closed again by ro+.
    let g_int = m.add_net("g_int").expect("fresh name");
    m.add_cell(
        "u_gp",
        "AND2X1",
        &[
            ("A", Conn::Net(a)),
            ("B", Conn::Net(nro)),
            ("Z", Conn::Net(g_int)),
        ],
    )
    .expect("fresh name");
    m.add_cell(
        "u_g",
        "BUFX2",
        &[("A", Conn::Net(g_int)), ("Z", Conn::Net(g))],
    )
    .expect("fresh name");
    m.add_cell(
        "u_ai",
        "BUFX1",
        &[("A", Conn::Net(a)), ("Z", Conn::Net(ai))],
    )
    .expect("fresh name");

    // §4.6.2: the controllers are hazard-free; allow only safe
    // optimizations (resizing).
    let ids: Vec<_> = m.cells().map(|(id, _)| id).collect();
    for id in ids {
        m.set_size_only(id, true);
    }
    m
}

/// The timing-disabled pins that break this controller's internal timing
/// loops for STA (§4.6.1, Fig. 4.5c), as `(instance, pin)` pairs relative
/// to the controller instance.
pub fn disabled_pins() -> Vec<(&'static str, &'static str)> {
    // Cutting the ro → !ro → C(a) feedback breaks both internal cycles
    // (a → ro → nro → a and the a/ro self-holds are inside the
    // C-elements); every remaining controller path stays constrained
    // through its other pins.
    vec![("u_nro", "A")]
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::panic)]
    use super::*;
    use drd_liberty::{vlib90, Lv};
    use drd_netlist::Design;
    use drd_sim::{SimOptions, Simulator};
    use drd_stg::conformance::{semi_decoupled_controller_stg, Conformance};

    #[test]
    fn controller_modules_are_well_formed() {
        for role in [ControllerRole::Master, ControllerRole::Slave] {
            let m = build_controller(role);
            assert_eq!(m.port_count(), 6);
            assert_eq!(m.cell_count(), 7);
            for (_, cell) in m.cells() {
                assert!(cell.size_only, "{} must be size_only", cell.name);
            }
        }
        assert_ne!(
            ControllerRole::Master.module_name(),
            ControllerRole::Slave.module_name()
        );
    }

    /// Drive a single slave controller with an ideal environment and check
    /// the observed signal trace against the semi-decoupled STG
    /// specification — the verification petrify's synthesis would imply
    /// (§3.1.3).
    #[test]
    fn gate_level_controller_conforms_to_stg() {
        let lib = vlib90::high_speed();
        let mut design = Design::new();
        // The master role resets with ro = 0, matching the specification's
        // all-low initial state.
        design.insert(build_controller(ControllerRole::Master));
        let mut sim = Simulator::new(&design, &lib, SimOptions::default()).unwrap();
        // Reset first; watch only after the outputs settled, so the
        // X→0 initialization edges are not part of the checked trace.
        sim.poke("ri", Lv::Zero).unwrap();
        sim.poke("ao", Lv::Zero).unwrap();
        sim.poke("rst", Lv::Zero).unwrap();
        sim.run_for(5.0);
        sim.poke("rst", Lv::One).unwrap();
        sim.run_for(5.0);
        for net in ["g", "ro"] {
            sim.watch(net).unwrap();
        }

        // Environment script for two full handshakes, reacting with fixed
        // latencies (the STG is speed-independent, so any latency works).
        let mut events: Vec<(f64, &str, bool)> = Vec::new();
        let mut t = sim.time_ns();
        for _ in 0..2 {
            // ri+ … controller raises g, then ro. Environment answers.
            events.push((t + 1.0, "ri", true));
            // ri- after ai+ (ai = g, observed at +ε); ao+ after ro+.
            events.push((t + 3.0, "ri", false));
            events.push((t + 5.0, "ao", true));
            // ao- after ro-.
            events.push((t + 9.0, "ao", false));
            t += 12.0;
        }
        for (at, sig, v) in &events {
            sim.poke_at(sig, Lv::from_bool(*v), *at).unwrap();
        }
        sim.run_for(t + 12.0 - sim.time_ns());

        // Merge observed edges of all four signals in time order.
        let mut trace: Vec<(f64, &str, bool)> = Vec::new();
        for sig in ["g", "ro"] {
            for (time, rising) in sim.edge_trace(sig) {
                trace.push((time, sig, rising));
            }
        }
        for (time, sig, rising) in events {
            trace.push((time, sig, rising));
        }
        trace.sort_by(|a, b| a.0.total_cmp(&b.0));

        let spec = semi_decoupled_controller_stg();
        let mut checker = Conformance::new(&spec);
        for (_, sig, rising) in &trace {
            checker
                .observe(sig, *rising)
                .unwrap_or_else(|e| panic!("trace violates STG: {e}; trace = {trace:?}"));
        }
        assert!(checker.observed() >= 16, "two full cycles observed");
    }

    /// A master+slave ring (one pipeline stage fed back on itself) must
    /// oscillate after reset — the liveness property the reset polarity
    /// (master ro = 1) exists to provide.
    #[test]
    fn master_slave_ring_oscillates() {
        let lib = vlib90::high_speed();
        let mut design = Design::new();
        let top = design.add_module("ring");
        {
            let m = design.module_mut(top);
            m.add_port("rst", PortDir::Input).unwrap();
            m.add_port("gm", PortDir::Output).unwrap();
            m.add_port("gs", PortDir::Output).unwrap();
            let rst = m.find_net("rst").unwrap();
            let gm = m.find_net("gm").unwrap();
            let gs = m.find_net("gs").unwrap();
            let rom = m.add_net("rom").unwrap();
            let ros = m.add_net("ros").unwrap();
            let aim = m.add_net("aim").unwrap();
            let ais = m.add_net("ais").unwrap();
            m.add_instance(
                "u_m",
                ControllerRole::Master.module_name(),
                &[
                    ("ri", Conn::Net(ros)),
                    ("ao", Conn::Net(ais)),
                    ("rst", Conn::Net(rst)),
                    ("ai", Conn::Net(aim)),
                    ("ro", Conn::Net(rom)),
                    ("g", Conn::Net(gm)),
                ],
            )
            .unwrap();
            m.add_instance(
                "u_s",
                ControllerRole::Slave.module_name(),
                &[
                    ("ri", Conn::Net(rom)),
                    ("ao", Conn::Net(aim)),
                    ("rst", Conn::Net(rst)),
                    ("ai", Conn::Net(ais)),
                    ("ro", Conn::Net(ros)),
                    ("g", Conn::Net(gs)),
                ],
            )
            .unwrap();
        }
        design.insert(build_controller(ControllerRole::Master));
        design.insert(build_controller(ControllerRole::Slave));

        let mut sim = Simulator::new(&design, &lib, SimOptions::default()).unwrap();
        sim.watch("gm").unwrap();
        sim.watch("gs").unwrap();
        sim.poke("rst", Lv::Zero).unwrap();
        sim.run_for(5.0);
        sim.poke("rst", Lv::One).unwrap();
        sim.run_for(100.0);
        let gm_edges = sim.rising_edges("gm");
        let gs_edges = sim.rising_edges("gs");
        assert!(
            gm_edges.len() > 10 && gs_edges.len() > 10,
            "ring oscillates: gm {} edges, gs {} edges",
            gm_edges.len(),
            gs_edges.len()
        );
        // Effective period is stable (self-timed).
        let periods: Vec<f64> = gm_edges.windows(2).map(|w| w[1] - w[0]).collect();
        let avg = periods.iter().sum::<f64>() / periods.len() as f64;
        for p in periods.iter().skip(1) {
            assert!((p - avg).abs() < 0.25 * avg, "stable period: {periods:?}");
        }
    }

    /// The controller's internal timing loops break with the documented
    /// disabled pins (Fig. 4.5).
    #[test]
    fn loop_breaking_with_disabled_pins() {
        use drd_sta::TimingGraph;
        let lib = vlib90::high_speed();
        let m = build_controller(ControllerRole::Slave);
        let mut g = TimingGraph::build(&m, &lib).unwrap();
        assert!(g.find_cycle().is_some(), "controller is cyclic");
        for (cell, pin) in disabled_pins() {
            let (cid, sym) = (m.find_cell(cell).unwrap(), m.lookup_sym(pin).unwrap());
            assert!(g.disable_pin(cid, sym), "{cell}/{pin} exists");
        }
        assert!(
            g.find_cycle().is_none(),
            "documented pins break all timing loops"
        );
        // And arrivals become computable.
        assert!(g.arrivals(drd_liberty::Corner::typical()).is_ok());
    }
}
