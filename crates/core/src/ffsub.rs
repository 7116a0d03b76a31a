//! Flip-flop substitution (§2.3, §3.2.3, Fig. 3.1).
//!
//! Every flip-flop is replaced by a master/slave pair of the library's
//! simplest latch, plus the extra gates its features require (§3.1.2):
//!
//! * scan flip-flops get a multiplexer before the master (Fig. 3.1a),
//! * synchronous reset/set get an AND/OR on the data path (Fig. 3.1b),
//! * asynchronous set/reset gate both data paths *and* both enables, so
//!   the latches open during the assertion and the value passes
//!   (Fig. 3.1c),
//! * clock-gated flip-flops gate both latch enables (Fig. 3.1d).
//!
//! The master latch is enabled by the region's master enable net, the
//! slave by the slave enable net — both driven later by the region's
//! controller pair. The `ffsub` pass hands each region's pair and the
//! cells it appended on by ID, as a [`Substitution`].

use drd_liberty::gatefile::{ControlPin, FfRule, Gatefile};
use drd_liberty::Library;
use drd_netlist::{CellId, Conn, Module, NetId, Symbol};

use crate::{DegradeReason, DesyncError};

/// What flip-flop substitution created, by ID into the top module: the
/// hand-off to `control-network` and, through [`crate::DesyncResult`],
/// to the flow's readers, so none finds these objects again by name.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Substitution {
    /// Per region: the master and slave latch-enable nets, `None` for a
    /// region that kept its flip-flops (none, or left synchronous before
    /// substitution). A region gets a controller pair exactly when it has
    /// a pair here.
    pub enables: Vec<Option<(NetId, NetId)>>,
    /// The cell slots the pass appended: every composite latch's latches
    /// and gates, sequential logic in the paper's area split (§5.3.1).
    /// Removal only tombstones a slot, so the range stays exact.
    pub cells: std::ops::Range<usize>,
}

/// Creates a region's master and slave latch-enable nets, named
/// `drd_<region>_gm`/`_gs`, uniquified if the input already uses that.
pub fn add_enable_nets(module: &mut Module, region: &str) -> (NetId, NetId) {
    let gm = module.add_net_auto(&format!("drd_{region}_gm"));
    (gm, module.add_net_auto(&format!("drd_{region}_gs")))
}

/// Statistics from a substitution run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SubstitutionReport {
    /// Flip-flops substituted.
    pub substituted: usize,
    /// Extra combinational gates inserted (muxes, and/or/inv).
    pub extra_gates: usize,
}

/// Pre-substitution validation of one region's sequential cells: returns
/// the reason the region cannot be desynchronized, or `None` when every
/// substitution target is supported.
///
/// This mirrors exactly the checks [`substitute_ffs`] performs, but runs
/// them *before* any netlist mutation — substitution removes the original
/// flip-flop first, so graceful per-region degradation must decide while
/// the region is still intact.
pub fn region_degrade_reason(
    module: &Module,
    lib: &Library,
    gatefile: &Gatefile,
    seq_cells: &[CellId],
) -> Option<DegradeReason> {
    for &cell_id in seq_cells {
        if !module.is_cell_alive(cell_id) {
            continue; // already substituted or removed
        }
        let kind_name = module.cell(cell_id).kind_name();
        let Some(lc) = lib.cell(kind_name) else {
            return Some(DegradeReason::UnknownCell {
                kind: kind_name.to_owned(),
            });
        };
        if lc.class() != drd_liberty::CellClass::FlipFlop {
            continue; // latches stay; not a substitution target
        }
        if gatefile.rule(kind_name).is_none() {
            return Some(DegradeReason::UnsupportedFf {
                kind: kind_name.to_owned(),
            });
        }
    }
    None
}

/// Substitutes every flip-flop in `seq_cells` by a latch pair enabled by
/// `gm` (master) and `gs` (slave).
///
/// # Errors
/// Returns [`DesyncError::NoRule`] if the gatefile lacks a rule for some
/// flip-flop, and propagates netlist errors.
pub fn substitute_ffs(
    module: &mut Module,
    lib: &Library,
    gatefile: &Gatefile,
    seq_cells: &[CellId],
    gm: NetId,
    gs: NetId,
) -> Result<SubstitutionReport, DesyncError> {
    let mut report = SubstitutionReport::default();
    for &cell_id in seq_cells {
        if !module.is_cell_alive(cell_id) {
            continue; // already substituted or removed
        }
        let kind_name = module.cell(cell_id).kind_name();
        let Some(lc) = lib.cell(kind_name) else {
            return Err(DesyncError::UnknownCell {
                name: kind_name.to_owned(),
            });
        };
        match lc.class() {
            drd_liberty::CellClass::FlipFlop => {}
            // Latches in a latch-based design stay; other cells are not
            // substitution targets.
            _ => continue,
        }
        let rule = gatefile
            .rule(kind_name)
            .ok_or_else(|| DesyncError::NoRule {
                cell: kind_name.to_owned(),
            })?;
        let gates = substitute_one(module, rule, cell_id, gm, gs)?;
        report.substituted += 1;
        report.extra_gates += gates;
    }
    Ok(report)
}

/// Substitutes a single flip-flop; returns the number of extra gates.
fn substitute_one(
    module: &mut Module,
    rule: &FfRule,
    cell_id: CellId,
    gm: NetId,
    gs: NetId,
) -> Result<usize, DesyncError> {
    let name = module.cell(cell_id).name.to_owned();
    let mut extra = 0usize;

    // Snapshot the pin connections before the cell is removed and the
    // module is mutated below. Symbols are append-only, so a rule's pin
    // name looked up later still finds the snapshot's symbol.
    let pins: Vec<(Symbol, Conn)> = module.cell_pins(cell_id).to_vec();
    let pin_conn = move |module: &Module, pin: &str| -> Conn {
        module
            .lookup_sym(pin)
            .and_then(|sym| pins.iter().find(|&&(p, _)| p == sym))
            .map_or(Conn::Open, |&(_, c)| c)
    };
    let f = &rule.features;

    module.remove_cell(cell_id);

    // Helper: insert a gate returning its output net.
    let gate = |module: &mut Module,
                extra: &mut usize,
                kind: &str,
                suffix: &str,
                pins: &[(&str, Conn)]|
     -> Result<NetId, DesyncError> {
        let out = module.add_net_auto(&format!("{name}__{suffix}"));
        let mut all: Vec<(&str, Conn)> = pins.to_vec();
        all.push(("Z", Conn::Net(out)));
        let cname = module.unique_cell_name(&format!("{name}_{suffix}"));
        module.add_cell(cname, kind, &all)?;
        *extra += 1;
        Ok(out)
    };
    // Helper: active-high assertion signal of a control pin.
    let assert_net = |module: &mut Module,
                      extra: &mut usize,
                      ctrl: &ControlPin,
                      suffix: &str|
     -> Result<Conn, DesyncError> {
        let conn = pin_conn(module, &ctrl.pin);
        if ctrl.active_low {
            match conn {
                Conn::Net(n) => Ok(Conn::Net(gate(
                    module,
                    extra,
                    "INVX1",
                    suffix,
                    &[("A", Conn::Net(n))],
                )?)),
                Conn::Const0 => Ok(Conn::Const1),
                _ => Ok(Conn::Const0),
            }
        } else {
            Ok(conn)
        }
    };

    // ---- data path ---------------------------------------------------
    let mut d: Conn = f
        .data
        .as_deref()
        .map(|pin| pin_conn(module, pin))
        .unwrap_or(Conn::Open);

    // Scan mux (Fig. 3.1a).
    if let Some(scan) = &f.scan {
        let si = pin_conn(module, &scan.scan_in);
        let se = pin_conn(module, &scan.scan_enable);
        d = Conn::Net(gate(
            module,
            &mut extra,
            "MUX2X1",
            "smx",
            &[("A", d), ("B", si), ("S", se)],
        )?);
    }
    // Synchronous reset: data AND not-asserted (Fig. 3.1b).
    if let Some(sr) = &f.sync_reset {
        let enable_side = if sr.active_low {
            pin_conn(module, &sr.pin) // `d & RN`
        } else {
            // active-high reset: `d & !R`
            let a = assert_net(
                module,
                &mut extra,
                &ControlPin {
                    pin: sr.pin.clone(),
                    active_low: false,
                },
                "sri",
            )?;
            match a {
                Conn::Net(n) => Conn::Net(gate(
                    module,
                    &mut extra,
                    "INVX1",
                    "srn",
                    &[("A", Conn::Net(n))],
                )?),
                Conn::Const0 => Conn::Const1,
                _ => Conn::Const0,
            }
        };
        d = Conn::Net(gate(
            module,
            &mut extra,
            "AND2X1",
            "srg",
            &[("A", d), ("B", enable_side)],
        )?);
    }
    // Synchronous set: data OR asserted.
    if let Some(ss) = &f.sync_set {
        let a = assert_net(module, &mut extra, ss, "ssi")?;
        d = Conn::Net(gate(
            module,
            &mut extra,
            "OR2X1",
            "ssg",
            &[("A", d), ("B", a)],
        )?);
    }

    // ---- enables -------------------------------------------------------
    let mut gm_eff = Conn::Net(gm);
    let mut gs_eff = Conn::Net(gs);
    if let Some(en_pin) = &f.clock_enable {
        // Fig. 3.1d: gate the latch-enable signals.
        let en = pin_conn(module, en_pin);
        gm_eff = Conn::Net(gate(
            module,
            &mut extra,
            "AND2X1",
            "gme",
            &[("A", gm_eff), ("B", en)],
        )?);
        gs_eff = Conn::Net(gate(
            module,
            &mut extra,
            "AND2X1",
            "gse",
            &[("A", gs_eff), ("B", en)],
        )?);
    }

    // Asynchronous clear/preset (Fig. 3.1c): open the latches during the
    // assertion and force the data value through.
    let mut slave_d_override: Option<(Conn, bool)> = None; // (assert, set?)
    if let Some(ac) = &f.async_clear {
        let a = assert_net(module, &mut extra, ac, "aci")?;
        let an = match a {
            Conn::Net(n) => Conn::Net(gate(
                module,
                &mut extra,
                "INVX1",
                "acn",
                &[("A", Conn::Net(n))],
            )?),
            Conn::Const0 => Conn::Const1,
            _ => Conn::Const0,
        };
        d = Conn::Net(gate(
            module,
            &mut extra,
            "AND2X1",
            "acd",
            &[("A", d), ("B", an)],
        )?);
        gm_eff = Conn::Net(gate(
            module,
            &mut extra,
            "OR2X1",
            "acm",
            &[("A", gm_eff), ("B", a)],
        )?);
        gs_eff = Conn::Net(gate(
            module,
            &mut extra,
            "OR2X1",
            "acs",
            &[("A", gs_eff), ("B", a)],
        )?);
        slave_d_override = Some((an, false));
    }
    if let Some(ap) = &f.async_preset {
        let a = assert_net(module, &mut extra, ap, "api")?;
        d = Conn::Net(gate(
            module,
            &mut extra,
            "OR2X1",
            "apd",
            &[("A", d), ("B", a)],
        )?);
        gm_eff = Conn::Net(gate(
            module,
            &mut extra,
            "OR2X1",
            "apm",
            &[("A", gm_eff), ("B", a)],
        )?);
        gs_eff = Conn::Net(gate(
            module,
            &mut extra,
            "OR2X1",
            "aps",
            &[("A", gs_eff), ("B", a)],
        )?);
        slave_d_override = Some((a, true));
    }

    // ---- the latch pair --------------------------------------------------
    let qm = module.add_net_auto(&format!("{name}__qm"));
    let cname = module.unique_cell_name(&format!("{name}_lm"));
    module.add_cell(
        cname,
        rule.latch_cell.clone(),
        &[
            (rule.latch_d.as_str(), d),
            (rule.latch_g.as_str(), gm_eff),
            (rule.latch_q.as_str(), Conn::Net(qm)),
        ],
    )?;

    // Slave data, possibly gated for async controls.
    let slave_d = match slave_d_override {
        None => Conn::Net(qm),
        Some((ctrl, set)) => {
            let kind = if set { "OR2X1" } else { "AND2X1" };
            Conn::Net(gate(
                module,
                &mut extra,
                kind,
                "asd",
                &[("A", Conn::Net(qm)), ("B", ctrl)],
            )?)
        }
    };

    let q_conn = pin_conn(module, &rule.q_pin);
    let qn_conn = rule
        .qn_pin
        .as_deref()
        .map_or(Conn::Open, |pin| pin_conn(module, pin));
    let qs = match q_conn {
        Conn::Net(n) => n,
        _ => module.add_net_auto(&format!("{name}__qs")),
    };
    let cname = module.unique_cell_name(&format!("{name}_ls"));
    module.add_cell(
        cname,
        rule.latch_cell.clone(),
        &[
            (rule.latch_d.as_str(), slave_d),
            (rule.latch_g.as_str(), gs_eff),
            (rule.latch_q.as_str(), Conn::Net(qs)),
        ],
    )?;
    if let Conn::Net(qn_net) = qn_conn {
        let cname = module.unique_cell_name(&format!("{name}_qn"));
        module.add_cell(
            cname,
            "INVX1",
            &[("A", Conn::Net(qs)), ("Z", Conn::Net(qn_net))],
        )?;
        extra += 1;
    }
    Ok(extra)
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::panic)]
    use super::*;
    use drd_liberty::vlib90;
    use drd_netlist::PortDir;

    fn setup() -> (Module, Library, Gatefile, NetId, NetId) {
        let lib = vlib90::high_speed();
        let gf = Gatefile::from_library(&lib).unwrap();
        let mut m = Module::new("t");
        m.add_port("clk", PortDir::Input).unwrap();
        m.add_port("d", PortDir::Input).unwrap();
        m.add_port("q", PortDir::Output).unwrap();
        let gm = m.add_net("gm1").unwrap();
        let gs = m.add_net("gs1").unwrap();
        (m, lib, gf, gm, gs)
    }

    #[test]
    fn plain_dff_becomes_latch_pair() {
        let (mut m, lib, gf, gm, gs) = setup();
        let d = m.find_net("d").unwrap();
        let clk = m.find_net("clk").unwrap();
        let q = m.find_net("q").unwrap();
        m.add_cell(
            "r1",
            "DFFX1",
            &[
                ("D", Conn::Net(d)),
                ("CK", Conn::Net(clk)),
                ("Q", Conn::Net(q)),
            ],
        )
        .unwrap();
        let r1 = m.find_cell("r1").unwrap();
        let rep = substitute_ffs(&mut m, &lib, &gf, &[r1], gm, gs).unwrap();
        assert_eq!(rep.substituted, 1);
        assert_eq!(rep.extra_gates, 0);
        assert!(m.find_cell("r1").is_none());
        let lm = m.find_cell("r1_lm").expect("master latch");
        let ls = m.find_cell("r1_ls").expect("slave latch");
        assert_eq!(m.cell(lm).kind_name(), "LDX1");
        assert_eq!(m.cell(lm).pin("G"), Some(Conn::Net(gm)));
        assert_eq!(m.cell(ls).pin("G"), Some(Conn::Net(gs)));
        // Slave output drives the original Q net.
        assert_eq!(m.cell(ls).pin("Q"), Some(Conn::Net(q)));
        // Master data is the original D.
        assert_eq!(m.cell(lm).pin("D"), Some(Conn::Net(d)));
    }

    #[test]
    fn qn_output_gets_an_inverter() {
        let (mut m, lib, gf, gm, gs) = setup();
        let d = m.find_net("d").unwrap();
        let clk = m.find_net("clk").unwrap();
        let qn = m.add_net("qn").unwrap();
        m.add_cell(
            "r1",
            "DFFX1",
            &[
                ("D", Conn::Net(d)),
                ("CK", Conn::Net(clk)),
                ("QN", Conn::Net(qn)),
            ],
        )
        .unwrap();
        let r1 = m.find_cell("r1").unwrap();
        let rep = substitute_ffs(&mut m, &lib, &gf, &[r1], gm, gs).unwrap();
        assert_eq!(rep.extra_gates, 1);
        let inv = m.find_cell("r1_qn").expect("qn inverter");
        assert_eq!(m.cell(inv).pin("Z"), Some(Conn::Net(qn)));
    }

    #[test]
    fn scan_ff_gets_mux() {
        let (mut m, lib, gf, gm, gs) = setup();
        let d = m.find_net("d").unwrap();
        let clk = m.find_net("clk").unwrap();
        let q = m.find_net("q").unwrap();
        let si = m.add_net("si").unwrap();
        let se = m.add_net("se").unwrap();
        m.add_cell(
            "r1",
            "SDFFX1",
            &[
                ("D", Conn::Net(d)),
                ("SI", Conn::Net(si)),
                ("SE", Conn::Net(se)),
                ("CK", Conn::Net(clk)),
                ("Q", Conn::Net(q)),
            ],
        )
        .unwrap();
        let r1 = m.find_cell("r1").unwrap();
        let rep = substitute_ffs(&mut m, &lib, &gf, &[r1], gm, gs).unwrap();
        assert_eq!(rep.extra_gates, 1);
        let mux = m.find_cell("r1_smx").expect("scan mux");
        assert_eq!(m.cell(mux).kind_name(), "MUX2X1");
        assert_eq!(m.cell(mux).pin("B"), Some(Conn::Net(si)));
        assert_eq!(m.cell(mux).pin("S"), Some(Conn::Net(se)));
        // The mux feeds the master latch.
        let lm = m.find_cell("r1_lm").unwrap();
        let mux_out = m.cell(mux).pin("Z").unwrap();
        assert_eq!(m.cell(lm).pin("D"), Some(mux_out));
    }

    #[test]
    fn sync_reset_gets_and_gate() {
        let (mut m, lib, gf, gm, gs) = setup();
        let d = m.find_net("d").unwrap();
        let clk = m.find_net("clk").unwrap();
        let q = m.find_net("q").unwrap();
        let rn = m.add_net("rn").unwrap();
        m.add_cell(
            "r1",
            "DFFRX1",
            &[
                ("D", Conn::Net(d)),
                ("RN", Conn::Net(rn)),
                ("CK", Conn::Net(clk)),
                ("Q", Conn::Net(q)),
            ],
        )
        .unwrap();
        let r1 = m.find_cell("r1").unwrap();
        let rep = substitute_ffs(&mut m, &lib, &gf, &[r1], gm, gs).unwrap();
        assert_eq!(rep.extra_gates, 1);
        let and = m.find_cell("r1_srg").expect("sync reset AND");
        assert_eq!(m.cell(and).pin("B"), Some(Conn::Net(rn)));
    }

    #[test]
    fn async_clear_gates_data_and_enables() {
        let (mut m, lib, gf, gm, gs) = setup();
        let d = m.find_net("d").unwrap();
        let clk = m.find_net("clk").unwrap();
        let q = m.find_net("q").unwrap();
        let cdn = m.add_net("cdn").unwrap();
        m.add_cell(
            "r1",
            "DFFARX1",
            &[
                ("D", Conn::Net(d)),
                ("CDN", Conn::Net(cdn)),
                ("CK", Conn::Net(clk)),
                ("Q", Conn::Net(q)),
            ],
        )
        .unwrap();
        let r1 = m.find_cell("r1").unwrap();
        let rep = substitute_ffs(&mut m, &lib, &gf, &[r1], gm, gs).unwrap();
        assert!(rep.extra_gates >= 4, "gates: {}", rep.extra_gates);
        // Enables are gated with ORs, so the latches open on assertion.
        let lm = m.find_cell("r1_lm").unwrap();
        assert_ne!(m.cell(lm).pin("G"), Some(Conn::Net(gm)));
        let or_m = m.find_cell("r1_acm").expect("master enable OR");
        assert_eq!(m.cell(or_m).pin("A"), Some(Conn::Net(gm)));
    }

    #[test]
    fn clock_enable_gates_both_enables() {
        let (mut m, lib, gf, gm, gs) = setup();
        let d = m.find_net("d").unwrap();
        let clk = m.find_net("clk").unwrap();
        let q = m.find_net("q").unwrap();
        let en = m.add_net("en").unwrap();
        m.add_cell(
            "r1",
            "DFFEX1",
            &[
                ("D", Conn::Net(d)),
                ("EN", Conn::Net(en)),
                ("CK", Conn::Net(clk)),
                ("Q", Conn::Net(q)),
            ],
        )
        .unwrap();
        let r1 = m.find_cell("r1").unwrap();
        let rep = substitute_ffs(&mut m, &lib, &gf, &[r1], gm, gs).unwrap();
        assert_eq!(rep.extra_gates, 2);
        let gme = m.find_cell("r1_gme").expect("master enable AND");
        let gse = m.find_cell("r1_gse").expect("slave enable AND");
        assert_eq!(m.cell(gme).pin("B"), Some(Conn::Net(en)));
        assert_eq!(m.cell(gse).pin("B"), Some(Conn::Net(en)));
    }

    /// End-to-end behavioural check: a substituted plain DFF driven by
    /// non-overlapping master/slave enables behaves like the original
    /// flip-flop (same captured sequence).
    #[test]
    fn latch_pair_behaves_like_ff() {
        use drd_liberty::Lv;
        use drd_sim::{SimOptions, Simulator};

        let lib = vlib90::high_speed();
        let gf = Gatefile::from_library(&lib).unwrap();
        let build = |substitute: bool| -> drd_netlist::Design {
            let mut m = Module::new("t");
            m.add_port("clk", PortDir::Input).unwrap();
            m.add_port("gm", PortDir::Input).unwrap();
            m.add_port("gs", PortDir::Input).unwrap();
            m.add_port("d", PortDir::Input).unwrap();
            m.add_port("q", PortDir::Output).unwrap();
            let d = m.find_net("d").unwrap();
            let clk = m.find_net("clk").unwrap();
            let q = m.find_net("q").unwrap();
            m.add_cell(
                "r1",
                "DFFX1",
                &[
                    ("D", Conn::Net(d)),
                    ("CK", Conn::Net(clk)),
                    ("Q", Conn::Net(q)),
                ],
            )
            .unwrap();
            if substitute {
                let gm = m.find_net("gm").unwrap();
                let gs = m.find_net("gs").unwrap();
                let r1 = m.find_cell("r1").unwrap();
                substitute_ffs(&mut m, &lib, &gf, &[r1], gm, gs).unwrap();
            }
            let mut design = drd_netlist::Design::new();
            design.insert(m);
            design
        };

        // Reference: flip-flop clocked normally.
        let mut reference = Simulator::new(&build(false), &lib, SimOptions::default()).unwrap();
        reference.poke("clk", Lv::Zero).unwrap();
        let data = [Lv::One, Lv::Zero, Lv::Zero, Lv::One, Lv::One];
        for (i, v) in data.iter().enumerate() {
            let t0 = 10.0 * i as f64;
            reference.poke_at("d", *v, t0 + 1.0).unwrap();
            reference.poke_at("clk", Lv::One, t0 + 5.0).unwrap();
            reference.poke_at("clk", Lv::Zero, t0 + 8.0).unwrap();
        }
        reference.run_for(60.0);

        // DUT: latch pair with non-overlapping enables; the slave closes
        // where the flip-flop's rising edge was.
        let mut dut = Simulator::new(&build(true), &lib, SimOptions::default()).unwrap();
        dut.poke("gm", Lv::Zero).unwrap();
        dut.poke("gs", Lv::Zero).unwrap();
        for (i, v) in data.iter().enumerate() {
            let t0 = 10.0 * i as f64;
            dut.poke_at("d", *v, t0 + 1.0).unwrap();
            // Master transparent while clock low, slave pulses after.
            dut.poke_at("gm", Lv::One, t0 + 2.0).unwrap();
            dut.poke_at("gm", Lv::Zero, t0 + 5.0).unwrap();
            dut.poke_at("gs", Lv::One, t0 + 6.0).unwrap();
            dut.poke_at("gs", Lv::Zero, t0 + 8.0).unwrap();
        }
        dut.run_for(60.0);

        let ref_seq = reference.captures().sequence("r1").unwrap();
        let dut_seq = dut.captures().sequence("r1_ls").unwrap();
        assert_eq!(ref_seq, data.to_vec());
        assert_eq!(dut_seq, data.to_vec());
    }
}
