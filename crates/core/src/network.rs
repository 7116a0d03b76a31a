//! Control-network insertion (§2.4.2, §2.4.5, §3.2.6, Figs. 2.7/2.11).
//!
//! Every region gets a master/slave pair of semi-decoupled controllers.
//! Requests flow along the data-dependency graph: the slave request of
//! each predecessor, joined by a C-element tree and delayed by the
//! region's matched delay element, becomes the master's input request;
//! acknowledgements flow backwards symmetrically. Regions without
//! predecessors (input registers) loop their own slave request back —
//! the environment is always ready, mirroring the synchronous circuit
//! re-sampling its inputs every cycle; regions without successors get an
//! eager output environment (`ao = ro`).

use std::fmt::Write as _;

use drd_netlist::{CellId, Conn, Design, Module, ModuleId, NetId, PinUse};

use crate::celement;
use crate::controller::{build_controller, ControllerRole};
use crate::ddg::Ddg;
use crate::delay_element;
use crate::ffsub::Substitution;
use crate::region::Regions;
use crate::{DesyncError, LibraryFacts};

/// What [`insert_control_network`] built for one controlled region, by
/// ID. The liveness guard edits it along with the netlist (deepen, latch,
/// degrade) and the SDC pass names its cells, so no later pass looks a
/// generated cell or net up by its name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegionControl {
    /// Matched levels of the delay element.
    pub levels: usize,
    /// The slave controller's request out: the loopback request of a
    /// region without controlled predecessors, and a request input of
    /// every controlled successor.
    pub ros: NetId,
    /// The master controller's acknowledge out.
    pub aim: NetId,
    /// Master controller instance.
    pub master: CellId,
    /// Slave controller instance.
    pub slave: CellId,
    /// Delay-element instance.
    pub delem: CellId,
    /// C-elements joining the controlled predecessors' requests.
    pub request_join: Vec<CellId>,
    /// C-elements joining the controlled successors' acknowledges.
    pub ack_join: Vec<CellId>,
    /// The request-extending latch `(C2X1, INVX1)`, once the liveness
    /// guard has inserted one on the loopback.
    pub latch: Option<(CellId, CellId)>,
}

impl RegionControl {
    /// Every cell of the region's control network: the controller pair,
    /// the delay element, the request-extending latch and the joins.
    pub fn cells(&self) -> impl Iterator<Item = CellId> + '_ {
        let latch = self.latch.into_iter().flat_map(|(c, inv)| [c, inv]);
        [self.master, self.slave, self.delem]
            .into_iter()
            .chain(latch)
            .chain(self.request_join.iter().chain(&self.ack_join).copied())
    }
}

/// Report from control-network insertion.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NetworkReport {
    /// Per region, in region-index order: what was built for it. `None`
    /// for a region without flip-flops or one left synchronous.
    pub regions: Vec<Option<RegionControl>>,
}

impl NetworkReport {
    /// Controller instances (2 per controlled region).
    pub fn controllers(&self) -> usize {
        2 * self.delay_elements()
    }

    /// C-elements in the request/acknowledge joins and the
    /// request-extending latches.
    pub fn celements(&self) -> usize {
        self.regions
            .iter()
            .flatten()
            .map(|c| c.request_join.len() + c.ack_join.len() + usize::from(c.latch.is_some()))
            .sum()
    }

    /// Delay-element instances (one per controlled region).
    pub fn delay_elements(&self) -> usize {
        self.regions.iter().flatten().count()
    }

    /// Matched levels of region `i`'s delay element (0 = no controller).
    pub fn delem_levels(&self, i: usize) -> usize {
        self.regions
            .get(i)
            .and_then(Option::as_ref)
            .map_or(0, |c| c.levels)
    }
}

/// Delay-element sizing knobs for [`insert_control_network`].
#[derive(Debug, Clone, Copy)]
pub struct NetworkOptions {
    /// Use 8-tap multiplexed delay elements and add `dsel[2:0]` ports.
    pub muxed: bool,
    /// Safety factor on the matched delay (e.g. 1.1 = +10%).
    pub margin: f64,
}

/// The four handshake nets of one controlled region.
#[derive(Debug, Clone, Copy)]
struct HandshakeNets {
    rom: NetId,
    ros: NetId,
    aim: NetId,
    ais: NetId,
}

/// Inserts the full controller network into `design`'s module `top`.
///
/// `region_delays_ns` holds the typical-corner critical-path delay of each
/// region's logic cloud; delay elements are sized to cover it with
/// `opts.margin`. If `opts.muxed` is set, 8-tap multiplexed delay elements
/// are used and `dsel[2:0]` input ports are added.
///
/// `substitution` holds, in region-index order, the latch-enable nets
/// flip-flop substitution created (a missing entry reads as `None`), and
/// the cells it appended, the only cells that read an enable net. A
/// region without a pair — no flip-flops, or left synchronous — gets no
/// controller pair, no delay element and no handshake nets (its
/// flip-flops keep the original clock), and requests/acknowledges of
/// neighbouring regions simply skip it (environment rules apply).
///
/// # Errors
/// Propagates netlist and STA errors.
#[allow(clippy::too_many_arguments)]
pub fn insert_control_network(
    design: &mut Design,
    top: ModuleId,
    regions: &Regions,
    ddg: &Ddg,
    region_delays_ns: &[f64],
    facts: &LibraryFacts<'_>,
    substitution: &Substitution,
    opts: NetworkOptions,
) -> Result<NetworkReport, DesyncError> {
    let NetworkOptions { muxed, margin } = opts;
    let enables = &substitution.enables;

    // Controller modules (once).
    for role in [ControllerRole::Master, ControllerRole::Slave] {
        if design.find_module(role.module_name()).is_none() {
            design.insert(build_controller(role));
        }
    }

    // Reset / calibration ports.
    let rst = {
        let m = design.module_mut(top);
        match m.find_port("drd_rst") {
            Some(p) => m.port(p).net,
            None => {
                let p = m.add_port("drd_rst", drd_netlist::PortDir::Input)?;
                m.port(p).net
            }
        }
    };
    let sel_nets: Vec<NetId> = if muxed {
        let m = design.module_mut(top);
        (0..3)
            .map(|b| {
                let name = format!("dsel[{b}]");
                match m.find_port(&name) {
                    Some(p) => Ok(m.port(p).net),
                    None => {
                        let p = m.add_port(name, drd_netlist::PortDir::Input)?;
                        Ok(m.port(p).net)
                    }
                }
            })
            .collect::<Result<_, drd_netlist::NetlistError>>()?
    } else {
        Vec::new()
    };

    // Per-region handshake nets of the controlled regions (created
    // up-front so joins can reference any region).
    let nets: Vec<Option<HandshakeNets>> = {
        let m = design.module_mut(top);
        regions
            .regions
            .iter()
            .enumerate()
            .map(|(i, r)| {
                enables.get(i).copied().flatten().map(|_| HandshakeNets {
                    rom: m.add_net_auto(&format!("drd_{}_rom", r.name)),
                    ros: m.add_net_auto(&format!("drd_{}_ros", r.name)),
                    aim: m.add_net_auto(&format!("drd_{}_aim", r.name)),
                    ais: m.add_net_auto(&format!("drd_{}_ais", r.name)),
                })
            })
            .collect()
    };

    // Delay-element sizing: the per-level delay is a library fact,
    // measured on first need, then each region's length is plain
    // arithmetic; modules are created deduplicated, in region-index order.
    let overhead = if muxed { facts.mux_overhead()? } else { 0 };
    let mut delem_levels = vec![0usize; nets.len()];
    for (i, own) in nets.iter().enumerate() {
        if own.is_none() {
            continue;
        }
        let target = region_delays_ns.get(i).copied().unwrap_or(0.0);
        delem_levels[i] = if target <= 0.0 {
            1
        } else {
            delay_element::levels_for_delay(target, margin, facts.level_delay()?)
        };
        let module_name = delem_module_name(muxed, delem_levels[i]);
        if design.find_module(&module_name).is_none() {
            let module = if muxed {
                delay_element::build_muxed(&module_name, delem_levels[i], overhead)
            } else {
                delay_element::build_fixed(&module_name, delem_levels[i])
            };
            design.insert(module);
        }
    }

    // Wiring per region.
    let mut controls = Vec::with_capacity(nets.len());
    for (i, r) in regions.regions.iter().enumerate() {
        let (Some(own), Some((gm, gs))) = (nets[i], enables.get(i).copied().flatten()) else {
            controls.push(None);
            continue;
        };
        let m = design.module_mut(top);

        // Input requests: predecessors' slave ro, joined and delayed.
        let pred_reqs: Vec<NetId> = ddg.preds[i]
            .iter()
            .filter_map(|&p| nets[p].map(|n| n.ros))
            .collect();
        let (raw_req, request_join) = if pred_reqs.is_empty() {
            // Environment loopback: always-ready input.
            (own.ros, Vec::new())
        } else {
            celement::join(m, &pred_reqs, &format!("drd_{}_ri", r.name))?
        };
        let rim = m.add_net_auto(&format!("drd_{}_rim", r.name));
        let delem_name = delem_module_name(muxed, delem_levels[i]);
        let mut delem_pins: Vec<(&str, Conn)> =
            vec![("in1", Conn::Net(raw_req)), ("out1", Conn::Net(rim))];
        let sel_names: Vec<String> = (0..3).map(|b| format!("sel[{b}]")).collect();
        if muxed {
            for (b, sel_net) in sel_nets.iter().enumerate() {
                delem_pins.push((sel_names[b].as_str(), Conn::Net(*sel_net)));
            }
        }
        let delem_inst = m.unique_cell_name(&format!("drd_{}_delem", r.name));
        let delem = m.add_instance(delem_inst, delem_name, &delem_pins)?;

        // Output acknowledgements: successors' master ai, joined.
        let succ_acks: Vec<NetId> = ddg.succs[i]
            .iter()
            .filter_map(|&s| nets[s].map(|n| n.aim))
            .collect();
        let (slave_ao, ack_join) = if succ_acks.is_empty() {
            // Eager output environment: acknowledge own request.
            (own.ros, Vec::new())
        } else {
            celement::join(m, &succ_acks, &format!("drd_{}_ao", r.name))?
        };

        // The controller pair.
        let master_name = m.unique_cell_name(&format!("drd_{}_ctlm", r.name));
        let master = m.add_instance(
            master_name,
            ControllerRole::Master.module_name(),
            &[
                ("ri", Conn::Net(rim)),
                ("ao", Conn::Net(own.ais)),
                ("rst", Conn::Net(rst)),
                ("ai", Conn::Net(own.aim)),
                ("ro", Conn::Net(own.rom)),
                ("g", Conn::Net(gm)),
            ],
        )?;
        let slave_name = m.unique_cell_name(&format!("drd_{}_ctls", r.name));
        let slave = m.add_instance(
            slave_name,
            ControllerRole::Slave.module_name(),
            &[
                ("ri", Conn::Net(own.rom)),
                ("ao", Conn::Net(slave_ao)),
                ("rst", Conn::Net(rst)),
                ("ai", Conn::Net(own.ais)),
                ("ro", Conn::Net(own.ros)),
                ("g", Conn::Net(gs)),
            ],
        )?;
        controls.push(Some(RegionControl {
            levels: delem_levels[i],
            ros: own.ros,
            aim: own.aim,
            master,
            slave,
            delem,
            request_join,
            ack_join,
            latch: None,
        }));
    }

    // Low-skew enable trees: bound every enable net's fanout so large
    // regions' latch phases stay crisp (CTS's job in the paper's backend).
    // Degraded regions have no enable nets and get no tree.
    let enable_nets: Vec<NetId> = enables
        .iter()
        .flatten()
        .flat_map(|&(m, s)| [m, s])
        .collect();
    if !enable_nets.is_empty() {
        // One load table serves every tree: buffering an enable net
        // re-points only that net's own loads, so the table's load lists
        // of all the other enable nets stay exact.
        let m = design.module_mut(top);
        let loads = substitution.enable_loads(m);
        let mut name = String::new();
        for net in enable_nets {
            name.clear();
            name.push_str(m.net(net).name);
            buffer_enable_tree(m, net, &mut name, loads.loads(net), 16)?;
        }
    }
    Ok(NetworkReport { regions: controls })
}

/// Builds a balanced buffer tree so the latch-enable net `net` (named
/// `name`, read by `loads`) drives at most `max_fanout` loads per stage —
/// the low-skew tree CTS would synthesize (§4.5.1); required for correct
/// pre-layout simulation of large regions. The buffers' names are
/// composed in `name`, past the net's name.
fn buffer_enable_tree(
    m: &mut Module,
    net: NetId,
    name: &mut String,
    loads: &[PinUse],
    max_fanout: usize,
) -> Result<(), DesyncError> {
    let base = name.len();
    // After the first level the remaining loads on `net` are exactly the
    // buffers just inserted, so they are tracked directly instead of
    // rescanning the module.
    let mut current: Vec<PinUse> = loads.to_vec();
    while current.len() > max_fanout {
        let mut next: Vec<PinUse> = Vec::with_capacity(current.len().div_ceil(max_fanout));
        for (g, chunk) in current.chunks(max_fanout).enumerate() {
            name.truncate(base);
            let _ = write!(name, "_ct{g}");
            let out = m.add_net_auto(name);
            name.truncate(base);
            name.push_str("_ctb");
            let cell = m.unique_cell_name(name);
            let buf = m.add_cell(
                cell,
                "BUFX2",
                &[("A", Conn::Net(net)), ("Z", Conn::Net(out))],
            )?;
            for p in chunk {
                let pin = m.cell_pins(p.cell)[p.pin as usize].0;
                m.set_pin_sym(p.cell, pin, Conn::Net(out));
            }
            // The buffer's "A" pin (index 0) is the only load the new
            // level leaves on `net` for this chunk.
            next.push(PinUse { cell: buf, pin: 0 });
        }
        current = next;
    }
    Ok(())
}

/// Module name of a delay element: `drd_delem_<levels>` (fixed) or
/// `drd_delemx_<levels>` (muxed). Shared with the liveness guard's
/// deepen surgery and the structural checks.
pub fn delem_module_name(muxed: bool, levels: usize) -> String {
    if muxed {
        format!("drd_delemx_{levels}")
    } else {
        format!("drd_delem_{levels}")
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::panic)]
    use super::*;
    use crate::ddg;
    use crate::ffsub::Substituter;
    use crate::region::{group, GroupingOptions};
    use drd_liberty::gatefile::{Gatefile, MeasuredDelays};
    use drd_liberty::vlib90;
    use drd_netlist::PortDir;

    /// 2-region pipeline ready for network insertion, with what
    /// substitution created.
    fn prepared() -> (Design, ModuleId, Regions, Ddg, Vec<f64>, Substitution) {
        let lib = vlib90::high_speed();
        let gf = Gatefile::from_library(&lib).unwrap();
        let mut m = Module::new("p");
        m.add_port("clk", PortDir::Input).unwrap();
        m.add_port("din", PortDir::Input).unwrap();
        m.add_port("dout", PortDir::Output).unwrap();
        let clk = m.find_net("clk").unwrap();
        let din = m.find_net("din").unwrap();
        let dout = m.find_net("dout").unwrap();
        let q0 = m.add_net("q0").unwrap();
        m.add_cell(
            "r_in",
            "DFFX1",
            &[
                ("D", Conn::Net(din)),
                ("CK", Conn::Net(clk)),
                ("Q", Conn::Net(q0)),
            ],
        )
        .unwrap();
        let n1 = m.add_net("n1").unwrap();
        m.add_cell("c1", "INVX1", &[("A", Conn::Net(q0)), ("Z", Conn::Net(n1))])
            .unwrap();
        m.add_cell(
            "r1",
            "DFFX1",
            &[
                ("D", Conn::Net(n1)),
                ("CK", Conn::Net(clk)),
                ("Q", Conn::Net(dout)),
            ],
        )
        .unwrap();
        let conn = m.connectivity(&lib);
        let regions = group(&m, &lib, &GroupingOptions::recommended(), &conn).unwrap();
        let graph = ddg::build(&m, &lib, &regions, &conn).unwrap();
        // Substitute each region's flip-flops.
        let mut sub = Substituter::new(&lib, &gf);
        let mut enables = Vec::new();
        let first = m.cell_slots();
        for r in &regions.regions {
            let gm = m.add_net_auto(&format!("{}_gm", r.name));
            let gs = m.add_net_auto(&format!("{}_gs", r.name));
            sub.substitute(&mut m, &r.seq_cells, gm, gs).unwrap();
            enables.push(Some((gm, gs)));
        }
        let cells = first..m.cell_slots();
        let delays = vec![0.1; regions.regions.len()];
        let mut design = Design::new();
        let top = design.insert(m);
        let substitution = Substitution { enables, cells };
        (design, top, regions, graph, delays, substitution)
    }

    #[test]
    fn network_insertion_wires_controller_pairs() {
        let (mut design, top, regions, graph, delays, substitution) = prepared();
        let lib = vlib90::high_speed();
        let opts = NetworkOptions {
            muxed: false,
            margin: 1.1,
        };
        let measured = MeasuredDelays::default();
        let facts = LibraryFacts::new(&lib, &measured);
        let report = insert_control_network(
            &mut design,
            top,
            &regions,
            &graph,
            &delays,
            &facts,
            &substitution,
            opts,
        )
        .unwrap();
        assert_eq!(report.controllers(), 4, "2 regions × (master + slave)");
        assert_eq!(report.delay_elements(), 2);
        let m = design.module(top);
        assert!(m.find_port("drd_rst").is_some());
        // The region with a predecessor has its request joined/delayed
        // from the predecessor's slave request.
        assert!(design.find_module("drd_ctrl_master").is_some());
        assert!(design.find_module("drd_ctrl_slave").is_some());
        // Every controlled region has a delay element instance.
        let delems = m
            .cells()
            .filter(|(_, c)| c.kind_name().starts_with("drd_delem"))
            .count();
        assert_eq!(delems, 2);
        // The table holds the IDs of what was built for each region,
        // and the controllers drive the enable nets they were handed.
        for (c, enable) in report.regions.iter().zip(&substitution.enables) {
            let (c, (gm, gs)) = (c.as_ref().unwrap(), enable.unwrap());
            let (master, slave) = (m.cell(c.master), m.cell(c.slave));
            assert_eq!(master.kind_name(), "drd_ctrl_master");
            assert_eq!(slave.kind_name(), "drd_ctrl_slave");
            assert_eq!(m.cell(c.delem).pin("out1"), master.pin("ri"));
            assert_eq!(master.pin("ai"), Some(Conn::Net(c.aim)));
            assert_eq!(master.pin("g"), Some(Conn::Net(gm)));
            assert_eq!(slave.pin("ro"), Some(Conn::Net(c.ros)));
            assert_eq!(slave.pin("g"), Some(Conn::Net(gs)));
        }
    }

    #[test]
    fn region_without_enable_nets_gets_no_controller_or_delay_element() {
        let (mut design, top, regions, graph, delays, mut substitution) = prepared();
        let lib = vlib90::high_speed();
        let opts = NetworkOptions {
            muxed: false,
            margin: 1.1,
        };
        let g1 = regions.regions.iter().position(|r| r.name == "g1").unwrap();
        substitution.enables[g1] = None;
        let measured = MeasuredDelays::default();
        let facts = LibraryFacts::new(&lib, &measured);
        let report = insert_control_network(
            &mut design,
            top,
            &regions,
            &graph,
            &delays,
            &facts,
            &substitution,
            opts,
        )
        .unwrap();
        assert_eq!(report.controllers(), 2, "only the region with enable nets");
        assert_eq!(report.delay_elements(), 1);
        assert_eq!(report.regions[g1], None);
        assert_eq!(report.delem_levels(g1), 0);
        let m = design.module(top);
        assert!(m.find_cell("drd_g1_ctlm").is_none());
        assert!(m.find_cell("drd_g1_delem").is_none());
    }

    #[test]
    fn muxed_network_adds_sel_ports() {
        let (mut design, top, regions, graph, delays, substitution) = prepared();
        let lib = vlib90::high_speed();
        let opts = NetworkOptions {
            muxed: true,
            margin: 1.1,
        };
        let measured = MeasuredDelays::default();
        let facts = LibraryFacts::new(&lib, &measured);
        let report = insert_control_network(
            &mut design,
            top,
            &regions,
            &graph,
            &delays,
            &facts,
            &substitution,
            opts,
        )
        .unwrap();
        let m = design.module(top);
        for b in 0..3 {
            assert!(m.find_port(&format!("dsel[{b}]")).is_some());
        }
        assert!(report.regions.iter().flatten().all(|c| c.levels >= 1));
        assert!(design
            .modules()
            .any(|(_, module)| module.name.starts_with("drd_delemx_")));
    }
}
