//! Analytical backend: placement, buffering, CTS and core bookkeeping
//! (§4.7), standing in for Synopsys Astro.
//!
//! The paper's post-layout rows (Tables 5.1/5.2) are area bookkeeping:
//! cell/net counts grow through buffering and clock/enable-tree
//! synthesis, the standard-cell area grows accordingly, and
//! `core size = standard-cell area / utilization`. This module reproduces
//! that bookkeeping:
//!
//! * high-fanout nets get buffer trees (`max_fanout` loads per driver),
//! * every clock-like net — the synchronous clock, or each controller
//!   latch-enable net in the desynchronized circuit, handed over by ID
//!   from the flow result — gets a low-skew buffer tree (CTS),
//! * utilization is a floorplan input; the paper's runs used ≈95 %
//!   (synchronous DLX), ≈91 % (desynchronized DLX, whose many independent
//!   enable trees demand routing margin), and a pre-existing fixed
//!   floorplan for the synchronous ARM. A `fixed_core_size` mirrors the
//!   latter.

use drd_liberty::Library;
use drd_netlist::{Conn, Design, Endpoint, Module, NetId};

use drd_core::DesyncError;

/// Backend options.
#[derive(Debug, Clone)]
pub struct BackendOptions {
    /// Floorplan utilization target (ignored when `fixed_core_size` set).
    pub utilization: f64,
    /// Maximum loads per driver before a buffer tree is inserted.
    pub max_fanout: usize,
    /// Use a pre-existing floorplan of this size (the paper's ARM case).
    pub fixed_core_size: Option<f64>,
}

impl Default for BackendOptions {
    fn default() -> Self {
        BackendOptions {
            utilization: 0.95,
            max_fanout: 16,
            fixed_core_size: None,
        }
    }
}

/// The post-layout row of Tables 5.1/5.2.
#[derive(Debug, Clone, PartialEq)]
pub struct LayoutResult {
    /// Net count after buffering/CTS.
    pub nets: usize,
    /// Cell count after buffering/CTS.
    pub cells: usize,
    /// Standard-cell area.
    pub std_cell_area: f64,
    /// Core size (`area / utilization`).
    pub core_size: f64,
    /// Resulting utilization (%).
    pub utilization: f64,
    /// Buffers inserted for fanout control.
    pub fanout_buffers: usize,
    /// Buffers inserted by clock/enable-tree synthesis.
    pub tree_buffers: usize,
}

/// Runs the analytical backend over `design`'s top (flattened first).
///
/// `enables` are a desynchronized design's per-region latch-enable nets,
/// by ID into its top module ([`drd_core::ffsub::Substitution::enables`]);
/// each gets a clock tree. When there are none, the clock is
/// auto-detected and gets the tree instead.
///
/// # Errors
/// Propagates netlist errors.
pub fn place_and_route(
    design: &Design,
    lib: &Library,
    opts: &BackendOptions,
    enables: &[Option<(NetId, NetId)>],
) -> Result<LayoutResult, DesyncError> {
    let mut flat = drd_netlist::flatten(design, design.top())?;

    // Clock-like nets: a top-level net keeps its name through
    // flattening, which is how each enable net crosses into `flat`.
    let top = design.top_module();
    let mut clock_like: Vec<NetId> = (enables.iter().flatten())
        .flat_map(|&(gm, gs)| [gm, gs])
        .filter_map(|n| flat.find_net(top.net(n).name))
        .collect();
    if clock_like.is_empty() {
        clock_like.extend(drd_core::region::find_clock_net(&flat, lib));
    }

    // CTS: buffer trees on clock-like nets.
    let mut tree_buffers = 0usize;
    for &net in &clock_like {
        tree_buffers += buffer_tree(&mut flat, lib, net, opts.max_fanout, "cts")?;
    }
    // Fanout buffering on ordinary nets.
    let mut fanout_buffers = 0usize;
    loop {
        let conn = flat.connectivity(lib)?;
        let mut worst: Option<(drd_netlist::NetId, usize)> = None;
        for (nid, _) in flat.nets() {
            if clock_like.contains(&nid) {
                continue;
            }
            let loads = conn.loads(nid).len();
            if loads > opts.max_fanout && worst.map(|(_, l)| loads > l).unwrap_or(true) {
                worst = Some((nid, loads));
            }
        }
        let Some((nid, _)) = worst else { break };
        fanout_buffers += buffer_tree(&mut flat, lib, nid, opts.max_fanout, "fob")?;
    }

    let counts = drd_netlist::stats::counts(&flat);
    let area =
        drd_netlist::stats::area_breakdown(&flat, |k| lib.area_of(k), |k| lib.is_sequential(k));
    let (core_size, utilization) = match opts.fixed_core_size {
        Some(core) => (core, area.cell_area / core),
        None => (area.cell_area / opts.utilization, opts.utilization),
    };
    Ok(LayoutResult {
        nets: counts.nets,
        cells: counts.cells,
        std_cell_area: area.cell_area,
        core_size,
        utilization: utilization * 100.0,
        fanout_buffers,
        tree_buffers,
    })
}

/// Splits `net`'s loads into groups of ≤ `max_fanout` behind buffers;
/// recurses until the driver itself has ≤ `max_fanout` loads. Returns the
/// number of buffers inserted.
fn buffer_tree(
    module: &mut Module,
    lib: &Library,
    net: drd_netlist::NetId,
    max_fanout: usize,
    tag: &str,
) -> Result<usize, DesyncError> {
    let mut inserted = 0usize;
    loop {
        let conn = module.connectivity(lib)?;
        let loads: Vec<Endpoint> = conn.loads(net).to_vec();
        if loads.len() <= max_fanout {
            return Ok(inserted);
        }
        // Group loads and insert one buffer per group.
        for (g, chunk) in loads.chunks(max_fanout).enumerate() {
            let buf_out = module.add_net_auto(&format!(
                "{}_{tag}{g}",
                module.net(net).name.replace(['[', ']'], "_")
            ));
            let cell = module.unique_cell_name(&format!("u_{tag}"));
            module.add_cell(
                cell,
                "BUFX2",
                &[("A", Conn::Net(net)), ("Z", Conn::Net(buf_out))],
            )?;
            inserted += 1;
            for load in chunk {
                if let Endpoint::Pin(p) = load {
                    let pin = module.cell_pins(p.cell)[p.pin as usize].0;
                    module.set_pin_sym(p.cell, pin, Conn::Net(buf_out));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use drd_liberty::vlib90;
    use drd_netlist::PortDir;

    fn star(fanout: usize) -> Design {
        let mut m = Module::new("star");
        m.add_port("clk", PortDir::Input).unwrap();
        m.add_port("a", PortDir::Input).unwrap();
        let clk = m.find_net("clk").unwrap();
        let a = m.find_net("a").unwrap();
        for i in 0..fanout {
            let q = m.add_net(format!("q{i}")).unwrap();
            m.add_cell(
                format!("r{i}"),
                "DFFX1",
                &[
                    ("D", Conn::Net(a)),
                    ("CK", Conn::Net(clk)),
                    ("Q", Conn::Net(q)),
                ],
            )
            .unwrap();
        }
        let mut d = Design::new();
        d.insert(m);
        d
    }

    #[test]
    fn clock_tree_and_fanout_buffering() {
        let lib = vlib90::high_speed();
        let d = star(40);
        let opts = BackendOptions {
            max_fanout: 8,
            ..BackendOptions::default()
        };
        let result = place_and_route(&d, &lib, &opts, &[]).unwrap();
        // 40 clock loads → tree buffers; 40 data loads → fanout buffers.
        assert!(result.tree_buffers >= 5, "{result:?}");
        assert!(result.fanout_buffers >= 5, "{result:?}");
        assert_eq!(
            result.cells,
            40 + result.tree_buffers + result.fanout_buffers
        );
        assert!(result.core_size > result.std_cell_area);
        assert!((result.utilization - 95.0).abs() < 1e-9);
    }

    /// `star(fanout)` plus a data net `name` with `loads` loads.
    fn star_with_net(fanout: usize, name: &str, loads: usize) -> Design {
        let mut d = star(fanout);
        let m = d.top_module_mut();
        let a = m.find_net("a").unwrap();
        let n = m.add_net(name).unwrap();
        m.add_cell("drv", "INVX1", &[("A", Conn::Net(a)), ("Z", Conn::Net(n))])
            .unwrap();
        for i in 0..loads {
            let z = m.add_net(format!("z{i}")).unwrap();
            m.add_cell(
                format!("l{i}"),
                "INVX1",
                &[("A", Conn::Net(n)), ("Z", Conn::Net(z))],
            )
            .unwrap();
        }
        d
    }

    /// A user net named like a generated enable net is an ordinary net:
    /// the clock, not it, gets the tree.
    #[test]
    fn user_net_named_like_an_enable_net_gets_no_clock_tree() {
        let lib = vlib90::high_speed();
        let opts = BackendOptions {
            max_fanout: 8,
            ..BackendOptions::default()
        };
        let layout =
            |name| place_and_route(&star_with_net(20, name, 40), &lib, &opts, &[]).unwrap();
        let (user, twin) = (layout("drd_a_gm"), layout("n_a"));
        assert_eq!(user, twin);
        assert!(twin.tree_buffers >= 3, "{twin:?}");
    }

    #[test]
    fn fixed_core_size_derives_utilization() {
        let lib = vlib90::high_speed();
        let d = star(4);
        let opts = BackendOptions {
            fixed_core_size: Some(2000.0),
            ..BackendOptions::default()
        };
        let result = place_and_route(&d, &lib, &opts, &[]).unwrap();
        assert_eq!(result.core_size, 2000.0);
        assert!(result.utilization < 95.0);
    }

    #[test]
    fn buffering_respects_max_fanout() {
        let lib = vlib90::high_speed();
        let d = star(64);
        let opts = BackendOptions {
            max_fanout: 8,
            ..BackendOptions::default()
        };
        let _ = place_and_route(&d, &lib, &opts, &[]).unwrap();
        // Rebuild to verify invariant on the flattened result: rerun and
        // inspect manually.
        let mut flat = drd_netlist::flatten(&d, d.top()).unwrap();
        for name in ["clk", "a"] {
            let net = flat.find_net(name).unwrap();
            super::buffer_tree(&mut flat, &lib, net, 8, "t").unwrap();
        }
        let conn = flat.connectivity(&lib).unwrap();
        for (nid, _) in flat.nets() {
            assert!(conn.loads(nid).len() <= 8, "net over fanout");
        }
    }
}
