//! Data-dependency graph construction (§2.4.1, §3.2.4, Fig. 2.6).
//!
//! Nodes are regions; a directed edge `r1 → r2` records a combinational
//! path from an output of `r1` (a register output, since region outputs
//! are always driven by registers) to an input of `r2`. The controller
//! network must respect these dependencies (Fig. 2.7).

use drd_liberty::Library;
use drd_netlist::{Conn, Connectivity, Endpoint, Module, NetlistError};

use crate::region::{CellKinds, Regions};
use crate::DesyncError;

/// The region-level data-dependency graph.
#[derive(Debug, Clone)]
pub struct Ddg {
    /// Directed edges `(from, to)` over region indices.
    pub edges: Vec<(usize, usize)>,
    /// Predecessors per region.
    pub preds: Vec<Vec<usize>>,
    /// Successors per region.
    pub succs: Vec<Vec<usize>>,
    /// Regions with no predecessors, cached at build time.
    sources: Vec<usize>,
    /// Regions with no successors, cached at build time.
    sinks: Vec<usize>,
}

impl Ddg {
    /// Regions with no predecessors (fed only by primary inputs).
    /// Computed once in [`build`]; callers that need ownership can
    /// `.to_vec()` the returned slice.
    pub fn sources(&self) -> &[usize] {
        &self.sources
    }

    /// Regions with no successors. Cached at build time like
    /// [`Ddg::sources`].
    pub fn sinks(&self) -> &[usize] {
        &self.sinks
    }
}

/// Builds the data-dependency graph of `regions` over `module`.
///
/// Self-edges are recorded when a region's cloud reads its own registers
/// (e.g. a counter or an accumulator): the region's own master then
/// consumes its own slave's data, and the controller network must join it
/// into both the request and acknowledge paths.
///
/// `conn` is `module`'s connectivity as [`Module::connectivity`] builds it
/// against `lib`, or that build's error, which is returned first.
///
/// # Errors
/// Propagates connectivity errors.
pub fn build(
    module: &Module,
    lib: &Library,
    regions: &Regions,
    conn: &Result<Connectivity, NetlistError>,
) -> Result<Ddg, DesyncError> {
    let conn = conn.as_ref().map_err(|e| e.clone())?;
    let kinds = CellKinds::new(module, lib);
    // Every `(from, to)` met, one per reading pin, deduplicated by sorting
    // once at the end: the list grows with the pins, not with the square
    // of the region count. A pin usually repeats the edge its cell's
    // previous pin found, so that run is skipped on the spot.
    let mut edges: Vec<(usize, usize)> = Vec::new();
    for cid in module.cell_ids() {
        let Some(to) = regions.region_of(cid) else {
            continue;
        };
        for &(_, c) in module.cell_pins(cid) {
            let Conn::Net(net) = c else { continue };
            let Some(Endpoint::Pin(p)) = conn.driver(net) else {
                continue;
            };
            if p.cell == cid {
                continue; // the cell's own output pin
            }
            let Some(from) = regions.region_of(p.cell) else {
                continue;
            };
            // The cloud reading the region's own registers is a self-edge.
            let edge = if from != to {
                (from, to)
            } else if kinds.is_sequential(module.cell_kind(p.cell)) {
                (from, from)
            } else {
                continue;
            };
            if edges.last() != Some(&edge) {
                edges.push(edge);
            }
        }
    }
    let n = regions.regions.len();
    edges.sort_unstable();
    edges.dedup();
    let mut preds = vec![Vec::new(); n];
    let mut succs = vec![Vec::new(); n];
    for &(from, to) in &edges {
        succs[from].push(to);
        preds[to].push(from);
    }
    let sources = (0..n).filter(|&r| preds[r].is_empty()).collect();
    let sinks = (0..n).filter(|&r| succs[r].is_empty()).collect();
    Ok(Ddg {
        edges,
        preds,
        succs,
        sources,
        sinks,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::region::{group, GroupingOptions};
    use drd_liberty::vlib90;
    use drd_netlist::PortDir;

    /// in → r_in(g0) → c1 → r1 → c2 → r2, with c2 also reading r_in.
    fn pipeline() -> Module {
        let mut m = Module::new("p");
        m.add_port("clk", PortDir::Input).unwrap();
        m.add_port("din", PortDir::Input).unwrap();
        let clk = m.find_net("clk").unwrap();
        let din = m.find_net("din").unwrap();
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
        let q1 = m.add_net("q1").unwrap();
        m.add_cell(
            "r1",
            "DFFX1",
            &[
                ("D", Conn::Net(n1)),
                ("CK", Conn::Net(clk)),
                ("Q", Conn::Net(q1)),
            ],
        )
        .unwrap();
        let n2 = m.add_net("n2").unwrap();
        m.add_cell(
            "c2",
            "NAND2X1",
            &[
                ("A", Conn::Net(q1)),
                ("B", Conn::Net(q0)),
                ("Z", Conn::Net(n2)),
            ],
        )
        .unwrap();
        let q2 = m.add_net("q2").unwrap();
        m.add_cell(
            "r2",
            "DFFX1",
            &[
                ("D", Conn::Net(n2)),
                ("CK", Conn::Net(clk)),
                ("Q", Conn::Net(q2)),
            ],
        )
        .unwrap();
        m
    }

    #[test]
    fn pipeline_dependencies() {
        let m = pipeline();
        let lib = vlib90::high_speed();
        let conn = m.connectivity(&lib);
        let regions = group(&m, &lib, &GroupingOptions::recommended(), &conn).unwrap();
        let ddg = build(&m, &lib, &regions, &conn).unwrap();

        let idx = |cell: &str| regions.region_of(m.find_cell(cell).unwrap()).unwrap();
        let (rg1, rg2, rg0) = (idx("r1"), idx("r2"), idx("r_in"));
        // g0 → stage1, g0 → stage2 (c2 reads q0 directly), stage1 → stage2.
        assert!(ddg.edges.contains(&(rg0, rg1)));
        assert!(ddg.edges.contains(&(rg0, rg2)));
        assert!(ddg.edges.contains(&(rg1, rg2)));
        assert_eq!(ddg.edges.len(), 3, "no self loops in a pure pipeline");
        assert_eq!(ddg.sources(), &[rg0]);
        assert_eq!(ddg.sinks(), &[rg2]);
        // The cached lists agree with a fresh scan of the adjacency lists.
        let scan_sources: Vec<usize> = (0..ddg.preds.len())
            .filter(|&r| ddg.preds[r].is_empty())
            .collect();
        let scan_sinks: Vec<usize> = (0..ddg.succs.len())
            .filter(|&r| ddg.succs[r].is_empty())
            .collect();
        assert_eq!(ddg.sources(), scan_sources.as_slice());
        assert_eq!(ddg.sinks(), scan_sinks.as_slice());
        assert_eq!(ddg.preds[rg2].len(), 2);
    }

    #[test]
    fn feedback_produces_cyclic_ddg() {
        // r2's cloud feeds back into stage 1 → cycle in the DDG.
        let mut m = pipeline();
        let lib = vlib90::high_speed();
        let q2 = m.find_net("q2").unwrap();
        let c1 = m.find_cell("c1").unwrap();
        // Replace c1 with a 2-input gate reading q2 as well.
        let q0 = m.find_net("q0").unwrap();
        let n1 = m.find_net("n1").unwrap();
        m.remove_cell(c1);
        m.add_cell(
            "c1",
            "NAND2X1",
            &[
                ("A", Conn::Net(q0)),
                ("B", Conn::Net(q2)),
                ("Z", Conn::Net(n1)),
            ],
        )
        .unwrap();
        let conn = m.connectivity(&lib);
        let regions = group(&m, &lib, &GroupingOptions::recommended(), &conn).unwrap();
        let ddg = build(&m, &lib, &regions, &conn).unwrap();
        let idx = |cell: &str| regions.region_of(m.find_cell(cell).unwrap()).unwrap();
        let (r1, r2) = (idx("r1"), idx("r2"));
        assert!(ddg.edges.contains(&(r1, r2)));
        assert!(ddg.edges.contains(&(r2, r1)));
    }

    #[test]
    fn an_edge_read_through_several_cells_is_listed_once() {
        // A third stage whose cells read stage 1 twice with a read of g0
        // in between: the repeat is not the pin before it, so only the
        // final sort-and-dedup can drop it.
        let mut m = pipeline();
        let lib = vlib90::high_speed();
        let net = |m: &Module, n: &str| Conn::Net(m.find_net(n).unwrap());
        let (q0, q1, clk) = (net(&m, "q0"), net(&m, "q1"), net(&m, "clk"));
        let [a, b, d, q3] = ["n3a", "n3b", "n3d", "q3"].map(|n| Conn::Net(m.add_net(n).unwrap()));
        m.add_cell("c3a", "NAND2X1", &[("A", q1), ("B", q0), ("Z", a)])
            .unwrap();
        m.add_cell("c3b", "INVX1", &[("A", q1), ("Z", b)]).unwrap();
        m.add_cell("c3d", "AND2X1", &[("A", a), ("B", b), ("Z", d)])
            .unwrap();
        m.add_cell("r3", "DFFX1", &[("D", d), ("CK", clk), ("Q", q3)])
            .unwrap();
        let conn = m.connectivity(&lib);
        let regions = group(&m, &lib, &GroupingOptions::recommended(), &conn).unwrap();
        let ddg = build(&m, &lib, &regions, &conn).unwrap();
        let idx = |cell: &str| regions.region_of(m.find_cell(cell).unwrap()).unwrap();
        let (rg0, rg1, rg3) = (idx("r_in"), idx("r1"), idx("r3"));
        assert!(ddg.edges.windows(2).all(|w| w[0] < w[1]), "{:?}", ddg.edges);
        let mut want = vec![rg0, rg1];
        want.sort_unstable();
        assert_eq!(ddg.preds[rg3], want);
    }
}
