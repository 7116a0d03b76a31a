//! Netlist statistics: the raw material of the paper's area tables
//! (Table 5.1 / Table 5.2 rows: `# nets`, `# cells`, cell area,
//! combinational vs sequential area).

use crate::{Conn, KindRef, Module};

/// Basic object counts of a module.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    /// Nets referenced by at least one live pin, port or constant tie.
    pub nets: usize,
    /// Live cells.
    pub cells: usize,
    /// Module ports.
    pub ports: usize,
}

/// Counts live objects in `module`.
pub fn counts(module: &Module) -> Counts {
    let mut used = vec![false; module.net_count()];
    for (_, p) in module.ports() {
        used[p.net.index()] = true;
    }
    for (_, c) in module.cells() {
        for (_, conn) in c.pins() {
            if let Conn::Net(n) = conn {
                used[n.index()] = true;
            }
        }
    }
    for &(n, _) in module.const_ties() {
        used[n.index()] = true;
    }
    Counts {
        nets: used.iter().filter(|u| **u).count(),
        cells: module.cell_count(),
        ports: module.port_count(),
    }
}

/// Area split between combinational and sequential logic.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct AreaBreakdown {
    /// Total cell area.
    pub cell_area: f64,
    /// Area of combinational cells.
    pub combinational: f64,
    /// Area of sequential cells (flip-flops, latches, C-elements).
    pub sequential: f64,
}

/// Computes the module's area breakdown.
///
/// `area_of` maps a cell kind to its area (module instances should report
/// their flattened contents' area); `is_sequential` classifies kinds.
pub fn area_breakdown(
    module: &Module,
    mut area_of: impl FnMut(KindRef<'_>) -> f64,
    mut is_sequential: impl FnMut(KindRef<'_>) -> bool,
) -> AreaBreakdown {
    let mut b = AreaBreakdown::default();
    for (_, cell) in module.cells() {
        let a = area_of(cell.kind_ref());
        b.cell_area += a;
        if is_sequential(cell.kind_ref()) {
            b.sequential += a;
        } else {
            b.combinational += a;
        }
    }
    b
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PortDir;

    #[test]
    fn counts_ignore_orphan_nets_and_dead_cells() {
        let mut m = Module::new("t");
        m.add_port("a", PortDir::Input).unwrap();
        let a = m.find_net("a").unwrap();
        let z = m.add_net("z").unwrap();
        m.add_net("orphan").unwrap();
        let u = m
            .add_cell("u", "INVX1", &[("A", Conn::Net(a)), ("Z", Conn::Net(z))])
            .unwrap();
        let c = counts(&m);
        assert_eq!(
            c,
            Counts {
                nets: 2,
                cells: 1,
                ports: 1
            }
        );
        m.remove_cell(u);
        let c = counts(&m);
        assert_eq!(c.cells, 0);
        assert_eq!(c.nets, 1); // only the port net remains referenced
    }

    #[test]
    fn area_split() {
        let mut m = Module::new("t");
        let n = m.add_net("n").unwrap();
        m.add_cell("u1", "INVX1", &[("A", Conn::Net(n))]).unwrap();
        m.add_cell("r1", "DFFX1", &[("D", Conn::Net(n))]).unwrap();
        let b = area_breakdown(
            &m,
            |k| if k.name() == "DFFX1" { 5.0 } else { 1.5 },
            |k: KindRef<'_>| k.name() == "DFFX1",
        );
        assert_eq!(b.cell_area, 6.5);
        assert_eq!(b.combinational, 1.5);
        assert_eq!(b.sequential, 5.0);
    }
}
