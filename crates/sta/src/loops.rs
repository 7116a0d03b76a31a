//! Timing-loop detection and breaking (§4.6.1).
//!
//! The controller network is a genuinely cyclic circuit, which conventional
//! STA cannot analyze: "any cycles in the combinational netlist must be
//! broken, i.e. some edges must be removed. Such edges can be, for example,
//! those classified as back-edges by the STA graph traversal algorithm. …
//! the places where the graph is cut are arbitrary with respect to the
//! design's functionality" — which is why the paper cuts the controller
//! loops *by hand* at specific timing-disabled pins instead. This module
//! provides both mechanisms: [`TimingGraph::disable_pin`] for the manual
//! cuts, and [`TimingGraph::break_loops`] for the automatic DFS back-edge
//! fallback.

use crate::graph::{NodeId, TimingGraph};

/// Result of automatic loop breaking.
#[derive(Debug, Clone, Default)]
pub struct LoopReport {
    /// Edges that were cut, as `(from-name, to-name)` pairs.
    pub cut_edges: Vec<(String, String)>,
}

impl LoopReport {
    /// Number of cut edges.
    pub fn cut_count(&self) -> usize {
        self.cut_edges.len()
    }
}

impl TimingGraph<'_> {
    /// Detects cycles among the active edges and cuts every DFS back-edge,
    /// returning what was cut. Deterministic: DFS visits nodes in id order
    /// and each node's out-edges in edge-id order.
    pub fn break_loops(&mut self) -> LoopReport {
        #[derive(Clone, Copy, PartialEq)]
        enum Color {
            White,
            Gray,
            Black,
        }
        let n = self.node_count();
        let mut color = vec![Color::White; n];
        let mut cuts: Vec<u32> = Vec::new();

        // Iterative DFS to survive deep graphs. Stack of (node, position
        // in its out-edges).
        let mut stack: Vec<(usize, usize)> = Vec::new();
        for root in 0..n {
            if color[root] != Color::White {
                continue;
            }
            stack.push((root, 0));
            color[root] = Color::Gray;
            while let Some(&mut (node, ref mut pos)) = stack.last_mut() {
                let out = self.out_edges_of(node);
                let mut next = None;
                while let Some(&e) = out.get(*pos) {
                    *pos += 1;
                    if self.disabled[e as usize] {
                        continue;
                    }
                    let to = self.edges[e as usize].to as usize;
                    match color[to] {
                        Color::White => {
                            next = Some(to);
                            break;
                        }
                        // Back edge: cut it.
                        Color::Gray => cuts.push(e),
                        Color::Black => {}
                    }
                }
                match next {
                    Some(to) => {
                        color[to] = Color::Gray;
                        stack.push((to, 0));
                    }
                    None => {
                        color[node] = Color::Black;
                        stack.pop();
                    }
                }
            }
        }

        let mut report = LoopReport::default();
        for e in cuts {
            self.disabled[e as usize] = true;
            let edge = self.edges[e as usize];
            report.cut_edges.push((
                self.node_name(NodeId(edge.from)),
                self.node_name(NodeId(edge.to)),
            ));
        }
        report
    }

    /// Returns a node on or behind a remaining active cycle, or `None` if
    /// the graph is acyclic (used to verify that manual cuts were
    /// sufficient).
    pub fn find_cycle(&self) -> Option<NodeId> {
        self.topological(|_| {})
    }
}

#[cfg(test)]
mod tests {
    use crate::graph::TimingGraph;
    use drd_liberty::vlib90;
    use drd_netlist::{Conn, Module, PortDir};

    /// A ring oscillator: three inverters in a loop.
    fn ring() -> Module {
        let mut m = Module::new("ring");
        let n0 = m.add_net("n0").unwrap();
        let n1 = m.add_net("n1").unwrap();
        let n2 = m.add_net("n2").unwrap();
        m.add_cell("i0", "INVX1", &[("A", Conn::Net(n0)), ("Z", Conn::Net(n1))])
            .unwrap();
        m.add_cell("i1", "INVX1", &[("A", Conn::Net(n1)), ("Z", Conn::Net(n2))])
            .unwrap();
        m.add_cell("i2", "INVX1", &[("A", Conn::Net(n2)), ("Z", Conn::Net(n0))])
            .unwrap();
        m
    }

    #[test]
    fn detects_and_breaks_ring() {
        let lib = vlib90::high_speed();
        let r = ring();
        let mut g = TimingGraph::build(&r, &lib).unwrap();
        assert!(g.find_cycle().is_some());
        let report = g.break_loops();
        assert_eq!(report.cut_count(), 1);
        assert!(g.find_cycle().is_none());
    }

    #[test]
    fn manual_disable_also_breaks() {
        let lib = vlib90::high_speed();
        let m = ring();
        let mut g = TimingGraph::build(&m, &lib).unwrap();
        assert!(g.disable_pin(m.find_cell("i1").unwrap(), m.lookup_sym("Z").unwrap()));
        assert!(g.find_cycle().is_none());
        // Nothing left for the automatic pass.
        assert_eq!(g.break_loops().cut_count(), 0);
    }

    #[test]
    fn acyclic_graph_unchanged() {
        let lib = vlib90::high_speed();
        let mut m = Module::new("t");
        m.add_port("a", PortDir::Input).unwrap();
        let a = m.find_net("a").unwrap();
        let n = m.add_net("n").unwrap();
        m.add_cell("u", "INVX1", &[("A", Conn::Net(a)), ("Z", Conn::Net(n))])
            .unwrap();
        let mut g = TimingGraph::build(&m, &lib).unwrap();
        assert!(g.find_cycle().is_none());
        assert_eq!(g.break_loops().cut_count(), 0);
    }

    #[test]
    fn break_is_deterministic() {
        let lib = vlib90::high_speed();
        let r = ring();
        let mut g1 = TimingGraph::build(&r, &lib).unwrap();
        let mut g2 = TimingGraph::build(&r, &lib).unwrap();
        assert_eq!(g1.break_loops().cut_edges, g2.break_loops().cut_edges);
    }
}
