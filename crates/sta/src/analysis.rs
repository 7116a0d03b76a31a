//! Arrival-time propagation and critical-path extraction.

use drd_liberty::Corner;

use crate::graph::{NodeId, TimingGraph};
use crate::StaError;

/// One step of a reported timing path.
#[derive(Debug, Clone, PartialEq)]
pub struct PathStep {
    /// The node (`instance/pin` or port name).
    pub node: String,
    /// Arrival time at this node (ns, derated to the analysis corner).
    pub arrival: f64,
}

/// Max-arrival times for every node of a graph, at one corner.
#[derive(Debug, Clone)]
pub struct Arrivals<'g> {
    graph: &'g TimingGraph<'g>,
    arrivals: Vec<f64>,
    /// Predecessor node on the worst path, for traceback ([`NO_PRED`] at
    /// sources).
    worst_pred: Vec<u32>,
}

/// `worst_pred` entry of a node with no active in-edge.
const NO_PRED: u32 = u32::MAX;

impl Arrivals<'_> {
    /// Arrival time at `node`.
    pub fn at(&self, node: NodeId) -> f64 {
        self.arrivals[node.0 as usize]
    }

    /// The largest arrival anywhere in the graph.
    pub fn max_arrival(&self) -> f64 {
        self.arrivals.iter().copied().fold(0.0, f64::max)
    }

    /// The largest arrival over timing endpoints (sequential data inputs
    /// and output ports) — the number that sizes a region's delay element.
    pub fn max_endpoint_arrival(&self) -> f64 {
        self.graph
            .endpoints()
            .map(|n| self.arrivals[n.0 as usize])
            .fold(0.0, f64::max)
    }

    /// The worst endpoint and its arrival, if any endpoint exists.
    pub fn worst_endpoint(&self) -> Option<(NodeId, f64)> {
        self.graph
            .endpoints()
            .map(|n| (n, self.arrivals[n.0 as usize]))
            .max_by(|a, b| a.1.total_cmp(&b.1))
    }

    /// Reconstructs the critical path ending at `node` (source first).
    pub fn path_to(&self, node: NodeId) -> Vec<PathStep> {
        let mut steps = Vec::new();
        let mut cur = node.0;
        while cur != NO_PRED {
            steps.push(PathStep {
                node: self.graph.node_name(NodeId(cur)),
                arrival: self.arrivals[cur as usize],
            });
            cur = self.worst_pred[cur as usize];
        }
        steps.reverse();
        steps
    }

    /// The critical path to the worst endpoint (empty if no endpoints).
    pub fn critical_path(&self) -> Vec<PathStep> {
        match self.worst_endpoint() {
            Some((node, _)) => self.path_to(node),
            None => Vec::new(),
        }
    }
}

impl TimingGraph<'_> {
    /// Propagates max-arrival times through the active edges at `corner`,
    /// in one topological sweep.
    ///
    /// Sources (nodes with no active incoming edges) start at 0. Each node
    /// scans its in-edges in edge-id order with a strict-max first-wins
    /// tie-break, so arrivals and worst predecessors do not depend on the
    /// sweep order.
    ///
    /// # Errors
    /// Returns [`StaError::Cycle`] if an unbroken cycle remains; call
    /// [`TimingGraph::break_loops`] or [`TimingGraph::disable_pin`] first.
    pub fn arrivals(&self, corner: Corner) -> Result<Arrivals<'_>, StaError> {
        let n = self.node_count();
        let mut arrivals = vec![0.0f64; n];
        let mut worst_pred = vec![NO_PRED; n];
        let stuck = self.topological(|v| {
            let mut best = 0.0f64;
            let mut pred = NO_PRED;
            for e in self.active_in(v) {
                let e = &self.edges[e as usize];
                let cand = arrivals[e.from as usize] + corner.delay(e.delay);
                if pred == NO_PRED || cand > best {
                    best = cand;
                    pred = e.from;
                }
            }
            arrivals[v] = best;
            worst_pred[v] = pred;
        });
        if let Some(node) = stuck {
            return Err(StaError::Cycle {
                through: self.node_name(node),
            });
        }
        Ok(Arrivals {
            graph: self,
            arrivals,
            worst_pred,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use drd_liberty::vlib90;
    use drd_netlist::{Conn, Module, PortDir};

    /// a → INV → INV → … (depth) → r1/D
    fn inv_chain(depth: usize) -> Module {
        let mut m = Module::new("chain");
        m.add_port("a", PortDir::Input).unwrap();
        m.add_port("clk", PortDir::Input).unwrap();
        let clk = m.find_net("clk").unwrap();
        let mut prev = m.find_net("a").unwrap();
        for i in 0..depth {
            let next = m.add_net(format!("n{i}")).unwrap();
            m.add_cell(
                format!("u{i}"),
                "INVX1",
                &[("A", Conn::Net(prev)), ("Z", Conn::Net(next))],
            )
            .unwrap();
            prev = next;
        }
        let q = m.add_net("q").unwrap();
        m.add_cell(
            "r1",
            "DFFX1",
            &[
                ("D", Conn::Net(prev)),
                ("CK", Conn::Net(clk)),
                ("Q", Conn::Net(q)),
            ],
        )
        .unwrap();
        m
    }

    #[test]
    fn arrival_grows_with_depth() {
        let lib = vlib90::high_speed();
        let (m4, m8) = (inv_chain(4), inv_chain(8));
        let g4 = TimingGraph::build(&m4, &lib).unwrap();
        let g8 = TimingGraph::build(&m8, &lib).unwrap();
        let a4 = g4.arrivals(Corner::typical()).unwrap();
        let a8 = g8.arrivals(Corner::typical()).unwrap();
        assert!(a8.max_endpoint_arrival() > 1.9 * a4.max_endpoint_arrival());
    }

    #[test]
    fn corner_derating_scales_arrivals() {
        let lib = vlib90::high_speed();
        let m = inv_chain(6);
        let g = TimingGraph::build(&m, &lib).unwrap();
        let typical = g
            .arrivals(Corner::typical())
            .unwrap()
            .max_endpoint_arrival();
        let worst = g.arrivals(Corner::worst()).unwrap().max_endpoint_arrival();
        let best = g.arrivals(Corner::best()).unwrap().max_endpoint_arrival();
        assert!((worst / typical - Corner::worst().delay_factor).abs() < 1e-9);
        assert!((best / typical - Corner::best().delay_factor).abs() < 1e-9);
    }

    #[test]
    fn critical_path_traceback() {
        let lib = vlib90::high_speed();
        let m = inv_chain(3);
        let g = TimingGraph::build(&m, &lib).unwrap();
        let arr = g.arrivals(Corner::typical()).unwrap();
        let path = arr.critical_path();
        // a → u0/A → u0/Z → u1/A → u1/Z → u2/A → u2/Z → r1/D
        assert_eq!(path.first().unwrap().node, "a");
        assert_eq!(path.last().unwrap().node, "r1/D");
        assert_eq!(path.len(), 8);
        // Arrivals are monotone along the path.
        for w in path.windows(2) {
            assert!(w[1].arrival >= w[0].arrival);
        }
    }

    #[test]
    fn cycle_reported_as_error() {
        let lib = vlib90::high_speed();
        let mut m = Module::new("r");
        let n0 = m.add_net("n0").unwrap();
        let n1 = m.add_net("n1").unwrap();
        m.add_cell("i0", "INVX1", &[("A", Conn::Net(n0)), ("Z", Conn::Net(n1))])
            .unwrap();
        m.add_cell("i1", "INVX1", &[("A", Conn::Net(n1)), ("Z", Conn::Net(n0))])
            .unwrap();
        let g = TimingGraph::build(&m, &lib).unwrap();
        match g.arrivals(Corner::typical()) {
            Err(StaError::Cycle { through }) => assert_eq!(through, "i0/A"),
            other => panic!("expected a cycle, got {other:?}"),
        }
    }

    /// Two groups, each a NAND fed back to itself: the error names the
    /// first group's loop even though the second one drives an earlier
    /// node (an output port), exactly as timing the first group alone.
    #[test]
    fn cycle_report_names_the_lowest_group() {
        let lib = vlib90::high_speed();
        let mut m = Module::new("two_loops");
        m.add_port("z", PortDir::Output).unwrap();
        let z = m.find_net("z").unwrap();
        let n0 = m.add_net("n0").unwrap();
        let nand = |m: &mut Module, name: &str, out| {
            m.add_cell(
                name,
                "NAND2X1",
                &[
                    ("A", Conn::Net(out)),
                    ("B", Conn::Net(out)),
                    ("Z", Conn::Net(out)),
                ],
            )
            .unwrap()
        };
        let (u0, u1) = (nand(&mut m, "u0", n0), nand(&mut m, "u1", z));
        for (groups, expected) in [
            (vec![vec![u0], vec![u1]], "u0/A"),
            (vec![vec![u1], vec![u0]], "z"),
            (vec![vec![u0, u1]], "z"),
        ] {
            let g =
                TimingGraph::build_partitioned(&m, &lib, &groups, &m.connectivity(&lib)).unwrap();
            match g.arrivals(Corner::typical()) {
                Err(StaError::Cycle { through }) => assert_eq!(through, expected),
                other => panic!("expected a cycle, got {other:?}"),
            }
        }
    }
}
