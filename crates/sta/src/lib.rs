//! # drd-sta — static timing analysis
//!
//! A pin-level STA engine standing in for the commercial timing tool the
//! paper drives (Synopsys PrimeTime). It is used in exactly the places the
//! paper uses STA:
//!
//! * measuring the critical-path delay of each desynchronization region so
//!   the matching delay element can be sized (§3.2.5, Fig. 2.8),
//! * analyzing the *cyclic* asynchronous controller network after breaking
//!   its timing loops with timing-disabled pins (§4.6, Fig. 4.5),
//! * checking that latch setup constraints hold at a given corner.
//!
//! The engine builds a [`TimingGraph`] over cell pins and module ports,
//! detects cycles, cuts them (either at user-specified disabled pins — the
//! paper's hand-crafted controller cuts — or automatically at DFS
//! back-edges, which the paper warns may leave the critical cycle
//! unconstrained), and propagates arrival times topologically.
//!
//! The graph lives in flat arrays: dense node ids (ports, then each cell's
//! pins from a per-cell base), one edge array and CSR adjacency, with
//! names resolved through the borrowed module only when reported.
//! [`TimingGraph::build_partitioned`] times many disjoint cell groups —
//! the desynchronization regions — in one graph and one propagation,
//! keeping only the net edges inside a group.
//!
//! ```
//! use drd_liberty::{vlib90, Corner};
//! use drd_netlist::{Conn, Module, PortDir};
//! use drd_sta::TimingGraph;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let lib = vlib90::high_speed();
//! let mut m = Module::new("t");
//! m.add_port("a", PortDir::Input)?;
//! m.add_port("z", PortDir::Output)?;
//! let a = m.find_net("a").ok_or("a")?;
//! let z = m.find_net("z").ok_or("z")?;
//! let mid = m.add_net("mid")?;
//! m.add_cell("u1", "INVX1", &[("A", Conn::Net(a)), ("Z", Conn::Net(mid))])?;
//! m.add_cell("u2", "INVX1", &[("A", Conn::Net(mid)), ("Z", Conn::Net(z))])?;
//! let graph = TimingGraph::build(&m, &lib)?;
//! let arrivals = graph.arrivals(Corner::typical())?;
//! assert!(arrivals.max_arrival() > 0.0);
//! let path: Vec<String> = arrivals.critical_path().into_iter().map(|s| s.node).collect();
//! assert_eq!(path, ["a", "u1/A", "u1/Z", "u2/A", "u2/Z", "z"]);
//!
//! // Each group is timed as if alone: with u1 and u2 in different
//! // groups, the net `mid` between them is cut. The partitioned build
//! // reads a connectivity snapshot the caller may share.
//! let (u1, u2) = (m.find_cell("u1").ok_or("u1")?, m.find_cell("u2").ok_or("u2")?);
//! let conn = m.connectivity(&lib);
//! let split = TimingGraph::build_partitioned(&m, &lib, &[vec![u1], vec![u2]], &conn)?;
//! let z_arrival = split.arrivals(Corner::typical())?.max_endpoint_arrival();
//! assert!(z_arrival < arrivals.max_endpoint_arrival());
//! # Ok(())
//! # }
//! ```

mod analysis;
mod error;
mod graph;
mod loops;

pub use analysis::{Arrivals, PathStep};
pub use error::StaError;
pub use graph::{EdgeKind, NodeId, NodeKind, TimingGraph};
pub use loops::LoopReport;
