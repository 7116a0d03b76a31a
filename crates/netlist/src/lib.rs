//! # drd-netlist — gate-level netlist infrastructure
//!
//! The base substrate of the `drdesync` workspace: an in-memory
//! representation of technology-mapped, gate-level digital circuits, plus a
//! structural-Verilog reader/writer and a BLIF writer, mirroring the design
//! import/export layer of the paper's `drdesync` tool (§3.2.1, §3.2.7).
//!
//! A [`Design`] owns a set of [`Module`]s. A module contains [`Net`]s,
//! [`Cell`]s (instances of library cells or of other modules) and [`Port`]s.
//! Connectivity is maintained incrementally: every net knows its driver and
//! its loads, so the grouping and control-insertion algorithms of the
//! desynchronizer can traverse the circuit in O(edges).
//!
//! ```
//! use drd_netlist::{Design, PortDir, Conn};
//!
//! # fn main() -> Result<(), drd_netlist::NetlistError> {
//! let mut design = Design::new();
//! let m = design.add_module("top");
//! let module = design.module_mut(m);
//! let a = module.add_port("a", PortDir::Input)?;
//! let z = module.add_port("z", PortDir::Output)?;
//! let a_net = module.port(a).net;
//! let z_net = module.port(z).net;
//! module.add_cell("u1", "INVX1", &[("A", Conn::Net(a_net)), ("Z", Conn::Net(z_net))])?;
//! let verilog = drd_netlist::verilog::write_design(&design);
//! assert!(verilog.contains("INVX1 u1"));
//! # Ok(())
//! # }
//! ```

pub mod blif;
pub mod bus;
mod design;
mod error;
mod flatten;
pub mod hash;
mod ids;
mod module;
pub mod passes;
pub mod stats;
pub mod symbol;
pub mod verilog;

pub use flatten::flatten;

pub use design::{Design, DesignPinDirs};
pub use error::NetlistError;
pub use ids::{CellId, ModuleId, NetId, PortId};
pub use module::{
    BusBit, Cell, CellKind, CellName, Conn, Connectivity, Endpoint, KindRef, Module, Net, PinDirs,
    PinUse, Port, PortDir,
};
pub use symbol::{Symbol, SymbolTable};
