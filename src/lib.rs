//! # drdesync — a fully-automated desynchronization flow for synchronous circuits
//!
//! Rust reproduction of the DAC 2007 paper / 2006 master's thesis
//! *"A Fully-Automated Desynchronization Flow for Synchronous Circuits"*
//! (N. Andrikos, University of Crete / ICS-FORTH / STMicroelectronics).
//!
//! This facade crate re-exports the workspace and hosts the `drdesync`
//! command-line tool, the runnable examples and the cross-crate
//! integration tests. Start with:
//!
//! * [`core`] — the desynchronization tool itself (regions, flip-flop
//!   substitution, delay elements, controller network, SDC),
//! * [`netlist`] — gate-level Verilog in/out,
//! * [`liberty`] — the `.lib` parser, gatefile and the `vlib90` library,
//! * [`sim`] — event-driven simulation and flow-equivalence checking,
//! * [`flow`] — the end-to-end methodology and the Chapter-5 experiments.
//!
//! ```no_run
//! use drdesync::core::{DesyncOptions, Desynchronizer};
//! use drdesync::liberty::vlib90;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let lib = vlib90::high_speed();
//! let src = std::fs::read_to_string("chip.v")?;
//! let module = drdesync::netlist::verilog::parse_module(&src)?;
//! let (result, _trace) = Desynchronizer::new(&lib)?.run(module, &DesyncOptions::default());
//! println!("{}", result?.sdc);
//! # Ok(())
//! # }
//! ```

pub use drd_core as core;
pub use drd_designs as designs;
pub use drd_flow as flow;
pub use drd_liberty as liberty;
pub use drd_netlist as netlist;
pub use drd_sim as sim;
pub use drd_sta as sta;
pub use drd_stg as stg;
