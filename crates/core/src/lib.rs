//! # drd-core — the `drdesync` desynchronization tool
//!
//! The paper's primary contribution (Chapter 3): a tool that transforms a
//! post-synthesis synchronous gate-level netlist into a desynchronized —
//! asynchronous, handshake-controlled — netlist, plus the backend timing
//! constraints that let a conventional synchronous flow finish the chip.
//!
//! The pipeline (§3.2) is exposed both as individual passes, run by
//! [`Pipeline::run`] over a [`FlowContext`], and through the one-call
//! [`Desynchronizer::run`], which returns the result together with the
//! run's [`FlowTrace`]:
//!
//! 1. design import — [`drd_netlist::verilog`] (the netlist crate)
//! 2. automatic region creation — [`region`] (Figs. 3.3–3.6)
//! 3. flip-flop substitution — [`ffsub`] (Fig. 3.1), driven by the
//!    library's [`drd_liberty::gatefile`] replacement rules
//! 4. data-dependency graph — [`ddg`] (Fig. 2.6)
//! 5. delay-element creation — [`delay_element`] (Figs. 2.8/2.9), sized by
//!    STA
//! 6. control-network insertion — [`controller`] + [`celement`] +
//!    [`network`] (Figs. 2.7/2.11)
//! 7. design export + physical timing constraints — [`sdc`] (Figs. 4.2/4.5)
//!
//! ```no_run
//! use drd_core::{DesyncOptions, Desynchronizer};
//! use drd_liberty::vlib90;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let lib = vlib90::high_speed();
//! let module = drd_netlist::verilog::parse_module(&std::fs::read_to_string("chip.v")?)?;
//! let (result, trace) = Desynchronizer::new(&lib)?.run(module, &DesyncOptions::default());
//! // The trace is written for a failed flow too: it names the failing pass.
//! std::fs::write("chip_trace.json", trace.to_json())?;
//! let result = result?;
//! std::fs::write("chip_desync.v", drd_netlist::verilog::write_design(&result.design))?;
//! std::fs::write("chip_desync.sdc", &result.sdc)?;
//! # Ok(())
//! # }
//! ```

pub mod celement;
#[deny(clippy::unwrap_used, clippy::panic)]
pub mod controller;
pub mod ddg;
pub mod delay_element;
#[deny(clippy::unwrap_used, clippy::panic)]
mod desync;
mod error;
mod facts;
#[deny(clippy::unwrap_used, clippy::panic)]
pub mod ffsub;
#[deny(clippy::unwrap_used, clippy::panic)]
pub mod liveness;
#[deny(clippy::unwrap_used, clippy::panic)]
pub mod network;
pub mod pipeline;
#[deny(clippy::unwrap_used, clippy::panic)]
pub mod region;
pub mod sdc;

pub use desync::{
    ff_overhead_ns, handshake_spec, region_delays, DesyncOptions, DesyncReport, DesyncResult,
    Desynchronizer, RegionSummary,
};
pub use error::{Degradation, DegradeReason, DesyncError};
pub use facts::LibraryFacts;
pub use liveness::{LivenessAction, LivenessRepair};
pub use pipeline::{
    FlowContext, FlowErrorTrace, FlowTrace, LivenessGuardPass, Pass, PassReport, PassTrace,
    Pipeline,
};
