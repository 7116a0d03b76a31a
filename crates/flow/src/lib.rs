//! # drd-flow — the fully-automated desynchronization EDA methodology
//!
//! Chapter 4's flow, end to end: synthesis-side netlist preparation, DFT
//! scan insertion, desynchronization (via [`drd_core`]), an analytical
//! backend (placement / CTS / routing bookkeeping standing in for
//! Synopsys Astro — see DESIGN.md's substitution table), and the
//! experiment drivers that regenerate every table and figure of Chapter 5:
//!
//! * [`dft`] — scan-flip-flop substitution and chain stitching (§4.3),
//! * [`backend`] — fanout buffering, low-skew enable/clock trees, core
//!   size and utilization bookkeeping (§4.7),
//! * [`experiment`] — the synchronous-vs-desynchronized comparison
//!   procedure of Fig. 5.1: area (Tables 5.1/5.2), the delay-selection
//!   timing sweep (Fig. 5.3), Monte-Carlo variability (Fig. 5.4) and
//!   power (Fig. 5.5),
//! * [`report`] — the table renderers used by the bench binaries.

pub mod backend;
pub mod dft;
pub mod experiment;
pub mod report;

pub use backend::{place_and_route, BackendOptions, LayoutResult};
pub use dft::{insert_scan, ScanReport};
pub use drd_core::handshake_spec;
pub use experiment::{
    area_comparison, power_sweep, timing_sweep, variability_study, AreaComparison, CaseStudy,
    PowerSweep, TimingSweep, VariabilityStudy,
};
