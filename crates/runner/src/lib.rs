//! # drd-runner — deterministic parallelism primitives
//!
//! It has **zero dependencies** (not even in-tree ones), so any crate can
//! sit on top of it without a cycle: the handshake Monte Carlo
//! (`drd-sim`), the verification campaigns (`drd-check`) and the CLI.
//! The flow itself (`drd-core`) and the Verilog front end
//! (`drd-netlist`) run serially and do not use it.
//!
//! * [`rng`] — a deterministic SplitMix64 PRNG (replacing `rand`),
//! * [`runner`] — a dependency-free work-stealing parallel task runner on
//!   `std::thread` with per-worker seeded scheduling streams, returning
//!   results in task order so parallel runs are byte-identical to serial
//!   ones.

pub mod rng;
pub mod runner;

pub use rng::Rng;
pub use runner::{run_indexed, run_parallel, try_worker_count, worker_count};
