//! # drd-runner — deterministic parallelism primitives
//!
//! The one crate every other crate may depend on: it has **zero
//! dependencies** (not even in-tree ones) so it can sit below `drd-core`
//! and `drd-check` in the dependency graph without cycles.
//!
//! * [`rng`] — a deterministic SplitMix64 PRNG (replacing `rand`),
//! * [`runner`] — a dependency-free work-stealing parallel task runner on
//!   `std::thread` with per-worker seeded scheduling streams, returning
//!   results in task order so parallel runs are byte-identical to serial
//!   ones.
//!
//! Both modules started life in `drd-check`; they moved here so the flow
//! passes themselves (FF substitution, SDC) can fan out per-region work
//! without the core depending on the verification kit.

pub mod governor;
pub mod rng;
pub mod runner;

pub use rng::Rng;
pub use runner::{run_indexed, run_parallel, worker_count};
