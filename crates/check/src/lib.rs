//! # drd-check — the offline-first verification kit
//!
//! Every test in this workspace must build and run with **zero registry
//! dependencies** (the build environment has no network access to
//! crates.io). This crate provides, in-tree, the pieces that external
//! crates used to supply:
//!
//! * [`rng`] — a deterministic SplitMix64 PRNG (replacing `rand`),
//!   re-exported from `drd-runner`,
//! * [`prop`](mod@prop) — a minimal property-testing harness with seed reporting
//!   and greedy input shrinking (replacing `proptest`),
//! * [`netgen`] — a random synchronous gate-level netlist generator over
//!   the `vlib90` cells (parameterized FF count, cloud depth, bus widths,
//!   scan/set-reset flip-flop mix),
//! * [`diff`] — the differential flow-equivalence fuzzer: desynchronize a
//!   random netlist, co-simulate it against its clocked self and assert
//!   capture-log equality (§2.1) plus SDC well-formedness,
//! * [`golden`] — golden-file snapshot assertions (`DRD_BLESS=1` to
//!   re-record),
//! * [`handshake`] — the handshake-timing oracle: the event-driven
//!   control-network simulation must respect the STA matched-delay floor
//!   and reproduce the nominal run bit-for-bit at zero variability,
//! * [`liveness`] — the liveness oracle: measured delay-element depths
//!   match the report, no unrepaired pulse-swallowing hazard ships, and
//!   request-latch records agree with the netlist both ways,
//! * [`bench`](mod@bench) — a `std::time::Instant` micro-benchmark runner (replacing
//!   `criterion`) and [`bench::write_report`], the one writer of every
//!   `BENCH_*.json`, which refuses text the shared JSON parser rejects,
//! * [`runner`] — a dependency-free work-stealing parallel task runner on
//!   `std::thread` with per-worker seeded scheduling streams, re-exported
//!   from `drd-runner` (the handshake Monte Carlo uses the same pool; the
//!   flow itself runs serially),
//! * [`cover`] — structural coverage buckets over generated netlists and
//!   a coverage-guided recipe sampler,
//! * [`mutate`] — the mutation-testing engine: seeded, paper-meaningful
//!   corruptions of a desynchronized design (or its control protocol)
//!   that every oracle must kill,
//! * [`hostile`] — the hostile-input crash campaign: seeded adversarial
//!   bytes/token-soup/truncated/spliced inputs through the parser and
//!   the budget-starved guarded flow, gating on zero escaped panics.

pub mod bench;
pub mod cover;
pub mod diff;
pub mod golden;
pub mod handshake;
pub mod hostile;
pub mod liveness;
pub mod mutate;
pub mod netgen;
pub mod prop;

pub use drd_runner::{rng, runner, Rng};
pub use prop::{prop, prop_par_with, prop_with, Config, Shrink};
