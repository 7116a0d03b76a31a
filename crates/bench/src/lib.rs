//! # drd-bench — reproduction harnesses and verification campaigns
//!
//! One binary per evaluation artifact of the paper (see DESIGN.md's
//! per-experiment index); each prints its artifact to stdout, and
//! `results/<binary>.txt` holds the committed copy:
//!
//! | binary      | artifact   | what it prints                               |
//! |-------------|------------|----------------------------------------------|
//! | `table_2_1` | Table 2.1  | C-Muller element truth table, checked live   |
//! | `fig_2_4`   | Fig. 2.4   | protocol concurrency ordering + classification|
//! | `table_5_1` | Table 5.1  | DLX vs DDLX area rows                        |
//! | `table_5_2` | Table 5.2  | ARM vs DARM area rows                        |
//! | `fig_5_3`   | Fig. 5.3   | effective period vs delay selection, 2 corners|
//! | `fig_5_4`   | Fig. 5.4   | per-chip delay distribution vs sync worst    |
//! | `fig_5_5`   | Fig. 5.5   | total power vs delay selection               |
//!
//! The campaigns measure the tool itself, at fixed sizes. Each writes
//! `BENCH_<name>.json` through [`finish`] and then exits non-zero naming
//! every gate that failed, so a failing run still leaves its numbers.
//! `crates/bench/tests/reports.rs` parses the committed reports and
//! checks their fields.
//!
//! | campaign      | gates (the run fails unless all hold)                       |
//! |---------------|-------------------------------------------------------------|
//! | `mutation`    | every mutant of the 18 kinds × 25 seeds is killed; on a host with ≥ 4 cores, `speedup_estimate` ≥ 2.0 |
//! | `scale`       | `region_of` cost flat (`lookup_ratio` ≤ 8); no pass of ≥ 1 ms grows faster than cells^1.2; `exponents` names every pass of `Pipeline::standard()` |
//! | `variability` | 1000 chips per campaign (a compile-time assert); worker splits byte-identical; zero-sigma chips bitwise nominal; desync mean degrades slower than the sync worst case; on ≥ 4 cores and workers, Monte-Carlo `speedup` ≥ 3.0 |
//! | `liveness`    | zero undiagnosed deadlocks over 60 imbalanced designs; at least one hazardous design |
//! | `serve`       | zero failed or wedged jobs over 96 jobs; every warm artifact byte-identical to its cold original; 1-client warm p50 × 25 ≤ cold p50 |
//! | `allocs`      | (`cargo bench`, `benches/allocs.rs`, a counting allocator) allocations and bytes requested by each vlib90 build and by DLX32's and ARM32's parse, nine passes, `ffsub` and `control-network` passes and write repeat exactly over three runs after a warm-up, and none is above its committed ceiling |
//! | `kernels`     | (`cargo bench`, `benches/kernels.rs`) parse/reference ≤ 4.5 and write/reference ≤ 1.55 on the full DLX, a serial 16-chip DLX-small Monte Carlo/reference ≤ 2.6, and one serial `Desynchronizer::run` of DLX32 plus one of ARM32/reference ≤ 12.8, fastest iterations against a sort reference |
//!
//! `DRD_BENCH_DIR` redirects the reports from the workspace `results/`
//! directory; `DRD_WORKERS` sets the worker count as everywhere else
//! ([`workers`]: one that is not a number ends the campaign with exit 2).

use std::path::PathBuf;

/// Medium DLX configuration used by the sweep figures: large enough to be
/// representative, small enough that 16 two-corner simulations finish in
/// minutes.
pub fn sweep_dlx_params() -> drd_designs::dlx::DlxParams {
    drd_designs::dlx::DlxParams {
        width: 16,
        regs_log2: 4,
        rom_log2: 5,
        ram_log2: 3,
        seed: 0xD1_5C0DE,
    }
}

/// The campaign's worker count: `DRD_WORKERS`, else every core. A
/// `DRD_WORKERS` that is not a number ends the process with exit 2 and a
/// message naming it, as `drdesync simulate` and `serve` do.
pub fn workers(name: &str) -> usize {
    drd_check::runner::try_worker_count().unwrap_or_else(|e| {
        eprintln!("{name}: {e}; set DRD_WORKERS to N >= 1");
        std::process::exit(2)
    })
}

/// Ends a campaign: writes `json` as `BENCH_<name>.json` into
/// `DRD_BENCH_DIR` (default: the workspace `results/` directory), then
/// exits non-zero naming each entry of `failed`, one failed gate each.
///
/// # Panics
/// When the report is not valid JSON or cannot be written.
pub fn finish(name: &str, json: &str, failed: &[String]) {
    let dir = std::env::var_os("DRD_BENCH_DIR").map_or_else(
        || PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../../results")),
        PathBuf::from,
    );
    drd_check::bench::write_report(&dir, name, json).expect("report written");
    for gate in failed {
        eprintln!("gate failed: {name}: {gate}");
    }
    if !failed.is_empty() {
        std::process::exit(1);
    }
}
