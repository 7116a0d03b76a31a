//! Differential flow-equivalence fuzzing (the acceptance gate of the
//! offline verification harness): ≥ 100 seeded random synchronous
//! netlists through the full desynchronization flow, each co-simulated
//! against its clocked self, asserting capture-log equality (§2.1) and
//! SDC well-formedness. Failing netlists shrink to a minimal reproducer
//! printed as Verilog.
//!
//! All three loops run on the work-stealing parallel runner
//! ([`drd_check::prop_par_with`]) with fixed seeds: case seeds are
//! pre-generated serially, so the failing `NetRecipe` + seed printed on
//! panic is identical for any worker count (`DRD_WORKERS` to override).
//!
//! Replay knobs (see README "Building and testing"):
//! `DRD_PROP_SEED`, `DRD_PROP_CASES`, `DRD_PROP_CASE_SEED`.

use std::sync::atomic::{AtomicUsize, Ordering};

use drd_check::diff::{run_differential, DiffConfig};
use drd_check::netgen::{NetGenParams, NetRecipe};
use drd_check::{prop_par_with, Config, Rng};
use drdesync::liberty::vlib90;

#[test]
fn differential_fuzz_100_random_netlists() {
    let lib = vlib90::high_speed();
    let params = NetGenParams::default();
    let config = DiffConfig::default();
    let total_events = AtomicUsize::new(0);
    prop_par_with(
        Config::new(100).seed(0xD5C0_DE20_07F0_22ED),
        |rng: &mut Rng| NetRecipe::sample(rng, &params),
        |recipe: &NetRecipe| {
            let stats = run_differential(recipe, &lib, &config)?;
            total_events.fetch_add(stats.events, Ordering::Relaxed);
            Ok(())
        },
    );
    let total_events = total_events.load(Ordering::Relaxed);
    assert!(
        total_events > 1000,
        "compared {total_events} capture events"
    );
}

/// The scan / sync-set / sync-reset substitution flavours (Fig. 3.1) stay
/// flow-equivalent when every stage is forced to carry wide mixed banks.
#[test]
fn differential_fuzz_scan_set_reset_mix() {
    let lib = vlib90::high_speed();
    let params = NetGenParams {
        max_stages: 2,
        max_width: 4,
        max_cloud: 4,
        max_inputs: 6,
        scan_set_reset: true,
        source_imbalance: 0,
        deepen_infeasible: 0,
    };
    let config = DiffConfig::default();
    prop_par_with(
        Config::new(16).seed(0x5CA0_F1B3),
        |rng: &mut Rng| NetRecipe::sample(rng, &params),
        |recipe: &NetRecipe| run_differential(recipe, &lib, &config).map(|_| ()),
    );
}

/// The differential harness also holds under the Low-Leakage library.
#[test]
fn differential_fuzz_low_leakage_library() {
    let lib = vlib90::low_leakage();
    let params = NetGenParams::default();
    let config = DiffConfig::default();
    prop_par_with(
        Config::new(12).seed(0x11_C0DE),
        |rng: &mut Rng| NetRecipe::sample(rng, &params),
        |recipe: &NetRecipe| run_differential(recipe, &lib, &config).map(|_| ()),
    );
}
