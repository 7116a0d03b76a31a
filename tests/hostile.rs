//! Tier-1 hostile-input gate: the Verilog reader and the guarded flow
//! must survive 10k seeded adversarial inputs with zero escaped panics.
//! It runs in the test profile, so overflow checks and `debug_assert!`s
//! are on; workers follow `DRD_WORKERS`.

use drd_check::hostile::run_hostile_campaign;
use drd_check::runner;

/// Seeded adversarial inputs per campaign.
const INPUTS: usize = 10_000;

#[test]
fn hostile_campaign_has_zero_escaped_panics() {
    let report = run_hostile_campaign(INPUTS, 0x0DE5_7AC7, runner::worker_count());
    assert_eq!(report.total, INPUTS);
    assert_eq!(
        report.panics, 0,
        "escaped panic, reproduce with drd_check::hostile::generate{:?}",
        report.first_panic
    );
    // Sanity: the campaign exercised both sides of the parser.
    assert!(report.rejected > 0, "no input was rejected — generator broken?");
    assert!(
        report.flow_errors + report.completed > 0,
        "no input parsed — truncation/splice families broken?"
    );
}
