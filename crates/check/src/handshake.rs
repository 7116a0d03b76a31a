//! Handshake-timing oracle: the event-driven control-network simulation
//! must be consistent with static timing.
//!
//! Two properties hold for every desynchronized design (DESIGN.md §3f):
//!
//! 1. **STA floor** — each region's simulated effective cycle time is at
//!    least its matched-delay element's nominal rise delay. The request
//!    must traverse the full delay chain every cycle, so a simulator
//!    that measures a faster cycle is broken (or the elaboration lost
//!    the delay element).
//! 2. **Zero-variability exactness** — a Monte-Carlo chip drawn at
//!    `sigma = 0` has every per-gate factor exactly `1.0`, so its
//!    simulation must reproduce the nominal run bit for bit: same event
//!    order, same femtosecond edge times, same `f64` cycle time.
//!
//! One topology is excluded: a controlled region with *neither*
//! controlled predecessors nor successors gets the always-ready
//! loopback request **and** the eager acknowledge environment
//! simultaneously (`drd_core::network`'s environment rules), which
//! degenerates its request into a short pulse. A short matched delay
//! passes the pulse and the region free-runs (DLX's one-level
//! input-register region `g0` cycles at 0.200 ns); a long one swallows
//! it and the ring halts, in silicon as in simulation. The oracle
//! reports specs with such a region as vacuously verified rather than
//! judge that physics; the predicate is [`HandshakeSpec::is_vacuous`],
//! the one the flow's liveness guard skips by too.
//!
//! A simulated deadlock on any *coupled* topology is reported as a
//! failure, and that is deliberate: the same wedge happens at gate
//! level, and such a design also fails the behavioural capture-count
//! oracle — the two oracles agree on what is broken. Since PR 9 the
//! flow's liveness guard repairs the classic instance (a source region
//! whose matched delay exceeds its successor's acknowledge time — see
//! `tests/handshake_stall.rs`) before export, so a deadlock here means
//! the guard's contract was violated, not that the hazard is expected.

use drd_liberty::Library;
use drd_sim::{GateVariability, HandshakeNet, HandshakeSpec, RegionCycle};

/// Verifies the handshake-timing oracle for one spec: elaborates the
/// control network, simulates it nominally, and checks both properties
/// above (plus a spot-check that zero-sigma chips are byte-stable under
/// different worker counts).
///
/// Returns `Ok(None)` when the spec is vacuous — no controlled regions,
/// or a degenerate isolated region (see module docs); `Ok(Some(cycles))`
/// with the nominal measurement otherwise.
///
/// # Errors
/// A description of the first violated property.
pub fn verify_handshake_timing(
    spec: &HandshakeSpec,
    lib: &Library,
) -> Result<Option<Vec<RegionCycle>>, String> {
    if spec.is_vacuous() {
        return Ok(None);
    }
    let net = HandshakeNet::elaborate(spec, lib).map_err(|e| format!("elaboration: {e}"))?;
    let nominal = net
        .nominal_cycle_times()
        .map_err(|e| format!("nominal simulation: {e}"))?;

    // Property 1: the STA matched-delay floor.
    for c in &nominal {
        if c.cycle_ns < c.matched_delay_ns {
            return Err(format!(
                "region {}: simulated cycle {:.6} ns beats the matched-delay floor {:.6} ns",
                c.region, c.cycle_ns, c.matched_delay_ns
            ));
        }
    }

    // Property 2: a zero-sigma Monte-Carlo chip is the nominal run.
    let nominal_worst = nominal.iter().map(|c| c.cycle_ns).fold(0.0f64, f64::max);
    let var = GateVariability::new(0x5EED_516A, 0.0);
    for chip in 0..2 {
        let sample = net
            .chip_sample(&var, chip)
            .map_err(|e| format!("zero-sigma chip {chip}: {e}"))?;
        if sample.desync_cycle_ns.to_bits() != nominal_worst.to_bits() {
            return Err(format!(
                "zero-sigma chip {chip} measured {} ns, nominal is {} ns (must be bit-identical)",
                sample.desync_cycle_ns, nominal_worst
            ));
        }
    }

    // Worker-count stability spot check on a tiny campaign.
    let serial = net
        .monte_carlo(&var, 4, 1)
        .map_err(|e| format!("serial campaign: {e}"))?;
    let parallel = net
        .monte_carlo(&var, 4, 3)
        .map_err(|e| format!("parallel campaign: {e}"))?;
    for (a, b) in serial.iter().zip(&parallel) {
        if a.desync_cycle_ns.to_bits() != b.desync_cycle_ns.to_bits()
            || a.sync_period_ns.to_bits() != b.sync_period_ns.to_bits()
        {
            return Err(format!("chip {} diverged across worker counts", a.chip));
        }
    }

    Ok(Some(nominal))
}

#[cfg(test)]
mod tests {
    use super::*;
    use drd_liberty::vlib90;
    use drd_sim::RegionSpec;

    fn two_stage_spec() -> HandshakeSpec {
        HandshakeSpec {
            regions: vec![
                RegionSpec {
                    name: "g0".into(),
                    controlled: true,
                    matched_levels: 4,
                    critical_delay_ns: 0.3,
                    loopback_latch: false,
                },
                RegionSpec {
                    name: "g1".into(),
                    controlled: true,
                    matched_levels: 6,
                    critical_delay_ns: 0.5,
                    loopback_latch: false,
                },
            ],
            edges: vec![(0, 1)],
            level_delay_ns: 0.09,
            ff_overhead_ns: 0.15,
        }
    }

    #[test]
    fn oracle_verifies_a_healthy_pipeline() {
        let cycles = verify_handshake_timing(&two_stage_spec(), &vlib90::high_speed())
            .unwrap()
            .expect("non-vacuous");
        assert_eq!(cycles.len(), 2);
    }

    #[test]
    fn vacuous_specs_are_reported_as_none() {
        let lib = vlib90::high_speed();
        let mut spec = two_stage_spec();
        spec.regions[0].controlled = false;
        spec.regions[1].controlled = false;
        assert!(verify_handshake_timing(&spec, &lib).unwrap().is_none());

        // One controlled region, no edges: the degenerate isolated
        // loopback + eager-ack topology.
        let mut spec = two_stage_spec();
        spec.regions[1].controlled = false;
        spec.edges.clear();
        assert_eq!(spec.isolated_regions().collect::<Vec<_>>(), [0], "g0");
        assert!(verify_handshake_timing(&spec, &lib).unwrap().is_none());
    }

    #[test]
    fn self_loops_count_as_coupling() {
        let mut spec = two_stage_spec();
        spec.regions.truncate(1);
        spec.edges = vec![(0, 0)];
        assert_eq!(spec.isolated_regions().next(), None);
        let cycles = verify_handshake_timing(&spec, &vlib90::high_speed())
            .unwrap()
            .expect("ring verifies");
        assert_eq!(cycles.len(), 1);
    }
}
