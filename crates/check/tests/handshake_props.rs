//! Property tests for the handshake-level timing simulator (DESIGN.md
//! §3f): fuzzed synchronous netlists go through the full
//! desynchronization flow, their reports project onto control-network
//! specs, and the event-driven simulation must stay consistent with
//! static timing —
//!
//! * every region's simulated effective cycle time respects the STA
//!   matched-delay floor,
//! * a zero-variability Monte-Carlo chip reproduces the nominal run bit
//!   for bit (and, for single-region rings, the closed-form analytical
//!   period femtosecond-exactly),
//! * campaigns are byte-identical for any worker count.
//!
//! Replay knobs: `DRD_PROP_SEED`, `DRD_PROP_CASES`, `DRD_PROP_CASE_SEED`.

use std::sync::atomic::{AtomicUsize, Ordering};

use drd_check::handshake::verify_handshake_timing;
use drd_check::netgen::{NetGenParams, NetRecipe};
use drd_check::{prop_par_with, Config, Rng, Shrink};
use drd_core::{handshake_spec, DesyncOptions, Desynchronizer};
use drd_liberty::vlib90;
use drd_sim::{GateVariability, HandshakeNet, HandshakeSpec, RegionSpec};

/// Fuzzed flow outputs: the simulated cycle of every region is bounded
/// below by its matched delay, and zero-sigma chips are bitwise nominal
/// (both enforced inside [`verify_handshake_timing`]).
#[test]
fn fuzzed_flows_respect_the_sta_floor() {
    let lib = vlib90::high_speed();
    let params = NetGenParams::default();
    let tool = Desynchronizer::new(&lib).expect("tool builds");
    let non_vacuous = AtomicUsize::new(0);
    prop_par_with(
        Config::new(60).seed(0x57AF_100D_CAFE),
        |rng: &mut Rng| NetRecipe::sample(rng, &params),
        |recipe: &NetRecipe| {
            let module = recipe.build().map_err(|e| e.to_string())?;
            let Ok(result) = tool.run(module, &DesyncOptions::default()).0 else {
                return Ok(()); // flow rejection is not a simulator property
            };
            let spec = handshake_spec(&result.report, &lib).map_err(|e| e.to_string())?;
            if verify_handshake_timing(&spec, &lib)?.is_some() {
                non_vacuous.fetch_add(1, Ordering::Relaxed);
            }
            Ok(())
        },
    );
    let hits = non_vacuous.load(Ordering::Relaxed);
    assert!(
        hits >= 10,
        "only {hits} non-vacuous control networks simulated"
    );
}

/// Local wrapper so the foreign spec types ride the prop harness (the
/// orphan rule forbids `impl Shrink for HandshakeSpec` here; shrinking
/// specs is not worth the ceremony — the generator is already small).
#[derive(Debug, Clone)]
struct SpecCase(HandshakeSpec);
impl Shrink for SpecCase {}

#[derive(Debug, Clone)]
struct RingCase(RegionSpec);
impl Shrink for RingCase {}

/// Random spec generator: 1–4 controlled regions in a *closed* feedback
/// ring (plus a self-loop on a random region a quarter of the time),
/// random matched depths and critical delays.
///
/// The ring closure is deliberate: an open chain's source region gets
/// the loopback request environment, whose pulse width is set by the
/// successor's response time — a source with a long matched delay and a
/// fast successor wedges, in silicon as in simulation (see
/// `tests/handshake_stall.rs`). Closed rings hold every request in a
/// C-element join until the consumer's delay chain has been traversed,
/// so any combination of matched depths is live.
fn random_spec(rng: &mut Rng) -> SpecCase {
    let n = rng.range(1, 5);
    let regions = (0..n)
        .map(|i| RegionSpec {
            name: format!("g{i}"),
            controlled: true,
            matched_levels: rng.range(2, 24),
            critical_delay_ns: 0.05 + rng.range(0, 80) as f64 * 0.01,
            loopback_latch: false,
        })
        .collect();
    let mut edges: Vec<(usize, usize)> = (1..n).map(|i| (i - 1, i)).collect();
    if n > 1 {
        edges.push((n - 1, 0)); // close the ring: no loopback sources
    } else {
        edges.push((0, 0)); // a lone region must self-couple to run
    }
    if rng.next_u64() & 3 == 0 {
        let r = rng.range(0, n);
        edges.push((r, r));
    }
    SpecCase(HandshakeSpec {
        regions,
        edges,
        level_delay_ns: 0.09,
        ff_overhead_ns: 0.15,
    })
}

/// Zero-sigma draws are exactly 1.0, so the chip simulation replays the
/// nominal event order; campaigns split across 1, 2 and 8 workers merge
/// to byte-identical samples.
#[test]
fn zero_sigma_chips_and_worker_splits_are_bitwise_stable() {
    let lib = vlib90::high_speed();
    prop_par_with(
        Config::new(24).seed(0x000B_1757_AB1E),
        random_spec,
        |SpecCase(spec): &SpecCase| {
            assert_eq!(
                spec.isolated_regions().next(),
                None,
                "generator keeps regions coupled"
            );
            let net = HandshakeNet::elaborate(spec, &lib).map_err(|e| e.to_string())?;
            let nominal = net.nominal_cycle_times().map_err(|e| e.to_string())?;
            let worst = nominal.iter().map(|c| c.cycle_ns).fold(0.0f64, f64::max);

            let zero = GateVariability::new(0xFACE_0FF5, 0.0);
            let sample = net.chip_sample(&zero, 7).map_err(|e| e.to_string())?;
            if sample.desync_cycle_ns.to_bits() != worst.to_bits() {
                return Err(format!(
                    "zero-sigma chip {} ns != nominal {} ns",
                    sample.desync_cycle_ns, worst
                ));
            }

            let var = GateVariability::new(0xFACE_0FF5, 0.12);
            let serial = net.monte_carlo(&var, 12, 1).map_err(|e| e.to_string())?;
            for workers in [2, 8] {
                let par = net
                    .monte_carlo(&var, 12, workers)
                    .map_err(|e| e.to_string())?;
                for (a, b) in serial.iter().zip(&par) {
                    if a.desync_cycle_ns.to_bits() != b.desync_cycle_ns.to_bits()
                        || a.sync_period_ns.to_bits() != b.sync_period_ns.to_bits()
                    {
                        return Err(format!("chip {} diverged at {workers} workers", a.chip));
                    }
                }
            }
            Ok(())
        },
    );
}

/// Single-region rings have a closed-form period; the event-driven
/// simulation must land on it femtosecond-exactly at every matched
/// depth the generator draws.
#[test]
fn ring_simulation_matches_the_analytical_period() {
    let lib = vlib90::high_speed();
    prop_par_with(
        Config::new(32).seed(0x00A1_1A71_C0DE),
        |rng: &mut Rng| {
            RingCase(RegionSpec {
                name: "ring".into(),
                controlled: true,
                matched_levels: rng.range(2, 40),
                critical_delay_ns: 0.05 + rng.range(0, 100) as f64 * 0.01,
                loopback_latch: false,
            })
        },
        |RingCase(region): &RingCase| {
            let spec = HandshakeSpec {
                regions: vec![region.clone()],
                edges: vec![(0, 0)],
                level_delay_ns: 0.09,
                ff_overhead_ns: 0.15,
            };
            let net = HandshakeNet::elaborate(&spec, &lib).map_err(|e| e.to_string())?;
            let analytical = net
                .analytical_ring_cycle_fs(&lib)
                .ok_or("single-region net has a closed form")?;
            let cycles = net.nominal_cycle_times().map_err(|e| e.to_string())?;
            let measured = cycles[0].span_fs / cycles[0].cycles as u64;
            if measured != analytical {
                return Err(format!(
                    "levels {}: measured {measured} fs, closed form {analytical} fs",
                    region.matched_levels
                ));
            }
            Ok(())
        },
    );
}
