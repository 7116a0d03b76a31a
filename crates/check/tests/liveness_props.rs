//! Property test for the liveness guard (DESIGN.md §3i): fuzzed
//! *imbalanced open-chain* designs — a loopback source whose matched
//! delay dwarfs its successor's response time, the pulse-swallowing
//! topology — must always come out of the flow either
//!
//! * **live**: the handshake-timing oracle verifies the repaired
//!   control network settles (and the structural liveness oracle agrees
//!   the repairs actually landed in the netlist), or
//! * **diagnosed**: an explicit [`drd_core::DesyncError::Liveness`] /
//!   recorded `Degradation` — never an undiagnosed deadlock.
//!
//! Across the corpus the guard must actually fire: at least one design
//! needs a recorded `LivenessRepair` (otherwise the generator stopped
//! producing the hazard and the property is vacuous).
//!
//! Replay knobs: `DRD_PROP_SEED`, `DRD_PROP_CASES`, `DRD_PROP_CASE_SEED`.

use std::sync::atomic::{AtomicUsize, Ordering};

use drd_check::handshake::verify_handshake_timing;
use drd_check::liveness::verify_liveness;
use drd_check::netgen::{NetGenParams, NetRecipe};
use drd_check::{prop_par_with, Config, Rng};
use drd_core::liveness::{plan_repairs, ResponseModel};
use drd_core::{
    handshake_spec, DesyncError, DesyncOptions, Desynchronizer, LibraryFacts, LivenessAction,
};
use drd_liberty::vlib90;
use drd_sim::{HandshakeSpec, RegionSpec};

#[test]
fn imbalanced_open_chains_are_repaired_or_diagnosed_never_wedged() {
    let lib = vlib90::high_speed();
    let tool = Desynchronizer::new(&lib).expect("tool builds");
    let facts = LibraryFacts::new(&lib, &tool.gatefile().measured);
    let base = NetGenParams {
        max_stages: 3,
        max_width: 2,
        ..NetGenParams::default()
    };
    let repaired = AtomicUsize::new(0);
    prop_par_with(
        Config::new(40).seed(0x11FE_6A2D_5AFE),
        |rng: &mut Rng| {
            let mut recipe = NetRecipe::sample(rng, &base);
            // Chain depths across the hazard boundary: shallow chains
            // check the guard stays quiet, deep ones force the ladder.
            recipe.imbalance(rng.range(6, 30));
            recipe
        },
        |recipe: &NetRecipe| {
            let module = recipe.build().map_err(|e| e.to_string())?;
            let result = match tool.run(module, &DesyncOptions::default()).0 {
                Ok(result) => result,
                // A structured liveness verdict (or any other typed flow
                // rejection) is a diagnosis, not a wedge.
                Err(DesyncError::Liveness { .. }) => return Ok(()),
                Err(_) => return Ok(()),
            };
            if !result.report.liveness_repairs.is_empty() {
                repaired.fetch_add(1, Ordering::Relaxed);
            }
            // Structural: the reported repairs are really in the netlist.
            verify_liveness(&result, &facts)?;
            // Behavioural: the shipped network settles — a deadlock here
            // would be exactly the undiagnosed wedge the guard forbids.
            let spec = handshake_spec(&result.report, &lib).map_err(|e| e.to_string())?;
            verify_handshake_timing(&spec, &lib)
                .map_err(|e| format!("undiagnosed deadlock shipped: {e}"))?;
            Ok(())
        },
    );
    let hits = repaired.load(Ordering::Relaxed);
    assert!(
        hits >= 5,
        "guard fired on only {hits} designs — generator lost the hazard"
    );
}

/// Every rung of the repair ladder must actually fire across a corpus
/// of deepening-infeasible topologies ([`NetGenParams::deepen_infeasible`]):
/// the successor's deepen target overshoots the clock budget, so the
/// flow is forced past the deepen rung onto the **latch** rung. The
/// **degrade** rung is unreachable in-flow — a latched loopback no
/// longer swallows its pulse, so the handshake-sim validator always
/// settles after latching — and is covered at the planner level on the
/// same fuzzed topologies with an injected validator that keeps
/// reporting deadlock until a region has been degraded.
#[test]
fn deepening_infeasible_corpus_exercises_latch_and_degrade_rungs() {
    let lib = vlib90::high_speed();
    let tool = Desynchronizer::new(&lib).expect("tool builds");
    let facts = LibraryFacts::new(&lib, &tool.gatefile().measured);
    let model = ResponseModel::probe(&lib).expect("model probes");
    // Budget: a 24-level element fits, the margin-scaled target of a
    // 48..96-level source rise never does — deepening is infeasible by
    // construction, independent of the library's absolute level delay.
    let period = model.rise_ns(24);
    let latched = AtomicUsize::new(0);
    let degraded = AtomicUsize::new(0);
    prop_par_with(
        Config::new(24).seed(0x9A7C_44D1_03EB),
        |rng: &mut Rng| {
            let params = NetGenParams {
                max_stages: 2,
                max_width: 2,
                deepen_infeasible: rng.range(48, 96),
                ..NetGenParams::default()
            };
            NetRecipe::sample(rng, &params)
        },
        |recipe: &NetRecipe| {
            let module = recipe.build().map_err(|e| e.to_string())?;
            let opts = DesyncOptions {
                clock_period_ns: period,
                ..DesyncOptions::default()
            };
            // A typed rejection (`DesyncError::Liveness` or any other
            // flow error) is a diagnosis, not a wedge — only completed
            // flows are checked further.
            if let Ok(result) = tool.run(module, &opts).0 {
                for lr in &result.report.liveness_repairs {
                    match lr.action {
                        LivenessAction::RequestLatch => {
                            latched.fetch_add(1, Ordering::Relaxed);
                        }
                        LivenessAction::Degrade => {
                            degraded.fetch_add(1, Ordering::Relaxed);
                        }
                        LivenessAction::DeepenSuccessor { .. } => {}
                    }
                }
                verify_liveness(&result, &facts)?;
                let spec = handshake_spec(&result.report, &lib).map_err(|e| e.to_string())?;
                verify_handshake_timing(&spec, &lib)
                    .map_err(|e| format!("undiagnosed deadlock shipped: {e}"))?;
            }

            // Planner-level degrade coverage on the same fuzzed shape:
            // one region per stage in a chain, the injected validator
            // deadlocks until something has been degraded, so the
            // ladder must walk latch → degrade to terminate.
            let regions: Vec<RegionSpec> = recipe
                .stages
                .iter()
                .enumerate()
                .map(|(i, s)| RegionSpec {
                    name: format!("g{i}"),
                    controlled: true,
                    matched_levels: s.cloud.len().max(1),
                    critical_delay_ns: 0.0,
                    loopback_latch: false,
                })
                .collect();
            let edges = (1..regions.len()).map(|i| (i - 1, i)).collect();
            let mut spec = HandshakeSpec {
                regions,
                edges,
                level_delay_ns: model.level_delay_ns,
                ff_overhead_ns: 0.0,
            };
            let repairs = plan_repairs(
                &model,
                &mut spec,
                period,
                1.08,
                false,
                |s: &HandshakeSpec| Ok(s.regions.iter().any(|r| !r.controlled)),
            )
            .map_err(|e| format!("planner wedged instead of degrading: {e}"))?;
            if !repairs
                .iter()
                .any(|r| matches!(r.action, LivenessAction::Degrade))
            {
                return Err("injected deadlock never reached the degrade rung".to_owned());
            }
            degraded.fetch_add(1, Ordering::Relaxed);
            Ok(())
        },
    );
    let l = latched.load(Ordering::Relaxed);
    let d = degraded.load(Ordering::Relaxed);
    assert!(l >= 1, "latch rung never fired in-flow across the corpus");
    assert!(d >= 1, "degrade rung never fired across the corpus");
}

/// Strict mode turns the degrade rung into a hard error; whatever the
/// imbalance, a strict flow must either produce a live network or fail
/// with a typed error — never record a silent clock fallback.
#[test]
fn strict_flows_never_record_a_liveness_degradation() {
    let lib = vlib90::high_speed();
    let tool = Desynchronizer::new(&lib).expect("tool builds");
    let base = NetGenParams {
        max_stages: 2,
        max_width: 1,
        ..NetGenParams::default()
    };
    prop_par_with(
        Config::new(12).seed(0x57FF_1C7D_0C75),
        |rng: &mut Rng| {
            let mut recipe = NetRecipe::sample(rng, &base);
            recipe.imbalance(rng.range(16, 28));
            recipe
        },
        |recipe: &NetRecipe| {
            let module = recipe.build().map_err(|e| e.to_string())?;
            let opts = DesyncOptions {
                strict: true,
                ..DesyncOptions::default()
            };
            match tool.run(module, &opts).0 {
                Ok(result) => {
                    if !result.report.degradations.is_empty() {
                        return Err("strict flow recorded a degradation".to_owned());
                    }
                    Ok(())
                }
                Err(_) => Ok(()), // typed rejection is fine under --strict
            }
        },
    );
}
