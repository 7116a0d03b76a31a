//! Liveness-guard campaign: fuzzed imbalanced open-chain designs — the
//! pulse-swallowing topology from DESIGN.md §3i — through the full
//! traced flow. Counts the hazards the guard found, how the repair
//! ladder resolved each one (deepen / request latch / degrade /
//! diagnosed error), and measures the guard pass's wall-time share of
//! the whole flow.
//!
//! Emits `BENCH_liveness.json`, then gates on two counts. Every shipped
//! design is re-checked by both the structural liveness oracle and the
//! handshake-timing simulation, and `undiagnosed_deadlocks` above 0
//! means a design left the flow wedged without a diagnosis — exactly
//! the failure the guard forbids. `hazardous_designs` must be at least
//! 1, or the generator lost the hazard and the campaign tests nothing.

use std::time::Instant;

use drd_check::handshake::verify_handshake_timing;
use drd_check::liveness::verify_liveness;
use drd_check::netgen::{NetGenParams, NetRecipe};
use drd_check::Rng;
use drd_core::{handshake_spec, DesyncError, DesyncOptions, Desynchronizer, LivenessAction};
use drd_liberty::vlib90;

/// Fuzzed designs per campaign.
const DESIGNS: usize = 60;

fn main() {
    let lib = vlib90::high_speed();
    let tool = Desynchronizer::new(&lib).expect("tool builds");
    let base = NetGenParams {
        max_stages: 3,
        max_width: 2,
        ..NetGenParams::default()
    };
    let mut rng = Rng::new(0x11FE_BEEF_CAFE);

    let mut completed = 0usize;
    let mut hazardous_designs = 0usize;
    let mut deepened = 0usize;
    let mut latched = 0usize;
    let mut degraded = 0usize;
    let mut diagnosed_errors = 0usize;
    let mut rejected = 0usize;
    let mut undiagnosed = 0usize;
    let mut guard_ns = 0u128;
    let mut flow_ns = 0u128;

    let start = Instant::now();
    for i in 0..DESIGNS {
        let mut recipe = NetRecipe::sample(&mut rng, &base);
        // Chain depths span the hazard boundary, same spread as the
        // property suite: shallow chains exercise the quiet path, deep
        // ones force the ladder.
        recipe.imbalance(rng.range(6, 30));
        let Ok(module) = recipe.build() else {
            rejected += 1;
            continue;
        };
        let (result, trace) = tool.run(module, &DesyncOptions::default());
        match result {
            Ok(result) => {
                completed += 1;
                flow_ns += trace.total_wall_ns;
                guard_ns += trace
                    .passes
                    .iter()
                    .filter(|p| p.name == "liveness")
                    .map(|p| p.wall_ns)
                    .sum::<u128>();
                if !result.report.liveness_repairs.is_empty() {
                    hazardous_designs += 1;
                }
                for repair in &result.report.liveness_repairs {
                    match repair.action {
                        LivenessAction::DeepenSuccessor { .. } => deepened += 1,
                        LivenessAction::RequestLatch => latched += 1,
                        LivenessAction::Degrade => degraded += 1,
                    }
                }
                // The gate: what shipped must be live — structurally
                // (repairs really in the netlist) and behaviourally
                // (the handshake network settles).
                let verdict = verify_liveness(&result, &lib).and_then(|()| {
                    let spec = handshake_spec(&result.report, &lib).map_err(|e| e.to_string())?;
                    verify_handshake_timing(&spec, &lib).map(|_| ())
                });
                if let Err(e) = verdict {
                    undiagnosed += 1;
                    eprintln!("UNDIAGNOSED DEADLOCK: design {i}: {e}");
                }
            }
            Err(DesyncError::Liveness { .. }) => diagnosed_errors += 1,
            Err(_) => rejected += 1,
        }
    }
    let wall_ns = start.elapsed().as_nanos();

    let guard_fraction = if flow_ns > 0 {
        guard_ns as f64 / flow_ns as f64
    } else {
        0.0
    };
    eprintln!(
        "{DESIGNS} imbalanced designs: {completed} completed ({hazardous_designs} needed the \
         guard: {deepened} deepen, {latched} latch, {degraded} degrade), {diagnosed_errors} \
         diagnosed, {rejected} rejected, {undiagnosed} undiagnosed deadlocks; guard \
         {guard_ns} ns of {flow_ns} ns flow ({:.2}%)",
        guard_fraction * 100.0
    );

    let out = format!(
        "{{\n  \"name\": \"liveness\",\n  \"designs\": {DESIGNS},\n  \"completed\": {completed},\n  \
         \"hazardous_designs\": {hazardous_designs},\n  \"repaired_deepen\": {deepened},\n  \
         \"repaired_latch\": {latched},\n  \"degraded\": {degraded},\n  \
         \"diagnosed_errors\": {diagnosed_errors},\n  \"rejected\": {rejected},\n  \
         \"undiagnosed_deadlocks\": {undiagnosed},\n  \"guard_wall_ns\": {guard_ns},\n  \
         \"flow_wall_ns\": {flow_ns},\n  \"guard_fraction\": {guard_fraction:.6},\n  \
         \"campaign_wall_ns\": {wall_ns}\n}}\n"
    );
    let mut failed = Vec::new();
    if undiagnosed > 0 {
        failed.push(format!(
            "undiagnosed deadlocks: {undiagnosed} design(s) shipped wedged without a diagnosis"
        ));
    }
    if hazardous_designs == 0 {
        failed.push("hazard: no design needed the guard — the generator lost the hazard".into());
    }
    drd_bench::finish("liveness", &out, &failed);
}
