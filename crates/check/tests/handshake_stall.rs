//! The liveness guard repairs the pulse-swallowing wedge.
//!
//! The loopback environment (`drd_core::network`) feeds a source
//! region's own slave request back as its input request. That request
//! falls as soon as the successor acknowledges, so its pulse width is
//! set by the successor's response time — and a source whose matched
//! delay exceeds that width would have its request swallowed by the
//! asymmetric delay element (every AND stage is fed by the input, so a
//! fall collapses the chain): the region would wedge after one
//! transfer. Interior regions are immune — their requests are held by
//! C-element joins until the consumer's full delay chain has been
//! traversed.
//!
//! Since PR 9 the `liveness` pass detects this hazard statically and
//! repairs it (here by deepening the successor's delay element so the
//! acknowledge arrives after the source's rise completes). This test
//! pins the repair down at *both* levels on the same design: the
//! gate-level netlist keeps capturing in the event simulator, the
//! handshake-level timing oracle verifies the network live, the repair
//! is recorded in the report, and the whole flow stays byte-identical
//! across worker counts.

use drd_check::handshake::verify_handshake_timing;
use drd_check::netgen::{FfKind, FfRecipe, GateOp, NetRecipe, StageRecipe};
use drd_core::{handshake_spec, DesyncOptions, Desynchronizer, LivenessAction};
use drd_liberty::{vlib90, Lv};
use drd_sim::{SimOptions, Simulator};

/// Two regions: a source with a 24-NAND critical path (a long matched
/// delay) feeding a successor with a single inverter (a fast ack).
fn imbalanced_recipe() -> NetRecipe {
    // pool: din (0), q0_0 (1), q1_0 (2) → cloud nets start at index 3.
    let chain: Vec<GateOp> = (0..24)
        .map(|c| GateOp {
            kind: 2, // NAND2X1 — survives buffer cleaning
            a: if c == 0 { 0 } else { 3 + c - 1 },
            b: 0,
        })
        .collect();
    NetRecipe {
        inputs: 1,
        input_bits: 1,
        stages: vec![
            StageRecipe {
                cloud: chain,
                ffs: vec![FfRecipe {
                    kind: FfKind::Plain,
                    d: 3 + 23,
                    aux0: 0,
                    aux1: 0,
                }],
            },
            StageRecipe {
                // One inverter reading q0_0 keeps the stages in separate
                // regions (a direct FF→FF edge would merge them).
                cloud: vec![GateOp {
                    kind: 0,
                    a: 1,
                    b: 0,
                }],
                ffs: vec![FfRecipe {
                    kind: FfKind::Plain,
                    d: 3,
                    aux0: 0,
                    aux1: 0,
                }],
            },
        ],
    }
}

#[test]
fn liveness_guard_repairs_the_gate_level_stall() {
    let lib = vlib90::high_speed();
    let recipe = imbalanced_recipe();
    let module = recipe.build().unwrap();
    let tool = Desynchronizer::new(&lib).unwrap();
    let result = tool
        .run(module.clone(), &DesyncOptions::default())
        .0
        .unwrap();

    // The hazard was detected and repaired, not silently shipped: the
    // report carries at least one structural repair and no region had to
    // fall back to the clock.
    let repairs = &result.report.liveness_repairs;
    assert!(
        !repairs.is_empty(),
        "pulse-swallowing hazard must be repaired"
    );
    assert!(
        repairs.iter().any(
            |lr| matches!(lr.action, LivenessAction::DeepenSuccessor { .. })
                | matches!(lr.action, LivenessAction::RequestLatch)
        ),
        "repair ladder must act structurally, got: {repairs:?}"
    );
    assert!(
        result.report.degradations.is_empty(),
        "no clock fallback expected"
    );

    // The repaired shape: the successor's delay element was brought up
    // far enough that the source's rise fits inside its response window.
    let regions = &result.report.regions;
    let source = regions
        .iter()
        .find(|r| r.ffs > 0 && r.critical_delay_ns > 0.4)
        .unwrap();
    let sink = regions
        .iter()
        .find(|r| r.ffs > 0 && r.critical_delay_ns < 0.2)
        .unwrap();
    assert!(
        source.delem_levels > 0 && sink.delem_levels > 0,
        "both regions stay controlled"
    );

    // Gate level: the source region's latches keep capturing — before
    // the guard this design wedged after at most 2 captures in 240 ns.
    let mut dut = Simulator::new(&result.design, &lib, SimOptions::default()).unwrap();
    dut.poke("din", Lv::One).unwrap();
    dut.poke("drd_rst", Lv::Zero).unwrap();
    dut.run_for(2.0);
    dut.poke("drd_rst", Lv::One).unwrap();
    dut.run_for(240.0);
    let captures = dut.captures().capture_count("r0_0_ls");
    assert!(
        captures > 10,
        "expected a live ring, saw only {captures} captures in 240 ns"
    );

    // Handshake level: the timing oracle verifies the repaired network.
    let spec = handshake_spec(&result.report, &lib).unwrap();
    let cycles = verify_handshake_timing(&spec, &lib)
        .expect("repaired network must be live")
        .expect("non-vacuous");
    assert!(!cycles.is_empty());

    // Determinism: the repaired flow's artifacts are byte-identical for
    // any worker count — the guard's decisions are serial by design.
    let bundle = |jobs: usize| {
        let opts = DesyncOptions {
            jobs: Some(jobs),
            ..DesyncOptions::default()
        };
        let (result, trace) = tool.run(module.clone(), &opts);
        let result = result.unwrap();
        [
            format!("{:?}", result.report),
            result.sdc.clone(),
            drd_netlist::verilog::write_design(&result.design),
            trace.to_json_deterministic(),
        ]
    };
    let serial = bundle(1);
    for jobs in [2, 8] {
        assert_eq!(serial, bundle(jobs), "artifacts diverged at jobs={jobs}");
    }
}

#[test]
fn per_edge_sta_bound_never_deepens_beyond_the_linear_model() {
    // ROADMAP liveness follow-on (a) regression: the per-edge STA-derived
    // response bound repairs no more aggressively than the load-blind
    // linear model it replaced. Each deepen on the 24-NAND stall design
    // is checked against the old closed-form linear target, and the
    // shipped design still re-screens clean (the oracle re-runs the
    // hazard screen at margin 1.0).
    let lib = vlib90::high_speed();
    let module = imbalanced_recipe().build().unwrap();
    let tool = Desynchronizer::new(&lib).unwrap();
    let result = tool.run(module, &DesyncOptions::default()).0.unwrap();

    let model = drd_core::liveness::ResponseModel::probe(&lib).unwrap();
    let margin = DesyncOptions::default().delay_margin;
    let mut deepens = 0usize;
    for lr in &result.report.liveness_repairs {
        if let LivenessAction::DeepenSuccessor {
            from_levels,
            to_levels,
            ..
        } = &lr.action
        {
            deepens += 1;
            let linear = (((lr.rise_ns * margin - model.ctrl_response_ns) / model.level_delay_ns)
                .ceil() as usize)
                .max(from_levels + 1);
            assert!(
                *to_levels <= linear,
                "per-edge bound deepened to {to_levels}, past the linear target {linear}"
            );
        }
    }
    assert!(
        deepens > 0,
        "the stall design must still be repaired by deepening"
    );

    drd_check::liveness::verify_liveness(&result, &lib).expect("repaired design re-screens clean");
}
