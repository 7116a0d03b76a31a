//! Determinism suite: the Monte Carlo merges its chips in chip order, so
//! its samples are byte-identical whatever the worker count; the flow runs
//! serially and never reads `jobs`, so `--jobs`/`DRD_WORKERS` must never
//! leak into its artifacts — report, SDC, exported Verilog and the
//! deterministic FlowTrace rendering; and a multi-module source parses to
//! the same design every time.
//!
//! Cases route through `prop_par_with`, so the suite itself exercises the
//! parallel runner; re-run a single case with `DRD_PROP_CASE_SEED=<seed>`.

use drd_check::netgen::{NetGenParams, NetRecipe};
use drd_check::{prop_par_with, Config, Rng};
use drdesync::core::{DesyncOptions, Desynchronizer};
use drdesync::liberty::vlib90;
use drdesync::netlist::verilog::{parse_design, write_design};
use drdesync::netlist::CellKind;
use drdesync::sim::{GateVariability, HandshakeNet, HandshakeSpec, RegionSpec};

/// The `BENCH_variability` sample vectors: a 1000-chip Monte-Carlo
/// campaign over a four-region handshake ring must merge byte-identically
/// whatever the worker split — every `(chip, desync_cycle_ns,
/// sync_period_ns)` triple, compared at the bit level.
#[test]
fn mc_sample_vectors_are_byte_identical_for_any_worker_count() {
    let lib = vlib90::high_speed();
    let spec = HandshakeSpec {
        regions: (0..4)
            .map(|i| RegionSpec {
                name: format!("g{i}"),
                controlled: true,
                matched_levels: 4 + 3 * i,
                critical_delay_ns: 0.2 + 0.1 * i as f64,
                loopback_latch: false,
            })
            .collect(),
        edges: vec![(0, 1), (1, 2), (2, 3), (3, 0)],
        level_delay_ns: 0.09,
        ff_overhead_ns: 0.15,
    };
    let net = HandshakeNet::elaborate(&spec, &lib).expect("ring elaborates");
    let var = GateVariability::new(0x0BE7_A110, 0.18);
    let serial = net.monte_carlo(&var, 1000, 1).expect("serial campaign");
    assert_eq!(serial.len(), 1000);
    // The campaign must also not collapse to a constant: variability has
    // to actually reach the samples.
    let distinct: std::collections::HashSet<u64> =
        serial.iter().map(|s| s.desync_cycle_ns.to_bits()).collect();
    assert!(
        distinct.len() > 900,
        "only {} distinct cycles",
        distinct.len()
    );
    for workers in [2, 8] {
        let par = net
            .monte_carlo(&var, 1000, workers)
            .expect("parallel campaign");
        assert_eq!(par.len(), serial.len(), "workers={workers}");
        for (a, b) in serial.iter().zip(&par) {
            assert_eq!(a.chip, b.chip, "workers={workers}");
            assert_eq!(
                a.desync_cycle_ns.to_bits(),
                b.desync_cycle_ns.to_bits(),
                "chip {} desync cycle diverged at workers={workers}",
                a.chip
            );
            assert_eq!(
                a.sync_period_ns.to_bits(),
                b.sync_period_ns.to_bits(),
                "chip {} sync period diverged at workers={workers}",
                a.chip
            );
        }
    }
}

/// A source of four modules parses into one design in source order — the
/// first module is the top — with every instance of a design module
/// retargeted from a library cell to that module, and it writes the same
/// bytes on every parse and after a round trip.
#[test]
fn multi_module_parse_merges_in_order_and_retargets_instances() {
    let params = NetGenParams::default();
    let mut rng = Rng::new(0x9A88_11E1_2026_0808);
    let mut src = String::new();
    let mut tops = Vec::new();
    for i in 0..3 {
        let recipe = NetRecipe::sample(&mut rng, &params);
        let name = format!("fuzz_{i}");
        // netgen always emits `module fuzz (...)`; rename so the three
        // generated modules can share one source file.
        src.push_str(
            &recipe
                .verilog()
                .replacen("module fuzz ", &format!("module {name} "), 1),
        );
        tops.push(name);
    }
    // A module instantiating the generated ones, so the parse also
    // exercises instance retargeting across modules.
    src.push_str("module top (clk);\n  input clk;\n");
    for (i, name) in tops.iter().enumerate() {
        src.push_str(&format!("  {name} u{i} (.clk(clk));\n"));
    }
    src.push_str("endmodule\n");

    let design = parse_design(&src).expect("parse succeeds");
    let names: Vec<&str> = design.modules().map(|(_, m)| m.name.as_str()).collect();
    assert_eq!(names, ["fuzz_0", "fuzz_1", "fuzz_2", "top"]);
    assert_eq!(design.top_module().name, "fuzz_0");
    let top = design.module(design.find_module("top").expect("`top` parsed"));
    for (i, name) in tops.iter().enumerate() {
        let cell = top.find_cell(&format!("u{i}")).expect("instance parsed");
        assert!(
            matches!(top.cell_kind(cell), CellKind::Instance(_)),
            "u{i} must instantiate module {name}"
        );
        assert_eq!(top.cell(cell).kind_name(), name.as_str());
    }
    let text = write_design(&design);
    assert_eq!(
        text,
        write_design(&parse_design(&src).expect("parses again"))
    );
    assert_eq!(
        text,
        write_design(&parse_design(&text).expect("round trip"))
    );
}

#[test]
fn flow_artifacts_are_byte_identical_for_any_worker_count() {
    let lib = vlib90::high_speed();
    let tool = Desynchronizer::new(&lib).expect("tool builds");
    let params = NetGenParams {
        max_stages: 4,
        max_width: 4,
        max_cloud: 12,
        max_inputs: 4,
        scan_set_reset: true,
        source_imbalance: 0,
        deepen_infeasible: 0,
    };
    prop_par_with(
        Config::new(25).seed(0xDE7E_2313_57A8_1E01),
        |rng: &mut Rng| NetRecipe::sample(rng, &params),
        |recipe: &NetRecipe| {
            let module = recipe.build().map_err(|e| e.to_string())?;
            // One artifact bundle per worker count; flow errors must also
            // be identical, so they become part of the bundle.
            let bundle = |jobs: usize| -> [String; 4] {
                let opts = DesyncOptions {
                    jobs: Some(jobs),
                    ..DesyncOptions::default()
                };
                match tool.run(module.clone(), &opts) {
                    (Ok(result), trace) => [
                        format!("{:?}", result.report),
                        result.sdc.clone(),
                        write_design(&result.design),
                        trace.to_json_deterministic(),
                    ],
                    (Err(e), _) => [
                        format!("flow error: {e}"),
                        String::new(),
                        String::new(),
                        String::new(),
                    ],
                }
            };
            let serial = bundle(1);
            for workers in [2, 8] {
                let par = bundle(workers);
                if serial != par {
                    let which = ["report", "sdc", "verilog", "trace"]
                        .iter()
                        .zip(serial.iter().zip(par.iter()))
                        .filter(|(_, (a, b))| a != b)
                        .map(|(n, _)| *n)
                        .collect::<Vec<_>>()
                        .join(", ");
                    return Err(format!("workers={workers} diverged in: {which}"));
                }
            }
            Ok(())
        },
    );
}
