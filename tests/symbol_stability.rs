//! `Symbol` stability across parse → flow → write: symbols recorded on
//! the parsed input module still resolve to the same bytes in the flow
//! output (the flow takes over the module, so its interner travels with it),
//! and the exported Verilog spells every surviving name identically.

use std::path::PathBuf;

use drd_check::netgen::{NetGenParams, NetRecipe};
use drd_check::Rng;
use drdesync::core::Desynchronizer;
use drdesync::netlist::Symbol;

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

#[test]
fn symbols_survive_parse_flow_write() {
    let src = std::fs::read_to_string(golden_dir().join("escaped_small.v")).expect("input reads");
    let module = drdesync::netlist::verilog::parse_module(&src).expect("input parses");

    // Record every name boundary-crossing symbol on the parsed module.
    let mut recorded: Vec<(Symbol, String)> = Vec::new();
    for (id, net) in module.nets() {
        recorded.push((module.net_sym(id), net.name.to_owned()));
    }
    for (id, cell) in module.cells() {
        recorded.push((module.cell_sym(id), cell.name.to_owned()));
    }
    assert!(recorded.len() > 4, "fixture is non-trivial");

    let lib = drdesync::liberty::vlib90::high_speed();
    let tool = Desynchronizer::new(&lib).expect("tool builds");
    let result = tool
        .run(module, &drdesync::core::DesyncOptions::default())
        .0
        .expect("desync runs");

    // The flow transforms the input module in place, so every recorded
    // symbol must still resolve to the exact same bytes in the output.
    let out = result.design.top_module();
    for (sym, name) in &recorded {
        assert_eq!(
            out.symbols().resolve(*sym),
            name.as_str(),
            "symbol for `{name}` drifted through the flow"
        );
    }

    // Names that survive into the output netlist are spelled identically
    // at the write boundary (modulo Verilog escaping, which the reparse
    // strips again).
    let text = drdesync::netlist::verilog::write_design(&result.design);
    let back = drdesync::netlist::verilog::parse_design(&text).expect("output reparses");
    let back_top = back.top_module();
    let mut survived = 0usize;
    for (_, name) in &recorded {
        if out.find_net(name).is_some() && back_top.find_net(name).is_some() {
            survived += 1;
        }
    }
    assert!(
        survived >= 2,
        "escaped input nets survive to the output: {survived}"
    );
}

/// The writer's output is a fixed point of write ∘ parse: once a netlist
/// has been exported, re-parsing and re-exporting it reproduces the same
/// bytes. This pins symbol interning, escaped-name sanitization, bus-bit
/// naming and port ordering all at once — any drift in one of them shows
/// up as a byte diff on the second round trip.
#[test]
fn write_parse_write_is_a_fixed_point() {
    let mut sources: Vec<(String, String)> = Vec::new();

    let params = NetGenParams::default();
    let mut rng = Rng::new(0xF1F0_1A17_2026_0808);
    for case in 0..25 {
        let recipe = NetRecipe::sample(&mut rng, &params);
        sources.push((format!("fuzz netlist {case}"), recipe.verilog()));
    }
    for name in ["escaped_small.v", "escaped_small_out.v"] {
        let text = std::fs::read_to_string(golden_dir().join(name)).expect("fixture reads");
        sources.push((name.to_owned(), text));
    }

    for (what, src) in &sources {
        let design = drdesync::netlist::verilog::parse_design(src)
            .unwrap_or_else(|e| panic!("{what} parses: {e}"));
        let first = drdesync::netlist::verilog::write_design(&design);
        let reparsed = drdesync::netlist::verilog::parse_design(&first)
            .unwrap_or_else(|e| panic!("written {what} reparses: {e}"));
        let second = drdesync::netlist::verilog::write_design(&reparsed);
        assert_eq!(first, second, "write∘parse not a fixed point for {what}");
    }
}

/// The symbol table's tag spreads real netlist names: parsing each of the
/// paper's four cores as written leaves no name more than
/// `PROBE_BOUND` buckets into its probe run. Measured 16 to 35 (DLX32
/// longest) with the word-pair tag, against 11 to 32 for the chunk-loop
/// tag it replaced at the same table sizes; a tag that ignored the middle
/// of a name, or hashed its length alone, runs into the hundreds on these
/// bus-bit and counter-suffixed names.
#[test]
fn paper_core_names_probe_within_a_bound() {
    use drdesync::designs::{armlike::ArmParams, dlx::DlxParams};
    use drdesync::flow::CaseStudy;
    const PROBE_BOUND: usize = 64;
    let cores = [
        CaseStudy::dlx(&DlxParams::small()),
        CaseStudy::dlx(&DlxParams::full()),
        CaseStudy::armlike(&ArmParams::small()),
        CaseStudy::armlike(&ArmParams::full()),
    ];
    for core in cores {
        let core = core.expect("case study builds");
        let text = drdesync::netlist::verilog::write_module(&core.module);
        let module = drdesync::netlist::verilog::parse_module(&text).expect("core parses");
        let probe = module.symbols().longest_probe();
        assert!(
            probe <= PROBE_BOUND,
            "{}: a name sits {probe} buckets into its probe run",
            core.name
        );
    }
}
