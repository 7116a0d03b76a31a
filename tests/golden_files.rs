//! Golden-file regression: the SDC and flow report of the DLX and
//! ARM-like case studies are snapshotted under `tests/golden/`. The
//! full-size cores also pin their exported Verilog, as one content-hash
//! line (the netlists are over a megabyte each).
//!
//! Re-record after an intentional output change with:
//!
//! ```bash
//! DRD_BLESS=1 cargo test -q --test golden_files
//! ```

use std::path::PathBuf;

use drd_check::golden::{assert_golden, render_desync_report};
use drdesync::core::{DesyncResult, Desynchronizer};
use drdesync::flow::experiment::CaseStudy;
use drdesync::netlist::hash::content_hash_hex;

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

fn snapshot_case(case: &CaseStudy, stem: &str) -> DesyncResult {
    let tool = Desynchronizer::new(&case.lib).expect("tool builds");
    let result = tool
        .run(case.module.clone(), &case.desync)
        .0
        .expect("desync runs");
    assert_golden(golden_dir().join(format!("{stem}.sdc")), &result.sdc);
    assert_golden(
        golden_dir().join(format!("{stem}_report.txt")),
        &render_desync_report(&result.report),
    );
    result
}

/// [`snapshot_case`] plus the exported Verilog, pinned by its
/// `content_hash128` hex digest.
fn snapshot_full_case(case: &CaseStudy, stem: &str) {
    let result = snapshot_case(case, stem);
    let verilog = drdesync::netlist::verilog::write_design(&result.design);
    assert_golden(
        golden_dir().join(format!("{stem}_verilog.hash")),
        &format!("{}\n", content_hash_hex(verilog.as_bytes())),
    );
}

#[test]
fn golden_dlx_small_sdc_and_report() {
    let case = CaseStudy::dlx(&drdesync::designs::dlx::DlxParams::small()).expect("case builds");
    snapshot_case(&case, "dlx_small");
}

#[test]
fn golden_armlike_small_sdc_and_report() {
    let case =
        CaseStudy::armlike(&drdesync::designs::armlike::ArmParams::small()).expect("case builds");
    snapshot_case(&case, "armlike_small");
}

/// The paper-scale DLX (§5.2) with its own case-study options.
#[test]
fn golden_dlx32_sdc_report_and_verilog_hash() {
    let case = CaseStudy::dlx(&drdesync::designs::dlx::DlxParams::full()).expect("case builds");
    snapshot_full_case(&case, "dlx32");
}

/// The paper-scale ARM-like core (§5.3): scan design, single group.
#[test]
fn golden_arm32_sdc_report_and_verilog_hash() {
    let case =
        CaseStudy::armlike(&drdesync::designs::armlike::ArmParams::full()).expect("case builds");
    snapshot_full_case(&case, "arm32");
}

/// Escaped-identifier handling: bus-bit names keep their brackets through
/// import (`\clk[0] ` -> `clk[0]`), so SDC emission must brace every
/// design-derived name (unbraced `[0]` is Tcl command substitution) and the
/// exported Verilog must re-escape them and round-trip.
#[test]
fn golden_escaped_names_round_trip() {
    let src = std::fs::read_to_string(golden_dir().join("escaped_small.v")).expect("input reads");
    let module = drdesync::netlist::verilog::parse_module(&src).expect("escaped input parses");
    let lib = drdesync::liberty::vlib90::high_speed();
    let tool = Desynchronizer::new(&lib).expect("tool builds");
    let result = tool
        .run(module, &drdesync::core::DesyncOptions::default())
        .0
        .expect("desync runs");
    assert!(
        result.sdc.contains("[get_ports {clk[0]}]"),
        "clock port must be braced:\n{}",
        result.sdc
    );
    assert!(!result.sdc.contains("[get_ports clk[0]]"), "{}", result.sdc);
    let out = drdesync::netlist::verilog::write_design(&result.design);
    drdesync::netlist::verilog::parse_design(&out).expect("exported Verilog round-trips");
    assert_golden(golden_dir().join("escaped_small.sdc"), &result.sdc);
    assert_golden(golden_dir().join("escaped_small_out.v"), &out);
}

/// The snapshotted artifacts are deterministic: generating twice from
/// scratch yields byte-identical text (guards the golden files against
/// hidden iteration-order nondeterminism).
#[test]
fn golden_artifacts_are_deterministic() {
    let render = || {
        let case = CaseStudy::dlx(&drdesync::designs::dlx::DlxParams::small()).unwrap();
        let tool = Desynchronizer::new(&case.lib).unwrap();
        let result = tool.run(case.module, &case.desync).0.unwrap();
        (result.sdc.clone(), render_desync_report(&result.report))
    };
    assert_eq!(render(), render());
}
