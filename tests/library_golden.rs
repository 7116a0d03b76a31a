//! The vlib90 cell library and its gatefile, pinned to committed text.
//!
//! `tests/golden/vlib90_hs.lib` and `vlib90_ll.lib` are the Liberty
//! source of both variants; `gatefile_hs.txt` and `gatefile_ll.txt` are
//! what `drdesync gatefile --lib hs|ll` prints. Each golden library,
//! read through the `.lib` parser, must equal the library the tool
//! builds, cell for cell and bit for bit: a cell's `{:?}` prints every
//! `f64` in its shortest round-trip form, so equal text is equal bits.
//! These files are never re-recorded: a change to any of them is a
//! change to the library.

use std::path::PathBuf;
use std::process::Command;

use drdesync::liberty::gatefile::Gatefile;
use drdesync::liberty::{parse_library, vlib90, Library};

fn golden(name: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// Asserts that `built` equals the library parsed from golden `file`,
/// in name, cell order and every cell's fields.
fn assert_equals_golden(built: &Library, file: &str) {
    let parsed = parse_library(&golden(file)).unwrap_or_else(|e| panic!("{file}: {e}"));
    assert_eq!(built.name(), parsed.name(), "{file}: library name");
    let built: Vec<String> = built.cells().map(|c| format!("{c:?}")).collect();
    let parsed: Vec<String> = parsed.cells().map(|c| format!("{c:?}")).collect();
    for (b, p) in built.iter().zip(&parsed) {
        assert_eq!(b, p, "{file}: cell differs");
    }
    assert_eq!(built.len(), parsed.len(), "{file}: cell count");
}

#[test]
fn high_speed_library_equals_its_liberty_golden() {
    assert_equals_golden(&vlib90::high_speed(), "vlib90_hs.lib");
}

#[test]
fn low_leakage_library_equals_its_liberty_golden() {
    assert_equals_golden(&vlib90::low_leakage(), "vlib90_ll.lib");
}

#[test]
fn gatefiles_equal_their_goldens() {
    for (lib, file) in [
        (vlib90::high_speed(), "gatefile_hs.txt"),
        (vlib90::low_leakage(), "gatefile_ll.txt"),
    ] {
        let text = Gatefile::from_library(&lib)
            .expect("gatefile builds")
            .to_text();
        assert_eq!(text, golden(file), "{file}");
    }
}

#[test]
fn cli_gatefile_prints_the_goldens() {
    for (flag, file) in [("hs", "gatefile_hs.txt"), ("ll", "gatefile_ll.txt")] {
        let out = Command::new(env!("CARGO_BIN_EXE_drdesync"))
            .args(["gatefile", "--lib", flag])
            .output()
            .expect("binary runs");
        assert!(out.status.success(), "gatefile --lib {flag}");
        assert_eq!(String::from_utf8_lossy(&out.stdout), golden(file), "{file}");
    }
}
