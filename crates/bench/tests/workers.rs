//! The campaigns read `DRD_WORKERS` through `drd_bench::workers`: a
//! value that is not a number ends them with exit 2 and a message naming
//! it, before any work, rather than with a panic (exit 101).

use std::process::Command;

#[test]
fn malformed_drd_workers_exits_2_naming_it() {
    for bin in [
        env!("CARGO_BIN_EXE_mutation"),
        env!("CARGO_BIN_EXE_variability"),
    ] {
        let out = Command::new(bin)
            .env("DRD_WORKERS", "abc")
            .env("DRD_BENCH_DIR", env!("CARGO_TARGET_TMPDIR"))
            .output()
            .expect("the campaign starts");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{bin}: {stderr}");
        assert!(
            stderr.contains("DRD_WORKERS=abc is not a number"),
            "{bin}: {stderr}"
        );
        assert!(!stderr.contains("panicked"), "{bin}: {stderr}");
    }
}
