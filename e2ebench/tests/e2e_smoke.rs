//! Smoke test of the benchmark itself: every workload once, untraced and
//! traced, in its shortest form (`--smoke`: one round, or one short
//! serve chunk of each kind). Needs the program under test built first:
//!
//! ```text
//! cargo build --release --offline            # at the repository root
//! cargo test --release --offline --manifest-path e2ebench/Cargo.toml
//! ```

use std::path::{Path, PathBuf};
use std::process::Command;

use drd_serve::json::{self, Value};

const WORKLOADS: [&str; 4] = [
    "paper_cores",
    "netgen_ladder",
    "serve_mix",
    "mc_variability",
];

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("..")
}

fn target_dir() -> PathBuf {
    let dir = std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| "target".into(), PathBuf::from);
    if dir.is_absolute() {
        dir
    } else {
        repo_root().join(dir)
    }
}

/// The metric names `BENCHMARK.json` declares under `key`.
fn declared(key: &str) -> Vec<String> {
    let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json")).expect("BENCHMARK.json");
    let doc = json::parse(&text).expect("BENCHMARK.json parses");
    doc.get(key)
        .and_then(Value::as_arr)
        .expect("metric list")
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(Value::as_str)
                .expect("metric name")
                .to_owned()
        })
        .collect()
}

/// Runs every workload through `e2e run --smoke` and returns the
/// combined result document.
fn run_all(trace: bool) -> Value {
    let out = Command::new(env!("CARGO_BIN_EXE_e2e"))
        .current_dir(repo_root())
        .args(["run", "--seed", "0", "--seconds", "1", "--smoke"])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()
        .expect("e2e runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "e2e run failed: {}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    json::parse(stdout.lines().last().expect("a result line")).expect("result parses")
}

fn check_results(doc: &Value, want: &[String]) {
    for w in WORKLOADS {
        let result = doc.get(w).unwrap_or_else(|| panic!("no result for {w}"));
        assert_eq!(
            result.get("correct").and_then(Value::as_bool),
            Some(true),
            "{w}"
        );
        assert_eq!(
            result.get("failed").and_then(Value::as_num),
            Some(0.0),
            "{w}: fail_rate"
        );
        assert!(
            result.get("attempted").and_then(Value::as_num) >= Some(1.0),
            "{w}"
        );
        let Some(Value::Obj(metrics)) = result.get("metrics") else {
            panic!("{w}: no metrics")
        };
        let names: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(names, want, "{w}: metric names differ from BENCHMARK.json");
        for (name, m) in metrics {
            let v = m.get("value").and_then(Value::as_num);
            assert!(v.is_some_and(f64::is_finite), "{w}: {name} is not a number");
            assert!(
                m.get("unit").and_then(Value::as_str).is_some(),
                "{w}: {name} has no unit"
            );
        }
    }
}

/// Every span's parent exists, comes first, and encloses it.
fn check_trace(workload: &str) {
    let path = target_dir().join(format!("bench-e2e/trace_{workload}.json"));
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    let doc = json::parse(&text).expect("trace parses");
    let spans = doc.get("spans").and_then(Value::as_arr).expect("spans");
    assert!(!spans.is_empty(), "{workload}: no spans");
    let num = |s: &Value, k: &str| s.get(k).and_then(Value::as_num).expect(k);
    for (i, s) in spans.iter().enumerate() {
        assert_eq!(num(s, "id"), i as f64);
        assert!(
            num(s, "start_ns") <= num(s, "end_ns"),
            "{workload}: span {i} ends first"
        );
        let Some(p) = s.get("parent").and_then(Value::as_num) else {
            continue;
        };
        assert!(
            p < i as f64,
            "{workload}: span {i} has parent {p}, not an earlier span"
        );
        let parent = &spans[p as usize];
        assert!(
            num(parent, "start_ns") <= num(s, "start_ns")
                && num(s, "end_ns") <= num(parent, "end_ns"),
            "{workload}: span {i} is not inside its parent {p}"
        );
        assert_eq!(
            num(parent, "job"),
            num(s, "job"),
            "{workload}: span {i} changes job"
        );
    }
}

#[test]
fn every_workload_runs_and_reports_the_declared_metrics() {
    let drdesync = target_dir().join("release/drdesync");
    assert!(
        drdesync.is_file(),
        "the program under test is not built: expected {} — run \
         `cargo build --release --offline` at the repository root first",
        drdesync.display()
    );
    check_results(&run_all(false), &declared("end_to_end"));
    check_results(&run_all(true), &declared("per_layer"));
    for w in WORKLOADS {
        check_trace(w);
    }
}
