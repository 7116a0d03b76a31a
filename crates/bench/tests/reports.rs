//! The committed `results/BENCH_*.json` reports, read back with the
//! shared JSON parser. Every file must have a producer among the
//! campaigns, every campaign's file must be there, and each must carry
//! the fields EXPERIMENTS.md and a later run's diff read, with the right
//! kind. The thresholds live in the producers (drd-bench's crate doc
//! lists them); this test checks shape only.

use std::path::PathBuf;

use drd_core::Pipeline;
use drd_json::Value;

/// A field's expected kind.
type Kind = fn(&Value) -> bool;

fn num(v: &Value) -> bool {
    v.as_num().is_some()
}

fn text(v: &Value) -> bool {
    v.as_str().is_some()
}

fn flag(v: &Value) -> bool {
    v.as_bool().is_some()
}

fn list(v: &Value) -> bool {
    v.as_arr().is_some()
}

fn map(v: &Value) -> bool {
    matches!(v, Value::Obj(_))
}

/// A report's field check: one line per problem.
type Check = fn(&Value) -> Vec<String>;

/// The campaigns that write a `BENCH_<name>.json`, each with the check of
/// its fields.
const PRODUCERS: [(&str, Check); 7] = [
    ("allocs", allocs),
    ("kernels", kernels),
    ("liveness", liveness),
    ("mutation", mutation),
    ("scale", scale),
    ("serve", serve),
    ("variability", variability),
];

/// The values at `path` in `doc`. A path steps into object members at
/// each `.`; a `key[]` step enters every element of the non-empty array
/// `key`.
fn resolve<'a>(doc: &'a Value, path: &str) -> Result<Vec<&'a Value>, String> {
    let mut current = vec![doc];
    for step in path.split('.') {
        let (key, each) = match step.strip_suffix("[]") {
            Some(key) => (key, true),
            None => (step, false),
        };
        let mut next = Vec::new();
        for value in current {
            let member = value.get(key).ok_or_else(|| format!("no `{key}`"))?;
            if each {
                match member.as_arr() {
                    Some(items) if !items.is_empty() => next.extend(items),
                    _ => return Err(format!("`{key}` is not a non-empty array")),
                }
            } else {
                next.push(member);
            }
        }
        current = next;
    }
    Ok(current)
}

/// One line per field of `fields` that `doc` lacks or holds with another
/// kind.
fn missing<S: AsRef<str>>(doc: &Value, fields: &[(S, Kind)]) -> Vec<String> {
    let mut problems = Vec::new();
    for (path, kind) in fields {
        let path = path.as_ref();
        match resolve(doc, path) {
            Err(e) => problems.push(format!("{path}: {e}")),
            Ok(values) if !values.iter().all(|v| kind(v)) => {
                problems.push(format!("{path}: wrong kind"));
            }
            Ok(_) => {}
        }
    }
    problems
}

/// One line per label of `labels` that no element of the array `key` in
/// `doc` carries.
fn unlabelled(doc: &Value, key: &str, labels: &[&str]) -> Vec<String> {
    let items = doc.get(key).and_then(Value::as_arr).unwrap_or_default();
    labels
        .iter()
        .filter(|&&label| {
            !items
                .iter()
                .any(|r| r.get("label").and_then(Value::as_str) == Some(label))
        })
        .map(|label| format!("{key}: no `{label}`"))
        .collect()
}

fn allocs(doc: &Value) -> Vec<String> {
    let mut problems = missing(
        doc,
        &[
            ("warmup_runs", num as Kind),
            ("counted_runs", num),
            ("jobs", num),
            ("results[].label", text),
            ("results[].allocations", num),
            ("results[].bytes", num),
            ("results[].max_allocations", num),
            ("results[].max_bytes", num),
            ("results[].repeats", flag),
        ],
    );
    problems.extend(unlabelled(
        doc,
        "results",
        &[
            "vlib90_hs",
            "vlib90_ll",
            "parse_dlx32",
            "flow_dlx32",
            "write_dlx32",
            "parse_arm32",
            "flow_arm32",
            "write_arm32",
        ],
    ));
    problems
}

fn kernels(doc: &Value) -> Vec<String> {
    let mut problems = missing(
        doc,
        &[
            ("results[].label", text as Kind),
            ("results[].iters", num),
            ("results[].min_ns", num),
            ("results[].mean_ns", num),
            ("results[].max_ns", num),
            ("ratios[].label", text),
            ("ratios[].reference", text),
            ("ratios[].iters", num),
            ("ratios[].ratio", num),
        ],
    );
    problems.extend(unlabelled(
        doc,
        "ratios",
        &[
            "verilog_parse_dlx_full",
            "verilog_write_dlx_full",
            "handshake_mc_dlx_small_16",
            "desync_flow_dlx32_arm32",
        ],
    ));
    problems
}

fn liveness(doc: &Value) -> Vec<String> {
    let fields = [
        "designs",
        "completed",
        "hazardous_designs",
        "repaired_deepen",
        "repaired_latch",
        "degraded",
        "diagnosed_errors",
        "rejected",
        "undiagnosed_deadlocks",
        "guard_wall_ns",
        "flow_wall_ns",
        "guard_fraction",
        "campaign_wall_ns",
    ];
    missing(doc, &fields.map(|f| (f, num as Kind)))
}

fn mutation(doc: &Value) -> Vec<String> {
    missing(
        doc,
        &[
            ("kinds", num as Kind),
            ("seeds_per_kind", num),
            ("mutants", num),
            ("killed", num),
            ("kill_rate", num),
            ("workers", num),
            ("coverage_buckets", num),
            ("parallel.mutants", num),
            ("parallel.wall_ns", num),
            ("parallel.mutants_per_s", num),
            ("single_thread.mutants", num),
            ("single_thread.wall_ns", num),
            ("single_thread.mutants_per_s", num),
            ("speedup_estimate", num),
            ("results[].label", text),
            ("results[].attacks", text),
            ("results[].seeds", num),
            ("results[].killed", num),
            ("results[].mean_attempts", num),
        ],
    )
}

fn scale(doc: &Value) -> Vec<String> {
    let mut fields: Vec<(String, Kind)> = [
        ("workers", num as Kind),
        ("speedup", num),
        ("lookup_ratio", num),
        ("exponents", map),
        ("points[].label", text),
        ("points[].cells", num),
        ("points[].regions", num),
        ("points[].serial_ns", num),
        ("points[].parallel_ns", num),
        ("points[].speedup", num),
        ("points[].pass_ns", map),
    ]
    .map(|(path, kind)| (path.to_owned(), kind))
    .to_vec();
    for pass in Pipeline::standard().pass_names() {
        fields.push((format!("exponents.{pass}"), num));
        fields.push((format!("points[].pass_ns.{pass}"), num));
    }
    missing(doc, &fields)
}

fn serve(doc: &Value) -> Vec<String> {
    let mut problems = missing(
        doc,
        &[
            ("jobs", num as Kind),
            ("tokens", num),
            ("failed_jobs", num),
            ("identity_mismatches", num),
            ("campaign_wall_ns", num),
            ("runs[].clients", num),
            ("runs[].cache", text),
            ("runs[].jobs_per_sec", num),
            ("runs[].p50_us", num),
            ("runs[].p99_us", num),
        ],
    );
    let runs = doc.get("runs").and_then(Value::as_arr).unwrap_or_default();
    for clients in [1.0, 8.0, 64.0] {
        for cache in ["cold", "warm"] {
            if !runs.iter().any(|r| {
                r.get("clients").and_then(Value::as_num) == Some(clients)
                    && r.get("cache").and_then(Value::as_str) == Some(cache)
            }) {
                problems.push(format!("runs: no {clients}-client {cache} row"));
            }
        }
    }
    problems
}

fn variability(doc: &Value) -> Vec<String> {
    missing(
        doc,
        &[
            ("chips", num as Kind),
            ("workers", num),
            ("host_cores", num),
            ("sigma_grid", list),
            ("serial_ns", num),
            ("parallel_ns", num),
            ("speedup", num),
            ("byte_identical", flag),
            ("designs[].label", text),
            ("designs[].cells", num),
            ("designs[].regions", num),
            ("designs[].controlled_regions", num),
            ("designs[].nominal_desync_ns", num),
            ("designs[].nominal_sync_ns", num),
            ("designs[].taps[].tap", num),
            ("designs[].taps[].factor", num),
            ("designs[].taps[].cycle_ns", num),
            ("designs[].curve[].sigma", num),
            ("designs[].curve[].desync_mean_ns", num),
            ("designs[].curve[].desync_min_ns", num),
            ("designs[].curve[].desync_max_ns", num),
            ("designs[].curve[].sync_mean_ns", num),
            ("designs[].curve[].sync_worst_ns", num),
            ("designs[].curve[].desync_mean_norm", num),
            ("designs[].curve[].sync_worst_norm", num),
            ("designs[].curve[].speed_ratio", num),
            ("designs[].curve[].fraction_faster", num),
            ("designs[].histogram.sigma", num),
            ("designs[].histogram.lo_ns", num),
            ("designs[].histogram.hi_ns", num),
            ("designs[].histogram.desync", list),
            ("designs[].histogram.sync", list),
        ],
    )
}

#[test]
fn committed_reports_parse_with_their_fields() {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../results");
    let mut problems = Vec::new();
    let mut seen = Vec::new();
    for entry in std::fs::read_dir(&dir).expect("results/ reads") {
        let file = entry.expect("entry reads").file_name();
        let file = file.to_str().expect("utf-8 file name");
        let Some(name) = file
            .strip_prefix("BENCH_")
            .and_then(|f| f.strip_suffix(".json"))
        else {
            continue;
        };
        let Some(&(_, check)) = PRODUCERS.iter().find(|(n, _)| *n == name) else {
            problems.push(format!("{file}: no campaign writes it"));
            continue;
        };
        seen.push(name.to_owned());
        let text = std::fs::read_to_string(dir.join(file)).expect("report reads");
        let doc = match drd_json::parse(&text) {
            Ok(doc) => doc,
            Err(e) => {
                problems.push(format!("{file}: {e}"));
                continue;
            }
        };
        if doc.get("name").and_then(Value::as_str) != Some(name) {
            problems.push(format!("{file}: `name` is not \"{name}\""));
        }
        problems.extend(check(&doc).into_iter().map(|p| format!("{file}: {p}")));
    }
    for (name, _) in PRODUCERS {
        if !seen.iter().any(|s| s == name) {
            problems.push(format!("BENCH_{name}.json is missing"));
        }
    }
    assert!(problems.is_empty(), "{}", problems.join("\n"));
}
