//! Differential oracle for `drdesync serve` (DESIGN.md §3j): the server
//! and the one-shot CLI are two front ends over the same flow, so every
//! artifact — report, SDC, Verilog — must be **byte-identical** across
//!
//! * the one-shot CLI (`drdesync desync -o/--sdc/--report`),
//! * `drdesync serve --stdio` with one request in flight (cold cache),
//! * `drdesync serve --stdio` with eight requests in flight (cold
//!   cache, cross-job scheduling active),
//! * warm-cache replays of both serve runs (`cached:true` responses),
//!   whose whole response lines must equal the cold lines but for the
//!   `id` and the `cached` flag.
//!
//! The corpus is 25 fuzzed netlists (seeded netgen, vetted in-process so
//! every flow succeeds; a third carry the imbalanced liveness-hazard
//! shape so the reports contain repair records, not just topology).

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::process::{Command, Stdio};

use drd_check::netgen::{NetGenParams, NetRecipe};
use drd_check::Rng;
use drd_core::{DesyncOptions, Desynchronizer};
use drd_liberty::vlib90;
use drd_serve::json;

const CORPUS: usize = 25;

/// Seeded fuzz corpus, vetted in-process: only netlists whose flow
/// succeeds are kept (the differential compares artifacts, and error
/// paths have none).
fn corpus() -> Vec<String> {
    let lib = vlib90::high_speed();
    let tool = Desynchronizer::new(&lib).expect("tool builds");
    let mut rng = Rng::new(0x5E12_7E00_D1FF);
    let params = NetGenParams::default();
    let mut kept = Vec::new();
    let mut drawn = 0usize;
    while kept.len() < CORPUS {
        drawn += 1;
        assert!(drawn < 400, "corpus generation stopped converging");
        let mut recipe = NetRecipe::sample(&mut rng, &params);
        if drawn.is_multiple_of(3) {
            recipe.imbalance(rng.range(6, 18));
        }
        let Ok(module) = recipe.build() else { continue };
        if tool.run(module, &DesyncOptions::default()).0.is_ok() {
            kept.push(recipe.verilog());
        }
    }
    kept
}

/// The three artifacts the oracle compares.
#[derive(Debug, Clone, PartialEq)]
struct Artifacts {
    report: String,
    sdc: String,
    verilog: String,
}

/// Runs one netlist through the one-shot CLI, returning its artifacts.
fn cli_artifacts(dir: &std::path::Path, i: usize, verilog: &str) -> Artifacts {
    let src = dir.join(format!("in{i}.v"));
    let out = dir.join(format!("out{i}.v"));
    let sdc = dir.join(format!("out{i}.sdc"));
    let report = dir.join(format!("out{i}.report"));
    std::fs::write(&src, verilog).expect("corpus file written");
    let status = Command::new(env!("CARGO_BIN_EXE_drdesync"))
        .args(["desync"])
        .arg(&src)
        .arg("-o")
        .arg(&out)
        .arg("--sdc")
        .arg(&sdc)
        .arg("--report")
        .arg(&report)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .expect("cli spawns");
    assert!(status.success(), "vetted netlist {i} failed in the CLI");
    Artifacts {
        report: std::fs::read_to_string(&report).expect("report read"),
        sdc: std::fs::read_to_string(&sdc).expect("sdc read"),
        verilog: std::fs::read_to_string(&out).expect("verilog read"),
    }
}

fn desync_request(id: &str, verilog: &str) -> String {
    format!(
        "{{\"id\":\"{id}\",\"kind\":\"desync\",\"verilog\":{},\"options\":{{}}}}",
        json::escape(verilog)
    )
}

/// Parses a serve response, asserting success and the expected cache
/// disposition, and extracts its artifacts.
fn response_artifacts(line: &str, want_cached: bool) -> (String, Artifacts) {
    let v = json::parse(line).expect("response parses");
    let id = v
        .get("id")
        .and_then(json::Value::as_str)
        .expect("id")
        .to_owned();
    assert_eq!(
        v.get("status").and_then(json::Value::as_str),
        Some("ok"),
        "job {id} failed: {line}"
    );
    assert_eq!(
        v.get("cached").and_then(json::Value::as_bool),
        Some(want_cached),
        "job {id}: wrong cache disposition"
    );
    let field = |k: &str| {
        v.get(k)
            .and_then(json::Value::as_str)
            .expect("artifact")
            .to_owned()
    };
    (
        id,
        Artifacts {
            report: field("report"),
            sdc: field("sdc"),
            verilog: field("verilog"),
        },
    )
}

/// One job's response line and the artifacts it carries.
type Answer = (String, Artifacts);

/// Runs the corpus through one `serve --stdio` process: a cold pass with
/// `window` requests in flight, then a warm replay of the whole corpus.
/// Responses are matched by id — with several jobs in flight completion
/// order is schedule-dependent. Each warm line must equal its cold line
/// but for the id and the `cached` flag, so the replayed `netlist_hash`
/// and `trace` are pinned too.
fn serve_artifacts(corpus: &[String], window: usize) -> (Vec<Artifacts>, Vec<Artifacts>) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_drdesync"))
        .args(["serve", "--stdio"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("server spawns");
    let mut stdin = child.stdin.take().expect("stdin");
    let mut stdout = BufReader::new(child.stdout.take().expect("stdout"));

    let mut read_line = || {
        let mut line = String::new();
        stdout.read_line(&mut line).expect("response read");
        assert!(!line.is_empty(), "server hung up early");
        line
    };

    let mut run_pass = |prefix: &str, want_cached: bool| -> Vec<Answer> {
        let mut got: HashMap<String, Answer> = HashMap::new();
        for chunk in corpus.chunks(window) {
            let base = got.len();
            for (j, v) in chunk.iter().enumerate() {
                let req = desync_request(&format!("{prefix}{}", base + j), v);
                writeln!(stdin, "{req}").expect("request written");
            }
            for _ in chunk {
                let line = read_line();
                let (id, art) = response_artifacts(&line, want_cached);
                assert!(
                    got.insert(id, (line, art)).is_none(),
                    "duplicate response id"
                );
            }
        }
        (0..corpus.len())
            .map(|i| {
                got.remove(&format!("{prefix}{i}"))
                    .expect("response for every job")
            })
            .collect()
    };

    let cold = run_pass("c", false);
    let warm = run_pass("w", true);
    for (i, ((cold_line, _), (warm_line, _))) in cold.iter().zip(&warm).enumerate() {
        let replayed = cold_line
            .replacen(
                &format!("{{\"id\":\"c{i}\","),
                &format!("{{\"id\":\"w{i}\","),
                1,
            )
            .replacen(",\"cached\":false,", ",\"cached\":true,", 1);
        assert_eq!(
            warm_line, &replayed,
            "netlist {i}: the warm line is not the cold line with a new id and cached:true"
        );
    }

    writeln!(stdin, "{{\"id\":\"bye\",\"kind\":\"shutdown\"}}").expect("shutdown written");
    let bye = read_line();
    assert!(
        bye.contains("\"shutdown\""),
        "unexpected shutdown response: {bye}"
    );
    drop(stdin);
    assert!(child.wait().expect("server exits").success());
    let artifacts = |answers: Vec<Answer>| answers.into_iter().map(|(_, art)| art).collect();
    (artifacts(cold), artifacts(warm))
}

#[test]
fn serve_and_cli_artifacts_are_byte_identical_across_all_paths() {
    let corpus = corpus();
    let dir = std::env::temp_dir().join(format!("drd_serve_diff_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");

    let cli: Vec<Artifacts> = corpus
        .iter()
        .enumerate()
        .map(|(i, v)| cli_artifacts(&dir, i, v))
        .collect();
    let (cold1, warm1) = serve_artifacts(&corpus, 1);
    let (cold8, warm8) = serve_artifacts(&corpus, 8);

    for (i, want) in cli.iter().enumerate() {
        for (path, got) in [
            ("serve@1 cold", &cold1[i]),
            ("serve@1 warm", &warm1[i]),
            ("serve@8 cold", &cold8[i]),
            ("serve@8 warm", &warm8[i]),
        ] {
            assert_eq!(
                want, got,
                "netlist {i}: {path} diverged from the CLI artifacts"
            );
        }
    }
    // The corpus must not be trivially empty-artifact: every flow ships
    // a netlist and an SDC.
    assert!(cli
        .iter()
        .all(|a| !a.verilog.is_empty() && !a.sdc.is_empty()));

    let _ = std::fs::remove_dir_all(&dir);
}
