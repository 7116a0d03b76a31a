//! Deterministic hostile-input regression corpus.
//!
//! `tests/corpus/hostile/` holds small Verilog fixtures distilled from
//! the randomized 10k crash-fuzz campaign (`tests/hostile.rs`)
//! plus handcrafted probes of every parser resource cap. The expected
//! outcome is encoded in the file name: `reject_*` must return a
//! structured error, `accept_*` must parse. Either way the parser must
//! *return* — a panic on any fixture fails the suite immediately, which
//! pins past crash classes (truncated input, token soup, unterminated
//! comments, escaped identifiers at EOF) without re-running the fuzzer.

use std::panic::catch_unwind;
use std::path::PathBuf;

use drdesync::netlist::verilog;

fn corpus_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/corpus/hostile")
}

#[test]
fn hostile_corpus_replays_with_expected_outcomes() {
    let mut paths: Vec<_> = std::fs::read_dir(corpus_dir())
        .expect("corpus dir reads")
        .map(|e| e.expect("entry reads").path())
        .filter(|p| p.extension().is_some_and(|x| x == "v"))
        .collect();
    paths.sort();
    assert!(paths.len() >= 15, "corpus unexpectedly small: {}", paths.len());

    for path in paths {
        let name = path
            .file_name()
            .and_then(|n| n.to_str())
            .expect("utf-8 file name")
            .to_owned();
        let src = std::fs::read_to_string(&path).expect("fixture reads");

        let outcome = catch_unwind(|| verilog::parse_design(&src))
            .unwrap_or_else(|_| panic!("parser panicked on {name}"));

        if name.starts_with("reject_") {
            assert!(outcome.is_err(), "{name} parsed but is marked reject");
        } else if name.starts_with("accept_") {
            let design = outcome.unwrap_or_else(|e| panic!("{name} failed to parse: {e}"));
            // Accepted fixtures must also round-trip to a writer fixed
            // point: the corpus doubles as a regression net for the
            // exporter's handling of the same odd constructs.
            let first = verilog::write_design(&design);
            let reparsed = verilog::parse_design(&first)
                .unwrap_or_else(|e| panic!("written {name} reparses: {e}"));
            let second = verilog::write_design(&reparsed);
            assert_eq!(first, second, "write∘parse drifts for {name}");
        } else {
            panic!("{name}: corpus files must be named accept_*.v or reject_*.v");
        }
    }
}
