//! Differential parser equivalence: the streaming zero-copy front end
//! against the recorded verdicts of the pre-streaming parser it
//! replaced. That parser was deterministic and frozen, and every input
//! below is fixed or seeded, so its verdicts are constants: they were
//! recorded once with `DRD_BLESS=1` before its removal, into
//! `tests/golden/frontend/*.txt`, one `<case>: <verdict>` line per input.
//! The contract, per verdict:
//! - `accept <hash>`: the old parser parsed the input, and `<hash>` is
//!   the `content_hash128` of its design's name-resolved structural
//!   signature followed by its re-exported Verilog. The streaming parser
//!   must produce the same hash: the same modules, ports, nets, cells,
//!   pins and constant ties by **resolved name** (symbol indices are an
//!   internal detail and free to differ), re-exported byte-identically;
//! - `reject`: the streaming parser must reject the input too.
//!
//! The old parser returned on every input here (the recording would have
//! written `legacy-panic` otherwise), and the streaming parser must never
//! panic on any of them. No parser is left to re-record the verdicts
//! from, so `DRD_BLESS` leaves the files alone. The inputs: the seeded 25-netlist fuzz corpus
//! (`drd-check` netgen), the golden Verilog fixtures, and targeted
//! constructs around known divergence risks (escaped names, wide
//! constants, classic vs ANSI ports, assign aliases).

use std::fmt::Write as _;
use std::panic::catch_unwind;
use std::path::PathBuf;

use drd_check::netgen::{NetGenParams, NetRecipe};
use drd_check::Rng;
use drd_netlist::hash::content_hash_hex;
use drd_netlist::verilog;
use drd_netlist::{Conn, Design};

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

/// A canonical, fully name-resolved dump of a design's structure. Two
/// designs with equal signatures are the same netlist regardless of how
/// their symbol tables assigned indices.
fn design_signature(design: &Design) -> String {
    let mut out = String::new();
    for (_, m) in design.modules() {
        let _ = writeln!(out, "module {}", m.name);
        for (_, p) in m.ports() {
            let _ = writeln!(out, "  port {} {:?}", p.name, p.dir);
        }
        for (_, n) in m.nets() {
            let _ = write!(out, "  net {}", n.name);
            if let Some(b) = n.bus {
                let _ = write!(out, " bus {}[{}]", b.base, b.index);
            }
            out.push('\n');
        }
        for (_, c) in m.cells() {
            let _ = write!(out, "  cell {} {:?}", c.name, c.kind_ref());
            for &(pin, conn) in c.pins() {
                let _ = write!(out, " .{}(", m.resolve(pin));
                match conn {
                    Conn::Net(id) => out.push_str(m.net(id).name),
                    Conn::Const0 => out.push('0'),
                    Conn::Const1 => out.push('1'),
                    Conn::Open => {}
                }
                out.push(')');
            }
            out.push('\n');
        }
        for &(net, value) in m.const_ties() {
            let _ = writeln!(out, "  tie {} {}", m.net(net).name, u8::from(value));
        }
    }
    out
}

/// The `accept` hash of a parsed design: its structural signature
/// followed by its re-exported Verilog.
fn design_hash(design: &Design) -> String {
    let mut text = design_signature(design);
    text.push_str(&verilog::write_design(design));
    content_hash_hex(text.as_bytes())
}

/// Holds the streaming parser to the recorded verdicts in
/// `tests/golden/frontend/<file>`: one line per `(label, source)` case,
/// in order, under the contract in the module docs.
fn assert_matches_frozen_verdicts<L: AsRef<str>, S: AsRef<str>>(file: &str, cases: &[(L, S)]) {
    let path = golden_dir().join("frontend").join(file);
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("{} unreadable: {e}", path.display()));
    let verdicts: Vec<(&str, &str)> = text
        .lines()
        .map(|l| {
            l.split_once(": ")
                .unwrap_or_else(|| panic!("{file}: `{l}` is not `<case>: <verdict>`"))
        })
        .collect();
    assert_eq!(verdicts.len(), cases.len(), "{file}: one verdict per case");
    for ((label, src), &(recorded, verdict)) in cases.iter().zip(&verdicts) {
        let (label, src) = (label.as_ref(), src.as_ref());
        assert_eq!(label, recorded, "{file}: cases out of order");
        let parsed = catch_unwind(|| verilog::parse_design(src))
            .unwrap_or_else(|_| panic!("streaming parser panicked on {label}"));
        match (verdict, parsed) {
            ("reject", Err(_)) => {}
            ("reject", Ok(_)) => {
                panic!("streaming parser accepted {label}, which the old parser rejected")
            }
            (v, parsed) => {
                let hash = v
                    .strip_prefix("accept ")
                    .unwrap_or_else(|| panic!("{file}: unknown verdict `{v}`"));
                let design = parsed.unwrap_or_else(|e| {
                    panic!("streaming parser rejected {label}, which the old parser accepts: {e}")
                });
                assert_eq!(
                    design_hash(&design),
                    hash,
                    "structural or re-export divergence on {label}"
                );
            }
        }
    }
}

#[test]
fn parsers_agree_on_25_netlist_fuzz_corpus() {
    let params = NetGenParams::default();
    let mut rng = Rng::new(0xD1FF_F00D_2026_0808);
    let cases: Vec<_> = (0..25)
        .map(|case| {
            let src = NetRecipe::sample(&mut rng, &params).verilog();
            assert!(
                src.contains("module"),
                "netgen produced an empty case {case}"
            );
            (format!("fuzz netlist {case}"), src)
        })
        .collect();
    assert_matches_frozen_verdicts("fuzz_corpus.txt", &cases);
}

/// The `tests/golden/*.v` fixtures the verdicts were recorded on, named
/// by the verdict file itself.
#[test]
fn parsers_agree_on_golden_fixtures() {
    let listed = std::fs::read_to_string(golden_dir().join("frontend/fixtures.txt"))
        .expect("fixture verdicts read");
    let cases: Vec<_> = listed
        .lines()
        .filter_map(|l| l.split_once(": "))
        .map(|(name, _)| {
            let src = std::fs::read_to_string(golden_dir().join(name))
                .unwrap_or_else(|e| panic!("fixture {name} unreadable: {e}"));
            (name, src)
        })
        .collect();
    assert!(
        cases.len() >= 2,
        "expected at least escaped_small.v and its output"
    );
    assert_matches_frozen_verdicts("fixtures.txt", &cases);
}

#[test]
fn parsers_agree_on_targeted_constructs() {
    let cases: &[(&str, &str)] = &[
        (
            "escaped identifiers with bus suffixes",
            "module t(a, z);\n  input a;\n  output z;\n  wire \\u.q[3] ;\n  \
             BUFX1 b1 (.A(a), .Z(\\u.q[3] ));\n  BUFX1 b2 (.A(\\u.q[3] ), .Z(z));\nendmodule\n",
        ),
        (
            "colliding sanitized escaped names",
            "module t(z);\n  output z;\n  wire \\a+b ;\n  wire \\a-b ;\n  \
             AND2X1 g (.A(\\a+b ), .B(\\a-b ), .Z(z));\nendmodule\n",
        ),
        (
            "classic (non-ANSI) port declarations",
            "module t(a, b, z);\n  input a, b;\n  output z;\n  \
             AND2X1 g (.A(a), .B(b), .Z(z));\nendmodule\n",
        ),
        (
            "ANSI ranged ports and bus expressions",
            "module t(input [3:0] a, output [3:0] z);\n  \
             BUFX1 g0 (.A(a[0]), .Z(z[0]));\n  BUFX1 g1 (.A(a[1]), .Z(z[1]));\n  \
             BUFX1 g2 (.A(a[2]), .Z(z[2]));\n  BUFX1 g3 (.A(a[3]), .Z(z[3]));\nendmodule\n",
        ),
        (
            "assign aliases onto ports and constants",
            "module t(a, z, y);\n  input a;\n  output z, y;\n  wire w;\n  \
             assign w = a;\n  assign y = 1'b1;\n  BUFX1 g (.A(w), .Z(z));\nendmodule\n",
        ),
        (
            "concatenations into multi-bit pins",
            "module t(a, b, z);\n  input a, b;\n  output z;\n  \
             MX2X1 g (.A({a, b}), .S0(a), .Y(z));\nendmodule\n",
        ),
        (
            "sized constants in every base",
            "module t(z0, z1, z2, z3);\n  output z0, z1, z2, z3;\n  \
             BUFX1 g0 (.A(1'b1), .Z(z0));\n  BUFX1 g1 (.A(4'hA), .Z(z1));\n  \
             BUFX1 g2 (.A(3'o5), .Z(z2));\n  BUFX1 g3 (.A(2'd3), .Z(z3));\nendmodule\n",
        ),
        (
            "multi-module designs with instance retargeting",
            "module top(a, z);\n  input a;\n  output z;\n  \
             leaf u (.p(a), .q(z));\nendmodule\n\
             module leaf(p, q);\n  input p;\n  output q;\n  \
             BUFX1 g (.A(p), .Z(q));\nendmodule\n",
        ),
        // The old parser's known weak spots (it returned on all three).
        (
            "constants wider than 128 bits",
            "module t(z);\n  output [199:0] z;\n  \
             BUFX1 g (.A(1'b0), .Z(z[0]));\n  wire [199:0] k;\nendmodule\n",
        ),
        (
            "syntax errors mid-statement",
            "module t(a);\n  input a;\n  BUFX1 g (.A(a), ;\nendmodule\n",
        ),
        (
            "unsupported behavioural code",
            "module t(a);\n  input a;\n  always @(posedge a) q <= a;\nendmodule\n",
        ),
    ];
    assert_matches_frozen_verdicts("constructs.txt", cases);
}
