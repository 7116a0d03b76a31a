//! Structural (gate-level) Verilog reader and writer.
//!
//! This is the design import/export layer of the desynchronization tool
//! (§3.2.1, §3.2.7): it supports the flat, technology-mapped netlists
//! produced by synthesis — module/port/wire declarations with ranges,
//! library-cell and module instances with named connections, `assign`
//! aliases and constant ties, escaped identifiers, and sized constants.
//!
//! As in the paper, design import substitutes escaped names by simple ones
//! and resolves `assign` statements wherever possible, producing a cleaner
//! netlist without altering functionality.
//!
//! The front end is streaming and zero-copy: the lexer hands `&str` token
//! slices of the one input buffer to the parser, which interns them into
//! the per-module symbol table as it consumes them; the writer emits into
//! one preallocated buffer. The recorded
//! verdicts of the front end it replaced pin its behaviour
//! (`tests/differential_frontend.rs`).

// The reader is the hostile-input boundary of the whole tool: arbitrary
// bytes must come back as `NetlistError`, never as a panic.
#[deny(clippy::unwrap_used, clippy::panic)]
mod lexer;
#[deny(clippy::unwrap_used, clippy::panic)]
mod parser;
#[deny(clippy::unwrap_used, clippy::panic)]
mod writer;

pub use parser::{parse_design, parse_module};
pub use writer::{write_design, write_module};

#[cfg(test)]
mod tests {
    use crate::{Conn, Design, PortDir};

    /// Round-trip: build → write → parse → write must be a fixed point.
    #[test]
    fn write_parse_write_fixed_point() {
        let mut design = Design::new();
        let m = design.add_module("top");
        let module = design.module_mut(m);
        module.add_port("clk", PortDir::Input).unwrap();
        for i in 0..4 {
            module.add_port(format!("d[{i}]"), PortDir::Input).unwrap();
            module.add_port(format!("q[{i}]"), PortDir::Output).unwrap();
        }
        let clk = module.find_net("clk").unwrap();
        for i in 0..4 {
            let d = module.find_net(&format!("d[{i}]")).unwrap();
            let q = module.find_net(&format!("q[{i}]")).unwrap();
            module
                .add_cell(
                    format!("r{i}"),
                    "DFFX1",
                    &[
                        ("D", Conn::Net(d)),
                        ("CK", Conn::Net(clk)),
                        ("Q", Conn::Net(q)),
                    ],
                )
                .unwrap();
        }
        let text1 = super::write_design(&design);
        let parsed = super::parse_design(&text1).expect("own output parses");
        let text2 = super::write_design(&parsed);
        assert_eq!(text1, text2);
    }
}
