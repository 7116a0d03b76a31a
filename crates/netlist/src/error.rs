//! Error type shared by netlist construction, editing and parsing.

use std::error::Error;
use std::fmt;

/// Errors produced while building, editing or parsing netlists.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetlistError {
    /// A net, cell, port or module name was declared twice in one scope.
    DuplicateName {
        /// What kind of object collided ("net", "cell", "port", "module").
        kind: &'static str,
        /// The colliding name.
        name: String,
    },
    /// A name lookup failed.
    UnknownName {
        /// What kind of object was looked up.
        kind: &'static str,
        /// The missing name.
        name: String,
    },
    /// Two different cells (or a cell and a port) drive the same net.
    MultipleDrivers {
        /// Name of the multiply-driven net.
        net: String,
    },
    /// A syntax error from the structural Verilog reader.
    ///
    /// The span points at the token where the error was detected in the
    /// *borrowed input buffer*: `offset` is the byte offset, `line`/`col`
    /// the 1-based position derived from it. Producers that only know a
    /// line set `col` and `offset` to 0; [`std::fmt::Display`] then omits
    /// them.
    Parse {
        /// 1-based line where the error was detected.
        line: usize,
        /// 1-based character column within the line (0 if unknown).
        col: usize,
        /// Byte offset of the offending token in the input (0 if unknown).
        offset: usize,
        /// Human-readable description.
        message: String,
    },
    /// A structurally valid construct that this subset does not support.
    Unsupported {
        /// 1-based line where the construct appeared (0 if not from a file).
        line: usize,
        /// Description of the unsupported construct.
        message: String,
    },
}

impl fmt::Display for NetlistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetlistError::DuplicateName { kind, name } => {
                write!(f, "duplicate {kind} name `{name}`")
            }
            NetlistError::UnknownName { kind, name } => {
                write!(f, "unknown {kind} `{name}`")
            }
            NetlistError::MultipleDrivers { net } => {
                write!(f, "net `{net}` has multiple drivers")
            }
            NetlistError::Parse {
                line,
                col,
                offset: _,
                message,
            } => {
                if *col > 0 {
                    write!(f, "parse error at line {line}:{col}: {message}")
                } else {
                    write!(f, "parse error at line {line}: {message}")
                }
            }
            NetlistError::Unsupported { line, message } => {
                write!(f, "unsupported construct at line {line}: {message}")
            }
        }
    }
}

impl Error for NetlistError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_lowercase_and_concise() {
        let e = NetlistError::DuplicateName {
            kind: "net",
            name: "clk".into(),
        };
        assert_eq!(e.to_string(), "duplicate net name `clk`");
        let e = NetlistError::Parse {
            line: 3,
            col: 0,
            offset: 0,
            message: "expected `;`".into(),
        };
        assert!(e.to_string().contains("line 3"));
        // With a known column the span is printed as line:col.
        let e = NetlistError::Parse {
            line: 3,
            col: 7,
            offset: 42,
            message: "expected `;`".into(),
        };
        assert!(e.to_string().contains("line 3:7"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_traits<T: std::error::Error + Send + Sync + 'static>() {}
        assert_traits::<NetlistError>();
    }
}
