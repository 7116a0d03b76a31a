//! STA error type.

use std::error::Error;
use std::fmt;

/// Errors from timing-graph construction and analysis.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StaError {
    /// The netlist references a cell or pin missing from the library.
    UnknownCell {
        /// Name of the unknown cell or `cell/pin`.
        name: String,
    },
    /// The netlist is electrically malformed (e.g. multiple drivers).
    BadNetlist {
        /// Description of the problem.
        message: String,
    },
    /// Arrival propagation found a cycle that was not broken.
    Cycle {
        /// A human-readable description of one node on the cycle.
        through: String,
    },
}

impl fmt::Display for StaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StaError::UnknownCell { name } => write!(f, "unknown library cell `{name}`"),
            StaError::BadNetlist { message } => write!(f, "bad netlist: {message}"),
            StaError::Cycle { through } => {
                write!(
                    f,
                    "timing graph contains an unbroken cycle through {through}"
                )
            }
        }
    }
}

impl Error for StaError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display() {
        let e = StaError::Cycle {
            through: "u1/Z".into(),
        };
        assert!(e.to_string().contains("u1/Z"));
        fn is_error<T: Error + Send + Sync>() {}
        is_error::<StaError>();
    }
}
