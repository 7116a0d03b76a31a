//! Simulation error type.

use std::error::Error;
use std::fmt;

/// Errors from simulator construction and driving.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// A netlist cell references a library cell that does not exist.
    UnknownCell {
        /// The missing cell name.
        name: String,
    },
    /// A referenced net or port does not exist.
    UnknownNet {
        /// The missing net/port name.
        name: String,
    },
    /// The netlist could not be elaborated (flattening/connectivity).
    Elaboration {
        /// Description of the problem.
        message: String,
    },
    /// Handshake-level timing simulation failed (unsettled reset,
    /// event-cap overrun, or a malformed control-network spec).
    Handshake {
        /// Description of the problem.
        message: String,
    },
    /// The simulated control network wedged: a region stopped producing
    /// slave-enable edges before its cycle could be measured.
    Deadlock {
        /// The first region short of edges, in region order.
        region: String,
        /// Rising slave-enable edges it produced.
        edges: usize,
        /// Edges a measurement needs.
        needed: usize,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::UnknownCell { name } => write!(f, "unknown library cell `{name}`"),
            SimError::UnknownNet { name } => write!(f, "unknown net `{name}`"),
            SimError::Elaboration { message } => write!(f, "elaboration failed: {message}"),
            SimError::Handshake { message } => write!(f, "handshake simulation failed: {message}"),
            SimError::Deadlock {
                region,
                edges,
                needed,
            } => write!(
                f,
                "handshake simulation failed: handshake deadlock: region {region} produced \
                 {edges} enable edges (need {needed})"
            ),
        }
    }
}

impl Error for SimError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_traits() {
        let e = SimError::UnknownNet { name: "clk".into() };
        assert!(e.to_string().contains("clk"));
        let e = SimError::Deadlock {
            region: "g1".into(),
            edges: 2,
            needed: 8,
        };
        assert_eq!(
            e.to_string(),
            "handshake simulation failed: handshake deadlock: region g1 produced 2 enable \
             edges (need 8)"
        );
        fn ok<T: Error + Send + Sync>() {}
        ok::<SimError>();
    }
}
