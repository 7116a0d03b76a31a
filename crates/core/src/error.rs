//! Desynchronization error type.

use std::error::Error;
use std::fmt;

/// Errors from the desynchronization passes.
#[derive(Debug, Clone)]
pub enum DesyncError {
    /// The netlist references an unknown library cell.
    UnknownCell {
        /// The missing cell name.
        name: String,
    },
    /// No clock could be identified (or the design has multiple clocks —
    /// "Currently the desynchronization flow supports only single clock
    /// circuits", §4.1).
    Clock {
        /// Explanation.
        message: String,
    },
    /// Library preparation failed (no latch, unsupported flip-flop, …).
    Library(drd_liberty::LibraryError),
    /// A netlist operation failed.
    Netlist(drd_netlist::NetlistError),
    /// Static timing analysis failed.
    Sta(drd_sta::StaError),
    /// A flip-flop has no replacement rule in the gatefile.
    NoRule {
        /// The flip-flop cell name.
        cell: String,
    },
    /// A pass-pipeline misuse: unknown pass name, or a pass run before
    /// its prerequisites.
    Pipeline {
        /// Explanation.
        message: String,
    },
    /// A guarded pass exceeded a configured resource budget (see
    /// [`crate::DesyncOptions`]'s `max_cells` / `max_nets` fields).
    Budget {
        /// The pass whose output broke the budget.
        pass: &'static str,
        /// Which resource overflowed ("cells" or "nets").
        resource: &'static str,
        /// The configured ceiling.
        limit: usize,
        /// The observed value.
        actual: usize,
    },
    /// A guarded pass overran its wall-clock deadline
    /// (`pass_deadline_ms`).
    Deadline {
        /// The pass that overran.
        pass: &'static str,
        /// The configured deadline in milliseconds.
        limit_ms: u64,
    },
    /// A pass panicked; the guard caught the unwind and converted it into
    /// this diagnostic instead of aborting the process.
    Panic {
        /// The pass that panicked.
        pass: &'static str,
        /// The panic payload (message), when it was a string.
        message: String,
    },
    /// The liveness guard could not repair a pulse-swallowing hazard
    /// within its ladder (deepen → latch → degrade): either the run is
    /// strict and a region would have to be degraded, or the repaired
    /// network still deadlocks in validation.
    Liveness {
        /// The source region whose request pulse is swallowed.
        region: String,
        /// What the guard tried and why it stopped.
        message: String,
    },
}

impl fmt::Display for DesyncError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DesyncError::UnknownCell { name } => write!(f, "unknown library cell `{name}`"),
            DesyncError::Clock { message } => write!(f, "clock identification failed: {message}"),
            DesyncError::Library(e) => write!(f, "library preparation failed: {e}"),
            DesyncError::Netlist(e) => write!(f, "netlist operation failed: {e}"),
            DesyncError::Sta(e) => write!(f, "timing analysis failed: {e}"),
            DesyncError::NoRule { cell } => {
                write!(f, "no gatefile replacement rule for flip-flop `{cell}`")
            }
            DesyncError::Pipeline { message } => write!(f, "pipeline error: {message}"),
            DesyncError::Budget {
                pass,
                resource,
                limit,
                actual,
            } => write!(
                f,
                "pass `{pass}` exceeded the {resource} budget: {actual} > {limit}"
            ),
            DesyncError::Deadline { pass, limit_ms } => {
                write!(f, "pass `{pass}` overran its {limit_ms} ms deadline")
            }
            DesyncError::Panic { pass, message } => {
                write!(f, "pass `{pass}` panicked: {message}")
            }
            DesyncError::Liveness { region, message } => {
                write!(f, "liveness guard failed for region `{region}`: {message}")
            }
        }
    }
}

impl Error for DesyncError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            DesyncError::Library(e) => Some(e),
            DesyncError::Netlist(e) => Some(e),
            DesyncError::Sta(e) => Some(e),
            _ => None,
        }
    }
}

impl From<drd_liberty::LibraryError> for DesyncError {
    fn from(e: drd_liberty::LibraryError) -> Self {
        DesyncError::Library(e)
    }
}

impl From<drd_netlist::NetlistError> for DesyncError {
    fn from(e: drd_netlist::NetlistError) -> Self {
        DesyncError::Netlist(e)
    }
}

impl From<drd_sta::StaError> for DesyncError {
    fn from(e: drd_sta::StaError) -> Self {
        DesyncError::Sta(e)
    }
}

/// Why a region was left synchronous instead of being desynchronized.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DegradeReason {
    /// A sequential cell's flip-flop flavour has no gatefile replacement
    /// rule (unsupported composite FF).
    UnsupportedFf {
        /// The flip-flop kind lacking a rule.
        kind: String,
    },
    /// A sequential cell's kind is missing from the library entirely.
    UnknownCell {
        /// The missing library cell name.
        kind: String,
    },
    /// Delay matching failed for the region's combinational cloud.
    DelayMatching {
        /// Explanation from the STA layer.
        message: String,
    },
    /// The region's handshake controller could not be synthesized.
    ControllerSynthesis {
        /// Explanation.
        message: String,
    },
    /// The region is a loopback source whose request pulse would be
    /// swallowed downstream, and neither deepening the successors'
    /// delay elements nor latching the loopback produced a live
    /// network.
    Liveness {
        /// Explanation from the liveness guard.
        message: String,
    },
}

impl fmt::Display for DegradeReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DegradeReason::UnsupportedFf { kind } => {
                write!(f, "unsupported flip-flop `{kind}` (no gatefile rule)")
            }
            DegradeReason::UnknownCell { kind } => {
                write!(f, "unknown library cell `{kind}`")
            }
            DegradeReason::DelayMatching { message } => {
                write!(f, "delay matching failed: {message}")
            }
            DegradeReason::ControllerSynthesis { message } => {
                write!(f, "controller synthesis failed: {message}")
            }
            DegradeReason::Liveness { message } => {
                write!(f, "liveness repair exhausted: {message}")
            }
        }
    }
}

/// A region the flow left synchronous: its flip-flops keep the original
/// clock, no controller is inserted for it, and the SDC declares the
/// boundary as a clock-domain crossing. Recorded in the flow report (and
/// trace) so a partially desynchronized result is never silent.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Degradation {
    /// The region that stayed synchronous.
    pub region: String,
    /// Why it could not be desynchronized.
    pub reason: DegradeReason,
    /// The sequential cells left clocked.
    pub cells: Vec<String>,
}

impl fmt::Display for Degradation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "region `{}` left synchronous: {} ({} cell{})",
            self.region,
            self.reason,
            self.cells.len(),
            if self.cells.len() == 1 { "" } else { "s" }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        let e = DesyncError::NoRule {
            cell: "DFFZ".into(),
        };
        assert!(e.to_string().contains("DFFZ"));
        let e: DesyncError = drd_liberty::LibraryError::new("boom").into();
        assert!(e.source().is_some());
    }

    #[test]
    fn guard_errors_name_pass_and_limits() {
        let e = DesyncError::Budget {
            pass: "ffsub",
            resource: "cells",
            limit: 10,
            actual: 42,
        };
        assert_eq!(
            e.to_string(),
            "pass `ffsub` exceeded the cells budget: 42 > 10"
        );
        let e = DesyncError::Deadline {
            pass: "ddg",
            limit_ms: 5,
        };
        assert!(e.to_string().contains("5 ms deadline"));
        let e = DesyncError::Panic {
            pass: "sdc",
            message: "boom".into(),
        };
        assert!(e.to_string().contains("panicked: boom"));
    }

    #[test]
    fn degradation_display_lists_region_and_reason() {
        let d = Degradation {
            region: "g2".into(),
            reason: DegradeReason::UnsupportedFf {
                kind: "DFFQX9".into(),
            },
            cells: vec!["r0".into()],
        };
        let text = d.to_string();
        assert!(text.contains("`g2`"), "{text}");
        assert!(text.contains("DFFQX9"), "{text}");
        assert!(text.contains("1 cell)"), "{text}");
    }
}
