//! Trace conformance against an STG specification.
//!
//! The semi-decoupled latch controller is a hand-mapped, hazard-free
//! circuit designed from an STG specification (§3.1.3 — the paper used
//! petrify). This module provides the mechanical check petrify's synthesis
//! guarantees would otherwise give us: an observed sequence of signal
//! edges (e.g. from simulating the gate-level controller) conforms to the
//! specification iff every edge is an enabled transition of the STG.

use std::error::Error;
use std::fmt;

use crate::{Marking, Polarity, Stg};

/// A conformance violation: an observed edge the STG does not allow.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConformanceError {
    /// Index of the offending event in the observed trace.
    pub at: usize,
    /// The offending event label (`"ro+"`).
    pub event: String,
    /// The transitions the specification allowed instead.
    pub allowed: Vec<String>,
}

impl fmt::Display for ConformanceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "event #{} `{}` not allowed by specification (allowed: {})",
            self.at,
            self.event,
            self.allowed.join(", ")
        )
    }
}

impl Error for ConformanceError {}

/// Incremental conformance checker.
#[derive(Debug, Clone)]
pub struct Conformance<'a> {
    stg: &'a Stg,
    marking: Marking,
    observed: usize,
}

impl<'a> Conformance<'a> {
    /// Starts checking from the STG's initial marking.
    pub fn new(stg: &'a Stg) -> Self {
        Conformance {
            stg,
            marking: stg.initial_marking(),
            observed: 0,
        }
    }

    /// Number of events accepted so far.
    pub fn observed(&self) -> usize {
        self.observed
    }

    /// Observes one signal edge.
    ///
    /// # Errors
    /// Returns [`ConformanceError`] if the edge is not enabled.
    pub fn observe(&mut self, signal: &str, rising: bool) -> Result<(), ConformanceError> {
        let pol = if rising {
            Polarity::Plus
        } else {
            Polarity::Minus
        };
        let label = format!("{signal}{pol}");
        let trans = self.stg.transition(&label).ok();
        let enabled = self.stg.enabled(&self.marking);
        match trans {
            Some(t) if enabled.contains(&t) => {
                self.marking = self.stg.fire(&self.marking, t);
                self.observed += 1;
                Ok(())
            }
            _ => Err(ConformanceError {
                at: self.observed,
                event: label,
                allowed: enabled.iter().map(|&t| self.stg.label(t)).collect(),
            }),
        }
    }

    /// Observes a whole trace of `(signal, rising)` edges.
    ///
    /// # Errors
    /// Returns the first [`ConformanceError`].
    pub fn observe_trace<'s>(
        &mut self,
        trace: impl IntoIterator<Item = (&'s str, bool)>,
    ) -> Result<(), ConformanceError> {
        for (signal, rising) in trace {
            self.observe(signal, rising)?;
        }
        Ok(())
    }
}

/// Convenience: checks a full trace against `stg` from its initial marking.
///
/// # Errors
/// Returns the first [`ConformanceError`].
pub fn check_trace<'s>(
    stg: &Stg,
    trace: impl IntoIterator<Item = (&'s str, bool)>,
) -> Result<usize, ConformanceError> {
    let mut c = Conformance::new(stg);
    c.observe_trace(trace)?;
    Ok(c.observed())
}

/// The STG of the 4-phase semi-decoupled latch controller *closed with its
/// environment* (Fig. 3.2 / Fig. 4.5 of the thesis; Furber & Day 1996).
///
/// Signals: `ri` (input request), `g` (the latch-enable capture pulse),
/// `ro` (output request) and `ao` (output acknowledge). The controller
/// implementation is two C-elements plus the pulse gate:
/// `a = C(ri, !ro)`, `ro = C(a, !ao)`, `g = a & !ro`, `ai = a`.
pub fn semi_decoupled_controller_stg() -> Stg {
    let mut s = Stg::new(&["ri", "g", "ro", "ao"]);
    let arcs: &[(&str, &str, u8)] = &[
        // The hidden a+ (= C(ri, !ro) rising) causes g+ and ro+
        // concurrently; the g pulse closes once ro is out.
        ("ri+", "g+", 0),
        ("ro-", "g+", 1),
        ("ri+", "ro+", 0),
        ("ao-", "ro+", 1),
        ("g+", "g-", 0),
        ("ro+", "g-", 0),
        // ro falls after the input request withdrew (hidden a-), the
        // successor acknowledged, and the pulse closed.
        ("ri-", "ro-", 0),
        ("ao+", "ro-", 0),
        ("g-", "ro-", 0),
        // Input environment: acknowledged at a+ (observed as g+).
        ("g+", "ri-", 0),
        ("ro-", "ri+", 1),
        // Output environment: ao follows ro.
        ("ro+", "ao+", 0),
        ("ro-", "ao-", 0),
    ];
    for (from, to, tokens) in arcs {
        s.arc(from, to, *tokens).expect("static labels are valid");
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn controller_stg_is_well_formed() {
        let s = semi_decoupled_controller_stg();
        s.check_consistency(1 << 14).unwrap();
        assert!(s.is_live());
        assert!(s.is_safe(1 << 14).unwrap());
        let reach = s.reachability(1 << 14).unwrap();
        assert!(reach.deadlocks().is_empty());
        // Small, tightly synchronized state space.
        assert!(reach.state_count() <= 32, "{}", reach.state_count());
    }

    #[test]
    fn canonical_cycle_conforms() {
        let s = semi_decoupled_controller_stg();
        // One full handshake cycle of the pulse-mode controller.
        let trace = [
            ("ri", true),
            ("ro", true),
            ("g", true),
            ("g", false),
            ("ri", false),
            ("ao", true),
            ("ro", false),
            ("ao", false),
            ("ri", true),
            ("ro", true),
        ];
        let n = check_trace(&s, trace).unwrap();
        assert_eq!(n, 10);
    }

    #[test]
    fn premature_edge_is_rejected() {
        let s = semi_decoupled_controller_stg();
        let mut c = Conformance::new(&s);
        c.observe("ri", true).unwrap();
        // ao+ before ro+ violates the output handshake causality.
        let err = c.observe("ao", true).unwrap_err();
        assert_eq!(err.event, "ao+");
        assert!(err.allowed.contains(&"ro+".to_owned()));
        assert_eq!(c.observed(), 1);
    }

    #[test]
    fn unknown_signal_is_rejected() {
        let s = semi_decoupled_controller_stg();
        let mut c = Conformance::new(&s);
        assert!(c.observe("zz", true).is_err());
    }
}
