//! Safe marked-graph STG model.

use std::collections::HashMap;
use std::error::Error;
use std::fmt;

/// Rising or falling transition of a signal.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Polarity {
    /// `sig+`
    Plus,
    /// `sig-`
    Minus,
}

impl fmt::Display for Polarity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Polarity::Plus => "+",
            Polarity::Minus => "-",
        })
    }
}

/// Handle to a transition within an [`Stg`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TransId(pub(crate) u32);

/// Errors from STG construction and analysis.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StgError {
    /// An arc references an undeclared transition.
    UnknownTransition {
        /// The `sig+`/`sig-` label.
        label: String,
    },
    /// A transition was declared twice.
    DuplicateTransition {
        /// The `sig+`/`sig-` label.
        label: String,
    },
    /// Reachability exceeded the state limit (the net is unbounded or too
    /// concurrent for the given limit).
    StateLimit {
        /// The limit that was exceeded.
        limit: usize,
    },
    /// A firing sequence violated signal alternation (e.g. `a+` fired while
    /// `a` was already high).
    Inconsistent {
        /// Description of the violating event.
        message: String,
    },
}

impl fmt::Display for StgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StgError::UnknownTransition { label } => write!(f, "unknown transition `{label}`"),
            StgError::DuplicateTransition { label } => {
                write!(f, "duplicate transition `{label}`")
            }
            StgError::StateLimit { limit } => {
                write!(f, "reachability exceeded {limit} states")
            }
            StgError::Inconsistent { message } => write!(f, "inconsistent STG: {message}"),
        }
    }
}

impl Error for StgError {}

#[derive(Debug, Clone)]
pub(crate) struct Transition {
    pub signal: u32,
    pub polarity: Polarity,
    /// Arcs (by index) this transition consumes from / produces into.
    pub consumes: Vec<u32>,
    pub produces: Vec<u32>,
}

#[derive(Debug, Clone)]
pub(crate) struct Arc {
    pub from: TransId,
    pub to: TransId,
    pub initial_tokens: u8,
}

/// A token marking: one token count per arc (safe nets carry 0 or 1).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Marking(pub(crate) Vec<u8>);

impl Marking {
    /// Total number of tokens.
    pub fn token_count(&self) -> usize {
        self.0.iter().map(|&t| t as usize).sum()
    }
}

/// A Signal Transition Graph restricted to marked graphs: every place has
/// exactly one producer and one consumer, so places are encoded as arcs
/// between transitions carrying an initial token count.
#[derive(Debug, Clone)]
pub struct Stg {
    signals: Vec<String>,
    transitions: Vec<Transition>,
    arcs: Vec<Arc>,
    labels: HashMap<String, TransId>,
    /// Initial binary value of each signal.
    initial_values: Vec<bool>,
}

impl Stg {
    /// Creates an STG with one `+` and one `-` transition per signal, all
    /// starting at value 0.
    pub fn new(signals: &[&str]) -> Stg {
        let mut stg = Stg {
            signals: signals.iter().map(|s| (*s).to_owned()).collect(),
            transitions: Vec::new(),
            arcs: Vec::new(),
            labels: HashMap::new(),
            initial_values: vec![false; signals.len()],
        };
        for (i, sig) in signals.iter().enumerate() {
            for pol in [Polarity::Plus, Polarity::Minus] {
                let id = TransId(stg.transitions.len() as u32);
                stg.transitions.push(Transition {
                    signal: i as u32,
                    polarity: pol,
                    consumes: Vec::new(),
                    produces: Vec::new(),
                });
                stg.labels.insert(format!("{sig}{pol}"), id);
            }
        }
        stg
    }

    /// Sets the initial value of `signal`.
    ///
    /// # Panics
    /// Panics if `signal` is not declared.
    pub fn set_initial_value(&mut self, signal: &str, value: bool) {
        let i = self
            .signals
            .iter()
            .position(|s| s == signal)
            .expect("declared signal");
        self.initial_values[i] = value;
    }

    /// Adds an arc `from → to` (labels like `"a+"`, `"b-"`) carrying
    /// `tokens` initial tokens.
    ///
    /// # Errors
    /// Returns [`StgError::UnknownTransition`] for unknown labels.
    pub fn arc(&mut self, from: &str, to: &str, tokens: u8) -> Result<(), StgError> {
        let f = self.transition(from)?;
        let t = self.transition(to)?;
        let idx = self.arcs.len() as u32;
        self.arcs.push(Arc {
            from: f,
            to: t,
            initial_tokens: tokens,
        });
        self.transitions[f.0 as usize].produces.push(idx);
        self.transitions[t.0 as usize].consumes.push(idx);
        Ok(())
    }

    /// Looks a transition up by label (`"a+"`).
    ///
    /// # Errors
    /// Returns [`StgError::UnknownTransition`] for unknown labels.
    pub fn transition(&self, label: &str) -> Result<TransId, StgError> {
        self.labels
            .get(label)
            .copied()
            .ok_or_else(|| StgError::UnknownTransition {
                label: label.to_owned(),
            })
    }

    /// The label of a transition (`"a+"`).
    pub fn label(&self, t: TransId) -> String {
        let tr = &self.transitions[t.0 as usize];
        format!("{}{}", self.signals[tr.signal as usize], tr.polarity)
    }

    /// The signal index and polarity of a transition.
    pub fn signal_of(&self, t: TransId) -> (usize, Polarity) {
        let tr = &self.transitions[t.0 as usize];
        (tr.signal as usize, tr.polarity)
    }

    /// Declared signal names.
    pub fn signals(&self) -> &[String] {
        &self.signals
    }

    /// Initial signal values.
    pub fn initial_values(&self) -> &[bool] {
        &self.initial_values
    }

    /// Number of transitions.
    pub fn transition_count(&self) -> usize {
        self.transitions.len()
    }

    /// Number of arcs (places).
    pub fn arc_count(&self) -> usize {
        self.arcs.len()
    }

    /// The initial marking.
    pub fn initial_marking(&self) -> Marking {
        Marking(self.arcs.iter().map(|a| a.initial_tokens).collect())
    }

    /// Transitions enabled at `marking` (every input arc has a token, and
    /// the transition has at least one input arc — sourceless transitions
    /// would fire unboundedly).
    pub fn enabled(&self, marking: &Marking) -> Vec<TransId> {
        self.transitions
            .iter()
            .enumerate()
            .filter(|(_, tr)| {
                !tr.consumes.is_empty() && tr.consumes.iter().all(|&a| marking.0[a as usize] > 0)
            })
            .map(|(i, _)| TransId(i as u32))
            .collect()
    }

    /// Fires `t` at `marking`, returning the successor marking.
    ///
    /// # Panics
    /// Panics if `t` is not enabled.
    pub fn fire(&self, marking: &Marking, t: TransId) -> Marking {
        let tr = &self.transitions[t.0 as usize];
        let mut next = marking.clone();
        for &a in &tr.consumes {
            assert!(next.0[a as usize] > 0, "transition not enabled");
            next.0[a as usize] -= 1;
        }
        for &a in &tr.produces {
            // Saturate: unbounded nets are reported by the safety check,
            // not by an arithmetic panic.
            next.0[a as usize] = next.0[a as usize].saturating_add(1);
        }
        next
    }

    pub(crate) fn arcs(&self) -> &[Arc] {
        &self.arcs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Ring: a+ → a- → b+ → b- → a+ (token before a+).
    fn ring() -> Stg {
        let mut s = Stg::new(&["a", "b"]);
        s.arc("a+", "a-", 0).unwrap();
        s.arc("a-", "b+", 0).unwrap();
        s.arc("b+", "b-", 0).unwrap();
        s.arc("b-", "a+", 1).unwrap();
        s
    }

    #[test]
    fn firing_moves_token_around_ring() {
        let s = ring();
        let m0 = s.initial_marking();
        assert_eq!(m0.token_count(), 1);
        let enabled = s.enabled(&m0);
        assert_eq!(enabled.len(), 1);
        assert_eq!(s.label(enabled[0]), "a+");
        let m1 = s.fire(&m0, enabled[0]);
        assert_eq!(s.label(s.enabled(&m1)[0]), "a-");
        assert_eq!(m1.token_count(), 1);
    }

    #[test]
    fn labels_and_lookup() {
        let s = ring();
        let t = s.transition("b-").unwrap();
        assert_eq!(s.label(t), "b-");
        assert_eq!(s.signal_of(t), (1, Polarity::Minus));
        assert!(s.transition("c+").is_err());
    }

    #[test]
    #[should_panic = "not enabled"]
    fn firing_disabled_transition_panics() {
        let s = ring();
        let m0 = s.initial_marking();
        let bminus = s.transition("b-").unwrap();
        let _ = s.fire(&m0, bminus);
    }

    #[test]
    fn unconstrained_transition_is_not_enabled() {
        // `b+`/`b-` have no input arcs; they must not be spuriously enabled.
        let mut s = Stg::new(&["a", "b"]);
        s.arc("a+", "a-", 0).unwrap();
        s.arc("a-", "a+", 1).unwrap();
        let names: Vec<String> = s
            .enabled(&s.initial_marking())
            .into_iter()
            .map(|t| s.label(t))
            .collect();
        assert_eq!(names, ["a+"]);
    }

    #[test]
    fn initial_values() {
        let mut s = ring();
        assert_eq!(s.initial_values(), &[false, false]);
        s.set_initial_value("b", true);
        assert_eq!(s.initial_values(), &[false, true]);
    }
}
