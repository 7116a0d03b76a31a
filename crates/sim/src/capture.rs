//! Capture logs and flow-equivalence comparison (§2.1).
//!
//! The simulator records the data value stored by every sequential element
//! at each of its capture events (flip-flop active edge, latch closing).
//! Desynchronization preserves *flow equivalence*: projected onto any
//! element, the captured value sequence of the desynchronized circuit must
//! equal its synchronous counterpart's — times may differ arbitrarily.

use drd_liberty::Lv;

use crate::names::SymSlots;

/// Per-element capture sequences.
#[derive(Debug, Clone, Default)]
pub struct CaptureLog {
    names: SymSlots,
    seqs: Vec<Vec<(u64, Lv)>>,
}

impl CaptureLog {
    /// Creates an empty log.
    pub fn new() -> Self {
        CaptureLog::default()
    }

    /// Creates an empty log sharing an existing symbol table, so
    /// registering element names already interned there allocates
    /// nothing.
    pub(crate) fn with_table(syms: drd_netlist::SymbolTable) -> Self {
        CaptureLog {
            names: SymSlots::from_table(syms),
            seqs: Vec::new(),
        }
    }

    /// Registers an element and returns its slot.
    pub(crate) fn add_element(&mut self, name: &str) -> u32 {
        let slot = self.names.add(name);
        self.seqs.push(Vec::new());
        slot
    }

    pub(crate) fn record(&mut self, slot: u32, time_ps: u64, value: Lv) {
        self.seqs[slot as usize].push((time_ps, value));
    }

    /// Names of all recorded elements.
    pub fn elements(&self) -> impl Iterator<Item = &str> {
        self.names.iter()
    }

    /// The captured value sequence of `element` (times dropped).
    pub fn sequence(&self, element: &str) -> Option<Vec<Lv>> {
        let slot = self.names.get(element)?;
        Some(self.seqs[slot as usize].iter().map(|&(_, v)| v).collect())
    }

    /// The captured `(time_ns, value)` sequence of `element`.
    pub fn timed_sequence(&self, element: &str) -> Option<Vec<(f64, Lv)>> {
        let slot = self.names.get(element)?;
        Some(
            self.seqs[slot as usize]
                .iter()
                .map(|&(t, v)| (t as f64 / 1000.0, v))
                .collect(),
        )
    }

    /// Number of capture events of `element`.
    pub fn capture_count(&self, element: &str) -> usize {
        self.names
            .get(element)
            .map(|s| self.seqs[s as usize].len())
            .unwrap_or(0)
    }
}

/// Result of a flow-equivalence comparison.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FlowCheck {
    /// All compared elements agree on the compared prefix.
    Equivalent {
        /// Number of elements compared.
        elements: usize,
        /// Total capture events compared.
        events: usize,
    },
    /// Some element's sequences diverge.
    Diverged {
        /// The reference element name.
        element: String,
        /// Index of the first diverging capture.
        at: usize,
        /// Reference (synchronous) value.
        expected: Lv,
        /// Observed (desynchronized) value.
        actual: Lv,
    },
    /// An element of the reference has no counterpart in the DUT.
    MissingElement {
        /// The unmatched reference element.
        element: String,
    },
}

impl FlowCheck {
    /// True for [`FlowCheck::Equivalent`].
    pub fn is_equivalent(&self) -> bool {
        matches!(self, FlowCheck::Equivalent { .. })
    }
}

/// Compares a synchronous reference log against a desynchronized log.
///
/// `map_name` maps a reference element name to the corresponding DUT
/// element name (e.g. `r1` → `r1_slave` after flip-flop substitution).
/// Comparison is over the shortest common prefix per element — the
/// desynchronized circuit is elastic, so the two runs rarely stop at the
/// same capture count. Elements whose common prefix is empty are skipped.
pub fn compare_capture_logs(
    reference: &CaptureLog,
    dut: &CaptureLog,
    mut map_name: impl FnMut(&str) -> String,
) -> FlowCheck {
    let mut elements = 0usize;
    let mut events = 0usize;
    for name in reference.elements() {
        let Some(ref_seq) = reference.sequence(name) else {
            continue;
        };
        let dut_name = map_name(name);
        let Some(dut_seq) = dut.sequence(&dut_name) else {
            return FlowCheck::MissingElement {
                element: name.to_owned(),
            };
        };
        let n = ref_seq.len().min(dut_seq.len());
        for i in 0..n {
            if ref_seq[i] != dut_seq[i] {
                return FlowCheck::Diverged {
                    element: name.to_owned(),
                    at: i,
                    expected: ref_seq[i],
                    actual: dut_seq[i],
                };
            }
        }
        elements += 1;
        events += n;
    }
    FlowCheck::Equivalent { elements, events }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn log(entries: &[(&str, &[Lv])]) -> CaptureLog {
        let mut l = CaptureLog::new();
        for (name, seq) in entries {
            let slot = l.add_element(name);
            for (i, v) in seq.iter().enumerate() {
                l.record(slot, i as u64 * 1000, *v);
            }
        }
        l
    }

    #[test]
    fn equivalent_logs() {
        let a = log(&[("r1", &[Lv::One, Lv::Zero]), ("r2", &[Lv::Zero])]);
        let b = log(&[
            ("r1_slave", &[Lv::One, Lv::Zero, Lv::One]),
            ("r2_slave", &[Lv::Zero, Lv::Zero]),
        ]);
        let check = compare_capture_logs(&a, &b, |n| format!("{n}_slave"));
        assert!(check.is_equivalent());
        if let FlowCheck::Equivalent { elements, events } = check {
            assert_eq!(elements, 2);
            assert_eq!(events, 3);
        }
    }

    #[test]
    fn diverging_logs() {
        let a = log(&[("r1", &[Lv::One, Lv::Zero])]);
        let b = log(&[("r1", &[Lv::One, Lv::One])]);
        match compare_capture_logs(&a, &b, |n| n.to_owned()) {
            FlowCheck::Diverged {
                element,
                at,
                expected,
                actual,
            } => {
                assert_eq!(element, "r1");
                assert_eq!(at, 1);
                assert_eq!(expected, Lv::Zero);
                assert_eq!(actual, Lv::One);
            }
            other => panic!("expected divergence, got {other:?}"),
        }
    }

    #[test]
    fn missing_element() {
        let a = log(&[("r1", &[Lv::One])]);
        let b = log(&[]);
        assert!(matches!(
            compare_capture_logs(&a, &b, |n| n.to_owned()),
            FlowCheck::MissingElement { .. }
        ));
    }

    #[test]
    fn timed_sequences_are_in_ns() {
        let l = log(&[("r", &[Lv::One, Lv::Zero])]);
        let t = l.timed_sequence("r").unwrap();
        assert_eq!(t[1].0, 1.0);
        assert_eq!(l.capture_count("r"), 2);
        assert_eq!(l.capture_count("ghost"), 0);
    }
}
