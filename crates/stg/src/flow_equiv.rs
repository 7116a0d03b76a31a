//! Executable flow-equivalence checking for latch-enable protocols.
//!
//! Flow equivalence (§2.1, \[4\], \[7\]) demands that "each individual
//! sequential element in the desynchronized circuit will possess the exact
//! same data sequence as its synchronous counterpart". This module checks
//! that property for a candidate two-latch protocol by *executing* it on a
//! symbolic latch pipeline and exploring **all** interleavings:
//!
//! * a pipeline of `n` transparent-high latches is composed by instantiating
//!   the protocol between every adjacent pair;
//! * the environment presents a fresh data item (0, 1, 2, …) every time the
//!   first latch opens;
//! * a transparent latch tracks its predecessor's item; an opaque latch
//!   holds the item it captured at its last falling enable;
//! * at every falling enable, the captured item index is recorded.
//!
//! The protocol is flow-equivalent iff every latch's captured sequence is
//! exactly `0, 1, 2, …` after a bounded start-up prefix of reset values —
//! a skip means data was overwritten before being captured (the
//! fall-decoupled failure of Fig. 2.4), a repeat means duplication.

use std::collections::HashSet;

use crate::{Polarity, Stg, StgError};

/// Outcome of a flow-equivalence check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FlowEquivalence {
    /// Every interleaving yields synchronous data sequences.
    Ok,
    /// Some interleaving loses or duplicates data.
    Violated {
        /// Human-readable description of the first violation found.
        reason: String,
    },
    /// The composed pipeline deadlocks (protocol not live).
    Deadlock,
}

impl FlowEquivalence {
    /// True for [`FlowEquivalence::Ok`].
    pub fn is_ok(&self) -> bool {
        *self == FlowEquivalence::Ok
    }
}

/// Composes `protocol` (over signals `A`, `B`) along an `stages`-latch
/// pipeline: signals `L0..L{stages-1}`, with the protocol instantiated for
/// every adjacent pair. Duplicate arcs are merged.
///
/// # Errors
/// Propagates [`StgError`] from arc construction (cannot happen for a
/// well-formed protocol).
pub fn compose_pipeline(protocol: &Stg, stages: usize) -> Result<Stg, StgError> {
    assert!(stages >= 2, "a pipeline needs at least two latches");
    let names: Vec<String> = (0..stages).map(|i| format!("L{i}")).collect();
    let name_refs: Vec<&str> = names.iter().map(String::as_str).collect();
    let mut composed = Stg::new(&name_refs);
    let proto_sigs = protocol.signals();
    assert_eq!(
        proto_sigs.len(),
        2,
        "protocol must be over exactly two signals"
    );
    let mut seen: HashSet<(String, String, u8)> = HashSet::new();
    for pair in 0..stages - 1 {
        for arc in protocol.arcs() {
            let (fs, fp) = protocol.signal_of(arc.from);
            let (ts, tp) = protocol.signal_of(arc.to);
            let rename =
                |sig: usize, pol: Polarity| -> String { format!("L{}{}", pair + sig, pol) };
            let from = rename(fs, fp);
            let to = rename(ts, tp);
            if seen.insert((from.clone(), to.clone(), arc.initial_tokens)) {
                composed.arc(&from, &to, arc.initial_tokens)?;
            }
        }
    }
    // Initial latch-enable values follow the protocol's A/B values.
    for i in 0..stages {
        let v = protocol.initial_values()[i % 2];
        composed.set_initial_value(&format!("L{i}"), v);
    }
    Ok(composed)
}

/// Checks flow equivalence of a two-signal protocol on an `stages`-latch
/// pipeline, exploring all interleavings up to `state_limit` states.
///
/// # Errors
/// Returns [`StgError::StateLimit`] if exploration exceeds `state_limit`.
pub fn check_flow_equivalence(
    protocol: &Stg,
    stages: usize,
    state_limit: usize,
) -> Result<FlowEquivalence, StgError> {
    let pipeline = compose_pipeline(protocol, stages)?;
    let n = stages;
    // Item index offset bound: pipeline occupancy can never sanely exceed
    // this; beyond it the protocol lets the input run away.
    let max_spread: i64 = (2 * n + 8) as i64;

    #[derive(Clone, PartialEq, Eq, Hash)]
    struct State {
        marking: crate::Marking,
        values: Vec<bool>,
        /// Item currently visible at each latch output (relative to the
        /// normalization base); `None` is the latch's reset content.
        item: Vec<Option<i64>>,
        /// Next item index each latch is expected to capture (relative).
        captures: Vec<i64>,
        /// Next environment item (relative).
        next_input: i64,
    }

    let normalize = |s: &mut State| {
        let min = s
            .item
            .iter()
            .flatten()
            .chain(s.captures.iter())
            .chain(std::iter::once(&s.next_input))
            .copied()
            .min()
            .unwrap_or(0);
        for v in s.item.iter_mut().flatten() {
            *v -= min;
        }
        for v in s.captures.iter_mut() {
            *v -= min;
        }
        s.next_input -= min;
    };

    let mut init = State {
        marking: pipeline.initial_marking(),
        values: pipeline.initial_values().to_vec(),
        item: vec![None; n],  // reset contents everywhere
        captures: vec![0; n], // next expected real capture is item 0
        next_input: 0,
    };
    normalize(&mut init);

    let mut visited: HashSet<State> = HashSet::new();
    visited.insert(init.clone());
    let mut stack = vec![init];
    while let Some(state) = stack.pop() {
        let enabled = pipeline.enabled(&state.marking);
        if enabled.is_empty() {
            return Ok(FlowEquivalence::Deadlock);
        }
        for t in enabled {
            let (sig, pol) = pipeline.signal_of(t);
            let mut next = state.clone();
            next.marking = pipeline.fire(&state.marking, t);
            match pol {
                Polarity::Plus => {
                    if next.values[sig] {
                        return Ok(FlowEquivalence::Violated {
                            reason: format!("signal L{sig} rises while already high"),
                        });
                    }
                    next.values[sig] = true;
                }
                Polarity::Minus => {
                    if !next.values[sig] {
                        return Ok(FlowEquivalence::Violated {
                            reason: format!("signal L{sig} falls while already low"),
                        });
                    }
                    next.values[sig] = false;
                }
            }
            // Data propagation: opening the first latch pulls a fresh item;
            // transparency cascades predecessor items forward.
            if pol == Polarity::Plus && sig == 0 {
                next.item[0] = Some(next.next_input);
                next.next_input += 1;
            }
            for i in 1..n {
                if next.values[i] {
                    next.item[i] = next.item[i - 1];
                }
            }
            // Capture check at a falling enable (reset contents are free).
            if pol == Polarity::Minus {
                if let Some(captured) = next.item[sig] {
                    match captured.cmp(&next.captures[sig]) {
                        std::cmp::Ordering::Less => {
                            return Ok(FlowEquivalence::Violated {
                                reason: format!(
                                    "latch L{sig} captured item {} twice (duplication)",
                                    captured - next.captures[sig]
                                ),
                            });
                        }
                        std::cmp::Ordering::Greater => {
                            return Ok(FlowEquivalence::Violated {
                                reason: format!(
                                    "latch L{sig} skipped {} item(s) (data overwriting)",
                                    captured - next.captures[sig]
                                ),
                            });
                        }
                        std::cmp::Ordering::Equal => {
                            next.captures[sig] = captured + 1;
                        }
                    }
                }
            }
            normalize(&mut next);
            let spread = next
                .item
                .iter()
                .flatten()
                .chain(next.captures.iter())
                .chain(std::iter::once(&next.next_input))
                .copied()
                .max()
                .unwrap_or(0);
            if spread > max_spread {
                return Ok(FlowEquivalence::Violated {
                    reason: "unbounded divergence between input and captures".into(),
                });
            }
            if visited.insert(next.clone()) {
                if visited.len() > state_limit {
                    return Err(StgError::StateLimit { limit: state_limit });
                }
                stack.push(next);
            }
        }
    }
    Ok(FlowEquivalence::Ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Strictly sequential non-overlapping protocol — certainly correct.
    fn non_overlapping() -> Stg {
        let mut s = Stg::new(&["A", "B"]);
        s.arc("A+", "A-", 0).unwrap();
        s.arc("A-", "B+", 0).unwrap();
        s.arc("B+", "B-", 0).unwrap();
        s.arc("B-", "A+", 1).unwrap();
        s
    }

    /// Both latches transparent together with no capture ordering — data
    /// races through, overwriting earlier items.
    fn broken_concurrent() -> Stg {
        let mut s = Stg::new(&["A", "B"]);
        s.arc("A+", "A-", 0).unwrap();
        s.arc("A-", "A+", 1).unwrap();
        s.arc("B+", "B-", 0).unwrap();
        s.arc("B-", "B+", 1).unwrap();
        s
    }

    #[test]
    fn non_overlapping_is_flow_equivalent() {
        let fe = check_flow_equivalence(&non_overlapping(), 4, 1 << 20).unwrap();
        assert!(fe.is_ok(), "{fe:?}");
    }

    #[test]
    fn unsynchronized_latches_violate() {
        let fe = check_flow_equivalence(&broken_concurrent(), 3, 1 << 20).unwrap();
        assert!(matches!(fe, FlowEquivalence::Violated { .. }), "{fe:?}");
    }

    #[test]
    fn dead_protocol_reports_deadlock() {
        let mut s = Stg::new(&["A", "B"]);
        // No tokens anywhere: nothing can ever fire.
        s.arc("A+", "A-", 0).unwrap();
        s.arc("A-", "A+", 0).unwrap();
        s.arc("B+", "B-", 0).unwrap();
        s.arc("B-", "B+", 0).unwrap();
        let fe = check_flow_equivalence(&s, 3, 1 << 16).unwrap();
        assert_eq!(fe, FlowEquivalence::Deadlock);
    }

    #[test]
    fn composition_merges_duplicate_arcs() {
        let p = non_overlapping();
        let c = compose_pipeline(&p, 4).unwrap();
        // Each pair contributes 4 arcs; the A+→A- style self arcs of inner
        // latches appear in two pairs but must not be duplicated.
        assert!(c.arc_count() < 3 * p.arc_count());
    }
}
