//! Hand-built broken protocols and controller traces, asserting the
//! *exact* violation each oracle reports — not just "some error".
//!
//! These pin down the diagnostic contract the mutation-testing engine
//! relies on: a protocol that re-opens a latch early must be reported as
//! data overwriting (Fig. 2.4), one that re-captures a stale item as
//! duplication, and a controller trace violating the Fig. 3.2 STG must
//! name the offending edge and the edges that were allowed instead.

use drd_stg::conformance::{check_trace, semi_decoupled_controller_stg, Conformance};
use drd_stg::flow_equiv::{check_flow_equivalence, FlowEquivalence};
use drd_stg::protocols::Protocol;
use drd_stg::Stg;

/// Fig. 2.4: the fall-decoupled protocol lets latch `A` re-open before
/// its successor captured, so an item is lost — the oracle must call it
/// data overwriting (a latch observes a skipped item), not deadlock.
#[test]
fn fall_decoupled_fails_with_data_overwriting() {
    let fe = check_flow_equivalence(&Protocol::FallDecoupled.stg(), 4, 1 << 20)
        .expect("bounded exploration");
    match fe {
        FlowEquivalence::Violated { reason } => {
            assert!(
                reason.contains("data overwriting") || reason.contains("skipped"),
                "expected an overwriting diagnostic, got: {reason}"
            );
        }
        other => panic!("fall-decoupled must be Violated, got {other:?}"),
    }
}

/// A protocol whose producer opens exactly once while the consumer
/// free-runs: the consumer's second capture sees the same stale item,
/// which must be reported as duplication.
///
/// `A+` consumes the only token and nothing replenishes it; `A-` has no
/// input places so it can never fire — `A` opens once and stays
/// transparent. `B` cycles on its private token loop.
#[test]
fn stale_recapture_fails_with_duplication() {
    let mut s = Stg::new(&["A", "B"]);
    s.arc("A-", "A+", 1).unwrap();
    s.arc("B+", "B-", 0).unwrap();
    s.arc("B-", "B+", 1).unwrap();
    let fe = check_flow_equivalence(&s, 2, 1 << 16).expect("bounded exploration");
    match fe {
        FlowEquivalence::Violated { reason } => {
            assert!(
                reason.contains("duplication"),
                "expected a duplication diagnostic, got: {reason}"
            );
        }
        other => panic!("stale recapture must be Violated, got {other:?}"),
    }
}

/// The rise-decoupled cousin of the duplication net: the consumer opens
/// twice per producer cycle because its re-open ignores the producer's
/// handshake entirely. Whatever interleaving the search picks, the
/// verdict must be a violation — never `Ok` and never a vacuous pass.
#[test]
fn free_running_consumer_never_verifies() {
    let mut s = Stg::new(&["A", "B"]);
    s.arc("A+", "A-", 0).unwrap();
    s.arc("A-", "A+", 1).unwrap();
    s.arc("B+", "B-", 0).unwrap();
    s.arc("B-", "B+", 1).unwrap();
    let fe = check_flow_equivalence(&s, 3, 1 << 16).expect("bounded exploration");
    assert!(
        matches!(fe, FlowEquivalence::Violated { .. }),
        "unsynchronized latches must violate flow equivalence, got {fe:?}"
    );
}

/// The latch-enable pulse may not open before the input request arrived:
/// `g+` from the initial marking is exactly the fault the
/// `detach-latch-enable` mutation induces at the gate level.
#[test]
fn enable_pulse_before_request_is_rejected() {
    let s = semi_decoupled_controller_stg();
    let mut c = Conformance::new(&s);
    let err = c.observe("g", true).unwrap_err();
    assert_eq!(err.at, 0);
    assert_eq!(err.event, "g+");
    assert!(
        err.allowed.contains(&"ri+".to_owned()),
        "only the input request may start the cycle, allowed = {:?}",
        err.allowed
    );
}

/// A duplicated capture pulse (`g+ g- g+` within one handshake) violates
/// the one-pulse-per-item contract; the checker must localize the fault
/// at the second `g+` and report the trace position.
#[test]
fn duplicated_capture_pulse_is_rejected() {
    let s = semi_decoupled_controller_stg();
    let mut c = Conformance::new(&s);
    c.observe_trace([("ri", true), ("ro", true), ("g", true), ("g", false)])
        .unwrap();
    let err = c.observe("g", true).unwrap_err();
    assert_eq!(err.at, 4);
    assert_eq!(err.event, "g+");
    assert!(!err.allowed.contains(&"g+".to_owned()));
    assert_eq!(c.observed(), 4, "accepted prefix must stay intact");
}

/// Withdrawing the output request while the successor still acknowledges
/// (a broken req/ack wire, the `stuck-ack` mutation's STG-level shadow)
/// is not an enabled edge.
#[test]
fn early_request_withdrawal_is_rejected() {
    let s = semi_decoupled_controller_stg();
    let err =
        check_trace(&s, [("ri", true), ("ro", true), ("g", true), ("ro", false)]).unwrap_err();
    assert_eq!(err.at, 3);
    assert_eq!(err.event, "ro-");
}

/// Display formatting carries position, event and the allowed set — the
/// shape the fuzz harnesses print on failure.
#[test]
fn conformance_error_display_names_the_offender() {
    let s = semi_decoupled_controller_stg();
    let mut c = Conformance::new(&s);
    let err = c.observe("ao", true).unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("event #0"), "{msg}");
    assert!(msg.contains("`ao+`"), "{msg}");
    assert!(msg.contains("allowed"), "{msg}");
}
