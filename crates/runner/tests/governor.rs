//! The process-global core-token governor, in a test binary of its own.
//!
//! `install` is once-only and the pool is process-wide, so this test must
//! not share a process with other tests that run `run_indexed` (and so
//! take tokens) while it asserts exact free-token counts.

use std::sync::atomic::{AtomicUsize, Ordering};

use drd_runner::governor::{install, is_installed, stats, with_token};

#[test]
fn tokens_bound_concurrency_and_reenter_and_survive_panics() {
    assert!(stats().is_none(), "inert until installed");
    assert!(install(2));
    assert!(!install(8), "second install is ignored");
    assert!(is_installed());
    assert_eq!(stats(), Some((2, 2, 0)));

    // Concurrency never exceeds the pool even with 8 eager threads.
    let running = AtomicUsize::new(0);
    let peak = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for _ in 0..8 {
            s.spawn(|| {
                for _ in 0..50 {
                    with_token(|| {
                        let now = running.fetch_add(1, Ordering::SeqCst) + 1;
                        peak.fetch_max(now, Ordering::SeqCst);
                        std::thread::yield_now();
                        running.fetch_sub(1, Ordering::SeqCst);
                    });
                }
            });
        }
    });
    assert!(
        peak.load(Ordering::SeqCst) <= 2,
        "peak {}",
        peak.load(Ordering::SeqCst)
    );
    assert_eq!(stats(), Some((2, 2, 0)), "all tokens returned");

    // Re-entrancy: a nested with_token piggybacks on the held token.
    with_token(|| {
        assert_eq!(stats().unwrap().1, 1);
        with_token(|| assert_eq!(stats().unwrap().1, 1, "no second token taken"));
    });

    // A panicking task returns its token.
    let caught = std::panic::catch_unwind(|| with_token(|| panic!("boom")));
    assert!(caught.is_err());
    assert_eq!(stats(), Some((2, 2, 0)));
}
