//! A work-stealing parallel task runner on bare `std::thread` — the
//! throughput backbone that lets mutant × seed counts grow ~10× while
//! `cargo test` wall time stays flat.
//!
//! Design constraints (matching the rest of this crate):
//!
//! * **offline / dependency-free** — `std::thread::scope` plus
//!   `Mutex<VecDeque>` deques, no rayon/crossbeam;
//! * **deterministic results** — every task's outcome depends only on the
//!   task itself (callers derive per-task seeds from a base seed and the
//!   task *index*, never from scheduling order), and results are returned
//!   in task order regardless of which worker ran them;
//! * **seeded scheduling** — each worker owns a SplitMix64 stream (forked
//!   from a fixed scheduler seed) used *only* for victim selection when
//!   stealing, so the schedule itself is reproducible modulo OS timing.
//!
//! Workers pop from the **back** of their own deque and steal from the
//! **front** of a victim's, the classic Chase–Lev discipline (here with a
//! lock per deque — contention is irrelevant at "hundreds of multi-
//! millisecond tasks" granularity).
//!
//! The worker count comes from `DRD_WORKERS` when set, else from
//! [`std::thread::available_parallelism`], read once per process.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

use crate::rng::Rng;

/// Scheduler seed for the per-worker victim-selection streams. Fixed so
/// runs are reproducible; independent from any property/case seed.
const SCHED_SEED: u64 = 0x5EED_0F57_EA1E_2500;

/// The number of workers the runner will use: `DRD_WORKERS` if set (>= 1),
/// else [`std::thread::available_parallelism`], else 1.
///
/// # Panics
/// If `DRD_WORKERS` is set to something that is not a number; a caller
/// that reports errors itself uses [`try_worker_count`].
pub fn worker_count() -> usize {
    try_worker_count().unwrap_or_else(|e| panic!("{e}"))
}

/// [`worker_count`], or the message naming a `DRD_WORKERS` that is not a
/// number. Resolved once per process: `available_parallelism` reads
/// cgroup files on every call.
///
/// # Errors
/// When `DRD_WORKERS` is set but does not parse as a whole number.
pub fn try_worker_count() -> Result<usize, String> {
    static WORKERS: OnceLock<Result<usize, String>> = OnceLock::new();
    WORKERS
        .get_or_init(|| match std::env::var("DRD_WORKERS") {
            Ok(raw) => raw
                .trim()
                .parse::<usize>()
                .map(|n| n.max(1))
                .map_err(|_| format!("DRD_WORKERS={raw} is not a number")),
            Err(_) => Ok(std::thread::available_parallelism().map_or(1, |n| n.get())),
        })
        .clone()
}

/// Runs `work` over every task index `0..tasks`, in parallel on `workers`
/// threads, returning the results **in task order**.
///
/// `work` must be deterministic in its index argument for the whole run
/// to be deterministic — derive any randomness from a seed and the index.
///
/// # Panics
/// Propagates the first worker panic (by task order) after all workers
/// stopped.
pub fn run_indexed<R, F>(tasks: usize, workers: usize, work: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let workers = workers.clamp(1, tasks.max(1));
    if tasks == 0 {
        return Vec::new();
    }
    if workers == 1 {
        return (0..tasks).map(work).collect();
    }

    // Round-robin initial distribution: task i starts on deque i % workers.
    let deques: Vec<Mutex<VecDeque<usize>>> = (0..workers)
        .map(|w| {
            Mutex::new(
                (0..tasks)
                    .filter(|i| i % workers == w)
                    .collect::<VecDeque<usize>>(),
            )
        })
        .collect();
    let slots: Vec<Mutex<Option<R>>> = (0..tasks).map(|_| Mutex::new(None)).collect();
    let panics: Mutex<Vec<(usize, Box<dyn std::any::Any + Send>)>> = Mutex::new(Vec::new());
    let remaining = AtomicUsize::new(tasks);

    let mut sched = Rng::new(SCHED_SEED);
    let streams: Vec<Rng> = (0..workers).map(|_| sched.fork()).collect();

    std::thread::scope(|scope| {
        for (w, mut stream) in streams.into_iter().enumerate() {
            let deques = &deques;
            let slots = &slots;
            let panics = &panics;
            let remaining = &remaining;
            let work = &work;
            scope.spawn(move || loop {
                // Own deque first (LIFO), then steal (FIFO) from a
                // seeded-random victim. The own-deque guard must be dropped
                // before any steal attempt: holding it across a victim lock
                // is an ABBA deadlock between two mutually-stealing workers
                // (the temporary guard in a `lock().pop_back().or_else(..)`
                // chain would live until the end of the statement).
                let own = deques[w].lock().unwrap().pop_back();
                let task = own.or_else(|| {
                    for _ in 0..4 * deques.len() {
                        let v = stream.range(0, deques.len());
                        if v == w {
                            continue;
                        }
                        if let Some(t) = deques[v].lock().unwrap().pop_front() {
                            return Some(t);
                        }
                    }
                    // Linear sweep so termination never depends on luck.
                    (0..deques.len())
                        .filter(|&v| v != w)
                        .find_map(|v| deques[v].lock().unwrap().pop_front())
                });
                let Some(task) = task else {
                    if remaining.load(Ordering::Acquire) == 0 {
                        return;
                    }
                    std::thread::yield_now();
                    continue;
                };
                match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| work(task))) {
                    Ok(r) => *slots[task].lock().unwrap() = Some(r),
                    Err(p) => panics.lock().unwrap().push((task, p)),
                }
                remaining.fetch_sub(1, Ordering::AcqRel);
            });
        }
    });

    let mut failed = panics.into_inner().unwrap();
    if !failed.is_empty() {
        // Resume the panic of the lowest task index — deterministic even
        // when several workers failed concurrently.
        failed.sort_by_key(|(i, _)| *i);
        std::panic::resume_unwind(failed.remove(0).1);
    }
    slots
        .into_iter()
        .map(|s| s.into_inner().unwrap().expect("every task ran"))
        .collect()
}

/// [`run_indexed`] with the default [`worker_count`].
pub fn run_parallel<R, F>(tasks: usize, work: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    run_indexed(tasks, worker_count(), work)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_task_order() {
        for workers in [1, 2, 3, 8] {
            let out = run_indexed(100, workers, |i| i * i);
            assert_eq!(out, (0..100).map(|i| i * i).collect::<Vec<_>>());
        }
    }

    #[test]
    fn zero_tasks_is_empty() {
        let out: Vec<usize> = run_indexed(0, 4, |i| i);
        assert!(out.is_empty());
    }

    #[test]
    fn parallel_equals_single_thread() {
        // Determinism across worker counts: per-task seeding only.
        let gold: Vec<u64> = run_indexed(64, 1, |i| Rng::new(0xBEEF ^ i as u64).next_u64());
        for workers in [2, 4, 7] {
            let got = run_indexed(64, workers, |i| Rng::new(0xBEEF ^ i as u64).next_u64());
            assert_eq!(got, gold, "workers = {workers}");
        }
    }

    #[test]
    fn lowest_index_panic_wins() {
        let caught = std::panic::catch_unwind(|| {
            run_indexed(32, 4, |i| {
                if i % 10 == 3 {
                    panic!("task {i} failed");
                }
                i
            })
        });
        let msg = *caught.expect_err("must fail").downcast::<String>().unwrap();
        assert_eq!(msg, "task 3 failed");
    }

    #[test]
    fn mutual_stealing_does_not_deadlock() {
        // Regression: the own-deque guard used to stay held across steal
        // attempts (temporary-lifetime footgun in a
        // `lock().pop_back().or_else(..)` chain), which deadlocks two
        // workers stealing from each other. Tiny tasks, more workers than
        // cores and many rounds make that collision likely; a watchdog
        // turns a regression into a failure instead of a hung suite.
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            for round in 0..200usize {
                let out = run_indexed(64, 8, |i| i + round);
                assert_eq!(out, (round..round + 64).collect::<Vec<_>>());
            }
            tx.send(()).unwrap();
        });
        rx.recv_timeout(std::time::Duration::from_secs(120))
            .expect("runner deadlocked in the steal path");
    }

    #[test]
    fn uneven_task_sizes_are_stolen() {
        // One long-running initial task per worker would serialize a
        // non-stealing runner; just assert completion and order here.
        let out = run_indexed(40, 4, |i| {
            if i < 4 {
                std::thread::sleep(std::time::Duration::from_millis(10));
            }
            i
        });
        assert_eq!(out, (0..40).collect::<Vec<_>>());
    }
}
