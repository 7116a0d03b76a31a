//! A process-wide core-token governor for cross-job scheduling.
//!
//! A long-running server executes many flows concurrently, and each
//! flow's per-region passes fan out over [`crate::run_indexed`]. Without
//! coordination, `J` in-flight jobs × `C` workers each oversubscribe the
//! machine `J×C`-fold; with a naive per-job core split (`C/J` workers
//! each), a job with few regions strands the cores its siblings could
//! use. The governor is the middle path: every [`crate::run_indexed`]
//! *task execution* (not task *result*) first takes one of a fixed pool
//! of core tokens and returns it when the task finishes. Per-region
//! tasks from *different* jobs interleave at core granularity — the pool
//! drains and refills task by task, so cores stay full whenever any job
//! has runnable work — while the total number of running tasks never
//! exceeds the pool.
//!
//! Determinism is untouched: tokens gate only *when* a task runs, never
//! which worker gets it or how results merge — [`crate::run_indexed`]
//! still returns results in task order, so each job's artifacts stay
//! byte-identical to a solo run (the PR 5 invariant).
//!
//! The governor is inert until [`install`] is called (the server does
//! this once at startup); one-shot CLI runs never pay more than one
//! relaxed atomic load per task. Token acquisition is re-entrant: a task
//! that itself fans out (nested `run_indexed`) runs its inner tasks
//! under the token it already holds instead of deadlocking the pool.

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, OnceLock};

/// The installed pool, if any.
static POOL: OnceLock<Pool> = OnceLock::new();

struct Pool {
    capacity: usize,
    available: Mutex<usize>,
    returned: Condvar,
    waiting: AtomicUsize,
}

thread_local! {
    /// True while this thread holds a token — nested acquisitions
    /// piggyback on it (see the module docs).
    static HOLDING: Cell<bool> = const { Cell::new(false) };
}

/// Installs the process-wide governor with `tokens` core tokens
/// (clamped to ≥ 1). Idempotent: the first call wins and later calls
/// are ignored — returns whether *this* call installed it. There is no
/// uninstall; the governor lives as long as the process, which is the
/// server lifetime by construction.
pub fn install(tokens: usize) -> bool {
    POOL.set(Pool {
        capacity: tokens.max(1),
        available: Mutex::new(tokens.max(1)),
        returned: Condvar::new(),
        waiting: AtomicUsize::new(0),
    })
    .is_ok()
}

/// Whether a governor is installed.
pub fn is_installed() -> bool {
    POOL.get().is_some()
}

/// Observability snapshot: `(capacity, available, waiting)` — pool size,
/// tokens currently free, and tasks currently blocked waiting for one.
/// `None` when no governor is installed.
pub fn stats() -> Option<(usize, usize, usize)> {
    POOL.get().map(|p| {
        let available = *p.available.lock().unwrap();
        (p.capacity, available, p.waiting.load(Ordering::Relaxed))
    })
}

/// Releases the token on drop, so a panicking task cannot leak one.
struct TokenGuard {
    pool: &'static Pool,
}

impl Drop for TokenGuard {
    fn drop(&mut self) {
        HOLDING.with(|h| h.set(false));
        *self.pool.available.lock().unwrap() += 1;
        self.pool.returned.notify_one();
    }
}

/// Runs `f` under one core token when a governor is installed (blocking
/// until a token frees up), or directly when none is — or when this
/// thread already holds one.
pub fn with_token<R>(f: impl FnOnce() -> R) -> R {
    let Some(pool) = POOL.get() else {
        return f();
    };
    if HOLDING.with(Cell::get) {
        return f();
    }
    let _guard = {
        pool.waiting.fetch_add(1, Ordering::Relaxed);
        let mut available = pool.available.lock().unwrap();
        while *available == 0 {
            available = pool.returned.wait(available).unwrap();
        }
        *available -= 1;
        pool.waiting.fetch_sub(1, Ordering::Relaxed);
        drop(available);
        HOLDING.with(|h| h.set(true));
        TokenGuard { pool }
    };
    f()
}
