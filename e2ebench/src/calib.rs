//! Host-speed calibration. The benchmark runs on shared hosts whose
//! speed drifts by 10–40 % over seconds to minutes as neighbours come
//! and go, and a one-shot job's wall and CPU time drift with it. Each
//! timed job is bracketed by a fixed reference task — bench code only,
//! never program code, so no change to the program moves it — and its
//! times are scaled by how long the reference took next to it, then
//! reported at the reference's nominal speed. A change that makes the
//! program 20 % faster still reads 20 % faster; a neighbour that makes
//! the whole host 20 % slower mostly does not. E2E.md gives the runs
//! that show how much spread this removes.
//!
//! The reference has two parts, because neighbours slow two kinds of
//! work differently: sorting and hashing keys that fit in cache (the
//! branching, allocation-free side of the flow) and random reads over a
//! table larger than any shared cache (the side that waits on memory).
//! Its duration is the geometric mean of the two; either part alone
//! tracked one of the flow's designs and missed the other. A program
//! that runs on several threads is bracketed by the reference running
//! on as many threads at once: a neighbour on one of the host's cores
//! slows a two-thread run more than a one-thread reference shows.
//!
//! The serve workload brackets short chunks of traffic the same way.
//! Start-up samples are not bracketed one by one — start-up is mostly
//! kernel work (exec, page faults) that a single reference run tracks
//! poorly — but scaled by the run's median host speed, which follows the
//! slow drift.

use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::OnceLock;
use std::time::Instant;

use crate::stats::geomean;

/// The reference task's median duration on the host the baselines in
/// E2E.md were measured on (2-vCPU Xeon), so scaled times read as
/// milliseconds on that host.
pub const REFERENCE_NOMINAL_S: f64 = 0.0015;

const KEYS: usize = 50_000;
/// 32 MiB of table, 100 000 reads.
const TABLE_WORDS: usize = 4 << 20;
const READS: usize = 100_000;

/// The table the random reads go to, shared read-only by every thread.
static TABLE: OnceLock<Vec<u64>> = OnceLock::new();

thread_local! {
    /// The sort-and-hash buffers, allocated at a thread's first,
    /// untimed run: a timed run allocates nothing, so the state of the
    /// bench's own heap cannot move it.
    static SCRATCH: RefCell<(Vec<u64>, HashMap<u64, usize>)> =
        RefCell::new((Vec::with_capacity(KEYS), HashMap::with_capacity(KEYS / 2)));
}

fn xorshift(seed: u64) -> impl Iterator<Item = u64> {
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15 ^ seed;
    std::iter::repeat_with(move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    })
}

/// Sorting and hashing pseudo-random keys in cache.
fn in_cache(keys: &mut Vec<u64>, index: &mut HashMap<u64, usize>) {
    keys.clear();
    index.clear();
    keys.extend(xorshift(0).take(KEYS));
    keys.sort_unstable();
    index.extend(keys.iter().enumerate().step_by(2).map(|(i, &k)| (k, i)));
    std::hint::black_box(index.len());
}

/// Random reads over the table.
fn in_memory(table: &[u64]) {
    let n = table.len() as u64;
    let sum = xorshift(2)
        .take(READS)
        .fold(0u64, |acc, r| acc.wrapping_add(table[(r % n) as usize]));
    std::hint::black_box(sum);
}

/// The reference on the calling thread (s). It runs twice and only the
/// second run is timed, so what ran just before — the program under
/// test included — moves it as little as it can.
fn one_thread() -> f64 {
    let table = TABLE.get_or_init(|| xorshift(1).take(TABLE_WORDS).collect());
    SCRATCH.with(|scratch| {
        let (keys, index) = &mut *scratch.borrow_mut();
        in_cache(keys, index);
        in_memory(table);
        let start = Instant::now();
        in_cache(keys, index);
        let cache_s = start.elapsed().as_secs_f64();
        let start = Instant::now();
        in_memory(table);
        (cache_s * start.elapsed().as_secs_f64()).sqrt()
    })
}

/// How long the reference task takes now (s), run on `threads` threads
/// at once — as many as the program under test runs on — and averaged
/// geometrically over them.
pub fn reference_s(threads: usize) -> f64 {
    let times: Vec<f64> = std::thread::scope(|scope| {
        let others: Vec<_> = (1..threads).map(|_| scope.spawn(one_thread)).collect();
        let mine = one_thread();
        others
            .into_iter()
            .map(|h| h.join().expect("reference thread panicked"))
            .chain([mine])
            .collect()
    });
    geomean(&times)
}

/// Scale factor for work bracketed by reference runs taking `before`
/// and `after` seconds: nominal over measured host speed.
pub fn scale(before: f64, after: f64) -> f64 {
    REFERENCE_NOMINAL_S / ((before + after) / 2.0)
}
