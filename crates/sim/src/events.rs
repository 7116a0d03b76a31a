//! Deterministic timed event queue for handshake-level simulation.
//!
//! Time is integer **femtoseconds** (`u64`): floating-point times would
//! make heap ordering depend on rounding history, and byte-identical
//! Monte-Carlo artifacts across worker counts (the BENCH_variability
//! contract) demand a total order with no ties left to chance. Ties at
//! the same femtosecond are broken by the event id, which the queue
//! assigns in scheduling order — scheduling is itself deterministic, so
//! pop order is a pure function of the schedule calls.
//!
//! Stale-event cancellation is by id rather than heap surgery: the
//! simulator remembers the id of the last event each node scheduled and
//! drops popped events with any other id. That gives inertial-delay
//! semantics (a pulse shorter than a gate's delay is swallowed) without
//! ever reordering or removing heap entries. A live event's new value is
//! the one its node last scheduled, so the event does not carry it.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Simulation time in femtoseconds.
pub type TimeFs = u64;

/// Femtoseconds per nanosecond.
pub const FS_PER_NS: f64 = 1.0e6;

/// Converts nanoseconds to femtoseconds, rounding to the nearest
/// femtosecond and flooring at 1 fs so every gate keeps positive delay
/// (zero-delay loops would livelock the queue).
pub fn ns_to_fs(ns: f64) -> TimeFs {
    let fs = (ns * FS_PER_NS).round();
    if fs < 1.0 {
        1
    } else if fs >= u64::MAX as f64 {
        u64::MAX
    } else {
        fs as TimeFs
    }
}

/// Converts femtoseconds back to nanoseconds (for reports only — all
/// queue arithmetic stays integral).
pub fn fs_to_ns(fs: TimeFs) -> f64 {
    fs as f64 / FS_PER_NS
}

/// One scheduled transition of node `node` at `time`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// Fire time (fs).
    pub time: TimeFs,
    /// Queue-assigned id: the (time, id) pair is the total order. The
    /// simulator drops the event unless it is the last one its node
    /// scheduled.
    pub id: u64,
    /// Target node index.
    pub node: usize,
}

impl Ord for Event {
    fn cmp(&self, other: &Event) -> std::cmp::Ordering {
        // (time, id) only: ids are unique, so this is a total order and
        // the node never influences pop order.
        (self.time, self.id).cmp(&(other.time, other.id))
    }
}

impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Event) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// A min-heap of [`Event`]s with stable `(time, event-id)` ordering.
#[derive(Debug, Default)]
pub struct EventQueue {
    heap: BinaryHeap<Reverse<Event>>,
    next_id: u64,
}

impl EventQueue {
    /// An empty queue.
    pub fn new() -> EventQueue {
        EventQueue::default()
    }

    /// Schedules a transition and returns its id.
    pub fn schedule(&mut self, time: TimeFs, node: usize) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        self.heap.push(Reverse(Event { time, id, node }));
        id
    }

    /// Pops the earliest event (ties by id, i.e. scheduling order).
    pub fn pop(&mut self) -> Option<Event> {
        self.heap.pop().map(|Reverse(e)| e)
    }

    /// Earliest pending fire time.
    pub fn peek_time(&self) -> Option<TimeFs> {
        self.heap.peek().map(|Reverse(e)| e.time)
    }

    /// Number of pending events (including stale ones not yet dropped).
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Total events ever scheduled.
    pub fn scheduled(&self) -> u64 {
        self.next_id
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order_with_id_tiebreak() {
        let mut q = EventQueue::new();
        q.schedule(30, 0);
        q.schedule(10, 1);
        q.schedule(10, 2); // same time, later id
        q.schedule(20, 3);
        let order: Vec<(TimeFs, usize)> =
            std::iter::from_fn(|| q.pop()).map(|e| (e.time, e.node)).collect();
        assert_eq!(order, vec![(10, 1), (10, 2), (20, 3), (30, 0)]);
    }

    #[test]
    fn same_time_ties_resolve_by_scheduling_order_not_node() {
        let mut q = EventQueue::new();
        // Schedule high node index first: it must still pop first.
        q.schedule(5, 9);
        q.schedule(5, 1);
        assert_eq!(q.pop().unwrap().node, 9);
        assert_eq!(q.pop().unwrap().node, 1);
    }

    #[test]
    fn ns_fs_round_trip_and_floor() {
        assert_eq!(ns_to_fs(1.0), 1_000_000);
        assert_eq!(ns_to_fs(0.0000004), 1, "sub-fs delays floor at 1 fs");
        assert_eq!(ns_to_fs(0.0), 1);
        let fs = ns_to_fs(2.375);
        assert!((fs_to_ns(fs) - 2.375).abs() < 1e-9);
    }

    #[test]
    fn bookkeeping() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        assert_eq!(q.schedule(7, 0), 0);
        assert_eq!(q.len(), 1);
        assert_eq!(q.peek_time(), Some(7));
        assert_eq!(q.scheduled(), 1);
        q.pop();
        assert!(q.is_empty());
    }
}
