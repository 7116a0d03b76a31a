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
//! Each event is one packed `u128` key, `time << 64 | id << NODE_BITS |
//! node`, so ordering the heap is one integer comparison; ids are
//! unique, so the node bits never decide an order. The queue is its own
//! binary heap over those keys. Besides `schedule` and `pop` it has the
//! fused [`EventQueue::pop_and_schedule`]: a simulator that processes
//! the earliest event overwrites it with the first event it schedules,
//! one sift instead of a pop's and a push's, and pops only when it
//! schedules none. The set of keys, and so the pop order, is the same
//! either way.
//!
//! Stale-event cancellation is by id rather than heap surgery: the
//! simulator remembers the id of the last event each node scheduled and
//! drops popped events with any other id. That gives inertial-delay
//! semantics (a pulse shorter than a gate's delay is swallowed) without
//! ever reordering or removing heap entries. A live event's new value is
//! the one its node last scheduled, so the event does not carry it.

/// Simulation time in femtoseconds.
pub type TimeFs = u64;

/// Femtoseconds per nanosecond.
pub const FS_PER_NS: f64 = 1.0e6;

/// Low bits of a packed key that hold the node index.
pub(crate) const NODE_BITS: u32 = 20;

/// Nodes a queue can address: node indices are below this.
pub const MAX_NODES: usize = 1 << NODE_BITS;

/// Bits of a packed key that hold the event id: ids are below
/// `1 << ID_BITS`.
pub(crate) const ID_BITS: u32 = 64 - NODE_BITS;

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
    /// Target node index (below [`MAX_NODES`]).
    pub node: u32,
}

const NODE_MASK: u64 = (1 << NODE_BITS) - 1;

impl Event {
    fn key(self) -> u128 {
        u128::from(self.time) << 64 | u128::from(self.id << NODE_BITS | u64::from(self.node))
    }

    fn from_key(key: u128) -> Event {
        let low = key as u64;
        Event {
            time: (key >> 64) as TimeFs,
            id: low >> NODE_BITS,
            node: (low & NODE_MASK) as u32,
        }
    }
}

/// A min-heap of [`Event`]s with stable `(time, event-id)` ordering.
#[derive(Debug, Default)]
pub struct EventQueue {
    /// Packed keys in heap order: each is at most its two children,
    /// `heap[2i + 1]` and `heap[2i + 2]`.
    heap: Vec<u128>,
    next_id: u64,
}

impl EventQueue {
    /// An empty queue.
    pub fn new() -> EventQueue {
        EventQueue::default()
    }

    /// The next event's key, taking its id.
    fn next_key(&mut self, time: TimeFs, node: u32) -> (u128, u64) {
        let id = self.next_id;
        debug_assert!((node as usize) < MAX_NODES, "node {node} out of key range");
        debug_assert!(id < 1 << ID_BITS, "event id {id} out of key range");
        self.next_id += 1;
        (Event { time, id, node }.key(), id)
    }

    /// Schedules a transition and returns its id.
    pub fn schedule(&mut self, time: TimeFs, node: u32) -> u64 {
        let (key, id) = self.next_key(time, node);
        self.heap.push(key);
        self.sift_up(self.heap.len() - 1);
        id
    }

    /// The earliest event (ties by id), left in the queue.
    pub fn peek(&self) -> Option<Event> {
        self.heap.first().map(|&key| Event::from_key(key))
    }

    /// Pops the earliest event (ties by id, i.e. scheduling order).
    pub fn pop(&mut self) -> Option<Event> {
        let last = self.heap.pop()?;
        let top = match self.heap.first_mut() {
            Some(root) => std::mem::replace(root, last),
            None => last,
        };
        self.sift_down(0);
        Some(Event::from_key(top))
    }

    /// Pops the earliest event and schedules a transition in its place,
    /// returning the new event's id: the same as [`Self::pop`] then
    /// [`Self::schedule`], in one sift from the root.
    pub fn pop_and_schedule(&mut self, time: TimeFs, node: u32) -> u64 {
        let (key, id) = self.next_key(time, node);
        match self.heap.first_mut() {
            Some(root) => {
                *root = key;
                self.sift_down(0);
            }
            None => self.heap.push(key),
        }
        id
    }

    /// Moves the key at `pos` up to its place.
    fn sift_up(&mut self, mut pos: usize) {
        let heap = &mut self.heap[..];
        let key = heap[pos];
        while pos > 0 {
            let parent = (pos - 1) / 2;
            if heap[parent] <= key {
                break;
            }
            heap[pos] = heap[parent];
            pos = parent;
        }
        heap[pos] = key;
    }

    /// Moves the key at `pos` down to its place. The smaller child is
    /// picked by adding a comparison's outcome, not by a branch: which
    /// child is smaller is a coin toss the branch predictor cannot learn.
    fn sift_down(&mut self, mut pos: usize) {
        let heap = &mut self.heap[..];
        let Some(&key) = heap.get(pos) else { return };
        let len = heap.len();
        loop {
            let mut child = 2 * pos + 1;
            if child + 1 < len {
                child += usize::from(heap[child + 1] < heap[child]);
            } else if child >= len {
                break;
            }
            if key <= heap[child] {
                break;
            }
            heap[pos] = heap[child];
            pos = child;
        }
        heap[pos] = key;
    }

    /// Earliest pending fire time.
    pub fn peek_time(&self) -> Option<TimeFs> {
        self.peek().map(|e| e.time)
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
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    #[test]
    fn pops_in_time_order_with_id_tiebreak() {
        let mut q = EventQueue::new();
        q.schedule(30, 0);
        q.schedule(10, 1);
        q.schedule(10, 2); // same time, later id
        q.schedule(20, 3);
        let order: Vec<(TimeFs, u32)> = std::iter::from_fn(|| q.pop())
            .map(|e| (e.time, e.node))
            .collect();
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
        // On an empty queue the fused operation only schedules.
        assert_eq!(q.pop_and_schedule(3, 4), 1);
        assert_eq!(
            q.peek(),
            Some(Event {
                time: 3,
                id: 1,
                node: 4
            })
        );
    }

    #[test]
    fn keys_round_trip_at_the_field_limits() {
        let e = Event {
            time: u64::MAX,
            id: (1 << ID_BITS) - 1,
            node: (MAX_NODES - 1) as u32,
        };
        assert_eq!(Event::from_key(e.key()), e);
    }

    /// Random schedules against `std`'s `BinaryHeap` of `(time, id,
    /// node)`: every pop, and every fused pop-and-schedule, yields what
    /// the reference pops.
    #[test]
    fn fused_operation_matches_a_binary_heap_on_random_schedules() {
        let mut state = 0x5EED_F0E7_u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for round in 0..200 {
            let mut q = EventQueue::new();
            let mut reference: BinaryHeap<Reverse<(TimeFs, u64, u32)>> = BinaryHeap::new();
            let mut now: TimeFs = 0;
            // Narrow time ranges in some rounds, so same-time ties are
            // common and the id decides.
            let spread = [4, 64, 1 << 20][round % 3];
            for _ in 0..400 {
                let node = (next() % MAX_NODES as u64) as u32;
                let time = now + next() % spread;
                match next() % 4 {
                    0 => {
                        let id = q.schedule(time, node);
                        reference.push(Reverse((time, id, node)));
                    }
                    1 => {
                        let got = q.pop();
                        let want = reference.pop().map(|Reverse(e)| e);
                        assert_eq!(got.map(|e| (e.time, e.id, e.node)), want);
                        now = want.map_or(now, |(t, _, _)| t);
                    }
                    _ => {
                        let want = reference.pop().map(|Reverse(e)| e);
                        assert_eq!(q.peek().map(|e| (e.time, e.id, e.node)), want);
                        now = want.map_or(now, |(t, _, _)| t);
                        let time = now + next() % spread;
                        let id = q.pop_and_schedule(time, node);
                        reference.push(Reverse((time, id, node)));
                    }
                }
                assert_eq!(q.len(), reference.len());
            }
            while let Some(Reverse(want)) = reference.pop() {
                let got = q.pop().expect("queue drains with the reference");
                assert_eq!((got.time, got.id, got.node), want);
            }
            assert!(q.is_empty());
        }
    }
}
