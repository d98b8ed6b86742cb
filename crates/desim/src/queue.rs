//! Deterministic time-ordered event queue.
//!
//! Entries are ordered by [`EventKey`]: fire time, then originating
//! component, then that component's send counter. The key is a *total*
//! order that does not depend on which queue an event was pushed onto,
//! so the same scenario dispatches identically whether it runs on the
//! sequential kernel or partitioned across shards — this is what makes
//! whole simulations bit-for-bit reproducible across kernels, not just
//! across runs.
//!
//! Events injected from outside the component graph (scenario glue,
//! closures) carry the [`EXTERNAL_SRC`] source and a per-queue FIFO
//! counter, so external events scheduled for the same instant still pop
//! in scheduling order.
//!
//! # A monotone radix queue
//!
//! The kernel never schedules an event before the current instant, so
//! every push fires at or after `floor`, the fire time of the last popped
//! event. The queue is built on that *monotone-push* contract:
//!
//! * **One slab.** Every entry lives in one `Vec` of slots with an
//!   intrusive free list. Buckets are singly linked lists threaded
//!   through the slab by `u32` index, so no bucket owns an allocation.
//! * **Buckets by 6-bit digit.** An entry firing at `t > floor` sits at
//!   level `L`, the highest 6-bit group in which `t ^ floor` is non-zero,
//!   in bucket `(t >> 6L) & 63` of that level (11 levels × 64 buckets).
//!   Every entry of a lower level fires before every entry of a higher
//!   one, and within a level the bucket index orders entries, so the
//!   earliest pending time is the cached minimum of the lowest non-empty
//!   bucket of the lowest non-empty level: two `trailing_zeros` over the
//!   occupancy masks.
//! * **Advancing.** When the entries at `floor` run out, `floor` moves to
//!   that earliest time, the bucket is emptied and its entries are
//!   re-filed around the new floor. Each lands on a strictly lower level,
//!   so an entry moves at most 11 times over its life (typically 2–3).
//! * **Same-instant events.** Entries firing exactly at `floor` wait in a
//!   short deque sorted by the full key, so `(src, seq)` ties pop exactly
//!   in key order, [`EXTERNAL_SRC`] FIFO included.
//!
//! [`EventQueue::peek_time`] only reads the caches and never moves
//! `floor`, so a caller that stops at a horizon may still schedule
//! between the current instant and the next pending event. A push below
//! `floor` is legal on the public API (the kernel never makes one): it
//! re-files every pending entry around the new, lower floor in O(n).

use std::collections::VecDeque;

use crate::time::SimTime;

/// Source id used for events pushed from outside any component (scenario
/// setup, `Simulator::send_in`, closures). Sorts after every component
/// source at the same instant.
pub const EXTERNAL_SRC: u64 = u64::MAX;

/// The total order on events: fire time, then source component, then the
/// source's monotone send counter. Identical regardless of how the
/// simulation is partitioned into shards.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub struct EventKey {
    /// Instant at which the event fires.
    pub time: SimTime,
    /// Originating component index, or [`EXTERNAL_SRC`].
    pub src: u64,
    /// The source's send counter at scheduling time.
    pub seq: u64,
}

/// An entry popped from the queue.
#[derive(Debug)]
pub struct QueuedEvent<T> {
    /// Instant at which the event fires.
    pub time: SimTime,
    /// Tie-break remainder of the key: `(source, send counter)`.
    pub src: u64,
    /// Scheduling order within the source.
    pub seq: u64,
    /// The event payload.
    pub payload: T,
}

/// Bits of the fire time resolved per level.
const DIGIT_BITS: u32 = 6;
/// Buckets per level.
const FANOUT: usize = 1 << DIGIT_BITS;
/// Levels needed to cover a `u64` time: ⌈64 / 6⌉.
const LEVELS: usize = 11;
/// End of a slab list.
const NIL: u32 = u32::MAX;

/// One slab entry: a pending event (`payload` is `Some`) or a free slot.
struct Slot<T> {
    key: EventKey,
    /// Next slot in the same bucket, or in the free list.
    next: u32,
    payload: Option<T>,
}

/// Head of one bucket's slot list and the earliest fire time in it.
#[derive(Clone, Copy)]
struct Bucket {
    min: u64,
    head: u32,
}

const EMPTY_BUCKET: Bucket = Bucket { min: u64::MAX, head: NIL };

/// Min-queue of timed events ordered by [`EventKey`].
pub struct EventQueue<T> {
    slots: Vec<Slot<T>>,
    /// Head of the free-slot list.
    free: u32,
    /// Entries firing exactly at `floor`, sorted by key.
    due: VecDeque<(EventKey, u32)>,
    /// `LEVELS × FANOUT` buckets holding the entries after `floor`.
    buckets: Box<[Bucket; LEVELS * FANOUT]>,
    /// Per level, one bit per non-empty bucket.
    bucket_masks: [u64; LEVELS],
    /// One bit per level with a non-empty bucket.
    level_mask: u16,
    /// Fire time of the last popped event, in ns: every pending entry
    /// fires at or after it.
    floor: u64,
    len: usize,
    /// FIFO counter for externally pushed events.
    next_seq: u64,
    /// Total number of events ever pushed (keyed or external).
    pushed: u64,
}

impl<T> Default for EventQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> EventQueue<T> {
    /// Create an empty queue.
    pub fn new() -> Self {
        EventQueue {
            slots: Vec::new(),
            free: NIL,
            due: VecDeque::new(),
            buckets: Box::new([EMPTY_BUCKET; LEVELS * FANOUT]),
            bucket_masks: [0; LEVELS],
            level_mask: 0,
            floor: 0,
            len: 0,
            next_seq: 0,
            pushed: 0,
        }
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Schedule `payload` at `time` from outside the component graph.
    /// External events are FIFO among equal times and sort after any
    /// component-sourced event at the same instant. Returns the FIFO
    /// sequence number assigned, which can be used for debugging/tracing.
    pub fn push(&mut self, time: SimTime, payload: T) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.push_keyed(EventKey { time, src: EXTERNAL_SRC, seq }, payload);
        seq
    }

    /// Schedule `payload` under an explicit key (component-sourced
    /// events; cross-shard arrivals re-inserted with their original key).
    pub fn push_keyed(&mut self, key: EventKey, payload: T) {
        self.pushed += 1;
        self.len += 1;
        let t = key.time.as_nanos();
        if t < self.floor {
            self.refloor(t);
        }
        let idx = self.alloc(key, payload);
        if t == self.floor {
            let at = self.due.partition_point(|(k, _)| *k < key);
            self.due.insert(at, (key, idx));
        } else {
            self.file(idx, t);
        }
    }

    /// Pop the earliest event (smallest key).
    pub fn pop(&mut self) -> Option<QueuedEvent<T>> {
        if self.due.is_empty() && !self.advance() {
            return None;
        }
        let (key, idx) = self.due.pop_front().expect("advance filled the due list");
        let slot = &mut self.slots[idx as usize];
        let payload = slot.payload.take().expect("a due slot is live");
        slot.next = self.free;
        self.free = idx;
        self.len -= 1;
        Some(QueuedEvent { time: key.time, src: key.src, seq: key.seq, payload })
    }

    /// Pop the earliest event only if it fires strictly before `horizon`.
    pub fn pop_before(&mut self, horizon: SimTime) -> Option<QueuedEvent<T>> {
        if self.peek_time().is_some_and(|t| t < horizon) {
            self.pop()
        } else {
            None
        }
    }

    /// Fire time of the next event without removing it.
    pub fn peek_time(&self) -> Option<SimTime> {
        if !self.due.is_empty() {
            return Some(SimTime::from_nanos(self.floor));
        }
        let (level, digit) = self.lowest_bucket()?;
        Some(SimTime::from_nanos(self.buckets[level * FANOUT + digit].min))
    }

    /// Remove and return every pending entry with its key, in key order
    /// (used when partitioning a wired simulation into shards).
    pub fn drain_entries(&mut self) -> Vec<(EventKey, T)> {
        let mut out: Vec<(EventKey, T)> =
            self.slots.drain(..).filter_map(|s| Some((s.key, s.payload?))).collect();
        out.sort_unstable_by_key(|e| e.0);
        self.clear_index();
        self.free = NIL;
        self.len = 0;
        out
    }

    /// Restore the external FIFO counter (used when reassembling a
    /// simulator from shards).
    pub(crate) fn set_fifo_seq(&mut self, seq: u64) {
        self.next_seq = seq;
    }

    /// The external FIFO counter.
    pub(crate) fn fifo_seq(&self) -> u64 {
        self.next_seq
    }

    /// Total number of events ever scheduled on this queue.
    pub fn scheduled_total(&self) -> u64 {
        self.pushed
    }

    /// Store an entry in a free slot (or a new one) and return its index.
    fn alloc(&mut self, key: EventKey, payload: T) -> u32 {
        if self.free != NIL {
            let idx = self.free;
            let slot = &mut self.slots[idx as usize];
            self.free = slot.next;
            slot.key = key;
            slot.payload = Some(payload);
            idx
        } else {
            let idx = u32::try_from(self.slots.len())
                .ok()
                .filter(|&i| i != NIL)
                .expect("more than u32::MAX - 1 pending events");
            self.slots.push(Slot { key, next: NIL, payload: Some(payload) });
            idx
        }
    }

    /// Link slot `idx`, firing at `t > floor`, into its bucket.
    #[inline]
    fn file(&mut self, idx: u32, t: u64) {
        debug_assert!(t > self.floor);
        let level = ((63 - (t ^ self.floor).leading_zeros()) / DIGIT_BITS) as usize;
        let digit = ((t >> (level as u32 * DIGIT_BITS)) as usize) & (FANOUT - 1);
        let bucket = &mut self.buckets[level * FANOUT + digit];
        self.slots[idx as usize].next = bucket.head;
        bucket.head = idx;
        bucket.min = bucket.min.min(t);
        self.bucket_masks[level] |= 1 << digit;
        self.level_mask |= 1 << level;
    }

    /// `(level, digit)` of the bucket holding the earliest filed entry.
    #[inline]
    fn lowest_bucket(&self) -> Option<(usize, usize)> {
        if self.level_mask == 0 {
            return None;
        }
        let level = self.level_mask.trailing_zeros() as usize;
        Some((level, self.bucket_masks[level].trailing_zeros() as usize))
    }

    /// Move `floor` to the earliest filed time: empty that bucket, put
    /// its entries at the new floor on the due list and re-file the rest.
    /// Returns `false` if nothing is pending.
    fn advance(&mut self) -> bool {
        let Some((level, digit)) = self.lowest_bucket() else {
            return false;
        };
        let bucket = std::mem::replace(&mut self.buckets[level * FANOUT + digit], EMPTY_BUCKET);
        self.bucket_masks[level] &= !(1 << digit);
        if self.bucket_masks[level] == 0 {
            self.level_mask &= !(1 << level);
        }
        self.floor = bucket.min;
        let mut idx = bucket.head;
        while idx != NIL {
            let slot = &self.slots[idx as usize];
            let (key, next) = (slot.key, slot.next);
            let t = key.time.as_nanos();
            if t == self.floor {
                self.due.push_back((key, idx));
            } else {
                self.file(idx, t);
            }
            idx = next;
        }
        self.due.make_contiguous().sort_unstable_by_key(|e| e.0);
        true
    }

    /// Lower `floor` to `floor` and re-file every pending entry around it
    /// (a push below the floor; O(pending)).
    #[cold]
    fn refloor(&mut self, floor: u64) {
        self.clear_index();
        self.floor = floor;
        for idx in 0..self.slots.len() {
            if self.slots[idx].payload.is_some() {
                let t = self.slots[idx].key.time.as_nanos();
                self.file(idx as u32, t);
            }
        }
    }

    /// Forget which slots sit where (the slab itself is untouched).
    fn clear_index(&mut self) {
        self.due.clear();
        self.buckets.fill(EMPTY_BUCKET);
        self.bucket_masks = [0; LEVELS];
        self.level_mask = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(3), "c");
        q.push(SimTime::from_secs(1), "a");
        q.push(SimTime::from_secs(2), "b");
        let order: Vec<_> = std::iter::from_fn(|| q.pop().map(|e| e.payload)).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn fifo_among_equal_times() {
        let mut q = EventQueue::new();
        let t = SimTime::from_millis(10);
        for i in 0..100 {
            q.push(t, i);
        }
        let order: Vec<_> = std::iter::from_fn(|| q.pop().map(|e| e.payload)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn keyed_order_is_time_then_source_then_seq() {
        let mut q = EventQueue::new();
        let t = SimTime::from_millis(1);
        q.push_keyed(EventKey { time: t, src: 2, seq: 0 }, "c0");
        q.push_keyed(EventKey { time: t, src: 1, seq: 1 }, "b1");
        q.push_keyed(EventKey { time: t, src: 1, seq: 0 }, "b0");
        q.push(t, "ext"); // EXTERNAL_SRC sorts after all components.
        q.push_keyed(EventKey { time: SimTime::ZERO, src: 9, seq: 0 }, "early");
        let order: Vec<_> = std::iter::from_fn(|| q.pop().map(|e| e.payload)).collect();
        assert_eq!(order, vec!["early", "b0", "b1", "c0", "ext"]);
    }

    #[test]
    fn key_order_does_not_depend_on_push_order() {
        let keys: Vec<EventKey> = (0..24)
            .map(|i| EventKey {
                time: SimTime::from_nanos([5, 1, 5, 3][i % 4]),
                src: [0, 3, 1][i % 3],
                seq: i as u64,
            })
            .collect();
        let mut forward = EventQueue::new();
        let mut reverse = EventQueue::new();
        for &k in &keys {
            forward.push_keyed(k, k);
        }
        for &k in keys.iter().rev() {
            reverse.push_keyed(k, k);
        }
        for _ in 0..keys.len() {
            assert_eq!(forward.pop().unwrap().payload, reverse.pop().unwrap().payload);
        }
    }

    #[test]
    fn pop_before_respects_horizon() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_nanos(10), "a");
        q.push(SimTime::from_nanos(20), "b");
        assert_eq!(q.pop_before(SimTime::from_nanos(20)).unwrap().payload, "a");
        assert!(q.pop_before(SimTime::from_nanos(20)).is_none());
        assert_eq!(q.pop_before(SimTime::from_nanos(21)).unwrap().payload, "b");
    }

    #[test]
    fn peek_matches_pop() {
        let mut q = EventQueue::new();
        assert_eq!(q.peek_time(), None);
        q.push(SimTime::from_secs(5), ());
        q.push(SimTime::from_secs(2), ());
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(2)));
        q.pop();
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(5)));
    }

    #[test]
    fn counters() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        q.push(SimTime::ZERO, ());
        q.push(SimTime::ZERO, ());
        assert_eq!(q.len(), 2);
        assert_eq!(q.scheduled_total(), 2);
        q.pop();
        assert_eq!(q.len(), 1);
        assert_eq!(q.scheduled_total(), 2);
    }

    #[test]
    fn slots_are_recycled() {
        let mut q = EventQueue::new();
        for round in 0..10u64 {
            for i in 0..8 {
                q.push(SimTime::from_nanos(round * 100 + i), i);
            }
            while q.pop().is_some() {}
        }
        assert_eq!(q.slots.len(), 8);
        assert!(q.is_empty());
    }
}
