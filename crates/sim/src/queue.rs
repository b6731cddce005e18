//! A deterministic discrete-event queue on a hierarchical timer wheel.
//!
//! Events are ordered by `(time, insertion sequence)`: ties in simulated
//! time are broken by insertion order, which keeps runs reproducible
//! regardless of container internals. Events can be cancelled by token
//! in O(1).
//!
//! # Layout
//!
//! The queue is the simulator's hottest structure (every MAC backoff,
//! frame air time, ACK wait, and TCP timer passes through it), so it is
//! built as a three-level hierarchy instead of one big binary heap:
//!
//! - **current run** — a small binary heap keyed `(time, seq)` holding
//!   only the events of the bucket being drained (plus anything newly
//!   scheduled at or before it). `pop` and `peek_time` touch only this.
//! - **near wheel** — [`WHEEL_SLOTS`] buckets of [`GRANULARITY`]
//!   microseconds each (~262 ms horizon). Scheduling into the wheel is
//!   O(1): push onto the bucket's unsorted list. A bucket is sorted
//!   (heapified) only when the cursor reaches it. The bucket lists are
//!   threaded through one shared node pool, so the wheel's storage
//!   grows only when the whole wheel holds more keys than ever before —
//!   not each time one bucket sees a new peak — and a warmed-up queue
//!   schedules without allocating.
//! - **overflow heap** — events beyond the wheel horizon (TCP
//!   retransmit timers, application ticks). They are touched twice —
//!   once on insert, once when their bucket becomes due — instead of
//!   filtering through every intermediate heap operation.
//!
//! Event payloads live in a slab indexed by the 32-bit token index;
//! wheel/heap entries are small `Copy` keys. Cancellation marks the
//! slab slot vacant and bumps its **generation**, so a stale token
//! (from a previous occupant of the same slot) can never cancel a newer
//! event, and no per-event hash-set traffic exists anywhere. Cancelled
//! keys are purged lazily when the draining run reaches them.
//!
//! The original `BinaryHeap`+`HashSet` implementation lives on only as
//! the reference model in `tests/queue_props.rs`, which checks the
//! wheel's pop order against it.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::time::Instant;

/// Bucket width in microseconds, as a shift (2^10 = 1.024 ms).
const GRANULARITY_SHIFT: u32 = 10;
/// Near-wheel size; must be a power of two. Horizon = slots × 2^shift.
const WHEEL_SLOTS: usize = 256;
const SLOT_MASK: u64 = WHEEL_SLOTS as u64 - 1;
const NO_SLOT: u32 = u32::MAX;

/// Token identifying a scheduled event, usable for cancellation.
///
/// Tokens are generation-tagged: after the event fires or is
/// cancelled, the token goes stale and can never affect a later event
/// that happens to reuse the same internal slot.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct EventToken {
    idx: u32,
    gen: u32,
}

/// Ordering key for one scheduled event. Payloads stay in the slab;
/// every container moves only these 24-byte `Copy` keys around.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
struct Key {
    time: Instant,
    seq: u64,
    idx: u32,
    gen: u32,
}

impl PartialOrd for Key {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Key {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time, self.seq).cmp(&(other.time, other.seq))
    }
}

/// One key in a near-wheel bucket list (or, when free, in the node
/// pool's free list).
#[derive(Clone, Copy)]
struct WheelNode {
    key: Key,
    next: u32,
}

/// One slab slot: either holds a live event or threads the free list.
enum Slot<E> {
    Occupied { gen: u32, event: E },
    Vacant { gen: u32, next_free: u32 },
}

/// A monotonic event queue: events may only be scheduled at or after the
/// time of the most recently popped event.
pub struct EventQueue<E> {
    slots: Vec<Slot<E>>,
    free_head: u32,
    /// Live (scheduled, not yet fired or cancelled) event count.
    live: usize,
    seq: u64,
    now: Instant,
    /// Absolute index of the bucket currently being drained. All keys
    /// in `cur` have bucket ≤ cursor; all wheel keys have bucket in
    /// `(cursor, cursor + WHEEL_SLOTS)`; overflow keys lie beyond.
    cursor: u64,
    /// The draining run: a heap over the due bucket's keys. Invariant
    /// (restored by [`Self::fixup`] after every mutation): when any
    /// live event exists, the heap top is the earliest live event.
    cur: BinaryHeap<Reverse<Key>>,
    /// Head node of each wheel slot's key list (`NO_SLOT` when empty).
    wheel_heads: [u32; WHEEL_SLOTS],
    /// Node pool every wheel list is threaded through.
    wheel_nodes: Vec<WheelNode>,
    /// Head of the pool's free list.
    wheel_free: u32,
    /// One bit per wheel slot with at least one key.
    occupied: [u64; WHEEL_SLOTS / 64],
    wheel_len: usize,
    overflow: BinaryHeap<Reverse<Key>>,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

const fn bucket_of(t: Instant) -> u64 {
    t.as_micros() >> GRANULARITY_SHIFT
}

impl<E> EventQueue<E> {
    /// Creates an empty queue with `now == Instant::ZERO`.
    pub fn new() -> Self {
        EventQueue {
            slots: Vec::new(),
            free_head: NO_SLOT,
            live: 0,
            seq: 0,
            now: Instant::ZERO,
            cursor: 0,
            cur: BinaryHeap::new(),
            wheel_heads: [NO_SLOT; WHEEL_SLOTS],
            wheel_nodes: Vec::new(),
            wheel_free: NO_SLOT,
            occupied: [0; WHEEL_SLOTS / 64],
            wheel_len: 0,
            overflow: BinaryHeap::new(),
        }
    }

    /// Current simulated time (time of the last popped event).
    pub fn now(&self) -> Instant {
        self.now
    }

    /// Number of pending (non-cancelled) events.
    pub fn len(&self) -> usize {
        self.live
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    fn alloc(&mut self, event: E) -> (u32, u32) {
        if self.free_head != NO_SLOT {
            let idx = self.free_head;
            let slot = &mut self.slots[idx as usize];
            let gen = match *slot {
                Slot::Vacant { gen, next_free } => {
                    self.free_head = next_free;
                    gen
                }
                Slot::Occupied { .. } => unreachable!("free list points at live slot"),
            };
            *slot = Slot::Occupied { gen, event };
            (idx, gen)
        } else {
            let idx = u32::try_from(self.slots.len()).expect("event slab exhausted");
            self.slots.push(Slot::Occupied { gen: 0, event });
            (idx, 0)
        }
    }

    /// Vacates `idx`, bumping its generation, and returns the event.
    fn release(&mut self, idx: u32) -> E {
        let slot = &mut self.slots[idx as usize];
        let gen = match slot {
            Slot::Occupied { gen, .. } => gen.wrapping_add(1),
            Slot::Vacant { .. } => unreachable!("releasing vacant slot"),
        };
        let prev = std::mem::replace(
            slot,
            Slot::Vacant {
                gen,
                next_free: self.free_head,
            },
        );
        self.free_head = idx;
        match prev {
            Slot::Occupied { event, .. } => event,
            Slot::Vacant { .. } => unreachable!(),
        }
    }

    fn is_live(&self, key: &Key) -> bool {
        matches!(
            self.slots.get(key.idx as usize),
            Some(Slot::Occupied { gen, .. }) if *gen == key.gen
        )
    }

    /// Schedules `event` at absolute time `at` (clamped to `now`).
    /// Returns a token that can later cancel the event.
    pub fn schedule(&mut self, at: Instant, event: E) -> EventToken {
        let at = if at < self.now { self.now } else { at };
        let seq = self.seq;
        self.seq += 1;
        let (idx, gen) = self.alloc(event);
        let key = Key {
            time: at,
            seq,
            idx,
            gen,
        };
        let b = bucket_of(at);
        if b <= self.cursor {
            self.cur.push(Reverse(key));
        } else if b - self.cursor < WHEEL_SLOTS as u64 {
            let s = (b & SLOT_MASK) as usize;
            let node = WheelNode {
                key,
                next: self.wheel_heads[s],
            };
            self.wheel_heads[s] = if self.wheel_free == NO_SLOT {
                self.wheel_nodes.push(node);
                (self.wheel_nodes.len() - 1) as u32
            } else {
                let n = self.wheel_free;
                self.wheel_free = self.wheel_nodes[n as usize].next;
                self.wheel_nodes[n as usize] = node;
                n
            };
            self.occupied[s >> 6] |= 1 << (s & 63);
            self.wheel_len += 1;
        } else {
            self.overflow.push(Reverse(key));
        }
        self.live += 1;
        self.fixup();
        EventToken { idx, gen }
    }

    /// Cancels a previously scheduled event in O(1). Returns true if
    /// the event was still pending (not yet fired and not already
    /// cancelled). A stale token — one whose event already fired, was
    /// cancelled, or whose slot was since reused by a newer event —
    /// returns false and touches nothing.
    pub fn cancel(&mut self, token: EventToken) -> bool {
        let live = matches!(
            self.slots.get(token.idx as usize),
            Some(Slot::Occupied { gen, .. }) if *gen == token.gen
        );
        if !live {
            return false;
        }
        drop(self.release(token.idx));
        self.live -= 1;
        self.fixup();
        true
    }

    /// Pops the next pending event, advancing `now`.
    pub fn pop(&mut self) -> Option<(Instant, E)> {
        // `fixup` keeps the heap top live whenever live > 0.
        let Reverse(key) = self.cur.pop()?;
        debug_assert!(matches!(
            self.slots.get(key.idx as usize),
            Some(Slot::Occupied { gen, .. }) if *gen == key.gen
        ));
        let event = self.release(key.idx);
        self.live -= 1;
        self.now = key.time;
        self.fixup();
        Some((key.time, event))
    }

    /// Time of the next pending event, if any. Read-only: cancelled
    /// entries were already purged when the mutation happened.
    pub fn peek_time(&self) -> Option<Instant> {
        self.cur.peek().map(|Reverse(k)| k.time)
    }

    /// Restores the invariant that `cur`'s top is the earliest live
    /// event: purges cancelled keys off the top of the run, and when
    /// the run empties, advances the cursor to the next occupied
    /// bucket (wheel or overflow) and loads it. Amortized O(1) per
    /// event over a run's lifetime.
    fn fixup(&mut self) {
        loop {
            while let Some(Reverse(k)) = self.cur.peek() {
                if self.is_live(k) {
                    return;
                }
                self.cur.pop();
            }
            let next_wheel = self.next_occupied_bucket();
            let next_over = self.overflow.peek().map(|Reverse(k)| bucket_of(k.time));
            let target = match (next_wheel, next_over) {
                (Some(a), Some(b)) => a.min(b),
                (Some(a), None) => a,
                (None, Some(b)) => b,
                (None, None) => return,
            };
            if next_wheel == Some(target) {
                let s = (target & SLOT_MASK) as usize;
                self.occupied[s >> 6] &= !(1 << (s & 63));
                // Move the bucket's keys into the run (the heap orders
                // them, so list order is irrelevant) and free the nodes.
                let mut n = std::mem::replace(&mut self.wheel_heads[s], NO_SLOT);
                while n != NO_SLOT {
                    let node = self.wheel_nodes[n as usize];
                    self.cur.push(Reverse(node.key));
                    self.wheel_nodes[n as usize].next = self.wheel_free;
                    self.wheel_free = n;
                    self.wheel_len -= 1;
                    n = node.next;
                }
            }
            while let Some(Reverse(k)) = self.overflow.peek() {
                if bucket_of(k.time) != target {
                    break;
                }
                let Reverse(k) = self.overflow.pop().expect("peeked");
                self.cur.push(Reverse(k));
            }
            self.cursor = target;
        }
    }

    /// Absolute index of the first occupied wheel bucket after the
    /// cursor, scanning the occupancy bitmap a word at a time.
    fn next_occupied_bucket(&self) -> Option<u64> {
        if self.wheel_len == 0 {
            return None;
        }
        let base = (self.cursor & SLOT_MASK) as usize;
        let mut s = (base + 1) & (WHEEL_SLOTS - 1);
        let mut remaining = WHEEL_SLOTS - 1;
        while remaining > 0 {
            let word = s >> 6;
            let bit = s & 63;
            let take = (64 - bit).min(remaining);
            let mut chunk = self.occupied[word] >> bit;
            if take < 64 {
                chunk &= (1u64 << take) - 1;
            }
            if chunk != 0 {
                let slot = s + chunk.trailing_zeros() as usize;
                let dist = ((slot as u64).wrapping_sub(base as u64) & SLOT_MASK).max(1);
                return Some(self.cursor + dist);
            }
            s = (s + take) & (WHEEL_SLOTS - 1);
            remaining -= take;
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::Duration;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(Instant::from_millis(30), "c");
        q.schedule(Instant::from_millis(10), "a");
        q.schedule(Instant::from_millis(20), "b");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, ["a", "b", "c"]);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        let t = Instant::from_millis(5);
        for name in ["first", "second", "third"] {
            q.schedule(t, name);
        }
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, ["first", "second", "third"]);
    }

    #[test]
    fn now_advances_with_pops() {
        let mut q = EventQueue::new();
        q.schedule(Instant::from_secs(2), ());
        assert_eq!(q.now(), Instant::ZERO);
        q.pop();
        assert_eq!(q.now(), Instant::from_secs(2));
    }

    #[test]
    fn past_events_clamp_to_now() {
        let mut q = EventQueue::new();
        q.schedule(Instant::from_secs(1), 1);
        q.pop();
        // Scheduling in the past is clamped to now rather than rewinding.
        q.schedule(Instant::ZERO, 2);
        let (t, e) = q.pop().unwrap();
        assert_eq!(e, 2);
        assert_eq!(t, Instant::from_secs(1));
    }

    #[test]
    fn cancel_removes_event() {
        let mut q = EventQueue::new();
        let tok = q.schedule(Instant::from_millis(1), "x");
        q.schedule(Instant::from_millis(2), "y");
        assert!(q.cancel(tok));
        assert!(!q.cancel(tok), "double-cancel must return false");
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop().unwrap().1, "y");
        assert!(q.pop().is_none());
    }

    #[test]
    fn peek_time_skips_cancelled() {
        let mut q = EventQueue::new();
        let tok = q.schedule(Instant::from_millis(1), "x");
        q.schedule(Instant::from_millis(5), "y");
        q.cancel(tok);
        assert_eq!(q.peek_time(), Some(Instant::from_millis(5)));
    }

    #[test]
    fn peek_time_is_read_only() {
        let mut q = EventQueue::new();
        q.schedule(Instant::from_millis(3), "x");
        let r: &EventQueue<&str> = &q;
        assert_eq!(r.peek_time(), Some(Instant::from_millis(3)));
    }

    #[test]
    fn len_tracks_live_events() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        let a = q.schedule(Instant::from_millis(1), 1);
        q.schedule(Instant::from_millis(2), 2);
        assert_eq!(q.len(), 2);
        q.cancel(a);
        assert_eq!(q.len(), 1);
        q.pop();
        assert!(q.is_empty());
    }

    #[test]
    fn interleaved_schedule_and_pop() {
        let mut q = EventQueue::new();
        q.schedule(Instant::from_millis(10), 1u32);
        let (t, v) = q.pop().unwrap();
        assert_eq!((t, v), (Instant::from_millis(10), 1));
        q.schedule(t + Duration::from_millis(5), 2);
        q.schedule(t + Duration::from_millis(1), 3);
        assert_eq!(q.pop().unwrap().1, 3);
        assert_eq!(q.pop().unwrap().1, 2);
    }

    #[test]
    fn far_future_events_route_through_overflow() {
        let mut q = EventQueue::new();
        // Far beyond the wheel horizon (~262 ms): hours apart.
        q.schedule(Instant::from_secs(7200), "late");
        q.schedule(Instant::from_secs(3600), "mid");
        q.schedule(Instant::from_millis(1), "soon");
        assert_eq!(q.peek_time(), Some(Instant::from_millis(1)));
        assert_eq!(q.pop().unwrap().1, "soon");
        assert_eq!(q.pop().unwrap().1, "mid");
        assert_eq!(q.pop().unwrap().1, "late");
        assert!(q.pop().is_none());
    }

    #[test]
    fn overflow_and_wheel_interleave_in_time_order() {
        let mut q = EventQueue::new();
        // One far event first, so it parks in overflow…
        q.schedule(Instant::from_secs(10), "far");
        // …then nearer events landing in wheel buckets after the far
        // event was already queued.
        q.schedule(Instant::from_millis(100), "near");
        q.schedule(Instant::from_secs(9), "far-but-earlier");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, ["near", "far-but-earlier", "far"]);
    }

    #[test]
    fn stale_token_cannot_cancel_slot_reuser() {
        let mut q = EventQueue::new();
        let old = q.schedule(Instant::from_millis(1), "a");
        assert_eq!(q.pop().unwrap().1, "a");
        // The new event reuses the slab slot the popped one vacated.
        q.schedule(Instant::from_millis(2), "b");
        assert!(!q.cancel(old), "stale token must not cancel the reuser");
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop().unwrap().1, "b");
    }

    #[test]
    fn stale_token_after_cancel_cannot_cancel_reuser() {
        let mut q = EventQueue::new();
        let old = q.schedule(Instant::from_millis(1), "a");
        assert!(q.cancel(old));
        q.schedule(Instant::from_millis(2), "b");
        assert!(!q.cancel(old));
        assert_eq!(q.pop().unwrap().1, "b");
    }

    #[test]
    fn dense_same_bucket_events_stay_seq_ordered() {
        let mut q = EventQueue::new();
        // All land in the same 1.024 ms bucket at distinct times.
        for k in 0..50u64 {
            q.schedule(Instant::from_micros(500 + (k * 7) % 400), k);
        }
        let mut last = (Instant::ZERO, 0u64);
        let mut prev_seq_at_time: Option<u64> = None;
        let mut count = 0;
        while let Some((t, v)) = q.pop() {
            assert!(t >= last.0, "time must not go backwards");
            if t == last.0 {
                assert!(v > prev_seq_at_time.unwrap_or(0) || count == 0);
            }
            last = (t, v);
            prev_seq_at_time = Some(v);
            count += 1;
        }
        assert_eq!(count, 50);
    }

    #[test]
    fn cancelling_sole_event_then_scheduling_far_works() {
        let mut q = EventQueue::new();
        let tok = q.schedule(Instant::from_millis(5), 1);
        q.cancel(tok);
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        q.schedule(Instant::from_secs(100), 2);
        assert_eq!(q.peek_time(), Some(Instant::from_secs(100)));
        assert_eq!(q.pop().unwrap().1, 2);
    }
}
