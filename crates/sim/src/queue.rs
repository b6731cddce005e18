//! A deterministic discrete-event queue: one binary heap over a slab.
//!
//! Events are ordered by `(time, insertion sequence)`: ties in simulated
//! time are broken by insertion order, which keeps runs reproducible
//! regardless of container internals. Events can be cancelled by token
//! in O(1).
//!
//! # Layout
//!
//! Event payloads live in a slab indexed by the 32-bit token index; the
//! heap holds small `Copy` keys. Cancellation marks the slab slot vacant
//! and bumps its **generation**, so a stale token (from a previous
//! occupant of the same slot) can never cancel a newer event, and no
//! per-event hash-set traffic exists anywhere.
//!
//! A cancelled key stays in the heap until it surfaces: after every
//! `cancel` and `pop`, cancelled keys are popped off the top, so the
//! top is always live and [`EventQueue::peek_time`] is read-only. A
//! timer that is cancelled and rescheduled on every step (the transport
//! timer) would still pile keys up beneath the top, so once the heap
//! holds more than `2 × live + 8` keys one `retain` pass drops every
//! cancelled key. The heap therefore stays within a small multiple of
//! the live population, and a warmed-up queue schedules without
//! allocating.
//!
//! The original `BinaryHeap`+`HashSet` implementation lives on only as
//! the reference model in `tests/queue_props.rs`, which checks this
//! queue's pop order against it.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::time::Instant;

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
/// the heap moves only these 24-byte `Copy` keys around.
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

/// One slab slot: either holds a live event or threads the free list.
enum Slot<E> {
    Occupied { gen: u32, event: E },
    Vacant { gen: u32, next_free: u32 },
}

/// True if `(idx, gen)` still names the event occupying its slab slot.
fn is_live<E>(slots: &[Slot<E>], idx: u32, gen: u32) -> bool {
    matches!(
        slots.get(idx as usize),
        Some(Slot::Occupied { gen: g, .. }) if *g == gen
    )
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
    /// Every live key plus cancelled keys not yet purged. Invariant
    /// (restored by [`Self::purge`] after every cancel and pop): the
    /// top is live whenever any event is, and the heap holds at most
    /// `2 × live + 8` keys.
    heap: BinaryHeap<Reverse<Key>>,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
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
            heap: BinaryHeap::new(),
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

    /// Schedules `event` at absolute time `at` (clamped to `now`).
    /// Returns a token that can later cancel the event.
    pub fn schedule(&mut self, at: Instant, event: E) -> EventToken {
        let at = if at < self.now { self.now } else { at };
        let seq = self.seq;
        self.seq += 1;
        let (idx, gen) = self.alloc(event);
        // A live key on top stays live, so no purge is needed here.
        self.heap.push(Reverse(Key {
            time: at,
            seq,
            idx,
            gen,
        }));
        self.live += 1;
        EventToken { idx, gen }
    }

    /// Cancels a previously scheduled event in O(1). Returns true if
    /// the event was still pending (not yet fired and not already
    /// cancelled). A stale token — one whose event already fired, was
    /// cancelled, or whose slot was since reused by a newer event —
    /// returns false and touches nothing.
    pub fn cancel(&mut self, token: EventToken) -> bool {
        if !is_live(&self.slots, token.idx, token.gen) {
            return false;
        }
        drop(self.release(token.idx));
        self.live -= 1;
        self.purge();
        true
    }

    /// Pops the next pending event, advancing `now`.
    pub fn pop(&mut self) -> Option<(Instant, E)> {
        // `purge` keeps the heap top live whenever live > 0.
        let Reverse(key) = self.heap.pop()?;
        debug_assert!(is_live(&self.slots, key.idx, key.gen));
        let event = self.release(key.idx);
        self.live -= 1;
        self.now = key.time;
        self.purge();
        Some((key.time, event))
    }

    /// Time of the next pending event, if any. Read-only: cancelled
    /// keys were already purged off the top when the mutation happened.
    pub fn peek_time(&self) -> Option<Instant> {
        self.heap.peek().map(|Reverse(k)| k.time)
    }

    /// Restores the heap invariant: drops every cancelled key once they
    /// outnumber the bound, then pops cancelled keys off the top.
    fn purge(&mut self) {
        if self.heap.len() > 2 * self.live + 8 {
            let slots = &self.slots;
            self.heap.retain(|Reverse(k)| is_live(slots, k.idx, k.gen));
        }
        while let Some(Reverse(k)) = self.heap.peek() {
            if is_live(&self.slots, k.idx, k.gen) {
                return;
            }
            self.heap.pop();
        }
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
    fn far_future_events_pop_in_order() {
        let mut q = EventQueue::new();
        // Hours apart.
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
    fn far_and_near_events_interleave_in_time_order() {
        let mut q = EventQueue::new();
        // One far event first, then nearer ones queued after it.
        q.schedule(Instant::from_secs(10), "far");
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
    fn dense_events_stay_seq_ordered() {
        let mut q = EventQueue::new();
        // All within one millisecond, many at the same time.
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

    #[test]
    fn rescheduled_far_timer_keeps_heap_bounded() {
        // The transport-timer pattern: a far timer cancelled and
        // rescheduled on every step, beside a standing population of
        // nearer events that fire and are replaced.
        let mut q = EventQueue::new();
        let mut next = 0u64;
        let mut sched = |q: &mut EventQueue<u64>, at: Instant| {
            next += 1;
            q.schedule(at, next - 1)
        };
        for k in 0..9u64 {
            sched(&mut q, Instant::from_millis(1 + k * 3));
        }
        let mut far = sched(&mut q, Instant::from_secs(60));
        for step in 0..100_000u64 {
            assert!(q.cancel(far));
            let at = q.now() + Duration::from_millis(1_000 + step % 500);
            far = sched(&mut q, at);
            if step % 4 == 0 {
                let (t, _) = q.pop().expect("ten events live");
                sched(&mut q, t + Duration::from_micros(2_000 + step % 7_000));
            }
            assert_eq!(q.len(), 10);
            assert!(
                q.heap.len() <= 2 * q.len() + 8,
                "step {step}: {} keys for {} live events",
                q.heap.len(),
                q.len()
            );
        }
        // Payloads are insertion sequence numbers, so the drain must be
        // strictly increasing in `(time, payload)`.
        let drained: Vec<(Instant, u64)> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(drained.len(), 10);
        assert!(drained.windows(2).all(|w| w[0] < w[1]));
    }
}
