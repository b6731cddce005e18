//! A deterministic discrete-event queue: one sorted vector.
//!
//! Events are ordered by `(time, insertion sequence)`: ties in simulated
//! time are broken by insertion order, which keeps runs reproducible
//! regardless of container internals.
//!
//! # Layout
//!
//! Entries `(time, seq, event)` sit in one `Vec` sorted in *descending*
//! key order, so the next event is at the back: [`EventQueue::pop`] is a
//! `Vec::pop` and [`EventQueue::peek_time`] reads the last entry.
//! [`EventQueue::cancel`] removes the entry at once, so cancelled events
//! never linger in storage and the vector always holds exactly the live
//! events.
//!
//! # Searching from the pop end
//!
//! [`EventQueue::schedule`] finds its slot by walking from the back
//! past every entry due at or before the new one (a fresh seq is larger
//! than every stored one, so time alone decides the slot), and
//! [`EventQueue::cancel`] finds the token's key with `rposition`. Both
//! land on the index a binary search would give, so the pop order is
//! the same. A simulator's new events are mostly near timers due before
//! nearly everything pending, and the timers it cancels are mostly the
//! next ones due. Counted on 1 s runs of the four benchmark worlds (an
//! instrumented build, distance 0 = the back slot):
//!
//! | world | inserts within 2 of the back | mean / max insert distance | cancels at the back |
//! |---|---|---|---|
//! | `bulk-1hop` | 100 % | 0.24 / 3 | 85 % |
//! | `chain-3hop` | 98.6 % | 0.51 / 5 | 83 % |
//! | `anemometer-tree` | 93.9 % | 0.69 / 18 | 75 % |
//! | `syn-frag-flood` | 89.5 % | 0.92 / 7 | 54 % |
//!
//! So a search mostly costs a compare or two. The walk is
//! O(distance from the back), the same order as the `Vec::insert` or
//! `Vec::remove` shift that follows it. Only a stale token's cancel
//! walks the whole vector without shifting; the worlds make at most a
//! few hundred of those per million cancels. A world keeps at most a few dozen events pending,
//! where this beats a heap; the `sim/event_queue_steady_*_live` and
//! `sim/event_queue_schedule_pop_1k` microbenches show where a heap
//! would win instead.
//!
//! The original `BinaryHeap`+`HashSet` implementation lives on only as
//! the reference model in `tests/queue_props.rs`, which checks this
//! queue's pop order against it.

use crate::time::Instant;

/// Token identifying a scheduled event, usable for cancellation.
///
/// A token is the event's `(time, insertion seq)` key. No two events
/// ever share a key, so once the event fires or is cancelled the token
/// matches nothing and cancelling it is a no-op. The derived `Ord`
/// compares `time`, then `seq`: the pop order.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct EventToken {
    time: Instant,
    seq: u64,
}

/// One pending event and its ordering key.
struct Entry<E> {
    key: EventToken,
    event: E,
}

/// A monotonic event queue: events may only be scheduled at or after the
/// time of the most recently popped event.
pub struct EventQueue<E> {
    /// Pending events, sorted by descending key: the next is last.
    entries: Vec<Entry<E>>,
    seq: u64,
    now: Instant,
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
            entries: Vec::new(),
            seq: 0,
            now: Instant::ZERO,
        }
    }

    /// Current simulated time (time of the last popped event).
    pub fn now(&self) -> Instant {
        self.now
    }

    /// Number of pending (non-cancelled) events.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Schedules `event` at absolute time `at` (clamped to `now`).
    /// Returns a token that can later cancel the event.
    pub fn schedule(&mut self, at: Instant, event: E) -> EventToken {
        let key = EventToken {
            time: at.max(self.now),
            seq: self.seq,
        };
        self.seq += 1;
        // Every stored seq is smaller, so the new entry goes after all
        // entries due later and before all due at the same time or
        // earlier. New events are mostly near, so walk from the back.
        let mut i = self.entries.len();
        while i > 0 && self.entries[i - 1].key.time <= key.time {
            i -= 1;
        }
        self.entries.insert(i, Entry { key, event });
        key
    }

    /// Cancels a previously scheduled event. Returns true if the event
    /// was still pending (not yet fired and not already cancelled). A
    /// stale token returns false and touches nothing.
    pub fn cancel(&mut self, token: EventToken) -> bool {
        match self.entries.iter().rposition(|e| e.key == token) {
            Some(i) => {
                self.entries.remove(i);
                true
            }
            None => false,
        }
    }

    /// Pops the next pending event, advancing `now`.
    pub fn pop(&mut self) -> Option<(Instant, E)> {
        let Entry { key, event } = self.entries.pop()?;
        self.now = key.time;
        Some((key.time, event))
    }

    /// Time of the next pending event, if any.
    pub fn peek_time(&self) -> Option<Instant> {
        self.entries.last().map(|e| e.key.time)
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
    fn stale_token_cannot_cancel_later_event() {
        let mut q = EventQueue::new();
        let old = q.schedule(Instant::from_millis(1), "a");
        assert_eq!(q.pop().unwrap().1, "a");
        q.schedule(Instant::from_millis(2), "b");
        assert!(!q.cancel(old), "stale token must not cancel a later event");
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop().unwrap().1, "b");
    }

    #[test]
    fn stale_token_after_cancel_cannot_cancel_later_event() {
        let mut q = EventQueue::new();
        let old = q.schedule(Instant::from_millis(1), "a");
        assert!(q.cancel(old));
        q.schedule(Instant::from_millis(2), "b");
        assert!(!q.cancel(old));
        assert_eq!(q.pop().unwrap().1, "b");
    }

    #[test]
    fn fired_token_cannot_cancel_later_event_at_same_time() {
        let mut q = EventQueue::new();
        let t = Instant::from_millis(4);
        let fired = q.schedule(t, "a");
        assert_eq!(q.pop(), Some((t, "a")));
        // `now == t`, so both of these land at exactly `t` again.
        q.schedule(t, "b");
        q.schedule(Instant::ZERO, "c");
        assert!(!q.cancel(fired), "fired token matched a same-time event");
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop(), Some((t, "b")));
        assert_eq!(q.pop(), Some((t, "c")));
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

    /// The stored keys' insertion sequence numbers, front to back.
    fn seqs<E>(q: &EventQueue<E>) -> Vec<u64> {
        q.entries.iter().map(|e| e.key.seq).collect()
    }

    #[test]
    fn same_time_insert_walks_a_full_run_to_the_front() {
        let mut q = EventQueue::new();
        let t = Instant::from_millis(7);
        for k in 0..6 {
            q.schedule(t, k);
        }
        // Every stored entry is due at `t`, so the walk passes them all
        // and the newest lands at index 0, to pop last.
        q.schedule(t, 6);
        assert_eq!(seqs(&q), [6, 5, 4, 3, 2, 1, 0]);
        // An earlier event stops the walk at once: it lands at the back.
        q.schedule(Instant::from_millis(3), 7);
        assert_eq!(seqs(&q), [6, 5, 4, 3, 2, 1, 0, 7]);
        let order: Vec<u32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, [7, 0, 1, 2, 3, 4, 5, 6]);
    }

    #[test]
    fn far_insert_lands_at_the_front() {
        let mut q = EventQueue::new();
        for ms in [40, 10, 30, 20] {
            q.schedule(Instant::from_millis(ms), ms);
        }
        q.schedule(Instant::from_secs(3600), 0);
        assert_eq!(seqs(&q), [4, 0, 2, 3, 1]);
        assert_eq!(q.peek_time(), Some(Instant::from_millis(10)));
        let order: Vec<u64> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, [10, 20, 30, 40, 0]);
    }

    #[test]
    fn cancel_front_middle_and_back_of_a_same_time_run() {
        let mut q = EventQueue::new();
        let t = Instant::from_millis(9);
        q.schedule(Instant::from_millis(20), 100);
        let toks: Vec<EventToken> = (0..5).map(|k| q.schedule(t, k)).collect();
        q.schedule(Instant::from_millis(2), 200);
        // Back to front: 200, then the run 0..5, then 100.
        assert_eq!(seqs(&q), [0, 5, 4, 3, 2, 1, 6]);
        // The run's back (next to pop), middle and front entries.
        for (tok, left) in [
            (toks[0], vec![0, 5, 4, 3, 2, 6]),
            (toks[2], vec![0, 5, 4, 2, 6]),
            (toks[4], vec![0, 4, 2, 6]),
        ] {
            assert!(q.cancel(tok));
            assert!(!q.cancel(tok), "a cancelled key matches nothing");
            assert_eq!(seqs(&q), left);
        }
        let order: Vec<u32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, [200, 1, 3, 100]);
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
    fn rescheduled_far_timer_keeps_storage_at_len() {
        // The transport-timer pattern: a far timer cancelled and
        // rescheduled on every step, beside a standing population of
        // nearer events that fire and are replaced. A cancelled event
        // leaves storage at once, so storage holds exactly the ten live
        // events after every call and never regrows once warm.
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
        let cap = q.entries.capacity();
        let check = |q: &EventQueue<u64>, live: usize, step: u64| {
            assert_eq!(q.len(), live, "step {step}");
            assert_eq!(q.entries.len(), live, "step {step}: stale entries kept");
            assert_eq!(q.entries.capacity(), cap, "step {step}: storage regrew");
        };
        for step in 0..100_000u64 {
            assert!(q.cancel(far));
            check(&q, 9, step);
            let at = q.now() + Duration::from_millis(1_000 + step % 500);
            far = sched(&mut q, at);
            check(&q, 10, step);
            if step % 4 == 0 {
                let (t, _) = q.pop().expect("ten events live");
                check(&q, 9, step);
                sched(&mut q, t + Duration::from_micros(2_000 + step % 7_000));
                check(&q, 10, step);
            }
        }
        // Payloads are insertion sequence numbers, so the drain must be
        // strictly increasing in `(time, payload)`.
        let drained: Vec<(Instant, u64)> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(drained.len(), 10);
        assert!(drained.windows(2).all(|w| w[0] < w[1]));
    }
}
