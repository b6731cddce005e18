//! Property tests for the sorted-vector [`EventQueue`]: random
//! schedule/cancel/pop interleavings, driven by a seeded [`Rng`], must
//! produce pop sequences identical to the `BinaryHeap`+`HashMap`
//! reference model ([`BaselineQueue`]), and a token whose event already
//! fired or was cancelled must never cancel a later event.
//! `QUEUE_PROPS_CASES` sets the number of seeds per interleaving
//! profile (default: the pinned ones).

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

use lln_sim::{Duration, EventQueue, EventToken, Instant, Rng};

/// Token identifying an event in the reference model.
#[derive(Clone, Copy)]
struct BaselineToken(u64);

/// The original event queue, kept as the executable reference model: a `BinaryHeap` of `(time, seq)` keys plus the pending events
/// by sequence number, so cancellation is a map removal and cancelled
/// keys are skipped when they surface.
struct BaselineQueue<E> {
    heap: BinaryHeap<Reverse<(Instant, u64)>>,
    pending: HashMap<u64, E>,
    seq: u64,
    now: Instant,
}

impl<E> BaselineQueue<E> {
    fn new() -> Self {
        BaselineQueue {
            heap: BinaryHeap::new(),
            pending: HashMap::new(),
            seq: 0,
            now: Instant::ZERO,
        }
    }

    fn len(&self) -> usize {
        self.pending.len()
    }

    fn is_empty(&self) -> bool {
        self.pending.is_empty()
    }

    /// Schedules `event` at absolute time `at` (clamped to `now`).
    fn schedule(&mut self, at: Instant, event: E) -> BaselineToken {
        let at = at.max(self.now);
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Reverse((at, seq)));
        self.pending.insert(seq, event);
        BaselineToken(seq)
    }

    fn cancel(&mut self, token: BaselineToken) -> bool {
        self.pending.remove(&token.0).is_some()
    }

    fn pop(&mut self) -> Option<(Instant, E)> {
        while let Some(Reverse((time, seq))) = self.heap.pop() {
            if let Some(event) = self.pending.remove(&seq) {
                self.now = time;
                return Some((time, event));
            }
        }
        None
    }

    fn peek_time(&mut self) -> Option<Instant> {
        while let Some(&Reverse((time, seq))) = self.heap.peek() {
            if self.pending.contains_key(&seq) {
                return Some(time);
            }
            self.heap.pop();
        }
        None
    }
}

/// The pinned seeds, extended with seeds drawn from the first one up
/// to `QUEUE_PROPS_CASES` when that is set.
fn seeds(pinned: &[u64]) -> impl Iterator<Item = u64> + '_ {
    let cases = std::env::var("QUEUE_PROPS_CASES")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(pinned.len());
    let mut rng = Rng::new(pinned[0]);
    pinned
        .iter()
        .copied()
        .chain(std::iter::repeat_with(move || rng.next_u64()))
        .take(cases)
}

/// One randomized interleaving: schedule (with a mix of near, far, and
/// past times), cancel a random live token, or pop — mirrored on both
/// queues — then drain. Every pop must agree on `(time, payload)`.
/// With `far_timer_us`, every step first cancels and reschedules one
/// far timer that far ahead, as the transport timer is on every pump.
fn run_interleaving(seed: u64, ops: usize, horizon_us: u64, far_timer_us: Option<u64>) {
    let mut rng = Rng::new(seed);
    let mut queue: EventQueue<u64> = EventQueue::new();
    let mut model: BaselineQueue<u64> = BaselineQueue::new();
    let mut live: Vec<(EventToken, BaselineToken)> = Vec::new();
    let mut far: Option<(EventToken, BaselineToken)> = None;
    let mut next_payload = 0u64;

    let mut pops = 0usize;
    for _ in 0..ops {
        if let Some(far_us) = far_timer_us {
            if let Some((tq, tb)) = far {
                assert_eq!(
                    queue.cancel(tq),
                    model.cancel(tb),
                    "far cancel disagreement"
                );
            }
            let at = queue.now() + Duration::from_micros(far_us + rng.gen_range(far_us));
            let payload = next_payload;
            next_payload += 1;
            far = Some((queue.schedule(at, payload), model.schedule(at, payload)));
        }
        match rng.gen_range(10) {
            // 0..=5: schedule
            0..=5 => {
                let offset = rng.gen_range(horizon_us);
                let at = queue.now() + Duration::from_micros(offset);
                let payload = next_payload;
                next_payload += 1;
                let tq = queue.schedule(at, payload);
                let tb = model.schedule(at, payload);
                live.push((tq, tb));
            }
            // 6..=7: cancel a random outstanding token pair
            6..=7 => {
                if !live.is_empty() {
                    let i = rng.gen_range(live.len() as u64) as usize;
                    let (tq, tb) = live.swap_remove(i);
                    // Both must agree on whether the event was still
                    // pending (it may have been popped already).
                    assert_eq!(queue.cancel(tq), model.cancel(tb), "cancel disagreement");
                }
            }
            // 8..=9: pop
            _ => {
                let a = queue.pop();
                let b = model.pop();
                assert_eq!(a, b, "pop #{pops} diverged from reference model");
                pops += 1;
            }
        }
        assert_eq!(queue.len(), model.len(), "len diverged");
        assert_eq!(
            queue.peek_time(),
            model.peek_time(),
            "peek_time diverged after {pops} pops"
        );
    }
    // Drain both completely.
    loop {
        let a = queue.pop();
        let b = model.pop();
        assert_eq!(a, b, "drain diverged");
        if a.is_none() {
            break;
        }
    }
    assert!(queue.is_empty() && model.is_empty());
}

#[test]
fn interleavings_match_reference_model_near_horizon() {
    // All times within 250 ms: the MAC's backoffs, air times and ACK
    // waits.
    for seed in seeds(&[1, 42, 24001, 77003]) {
        run_interleaving(seed, 4_000, 250_000, None);
    }
}

#[test]
fn interleavings_match_reference_model_far_horizon() {
    // Times up to 10 s: retransmit and application timers.
    for seed in seeds(&[7, 99, 52001, 90017]) {
        run_interleaving(seed, 4_000, 10_000_000, None);
    }
}

#[test]
fn interleavings_match_reference_model_mixed_dense() {
    // 1 ms horizon: heavy same-time collisions, so the insertion-seq
    // tie-break does all the ordering work.
    for seed in seeds(&[3, 1234]) {
        run_interleaving(seed, 4_000, 1_000, None);
    }
}

#[test]
fn interleavings_match_reference_model_reschedule_heavy() {
    // Short timers beside a far timer rescheduled on every step, so
    // most cancels remove an entry far from the next one.
    for seed in seeds(&[11, 31337]) {
        run_interleaving(seed, 4_000, 5_000, Some(1_000_000));
    }
}

/// A steady population of `population` events, the shape of a running
/// world: every step cancels and reschedules one far timer (the
/// transport timer), then either fires the next event or cancels a
/// random live one, and schedules a replacement within `horizon_us`,
/// sometimes at exactly `now`. Every pop, cancel, `len` and `peek_time`
/// must agree with the reference model.
fn run_steady_population(seed: u64, steps: usize, population: usize, horizon_us: u64) {
    let mut rng = Rng::new(seed);
    let mut queue: EventQueue<u64> = EventQueue::new();
    let mut model: BaselineQueue<u64> = BaselineQueue::new();
    // (payload, tokens) of every live event except the far timer.
    let mut live: Vec<(u64, EventToken, BaselineToken)> = Vec::new();
    let mut far: Option<(u64, EventToken, BaselineToken)> = None;
    let mut next_payload = 0u64;
    let mut schedule = |queue: &mut EventQueue<u64>, model: &mut BaselineQueue<u64>, at| {
        let payload = next_payload;
        next_payload += 1;
        (
            payload,
            queue.schedule(at, payload),
            model.schedule(at, payload),
        )
    };
    let near = |rng: &mut Rng, now: Instant| match rng.gen_range(8) {
        0 => now,
        _ => now + Duration::from_micros(rng.gen_range(horizon_us)),
    };

    while live.len() + 1 < population {
        let at = near(&mut rng, queue.now());
        live.push(schedule(&mut queue, &mut model, at));
    }
    for step in 0..steps {
        if let Some((_, tq, tb)) = far.take() {
            assert_eq!(
                queue.cancel(tq),
                model.cancel(tb),
                "step {step}: far cancel"
            );
        }
        let at = queue.now() + Duration::from_micros(1_000_000 + rng.gen_range(500_000));
        far = Some(schedule(&mut queue, &mut model, at));

        if rng.gen_range(4) == 0 {
            let i = rng.gen_range(live.len() as u64) as usize;
            let (_, tq, tb) = live.swap_remove(i);
            assert!(queue.cancel(tq), "step {step}: live event not cancelled");
            assert!(model.cancel(tb));
        } else {
            let popped = queue.pop();
            assert_eq!(popped, model.pop(), "step {step}: pop diverged");
            let (_, payload) = popped.expect("population is never empty");
            if far.is_some_and(|(p, ..)| p == payload) {
                far = None;
            } else {
                live.retain(|&(p, ..)| p != payload);
            }
        }
        let at = near(&mut rng, queue.now());
        live.push(schedule(&mut queue, &mut model, at));

        assert_eq!(queue.len(), model.len(), "step {step}: len diverged");
        assert_eq!(queue.len(), live.len() + usize::from(far.is_some()));
        assert_eq!(queue.peek_time(), model.peek_time(), "step {step}: peek");
    }
    loop {
        let a = queue.pop();
        assert_eq!(a, model.pop(), "drain diverged");
        if a.is_none() {
            break;
        }
    }
}

#[test]
fn steady_population_matches_reference_model() {
    // About 32 live events, as a busy world keeps, with the transport
    // timer cancelled and rescheduled on every step.
    for seed in seeds(&[5, 2024]) {
        run_steady_population(seed, 4_000, 32, 50_000);
    }
}

#[test]
fn stale_tokens_never_cancel_newer_events() {
    // Churn the queue hard while holding on to every expired token. No
    // stale token may ever cancel (or otherwise perturb) a later event.
    let mut rng = Rng::new(0xFEED);
    let mut q: EventQueue<u64> = EventQueue::new();
    let mut dead_tokens: Vec<EventToken> = Vec::new();
    let mut live_tokens: std::collections::HashMap<u64, EventToken> = Default::default();
    let mut scheduled = 0u64;
    let mut popped = 0u64;
    let mut cancelled = 0u64;
    for round in 0..2_000 {
        let at = q.now() + Duration::from_micros(rng.gen_range(5_000));
        let payload = scheduled;
        let tok = q.schedule(at, payload);
        live_tokens.insert(payload, tok);
        scheduled += 1;
        if round % 3 == 0 {
            // Cancel immediately: the token goes stale at once.
            assert!(q.cancel(tok));
            cancelled += 1;
            live_tokens.remove(&payload);
            dead_tokens.push(tok);
        } else if round % 3 == 1 {
            // Popping kills whichever event was earliest — retire the
            // token that actually fired, not the one just scheduled.
            let (_, v) = q.pop().expect("event pending");
            popped += 1;
            dead_tokens.push(live_tokens.remove(&v).expect("popped event was live"));
        }
        // Replay every stale token: all must be rejected, and the live
        // count must not move.
        let len_before = q.len();
        for &t in &dead_tokens {
            assert!(!q.cancel(t), "stale token cancelled a live event");
        }
        assert_eq!(q.len(), len_before);
    }
    // Whatever is still live must drain intact: nothing was eaten by a
    // stale cancel.
    let mut drained = 0u64;
    while q.pop().is_some() {
        drained += 1;
    }
    assert_eq!(popped + cancelled + drained, scheduled);
}

#[test]
fn queue_matches_model_under_mac_like_load() {
    // Shape the op mix like the simulator's MAC layer: short timers
    // (CSMA backoffs, ACK waits) that are usually cancelled before
    // firing, over long-lived RTO timers that usually fire.
    let mut rng = Rng::new(8_675_309);
    let mut queue: EventQueue<(u8, u64)> = EventQueue::new();
    let mut model: BaselineQueue<(u8, u64)> = BaselineQueue::new();
    let mut ack_waits: Vec<(EventToken, BaselineToken)> = Vec::new();
    let mut n = 0u64;
    for _ in 0..3_000 {
        // Backoff/TX-done: fires within ~5 ms.
        let t1 = queue.now() + Duration::from_micros(rng.gen_range_inclusive(128, 4_999));
        queue.schedule(t1, (0, n));
        model.schedule(t1, (0, n));
        n += 1;
        // ACK wait: ~864 µs, cancelled 80% of the time (ACK arrived).
        let t2 = queue.now() + Duration::from_micros(864);
        let pair = (queue.schedule(t2, (1, n)), model.schedule(t2, (1, n)));
        n += 1;
        if rng.gen_range(10) < 8 {
            assert_eq!(queue.cancel(pair.0), model.cancel(pair.1));
        } else {
            ack_waits.push(pair);
        }
        // Occasional RTO, seconds out.
        if rng.gen_range(20) == 0 {
            let t3 = queue.now() + Duration::from_millis(rng.gen_range_inclusive(500, 3_999));
            queue.schedule(t3, (2, n));
            model.schedule(t3, (2, n));
            n += 1;
        }
        // Advance: pop a couple of events.
        for _ in 0..2 {
            assert_eq!(queue.pop(), model.pop());
        }
    }
    // Cancel the leftover ACK waits (some already fired).
    for (tq, tb) in ack_waits {
        assert_eq!(queue.cancel(tq), model.cancel(tb));
    }
    loop {
        let a = queue.pop();
        assert_eq!(a, model.pop());
        if a.is_none() {
            break;
        }
    }
}
