//! Forwarding-queue disciplines.
//!
//! The paper's Appendix A finds that two competing TCP flows with larger
//! windows share a relay's queue unfairly under FIFO tail-drop, and that
//! Random Early Detection (RED, Floyd & Jacobson 1993) combined with ECN
//! marking restores fairness and keeps RTTs near 1 s. Both disciplines
//! are implemented here, parameterised the classic way.

use crate::ipv6::Ecn;

/// What the queue did with an offered packet.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum QueueOutcome {
    /// Packet accepted unchanged.
    Enqueued,
    /// Packet accepted and its ECN codepoint set to CE (RED + ECT).
    EnqueuedMarked,
    /// Packet dropped (tail drop or RED early drop).
    Dropped,
}

/// A bounded FIFO with tail-drop. `T` is the queued packet type.
///
/// Besides the packet-count bound, an optional byte bound
/// ([`FifoQueue::with_byte_bound`]) caps the *weighed* size of the
/// queue: each packet is offered with a byte weight and the running
/// total never exceeds the bound — overload hardening for queues that
/// must fit a fixed memory budget (a node's IP queue, MAC control queue
/// and per-child indirect queues).
#[derive(Clone, Debug)]
pub struct FifoQueue<T> {
    items: std::collections::VecDeque<(T, usize)>,
    capacity: usize,
    max_bytes: usize,
    bytes: usize,
    drops: u64,
}

impl<T> FifoQueue<T> {
    /// Creates a queue bounded at `capacity` packets (bytes unbounded).
    pub fn new(capacity: usize) -> Self {
        Self::with_byte_bound(capacity, usize::MAX)
    }

    /// Creates a queue bounded at `capacity` packets AND `max_bytes`
    /// weighed bytes, whichever binds first.
    pub fn with_byte_bound(capacity: usize, max_bytes: usize) -> Self {
        assert!(capacity > 0);
        FifoQueue {
            items: std::collections::VecDeque::new(),
            capacity,
            max_bytes,
            bytes: 0,
            drops: 0,
        }
    }

    /// Offers a packet with byte weight 0; tail-drops when full.
    pub fn offer(&mut self, item: T) -> QueueOutcome {
        self.offer_weighed(item, 0)
    }

    /// Offers a packet charging `weight` bytes against the byte bound;
    /// tail-drops (and counts) when either bound would be exceeded.
    pub fn offer_weighed(&mut self, item: T, weight: usize) -> QueueOutcome {
        if self.items.len() >= self.capacity || self.bytes.saturating_add(weight) > self.max_bytes
        {
            self.drops += 1;
            QueueOutcome::Dropped
        } else {
            self.bytes += weight;
            self.items.push_back((item, weight));
            QueueOutcome::Enqueued
        }
    }

    /// Removes the packet at the head.
    pub fn pop(&mut self) -> Option<T> {
        let (item, w) = self.items.pop_front()?;
        self.bytes -= w;
        Some(item)
    }

    /// Current queue depth.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Weighed bytes currently queued.
    pub fn bytes(&self) -> usize {
        self.bytes
    }

    /// Total tail-drops so far.
    pub fn drops(&self) -> u64 {
        self.drops
    }

    /// Drops every queued packet (reboot path); the drop count stays.
    pub fn clear(&mut self) {
        self.items.clear();
        self.bytes = 0;
    }

    /// Iterate queued items front to back.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.items.iter().map(|(item, _)| item)
    }
}

/// RED parameters.
#[derive(Clone, Copy, Debug)]
pub struct RedConfig {
    /// Minimum average-queue threshold (packets) below which nothing happens.
    pub min_th: f64,
    /// Maximum threshold; above this everything is marked/dropped.
    pub max_th: f64,
    /// Mark/drop probability at `max_th`.
    pub max_p: f64,
    /// EWMA weight for the average queue size.
    pub weight: f64,
    /// Hard capacity (packets).
    pub capacity: usize,
    /// When true, ECN-capable packets are CE-marked instead of dropped.
    pub ecn: bool,
}

impl Default for RedConfig {
    fn default() -> Self {
        // Tuned for the paper's relay queues: a handful of multi-frame
        // packets is already a deep queue at 802.15.4 speeds.
        RedConfig {
            min_th: 2.0,
            max_th: 6.0,
            max_p: 0.2,
            weight: 0.25,
            capacity: 8,
            ecn: true,
        }
    }
}

/// A RED queue with optional ECN marking.
///
/// The caller supplies a uniform random draw in `[0,1)` per offer so the
/// discipline itself stays deterministic and testable.
#[derive(Clone, Debug)]
pub struct RedQueue<T> {
    fifo: FifoQueue<T>,
    cfg: RedConfig,
    avg: f64,
    count_since_mark: i64,
    early_drops: u64,
    marks: u64,
}

impl<T> RedQueue<T> {
    /// Creates a RED queue from `cfg`.
    pub fn new(cfg: RedConfig) -> Self {
        RedQueue {
            fifo: FifoQueue::new(cfg.capacity),
            cfg,
            avg: 0.0,
            count_since_mark: -1,
            early_drops: 0,
            marks: 0,
        }
    }

    /// Offers a packet. `ecn` is the packet's codepoint; `rand01` a
    /// uniform draw. On `EnqueuedMarked` the stored packet has been
    /// CE-marked via [`Self::offer_with`]'s callback (this plain
    /// `offer` stores it unmodified — callers that carry the codepoint
    /// inside the packet should use `offer_with`).
    pub fn offer(&mut self, item: T, ecn: Ecn, rand01: f64) -> QueueOutcome {
        self.offer_with(item, ecn, rand01, |_| {})
    }

    /// Like [`Self::offer`], but applies `mark` to the packet before
    /// storing it when RED decides to CE-mark.
    pub fn offer_with(
        &mut self,
        mut item: T,
        ecn: Ecn,
        rand01: f64,
        mark: impl FnOnce(&mut T),
    ) -> QueueOutcome {
        // EWMA update (instantaneous sample; idle decay is negligible at
        // the event rates of an LLN relay and omitted for determinism).
        self.avg = (1.0 - self.cfg.weight) * self.avg + self.cfg.weight * self.fifo.len() as f64;

        if self.fifo.len() >= self.cfg.capacity {
            self.early_drops += 1;
            return QueueOutcome::Dropped;
        }

        let congested = if self.avg >= self.cfg.max_th {
            true
        } else if self.avg >= self.cfg.min_th {
            // Linear probability ramp, with the classic count correction
            // that spaces marks out evenly.
            let pb = self.cfg.max_p * (self.avg - self.cfg.min_th)
                / (self.cfg.max_th - self.cfg.min_th);
            self.count_since_mark += 1;
            let denom = 1.0 - pb * self.count_since_mark as f64;
            let pa = if denom <= 0.0 { 1.0 } else { pb / denom };
            rand01 < pa
        } else {
            self.count_since_mark = -1;
            false
        };

        if congested {
            self.count_since_mark = -1;
            if self.cfg.ecn && ecn.is_capable() {
                self.marks += 1;
                mark(&mut item);
                self.fifo.offer(item);
                QueueOutcome::EnqueuedMarked
            } else {
                self.early_drops += 1;
                QueueOutcome::Dropped
            }
        } else {
            match self.fifo.offer(item) {
                QueueOutcome::Enqueued => QueueOutcome::Enqueued,
                _ => QueueOutcome::Dropped,
            }
        }
    }

    /// Removes the head packet.
    pub fn pop(&mut self) -> Option<T> {
        self.fifo.pop()
    }

    /// Current depth.
    pub fn len(&self) -> usize {
        self.fifo.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.fifo.is_empty()
    }

    /// RED early/overflow drops.
    pub fn drops(&self) -> u64 {
        self.early_drops + self.fifo.drops()
    }

    /// CE marks applied.
    pub fn marks(&self) -> u64 {
        self.marks
    }

    /// Current average queue estimate (for tests/telemetry).
    pub fn avg(&self) -> f64 {
        self.avg
    }

    /// Iterate queued items front to back.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.fifo.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_orders_and_bounds() {
        // The slot bound alone, and the slot bound binding first under a
        // byte bound with room to spare.
        for (mut q, w) in [(FifoQueue::new(2), 0), (FifoQueue::with_byte_bound(2, 100), 40)] {
            assert_eq!(q.offer_weighed(1, w), QueueOutcome::Enqueued);
            assert_eq!(q.offer_weighed(2, w), QueueOutcome::Enqueued);
            assert_eq!(q.offer_weighed(3, 1), QueueOutcome::Dropped, "slot bound");
            assert_eq!(q.drops(), 1);
            assert_eq!(q.pop(), Some(1));
            assert_eq!(q.pop(), Some(2));
            assert_eq!(q.pop(), None);
            assert_eq!(q.offer_weighed(4, w), QueueOutcome::Enqueued);
            q.clear();
            assert!(q.is_empty());
            assert_eq!(q.bytes(), 0, "clear releases the weight");
            assert_eq!(q.drops(), 1, "clear keeps the drop count");
        }
    }

    #[test]
    fn fifo_byte_bound_tail_drops() {
        let mut q = FifoQueue::with_byte_bound(10, 100);
        assert_eq!(q.offer_weighed("a", 60), QueueOutcome::Enqueued);
        assert_eq!(q.bytes(), 60);
        assert_eq!(q.offer_weighed("b", 60), QueueOutcome::Dropped, "byte bound binds");
        assert_eq!(q.drops(), 1);
        assert_eq!(q.offer_weighed("c", 40), QueueOutcome::Enqueued);
        assert_eq!(q.bytes(), 100);
        assert_eq!(q.pop(), Some("a"));
        assert_eq!(q.bytes(), 40, "pop releases the weight");
        assert_eq!(q.offer_weighed("d", 70), QueueOutcome::Dropped, "byte bound after pop");
        assert_eq!(q.offer_weighed("e", 60), QueueOutcome::Enqueued);
        assert_eq!(q.drops(), 2);
        assert_eq!(q.bytes(), 100);
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn red_passes_when_idle() {
        let mut q = RedQueue::new(RedConfig::default());
        assert_eq!(q.offer("a", Ecn::Ect0, 0.0), QueueOutcome::Enqueued);
        assert_eq!(q.len(), 1);
        assert_eq!(q.marks(), 0);
    }

    #[test]
    fn red_marks_ecn_capable_when_congested() {
        let cfg = RedConfig {
            min_th: 0.5,
            max_th: 1.0,
            weight: 1.0,
            ..RedConfig::default()
        };
        let mut q = RedQueue::new(cfg);
        assert_eq!(q.offer(0, Ecn::Ect0, 0.99), QueueOutcome::Enqueued);
        // With weight 1.0 the average jumps straight to the depth (1.0),
        // which is >= max_th, so the next ECT packet must be CE-marked.
        let out = q.offer(1, Ecn::Ect0, 0.0);
        assert_eq!(out, QueueOutcome::EnqueuedMarked);
        assert_eq!(q.marks(), 1);
    }

    #[test]
    fn red_drops_non_ecn_when_congested() {
        let cfg = RedConfig {
            min_th: 0.5,
            max_th: 1.0,
            weight: 1.0,
            ..RedConfig::default()
        };
        let mut q = RedQueue::new(cfg);
        q.offer(0, Ecn::NotCapable, 0.99);
        q.offer(1, Ecn::NotCapable, 0.99);
        assert_eq!(q.offer(2, Ecn::NotCapable, 0.0), QueueOutcome::Dropped);
        assert!(q.drops() >= 1);
    }

    #[test]
    fn red_hard_capacity_enforced() {
        let cfg = RedConfig {
            capacity: 2,
            min_th: 100.0,
            max_th: 200.0,
            ..RedConfig::default()
        };
        let mut q = RedQueue::new(cfg);
        q.offer(0, Ecn::Ect0, 0.5);
        q.offer(1, Ecn::Ect0, 0.5);
        assert_eq!(q.offer(2, Ecn::Ect0, 0.5), QueueOutcome::Dropped);
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn red_probability_ramp_marks_some_fraction() {
        let cfg = RedConfig {
            min_th: 1.0,
            max_th: 10.0,
            max_p: 0.5,
            weight: 1.0,
            capacity: 100,
            ecn: true,
        };
        let mut q = RedQueue::new(cfg);
        // Fill to depth 5 so avg sits mid-ramp, then offer many packets
        // with alternating random draws.
        for i in 0..5 {
            q.offer(i, Ecn::Ect0, 0.999);
        }
        let mut marked = 0;
        for i in 0..100 {
            let r = (i as f64 % 10.0) / 10.0;
            match q.offer(i, Ecn::Ect0, r) {
                QueueOutcome::EnqueuedMarked => marked += 1,
                QueueOutcome::Enqueued => {}
                QueueOutcome::Dropped => {}
            }
            q.pop(); // keep depth roughly constant
        }
        assert!(marked > 0, "mid-ramp must mark sometimes");
        assert!(marked < 100, "mid-ramp must not mark always");
    }

    #[test]
    fn red_avg_tracks_queue() {
        let cfg = RedConfig {
            weight: 0.5,
            ..RedConfig::default()
        };
        let mut q = RedQueue::new(cfg);
        q.offer(0, Ecn::Ect0, 0.5);
        q.offer(1, Ecn::Ect0, 0.5);
        q.offer(2, Ecn::Ect0, 0.5);
        assert!(q.avg() > 0.0);
    }
}
