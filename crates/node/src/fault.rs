//! Deterministic fault injection.
//!
//! A [`FaultPlan`] is a schedule of timed fault events — node reboots,
//! link blackouts, route flaps, and bit-error bursts — that the
//! [`World`](crate::world::World) executes from its own event queue via
//! [`apply_fault_plan`](crate::world::World::apply_fault_plan). Because
//! the events ride the same deterministic queue as everything else,
//! replaying the same plan under the same seed is bit-identical: the
//! chaos suite relies on this to assert that recovery behaviour (and
//! every counter) reproduces exactly.
//!
//! The fault classes mirror what the paper's testbed deployments
//! actually experienced: motes rebooting (watchdog, battery swap),
//! links disappearing for tens of seconds (human blockage, interferer
//! duty cycles — cf. the mmWave blockage dynamics in related work),
//! RPL/Thread parent churn, and bursts of bit errors that corrupt
//! frames in flight rather than cleanly dropping them.

use lln_sim::{Duration, Instant};

/// One scheduled fault event. Node indices are `World` node indices
/// (positions in the `nodes` vec), not `NodeId`s. The world's event
/// queue carries it as is, when it takes effect and when its span ends.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum FaultEvent {
    /// Power-cycle a node: at `at` the node goes dark (radio off, MAC /
    /// 6LoWPAN / IP / transport state wiped, indirect queues dropped),
    /// and `down_for` later it cold-boots with empty volatile state.
    /// Energy accounting is preserved across the reboot — the meter
    /// keeps accumulating (radio in sleep while down), modelling a
    /// battery that does not reset with the CPU.
    NodeReboot {
        /// World index of the rebooting node.
        node: usize,
        /// When the node loses power.
        at: Instant,
        /// How long it stays down before cold-booting.
        down_for: Duration,
    },
    /// Zero the PRR on the `a`↔`b` edge (both directions) for
    /// `duration`, then restore the original reception rates. The link
    /// stays *audible* — energy is still detectable on the channel, so
    /// CCA and hidden-terminal behaviour are unaffected — but no frame
    /// gets through, like deep fading or blockage. Overlapping
    /// blackouts of one edge, named either way round, keep it dark
    /// until the last one ends; then the PRRs from before the first
    /// come back.
    LinkBlackout {
        /// One endpoint (world index).
        a: usize,
        /// Other endpoint (world index).
        b: usize,
        /// When the blackout starts.
        at: Instant,
        /// How long the edge stays dark.
        duration: Duration,
    },
    /// Force `node` to reselect its routing parent at `at`, as RPL /
    /// Thread do on link-quality churn. The node's routes are
    /// recomputed with the current-parent edge excluded; if no
    /// alternative parent is reachable the flap is a no-op (counted,
    /// but routes unchanged).
    RouteFlap {
        /// World index of the node whose parent flaps.
        node: usize,
        /// When the flap occurs.
        at: Instant,
    },
    /// For `duration`, every frame *received* by `node` has each bit
    /// independently flipped with probability `ber`. Corrupted frames
    /// are not clean drops: they reach the MAC decoder and must be
    /// rejected by the FCS (or, for the rare burst that passes CRC-16,
    /// by upper-layer checksums) — exercising the full rejection path.
    /// While bursts on one node overlap, the highest BER applies.
    BitErrorBurst {
        /// World index of the afflicted receiver.
        node: usize,
        /// When the burst starts.
        at: Instant,
        /// How long it lasts.
        duration: Duration,
        /// Per-bit flip probability (e.g. 1e-3).
        ber: f64,
    },
}

impl FaultEvent {
    /// The time at which this event fires.
    pub fn at(&self) -> Instant {
        match self {
            FaultEvent::NodeReboot { at, .. }
            | FaultEvent::LinkBlackout { at, .. }
            | FaultEvent::RouteFlap { at, .. }
            | FaultEvent::BitErrorBurst { at, .. } => *at,
        }
    }
}

/// A deterministic schedule of fault events.
///
/// Build one with the chainable constructors and hand it to
/// [`World::apply_fault_plan`](crate::world::World::apply_fault_plan):
///
/// ```
/// use lln_node::fault::FaultPlan;
/// use lln_sim::{Duration, Instant};
///
/// let plan = FaultPlan::new()
///     .reboot(2, Instant::from_secs(10), Duration::from_secs(5))
///     .blackout(1, 2, Instant::from_secs(30), Duration::from_secs(30))
///     .route_flap(3, Instant::from_secs(70))
///     .bit_error_burst(1, Instant::from_secs(80), Duration::from_secs(5), 1e-3);
/// assert_eq!(plan.events().len(), 4);
/// ```
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FaultPlan {
    events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// An empty plan.
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Adds an arbitrary event.
    pub fn push(mut self, ev: FaultEvent) -> Self {
        self.events.push(ev);
        self
    }

    /// Adds a [`FaultEvent::NodeReboot`].
    pub fn reboot(self, node: usize, at: Instant, down_for: Duration) -> Self {
        self.push(FaultEvent::NodeReboot { node, at, down_for })
    }

    /// Adds a [`FaultEvent::LinkBlackout`].
    pub fn blackout(self, a: usize, b: usize, at: Instant, duration: Duration) -> Self {
        self.push(FaultEvent::LinkBlackout { a, b, at, duration })
    }

    /// Adds a [`FaultEvent::RouteFlap`].
    pub fn route_flap(self, node: usize, at: Instant) -> Self {
        self.push(FaultEvent::RouteFlap { node, at })
    }

    /// Adds a [`FaultEvent::BitErrorBurst`].
    pub fn bit_error_burst(self, node: usize, at: Instant, duration: Duration, ber: f64) -> Self {
        self.push(FaultEvent::BitErrorBurst {
            node,
            at,
            duration,
            ber,
        })
    }

    /// The scheduled events, in insertion order.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// True when no events are scheduled.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_accumulates_events_in_order() {
        let plan = FaultPlan::new()
            .reboot(1, Instant::from_secs(1), Duration::from_secs(2))
            .blackout(0, 1, Instant::from_secs(3), Duration::from_secs(4))
            .route_flap(2, Instant::from_secs(5))
            .bit_error_burst(3, Instant::from_secs(6), Duration::from_secs(1), 1e-4);
        assert_eq!(plan.events().len(), 4);
        assert_eq!(plan.events()[0].at(), Instant::from_secs(1));
        assert_eq!(
            plan.events()[3],
            FaultEvent::BitErrorBurst {
                node: 3,
                at: Instant::from_secs(6),
                duration: Duration::from_secs(1),
                ber: 1e-4,
            }
        );
    }

    #[test]
    fn empty_plan_reports_empty() {
        assert!(FaultPlan::new().is_empty());
        assert!(!FaultPlan::new().route_flap(0, Instant::ZERO).is_empty());
    }
}
