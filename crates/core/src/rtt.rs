//! Round-trip-time estimation and retransmission timeout (RFC 6298),
//! following the FreeBSD structure (srtt/rttvar with Jacobson/Karels
//! gains, Karn's rule for ambiguous samples, exponential backoff).
//!
//! With the timestamps option negotiated, the socket can take an RTT
//! sample from *every* ACK — including ACKs of retransmitted data,
//! because TSecr identifies which transmission the peer saw. §9.4 of
//! the paper highlights exactly this as TCP's advantage over CoCoA.

use lln_sim::{Duration, Instant};

/// RTO floor, FreeBSD-style, scaled for LLN round trips (DESIGN.md §5).
pub const MIN_RTO: Duration = Duration::from_millis(300);
/// RTO before any RTT sample exists (RFC 6298 §2.1).
pub const INITIAL_RTO: Duration = Duration::from_secs(1);

/// RTT estimator state.
#[derive(Clone, Debug)]
pub struct RttEstimator {
    srtt: Option<Duration>,
    rttvar: Duration,
    max_rto: Duration,
    /// Current backoff shift (number of consecutive timeouts).
    backoff: u32,
}

impl RttEstimator {
    /// Creates an estimator whose RTO is capped at `max_rto`.
    pub fn new(max_rto: Duration) -> Self {
        RttEstimator {
            srtt: None,
            rttvar: Duration::ZERO,
            max_rto,
            backoff: 0,
        }
    }

    /// Records a measured round-trip sample and clears backoff.
    pub fn sample(&mut self, rtt: Duration) {
        match self.srtt {
            None => {
                // First measurement (RFC 6298 2.2).
                self.srtt = Some(rtt);
                self.rttvar = rtt / 2;
            }
            Some(srtt) => {
                // RTTVAR <- 3/4 RTTVAR + 1/4 |SRTT - R'|
                let err = if rtt >= srtt { rtt - srtt } else { srtt - rtt };
                self.rttvar = (self.rttvar * 3 + err) / 4;
                // SRTT <- 7/8 SRTT + 1/8 R'
                self.srtt = Some((srtt * 7 + rtt) / 8);
            }
        }
        self.backoff = 0;
    }

    /// Smoothed RTT, if any sample has been taken.
    pub fn srtt(&self) -> Option<Duration> {
        self.srtt
    }

    /// The base RTO (before backoff), clamped to `[MIN_RTO, max_rto]`.
    pub fn base_rto(&self) -> Duration {
        match self.srtt {
            None => INITIAL_RTO,
            Some(srtt) => {
                // RTO = SRTT + max(G, 4*RTTVAR); G (clock granularity)
                // is 1ms here and folded into MIN_RTO.
                let rto = srtt + (self.rttvar * 4).max(Duration::from_millis(1));
                rto.max(MIN_RTO).min(self.max_rto)
            }
        }
    }

    /// The RTO including exponential backoff.
    pub fn rto(&self) -> Duration {
        let shift = self.backoff.min(12);
        self.base_rto()
            .checked_mul(1u64 << shift)
            .unwrap_or(self.max_rto)
            .min(self.max_rto)
    }

    /// Doubles the RTO (called on retransmission timeout).
    pub fn back_off(&mut self) {
        self.backoff = self.backoff.saturating_add(1);
    }

    /// Deadline for a retransmission scheduled at `now`.
    pub fn deadline(&self, now: Instant) -> Instant {
        now + self.rto()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn est() -> RttEstimator {
        RttEstimator::new(Duration::from_secs(60))
    }

    #[test]
    fn initial_rto_before_samples() {
        let e = est();
        assert_eq!(e.rto(), Duration::from_secs(1));
        assert_eq!(e.srtt(), None);
    }

    #[test]
    fn first_sample_initialises_srtt() {
        let mut e = est();
        e.sample(Duration::from_millis(200));
        assert_eq!(e.srtt(), Some(Duration::from_millis(200)));
        // RTO = 200 + 4*100 = 600ms
        assert_eq!(e.base_rto(), Duration::from_millis(600));
    }

    #[test]
    fn smoothing_converges_to_constant_rtt() {
        let mut e = est();
        for _ in 0..50 {
            e.sample(Duration::from_millis(150));
        }
        let srtt = e.srtt().unwrap();
        assert!(
            (srtt.as_millis() as i64 - 150).abs() <= 2,
            "srtt {srtt:?} should converge to 150ms"
        );
        // Variance decays, so RTO approaches the MIN_RTO floor.
        assert_eq!(e.base_rto(), Duration::from_millis(300));
    }

    #[test]
    fn rto_floor_enforced() {
        let mut e = est();
        for _ in 0..100 {
            e.sample(Duration::from_millis(10));
        }
        assert_eq!(e.base_rto(), Duration::from_millis(300));
    }

    #[test]
    fn backoff_doubles_and_caps() {
        let mut e = est();
        e.sample(Duration::from_millis(300));
        let base = e.base_rto();
        e.back_off();
        assert_eq!(e.rto(), base * 2);
        e.back_off();
        assert_eq!(e.rto(), base * 4);
        for _ in 0..20 {
            e.back_off();
        }
        assert_eq!(e.rto(), Duration::from_secs(60), "capped at max_rto");
    }

    #[test]
    fn sample_resets_backoff() {
        let mut e = est();
        e.sample(Duration::from_millis(300));
        e.back_off();
        e.back_off();
        assert_eq!(e.rto(), e.base_rto() * 4);
        e.sample(Duration::from_millis(300));
        assert_eq!(e.rto(), e.base_rto());
    }

    #[test]
    fn variance_reflects_jitter() {
        let mut stable = est();
        let mut jittery = est();
        for i in 0..50 {
            stable.sample(Duration::from_millis(300));
            jittery.sample(Duration::from_millis(if i % 2 == 0 { 100 } else { 500 }));
        }
        assert!(jittery.base_rto() > stable.base_rto());
    }

    #[test]
    fn deadline_adds_rto() {
        let mut e = est();
        e.sample(Duration::from_millis(400));
        let now = Instant::from_secs(10);
        assert_eq!(e.deadline(now), now + e.rto());
    }
}
