//! CoCoA congestion control for CoAP (Betzler et al., IEEE ComMag
//! 2016) — the third protocol of the paper's application study.
//!
//! CoCoA keeps two RTT estimators:
//!
//! - the **strong** estimator, updated from exchanges that completed
//!   without any retransmission;
//! - the **weak** estimator, updated from retransmitted exchanges,
//!   measuring — necessarily, since responses cannot be matched to a
//!   particular transmission — from the *first* transmission.
//!
//! That weak measurement is the flaw the paper exposes in §9.4: under
//! sustained loss, weak samples include full retransmission timeouts,
//! the RTO balloons, recovery slows and the application queue
//! overflows. We implement the algorithm faithfully, including the
//! variable backoff factor and the blended overall RTO.

use lln_sim::Duration;

const K_STRONG: u32 = 4;
const K_WEAK: u32 = 1;

#[derive(Clone, Debug)]
struct Estimator {
    srtt: Option<Duration>,
    rttvar: Duration,
    k: u32,
}

impl Estimator {
    fn new(k: u32) -> Self {
        Estimator {
            srtt: None,
            rttvar: Duration::ZERO,
            k,
        }
    }

    fn sample(&mut self, rtt: Duration) {
        match self.srtt {
            None => {
                self.srtt = Some(rtt);
                self.rttvar = rtt / 2;
            }
            Some(s) => {
                let err = if rtt >= s { rtt - s } else { s - rtt };
                self.rttvar = (self.rttvar * 3 + err) / 4;
                self.srtt = Some((s * 7 + rtt) / 8);
            }
        }
    }

    fn rto(&self) -> Option<Duration> {
        self.srtt
            .map(|s| s + (self.rttvar * u64::from(self.k)).max(Duration::from_millis(1)))
    }
}

/// The CoCoA RTO state machine.
#[derive(Clone, Debug)]
pub struct Cocoa {
    strong: Estimator,
    weak: Estimator,
    /// Blended overall RTO.
    overall: Duration,
}

impl Default for Cocoa {
    fn default() -> Self {
        Self::new()
    }
}

impl Cocoa {
    /// Creates the estimator with the 2 s initial RTO.
    pub fn new() -> Self {
        Cocoa {
            strong: Estimator::new(K_STRONG),
            weak: Estimator::new(K_WEAK),
            overall: Duration::from_secs(2),
        }
    }

    /// Records a completed exchange. `retransmitted` selects the weak
    /// estimator; `rtt` is measured from the first transmission either
    /// way (the ambiguity at the heart of §9.4).
    pub fn on_exchange_complete(&mut self, rtt: Duration, retransmitted: bool) {
        let (est, weight) = if retransmitted {
            self.weak.sample(rtt);
            (&self.weak, 0.25)
        } else {
            self.strong.sample(rtt);
            (&self.strong, 0.5)
        };
        if let Some(rto_new) = est.rto() {
            let blended =
                rto_new.as_secs_f64() * weight + self.overall.as_secs_f64() * (1.0 - weight);
            self.overall = Duration::from_secs_f64(blended);
        }
    }

    /// Initial RTO for a fresh exchange.
    pub fn rto(&self) -> Duration {
        // CoCoA clamps the dithered RTO into [apply lower bound 1s?];
        // the published algorithm uses the overall estimate directly,
        // bounded to avoid pathological extremes.
        self.overall
            .max(Duration::from_millis(100))
            .min(Duration::from_secs(32))
    }

    /// Variable backoff factor (CoCoA §IV): small RTOs back off
    /// aggressively (x3), mid-range doubles, large RTOs grow gently
    /// (x1.5). Returns the next timeout after `current`.
    pub fn backoff(&self, current: Duration) -> Duration {
        let secs = current.as_secs_f64();
        let factor = if secs < 1.0 {
            3.0
        } else if secs <= 3.0 {
            2.0
        } else {
            1.5
        };
        Duration::from_secs_f64(secs * factor).min(Duration::from_secs(60))
    }

    /// RTO aging: CoCoA decays a very large overall RTO toward 2 s
    /// when idle; called between batches.
    pub fn age(&mut self) {
        if self.overall > Duration::from_secs(3) {
            let target = Duration::from_secs(2);
            let aged = Duration::from_secs_f64(
                1.0f64.mul_add(target.as_secs_f64(), self.overall.as_secs_f64()) / 2.0,
            );
            self.overall = aged;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn initial_rto_is_two_seconds() {
        assert_eq!(Cocoa::new().rto(), Duration::from_secs(2));
    }

    #[test]
    fn strong_samples_pull_rto_down() {
        let mut c = Cocoa::new();
        for _ in 0..20 {
            c.on_exchange_complete(Duration::from_millis(300), false);
        }
        assert!(
            c.rto() < Duration::from_secs(1),
            "clean 300ms RTTs should shrink the RTO, got {:?}",
            c.rto()
        );
    }

    #[test]
    fn weak_samples_inflate_rto() {
        // The §9.4 pathology: retransmitted exchanges measure RTT from
        // the first transmission, so each sample includes the timeout.
        let mut clean = Cocoa::new();
        let mut lossy = Cocoa::new();
        for _ in 0..10 {
            clean.on_exchange_complete(Duration::from_millis(300), false);
            // Lossy: response arrives after one 2s retransmission.
            lossy.on_exchange_complete(Duration::from_millis(2300), true);
        }
        assert!(
            lossy.rto() > clean.rto() * 2,
            "weak estimator must inflate RTO: lossy {:?} vs clean {:?}",
            lossy.rto(),
            clean.rto()
        );
    }

    #[test]
    fn variable_backoff_factors() {
        let c = Cocoa::new();
        assert_eq!(
            c.backoff(Duration::from_millis(500)),
            Duration::from_millis(1500),
            "x3 below 1s"
        );
        assert_eq!(
            c.backoff(Duration::from_secs(2)),
            Duration::from_secs(4),
            "x2 in [1,3]"
        );
        assert_eq!(
            c.backoff(Duration::from_secs(4)),
            Duration::from_secs(6),
            "x1.5 above 3s"
        );
    }

    #[test]
    fn backoff_capped() {
        let c = Cocoa::new();
        assert_eq!(c.backoff(Duration::from_secs(50)), Duration::from_secs(60));
    }

    #[test]
    fn aging_decays_inflated_rto() {
        let mut c = Cocoa::new();
        for _ in 0..10 {
            c.on_exchange_complete(Duration::from_secs(10), true);
        }
        let inflated = c.rto();
        c.age();
        assert!(c.rto() < inflated);
    }
}
