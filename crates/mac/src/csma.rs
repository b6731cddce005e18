//! Software CSMA-CA and link retries — the transmission state machine
//! of §4 and §7.1.
//!
//! The paper disables the radio's hardware CSMA (which goes deaf during
//! backoff) and performs carrier sensing and retries in software,
//! keeping the radio listening between attempts. After a failed
//! link-layer transmission the sender waits a uniform random duration
//! in `[0, d]` before retrying — Figure 6 sweeps `d` and shows a
//! moderate value defuses hidden-terminal collisions.
//!
//! [`TxProcess`] is a sans-IO state machine: the node driver feeds it
//! CCA results, transmit completions, ACK arrivals and timeouts; it
//! answers with the next step to schedule.

use lln_sim::{Duration, Rng};

/// 802.15.4 macMinBE: initial backoff exponent (DESIGN.md §5).
pub const MIN_BE: u32 = 3;
/// 802.15.4 macMaxBE: maximum backoff exponent.
pub const MAX_BE: u32 = 5;
/// 802.15.4 macMaxCSMABackoffs: CCA attempts per transmission attempt.
pub const MAX_CSMA_BACKOFFS: u32 = 4;
/// 802.15.4 aUnitBackoffPeriod: 20 symbols = 320 µs.
pub const BACKOFF_UNIT: Duration = Duration::from_micros(320);

/// MAC-layer configuration.
#[derive(Clone, Debug)]
pub struct MacConfig {
    /// Maximum link-layer retransmissions of one frame.
    pub max_frame_retries: u32,
    /// The paper's `d`: maximum random delay between link retries
    /// (uniform in `[0, d]`). Default 40 ms per §7.1's recommendation.
    pub retry_delay_max: Duration,
}

impl Default for MacConfig {
    fn default() -> Self {
        MacConfig {
            max_frame_retries: 8,
            retry_delay_max: Duration::from_millis(40),
        }
    }
}

/// What the driver should do next.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TxStep {
    /// Wait this long, then perform a CCA.
    BackoffThenCca(Duration),
    /// Transmit the frame now (channel clear).
    Transmit,
    /// Frame sent; wait for the link ACK (driver arms the ACK timer).
    AwaitAck,
    /// Attempt finished: `true` = delivered (ACKed or no-ACK frame).
    Done(bool),
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Phase {
    Idle,
    Csma,
    Transmitting,
    AwaitingAck,
}

/// Per-frame transmission process: CSMA + retries.
#[derive(Clone, Debug)]
pub struct TxProcess {
    cfg: MacConfig,
    phase: Phase,
    be: u32,
    csma_attempts: u32,
    retries: u32,
    ack_expected: bool,
    /// CCA failures over the lifetime of this frame (telemetry).
    pub cca_failures: u32,
    /// Link retransmissions performed for this frame (telemetry;
    /// Figure 6d's "total frames transmitted" sums these).
    pub tx_attempts: u32,
}

impl TxProcess {
    /// Starts a transmission process. `ack_expected` is false for
    /// broadcast frames and link ACK frames themselves.
    pub fn new(cfg: MacConfig, ack_expected: bool) -> Self {
        TxProcess {
            cfg,
            phase: Phase::Idle,
            be: 0,
            csma_attempts: 0,
            retries: 0,
            ack_expected,
            cca_failures: 0,
            tx_attempts: 0,
        }
    }

    /// Begins the first attempt; returns the initial backoff step.
    pub fn start(&mut self, rng: &mut Rng) -> TxStep {
        self.phase = Phase::Csma;
        self.be = MIN_BE;
        self.csma_attempts = 0;
        self.backoff(rng)
    }

    fn backoff(&mut self, rng: &mut Rng) -> TxStep {
        let slots = rng.gen_range(1u64 << self.be); // [0, 2^BE - 1]
        TxStep::BackoffThenCca(BACKOFF_UNIT * slots)
    }

    /// Feeds the CCA outcome.
    pub fn on_cca(&mut self, busy: bool, rng: &mut Rng) -> TxStep {
        debug_assert_eq!(self.phase, Phase::Csma);
        if !busy {
            self.phase = Phase::Transmitting;
            self.tx_attempts += 1;
            return TxStep::Transmit;
        }
        self.cca_failures += 1;
        self.csma_attempts += 1;
        if self.csma_attempts > MAX_CSMA_BACKOFFS {
            // Channel-access failure counts as a failed attempt;
            // fall into the link-retry path.
            return self.retry_or_fail(rng);
        }
        self.be = (self.be + 1).min(MAX_BE);
        self.backoff(rng)
    }

    /// The frame finished transmitting.
    pub fn on_tx_done(&mut self) -> TxStep {
        debug_assert_eq!(self.phase, Phase::Transmitting);
        if self.ack_expected {
            self.phase = Phase::AwaitingAck;
            TxStep::AwaitAck
        } else {
            self.phase = Phase::Idle;
            TxStep::Done(true)
        }
    }

    /// A matching link ACK arrived.
    pub fn on_ack(&mut self) -> TxStep {
        self.phase = Phase::Idle;
        TxStep::Done(true)
    }

    /// The ACK timer expired without an ACK.
    pub fn on_ack_timeout(&mut self, rng: &mut Rng) -> TxStep {
        debug_assert_eq!(self.phase, Phase::AwaitingAck);
        self.retry_or_fail(rng)
    }

    fn retry_or_fail(&mut self, rng: &mut Rng) -> TxStep {
        self.retries += 1;
        if self.retries > self.cfg.max_frame_retries {
            self.phase = Phase::Idle;
            return TxStep::Done(false);
        }
        // The paper's mechanism: uniform random delay in [0, d] before
        // the retry, *then* a fresh CSMA round.
        self.phase = Phase::Csma;
        self.be = MIN_BE;
        self.csma_attempts = 0;
        let jitter = rng.gen_duration(self.cfg.retry_delay_max);
        let slots = rng.gen_range(1u64 << self.be);
        TxStep::BackoffThenCca(jitter + BACKOFF_UNIT * slots)
    }

    /// Link retries performed so far.
    pub fn retries(&self) -> u32 {
        self.retries
    }

    /// True during a CSMA round: a backoff, or the CCA that ends it.
    pub fn in_csma(&self) -> bool {
        self.phase == Phase::Csma
    }

    /// True while the process is waiting for a link ACK. Drivers must
    /// check this before feeding [`Self::on_ack`]: an overheard ACK
    /// with a coincidentally matching sequence number must not complete
    /// a frame that is still in backoff or on the air.
    pub fn awaiting_ack(&self) -> bool {
        self.phase == Phase::AwaitingAck
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> Rng {
        Rng::new(123)
    }

    #[test]
    fn clear_channel_leads_to_transmit() {
        let mut p = TxProcess::new(MacConfig::default(), true);
        let mut r = rng();
        match p.start(&mut r) {
            TxStep::BackoffThenCca(d) => {
                assert!(d <= Duration::from_micros(320 * 7), "BE=3: <= 7 slots");
            }
            other => panic!("expected backoff, got {other:?}"),
        }
        assert_eq!(p.on_cca(false, &mut r), TxStep::Transmit);
        assert_eq!(p.on_tx_done(), TxStep::AwaitAck);
        assert_eq!(p.on_ack(), TxStep::Done(true));
        assert_eq!(p.retries(), 0);
        assert_eq!(p.tx_attempts, 1);
    }

    #[test]
    fn busy_channel_escalates_backoff() {
        let mut p = TxProcess::new(MacConfig::default(), true);
        let mut r = rng();
        p.start(&mut r);
        // Keep reporting busy: BE grows 3→4→5→5, then channel-access
        // failure counts as a retry.
        let mut max_seen = Duration::ZERO;
        for _ in 0..MAX_CSMA_BACKOFFS {
            match p.on_cca(true, &mut r) {
                TxStep::BackoffThenCca(d) => max_seen = max_seen.max(d),
                other => panic!("unexpected {other:?}"),
            }
        }
        assert_eq!(p.cca_failures, MAX_CSMA_BACKOFFS);
        // One more busy CCA exhausts CSMA and triggers a retry delay.
        match p.on_cca(true, &mut r) {
            TxStep::BackoffThenCca(_) => assert_eq!(p.retries(), 1),
            other => panic!("expected retry backoff, got {other:?}"),
        }
    }

    #[test]
    fn ack_timeout_retries_with_bounded_jitter() {
        let cfg = MacConfig {
            retry_delay_max: Duration::from_millis(40),
            ..MacConfig::default()
        };
        let mut p = TxProcess::new(cfg, true);
        let mut r = rng();
        p.start(&mut r);
        p.on_cca(false, &mut r);
        p.on_tx_done();
        match p.on_ack_timeout(&mut r) {
            TxStep::BackoffThenCca(d) => {
                // jitter <= 40ms plus <=7 backoff slots (2.24ms)
                assert!(d <= Duration::from_micros(40_000 + 320 * 7));
                assert_eq!(p.retries(), 1);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn exhausted_retries_fail() {
        let cfg = MacConfig {
            max_frame_retries: 2,
            ..MacConfig::default()
        };
        let mut p = TxProcess::new(cfg, true);
        let mut r = rng();
        p.start(&mut r);
        for attempt in 0..3 {
            p.on_cca(false, &mut r);
            p.on_tx_done();
            let step = p.on_ack_timeout(&mut r);
            if attempt < 2 {
                assert!(matches!(step, TxStep::BackoffThenCca(_)));
            } else {
                assert_eq!(step, TxStep::Done(false));
            }
        }
        assert_eq!(p.tx_attempts, 3, "original + 2 retries");
    }

    #[test]
    fn broadcast_needs_no_ack() {
        let mut p = TxProcess::new(MacConfig::default(), false);
        let mut r = rng();
        p.start(&mut r);
        p.on_cca(false, &mut r);
        assert_eq!(p.on_tx_done(), TxStep::Done(true));
    }

    #[test]
    fn zero_retry_delay_still_backs_off_csma() {
        // d = 0 (the paper's Figure 6 leftmost point): retries happen
        // immediately after CSMA backoff only.
        let cfg = MacConfig {
            retry_delay_max: Duration::ZERO,
            ..MacConfig::default()
        };
        let mut p = TxProcess::new(cfg, true);
        let mut r = rng();
        p.start(&mut r);
        p.on_cca(false, &mut r);
        p.on_tx_done();
        match p.on_ack_timeout(&mut r) {
            TxStep::BackoffThenCca(d) => {
                assert!(d <= Duration::from_micros(320 * 7), "no extra jitter");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn retry_jitter_spans_range() {
        // Statistically verify the retry delay is spread over [0, d].
        let cfg = MacConfig {
            retry_delay_max: Duration::from_millis(40),
            max_frame_retries: 10_000,
        };
        let mut r = rng();
        let mut lo = 0usize;
        let mut hi = 0usize;
        for _ in 0..500 {
            let mut p = TxProcess::new(cfg.clone(), true);
            p.start(&mut r);
            p.on_cca(false, &mut r);
            p.on_tx_done();
            if let TxStep::BackoffThenCca(d) = p.on_ack_timeout(&mut r) {
                if d < Duration::from_millis(10) {
                    lo += 1;
                }
                if d > Duration::from_millis(30) {
                    hi += 1;
                }
            }
        }
        assert!(lo > 50, "low quartile hit {lo} times");
        assert!(hi > 50, "high quartile hit {hi} times");
    }
}
