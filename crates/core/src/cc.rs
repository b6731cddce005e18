//! New Reno congestion control (RFC 5681 + RFC 6582), following the
//! FreeBSD implementation that TCPlp inherits.
//!
//! §7.3 of the paper observes that with LLN-sized buffers (4 segments)
//! the congestion window is buffer-limited rather than loss-limited:
//! after a loss event cwnd recovers to the full window within a couple
//! of RTTs, which is what makes TCP robust to the 1-10 % segment loss
//! typical over 802.15.4 — the key insight behind the paper's Eq. 2
//! performance model.

use crate::seq::TcpSeq;

/// Congestion-control state machine (New Reno).
#[derive(Clone, Debug)]
pub struct NewReno {
    mss: u32,
    cwnd: u32,
    ssthresh: u32,
    /// Duplicate-ACK counter.
    pub dup_acks: u32,
    /// In fast recovery until `recover` is ACKed (RFC 6582).
    recover: Option<TcpSeq>,
    /// Bytes ACKed accumulator for congestion-avoidance growth
    /// (appropriate byte counting, RFC 3465-lite).
    acked_accum: u32,
    /// Set when an ECN congestion response was already taken this
    /// window (at most one cwnd reduction per RTT, RFC 3168).
    cwr_until: Option<TcpSeq>,
}

/// What the socket should do after an ACK is processed.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CcAction {
    /// Nothing special.
    None,
    /// Third duplicate ACK: fast-retransmit snd_una and enter recovery.
    FastRetransmit,
    /// Partial ACK in recovery: retransmit the next hole immediately.
    PartialAckRetransmit,
}

impl NewReno {
    /// Creates a controller. Initial window per RFC 6928-lite: the
    /// paper's stacks start at a small IW; we use min(4*MSS, 4380) like
    /// classic FreeBSD.
    pub fn new(mss: usize) -> Self {
        let mss = mss as u32;
        NewReno {
            mss,
            cwnd: (4 * mss).min(4380).max(2 * mss),
            ssthresh: u32::MAX,
            dup_acks: 0,
            recover: None,
            acked_accum: 0,
            cwr_until: None,
        }
    }

    /// Current congestion window in bytes.
    pub fn cwnd(&self) -> u32 {
        self.cwnd
    }

    /// Current slow-start threshold in bytes.
    pub fn ssthresh(&self) -> u32 {
        self.ssthresh
    }

    /// True while in fast recovery.
    pub fn in_recovery(&self) -> bool {
        self.recover.is_some()
    }

    /// Updates MSS after negotiation.
    pub fn set_mss(&mut self, mss: usize) {
        let old = self.mss;
        self.mss = mss as u32;
        if self.cwnd == (4 * old).min(4380).max(2 * old) {
            self.cwnd = (4 * self.mss).min(4380).max(2 * self.mss);
        }
    }

    /// Handles an ACK that advances `snd_una` by `acked` bytes.
    /// `snd_max` is the highest sequence sent so far.
    pub fn on_new_ack(&mut self, ack: TcpSeq, acked: u32, flight_before: u32) -> CcAction {
        self.dup_acks = 0;
        if let Some(recover) = self.recover {
            if ack.ge(recover) {
                // Full ACK: leave recovery, deflate cwnd (RFC 6582 3.2).
                let flight = flight_before.saturating_sub(acked);
                self.cwnd = self.ssthresh.min(flight.max(self.mss) + self.mss);
                self.recover = None;
            } else {
                // Partial ACK: retransmit next segment, deflate.
                self.cwnd = self
                    .cwnd
                    .saturating_sub(acked)
                    .saturating_add(self.mss)
                    .max(self.mss);
                return CcAction::PartialAckRetransmit;
            }
        } else if self.cwnd < self.ssthresh {
            // Slow start: cwnd += min(acked, MSS) per ACK.
            self.cwnd = self.cwnd.saturating_add(acked.min(self.mss));
        } else {
            // Congestion avoidance: +MSS per cwnd of ACKed data.
            self.acked_accum = self.acked_accum.saturating_add(acked);
            if self.acked_accum >= self.cwnd {
                self.acked_accum -= self.cwnd;
                self.cwnd = self.cwnd.saturating_add(self.mss);
            }
        }
        CcAction::None
    }

    /// Handles a duplicate ACK. `snd_una`/`snd_max` bound recovery.
    pub fn on_dup_ack(&mut self, snd_una: TcpSeq, snd_max: TcpSeq, flight: u32) -> CcAction {
        if self.in_recovery() {
            // Window inflation: each dup ACK means a segment left the
            // network.
            self.cwnd = self.cwnd.saturating_add(self.mss);
            return CcAction::None;
        }
        self.dup_acks += 1;
        if self.dup_acks == 3 {
            // Enter fast recovery.
            self.ssthresh = (flight / 2).max(2 * self.mss);
            self.cwnd = self.ssthresh + 3 * self.mss;
            self.recover = Some(snd_max);
            let _ = snd_una;
            CcAction::FastRetransmit
        } else {
            CcAction::None
        }
    }

    /// Handles a retransmission timeout: collapse to one segment.
    pub fn on_timeout(&mut self, flight: u32) {
        self.ssthresh = (flight / 2).max(2 * self.mss);
        self.cwnd = self.mss;
        self.recover = None;
        self.dup_acks = 0;
        self.acked_accum = 0;
        self.cwr_until = None;
    }

    /// Handles an ECN echo (ECE) from the receiver: halve once per
    /// window (RFC 3168 §6.1.2). Returns true when a reduction was
    /// taken (the socket then sets CWR on its next data segment).
    pub fn on_ecn_echo(&mut self, snd_una: TcpSeq, snd_max: TcpSeq) -> bool {
        match self.cwr_until {
            Some(limit) if snd_una.lt(limit) => false,
            _ => {
                self.ssthresh = (self.cwnd / 2).max(2 * self.mss);
                self.cwnd = self.ssthresh;
                self.cwr_until = Some(snd_max);
                true
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MSS: usize = 462;

    fn reno() -> NewReno {
        NewReno::new(MSS)
    }

    #[test]
    fn initial_window_is_small_multiple_of_mss() {
        let r = reno();
        assert!(r.cwnd() >= 2 * MSS as u32);
        assert!(r.cwnd() <= 4380.max(2 * MSS as u32));
        assert!(!r.in_recovery());
    }

    #[test]
    fn slow_start_doubles_per_rtt() {
        let mut r = reno();
        let start = r.cwnd();
        // One RTT worth of ACKs: each full-MSS ACK adds one MSS.
        let acks = start / MSS as u32;
        for _ in 0..acks {
            r.on_new_ack(TcpSeq(0), MSS as u32, start);
        }
        assert!(
            r.cwnd() >= start + acks * MSS as u32,
            "cwnd {} did not grow exponentially from {}",
            r.cwnd(),
            start
        );
    }

    #[test]
    fn congestion_avoidance_grows_linearly() {
        let mut r = reno();
        r.on_timeout(10 * MSS as u32); // forces ssthresh = 5*MSS, cwnd = MSS
        // Grow back to ssthresh via slow start.
        while r.cwnd() < r.ssthresh() {
            r.on_new_ack(TcpSeq(0), MSS as u32, r.cwnd());
        }
        let at_thresh = r.cwnd();
        // One full window of ACKs in CA adds exactly one MSS.
        let mut acked = 0;
        while acked < at_thresh {
            r.on_new_ack(TcpSeq(0), MSS as u32, at_thresh);
            acked += MSS as u32;
        }
        assert!(r.cwnd() >= at_thresh + MSS as u32);
        assert!(r.cwnd() <= at_thresh + 2 * MSS as u32);
    }

    #[test]
    fn three_dup_acks_trigger_fast_retransmit() {
        let mut r = reno();
        let flight = 4 * MSS as u32;
        assert_eq!(r.on_dup_ack(TcpSeq(0), TcpSeq(flight), flight), CcAction::None);
        assert_eq!(r.on_dup_ack(TcpSeq(0), TcpSeq(flight), flight), CcAction::None);
        assert_eq!(
            r.on_dup_ack(TcpSeq(0), TcpSeq(flight), flight),
            CcAction::FastRetransmit
        );
        assert!(r.in_recovery());
        assert_eq!(r.ssthresh(), 2 * MSS as u32, "flight/2 floored at 2*MSS");
        assert_eq!(r.cwnd(), r.ssthresh() + 3 * MSS as u32);
    }

    #[test]
    fn dup_acks_in_recovery_inflate_window() {
        let mut r = reno();
        let flight = 4 * MSS as u32;
        for _ in 0..3 {
            r.on_dup_ack(TcpSeq(0), TcpSeq(flight), flight);
        }
        let inflated = r.cwnd();
        r.on_dup_ack(TcpSeq(0), TcpSeq(flight), flight);
        assert_eq!(r.cwnd(), inflated + MSS as u32);
    }

    #[test]
    fn partial_ack_stays_in_recovery() {
        let mut r = reno();
        let flight = 4 * MSS as u32;
        for _ in 0..3 {
            r.on_dup_ack(TcpSeq(0), TcpSeq(flight), flight);
        }
        let action = r.on_new_ack(TcpSeq(MSS as u32), MSS as u32, flight);
        assert_eq!(action, CcAction::PartialAckRetransmit);
        assert!(r.in_recovery());
    }

    #[test]
    fn full_ack_exits_recovery_and_deflates() {
        let mut r = reno();
        let flight = 4 * MSS as u32;
        for _ in 0..3 {
            r.on_dup_ack(TcpSeq(0), TcpSeq(flight), flight);
        }
        let action = r.on_new_ack(TcpSeq(flight), flight, flight);
        assert_eq!(action, CcAction::None);
        assert!(!r.in_recovery());
        assert!(r.cwnd() <= r.ssthresh().max(2 * MSS as u32) + MSS as u32);
    }

    #[test]
    fn timeout_collapses_to_one_mss() {
        let mut r = reno();
        r.on_timeout(4 * MSS as u32);
        assert_eq!(r.cwnd(), MSS as u32);
        assert_eq!(r.ssthresh(), 2 * MSS as u32);
        assert!(!r.in_recovery());
    }

    #[test]
    fn cwnd_recovers_quickly_with_small_buffers() {
        // The paper's §7.3 observation: with a 4-segment window, cwnd
        // returns to the buffer limit within ~2 RTTs of a timeout.
        let mut r = reno();
        let wmax = 4 * MSS as u32;
        r.on_timeout(wmax);
        let mut acks = 0;
        while r.cwnd() < wmax && acks < 12 {
            r.on_new_ack(TcpSeq(0), MSS as u32, r.cwnd());
            acks += 1;
        }
        assert!(
            acks <= 8,
            "cwnd should recover to {wmax} within ~2 windows of ACKs, took {acks}"
        );
    }

    #[test]
    fn ecn_echo_halves_once_per_window() {
        let mut r = reno();
        let before = r.cwnd();
        assert!(r.on_ecn_echo(TcpSeq(0), TcpSeq(1000)));
        assert!(r.cwnd() <= before / 2 + MSS as u32);
        // Second ECE within the same window: no further reduction.
        let mid = r.cwnd();
        assert!(!r.on_ecn_echo(TcpSeq(500), TcpSeq(1500)));
        assert_eq!(r.cwnd(), mid);
        // After snd_una passes the marker, a new ECE acts again.
        assert!(r.on_ecn_echo(TcpSeq(1000), TcpSeq(2000)));
    }

    #[test]
    fn set_mss_rescales_initial_window_only() {
        let mut r = NewReno::new(100);
        r.set_mss(462);
        assert_eq!(r.cwnd(), NewReno::new(462).cwnd());
        // A controller past its initial window keeps its cwnd.
        let mut s = NewReno::new(462);
        s.on_timeout(4 * 462);
        s.set_mss(400);
        assert_eq!(s.cwnd(), 462);
    }
}
