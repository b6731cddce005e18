//! TCPlp socket configuration.
//!
//! Defaults follow the paper's experimental configuration: an MSS of
//! five 802.15.4 frames (~460 B of payload), send/receive buffers of
//! four segments (1848 B, §7.3), SACK + timestamps + delayed ACKs on,
//! and up to 12 retransmissions with exponential backoff (§9.4).
//!
//! Only what a caller varies is a field: the fixed timers and limits
//! (RTO floor and initial RTO, delayed ACK, persist, TIME_WAIT, the
//! challenge-ACK budget) are constants in [`crate::rtt`] and
//! [`crate::socket`].

use lln_sim::Duration;

/// Configuration for a [`crate::socket::TcpSocket`].
#[derive(Clone, Debug)]
pub struct TcpConfig {
    /// Maximum segment size (payload bytes per segment) offered to the
    /// peer and used as the default send MSS.
    pub mss: usize,
    /// Send buffer capacity in bytes.
    pub send_buf: usize,
    /// Receive buffer capacity in bytes (also the advertised window
    /// ceiling; no window scaling, so at most 65535).
    pub recv_buf: usize,
    /// Offer/accept the SACK option (RFC 2018).
    pub use_sack: bool,
    /// Offer/accept the timestamps option (RFC 7323), enabling
    /// unambiguous RTT measurement of retransmitted segments — the
    /// property §9.4 credits for TCP beating CoCoA under loss.
    pub use_timestamps: bool,
    /// Negotiate ECN (RFC 3168); used with RED queues (Appendix A).
    pub use_ecn: bool,
    /// Delay pure ACKs (ack every 2nd full segment or on timer).
    pub delayed_ack: bool,
    /// Nagle's algorithm (coalesce sub-MSS writes).
    pub nagle: bool,
    /// Upper bound for the retransmission timeout.
    pub max_rto: Duration,
    /// Maximum consecutive retransmissions of one segment before the
    /// connection is dropped (paper: "TCP performs up to 12
    /// retransmissions with exponential backoff", §9.4).
    pub max_retransmits: u32,
    /// Granularity of the timestamp clock.
    pub ts_granularity: Duration,
    /// Keepalive: probe an idle established connection after this long
    /// (None disables keepalive, the default — LLN applications poll
    /// deliberately and keepalives cost energy).
    pub keepalive_idle: Option<Duration>,
    /// Interval between unanswered keepalive probes.
    pub keepalive_interval: Duration,
    /// Unanswered probes before the connection is dropped.
    pub keepalive_probes: u32,
    /// Header prediction (FreeBSD fast path): steady-state pure ACKs
    /// and in-order data skip the classifier's acceptability and RST/SYN
    /// checks, which they always pass. Behaviour is identical either
    /// way (see the differential test); this switch exists for that
    /// comparison and for benchmarking, not as a feature knob.
    pub header_prediction: bool,
}

impl Default for TcpConfig {
    fn default() -> Self {
        // 4 segments of 462 B ~= the paper's 1848 B window.
        let mss = 462;
        TcpConfig {
            mss,
            send_buf: mss * 4,
            recv_buf: mss * 4,
            use_sack: true,
            use_timestamps: true,
            use_ecn: false,
            delayed_ack: true,
            nagle: true,
            max_rto: Duration::from_secs(60),
            max_retransmits: 12,
            ts_granularity: Duration::from_millis(1),
            keepalive_idle: None,
            keepalive_interval: Duration::from_secs(10),
            keepalive_probes: 4,
            header_prediction: true,
        }
    }
}

impl TcpConfig {
    /// Convenience: a config sized to `segs` segments of `mss` bytes,
    /// the way the paper describes window sizes ("4 segments, 1848 B").
    pub fn with_window_segments(mss: usize, segs: usize) -> Self {
        TcpConfig {
            mss,
            send_buf: mss * segs,
            recv_buf: mss * segs,
            ..TcpConfig::default()
        }
    }

    /// Window size in whole segments (as the paper reports it).
    pub fn window_segments(&self) -> usize {
        self.recv_buf / self.mss
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_window() {
        let c = TcpConfig::default();
        assert_eq!(c.mss, 462);
        assert_eq!(c.send_buf, 1848);
        assert_eq!(c.window_segments(), 4);
        assert!(c.use_sack && c.use_timestamps && c.delayed_ack);
        assert_eq!(c.max_retransmits, 12);
    }

    #[test]
    fn with_window_segments_scales_buffers() {
        let c = TcpConfig::with_window_segments(408, 7);
        assert_eq!(c.send_buf, 2856);
        assert_eq!(c.recv_buf, 2856);
        assert_eq!(c.window_segments(), 7);
    }
}
