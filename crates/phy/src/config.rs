//! PHY timing constants, calibrated to the paper (§6.4, Table 5).

use lln_sim::Duration;

/// IEEE 802.15.4 physical-layer timing parameters.
#[derive(Clone, Debug)]
pub struct PhyConfig {
    /// Radio bitrate in bits/second (standard 2.4 GHz O-QPSK: 250 kb/s;
    /// the paper deliberately uses the standard rate, §5).
    pub bitrate_bps: u64,
    /// PHY framing overhead: 4 B preamble + 1 B SFD + 1 B PHR = 6 B.
    pub phy_overhead_bytes: usize,
    /// Per-byte platform cost on the transmit path (SPI transfer to the
    /// radio plus driver processing). §6.4 measures a full 127 B frame
    /// at 8.2 ms end-to-end against 4.1 ms of air time; that measured
    /// figure also covers CSMA backoff and the ACK exchange, which the
    /// simulator models separately, so the default here is calibrated
    /// such that air + SPI + mean CSMA backoff + CCA + link ACK ≈ 8.2 ms
    /// for a full frame (single-hop TCP goodput then lands at the
    /// paper's ~70 kb/s).
    pub spi_us_per_byte: u64,
    /// Fixed per-frame processing cost on the transmit path.
    pub tx_fixed_overhead: Duration,
    /// CCA measurement duration (8 symbols = 128 µs).
    pub cca_duration: Duration,
    /// Rx/Tx turnaround (12 symbols = 192 µs).
    pub turnaround: Duration,
    /// Duration a sender waits for a link-layer ACK before declaring
    /// failure (macAckWaitDuration class).
    pub ack_wait: Duration,
    /// Length of a link-layer immediate ACK MPDU (5 bytes).
    pub ack_frame_len: usize,
    /// Maximum MPDU size (127 bytes).
    pub max_frame_len: usize,
}

impl Default for PhyConfig {
    fn default() -> Self {
        PhyConfig {
            bitrate_bps: 250_000,
            phy_overhead_bytes: 6,
            spi_us_per_byte: 16,
            tx_fixed_overhead: Duration::from_micros(150),
            cca_duration: Duration::from_micros(128),
            turnaround: Duration::from_micros(192),
            ack_wait: Duration::from_micros(864),
            ack_frame_len: 5,
            max_frame_len: 127,
        }
    }
}

impl PhyConfig {
    /// Time the channel is occupied transmitting `len` MPDU bytes.
    pub fn air_time(&self, len: usize) -> Duration {
        let bits = ((self.phy_overhead_bytes + len) * 8) as u64;
        Duration::from_micros(bits * 1_000_000 / self.bitrate_bps)
    }

    /// Platform (SPI + driver) cost charged to the sender before the
    /// frame hits the air.
    pub fn platform_overhead(&self, len: usize) -> Duration {
        self.tx_fixed_overhead + Duration::from_micros(self.spi_us_per_byte * len as u64)
    }

    /// Total sender-side cost of one frame, excluding CSMA backoff and
    /// the ACK exchange (the quantity §6.4 measures as 8.2 ms).
    pub fn frame_cost(&self, len: usize) -> Duration {
        self.platform_overhead(len) + self.air_time(len)
    }

    /// Air time of a link-layer ACK.
    pub fn ack_air_time(&self) -> Duration {
        self.air_time(self.ack_frame_len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn air_time_matches_paper_table5() {
        let c = PhyConfig::default();
        // 127 B frame: (6+127)*32us = 4.256 ms; paper rounds to 4.1 ms
        // (it counts 127 B including PHY overhead differently).
        let t = c.air_time(127);
        assert!(
            (t.as_micros() as i64 - 4256).abs() <= 1,
            "127B air time {t:?}"
        );
    }

    #[test]
    fn full_frame_all_in_cost_near_measured_8_2ms() {
        let c = PhyConfig::default();
        // The §6.4 "8.2 ms per frame" includes everything the sender
        // does: SPI + air + mean CSMA backoff (3.5 slots at BE=3) +
        // CCA + the link-ACK exchange (turnaround + ACK air time).
        let mean_backoff = Duration::from_micros(320 * 7 / 2);
        let all_in =
            c.frame_cost(127) + mean_backoff + c.cca_duration + c.turnaround + c.ack_air_time();
        let ms = all_in.as_micros() as f64 / 1000.0;
        assert!(
            (7.4..9.0).contains(&ms),
            "all-in frame cost {ms:.2} ms should straddle the paper's 8.2 ms"
        );
    }

    #[test]
    fn ack_is_short() {
        let c = PhyConfig::default();
        assert!(c.ack_air_time() < Duration::from_micros(400));
    }

    #[test]
    fn air_time_scales_linearly() {
        let c = PhyConfig::default();
        let a = c.air_time(10);
        let b = c.air_time(20);
        assert_eq!(
            (b - a).as_micros(),
            10 * 8 * 1_000_000 / 250_000,
            "10 extra bytes = 320us"
        );
    }
}
