//! In-band resource-exhaustion attacker (overload suite).
//!
//! A [`Flooder`] rides on one victim node and injects forged traffic
//! directly at that node's transport/adaptation input, modelling an
//! attacker one hop upstream without consuming shared airtime:
//!
//! - **SYN floods**: forged SYNs from rotating spoofed mesh addresses
//!   and random source ports aimed at the victim's listener. These
//!   exercise the bounded SYN cache (RFC 4987): oldest-entry eviction,
//!   accept-backlog limits, and the TCP-buffer budget pre-check.
//! - **Fragment floods**: forged 6LoWPAN FRAG1 headers claiming large
//!   datagrams that never complete. These pin reassembly slots until
//!   the per-source quota, slot table, byte budget, or timeout reclaims
//!   them (RFC 4944 §5.3 hardening).
//!
//! The flooder owns a forked RNG stream, so a fixed world seed replays
//! the attack bit-identically — the overload tier asserts same-seed
//! runs produce identical stats digests.

use lln_netip::{Ipv6Addr, Ipv6Header, NextHeader, NodeId};
use lln_sim::{Duration, Instant, Rng};
use tcplp::{Flags, Segment, TcpSeq};

/// Claimed datagram size in forged FRAG1 headers: each pins that many
/// accounted bytes per reassembly slot until timeout (DESIGN.md §10).
pub const CLAIMED_FRAG_SIZE: u16 = 600;

/// Bytes in each forged FRAG1 [`Flooder::next_frag1`] makes: the 4 B
/// header and 64 B of junk payload.
const FRAG1_LEN: usize = 68;

/// What the attacker sends, how fast, and for how long.
#[derive(Clone, Debug)]
pub struct FloodConfig {
    /// First forged packet lands at this instant.
    pub start: Instant,
    /// No packets land at or after this instant.
    pub stop: Instant,
    /// Forged packets per second (per enabled kind).
    pub rate_hz: u64,
    /// Forge TCP SYNs at the victim's listener.
    pub syn: bool,
    /// Forge never-completing 6LoWPAN FRAG1 headers.
    pub frag: bool,
    /// Number of spoofed source identities rotated through. More
    /// sources defeat per-source quotas; fewer exercise them.
    pub spoofed_sources: u16,
    /// Destination port for forged SYNs (the victim's listen port).
    pub target_port: u16,
}

impl Default for FloodConfig {
    fn default() -> Self {
        FloodConfig {
            start: Instant::ZERO,
            stop: Instant::ZERO + Duration::from_secs(60),
            rate_hz: 50,
            syn: true,
            frag: false,
            spoofed_sources: 16,
            target_port: 80,
        }
    }
}

/// Counters for one flooder.
#[derive(Clone, Copy, Debug, Default)]
pub struct FloodStats {
    /// Forged SYN segments injected.
    pub syns_sent: u64,
    /// Forged FRAG1 headers injected.
    pub frags_sent: u64,
}

/// The attacker state attached to a victim node.
pub struct Flooder {
    /// Attack parameters.
    pub cfg: FloodConfig,
    /// Private RNG stream (forked from the world seed).
    pub rng: Rng,
    /// Injection counters.
    pub stats: FloodStats,
}

impl Flooder {
    /// Builds a flooder over `cfg` with its own RNG stream.
    pub fn new(cfg: FloodConfig, rng: Rng) -> Self {
        assert!(cfg.rate_hz > 0, "flood rate must be positive");
        assert!(cfg.spoofed_sources > 0, "need at least one spoofed source");
        Flooder {
            cfg,
            rng,
            stats: FloodStats::default(),
        }
    }

    /// Gap between consecutive forged packets.
    pub fn interval(&self) -> Duration {
        Duration::from_micros(1_000_000 / self.cfg.rate_hz)
    }

    /// The next forged SYN at `victim`, with its IPv6 header: from the
    /// next of the rotating spoofed mesh sources, from a random port
    /// and with a random ISN, to the victim's listen port.
    pub(crate) fn next_syn(&mut self, victim: Ipv6Addr) -> (Ipv6Header, Segment) {
        let k = (self.stats.syns_sent % u64::from(self.cfg.spoofed_sources)) as u16;
        let src = NodeId(0xF000 + k).mesh_addr();
        let sport = 40_000 + (self.rng.next_u64() % 20_000) as u16;
        let seq = TcpSeq(self.rng.next_u64() as u32);
        let mut seg = Segment::new(sport, self.cfg.target_port, seq, TcpSeq(0), Flags::SYN);
        seg.window = 1024;
        seg.mss = Some(462);
        let hdr = Ipv6Header::new(src, victim, NextHeader::Tcp, seg.wire_len() as u16);
        self.stats.syns_sent += 1;
        (hdr, seg)
    }

    /// The next forged FRAG1 (see [`Flooder::forge_frag1_into`]) and
    /// the spoofed link-layer source it comes from, the next of the
    /// rotating ones.
    pub(crate) fn next_frag1(&mut self) -> (NodeId, [u8; FRAG1_LEN]) {
        let k = (self.stats.frags_sent % u64::from(self.cfg.spoofed_sources)) as u16;
        let mut bytes = [0u8; FRAG1_LEN];
        self.forge_frag1_into(&mut bytes);
        self.stats.frags_sent += 1;
        (NodeId(0xF800 + k), bytes)
    }

    /// Writes a forged FRAG1 (RFC 4944 §5.3) into `buf`: a header
    /// claiming a datagram of [`CLAIMED_FRAG_SIZE`] bytes under a random
    /// tag, then `buf.len() - 4` bytes of zero junk payload. The
    /// remaining fragments never arrive.
    pub fn forge_frag1_into(&mut self, buf: &mut [u8]) {
        let size = usize::from(CLAIMED_FRAG_SIZE).min((1 << 11) - 1);
        let tag = self.rng.next_u64() as u16;
        buf[0] = 0b1100_0000 | ((size >> 8) as u8 & 0x07);
        buf[1] = (size & 0xFF) as u8;
        buf[2..4].copy_from_slice(&tag.to_be_bytes());
        buf[4..].fill(0);
    }

    /// Like [`Flooder::forge_frag1_into`], into a new buffer of
    /// `4 + fill` bytes.
    pub fn forge_frag1(&mut self, fill: usize) -> Vec<u8> {
        let mut bytes = vec![0u8; 4 + fill];
        self.forge_frag1_into(&mut bytes);
        bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forged_frag1_parses_as_first_fragment() {
        let mut f = Flooder::new(FloodConfig::default(), Rng::new(7));
        let bytes = f.forge_frag1(64);
        assert_eq!(bytes[0] >> 3, 0b11000, "FRAG1 dispatch bits");
        let size = ((usize::from(bytes[0] & 0x07)) << 8) | usize::from(bytes[1]);
        assert_eq!(size, 600);
        assert_eq!(bytes.len(), 68);
    }

    #[test]
    fn forging_in_place_matches_the_owned_form() {
        // Same RNG draws, same bytes, even over a dirty buffer.
        let mut owned = Flooder::new(FloodConfig::default(), Rng::new(11));
        let mut in_place = Flooder::new(FloodConfig::default(), Rng::new(11));
        let mut buf = [0xEEu8; 68];
        for _ in 0..16 {
            in_place.forge_frag1_into(&mut buf);
            assert_eq!(owned.forge_frag1(64), buf);
        }
        assert_eq!(owned.rng.next_u64(), in_place.rng.next_u64());
    }

    #[test]
    fn forged_syns_rotate_their_spoofed_sources() {
        let cfg = FloodConfig {
            spoofed_sources: 2,
            ..FloodConfig::default()
        };
        let mut f = Flooder::new(cfg, Rng::new(7));
        let victim = NodeId(1).mesh_addr();
        let forged: Vec<_> = (0..3).map(|_| f.next_syn(victim)).collect();
        let srcs: Vec<_> = forged.iter().map(|(hdr, _)| hdr.src).collect();
        let spoofed = |k: u16| NodeId(0xF000 + k).mesh_addr();
        assert_eq!(srcs, [spoofed(0), spoofed(1), spoofed(0)]);
        for (hdr, seg) in &forged {
            assert_eq!(hdr.dst, victim);
            assert_eq!(usize::from(hdr.payload_len), seg.wire_len());
            assert_eq!((seg.flags, seg.dst_port), (Flags::SYN, 80));
        }
        assert_eq!(f.stats.syns_sent, 3);
    }

    #[test]
    fn forged_frag1s_rotate_their_spoofed_sources() {
        let cfg = FloodConfig {
            spoofed_sources: 2,
            ..FloodConfig::default()
        };
        let mut f = Flooder::new(cfg.clone(), Rng::new(11));
        let mut owned = Flooder::new(cfg, Rng::new(11));
        for k in [0, 1, 0] {
            let (src, bytes) = f.next_frag1();
            assert_eq!(src, NodeId(0xF800 + k));
            assert_eq!(owned.forge_frag1(FRAG1_LEN - 4), bytes);
        }
        assert_eq!(f.stats.frags_sent, 3);
    }

    #[test]
    fn interval_follows_rate() {
        let f = Flooder::new(
            FloodConfig {
                rate_hz: 200,
                ..FloodConfig::default()
            },
            Rng::new(7),
        );
        assert_eq!(f.interval(), Duration::from_micros(5_000));
    }
}
