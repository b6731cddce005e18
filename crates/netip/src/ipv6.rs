//! IPv6 header (RFC 8200) encode/decode, including the ECN bits of the
//! traffic class that the RED/ECN experiment (Appendix A) uses.

use crate::addr::Ipv6Addr;

/// Length of an uncompressed IPv6 header.
pub const IPV6_HEADER_LEN: usize = 40;

/// Upper-layer protocol numbers used in the reproduction.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum NextHeader {
    /// TCP (6).
    Tcp,
    /// UDP (17).
    Udp,
    /// Anything else (kept verbatim).
    Other(u8),
}

impl NextHeader {
    /// The protocol number.
    pub fn value(self) -> u8 {
        match self {
            NextHeader::Tcp => 6,
            NextHeader::Udp => 17,
            NextHeader::Other(v) => v,
        }
    }

    /// From a protocol number.
    pub fn from_value(v: u8) -> Self {
        match v {
            6 => NextHeader::Tcp,
            17 => NextHeader::Udp,
            other => NextHeader::Other(other),
        }
    }
}

/// Explicit Congestion Notification codepoint (RFC 3168), carried in the
/// low two bits of the IPv6 traffic class.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum Ecn {
    /// Not ECN-capable transport (00).
    #[default]
    NotCapable,
    /// ECN-capable, codepoint ECT(1) (01).
    Ect1,
    /// ECN-capable, codepoint ECT(0) (10).
    Ect0,
    /// Congestion experienced (11).
    Ce,
}

impl Ecn {
    /// Two-bit wire value.
    pub fn bits(self) -> u8 {
        match self {
            Ecn::NotCapable => 0b00,
            Ecn::Ect1 => 0b01,
            Ecn::Ect0 => 0b10,
            Ecn::Ce => 0b11,
        }
    }

    /// From the two-bit wire value.
    pub fn from_bits(b: u8) -> Self {
        match b & 0b11 {
            0b00 => Ecn::NotCapable,
            0b01 => Ecn::Ect1,
            0b10 => Ecn::Ect0,
            _ => Ecn::Ce,
        }
    }

    /// True when the packet claims an ECN-capable transport.
    pub fn is_capable(self) -> bool {
        !matches!(self, Ecn::NotCapable)
    }
}

/// A decoded IPv6 header.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Ipv6Header {
    /// Traffic class (DSCP in the high 6 bits; ECN handled separately).
    pub dscp: u8,
    /// ECN codepoint.
    pub ecn: Ecn,
    /// Flow label (20 bits).
    pub flow_label: u32,
    /// Payload length in bytes.
    pub payload_len: u16,
    /// Upper-layer protocol.
    pub next_header: NextHeader,
    /// Hop limit.
    pub hop_limit: u8,
    /// Source address.
    pub src: Ipv6Addr,
    /// Destination address.
    pub dst: Ipv6Addr,
}

impl Ipv6Header {
    /// A fresh header with common defaults (hop limit 64, no DSCP).
    pub fn new(src: Ipv6Addr, dst: Ipv6Addr, next_header: NextHeader, payload_len: u16) -> Self {
        Ipv6Header {
            dscp: 0,
            ecn: Ecn::NotCapable,
            flow_label: 0,
            payload_len,
            next_header,
            hop_limit: 64,
            src,
            dst,
        }
    }

    /// True when `other` describes the same flow: every field equal
    /// except `payload_len`. This is the cache key used by IPHC header
    /// caching — the compressed header bytes depend on exactly these
    /// fields (IPHC never encodes the payload length; it is recovered
    /// from the frame length).
    pub fn same_flow(&self, other: &Ipv6Header) -> bool {
        self.dscp == other.dscp
            && self.ecn == other.ecn
            && self.flow_label == other.flow_label
            && self.next_header == other.next_header
            && self.hop_limit == other.hop_limit
            && self.src == other.src
            && self.dst == other.dst
    }

    /// Encodes into 40 bytes.
    pub fn encode(&self) -> [u8; IPV6_HEADER_LEN] {
        let mut b = [0u8; IPV6_HEADER_LEN];
        let tc = (self.dscp << 2) | self.ecn.bits();
        b[0] = 0x60 | (tc >> 4);
        b[1] = ((tc & 0x0f) << 4) | ((self.flow_label >> 16) as u8 & 0x0f);
        b[2] = (self.flow_label >> 8) as u8;
        b[3] = self.flow_label as u8;
        b[4..6].copy_from_slice(&self.payload_len.to_be_bytes());
        b[6] = self.next_header.value();
        b[7] = self.hop_limit;
        b[8..24].copy_from_slice(&self.src.0);
        b[24..40].copy_from_slice(&self.dst.0);
        b
    }

    /// Decodes from bytes; `None` if too short or not version 6.
    pub fn decode(b: &[u8]) -> Option<Ipv6Header> {
        if b.len() < IPV6_HEADER_LEN || b[0] >> 4 != 6 {
            return None;
        }
        let tc = (b[0] << 4) | (b[1] >> 4);
        let flow_label = (u32::from(b[1] & 0x0f) << 16) | (u32::from(b[2]) << 8) | u32::from(b[3]);
        let mut src = [0u8; 16];
        src.copy_from_slice(&b[8..24]);
        let mut dst = [0u8; 16];
        dst.copy_from_slice(&b[24..40]);
        Some(Ipv6Header {
            dscp: tc >> 2,
            ecn: Ecn::from_bits(tc),
            flow_label,
            payload_len: u16::from_be_bytes([b[4], b[5]]),
            next_header: NextHeader::from_value(b[6]),
            hop_limit: b[7],
            src: Ipv6Addr(src),
            dst: Ipv6Addr(dst),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::NodeId;

    fn sample() -> Ipv6Header {
        let mut h = Ipv6Header::new(
            NodeId(1).mesh_addr(),
            NodeId(2).mesh_addr(),
            NextHeader::Tcp,
            123,
        );
        h.ecn = Ecn::Ect0;
        h.dscp = 0x2e;
        h.flow_label = 0xabcde;
        h.hop_limit = 17;
        h
    }

    #[test]
    fn encode_decode_roundtrip() {
        let h = sample();
        let enc = h.encode();
        assert_eq!(Ipv6Header::decode(&enc), Some(h));
    }

    #[test]
    fn version_nibble_is_six() {
        assert_eq!(sample().encode()[0] >> 4, 6);
    }

    #[test]
    fn rejects_short_or_wrong_version() {
        assert_eq!(Ipv6Header::decode(&[0u8; 10]), None);
        let mut enc = sample().encode();
        enc[0] = 0x40 | (enc[0] & 0x0f);
        assert_eq!(Ipv6Header::decode(&enc), None);
    }

    #[test]
    fn ecn_bits_roundtrip() {
        for e in [Ecn::NotCapable, Ecn::Ect0, Ecn::Ect1, Ecn::Ce] {
            assert_eq!(Ecn::from_bits(e.bits()), e);
        }
        assert!(Ecn::Ect0.is_capable());
        assert!(Ecn::Ce.is_capable());
        assert!(!Ecn::NotCapable.is_capable());
    }

    #[test]
    fn next_header_mapping() {
        assert_eq!(NextHeader::from_value(6), NextHeader::Tcp);
        assert_eq!(NextHeader::from_value(17), NextHeader::Udp);
        assert_eq!(NextHeader::from_value(58), NextHeader::Other(58));
        assert_eq!(NextHeader::Other(58).value(), 58);
    }

    #[test]
    fn payload_len_encoded_big_endian() {
        let mut h = sample();
        h.payload_len = 0x0102;
        let enc = h.encode();
        assert_eq!(&enc[4..6], &[0x01, 0x02]);
    }
}
