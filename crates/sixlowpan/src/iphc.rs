//! IPHC: IPv6 header compression (RFC 6282 §3) plus UDP next-header
//! compression (§4.3).
//!
//! The compressor targets the addressing scheme of the reproduction's
//! Thread-like mesh: context 0 is the mesh-local prefix, context 1 the
//! off-mesh ("cloud") prefix, and interface identifiers derive from
//! 16-bit short addresses, so mesh-local endpoints compress the entire
//! IPv6 header to the 2-byte IPHC base + 1 context byte. The paper's
//! Table 6 quotes 2-28 bytes for the compressed IPv6 header; this
//! implementation spans 2 bytes (fully elided, no CID) to 40+ (fallback
//! uncompressed dispatch).

use lln_netip::addr::{CLOUD_PREFIX, MESH_PREFIX};
use lln_netip::{Ecn, Ipv6Addr, Ipv6Header, NextHeader, NodeId};

/// First byte of an uncompressed-IPv6 dispatch (RFC 4944).
pub const DISPATCH_IPV6: u8 = 0x41;

fn context_for_prefix(prefix: [u8; 8]) -> Option<u8> {
    if prefix == MESH_PREFIX {
        Some(0)
    } else if prefix == CLOUD_PREFIX {
        Some(1)
    } else {
        None
    }
}

fn prefix_for_context(cid: u8) -> Option<[u8; 8]> {
    match cid {
        0 => Some(MESH_PREFIX),
        1 => Some(CLOUD_PREFIX),
        _ => None,
    }
}

/// Address compression mode: context/stateless bits plus how much of
/// the address rides inline (emitted by the caller — no allocation).
struct AddrMode {
    ac: u8,
    am: u8,
    ctx: u8,
}

fn addr_mode(addr: Ipv6Addr, l2: NodeId) -> AddrMode {
    if let Some(ctx) = context_for_prefix(addr.prefix()) {
        let am = if l2.iid() == addr.iid() { 0b11 } else { 0b01 };
        AddrMode { ac: 1, am, ctx }
    } else {
        AddrMode {
            ac: 0,
            am: 0b00,
            ctx: 0,
        }
    }
}

/// Compresses an IPv6 header (and, for UDP, the 8-byte UDP header via
/// NHC). `payload` is the transport payload (the UDP payload for UDP,
/// the full TCP segment for TCP — TCP has no NHC, so its header rides
/// as payload). Returns the full 6LoWPAN-encoded packet: compressed
/// headers followed by payload.
pub fn compress(hdr: &Ipv6Header, src_l2: NodeId, dst_l2: NodeId, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(payload.len() + 8);
    compress_into(hdr, src_l2, dst_l2, payload, &mut out);
    out
}

/// Single-pass variant of [`compress`]: serializes the compressed
/// headers and payload straight into `out` (cleared first), with no
/// intermediate allocations. Reusing `out` across packets makes the
/// per-segment tx path allocation-free.
pub fn compress_into(
    hdr: &Ipv6Header,
    src_l2: NodeId,
    dst_l2: NodeId,
    payload: &[u8],
    out: &mut Vec<u8>,
) {
    out.clear();
    out.reserve(payload.len() + 8);
    // Base: 011 TF NH HLIM
    let tc = (hdr.dscp << 2) | hdr.ecn.bits();
    let tf = if tc == 0 && hdr.flow_label == 0 {
        0b11
    } else if hdr.flow_label == 0 {
        0b10 // TC inline (1 byte)
    } else {
        0b00 // ECN+DSCP+FL inline (4 bytes)
    };
    // We only apply NHC to UDP.
    let nhc_udp = hdr.next_header == NextHeader::Udp && payload.len() >= 8;
    let nh_bit = u8::from(nhc_udp);
    let hlim = match hdr.hop_limit {
        1 => 0b01,
        64 => 0b10,
        255 => 0b11,
        _ => 0b00,
    };
    let s = addr_mode(hdr.src, src_l2);
    let d = addr_mode(hdr.dst, dst_l2);
    let cid = s.ac == 1 || d.ac == 1;

    let b0 = 0b0110_0000 | (tf << 3) | (nh_bit << 2) | hlim;
    let b1 = (u8::from(cid) << 7) | (s.ac << 6) | (s.am << 4) | (d.ac << 2) | d.am;
    out.push(b0);
    out.push(b1);
    if cid {
        out.push((s.ctx << 4) | d.ctx);
    }
    match tf {
        0b10 => out.push(tc),
        0b00 => {
            out.push(tc);
            out.push((hdr.flow_label >> 16) as u8 & 0x0f);
            out.push((hdr.flow_label >> 8) as u8);
            out.push(hdr.flow_label as u8);
        }
        _ => {}
    }
    if !nhc_udp {
        out.push(hdr.next_header.value());
    }
    if hlim == 0b00 {
        out.push(hdr.hop_limit);
    }
    // Source address inline part.
    match (s.ac, s.am) {
        (1, 0b11) => {}
        (1, 0b01) => out.extend_from_slice(&hdr.src.iid()),
        _ => out.extend_from_slice(&hdr.src.0),
    }
    match (d.ac, d.am) {
        (1, 0b11) => {}
        (1, 0b01) => out.extend_from_slice(&hdr.dst.iid()),
        _ => out.extend_from_slice(&hdr.dst.0),
    }

    if nhc_udp {
        // UDP NHC: 11110 C P P. We always carry the checksum (C=0).
        let sp = u16::from_be_bytes([payload[0], payload[1]]);
        let dp = u16::from_be_bytes([payload[2], payload[3]]);
        let cksum = &payload[6..8];
        let in_4bit = |p: u16| (0xf0b0..=0xf0bf).contains(&p);
        if in_4bit(sp) && in_4bit(dp) {
            out.push(0b1111_0011);
            out.push((((sp & 0xf) as u8) << 4) | (dp & 0xf) as u8);
        } else {
            out.push(0b1111_0000);
            out.extend_from_slice(&sp.to_be_bytes());
            out.extend_from_slice(&dp.to_be_bytes());
        }
        out.extend_from_slice(cksum);
        out.extend_from_slice(&payload[8..]);
    } else {
        out.extend_from_slice(payload);
    }
}

fn decompress_addr(
    ac: u8,
    am: u8,
    cid: Option<u8>,
    l2: Option<NodeId>,
    bytes: &mut &[u8],
) -> Option<Ipv6Addr> {
    if ac == 1 {
        let prefix = prefix_for_context(cid.unwrap_or(0))?;
        match am {
            0b11 => {
                let iid = l2?.iid();
                Some(Ipv6Addr::from_parts(prefix, iid))
            }
            0b01 => Some(Ipv6Addr::from_parts(prefix, take_inline(bytes)?)),
            _ => None,
        }
    } else {
        match am {
            0b00 => Some(Ipv6Addr(take_inline(bytes)?)),
            _ => None,
        }
    }
}

/// Splits the next `N` inline bytes off the front of `bytes`.
fn take_inline<const N: usize>(bytes: &mut &[u8]) -> Option<[u8; N]> {
    let (head, rest) = bytes.split_first_chunk::<N>()?;
    *bytes = rest;
    Some(*head)
}

/// Decompressed transport payload: borrowed straight out of the packet
/// buffer when no byte reconstruction was needed (TCP and any other
/// non-NHC next header — the common case), owned only when the UDP NHC
/// header had to be rebuilt in front of the payload.
#[derive(Debug)]
pub enum Payload<'a> {
    /// A slice of the original packet buffer — zero copies made.
    Borrowed(&'a [u8]),
    /// Reconstructed bytes (UDP NHC re-expands the 8-byte header).
    Owned(Vec<u8>),
}

impl Payload<'_> {
    /// The payload bytes, however they are held.
    pub fn as_slice(&self) -> &[u8] {
        match self {
            Payload::Borrowed(b) => b,
            Payload::Owned(v) => v,
        }
    }

    /// Converts to an owned `Vec`, copying only if borrowed.
    pub fn into_vec(self) -> Vec<u8> {
        match self {
            Payload::Borrowed(b) => b.to_vec(),
            Payload::Owned(v) => v,
        }
    }
}

/// Decompresses a 6LoWPAN packet produced by [`compress`] (or the
/// uncompressed fallback). `src_l2`/`dst_l2` are the frame's link-layer
/// addresses, needed to reconstruct elided IIDs. Returns the rebuilt
/// IPv6 header and the transport payload (for UDP, the reconstructed
/// 8-byte UDP header is prepended back).
pub fn decompress(packet: &[u8], src_l2: NodeId, dst_l2: NodeId) -> Option<(Ipv6Header, Vec<u8>)> {
    decompress_view(packet, src_l2, dst_l2).map(|(h, p)| (h, p.into_vec()))
}

/// Copy-free variant of [`decompress`]: the returned [`Payload`]
/// borrows the packet buffer whenever no reconstruction is required,
/// so the rx path can hand the transport layer a slice without a
/// per-segment allocation.
pub fn decompress_view<'a>(
    packet: &'a [u8],
    src_l2: NodeId,
    dst_l2: NodeId,
) -> Option<(Ipv6Header, Payload<'a>)> {
    let mut b = packet;
    if b.is_empty() {
        return None;
    }
    if b[0] == DISPATCH_IPV6 {
        let hdr = Ipv6Header::decode(&b[1..41.min(b.len())])?;
        return Some((hdr, Payload::Borrowed(&b[41..])));
    }
    if b.len() < 2 || b[0] >> 5 != 0b011 {
        return None;
    }
    let b0 = b[0];
    let b1 = b[1];
    b = &b[2..];
    let tf = (b0 >> 3) & 0b11;
    let nh_bit = (b0 >> 2) & 1;
    let hlim_bits = b0 & 0b11;
    let cid = b1 >> 7 == 1;
    let sac = (b1 >> 6) & 1;
    let sam = (b1 >> 4) & 0b11;
    let dac = (b1 >> 2) & 1;
    let dam = b1 & 0b11;
    let (sci, dci) = if cid {
        if b.is_empty() {
            return None;
        }
        let c = b[0];
        b = &b[1..];
        (c >> 4, c & 0x0f)
    } else {
        (0, 0)
    };
    let (tc, flow_label) = match tf {
        0b11 => (0u8, 0u32),
        0b10 => {
            if b.is_empty() {
                return None;
            }
            let tc = b[0];
            b = &b[1..];
            (tc, 0)
        }
        0b00 => {
            if b.len() < 4 {
                return None;
            }
            let tc = b[0];
            let fl = (u32::from(b[1] & 0x0f) << 16) | (u32::from(b[2]) << 8) | u32::from(b[3]);
            b = &b[4..];
            (tc, fl)
        }
        _ => return None, // TF=01 unused by our compressor
    };
    let next_header = if nh_bit == 0 {
        if b.is_empty() {
            return None;
        }
        let nh = b[0];
        b = &b[1..];
        Some(NextHeader::from_value(nh))
    } else {
        None // NHC follows after addresses
    };
    let hop_limit = match hlim_bits {
        0b01 => 1,
        0b10 => 64,
        0b11 => 255,
        _ => {
            if b.is_empty() {
                return None;
            }
            let h = b[0];
            b = &b[1..];
            h
        }
    };
    let src = decompress_addr(sac, sam, Some(sci), Some(src_l2), &mut b)?;
    let dst = decompress_addr(dac, dam, Some(dci), Some(dst_l2), &mut b)?;

    let (next_header, payload) = match next_header {
        Some(nh) => (nh, Payload::Borrowed(b)),
        None => {
            // UDP NHC.
            if b.is_empty() || b[0] & 0b1111_1000 != 0b1111_0000 {
                return None;
            }
            let nhc = b[0];
            b = &b[1..];
            if nhc & 0b100 != 0 {
                return None; // elided checksum unsupported (we never emit it)
            }
            let (sp, dp) = match nhc & 0b11 {
                0b11 => {
                    if b.is_empty() {
                        return None;
                    }
                    let ports = b[0];
                    b = &b[1..];
                    (
                        0xf0b0 | u16::from(ports >> 4),
                        0xf0b0 | u16::from(ports & 0xf),
                    )
                }
                0b00 => {
                    if b.len() < 4 {
                        return None;
                    }
                    let sp = u16::from_be_bytes([b[0], b[1]]);
                    let dp = u16::from_be_bytes([b[2], b[3]]);
                    b = &b[4..];
                    (sp, dp)
                }
                _ => return None,
            };
            if b.len() < 2 {
                return None;
            }
            let cksum = [b[0], b[1]];
            b = &b[2..];
            let udp_len = (8 + b.len()) as u16;
            let mut payload = Vec::with_capacity(8 + b.len());
            payload.extend_from_slice(&sp.to_be_bytes());
            payload.extend_from_slice(&dp.to_be_bytes());
            payload.extend_from_slice(&udp_len.to_be_bytes());
            payload.extend_from_slice(&cksum);
            payload.extend_from_slice(b);
            (NextHeader::Udp, Payload::Owned(payload))
        }
    };

    let hdr = Ipv6Header {
        dscp: tc >> 2,
        ecn: Ecn::from_bits(tc),
        flow_label,
        payload_len: payload.as_slice().len() as u16,
        next_header,
        hop_limit,
        src,
        dst,
    };
    Some((hdr, payload))
}

/// Per-neighbor compressed-header cache. Steady-state TCP traffic to a
/// given next hop repeats the same IPv6 header (modulo payload length,
/// which IPHC never encodes), so the compressed header bytes can be
/// replayed instead of recomputed per segment. Gated to non-UDP next
/// headers: UDP NHC folds payload bytes into the header, so its output
/// is not a pure function of the [`Ipv6Header`].
///
/// Keyed on `(src_l2, dst_l2)` with [`Ipv6Header::same_flow`] deciding
/// hits; a handful of entries covers a node's neighbor set.
#[derive(Debug, Default)]
pub struct IphcCache {
    entries: Vec<CacheEntry>,
    hits: u64,
    misses: u64,
}

#[derive(Debug)]
struct CacheEntry {
    src_l2: NodeId,
    dst_l2: NodeId,
    hdr: Ipv6Header,
    bytes: Vec<u8>,
}

/// Neighbor-pair entries retained; oldest is replaced beyond this.
const IPHC_CACHE_CAP: usize = 8;

impl IphcCache {
    /// A fresh, empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// `(hits, misses)` since construction.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    /// Like [`compress_into`], but replays cached header bytes when the
    /// same flow was compressed to the same neighbor before. Output is
    /// byte-identical to the uncached path in all cases.
    pub fn compress_into(
        &mut self,
        hdr: &Ipv6Header,
        src_l2: NodeId,
        dst_l2: NodeId,
        payload: &[u8],
        out: &mut Vec<u8>,
    ) {
        if hdr.next_header == NextHeader::Udp {
            // NHC consumes payload bytes; not cacheable.
            compress_into(hdr, src_l2, dst_l2, payload, out);
            return;
        }
        if let Some(e) = self
            .entries
            .iter()
            .find(|e| e.src_l2 == src_l2 && e.dst_l2 == dst_l2 && e.hdr.same_flow(hdr))
        {
            self.hits += 1;
            out.clear();
            out.reserve(e.bytes.len() + payload.len());
            out.extend_from_slice(&e.bytes);
            out.extend_from_slice(payload);
            return;
        }
        self.misses += 1;
        compress_into(hdr, src_l2, dst_l2, payload, out);
        let header_len = out.len() - payload.len();
        if self.entries.len() >= IPHC_CACHE_CAP {
            self.entries.remove(0);
        }
        self.entries.push(CacheEntry {
            src_l2,
            dst_l2,
            hdr: *hdr,
            bytes: out[..header_len].to_vec(),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mesh_hdr() -> Ipv6Header {
        Ipv6Header::new(
            NodeId(3).mesh_addr(),
            NodeId(4).mesh_addr(),
            NextHeader::Tcp,
            20,
        )
    }

    #[test]
    fn fully_elided_mesh_local_tcp() {
        let hdr = mesh_hdr();
        let payload = vec![0xabu8; 20];
        let pkt = compress(&hdr, NodeId(3), NodeId(4), &payload);
        // 2 IPHC + 1 CID + 1 NH(TCP) = 4 header bytes.
        assert_eq!(pkt.len(), 4 + payload.len());
        let (back, pl) = decompress(&pkt, NodeId(3), NodeId(4)).expect("decompress");
        assert_eq!(back.src, hdr.src);
        assert_eq!(back.dst, hdr.dst);
        assert_eq!(back.next_header, NextHeader::Tcp);
        assert_eq!(back.hop_limit, 64);
        assert_eq!(pl, payload);
    }

    #[test]
    fn table6_header_range() {
        // The compressed IPv6 header must fall in the paper's 2-28 B
        // range (Table 6). A TCP packet with no payload is all header.
        // Fully-compressible case:
        let len = compress(&mesh_hdr(), NodeId(3), NodeId(4), &[]).len();
        assert!(len <= 6, "near-best case still tiny, got {len}");
        // Worst case: unknown prefixes, odd hop limit.
        let mut h = Ipv6Header::new(
            Ipv6Addr([0x20, 1, 0, 0, 0, 0, 0, 1, 1, 2, 3, 4, 5, 6, 7, 8]),
            Ipv6Addr([0x20, 1, 0, 0, 0, 0, 0, 2, 8, 7, 6, 5, 4, 3, 2, 1]),
            NextHeader::Tcp,
            0,
        );
        h.hop_limit = 37;
        let worst = compress(&h, NodeId(3), NodeId(4), &[]).len();
        assert!(worst >= 28, "full addresses inline, got {worst}");
        assert!(worst <= 40, "still beats the raw 40 B header: {worst}");
    }

    #[test]
    fn cloud_prefix_uses_second_context() {
        let hdr = Ipv6Header::new(
            NodeId(3).mesh_addr(),
            NodeId(9).cloud_addr(),
            NextHeader::Tcp,
            0,
        );
        // dst l2 is the border router (NodeId 1), so the cloud IID is
        // NOT derivable from l2 and rides inline (8 bytes).
        let pkt = compress(&hdr, NodeId(3), NodeId(1), &[]);
        let (back, _) = decompress(&pkt, NodeId(3), NodeId(1)).expect("ok");
        assert_eq!(back.dst, NodeId(9).cloud_addr());
        assert_eq!(back.src, NodeId(3).mesh_addr());
    }

    #[test]
    fn ecn_bits_survive_compression() {
        let mut hdr = mesh_hdr();
        hdr.ecn = Ecn::Ce;
        let pkt = compress(&hdr, NodeId(3), NodeId(4), b"x");
        let (back, _) = decompress(&pkt, NodeId(3), NodeId(4)).unwrap();
        assert_eq!(back.ecn, Ecn::Ce);
    }

    #[test]
    fn nonstandard_hop_limit_inline() {
        let mut hdr = mesh_hdr();
        hdr.hop_limit = 17;
        let pkt = compress(&hdr, NodeId(3), NodeId(4), &[]);
        let (back, _) = decompress(&pkt, NodeId(3), NodeId(4)).unwrap();
        assert_eq!(back.hop_limit, 17);
    }

    #[test]
    fn flow_label_inline_roundtrip() {
        let mut hdr = mesh_hdr();
        hdr.flow_label = 0xbeef;
        hdr.dscp = 5;
        let pkt = compress(&hdr, NodeId(3), NodeId(4), &[]);
        let (back, _) = decompress(&pkt, NodeId(3), NodeId(4)).unwrap();
        assert_eq!(back.flow_label, 0xbeef);
        assert_eq!(back.dscp, 5);
    }

    #[test]
    fn udp_nhc_roundtrip_wellknown_ports() {
        let hdr = Ipv6Header::new(
            NodeId(3).mesh_addr(),
            NodeId(4).mesh_addr(),
            NextHeader::Udp,
            0,
        );
        // 0xf0b1 / 0xf0b2 compress to one ports byte.
        let udp = lln_netip::UdpHeader::encode_datagram(hdr.src, hdr.dst, 0xf0b1, 0xf0b2, b"coap!");
        let pkt = compress(&hdr, NodeId(3), NodeId(4), &udp);
        // Header: 2 IPHC + 1 CID + 1 NHC + 1 ports + 2 cksum = 7 + payload.
        assert_eq!(pkt.len(), 7 + 5);
        let (back, payload) = decompress(&pkt, NodeId(3), NodeId(4)).unwrap();
        assert_eq!(back.next_header, NextHeader::Udp);
        let (uh, body) =
            lln_netip::UdpHeader::decode_datagram(back.src, back.dst, &payload).expect("udp ok");
        assert_eq!(uh.src_port, 0xf0b1);
        assert_eq!(uh.dst_port, 0xf0b2);
        assert_eq!(body, b"coap!");
    }

    #[test]
    fn udp_nhc_roundtrip_general_ports() {
        let hdr = Ipv6Header::new(
            NodeId(3).mesh_addr(),
            NodeId(4).mesh_addr(),
            NextHeader::Udp,
            0,
        );
        let udp = lln_netip::UdpHeader::encode_datagram(hdr.src, hdr.dst, 5683, 49152, b"req");
        let pkt = compress(&hdr, NodeId(3), NodeId(4), &udp);
        let (back, payload) = decompress(&pkt, NodeId(3), NodeId(4)).unwrap();
        let (uh, body) =
            lln_netip::UdpHeader::decode_datagram(back.src, back.dst, &payload).expect("udp ok");
        assert_eq!((uh.src_port, uh.dst_port), (5683, 49152));
        assert_eq!(body, b"req");
    }

    #[test]
    fn uncompressed_fallback_roundtrip() {
        let hdr = mesh_hdr();
        let mut pkt = vec![DISPATCH_IPV6];
        pkt.extend_from_slice(&hdr.encode());
        pkt.extend_from_slice(b"payload");
        let (back, pl) = decompress(&pkt, NodeId(3), NodeId(4)).unwrap();
        assert_eq!(back.src, hdr.src);
        assert_eq!(pl, b"payload");
    }

    #[test]
    fn garbage_rejected() {
        assert!(decompress(&[], NodeId(1), NodeId(2)).is_none());
        assert!(decompress(&[0x00, 0x00], NodeId(1), NodeId(2)).is_none());
        assert!(decompress(&[0x61], NodeId(1), NodeId(2)).is_none());
    }

    #[test]
    fn decompress_view_borrows_for_tcp() {
        let hdr = mesh_hdr();
        let payload = vec![0x5au8; 32];
        let pkt = compress(&hdr, NodeId(3), NodeId(4), &payload);
        let (back, view) = decompress_view(&pkt, NodeId(3), NodeId(4)).expect("ok");
        assert!(
            matches!(view, Payload::Borrowed(_)),
            "TCP payload must borrow"
        );
        assert_eq!(view.as_slice(), &payload[..]);
        assert_eq!(back.src, hdr.src);
        // The wrapper agrees byte-for-byte.
        let (h2, owned) = decompress(&pkt, NodeId(3), NodeId(4)).expect("ok");
        assert_eq!(h2, back);
        assert_eq!(owned, payload);
    }

    #[test]
    fn decompress_view_owns_for_udp_nhc() {
        let hdr = Ipv6Header::new(
            NodeId(3).mesh_addr(),
            NodeId(4).mesh_addr(),
            NextHeader::Udp,
            0,
        );
        let udp = lln_netip::UdpHeader::encode_datagram(hdr.src, hdr.dst, 5683, 49152, b"req");
        let pkt = compress(&hdr, NodeId(3), NodeId(4), &udp);
        let (_, view) = decompress_view(&pkt, NodeId(3), NodeId(4)).expect("ok");
        assert!(matches!(view, Payload::Owned(_)), "NHC must reconstruct");
        assert_eq!(view.as_slice(), &udp[..]);
    }

    #[test]
    fn cache_replays_identical_bytes() {
        let mut cache = IphcCache::new();
        let mut out = Vec::new();
        let hdr = mesh_hdr();
        // Miss, then hits — all byte-identical to the uncached path,
        // across differing payload lengths (IPHC ignores payload_len).
        for (i, n) in [10usize, 25, 3].iter().enumerate() {
            let payload = vec![i as u8; *n];
            cache.compress_into(&hdr, NodeId(3), NodeId(4), &payload, &mut out);
            assert_eq!(out, compress(&hdr, NodeId(3), NodeId(4), &payload));
        }
        assert_eq!(cache.stats(), (2, 1));
        // A different flow (hop limit change) misses and still matches.
        let mut h2 = hdr;
        h2.hop_limit = 17;
        cache.compress_into(&h2, NodeId(3), NodeId(4), b"zz", &mut out);
        assert_eq!(out, compress(&h2, NodeId(3), NodeId(4), b"zz"));
        assert_eq!(cache.stats(), (2, 2));
        // UDP bypasses the cache entirely (NHC eats payload bytes).
        let uh = Ipv6Header::new(hdr.src, hdr.dst, NextHeader::Udp, 0);
        let udp = lln_netip::UdpHeader::encode_datagram(uh.src, uh.dst, 1000, 2000, b"data");
        cache.compress_into(&uh, NodeId(3), NodeId(4), &udp, &mut out);
        assert_eq!(out, compress(&uh, NodeId(3), NodeId(4), &udp));
        assert_eq!(cache.stats(), (2, 2), "UDP neither hits nor fills");
    }

    #[test]
    fn wrong_l2_addr_changes_elided_iid() {
        let hdr = mesh_hdr();
        let pkt = compress(&hdr, NodeId(3), NodeId(4), &[]);
        let (back, _) = decompress(&pkt, NodeId(30), NodeId(40)).unwrap();
        // IIDs were elided, so they reconstruct from the (wrong) L2
        // addresses — demonstrating the elision actually happened.
        assert_eq!(back.src, NodeId(30).mesh_addr());
        assert_eq!(back.dst, NodeId(40).mesh_addr());
    }
}
