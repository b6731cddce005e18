//! TCP segment wire format: the fixed header (RFC 793) plus the options
//! TCPlp uses — MSS (RFC 793), SACK-permitted and SACK (RFC 2018), and
//! Timestamps (RFC 7323). Window scaling is deliberately absent, as in
//! the paper (§4.1): buffers large enough to need it would not fit in
//! LLN-class memory.

use crate::seq::TcpSeq;
use lln_netip::checksum::Checksum;
use lln_netip::Ipv6Addr;

/// Fixed TCP header length (no options).
pub const TCP_HEADER_LEN: usize = 20;
/// Maximum number of SACK blocks carried (RFC 2018 with timestamps).
pub const MAX_SACK_BLOCKS: usize = 3;
/// Maximum option area (the 4-bit data offset tops out at 60 bytes of
/// header). The decoder enforces this bound explicitly so option
/// parsing work — and the memory a segment's options can claim — is
/// capped regardless of what the wire claims.
pub const MAX_OPTIONS_LEN: usize = 40;

/// Minimal bitflags implementation (avoids an external dependency).
macro_rules! bitflags_lite {
    (
        $(#[$meta:meta])*
        pub struct $name:ident: $ty:ty {
            $(const $flag:ident = $val:expr;)*
        }
    ) => {
        $(#[$meta])*
        #[derive(Clone, Copy, PartialEq, Eq, Default)]
        pub struct $name(pub $ty);

        impl $name {
            $(pub const $flag: $name = $name($val);)*

            /// The empty flag set.
            pub const fn empty() -> Self { $name(0) }
            /// True when all bits of `other` are set in `self`.
            pub const fn contains(self, other: $name) -> bool {
                self.0 & other.0 == other.0
            }
            /// True when any bit of `other` is set in `self`.
            pub const fn intersects(self, other: $name) -> bool {
                self.0 & other.0 != 0
            }
            /// Union.
            pub const fn union(self, other: $name) -> $name { $name(self.0 | other.0) }
            /// Removes the bits of `other`.
            pub const fn difference(self, other: $name) -> $name { $name(self.0 & !other.0) }
        }

        impl core::ops::BitOr for $name {
            type Output = $name;
            fn bitor(self, rhs: $name) -> $name { self.union(rhs) }
        }
        impl core::ops::BitOrAssign for $name {
            fn bitor_assign(&mut self, rhs: $name) { self.0 |= rhs.0; }
        }

        impl core::fmt::Debug for $name {
            fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
                let mut first = true;
                $(
                    if self.contains($name::$flag) {
                        if !first { write!(f, "|")?; }
                        write!(f, stringify!($flag))?;
                        first = false;
                    }
                )*
                if first { write!(f, "(none)")?; }
                Ok(())
            }
        }
    };
}

bitflags_lite! {
    /// TCP header flags (including the ECN bits of RFC 3168).
    pub struct Flags: u8 {
        const FIN = 0x01;
        const SYN = 0x02;
        const RST = 0x04;
        const PSH = 0x08;
        const ACK = 0x10;
        const URG = 0x20;
        const ECE = 0x40;
        const CWR = 0x80;
    }
}

/// A SACK block: `[start, end)` of received out-of-order data.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct SackBlock {
    /// First sequence number of the block.
    pub start: TcpSeq,
    /// One past the last sequence number of the block.
    pub end: TcpSeq,
}

/// Timestamps option payload (RFC 7323).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Timestamps {
    /// Sender's timestamp value (TSval).
    pub value: u32,
    /// Echoed peer timestamp (TSecr).
    pub echo: u32,
}

/// A borrowed view of a decoded TCP segment: every header field by
/// value (they are a few dozen bytes) plus the payload as a slice into
/// the caller's receive buffer. This is the zero-copy datapath type —
/// [`Segment::decode_view`] produces it without allocating, and the
/// socket's input path consumes it directly, so the steady-state rx
/// path never copies payload bytes until they land in the receive
/// buffer. [`SegmentView::to_owned`] materialises a [`Segment`] for
/// the rare paths that must store one (listener, adversary, queues).
#[derive(Clone, Copy, Debug)]
pub struct SegmentView<'a> {
    /// Source port.
    pub src_port: u16,
    /// Destination port.
    pub dst_port: u16,
    /// Sequence number of the first payload byte (or of SYN/FIN).
    pub seq: TcpSeq,
    /// Acknowledgment number (valid when ACK flag set).
    pub ack: TcpSeq,
    /// Control flags.
    pub flags: Flags,
    /// Advertised receive window.
    pub window: u16,
    /// MSS option (SYN segments only).
    pub mss: Option<u16>,
    /// SACK-permitted option (SYN segments only).
    pub sack_permitted: bool,
    /// Decoded SACK blocks, stored inline (no heap).
    sack_buf: [SackBlock; MAX_SACK_BLOCKS],
    sack_len: u8,
    /// Timestamps option.
    pub timestamps: Option<Timestamps>,
    /// Payload bytes, borrowed from the wire buffer.
    pub payload: &'a [u8],
}

impl<'a> SegmentView<'a> {
    /// The decoded SACK blocks.
    pub fn sack_blocks(&self) -> &[SackBlock] {
        &self.sack_buf[..usize::from(self.sack_len)]
    }

    /// Sequence space the segment occupies (payload + SYN + FIN).
    pub fn seq_len(&self) -> u32 {
        let mut n = self.payload.len() as u32;
        if self.flags.contains(Flags::SYN) {
            n += 1;
        }
        if self.flags.contains(Flags::FIN) {
            n += 1;
        }
        n
    }

    /// Materialises an owned [`Segment`] (copies the payload).
    pub fn to_owned(&self) -> Segment {
        Segment {
            src_port: self.src_port,
            dst_port: self.dst_port,
            seq: self.seq,
            ack: self.ack,
            flags: self.flags,
            window: self.window,
            mss: self.mss,
            sack_permitted: self.sack_permitted,
            sack_blocks: self.sack_blocks().to_vec(),
            timestamps: self.timestamps,
            payload: self.payload.to_vec(),
        }
    }
}

/// A decoded (or to-be-encoded) TCP segment header plus payload.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Segment {
    /// Source port.
    pub src_port: u16,
    /// Destination port.
    pub dst_port: u16,
    /// Sequence number of the first payload byte (or of SYN/FIN).
    pub seq: TcpSeq,
    /// Acknowledgment number (valid when ACK flag set).
    pub ack: TcpSeq,
    /// Control flags.
    pub flags: Flags,
    /// Advertised receive window.
    pub window: u16,
    /// MSS option (SYN segments only).
    pub mss: Option<u16>,
    /// SACK-permitted option (SYN segments only).
    pub sack_permitted: bool,
    /// SACK blocks.
    pub sack_blocks: Vec<SackBlock>,
    /// Timestamps option.
    pub timestamps: Option<Timestamps>,
    /// Payload bytes.
    pub payload: Vec<u8>,
}

impl Segment {
    /// A bare segment with the given endpoints and flags, no options.
    pub fn new(src_port: u16, dst_port: u16, seq: TcpSeq, ack: TcpSeq, flags: Flags) -> Self {
        Segment {
            src_port,
            dst_port,
            seq,
            ack,
            flags,
            window: 0,
            mss: None,
            sack_permitted: false,
            sack_blocks: Vec::new(),
            timestamps: None,
            payload: Vec::new(),
        }
    }

    /// Sequence space the segment occupies (payload + SYN + FIN).
    pub fn seq_len(&self) -> u32 {
        let mut n = self.payload.len() as u32;
        if self.flags.contains(Flags::SYN) {
            n += 1;
        }
        if self.flags.contains(Flags::FIN) {
            n += 1;
        }
        n
    }

    /// Size of the encoded options, padded to a multiple of 4.
    pub fn options_len(&self) -> usize {
        let mut n = 0;
        if self.mss.is_some() {
            n += 4;
        }
        if self.sack_permitted {
            n += 2;
        }
        if self.timestamps.is_some() {
            n += 10;
        }
        if !self.sack_blocks.is_empty() {
            n += 2 + 8 * self.sack_blocks.len().min(MAX_SACK_BLOCKS);
        }
        (n + 3) & !3
    }

    /// Total encoded length (header + options + payload).
    pub fn wire_len(&self) -> usize {
        TCP_HEADER_LEN + self.options_len() + self.payload.len()
    }

    /// A borrowed view of this segment (for feeding the socket's
    /// zero-copy input path with an owned segment in hand).
    pub fn view(&self) -> SegmentView<'_> {
        let mut sack_buf = [SackBlock {
            start: TcpSeq(0),
            end: TcpSeq(0),
        }; MAX_SACK_BLOCKS];
        let n = self.sack_blocks.len().min(MAX_SACK_BLOCKS);
        sack_buf[..n].copy_from_slice(&self.sack_blocks[..n]);
        SegmentView {
            src_port: self.src_port,
            dst_port: self.dst_port,
            seq: self.seq,
            ack: self.ack,
            flags: self.flags,
            window: self.window,
            mss: self.mss,
            sack_permitted: self.sack_permitted,
            sack_buf,
            sack_len: n as u8,
            timestamps: self.timestamps,
            payload: &self.payload,
        }
    }

    /// Encodes the segment into `out` (cleared first), computing the
    /// RFC 1071 checksum over the IPv6 pseudo-header for `src`/`dst`
    /// in the same pass: the header/option area is summed once as it
    /// is finished, and the payload is summed word-at-a-time right
    /// after it is appended, while the bytes are hot — there is no
    /// whole-segment checksum re-walk. `out` is a caller-owned scratch
    /// buffer meant to be pooled and reused across segments; its
    /// capacity is retained between calls.
    pub fn encode_into(&self, src: Ipv6Addr, dst: Ipv6Addr, out: &mut Vec<u8>) {
        out.clear();
        let opt_len = self.options_len();
        let data_off = TCP_HEADER_LEN + opt_len;
        let total = data_off + self.payload.len();
        out.reserve(total);
        out.extend_from_slice(&self.src_port.to_be_bytes());
        out.extend_from_slice(&self.dst_port.to_be_bytes());
        out.extend_from_slice(&self.seq.0.to_be_bytes());
        out.extend_from_slice(&self.ack.0.to_be_bytes());
        out.push(((data_off / 4) as u8) << 4);
        out.push(self.flags.0);
        out.extend_from_slice(&self.window.to_be_bytes());
        out.extend_from_slice(&[0, 0]); // checksum placeholder
        out.extend_from_slice(&[0, 0]); // urgent pointer (unused, §4.1)

        // Options.
        if let Some(mss) = self.mss {
            out.extend_from_slice(&[2, 4]);
            out.extend_from_slice(&mss.to_be_bytes());
        }
        if self.sack_permitted {
            out.extend_from_slice(&[4, 2]);
        }
        if let Some(ts) = self.timestamps {
            out.extend_from_slice(&[8, 10]);
            out.extend_from_slice(&ts.value.to_be_bytes());
            out.extend_from_slice(&ts.echo.to_be_bytes());
        }
        if !self.sack_blocks.is_empty() {
            let nblocks = self.sack_blocks.len().min(MAX_SACK_BLOCKS);
            out.extend_from_slice(&[5, (2 + 8 * nblocks) as u8]);
            for b in &self.sack_blocks[..nblocks] {
                out.extend_from_slice(&b.start.0.to_be_bytes());
                out.extend_from_slice(&b.end.0.to_be_bytes());
            }
        }
        while out.len() < data_off {
            out.push(1); // NOP padding
        }

        let mut ck = Checksum::new();
        ck.add_pseudo_header(src, dst, 6, total as u32);
        ck.add_bytes(out); // header + options (even length: data_off % 4 == 0)
        out.extend_from_slice(&self.payload);
        ck.add_bytes(&self.payload);
        let c = ck.finish();
        out[16..18].copy_from_slice(&c.to_be_bytes());
    }

    /// Encodes the segment into a fresh buffer. Allocation-churn
    /// convenience wrapper over [`Segment::encode_into`]; the datapath
    /// uses `encode_into` with a pooled buffer.
    pub fn encode(&self, src: Ipv6Addr, dst: Ipv6Addr) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_into(src, dst, &mut out);
        out
    }

    /// Decodes and checksum-verifies a segment without copying the
    /// payload: the returned view borrows its payload slice from
    /// `bytes`. Returns `None` on any malformation (short header, bad
    /// offset, bad checksum, malformed options) — the acceptance rules
    /// are exactly those of [`Segment::decode`], which is a wrapper
    /// over this.
    pub fn decode_view(src: Ipv6Addr, dst: Ipv6Addr, bytes: &[u8]) -> Option<SegmentView<'_>> {
        if bytes.len() < TCP_HEADER_LEN {
            return None;
        }
        let mut ck = Checksum::new();
        ck.add_pseudo_header(src, dst, 6, bytes.len() as u32);
        ck.add_bytes(bytes);
        if ck.finish() != 0 {
            return None;
        }
        let data_off = usize::from(bytes[12] >> 4) * 4;
        if data_off < TCP_HEADER_LEN
            || data_off > bytes.len()
            || data_off > TCP_HEADER_LEN + MAX_OPTIONS_LEN
        {
            return None;
        }
        let mut seg = SegmentView {
            src_port: u16::from_be_bytes([bytes[0], bytes[1]]),
            dst_port: u16::from_be_bytes([bytes[2], bytes[3]]),
            seq: TcpSeq(u32::from_be_bytes([bytes[4], bytes[5], bytes[6], bytes[7]])),
            ack: TcpSeq(u32::from_be_bytes([
                bytes[8], bytes[9], bytes[10], bytes[11],
            ])),
            flags: Flags(bytes[13]),
            window: u16::from_be_bytes([bytes[14], bytes[15]]),
            mss: None,
            sack_permitted: false,
            sack_buf: [SackBlock {
                start: TcpSeq(0),
                end: TcpSeq(0),
            }; MAX_SACK_BLOCKS],
            sack_len: 0,
            timestamps: None,
            payload: &bytes[data_off..],
        };
        // Options.
        let mut opts = &bytes[TCP_HEADER_LEN..data_off];
        while let Some(&kind) = opts.first() {
            match kind {
                0 => break,             // end of options
                1 => opts = &opts[1..], // NOP
                _ => {
                    if opts.len() < 2 {
                        return None;
                    }
                    let len = usize::from(opts[1]);
                    if len < 2 || len > opts.len() {
                        return None;
                    }
                    let body = &opts[2..len];
                    match kind {
                        2 if body.len() == 2 => {
                            seg.mss = Some(u16::from_be_bytes([body[0], body[1]]));
                        }
                        4 if body.is_empty() => seg.sack_permitted = true,
                        8 if body.len() == 8 => {
                            seg.timestamps = Some(Timestamps {
                                value: u32::from_be_bytes(body[0..4].try_into().unwrap()),
                                echo: u32::from_be_bytes(body[4..8].try_into().unwrap()),
                            });
                        }
                        5 if body.len().is_multiple_of(8) && !body.is_empty() => {
                            // An in-spec option area fits at most 4
                            // blocks; we honour at most MAX_SACK_BLOCKS
                            // (what we'd ever emit) so an oversized or
                            // repeated SACK option cannot grow the
                            // decoded segment beyond a fixed bound.
                            for ch in body.chunks_exact(8) {
                                if usize::from(seg.sack_len) >= MAX_SACK_BLOCKS {
                                    break;
                                }
                                seg.sack_buf[usize::from(seg.sack_len)] = SackBlock {
                                    start: TcpSeq(u32::from_be_bytes(ch[0..4].try_into().unwrap())),
                                    end: TcpSeq(u32::from_be_bytes(ch[4..8].try_into().unwrap())),
                                };
                                seg.sack_len += 1;
                            }
                        }
                        _ => {} // unknown option: skip
                    }
                    opts = &opts[len..];
                }
            }
        }
        Some(seg)
    }

    /// Decodes and checksum-verifies a segment into an owned
    /// [`Segment`] (copies the payload). Wrapper over
    /// [`Segment::decode_view`] — acceptance semantics are identical
    /// by construction.
    pub fn decode(src: Ipv6Addr, dst: Ipv6Addr, bytes: &[u8]) -> Option<Segment> {
        Segment::decode_view(src, dst, bytes).map(|v| v.to_owned())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lln_netip::NodeId;

    fn addrs() -> (Ipv6Addr, Ipv6Addr) {
        (NodeId(1).mesh_addr(), NodeId(2).mesh_addr())
    }

    fn full_segment() -> Segment {
        let mut s = Segment::new(
            100,
            200,
            TcpSeq(1000),
            TcpSeq(2000),
            Flags::ACK | Flags::PSH,
        );
        s.window = 1848;
        s.timestamps = Some(Timestamps {
            value: 111,
            echo: 222,
        });
        s.sack_blocks = vec![
            SackBlock {
                start: TcpSeq(5000),
                end: TcpSeq(5460),
            },
            SackBlock {
                start: TcpSeq(6000),
                end: TcpSeq(6460),
            },
        ];
        s.payload = b"hello lln world".to_vec();
        s
    }

    #[test]
    fn roundtrip_full_options() {
        let (src, dst) = addrs();
        let seg = full_segment();
        let enc = seg.encode(src, dst);
        let dec = Segment::decode(src, dst, &enc).expect("decodes");
        assert_eq!(dec, seg);
    }

    #[test]
    fn roundtrip_syn_options() {
        let (src, dst) = addrs();
        let mut s = Segment::new(1, 2, TcpSeq(7), TcpSeq(0), Flags::SYN);
        s.mss = Some(460);
        s.sack_permitted = true;
        s.timestamps = Some(Timestamps { value: 1, echo: 0 });
        let enc = s.encode(src, dst);
        let dec = Segment::decode(src, dst, &enc).unwrap();
        assert_eq!(dec.mss, Some(460));
        assert!(dec.sack_permitted);
        assert_eq!(dec, s);
    }

    #[test]
    fn checksum_failure_rejected() {
        let (src, dst) = addrs();
        let mut enc = full_segment().encode(src, dst);
        enc[24] ^= 0xff;
        assert!(Segment::decode(src, dst, &enc).is_none());
    }

    #[test]
    fn wrong_addresses_rejected() {
        let (src, dst) = addrs();
        let enc = full_segment().encode(src, dst);
        // A different destination changes the pseudo-header sum.
        assert!(Segment::decode(src, NodeId(99).mesh_addr(), &enc).is_none());
    }

    #[test]
    fn seq_len_counts_syn_fin() {
        let mut s = Segment::new(1, 2, TcpSeq(0), TcpSeq(0), Flags::SYN);
        assert_eq!(s.seq_len(), 1);
        s.flags |= Flags::FIN;
        assert_eq!(s.seq_len(), 2);
        s.payload = vec![0; 10];
        assert_eq!(s.seq_len(), 12);
    }

    #[test]
    fn options_len_is_padded() {
        let mut s = Segment::new(1, 2, TcpSeq(0), TcpSeq(0), Flags::SYN);
        s.sack_permitted = true; // 2 bytes -> pads to 4
        assert_eq!(s.options_len(), 4);
        s.mss = Some(460); // 6 -> pads to 8
        assert_eq!(s.options_len(), 8);
        s.timestamps = Some(Timestamps { value: 0, echo: 0 }); // 16 exact
        assert_eq!(s.options_len(), 16);
    }

    #[test]
    fn header_len_matches_paper_range() {
        // Paper Table 6: TCP header 20 B to 44 B. Our maximum-option
        // segment (timestamps + 3 SACK blocks) must stay within that.
        let mut s = full_segment();
        s.sack_blocks.push(SackBlock {
            start: TcpSeq(7000),
            end: TcpSeq(7460),
        });
        let hdr = TCP_HEADER_LEN + s.options_len();
        assert!(hdr <= 60, "TCP header with options {hdr} exceeds 60");
        assert!(hdr >= 20);
    }

    #[test]
    fn sack_blocks_truncated_to_three() {
        let (src, dst) = addrs();
        let mut s = Segment::new(1, 2, TcpSeq(0), TcpSeq(0), Flags::ACK);
        for i in 0..5u32 {
            s.sack_blocks.push(SackBlock {
                start: TcpSeq(i * 1000),
                end: TcpSeq(i * 1000 + 100),
            });
        }
        let enc = s.encode(src, dst);
        let dec = Segment::decode(src, dst, &enc).unwrap();
        assert_eq!(dec.sack_blocks.len(), MAX_SACK_BLOCKS);
    }

    /// Hand-builds a raw segment with an arbitrary option area and a
    /// valid checksum — the adversary's view of the wire.
    fn raw_with_options(src: Ipv6Addr, dst: Ipv6Addr, opts: &[u8]) -> Vec<u8> {
        assert!(opts.len().is_multiple_of(4) && opts.len() <= 40);
        let data_off = TCP_HEADER_LEN + opts.len();
        let mut out = Vec::new();
        out.extend_from_slice(&100u16.to_be_bytes());
        out.extend_from_slice(&200u16.to_be_bytes());
        out.extend_from_slice(&1000u32.to_be_bytes());
        out.extend_from_slice(&2000u32.to_be_bytes());
        out.push(((data_off / 4) as u8) << 4);
        out.push(Flags::ACK.0);
        out.extend_from_slice(&512u16.to_be_bytes());
        out.extend_from_slice(&[0, 0]); // checksum placeholder
        out.extend_from_slice(&[0, 0]);
        out.extend_from_slice(opts);
        let mut ck = Checksum::new();
        ck.add_pseudo_header(src, dst, 6, out.len() as u32);
        ck.add_bytes(&out);
        let c = ck.finish();
        out[16..18].copy_from_slice(&c.to_be_bytes());
        out
    }

    #[test]
    fn oversized_raw_sack_list_capped_at_three() {
        let (src, dst) = addrs();
        // kind 5, len 34: four SACK blocks — one more than we ever emit.
        let mut opts = vec![5u8, 34];
        for i in 0..4u32 {
            opts.extend_from_slice(&(i * 1000).to_be_bytes());
            opts.extend_from_slice(&(i * 1000 + 100).to_be_bytes());
        }
        opts.extend_from_slice(&[1, 1]); // NOP padding to 36
        let raw = raw_with_options(src, dst, &opts);
        let seg = Segment::decode(src, dst, &raw).expect("valid checksum");
        assert_eq!(seg.sack_blocks.len(), MAX_SACK_BLOCKS);
    }

    #[test]
    fn pathological_nop_run_parses_within_bound() {
        let (src, dst) = addrs();
        // The full 40-byte option area as NOPs: maximum parser work.
        let raw = raw_with_options(src, dst, &[1u8; MAX_OPTIONS_LEN]);
        let seg = Segment::decode(src, dst, &raw).expect("decodes");
        assert!(seg.sack_blocks.is_empty());
        assert!(seg.timestamps.is_none());
    }

    #[test]
    fn zero_length_and_overrunning_options_rejected() {
        let (src, dst) = addrs();
        // Unknown kind with len 0 would loop forever in a naive parser.
        let raw = raw_with_options(src, dst, &[7, 0, 1, 1]);
        assert!(Segment::decode(src, dst, &raw).is_none());
        // Option length running past the option area.
        let raw = raw_with_options(src, dst, &[5, 200, 1, 1]);
        assert!(Segment::decode(src, dst, &raw).is_none());
        // Empty SACK option body is treated as malformed noise, not a
        // block list (kind 5 len 2).
        let raw = raw_with_options(src, dst, &[5, 2, 1, 1]);
        let seg = Segment::decode(src, dst, &raw).expect("harmless");
        assert!(seg.sack_blocks.is_empty());
    }

    #[test]
    fn truncated_and_garbage_input_rejected() {
        let (src, dst) = addrs();
        assert!(Segment::decode(src, dst, &[0u8; 10]).is_none());
        let enc = full_segment().encode(src, dst);
        assert!(Segment::decode(src, dst, &enc[..19]).is_none());
    }

    #[test]
    fn encode_into_reused_buffer_matches_fresh_encode() {
        let (src, dst) = addrs();
        let mut buf = Vec::new();
        // Reuse one scratch buffer across differently-sized segments;
        // every encoding must be byte-identical to a fresh encode.
        let mut small = Segment::new(9, 10, TcpSeq(1), TcpSeq(2), Flags::ACK);
        small.payload = vec![0x11; 8];
        let big = full_segment();
        for seg in [&big, &small, &big] {
            seg.encode_into(src, dst, &mut buf);
            assert_eq!(buf, seg.encode(src, dst));
        }
    }

    #[test]
    fn decode_view_matches_owned_decode() {
        let (src, dst) = addrs();
        let seg = full_segment();
        let enc = seg.encode(src, dst);
        let view = Segment::decode_view(src, dst, &enc).expect("decodes");
        assert_eq!(view.to_owned(), seg);
        assert_eq!(view.payload, &seg.payload[..]);
        assert_eq!(view.sack_blocks(), &seg.sack_blocks[..]);
        assert_eq!(view.seq_len(), seg.seq_len());
        // Corrupt -> both reject.
        let mut bad = enc.clone();
        bad[30] ^= 0x01;
        assert!(Segment::decode_view(src, dst, &bad).is_none());
        assert!(Segment::decode(src, dst, &bad).is_none());
    }

    #[test]
    fn view_of_owned_segment_roundtrips() {
        let seg = full_segment();
        let v = seg.view();
        assert_eq!(v.to_owned(), seg);
        assert_eq!(v.seq_len(), seg.seq_len());
    }

    #[test]
    fn flags_debug_format() {
        let f = Flags::SYN | Flags::ACK;
        assert_eq!(format!("{f:?}"), "SYN|ACK");
        assert_eq!(format!("{:?}", Flags::empty()), "(none)");
    }

    #[test]
    fn flags_set_operations() {
        let f = Flags::ACK | Flags::ECE;
        assert!(f.contains(Flags::ACK));
        assert!(f.intersects(Flags::ECE | Flags::CWR));
        assert!(!f.contains(Flags::ACK | Flags::CWR));
        assert_eq!(f.difference(Flags::ECE), Flags::ACK);
    }
}
