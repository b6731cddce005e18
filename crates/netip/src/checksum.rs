//! The Internet checksum (RFC 1071) with the IPv6 pseudo-header
//! (RFC 8200 §8.1), used by both TCP and UDP.

use crate::addr::Ipv6Addr;

/// Incrementally computes a 16-bit one's-complement sum.
#[derive(Clone, Copy, Debug, Default)]
pub struct Checksum {
    sum: u32,
}

impl Checksum {
    /// Starts a fresh checksum computation.
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds `data` into the checksum. Handles odd lengths by padding
    /// the final byte with zero, per RFC 1071.
    ///
    /// Word-at-a-time: RFC 1071 §2(B) parallel summation at 64-bit
    /// width. One's-complement addition works at any multiple-of-16
    /// width because 2^64 ≡ 1 (mod 2^16 − 1): adding whole big-endian
    /// u64 words with end-around carry, then folding the 64-bit sum
    /// down to 16 bits, redistributes every lane shift as carries and
    /// lands on the same value as the serial byte-pair walk. Two
    /// independent accumulators break the add→carry dependency chain
    /// so the CPU retires two 8-byte adds per cycle. The tests check
    /// the folded result against a serial byte-pair reference.
    pub fn add_bytes(&mut self, data: &[u8]) {
        #[inline(always)]
        fn add1c(acc: u64, w: u64) -> u64 {
            let (s, carry) = acc.overflowing_add(w);
            s + u64::from(carry)
        }
        let mut acc: u64 = 0;
        let mut acc2: u64 = 0;
        let mut blocks = data.chunks_exact(16);
        for c in &mut blocks {
            acc = add1c(
                acc,
                u64::from_be_bytes(c[..8].try_into().expect("8-byte half")),
            );
            acc2 = add1c(
                acc2,
                u64::from_be_bytes(c[8..].try_into().expect("8-byte half")),
            );
        }
        acc = add1c(acc, acc2);
        let mut rest = blocks.remainder();
        if rest.len() >= 8 {
            acc = add1c(
                acc,
                u64::from_be_bytes(rest[..8].try_into().expect("8-byte word")),
            );
            rest = &rest[8..];
        }
        let mut pairs = rest.chunks_exact(2);
        for c in &mut pairs {
            acc = add1c(acc, u64::from(u16::from_be_bytes([c[0], c[1]])));
        }
        if let [last] = pairs.remainder() {
            acc = add1c(acc, u64::from(u16::from_be_bytes([*last, 0])));
        }
        // End-around fold to 16 bits (exact for one's-complement sums),
        // so the running u32 sum grows by at most 0xffff per call.
        while acc > 0xffff {
            acc = (acc & 0xffff) + (acc >> 16);
        }
        self.sum += acc as u32;
    }

    /// Folds a big-endian u16 into the checksum.
    pub fn add_u16(&mut self, v: u16) {
        self.sum += u32::from(v);
    }

    /// Folds a big-endian u32 into the checksum.
    pub fn add_u32(&mut self, v: u32) {
        self.add_u16((v >> 16) as u16);
        self.add_u16(v as u16);
    }

    /// Folds the IPv6 pseudo-header: src, dst, upper-layer length, and
    /// next-header value.
    pub fn add_pseudo_header(&mut self, src: Ipv6Addr, dst: Ipv6Addr, next_header: u8, len: u32) {
        self.add_bytes(&src.0);
        self.add_bytes(&dst.0);
        self.add_u32(len);
        self.add_u32(u32::from(next_header));
    }

    /// Finishes the computation, returning the one's-complement result.
    pub fn finish(self) -> u16 {
        let mut sum = self.sum;
        while sum >> 16 != 0 {
            sum = (sum & 0xffff) + (sum >> 16);
        }
        !(sum as u16)
    }
}

/// Convenience: checksum of an upper-layer segment with pseudo-header.
pub fn upper_layer_checksum(src: Ipv6Addr, dst: Ipv6Addr, next_header: u8, payload: &[u8]) -> u16 {
    let mut ck = Checksum::new();
    ck.add_pseudo_header(src, dst, next_header, payload.len() as u32);
    ck.add_bytes(payload);
    ck.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::NodeId;

    impl Checksum {
        /// Reference RFC 1071 implementation: serial byte-pair
        /// additions, the executable specification of the
        /// word-at-a-time fold in [`Checksum::add_bytes`].
        fn add_bytes_bytewise(&mut self, data: &[u8]) {
            let mut chunks = data.chunks_exact(2);
            for c in &mut chunks {
                self.sum += u32::from(u16::from_be_bytes([c[0], c[1]]));
            }
            if let [last] = chunks.remainder() {
                self.sum += u32::from(u16::from_be_bytes([*last, 0]));
            }
        }
    }

    #[test]
    fn rfc1071_example() {
        // RFC 1071 example words: 0x0001 0xf203 f4f5 f6f7 -> sum ddf2 -> checksum 0x220d
        let mut ck = Checksum::new();
        ck.add_bytes(&[0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7]);
        assert_eq!(ck.finish(), !0xddf2);
    }

    #[test]
    fn odd_length_pads_with_zero() {
        let mut a = Checksum::new();
        a.add_bytes(&[0x12, 0x34, 0x56]);
        let mut b = Checksum::new();
        b.add_bytes(&[0x12, 0x34, 0x56, 0x00]);
        assert_eq!(a.finish(), b.finish());
    }

    #[test]
    fn checksum_then_verify_roundtrip() {
        let src = NodeId(1).mesh_addr();
        let dst = NodeId(2).mesh_addr();
        let mut seg = vec![0u8; 31];
        for (i, b) in seg.iter_mut().enumerate() {
            *b = (i * 7) as u8;
        }
        // Put the checksum into bytes 16..18 (arbitrary position for test).
        let c = upper_layer_checksum(src, dst, 6, &seg);
        seg[16] = (c >> 8) as u8;
        seg[17] = (c & 0xff) as u8;
        // Only works if the checksum field was zero when computed; bytes
        // 16..18 were 112,119 — recompute properly:
        seg[16] = 0;
        seg[17] = 0;
        let c = upper_layer_checksum(src, dst, 6, &seg);
        seg[16] = (c >> 8) as u8;
        seg[17] = (c & 0xff) as u8;
        // A segment carrying its checksum sums to zero.
        assert_eq!(upper_layer_checksum(src, dst, 6, &seg), 0);
        // Corrupt one byte -> verification fails.
        seg[3] ^= 0x40;
        assert_ne!(upper_layer_checksum(src, dst, 6, &seg), 0);
    }

    #[test]
    fn incremental_equals_oneshot() {
        let data: Vec<u8> = (0..57).map(|i| (i * 13) as u8).collect();
        let mut a = Checksum::new();
        a.add_bytes(&data);
        let mut b = Checksum::new();
        b.add_bytes(&data[..20]);
        b.add_bytes(&data[20..]);
        // Note: incremental split at even offsets only.
        assert_eq!(a.finish(), b.finish());
    }

    #[test]
    fn word_at_a_time_equals_bytewise_reference() {
        // Deterministic LCG over every length 0..=129 (crossing the
        // 8-byte word boundary, the pair remainder, and the odd tail)
        // plus interleaved incremental adds at even split points.
        let mut state: u64 = 0x243F_6A88_85A3_08D3;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as u8
        };
        for len in 0..=129usize {
            let data: Vec<u8> = (0..len).map(|_| next()).collect();
            let mut fast = Checksum::new();
            fast.add_bytes(&data);
            let mut slow = Checksum::new();
            slow.add_bytes_bytewise(&data);
            assert_eq!(
                fast.finish(),
                slow.finish(),
                "one-shot mismatch at len {len}"
            );
            if len >= 4 {
                let cut = (len / 2) & !1; // even split offset
                let mut fast2 = Checksum::new();
                fast2.add_bytes(&data[..cut]);
                fast2.add_bytes(&data[cut..]);
                let mut mixed = Checksum::new();
                mixed.add_bytes_bytewise(&data[..cut]);
                mixed.add_bytes(&data[cut..]);
                assert_eq!(fast2.finish(), slow.finish(), "split mismatch at len {len}");
                assert_eq!(mixed.finish(), slow.finish(), "mixed mismatch at len {len}");
            }
        }
    }

    #[test]
    fn pseudo_header_differs_by_address() {
        let a = upper_layer_checksum(NodeId(1).mesh_addr(), NodeId(2).mesh_addr(), 6, b"hello");
        let b = upper_layer_checksum(NodeId(1).mesh_addr(), NodeId(3).mesh_addr(), 6, b"hello");
        assert_ne!(a, b);
    }
}
