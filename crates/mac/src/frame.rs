//! IEEE 802.15.4 MAC frame codec.
//!
//! We encode a realistic data-frame header sized to the paper's
//! accounting (Table 6: 23 bytes of MAC overhead per frame): a 2-byte
//! frame control field, 1-byte sequence number, 2-byte PAN id, two
//! 8-byte extended addresses, and a 2-byte FCS — matching the long
//! addressing OpenThread uses for mesh traffic. Commands carry a
//! 1-byte command id (data request, for sleepy polling).

use lln_netip::NodeId;

/// MAC header + FCS overhead of a data frame (Table 6's 23 B).
pub const MAC_OVERHEAD: usize = 23;
/// Maximum MPDU length.
pub const MAX_MPDU: usize = 127;
/// Maximum MAC payload per frame: 127 - 23 = 104 bytes.
pub const MAX_MAC_PAYLOAD: usize = MAX_MPDU - MAC_OVERHEAD;
/// Length of an immediate ACK MPDU (FCF + seq + FCS).
pub const ACK_MPDU_LEN: usize = 5;

/// Frame type (FCF bits 0-2).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FrameType {
    /// Data frame carrying a 6LoWPAN payload.
    Data,
    /// Immediate acknowledgment.
    Ack,
    /// MAC command (we use only DataRequest).
    Command,
}

/// MAC command identifiers.
pub const CMD_DATA_REQUEST: u8 = 0x04;

/// A decoded MAC frame.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct MacFrame {
    /// Frame type.
    pub frame_type: FrameType,
    /// Sequence number (for ACK matching).
    pub seq: u8,
    /// Destination short id (0xffff = broadcast).
    pub dst: NodeId,
    /// Source short id.
    pub src: NodeId,
    /// Frame-pending bit (more indirect data queued at the sender).
    pub pending: bool,
    /// Acknowledgment requested.
    pub ack_request: bool,
    /// Payload (6LoWPAN bytes for data; command id + args for commands).
    pub payload: Vec<u8>,
}

/// The broadcast address.
pub const BROADCAST: NodeId = NodeId(0xffff);

/// Byte-wise lookup table for the reflected CRC-16 below, built at
/// compile time; the tests check it against the bit-serial definition.
const FCS_TABLE: [u16; 256] = {
    let mut table = [0u16; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u16;
        let mut b = 0;
        while b < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0x8408
            } else {
                crc >> 1
            };
            b += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
};

/// Slicing-by-8 tables: `FCS_SLICES[k][x]` is the CRC of byte `x`
/// followed by `k` zero bytes, so eight bytes fold into the CRC with
/// eight independent loads instead of a chain of eight dependent ones.
const FCS_SLICES: [[u16; 256]; 8] = {
    let mut slices = [[0u16; 256]; 8];
    slices[0] = FCS_TABLE;
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = slices[k - 1][i];
            slices[k][i] = (prev >> 8) ^ FCS_TABLE[(prev & 0xff) as usize];
            i += 1;
        }
        k += 1;
    }
    slices
};

/// IEEE 802.15.4 FCS: ITU-T CRC-16 (poly x^16+x^12+x^5+1, reflected
/// 0x8408, init 0), computed over the MHR + payload. Real radios drop
/// frames whose FCS does not verify; the fault-injection layer's
/// bit-error bursts exercise exactly this path.
///
/// Every frame encode and every per-receiver decode pays one pass, so
/// it runs eight bytes at a time (slicing-by-8) and finishes the last
/// `len % 8` bytes one table lookup each.
pub fn fcs16(bytes: &[u8]) -> u16 {
    let t = &FCS_SLICES;
    let mut crc: u16 = 0;
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        // The 16-bit CRC state folds into the first two bytes only.
        let [lo, hi] = crc.to_le_bytes();
        crc = t[7][usize::from(c[0] ^ lo)]
            ^ t[6][usize::from(c[1] ^ hi)]
            ^ t[5][usize::from(c[2])]
            ^ t[4][usize::from(c[3])]
            ^ t[3][usize::from(c[4])]
            ^ t[2][usize::from(c[5])]
            ^ t[1][usize::from(c[6])]
            ^ t[0][usize::from(c[7])];
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ FCS_TABLE[usize::from((crc ^ u16::from(b)) & 0xff)];
    }
    crc
}

impl MacFrame {
    /// Builds a data frame.
    pub fn data(src: NodeId, dst: NodeId, seq: u8, payload: Vec<u8>) -> Self {
        MacFrame {
            frame_type: FrameType::Data,
            seq,
            dst,
            src,
            pending: false,
            ack_request: dst != BROADCAST,
            payload,
        }
    }

    /// Builds an immediate ACK for sequence `seq`.
    pub fn ack(seq: u8, pending: bool) -> Self {
        MacFrame {
            frame_type: FrameType::Ack,
            seq,
            dst: BROADCAST,
            src: BROADCAST,
            pending,
            ack_request: false,
            payload: Vec::new(),
        }
    }

    /// Builds a data-request command (sleepy child polls its parent),
    /// writing the command into `payload` (any previous contents are
    /// discarded; pass a pooled buffer to avoid an allocation).
    pub fn data_request(src: NodeId, dst: NodeId, seq: u8, mut payload: Vec<u8>) -> Self {
        payload.clear();
        payload.push(CMD_DATA_REQUEST);
        MacFrame {
            frame_type: FrameType::Command,
            seq,
            dst,
            src,
            pending: false,
            ack_request: true,
            payload,
        }
    }

    /// True when this is a data-request command.
    pub fn is_data_request(&self) -> bool {
        self.frame_type == FrameType::Command && self.payload.first() == Some(&CMD_DATA_REQUEST)
    }

    /// Encoded MPDU length in bytes (drives air-time computation).
    pub fn mpdu_len(&self) -> usize {
        match self.frame_type {
            FrameType::Ack => ACK_MPDU_LEN,
            _ => MAC_OVERHEAD + self.payload.len(),
        }
    }

    /// Encodes to wire bytes.
    pub fn encode(&self) -> Vec<u8> {
        let mut b = Vec::with_capacity(self.mpdu_len());
        self.encode_into(&mut b);
        b
    }

    /// Encodes to wire bytes into `b`, replacing its contents. Lets a
    /// pooled buffer reuse its allocation across frames.
    pub fn encode_into(&self, b: &mut Vec<u8>) {
        b.clear();
        if self.frame_type == FrameType::Ack {
            let fcf0 = 0b010 | (u8::from(self.pending) << 4);
            b.push(fcf0);
            b.push(0);
            b.push(self.seq);
            b.extend_from_slice(&fcs16(b).to_le_bytes());
            return;
        }
        let ftype = match self.frame_type {
            FrameType::Data => 0b001,
            FrameType::Command => 0b011,
            FrameType::Ack => unreachable!(),
        };
        let fcf0 = ftype | (u8::from(self.pending) << 4) | (u8::from(self.ack_request) << 5);
        // FCF byte 1: long addressing modes (0xcc pattern).
        b.push(fcf0);
        b.push(0xcc);
        b.push(self.seq);
        b.extend_from_slice(&0xfacau16.to_be_bytes()); // PAN id
        b.extend_from_slice(&self.dst.eui64());
        b.extend_from_slice(&self.src.eui64());
        b.extend_from_slice(&self.payload);
        b.extend_from_slice(&fcs16(b).to_le_bytes());
        debug_assert!(b.len() <= MAX_MPDU, "frame too long: {}", b.len());
    }

    /// Decodes from wire bytes, verifying the FCS. Returns `None` for
    /// truncated, malformed, or corrupted frames.
    pub fn decode(b: &[u8]) -> Option<MacFrame> {
        if b.len() < ACK_MPDU_LEN || b.len() > MAX_MPDU {
            return None;
        }
        let stored = u16::from_le_bytes([b[b.len() - 2], b[b.len() - 1]]);
        if fcs16(&b[..b.len() - 2]) != stored {
            return None;
        }
        let ftype = b[0] & 0b111;
        let pending = b[0] & 0b1_0000 != 0;
        let ack_request = b[0] & 0b10_0000 != 0;
        if ftype == 0b010 {
            return Some(MacFrame {
                frame_type: FrameType::Ack,
                seq: b[2],
                dst: BROADCAST,
                src: BROADCAST,
                pending,
                ack_request: false,
                payload: Vec::new(),
            });
        }
        if b.len() < MAC_OVERHEAD {
            return None;
        }
        let frame_type = match ftype {
            0b001 => FrameType::Data,
            0b011 => FrameType::Command,
            _ => return None,
        };
        let eui_to_id = |e: &[u8]| -> Option<NodeId> {
            if e[..6] == [0x02, 0x00, 0x00, 0xff, 0xfe, 0x00] {
                Some(NodeId(u16::from_be_bytes([e[6], e[7]])))
            } else if e == [0xff; 8] {
                Some(BROADCAST)
            } else {
                None
            }
        };
        let dst = eui_to_id(&b[5..13])?;
        let src = eui_to_id(&b[13..21])?;
        Some(MacFrame {
            frame_type,
            seq: b[2],
            dst,
            src,
            pending,
            ack_request,
            payload: b[21..b.len() - 2].to_vec(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn data_frame_roundtrip() {
        let f = MacFrame::data(NodeId(3), NodeId(7), 42, vec![1, 2, 3, 4]);
        let enc = f.encode();
        assert_eq!(enc.len(), MAC_OVERHEAD + 4);
        let dec = MacFrame::decode(&enc).expect("decodes");
        assert_eq!(dec, f);
    }

    #[test]
    fn overhead_matches_table6() {
        let f = MacFrame::data(NodeId(1), NodeId(2), 0, vec![]);
        assert_eq!(f.encode().len(), 23, "Table 6: 23 B IEEE 802.15.4 header");
        assert_eq!(MAX_MAC_PAYLOAD, 104);
    }

    #[test]
    fn max_payload_fits_mpdu() {
        let f = MacFrame::data(NodeId(1), NodeId(2), 0, vec![0; MAX_MAC_PAYLOAD]);
        assert_eq!(f.encode().len(), MAX_MPDU);
    }

    #[test]
    fn ack_roundtrip_with_pending_bit() {
        let a = MacFrame::ack(9, true);
        assert_eq!(a.mpdu_len(), ACK_MPDU_LEN);
        let dec = MacFrame::decode(&a.encode()).unwrap();
        assert_eq!(dec.frame_type, FrameType::Ack);
        assert_eq!(dec.seq, 9);
        assert!(dec.pending);
        let b = MacFrame::ack(9, false);
        assert!(!MacFrame::decode(&b.encode()).unwrap().pending);
    }

    #[test]
    fn data_request_roundtrip() {
        let f = MacFrame::data_request(NodeId(12), NodeId(1), 5, Vec::new());
        let dec = MacFrame::decode(&f.encode()).unwrap();
        assert!(dec.is_data_request());
        assert!(dec.ack_request);
        assert_eq!(dec.src, NodeId(12));
    }

    #[test]
    fn broadcast_frames_skip_ack() {
        let f = MacFrame::data(NodeId(1), BROADCAST, 0, vec![]);
        assert!(!f.ack_request);
        let dec = MacFrame::decode(&f.encode()).unwrap();
        assert_eq!(dec.dst, BROADCAST);
    }

    #[test]
    fn table_crc_matches_bitwise_reference() {
        // The shift-register definition of the FCS; the sliced tables
        // must reproduce it bit for bit at every frame length (the
        // 8-byte path and every tail length) and at every alignment.
        fn bitwise(bytes: &[u8]) -> u16 {
            let mut crc: u16 = 0;
            for &b in bytes {
                crc ^= u16::from(b);
                for _ in 0..8 {
                    crc = if crc & 1 != 0 {
                        (crc >> 1) ^ 0x8408
                    } else {
                        crc >> 1
                    };
                }
            }
            crc
        }
        let mut x: u64 = 0x1234_5678_9abc_def0;
        let buf: Vec<u8> = (0..MAX_MPDU + 8)
            .map(|_| {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                (x >> 33) as u8
            })
            .collect();
        for offset in 0..8 {
            for len in 0..=MAX_MPDU {
                let data = &buf[offset..offset + len];
                assert_eq!(fcs16(data), bitwise(data), "offset {offset} len {len}");
            }
        }
    }

    #[test]
    fn truncated_rejected() {
        let f = MacFrame::data(NodeId(1), NodeId(2), 0, vec![1, 2, 3]);
        let enc = f.encode();
        assert!(MacFrame::decode(&enc[..10]).is_none());
        assert!(MacFrame::decode(&[]).is_none());
    }
}
