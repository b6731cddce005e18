//! CoAP message codec (RFC 7252 §3).

/// Message types.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum MsgType {
    /// Confirmable: retransmitted until ACKed.
    Con,
    /// Non-confirmable: fire and forget (the unreliable rows of Table 8).
    Non,
    /// Acknowledgment (may piggyback a response).
    Ack,
    /// Reset.
    Rst,
}

impl MsgType {
    fn bits(self) -> u8 {
        match self {
            MsgType::Con => 0,
            MsgType::Non => 1,
            MsgType::Ack => 2,
            MsgType::Rst => 3,
        }
    }

    fn from_bits(b: u8) -> MsgType {
        match b & 0b11 {
            0 => MsgType::Con,
            1 => MsgType::Non,
            2 => MsgType::Ack,
            _ => MsgType::Rst,
        }
    }
}

/// Request/response codes (class.detail).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct CoapCode(pub u8);

impl CoapCode {
    /// 0.00 Empty.
    pub const EMPTY: CoapCode = CoapCode(0x00);
    /// 0.01 GET.
    pub const GET: CoapCode = CoapCode(0x01);
    /// 0.02 POST.
    pub const POST: CoapCode = CoapCode(0x02);
    /// 2.04 Changed.
    pub const CHANGED: CoapCode = CoapCode(0x44);
    /// 2.05 Content.
    pub const CONTENT: CoapCode = CoapCode(0x45);
    /// 4.04 Not Found.
    pub const NOT_FOUND: CoapCode = CoapCode(0x84);

    /// The class part (0 = request, 2 = success, 4/5 = error).
    pub fn class(self) -> u8 {
        self.0 >> 5
    }
}

/// Option numbers used in the reproduction.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CoapOption {
    /// Uri-Path (11).
    UriPath,
    /// Block2 (23) — blockwise responses.
    Block2,
    /// Block1 (27) — blockwise requests (the §9.1 batching transfer).
    Block1,
    /// Anything else.
    Other(u16),
}

impl CoapOption {
    /// Option number.
    pub fn number(self) -> u16 {
        match self {
            CoapOption::UriPath => 11,
            CoapOption::Block2 => 23,
            CoapOption::Block1 => 27,
            CoapOption::Other(n) => n,
        }
    }
}

/// Block1/Block2 option value (RFC 7959): block number, more flag, and
/// size exponent (size = 2^(szx+4)).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct BlockValue {
    /// Block number.
    pub num: u32,
    /// More blocks follow.
    pub more: bool,
    /// Size exponent: block size = `1 << (szx + 4)`.
    pub szx: u8,
}

impl BlockValue {
    /// Block size in bytes.
    pub fn size(self) -> usize {
        1 << (self.szx + 4)
    }

    /// Encodes to the variable-length option value.
    pub fn encode(self) -> Vec<u8> {
        let v = (self.num << 4) | (u32::from(self.more) << 3) | u32::from(self.szx & 0x7);
        if v == 0 {
            vec![]
        } else if v < 0x100 {
            vec![v as u8]
        } else if v < 0x1_0000 {
            vec![(v >> 8) as u8, v as u8]
        } else {
            vec![(v >> 16) as u8, (v >> 8) as u8, v as u8]
        }
    }

    /// Decodes from an option value.
    pub fn decode(b: &[u8]) -> Option<BlockValue> {
        if b.len() > 3 {
            return None;
        }
        let mut v = 0u32;
        for &x in b {
            v = (v << 8) | u32::from(x);
        }
        Some(BlockValue {
            num: v >> 4,
            more: v & 0x8 != 0,
            szx: (v & 0x7) as u8,
        })
    }
}

/// A CoAP message.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct CoapMessage {
    /// Message type.
    pub mtype: MsgType,
    /// Code.
    pub code: CoapCode,
    /// Message ID (deduplication + ACK matching).
    pub message_id: u16,
    /// Token (request/response matching), up to 8 bytes.
    pub token: Vec<u8>,
    /// Options as (number, value), sorted by number.
    pub options: Vec<(u16, Vec<u8>)>,
    /// Payload.
    pub payload: Vec<u8>,
}

impl CoapMessage {
    /// A bare message.
    pub fn new(mtype: MsgType, code: CoapCode, message_id: u16) -> Self {
        CoapMessage {
            mtype,
            code,
            message_id,
            token: Vec::new(),
            options: Vec::new(),
            payload: Vec::new(),
        }
    }

    /// Adds an option (kept sorted).
    pub fn add_option(&mut self, opt: CoapOption, value: Vec<u8>) {
        self.options.push((opt.number(), value));
        self.options.sort_by_key(|&(n, _)| n);
    }

    /// First value of an option, if present.
    pub fn option(&self, opt: CoapOption) -> Option<&[u8]> {
        self.options
            .iter()
            .find(|&&(n, _)| n == opt.number())
            .map(|(_, v)| v.as_slice())
    }

    /// Convenience: the Block1 option, decoded.
    pub fn block1(&self) -> Option<BlockValue> {
        self.option(CoapOption::Block1).and_then(BlockValue::decode)
    }

    /// Encodes to bytes (a UDP payload).
    pub fn encode(&self) -> Vec<u8> {
        assert!(self.token.len() <= 8, "token too long");
        let mut out = Vec::with_capacity(8 + self.payload.len());
        out.push((1 << 6) | (self.mtype.bits() << 4) | self.token.len() as u8);
        out.push(self.code.0);
        out.extend_from_slice(&self.message_id.to_be_bytes());
        out.extend_from_slice(&self.token);
        let mut last = 0u16;
        for (num, val) in &self.options {
            let delta = num - last;
            last = *num;
            let (dn, dext) = nibble(delta);
            let (ln, lext) = nibble(val.len() as u16);
            out.push((dn << 4) | ln);
            out.extend_from_slice(&dext);
            out.extend_from_slice(&lext);
            out.extend_from_slice(val);
        }
        if !self.payload.is_empty() {
            out.push(0xff);
            out.extend_from_slice(&self.payload);
        }
        out
    }

    /// Decodes from bytes.
    pub fn decode(b: &[u8]) -> Option<CoapMessage> {
        if b.len() < 4 || b[0] >> 6 != 1 {
            return None;
        }
        let tkl = usize::from(b[0] & 0x0f);
        if tkl > 8 || b.len() < 4 + tkl {
            return None;
        }
        let mut msg = CoapMessage {
            mtype: MsgType::from_bits(b[0] >> 4),
            code: CoapCode(b[1]),
            message_id: u16::from_be_bytes([b[2], b[3]]),
            token: b[4..4 + tkl].to_vec(),
            options: Vec::new(),
            payload: Vec::new(),
        };
        let mut rest = &b[4 + tkl..];
        let mut last = 0u16;
        while let Some(&first) = rest.first() {
            if first == 0xff {
                msg.payload = rest[1..].to_vec();
                if msg.payload.is_empty() {
                    return None; // marker with no payload is malformed
                }
                break;
            }
            rest = &rest[1..];
            let (delta, r) = read_ext(first >> 4, rest)?;
            rest = r;
            let (len, r) = read_ext(first & 0x0f, rest)?;
            rest = r;
            let len = usize::from(len);
            if rest.len() < len {
                return None;
            }
            last = last.checked_add(delta)?;
            msg.options.push((last, rest[..len].to_vec()));
            rest = &rest[len..];
        }
        Some(msg)
    }

    /// Wire size in bytes.
    pub fn wire_len(&self) -> usize {
        self.encode().len()
    }
}

fn nibble(v: u16) -> (u8, Vec<u8>) {
    if v < 13 {
        (v as u8, vec![])
    } else if v < 269 {
        (13, vec![(v - 13) as u8])
    } else {
        (14, (v - 269).to_be_bytes().to_vec())
    }
}

fn read_ext(n: u8, rest: &[u8]) -> Option<(u16, &[u8])> {
    match n {
        0..=12 => Some((u16::from(n), rest)),
        13 => {
            let (&x, r) = rest.split_first()?;
            Some((13 + u16::from(x), r))
        }
        14 => {
            if rest.len() < 2 {
                return None;
            }
            // Values near u16::MAX would overflow the +269 bias; such
            // deltas/lengths cannot appear in a well-formed message.
            let v = 269u16.checked_add(u16::from_be_bytes([rest[0], rest[1]]))?;
            Some((v, &rest[2..]))
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CoapMessage {
        let mut m = CoapMessage::new(MsgType::Con, CoapCode::POST, 0x1234);
        m.token = vec![0xaa, 0xbb];
        m.add_option(CoapOption::UriPath, b"sensors".to_vec());
        m.add_option(CoapOption::UriPath, b"anemometer".to_vec());
        m.add_option(
            CoapOption::Block1,
            BlockValue {
                num: 3,
                more: true,
                szx: 5,
            }
            .encode(),
        );
        m.payload = vec![1, 2, 3, 4, 5];
        m
    }

    #[test]
    fn roundtrip_full_message() {
        let m = sample();
        let enc = m.encode();
        let dec = CoapMessage::decode(&enc).expect("decodes");
        assert_eq!(dec, m);
    }

    #[test]
    fn empty_ack_is_four_bytes() {
        let m = CoapMessage::new(MsgType::Ack, CoapCode::EMPTY, 7);
        assert_eq!(m.encode().len(), 4);
        let dec = CoapMessage::decode(&m.encode()).unwrap();
        assert_eq!(dec.mtype, MsgType::Ack);
        assert_eq!(dec.message_id, 7);
    }

    #[test]
    fn block_value_roundtrip() {
        for (num, more, szx) in [
            (0, false, 0),
            (3, true, 5),
            (1000, true, 6),
            (70000, false, 2),
        ] {
            let b = BlockValue { num, more, szx };
            let dec = BlockValue::decode(&b.encode()).unwrap();
            assert_eq!(dec, b);
        }
        assert_eq!(
            BlockValue {
                num: 0,
                more: false,
                szx: 5
            }
            .size(),
            512
        );
    }

    #[test]
    fn block1_accessor() {
        let m = sample();
        let b = m.block1().expect("block1 present");
        assert_eq!(b.num, 3);
        assert!(b.more);
        assert_eq!(b.size(), 512);
    }

    #[test]
    fn repeated_options_preserved_in_order() {
        let m = sample();
        let paths: Vec<&[u8]> = m
            .options
            .iter()
            .filter(|&&(n, _)| n == 11)
            .map(|(_, v)| v.as_slice())
            .collect();
        assert_eq!(paths, [b"sensors".as_slice(), b"anemometer".as_slice()]);
    }

    #[test]
    fn large_option_delta_ext() {
        let mut m = CoapMessage::new(MsgType::Non, CoapCode::GET, 1);
        m.add_option(CoapOption::Other(500), vec![9; 20]);
        let dec = CoapMessage::decode(&m.encode()).unwrap();
        assert_eq!(dec.options[0], (500, vec![9; 20]));
    }

    #[test]
    fn malformed_rejected() {
        assert!(CoapMessage::decode(&[]).is_none());
        assert!(CoapMessage::decode(&[0x00, 0, 0, 0]).is_none(), "version 0");
        // Payload marker with nothing after it.
        let mut enc = CoapMessage::new(MsgType::Con, CoapCode::GET, 1).encode();
        enc.push(0xff);
        assert!(CoapMessage::decode(&enc).is_none());
        // Token length beyond buffer.
        assert!(CoapMessage::decode(&[0x48, 0x01, 0, 1]).is_none());
    }
}
