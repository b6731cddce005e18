//! Fuzz-style decoder robustness: every wire-decode path in the stack
//! must reject arbitrary garbage with `None`, never a panic.
//!
//! The chaos tier's `BitErrorBurst` hands *corrupted frames* to the
//! real decoders (the FCS/checksum rejection path), so the invariant
//! here is load-bearing: a decoder panic on a flipped bit would crash
//! the whole simulated mote. Three attack shapes: pure random bytes,
//! bit-flipped valid encodings, and truncation sweeps of valid
//! encodings.

use tcplp_repro::coap::{CoapCode, CoapMessage, CoapOption, MsgType};
use tcplp_repro::mac::frame::{FrameType, MacFrame};
use tcplp_repro::netip::{Ipv6Addr, Ipv6Header, NextHeader, NodeId, UdpHeader};
use tcplp_repro::sim::{Instant, Rng};
use tcplp_repro::sixlowpan::{compress, decompress, fragment, Reassembler};
use tcplp_repro::tcplp::{Flags, Segment, TcpSeq, Timestamps};

fn addr(i: u16) -> Ipv6Addr {
    NodeId(i).mesh_addr()
}

fn random_bytes(rng: &mut Rng, len: usize) -> Vec<u8> {
    (0..len).map(|_| rng.next_u64() as u8).collect()
}

/// Feeds one byte string through every decoder in the stack. Returns
/// how many decoders accepted it (only to keep the calls observable).
fn poke_all_decoders(bytes: &[u8], reasm: &mut Reassembler, now: Instant) -> usize {
    let a = addr(1);
    let b = addr(2);
    let mut accepted = 0;
    accepted += usize::from(MacFrame::decode(bytes).is_some());
    accepted += usize::from(decompress(bytes, NodeId(1), NodeId(2)).is_some());
    accepted += usize::from(Segment::decode(a, b, bytes).is_some());
    accepted += usize::from(Ipv6Header::decode(bytes).is_some());
    accepted += usize::from(UdpHeader::decode_datagram(a, b, bytes).is_some());
    accepted += usize::from(CoapMessage::decode(bytes).is_some());
    accepted += usize::from(reasm.offer(NodeId(1), bytes, now).is_some());
    accepted
}

#[test]
fn random_bytes_never_panic_any_decoder() {
    let mut rng = Rng::new(0xF022);
    let mut reasm = Reassembler::default();
    for round in 0..4000 {
        let len = (rng.next_u64() % 160) as usize;
        let bytes = random_bytes(&mut rng, len);
        poke_all_decoders(&bytes, &mut reasm, Instant::from_millis(round));
    }
}

/// Valid encodings of every layer, used as mutation seeds.
fn valid_encodings() -> Vec<Vec<u8>> {
    let a = addr(1);
    let b = addr(2);
    let mut out = Vec::new();

    // MAC data frame, command frame, and ACK.
    let data = MacFrame {
        frame_type: FrameType::Data,
        seq: 7,
        dst: NodeId(2),
        src: NodeId(1),
        pending: false,
        ack_request: true,
        payload: (0u8..80).collect(),
    };
    out.push(data.encode());
    let ack = MacFrame {
        frame_type: FrameType::Ack,
        payload: Vec::new(),
        ..data.clone()
    };
    out.push(ack.encode());

    // TCP segment with options, inside an IPv6 header's payload.
    let mut seg = Segment::new(
        49152,
        80,
        TcpSeq(0x1000),
        TcpSeq(0x2000),
        Flags::ACK | Flags::PSH,
    );
    seg.window = 1848;
    seg.timestamps = Some(Timestamps {
        value: 1234,
        echo: 987,
    });
    seg.payload = (0u8..64).collect();
    out.push(seg.encode(a, b));
    let mut syn = Segment::new(49152, 80, TcpSeq(1), TcpSeq(0), Flags::SYN);
    syn.mss = Some(462);
    syn.sack_permitted = true;
    out.push(syn.encode(a, b));

    // Bare IPv6 header and a UDP datagram.
    let hdr = Ipv6Header::new(a, b, NextHeader::Udp, 30);
    out.push(hdr.encode().to_vec());
    out.push(UdpHeader::encode_datagram(a, b, 49001, 5683, &[9u8; 22]));

    // IPHC-compressed TCP/IPv6 packet.
    let tcp_hdr = Ipv6Header::new(a, b, NextHeader::Tcp, 84);
    out.push(compress(&tcp_hdr, NodeId(1), NodeId(2), &seg.encode(a, b)));

    // CoAP POST with Uri-Path and a payload.
    let mut msg = CoapMessage::new(MsgType::Con, CoapCode::POST, 0xBEEF);
    msg.token = vec![1, 2, 3, 4];
    msg.add_option(CoapOption::UriPath, b"sensors".to_vec());
    msg.payload = (0u8..40).collect();
    out.push(msg.encode());

    out
}

#[test]
fn bit_flipped_valid_encodings_never_panic() {
    let seeds = valid_encodings();
    let mut rng = Rng::new(0xB17F);
    let mut reasm = Reassembler::default();
    let mut round = 0u64;
    for seed in &seeds {
        for _ in 0..600 {
            let mut bytes = seed.clone();
            // 1-4 independent bit flips.
            let flips = 1 + (rng.next_u64() % 4) as usize;
            for _ in 0..flips {
                let bit = (rng.next_u64() % (bytes.len() as u64 * 8)) as usize;
                bytes[bit / 8] ^= 1 << (bit % 8);
            }
            poke_all_decoders(&bytes, &mut reasm, Instant::from_millis(round));
            round += 1;
        }
    }
}

#[test]
fn truncated_valid_encodings_never_panic() {
    let seeds = valid_encodings();
    let mut reasm = Reassembler::default();
    let mut round = 0u64;
    for seed in &seeds {
        for cut in 0..seed.len() {
            poke_all_decoders(&seed[..cut], &mut reasm, Instant::from_millis(round));
            round += 1;
        }
    }
}

#[test]
fn corrupted_fragment_streams_never_panic() {
    // 6LoWPAN fragments of a real packet, with flips in the fragment
    // headers (tag, size, offset) and bodies, offered in odd orders.
    let a = addr(1);
    let b = addr(2);
    let hdr = Ipv6Header::new(a, b, NextHeader::Tcp, 400);
    let mut seg = Segment::new(49152, 80, TcpSeq(5), TcpSeq(9), Flags::ACK);
    seg.payload = vec![0x7E; 400];
    let packet = compress(&hdr, NodeId(1), NodeId(2), &seg.encode(a, b));
    let mut rng = Rng::new(0xF4A6);
    for round in 0..400u64 {
        let mut reasm = Reassembler::default();
        let frags = fragment(&packet, round as u16, 96);
        for (k, f) in frags.enumerate() {
            let mut bytes = f.to_vec();
            let bit = (rng.next_u64() % (bytes.len() as u64 * 8)) as usize;
            bytes[bit / 8] ^= 1 << (bit % 8);
            // Interleave corrupted and clean copies from two "sources".
            let src = NodeId(1 + (k as u16 & 1));
            if let Some(pkt) = reasm.offer(src, &bytes, Instant::from_millis(round)) {
                // A reassembled packet (corruption in the body, not the
                // header) must still decompress without panicking.
                let _ = decompress(&pkt, NodeId(1), NodeId(2));
            }
        }
    }
}

/// Sanity: the seeds really are valid (each layer's decoder accepts
/// its own encoding) — otherwise the mutation tests fuzz nothing.
#[test]
fn seeds_round_trip() {
    let a = addr(1);
    let b = addr(2);
    let seeds = valid_encodings();
    assert!(MacFrame::decode(&seeds[0]).is_some(), "MAC data frame");
    assert!(MacFrame::decode(&seeds[1]).is_some(), "MAC ack");
    assert!(Segment::decode(a, b, &seeds[2]).is_some(), "TCP segment");
    assert!(Segment::decode(a, b, &seeds[3]).is_some(), "TCP SYN");
    assert!(Ipv6Header::decode(&seeds[4]).is_some(), "IPv6 header");
    assert!(
        UdpHeader::decode_datagram(a, b, &seeds[5]).is_some(),
        "UDP datagram"
    );
    assert!(
        decompress(&seeds[6], NodeId(1), NodeId(2)).is_some(),
        "IPHC packet"
    );
    assert!(CoapMessage::decode(&seeds[7]).is_some(), "CoAP message");
}
