//! Randomized property tests over the core data structures and codecs:
//! stream invariants of the in-place reassembly receive buffer and
//! circular send buffer, wraparound-safe sequence arithmetic, SACK
//! scoreboard consistency, and roundtrip laws for every wire codec.
//!
//! Cases are generated from `lln_sim::Rng` with fixed seeds so the
//! suite is deterministic and needs no external crates (the build must
//! work offline). Each property runs a few hundred generated cases.

use tcplp_repro::netip::{Ipv6Addr, Ipv6Header, NextHeader, NodeId, UdpHeader};
use tcplp_repro::sim::{Instant, Rng};
use tcplp_repro::sixlowpan as lowpan;
use tcplp_repro::tcplp::{
    Flags, RecvBuffer, SackBlock, SackScoreboard, Segment, SendBuffer, TcpSeq, Timestamps,
};

fn rand_bytes(rng: &mut Rng, len: usize) -> Vec<u8> {
    (0..len).map(|_| rng.next_u64() as u8).collect()
}

fn usize_in(rng: &mut Rng, lo: usize, hi: usize) -> usize {
    lo + rng.gen_range((hi - lo) as u64) as usize
}

// ---------------------------------------------------------------------
// Receive buffer: arbitrary segment arrival order must deliver the
// stream intact, never deliver out-of-range data, and keep internal
// invariants.
// ---------------------------------------------------------------------

#[test]
fn recvbuf_reassembles_any_arrival_order() {
    let mut rng = Rng::new(1);
    for _ in 0..200 {
        let cap = usize_in(&mut rng, 64, 512);
        let seg_len = usize_in(&mut rng, 1, 96);
        let norder = usize_in(&mut rng, 1, 32);
        let stream: Vec<u8> = (0..cap).map(|i| (i * 131 % 251) as u8).collect();
        let mut rb = RecvBuffer::new(cap);
        let mut delivered = Vec::new();
        let nsegs = cap.div_ceil(seg_len);
        for _ in 0..norder {
            let k = rng.gen_range(nsegs as u64) as usize;
            let start = k * seg_len;
            let end = (start + seg_len).min(cap);
            let consumed = delivered.len() + rb.available();
            if start < consumed {
                continue; // already in sequence; socket would trim
            }
            let offset = start - consumed;
            rb.write(offset, &stream[start..end]);
            rb.check_invariants();
            let mut buf = vec![0u8; rb.available()];
            let n = rb.read(&mut buf);
            delivered.extend_from_slice(&buf[..n]);
        }
        assert!(delivered.len() <= cap);
        assert_eq!(&delivered[..], &stream[..delivered.len()]);
    }
}

#[test]
fn recvbuf_window_conservation() {
    let mut rng = Rng::new(2);
    for _ in 0..200 {
        let cap = usize_in(&mut rng, 16, 256);
        let mut rb = RecvBuffer::new(cap);
        for _ in 0..usize_in(&mut rng, 0, 16) {
            let off = usize_in(&mut rng, 0, 64);
            let len = usize_in(&mut rng, 1, 64);
            let data = vec![0xa5u8; len];
            rb.write(off, &data);
            rb.check_invariants();
            // Window + available never exceeds capacity.
            assert_eq!(rb.available() + rb.window(), cap);
        }
    }
}

// ---------------------------------------------------------------------
// Send buffer: push/advance/view behave like a byte queue.
// ---------------------------------------------------------------------

#[test]
fn sendbuf_behaves_like_byte_queue() {
    let mut rng = Rng::new(3);
    for _ in 0..200 {
        let cap = usize_in(&mut rng, 8, 256);
        let mut sb = SendBuffer::new(cap);
        let mut model: Vec<u8> = Vec::new();
        let mut counter = 0u8;
        for _ in 0..usize_in(&mut rng, 1, 64) {
            let is_push = rng.gen_bool(0.5);
            let n = usize_in(&mut rng, 1, 64);
            if is_push {
                let chunk: Vec<u8> = (0..n)
                    .map(|_| {
                        counter = counter.wrapping_add(1);
                        counter
                    })
                    .collect();
                let accepted = sb.push(&chunk);
                assert_eq!(accepted, n.min(cap - model.len()));
                model.extend_from_slice(&chunk[..accepted]);
            } else {
                let k = n.min(model.len());
                sb.advance(k);
                model.drain(..k);
            }
            assert_eq!(sb.len(), model.len());
            let mut copied = vec![0xEE; 5];
            sb.copy_into(0, model.len(), &mut copied);
            assert_eq!(copied, model);
            // Zero-copy view agrees with copy_into at arbitrary offsets.
            if !model.is_empty() {
                let off = model.len() / 2;
                let (a, b) = sb.view(off, model.len());
                let mut v = a.to_vec();
                v.extend_from_slice(b);
                assert_eq!(&v[..], &model[off..]);
            }
        }
    }
}

// ---------------------------------------------------------------------
// Sequence arithmetic is a total order on windows < 2^31.
// ---------------------------------------------------------------------

#[test]
fn seq_ordering_antisymmetric() {
    let mut rng = Rng::new(4);
    for _ in 0..1000 {
        let a = rng.next_u64() as u32;
        let delta = 1 + rng.gen_range(0x7fff_fffe) as u32;
        let x = TcpSeq(a);
        let y = x + delta;
        assert!(x.lt(y));
        assert!(!y.lt(x));
        assert!(y.gt(x));
        assert_eq!(y.distance_from(x), delta);
    }
}

#[test]
fn seq_window_membership_consistent() {
    let mut rng = Rng::new(5);
    for _ in 0..1000 {
        let base = rng.next_u64() as u32;
        let len = 1 + rng.gen_range(999_999) as u32;
        let k = rng.gen_range(1_000_000) as u32;
        let lo = TcpSeq(base);
        let s = lo + k;
        assert_eq!(s.in_window(lo, len), k < len);
    }
}

// ---------------------------------------------------------------------
// SACK scoreboard: sacked bytes never exceed the window, holes and
// sacked ranges are disjoint.
// ---------------------------------------------------------------------

#[test]
fn sack_scoreboard_consistency() {
    let mut rng = Rng::new(6);
    for _ in 0..300 {
        let base = rng.next_u64() as u32;
        let una = TcpSeq(base);
        let smax = una + 20_000;
        let mut sb = SackScoreboard::new();
        let nblocks = usize_in(&mut rng, 0, 12);
        let wire: Vec<SackBlock> = (0..nblocks)
            .map(|_| {
                let off = rng.gen_range(20_000) as u32;
                let len = 1 + rng.gen_range(1_999) as u32;
                SackBlock {
                    start: una + off,
                    end: una + off + len,
                }
            })
            .collect();
        sb.update(&wire, una, smax);
        assert!(sb.sacked_bytes() <= 20_000 + 2_000);
        if let Some(h) = sb.highest_sacked() {
            assert!(h.le(smax) || h.distance_from(smax) < 2_000);
        }
        // Walking holes never yields a sacked byte.
        sb.start_recovery(una);
        let mut sb2 = sb.clone();
        while let Some((start, len)) = sb2.next_hole(una, 500) {
            assert!(len > 0);
            assert!(!sb.is_sacked(start, 1), "hole start inside a sacked range");
        }
    }
}

// ---------------------------------------------------------------------
// Codec roundtrip laws.
// ---------------------------------------------------------------------

#[test]
fn tcp_segment_roundtrips() {
    let mut rng = Rng::new(7);
    let src = NodeId(1).mesh_addr();
    let dst = NodeId(2).mesh_addr();
    for _ in 0..300 {
        let sport = 1 + rng.gen_range(u64::from(u16::MAX - 1)) as u16;
        let dport = 1 + rng.gen_range(u64::from(u16::MAX - 1)) as u16;
        let seq = rng.next_u64() as u32;
        let ack = rng.next_u64() as u32;
        let mut seg = Segment::new(
            sport,
            dport,
            TcpSeq(seq),
            TcpSeq(ack),
            Flags(rng.next_u64() as u8),
        );
        seg.window = rng.next_u64() as u16;
        if rng.gen_bool(0.5) {
            seg.timestamps = Some(Timestamps {
                value: rng.next_u64() as u32,
                echo: rng.next_u64() as u32,
            });
        }
        for k in 0..rng.gen_range(3) {
            seg.sack_blocks.push(SackBlock {
                start: TcpSeq(seq.wrapping_add(1000 * k as u32)),
                end: TcpSeq(seq.wrapping_add(1000 * k as u32 + 400)),
            });
        }
        let plen = usize_in(&mut rng, 0, 600);
        seg.payload = rand_bytes(&mut rng, plen);
        let enc = seg.encode(src, dst);
        let dec = Segment::decode(src, dst, &enc);
        assert_eq!(dec, Some(seg));
    }
}

#[test]
fn tcp_decoder_rejects_any_corruption() {
    let mut rng = Rng::new(8);
    let src = NodeId(1).mesh_addr();
    let dst = NodeId(2).mesh_addr();
    for _ in 0..500 {
        let mut seg = Segment::new(5, 6, TcpSeq(1), TcpSeq(2), Flags::ACK);
        let plen = usize_in(&mut rng, 0, 200);
        seg.payload = rand_bytes(&mut rng, plen);
        let mut enc = seg.encode(src, dst);
        let idx = rng.gen_range(enc.len() as u64) as usize;
        let bit = rng.gen_range(8) as u8;
        enc[idx] ^= 1 << bit;
        // One bit flip always breaks the Internet checksum, so decode
        // must fail — never silently yield a different segment.
        assert!(Segment::decode(src, dst, &enc).is_none());
    }
}

#[test]
fn ipv6_header_roundtrips() {
    let mut rng = Rng::new(9);
    for _ in 0..500 {
        let mut src = [0u8; 16];
        let mut dst = [0u8; 16];
        for b in src.iter_mut().chain(dst.iter_mut()) {
            *b = rng.next_u64() as u8;
        }
        let hdr = Ipv6Header {
            dscp: rng.gen_range(64) as u8,
            ecn: tcplp_repro::netip::Ecn::from_bits(rng.gen_range(4) as u8),
            flow_label: rng.gen_range(1 << 20) as u32,
            payload_len: rng.next_u64() as u16,
            next_header: NextHeader::from_value(rng.next_u64() as u8),
            hop_limit: rng.next_u64() as u8,
            src: Ipv6Addr(src),
            dst: Ipv6Addr(dst),
        };
        assert_eq!(Ipv6Header::decode(&hdr.encode()), Some(hdr));
    }
}

#[test]
fn udp_datagram_roundtrips() {
    let mut rng = Rng::new(10);
    let src = NodeId(3).mesh_addr();
    let dst = NodeId(4).mesh_addr();
    for _ in 0..300 {
        let sport = rng.next_u64() as u16;
        let dport = rng.next_u64() as u16;
        let plen = usize_in(&mut rng, 0, 300);
        let payload = rand_bytes(&mut rng, plen);
        let dg = UdpHeader::encode_datagram(src, dst, sport, dport, &payload);
        let (hdr, body) = UdpHeader::decode_datagram(src, dst, &dg).expect("valid");
        assert_eq!(hdr.src_port, sport);
        assert_eq!(hdr.dst_port, dport);
        assert_eq!(body, &payload[..]);
    }
}

#[test]
fn iphc_roundtrips_tcp_packets() {
    let mut rng = Rng::new(11);
    for _ in 0..300 {
        let src_id = 1 + rng.gen_range(998) as u16;
        let dst_id = 1 + rng.gen_range(998) as u16;
        let hop_limit = 1 + rng.gen_range(254) as u8;
        let plen = usize_in(&mut rng, 1, 600);
        let payload = rand_bytes(&mut rng, plen);
        let mut hdr = Ipv6Header::new(
            NodeId(src_id).mesh_addr(),
            NodeId(dst_id).mesh_addr(),
            NextHeader::Tcp,
            payload.len() as u16,
        );
        hdr.hop_limit = hop_limit;
        hdr.ecn = tcplp_repro::netip::Ecn::from_bits(rng.gen_range(4) as u8);
        let pkt = lowpan::compress(&hdr, NodeId(src_id), NodeId(dst_id), &payload);
        let (back, body) =
            lowpan::decompress(&pkt, NodeId(src_id), NodeId(dst_id)).expect("ok");
        assert_eq!(back.src, hdr.src);
        assert_eq!(back.dst, hdr.dst);
        assert_eq!(back.hop_limit, hop_limit);
        assert_eq!(back.ecn, hdr.ecn);
        assert_eq!(body, payload);
    }
}

#[test]
fn fragmentation_roundtrips_any_order() {
    let mut rng = Rng::new(12);
    for _ in 0..200 {
        let size = usize_in(&mut rng, 105, 1200);
        let tag = rng.next_u64() as u16;
        let packet: Vec<u8> = (0..size).map(|i| (i * 37 % 256) as u8).collect();
        let mut frags: Vec<_> = lowpan::fragment(&packet, tag, 104).collect();
        // Deterministic shuffle.
        for i in (1..frags.len()).rev() {
            let j = rng.gen_range(i as u64 + 1) as usize;
            frags.swap(i, j);
        }
        let mut r = lowpan::Reassembler::default();
        let mut done = None;
        for f in &frags {
            done = r.offer(NodeId(1), &f.to_vec(), Instant::ZERO).or(done);
        }
        assert_eq!(done, Some(packet));
    }
}

#[test]
fn coap_message_roundtrips() {
    use tcplp_repro::coap::{CoapCode, CoapMessage, CoapOption, MsgType};
    let mut rng = Rng::new(13);
    for _ in 0..300 {
        let mut m = CoapMessage::new(
            if rng.gen_bool(0.5) {
                MsgType::Con
            } else {
                MsgType::Non
            },
            CoapCode::POST,
            rng.next_u64() as u16,
        );
        let tlen = usize_in(&mut rng, 0, 8);
        m.token = rand_bytes(&mut rng, tlen);
        m.add_option(CoapOption::UriPath, b"sensors".to_vec());
        m.add_option(
            CoapOption::Block1,
            tcplp_repro::coap::msg::BlockValue {
                num: rng.gen_range(5000) as u32,
                more: true,
                szx: 5,
            }
            .encode(),
        );
        let plen = usize_in(&mut rng, 1, 300);
        m.payload = rand_bytes(&mut rng, plen);
        assert_eq!(CoapMessage::decode(&m.encode()), Some(m));
    }
}
