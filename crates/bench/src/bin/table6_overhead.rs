//! Table 6: per-frame header overhead with 6LoWPAN fragmentation.
//!
//! Encodes a real 5-frame TCP segment through IPHC + fragmentation and
//! reports the header bytes of the first and subsequent frames, next
//! to the paper's quoted ranges.

use lln_mac::frame::{MacFrame, MAC_OVERHEAD};
use lln_netip::{Ipv6Header, NextHeader, NodeId};
use lln_sixlowpan::{compress, fragment, frag, MAX_FRAME_PAYLOAD};
use tcplp::{Flags, Segment, TcpSeq, Timestamps};

fn main() {
    // A realistic data segment: timestamps option, 462 B payload.
    let src = NodeId(12).mesh_addr();
    let dst = NodeId(0).mesh_addr();
    let mut seg = Segment::new(49152, 80, TcpSeq(1000), TcpSeq(2000), Flags::ACK | Flags::PSH);
    seg.timestamps = Some(Timestamps { value: 7, echo: 9 });
    seg.window = 1848;
    // Use the exact payload that fills five frames in this stack
    // (the paper's 462 B corresponds to OpenThread's header sizes).
    seg.payload = vec![0xab; lln_bench::mss_for_frames(5)];
    let tcp_bytes = seg.encode(src, dst);
    let tcp_hdr = tcp_bytes.len() - seg.payload.len();

    let hdr = Ipv6Header::new(src, dst, NextHeader::Tcp, tcp_bytes.len() as u16);
    let packet = compress(&hdr, NodeId(12), NodeId(0), &tcp_bytes);
    let iphc_len = packet.len() - tcp_bytes.len();
    let frags: Vec<_> = fragment(&packet, 1, MAX_FRAME_PAYLOAD).collect();

    println!("== Table 6: header overhead per frame ==\n");
    println!("{:<26} {:>12} {:>14}", "header", "first frame", "other frames");
    println!("{:-<54}", "");
    println!(
        "{:<26} {:>10} B {:>12} B",
        "IEEE 802.15.4 (+FCS)", MAC_OVERHEAD, MAC_OVERHEAD
    );
    println!(
        "{:<26} {:>10} B {:>12} B",
        "6LoWPAN fragmentation",
        frag::FRAG1_HDR,
        frag::FRAGN_HDR
    );
    println!("{:<26} {:>10} B {:>12} B", "IPv6 (IPHC compressed)", iphc_len, 0);
    println!("{:<26} {:>10} B {:>12} B", "TCP (incl. timestamps)", tcp_hdr, 0);
    let first = MAC_OVERHEAD + frag::FRAG1_HDR + iphc_len + tcp_hdr;
    let other = MAC_OVERHEAD + frag::FRAGN_HDR;
    println!("{:-<54}", "");
    println!("{:<26} {:>10} B {:>12} B", "total", first, other);
    println!("\npaper: first frame 50-107 B, other frames 28-35 B");
    println!(
        "segment of {} payload bytes -> {} frames (MSS = 5 frames)",
        seg.payload.len(),
        frags.len()
    );
    for (i, f) in frags.iter().enumerate() {
        let mpdu = MacFrame::data(NodeId(12), NodeId(0), i as u8, f.to_vec());
        println!("  frame {}: MPDU {} B", i + 1, mpdu.encode().len());
    }
}
