//! The IP and 6LoWPAN layers of the [`World`]: routing, admission, the
//! IP and indirect queues, the wired link, forwarding, and framing a
//! packet into 6LoWPAN fragments. It handles
//! [`Event::WiredDeliver`].

use super::{Event, World, WIRED_LATENCY};
use crate::stack::{NodeCounter, NodeKind, OutPacket};
use crate::trace::{summarize_packet, TraceDir};
use lln_mac::frame::{MacFrame, MAX_MAC_PAYLOAD};
use lln_netip::{Ipv6Addr, Ipv6Header, NodeId};
use lln_sim::Instant;
use lln_sixlowpan::{fragment, iphc};
use tcplp::MemClass;

/// Where a node sends a packet (see [`World::route`]).
#[derive(Clone, Copy)]
pub(super) enum Hop {
    /// Over the wired link to this node, if one is attached.
    Wired(Option<usize>),
    /// Into a sleepy child's indirect queue.
    Indirect(NodeId),
    /// Into the IP queue, toward this radio neighbour.
    Radio(NodeId),
}

impl World {
    /// Queues a locally-originated or forwarded packet.
    pub(super) fn enqueue_ip(&mut self, i: usize, hdr: Ipv6Header, payload: Vec<u8>, now: Instant) {
        match self.route(i, hdr.dst) {
            Some(hop) if self.admit(i, hop, payload.len()) => {
                self.push_ip(i, hop, hdr, payload, now);
            }
            _ => self.seg_bufs.put(payload),
        }
    }

    /// Where node `i` sends a packet for `dst`; `None`, counted as
    /// unroutable, when it has no route there.
    pub(super) fn route(&mut self, i: usize, dst: Ipv6Addr) -> Option<Hop> {
        let n = &self.nodes[i];
        // Cloud host: everything goes over the wire to the border.
        if n.kind == NodeKind::CloudHost {
            return Some(Hop::Wired(self.border));
        }
        // Border router: cloud-prefix destinations go over the wire.
        if n.kind == NodeKind::BorderRouter && !dst.is_mesh_local() {
            return Some(Hop::Wired(self.cloud));
        }
        // Mesh: route by the destination's node id; off-mesh packets go
        // toward the border router.
        let dst_node = if dst.is_mesh_local() {
            dst.node_id()
        } else {
            self.border.map(|b| NodeId(b as u16))
        };
        match dst_node.and_then(|d| n.routes.lookup(d)) {
            None => {
                self.nodes[i].counters.inc(NodeCounter::Unroutable);
                None
            }
            // Indirect queueing for sleepy children (bounded per child
            // by the node budget).
            Some(next) if n.sleepy_children.contains(&next) => Some(Hop::Indirect(next)),
            Some(next) => Some(Hop::Radio(next)),
        }
    }

    /// Whether a packet with `len` transport bytes may take `hop`;
    /// counts the refusal when it may not.
    pub(super) fn admit(&mut self, i: usize, hop: Hop, len: usize) -> bool {
        let n = &mut self.nodes[i];
        match hop {
            Hop::Wired(peer) => peer.is_some(),
            Hop::Indirect(_) => true,
            // Governor admission: the IP-queue class must have room for
            // the packet's bytes before the queue even sees it.
            Hop::Radio(_) => {
                let fits = n
                    .governor
                    .would_fit(MemClass::IpQueue, len + tcplp::mem::IP_OVERHEAD_BYTES);
                if !fits {
                    n.governor.note_deny(MemClass::IpQueue);
                    n.counters.inc(NodeCounter::QueueByteDrops);
                }
                fits
            }
        }
    }

    /// Hands an admitted packet to `hop`.
    pub(super) fn push_ip(
        &mut self,
        i: usize,
        hop: Hop,
        hdr: Ipv6Header,
        payload: Vec<u8>,
        now: Instant,
    ) {
        match hop {
            Hop::Wired(Some(peer)) => {
                self.queue
                    .schedule(now + WIRED_LATENCY, Event::WiredDeliver(peer, hdr, payload));
            }
            Hop::Indirect(next_hop) => {
                let pkt = OutPacket {
                    hdr,
                    payload,
                    next_hop,
                };
                if let Err(pkt) = self.nodes[i].enqueue_indirect(next_hop, pkt) {
                    self.seg_bufs.put(pkt.payload);
                }
                self.nodes[i].sync_governor();
            }
            Hop::Radio(next_hop) => {
                let pkt = OutPacket {
                    hdr,
                    payload,
                    next_hop,
                };
                let r = self.rng.gen_f64();
                if let Err(pkt) = self.nodes[i].ip_queue.offer(pkt, r) {
                    self.nodes[i].governor.note_deny(MemClass::IpQueue);
                    self.nodes[i].counters.inc(NodeCounter::QueueDrops);
                    self.seg_bufs.put(pkt.payload);
                }
                self.nodes[i].sync_governor();
                self.kick_mac(i, now);
            }
            Hop::Wired(None) => unreachable!("refused by admit"),
        }
    }

    /// A full IP packet arrived at node `i`. Its payload is owned when it
    /// came over the wire, and over the radio it may borrow the frame or
    /// the reassembled datagram. Local delivery reads it in place, then
    /// an owned payload goes back to the world's buffer pool; only
    /// forwarding (which must queue the bytes) copies a borrowed one,
    /// into a buffer from that pool.
    pub(super) fn handle_ip(
        &mut self,
        i: usize,
        hdr: Ipv6Header,
        payload: iphc::Payload<'_>,
        now: Instant,
    ) {
        if hdr.dst == self.nodes[i].ip_addr() {
            if self.trace.is_enabled() {
                let summary = summarize_packet(&hdr, payload.as_slice());
                let id = self.nodes[i].id;
                self.trace.record(now, id, TraceDir::Deliver, summary);
            }
            self.deliver_transport(i, hdr, payload.as_slice(), false, now);
            if let iphc::Payload::Owned(v) = payload {
                self.seg_bufs.put(v);
            }
            return;
        }
        let bytes = match payload {
            iphc::Payload::Owned(v) => v,
            iphc::Payload::Borrowed(b) => {
                let mut v = self.seg_bufs.take();
                v.extend_from_slice(b);
                v
            }
        };
        self.forward_ip(i, hdr, bytes, now);
    }

    /// Forwards a non-local packet toward its next hop.
    fn forward_ip(&mut self, i: usize, mut hdr: Ipv6Header, payload: Vec<u8>, now: Instant) {
        if hdr.hop_limit <= 1 {
            self.nodes[i].counters.inc(NodeCounter::HopLimitDrops);
            self.seg_bufs.put(payload);
            self.trace
                .record(now, self.nodes[i].id, TraceDir::Drop, "hop limit exhausted");
            return;
        }
        hdr.hop_limit -= 1;
        // Injected uniform loss (§9.4; configured on the border router).
        if self.nodes[i].inject_loss > 0.0 && self.rng.gen_bool(self.nodes[i].inject_loss) {
            self.nodes[i].counters.inc(NodeCounter::InjectedDrops);
            self.seg_bufs.put(payload);
            self.trace
                .record(now, self.nodes[i].id, TraceDir::Drop, "injected loss");
            return;
        }
        self.nodes[i].counters.inc(NodeCounter::Forwarded);
        if self.trace.is_enabled() {
            self.trace.record(
                now,
                self.nodes[i].id,
                TraceDir::Forward,
                summarize_packet(&hdr, &payload),
            );
        }
        self.enqueue_ip(i, hdr, payload, now);
    }

    /// Compresses `pkt` and frames its 6LoWPAN fragments for
    /// `pkt.next_hop`: onto the current-packet queue when `indirect` is
    /// `None`, or onto the control queue with the given frame-pending
    /// bit (a parent draining a sleepy child's indirect queue).
    ///
    /// Nothing here allocates in steady state: the packet is compressed
    /// in the node's scratch buffer via the per-neighbor IPHC header
    /// cache, each fragment is written into a payload buffer the frame
    /// pool recycles (a frame the control queue refuses goes straight
    /// back to it), and the packet's payload returns to the world's
    /// [`BufPool`](crate::stack::BufPool) once framed.
    pub(super) fn frame_packet(&mut self, i: usize, pkt: OutPacket, indirect: Option<bool>) {
        let src_l2 = self.nodes[i].id;
        let dst_l2 = pkt.next_hop;
        let mut compressed = std::mem::take(&mut self.nodes[i].compress_buf);
        self.nodes[i].iphc_cache.compress_into(
            &pkt.hdr,
            src_l2,
            dst_l2,
            &pkt.payload,
            &mut compressed,
        );
        let tag = self.nodes[i].next_tag();
        for frag in fragment(&compressed, tag, MAX_MAC_PAYLOAD) {
            let seq = self.nodes[i].next_seq();
            let mut payload = self.pool.payload_buf();
            frag.write_into(&mut payload);
            let mut f = MacFrame::data(src_l2, dst_l2, seq, payload);
            f.pending = indirect == Some(true);
            let buf = self.pool.alloc(f);
            if indirect.is_some() {
                if let Err(buf) = self.nodes[i].enqueue_ctrl(buf) {
                    self.pool.reclaim(buf);
                }
            } else {
                self.nodes[i].cur_packet_frames.push_back(buf);
            }
        }
        self.nodes[i].compress_buf = compressed;
        self.seg_bufs.put(pkt.payload);
    }
}
