//! Pooled, single-owner frame buffers.
//!
//! A [`FrameBuf`] owns one boxed [`MacFrame`]. It moves, never shares:
//! from the MAC queue into the node's transmission in progress, and from
//! there back to the pool. Receivers borrow the frame while the world
//! resolves its air time, so nothing is ever copied or reference
//! counted — the same zero-copy buffering discipline TCPlp applies to
//! its send buffer on-mote (§5 of the paper).
//!
//! No wire encoding is kept. Air time and platform overhead need only
//! the MPDU length, which [`MacFrame::mpdu_len`] computes from the
//! header layout, and a receiver needs the bytes (with their FCS) only
//! while a bit-error burst is on at it, when the world encodes the
//! frame for that one reception.
//!
//! A [`FramePool`] recycles the underlying allocations: a buffer handed
//! back via [`FramePool::reclaim`] keeps its heap storage (the box and
//! the payload `Vec`) for later frames instead of returning it to the
//! allocator. Payloads are built in buffers from
//! [`FramePool::payload_buf`]; when a recycled box takes a new frame,
//! the old frame's payload returns to that list. The steady state of a
//! busy node — one frame in flight, a handful queued — runs entirely
//! out of the pool.
//!
//! # Ownership rules
//!
//! - A `FrameBuf` is immutable. Anything that must differ between
//!   frames (the frame-pending bit, sequence number) is set on the
//!   `MacFrame` *before* the buffer is built.
//! - `reclaim` is an optimisation, never a requirement: dropping a
//!   `FrameBuf` is always correct.

use crate::frame::{MacFrame, MAX_MAC_PAYLOAD};

/// An immutable MAC frame with one owner.
#[derive(Debug)]
pub struct FrameBuf(Box<MacFrame>);

impl FrameBuf {
    /// Builds a buffer for `frame`.
    pub fn new(frame: MacFrame) -> Self {
        FrameBuf(Box::new(frame))
    }

    /// The decoded frame.
    pub fn frame(&self) -> &MacFrame {
        &self.0
    }

    /// The wire bytes, encoded afresh on every call (nothing is
    /// cached): one allocation and an FCS pass each time.
    pub fn encoded(&self) -> Vec<u8> {
        self.0.encode()
    }

    /// Encoded MPDU length in bytes (drives air-time computation).
    pub fn mpdu_len(&self) -> usize {
        self.0.mpdu_len()
    }
}

/// A free list of idle frame buffers awaiting reuse.
pub struct FramePool {
    spares: Vec<FrameBuf>,
    /// Cleared payload buffers, lent out by [`FramePool::payload_buf`].
    payloads: Vec<Vec<u8>>,
    max_spares: usize,
    /// Allocations served from the free list.
    pub reused: u64,
    /// Allocations that had to hit the allocator.
    pub fresh: u64,
}

impl Default for FramePool {
    fn default() -> Self {
        Self::new(64)
    }
}

impl FramePool {
    /// Creates a pool retaining at most `max_spares` idle buffers.
    pub fn new(max_spares: usize) -> Self {
        FramePool {
            spares: Vec::with_capacity(max_spares),
            payloads: Vec::with_capacity(max_spares),
            max_spares,
            reused: 0,
            fresh: 0,
        }
    }

    /// Builds a buffer for `frame`, reusing a spare allocation when one
    /// is available.
    pub fn alloc(&mut self, frame: MacFrame) -> FrameBuf {
        match self.spares.pop() {
            Some(mut buf) => {
                let old = std::mem::replace(&mut *buf.0, frame);
                self.keep_payload(old.payload);
                self.reused += 1;
                buf
            }
            None => {
                self.fresh += 1;
                FrameBuf::new(frame)
            }
        }
    }

    /// Returns a buffer's allocation to the free list; when the pool is
    /// full the buffer simply drops.
    pub fn reclaim(&mut self, buf: FrameBuf) {
        if self.spares.len() < self.max_spares {
            self.spares.push(buf);
        }
    }

    /// An empty payload buffer for the next frame, reused from an
    /// earlier frame's payload when one is spare: from the payload list,
    /// or else out of a spare box that still holds its last frame's.
    /// It always has room for a full [`MAX_MAC_PAYLOAD`], so a recycled
    /// short payload never has to grow mid-write. Build the payload in
    /// it, then pass the frame to [`FramePool::alloc`].
    pub fn payload_buf(&mut self) -> Vec<u8> {
        let mut payload = self.payloads.pop().unwrap_or_else(|| {
            self.spares
                .iter_mut()
                .rev()
                .find(|buf| buf.0.payload.capacity() > 0)
                .map(|buf| std::mem::take(&mut buf.0.payload))
                .unwrap_or_default()
        });
        payload.clear();
        payload.reserve(MAX_MAC_PAYLOAD);
        payload
    }

    fn keep_payload(&mut self, mut payload: Vec<u8>) {
        if payload.capacity() > 0 && self.payloads.len() < self.max_spares {
            payload.clear();
            self.payloads.push(payload);
        }
    }

    /// Idle buffers currently held.
    pub fn spares(&self) -> usize {
        self.spares.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::{FrameType, ACK_MPDU_LEN, MAC_OVERHEAD, MAX_MPDU};
    use lln_netip::NodeId;

    fn data(payload: usize) -> MacFrame {
        MacFrame::data(NodeId(1), NodeId(2), 7, vec![0xAB; payload])
    }

    #[test]
    fn encoding_matches_encode() {
        let f = data(40);
        let buf = FrameBuf::new(f.clone());
        assert_eq!(buf.encoded(), f.encode().as_slice());
        assert_eq!(buf.mpdu_len(), MAC_OVERHEAD + 40);
        assert_eq!(buf.frame(), &f);
    }

    #[test]
    fn ack_buffer_encodes_ack() {
        let buf = FrameBuf::new(MacFrame::ack(9, true));
        assert_eq!(buf.mpdu_len(), ACK_MPDU_LEN);
        let dec = MacFrame::decode(&buf.encoded()).unwrap();
        assert_eq!(dec.frame_type, FrameType::Ack);
        assert!(dec.pending);
    }

    #[test]
    fn pool_reuses_unique_buffers() {
        let mut pool = FramePool::new(8);
        let a = pool.alloc(data(20));
        assert_eq!(pool.fresh, 1);
        pool.reclaim(a);
        assert_eq!(pool.spares(), 1);
        let b = pool.alloc(data(90));
        assert_eq!(pool.reused, 1);
        assert_eq!(pool.spares(), 0);
        // The recycled buffer encodes the NEW frame correctly.
        assert_eq!(b.encoded(), b.frame().encode().as_slice());
        assert_eq!(b.frame().payload.len(), 90);
    }

    #[test]
    fn reused_block_encodes_only_its_new_frame() {
        // One box cycles through an ACK, an empty data frame and a
        // full MAX_MPDU data frame, then an ACK again, so every kind
        // follows a different one and the ACK follows the longest.
        let mut pool = FramePool::new(8);
        let mut full = pool.payload_buf();
        full.resize(MAX_MAC_PAYLOAD, 0x5A);
        let frames = [
            MacFrame::ack(3, true),
            MacFrame::data(NodeId(1), NodeId(2), 4, pool.payload_buf()),
            MacFrame::data(NodeId(2), NodeId(1), 5, full),
            MacFrame::ack(6, false),
        ];
        let mut lens = Vec::new();
        for f in frames {
            let buf = pool.alloc(f.clone());
            assert_eq!(buf.frame(), &f, "nothing of the block's last frame stays");
            let wire = buf.encoded();
            assert_eq!(wire, buf.frame().encode());
            assert_eq!(buf.mpdu_len(), wire.len());
            lens.push(wire.len());
            pool.reclaim(buf);
        }
        assert_eq!(lens, [ACK_MPDU_LEN, MAC_OVERHEAD, MAX_MPDU, ACK_MPDU_LEN]);
        assert_eq!(
            (pool.fresh, pool.reused),
            (1, 3),
            "one block served all four"
        );
    }

    #[test]
    fn payload_capacity_survives_interleaved_ack_frames() {
        let mut pool = FramePool::new(8);
        // Warm up: one data frame recycled through the pool.
        let mut p = pool.payload_buf();
        p.extend_from_slice(&[0x11; 100]);
        let d = pool.alloc(MacFrame::data(NodeId(1), NodeId(2), 1, p));
        pool.reclaim(d);
        for seq in 0..20u8 {
            // An ACK takes the recycled block; its payload-free frame
            // must not throw away the data frame's payload allocation.
            let ack = pool.alloc(MacFrame::ack(seq, false));
            let mut p = pool.payload_buf();
            assert!(p.is_empty());
            assert!(p.capacity() >= 100, "payload capacity lost at {seq}");
            p.extend_from_slice(&[seq; 100]);
            let data = pool.alloc(MacFrame::data(NodeId(1), NodeId(2), seq, p));
            assert_eq!(data.encoded(), data.frame().encode().as_slice());
            assert_eq!(data.frame().payload, vec![seq; 100]);
            pool.reclaim(ack);
            pool.reclaim(data);
        }
        // Fresh blocks: the warm-up data frame's and one ACK's.
        assert_eq!(pool.fresh, 2);
    }

    #[test]
    fn payload_buf_takes_a_spare_blocks_payload() {
        let mut pool = FramePool::new(8);
        let mut p = pool.payload_buf();
        p.extend_from_slice(&[0x22; 100]);
        let d = pool.alloc(MacFrame::data(NodeId(1), NodeId(2), 1, p));
        pool.reclaim(d);
        // The payload list is empty; the spare block's payload serves.
        let p = pool.payload_buf();
        assert!(p.is_empty() && p.capacity() >= MAX_MAC_PAYLOAD);
        let d = pool.alloc(MacFrame::data(NodeId(1), NodeId(2), 2, p));
        assert_eq!(d.frame().payload.len(), 0);
        assert_eq!((pool.fresh, pool.reused), (1, 1));
    }

    #[test]
    fn pool_bounds_spares() {
        let mut pool = FramePool::new(2);
        let bufs: Vec<_> = (0..4).map(|_| pool.alloc(data(5))).collect();
        for b in bufs {
            pool.reclaim(b);
        }
        assert_eq!(pool.spares(), 2);
    }
}
