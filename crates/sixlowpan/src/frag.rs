//! 6LoWPAN fragmentation and reassembly (RFC 4944 §5.3).
//!
//! A compressed packet larger than one frame is split into a FRAG1
//! fragment (4-byte header: dispatch + datagram size + tag) and FRAGN
//! fragments (5 bytes: + offset in 8-byte units). The paper's §6.1
//! trade-off lives here: a 5-frame MSS amortises the 50-107 byte
//! first-frame header cost, but loses the whole packet if any one
//! frame is lost.
//!
//! Note on datagram size: RFC 4944 counts the size of the *uncompressed*
//! IPv6 datagram. Because our reassembler hands back exactly the bytes
//! given to [`fragment`], we carry the compressed length instead; the
//! semantics are equivalent inside one network.

use lln_netip::NodeId;
use lln_sim::{Duration, Instant};

const FRAG1_DISPATCH: u8 = 0b1100_0000;
const FRAGN_DISPATCH: u8 = 0b1110_0000;

/// Header size of the first fragment.
pub const FRAG1_HDR: usize = 4;
/// Header size of subsequent fragments.
pub const FRAGN_HDR: usize = 5;

/// One 6LoWPAN fragment, ready to ride in a MAC frame: its header and
/// a borrowed slice of the datagram. Nothing is copied until
/// [`Fragment::write_into`] lays it into a frame payload buffer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Fragment<'a> {
    header: [u8; FRAGN_HDR],
    header_len: usize,
    data: &'a [u8],
}

impl Fragment<'_> {
    /// Encoded length in bytes (header + data).
    pub fn encoded_len(&self) -> usize {
        self.header_len + self.data.len()
    }

    /// Replaces `out`'s contents with the encoded fragment.
    pub fn write_into(&self, out: &mut Vec<u8>) {
        out.clear();
        out.extend_from_slice(&self.header[..self.header_len]);
        out.extend_from_slice(self.data);
    }

    /// The encoded fragment in a new `Vec` (tests and tools; the
    /// datapath writes into pooled buffers instead).
    pub fn to_vec(&self) -> Vec<u8> {
        let mut v = Vec::with_capacity(self.encoded_len());
        self.write_into(&mut v);
        v
    }
}

/// The fragments of one datagram, in order (see [`fragment`]).
#[derive(Clone, Debug)]
pub struct Fragments<'a> {
    packet: &'a [u8],
    tag: u16,
    max_payload: usize,
    /// Datagram bytes already handed out.
    offset: usize,
    /// Set once the last fragment has been yielded.
    done: bool,
}

impl<'a> Iterator for Fragments<'a> {
    type Item = Fragment<'a>;

    fn next(&mut self) -> Option<Fragment<'a>> {
        if self.done {
            return None;
        }
        let len = self.packet.len();
        if len <= self.max_payload {
            self.done = true;
            return Some(Fragment {
                header: [0; FRAGN_HDR],
                header_len: 0,
                data: self.packet,
            });
        }
        let size = len as u16;
        let mut header = [0u8; FRAGN_HDR];
        header[1] = size as u8;
        header[2..4].copy_from_slice(&self.tag.to_be_bytes());
        let (header_len, take) = if self.offset == 0 {
            // First fragment: payload must be a multiple of 8.
            header[0] = FRAG1_DISPATCH | ((size >> 8) as u8 & 0x07);
            (FRAG1_HDR, (self.max_payload - FRAG1_HDR) & !7)
        } else {
            header[0] = FRAGN_DISPATCH | ((size >> 8) as u8 & 0x07);
            header[4] = (self.offset / 8) as u8;
            let remaining = len - self.offset;
            let take = if remaining <= self.max_payload - FRAGN_HDR {
                remaining
            } else {
                (self.max_payload - FRAGN_HDR) & !7
            };
            (FRAGN_HDR, take)
        };
        let data = &self.packet[self.offset..self.offset + take];
        self.offset += take;
        self.done = self.offset >= len;
        Some(Fragment {
            header,
            header_len,
            data,
        })
    }
}

/// Splits `packet` into fragments that each fit in `max_payload` bytes
/// of MAC payload. Yields a single unfragmented "fragment" (no 6LoWPAN
/// fragmentation header) when the packet fits directly. The iterator
/// borrows `packet` and allocates nothing.
pub fn fragment(packet: &[u8], tag: u16, max_payload: usize) -> Fragments<'_> {
    assert!(
        max_payload > FRAGN_HDR + 8,
        "frame too small to fragment into"
    );
    assert!(
        packet.len() <= max_payload || packet.len() < (1 << 11),
        "datagram exceeds the 11-bit 6LoWPAN size field"
    );
    Fragments {
        packet,
        tag,
        max_payload,
        offset: 0,
        done: false,
    }
}

/// Returns true when `bytes` begins with a fragmentation header
/// (FRAG1 or FRAGN dispatch).
pub fn is_fragment(bytes: &[u8]) -> bool {
    matches!(bytes.first().map(|b| b >> 3), Some(0b11000) | Some(0b11100))
}

/// Bitmap words per partial datagram: one bit per 8-byte unit, and a
/// datagram is under 2048 bytes (the 11-bit size field), so 256 units.
const UNIT_WORDS: usize = 4;

#[derive(Clone, Debug)]
struct PartialDatagram {
    src: NodeId,
    tag: u16,
    size: usize,
    buf: Vec<u8>,
    have: [u64; UNIT_WORDS], // per 8-byte unit
    started: Instant,
}

impl PartialDatagram {
    fn mark(&mut self, first_unit: usize, units: usize) {
        for u in first_unit..first_unit + units {
            self.have[u / 64] |= 1 << (u % 64);
        }
    }

    fn complete(&self) -> bool {
        let units = self.size.div_ceil(8);
        self.have.iter().enumerate().all(|(w, &bits)| {
            let need = units.saturating_sub(w * 64).min(64);
            let mask = if need == 64 {
                u64::MAX
            } else {
                (1u64 << need) - 1
            };
            bits & mask == mask
        })
    }
}

/// Fixed overhead charged per reassembly slot on top of the datagram
/// buffer (bitmap, bookkeeping) — mirrors `tcplp::mem::REASM_SLOT_BYTES`
/// without taking a dependency on the TCP crate.
const SLOT_OVERHEAD_BYTES: usize = 64;

/// Bounds on the reassembler, defending against fragment floods
/// (Hummen et al.'s 6LoWPAN fragmentation attacks): a flood of FRAG1s
/// claiming large datagrams would otherwise pin unbounded buffer
/// memory for a full timeout each.
#[derive(Clone, Copy, Debug)]
pub struct ReassemblyLimits {
    /// Total concurrent partial datagrams.
    pub max_slots: usize,
    /// Concurrent partial datagrams per source — one chatty (or
    /// spoofed) neighbour cannot monopolise the table.
    pub per_source_slots: usize,
    /// Total buffered bytes across all partials (claimed datagram
    /// sizes + per-slot overhead).
    pub max_bytes: usize,
    /// Partial datagrams expire after this long (RFC 4944 suggests up
    /// to 60 s; LLN stacks use a few seconds).
    pub timeout: Duration,
}

impl Default for ReassemblyLimits {
    fn default() -> Self {
        ReassemblyLimits {
            max_slots: 8,
            per_source_slots: 2,
            max_bytes: 8 * 1024,
            timeout: Duration::from_secs(4),
        }
    }
}

/// Per-neighbour reassembly buffers with timeout-based reclamation and
/// per-source/total slot and byte quotas.
#[derive(Clone, Debug)]
pub struct Reassembler {
    partials: Vec<PartialDatagram>,
    limits: ReassemblyLimits,
    /// Datagram buffers handed back through [`Reassembler::recycle`] or
    /// freed by expired and evicted partials, reused by later datagrams
    /// (at most `limits.max_slots` are kept).
    spares: Vec<Vec<u8>>,
    /// Datagrams abandoned due to timeout (one lost frame kills the
    /// whole packet — the §6.1 reliability cost of a large MSS).
    pub timeouts: u64,
    /// New datagrams refused because the slot table was full.
    pub denied_slots: u64,
    /// Same-source partials evicted by the per-source quota
    /// (last-write-wins: a fresh datagram replaces the source's oldest
    /// partial rather than being refused, so one lost fragment never
    /// blocks the source's subsequent traffic until timeout).
    pub evicted_source: u64,
    /// New datagrams refused by the byte budget.
    pub denied_bytes: u64,
}

impl Default for Reassembler {
    fn default() -> Self {
        Self::with_limits(ReassemblyLimits::default())
    }
}

impl Reassembler {
    /// Creates a reassembler whose partial datagrams expire after
    /// `timeout`, with default quotas.
    pub fn new(timeout: Duration) -> Self {
        Self::with_limits(ReassemblyLimits {
            timeout,
            ..ReassemblyLimits::default()
        })
    }

    /// Creates a reassembler with explicit quotas.
    pub fn with_limits(limits: ReassemblyLimits) -> Self {
        assert!(limits.max_slots > 0 && limits.per_source_slots > 0);
        Reassembler {
            partials: Vec::new(),
            limits,
            spares: Vec::new(),
            timeouts: 0,
            denied_slots: 0,
            evicted_source: 0,
            denied_bytes: 0,
        }
    }

    /// Offers a received MAC payload from `src`. Returns the full
    /// datagram when this fragment completes one. Non-fragment payloads
    /// are returned immediately.
    ///
    /// The returned buffer comes from the reassembler's spare list when
    /// one is free. Hand it back with [`Reassembler::recycle`] once its
    /// bytes are consumed, and steady reassembly allocates nothing;
    /// dropping it instead is always correct.
    pub fn offer(&mut self, src: NodeId, bytes: &[u8], now: Instant) -> Option<Vec<u8>> {
        self.expire(now);
        if bytes.len() < FRAG1_HDR || bytes[0] & 0b1100_0000 != 0b1100_0000 {
            return Some(self.spare_copy(bytes));
        }
        let is_first = bytes[0] >> 3 == 0b11000;
        let is_subseq = bytes[0] >> 3 == 0b11100;
        if !is_first && !is_subseq {
            return Some(self.spare_copy(bytes));
        }
        let size = ((usize::from(bytes[0] & 0x07)) << 8) | usize::from(bytes[1]);
        let tag = u16::from_be_bytes([bytes[2], bytes[3]]);
        let (offset, data) = if is_first {
            (0usize, &bytes[FRAG1_HDR..])
        } else {
            if bytes.len() < FRAGN_HDR {
                return None;
            }
            (usize::from(bytes[4]) * 8, &bytes[FRAGN_HDR..])
        };
        if offset + data.len() > size || size == 0 {
            return None; // malformed
        }

        let idx = match self
            .partials
            .iter()
            .position(|p| p.src == src && p.tag == tag && p.size == size)
        {
            Some(i) => i,
            None => {
                // Admission control for a fresh slot. A source at its
                // quota recycles its own oldest partial (last-write-
                // wins): the bound on slots it can pin is unchanged,
                // but a datagram that died mid-flight cannot block the
                // source's later traffic until the timeout fires.
                // Eviction is strictly same-source — traffic from one
                // neighbour can never push out another's partials.
                let from_src = self.partials.iter().filter(|p| p.src == src).count();
                if from_src >= self.limits.per_source_slots {
                    let oldest = self
                        .partials
                        .iter()
                        .enumerate()
                        .filter(|(_, p)| p.src == src)
                        .min_by_key(|(_, p)| p.started)
                        .map(|(i, _)| i)
                        .expect("quota reached implies partials from src");
                    let evicted = self.partials.remove(oldest);
                    self.spare(evicted.buf);
                    self.evicted_source += 1;
                } else if self.partials.len() >= self.limits.max_slots {
                    self.denied_slots += 1;
                    return None;
                }
                if self.pending_bytes() + size + SLOT_OVERHEAD_BYTES > self.limits.max_bytes {
                    self.denied_bytes += 1;
                    return None;
                }
                // Zero-filled, so a reused buffer never shows bytes of
                // an earlier datagram.
                let mut buf = self.spares.pop().unwrap_or_default();
                buf.clear();
                buf.resize(size, 0);
                self.partials.push(PartialDatagram {
                    src,
                    tag,
                    size,
                    buf,
                    have: [0; UNIT_WORDS],
                    started: now,
                });
                self.partials.len() - 1
            }
        };
        {
            let p = &mut self.partials[idx];
            p.buf[offset..offset + data.len()].copy_from_slice(data);
            p.mark(offset / 8, data.len().div_ceil(8));
        }
        if self.partials[idx].complete() {
            Some(self.partials.remove(idx).buf)
        } else {
            None
        }
    }

    /// Takes back a datagram returned by [`Reassembler::offer`], keeping
    /// its allocation for a later one.
    pub fn recycle(&mut self, datagram: Vec<u8>) {
        self.spare(datagram);
    }

    /// `bytes` in a spare buffer (unfragmented payloads).
    fn spare_copy(&mut self, bytes: &[u8]) -> Vec<u8> {
        let mut buf = self.spares.pop().unwrap_or_default();
        buf.clear();
        buf.extend_from_slice(bytes);
        buf
    }

    /// Keeps `buf` for a later datagram, up to one per slot.
    fn spare(&mut self, buf: Vec<u8>) {
        if buf.capacity() > 0 && self.spares.len() < self.limits.max_slots {
            self.spares.push(buf);
        }
    }

    fn expire(&mut self, now: Instant) {
        let timeout = self.limits.timeout;
        let mut k = 0;
        while k < self.partials.len() {
            if now.saturating_duration_since(self.partials[k].started) < timeout {
                k += 1;
            } else {
                let stale = self.partials.remove(k);
                self.spare(stale.buf);
                self.timeouts += 1;
            }
        }
    }

    /// Drops every partial datagram (a reboot loses them). The
    /// cumulative counters stay, like a node's own counters do.
    pub fn clear(&mut self) {
        self.partials.clear();
    }

    /// Timeout-based reclamation, callable without offering a frame —
    /// idle nodes sweep stale slots from a timer so a one-shot flood
    /// cannot pin buffers until the next genuine reception.
    pub fn reclaim(&mut self, now: Instant) {
        self.expire(now);
    }

    /// Number of incomplete datagrams held.
    pub fn pending(&self) -> usize {
        self.partials.len()
    }

    /// Bytes currently pinned by incomplete datagrams (claimed sizes
    /// plus per-slot overhead) — what the node budget charges.
    pub fn pending_bytes(&self) -> usize {
        self.partials
            .iter()
            .map(|p| p.size + SLOT_OVERHEAD_BYTES)
            .sum()
    }

    /// The earliest instant at which a held partial expires, for
    /// scheduling a [`Reassembler::reclaim`] sweep.
    pub fn next_expiry(&self) -> Option<Instant> {
        self.partials
            .iter()
            .map(|p| p.started + self.limits.timeout)
            .min()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pkt(n: usize) -> Vec<u8> {
        (0..n).map(|i| (i * 31 % 256) as u8).collect()
    }

    /// The encoded fragments of `p`, each in its own `Vec`.
    fn frag_vecs(p: &[u8], tag: u16, max_payload: usize) -> Vec<Vec<u8>> {
        fragment(p, tag, max_payload).map(|f| f.to_vec()).collect()
    }

    #[test]
    fn small_packet_not_fragmented() {
        let p = pkt(80);
        let frags = frag_vecs(&p, 1, 104);
        assert_eq!(frags.len(), 1);
        assert_eq!(frags[0], p);
    }

    #[test]
    fn five_frame_mss_fragments_as_paper_describes() {
        // A 462 B TCP segment + ~4 B compressed IP header needs 5 frames
        // of 104 B MAC payload (the paper's MSS = 5 frames).
        let p = pkt(466);
        let frags = frag_vecs(&p, 7, 104);
        assert_eq!(frags.len(), 5, "fragments: {}", frags.len());
        for f in &frags {
            assert!(f.len() <= 104);
        }
        assert_eq!(frags[0][0] >> 3, 0b11000, "FRAG1 dispatch");
        assert_eq!(frags[1][0] >> 3, 0b11100, "FRAGN dispatch");
    }

    #[test]
    fn reassembly_roundtrip_in_order() {
        let p = pkt(400);
        let frags = frag_vecs(&p, 3, 104);
        let mut r = Reassembler::default();
        let mut out = None;
        for f in &frags {
            out = r.offer(NodeId(5), f, Instant::ZERO);
        }
        assert_eq!(out.expect("complete"), p);
        assert_eq!(r.pending(), 0);
    }

    #[test]
    fn reassembly_out_of_order() {
        let p = pkt(300);
        let frags = frag_vecs(&p, 9, 104);
        let mut r = Reassembler::default();
        let mut done = None;
        for i in (0..frags.len()).rev() {
            done = r.offer(NodeId(5), &frags[i], Instant::ZERO);
        }
        assert_eq!(done.expect("complete"), p);
    }

    #[test]
    fn duplicate_fragments_harmless() {
        let p = pkt(300);
        let frags = frag_vecs(&p, 9, 104);
        let mut r = Reassembler::default();
        let mut done = None;
        for f in &frags {
            // Offer each fragment twice; duplicates must be harmless.
            done = r.offer(NodeId(5), f, Instant::ZERO).or(done);
            done = r.offer(NodeId(5), f, Instant::ZERO).or(done);
        }
        assert_eq!(done.expect("complete"), p);
    }

    #[test]
    fn interleaved_sources_do_not_mix() {
        let pa = pkt(200);
        let pb: Vec<u8> = pkt(200).iter().map(|b| b ^ 0xff).collect();
        let fa = frag_vecs(&pa, 1, 104);
        let fb = frag_vecs(&pb, 1, 104); // same tag, different source
        let mut r = Reassembler::default();
        let mut da = None;
        let mut db = None;
        // Interleave the two sources fragment by fragment.
        for (a, b) in fa.iter().zip(fb.iter()) {
            da = r.offer(NodeId(1), a, Instant::ZERO).or(da);
            db = r.offer(NodeId(2), b, Instant::ZERO).or(db);
        }
        assert_eq!(da.unwrap(), pa);
        assert_eq!(db.unwrap(), pb);
    }

    #[test]
    fn missing_fragment_times_out() {
        let p = pkt(300);
        let frags = frag_vecs(&p, 9, 104);
        let mut r = Reassembler::new(Duration::from_secs(2));
        r.offer(NodeId(5), &frags[0], Instant::ZERO);
        r.offer(NodeId(5), &frags[2], Instant::ZERO);
        assert_eq!(r.pending(), 1);
        // After the timeout, a new offer triggers expiry.
        let done = r.offer(NodeId(5), &frags[1], Instant::from_secs(3));
        assert!(done.is_none(), "stale partial expired; lone FRAGN pends");
        assert_eq!(r.timeouts, 1);
    }

    #[test]
    fn non_fragment_passthrough() {
        let mut r = Reassembler::default();
        let out = r.offer(NodeId(1), &[0x62, 0x33, 0x01], Instant::ZERO);
        assert_eq!(out.unwrap(), vec![0x62, 0x33, 0x01]);
    }

    #[test]
    fn malformed_fragment_dropped() {
        let mut r = Reassembler::default();
        // FRAG1 claiming size 16 but carrying 24 bytes of payload.
        let mut bad = vec![FRAG1_DISPATCH, 16, 0, 1];
        bad.extend_from_slice(&[0u8; 24]);
        assert!(r.offer(NodeId(1), &bad, Instant::ZERO).is_none());
        assert_eq!(r.pending(), 0);
    }

    #[test]
    fn per_source_quota_recycles_oldest_same_source_partial() {
        let limits = ReassemblyLimits {
            per_source_slots: 2,
            ..ReassemblyLimits::default()
        };
        let mut r = Reassembler::with_limits(limits);
        // Three incomplete datagrams from the same source (distinct
        // tags): the third FRAG1 evicts the source's oldest partial
        // (tag 0) — the source never pins more than its quota, but a
        // dead datagram cannot block later traffic until timeout.
        for tag in 0..3u16 {
            let frags = frag_vecs(&pkt(300), tag, 104);
            let t = Instant::from_millis(u64::from(tag));
            r.offer(NodeId(7), &frags[0], t);
        }
        assert_eq!(r.pending(), 2);
        assert_eq!(r.evicted_source, 1);
        // Another source is unaffected by node 7's appetite.
        let other = frag_vecs(&pkt(300), 9, 104);
        r.offer(NodeId(8), &other[0], Instant::from_millis(3));
        assert_eq!(r.pending(), 3);
        // The evicted datagram (tag 0) can no longer complete: its
        // remaining fragments re-admit it as a fresh partial instead,
        // recycling the now-oldest tag 1.
        let frags = frag_vecs(&pkt(300), 0, 104);
        let mut done = None;
        for f in &frags[1..] {
            done = r.offer(NodeId(7), f, Instant::from_millis(4)).or(done);
        }
        assert!(done.is_none(), "evicted partial lost its FRAG1");
        // A surviving admitted datagram (tag 2) still completes.
        let frags = frag_vecs(&pkt(300), 2, 104);
        let mut done = None;
        for f in &frags[1..] {
            done = r.offer(NodeId(7), f, Instant::from_millis(5)).or(done);
        }
        assert_eq!(done.expect("admitted datagram completes"), pkt(300));
    }

    #[test]
    fn slot_and_byte_caps_bound_a_fragment_flood() {
        let limits = ReassemblyLimits {
            max_slots: 4,
            per_source_slots: 4,
            max_bytes: 900,
            ..ReassemblyLimits::default()
        };
        let mut r = Reassembler::with_limits(limits);
        // Flood FRAG1s from many spoofed sources, each claiming a
        // 400-byte datagram (400 + 64 overhead per slot).
        for s in 0..20u16 {
            let frags = frag_vecs(&pkt(400), s, 104);
            r.offer(NodeId(100 + s), &frags[0], Instant::ZERO);
        }
        // Byte budget admits only one 464-byte slot (two would need 928).
        assert_eq!(r.pending(), 1);
        assert!(r.pending_bytes() <= 900, "bytes: {}", r.pending_bytes());
        assert_eq!(r.denied_bytes, 19);
        assert_eq!(r.denied_slots, 0, "byte cap bound first here");
    }

    #[test]
    fn reclaim_sweeps_stale_slots_without_traffic() {
        let mut r = Reassembler::new(Duration::from_secs(2));
        let frags = frag_vecs(&pkt(300), 5, 104);
        r.offer(NodeId(3), &frags[0], Instant::ZERO);
        assert_eq!(r.pending(), 1);
        assert!(r.pending_bytes() > 0);
        assert_eq!(
            r.next_expiry(),
            Some(Instant::ZERO + Duration::from_secs(2))
        );
        // An idle sweep before the deadline keeps the slot...
        r.reclaim(Instant::from_secs(1));
        assert_eq!(r.pending(), 1);
        // ...and one after it reclaims slot, bytes, and schedule.
        r.reclaim(Instant::from_secs(3));
        assert_eq!(r.pending(), 0);
        assert_eq!(r.pending_bytes(), 0);
        assert_eq!(r.timeouts, 1);
        assert_eq!(r.next_expiry(), None);
    }

    #[test]
    fn clear_drops_partials_and_keeps_counters() {
        let mut r = Reassembler::new(Duration::from_secs(2));
        let frags = frag_vecs(&pkt(300), 5, 104);
        r.offer(NodeId(3), &frags[0], Instant::ZERO);
        r.reclaim(Instant::from_secs(3));
        r.offer(NodeId(3), &frags[0], Instant::from_secs(3));
        assert_eq!((r.pending(), r.timeouts), (1, 1));
        r.clear();
        assert_eq!((r.pending(), r.pending_bytes()), (0, 0));
        assert_eq!(r.next_expiry(), None);
        assert_eq!(r.timeouts, 1, "cumulative counters survive a clear");
    }

    #[test]
    fn datagram_tag_wraparound_keeps_streams_separate() {
        // Tags 0xFFFF and 0x0000 from the same source are adjacent on
        // the wrapping tag circle but must reassemble independently.
        let pa = pkt(200);
        let pb: Vec<u8> = pkt(200).iter().map(|b| b ^ 0x55).collect();
        let fa = frag_vecs(&pa, 0xFFFF, 104);
        let fb = frag_vecs(&pb, 0x0000, 104);
        let mut r = Reassembler::default();
        let mut da = None;
        let mut db = None;
        for (a, b) in fa.iter().zip(fb.iter()) {
            da = r.offer(NodeId(4), a, Instant::ZERO).or(da);
            db = r.offer(NodeId(4), b, Instant::ZERO).or(db);
        }
        assert_eq!(da.unwrap(), pa);
        assert_eq!(db.unwrap(), pb);
        assert_eq!(r.pending(), 0);
        // A tag reused after wraparound starts a *fresh* datagram
        // rather than resurrecting the completed one.
        let again = frag_vecs(&pa, 0xFFFF, 104);
        assert!(r.offer(NodeId(4), &again[0], Instant::ZERO).is_none());
        assert_eq!(r.pending(), 1);
    }

    #[test]
    fn interleaved_sources_complete_within_quotas() {
        // Four sources interleave, all within per-source quota: every
        // datagram completes and the table drains to zero.
        let limits = ReassemblyLimits {
            max_slots: 4,
            per_source_slots: 1,
            ..ReassemblyLimits::default()
        };
        let mut r = Reassembler::with_limits(limits);
        let payloads: Vec<Vec<u8>> = (0..4u8).map(|i| pkt(250 + usize::from(i))).collect();
        let frag_sets: Vec<Vec<Vec<u8>>> = payloads
            .iter()
            .enumerate()
            .map(|(i, p)| frag_vecs(p, i as u16, 104))
            .collect();
        let mut done = vec![None; 4];
        let rounds = frag_sets.iter().map(|f| f.len()).max().unwrap();
        for round in 0..rounds {
            for (s, frags) in frag_sets.iter().enumerate() {
                if let Some(f) = frags.get(round) {
                    let out = r.offer(NodeId(10 + s as u16), f, Instant::ZERO);
                    done[s] = out.or(done[s].take());
                }
            }
        }
        for (s, p) in payloads.iter().enumerate() {
            assert_eq!(done[s].as_ref().unwrap(), p, "source {s}");
        }
        assert_eq!(r.pending(), 0);
        assert_eq!(r.evicted_source + r.denied_slots + r.denied_bytes, 0);
    }

    #[test]
    fn fragments_borrow_the_datagram_and_encode_lazily() {
        let p = pkt(466);
        let frags: Vec<Fragment<'_>> = fragment(&p, 7, 104).collect();
        assert_eq!(frags.len(), 5);
        let mut joined = Vec::new();
        let mut out = vec![0xEE; 200];
        for f in &frags {
            f.write_into(&mut out);
            assert_eq!(out.len(), f.encoded_len());
            assert_eq!(out, f.to_vec());
            joined.extend_from_slice(f.data);
        }
        assert_eq!(joined, p, "fragment data tiles the datagram in order");
        // A datagram that fits travels bare, as the same bytes.
        let small = pkt(60);
        let only: Vec<_> = fragment(&small, 1, 104).collect();
        assert_eq!(only.len(), 1);
        assert!(std::ptr::eq(only[0].data, small.as_slice()));
        assert_eq!(only[0].to_vec(), small);
    }

    #[test]
    fn recycled_datagrams_carry_later_payloads() {
        let mut r = Reassembler::default();
        let first = r
            .offer(NodeId(1), &[0x62, 0x33, 0x01], Instant::ZERO)
            .unwrap();
        let ptr = first.as_ptr();
        r.recycle(first);
        // The next datagram, fragmented or not, reuses the allocation.
        let again = r.offer(NodeId(1), &[0x62, 0x44], Instant::ZERO).unwrap();
        assert_eq!(again, vec![0x62, 0x44]);
        assert_eq!(again.as_ptr(), ptr);
        r.recycle(again);
        let reassemble = |r: &mut Reassembler, tag: u16, p: &[u8]| {
            let mut done = None;
            for f in frag_vecs(p, tag, 104) {
                done = r.offer(NodeId(2), &f, Instant::ZERO).or(done);
            }
            done.expect("complete")
        };
        let p = pkt(300);
        let done = reassemble(&mut r, 5, &p);
        assert_eq!(done, p);
        let ptr = done.as_ptr();
        r.recycle(done);
        let q: Vec<u8> = p.iter().map(|b| b ^ 0x5A).collect();
        let done = reassemble(&mut r, 6, &q);
        assert_eq!(done, q);
        assert_eq!(done.as_ptr(), ptr, "a fragmented datagram reuses one too");
    }

    #[test]
    fn reused_buffer_never_leaks_an_earlier_datagram() {
        // Largest datagram the 11-bit size field allows: all 256 bitmap
        // units are in play.
        let a = vec![0xAA; 2047];
        let b: Vec<u8> = (0..2047).map(|i| (i % 251) as u8 | 1).collect();
        let mut r = Reassembler::default();
        let mut done = None;
        for f in frag_vecs(&a, 1, 104) {
            done = r.offer(NodeId(3), &f, Instant::ZERO).or(done);
        }
        let done = done.unwrap();
        assert_eq!(done, a);
        r.recycle(done);
        assert_eq!(r.spares.len(), 1);
        // `b` arrives back to front, last fragment held back: its
        // partial takes `a`'s old buffer.
        let fb = frag_vecs(&b, 3, 104);
        assert!(fb.len() > 20);
        for f in fb[1..].iter().rev() {
            assert!(r.offer(NodeId(3), f, Instant::ZERO).is_none());
        }
        assert!(r.spares.is_empty(), "the partial took the spare buffer");
        let partial = &r.partials[0];
        assert!(!partial.complete(), "FRAG1's units still missing");
        let first_room = (104 - FRAG1_HDR) & !7;
        assert!(
            partial.buf[..first_room].iter().all(|&x| x == 0),
            "unreceived bytes read as zero, not as the earlier datagram"
        );
        assert_eq!(partial.buf[first_room..], b[first_room..]);
        let out = r.offer(NodeId(3), &fb[0], Instant::ZERO).expect("complete");
        assert_eq!(out, b);
        assert_eq!(r.pending(), 0);
    }

    #[test]
    fn unit_bitmap_needs_every_unit_of_a_full_size_datagram() {
        let p = vec![7u8; 2047];
        let mut r = Reassembler::default();
        let frags = frag_vecs(&p, 4, 104);
        let (last, rest) = frags.split_last().unwrap();
        for f in rest {
            assert!(r.offer(NodeId(1), f, Instant::ZERO).is_none());
        }
        assert_eq!(r.partials[0].size.div_ceil(8), 256);
        assert_eq!(r.offer(NodeId(1), last, Instant::ZERO), Some(p));
    }

    #[test]
    fn spare_list_stays_bounded_after_a_frag1_flood() {
        let limits = ReassemblyLimits {
            max_slots: 4,
            per_source_slots: 2,
            max_bytes: 16 * 1024,
            timeout: Duration::from_secs(1),
        };
        let mut r = Reassembler::with_limits(limits);
        // FRAG1s from rotating sources that never complete: each slot
        // is evicted or expires, returning its buffer to the spare list.
        for k in 0..500u16 {
            let frags = frag_vecs(&pkt(1500), k, 104);
            let t = Instant::from_millis(u64::from(k) * 50);
            r.offer(NodeId(200 + k % 7), &frags[0], t);
            assert!(r.pending() <= limits.max_slots);
            assert!(
                r.spares.len() <= limits.max_slots,
                "spares: {}",
                r.spares.len()
            );
        }
        for _ in 0..10 {
            r.recycle(vec![0; 64]);
        }
        assert_eq!(r.spares.len(), limits.max_slots, "recycling is bounded too");
        assert!(r.evicted_source + r.timeouts + r.denied_slots > 400);
        // Genuine traffic still reassembles through the recycled buffers.
        let p = pkt(900);
        let mut done = None;
        for f in frag_vecs(&p, 9, 104) {
            done = r.offer(NodeId(1), &f, Instant::from_secs(60)).or(done);
        }
        assert_eq!(done.unwrap(), p);
    }

    #[test]
    fn fragment_payload_multiple_of_eight() {
        let p = pkt(500);
        for f in frag_vecs(&p, 2, 104).iter().rev().skip(1) {
            let hdr = if f[0] >> 3 == 0b11000 {
                FRAG1_HDR
            } else {
                FRAGN_HDR
            };
            assert_eq!((f.len() - hdr) % 8, 0);
        }
    }
}
