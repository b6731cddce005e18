//! The TCPlp receive buffer with **in-place reassembly queue**
//! (paper §4.3.2, Figure 1b).
//!
//! One circular buffer holds both the in-sequence data waiting for the
//! application and out-of-order segments, which are written straight
//! into the buffer at their stream position past the in-sequence
//! region. There is no separate reassembly queue and no copy when a
//! hole fills: held bytes are already in place, so they join the
//! in-sequence region by moving a counter. The data buffer is
//! allocated once, at construction.
//!
//! Which out-of-order bytes are held is a `RangeSet` of offsets from
//! `rcv_nxt`: exactly the ranges the SACK option advertises. It costs
//! 8 B per held range and grows only past its largest size so far; the
//! paper records the same fact in a bitmap of one bit per buffer byte.

use crate::rangeset::RangeSet;
use std::ops::Range;

/// Fixed-capacity circular receive buffer with in-place reassembly.
#[derive(Clone, Debug)]
pub struct RecvBuffer {
    buf: Vec<u8>,
    /// Buffer index of the next in-sequence byte to deliver to the app.
    head: usize,
    /// Bytes of contiguous in-sequence data available to the app.
    avail: usize,
    /// Held out-of-order ranges as offsets from `rcv_nxt` (buffer index
    /// `head + avail`). None starts at offset 0: such a range is
    /// absorbed into `avail` as soon as it forms.
    ranges: RangeSet,
    /// Overlap-policy violations refused: a later write carried a byte
    /// that *differed* from one already held at the same stream
    /// position (first write wins; see [`RecvBuffer::write`]).
    conflicts: u64,
}

impl RecvBuffer {
    /// Creates a buffer of fixed `capacity` bytes.
    pub fn new(capacity: usize) -> Self {
        Self::with_range_capacity(capacity, 0)
    }

    /// Creates a buffer of fixed `capacity` bytes whose record of
    /// out-of-order data holds `ranges` disjoint ranges before it
    /// allocates.
    pub(crate) fn with_range_capacity(capacity: usize, ranges: usize) -> Self {
        assert!(
            (1..=u32::MAX as usize).contains(&capacity),
            "capacity {capacity} must be non-zero and fit the u32 range offsets"
        );
        RecvBuffer {
            buf: vec![0; capacity],
            head: 0,
            avail: 0,
            ranges: RangeSet::with_capacity(ranges),
            conflicts: 0,
        }
    }

    /// Total capacity.
    pub fn capacity(&self) -> usize {
        self.buf.len()
    }

    /// Bytes ready for the application.
    pub fn available(&self) -> usize {
        self.avail
    }

    /// The receive window to advertise: capacity minus the data the
    /// application has not yet consumed (Figure 1a's relationship).
    pub fn window(&self) -> usize {
        self.capacity() - self.avail
    }

    /// True when the buffer holds any out-of-order data.
    pub fn has_out_of_order(&self) -> bool {
        !self.ranges.is_empty()
    }

    /// Count of refused conflicting rewrites (overlapping writes whose
    /// byte value differed from the one already held).
    pub fn conflicts(&self) -> u64 {
        self.conflicts
    }

    /// Current out-of-order ranges as offsets from `rcv_nxt`
    /// (start, end), sorted ascending. The socket converts these to
    /// SACK blocks.
    pub fn out_of_order_ranges(&self) -> &[(u32, u32)] {
        self.ranges.as_slice()
    }

    /// Writes segment payload whose first byte is `offset` bytes past
    /// `rcv_nxt` (offset 0 = in order). Bytes outside the window are
    /// discarded. Returns the number of *newly in-sequence* bytes made
    /// available by this write (0 for pure out-of-order arrivals).
    ///
    /// Overlap policy: **first write wins**. A byte position already
    /// holding out-of-order data is never rewritten — a retransmission
    /// (or a forged overlapping segment) carrying different bytes for
    /// the same sequence range cannot alter what will be delivered.
    /// Delivered (absorbed) bytes are unreachable by construction,
    /// since `offset` counts from `rcv_nxt`. Conflicting rewrites are
    /// tallied in [`RecvBuffer::conflicts`].
    pub fn write(&mut self, offset: usize, data: &[u8]) -> usize {
        let end = self.window().min(offset.saturating_add(data.len()));
        if end <= offset {
            return 0;
        }
        let data = &data[..end - offset];
        let (cap, rcv_nxt) = (self.capacity(), self.head + self.avail);
        // Walk the held ranges: copy the gap before each one and compare
        // the overlap with it, each clipped to `at..end`; then copy what
        // lies past the last one.
        let mut at = offset;
        for &(s, e) in self.ranges.as_slice() {
            let (s, e) = ((s as usize).clamp(at, end), (e as usize).clamp(at, end));
            put(&mut self.buf, rcv_nxt + at, &data[at - offset..s - offset]);
            let src = &data[s - offset..e - offset];
            let (a, b) = span(cap, rcv_nxt + s, src.len());
            let held = self.buf[a].iter().chain(&self.buf[b]);
            self.conflicts += held.zip(src).filter(|(h, n)| h != n).count() as u64;
            at = e;
        }
        put(&mut self.buf, rcv_nxt + at, &data[at - offset..]);
        if offset > 0 {
            self.ranges.insert(offset as u32, end as u32);
            return 0;
        }
        // In sequence: moving `rcv_nxt` to `end` drops the held ranges
        // the write covered and clips one it reaches to start at offset
        // 0; that one is in sequence too, and is absorbed the same way.
        self.ranges.advance(end as u32);
        let mut n = end;
        if let Some(&(0, e)) = self.ranges.as_slice().first() {
            self.ranges.advance(e);
            n += e as usize;
        }
        self.avail += n;
        n
    }

    /// Reads up to `out.len()` in-sequence bytes into `out`, consuming
    /// them. Returns the count read.
    pub fn read(&mut self, out: &mut [u8]) -> usize {
        let n = self.peek(out);
        self.head = (self.head + n) % self.capacity();
        self.avail -= n;
        n
    }

    /// Peeks at in-sequence bytes without consuming.
    pub fn peek(&self, out: &mut [u8]) -> usize {
        let n = out.len().min(self.avail);
        let (a, b) = span(self.capacity(), self.head, n);
        out[..a.len()].copy_from_slice(&self.buf[a.clone()]);
        out[a.len()..n].copy_from_slice(&self.buf[b]);
        n
    }

    /// Internal consistency check used by tests and property tests:
    /// held ranges are non-empty, sorted, separated by a gap, none
    /// starts at offset 0 (it would have been absorbed) and all lie
    /// inside the window.
    pub fn check_invariants(&self) {
        let mut prev_end = 0;
        for &(s, e) in self.ranges.as_slice() {
            assert!(s < e, "empty range ({s},{e})");
            assert!(s > prev_end, "range ({s},{e}) touches offset {prev_end}");
            assert!(e as usize <= self.window(), "range ({s},{e}) beyond window");
            prev_end = e;
        }
    }
}

/// The index ranges of the `len` bytes starting at index `at` (taken
/// modulo `cap`) of a circular buffer of `cap` bytes: the run up to
/// the buffer's end, then the part that wraps to its start.
fn span(cap: usize, at: usize, len: usize) -> (Range<usize>, Range<usize>) {
    let at = at % cap;
    let first = len.min(cap - at);
    (at..at + first, 0..len - first)
}

/// Copies `src` into the circular buffer `buf` from index `at` on.
fn put(buf: &mut [u8], at: usize, src: &[u8]) {
    let (a, b) = span(buf.len(), at, src.len());
    buf[a.clone()].copy_from_slice(&src[..a.len()]);
    buf[b].copy_from_slice(&src[a.len()..]);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn in_order_delivery() {
        let mut rb = RecvBuffer::new(16);
        assert_eq!(rb.write(0, b"hello"), 5);
        assert_eq!(rb.available(), 5);
        let mut out = [0u8; 5];
        assert_eq!(rb.read(&mut out), 5);
        assert_eq!(&out, b"hello");
        assert_eq!(rb.available(), 0);
        rb.check_invariants();
    }

    #[test]
    fn out_of_order_held_until_hole_fills() {
        let mut rb = RecvBuffer::new(16);
        assert_eq!(rb.write(5, b"world"), 0, "ooo data yields nothing yet");
        assert_eq!(rb.available(), 0);
        assert!(rb.has_out_of_order());
        assert_eq!(rb.out_of_order_ranges(), &[(5, 10)]);
        rb.check_invariants();
        // Filling the hole releases both pieces at once.
        assert_eq!(rb.write(0, b"hello"), 10);
        assert_eq!(rb.available(), 10);
        assert!(!rb.has_out_of_order());
        let mut out = [0u8; 10];
        rb.read(&mut out);
        assert_eq!(&out, b"helloworld");
        rb.check_invariants();
    }

    #[test]
    fn overlapping_ooo_segments_merge() {
        let mut rb = RecvBuffer::new(32);
        rb.write(4, b"defg");
        rb.write(6, b"fghij");
        assert_eq!(rb.out_of_order_ranges(), &[(4, 11)]);
        rb.write(12, b"LM");
        assert_eq!(rb.out_of_order_ranges(), &[(4, 11), (12, 14)]);
        rb.check_invariants();
        rb.write(0, b"abcd"); // releases first range only
        assert_eq!(rb.available(), 11);
        assert_eq!(rb.out_of_order_ranges(), &[(1, 3)]);
        rb.check_invariants();
    }

    #[test]
    fn window_shrinks_with_undelivered_data() {
        let mut rb = RecvBuffer::new(10);
        rb.write(0, b"abcdef");
        assert_eq!(rb.window(), 4);
        let mut out = [0u8; 6];
        rb.read(&mut out);
        assert_eq!(rb.window(), 10);
    }

    #[test]
    fn writes_beyond_window_are_trimmed() {
        let mut rb = RecvBuffer::new(8);
        assert_eq!(rb.write(0, b"0123456789ABC"), 8);
        assert_eq!(rb.available(), 8);
        let mut out = [0u8; 8];
        rb.read(&mut out);
        assert_eq!(&out, b"01234567");
        rb.check_invariants();
    }

    #[test]
    fn ooo_write_entirely_beyond_window_ignored() {
        let mut rb = RecvBuffer::new(8);
        assert_eq!(rb.write(9, b"zz"), 0);
        assert!(!rb.has_out_of_order());
        rb.check_invariants();
    }

    #[test]
    fn wraparound_reassembly() {
        let mut rb = RecvBuffer::new(8);
        rb.write(0, b"abcdef");
        let mut out = [0u8; 6];
        rb.read(&mut out);
        // Head now 6. Write 7 bytes with a hole: [2..7) first, then [0..2).
        rb.write(2, b"CDEFG");
        assert_eq!(rb.available(), 0);
        rb.check_invariants();
        rb.write(0, b"AB");
        assert_eq!(rb.available(), 7);
        let mut out = [0u8; 7];
        rb.read(&mut out);
        assert_eq!(&out, b"ABCDEFG");
        rb.check_invariants();
    }

    #[test]
    fn duplicate_in_order_data_rewrites_harmlessly() {
        let mut rb = RecvBuffer::new(16);
        rb.write(0, b"abc");
        // Retransmission overlapping delivered region is the socket's
        // job to trim; here offset 0 now refers to *new* stream data
        // (post-rcv_nxt), so a fresh write lands after "abc".
        rb.write(0, b"def");
        assert_eq!(rb.available(), 6);
        let mut out = [0u8; 6];
        rb.read(&mut out);
        assert_eq!(&out, b"abcdef");
    }

    #[test]
    fn peek_does_not_consume() {
        let mut rb = RecvBuffer::new(8);
        rb.write(0, b"xyz");
        let mut out = [0u8; 3];
        assert_eq!(rb.peek(&mut out), 3);
        assert_eq!(&out, b"xyz");
        assert_eq!(rb.available(), 3);
    }

    #[test]
    fn conflicting_overlap_first_write_wins() {
        let mut rb = RecvBuffer::new(32);
        rb.write(4, b"GOOD");
        // A forged overlapping retransmission with different bytes for
        // the same range must not alter the held data.
        assert_eq!(rb.write(4, b"EVIL"), 0);
        assert_eq!(rb.conflicts(), 4);
        rb.check_invariants();
        rb.write(0, b"xxxx");
        let mut out = [0u8; 8];
        assert_eq!(rb.read(&mut out), 8);
        assert_eq!(&out, b"xxxxGOOD", "first write delivered, not the rewrite");
    }

    #[test]
    fn partial_conflicting_overlap_keeps_held_prefix() {
        let mut rb = RecvBuffer::new(32);
        rb.write(6, b"cdef");
        // Overlap [4..10): new bytes for [4..6), conflicting for [6..10).
        assert_eq!(rb.write(4, b"abXXXX"), 0);
        assert_eq!(rb.out_of_order_ranges(), &[(4, 10)]);
        assert_eq!(rb.conflicts(), 4);
        rb.write(0, b"....");
        let mut out = [0u8; 10];
        rb.read(&mut out);
        assert_eq!(&out, b"....abcdef");
        rb.check_invariants();
    }

    #[test]
    fn identical_duplicate_overlap_counts_no_conflict() {
        let mut rb = RecvBuffer::new(16);
        rb.write(3, b"abc");
        rb.write(3, b"abc");
        assert_eq!(rb.conflicts(), 0, "benign dup retransmit is not a conflict");
        rb.check_invariants();
    }

    #[test]
    fn bulk_in_order_path_equals_bytewise_stream() {
        // Drive one buffer with in-order appends (bulk path, including
        // wraparound splits) interleaved with reads, and check the
        // delivered stream matches the source byte-for-byte. An OOO
        // write mid-stream forces the general path; once it drains the
        // bulk path must resume seamlessly.
        let mut rb = RecvBuffer::new(16);
        let src: Vec<u8> = (0u16..200).map(|i| (i * 31 % 251) as u8).collect();
        let mut fed = 0usize;
        let mut delivered = Vec::new();
        let mut step = 0usize;
        while delivered.len() < src.len() {
            step += 1;
            let n = 1 + (step * 7) % 11;
            if step == 5 && fed + n + 3 < src.len() && rb.window() > n + 3 {
                // One out-of-order interlude: future bytes first.
                assert_eq!(rb.write(n, &src[fed + n..fed + n + 3]), 0);
                let got = rb.write(0, &src[fed..fed + n]);
                assert_eq!(got, n + 3);
                fed += n + 3;
            } else if fed < src.len() {
                let take = n.min(src.len() - fed);
                let wrote = rb.write(0, &src[fed..fed + take]);
                fed += wrote;
            }
            rb.check_invariants();
            let mut out = [0u8; 6];
            let r = rb.read(&mut out);
            delivered.extend_from_slice(&out[..r]);
        }
        assert_eq!(delivered, src);
    }

    #[test]
    fn read_and_peek_across_wrap_match_reference_stream() {
        // Odd capacity and read sizes walk the head through every wrap
        // offset; a reference copy of the stream checks each byte.
        let mut rb = RecvBuffer::new(13);
        let src: Vec<u8> = (0u16..400).map(|i| (i * 7 + 3) as u8).collect();
        let (mut fed, mut got) = (0usize, 0usize);
        let mut step = 0usize;
        while got < src.len() {
            step += 1;
            let take = (1 + step * 5 % 9).min(src.len() - fed);
            fed += rb.write(0, &src[fed..fed + take]);
            let want = 1 + step * 3 % 11;
            let mut peeked = vec![0u8; want];
            let p = rb.peek(&mut peeked);
            assert_eq!(peeked[..p], src[got..got + p], "peek at {got}");
            assert_eq!(rb.available(), fed - got, "peek consumes nothing");
            let mut out = vec![0u8; want];
            let r = rb.read(&mut out);
            assert_eq!(r, p);
            assert_eq!(out[..r], src[got..got + r], "read at {got}");
            got += r;
            rb.check_invariants();
        }
    }

    #[test]
    fn out_of_order_run_across_the_wrap_point() {
        // A 40-byte out-of-order run that wraps the buffer end is
        // copied in two slices, compared in two slices when a
        // retransmission overlaps it, and absorbed whole.
        let mut rb = RecvBuffer::new(64);
        rb.write(0, &[1; 50]);
        let mut out = [0u8; 50];
        rb.read(&mut out); // head = 50
        let run: Vec<u8> = (0..40).collect();
        assert_eq!(rb.write(3, &run), 0);
        rb.check_invariants();
        let mut forged = run.clone();
        forged[10] ^= 1; // before the wrap point
        forged[20] ^= 1; // after it
        assert_eq!(rb.write(3, &forged), 0);
        assert_eq!(rb.conflicts(), 2);
        assert_eq!(rb.write(0, b"abc"), 43);
        assert!(!rb.has_out_of_order());
        rb.check_invariants();
        let mut out = [0u8; 43];
        rb.read(&mut out);
        assert_eq!(&out[..3], b"abc");
        assert_eq!(out[3..], run[..]);
    }

    #[test]
    fn range_merge_bridges_several_held_ranges() {
        let mut rb = RecvBuffer::new(64);
        rb.write(10, b"aa");
        rb.write(20, b"bb");
        rb.write(30, b"cc");
        rb.write(40, b"dd");
        // One write touching the end of the first and the start of the
        // third swallows the second.
        rb.write(12, &[b'x'; 18]);
        assert_eq!(rb.out_of_order_ranges(), &[(10, 32), (40, 42)]);
        rb.write(5, b"yy");
        assert_eq!(rb.out_of_order_ranges(), &[(5, 7), (10, 32), (40, 42)]);
        rb.check_invariants();
    }

    #[test]
    fn three_separate_holes_tracked_for_sack() {
        let mut rb = RecvBuffer::new(64);
        rb.write(10, b"aaaaa");
        rb.write(20, b"bbbbb");
        rb.write(30, b"ccccc");
        assert_eq!(rb.out_of_order_ranges(), &[(10, 15), (20, 25), (30, 35)]);
        rb.check_invariants();
        // Fill the first hole; second and third shift down by 15.
        rb.write(0, &[b'x'; 10]);
        assert_eq!(rb.available(), 15);
        assert_eq!(rb.out_of_order_ranges(), &[(5, 10), (15, 20)]);
        rb.check_invariants();
    }
}
