//! The TCPlp send buffer: a fixed-capacity circular byte buffer holding
//! unacknowledged and unsent stream data.
//!
//! §4.3.1 of the paper describes a zero-copy send path: outgoing
//! segments reference the send-buffer memory directly (as iovecs)
//! instead of copying into per-packet buffers. We reproduce that with
//! [`SendBuffer::view`], which returns up to two borrowed slices (the
//! circular wrap) covering a segment's payload; the driving stack
//! serialises straight from those slices.

/// Fixed-capacity circular send buffer.
#[derive(Clone, Debug)]
pub struct SendBuffer {
    buf: Vec<u8>,
    head: usize, // index of the first unacknowledged byte
    len: usize,  // bytes stored (unacked + unsent)
}

impl SendBuffer {
    /// Creates a buffer with `capacity` bytes, preallocated at
    /// "compile time" fashion (one allocation, never grows) as §4.3
    /// prescribes for deterministic memory use.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0);
        SendBuffer {
            buf: vec![0; capacity],
            head: 0,
            len: 0,
        }
    }

    /// Total capacity in bytes.
    pub fn capacity(&self) -> usize {
        self.buf.len()
    }

    /// Bytes currently buffered.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no bytes are buffered.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Free space in bytes.
    pub fn free(&self) -> usize {
        self.capacity() - self.len
    }

    /// Appends as much of `data` as fits; returns the number of bytes
    /// accepted (the socket `send()` short-write semantics).
    pub fn push(&mut self, data: &[u8]) -> usize {
        let n = data.len().min(self.free());
        let cap = self.capacity();
        let pos = (self.head + self.len) % cap;
        // Two bulk copies (split at the wrap point) instead of a
        // byte-at-a-time walk.
        let first = n.min(cap - pos);
        self.buf[pos..pos + first].copy_from_slice(&data[..first]);
        self.buf[..n - first].copy_from_slice(&data[first..n]);
        self.len += n;
        n
    }

    /// Drops `n` acknowledged bytes from the front.
    ///
    /// # Panics
    /// Panics if `n > len` (the socket guards this with the ACK check).
    pub fn advance(&mut self, n: usize) {
        assert!(n <= self.len, "acking more than buffered");
        self.head = (self.head + n) % self.capacity();
        self.len -= n;
    }

    /// Zero-copy view of `len` bytes starting `offset` bytes into the
    /// buffered stream: returns one or two slices (two when the range
    /// wraps the circular boundary). The requested range is clamped to
    /// the buffered data.
    pub fn view(&self, offset: usize, len: usize) -> (&[u8], &[u8]) {
        if offset >= self.len {
            return (&[], &[]);
        }
        let len = len.min(self.len - offset);
        let cap = self.capacity();
        let start = (self.head + offset) % cap;
        let first = (cap - start).min(len);
        (&self.buf[start..start + first], &self.buf[..len - first])
    }

    /// Replaces `out`'s contents with the `len` bytes at `offset` (the
    /// same clamped range as [`SendBuffer::view`]). The caller owns and
    /// reuses `out`, so filling a segment payload allocates nothing once
    /// the buffer has grown to one MSS.
    pub fn copy_into(&self, offset: usize, len: usize, out: &mut Vec<u8>) {
        let (a, b) = self.view(offset, len);
        out.clear();
        out.extend_from_slice(a);
        out.extend_from_slice(b);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bytes_at(b: &SendBuffer, offset: usize, len: usize) -> Vec<u8> {
        let mut v = vec![0xEE; 3];
        b.copy_into(offset, len, &mut v);
        v
    }

    #[test]
    fn push_and_len_accounting() {
        let mut b = SendBuffer::new(10);
        assert_eq!(b.push(b"hello"), 5);
        assert_eq!(b.len(), 5);
        assert_eq!(b.free(), 5);
        assert_eq!(b.push(b"worldXYZ"), 5, "short write at capacity");
        assert_eq!(b.len(), 10);
        assert_eq!(b.push(b"!"), 0);
    }

    #[test]
    fn advance_frees_space() {
        let mut b = SendBuffer::new(8);
        b.push(b"abcdefgh");
        b.advance(3);
        assert_eq!(b.len(), 5);
        assert_eq!(b.push(b"XY"), 2);
        assert_eq!(bytes_at(&b, 0, 7), b"defghXY");
    }

    #[test]
    #[should_panic(expected = "acking more than buffered")]
    fn advance_past_len_panics() {
        let mut b = SendBuffer::new(4);
        b.push(b"ab");
        b.advance(3);
    }

    #[test]
    fn view_without_wrap_is_single_slice() {
        let mut b = SendBuffer::new(16);
        b.push(b"0123456789");
        let (a, rest) = b.view(2, 5);
        assert_eq!(a, b"23456");
        assert!(rest.is_empty());
    }

    #[test]
    fn view_wraps_into_two_slices() {
        let mut b = SendBuffer::new(8);
        b.push(b"abcdefgh");
        b.advance(6); // head = 6, len = 2
        b.push(b"wxyz"); // occupies 8..12 mod 8 -> wraps
        let (x, y) = b.view(0, 6);
        assert_eq!(x, b"gh");
        assert_eq!(y, b"wxyz");
        assert_eq!(bytes_at(&b, 0, 6), b"ghwxyz");
    }

    #[test]
    fn view_clamps_to_buffered_data() {
        let mut b = SendBuffer::new(8);
        b.push(b"abc");
        let (x, y) = b.view(1, 100);
        assert_eq!(x, b"bc");
        assert!(y.is_empty());
        let (x, y) = b.view(5, 2);
        assert!(x.is_empty() && y.is_empty());
    }

    #[test]
    fn copy_into_matches_stream_order_across_many_cycles() {
        let mut b = SendBuffer::new(7);
        let mut expect: Vec<u8> = Vec::new();
        let mut next: u8 = 0;
        for _ in 0..50 {
            let chunk: Vec<u8> = (0..3)
                .map(|_| {
                    next = next.wrapping_add(1);
                    next
                })
                .collect();
            let taken = b.push(&chunk);
            expect.extend_from_slice(&chunk[..taken]);
            // Ack two bytes when we have them.
            if b.len() >= 2 {
                assert_eq!(bytes_at(&b, 0, 2), expect[..2].to_vec());
                b.advance(2);
                expect.drain(..2);
            }
        }
        assert_eq!(bytes_at(&b, 0, b.len()), expect);
    }
}
