//! Sorted, disjoint byte ranges measured from a moving left edge.
//!
//! Both records of out-of-order data use this one type: the receive
//! buffer's held ranges (offsets from `rcv_nxt`, which SACK advertises)
//! and the sender's SACK scoreboard (offsets from `snd_una`). When the
//! left edge moves, [`RangeSet::advance`] drops what it passed and
//! rebases the rest, so offsets stay small and never wrap.

/// Half-open `u32` ranges, sorted ascending, pairwise disjoint and
/// never touching (a gap of at least one byte separates neighbours).
#[derive(Clone, Debug, Default)]
pub(crate) struct RangeSet {
    ranges: Vec<(u32, u32)>,
}

impl RangeSet {
    /// An empty set with room for `n` ranges before it allocates again.
    pub(crate) fn with_capacity(n: usize) -> Self {
        RangeSet {
            ranges: Vec::with_capacity(n),
        }
    }

    /// The ranges `(start, end)`, ascending.
    pub(crate) fn as_slice(&self) -> &[(u32, u32)] {
        &self.ranges
    }

    /// True when no range is held.
    pub(crate) fn is_empty(&self) -> bool {
        self.ranges.is_empty()
    }

    /// Drops every range (capacity kept).
    pub(crate) fn clear(&mut self) {
        self.ranges.clear();
    }

    /// Adds `start..end`, merging it with every range it overlaps or
    /// touches. Allocates only when the list outgrows its largest size
    /// so far.
    pub(crate) fn insert(&mut self, start: u32, end: u32) {
        debug_assert!(start < end, "empty range {start}..{end}");
        // `ranges[i..j]` are exactly the ranges that overlap or touch.
        let i = self.ranges.partition_point(|r| r.1 < start);
        let j = i + self.ranges[i..].partition_point(|r| r.0 <= end);
        if i == j {
            self.ranges.insert(i, (start, end));
        } else {
            self.ranges[i] = (start.min(self.ranges[i].0), end.max(self.ranges[j - 1].1));
            self.ranges.drain(i + 1..j);
        }
    }

    /// Moves the left edge up by `n`: drops what lies below it, clips a
    /// range that straddles it, and rebases the rest.
    pub(crate) fn advance(&mut self, n: u32) {
        let gone = self.ranges.partition_point(|r| r.1 <= n);
        self.ranges.drain(..gone);
        for r in &mut self.ranges {
            *r = (r.0.saturating_sub(n), r.1 - n);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(ranges: &[(u32, u32)]) -> RangeSet {
        let mut s = RangeSet::default();
        for &(a, b) in ranges {
            s.insert(a, b);
        }
        s
    }

    #[test]
    fn insert_keeps_disjoint_ranges_sorted() {
        let s = set(&[(30, 32), (10, 12), (20, 22)]);
        assert_eq!(s.as_slice(), &[(10, 12), (20, 22), (30, 32)]);
    }

    #[test]
    fn insert_bridges_several_ranges() {
        let mut s = set(&[(10, 12), (20, 22), (30, 32), (40, 42)]);
        // Overlaps the first, swallows the second, reaches into the third.
        s.insert(11, 31);
        assert_eq!(s.as_slice(), &[(10, 32), (40, 42)]);
        // Covers everything.
        s.insert(0, 50);
        assert_eq!(s.as_slice(), &[(0, 50)]);
    }

    #[test]
    fn touching_ranges_merge() {
        let mut s = set(&[(10, 20)]);
        s.insert(20, 25);
        assert_eq!(s.as_slice(), &[(10, 25)], "touching on the right");
        s.insert(5, 10);
        assert_eq!(s.as_slice(), &[(5, 25)], "touching on the left");
        s.insert(30, 40);
        s.insert(25, 30);
        assert_eq!(s.as_slice(), &[(5, 40)], "filling the exact gap");
        s.insert(41, 42);
        assert_eq!(s.as_slice(), &[(5, 40), (41, 42)], "a one-byte gap stays");
    }

    #[test]
    fn advance_clips_a_straddler_and_drops_what_lies_below() {
        let mut s = set(&[(2, 4), (6, 8), (10, 20), (30, 35)]);
        s.advance(12);
        assert_eq!(s.as_slice(), &[(0, 8), (18, 23)]);
        s.advance(8);
        assert_eq!(s.as_slice(), &[(10, 15)], "a range ending at the edge goes");
        s.advance(0);
        assert_eq!(s.as_slice(), &[(10, 15)], "advancing by 0 changes nothing");
        s.advance(100);
        assert!(s.is_empty());
    }
}
