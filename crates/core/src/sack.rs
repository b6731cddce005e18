//! Sender-side SACK scoreboard (RFC 2018, with RFC 6675-style hole
//! selection, simplified for the small windows of LLN TCP).
//!
//! The scoreboard records which ranges beyond `snd_una` the receiver
//! has reported holding. During loss recovery the sender retransmits
//! the *holes* — ranges below the highest SACKed byte that have not
//! been SACKed — before sending new data, which is how TCPlp triggers
//! "retransmissions ... based on duplicate ACKs and Selective ACKs"
//! (§9.4) without waiting for timeouts.

use crate::rangeset::RangeSet;
use crate::seq::TcpSeq;
use crate::wire::SackBlock;

/// Classification tallies for one [`SackScoreboard::update`] call.
/// The socket mirrors these into [`crate::stats::TcpStats`] so forged
/// option floods are visible in the counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SackUpdate {
    /// Blocks accepted into the scoreboard (possibly clamped).
    pub accepted: u32,
    /// Blocks rejected as malformed or outside `snd_una..snd_max` —
    /// a receiver can only legitimately SACK data we actually sent.
    pub rejected: u32,
    /// D-SACK blocks (RFC 2883): duplicate reports at or below the
    /// cumulative ACK. Harmless; counted and otherwise ignored.
    pub dsack: u32,
}

/// Sender-side record of SACKed ranges.
#[derive(Clone, Debug, Default)]
pub struct SackScoreboard {
    /// `snd_una` as of the last [`SackScoreboard::update`] or
    /// [`SackScoreboard::advance`]: the left edge `ranges` count from.
    base: TcpSeq,
    /// SACKed ranges as offsets from `base`.
    ranges: RangeSet,
    /// Retransmission cursor: everything below this (within holes) has
    /// been retransmitted this recovery episode.
    rexmit_cursor: Option<TcpSeq>,
}

impl SackScoreboard {
    /// Creates an empty scoreboard.
    pub fn new() -> Self {
        Self::default()
    }

    /// True when no SACK information is held.
    pub fn is_empty(&self) -> bool {
        self.ranges.is_empty()
    }

    /// The SACKed ranges `(start, end)`, ascending and disjoint, all at
    /// or above the last `snd_una` the scoreboard was given.
    pub fn ranges(&self) -> impl Iterator<Item = (TcpSeq, TcpSeq)> + '_ {
        let base = self.base;
        self.ranges
            .as_slice()
            .iter()
            .map(move |&(s, e)| (base + s, base + e))
    }

    /// Total SACKed bytes (above snd_una).
    pub fn sacked_bytes(&self) -> u32 {
        self.ranges.as_slice().iter().map(|&(s, e)| e - s).sum()
    }

    /// Ingests SACK blocks from an ACK, validating every block against
    /// the send sequence space before it can touch the scoreboard:
    ///
    /// - `start >= end` is malformed → rejected;
    /// - blocks entirely at/below `snd_una` are D-SACK duplicate
    ///   reports (RFC 2883) → counted, ignored;
    /// - blocks straddling `snd_una` are partial duplicates → the tail
    ///   above `snd_una` is accepted, the duplicate part counted;
    /// - everything else must satisfy
    ///   `snd_una <= start < end <= snd_max` *by unwrapped distance
    ///   from `snd_una`*, which defeats forged blocks whose modular
    ///   comparisons look in-range only because they wrapped (a forged
    ///   block marking un-SACKed data as received would suppress
    ///   legitimate retransmissions until an RTO rescue).
    pub fn update(&mut self, blocks: &[SackBlock], snd_una: TcpSeq, snd_max: TcpSeq) -> SackUpdate {
        self.advance(snd_una);
        let mut out = SackUpdate::default();
        let sendable = snd_max.distance_from(snd_una);
        for b in blocks {
            if b.start.ge(b.end) {
                out.rejected += 1; // malformed or wrapped-empty
                continue;
            }
            if b.end.le(snd_una) {
                out.dsack += 1; // full duplicate report below the ACK
                continue;
            }
            let d_end = b.end.distance_from(snd_una);
            if d_end == 0 || d_end > sendable {
                out.rejected += 1; // beyond snd_max (or ambiguous wrap)
                continue;
            }
            if b.start.lt(snd_una) {
                // A legitimate partial duplicate starts at most one
                // (unscaled) window below snd_una; a start further away
                // is a wrapped forgery trying to earn the clamp.
                if snd_una.distance_from(b.start) > 65_535 {
                    out.rejected += 1;
                    continue;
                }
                // Partial duplicate: clamp to snd_una, keep the tail.
                out.dsack += 1;
                out.accepted += 1;
                self.ranges.insert(0, d_end);
                continue;
            }
            let d_start = b.start.distance_from(snd_una);
            if d_start >= d_end {
                out.rejected += 1; // start wrapped past end: forged
                continue;
            }
            out.accepted += 1;
            self.ranges.insert(d_start, d_end);
        }
        out
    }

    /// Discards ranges at or below the new `snd_una` (cumulative ACK).
    /// `snd_una` never moves backwards.
    pub fn advance(&mut self, snd_una: TcpSeq) {
        self.ranges.advance(snd_una.distance_from(self.base));
        self.base = snd_una;
        if let Some(c) = self.rexmit_cursor {
            if c.lt(snd_una) {
                self.rexmit_cursor = Some(snd_una);
            }
        }
    }

    /// Clears everything (connection reset / timeout flushes scoreboard
    /// per RFC 6582's interaction note — we keep SACK info on RTO as
    /// FreeBSD does, so this is only for connection teardown).
    pub fn clear(&mut self) {
        self.ranges.clear();
        self.rexmit_cursor = None;
    }

    /// Begins a recovery episode: the rexmit cursor restarts at snd_una.
    pub fn start_recovery(&mut self, snd_una: TcpSeq) {
        self.rexmit_cursor = Some(snd_una);
    }

    /// Ends the recovery episode.
    pub fn end_recovery(&mut self) {
        self.rexmit_cursor = None;
    }

    /// Next hole to retransmit: the first range of un-SACKed bytes at or
    /// above the cursor and strictly below the highest SACKed byte.
    /// Returns `(start, max_len)` and advances the cursor past it.
    pub fn next_hole(&mut self, snd_una: TcpSeq, mss: u32) -> Option<(TcpSeq, u32)> {
        let (start, len) = self.peek_hole(snd_una, mss)?;
        self.rexmit_cursor = Some(start + len);
        Some((start, len))
    }

    /// The hole [`SackScoreboard::next_hole`] would return, without
    /// moving the cursor.
    pub fn peek_hole(&self, snd_una: TcpSeq, mss: u32) -> Option<(TcpSeq, u32)> {
        let cursor = self.rexmit_cursor.unwrap_or(snd_una).max(snd_una);
        let mut at = cursor.distance_from(self.base);
        // The first gap at or above `at` that a SACKed range closes.
        for &(s, e) in self.ranges.as_slice() {
            if at < s {
                return Some((self.base + at, (s - at).min(mss)));
            }
            at = at.max(e);
        }
        None
    }

    /// Asserts the scoreboard invariants the property tests rely on:
    /// ranges sorted ascending, pairwise disjoint, every range
    /// non-empty and fully inside `snd_una..=snd_max` (measured by
    /// unwrapped distance from `snd_una`, so a corrupted wrapped range
    /// cannot hide). A scoreboard that survives adversarial SACK input
    /// must hold these at all times; reneging receivers are tolerated
    /// because the RTO path retransmits from `snd_una` regardless of
    /// what the scoreboard claims.
    pub fn check_invariants(&self, snd_una: TcpSeq, snd_max: TcpSeq) {
        let span = snd_max.distance_from(snd_una);
        let mut prev_end: Option<u32> = None;
        for (s, e) in self.ranges() {
            let ds = s.distance_from(snd_una);
            let de = e.distance_from(snd_una);
            assert!(ds < de, "empty/inverted range ({s:?},{e:?})");
            assert!(de <= span, "range ({s:?},{e:?}) beyond snd_max {snd_max:?}");
            if let Some(p) = prev_end {
                assert!(p <= ds, "ranges overlap or unsorted at ({s:?},{e:?})");
            }
            prev_end = Some(de);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blk(s: u32, e: u32) -> SackBlock {
        SackBlock {
            start: TcpSeq(s),
            end: TcpSeq(e),
        }
    }

    /// The scoreboard's ranges as raw sequence numbers.
    fn held(sb: &SackScoreboard) -> Vec<(u32, u32)> {
        sb.ranges().map(|(s, e)| (s.0, e.0)).collect()
    }

    #[test]
    fn update_records_valid_blocks() {
        let mut sb = SackScoreboard::new();
        sb.update(&[blk(1000, 1462)], TcpSeq(538), TcpSeq(2000));
        assert_eq!(held(&sb), [(1000, 1462)]);
        assert_eq!(sb.sacked_bytes(), 462);
    }

    #[test]
    fn forged_blocks_ignored() {
        let mut sb = SackScoreboard::new();
        // Beyond snd_max.
        let r = sb.update(&[blk(5000, 6000)], TcpSeq(0), TcpSeq(2000));
        assert!(sb.is_empty());
        assert_eq!(r.rejected, 1);
        // Below snd_una: a D-SACK duplicate report, not an error.
        let r = sb.update(&[blk(0, 100)], TcpSeq(500), TcpSeq(2000));
        assert!(sb.is_empty());
        assert_eq!(r.dsack, 1);
        assert_eq!(r.rejected, 0);
        // Malformed (start >= end).
        let r = sb.update(&[blk(700, 600)], TcpSeq(500), TcpSeq(2000));
        assert!(sb.is_empty());
        assert_eq!(r.rejected, 1);
    }

    #[test]
    fn wrapped_forgery_rejected_not_clamped() {
        // A block whose start sits modularly "behind" snd_una by almost
        // 2^31 passes naive modular clamping and would insert a bogus
        // SACKed range covering data the receiver never saw. The
        // distance-based validation must reject it outright.
        let mut sb = SackScoreboard::new();
        let una = TcpSeq(10_000);
        let smax = TcpSeq(12_000);
        let forged = SackBlock {
            start: una + (1 << 31) + 1, // modularly lt(una), far away
            end: TcpSeq(11_500),
        };
        let r = sb.update(&[forged], una, smax);
        assert_eq!(r.rejected, 1, "wrapped start must not earn the clamp");
        assert!(sb.is_empty());
        sb.check_invariants(una, smax);

        // A block wrapping past snd_max entirely is pure forgery.
        let mut sb2 = SackScoreboard::new();
        let forged2 = SackBlock {
            start: TcpSeq(11_000),
            end: TcpSeq(11_000) + (1 << 30),
        };
        let r2 = sb2.update(&[forged2], una, smax);
        assert_eq!(r2.rejected, 1);
        assert!(sb2.is_empty());
        sb2.check_invariants(una, smax);
    }

    #[test]
    fn partial_dsack_clamps_and_counts() {
        let mut sb = SackScoreboard::new();
        // Block straddles snd_una: [400, 900) against una=500.
        let r = sb.update(&[blk(400, 900)], TcpSeq(500), TcpSeq(2000));
        assert_eq!(r.dsack, 1);
        assert_eq!(r.accepted, 1);
        assert_eq!(sb.sacked_bytes(), 400, "only the tail above una");
        sb.check_invariants(TcpSeq(500), TcpSeq(2000));
    }

    #[test]
    fn overlapping_blocks_merge() {
        let mut sb = SackScoreboard::new();
        sb.update(&[blk(100, 200), blk(150, 300)], TcpSeq(0), TcpSeq(1000));
        assert_eq!(sb.sacked_bytes(), 200);
        sb.update(&[blk(300, 400)], TcpSeq(0), TcpSeq(1000));
        assert_eq!(sb.sacked_bytes(), 300, "adjacent ranges merge");
        assert_eq!(held(&sb), [(100, 400)]);
    }

    #[test]
    fn advance_trims_acked_ranges() {
        let mut sb = SackScoreboard::new();
        sb.update(&[blk(100, 200), blk(300, 400)], TcpSeq(0), TcpSeq(1000));
        sb.advance(TcpSeq(150));
        assert_eq!(held(&sb), [(150, 200), (300, 400)]);
        sb.advance(TcpSeq(400));
        assert!(sb.is_empty());
    }

    #[test]
    fn next_hole_walks_holes_in_order() {
        let mut sb = SackScoreboard::new();
        // SACKed: [462,924) and [1386,1848). Holes: [0,462), [924,1386).
        sb.update(&[blk(462, 924), blk(1386, 1848)], TcpSeq(0), TcpSeq(1848));
        sb.start_recovery(TcpSeq(0));
        assert_eq!(sb.next_hole(TcpSeq(0), 462), Some((TcpSeq(0), 462)));
        assert_eq!(sb.next_hole(TcpSeq(0), 462), Some((TcpSeq(924), 462)));
        assert_eq!(sb.next_hole(TcpSeq(0), 462), None, "no hole above highest");
    }

    #[test]
    fn next_hole_respects_mss_chunking() {
        let mut sb = SackScoreboard::new();
        sb.update(&[blk(1000, 1100)], TcpSeq(0), TcpSeq(1848));
        sb.start_recovery(TcpSeq(0));
        assert_eq!(sb.next_hole(TcpSeq(0), 400), Some((TcpSeq(0), 400)));
        assert_eq!(sb.next_hole(TcpSeq(0), 400), Some((TcpSeq(400), 400)));
        assert_eq!(sb.next_hole(TcpSeq(0), 400), Some((TcpSeq(800), 200)));
        assert_eq!(sb.next_hole(TcpSeq(0), 400), None);
    }

    #[test]
    fn cursor_restarts_per_recovery() {
        let mut sb = SackScoreboard::new();
        sb.update(&[blk(462, 924)], TcpSeq(0), TcpSeq(1848));
        sb.start_recovery(TcpSeq(0));
        assert!(sb.next_hole(TcpSeq(0), 462).is_some());
        assert!(sb.next_hole(TcpSeq(0), 462).is_none());
        sb.end_recovery();
        sb.start_recovery(TcpSeq(0));
        assert_eq!(sb.next_hole(TcpSeq(0), 462), Some((TcpSeq(0), 462)));
    }

    #[test]
    fn wraparound_sequences() {
        let mut sb = SackScoreboard::new();
        let una = TcpSeq(u32::MAX - 100);
        let smax = una + 2000;
        sb.update(
            &[SackBlock {
                start: una + 500,
                end: una + 1000,
            }],
            una,
            smax,
        );
        assert_eq!(sb.sacked_bytes(), 500);
        sb.start_recovery(una);
        let (h, l) = sb.next_hole(una, 1000).unwrap();
        assert_eq!(h, una);
        assert_eq!(l, 500);
    }
}
