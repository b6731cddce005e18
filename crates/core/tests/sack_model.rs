//! The SACK scoreboard against a reference model.
//!
//! [`RefScoreboard`] is the scoreboard as first written: every accepted
//! block rebuilds the range list into a fresh `Vec`. The production
//! [`SackScoreboard`] merges in place instead. Over random block
//! streams — honest, overlapping, touching, duplicate, malformed and
//! wrapped, with sequence numbers crossing 2^32 — both must report the
//! same [`SackUpdate`] tallies, hold the same ranges and SACKed bytes,
//! and propose the same holes. A counting allocator then pins that the
//! in-place merge allocates nothing once its list has grown.

use lln_sim::Rng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use tcplp::{SackBlock, SackScoreboard, SackUpdate, TcpSeq};

struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with`: the slot may already be gone while a thread exits.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every call is forwarded unchanged to the system allocator;
// counting only touches a const-initialised thread-local `Cell`, which
// never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

/// The reference scoreboard: same validation, same hole walk, and the
/// original allocating merge.
#[derive(Default)]
struct RefScoreboard {
    ranges: Vec<(TcpSeq, TcpSeq)>,
    rexmit_cursor: Option<TcpSeq>,
}

impl RefScoreboard {
    fn sacked_bytes(&self) -> u32 {
        self.ranges.iter().map(|&(s, e)| e.distance_from(s)).sum()
    }

    fn update(&mut self, blocks: &[SackBlock], snd_una: TcpSeq, snd_max: TcpSeq) -> SackUpdate {
        let mut out = SackUpdate::default();
        let sendable = snd_max.distance_from(snd_una);
        for b in blocks {
            if b.start.ge(b.end) {
                out.rejected += 1;
                continue;
            }
            if b.end.le(snd_una) {
                out.dsack += 1;
                continue;
            }
            let d_end = b.end.distance_from(snd_una);
            if d_end == 0 || d_end > sendable {
                out.rejected += 1;
                continue;
            }
            if b.start.lt(snd_una) {
                if snd_una.distance_from(b.start) > 65_535 {
                    out.rejected += 1;
                    continue;
                }
                out.dsack += 1;
                out.accepted += 1;
                self.insert(snd_una, b.end);
                continue;
            }
            let d_start = b.start.distance_from(snd_una);
            if d_start >= d_end {
                out.rejected += 1;
                continue;
            }
            out.accepted += 1;
            self.insert(b.start, b.end);
        }
        self.advance(snd_una);
        out
    }

    fn insert(&mut self, start: TcpSeq, end: TcpSeq) {
        let mut new = (start, end);
        let mut out = Vec::with_capacity(self.ranges.len() + 1);
        let mut inserted = false;
        for &r in &self.ranges {
            if r.1.lt(new.0) {
                out.push(r);
            } else if new.1.lt(r.0) {
                if !inserted {
                    out.push(new);
                    inserted = true;
                }
                out.push(r);
            } else {
                new = (new.0.min(r.0), new.1.max(r.1));
            }
        }
        if !inserted {
            out.push(new);
        }
        self.ranges = out;
    }

    fn advance(&mut self, snd_una: TcpSeq) {
        self.ranges.retain_mut(|r| {
            if r.1.le(snd_una) {
                false
            } else {
                if r.0.lt(snd_una) {
                    r.0 = snd_una;
                }
                true
            }
        });
        if let Some(c) = self.rexmit_cursor {
            if c.lt(snd_una) {
                self.rexmit_cursor = Some(snd_una);
            }
        }
    }

    fn next_hole(&mut self, snd_una: TcpSeq, mss: u32) -> Option<(TcpSeq, u32)> {
        let highest = self.ranges.last().map(|&(_, e)| e)?;
        let mut cursor = self.rexmit_cursor.unwrap_or(snd_una).max(snd_una);
        loop {
            if cursor.ge(highest) {
                return None;
            }
            match self
                .ranges
                .iter()
                .find(|&&(s, e)| s.le(cursor) && cursor.lt(e))
            {
                Some(&(_, e)) => cursor = e,
                None => break,
            }
        }
        let hole_end = self
            .ranges
            .iter()
            .map(|&(s, _)| s)
            .filter(|s| s.gt(cursor))
            .fold(highest, |acc, s| if s.lt(acc) { s } else { acc });
        let len = hole_end.distance_from(cursor).min(mss);
        self.rexmit_cursor = Some(cursor + len);
        Some((cursor, len))
    }
}

/// Draws a block around the flight `snd_una..snd_max` on a coarse grid,
/// so blocks overlap and touch often, salted with the inputs the
/// validation must sort out: inverted, empty, below `snd_una`, beyond
/// `snd_max`, and wrapped by 2^31.
fn gen_block(rng: &mut Rng, snd_una: TcpSeq, snd_max: TcpSeq) -> SackBlock {
    const GRID: u32 = 50;
    let cells = u64::from(snd_max.distance_from(snd_una) / GRID + 4);
    let at = |rng: &mut Rng| snd_una + (rng.gen_range(cells) as u32 * GRID) - 2 * GRID;
    let (a, b) = (at(rng), at(rng));
    let (start, end) = if a.le(b) { (a, b) } else { (b, a) };
    match rng.gen_range(10) {
        0..=6 => SackBlock { start, end },
        7 => SackBlock {
            start: end,
            end: start,
        },
        8 => SackBlock {
            start: snd_una - rng.gen_range_inclusive(1, 70_000) as u32,
            end,
        },
        _ => SackBlock {
            start: start + 0x8000_0000,
            end: end + 0x8000_0000,
        },
    }
}

#[test]
fn in_place_merge_matches_the_reference() {
    let mut root = Rng::new(0x5ac4_3e1f);
    for ep in 0..200u64 {
        let mut rng = root.fork(ep);
        // Every other episode starts just below the wrap point.
        let base = if ep % 2 == 0 {
            TcpSeq(u32::MAX - rng.gen_range(20_000) as u32)
        } else {
            TcpSeq(rng.next_u64() as u32)
        };
        let mut snd_una = base;
        let mut snd_max = base + rng.gen_range_inclusive(1, 5_000) as u32;
        let mut sb = SackScoreboard::new();
        let mut model = RefScoreboard::default();
        for step in 0..300 {
            let blocks: Vec<SackBlock> = (0..rng.gen_range_inclusive(1, 4))
                .map(|_| gen_block(&mut rng, snd_una, snd_max))
                .collect();
            let got = sb.update(&blocks, snd_una, snd_max);
            let want = model.update(&blocks, snd_una, snd_max);
            let at = format!("episode {ep} step {step} blocks {blocks:?}");
            assert_eq!(got, want, "tallies at {at}");
            assert_eq!(
                sb.ranges().collect::<Vec<_>>(),
                model.ranges,
                "ranges at {at}"
            );
            assert_eq!(sb.sacked_bytes(), model.sacked_bytes(), "bytes at {at}");
            sb.check_invariants(snd_una, snd_max);
            match rng.gen_range(6) {
                0 => {
                    sb.start_recovery(snd_una);
                    model.rexmit_cursor = Some(snd_una);
                }
                1 => {
                    sb.end_recovery();
                    model.rexmit_cursor = None;
                }
                _ => {}
            }
            for _ in 0..rng.gen_range(3) {
                let mss = rng.gen_range_inclusive(1, 500) as u32;
                assert_eq!(
                    sb.next_hole(snd_una, mss),
                    model.next_hole(snd_una, mss),
                    "hole at {at}"
                );
            }
            if rng.gen_bool(0.3) {
                snd_una += rng.gen_range(u64::from(snd_max.distance_from(snd_una)) + 1) as u32;
                sb.advance(snd_una);
                model.advance(snd_una);
                assert_eq!(
                    sb.ranges().collect::<Vec<_>>(),
                    model.ranges,
                    "advance at {at}"
                );
            }
            if rng.gen_bool(0.5) {
                snd_max += rng.gen_range(1_000) as u32;
            }
        }
    }
}

#[test]
fn update_allocates_nothing_once_warm() {
    // Grow the list to 64 ranges once, then clear it by a cumulative
    // ACK. A 3 000-byte flight on a 50-byte grid never holds more than
    // 30 disjoint ranges again, so no later merge needs to grow it.
    let una = TcpSeq(u32::MAX - 1_000);
    let mut sb = SackScoreboard::new();
    let wide = una + 64 * 100;
    for k in 0..64u32 {
        let start = una + 100 * k + 10;
        sb.update(
            &[SackBlock {
                start,
                end: start + 50,
            }],
            una,
            wide,
        );
    }
    assert_eq!(sb.ranges().count(), 64);
    sb.advance(wide);
    assert!(sb.is_empty());

    let mut rng = Rng::new(0xa110c);
    let (mut snd_una, mut snd_max) = (wide, wide + 3_000);
    let mut blocks = Vec::with_capacity(4);
    let before = allocs();
    for _ in 0..10_000 {
        blocks.clear();
        for _ in 0..rng.gen_range_inclusive(1, 4) {
            blocks.push(gen_block(&mut rng, snd_una, snd_max));
        }
        sb.update(&blocks, snd_una, snd_max);
        if rng.gen_bool(0.2) {
            snd_una += rng.gen_range(500) as u32;
            snd_max = snd_una + 3_000;
            sb.advance(snd_una);
        }
    }
    let during = allocs() - before;
    assert_eq!(during, 0, "{during} allocations over 10 000 updates");
}
