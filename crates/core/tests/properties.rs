//! Property tests with hand-rolled adversarial generators.
//!
//! No external fuzzing crate is available in the build environment, so
//! these use the deterministic [`lln_sim::Rng`] to drive many random
//! episodes per test. Every episode seed derives from a fixed root, so
//! failures reproduce exactly; crank `EPISODES` locally to fuzz harder.
//!
//! Two structures carry the hardening guarantees of the adversary work:
//!
//! - [`SackScoreboard`]: whatever forged/garbled SACK blocks arrive,
//!   the retained ranges stay sorted, pairwise disjoint, non-empty and
//!   inside `snd_una..=snd_max` (by unwrapped distance, so wrapped
//!   forgeries can't hide).
//! - [`RecvBuffer`]: first write wins — once a byte position has been
//!   accepted, no later overlapping write (retransmission or forgery)
//!   can change what the application will read.
//!
//! A third pins an equivalence the node's governor sync relies on:
//! [`MemGovernor`] ends in the same state whether every class gauge is
//! rewritten or only the gauges that moved.

use lln_sim::Rng;
use tcplp::{MemClass, MemGovernor, NodeBudget, RecvBuffer, SackBlock, SackScoreboard, TcpSeq};

const EPISODES: u64 = 40;

/// Draws a SACK block from an adversarial distribution: mostly honest
/// in-flight ranges, salted with inverted, empty, below-`snd_una`,
/// beyond-`snd_max`, and wrapped-by-~2^31 forgeries.
fn gen_block(rng: &mut Rng, snd_una: TcpSeq, snd_max: TcpSeq) -> SackBlock {
    let span = snd_max.distance_from(snd_una).max(1);
    let honest_start = snd_una + rng.gen_range(u64::from(span)) as u32;
    let honest_end = honest_start + rng.gen_range_inclusive(1, 2 * u64::from(span)) as u32;
    match rng.gen_range(8) {
        // Honest block, possibly poking past snd_max.
        0..=3 => SackBlock {
            start: honest_start,
            end: honest_end,
        },
        // Inverted (start after end).
        4 => SackBlock {
            start: honest_end,
            end: honest_start,
        },
        // Empty.
        5 => SackBlock {
            start: honest_start,
            end: honest_start,
        },
        // D-SACK-ish: below the cumulative ACK, sometimes absurdly far.
        6 => {
            let back = if rng.gen_bool(0.5) {
                rng.gen_range_inclusive(1, 60_000) as u32
            } else {
                rng.gen_range_inclusive(100_000, u64::from(u32::MAX / 2)) as u32
            };
            SackBlock {
                start: snd_una + back.wrapping_neg(),
                end: snd_una + rng.gen_range_inclusive(0, u64::from(span)) as u32,
            }
        }
        // Wrapped forgery: lands "in range" only modulo 2^32.
        _ => SackBlock {
            start: honest_start + 0x8000_0000,
            end: honest_end + 0x8000_0000,
        },
    }
}

#[test]
fn sack_scoreboard_invariants_survive_adversarial_blocks() {
    let mut root = Rng::new(0x5acb_0a2d);
    for ep in 0..EPISODES {
        let mut rng = root.fork(ep);
        // Start some episodes right below the wrap point so the
        // distance arithmetic is exercised across it.
        let base = if ep % 3 == 0 {
            TcpSeq(u32::MAX - rng.gen_range(200_000) as u32)
        } else {
            TcpSeq(rng.next_u64() as u32)
        };
        let mut snd_una = base;
        let mut snd_max = base + rng.gen_range_inclusive(1, 40_000) as u32;
        let mut sb = SackScoreboard::new();
        for _ in 0..200 {
            let blocks: Vec<SackBlock> = (0..rng.gen_range_inclusive(1, 4))
                .map(|_| gen_block(&mut rng, snd_una, snd_max))
                .collect();
            let res = sb.update(&blocks, snd_una, snd_max);
            assert!(
                u64::from(res.accepted + res.rejected + res.dsack) >= blocks.len() as u64,
                "every block must be classified"
            );
            sb.check_invariants(snd_una, snd_max);
            // The connection moves: cumulative ACKs advance snd_una,
            // new transmissions advance snd_max.
            if rng.gen_bool(0.4) {
                let flight = snd_max.distance_from(snd_una);
                snd_una += rng.gen_range(u64::from(flight) + 1) as u32;
                sb.advance(snd_una);
                sb.check_invariants(snd_una, snd_max);
            }
            if rng.gen_bool(0.5) {
                snd_max += rng.gen_range(3_000) as u32;
            }
        }
    }
}

#[test]
fn sack_rexmit_cursor_never_escapes_the_window() {
    // next_hole must only ever propose retransmissions of in-flight
    // data, whatever lies the scoreboard was fed.
    let mut root = Rng::new(0xc01d_beef);
    for ep in 0..EPISODES {
        let mut rng = root.fork(ep);
        let base = TcpSeq(rng.next_u64() as u32);
        let snd_una = base;
        let snd_max = base + 20_000;
        let mut sb = SackScoreboard::new();
        for _ in 0..50 {
            let blocks: Vec<SackBlock> = (0..3)
                .map(|_| gen_block(&mut rng, snd_una, snd_max))
                .collect();
            sb.update(&blocks, snd_una, snd_max);
        }
        sb.start_recovery(snd_una);
        while let Some((seq, len)) = sb.next_hole(snd_una, 462) {
            assert!(len > 0 && len <= 462, "hole len {len} out of bounds");
            let d = seq.distance_from(snd_una);
            assert!(
                u64::from(d) + u64::from(len) <= u64::from(snd_max.distance_from(snd_una)),
                "hole ({seq:?},{len}) escapes snd_una..snd_max"
            );
        }
        sb.end_recovery();
    }
}

/// The runs of written positions at or past `rcv_nxt`, as `(start,
/// end)` offsets from it: what the buffer holds out of order.
fn held_runs(first_write: &[Option<u8>], rcv_nxt: usize) -> Vec<(u32, u32)> {
    let mut runs: Vec<(u32, u32)> = Vec::new();
    for (p, v) in first_write.iter().enumerate().skip(rcv_nxt) {
        if v.is_some() {
            let k = (p - rcv_nxt) as u32;
            match runs.last_mut() {
                Some(r) if r.1 == k => r.1 += 1,
                _ => runs.push((k, k + 1)),
            }
        }
    }
    runs
}

/// Ground-truth stream byte for absolute position `p`.
fn truth(p: usize) -> u8 {
    (p % 251) as u8 // prime modulus: no alignment with segment sizes
}

#[test]
fn recvbuf_delivered_bytes_never_change_after_first_write() {
    const CAP: usize = 256;
    let mut root = Rng::new(0xf125_7317);
    for ep in 0..EPISODES {
        let mut rng = root.fork(ep);
        let mut rb = RecvBuffer::new(CAP);
        // Shadow model: the value each stream position held when it was
        // first accepted (in-window write to an unoccupied position).
        let mut first_write: Vec<Option<u8>> = Vec::new();
        let mut rcv_nxt = 0usize; // absolute stream position of offset 0
        let mut read_pos = 0usize; // absolute position of next app read
        for step in 0..400 {
            let window = rb.window();
            // Offset may poke past the window; such bytes must vanish.
            // Biased toward the head so in-order delivery actually
            // happens (a uniform draw almost never hits offset 0).
            let offset = if rng.gen_bool(0.5) {
                rng.gen_range(8) as usize
            } else {
                rng.gen_range(CAP as u64 + 32) as usize
            };
            let len = rng.gen_range_inclusive(1, 64) as usize;
            let lying = rng.gen_bool(0.3);
            let data: Vec<u8> = (0..len)
                .map(|i| {
                    let t = truth(rcv_nxt + offset + i);
                    if lying {
                        t ^ 0xa5
                    } else {
                        t
                    }
                })
                .collect();
            // Mirror the first-write-wins contract in the model: a byte
            // for a held position that differs from it is a conflict.
            let mut want_conflicts = rb.conflicts();
            for (i, &b) in data.iter().enumerate() {
                let k = offset + i;
                if k >= window {
                    break;
                }
                let p = rcv_nxt + k;
                if first_write.len() <= p {
                    first_write.resize(p + 1, None);
                }
                match first_write[p] {
                    None => first_write[p] = Some(b),
                    Some(held) => want_conflicts += u64::from(held != b),
                }
            }
            rcv_nxt += rb.write(offset, &data);
            rb.check_invariants();
            let at = format!("episode {ep} step {step}");
            assert_eq!(rb.conflicts(), want_conflicts, "conflicts at {at}");
            assert_eq!(
                rb.out_of_order_ranges(),
                held_runs(&first_write, rcv_nxt),
                "held ranges at {at}"
            );
            // Drain some delivered bytes and compare against the model:
            // whatever is read must be the first value ever accepted for
            // that position, regardless of later conflicting writes.
            if rng.gen_bool(0.6) {
                let mut out = [0u8; 96];
                let n = rb.read(&mut out);
                for (i, &got) in out[..n].iter().enumerate() {
                    let p = read_pos + i;
                    assert_eq!(
                        Some(got),
                        first_write[p],
                        "episode {ep}: byte {p} changed after first write"
                    );
                }
                read_pos += n;
            }
        }
        assert!(
            rb.conflicts() > 0,
            "episode {ep}: generators must actually produce conflicts"
        );
        assert!(read_pos > 0, "episode {ep}: something must get delivered");
    }
}

#[test]
fn governor_skipping_unmoved_gauges_changes_nothing() {
    let mut root = Rng::new(0x6a09_e667);
    for ep in 0..EPISODES {
        let mut rng = root.fork(ep);
        let mut every = MemGovernor::new(NodeBudget::default());
        let mut moved = MemGovernor::new(NodeBudget::default());
        let mut bytes = [0usize; 6];
        for _ in 0..300 {
            // An admission grows one gauge ahead of its structure, as
            // the accept path does before the socket exists.
            if rng.gen_bool(0.1) {
                let class = MemClass::ALL[rng.gen_range(6) as usize];
                let extra = rng.gen_range(4096) as usize;
                assert_eq!(every.try_admit(class, extra), moved.try_admit(class, extra));
            }
            // Most classes hold still between syncs; a few move.
            for b in bytes.iter_mut() {
                if rng.gen_bool(0.3) {
                    *b = rng.gen_range(12 * 1024) as usize;
                }
            }
            for (class, &b) in MemClass::ALL.iter().zip(&bytes) {
                every.set_gauge(*class, b);
                if moved.gauge(*class) != b as u64 {
                    moved.set_gauge(*class, b);
                }
            }
            assert_eq!(every.digest(), moved.digest(), "episode {ep}");
        }
    }
}
