//! Differential test for the 6LoWPAN [`Reassembler`]: randomized
//! multi-source fragment schedules, driven by a seeded [`Rng`], must
//! give results identical to a reference reassembler that keeps the
//! scan-based bookkeeping the reassembler used before its constant-time
//! version ([`ScanReassembler`]): a per-unit receive map, a byte total
//! summed over every partial datagram, a per-source count and oldest
//! search over the whole table, and a timeout scan over every entry.
//!
//! Schedules mix datagram sizes up to 2047 bytes, out-of-order and
//! duplicate fragments, overlapping forged FRAGNs, malformed headers,
//! timeouts, clears, and slot, per-source and byte pressure. After every
//! call the two must agree on the returned datagram, on every counter,
//! on `pending()` and on `pending_bytes()`. `REASM_DIFF_CASES` sets the
//! number of random schedules.

use lln_netip::NodeId;
use lln_sim::{Duration, Instant, Rng};
use lln_sixlowpan::{fragment, Reassembler, ReassemblyLimits};

/// Bytes the reassembler charges per slot on top of the datagram.
const SLOT_OVERHEAD_BYTES: usize = 64;

struct ScanPartial {
    src: NodeId,
    tag: u16,
    size: usize,
    data: Vec<u8>,
    have: Vec<bool>,
    started: Instant,
}

/// The reference: the same admission, eviction and expiry rules as
/// [`Reassembler`], with every figure recomputed by a scan.
struct ScanReassembler {
    partials: Vec<ScanPartial>,
    limits: ReassemblyLimits,
    timeouts: u64,
    denied_slots: u64,
    evicted_source: u64,
    denied_bytes: u64,
}

impl ScanReassembler {
    fn new(limits: ReassemblyLimits) -> Self {
        ScanReassembler {
            partials: Vec::new(),
            limits,
            timeouts: 0,
            denied_slots: 0,
            evicted_source: 0,
            denied_bytes: 0,
        }
    }

    fn offer(&mut self, src: NodeId, bytes: &[u8], now: Instant) -> Option<Vec<u8>> {
        self.expire(now);
        if bytes.len() < 4 || bytes[0] & 0b1100_0000 != 0b1100_0000 {
            return Some(bytes.to_vec());
        }
        let is_first = bytes[0] >> 3 == 0b11000;
        let is_subseq = bytes[0] >> 3 == 0b11100;
        if !is_first && !is_subseq {
            return Some(bytes.to_vec());
        }
        let size = (usize::from(bytes[0] & 0x07) << 8) | usize::from(bytes[1]);
        let tag = u16::from_be_bytes([bytes[2], bytes[3]]);
        let (offset, data) = if is_first {
            (0, &bytes[4..])
        } else {
            if bytes.len() < 5 {
                return None;
            }
            (usize::from(bytes[4]) * 8, &bytes[5..])
        };
        if offset + data.len() > size || size == 0 {
            return None;
        }
        let idx = match self
            .partials
            .iter()
            .position(|p| p.src == src && p.tag == tag && p.size == size)
        {
            Some(i) => i,
            None => {
                let from_src = self.partials.iter().filter(|p| p.src == src).count();
                if from_src >= self.limits.per_source_slots {
                    let oldest = self
                        .partials
                        .iter()
                        .enumerate()
                        .filter(|(_, p)| p.src == src)
                        .min_by_key(|(_, p)| p.started)
                        .map(|(i, _)| i)
                        .unwrap();
                    self.partials.remove(oldest);
                    self.evicted_source += 1;
                } else if self.partials.len() >= self.limits.max_slots {
                    self.denied_slots += 1;
                    return None;
                }
                if self.pending_bytes() + size + SLOT_OVERHEAD_BYTES > self.limits.max_bytes {
                    self.denied_bytes += 1;
                    return None;
                }
                self.partials.push(ScanPartial {
                    src,
                    tag,
                    size,
                    data: vec![0; size],
                    have: vec![false; size.div_ceil(8)],
                    started: now,
                });
                self.partials.len() - 1
            }
        };
        let p = &mut self.partials[idx];
        p.data[offset..offset + data.len()].copy_from_slice(data);
        for u in offset / 8..(offset + data.len()).div_ceil(8) {
            p.have[u] = true;
        }
        if !p.have.iter().all(|&h| h) {
            return None;
        }
        Some(self.partials.remove(idx).data)
    }

    fn expire(&mut self, now: Instant) {
        let timeout = self.limits.timeout;
        let mut k = 0;
        while k < self.partials.len() {
            if now.saturating_duration_since(self.partials[k].started) < timeout {
                k += 1;
            } else {
                self.partials.remove(k);
                self.timeouts += 1;
            }
        }
    }

    fn pending_bytes(&self) -> usize {
        self.partials
            .iter()
            .map(|p| p.size + SLOT_OVERHEAD_BYTES)
            .sum()
    }
}

/// A datagram in flight: who sends it, its size and tag, and the
/// encoded fragments not yet offered.
struct Flight {
    src: NodeId,
    size: usize,
    tag: u16,
    frags: Vec<Vec<u8>>,
}

fn random_limits(rng: &mut Rng) -> ReassemblyLimits {
    let max_slots = 1 + rng.gen_range(8) as usize;
    let max_bytes = match rng.gen_range(3) {
        0 => 8 * 1024,
        1 => 600 + rng.gen_range(3000) as usize,
        _ => 2047 + SLOT_OVERHEAD_BYTES + rng.gen_range(6000) as usize,
    };
    ReassemblyLimits {
        max_slots,
        per_source_slots: 1 + rng.gen_range(3) as usize,
        max_bytes,
        timeout: Duration::from_millis(200 + rng.gen_range(3800)),
    }
}

/// A FRAGN for `size`/`tag` at unit `unit` carrying `len` random bytes:
/// it may overlap fragments already held, or overrun the datagram.
fn forged_fragn(rng: &mut Rng, size: usize, tag: u16, unit: u8, len: usize) -> Vec<u8> {
    let mut f = vec![
        0b1110_0000 | ((size >> 8) as u8 & 0x07),
        size as u8,
        (tag >> 8) as u8,
        tag as u8,
        unit,
    ];
    f.extend((0..len).map(|_| rng.next_u64() as u8));
    f
}

/// One random schedule; panics at the first call where the two differ.
fn run_case(seed: u64) {
    let mut rng = Rng::new(seed);
    let limits = random_limits(&mut rng);
    let mut real = Reassembler::with_limits(limits);
    let mut reference = ScanReassembler::new(limits);
    let sources = 1 + rng.gen_range(4) as u16;
    let mut flights: Vec<Flight> = Vec::new();
    let mut now = Instant::ZERO;
    let steps = 50 + rng.gen_range(250);
    for step in 0..steps {
        // Time never goes backwards; now and then it jumps past the
        // timeout.
        now += match rng.gen_range(10) {
            0 => limits.timeout + Duration::from_millis(rng.gen_range(500)),
            1..=4 => Duration::ZERO,
            _ => Duration::from_millis(rng.gen_range(limits.timeout.as_micros() / 4000 + 1)),
        };
        let src = NodeId(1 + rng.gen_range(u64::from(sources)) as u16);
        let (src, bytes) = match rng.gen_range(20) {
            // A new datagram: its fragments go in flight, to be offered
            // by later steps.
            0..=4 => {
                let size = match rng.gen_range(4) {
                    0 => 1 + rng.gen_range(2047) as usize,
                    1 => 1900 + rng.gen_range(148) as usize,
                    _ => 1 + rng.gen_range(600) as usize,
                };
                let packet: Vec<u8> = (0..size).map(|_| rng.next_u64() as u8).collect();
                let tag = rng.gen_range(6) as u16;
                let max_payload = 14 + rng.gen_range(114) as usize;
                let frags: Vec<Vec<u8>> = fragment(&packet, tag, max_payload)
                    .map(|f| f.to_vec())
                    .collect();
                flights.push(Flight {
                    src,
                    size,
                    tag,
                    frags,
                });
                continue;
            }
            // The next fragment of some flight, taken from anywhere in
            // its list (out of order).
            5..=13 if !flights.is_empty() => {
                let k = rng.gen_range(flights.len() as u64) as usize;
                let at = rng.gen_range(flights[k].frags.len() as u64) as usize;
                let f = flights[k].frags.remove(at);
                let src = flights[k].src;
                if flights[k].frags.is_empty() {
                    flights.swap_remove(k);
                }
                (src, f)
            }
            // A duplicate of a fragment still in flight.
            14..=15 if !flights.is_empty() => {
                let k = rng.gen_range(flights.len() as u64) as usize;
                let at = rng.gen_range(flights[k].frags.len() as u64) as usize;
                (flights[k].src, flights[k].frags[at].clone())
            }
            // A FRAGN of an in-flight datagram at a random unit, with
            // random bytes: it overlaps fragments already held or still
            // to come, and now and then overruns the datagram.
            16 if !flights.is_empty() => {
                let f = &flights[rng.gen_range(flights.len() as u64) as usize];
                let (src, size, tag) = (f.src, f.size, f.tag);
                let unit = rng.gen_range(size.div_ceil(8) as u64) as usize;
                let len = rng.gen_range((size - unit * 8) as u64 + 9) as usize;
                (src, forged_fragn(&mut rng, size, tag, unit as u8, len))
            }
            // Short or junk bytes: passthrough, truncated headers, size
            // zero.
            17 => {
                let len = rng.gen_range(8) as usize;
                let mut junk: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
                if len > 1 && rng.gen_bool(0.5) {
                    junk[0] = 0b1110_0000;
                    junk[1] = 0;
                }
                (src, junk)
            }
            // A reclaim sweep, or (rarely) a reboot.
            18 => {
                if rng.gen_range(8) == 0 {
                    real.clear();
                    reference.partials.clear();
                } else {
                    real.reclaim(now);
                    reference.expire(now);
                }
                check(&real, &reference, seed, step);
                continue;
            }
            _ => continue,
        };
        let got = real.offer(src, &bytes, now);
        let want = reference.offer(src, &bytes, now);
        assert_eq!(got, want, "seed {seed:#x} step {step}: returned datagram");
        if let Some(d) = got {
            real.recycle(d);
        }
        check(&real, &reference, seed, step);
    }
}

fn check(real: &Reassembler, reference: &ScanReassembler, seed: u64, step: u64) {
    let counters = |r: &Reassembler| {
        (
            r.timeouts,
            r.denied_slots,
            r.evicted_source,
            r.denied_bytes,
            r.pending(),
            r.pending_bytes(),
        )
    };
    let want = (
        reference.timeouts,
        reference.denied_slots,
        reference.evicted_source,
        reference.denied_bytes,
        reference.partials.len(),
        reference.pending_bytes(),
    );
    assert_eq!(
        counters(real),
        want,
        "seed {seed:#x} step {step}: (timeouts, denied_slots, evicted_source, \
         denied_bytes, pending, pending_bytes)"
    );
}

#[test]
fn constant_time_bookkeeping_matches_the_scanning_reference() {
    let cases: u64 = std::env::var("REASM_DIFF_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(300);
    let mut seeds = Rng::new(0x4EA5_D1FF);
    for _ in 0..cases {
        run_case(seeds.next_u64());
    }
}

/// The schedules reach every path the comparison is meant to cover.
#[test]
fn schedules_exercise_every_counter() {
    let mut seeds = Rng::new(0x4EA5_D1FF);
    let mut totals = [0u64; 5];
    let mut completed = 0u64;
    for _ in 0..200 {
        let seed = seeds.next_u64();
        let mut rng = Rng::new(seed);
        let limits = random_limits(&mut rng);
        let mut r = Reassembler::with_limits(limits);
        let mut now = Instant::ZERO;
        // Three sources interleave full datagrams, with their first
        // fragments only now and then.
        for k in 0..120u16 {
            now += Duration::from_millis(rng.gen_range(limits.timeout.as_micros() / 2000 + 1));
            let size = 1 + rng.gen_range(2047) as usize;
            let packet = vec![k as u8; size];
            let frags: Vec<Vec<u8>> = fragment(&packet, k, 104).map(|f| f.to_vec()).collect();
            let src = NodeId(1 + k % 3);
            let keep = if rng.gen_bool(0.3) { 1 } else { frags.len() };
            for f in &frags[..keep] {
                completed += u64::from(r.offer(src, f, now).is_some_and(|d| d.len() > 104));
            }
        }
        totals[0] += r.timeouts;
        totals[1] += r.denied_slots;
        totals[2] += r.evicted_source;
        totals[3] += r.denied_bytes;
        totals[4] += r.pending() as u64;
    }
    assert!(completed > 0, "some datagrams complete");
    for (name, n) in [
        "timeouts",
        "denied_slots",
        "evicted_source",
        "denied_bytes",
        "pending",
    ]
    .iter()
    .zip(totals)
    {
        assert!(n > 0, "{name} never moved: {totals:?}");
    }
}
