//! Adversarial in-band traffic layer.
//!
//! An [`Adversary`] interposes between a node's network interface and
//! its TCP input, mangling the segment stream the way a hostile or
//! badly broken network would: reordering, duplication, truncation,
//! splits, sequence/ACK rewrites, forged in-window RSTs and SYNs,
//! blind-ACK storms, overlapping retransmissions with conflicting
//! payload bytes, forged zero-window advertisements, malformed SACK
//! option lists, and raw junk that exercises the wire-format parser.
//!
//! Everything is driven by a forked [`lln_sim::Rng`] stream and
//! scheduled through the simulation event queue, so a run with a fixed
//! seed is bit-reproducible — the torture tier asserts exactly that.
//!
//! ## The integrity invariant
//!
//! TCP has no defense against an on-path adversary that forges
//! *plausible* payload bytes before the genuine ones arrive (that is
//! what TLS is for). The torture suite's acceptance criterion is
//! byte-exact delivery, so this adversary is engineered to attack every
//! *protocol* path while always losing the payload race: a
//! conflicting-overlap copy is emitted only when the genuine segment
//! was delivered inline first, and sequence-rewritten segments carry no
//! payload. First-write-wins in the receive buffer then guarantees the
//! conflicting bytes are refused, and `reassembly_conflicts` counts
//! every refused rewrite.

use lln_netip::checksum::Checksum;
use lln_netip::Ipv6Addr;
use lln_sim::{Duration, Fnv1a, Rng};
use tcplp::{Flags, SackBlock, Segment, SegmentView, TcpSeq};

/// Per-mangle probabilities. All rates are independent probabilities in
/// `[0, 1]`; the *fate* rates (drop, truncate, split, reorder,
/// rewrite_seq) are mutually exclusive per segment (first match wins),
/// while the *extra* rates (everything else) each add forged traffic on
/// top of normal delivery.
#[derive(Clone, Copy, Debug, Default)]
pub struct AdversaryProfile {
    /// Silently drop the segment.
    pub drop: f64,
    /// Delay the segment by a random span so it arrives out of order.
    pub reorder: f64,
    /// Maximum extra delay applied to reordered segments.
    pub reorder_delay: Duration,
    /// Emit an extra, delayed, byte-identical copy.
    pub duplicate: f64,
    /// Truncate a data segment to a random prefix.
    pub truncate: f64,
    /// Split a data segment into two smaller valid segments.
    pub split: f64,
    /// Rewrite the sequence number of a *pure ACK* (payload-carrying
    /// segments are never seq-rewritten; see the module docs).
    pub rewrite_seq: f64,
    /// Emit an extra copy with a rewritten ACK field (old, or beyond
    /// anything sent) alongside the genuine segment.
    pub rewrite_ack: f64,
    /// Emit a delayed copy whose payload bytes conflict with the
    /// genuine ones (overlap attack; always loses the race).
    pub overlap_conflict: f64,
    /// Forge an in-window RST (rarely exact-sequence).
    pub forge_rst: f64,
    /// Forge an in-window SYN.
    pub forge_syn: f64,
    /// Emit a burst of blind pure ACKs with varied ACK numbers.
    pub ack_storm: f64,
    /// Segments per ACK storm.
    pub ack_storm_len: u32,
    /// Forge a zero-window pure ACK with an inflated sequence number
    /// (wedges the victim's `snd_wl1` and freezes its send window).
    pub zero_window: f64,
    /// Emit a pure ACK carrying malformed/forged SACK blocks.
    pub malformed_sack: f64,
    /// Emit raw bytes exercising the wire-format parser (oversized SACK
    /// lists, zero-length options, NOP runs, corrupt checksums).
    pub raw_junk: f64,
}

impl AdversaryProfile {
    /// Reordering + duplication at `rate` — the "bad mesh" profile.
    pub fn reordering(rate: f64) -> Self {
        AdversaryProfile {
            reorder: rate,
            reorder_delay: Duration::from_millis(40),
            duplicate: rate,
            ..AdversaryProfile::default()
        }
    }

    /// Truncation + splits at `rate` — fragmentation-style damage.
    pub fn fragmenting(rate: f64) -> Self {
        AdversaryProfile {
            truncate: rate,
            split: rate,
            ..AdversaryProfile::default()
        }
    }

    /// Overlapping retransmissions with conflicting bytes at `rate`.
    pub fn overlapping(rate: f64) -> Self {
        AdversaryProfile {
            overlap_conflict: rate,
            duplicate: rate / 2.0,
            ..AdversaryProfile::default()
        }
    }

    /// Forged in-window RST/SYN segments at `rate`.
    pub fn forging(rate: f64) -> Self {
        AdversaryProfile {
            forge_rst: rate,
            forge_syn: rate / 2.0,
            ..AdversaryProfile::default()
        }
    }

    /// Blind-ACK storms and rewritten ACK fields at `rate`.
    pub fn storming(rate: f64) -> Self {
        AdversaryProfile {
            ack_storm: rate,
            ack_storm_len: 8,
            rewrite_ack: rate,
            rewrite_seq: rate / 2.0,
            ..AdversaryProfile::default()
        }
    }

    /// Malformed SACK lists and raw parser junk at `rate`.
    pub fn sack_lying(rate: f64) -> Self {
        AdversaryProfile {
            malformed_sack: rate,
            raw_junk: rate,
            ..AdversaryProfile::default()
        }
    }

    /// Forged zero-window ACKs at `rate`.
    pub fn zero_windowing(rate: f64) -> Self {
        AdversaryProfile {
            zero_window: rate,
            ..AdversaryProfile::default()
        }
    }

    /// Every attack at once, each at `rate` (scaled down for the fate
    /// chain so plenty of genuine traffic still flows).
    pub fn full(rate: f64) -> Self {
        AdversaryProfile {
            drop: rate / 4.0,
            reorder: rate,
            reorder_delay: Duration::from_millis(40),
            duplicate: rate,
            truncate: rate / 2.0,
            split: rate / 2.0,
            rewrite_seq: rate / 2.0,
            rewrite_ack: rate / 2.0,
            overlap_conflict: rate,
            forge_rst: rate / 8.0,
            forge_syn: rate / 8.0,
            ack_storm: rate / 2.0,
            ack_storm_len: 4,
            zero_window: rate / 4.0,
            malformed_sack: rate,
            raw_junk: rate,
        }
    }
}

/// What the adversary did, by category. `fingerprint()` folds every
/// counter into one value for same-seed determinism assertions.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AdversaryStats {
    /// Segments inspected.
    pub seen: u64,
    /// Segments passed through unmodified (inline).
    pub passed: u64,
    /// Segments silently dropped.
    pub dropped: u64,
    /// Segments delayed out of order.
    pub reordered: u64,
    /// Extra identical copies emitted.
    pub duplicated: u64,
    /// Data segments truncated to a prefix.
    pub truncated: u64,
    /// Data segments split in two.
    pub split: u64,
    /// Pure ACKs with rewritten sequence numbers.
    pub seq_rewritten: u64,
    /// Extra copies with rewritten ACK fields.
    pub ack_rewritten: u64,
    /// Conflicting-overlap copies emitted.
    pub conflicts_injected: u64,
    /// Forged RSTs emitted.
    pub rst_forged: u64,
    /// Forged SYNs emitted.
    pub syn_forged: u64,
    /// Blind-ACK storm segments emitted.
    pub storm_acks: u64,
    /// Forged zero-window ACKs emitted.
    pub zero_windows_forged: u64,
    /// Malformed-SACK ACKs emitted.
    pub sack_lies: u64,
    /// Raw junk buffers emitted.
    pub raw_junk: u64,
}

impl AdversaryStats {
    /// Stable FNV-1a digest over every counter, in declaration order.
    pub fn fingerprint(&self) -> u64 {
        let fields = [
            self.seen,
            self.passed,
            self.dropped,
            self.reordered,
            self.duplicated,
            self.truncated,
            self.split,
            self.seq_rewritten,
            self.ack_rewritten,
            self.conflicts_injected,
            self.rst_forged,
            self.syn_forged,
            self.storm_acks,
            self.zero_windows_forged,
            self.sack_lies,
            self.raw_junk,
        ];
        Fnv1a::digest_words(&fields)
    }

    /// Total forged/mangled emissions (everything beyond pass-through).
    pub fn total_mangles(&self) -> u64 {
        self.dropped
            + self.reordered
            + self.duplicated
            + self.truncated
            + self.split
            + self.seq_rewritten
            + self.ack_rewritten
            + self.conflicts_injected
            + self.rst_forged
            + self.syn_forged
            + self.storm_acks
            + self.zero_windows_forged
            + self.sack_lies
            + self.raw_junk
    }
}

/// The interposer itself. Owned by a [`crate::stack::Node`]; consulted
/// by the world for every inbound TCP segment addressed to that node.
#[derive(Clone, Debug)]
pub struct Adversary {
    /// Active profile.
    pub profile: AdversaryProfile,
    /// What has been done so far.
    pub stats: AdversaryStats,
    rng: Rng,
}

impl Adversary {
    /// Creates an adversary with its own deterministic RNG stream.
    pub fn new(profile: AdversaryProfile, rng: Rng) -> Self {
        Adversary {
            profile,
            stats: AdversaryStats::default(),
            rng,
        }
    }

    /// Mangles one inbound segment, from `src` to `dst`, into deliveries
    /// appended to `out`: each is a delay and the TCP bytes to hand the
    /// node's TCP input then, encoded and checksummed for `src` and
    /// `dst` (raw forgeries may be deliberately malformed). A zero
    /// delay means inline, in the same event; a later delivery
    /// bypasses the adversary on arrival (no re-mangling). It mangles
    /// one owned copy of `view`, so even an untouched segment is
    /// re-encoded here and decoded again by the node.
    pub fn on_segment(
        &mut self,
        view: &SegmentView<'_>,
        src: Ipv6Addr,
        dst: Ipv6Addr,
        out: &mut Vec<(Duration, Vec<u8>)>,
    ) {
        self.stats.seen += 1;
        let seg = &view.to_owned();
        let emit = |out: &mut Vec<_>, delay, m: &Segment| out.push((delay, m.encode(src, dst)));
        let p = self.profile;
        let has_payload = !seg.payload.is_empty();

        // --- Primary fate: exactly one branch decides what happens to
        // the genuine bytes. `genuine_inline` records whether the full
        // genuine payload was delivered with no delay — the
        // precondition for the conflicting-overlap attack below.
        let genuine_inline;
        if self.rng.gen_bool(p.drop) {
            self.stats.dropped += 1;
            genuine_inline = false;
        } else if has_payload && seg.payload.len() >= 2 && self.rng.gen_bool(p.truncate) {
            let keep = 1 + self.rng.gen_range(seg.payload.len() as u64 - 1) as usize;
            let mut m = seg.clone();
            m.payload.truncate(keep);
            m.flags = m.flags.difference(Flags::FIN); // the FIN seq no longer lines up
            emit(out, Duration::ZERO, &m);
            self.stats.truncated += 1;
            genuine_inline = false;
        } else if has_payload && seg.payload.len() >= 2 && self.rng.gen_bool(p.split) {
            let cut = 1 + self.rng.gen_range(seg.payload.len() as u64 - 1) as usize;
            let mut a = seg.clone();
            a.payload.truncate(cut);
            a.flags = a.flags.difference(Flags::FIN);
            let mut b = seg.clone();
            b.seq = seg.seq + cut as u32;
            b.payload = seg.payload[cut..].to_vec();
            emit(out, Duration::ZERO, &a);
            emit(out, Duration::ZERO, &b);
            self.stats.split += 1;
            genuine_inline = true;
        } else if !has_payload
            && !seg.flags.intersects(Flags::SYN | Flags::FIN | Flags::RST)
            && self.rng.gen_bool(p.rewrite_seq)
        {
            // Pure ACK with a pushed-forward sequence number: probes
            // acceptability checks and snd_wl1 wedging. Never applied
            // to payload (it would poison the stream; module docs).
            let mut m = seg.clone();
            m.seq = seg.seq + 1 + self.rng.gen_range(1200) as u32;
            emit(out, Duration::ZERO, &m);
            self.stats.seq_rewritten += 1;
            genuine_inline = false;
        } else if self.rng.gen_bool(p.reorder) {
            let max_ms = p.reorder_delay.as_millis().max(1);
            let delay = Duration::from_millis(1 + self.rng.gen_range(max_ms));
            emit(out, delay, seg);
            self.stats.reordered += 1;
            genuine_inline = false;
        } else {
            emit(out, Duration::ZERO, seg);
            self.stats.passed += 1;
            genuine_inline = true;
        }

        // --- Additive attacks: forged traffic on top of the fate.
        if self.rng.gen_bool(p.duplicate) {
            let delay = Duration::from_millis(1 + self.rng.gen_range(20));
            emit(out, delay, seg);
            self.stats.duplicated += 1;
        }
        if genuine_inline && has_payload && self.rng.gen_bool(p.overlap_conflict) {
            // Same range, conflicting bytes, strictly after the genuine
            // copy: every byte must be refused by first-write-wins.
            let mut m = seg.clone();
            for b in &mut m.payload {
                *b ^= 0xA5;
            }
            let delay = Duration::from_millis(1 + self.rng.gen_range(10));
            emit(out, delay, &m);
            self.stats.conflicts_injected += 1;
        }
        if self.rng.gen_bool(p.rewrite_ack) {
            // Either a stale ACK (behind the genuine one) or an ACK for
            // data never sent (beyond it); both must be survivable.
            let mut m = seg.clone();
            m.payload.clear();
            m.flags = Flags::ACK;
            m.ack = if self.rng.gen_bool(0.5) {
                seg.ack + (1 + self.rng.gen_range(50_000) as u32).wrapping_neg()
            } else {
                seg.ack + 60_000 + self.rng.gen_range(50_000) as u32
            };
            let delay = Duration::from_millis(1 + self.rng.gen_range(8));
            emit(out, delay, &m);
            self.stats.ack_rewritten += 1;
        }
        if self.rng.gen_bool(p.forge_rst) {
            let mut m = Segment::new(seg.src_port, seg.dst_port, seg.seq, seg.ack, Flags::RST);
            // In-window but (almost always) not exact: the victim must
            // answer with a rate-limited challenge ACK, not die. The
            // rare exact hit is a legitimate clean Reset death.
            if !self.rng.gen_bool(0.02) {
                m.seq = seg.seq + seg.seq_len() + 1 + self.rng.gen_range(600) as u32;
            }
            m.window = seg.window;
            emit(out, Duration::ZERO, &m);
            self.stats.rst_forged += 1;
        }
        if self.rng.gen_bool(p.forge_syn) {
            let fseq = seg.seq + seg.seq_len() + 1 + self.rng.gen_range(600) as u32;
            let mut m = Segment::new(seg.src_port, seg.dst_port, fseq, TcpSeq(0), Flags::SYN);
            m.window = seg.window;
            m.mss = Some(536);
            emit(out, Duration::ZERO, &m);
            self.stats.syn_forged += 1;
        }
        if self.rng.gen_bool(p.ack_storm) {
            let n = p.ack_storm_len.max(1);
            for k in 0..n {
                let mut m = Segment::new(seg.src_port, seg.dst_port, seg.seq, seg.ack, Flags::ACK);
                m.window = seg.window;
                // Mix of exact duplicates (dup-ACK pressure) and wild
                // ACK values (blind-ACK storm).
                if self.rng.gen_bool(0.5) {
                    m.ack = seg.ack + 90_000 + self.rng.gen_range(1 << 20) as u32;
                }
                let delay = Duration::from_micros(u64::from(k) * 200);
                emit(out, delay, &m);
                self.stats.storm_acks += 1;
            }
        }
        if self.rng.gen_bool(p.zero_window) {
            let mut m = Segment::new(seg.src_port, seg.dst_port, seg.seq, seg.ack, Flags::ACK);
            // Inflated seq wedges snd_wl1 so genuine updates lose the
            // window-update race; window 0 freezes the victim.
            m.seq = seg.seq + seg.seq_len() + 1 + self.rng.gen_range(1200) as u32;
            m.window = 0;
            emit(out, Duration::ZERO, &m);
            self.stats.zero_windows_forged += 1;
        }
        if self.rng.gen_bool(p.malformed_sack) {
            let mut m = Segment::new(seg.src_port, seg.dst_port, seg.seq, seg.ack, Flags::ACK);
            m.window = seg.window;
            m.sack_blocks = self.forged_sack_blocks(seg);
            let delay = Duration::from_millis(self.rng.gen_range(4));
            emit(out, delay, &m);
            self.stats.sack_lies += 1;
        }
        if self.rng.gen_bool(p.raw_junk) {
            let bytes = self.raw_junk_bytes(seg, src, dst);
            out.push((Duration::ZERO, bytes));
            self.stats.raw_junk += 1;
        }
    }

    /// SACK blocks a lying receiver might report: inverted, far outside
    /// the send window, or wrapped across the sequence space.
    fn forged_sack_blocks(&mut self, seg: &Segment) -> Vec<SackBlock> {
        let base = seg.ack;
        let mut blocks = Vec::new();
        for _ in 0..(1 + self.rng.gen_range(3)) {
            let block = match self.rng.gen_range(3) {
                0 => SackBlock {
                    // Inverted: start at/after end.
                    start: base + 500,
                    end: base + 100,
                },
                1 => SackBlock {
                    // Far beyond anything in flight.
                    start: base + 1_000_000,
                    end: base + 1_000_400,
                },
                _ => SackBlock {
                    // Wrapped: "everything you ever sent and more".
                    start: base + 2_000_000u32.wrapping_neg(),
                    end: base + (1 << 31),
                },
            };
            blocks.push(block);
        }
        blocks
    }

    /// Raw wire bytes that stress `Segment::decode`: oversized SACK
    /// lists, zero-length options, maximal NOP runs, corrupt checksums.
    fn raw_junk_bytes(&mut self, seg: &Segment, src: Ipv6Addr, dst: Ipv6Addr) -> Vec<u8> {
        let variant = self.rng.gen_range(4);
        let opts: Vec<u8> = match variant {
            0 => {
                // Four SACK blocks — one more than any honest stack
                // emits; the parser must cap at three.
                let mut o = vec![5u8, 34];
                for i in 0..4u32 {
                    o.extend_from_slice(&(seg.ack.0.wrapping_add(i * 700)).to_be_bytes());
                    o.extend_from_slice(&(seg.ack.0.wrapping_add(i * 700 + 100)).to_be_bytes());
                }
                o.extend_from_slice(&[1, 1]);
                o
            }
            1 => vec![9, 0, 1, 1], // zero-length option: must be rejected
            2 => vec![1u8; 40],    // maximal NOP run: maximal parser work
            _ => Vec::new(),       // plain header; checksum corrupted below
        };
        let data_off = 20 + opts.len();
        let mut out = Vec::with_capacity(data_off);
        out.extend_from_slice(&seg.src_port.to_be_bytes());
        out.extend_from_slice(&seg.dst_port.to_be_bytes());
        out.extend_from_slice(&(seg.seq + seg.seq_len()).0.to_be_bytes());
        out.extend_from_slice(&seg.ack.0.to_be_bytes());
        out.push(((data_off / 4) as u8) << 4);
        out.push(0b0001_0000); // ACK
        out.extend_from_slice(&seg.window.to_be_bytes());
        out.extend_from_slice(&[0, 0]); // checksum placeholder
        out.extend_from_slice(&[0, 0]); // urgent pointer
        out.extend_from_slice(&opts);
        let mut ck = Checksum::new();
        ck.add_pseudo_header(src, dst, 6, out.len() as u32);
        ck.add_bytes(&out);
        let c = ck.finish();
        out[16..18].copy_from_slice(&c.to_be_bytes());
        if variant == 3 {
            out[16] ^= 0xFF; // corrupt the checksum
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addrs() -> (Ipv6Addr, Ipv6Addr) {
        (
            lln_netip::NodeId(1).mesh_addr(),
            lln_netip::NodeId(2).mesh_addr(),
        )
    }

    fn data_seg() -> Segment {
        let mut s = Segment::new(
            49152,
            80,
            TcpSeq(1000),
            TcpSeq(2000),
            Flags::ACK | Flags::PSH,
        );
        s.window = 1848;
        s.payload = b"the genuine payload".to_vec();
        s
    }

    /// The deliveries `adv` makes for `seg`, each decoded (`None` for
    /// bytes the parser refuses).
    fn mangle(adv: &mut Adversary, seg: &Segment) -> Vec<(Duration, Option<Segment>)> {
        let (src, dst) = addrs();
        let mut out = Vec::new();
        adv.on_segment(&seg.view(), src, dst, &mut out);
        out.into_iter()
            .map(|(d, bytes)| (d, Segment::decode(src, dst, &bytes)))
            .collect()
    }

    #[test]
    fn zero_profile_passes_everything_inline() {
        let mut adv = Adversary::new(AdversaryProfile::default(), Rng::new(7));
        let seg = data_seg();
        for _ in 0..50 {
            let ds = mangle(&mut adv, &seg);
            assert_eq!(ds, [(Duration::ZERO, Some(seg.clone()))]);
        }
        assert_eq!(adv.stats.passed, 50);
        assert_eq!(adv.stats.total_mangles(), 0);
    }

    #[test]
    fn same_seed_same_decisions() {
        let seg = data_seg();
        let run = |seed: u64| {
            let mut adv = Adversary::new(AdversaryProfile::full(0.3), Rng::new(seed));
            for _ in 0..200 {
                mangle(&mut adv, &seg);
            }
            adv.stats
        };
        let a = run(42);
        let b = run(42);
        assert_eq!(a, b);
        assert_eq!(a.fingerprint(), b.fingerprint());
        let c = run(43);
        assert_ne!(
            a.fingerprint(),
            c.fingerprint(),
            "different seed, different behaviour"
        );
    }

    #[test]
    fn conflicting_copy_only_after_inline_genuine() {
        let seg = data_seg();
        let mut adv = Adversary::new(AdversaryProfile::full(0.4), Rng::new(0xC0FFEE));
        let mut saw_conflict = false;
        for _ in 0..400 {
            let before = adv.stats.conflicts_injected;
            let ds = mangle(&mut adv, &seg);
            if adv.stats.conflicts_injected > before {
                saw_conflict = true;
                // The genuine payload must appear, inline, before the
                // conflicting copy in the delivery list.
                let genuine_at = ds.iter().position(|(dl, s)| {
                    matches!(s, Some(s)
                        if *dl == Duration::ZERO && s.payload == seg.payload && s.seq == seg.seq)
                });
                let split_first_at = ds.iter().position(|(dl, s)| {
                    matches!(s, Some(s)
                        if *dl == Duration::ZERO && s.seq == seg.seq
                            && seg.payload.starts_with(&s.payload))
                });
                assert!(
                    genuine_at.is_some() || split_first_at.is_some(),
                    "conflict injected without inline genuine bytes"
                );
                // And the conflicting copy is strictly delayed.
                let conflict_delayed = ds.iter().any(|(dl, s)| {
                    matches!(s, Some(s)
                        if *dl > Duration::ZERO && s.seq == seg.seq
                            && !s.payload.is_empty() && s.payload != seg.payload)
                });
                assert!(conflict_delayed);
            }
        }
        assert!(saw_conflict, "profile should have injected conflicts");
    }

    #[test]
    fn seq_rewrites_never_carry_payload() {
        let mut pure_ack = data_seg();
        pure_ack.payload.clear();
        let mut adv = Adversary::new(
            AdversaryProfile {
                rewrite_seq: 1.0,
                ..AdversaryProfile::default()
            },
            Rng::new(5),
        );
        // Data segments pass untouched (rate applies to pure ACKs only).
        let ds = mangle(&mut adv, &data_seg());
        assert!(matches!(&ds[0], (_, Some(s)) if s.seq == TcpSeq(1000)));
        // Pure ACKs get shifted.
        let ds = mangle(&mut adv, &pure_ack);
        let (_, Some(s)) = &ds[0] else {
            panic!("a rewritten ACK decodes");
        };
        assert!(s.payload.is_empty());
        assert_ne!(s.seq, pure_ack.seq);
        assert_eq!(adv.stats.seq_rewritten, 1);
    }

    #[test]
    fn raw_junk_variants_are_checksummed_or_deliberately_not() {
        let seg = data_seg();
        let mut adv = Adversary::new(
            AdversaryProfile {
                drop: 1.0, // suppress the genuine copy; junk only
                raw_junk: 1.0,
                ..AdversaryProfile::default()
            },
            Rng::new(99),
        );
        let mut decoded = 0usize;
        let mut rejected = 0usize;
        for _ in 0..80 {
            for (_, s) in mangle(&mut adv, &seg) {
                match s {
                    Some(s) => {
                        decoded += 1;
                        assert!(s.sack_blocks.len() <= 3, "parser must cap SACK lists");
                    }
                    None => rejected += 1,
                }
            }
        }
        assert!(decoded > 0, "some junk parses (capped SACK, NOP runs)");
        assert!(
            rejected > 0,
            "some junk must be rejected (bad len/checksum)"
        );
    }
}
