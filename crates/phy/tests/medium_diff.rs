//! Differential test for the radio [`Medium`]: randomized transmission
//! schedules, driven by a seeded [`Rng`], must give outcomes identical
//! to a reference medium that keeps every finished record for 100 ms
//! ([`HorizonMedium`]), the rule the medium used before it dropped
//! finished records as soon as no live transmission overlaps them.
//!
//! After every call the two must agree on the `end_tx` outcome slice,
//! on `cca_busy` at every radio, on every counter and on the next PRR
//! draw. `MEDIUM_DIFF_CASES` sets the number of random schedules.

use lln_phy::{LinkMatrix, Medium, PhyCounter, RadioIdx, TxHandle};
use lln_sim::stats::Counters;
use lln_sim::{Duration, Instant, Rng};

#[derive(Clone, Copy)]
struct Record {
    id: u64,
    src: RadioIdx,
    start: Instant,
    end: Instant,
    done: bool,
}

/// The reference medium: the same CCA, collision, half-duplex and PRR
/// rules, but finished records stay until 100 ms after they ended.
struct HorizonMedium {
    links: LinkMatrix,
    records: Vec<Record>,
    next_id: u64,
    rng: Rng,
    counters: Counters<PhyCounter>,
}

impl HorizonMedium {
    fn new(links: LinkMatrix, rng: Rng) -> Self {
        HorizonMedium {
            links,
            records: Vec::new(),
            next_id: 0,
            rng,
            counters: Counters::new(),
        }
    }

    fn cca_busy(&self, node: RadioIdx, now: Instant) -> bool {
        self.records.iter().any(|r| {
            !r.done
                && r.start <= now
                && now < r.end
                && (r.src == node || self.links.audible(r.src, node))
        })
    }

    fn begin_tx(&mut self, src: RadioIdx, start: Instant, end: Instant) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        self.records.push(Record {
            id,
            src,
            start,
            end,
            done: false,
        });
        self.counters.inc(PhyCounter::FramesTx);
        id
    }

    fn end_tx(&mut self, id: u64, listeners: &[RadioIdx]) -> Vec<(RadioIdx, bool)> {
        let idx = self.records.iter().position(|r| r.id == id).unwrap();
        let rec = self.records[idx];
        let mut out = Vec::new();
        for &rx in listeners {
            if rx == rec.src {
                continue;
            }
            let prr = self.links.prr(rec.src, rx);
            if prr <= 0.0 {
                if self.links.audible(rec.src, rx) {
                    out.push((rx, false));
                }
                continue;
            }
            let collided = self.records.iter().any(|o| {
                o.id != rec.id
                    && o.start < rec.end
                    && rec.start < o.end
                    && (o.src == rx || self.links.audible(o.src, rx))
            });
            if collided {
                self.counters.inc(PhyCounter::Collisions);
                out.push((rx, false));
                continue;
            }
            let ok = self.rng.gen_bool(prr);
            self.counters.inc(if ok {
                PhyCounter::Deliveries
            } else {
                PhyCounter::PrrDrops
            });
            out.push((rx, ok));
        }
        self.records[idx].done = true;
        let horizon = rec.end - Duration::from_millis(100);
        self.records.retain(|r| !r.done || r.end >= horizon);
        out
    }
}

/// One transmission on the air in both mediums.
struct Live {
    handle: TxHandle,
    reference: u64,
    src: RadioIdx,
    end: Instant,
    /// Interferer-style burst: long, and nobody decodes it.
    noise: bool,
}

/// The link matrices of the paper's worlds, plus one where every
/// audible link is interference only.
fn matrix(kind: u64, n: usize, prr: f64, rng: &mut Rng) -> LinkMatrix {
    match kind {
        0 => LinkMatrix::chain(n, prr),
        1 => LinkMatrix::chain_with_two_hop_carrier(n, prr),
        2 => LinkMatrix::full_mesh(n, prr),
        _ => {
            let mut m = LinkMatrix::new(n);
            for a in 0..n {
                for b in 0..n {
                    if a != b && rng.gen_bool(0.5) {
                        m.set_interference(RadioIdx(a), RadioIdx(b));
                    }
                }
            }
            m
        }
    }
}

fn counters(c: &Counters<PhyCounter>) -> Vec<(&'static str, u64)> {
    c.iter().collect()
}

/// Asserts the two mediums agree on everything observable at `now`.
fn assert_same(m: &Medium, r: &HorizonMedium, now: Instant, ctx: &str) {
    for node in 0..m.radio_count() {
        assert_eq!(
            m.cca_busy(RadioIdx(node), now),
            r.cca_busy(RadioIdx(node), now),
            "{ctx}: CCA at radio {node}"
        );
    }
    assert_eq!(
        counters(&m.counters),
        counters(&r.counters),
        "{ctx}: counters"
    );
    assert_eq!(
        m.rng().clone().next_u64(),
        r.rng.clone().next_u64(),
        "{ctx}: next PRR draw"
    );
}

/// Drives both mediums through one random schedule of `ops` calls and
/// returns the medium's counters.
fn run_case(case: u64, ops: usize) -> Counters<PhyCounter> {
    let mut rng = Rng::new(0x3ED1_0000 ^ case);
    let n = 2 + rng.gen_range(5) as usize;
    let prr = [1.0, 0.999, 0.7, 0.3][rng.gen_range(4) as usize];
    let links = matrix(rng.gen_range(4), n, prr, &mut rng);
    let seed = rng.next_u64();
    let mut m = Medium::new(links.clone(), Rng::new(seed));
    let mut r = HorizonMedium::new(links, Rng::new(seed));
    let mut live: Vec<Live> = Vec::new();
    let mut now = Instant::ZERO;
    let us = Duration::from_micros;

    for op in 0..ops {
        let ctx = format!("case {case} op {op}");
        // Next start: back to back with the previous event, or after a
        // short or a long gap.
        let gap = match rng.gen_range(3) {
            0 => Duration::ZERO,
            1 => us(rng.gen_range(1_000)),
            _ => us(rng.gen_range(30_000)),
        };
        let next_start = now + gap;
        let first_end = live.iter().map(|l| l.end).min();
        match first_end {
            Some(end) if end <= next_start => {
                // Close the transmission whose air time elapses first,
                // as the world does when its AirDone event fires.
                let k = live.iter().position(|l| l.end == end).unwrap();
                let l = live.swap_remove(k);
                now = end;
                let listeners: Vec<RadioIdx> = if l.noise {
                    Vec::new()
                } else {
                    (0..n).filter(|_| rng.gen_bool(0.7)).map(RadioIdx).collect()
                };
                let expected = r.end_tx(l.reference, &listeners);
                assert_eq!(
                    m.end_tx(l.handle, &listeners),
                    expected.as_slice(),
                    "{ctx}: outcomes of radio {}'s frame",
                    l.src.0
                );
            }
            _ => {
                now = next_start;
                let src = RadioIdx(rng.gen_range(n as u64) as usize);
                // Data frames go on the air after the rx/tx turnaround,
                // link ACKs and bursts at once.
                let (delay, air, noise) = match rng.gen_range(10) {
                    0..=4 => (us(192), us(32 * (6 + 10 + rng.gen_range(118))), false),
                    5..=8 => (Duration::ZERO, us(32 * (6 + 5)), false),
                    _ => (Duration::ZERO, us(50_000 + rng.gen_range(250_000)), true),
                };
                let start = now + delay;
                let handle = m.begin_tx(src, start, start + air);
                let reference = r.begin_tx(src, start, start + air);
                live.push(Live {
                    handle,
                    reference,
                    src,
                    end: start + air,
                    noise,
                });
            }
        }
        assert_same(&m, &r, now, &ctx);
    }
    m.counters
}

#[test]
fn medium_matches_the_100ms_horizon_reference() {
    let cases: u64 = std::env::var("MEDIUM_DIFF_CASES")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(200);
    let mut total = Counters::new();
    for case in 0..cases {
        total.merge(&run_case(case, 400));
    }
    // The schedules must reach every outcome, or agreeing proves little.
    for outcome in ["collisions", "deliveries", "prr_drops"] {
        assert!(total.get(outcome) > 0, "no {outcome} in {cases} cases");
    }
}
