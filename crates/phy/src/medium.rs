//! The shared radio medium: active-transmission tracking, clear-channel
//! assessment, and collision-aware frame delivery.
//!
//! The driving world calls [`Medium::begin_tx`] when a radio starts
//! emitting and [`Medium::end_tx`] when the frame's air time elapses;
//! `end_tx` reports, per listening radio, whether the frame survived
//! (audibility, overlap-collision, half-duplex and PRR checks). The
//! world is responsible for knowing which radios were actually in
//! receive state (awake, not in CSMA-deaf periods — though, per the
//! paper's fix in §4, our MAC keeps the radio listening between CSMA
//! attempts).

use crate::link::LinkMatrix;
use crate::RadioIdx;
use lln_sim::stats::Counters;
use lln_sim::{Instant, Rng};

lln_sim::counter_keys! {
    /// The medium's counters (Figure 6(d)).
    pub enum PhyCounter {
        /// Listener outcomes lost to an overlapping audible transmission.
        Collisions = "collisions",
        /// Listener outcomes that passed the PRR draw.
        Deliveries = "deliveries",
        /// Transmissions registered by [`Medium::begin_tx`].
        FramesTx = "frames_tx",
        /// Listener outcomes that failed the PRR draw.
        PrrDrops = "prr_drops",
    }
}

/// Handle to an in-progress transmission.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct TxHandle(u64);

#[derive(Clone, Copy, Debug)]
struct TxRecord {
    id: u64,
    src: RadioIdx,
    start: Instant,
    end: Instant,
    done: bool,
}

/// The shared radio medium.
pub struct Medium {
    links: LinkMatrix,
    /// Live transmissions (at most one per radio) and the finished ones
    /// a live one still overlaps; sized for one of each per radio.
    records: Vec<TxRecord>,
    next_id: u64,
    rng: Rng,
    /// The last [`Medium::end_tx`] result, reused across transmissions.
    outcomes: Vec<(RadioIdx, bool)>,
    /// Frame/collision counters feeding Figure 6(d), keyed by
    /// [`PhyCounter`]; read by name as "frames_tx", "collisions",
    /// "prr_drops" and "deliveries".
    pub counters: Counters<PhyCounter>,
}

impl Medium {
    /// Creates a medium over `links`, drawing PRR randomness from `rng`.
    pub fn new(links: LinkMatrix, rng: Rng) -> Self {
        let radios = links.len();
        Medium {
            links,
            records: Vec::with_capacity(2 * radios),
            next_id: 0,
            rng,
            outcomes: Vec::with_capacity(radios),
            counters: Counters::new(),
        }
    }

    /// Number of registered radios.
    pub fn radio_count(&self) -> usize {
        self.links.len()
    }

    /// Access to the connectivity matrix.
    pub fn links(&self) -> &LinkMatrix {
        &self.links
    }

    /// Mutable access (topology changes mid-experiment).
    pub fn links_mut(&mut self) -> &mut LinkMatrix {
        &mut self.links
    }

    /// Clear-channel assessment at `node`: true when busy, i.e. some
    /// transmission audible at `node` is on the air at `now`.
    pub fn cca_busy(&self, node: RadioIdx, now: Instant) -> bool {
        self.records.iter().any(|r| {
            !r.done
                && r.start <= now
                && now < r.end
                && (r.src == node || self.links.audible(r.src, node))
        })
    }

    /// Registers a transmission on the air from `now` until `end`.
    ///
    /// Calls must come in time order: a transmission starts no earlier
    /// than the end of any transmission already closed by
    /// [`Medium::end_tx`], which is what lets `end_tx` forget finished
    /// records as soon as nothing live overlaps them.
    pub fn begin_tx(&mut self, src: RadioIdx, now: Instant, end: Instant) -> TxHandle {
        let id = self.next_id;
        self.next_id += 1;
        self.records.push(TxRecord {
            id,
            src,
            start: now,
            end,
            done: false,
        });
        self.counters.inc(PhyCounter::FramesTx);
        TxHandle(id)
    }

    /// Completes a transmission and computes per-receiver outcomes.
    ///
    /// For each radio in `listeners` (radios the world says were in
    /// receive state for the whole frame), the result holds `true` if
    /// the frame was received intact:
    /// - the link must be decodable (PRR > 0),
    /// - no other transmission audible at the receiver may overlap the
    ///   frame in time (collision — the hidden-terminal mechanism),
    /// - the receiver must not itself have transmitted during the frame
    ///   (half-duplex),
    /// - an independent Bernoulli(PRR) draw must succeed (fading etc.).
    ///
    /// The result borrows a buffer the medium reuses for every
    /// transmission, so resolving a frame allocates nothing. A
    /// transmission is closed once, when its air time has elapsed.
    pub fn end_tx(&mut self, handle: TxHandle, listeners: &[RadioIdx]) -> &[(RadioIdx, bool)] {
        let rec_idx = self
            .records
            .iter()
            .position(|r| r.id == handle.0)
            .expect("unknown tx handle");
        let rec = self.records[rec_idx];
        let mut out = std::mem::take(&mut self.outcomes);
        out.clear();
        for &rx in listeners {
            if rx == rec.src {
                continue;
            }
            let prr = self.links.prr(rec.src, rx);
            if prr <= 0.0 {
                // Not decodable at this receiver (possibly interference
                // only); no outcome entry.
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
            if ok {
                self.counters.inc(PhyCounter::Deliveries);
            } else {
                self.counters.inc(PhyCounter::PrrDrops);
            }
            out.push((rx, ok));
        }
        self.records[rec_idx].done = true;
        self.gc();
        self.outcomes = out;
        &self.outcomes
    }

    /// Drops finished records that can no longer collide with anything.
    ///
    /// A finished record only matters to the collision check of a live
    /// record that overlaps it, i.e. one starting before it ended. Every
    /// transmission registered later starts at or after the time it was
    /// closed (see [`Medium::begin_tx`]), so it can never overlap again
    /// once no live record does: dropping it changes no outcome, counter
    /// or PRR draw, and the list stays as short as the live radio state.
    fn gc(&mut self) {
        let earliest_live = self
            .records
            .iter()
            .filter(|r| !r.done)
            .map(|r| r.start)
            .min();
        match earliest_live {
            None => self.records.clear(),
            Some(start) => self.records.retain(|r| !r.done || start < r.end),
        }
    }

    /// The PRR random stream, read-only (differential tests compare the
    /// next draw against a reference model's).
    pub fn rng(&self) -> &Rng {
        &self.rng
    }

    /// Number of transmission records currently tracked (test/telemetry).
    pub fn active_records(&self) -> usize {
        self.records.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lln_sim::Duration;

    fn medium_chain3() -> Medium {
        // 0 - 1 - 2 chain: 0 and 2 are hidden from each other.
        Medium::new(LinkMatrix::chain(3, 1.0), Rng::new(7))
    }

    #[test]
    fn clean_delivery_on_idle_channel() {
        let mut m = medium_chain3();
        let t0 = Instant::ZERO;
        let t1 = t0 + Duration::from_millis(4);
        let h = m.begin_tx(RadioIdx(0), t0, t1);
        let out = m.end_tx(h, &[RadioIdx(1), RadioIdx(2)]);
        assert_eq!(out, vec![(RadioIdx(1), true)], "only the neighbour hears");
        assert_eq!(m.counters.get("deliveries"), 1);
    }

    #[test]
    fn hidden_terminal_collision_at_shared_receiver() {
        let mut m = medium_chain3();
        let t0 = Instant::ZERO;
        let t1 = t0 + Duration::from_millis(4);
        // 0 and 2 transmit overlapping frames; both are audible at 1.
        let h0 = m.begin_tx(RadioIdx(0), t0, t1);
        let h2 = m.begin_tx(RadioIdx(2), t0 + Duration::from_millis(1), t1);
        assert_eq!(m.end_tx(h0, &[RadioIdx(1)]), [(RadioIdx(1), false)]);
        assert_eq!(m.end_tx(h2, &[RadioIdx(1)]), [(RadioIdx(1), false)]);
        assert_eq!(m.counters.get("collisions"), 2);
    }

    #[test]
    fn non_overlapping_frames_do_not_collide() {
        let mut m = medium_chain3();
        let h0 = m.begin_tx(RadioIdx(0), Instant::ZERO, Instant::from_millis(4));
        assert_eq!(m.end_tx(h0, &[RadioIdx(1)]), [(RadioIdx(1), true)]);
        let h2 = m.begin_tx(
            RadioIdx(2),
            Instant::from_millis(5),
            Instant::from_millis(9),
        );
        assert_eq!(m.end_tx(h2, &[RadioIdx(1)]), [(RadioIdx(1), true)]);
    }

    #[test]
    fn outcome_buffer_is_reused_and_reset() {
        let mut m = medium_chain3();
        let h = m.begin_tx(RadioIdx(1), Instant::ZERO, Instant::from_millis(4));
        assert_eq!(m.end_tx(h, &[RadioIdx(0), RadioIdx(2)]).len(), 2);
        // A later frame with fewer listeners sees only its own outcomes.
        let h = m.begin_tx(
            RadioIdx(0),
            Instant::from_millis(5),
            Instant::from_millis(9),
        );
        assert_eq!(m.end_tx(h, &[RadioIdx(1)]), [(RadioIdx(1), true)]);
        let h = m.begin_tx(
            RadioIdx(0),
            Instant::from_millis(10),
            Instant::from_millis(14),
        );
        assert!(m.end_tx(h, &[]).is_empty());
    }

    #[test]
    fn half_duplex_receiver_misses_while_transmitting() {
        let mut m = medium_chain3();
        // 1 transmits while 0 transmits to it.
        let h0 = m.begin_tx(RadioIdx(0), Instant::ZERO, Instant::from_millis(4));
        let _h1 = m.begin_tx(
            RadioIdx(1),
            Instant::from_millis(1),
            Instant::from_millis(3),
        );
        let out = m.end_tx(h0, &[RadioIdx(1)]);
        assert_eq!(out, vec![(RadioIdx(1), false)]);
    }

    #[test]
    fn cca_detects_neighbour_not_hidden_node() {
        let mut m = medium_chain3();
        let mid = Instant::from_millis(2);
        let _h = m.begin_tx(RadioIdx(0), Instant::ZERO, Instant::from_millis(4));
        assert!(m.cca_busy(RadioIdx(1), mid), "neighbour hears the energy");
        assert!(!m.cca_busy(RadioIdx(2), mid), "hidden node hears nothing");
        assert!(m.cca_busy(RadioIdx(0), mid), "own tx keeps channel busy");
    }

    #[test]
    fn cca_clear_after_tx_ends() {
        let mut m = medium_chain3();
        let h = m.begin_tx(RadioIdx(0), Instant::ZERO, Instant::from_millis(4));
        m.end_tx(h, &[]);
        assert!(!m.cca_busy(RadioIdx(1), Instant::from_millis(5)));
    }

    #[test]
    fn lossy_link_drops_some_frames() {
        let mut m = Medium::new(LinkMatrix::chain(2, 0.5), Rng::new(42));
        let mut ok = 0;
        let mut t = Instant::ZERO;
        for _ in 0..1000 {
            let end = t + Duration::from_millis(4);
            let h = m.begin_tx(RadioIdx(0), t, end);
            if m.end_tx(h, &[RadioIdx(1)])[0].1 {
                ok += 1;
            }
            t = end + Duration::from_millis(1);
        }
        assert!((400..600).contains(&ok), "PRR 0.5 delivered {ok}/1000");
    }

    #[test]
    fn interference_only_link_jams_but_never_delivers() {
        let mut m = Medium::new(LinkMatrix::chain_with_two_hop_carrier(3, 1.0), Rng::new(1));
        // Node 2's frame is audible at 0 (carrier) but not decodable.
        let h = m.begin_tx(RadioIdx(2), Instant::ZERO, Instant::from_millis(4));
        let out = m.end_tx(h, &[RadioIdx(0), RadioIdx(1)]);
        assert!(out.contains(&(RadioIdx(0), false)));
        assert!(out.contains(&(RadioIdx(1), true)));
        // And it shows up in node 0's CCA.
        let _h2 = m.begin_tx(
            RadioIdx(2),
            Instant::from_millis(10),
            Instant::from_millis(14),
        );
        assert!(m.cca_busy(RadioIdx(0), Instant::from_millis(12)));
    }

    #[test]
    fn records_garbage_collected() {
        let mut m = medium_chain3();
        for i in 0..100 {
            let t = Instant::from_millis(i * 10);
            let h = m.begin_tx(RadioIdx(0), t, t + Duration::from_millis(4));
            m.end_tx(h, &[RadioIdx(1)]);
            assert_eq!(m.active_records(), 0, "frame {i} left a record behind");
        }
    }

    #[test]
    fn finished_record_kept_while_an_overlapping_frame_is_live() {
        let mut m = medium_chain3();
        // 0 sends [0, 4) ms; 2 (hidden from 0) sends [3, 7) ms. When 0's
        // frame ends, 2's is still on the air and overlaps it, so 0's
        // record must stay for 2's collision check at node 1.
        let h0 = m.begin_tx(RadioIdx(0), Instant::ZERO, Instant::from_millis(4));
        let h2 = m.begin_tx(
            RadioIdx(2),
            Instant::from_millis(3),
            Instant::from_millis(7),
        );
        assert_eq!(m.end_tx(h0, &[RadioIdx(1)]), [(RadioIdx(1), false)]);
        assert_eq!(m.active_records(), 2);
        // 1 answers inside 2's frame: its record overlaps 2's as well,
        // and 0's record still does.
        let h1 = m.begin_tx(
            RadioIdx(1),
            Instant::from_millis(5),
            Instant::from_millis(6),
        );
        assert_eq!(m.end_tx(h1, &[]), []);
        assert_eq!(m.active_records(), 3);
        assert_eq!(m.end_tx(h2, &[RadioIdx(1)]), [(RadioIdx(1), false)]);
        assert_eq!(m.counters.get("collisions"), 2);
        assert_eq!(m.active_records(), 0, "nothing live: every record goes");
    }
}
