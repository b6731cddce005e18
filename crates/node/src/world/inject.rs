//! The injectors of the [`World`]: the fault plan (reboots, link
//! blackouts, route flaps, bit-error bursts), the adversary on a node's
//! inbound TCP path and the flooder, each with its setup call, and the
//! guard that swallows events at a powered-off node. It handles
//! [`Event::Fault`], [`Event::FaultEnd`] and [`Event::FloodTick`];
//! the adversary's later deliveries come back as
//! [`Event::AdversaryDeliver`], which the transport handles.

use super::{Event, World, CPU_PER_FRAME, CPU_PER_SEGMENT};
use crate::adversary::{Adversary, AdversaryProfile, AdversaryStats};
use crate::app::App;
use crate::fault::{FaultEvent, FaultPlan};
use crate::flood::{FloodConfig, FloodStats, Flooder};
use crate::route::Topology;
use crate::stack::{NodeCounter, NodeKind};
use crate::trace::TraceDir;
use lln_energy::RadioState;
use lln_mac::frame::MacFrame;
use lln_netip::{Ipv6Header, NodeId};
use lln_phy::RadioIdx;
use lln_sim::{Duration, Instant};
use tcplp::SegmentView;

/// What the injectors keep between events.
#[derive(Default)]
pub(super) struct InjectState {
    /// Blackouts in force, one entry each: the (low, high) edge and
    /// its PRRs (low→high, high→low) from before the first that overlaps.
    blackouts: Vec<((usize, usize), (f64, f64))>,
    /// Bit-error bursts in force, as (node, BER).
    ber_bursts: Vec<(usize, f64)>,
    /// Scratch: the adversary's deliveries for one segment.
    mangled: Vec<(Duration, Vec<u8>)>,
    /// Every applied plan's faults, in order; [`Event::Fault`] and
    /// [`Event::FaultEnd`] carry an index into it.
    faults: Vec<FaultEvent>,
}

impl World {
    /// Schedules every event of `plan` on the sim event queue. Events
    /// execute in deterministic order with everything else, so a run
    /// with a fixed seed and a fixed plan replays bit-identically.
    pub fn apply_fault_plan(&mut self, plan: &FaultPlan) {
        for &ev in plan.events() {
            let k = self.inject.faults.len() as u32;
            self.inject.faults.push(ev);
            self.queue.schedule(ev.at(), Event::Fault(k));
        }
    }

    /// Interposes an adversary on `node`'s inbound TCP path (torture
    /// suite). The adversary gets its own RNG stream forked from the
    /// world seed, so a fixed seed replays bit-identically.
    pub fn attach_adversary(&mut self, node: usize, profile: AdversaryProfile) {
        let rng = self.rng.fork(0xADF0 + node as u64);
        self.nodes[node].adversary = Some(Adversary::new(profile, rng));
    }

    /// The adversary's counters on `node`, if one is attached.
    pub fn adversary_stats(&self, node: usize) -> Option<AdversaryStats> {
        self.nodes[node].adversary.as_ref().map(|a| a.stats)
    }

    /// Attaches a resource-exhaustion flooder to `node` (overload
    /// suite). Forged traffic lands directly at the victim's transport
    /// and adaptation inputs, modelling an attacker one hop upstream.
    /// The flooder gets its own forked RNG stream, so a fixed seed
    /// replays the attack bit-identically.
    pub fn attach_flood(&mut self, node: usize, cfg: FloodConfig) {
        let rng = self.rng.fork(0xF100_0D00 + node as u64);
        let start = cfg.start;
        self.nodes[node].flooder = Some(Flooder::new(cfg, rng));
        self.queue.schedule(start, Event::FloodTick(node));
    }

    /// The flooder's counters on `node`, if one is attached.
    pub fn flood_stats(&self, node: usize) -> Option<FloodStats> {
        self.nodes[node].flooder.as_ref().map(|f| f.stats)
    }

    /// Swallows `ev` when node `i` is powered off, preserving the
    /// medium invariant (every `begin_tx` is matched by one `end_tx`)
    /// for transmissions the reboot cut mid-air, and handing a swallowed
    /// packet's bytes back to the pool and freeing its slot. Returns true
    /// when the event was consumed.
    pub(super) fn guard_down_node(&mut self, ev: Event, now: Instant) -> bool {
        let i = match ev {
            // These act on a down node: a fault and its end (the end of
            // a reboot is the boot), and the flooder, which keeps
            // ticking so the attack resumes after the boot.
            Event::Fault(_) | Event::FaultEnd(_) | Event::FloodTick(_) => return false,
            Event::CcaDone(i)
            | Event::SpiDone(i)
            | Event::AckTimeout(i)
            | Event::TransportTimer(i)
            | Event::PollWake(i)
            | Event::PollWindowEnd(i)
            | Event::AppTick(i)
            | Event::AirDone(i)
            | Event::LinkAckDone(i)
            | Event::LinkAckStart(i, _, _)
            | Event::WiredDeliver(i, _)
            | Event::AdversaryDeliver(i, _)
            | Event::InterfererStart(i)
            | Event::InterfererEnd(i) => i,
        };
        if !self.nodes[i].down {
            return false;
        }
        match ev {
            Event::AppTick(_) => {
                // The sensing schedule resumes after boot; readings
                // that would have been taken while down are lost at
                // the source (the mote was off).
                if let App::Anemometer(app) = &self.nodes[i].app {
                    let iv = app.interval;
                    self.queue.schedule(now + iv, Event::AppTick(i));
                }
            }
            Event::WiredDeliver(_, slot) | Event::AdversaryDeliver(_, slot) => {
                self.nodes[i].counters.inc(NodeCounter::DownDrops);
                let (_, payload) = self.parked.take(slot);
                self.seg_bufs.put(payload);
            }
            Event::AirDone(_) => {
                // Our own frame was mid-air when the power died: the
                // transmission is cut, nobody decodes it, but the
                // medium record must still close.
                if let Some(tx) = self.nodes[i].cur_tx.take() {
                    if let Some(handle) = tx.handle {
                        self.medium.end_tx(handle, &[]);
                    }
                    if let Some(tok) = tx.timer {
                        self.queue.cancel(tok);
                    }
                    self.pool.reclaim(tx.frame);
                }
            }
            Event::LinkAckDone(_) => {
                if let Some((handle, _, _)) = self.ack_handles[i].take() {
                    self.medium.end_tx(handle, &[]);
                }
            }
            Event::InterfererEnd(_) => {
                if let Some((handle, _)) = self.interferer_handles[i].take() {
                    self.medium.end_tx(handle, &[]);
                }
            }
            // The rest hold nothing: they die with the power.
            Event::CcaDone(_)
            | Event::SpiDone(_)
            | Event::AckTimeout(_)
            | Event::TransportTimer(_)
            | Event::PollWake(_)
            | Event::PollWindowEnd(_)
            | Event::LinkAckStart(..)
            | Event::InterfererStart(_)
            | Event::Fault(_)
            | Event::FaultEnd(_)
            | Event::FloodTick(_) => {}
        }
        true
    }

    // ------------------------------------------------------------------
    // Fault plan
    // ------------------------------------------------------------------

    /// Puts fault `k` into effect. Returns its span when its end must be
    /// scheduled: not for a route flap, which has none, nor for a reboot
    /// of a node that is already down.
    pub(super) fn start_fault(&mut self, k: u32, now: Instant) -> Option<Duration> {
        match self.inject.faults[k as usize] {
            FaultEvent::NodeReboot { node, down_for, .. } => {
                if self.nodes[node].down {
                    return None;
                }
                self.power_down(node, down_for, now);
                Some(down_for)
            }
            FaultEvent::LinkBlackout { a, b, duration, .. } => {
                // The edge's PRRs from before the first blackout in force
                // are saved, to come back when the last one ends.
                let edge = (a.min(b), a.max(b));
                let (lo, hi) = (RadioIdx(edge.0), RadioIdx(edge.1));
                let links = self.medium.links();
                let saved = match self.inject.blackouts.iter().find(|x| x.0 == edge) {
                    Some(&(_, saved)) => saved,
                    None => (links.prr(lo, hi), links.prr(hi, lo)),
                };
                self.inject.blackouts.push((edge, saved));
                // PRR to zero but still audible: energy on the channel remains
                // detectable (CCA, collisions) — only reception dies.
                self.medium.links_mut().set_symmetric(lo, hi, 0.0);
                self.nodes[a].counters.inc(NodeCounter::LinkBlackouts);
                Some(duration)
            }
            FaultEvent::RouteFlap { node, .. } => {
                self.flap_route(node, now);
                None
            }
            FaultEvent::BitErrorBurst {
                node,
                ber,
                duration,
                ..
            } => {
                self.inject.ber_bursts.push((node, ber));
                self.refresh_ber(node);
                self.nodes[node].counters.inc(NodeCounter::BerBursts);
                Some(duration)
            }
        }
    }

    /// Ends fault `k` when its span is over.
    pub(super) fn end_fault(&mut self, k: u32, now: Instant) {
        match self.inject.faults[k as usize] {
            FaultEvent::NodeReboot { node, .. } => self.power_up(node, now),
            FaultEvent::LinkBlackout { a, b, .. } => {
                let edge = (a.min(b), a.max(b));
                let blackouts = &mut self.inject.blackouts;
                let k = blackouts.iter().position(|x| x.0 == edge);
                let (_, (up, down)) = blackouts.swap_remove(k.expect("blackout end without start"));
                if blackouts.iter().all(|x| x.0 != edge) {
                    let (lo, hi) = (RadioIdx(edge.0), RadioIdx(edge.1));
                    self.medium.links_mut().set_link(lo, hi, up);
                    self.medium.links_mut().set_link(hi, lo, down);
                }
            }
            FaultEvent::BitErrorBurst { node, ber, .. } => {
                let bursts = &mut self.inject.ber_bursts;
                let k = bursts.iter().position(|&x| x == (node, ber));
                bursts.swap_remove(k.expect("burst end without start"));
                self.refresh_ber(node);
            }
            FaultEvent::RouteFlap { .. } => unreachable!("a route flap has no span"),
        }
    }

    /// Powers node `i` off: everything volatile is lost.
    fn power_down(&mut self, i: usize, down_for: Duration, now: Instant) {
        // A frame already on the air is cut but its medium record stays
        // open until the scheduled AirDone performs cleanup (see
        // `guard_down_node`); anything earlier in the tx pipeline is
        // dropped right now.
        let mid_air = self.nodes[i]
            .cur_tx
            .as_ref()
            .is_some_and(|t| t.handle.is_some());
        if !mid_air {
            if let Some(tx) = self.nodes[i].cur_tx.take() {
                if let Some(tok) = tx.timer {
                    self.queue.cancel(tok);
                }
                self.pool.reclaim(tx.frame);
            }
        }
        {
            let n = &mut self.nodes[i];
            let timers = [
                n.poll_timer.take(),
                n.poll_window.take(),
                n.transport_timer.take(),
            ];
            for tok in timers.into_iter().flatten() {
                self.queue.cancel(tok);
            }
            n.down = true;
            n.counters.inc(NodeCounter::Reboots);
            n.transmitting = false;
            n.awake = false;
            // Volatile state dies with the power (its buffers go back
            // to the world's pools)...
            while let Some(f) = n.ctrl_queue.pop() {
                self.pool.reclaim(f);
            }
            for f in n.cur_packet_frames.drain(..) {
                self.pool.reclaim(f);
            }
            while let Some(pkt) = n.ip_queue.pop() {
                self.seg_bufs.put(pkt.payload);
            }
            for (_, mut q) in n.indirect.drain() {
                while let Some(pkt) = q.pop() {
                    self.seg_bufs.put(pkt.payload);
                }
            }
            n.reassembler.clear();
            n.last_rx_seq.clear();
            n.polling = false;
            n.poll_got_frame = false;
            n.transport.tcp.clear();
            n.transport.uip = None;
            // ...but the battery does not: the meter keeps integrating,
            // with the radio accounted as asleep while down.
            n.meter.set_radio_state(RadioState::Sleep, now);
        }
        self.nodes[i].sync_governor();
        if self.trace.is_enabled() {
            self.trace.record(
                now,
                self.nodes[i].id,
                TraceDir::Drop,
                format!("fault: reboot (down {down_for})"),
            );
        }
    }

    /// Cold-boots node `i` after a reboot.
    fn power_up(&mut self, i: usize, now: Instant) {
        if !self.nodes[i].down {
            return;
        }
        let n = &mut self.nodes[i];
        n.down = false;
        n.counters.inc(NodeCounter::Boots);
        n.listen_since = now;
        match n.kind {
            NodeKind::SleepyLeaf => {
                // Cold boot: the leaf stays asleep and re-joins its
                // poll schedule after a deterministic boot delay.
                let boot = Duration::from_millis(50 + 37 * i as u64);
                let tok = self.queue.schedule(now + boot, Event::PollWake(i));
                self.nodes[i].poll_timer = Some(tok);
            }
            NodeKind::CloudHost | NodeKind::Interferer => {}
            _ => {
                self.nodes[i].awake = true;
                self.nodes[i].meter.set_radio_state(RadioState::Rx, now);
            }
        }
        // Restart the transport layer: the supervisor (its record queue
        // survives in "flash") notices its socket vanished and begins
        // reconnecting.
        self.queue.schedule(now, Event::TransportTimer(i));
    }

    /// Makes node `i` reselect its routing parent.
    fn flap_route(&mut self, i: usize, now: Instant) {
        self.nodes[i].counters.inc(NodeCounter::RouteFlaps);
        let anchor = self.border.unwrap_or(0);
        if i == anchor {
            return;
        }
        let old_parent = self.nodes[i]
            .routes
            .default_route
            .or_else(|| self.nodes[i].routes.lookup(NodeId(anchor as u16)));
        let Some(old_parent) = old_parent else {
            return;
        };
        // Recompute this node's routes with the current-parent edge
        // excluded, as a routing protocol reacting to link churn would.
        // If no alternative parent reaches the anchor, keep the old
        // routes (the flap is transient; counted but harmless). The
        // matrix is borrowed and only this node's table is recomputed —
        // no clone of either.
        let mut new_rt =
            Topology::single_source(self.medium.links(), i, Some((i, old_parent.0 as usize)));
        let Some(new_parent) = new_rt.lookup(NodeId(anchor as u16)) else {
            return;
        };
        new_rt.default_route = Some(new_parent);
        self.nodes[i].routes = new_rt;
        if self.nodes[i].kind == NodeKind::SleepyLeaf {
            let id = self.nodes[i].id;
            self.nodes[old_parent.0 as usize]
                .sleepy_children
                .remove(&id);
            self.nodes[new_parent.0 as usize].sleepy_children.insert(id);
        }
        if self.trace.is_enabled() {
            self.trace.record(
                now,
                self.nodes[i].id,
                TraceDir::Forward,
                format!(
                    "fault: route flap, parent {} -> {}",
                    old_parent.0, new_parent.0
                ),
            );
        }
    }

    /// Sets node `i`'s BER to the highest among its bursts in force,
    /// or clears it when none is left.
    fn refresh_ber(&mut self, i: usize) {
        self.nodes[i].ber = self
            .inject
            .ber_bursts
            .iter()
            .filter(|&&(n, _)| n == i)
            .map(|&(_, ber)| ber)
            .reduce(f64::max);
    }

    /// Delivers a received transmission to `rx`, through bit errors
    /// when a burst is in force there: the frame is encoded, each bit
    /// flips independently at the node's BER (sampled by geometric skips
    /// from the world RNG), then the bytes go through the real decoder,
    /// whose FCS check rejects nearly all corruption.
    pub(super) fn deliver_with_ber(&mut self, rx: usize, frame: &MacFrame, now: Instant) {
        let Some(ber) = self.nodes[rx].ber else {
            return self.deliver_frame(rx, frame, now);
        };
        let mut bytes = frame.encode();
        let nbits = (bytes.len() * 8) as u64;
        if ber > 0.0 {
            let mut idx: u64 = 0;
            let mut flipped = false;
            loop {
                let u = self.rng.gen_f64();
                let skip = if ber >= 1.0 {
                    0.0
                } else {
                    (1.0 - u).ln() / (1.0 - ber).ln()
                };
                idx += skip as u64;
                if idx >= nbits {
                    break;
                }
                bytes[(idx / 8) as usize] ^= 1 << (idx % 8);
                flipped = true;
                idx += 1;
            }
            if flipped {
                self.nodes[rx].counters.inc(NodeCounter::BerCorruptedFrames);
            }
        }
        match MacFrame::decode(&bytes) {
            Some(f) => self.deliver_frame(rx, &f, now),
            None => {
                self.nodes[rx].counters.inc(NodeCounter::FcsDrops);
                self.trace.record(
                    now,
                    self.nodes[rx].id,
                    TraceDir::Drop,
                    "FCS check failed (bit errors)",
                );
            }
        }
    }

    // ------------------------------------------------------------------
    // Adversary
    // ------------------------------------------------------------------

    /// Runs `seg`, inbound at node `i`, through the node's adversary.
    /// Each delivery it makes that is due now reaches the transport
    /// inline; a later one comes back as a
    /// [`Event::AdversaryDeliver`].
    pub(super) fn mangle_tcp(
        &mut self,
        i: usize,
        hdr: &Ipv6Header,
        seg: &SegmentView<'_>,
        now: Instant,
    ) {
        let mut out = std::mem::take(&mut self.inject.mangled);
        let adv = self.nodes[i].adversary.as_mut().expect("an adversary");
        adv.on_segment(seg, hdr.src, hdr.dst, &mut out);
        for (delay, bytes) in out.drain(..) {
            let mut h = *hdr;
            h.payload_len = bytes.len() as u16;
            if delay == Duration::ZERO {
                self.deliver_tcp(i, &h, &bytes, true, now);
                self.seg_bufs.put(bytes);
            } else {
                let slot = self.parked.park(h, bytes);
                self.queue
                    .schedule(now + delay, Event::AdversaryDeliver(i, slot));
            }
        }
        self.inject.mangled = out;
    }

    // ------------------------------------------------------------------
    // Flooder
    // ------------------------------------------------------------------

    /// One flooder tick: inject forged traffic at node `i`, then
    /// reschedule. Ticks keep firing (without injecting) while the
    /// victim is down, so the attack resumes after a reboot.
    pub(super) fn on_flood_tick(&mut self, i: usize, now: Instant) {
        let victim = self.nodes[i].ip_addr();
        let n = &mut self.nodes[i];
        let Some(fl) = n.flooder.as_mut().filter(|fl| now < fl.cfg.stop) else {
            return;
        };
        let interval = fl.interval();
        // Each forgery draws only from the flooder's own RNG stream.
        let syn = (fl.cfg.syn && !n.down).then(|| fl.next_syn(victim));
        let frag = (fl.cfg.frag && !n.down).then(|| fl.next_frag1());
        if let Some((hdr, seg)) = syn {
            self.nodes[i].meter.add_cpu(CPU_PER_SEGMENT);
            self.nodes[i].counters.inc(NodeCounter::FloodSynsRx);
            self.dispatch_tcp_view(i, &hdr, seg.view(), now);
        }
        if let Some((src, bytes)) = frag {
            self.nodes[i].meter.add_cpu(CPU_PER_FRAME);
            self.nodes[i].counters.inc(NodeCounter::FloodFragsRx);
            let _ = self.nodes[i].reassembler.offer(src, &bytes, now);
            // No transport-timer reschedule: the reassembler is not
            // a wake source (see `reschedule_transport_timer`).
            self.nodes[i].sync_governor();
        }
        self.queue.schedule(now + interval, Event::FloodTick(i));
    }
}
