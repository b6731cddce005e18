//! The MAC layer of the [`World`]: the CSMA engine, frame reception,
//! link ACKs, data polling (sleepy leaves and their parents) and the
//! interferers' bursts. It handles the MAC and interferer
//! [`Event`]s.

use super::{Event, World, POLL_WINDOW};
use crate::app::App;
use crate::stack::{CurrentTx, Node, NodeCounter, NodeKind};
use crate::trace::{summarize_frame, TraceDir};
use lln_energy::RadioState;
use lln_mac::csma::{TxProcess, TxStep};
use lln_mac::frame::{FrameType, MacFrame};
use lln_netip::NodeId;
use lln_phy::medium::TxHandle;
use lln_phy::RadioIdx;
use lln_sim::{Duration, Instant, Rng};
use lln_sixlowpan::iphc;

impl World {
    fn wake(&mut self, i: usize, now: Instant) {
        let n = &mut self.nodes[i];
        if !n.awake {
            n.awake = true;
            n.listen_since = now;
            n.meter.set_radio_state(RadioState::Rx, now);
        }
    }

    pub(super) fn maybe_sleep(&mut self, i: usize, now: Instant) {
        let n = &mut self.nodes[i];
        if n.kind != NodeKind::SleepyLeaf || !n.awake {
            return;
        }
        if n.cur_tx.is_some()
            || !n.ctrl_queue.is_empty()
            || !n.cur_packet_frames.is_empty()
            || !n.ip_queue.is_empty()
            || n.polling
            || n.poll_window.is_some()
        {
            return;
        }
        let expecting = n.expecting_response();
        n.awake = false;
        n.meter.set_radio_state(RadioState::Sleep, now);
        // Schedule the next poll.
        let got = n.poll_got_frame;
        n.poll_got_frame = false;
        if let Some(poll) = n.poll.as_mut() {
            poll.set_expecting_response(expecting);
            let delay = poll.next_delay(got);
            if let Some(tok) = n.poll_timer.take() {
                self.queue.cancel(tok);
            }
            let tok = self.queue.schedule(now + delay, Event::PollWake(i));
            self.nodes[i].poll_timer = Some(tok);
        }
    }

    /// Starts the next MAC transmission if idle.
    pub(super) fn kick_mac(&mut self, i: usize, now: Instant) {
        let n = &self.nodes[i];
        if n.kind == NodeKind::CloudHost || n.down || n.cur_tx.is_some() {
            return;
        }
        // Pick the next frame: control first, then current packet,
        // then fragment the next IP packet.
        let frame = if let Some(f) = self.nodes[i].ctrl_queue.pop() {
            Some(f)
        } else if let Some(f) = self.nodes[i].cur_packet_frames.pop_front() {
            Some(f)
        } else if let Some(pkt) = self.nodes[i].ip_queue.pop() {
            self.frame_packet(i, pkt, None);
            self.nodes[i].counters.inc(NodeCounter::PacketsTx);
            self.nodes[i].cur_packet_frames.pop_front()
        } else {
            None
        };
        let Some(frame) = frame else {
            self.maybe_sleep(i, now);
            return;
        };
        self.wake(i, now);
        let ack_expected = frame.frame().ack_request;
        let process = TxProcess::new(self.cfg.mac.clone(), ack_expected);
        // Load the frame into the radio (SPI + driver cost) BEFORE
        // CSMA: the radio then transmits immediately after a clear CCA,
        // as real 802.15.4 hardware does. Retries re-use the loaded
        // frame and skip this cost.
        let overhead = self.cfg.phy.platform_overhead(frame.mpdu_len());
        self.nodes[i].meter.add_cpu(overhead);
        let tok = self.queue.schedule(now + overhead, Event::SpiDone(i));
        self.nodes[i].cur_tx = Some(CurrentTx {
            frame,
            process,
            handle: None,
            timer: Some(tok),
        });
    }

    fn handle_step(&mut self, i: usize, step: TxStep, now: Instant) {
        match step {
            TxStep::BackoffThenCca(d) => {
                // Nothing happens when the backoff ends: the CCA that
                // follows is read when it ends, `cca_duration` later.
                // One event covers both.
                let cca_end = now + d + self.cfg.phy.cca_duration;
                let tok = self.queue.schedule(cca_end, Event::CcaDone(i));
                if let Some(tx) = self.nodes[i].cur_tx.as_mut() {
                    tx.timer = Some(tok);
                }
            }
            TxStep::Transmit => {
                // Channel clear and the frame is already loaded: it
                // goes on the air after the rx/tx turnaround.
                let len = self.nodes[i]
                    .cur_tx
                    .as_ref()
                    .map_or(0, |t| t.frame.mpdu_len());
                let start = now + self.cfg.phy.turnaround;
                let air = self.cfg.phy.air_time(len);
                let handle = self.medium.begin_tx(RadioIdx(i), start, start + air);
                if let Some(tx) = self.nodes[i].cur_tx.as_mut() {
                    tx.handle = Some(handle);
                    tx.timer = None;
                }
                self.nodes[i].transmitting = true;
                self.nodes[i].meter.set_radio_state(RadioState::Tx, now);
                self.nodes[i].counters.inc(NodeCounter::FramesTx);
                if self.trace.is_enabled() {
                    let summary = self.nodes[i]
                        .cur_tx
                        .as_ref()
                        .map(|t| summarize_frame(t.frame.frame()))
                        .unwrap_or_default();
                    self.trace
                        .record(now, self.nodes[i].id, TraceDir::FrameTx, summary);
                }
                self.queue.schedule(start + air, Event::AirDone(i));
            }
            TxStep::AwaitAck => {
                let wait = self.cfg.phy.ack_wait + self.cfg.phy.turnaround;
                let tok = self.queue.schedule(now + wait, Event::AckTimeout(i));
                if let Some(tx) = self.nodes[i].cur_tx.as_mut() {
                    tx.timer = Some(tok);
                }
            }
            TxStep::Done(ok) => self.finish_frame(i, ok, now),
        }
    }

    /// Advances node `i`'s transmission in progress, if any, by `step`.
    fn advance_tx(
        &mut self,
        i: usize,
        now: Instant,
        step: impl FnOnce(&mut TxProcess, &mut Rng) -> TxStep,
    ) {
        let Some(tx) = self.nodes[i].cur_tx.as_mut() else {
            return;
        };
        let step = step(&mut tx.process, &mut self.rng);
        self.handle_step(i, step, now);
    }

    pub(super) fn on_cca_done(&mut self, i: usize, now: Instant) {
        let busy = self.medium.cca_busy(RadioIdx(i), now);
        self.advance_tx(i, now, |p, rng| p.on_cca(busy, rng));
    }

    /// Frame loaded: begin the CSMA process.
    pub(super) fn on_spi_done(&mut self, i: usize, now: Instant) {
        self.advance_tx(i, now, TxProcess::start);
    }

    /// Closes the medium record of `handle` — `frame`, sent by `i` and on
    /// the air since `start` — and delivers the frame to every radio
    /// that decoded it. Only radios awake, not transmitting, and
    /// listening since the frame began can receive it. The listener list
    /// and the outcomes pass through world-owned scratch buffers, so
    /// resolving a frame allocates nothing. The outcomes are copied one
    /// by one: there are a few per frame, too few to pay for a `memcpy`
    /// call.
    fn resolve_tx(
        &mut self,
        i: usize,
        handle: TxHandle,
        start: Instant,
        frame: &MacFrame,
        now: Instant,
    ) {
        let mut listeners = std::mem::take(&mut self.listeners);
        listeners.clear();
        listeners.extend(
            self.nodes
                .iter()
                .enumerate()
                .filter(|(j, n)| {
                    *j != i
                        && n.awake
                        && !n.transmitting
                        && n.listen_since <= start
                        && n.kind != NodeKind::CloudHost
                })
                .map(|(j, _)| RadioIdx(j)),
        );
        let mut outcomes = std::mem::take(&mut self.outcomes);
        outcomes.clear();
        for &outcome in self.medium.end_tx(handle, &listeners) {
            outcomes.push(outcome);
        }
        self.listeners = listeners;
        for &(rx, ok) in &outcomes {
            if ok {
                self.deliver_with_ber(rx.0, frame, now);
            }
        }
        self.outcomes = outcomes;
    }

    pub(super) fn on_air_done(&mut self, i: usize, now: Instant) {
        let n = &mut self.nodes[i];
        if n.cur_tx.as_ref().is_none_or(|tx| tx.handle.is_none()) {
            return;
        }
        // The transmission moves out while the receivers borrow its
        // frame, and back in after: the frame is never shared.
        let mut tx = n.cur_tx.take().expect("checked above");
        let handle = tx.handle.take().expect("checked above");
        let start = now - self.cfg.phy.air_time(tx.frame.mpdu_len());
        // Sender returns to listening.
        n.transmitting = false;
        n.listen_since = now;
        n.meter.set_radio_state(RadioState::Rx, now);
        self.resolve_tx(i, handle, start, tx.frame.frame(), now);
        debug_assert!(
            self.nodes[i].cur_tx.is_none(),
            "node {i} was re-armed while its frame was resolved"
        );
        // Advance the transmit state machine.
        let step = tx.process.on_tx_done();
        self.nodes[i].cur_tx = Some(tx);
        self.handle_step(i, step, now);
    }

    pub(super) fn on_ack_timeout(&mut self, i: usize, now: Instant) {
        if self.nodes[i].cur_tx.is_some() {
            self.nodes[i].counters.inc(NodeCounter::LinkRetries);
        }
        self.advance_tx(i, now, TxProcess::on_ack_timeout);
    }

    fn finish_frame(&mut self, i: usize, ok: bool, now: Instant) {
        let tx = self.nodes[i].cur_tx.take();
        if let Some(tx) = tx {
            if let Some(tok) = tx.timer {
                self.queue.cancel(tok);
            }
            if !ok {
                self.nodes[i].counters.inc(NodeCounter::FramesDropped);
                if self.trace.is_enabled() {
                    self.trace.record(
                        now,
                        self.nodes[i].id,
                        TraceDir::Drop,
                        format!(
                            "link retries exhausted: {}",
                            summarize_frame(tx.frame.frame())
                        ),
                    );
                }
                // Losing one fragment loses the packet: discard the rest.
                for f in self.nodes[i].cur_packet_frames.drain(..) {
                    self.pool.reclaim(f);
                }
                if tx.frame.frame().is_data_request() {
                    // Poll failed; go back to sleep and retry later.
                    self.nodes[i].polling = false;
                }
            } else {
                self.nodes[i].counters.inc(NodeCounter::FramesDelivered);
            }
            self.pool.reclaim(tx.frame);
        }
        self.kick_mac(i, now);
        self.maybe_sleep(i, now);
    }

    // ------------------------------------------------------------------
    // Frame reception
    // ------------------------------------------------------------------

    pub(super) fn deliver_frame(&mut self, i: usize, frame: &MacFrame, now: Instant) {
        self.nodes[i].meter.add_cpu(super::CPU_PER_FRAME);
        if self.trace.is_enabled()
            && (frame.dst == self.nodes[i].id || frame.frame_type == FrameType::Ack)
        {
            self.trace.record(
                now,
                self.nodes[i].id,
                TraceDir::FrameRx,
                summarize_frame(frame),
            );
        }
        match frame.frame_type {
            FrameType::Ack => self.handle_link_ack(i, frame, now),
            FrameType::Data | FrameType::Command => {
                if frame.dst != self.nodes[i].id && frame.dst != lln_mac::frame::BROADCAST {
                    return; // overheard someone else's frame
                }
                let dup = self.nodes[i].check_duplicate(frame.src, frame.seq);
                if frame.ack_request {
                    // Send the link ACK after turnaround. Pending bit:
                    // for data requests, signal queued indirect data.
                    let pending = frame.is_data_request()
                        && self.nodes[i]
                            .indirect
                            .get(&frame.src)
                            .is_some_and(|q| !q.is_empty());
                    self.queue.schedule(
                        now + self.cfg.phy.turnaround,
                        Event::LinkAckStart(i, frame.seq, pending),
                    );
                }
                if dup {
                    self.nodes[i].counters.inc(NodeCounter::DupFrames);
                    return;
                }
                if frame.is_data_request() {
                    self.handle_data_request(i, frame.src, now);
                    return;
                }
                // Sleepy leaf: note downstream traffic and the pending
                // bit for the poll window.
                if self.nodes[i].kind == NodeKind::SleepyLeaf {
                    self.nodes[i].poll_got_frame = true;
                    if frame.pending {
                        // More frames are on their way (the parent
                        // drains its queue after one data request):
                        // keep the radio on.
                        self.extend_poll_window(i, POLL_WINDOW, now);
                    } else {
                        // Last queued packet: keep listening only long
                        // enough for any remaining fragments (each
                        // arrival refreshes this grace period).
                        self.extend_poll_window(i, Duration::from_millis(15), now);
                    }
                }
                // 6LoWPAN reassembly. An unfragmented packet is read in
                // place; a reassembled datagram's buffer goes back to the
                // reassembler once the packet has been handled.
                let done = self.nodes[i]
                    .reassembler
                    .offer_view(frame.src, &frame.payload, now);
                if let Some(packet) = done {
                    if let Some((hdr, payload)) =
                        iphc::decompress_view(packet.as_slice(), frame.src, frame.dst)
                    {
                        self.handle_ip(i, hdr, payload, now);
                    } else {
                        self.nodes[i].counters.inc(NodeCounter::DecompressErrors);
                    }
                    if let iphc::Payload::Owned(buf) = packet {
                        self.nodes[i].reassembler.recycle(buf);
                    }
                }
                self.kick_mac(i, now);
                self.maybe_sleep(i, now);
            }
        }
    }

    fn handle_link_ack(&mut self, i: usize, ack: &MacFrame, now: Instant) {
        let Some(tx) = self.nodes[i].cur_tx.as_mut() else {
            return;
        };
        // Accept only when we are actually waiting for this ACK; a
        // neighbour's ACK with a coincidentally equal sequence number
        // must not complete our (unsent or in-flight) frame.
        if tx.frame.frame().seq != ack.seq || !tx.process.awaiting_ack() {
            return;
        }
        if let Some(tok) = tx.timer.take() {
            self.queue.cancel(tok);
        }
        let was_poll = tx.frame.frame().is_data_request();
        let step = tx.process.on_ack();
        if was_poll && self.nodes[i].kind == NodeKind::SleepyLeaf {
            self.nodes[i].polling = false;
            if ack.pending {
                // Stay awake to receive the indirect frame(s).
                self.extend_poll_window(i, POLL_WINDOW, now);
            } else {
                // Nothing queued: close the listen window right away
                // (keeps the poll exchange to a few milliseconds, the
                // behaviour the paper's 0.1% idle duty cycle needs).
                if let Some(tok) = self.nodes[i].poll_window.take() {
                    self.queue.cancel(tok);
                }
            }
        }
        self.handle_step(i, step, now);
    }

    fn extend_poll_window(&mut self, i: usize, span: Duration, now: Instant) {
        if let Some(tok) = self.nodes[i].poll_window.take() {
            self.queue.cancel(tok);
        }
        let tok = self.queue.schedule(now + span, Event::PollWindowEnd(i));
        self.nodes[i].poll_window = Some(tok);
    }

    pub(super) fn on_link_ack_start(&mut self, i: usize, seq: u8, pending: bool, now: Instant) {
        // Half-duplex: if we are mid-transmission, skip the ACK (the
        // sender will retry).
        if self.nodes[i].transmitting || !self.nodes[i].awake {
            return;
        }
        // An ACK frame has no payload, so it needs no pooled buffer.
        let ack = MacFrame::ack(seq, pending);
        let air = self.cfg.phy.ack_air_time();
        let handle = self.medium.begin_tx(RadioIdx(i), now, now + air);
        self.nodes[i].transmitting = true;
        self.nodes[i].meter.set_radio_state(RadioState::Tx, now);
        self.ack_handles[i] = Some((handle, ack, now));
        self.queue.schedule(now + air, Event::LinkAckDone(i));
    }

    pub(super) fn on_link_ack_done(&mut self, i: usize, now: Instant) {
        let Some((handle, ack, start)) = self.ack_handles[i].take() else {
            return;
        };
        self.nodes[i].transmitting = false;
        self.nodes[i].listen_since = now;
        self.nodes[i].meter.set_radio_state(RadioState::Rx, now);
        self.resolve_tx(i, handle, start, &ack, now);
    }

    // ------------------------------------------------------------------
    // Data polling (sleepy leaves + parents)
    // ------------------------------------------------------------------

    pub(super) fn on_poll_wake(&mut self, i: usize, now: Instant) {
        self.nodes[i].poll_timer = None;
        if self.nodes[i].kind != NodeKind::SleepyLeaf {
            return;
        }
        self.wake(i, now);
        self.nodes[i].polling = true;
        let parent = self.nodes[i].routes.default_route;
        let Some(parent) = parent else {
            self.nodes[i].polling = false;
            self.maybe_sleep(i, now);
            return;
        };
        let seq = self.nodes[i].next_seq();
        let id = self.nodes[i].id;
        let payload = self.pool.payload_buf();
        let req = self
            .pool
            .alloc(MacFrame::data_request(id, parent, seq, payload));
        if let Err(req) = self.nodes[i].enqueue_ctrl(req) {
            self.pool.reclaim(req);
        }
        // Guard window in case the poll exchange stalls entirely.
        self.extend_poll_window(i, POLL_WINDOW, now);
        self.kick_mac(i, now);
    }

    pub(super) fn on_poll_window_end(&mut self, i: usize, now: Instant) {
        self.nodes[i].poll_window = None;
        self.nodes[i].polling = false;
        self.maybe_sleep(i, now);
    }

    fn handle_data_request(&mut self, i: usize, child: NodeId, now: Instant) {
        // Appendix C enhancement: one data request drains the child's
        // whole indirect queue. Every frame except those of the last
        // packet carries the pending bit, so the child keeps listening
        // for the burst.
        let queued = |n: &Node| n.indirect.get(&child).is_some_and(|q| !q.is_empty());
        if !queued(&self.nodes[i]) {
            return;
        }
        while let Some(pkt) = self.nodes[i].indirect.get_mut(&child).and_then(|q| q.pop()) {
            let more = queued(&self.nodes[i]);
            self.frame_packet(i, pkt, Some(more));
        }
        self.nodes[i].sync_governor();
        self.kick_mac(i, now);
    }

    /// Polls a sleeping leaf that expects a response at the fast rate
    /// (§9.2).
    pub(super) fn adjust_fast_poll(&mut self, i: usize, now: Instant) {
        if self.nodes[i].kind != NodeKind::SleepyLeaf || self.nodes[i].awake {
            return;
        }
        let expecting = self.nodes[i].expecting_response();
        if !expecting {
            return;
        }
        if let Some(poll) = self.nodes[i].poll.as_mut() {
            poll.set_expecting_response(true);
            let fast = poll.next_delay(false);
            if let Some(tok) = self.nodes[i].poll_timer.take() {
                self.queue.cancel(tok);
            }
            let tok = self.queue.schedule(now + fast, Event::PollWake(i));
            self.nodes[i].poll_timer = Some(tok);
        }
    }

    // ------------------------------------------------------------------
    // Interference
    // ------------------------------------------------------------------

    pub(super) fn on_interferer_start(&mut self, i: usize, now: Instant) {
        let App::Interferer(app) = &self.nodes[i].app else {
            return;
        };
        let burst = app.burst;
        let handle = self.medium.begin_tx(RadioIdx(i), now, now + burst);
        self.interferer_handles[i] = Some((handle, now));
        self.queue.schedule(now + burst, Event::InterfererEnd(i));
    }

    pub(super) fn on_interferer_end(&mut self, i: usize, now: Instant) {
        if let Some((handle, _)) = self.interferer_handles[i].take() {
            // Interference is noise: nobody decodes it.
            self.medium.end_tx(handle, &[]);
        }
        let App::Interferer(app) = &self.nodes[i].app else {
            return;
        };
        let gap = app.next_gap(now, &mut self.rng);
        self.queue.schedule(now + gap, Event::InterfererStart(i));
    }
}
