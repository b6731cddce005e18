//! The transport and application layers of the [`World`]: TCP and UDP
//! delivery, the listener's SYN cache and the RST generator, the
//! transport pump and its timer, the connection supervisor, and the
//! applications. It handles [`Event::TransportTimer`] and
//! [`Event::AppTick`].

use super::{Event, World, COAP_PORT, CPU_PER_SEGMENT};
use crate::app::{App, READING_BYTES};
use crate::stack::{BufPool, Node, NodeCounter};
use crate::supervisor::SupervisedConnection;
use crate::trace::TraceDir;
use lln_coap::CoapClient;
use lln_netip::{Ecn, Ipv6Addr, Ipv6Header, NextHeader, UdpHeader};
use lln_sim::Instant;
use tcplp::{ListenerResponse, MemClass, Segment, SegmentView, TcpSocket};

impl World {
    /// Hands `payload`, which reached node `i` under `hdr`, to its TCP
    /// or UDP input, then pumps the node's transports. TCP bytes go
    /// through the node's adversary first, if it has one, unless they
    /// come `from_adversary`.
    pub(super) fn deliver_transport(
        &mut self,
        i: usize,
        hdr: Ipv6Header,
        payload: &[u8],
        from_adversary: bool,
        now: Instant,
    ) {
        self.nodes[i].meter.add_cpu(CPU_PER_SEGMENT);
        match hdr.next_header {
            NextHeader::Tcp => self.deliver_tcp(i, &hdr, payload, from_adversary, now),
            NextHeader::Udp => self.deliver_udp(i, &hdr, payload, now),
            NextHeader::Other(_) => {
                self.nodes[i].counters.inc(NodeCounter::UnknownProto);
            }
        }
        self.pump_transport(i, now);
    }

    /// Decodes the TCP bytes `payload` and hands the segment on (see
    /// [`World::deliver_transport`]). Bytes that fail to parse, such as
    /// the adversary's deliberately malformed forgeries, are dropped
    /// like corrupted genuine traffic.
    pub(super) fn deliver_tcp(
        &mut self,
        i: usize,
        hdr: &Ipv6Header,
        payload: &[u8],
        from_adversary: bool,
        now: Instant,
    ) {
        // Copy-free decode: the parsed view borrows `payload` and the
        // socket or listener ingests straight from the slice.
        let Some(view) = Segment::decode_view(hdr.src, hdr.dst, payload) else {
            self.nodes[i].counters.inc(NodeCounter::TcpChecksumDrops);
            return;
        };
        if from_adversary || self.nodes[i].adversary.is_none() {
            self.dispatch_tcp_view(i, hdr, view, now);
        } else {
            self.mangle_tcp(i, hdr, &view, now);
        }
    }

    /// Hands a decoded segment to the owning socket (or the listener,
    /// the uIP socket, or the RST generator). The segment stays a
    /// borrowed view on every path but the uIP socket's, which copies
    /// it into an owned segment.
    pub(super) fn dispatch_tcp_view(
        &mut self,
        i: usize,
        hdr: &Ipv6Header,
        seg: SegmentView<'_>,
        now: Instant,
    ) {
        let ecn = hdr.ecn;
        let found = self.nodes[i].transport.tcp.iter_mut().find(|s| {
            let (raddr, rport) = s.remote();
            raddr == hdr.src && rport == seg.src_port && s.local().1 == seg.dst_port
        });
        if let Some(sock) = found {
            sock.on_segment_view(seg, ecn, now);
            return;
        }
        self.dispatch_tcp_slow(i, hdr, seg, now);
    }

    /// Non-socket TCP traffic: the listener (SYN cache), the uIP
    /// socket, or the RST generator.
    fn dispatch_tcp_slow(
        &mut self,
        i: usize,
        hdr: &Ipv6Header,
        seg: SegmentView<'_>,
        now: Instant,
    ) {
        // Listener? All passive-open traffic goes through the bounded
        // SYN cache; the full socket exists only after the completing
        // ACK — and only if the TCP-buffer budget admits it.
        let listener_match = self.nodes[i]
            .transport
            .tcp_listener
            .as_ref()
            .is_some_and(|l| l.port() == seg.dst_port);
        if listener_match {
            let is_syn =
                seg.flags.contains(tcplp::Flags::SYN) && !seg.flags.contains(tcplp::Flags::ACK);
            // The iss is consumed only when a fresh SYN parks a cache
            // entry; drawing it unconditionally would burn an extra rng
            // value on the completing ACK and shift every later seeded
            // decision (loss, RED) in the world.
            let iss = if is_syn {
                self.rng.next_u64() as u32
            } else {
                0
            };
            let live = self.nodes[i]
                .transport
                .tcp
                .iter()
                .filter(|s| s.local().1 == seg.dst_port && s.state() != tcplp::TcpState::Closed)
                .count();
            let footprint = self.nodes[i]
                .transport
                .tcp_listener
                .as_ref()
                .map_or(0, |l| l.child_footprint());
            // A SYN whose eventual socket could never fit the budget is
            // denied before it costs even a cache slot.
            if is_syn
                && !self.nodes[i]
                    .governor
                    .would_fit(MemClass::TcpBuffers, footprint)
            {
                self.nodes[i].governor.note_deny(MemClass::TcpBuffers);
                self.nodes[i].counters.inc(NodeCounter::SynBudgetDrops);
                return;
            }
            let l = self.nodes[i].transport.tcp_listener.as_mut().unwrap();
            l.sync_backlog(live);
            let resp = l.on_segment_view(hdr.src, seg, iss, now);
            // Not listener business (stray ACK, RST) falls through to
            // the uIP socket or the RST generator.
            let handled = !matches!(resp, ListenerResponse::None);
            match resp {
                ListenerResponse::Reply(due) => {
                    let my_addr = self.nodes[i].ip_addr();
                    self.send_tcp(i, my_addr, due.peer, now, |n| {
                        n.transport.tcp_listener.as_ref().unwrap().synack(due, now)
                    });
                }
                ListenerResponse::Spawn(sock) => {
                    if self.nodes[i]
                        .governor
                        .try_admit(MemClass::TcpBuffers, footprint)
                    {
                        self.nodes[i].transport.tcp.push(*sock);
                        self.pump_transport(i, now);
                    } else {
                        // Budget raced shut between SYN and ACK: the
                        // socket dies unborn; the peer retries or
                        // times out.
                        self.nodes[i].counters.inc(NodeCounter::AcceptBudgetDrops);
                    }
                }
                ListenerResponse::None => {}
            }
            self.nodes[i].sync_governor();
            self.reschedule_transport_timer(i, now);
            if handled {
                return;
            }
        }
        // uIP socket?
        if let Some(u) = self.nodes[i].transport.uip.as_mut() {
            let (raddr, rport) = u.remote();
            if raddr == hdr.src && rport == seg.src_port && u.local().1 == seg.dst_port {
                u.on_segment(&seg.to_owned(), now);
                return;
            }
        }
        // No socket: RST.
        if let Some(rst) = tcplp::reset_for(&seg) {
            self.send_tcp(i, hdr.dst, hdr.src, now, |_| rst);
        }
    }

    /// Sends the TCP segment `build` makes from node `i`. Routing runs
    /// before the segment is built and admission before it is encoded,
    /// so a reply that can go nowhere (a SYN-ACK to a spoofed source)
    /// is never built and never takes a buffer.
    fn send_tcp(
        &mut self,
        i: usize,
        src: Ipv6Addr,
        dst: Ipv6Addr,
        now: Instant,
        build: impl FnOnce(&Node) -> Segment,
    ) {
        let Some(hop) = self.route(i, dst) else {
            return;
        };
        let seg = build(&self.nodes[i]);
        let len = seg.wire_len();
        if !self.admit(i, hop, len) {
            return;
        }
        let hdr = Ipv6Header::new(src, dst, NextHeader::Tcp, len as u16);
        let mut bytes = self.seg_bufs.take();
        seg.encode_into(src, dst, &mut bytes);
        self.push_ip(i, hop, hdr, bytes, now);
    }

    fn deliver_udp(&mut self, i: usize, hdr: &Ipv6Header, payload: &[u8], now: Instant) {
        let Some((udp, body)) = UdpHeader::decode_datagram(hdr.src, hdr.dst, payload) else {
            self.nodes[i].counters.inc(NodeCounter::UdpChecksumDrops);
            return;
        };
        if udp.dst_port == COAP_PORT {
            // Server side.
            let response = self.nodes[i]
                .transport
                .coap_server
                .as_mut()
                .and_then(|s| s.on_datagram_from(hdr.src, body, now));
            if let Some(resp) = response {
                let dg =
                    UdpHeader::encode_datagram(hdr.dst, hdr.src, COAP_PORT, udp.src_port, &resp);
                let out_hdr = Ipv6Header::new(hdr.dst, hdr.src, NextHeader::Udp, dg.len() as u16);
                self.enqueue_ip(i, out_hdr, dg, now);
            }
        } else if let Some(c) = self.nodes[i].transport.coap_client.as_mut() {
            c.on_datagram(body, now);
        }
    }

    /// Pumps every transport on node `i`: applications feed sockets,
    /// sockets emit segments, timers are rescheduled.
    pub fn pump_transport(&mut self, i: usize, now: Instant) {
        if self.nodes[i].down {
            return;
        }
        self.app_feed(i, now);
        // Drain sinks before polling sockets so window-update ACKs
        // (generated by `recv`) ride out in this pump.
        self.app_drain(i, now);
        // Advance TCP timers *before* supervision: a socket that dies
        // on this very tick (retransmit exhaustion, keepalive timeout)
        // must be seen by the supervisor in the same pump, or nothing
        // ever reschedules this node's transport timer again.
        for s in self.nodes[i].transport.tcp.iter_mut() {
            if s.poll_at().is_some_and(|t| t <= now) {
                s.on_timer(now);
            }
        }
        // Connection supervision: feed/track the supervised socket,
        // detect deaths, and install reconnect attempts.
        self.supervise(i, now);

        // TCP sockets. Segments encode (serialize + checksum in one
        // pass) into pooled buffers; the buffer returns to the pool
        // when the 6LoWPAN layer frames the packet, and each segment's
        // payload buffer goes back to its socket once encoded.
        let my_addr = self.nodes[i].ip_addr();
        let mut out = std::mem::take(&mut self.pumped);
        let bufs = &mut self.seg_bufs;
        for s in self.nodes[i].transport.tcp.iter_mut() {
            let ecn_data = s.ecn_active();
            while let Some(seg) = s.poll_transmit(now) {
                let ecn = if ecn_data && !seg.payload.is_empty() {
                    Ecn::Ect0
                } else {
                    Ecn::NotCapable
                };
                out.push(encode_segment(bufs, &seg, my_addr, s.remote().0, ecn));
                s.recycle(seg);
            }
        }
        // Listener: SYN-ACK retransmissions and half-open expiry. A
        // SYN-ACK is built only for a peer with a route (`enqueue_ip`
        // below looks the route up again).
        while let Some(due) = self.nodes[i]
            .transport
            .tcp_listener
            .as_mut()
            .and_then(|l| l.poll_transmit(now))
        {
            if self.route(i, due.peer).is_some() {
                let l = self.nodes[i].transport.tcp_listener.as_ref().unwrap();
                out.push(encode_segment(
                    &mut self.seg_bufs,
                    &l.synack(due, now),
                    my_addr,
                    due.peer,
                    Ecn::NotCapable,
                ));
            }
        }
        // Reassembly: reclaim stale partial datagrams on the timer path.
        self.nodes[i].reassembler.reclaim(now);
        // uIP socket.
        let bufs = &mut self.seg_bufs;
        if let Some(u) = self.nodes[i].transport.uip.as_mut() {
            if u.poll_at().is_some_and(|t| t <= now) {
                u.on_timer(now);
            }
            while let Some(seg) = u.poll_transmit(now) {
                let raddr = u.remote().0;
                out.push(encode_segment(bufs, &seg, my_addr, raddr, Ecn::NotCapable));
            }
        }
        // CoAP client: a due retransmission first, then new messages.
        if self.nodes[i].transport.coap_client.is_some() {
            let cloud_addr = self.cloud.map(|c| self.nodes[c].ip_addr());
            let c = self.nodes[i].transport.coap_client.as_mut().unwrap();
            let due = c.poll_at().is_some_and(|t| t <= now);
            let retransmit = if due { c.on_timer(now) } else { None };
            let rng = &mut self.rng;
            let fresh = std::iter::from_fn(|| c.poll_transmit(now, rng));
            for msg in retransmit.into_iter().chain(fresh) {
                if let Some(dst) = cloud_addr {
                    let dg = UdpHeader::encode_datagram(my_addr, dst, 49001, COAP_PORT, &msg);
                    let hdr = Ipv6Header::new(my_addr, dst, NextHeader::Udp, dg.len() as u16);
                    out.push((hdr, dg));
                }
            }
        }
        for (hdr, bytes) in out.drain(..) {
            self.enqueue_ip(i, hdr, bytes, now);
        }
        self.pumped = out;
        self.nodes[i].sync_governor();
        self.reschedule_transport_timer(i, now);
        self.kick_mac(i, now);
        // Sleepy leaves expecting a response poll fast (§9.2).
        self.adjust_fast_poll(i, now);
        self.maybe_sleep(i, now);
    }

    /// Runs the node's connection supervisor (if any): one poll step,
    /// with lifecycle transitions logged to the trace. Its counters stay
    /// in its own [`SupervisorStats`](crate::supervisor::SupervisorStats)
    /// (see [`World::supervisor_stats`]).
    fn supervise(&mut self, i: usize, now: Instant) {
        let Some(mut sup) = self.nodes[i].supervisor.take() else {
            return;
        };
        let res = sup.poll(self.nodes[i].transport.tcp.first_mut(), now);
        if res.died {
            self.trace.record(
                now,
                self.nodes[i].id,
                TraceDir::Drop,
                "supervisor: connection died",
            );
        }
        if res.reconnected {
            self.trace.record(
                now,
                self.nodes[i].id,
                TraceDir::Deliver,
                "supervisor: reconnected",
            );
        }
        if let Some(sock) = res.replace {
            let tcp = &mut self.nodes[i].transport.tcp;
            if tcp.is_empty() {
                tcp.push(sock);
            } else {
                tcp[0] = sock;
            }
        }
        self.nodes[i].supervisor = Some(sup);
    }

    pub(super) fn reschedule_transport_timer(&mut self, i: usize, now: Instant) {
        let n = &self.nodes[i];
        let t = &n.transport;
        let next = t
            .tcp
            .iter()
            .filter_map(TcpSocket::poll_at)
            .chain(t.uip.as_ref().and_then(lln_uip::UipSocket::poll_at))
            .chain(t.coap_client.as_ref().and_then(CoapClient::poll_at))
            .chain(
                n.supervisor
                    .as_ref()
                    .and_then(SupervisedConnection::wake_at),
            )
            .chain(
                t.tcp_listener
                    .as_ref()
                    .and_then(tcplp::ListenSocket::poll_at),
            )
            .min();
        // Reassembly expiry is deliberately NOT a wakeup source: stale
        // partials are reclaimed lazily on the next inbound frame
        // (`Reassembler::offer` expires first) and on every transport
        // pump, which keeps the event schedule — and hence seeded
        // trajectories — identical to a build without the reassembler.
        if let Some(tok) = self.nodes[i].transport_timer.take() {
            self.queue.cancel(tok);
        }
        if let Some(t) = next {
            let tok = self.queue.schedule(t.max(now), Event::TransportTimer(i));
            self.nodes[i].transport_timer = Some(tok);
        }
    }

    // ------------------------------------------------------------------
    // Applications
    // ------------------------------------------------------------------

    /// Feed phase: sources push data into their sockets.
    fn app_feed(&mut self, i: usize, _now: Instant) {
        let node = &mut self.nodes[i];
        match &mut node.app {
            // Supervised bulk sender: chunk the byte stream into
            // records and hand them to the supervisor, which retains
            // them until acknowledged (backpressure via `can_accept`).
            App::BulkSender {
                limit,
                sent,
                pattern,
            } if node.supervisor.is_some() => {
                let sup = node.supervisor.as_mut().expect("guarded");
                const RECORD_PAYLOAD: usize = 454;
                loop {
                    let want = match limit {
                        Some(l) => ((*l - *sent) as usize).min(RECORD_PAYLOAD),
                        None => RECORD_PAYLOAD,
                    };
                    if want == 0 || !sup.can_accept(want) {
                        break;
                    }
                    let mut chunk = [0u8; RECORD_PAYLOAD];
                    fill_pattern(&mut chunk[..want], *pattern);
                    sup.submit(&chunk[..want]);
                    *sent += want as u64;
                    *pattern = pattern.wrapping_add(want as u8);
                }
            }
            // Supervised anemometer: each reading is one record; the
            // supervisor's retention buffer is the flash queue, so
            // readings survive reboots and replay after reconnects.
            App::Anemometer(app)
                if node.supervisor.is_some() && app.draining_allowed(app.draining) =>
            {
                app.draining = true;
                let sup = node.supervisor.as_mut().expect("guarded");
                while !app.queue.is_empty() && sup.can_accept(READING_BYTES) {
                    let r = app.pop_reading().expect("non-empty");
                    sup.submit(&r);
                }
                if app.queue.is_empty() {
                    app.draining = false;
                }
            }
            App::BulkSender {
                limit,
                sent,
                pattern,
            } => {
                if let Some(sock) = node.transport.tcp.first_mut() {
                    let room = sock.send_capacity();
                    let want = match limit {
                        Some(l) => (*l - *sent).min(room as u64) as usize,
                        None => room,
                    };
                    // The stream goes in through a stack chunk, one
                    // piece at a time; `send` only appends to the send
                    // buffer, so the pieces land exactly as one write.
                    let mut chunk = [0u8; 256];
                    let mut n = 0;
                    while n < want {
                        let k = (want - n).min(chunk.len());
                        fill_pattern(&mut chunk[..k], pattern.wrapping_add(n as u8));
                        let took = sock.send(&chunk[..k]);
                        n += took;
                        if took < k {
                            break;
                        }
                    }
                    *sent += n as u64;
                    *pattern = pattern.wrapping_add(n as u8);
                }
                if let Some(u) = node.transport.uip.as_mut() {
                    let chunk = [0x5au8; 256];
                    let mut pushed = u.send(&chunk);
                    while pushed > 0 {
                        if let Some(l) = limit {
                            *sent += pushed as u64;
                            if *sent >= *l {
                                break;
                            }
                        }
                        pushed = u.send(&chunk);
                    }
                }
            }
            App::Anemometer(app) if app.draining_allowed(app.draining) => {
                app.draining = true;
                // TCP path: push readings into the stream.
                if let Some(sock) = node.transport.tcp.first_mut() {
                    while sock.send_capacity() >= READING_BYTES {
                        let Some(r) = app.pop_reading() else { break };
                        sock.send(&r);
                    }
                }
                // CoAP path: pack ~5 readings per message (five
                // frames, like TCP segments, §9.3).
                if let Some(c) = node.transport.coap_client.as_mut() {
                    let per_msg = if app.batch.is_some() { 5 } else { 1 };
                    while app.queue.len() >= per_msg
                        || (!app.queue.is_empty() && app.batch.is_none())
                    {
                        if c.backlog() >= 24 {
                            break;
                        }
                        let mut payload = Vec::new();
                        for _ in 0..per_msg.min(app.queue.len()) {
                            payload.extend_from_slice(&app.pop_reading().unwrap());
                        }
                        let more = !app.queue.is_empty();
                        let n = (app.submitted / per_msg as u64) as u32;
                        c.post_block(payload, n, more);
                    }
                }
                if app.queue.is_empty() {
                    app.draining = false;
                }
            }
            _ => {}
        }
    }

    /// Drain phase: sinks consume delivered data.
    fn app_drain(&mut self, i: usize, now: Instant) {
        let node = &mut self.nodes[i];
        if let App::Sink {
            received,
            first_byte,
            last_byte,
            capture,
        } = &mut node.app
        {
            let mut buf = [0u8; 2048];
            for s in node.transport.tcp.iter_mut() {
                loop {
                    let n = s.recv(&mut buf);
                    if n == 0 {
                        break;
                    }
                    *received += n as u64;
                    if first_byte.is_none() {
                        *first_byte = Some(now);
                    }
                    *last_byte = Some(now);
                    if let Some(cap) = capture.as_mut() {
                        // Keyed by remote endpoint: one entry per TCP
                        // connection (reconnects use fresh ports).
                        let key = s.remote();
                        match cap.iter_mut().find(|(k, _)| *k == key) {
                            Some((_, bytes)) => bytes.extend_from_slice(&buf[..n]),
                            None => cap.push((key, buf[..n].to_vec())),
                        }
                    }
                }
            }
        }
    }

    pub(super) fn on_app_tick(&mut self, i: usize, now: Instant) {
        let interval = if let App::Anemometer(app) = &mut self.nodes[i].app {
            app.generate_reading();
            Some(app.interval)
        } else {
            None
        };
        if let Some(iv) = interval {
            self.queue.schedule(now + iv, Event::AppTick(i));
        }
        self.pump_transport(i, now);
    }
}

/// Encodes `seg` from `src` to `dst` into a buffer from `bufs` (one pass
/// that also sums the checksum) and returns it with its IPv6 header.
fn encode_segment(
    bufs: &mut BufPool,
    seg: &Segment,
    src: Ipv6Addr,
    dst: Ipv6Addr,
    ecn: Ecn,
) -> (Ipv6Header, Vec<u8>) {
    let mut hdr = Ipv6Header::new(src, dst, NextHeader::Tcp, seg.wire_len() as u16);
    hdr.ecn = ecn;
    let mut bytes = bufs.take();
    seg.encode_into(src, dst, &mut bytes);
    (hdr, bytes)
}

/// Fills `buf` with the bulk sender's byte pattern: consecutive byte
/// values (wrapping) starting at `start`.
fn fill_pattern(buf: &mut [u8], start: u8) {
    let mut b = start;
    for slot in buf {
        *slot = b;
        b = b.wrapping_add(1);
    }
}
