//! `lln-uip` — a uIP/BLIP-class simplified TCP, the baseline of the
//! paper's Table 7.
//!
//! Early embedded stacks (uIP in Contiki, BLIP's TCP in TinyOS) kept
//! TCP viable on 8/16-bit MCUs by discarding most of the protocol:
//! **one** outstanding (unACKed) segment per connection, no congestion
//! control, no out-of-order reassembly, no SACK, no delayed ACKs, no
//! timestamps, and a coarse periodic retransmission timer. The result
//! is effectively stop-and-wait: goodput is bounded by MSS/RTT, which
//! is why Table 7 shows 1.5-15 kb/s for these stacks against TCPlp's
//! 75 kb/s.
//!
//! This implementation speaks the same wire format as `tcplp` (it is a
//! real TCP, just feature-starved), so it interoperates with TCPlp
//! endpoints over the simulated network — exactly the configuration
//! used to regenerate Table 7.

use lln_netip::Ipv6Addr;
use lln_sim::{Duration, Instant};
use tcplp::wire::{Flags, Segment};
use tcplp::TcpSeq;

/// Initial/retransmission timeout (uIP: 3 s, doubling).
pub const INITIAL_RTO: Duration = Duration::from_secs(3);
/// Maximum retransmissions before aborting (uIP: 8).
pub const MAX_RETRANSMITS: u32 = 8;

/// Configuration for the simplified stack.
#[derive(Clone, Debug)]
pub struct UipConfig {
    /// Maximum segment size. uIP's default is one frame of payload
    /// (Table 7 row: "1 Frame"); the stacks of the paper's reference \[50\] use up to 4 frames.
    /// The receive buffer is one segment of this size — no reassembly
    /// beyond it.
    pub mss: usize,
}

impl Default for UipConfig {
    fn default() -> Self {
        UipConfig {
            // One 802.15.4 frame of TCP payload after all headers: the
            // paper's uIP rows use ~50-80 B; we use 78 B (104 B MAC
            // payload - 4 B 6LoWPAN/IPHC - 22 B TCP header headroom).
            mss: 78,
        }
    }
}

/// Connection states (subset of RFC 793 that uIP implements).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum UipState {
    /// No connection.
    Closed,
    /// SYN sent, awaiting SYN-ACK.
    SynSent,
    /// Data transfer.
    Established,
    /// FIN sent.
    FinWait,
    /// Peer closed.
    CloseWait,
    /// Our FIN after CloseWait.
    LastAck,
}

/// A uIP-style socket: at most one segment in flight.
#[derive(Clone, Debug)]
pub struct UipSocket {
    cfg: UipConfig,
    state: UipState,
    local_addr: Ipv6Addr,
    local_port: u16,
    remote_addr: Ipv6Addr,
    remote_port: u16,
    iss: TcpSeq,
    snd_una: TcpSeq,
    snd_nxt: TcpSeq,
    rcv_nxt: TcpSeq,
    snd_mss: usize,
    /// The single in-flight segment's payload (for retransmission).
    inflight: Option<Vec<u8>>,
    /// Application data waiting to become the next segment.
    pending: Vec<u8>,
    /// Received in-order data awaiting the application.
    rx: Vec<u8>,
    fin_queued: bool,
    fin_sent: bool,
    rto: Duration,
    rexmit_deadline: Option<Instant>,
    retries: u32,
    ack_now: bool,
    send_syn: bool,
    /// RTT estimate with uIP's coarse granularity.
    srtt: Option<Duration>,
    timed: Option<(TcpSeq, Instant)>,
    /// Statistics (subset of TCPlp's, for Table 7 and Figure 9 rows).
    pub segs_sent: u64,
    /// Retransmissions performed.
    pub retransmissions: u64,
    /// Stream bytes delivered in order.
    pub bytes_rcvd: u64,
}

impl UipSocket {
    /// Creates a closed socket.
    pub fn new(cfg: UipConfig, local_addr: Ipv6Addr, local_port: u16) -> Self {
        UipSocket {
            cfg,
            state: UipState::Closed,
            local_addr,
            local_port,
            remote_addr: Ipv6Addr::UNSPECIFIED,
            remote_port: 0,
            iss: TcpSeq(0),
            snd_una: TcpSeq(0),
            snd_nxt: TcpSeq(0),
            rcv_nxt: TcpSeq(0),
            snd_mss: 0,
            inflight: None,
            pending: Vec::new(),
            rx: Vec::new(),
            fin_queued: false,
            fin_sent: false,
            rto: INITIAL_RTO,
            rexmit_deadline: None,
            retries: 0,
            ack_now: false,
            send_syn: false,
            srtt: None,
            timed: None,
            segs_sent: 0,
            retransmissions: 0,
            bytes_rcvd: 0,
        }
    }

    /// Connection state.
    pub fn state(&self) -> UipState {
        self.state
    }

    /// Local endpoint.
    pub fn local(&self) -> (Ipv6Addr, u16) {
        (self.local_addr, self.local_port)
    }

    /// Remote endpoint.
    pub fn remote(&self) -> (Ipv6Addr, u16) {
        (self.remote_addr, self.remote_port)
    }

    /// Active open.
    pub fn connect(&mut self, remote_addr: Ipv6Addr, remote_port: u16, iss: u32, now: Instant) {
        assert_eq!(self.state, UipState::Closed);
        self.remote_addr = remote_addr;
        self.remote_port = remote_port;
        self.iss = TcpSeq(iss);
        self.snd_una = self.iss;
        self.snd_nxt = self.iss;
        self.snd_mss = self.cfg.mss;
        self.state = UipState::SynSent;
        self.send_syn = true;
        self.rexmit_deadline = Some(now + self.rto);
    }

    /// Queues application data (accepted only up to one segment beyond
    /// what is in flight — uIP applications regenerate data on demand).
    pub fn send(&mut self, data: &[u8]) -> usize {
        if !matches!(self.state, UipState::Established | UipState::CloseWait) {
            return 0;
        }
        let room = (2 * self.snd_mss).saturating_sub(self.pending.len());
        let n = data.len().min(room);
        self.pending.extend_from_slice(&data[..n]);
        n
    }

    /// Reads delivered data.
    pub fn recv(&mut self, out: &mut [u8]) -> usize {
        let n = out.len().min(self.rx.len());
        out[..n].copy_from_slice(&self.rx[..n]);
        self.rx.drain(..n);
        n
    }

    /// Initiates close.
    pub fn close(&mut self) {
        match self.state {
            UipState::Established => {
                self.fin_queued = true;
                self.state = UipState::FinWait;
            }
            UipState::CloseWait => {
                self.fin_queued = true;
                self.state = UipState::LastAck;
            }
            UipState::SynSent | UipState::Closed => self.state = UipState::Closed,
            _ => {}
        }
    }

    /// Earliest timer deadline.
    pub fn poll_at(&self) -> Option<Instant> {
        self.rexmit_deadline
    }

    /// Fires expired timers.
    pub fn on_timer(&mut self, now: Instant) {
        let Some(d) = self.rexmit_deadline else {
            return;
        };
        if now < d {
            return;
        }
        self.retries += 1;
        if self.retries > MAX_RETRANSMITS {
            self.state = UipState::Closed;
            self.rexmit_deadline = None;
            return;
        }
        self.retransmissions += 1;
        self.rto = (self.rto * 2).min(Duration::from_secs(48));
        // Karn: a retransmitted segment is not timed.
        self.timed = None;
        // Re-arm: the retransmission happens on the next poll.
        match self.state {
            UipState::SynSent => self.send_syn = true,
            _ => {
                // Data/FIN retransmission: rewind snd_nxt.
                self.snd_nxt = self.snd_una;
                if self.fin_sent {
                    self.fin_sent = false;
                }
            }
        }
        self.rexmit_deadline = Some(now + self.rto);
    }

    /// Processes an incoming segment.
    pub fn on_segment(&mut self, seg: &Segment, now: Instant) {
        match self.state {
            UipState::Closed => {}
            UipState::SynSent => {
                if seg.flags.contains(Flags::RST) {
                    self.state = UipState::Closed;
                    return;
                }
                if seg.flags.contains(Flags::SYN) && seg.flags.contains(Flags::ACK) {
                    if seg.ack != self.iss + 1 {
                        return;
                    }
                    if let Some(m) = seg.mss {
                        self.snd_mss = self.cfg.mss.min(usize::from(m));
                    }
                    self.rcv_nxt = seg.seq + 1;
                    self.snd_una = seg.ack;
                    self.snd_nxt = seg.ack;
                    self.state = UipState::Established;
                    self.retries = 0;
                    self.rto = INITIAL_RTO;
                    self.rexmit_deadline = None;
                    self.ack_now = true;
                }
            }
            _ => self.input_established(seg, now),
        }
    }

    fn input_established(&mut self, seg: &Segment, now: Instant) {
        if seg.flags.contains(Flags::RST) {
            self.state = UipState::Closed;
            return;
        }
        if seg.flags.contains(Flags::ACK) && seg.ack.gt(self.snd_una) {
            // New ACK. uIP's RTT estimate: coarse Jacobson on timed seg.
            if let Some((timed_seq, at)) = self.timed {
                if seg.ack.gt(timed_seq) {
                    let sample = now.saturating_duration_since(at);
                    self.srtt = Some(match self.srtt {
                        None => sample,
                        Some(s) => (s * 7 + sample) / 8,
                    });
                    self.timed = None;
                }
            }
            let acked = seg.ack.distance_from(self.snd_una) as usize;
            let data_acked = acked.min(self.inflight.as_ref().map_or(0, Vec::len));
            if data_acked > 0 {
                self.inflight = None;
            }
            self.snd_una = seg.ack;
            if self.snd_nxt.lt(self.snd_una) {
                self.snd_nxt = self.snd_una;
            }
            self.retries = 0;
            self.rto = self
                .srtt
                .map_or(INITIAL_RTO, |s| (s * 2).max(Duration::from_millis(500)));
            self.rexmit_deadline = if self.snd_una == self.snd_nxt {
                None
            } else {
                Some(now + self.rto)
            };
            if self.fin_sent && self.snd_una == self.snd_nxt {
                match self.state {
                    UipState::FinWait => { /* await peer FIN */ }
                    UipState::LastAck => self.state = UipState::Closed,
                    _ => {}
                }
            }
        }
        // Data: strict in-order only; anything else is dropped and
        // re-ACKed (no reassembly queue — the uIP limitation).
        if !seg.payload.is_empty() {
            if seg.seq == self.rcv_nxt && self.rx.len() + seg.payload.len() <= self.cfg.mss * 4 {
                self.rx.extend_from_slice(&seg.payload);
                self.rcv_nxt += seg.payload.len() as u32;
                self.bytes_rcvd += seg.payload.len() as u64;
            }
            self.ack_now = true;
        }
        if seg.flags.contains(Flags::FIN) && seg.seq + seg.payload.len() as u32 == self.rcv_nxt {
            self.rcv_nxt += 1;
            self.ack_now = true;
            match self.state {
                UipState::Established => self.state = UipState::CloseWait,
                UipState::FinWait => self.state = UipState::Closed,
                _ => {}
            }
        }
    }

    /// Produces the next segment to send, if any.
    pub fn poll_transmit(&mut self, now: Instant) -> Option<Segment> {
        if self.send_syn {
            self.send_syn = false;
            let mut seg = Segment::new(
                self.local_port,
                self.remote_port,
                self.iss,
                TcpSeq(0),
                Flags::SYN,
            );
            seg.mss = Some(self.cfg.mss as u16);
            seg.window = self.cfg.mss as u16;
            self.snd_nxt = self.iss + 1;
            self.segs_sent += 1;
            if self.rexmit_deadline.is_none() {
                self.rexmit_deadline = Some(now + self.rto);
            }
            return Some(seg);
        }
        if !matches!(
            self.state,
            UipState::Established | UipState::FinWait | UipState::CloseWait | UipState::LastAck
        ) {
            return None;
        }
        // Retransmission (snd_nxt rewound) or fresh data — but only one
        // segment outstanding, ever.
        if self.snd_nxt == self.snd_una {
            if let Some(ref data) = self.inflight {
                // Retransmit the in-flight segment.
                let mut seg = Segment::new(
                    self.local_port,
                    self.remote_port,
                    self.snd_una,
                    self.rcv_nxt,
                    Flags::ACK | Flags::PSH,
                );
                seg.window = self.window();
                seg.payload = data.clone();
                self.snd_nxt = self.snd_una + data.len() as u32;
                self.segs_sent += 1;
                self.ack_now = false;
                if self.rexmit_deadline.is_none() {
                    self.rexmit_deadline = Some(now + self.rto);
                }
                return Some(seg);
            }
            if !self.pending.is_empty() {
                let n = self.pending.len().min(self.snd_mss);
                let payload: Vec<u8> = self.pending.drain(..n).collect();
                let mut seg = Segment::new(
                    self.local_port,
                    self.remote_port,
                    self.snd_nxt,
                    self.rcv_nxt,
                    Flags::ACK | Flags::PSH,
                );
                seg.window = self.window();
                seg.payload = payload.clone();
                self.inflight = Some(payload);
                self.snd_nxt += n as u32;
                self.segs_sent += 1;
                self.ack_now = false;
                self.timed = Some((self.snd_una, now));
                self.rexmit_deadline = Some(now + self.rto);
                return Some(seg);
            }
            if self.fin_queued && !self.fin_sent {
                let mut seg = Segment::new(
                    self.local_port,
                    self.remote_port,
                    self.snd_nxt,
                    self.rcv_nxt,
                    Flags::FIN | Flags::ACK,
                );
                seg.window = self.window();
                self.snd_nxt += 1;
                self.fin_sent = true;
                self.segs_sent += 1;
                self.ack_now = false;
                self.rexmit_deadline = Some(now + self.rto);
                return Some(seg);
            }
        }
        if self.ack_now {
            self.ack_now = false;
            let mut seg = Segment::new(
                self.local_port,
                self.remote_port,
                self.snd_nxt,
                self.rcv_nxt,
                Flags::ACK,
            );
            seg.window = self.window();
            self.segs_sent += 1;
            return Some(seg);
        }
        None
    }

    fn window(&self) -> u16 {
        (self.cfg.mss * 4).saturating_sub(self.rx.len()).min(65535) as u16
    }

    /// Smoothed RTT estimate.
    pub fn srtt(&self) -> Option<Duration> {
        self.srtt
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lln_netip::{Ecn, NodeId};
    use tcplp::{ListenSocket, TcpConfig, TcpState};

    /// Drives a uIP client against a TCPlp server over a perfect,
    /// zero-latency pipe (interop check).
    fn establish() -> (UipSocket, tcplp::TcpSocket) {
        let a_addr = NodeId(1).mesh_addr();
        let b_addr = NodeId(2).mesh_addr();
        let mut c = UipSocket::new(UipConfig::default(), a_addr, 1000);
        let mut listener = ListenSocket::new(
            TcpConfig::default(),
            b_addr,
            80,
            &tcplp::NodeBudget::default(),
        );
        let t = Instant::ZERO;
        c.connect(b_addr, 80, 100, t);
        let syn = c.poll_transmit(t).expect("syn");
        let due = listener
            .on_segment(a_addr, &syn, 200, t)
            .into_reply()
            .expect("SYN-ACK from the cache");
        let synack = listener.synack(due, t);
        c.on_segment(&synack, t);
        assert_eq!(c.state(), UipState::Established);
        let ack = c.poll_transmit(t).expect("ack");
        let s = listener
            .on_segment(a_addr, &ack, 0, t)
            .into_spawn()
            .expect("accept");
        assert_eq!(s.state(), TcpState::Established);
        (c, s)
    }

    fn pump(c: &mut UipSocket, s: &mut tcplp::TcpSocket, t: Instant) {
        for _ in 0..20 {
            let mut quiet = true;
            // Fire any expired timers (notably the server's delayed-ACK
            // timer) before polling for output.
            if s.poll_at().is_some_and(|d| d <= t) {
                s.on_timer(t);
            }
            if c.poll_at().is_some_and(|d| d <= t) {
                c.on_timer(t);
            }
            while let Some(seg) = c.poll_transmit(t) {
                s.on_segment_view(seg.view(), Ecn::NotCapable, t);
                quiet = false;
            }
            while let Some(seg) = s.poll_transmit(t) {
                c.on_segment(&seg, t);
                quiet = false;
            }
            if quiet {
                break;
            }
        }
    }

    #[test]
    fn interop_handshake_with_tcplp() {
        let (c, s) = establish();
        assert_eq!(c.state(), UipState::Established);
        assert_eq!(s.state(), TcpState::Established);
    }

    #[test]
    fn stop_and_wait_single_segment_in_flight() {
        let (mut c, mut _s) = establish();
        let t = Instant::from_millis(10);
        let data = vec![7u8; 500];
        let accepted = c.send(&data);
        assert!(accepted <= 2 * 78, "uIP queues at most ~2 MSS");
        let first = c.poll_transmit(t).expect("first segment");
        assert!(first.payload.len() <= 78);
        // No second data segment until the first is ACKed.
        let second = c.poll_transmit(t);
        assert!(
            second.is_none(),
            "stop-and-wait: got {:?}",
            second.map(|s| s.payload.len())
        );
    }

    #[test]
    fn transfer_to_tcplp_server() {
        let (mut c, mut s) = establish();
        let mut t = Instant::from_millis(10);
        let data: Vec<u8> = (0..400u32).map(|i| (i % 256) as u8).collect();
        let mut sent = 0;
        let mut got = Vec::new();
        for _ in 0..100 {
            sent += c.send(&data[sent..]);
            pump(&mut c, &mut s, t);
            let mut buf = [0u8; 256];
            loop {
                let n = s.recv(&mut buf);
                if n == 0 {
                    break;
                }
                got.extend_from_slice(&buf[..n]);
            }
            t += Duration::from_millis(50);
            if got.len() == data.len() {
                break;
            }
        }
        assert_eq!(got, data);
    }

    #[test]
    fn retransmission_after_loss() {
        let (mut c, mut s) = establish();
        let mut t = Instant::from_millis(10);
        c.send(&[1u8; 78]);
        let seg = c.poll_transmit(t).expect("data");
        // Lose it; fire the RTO.
        t += Duration::from_secs(4);
        c.on_timer(t);
        let rexmit = c.poll_transmit(t).expect("retransmission");
        assert_eq!(rexmit.payload, seg.payload);
        assert_eq!(rexmit.seq, seg.seq);
        assert_eq!(c.retransmissions, 1);
        // Deliver and confirm the ACK clears the in-flight slot.
        s.on_segment_view(rexmit.view(), Ecn::NotCapable, t);
        pump(&mut c, &mut s, t);
        assert!(c.poll_transmit(t).is_none());
    }

    #[test]
    fn out_of_order_data_dropped() {
        let (mut c, _s) = establish();
        let t = Instant::from_millis(10);
        // Craft an out-of-order data segment (seq ahead by 10).
        let mut seg = Segment::new(80, 1000, c.rcv_nxt + 10, c.snd_nxt, Flags::ACK | Flags::PSH);
        seg.payload = vec![9u8; 20];
        c.on_segment(&seg, t);
        let mut buf = [0u8; 64];
        assert_eq!(c.recv(&mut buf), 0, "no reassembly: OOO data dropped");
        // But it still triggers a (duplicate) ACK.
        let ack = c.poll_transmit(t).expect("dup ack");
        assert_eq!(ack.ack, c.rcv_nxt);
    }

    #[test]
    fn gives_up_after_max_retransmits() {
        let (mut c, _s) = establish();
        let mut t = Instant::from_millis(10);
        c.send(&[1u8; 10]);
        c.poll_transmit(t);
        for _ in 0..9 {
            t += Duration::from_secs(100);
            c.on_timer(t);
            let _ = c.poll_transmit(t);
        }
        assert_eq!(c.state(), UipState::Closed);
    }

    #[test]
    fn orderly_close_against_tcplp() {
        let (mut c, mut s) = establish();
        let t = Instant::from_millis(10);
        c.close();
        pump(&mut c, &mut s, t);
        assert!(matches!(s.state(), TcpState::CloseWait));
        s.close();
        pump(&mut c, &mut s, t);
        assert_eq!(c.state(), UipState::Closed);
    }
}
