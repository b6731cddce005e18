//! The TCPlp connection state machine.
//!
//! This is a sans-IO port of the FreeBSD-derived protocol logic the
//! paper describes (§4.1): the socket consumes decoded [`Segment`]s and
//! a caller-supplied clock, and produces segments via
//! [`TcpSocket::poll_transmit`]. It implements:
//!
//! - the full RFC 9293 state machine (active/passive open, simultaneous
//!   open, orderly and simultaneous close, TIME_WAIT),
//! - sliding-window send/receive over the fixed-size buffers of §4.3,
//!   including the in-place reassembly queue,
//! - New Reno congestion control with fast retransmit/fast recovery
//!   (RFC 5681/6582) and SACK-based recovery (RFC 2018),
//! - RTT estimation with the timestamp option (RFC 7323, incl. PAWS)
//!   and Karn's algorithm as fallback,
//! - delayed ACKs, zero-window probes (persist timer), challenge ACKs
//!   (RFC 5961), header prediction (FreeBSD's fast path), and optional
//!   ECN (RFC 3168) for the RED/ECN experiments of Appendix A.
//!
//! Input and output are both staged. On input, [`classify`] decides
//! from the segment and the socket's [`Tcb`] alone whether a segment is
//! dropped, acknowledged, challenged, reset or accepted (header
//! prediction is a shortcut inside it), and every accepted segment takes
//! one step sequence (`TcpSocket::step`). On output, `TcpSocket::plan`
//! reads the socket, writes nothing and names the next segment's kind
//! (`Tx`) by a fixed priority list; `TcpSocket::emit` builds it and
//! applies its effects. The five timers share one table, which
//! [`TcpSocket::on_timer`] fires in the order TIME-WAIT, delayed ACK,
//! persist, keepalive, retransmission.
//!
//! Omitted, as in the paper: window scaling, urgent pointer, TCP-MD5.
//! Passive opens go through a bounded RFC 4987-style SYN cache in
//! [`ListenSocket`](crate::listen::ListenSocket), so a SYN flood costs
//! slots and bytes the node has explicitly budgeted — never a full
//! socket per forged SYN.

use crate::cc::{CcAction, NewReno};
use crate::config::TcpConfig;
use crate::input::{classify, ts_lt, Predicted, Tcb, Verdict};
use crate::recvbuf::RecvBuffer;
use crate::rtt::RttEstimator;
use crate::sack::SackScoreboard;
use crate::sendbuf::SendBuffer;
use crate::seq::TcpSeq;
use crate::stats::{CwndTrace, RttTrace, TcpStats};
use crate::wire::{Flags, SackBlock, Segment, SegmentView, Timestamps, MAX_SACK_BLOCKS};
use lln_netip::{Ecn, Ipv6Addr};
use lln_sim::{Duration, Instant};

/// Delayed-ACK timeout (DESIGN.md §5).
pub const DELACK_TIMEOUT: Duration = Duration::from_millis(100);
/// Base interval of zero-window probes (persist timer), doubling per probe.
pub const PERSIST_BASE: Duration = Duration::from_millis(500);
/// TIME_WAIT duration (2×MSL, shortened for simulation).
pub const TIME_WAIT: Duration = Duration::from_secs(2);
/// RFC 5961 §5: challenge ACKs sent per [`CHALLENGE_ACK_WINDOW`] at most,
/// bounding the ACK-reflection work a forged RST/SYN flood can induce
/// (DESIGN.md §9).
pub const CHALLENGE_ACK_LIMIT: u32 = 10;
/// The window over which the challenge-ACK budget refills.
pub const CHALLENGE_ACK_WINDOW: Duration = Duration::from_secs(1);

/// TCP connection states (RFC 793).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum TcpState {
    /// No connection.
    #[default]
    Closed,
    /// Active open in progress; SYN sent or queued.
    SynSent,
    /// Passive/simultaneous open; SYN received, SYN-ACK in flight.
    SynReceived,
    /// Data transfer.
    Established,
    /// We closed first; FIN in flight.
    FinWait1,
    /// Our FIN acked; awaiting peer FIN.
    FinWait2,
    /// Peer closed first; we may still send.
    CloseWait,
    /// Both closed simultaneously; awaiting FIN ack.
    Closing,
    /// We closed after CloseWait; FIN in flight.
    LastAck,
    /// Connection done; lingering to absorb stray segments.
    TimeWait,
}

/// Why a connection reached `Closed`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CloseReason {
    /// Normal close handshake completed.
    Normal,
    /// Peer sent RST.
    Reset,
    /// Retransmission limit exceeded (the paper's 12-retry bound, §9.4).
    TooManyRetransmits,
    /// Keepalive probes went unanswered.
    KeepaliveTimeout,
    /// Zero-window probes went unanswered past the retransmission
    /// limit: the peer (or a forger speaking for it) advertised a
    /// closed window and never reopened it. Dying here turns a silent
    /// persist-forever stall into a supervisable failure.
    PersistTimeout,
    /// Locally aborted.
    Aborted,
}

impl CloseReason {
    /// True for reasons that indicate an unexpected connection death —
    /// the signal a connection supervisor uses to decide whether to
    /// reconnect (as opposed to a deliberate local/remote close).
    pub fn is_failure(self) -> bool {
        matches!(
            self,
            CloseReason::Reset
                | CloseReason::TooManyRetransmits
                | CloseReason::KeepaliveTimeout
                | CloseReason::PersistTimeout
        )
    }
}

/// A full-scale TCP endpoint.
#[derive(Clone, Debug)]
pub struct TcpSocket {
    cfg: TcpConfig,
    /// The RFC 9293 variables [`classify`] reads.
    tcb: Tcb,
    close_reason: Option<CloseReason>,

    local_addr: Ipv6Addr,
    local_port: u16,
    remote_addr: Ipv6Addr,
    remote_port: u16,

    sndbuf: SendBuffer,
    /// Payload buffer lent to the last emitted data segment; the stack
    /// hands it back through [`TcpSocket::recycle`] once encoded.
    tx_payload: Vec<u8>,
    /// SACK-block list lent to the last emitted ACK, handed back the
    /// same way as `tx_payload`.
    tx_sack_blocks: Vec<SackBlock>,
    snd_mss: usize,
    fin_queued: bool,
    /// Sequence number consumed by our FIN, once transmitted.
    fin_seq: Option<TcpSeq>,

    rcvbuf: RecvBuffer,
    fin_received: bool,
    /// RFC 7323's Last.ACK.sent.
    last_ack_sent: TcpSeq,

    // --- ECN signalling state ---
    ecn_send_ece: bool,
    ecn_send_cwr: bool,

    // --- congestion control / RTT / SACK ---
    cc: NewReno,
    rtt: RttEstimator,
    sack: SackScoreboard,
    /// Karn fallback: (sequence being timed, send time); invalidated by
    /// any retransmission.
    rtt_timing: Option<(TcpSeq, Instant)>,
    /// Budget of SACK-driven retransmissions unlocked by received ACKs.
    sack_rexmit_budget: u32,

    /// Absolute deadlines, indexed by [`Timer`].
    timers: [Option<Instant>; Timer::COUNT],
    persist_backoff: u32,
    /// Zero-window probes sent since the window last opened; bounded by
    /// `max_retransmits` so a permanently closed (possibly forged)
    /// window kills the connection instead of stalling it forever.
    persist_probes: u32,
    consecutive_rexmits: u32,

    // --- output triggers ---
    ack_now: bool,
    delack_segs: u32,
    rexmit_now: bool,
    probe_now: bool,
    keep_probe_now: bool,
    send_rst: bool,

    // --- RFC 5961 §5 challenge-ACK rate limit ---
    /// Start of the current challenge-ACK accounting window.
    chack_window_start: Option<Instant>,
    /// Challenge ACKs sent within the current window.
    chack_sent: u32,

    // --- keepalive (RFC 1122 §4.2.3.6; optional) ---
    keep_probes_sent: u32,

    /// Statistics.
    pub stats: TcpStats,
    /// Optional cwnd trace (Figure 7a).
    pub cwnd_trace: CwndTrace,
    /// Optional RTT sample trace.
    pub rtt_trace: RttTrace,
}

impl TcpSocket {
    /// Creates a closed socket bound to `local_addr`:`local_port`.
    pub fn new(cfg: TcpConfig, local_addr: Ipv6Addr, local_port: u16) -> Self {
        let sndbuf = SendBuffer::new(cfg.send_buf);
        // A peer sending whole segments leaves at most one out-of-order
        // range per MSS of window, on either side. No hard bound holds
        // under adversarial input, where the range lists may still grow.
        let rcvbuf = RecvBuffer::with_range_capacity(cfg.recv_buf, cfg.recv_buf.div_ceil(cfg.mss));
        let sack = SackScoreboard::with_capacity(cfg.send_buf.div_ceil(cfg.mss));
        let cc = NewReno::new(cfg.mss);
        let rtt = RttEstimator::new(cfg.max_rto);
        let mss = cfg.mss;
        TcpSocket {
            tcb: Tcb {
                rcv_wnd: cfg.recv_buf as u32,
                header_prediction: cfg.header_prediction,
                ..Tcb::default()
            },
            cfg,
            close_reason: None,
            local_addr,
            local_port,
            remote_addr: Ipv6Addr::UNSPECIFIED,
            remote_port: 0,
            sndbuf,
            tx_payload: Vec::new(),
            tx_sack_blocks: Vec::with_capacity(MAX_SACK_BLOCKS),
            snd_mss: mss,
            fin_queued: false,
            fin_seq: None,
            rcvbuf,
            fin_received: false,
            last_ack_sent: TcpSeq(0),
            ecn_send_ece: false,
            ecn_send_cwr: false,
            cc,
            rtt,
            sack,
            rtt_timing: None,
            sack_rexmit_budget: 0,
            timers: [None; Timer::COUNT],
            persist_backoff: 0,
            persist_probes: 0,
            consecutive_rexmits: 0,
            ack_now: false,
            delack_segs: 0,
            rexmit_now: false,
            probe_now: false,
            keep_probe_now: false,
            send_rst: false,
            chack_window_start: None,
            chack_sent: 0,
            keep_probes_sent: 0,
            stats: TcpStats::default(),
            cwnd_trace: CwndTrace::new(),
            rtt_trace: RttTrace::new(),
        }
    }

    // ------------------------------------------------------------------
    // Accessors
    // ------------------------------------------------------------------

    /// Current connection state.
    pub fn state(&self) -> TcpState {
        self.tcb.state
    }

    /// Why the socket closed, if it did.
    pub fn close_reason(&self) -> Option<CloseReason> {
        self.close_reason
    }

    /// Negotiated send MSS.
    pub fn mss(&self) -> usize {
        self.snd_mss
    }

    /// Remote endpoint.
    pub fn remote(&self) -> (Ipv6Addr, u16) {
        (self.remote_addr, self.remote_port)
    }

    /// Local endpoint.
    pub fn local(&self) -> (Ipv6Addr, u16) {
        (self.local_addr, self.local_port)
    }

    /// Bytes this connection pins against the node memory budget:
    /// send + receive buffers plus the control block (§4.3 / Table 3).
    /// A closed socket pins nothing — its buffers are reclaimable.
    pub fn mem_footprint(&self) -> usize {
        if self.tcb.state == TcpState::Closed {
            0
        } else {
            self.cfg.send_buf + self.cfg.recv_buf + crate::mem::TCP_CB_BYTES
        }
    }

    /// Bytes ready for the application to read.
    pub fn available(&self) -> usize {
        self.rcvbuf.available()
    }

    /// Free space in the send buffer.
    pub fn send_capacity(&self) -> usize {
        self.sndbuf.free()
    }

    /// Bytes buffered but not yet acknowledged (send side).
    pub fn send_queued(&self) -> usize {
        self.sndbuf.len()
    }

    /// True once the peer's FIN has been consumed and no data remains.
    pub fn peer_closed(&self) -> bool {
        self.fin_received && self.rcvbuf.available() == 0
    }

    /// True while the socket can accept data from the application.
    pub fn may_send(&self) -> bool {
        matches!(
            self.tcb.state,
            TcpState::Established | TcpState::CloseWait | TcpState::SynSent | TcpState::SynReceived
        ) && !self.fin_queued
    }

    /// Current congestion window (bytes), for telemetry.
    pub fn cwnd(&self) -> u32 {
        self.cc.cwnd()
    }

    /// Smoothed RTT estimate, if measured.
    pub fn srtt(&self) -> Option<Duration> {
        self.rtt.srtt()
    }

    /// Bytes in flight (sent but unacknowledged).
    pub fn flight_size(&self) -> u32 {
        self.tcb.snd_max.distance_from(self.tcb.snd_una)
    }

    /// True when ECN was negotiated on this connection: the IP layer
    /// should then send data packets with the ECT(0) codepoint.
    pub fn ecn_active(&self) -> bool {
        self.tcb.ecn_enabled
    }

    /// The connection variables segment input classifies against.
    pub fn tcb(&self) -> &Tcb {
        &self.tcb
    }

    // ------------------------------------------------------------------
    // Application interface
    // ------------------------------------------------------------------

    /// Begins an active open toward `remote`; `iss` is the initial send
    /// sequence number (drawn by the host's RNG).
    pub fn connect(&mut self, remote_addr: Ipv6Addr, remote_port: u16, iss: u32, now: Instant) {
        assert_eq!(
            self.tcb.state,
            TcpState::Closed,
            "connect on non-closed socket"
        );
        self.remote_addr = remote_addr;
        self.remote_port = remote_port;
        self.tcb.iss = TcpSeq(iss);
        self.tcb.snd_una = self.tcb.iss;
        self.tcb.snd_nxt = self.tcb.iss;
        self.tcb.snd_max = self.tcb.iss;
        self.tcb.state = TcpState::SynSent;
        self.close_reason = None;
        // Offer everything we support; negotiation trims on SYN-ACK.
        self.tcb.ts_enabled = self.cfg.use_timestamps;
        self.tcb.sack_enabled = self.cfg.use_sack;
        self.tcb.ecn_enabled = self.cfg.use_ecn;
        self.timers[Timer::Rexmit] = Some(now + self.rtt.rto());
    }

    /// Adopts a passive open from the SYN cache of a
    /// [`ListenSocket`](crate::listen::ListenSocket): `tcb` holds the
    /// SYN-RECEIVED state the cache negotiated, and its SYN-ACK has
    /// already gone out.
    pub(crate) fn accept(
        cfg: TcpConfig,
        local: (Ipv6Addr, u16),
        remote: (Ipv6Addr, u16),
        tcb: Tcb,
        peer_mss: Option<u16>,
        now: Instant,
    ) -> TcpSocket {
        let mut s = TcpSocket::new(cfg, local.0, local.1);
        (s.remote_addr, s.remote_port) = remote;
        s.tcb = tcb;
        s.last_ack_sent = tcb.rcv_nxt;
        if let Some(mss) = peer_mss {
            s.snd_mss = s.cfg.mss.min(usize::from(mss));
        }
        s.cc.set_mss(s.snd_mss);
        s.timers[Timer::Rexmit] = Some(now + s.rtt.rto());
        s.stats.segs_sent += 1;
        s
    }

    /// Appends data to the send stream; returns bytes accepted.
    pub fn send(&mut self, data: &[u8]) -> usize {
        if !self.may_send() {
            return 0;
        }
        self.sndbuf.push(data)
    }

    /// Reads delivered stream data.
    pub fn recv(&mut self, out: &mut [u8]) -> usize {
        let had = self.rcvbuf.available();
        let n = self.rcvbuf.read(out);
        self.tcb.rcv_wnd = self.rcvbuf.window() as u32;
        // Opening the window after the app drains data may warrant a
        // window-update ACK (avoid silly-window: only when substantial).
        if n > 0 && had >= self.rcvbuf.capacity() / 2 && !matches!(self.tcb.state, TcpState::Closed)
        {
            self.ack_now = true;
        }
        n
    }

    /// Initiates an orderly close (half-close of our direction).
    pub fn close(&mut self) {
        match self.tcb.state {
            TcpState::Closed | TcpState::SynSent => {
                self.enter_closed(CloseReason::Normal);
            }
            TcpState::SynReceived | TcpState::Established => {
                self.fin_queued = true;
                self.tcb.state = TcpState::FinWait1;
            }
            TcpState::CloseWait => {
                self.fin_queued = true;
                self.tcb.state = TcpState::LastAck;
            }
            _ => {}
        }
    }

    /// Hard abort: queue a RST and drop the connection.
    pub fn abort(&mut self) {
        if !matches!(self.tcb.state, TcpState::Closed | TcpState::TimeWait) {
            self.send_rst = true;
        }
        self.enter_closed(CloseReason::Aborted);
    }

    fn enter_closed(&mut self, reason: CloseReason) {
        self.tcb.state = TcpState::Closed;
        if self.close_reason.is_none() {
            self.close_reason = Some(reason);
        }
        self.timers = [None; Timer::COUNT];
        self.sack.clear();
    }

    /// Queues a challenge ACK (RFC 5961), subject to the §5 rate limit:
    /// at most [`CHALLENGE_ACK_LIMIT`] per [`CHALLENGE_ACK_WINDOW`]. A
    /// blind attacker flooding in-window RSTs/SYNs earns a bounded
    /// number of responses per second; excess triggers are counted and
    /// dropped silently.
    fn send_challenge_ack(&mut self, now: Instant) {
        match self.chack_window_start {
            Some(start) if now.saturating_duration_since(start) < CHALLENGE_ACK_WINDOW => {}
            _ => {
                self.chack_window_start = Some(now);
                self.chack_sent = 0;
            }
        }
        if self.chack_sent < CHALLENGE_ACK_LIMIT {
            self.chack_sent += 1;
            self.stats.challenge_acks += 1;
            self.ack_now = true;
        } else {
            self.stats.challenge_acks_limited += 1;
        }
    }

    /// (Re-)arms the keepalive idle timer, if keepalive is enabled.
    fn rearm_keepalive(&mut self, now: Instant) {
        if let Some(idle) = self.cfg.keepalive_idle {
            if self.tcb.state == TcpState::Established {
                self.timers[Timer::Keepalive] = Some(now + idle);
                self.keep_probes_sent = 0;
            }
        }
    }

    // ------------------------------------------------------------------
    // Timers
    // ------------------------------------------------------------------

    /// Earliest instant at which [`Self::on_timer`] must be called.
    pub fn poll_at(&self) -> Option<Instant> {
        self.timers.iter().flatten().min().copied()
    }

    /// Fires every timer whose deadline has passed, in the order
    /// TIME-WAIT, delayed ACK, persist, keepalive, retransmission. Each
    /// due deadline is consumed; only its handler may re-arm it.
    pub fn on_timer(&mut self, now: Instant) {
        for timer in Timer::ALL {
            if self.timers[timer].take_if(|d| *d <= now).is_some() {
                self.fire(timer, now);
            }
        }
    }

    fn fire(&mut self, timer: Timer, now: Instant) {
        match timer {
            Timer::TimeWait => self.enter_closed(CloseReason::Normal),
            Timer::Delack => {
                if self.delack_segs > 0 || self.rcvbuf.has_out_of_order() {
                    self.ack_now = true;
                }
            }
            Timer::Persist => {
                self.persist_probes += 1;
                if self.persist_probes > self.cfg.max_retransmits {
                    self.enter_closed(CloseReason::PersistTimeout);
                    return;
                }
                self.persist_backoff = (self.persist_backoff + 1).min(10);
                let next = PERSIST_BASE.saturating_mul(1 << self.persist_backoff.min(6));
                self.timers[Timer::Persist] = Some(now + next.min(Duration::from_secs(60)));
                self.probe_now = true;
            }
            // Probes only in ESTABLISHED; a deadline left over from it
            // is dropped.
            Timer::Keepalive if self.tcb.state == TcpState::Established => {
                self.keep_probes_sent += 1;
                if self.keep_probes_sent > self.cfg.keepalive_probes {
                    self.enter_closed(CloseReason::KeepaliveTimeout);
                    return;
                }
                self.keep_probe_now = true;
                self.timers[Timer::Keepalive] = Some(now + self.cfg.keepalive_interval);
            }
            Timer::Keepalive => {}
            Timer::Rexmit => self.on_rexmit_timeout(now),
        }
    }

    fn on_rexmit_timeout(&mut self, now: Instant) {
        self.consecutive_rexmits += 1;
        if self.consecutive_rexmits > self.cfg.max_retransmits {
            self.enter_closed(CloseReason::TooManyRetransmits);
            return;
        }
        self.stats.rexmit_timeouts += 1;
        self.rtt.back_off();
        // Karn: a retransmitted segment must not be timed.
        self.rtt_timing = None;
        let flight = self.flight_size();
        self.cc.on_timeout(flight);
        self.trace_cwnd(now);
        self.sack.end_recovery();
        self.sack_rexmit_budget = 0;
        // Go-back-N: rewind snd_nxt so output resends from snd_una
        // (covers SYN, data, and FIN uniformly).
        self.tcb.snd_nxt = self.tcb.snd_una;
        if self.fin_seq.is_some() {
            // FIN will be re-emitted when data drains again.
            self.fin_seq = None;
        }
    }

    fn trace_cwnd(&mut self, now: Instant) {
        self.cwnd_trace
            .record(now, self.cc.cwnd(), self.cc.ssthresh().min(1 << 30));
    }

    // ------------------------------------------------------------------
    // Segment input
    // ------------------------------------------------------------------

    /// Processes an incoming, checksum-verified segment handed over as
    /// a borrowed view — the zero-copy input path: the payload slice
    /// is read straight into the receive buffer, never copied into an
    /// intermediate allocation. `ecn` is the IP-layer codepoint (CE
    /// marking feeds the ECN machinery); an owned [`Segment`] goes in
    /// through [`Segment::view`].
    pub fn on_segment_view(&mut self, seg: SegmentView<'_>, ecn: Ecn, now: Instant) {
        if self.tcb.state == TcpState::Closed {
            return;
        }
        self.stats.segs_rcvd += 1;
        self.rearm_keepalive(now);
        match classify(&seg, &self.tcb) {
            Verdict::Drop => {}
            Verdict::DropAck => self.ack_now = true,
            Verdict::Paws => {
                self.stats.paws_drops += 1;
                self.ack_now = true;
            }
            Verdict::Challenge => self.send_challenge_ack(now),
            Verdict::Reset => self.enter_closed(CloseReason::Reset),
            Verdict::SendRst => {
                self.update_ts_recent(seg);
                self.send_rst = true;
            }
            Verdict::AckUnsent => {
                self.update_ts_recent(seg);
                self.ack_now = true;
            }
            Verdict::Open { simultaneous } => self.open(seg, simultaneous, now),
            Verdict::Accept { predicted } => {
                match predicted {
                    Some(Predicted::Ack) => self.stats.predicted_acks += 1,
                    Some(Predicted::Data) => self.stats.predicted_data += 1,
                    None => {}
                }
                self.update_ts_recent(seg);
                self.step(seg, ecn, now);
            }
        }
    }

    /// SYN-SENT's answer to the peer's SYN: negotiate options, then go
    /// to ESTABLISHED on a SYN-ACK, or to SYN-RECEIVED on a bare SYN.
    fn open(&mut self, seg: SegmentView<'_>, simultaneous: bool, now: Instant) {
        self.tcb.irs = seg.seq;
        self.tcb.rcv_nxt = seg.seq + 1;
        self.last_ack_sent = self.tcb.rcv_nxt;
        match seg.timestamps {
            Some(ts) if self.tcb.ts_enabled => self.tcb.ts_recent = ts.value,
            _ => self.tcb.ts_enabled = false,
        }
        self.tcb.sack_enabled = self.tcb.sack_enabled && seg.sack_permitted;
        if let Some(m) = seg.mss {
            self.snd_mss = self.cfg.mss.min(usize::from(m));
            self.cc.set_mss(self.snd_mss);
        }
        if simultaneous {
            // Re-emit our SYN as a SYN-ACK.
            self.tcb.state = TcpState::SynReceived;
            self.tcb.snd_nxt = self.tcb.iss;
            self.tcb.ecn_enabled = false; // keep the rare path simple
            return;
        }
        // ECN negotiation: the SYN-ACK carries ECE without CWR when
        // the passive side agreed.
        self.tcb.ecn_enabled = self.tcb.ecn_enabled
            && seg.flags.contains(Flags::ECE)
            && !seg.flags.contains(Flags::CWR);
        self.tcb.snd_una = seg.ack;
        self.timers[Timer::Rexmit] = None;
        // RTT from the handshake.
        if let Some(rtt) = self.ts_rtt(seg, now) {
            self.record_rtt(rtt, now);
        }
        self.establish(seg, now);
        self.ack_now = true;
    }

    /// ESTABLISHED on `seg`, which acknowledges our SYN.
    fn establish(&mut self, seg: SegmentView<'_>, now: Instant) {
        self.tcb.state = TcpState::Established;
        self.rearm_keepalive(now);
        self.tcb.snd_wnd = u32::from(seg.window);
        self.tcb.snd_wl1 = seg.seq;
        self.tcb.snd_wl2 = seg.ack;
        self.consecutive_rexmits = 0;
    }

    /// Stage 2: the one step sequence every accepted segment takes.
    fn step(&mut self, seg: SegmentView<'_>, ecn: Ecn, now: Instant) {
        if self.tcb.state == TcpState::SynReceived {
            // `classify` accepted this ACK of our SYN.
            self.establish(seg, now);
        }

        // RFC 1122 §4.2.2.17: a peer that keeps acknowledging our
        // zero-window probes keeps the connection alive; only
        // *unanswered* probes advance toward PersistTimeout.
        if self.timers[Timer::Persist].is_some() {
            self.persist_probes = 0;
        }

        let had_sack_news = self.ingest_sack(seg);
        self.note_ecn_echo(seg, now);
        if seg.ack.gt(self.tcb.snd_una) {
            self.process_new_ack(seg, now);
        } else if seg.ack == self.tcb.snd_una {
            self.same_ack_dup_check(seg, had_sack_news, now);
        }
        self.update_send_window(seg, now);

        if !seg.payload.is_empty()
            && matches!(
                self.tcb.state,
                TcpState::Established | TcpState::FinWait1 | TcpState::FinWait2
            )
        {
            self.process_payload(seg, ecn, now);
        } else if ecn == Ecn::Ce && self.tcb.ecn_enabled {
            self.ecn_send_ece = true;
            self.ack_now = true;
        }
        // Receiver side of CWR: peer says it reduced; stop echoing.
        if self.tcb.ecn_enabled && seg.flags.contains(Flags::CWR) {
            self.ecn_send_ece = false;
        }

        // An in-order FIN; a FIN beyond a hole waits for the data
        // before it to be retransmitted.
        let fin_in_order = seg.seq + seg.payload.len() as u32 == self.tcb.rcv_nxt;
        if seg.flags.contains(Flags::FIN) && fin_in_order && !self.fin_received {
            self.tcb.rcv_nxt += 1;
            self.fin_received = true;
            self.ack_now = true;
            match self.tcb.state {
                TcpState::Established => self.tcb.state = TcpState::CloseWait,
                // Our FIN not yet acked (process_new_ack handles the
                // acked case).
                TcpState::FinWait1 => self.tcb.state = TcpState::Closing,
                TcpState::FinWait2 => {
                    self.tcb.state = TcpState::TimeWait;
                    self.timers[Timer::TimeWait] = Some(now + TIME_WAIT);
                }
                _ => {}
            }
        }
    }

    /// RFC 7323 §4.3: remember the peer's timestamp for segments that
    /// cover `last_ack_sent`.
    fn update_ts_recent(&mut self, seg: SegmentView<'_>) {
        let covers =
            seg.seq.le(self.last_ack_sent) && self.last_ack_sent.lt(seg.seq + seg.seq_len().max(1));
        if let (true, Some(ts)) = (self.tcb.ts_enabled && covers, seg.timestamps) {
            self.tcb.ts_recent = ts.value;
        }
    }

    /// Ingest SACK blocks (and note whether they carried news, which
    /// makes a same-ack segment count as a dup ACK for recovery).
    fn ingest_sack(&mut self, seg: SegmentView<'_>) -> bool {
        if self.tcb.sack_enabled && !seg.sack_blocks().is_empty() {
            let before = self.sack.sacked_bytes();
            let res = self
                .sack
                .update(seg.sack_blocks(), self.tcb.snd_una, self.tcb.snd_max);
            self.stats.sack_blocks_rejected += u64::from(res.rejected);
            self.stats.dsack_rcvd += u64::from(res.dsack);
            self.sack.sacked_bytes() != before
        } else {
            false
        }
    }

    /// ECN echo from the receiver: reduce once per window.
    fn note_ecn_echo(&mut self, seg: SegmentView<'_>, now: Instant) {
        if self.tcb.ecn_enabled
            && seg.flags.contains(Flags::ECE)
            && self.cc.on_ecn_echo(self.tcb.snd_una, self.tcb.snd_max)
        {
            self.stats.ecn_reductions += 1;
            self.ecn_send_cwr = true;
            self.trace_cwnd(now);
        }
    }

    /// Same-ack handling: classify dup ACKs (RFC 5681 §3.2) and drive
    /// fast retransmit / SACK-based recovery.
    fn same_ack_dup_check(&mut self, seg: SegmentView<'_>, had_sack_news: bool, now: Instant) {
        let is_window_update = self.tcb.snd_wnd != u32::from(seg.window);
        let is_dup =
            seg.seq_len() == 0 && !is_window_update && self.tcb.snd_max.gt(self.tcb.snd_una);
        if is_dup || (had_sack_news && self.tcb.snd_max.gt(self.tcb.snd_una)) {
            self.stats.dup_acks_rcvd += 1;
            let flight = self.flight_size();
            match self
                .cc
                .on_dup_ack(self.tcb.snd_una, self.tcb.snd_max, flight)
            {
                CcAction::FastRetransmit => {
                    self.stats.fast_rexmits += 1;
                    self.rexmit_now = true;
                    self.sack.start_recovery(self.tcb.snd_una);
                    self.sack_rexmit_budget = 1;
                    self.trace_cwnd(now);
                }
                _ => {
                    if self.cc.in_recovery() {
                        self.sack_rexmit_budget += 1;
                    }
                }
            }
        }
    }

    /// Window update (RFC 793 p.72), including persist-timer entry/exit.
    /// `persist_recover` lets a genuine window-opening ACK through
    /// even when a forged segment with an inflated seq has wedged
    /// snd_wl1 ahead of anything the real peer will send: while we
    /// are persisting, any ACK at snd_una that opens the window is
    /// believed. Without it a single forged zero-window ACK turns
    /// into a silent permanent stall.
    fn update_send_window(&mut self, seg: SegmentView<'_>, now: Instant) {
        let wl_ok = seg.seq.gt(self.tcb.snd_wl1)
            || (seg.seq == self.tcb.snd_wl1 && seg.ack.ge(self.tcb.snd_wl2));
        let persist_recover = self.timers[Timer::Persist].is_some()
            && seg.ack == self.tcb.snd_una
            && u32::from(seg.window) > 0;
        if wl_ok || persist_recover {
            self.tcb.snd_wnd = u32::from(seg.window);
            self.tcb.snd_wl1 = seg.seq;
            self.tcb.snd_wl2 = seg.ack;
            if self.tcb.snd_wnd == 0 && !self.sndbuf.is_empty() {
                if self.timers[Timer::Persist].is_none() {
                    self.arm_persist(now);
                }
            } else {
                self.timers[Timer::Persist] = None;
                self.persist_backoff = 0;
                self.persist_probes = 0;
            }
        }
    }

    fn process_new_ack(&mut self, seg: SegmentView<'_>, now: Instant) {
        let flight_before = self.flight_size();
        let acked = seg.ack.distance_from(self.tcb.snd_una);

        // RTT sampling: timestamps make retransmitted segments safe to
        // time (§9.4); otherwise Karn's algorithm via rtt_timing.
        if let Some(rtt) = self.ts_rtt(seg, now) {
            self.record_rtt(rtt, now);
        } else if let Some((_, sent_at)) = self.rtt_timing.filter(|&(s, _)| seg.ack.gt(s)) {
            self.record_rtt(now.saturating_duration_since(sent_at), now);
            self.rtt_timing = None;
        }

        // Advance send buffer: data bytes acked excludes SYN/FIN seqs.
        let syn_in_flight = u32::from(self.tcb.snd_una == self.tcb.iss);
        let data_acked = (acked - syn_in_flight.min(acked)).min(self.sndbuf.len() as u32);
        if data_acked > 0 {
            self.sndbuf.advance(data_acked as usize);
        }
        self.tcb.snd_una = seg.ack;
        if self.tcb.snd_nxt.lt(self.tcb.snd_una) {
            self.tcb.snd_nxt = self.tcb.snd_una;
        }
        self.sack.advance(self.tcb.snd_una);
        self.consecutive_rexmits = 0;

        // Congestion control.
        match self.cc.on_new_ack(seg.ack, acked, flight_before) {
            CcAction::PartialAckRetransmit => {
                self.rexmit_now = true;
                self.sack_rexmit_budget += 1;
            }
            _ => {
                if !self.cc.in_recovery() {
                    self.sack.end_recovery();
                    self.sack_rexmit_budget = 0;
                }
            }
        }
        self.trace_cwnd(now);

        // Retransmission timer: stop if everything acked, else restart.
        let outstanding = self.tcb.snd_una != self.tcb.snd_max;
        self.timers[Timer::Rexmit] = outstanding.then(|| now + self.rtt.rto());

        // Did this ACK cover our FIN?
        if self.fin_seq.is_some_and(|fin| seg.ack.gt(fin)) {
            match self.tcb.state {
                TcpState::FinWait1 => self.tcb.state = TcpState::FinWait2,
                TcpState::Closing => {
                    self.tcb.state = TcpState::TimeWait;
                    self.timers[Timer::TimeWait] = Some(now + TIME_WAIT);
                }
                TcpState::LastAck => self.enter_closed(CloseReason::Normal),
                _ => {}
            }
        }
    }

    /// The RTT that `seg`'s timestamp echo measures, when timestamps
    /// are on and the echo is usable (RFC 7323 §4.1).
    fn ts_rtt(&self, seg: SegmentView<'_>, now: Instant) -> Option<Duration> {
        let echo = seg.timestamps.filter(|_| self.tcb.ts_enabled)?.echo;
        let now_ts = ts_value(now, self.cfg.ts_granularity);
        let delta_ticks = now_ts.wrapping_sub(echo);
        // Discard absurd samples (e.g. echo from before a clock wrap).
        if echo == 0 || ts_lt(now_ts, echo) || delta_ticks > 1 << 28 {
            return None;
        }
        let granularity = self.cfg.ts_granularity.as_micros();
        Some(Duration::from_micros(u64::from(delta_ticks) * granularity))
    }

    fn record_rtt(&mut self, rtt: Duration, now: Instant) {
        self.rtt.sample(rtt);
        self.stats.rtt_samples += 1;
        self.rtt_trace.record(now, rtt);
    }

    fn process_payload(&mut self, seg: SegmentView<'_>, ecn: Ecn, now: Instant) {
        // Trim data before rcv_nxt.
        let mut offset_in_seg = 0usize;
        let mut stream_off = 0usize;
        if seg.seq.lt(self.tcb.rcv_nxt) {
            offset_in_seg = self.tcb.rcv_nxt.distance_from(seg.seq) as usize;
            if offset_in_seg >= seg.payload.len() {
                // Entirely duplicate data.
                self.ack_now = true;
                return;
            }
        } else {
            stream_off = seg.seq.distance_from(self.tcb.rcv_nxt) as usize;
        }
        let data = &seg.payload[offset_in_seg..];
        let was_ooo = stream_off > 0;
        let conflicts_before = self.rcvbuf.conflicts();
        let newly = self.rcvbuf.write(stream_off, data);
        self.tcb.rcv_wnd = self.rcvbuf.window() as u32;
        self.stats.reassembly_conflicts += self.rcvbuf.conflicts() - conflicts_before;
        self.tcb.rcv_nxt += newly as u32;
        self.stats.bytes_rcvd += newly as u64;
        if was_ooo {
            self.stats.ooo_segments += 1;
        }

        // CE mark on a data packet: echo congestion to the sender.
        if ecn == Ecn::Ce && self.tcb.ecn_enabled {
            self.ecn_send_ece = true;
        }

        // ACK policy: immediate ACK for out-of-order data, when a hole
        // was just filled (so the sender's SACK view updates promptly),
        // or with delayed ACKs disabled; otherwise delayed ACK every
        // second full segment.
        if was_ooo || self.rcvbuf.has_out_of_order() || newly > data.len() || !self.cfg.delayed_ack
        {
            self.ack_now = true;
        } else {
            self.delack_segs += 1;
            if self.delack_segs >= 2 {
                self.ack_now = true;
            } else if self.timers[Timer::Delack].is_none() {
                self.timers[Timer::Delack] = Some(now + DELACK_TIMEOUT);
            }
        }
    }

    // ------------------------------------------------------------------
    // Segment output
    // ------------------------------------------------------------------

    /// Produces the next segment to transmit, if any. Callers loop until
    /// `None`. The segment is fully formed except IP encapsulation.
    pub fn poll_transmit(&mut self, now: Instant) -> Option<Segment> {
        let tx = self.plan();
        self.emit(tx, now)
    }

    /// Takes back a segment produced by [`TcpSocket::poll_transmit`]
    /// after the stack has encoded it, keeping its payload and SACK-block
    /// allocations for the next segments. Optional: dropping the segment
    /// instead is always correct, it only costs the next segment an
    /// allocation.
    pub fn recycle(&mut self, seg: Segment) {
        if seg.payload.capacity() > self.tx_payload.capacity() {
            self.tx_payload = seg.payload;
        }
        if seg.sack_blocks.capacity() > self.tx_sack_blocks.capacity() {
            self.tx_sack_blocks = seg.sack_blocks;
            self.tx_sack_blocks.clear();
        }
    }

    /// True in the states that exchange data, where [`TcpSocket::plan`]
    /// runs its full priority list.
    fn in_data_state(&self) -> bool {
        matches!(
            self.tcb.state,
            TcpState::Established
                | TcpState::FinWait1
                | TcpState::FinWait2
                | TcpState::CloseWait
                | TcpState::Closing
                | TcpState::LastAck
        )
    }

    /// Stage 1 of output: what the next segment is. Reads the socket
    /// and writes nothing; [`TcpSocket::emit`] applies the effects.
    fn plan(&self) -> Tx {
        let t = &self.tcb;
        // RST first, in any state (even Closed, after an abort).
        if self.send_rst {
            return Tx::Rst;
        }
        if self.in_data_state() {
            return self.plan_data();
        }
        let syn_rcvd = t.state == TcpState::SynReceived;
        match t.state {
            TcpState::SynSent | TcpState::SynReceived if t.snd_nxt == t.iss => {
                Tx::Syn { ack: syn_rcvd }
            }
            // Once the SYN is out, SYN-RECEIVED still sends a pending
            // ACK (re-ACKing a crossed SYN-ACK in simultaneous open),
            // and so does TIME-WAIT.
            TcpState::SynReceived | TcpState::TimeWait if self.ack_now => Tx::PureAck,
            _ => Tx::None,
        }
    }

    /// The data states' priority list.
    fn plan_data(&self) -> Tx {
        let t = &self.tcb;
        if self.rexmit_now && t.snd_max.gt(t.snd_una) {
            // With no data left, only the FIN is outstanding.
            return if self.sndbuf.is_empty() {
                Tx::FinRexmit
            } else {
                Tx::FastRexmit
            };
        }
        if let Some((start, len)) = self.usable_hole() {
            return Tx::SackHole { start, len };
        }
        let probe = self.probe_now;
        let in_flight = t.snd_nxt.distance_from(t.snd_una) as usize;
        let buffered = self.sndbuf.len();
        let unsent = buffered.saturating_sub(in_flight.min(buffered));
        let wnd = self.cc.cwnd().min(t.snd_wnd.max(u32::from(probe))) as usize;
        let len = unsent.min(wnd.saturating_sub(in_flight)).min(self.snd_mss);
        // Nagle holds a sub-MSS segment that the data (not the window)
        // cuts short while data is outstanding; a zero-window probe
        // forces out one byte.
        let nagle_hold = len == unsent
            && len < self.snd_mss
            && in_flight > 0
            && self.cfg.nagle
            && !self.fin_queued
            && !probe;
        if (len > 0 && !nagle_hold) || (probe && unsent > 0) {
            Tx::NewData {
                len: len.max(1),
                probe,
            }
        } else if self.fin_queued
            && self.fin_seq.is_none()
            && in_flight >= buffered
            && matches!(
                t.state,
                TcpState::FinWait1 | TcpState::Closing | TcpState::LastAck
            )
        {
            Tx::Fin
        } else if self.keep_probe_now {
            Tx::KeepaliveProbe
        } else if self.ack_now {
            Tx::PureAck
        } else {
            Tx::None
        }
    }

    /// True while SACK recovery has retransmissions budgeted.
    fn sack_budget_open(&self) -> bool {
        self.cc.in_recovery() && self.tcb.sack_enabled && self.sack_rexmit_budget > 0
    }

    /// The next SACK hole, if the budget allows one and it holds data
    /// (a hole over the FIN alone cannot be sent from the buffer).
    fn usable_hole(&self) -> Option<(TcpSeq, usize)> {
        if !self.sack_budget_open() {
            return None;
        }
        let (start, len) = self.sack.peek_hole(self.tcb.snd_una, self.snd_mss as u32)?;
        let off = start.distance_from(self.tcb.snd_una) as usize;
        (off < self.sndbuf.len() && len > 0).then_some((start, len as usize))
    }

    /// Stage 2 of output: builds the segment `plan` chose and applies
    /// its effects.
    fn emit(&mut self, tx: Tx, now: Instant) -> Option<Segment> {
        let t = self.tcb;
        if tx != Tx::Rst && self.in_data_state() {
            self.pass_over(tx, now);
        }
        let (seq, flags, len) = match tx {
            Tx::None => return None,
            // Built like the SYN cache's SYN-ACK. It does not carry the
            // delayed-ACK state: only `ack_now` is answered by it.
            Tx::Syn { ack } => {
                let ports = (self.local_port, self.remote_port);
                let seg = syn_segment(&t, &self.cfg, ports, ack, now);
                self.tcb.snd_nxt = t.iss + 1;
                self.tcb.snd_max = t.snd_max.max(self.tcb.snd_nxt);
                self.arm_rexmit(now);
                self.rtt_timing.get_or_insert((t.iss, now));
                self.ack_now = false;
                self.stats.segs_sent += 1;
                return Some(seg);
            }
            Tx::Rst => (t.snd_nxt, Flags::RST | Flags::ACK, 0),
            Tx::FastRexmit => (t.snd_una, Flags::ACK, self.sndbuf.len().min(self.snd_mss)),
            Tx::SackHole { start, len } => (start, Flags::ACK, len),
            Tx::NewData { len, .. } => (t.snd_nxt, Flags::ACK, len),
            Tx::Fin => (t.snd_nxt, Flags::FIN | Flags::ACK, 0),
            Tx::FinRexmit => (t.snd_una, Flags::FIN | Flags::ACK, 0),
            // RFC 1122's garbage-less probe: a byte the peer has
            // already acknowledged forces it to answer.
            Tx::KeepaliveProbe => (t.snd_nxt - 1, Flags::ACK, 0),
            Tx::PureAck => (t.snd_nxt, Flags::ACK, 0),
        };
        let mut seg = Segment::new(self.local_port, self.remote_port, seq, t.rcv_nxt, flags);
        self.stats.segs_sent += 1;
        if len > 0 {
            let off = seq.distance_from(t.snd_una) as usize;
            seg.payload = std::mem::take(&mut self.tx_payload);
            self.sndbuf.copy_into(off, len, &mut seg.payload);
            // PSH when this segment drains the buffered data.
            if off + seg.payload.len() >= self.sndbuf.len() {
                seg.flags |= Flags::PSH;
            }
        }
        match tx {
            // No window, timestamps or SACK; it ends the conversation,
            // so it also takes any pending ACK with it.
            Tx::Rst => {
                self.send_rst = false;
                self.clear_pending_ack();
                return Some(seg);
            }
            // Karn: a retransmitted segment is not timed.
            Tx::FastRexmit | Tx::SackHole { .. } => {
                self.stats.segs_retransmitted += 1;
                self.rtt_timing = None;
                self.arm_rexmit(now);
                self.clear_pending_ack();
            }
            Tx::NewData { len, probe } => {
                if probe && t.snd_wnd == 0 {
                    self.stats.zero_window_probes += 1;
                }
                // CWR rides on new data only (RFC 3168 §6.1.2).
                if self.ecn_send_cwr {
                    seg.flags |= Flags::CWR;
                    self.ecn_send_cwr = false;
                }
                self.tcb.snd_nxt += len as u32;
                if self.tcb.snd_nxt.gt(t.snd_max) {
                    self.tcb.snd_max = self.tcb.snd_nxt;
                    self.stats.bytes_sent += len as u64;
                    self.rtt_timing.get_or_insert((seq, now));
                } else {
                    self.stats.segs_retransmitted += 1;
                }
                self.arm_rexmit(now);
                self.clear_pending_ack();
            }
            Tx::Fin => {
                self.fin_seq = Some(seq);
                self.tcb.snd_nxt += 1;
                self.tcb.snd_max = t.snd_max.max(self.tcb.snd_nxt);
                self.arm_rexmit(now);
                self.clear_pending_ack();
            }
            // A retransmitted FIN leaves a pending ACK pending.
            Tx::FinRexmit => self.stats.segs_retransmitted += 1,
            // So does the keepalive probe.
            Tx::KeepaliveProbe => {
                self.keep_probe_now = false;
                self.stats.keepalive_probes += 1;
            }
            Tx::PureAck => {
                self.stats.acks_sent += 1;
                self.clear_pending_ack();
            }
            Tx::None | Tx::Syn { .. } => unreachable!("returned above"),
        }
        // The tail every synchronized segment shares.
        seg.window = t.rcv_wnd.min(65535) as u16;
        self.last_ack_sent = t.rcv_nxt;
        if t.ts_enabled {
            seg.timestamps = Some(Timestamps {
                value: ts_value(now, self.cfg.ts_granularity),
                echo: t.ts_recent,
            });
        }
        if self.ecn_send_ece {
            seg.flags |= Flags::ECE;
        }
        self.attach_sack_blocks(&mut seg);
        Some(seg)
    }

    /// The effects of the data states' priority list on the triggers
    /// it tried on the way to `tx`. They apply even when nothing is sent.
    fn pass_over(&mut self, tx: Tx, now: Instant) {
        // Fast retransmit is tried first and always consumes its
        // trigger, even with nothing outstanding.
        self.rexmit_now = false;
        match tx {
            Tx::FastRexmit | Tx::FinRexmit => return,
            Tx::SackHole { .. } => {
                self.sack.next_hole(self.tcb.snd_una, self.snd_mss as u32);
                self.sack_rexmit_budget -= 1;
                self.stats.sack_rexmits += 1;
                return;
            }
            // A budget that found no usable hole is spent (and the
            // hole cursor still moves past an unusable one).
            _ if self.sack_budget_open() => {
                self.sack.next_hole(self.tcb.snd_una, self.snd_mss as u32);
                self.sack_rexmit_budget = 0;
            }
            _ => {}
        }
        // A probe request is answered by this poll or not at all.
        self.probe_now = false;
        // FreeBSD's tcp_output also arms the persist timer: data waits,
        // the peer's window is closed and nothing in flight will draw
        // an ACK.
        if !matches!(tx, Tx::NewData { .. })
            && !self.sndbuf.is_empty()
            && self.tcb.snd_wnd == 0
            && self.tcb.snd_nxt == self.tcb.snd_una
            && self.timers[Timer::Persist].is_none()
            && self.timers[Timer::Rexmit].is_none()
        {
            self.arm_persist(now);
        }
    }

    fn arm_persist(&mut self, now: Instant) {
        self.persist_backoff = 0;
        self.persist_probes = 0;
        self.timers[Timer::Persist] = Some(now + PERSIST_BASE);
    }

    fn arm_rexmit(&mut self, now: Instant) {
        self.timers[Timer::Rexmit].get_or_insert(now + self.rtt.rto());
    }

    fn clear_pending_ack(&mut self) {
        self.ack_now = false;
        self.delack_segs = 0;
        self.timers[Timer::Delack] = None;
    }

    fn attach_sack_blocks(&mut self, seg: &mut Segment) {
        if !self.tcb.sack_enabled || !self.rcvbuf.has_out_of_order() {
            return;
        }
        // Most recent ranges first per RFC 2018; we report up to 3 in
        // ascending order (sufficient for a correct sender scoreboard).
        seg.sack_blocks = std::mem::take(&mut self.tx_sack_blocks);
        for &(s, e) in self
            .rcvbuf
            .out_of_order_ranges()
            .iter()
            .take(MAX_SACK_BLOCKS)
        {
            seg.sack_blocks.push(SackBlock {
                start: self.tcb.rcv_nxt + s,
                end: self.tcb.rcv_nxt + e,
            });
        }
    }

    /// Does nothing: the timestamp clock is a pure function of the
    /// time. Kept only because the benchmark's per-layer replay
    /// (`perfbench/src/trace.rs`) still calls it.
    #[doc(hidden)]
    pub fn tick(&mut self, _now: Instant) {}
}

/// The five timers, declared in the order [`TcpSocket::on_timer`]
/// fires them when several are due at once.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Timer {
    TimeWait,
    Delack,
    Persist,
    Keepalive,
    Rexmit,
}

impl Timer {
    const COUNT: usize = 5;
    const ALL: [Timer; Timer::COUNT] = [
        Timer::TimeWait,
        Timer::Delack,
        Timer::Persist,
        Timer::Keepalive,
        Timer::Rexmit,
    ];
}

impl std::ops::Index<Timer> for [Option<Instant>; Timer::COUNT] {
    type Output = Option<Instant>;
    fn index(&self, t: Timer) -> &Option<Instant> {
        &self[t as usize]
    }
}

impl std::ops::IndexMut<Timer> for [Option<Instant>; Timer::COUNT] {
    fn index_mut(&mut self, t: Timer) -> &mut Option<Instant> {
        &mut self[t as usize]
    }
}

/// What [`TcpSocket::plan`] chose to send, in priority order.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Tx {
    /// RST|ACK at SND.NXT.
    Rst,
    /// Our SYN, or the SYN-ACK once the peer's SYN is in.
    Syn { ack: bool },
    /// Data from SND.UNA, on a duplicate-ACK or partial-ACK trigger.
    FastRexmit,
    /// A SACK hole's bytes (RFC 6675).
    SackHole { start: TcpSeq, len: usize },
    /// `len` bytes at SND.NXT; `probe` when the persist timer asked.
    NewData { len: usize, probe: bool },
    /// Our FIN at SND.NXT.
    Fin,
    /// The FIN again, from SND.UNA, when only it is outstanding.
    FinRexmit,
    /// A bare ACK at SND.NXT − 1.
    KeepaliveProbe,
    /// A bare ACK at SND.NXT.
    PureAck,
    /// Nothing.
    None,
}

/// The timestamp clock: TSval for `now` at `granularity`. Never 0,
/// which RFC 7323 reserves for "no echo".
pub(crate) fn ts_value(now: Instant, granularity: Duration) -> u32 {
    (now.as_micros() / granularity.as_micros()).max(1) as u32
}

/// The SYN for a connection in `tcb`, or with `ack` the SYN-ACK: the
/// one builder behind a socket's SYN and the SYN cache's SYN-ACK.
pub(crate) fn syn_segment(
    tcb: &Tcb,
    cfg: &TcpConfig,
    (local_port, remote_port): (u16, u16),
    ack: bool,
    now: Instant,
) -> Segment {
    let (flags, ack_seq, echo) = match ack {
        true => (Flags::SYN | Flags::ACK, tcb.rcv_nxt, tcb.ts_recent),
        false => (Flags::SYN, TcpSeq(0), 0),
    };
    let mut seg = Segment::new(local_port, remote_port, tcb.iss, ack_seq, flags);
    // RFC 3168 §6.1.1: the SYN offers ECE|CWR, the SYN-ACK answers ECE.
    if tcb.ecn_enabled {
        seg.flags |= Flags::ECE;
        if !ack {
            seg.flags |= Flags::CWR;
        }
    }
    seg.window = tcb.rcv_wnd.min(65535) as u16;
    seg.mss = Some(cfg.mss.min(65535) as u16);
    seg.sack_permitted = tcb.sack_enabled;
    if tcb.ts_enabled {
        seg.timestamps = Some(Timestamps {
            value: ts_value(now, cfg.ts_granularity),
            echo,
        });
    }
    seg
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TcpConfig;
    use crate::listen::ListenSocket;
    use crate::mem::NodeBudget;
    use lln_netip::NodeId;

    fn sock() -> TcpSocket {
        TcpSocket::new(TcpConfig::default(), NodeId(1).mesh_addr(), 49152)
    }

    fn handshake() -> (TcpSocket, TcpSocket) {
        let t = Instant::ZERO;
        let a_addr = NodeId(1).mesh_addr();
        let b_addr = NodeId(2).mesh_addr();
        let mut a = sock();
        a.connect(b_addr, 80, 100, t);
        let syn = a.poll_transmit(t).unwrap();
        let mut l = ListenSocket::new(TcpConfig::default(), b_addr, 80, &NodeBudget::default());
        let due = l
            .on_segment(a_addr, &syn, 200, t)
            .into_reply()
            .expect("SYN-ACK from the cache");
        let synack = l.synack(due, t);
        a.on_segment_view(synack.view(), Ecn::NotCapable, t);
        let ack = a.poll_transmit(t).unwrap();
        let b = l
            .on_segment(a_addr, &ack, 0, t)
            .into_spawn()
            .expect("socket on handshake completion");
        (a, b)
    }

    #[test]
    fn fresh_socket_is_closed_and_quiet() {
        let mut s = sock();
        assert_eq!(s.state(), TcpState::Closed);
        assert!(s.poll_transmit(Instant::ZERO).is_none());
        assert!(s.poll_at().is_none());
        assert_eq!(s.send(b"data"), 0, "cannot send while closed");
        let mut buf = [0u8; 8];
        assert_eq!(s.recv(&mut buf), 0);
    }

    #[test]
    fn syn_carries_negotiation_options() {
        let mut s = sock();
        s.connect(NodeId(2).mesh_addr(), 80, 42, Instant::ZERO);
        assert_eq!(s.state(), TcpState::SynSent);
        let syn = s.poll_transmit(Instant::ZERO).expect("SYN");
        assert!(syn.flags.contains(Flags::SYN));
        assert!(!syn.flags.contains(Flags::ACK));
        assert_eq!(syn.seq, TcpSeq(42));
        assert_eq!(syn.mss, Some(462));
        assert!(syn.sack_permitted);
        assert!(syn.timestamps.is_some());
        assert!(syn.window > 0, "SYN advertises the receive window");
        // Only one SYN until a timeout.
        assert!(s.poll_transmit(Instant::ZERO).is_none());
        assert!(s.poll_at().is_some(), "rexmit timer armed");
    }

    #[test]
    fn peer_without_options_disables_them() {
        let t = Instant::ZERO;
        let mut a = sock();
        a.connect(NodeId(2).mesh_addr(), 80, 42, t);
        let _syn = a.poll_transmit(t).unwrap();
        // Hand-craft a SYN-ACK with no options at all.
        let mut synack = Segment::new(80, 49152, TcpSeq(7), TcpSeq(43), Flags::SYN | Flags::ACK);
        synack.window = 1000;
        a.on_segment_view(synack.view(), Ecn::NotCapable, t);
        assert_eq!(a.state(), TcpState::Established);
        let ack = a.poll_transmit(t).expect("handshake ACK");
        assert!(
            ack.timestamps.is_none(),
            "timestamps off when peer lacks them"
        );
        a.send(b"x");
        let data = a.poll_transmit(t).expect("data");
        assert!(data.timestamps.is_none());
        assert!(data.sack_blocks.is_empty());
    }

    #[test]
    fn established_send_recv_roundtrip() {
        let (mut a, mut b) = handshake();
        let t = Instant::ZERO;
        assert_eq!(a.send(b"hello world"), 11);
        while let Some(seg) = a.poll_transmit(t) {
            b.on_segment_view(seg.view(), Ecn::NotCapable, t);
        }
        assert_eq!(b.available(), 11);
        let mut buf = [0u8; 32];
        let n = b.recv(&mut buf);
        assert_eq!(&buf[..n], b"hello world");
        assert!(b.may_send(), "CloseWait not reached; b can speak");
    }

    #[test]
    fn close_states_progression() {
        let (mut a, mut b) = handshake();
        let t = Instant::ZERO;
        a.close();
        assert_eq!(a.state(), TcpState::FinWait1);
        assert!(!a.may_send(), "no new data after close");
        while let Some(seg) = a.poll_transmit(t) {
            b.on_segment_view(seg.view(), Ecn::NotCapable, t);
        }
        assert_eq!(b.state(), TcpState::CloseWait);
        assert!(b.peer_closed());
        while let Some(seg) = b.poll_transmit(t) {
            a.on_segment_view(seg.view(), Ecn::NotCapable, t);
        }
        assert_eq!(a.state(), TcpState::FinWait2, "FIN acked");
        b.close();
        assert_eq!(b.state(), TcpState::LastAck);
        while let Some(seg) = b.poll_transmit(t) {
            a.on_segment_view(seg.view(), Ecn::NotCapable, t);
        }
        assert_eq!(a.state(), TcpState::TimeWait);
        while let Some(seg) = a.poll_transmit(t) {
            b.on_segment_view(seg.view(), Ecn::NotCapable, t);
        }
        assert_eq!(b.state(), TcpState::Closed);
        assert_eq!(b.close_reason(), Some(CloseReason::Normal));
        // TIME_WAIT expires on its own.
        let later = Instant::from_secs(60);
        a.on_timer(later);
        assert_eq!(a.state(), TcpState::Closed);
    }

    #[test]
    fn abort_emits_rst_once() {
        let (mut a, _b) = handshake();
        a.abort();
        assert_eq!(a.state(), TcpState::Closed);
        let rst = a.poll_transmit(Instant::ZERO).expect("RST");
        assert!(rst.flags.contains(Flags::RST));
        assert!(a.poll_transmit(Instant::ZERO).is_none(), "only one RST");
    }

    #[test]
    fn send_buffer_capacity_gates_send() {
        let (mut a, _b) = handshake();
        let big = vec![0u8; 10_000];
        let n = a.send(&big);
        assert_eq!(n, 1848, "bounded by the configured send buffer");
        assert_eq!(a.send_capacity(), 0);
        assert_eq!(a.send(&big), 0);
    }

    #[test]
    fn window_advertisement_tracks_receive_buffer() {
        let (mut a, mut b) = handshake();
        let t = Instant::ZERO;
        a.send(&[0u8; 462]);
        while let Some(seg) = a.poll_transmit(t) {
            b.on_segment_view(seg.view(), Ecn::NotCapable, t);
        }
        // Force an immediate ACK via the second segment rule.
        a.send(&[0u8; 462]);
        while let Some(seg) = a.poll_transmit(t) {
            b.on_segment_view(seg.view(), Ecn::NotCapable, t);
        }
        let ack = b.poll_transmit(t).expect("delayed-ack fires on 2nd");
        assert_eq!(
            usize::from(ack.window),
            1848 - 924,
            "window shrinks by the undelivered bytes"
        );
    }

    #[test]
    fn duplicate_syn_ack_is_reacked_not_reprocessed() {
        let (mut a, mut b) = handshake();
        let t = Instant::ZERO;
        // Rebuild a stale SYN-ACK (seq = b's ISS = 200).
        let mut synack = Segment::new(80, 49152, TcpSeq(200), TcpSeq(101), Flags::SYN | Flags::ACK);
        synack.window = 1848;
        synack.timestamps = Some(Timestamps { value: 1, echo: 1 });
        let before = a.stats.segs_sent;
        a.on_segment_view(synack.view(), Ecn::NotCapable, t);
        assert_eq!(a.state(), TcpState::Established, "state unharmed");
        let out = a.poll_transmit(t);
        assert!(out.is_some(), "duplicate answered with an ACK");
        assert!(a.stats.segs_sent > before || out.is_some());
        let _ = &mut b;
    }

    #[test]
    fn flight_size_and_cwnd_accessors() {
        let (mut a, _b) = handshake();
        let t = Instant::ZERO;
        assert_eq!(a.flight_size(), 0);
        a.send(&[0u8; 462]);
        let _ = a.poll_transmit(t).expect("segment");
        assert_eq!(a.flight_size(), 462);
        assert!(a.cwnd() >= 924);
        assert!(!a.ecn_active(), "default config has ECN off");
    }

    /// The promoted socket is fully functional: data flows both ways
    /// with the options negotiated in the original SYN.
    #[test]
    fn promoted_socket_carries_data() {
        let (mut a, mut b) = handshake();
        let t = Instant::ZERO;
        assert_eq!(a.send(b"ping"), 4);
        let seg = a.poll_transmit(t).expect("data out");
        b.on_segment_view(seg.view(), Ecn::NotCapable, t);
        let mut buf = [0u8; 8];
        assert_eq!(b.recv(&mut buf), 4);
        assert_eq!(&buf[..4], b"ping");
        assert_eq!(b.send(b"pong"), 4);
        let back = b.poll_transmit(t).expect("reply data");
        a.on_segment_view(back.view(), Ecn::NotCapable, t);
        assert_eq!(a.recv(&mut buf), 4);
        assert_eq!(&buf[..4], b"pong");
    }

    #[test]
    fn data_before_establishment_rejected() {
        let mut s = sock();
        s.connect(NodeId(2).mesh_addr(), 80, 42, Instant::ZERO);
        assert_eq!(s.send(b"early"), 5, "SynSent may buffer");
        let mut stray = Segment::new(80, 49152, TcpSeq(0), TcpSeq(43), Flags::ACK | Flags::PSH);
        stray.payload = vec![1, 2, 3];
        s.on_segment_view(stray.view(), Ecn::NotCapable, Instant::ZERO);
        assert_eq!(s.available(), 0, "no data accepted before SYN seen");
    }

    // ------------------------------------------------------------------
    // Hardening regressions (adversarial in-band traffic)
    // ------------------------------------------------------------------

    /// After `abort()`, exactly one RST leaves the socket — a pending
    /// ACK queued before the abort must not trail it.
    #[test]
    fn abort_emits_single_rst_and_nothing_else() {
        let (mut a, _b) = handshake();
        let t = Instant::ZERO;
        // Out-of-order data queues an immediate ACK.
        let mut ooo = Segment::new(80, 49152, TcpSeq(301), TcpSeq(101), Flags::ACK | Flags::PSH);
        ooo.window = 1000;
        ooo.payload = vec![7; 4];
        a.on_segment_view(ooo.view(), Ecn::NotCapable, t);
        a.abort();
        let rst = a.poll_transmit(t).expect("the RST");
        assert!(rst.flags.contains(Flags::RST));
        assert!(a.poll_transmit(t).is_none(), "no ACK after our own RST");
        assert_eq!(a.close_reason(), Some(CloseReason::Aborted));
    }

    /// An unacceptable ACK in SYN-RECEIVED queues a RST while a
    /// challenge/re-ACK may already be pending; the RST must subsume
    /// it rather than be followed by an ACK that re-opens the
    /// conversation.
    #[test]
    fn rst_subsumes_pending_ack_in_syn_received() {
        let t = Instant::ZERO;
        let syn = Segment::new(5, 80, TcpSeq(77), TcpSeq(0), Flags::SYN);
        let tcb = Tcb {
            state: TcpState::SynReceived,
            iss: TcpSeq(300),
            irs: TcpSeq(77),
            snd_una: TcpSeq(300),
            snd_nxt: TcpSeq(301),
            snd_max: TcpSeq(301),
            rcv_nxt: TcpSeq(78),
            ..Tcb::default()
        };
        let local = (NodeId(9).mesh_addr(), 80);
        let remote = (NodeId(1).mesh_addr(), 5);
        let mut s = TcpSocket::accept(TcpConfig::default(), local, remote, tcb, None, t);
        // Duplicate SYN: queues a re-ACK/challenge.
        s.on_segment_view(syn.view(), Ecn::NotCapable, t);
        // Forged ACK for data we never sent: queues a RST.
        let mut bad = Segment::new(5, 80, TcpSeq(78), TcpSeq(300), Flags::ACK);
        bad.window = 1000;
        s.on_segment_view(bad.view(), Ecn::NotCapable, t);
        let first = s.poll_transmit(t).expect("RST first");
        assert!(first.flags.contains(Flags::RST), "got {:?}", first.flags);
        assert!(
            s.poll_transmit(t).is_none(),
            "pending ACK must coalesce into (be dropped by) the RST"
        );
    }

    /// A challenge ACK triggered while a delayed ACK is pending must
    /// produce exactly one pure ACK, not two.
    #[test]
    fn challenge_ack_coalesces_with_pending_delack() {
        let (mut a, _b) = handshake();
        let t = Instant::ZERO;
        let mut data = Segment::new(80, 49152, TcpSeq(201), TcpSeq(101), Flags::ACK | Flags::PSH);
        data.window = 1000;
        data.payload = b"hi".to_vec();
        a.on_segment_view(data.view(), Ecn::NotCapable, t);
        assert!(a.poll_transmit(t).is_none(), "delack held");
        // Forged in-window (not exact) RST: challenge ACK.
        let rst = Segment::new(80, 49152, TcpSeq(300), TcpSeq(101), Flags::RST | Flags::ACK);
        a.on_segment_view(rst.view(), Ecn::NotCapable, t);
        assert_eq!(a.state(), TcpState::Established, "forged RST ignored");
        let ack = a.poll_transmit(t).expect("one challenge ACK");
        assert!(ack.payload.is_empty());
        assert_eq!(ack.ack, TcpSeq(203), "carries the data ACK too");
        assert!(a.poll_transmit(t).is_none(), "exactly one segment");
    }

    /// RFC 5961 §5: a blind RST flood earns at most
    /// [`CHALLENGE_ACK_LIMIT`] challenge ACKs per window; the budget
    /// refills in the next window.
    #[test]
    fn challenge_acks_rate_limited_per_window() {
        let (mut a, _b) = handshake();
        let t = Instant::ZERO;
        for i in 0..50u32 {
            let rst = Segment::new(
                80,
                49152,
                TcpSeq(211 + i),
                TcpSeq(101),
                Flags::RST | Flags::ACK,
            );
            a.on_segment_view(rst.view(), Ecn::NotCapable, t);
            while a.poll_transmit(t).is_some() {}
        }
        assert_eq!(a.state(), TcpState::Established, "flood survived");
        assert_eq!(a.stats.challenge_acks, 10);
        assert_eq!(a.stats.challenge_acks_limited, 40);
        // Next window: budget refills.
        let t2 = t + Duration::from_secs(2);
        let rst = Segment::new(80, 49152, TcpSeq(300), TcpSeq(101), Flags::RST | Flags::ACK);
        a.on_segment_view(rst.view(), Ecn::NotCapable, t2);
        assert_eq!(a.stats.challenge_acks, 11);
    }

    /// A forged zero-window ACK with an inflated sequence number wedges
    /// snd_wl1 ahead of anything the genuine peer will send. The
    /// persist machinery must still probe, and a genuine
    /// window-opening ACK (losing the wl1 race) must still unfreeze
    /// the flow.
    #[test]
    fn forged_zero_window_ack_recovers_via_persist_probe() {
        let (mut a, _b) = handshake();
        let t = Instant::ZERO;
        let mut forged = Segment::new(80, 49152, TcpSeq(1201), TcpSeq(101), Flags::ACK);
        forged.window = 0;
        a.on_segment_view(forged.view(), Ecn::NotCapable, t);
        assert_eq!(a.send(b"payload"), 7);
        assert!(a.poll_transmit(t).is_none(), "frozen by forged window");
        let due = a.poll_at().expect("persist timer armed");
        a.on_timer(due);
        let probe = a.poll_transmit(due).expect("zero-window probe");
        assert!(!probe.payload.is_empty(), "probe forces a byte out");
        assert!(a.stats.zero_window_probes >= 1);
        // Genuine peer ACKs the probe byte: real seq (201, far behind
        // the forged 1201), open window.
        let mut genuine = Segment::new(80, 49152, TcpSeq(201), TcpSeq(102), Flags::ACK);
        genuine.window = 1848;
        a.on_segment_view(genuine.view(), Ecn::NotCapable, due);
        let seg = a.poll_transmit(due).expect("flow resumes");
        assert!(!seg.payload.is_empty(), "data flows after recovery");
        assert_eq!(a.close_reason(), None);
    }

    /// If nothing ever answers the probes (peer dead, or the zero
    /// window was forged and the path is black-holed), the connection
    /// must die with a supervisable CloseReason — never stall
    /// silently forever.
    #[test]
    fn unrelieved_zero_window_dies_with_persist_timeout() {
        let (mut a, _b) = handshake();
        let t = Instant::ZERO;
        let mut forged = Segment::new(80, 49152, TcpSeq(1201), TcpSeq(101), Flags::ACK);
        forged.window = 0;
        a.on_segment_view(forged.view(), Ecn::NotCapable, t);
        a.send(b"payload");
        while a.poll_transmit(t).is_some() {}
        let mut guard = 0;
        while a.state() != TcpState::Closed {
            guard += 1;
            assert!(guard < 200, "must converge, not stall");
            let due = a.poll_at().expect("a timer is always armed");
            a.on_timer(due);
            while a.poll_transmit(due).is_some() {}
        }
        assert_eq!(a.close_reason(), Some(CloseReason::PersistTimeout));
        assert!(CloseReason::PersistTimeout.is_failure());
    }
}
