//! The passive-open side of TCPlp: a listening socket with a bounded
//! RFC 4987-style SYN cache.
//!
//! A SYN parks a fixed-size entry in the cache instead of a full
//! [`TcpSocket`]; the SYN-ACK comes from the entry, and the socket is
//! built only when the handshake-completing ACK arrives. [`reset_for`]
//! builds the RST the host sends for a segment no socket or listener
//! takes.

use crate::config::TcpConfig;
use crate::input::{classify, Tcb, Verdict};
use crate::mem::{MemClass, NodeBudget, SYN_ENTRY_BYTES};
use crate::rtt::INITIAL_RTO;
use crate::seq::TcpSeq;
use crate::socket::{syn_segment, TcpSocket, TcpState};
use crate::wire::{Flags, Segment, SegmentView};
use lln_netip::{Ecn, Ipv6Addr};
use lln_sim::{Fnv1a, Instant};

/// Counters kept by a [`ListenSocket`], digestable like
/// [`TcpStats`](crate::TcpStats) so overload runs can be compared bit-for-bit.
#[derive(Clone, Copy, Debug, Default)]
pub struct ListenStats {
    /// SYNs received (including retransmissions and floods).
    pub syns_rcvd: u64,
    /// Retransmitted SYNs that matched an existing half-open entry
    /// (deduplicated: SYN-ACK re-sent, **no** second socket spawned).
    pub syn_dups: u64,
    /// Connections promoted to full sockets on handshake completion.
    pub spawned: u64,
    /// Oldest-entry evictions under cache pressure.
    pub evicted_oldest: u64,
    /// Entries reclaimed after SYN-ACK retry exhaustion.
    pub expired: u64,
    /// SYNs dropped because the accept backlog was full.
    pub backlog_denied: u64,
    /// Timer-driven SYN-ACK retransmissions.
    pub synack_rexmits: u64,
    /// Half-open entries aborted by an in-window RST.
    pub rst_aborts: u64,
    /// Non-handshake ACKs that matched no entry (the caller answers
    /// these with an RST, per RFC 4987 §3.6).
    pub bad_acks: u64,
}

impl ListenStats {
    /// Stable FNV-1a digest over every counter, in declaration order.
    pub fn digest(&self) -> u64 {
        let fields = [
            self.syns_rcvd,
            self.syn_dups,
            self.spawned,
            self.evicted_oldest,
            self.expired,
            self.backlog_denied,
            self.synack_rexmits,
            self.rst_aborts,
            self.bad_acks,
        ];
        Fnv1a::digest_words(&fields)
    }
}

/// One half-open connection: everything needed to regenerate the
/// SYN-ACK and to build the full socket if the handshake completes.
/// Costs [`SYN_ENTRY_BYTES`] against the node budget — a
/// fraction of the [`crate::mem::TCP_CB_BYTES`] + buffers a spawned
/// socket would pin.
#[derive(Clone, Debug)]
struct SynEntry {
    remote_addr: Ipv6Addr,
    remote_port: u16,
    irs: TcpSeq,
    iss: TcpSeq,
    peer_window: u16,
    peer_mss: Option<u16>,
    sack_permitted: bool,
    ts_val: Option<u32>,
    ecn: bool,
    created: Instant,
    rexmit_at: Instant,
    rexmits: u32,
}

/// What the listener decided about a segment.
#[derive(Debug)]
pub enum ListenerResponse {
    /// Not listener-relevant (the caller applies its no-socket policy,
    /// typically [`reset_for`]).
    None,
    /// Transmit this segment to the segment's source (a SYN-ACK from
    /// the cache).
    Reply(Segment),
    /// The handshake-completing ACK validated: adopt this established
    /// socket.
    Spawn(Box<TcpSocket>),
}

impl ListenerResponse {
    /// The reply segment, if that's what this is.
    pub fn into_reply(self) -> Option<Segment> {
        match self {
            ListenerResponse::Reply(s) => Some(s),
            _ => None,
        }
    }

    /// The spawned socket, if that's what this is.
    pub fn into_spawn(self) -> Option<TcpSocket> {
        match self {
            ListenerResponse::Spawn(s) => Some(*s),
            _ => None,
        }
    }
}

/// A passive (listening) socket with a bounded RFC 4987-style SYN
/// cache. The paper's §4.1 observation — passive sockets carry almost
/// no state (Tables 3-4 report 12-16 B) — extends to connection
/// *setup*: a SYN costs one fixed-size cache slot, never a full socket.
/// The socket, with its §4.3 buffers, is allocated only when the
/// handshake-completing ACK proves the peer is real.
///
/// The listener has no configuration of its own: the node's
/// [`NodeBudget`] sizes the cache and the accept backlog, and the
/// listener's [`TcpConfig`] sets the SYN-ACK retransmit schedule.
#[derive(Clone, Debug)]
pub struct ListenSocket {
    local_addr: Ipv6Addr,
    local_port: u16,
    cfg: TcpConfig,
    /// Half-open table size: the SYN-cache byte cap over
    /// [`SYN_ENTRY_BYTES`]. When full, the oldest entry is evicted.
    slots: usize,
    /// Maximum accepted-and-live connections; SYNs beyond this are
    /// dropped silently so the client retries after the flood.
    accept_backlog: usize,
    /// Half-open entries in creation order: each is pushed at the
    /// back with the current time, which never goes backwards, so the
    /// front is always the oldest.
    entries: Vec<SynEntry>,
    /// Live accepted connections, reported by the owner via
    /// [`ListenSocket::sync_backlog`]; enforces the accept backlog.
    backlog_used: usize,
    /// Counters (every deny/evict, RFC 4987 event, and dedup).
    pub stats: ListenStats,
}

impl ListenSocket {
    /// Creates a listener on `local_addr`:`port` whose SYN cache and
    /// accept backlog are sized by `budget`.
    pub fn new(cfg: TcpConfig, local_addr: Ipv6Addr, port: u16, budget: &NodeBudget) -> Self {
        let slots = budget.cap(MemClass::SynCache) / SYN_ENTRY_BYTES;
        assert!(slots > 0, "a SYN cache needs at least one slot");
        ListenSocket {
            local_addr,
            local_port: port,
            cfg,
            slots,
            accept_backlog: budget.accept_backlog,
            entries: Vec::new(),
            backlog_used: 0,
            stats: ListenStats::default(),
        }
    }

    /// The listening port.
    pub fn port(&self) -> u16 {
        self.local_port
    }

    /// The config spawned sockets inherit.
    pub fn config(&self) -> &TcpConfig {
        &self.cfg
    }

    /// Half-open connections currently cached.
    pub fn half_open(&self) -> usize {
        self.entries.len()
    }

    /// Bytes the SYN cache currently charges against the node budget.
    pub fn half_open_bytes(&self) -> usize {
        self.entries.len() * SYN_ENTRY_BYTES
    }

    /// The memory footprint a spawned connection will pin (buffers +
    /// control block); owners check this against the budget *before*
    /// letting a handshake complete.
    pub fn child_footprint(&self) -> usize {
        self.cfg.send_buf + self.cfg.recv_buf + crate::mem::TCP_CB_BYTES
    }

    /// Reports how many accepted connections are currently live so the
    /// accept-backlog limit can be enforced (the listener cannot see
    /// its children close).
    pub fn sync_backlog(&mut self, used: usize) {
        self.backlog_used = used;
    }

    /// Handles an owned segment addressed to the listening port; see
    /// [`ListenSocket::on_segment_view`].
    pub fn on_segment(
        &mut self,
        remote_addr: Ipv6Addr,
        seg: &Segment,
        iss: u32,
        now: Instant,
    ) -> ListenerResponse {
        self.on_segment_view(remote_addr, seg.view(), iss, now)
    }

    /// Handles a segment addressed to the listening port, borrowed
    /// from the wire buffer.
    ///
    /// - SYN: dedup against the cache by 4-tuple (a retransmitted SYN
    ///   re-answers with the *same* SYN-ACK — no duplicate state), or
    ///   park a new entry, evicting the oldest half-open when full.
    ///   `iss` is the initial sequence number for a new entry (drawn by
    ///   the host's RNG).
    /// - ACK: if it completes a cached handshake, the full
    ///   socket is built and returned; otherwise `None` so the caller
    ///   can RST.
    /// - RST: aborts the matching half-open entry (RFC 793).
    pub fn on_segment_view(
        &mut self,
        remote_addr: Ipv6Addr,
        seg: SegmentView<'_>,
        iss: u32,
        now: Instant,
    ) -> ListenerResponse {
        if seg.flags.contains(Flags::RST) {
            if let Some(i) = self.find(remote_addr, seg.src_port) {
                if classify(&seg, &self.tcb(&self.entries[i])) == Verdict::Reset {
                    self.entries.remove(i);
                    self.stats.rst_aborts += 1;
                }
            }
            return ListenerResponse::None;
        }
        if seg.flags.contains(Flags::SYN) && !seg.flags.contains(Flags::ACK) {
            return self.on_syn(remote_addr, seg, iss, now);
        }
        if seg.flags.contains(Flags::ACK) && !seg.flags.contains(Flags::SYN) {
            return self.on_ack(remote_addr, seg, now);
        }
        ListenerResponse::None
    }

    fn on_syn(
        &mut self,
        remote_addr: Ipv6Addr,
        seg: SegmentView<'_>,
        iss: u32,
        now: Instant,
    ) -> ListenerResponse {
        self.stats.syns_rcvd += 1;
        if let Some(i) = self.find(remote_addr, seg.src_port) {
            if seg.seq == self.entries[i].irs {
                // A retransmitted SYN from the same 4-tuple refreshes
                // the entry and re-answers — it must never mint an
                // independent connection.
                self.stats.syn_dups += 1;
                let e = &mut self.entries[i];
                e.peer_window = seg.window;
                if let Some(ts) = seg.timestamps {
                    e.ts_val = Some(ts.value);
                }
                let reply = self.synack_for(i, now);
                return ListenerResponse::Reply(reply);
            }
            // Same 4-tuple, new ISN: the peer restarted. Drop the
            // stale half-open; the fresh entry goes to the back below.
            self.entries.remove(i);
        }
        if self.backlog_used >= self.accept_backlog {
            self.stats.backlog_denied += 1;
            return ListenerResponse::None;
        }
        if self.entries.len() >= self.slots {
            // Eviction policy: oldest half-open first, which is the
            // front; established sockets are never touched.
            self.entries.remove(0);
            self.stats.evicted_oldest += 1;
        }
        debug_assert!(
            self.entries.last().is_none_or(|e| e.created <= now),
            "SYN-cache entries must stay in creation order"
        );
        self.entries.push(SynEntry {
            remote_addr,
            remote_port: seg.src_port,
            irs: seg.seq,
            iss: TcpSeq(iss),
            peer_window: seg.window,
            peer_mss: seg.mss,
            sack_permitted: seg.sack_permitted,
            ts_val: seg.timestamps.map(|t| t.value),
            ecn: seg.flags.contains(Flags::ECE) && seg.flags.contains(Flags::CWR),
            created: now,
            rexmit_at: now + INITIAL_RTO,
            rexmits: 0,
        });
        let reply = self.synack_for(self.entries.len() - 1, now);
        ListenerResponse::Reply(reply)
    }

    fn on_ack(
        &mut self,
        remote_addr: Ipv6Addr,
        seg: SegmentView<'_>,
        now: Instant,
    ) -> ListenerResponse {
        let Some(i) = self.find(remote_addr, seg.src_port) else {
            self.stats.bad_acks += 1;
            return ListenerResponse::None;
        };
        // The completing ACK need not be the bare handshake ACK: if
        // that ACK was lost, the client's first data segments still
        // carry ack == iss+1 and an in-window seq, and complete the
        // handshake (RFC 9293 SYN-RECEIVED processing). The cache cannot
        // acknowledge, so PAWS is left to the spawned socket.
        let tcb = self.tcb(&self.entries[i]);
        let paws_off = Tcb {
            ts_enabled: false,
            ..tcb
        };
        if !matches!(classify(&seg, &paws_off), Verdict::Accept { .. }) {
            self.stats.bad_acks += 1;
            return ListenerResponse::None;
        }
        let e = self.entries.remove(i);
        let mut sock = TcpSocket::accept(
            self.cfg.clone(),
            (self.local_addr, self.local_port),
            (e.remote_addr, e.remote_port),
            tcb,
            e.peer_mss,
            now,
        );
        sock.on_segment_view(seg, Ecn::NotCapable, now);
        self.stats.spawned += 1;
        ListenerResponse::Spawn(Box::new(sock))
    }

    /// Earliest SYN-ACK retransmit deadline, for the owner's timer.
    pub fn poll_at(&self) -> Option<Instant> {
        self.entries.iter().map(|e| e.rexmit_at).min()
    }

    /// Timer service: retransmits due SYN-ACKs and reclaims entries
    /// whose retries are exhausted — RFC 4987's timeout-based
    /// reclamation. SYN-RECEIVED follows the same schedule a full
    /// socket uses for its SYN: first retransmit at
    /// [`INITIAL_RTO`], doubling up to
    /// [`TcpConfig::max_rto`], reclaimed after
    /// [`TcpConfig::max_retransmits`]. A sleepy client whose handshake
    /// ACK was lost may not speak again until its first batch is due,
    /// and the entry must still be there. Returns at most one
    /// `(peer, SYN-ACK)` per call; drivers loop until `None`.
    pub fn poll_transmit(&mut self, now: Instant) -> Option<(Ipv6Addr, Segment)> {
        loop {
            let due = self.entries.iter().position(|e| e.rexmit_at <= now)?;
            if self.entries[due].rexmits >= self.cfg.max_retransmits {
                self.entries.remove(due);
                self.stats.expired += 1;
                continue;
            }
            let backoff = {
                let e = &mut self.entries[due];
                e.rexmits += 1;
                INITIAL_RTO
                    .saturating_mul(1 << e.rexmits.min(63))
                    .min(self.cfg.max_rto)
            };
            self.entries[due].rexmit_at = now + backoff;
            self.stats.synack_rexmits += 1;
            let peer = self.entries[due].remote_addr;
            let seg = self.synack_for(due, now);
            return Some((peer, seg));
        }
    }

    fn find(&self, remote_addr: Ipv6Addr, remote_port: u16) -> Option<usize> {
        self.entries
            .iter()
            .position(|e| e.remote_port == remote_port && e.remote_addr == remote_addr)
    }

    /// Builds the SYN-ACK for entry `i` (also used verbatim for dedup
    /// replies and timer retransmissions). It offers the options
    /// [`ListenSocket::tcb`] negotiated, which the promoted socket uses,
    /// and is built by the same code as a socket's own SYN-ACK, so a
    /// promoted socket's TSvals continue the sequence it started.
    fn synack_for(&self, i: usize, now: Instant) -> Segment {
        let e = &self.entries[i];
        let ports = (self.local_port, e.remote_port);
        syn_segment(&self.tcb(e), &self.cfg, ports, true, now)
    }

    /// The SYN-RECEIVED variables of entry `e`, as a socket holds them
    /// once its SYN-ACK is out.
    fn tcb(&self, e: &SynEntry) -> Tcb {
        Tcb {
            state: TcpState::SynReceived,
            iss: e.iss,
            irs: e.irs,
            snd_una: e.iss,
            snd_nxt: e.iss + 1,
            snd_max: e.iss + 1,
            snd_wnd: u32::from(e.peer_window),
            snd_wl1: e.irs,
            snd_wl2: TcpSeq(0),
            rcv_nxt: e.irs + 1,
            rcv_wnd: self.cfg.recv_buf as u32,
            ts_recent: e.ts_val.unwrap_or(0),
            ts_enabled: self.cfg.use_timestamps && e.ts_val.is_some(),
            sack_enabled: self.cfg.use_sack && e.sack_permitted,
            ecn_enabled: self.cfg.use_ecn && e.ecn,
            header_prediction: self.cfg.header_prediction,
        }
    }
}

/// Builds the RST segment RFC 793 prescribes for a segment that matched
/// no socket (used by the host dispatch layer).
pub fn reset_for(seg: &SegmentView<'_>) -> Option<Segment> {
    if seg.flags.contains(Flags::RST) {
        return None;
    }
    let mut rst = if seg.flags.contains(Flags::ACK) {
        Segment::new(seg.dst_port, seg.src_port, seg.ack, TcpSeq(0), Flags::RST)
    } else {
        let mut r = Segment::new(
            seg.dst_port,
            seg.src_port,
            TcpSeq(0),
            seg.seq + seg.seq_len(),
            Flags::RST | Flags::ACK,
        );
        r.ack = seg.seq + seg.seq_len();
        r
    };
    rst.window = 0;
    Some(rst)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::Timestamps;
    use lln_netip::NodeId;
    use lln_sim::Duration;

    fn listener(cfg: TcpConfig) -> ListenSocket {
        ListenSocket::new(cfg, NodeId(9).mesh_addr(), 80, &NodeBudget::default())
    }

    #[test]
    fn listener_caches_syn_and_spawns_on_completing_ack() {
        let mut l = listener(TcpConfig::default());
        assert_eq!(l.port(), 80);
        let t = Instant::ZERO;
        let peer = NodeId(1).mesh_addr();
        // A stray ACK matches no entry: nothing spawns, counter ticks.
        let stray = Segment::new(5, 80, TcpSeq(0), TcpSeq(0), Flags::ACK);
        assert!(l.on_segment(peer, &stray, 1, t).into_spawn().is_none());
        assert_eq!(l.stats.bad_acks, 1);
        // RST+SYN garbage is ignored.
        let rst = Segment::new(5, 80, TcpSeq(0), TcpSeq(0), Flags::RST | Flags::SYN);
        assert!(matches!(
            l.on_segment(peer, &rst, 1, t),
            ListenerResponse::None
        ));
        // A SYN parks in the cache and is answered — no socket yet.
        let mut syn = Segment::new(5, 80, TcpSeq(77), TcpSeq(0), Flags::SYN);
        syn.mss = Some(300);
        let synack = l
            .on_segment(peer, &syn, 1, t)
            .into_reply()
            .expect("SYN-ACK");
        assert!(synack.flags.contains(Flags::SYN) && synack.flags.contains(Flags::ACK));
        assert_eq!(synack.seq, TcpSeq(1));
        assert_eq!(synack.ack, TcpSeq(78));
        assert_eq!(l.half_open(), 1);
        assert_eq!(l.half_open_bytes(), SYN_ENTRY_BYTES);
        // The completing ACK builds the socket with the SYN's options.
        let mut ack = Segment::new(5, 80, TcpSeq(78), TcpSeq(2), Flags::ACK);
        ack.window = 1000;
        let s = l.on_segment(peer, &ack, 0, t).into_spawn().expect("spawn");
        assert_eq!(s.state(), TcpState::Established);
        assert_eq!(s.mss(), 300, "negotiated down to the peer's MSS");
        assert_eq!(s.remote(), (peer, 5));
        assert_eq!(l.half_open(), 0, "entry promoted and freed");
        assert_eq!(l.stats.spawned, 1);
        assert!(s.mem_footprint() > 0, "live socket pins its buffers");
    }

    /// A promoted socket carries every option negotiated from the cached
    /// SYN: timestamps (and the SYN's TSval as TS.Recent), SACK, ECN and
    /// the peer's MSS; a SYN without options leaves them all off.
    #[test]
    fn promoted_socket_carries_every_negotiated_option() {
        let cfg = TcpConfig {
            use_ecn: true,
            ..TcpConfig::default()
        };
        let peer = NodeId(1).mesh_addr();
        let promote = |syn: &Segment| {
            let mut l = listener(cfg.clone());
            let t = Instant::ZERO;
            let synack = l
                .on_segment(peer, syn, 300, t)
                .into_reply()
                .expect("SYN-ACK");
            // No timestamp on the ACK, so TS.Recent stays the SYN's.
            let mut ack = Segment::new(5, 80, syn.seq + 1, synack.seq + 1, Flags::ACK);
            ack.window = 1000;
            l.on_segment(peer, &ack, 0, t).into_spawn().expect("spawn")
        };

        let mut syn = Segment::new(5, 80, TcpSeq(77), TcpSeq(0), Flags::SYN);
        syn.flags |= Flags::ECE | Flags::CWR;
        syn.mss = Some(300);
        syn.sack_permitted = true;
        syn.timestamps = Some(Timestamps {
            value: 4242,
            echo: 0,
        });
        let mut s = promote(&syn);
        let tcb = *s.tcb();
        assert_eq!(s.state(), TcpState::Established);
        assert!(tcb.ts_enabled && tcb.sack_enabled && tcb.ecn_enabled);
        assert!(s.ecn_active());
        assert_eq!(tcb.ts_recent, 4242);
        assert_eq!(s.mss(), 300);
        s.send(&[1; 400]);
        let data = s.poll_transmit(Instant::ZERO).expect("data");
        assert_eq!(data.payload.len(), 300, "segments sized to the peer's MSS");
        assert_eq!(data.timestamps.map(|ts| ts.echo), Some(4242));

        let bare = Segment::new(5, 80, TcpSeq(77), TcpSeq(0), Flags::SYN);
        let s = promote(&bare);
        let tcb = *s.tcb();
        assert!(!tcb.ts_enabled && !tcb.sack_enabled && !tcb.ecn_enabled);
        assert_eq!(s.mss(), cfg.mss);
    }

    /// The lost-handshake-ACK fix: when the bare completing ACK is
    /// dropped in transit, the client (which moved to Established on
    /// the SYN-ACK) sends data segments whose seq sits *past* irs+1.
    /// Those must still complete the handshake — requiring seq to be
    /// exactly irs+1 strands the entry until it expires in a RST.
    #[test]
    fn lost_handshake_ack_completes_via_data_segment() {
        let mut l = listener(TcpConfig::default());
        let t = Instant::ZERO;
        let peer = NodeId(1).mesh_addr();
        let syn = Segment::new(5, 80, TcpSeq(77), TcpSeq(0), Flags::SYN);
        let _synack = l
            .on_segment(peer, &syn, 1, t)
            .into_reply()
            .expect("SYN-ACK");
        // The bare ACK (seq 78) is lost. A later data segment arrives
        // with an advanced seq but the right ack.
        let mut data = Segment::new(5, 80, TcpSeq(78 + 462), TcpSeq(2), Flags::ACK);
        data.payload = vec![0xCC; 100];
        let s = l
            .on_segment(peer, &data, 0, t + Duration::from_millis(800))
            .into_spawn()
            .expect("in-window data segment completes the handshake");
        assert_eq!(s.state(), TcpState::Established);
        assert_eq!(l.half_open(), 0);
        // A wrong-ack or far-out-of-window segment still does not.
        let syn2 = Segment::new(6, 80, TcpSeq(10), TcpSeq(0), Flags::SYN);
        let _ = l
            .on_segment(peer, &syn2, 1, t)
            .into_reply()
            .expect("SYN-ACK");
        let bad_before = l.stats.bad_acks;
        let wrong_ack = Segment::new(6, 80, TcpSeq(11), TcpSeq(999), Flags::ACK);
        assert!(l.on_segment(peer, &wrong_ack, 0, t).into_spawn().is_none());
        let far_seq = Segment::new(6, 80, TcpSeq(11 + (1 << 20)), TcpSeq(2), Flags::ACK);
        assert!(l.on_segment(peer, &far_seq, 0, t).into_spawn().is_none());
        assert_eq!(l.stats.bad_acks, bad_before + 2);
    }

    /// A retransmitted SYN from the same 4-tuple must re-answer from the
    /// existing entry, never mint a second connection.
    #[test]
    fn retransmitted_syn_deduplicates() {
        let mut l = listener(TcpConfig::default());
        let t = Instant::ZERO;
        let peer = NodeId(1).mesh_addr();
        let syn = Segment::new(5, 80, TcpSeq(77), TcpSeq(0), Flags::SYN);
        let first = l.on_segment(peer, &syn, 10, t).into_reply().unwrap();
        // Same SYN again, with a *different* candidate ISS: the cached
        // entry (and its ISS) must win.
        let again = l
            .on_segment(peer, &syn, 99, t + Duration::from_millis(500))
            .into_reply()
            .expect("dedup re-answers");
        assert_eq!(l.half_open(), 1, "one entry, not two");
        assert_eq!(l.stats.syn_dups, 1);
        assert_eq!(again.seq, first.seq, "same ISS re-offered");
        // A SYN with a new ISN from the same 4-tuple is a peer restart:
        // the stale entry is replaced, still exactly one slot used.
        let syn2 = Segment::new(5, 80, TcpSeq(500), TcpSeq(0), Flags::SYN);
        let fresh = l.on_segment(peer, &syn2, 42, t).into_reply().unwrap();
        assert_eq!(l.half_open(), 1);
        assert_eq!(fresh.ack, TcpSeq(501));
    }

    /// Under flood the cache evicts its oldest half-open entry; it
    /// never grows past its slot budget.
    #[test]
    fn syn_flood_evicts_oldest_within_slot_budget() {
        let mut budget = NodeBudget {
            accept_backlog: 64,
            ..NodeBudget::default()
        };
        budget.caps[MemClass::SynCache.idx()] = 4 * SYN_ENTRY_BYTES;
        let mut l = ListenSocket::new(TcpConfig::default(), NodeId(9).mesh_addr(), 80, &budget);
        let mut t = Instant::ZERO;
        for i in 0..20u16 {
            let syn = Segment::new(1000 + i, 80, TcpSeq(u32::from(i)), TcpSeq(0), Flags::SYN);
            let r = l.on_segment(NodeId(1).mesh_addr(), &syn, u32::from(i) * 7, t);
            assert!(r.into_reply().is_some(), "every SYN still answered");
            assert!(l.half_open() <= 4, "cache bounded at its slot count");
            t += Duration::from_millis(10);
        }
        assert_eq!(l.stats.syns_rcvd, 20);
        assert_eq!(l.stats.evicted_oldest, 16);
        assert_eq!(l.half_open_bytes(), 4 * SYN_ENTRY_BYTES);
        // The four survivors are the newest four (oldest-first policy).
        let survivors: Vec<u16> = l.entries.iter().map(|e| e.remote_port).collect();
        assert_eq!(survivors, vec![1016, 1017, 1018, 1019]);
    }

    /// A four-slot listener holding SYNs from ports 1000..1004, one
    /// every 10 ms starting at zero.
    fn full_cache() -> (ListenSocket, Instant) {
        let mut budget = NodeBudget::default();
        budget.caps[MemClass::SynCache.idx()] = 4 * SYN_ENTRY_BYTES;
        let mut l = ListenSocket::new(TcpConfig::default(), NodeId(9).mesh_addr(), 80, &budget);
        let mut t = Instant::ZERO;
        for i in 0..4u16 {
            let syn = Segment::new(1000 + i, 80, TcpSeq(u32::from(i)), TcpSeq(0), Flags::SYN);
            let r = l.on_segment(NodeId(1).mesh_addr(), &syn, 7, t);
            assert!(r.into_reply().is_some());
            t += Duration::from_millis(10);
        }
        (l, t)
    }

    fn cached_ports(l: &ListenSocket) -> Vec<u16> {
        l.entries.iter().map(|e| e.remote_port).collect()
    }

    /// A duplicate SYN refreshes its entry in place: the entry keeps
    /// its age, so it is still the one a full cache evicts next.
    #[test]
    fn full_cache_evicts_oldest_after_duplicate_refresh() {
        let (mut l, t) = full_cache();
        let peer = NodeId(1).mesh_addr();
        let dup = Segment::new(1000, 80, TcpSeq(0), TcpSeq(0), Flags::SYN);
        assert!(l.on_segment(peer, &dup, 7, t).into_reply().is_some());
        assert_eq!(l.stats.syn_dups, 1);
        let syn = Segment::new(2000, 80, TcpSeq(50), TcpSeq(0), Flags::SYN);
        let _ = l.on_segment(peer, &syn, 7, t + Duration::from_millis(10));
        assert_eq!(l.stats.evicted_oldest, 1);
        assert_eq!(cached_ports(&l), vec![1001, 1002, 1003, 2000]);
    }

    /// A same-tuple SYN with a new ISN is a fresh entry created now, so
    /// it moves to the back and the next-oldest entry is evicted.
    #[test]
    fn full_cache_evicts_oldest_after_same_tuple_restart() {
        let (mut l, t) = full_cache();
        let peer = NodeId(1).mesh_addr();
        let restart = Segment::new(1000, 80, TcpSeq(900), TcpSeq(0), Flags::SYN);
        assert!(l.on_segment(peer, &restart, 7, t).into_reply().is_some());
        assert_eq!(cached_ports(&l), vec![1001, 1002, 1003, 1000]);
        let syn = Segment::new(2000, 80, TcpSeq(50), TcpSeq(0), Flags::SYN);
        let _ = l.on_segment(peer, &syn, 7, t + Duration::from_millis(10));
        assert_eq!(l.stats.evicted_oldest, 1);
        assert_eq!(cached_ports(&l), vec![1002, 1003, 1000, 2000]);
    }

    /// The owned entry point and the view entry point agree on a seeded
    /// mix of SYNs, retransmitted SYNs, ACKs (good and bad) and RSTs.
    /// The view side decodes each segment from its wire bytes, as the
    /// host does.
    #[test]
    fn owned_and_view_entry_points_agree() {
        let mut budget = NodeBudget::default();
        budget.caps[MemClass::SynCache.idx()] = 4 * SYN_ENTRY_BYTES;
        let local = NodeId(9).mesh_addr();
        let mut owned = ListenSocket::new(TcpConfig::default(), local, 80, &budget);
        let mut viewed = owned.clone();
        let mut rng = lln_sim::Rng::new(0x11_57e4);
        let mut wire = Vec::new();
        let mut t = Instant::ZERO;
        // (peer, port, irs, iss) of SYNs sent so far.
        let mut sent: Vec<(Ipv6Addr, u16, TcpSeq, TcpSeq)> = Vec::new();
        for _ in 0..2000 {
            t += Duration::from_millis(rng.gen_range(400));
            let pick = (!sent.is_empty()).then(|| sent[rng.gen_range(sent.len() as u64) as usize]);
            let (peer, seg) = match (rng.gen_range(5), pick) {
                (0, Some((peer, port, irs, _))) => {
                    (peer, Segment::new(port, 80, irs, TcpSeq(0), Flags::SYN))
                }
                (1, Some((peer, port, irs, iss))) => {
                    let ack = if rng.gen_bool(0.7) { iss + 1 } else { iss + 9 };
                    (peer, Segment::new(port, 80, irs + 1, ack, Flags::ACK))
                }
                (2, Some((peer, port, irs, _))) => {
                    let seq = if rng.gen_bool(0.5) { irs + 1 } else { irs + 77 };
                    (peer, Segment::new(port, 80, seq, TcpSeq(0), Flags::RST))
                }
                _ => {
                    let peer = NodeId(rng.gen_range(3) as u16 + 1).mesh_addr();
                    let port = 1000 + rng.gen_range(8) as u16;
                    let irs = TcpSeq(rng.next_u64() as u32);
                    let mut syn = Segment::new(port, 80, irs, TcpSeq(0), Flags::SYN);
                    syn.mss = Some(300);
                    (peer, syn)
                }
            };
            let iss = rng.next_u64() as u32;
            seg.encode_into(peer, local, &mut wire);
            let view = Segment::decode_view(peer, local, &wire).expect("valid encoding");
            let a = owned.on_segment(peer, &seg, iss, t);
            let b = viewed.on_segment_view(peer, view, iss, t);
            match (a, b) {
                (ListenerResponse::None, ListenerResponse::None) => {}
                (ListenerResponse::Reply(x), ListenerResponse::Reply(y)) => {
                    assert_eq!(x, y);
                    if seg.flags == Flags::SYN && !sent.iter().any(|s| s.2 == seg.seq) {
                        sent.push((peer, seg.src_port, seg.seq, x.seq));
                    }
                }
                (ListenerResponse::Spawn(x), ListenerResponse::Spawn(y)) => {
                    assert_eq!(x.state(), y.state());
                    assert_eq!(x.remote(), y.remote());
                    assert_eq!(x.stats.digest(), y.stats.digest());
                }
                (x, y) => panic!("responses differ: {x:?} vs {y:?}"),
            }
            assert_eq!(owned.stats.digest(), viewed.stats.digest());
        }
        assert!(owned.stats.spawned > 0 && owned.stats.rst_aborts > 0);
        assert!(owned.stats.syn_dups > 0 && owned.stats.evicted_oldest > 0);
        assert!(owned.stats.bad_acks > 0);
    }

    /// SYN-ACKs retransmit on the listener's own RTO schedule (the one a
    /// full socket uses for its SYN) and the entry is reclaimed after
    /// `max_retransmits` — RFC 4987 timeout reclamation.
    #[test]
    fn half_open_entries_retransmit_then_expire() {
        let cfg = TcpConfig {
            max_retransmits: 4,
            max_rto: Duration::from_secs(5),
            ..TcpConfig::default()
        };
        let mut l = listener(cfg);
        let t0 = Instant::ZERO;
        let syn = Segment::new(5, 80, TcpSeq(77), TcpSeq(0), Flags::SYN);
        let _ = l.on_segment(NodeId(1).mesh_addr(), &syn, 10, t0);
        // Retransmits at +1 s, +3 s, +7 s, then +12 s (the 8 s backoff
        // capped at max_rto = 5 s).
        let mut sent = Vec::new();
        while let Some(at) = l.poll_at() {
            match l.poll_transmit(at) {
                Some((peer, s)) => {
                    assert_eq!(peer, NodeId(1).mesh_addr());
                    assert!(s.flags.contains(Flags::SYN) && s.flags.contains(Flags::ACK));
                    sent.push(at.as_micros() / 1_000_000);
                }
                None => {
                    // Retries exhausted: the next due poll reclaims.
                    assert_eq!(at, t0 + Duration::from_secs(17));
                }
            }
        }
        assert_eq!(sent, vec![1, 3, 7, 12]);
        assert_eq!(l.stats.synack_rexmits, 4);
        assert_eq!(l.half_open(), 0);
        assert_eq!(l.stats.expired, 1);
    }

    /// Fig. 9a silent-sensor regression. A sleepy client's handshake ACK
    /// is lost, and the SYN-ACK retransmits go unanswered while the
    /// client sleeps. Its first data segment leaves with the first
    /// 64-reading batch, 64 s after the SYN, and must still find the
    /// entry: otherwise it counts as a bad ACK, the client is reset, and
    /// the sensor goes silent.
    #[test]
    fn sleepy_client_first_data_completes_handshake_after_64s() {
        let mut l = listener(TcpConfig::default());
        let t0 = Instant::ZERO;
        let peer = NodeId(1).mesh_addr();
        let syn = Segment::new(5, 80, TcpSeq(77), TcpSeq(0), Flags::SYN);
        let synack = l
            .on_segment(peer, &syn, 10, t0)
            .into_reply()
            .expect("SYN-ACK");
        let wake = t0 + Duration::from_secs(64);
        while let Some(at) = l.poll_at().filter(|&at| at <= wake) {
            let _ = l.poll_transmit(at);
        }
        let mut data = Segment::new(5, 80, TcpSeq(78), synack.seq + 1, Flags::ACK | Flags::PSH);
        data.payload = vec![0xAB; 82];
        let s = l
            .on_segment(peer, &data, 0, wake)
            .into_spawn()
            .expect("first data segment completes the handshake");
        assert_eq!(s.state(), TcpState::Established);
        assert_eq!(s.available(), 82);
        assert_eq!(l.stats.bad_acks, 0);
        assert_eq!(l.stats.expired, 0);
    }

    /// The accept-backlog limit drops SYNs while enough accepted
    /// children are alive, and admits again once they close.
    #[test]
    fn accept_backlog_limits_new_syns() {
        let budget = NodeBudget {
            accept_backlog: 2,
            ..NodeBudget::default()
        };
        let mut l = ListenSocket::new(TcpConfig::default(), NodeId(9).mesh_addr(), 80, &budget);
        let t = Instant::ZERO;
        l.sync_backlog(2);
        let syn = Segment::new(5, 80, TcpSeq(77), TcpSeq(0), Flags::SYN);
        assert!(matches!(
            l.on_segment(NodeId(1).mesh_addr(), &syn, 10, t),
            ListenerResponse::None
        ));
        assert_eq!(l.stats.backlog_denied, 1);
        l.sync_backlog(1);
        assert!(l
            .on_segment(NodeId(1).mesh_addr(), &syn, 10, t)
            .into_reply()
            .is_some());
    }

    /// An acceptable RST tears down the matching half-open entry.
    #[test]
    fn rst_aborts_half_open_entry() {
        let mut l = listener(TcpConfig::default());
        let t = Instant::ZERO;
        let peer = NodeId(1).mesh_addr();
        let syn = Segment::new(5, 80, TcpSeq(77), TcpSeq(0), Flags::SYN);
        let _ = l.on_segment(peer, &syn, 10, t);
        // Out-of-window RST ignored.
        let bad = Segment::new(5, 80, TcpSeq(5000), TcpSeq(0), Flags::RST);
        let _ = l.on_segment(peer, &bad, 0, t);
        assert_eq!(l.half_open(), 1);
        // RST at rcv_nxt (irs+1) aborts.
        let rst = Segment::new(5, 80, TcpSeq(78), TcpSeq(0), Flags::RST);
        let _ = l.on_segment(peer, &rst, 0, t);
        assert_eq!(l.half_open(), 0);
        assert_eq!(l.stats.rst_aborts, 1);
    }

    /// Listener stats digest is stable and counter-sensitive, like
    /// `TcpStats::digest`.
    #[test]
    fn listen_stats_digest_sensitivity() {
        let a = ListenStats::default();
        let mut b = ListenStats::default();
        assert_eq!(a.digest(), b.digest());
        b.syn_dups = 1;
        assert_ne!(a.digest(), b.digest());
    }
}
