//! Stage 1 of TCP input: the pure segment classifier.
//!
//! Segment input runs in three stages, after the split Laminar makes
//! (stateless pre-processing, a small per-flow protocol step, then
//! effects):
//!
//! 1. [`classify`] reads a segment and the connection's [`Tcb`] and
//!    returns a [`Verdict`]. It writes nothing, so every acceptance
//!    decision can be checked as a table without building a socket.
//! 2. The socket runs one step sequence (`TcpSocket::step`) for every
//!    [`Verdict::Accept`]ed segment: ACK, SACK and window processing,
//!    payload, FIN. `TcpSocket::on_segment_view` acts on the other
//!    verdicts directly.
//! 3. The effects: receive-buffer writes, timers, and the output flags
//!    that `TcpSocket::poll_transmit` turns into segments.
//!
//! The SYN cache classifies against a [`Tcb`] built from its entry, so
//! a half-open connection's SYN-RECEIVED checks are the same code as a
//! socket's.

use crate::seq::TcpSeq;
use crate::socket::TcpState;
use crate::wire::{Flags, SegmentView};

/// The RFC 9293 connection variables that decide what a segment means
/// (names as in RFC 9293 §3.3.1, plus RFC 7323's `TS.Recent`).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct Tcb {
    /// Connection state.
    pub state: TcpState,
    /// ISS: initial send sequence number.
    pub iss: TcpSeq,
    /// IRS: initial receive sequence number.
    pub irs: TcpSeq,
    /// SND.UNA: oldest unacknowledged sequence number.
    pub snd_una: TcpSeq,
    /// SND.NXT: next sequence number to send (rewound by a timeout).
    pub snd_nxt: TcpSeq,
    /// SND.MAX: highest sequence number sent so far.
    pub snd_max: TcpSeq,
    /// SND.WND: the peer's advertised window.
    pub snd_wnd: u32,
    /// SND.WL1: segment sequence number of the last window update.
    pub snd_wl1: TcpSeq,
    /// SND.WL2: segment acknowledgment number of the last window update.
    pub snd_wl2: TcpSeq,
    /// RCV.NXT: next sequence number expected.
    pub rcv_nxt: TcpSeq,
    /// RCV.WND: free space in the receive buffer.
    pub rcv_wnd: u32,
    /// TS.Recent: the peer's timestamp to echo and to check PAWS against.
    pub ts_recent: u32,
    /// Timestamps negotiated (RFC 7323).
    pub ts_enabled: bool,
    /// SACK negotiated (RFC 2018).
    pub sack_enabled: bool,
    /// ECN negotiated (RFC 3168).
    pub ecn_enabled: bool,
    /// Header prediction on ([`crate::TcpConfig::header_prediction`]).
    pub header_prediction: bool,
}

/// What [`classify`] decided about a segment.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Verdict {
    /// Discard silently.
    Drop,
    /// Discard and acknowledge: the segment is not acceptable
    /// (RFC 9293 §3.10.7.4, first check).
    DropAck,
    /// Discard, count and acknowledge: the timestamp is older than
    /// `TS.Recent` (PAWS, RFC 7323 §5.3).
    Paws,
    /// Discard and send a rate-limited challenge ACK: an in-window RST
    /// that is not exact, or an in-window SYN (RFC 5961 §§3-4).
    Challenge,
    /// The peer reset the connection: an exact RST, or in SYN-SENT a
    /// RST with an acceptable ACK.
    Reset,
    /// Record `TS.Recent`, discard and answer with a RST: an
    /// unacceptable ACK in SYN-SENT or SYN-RECEIVED. (In SYN-SENT the
    /// record is never read: the SYN overwrites or disables it.)
    SendRst,
    /// Record `TS.Recent`, discard and acknowledge: the ACK covers data
    /// never sent (SEG.ACK > SND.MAX).
    AckUnsent,
    /// SYN-SENT received the peer's SYN-ACK, or a bare SYN
    /// (simultaneous open).
    Open {
        /// The SYN carried no ACK.
        simultaneous: bool,
    },
    /// Record `TS.Recent` and run the accepted-segment steps.
    Accept {
        /// The header-prediction class the segment matched, if any.
        predicted: Option<Predicted>,
    },
}

/// The two segment classes header prediction (FreeBSD's fast path)
/// recognises in ESTABLISHED.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Predicted {
    /// The next pure ACK of new data, with an unchanged window.
    Ack,
    /// The next in-order data segment, acknowledging nothing new.
    Data,
}

/// Stage 1: decides what `seg` means for a connection in `tcb`. This is
/// the only code that applies PAWS, the §3.10.7.4 acceptability test,
/// the RFC 5961 RST/SYN rules, the no-ACK drop and the ACK checks of
/// SYN-SENT and SYN-RECEIVED.
pub fn classify(seg: &SegmentView<'_>, tcb: &Tcb) -> Verdict {
    match tcb.state {
        TcpState::Closed => Verdict::Drop,
        TcpState::SynSent => classify_syn_sent(seg, tcb),
        _ => classify_synchronized(seg, tcb),
    }
}

/// RFC 9293 §3.10.7.3.
fn classify_syn_sent(seg: &SegmentView<'_>, tcb: &Tcb) -> Verdict {
    let has_ack = seg.flags.contains(Flags::ACK);
    let rst = seg.flags.contains(Flags::RST);
    if has_ack && (seg.ack.le(tcb.iss) || seg.ack.gt(tcb.snd_max)) {
        return if rst { Verdict::Drop } else { Verdict::SendRst };
    }
    if rst {
        return if has_ack {
            Verdict::Reset
        } else {
            Verdict::Drop
        };
    }
    if !seg.flags.contains(Flags::SYN) {
        return Verdict::Drop;
    }
    Verdict::Open {
        simultaneous: !has_ack,
    }
}

/// RFC 9293 §3.10.7.4, for SYN-RECEIVED and every later state.
fn classify_synchronized(seg: &SegmentView<'_>, tcb: &Tcb) -> Verdict {
    let rst = seg.flags.contains(Flags::RST);
    let stale = seg
        .timestamps
        .is_some_and(|ts| ts_lt(ts.value, tcb.ts_recent));
    if tcb.ts_enabled && !rst && stale {
        return Verdict::Paws;
    }
    if let Some(p) = predict(seg, tcb) {
        return Verdict::Accept { predicted: Some(p) };
    }
    if !acceptable(seg, tcb) {
        return if rst { Verdict::Drop } else { Verdict::DropAck };
    }
    if rst {
        return if seg.seq == tcb.rcv_nxt {
            Verdict::Reset
        } else {
            Verdict::Challenge
        };
    }
    if seg.flags.contains(Flags::SYN) {
        return Verdict::Challenge;
    }
    if !seg.flags.contains(Flags::ACK) {
        return Verdict::Drop;
    }
    if tcb.state == TcpState::SynReceived {
        if !(seg.ack.gt(tcb.snd_una) && seg.ack.le(tcb.snd_max)) {
            return Verdict::SendRst;
        }
    } else if seg.ack.gt(tcb.snd_max) {
        return Verdict::AckUnsent;
    }
    Verdict::Accept { predicted: None }
}

/// Header prediction: in the established steady state almost every
/// segment is the next pure ACK or the next in-order data segment. Both
/// pass every check after PAWS, so recognising them early skips those
/// checks and nothing else.
fn predict(seg: &SegmentView<'_>, tcb: &Tcb) -> Option<Predicted> {
    let plain = seg.flags.contains(Flags::ACK)
        && !seg
            .flags
            .intersects(Flags::FIN | Flags::SYN | Flags::RST | Flags::URG);
    let next = tcb.state == TcpState::Established && seg.seq == tcb.rcv_nxt;
    if !(tcb.header_prediction && next && plain) {
        None
    } else if seg.payload.is_empty() {
        let new_ack = seg.ack.gt(tcb.snd_una) && seg.ack.le(tcb.snd_max);
        (new_ack && u32::from(seg.window) == tcb.snd_wnd).then_some(Predicted::Ack)
    } else {
        (seg.ack == tcb.snd_una && tcb.rcv_wnd > 0).then_some(Predicted::Data)
    }
}

/// The segment acceptability test (RFC 9293 §3.10.7.4, table of four
/// cases).
fn acceptable(seg: &SegmentView<'_>, tcb: &Tcb) -> bool {
    let (seq, len, wnd) = (seg.seq, seg.seq_len(), tcb.rcv_wnd);
    match (len, wnd) {
        (0, 0) => seq == tcb.rcv_nxt,
        (0, _) => seq.in_window(tcb.rcv_nxt, wnd),
        (_, 0) => false,
        _ => {
            seq.in_window(tcb.rcv_nxt, wnd)
                || (seq + (len - 1)).in_window(tcb.rcv_nxt, wnd)
                || tcb.rcv_nxt.in_window(seq, len)
        }
    }
}

/// Modular "less than" for 32-bit timestamps (RFC 7323).
pub(crate) fn ts_lt(a: u32, b: u32) -> bool {
    (b.wrapping_sub(a) as i32) > 0
}
