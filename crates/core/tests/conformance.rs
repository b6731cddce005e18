//! The TCP state machine against RFC 9293, as a table.
//!
//! Two halves:
//!
//! - **Classifier rows** map `(state × segment class)` to the
//!   [`Verdict`] of [`classify`]. They build no socket: a [`Tcb`] and a
//!   segment are all the classifier reads.
//! - **Transition rows** drive real sockets (and the SYN cache) through
//!   the public API and check `(state × segment) → (verdict, next
//!   state, what goes out)`, including simultaneous open and
//!   simultaneous close.
//! - **Output rows** check what a real socket chooses to send: Nagle,
//!   a window-limited send, the zero-window probe, the SACK-hole budget,
//!   the FIN and its retransmission, the RST and the keepalive probe.
//!
//! Rows marked `DEVIATION` pin what the code does today where it
//! differs from the cited RFC clause; EXPERIMENTS.md "Known deviations"
//! lists them. Fixing one is a behaviour change and moves this table.

use lln_netip::{Ecn, NodeId};
use lln_sim::{Duration, Instant};
use tcplp::{
    classify, Flags, ListenSocket, ListenerResponse, NodeBudget, Predicted, SackBlock, Segment,
    Tcb, TcpConfig, TcpSeq, TcpSocket, TcpState, Timestamps, Verdict,
};

use TcpState::*;

const CLIENT: u16 = 49152;
const SERVER: u16 = 80;

const ACCEPT: Verdict = Verdict::Accept { predicted: None };
const PREDICTED_ACK: Verdict = Verdict::Accept {
    predicted: Some(Predicted::Ack),
};
const PREDICTED_DATA: Verdict = Verdict::Accept {
    predicted: Some(Predicted::Data),
};
const OPEN: Verdict = Verdict::Open {
    simultaneous: false,
};
const SIM_OPEN: Verdict = Verdict::Open { simultaneous: true };
const ACK: Flags = Flags::ACK;
const RST_ACK: Flags = Flags::RST.union(Flags::ACK);
const SYN_ACK: Flags = Flags::SYN.union(Flags::ACK);
const FIN_ACK: Flags = Flags::FIN.union(Flags::ACK);
const PSH_ACK: Flags = Flags::PSH.union(Flags::ACK);

// ----------------------------------------------------------------------
// Classifier rows
// ----------------------------------------------------------------------

/// The synchronized states, in the column order of [`SYNCHRONIZED`].
const COLUMNS: [TcpState; 8] = [
    SynReceived,
    Established,
    FinWait1,
    FinWait2,
    CloseWait,
    Closing,
    LastAck,
    TimeWait,
];

/// A connection in `state` with 200 bytes in flight (1 in SYN-RECEIVED:
/// the SYN), a 1000-byte window each way and timestamps on.
fn tcb(state: TcpState) -> Tcb {
    let in_flight = if state == SynReceived { 1 } else { 200 };
    let snd_una = if state == SynReceived { 1000 } else { 1001 };
    Tcb {
        state,
        iss: TcpSeq(1000),
        irs: TcpSeq(5000),
        snd_una: TcpSeq(snd_una),
        snd_nxt: TcpSeq(snd_una + in_flight),
        snd_max: TcpSeq(snd_una + in_flight),
        snd_wnd: 1000,
        snd_wl1: TcpSeq(5001),
        snd_wl2: TcpSeq(1001),
        rcv_nxt: TcpSeq(5001),
        rcv_wnd: 1000,
        ts_recent: 500,
        ts_enabled: true,
        sack_enabled: true,
        ecn_enabled: false,
        header_prediction: true,
    }
}

#[derive(Clone, Copy, Debug)]
enum Class {
    /// Acknowledges everything sent (SND.UNA < SEG.ACK ≤ SND.MAX).
    NewAck,
    /// SEG.ACK = SND.UNA.
    DupAck,
    /// SEG.ACK > SND.MAX.
    TooNewAck,
    /// SEG.ACK 50 000 below SND.UNA, as the adversary's stale-ACK
    /// rewrite sends.
    OldAck,
    /// 100 bytes at RCV.NXT.
    InOrderData,
    /// 10 bytes past RCV.NXT + RCV.WND.
    OutOfWindowSeq,
    /// RST at RCV.NXT.
    RstExact,
    /// RST inside the window, not at RCV.NXT.
    RstInWindow,
    /// RST past the window.
    RstOutOfWindow,
    /// SYN inside the window.
    SynInWindow,
    /// 100 bytes at RCV.NXT without the ACK bit.
    NoAck,
    /// A pure ACK whose TSval is older than TS.Recent.
    StalePaws,
    /// FIN at RCV.NXT.
    InOrderFin,
    /// FIN 100 bytes past RCV.NXT.
    FinBeyondHole,
}

/// A segment of class `c` addressed to a connection in `t`.
fn segment(c: Class, t: &Tcb) -> Segment {
    let seg = |seq: TcpSeq, ack: TcpSeq, flags: Flags, len: usize| {
        let mut s = Segment::new(SERVER, CLIENT, seq, ack, flags);
        s.window = t.snd_wnd as u16;
        s.payload = vec![0x5A; len];
        if !flags.contains(Flags::RST) {
            s.timestamps = Some(Timestamps {
                value: t.ts_recent + 1,
                echo: 0,
            });
        }
        s
    };
    let (nxt, una) = (t.rcv_nxt, t.snd_una);
    match c {
        Class::NewAck => seg(nxt, t.snd_max, ACK, 0),
        Class::DupAck => seg(nxt, una, ACK, 0),
        Class::TooNewAck => seg(nxt, t.snd_max + 100, ACK, 0),
        Class::OldAck => seg(nxt, una - 50_000, ACK, 0),
        Class::InOrderData => seg(nxt, una, ACK | Flags::PSH, 100),
        Class::OutOfWindowSeq => seg(nxt + t.rcv_wnd + 10, una, ACK, 10),
        Class::RstExact => seg(nxt, TcpSeq(0), Flags::RST, 0),
        Class::RstInWindow => seg(nxt + 10, TcpSeq(0), Flags::RST, 0),
        Class::RstOutOfWindow => seg(nxt + t.rcv_wnd + 10, TcpSeq(0), Flags::RST, 0),
        Class::SynInWindow => seg(nxt + 10, TcpSeq(0), Flags::SYN, 0),
        Class::NoAck => seg(nxt, TcpSeq(0), Flags::PSH, 100),
        Class::StalePaws => {
            let mut s = seg(nxt, una, ACK, 0);
            s.timestamps = Some(Timestamps {
                value: t.ts_recent - 1,
                echo: 0,
            });
            s
        }
        Class::InOrderFin => seg(nxt, una, FIN_ACK, 0),
        Class::FinBeyondHole => seg(nxt + 100, una, FIN_ACK, 0),
    }
}

/// RFC 9293 §3.10.7.4 for the synchronized states. Columns follow
/// [`COLUMNS`]: SYN-RECEIVED, ESTABLISHED, FIN-WAIT-1, FIN-WAIT-2,
/// CLOSE-WAIT, CLOSING, LAST-ACK, TIME-WAIT.
#[rustfmt::skip]
const SYNCHRONIZED: [(Class, [Verdict; 8]); 14] = {
    use Verdict::*;
    const A: Verdict = ACCEPT;
    const R: Verdict = SendRst;
    const U: Verdict = AckUnsent;
    [
        // SYN-RECEIVED needs the ACK of its SYN; ESTABLISHED predicts it.
        (Class::NewAck, [A, PREDICTED_ACK, A, A, A, A, A, A]),
        (Class::DupAck, [R, A, A, A, A, A, A, A]),
        (Class::TooNewAck, [R, U, U, U, U, U, U, U]),
        // DEVIATION (RFC 5961 §5): no lower bound on SEG.ACK, so an ACK
        // far below SND.UNA is accepted.
        (Class::OldAck, [R, A, A, A, A, A, A, A]),
        // Payload outside ESTABLISHED/FIN-WAIT-1/2 is accepted here and
        // ignored by the step sequence.
        (Class::InOrderData, [R, PREDICTED_DATA, A, A, A, A, A, A]),
        (Class::OutOfWindowSeq, [DropAck; 8]),
        (Class::RstExact, [Reset; 8]),
        (Class::RstInWindow, [Challenge; 8]),
        (Class::RstOutOfWindow, [Drop; 8]),
        (Class::SynInWindow, [Challenge; 8]),
        (Class::NoAck, [Drop; 8]),
        (Class::StalePaws, [Paws; 8]),
        (Class::InOrderFin, [R, A, A, A, A, A, A, A]),
        (Class::FinBeyondHole, [R, A, A, A, A, A, A, A]),
    ]
};

#[test]
fn classifier_table_synchronized_states() {
    for (class, verdicts) in SYNCHRONIZED {
        for (state, want) in COLUMNS.into_iter().zip(verdicts) {
            let t = tcb(state);
            let seg = segment(class, &t);
            assert_eq!(classify(&seg.view(), &t), want, "{state:?} × {class:?}");
        }
    }
}

/// Header prediction only skips checks: with it off, every row gives
/// the same verdict minus the predicted class.
#[test]
fn classifier_prediction_is_only_a_shortcut() {
    for (class, _) in SYNCHRONIZED {
        for state in COLUMNS {
            let on = tcb(state);
            let off = Tcb {
                header_prediction: false,
                ..on
            };
            let seg = segment(class, &on);
            let unpredicted = match classify(&seg.view(), &on) {
                Verdict::Accept { .. } => ACCEPT,
                v => v,
            };
            assert_eq!(
                classify(&seg.view(), &off),
                unpredicted,
                "{state:?} × {class:?}"
            );
        }
    }
}

/// The four acceptability cases of RFC 9293 §3.10.7.4 at their edges.
#[test]
fn classifier_acceptability_cases() {
    let t = tcb(Established);
    let closed = Tcb { rcv_wnd: 0, ..t };
    let at = |seq: TcpSeq, len: usize| {
        let mut s = segment(Class::DupAck, &t);
        s.seq = seq;
        s.payload = vec![1; len];
        s
    };
    let nxt = t.rcv_nxt;
    let rows: [(&Tcb, Segment, Verdict); 9] = [
        // Zero length, zero window: only SEG.SEQ = RCV.NXT.
        (&closed, at(nxt, 0), ACCEPT),
        (&closed, at(nxt + 1, 0), Verdict::DropAck),
        // Data into a zero window: never acceptable.
        (&closed, at(nxt, 10), Verdict::DropAck),
        // Zero length, open window: RCV.NXT ≤ SEG.SEQ < RCV.NXT+RCV.WND.
        (&t, at(nxt + 999, 0), ACCEPT),
        (&t, at(nxt + 1000, 0), Verdict::DropAck),
        (&t, at(nxt - 1, 0), Verdict::DropAck),
        // Data, open window: either end inside the window.
        (&t, at(nxt - 5, 10), ACCEPT),
        (&t, at(nxt + 995, 10), ACCEPT),
        (&t, at(nxt - 10, 10), Verdict::DropAck),
    ];
    for (k, (tcb, seg, want)) in rows.into_iter().enumerate() {
        assert_eq!(classify(&seg.view(), tcb), want, "row {k}");
    }
}

/// RFC 9293 §3.10.7.3 (SYN-SENT) and CLOSED.
#[test]
fn classifier_table_syn_sent_and_closed() {
    let t = Tcb {
        state: SynSent,
        iss: TcpSeq(1000),
        snd_una: TcpSeq(1000),
        snd_nxt: TcpSeq(1001),
        snd_max: TcpSeq(1001),
        ts_enabled: true,
        ..Tcb::default()
    };
    let seg =
        |ack: u32, flags: Flags| Segment::new(SERVER, CLIENT, TcpSeq(7000), TcpSeq(ack), flags);
    let rows = [
        (seg(1001, SYN_ACK), OPEN),
        (seg(0, Flags::SYN), SIM_OPEN),
        (seg(1000, ACK), Verdict::SendRst),
        (seg(1002, SYN_ACK), Verdict::SendRst),
        (seg(1002, RST_ACK), Verdict::Drop),
        (seg(1001, RST_ACK), Verdict::Reset),
        (seg(0, Flags::RST), Verdict::Drop),
        (seg(1001, ACK), Verdict::Drop),
    ];
    for (k, (s, want)) in rows.iter().enumerate() {
        assert_eq!(classify(&s.view(), &t), *want, "SYN-SENT row {k}");
        let closed = Tcb { state: Closed, ..t };
        assert_eq!(
            classify(&s.view(), &closed),
            Verdict::Drop,
            "CLOSED row {k}"
        );
    }
}

// ----------------------------------------------------------------------
// Transition rows
// ----------------------------------------------------------------------

fn cfg() -> TcpConfig {
    TcpConfig::default()
}

fn t0() -> Instant {
    Instant::ZERO
}

/// Everything `s` sends now.
fn drain(s: &mut TcpSocket) -> Vec<Segment> {
    std::iter::from_fn(|| s.poll_transmit(t0())).collect()
}

/// One transition row: feeds `seg` to `s`, checks the verdict
/// `classify` gives for the socket's variables, the state after and
/// the flags of what goes out, and returns what went out.
fn row(
    name: &str,
    s: &mut TcpSocket,
    seg: &Segment,
    verdict: Verdict,
    next: TcpState,
    out: &[Flags],
) -> Vec<Segment> {
    assert_eq!(classify(&seg.view(), s.tcb()), verdict, "{name}: verdict");
    s.on_segment_view(seg.view(), Ecn::NotCapable, t0());
    assert_eq!(s.state(), next, "{name}: next state");
    let sent = drain(s);
    let flags: Vec<Flags> = sent.iter().map(|x| x.flags).collect();
    assert_eq!(flags, out, "{name}: what goes out");
    sent
}

/// A segment from the peer of `s`, in sequence for it: seq RCV.NXT,
/// TSval = TS.Recent, an unchanged window.
fn from_peer(s: &TcpSocket, ack: TcpSeq, flags: Flags) -> Segment {
    let t = s.tcb();
    let mut seg = Segment::new(s.remote().1, s.local().1, t.rcv_nxt, ack, flags);
    seg.window = t.snd_wnd as u16;
    if t.ts_enabled {
        seg.timestamps = Some(Timestamps {
            value: t.ts_recent,
            echo: 0,
        });
    }
    seg
}

/// A client in SYN-SENT whose SYN is out.
fn syn_sent() -> TcpSocket {
    let mut a = TcpSocket::new(cfg(), NodeId(1).mesh_addr(), CLIENT);
    a.connect(NodeId(2).mesh_addr(), SERVER, 1000, t0());
    assert_eq!(drain(&mut a).len(), 1, "the SYN");
    a
}

/// An established (client, server) pair from a cached handshake.
fn established() -> (TcpSocket, TcpSocket) {
    established_with(cfg())
}

/// [`established`] with both ends configured by `cfg`.
fn established_with(cfg: TcpConfig) -> (TcpSocket, TcpSocket) {
    let (a_addr, b_addr) = (NodeId(1).mesh_addr(), NodeId(2).mesh_addr());
    let mut a = TcpSocket::new(cfg.clone(), a_addr, CLIENT);
    let mut l = ListenSocket::new(cfg, b_addr, SERVER, &NodeBudget::default());
    a.connect(b_addr, SERVER, 1000, t0());
    let syn = a.poll_transmit(t0()).expect("SYN");
    let due = l
        .on_segment(a_addr, &syn, 2000, t0())
        .into_reply()
        .expect("SYN-ACK");
    let synack = l.synack(due, t0());
    a.on_segment_view(synack.view(), Ecn::NotCapable, t0());
    let ack = a.poll_transmit(t0()).expect("ACK");
    let b = l
        .on_segment(a_addr, &ack, 0, t0())
        .into_spawn()
        .expect("spawn");
    (a, b)
}

/// Delivers each of `segs` to `to`.
fn deliver(to: &mut TcpSocket, segs: &[Segment]) {
    for s in segs {
        to.on_segment_view(s.view(), Ecn::NotCapable, t0());
    }
}

#[test]
#[rustfmt::skip]
fn transitions_syn_sent() {
    let iss = TcpSeq(1000);
    let synack = |ack: TcpSeq, flags: Flags| {
        let mut s = Segment::new(SERVER, CLIENT, TcpSeq(7000), ack, flags);
        s.window = 1000;
        s.timestamps = Some(Timestamps { value: 9, echo: 1 });
        s
    };
    let mut a = syn_sent();
    row("SYN-ACK", &mut a, &synack(iss + 1, SYN_ACK), OPEN, Established, &[ACK]);
    assert_eq!(a.tcb().rcv_nxt, TcpSeq(7001));

    let mut a = syn_sent();
    row("bare SYN", &mut a, &synack(TcpSeq(0), Flags::SYN), SIM_OPEN, SynReceived, &[SYN_ACK]);

    // DEVIATION (RFC 9293 §3.10.7.3): the RST answering an unacceptable
    // ACK carries SEQ=SND.NXT and the ACK bit, not <SEQ=SEG.ACK><CTL=RST>.
    let mut a = syn_sent();
    let sent = row("ACK of nothing sent", &mut a, &synack(iss, ACK), Verdict::SendRst, SynSent, &[RST_ACK]);
    assert_eq!(sent[0].seq, iss + 1);

    let mut a = syn_sent();
    row("RST, unacceptable ACK", &mut a, &synack(iss + 2, RST_ACK), Verdict::Drop, SynSent, &[]);
    row("RST, no ACK", &mut a, &synack(TcpSeq(0), Flags::RST), Verdict::Drop, SynSent, &[]);
    row("ACK without SYN", &mut a, &synack(iss + 1, ACK), Verdict::Drop, SynSent, &[]);
    row("RST, acceptable ACK", &mut a, &synack(iss + 1, RST_ACK), Verdict::Reset, Closed, &[]);
    assert_eq!(a.close_reason(), Some(tcplp::CloseReason::Reset));
}

/// Both ends open at once: the SYNs cross, each side answers with a
/// SYN-ACK, each re-ACKs the other's SYN-ACK (its SYN lies below
/// RCV.NXT by then), and the re-ACKs complete both handshakes.
#[test]
#[rustfmt::skip]
fn transitions_simultaneous_open_and_syn_received() {
    let (a_addr, b_addr) = (NodeId(1).mesh_addr(), NodeId(2).mesh_addr());
    let mut a = TcpSocket::new(cfg(), a_addr, CLIENT);
    let mut b = TcpSocket::new(cfg(), b_addr, SERVER);
    a.connect(b_addr, SERVER, 1000, t0());
    b.connect(a_addr, CLIENT, 2000, t0());
    let syn_a = drain(&mut a);
    let syn_b = drain(&mut b);
    let synack_a = row("a: crossing SYN", &mut a, &syn_b[0], SIM_OPEN, SynReceived, &[SYN_ACK]);
    let synack_b = row("b: crossing SYN", &mut b, &syn_a[0], SIM_OPEN, SynReceived, &[SYN_ACK]);
    let ack_a = row("a: SYN-ACK below RCV.NXT", &mut a, &synack_b[0], Verdict::DropAck, SynReceived, &[ACK]);
    let ack_b = row("b: SYN-ACK below RCV.NXT", &mut b, &synack_a[0], Verdict::DropAck, SynReceived, &[ACK]);

    // SYN-RECEIVED (a socket): a bad ACK is answered with a RST and
    // changes nothing. DEVIATION (RFC 9293 §3.10.7.4): the RST carries
    // SEQ=SND.NXT and the ACK bit, not <SEQ=SEG.ACK><CTL=RST>.
    let mut bad = ack_b[0].clone();
    bad.ack = a.tcb().snd_una;
    let sent = row("a: ACK of nothing new", &mut a, &bad, Verdict::SendRst, SynReceived, &[RST_ACK]);
    assert_eq!(sent[0].seq, a.tcb().snd_nxt);

    row("a: ACK of its SYN", &mut a, &ack_b[0], ACCEPT, Established, &[]);
    row("b: ACK of its SYN", &mut b, &ack_a[0], ACCEPT, Established, &[]);

    // SYN-RECEIVED: an exact RST closes.
    let mut c = TcpSocket::new(cfg(), a_addr, CLIENT);
    c.connect(b_addr, SERVER, 1000, t0());
    drain(&mut c);
    let mut syn = syn_b[0].clone();
    syn.seq = TcpSeq(3000);
    row("c: crossing SYN", &mut c, &syn, SIM_OPEN, SynReceived, &[SYN_ACK]);
    let rst = Segment::new(SERVER, CLIENT, TcpSeq(3001), TcpSeq(0), Flags::RST);
    row("c: exact RST", &mut c, &rst, Verdict::Reset, Closed, &[]);
}

/// SYN-RECEIVED as the SYN cache holds it: the completing ACK spawns
/// the socket, anything else leaves the entry (or drops it, on an
/// exact RST).
#[test]
fn transitions_syn_received_in_the_cache() {
    let (a_addr, b_addr) = (NodeId(1).mesh_addr(), NodeId(2).mesh_addr());
    let mut syn = Segment::new(CLIENT, SERVER, TcpSeq(77), TcpSeq(0), Flags::SYN);
    syn.timestamps = Some(Timestamps { value: 50, echo: 0 });
    let ack = |seq: u32, ack: u32, flags: Flags, tsval: u32| {
        let mut s = Segment::new(CLIENT, SERVER, TcpSeq(seq), TcpSeq(ack), flags);
        s.window = 1000;
        s.timestamps = Some(Timestamps {
            value: tsval,
            echo: 1,
        });
        s
    };
    // A listener whose cache holds `syn` (IRS 77, ISS 300).
    let parked = || {
        let mut l = ListenSocket::new(cfg(), b_addr, SERVER, &NodeBudget::default());
        let due = l.on_segment(a_addr, &syn, 300, t0()).into_reply();
        assert_eq!(due.map(|d| l.synack(d, t0()).flags), Some(SYN_ACK));
        l
    };
    let spawn =
        |l: &mut ListenSocket, seg: &Segment| l.on_segment(a_addr, seg, 0, t0()).into_spawn();

    let mut l = parked();
    let s = spawn(&mut l, &ack(78, 301, ACK, 60)).expect("ACK of SYN-ACK spawns");
    assert_eq!((s.state(), l.half_open()), (Established, 0));

    // A retransmitted SYN is answered with the same SYN-ACK.
    let mut l = parked();
    let due = l
        .on_segment(a_addr, &syn, 999, t0())
        .into_reply()
        .expect("SYN-ACK");
    let again = l.synack(due, t0());
    assert_eq!(
        (again.seq, again.ack, l.half_open()),
        (TcpSeq(300), TcpSeq(78), 1)
    );

    for (name, seg) in [
        ("ACK of nothing new", ack(78, 300, ACK, 60)),
        ("ACK of nothing sent", ack(78, 302, ACK, 60)),
        ("seq past the window", ack(78 + 1848, 301, ACK, 60)),
        ("no ACK bit", ack(78, 0, Flags::PSH, 60)),
    ] {
        let mut l = parked();
        let r = l.on_segment(a_addr, &seg, 0, t0());
        assert!(matches!(r, ListenerResponse::None), "{name}: no socket");
        assert_eq!(l.half_open(), 1, "{name}: entry kept");
    }

    let mut l = parked();
    let _ = l.on_segment(a_addr, &ack(78, 0, Flags::RST, 60), 0, t0());
    assert_eq!(
        (l.half_open(), l.stats.rst_aborts),
        (0, 1),
        "exact RST aborts"
    );

    // DEVIATION (RFC 5961 §3.2): an in-window RST that is not exact
    // earns no challenge ACK from the cache; it is ignored.
    let mut l = parked();
    let r = l.on_segment(a_addr, &ack(90, 0, Flags::RST, 60), 0, t0());
    assert!(matches!(r, ListenerResponse::None));
    assert_eq!((l.half_open(), l.stats.rst_aborts), (1, 0));

    // A completing ACK with a stale timestamp: the cache cannot
    // acknowledge, so it spawns the socket and the socket applies PAWS:
    // it stays in SYN-RECEIVED and answers with an ACK.
    let mut l = parked();
    let mut s = spawn(&mut l, &ack(78, 301, ACK, 40)).expect("spawn");
    assert_eq!((s.state(), s.stats.paws_drops), (SynReceived, 1));
    let out: Vec<Flags> = drain(&mut s).iter().map(|x| x.flags).collect();
    assert_eq!(out, [ACK]);
}

#[test]
#[rustfmt::skip]
fn transitions_established() {
    // `a` has 200 bytes in flight; `b` has not seen them.
    let established_with_flight = || {
        let (mut a, b) = established();
        a.send(&[7; 200]);
        assert_eq!(drain(&mut a).len(), 1);
        (a, b)
    };
    let (mut a, _) = established_with_flight();
    let (una, max) = (a.tcb().snd_una, a.tcb().snd_max);
    let nxt = a.tcb().rcv_nxt;
    let with = |mut seg: Segment, seq: TcpSeq, len: usize| {
        seg.seq = seq;
        seg.payload = vec![1; len];
        seg
    };

    let seg = from_peer(&a, una, ACK);
    row("duplicate ACK", &mut a, &seg, ACCEPT, Established, &[]);
    let seg = from_peer(&a, max + 100, ACK);
    row("ACK of nothing sent", &mut a, &seg, Verdict::AckUnsent, Established, &[ACK]);
    let seg = with(from_peer(&a, una, ACK), nxt + 5000, 10);
    row("seq past the window", &mut a, &seg, Verdict::DropAck, Established, &[ACK]);
    let mut seg = from_peer(&a, una, ACK);
    seg.timestamps.as_mut().unwrap().value -= 1;
    row("stale PAWS timestamp", &mut a, &seg, Verdict::Paws, Established, &[ACK]);
    let seg = with(from_peer(&a, TcpSeq(0), Flags::RST), nxt + 10, 0);
    row("in-window RST", &mut a, &seg, Verdict::Challenge, Established, &[ACK]);
    let seg = with(seg, nxt + 5000, 0);
    row("RST past the window", &mut a, &seg, Verdict::Drop, Established, &[]);
    let seg = with(from_peer(&a, TcpSeq(0), Flags::SYN), nxt + 10, 0);
    row("in-window SYN", &mut a, &seg, Verdict::Challenge, Established, &[ACK]);
    let seg = with(from_peer(&a, TcpSeq(0), Flags::PSH), nxt, 10);
    row("data without ACK", &mut a, &seg, Verdict::Drop, Established, &[]);
    assert_eq!(a.available(), 0);
    let seg = with(from_peer(&a, una, ACK | Flags::PSH), nxt, 10);
    row("in-order data", &mut a, &seg, PREDICTED_DATA, Established, &[]);
    assert_eq!(a.available(), 10);
    // The delayed ACK for the data is still pending.
    let seg = from_peer(&a, max, ACK);
    row("ACK of all data", &mut a, &seg, PREDICTED_ACK, Established, &[]);
    assert_eq!(a.flight_size(), 0);

    // DEVIATION (RFC 5681 §4.2): a bare FIN beyond a hole is an
    // out-of-order segment but earns no immediate duplicate ACK.
    let seg = from_peer(&a, max, FIN_ACK);
    let beyond = with(seg.clone(), seg.seq + 100, 0);
    row("FIN beyond a hole", &mut a, &beyond, ACCEPT, Established, &[]);
    row("in-order FIN", &mut a, &seg, ACCEPT, CloseWait, &[ACK]);

    let (mut a, _) = established_with_flight();
    let seg = from_peer(&a, TcpSeq(0), Flags::RST);
    row("exact RST", &mut a, &seg, Verdict::Reset, Closed, &[]);
    assert_eq!(a.close_reason(), Some(tcplp::CloseReason::Reset));

    // DEVIATION (RFC 5961 §5): an ACK 50 000 below SND.UNA is accepted.
    // DEVIATION (RFC 9293 §3.10.7.4): it also updates the send window,
    // though only SND.UNA ≤ SEG.ACK ≤ SND.NXT may.
    let (mut a, _) = established_with_flight();
    let mut seg = from_peer(&a, una - 50_000, ACK);
    seg.window = 0;
    row("ACK far below SND.UNA", &mut a, &seg, ACCEPT, Established, &[]);
    assert_eq!(a.tcb().snd_wnd, 0, "window taken from the stale ACK");
}

/// FIN-WAIT-1, FIN-WAIT-2, CLOSE-WAIT, CLOSING, LAST-ACK and TIME-WAIT,
/// with simultaneous close.
#[test]
#[rustfmt::skip]
fn transitions_closing_states() {
    // FIN-WAIT-1 → FIN-WAIT-2 → TIME-WAIT.
    let (mut a, mut b) = established();
    a.close();
    let fin = drain(&mut a);
    assert_eq!(fin[0].flags, FIN_ACK);
    let fin_ack = row("b: FIN", &mut b, &fin[0], ACCEPT, CloseWait, &[ACK]);
    row("a: ACK of FIN", &mut a, &fin_ack[0], ACCEPT, FinWait2, &[]);
    let dup_fin = row("b: retransmitted FIN", &mut b, &fin[0], Verdict::DropAck, CloseWait, &[ACK]);
    row("a: duplicate ACK", &mut a, &dup_fin[0], ACCEPT, FinWait2, &[]);
    b.close();
    assert_eq!(b.state(), LastAck);
    let b_fin = drain(&mut b);
    assert_eq!(b_fin[0].flags, FIN_ACK);
    let last = row("a: FIN", &mut a, &b_fin[0], ACCEPT, TimeWait, &[ACK]);
    row("a: retransmitted FIN", &mut a, &b_fin[0], Verdict::DropAck, TimeWait, &[ACK]);
    let seg = from_peer(&b, b.tcb().snd_max + 100, ACK);
    row("b: ACK of nothing sent", &mut b, &seg, Verdict::AckUnsent, LastAck, &[ACK]);
    row("b: ACK of FIN", &mut b, &last[0], ACCEPT, Closed, &[]);
    assert_eq!(b.close_reason(), Some(tcplp::CloseReason::Normal));
    a.on_timer(t0() + Duration::from_secs(60));
    assert_eq!(a.state(), Closed, "TIME-WAIT expires");

    // FIN-WAIT-1 → TIME-WAIT on a FIN that also acknowledges ours.
    let (mut a, mut b) = established();
    a.close();
    let fin = drain(&mut a);
    deliver(&mut b, &fin);
    b.close();
    let ack_and_fin = drain(&mut b);
    assert_eq!(ack_and_fin[0].flags, FIN_ACK, "the ACK rides on b's FIN");
    row("a: FIN acking FIN", &mut a, &ack_and_fin[0], ACCEPT, TimeWait, &[ACK]);

    // Simultaneous close: the FINs cross, each side goes to CLOSING,
    // and the crossing ACKs take both to TIME-WAIT.
    let (mut a, mut b) = established();
    a.close();
    b.close();
    let fin_a = drain(&mut a);
    let fin_b = drain(&mut b);
    let ack_a = row("a: crossing FIN", &mut a, &fin_b[0], ACCEPT, Closing, &[ACK]);
    let ack_b = row("b: crossing FIN", &mut b, &fin_a[0], ACCEPT, Closing, &[ACK]);
    let syn = from_peer(&a, TcpSeq(0), Flags::SYN);
    let syn = Segment { seq: syn.seq + 10, ..syn };
    row("a: in-window SYN", &mut a, &syn, Verdict::Challenge, Closing, &[ACK]);
    row("a: ACK of FIN", &mut a, &ack_b[0], ACCEPT, TimeWait, &[]);
    row("b: ACK of FIN", &mut b, &ack_a[0], ACCEPT, TimeWait, &[]);

    // TIME-WAIT: an exact RST closes early (RFC 9293 permits ignoring
    // it, RFC 1337; this code does not).
    let rst = from_peer(&a, TcpSeq(0), Flags::RST);
    row("a: exact RST", &mut a, &rst, Verdict::Reset, Closed, &[]);
}

// ----------------------------------------------------------------------
// Output rows
// ----------------------------------------------------------------------

/// The `(SEG.SEQ, SEG.LEN, flags)` of each segment in `segs`.
fn shape(segs: &[Segment]) -> Vec<(TcpSeq, usize, Flags)> {
    segs.iter()
        .map(|x| (x.seq, x.payload.len(), x.flags))
        .collect()
}

/// An ACK from the peer of `s` acknowledging `ack` and advertising
/// `wnd`.
fn ack_with_window(s: &TcpSocket, ack: TcpSeq, wnd: u16) -> Segment {
    let mut seg = from_peer(s, ack, ACK);
    seg.window = wnd;
    seg
}

/// A duplicate ACK of `una` from the peer of `s`, SACKing each
/// `(start, end)` offset range from `una`.
fn sack_dup(s: &TcpSocket, una: TcpSeq, blocks: &[(u32, u32)]) -> Segment {
    let mut seg = from_peer(s, una, ACK);
    seg.sack_blocks = blocks
        .iter()
        .map(|&(s, e)| SackBlock {
            start: una + s,
            end: una + e,
        })
        .collect();
    seg
}

/// Nagle (RFC 9293 §3.7.4): a sub-MSS write waits while data is
/// unacknowledged, and goes out once SND.UNA catches up with SND.NXT.
#[test]
fn output_nagle_holds_a_small_write_behind_unacked_data() {
    let (mut a, _) = established();
    let una = a.tcb().snd_una;
    a.send(&[1; 100]);
    assert_eq!(
        shape(&drain(&mut a)),
        [(una, 100, PSH_ACK)],
        "nothing in flight: sent"
    );
    a.send(&[2; 50]);
    assert!(
        drain(&mut a).is_empty(),
        "SND.NXT > SND.UNA: the 50 bytes wait"
    );
    let ack = from_peer(&a, una + 100, ACK);
    a.on_segment_view(ack.view(), Ecn::NotCapable, t0());
    assert_eq!(
        shape(&drain(&mut a)),
        [(una + 100, 50, PSH_ACK)],
        "released by the ACK"
    );
}

/// A send limited by SND.WND, not by the data, fills the window with a
/// sub-MSS segment: Nagle holds only segments the data itself cuts
/// short.
#[test]
fn output_window_limited_send_fills_the_window() {
    let (mut a, _) = established();
    let una = a.tcb().snd_una;
    let ack = ack_with_window(&a, una, 300);
    a.on_segment_view(ack.view(), Ecn::NotCapable, t0());
    assert_eq!(a.tcb().snd_wnd, 300);
    a.send(&[3; 1000]);
    assert_eq!(
        shape(&drain(&mut a)),
        [(una, 300, ACK)],
        "SND.WND bytes, no PSH"
    );
    assert_eq!(a.tcb().snd_nxt, una + 300);
}

/// A zero SND.WND with data waiting arms the persist timer on output;
/// when it fires, one byte at SND.NXT probes the window (RFC 9293
/// §3.8.6.1).
#[test]
fn output_zero_window_probe_is_one_byte() {
    let (mut a, _) = established();
    let una = a.tcb().snd_una;
    let ack = ack_with_window(&a, una, 0);
    a.on_segment_view(ack.view(), Ecn::NotCapable, t0());
    a.send(&[4; 200]);
    assert!(drain(&mut a).is_empty(), "SND.WND = 0: nothing goes out");
    let due = a
        .poll_at()
        .expect("the output path armed the persist timer");
    assert_eq!(due, t0() + tcplp::socket::PERSIST_BASE);
    a.on_timer(due);
    let probe: Vec<Segment> = std::iter::from_fn(|| a.poll_transmit(due)).collect();
    assert_eq!(
        shape(&probe),
        [(una, 1, ACK)],
        "one byte at SND.NXT = SND.UNA"
    );
    assert_eq!(a.stats.zero_window_probes, 1);
    assert!(
        a.poll_at().is_some_and(|t| t > due),
        "persist re-armed, backed off"
    );
}

/// SACK recovery (RFC 6675): the third duplicate ACK starts recovery
/// with a budget of one hole; after that each duplicate ACK unlocks one
/// more hole, and an ACK that finds no hole left spends nothing.
///
/// DEVIATION (RFC 6675 §5, NextSeg): the fast retransmission of
/// SND.UNA does not move the hole cursor, so the first budgeted hole is
/// the same segment again.
#[test]
fn output_sack_holes_one_per_unlocking_ack() {
    let (mut a, _) = established();
    let una = a.tcb().snd_una;
    a.send(&[5; 1848]);
    assert_eq!(drain(&mut a).len(), 4, "four MSS segments fill SND.WND");
    // The peer holds segments 1 and 3; 0 and 2 are holes.
    let dup = |a: &TcpSocket, blocks| sack_dup(a, una, blocks);
    let both = [(462, 924), (1386, 1848)];
    for (i, blocks) in [&both[..1], &both[..]].into_iter().enumerate() {
        a.on_segment_view(dup(&a, blocks).view(), Ecn::NotCapable, t0());
        assert!(
            drain(&mut a).is_empty(),
            "dup ACK {}: no retransmission yet",
            i + 1
        );
    }
    a.on_segment_view(dup(&a, &both).view(), Ecn::NotCapable, t0());
    assert_eq!(
        shape(&drain(&mut a)),
        [(una, 462, ACK), (una, 462, ACK)],
        "third dup ACK: fast retransmit, then the one budgeted hole"
    );
    a.on_segment_view(dup(&a, &both).view(), Ecn::NotCapable, t0());
    assert_eq!(shape(&drain(&mut a)), [(una + 924, 462, ACK)], "next hole");
    a.on_segment_view(dup(&a, &both).view(), Ecn::NotCapable, t0());
    assert!(
        drain(&mut a).is_empty(),
        "no hole left below the highest SACK"
    );
    assert_eq!((a.stats.fast_rexmits, a.stats.sack_rexmits), (1, 2));
}

/// The FIN follows the last data byte: it waits while SND.WND holds
/// data back, and rides behind the data once the window opens.
#[test]
fn output_fin_only_after_the_send_buffer_drains() {
    let (mut a, _) = established();
    let una = a.tcb().snd_una;
    let ack = ack_with_window(&a, una, 300);
    a.on_segment_view(ack.view(), Ecn::NotCapable, t0());
    a.send(&[6; 600]);
    a.close();
    assert_eq!(a.state(), FinWait1);
    assert_eq!(
        shape(&drain(&mut a)),
        [(una, 300, ACK)],
        "no FIN while data waits"
    );
    let ack = ack_with_window(&a, una + 300, 1848);
    a.on_segment_view(ack.view(), Ecn::NotCapable, t0());
    assert_eq!(
        shape(&drain(&mut a)),
        [(una + 300, 300, PSH_ACK), (una + 600, 0, FIN_ACK)],
        "the last data, then the FIN at SND.NXT"
    );
}

/// An abort's RST subsumes a pending ACK. It carries SEQ = SND.NXT and
/// ACK = RCV.NXT, and no window, timestamps or SACK blocks.
#[test]
fn output_rst_subsumes_a_pending_ack() {
    let (mut a, _) = established();
    let (nxt, rcv_nxt) = (a.tcb().snd_nxt, a.tcb().rcv_nxt);
    // Out-of-order data queues an immediate ACK with a SACK block.
    let mut ooo = from_peer(&a, a.tcb().snd_una, ACK | Flags::PSH);
    ooo.seq = rcv_nxt + 100;
    ooo.payload = vec![8; 10];
    a.on_segment_view(ooo.view(), Ecn::NotCapable, t0());
    a.abort();
    let sent = drain(&mut a);
    assert_eq!(shape(&sent), [(nxt, 0, RST_ACK)], "the RST alone");
    let rst = &sent[0];
    assert_eq!(rst.ack, rcv_nxt);
    assert_eq!(rst.window, 0);
    assert!(rst.timestamps.is_none() && rst.sack_blocks.is_empty());
}

/// The keepalive probe (RFC 9293 §3.8.4) is a bare ACK at SND.NXT − 1,
/// a sequence number the peer has acknowledged, so it must answer.
#[test]
fn output_keepalive_probe_sits_one_below_snd_nxt() {
    let idle = Duration::from_secs(5);
    let (mut a, _) = established_with(TcpConfig {
        keepalive_idle: Some(idle),
        ..cfg()
    });
    let (nxt, rcv_nxt) = (a.tcb().snd_nxt, a.tcb().rcv_nxt);
    assert_eq!(a.poll_at(), Some(t0() + idle));
    a.on_timer(t0() + idle);
    let sent: Vec<Segment> = std::iter::from_fn(|| a.poll_transmit(t0() + idle)).collect();
    assert_eq!(shape(&sent), [(nxt - 1, 0, ACK)]);
    assert_eq!(sent[0].ack, rcv_nxt);
    assert_eq!(a.stats.keepalive_probes, 1);
}

/// A SACK budget that finds no usable hole is spent, not saved: the
/// duplicate ACK that later reveals two new holes unlocks only one.
#[test]
fn output_sack_budget_is_spent_when_no_hole_is_usable() {
    let (mut a, _) = established_with(TcpConfig::with_window_segments(462, 8));
    // Slow start to an eight-segment cwnd: four segments, each ACKed.
    let una = a.tcb().snd_una;
    a.send(&[5; 1848]);
    assert_eq!(drain(&mut a).len(), 4);
    for k in 1..=4 {
        a.on_segment_view(
            (from_peer(&a, una + 462 * k, ACK)).view(),
            Ecn::NotCapable,
            t0(),
        );
    }
    let una = a.tcb().snd_una;
    a.send(&[6; 3696]);
    assert_eq!(drain(&mut a).len(), 8, "eight segments fill cwnd");
    let dup = |a: &TcpSocket, blocks| sack_dup(a, una, blocks);
    let one = [(462, 924)];
    for _ in 0..3 {
        a.on_segment_view(dup(&a, &one).view(), Ecn::NotCapable, t0());
    }
    assert_eq!(drain(&mut a).len(), 2, "fast retransmit and one hole");
    a.on_segment_view(dup(&a, &one).view(), Ecn::NotCapable, t0());
    assert!(drain(&mut a).is_empty(), "no hole below the highest SACK");
    let three = [(462, 924), (1386, 1848), (2310, 2772)];
    a.on_segment_view(dup(&a, &three).view(), Ecn::NotCapable, t0());
    assert_eq!(
        shape(&drain(&mut a)),
        [(una + 924, 462, ACK)],
        "two holes, one unit of budget"
    );
}

/// Fast retransmit with only the FIN outstanding resends the FIN from
/// SND.UNA and leaves a pending ACK pending, so a pure ACK follows it.
/// That ACK is redundant; dropping it is a behaviour change.
#[test]
fn output_fin_retransmission_leaves_a_pending_ack() {
    let (mut a, _) = established();
    a.close();
    let una = a.tcb().snd_una;
    assert_eq!(shape(&drain(&mut a)), [(una, 0, FIN_ACK)]);
    for _ in 0..3 {
        a.on_segment_view(from_peer(&a, una, ACK).view(), Ecn::NotCapable, t0());
    }
    // An ACK of nothing sent queues an ACK in reply.
    let unsent = from_peer(&a, una + 100, ACK);
    a.on_segment_view(unsent.view(), Ecn::NotCapable, t0());
    assert_eq!(
        shape(&drain(&mut a)),
        [(una, 0, FIN_ACK), (una + 1, 0, ACK)],
        "the FIN again, then the pending ACK"
    );
    assert_eq!(a.stats.fast_rexmits, 1);
}
