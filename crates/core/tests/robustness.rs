//! Robustness-feature tests for the TCPlp socket: the protections and
//! edge behaviours that distinguish a full-scale stack from a minimal
//! one — PAWS, challenge ACKs, simultaneous open, ECN, persist-timer
//! backoff, TIME_WAIT absorption, Nagle, and RST handling.

mod common;

use common::{Dir, Fault, Harness};
use lln_netip::Ecn;
use lln_sim::{Duration, Instant};
use tcplp::{CloseReason, Flags, Segment, TcpConfig, TcpSeq, TcpState, Timestamps};

const LAT: Duration = Duration::from_millis(20);

fn cfg() -> TcpConfig {
    TcpConfig::default()
}

#[test]
fn paws_drops_old_timestamps() {
    let mut h = Harness::establish(cfg(), LAT);
    // Move data so ts_recent advances well past zero.
    let data = vec![1u8; 2000];
    let got = h.transfer_a_to_b(&data, Duration::from_secs(20));
    assert_eq!(got.len(), 2000);
    let before = h.b.stats.paws_drops;
    // Craft a stale segment: correct ports/seq but an ancient TSval.
    let (b_addr, b_port) = h.b.local();
    let (_, a_port) = h.a.local();
    let _ = (b_addr, b_port);
    let mut stale = Segment::new(a_port, b_port, TcpSeq(0), TcpSeq(0), Flags::ACK);
    stale.timestamps = Some(Timestamps { value: 1, echo: 0 });
    h.b.on_segment(&stale, Ecn::NotCapable, h.now);
    assert_eq!(h.b.stats.paws_drops, before + 1, "PAWS must reject it");
}

#[test]
fn in_window_syn_triggers_challenge_ack() {
    let mut h = Harness::establish(cfg(), LAT);
    let (_, b_port) = h.b.local();
    let (_, a_port) = h.a.local();
    // An attacker-style SYN inside the receive window.
    let mut syn = Segment::new(a_port, b_port, TcpSeq(0), TcpSeq(0), Flags::SYN);
    // Give it the current timestamp so PAWS does not eat it first.
    syn.timestamps = Some(Timestamps {
        value: u32::MAX / 2,
        echo: 0,
    });
    // Use b's rcv_nxt: easiest is to run a little traffic and reuse
    // the harness clock; the SYN seq below is in-window because the
    // window is 1848 wide starting at rcv_nxt — we can't read rcv_nxt
    // directly, so send the handshake ISS+1 which is within the first
    // window when no data has moved.
    let before = h.b.stats.challenge_acks;
    let mut probe = syn.clone();
    probe.seq = TcpSeq(10_001); // client ISS was 10_000; rcv_nxt = 10_001
    h.b.on_segment(&probe, Ecn::NotCapable, h.now);
    assert_eq!(
        h.b.stats.challenge_acks,
        before + 1,
        "RFC 5961: in-window SYN answered with challenge ACK"
    );
    assert_eq!(h.b.state(), TcpState::Established, "connection survives");
}

#[test]
fn in_window_rst_not_exact_is_challenged() {
    let mut h = Harness::establish(cfg(), LAT);
    let (_, b_port) = h.b.local();
    let (_, a_port) = h.a.local();
    let mut rst = Segment::new(a_port, b_port, TcpSeq(10_002), TcpSeq(0), Flags::RST);
    rst.timestamps = Some(Timestamps {
        value: u32::MAX / 2,
        echo: 0,
    });
    let before = h.b.stats.challenge_acks;
    h.b.on_segment(&rst, Ecn::NotCapable, h.now);
    assert_eq!(h.b.state(), TcpState::Established, "blind RST defeated");
    assert_eq!(h.b.stats.challenge_acks, before + 1);
}

#[test]
fn exact_rst_closes_connection() {
    let mut h = Harness::establish(cfg(), LAT);
    let (_, b_port) = h.b.local();
    let (_, a_port) = h.a.local();
    let mut rst = Segment::new(a_port, b_port, TcpSeq(10_001), TcpSeq(0), Flags::RST);
    rst.timestamps = Some(Timestamps {
        value: u32::MAX / 2,
        echo: 0,
    });
    h.b.on_segment(&rst, Ecn::NotCapable, h.now);
    assert_eq!(h.b.state(), TcpState::Closed);
    assert_eq!(h.b.close_reason(), Some(CloseReason::Reset));
}

#[test]
fn simultaneous_open_converges() {
    // Both sides connect to each other at once (RFC 793 figure 8).
    let mut h = Harness::new(cfg(), LAT);
    let (a_addr, _) = h.a.local();
    let (b_addr, _) = h.b.local();
    // Rebind b's socket to the port a targets and vice versa.
    h.a = tcplp::TcpSocket::new(cfg(), a_addr, 1000);
    h.b = tcplp::TcpSocket::new(cfg(), b_addr, 2000);
    h.a.connect(b_addr, 2000, 111, h.now);
    h.b.connect(a_addr, 1000, 222, h.now);
    h.run_for(Duration::from_secs(10));
    assert_eq!(h.a.state(), TcpState::Established, "a established");
    assert_eq!(h.b.state(), TcpState::Established, "b established");
    // And data flows.
    let data = vec![9u8; 800];
    let got = h.transfer_a_to_b(&data, Duration::from_secs(20));
    assert_eq!(got, data);
}

#[test]
fn ecn_negotiation_and_ce_response() {
    let mut ecn_cfg = cfg();
    ecn_cfg.use_ecn = true;
    let mut h = Harness::new(ecn_cfg.clone(), LAT);
    let (a_addr, _) = h.a.local();
    let (b_addr, _) = h.b.local();
    h.a.connect(b_addr, common::B_PORT, 1, h.now);
    let syn = h.a.poll_transmit(h.now).unwrap();
    assert!(
        syn.flags.contains(Flags::ECE) && syn.flags.contains(Flags::CWR),
        "ECN-setup SYN"
    );
    let mut listener = tcplp::ListenSocket::new(
        ecn_cfg,
        b_addr,
        common::B_PORT,
        &tcplp::NodeBudget::default(),
    );
    h.b = common::accept_via_listener(&mut listener, &mut h.a, a_addr, &syn, 2, h.now, LAT);
    h.run_for(Duration::from_secs(2));
    assert_eq!(h.a.state(), TcpState::Established);
    assert!(h.a.ecn_active() && h.b.ecn_active(), "ECN negotiated");

    // CE-mark every data packet A->B; A must take ECE-driven cwnd
    // reductions (at most one per RTT).
    h.set_fault(|dir, seg, _| Fault {
        ce_mark: dir == Dir::AtoB && !seg.payload.is_empty(),
        ..Fault::default()
    });
    let data = vec![3u8; 462 * 12];
    let got = h.transfer_a_to_b(&data, Duration::from_secs(60));
    assert_eq!(got.len(), data.len(), "CE marks must not lose data");
    assert!(
        h.a.stats.ecn_reductions >= 2,
        "sender must react to ECE: {:?}",
        h.a.stats
    );
}

#[test]
fn persist_probes_back_off_exponentially() {
    let mut small = cfg();
    small.recv_buf = 462;
    let mut h = Harness::new(small.clone(), LAT);
    let (a_addr, _) = h.a.local();
    let (b_addr, _) = h.b.local();
    h.a.connect(b_addr, common::B_PORT, 1, h.now);
    let syn = h.a.poll_transmit(h.now).unwrap();
    let mut listener =
        tcplp::ListenSocket::new(small, b_addr, common::B_PORT, &tcplp::NodeBudget::default());
    h.b = common::accept_via_listener(&mut listener, &mut h.a, a_addr, &syn, 2, h.now, LAT);
    h.run_for(Duration::from_secs(2));
    // Fill B and never drain: persist probes flow, spaced increasingly.
    h.a.send(&vec![1u8; 2000]);
    h.run_for(Duration::from_secs(40));
    let probes = h.a.stats.zero_window_probes;
    assert!(
        (2..=12).contains(&probes),
        "exponential persist backoff bounds probe count in 40s, got {probes}"
    );
    assert_eq!(h.a.state(), TcpState::Established, "probing keeps it alive");
}

#[test]
fn time_wait_absorbs_retransmitted_fin() {
    let mut h = Harness::establish(cfg(), LAT);
    // Drop b's first FIN ACK-carrying response path indirectly by
    // closing both ways and replaying the peer's FIN afterwards.
    h.a.close();
    h.run_for(Duration::from_secs(1));
    h.b.close();
    h.run_for(Duration::from_secs(1));
    assert!(
        matches!(h.a.state(), TcpState::TimeWait | TcpState::Closed),
        "a: {:?}",
        h.a.state()
    );
    if h.a.state() == TcpState::TimeWait {
        // Replay a FIN (duplicate): must be re-ACKed, not crash/reopen.
        let (_, b_port) = h.b.local();
        let (_, a_port) = h.a.local();
        let mut fin = Segment::new(
            b_port,
            a_port,
            TcpSeq(20_001),
            TcpSeq(10_002),
            Flags::FIN | Flags::ACK,
        );
        fin.timestamps = Some(Timestamps {
            value: u32::MAX / 2,
            echo: 0,
        });
        h.a.on_segment(&fin, Ecn::NotCapable, h.now);
        assert_eq!(h.a.state(), TcpState::TimeWait);
        // Eventually closes.
        h.run_for(Duration::from_secs(10));
        assert_eq!(h.a.state(), TcpState::Closed);
    }
}

#[test]
fn nagle_coalesces_small_writes() {
    let mut h = Harness::establish(cfg(), LAT);
    // Many 10-byte writes: with Nagle, far fewer segments than writes.
    for _ in 0..50 {
        h.a.send(&[7u8; 10]);
        h.run_for(Duration::from_millis(10));
    }
    h.run_for(Duration::from_secs(3));
    let mut buf = [0u8; 1024];
    let mut got = 0;
    loop {
        let n = h.b.recv(&mut buf);
        if n == 0 {
            break;
        }
        got += n;
    }
    assert_eq!(got, 500);
    let data_segs = h.a.stats.segs_sent - h.a.stats.acks_sent;
    assert!(
        data_segs < 40,
        "Nagle should coalesce 50 writes into fewer segments, got {data_segs}"
    );
}

#[test]
fn no_nagle_sends_immediately() {
    let mut nodelay = cfg();
    nodelay.nagle = false;
    let mut h = Harness::new(nodelay.clone(), LAT);
    let (a_addr, _) = h.a.local();
    let (b_addr, _) = h.b.local();
    h.a.connect(b_addr, common::B_PORT, 1, h.now);
    let syn = h.a.poll_transmit(h.now).unwrap();
    let mut listener = tcplp::ListenSocket::new(
        nodelay,
        b_addr,
        common::B_PORT,
        &tcplp::NodeBudget::default(),
    );
    h.b = common::accept_via_listener(&mut listener, &mut h.a, a_addr, &syn, 2, h.now, LAT);
    h.run_for(Duration::from_secs(2));
    // Two small writes with outstanding data: both go out immediately.
    h.a.send(&[1u8; 10]);
    let first = h.a.poll_transmit(h.now);
    assert!(first.is_some());
    h.a.send(&[2u8; 10]);
    let second = h.a.poll_transmit(h.now);
    assert!(
        second.is_some(),
        "without Nagle the second small segment is not held back"
    );
}

#[test]
fn listener_ignores_non_syn_and_rst_generated() {
    let mut l = tcplp::ListenSocket::new(
        cfg(),
        lln_netip::NodeId(9).mesh_addr(),
        80,
        &tcplp::NodeBudget::default(),
    );
    let bare_ack = Segment::new(5, 80, TcpSeq(1), TcpSeq(2), Flags::ACK);
    assert!(l
        .on_segment(
            lln_netip::NodeId(1).mesh_addr(),
            &bare_ack,
            7,
            Instant::ZERO
        )
        .into_spawn()
        .is_none());
    assert_eq!(l.stats.bad_acks, 1, "stray ACK counted, not spawned");
    // The host layer answers with a RST derived from the segment.
    let rst = tcplp::reset_for(&bare_ack.view()).expect("rst for stray ack");
    assert!(rst.flags.contains(Flags::RST));
    assert_eq!(rst.seq, TcpSeq(2), "RST seq = offending ACK");
    // RSTs never answer RSTs.
    let rst_in = Segment::new(5, 80, TcpSeq(1), TcpSeq(0), Flags::RST);
    assert!(tcplp::reset_for(&rst_in.view()).is_none());
}

#[test]
fn connection_survives_asymmetric_loss_bursts() {
    // Loss bursts in the ACK direction only (B->A): data keeps its
    // path, ACK losses are tolerated by cumulative ACKing.
    let mut h = Harness::establish(cfg(), LAT);
    let mut n = 0u32;
    h.set_fault(move |dir, _, _| {
        let mut f = Fault::default();
        if dir == Dir::BtoA {
            n += 1;
            // Drop bursts of 3 every 10 segments.
            if n % 10 < 3 {
                f.drop = true;
            }
        }
        f
    });
    let data: Vec<u8> = (0..10_000u32).map(|i| (i % 251) as u8).collect();
    let got = h.transfer_a_to_b(&data, Duration::from_secs(120));
    assert_eq!(got, data);
}
