//! Keepalive-timer tests: probes on idle connections, peer responses
//! keeping the connection alive, and the drop after unanswered probes.

mod common;

use common::{Dir, Fault, Harness};
use lln_netip::{Ecn, NodeId};
use lln_sim::{Duration, Instant};
use tcplp::{CloseReason, ListenSocket, NodeBudget, TcpConfig, TcpSocket, TcpState};

fn ka_cfg() -> TcpConfig {
    TcpConfig {
        keepalive_idle: Some(Duration::from_secs(5)),
        keepalive_interval: Duration::from_secs(2),
        keepalive_probes: 3,
        ..TcpConfig::default()
    }
}

#[test]
fn idle_connection_probed_and_kept_alive() {
    let mut h = Harness::establish(ka_cfg(), Duration::from_millis(20));
    // Total silence for 30 seconds: probes flow, peer ACKs them, the
    // connection survives.
    h.run_for(Duration::from_secs(30));
    assert_eq!(h.a.state(), TcpState::Established);
    assert_eq!(h.b.state(), TcpState::Established);
    assert!(
        h.a.stats.keepalive_probes >= 2,
        "idle 30s at 5s idle threshold: got {} probes",
        h.a.stats.keepalive_probes
    );
}

#[test]
fn dead_peer_detected_and_dropped() {
    let mut h = Harness::establish(ka_cfg(), Duration::from_millis(20));
    // Sever the network completely: nothing flows either way.
    h.set_fault(|_, _, _| Fault {
        drop: true,
        ..Fault::default()
    });
    h.run_for(Duration::from_secs(60));
    assert_eq!(h.a.state(), TcpState::Closed);
    assert_eq!(h.a.close_reason(), Some(CloseReason::KeepaliveTimeout));
}

#[test]
fn activity_resets_the_idle_timer() {
    // Idle threshold above the harness's ~5 s establishment phase, so
    // only the ping cadence matters.
    let cfg = TcpConfig {
        keepalive_idle: Some(Duration::from_secs(6)),
        ..ka_cfg()
    };
    let mut h = Harness::establish(cfg, Duration::from_millis(20));
    // Exchange a little data every 3 seconds (< 6s idle threshold):
    // no probes should ever fire.
    for _ in 0..8 {
        h.a.send(b"ping");
        h.run_for(Duration::from_secs(3));
        let mut buf = [0u8; 64];
        while h.b.recv(&mut buf) > 0 {}
    }
    assert_eq!(
        h.a.stats.keepalive_probes, 0,
        "active connection must not be probed"
    );
    assert_eq!(h.a.state(), TcpState::Established);
}

#[test]
fn disabled_by_default() {
    let mut h = Harness::establish(TcpConfig::default(), Duration::from_millis(20));
    h.run_for(Duration::from_secs(60));
    assert_eq!(h.a.stats.keepalive_probes, 0);
    assert_eq!(h.a.state(), TcpState::Established);
    // And fully idle sockets have no pending timers burning energy.
    assert!(h.a.poll_at().is_none(), "no timers while idle");
}

#[test]
fn vanished_peer_mid_transfer_hits_retransmit_bound() {
    // The peer silently disappears *while data is in flight*: the
    // sender must not wait for the keepalive machinery — retransmit
    // exhaustion closes the connection first, with the failure reason
    // a supervisor keys its reconnect decision on.
    let cfg = TcpConfig {
        max_retransmits: 4,
        max_rto: Duration::from_secs(4),
        ..ka_cfg()
    };
    let mut h = Harness::establish(cfg, Duration::from_millis(20));
    h.a.send(&[0x42; 900]);
    h.run_for(Duration::from_secs(1)); // data (partially) delivered
    h.set_fault(|_, _, _| Fault {
        drop: true,
        ..Fault::default()
    });
    h.a.send(&[0x43; 900]); // keeps the retransmit timer armed
    h.run_for(Duration::from_secs(60));
    assert_eq!(h.a.state(), TcpState::Closed);
    let reason = h.a.close_reason().expect("closed with a reason");
    assert_eq!(reason, CloseReason::TooManyRetransmits);
    assert!(
        reason.is_failure(),
        "supervisor must treat a vanished peer as a failure"
    );
    assert!(
        h.a.stats.rexmit_timeouts >= 4,
        "the bound must be reached through real retransmissions: {}",
        h.a.stats.rexmit_timeouts
    );
}

#[test]
fn close_reasons_classify_for_supervision() {
    // The supervisor reconnects only on unexpected deaths.
    assert!(CloseReason::Reset.is_failure());
    assert!(CloseReason::TooManyRetransmits.is_failure());
    assert!(CloseReason::KeepaliveTimeout.is_failure());
    assert!(!CloseReason::Normal.is_failure());
    assert!(!CloseReason::Aborted.is_failure());
}

#[test]
fn probe_drops_only_after_configured_count() {
    let mut h = Harness::establish(ka_cfg(), Duration::from_millis(20));
    // Drop exactly the first two probes, then restore connectivity.
    let mut dropped = 0;
    h.set_fault(move |dir, seg, _| {
        let mut f = Fault::default();
        if dir == Dir::AtoB && seg.payload.is_empty() && dropped < 2 {
            dropped += 1;
            f.drop = true;
        }
        f
    });
    h.run_for(Duration::from_secs(40));
    assert_eq!(
        h.a.state(),
        TcpState::Established,
        "two lost probes of three allowed must not kill the connection"
    );
}

/// Delivers everything `from` sends at `now` to `to`.
fn relay(from: &mut TcpSocket, to: &mut TcpSocket, now: Instant) {
    while let Some(seg) = from.poll_transmit(now) {
        to.on_segment_view(seg.view(), Ecn::NotCapable, now);
    }
}

/// A keepalive deadline that falls due after the socket has left
/// ESTABLISHED is consumed, not left in the past: otherwise `poll_at()`
/// names an instant that `on_timer` never clears, and a driver that
/// waits for it spins at one instant forever. Driven by direct calls,
/// since a stale deadline hangs `Harness::run_for`.
#[test]
fn keepalive_deadline_is_consumed_after_leaving_established() {
    let (a_addr, b_addr) = (NodeId(1).mesh_addr(), NodeId(2).mesh_addr());
    let t = Instant::ZERO;
    let mut a = TcpSocket::new(ka_cfg(), a_addr, common::A_PORT);
    let mut l = ListenSocket::new(ka_cfg(), b_addr, common::B_PORT, &NodeBudget::default());
    a.connect(b_addr, common::B_PORT, 10_000, t);
    let syn = a.poll_transmit(t).expect("SYN");
    let mut b =
        common::accept_via_listener(&mut l, &mut a, a_addr, &syn, 20_000, t, Duration::ZERO);
    // b closes first: a goes to CLOSE-WAIT, b to FIN-WAIT-2, and both
    // keep the keepalive deadline they armed while ESTABLISHED.
    b.close();
    relay(&mut b, &mut a, t);
    relay(&mut a, &mut b, t);
    assert_eq!(
        (a.state(), b.state()),
        (TcpState::CloseWait, TcpState::FinWait2)
    );
    let late = Instant::from_secs(35);
    for s in [&mut a, &mut b] {
        for _ in 0..3 {
            s.on_timer(late);
            assert!(
                s.poll_at().is_none_or(|d| d > late),
                "{:?}: poll_at {:?} is still due at {late:?}",
                s.state(),
                s.poll_at()
            );
        }
    }
    assert_eq!(
        a.stats.keepalive_probes + b.stats.keepalive_probes,
        0,
        "no probe outside ESTABLISHED"
    );
}
