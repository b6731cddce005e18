//! Feature-level tests of the simulation world: RED/ECN end to end,
//! interference effects, stray-segment RST handling, adaptive polling,
//! and energy accounting sanity.

use lln_bench::worlds::{duty_cycled_pair, install_stream};
use lln_bench::ChainRun;
use lln_netip::NodeId;
use lln_node::app::InterfererApp;
use lln_node::fault::FaultPlan;
use lln_node::flood::FloodConfig;
use lln_node::route::Topology;
use lln_node::stack::{IpQueue, Node, NodeKind};
use lln_node::world::{World, WorldConfig};
use lln_phy::{LinkMatrix, RadioIdx};
use lln_sim::{Duration, Instant};
use tcplp::{ListenSocket, MemClass, TcpConfig, TcpState};

#[test]
fn red_ecn_marks_instead_of_dropping() {
    // 3-hop chain with RED+ECN relays and ECN-negotiating endpoints:
    // the sender must take ECE reductions, and relay queues must mark.
    let mut tcp = TcpConfig::with_window_segments(462, 7);
    tcp.use_ecn = true;
    let mut world = ChainRun {
        hops: 3,
        tcp,
        bytes: Some(300_000),
        ..ChainRun::default()
    }
    .build();
    for i in 0..4 {
        world.nodes[i].use_red_queue(lln_netip::RedConfig {
            min_th: 1.0,
            max_th: 4.0,
            ..lln_netip::RedConfig::default()
        });
    }
    world.run_for(Duration::from_secs(240));
    // Aggressive RED marking halves cwnd repeatedly, slowing the flow
    // (that's its job); the transfer must still make solid progress
    // without data loss at the application.
    assert!(
        world.nodes[0].app.sink_received() >= 250_000,
        "delivered {}",
        world.nodes[0].app.sink_received()
    );
    let sender = &world.nodes[3].transport.tcp[0];
    assert!(sender.ecn_active(), "ECN negotiated end to end");
    // Relay queues must have CE-marked something with a 7-segment
    // window pushing through a B/3 bottleneck.
    let marks: u64 = (0..4)
        .map(|i| match &world.nodes[i].ip_queue {
            IpQueue::Red(q) => q.marks(),
            IpQueue::Fifo(_) => 0,
        })
        .sum();
    assert!(marks > 0, "RED must CE-mark under congestion");
    assert!(
        sender.stats.ecn_reductions > 0,
        "sender must respond to ECE echoes: {:?}",
        sender.stats
    );
}

#[test]
fn interference_degrades_throughput() {
    let run = |with_interferer: bool| {
        // One link plus an interferer radio audible at both ends.
        let mut links = LinkMatrix::new(3);
        links.set_symmetric(RadioIdx(0), RadioIdx(1), 0.999);
        links.set_interference(RadioIdx(2), RadioIdx(0));
        links.set_interference(RadioIdx(2), RadioIdx(1));
        let topo = Topology::with_shortest_paths(links);
        let mut world = World::new(
            &topo,
            &[NodeKind::Router, NodeKind::Router, NodeKind::Interferer],
            WorldConfig::default(),
        );
        install_stream(&mut world, 1, 0, &TcpConfig::default(), Some(300_000));
        if with_interferer {
            let mut app = InterfererApp::office();
            app.day_occupancy = 0.4;
            app.night_occupancy = 0.4;
            world.start_interferer(2, app, Instant::from_millis(5));
        }
        world.run_for(Duration::from_secs(60));
        world.nodes[0].app.sink_goodput_bps()
    };
    let clean = run(false);
    let jammed = run(true);
    assert!(
        jammed < 0.8 * clean,
        "40% channel occupancy must cost throughput: clean {clean:.0}, jammed {jammed:.0}"
    );
    assert!(jammed > 0.0, "but not kill the flow");
}

#[test]
fn stray_segment_gets_rst() {
    // A client connects to a node with no listener: the connection
    // attempt must be reset, not time out.
    let topo = Topology::pair(0.999);
    let mut world = World::new(
        &topo,
        &[NodeKind::Router, NodeKind::Router],
        WorldConfig::default(),
    );
    // No listener on node 0!
    world.add_tcp_client(1, 0, TcpConfig::default(), Instant::from_millis(10));
    world.run_for(Duration::from_secs(10));
    let client = &world.nodes[1].transport.tcp[0];
    assert_eq!(client.state(), TcpState::Closed);
    assert_eq!(
        client.close_reason(),
        Some(tcplp::CloseReason::Reset),
        "refused by RST, not by retry exhaustion"
    );
}

#[test]
fn adaptive_poll_mode_duty_cycle_profile() {
    // Idle adaptive leaf: duty cycle far below the fixed-100ms regime.
    let run = |mode: lln_mac::poll::PollMode| {
        let mut world = duty_cycled_pair(0x5eed, mode);
        world.run_for(Duration::from_secs(300));
        let now = world.now();
        world.nodes[1].meter.radio_duty_cycle(now)
    };
    let adaptive = run(lln_mac::poll::PollMode::paper_adaptive());
    let fast_fixed = run(lln_mac::poll::PollMode::Adaptive {
        smin: Duration::from_millis(100),
        smax: Duration::from_millis(100),
    });
    assert!(
        adaptive < fast_fixed / 5.0,
        "adaptive idle ({adaptive:.4}) must be far below 100ms fixed ({fast_fixed:.4})"
    );
    assert!(
        adaptive < 0.005,
        "idle adaptive duty cycle ~0.1%: {adaptive:.4}"
    );
}

#[test]
fn energy_meter_tracks_transfer_phases() {
    let mut world = ChainRun {
        bytes: Some(100_000),
        ..ChainRun::default()
    }
    .build();
    world.run_for(Duration::from_secs(60));
    let now = world.now();
    let (sleep, rx, tx) = world.nodes[1].meter.radio_times(now);
    assert_eq!(sleep, Duration::ZERO, "routers never sleep");
    assert!(tx > Duration::ZERO, "sender transmitted");
    assert!(rx > tx, "even a sender listens more than it talks");
    let cpu = world.nodes[1].meter.cpu_duty_cycle(now);
    assert!(cpu > 0.0 && cpu < 0.5, "cpu duty cycle sane: {cpu}");
}

#[test]
fn two_tcp_clients_on_one_node_multiplex() {
    // Two sockets from node 2 to the same listener: port-based demux.
    let topo = Topology::chain(3, 0.999);
    let mut world = World::new(
        &topo,
        &[NodeKind::Router, NodeKind::Router, NodeKind::Router],
        WorldConfig::default(),
    );
    world.add_tcp_listener(0, TcpConfig::default());
    world.set_sink(0);
    let s1 = world.add_tcp_client(2, 0, TcpConfig::default(), Instant::from_millis(10));
    let s2 = world.add_tcp_client(2, 0, TcpConfig::default(), Instant::from_millis(20));
    world.run_for(Duration::from_secs(10));
    let a = &world.nodes[2].transport.tcp[s1];
    let b = &world.nodes[2].transport.tcp[s2];
    assert_eq!(a.state(), TcpState::Established);
    assert_eq!(b.state(), TcpState::Established);
    assert_ne!(a.local().1, b.local().1, "distinct local ports");
    assert_eq!(
        world.nodes[0].transport.tcp.len(),
        2,
        "server accepted both connections"
    );
}

#[test]
fn packet_trace_captures_a_transfer() {
    let mut world = ChainRun {
        hops: 2,
        bytes: Some(5_000),
        ..ChainRun::default()
    }
    .build();
    world.enable_trace(50_000);
    world.run_for(Duration::from_secs(20));
    assert_eq!(world.nodes[0].app.sink_received(), 5_000);

    let dump = world.trace.dump();
    // The trace must show the handshake, data, forwarding at the relay
    // and link-layer activity.
    assert!(
        dump.contains("SYN"),
        "handshake visible:\n{}",
        &dump[..800.min(dump.len())]
    );
    assert!(dump.contains("802.15.4 DATA"), "frames visible");
    assert!(dump.contains("forward"), "relay forwarding visible");
    assert!(dump.contains("deliver"), "final delivery visible");
    assert!(dump.contains("ACK seq="), "link ACKs visible");
    // The relay (node 1) both receives and transmits.
    use lln_netip::NodeId;
    use lln_node::trace::TraceDir;
    let relay_tx = world
        .trace
        .for_node(NodeId(1))
        .filter(|e| e.dir == TraceDir::FrameTx)
        .count();
    assert!(relay_tx > 0, "relay transmitted frames");
}

/// Hands `seg` from `src` to node `to`'s IP input at `at`, as if it
/// came over the wire.
fn inject(
    world: &mut World,
    at: Instant,
    to: usize,
    src: lln_netip::Ipv6Addr,
    seg: &tcplp::Segment,
) {
    let dst = world.nodes[to].ip_addr();
    let bytes = seg.encode(src, dst);
    let hdr = lln_netip::Ipv6Header::new(src, dst, lln_netip::NextHeader::Tcp, bytes.len() as u16);
    world.schedule_wired(to, at, hdr, bytes);
}

/// The `key=` field of a traced TCP summary, e.g. `ack=` of
/// `TCP 80->5000 SYN | ACK seq=1 ack=2 len=0 win=1848`.
fn trace_field(summary: &str, key: &str) -> u32 {
    let at = summary.find(key).expect("field present") + key.len();
    let digits: String = summary[at..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().expect("numeric field")
}

/// The TCP summaries node `n` delivered to its transport.
fn delivered_tcp(world: &World, n: u16) -> Vec<String> {
    world
        .trace
        .for_node(lln_netip::NodeId(n))
        .filter(|e| e.dir == lln_node::trace::TraceDir::Deliver && e.summary.starts_with("TCP"))
        .map(|e| e.summary.clone())
        .collect()
}

#[test]
fn synack_to_unroutable_source_is_counted_not_sent() {
    let topo = Topology::pair(0.999);
    let mut world = World::new(
        &topo,
        &[NodeKind::Router, NodeKind::Router],
        WorldConfig::default(),
    );
    world.add_tcp_listener(0, TcpConfig::default());
    let spoofed = lln_netip::NodeId(0xF000).mesh_addr();
    let syn = tcplp::Segment::new(
        40_000,
        80,
        tcplp::TcpSeq(777),
        tcplp::TcpSeq(0),
        tcplp::Flags::SYN,
    );
    inject(&mut world, Instant::from_millis(100), 0, spoofed, &syn);
    // Stop before the first SYN-ACK retransmission is due.
    world.run_until(Instant::from_millis(500));
    let n = &world.nodes[0];
    assert_eq!(n.counters.get("unroutable"), 1);
    assert!(n.ip_queue.is_empty());
    assert_eq!(
        world.medium.counters.get("frames_tx"),
        0,
        "nothing on the air"
    );
    let l = n.transport.tcp_listener.as_ref().unwrap();
    assert_eq!(
        (l.stats.syns_rcvd, l.half_open()),
        (1, 1),
        "the SYN is still cached"
    );
}

#[test]
fn synack_reaches_a_routable_peer_without_a_socket() {
    let topo = Topology::pair(0.999);
    let mut world = World::new(
        &topo,
        &[NodeKind::Router, NodeKind::Router],
        WorldConfig::default(),
    );
    world.enable_trace(1_000);
    world.add_tcp_listener(0, TcpConfig::default());
    // Node 1 has no socket: it only answers the SYN-ACK with an RST.
    let peer = world.nodes[1].ip_addr();
    let syn = tcplp::Segment::new(
        5_000,
        80,
        tcplp::TcpSeq(12_345),
        tcplp::TcpSeq(0),
        tcplp::Flags::SYN,
    );
    inject(&mut world, Instant::from_millis(100), 0, peer, &syn);
    world.run_until(Instant::from_millis(500));
    let got = delivered_tcp(&world, 1);
    let synack = got
        .iter()
        .find(|s| s.starts_with("TCP 80->5000") && s.contains("SYN") && s.contains("ACK"))
        .unwrap_or_else(|| panic!("no SYN-ACK delivered to node 1: {got:?}"));
    assert_eq!(trace_field(synack, " ack="), 12_346, "{synack}");
    assert_eq!(world.nodes[0].counters.get("unroutable"), 0);
}

#[test]
fn segment_to_closed_port_gets_rst() {
    let topo = Topology::pair(0.999);
    let mut world = World::new(
        &topo,
        &[NodeKind::Router, NodeKind::Router],
        WorldConfig::default(),
    );
    world.enable_trace(1_000);
    world.add_tcp_listener(0, TcpConfig::default());
    let peer = world.nodes[1].ip_addr();
    // An ACK to port 81, where nothing listens: RFC 793 answers with an
    // RST whose seq is the segment's ack.
    let ack = tcplp::Segment::new(
        5_000,
        81,
        tcplp::TcpSeq(1),
        tcplp::TcpSeq(4_242),
        tcplp::Flags::ACK,
    );
    inject(&mut world, Instant::from_millis(100), 0, peer, &ack);
    world.run_until(Instant::from_millis(500));
    let got = delivered_tcp(&world, 1);
    let rst = got
        .iter()
        .find(|s| s.starts_with("TCP 81->5000") && s.contains("RST"))
        .unwrap_or_else(|| panic!("no RST delivered to node 1: {got:?}"));
    assert_eq!(trace_field(rst, " seq="), 4_242, "{rst}");
    let l = world.nodes[0].transport.tcp_listener.as_ref().unwrap();
    assert_eq!(
        l.stats.syns_rcvd + l.stats.bad_acks,
        0,
        "the listener never saw it"
    );
}

#[test]
fn dropped_fragments_return_to_the_frame_pool() {
    // A blackout mid-transfer exhausts link retries on the first
    // fragment of several packets, so the rest of each packet's
    // fragments are discarded unsent. Every frame block must still come
    // back: once the transfer is over and nothing is on the air or
    // queued, each block the pool ever built is a spare again.
    let mut world = ChainRun {
        bytes: Some(50_000),
        ..ChainRun::default()
    }
    .build();
    world.apply_fault_plan(&FaultPlan::new().blackout(
        0,
        1,
        Instant::from_secs(3),
        Duration::from_secs(10),
    ));
    world.run_for(Duration::from_secs(120));

    assert_eq!(
        world.nodes[0].app.sink_received(),
        50_000,
        "transfer completes"
    );
    assert!(
        world.nodes[1].counters.get("frames_dropped") >= 2,
        "the blackout must exhaust link retries"
    );
    let idle =
        |n: &Node| n.cur_tx.is_none() && n.ctrl_queue.is_empty() && n.cur_packet_frames.is_empty();
    assert!(world.nodes.iter().all(idle), "nothing on the air or queued");
    assert_eq!(
        world.pool.spares() as u64,
        world.pool.fresh,
        "every frame block the pool built is back"
    );
}

#[test]
fn refused_control_frames_return_to_the_frame_pool() {
    // A sleepy leaf with no MAC-queue budget cannot queue even its
    // data-request polls: the control queue tail-drops every one. Each
    // refused frame goes back to the frame pool, so one pooled block
    // serves every poll.
    let topo = Topology::pair(0.999);
    let mut world = World::new(
        &topo,
        &[NodeKind::Router, NodeKind::SleepyLeaf],
        WorldConfig::default(),
    );
    let mut budget = world.nodes[1].budget.clone();
    budget.caps[tcplp::MemClass::MacQueue.idx()] = 0;
    world.nodes[1].apply_budget(budget);
    world.set_poll_mode(
        1,
        lln_mac::poll::PollMode::Adaptive {
            smin: Duration::from_millis(100),
            smax: Duration::from_millis(100),
        },
    );
    world.schedule_poll(1, Instant::from_millis(5));
    world.run_for(Duration::from_secs(5));

    let leaf = &world.nodes[1];
    let drops = leaf.counters.get("ctrl_queue_drops");
    assert!(drops >= 10, "only {drops} polls refused");
    assert_eq!(leaf.governor.denies(tcplp::MemClass::MacQueue), drops);
    assert!(leaf.ctrl_queue.is_empty());
    assert_eq!(world.pool.fresh, 1, "every refused frame was recycled");
    assert_eq!(world.pool.spares(), 1, "and is a spare again");
}

#[test]
fn reboot_in_csma_backoff_drops_the_frame_before_its_cca() {
    // Node 1 streams 20 kB to node 0 over one perfect hop. The world
    // steps 1 µs at a time until node 1's first frame is loaded and in
    // its CSMA backoff (SpiDone handled, the CCA still ahead), then node
    // 1 loses power for 5 ms, longer than any backoff plus CCA.
    let mut world = ChainRun {
        prr: 1.0,
        bytes: Some(20_000),
        ..ChainRun::default()
    }
    .build();
    let in_backoff = |w: &World| {
        w.nodes[1]
            .cur_tx
            .as_ref()
            .is_some_and(|tx| tx.handle.is_none() && tx.process.in_csma())
    };
    let step = Duration::from_micros(1);
    let mut at = Instant::ZERO;
    while !in_backoff(&world) {
        at += step;
        world.run_until(at);
        assert!(at < Instant::from_secs(1), "no frame was loaded");
    }
    let down_for = Duration::from_millis(5);
    world.apply_fault_plan(&FaultPlan::new().reboot(1, at, down_for));
    let frames_tx = |w: &World| w.nodes[1].counters.get("frames_tx");
    let sent = frames_tx(&world);
    let on_air = world.medium.counters.get("frames_tx");
    world.run_until(at);
    assert!(world.nodes[1].down, "the reboot is due at once");
    // No CCA runs for the dropped frame, and nothing from node 1 goes on
    // the air while it is down: the stream has only node 1 to send.
    let mut t = at;
    while t + step < at + down_for {
        t += step;
        world.run_until(t);
        assert!(world.nodes[1].down && world.nodes[1].cur_tx.is_none());
        assert_eq!(frames_tx(&world), sent, "node 1 sent while down");
        assert_eq!(world.medium.counters.get("frames_tx"), on_air);
    }
    world.run_until(at + Duration::from_secs(60));
    assert!(!world.nodes[1].down);
    assert_eq!(world.nodes[1].counters.get("boots"), 1);
    // The stream died with node 1's socket, so the medium falls quiet
    // and every transmission begun was closed.
    assert_eq!(world.medium.active_records(), 0);
}

/// A forged SYN from a source with no route parks the same cache entry,
/// moves the same listener counters and charges the same memory as one
/// from a routable source. Its SYN-ACKs, the first answer and every
/// timer retransmission, are each counted once as unroutable, and
/// nothing reaches the IP queue or the air.
#[test]
fn syn_from_an_unroutable_source_is_cached_but_never_sent() {
    // Node 0 listens and takes 20 forged SYNs from three spoofed
    // sources, each SYN-ACK retransmitted up to three times; with
    // `routable`, node 0's default route points at node 1.
    let world = |routable: bool| {
        let topo = Topology::chain(2, 0.999);
        let mut w = World::new(&topo, &[NodeKind::Router; 2], WorldConfig::default());
        let cfg = TcpConfig {
            max_retransmits: 3,
            ..TcpConfig::default()
        };
        w.add_tcp_listener(0, cfg);
        w.attach_flood(
            0,
            FloodConfig {
                start: Instant::from_secs(1),
                stop: Instant::from_secs(3),
                rate_hz: 10,
                syn: true,
                frag: false,
                spoofed_sources: 3,
                ..FloodConfig::default()
            },
        );
        if routable {
            w.nodes[0].routes.default_route = Some(NodeId(1));
        }
        w
    };
    let listener = |w: &World| -> ListenSocket {
        w.nodes[0].transport.tcp_listener.clone().expect("listener")
    };
    let ledger = |w: &World| {
        let g = w.governor(0);
        let c = MemClass::SynCache;
        (g.gauge(c), g.high_water(c), g.denies(c), g.evictions(c))
    };
    let (mut spoofed, mut reachable) = (world(false), world(true));
    let mut t = Instant::ZERO;
    while t < Instant::from_secs(30) {
        t += Duration::from_millis(10);
        spoofed.run_until(t);
        reachable.run_until(t);
        let (a, b) = (listener(&spoofed), listener(&reachable));
        assert_eq!(
            (a.half_open(), a.half_open_bytes(), a.poll_at()),
            (b.half_open(), b.half_open_bytes(), b.poll_at()),
            "cache at {t:?}"
        );
        assert_eq!(a.stats.digest(), b.stats.digest(), "stats at {t:?}");
        assert_eq!(ledger(&spoofed), ledger(&reachable), "ledger at {t:?}");
        let n = &spoofed.nodes[0];
        assert_eq!(a.stats.backlog_denied, 0);
        assert_eq!(
            n.counters.get("unroutable"),
            a.stats.syns_rcvd + a.stats.synack_rexmits,
            "one unroutable count per SYN-ACK due, at {t:?}"
        );
        assert!(n.ip_queue.is_empty(), "queued at {t:?}");
        for c in ["packets_tx", "frames_tx", "queue_drops", "queue_byte_drops"] {
            assert_eq!(n.counters.get(c), 0, "{c} at {t:?}");
        }
    }
    let a = listener(&spoofed).stats;
    assert_eq!(a.syns_rcvd, 20);
    assert!(a.synack_rexmits > 0 && a.expired > 0, "{a:?}");
    assert_eq!(spoofed.governor(0).gauge(MemClass::SynCache), 0);
    // The routable twin did answer, from node 0, every time.
    let n = &reachable.nodes[0];
    assert_eq!(n.counters.get("unroutable"), 0);
    assert_eq!(n.counters.get("packets_tx"), a.syns_rcvd + a.synack_rexmits);
}
