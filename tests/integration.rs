//! Workspace-level integration tests: scenarios spanning every crate,
//! checking that the reproduction's headline behaviours hold end to
//! end.

use lln_bench::sweep::sweep;
use lln_bench::{run_app_study, run_chain_bulk, AppProtocol, AppRun, BulkResult, ChainRun};
use tcplp_repro::coap::{CoapClient, CoapClientConfig, Cocoa, RtoAlgorithm};
use tcplp_repro::models;
use tcplp_repro::node::app::App;
use tcplp_repro::node::route::Topology;
use tcplp_repro::node::stack::NodeKind;
use tcplp_repro::node::world::{World, WorldConfig};
use tcplp_repro::phy::{LinkMatrix, RadioIdx};
use tcplp_repro::sim::{Duration, Instant};
use tcplp_repro::tcplp::TcpConfig;

/// A bulk transfer of `bytes` over a `hops`-hop chain at link-retry
/// delay `d_ms`, run for `secs`.
fn bulk(hops: usize, d_ms: u64, seed: u64, bytes: u64, secs: u64) -> BulkResult {
    run_chain_bulk(&ChainRun {
        hops,
        retry_delay: Duration::from_millis(d_ms),
        bytes: Some(bytes),
        duration: Duration::from_secs(secs),
        seed,
        ..ChainRun::default()
    })
}

#[test]
fn headline_single_hop_goodput() {
    // Paper Table 7 / §6.3: TCPlp reaches ~63-75 kb/s over one hop —
    // 5-40x the simplified stacks.
    let goodput = bulk(1, 40, 1, 300_000, 60).goodput_bps;
    assert!(
        (55_000.0..85_000.0).contains(&goodput),
        "single-hop TCPlp goodput {goodput:.0} b/s out of range"
    );
}

#[test]
fn goodput_shrinks_with_hops_like_the_bound() {
    // §7.2: B, ~B/2, ~B/3.
    let g1 = bulk(1, 40, 2, 300_000, 90).goodput_bps;
    let g2 = bulk(2, 40, 2, 200_000, 90).goodput_bps;
    let g3 = bulk(3, 40, 2, 150_000, 90).goodput_bps;
    assert!(
        g2 < 0.65 * g1,
        "2 hops {g2:.0} not < 0.65x single-hop {g1:.0}"
    );
    assert!(
        g3 < 0.55 * g1,
        "3 hops {g3:.0} not < 0.55x single-hop {g1:.0}"
    );
    assert!(
        g3 > 0.15 * g1,
        "3 hops {g3:.0} collapsed relative to {g1:.0}"
    );
    // And the analytic bound brackets the measurements from above.
    assert!(g2 <= g1 * models::multihop_scale_factor(2) * 1.3);
    assert!(g3 <= g1 * models::multihop_scale_factor(3) * 1.3);
}

#[test]
fn retry_delay_rescues_hidden_terminal_losses() {
    // Figure 6(b): segment loss at d=0 far exceeds loss at d=40ms.
    let at0 = bulk(3, 0, 3, 400_000, 90).seg_loss;
    let at40 = bulk(3, 40, 3, 400_000, 90).seg_loss;
    assert!(
        at0 > 3.0 * at40,
        "segment loss at d=0 ({at0:.3}) should dwarf d=40ms ({at40:.3})"
    );
}

#[test]
fn eq2_model_tracks_measured_goodput() {
    // §8: Equation 2 predicts within ~35% given measured RTT and loss.
    let r = bulk(3, 40, 4, 400_000, 120);
    let mean_rtt = Duration::from_micros((r.rtt.mean() * 1e3) as u64);
    let p = r.seg_loss.clamp(1e-4, 0.4);
    let measured = r.goodput_bps;
    let predicted = models::tcplp_goodput_bps(462.0, mean_rtt, 4.0, p);
    let ratio = predicted / measured;
    assert!(
        (0.6..1.6).contains(&ratio),
        "Eq.2 predicted {predicted:.0} vs measured {measured:.0} (ratio {ratio:.2})"
    );
    // Equation 1 wildly overpredicts in the same regime (the paper's
    // point about loss-limited models).
    let eq1 = models::mathis_goodput_bps(462.0, mean_rtt, p);
    assert!(eq1 > 2.0 * measured, "Eq.1 {eq1:.0} should overpredict");
}

#[test]
fn cwnd_stays_pinned_despite_loss() {
    // §7.3: with 4-segment buffers, the time-weighted mean cwnd stays
    // near the maximum even under hidden-terminal loss at d=0.
    let mut world = ChainRun {
        hops: 3,
        retry_delay: Duration::ZERO,
        bytes: None,
        seed: 5,
        ..ChainRun::default()
    }
    .build();
    world.nodes[3].transport.tcp[0].cwnd_trace.enable();
    world.run_for(Duration::from_secs(120));
    let s = &world.nodes[3].transport.tcp[0];
    let mean = s
        .cwnd_trace
        .mean_cwnd(Instant::from_secs(20), Instant::from_secs(120));
    assert!(
        mean > 0.55 * 1848.0,
        "mean cwnd {mean:.0} too low for the buffer-limited regime"
    );
}

#[test]
fn tcp_and_coap_both_reliable_under_moderate_loss() {
    // Figure 9(a) at 9% injected loss: both reliability protocols stay
    // near 100%.
    let mut links = LinkMatrix::new(4);
    links.set_symmetric(RadioIdx(1), RadioIdx(2), 0.98);
    links.set_symmetric(RadioIdx(2), RadioIdx(3), 0.98);
    let topo = Topology::with_shortest_paths(links);

    // TCP arm.
    let mut world = World::new(
        &topo,
        &[
            NodeKind::CloudHost,
            NodeKind::BorderRouter,
            NodeKind::Router,
            NodeKind::SleepyLeaf,
        ],
        WorldConfig::default(),
    );
    world.set_injected_loss(1, 0.09);
    world.add_tcp_listener(0, TcpConfig::default());
    world.set_sink(0);
    world.add_tcp_client(3, 0, TcpConfig::default(), Instant::from_millis(300));
    world.set_anemometer(3, 64, Some(16), Instant::from_secs(1));
    world.run_for(Duration::from_secs(600));
    let delivered = world.nodes[0].app.sink_received() / 82;
    let App::Anemometer(a) = &world.nodes[3].app else {
        panic!()
    };
    let denom = a.generated
        - a.queue.len() as u64
        - (world.nodes[3].transport.tcp[0].send_queued() / 82) as u64;
    assert!(
        delivered as f64 >= 0.9 * denom as f64,
        "TCP reliability under 9% loss: {delivered}/{denom}"
    );

    // CoAP arm.
    let mut world = World::new(
        &topo,
        &[
            NodeKind::CloudHost,
            NodeKind::BorderRouter,
            NodeKind::Router,
            NodeKind::SleepyLeaf,
        ],
        WorldConfig::default(),
    );
    world.set_injected_loss(1, 0.09);
    world.add_coap_server(0);
    world.add_coap_client(
        3,
        CoapClient::new(CoapClientConfig::default(), RtoAlgorithm::Default, &["s"]),
    );
    world.set_anemometer(3, 104, Some(16), Instant::from_secs(1));
    world.run_for(Duration::from_secs(600));
    let coap_readings: usize = world.nodes[0]
        .transport
        .coap_server
        .as_ref()
        .unwrap()
        .received()
        .iter()
        .map(|r| r.payload.len() / 82)
        .sum();
    let App::Anemometer(a) = &world.nodes[3].app else {
        panic!()
    };
    let backlog = world.nodes[3]
        .transport
        .coap_client
        .as_ref()
        .unwrap()
        .backlog() as u64
        * 5;
    let denom = a.generated.saturating_sub(a.queue.len() as u64 + backlog);
    assert!(
        coap_readings as f64 >= 0.85 * denom as f64,
        "CoAP reliability under 9% loss: {coap_readings}/{denom}"
    );
}

/// Figure 9(a) on the full §9 app study: 4 sleepy sensors, batch 64,
/// 9% injected loss at the border router, over several seeds. One
/// silent sensor caps reliability near 75%, so ≥ 90% at every seed means
/// every sensor kept delivering. A sleepy leaf whose handshake ACK is
/// lost speaks next with its first batch, about 64 s later, so the
/// listener's half-open entry must outlive that.
#[test]
fn app_study_keeps_every_sensor_reporting_at_9pct_loss() {
    let seeds: Vec<u64> = (1..=4).map(|k| 7919 * k).collect();
    let results = sweep(&seeds, |&seed| {
        run_app_study(&AppRun {
            protocol: AppProtocol::Tcplp,
            batch: Some(64),
            sensors: 4,
            injected_loss: 0.09,
            duration: Duration::from_secs(1500),
            seed,
            ..AppRun::default()
        })
    });
    for (seed, r) in seeds.iter().zip(&results) {
        assert!(
            r.reliability >= 0.90,
            "seed {seed}: reliability {:.1}% ({} of {} readings)",
            r.reliability * 100.0,
            r.delivered,
            r.generated
        );
    }
}

#[test]
fn cocoa_weak_estimator_inflates_rto_under_loss() {
    // §9.4's mechanism, observed through the public API: a CoCoA client
    // whose exchanges keep needing one retransmission ends up with a
    // multi-second RTO, while clean exchanges shrink it.
    let mut lossy = Cocoa::new();
    let mut clean = Cocoa::new();
    for _ in 0..10 {
        lossy.on_exchange_complete(Duration::from_millis(2400), true);
        clean.on_exchange_complete(Duration::from_millis(400), false);
    }
    assert!(lossy.rto() > Duration::from_secs(2));
    assert!(clean.rto() < Duration::from_secs(1));
}

#[test]
fn sleepy_leaf_duty_cycle_orders_of_magnitude_below_always_on() {
    let topo = Topology::chain(2, 0.999);
    let mut world = World::new(
        &topo,
        &[NodeKind::Router, NodeKind::SleepyLeaf],
        WorldConfig::default(),
    );
    world.run_for(Duration::from_secs(1200));
    let now = world.now();
    let leaf_dc = world.nodes[1].meter.radio_duty_cycle(now);
    let router_dc = world.nodes[0].meter.radio_duty_cycle(now);
    assert!(leaf_dc < 0.01, "idle sleepy leaf at {leaf_dc:.4}");
    assert!(router_dc > 0.99, "always-on router at {router_dc:.4}");
}

#[test]
fn six_lowpan_stack_roundtrip_through_real_frames() {
    // A TCP segment encoded, compressed, fragmented into MAC frames,
    // then reassembled and decompressed — byte-identical.
    use tcplp_repro::mac::frame::MacFrame;
    use tcplp_repro::netip::{Ipv6Header, NextHeader, NodeId};
    use tcplp_repro::sixlowpan as lowpan;
    use tcplp_repro::tcplp::{Flags, Segment, TcpSeq};

    let src = NodeId(7).mesh_addr();
    let dst = NodeId(8).mesh_addr();
    let mut seg = Segment::new(1, 2, TcpSeq(9), TcpSeq(10), Flags::ACK | Flags::PSH);
    seg.payload = (0..447u32).map(|i| (i % 256) as u8).collect();
    let tcp_bytes = seg.encode(src, dst);
    let hdr = Ipv6Header::new(src, dst, NextHeader::Tcp, tcp_bytes.len() as u16);
    let packet = lowpan::compress(&hdr, NodeId(7), NodeId(8), &tcp_bytes);
    let frags: Vec<_> = lowpan::fragment(&packet, 42, lowpan::MAX_FRAME_PAYLOAD).collect();
    assert_eq!(frags.len(), 5, "five-frame segment");

    // Ship each fragment through a MAC frame codec pass.
    let mut reasm = lowpan::Reassembler::default();
    let mut done = None;
    for (k, f) in frags.iter().enumerate() {
        let mf = MacFrame::data(NodeId(7), NodeId(8), k as u8, f.to_vec());
        let decoded = MacFrame::decode(&mf.encode()).expect("mac codec");
        done = reasm.offer(decoded.src, &decoded.payload, Instant::ZERO);
    }
    let packet_back = done.expect("reassembled");
    let (hdr_back, payload_back) =
        lowpan::decompress(&packet_back, NodeId(7), NodeId(8)).expect("iphc");
    assert_eq!(hdr_back.src, src);
    assert_eq!(hdr_back.dst, dst);
    let seg_back = Segment::decode(src, dst, &payload_back).expect("tcp decode");
    assert_eq!(seg_back, seg);
}
