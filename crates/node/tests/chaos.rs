//! Chaos tier: composed fault plans against supervised connections.
//!
//! The paper's deployment argument (§3, §9) is that full-scale TCP plus
//! application-level supervision survives what LLN deployments actually
//! see: node reboots, RF blackouts, parent churn and bit-error bursts.
//! These tests compose [`FaultPlan`]s against supervised bulk and
//! anemometer workloads and assert *byte-exact* end-to-end integrity
//! after recovery, plus determinism of the whole fault schedule.

use lln_bench::tier::{
    self, Sender, CLIENT, FIRST_LEAF, SERVER, SUPERVISED_BULK_BYTES, TREE_LEAVES,
};
use lln_bench::worlds::install_stream;
use lln_netip::NodeId;
use lln_node::app::App;
use lln_node::fault::FaultPlan;
use lln_node::flood::FloodConfig;
use lln_node::route::Topology;
use lln_node::stack::NodeKind;
use lln_node::supervisor::{RecordAssembler, SupervisorConfig};
use lln_node::trace::TraceDir;
use lln_node::world::{World, WorldConfig};
use lln_phy::{LinkMatrix, RadioIdx};
use lln_sim::{Duration, Instant};
use tcplp::{MemClass, NodeBudget, TcpConfig};

/// The records the sink on `sink` received from its one client, after
/// [`tier::record_contract`] has held.
fn records(world: &World, sink: usize) -> RecordAssembler {
    let mut by_client = tier::records_by_client(world.nodes[sink].app.sink_capture());
    assert_eq!(by_client.len(), 1, "one client");
    let (_, asm) = by_client.pop().expect("one client");
    if let Err(e) = tier::record_contract(&asm) {
        panic!("record contract: {e}");
    }
    asm
}

/// The acceptance scenario: 3-hop chain bulk transfer with a
/// mid-transfer relay reboot and a 30 s link blackout. The transfer
/// must complete byte-exactly and the supervisor must have reconnected
/// at least once.
fn run_chain_chaos(seed: u64) -> World {
    let mut world = tier::chain4(seed, NodeBudget::default());
    world.enable_trace(200_000);
    tier::install_bulk(&mut world, Sender::Supervised);
    let plan = FaultPlan::new()
        .reboot(2, Instant::from_secs(8), Duration::from_secs(5))
        .blackout(1, 2, Instant::from_secs(15), Duration::from_secs(30));
    world.apply_fault_plan(&plan);
    world.run_for(Duration::from_secs(240));
    // The supervised connection stays live past the horizon, so assert
    // budget caps (no class ever over cap) rather than full drain.
    world.assert_governor_bounded();
    world
}

#[test]
fn chain_bulk_survives_relay_reboot_and_blackout() {
    let world = run_chain_chaos(0x5eed);

    // Byte-exact integrity: every record delivered exactly once after
    // dedup, reassembling to the original byte stream.
    let asm = records(&world, SERVER);
    let got = asm.assembled().expect("gap-free");
    let want = tier::pattern(SUPERVISED_BULK_BYTES);
    let first_diff = got.iter().zip(want.iter()).position(|(a, b)| a != b);
    assert_eq!(
        got,
        want,
        "reassembled stream must match the sent pattern byte-for-byte \
         (got {} bytes, want {}, first diff at {:?}, stats {:?})",
        got.len(),
        want.len(),
        first_diff,
        world.supervisor_stats(CLIENT)
    );

    // The blackout must actually have killed and revived the
    // connection.
    let stats = world.supervisor_stats(CLIENT).expect("supervised client");
    assert!(stats.deaths >= 1, "blackout must kill the connection");
    assert!(
        stats.reconnects >= 1,
        "supervisor must re-establish: {stats:?}"
    );
    assert!(
        stats.records_replayed >= 1,
        "unacknowledged records must be queued for replay: {stats:?}"
    );
    assert!(stats.downtime_us > 0);
    assert!(!world.nodes[CLIENT]
        .supervisor
        .as_ref()
        .expect("supervisor")
        .has_pending());

    // The relay rebooted exactly once and came back.
    assert_eq!(world.nodes[2].counters.get("reboots"), 1);
    assert_eq!(world.nodes[2].counters.get("boots"), 1);
    assert_eq!(world.nodes[1].counters.get("link_blackouts"), 1);
}

/// Same seed + same plan ⇒ bit-identical outcome: every node counter,
/// the supervisor stats, the medium's frame count, and the full packet
/// trace.
#[test]
fn chaos_run_is_deterministic() {
    let fingerprint = |world: &World| {
        let counters: Vec<Vec<(&'static str, u64)>> = world
            .nodes
            .iter()
            .map(|n| n.counters.iter().collect())
            .collect();
        let trace: Vec<(u64, u16, String)> = world
            .trace
            .entries()
            .iter()
            .map(|e| {
                (
                    e.at.as_micros(),
                    e.node.0,
                    format!("{:?} {}", e.dir, e.summary),
                )
            })
            .collect();
        (
            counters,
            world.supervisor_stats(CLIENT),
            world.medium.counters.get("frames_tx"),
            world.nodes[SERVER].app.sink_received(),
            trace,
        )
    };
    let a = run_chain_chaos(0xC0FFEE);
    let b = run_chain_chaos(0xC0FFEE);
    let (fa, fb) = (fingerprint(&a), fingerprint(&b));
    assert_eq!(fa.0, fb.0, "per-node counters must replay identically");
    assert_eq!(fa.1, fb.1, "supervisor stats must replay identically");
    assert_eq!(fa.2, fb.2, "frame counts must replay identically");
    assert_eq!(fa.3, fb.3, "sink bytes must replay identically");
    assert_eq!(fa.4.len(), fb.4.len(), "trace length must match");
    assert_eq!(fa.4, fb.4, "packet traces must replay identically");
}

/// A sleepy-leaf anemometer whose node reboots mid-run and whose
/// uplink router suffers a bit-error burst: every reading generated
/// while powered is delivered exactly once (the supervisor's flash
/// queue survives the reboot), and the corruption dies at the FCS
/// check rather than reaching any decoder.
#[test]
fn anemometer_survives_client_reboot_and_bit_errors() {
    let topo = Topology::chain(3, 0.999);
    let mut world = World::new(
        &topo,
        &[
            NodeKind::BorderRouter,
            NodeKind::Router,
            NodeKind::SleepyLeaf,
        ],
        WorldConfig::default(),
    );
    world.add_tcp_listener(0, tcplp::TcpConfig::default());
    world.set_sink_capture(0);
    world.add_supervised_client(2, 0, SupervisorConfig::default(), Instant::from_millis(100));
    world.set_anemometer(2, 64, None, Instant::from_secs(1));
    let plan = FaultPlan::new()
        .reboot(2, Instant::from_secs(30), Duration::from_secs(8))
        .bit_error_burst(1, Instant::from_secs(60), Duration::from_secs(8), 2e-3);
    world.apply_fault_plan(&plan);
    world.run_for(Duration::from_secs(120));
    world.assert_governor_bounded();

    // The leaf rebooted; the supervisor noticed the wiped socket and
    // reconnected.
    assert_eq!(world.nodes[2].counters.get("reboots"), 1);
    let stats = world.supervisor_stats(2).expect("supervised leaf");
    assert!(stats.deaths >= 1, "reboot must register as a death");
    assert!(stats.reconnects >= 1, "leaf must reconnect after boot");

    // The bit-error burst corrupted frames and the FCS caught them.
    assert_eq!(world.nodes[1].counters.get("ber_bursts"), 1);
    assert!(
        world.nodes[1].counters.get("ber_corrupted_frames") > 0,
        "burst must corrupt traffic through the router"
    );
    assert!(
        world.nodes[1].counters.get("fcs_drops") > 0,
        "corrupted frames must die at the FCS check"
    );

    // Conservation: every reading is either still queued in the app,
    // retained in the supervisor, or delivered exactly once. Nothing
    // is lost, nothing duplicated after dedup.
    let asm = records(&world, 0);
    let App::Anemometer(app) = &world.nodes[2].app else {
        panic!("anemometer app expected");
    };
    let pending = world.nodes[2]
        .supervisor
        .as_ref()
        .expect("supervisor")
        .pending_records() as u64;
    assert_eq!(app.dropped, 0, "queue must never overflow in this run");
    assert_eq!(
        asm.record_count() as u64 + pending + app.queue.len() as u64,
        app.generated,
        "reading conservation: delivered + retained + queued == generated"
    );
    // Payload integrity: record k carries reading k (82 bytes, 8-byte
    // BE sequence prefix).
    let bytes = asm.assembled().expect("gap-free");
    assert_eq!(bytes.len() % lln_node::app::READING_BYTES, 0);
    for (k, reading) in bytes.chunks(lln_node::app::READING_BYTES).enumerate() {
        let seq = u64::from_be_bytes(reading[..8].try_into().expect("8B"));
        assert_eq!(seq, k as u64, "reading sequence must be contiguous");
    }
}

/// Route flap on a diamond: the client re-parents onto the alternate
/// path and the transfer still completes byte-exactly.
#[test]
fn route_flap_reparents_and_transfer_completes() {
    // 0 -- 1 -- 3 and 0 -- 2 -- 3: two equal-cost parents for node 3.
    let mut links = LinkMatrix::new(4);
    links.set_symmetric(RadioIdx(0), RadioIdx(1), 0.999);
    links.set_symmetric(RadioIdx(0), RadioIdx(2), 0.999);
    links.set_symmetric(RadioIdx(1), RadioIdx(3), 0.999);
    links.set_symmetric(RadioIdx(2), RadioIdx(3), 0.999);
    let topo = Topology::with_shortest_paths(links);
    let mut world = World::new(
        &topo,
        &[
            NodeKind::BorderRouter,
            NodeKind::Router,
            NodeKind::Router,
            NodeKind::Router,
        ],
        WorldConfig::default(),
    );
    world.add_tcp_listener(0, tcplp::TcpConfig::default());
    world.set_sink_capture(0);
    world.add_supervised_client(3, 0, SupervisorConfig::default(), Instant::from_millis(10));
    world.set_bulk_sender(3, Some(20_000));
    let parent_before = world.nodes[3].routes.default_route;
    world.apply_fault_plan(&FaultPlan::new().route_flap(3, Instant::from_secs(5)));
    world.run_for(Duration::from_secs(120));
    world.assert_governor_bounded();

    assert_eq!(world.nodes[3].counters.get("route_flaps"), 1);
    let parent_after = world.nodes[3].routes.default_route;
    assert!(parent_before.is_some() && parent_after.is_some());
    assert_ne!(
        parent_before, parent_after,
        "flap must move the client to the alternate parent"
    );
    let asm = records(&world, 0);
    assert_eq!(asm.assembled().expect("gap-free"), tier::pattern(20_000));
}

/// Blackouts restore the exact pre-fault PRRs when they end.
#[test]
fn blackout_zeroes_and_restores_link_quality() {
    let topo = Topology::chain(3, 0.95);
    let mut world = World::new(
        &topo,
        &[NodeKind::Router, NodeKind::Router, NodeKind::Router],
        WorldConfig::default(),
    );
    let before = world.medium.links().prr(RadioIdx(1), RadioIdx(2));
    assert!(before > 0.0);
    world.apply_fault_plan(&FaultPlan::new().blackout(
        1,
        2,
        Instant::from_secs(1),
        Duration::from_secs(2),
    ));
    world.run_until(Instant::from_secs(2));
    assert_eq!(
        world.medium.links().prr(RadioIdx(1), RadioIdx(2)),
        0.0,
        "link must be dark mid-blackout"
    );
    assert_eq!(world.medium.links().prr(RadioIdx(2), RadioIdx(1)), 0.0);
    world.run_until(Instant::from_secs(5));
    assert_eq!(
        world.medium.links().prr(RadioIdx(1), RadioIdx(2)),
        before,
        "blackout end must restore the saved PRR"
    );
    assert_eq!(world.nodes[1].counters.get("link_blackouts"), 1);
}

/// A reboot that lands while the node's link ACK is on the air cuts the
/// ACK, but the ACK's medium record must still close when its air time
/// ends (`World::guard_down_node`). The medium keeps a finished record
/// only while a live one overlaps it, so a record left open would pin
/// every later one for good and the medium would never drain again.
#[test]
fn link_ack_cut_by_reboot_still_closes_its_medium_record() {
    // 0 streams to the sink at 1; 2 hears only 1, so its CCA sees 1's
    // ACKs and nothing from 0.
    let build = || {
        let topo = Topology::chain(3, 1.0);
        let mut world = World::new(&topo, &[NodeKind::Router; 3], WorldConfig::default());
        install_stream(&mut world, 0, 1, &TcpConfig::default(), None);
        world
    };
    // A probe run of the same world finds a data frame the sink decodes;
    // its link ACK goes on the air one turnaround later.
    let mut probe = build();
    probe.enable_trace(100_000);
    probe.run_until(Instant::from_secs(3));
    let rx = probe
        .trace
        .entries()
        .iter()
        .find(|e| {
            e.at >= Instant::from_secs(2)
                && e.node == NodeId(1)
                && e.dir == TraceDir::FrameRx
                && e.summary.starts_with("802.15.4 DATA 0->1")
        })
        .expect("the sink decodes data frames")
        .at;
    let phy = &probe.cfg.phy;
    let ack_start = rx + phy.turnaround;
    let ack_end = ack_start + phy.ack_air_time();
    let cut = ack_start + phy.ack_air_time() / 2;

    let mut world = build();
    world.apply_fault_plan(&FaultPlan::new().reboot(1, cut, Duration::from_secs(1)));
    world.run_until(cut);
    assert!(world.nodes[1].down, "the sink rebooted at {cut}");
    assert!(
        world.medium.cca_busy(RadioIdx(2), cut),
        "the cut ACK is still on the air at {cut}"
    );
    // With the sink down, only the sender's retries reach the air, and
    // between them the medium holds no record at all.
    let mut t = ack_end;
    world.run_until(t);
    while world.medium.active_records() > 0 {
        assert!(
            t < cut + Duration::from_secs(1),
            "{} medium records still open at {t}",
            world.medium.active_records()
        );
        t += Duration::from_micros(100);
        world.run_until(t);
    }
    assert_eq!(world.nodes[1].counters.get("reboots"), 1);
}

/// A reboot must not freeze the governor's reassembly accounting. A
/// FRAG1-only flood (80/s, the determinism tier's frag-flood shape)
/// hits the end of an idle 3-hop chain, and that node reboots for 1 s
/// at 60 s. Thirty seconds later the governor's Reassembly denies and
/// evictions must equal their pre-reboot totals plus every deny and
/// eviction the reassembler logged after the reboot.
#[test]
fn reassembly_governor_counts_survive_reboot() {
    let mut world = tier::chain4(52001, NodeBudget::default());
    world.attach_flood(
        0,
        FloodConfig {
            start: Instant::from_millis(2_000),
            stop: Instant::from_millis(150_000),
            rate_hz: 80,
            syn: false,
            frag: true,
            spoofed_sources: 16,
            ..FloodConfig::default()
        },
    );
    let reboot_at = Instant::from_secs(60);
    world.apply_fault_plan(&FaultPlan::new().reboot(0, reboot_at, Duration::from_secs(1)));

    // (denies, evictions) as the governor and as the reassembler count them.
    let governor = |w: &World| {
        let g = w.governor(0);
        (
            g.denies(MemClass::Reassembly),
            g.evictions(MemClass::Reassembly),
        )
    };
    let reassembler = |w: &World| {
        let r = &w.nodes[0].reassembler;
        (
            r.denied_slots + r.denied_bytes,
            r.timeouts + r.evicted_source,
        )
    };

    world.run_until(reboot_at - Duration::from_micros(1));
    assert!(!world.nodes[0].down);
    let before = governor(&world);
    assert!(
        before.0 > 0 && before.1 > 0,
        "the flood must load the reassembler: {before:?}"
    );
    world.run_until(reboot_at);
    assert!(world.nodes[0].down, "the server rebooted at {reboot_at}");
    let at_reboot = reassembler(&world);

    world.run_until(Instant::from_secs(90));
    let after = reassembler(&world);
    let post = (after.0 - at_reboot.0, after.1 - at_reboot.1);
    assert!(
        post.0 > 0 && post.1 > 0,
        "the flood must go on after the reboot: {post:?}"
    );
    assert_eq!(
        governor(&world),
        (before.0 + post.0, before.1 + post.1),
        "governor (denies, evictions) = pre-reboot totals {before:?} + post-reboot events {post:?}"
    );
}

/// Overlapping faults on one target: the edge stays dark, and the
/// node's bit errors stay on, until the last overlapping fault ends;
/// then the original PRRs come back and the BER clears. The second
/// blackout names the edge either way round.
#[test]
fn overlapping_faults_end_with_the_last_one() {
    for second_edge in [(0, 1), (1, 0)] {
        let topo = Topology::chain(3, 0.999);
        let mut world = World::new(
            &topo,
            &[NodeKind::Router, NodeKind::Router, NodeKind::Router],
            WorldConfig::default(),
        );
        let before = (
            world.medium.links().prr(RadioIdx(0), RadioIdx(1)),
            world.medium.links().prr(RadioIdx(1), RadioIdx(0)),
        );
        assert!(before.0 > 0.0 && before.1 > 0.0);
        let span = Duration::from_secs(30);
        let plan = FaultPlan::new()
            .blackout(0, 1, Instant::from_secs(10), span)
            .blackout(second_edge.0, second_edge.1, Instant::from_secs(20), span)
            .bit_error_burst(2, Instant::from_secs(10), span, 1e-3)
            .bit_error_burst(2, Instant::from_secs(20), span, 1e-3);
        world.apply_fault_plan(&plan);
        let edge = |w: &World| {
            (
                w.medium.links().prr(RadioIdx(0), RadioIdx(1)),
                w.medium.links().prr(RadioIdx(1), RadioIdx(0)),
            )
        };

        world.run_until(Instant::from_secs(45));
        assert_eq!(
            edge(&world),
            (0.0, 0.0),
            "second blackout {second_edge:?} runs to 50 s"
        );
        assert_eq!(world.nodes[2].ber, Some(1e-3), "second burst runs to 50 s");

        world.run_until(Instant::from_secs(100));
        assert_eq!(edge(&world), before, "the original PRRs come back at 50 s");
        assert_eq!(world.nodes[2].ber, None, "the last burst ended at 50 s");
    }

    // While bursts overlap the highest BER applies, whichever came first.
    let topo = Topology::chain(3, 0.999);
    let mut world = World::new(
        &topo,
        &[NodeKind::Router, NodeKind::Router, NodeKind::Router],
        WorldConfig::default(),
    );
    let plan = FaultPlan::new()
        .bit_error_burst(2, Instant::from_secs(10), Duration::from_secs(30), 1e-2)
        .bit_error_burst(2, Instant::from_secs(20), Duration::from_secs(30), 1e-3)
        .bit_error_burst(2, Instant::from_secs(30), Duration::from_secs(5), 1e-1);
    world.apply_fault_plan(&plan);
    for (t, want) in [
        (15, Some(1e-2)),
        (25, Some(1e-2)),
        (32, Some(1e-1)),
        (38, Some(1e-2)),
    ] {
        world.run_until(Instant::from_secs(t));
        assert_eq!(world.nodes[2].ber, want, "at {t} s");
    }
    world.run_until(Instant::from_secs(45));
    assert_eq!(
        world.nodes[2].ber,
        Some(1e-3),
        "only the 1e-3 burst is left"
    );
    world.run_until(Instant::from_secs(55));
    assert_eq!(world.nodes[2].ber, None);
}

/// Leaves that reboot must get back in even when the border router's
/// TCP buffer class is full. Four supervised unbatched leaves hold the
/// four sockets the class has room for; then two of them reboot. Each
/// rebooted leaf reconnects from a new port, and its SYNs are refused
/// until the listener's keepalive frees the socket of its old
/// connection. Every record still reassembles with no gaps or
/// duplicates.
#[test]
fn rebooted_leaves_reconnect_through_a_full_tcp_class() {
    let mut world = tier::chaos_tree(0x5eed);
    let rebooted = [FIRST_LEAF, FIRST_LEAF + 1];
    world.apply_fault_plan(
        &FaultPlan::new()
            .reboot(rebooted[0], Instant::from_secs(30), Duration::from_secs(10))
            .reboot(rebooted[1], Instant::from_secs(60), Duration::from_secs(10)),
    );
    world.run_until(Instant::from_secs(29));
    let established = world.nodes[0]
        .transport
        .tcp
        .iter()
        .filter(|s| s.state() == tcplp::TcpState::Established)
        .count();
    assert_eq!(established, TREE_LEAVES, "every leaf holds a connection");

    world.run_until(Instant::from_secs(300));
    assert!(
        world.nodes[0].counters.get("syn_budget_drops") > 0,
        "the rebooted leaves must find the TCP class full"
    );
    for leaf in rebooted {
        assert_eq!(world.nodes[leaf].counters.get("reboots"), 1);
        let stats = world.supervisor_stats(leaf).expect("supervised leaf");
        assert!(
            stats.reconnects >= 1,
            "leaf {leaf} must get back in: {stats:?}"
        );
    }
    let by_client = tier::records_by_client(world.nodes[0].app.sink_capture());
    for leaf in FIRST_LEAF..FIRST_LEAF + TREE_LEAVES {
        let addr = world.nodes[leaf].ip_addr();
        let (_, asm) = by_client
            .iter()
            .find(|(a, _)| *a == addr)
            .unwrap_or_else(|| panic!("leaf {leaf} delivered nothing"));
        assert!(asm.record_count() > 0, "leaf {leaf} delivered nothing");
        if let Err(e) = tier::record_contract(asm) {
            panic!("leaf {leaf}: {e}");
        }
    }
}
