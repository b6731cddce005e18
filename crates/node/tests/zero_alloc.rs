//! Steady-state allocation check: once a TCPlp world has warmed up, the
//! whole datapath — medium, MAC, 6LoWPAN, IP, TCP and the world's glue
//! between them — runs without touching the heap: a bulk transfer over
//! one hop, three hops under a SYN + FRAG1 flood, and the §9 tree of
//! sleepy sensors streaming across the border router's wire to the
//! cloud. Every per-frame and per-segment buffer comes from an owner
//! that reuses it (see DESIGN.md §11 for the ownership table).
//!
//! A counting global allocator tallies allocations per thread, so tests
//! running on other threads of this binary are not counted.

use lln_mac::csma::MacConfig;
use lln_node::flood::FloodConfig;
use lln_node::route::Topology;
use lln_node::stack::NodeKind;
use lln_node::world::{World, WorldConfig};
use lln_phy::{LinkMatrix, RadioIdx};
use lln_sim::{Duration, Instant};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use tcplp::TcpConfig;

struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with`: the slot may already be gone while a thread exits.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every call is forwarded unchanged to the system allocator;
// counting only touches a const-initialised thread-local `Cell`, which
// never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

#[test]
fn bulk_one_hop_steady_state_allocates_nothing() {
    // The benchmark's `bulk-1hop` world: node 1 streams to node 0 over
    // one 0.999-PRR hop, default TCPlp, 40 ms link-retry delay. The
    // sink only counts bytes: a byte capture or an RTT trace would grow
    // by design, and neither is part of the datapath.
    let topo = Topology::chain(2, 0.999);
    let wc = WorldConfig {
        mac: MacConfig {
            retry_delay_max: Duration::from_millis(40),
            ..MacConfig::default()
        },
        ..WorldConfig::default()
    };
    let mut world = World::new(&topo, &[NodeKind::Router, NodeKind::Router], wc);
    world.add_tcp_listener(0, TcpConfig::default());
    world.set_sink(0);
    world.add_tcp_client(1, 0, TcpConfig::default(), Instant::from_millis(10));
    world.set_bulk_sender(1, None);

    world.run_for(Duration::from_secs(30));
    let segs_before = world.nodes[1].transport.tcp[0].stats.segs_sent;
    let received_before = world.nodes[0].app.sink_received();
    let before = allocs();
    world.run_for(Duration::from_secs(60));
    let during = allocs() - before;

    let segs = world.nodes[1].transport.tcp[0].stats.segs_sent - segs_before;
    let received = world.nodes[0].app.sink_received() - received_before;
    assert!(segs > 1_000, "segments must flow while measuring: {segs}");
    assert!(
        received > 400_000,
        "bytes must arrive while measuring: {received}"
    );
    assert_eq!(during, 0, "{during} allocations over {segs} segments");
}

#[test]
fn flood_steady_state_allocates_nothing() {
    // The benchmark's `syn-frag-flood` world: node 0 of a 3-hop chain,
    // the border router, listens and takes 320/s forged SYNs and 320/s
    // forged FRAG1s from 5 s on. The SYN cache, the reassembly quotas
    // and the memory governor sit at their limits throughout, so every
    // forged packet reuses what an earlier one freed. Meanwhile node 3
    // streams to node 0 at d = 40 ms, through link retries, collisions
    // and SACK recovery, out of the pools the first minute warmed.
    let topo = Topology::chain(4, 0.999);
    let mut kinds = [NodeKind::Router; 4];
    kinds[0] = NodeKind::BorderRouter;
    let wc = WorldConfig {
        mac: MacConfig {
            retry_delay_max: Duration::from_millis(40),
            ..MacConfig::default()
        },
        ..WorldConfig::default()
    };
    let mut world = World::new(&topo, &kinds, wc);
    world.add_tcp_listener(0, TcpConfig::default());
    world.set_sink(0);
    world.add_tcp_client(3, 0, TcpConfig::default(), Instant::from_millis(10));
    world.set_bulk_sender(3, None);
    world.attach_flood(
        0,
        FloodConfig {
            start: Instant::from_millis(5_000),
            stop: Instant::from_secs(3_600),
            rate_hz: 320,
            syn: true,
            frag: true,
            spoofed_sources: 3,
            ..FloodConfig::default()
        },
    );

    world.run_for(Duration::from_secs(60));
    let before_stats = world.flood_stats(0).unwrap();
    let segs_before = segs_sent(&world);
    let before = allocs();
    world.run_for(Duration::from_secs(60));
    let during = allocs() - before;

    let stats = world.flood_stats(0).unwrap();
    let syns = stats.syns_sent - before_stats.syns_sent;
    let frags = stats.frags_sent - before_stats.frags_sent;
    let segs = segs_sent(&world) - segs_before;
    assert!(
        syns >= 19_000 && frags >= 19_000,
        "the flood must run while measuring: {syns} SYNs, {frags} FRAG1s"
    );
    assert!(segs > 500, "the stream must flow while measuring: {segs}");
    assert_eq!(
        during, 0,
        "{during} allocations over {syns} SYNs, {frags} FRAG1s and {segs} segments"
    );
}

/// TCP segments sent by every socket in the world so far.
fn segs_sent(world: &World) -> u64 {
    world
        .nodes
        .iter()
        .flat_map(|n| &n.transport.tcp)
        .map(|s| s.stats.segs_sent)
        .sum()
}

#[test]
fn app_study_tree_steady_state_allocates_almost_nothing() {
    // The benchmark's `anemometer-tree` world (the §9 app study): cloud
    // (0) — border router (1) — routers 2, 3, 4 — four sleepy leaves on
    // routers 3 and 4 at PRR 0.98, each batching 64 readings to the
    // cloud over TCPlp. Data crosses the wire from the border router to
    // the cloud while only ACKs come back, so this pins that packet
    // buffers return to one pool whichever node frees them. The cloud
    // sink only counts bytes, and no RTT trace is kept.
    const SENSORS: usize = 4;
    const MESH: usize = 5;
    let n = MESH + SENSORS;
    let prr = 0.98;
    let mut links = LinkMatrix::new(n);
    links.set_symmetric(RadioIdx(1), RadioIdx(2), prr);
    links.set_symmetric(RadioIdx(2), RadioIdx(3), prr);
    links.set_symmetric(RadioIdx(3), RadioIdx(4), prr);
    for s in 0..SENSORS {
        let parent = if s % 2 == 0 { 3 } else { 4 };
        links.set_symmetric(RadioIdx(MESH + s), RadioIdx(parent), prr);
    }
    for a in 1..n {
        for b in (a + 1)..n {
            if !links.audible(RadioIdx(a), RadioIdx(b)) {
                links.set_interference(RadioIdx(a), RadioIdx(b));
                links.set_interference(RadioIdx(b), RadioIdx(a));
            }
        }
    }
    let topo = Topology::with_shortest_paths(links);
    let mut kinds = vec![NodeKind::CloudHost, NodeKind::BorderRouter];
    kinds.extend([NodeKind::Router; 3]);
    kinds.extend([NodeKind::SleepyLeaf; SENSORS]);
    let wc = WorldConfig {
        seed: 0x0411,
        ..WorldConfig::default()
    };
    let mut world = World::new(&topo, &kinds, wc);
    world.add_tcp_listener(0, TcpConfig::default());
    world.set_sink(0);
    for s in 0..SENSORS {
        let leaf = MESH + s;
        let start = Instant::from_millis(200 + 111 * s as u64);
        world.add_tcp_client(leaf, 0, TcpConfig::default(), start);
        let first_reading = Instant::from_millis(500 + 113 * s as u64);
        world.set_anemometer(leaf, 64, Some(64), first_reading);
    }

    world.run_for(Duration::from_secs(2 * 3600));
    let segs_before = segs_sent(&world);
    let received_before = world.nodes[0].app.sink_received();
    let before = allocs();
    world.run_for(Duration::from_secs(2 * 3600));
    let during = allocs() - before;

    let segs = segs_sent(&world) - segs_before;
    let received = world.nodes[0].app.sink_received() - received_before;
    assert!(segs > 5_000, "segments must flow while measuring: {segs}");
    assert!(
        received > 2_000_000,
        "readings must arrive while measuring: {received}"
    );
    // What remains is a queue growing past its high-water mark for the
    // first time under a rare burst: on this seed, one `FifoQueue`
    // growing its ring. It is never a per-segment cost.
    assert!(
        during * 1_000 <= segs,
        "{during} allocations over {segs} segments"
    );
}
