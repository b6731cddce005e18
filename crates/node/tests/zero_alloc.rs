//! Steady-state allocation check: once a bulk TCPlp transfer has warmed
//! up, the whole datapath — medium, MAC, 6LoWPAN, IP, TCP and the
//! world's glue between them — runs without touching the heap, over one
//! hop and over three hops under a SYN + FRAG1 flood. Every per-frame
//! and per-segment buffer comes from an owner that reuses it (see
//! DESIGN.md §11 for the ownership table).
//!
//! A counting global allocator tallies allocations per thread, so tests
//! running on other threads of this binary are not counted.

use lln_mac::csma::MacConfig;
use lln_node::flood::FloodConfig;
use lln_node::route::Topology;
use lln_node::stack::NodeKind;
use lln_node::world::{World, WorldConfig};
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
    // The benchmark's `syn-frag-flood` attack: node 0 of a 3-hop chain,
    // the border router, listens and takes 320/s forged SYNs and 320/s
    // forged FRAG1s from 5 s on. The SYN cache, the reassembly quotas
    // and the memory governor sit at their limits throughout, so every
    // forged packet reuses what an earlier one freed. No transfer runs:
    // a multihop stream still grows its pools to new peaks now and then
    // (see ROADMAP), which would hide what the flood path does.
    let topo = Topology::chain(4, 0.999);
    let mut kinds = [NodeKind::Router; 4];
    kinds[0] = NodeKind::BorderRouter;
    let mut world = World::new(&topo, &kinds, WorldConfig::default());
    world.add_tcp_listener(0, TcpConfig::default());
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
    let before = allocs();
    world.run_for(Duration::from_secs(60));
    let during = allocs() - before;

    let stats = world.flood_stats(0).unwrap();
    let syns = stats.syns_sent - before_stats.syns_sent;
    let frags = stats.frags_sent - before_stats.frags_sent;
    assert!(
        syns >= 19_000 && frags >= 19_000,
        "the flood must run while measuring: {syns} SYNs, {frags} FRAG1s"
    );
    assert_eq!(during, 0, "{during} allocations over {syns} SYNs and {frags} FRAG1s");
}
