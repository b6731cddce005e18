//! Steady-state allocation check: once a TCPlp world has warmed up, the
//! whole datapath — medium, MAC, 6LoWPAN, IP, TCP and the world's glue
//! between them — runs without touching the heap: a bulk transfer over
//! one hop, three hops under a SYN + FRAG1 flood, and the §9 tree of
//! sleepy sensors streaming across the border router's wire to the
//! cloud. Every per-frame and per-segment buffer comes from an owner
//! that reuses it (see DESIGN.md §11 for the ownership table). Every
//! structure that would grow with a run's history is sized from a bound
//! when it is made, and the rest are bounded by the traffic alive at one
//! instant, which warm-up reaches; so the chain worlds hold this on every
//! seed of a sweep, not only on the pinned one.
//!
//! A counting global allocator tallies allocations per thread, so tests
//! running on other threads of this binary are not counted.

mod common;

use common::{bulk_chain, flood_chain, segs_sent, CHAIN_SEED, FLOOD_SEED};
use lln_bench::AppRun;
use lln_sim::Duration;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

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
    // one 0.999-PRR hop, default TCPlp, 40 ms link-retry delay.
    let mut world = bulk_chain(1, CHAIN_SEED);
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
    // The benchmark's `syn-frag-flood` world at its pinned seed: node 0
    // of a 3-hop chain, the border router, listens and takes 320/s forged
    // SYNs and 320/s forged FRAG1s from 5 s on. The SYN cache, the reassembly quotas
    // and the memory governor sit at their limits throughout, so every
    // forged packet reuses what an earlier one freed. Meanwhile node 3
    // streams to node 0 at d = 40 ms over hardened TCP, through link
    // retries, collisions and SACK recovery, out of the pools the first
    // minute warmed.
    let mut world = flood_chain(FLOOD_SEED);
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

#[test]
fn chain_worlds_allocate_nothing_on_any_seed() {
    // Nothing on the datapath may grow to a new high-water mark once the
    // world is warm, whatever the seed. The chain worlds' pinned seed and
    // eight more, for each of the three chain worlds, and the flood
    // world's own pinned seed: 60 s of warm-up, then 60 s that must not
    // allocate.
    let seeds = std::iter::once(CHAIN_SEED).chain((1..=8).map(|k| 7919 * k));
    let runs = seeds
        .flat_map(|seed| {
            [
                ("bulk-1hop", seed, bulk_chain(1, seed)),
                ("chain-3hop", seed, bulk_chain(3, seed)),
                ("syn-frag-flood", seed, flood_chain(seed)),
            ]
        })
        .chain([("syn-frag-flood", FLOOD_SEED, flood_chain(FLOOD_SEED))]);
    let mut failures = Vec::new();
    for (name, seed, mut world) in runs {
        world.run_for(Duration::from_secs(60));
        let segs_before = segs_sent(&world);
        let before = allocs();
        world.run_for(Duration::from_secs(60));
        let during = allocs() - before;
        let segs = segs_sent(&world) - segs_before;
        assert!(segs > 500, "{name}, seed {seed}: only {segs} segments");
        if during != 0 {
            failures.push(format!("{name}, seed {seed}: {during} allocations"));
        }
    }
    assert!(failures.is_empty(), "{failures:#?}");
}

#[test]
fn app_study_tree_steady_state_allocates_almost_nothing() {
    // The benchmark's `anemometer-tree` world (the §9 app study): data
    // crosses the wire from the border router to the cloud while only
    // ACKs come back, so this pins that packet buffers return to one
    // pool whichever node frees them.
    let mut world = AppRun::default().build();
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
