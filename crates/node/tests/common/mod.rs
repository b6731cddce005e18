//! Helpers for the steady-state tests, the allocation check
//! (`zero_alloc.rs`) and the event budget (`event_budget.rs`), which run
//! the benchmark's worlds as `lln_bench::worlds` builds them.

// Each test binary uses a subset of these.
#![allow(dead_code)]

use lln_bench::worlds::syn_frag_flood;
use lln_bench::ChainRun;
use lln_node::world::World;

/// The seed the benchmark pins for its chain worlds.
pub const CHAIN_SEED: u64 = 0x5eed;

/// The benchmark's `bulk-1hop` (1 hop) or `chain-3hop` (3 hops) world at
/// `seed`, streaming for as long as it runs, untraced.
pub fn bulk_chain(hops: usize, seed: u64) -> World {
    let run = ChainRun {
        hops,
        bytes: None,
        seed,
        ..ChainRun::default()
    };
    untraced(run.build())
}

/// The seed the benchmark pins for its `syn-frag-flood` world.
pub const FLOOD_SEED: u64 = 0xF10_0D5E;

/// The benchmark's `syn-frag-flood` world at `seed`, streaming for as
/// long as it runs, untraced.
pub fn flood_chain(seed: u64) -> World {
    untraced(syn_frag_flood(seed, None))
}

/// `world` with its RTT traces off: each sink only counts bytes, and a
/// trace, like a byte capture, grows with the run by design and is not
/// part of the datapath.
fn untraced(mut world: World) -> World {
    for s in world.nodes.iter_mut().flat_map(|n| &mut n.transport.tcp) {
        s.rtt_trace = Default::default();
    }
    world
}

/// TCP segments sent by every socket in the world so far.
pub fn segs_sent(world: &World) -> u64 {
    world
        .nodes
        .iter()
        .flat_map(|n| &n.transport.tcp)
        .map(|s| s.stats.segs_sent)
        .sum()
}
