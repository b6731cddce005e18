//! The benchmark's worlds, built once for the steady-state tests: the
//! allocation check (`zero_alloc.rs`) and the event budget
//! (`event_budget.rs`). Each sink only counts bytes: a byte capture or
//! an RTT trace would grow by design, and neither is part of the
//! datapath.

// Each test binary uses a subset of these.
#![allow(dead_code)]

use lln_mac::csma::MacConfig;
use lln_node::flood::FloodConfig;
use lln_node::route::Topology;
use lln_node::stack::NodeKind;
use lln_node::world::{World, WorldConfig};
use lln_phy::{LinkMatrix, RadioIdx};
use lln_sim::{Duration, Instant};
use tcplp::TcpConfig;

/// Sensors in [`app_study_tree`], on radio indices `TREE_MESH..`.
const TREE_SENSORS: usize = 4;
/// Cloud, border router and three routers of [`app_study_tree`].
const TREE_MESH: usize = 5;

/// The seed of every benchmark world but the tree
/// (`WorldConfig::default()`'s).
pub const CHAIN_SEED: u64 = 0x5eed;

/// A chain of `hops` hops at PRR 0.999 and d = 40 ms, seeded with
/// `seed`: the far end streams to node 0 over default TCPlp. With
/// `flood`, node 0 is the border router and takes 320/s forged SYNs and
/// 320/s forged FRAG1s from 5 s on.
pub fn chain(hops: usize, flood: bool, seed: u64) -> World {
    let topo = Topology::chain(hops + 1, 0.999);
    let mut kinds = vec![NodeKind::Router; hops + 1];
    if flood {
        kinds[0] = NodeKind::BorderRouter;
    }
    let wc = WorldConfig {
        mac: MacConfig {
            retry_delay_max: Duration::from_millis(40),
            ..MacConfig::default()
        },
        seed,
        ..WorldConfig::default()
    };
    let mut world = World::new(&topo, &kinds, wc);
    world.add_tcp_listener(0, TcpConfig::default());
    world.set_sink(0);
    world.add_tcp_client(hops, 0, TcpConfig::default(), Instant::from_millis(10));
    world.set_bulk_sender(hops, None);
    if flood {
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
    }
    world
}

/// The benchmark's `bulk-1hop` world: node 1 streams to node 0.
pub fn bulk_one_hop() -> World {
    chain(1, false, CHAIN_SEED)
}

/// The benchmark's `chain-3hop` world: node 3 streams to node 0
/// through link retries and hidden-terminal collisions.
pub fn chain_three_hop() -> World {
    chain(3, false, CHAIN_SEED)
}

/// The benchmark's `syn-frag-flood` world: the 3-hop stream while the
/// SYN cache, the reassembly quotas and the memory governor of node 0
/// sit at their limits.
pub fn syn_frag_flood() -> World {
    chain(3, true, CHAIN_SEED)
}

/// The benchmark's `anemometer-tree` world (the §9 app study): cloud
/// (0) — border router (1) — routers 2, 3, 4 — four sleepy leaves on
/// routers 3 and 4 at PRR 0.98, each batching 64 readings to the cloud
/// over TCPlp.
pub fn app_study_tree() -> World {
    let n = TREE_MESH + TREE_SENSORS;
    let prr = 0.98;
    let mut links = LinkMatrix::new(n);
    links.set_symmetric(RadioIdx(1), RadioIdx(2), prr);
    links.set_symmetric(RadioIdx(2), RadioIdx(3), prr);
    links.set_symmetric(RadioIdx(3), RadioIdx(4), prr);
    for s in 0..TREE_SENSORS {
        let parent = if s % 2 == 0 { 3 } else { 4 };
        links.set_symmetric(RadioIdx(TREE_MESH + s), RadioIdx(parent), prr);
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
    kinds.extend([NodeKind::SleepyLeaf; TREE_SENSORS]);
    let wc = WorldConfig {
        seed: 0x0411,
        ..WorldConfig::default()
    };
    let mut world = World::new(&topo, &kinds, wc);
    world.add_tcp_listener(0, TcpConfig::default());
    world.set_sink(0);
    for s in 0..TREE_SENSORS {
        let leaf = TREE_MESH + s;
        let start = Instant::from_millis(200 + 111 * s as u64);
        world.add_tcp_client(leaf, 0, TcpConfig::default(), start);
        let first_reading = Instant::from_millis(500 + 113 * s as u64);
        world.set_anemometer(leaf, 64, Some(64), first_reading);
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
