//! Determinism regression tier: pinned-seed worlds must reproduce the
//! exact `TcpStats` FNV digests recorded before the simulator fast
//! path landed (reworked event queue + pooled zero-copy frames).
//!
//! The constants below were captured on the `BinaryHeap`+`HashSet`
//! event queue and the per-hop `Vec<u8>` frame-clone delivery path.
//! Any event reordering, RNG-draw shift, or delivery change introduced
//! by a performance rework shows up here as a digest mismatch — the
//! fast path must be *bit-invisible* to seeded runs.
//!
//! To regenerate after an **intentional** schedule change, run with
//! `DETERMINISM_PRINT=1` and copy the printed values:
//!
//! ```sh
//! DETERMINISM_PRINT=1 cargo test -p lln-node --test determinism -- --nocapture
//! ```

use lln_node::adversary::AdversaryProfile;
use lln_node::flood::FloodConfig;
use lln_node::route::Topology;
use lln_node::stack::NodeKind;
use lln_node::world::{World, WorldConfig};
use lln_sim::{Duration, Fnv1a, Instant};
use tcplp::{NodeBudget, TcpConfig};

const SERVER: usize = 0;
const CLIENT: usize = 3;
const BULK_BYTES: u64 = 20_000;

/// Bounded-failure TCP config (mirrors the torture/overload tiers).
fn hardened_cfg() -> TcpConfig {
    TcpConfig {
        max_retransmits: 8,
        max_rto: Duration::from_secs(4),
        ..TcpConfig::default()
    }
}

fn chain_world(seed: u64, budget: NodeBudget) -> World {
    let topo = Topology::chain(4, 0.999);
    World::new(
        &topo,
        &[
            NodeKind::BorderRouter,
            NodeKind::Router,
            NodeKind::Router,
            NodeKind::Router,
        ],
        WorldConfig {
            seed,
            budget,
            ..WorldConfig::default()
        },
    )
}

/// Everything observable about a finished chain world, as one digest:
/// client + server socket stats, listener stats, per-node governor
/// digests, delivered byte count, and the final simulated time (the
/// last is the sharpest event-schedule probe of all).
fn world_digest(world: &World) -> u64 {
    let mut words: Vec<u64> = Vec::new();
    for n in &world.nodes {
        for s in &n.transport.tcp {
            words.push(s.stats.digest());
        }
        if let Some(l) = &n.transport.tcp_listener {
            words.push(l.stats.digest());
        }
        words.push(n.governor.digest());
    }
    let delivered: usize = world.nodes[SERVER]
        .app
        .sink_capture()
        .iter()
        .map(|(_, b)| b.len())
        .sum();
    words.push(delivered as u64);
    words.push(world.now().as_micros());
    words.push(world.medium.counters.get("frames_tx"));
    words.push(world.medium.counters.get("deliveries"));
    Fnv1a::digest_words(&words)
}

/// Clean pinned-seed bulk transfer over the 3-hop chain.
fn clean_run_digest(seed: u64) -> u64 {
    let mut world = chain_world(seed, NodeBudget::default());
    world.add_tcp_listener(SERVER, hardened_cfg());
    world.set_sink_capture(SERVER);
    world.add_tcp_client(CLIENT, SERVER, hardened_cfg(), Instant::from_millis(10));
    world.set_bulk_sender(CLIENT, Some(BULK_BYTES));
    world.run_for(Duration::from_secs(120));
    world_digest(&world)
}

/// Torture-tier pinned-seed run: full adversary on the server's
/// inbound path (the CI TORTURE_SEED scenario shape).
fn torture_run_digest(seed: u64) -> u64 {
    let mut world = chain_world(seed, NodeBudget::default());
    world.add_tcp_listener(SERVER, hardened_cfg());
    world.set_sink_capture(SERVER);
    world.attach_adversary(SERVER, AdversaryProfile::full(0.12));
    world.add_tcp_client(CLIENT, SERVER, hardened_cfg(), Instant::from_millis(10));
    world.set_bulk_sender(CLIENT, Some(BULK_BYTES));
    world.run_for(Duration::from_secs(200));
    world_digest(&world)
}

/// Overload-tier pinned-seed run: SYN+fragment flood at the server
/// (the CI FLOOD_SEED scenario shape).
fn flood_run_digest(seed: u64) -> u64 {
    flood_digest(seed, true, true)
}

/// The flood run with forged FRAG1s only: no SYN half runs on a tick,
/// so the listener never reschedules the transport timer between
/// flood ticks and the reassembler is the only structure the flood
/// touches.
fn frag_flood_run_digest(seed: u64) -> u64 {
    flood_digest(seed, false, true)
}

/// The flood run with forged SYNs only (the SYN cache under load, no
/// reassembly pressure).
fn syn_flood_run_digest(seed: u64) -> u64 {
    flood_digest(seed, true, false)
}

fn flood_digest(seed: u64, syn: bool, frag: bool) -> u64 {
    let mut world = chain_world(seed, NodeBudget::default());
    world.add_tcp_listener(SERVER, hardened_cfg());
    world.set_sink_capture(SERVER);
    world.attach_flood(
        SERVER,
        FloodConfig {
            start: Instant::from_millis(2_000),
            stop: Instant::from_millis(150_000),
            rate_hz: 80,
            syn,
            frag,
            spoofed_sources: 16,
            ..FloodConfig::default()
        },
    );
    world.add_tcp_client(CLIENT, SERVER, hardened_cfg(), Instant::from_millis(10));
    world.set_bulk_sender(CLIENT, Some(BULK_BYTES));
    world.run_for(Duration::from_secs(200));
    world_digest(&world)
}

/// (seed, pinned digest) pairs captured on the pre-fast-path build.
const CLEAN_PINS: [(u64, u64); 2] = [
    (24001, 0x341b_1798_6cf0_02ee),
    (77003, 0xb460_d440_63b1_7aad),
];
const TORTURE_PINS: [(u64, u64); 2] = [
    (24001, 0x5f16_b003_5052_9c29),
    (77003, 0xad84_4f2d_c5bb_d3bc),
];
const FLOOD_PINS: [(u64, u64); 2] = [
    (52001, 0xed87_5a1a_cbef_d78d),
    (90017, 0x9fa6_b05e_e5a6_45bb),
];
/// Single-half flood pins, captured before the flood ingress path was
/// cut down; that change must leave them as they are.
const FRAG_FLOOD_PINS: [(u64, u64); 2] = [
    (52001, 0x69a2_a724_be31_29a5),
    (90017, 0xd89f_0e4d_b85a_340b),
];
/// Seed 52001 re-pinned when the CSMA backoff and its CCA became one
/// event: the fused event takes its queue sequence number when the
/// backoff starts, which reorders one same-instant pair of events.
const SYN_FLOOD_PINS: [(u64, u64); 2] = [
    (52001, 0x432b_b19c_5b90_6bd0),
    (90017, 0x8ee1_26c0_5583_0e53),
];

fn check(kind: &str, pins: &[(u64, u64)], run: fn(u64) -> u64) {
    let print = std::env::var("DETERMINISM_PRINT").is_ok();
    for &(seed, want) in pins {
        let got = run(seed);
        if print {
            println!("    ({seed}, {got:#018x}),   // {kind}");
            continue;
        }
        assert_eq!(
            got, want,
            "{kind} digest for pinned seed {seed} drifted: \
             got {got:#018x}, pinned {want:#018x} — the event schedule \
             or RNG draw order changed"
        );
    }
}

#[test]
fn clean_e2e_digests_are_pinned() {
    check("clean", &CLEAN_PINS, clean_run_digest);
}

#[test]
fn torture_digests_are_pinned() {
    check("torture", &TORTURE_PINS, torture_run_digest);
}

#[test]
fn flood_digests_are_pinned() {
    check("flood", &FLOOD_PINS, flood_run_digest);
}

#[test]
fn frag_only_flood_digests_are_pinned() {
    check("frag-only flood", &FRAG_FLOOD_PINS, frag_flood_run_digest);
}

#[test]
fn syn_only_flood_digests_are_pinned() {
    check("syn-only flood", &SYN_FLOOD_PINS, syn_flood_run_digest);
}
