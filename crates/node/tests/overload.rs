//! Overload tier: resource-exhaustion attacks against live TCPlp nodes.
//!
//! Every scenario drives a bulk transfer through a multi-hop chain
//! while a [`Flooder`](lln_node::Flooder) injects forged SYNs and/or
//! never-completing 6LoWPAN fragments at the server, then asserts the
//! hardened stack's contract:
//!
//! - the **established** transfer completes byte-exactly (overload
//!   must shed *new* work, never evict established-connection state);
//! - every accounted memory class stays under its budget cap at all
//!   times (high-water marks, not just end-state gauges);
//! - after the flood stops, every transient class drains back to zero
//!   (no leaked SYN-cache entries, reassembly slots, or queue bytes);
//! - two same-seed runs produce bit-identical stats digests.
//!
//! Seeds may be overridden with `FLOOD_SEED=<n>` so CI can pin fixed
//! seeds and still let developers fuzz locally.

use lln_bench::tier::{self, seed_from_env, Sender, StreamVerdict, SERVER};
use lln_node::flood::FloodConfig;
use lln_node::world::World;
use lln_sim::{Duration, Instant};
use tcplp::{MemClass, NodeBudget};

/// The environment variable that overrides every scenario's seed.
const SEED_VAR: &str = "FLOOD_SEED";

/// The tiers' chain with one flooder on the server, run for `span`.
fn run_overload(seed: u64, budget: NodeBudget, flood: FloodConfig, span: Duration) -> World {
    let mut world = tier::chain4(seed, budget);
    world.attach_flood(SERVER, flood);
    tier::install_bulk(&mut world, Sender::Plain);
    world.run_for(span);
    world
}

/// Asserts the sink received exactly the sent pattern ([`tier::stream`]).
fn assert_complete(world: &World, label: &str) {
    let v = tier::stream(world);
    assert_eq!(v, StreamVerdict::Complete, "{label}: transfer under flood");
}

#[test]
fn syn_flood_is_bounded_and_established_transfer_completes() {
    let mut world = run_overload(
        seed_from_env(SEED_VAR, 0xCC01),
        NodeBudget::default(),
        FloodConfig {
            start: Instant::from_millis(5_000),
            stop: Instant::from_millis(200_000),
            rate_hz: 100,
            syn: true,
            frag: false,
            spoofed_sources: 16,
            ..FloodConfig::default()
        },
        Duration::from_secs(300),
    );
    assert_complete(&world, "syn-flood");
    let fl = world.flood_stats(SERVER).expect("attached");
    assert!(fl.syns_sent > 10_000, "flood must have fired: {fl:?}");
    let stats = world.nodes[SERVER]
        .transport
        .tcp_listener
        .as_ref()
        .expect("listener")
        .stats;
    assert!(
        stats.syns_rcvd > 10_000,
        "cache must have seen the flood: {stats:?}"
    );
    assert!(
        stats.evicted_oldest > 0,
        "a sustained flood over 8 slots must evict: {stats:?}"
    );
    // No forged handshake ever completes: the only spawned socket is
    // the real client's (the duplicate-spawn regression at world
    // level).
    assert_eq!(
        stats.spawned, 1,
        "only the real handshake completes: {stats:?}"
    );
    assert_eq!(
        world.nodes[SERVER].transport.tcp.len(),
        1,
        "forged SYNs must not materialise sockets"
    );
    let cap = world.nodes[SERVER].budget.cap(MemClass::SynCache) as u64;
    assert!(
        world.governor(SERVER).high_water(MemClass::SynCache) <= cap,
        "SYN-cache bytes exceeded budget"
    );
    assert!(
        world.governor(SERVER).evictions(MemClass::SynCache) > 0,
        "evictions must be accounted"
    );
    // Flood stopped at t=200 s; all half-open state must be gone.
    world.assert_governor_drained();
}

#[test]
fn fragment_flood_respects_quotas_and_reclaims_by_timeout() {
    let mut world = run_overload(
        seed_from_env(SEED_VAR, 0xCC02),
        NodeBudget::default(),
        FloodConfig {
            start: Instant::from_millis(5_000),
            stop: Instant::from_millis(200_000),
            rate_hz: 50,
            syn: false,
            frag: true,
            // Two spoofed sources x per-source quota 2 pins at most 4
            // of the 8 slots: the per-source quota is what keeps the
            // real traffic's reassembly alive.
            spoofed_sources: 2,
            ..FloodConfig::default()
        },
        Duration::from_secs(300),
    );
    assert_complete(&world, "frag-flood");
    let fl = world.flood_stats(SERVER).expect("attached");
    assert!(fl.frags_sent > 5_000, "flood must have fired: {fl:?}");
    let r = &world.nodes[SERVER].reassembler;
    assert!(
        r.evicted_source > 0,
        "per-source quota must have recycled flood slots: evicted_source={}",
        r.evicted_source
    );
    let evicted = r.evicted_source;
    let gov = world.governor(SERVER);
    let cap = world.nodes[SERVER].budget.cap(MemClass::Reassembly) as u64;
    assert!(
        gov.high_water(MemClass::Reassembly) <= cap,
        "reassembly bytes exceeded budget: {} > {cap}",
        gov.high_water(MemClass::Reassembly)
    );
    assert!(
        gov.evictions(MemClass::Reassembly) >= evicted,
        "reassembly evictions must be mirrored into the governor"
    );
    world.assert_governor_drained();
    // The flood's final partials (one full quota per spoofed source)
    // have no eviction trigger once the flood stops — only the timeout
    // can reclaim them, which the drain above forces.
    assert!(
        world.nodes[SERVER].reassembler.timeouts > 0,
        "pinned slots must have been reclaimed by timeout"
    );
}

#[test]
fn combined_flood_stays_within_total_budget_and_drains() {
    let mut world = run_overload(
        seed_from_env(SEED_VAR, 0xCC03),
        NodeBudget::default(),
        FloodConfig {
            start: Instant::from_millis(2_000),
            stop: Instant::from_millis(250_000),
            rate_hz: 80,
            syn: true,
            frag: true,
            // Every forged SYN carries a fresh port, so SYN-cache
            // pressure is independent of the source count — but each
            // frag source can pin per_source_slots (2) reassembly
            // slots, so 3 sources leave 2 of the 8 slots for the real
            // traffic. (More sources would pin the whole table: memory
            // stays bounded, availability does not — see DESIGN.md §10.)
            spoofed_sources: 3,
            ..FloodConfig::default()
        },
        Duration::from_secs(350),
    );
    assert_complete(&world, "combined-flood");
    // Every class on every node stayed under its cap and the node
    // total, for the entire run (high-water marks).
    world.assert_governor_drained();
    let gov = world.governor(SERVER);
    assert!(
        gov.total_high_water() <= world.nodes[SERVER].budget.total as u64,
        "total accounted memory exceeded the node budget"
    );
    assert!(
        gov.evictions(MemClass::SynCache) > 0,
        "combined flood must have exercised SYN-cache eviction"
    );
}

#[test]
fn tcp_buffer_starvation_sheds_new_syns_not_established_state() {
    // A budget with room for exactly one connection's buffers: the
    // real client (connected before the flood) is admitted; every
    // forged SYN is denied *before* it costs even a cache slot.
    let mut budget = NodeBudget::default();
    budget.caps[MemClass::TcpBuffers.idx()] = 4_500;
    let mut world = run_overload(
        seed_from_env(SEED_VAR, 0xCC04),
        budget,
        FloodConfig {
            start: Instant::from_millis(5_000),
            stop: Instant::from_millis(150_000),
            rate_hz: 50,
            syn: true,
            frag: false,
            spoofed_sources: 8,
            ..FloodConfig::default()
        },
        Duration::from_secs(300),
    );
    assert_complete(&world, "starvation");
    let gov = world.governor(SERVER);
    assert!(
        gov.denies(MemClass::TcpBuffers) > 0,
        "SYNs that could never fit must be denied at admission"
    );
    assert!(
        world.nodes[SERVER].counters.get("syn_budget_drops") > 0,
        "denied SYNs must be counted"
    );
    // The pre-check runs before the cache: the flood never occupies a
    // half-open slot, so the cache holds nothing at the end.
    let stats = &world.nodes[SERVER]
        .transport
        .tcp_listener
        .as_ref()
        .unwrap()
        .stats;
    assert_eq!(
        stats.spawned, 1,
        "only the pre-flood client was admitted: {stats:?}"
    );
    world.assert_governor_drained();
}

// ---------------------------------------------------------------------
// Bit-reproducibility: the whole overloaded world is deterministic.
// ---------------------------------------------------------------------

/// Digest of everything observable about an overload run: the world
/// and the flood's output.
fn fingerprint(world: &World) -> (u64, u64, u64) {
    let fl = world.flood_stats(SERVER).expect("attached");
    (tier::world_digest(world), fl.syns_sent, fl.frags_sent)
}

/// Every node's governor digest: what the flood's decisions move.
fn governors(world: &World) -> Vec<u64> {
    (0..world.nodes.len())
        .map(|i| world.governor(i).digest())
        .collect()
}

#[test]
fn same_seed_same_flood_same_stats_digest() {
    let seed = seed_from_env(SEED_VAR, 0xCC05);
    let flood = FloodConfig {
        start: Instant::from_millis(2_000),
        stop: Instant::from_millis(150_000),
        rate_hz: 80,
        syn: true,
        frag: true,
        spoofed_sources: 16,
        ..FloodConfig::default()
    };
    let a = run_overload(
        seed,
        NodeBudget::default(),
        flood.clone(),
        Duration::from_secs(200),
    );
    let b = run_overload(
        seed,
        NodeBudget::default(),
        flood.clone(),
        Duration::from_secs(200),
    );
    assert_eq!(
        fingerprint(&a),
        fingerprint(&b),
        "same seed must reproduce the overload run bit-for-bit"
    );
    let c = run_overload(
        seed ^ 0xffff,
        NodeBudget::default(),
        flood,
        Duration::from_secs(200),
    );
    assert_ne!(
        governors(&a),
        governors(&c),
        "different seeds should take different flood decisions"
    );
}

#[test]
fn flood_without_traffic_leaves_no_residue() {
    // No client at all: the flood hammers an idle listener, and after
    // it stops everything must return to zero.
    let mut world = tier::chain4(seed_from_env(SEED_VAR, 0xCC06), NodeBudget::default());
    world.add_tcp_listener(SERVER, tier::hardened_tcp());
    world.attach_flood(
        SERVER,
        FloodConfig {
            start: Instant::from_millis(100),
            stop: Instant::from_millis(60_000),
            rate_hz: 200,
            syn: true,
            frag: true,
            spoofed_sources: 32,
            ..FloodConfig::default()
        },
    );
    world.run_for(Duration::from_secs(120));
    let stats = world.nodes[SERVER]
        .transport
        .tcp_listener
        .as_ref()
        .unwrap()
        .stats;
    assert!(stats.syns_rcvd > 5_000, "flood must have fired: {stats:?}");
    assert_eq!(stats.spawned, 0, "no forged handshake may complete");
    assert_eq!(
        world.nodes[SERVER].transport.tcp.len(),
        0,
        "no sockets may materialise from a pure flood"
    );
    world.assert_governor_drained();
}
