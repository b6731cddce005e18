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

use lln_bench::tier::{self, Sender, SERVER};
use lln_bench::AppRun;
use lln_node::adversary::AdversaryProfile;
use lln_node::flood::FloodConfig;
use lln_sim::{Duration, Instant};
use tcplp::NodeBudget;

/// Clean pinned-seed bulk transfer over the 3-hop chain.
fn clean_run_digest(seed: u64) -> u64 {
    let mut world = tier::chain4(seed, NodeBudget::default());
    tier::install_bulk(&mut world, Sender::Plain);
    world.run_for(Duration::from_secs(120));
    tier::world_digest(&world)
}

/// Torture-tier pinned-seed run: full adversary on the server's
/// inbound path (the CI TORTURE_SEED scenario shape).
fn torture_run_digest(seed: u64) -> u64 {
    let mut world = tier::chain4(seed, NodeBudget::default());
    world.attach_adversary(SERVER, AdversaryProfile::full(0.12));
    tier::install_bulk(&mut world, Sender::Plain);
    world.run_for(Duration::from_secs(200));
    tier::world_digest(&world)
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
    let mut world = tier::chain4(seed, NodeBudget::default());
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
    tier::install_bulk(&mut world, Sender::Plain);
    world.run_for(Duration::from_secs(200));
    tier::world_digest(&world)
}

/// The §9 tree as `AppRun` builds it (its TCPlp arm, the benchmark's
/// `anemometer-tree`) at 12 % injected loss at the border router, over
/// 600 s: the world of the lossy app study.
fn lossy_tree_digest(seed: u64) -> u64 {
    let mut world = AppRun {
        injected_loss: 0.12,
        seed,
        ..AppRun::default()
    }
    .build();
    world.set_sink_capture(SERVER);
    world.run_for(Duration::from_secs(600));
    tier::world_digest(&world)
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

/// Captured when the tree got its one builder.
const LOSSY_TREE_PINS: [(u64, u64); 1] = [(0x0411, 0x520f_ab7c_6baa_56a1)];

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

#[test]
fn lossy_tree_digest_is_pinned() {
    check("lossy tree", &LOSSY_TREE_PINS, lossy_tree_digest);
}
