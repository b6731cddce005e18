//! Exact event budget: how many simulator events each benchmark world
//! dispatches per frame on the medium.
//!
//! A count is a performance figure that host noise cannot move, and it
//! is the denominator of every per-event cost: a change that makes the
//! world schedule more events per frame shows here as a moved pin, even
//! when wall-clock timing cannot resolve it. The counts are exact for
//! each world's fixed seed, so any change to simulated behaviour moves
//! them too, like the pins in `determinism.rs`.

mod common;

use common::{bulk_chain, flood_chain, CHAIN_SEED, FLOOD_SEED};
use lln_bench::AppRun;
use lln_node::world::World;
use lln_sim::Duration;

/// Runs `world` for `span` and checks its dispatched events and medium
/// frames against the pinned `(events, frames)`.
fn check_budget(name: &str, mut world: World, span: Duration, pinned: (u64, u64)) {
    world.run_for(span);
    let events = world.events();
    let frames = world.medium.counters.get("frames_tx");
    assert!(frames > 0, "{name}: no frames on the medium");
    assert_eq!(
        (events, frames),
        pinned,
        "{name}: {:.3} events per frame",
        events as f64 / frames as f64
    );
}

#[test]
fn bulk_one_hop_event_budget() {
    check_budget(
        "bulk-1hop",
        bulk_chain(1, CHAIN_SEED),
        Duration::from_secs(60),
        (41_203, 16_142),
    );
}

#[test]
fn chain_three_hop_event_budget() {
    check_budget(
        "chain-3hop",
        bulk_chain(3, CHAIN_SEED),
        Duration::from_secs(60),
        (48_380, 16_784),
    );
}

#[test]
fn syn_frag_flood_event_budget() {
    check_budget(
        "syn-frag-flood",
        flood_chain(FLOOD_SEED),
        Duration::from_secs(60),
        (67_143, 17_147),
    );
}

#[test]
fn app_study_tree_event_budget() {
    check_budget(
        "anemometer-tree",
        AppRun::default().build(),
        Duration::from_secs(2 * 3600),
        (923_351, 293_970),
    );
}
