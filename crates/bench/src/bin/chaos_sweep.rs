//! Chaos sweep: graceful degradation under composed fault plans.
//!
//! Runs the supervised bulk-transfer (3-hop chain) and anemometer
//! (Figure 3 tree) workloads under fault plans of increasing
//! intensity — reboots, link blackouts, route flaps, bit-error bursts
//! — and reports goodput / reliability / duty-cycle degradation
//! against the fault-free baseline, plus the supervisor's recovery
//! counters and an end-to-end data-integrity verdict.

use lln_bench::tier::{self, Sender, CLIENT, SERVER, SUPERVISED_BULK_BYTES};
use lln_node::app::App;
use lln_node::fault::FaultPlan;
use lln_node::route::Topology;
use lln_node::stack::NodeKind;
use lln_node::world::{World, WorldConfig};
use lln_sim::{Duration, Instant};
use tcplp::NodeBudget;

// ---------------------------------------------------------------------
// Scenario 1: supervised bulk transfer over the 3-hop chain
// ---------------------------------------------------------------------

struct BulkOutcome {
    goodput_bps: f64,
    reconnects: u64,
    replayed: u64,
    downtime_s: f64,
    intact: bool,
}

fn bulk_under_plan(plan: &FaultPlan) -> BulkOutcome {
    let mut world = tier::chain4(0x5eed, NodeBudget::default());
    tier::install_bulk(&mut world, Sender::Supervised);
    world.apply_fault_plan(plan);
    world.run_for(Duration::from_secs(300));

    let stats = world.supervisor_stats(CLIENT).expect("supervised client");
    let by_client = tier::records_by_client(world.nodes[SERVER].app.sink_capture());
    let intact = match by_client.as_slice() {
        [(_, asm)] => {
            tier::record_contract(asm).is_ok()
                && asm.assembled() == Some(tier::pattern(SUPERVISED_BULK_BYTES))
        }
        _ => false,
    };
    BulkOutcome {
        goodput_bps: world.nodes[SERVER].app.sink_goodput_bps(),
        reconnects: stats.reconnects,
        replayed: stats.records_replayed,
        downtime_s: stats.downtime_us as f64 / 1e6,
        intact,
    }
}

fn bulk_plans() -> Vec<(&'static str, FaultPlan)> {
    vec![
        ("fault-free", FaultPlan::new()),
        (
            "relay reboot",
            FaultPlan::new().reboot(2, Instant::from_secs(8), Duration::from_secs(5)),
        ),
        (
            "+30s blackout",
            FaultPlan::new()
                .reboot(2, Instant::from_secs(8), Duration::from_secs(5))
                .blackout(1, 2, Instant::from_secs(15), Duration::from_secs(30)),
        ),
        (
            "+flap +BER",
            FaultPlan::new()
                .reboot(2, Instant::from_secs(8), Duration::from_secs(5))
                .blackout(1, 2, Instant::from_secs(15), Duration::from_secs(30))
                .route_flap(3, Instant::from_secs(50))
                .bit_error_burst(1, Instant::from_secs(60), Duration::from_secs(10), 1e-3),
        ),
    ]
}

// ---------------------------------------------------------------------
// Scenario 2: supervised anemometers over the Figure 3 tree
// ---------------------------------------------------------------------

struct TreeOutcome {
    reliability: f64,
    leaf_dc: f64,
    reconnects: u64,
    replayed: u64,
    intact: bool,
}

const TREE_ROUTERS: usize = 4;
const TREE_LEAVES: usize = 4;

/// The border router's listener probes idle connections, so the socket
/// of a leaf that rebooted (and reconnects from a new port) is freed
/// instead of holding a slot of the TCP buffer class forever. Healthy
/// unbatched leaves send every 1 s, so live connections are never
/// probed.
fn listener_cfg() -> tcplp::TcpConfig {
    tcplp::TcpConfig {
        keepalive_idle: Some(Duration::from_secs(30)),
        ..tcplp::TcpConfig::default()
    }
}

fn tree_under_plan(plan: &FaultPlan) -> TreeOutcome {
    let topo = Topology::office_tree(TREE_ROUTERS, TREE_LEAVES, 0.999);
    let mut kinds = vec![NodeKind::BorderRouter];
    kinds.extend(std::iter::repeat_n(NodeKind::Router, TREE_ROUTERS));
    kinds.extend(std::iter::repeat_n(NodeKind::SleepyLeaf, TREE_LEAVES));
    let mut world = World::new(&topo, &kinds, WorldConfig::default());
    world.add_tcp_listener(0, listener_cfg());
    world.set_sink_capture(0);
    let first_leaf = 1 + TREE_ROUTERS;
    for l in 0..TREE_LEAVES {
        let leaf = first_leaf + l;
        world.add_supervised_client(
            leaf,
            0,
            tier::chaos_supervisor(),
            Instant::from_millis(100 + 40 * l as u64),
        );
        world.set_anemometer(leaf, 64, None, Instant::from_secs(1));
    }
    world.apply_fault_plan(plan);
    world.run_for(Duration::from_secs(600));

    let now = world.now();
    let mut generated = 0u64;
    let mut pending = 0u64;
    let mut queued = 0u64;
    let mut reconnects = 0u64;
    let mut replayed = 0u64;
    let mut dc = 0.0;
    for l in 0..TREE_LEAVES {
        let leaf = first_leaf + l;
        if let App::Anemometer(app) = &world.nodes[leaf].app {
            generated += app.generated;
            queued += app.queue.len() as u64;
        }
        let sup = world.nodes[leaf].supervisor.as_ref().expect("supervised");
        pending += sup.pending_records() as u64;
        let stats = world.supervisor_stats(leaf).expect("supervised");
        reconnects += stats.reconnects;
        replayed += stats.records_replayed;
        dc += world.nodes[leaf].meter.radio_duty_cycle(now);
    }
    let per_client = tier::records_by_client(world.nodes[0].app.sink_capture());
    let delivered: u64 = per_client
        .iter()
        .map(|(_, asm)| asm.record_count() as u64)
        .sum();
    // Integrity: per client the record contract (a reading torn
    // mid-record must be torn at a prefix of its whole copy), and
    // loss-freedom — every generated reading is delivered, retained by
    // its supervisor, or still queued. A record can be *both* delivered
    // and retained at the cutoff (its TCP ACK still in flight), so the
    // conservation is `>=`, not `==`.
    let intact = per_client
        .iter()
        .all(|(_, asm)| tier::record_contract(asm).is_ok())
        && delivered + pending + queued >= generated;
    TreeOutcome {
        reliability: if generated == 0 {
            1.0
        } else {
            delivered as f64 / generated as f64
        },
        leaf_dc: dc / TREE_LEAVES as f64,
        reconnects,
        replayed,
        intact,
    }
}

fn tree_plans() -> Vec<(&'static str, FaultPlan)> {
    let first_leaf = 1 + TREE_ROUTERS;
    vec![
        ("fault-free", FaultPlan::new()),
        (
            "leaf reboots",
            FaultPlan::new()
                .reboot(first_leaf, Instant::from_secs(60), Duration::from_secs(20))
                .reboot(
                    first_leaf + 1,
                    Instant::from_secs(200),
                    Duration::from_secs(20),
                ),
        ),
        (
            "+blackout +BER",
            FaultPlan::new()
                .reboot(first_leaf, Instant::from_secs(60), Duration::from_secs(20))
                .reboot(
                    first_leaf + 1,
                    Instant::from_secs(200),
                    Duration::from_secs(20),
                )
                .blackout(1, 2, Instant::from_secs(300), Duration::from_secs(45))
                .bit_error_burst(2, Instant::from_secs(420), Duration::from_secs(30), 1e-3),
        ),
    ]
}

fn main() {
    println!("== Chaos sweep: degradation under composed fault plans ==\n");

    println!("-- supervised bulk, 3-hop chain, {SUPERVISED_BULK_BYTES} B --");
    println!(
        "{:<14} {:>10} {:>9} {:>10} {:>8} {:>9} {:>10}",
        "plan", "goodput", "vs base", "reconnects", "replays", "down (s)", "integrity"
    );
    println!("{:-<75}", "");
    let mut base = None;
    for (name, plan) in bulk_plans() {
        let r = bulk_under_plan(&plan);
        let baseline = *base.get_or_insert(r.goodput_bps);
        println!(
            "{:<14} {:>8.0} b/s {:>8.1}% {:>10} {:>8} {:>9.1} {:>10}",
            name,
            r.goodput_bps,
            100.0 * r.goodput_bps / baseline,
            r.reconnects,
            r.replayed,
            r.downtime_s,
            if r.intact { "OK" } else { "FAIL" }
        );
    }

    println!("\n-- supervised anemometers, Fig. 3 tree ({TREE_LEAVES} leaves, 600 s) --");
    println!(
        "{:<14} {:>12} {:>9} {:>10} {:>8} {:>10}",
        "plan", "reliability", "leaf DC", "reconnects", "replays", "integrity"
    );
    println!("{:-<68}", "");
    let mut base_dc = None;
    for (name, plan) in tree_plans() {
        let r = tree_under_plan(&plan);
        let baseline = *base_dc.get_or_insert(r.leaf_dc);
        println!(
            "{:<14} {:>11.2}% {:>8.2}% {:>10} {:>8} {:>10}   (DC vs base {:+.2} pp)",
            name,
            r.reliability * 100.0,
            r.leaf_dc * 100.0,
            r.reconnects,
            r.replayed,
            if r.intact { "OK" } else { "FAIL" },
            (r.leaf_dc - baseline) * 100.0,
        );
    }

    println!();
    println!("integrity = byte-exact reassembly after record dedup: no reading or");
    println!("bulk byte lost, sent twice on one connection, or replayed changed");
    println!("across reboots, blackouts, flaps, and bit-error bursts (the paper's");
    println!(">99.9% multi-day reliability claim, Table 8, exercised under faults");
    println!("the testbed saw organically). Replays of records a dead connection");
    println!("delivered but never ACKed are by design and counted apart.");
}
