//! The paper's motivating application (§3): battery-powered ultrasonic
//! anemometers streaming 82-byte readings at 1 Hz through a Thread-like
//! mesh to a cloud server — over TCPlp and over CoAP, side by side.
//!
//! Run with: `cargo run --example anemometer --release`

use tcplp_repro::coap::{CoapClient, CoapClientConfig, RtoAlgorithm};
use tcplp_repro::node::app::App;
use tcplp_repro::node::route::Topology;
use tcplp_repro::node::stack::NodeKind;
use tcplp_repro::node::world::{World, WorldConfig};
use tcplp_repro::phy::{LinkMatrix, RadioIdx};
use tcplp_repro::sim::{Duration, Instant};
use tcplp_repro::tcplp::TcpConfig;

/// cloud(0) — border(1) — router(2) — router(3), two sleepy sensors on
/// node 3 (4 wireless hops + the wired segment to the cloud).
fn build_world(seed: u64) -> World {
    let mut links = LinkMatrix::new(6);
    let prr = 0.97;
    links.set_symmetric(RadioIdx(1), RadioIdx(2), prr);
    links.set_symmetric(RadioIdx(2), RadioIdx(3), prr);
    links.set_symmetric(RadioIdx(3), RadioIdx(4), prr);
    links.set_symmetric(RadioIdx(3), RadioIdx(5), prr);
    let topo = Topology::with_shortest_paths(links);
    let cfg = WorldConfig {
        seed,
        ..WorldConfig::default()
    };
    World::new(
        &topo,
        &[
            NodeKind::CloudHost,
            NodeKind::BorderRouter,
            NodeKind::Router,
            NodeKind::Router,
            NodeKind::SleepyLeaf,
            NodeKind::SleepyLeaf,
        ],
        cfg,
    )
}

fn report(world: &mut World, label: &str, delivered_readings: u64) {
    let now = world.now();
    let mut generated = 0;
    let mut dc = 0.0;
    for leaf in [4usize, 5] {
        if let App::Anemometer(a) = &world.nodes[leaf].app {
            generated += a.generated;
        }
        dc += world.nodes[leaf].meter.radio_duty_cycle(now) / 2.0;
    }
    println!(
        "{label:<8} generated {generated:>5} readings, delivered {delivered_readings:>5} \
         ({:.1}%), mean radio duty cycle {:.2}%",
        100.0 * delivered_readings as f64 / generated.max(1) as f64,
        dc * 100.0
    );
}

fn main() {
    let minutes = 20;
    println!("anemometry: 2 sensors x 1 Hz x {minutes} min, batch = 64 readings\n");

    // --- TCPlp arm ---
    let mut world = build_world(1);
    world.add_tcp_listener(0, TcpConfig::default());
    world.set_sink(0);
    for (k, leaf) in [4usize, 5].into_iter().enumerate() {
        world.add_tcp_client(
            leaf,
            0,
            TcpConfig::default(),
            Instant::from_millis(300 + k as u64 * 170),
        );
        world.set_anemometer(leaf, 64, Some(64), Instant::from_secs(1));
    }
    world.run_for(Duration::from_secs(minutes * 60));
    let tcp_readings = world.nodes[0].app.sink_received() / 82;
    report(&mut world, "TCPlp", tcp_readings);

    // --- CoAP arm ---
    let mut world = build_world(2);
    world.add_coap_server(0);
    for leaf in [4usize, 5] {
        world.add_coap_client(
            leaf,
            CoapClient::new(
                CoapClientConfig::default(),
                RtoAlgorithm::Default,
                &["sensors", "anemometer"],
            ),
        );
        world.set_anemometer(leaf, 104, Some(64), Instant::from_secs(1));
    }
    world.run_for(Duration::from_secs(minutes * 60));
    let coap_readings: usize = world.nodes[0]
        .transport
        .coap_server
        .as_ref()
        .map(|s| s.received().iter().map(|r| r.payload.len() / 82).sum())
        .unwrap_or(0);
    report(&mut world, "CoAP", coap_readings as u64);

    println!("\nBoth reliability protocols deliver ~100% of readings at a");
    println!("few-percent radio duty cycle — the paper's §9 conclusion that");
    println!("full-scale TCP is power-competitive with LLN-specific CoAP.");
}
