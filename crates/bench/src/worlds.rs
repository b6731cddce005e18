//! The paper's canonical worlds, each built once.
//!
//! The evaluation rests on a few fixed setups, and every runner, test
//! and sweep in the workspace builds them here:
//!
//! - the **bulk chain** (§6-§8): [`ChainRun::build`], a chain of
//!   routers carrying one TCPlp stream ([`install_stream`]); the
//!   benchmark's `bulk-1hop` and `chain-3hop` worlds are its 1- and
//!   3-hop cases, and [`syn_frag_flood`] is the 3-hop chain under the
//!   overload tier's flood (`syn-frag-flood`);
//! - the **§9 office tree** (Fig. 3): [`AppRun::build`]; its default
//!   TCPlp arm is the benchmark's `anemometer-tree`;
//! - the **duty-cycled pair** (Appendix C, Figs. 12-14):
//!   [`duty_cycled_pair`];
//! - the **chaos tree**: [`crate::tier::chaos_tree`], next to the
//!   robustness tiers' chain.
//!
//! A builder returns the world ready to run. A caller that observes
//! more (a byte capture, a cwnd trace) switches it on in the world it
//! gets back; neither draws on the world RNG.

use std::ops::Range;

use lln_coap::{CoapClient, CoapClientConfig, Cocoa, RtoAlgorithm};
use lln_mac::poll::PollMode;
use lln_mac::MacConfig;
use lln_node::flood::FloodConfig;
use lln_node::route::Topology;
use lln_node::stack::NodeKind;
use lln_node::world::{World, WorldConfig};
use lln_phy::{LinkMatrix, RadioIdx};
use lln_sim::{Duration, Instant};
use tcplp::TcpConfig;

use crate::tier::hardened_tcp;

/// Installs one TCPlp bulk stream: a listener and a byte-counting sink
/// on `dst`, and on `src` a client that connects at 10 ms, records its
/// RTT samples and sends `bytes` of the bulk pattern (`None`: without
/// end). Returns the client's socket index on `src`. The client draws
/// its ISS from the world RNG.
pub fn install_stream(
    world: &mut World,
    src: usize,
    dst: usize,
    tcp: &TcpConfig,
    bytes: Option<u64>,
) -> usize {
    world.add_tcp_listener(dst, tcp.clone());
    world.set_sink(dst);
    let si = world.add_tcp_client(src, dst, tcp.clone(), Instant::from_millis(10));
    world.nodes[src].transport.tcp[si].rtt_trace.enable();
    world.set_bulk_sender(src, bytes);
    si
}

/// Parameters for a chain bulk-transfer experiment.
#[derive(Clone, Debug)]
pub struct ChainRun {
    /// Number of wireless hops.
    pub hops: usize,
    /// Per-link PRR.
    pub prr: f64,
    /// Link-retry delay bound `d`.
    pub retry_delay: Duration,
    /// TCP configuration for both ends.
    pub tcp: TcpConfig,
    /// Bytes to transfer (`None`: stream until the run ends).
    pub bytes: Option<u64>,
    /// Simulated duration cap.
    pub duration: Duration,
    /// Seed.
    pub seed: u64,
    /// Downlink (node 0 sends to the far node) instead of uplink.
    pub downlink: bool,
    /// Give intermediate nodes two-hop carrier sensing (denser
    /// deployments suppress some hidden-terminal collisions).
    pub two_hop_carrier: bool,
}

impl Default for ChainRun {
    fn default() -> Self {
        ChainRun {
            hops: 1,
            prr: 0.999,
            retry_delay: Duration::from_millis(40),
            tcp: TcpConfig::default(),
            bytes: Some(1_000_000),
            duration: Duration::from_secs(120),
            seed: 0x5eed,
            downlink: false,
            two_hop_carrier: false,
        }
    }
}

impl ChainRun {
    /// The stream's sender and sink: the far end and node 0, swapped on
    /// the downlink.
    pub fn ends(&self) -> (usize, usize) {
        if self.downlink {
            (0, self.hops)
        } else {
            (self.hops, 0)
        }
    }

    /// The chain with no traffic: `hops + 1` routers in a line.
    pub fn world(&self) -> World {
        self.world_with_sink(NodeKind::Router)
    }

    /// The chain with the sink's node of kind `sink`.
    fn world_with_sink(&self, sink: NodeKind) -> World {
        let links = if self.two_hop_carrier {
            LinkMatrix::chain_with_two_hop_carrier(self.hops + 1, self.prr)
        } else {
            LinkMatrix::chain(self.hops + 1, self.prr)
        };
        let mut kinds = vec![NodeKind::Router; self.hops + 1];
        kinds[self.ends().1] = sink;
        let wc = WorldConfig {
            seed: self.seed,
            mac: MacConfig {
                retry_delay_max: self.retry_delay,
                ..MacConfig::default()
            },
            ..WorldConfig::default()
        };
        World::new(&Topology::with_shortest_paths(links), &kinds, wc)
    }

    /// The chain carrying its stream ([`install_stream`] between
    /// [`Self::ends`]).
    pub fn build(&self) -> World {
        let mut world = self.world();
        self.install(&mut world);
        world
    }

    fn install(&self, world: &mut World) {
        let (src, dst) = self.ends();
        install_stream(world, src, dst, &self.tcp, self.bytes);
    }
}

/// The benchmark's `syn-frag-flood` world: the 3-hop bulk chain at
/// `seed` with [`hardened_tcp`] on both ends, and node 0, the sink, a
/// border router under the overload tier's flood: 320/s forged SYNs
/// and 320/s forged FRAG1s from 3 spoofed sources, from 5 s to 1500 s.
/// The flood forks the world RNG before the client draws its ISS.
pub fn syn_frag_flood(seed: u64, bytes: Option<u64>) -> World {
    let run = ChainRun {
        hops: 3,
        tcp: hardened_tcp(),
        bytes,
        seed,
        ..ChainRun::default()
    };
    let mut world = run.world_with_sink(NodeKind::BorderRouter);
    world.attach_flood(
        0,
        FloodConfig {
            start: Instant::from_millis(5_000),
            stop: Instant::from_secs(1_500),
            rate_hz: 320,
            syn: true,
            frag: true,
            spoofed_sources: 3,
            ..FloodConfig::default()
        },
    );
    run.install(&mut world);
    world
}

/// Which transport an anemometer node uses.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AppProtocol {
    /// TCPlp stream to the cloud.
    Tcplp,
    /// CoAP confirmable (default congestion control).
    Coap,
    /// CoAP with CoCoA.
    Cocoa,
    /// CoAP non-confirmable (unreliable rows of Table 8).
    CoapNon,
}

/// Parameters for the §9 application study.
#[derive(Clone, Debug)]
pub struct AppRun {
    /// Transport under test.
    pub protocol: AppProtocol,
    /// Batch size (None = no batching).
    pub batch: Option<usize>,
    /// Injected uniform packet loss at the border router.
    pub injected_loss: f64,
    /// Simulated duration.
    pub duration: Duration,
    /// Number of sensor leaves (paper: nodes 12-15, i.e. 4).
    pub sensors: usize,
    /// Interference profile (None = clean night-time network).
    pub interference: Option<(f64, f64)>, // (day, night) occupancy
    /// Seed.
    pub seed: u64,
}

impl Default for AppRun {
    fn default() -> Self {
        AppRun {
            protocol: AppProtocol::Tcplp,
            batch: Some(64),
            injected_loss: 0.0,
            duration: Duration::from_secs(1800),
            sensors: 4,
            interference: None,
            seed: 0x0411,
        }
    }
}

/// The first sensor leaf of [`AppRun::build`]'s tree: the cloud host,
/// the border router and three routers come before the leaves.
const FIRST_SENSOR: usize = 5;

impl AppRun {
    /// The sensor leaves' node indices.
    pub fn sensor_nodes(&self) -> Range<usize> {
        FIRST_SENSOR..FIRST_SENSOR + self.sensors
    }

    /// Builds the §9 world: cloud(0) — border(1) — routers(2,3,4) chain
    /// — `sensors` sleepy leaves split across routers 3 and 4 (3-5 hop
    /// paths, like the paper's -8 dBm topology), plus an optional
    /// interferer audible across the mesh. The cloud runs a TCP listener
    /// into a byte-counting sink and a CoAP server.
    pub fn build(&self) -> World {
        let routers = 3usize;
        let n_sensed = FIRST_SENSOR + self.sensors;
        let n = n_sensed + usize::from(self.interference.is_some());
        let mut links = LinkMatrix::new(n);
        let prr = 0.98;
        // border(1) - r2 - r3 - r4 chain.
        links.set_symmetric(RadioIdx(1), RadioIdx(2), prr);
        links.set_symmetric(RadioIdx(2), RadioIdx(3), prr);
        links.set_symmetric(RadioIdx(3), RadioIdx(4), prr);
        // Sensors alternate between r3 and r4.
        for (s, leaf) in self.sensor_nodes().enumerate() {
            let parent = if s % 2 == 0 { 3 } else { 4 };
            links.set_symmetric(RadioIdx(leaf), RadioIdx(parent), prr);
        }
        // Dense office: radios without a usable link still hear each
        // other's energy (carrier sensing suppresses most hidden-terminal
        // collisions, as in the paper's testbed where nodes share rooms).
        for a in 1..n_sensed {
            for b in (a + 1)..n_sensed {
                if !links.audible(RadioIdx(a), RadioIdx(b)) {
                    links.set_interference(RadioIdx(a), RadioIdx(b));
                    links.set_interference(RadioIdx(b), RadioIdx(a));
                }
            }
        }
        // Interferer: audible at every mesh radio.
        if self.interference.is_some() {
            for r in 1..n_sensed {
                links.set_interference(RadioIdx(n - 1), RadioIdx(r));
            }
        }
        let topo = Topology::with_shortest_paths(links);
        let mut kinds = vec![NodeKind::CloudHost, NodeKind::BorderRouter];
        kinds.extend(std::iter::repeat_n(NodeKind::Router, routers));
        kinds.extend(std::iter::repeat_n(NodeKind::SleepyLeaf, self.sensors));
        if self.interference.is_some() {
            kinds.push(NodeKind::Interferer);
        }
        let wc = WorldConfig {
            seed: self.seed,
            ..WorldConfig::default()
        };
        let mut world = World::new(&topo, &kinds, wc);
        world.set_injected_loss(1, self.injected_loss);

        // Cloud services.
        world.add_tcp_listener(0, TcpConfig::default());
        world.set_sink(0);
        world.add_coap_server(0);

        // Sensors.
        let queue_cap = match self.protocol {
            AppProtocol::Tcplp => 64,
            _ => 104,
        };
        for (s, leaf) in self.sensor_nodes().enumerate() {
            match self.protocol {
                AppProtocol::Tcplp => {
                    world.add_tcp_client(
                        leaf,
                        0,
                        TcpConfig::default(),
                        Instant::from_millis(200 + 111 * s as u64),
                    );
                }
                AppProtocol::Coap | AppProtocol::Cocoa | AppProtocol::CoapNon => {
                    let cfg = CoapClientConfig {
                        non_confirmable: self.protocol == AppProtocol::CoapNon,
                    };
                    let rto = if self.protocol == AppProtocol::Cocoa {
                        RtoAlgorithm::Cocoa(Cocoa::new())
                    } else {
                        RtoAlgorithm::Default
                    };
                    world.add_coap_client(leaf, CoapClient::new(cfg, rto, &["sensors"]));
                }
            }
            world.set_anemometer(
                leaf,
                queue_cap,
                self.batch,
                Instant::from_millis(500 + 113 * s as u64),
            );
            // Unreliable CoAP expects no responses: keep the default slow
            // poll. Reliable transports poll fast while waiting (§9.6).
            if self.protocol == AppProtocol::CoapNon {
                world.set_poll_mode(
                    leaf,
                    PollMode::Fixed {
                        idle: Duration::from_secs(240),
                        fast: Duration::from_secs(240),
                    },
                );
                world.schedule_poll(leaf, Instant::from_millis(50 + 37 * leaf as u64));
            }
        }

        if let Some((day, night)) = self.interference {
            let mut app = lln_node::app::InterfererApp::office();
            app.day_occupancy = day;
            app.night_occupancy = night;
            world.start_interferer(n - 1, app, Instant::from_millis(77));
        }
        world
    }
}

/// The sleepy leaf of [`duty_cycled_pair`]; node 0 is its router.
pub const SLEEPY_LEAF: usize = 1;

/// Appendix C's duty-cycled link (Figs. 12-14): an always-on router
/// (node 0) and a sleepy leaf ([`SLEEPY_LEAF`]) one 0.999-PRR hop
/// apart, seeded with `seed`. The leaf polls its parent under `mode`,
/// first at 5 ms.
pub fn duty_cycled_pair(seed: u64, mode: PollMode) -> World {
    let wc = WorldConfig {
        seed,
        ..WorldConfig::default()
    };
    let kinds = [NodeKind::Router, NodeKind::SleepyLeaf];
    let mut world = World::new(&Topology::pair(0.999), &kinds, wc);
    world.set_poll_mode(SLEEPY_LEAF, mode);
    world.schedule_poll(SLEEPY_LEAF, Instant::from_millis(5));
    world
}
