//! The four canonical worlds, built through the public `World` API, and
//! the simulated outcomes the benchmark checks and reports.
//!
//! A [`Run`] owns one seeded world. It advances the world in fixed
//! chunks of simulated time through a caller-supplied stepping function
//! (plain `run_until`, or the traced stepper), and after every chunk it
//! drains the sink's capture buffer and checks each delivered byte
//! against what the sender generated. Draining keeps the capture small,
//! so the heap high-water mark measures the world, not the check.

use lln_mac::MacConfig;
use lln_netip::Ipv6Addr;
use lln_node::app::{App, READING_BYTES};
use lln_node::flood::FloodConfig;
use lln_node::route::Topology;
use lln_node::stack::NodeKind;
use lln_node::world::{World, WorldConfig};
use lln_phy::{LinkMatrix, RadioIdx};
use lln_sim::{Duration, Instant};
use tcplp::TcpConfig;

/// Seed reserved for confirming a claim after it was tuned on the
/// pinned seeds; never tune against it.
pub const HELDOUT_SEED: u64 = 0x04E1_D0C7;

/// One named benchmark world.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    /// One TCPlp bulk stream over a single 0.999-PRR hop.
    Bulk1Hop,
    /// The same stream uplink over a 3-hop chain at d = 40 ms.
    Chain3Hop,
    /// The §9 anemometer tree: 4 sleepy leaves, batch 64, for hours.
    AnemometerTree,
    /// The 3-hop transfer under a 320/s SYN + FRAG1 flood at the server.
    SynFragFlood,
}

/// Bytes of the single-hop bulk transfer.
pub const BULK_1HOP_BYTES: u64 = 20_000_000;
/// Bytes of the 3-hop bulk transfer.
pub const CHAIN_3HOP_BYTES: u64 = 4_000_000;
/// Bytes of the transfer that runs under the flood.
pub const FLOOD_BYTES: u64 = 2_000_000;
/// Simulated span of the anemometer tree.
pub const TREE_SPAN: Duration = Duration::from_secs(6 * 3600);
/// Simulated span of the flooded world (the flood lasts until its end).
pub const FLOOD_SPAN: Duration = Duration::from_secs(1500);
/// Flood rate per forged kind (SYN and FRAG1), packets per second.
pub const FLOOD_RATE_HZ: u64 = 320;
/// Sensor leaves in the tree.
const SENSORS: usize = 4;
/// Cloud host, border router and three mesh routers precede the leaves.
const TREE_MESH: usize = 5;

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 4] = [
        Workload::Bulk1Hop,
        Workload::Chain3Hop,
        Workload::AnemometerTree,
        Workload::SynFragFlood,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Bulk1Hop => "bulk-1hop",
            Workload::Chain3Hop => "chain-3hop",
            Workload::AnemometerTree => "anemometer-tree",
            Workload::SynFragFlood => "syn-frag-flood",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The seed used when none is given: the seed the repository's own
    /// runner for this world shape pins.
    pub fn pinned_seed(self) -> u64 {
        match self {
            Workload::Bulk1Hop | Workload::Chain3Hop => 0x5eed,
            Workload::AnemometerTree => 0x0411,
            Workload::SynFragFlood => 0xF10_0D5E,
        }
    }
}

/// How the offered data is laid out, so delivery can be checked.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Stream {
    /// The bulk sender's pattern: byte `j` of the stream is `j as u8`.
    Bulk,
    /// Back-to-back 82-byte anemometer readings, sequence-stamped.
    Readings,
}

impl Stream {
    fn expected(self, offset: u64) -> u8 {
        match self {
            Stream::Bulk => offset as u8,
            Stream::Readings => {
                let n = READING_BYTES as u64;
                let (seq, k) = (offset / n, (offset % n) as usize);
                if k < 8 {
                    seq.to_be_bytes()[k]
                } else {
                    (seq as usize + k - 8) as u8
                }
            }
        }
    }
}

/// Per-connection progress of the delivery check.
struct Conn {
    key: (Ipv6Addr, u16),
    offset: u64,
}

/// One seeded world plus the state that checks what it delivers.
pub struct Run {
    /// The world under test.
    pub world: World,
    /// Which workload this is.
    pub workload: Workload,
    /// Node that sends (bulk) or the first sensor leaf (tree).
    source: usize,
    /// Node that sinks the stream.
    pub sink: usize,
    offered: u64,
    stream: Stream,
    chunk: Duration,
    horizon: Instant,
    cursor: Instant,
    conns: Vec<Conn>,
    bad_bytes: u64,
}

fn bulk_cfg() -> TcpConfig {
    TcpConfig::default()
}

/// The overload tier's TCP settings (`flood_sweep`): the transfer must
/// outlast the flood.
fn overload_cfg() -> TcpConfig {
    TcpConfig {
        max_retransmits: 8,
        max_rto: Duration::from_secs(4),
        ..TcpConfig::default()
    }
}

/// Builds a chain of routers with `hops` hops, node 0 the sink, and a
/// bulk stream of `bytes` from the far end (`run_chain_bulk`'s shape).
/// With `flood` set, the server also takes the overload tier's SYN +
/// FRAG1 flood from 5 s until `span`.
fn chain_bulk(seed: u64, hops: usize, bytes: u64, flood: Option<Duration>) -> World {
    let topo = Topology::chain(hops + 1, 0.999);
    let mut kinds = vec![NodeKind::Router; hops + 1];
    if flood.is_some() {
        // `flood_sweep`'s shape: the server is the border router.
        kinds[0] = NodeKind::BorderRouter;
    }
    let wc = WorldConfig {
        seed,
        mac: MacConfig {
            retry_delay_max: Duration::from_millis(40),
            ..MacConfig::default()
        },
        ..WorldConfig::default()
    };
    let tcp = if flood.is_some() {
        overload_cfg()
    } else {
        bulk_cfg()
    };
    let mut world = World::new(&topo, &kinds, wc);
    world.add_tcp_listener(0, tcp.clone());
    world.set_sink_capture(0);
    if let Some(span) = flood {
        world.attach_flood(
            0,
            FloodConfig {
                start: Instant::from_millis(5_000),
                stop: Instant::ZERO + span,
                rate_hz: FLOOD_RATE_HZ,
                syn: true,
                frag: true,
                spoofed_sources: 3,
                ..FloodConfig::default()
            },
        );
    }
    let si = world.add_tcp_client(hops, 0, tcp, Instant::from_millis(10));
    world.nodes[hops].transport.tcp[si].rtt_trace.enable();
    world.set_bulk_sender(hops, Some(bytes));
    world
}

/// Builds the §9 tree (`run_app_study`'s TCPlp arm): cloud(0) —
/// border(1) — routers 2, 3, 4 — four sleepy leaves alternating between
/// routers 3 and 4, every leaf streaming batched readings to the cloud.
fn anemometer_tree(seed: u64) -> World {
    let n = TREE_MESH + SENSORS;
    let prr = 0.98;
    let mut links = LinkMatrix::new(n);
    links.set_symmetric(RadioIdx(1), RadioIdx(2), prr);
    links.set_symmetric(RadioIdx(2), RadioIdx(3), prr);
    links.set_symmetric(RadioIdx(3), RadioIdx(4), prr);
    for s in 0..SENSORS {
        let parent = if s % 2 == 0 { 3 } else { 4 };
        links.set_symmetric(RadioIdx(TREE_MESH + s), RadioIdx(parent), prr);
    }
    // Dense office: radios without a usable link still hear each
    // other's energy.
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
    kinds.extend([NodeKind::SleepyLeaf; SENSORS]);
    let mut world = World::new(
        &topo,
        &kinds,
        WorldConfig {
            seed,
            ..WorldConfig::default()
        },
    );
    world.add_tcp_listener(0, TcpConfig::default());
    world.set_sink_capture(0);
    for s in 0..SENSORS {
        let leaf = TREE_MESH + s;
        let si = world.add_tcp_client(
            leaf,
            0,
            TcpConfig::default(),
            Instant::from_millis(200 + 111 * s as u64),
        );
        world.nodes[leaf].transport.tcp[si].rtt_trace.enable();
        world.set_anemometer(
            leaf,
            64,
            Some(64),
            Instant::from_millis(500 + 113 * s as u64),
        );
    }
    world
}

impl Run {
    /// Builds and installs the world for `workload` at `seed`. This is
    /// the benchmark's set-up step.
    pub fn build(workload: Workload, seed: u64) -> Run {
        Self::scaled(workload, seed, 1)
    }

    /// Like [`Run::build`], with the offered bytes and simulated spans
    /// divided by `scale` (the tests run the worlds small).
    pub fn scaled(workload: Workload, seed: u64, scale: u32) -> Run {
        let div = u64::from(scale.max(1));
        let flood_span = Duration::from_micros(FLOOD_SPAN.as_micros() / div);
        let bulk_cap = Duration::from_secs(20_000);
        let (offered, world, source, stream, chunk, horizon) = match workload {
            Workload::Bulk1Hop => {
                let bytes = BULK_1HOP_BYTES / div;
                let world = chain_bulk(seed, 1, bytes, None);
                (
                    bytes,
                    world,
                    1,
                    Stream::Bulk,
                    Duration::from_secs(5),
                    bulk_cap,
                )
            }
            Workload::Chain3Hop => {
                let bytes = CHAIN_3HOP_BYTES / div;
                let world = chain_bulk(seed, 3, bytes, None);
                (
                    bytes,
                    world,
                    3,
                    Stream::Bulk,
                    Duration::from_secs(5),
                    bulk_cap,
                )
            }
            Workload::AnemometerTree => {
                let span = Duration::from_micros(TREE_SPAN.as_micros() / div);
                let world = anemometer_tree(seed);
                (
                    0,
                    world,
                    TREE_MESH,
                    Stream::Readings,
                    Duration::from_secs(60),
                    span,
                )
            }
            Workload::SynFragFlood => {
                let bytes = FLOOD_BYTES / div;
                let world = chain_bulk(seed, 3, bytes, Some(flood_span));
                (
                    bytes,
                    world,
                    3,
                    Stream::Bulk,
                    Duration::from_secs(5),
                    flood_span,
                )
            }
        };
        Run {
            world,
            workload,
            source,
            sink: 0,
            offered,
            stream,
            chunk,
            horizon: Instant::ZERO + horizon,
            cursor: Instant::ZERO,
            conns: Vec::new(),
            bad_bytes: 0,
        }
    }

    /// Bytes the bulk sender offers (0 for the tree).
    pub fn offered_bytes(&self) -> u64 {
        self.offered
    }

    /// Checked bytes delivered so far, over every connection.
    pub fn delivered_bytes(&self) -> u64 {
        self.conns.iter().map(|c| c.offset).sum()
    }

    fn finished(&self) -> bool {
        if self.cursor >= self.horizon {
            return true;
        }
        // Bulk-only worlds stop once the stream is in; the flood runs to
        // its horizon so its load stays fixed.
        matches!(self.workload, Workload::Bulk1Hop | Workload::Chain3Hop)
            && self.delivered_bytes() >= self.offered_bytes()
    }

    /// Advances the world to its end, chunk by chunk. `advance` must
    /// process every event up to and including the given instant.
    pub fn run_with(&mut self, mut advance: impl FnMut(&mut World, Instant)) {
        while !self.finished() {
            self.cursor = (self.cursor + self.chunk).min(self.horizon);
            advance(&mut self.world, self.cursor);
            self.drain();
        }
    }

    /// Checks and discards the bytes the sink captured since the last
    /// drain. Clearing keeps each buffer's capacity, so this allocates
    /// only when a new connection appears.
    fn drain(&mut self) {
        let stream = self.stream;
        let App::Sink {
            capture: Some(cap), ..
        } = &mut self.world.nodes[self.sink].app
        else {
            panic!("the sink captures its stream");
        };
        for (key, bytes) in cap.iter_mut() {
            let conn = match self.conns.iter().position(|c| c.key == *key) {
                Some(i) => &mut self.conns[i],
                None => {
                    self.conns.push(Conn {
                        key: *key,
                        offset: 0,
                    });
                    self.conns.last_mut().expect("just pushed")
                }
            };
            for &b in bytes.iter() {
                if b != stream.expected(conn.offset) {
                    self.bad_bytes += 1;
                }
                conn.offset += 1;
            }
            bytes.clear();
        }
    }

    /// Collects the simulated outcome. Call once the run is over.
    pub fn outcome(&mut self) -> Outcome {
        let now = self.cursor;
        let sim_s = now.as_secs_f64();
        let offered = self.offered_bytes();
        let world = &mut self.world;
        let senders: Vec<usize> = match self.workload {
            Workload::AnemometerTree => (TREE_MESH..TREE_MESH + SENSORS).collect(),
            _ => vec![self.source],
        };
        let mut rtt_ms = Vec::new();
        for &s in &senders {
            for sock in &world.nodes[s].transport.tcp {
                rtt_ms.extend(
                    sock.rtt_trace
                        .samples()
                        .iter()
                        .map(|(_, r)| r.as_secs_f64() * 1e3),
                );
            }
        }
        let delivered = self.conns.iter().map(|c| c.offset).sum::<u64>();
        let (attempted, failed, reliability, goodput_bps, radio_dc);
        match self.workload {
            Workload::AnemometerTree => {
                let n = READING_BYTES as u64;
                let (mut generated, mut dropped, mut lost, mut pending) = (0, 0, 0, 0);
                let mut dc = 0.0;
                for &leaf in &senders {
                    let node = &mut world.nodes[leaf];
                    let App::Anemometer(app) = &node.app else {
                        panic!("leaves run the anemometer");
                    };
                    let key = (node.ip_addr(), 49152);
                    let got = self
                        .conns
                        .iter()
                        .find(|c| c.key == key)
                        .map_or(0, |c| c.offset);
                    let queued: u64 = node
                        .transport
                        .tcp
                        .iter()
                        .map(|t| t.send_queued() as u64)
                        .sum();
                    generated += app.generated;
                    dropped += app.dropped;
                    pending += app.queue.len() as u64 + queued / n;
                    lost += (app.submitted * n).saturating_sub(got + queued).div_ceil(n);
                    dc += node.meter.radio_duty_cycle(now);
                }
                let readings = delivered / n;
                attempted = generated;
                failed = dropped + lost + self.bad_bytes.div_ceil(n);
                let denom = generated
                    .saturating_sub(pending)
                    .max(readings.min(generated));
                reliability = if denom == 0 {
                    1.0
                } else {
                    (readings as f64 / denom as f64).min(1.0)
                };
                goodput_bps = (delivered * 8) as f64 / sim_s;
                radio_dc = dc / SENSORS as f64;
            }
            _ => {
                let good = delivered.saturating_sub(self.bad_bytes).min(offered);
                attempted = offered;
                failed = offered - good;
                reliability = good as f64 / offered as f64;
                goodput_bps = world.nodes[self.sink].app.sink_goodput_bps();
                let (s, d) = (self.source, self.sink);
                radio_dc = (world.nodes[s].meter.radio_duty_cycle(now)
                    + world.nodes[d].meter.radio_duty_cycle(now))
                    / 2.0;
            }
        }
        let segs_sent = world
            .nodes
            .iter()
            .flat_map(|n| n.transport.tcp.iter())
            .map(|t| t.stats.segs_sent)
            .sum();
        let frames_tx = world.medium.counters.get("frames_tx");
        let mut d = Digest::new();
        d.add(now.as_micros());
        for (_, v) in world.medium.counters.iter() {
            d.add(v);
        }
        for (i, node) in world.nodes.iter().enumerate() {
            d.add(i as u64);
            for (_, v) in node.counters.iter() {
                d.add(v);
            }
            for t in &node.transport.tcp {
                d.add(t.stats.digest());
            }
            if let Some(l) = &node.transport.tcp_listener {
                d.add(l.stats.digest());
            }
            d.add(node.governor.digest());
        }
        d.add(delivered);
        d.add(self.bad_bytes);
        d.add(rtt_ms.len() as u64);
        Outcome {
            sim_s,
            frames_tx,
            delivered_bytes: delivered,
            attempted,
            failed,
            goodput_bps,
            rtt_ms,
            reliability,
            radio_dc,
            segs_sent,
            digest: d.finish(),
        }
    }
}

/// The simulated results of one run. Every field is a pure function of
/// the workload and seed.
#[derive(Clone, Debug)]
pub struct Outcome {
    /// Simulated seconds covered.
    pub sim_s: f64,
    /// Frames put on the air (data frames, link ACKs).
    pub frames_tx: u64,
    /// Bytes the sink received, checked or not.
    pub delivered_bytes: u64,
    /// Offered units: bytes for a bulk stream, readings for the tree.
    pub attempted: u64,
    /// Offered units not delivered, or delivered wrong.
    pub failed: u64,
    /// Application goodput, bits per simulated second.
    pub goodput_bps: f64,
    /// Every RTT sample the senders took, in milliseconds.
    pub rtt_ms: Vec<f64>,
    /// Delivered / offered (readings for the tree, bytes otherwise).
    pub reliability: f64,
    /// Mean radio duty cycle of the traffic endpoints.
    pub radio_dc: f64,
    /// TCP segments sent by every socket in the world.
    pub segs_sent: u64,
    /// Digest over the simulated state at the end of the run.
    pub digest: u64,
}

impl Outcome {
    /// The `p`-th percentile (0-100) of the RTT samples, in ms.
    pub fn rtt_percentile(&self, p: f64) -> f64 {
        let tick_ms = TcpConfig::default().ts_granularity.as_secs_f64() * 1e3;
        grouped_percentile(&self.rtt_ms, p, tick_ms)
    }
}

/// Percentile `p` (0-100) of samples that are whole multiples of `step`
/// (RTTs measured in TCP timestamp ticks), by the grouped-data formula:
/// a sample `v` stands for `[v - step/2, v + step/2)`, and the
/// percentile is interpolated within the interval that holds it. Nearest
/// rank would jump a whole tick at a time and read the same for most
/// seeds; this moves with the counts. 0 when there are no samples.
pub fn grouped_percentile(values: &[f64], p: f64, step: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let target = p / 100.0 * v.len() as f64;
    let mut below = 0;
    for run in v.chunk_by(|a, b| a == b) {
        if (below + run.len()) as f64 >= target {
            let within = (target - below as f64) / run.len() as f64;
            return run[0] - step / 2.0 + step * within;
        }
        below += run.len();
    }
    0.0
}

/// FNV-1a over a sequence of `u64`s.
pub struct Digest(u64);

impl Digest {
    /// An empty digest.
    pub fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    /// Mixes in one value.
    pub fn add(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// The digest value.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Digest {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::grouped_percentile;

    #[test]
    fn grouped_percentile_interpolates_within_a_tick() {
        // Ten samples: four at 1 ms, six at 2 ms. The median lies one
        // sixth into the 2 ms tick, [1.5, 2.5).
        let v = [1.0, 2.0, 1.0, 2.0, 2.0, 1.0, 2.0, 2.0, 1.0, 2.0];
        let p50 = grouped_percentile(&v, 50.0, 1.0);
        assert!((p50 - (1.5 + 1.0 / 6.0)).abs() < 1e-12, "{p50}");
        assert_eq!(grouped_percentile(&v, 100.0, 1.0), 2.5);
        assert_eq!(grouped_percentile(&[], 50.0, 1.0), 0.0);
    }
}
