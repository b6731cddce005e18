//! The discrete-event world: one radio medium, N full-stack nodes, a
//! wired border↔cloud link, interferers, and the event loop.
//!
//! Every paper experiment is a `World` configured with a topology,
//! per-node roles/transports/apps, and a simulated duration. The event
//! loop is strictly deterministic: one seeded RNG, tie-broken event
//! ordering, no wall clock.
//!
//! The handlers live in one module per layer, each an `impl World`
//! block:
//!
//! - `mac.rs`: the CSMA engine, frame reception, link ACKs, data
//!   polling and interferers;
//! - `net.rs`: routing, admission, the IP queues, forwarding and
//!   6LoWPAN framing;
//! - `transport.rs`: TCP/UDP delivery, the transport pump and timers,
//!   and the applications;
//! - `inject.rs`: the fault plan, the adversary, the flooder and the
//!   down-node guard, with the state they keep.

mod inject;
mod mac;
mod net;
mod transport;

use crate::app::{AnemometerApp, App, InterfererApp};
use crate::fault::FaultEvent;
use crate::route::Topology;
use crate::stack::{BufPool, Node, NodeKind};
use crate::supervisor::{SupervisedConnection, SupervisorConfig, SupervisorStats};
use lln_coap::{CoapClient, CoapServer};
use lln_mac::csma::MacConfig;
use lln_mac::frame::MacFrame;
use lln_mac::pool::FramePool;
use lln_netip::{Ipv6Header, NodeId};
use lln_phy::medium::TxHandle;
use lln_phy::{Medium, PhyConfig, RadioIdx};
use lln_sim::{Duration, EventQueue, Instant, Rng};
use lln_sixlowpan::iphc;
use tcplp::{MemClass, NodeBudget, TcpConfig, TcpSocket};

/// CoAP's registered port.
pub const COAP_PORT: u16 = 5683;
/// The cloud TCP service port.
pub const TCP_PORT: u16 = 80;

/// One-way wired latency border↔cloud (paper: ~12 ms RTT, DESIGN.md §5).
pub const WIRED_LATENCY: Duration = Duration::from_millis(6);
/// CPU time charged per MAC frame handled, tx or rx (DESIGN.md §5 energy).
pub const CPU_PER_FRAME: Duration = Duration::from_micros(800);
/// CPU time charged per transport segment or message processed.
pub const CPU_PER_SEGMENT: Duration = Duration::from_micros(600);
/// Listen window after a data-request poll: §9.2's 100 ms (DESIGN.md §5).
pub const POLL_WINDOW: Duration = Duration::from_millis(100);

/// World-level configuration.
#[derive(Clone, Debug)]
pub struct WorldConfig {
    /// PHY timing.
    pub phy: PhyConfig,
    /// MAC parameters, shared by every node.
    pub mac: MacConfig,
    /// RNG seed.
    pub seed: u64,
    /// Per-node memory budget (TCP buffers, SYN cache, reassembly,
    /// queues). Applied to every node at world construction.
    pub budget: NodeBudget,
}

impl Default for WorldConfig {
    fn default() -> Self {
        WorldConfig {
            phy: PhyConfig::default(),
            mac: MacConfig::default(),
            seed: 0x5eed,
            budget: NodeBudget::default(),
        }
    }
}

/// Events in the world. Node events carry their node first. Each
/// variant's doc ends with the module that handles it.
///
/// The variant order sets the discriminants, and the dispatch loop is
/// sensitive to it: grouping the variants by module instead measured
/// about 10 % slower on `bulk-1hop` (perfbench `sim_speed`, 2-vCPU
/// x86-64), with every simulated outcome the same.
pub enum Event {
    /// CSMA backoff and the CCA measurement after it are over: query
    /// the medium. (`mac.rs`)
    CcaDone(usize),
    /// Platform (SPI) transfer done: frame goes on the air. (`mac.rs`)
    SpiDone(usize),
    /// Frame air time over: resolve deliveries. (`mac.rs`)
    AirDone(usize),
    /// Link ACK wait expired. (`mac.rs`)
    AckTimeout(usize),
    /// Receiver turnaround done: link ACK (sequence number, pending
    /// bit) goes on the air. (`mac.rs`)
    LinkAckStart(usize, u8, bool),
    /// Link ACK air time over. (`mac.rs`)
    LinkAckDone(usize),
    /// A transport timer may have expired. (`transport.rs`)
    TransportTimer(usize),
    /// Sleepy leaf wakes to poll its parent. (`mac.rs`)
    PollWake(usize),
    /// Sleepy leaf's post-poll listen window expired. (`mac.rs`)
    PollWindowEnd(usize),
    /// Application tick (reading generation, bulk start...). (`transport.rs`)
    AppTick(usize),
    /// Wired packet arrives at node (border or cloud). (`net.rs`)
    WiredDeliver(usize, Ipv6Header, Vec<u8>),
    /// Adversary-delayed (reordered/duplicated/forged) TCP bytes reach
    /// the node's transport input. Bypasses the adversary on arrival so
    /// mangled traffic is never re-mangled. (`transport.rs`)
    AdversaryDeliver(usize, Ipv6Header, Vec<u8>),
    /// Interferer begins a burst. (`mac.rs`)
    InterfererStart(usize),
    /// Interferer burst ends. (`mac.rs`)
    InterfererEnd(usize),
    /// A fault of the plan takes effect (see [`World::apply_fault_plan`]). (`inject.rs`)
    Fault(FaultEvent),
    /// A fault's span is over: the node boots, the link comes back, the
    /// bit-error burst ends. (`inject.rs`)
    FaultEnd(FaultEvent),
    /// Flooder tick: the attacker injects forged traffic at the node. (`inject.rs`)
    FloodTick(usize),
}

/// The simulation world.
pub struct World {
    /// Configuration.
    pub cfg: WorldConfig,
    /// Event queue.
    pub queue: EventQueue<Event>,
    /// Shared radio medium.
    pub medium: Medium,
    /// Nodes, indexed by radio index (== NodeId value).
    pub nodes: Vec<Node>,
    /// World RNG.
    pub rng: Rng,
    /// Border router index (wired hub), if any.
    pub border: Option<usize>,
    /// Cloud host index, if any.
    pub cloud: Option<usize>,
    /// Per node: the link ACK it has on the air (handle, frame, start).
    ack_handles: Vec<Option<(TxHandle, MacFrame, Instant)>>,
    /// Per node: the interference burst it has on the air.
    interferer_handles: Vec<Option<(TxHandle, Instant)>>,
    /// Recycles frame-buffer allocations across transmissions.
    pub pool: FramePool,
    /// Recycles packet-byte buffers across every node (see [`BufPool`]).
    seg_bufs: BufPool,
    /// Optional tcpdump-style event log (see [`crate::trace`]).
    pub trace: crate::trace::PacketTrace,
    /// Scratch: radios listening to the frame being resolved.
    listeners: Vec<RadioIdx>,
    /// Scratch: per-listener delivery outcomes of that frame.
    outcomes: Vec<(RadioIdx, bool)>,
    /// Scratch: packets a transport pump emits, before IP queueing.
    pumped: Vec<(Ipv6Header, Vec<u8>)>,
    /// What the injectors keep between events (see `inject.rs`).
    inject: inject::InjectState,
    /// Events popped and dispatched so far (see [`World::events`]).
    events: u64,
}

impl World {
    /// Builds a world over `topology`, with per-node kinds.
    pub fn new(topology: &Topology, kinds: &[NodeKind], cfg: WorldConfig) -> Self {
        assert_eq!(topology.links.len(), kinds.len());
        let mut rng = Rng::new(cfg.seed);
        let medium = Medium::new(topology.links.clone(), rng.fork(0xAA));
        let now = Instant::ZERO;
        let mut nodes: Vec<Node> = kinds
            .iter()
            .enumerate()
            .map(|(i, &k)| {
                let mut node = Node::new(NodeId(i as u16), k, cfg.budget.clone(), now);
                node.routes = topology.routes[i].clone();
                node
            })
            .collect();
        let border = kinds.iter().rposition(|&k| k == NodeKind::BorderRouter);
        let cloud = kinds.iter().rposition(|&k| k == NodeKind::CloudHost);
        // Register sleepy children with their parents, and point leaves'
        // default routes at their parent. Without a border router the
        // parent is the route toward node 0 (single-hop experiments).
        let anchor = border.unwrap_or(0);
        for i in 0..nodes.len() {
            if nodes[i].kind == NodeKind::SleepyLeaf && i != anchor {
                if let Some(parent) = nodes[i].routes.lookup(NodeId(anchor as u16)) {
                    nodes[i].routes.default_route = Some(parent);
                    nodes[parent.0 as usize]
                        .sleepy_children
                        .insert(NodeId(i as u16));
                    nodes[i].poll = Some(lln_mac::poll::PollScheduler::new(
                        lln_mac::poll::PollMode::paper_fixed(),
                    ));
                }
            }
        }
        // Default routes for everyone toward the border (for the cloud
        // prefix).
        if let Some(b) = border {
            for (i, node) in nodes.iter_mut().enumerate() {
                if i != b && node.kind != NodeKind::CloudHost {
                    let via = node.routes.lookup(NodeId(b as u16));
                    if node.routes.default_route.is_none() {
                        node.routes.default_route = via;
                    }
                }
            }
        }
        let mut world = World {
            cfg,
            queue: EventQueue::new(),
            medium,
            nodes,
            rng,
            border,
            cloud,
            ack_handles: vec![None; kinds.len()],
            interferer_handles: vec![None; kinds.len()],
            pool: FramePool::default(),
            seg_bufs: BufPool::default(),
            trace: crate::trace::PacketTrace::new(),
            listeners: Vec::new(),
            outcomes: Vec::new(),
            pumped: Vec::new(),
            inject: inject::InjectState::default(),
            events: 0,
        };
        // Sleepy leaves begin their poll schedule immediately (spread
        // out to avoid synchronised polls).
        for i in 0..world.nodes.len() {
            if world.nodes[i].kind == NodeKind::SleepyLeaf {
                let jitter = Duration::from_millis(50 + 37 * i as u64);
                let tok = world
                    .queue
                    .schedule(Instant::ZERO + jitter, Event::PollWake(i));
                world.nodes[i].poll_timer = Some(tok);
            }
        }
        world
    }

    /// Current simulated time.
    pub fn now(&self) -> Instant {
        self.queue.now()
    }

    /// Events dispatched since the world was built. A cost count, not an
    /// outcome: it is exact for a seed, and no digest includes it.
    pub fn events(&self) -> u64 {
        self.events
    }

    /// Enables the packet trace (bounded at `capacity` entries).
    pub fn enable_trace(&mut self, capacity: usize) {
        self.trace.enable(capacity);
    }

    // ------------------------------------------------------------------
    // Experiment setup helpers (the injectors' are in `inject.rs`)
    // ------------------------------------------------------------------

    /// Installs a TCPlp listener on `server` (port 80). The SYN cache
    /// is sized from the node's memory budget.
    pub fn add_tcp_listener(&mut self, server: usize, cfg: TcpConfig) {
        let n = &mut self.nodes[server];
        let addr = n.ip_addr();
        n.transport.tcp_listener = Some(tcplp::ListenSocket::new(cfg, addr, TCP_PORT, &n.budget));
    }

    /// Creates a TCPlp client socket on `client` targeting `server`,
    /// connecting at `at`. Returns the index of the socket in the
    /// node's `transport.tcp` vector.
    pub fn add_tcp_client(
        &mut self,
        client: usize,
        server: usize,
        cfg: TcpConfig,
        at: Instant,
    ) -> usize {
        let caddr = self.nodes[client].ip_addr();
        let saddr = self.nodes[server].ip_addr();
        let port = 49152 + self.nodes[client].transport.tcp.len() as u16;
        let mut sock = TcpSocket::new(cfg, caddr, port);
        let iss = self.rng.next_u64() as u32;
        sock.connect(saddr, TCP_PORT, iss, at);
        self.nodes[client].transport.tcp.push(sock);
        let idx = self.nodes[client].transport.tcp.len() - 1;
        self.queue.schedule(at, Event::TransportTimer(client));
        idx
    }

    /// Creates a uIP-class client socket on `client` targeting the
    /// TCPlp listener on `server` (Table 7's baseline stacks).
    pub fn add_uip_client(
        &mut self,
        client: usize,
        server: usize,
        cfg: lln_uip::UipConfig,
        at: Instant,
    ) {
        let caddr = self.nodes[client].ip_addr();
        let saddr = self.nodes[server].ip_addr();
        let mut sock = lln_uip::UipSocket::new(cfg, caddr, 49152);
        let iss = self.rng.next_u64() as u32;
        sock.connect(saddr, TCP_PORT, iss, at);
        self.nodes[client].transport.uip = Some(sock);
        self.queue.schedule(at, Event::TransportTimer(client));
    }

    /// Overrides a sleepy leaf's poll schedule (Appendix C sweeps).
    pub fn set_poll_mode(&mut self, node: usize, mode: lln_mac::poll::PollMode) {
        self.nodes[node].poll = Some(lln_mac::poll::PollScheduler::new(mode));
    }

    /// Kicks a sleepy leaf's polling off at `at` (used when a custom
    /// poll mode should start polling immediately rather than waiting
    /// out the default idle interval).
    pub fn schedule_poll(&mut self, node: usize, at: Instant) {
        if let Some(tok) = self.nodes[node].poll_timer.take() {
            self.queue.cancel(tok);
        }
        let tok = self.queue.schedule(at, Event::PollWake(node));
        self.nodes[node].poll_timer = Some(tok);
    }

    /// Configures `node` as a bulk sender over its first TCP socket.
    pub fn set_bulk_sender(&mut self, node: usize, limit: Option<u64>) {
        self.nodes[node].app = App::BulkSender {
            limit,
            sent: 0,
            pattern: 0,
        };
    }

    /// Configures `node` as a sink (drains all sockets).
    pub fn set_sink(&mut self, node: usize) {
        self.nodes[node].app = App::Sink {
            received: 0,
            first_byte: None,
            last_byte: None,
            capture: None,
        };
    }

    /// Configures `node` as a sink that additionally keeps every
    /// received byte, per connection, for integrity checks (chaos
    /// suite).
    pub fn set_sink_capture(&mut self, node: usize) {
        self.set_sink(node);
        if let App::Sink { capture, .. } = &mut self.nodes[node].app {
            *capture = Some(Vec::new());
        }
    }

    /// Installs a supervised (auto-reconnecting, record-replaying) TCP
    /// client on `client` targeting the listener on `server`; the first
    /// connect is issued at `at`. See [`crate::supervisor`].
    pub fn add_supervised_client(
        &mut self,
        client: usize,
        server: usize,
        cfg: SupervisorConfig,
        at: Instant,
    ) {
        let caddr = self.nodes[client].ip_addr();
        let saddr = self.nodes[server].ip_addr();
        // A fresh ephemeral-port range per client: each reconnect uses
        // the next port so connections are distinguishable server-side.
        let base_port = 49152 + 128 * client as u16;
        let rng = self.rng.fork(0x50F0 + client as u64);
        self.nodes[client].supervisor = Some(SupervisedConnection::new(
            cfg, caddr, saddr, TCP_PORT, base_port, at, rng,
        ));
        self.queue.schedule(at, Event::TransportTimer(client));
    }

    /// The supervisor's counters on `node`, if it runs one.
    pub fn supervisor_stats(&self, node: usize) -> Option<SupervisorStats> {
        self.nodes[node].supervisor.as_ref().map(|s| *s.stats())
    }

    /// Configures the anemometer app on `node`, readings starting at
    /// `start`.
    pub fn set_anemometer(
        &mut self,
        node: usize,
        queue_capacity: usize,
        batch: Option<usize>,
        start: Instant,
    ) {
        self.nodes[node].app = App::Anemometer(AnemometerApp::new(
            Duration::from_secs(1),
            queue_capacity,
            batch,
        ));
        self.queue.schedule(start, Event::AppTick(node));
    }

    /// Installs a CoAP client on `node` posting toward the cloud.
    pub fn add_coap_client(&mut self, node: usize, client: CoapClient) {
        self.nodes[node].transport.coap_client = Some(client);
    }

    /// Installs the CoAP server on `node` (usually the cloud host).
    pub fn add_coap_server(&mut self, node: usize) {
        self.nodes[node].transport.coap_server = Some(CoapServer::new());
    }

    /// Starts an interferer node's schedule.
    pub fn start_interferer(&mut self, node: usize, app: InterfererApp, at: Instant) {
        self.nodes[node].app = App::Interferer(app);
        self.queue.schedule(at, Event::InterfererStart(node));
    }

    /// Sets the injected forwarding loss at a node (§9.4: the border).
    pub fn set_injected_loss(&mut self, node: usize, p: f64) {
        self.nodes[node].inject_loss = p;
    }

    /// Read access to node `i`'s memory governor (tests, benches).
    pub fn governor(&self, i: usize) -> &tcplp::MemGovernor {
        &self.nodes[i].governor
    }

    /// Asserts every node's transient memory classes have drained to
    /// zero and no class ever exceeded its cap. Call after a run whose
    /// traffic has fully quiesced (bulk transfers done, floods over,
    /// timers past). Leaks in the SYN cache, reassembly slots, or
    /// queues show up here as a non-zero gauge.
    pub fn assert_governor_drained(&mut self) {
        let now = self.now();
        for i in 0..self.nodes.len() {
            self.nodes[i]
                .reassembler
                .reclaim(now + Duration::from_secs(60));
            self.nodes[i].sync_governor();
            let n = &self.nodes[i];
            for class in [
                MemClass::SynCache,
                MemClass::Reassembly,
                MemClass::IpQueue,
                MemClass::MacQueue,
            ] {
                assert_eq!(
                    n.governor.gauge(class),
                    0,
                    "node {i}: {class:?} leaked {} bytes after quiesce",
                    n.governor.gauge(class)
                );
            }
            self.assert_node_bounded(i);
        }
    }

    /// Asserts every node's accounted memory stayed within its per-class
    /// caps and the total budget. Safe to call mid-run (continuous
    /// applications never fully drain).
    pub fn assert_governor_bounded(&mut self) {
        for i in 0..self.nodes.len() {
            self.nodes[i].sync_governor();
            self.assert_node_bounded(i);
        }
    }

    fn assert_node_bounded(&self, i: usize) {
        let n = &self.nodes[i];
        for class in MemClass::ALL {
            assert!(
                n.governor.high_water(class) <= n.budget.cap(class) as u64,
                "node {i}: {class:?} high-water {} exceeds cap {}",
                n.governor.high_water(class),
                n.budget.cap(class)
            );
        }
        assert!(
            n.governor.total_high_water() <= n.budget.total as u64,
            "node {i}: total high-water {} exceeds budget {}",
            n.governor.total_high_water(),
            n.budget.total
        );
    }

    // ------------------------------------------------------------------
    // Main loop
    // ------------------------------------------------------------------

    /// Runs until `deadline`.
    pub fn run_until(&mut self, deadline: Instant) {
        while let Some(t) = self.queue.peek_time() {
            if t > deadline {
                break;
            }
            let (now, ev) = self.queue.pop().expect("peeked");
            self.events += 1;
            self.dispatch(now, ev);
        }
    }

    /// Runs for `span` from the current time.
    pub fn run_for(&mut self, span: Duration) {
        let deadline = self.now() + span;
        self.run_until(deadline);
    }

    /// Runs one event.
    fn dispatch(&mut self, now: Instant, mut ev: Event) {
        if self.guard_down_node(&mut ev, now) {
            return;
        }
        match ev {
            Event::CcaDone(i) => self.on_cca_done(i, now),
            Event::SpiDone(i) => self.on_spi_done(i, now),
            Event::AirDone(i) => self.on_air_done(i, now),
            Event::AckTimeout(i) => self.on_ack_timeout(i, now),
            Event::LinkAckStart(i, seq, pending) => self.on_link_ack_start(i, seq, pending, now),
            Event::LinkAckDone(i) => self.on_link_ack_done(i, now),
            Event::TransportTimer(i) => {
                self.nodes[i].transport_timer = None;
                self.pump_transport(i, now);
            }
            Event::PollWake(i) => self.on_poll_wake(i, now),
            Event::PollWindowEnd(i) => self.on_poll_window_end(i, now),
            Event::AppTick(i) => self.on_app_tick(i, now),
            Event::WiredDeliver(i, hdr, payload) => {
                self.handle_ip(i, hdr, iphc::Payload::Owned(payload), now);
            }
            Event::AdversaryDeliver(i, hdr, payload) => {
                self.deliver_transport(i, hdr, &payload, true, now);
                self.seg_bufs.put(payload);
            }
            Event::InterfererStart(i) => self.on_interferer_start(i, now),
            Event::InterfererEnd(i) => self.on_interferer_end(i, now),
            Event::Fault(f) => {
                if let Some(span) = self.start_fault(f, now) {
                    self.queue.schedule(now + span, Event::FaultEnd(f));
                }
            }
            Event::FaultEnd(f) => self.end_fault(f, now),
            Event::FloodTick(i) => self.on_flood_tick(i, now),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::Event;

    #[test]
    #[cfg(target_pointer_width = "64")]
    fn event_stays_within_its_queue_payload() {
        // Every queue insert and pop moves one `Event`: a variant
        // must not grow it past 80 B.
        assert!(std::mem::size_of::<Event>() <= 80);
    }
}
