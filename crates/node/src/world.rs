//! The discrete-event world: one radio medium, N full-stack nodes, a
//! wired border↔cloud link, interferers, and the event loop.
//!
//! Every paper experiment is a `World` configured with a topology,
//! per-node roles/transports/apps, and a simulated duration. The event
//! loop is strictly deterministic: one seeded RNG, tie-broken event
//! ordering, no wall clock.

use crate::app::{AnemometerApp, App, InterfererApp, READING_BYTES};
use crate::fault::{FaultEvent, FaultPlan};
use crate::route::Topology;
use crate::stack::{BufPool, CurrentTx, Node, NodeCounter, NodeKind, OutPacket, TransportKind};
use crate::supervisor::{SupervisedConnection, SupervisorConfig, SupervisorStats};
use lln_coap::{CoapClient, CoapServer};
use lln_energy::RadioState;
use lln_mac::csma::{MacConfig, TxProcess, TxStep};
use lln_mac::frame::{FrameType, MacFrame, MAX_MAC_PAYLOAD};
use lln_mac::pool::FramePool;
use lln_netip::{Ecn, Ipv6Addr, Ipv6Header, NextHeader, NodeId, UdpHeader};
use lln_phy::medium::TxHandle;
use lln_phy::{Medium, PhyConfig, RadioIdx};
use lln_sim::{Duration, EventQueue, Instant, Rng};
use lln_sixlowpan::{fragment, iphc};
use tcplp::{ListenerResponse, MemClass, NodeBudget, Segment, TcpConfig, TcpSocket};

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
    /// Default MAC parameters (per-node copies may be adjusted).
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

/// Where a node sends a packet (see `World::route`).
#[derive(Clone, Copy)]
enum Hop {
    /// Over the wired link to this node, if one is attached.
    Wired(Option<usize>),
    /// Into a sleepy child's indirect queue.
    Indirect(NodeId),
    /// Into the IP queue, toward this radio neighbour.
    Radio(NodeId),
}

/// Events in the world.
pub enum Event {
    /// CSMA backoff and the CCA measurement after it are over: query
    /// the medium.
    CcaDone(usize),
    /// Platform (SPI) transfer done: frame goes on the air.
    SpiDone(usize),
    /// Frame air time over: resolve deliveries.
    AirDone(usize),
    /// Link ACK wait expired.
    AckTimeout(usize),
    /// Receiver turnaround done: link ACK goes on the air.
    LinkAckStart(usize, u8, bool),
    /// Link ACK air time over.
    LinkAckDone(usize),
    /// A transport timer may have expired.
    TransportTimer(usize),
    /// Sleepy leaf wakes to poll its parent.
    PollWake(usize),
    /// Sleepy leaf's post-poll listen window expired.
    PollWindowEnd(usize),
    /// Application tick (reading generation, bulk start...).
    AppTick(usize),
    /// Wired packet arrives at node (border or cloud).
    WiredDeliver(usize, Ipv6Header, Vec<u8>),
    /// Adversary-delayed (reordered/duplicated/forged) TCP bytes reach
    /// the node's transport input. Bypasses the adversary on arrival so
    /// mangled traffic is never re-mangled.
    AdversaryDeliver(usize, Ipv6Header, Vec<u8>),
    /// Interferer begins a burst.
    InterfererStart(usize),
    /// Interferer burst ends.
    InterfererEnd(usize),
    /// A fault of the plan takes effect (see [`World::apply_fault_plan`]).
    Fault(FaultEvent),
    /// A fault's span is over: the node boots, the link comes back, the
    /// bit-error burst ends.
    FaultEnd(FaultEvent),
    /// Flooder tick: the attacker injects forged traffic at the node.
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
    /// Blackouts in force, one entry each: the (low, high) edge and
    /// its PRRs (low→high, high→low) from before the first that overlaps.
    blackouts: Vec<((usize, usize), (f64, f64))>,
    /// Bit-error bursts in force, as (node, BER).
    ber_bursts: Vec<(usize, f64)>,
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
                Node::new(
                    NodeId(i as u16),
                    k,
                    cfg.mac.clone(),
                    cfg.budget.clone(),
                    now,
                )
            })
            .collect();
        let mut border = None;
        let mut cloud = None;
        for (i, node) in nodes.iter_mut().enumerate() {
            node.routes = topology.routes[i].clone();
            match node.kind {
                NodeKind::BorderRouter => border = Some(i),
                NodeKind::CloudHost => cloud = Some(i),
                _ => {}
            }
        }
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
            blackouts: Vec::new(),
            ber_bursts: Vec::new(),
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
    // Experiment setup helpers
    // ------------------------------------------------------------------

    /// Installs a TCPlp listener on `server` (port 80). The SYN cache
    /// is sized from the node's memory budget.
    pub fn add_tcp_listener(&mut self, server: usize, cfg: TcpConfig) {
        let n = &mut self.nodes[server];
        let addr = n.ip_addr();
        n.transport.tcp_listener = Some(tcplp::ListenSocket::new(cfg, addr, TCP_PORT, &n.budget));
        n.transport_kind = TransportKind::Tcplp;
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
        self.nodes[client].transport_kind = TransportKind::Tcplp;
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
        self.nodes[client].transport_kind = TransportKind::Uip;
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
        self.nodes[node].app = App::Sink {
            received: 0,
            first_byte: None,
            last_byte: None,
            capture: Some(Vec::new()),
        };
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
        self.nodes[client].transport_kind = TransportKind::Tcplp;
        self.queue.schedule(at, Event::TransportTimer(client));
    }

    /// The supervisor's counters on `node`, if it runs one.
    pub fn supervisor_stats(&self, node: usize) -> Option<SupervisorStats> {
        self.nodes[node].supervisor.as_ref().map(|s| *s.stats())
    }

    /// Schedules every event of `plan` on the sim event queue. Events
    /// execute in deterministic order with everything else, so a run
    /// with a fixed seed and a fixed plan replays bit-identically.
    pub fn apply_fault_plan(&mut self, plan: &FaultPlan) {
        for &ev in plan.events() {
            self.queue.schedule(ev.at(), Event::Fault(ev));
        }
    }

    /// Interposes an adversary on `node`'s inbound TCP path (torture
    /// suite). The adversary gets its own RNG stream forked from the
    /// world seed, so a fixed seed replays bit-identically.
    pub fn attach_adversary(&mut self, node: usize, profile: crate::adversary::AdversaryProfile) {
        let rng = self.rng.fork(0xADF0 + node as u64);
        self.nodes[node].adversary = Some(crate::adversary::Adversary::new(profile, rng));
    }

    /// The adversary's counters on `node`, if one is attached.
    pub fn adversary_stats(&self, node: usize) -> Option<crate::adversary::AdversaryStats> {
        self.nodes[node].adversary.as_ref().map(|a| a.stats)
    }

    /// Attaches a resource-exhaustion flooder to `node` (overload
    /// suite). Forged traffic lands directly at the victim's transport
    /// and adaptation inputs, modelling an attacker one hop upstream.
    /// The flooder gets its own forked RNG stream, so a fixed seed
    /// replays the attack bit-identically.
    pub fn attach_flood(&mut self, node: usize, cfg: crate::flood::FloodConfig) {
        let rng = self.rng.fork(0xF100_0D00 + node as u64);
        let start = cfg.start;
        self.nodes[node].flooder = Some(crate::flood::Flooder::new(cfg, rng));
        self.queue.schedule(start, Event::FloodTick(node));
    }

    /// The flooder's counters on `node`, if one is attached.
    pub fn flood_stats(&self, node: usize) -> Option<crate::flood::FloodStats> {
        self.nodes[node].flooder.as_ref().map(|f| f.stats)
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
        self.nodes[node].transport_kind = TransportKind::Coap;
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
                self.nodes[i].meter.add_cpu(CPU_PER_SEGMENT);
                self.deliver_mangled_tcp(i, &hdr, &payload, now);
                self.seg_bufs.put(payload);
                self.pump_transport(i, now);
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

    /// Swallows events addressed to a powered-off node, preserving the
    /// medium invariant (every `begin_tx` is matched by one `end_tx`)
    /// for transmissions the reboot cut mid-air, and handing a swallowed
    /// packet's bytes back to the pool. Returns true when the event was
    /// consumed.
    fn guard_down_node(&mut self, ev: &mut Event, now: Instant) -> bool {
        let i = match ev {
            // These act on a down node: a fault and its end (the end of
            // a reboot is the boot), and the flooder, which keeps
            // ticking so the attack resumes after the boot.
            Event::Fault(_) | Event::FaultEnd(_) | Event::FloodTick(_) => return false,
            Event::CcaDone(i)
            | Event::SpiDone(i)
            | Event::AckTimeout(i)
            | Event::TransportTimer(i)
            | Event::PollWake(i)
            | Event::PollWindowEnd(i)
            | Event::AppTick(i)
            | Event::AirDone(i)
            | Event::LinkAckDone(i)
            | Event::LinkAckStart(i, _, _)
            | Event::WiredDeliver(i, _, _)
            | Event::AdversaryDeliver(i, _, _)
            | Event::InterfererStart(i)
            | Event::InterfererEnd(i) => *i,
        };
        if !self.nodes[i].down {
            return false;
        }
        match ev {
            Event::AppTick(_) => {
                // The sensing schedule resumes after boot; readings
                // that would have been taken while down are lost at
                // the source (the mote was off).
                if let App::Anemometer(app) = &self.nodes[i].app {
                    let iv = app.interval;
                    self.queue.schedule(now + iv, Event::AppTick(i));
                }
            }
            Event::WiredDeliver(_, _, payload) | Event::AdversaryDeliver(_, _, payload) => {
                self.nodes[i].counters.inc(NodeCounter::DownDrops);
                self.seg_bufs.put(std::mem::take(payload));
            }
            Event::AirDone(_) => {
                // Our own frame was mid-air when the power died: the
                // transmission is cut, nobody decodes it, but the
                // medium record must still close.
                if let Some(tx) = self.nodes[i].cur_tx.take() {
                    if let Some(handle) = tx.handle {
                        self.medium.end_tx(handle, &[]);
                    }
                    if let Some(tok) = tx.timer {
                        self.queue.cancel(tok);
                    }
                    self.pool.reclaim(tx.frame);
                }
            }
            Event::LinkAckDone(_) => {
                if let Some((handle, _, _)) = self.ack_handles[i].take() {
                    self.medium.end_tx(handle, &[]);
                }
            }
            Event::InterfererEnd(_) => {
                if let Some((handle, _)) = self.interferer_handles[i].take() {
                    self.medium.end_tx(handle, &[]);
                }
            }
            // The rest hold nothing: they die with the power.
            Event::CcaDone(_)
            | Event::SpiDone(_)
            | Event::AckTimeout(_)
            | Event::TransportTimer(_)
            | Event::PollWake(_)
            | Event::PollWindowEnd(_)
            | Event::LinkAckStart(..)
            | Event::InterfererStart(_)
            | Event::Fault(_)
            | Event::FaultEnd(_)
            | Event::FloodTick(_) => {}
        }
        true
    }

    // ------------------------------------------------------------------
    // Fault injection
    // ------------------------------------------------------------------

    /// Puts fault `f` into effect. Returns its span when its end must be
    /// scheduled: not for a route flap, which has none, nor for a reboot
    /// of a node that is already down.
    fn start_fault(&mut self, f: FaultEvent, now: Instant) -> Option<Duration> {
        match f {
            FaultEvent::NodeReboot { node, down_for, .. } => {
                if self.nodes[node].down {
                    return None;
                }
                self.power_down(node, down_for, now);
                Some(down_for)
            }
            FaultEvent::LinkBlackout { a, b, duration, .. } => {
                // The edge's PRRs from before the first blackout in force
                // are saved, to come back when the last one ends.
                let edge = (a.min(b), a.max(b));
                let (lo, hi) = (RadioIdx(edge.0), RadioIdx(edge.1));
                let links = self.medium.links();
                let saved = match self.blackouts.iter().find(|x| x.0 == edge) {
                    Some(&(_, saved)) => saved,
                    None => (links.prr(lo, hi), links.prr(hi, lo)),
                };
                self.blackouts.push((edge, saved));
                // PRR to zero but still audible: energy on the channel remains
                // detectable (CCA, collisions) — only reception dies.
                self.medium.links_mut().set_symmetric(lo, hi, 0.0);
                self.nodes[a].counters.inc(NodeCounter::LinkBlackouts);
                Some(duration)
            }
            FaultEvent::RouteFlap { node, .. } => {
                self.flap_route(node, now);
                None
            }
            FaultEvent::BitErrorBurst {
                node,
                ber,
                duration,
                ..
            } => {
                self.ber_bursts.push((node, ber));
                self.refresh_ber(node);
                self.nodes[node].counters.inc(NodeCounter::BerBursts);
                Some(duration)
            }
        }
    }

    /// Ends fault `f` when its span is over.
    fn end_fault(&mut self, f: FaultEvent, now: Instant) {
        match f {
            FaultEvent::NodeReboot { node, .. } => self.power_up(node, now),
            FaultEvent::LinkBlackout { a, b, .. } => {
                let edge = (a.min(b), a.max(b));
                let k = self.blackouts.iter().position(|x| x.0 == edge);
                let (_, (up, down)) = self
                    .blackouts
                    .swap_remove(k.expect("blackout end without start"));
                if self.blackouts.iter().all(|x| x.0 != edge) {
                    let (lo, hi) = (RadioIdx(edge.0), RadioIdx(edge.1));
                    self.medium.links_mut().set_link(lo, hi, up);
                    self.medium.links_mut().set_link(hi, lo, down);
                }
            }
            FaultEvent::BitErrorBurst { node, ber, .. } => {
                let k = self.ber_bursts.iter().position(|&x| x == (node, ber));
                self.ber_bursts
                    .swap_remove(k.expect("burst end without start"));
                self.refresh_ber(node);
            }
            FaultEvent::RouteFlap { .. } => unreachable!("a route flap has no span"),
        }
    }

    /// Powers node `i` off: everything volatile is lost.
    fn power_down(&mut self, i: usize, down_for: Duration, now: Instant) {
        // A frame already on the air is cut but its medium record stays
        // open until the scheduled AirDone performs cleanup (see
        // `guard_down_node`); anything earlier in the tx pipeline is
        // dropped right now.
        let mid_air = self.nodes[i]
            .cur_tx
            .as_ref()
            .is_some_and(|t| t.handle.is_some());
        if !mid_air {
            if let Some(tx) = self.nodes[i].cur_tx.take() {
                if let Some(tok) = tx.timer {
                    self.queue.cancel(tok);
                }
                self.pool.reclaim(tx.frame);
            }
        }
        let tokens: Vec<_> = {
            let n = &mut self.nodes[i];
            [
                n.poll_timer.take(),
                n.poll_window.take(),
                n.transport_timer.take(),
            ]
            .into_iter()
            .flatten()
            .collect()
        };
        for tok in tokens {
            self.queue.cancel(tok);
        }
        {
            let n = &mut self.nodes[i];
            n.down = true;
            n.counters.inc(NodeCounter::Reboots);
            n.transmitting = false;
            n.awake = false;
            // Volatile state dies with the power (its buffers go back
            // to the world's pools)...
            while let Some(f) = n.ctrl_queue.pop() {
                self.pool.reclaim(f);
            }
            for f in n.cur_packet_frames.drain(..) {
                self.pool.reclaim(f);
            }
            while let Some(pkt) = n.ip_queue.pop() {
                self.seg_bufs.put(pkt.payload);
            }
            for (_, mut q) in n.indirect.drain() {
                while let Some(pkt) = q.pop() {
                    self.seg_bufs.put(pkt.payload);
                }
            }
            n.reassembler.clear();
            n.last_rx_seq.clear();
            n.polling = false;
            n.poll_got_frame = false;
            n.transport.tcp.clear();
            n.transport.uip = None;
            // ...but the battery does not: the meter keeps integrating,
            // with the radio accounted as asleep while down.
            n.meter.set_radio_state(RadioState::Sleep, now);
        }
        self.nodes[i].sync_governor();
        if self.trace.is_enabled() {
            self.trace.record(
                now,
                self.nodes[i].id,
                crate::trace::TraceDir::Drop,
                format!("fault: reboot (down {down_for})"),
            );
        }
    }

    /// Cold-boots node `i` after a reboot.
    fn power_up(&mut self, i: usize, now: Instant) {
        if !self.nodes[i].down {
            return;
        }
        let kind = self.nodes[i].kind;
        {
            let n = &mut self.nodes[i];
            n.down = false;
            n.counters.inc(NodeCounter::Boots);
            n.listen_since = now;
        }
        match kind {
            NodeKind::SleepyLeaf => {
                // Cold boot: the leaf stays asleep and re-joins its
                // poll schedule after a deterministic boot delay.
                let boot = Duration::from_millis(50 + 37 * i as u64);
                let tok = self.queue.schedule(now + boot, Event::PollWake(i));
                self.nodes[i].poll_timer = Some(tok);
            }
            NodeKind::CloudHost | NodeKind::Interferer => {}
            _ => {
                self.nodes[i].awake = true;
                self.nodes[i].meter.set_radio_state(RadioState::Rx, now);
            }
        }
        // Restart the transport layer: the supervisor (its record queue
        // survives in "flash") notices its socket vanished and begins
        // reconnecting.
        self.queue.schedule(now, Event::TransportTimer(i));
    }

    /// Makes node `i` reselect its routing parent.
    fn flap_route(&mut self, i: usize, now: Instant) {
        self.nodes[i].counters.inc(NodeCounter::RouteFlaps);
        let anchor = self.border.unwrap_or(0);
        if i == anchor {
            return;
        }
        let old_parent = self.nodes[i]
            .routes
            .default_route
            .or_else(|| self.nodes[i].routes.lookup(NodeId(anchor as u16)));
        let Some(old_parent) = old_parent else {
            return;
        };
        // Recompute this node's routes with the current-parent edge
        // excluded, as a routing protocol reacting to link churn would.
        // If no alternative parent reaches the anchor, keep the old
        // routes (the flap is transient; counted but harmless). The
        // matrix is borrowed and only this node's table is recomputed —
        // no clone of either.
        let mut new_rt =
            Topology::single_source(self.medium.links(), i, Some((i, old_parent.0 as usize)));
        let Some(new_parent) = new_rt.lookup(NodeId(anchor as u16)) else {
            return;
        };
        new_rt.default_route = Some(new_parent);
        self.nodes[i].routes = new_rt;
        if self.nodes[i].kind == NodeKind::SleepyLeaf {
            let id = self.nodes[i].id;
            self.nodes[old_parent.0 as usize]
                .sleepy_children
                .remove(&id);
            self.nodes[new_parent.0 as usize].sleepy_children.insert(id);
        }
        if self.trace.is_enabled() {
            self.trace.record(
                now,
                self.nodes[i].id,
                crate::trace::TraceDir::Forward,
                format!(
                    "fault: route flap, parent {} -> {}",
                    old_parent.0, new_parent.0
                ),
            );
        }
    }

    /// Sets node `i`'s BER to the highest among its bursts in force,
    /// or clears it when none is left.
    fn refresh_ber(&mut self, i: usize) {
        self.nodes[i].ber = self
            .ber_bursts
            .iter()
            .filter(|&&(n, _)| n == i)
            .map(|&(_, ber)| ber)
            .reduce(f64::max);
    }

    /// Receives `frame` at `rx` during a bit-error burst: the frame is
    /// encoded, each bit flips independently at the node's BER (sampled
    /// by geometric skips from the world RNG), then the bytes go through
    /// the real decoder, whose FCS check rejects nearly all corruption.
    fn ber_decode(&mut self, rx: usize, frame: &MacFrame) -> Option<MacFrame> {
        let ber = self.nodes[rx].ber.unwrap_or(0.0);
        let mut bytes = frame.encode();
        let nbits = (bytes.len() * 8) as u64;
        if ber > 0.0 {
            let mut idx: u64 = 0;
            let mut flipped = false;
            loop {
                let u = self.rng.gen_f64();
                let skip = if ber >= 1.0 {
                    0.0
                } else {
                    (1.0 - u).ln() / (1.0 - ber).ln()
                };
                idx += skip as u64;
                if idx >= nbits {
                    break;
                }
                bytes[(idx / 8) as usize] ^= 1 << (idx % 8);
                flipped = true;
                idx += 1;
            }
            if flipped {
                self.nodes[rx].counters.inc(NodeCounter::BerCorruptedFrames);
            }
        }
        MacFrame::decode(&bytes)
    }

    /// Delivers a received transmission to `rx`, applying bit errors
    /// when a burst is active there.
    fn deliver_with_ber(&mut self, rx: usize, frame: &MacFrame, now: Instant) {
        if self.nodes[rx].ber.is_none() {
            self.deliver_frame(rx, frame, now);
            return;
        }
        match self.ber_decode(rx, frame) {
            Some(f) => self.deliver_frame(rx, &f, now),
            None => {
                self.nodes[rx].counters.inc(NodeCounter::FcsDrops);
                self.trace.record(
                    now,
                    self.nodes[rx].id,
                    crate::trace::TraceDir::Drop,
                    "FCS check failed (bit errors)",
                );
            }
        }
    }

    // ------------------------------------------------------------------
    // MAC engine
    // ------------------------------------------------------------------

    fn wake(&mut self, i: usize, now: Instant) {
        let n = &mut self.nodes[i];
        if !n.awake {
            n.awake = true;
            n.listen_since = now;
            n.meter.set_radio_state(RadioState::Rx, now);
        }
    }

    fn maybe_sleep(&mut self, i: usize, now: Instant) {
        let expecting = self.nodes[i].expecting_response();
        let n = &mut self.nodes[i];
        if n.kind != NodeKind::SleepyLeaf || !n.awake {
            return;
        }
        if n.cur_tx.is_some()
            || !n.ctrl_queue.is_empty()
            || !n.cur_packet_frames.is_empty()
            || !n.ip_queue.is_empty()
            || n.polling
            || n.poll_window.is_some()
        {
            return;
        }
        n.awake = false;
        n.meter.set_radio_state(RadioState::Sleep, now);
        // Schedule the next poll.
        let got = n.poll_got_frame;
        n.poll_got_frame = false;
        if let Some(poll) = n.poll.as_mut() {
            poll.set_expecting_response(expecting);
            let delay = poll.next_delay(got);
            if let Some(tok) = n.poll_timer.take() {
                self.queue.cancel(tok);
            }
            let tok = self.queue.schedule(now + delay, Event::PollWake(i));
            self.nodes[i].poll_timer = Some(tok);
        }
    }

    /// Starts the next MAC transmission if idle.
    fn kick_mac(&mut self, i: usize, now: Instant) {
        if self.nodes[i].kind == NodeKind::CloudHost || self.nodes[i].down {
            return;
        }
        if self.nodes[i].cur_tx.is_some() {
            return;
        }
        // Pick the next frame: control first, then current packet,
        // then fragment the next IP packet.
        let frame = if let Some(f) = self.nodes[i].ctrl_queue.pop() {
            Some(f)
        } else if let Some(f) = self.nodes[i].cur_packet_frames.pop_front() {
            Some(f)
        } else if let Some(pkt) = self.nodes[i].ip_queue.pop() {
            self.frame_packet(i, pkt, None);
            self.nodes[i].counters.inc(NodeCounter::PacketsTx);
            self.nodes[i].cur_packet_frames.pop_front()
        } else {
            None
        };
        let Some(frame) = frame else {
            self.maybe_sleep(i, now);
            return;
        };
        self.wake(i, now);
        let ack_expected = frame.frame().ack_request;
        let process = TxProcess::new(self.nodes[i].mac_cfg.clone(), ack_expected);
        // Load the frame into the radio (SPI + driver cost) BEFORE
        // CSMA: the radio then transmits immediately after a clear CCA,
        // as real 802.15.4 hardware does. Retries re-use the loaded
        // frame and skip this cost.
        let overhead = self.cfg.phy.platform_overhead(frame.mpdu_len());
        self.nodes[i].meter.add_cpu(overhead);
        let tok = self.queue.schedule(now + overhead, Event::SpiDone(i));
        self.nodes[i].cur_tx = Some(CurrentTx {
            frame,
            process,
            handle: None,
            timer: Some(tok),
        });
    }

    /// Compresses `pkt` and frames its 6LoWPAN fragments for
    /// `pkt.next_hop`: onto the current-packet queue when `indirect` is
    /// `None`, or onto the control queue with the given frame-pending
    /// bit (a parent draining a sleepy child's indirect queue).
    ///
    /// Nothing here allocates in steady state: the packet is compressed
    /// in the node's scratch buffer via the per-neighbor IPHC header
    /// cache, each fragment is written into a payload buffer the frame
    /// pool recycles (a frame the control queue refuses goes straight
    /// back to it), and the packet's payload returns to the world's
    /// [`BufPool`] once framed.
    fn frame_packet(&mut self, i: usize, pkt: OutPacket, indirect: Option<bool>) {
        let src_l2 = self.nodes[i].id;
        let dst_l2 = pkt.next_hop;
        let mut compressed = std::mem::take(&mut self.nodes[i].compress_buf);
        self.nodes[i].iphc_cache.compress_into(
            &pkt.hdr,
            src_l2,
            dst_l2,
            &pkt.payload,
            &mut compressed,
        );
        let tag = self.nodes[i].next_tag();
        for frag in fragment(&compressed, tag, MAX_MAC_PAYLOAD) {
            let seq = self.nodes[i].next_seq();
            let mut payload = self.pool.payload_buf();
            frag.write_into(&mut payload);
            let mut f = MacFrame::data(src_l2, dst_l2, seq, payload);
            f.pending = indirect == Some(true);
            let buf = self.pool.alloc(f);
            if indirect.is_some() {
                if let Err(buf) = self.nodes[i].enqueue_ctrl(buf) {
                    self.pool.reclaim(buf);
                }
            } else {
                self.nodes[i].cur_packet_frames.push_back(buf);
            }
        }
        self.nodes[i].compress_buf = compressed;
        self.seg_bufs.put(pkt.payload);
    }

    fn handle_step(&mut self, i: usize, step: TxStep, now: Instant) {
        match step {
            TxStep::BackoffThenCca(d) => {
                // Nothing happens when the backoff ends: the CCA that
                // follows is read when it ends, `cca_duration` later.
                // One event covers both.
                let cca_end = now + d + self.cfg.phy.cca_duration;
                let tok = self.queue.schedule(cca_end, Event::CcaDone(i));
                if let Some(tx) = self.nodes[i].cur_tx.as_mut() {
                    tx.timer = Some(tok);
                }
            }
            TxStep::Transmit => {
                // Channel clear and the frame is already loaded: it
                // goes on the air after the rx/tx turnaround.
                let len = self.nodes[i]
                    .cur_tx
                    .as_ref()
                    .map_or(0, |t| t.frame.mpdu_len());
                let start = now + self.cfg.phy.turnaround;
                let air = self.cfg.phy.air_time(len);
                let handle = self.medium.begin_tx(RadioIdx(i), start, start + air);
                if let Some(tx) = self.nodes[i].cur_tx.as_mut() {
                    tx.handle = Some(handle);
                    tx.timer = None;
                }
                self.nodes[i].transmitting = true;
                self.nodes[i].meter.set_radio_state(RadioState::Tx, now);
                self.nodes[i].counters.inc(NodeCounter::FramesTx);
                if self.trace.is_enabled() {
                    let summary = self.nodes[i]
                        .cur_tx
                        .as_ref()
                        .map(|t| crate::trace::summarize_frame(t.frame.frame()))
                        .unwrap_or_default();
                    self.trace.record(
                        now,
                        self.nodes[i].id,
                        crate::trace::TraceDir::FrameTx,
                        summary,
                    );
                }
                self.queue.schedule(start + air, Event::AirDone(i));
            }
            TxStep::AwaitAck => {
                let wait = self.cfg.phy.ack_wait + self.cfg.phy.turnaround;
                let tok = self.queue.schedule(now + wait, Event::AckTimeout(i));
                if let Some(tx) = self.nodes[i].cur_tx.as_mut() {
                    tx.timer = Some(tok);
                }
            }
            TxStep::Done(ok) => self.finish_frame(i, ok, now),
        }
    }

    fn on_cca_done(&mut self, i: usize, now: Instant) {
        if self.nodes[i].cur_tx.is_none() {
            return;
        }
        let busy = self.medium.cca_busy(RadioIdx(i), now);
        let step = {
            let tx = self.nodes[i].cur_tx.as_mut().unwrap();
            tx.process.on_cca(busy, &mut self.rng)
        };
        self.handle_step(i, step, now);
    }

    fn on_spi_done(&mut self, i: usize, now: Instant) {
        // Frame loaded: begin the CSMA process.
        if self.nodes[i].cur_tx.is_none() {
            return;
        }
        let step = {
            let tx = self.nodes[i].cur_tx.as_mut().unwrap();
            tx.process.start(&mut self.rng)
        };
        self.handle_step(i, step, now);
    }

    /// Closes the medium record of `handle` — `frame`, sent by `i` and on
    /// the air since `start` — and delivers the frame to every radio
    /// that decoded it. Only radios awake, not transmitting, and
    /// listening since the frame began can receive it. The listener list
    /// and the outcomes pass through world-owned scratch buffers, so
    /// resolving a frame allocates nothing.
    fn resolve_tx(
        &mut self,
        i: usize,
        handle: TxHandle,
        start: Instant,
        frame: &MacFrame,
        now: Instant,
    ) {
        let mut listeners = std::mem::take(&mut self.listeners);
        listeners.clear();
        listeners.extend(
            self.nodes
                .iter()
                .enumerate()
                .filter(|(j, n)| {
                    *j != i
                        && n.awake
                        && !n.transmitting
                        && n.listen_since <= start
                        && n.kind != NodeKind::CloudHost
                })
                .map(|(j, _)| RadioIdx(j)),
        );
        let mut outcomes = std::mem::take(&mut self.outcomes);
        outcomes.clear();
        outcomes.extend_from_slice(self.medium.end_tx(handle, &listeners));
        self.listeners = listeners;
        for &(rx, ok) in &outcomes {
            if ok {
                self.deliver_with_ber(rx.0, frame, now);
            }
        }
        self.outcomes = outcomes;
    }

    fn on_air_done(&mut self, i: usize, now: Instant) {
        let Some(tx) = self.nodes[i].cur_tx.as_ref() else {
            return;
        };
        let Some(handle) = tx.handle else { return };
        let buf = tx.frame.clone(); // refcount bump, not a copy
        let air = self.cfg.phy.air_time(buf.mpdu_len());
        let start = now - air;
        // Sender returns to listening.
        self.nodes[i].transmitting = false;
        self.nodes[i].listen_since = now;
        self.nodes[i].meter.set_radio_state(RadioState::Rx, now);
        self.resolve_tx(i, handle, start, buf.frame(), now);
        // Advance the transmit state machine.
        let step = {
            let tx = self.nodes[i].cur_tx.as_mut().unwrap();
            tx.handle = None;
            tx.process.on_tx_done()
        };
        self.handle_step(i, step, now);
    }

    fn on_ack_timeout(&mut self, i: usize, now: Instant) {
        if self.nodes[i].cur_tx.is_none() {
            return;
        }
        let step = {
            let tx = self.nodes[i].cur_tx.as_mut().unwrap();
            tx.process.on_ack_timeout(&mut self.rng)
        };
        self.nodes[i].counters.inc(NodeCounter::LinkRetries);
        self.handle_step(i, step, now);
    }

    fn finish_frame(&mut self, i: usize, ok: bool, now: Instant) {
        let tx = self.nodes[i].cur_tx.take();
        if let Some(tx) = tx {
            if let Some(tok) = tx.timer {
                self.queue.cancel(tok);
            }
            if !ok {
                self.nodes[i].counters.inc(NodeCounter::FramesDropped);
                if self.trace.is_enabled() {
                    self.trace.record(
                        now,
                        self.nodes[i].id,
                        crate::trace::TraceDir::Drop,
                        format!(
                            "link retries exhausted: {}",
                            crate::trace::summarize_frame(tx.frame.frame())
                        ),
                    );
                }
                // Losing one fragment loses the packet: discard the rest.
                for f in self.nodes[i].cur_packet_frames.drain(..) {
                    self.pool.reclaim(f);
                }
                if tx.frame.frame().is_data_request() {
                    // Poll failed; go back to sleep and retry later.
                    self.nodes[i].polling = false;
                }
            } else {
                self.nodes[i].counters.inc(NodeCounter::FramesDelivered);
            }
            self.pool.reclaim(tx.frame);
        }
        self.kick_mac(i, now);
        self.maybe_sleep(i, now);
    }

    // ------------------------------------------------------------------
    // Frame reception
    // ------------------------------------------------------------------

    fn deliver_frame(&mut self, i: usize, frame: &MacFrame, now: Instant) {
        self.nodes[i].meter.add_cpu(CPU_PER_FRAME);
        if self.trace.is_enabled()
            && (frame.dst == self.nodes[i].id || frame.frame_type == FrameType::Ack)
        {
            self.trace.record(
                now,
                self.nodes[i].id,
                crate::trace::TraceDir::FrameRx,
                crate::trace::summarize_frame(frame),
            );
        }
        match frame.frame_type {
            FrameType::Ack => self.handle_link_ack(i, frame, now),
            FrameType::Data | FrameType::Command => {
                if frame.dst != self.nodes[i].id && frame.dst != lln_mac::frame::BROADCAST {
                    return; // overheard someone else's frame
                }
                let dup = self.nodes[i].check_duplicate(frame.src, frame.seq);
                if frame.ack_request {
                    // Send the link ACK after turnaround. Pending bit:
                    // for data requests, signal queued indirect data.
                    let pending = frame.is_data_request()
                        && self.nodes[i]
                            .indirect
                            .get(&frame.src)
                            .is_some_and(|q| !q.is_empty());
                    self.queue.schedule(
                        now + self.cfg.phy.turnaround,
                        Event::LinkAckStart(i, frame.seq, pending),
                    );
                }
                if dup {
                    self.nodes[i].counters.inc(NodeCounter::DupFrames);
                    return;
                }
                if frame.is_data_request() {
                    self.handle_data_request(i, frame.src, now);
                    return;
                }
                // Sleepy leaf: note downstream traffic and the pending
                // bit for the poll window.
                if self.nodes[i].kind == NodeKind::SleepyLeaf {
                    self.nodes[i].poll_got_frame = true;
                    if frame.pending {
                        // More frames are on their way (the parent
                        // drains its queue after one data request):
                        // keep the radio on.
                        self.extend_poll_window(i, POLL_WINDOW, now);
                    } else {
                        // Last queued packet: keep listening only long
                        // enough for any remaining fragments (each
                        // arrival refreshes this grace period).
                        self.extend_poll_window(i, Duration::from_millis(15), now);
                    }
                }
                // 6LoWPAN reassembly. An unfragmented packet is read in
                // place; a reassembled datagram's buffer goes back to the
                // reassembler once the packet has been handled.
                let done = self.nodes[i]
                    .reassembler
                    .offer_view(frame.src, &frame.payload, now);
                if let Some(packet) = done {
                    if let Some((hdr, payload)) =
                        iphc::decompress_view(packet.as_slice(), frame.src, frame.dst)
                    {
                        self.handle_ip(i, hdr, payload, now);
                    } else {
                        self.nodes[i].counters.inc(NodeCounter::DecompressErrors);
                    }
                    if let iphc::Payload::Owned(buf) = packet {
                        self.nodes[i].reassembler.recycle(buf);
                    }
                }
                self.kick_mac(i, now);
                self.maybe_sleep(i, now);
            }
        }
    }

    fn handle_link_ack(&mut self, i: usize, ack: &MacFrame, now: Instant) {
        let Some(tx) = self.nodes[i].cur_tx.as_mut() else {
            return;
        };
        // Accept only when we are actually waiting for this ACK; a
        // neighbour's ACK with a coincidentally equal sequence number
        // must not complete our (unsent or in-flight) frame.
        if tx.frame.frame().seq != ack.seq || !tx.process.awaiting_ack() {
            return;
        }
        if let Some(tok) = tx.timer.take() {
            self.queue.cancel(tok);
        }
        let was_poll = tx.frame.frame().is_data_request();
        let step = tx.process.on_ack();
        if was_poll && self.nodes[i].kind == NodeKind::SleepyLeaf {
            self.nodes[i].polling = false;
            if ack.pending {
                // Stay awake to receive the indirect frame(s).
                self.extend_poll_window(i, POLL_WINDOW, now);
            } else {
                // Nothing queued: close the listen window right away
                // (keeps the poll exchange to a few milliseconds, the
                // behaviour the paper's 0.1% idle duty cycle needs).
                if let Some(tok) = self.nodes[i].poll_window.take() {
                    self.queue.cancel(tok);
                }
            }
        }
        self.handle_step(i, step, now);
    }

    fn extend_poll_window(&mut self, i: usize, span: Duration, now: Instant) {
        if let Some(tok) = self.nodes[i].poll_window.take() {
            self.queue.cancel(tok);
        }
        let tok = self.queue.schedule(now + span, Event::PollWindowEnd(i));
        self.nodes[i].poll_window = Some(tok);
    }

    fn on_link_ack_start(&mut self, i: usize, seq: u8, pending: bool, now: Instant) {
        // Half-duplex: if we are mid-transmission, skip the ACK (the
        // sender will retry).
        if self.nodes[i].transmitting || !self.nodes[i].awake {
            return;
        }
        // An ACK frame has no payload, so it needs no pooled buffer.
        let ack = MacFrame::ack(seq, pending);
        let air = self.cfg.phy.ack_air_time();
        let handle = self.medium.begin_tx(RadioIdx(i), now, now + air);
        self.nodes[i].transmitting = true;
        self.nodes[i].meter.set_radio_state(RadioState::Tx, now);
        self.ack_handles[i] = Some((handle, ack, now));
        self.queue.schedule(now + air, Event::LinkAckDone(i));
    }

    fn on_link_ack_done(&mut self, i: usize, now: Instant) {
        let Some((handle, ack, start)) = self.ack_handles[i].take() else {
            return;
        };
        self.nodes[i].transmitting = false;
        self.nodes[i].listen_since = now;
        self.nodes[i].meter.set_radio_state(RadioState::Rx, now);
        self.resolve_tx(i, handle, start, &ack, now);
    }

    // ------------------------------------------------------------------
    // Data polling (sleepy leaves + parents)
    // ------------------------------------------------------------------

    fn on_poll_wake(&mut self, i: usize, now: Instant) {
        self.nodes[i].poll_timer = None;
        if self.nodes[i].kind != NodeKind::SleepyLeaf {
            return;
        }
        self.wake(i, now);
        self.nodes[i].polling = true;
        let parent = self.nodes[i].routes.default_route;
        let Some(parent) = parent else {
            self.nodes[i].polling = false;
            self.maybe_sleep(i, now);
            return;
        };
        let seq = self.nodes[i].next_seq();
        let id = self.nodes[i].id;
        let payload = self.pool.payload_buf();
        let req = self
            .pool
            .alloc(MacFrame::data_request(id, parent, seq, payload));
        if let Err(req) = self.nodes[i].enqueue_ctrl(req) {
            self.pool.reclaim(req);
        }
        // Guard window in case the poll exchange stalls entirely.
        self.extend_poll_window(i, POLL_WINDOW, now);
        self.kick_mac(i, now);
    }

    fn on_poll_window_end(&mut self, i: usize, now: Instant) {
        self.nodes[i].poll_window = None;
        self.nodes[i].polling = false;
        self.maybe_sleep(i, now);
    }

    fn handle_data_request(&mut self, i: usize, child: NodeId, now: Instant) {
        // Appendix C enhancement: one data request drains the child's
        // whole indirect queue. Every frame except those of the last
        // packet carries the pending bit, so the child keeps listening
        // for the burst.
        let queued = |n: &Node| n.indirect.get(&child).is_some_and(|q| !q.is_empty());
        if !queued(&self.nodes[i]) {
            return;
        }
        while let Some(pkt) = self.nodes[i].indirect.get_mut(&child).and_then(|q| q.pop()) {
            let more = queued(&self.nodes[i]);
            self.frame_packet(i, pkt, Some(more));
        }
        self.nodes[i].sync_governor();
        self.kick_mac(i, now);
    }

    // ------------------------------------------------------------------
    // IP layer
    // ------------------------------------------------------------------

    /// Queues a locally-originated or forwarded packet.
    fn enqueue_ip(&mut self, i: usize, hdr: Ipv6Header, payload: Vec<u8>, now: Instant) {
        match self.route(i, hdr.dst) {
            Some(hop) if self.admit(i, hop, payload.len()) => {
                self.push_ip(i, hop, hdr, payload, now);
            }
            _ => self.seg_bufs.put(payload),
        }
    }

    /// Sends the TCP segment `build` makes from node `i`. Routing runs
    /// before the segment is built and admission before it is encoded,
    /// so a reply that can go nowhere (a SYN-ACK to a spoofed source)
    /// is never built and never takes a buffer.
    fn send_tcp(
        &mut self,
        i: usize,
        src: Ipv6Addr,
        dst: Ipv6Addr,
        now: Instant,
        build: impl FnOnce(&Node) -> Segment,
    ) {
        let Some(hop) = self.route(i, dst) else {
            return;
        };
        let seg = build(&self.nodes[i]);
        let len = seg.wire_len();
        if !self.admit(i, hop, len) {
            return;
        }
        let hdr = Ipv6Header::new(src, dst, NextHeader::Tcp, len as u16);
        let mut bytes = self.seg_bufs.take();
        seg.encode_into(src, dst, &mut bytes);
        self.push_ip(i, hop, hdr, bytes, now);
    }

    /// Where node `i` sends a packet for `dst`; `None`, counted as
    /// unroutable, when it has no route there.
    fn route(&mut self, i: usize, dst: Ipv6Addr) -> Option<Hop> {
        let n = &self.nodes[i];
        // Cloud host: everything goes over the wire to the border.
        if n.kind == NodeKind::CloudHost {
            return Some(Hop::Wired(self.border));
        }
        // Border router: cloud-prefix destinations go over the wire.
        if n.kind == NodeKind::BorderRouter && !dst.is_mesh_local() {
            return Some(Hop::Wired(self.cloud));
        }
        // Mesh: route by the destination's node id; off-mesh packets go
        // toward the border router.
        let dst_node = if dst.is_mesh_local() {
            dst.node_id()
        } else {
            self.border.map(|b| NodeId(b as u16))
        };
        match dst_node.and_then(|d| n.routes.lookup(d)) {
            None => {
                self.nodes[i].counters.inc(NodeCounter::Unroutable);
                None
            }
            // Indirect queueing for sleepy children (bounded per child
            // by the node budget).
            Some(next) if n.sleepy_children.contains(&next) => Some(Hop::Indirect(next)),
            Some(next) => Some(Hop::Radio(next)),
        }
    }

    /// Whether a packet with `len` transport bytes may take `hop`;
    /// counts the refusal when it may not.
    fn admit(&mut self, i: usize, hop: Hop, len: usize) -> bool {
        let n = &mut self.nodes[i];
        match hop {
            Hop::Wired(peer) => peer.is_some(),
            Hop::Indirect(_) => true,
            // Governor admission: the IP-queue class must have room for
            // the packet's bytes before the queue even sees it.
            Hop::Radio(_) => {
                let fits = n
                    .governor
                    .would_fit(MemClass::IpQueue, len + tcplp::mem::IP_OVERHEAD_BYTES);
                if !fits {
                    n.governor.note_deny(MemClass::IpQueue);
                    n.counters.inc(NodeCounter::QueueByteDrops);
                }
                fits
            }
        }
    }

    /// Hands an admitted packet to `hop`.
    fn push_ip(&mut self, i: usize, hop: Hop, hdr: Ipv6Header, payload: Vec<u8>, now: Instant) {
        match hop {
            Hop::Wired(Some(peer)) => {
                self.queue
                    .schedule(now + WIRED_LATENCY, Event::WiredDeliver(peer, hdr, payload));
            }
            Hop::Indirect(next_hop) => {
                let pkt = OutPacket {
                    hdr,
                    payload,
                    next_hop,
                };
                if let Err(pkt) = self.nodes[i].enqueue_indirect(next_hop, pkt) {
                    self.seg_bufs.put(pkt.payload);
                }
                self.nodes[i].sync_governor();
            }
            Hop::Radio(next_hop) => {
                let pkt = OutPacket {
                    hdr,
                    payload,
                    next_hop,
                };
                let r = self.rng.gen_f64();
                if let Err(pkt) = self.nodes[i].ip_queue.offer(pkt, r) {
                    self.nodes[i].governor.note_deny(MemClass::IpQueue);
                    self.nodes[i].counters.inc(NodeCounter::QueueDrops);
                    self.seg_bufs.put(pkt.payload);
                }
                self.nodes[i].sync_governor();
                self.kick_mac(i, now);
            }
            Hop::Wired(None) => unreachable!("refused by admit"),
        }
    }

    /// A full IP packet arrived at node `i`. Its payload is owned when it
    /// came over the wire, and over the radio it may borrow the frame or
    /// the reassembled datagram. Local delivery reads it in place, then
    /// an owned payload goes back to the world's buffer pool; only
    /// forwarding (which must queue the bytes) copies a borrowed one,
    /// into a buffer from that pool.
    fn handle_ip(&mut self, i: usize, hdr: Ipv6Header, payload: iphc::Payload<'_>, now: Instant) {
        if hdr.dst == self.nodes[i].ip_addr() {
            if self.trace.is_enabled() {
                let summary = crate::trace::summarize_packet(&hdr, payload.as_slice());
                let id = self.nodes[i].id;
                self.trace
                    .record(now, id, crate::trace::TraceDir::Deliver, summary);
            }
            self.deliver_transport(i, hdr, payload.as_slice(), now);
            if let iphc::Payload::Owned(v) = payload {
                self.seg_bufs.put(v);
            }
            return;
        }
        let bytes = match payload {
            iphc::Payload::Owned(v) => v,
            iphc::Payload::Borrowed(b) => {
                let mut v = self.seg_bufs.take();
                v.extend_from_slice(b);
                v
            }
        };
        self.forward_ip(i, hdr, bytes, now);
    }

    /// Forwards a non-local packet toward its next hop.
    fn forward_ip(&mut self, i: usize, mut hdr: Ipv6Header, payload: Vec<u8>, now: Instant) {
        if hdr.hop_limit <= 1 {
            self.nodes[i].counters.inc(NodeCounter::HopLimitDrops);
            self.seg_bufs.put(payload);
            self.trace.record(
                now,
                self.nodes[i].id,
                crate::trace::TraceDir::Drop,
                "hop limit exhausted",
            );
            return;
        }
        hdr.hop_limit -= 1;
        // Injected uniform loss (§9.4; configured on the border router).
        if self.nodes[i].inject_loss > 0.0 && self.rng.gen_bool(self.nodes[i].inject_loss) {
            self.nodes[i].counters.inc(NodeCounter::InjectedDrops);
            self.seg_bufs.put(payload);
            self.trace.record(
                now,
                self.nodes[i].id,
                crate::trace::TraceDir::Drop,
                "injected loss",
            );
            return;
        }
        self.nodes[i].counters.inc(NodeCounter::Forwarded);
        if self.trace.is_enabled() {
            self.trace.record(
                now,
                self.nodes[i].id,
                crate::trace::TraceDir::Forward,
                crate::trace::summarize_packet(&hdr, &payload),
            );
        }
        self.enqueue_ip(i, hdr, payload, now);
    }

    // ------------------------------------------------------------------
    // Transport layer
    // ------------------------------------------------------------------

    fn deliver_transport(&mut self, i: usize, hdr: Ipv6Header, payload: &[u8], now: Instant) {
        self.nodes[i].meter.add_cpu(CPU_PER_SEGMENT);
        match hdr.next_header {
            NextHeader::Tcp => self.deliver_tcp(i, &hdr, payload, now),
            NextHeader::Udp => self.deliver_udp(i, &hdr, payload, now),
            NextHeader::Other(_) => {
                self.nodes[i].counters.inc(NodeCounter::UnknownProto);
            }
        }
        self.pump_transport(i, now);
    }

    fn deliver_tcp(&mut self, i: usize, hdr: &Ipv6Header, payload: &[u8], now: Instant) {
        // Copy-free decode: the parsed view borrows `payload` and the
        // socket or listener ingests straight from the slice. Only the
        // rare paths (adversary interposition, uIP) materialize an owned
        // segment.
        let Some(view) = Segment::decode_view(hdr.src, hdr.dst, payload) else {
            self.nodes[i].counters.inc(NodeCounter::TcpChecksumDrops);
            return;
        };
        if self.nodes[i].adversary.is_some() {
            let seg = view.to_owned();
            // Temporarily take the adversary so it can borrow its RNG
            // while we hold `self` for scheduling.
            let mut adv = self.nodes[i].adversary.take().expect("checked");
            let deliveries = adv.on_segment(&seg, hdr.src, hdr.dst);
            self.nodes[i].adversary = Some(adv);
            for d in deliveries {
                match d {
                    crate::adversary::Delivery::Seg(delay, mseg) => {
                        if delay == Duration::ZERO {
                            self.dispatch_tcp_view(i, hdr, mseg.view(), now);
                        } else {
                            let mut bytes = self.seg_bufs.take();
                            mseg.encode_into(hdr.src, hdr.dst, &mut bytes);
                            let mut h = *hdr;
                            h.payload_len = bytes.len() as u16;
                            self.queue
                                .schedule(now + delay, Event::AdversaryDeliver(i, h, bytes));
                        }
                    }
                    crate::adversary::Delivery::Raw(delay, bytes) => {
                        let mut h = *hdr;
                        h.payload_len = bytes.len() as u16;
                        if delay == Duration::ZERO {
                            self.deliver_mangled_tcp(i, &h, &bytes, now);
                        } else {
                            self.queue
                                .schedule(now + delay, Event::AdversaryDeliver(i, h, bytes));
                        }
                    }
                }
            }
            return;
        }
        self.dispatch_tcp_view(i, hdr, view, now);
    }

    /// Hands a decoded segment to the owning socket (or the listener,
    /// the uIP socket, or the RST generator). The segment stays a
    /// borrowed view on every path but the uIP socket's, which copies
    /// it into an owned segment.
    fn dispatch_tcp_view(
        &mut self,
        i: usize,
        hdr: &Ipv6Header,
        seg: tcplp::SegmentView<'_>,
        now: Instant,
    ) {
        let ecn = hdr.ecn;
        let found = self.nodes[i].transport.tcp.iter_mut().find(|s| {
            let (raddr, rport) = s.remote();
            raddr == hdr.src && rport == seg.src_port && s.local().1 == seg.dst_port
        });
        if let Some(sock) = found {
            sock.on_segment_view(seg, ecn, now);
            return;
        }
        self.dispatch_tcp_slow(i, hdr, seg, now);
    }

    /// Adversary-scheduled bytes arriving at the transport: decode and
    /// dispatch directly, never back through the adversary.
    fn deliver_mangled_tcp(&mut self, i: usize, hdr: &Ipv6Header, payload: &[u8], now: Instant) {
        match Segment::decode_view(hdr.src, hdr.dst, payload) {
            Some(seg) => self.dispatch_tcp_view(i, hdr, seg, now),
            None => {
                // Deliberately malformed forgeries die in the parser,
                // exactly like corrupted genuine traffic.
                self.nodes[i].counters.inc(NodeCounter::TcpChecksumDrops);
            }
        }
    }

    /// Non-socket TCP traffic: the listener (SYN cache), the uIP
    /// socket, or the RST generator.
    fn dispatch_tcp_slow(
        &mut self,
        i: usize,
        hdr: &Ipv6Header,
        seg: tcplp::SegmentView<'_>,
        now: Instant,
    ) {
        // Listener? All passive-open traffic goes through the bounded
        // SYN cache; the full socket exists only after the completing
        // ACK — and only if the TCP-buffer budget admits it.
        let listener_match = self.nodes[i]
            .transport
            .tcp_listener
            .as_ref()
            .is_some_and(|l| l.port() == seg.dst_port);
        if listener_match {
            let is_syn =
                seg.flags.contains(tcplp::Flags::SYN) && !seg.flags.contains(tcplp::Flags::ACK);
            // The iss is consumed only when a fresh SYN parks a cache
            // entry; drawing it unconditionally would burn an extra rng
            // value on the completing ACK and shift every later seeded
            // decision (loss, RED) in the world.
            let iss = if is_syn {
                self.rng.next_u64() as u32
            } else {
                0
            };
            let live = self.nodes[i]
                .transport
                .tcp
                .iter()
                .filter(|s| s.local().1 == seg.dst_port && s.state() != tcplp::TcpState::Closed)
                .count();
            let footprint = self.nodes[i]
                .transport
                .tcp_listener
                .as_ref()
                .map_or(0, |l| l.child_footprint());
            // A SYN whose eventual socket could never fit the budget is
            // denied before it costs even a cache slot.
            if is_syn
                && !self.nodes[i]
                    .governor
                    .would_fit(MemClass::TcpBuffers, footprint)
            {
                self.nodes[i].governor.note_deny(MemClass::TcpBuffers);
                self.nodes[i].counters.inc(NodeCounter::SynBudgetDrops);
                return;
            }
            let l = self.nodes[i].transport.tcp_listener.as_mut().unwrap();
            l.sync_backlog(live);
            let resp = l.on_segment_view(hdr.src, seg, iss, now);
            match resp {
                ListenerResponse::Reply(due) => {
                    let my_addr = self.nodes[i].ip_addr();
                    self.send_tcp(i, my_addr, due.peer, now, |n| {
                        n.transport.tcp_listener.as_ref().unwrap().synack(due, now)
                    });
                    self.nodes[i].sync_governor();
                    self.reschedule_transport_timer(i, now);
                    return;
                }
                ListenerResponse::Spawn(sock) => {
                    if self.nodes[i]
                        .governor
                        .try_admit(MemClass::TcpBuffers, footprint)
                    {
                        self.nodes[i].transport.tcp.push(*sock);
                        self.pump_transport(i, now);
                    } else {
                        // Budget raced shut between SYN and ACK: the
                        // socket dies unborn; the peer retries or
                        // times out.
                        self.nodes[i].counters.inc(NodeCounter::AcceptBudgetDrops);
                    }
                    self.nodes[i].sync_governor();
                    self.reschedule_transport_timer(i, now);
                    return;
                }
                // Not listener business (stray ACK, RST): fall through
                // to the uIP socket or the RST generator.
                ListenerResponse::None => {
                    self.nodes[i].sync_governor();
                    self.reschedule_transport_timer(i, now);
                }
            }
        }
        // uIP socket?
        if let Some(u) = self.nodes[i].transport.uip.as_mut() {
            let (raddr, rport) = u.remote();
            if raddr == hdr.src && rport == seg.src_port && u.local().1 == seg.dst_port {
                u.on_segment(&seg.to_owned(), now);
                return;
            }
        }
        // No socket: RST.
        if let Some(rst) = tcplp::reset_for(&seg) {
            self.send_tcp(i, hdr.dst, hdr.src, now, |_| rst);
        }
    }

    /// One flooder tick: inject forged traffic at node `i`, then
    /// reschedule. Ticks keep firing (without injecting) while the
    /// victim is down, so the attack resumes after a reboot.
    fn on_flood_tick(&mut self, i: usize, now: Instant) {
        let Some(mut fl) = self.nodes[i].flooder.take() else {
            return;
        };
        if now >= fl.cfg.stop {
            self.nodes[i].flooder = Some(fl);
            return;
        }
        let interval = fl.interval();
        if !self.nodes[i].down {
            if fl.cfg.syn {
                // Forged SYN from a rotating spoofed source: random
                // port and ISN, victim's listen port.
                let k = (fl.stats.syns_sent % u64::from(fl.cfg.spoofed_sources)) as u16;
                let src = NodeId(0xF000 + k).mesh_addr();
                let sport = 40_000 + (fl.rng.next_u64() % 20_000) as u16;
                let seq = tcplp::TcpSeq(fl.rng.next_u64() as u32);
                let mut seg = Segment::new(
                    sport,
                    fl.cfg.target_port,
                    seq,
                    tcplp::TcpSeq(0),
                    tcplp::Flags::SYN,
                );
                seg.window = 1024;
                seg.mss = Some(462);
                let hdr = Ipv6Header::new(
                    src,
                    self.nodes[i].ip_addr(),
                    NextHeader::Tcp,
                    seg.wire_len() as u16,
                );
                fl.stats.syns_sent += 1;
                self.nodes[i].meter.add_cpu(CPU_PER_SEGMENT);
                self.nodes[i].counters.inc(NodeCounter::FloodSynsRx);
                self.dispatch_tcp_view(i, &hdr, seg.view(), now);
            }
            if fl.cfg.frag {
                // Forged FRAG1 claiming a large datagram whose tail
                // never arrives: pins a reassembly slot until quota
                // denial or timeout reclamation.
                let k = (fl.stats.frags_sent % u64::from(fl.cfg.spoofed_sources)) as u16;
                let src = NodeId(0xF800 + k);
                let mut bytes = [0u8; 68];
                fl.forge_frag1_into(&mut bytes);
                fl.stats.frags_sent += 1;
                self.nodes[i].meter.add_cpu(CPU_PER_FRAME);
                self.nodes[i].counters.inc(NodeCounter::FloodFragsRx);
                let _ = self.nodes[i].reassembler.offer(src, &bytes, now);
                // No transport-timer reschedule: the reassembler is not
                // a wake source (see `reschedule_transport_timer`).
                self.nodes[i].sync_governor();
            }
        }
        self.nodes[i].flooder = Some(fl);
        self.queue.schedule(now + interval, Event::FloodTick(i));
    }

    fn deliver_udp(&mut self, i: usize, hdr: &Ipv6Header, payload: &[u8], now: Instant) {
        let Some((udp, body)) = UdpHeader::decode_datagram(hdr.src, hdr.dst, payload) else {
            self.nodes[i].counters.inc(NodeCounter::UdpChecksumDrops);
            return;
        };
        if udp.dst_port == COAP_PORT {
            // Server side.
            let response = self.nodes[i]
                .transport
                .coap_server
                .as_mut()
                .and_then(|s| s.on_datagram_from(hdr.src, body, now));
            if let Some(resp) = response {
                let dg =
                    UdpHeader::encode_datagram(hdr.dst, hdr.src, COAP_PORT, udp.src_port, &resp);
                let out_hdr = Ipv6Header::new(hdr.dst, hdr.src, NextHeader::Udp, dg.len() as u16);
                self.enqueue_ip(i, out_hdr, dg, now);
            }
        } else if let Some(c) = self.nodes[i].transport.coap_client.as_mut() {
            c.on_datagram(body, now);
        }
    }

    /// Pumps every transport on node `i`: applications feed sockets,
    /// sockets emit segments, timers are rescheduled.
    pub fn pump_transport(&mut self, i: usize, now: Instant) {
        if self.nodes[i].down {
            return;
        }
        self.app_feed(i, now);
        // Drain sinks before polling sockets so window-update ACKs
        // (generated by `recv`) ride out in this pump.
        self.app_drain(i, now);
        // Advance TCP timers *before* supervision: a socket that dies
        // on this very tick (retransmit exhaustion, keepalive timeout)
        // must be seen by the supervisor in the same pump, or nothing
        // ever reschedules this node's transport timer again.
        for s in self.nodes[i].transport.tcp.iter_mut() {
            if s.poll_at().is_some_and(|t| t <= now) {
                s.on_timer(now);
            }
        }
        // Connection supervision: feed/track the supervised socket,
        // detect deaths, and install reconnect attempts.
        self.supervise(i, now);

        // TCP sockets. Segments encode (serialize + checksum in one
        // pass) into pooled buffers; the buffer returns to the pool
        // when the 6LoWPAN layer frames the packet, and each segment's
        // payload buffer goes back to its socket once encoded.
        let my_addr = self.nodes[i].ip_addr();
        let mut out = std::mem::take(&mut self.pumped);
        let bufs = &mut self.seg_bufs;
        for s in self.nodes[i].transport.tcp.iter_mut() {
            let ecn_data = s.ecn_active();
            while let Some(seg) = s.poll_transmit(now) {
                let ecn = if ecn_data && !seg.payload.is_empty() {
                    Ecn::Ect0
                } else {
                    Ecn::NotCapable
                };
                out.push(encode_segment(bufs, &seg, my_addr, s.remote().0, ecn));
                s.recycle(seg);
            }
        }
        // Listener: SYN-ACK retransmissions and half-open expiry. A
        // SYN-ACK is built only for a peer with a route (`enqueue_ip`
        // below looks the route up again).
        while let Some(due) = self.nodes[i]
            .transport
            .tcp_listener
            .as_mut()
            .and_then(|l| l.poll_transmit(now))
        {
            if self.route(i, due.peer).is_some() {
                let l = self.nodes[i].transport.tcp_listener.as_ref().unwrap();
                out.push(encode_segment(
                    &mut self.seg_bufs,
                    &l.synack(due, now),
                    my_addr,
                    due.peer,
                    Ecn::NotCapable,
                ));
            }
        }
        // Reassembly: reclaim stale partial datagrams on the timer path.
        self.nodes[i].reassembler.reclaim(now);
        // uIP socket.
        let bufs = &mut self.seg_bufs;
        if let Some(u) = self.nodes[i].transport.uip.as_mut() {
            if u.poll_at().is_some_and(|t| t <= now) {
                u.on_timer(now);
            }
            while let Some(seg) = u.poll_transmit(now) {
                let raddr = u.remote().0;
                out.push(encode_segment(bufs, &seg, my_addr, raddr, Ecn::NotCapable));
            }
        }
        // CoAP client: a due retransmission first, then new messages.
        if self.nodes[i].transport.coap_client.is_some() {
            let cloud_addr = self.cloud.map(|c| self.nodes[c].ip_addr());
            let c = self.nodes[i].transport.coap_client.as_mut().unwrap();
            let due = c.poll_at().is_some_and(|t| t <= now);
            let retransmit = if due { c.on_timer(now) } else { None };
            let rng = &mut self.rng;
            let fresh = std::iter::from_fn(|| c.poll_transmit(now, rng));
            for msg in retransmit.into_iter().chain(fresh) {
                if let Some(dst) = cloud_addr {
                    let dg = UdpHeader::encode_datagram(my_addr, dst, 49001, COAP_PORT, &msg);
                    let hdr = Ipv6Header::new(my_addr, dst, NextHeader::Udp, dg.len() as u16);
                    out.push((hdr, dg));
                }
            }
        }
        for (hdr, bytes) in out.drain(..) {
            self.enqueue_ip(i, hdr, bytes, now);
        }
        self.pumped = out;
        self.nodes[i].sync_governor();
        self.reschedule_transport_timer(i, now);
        self.kick_mac(i, now);
        // Sleepy leaves expecting a response poll fast (§9.2).
        self.adjust_fast_poll(i, now);
        self.maybe_sleep(i, now);
    }

    /// Runs the node's connection supervisor (if any): one poll step,
    /// with lifecycle transitions logged to the trace. Its counters stay
    /// in its own [`SupervisorStats`] (see [`World::supervisor_stats`]).
    fn supervise(&mut self, i: usize, now: Instant) {
        let Some(mut sup) = self.nodes[i].supervisor.take() else {
            return;
        };
        let res = sup.poll(self.nodes[i].transport.tcp.first_mut(), now);
        if res.died {
            self.trace.record(
                now,
                self.nodes[i].id,
                crate::trace::TraceDir::Drop,
                "supervisor: connection died",
            );
        }
        if res.reconnected {
            self.trace.record(
                now,
                self.nodes[i].id,
                crate::trace::TraceDir::Deliver,
                "supervisor: reconnected",
            );
        }
        if let Some(sock) = res.replace {
            let tcp = &mut self.nodes[i].transport.tcp;
            if tcp.is_empty() {
                tcp.push(sock);
            } else {
                tcp[0] = sock;
            }
        }
        self.nodes[i].supervisor = Some(sup);
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

    fn adjust_fast_poll(&mut self, i: usize, now: Instant) {
        if self.nodes[i].kind != NodeKind::SleepyLeaf || self.nodes[i].awake {
            return;
        }
        let expecting = self.nodes[i].expecting_response();
        if !expecting {
            return;
        }
        if let Some(poll) = self.nodes[i].poll.as_mut() {
            poll.set_expecting_response(true);
            let fast = poll.next_delay(false);
            if let Some(tok) = self.nodes[i].poll_timer.take() {
                self.queue.cancel(tok);
            }
            let tok = self.queue.schedule(now + fast, Event::PollWake(i));
            self.nodes[i].poll_timer = Some(tok);
        }
    }

    fn reschedule_transport_timer(&mut self, i: usize, now: Instant) {
        let n = &self.nodes[i];
        let t = &n.transport;
        let next = t
            .tcp
            .iter()
            .filter_map(TcpSocket::poll_at)
            .chain(t.uip.as_ref().and_then(lln_uip::UipSocket::poll_at))
            .chain(t.coap_client.as_ref().and_then(CoapClient::poll_at))
            .chain(
                n.supervisor
                    .as_ref()
                    .and_then(SupervisedConnection::wake_at),
            )
            .chain(
                t.tcp_listener
                    .as_ref()
                    .and_then(tcplp::ListenSocket::poll_at),
            )
            .min();
        // Reassembly expiry is deliberately NOT a wakeup source: stale
        // partials are reclaimed lazily on the next inbound frame
        // (`Reassembler::offer` expires first) and on every transport
        // pump, which keeps the event schedule — and hence seeded
        // trajectories — identical to a build without the reassembler.
        if let Some(tok) = self.nodes[i].transport_timer.take() {
            self.queue.cancel(tok);
        }
        if let Some(t) = next {
            let t = t.max(now);
            let tok = self.queue.schedule(t, Event::TransportTimer(i));
            self.nodes[i].transport_timer = Some(tok);
        }
    }

    // ------------------------------------------------------------------
    // Applications
    // ------------------------------------------------------------------

    /// Feed phase: sources push data into their sockets.
    fn app_feed(&mut self, i: usize, _now: Instant) {
        let node = &mut self.nodes[i];
        match &mut node.app {
            // Supervised bulk sender: chunk the byte stream into
            // records and hand them to the supervisor, which retains
            // them until acknowledged (backpressure via `can_accept`).
            App::BulkSender {
                limit,
                sent,
                pattern,
            } if node.supervisor.is_some() => {
                let sup = node.supervisor.as_mut().expect("guarded");
                const RECORD_PAYLOAD: usize = 454;
                loop {
                    let want = match limit {
                        Some(l) => ((*l - *sent) as usize).min(RECORD_PAYLOAD),
                        None => RECORD_PAYLOAD,
                    };
                    if want == 0 || !sup.can_accept(want) {
                        break;
                    }
                    let mut chunk = [0u8; RECORD_PAYLOAD];
                    fill_pattern(&mut chunk[..want], *pattern);
                    sup.submit(&chunk[..want]);
                    *sent += want as u64;
                    *pattern = pattern.wrapping_add(want as u8);
                }
            }
            // Supervised anemometer: each reading is one record; the
            // supervisor's retention buffer is the flash queue, so
            // readings survive reboots and replay after reconnects.
            App::Anemometer(app)
                if node.supervisor.is_some() && app.draining_allowed(app.draining) =>
            {
                app.draining = true;
                let sup = node.supervisor.as_mut().expect("guarded");
                while !app.queue.is_empty() && sup.can_accept(READING_BYTES) {
                    let r = app.pop_reading().expect("non-empty");
                    sup.submit(&r);
                }
                if app.queue.is_empty() {
                    app.draining = false;
                }
            }
            App::BulkSender {
                limit,
                sent,
                pattern,
            } => {
                if let Some(sock) = node.transport.tcp.first_mut() {
                    let room = sock.send_capacity();
                    let want = match limit {
                        Some(l) => (*l - *sent).min(room as u64) as usize,
                        None => room,
                    };
                    // The stream goes in through a stack chunk, one
                    // piece at a time; `send` only appends to the send
                    // buffer, so the pieces land exactly as one write.
                    let mut chunk = [0u8; 256];
                    let mut n = 0;
                    while n < want {
                        let k = (want - n).min(chunk.len());
                        fill_pattern(&mut chunk[..k], pattern.wrapping_add(n as u8));
                        let took = sock.send(&chunk[..k]);
                        n += took;
                        if took < k {
                            break;
                        }
                    }
                    *sent += n as u64;
                    *pattern = pattern.wrapping_add(n as u8);
                }
                if let Some(u) = node.transport.uip.as_mut() {
                    let chunk = [0x5au8; 256];
                    let mut pushed = u.send(&chunk);
                    while pushed > 0 {
                        if let Some(l) = limit {
                            *sent += pushed as u64;
                            if *sent >= *l {
                                break;
                            }
                        }
                        pushed = u.send(&chunk);
                    }
                }
            }
            App::Anemometer(app) if app.draining_allowed(app.draining) => {
                app.draining = true;
                // TCP path: push readings into the stream.
                if let Some(sock) = node.transport.tcp.first_mut() {
                    while sock.send_capacity() >= READING_BYTES {
                        let Some(r) = app.pop_reading() else { break };
                        sock.send(&r);
                    }
                }
                // CoAP path: pack ~5 readings per message (five
                // frames, like TCP segments, §9.3).
                if let Some(c) = node.transport.coap_client.as_mut() {
                    let per_msg = if app.batch.is_some() { 5 } else { 1 };
                    while app.queue.len() >= per_msg
                        || (!app.queue.is_empty() && app.batch.is_none())
                    {
                        if c.backlog() >= 24 {
                            break;
                        }
                        let mut payload = Vec::new();
                        for _ in 0..per_msg.min(app.queue.len()) {
                            payload.extend_from_slice(&app.pop_reading().unwrap());
                        }
                        let more = !app.queue.is_empty();
                        let n = (app.submitted / per_msg as u64) as u32;
                        c.post_block(payload, n, more);
                    }
                }
                if app.queue.is_empty() {
                    app.draining = false;
                }
            }
            _ => {}
        }
    }

    /// Drain phase: sinks consume delivered data.
    fn app_drain(&mut self, i: usize, now: Instant) {
        let node = &mut self.nodes[i];
        if let App::Sink {
            received,
            first_byte,
            last_byte,
            capture,
        } = &mut node.app
        {
            let mut buf = [0u8; 2048];
            for s in node.transport.tcp.iter_mut() {
                loop {
                    let n = s.recv(&mut buf);
                    if n == 0 {
                        break;
                    }
                    *received += n as u64;
                    if first_byte.is_none() {
                        *first_byte = Some(now);
                    }
                    *last_byte = Some(now);
                    if let Some(cap) = capture.as_mut() {
                        // Keyed by remote endpoint: one entry per TCP
                        // connection (reconnects use fresh ports).
                        let key = s.remote();
                        match cap.iter_mut().find(|(k, _)| *k == key) {
                            Some((_, bytes)) => bytes.extend_from_slice(&buf[..n]),
                            None => cap.push((key, buf[..n].to_vec())),
                        }
                    }
                }
            }
        }
    }

    fn on_app_tick(&mut self, i: usize, now: Instant) {
        let interval = if let App::Anemometer(app) = &mut self.nodes[i].app {
            app.generate_reading();
            Some(app.interval)
        } else {
            None
        };
        if let Some(iv) = interval {
            self.queue.schedule(now + iv, Event::AppTick(i));
        }
        self.pump_transport(i, now);
    }

    // ------------------------------------------------------------------
    // Interference
    // ------------------------------------------------------------------

    fn on_interferer_start(&mut self, i: usize, now: Instant) {
        let App::Interferer(app) = &self.nodes[i].app else {
            return;
        };
        let burst = app.burst;
        let handle = self.medium.begin_tx(RadioIdx(i), now, now + burst);
        self.interferer_handles[i] = Some((handle, now));
        self.queue.schedule(now + burst, Event::InterfererEnd(i));
    }

    fn on_interferer_end(&mut self, i: usize, now: Instant) {
        if let Some((handle, _)) = self.interferer_handles[i].take() {
            // Interference is noise: nobody decodes it.
            self.medium.end_tx(handle, &[]);
        }
        let App::Interferer(app) = &self.nodes[i].app else {
            return;
        };
        let gap = app.next_gap(now, &mut self.rng);
        self.queue.schedule(now + gap, Event::InterfererStart(i));
    }
}

/// Encodes `seg` from `src` to `dst` into a buffer from `bufs` (one pass
/// that also sums the checksum) and returns it with its IPv6 header.
fn encode_segment(
    bufs: &mut BufPool,
    seg: &Segment,
    src: Ipv6Addr,
    dst: Ipv6Addr,
    ecn: Ecn,
) -> (Ipv6Header, Vec<u8>) {
    let mut hdr = Ipv6Header::new(src, dst, NextHeader::Tcp, seg.wire_len() as u16);
    hdr.ecn = ecn;
    let mut bytes = bufs.take();
    seg.encode_into(src, dst, &mut bytes);
    (hdr, bytes)
}

/// Fills `buf` with the bulk sender's byte pattern: consecutive byte
/// values (wrapping) starting at `start`.
fn fill_pattern(buf: &mut [u8], start: u8) {
    let mut b = start;
    for slot in buf {
        *slot = b;
        b = b.wrapping_add(1);
    }
}
