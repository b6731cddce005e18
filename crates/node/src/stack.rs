//! Per-node state: MAC queues, adaptation layer, IP forwarding,
//! transport sockets, application, and energy meter.
//!
//! The event-handling logic lives in [`crate::world`]; this module owns
//! the data and the pure helpers. One `Node` is one mote (or the cloud
//! host / an interferer).

use crate::app::App;
use crate::route::RouteTable;
use crate::supervisor::SupervisedConnection;
use lln_coap::{CoapClient, CoapServer};
use lln_energy::EnergyMeter;
use lln_mac::csma::TxProcess;
use lln_mac::pool::FrameBuf;
use lln_netip::{Ecn, FifoQueue, Ipv6Addr, Ipv6Header, NodeId, RedConfig, RedQueue};
use lln_phy::medium::TxHandle;
use lln_sim::stats::Counters;
use lln_sim::{Duration, EventToken, Instant};
use lln_sixlowpan::{IphcCache, Reassembler, ReassemblyLimits};
use lln_uip::UipSocket;
use std::collections::{HashMap, HashSet, VecDeque};
use tcplp::mem::{IP_OVERHEAD_BYTES, MAC_FRAME_BYTES};
use tcplp::{ListenSocket, MemClass, MemGovernor, NodeBudget, TcpSocket};

/// 6LoWPAN reassembly slots per node (DESIGN.md §10).
pub const REASSEMBLY_SLOTS: usize = 8;
/// Reassembly slots any single source may hold (fragment-flood
/// isolation; Hummen et al.'s split-buffer defence, DESIGN.md §10).
pub const REASSEMBLY_PER_SOURCE: usize = 2;
/// MAC control-queue depth in frames (byte cap rides on top).
pub const CTRL_QUEUE_FRAMES: usize = 96;
/// Indirect (sleepy-child) queue depth in packets, per child (byte cap
/// rides on top).
pub const INDIRECT_PACKETS: usize = 16;

lln_sim::counter_keys! {
    /// The per-node counters, in name order. Each counts an event the
    /// node layer itself sees; subsystems that keep their own stats
    /// (the supervisor, the listener, the reassembler) are read there.
    pub enum NodeCounter {
        /// Completed handshakes refused a socket by the memory budget.
        AcceptBudgetDrops = "accept_budget_drops",
        /// Bit-error bursts started by the fault plan.
        BerBursts = "ber_bursts",
        /// Received frames with bits flipped by a bit-error burst.
        BerCorruptedFrames = "ber_corrupted_frames",
        /// Node boots after a reboot fault.
        Boots = "boots",
        /// Control frames refused by the MAC queue budget.
        CtrlQueueDrops = "ctrl_queue_drops",
        /// Reassembled packets whose IPHC header failed to decompress.
        DecompressErrors = "decompress_errors",
        /// Wired or adversary deliveries to a node that is down.
        DownDrops = "down_drops",
        /// Link-layer duplicates (ACK lost, frame retried).
        DupFrames = "dup_frames",
        /// Corrupted frames rejected by the FCS check.
        FcsDrops = "fcs_drops",
        /// Forged FRAG1 fragments the flooder injected here.
        FloodFragsRx = "flood_frags_rx",
        /// Forged SYNs the flooder injected here.
        FloodSynsRx = "flood_syns_rx",
        /// Packets forwarded toward a next hop.
        Forwarded = "forwarded",
        /// Data frames acknowledged by the next hop.
        FramesDelivered = "frames_delivered",
        /// Data frames abandoned after the last link retry.
        FramesDropped = "frames_dropped",
        /// Frames (data and link ACKs) put on the air.
        FramesTx = "frames_tx",
        /// Packets dropped with the hop limit exhausted.
        HopLimitDrops = "hop_limit_drops",
        /// Packets refused by a sleepy child's indirect queue.
        IndirectDrops = "indirect_drops",
        /// Packets dropped by injected uniform loss (§9.4).
        InjectedDrops = "injected_drops",
        /// Link blackouts started by the fault plan.
        LinkBlackouts = "link_blackouts",
        /// Link-layer retransmissions after an ACK timeout.
        LinkRetries = "link_retries",
        /// IP packets fragmented onto the link.
        PacketsTx = "packets_tx",
        /// Packets refused by the IP-queue byte budget.
        QueueByteDrops = "queue_byte_drops",
        /// Packets refused by the IP queue itself.
        QueueDrops = "queue_drops",
        /// Reboot faults taking the node down.
        Reboots = "reboots",
        /// Route flaps started by the fault plan.
        RouteFlaps = "route_flaps",
        /// SYNs refused because their socket could never fit the budget.
        SynBudgetDrops = "syn_budget_drops",
        /// TCP segments failing decode or checksum.
        TcpChecksumDrops = "tcp_checksum_drops",
        /// UDP datagrams failing decode or checksum.
        UdpChecksumDrops = "udp_checksum_drops",
        /// Packets for a next header with no handler.
        UnknownProto = "unknown_proto",
        /// Packets with no route to their destination.
        Unroutable = "unroutable",
    }
}

/// Role of a node in the network.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum NodeKind {
    /// Always-on mesh router.
    Router,
    /// The border router: mesh on one side, the wired link on the other.
    BorderRouter,
    /// Duty-cycled leaf (Thread sleepy end device).
    SleepyLeaf,
    /// The cloud server behind the border router (no radio activity).
    CloudHost,
    /// A pure interference source (jams, never communicates).
    Interferer,
}

/// Transport sockets hosted on a node.
#[derive(Default)]
pub struct TransportStack {
    /// Passive TCP socket.
    pub tcp_listener: Option<ListenSocket>,
    /// Active TCP sockets (client-side or accepted).
    pub tcp: Vec<TcpSocket>,
    /// uIP-class socket.
    pub uip: Option<UipSocket>,
    /// CoAP client (sensor side).
    pub coap_client: Option<CoapClient>,
    /// CoAP server (cloud side).
    pub coap_server: Option<CoapServer>,
}

/// Free-list of reusable byte buffers for the per-packet datapath, one
/// per world: a TCP segment encodes into a pooled buffer, the buffer
/// rides the IP queue or the wired link as the packet payload, and
/// [`BufPool::put`] recycles it wherever the packet ends (framed by
/// 6LoWPAN, delivered, or dropped). Packets cross nodes, so a pool per
/// node would run dry at a forwarder and overflow at the sink; one pool
/// gets every buffer back, and steady-state transfers stop allocating
/// per segment. The bytes are host memory: the simulated memory a
/// packet holds is what each node's governor accounts.
#[derive(Debug, Default)]
pub struct BufPool {
    free: Vec<Vec<u8>>,
}

/// Buffers retained in the free list; beyond this they just drop.
const BUF_POOL_CAP: usize = 16;

impl BufPool {
    /// Pops a cleared buffer, or a fresh one when the pool is empty.
    pub fn take(&mut self) -> Vec<u8> {
        self.free
            .pop()
            .map(|mut v| {
                v.clear();
                v
            })
            .unwrap_or_default()
    }

    /// Returns a buffer to the pool (capacity kept, contents ignored).
    pub fn put(&mut self, buf: Vec<u8>) {
        if self.free.len() < BUF_POOL_CAP {
            self.free.push(buf);
        }
    }
}

/// A packet waiting at the IP layer.
#[derive(Clone, Debug)]
pub struct OutPacket {
    /// IPv6 header (payload_len maintained by the stack).
    pub hdr: Ipv6Header,
    /// Transport payload (full TCP segment or UDP datagram bytes).
    pub payload: Vec<u8>,
    /// Link-layer next hop.
    pub next_hop: NodeId,
}

/// The IP-layer queue discipline on a node.
pub enum IpQueue {
    /// FIFO with tail drop (default; Appendix A's baseline).
    Fifo(FifoQueue<OutPacket>),
    /// RED with ECN marking (Appendix A's fix).
    Red(RedQueue<OutPacket>),
}

impl IpQueue {
    /// Byte weight a packet charges against the IP-queue budget.
    fn weight(pkt: &OutPacket) -> usize {
        pkt.payload.len() + IP_OVERHEAD_BYTES
    }

    /// Offers a packet; RED may CE-mark the stored copy. A dropped
    /// packet (tail drop on packets *or* bytes for FIFO; RED policy for
    /// RED) comes back as `Err`.
    pub fn offer(&mut self, pkt: OutPacket, rand01: f64) -> Result<(), OutPacket> {
        let w = Self::weight(&pkt);
        match self {
            IpQueue::Fifo(q) => q.offer_weighed(pkt, w),
            IpQueue::Red(q) => {
                let ecn = pkt.hdr.ecn;
                q.offer_with(pkt, ecn, rand01, |p| p.hdr.ecn = Ecn::Ce)
                    .map(|_| ())
            }
        }
    }

    /// Pops the head packet.
    pub fn pop(&mut self) -> Option<OutPacket> {
        match self {
            IpQueue::Fifo(q) => q.pop(),
            IpQueue::Red(q) => q.pop(),
        }
    }

    /// Queue depth.
    pub fn len(&self) -> usize {
        match self {
            IpQueue::Fifo(q) => q.len(),
            IpQueue::Red(q) => q.len(),
        }
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops so far.
    pub fn drops(&self) -> u64 {
        match self {
            IpQueue::Fifo(q) => q.drops(),
            IpQueue::Red(q) => q.drops(),
        }
    }

    /// Bytes currently queued (headers included), for the node budget.
    pub fn bytes(&self) -> usize {
        match self {
            IpQueue::Fifo(q) => q.bytes(),
            IpQueue::Red(q) => q.iter().map(Self::weight).sum(),
        }
    }
}

/// The in-progress MAC transmission.
pub struct CurrentTx {
    /// The frame being sent. Link retries send it again as it is; it is
    /// never encoded, since air time needs only its MPDU length.
    pub frame: FrameBuf,
    /// CSMA/retry state machine.
    pub process: TxProcess,
    /// Medium handle while on the air.
    pub handle: Option<TxHandle>,
    /// Pending MAC timer token (backoff/CCA/ack-wait), for cancellation.
    pub timer: Option<EventToken>,
}

/// One simulated node.
pub struct Node {
    /// Node id == radio index.
    pub id: NodeId,
    /// Role.
    pub kind: NodeKind,

    // --- MAC state ---
    /// Control frames (data requests, indirect data) — priority queue,
    /// bounded in frames and bytes by the node budget.
    pub ctrl_queue: FifoQueue<FrameBuf>,
    /// Frames of the packet currently being sent.
    pub cur_packet_frames: VecDeque<FrameBuf>,
    /// The transmission in progress.
    pub cur_tx: Option<CurrentTx>,
    /// MAC sequence counter.
    pub mac_seq: u8,
    /// Duplicate detection: last seq seen per neighbour. A node hears
    /// only a few neighbours, so a linear scan beats hashing.
    pub last_rx_seq: Vec<(NodeId, u8)>,

    // --- fault state ---
    /// True while the node is powered off (mid-reboot): it neither
    /// transmits, receives, nor runs timers, but its energy meter keeps
    /// accumulating (battery time passes).
    pub down: bool,
    /// Per-bit flip probability applied to frames this node receives
    /// (set during a [`crate::fault::FaultEvent::BitErrorBurst`]).
    pub ber: Option<f64>,
    /// Adversarial interposer on this node's inbound TCP path (torture
    /// suite; see [`crate::adversary`]).
    pub adversary: Option<crate::adversary::Adversary>,
    /// Resource-exhaustion attacker injecting forged SYNs/fragments at
    /// this node (overload suite; see [`crate::flood`]).
    pub flooder: Option<crate::flood::Flooder>,

    // --- radio state ---
    /// Radio powered (sleepy leaves toggle this).
    pub awake: bool,
    /// When the current listen period started (a frame is received only
    /// if we listened for its entire duration).
    pub listen_since: Instant,
    /// True while our own frame is on the air.
    pub transmitting: bool,

    // --- adaptation / IP ---
    /// 6LoWPAN reassembly.
    pub reassembler: Reassembler,
    /// Fragmentation tag counter.
    pub frag_tag: u16,
    /// IP send/forward queue.
    pub ip_queue: IpQueue,
    /// Routing table.
    pub routes: RouteTable,
    /// Uniform packet-loss rate injected when forwarding (the §9.4
    /// knob; nonzero only on the border router).
    pub inject_loss: f64,

    // --- sleepy children (router side) ---
    /// Children that sleep; packets for them go to the indirect queue.
    pub sleepy_children: HashSet<NodeId>,
    /// Indirect packet queue per sleepy child, bounded per child.
    pub indirect: HashMap<NodeId, FifoQueue<OutPacket>>,

    // --- sleepy leaf state ---
    /// Poll scheduler (leaf).
    pub poll: Option<lln_mac::poll::PollScheduler>,
    /// Token for the pending poll-wake event.
    pub poll_timer: Option<EventToken>,
    /// Deadline token for the listen window after a poll.
    pub poll_window: Option<EventToken>,
    /// A data request is in flight / response expected.
    pub polling: bool,
    /// Whether the current wake period fetched a downstream frame
    /// (drives the adaptive Trickle interval, Appendix C).
    pub poll_got_frame: bool,

    // --- transport / app ---
    /// Transport sockets.
    pub transport: TransportStack,
    /// Pending transport-timer token.
    pub transport_timer: Option<EventToken>,
    /// Reconnecting connection supervisor (survives reboots, like a
    /// flash-backed record queue).
    pub supervisor: Option<SupervisedConnection>,
    /// Application.
    pub app: App,

    // --- datapath fast path ---
    /// Per-neighbor IPHC compressed-header cache (tx fast path).
    pub iphc_cache: IphcCache,
    /// Scratch the IPHC compressor writes into, reused per packet.
    pub compress_buf: Vec<u8>,

    // --- accounting ---
    /// Energy meter.
    pub meter: EnergyMeter,
    /// Per-node counters (frames sent, drops, forwards...).
    pub counters: Counters<NodeCounter>,
    /// The memory budget every bounded structure above derives from.
    pub budget: NodeBudget,
    /// Cross-layer memory governor: per-class gauges, high-water marks
    /// and deny/evict counters (see [`Node::sync_governor`]).
    pub governor: MemGovernor,
}

impl Node {
    /// Creates a node with the given role and memory budget (use
    /// [`Node::apply_budget`] to change it before traffic).
    pub fn new(id: NodeId, kind: NodeKind, budget: NodeBudget, now: Instant) -> Self {
        let awake = kind != NodeKind::SleepyLeaf;
        let mut meter = EnergyMeter::new(now);
        if awake && kind != NodeKind::CloudHost && kind != NodeKind::Interferer {
            meter.set_radio_state(lln_energy::RadioState::Rx, now);
        }
        Node {
            id,
            kind,
            ctrl_queue: Self::ctrl_queue_for(&budget),
            cur_packet_frames: VecDeque::new(),
            cur_tx: None,
            // De-correlate sequence counters across nodes so overheard
            // ACKs rarely carry a matching sequence number.
            mac_seq: (id.0 as u8).wrapping_mul(37),
            last_rx_seq: Vec::new(),
            down: false,
            ber: None,
            adversary: None,
            flooder: None,
            awake,
            listen_since: now,
            transmitting: false,
            reassembler: Self::reassembler_for(&budget),
            frag_tag: id.0,
            ip_queue: Self::ip_queue_for(&budget),
            routes: RouteTable::new(),
            inject_loss: 0.0,
            sleepy_children: HashSet::new(),
            indirect: HashMap::new(),
            poll: None,
            poll_timer: None,
            poll_window: None,
            polling: false,
            poll_got_frame: false,
            transport: TransportStack::default(),
            transport_timer: None,
            supervisor: None,
            app: App::None,
            iphc_cache: IphcCache::new(),
            compress_buf: Vec::new(),
            meter,
            counters: Counters::new(),
            governor: MemGovernor::new(budget.clone()),
            budget,
        }
    }

    /// The budget-derived control queue (frames + bytes bounded).
    fn ctrl_queue_for(budget: &NodeBudget) -> FifoQueue<FrameBuf> {
        FifoQueue::with_byte_bound(CTRL_QUEUE_FRAMES, budget.cap(MemClass::MacQueue))
    }

    /// The budget-derived FIFO IP queue (packets + bytes bounded).
    fn ip_queue_for(budget: &NodeBudget) -> IpQueue {
        IpQueue::Fifo(FifoQueue::with_byte_bound(
            budget.ip_queue_packets,
            budget.cap(MemClass::IpQueue),
        ))
    }

    /// A budget-derived 6LoWPAN reassembler (quotas from the budget's
    /// reassembly class).
    pub fn reassembler_for(budget: &NodeBudget) -> Reassembler {
        Reassembler::with_limits(ReassemblyLimits {
            max_slots: REASSEMBLY_SLOTS,
            per_source_slots: REASSEMBLY_PER_SOURCE,
            max_bytes: budget.cap(MemClass::Reassembly),
            timeout: Duration::from_secs(4),
        })
    }

    /// Replaces the node's memory budget, rebuilding every bounded
    /// structure derived from it. Call before traffic flows (queues
    /// are reset empty).
    pub fn apply_budget(&mut self, budget: NodeBudget) {
        self.ctrl_queue = Self::ctrl_queue_for(&budget);
        self.reassembler = Self::reassembler_for(&budget);
        if matches!(self.ip_queue, IpQueue::Fifo(_)) {
            self.ip_queue = Self::ip_queue_for(&budget);
        }
        self.indirect.clear();
        self.governor = MemGovernor::new(budget.clone());
        self.budget = budget;
    }

    /// Switches this node's IP queue to RED/ECN (Appendix A).
    pub fn use_red_queue(&mut self, cfg: RedConfig) {
        self.ip_queue = IpQueue::Red(RedQueue::new(cfg));
    }

    /// Appends a control frame, charging its bytes against the MAC
    /// class. When the budget refuses, the drop is counted and the
    /// frame handed back as `Err`.
    pub fn enqueue_ctrl(&mut self, frame: FrameBuf) -> Result<(), FrameBuf> {
        let w = frame.frame().payload.len() + MAC_FRAME_BYTES;
        self.ctrl_queue.offer_weighed(frame, w).inspect_err(|_| {
            self.governor.note_deny(MemClass::MacQueue);
            self.counters.inc(NodeCounter::CtrlQueueDrops);
        })
    }

    /// Appends a packet to a sleepy child's indirect queue, bounded by
    /// the budget's per-child packet quota and the MAC byte class. A
    /// refused packet is counted and handed back as `Err`.
    pub fn enqueue_indirect(&mut self, child: NodeId, pkt: OutPacket) -> Result<(), OutPacket> {
        let w = pkt.payload.len() + IP_OVERHEAD_BYTES;
        let cap = self.budget.cap(MemClass::MacQueue);
        let q = self
            .indirect
            .entry(child)
            .or_insert_with(|| FifoQueue::with_byte_bound(INDIRECT_PACKETS, cap));
        q.offer_weighed(pkt, w).inspect_err(|_| {
            self.governor.note_deny(MemClass::MacQueue);
            self.counters.inc(NodeCounter::IndirectDrops);
        })
    }

    /// Bytes currently accounted to `class` by walking the owning
    /// structures (the governor's gauges are synced from this).
    fn accounted_bytes(&self, class: MemClass) -> usize {
        match class {
            MemClass::TcpBuffers => self
                .transport
                .tcp
                .iter()
                .map(TcpSocket::mem_footprint)
                .sum(),
            MemClass::SynCache => self
                .transport
                .tcp_listener
                .as_ref()
                .map_or(0, ListenSocket::half_open_bytes),
            MemClass::Reassembly => self.reassembler.pending_bytes(),
            MemClass::IpQueue => self.ip_queue.bytes(),
            MemClass::MacQueue => {
                let cur: usize = self
                    .cur_packet_frames
                    .iter()
                    .map(|f| f.frame().payload.len() + MAC_FRAME_BYTES)
                    .sum();
                let ind: usize = self.indirect.values().map(FifoQueue::bytes).sum();
                self.ctrl_queue.bytes() + cur + ind
            }
            MemClass::CoapRetx => self
                .transport
                .coap_client
                .as_ref()
                .map_or(0, CoapClient::pending_bytes),
        }
    }

    /// The governor's upkeep; called by the world after any step that
    /// can change occupancy, so high-water marks are exact.
    ///
    /// Recomputes every class gauge from the owning structures. Only
    /// classes whose bytes moved are written. Skipping the rest is
    /// exact: every gauge write goes through [`MemGovernor::set_gauge`],
    /// which keeps each high-water mark at or above its gauge and the
    /// total high-water mark at or above the total, so rewriting an
    /// unchanged gauge changes nothing.
    ///
    /// The reassembler and the listener decide their own denies and
    /// evictions and count them cumulatively; the governor's Reassembly
    /// and SynCache counts are raised to those totals. Both owners live
    /// as long as the node (a reboot clears the reassembler in place),
    /// so the totals never fall below what the governor has seen.
    pub fn sync_governor(&mut self) {
        let r = &self.reassembler;
        catch_up(
            &mut self.governor,
            MemClass::Reassembly,
            r.denied_slots + r.denied_bytes,
            r.timeouts + r.evicted_source,
        );
        if let Some(l) = &self.transport.tcp_listener {
            let s = &l.stats;
            catch_up(
                &mut self.governor,
                MemClass::SynCache,
                s.backlog_denied,
                s.evicted_oldest + s.expired,
            );
        }
        for class in MemClass::ALL {
            let bytes = self.accounted_bytes(class);
            if self.governor.gauge(class) != bytes as u64 {
                self.governor.set_gauge(class, bytes);
            }
        }
    }

    /// The node's mesh-local address (cloud hosts use the cloud prefix).
    pub fn ip_addr(&self) -> Ipv6Addr {
        match self.kind {
            NodeKind::CloudHost => self.id.cloud_addr(),
            _ => self.id.mesh_addr(),
        }
    }

    /// Next MAC sequence number.
    pub fn next_seq(&mut self) -> u8 {
        self.mac_seq = self.mac_seq.wrapping_add(1);
        self.mac_seq
    }

    /// Next 6LoWPAN datagram tag.
    pub fn next_tag(&mut self) -> u16 {
        self.frag_tag = self.frag_tag.wrapping_add(1);
        self.frag_tag
    }

    /// Is a duplicate of an already-processed frame? Updates the table.
    pub fn check_duplicate(&mut self, src: NodeId, seq: u8) -> bool {
        match self.last_rx_seq.iter_mut().find(|(s, _)| *s == src) {
            Some((_, last)) => std::mem::replace(last, seq) == seq,
            None => {
                self.last_rx_seq.push((src, seq));
                false
            }
        }
    }

    /// Whether the transport expects inbound traffic soon (drives the
    /// §9.2 fast-poll behaviour on sleepy leaves).
    pub fn expecting_response(&self) -> bool {
        let tcp_waiting = self
            .transport
            .tcp
            .iter()
            .any(|s| s.flight_size() > 0 || s.state() == tcplp::TcpState::SynSent);
        let coap_waiting = self
            .transport
            .coap_client
            .as_ref()
            .is_some_and(CoapClient::expecting_response);
        tcp_waiting || coap_waiting
    }
}

/// Raises the governor's deny and eviction counts for `class` to an
/// owner's cumulative totals.
fn catch_up(governor: &mut MemGovernor, class: MemClass, denies: u64, evictions: u64) {
    if denies > governor.denies(class) {
        governor.note_denies(class, denies - governor.denies(class));
    }
    if evictions > governor.evictions(class) {
        governor.note_evictions(class, evictions - governor.evictions(class));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lln_mac::frame::MacFrame;

    fn node(kind: NodeKind) -> Node {
        Node::new(NodeId(3), kind, NodeBudget::default(), Instant::ZERO)
    }

    #[test]
    fn router_starts_awake_leaf_asleep() {
        assert!(node(NodeKind::Router).awake);
        assert!(!node(NodeKind::SleepyLeaf).awake);
    }

    #[test]
    fn addresses_by_kind() {
        assert!(node(NodeKind::Router).ip_addr().is_mesh_local());
        assert!(!node(NodeKind::CloudHost).ip_addr().is_mesh_local());
    }

    #[test]
    fn duplicate_detection_per_source() {
        let mut n = node(NodeKind::Router);
        assert!(!n.check_duplicate(NodeId(1), 5));
        assert!(n.check_duplicate(NodeId(1), 5));
        assert!(!n.check_duplicate(NodeId(1), 6));
        assert!(!n.check_duplicate(NodeId(2), 6), "per-source tracking");
        assert!(n.check_duplicate(NodeId(2), 6));
        assert!(
            n.check_duplicate(NodeId(1), 6),
            "a second source leaves the first intact"
        );
        assert_eq!(n.last_rx_seq.len(), 2, "one entry per source");
        // A reboot wipes the table (as `World` does on power loss): each
        // source's last frame is accepted again.
        n.last_rx_seq.clear();
        assert!(!n.check_duplicate(NodeId(1), 6));
        assert!(!n.check_duplicate(NodeId(2), 6));
    }

    #[test]
    fn seq_and_tag_advance() {
        let mut n = node(NodeKind::Router);
        let a = n.next_seq();
        let b = n.next_seq();
        assert_ne!(a, b);
        assert_ne!(n.next_tag(), n.next_tag());
    }

    #[test]
    fn enqueue_ctrl_queues_the_frame() {
        let mut n = node(NodeKind::Router);
        assert!(n.ctrl_queue.is_empty());
        assert!(n
            .enqueue_ctrl(FrameBuf::new(MacFrame::data(
                NodeId(3),
                NodeId(1),
                0,
                vec![]
            )))
            .is_ok());
        assert_eq!(n.ctrl_queue.len(), 1);
    }

    #[test]
    fn ctrl_queue_bounded_by_budget() {
        let mut n = node(NodeKind::Router);
        for k in 0..CTRL_QUEUE_FRAMES {
            assert!(
                n.enqueue_ctrl(FrameBuf::new(MacFrame::data(
                    NodeId(3),
                    NodeId(1),
                    k as u8,
                    vec![0; 8]
                )))
                .is_ok(),
                "frame {k} fits"
            );
        }
        let refused = n
            .enqueue_ctrl(FrameBuf::new(MacFrame::data(
                NodeId(3),
                NodeId(1),
                0xAB,
                vec![7; 8],
            )))
            .expect_err("the queue is full");
        assert_eq!(
            (refused.frame().seq, &refused.frame().payload[..]),
            (0xAB, &[7; 8][..]),
            "the refused frame comes back"
        );
        assert_eq!(n.counters.get("ctrl_queue_drops"), 1);
        assert_eq!(n.governor.denies(MemClass::MacQueue), 1);
    }

    #[test]
    fn indirect_queue_bounded_by_budget() {
        let mut n = node(NodeKind::Router);
        let pkt = |payload: usize| OutPacket {
            hdr: Ipv6Header::new(
                NodeId(3).mesh_addr(),
                NodeId(7).mesh_addr(),
                lln_netip::NextHeader::Udp,
                payload as u16,
            ),
            payload: vec![0; payload],
            next_hop: NodeId(7),
        };
        let refused = |n: &Node| {
            (
                n.counters.get("indirect_drops"),
                n.governor.denies(MemClass::MacQueue),
            )
        };

        // Small packets: the per-child packet quota binds.
        for k in 0..INDIRECT_PACKETS {
            assert!(
                n.enqueue_indirect(NodeId(7), pkt(8)).is_ok(),
                "packet {k} fits"
            );
        }
        let back = n
            .enqueue_indirect(NodeId(7), pkt(9))
            .expect_err("packet quota");
        assert_eq!(back.payload.len(), 9, "the refused packet comes back");
        assert_eq!(refused(&n), (1, 1));

        // Large packets to another child: the MAC byte cap binds first.
        let payload = 2000;
        let fit = n.budget.cap(MemClass::MacQueue) / (payload + IP_OVERHEAD_BYTES);
        assert!(
            fit < INDIRECT_PACKETS,
            "the byte cap binds before the quota"
        );
        for k in 0..fit {
            assert!(
                n.enqueue_indirect(NodeId(8), pkt(payload)).is_ok(),
                "packet {k} fits"
            );
        }
        let back = n
            .enqueue_indirect(NodeId(8), pkt(payload))
            .expect_err("byte cap");
        assert_eq!(back.payload.len(), payload, "the refused packet comes back");
        assert_eq!(refused(&n), (2, 2));
        assert_eq!(n.indirect[&NodeId(7)].len(), INDIRECT_PACKETS);
        assert_eq!(n.indirect[&NodeId(8)].len(), fit);
    }

    #[test]
    fn governor_gauges_track_structures() {
        let mut n = node(NodeKind::Router);
        n.sync_governor();
        assert_eq!(n.governor.total_gauge(), 0, "idle node pins nothing");
        let pkt = OutPacket {
            hdr: Ipv6Header::new(
                NodeId(3).mesh_addr(),
                NodeId(1).mesh_addr(),
                lln_netip::NextHeader::Tcp,
                100,
            ),
            payload: vec![0; 100],
            next_hop: NodeId(1),
        };
        assert!(n.ip_queue.offer(pkt, 0.5).is_ok());
        n.sync_governor();
        assert_eq!(
            n.governor.gauge(MemClass::IpQueue),
            (100 + IP_OVERHEAD_BYTES) as u64
        );
        n.ip_queue.pop();
        n.sync_governor();
        assert_eq!(n.governor.gauge(MemClass::IpQueue), 0);
        assert_eq!(
            n.governor.high_water(MemClass::IpQueue),
            (100 + IP_OVERHEAD_BYTES) as u64,
            "high-water survives the drain"
        );
    }

    #[test]
    fn ip_queue_fifo_drops_when_full() {
        let mut n = node(NodeKind::Router);
        let pkt = OutPacket {
            hdr: Ipv6Header::new(
                NodeId(3).mesh_addr(),
                NodeId(1).mesh_addr(),
                lln_netip::NextHeader::Tcp,
                0,
            ),
            payload: vec![],
            next_hop: NodeId(1),
        };
        for _ in 0..24 {
            assert!(n.ip_queue.offer(pkt.clone(), 0.5).is_ok());
        }
        let back = n.ip_queue.offer(pkt, 0.5).expect_err("the queue is full");
        assert_eq!(back.next_hop, NodeId(1), "the refused packet comes back");
        assert_eq!(n.ip_queue.drops(), 1);
        assert_eq!(n.ip_queue.len(), 24);
    }
}
