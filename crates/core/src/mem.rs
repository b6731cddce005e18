//! Cross-layer per-node memory governor.
//!
//! TCPlp's core claim (§4.3) is that full-scale TCP fits in mote-class
//! RAM only because every buffer is bounded and accounted: the
//! zero-copy send buffer, the in-place reassembly queue, and the
//! fixed-size protocol control blocks all come out of a budget the
//! platform can actually afford. This module makes that budget an
//! explicit, testable object: every allocating subsystem on a node —
//! TCP send/receive buffers and control blocks, the SYN cache,
//! 6LoWPAN reassembly slots, the IP forwarding queue, the MAC-layer
//! control/indirect queues, and CoAP retransmit state — is assigned a
//! *class* with a byte cap, and the node layer keeps a gauge of what
//! each class currently holds. Admission decisions (accept a
//! connection? queue a packet? open a reassembly slot?) consult the
//! governor, and every refusal or eviction is counted
//! [`crate::TcpStats`]-style so same-seed runs can be compared
//! digest-for-digest.
//!
//! The governor is deliberately *passive*: it owns no memory and frees
//! nothing itself. Subsystems keep their own structures; the governor
//! is the ledger they report to and the gatekeeper they ask before
//! growing. This keeps it dependency-free (usable from unit tests) and
//! keeps the eviction *policy* — oldest half-open connection first,
//! then idle reassembly slots, never established-connection buffers —
//! in the layers that own the state.

/// Accounting classes, one per allocating subsystem.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum MemClass {
    /// Established/active TCP connections: send + receive buffers plus
    /// the fixed control-block cost ([`TCP_CB_BYTES`]). Never evicted.
    TcpBuffers,
    /// Half-open connection state in the listener's SYN cache
    /// ([`SYN_ENTRY_BYTES`] per slot). First in line for eviction.
    SynCache,
    /// 6LoWPAN reassembly: partial-datagram buffers plus per-slot
    /// bookkeeping ([`REASM_SLOT_BYTES`]). Reclaimed on timeout.
    Reassembly,
    /// The IP send/forward queue (packet payloads plus
    /// [`IP_OVERHEAD_BYTES`] of header per packet).
    IpQueue,
    /// MAC-layer queues: control frames, the fragments of the packet
    /// in flight, and indirect queues held for sleepy children.
    MacQueue,
    /// CoAP client retransmit state (queued and unacknowledged
    /// messages).
    CoapRetx,
}

impl MemClass {
    /// Every class, in declaration (and digest) order.
    pub const ALL: [MemClass; 6] = [
        MemClass::TcpBuffers,
        MemClass::SynCache,
        MemClass::Reassembly,
        MemClass::IpQueue,
        MemClass::MacQueue,
        MemClass::CoapRetx,
    ];

    /// Stable index into per-class arrays.
    pub fn idx(self) -> usize {
        match self {
            MemClass::TcpBuffers => 0,
            MemClass::SynCache => 1,
            MemClass::Reassembly => 2,
            MemClass::IpQueue => 3,
            MemClass::MacQueue => 4,
            MemClass::CoapRetx => 5,
        }
    }

    /// Short display name (for benches and reports).
    pub fn name(self) -> &'static str {
        match self {
            MemClass::TcpBuffers => "tcp",
            MemClass::SynCache => "syncache",
            MemClass::Reassembly => "reasm",
            MemClass::IpQueue => "ipq",
            MemClass::MacQueue => "macq",
            MemClass::CoapRetx => "coap",
        }
    }
}

/// Fixed cost of one TCP protocol control block. The paper reports a
/// 364 B TCB for TCPlp on its embedded platforms (Table 3); we round
/// up to an 8-byte boundary.
pub const TCP_CB_BYTES: usize = 368;

/// Cost of one SYN-cache entry: the 4-tuple, both ISNs, negotiated
/// options and two timestamps — the RFC 4987 design point that a
/// half-open connection must cost a few dozen bytes, not a full TCB.
pub const SYN_ENTRY_BYTES: usize = 48;

/// Per-packet header overhead charged to queued IP packets (an
/// uncompressed IPv6 header; next-hop and bookkeeping ride inside it).
pub const IP_OVERHEAD_BYTES: usize = 40;

/// Per-slot bookkeeping charged to a 6LoWPAN reassembly buffer on top
/// of the datagram bytes (the per-8-byte-unit bitmap plus metadata).
pub const REASM_SLOT_BYTES: usize = 64;

/// Per-frame overhead charged to MAC-queue entries (header + radio
/// driver descriptor).
pub const MAC_FRAME_BYTES: usize = 24;

/// Per-node budget: byte caps per class, the accept backlog and the IP
/// queue depth. The node layer's fixed slot and depth limits
/// (reassembly, control and indirect queues) are constants beside
/// their reader in `lln_node::stack`.
///
/// Defaults model a 64 KiB-SRAM mote (the paper's Firestorm class;
/// its Hamilton runs half of this with halved buffers). The class caps
/// sum to 63 872 B, leaving headroom under [`NodeBudget::total`] for
/// stacks and globals the simulator does not model. See DESIGN.md §10
/// for the sizing math.
#[derive(Clone, Debug)]
pub struct NodeBudget {
    /// Byte cap per [`MemClass`] (indexed by [`MemClass::idx`]).
    pub caps: [usize; 6],
    /// Whole-node cap; the sum of gauges must stay under this even if
    /// individual classes have room.
    pub total: usize,
    /// Accepted-but-active connection backlog the listener enforces.
    pub accept_backlog: usize,
    /// IP queue depth in packets (byte cap rides on top).
    pub ip_queue_packets: usize,
}

impl Default for NodeBudget {
    fn default() -> Self {
        let mut caps = [0usize; 6];
        // 4 connections of (1848 send + 1848 recv + 368 TCB) = 16 256 B.
        caps[MemClass::TcpBuffers.idx()] = 16 * 1024;
        // 8 half-open slots x 48 B.
        caps[MemClass::SynCache.idx()] = 8 * SYN_ENTRY_BYTES;
        // 8 slots; a full-size compressed datagram is ~550 B.
        caps[MemClass::Reassembly.idx()] = 8 * 1024;
        // 24 packets x (502 B payload + 40 B header) = 13 008 B.
        caps[MemClass::IpQueue.idx()] = 14 * 1024;
        // Control frames + in-flight fragments + indirect queues.
        caps[MemClass::MacQueue.idx()] = 22 * 1024;
        // One outstanding CoAP exchange plus a short queue.
        caps[MemClass::CoapRetx.idx()] = 2 * 1024;
        NodeBudget {
            caps,
            total: 64 * 1024,
            accept_backlog: 8,
            ip_queue_packets: 24,
        }
    }
}

impl NodeBudget {
    /// The byte cap for `class`.
    pub fn cap(&self, class: MemClass) -> usize {
        self.caps[class.idx()]
    }
}

/// The per-node ledger: current gauges, high-water marks, and
/// deny/evict counters for every [`MemClass`].
#[derive(Clone, Debug)]
pub struct MemGovernor {
    budget: NodeBudget,
    gauge: [u64; 6],
    high_water: [u64; 6],
    total_high_water: u64,
    denies: [u64; 6],
    evictions: [u64; 6],
}

impl Default for MemGovernor {
    fn default() -> Self {
        MemGovernor::new(NodeBudget::default())
    }
}

impl MemGovernor {
    /// Creates a governor over `budget` with empty gauges.
    pub fn new(budget: NodeBudget) -> Self {
        MemGovernor {
            budget,
            gauge: [0; 6],
            high_water: [0; 6],
            total_high_water: 0,
            denies: [0; 6],
            evictions: [0; 6],
        }
    }

    /// The budget this governor enforces.
    pub fn budget(&self) -> &NodeBudget {
        &self.budget
    }

    /// Current accounted bytes in `class`.
    pub fn gauge(&self, class: MemClass) -> u64 {
        self.gauge[class.idx()]
    }

    /// Sum of all gauges.
    pub fn total_gauge(&self) -> u64 {
        self.gauge.iter().sum()
    }

    /// Highest value `class`'s gauge has reached.
    pub fn high_water(&self, class: MemClass) -> u64 {
        self.high_water[class.idx()]
    }

    /// Highest value the total gauge has reached.
    pub fn total_high_water(&self) -> u64 {
        self.total_high_water
    }

    /// Admissions refused for `class`.
    pub fn denies(&self, class: MemClass) -> u64 {
        self.denies[class.idx()]
    }

    /// Evictions performed on behalf of `class`.
    pub fn evictions(&self, class: MemClass) -> u64 {
        self.evictions[class.idx()]
    }

    /// Reports `class`'s current holdings (the owning subsystem
    /// recomputes its live byte count and the governor records it,
    /// updating high-water marks).
    pub fn set_gauge(&mut self, class: MemClass, bytes: usize) {
        let i = class.idx();
        self.gauge[i] = bytes as u64;
        if self.gauge[i] > self.high_water[i] {
            self.high_water[i] = self.gauge[i];
        }
        let total = self.total_gauge();
        if total > self.total_high_water {
            self.total_high_water = total;
        }
    }

    /// Would admitting `extra` bytes into `class` stay within both the
    /// class cap and the whole-node cap?
    pub fn would_fit(&self, class: MemClass, extra: usize) -> bool {
        let i = class.idx();
        self.gauge[i] + extra as u64 <= self.budget.caps[i] as u64
            && self.total_gauge() + extra as u64 <= self.budget.total as u64
    }

    /// Admission check: true (and the gauge grows) when `extra` bytes
    /// fit; false (and the deny is counted) otherwise. The caller must
    /// re-sync the gauge once the allocation is actually made.
    pub fn try_admit(&mut self, class: MemClass, extra: usize) -> bool {
        if self.would_fit(class, extra) {
            let cur = self.gauge[class.idx()] as usize;
            self.set_gauge(class, cur + extra);
            true
        } else {
            self.denies[class.idx()] += 1;
            false
        }
    }

    /// Counts a refusal decided outside [`MemGovernor::try_admit`].
    pub fn note_deny(&mut self, class: MemClass) {
        self.denies[class.idx()] += 1;
    }

    /// Counts `n` evictions at once (for mirroring subsystem counters).
    pub fn note_evictions(&mut self, class: MemClass, n: u64) {
        self.evictions[class.idx()] += n;
    }

    /// Counts `n` denies at once (for mirroring subsystem counters).
    pub fn note_denies(&mut self, class: MemClass, n: u64) {
        self.denies[class.idx()] += n;
    }

    /// Stable FNV-1a digest over gauges, high-water marks and
    /// counters, in declaration order — same contract as
    /// [`crate::TcpStats::digest`]: two same-seed runs must match.
    pub fn digest(&self) -> u64 {
        let mut h = lln_sim::Fnv1a::new();
        for i in 0..6 {
            h.write_u64(self.gauge[i]);
            h.write_u64(self.high_water[i]);
            h.write_u64(self.denies[i]);
            h.write_u64(self.evictions[i]);
        }
        h.write_u64(self.total_high_water);
        h.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_budget_sums_under_total() {
        let b = NodeBudget::default();
        let sum: usize = b.caps.iter().sum();
        assert!(
            sum <= b.total,
            "class caps ({sum} B) must fit the node total ({} B)",
            b.total
        );
        // Four default-config connections must fit the TCP class.
        assert!(4 * (1848 + 1848 + TCP_CB_BYTES) <= b.cap(MemClass::TcpBuffers));
        // The SYN cache cap holds a whole number of entries.
        assert_eq!(b.cap(MemClass::SynCache) % SYN_ENTRY_BYTES, 0);
    }

    #[test]
    fn gauges_track_high_water() {
        let mut g = MemGovernor::default();
        g.set_gauge(MemClass::IpQueue, 1000);
        g.set_gauge(MemClass::IpQueue, 400);
        assert_eq!(g.gauge(MemClass::IpQueue), 400);
        assert_eq!(g.high_water(MemClass::IpQueue), 1000);
        assert_eq!(g.total_high_water(), 1000);
    }

    #[test]
    fn class_cap_denies_and_counts() {
        let mut b = NodeBudget::default();
        b.caps[MemClass::SynCache.idx()] = 100;
        let mut g = MemGovernor::new(b);
        assert!(g.try_admit(MemClass::SynCache, 60));
        assert!(!g.try_admit(MemClass::SynCache, 60));
        assert_eq!(g.denies(MemClass::SynCache), 1);
        assert_eq!(g.gauge(MemClass::SynCache), 60);
    }

    #[test]
    fn total_cap_binds_across_classes() {
        let b = NodeBudget {
            total: 1000,
            caps: [800; 6],
            ..NodeBudget::default()
        };
        let mut g = MemGovernor::new(b);
        assert!(g.try_admit(MemClass::TcpBuffers, 700));
        assert!(
            !g.try_admit(MemClass::IpQueue, 500),
            "class has room but the node total is exhausted"
        );
        assert_eq!(g.denies(MemClass::IpQueue), 1);
    }

    #[test]
    fn digest_is_stable_and_sensitive() {
        let mut a = MemGovernor::default();
        let mut b = MemGovernor::default();
        a.set_gauge(MemClass::Reassembly, 512);
        b.set_gauge(MemClass::Reassembly, 512);
        assert_eq!(a.digest(), b.digest());
        b.note_deny(MemClass::Reassembly);
        assert_ne!(a.digest(), b.digest());
    }

    #[test]
    fn eviction_counters_accumulate() {
        let mut g = MemGovernor::default();
        g.note_evictions(MemClass::SynCache, 1);
        g.note_evictions(MemClass::SynCache, 3);
        assert_eq!(g.evictions(MemClass::SynCache), 4);
    }
}
