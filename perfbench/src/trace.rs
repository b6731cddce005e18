//! The traced mode: per-layer cost, attributed from outside the program.
//!
//! A traced repetition steps the world one timestamp at a time with
//! `queue.peek_time()` + `run_until(t)`, timing every step and counting
//! its allocations. After each step it samples public state and copies
//! every frame that newly went on the air (`nodes[i].cur_tx`), and it
//! counts link ACKs as rising edges of a node transmitting without a
//! data frame on the air. Every `BATCH_STEPS` steps the captured traffic
//! is replayed through the entry points the world calls on that path,
//! with a timer and the allocation counter around each call:
//!
//! - `lln-sim`: `EventQueue::schedule`/`pop`, driven to the world's
//!   sampled queue depth at every step;
//! - `lln-phy`: `Medium::cca_busy`, `begin_tx`, `end_tx`;
//! - `lln-mac`: `FramePool::alloc`/`reclaim` and the `TxProcess` steps;
//! - `lln-sixlowpan`: `Reassembler::offer`, `decompress_view`,
//!   `IphcCache::compress_into`, `fragment`;
//! - `lln-netip`: `IpQueue::offer`/`pop`;
//! - `tcplp`: `Segment::decode_view`, `TcpSocket::on_segment_view` (on
//!   socket snapshots cloned from the world when the batch began) and
//!   `recv`, `Segment::encode_into`, and `ListenSocket::on_segment`,
//!   including the flood's forged SYN stream.
//!
//! What the steps cost beyond the replayed layer time is the `lln-node`
//! glue: dispatch, pumping, supervision, counters and governor upkeep.

use crate::alloc;
use crate::e2e;
use crate::report::{fastest, Metric};
use crate::workload::{Run, Workload};
use lln_mac::frame::{FrameType, MacFrame, MAX_MAC_PAYLOAD};
use lln_mac::{FramePool, TxProcess, TxStep};
use lln_netip::{FifoQueue, Ipv6Addr, NextHeader, NodeId};
use lln_node::flood::Flooder;
use lln_node::stack::{IpQueue, Node, NodeKind, OutPacket};
use lln_node::world::World;
use lln_phy::{Medium, RadioIdx, TxHandle};
use lln_sim::{EventQueue, Instant, Rng};
use lln_sixlowpan::{decompress_view, fragment, IphcCache, Reassembler};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::time::Instant as Wall;
use tcplp::{Flags, ListenSocket, ListenerResponse, MemClass, Segment, TcpSeq, TcpSocket};

/// Steps captured before their traffic is replayed (bounds memory).
const BATCH_STEPS: usize = 16_384;

/// Time, allocations and calls spent in one replayed entry point.
#[derive(Clone, Copy, Debug, Default)]
pub struct Span {
    /// Wall nanoseconds inside the calls.
    pub ns: u64,
    /// Allocation calls made inside them.
    pub allocs: u64,
    /// Number of calls.
    pub calls: u64,
}

impl Span {
    /// Runs `f`, charging its time and allocations to this span.
    pub fn time<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let a0 = alloc::allocs();
        let t0 = Wall::now();
        let r = f();
        self.ns += t0.elapsed().as_nanos() as u64;
        self.allocs += alloc::allocs() - a0;
        self.calls += 1;
        r
    }
}

/// Replayed cost per layer entry point, plus replay bookkeeping.
#[derive(Clone, Debug, Default)]
pub struct Layers {
    /// `EventQueue::schedule` and `pop`.
    pub queue: Span,
    /// `Medium::cca_busy`, `begin_tx`, `end_tx`.
    pub medium: Span,
    /// `FramePool::alloc` and `reclaim`.
    pub pool: Span,
    /// `TxProcess` steps.
    pub txproc: Span,
    /// `Reassembler::offer`.
    pub reassemble: Span,
    /// `decompress_view`.
    pub decompress: Span,
    /// `IphcCache::compress_into`.
    pub compress: Span,
    /// `fragment`.
    pub fragment: Span,
    /// `IpQueue::offer` and `pop`.
    pub ipq: Span,
    /// `Segment::decode_view`.
    pub decode: Span,
    /// `TcpSocket::tick` + `on_segment_view`.
    pub input: Span,
    /// `TcpSocket::recv` until drained.
    pub recv: Span,
    /// `Segment::encode_into`.
    pub encode: Span,
    /// `ListenSocket::on_segment`.
    pub listen: Span,
    /// Packets reassembled by the replay.
    pub packets: u64,
    /// Of which forwarded by the receiving node.
    pub forwarded: u64,
    /// TCP segments delivered to an endpoint.
    pub segments: u64,
    /// Bytes drained by `recv`.
    pub recv_bytes: u64,
    /// Replayed segments whose re-encoding differed from the wire bytes.
    pub encode_mismatches: u64,
    /// Re-compressed packets that differed from the reassembled bytes.
    pub compress_mismatches: u64,
    /// Forged SYNs replayed through a listener.
    pub forged_syns: u64,
}

impl Layers {
    /// Sum of every replayed span.
    fn total(&self) -> Span {
        let all = [
            self.queue,
            self.medium,
            self.pool,
            self.txproc,
            self.reassemble,
            self.decompress,
            self.compress,
            self.fragment,
            self.ipq,
            self.decode,
            self.input,
            self.recv,
            self.encode,
            self.listen,
        ];
        all.iter().fold(Span::default(), |a, s| Span {
            ns: a.ns + s.ns,
            allocs: a.allocs + s.allocs,
            calls: a.calls + s.calls,
        })
    }
}

/// One transmission seen on the air.
struct Tx {
    src: usize,
    /// When the CCA that cleared it completed (data frames only).
    cca_at: Instant,
    start: Instant,
    end: Instant,
    /// Radios in receive state when it began.
    listeners: Vec<RadioIdx>,
    kind: TxKind,
}

enum TxKind {
    /// A link ACK.
    Ack,
    /// A retransmission of the node's current data frame.
    Retry { ack_request: bool },
    /// A data or command frame's first transmission; `dropped` once the
    /// MAC gave up on it.
    First { frame: MacFrame, dropped: bool },
}

/// A node's transport state when the batch began.
#[derive(Default)]
struct Snapshot {
    sockets: Vec<TcpSocket>,
    listener: Option<ListenSocket>,
}

/// Replay state that persists across batches.
struct Replayer {
    queue: EventQueue<u32>,
    medium: Medium,
    pending_ends: BinaryHeap<Reverse<(Instant, u64)>>,
    open: Vec<(u64, TxHandle, Vec<RadioIdx>)>,
    next_tx: u64,
    pool: FramePool,
    reasm: Vec<Reassembler>,
    iphc: Vec<IphcCache>,
    ipq: Vec<IpQueue>,
    snaps: Vec<Snapshot>,
    addrs: Vec<Ipv6Addr>,
    rng: Rng,
    mac_cfg: lln_mac::MacConfig,
    scratch: Vec<u8>,
    iss: u32,
    layers: Layers,
}

fn ip_queue_for(node: &Node) -> IpQueue {
    IpQueue::Fifo(FifoQueue::with_byte_bound(
        node.budget.ip_queue_packets,
        node.budget.cap(MemClass::IpQueue),
    ))
}

fn snapshot(world: &World) -> Vec<Snapshot> {
    world
        .nodes
        .iter()
        .map(|n| Snapshot {
            sockets: n.transport.tcp.clone(),
            listener: n.transport.tcp_listener.clone(),
        })
        .collect()
}

impl Replayer {
    fn new(world: &World, seed: u64) -> Self {
        Replayer {
            queue: EventQueue::new(),
            medium: Medium::new(world.medium.links().clone(), Rng::new(seed ^ 0x7ACE)),
            pending_ends: BinaryHeap::new(),
            open: Vec::new(),
            next_tx: 0,
            pool: FramePool::default(),
            reasm: world
                .nodes
                .iter()
                .map(|n| Node::reassembler_for(&n.budget))
                .collect(),
            iphc: world.nodes.iter().map(|_| IphcCache::new()).collect(),
            ipq: world.nodes.iter().map(ip_queue_for).collect(),
            snaps: snapshot(world),
            addrs: world.nodes.iter().map(Node::ip_addr).collect(),
            rng: Rng::new(seed ^ 0x5EED_7ACE),
            mac_cfg: world.cfg.mac.clone(),
            scratch: Vec::new(),
            iss: 1,
            layers: Layers::default(),
        }
    }

    /// Replays the event queue: before each step the replay queue is
    /// brought to the world's depth (scheduling at later step times),
    /// then the step's event is popped.
    fn replay_queue(&mut self, steps: &[(Instant, u32)]) {
        let l = &mut self.layers;
        for (k, &(t, depth)) in steps.iter().enumerate() {
            let mut ahead = k + 1;
            while self.queue.len() < depth as usize {
                let at = steps.get(ahead).map_or(t, |s| s.0);
                ahead += 1;
                l.queue.time(|| self.queue.schedule(at, k as u32));
            }
            while self.queue.len() > depth as usize {
                l.queue.time(|| self.queue.pop());
            }
            l.queue.time(|| self.queue.pop());
        }
    }

    /// Closes every replayed transmission that ended by `until`.
    fn end_medium(&mut self, until: Instant) {
        while let Some(&Reverse((end, id))) = self.pending_ends.peek() {
            if end > until {
                break;
            }
            self.pending_ends.pop();
            let i = self.open.iter().position(|o| o.0 == id).expect("open tx");
            let (_, handle, listeners) = self.open.swap_remove(i);
            self.layers
                .medium
                .time(|| self.medium.end_tx(handle, &listeners));
        }
    }

    fn replay_tx(&mut self, world: &World, tx: Tx) {
        // Medium: the clearing CCA (data frames), then the transmission.
        self.end_medium(tx.start);
        if !matches!(tx.kind, TxKind::Ack) {
            self.end_medium(tx.cca_at);
            let m = &self.medium;
            self.layers
                .medium
                .time(|| m.cca_busy(RadioIdx(tx.src), tx.cca_at));
        }
        let handle = self
            .layers
            .medium
            .time(|| self.medium.begin_tx(RadioIdx(tx.src), tx.start, tx.end));
        let id = self.next_tx;
        self.next_tx += 1;
        self.open.push((id, handle, tx.listeners));
        self.pending_ends.push(Reverse((tx.end, id)));

        // MAC: the transmit state machine for this attempt, and the
        // frame buffer for a first transmission.
        let l = &mut self.layers;
        let rng = &mut self.rng;
        match tx.kind {
            TxKind::Ack => {}
            TxKind::Retry { ack_request } => {
                let cfg = self.mac_cfg.clone();
                l.txproc.time(|| {
                    let mut p = TxProcess::new(cfg, ack_request);
                    p.start(rng);
                    if ack_request {
                        p.on_cca(false, rng);
                        p.on_tx_done();
                        p.on_ack_timeout(rng);
                    }
                    p.on_cca(false, rng);
                    p.on_tx_done()
                });
            }
            TxKind::First { frame, dropped } => {
                let ack_request = frame.ack_request;
                let cfg = self.mac_cfg.clone();
                l.txproc.time(|| {
                    let mut p = TxProcess::new(cfg, ack_request);
                    p.start(rng);
                    p.on_cca(false, rng);
                    match p.on_tx_done() {
                        TxStep::AwaitAck => p.on_ack(),
                        s => s,
                    }
                });
                if frame.frame_type == FrameType::Data && !dropped {
                    self.replay_packet(world, tx.src, tx.end, &frame);
                }
                let pool = &mut self.pool;
                let buf = self.layers.pool.time(|| pool.alloc(frame));
                self.layers.pool.time(|| pool.reclaim(buf));
            }
        }
    }

    /// 6LoWPAN, IP and TCP for one first-transmitted data frame.
    fn replay_packet(&mut self, world: &World, src: usize, at: Instant, frame: &MacFrame) {
        let dst = frame.dst.0 as usize;
        if dst >= self.reasm.len() {
            return;
        }
        let l = &mut self.layers;
        let reasm = &mut self.reasm[dst];
        let Some(packet) = l
            .reassemble
            .time(|| reasm.offer(frame.src, &frame.payload, at))
        else {
            return;
        };
        let Some((hdr, payload)) = l
            .decompress
            .time(|| decompress_view(&packet, frame.src, frame.dst))
        else {
            return;
        };
        l.packets += 1;
        let payload = payload.as_slice();

        // The sender's side of the same packet: compress and fragment.
        let out = &mut self.scratch;
        let cache = &mut self.iphc[src];
        l.compress
            .time(|| cache.compress_into(&hdr, frame.src, frame.dst, payload, out));
        if *out != packet {
            l.compress_mismatches += 1;
        }
        let tag = if packet.len() > MAX_MAC_PAYLOAD && frame.payload.len() >= 4 {
            u16::from_be_bytes([frame.payload[2], frame.payload[3]])
        } else {
            0
        };
        let frags = l.fragment.time(|| fragment(out, tag, MAX_MAC_PAYLOAD));
        drop(frags);

        // IP: the sender queued it, unless it went to a sleepy child's
        // indirect queue.
        if !world.nodes[src].sleepy_children.contains(&frame.dst) {
            let pkt = OutPacket {
                hdr,
                payload: payload.to_vec(),
                next_hop: frame.dst,
            };
            let q = &mut self.ipq[src];
            l.ipq.time(|| q.offer(pkt, 0.5));
            l.ipq.time(|| q.pop());
        }

        // Local delivery at the addressee, or over the border's wire to
        // the cloud; anything else is forwarded.
        let owner = self.addrs.iter().position(|a| *a == hdr.dst);
        let delivered_at = match owner {
            Some(o) if o == dst => Some(o),
            Some(o) if world.border == Some(dst) && world.cloud == Some(o) => Some(o),
            _ => None,
        };
        let Some(node) = delivered_at else {
            l.forwarded += 1;
            return;
        };
        if hdr.next_header != NextHeader::Tcp {
            return;
        }
        let Some(view) = l
            .decode
            .time(|| Segment::decode_view(hdr.src, hdr.dst, payload))
        else {
            return;
        };
        l.segments += 1;
        let seg = view.to_owned();
        let snap = &mut self.snaps[node];
        let found = snap
            .sockets
            .iter_mut()
            .find(|s| s.remote() == (hdr.src, view.src_port) && s.local().1 == view.dst_port);
        if let Some(sock) = found {
            l.input.time(|| {
                sock.tick(at);
                sock.on_segment_view(view, hdr.ecn, at);
            });
            let mut buf = [0u8; 2048];
            let got = l.recv.time(|| {
                let mut got = 0;
                loop {
                    let n = sock.recv(&mut buf);
                    if n == 0 {
                        break got;
                    }
                    got += n;
                }
            });
            l.recv_bytes += got as u64;
        } else if let Some(listener) = snap
            .listener
            .as_mut()
            .filter(|ls| ls.port() == view.dst_port)
        {
            let iss = self.iss;
            self.iss = self.iss.wrapping_mul(69069).wrapping_add(1);
            if let ListenerResponse::Spawn(sock) = l
                .listen
                .time(|| listener.on_segment(hdr.src, &seg, iss, at))
            {
                snap.sockets.push(*sock);
            }
        }
        let mut wire = std::mem::take(&mut self.scratch);
        l.encode
            .time(|| seg.encode_into(hdr.src, hdr.dst, &mut wire));
        if wire != payload {
            l.encode_mismatches += 1;
        }
        self.scratch = wire;
    }

    /// Replays the flood's forged SYN stream through a listener snapshot
    /// taken before the flood began, and its forged FRAG1s through a
    /// fresh reassembler of the victim's budget.
    fn replay_flood(
        &mut self,
        world: &World,
        victim: usize,
        listener: Option<ListenSocket>,
        seed: u64,
    ) {
        let Some(fl) = world.nodes[victim].flooder.as_ref() else {
            return;
        };
        let cfg = fl.cfg.clone();
        let mut forger = Flooder::new(cfg.clone(), Rng::new(seed ^ 0xF100D));
        let mut reasm = Node::reassembler_for(&world.nodes[victim].budget);
        let mut listener = listener;
        let interval = forger.interval();
        let mut t = cfg.start;
        let mut k = 0u64;
        let l = &mut self.layers;
        while t < cfg.stop {
            if cfg.syn {
                if let Some(ls) = listener.as_mut() {
                    let src =
                        NodeId(0xF000 + (k % u64::from(cfg.spoofed_sources)) as u16).mesh_addr();
                    let sport = 40_000 + (forger.rng.next_u64() % 20_000) as u16;
                    let seq = TcpSeq(forger.rng.next_u64() as u32);
                    let mut seg = Segment::new(sport, cfg.target_port, seq, TcpSeq(0), Flags::SYN);
                    seg.window = 1024;
                    seg.mss = Some(462);
                    let iss = forger.rng.next_u64() as u32;
                    l.listen.time(|| ls.on_segment(src, &seg, iss, t));
                    l.forged_syns += 1;
                }
            }
            if cfg.frag {
                let src = NodeId(0xF800 + (k % u64::from(cfg.spoofed_sources)) as u16);
                let bytes = forger.forge_frag1(64);
                l.reassemble.time(|| reasm.offer(src, &bytes, t));
            }
            k += 1;
            t += interval;
        }
    }
}

/// Per-step observations and the capture of one traced repetition.
struct Stepper {
    replayer: Replayer,
    last_handle: Vec<Option<TxHandle>>,
    acking: Vec<bool>,
    attempts: Vec<Option<u32>>,
    dropped_seen: Vec<u64>,
    sockets: usize,
    steps: Vec<(Instant, u32)>,
    txs: Vec<Tx>,
    step_ns: Vec<u32>,
    step_allocs: u64,
    depth_sum: u64,
    depth_max: usize,
    ip_depth_max: usize,
    data_txs: u64,
    first_data_frames: u64,
    polls: u64,
    acks: u64,
    replay_wall: std::time::Duration,
}

impl Stepper {
    fn new(world: &World, seed: u64) -> Self {
        let n = world.nodes.len();
        Stepper {
            replayer: Replayer::new(world, seed),
            last_handle: vec![None; n],
            acking: vec![false; n],
            attempts: vec![None; n],
            dropped_seen: vec![0; n],
            sockets: world.nodes.iter().map(|n| n.transport.tcp.len()).sum(),
            steps: Vec::with_capacity(BATCH_STEPS),
            txs: Vec::new(),
            step_ns: Vec::new(),
            step_allocs: 0,
            depth_sum: 0,
            depth_max: 0,
            ip_depth_max: 0,
            data_txs: 0,
            first_data_frames: 0,
            polls: 0,
            acks: 0,
            replay_wall: std::time::Duration::ZERO,
        }
    }

    /// Steps the world through every event up to `deadline`.
    fn advance(&mut self, world: &mut World, deadline: Instant) {
        while let Some(t) = world.queue.peek_time() {
            if t > deadline {
                break;
            }
            let depth = world.queue.len();
            let a0 = alloc::allocs();
            let t0 = Wall::now();
            world.run_until(t);
            let ns = t0.elapsed().as_nanos();
            self.step_allocs += alloc::allocs() - a0;
            self.step_ns.push(u32::try_from(ns).unwrap_or(u32::MAX));
            self.depth_sum += depth as u64;
            self.depth_max = self.depth_max.max(depth);
            self.steps.push((t, depth as u32));
            self.capture(world, t);
            // A batch also ends when a socket appears or goes, so the
            // next batch's snapshots hold every live connection.
            let sockets = world.nodes.iter().map(|n| n.transport.tcp.len()).sum();
            if self.steps.len() >= BATCH_STEPS || sockets != self.sockets {
                self.sockets = sockets;
                self.replay(world);
            }
        }
    }

    /// Records what went on the air during the step at `t`.
    fn capture(&mut self, world: &World, t: Instant) {
        let phy = &world.cfg.phy;
        for (i, node) in world.nodes.iter().enumerate() {
            self.ip_depth_max = self.ip_depth_max.max(node.ip_queue.len());
            let on_air = node
                .cur_tx
                .as_ref()
                .and_then(|tx| tx.handle.map(|h| (tx, h)));
            if let Some((tx, h)) = on_air {
                if self.last_handle[i] != Some(h) {
                    self.last_handle[i] = Some(h);
                    self.data_txs += 1;
                    let start = t + phy.turnaround;
                    let end = start + phy.air_time(tx.frame.encoded().len());
                    let frame = tx.frame.frame();
                    let kind = if tx.process.tx_attempts <= 1 {
                        if frame.frame_type == FrameType::Data {
                            self.first_data_frames += 1;
                        } else if frame.is_data_request() {
                            self.polls += 1;
                        }
                        TxKind::First {
                            frame: frame.clone(),
                            dropped: false,
                        }
                    } else {
                        TxKind::Retry {
                            ack_request: frame.ack_request,
                        }
                    };
                    let listeners = listeners(world, i);
                    self.txs.push(Tx {
                        src: i,
                        cca_at: t,
                        start,
                        end,
                        listeners,
                        kind,
                    });
                }
            }
            // A node on the air without a data frame on the air is
            // sending a link ACK.
            let acking = node.transmitting && on_air.is_none();
            if acking && !self.acking[i] {
                self.acks += 1;
                self.txs.push(Tx {
                    src: i,
                    cca_at: t,
                    start: t,
                    end: t + phy.ack_air_time(),
                    listeners: listeners(world, i),
                    kind: TxKind::Ack,
                });
            }
            self.acking[i] = acking;
            // A frame finished when the node's transmit state vanished or
            // restarted; if the MAC's drop counter moved, it gave up.
            let attempts = node.cur_tx.as_ref().map(|tx| tx.process.tx_attempts);
            if let Some(prev) = self.attempts[i] {
                if prev > 0 && attempts.is_none_or(|a| a < prev) {
                    let dropped = node.counters.get("frames_dropped");
                    if dropped > self.dropped_seen[i] {
                        self.dropped_seen[i] = dropped;
                        self.mark_dropped(i);
                    }
                }
            }
            self.attempts[i] = attempts;
        }
    }

    /// Marks node `src`'s latest captured first transmission as dropped
    /// (a frame replayed in an earlier batch stays as it was).
    fn mark_dropped(&mut self, src: usize) {
        let last = self
            .txs
            .iter_mut()
            .rev()
            .find(|tx| tx.src == src && matches!(tx.kind, TxKind::First { .. }));
        if let Some(Tx {
            kind: TxKind::First { dropped, .. },
            ..
        }) = last
        {
            *dropped = true;
        }
    }

    /// Replays the captured batch and starts the next one from fresh
    /// transport snapshots.
    fn replay(&mut self, world: &World) {
        let t0 = Wall::now();
        let steps = std::mem::take(&mut self.steps);
        self.replayer.replay_queue(&steps);
        for tx in std::mem::take(&mut self.txs) {
            self.replayer.replay_tx(world, tx);
        }
        self.replayer.snaps = snapshot(world);
        self.steps = steps;
        self.steps.clear();
        self.replay_wall += t0.elapsed();
    }
}

/// Radios in receive state at `t`, as the world selects listeners.
fn listeners(world: &World, src: usize) -> Vec<RadioIdx> {
    world
        .nodes
        .iter()
        .enumerate()
        .filter(|(j, n)| *j != src && n.awake && !n.transmitting && n.kind != NodeKind::CloudHost)
        .map(|(j, _)| RadioIdx(j))
        .collect()
}

/// Nearest-rank percentile `p` (0-100) of `v`, reordering it.
fn nearest_rank(v: &mut [u32], p: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    f64::from(*v.select_nth_unstable(rank.clamp(1, v.len()) - 1).1)
}

/// Everything one traced repetition observed.
pub struct TracedRep {
    /// The run, finished (its world holds the end state).
    pub run: Run,
    /// Wall seconds of the stepped run, replay excluded.
    pub traced_wall_s: f64,
    /// Replayed per-layer cost.
    pub layers: Layers,
    /// Distinct timestamps stepped.
    pub steps: u64,
    /// Median and 99th-percentile step wall time, ns.
    pub step_ns_p50: f64,
    /// See `step_ns_p50`.
    pub step_ns_p99: f64,
    /// Total step wall time, ns.
    pub step_ns_total: u64,
    /// Allocations made inside steps.
    pub step_allocs: u64,
    /// Mean and max event-queue depth before a step.
    pub depth_mean: f64,
    /// See `depth_mean`.
    pub depth_max: usize,
    /// Deepest IP queue seen on any node.
    pub ip_depth_max: usize,
    /// Data and command frame transmissions, retries included.
    pub data_txs: u64,
    /// First transmissions of data frames.
    pub first_data_frames: u64,
    /// Data requests (sleepy-leaf polls) put on the air.
    pub polls: u64,
    /// Link ACK transmissions.
    pub acks: u64,
    /// What timing an empty call costs; subtracted from every span and
    /// step time before they are reported.
    pub timer_ns: f64,
}

impl TracedRep {
    /// `s`'s time less the timer's own cost for each of its calls.
    pub fn net_ns(&self, s: Span) -> f64 {
        (s.ns as f64 - s.calls as f64 * self.timer_ns).max(0.0)
    }
}

/// Mean cost of timing an empty call with [`Span::time`], fastest of a
/// few batches.
fn timer_ns() -> f64 {
    const CALLS: u32 = 10_000;
    (0..5)
        .map(|_| {
            let mut s = Span::default();
            for _ in 0..CALLS {
                s.time(|| ());
            }
            s.ns as f64 / f64::from(CALLS)
        })
        .fold(f64::INFINITY, f64::min)
}

/// Runs one traced repetition of `run`; `seed` seeds the replay's own
/// random draws.
pub fn traced_rep(mut run: Run, seed: u64) -> TracedRep {
    let mut st = Stepper::new(&run.world, seed);
    let listener0 = run.world.nodes[run.sink].transport.tcp_listener.clone();
    let t0 = Wall::now();
    run.run_with(|world, t| st.advance(world, t));
    st.replay(&run.world);
    let traced_wall = t0.elapsed() - st.replay_wall;
    let mut r = st.replayer;
    r.end_medium(Instant::from_micros(u64::MAX));
    r.replay_flood(&run.world, run.sink, listener0, seed);
    let steps = st.step_ns.len() as u64;
    let step_ns_total = st.step_ns.iter().map(|&n| u64::from(n)).sum();
    let p50 = nearest_rank(&mut st.step_ns, 50.0);
    let p99 = nearest_rank(&mut st.step_ns, 99.0);
    TracedRep {
        run,
        traced_wall_s: traced_wall.as_secs_f64(),
        layers: r.layers,
        steps,
        step_ns_p50: p50,
        step_ns_p99: p99,
        step_ns_total,
        step_allocs: st.step_allocs,
        depth_mean: st.depth_sum as f64 / steps.max(1) as f64,
        depth_max: st.depth_max,
        ip_depth_max: st.ip_depth_max,
        data_txs: st.data_txs,
        first_data_frames: st.first_data_frames,
        polls: st.polls,
        acks: st.acks,
        timer_ns: timer_ns(),
    }
}

/// Result of the traced mode.
pub struct Traced {
    /// Traced repetitions made.
    pub reps: usize,
    /// Every check passed.
    pub correct: bool,
    /// Offered units over the traced repetitions.
    pub attempted: u64,
    /// Failed units over the traced repetitions.
    pub failed: u64,
    /// Per-layer metrics, in `BENCHMARK.json` order.
    pub metrics: Vec<Metric>,
}

/// Sum of every class's deny count on every node.
fn governor_denies(world: &World) -> u64 {
    world
        .nodes
        .iter()
        .map(|n| {
            MemClass::ALL
                .iter()
                .map(|&c| n.governor.denies(c))
                .sum::<u64>()
        })
        .sum()
}

/// Sum of one node counter over every node.
pub fn node_counter(world: &World, name: &str) -> u64 {
    world.nodes.iter().map(|n| n.counters.get(name)).sum()
}

/// Alternates untraced and traced repetitions until `seconds` have
/// passed (at least one pair). Counts come from the first traced
/// repetition; times are the fastest over all of them, as in the
/// untraced mode.
pub fn measure(workload: Workload, seed: u64, seconds: f64) -> Traced {
    let start = Wall::now();
    let mut plain_walls = Vec::new();
    let mut reps: Vec<TracedRep> = Vec::new();
    let mut correct = true;
    let (mut attempted, mut failed) = (0, 0);
    while reps.is_empty() || start.elapsed().as_secs_f64() < seconds {
        let plain = e2e::rep(|| Run::build(workload, seed));
        plain_walls.push(plain.wall_s());
        let mut t = traced_rep(Run::build(workload, seed), seed);
        let o = t.run.outcome();
        let frames_tx = t.run.world.medium.counters.get("frames_tx");
        correct &= o.digest == plain.outcome.digest
            && t.data_txs + t.acks == frames_tx
            && t.layers.encode_mismatches == 0
            && t.layers.compress_mismatches == 0;
        attempted += o.attempted;
        failed += o.failed;
        reps.push(t);
    }
    correct &= failed == 0;
    let metrics = layer_metrics(&reps, fastest(&plain_walls));
    Traced {
        reps: reps.len(),
        correct,
        attempted,
        failed,
        metrics,
    }
}

/// The per-layer metrics, in `BENCHMARK.json` order, from traced
/// repetitions of one seed and the fastest untraced wall time.
pub fn layer_metrics(reps: &[TracedRep], plain_wall_s: f64) -> Vec<Metric> {
    let best = |f: &dyn Fn(&TracedRep) -> f64| fastest(&reps.iter().map(f).collect::<Vec<_>>());
    let per = |r: &TracedRep, s: Span, n: u64| r.net_ns(s) / n.max(1) as f64;
    let ratio = |a: u64, b: u64| a as f64 / b.max(1) as f64;
    let first = &reps[0];
    let w = &first.run.world;
    let l = &first.layers;
    let medium = |k: &str| w.medium.counters.get(k);
    let counter = |k: &str| node_counter(w, k);
    let socks = || w.nodes.iter().flat_map(|n| n.transport.tcp.iter());
    let listeners = || {
        w.nodes
            .iter()
            .filter_map(|n| n.transport.tcp_listener.as_ref())
    };
    let tcp = |f: &dyn Fn(&tcplp::TcpStats) -> u64| socks().map(|s| f(&s.stats)).sum::<u64>();
    let packets = l.packets;
    let six = [l.compress, l.fragment, l.reassemble, l.decompress];
    let tcp_spans = [l.decode, l.input, l.recv, l.encode];
    let rcvd = tcp(&|s| s.segs_rcvd);
    let predicted = tcp(&|s| s.predicted_acks + s.predicted_data);
    let segs_sent = tcp(&|s| s.segs_sent);
    let retrans = tcp(&|s| s.segs_retransmitted);
    let data_segs = segs_sent - tcp(&|s| s.acks_sent);
    vec![
        Metric::new("sim.steps", "count", first.steps as f64),
        Metric::new(
            "sim.step_ns_p50",
            "ns",
            best(&|r| r.step_ns_p50 - r.timer_ns),
        ),
        Metric::new(
            "sim.step_ns_p99",
            "ns",
            best(&|r| r.step_ns_p99 - r.timer_ns),
        ),
        Metric::new("sim.queue_depth_mean", "count", first.depth_mean),
        Metric::new("sim.queue_depth_max", "count", first.depth_max as f64),
        Metric::new(
            "sim.queue_ns_per_op",
            "ns",
            best(&|r| per(r, r.layers.queue, r.layers.queue.calls)),
        ),
        Metric::new("phy.frames_tx", "count", medium("frames_tx") as f64),
        Metric::new("phy.collisions", "count", medium("collisions") as f64),
        Metric::new("phy.prr_drops", "count", medium("prr_drops") as f64),
        Metric::new(
            "phy.collision_ratio",
            "ratio",
            ratio(
                medium("collisions"),
                medium("collisions") + medium("prr_drops") + medium("deliveries"),
            ),
        ),
        Metric::new(
            "phy.ns_per_frame",
            "ns",
            best(&|r| per(r, r.layers.medium, r.data_txs + r.acks)),
        ),
        Metric::new(
            "phy.allocs_per_frame",
            "count",
            ratio(l.medium.allocs, first.data_txs + first.acks),
        ),
        Metric::new("mac.link_retries", "count", counter("link_retries") as f64),
        Metric::new(
            "mac.retry_ratio",
            "ratio",
            ratio(counter("link_retries"), first.data_txs),
        ),
        Metric::new(
            "mac.frames_dropped",
            "count",
            counter("frames_dropped") as f64,
        ),
        Metric::new("mac.dup_frames", "count", counter("dup_frames") as f64),
        Metric::new(
            "mac.indirect_drops",
            "count",
            counter("indirect_drops") as f64,
        ),
        Metric::new("mac.polls", "count", first.polls as f64),
        Metric::new(
            "mac.ns_per_frame",
            "ns",
            best(&|r| {
                (r.net_ns(r.layers.pool) + r.net_ns(r.layers.txproc)) / r.data_txs.max(1) as f64
            }),
        ),
        Metric::new(
            "mac.allocs_per_frame",
            "count",
            ratio(l.pool.allocs + l.txproc.allocs, first.data_txs),
        ),
        Metric::new(
            "sixlowpan.packets_tx",
            "count",
            counter("packets_tx") as f64,
        ),
        Metric::new(
            "sixlowpan.frags_per_packet",
            "count",
            ratio(first.first_data_frames, packets),
        ),
        Metric::new(
            "sixlowpan.reasm_timeouts",
            "count",
            w.nodes.iter().map(|n| n.reassembler.timeouts).sum::<u64>() as f64,
        ),
        Metric::new(
            "sixlowpan.compress_ns",
            "ns",
            best(&|r| per(r, r.layers.compress, r.layers.packets)),
        ),
        Metric::new(
            "sixlowpan.fragment_ns",
            "ns",
            best(&|r| per(r, r.layers.fragment, r.layers.packets)),
        ),
        Metric::new(
            "sixlowpan.reassemble_ns",
            "ns",
            best(&|r| per(r, r.layers.reassemble, r.layers.reassemble.calls)),
        ),
        Metric::new(
            "sixlowpan.decompress_ns",
            "ns",
            best(&|r| per(r, r.layers.decompress, r.layers.packets)),
        ),
        Metric::new(
            "sixlowpan.allocs_per_packet",
            "count",
            ratio(six.iter().map(|s| s.allocs).sum(), packets),
        ),
        Metric::new("netip.forwarded", "count", counter("forwarded") as f64),
        Metric::new("netip.queue_drops", "count", counter("queue_drops") as f64),
        Metric::new(
            "netip.queue_byte_drops",
            "count",
            counter("queue_byte_drops") as f64,
        ),
        Metric::new(
            "netip.ip_queue_depth_max",
            "count",
            first.ip_depth_max as f64,
        ),
        Metric::new(
            "netip.queue_ns_per_op",
            "ns",
            best(&|r| per(r, r.layers.ipq, r.layers.ipq.calls)),
        ),
        Metric::new("tcplp.segs_sent", "count", segs_sent as f64),
        Metric::new("tcplp.segs_retransmitted", "count", retrans as f64),
        Metric::new("tcplp.seg_loss", "ratio", ratio(retrans, data_segs)),
        Metric::new(
            "tcplp.rexmit_timeouts",
            "count",
            tcp(&|s| s.rexmit_timeouts) as f64,
        ),
        Metric::new(
            "tcplp.fast_rexmits",
            "count",
            tcp(&|s| s.fast_rexmits) as f64,
        ),
        Metric::new(
            "tcplp.ooo_segments",
            "count",
            tcp(&|s| s.ooo_segments) as f64,
        ),
        Metric::new("tcplp.fastpath_ratio", "ratio", ratio(predicted, rcvd)),
        Metric::new(
            "tcplp.decode_ns",
            "ns",
            best(&|r| per(r, r.layers.decode, r.layers.decode.calls)),
        ),
        Metric::new(
            "tcplp.input_ns",
            "ns",
            best(&|r| per(r, r.layers.input, r.layers.input.calls)),
        ),
        Metric::new(
            "tcplp.encode_ns",
            "ns",
            best(&|r| per(r, r.layers.encode, r.layers.encode.calls)),
        ),
        Metric::new(
            "tcplp.recv_ns_per_kb",
            "ns",
            best(&|r| r.net_ns(r.layers.recv) / (r.layers.recv_bytes.max(1) as f64 / 1024.0)),
        ),
        Metric::new(
            "tcplp.allocs_per_seg",
            "count",
            ratio(tcp_spans.iter().map(|s| s.allocs).sum(), l.segments),
        ),
        Metric::new(
            "tcplp.syns_rcvd",
            "count",
            listeners().map(|ls| ls.stats.syns_rcvd).sum::<u64>() as f64,
        ),
        Metric::new(
            "tcplp.syn_evictions",
            "count",
            listeners().map(|ls| ls.stats.evicted_oldest).sum::<u64>() as f64,
        ),
        Metric::new(
            "tcplp.listen_ns_per_syn",
            "ns",
            best(&|r| per(r, r.layers.listen, r.layers.listen.calls)),
        ),
        Metric::new(
            "node.glue_ns_per_step",
            "ns",
            best(&|r| {
                let steps = r.steps.max(1) as f64;
                let step_ns = r.step_ns_total as f64 - steps * r.timer_ns;
                (step_ns - r.net_ns(r.layers.total())) / steps
            }),
        ),
        Metric::new(
            "node.allocs_per_step",
            "count",
            (first.step_allocs as f64 - l.total().allocs as f64) / first.steps.max(1) as f64,
        ),
        Metric::new(
            "node.governor_peak_kb",
            "KiB",
            w.nodes
                .iter()
                .map(|n| n.governor.total_high_water())
                .max()
                .unwrap_or(0) as f64
                / 1024.0,
        ),
        Metric::new("node.governor_denies", "count", governor_denies(w) as f64),
        Metric::new("trace.timer_ns", "ns", best(&|r| r.timer_ns)),
        Metric::new(
            "trace.overhead_ratio",
            "ratio",
            best(&|r| r.traced_wall_s / plain_wall_s - 1.0),
        ),
    ]
}
