//! Socket-pair test harness: two TCPlp sockets joined by a simulated
//! pipe with configurable latency, loss, duplication and reordering.
//! All protocol-level integration tests drive this harness.

use lln_netip::{Ecn, NodeId};
use lln_sim::{Duration, EventQueue, Instant};
use tcplp::{ListenSocket, Segment, TcpConfig, TcpSocket, TcpState};

/// Direction of travel through the pipe.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Dir {
    /// Client (A) to server (B).
    AtoB,
    /// Server (B) to client (A).
    BtoA,
}

/// Decision made by the fault hook for each segment.
pub struct Fault {
    /// Drop the segment entirely.
    pub drop: bool,
    /// Extra latency to add (reordering when it exceeds segment spacing).
    pub extra_delay: Duration,
    /// Deliver a duplicate copy too.
    pub duplicate: bool,
    /// Deliver with a CE mark (ECN experiments).
    pub ce_mark: bool,
}

impl Default for Fault {
    fn default() -> Self {
        Fault {
            drop: false,
            extra_delay: Duration::ZERO,
            duplicate: false,
            ce_mark: false,
        }
    }
}

type FaultHook = Box<dyn FnMut(Dir, &Segment, Instant) -> Fault>;

/// The harness: client socket `a`, server socket `b`, and the pipe.
pub struct Harness {
    pub a: TcpSocket,
    pub b: TcpSocket,
    pub now: Instant,
    pub latency: Duration,
    queue: EventQueue<(Dir, Segment, bool)>,
    fault: FaultHook,
    /// Per-direction earliest next delivery, modelling link
    /// serialisation: segments sent back-to-back arrive spaced out, so
    /// the receiver ACKs them individually (needed for dup-ACK tests).
    next_free: [Instant; 2],
    /// Serialisation gap between consecutive deliveries per direction.
    pub gap: Duration,
}

pub const A_PORT: u16 = 49152;
pub const B_PORT: u16 = 80;

/// Completes a passive open through a listener's RFC 4987 SYN cache:
/// feeds the SYN, relays the cached SYN-ACK to `a` one `latency`
/// later, and returns the socket spawned by the completing ACK (two
/// latencies after the SYN, matching what a symmetric pipe delivers).
#[allow(dead_code)]
pub fn accept_via_listener(
    listener: &mut ListenSocket,
    a: &mut TcpSocket,
    a_addr: lln_netip::Ipv6Addr,
    syn: &Segment,
    iss: u32,
    now: Instant,
    latency: Duration,
) -> TcpSocket {
    let due = listener
        .on_segment(a_addr, syn, iss, now)
        .into_reply()
        .expect("SYN parks in the cache and is answered");
    let synack = listener.synack(due, now);
    let t1 = now + latency;
    a.on_segment(&synack, Ecn::NotCapable, t1);
    let ack = a.poll_transmit(t1).expect("handshake ACK");
    listener
        .on_segment(a_addr, &ack, 0, t1 + latency)
        .into_spawn()
        .expect("socket spawned on handshake completion")
}

impl Harness {
    /// Builds a harness with un-connected sockets.
    pub fn new(cfg: TcpConfig, latency: Duration) -> Self {
        let a_addr = NodeId(1).mesh_addr();
        let b_addr = NodeId(2).mesh_addr();
        Harness {
            a: TcpSocket::new(cfg.clone(), a_addr, A_PORT),
            b: TcpSocket::new(cfg, b_addr, B_PORT),
            now: Instant::ZERO,
            latency,
            queue: EventQueue::new(),
            fault: Box::new(|_, _, _| Fault::default()),
            next_free: [Instant::ZERO; 2],
            gap: Duration::from_millis(3),
        }
    }

    /// Installs a fault-injection hook.
    pub fn set_fault(&mut self, f: impl FnMut(Dir, &Segment, Instant) -> Fault + 'static) {
        self.fault = Box::new(f);
    }

    /// Performs the three-way handshake via a listener and returns an
    /// established pair. Panics if the handshake does not complete.
    pub fn establish(cfg: TcpConfig, latency: Duration) -> Self {
        let mut h = Harness::new(cfg.clone(), latency);
        let a_addr = NodeId(1).mesh_addr();
        let b_addr = NodeId(2).mesh_addr();
        h.a.connect(b_addr, B_PORT, 10_000, h.now);
        // Drive the handshake through the listener's SYN cache
        // manually (the pipe only joins established endpoints).
        let syn = h.a.poll_transmit(h.now).expect("SYN");
        let mut listener = ListenSocket::new(cfg, b_addr, B_PORT, &tcplp::NodeBudget::default());
        h.b = accept_via_listener(
            &mut listener,
            &mut h.a,
            a_addr,
            &syn,
            20_000,
            h.now,
            latency,
        );
        h.run_for(Duration::from_secs(5));
        assert_eq!(h.a.state(), TcpState::Established, "client established");
        assert_eq!(h.b.state(), TcpState::Established, "server established");
        h
    }

    fn drain_transmissions(&mut self) {
        loop {
            let mut sent_any = false;
            while let Some(seg) = self.a.poll_transmit(self.now) {
                self.enqueue(Dir::AtoB, seg);
                sent_any = true;
            }
            while let Some(seg) = self.b.poll_transmit(self.now) {
                self.enqueue(Dir::BtoA, seg);
                sent_any = true;
            }
            if !sent_any {
                break;
            }
        }
    }

    fn enqueue(&mut self, dir: Dir, seg: Segment) {
        let f = (self.fault)(dir, &seg, self.now);
        if f.drop {
            return;
        }
        let slot = usize::from(dir == Dir::BtoA);
        let at = (self.now + self.latency + f.extra_delay).max(self.next_free[slot] + self.gap);
        self.next_free[slot] = at;
        if f.duplicate {
            self.queue
                .schedule(at + Duration::from_micros(1), (dir, seg.clone(), f.ce_mark));
        }
        self.queue.schedule(at, (dir, seg, f.ce_mark));
    }

    /// Runs the pipe until `deadline` or until fully idle.
    pub fn run_for(&mut self, span: Duration) {
        let deadline = self.now + span;
        loop {
            self.drain_transmissions();
            // Next event: earliest of queued delivery and socket timers.
            let mut next = self.queue.peek_time();
            for t in [self.a.poll_at(), self.b.poll_at()].into_iter().flatten() {
                next = Some(match next {
                    None => t,
                    Some(cur) => cur.min(t),
                });
            }
            let Some(next) = next else {
                // Fully idle: advance the clock so callers' wall-clock
                // deadlines still make progress (prevents spin on a
                // protocol stall — the test then fails by timeout).
                self.now = deadline;
                break;
            };
            if next > deadline {
                self.now = deadline;
                break;
            }
            self.now = self.now.max(next);
            // Deliver any segments due now.
            while self.queue.peek_time().is_some_and(|t| t <= self.now) {
                let (_, (dir, seg, ce)) = self.queue.pop().unwrap();
                let ecn = if ce { Ecn::Ce } else { Ecn::Ect0 };
                match dir {
                    Dir::AtoB => self.b.on_segment(&seg, ecn, self.now),
                    Dir::BtoA => self.a.on_segment(&seg, ecn, self.now),
                }
            }
            // Fire timers. A timer still due after `on_timer` would
            // spin this loop at one instant, so fail instead.
            for s in [&mut self.a, &mut self.b] {
                if s.poll_at().is_some_and(|t| t <= self.now) {
                    s.on_timer(self.now);
                    let stale = s.poll_at().filter(|&t| t <= self.now);
                    assert!(
                        stale.is_none(),
                        "timer at {stale:?} still due at {:?}",
                        self.now
                    );
                }
            }
        }
    }

    /// Pushes `data` into `a` and runs until `b` has received it all
    /// (or `timeout` elapses). Returns the bytes `b` received.
    // Shared across test binaries; not every binary calls it.
    #[allow(dead_code)]
    pub fn transfer_a_to_b(&mut self, data: &[u8], timeout: Duration) -> Vec<u8> {
        let mut received = Vec::new();
        let mut offset = 0;
        let deadline = self.now + timeout;
        while received.len() < data.len() && self.now < deadline {
            offset += self.a.send(&data[offset..]);
            self.run_for(Duration::from_millis(50));
            let mut buf = [0u8; 4096];
            loop {
                let n = self.b.recv(&mut buf);
                if n == 0 {
                    break;
                }
                received.extend_from_slice(&buf[..n]);
            }
            if self.a.state() == TcpState::Closed || self.b.state() == TcpState::Closed {
                break;
            }
        }
        received
    }
}
