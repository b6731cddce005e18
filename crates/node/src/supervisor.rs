//! Application-level connection supervision.
//!
//! The paper's motes keep multi-day TCP connections alive through
//! reboots and RF blackouts by handling failure *above* the transport:
//! the anemometer firmware queues readings in flash, detects a dead
//! connection (keepalive timeout or the 12-retransmit bound), and
//! re-establishes with backoff, replaying anything the old connection
//! never acknowledged. [`SupervisedConnection`] reproduces that
//! behaviour as a sans-IO wrapper the [`World`](crate::world::World)
//! drives from its transport pump.
//!
//! ## Record framing
//!
//! Application payloads are *records*: `2-byte BE length + 8-byte BE
//! record sequence + payload`. The supervisor retains each record until
//! every byte of it is TCP-acknowledged; on connection death it rewinds
//! to the first incompletely-acknowledged record boundary and replays
//! from there on the next connection. Because a replayed record may
//! already have reached the server (its ACK was lost), the server side
//! deduplicates by record sequence — [`RecordAssembler`] does this for
//! the chaos suite and asserts byte-exact end-to-end integrity.

use lln_netip::Ipv6Addr;
use lln_sim::{Duration, Instant, Rng};
use std::collections::{BTreeMap, VecDeque};
use tcplp::{CloseReason, TcpConfig, TcpSocket, TcpState};

/// Per-record framing overhead (length + sequence).
pub const RECORD_HEADER: usize = 10;

/// Supervisor tuning.
#[derive(Clone, Debug)]
pub struct SupervisorConfig {
    /// TCP configuration for every (re)connection. Enable
    /// `keepalive_idle` here so silently-dead peers are detected even
    /// when the sender is idle.
    pub tcp: TcpConfig,
    /// First reconnect backoff (doubles per consecutive failure).
    pub backoff_base: Duration,
    /// Backoff ceiling.
    pub backoff_max: Duration,
    /// Multiplicative jitter: the delay is scaled by a factor drawn
    /// uniformly from `[1, 1 + jitter]` (sim RNG, deterministic).
    pub jitter: f64,
    /// Retained-record buffer capacity in framed bytes (the "flash
    /// queue"); `submit` refuses records past this.
    pub buffer_cap: usize,
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        // Dead-peer detection defaults: probe after 10 s idle, and give
        // up on retransmissions sooner than the bulk-transfer default
        // so a blackout longer than ~30 s kills the connection instead
        // of stalling it for many minutes.
        let tcp = TcpConfig {
            keepalive_idle: Some(Duration::from_secs(10)),
            max_retransmits: 8,
            ..TcpConfig::default()
        };
        SupervisorConfig {
            tcp,
            backoff_base: Duration::from_secs(1),
            backoff_max: Duration::from_secs(32),
            jitter: 0.25,
            buffer_cap: 8192,
        }
    }
}

/// Per-connection counters, mirrored into the node's `Counters` by the
/// world.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SupervisorStats {
    /// Successful re-establishments after a detected death.
    pub reconnects: u64,
    /// Connection attempts issued (including the first).
    pub connect_attempts: u64,
    /// Detected connection deaths.
    pub deaths: u64,
    /// Records queued for replay across all deaths.
    pub records_replayed: u64,
    /// Framed bytes queued for replay across all deaths.
    pub bytes_replayed: u64,
    /// Records accepted from the application.
    pub records_submitted: u64,
    /// Total time between a detected death and the following
    /// re-establishment, in microseconds.
    pub downtime_us: u64,
}

/// What the world should do after a [`SupervisedConnection::poll`].
#[derive(Default)]
pub struct SupervisorPoll {
    /// Install this freshly-connecting socket as the node's supervised
    /// socket (replacing any dead one).
    pub replace: Option<TcpSocket>,
    /// A connection death was detected this poll.
    pub died: bool,
    /// The connection re-established this poll (after ≥1 death).
    pub reconnected: bool,
}

enum SupState {
    /// Waiting to issue a connect (initial delay or backoff).
    WaitingConnect {
        since_down: Option<Instant>,
        until: Instant,
    },
    /// A connect was issued; waiting for Established.
    Connecting { since_down: Option<Instant> },
    /// The connection is up.
    Established,
    /// Closed deliberately; supervision over.
    Idle,
}

/// A reconnecting, record-replaying TCP client connection.
pub struct SupervisedConnection {
    cfg: SupervisorConfig,
    local_addr: Ipv6Addr,
    remote_addr: Ipv6Addr,
    remote_port: u16,
    base_port: u16,
    rng: Rng,
    state: SupState,
    /// Consecutive failures since the last establishment (backoff
    /// exponent).
    consecutive_failures: u32,
    /// Framed bytes retained until acknowledged.
    buffer: Vec<u8>,
    /// Framed length of each retained record, front = oldest.
    record_lens: VecDeque<usize>,
    /// Bytes of `buffer` handed to the *current* socket.
    pushed: usize,
    /// Bytes of `buffer` acknowledged (prefix; whole records are
    /// dropped from the front as they complete).
    acked: usize,
    next_record_seq: u64,
    established_once: bool,
    stats: SupervisorStats,
}

impl SupervisedConnection {
    /// Creates a supervisor that will first connect at `start_at`.
    /// `base_port` seeds the ephemeral port; each attempt uses the next
    /// port so old and new connections are distinguishable server-side.
    pub fn new(
        cfg: SupervisorConfig,
        local_addr: Ipv6Addr,
        remote_addr: Ipv6Addr,
        remote_port: u16,
        base_port: u16,
        start_at: Instant,
        rng: Rng,
    ) -> Self {
        SupervisedConnection {
            cfg,
            local_addr,
            remote_addr,
            remote_port,
            base_port,
            rng,
            state: SupState::WaitingConnect {
                since_down: None,
                until: start_at,
            },
            consecutive_failures: 0,
            buffer: Vec::new(),
            record_lens: VecDeque::new(),
            pushed: 0,
            acked: 0,
            next_record_seq: 0,
            established_once: false,
            stats: SupervisorStats::default(),
        }
    }

    /// Counters.
    pub fn stats(&self) -> &SupervisorStats {
        &self.stats
    }

    /// True while retained records remain unacknowledged.
    pub fn has_pending(&self) -> bool {
        !self.record_lens.is_empty()
    }

    /// Retained records not yet fully acknowledged.
    pub fn pending_records(&self) -> usize {
        self.record_lens.len()
    }

    /// Next record sequence number (== records submitted so far).
    pub fn next_seq(&self) -> u64 {
        self.next_record_seq
    }

    /// When the supervisor next needs a poll regardless of socket
    /// activity (backoff expiry).
    pub fn wake_at(&self) -> Option<Instant> {
        match self.state {
            SupState::WaitingConnect { until, .. } => Some(until),
            _ => None,
        }
    }

    /// Whether a record of `payload_len` bytes fits the retention
    /// buffer right now.
    pub fn can_accept(&self, payload_len: usize) -> bool {
        payload_len <= u16::MAX as usize
            && self.buffer.len() + RECORD_HEADER + payload_len <= self.cfg.buffer_cap
    }

    /// Accepts one application record for (eventual, reliable)
    /// delivery. Returns false when the retention buffer is full —
    /// the application should retry later (backpressure).
    pub fn submit(&mut self, payload: &[u8]) -> bool {
        if !self.can_accept(payload.len()) {
            return false;
        }
        self.buffer
            .extend_from_slice(&(payload.len() as u16).to_be_bytes());
        self.buffer
            .extend_from_slice(&self.next_record_seq.to_be_bytes());
        self.buffer.extend_from_slice(payload);
        self.record_lens.push_back(RECORD_HEADER + payload.len());
        self.next_record_seq += 1;
        self.stats.records_submitted += 1;
        true
    }

    /// Drives supervision: feeds retained bytes into a live socket,
    /// drops acknowledged records, detects death (closed socket with a
    /// failure `CloseReason`, or a socket that vanished in a reboot),
    /// and issues backed-off reconnects. `sock` is the node's current
    /// supervised socket, if any.
    pub fn poll(&mut self, sock: Option<&mut TcpSocket>, now: Instant) -> SupervisorPoll {
        let mut out = SupervisorPoll::default();
        match sock {
            Some(s) if s.state() != TcpState::Closed => {
                if s.state() == TcpState::Established {
                    if let SupState::Connecting { since_down } = self.state {
                        if self.established_once {
                            self.stats.reconnects += 1;
                            out.reconnected = true;
                        }
                        if let Some(d) = since_down {
                            self.stats.downtime_us += now.duration_since(d).as_micros();
                        }
                        self.established_once = true;
                        self.consecutive_failures = 0;
                        self.state = SupState::Established;
                    }
                }
                // Feed unsent retained bytes.
                while self.pushed < self.buffer.len() {
                    let n = s.send(&self.buffer[self.pushed..]);
                    if n == 0 {
                        break;
                    }
                    self.pushed += n;
                }
                // Release fully-acknowledged records. Bytes the socket
                // no longer queues are TCP-acked.
                let acked_now = self.pushed.saturating_sub(s.send_queued());
                self.acked = self.acked.max(acked_now);
                while let Some(&l) = self.record_lens.front() {
                    if self.acked < l {
                        break;
                    }
                    self.buffer.drain(..l);
                    self.record_lens.pop_front();
                    self.acked -= l;
                    self.pushed -= l;
                }
            }
            Some(s) => {
                // Socket closed: failure reasons (and deaths during
                // connect) trigger reconnection; deliberate closes end
                // supervision.
                let failure = s.close_reason().is_none_or(CloseReason::is_failure);
                match self.state {
                    SupState::Established | SupState::Connecting { .. } if failure => {
                        self.on_death(now, &mut out);
                    }
                    SupState::Established | SupState::Connecting { .. } => {
                        self.state = SupState::Idle;
                    }
                    _ => {}
                }
            }
            None => {
                // No socket at all (e.g. wiped by a reboot) while we
                // believed one existed: that is a death too.
                if matches!(
                    self.state,
                    SupState::Established | SupState::Connecting { .. }
                ) {
                    self.on_death(now, &mut out);
                }
            }
        }
        if let SupState::WaitingConnect { since_down, until } = self.state {
            if now >= until {
                self.state = SupState::Connecting { since_down };
                out.replace = Some(self.make_socket(now));
            }
        }
        out
    }

    fn on_death(&mut self, now: Instant, out: &mut SupervisorPoll) {
        out.died = true;
        self.stats.deaths += 1;
        self.stats.records_replayed += self.record_lens.len() as u64;
        self.stats.bytes_replayed += self.buffer.len() as u64;
        // Rewind to the first incompletely-acknowledged record
        // boundary: the next connection replays whole records, so the
        // server can parse each connection's stream independently.
        self.pushed = 0;
        self.acked = 0;
        let since_down = match self.state {
            SupState::Established => Some(now),
            SupState::Connecting { since_down } => since_down,
            _ => None,
        };
        self.consecutive_failures += 1;
        let exp = (self.consecutive_failures - 1).min(16);
        let base = self
            .cfg
            .backoff_base
            .saturating_mul(1u64 << exp)
            .min(self.cfg.backoff_max);
        let scaled = base.as_micros() as f64 * (1.0 + self.cfg.jitter * self.rng.gen_f64());
        let delay = Duration::from_micros(scaled as u64);
        self.state = SupState::WaitingConnect {
            since_down,
            until: now + delay,
        };
    }

    fn make_socket(&mut self, now: Instant) -> TcpSocket {
        self.stats.connect_attempts += 1;
        let port = self
            .base_port
            .wrapping_add((self.stats.connect_attempts - 1) as u16);
        let mut s = TcpSocket::new(self.cfg.tcp.clone(), self.local_addr, port);
        let iss = self.rng.next_u64() as u32;
        s.connect(self.remote_addr, self.remote_port, iss, now);
        s
    }
}

/// Server-side record reassembly with replay deduplication.
///
/// Feed it each connection's received byte stream separately (streams
/// from different connections interleave arbitrarily in time, but each
/// is in-order within itself); it parses the record framing, discards a
/// partial record at a stream's end (the connection died mid-record;
/// the record replays on the next one), and dedups by record sequence.
#[derive(Debug, Default)]
pub struct RecordAssembler {
    records: BTreeMap<u64, Vec<u8>>,
    duplicates: u64,
    truncated_tails: u64,
}

impl RecordAssembler {
    /// An empty assembler.
    pub fn new() -> Self {
        RecordAssembler::default()
    }

    /// Ingests one connection's complete received byte stream.
    pub fn ingest_connection(&mut self, bytes: &[u8]) {
        let mut off = 0;
        while off + RECORD_HEADER <= bytes.len() {
            let len = u16::from_be_bytes([bytes[off], bytes[off + 1]]) as usize;
            if off + RECORD_HEADER + len > bytes.len() {
                break;
            }
            let seq = u64::from_be_bytes(
                bytes[off + 2..off + RECORD_HEADER].try_into().expect("8B"),
            );
            let payload = bytes[off + RECORD_HEADER..off + RECORD_HEADER + len].to_vec();
            if self.records.insert(seq, payload).is_some() {
                self.duplicates += 1;
            }
            off += RECORD_HEADER + len;
        }
        if off < bytes.len() {
            self.truncated_tails += 1;
        }
    }

    /// Distinct records seen.
    pub fn record_count(&self) -> usize {
        self.records.len()
    }

    /// Records received more than once (replay overlap).
    pub fn duplicates(&self) -> u64 {
        self.duplicates
    }

    /// Streams that ended mid-record.
    pub fn truncated_tails(&self) -> u64 {
        self.truncated_tails
    }

    /// Record sequences missing below the highest seen (empty ⇒ the
    /// stream is gap-free).
    pub fn missing(&self) -> Vec<u64> {
        let Some((&max, _)) = self.records.iter().next_back() else {
            return Vec::new();
        };
        (0..=max).filter(|s| !self.records.contains_key(s)).collect()
    }

    /// Concatenated payloads of records 0..n, or `None` if any sequence
    /// below the maximum is missing.
    pub fn assembled(&self) -> Option<Vec<u8>> {
        let mut out = Vec::new();
        for (k, (&seq, payload)) in self.records.iter().enumerate() {
            if seq != k as u64 {
                return None;
            }
            out.extend_from_slice(payload);
        }
        Some(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lln_netip::NodeId;

    fn sup(start: Instant) -> SupervisedConnection {
        SupervisedConnection::new(
            SupervisorConfig::default(),
            NodeId(1).mesh_addr(),
            NodeId(0).mesh_addr(),
            80,
            49152,
            start,
            Rng::new(7),
        )
    }

    #[test]
    fn initial_connect_issued_at_start() {
        let mut s = sup(Instant::from_secs(1));
        assert!(s.poll(None, Instant::ZERO).replace.is_none());
        let p = s.poll(None, Instant::from_secs(1));
        let sock = p.replace.expect("connect at start");
        assert_eq!(sock.state(), TcpState::SynSent);
        assert_eq!(sock.local().1, 49152);
        assert_eq!(s.stats().connect_attempts, 1);
        // No socket yet handed back to poll ⇒ the supervisor believes a
        // connect is in flight, so a vanished socket now counts as a
        // death.
        let p2 = s.poll(None, Instant::from_secs(2));
        assert!(p2.died);
    }

    #[test]
    fn submit_frames_and_caps() {
        let mut s = sup(Instant::ZERO);
        assert!(s.submit(&[1, 2, 3]));
        assert!(s.submit(&[4]));
        assert_eq!(s.stats().records_submitted, 2);
        assert_eq!(s.pending_records(), 2);
        // Fill to the cap.
        let big = vec![0u8; 4096];
        while s.submit(&big) {}
        assert!(!s.can_accept(4096));
    }

    #[test]
    fn backoff_grows_and_jitters() {
        let mut s = sup(Instant::ZERO);
        let mut last_delay = Duration::ZERO;
        let mut now = Instant::ZERO;
        for i in 0..4 {
            let p = s.poll(None, now);
            assert!(p.replace.is_some(), "attempt {i} issued");
            // Vanished socket ⇒ death ⇒ backoff.
            s.poll(None, now);
            let until = s.wake_at().expect("backing off");
            let delay = until.duration_since(now);
            assert!(delay > last_delay, "backoff grows: {delay:?} vs {last_delay:?}");
            last_delay = delay;
            now = until;
        }
        assert_eq!(s.stats().deaths, 4);
    }

    #[test]
    fn record_assembler_dedups_and_orders() {
        let mut sup = sup(Instant::ZERO);
        sup.submit(b"alpha");
        sup.submit(b"beta");
        sup.submit(b"gamma");
        // Connection 1 delivered records 0 and 1, then died mid-record 2.
        let stream1 = &sup.buffer[..sup.record_lens[0] + sup.record_lens[1] + 4];
        // Connection 2 replayed records 1 and 2 in full.
        let stream2 = &sup.buffer[sup.record_lens[0]..];
        let mut asm = RecordAssembler::new();
        asm.ingest_connection(stream1);
        asm.ingest_connection(stream2);
        assert_eq!(asm.record_count(), 3);
        assert_eq!(asm.duplicates(), 1);
        assert_eq!(asm.truncated_tails(), 1);
        assert!(asm.missing().is_empty());
        assert_eq!(asm.assembled().unwrap(), b"alphabetagamma");
    }

    #[test]
    fn assembler_reports_gaps() {
        let mut sup = sup(Instant::ZERO);
        sup.submit(b"one");
        sup.submit(b"two");
        let first = sup.record_lens[0];
        let mut asm = RecordAssembler::new();
        asm.ingest_connection(&sup.buffer[first..]); // record 1 only
        assert_eq!(asm.missing(), vec![0]);
        assert!(asm.assembled().is_none());
    }
}
