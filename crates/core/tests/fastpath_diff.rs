//! Differential property test for the header-prediction fast path.
//!
//! The fast path's contract is *behavioral identity*: a socket with
//! header prediction enabled must be indistinguishable from one with it
//! disabled — same wire bytes out, same delivered stream, same state
//! transitions, same stats (modulo the `predicted_*` counters, which
//! only the fast-path run increments). This harness drives two
//! independent connection pairs through an identical seeded script of
//! sends, reads, drops, duplicates and window changes, and compares
//! every observable.
//!
//! Comparing the two runs cannot see an output change that hits both
//! sides, so each pinned seed's wire and delivered stream are also held
//! to an absolute digest ([`WIRE_PINS`]).

use lln_netip::{Ecn, NodeId};
use lln_sim::{Duration, Fnv1a, Instant};
use tcplp::{ListenSocket, Segment, TcpConfig, TcpSocket, TcpState};

const CLIENT_PORT: u16 = 49152;
const SERVER_PORT: u16 = 80;

/// Deterministic script decisions, pre-generated from the seed so both
/// runs see byte-identical perturbations regardless of internal state.
struct Script {
    state: u64,
}

impl Script {
    fn new(seed: u64) -> Self {
        Script {
            state: seed ^ 0x9E37_79B9_7F4A_7C15,
        }
    }

    fn next(&mut self) -> u64 {
        // splitmix64: full-period, seed-friendly.
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn chance(&mut self, percent: u64) -> bool {
        self.next() % 100 < percent
    }
}

/// Everything observable about one run.
#[derive(Default)]
struct Trace {
    /// Every emitted segment's encoded bytes, in order.
    wire: Vec<Vec<u8>>,
    /// Bytes the server application read, in order.
    delivered: Vec<u8>,
    /// (tick, client state, server state) whenever either changed.
    states: Vec<(usize, TcpState, TcpState)>,
    /// Stats digests with the predicted counters masked out.
    client_digest_masked: u64,
    server_digest_masked: u64,
    /// Raw predicted counters (sender acks / receiver data).
    client_predicted_acks: u64,
    server_predicted_data: u64,
}

fn masked_digest(s: &tcplp::TcpStats) -> u64 {
    let mut st = s.clone();
    st.predicted_acks = 0;
    st.predicted_data = 0;
    st.digest()
}

#[allow(clippy::too_many_lines)]
fn run_pair(fast_path: bool, seed: u64) -> Trace {
    let cfg = TcpConfig {
        header_prediction: fast_path,
        ..TcpConfig::default()
    };
    let a_addr = NodeId(1).mesh_addr();
    let b_addr = NodeId(2).mesh_addr();
    let mut client = TcpSocket::new(cfg.clone(), a_addr, CLIENT_PORT);
    let mut listener = ListenSocket::new(cfg, b_addr, SERVER_PORT, &tcplp::NodeBudget::default());

    let mut now = Instant::ZERO;
    client.connect(b_addr, SERVER_PORT, 1000, now);
    let syn = client.poll_transmit(now).expect("SYN");
    let due = listener
        .on_segment(a_addr, &syn, 2000, now)
        .into_reply()
        .expect("SYN-ACK");
    let synack = listener.synack(due, now);
    client.on_segment_view(synack.view(), Ecn::NotCapable, now);
    let ack = client.poll_transmit(now).expect("ACK");
    let mut server = listener
        .on_segment(a_addr, &ack, 0, now)
        .into_spawn()
        .expect("spawn");
    assert_eq!(client.state(), TcpState::Established);
    assert_eq!(server.state(), TcpState::Established);

    let mut script = Script::new(seed);
    let mut trace = Trace::default();
    let mut sent_total = 0usize;
    let mut next_byte: u8 = 0;
    let mut last_states = (client.state(), server.state());
    const TARGET: usize = 12_000;

    for tick in 0..4_000 {
        now += Duration::from_millis(10);
        for s in [&mut client, &mut server] {
            if s.poll_at().is_some_and(|t| t <= now) {
                s.on_timer(now);
            }
        }

        // Scripted app writes: bursts of varying sub- and super-MSS
        // sizes keep Nagle, PSH and window boundaries exercised.
        if sent_total < TARGET && script.chance(70) {
            let want = 1 + (script.next() % 900) as usize;
            let chunk: Vec<u8> = (0..want)
                .map(|_| {
                    next_byte = next_byte.wrapping_add(1);
                    next_byte
                })
                .collect();
            let accepted = client.send(&chunk);
            sent_total += accepted;
            // Rewind the generator for unaccepted bytes so the stream
            // stays gapless.
            next_byte = next_byte.wrapping_sub((want - accepted) as u8);
        }
        if sent_total >= TARGET && client.state() == TcpState::Established {
            client.close();
        }

        // Exchange segments with scripted fates. Collect first so both
        // directions see the same `now`.
        let mut from_client = Vec::new();
        while let Some(seg) = client.poll_transmit(now) {
            trace.wire.push(seg.encode(a_addr, b_addr));
            from_client.push(seg);
        }
        let mut from_server = Vec::new();
        while let Some(seg) = server.poll_transmit(now) {
            trace.wire.push(seg.encode(b_addr, a_addr));
            from_server.push(seg);
        }
        let apply = |dst: &mut TcpSocket, seg: &Segment, script: &mut Script| {
            if script.chance(10) {
                return; // dropped in transit
            }
            dst.on_segment_view(seg.view(), Ecn::NotCapable, now);
            if script.chance(6) {
                // Duplicate delivery (dup ACKs / dup data at the peer).
                dst.on_segment_view(seg.view(), Ecn::NotCapable, now);
            }
        };
        for seg in &from_client {
            apply(&mut server, seg, &mut script);
        }
        for seg in &from_server {
            apply(&mut client, seg, &mut script);
        }

        // Scripted reads: bursty consumption opens and closes the
        // advertised window (window-update boundary cases). Stalling
        // reads entirely for stretches drives the window toward zero.
        if script.chance(60) {
            let mut buf = [0u8; 2048];
            let want = 1 + (script.next() % 2048) as usize;
            let n = server.recv(&mut buf[..want.min(2048)]);
            trace.delivered.extend_from_slice(&buf[..n]);
        }

        let states = (client.state(), server.state());
        if states != last_states {
            trace.states.push((tick, states.0, states.1));
            last_states = states;
        }
        if client.state() == TcpState::Closed && server.state() == TcpState::Closed {
            break;
        }
    }

    // Drain whatever is left at the server.
    let mut buf = [0u8; 4096];
    loop {
        let n = server.recv(&mut buf);
        if n == 0 {
            break;
        }
        trace.delivered.extend_from_slice(&buf[..n]);
    }

    trace.client_digest_masked = masked_digest(&client.stats);
    trace.server_digest_masked = masked_digest(&server.stats);
    trace.client_predicted_acks = client.stats.predicted_acks;
    trace.server_predicted_data = server.stats.predicted_data;
    trace
}

fn assert_identical(fast: &Trace, slow: &Trace, seed: u64) {
    assert_eq!(
        fast.wire.len(),
        slow.wire.len(),
        "seed {seed:#x}: segment counts diverge"
    );
    for (k, (a, b)) in fast.wire.iter().zip(&slow.wire).enumerate() {
        assert_eq!(a, b, "seed {seed:#x}: wire bytes diverge at segment {k}");
    }
    assert_eq!(
        fast.delivered, slow.delivered,
        "seed {seed:#x}: delivered streams diverge"
    );
    assert_eq!(
        fast.states, slow.states,
        "seed {seed:#x}: state transitions diverge"
    );
    assert_eq!(
        fast.client_digest_masked, slow.client_digest_masked,
        "seed {seed:#x}: client stats diverge (beyond predicted counters)"
    );
    assert_eq!(
        fast.server_digest_masked, slow.server_digest_masked,
        "seed {seed:#x}: server stats diverge (beyond predicted counters)"
    );
}

/// FNV-1a over every emitted segment (its length, then its bytes) and
/// then the delivered stream.
fn wire_digest(t: &Trace) -> u64 {
    let mut h = Fnv1a::new();
    for seg in &t.wire {
        h.write_u64(seg.len() as u64);
        h.write_bytes(seg);
    }
    h.write_bytes(&t.delivered);
    h.finish()
}

/// `(seed, wire_digest)` of each pinned seed's run. A change to what
/// the socket sends moves these even when it moves both paths alike.
const WIRE_PINS: [(u64, u64); 4] = [
    (0xD1FF_0001, 0xebb4_1a85_fa25_8086),
    (0xD1FF_0002, 0xd394_113a_e3bb_8004),
    (24001, 0xfc7e_1397_652c_83af),
    (77003, 0xf45f_5d2e_0983_d382),
];

#[test]
fn pinned_seeds_hold_their_wire_digests() {
    for (seed, want) in WIRE_PINS {
        for fast in [true, false] {
            let got = wire_digest(&run_pair(fast, seed));
            assert_eq!(got, want, "seed {seed:#x}, fast {fast}: digest {got:#018x}");
        }
    }
}

#[test]
fn fast_and_slow_paths_are_byte_identical() {
    let mut seeds: Vec<u64> = WIRE_PINS.iter().map(|p| p.0).collect();
    if let Ok(s) = std::env::var("DIFF_SEED") {
        if let Ok(v) = s.parse::<u64>() {
            seeds.push(v);
        }
    }
    for seed in seeds {
        let fast = run_pair(true, seed);
        let slow = run_pair(false, seed);
        assert_identical(&fast, &slow, seed);
        // The fast run must actually take the short paths...
        assert!(
            fast.client_predicted_acks > 0,
            "seed {seed:#x}: sender never took the pure-ACK fast path"
        );
        assert!(
            fast.server_predicted_data > 0,
            "seed {seed:#x}: receiver never took the in-order-data fast path"
        );
        // ...and the disabled run must not count any.
        assert_eq!(slow.client_predicted_acks, 0);
        assert_eq!(slow.server_predicted_data, 0);
    }
}

/// Boundary cases right at the prediction predicate: a clean in-order
/// exchange, a dup-ACK burst, and a window change each produce the same
/// observables with the fast path on and off.
#[test]
fn predicate_boundaries_match() {
    for fast in [true, false] {
        let cfg = TcpConfig {
            header_prediction: fast,
            ..TcpConfig::default()
        };
        let a_addr = NodeId(1).mesh_addr();
        let b_addr = NodeId(2).mesh_addr();
        let mut client = TcpSocket::new(cfg.clone(), a_addr, CLIENT_PORT);
        let mut listener =
            ListenSocket::new(cfg, b_addr, SERVER_PORT, &tcplp::NodeBudget::default());
        let now = Instant::ZERO;
        client.connect(b_addr, SERVER_PORT, 1000, now);
        let syn = client.poll_transmit(now).expect("SYN");
        let due = listener
            .on_segment(a_addr, &syn, 2000, now)
            .into_reply()
            .expect("SYN-ACK");
        let synack = listener.synack(due, now);
        client.on_segment_view(synack.view(), Ecn::NotCapable, now);
        let ack = client.poll_transmit(now).expect("ACK");
        let mut server = listener
            .on_segment(a_addr, &ack, 0, now)
            .into_spawn()
            .expect("spawn");

        // In-order data -> predicted on the receiver (when enabled).
        client.send(&[0xAA; 100]);
        let data = client.poll_transmit(now).expect("data");
        server.on_segment_view(data.view(), Ecn::NotCapable, now);
        assert_eq!(server.stats.predicted_data, u64::from(fast));

        // The ACK for new data -> predicted on the sender (when enabled).
        // Read first so the delayed ACK re-advertises the full window;
        // a shrunken window is a deliberate predicate miss.
        let _ = server.recv(&mut [0u8; 128]);
        let later = now + Duration::from_millis(200);
        server.on_timer(later); // delack fires
        let ack = server.poll_transmit(later).expect("delayed ACK");
        client.on_segment_view(ack.view(), Ecn::NotCapable, later);
        assert_eq!(client.stats.predicted_acks, u64::from(fast));

        // A duplicate of that same ACK is NOT predicted (ack == snd_una
        // now): the dup-ACK machinery runs identically either way.
        let before = client.stats.predicted_acks;
        client.on_segment_view(ack.view(), Ecn::NotCapable, later);
        assert_eq!(
            client.stats.predicted_acks, before,
            "duplicate ACK must not take the ACK fast path"
        );

        // A window change on an otherwise-predictable ACK is a miss:
        // have the server buffer unread data so its next ACK shrinks
        // the advertised window.
        client.send(&[0xBB; 200]);
        let data2 = client.poll_transmit(later).expect("more data");
        server.on_segment_view(data2.view(), Ecn::NotCapable, later);
        let later2 = later + Duration::from_millis(200);
        server.on_timer(later2); // delack with shrunken window
        let ack2 = server.poll_transmit(later2).expect("delayed ACK 2");
        let before = client.stats.predicted_acks;
        client.on_segment_view(ack2.view(), Ecn::NotCapable, later2);
        assert_eq!(
            client.stats.predicted_acks, before,
            "window-changing ACK must not take the ACK fast path"
        );
    }
}
