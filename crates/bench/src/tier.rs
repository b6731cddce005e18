//! The robustness tiers' worlds and their delivery contracts.
//!
//! Three tiers back the paper's claim that TCPlp stays reliable under
//! loss (§9.4): chaos (fault plans against a supervised client),
//! torture (an in-band adversary) and overload (floods). Each runs a
//! bulk transfer over the same 3-hop chain and judges it by one of two
//! contracts:
//!
//! - the **stream contract** ([`stream_verdict`]) for a plain client:
//!   the sink's bytes are an exact prefix of the sent pattern `m % 256`
//!   on at most one connection, and the run either completes or the
//!   client dies `Closed` with a [`CloseReason`];
//! - the **record contract** ([`record_contract`]) for a supervised
//!   client: per client the records are gap-free, and none arrives
//!   twice on one connection or comes back changed on a later one.
//!
//! The tier tests (`crates/node/tests/{chaos,torture,overload}.rs`),
//! the sweep binaries (`chaos_sweep`, `torture_sweep`, `flood_sweep`)
//! and the `chaos` example all build their worlds and check their
//! outcomes here. Variation goes through the `World` methods
//! (`attach_adversary`, `attach_flood`, `apply_fault_plan`) between
//! [`chain4`] and [`install_bulk`]. The chaos tier also runs supervised
//! anemometer leaves over a Fig. 3-like tree, [`chaos_tree`].

use std::fmt;

use lln_netip::Ipv6Addr;
use lln_node::route::Topology;
use lln_node::stack::NodeKind;
use lln_node::supervisor::{RecordAssembler, SupervisorConfig};
use lln_node::world::{World, WorldConfig};
use lln_sim::{Duration, Fnv1a, Instant};
use tcplp::{CloseReason, NodeBudget, TcpConfig, TcpState};

/// The border router: listener and capture sink.
pub const SERVER: usize = 0;
/// The far end of the chain: the bulk sender.
pub const CLIENT: usize = 3;
/// Bytes the plain client sends (torture and overload tiers).
pub const BULK_BYTES: usize = 20_000;
/// Bytes the supervised client sends (chaos tier).
pub const SUPERVISED_BULK_BYTES: usize = 120_000;

/// One sink capture: each connection's remote endpoint and its bytes.
pub type Capture = [((Ipv6Addr, u16), Vec<u8>)];

/// TCP tuned so a connection that cannot make progress dies in bounded
/// time (retransmit or persist exhaustion) instead of stalling past the
/// simulation horizon.
pub fn hardened_tcp() -> TcpConfig {
    TcpConfig {
        max_retransmits: 8,
        max_rto: Duration::from_secs(4),
        ..TcpConfig::default()
    }
}

/// Supervisor tuned for fast dead-path detection: with the RTO capped
/// at 4 s and 3 retransmits, a dead path is declared within ~20 s, so a
/// 30 s blackout kills the connection instead of being ridden out.
pub fn chaos_supervisor() -> SupervisorConfig {
    let mut cfg = SupervisorConfig::default();
    cfg.tcp.max_retransmits = 3;
    cfg.tcp.max_rto = Duration::from_secs(4);
    cfg
}

/// The tiers' world: a 4-node chain at PRR 0.999, border router at
/// [`SERVER`] and routers on the other three nodes.
pub fn chain4(seed: u64, budget: NodeBudget) -> World {
    let topo = Topology::chain(4, 0.999);
    let kinds = [
        NodeKind::BorderRouter,
        NodeKind::Router,
        NodeKind::Router,
        NodeKind::Router,
    ];
    World::new(
        &topo,
        &kinds,
        WorldConfig {
            seed,
            budget,
            ..WorldConfig::default()
        },
    )
}

/// Routers of [`chaos_tree`], nodes 1 to 4.
const TREE_ROUTERS: usize = 4;
/// Supervised anemometer leaves of [`chaos_tree`], from [`FIRST_LEAF`].
pub const TREE_LEAVES: usize = 4;
/// The first leaf of [`chaos_tree`].
pub const FIRST_LEAF: usize = 1 + TREE_ROUTERS;

/// The chaos tier's tree at `seed`: `Topology::office_tree(4, 4,
/// 0.999)`, the border router ([`SERVER`]) listening into a capture
/// sink, and [`TREE_LEAVES`] sleepy leaves, each a [`chaos_supervisor`]
/// client (connecting at 100 ms + 40 ms per leaf) sending one unbatched
/// reading a second from 1 s. The listener probes connections idle for
/// 30 s, so the socket of a leaf that rebooted (and reconnects from a
/// new port) is freed instead of holding a slot of the TCP buffer class
/// forever; healthy leaves send every second, so live connections are
/// never probed. Apply fault plans after this call.
pub fn chaos_tree(seed: u64) -> World {
    let topo = Topology::office_tree(TREE_ROUTERS, TREE_LEAVES, 0.999);
    let mut kinds = vec![NodeKind::BorderRouter];
    kinds.extend([NodeKind::Router; TREE_ROUTERS]);
    kinds.extend([NodeKind::SleepyLeaf; TREE_LEAVES]);
    let wc = WorldConfig {
        seed,
        ..WorldConfig::default()
    };
    let mut world = World::new(&topo, &kinds, wc);
    let listener = TcpConfig {
        keepalive_idle: Some(Duration::from_secs(30)),
        ..TcpConfig::default()
    };
    world.add_tcp_listener(SERVER, listener);
    world.set_sink_capture(SERVER);
    for l in 0..TREE_LEAVES {
        let start = Instant::from_millis(100 + 40 * l as u64);
        let leaf = FIRST_LEAF + l;
        world.add_supervised_client(leaf, SERVER, chaos_supervisor(), start);
        world.set_anemometer(leaf, 64, None, Instant::from_secs(1));
    }
    world
}

/// Which client [`install_bulk`] puts on [`CLIENT`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Sender {
    /// A plain [`hardened_tcp`] client sending [`BULK_BYTES`] to a
    /// hardened listener.
    Plain,
    /// A [`chaos_supervisor`] client sending [`SUPERVISED_BULK_BYTES`]
    /// as records to a default listener.
    Supervised,
}

/// Installs the listener and the capture sink on [`SERVER`], and the
/// client and its bulk sender on [`CLIENT`], connecting at 10 ms. The
/// client draws from the world RNG, so attach adversaries and flooders
/// before this call and apply fault plans after it.
pub fn install_bulk(world: &mut World, sender: Sender) {
    let at = Instant::from_millis(10);
    match sender {
        Sender::Plain => {
            world.add_tcp_listener(SERVER, hardened_tcp());
            world.set_sink_capture(SERVER);
            world.add_tcp_client(CLIENT, SERVER, hardened_tcp(), at);
            world.set_bulk_sender(CLIENT, Some(BULK_BYTES as u64));
        }
        Sender::Supervised => {
            world.add_tcp_listener(SERVER, TcpConfig::default());
            world.set_sink_capture(SERVER);
            world.add_supervised_client(CLIENT, SERVER, chaos_supervisor(), at);
            world.set_bulk_sender(CLIENT, Some(SUPERVISED_BULK_BYTES as u64));
        }
    }
}

/// The first `n` bytes of the bulk senders' pattern, `m % 256`.
pub fn pattern(n: usize) -> Vec<u8> {
    (0..n).map(|m| m as u8).collect()
}

/// How a plain bulk transfer ended. `Display` prints the sweeps'
/// verdict column: `OK`, `died-clean`, `STALLED` or `CORRUPT`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StreamVerdict {
    /// All [`BULK_BYTES`] arrived, exactly.
    Complete,
    /// An exact but short prefix arrived, and the client is `Closed`
    /// with this reason.
    DiedClean(CloseReason),
    /// An exact but short prefix arrived, and the client is still in
    /// this state: a silent stall.
    Stalled { delivered: usize, state: TcpState },
    /// The stream broke the contract.
    Corrupt(Corruption),
}

/// How a delivered stream broke the contract.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Corruption {
    /// One plain client opened this many connections.
    Connections(usize),
    /// This many bytes arrived, more than were sent.
    Overlong(usize),
    /// The byte at this offset is not the pattern's.
    ByteAt(usize),
}

impl StreamVerdict {
    /// Whether the contract holds: complete, or a clean, attributed death.
    pub fn holds(self) -> bool {
        matches!(self, StreamVerdict::Complete | StreamVerdict::DiedClean(_))
    }
}

impl fmt::Display for StreamVerdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.pad(match self {
            StreamVerdict::Complete => "OK",
            StreamVerdict::DiedClean(_) => "died-clean",
            StreamVerdict::Stalled { .. } => "STALLED",
            StreamVerdict::Corrupt(_) => "CORRUPT",
        })
    }
}

/// The stream contract, judged on the sink's capture and the plain
/// client's end state (`state`, `close_reason`).
pub fn stream_verdict(
    capture: &Capture,
    (state, reason): (TcpState, Option<CloseReason>),
) -> StreamVerdict {
    if capture.len() > 1 {
        return StreamVerdict::Corrupt(Corruption::Connections(capture.len()));
    }
    let got: &[u8] = capture.first().map_or(&[], |(_, b)| b);
    if got.len() > BULK_BYTES {
        return StreamVerdict::Corrupt(Corruption::Overlong(got.len()));
    }
    if let Some(at) = got.iter().enumerate().position(|(m, &b)| b != m as u8) {
        return StreamVerdict::Corrupt(Corruption::ByteAt(at));
    }
    match (got.len() == BULK_BYTES, state, reason) {
        (true, _, _) => StreamVerdict::Complete,
        (false, TcpState::Closed, Some(reason)) => StreamVerdict::DiedClean(reason),
        (false, state, _) => StreamVerdict::Stalled {
            delivered: got.len(),
            state,
        },
    }
}

/// [`stream_verdict`] on a finished [`install_bulk`]`(Sender::Plain)` world.
pub fn stream(world: &World) -> StreamVerdict {
    let client = world.nodes[CLIENT].transport.tcp.first().expect("client");
    stream_verdict(
        world.nodes[SERVER].app.sink_capture(),
        (client.state(), client.close_reason()),
    )
}

/// Reassembles a capture's streams into records, one assembler per
/// client address, in order of each client's first connection.
pub fn records_by_client(capture: &Capture) -> Vec<(Ipv6Addr, RecordAssembler)> {
    let mut out: Vec<(Ipv6Addr, RecordAssembler)> = Vec::new();
    for ((addr, _port), bytes) in capture {
        let i = match out.iter().position(|(a, _)| a == addr) {
            Some(i) => i,
            None => {
                out.push((*addr, RecordAssembler::new()));
                out.len() - 1
            }
        };
        out[i].1.ingest_connection(bytes);
    }
    out
}

/// The record contract on one client's records: gap-free, no record
/// twice on one connection, every replay on a later connection equal to
/// the record's first copy, and every stream torn mid-record torn at a
/// prefix of that record's whole copy. Replays and torn streams are
/// allowed: the supervisor re-sends every record not yet cumulatively
/// ACKed, whole, on its next connection. A record that never comes
/// whole leaves a gap, or a short stream for a caller that knows the
/// total.
pub fn record_contract(asm: &RecordAssembler) -> Result<(), String> {
    let missing = asm.missing();
    if !missing.is_empty() {
        return Err(format!("records missing: {missing:?}"));
    }
    if asm.duplicates() > 0 {
        return Err(format!(
            "{} records twice on one connection",
            asm.duplicates()
        ));
    }
    if asm.replay_mismatches() > 0 {
        return Err(format!(
            "{} replays differ from the first copy",
            asm.replay_mismatches()
        ));
    }
    if asm.torn_mismatches() > 0 {
        return Err(format!(
            "{} torn records are no prefix of their whole copy",
            asm.torn_mismatches()
        ));
    }
    Ok(())
}

/// Everything observable about a finished world, as one digest: every
/// socket's and listener's stats, every node's governor, the bytes the
/// [`SERVER`] sink captured, the final simulated time (the sharpest
/// probe of the event schedule) and the medium's frame counts.
pub fn world_digest(world: &World) -> u64 {
    let mut words: Vec<u64> = Vec::new();
    for n in &world.nodes {
        for s in &n.transport.tcp {
            words.push(s.stats.digest());
        }
        if let Some(l) = &n.transport.tcp_listener {
            words.push(l.stats.digest());
        }
        words.push(n.governor.digest());
    }
    let delivered: usize = world.nodes[SERVER]
        .app
        .sink_capture()
        .iter()
        .map(|(_, b)| b.len())
        .sum();
    words.push(delivered as u64);
    words.push(world.now().as_micros());
    words.push(world.medium.counters.get("frames_tx"));
    words.push(world.medium.counters.get("deliveries"));
    Fnv1a::digest_words(&words)
}

/// The seed in environment variable `var`, or `base` when it is unset:
/// CI pins seeds and developers fuzz with the same binary. The value is
/// decimal or `0x` hex, with or without `_` separators, so a seed
/// printed as `0xF10_0D5E` can be pasted back.
///
/// # Panics
///
/// If `var` is set to anything else: a seed that cannot be read must
/// not quietly run `base` instead.
pub fn seed_from_env(var: &str, base: u64) -> u64 {
    std::env::var_os(var).map_or(base, |value| parse_seed(var, &value))
}

/// Reads `value`, the value of `var`, as a seed (see [`seed_from_env`]).
fn parse_seed(var: &str, value: &std::ffi::OsStr) -> u64 {
    let digits = value.to_str().map(|s| s.replace('_', ""));
    let seed = digits.as_deref().and_then(|d| match d.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => d.parse().ok(),
    });
    seed.unwrap_or_else(|| panic!("{var}={value:?} is not a seed: use decimal or 0x hex"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use lln_node::supervisor::RECORD_HEADER;

    fn conn(port: u16, bytes: Vec<u8>) -> ((Ipv6Addr, u16), Vec<u8>) {
        ((Ipv6Addr::UNSPECIFIED, port), bytes)
    }

    const ESTABLISHED: (TcpState, Option<CloseReason>) = (TcpState::Established, None);
    const DIED: (TcpState, Option<CloseReason>) =
        (TcpState::Closed, Some(CloseReason::TooManyRetransmits));

    #[test]
    fn full_stream_is_complete() {
        let capture = [conn(49152, pattern(BULK_BYTES))];
        assert_eq!(
            stream_verdict(&capture, ESTABLISHED),
            StreamVerdict::Complete
        );
        assert_eq!(StreamVerdict::Complete.to_string(), "OK");
    }

    #[test]
    fn short_stream_with_a_closed_client_is_a_clean_death() {
        let capture = [conn(49152, pattern(1_000))];
        let v = stream_verdict(&capture, DIED);
        assert_eq!(v, StreamVerdict::DiedClean(CloseReason::TooManyRetransmits));
        assert!(v.holds());
        assert_eq!(v.to_string(), "died-clean");
        // Nothing delivered at all is a prefix too.
        assert!(stream_verdict(&[], DIED).holds());
    }

    #[test]
    fn short_stream_with_a_live_client_is_a_stall() {
        let capture = [conn(49152, pattern(1_000))];
        let v = stream_verdict(&capture, ESTABLISHED);
        assert_eq!(
            v,
            StreamVerdict::Stalled {
                delivered: 1_000,
                state: TcpState::Established
            }
        );
        assert!(!v.holds());
        assert_eq!(v.to_string(), "STALLED");
        // Closed without a reason is not an attributed death.
        assert!(!stream_verdict(&capture, (TcpState::Closed, None)).holds());
    }

    #[test]
    fn a_flipped_byte_is_corrupt() {
        for short in [false, true] {
            let mut bytes = pattern(if short { 5_000 } else { BULK_BYTES });
            bytes[4_321] ^= 0x01;
            let v = stream_verdict(&[conn(49152, bytes)], DIED);
            assert_eq!(v, StreamVerdict::Corrupt(Corruption::ByteAt(4_321)));
            assert!(!v.holds());
            assert_eq!(v.to_string(), "CORRUPT");
        }
    }

    #[test]
    fn a_second_connection_is_corrupt() {
        let capture = [conn(49152, pattern(BULK_BYTES)), conn(49153, pattern(10))];
        assert_eq!(
            stream_verdict(&capture, ESTABLISHED),
            StreamVerdict::Corrupt(Corruption::Connections(2))
        );
    }

    #[test]
    fn more_bytes_than_sent_is_corrupt() {
        let capture = [conn(49152, pattern(BULK_BYTES + 1))];
        assert_eq!(
            stream_verdict(&capture, ESTABLISHED),
            StreamVerdict::Corrupt(Corruption::Overlong(BULK_BYTES + 1))
        );
    }

    /// One framed record: length, sequence, payload.
    fn record(seq: u64, payload: &[u8]) -> Vec<u8> {
        let mut r = Vec::with_capacity(RECORD_HEADER + payload.len());
        r.extend_from_slice(&(payload.len() as u16).to_be_bytes());
        r.extend_from_slice(&seq.to_be_bytes());
        r.extend_from_slice(payload);
        r
    }

    fn records(streams: &[Vec<u8>]) -> Vec<(Ipv6Addr, RecordAssembler)> {
        let capture: Vec<_> = (0u16..)
            .zip(streams)
            .map(|(i, s)| conn(50176 + i, s.clone()))
            .collect();
        records_by_client(&capture)
    }

    #[test]
    fn an_identical_replay_on_a_later_connection_is_allowed() {
        let first = [record(0, b"alpha"), record(1, b"beta")].concat();
        let second = [record(1, b"beta"), record(2, b"gamma")].concat();
        let by_client = records(&[first, second]);
        assert_eq!(by_client.len(), 1, "one client address");
        let asm = &by_client[0].1;
        assert_eq!(asm.replays(), 1);
        assert_eq!(record_contract(asm), Ok(()));
        assert_eq!(asm.assembled().unwrap(), b"alphabetagamma");
    }

    #[test]
    fn a_duplicate_within_one_connection_fails() {
        let stream = [record(0, b"alpha"), record(0, b"alpha")].concat();
        let asm = &records(&[stream])[0].1;
        assert_eq!((asm.duplicates(), asm.replays()), (1, 0));
        assert!(record_contract(asm).is_err());
    }

    #[test]
    fn a_replay_that_differs_from_the_first_copy_fails() {
        let first = [record(0, b"alpha"), record(1, b"beta")].concat();
        let second = record(1, b"BETA");
        let asm = &records(&[first, second])[0].1;
        assert_eq!((asm.replays(), asm.replay_mismatches()), (1, 1));
        assert!(record_contract(asm).is_err());
    }

    #[test]
    fn a_gap_fails() {
        let gap = [record(0, b"alpha"), record(2, b"gamma")].concat();
        assert!(record_contract(&records(&[gap])[0].1).is_err());
    }

    #[test]
    fn a_torn_record_replayed_whole_is_allowed() {
        let mut torn = record(0, b"alpha");
        torn.extend_from_slice(&record(1, b"beta")[..RECORD_HEADER + 1]);
        let asm = &records(&[torn, record(1, b"beta")])[0].1;
        assert_eq!((asm.truncated_tails(), asm.replays()), (1, 0));
        assert_eq!(record_contract(asm), Ok(()));
        assert_eq!(asm.assembled().unwrap(), b"alphabeta");
    }

    #[test]
    fn a_torn_record_that_differs_from_its_whole_copy_fails() {
        let whole = record(1, b"beta");
        let mut bent = whole[..RECORD_HEADER + 2].to_vec();
        bent[RECORD_HEADER + 1] ^= 1;
        let mut long = whole.clone();
        long[1] += 1; // claims one byte more than the record has
        for tail in [bent, long[..RECORD_HEADER + 1].to_vec()] {
            let mut torn = record(0, b"alpha");
            torn.extend_from_slice(&tail);
            let asm = &records(&[torn, whole.clone()])[0].1;
            assert_eq!((asm.truncated_tails(), asm.torn_mismatches()), (1, 1));
            assert!(record_contract(asm).is_err());
        }
    }

    #[test]
    fn a_torn_record_checks_against_a_whole_copy_that_came_first() {
        // The record came whole on the first connection and was torn on
        // a replay (its ACK was lost before the connection died).
        let first = [record(0, b"alpha"), record(1, b"beta")].concat();
        let torn = record(1, b"beta")[..RECORD_HEADER + 3].to_vec();
        let asm = &records(&[first.clone(), torn])[0].1;
        assert_eq!((asm.truncated_tails(), asm.torn_mismatches()), (1, 0));
        assert_eq!(record_contract(asm), Ok(()));
        let bent = record(1, b"bent")[..RECORD_HEADER + 3].to_vec();
        assert!(record_contract(&records(&[first, bent])[0].1).is_err());
    }

    #[test]
    fn a_tail_with_nothing_to_compare_is_allowed() {
        // A header cut short names no record, and a record that never
        // came whole (the run ended mid-record) has no whole copy.
        let short = [record(0, b"alpha"), record(1, b"beta")[..4].to_vec()].concat();
        let unfinished = [record(0, b"alpha"), record(1, b"beta")[..12].to_vec()].concat();
        for stream in [short, unfinished] {
            let asm = &records(&[stream])[0].1;
            assert_eq!((asm.truncated_tails(), asm.torn_mismatches()), (1, 0));
            assert_eq!(record_contract(asm), Ok(()));
        }
    }

    #[test]
    fn records_are_grouped_by_client_address() {
        let a: Ipv6Addr = lln_netip::NodeId(5).mesh_addr();
        let b: Ipv6Addr = lln_netip::NodeId(6).mesh_addr();
        let capture = [
            ((a, 1), record(0, b"a0")),
            ((b, 1), record(0, b"b0")),
            ((a, 2), record(1, b"a1")),
        ];
        let by_client = records_by_client(&capture);
        assert_eq!(by_client.len(), 2);
        assert_eq!(by_client[0].0, a);
        assert_eq!(by_client[0].1.assembled().unwrap(), b"a0a1");
        assert_eq!(by_client[1].1.assembled().unwrap(), b"b0");
    }

    #[test]
    fn seed_from_env_falls_back_to_the_base() {
        assert_eq!(seed_from_env("LLN_TIER_SEED_THAT_IS_NEVER_SET", 42), 42);
    }

    fn seed(value: &str) -> u64 {
        parse_seed("SEED", value.as_ref())
    }

    #[test]
    fn a_seed_reads_as_decimal() {
        assert_eq!(seed("52001"), 52001);
        assert_eq!(seed("52_001"), 52001);
    }

    #[test]
    fn a_seed_reads_as_hex() {
        assert_eq!(seed("0xF10_0D5E"), 0xF10_0D5E);
        assert_eq!(seed("0x5eed"), 0x5eed);
    }

    #[test]
    #[should_panic(expected = "FLOOD_SEED=\"0xF1O\" is not a seed")]
    fn a_seed_that_is_no_number_panics_with_the_variable() {
        parse_seed("FLOOD_SEED", "0xF1O".as_ref());
    }

    #[test]
    #[should_panic(expected = "SEED=\"\" is not a seed")]
    fn an_empty_seed_panics() {
        seed("");
    }
}
