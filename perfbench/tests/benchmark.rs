//! The benchmark's own checks, on every workload at 1/20 of its size:
//!
//! - the traced (stepped) run reproduces the untraced run exactly;
//! - captured data frames plus link ACKs equal the medium's `frames_tx`;
//! - the replay re-encodes every packet and segment byte-identically,
//!   and on the chains its packet counts match the world's;
//! - every delivered byte checks out;
//! - each workload exercises the layer it was chosen for;
//! - `BENCHMARK.json` names exactly the metrics the binary prints.

use perfbench::e2e::{self, E2e};
use perfbench::trace::{layer_metrics, node_counter, traced_rep, TracedRep};
use perfbench::{Outcome, Run, Workload};

const SCALE: u32 = 20;

struct Checked {
    plain: Outcome,
    traced: TracedRep,
}

fn check(workload: Workload) -> Checked {
    let seed = workload.pinned_seed();
    let plain = e2e::rep(|| Run::scaled(workload, seed, SCALE)).outcome;
    let mut traced = traced_rep(Run::scaled(workload, seed, SCALE), seed);
    let t = traced.run.outcome();
    let w = &traced.run.world;
    assert_eq!(
        t.digest, plain.digest,
        "{workload:?}: stepping changed the simulation"
    );
    assert_eq!(t.delivered_bytes, plain.delivered_bytes);
    assert_eq!(t.frames_tx, plain.frames_tx);
    assert_eq!(
        traced.data_txs + traced.acks,
        w.medium.counters.get("frames_tx"),
        "{workload:?}: capture missed transmissions"
    );
    assert_eq!(traced.layers.encode_mismatches, 0, "{workload:?}");
    assert_eq!(traced.layers.compress_mismatches, 0, "{workload:?}");
    assert_eq!(
        plain.failed, 0,
        "{workload:?}: {} of {} failed",
        plain.failed, plain.attempted
    );
    assert!(plain.attempted > 0);
    Checked { plain, traced }
}

/// On a chain every packet reassembled at a relay was forwarded there,
/// and every other one reached a TCP endpoint.
fn assert_replay_counts_match(c: &Checked) {
    let l = &c.traced.layers;
    let w = &c.traced.run.world;
    assert_eq!(l.forwarded, node_counter(w, "forwarded"));
    let rcvd: u64 = w
        .nodes
        .iter()
        .flat_map(|n| n.transport.tcp.iter())
        .map(|s| s.stats.segs_rcvd)
        .sum();
    // A spawned socket counts the segment that completed its handshake,
    // so of the listener's segments only the SYNs are added.
    let syns: u64 = w
        .nodes
        .iter()
        .filter_map(|n| n.transport.tcp_listener.as_ref())
        .map(|ls| ls.stats.syns_rcvd)
        .sum();
    assert_eq!(l.segments, rcvd + syns, "delivered segments");
    assert_eq!(l.packets, l.segments + l.forwarded);
}

fn fastpath_ratio(t: &TracedRep) -> f64 {
    let socks = || {
        t.run
            .world
            .nodes
            .iter()
            .flat_map(|n| n.transport.tcp.iter())
    };
    let predicted: u64 = socks()
        .map(|s| s.stats.predicted_acks + s.stats.predicted_data)
        .sum();
    let rcvd: u64 = socks().map(|s| s.stats.segs_rcvd).sum();
    predicted as f64 / rcvd as f64
}

#[test]
fn bulk_1hop_stays_on_the_fast_path() {
    let c = check(Workload::Bulk1Hop);
    assert_eq!(
        c.plain.delivered_bytes,
        perfbench::workload::BULK_1HOP_BYTES / u64::from(SCALE)
    );
    assert_eq!(node_counter(&c.traced.run.world, "frames_dropped"), 0);
    assert_replay_counts_match(&c);
    let r = fastpath_ratio(&c.traced);
    assert!(r >= 0.9, "fastpath ratio {r}");
}

#[test]
fn chain_3hop_collides_and_relays() {
    let c = check(Workload::Chain3Hop);
    assert_eq!(
        c.plain.delivered_bytes,
        perfbench::workload::CHAIN_3HOP_BYTES / u64::from(SCALE)
    );
    assert!(c.traced.run.world.medium.counters.get("collisions") > 0);
    assert!(c.traced.layers.forwarded > 0);
    assert_replay_counts_match(&c);
}

#[test]
fn anemometer_tree_polls_its_sleepy_leaves() {
    let c = check(Workload::AnemometerTree);
    // Each of the 4 leaves polls its parent many times per minute of
    // the scaled 18-minute run.
    assert!(c.traced.polls > 4 * 18, "polls {}", c.traced.polls);
    assert!(
        c.plain.radio_dc < 0.2,
        "leaves must sleep: {}",
        c.plain.radio_dc
    );
    assert!(c.plain.reliability > 0.9);
}

#[test]
fn syn_frag_flood_loads_the_listener() {
    let c = check(Workload::SynFragFlood);
    let w = &c.traced.run.world;
    let flood = w.flood_stats(c.traced.run.sink).expect("flooder attached");
    let syns: u64 = w
        .nodes
        .iter()
        .filter_map(|n| n.transport.tcp_listener.as_ref())
        .map(|ls| ls.stats.syns_rcvd)
        .sum();
    // 320 SYNs/s from 5 s to the scaled 75 s horizon.
    assert!(flood.syns_sent > 20_000, "syns {}", flood.syns_sent);
    assert!(syns >= flood.syns_sent, "listener saw {syns}");
    assert_eq!(c.traced.layers.forged_syns, flood.syns_sent);
    assert_eq!(
        c.plain.delivered_bytes,
        perfbench::workload::FLOOD_BYTES / u64::from(SCALE)
    );
}

#[test]
fn repetitions_reproduce_their_digest() {
    let e = E2e {
        reps: (0..2)
            .map(|_| e2e::rep(|| Run::scaled(Workload::Chain3Hop, 7, SCALE)))
            .collect(),
        setups: vec![1e-6],
    };
    assert!(e.reproducible());
    assert_eq!(e.failed(), 0);
    // Chunk-wise fastest times never exceed a whole repetition's time.
    let fastest_rep = e
        .reps
        .iter()
        .map(|r| r.wall_s())
        .fold(f64::INFINITY, f64::min);
    assert!(e.wall_s() > 0.0 && e.wall_s() <= fastest_rep);
    let other = e2e::rep(|| Run::scaled(Workload::Chain3Hop, 8, SCALE));
    assert_ne!(
        other.outcome.digest,
        e.outcome().digest,
        "the seed reaches the world"
    );
}

/// `(name, unit)` pairs of one section of `BENCHMARK.json`, in order.
fn section(json: &str, key: &str) -> Vec<(String, String)> {
    let start = json.find(&format!("\"{key}\"")).expect("section present");
    let body = &json[start..];
    let body = &body[..body.find(']').expect("section closes")];
    let field = |obj: &str, k: &str| {
        let at = obj.find(&format!("\"{k}\": \"")).expect("field present") + k.len() + 5;
        obj[at..at + obj[at..].find('"').expect("string closes")].to_string()
    };
    body.split('{')
        .skip(1)
        .map(|obj| (field(obj, "name"), field(obj, "unit")))
        .collect()
}

#[test]
fn benchmark_json_matches_the_printed_metrics() {
    let json = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let names = |ms: Vec<perfbench::report::Metric>| -> Vec<(String, String)> {
        ms.into_iter()
            .map(|m| (m.name.to_string(), m.unit.to_string()))
            .collect()
    };
    let e = E2e {
        reps: vec![e2e::rep(|| Run::scaled(Workload::Bulk1Hop, 1, 200))],
        setups: vec![1e-6],
    };
    assert_eq!(section(&json, "end_to_end"), names(e.metrics()));
    let t = traced_rep(Run::scaled(Workload::Bulk1Hop, 1, 200), 1);
    assert_eq!(section(&json, "per_layer"), names(layer_metrics(&[t], 1.0)));
    let workloads: Vec<String> = Workload::ALL
        .iter()
        .map(|w| format!("\"name\": \"{}\"", w.name()))
        .collect();
    for w in &workloads {
        assert!(json.contains(w.as_str()), "{w} missing");
    }
}
