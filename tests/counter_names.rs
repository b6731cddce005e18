//! Contract test for the string readers of the typed counters.
//!
//! `Counters::get` returns 0 for a name in no key table, so renaming a
//! key would silently zero every reader of the old name: a benchmark
//! metric, a test assertion, an example's printout. This test scans the
//! reader sources (the benchmark harness, the node test tiers, the
//! examples, the experiment binaries) for literal names passed to a
//! counter read, and checks each against the table of the layer it
//! reads.

use std::path::Path;
use tcplp_repro::node::NodeCounter;
use tcplp_repro::phy::PhyCounter;
use tcplp_repro::sim::CounterKey;

/// Directories whose `.rs` files read counters by name.
const READER_DIRS: &[&str] = &[
    "perfbench/src",
    "examples",
    "crates/node/tests",
    "crates/bench/src",
    "crates/bench/src/bin",
];

/// Medium names the per-layer benchmark metrics read.
const PERFBENCH_PHY: &[&str] = &["frames_tx", "collisions", "prr_drops", "deliveries"];

/// Node names the per-layer benchmark metrics and frame replay read.
const PERFBENCH_NODE: &[&str] = &[
    "link_retries",
    "frames_dropped",
    "dup_frames",
    "indirect_drops",
    "packets_tx",
    "forwarded",
    "queue_drops",
    "queue_byte_drops",
];

/// Names read in one source file, split by the table they index.
#[derive(Default)]
struct Reads {
    phy: Vec<String>,
    node: Vec<String>,
}

fn is_ident(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Every `"literal"` passed as the first argument of `call` where
/// `call` starts a token, with the text before each match.
fn literal_args<'a>(src: &'a str, call: &str) -> Vec<(&'a str, &'a str)> {
    let pat = format!("{call}(\"");
    let mut out = Vec::new();
    for (at, _) in src.match_indices(&pat) {
        let before = &src[..at];
        if before.bytes().last().is_some_and(is_ident) {
            continue;
        }
        let rest = &src[at + pat.len()..];
        let end = rest.find('"').expect("unterminated literal");
        out.push((before, &rest[..end]));
    }
    out
}

/// The counter reads in `src`: `medium.counters.get("…")` and the
/// harness's `medium("…")` read the medium; any other
/// `counters.get("…")` and the harness's `counter("…")` read a node.
fn reads(src: &str) -> Reads {
    let mut r = Reads::default();
    for (before, name) in literal_args(src, "get") {
        if before.ends_with("medium.counters.") {
            r.phy.push(name.to_owned());
        } else if before.ends_with("counters.") {
            r.node.push(name.to_owned());
        }
    }
    for (_, name) in literal_args(src, "medium") {
        r.phy.push(name.to_owned());
    }
    for (_, name) in literal_args(src, "counter") {
        r.node.push(name.to_owned());
    }
    r
}

fn in_table<K: CounterKey>(name: &str) -> bool {
    K::NAMES.contains(&name)
}

#[test]
fn every_name_read_is_in_its_layer_table() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut all = Reads::default();
    for dir in READER_DIRS {
        let mut files: Vec<_> = std::fs::read_dir(root.join(dir))
            .unwrap_or_else(|e| panic!("{dir}: {e}"))
            .map(|e| e.expect("dir entry").path())
            .filter(|p| p.extension().is_some_and(|x| x == "rs"))
            .collect();
        files.sort();
        for path in files {
            let src = std::fs::read_to_string(&path).expect("readable source");
            let r = reads(&src);
            let file = path.strip_prefix(root).unwrap().display().to_string();
            for name in &r.phy {
                assert!(
                    in_table::<PhyCounter>(name),
                    "{file} reads medium counter {name:?}, not in PhyCounter::NAMES"
                );
            }
            for name in &r.node {
                assert!(
                    in_table::<NodeCounter>(name),
                    "{file} reads node counter {name:?}, not in NodeCounter::NAMES"
                );
            }
            all.phy.extend(r.phy);
            all.node.extend(r.node);
        }
    }
    // The scan must see the benchmark's reads, or passing proves little.
    for name in PERFBENCH_PHY {
        assert!(
            all.phy.iter().any(|n| n == name),
            "scan missed medium read {name:?}"
        );
    }
    for name in PERFBENCH_NODE {
        assert!(
            all.node.iter().any(|n| n == name),
            "scan missed node read {name:?}"
        );
    }
}

#[test]
fn scanner_classifies_reads_by_layer() {
    let r = reads(
        r#"
        world.medium.counters.get("frames_tx");
        world.nodes[2].counters.get("reboots");
        node.counters.get("frames_dropped");
        medium("collisions") + end_medium(t) + counter("forwarded");
        node_counter(w, k); stats.get("other");
        "#,
    );
    assert_eq!(r.phy, ["frames_tx", "collisions"]);
    assert_eq!(r.node, ["reboots", "frames_dropped", "forwarded"]);
}
