//! Torture sweep: graceful degradation under the in-band adversary.
//!
//! Sweeps each adversary profile's mangle rate from 0 to 30% against a
//! plain TCPlp bulk transfer on the 3-hop chain and reports goodput,
//! completion, and the hardening counters that absorbed the attack.
//! The acceptance criterion is *graceful degradation*: goodput may fall
//! as the rate rises, but below a 10% mangle rate the transfer must
//! still complete byte-exactly (no cliff to zero), and at any rate the
//! outcome must be a clean completion or an attributed death — never a
//! corrupt stream or a silent stall.

use lln_bench::tier::{self, Sender, StreamVerdict, BULK_BYTES, CLIENT, SERVER};
use lln_node::adversary::AdversaryProfile;
use lln_sim::Duration;
use tcplp::NodeBudget;

const SEED: u64 = 0x70b7_5eed;

struct Outcome {
    goodput_bps: f64,
    delivered: u64,
    verdict: StreamVerdict,
    mangles: u64,
    challenge_acks: u64,
    sack_rejected: u64,
    conflicts: u64,
    probes: u64,
}

fn run(profile: AdversaryProfile, adv_node: usize) -> Outcome {
    let mut world = tier::chain4(SEED, NodeBudget::default());
    world.attach_adversary(adv_node, profile);
    tier::install_bulk(&mut world, Sender::Plain);
    world.run_for(Duration::from_secs(400));

    let client = &world.nodes[CLIENT].transport.tcp[0].stats;
    let server = world.nodes[SERVER]
        .transport
        .tcp
        .first()
        .map(|s| s.stats.clone())
        .unwrap_or_default();
    let adv = world.adversary_stats(adv_node).expect("attached");
    Outcome {
        goodput_bps: world.nodes[SERVER].app.sink_goodput_bps(),
        delivered: world.nodes[SERVER].app.sink_received(),
        verdict: tier::stream(&world),
        mangles: adv.total_mangles(),
        challenge_acks: client.challenge_acks
            + client.challenge_acks_limited
            + server.challenge_acks
            + server.challenge_acks_limited,
        sack_rejected: client.sack_blocks_rejected + server.sack_blocks_rejected,
        conflicts: client.reassembly_conflicts + server.reassembly_conflicts,
        probes: client.zero_window_probes,
    }
}

fn main() {
    println!("== Torture sweep: bulk transfer vs in-band adversary ==");
    println!(
        "(3-hop chain, {BULK_BYTES} B, seed {SEED:#x}; adversary on the server \
         side for data-direction profiles, on the client for ACK-direction ones)\n"
    );

    // (name, profile constructor, node whose inbound traffic is mangled)
    type ProfileRow = (&'static str, fn(f64) -> AdversaryProfile, usize);
    let profiles: Vec<ProfileRow> = vec![
        ("reordering", AdversaryProfile::reordering, SERVER),
        ("fragmenting", AdversaryProfile::fragmenting, SERVER),
        ("overlapping", AdversaryProfile::overlapping, SERVER),
        ("forging", AdversaryProfile::forging, SERVER),
        ("storming", AdversaryProfile::storming, CLIENT),
        ("sack_lying", AdversaryProfile::sack_lying, CLIENT),
        ("zero_window", AdversaryProfile::zero_windowing, CLIENT),
        ("full", AdversaryProfile::full, SERVER),
    ];
    let rates = [0.0, 0.02, 0.05, 0.10, 0.20, 0.30];

    let mut cliff = false;
    for (name, make, node) in &profiles {
        println!("-- {name} --");
        println!(
            "{:<7} {:>10} {:>9} {:>8} {:>8} {:>7} {:>6} {:>6} {:>7} {:>11}",
            "rate",
            "goodput",
            "vs clean",
            "bytes",
            "mangles",
            "chack",
            "sack-",
            "cnfl",
            "probes",
            "verdict"
        );
        let mut base = None;
        for &rate in &rates {
            let o = run(make(rate), *node);
            let baseline = *base.get_or_insert(o.goodput_bps.max(1.0));
            if rate < 0.10 && o.verdict != StreamVerdict::Complete {
                cliff = true;
            }
            println!(
                "{:<7.2} {:>8.0} b/s {:>8.1}% {:>8} {:>8} {:>7} {:>6} {:>6} {:>7} {:>11}",
                rate,
                o.goodput_bps,
                100.0 * o.goodput_bps / baseline,
                o.delivered,
                o.mangles,
                o.challenge_acks,
                o.sack_rejected,
                o.conflicts,
                o.probes,
                o.verdict
            );
        }
        println!();
    }

    println!("verdict: OK = completed byte-exactly; died-clean = incomplete but the");
    println!("client closed with a definite CloseReason (acceptable above 10%);");
    println!("CORRUPT / STALLED are hardening failures at any rate.");
    println!(
        "no-cliff criterion (every profile completes below a 10% rate): {}",
        if cliff { "FAIL" } else { "PASS" }
    );
    if cliff {
        std::process::exit(1);
    }
}
