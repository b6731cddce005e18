//! Flood sweep: graceful degradation under resource-exhaustion attack.
//!
//! Sweeps a combined SYN + fragment flood's rate from 0 to 320 packets
//! per second against an established TCPlp bulk transfer on the 3-hop
//! chain, and reports goodput, completion, the peak accounted memory
//! against the per-node budget, and the governor's deny/evict counters.
//!
//! Acceptance criteria (ISSUE 3):
//! - the established transfer completes at every swept rate;
//! - peak accounted memory never exceeds the class caps or the node
//!   budget, at any rate;
//! - two same-seed runs produce identical world digests (printed for
//!   both runs at the highest rate).

use lln_bench::tier::{self, Sender, StreamVerdict, BULK_BYTES, SERVER};
use lln_node::flood::FloodConfig;
use lln_sim::{Duration, Instant};
use tcplp::{MemClass, NodeBudget};

const SEED: u64 = 0xF10_0D5E;

struct Outcome {
    goodput_bps: f64,
    delivered: u64,
    complete: bool,
    syns: u64,
    frags: u64,
    peak_syn_cache: u64,
    peak_reasm: u64,
    peak_total: u64,
    denies: u64,
    evictions: u64,
    digest: u64,
}

fn run(seed: u64, rate_hz: u64) -> Outcome {
    let mut world = tier::chain4(seed, NodeBudget::default());
    if rate_hz > 0 {
        world.attach_flood(
            SERVER,
            FloodConfig {
                start: Instant::from_millis(5_000),
                stop: Instant::from_millis(250_000),
                rate_hz,
                syn: true,
                frag: true,
                // 3 sources x per-source quota 2 pins at most 6 of the
                // 8 reassembly slots (see DESIGN.md §10).
                spoofed_sources: 3,
                ..FloodConfig::default()
            },
        );
    }
    tier::install_bulk(&mut world, Sender::Plain);
    world.run_for(Duration::from_secs(350));
    // Flush final gauges so the digest covers the end state.
    world.assert_governor_bounded();

    let fl = world.flood_stats(SERVER).unwrap_or_default();
    let gov = world.governor(SERVER);
    Outcome {
        goodput_bps: world.nodes[SERVER].app.sink_goodput_bps(),
        delivered: world.nodes[SERVER].app.sink_received(),
        complete: tier::stream(&world) == StreamVerdict::Complete,
        syns: fl.syns_sent,
        frags: fl.frags_sent,
        peak_syn_cache: gov.high_water(MemClass::SynCache),
        peak_reasm: gov.high_water(MemClass::Reassembly),
        peak_total: gov.total_high_water(),
        denies: MemClass::ALL.iter().map(|&c| gov.denies(c)).sum(),
        evictions: MemClass::ALL.iter().map(|&c| gov.evictions(c)).sum(),
        digest: tier::world_digest(&world),
    }
}

fn main() {
    let budget = NodeBudget::default();
    println!("== Flood sweep: SYN+fragment flood vs established transfer ==");
    println!(
        "(3-hop chain, {BULK_BYTES} B bulk, flood at the server t=5..250 s, \
         seed {SEED:#x})\n"
    );
    println!(
        "{:>8} {:>10} {:>10} {:>8} {:>8} {:>10} {:>10} {:>10} {:>8} {:>8}  ok",
        "rate/s",
        "delivered",
        "goodput",
        "syns",
        "frags",
        "peak_syn",
        "peak_rsm",
        "peak_tot",
        "denies",
        "evicts"
    );
    println!("{:-<120}", "");
    let syn_cap = budget.cap(MemClass::SynCache) as u64;
    let reasm_cap = budget.cap(MemClass::Reassembly) as u64;
    let total_cap = budget.total as u64;
    let mut all_ok = true;
    for rate in [0u64, 20, 80, 320] {
        let o = run(SEED, rate);
        let complete = o.complete;
        let bounded =
            o.peak_syn_cache <= syn_cap && o.peak_reasm <= reasm_cap && o.peak_total <= total_cap;
        all_ok &= complete && bounded;
        println!(
            "{:>8} {:>10} {:>10.0} {:>8} {:>8} {:>10} {:>10} {:>10} {:>8} {:>8}  {}",
            rate,
            o.delivered,
            o.goodput_bps,
            o.syns,
            o.frags,
            o.peak_syn_cache,
            o.peak_reasm,
            o.peak_total,
            o.denies,
            o.evictions,
            if complete && bounded { "yes" } else { "NO" }
        );
    }
    println!(
        "\nbudget caps: syn_cache {syn_cap} B, reassembly {reasm_cap} B, \
         node total {total_cap} B"
    );
    let a = run(SEED, 320);
    let b = run(SEED, 320);
    println!(
        "\nsame-seed world digest @320/s: run A {:#018x}, run B {:#018x} ({})",
        a.digest,
        b.digest,
        if a.digest == b.digest {
            "bit-identical"
        } else {
            "MISMATCH"
        }
    );
    all_ok &= a.digest == b.digest;
    println!(
        "\nverdict: {}",
        if all_ok {
            "transfer completes at every rate, memory within budget, \
             runs reproducible"
        } else {
            "ACCEPTANCE FAILURE (see rows marked NO)"
        }
    );
}
