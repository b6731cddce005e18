//! Table 5 (frame transmission times across link technologies) and the
//! §6.4 single-hop goodput ceiling.

use lln_models::{multihop_scale_factor, paper_82kbps_example, single_hop_bound_bps};
use lln_phy::PhyConfig;
use lln_sim::Duration;

fn main() {
    println!("== Table 5: frame transmission times ==\n");
    println!(
        "{:<18} {:>10} {:>10} {:>10}",
        "physical layer", "bandwidth", "frame", "tx time"
    );
    println!("{:-<52}", "");
    for (name, bps, frame) in [
        ("Gigabit Ethernet", 1_000_000_000u64, 1500usize),
        ("Fast Ethernet", 100_000_000, 1500),
        ("WiFi (54 Mb/s)", 54_000_000, 1500),
        ("Ethernet 10 Mb/s", 10_000_000, 1500),
        ("IEEE 802.15.4", 250_000, 127),
    ] {
        let us = frame as f64 * 8.0 / bps as f64 * 1e6;
        println!(
            "{:<18} {:>10} {:>8} B {:>8.3} ms",
            name,
            if bps >= 1_000_000 {
                format!("{} Mb/s", bps / 1_000_000)
            } else {
                format!("{} kb/s", bps / 1000)
            },
            frame,
            us / 1000.0
        );
    }

    let phy = PhyConfig::default();
    println!("\n== §6.4: single-hop goodput ceiling ==\n");
    println!(
        "127 B frame air time:      {:?} (paper: ~4.1 ms)",
        phy.air_time(127)
    );
    let mean_backoff = Duration::from_micros(320 * 7 / 2);
    let all_in =
        phy.frame_cost(127) + mean_backoff + phy.cca_duration + phy.turnaround + phy.ack_air_time();
    println!("all-in frame cost:         {all_in:?} (paper measured: 8.2 ms)");
    let seg_cost = all_in * 5;
    println!("5-frame segment cost:      {seg_cost:?} (paper: 41 ms)");
    let bound = single_hop_bound_bps(462.0, seg_cost, all_in, true);
    println!(
        "goodput ceiling:           {:.1} kb/s (paper: 82 kb/s; reference calc: {:.1} kb/s)",
        bound / 1000.0,
        paper_82kbps_example() / 1000.0
    );
    println!("\n== §7.2: multihop scaling bound ==\n");
    for h in 1..=4 {
        println!("{} hops: B x {:.3}", h, multihop_scale_factor(h));
    }
}
