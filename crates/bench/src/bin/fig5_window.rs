//! Figure 5: goodput and RTT vs window (receive-buffer) size.
//!
//! Goodput should level off once the window exceeds the
//! bandwidth-delay product (~1.5-2 KiB on a single hop), while RTT
//! keeps growing with deeper buffers (self-inflicted queueing).

use lln_bench::{kbps, run_chain_bulk, ChainRun};
use lln_sim::Duration;
use tcplp::TcpConfig;

fn main() {
    println!("== Figure 5: goodput / RTT vs window size (single hop, downlink) ==\n");
    println!(
        "{:<10} {:>10} {:>12} {:>12} {:>12}",
        "segments", "bytes", "goodput", "mean RTT", "median RTT"
    );
    println!("{:-<60}", "");
    for segs in 1..=6usize {
        let r = run_chain_bulk(&ChainRun {
            tcp: TcpConfig::with_window_segments(462, segs),
            bytes: Some(600_000),
            duration: Duration::from_secs(90),
            downlink: true,
            retry_delay: Duration::from_millis(5),
            ..ChainRun::default()
        });
        let mut rtt = r.rtt.clone();
        println!(
            "{:<10} {:>10} {:>12} {:>9.0} ms {:>9.0} ms",
            segs,
            segs * 462,
            kbps(r.goodput_bps),
            rtt.mean(),
            rtt.median(),
        );
    }
    println!("\npaper: levels off at ~1.5 KiB (the BDP); RTT grows with window");
}
