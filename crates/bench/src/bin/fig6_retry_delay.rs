//! Figure 6 (a-d) + Figure 7(b): the link-retry delay sweep.
//!
//! Varies the maximum random delay `d` between link-layer retries over
//! one hop and three hops, reporting goodput, TCP segment loss, RTT,
//! total frames transmitted, and the timeout/fast-retransmit split —
//! plus the Equation 2 model prediction alongside (the dotted lines of
//! Figures 6a/6b).

use lln_bench::{run_chain_bulk, ChainRun};
use lln_models::tcplp_goodput_bps;
use lln_sim::Duration;
use tcplp::TcpConfig;

fn main() {
    for hops in [1usize, 3] {
        println!("== Figure 6: {hops}-hop sweep of link-retry delay d ==\n");
        println!(
            "{:<8} {:>9} {:>9} {:>9} {:>9} {:>9} {:>7} {:>6} {:>6}",
            "d (ms)", "goodput", "Eq.2", "segloss", "RTT", "frames", "f/KB", "RTO", "fast"
        );
        println!("{:-<80}", "");
        for d in [0u64, 5, 10, 15, 20, 25, 30, 40, 50, 60, 80, 100] {
            let r = run_chain_bulk(&ChainRun {
                hops,
                retry_delay: Duration::from_millis(d),
                tcp: TcpConfig::default(),
                bytes: Some(1_500_000),
                duration: Duration::from_secs(120),
                ..ChainRun::default()
            });
            let rtt = r.rtt.clone();
            let rtt_mean_ms = rtt.mean();
            let pred = if rtt_mean_ms > 0.0 {
                tcplp_goodput_bps(
                    462.0,
                    Duration::from_micros((rtt_mean_ms * 1000.0) as u64),
                    4.0,
                    r.seg_loss.min(0.5),
                )
            } else {
                0.0
            };
            let frames_per_kb = r.frames_tx as f64 / (r.bytes as f64 / 1000.0).max(1.0);
            println!(
                "{:<8} {:>7.1}k {:>7.1}k {:>8.1}% {:>6.0}ms {:>9} {:>7.1} {:>6} {:>6}",
                d,
                r.goodput_bps / 1000.0,
                pred / 1000.0,
                r.seg_loss * 100.0,
                rtt_mean_ms,
                r.frames_tx,
                frames_per_kb,
                r.timeouts,
                r.fast_rexmits
            );
        }
        println!();
    }
    println!("paper: 1 hop declines gently with d; 3 hops suffers hidden-terminal");
    println!("loss at d=0, recovers by d≈20-40 ms, declines past d≈60 ms; fast");
    println!("retransmits shrink with d while RTOs persist (Fig 7b); total frames");
    println!("drop as d grows (Fig 6d); Eq.2 tracks the measured goodput.");
}
