//! §7.2: goodput vs hop count, fixed d = 40 ms.
//!
//! Paper: 64.1 / 28.3 / 19.5 / 17.5 kb/s over 1-4 hops, matching the
//! B, B/2, B/3, B/3 radio-scheduling bound. For 4 hops the paper had
//! to raise the window; we report both window sizes.

use lln_bench::{run_chain_bulk, ChainRun};
use lln_models::multihop_scale_factor;
use lln_sim::Duration;
use tcplp::TcpConfig;

fn main() {
    println!("== §7.2: goodput vs hops (d = 40 ms) ==\n");
    println!(
        "{:<6} {:>12} {:>12} {:>12} {:>10}",
        "hops", "w=4 segs", "w=7 segs", "B/min(h,3)", "paper"
    );
    println!("{:-<58}", "");
    let mut b1 = None;
    for hops in 1..=4usize {
        let mut row = Vec::new();
        for segs in [4usize, 7] {
            let r = run_chain_bulk(&ChainRun {
                hops,
                tcp: TcpConfig::with_window_segments(462, segs),
                bytes: Some(1_500_000),
                duration: Duration::from_secs(150),
                ..ChainRun::default()
            });
            row.push(r.goodput_bps);
        }
        if hops == 1 {
            b1 = Some(row[0]);
        }
        let bound = b1.unwrap() * multihop_scale_factor(hops as u32);
        let paper = ["64.1", "28.3", "19.5", "17.5"][hops - 1];
        println!(
            "{:<6} {:>9.1} k {:>9.1} k {:>9.1} k {:>7} k",
            hops,
            row[0] / 1000.0,
            row[1] / 1000.0,
            bound / 1000.0,
            paper
        );
    }
    println!("\npaper shape: monotone decline, flattening between 3 and 4 hops");
}
