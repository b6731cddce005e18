//! Figure 4: goodput vs Maximum Segment Size (2-8 frames), uplink and
//! downlink over a single hop.
//!
//! The paper finds poor goodput at small MSS (header overhead) with
//! diminishing returns past 5 frames, motivating MSS = 5 frames.

use lln_bench::{kbps, mss_for_frames, run_chain_bulk, ChainRun};
use lln_sim::Duration;
use tcplp::TcpConfig;

fn main() {
    println!("== Figure 4: goodput vs MSS (single hop) ==\n");
    println!(
        "{:<8} {:>10} {:>14} {:>14}",
        "frames", "MSS", "uplink", "downlink"
    );
    println!("{:-<50}", "");
    for frames in 2..=8usize {
        let mss = mss_for_frames(frames);
        let mut results = Vec::new();
        for downlink in [false, true] {
            let r = run_chain_bulk(&ChainRun {
                tcp: TcpConfig::with_window_segments(mss, 4),
                bytes: Some(600_000),
                duration: Duration::from_secs(90),
                downlink,
                retry_delay: Duration::from_millis(5),
                ..ChainRun::default()
            });
            results.push(r.goodput_bps);
        }
        println!(
            "{:<8} {:>8} B {:>14} {:>14}",
            frames,
            mss,
            kbps(results[0]),
            kbps(results[1])
        );
    }
    println!("\npaper: rises steeply to ~5 frames (≈60-75 kb/s), then flattens");
}
