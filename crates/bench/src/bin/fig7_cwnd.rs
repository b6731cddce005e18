//! Figure 7(a): congestion-window trace over a 3-hop path at d = 0.
//!
//! The paper's observation: with a 4-segment buffer cwnd is pinned at
//! the maximum almost all the time despite ~6 % segment loss, because
//! recovery takes only a couple of RTTs — nothing like the classic
//! sawtooth.

use lln_bench::tier::seed_from_env;
use lln_bench::ChainRun;
use lln_sim::{Duration, Instant};
use tcplp::TcpConfig;

fn main() {
    let run = ChainRun {
        hops: 3,
        retry_delay: Duration::ZERO,
        bytes: None,
        seed: seed_from_env("FIG7_SEED", 0x5eed),
        ..ChainRun::default()
    };
    let mut world = run.build();
    let (src, _) = run.ends();
    world.nodes[src].transport.tcp[0].cwnd_trace.enable();
    world.run_for(Duration::from_secs(130));

    let sock = &world.nodes[src].transport.tcp[0];
    println!("== Figure 7a: cwnd/ssthresh trace, 3 hops, d=0 (t=30s..130s) ==\n");
    println!("{:<12} {:>8} {:>10}", "t (s)", "cwnd", "ssthresh");
    println!("{:-<32}", "");
    let start = Instant::from_secs(30);
    for &(t, cwnd, ssthresh) in sock.cwnd_trace.points() {
        if t >= start {
            let ss = if ssthresh > 100_000 {
                "inf".to_string()
            } else {
                ssthresh.to_string()
            };
            println!("{:<12.3} {:>8} {:>10}", t.as_secs_f64(), cwnd, ss);
        }
    }
    let end = world.now();
    let send_buf = TcpConfig::default().send_buf as u32;
    println!(
        "\ntime-weighted mean cwnd: {:.0} B (uncapped; it grows past the send buffer)",
        sock.cwnd_trace.mean_cwnd(start, end)
    );
    println!(
        "time-weighted mean usable window, min(cwnd, {send_buf} B send buffer): {:.0} B",
        mean_usable_window(sock.cwnd_trace.points(), send_buf, start, end)
    );
    println!(
        "segment retransmission rate: {:.1}%  (timeouts {}, fast rexmits {})",
        100.0 * sock.stats.segs_retransmitted as f64
            / (sock.stats.segs_sent - sock.stats.acks_sent).max(1) as f64,
        sock.stats.rexmit_timeouts,
        sock.stats.fast_rexmits
    );
    println!("paper: cwnd maxed out nearly always; dips recover within ~2 RTTs");
}

/// Time-weighted mean of `min(cwnd, cap)` over `[start, end]`: each
/// trace point's cwnd holds until the next point.
fn mean_usable_window(
    points: &[(Instant, u32, u32)],
    cap: u32,
    start: Instant,
    end: Instant,
) -> f64 {
    let mut weighted = 0.0;
    for (i, &(t, cwnd, _)) in points.iter().enumerate() {
        let next = points.get(i + 1).map_or(end, |p| p.0);
        let (lo, hi) = (t.max(start), next.min(end));
        if hi > lo {
            weighted += (hi - lo).as_secs_f64() * cwnd.min(cap) as f64;
        }
    }
    weighted / (end - start).as_secs_f64()
}
