//! §8: the TCP performance models — Equation 1 (Mathis) vs Equation 2
//! (the paper's buffer-limited model) vs simulation, across loss rates.
//!
//! Loss is controlled by injecting uniform packet drops at the relay
//! of a 2-node path... we instead vary link PRR on a single hop so the
//! masked/unmasked loss split is realistic, and read the *measured*
//! segment loss and RTT into both models, as the paper does.

use lln_bench::{run_chain_bulk, ChainRun};
use lln_models::{mathis_goodput_bps, tcplp_goodput_bps};
use lln_sim::Duration;
use tcplp::TcpConfig;

fn main() {
    println!("== §8: model comparison on a 3-hop path ==\n");
    println!(
        "{:<8} {:>10} {:>10} {:>10} {:>10} {:>8}",
        "d (ms)", "measured", "Eq.2", "Eq.1", "RTT", "p"
    );
    println!("{:-<62}", "");
    for d in [0u64, 10, 20, 40, 80] {
        let r = run_chain_bulk(&ChainRun {
            hops: 3,
            retry_delay: Duration::from_millis(d),
            tcp: TcpConfig::default(),
            bytes: Some(1_500_000),
            duration: Duration::from_secs(120),
            ..ChainRun::default()
        });
        let rtt = r.rtt.clone();
        let rtt_d = Duration::from_micros((rtt.mean() * 1000.0).max(1.0) as u64);
        let p = r.seg_loss.clamp(1e-4, 0.5);
        let eq2 = tcplp_goodput_bps(462.0, rtt_d, 4.0, p);
        let eq1 = mathis_goodput_bps(462.0, rtt_d, p);
        println!(
            "{:<8} {:>8.1} k {:>8.1} k {:>8.1} k {:>7.0}ms {:>7.1}%",
            d,
            r.goodput_bps / 1000.0,
            eq2 / 1000.0,
            eq1 / 1000.0,
            rtt.mean(),
            p * 100.0
        );
    }
    println!("\npaper: Eq.2 closely matches measurements; Eq.1 overpredicts by");
    println!("an order of magnitude because it ignores the 4-segment window.");
}
