//! Figure 13: RTT distribution over a duty-cycled link with a fixed
//! 2-second sleep interval, uplink and downlink.

use lln_bench::worlds::{duty_cycled_pair, install_stream, SLEEPY_LEAF};
use lln_mac::poll::PollMode;
use lln_sim::{Duration, Histogram};
use tcplp::TcpConfig;

fn run(downlink: bool) -> Histogram {
    let mut world = duty_cycled_pair(
        0x5eed,
        PollMode::Adaptive {
            smin: Duration::from_secs(2),
            smax: Duration::from_secs(2),
        },
    );
    let tcp = TcpConfig::with_window_segments(462, 6);
    let (src, dst) = if downlink {
        (0, SLEEPY_LEAF)
    } else {
        (SLEEPY_LEAF, 0)
    };
    let si = install_stream(&mut world, src, dst, &tcp, None);
    world.run_for(Duration::from_secs(600));
    let mut h = Histogram::new(0.0, 10_000.0, 20);
    for &(_, r) in world.nodes[src].transport.tcp[si].rtt_trace.samples() {
        h.add(r.as_secs_f64() * 1e3);
    }
    h
}

fn main() {
    println!("== Figure 13: RTT distribution, 2 s sleep interval ==\n");
    for (name, downlink) in [("uplink", false), ("downlink", true)] {
        let h = run(downlink);
        println!("{name} ({} samples):", h.count());
        for (center, count) in h.iter() {
            if count > 0 {
                let bar = "#".repeat((count as usize).min(60));
                println!("  {:>6.0} ms | {:<60} {}", center, bar, count);
            }
        }
        println!();
    }
    println!("paper: uplink RTT clusters near the sleep interval (2 s, TCP");
    println!("self-clocking); downlink spreads over multiples of the interval.");
}
