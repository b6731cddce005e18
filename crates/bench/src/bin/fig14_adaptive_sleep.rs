//! Figure 14 / §C.2: the adaptive (Trickle-based) sleep interval —
//! high bulk throughput with a tiny idle duty cycle, and the RTT
//! distribution during transfers.

use lln_bench::worlds::{duty_cycled_pair, install_stream, SLEEPY_LEAF};
use lln_mac::poll::PollMode;
use lln_sim::{Duration, Histogram};
use tcplp::TcpConfig;

fn run(downlink: bool) -> (f64, Histogram, f64) {
    let mut world = duty_cycled_pair(0x5eed, PollMode::paper_adaptive()); // smin 20ms, smax 5s
                                                                          // §C.2 uses 6-segment buffers.
    let tcp = TcpConfig::with_window_segments(462, 6);
    let (src, dst) = if downlink {
        (0, SLEEPY_LEAF)
    } else {
        (SLEEPY_LEAF, 0)
    };
    let si = install_stream(&mut world, src, dst, &tcp, None);
    world.run_for(Duration::from_secs(120));
    let goodput = world.nodes[dst].app.sink_goodput_bps();
    let mut h = Histogram::new(0.0, 2_000.0, 20);
    for &(_, r) in world.nodes[src].transport.tcp[si].rtt_trace.samples() {
        h.add(r.as_secs_f64() * 1e3);
    }
    (goodput, h, idle_duty_cycle())
}

/// Idle duty cycle: the same leaf with no traffic for ten minutes.
fn idle_duty_cycle() -> f64 {
    let mut world = duty_cycled_pair(0x5eed, PollMode::paper_adaptive());
    world.run_for(Duration::from_secs(600));
    let now = world.now();
    world.nodes[SLEEPY_LEAF].meter.radio_duty_cycle(now)
}

fn main() {
    println!("== Figure 14 / §C.2: adaptive sleep interval (smin 20ms, smax 5s) ==\n");
    for (name, downlink) in [("uplink", false), ("downlink", true)] {
        let (goodput, h, idle) = run(downlink);
        println!(
            "{name}: goodput {:.1} kb/s (paper: {}), idle duty cycle {:.2}%",
            goodput / 1000.0,
            if downlink { "55.6 kb/s" } else { "68.6 kb/s" },
            idle * 100.0
        );
        println!("RTT distribution ({} samples):", h.count());
        for (center, count) in h.iter() {
            if count > 0 {
                let bar = "#".repeat((count as usize).min(60));
                println!("  {:>6.0} ms | {:<60} {}", center, bar, count);
            }
        }
        println!();
    }
    println!("paper: ~0.1% idle duty cycle; uplink RTTs mostly < 200 ms;");
    println!("downlink RTTs longer (queue drains outlast the sleep interval).");
}
