//! Table 7: TCPlp vs the simplified embedded TCP stacks used in prior
//! studies (uIP-class: MSS of 1 frame and a single in-flight segment;
//! a 4-frame variant matching the paper's reference \[50\]).

use lln_bench::{mss_for_frames, ChainRun};
use lln_sim::{Duration, Instant};
use lln_uip::UipConfig;
use tcplp::TcpConfig;

fn run_uip(hops: usize, mss_frames: usize) -> f64 {
    let mut world = ChainRun {
        hops,
        ..ChainRun::default()
    }
    .world();
    world.add_tcp_listener(0, TcpConfig::default());
    world.set_sink(0);
    let cfg = UipConfig {
        mss: mss_for_frames(mss_frames),
    };
    world.add_uip_client(hops, 0, cfg, Instant::from_millis(10));
    world.set_bulk_sender(hops, Some(400_000));
    world.run_for(Duration::from_secs(200));
    world.nodes[0].app.sink_goodput_bps()
}

fn run_tcplp(hops: usize) -> f64 {
    let r = lln_bench::run_chain_bulk(&ChainRun {
        hops,
        bytes: Some(1_500_000),
        duration: Duration::from_secs(150),
        ..ChainRun::default()
    });
    r.goodput_bps
}

fn main() {
    println!("== Table 7: goodput vs prior embedded TCP stacks ==\n");
    println!("{:<34} {:>12} {:>12}", "stack", "one hop", "multi-hop(3)");
    println!("{:-<60}", "");
    type GoodputFn = Box<dyn Fn(usize) -> f64>;
    let rows: [(&str, GoodputFn); 3] = [
        (
            "uIP-class (MSS 1 frame, win 1 seg)",
            Box::new(|h| run_uip(h, 1)),
        ),
        (
            "uIP-class (MSS 4 frames, win 1 seg)",
            Box::new(|h| run_uip(h, 4)),
        ),
        ("TCPlp (MSS 5 frames, win 4 segs)", Box::new(run_tcplp)),
    ];
    for (name, f) in rows {
        let one = f(1);
        let three = f(3);
        println!(
            "{:<34} {:>9.1} k {:>9.1} k",
            name,
            one / 1000.0,
            three / 1000.0
        );
    }
    println!("\npaper: uIP-class 1.5-15 kb/s; TCPlp 75 kb/s one hop, 20 kb/s multihop");
    println!("(the 5-40x improvement headline)");
}
