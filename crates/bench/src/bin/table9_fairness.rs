//! Table 9 / Appendix A: two simultaneous TCP flows sharing a path to
//! the border router — fairness and efficiency, FIFO vs RED/ECN.

use lln_node::route::Topology;
use lln_node::stack::NodeKind;
use lln_node::world::{World, WorldConfig};
use lln_sim::{Duration, Instant, Summary};
use tcplp::TcpConfig;

struct FlowResult {
    goodput: f64,
    loss: f64,
    median_rtt_ms: f64,
}

fn run(hops: u32, segs: usize, red: bool) -> Vec<FlowResult> {
    let (topo, s1, s2, border) = Topology::fairness_y(hops, 0.999);
    let n = topo.links.len();
    let mut kinds = vec![NodeKind::Router; n];
    kinds[border.0 as usize] = NodeKind::BorderRouter;
    let mut world = World::new(&topo, &kinds, WorldConfig::default());
    let mut tcp = TcpConfig::with_window_segments(462, segs);
    tcp.use_ecn = red;
    if red {
        for i in 0..n {
            world.nodes[i].use_red_queue(lln_netip::RedConfig::default());
        }
    }
    world.add_tcp_listener(border.0 as usize, tcp.clone());
    world.set_sink(border.0 as usize);
    let mut socks = Vec::new();
    for (k, src) in [s1, s2].iter().enumerate() {
        let si = world.add_tcp_client(
            src.0 as usize,
            border.0 as usize,
            tcp.clone(),
            Instant::from_millis(10 + 13 * k as u64),
        );
        world.nodes[src.0 as usize].transport.tcp[si]
            .rtt_trace
            .enable();
        world.set_bulk_sender(src.0 as usize, None);
        socks.push((src.0 as usize, si));
    }
    world.run_for(Duration::from_secs(300));
    socks
        .iter()
        .map(|&(node, si)| {
            let s = &world.nodes[node].transport.tcp[si];
            let mut rtt = Summary::new();
            for &(_, r) in s.rtt_trace.samples() {
                rtt.add(r.as_secs_f64() * 1e3);
            }
            FlowResult {
                goodput: s.stats.bytes_sent as f64 * 8.0 / 300.0,
                loss: s.stats.segs_retransmitted as f64
                    / (s.stats.segs_sent - s.stats.acks_sent).max(1) as f64,
                median_rtt_ms: rtt.median(),
            }
        })
        .collect()
}

fn main() {
    println!("== Table 9: two-flow fairness ==\n");
    println!(
        "{:<26} {:>11} {:>11} {:>9} {:>9} {:>16}",
        "configuration", "flow A", "flow B", "loss A", "loss B", "median RTT (ms)"
    );
    println!("{:-<88}", "");
    for (name, hops, segs, red) in [
        ("1 hop, w=4, FIFO", 1u32, 4usize, false),
        ("3 hops, w=4, FIFO", 3, 4, false),
        ("3 hops, w=7, FIFO", 3, 7, false),
        ("3 hops, w=7, RED+ECN", 3, 7, true),
    ] {
        let flows = run(hops, segs, red);
        println!(
            "{:<26} {:>8.1} k {:>8.1} k {:>8.2}% {:>8.2}% {:>7.0} / {:<7.0}",
            name,
            flows[0].goodput / 1000.0,
            flows[1].goodput / 1000.0,
            flows[0].loss * 100.0,
            flows[1].loss * 100.0,
            flows[0].median_rtt_ms,
            flows[1].median_rtt_ms
        );
    }
    println!("\npaper: w=4 shares fairly (41.7/35.2 one hop; 10.9/9.4 three hops);");
    println!("w=7 FIFO is erratic/unfair; RED+ECN restores fairness and keeps");
    println!("RTT near 1 s.");
}
