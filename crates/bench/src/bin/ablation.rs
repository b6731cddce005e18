//! Feature ablation: what each of TCPlp's full-scale features (Table 1)
//! is worth, measured on a lossy 3-hop path.
//!
//! The paper argues by comparison against whole stacks (Table 7); this
//! ablation isolates the features one at a time: SACK, delayed ACKs,
//! timestamps (RTT sampling under loss), Nagle, and window size. Each
//! row disables exactly one thing relative to the full configuration.

use lln_bench::{run_chain_bulk, ChainRun};
use lln_sim::Duration;
use tcplp::TcpConfig;

struct Row {
    name: &'static str,
    cfg: TcpConfig,
}

fn main() {
    let base = TcpConfig::default();
    let rows = vec![
        Row {
            name: "full TCPlp (baseline)",
            cfg: base.clone(),
        },
        Row {
            name: "- SACK",
            cfg: TcpConfig {
                use_sack: false,
                ..base.clone()
            },
        },
        Row {
            name: "- delayed ACKs",
            cfg: TcpConfig {
                delayed_ack: false,
                ..base.clone()
            },
        },
        Row {
            name: "- timestamps",
            cfg: TcpConfig {
                use_timestamps: false,
                ..base.clone()
            },
        },
        Row {
            name: "- Nagle",
            cfg: TcpConfig {
                nagle: false,
                ..base.clone()
            },
        },
        Row {
            name: "window 1 segment (uIP-like)",
            cfg: TcpConfig::with_window_segments(462, 1),
        },
        Row {
            name: "window 2 segments",
            cfg: TcpConfig::with_window_segments(462, 2),
        },
    ];

    println!("== Feature ablation: lossy links (PRR 0.97), d = 40 ms ==\n");
    println!(
        "{:<30} {:>10} {:>10} {:>9} {:>7} {:>7}",
        "configuration", "1 hop", "3 hops", "segloss", "RTO", "fast"
    );
    println!("{:-<78}", "");
    for row in rows {
        let mut out = Vec::new();
        let mut last = None;
        for hops in [1usize, 3] {
            let r = run_chain_bulk(&ChainRun {
                hops,
                prr: 0.97,
                tcp: row.cfg.clone(),
                bytes: Some(800_000),
                duration: Duration::from_secs(150),
                ..ChainRun::default()
            });
            out.push(r.goodput_bps);
            last = Some(r);
        }
        let r = last.unwrap();
        println!(
            "{:<30} {:>7.1} k {:>7.1} k {:>8.1}% {:>7} {:>7}",
            row.name,
            out[0] / 1000.0,
            out[1] / 1000.0,
            r.seg_loss * 100.0,
            r.timeouts,
            r.fast_rexmits
        );
    }
    println!("\nreading: on an unloaded path the BDP is under one 5-frame");
    println!("segment, so even a 1-segment window keeps up — the Table 7 gap");
    println!("versus uIP-class stacks comes from their 1-frame MSS, and the");
    println!("window's value appears when RTT grows (duty-cycled links,");
    println!("Figure 12, need 4-6 segments). On this one seed of a mildly");
    println!("lossy path, SACK and delayed ACKs move loss and fast");
    println!("retransmits by a few events either way, too few to rank");
    println!("on one seed; timestamps matter for RTT sampling under loss");
    println!("(§9.4), not raw throughput.");
}
