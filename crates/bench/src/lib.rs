//! `lln-bench` — experiment regenerators for every table and figure in
//! the paper's evaluation, plus shared runners.
//!
//! Each binary in `src/bin/` regenerates one paper artifact and prints
//! the same rows/series the paper reports (see `DESIGN.md`'s experiment
//! index and `EXPERIMENTS.md` for recorded paper-vs-measured values):
//!
//! | binary | artifact |
//! |---|---|
//! | `table_memory` | Tables 3-4 (connection-state memory) |
//! | `table_linktimes` | Table 5 + §6.4 goodput ceiling |
//! | `table6_overhead` | Table 6 (per-frame header overhead) |
//! | `fig4_mss` | Figure 4 (goodput vs MSS) |
//! | `fig5_window` | Figure 5 (goodput/RTT vs window) |
//! | `fig6_retry_delay` | Figure 6 + 7b (link-retry delay sweep) |
//! | `fig7_cwnd` | Figure 7a (cwnd trace) |
//! | `hops_sweep` | §7.2 (goodput vs hop count) |
//! | `table7_compare` | Table 7 (TCPlp vs simplified stacks) |
//! | `model_check` | §8 (Eq. 1 vs Eq. 2 vs measurement) |
//! | `table9_fairness` | Table 9 / Appendix A (two-flow fairness) |
//! | `fig8_batching` | Figure 8 (batching vs duty cycle) |
//! | `fig9_loss_sweep` | Figure 9 (injected loss sweep) |
//! | `fig10_diurnal` | Figure 10 (24 h diurnal run) |
//! | `table8_day` | Table 8 (full-day summary incl. NON CoAP) |
//! | `fig12_sleep_interval` | Figure 12 (fixed sleep-interval sweep) |
//! | `fig13_fixed_sleep` | Figure 13 (RTT distribution @ 2 s) |
//! | `fig14_adaptive_sleep` | Figure 14 / §C.2 (adaptive interval) |
//! | `chaos_sweep` | robustness tier: degradation + recovery under fault plans |
//! | `torture_sweep` | robustness tier: degradation under the in-band adversary |
//! | `flood_sweep` | robustness tier: degradation under SYN + fragment floods |
//!
//! [`worlds`] builds each of the paper's canonical worlds once;
//! [`tier`] holds the robustness tiers' worlds and their delivery
//! contracts; [`sweep`] fans a sweep's runs across cores.

pub mod sweep;
pub mod tier;
pub mod worlds;

use lln_node::world::World;
use lln_sim::{Duration, Summary};

pub use worlds::{AppProtocol, AppRun, ChainRun};

/// Result of a bulk-transfer run.
#[derive(Clone, Debug)]
pub struct BulkResult {
    /// Application goodput at the sink, bits/second.
    pub goodput_bps: f64,
    /// Bytes delivered.
    pub bytes: u64,
    /// Sender's segment retransmission fraction (proxy for the paper's
    /// "segment loss": losses not masked by link retries).
    pub seg_loss: f64,
    /// Retransmission timeouts at the sender.
    pub timeouts: u64,
    /// Fast retransmissions at the sender.
    pub fast_rexmits: u64,
    /// Smoothed RTT at the end of the run.
    pub srtt: Option<Duration>,
    /// The sender's RTT samples, in ms.
    pub rtt: Summary,
    /// Total frames transmitted in the medium.
    pub frames_tx: u64,
}

/// Runs a bulk TCP transfer along a chain; returns measured results.
pub fn run_chain_bulk(p: &ChainRun) -> BulkResult {
    let (src, dst) = p.ends();
    let mut world = p.build();
    world.run_for(p.duration);

    let sender = &world.nodes[src].transport.tcp[0];
    let mut rtt = Summary::new();
    for &(_, r) in sender.rtt_trace.samples() {
        rtt.add(r.as_secs_f64() * 1e3);
    }
    let segs_data = sender.stats.segs_sent - sender.stats.acks_sent;
    BulkResult {
        goodput_bps: world.nodes[dst].app.sink_goodput_bps(),
        bytes: world.nodes[dst].app.sink_received(),
        seg_loss: sender.stats.segs_retransmitted as f64 / segs_data.max(1) as f64,
        timeouts: sender.stats.rexmit_timeouts,
        fast_rexmits: sender.stats.fast_rexmits,
        srtt: sender.srtt(),
        rtt,
        frames_tx: world.medium.counters.get("frames_tx"),
    }
}

/// The MSS (TCP payload bytes) that makes a full segment occupy exactly
/// `frames` 802.15.4 frames after IPHC compression and 6LoWPAN
/// fragmentation — the paper's "MSS in frames" axis of Figure 4.
pub fn mss_for_frames(frames: usize) -> usize {
    use lln_netip::{Ipv6Header, NextHeader, NodeId};
    // TCP header with timestamps (the common case for data segments).
    let tcp_hdr = 32;
    let mut best = 0;
    for payload in 1..1400usize {
        let hdr = Ipv6Header::new(
            NodeId(2).mesh_addr(),
            NodeId(1).mesh_addr(),
            NextHeader::Tcp,
            (tcp_hdr + payload) as u16,
        );
        let seg = vec![0u8; tcp_hdr + payload];
        let packet = lln_sixlowpan::compress(&hdr, NodeId(2), NodeId(1), &seg);
        let n = lln_sixlowpan::fragment(&packet, 0, lln_sixlowpan::MAX_FRAME_PAYLOAD).count();
        if n == frames {
            best = payload;
        } else if n > frames {
            break;
        }
    }
    best
}

/// Result of an application-study run.
#[derive(Clone, Debug)]
pub struct AppResult {
    /// Readings delivered / readings generated.
    pub reliability: f64,
    /// Mean radio duty cycle across sensor leaves.
    pub radio_dc: f64,
    /// Mean CPU duty cycle across sensor leaves.
    pub cpu_dc: f64,
    /// Transport retransmissions per 10 minutes (all sensors).
    pub retransmissions_per_10min: f64,
    /// Of which RTO-driven (TCP only).
    pub rto_per_10min: f64,
    /// Readings generated.
    pub generated: u64,
    /// Readings delivered at the server.
    pub delivered: u64,
}

/// Runs the §9 application study ([`AppRun::build`]) and measures it.
pub fn run_app_study(p: &AppRun) -> AppResult {
    let mut world = p.build();
    world.run_for(p.duration);

    // Collect results.
    let now = world.now();
    let mut generated = 0u64;
    let mut pending = 0u64;
    let mut radio = 0.0;
    let mut cpu = 0.0;
    let mut rexmits = 0u64;
    let mut rtos = 0u64;
    for leaf in p.sensor_nodes() {
        if let lln_node::app::App::Anemometer(a) = &world.nodes[leaf].app {
            generated += a.generated;
            // Readings still queued or buffered when the run ends are
            // in flight, not lost; exclude them from the denominator
            // (the paper's day-long runs make this tail negligible).
            pending += a.queue.len() as u64;
        }
        for t in &world.nodes[leaf].transport.tcp {
            pending += (t.send_queued() / READING) as u64;
        }
        if let Some(c) = &world.nodes[leaf].transport.coap_client {
            pending += 5 * c.backlog() as u64;
        }
        let dc = world.nodes[leaf].meter.radio_duty_cycle(now);
        radio += dc;
        cpu += world.nodes[leaf].meter.cpu_duty_cycle(now);
        for t in &world.nodes[leaf].transport.tcp {
            rexmits += t.stats.segs_retransmitted;
            rtos += t.stats.rexmit_timeouts;
        }
        if let Some(c) = &world.nodes[leaf].transport.coap_client {
            rexmits += c.stats.retransmissions;
        }
    }
    // Delivered readings at the server.
    let tcp_bytes = world.nodes[0].app.sink_received();
    let coap_bytes: usize = world.nodes[0]
        .transport
        .coap_server
        .as_ref()
        .map(|s| s.received().iter().map(|r| r.payload.len()).sum())
        .unwrap_or(0);
    let delivered = (tcp_bytes as usize + coap_bytes) as u64 / READING as u64;
    let mins = now.as_secs_f64() / 60.0;
    let denom = generated
        .saturating_sub(pending)
        .max(delivered.min(generated));
    AppResult {
        reliability: if denom == 0 {
            1.0
        } else {
            (delivered as f64 / denom as f64).min(1.0)
        },
        radio_dc: radio / p.sensors as f64,
        cpu_dc: cpu / p.sensors as f64,
        retransmissions_per_10min: rexmits as f64 / (mins / 10.0),
        rto_per_10min: rtos as f64 / (mins / 10.0),
        generated,
        delivered,
    }
}

const READING: usize = lln_node::app::READING_BYTES;

/// Prints `world`'s medium counters and per-node counters and, one line
/// each, every TCP connection's state and close reason, every
/// listener's [`tcplp::ListenStats`] and the cloud's CoAP server tally.
/// For debugging a run such as [`AppRun::build`]'s: a sensor that went
/// silent shows up as a client that is not `Established`.
pub fn dump_world(world: &World) {
    println!(
        "medium: {:?}",
        world.medium.counters.iter().collect::<Vec<_>>()
    );
    for (i, n) in world.nodes.iter().enumerate() {
        println!(
            "node{i} ({:?}): reasm_timeouts={} indirect={:?} {:?}",
            n.kind,
            n.reassembler.timeouts,
            n.indirect.values().map(|q| q.len()).sum::<usize>(),
            n.counters.iter().collect::<Vec<_>>()
        );
    }
    for (i, n) in world.nodes.iter().enumerate() {
        for t in &n.transport.tcp {
            let (addr, port) = t.remote();
            println!(
                "tcp node{i}:{} -> [{addr}]:{port}: {:?}, close reason {:?}",
                t.local().1,
                t.state(),
                t.close_reason()
            );
        }
        if let Some(l) = &n.transport.tcp_listener {
            println!("listener node{i}:{}: {:?}", l.port(), l.stats);
        }
    }
    if let Some(srv) = world.nodes[0].transport.coap_server.as_ref() {
        println!(
            "server received {} posts, {} dups",
            srv.received_count(),
            srv.duplicates
        );
    }
}

/// Formats bits/second as "xx.x kb/s".
pub fn kbps(bps: f64) -> String {
    format!("{:.1} kb/s", bps / 1000.0)
}

/// Formats a fraction as a percentage.
pub fn pct(f: f64) -> String {
    format!("{:.2}%", f * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mss_for_frames_matches_paper_scale() {
        let m5 = mss_for_frames(5);
        // The paper quotes 408-462 B for a 5-frame MSS depending on the
        // stack's header overhead; ours must land in that region.
        assert!(
            (380..=500).contains(&m5),
            "5-frame MSS {m5} outside the plausible range"
        );
        let m2 = mss_for_frames(2);
        assert!(m2 < m5);
        assert!(mss_for_frames(8) > m5);
    }

    #[test]
    fn chain_run_smoke() {
        let r = run_chain_bulk(&ChainRun {
            bytes: Some(20_000),
            duration: Duration::from_secs(20),
            ..ChainRun::default()
        });
        assert_eq!(r.bytes, 20_000);
        assert!(r.goodput_bps > 20_000.0);
    }

    #[test]
    fn app_study_smoke_tcp() {
        let r = run_app_study(&AppRun {
            duration: Duration::from_secs(180),
            sensors: 2,
            ..AppRun::default()
        });
        assert!(r.generated > 300, "2 sensors x ~180s readings");
        assert!(r.reliability > 0.5, "reliability {}", r.reliability);
        assert!(r.radio_dc < 0.8, "leaves must sleep: {}", r.radio_dc);
    }

    #[test]
    fn app_study_smoke_coap() {
        // Long enough for several 64-reading batches to drain fully.
        let r = run_app_study(&AppRun {
            protocol: AppProtocol::Coap,
            duration: Duration::from_secs(400),
            sensors: 1,
            ..AppRun::default()
        });
        assert!(r.reliability > 0.9, "reliability {}", r.reliability);
        assert!(
            r.radio_dc < 0.2,
            "batching CoAP leaf sleeps: {}",
            r.radio_dc
        );
    }
}
