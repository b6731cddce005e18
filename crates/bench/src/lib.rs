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

pub mod sweep;

use lln_coap::{CoapClient, CoapClientConfig, Cocoa, RtoAlgorithm};
use lln_mac::poll::PollMode;
use lln_mac::MacConfig;
use lln_node::route::Topology;
use lln_node::stack::NodeKind;
use lln_node::world::{World, WorldConfig};
use lln_sim::{Duration, Instant, Summary};
use tcplp::TcpConfig;

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
    /// RTT sample summary (enable via `rtt_trace`).
    pub rtt: Summary,
    /// Total frames transmitted in the medium.
    pub frames_tx: u64,
}

/// Parameters for a chain bulk-transfer experiment.
#[derive(Clone, Debug)]
pub struct ChainRun {
    /// Number of wireless hops.
    pub hops: usize,
    /// Per-link PRR.
    pub prr: f64,
    /// Link-retry delay bound `d`.
    pub retry_delay: Duration,
    /// TCP configuration for both ends.
    pub tcp: TcpConfig,
    /// Bytes to transfer.
    pub bytes: u64,
    /// Simulated duration cap.
    pub duration: Duration,
    /// Seed.
    pub seed: u64,
    /// Downlink (node 0 sends to the far node) instead of uplink.
    pub downlink: bool,
    /// Give intermediate nodes two-hop carrier sensing (denser
    /// deployments suppress some hidden-terminal collisions).
    pub two_hop_carrier: bool,
}

impl Default for ChainRun {
    fn default() -> Self {
        ChainRun {
            hops: 1,
            prr: 0.999,
            retry_delay: Duration::from_millis(40),
            tcp: TcpConfig::default(),
            bytes: 1_000_000,
            duration: Duration::from_secs(120),
            seed: 0x5eed,
            downlink: false,
            two_hop_carrier: false,
        }
    }
}

/// Runs a bulk TCP transfer along a chain; returns measured results.
pub fn run_chain_bulk(p: &ChainRun) -> BulkResult {
    let links = if p.two_hop_carrier {
        lln_phy::LinkMatrix::chain_with_two_hop_carrier(p.hops + 1, p.prr)
    } else {
        lln_phy::LinkMatrix::chain(p.hops + 1, p.prr)
    };
    let topo = Topology::with_shortest_paths(links);
    let kinds: Vec<NodeKind> = (0..=p.hops).map(|_| NodeKind::Router).collect();
    let wc = WorldConfig {
        seed: p.seed,
        mac: MacConfig {
            retry_delay_max: p.retry_delay,
            ..MacConfig::default()
        },
        ..WorldConfig::default()
    };
    let mut world = World::new(&topo, &kinds, wc);
    let (src, dst) = if p.downlink { (0, p.hops) } else { (p.hops, 0) };
    world.add_tcp_listener(dst, p.tcp.clone());
    world.set_sink(dst);
    let si = world.add_tcp_client(src, dst, p.tcp.clone(), Instant::from_millis(10));
    world.nodes[src].transport.tcp[si].rtt_trace.enable();
    world.set_bulk_sender(src, Some(p.bytes));
    world.run_for(p.duration);

    let sender = &world.nodes[src].transport.tcp[si];
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

/// Which transport an anemometer node uses.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AppProtocol {
    /// TCPlp stream to the cloud.
    Tcplp,
    /// CoAP confirmable (default congestion control).
    Coap,
    /// CoAP with CoCoA.
    Cocoa,
    /// CoAP non-confirmable (unreliable rows of Table 8).
    CoapNon,
}

/// Parameters for the §9 application study.
#[derive(Clone, Debug)]
pub struct AppRun {
    /// Transport under test.
    pub protocol: AppProtocol,
    /// Batch size (None = no batching).
    pub batch: Option<usize>,
    /// Injected uniform packet loss at the border router.
    pub injected_loss: f64,
    /// Simulated duration.
    pub duration: Duration,
    /// Number of sensor leaves (paper: nodes 12-15, i.e. 4).
    pub sensors: usize,
    /// Interference profile (None = clean night-time network).
    pub interference: Option<(f64, f64)>, // (day, night) occupancy
    /// Seed.
    pub seed: u64,
}

impl Default for AppRun {
    fn default() -> Self {
        AppRun {
            protocol: AppProtocol::Tcplp,
            batch: Some(64),
            injected_loss: 0.0,
            duration: Duration::from_secs(1800),
            sensors: 4,
            interference: None,
            seed: 0x0411,
        }
    }
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

/// Builds the §9 world: cloud(0) — border(1) — routers(2,3,4) chain —
/// `sensors` sleepy leaves split across routers 3 and 4 (3-5 hop
/// paths, like the paper's -8 dBm topology), plus an optional
/// interferer audible across the mesh.
pub fn run_app_study(p: &AppRun) -> AppResult {
    run_app_study_inner(p, false)
}

/// Like [`run_app_study`] but dumps per-node counters (debugging).
pub fn run_app_study_verbose(p: &AppRun) -> AppResult {
    run_app_study_inner(p, true)
}

fn run_app_study_inner(p: &AppRun, verbose: bool) -> AppResult {
    let routers = 3usize;
    let n_mesh = 2 + routers; // cloud + border + routers
    let n = n_mesh + p.sensors + usize::from(p.interference.is_some());
    let mut links = lln_phy::LinkMatrix::new(n);
    let prr = 0.98;
    // border(1) - r2 - r3 - r4 chain.
    links.set_symmetric(lln_phy::RadioIdx(1), lln_phy::RadioIdx(2), prr);
    links.set_symmetric(lln_phy::RadioIdx(2), lln_phy::RadioIdx(3), prr);
    links.set_symmetric(lln_phy::RadioIdx(3), lln_phy::RadioIdx(4), prr);
    // Sensors alternate between r3 and r4.
    for s in 0..p.sensors {
        let leaf = n_mesh + s;
        let parent = if s % 2 == 0 { 3 } else { 4 };
        links.set_symmetric(lln_phy::RadioIdx(leaf), lln_phy::RadioIdx(parent), prr);
    }
    // Dense office: radios without a usable link still hear each
    // other's energy (carrier sensing suppresses most hidden-terminal
    // collisions, as in the paper's testbed where nodes share rooms).
    for a in 1..n_mesh + p.sensors {
        for b in (a + 1)..n_mesh + p.sensors {
            if !links.audible(lln_phy::RadioIdx(a), lln_phy::RadioIdx(b)) {
                links.set_interference(lln_phy::RadioIdx(a), lln_phy::RadioIdx(b));
                links.set_interference(lln_phy::RadioIdx(b), lln_phy::RadioIdx(a));
            }
        }
    }
    // Interferer: audible at every mesh radio.
    if p.interference.is_some() {
        let intf = n - 1;
        for r in 1..n_mesh + p.sensors {
            links.set_interference(lln_phy::RadioIdx(intf), lln_phy::RadioIdx(r));
        }
    }
    let topo = Topology::with_shortest_paths(links);
    let mut kinds = vec![NodeKind::CloudHost, NodeKind::BorderRouter];
    kinds.extend(std::iter::repeat_n(NodeKind::Router, routers));
    kinds.extend(std::iter::repeat_n(NodeKind::SleepyLeaf, p.sensors));
    if p.interference.is_some() {
        kinds.push(NodeKind::Interferer);
    }
    let wc = WorldConfig {
        seed: p.seed,
        ..WorldConfig::default()
    };
    let mut world = World::new(&topo, &kinds, wc);
    world.set_injected_loss(1, p.injected_loss);

    // Cloud services.
    world.add_tcp_listener(0, TcpConfig::default());
    world.set_sink(0);
    world.add_coap_server(0);

    // Sensors.
    let queue_cap = match p.protocol {
        AppProtocol::Tcplp => 64,
        _ => 104,
    };
    for s in 0..p.sensors {
        let leaf = n_mesh + s;
        match p.protocol {
            AppProtocol::Tcplp => {
                world.add_tcp_client(
                    leaf,
                    0,
                    TcpConfig::default(),
                    Instant::from_millis(200 + 111 * s as u64),
                );
            }
            AppProtocol::Coap | AppProtocol::Cocoa | AppProtocol::CoapNon => {
                let cfg = CoapClientConfig {
                    non_confirmable: p.protocol == AppProtocol::CoapNon,
                    ..CoapClientConfig::default()
                };
                let rto = if p.protocol == AppProtocol::Cocoa {
                    RtoAlgorithm::Cocoa(Cocoa::new())
                } else {
                    RtoAlgorithm::Default
                };
                world.add_coap_client(leaf, CoapClient::new(cfg, rto, &["sensors"]));
            }
        }
        world.set_anemometer(
            leaf,
            queue_cap,
            p.batch,
            Instant::from_millis(500 + 113 * s as u64),
        );
        // Unreliable CoAP expects no responses: keep the default slow
        // poll. Reliable transports poll fast while waiting (§9.6).
        if p.protocol == AppProtocol::CoapNon {
            world.set_poll_mode(
                leaf,
                PollMode::Fixed {
                    idle: Duration::from_secs(240),
                    fast: Duration::from_secs(240),
                },
            );
            world.schedule_poll(leaf, Instant::from_millis(50 + 37 * leaf as u64));
        }
    }

    if let Some((day, night)) = p.interference {
        let intf = n - 1;
        let mut app = lln_node::app::InterfererApp::office();
        app.day_occupancy = day;
        app.night_occupancy = night;
        world.start_interferer(intf, app, Instant::from_millis(77));
    }

    world.run_for(p.duration);
    if verbose {
        println!("medium: {:?}", world.medium.counters.iter().collect::<Vec<_>>());
        for (i, n) in world.nodes.iter().enumerate() {
            println!(
                "node{i} ({:?}): reasm_timeouts={} indirect={:?} {:?}",
                n.kind,
                n.reassembler.timeouts,
                n.indirect.values().map(|q| q.len()).sum::<usize>(),
                n.counters.iter().collect::<Vec<_>>()
            );
        }
        if let Some(srv) = world.nodes[0].transport.coap_server.as_ref() {
            println!("server received {} posts, {} dups", srv.received_count(), srv.duplicates);
        }
    }

    // Collect results.
    let now = world.now();
    let mut generated = 0u64;
    let mut pending = 0u64;
    let mut radio = 0.0;
    let mut cpu = 0.0;
    let mut rexmits = 0u64;
    let mut rtos = 0u64;
    for s in 0..p.sensors {
        let leaf = n_mesh + s;
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
    let denom = generated.saturating_sub(pending).max(delivered.min(generated));
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
            bytes: 20_000,
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
        assert!(r.radio_dc < 0.2, "batching CoAP leaf sleeps: {}", r.radio_dc);
    }
}
