//! Self-timed microbenchmarks for the hot paths of the reproduction:
//! codec throughput (TCP segments, IPHC, 6LoWPAN fragmentation), the
//! in-place reassembly receive buffer, the RED queue, the deterministic
//! RNG/event queue, an in-memory TCP socket pair, and a full simulated
//! single-hop transfer (events per second).
//!
//! Runs as a plain `harness = false` bench target so `cargo bench`
//! works offline with zero external dependencies. Each benchmark is
//! warmed up, then timed over a fixed iteration count; we report
//! ns/iter and, where a byte count is meaningful, MB/s.

use lln_mac::frame::{fcs16, MacFrame, MAX_MPDU};
use lln_mac::pool::FramePool;
use lln_netip::{Ecn, Ipv6Header, NextHeader, NodeId, RedConfig, RedQueue};
use lln_sim::{Duration, EventQueue, Instant, Rng};
use std::hint::black_box;
use std::time::Instant as WallInstant;
use tcplp::{Flags, ListenSocket, RecvBuffer, Segment, SendBuffer, TcpConfig, TcpSeq, TcpSocket};

/// Times `iters` runs of `f` (after `warmup` untimed runs) and prints
/// one result line. Returns mean ns/iter.
fn bench(name: &str, bytes_per_iter: Option<u64>, iters: u32, mut f: impl FnMut()) {
    // MICROBENCH_QUICK=1 (CI's bench-smoke job) cuts iteration counts
    // ~20x: still exercises every bench body, finishes in seconds.
    let quick = std::env::var("MICROBENCH_QUICK").is_ok_and(|v| v != "0");
    let iters = if quick { (iters / 20).max(1) } else { iters };
    let warmup = (iters / 10).max(1);
    for _ in 0..warmup {
        f();
    }
    let start = WallInstant::now();
    for _ in 0..iters {
        f();
    }
    let elapsed = start.elapsed();
    let ns = elapsed.as_nanos() as f64 / f64::from(iters);
    match bytes_per_iter {
        Some(b) if ns > 0.0 => {
            let mbps = b as f64 / ns * 1000.0; // bytes/ns -> MB/s
            println!("{name:<40} {ns:>12.1} ns/iter {mbps:>10.1} MB/s");
        }
        _ => println!("{name:<40} {ns:>12.1} ns/iter"),
    }
}

fn bench_wire_codec() {
    let src = NodeId(1).mesh_addr();
    let dst = NodeId(2).mesh_addr();
    let mut seg = Segment::new(
        49152,
        80,
        TcpSeq(1000),
        TcpSeq(2000),
        Flags::ACK | Flags::PSH,
    );
    seg.timestamps = Some(tcplp::Timestamps { value: 1, echo: 2 });
    seg.payload = vec![0xab; 462];
    let encoded = seg.encode(src, dst);
    let len = encoded.len() as u64;

    bench("tcp_wire/encode_462B_segment", Some(len), 100_000, || {
        black_box(seg.encode(src, dst));
    });
    // Single-pass serialize+checksum into a recycled buffer: the
    // datapath fast path's tx primitive (no allocation after warmup).
    let mut pooled = Vec::with_capacity(encoded.len());
    bench(
        "tcp_wire/encode_into_pooled_462B",
        Some(len),
        100_000,
        || {
            seg.encode_into(src, dst, &mut pooled);
            black_box(pooled.len());
        },
    );
    bench("tcp_wire/decode_462B_segment", Some(len), 100_000, || {
        black_box(Segment::decode(src, dst, &encoded)).unwrap();
    });
    // Borrowed-payload decode: the rx-side zero-copy primitive.
    bench(
        "tcp_wire/decode_view_462B_segment",
        Some(len),
        100_000,
        || {
            black_box(Segment::decode_view(src, dst, &encoded)).unwrap();
        },
    );
}

fn bench_checksum() {
    use lln_netip::checksum::Checksum;
    let data = vec![0xA5u8; 1024];
    bench("checksum/word_at_a_time_1KiB", Some(1024), 200_000, || {
        let mut c = Checksum::new();
        c.add_bytes(&data);
        black_box(c.finish());
    });
}

fn bench_sixlowpan() {
    let hdr = Ipv6Header::new(
        NodeId(1).mesh_addr(),
        NodeId(2).mesh_addr(),
        NextHeader::Tcp,
        494,
    );
    let payload = vec![0x55u8; 494];
    let packet = lln_sixlowpan::compress(&hdr, NodeId(1), NodeId(2), &payload);
    let len = packet.len() as u64;

    bench("sixlowpan/iphc_compress", Some(len), 100_000, || {
        black_box(lln_sixlowpan::compress(
            &hdr,
            NodeId(1),
            NodeId(2),
            &payload,
        ));
    });
    bench("sixlowpan/iphc_decompress", Some(len), 100_000, || {
        black_box(lln_sixlowpan::decompress(&packet, NodeId(1), NodeId(2))).unwrap();
    });
    let mut frame_payload = Vec::new();
    bench("sixlowpan/fragment_5_frames", None, 100_000, || {
        for f in lln_sixlowpan::fragment(&packet, 7, 104) {
            f.write_into(&mut frame_payload);
            black_box(&frame_payload);
        }
    });
    let frags: Vec<Vec<u8>> = lln_sixlowpan::fragment(&packet, 7, 104)
        .map(|f| f.to_vec())
        .collect();
    bench("sixlowpan/reassemble_5_frames", None, 50_000, || {
        let mut r = lln_sixlowpan::Reassembler::default();
        let mut out = None;
        for f in &frags {
            out = r.offer(NodeId(1), f, Instant::ZERO);
        }
        black_box(out);
    });
    // The flood world's forged FRAG1s (RFC 4944 §5.3 quotas): three
    // spoofed sources, 320 per second, each claiming a 600-byte
    // datagram that never completes, into the default 8 slots. Every
    // offer evicts its source's oldest partial, and the node's governor
    // then reads the bytes held.
    let mut rng = Rng::new(0xF4A6);
    let forged: Vec<[u8; 68]> = (0..256)
        .map(|_| {
            let mut f = [0u8; 68];
            f[0] = 0b1100_0000 | (600u16 >> 8) as u8;
            f[1] = 600u16 as u8;
            f[2..4].copy_from_slice(&(rng.next_u64() as u16).to_be_bytes());
            f
        })
        .collect();
    let mut r = lln_sixlowpan::Reassembler::default();
    let mut k = 0usize;
    let mut now = Instant::ZERO;
    bench("sixlowpan/reasm_frag1_flood", None, 500_000, || {
        let src = NodeId(0xF800 + (k % 3) as u16);
        black_box(r.offer(src, &forged[k % forged.len()], now));
        black_box(r.pending_bytes());
        k += 1;
        now += Duration::from_micros(3_125);
    });
}

fn bench_recvbuf() {
    let data = vec![7u8; 462];
    let mut out = vec![0u8; 462];
    // The steady state a socket sees: one long-lived buffer, each
    // in-order segment written at offset 0 and read by the app before
    // the next arrives. 1848 B pass through per iteration.
    let mut rb = RecvBuffer::new(1848);
    bench("recvbuf/in_order_write_read_1848", None, 50_000, || {
        for _ in 0..4 {
            rb.write(0, &data);
            rb.read(&mut out);
        }
        black_box(rb.available());
    });
    bench("recvbuf/out_of_order_reassembly", None, 50_000, || {
        let mut rb = RecvBuffer::new(1848);
        rb.write(1386, &data); // three holes fill backwards
        rb.write(924, &data);
        rb.write(462, &data);
        rb.write(0, &data);
        black_box(rb.available());
    });
}

fn bench_sendbuf() {
    let chunk = vec![1u8; 462];
    bench("sendbuf/push_view_advance", None, 50_000, || {
        let mut sb = SendBuffer::new(1848);
        for _ in 0..4 {
            sb.push(&chunk);
        }
        let (a, bb) = sb.view(0, 462);
        black_box((a.len(), bb.len()));
        sb.advance(924);
        sb.push(&chunk);
        black_box(sb.len());
    });
}

fn bench_red_queue() {
    bench("red_queue/offer_pop", None, 50_000, || {
        let mut q = RedQueue::<u32>::new(RedConfig::default());
        let mut rng = Rng::new(7);
        for i in 0..32u32 {
            let _ = q.offer(i, Ecn::Ect0, rng.gen_f64());
            if i % 2 == 0 {
                black_box(q.pop());
            }
        }
        black_box(q.len());
    });
}

fn bench_sim_primitives() {
    let mut rng = Rng::new(1);
    bench("sim/rng_next_u64", None, 1_000_000, || {
        black_box(rng.next_u64());
    });
    // The queue at the populations the worlds keep (the §9 tree peaks
    // at 21 pending events), with the worlds' 80-byte `Event` size and
    // their shape: each step fires the next event and schedules a
    // replacement, half the time within 50 µs (in the worlds, 50-78 %
    // of schedules are due before everything else pending), and every
    // fourth step cancels and reschedules a far timer, as the transport
    // timer is on every pump. 1000 steps per iteration.
    for live in [8u32, 32] {
        let mut q = EventQueue::<[u64; 10]>::new();
        let mut rng = Rng::new(5);
        for i in 1..live {
            q.schedule(
                Instant::from_micros(rng.gen_range(5_000)),
                [u64::from(i); 10],
            );
        }
        let mut far = q.schedule(Instant::from_secs(1), [0; 10]);
        bench(
            &format!("sim/event_queue_steady_{live}_live"),
            None,
            5_000,
            || {
                for i in 0..1000u64 {
                    let (now, _) = q.pop().expect("steady population");
                    let horizon = if rng.gen_range(2) == 0 { 50 } else { 5_000 };
                    q.schedule(
                        now + Duration::from_micros(1 + rng.gen_range(horizon)),
                        [i; 10],
                    );
                    if i % 4 == 0 {
                        q.cancel(far);
                        far = q.schedule(now + Duration::from_secs(1), [i; 10]);
                    }
                }
                black_box(q.len());
            },
        );
    }
    // The large-population tradeoff: 1000 live events, far beyond any
    // world (none keeps more than 21 live). Each insert walks from the
    // back and shifts up to the whole vector here, so this case is
    // slower than a heap would be, and slower than a binary search by
    // a constant factor.
    bench("sim/event_queue_schedule_pop_1k", None, 5_000, || {
        let mut q = EventQueue::<u32>::new();
        for i in 0..1000u32 {
            q.schedule(Instant::from_micros(u64::from(i * 7 % 997)), i);
        }
        let mut n = 0;
        while q.pop().is_some() {
            n += 1;
        }
        black_box(n);
    });
    // The queue under a MAC-like mix: schedule a backoff and an ACK
    // timer, cancel 80% of ACK timers, pop one; then drain.
    bench("sim/event_queue_mac_mix_1k", None, 5_000, || {
        let mut q = EventQueue::<u32>::new();
        let mut rng = Rng::new(3);
        for i in 0..500u32 {
            let now = q.now();
            q.schedule(now + Duration::from_micros(128 + rng.gen_range(4872)), i);
            let tok = q.schedule(now + Duration::from_micros(864), i);
            if rng.gen_range(10) < 8 {
                q.cancel(tok);
            }
            black_box(q.pop());
        }
        while q.pop().is_some() {}
        black_box(q.len());
    });
}

fn bench_frame_pool() {
    let frame = MacFrame::data(NodeId(1), NodeId(2), 7, vec![0xAB; 104]);
    let mpdu = frame.mpdu_len() as u64;
    bench("frame/encode_104B_payload", Some(mpdu), 100_000, || {
        black_box(frame.encode());
    });
    let mpdu_bytes: Vec<u8> = (0..MAX_MPDU as u8).collect();
    bench("frame/fcs16_127B", Some(MAX_MPDU as u64), 1_000_000, || {
        black_box(fcs16(black_box(&mpdu_bytes)));
    });
    bench("frame/pool_alloc_reclaim", Some(mpdu), 100_000, || {
        let mut pool = FramePool::new(4);
        for seq in 0..8u8 {
            let mut f = frame.clone();
            f.seq = seq;
            let b = pool.alloc(f);
            black_box(b.mpdu_len());
            pool.reclaim(b);
        }
        black_box(pool.spares());
    });
}

/// A full in-memory TCP transfer between two sockets (no simulator):
/// measures raw protocol-processing throughput. Run once with header
/// prediction on (the default) and once with it off, so the fast-path
/// win on segment processing is visible side by side.
fn bench_socket_pair() {
    socket_pair_variant("tcp_socket_pair/transfer_50_segs_fast", true);
    socket_pair_variant("tcp_socket_pair/transfer_50_segs_slow", false);
}

/// Spoofed SYNs into a full 8-slot SYN cache (RFC 4987), 160 per
/// second from three sources: each evicts the oldest entry and is owed
/// a SYN-ACK that is never built, its source having no route.
fn bench_syn_cache_flood() {
    let mut budget = tcplp::NodeBudget::default();
    budget.caps[tcplp::MemClass::SynCache.idx()] = 8 * tcplp::mem::SYN_ENTRY_BYTES;
    let mut l = ListenSocket::new(TcpConfig::default(), NodeId(0).mesh_addr(), 80, &budget);
    let mut rng = Rng::new(0x5F1D);
    let syns: Vec<(lln_netip::Ipv6Addr, Segment)> = (0..256u16)
        .map(|k| {
            let sport = 40_000 + (rng.next_u64() % 20_000) as u16;
            let seq = TcpSeq(rng.next_u64() as u32);
            let mut syn = Segment::new(sport, 80, seq, TcpSeq(0), Flags::SYN);
            syn.window = 1024;
            syn.mss = Some(462);
            (NodeId(0xF000 + k % 3).mesh_addr(), syn)
        })
        .collect();
    let mut k = 0usize;
    let mut now = Instant::ZERO;
    bench("tcplp/syn_cache_flood", None, 500_000, || {
        let (src, syn) = &syns[k % syns.len()];
        black_box(l.on_segment(*src, syn, k as u32, now));
        k += 1;
        now += Duration::from_micros(6_250);
    });
    assert_eq!(l.half_open(), 8, "the cache stays full");
}

fn socket_pair_variant(name: &str, fast_path: bool) {
    let cfg = TcpConfig {
        header_prediction: fast_path,
        ..TcpConfig::default()
    };
    bench(name, Some(50 * 462), 200, || {
        let a_addr = NodeId(1).mesh_addr();
        let b_addr = NodeId(2).mesh_addr();
        let mut client = TcpSocket::new(cfg.clone(), a_addr, 49152);
        let mut listener =
            ListenSocket::new(cfg.clone(), b_addr, 80, &tcplp::NodeBudget::default());
        let mut t = Instant::ZERO;
        client.connect(b_addr, 80, 1, t);
        let syn = client.poll_transmit(t).unwrap();
        let due = listener
            .on_segment(a_addr, &syn, 2, t)
            .into_reply()
            .unwrap();
        let synack = listener.synack(due, t);
        client.on_segment_view(synack.view(), Ecn::NotCapable, t);
        let ack = client.poll_transmit(t).unwrap();
        let mut server = listener
            .on_segment(a_addr, &ack, 0, t)
            .into_spawn()
            .unwrap();
        let data = vec![0xaau8; 462];
        let mut received = 0usize;
        let mut buf = [0u8; 2048];
        let mut guard = 0;
        while received < 50 * 462 && guard < 10_000 {
            guard += 1;
            t += Duration::from_millis(1);
            client.send(&data);
            if client.poll_at().is_some_and(|d| d <= t) {
                client.on_timer(t);
            }
            while let Some(seg) = client.poll_transmit(t) {
                server.on_segment_view(seg.view(), Ecn::NotCapable, t);
            }
            loop {
                let n = server.recv(&mut buf);
                if n == 0 {
                    break;
                }
                received += n;
            }
            if server.poll_at().is_some_and(|d| d <= t) {
                server.on_timer(t);
            }
            while let Some(seg) = server.poll_transmit(t) {
                client.on_segment_view(seg.view(), Ecn::NotCapable, t);
            }
        }
        black_box(received);
    });
}

/// End-to-end simulated single-hop transfer: how fast the whole world
/// executes (simulated-seconds per wall-second proxy).
fn bench_world() {
    bench("world/single_hop_30s_sim", None, 10, || {
        let mut world = lln_bench::ChainRun {
            bytes: Some(100_000),
            ..lln_bench::ChainRun::default()
        }
        .build();
        world.run_for(Duration::from_secs(30));
        black_box(world.nodes[0].app.sink_received());
    });
}

fn main() {
    println!("{:<40} {:>20} {:>15}", "benchmark", "time", "throughput");
    bench_wire_codec();
    bench_checksum();
    bench_sixlowpan();
    bench_recvbuf();
    bench_sendbuf();
    bench_red_queue();
    bench_sim_primitives();
    bench_frame_pool();
    bench_socket_pair();
    bench_syn_cache_flood();
    bench_world();
}
