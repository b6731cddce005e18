//! Adversarial stress tests: the socket pair under randomized
//! combinations of loss, reordering, duplication and bidirectional
//! traffic, across many seeds. The single invariant that must never
//! break: the delivered byte stream equals the sent byte stream, in
//! order, exactly once.

mod common;

use common::{Fault, Harness};
use lln_sim::{Duration, Rng};
use tcplp::TcpConfig;

/// Runs one adversarial transfer; returns delivered bytes.
fn adversarial_transfer(seed: u64, loss: f64, reorder: f64, dup: f64, bytes: usize) -> bool {
    let mut h = Harness::establish(TcpConfig::default(), Duration::from_millis(15));
    let mut rng = Rng::new(seed);
    h.set_fault(move |_, _, _| {
        let mut f = Fault::default();
        if rng.gen_bool(loss) {
            f.drop = true;
        } else {
            if rng.gen_bool(reorder) {
                f.extra_delay = Duration::from_millis(rng.gen_range_inclusive(10, 150));
            }
            if rng.gen_bool(dup) {
                f.duplicate = true;
            }
        }
        f
    });
    let data: Vec<u8> = (0..bytes)
        .map(|i| (i.wrapping_mul(2654435761) >> 7) as u8)
        .collect();
    let got = h.transfer_a_to_b(&data, Duration::from_secs(600));
    got == data
}

#[test]
fn survives_loss_across_seeds() {
    for seed in 0..6u64 {
        assert!(
            adversarial_transfer(seed, 0.12, 0.0, 0.0, 8_000),
            "12% loss corrupted or stalled the stream (seed {seed})"
        );
    }
}

#[test]
fn survives_reordering_across_seeds() {
    for seed in 10..16u64 {
        assert!(
            adversarial_transfer(seed, 0.0, 0.4, 0.0, 8_000),
            "heavy reordering broke the stream (seed {seed})"
        );
    }
}

#[test]
fn survives_duplication_across_seeds() {
    for seed in 20..26u64 {
        assert!(
            adversarial_transfer(seed, 0.0, 0.0, 0.5, 8_000),
            "duplication broke the stream (seed {seed})"
        );
    }
}

#[test]
fn survives_combined_chaos() {
    for seed in 30..36u64 {
        assert!(
            adversarial_transfer(seed, 0.08, 0.25, 0.15, 6_000),
            "combined loss+reorder+dup broke the stream (seed {seed})"
        );
    }
}

#[test]
fn bidirectional_chaos_keeps_both_streams_intact() {
    for seed in 40..43u64 {
        let mut h = Harness::establish(TcpConfig::default(), Duration::from_millis(15));
        let mut rng = Rng::new(seed);
        h.set_fault(move |_, _, _| Fault {
            drop: rng.gen_bool(0.08),
            extra_delay: if rng.gen_bool(0.2) {
                Duration::from_millis(rng.gen_range_inclusive(5, 80))
            } else {
                Duration::ZERO
            },
            duplicate: rng.gen_bool(0.1),
            ce_mark: false,
        });
        let up: Vec<u8> = (0..4000u32).map(|i| (i % 241) as u8).collect();
        let down: Vec<u8> = (0..4000u32).map(|i| (i % 239) as u8).collect();
        let (mut got_up, mut got_down) = (Vec::new(), Vec::new());
        let (mut off_up, mut off_down) = (0usize, 0usize);
        let mut buf = [0u8; 4096];
        for _ in 0..600 {
            off_up += h.a.send(&up[off_up..]);
            off_down += h.b.send(&down[off_down..]);
            h.run_for(Duration::from_millis(500));
            loop {
                let n = h.b.recv(&mut buf);
                if n == 0 {
                    break;
                }
                got_up.extend_from_slice(&buf[..n]);
            }
            loop {
                let n = h.a.recv(&mut buf);
                if n == 0 {
                    break;
                }
                got_down.extend_from_slice(&buf[..n]);
            }
            if got_up.len() == up.len() && got_down.len() == down.len() {
                break;
            }
        }
        assert_eq!(got_up, up, "uplink stream corrupted (seed {seed})");
        assert_eq!(got_down, down, "downlink stream corrupted (seed {seed})");
    }
}

#[test]
fn tiny_buffers_under_loss() {
    // 1-segment windows + loss: the most deadlock-prone configuration.
    for seed in 50..54u64 {
        let cfg = TcpConfig::with_window_segments(462, 1);
        let mut h = Harness::new(cfg.clone(), Duration::from_millis(15));
        let (a_addr, _) = h.a.local();
        let (b_addr, _) = h.b.local();
        h.a.connect(b_addr, common::B_PORT, 1, h.now);
        let syn = h.a.poll_transmit(h.now).unwrap();
        let mut listener =
            tcplp::ListenSocket::new(cfg, b_addr, common::B_PORT, &tcplp::NodeBudget::default());
        h.b = common::accept_via_listener(
            &mut listener,
            &mut h.a,
            a_addr,
            &syn,
            2,
            h.now,
            Duration::from_millis(15),
        );
        h.run_for(Duration::from_secs(5));
        let mut rng = Rng::new(seed);
        h.set_fault(move |_, _, _| Fault {
            drop: rng.gen_bool(0.1),
            ..Fault::default()
        });
        let data: Vec<u8> = (0..3000u32).map(|i| (i % 256) as u8).collect();
        let got = h.transfer_a_to_b(&data, Duration::from_secs(600));
        assert_eq!(got, data, "stop-and-wait under loss (seed {seed})");
    }
}
