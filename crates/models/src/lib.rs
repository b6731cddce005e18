//! `lln-models` — the paper's analytical models (§6.4, §7.2, §8,
//! Appendix B).
//!
//! Three models anchor the measurement study:
//!
//! 1. **Equation 1** (Mathis et al.): the classic loss-limited TCP
//!    throughput model `B = MSS/RTT * sqrt(3/2p)`, which the paper
//!    shows over-predicts LLN goodput wildly because it ignores the
//!    tiny, buffer-limited window;
//! 2. **Equation 2** (the paper's model): `B = MSS/RTT * 1/(1/w + 2p)`
//!    for a window of `w` segments sized to the BDP, derived in
//!    Appendix B from a burst model with `trec = 2 RTT`;
//! 3. the **single-hop goodput ceiling** of §6.4 and the **multihop
//!    scaling bound** of §7.2 (`B`, `B/2`, `B/3`, `B/3` for 1-4 hops).

use lln_sim::Duration;

/// Equation 1 — Mathis/Padhye-style loss-limited throughput, in
/// bits/second. `p` is the segment loss rate.
pub fn mathis_goodput_bps(mss_bytes: f64, rtt: Duration, p: f64) -> f64 {
    assert!(p > 0.0 && p < 1.0, "Equation 1 requires 0 < p < 1");
    let rtt_s = rtt.as_secs_f64();
    (mss_bytes * 8.0 / rtt_s) * (1.5 / p).sqrt()
}

/// Equation 2 — the paper's buffer-limited LLN model, in bits/second.
/// `w` is the window size in segments; `p` the segment loss rate
/// (p = 0 gives the loss-free bound `w*MSS/RTT`).
pub fn tcplp_goodput_bps(mss_bytes: f64, rtt: Duration, w: f64, p: f64) -> f64 {
    assert!(w > 0.0);
    assert!((0.0..1.0).contains(&p));
    let rtt_s = rtt.as_secs_f64();
    (mss_bytes * 8.0 / rtt_s) / (1.0 / w + 2.0 * p)
}

/// Appendix B's un-simplified burst form (Equation 3): goodput from
/// window `w` (segments), average windows per burst `b = 1/pwin`, and
/// recovery time `trec`. Exposed for the model-validation bench.
pub fn burst_model_bps(mss_bytes: f64, rtt: Duration, w: f64, p_win: f64, t_rec: Duration) -> f64 {
    assert!(p_win > 0.0 && p_win <= 1.0);
    let b = 1.0 / p_win;
    let num = w * b * mss_bytes * 8.0;
    let den = b * rtt.as_secs_f64() + t_rec.as_secs_f64();
    num / den
}

/// §6.4's single-hop goodput upper bound: `payload_bytes` conveyed per
/// data segment, `seg_cost` the time to transmit all its frames
/// (including platform overhead), `ack_cost` the cost of a TCP ACK
/// frame amortised per segment (halved by delayed ACKs).
pub fn single_hop_bound_bps(
    payload_bytes: f64,
    seg_cost: Duration,
    ack_cost: Duration,
    delayed_acks: bool,
) -> f64 {
    let ack = if delayed_acks {
        ack_cost.as_secs_f64() / 2.0
    } else {
        ack_cost.as_secs_f64()
    };
    payload_bytes * 8.0 / (seg_cost.as_secs_f64() + ack)
}

/// §7.2's radio-scheduling bound: over `h` wireless hops the
/// achievable bandwidth is `B / min(h, 3)` — adjacent hops cannot be
/// simultaneously active, and any three consecutive hops share one
/// collision domain, but hops four apart can pipeline.
pub fn multihop_scale_factor(hops: u32) -> f64 {
    match hops {
        0 => 0.0,
        h => 1.0 / f64::from(h.min(3)),
    }
}

/// Paper §6.4's worked example, kept as an executable reference: a
/// five-frame segment conveys 462 B in 41 ms; a TCP ACK costs one full
/// frame time (~8.2 ms with platform overhead), halved by delayed ACKs
/// to ~4.1 ms per segment, for an 82 kb/s ceiling.
pub fn paper_82kbps_example() -> f64 {
    single_hop_bound_bps(
        462.0,
        Duration::from_millis(41),
        Duration::from_micros(8200),
        true,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equation1_reference_values() {
        // MSS 462 B, RTT 100 ms, p = 1%: Mathis predicts ~453 kb/s —
        // far above the 250 kb/s link, the paper's point exactly.
        let b = mathis_goodput_bps(462.0, Duration::from_millis(100), 0.01);
        assert!((b - 452_700.0).abs() < 5_000.0, "got {b}");
    }

    #[test]
    fn equation2_reference_values() {
        // w=4, p=1%, RTT 100 ms, MSS 462 B: 1/(0.25+0.02) = 3.70x
        // MSS/RTT = 36.96 kb/s -> ~137 kb/s.
        let b = tcplp_goodput_bps(462.0, Duration::from_millis(100), 4.0, 0.01);
        let per_rtt = 462.0 * 8.0 / 0.1;
        assert!((b - per_rtt / 0.27).abs() < 1.0, "got {b}");
    }

    #[test]
    fn equation2_robust_to_small_loss() {
        // The paper's §8 claim: Eq 2 degrades gently for small p while
        // Eq 1 collapses with 1/sqrt(p).
        let rtt = Duration::from_millis(100);
        let base = tcplp_goodput_bps(462.0, rtt, 4.0, 0.0);
        let at_6pct = tcplp_goodput_bps(462.0, rtt, 4.0, 0.06);
        assert!(
            at_6pct > 0.6 * base,
            "6% loss keeps >60% of goodput: {at_6pct} vs {base}"
        );
    }

    #[test]
    fn equation2_approaches_window_limit() {
        let rtt = Duration::from_millis(100);
        let b = tcplp_goodput_bps(462.0, rtt, 4.0, 0.0);
        let window_limit = 4.0 * 462.0 * 8.0 / 0.1;
        assert!((b - window_limit).abs() < 1.0);
    }

    #[test]
    fn burst_model_consistent_with_eq2() {
        // Appendix B: with pwin = w*p and trec = 2 RTT, Eq 3 reduces to
        // Eq 2. Check numerically.
        let (mss, rtt, w, p) = (462.0, Duration::from_millis(100), 4.0, 0.01);
        let eq2 = tcplp_goodput_bps(mss, rtt, w, p);
        let eq3 = burst_model_bps(mss, rtt, w, w * p, Duration::from_millis(200));
        assert!((eq2 - eq3).abs() / eq2 < 1e-9, "eq2={eq2} eq3={eq3}");
    }

    #[test]
    fn single_hop_bound_is_82kbps() {
        let b = paper_82kbps_example();
        assert!(
            (b - 82_000.0).abs() < 2_000.0,
            "paper's §6.4 bound is ~82 kb/s, got {b:.0}"
        );
    }

    #[test]
    fn multihop_factors_match_section_7_2() {
        assert_eq!(multihop_scale_factor(1), 1.0);
        assert_eq!(multihop_scale_factor(2), 0.5);
        assert!((multihop_scale_factor(3) - 1.0 / 3.0).abs() < 1e-12);
        assert!((multihop_scale_factor(4) - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(multihop_scale_factor(0), 0.0);
    }

    #[test]
    fn eq1_vs_eq2_crossover() {
        // At very small p, Eq 1 exceeds Eq 2 (window-limited); the
        // models cross as p grows. Verify the ordering at the ends.
        let rtt = Duration::from_millis(100);
        let small_p = 1e-4;
        assert!(
            mathis_goodput_bps(462.0, rtt, small_p) > tcplp_goodput_bps(462.0, rtt, 4.0, small_p)
        );
        let large_p = 0.25;
        assert!(
            mathis_goodput_bps(462.0, rtt, large_p)
                > tcplp_goodput_bps(462.0, rtt, 4.0, large_p) * 0.5,
            "sanity: both models finite at large p"
        );
    }

    #[test]
    #[should_panic(expected = "Equation 1 requires")]
    fn equation1_rejects_zero_loss() {
        mathis_goodput_bps(462.0, Duration::from_millis(100), 0.0);
    }
}
