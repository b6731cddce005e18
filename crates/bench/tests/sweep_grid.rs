//! A reduced real Figure 9 grid run twice — serially and through the
//! parallel [`sweep`] harness — must give identical results. The
//! harness's own unit tests only fold RNG streams; this checks the
//! same contract on whole simulated worlds.

use lln_bench::sweep::sweep;
use lln_bench::{run_app_study, AppProtocol, AppResult, AppRun};
use lln_sim::Duration;

/// Every field of a result, floats by bit pattern.
fn observables(r: &AppResult) -> [u64; 7] {
    [
        r.generated,
        r.delivered,
        r.retransmissions_per_10min.to_bits(),
        r.rto_per_10min.to_bits(),
        r.reliability.to_bits(),
        r.radio_dc.to_bits(),
        r.cpu_dc.to_bits(),
    ]
}

#[test]
fn parallel_fig9_sweep_reproduces_serial_results() {
    // Force the threaded path even on a single-core host (this binary
    // has no other test that reads the variable).
    if std::env::var_os("LLN_SWEEP_THREADS").is_none() {
        std::env::set_var("LLN_SWEEP_THREADS", "3");
    }
    let grid: Vec<AppRun> = [AppProtocol::Tcplp, AppProtocol::Coap, AppProtocol::Cocoa]
        .into_iter()
        .flat_map(|protocol| {
            [0.0, 0.15].map(|injected_loss| AppRun {
                protocol,
                injected_loss,
                duration: Duration::from_secs(300),
                ..AppRun::default()
            })
        })
        .collect();
    let serial: Vec<_> = grid.iter().map(run_app_study).collect();
    let parallel = sweep(&grid, run_app_study);
    assert_eq!(serial.len(), parallel.len());
    for (i, (s, p)) in serial.iter().zip(&parallel).enumerate() {
        assert!(s.generated > 0, "run {i} generated no readings");
        assert_eq!(
            observables(s),
            observables(p),
            "run {i} diverged: {s:?} vs {p:?}"
        );
    }
    // Loss must reach the transport: the lossy TCPlp run retransmits.
    assert!(serial[1].retransmissions_per_10min > 0.0, "{:?}", serial[1]);
}
