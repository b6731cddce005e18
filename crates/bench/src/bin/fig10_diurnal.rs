//! Figure 10: hourly radio duty cycle of TCPlp and CoAP over a full
//! day with office-hours interference.

use lln_bench::{AppProtocol, AppRun};
use lln_sim::Duration;

fn hourly(proto: AppProtocol) -> Vec<f64> {
    // Re-run per hour window by running a full day once and windowing
    // the meter per hour: we re-run the study hour by hour for
    // simplicity and determinism of the windowed meters.
    let mut out = Vec::new();
    for hour in 0..24u64 {
        // Each hour simulated independently with its schedule position:
        // use the interferer occupancy of that hour via a 1-hour run
        // offset into the day by seeding the schedule's phase.
        let day = (9..18).contains(&hour);
        let occupancy = if day { 0.10 } else { 0.01 };
        let r = lln_bench::run_app_study(&AppRun {
            protocol: proto,
            duration: Duration::from_secs(1200),
            interference: Some((occupancy, occupancy)),
            seed: 0x0411 + hour,
            ..AppRun::default()
        });
        out.push(r.radio_dc);
    }
    out
}

fn main() {
    println!("== Figure 10: hourly radio duty cycle (TCPlp vs CoAP) ==\n");
    let tcp = hourly(AppProtocol::Tcplp);
    let coap = hourly(AppProtocol::Coap);
    println!("{:<6} {:>10} {:>10}", "hour", "TCPlp", "CoAP");
    println!("{:-<28}", "");
    for h in 0..24 {
        let marker = if (9..18).contains(&h) {
            " <- office hours"
        } else {
            ""
        };
        println!(
            "{:<6} {:>9.2}% {:>9.2}%{}",
            h,
            tcp[h] * 100.0,
            coap[h] * 100.0,
            marker
        );
    }
    let day_avg = |v: &[f64]| (9..18).map(|h| v[h]).sum::<f64>() / 9.0;
    let night_avg = |v: &[f64]| {
        (0..24)
            .filter(|h| !(9..18).contains(h))
            .map(|h| v[h])
            .sum::<f64>()
            / 15.0
    };
    println!(
        "\nnight: TCPlp {:.2}% vs CoAP {:.2}%",
        night_avg(&tcp) * 100.0,
        night_avg(&coap) * 100.0
    );
    println!(
        "day:   TCPlp {:.2}% vs CoAP {:.2}%",
        day_avg(&tcp) * 100.0,
        day_avg(&coap) * 100.0
    );
    println!("\npaper: CoAP lower at night (less interference); TCPlp slightly");
    println!("lower/comparable during working hours (loss resilience, §9.4).");
}
