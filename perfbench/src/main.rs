//! Command-line entry point: runs one workload and prints its metrics.
//!
//! ```text
//! perfbench --workload <name> [--seed <n>] [--seconds <s>] [--trace 0|1]
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. The exit code is 0
//! only when every output check passed.

use perfbench::report::{result_json, Metric};
use perfbench::{e2e, trace, Workload, HELDOUT_SEED};
use std::process::ExitCode;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
}

fn usage() -> String {
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    format!(
        "usage: perfbench --workload <{}> [--seed <n>] [--seconds <s>] [--trace 0|1]\n\
         --seed defaults to the workload's pinned seed; the held-out seed is {HELDOUT_SEED}",
        names.join("|")
    )
}

fn parse_seed(s: &str) -> Option<u64> {
    match s.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => s.parse().ok(),
    }
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 10.0;
    let mut traced = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(Workload::parse(&v).ok_or(format!("unknown workload {v:?}"))?);
            }
            "--seed" => {
                let v = value()?;
                seed = Some(parse_seed(&v).ok_or(format!("bad seed {v:?}"))?);
            }
            "--seconds" => {
                let v = value()?;
                seconds = v
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s >= 0.0)
                    .ok_or(format!("bad --seconds {v:?}"))?;
            }
            "--trace" => {
                traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v:?}")),
                };
            }
            "-h" | "--help" => return Err(usage()),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload,
        seed: seed.unwrap_or(workload.pinned_seed()),
        seconds,
        traced,
    })
}

fn print_metrics(metrics: &[Metric]) {
    for m in metrics {
        println!("  {:<28} {:>16.6} {}", m.name, m.value, m.unit);
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    let seed_kind = if args.seed == args.workload.pinned_seed() {
        "pinned"
    } else if args.seed == HELDOUT_SEED {
        "held-out"
    } else {
        "given"
    };
    println!(
        "perfbench: workload {} seed {} ({seed_kind}) nproc {nproc} profile {profile} mode {}",
        args.workload.name(),
        args.seed,
        if args.traced { "traced" } else { "untraced" }
    );
    let (correct, attempted, failed, metrics) = if args.traced {
        let t = trace::measure(args.workload, args.seed, args.seconds);
        println!("  traced repetitions: {}", t.reps);
        (t.correct, t.attempted, t.failed, t.metrics)
    } else {
        let e = e2e::measure(args.workload, args.seed, args.seconds);
        let correct = e.reproducible() && e.failed() == 0;
        println!(
            "  repetitions: {}, wall s {:.6} (chunk-wise fastest; median repetition {:.6}); set-up samples: {}; outcome digest {:#018x} ({})",
            e.reps.len(),
            e.wall_s(),
            e.median_rep_s(),
            e.setups.len(),
            e.outcome().digest,
            if e.reproducible() { "reproduced by every repetition" } else { "NOT REPRODUCED" }
        );
        (correct, e.attempted(), e.failed(), e.metrics())
    };
    print_metrics(&metrics);
    println!(
        "  {:<28} {:>16.6} ratio ({failed} of {attempted} offered units)",
        "fail_ratio",
        failed as f64 / attempted.max(1) as f64
    );
    println!("{}", result_json(correct, attempted, failed, &metrics));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
