//! The untraced mode: repeated, timed runs of one seeded world.
//!
//! Each repetition builds the world, runs it to its end with
//! `World::run_until` one chunk of simulated time at a time (each chunk
//! timed, with allocations and the heap high-water mark counted), and
//! collects the simulated outcome. Every repetition of a seed must
//! produce the same outcome digest. Between repetitions a batch of world
//! builds is timed for the set-up metric, so set-up and run samples span
//! the same stretch of wall time.
//!
//! The host is shared: other tenants slow the program down in bursts
//! from milliseconds to minutes, and never speed it up. Every repetition
//! simulates exactly the same chunks, so the run's wall time is taken as
//! the sum over chunks of each chunk's fastest time across repetitions:
//! the least disturbed measurement of the program itself.

use crate::alloc;
use crate::report::{fastest, median, Metric};
use crate::workload::{Outcome, Run, Workload};
use std::time::{Duration, Instant};

/// Repetitions made even when the time budget is spent.
pub const MIN_REPS: usize = 3;
/// World builds averaged into one set-up sample.
pub const SETUP_BATCH: u32 = 64;
/// Set-up samples taken at least.
pub const MIN_SETUPS: usize = 15;

/// One timed repetition.
#[derive(Clone, Debug)]
pub struct Rep {
    /// Wall seconds spent inside `run_until`, per chunk of simulated time.
    pub chunk_s: Vec<f64>,
    /// Allocation calls while the world ran.
    pub allocs: u64,
    /// Heap high-water above the level before the world was built.
    pub peak_bytes: u64,
    /// What the world simulated.
    pub outcome: Outcome,
}

/// Everything the untraced mode measured.
#[derive(Clone, Debug)]
pub struct E2e {
    /// The timed repetitions, in order.
    pub reps: Vec<Rep>,
    /// Mean wall seconds of one world build, per batch.
    pub setups: Vec<f64>,
}

/// Times [`SETUP_BATCH`] world builds and returns the mean seconds per
/// build. Dropping each world is not timed.
pub fn setup_sample(workload: Workload, seed: u64) -> f64 {
    let mut total = Duration::ZERO;
    for _ in 0..SETUP_BATCH {
        let t0 = Instant::now();
        let run = Run::build(workload, seed);
        total += t0.elapsed();
        drop(run);
    }
    total.as_secs_f64() / f64::from(SETUP_BATCH)
}

/// Runs one repetition of the world `build` returns.
pub fn rep(build: impl FnOnce() -> Run) -> Rep {
    let live0 = alloc::reset_peak();
    let mut run = build();
    let a0 = alloc::allocs();
    let mut chunk_s = Vec::new();
    run.run_with(|world, t| {
        let t0 = Instant::now();
        world.run_until(t);
        chunk_s.push(t0.elapsed().as_secs_f64());
    });
    let allocs = alloc::allocs() - a0;
    // The counters are process-wide; saturate in case another thread
    // (a parallel test) restarted the high-water mark meanwhile.
    let peak_bytes = alloc::peak_bytes().saturating_sub(live0);
    Rep {
        chunk_s,
        allocs,
        peak_bytes,
        outcome: run.outcome(),
    }
}

/// Repeats the workload until `seconds` of wall time have passed (and
/// at least [`MIN_REPS`] times), taking a set-up sample after each
/// repetition and topping them up to [`MIN_SETUPS`].
pub fn measure(workload: Workload, seed: u64, seconds: f64) -> E2e {
    let start = Instant::now();
    let mut reps = Vec::new();
    let mut setups = Vec::new();
    while reps.len() < MIN_REPS || start.elapsed().as_secs_f64() < seconds {
        reps.push(rep(|| Run::build(workload, seed)));
        setups.push(setup_sample(workload, seed));
    }
    while setups.len() < MIN_SETUPS {
        setups.push(setup_sample(workload, seed));
    }
    E2e { reps, setups }
}

impl E2e {
    /// The first repetition's outcome (every other one must match it).
    pub fn outcome(&self) -> &Outcome {
        &self.reps[0].outcome
    }

    /// True when every repetition reproduced the first one's digest.
    pub fn reproducible(&self) -> bool {
        let d = self.outcome().digest;
        self.reps.iter().all(|r| r.outcome.digest == d)
    }

    /// Offered units over all repetitions.
    pub fn attempted(&self) -> u64 {
        self.reps.iter().map(|r| r.outcome.attempted).sum()
    }

    /// Failed units over all repetitions; a repetition whose digest
    /// differs from the first counts as wholly failed.
    pub fn failed(&self) -> u64 {
        let d = self.outcome().digest;
        self.reps
            .iter()
            .map(|r| {
                if r.outcome.digest == d {
                    r.outcome.failed
                } else {
                    r.outcome.attempted
                }
            })
            .sum()
    }

    /// The end-to-end metrics, in `BENCHMARK.json` order.
    pub fn metrics(&self) -> Vec<Metric> {
        let o = self.outcome();
        let wall = self.wall_s();
        let per_rep =
            |f: &dyn Fn(&Rep) -> f64| median(&self.reps.iter().map(f).collect::<Vec<_>>());
        vec![
            Metric::new("sim_speed", "s/s", o.sim_s / wall),
            Metric::new("ns_per_frame", "ns", wall * 1e9 / o.frames_tx as f64),
            Metric::new(
                "allocs_per_seg",
                "count",
                per_rep(&|r| r.allocs as f64 / r.outcome.segs_sent as f64),
            ),
            Metric::new(
                "peak_heap_mb",
                "MB",
                per_rep(&|r| r.peak_bytes as f64 / 1e6),
            ),
            Metric::new("setup_s", "s", fastest(&self.setups)),
            Metric::new("goodput_kbps", "kb/s", o.goodput_bps / 1e3),
            Metric::new(
                "frames_per_kb",
                "count",
                o.frames_tx as f64 / (o.delivered_bytes as f64 / 1e3),
            ),
            Metric::new("rtt_p50_ms", "ms", o.rtt_percentile(50.0)),
            Metric::new("rtt_p99_ms", "ms", o.rtt_percentile(99.0)),
            Metric::new("reliability", "ratio", o.reliability),
            Metric::new("radio_dc", "ratio", o.radio_dc),
        ]
    }

    /// Wall seconds of the run: each chunk's fastest time over the
    /// repetitions, summed.
    pub fn wall_s(&self) -> f64 {
        let chunks = self.reps.iter().map(|r| r.chunk_s.len()).min().unwrap_or(0);
        (0..chunks)
            .map(|k| fastest(&self.reps.iter().map(|r| r.chunk_s[k]).collect::<Vec<_>>()))
            .sum()
    }

    /// Median wall seconds of a whole repetition (printed for context).
    pub fn median_rep_s(&self) -> f64 {
        median(&self.reps.iter().map(Rep::wall_s).collect::<Vec<_>>())
    }
}

impl Rep {
    /// Wall seconds of the whole repetition.
    pub fn wall_s(&self) -> f64 {
        self.chunk_s.iter().sum()
    }
}
