//! `perfbench` — the repository's end-to-end and per-layer benchmark.
//!
//! One invocation runs one named workload (one seeded, deterministic
//! `World`) on a single thread and prints its metrics. The untraced mode
//! times whole runs and reports the end-to-end metrics; the traced mode
//! steps the world one timestamp at a time from outside, captures the
//! traffic, and replays it through each layer's entry points to report
//! per-layer metrics. See `README.md` in this directory.

pub mod alloc;
pub mod e2e;
pub mod report;
pub mod trace;
pub mod workload;

pub use workload::{Outcome, Run, Workload, HELDOUT_SEED};
