//! `lln-sim` — deterministic discrete-event simulation kernel.
//!
//! This crate provides the time base, pseudo-random number generator,
//! event queue, and measurement utilities shared by every layer of the
//! reproduced TCPlp system. Everything is deterministic: given the same
//! seed and the same sequence of scheduled events, a simulation replays
//! bit-for-bit. There is no wall-clock access anywhere.
//!
//! Modules:
//! - [`time`]: microsecond-resolution [`time::Instant`] / [`time::Duration`].
//! - [`rng`]: seedable xoshiro256** generator (self-contained, so results
//!   do not shift when the `rand` crate revs).
//! - [`queue`]: a generic monotonic event queue with deterministic
//!   tie-breaking.
//! - [`stats`]: running statistics, percentiles and fixed-bin histograms
//!   used to report the paper's figures, typed per-layer counters, and
//!   the FNV-1a digest hash.

pub mod queue;
pub mod rng;
pub mod stats;
pub mod time;

pub use queue::{EventQueue, EventToken};
pub use rng::Rng;
pub use stats::{CounterKey, Counters, Fnv1a, Histogram, Summary};
pub use time::{Duration, Instant};
