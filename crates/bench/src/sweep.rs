//! Parallel sweep harness for experiment regenerators.
//!
//! Every paper artifact is a *sweep*: the same world construction
//! repeated over a parameter grid (loss rates, window sizes, hop
//! counts), each run fully independent and driven by its own seed.
//! [`sweep`] fans those runs across the machine's cores with a
//! work-stealing index, while keeping the output **byte-identical to a
//! serial loop**:
//!
//! - each run owns its `World` and RNG — no state is shared between
//!   runs, so execution order cannot influence results;
//! - results land in a slot indexed by the run's position in the input,
//!   so the returned `Vec` is in input order regardless of which thread
//!   finished first;
//! - seeds come from the *parameters*, never from thread identity or
//!   scheduling.
//!
//! Set `LLN_SWEEP_THREADS=1` to force serial execution (or any explicit
//! thread count); the default is the number of available cores.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Number of worker threads a sweep will use: `LLN_SWEEP_THREADS` if
/// set, otherwise the available parallelism (min 1).
pub fn sweep_threads() -> usize {
    if let Ok(v) = std::env::var("LLN_SWEEP_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            return n.max(1);
        }
    }
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Runs `f` over every element of `params`, in parallel, returning the
/// results in input order. Equivalent to
/// `params.iter().map(f).collect()` — including bit-for-bit equal
/// results when `f` is deterministic in its argument — but wall-clock
/// scales with the number of cores.
pub fn sweep<P, R, F>(params: &[P], f: F) -> Vec<R>
where
    P: Sync,
    R: Send,
    F: Fn(&P) -> R + Sync,
{
    let threads = sweep_threads().min(params.len().max(1));
    if threads <= 1 || params.len() <= 1 {
        return params.iter().map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<R>>> = params.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(p) = params.get(i) else { break };
                let r = f(p);
                *slots[i].lock().unwrap() = Some(r);
            });
        }
    });
    slots
        .into_iter()
        .map(|m| m.into_inner().unwrap().expect("every slot filled"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_in_input_order() {
        let params: Vec<u64> = (0..97).collect();
        let out = sweep(&params, |&p| p * p);
        assert_eq!(out, params.iter().map(|&p| p * p).collect::<Vec<_>>());
    }

    #[test]
    fn parallel_matches_serial_for_seeded_runs() {
        // A run that is deterministic in its parameter: hash a forked
        // RNG stream. Any cross-run interference or order dependence
        // would show up as a mismatch.
        let run = |&seed: &u64| {
            let mut rng = lln_sim::Rng::new(seed);
            (0..1000).fold(0u64, |acc, _| acc.wrapping_add(rng.next_u64()))
        };
        let mut base = lln_sim::Rng::new(0x5eed);
        let params: Vec<u64> = (0..41).map(|_| base.next_u64()).collect();
        let serial: Vec<u64> = params.iter().map(run).collect();
        let parallel = sweep(&params, run);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn single_element_and_empty_sweeps() {
        assert_eq!(sweep(&[5u32], |&p| p + 1), vec![6]);
        let empty: Vec<u32> = vec![];
        assert_eq!(sweep(&empty, |&p| p + 1), Vec::<u32>::new());
    }
}
