//! Sleepy-end-device data polling (listen-after-send).
//!
//! A Thread leaf keeps its radio off and periodically sends a data
//! request to its parent, listening briefly afterwards for queued
//! downstream frames (§3.2). The paper uses two scheduling policies:
//!
//! - **Fixed** (§9.2): poll every 4 minutes when idle, dropping to
//!   100 ms while a transport-layer response (TCP ACK or CoAP reply) is
//!   expected;
//! - **Adaptive** (Appendix C): Trickle-style — reset the interval to
//!   `smin` whenever a downstream frame arrives, double it on every
//!   idle wake-up, clamped at `smax`. This supports bursty TCP at a
//!   0.1 % idle duty cycle.

use lln_sim::Duration;

/// Poll-interval policy.
#[derive(Clone, Debug)]
pub enum PollMode {
    /// Fixed schedule with a fast interval while a response is pending.
    Fixed {
        /// Idle poll interval (OpenThread default: 4 minutes).
        idle: Duration,
        /// Interval while expecting a transport-layer response (§9.2:
        /// 100 ms).
        fast: Duration,
    },
    /// Trickle-adaptive interval (Appendix C).
    Adaptive {
        /// Minimum interval (20 ms in §C.2).
        smin: Duration,
        /// Maximum interval (5 s in §C.2).
        smax: Duration,
    },
}

impl PollMode {
    /// The paper's §9.2 configuration.
    pub fn paper_fixed() -> Self {
        PollMode::Fixed {
            idle: Duration::from_secs(240),
            fast: Duration::from_millis(100),
        }
    }

    /// The paper's §C.2 configuration.
    pub fn paper_adaptive() -> Self {
        PollMode::Adaptive {
            smin: Duration::from_millis(20),
            smax: Duration::from_secs(5),
        }
    }
}

/// Decides when the sleepy device polls next.
#[derive(Clone, Debug)]
pub struct PollScheduler {
    mode: PollMode,
    /// Transport layer says a response is expected (fixed mode).
    expecting_response: bool,
    /// Current adaptive interval.
    current: Duration,
}

impl PollScheduler {
    /// Creates a scheduler.
    pub fn new(mode: PollMode) -> Self {
        let current = match &mode {
            PollMode::Fixed { idle, .. } => *idle,
            PollMode::Adaptive { smax, .. } => *smax,
        };
        PollScheduler {
            mode,
            expecting_response: false,
            current,
        }
    }

    /// Transport-layer hint (fixed mode): a TCP ACK or CoAP response is
    /// outstanding, so poll fast.
    pub fn set_expecting_response(&mut self, expecting: bool) {
        self.expecting_response = expecting;
    }

    /// Called after each wake-up; `received_frame` tells whether the
    /// poll fetched a downstream frame. Returns the delay until the
    /// next poll.
    pub fn next_delay(&mut self, received_frame: bool) -> Duration {
        match &self.mode {
            PollMode::Fixed { idle, fast } => {
                if self.expecting_response {
                    *fast
                } else {
                    *idle
                }
            }
            PollMode::Adaptive { smin, smax } => {
                if received_frame {
                    self.current = *smin;
                } else {
                    self.current = (self.current * 2).min(*smax);
                }
                self.current
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_mode_switches_on_expectation() {
        let mut s = PollScheduler::new(PollMode::paper_fixed());
        assert_eq!(s.next_delay(false), Duration::from_secs(240));
        s.set_expecting_response(true);
        assert_eq!(s.next_delay(false), Duration::from_millis(100));
        s.set_expecting_response(false);
        assert_eq!(s.next_delay(true), Duration::from_secs(240));
    }

    #[test]
    fn adaptive_resets_on_traffic() {
        let mut s = PollScheduler::new(PollMode::paper_adaptive());
        assert_eq!(s.next_delay(true), Duration::from_millis(20));
        assert_eq!(s.next_delay(true), Duration::from_millis(20));
    }

    #[test]
    fn adaptive_doubles_when_idle_and_clamps() {
        let mut s = PollScheduler::new(PollMode::paper_adaptive());
        s.next_delay(true); // 20 ms
        let mut last = Duration::from_millis(20);
        for _ in 0..12 {
            let d = s.next_delay(false);
            assert!(d == (last * 2).min(Duration::from_secs(5)));
            last = d;
        }
        assert_eq!(last, Duration::from_secs(5), "clamped at smax");
    }

    #[test]
    fn adaptive_recovers_quickly_after_burst() {
        // The Appendix C claim: bursty flows see smin-interval polls.
        let mut s = PollScheduler::new(PollMode::paper_adaptive());
        for _ in 0..10 {
            s.next_delay(false);
        }
        assert_eq!(s.next_delay(true), Duration::from_millis(20));
    }
}
