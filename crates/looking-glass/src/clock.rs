//! The collector's clock abstraction.
//!
//! Every wait in the collection stack — request pacing, retry backoff,
//! injected chaos delays — flows through [`Clock`] so that simulated
//! runs advance one shared *logical* clock instead of sleeping. The
//! deterministic-simulation harness (`crates/chaos`) drives whole
//! multi-day campaigns through a [`VirtualClock`] in microseconds of
//! wall time; only the real-TCP transport path ever touches
//! [`SystemClock`].
//!
//! The same logical timestamps are handed to the [`LgServer`] on every
//! request, so its token-bucket rate limiter refills on the exact same
//! timeline the collector paces itself by — the property that makes
//! rate-limit storms replayable from a seed.
//!
//! [`LgServer`]: crate::server::LgServer

use std::sync::atomic::{AtomicU64, Ordering};

/// A source of (possibly simulated) milliseconds.
pub trait Clock: Send + Sync {
    /// Current time, milliseconds since the clock's origin.
    fn now_ms(&self) -> u64;

    /// Wait `ms` milliseconds: a real sleep on a real clock, a logical
    /// advance on a virtual one.
    fn sleep_ms(&self, ms: u64);
}

/// A shared logical clock: `sleep_ms` advances it, nothing ever blocks.
///
/// Cloneable-by-reference (share it with `&VirtualClock` or wrap in an
/// `Arc`); all accesses are atomic so a collector, a fault injector and
/// an assertion in a test can observe one consistent timeline.
#[derive(Debug, Default)]
pub struct VirtualClock {
    now: AtomicU64,
}

impl VirtualClock {
    /// A virtual clock starting at `start_ms`.
    pub fn new(start_ms: u64) -> Self {
        VirtualClock {
            now: AtomicU64::new(start_ms),
        }
    }

    /// Advance the clock by `ms` (identical to `sleep_ms`, named for
    /// call sites that are not "waiting" but injecting latency).
    pub fn advance(&self, ms: u64) {
        self.now.fetch_add(ms, Ordering::Relaxed);
    }

    /// Jump forward to `at_ms` if it is later than now (e.g. to start a
    /// new campaign day at a fixed logical offset).
    pub fn advance_to(&self, at_ms: u64) {
        self.now.fetch_max(at_ms, Ordering::Relaxed);
    }
}

impl Clock for VirtualClock {
    fn now_ms(&self) -> u64 {
        self.now.load(Ordering::Relaxed)
    }

    fn sleep_ms(&self, ms: u64) {
        self.advance(ms);
    }
}

/// The wall clock: `sleep_ms` really sleeps. Used only when the
/// transport crosses a process boundary (TCP), where the far side is
/// pacing against real time.
#[derive(Debug)]
pub(crate) struct SystemClock {
    origin: std::time::Instant,
    offset_ms: u64,
}

impl SystemClock {
    /// A system clock whose `now_ms` starts at `offset_ms`.
    #[expect(
        clippy::disallowed_methods,
        reason = "SystemClock is the one sanctioned wall-clock source; everything else (chaos included) paces through the Clock trait"
    )]
    pub(crate) fn starting_at(offset_ms: u64) -> Self {
        SystemClock {
            origin: std::time::Instant::now(),
            offset_ms,
        }
    }
}

impl Clock for SystemClock {
    fn now_ms(&self) -> u64 {
        self.offset_ms + self.origin.elapsed().as_millis() as u64
    }

    fn sleep_ms(&self, ms: u64) {
        std::thread::sleep(std::time::Duration::from_millis(ms));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn virtual_clock_advances_without_blocking() {
        let clock = VirtualClock::new(1_000);
        assert_eq!(clock.now_ms(), 1_000);
        clock.sleep_ms(500);
        clock.advance(250);
        assert_eq!(clock.now_ms(), 1_750);
        clock.advance_to(1_200); // in the past: no-op
        assert_eq!(clock.now_ms(), 1_750);
        clock.advance_to(10_000);
        assert_eq!(clock.now_ms(), 10_000);
    }

    #[test]
    fn virtual_clock_is_shared_across_references() {
        let clock = VirtualClock::new(0);
        let a: &dyn Clock = &clock;
        let b: &dyn Clock = &clock;
        a.sleep_ms(10);
        b.sleep_ms(5);
        assert_eq!(clock.now_ms(), 15);
    }

    #[test]
    fn system_clock_starts_at_offset() {
        let clock = SystemClock::starting_at(42);
        assert!(clock.now_ms() >= 42);
    }
}
