//! The time seam for latency-sensitive layers.
//!
//! Nothing in the workspace *decides* from elapsed time any more — the
//! serving layer's batcher flushes whenever its executor is free, not
//! when a window expires. What still reads time through the [`Clock`]
//! trait instead of [`std::time::Instant`] is *measurement*: the
//! serving layer stamps each query's admission and its flush, and the
//! difference is the queue wait its metrics report. Tests pin those
//! stamps exactly with a [`MockClock`] (advance time by explicit steps,
//! never sleep as synchronization), and the simulation harnesses the
//! ROADMAP plans (items 1 and 7(b)) build on the same seam. Production
//! code uses [`SystemClock`], a thin monotonic wrapper over `Instant`.
//!
//! Time is represented as a [`Duration`] since the clock's own epoch
//! (process start for [`SystemClock`], zero for [`MockClock`]); only
//! differences between readings of the *same* clock are meaningful.

use std::sync::Mutex;
use std::time::{Duration, Instant};

/// A monotonic time source.
///
/// Implementations must be monotone: successive [`Clock::now`] readings
/// never decrease.
pub trait Clock: Send + Sync + 'static {
    /// Time elapsed since the clock's epoch.
    fn now(&self) -> Duration;
}

/// The real monotonic clock: readings are elapsed time since the clock
/// was created.
pub struct SystemClock {
    origin: Instant,
}

impl SystemClock {
    /// A clock anchored at the moment of creation.
    #[must_use]
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
        }
    }
}

impl Default for SystemClock {
    fn default() -> Self {
        Self::new()
    }
}

impl Clock for SystemClock {
    fn now(&self) -> Duration {
        self.origin.elapsed()
    }
}

/// A manually driven clock for deterministic tests: time stands still
/// until the test advances it.
#[derive(Default)]
pub struct MockClock {
    now: Mutex<Duration>,
}

impl MockClock {
    /// A clock starting at time zero.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Advances the clock by `by`.
    pub fn advance(&self, by: Duration) {
        let mut now = self
            .now
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        *now += by;
    }

    /// Moves the clock to `to`. Saturating: the clock is monotone, so a
    /// target earlier than the current reading leaves time unchanged.
    pub fn set(&self, to: Duration) {
        let mut now = self
            .now
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if to > *now {
            *now = to;
        }
    }
}

impl Clock for MockClock {
    fn now(&self) -> Duration {
        *self
            .now
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn system_clock_is_monotone() {
        let clock = SystemClock::new();
        let a = clock.now();
        let b = clock.now();
        assert!(b >= a);
    }

    #[test]
    fn mock_clock_advances_only_when_told() {
        let clock = MockClock::new();
        assert_eq!(clock.now(), Duration::ZERO);
        clock.advance(Duration::from_millis(5));
        assert_eq!(clock.now(), Duration::from_millis(5));
        clock.set(Duration::from_millis(3)); // backwards: ignored
        assert_eq!(clock.now(), Duration::from_millis(5));
        clock.set(Duration::from_millis(9));
        assert_eq!(clock.now(), Duration::from_millis(9));
    }
}
