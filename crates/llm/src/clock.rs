//! A global virtual clock: one monotone reading on the simulated timeline
//! that every episode maps its local trace time onto.
//!
//! Per-episode [`embodied_profiler::SimClock`]s remain the source of truth
//! for *local* span timestamps. A virtual clock only tracks the furthest
//! instant something has reached: the fleet runner's event pops, or the
//! serving scheduler's latest booking, so each observes a non-decreasing
//! "now".

use embodied_profiler::{SimDuration, SimInstant};

/// A monotone global clock over the simulated fleet timeline.
///
/// Unlike a per-episode [`embodied_profiler::SimClock`], which advances by
/// recorded span durations, the virtual clock advances *to* absolute
/// instants — event timestamps popped from the [`crate::EventQueue`], or
/// booking instants — and refuses to move backwards: episodes execute
/// their steps atomically at pop time, so an earlier-timestamped event may
/// be processed after a later step finished (the coarse-grained
/// step-granularity simplification the fleet runner documents).
#[derive(Debug, Clone, Default)]
pub struct VirtualClock {
    now: SimInstant,
}

impl VirtualClock {
    /// A clock at the fleet epoch.
    pub fn new() -> Self {
        VirtualClock {
            now: SimInstant::EPOCH,
        }
    }

    /// The furthest instant the fleet has reached.
    pub fn now(&self) -> SimInstant {
        self.now
    }

    /// Time elapsed since the fleet epoch.
    pub fn elapsed(&self) -> SimDuration {
        self.now.duration_since(SimInstant::EPOCH)
    }

    /// Advances the clock to `t` if `t` is ahead of it; returns whether
    /// the clock actually moved. A `t` in the past is a no-op — the clock
    /// is monotone by construction.
    pub fn advance_to(&mut self, t: SimInstant) -> bool {
        if t > self.now {
            self.now = t;
            true
        } else {
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_at_epoch_and_advances_monotonically() {
        let mut clock = VirtualClock::new();
        assert_eq!(clock.now(), SimInstant::EPOCH);
        assert_eq!(clock.elapsed(), SimDuration::ZERO);
        let t1 = SimInstant::EPOCH + SimDuration::from_secs(5);
        assert!(clock.advance_to(t1));
        assert_eq!(clock.now(), t1);
        // Backwards is a no-op, never a panic and never a rewind.
        assert!(!clock.advance_to(SimInstant::EPOCH + SimDuration::from_secs(2)));
        assert_eq!(clock.now(), t1);
        assert!(
            !clock.advance_to(t1),
            "equal instants do not count as motion"
        );
        assert_eq!(clock.elapsed(), SimDuration::from_secs(5));
    }
}
