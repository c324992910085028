//! Virtual time for the simulation (rule CIND-A005: no wall clocks in
//! deterministic paths; this crate's `clippy.toml` bans `Instant::now` and
//! `SystemTime`).

use std::sync::atomic::{AtomicU64, Ordering};

/// A monotonically advancing virtual clock in nanoseconds. Shared by the
/// fault-injecting VFS (per-op latency) and the harness (step timestamps
/// recorded into traces), so two runs with the same seed read identical
/// times at identical points.
#[derive(Debug, Default)]
pub struct VirtualClock(AtomicU64);

impl VirtualClock {
    /// A clock at t = 0.
    #[must_use]
    pub fn new() -> Self {
        Self(AtomicU64::new(0))
    }

    /// Current virtual time in nanoseconds.
    #[must_use]
    pub fn now_ns(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    /// Advances the clock by `ns`, returning the new time.
    pub fn advance(&self, ns: u64) -> u64 {
        self.0.fetch_add(ns, Ordering::Relaxed).wrapping_add(ns)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn advances_monotonically() {
        let c = VirtualClock::new();
        assert_eq!(c.now_ns(), 0);
        assert_eq!(c.advance(5), 5);
        assert_eq!(c.advance(10), 15);
        assert_eq!(c.now_ns(), 15);
    }
}
