//! Injectable time sources.
//!
//! Everything in `obs` that timestamps events reads time
//! through a [`Clock`], so the discrete-event scheduler simulations can
//! drive metric time with *simulated* seconds while production code uses
//! the monotonic wall clock. Times are `f64` seconds from an arbitrary
//! per-clock origin — the same convention the DES uses.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

pub trait Clock: Send + Sync {
    /// Monotonic seconds since this clock's origin.
    fn now(&self) -> f64;
}

/// Monotonic wall clock, origin = construction time.
pub struct WallClock {
    origin: Instant,
}

impl WallClock {
    pub fn new() -> Self {
        WallClock {
            origin: Instant::now(),
        }
    }
}

impl Default for WallClock {
    fn default() -> Self {
        Self::new()
    }
}

impl Clock for WallClock {
    fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }
}

/// A manually-advanced clock for simulations and tests. Time only moves
/// when `set`/`advance` is called, so timestamps are fully deterministic.
pub struct ManualClock {
    bits: AtomicU64,
}

impl ManualClock {
    pub fn new(t: f64) -> Arc<Self> {
        Arc::new(ManualClock {
            bits: AtomicU64::new(t.to_bits()),
        })
    }

    pub fn set(&self, t: f64) {
        self.bits.store(t.to_bits(), Ordering::Release);
    }

    pub fn advance(&self, dt: f64) {
        // Single-writer in practice; a load+store race would only skip an
        // advance, and sim drivers advance from one thread.
        let t = f64::from_bits(self.bits.load(Ordering::Acquire));
        self.set(t + dt);
    }
}

impl Clock for ManualClock {
    fn now(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Acquire))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manual_clock_is_deterministic() {
        let c = ManualClock::new(10.0);
        assert_eq!(c.now(), 10.0);
        c.advance(2.5);
        assert_eq!(c.now(), 12.5);
        c.set(1.0);
        assert_eq!(c.now(), 1.0);
    }

    #[test]
    fn wall_clock_is_monotonic() {
        let c = WallClock::new();
        let a = c.now();
        let b = c.now();
        assert!(b >= a && a >= 0.0);
    }
}
