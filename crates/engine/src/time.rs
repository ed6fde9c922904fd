//! Virtual time.

use std::fmt;
use std::ops::Add;

/// A point in virtual time (ticks since simulation start).
///
/// Under the canonical unit-delay policy one tick equals one message delay,
/// which is the latency unit used throughout the paper. The TCP runtime in
/// `tetrabft-net` maps one tick to one millisecond of wall-clock time.
///
/// # Examples
///
/// ```
/// use tetrabft_engine::Time;
/// assert_eq!(Time(3) + 2, Time(5));
/// assert!(Time(1) < Time(2));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Time(pub u64);

/// A sentinel far beyond any simulated horizon.
pub const NEVER: Time = Time(u64::MAX);

impl Time {
    /// Simulation start.
    pub const ZERO: Time = Time(0);

    /// Saturating difference `self − earlier`.
    #[cfg(test)]
    fn since(self, earlier: Time) -> u64 {
        self.0.saturating_sub(earlier.0)
    }
}

impl Add<u64> for Time {
    type Output = Time;
    #[inline]
    fn add(self, ticks: u64) -> Time {
        Time(self.0.saturating_add(ticks))
    }
}

impl fmt::Display for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic() {
        assert_eq!(Time::ZERO + 7, Time(7));
        assert_eq!(Time(9).since(Time(4)), 5);
        assert_eq!(Time(4).since(Time(9)), 0, "since saturates");
        assert_eq!(NEVER + 1, NEVER, "addition saturates at NEVER");
    }
}
