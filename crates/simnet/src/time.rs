//! Virtual time.
//!
//! The paper's time domain `T` is continuous (§II-B: "receptors are working
//! continuously"); microsecond resolution is far below any constant in the
//! evaluation (5 ms per hop, `Tmax` windows of hundreds of ms), so a `u64`
//! microsecond counter is an exact-enough model of it.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A point in virtual time, in microseconds since the simulation epoch.
#[derive(
    Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default,
)]
pub struct SimTime(pub u64);

impl SimTime {
    /// The simulation epoch.
    pub const ZERO: SimTime = SimTime(0);

    /// The far future; no event is ever scheduled here.
    pub const INFINITY: SimTime = SimTime(u64::MAX);

    /// Construct from microseconds.
    pub const fn from_micros(us: u64) -> SimTime {
        SimTime(us)
    }

    /// Construct from milliseconds.
    pub const fn from_millis(ms: u64) -> SimTime {
        SimTime(ms * 1_000)
    }

    /// Construct from whole seconds.
    pub const fn from_secs(s: u64) -> SimTime {
        SimTime(s * 1_000_000)
    }

    /// Microseconds since the epoch.
    pub const fn as_micros(&self) -> u64 {
        self.0
    }

    /// Milliseconds since the epoch (rounded down).
    pub const fn as_millis(&self) -> u64 {
        self.0 / 1_000
    }

    /// Saturating difference (`self - earlier`), as a duration.
    pub fn since(&self, earlier: SimTime) -> SimTime {
        SimTime(self.0.saturating_sub(earlier.0))
    }
}

impl Add for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimTime) -> SimTime {
        SimTime(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign for SimTime {
    fn add_assign(&mut self, rhs: SimTime) {
        *self = *self + rhs;
    }
}

impl Sub for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimTime) -> SimTime {
        SimTime(self.0.saturating_sub(rhs.0))
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}us", self.0)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000 {
            write!(f, "{:.3}s", self.0 as f64 / 1e6)
        } else if self.0 >= 1_000 {
            write!(f, "{:.3}ms", self.0 as f64 / 1e3)
        } else {
            write!(f, "{}us", self.0)
        }
    }
}

/// Shorthand for [`SimTime::from_millis`].
pub const fn ms(v: u64) -> SimTime {
    SimTime::from_millis(v)
}

/// Shorthand for [`SimTime::from_secs`].
pub const fn secs(v: u64) -> SimTime {
    SimTime::from_secs(v)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions() {
        assert_eq!(ms(5).as_micros(), 5_000);
        assert_eq!(secs(2).as_millis(), 2_000);
        assert_eq!(SimTime::from_micros(1500).as_millis(), 1);
    }

    #[test]
    fn arithmetic_saturates() {
        assert_eq!(SimTime::INFINITY + ms(1), SimTime::INFINITY);
        assert_eq!(ms(1) - ms(5), SimTime::ZERO);
        assert_eq!(ms(5).since(ms(2)), SimTime::from_millis(3));
        assert_eq!(ms(2).since(ms(5)), SimTime::ZERO);
    }

    #[test]
    fn ordering() {
        assert!(ms(1) < ms(2));
        assert!(SimTime::ZERO < SimTime::INFINITY);
    }

    #[test]
    fn display_units() {
        assert_eq!(format!("{}", SimTime::from_micros(5)), "5us");
        assert_eq!(format!("{}", ms(5)), "5.000ms");
        assert_eq!(format!("{}", secs(5)), "5.000s");
    }
}
