//! Blocking dial and request/response, for the callers that run before
//! or outside any engine loop: a node's join through its bootstrap,
//! `peertrackd ctl` and the loopback harness's control plane.
//!
//! Those callers may start before their peer listens (daemons started
//! together), so a dial retries under a [`Backoff`] schedule — the same
//! `timeout · factor^(attempt−1)` shape as `peertrack::RetryConfig`, so
//! the wall-clock retry plane and the simulated one are tuned with the
//! same vocabulary. A running engine never dials through here: its
//! links to peers are nonblocking and dialed once (`daemon::node`).

use crate::frame::{read_frame, write_frame};
use std::io;
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// Reconnect schedule: attempt `k` (1-based) is preceded by a wait of
/// `base · factor^(k−2)` (no wait before the first attempt). Mirrors
/// `RetryConfig { timeout, backoff, max_attempts }`.
#[derive(Clone, Copy, Debug)]
pub struct Backoff {
    /// Wait before the second attempt.
    pub base: Duration,
    /// Wait multiplier per successive attempt (1 = constant).
    pub factor: u32,
    /// Total dial attempts before giving up.
    pub max_attempts: u32,
}

impl Default for Backoff {
    fn default() -> Backoff {
        // RetryConfig's defaults: 200 ms timeout, doubling, 6 attempts.
        Backoff { base: Duration::from_millis(200), factor: 2, max_attempts: 6 }
    }
}

impl Backoff {
    /// A schedule for loopback tests: quick, few attempts.
    pub fn fast() -> Backoff {
        Backoff { base: Duration::from_millis(10), factor: 2, max_attempts: 3 }
    }

    /// Wait before attempt `attempt` (1-based; zero before the first).
    /// Total: the exponent saturates at zero so an out-of-contract
    /// `attempt` of 0 or 1 yields `Duration::ZERO` / `base` instead of
    /// underflowing (panic in debug, a wrapped 4-billion-power schedule
    /// in release).
    pub fn delay_before(&self, attempt: u32) -> Duration {
        if attempt <= 1 {
            return Duration::ZERO;
        }
        let factor = self.factor.saturating_pow(attempt.saturating_sub(2));
        self.base.saturating_mul(factor)
    }
}

/// Dial `addr` under `backoff`, with NODELAY set on the stream.
pub fn dial(addr: SocketAddr, backoff: &Backoff) -> io::Result<TcpStream> {
    let mut last_err = None;
    for attempt in 1..=backoff.max_attempts {
        std::thread::sleep(backoff.delay_before(attempt));
        match TcpStream::connect(addr) {
            Ok(stream) => {
                stream.set_nodelay(true).ok();
                return Ok(stream);
            }
            Err(e) => last_err = Some(e),
        }
    }
    Err(last_err.unwrap_or_else(|| io::Error::other("zero dial attempts configured")))
}

/// Send one frame on `stream`, then read one frame back. The peer
/// answers a connection's requests in arrival order (the daemon's
/// engine guarantees it), so the reply read is to the oldest request
/// not yet answered on this stream. A peer that closes instead of
/// replying is `ConnectionAborted`.
pub fn request(stream: &mut TcpStream, payload: &[u8]) -> io::Result<Vec<u8>> {
    write_frame(stream, payload)?;
    read_frame(stream)?.ok_or_else(|| {
        io::Error::new(io::ErrorKind::ConnectionAborted, "peer closed before replying")
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_mirrors_retry_config_shape() {
        let b = Backoff { base: Duration::from_millis(100), factor: 2, max_attempts: 4 };
        assert_eq!(b.delay_before(1), Duration::ZERO);
        assert_eq!(b.delay_before(2), Duration::from_millis(100));
        assert_eq!(b.delay_before(3), Duration::from_millis(200));
        assert_eq!(b.delay_before(4), Duration::from_millis(400));
    }

    /// Regression: `delay_before` takes `attempt - 2` as an exponent.
    /// Attempts 0 and 1 must hit the zero-delay fast path (never the
    /// subtraction), and attempt 2 must be exactly `base` (exponent 0)
    /// — the three smallest inputs bracket the underflow site.
    #[test]
    fn backoff_small_attempts_never_underflow() {
        let b = Backoff { base: Duration::from_millis(100), factor: 2, max_attempts: 4 };
        assert_eq!(b.delay_before(0), Duration::ZERO);
        assert_eq!(b.delay_before(1), Duration::ZERO);
        assert_eq!(b.delay_before(2), Duration::from_millis(100));
    }

    #[test]
    fn backoff_factor_one_is_constant() {
        let b = Backoff { base: Duration::from_millis(50), factor: 1, max_attempts: 8 };
        assert_eq!(b.delay_before(2), b.delay_before(7));
    }
}
