//! Outbound connection cache with reconnect + exponential backoff.
//!
//! Each daemon keeps one cached `TcpStream` per peer it talks to
//! (protocol messages are small and frequent; re-dialing per message
//! would dominate). A send that fails drops the cached stream and
//! redials under a [`Backoff`] schedule — the same
//! `timeout · factor^(attempt−1)` shape as `peertrack::RetryConfig`,
//! so the wall-clock retry plane and the simulated one are tuned with
//! the same vocabulary. [`ConnCache::dial`] hands the same dialer to a
//! caller that keeps the stream itself (the daemon's read links).

use crate::frame::{read_frame, write_frame};
use std::collections::HashMap;
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

/// Per-peer cache of outbound framed connections.
pub struct ConnCache {
    conns: HashMap<SocketAddr, TcpStream>,
    backoff: Backoff,
    /// Injected per-peer dial latency (WAN topology emulation for the
    /// loopback harness). Applied once per successful-or-not dial, on
    /// top of the backoff schedule; survives `close_all`,
    /// so a reconnect after a region heal pays the topology's delay
    /// again rather than defaulting to zero. Only honored in test
    /// builds — release daemons ignore it entirely.
    dial_delays: HashMap<SocketAddr, Duration>,
}

impl ConnCache {
    /// An empty cache using the given reconnect schedule.
    pub fn new(backoff: Backoff) -> ConnCache {
        ConnCache { conns: HashMap::new(), backoff, dial_delays: HashMap::new() }
    }

    /// Inject `delay` before every future dial of `addr` (test builds
    /// only — see the field docs). `Duration::ZERO` removes the entry.
    pub fn set_dial_delay(&mut self, addr: SocketAddr, delay: Duration) {
        if delay.is_zero() {
            self.dial_delays.remove(&addr);
        } else {
            self.dial_delays.insert(addr, delay);
        }
    }

    /// The injected dial delay for `addr` (zero when none).
    pub fn dial_delay(&self, addr: SocketAddr) -> Duration {
        self.dial_delays.get(&addr).copied().unwrap_or(Duration::ZERO)
    }

    /// The cached (or freshly dialed) stream for `addr`.
    fn stream(&mut self, addr: SocketAddr) -> io::Result<&mut TcpStream> {
        if !self.conns.contains_key(&addr) {
            let stream = self.dial(addr)?;
            self.conns.insert(addr, stream);
        }
        Ok(self.conns.get_mut(&addr).expect("just inserted"))
    }

    /// Dial `addr` under the backoff schedule (and its injected dial
    /// delay). The stream is the caller's: it is not cached here.
    pub fn dial(&mut self, addr: SocketAddr) -> io::Result<TcpStream> {
        #[cfg(any(test, debug_assertions))]
        if let Some(&delay) = self.dial_delays.get(&addr) {
            std::thread::sleep(delay);
        }
        let mut last_err = None;
        for attempt in 1..=self.backoff.max_attempts {
            std::thread::sleep(self.backoff.delay_before(attempt));
            match TcpStream::connect(addr) {
                Ok(stream) => {
                    stream.set_nodelay(true).ok();
                    return Ok(stream);
                }
                Err(e) => last_err = Some(e),
            }
        }
        Err(last_err.unwrap_or_else(|| {
            io::Error::new(io::ErrorKind::Other, "zero dial attempts configured")
        }))
    }

    /// `true` when a cached stream's peer has hung up. A TCP write
    /// after the peer closed often *succeeds* locally (the RST arrives
    /// later), silently losing the frame — so staleness is probed with
    /// a non-blocking `peek` (EOF ⇒ stale, `WouldBlock` ⇒ alive)
    /// instead of being inferred from a write error.
    fn is_stale(stream: &TcpStream) -> bool {
        if stream.set_nonblocking(true).is_err() {
            return true;
        }
        let mut probe = [0u8; 1];
        let result = stream.peek(&mut probe);
        let restored = stream.set_nonblocking(false).is_ok();
        let alive = matches!(result, Ok(n) if n > 0)
            || matches!(&result, Err(e) if e.kind() == io::ErrorKind::WouldBlock);
        !(alive && restored)
    }

    /// Send one framed payload to `addr`, reconnecting if the cached
    /// stream has gone stale (peer restarted, half-closed TCP).
    pub fn send(&mut self, addr: SocketAddr, payload: &[u8]) -> io::Result<()> {
        if let Some(stream) = self.conns.get_mut(&addr) {
            if Self::is_stale(stream) {
                self.conns.remove(&addr);
            }
        }
        if let Ok(stream) = self.stream(addr) {
            if write_frame(stream, payload).is_ok() {
                return Ok(());
            }
        }
        // Stale or unreachable: drop the cached stream and redial once
        // (the dial itself already retries under the backoff schedule).
        self.conns.remove(&addr);
        let stream = self.stream(addr)?;
        write_frame(stream, payload)
    }

    /// Blocking request/response: send one frame, then read one frame
    /// back *on the same stream*. The peer must reply in arrival order
    /// on this connection (the daemon's engine thread guarantees it).
    /// A peer that closes instead of replying is `ConnectionAborted`.
    pub fn request(&mut self, addr: SocketAddr, payload: &[u8]) -> io::Result<Vec<u8>> {
        self.send(addr, payload)?;
        let stream = self.stream(addr)?;
        match read_frame(stream)? {
            Some(reply) => Ok(reply),
            None => {
                self.conns.remove(&addr);
                Err(io::Error::new(
                    io::ErrorKind::ConnectionAborted,
                    "peer closed before replying",
                ))
            }
        }
    }

    /// Drop every cached connection (half-close our side). Idempotent.
    pub fn close_all(&mut self) {
        for (_, stream) in self.conns.drain() {
            stream.shutdown(std::net::Shutdown::Both).ok();
        }
    }
}

impl Drop for ConnCache {
    fn drop(&mut self) {
        self.close_all();
    }
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

    /// A dial delay set for a peer survives `close_all`: a reconnect
    /// after a region heal must pay the topology's delay again, not
    /// default back to zero.
    #[test]
    fn dial_delay_survives_invalidation_and_applies_on_redial() {
        use std::net::TcpListener;
        use std::time::Instant;

        let listener = match TcpListener::bind("127.0.0.1:0") {
            Ok(l) => l,
            Err(_) => {
                eprintln!("skipping: loopback sockets unavailable here");
                return;
            }
        };
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let mut got = Vec::new();
            // First connection carries two frames (the second send rides
            // the cached stream); the post-teardown redial is a second
            // connection with one more.
            let (mut s, _) = listener.accept().expect("accept");
            got.push(crate::frame::read_frame(&mut s).expect("read frame"));
            got.push(crate::frame::read_frame(&mut s).expect("read frame"));
            let (mut s, _) = listener.accept().expect("accept redial");
            got.push(crate::frame::read_frame(&mut s).expect("read frame"));
            got
        });

        let delay = Duration::from_millis(60);
        let mut cache = ConnCache::new(Backoff::fast());
        cache.set_dial_delay(addr, delay);
        assert_eq!(cache.dial_delay(addr), delay);

        let t0 = Instant::now();
        cache.send(addr, b"first").expect("send over delayed dial");
        assert!(t0.elapsed() >= delay, "first dial pays the injected delay");

        // A cached stream pays nothing: the delay models link setup.
        let t1 = Instant::now();
        cache.send(addr, b"second").expect("send over cached stream");
        assert!(t1.elapsed() < delay, "cached sends skip the dial delay");

        // Teardown (region cut tearing connections down) — the delay
        // table is untouched and the redial pays again.
        cache.close_all();
        assert_eq!(cache.dial_delay(addr), delay, "delay survives teardown");

        let t2 = Instant::now();
        cache.send(addr, b"third").expect("send over redial");
        assert!(t2.elapsed() >= delay, "the redial pays the delay again");

        cache.set_dial_delay(addr, Duration::ZERO);
        assert_eq!(cache.dial_delay(addr), Duration::ZERO, "zero clears the entry");

        drop(cache);
        let frames = server.join().unwrap();
        assert_eq!(frames[0].as_deref(), Some(&b"first"[..]));
        assert_eq!(frames[1].as_deref(), Some(&b"second"[..]));
        assert_eq!(frames[2].as_deref(), Some(&b"third"[..]));
    }
}
