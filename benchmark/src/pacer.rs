//! Open-loop accounting: requests are *due* on a schedule fixed before
//! the first is sent, no matter how the system responds, and each is
//! timed from its due instant, not from when the generator got round to
//! sending it. A stall therefore charges every request it delays — the
//! wait a real, independent sender would have seen — and how late the
//! generator itself ran is reported beside the latencies.
//!
//! Pure functions of nanosecond timestamps, so the arithmetic is
//! tested without a clock.

use detrand::rngs::StdRng;
use detrand::Rng;
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How long before a due instant the generator stops sleeping and
/// spins: longer than the host's sleep overshoot (50-100 us), so the
/// generator's own lateness stays out of the latencies it measures.
const SPIN: Duration = Duration::from_micros(150);

/// Block until `due`: sleep most of the way, spin the rest.
pub fn wait_until(due: Instant) {
    if let Some(nap) = due.checked_duration_since(Instant::now() + SPIN) {
        std::thread::sleep(nap);
    }
    while Instant::now() < due {
        std::hint::spin_loop();
    }
}

/// When each request of an open loop is due, in ns after its start:
/// random arrivals at `rate_per_s`, drawn `per_slot` at a time uniformly
/// over consecutive slots of `per_slot / rate_per_s` seconds. Within a
/// slot that is a Poisson process told how many arrivals it had -
/// independent senders, with no fixed period to beat against the
/// engines' 200 us idle sleep - while every slot, and so every window of
/// a run, is offered exactly the stated rate whatever the seed. (A
/// metronome at 1 000 requests/s met the engines at the same few points
/// of their sleep cycle for seconds on end, and which points changed
/// from run to run: the median latency of `daemon_mixed` spread 0.09
/// over ten runs, with random arrivals 0.03.)
pub fn random_schedule(
    rate_per_s: u64,
    requests: usize,
    per_slot: usize,
    rng: &mut StdRng,
) -> Arc<[u64]> {
    assert!(rate_per_s > 0 && per_slot > 0);
    let slot_ns = per_slot as u64 * 1_000_000_000 / rate_per_s;
    let mut due = Vec::with_capacity(requests);
    for (slot, first) in (0..requests).step_by(per_slot).enumerate() {
        let start = due.len();
        for _ in first..requests.min(first + per_slot) {
            due.push(slot as u64 * slot_ns + rng.gen_range(0..slot_ns.max(1)));
        }
        due[start..].sort_unstable();
    }
    due.into()
}

/// A schedule plus the per-connection FIFOs that match replies to
/// requests (the daemon answers each connection in request order).
pub struct OpenLoop {
    schedule: Arc<[u64]>,
    pending: Vec<VecDeque<u64>>,
    /// Reply time minus due time, one per reply.
    pub latency_ns: Vec<u64>,
    /// Reply time, one per reply (same order as `latency_ns`).
    pub replied_ns: Vec<u64>,
    /// Send time minus due time, one per request.
    pub lateness_ns: Vec<u64>,
}

impl OpenLoop {
    pub fn new(schedule: Arc<[u64]>, connections: usize) -> OpenLoop {
        OpenLoop {
            schedule,
            pending: (0..connections).map(|_| VecDeque::new()).collect(),
            latency_ns: Vec::new(),
            replied_ns: Vec::new(),
            lateness_ns: Vec::new(),
        }
    }

    /// Requests on the schedule.
    pub fn len(&self) -> usize {
        self.schedule.len()
    }

    /// When request `k` is due, in ns after the start of the schedule.
    pub fn due_ns(&self, k: usize) -> u64 {
        self.schedule[k]
    }

    /// Request `k` left on `conn` at `now_ns` (never before it was due).
    pub fn sent(&mut self, k: usize, conn: usize, now_ns: u64) {
        let due = self.due_ns(k);
        debug_assert!(now_ns >= due, "request sent before it was due");
        self.lateness_ns.push(now_ns.saturating_sub(due));
        self.pending[conn].push_back(due);
    }

    /// A reply arrived on `conn` at `now_ns`. Returns `false` for a
    /// reply nothing was waiting for.
    pub fn replied(&mut self, conn: usize, now_ns: u64) -> bool {
        match self.pending[conn].pop_front() {
            Some(due) => {
                self.latency_ns.push(now_ns.saturating_sub(due));
                self.replied_ns.push(now_ns);
                true
            }
            None => false,
        }
    }

    /// Requests still waiting for a reply.
    #[cfg(test)]
    fn outstanding(&self) -> usize {
        self.pending.iter().map(VecDeque::len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use detrand::SeedableRng;

    /// A metronome, for arithmetic that must be exact.
    fn every(gap_ns: u64, requests: u64) -> Arc<[u64]> {
        (0..requests).map(|k| k * gap_ns).collect()
    }

    #[test]
    fn random_schedule_is_fixed_by_rate_and_seed_and_exact_per_slot() {
        let draw = |seed| random_schedule(1_500, 30_100, 150, &mut StdRng::seed_from_u64(seed));
        let s = draw(7);
        assert_eq!(s, draw(7), "same seed, same schedule");
        assert_ne!(s, draw(8));
        assert_eq!(s.len(), 30_100);
        assert!(
            s.windows(2).all(|w| w[0] <= w[1]),
            "due instants never go back"
        );
        // 150 arrivals in every 0.1 s slot (100 in the last), whatever
        // the seed ...
        for (slot, arrivals) in s.chunks(150).enumerate() {
            let (from, to) = (slot as u64 * 100_000_000, (slot as u64 + 1) * 100_000_000);
            assert!(
                arrivals.iter().all(|&t| (from..to).contains(&t)),
                "slot {slot}"
            );
        }
        // ... and their gaps are exponential, not a metronome: 1 - e^-0.1
        // = 9.5 % of them are shorter than a tenth of the mean.
        let short = s.windows(2).filter(|w| w[1] - w[0] < 66_667).count();
        assert!(
            (2_500..3_200).contains(&short),
            "{short} gaps under a tenth of the mean"
        );
    }

    #[test]
    fn latency_counts_from_the_due_instant_not_the_send() {
        let mut o = OpenLoop::new(every(1_000_000, 2), 2); // due every 1 ms
        assert_eq!((o.len(), o.due_ns(1)), (2, 1_000_000));
        // Request 0 goes out on time, request 1 is sent 0.4 ms late
        // because the generator was stalled.
        o.sent(0, 0, 0);
        o.sent(1, 1, 1_400_000);
        assert_eq!(o.lateness_ns, vec![0, 400_000]);
        assert_eq!(o.outstanding(), 2);
        // Both replies arrive 0.5 ms after their *send*; the late one
        // is charged the stall as well.
        assert!(o.replied(1, 1_900_000));
        assert!(o.replied(0, 500_000));
        assert_eq!(o.latency_ns, vec![900_000, 500_000]);
        assert_eq!(o.replied_ns, vec![1_900_000, 500_000]);
        assert_eq!(o.outstanding(), 0);
    }

    #[test]
    fn replies_match_requests_in_order_per_connection() {
        let mut o = OpenLoop::new(every(1_000, 3), 2); // due every 1 us
        o.sent(0, 0, 10);
        o.sent(1, 0, 1_010);
        o.sent(2, 1, 2_010);
        assert!(o.replied(0, 5_000)); // request 0 (due 0)
        assert!(o.replied(1, 6_000)); // request 2 (due 2000)
        assert!(o.replied(0, 7_000)); // request 1 (due 1000)
        assert_eq!(o.latency_ns, vec![5_000, 4_000, 6_000]);
        assert!(!o.replied(0, 8_000), "a reply nobody asked for is flagged");
    }
}
