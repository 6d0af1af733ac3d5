//! Keeps the host's cores from going idle while a daemon workload is
//! measured.
//!
//! The sandbox is a two-vCPU virtual machine. A vCPU with nothing to
//! run halts, and waking a halted vCPU - for a socket wake-up, or the
//! 200 us timer of an engine's idle loop - costs 30-60 us of hypervisor
//! time that varies with the neighbours' load. The daemon workloads'
//! threads block and wake a hundred thousand times a second, so they
//! measured that, not the program: `daemon_ingest` windows fell into a
//! fast state (9-19 us per round trip: client and engine both already
//! running) or a slow one (43 us and more: a wake-up each way), the
//! slow state's share swung between a fifth and three fifths from
//! minute to minute, and the median ack latency spread 0.14-0.26 over
//! ten runs. One `SCHED_IDLE` thread per core, pinned there and spinning
//! on `pause`, keeps every vCPU running - what booting with `idle=poll`
//! does. An idle-class thread runs only when its core has nothing else
//! runnable and is preempted the moment anything is, so it takes no
//! time from the program. With the spinners the slow state is gone and
//! the same spread is 0.03-0.04.
//!
//! The simulator and the flat engine never block and run without: a
//! second busy vCPU made single-threaded runs less steady here (0.18
//! against 0.05 over ten interleaved pairs of runs).
//!
//! The three calls are declared here because the repository has no
//! `libc` crate and takes no registry dependency; `std` links the C
//! library that has them.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;

const SCHED_IDLE: i32 = 5;
/// Words of a `cpu_set_t` (1024 CPUs).
const MASK_WORDS: usize = 16;

#[repr(C)]
struct SchedParam {
    sched_priority: i32,
}

extern "C" {
    fn sched_setscheduler(pid: i32, policy: i32, param: *const SchedParam) -> i32;
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// CPUs this thread may run on.
fn allowed_cpus() -> Vec<usize> {
    let mut mask = [0u64; MASK_WORDS];
    // SAFETY: `mask` is a writable buffer of exactly the size passed;
    // pid 0 is the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    if rc != 0 {
        return Vec::new();
    }
    (0..MASK_WORDS * 64)
        .filter(|c| mask[c / 64] >> (c % 64) & 1 == 1)
        .collect()
}

/// Move the calling thread to `cpu` and into the idle scheduling class.
fn become_idle_on(cpu: usize) -> bool {
    let mut mask = [0u64; MASK_WORDS];
    mask[cpu / 64] |= 1 << (cpu % 64);
    let param = SchedParam { sched_priority: 0 };
    // SAFETY: both pointers are to live, correctly sized values that the
    // calls only read; pid 0 is the calling thread.
    unsafe {
        sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) == 0
            && sched_setscheduler(0, SCHED_IDLE, &param) == 0
    }
}

/// The spinners; dropping it stops and joins them.
pub struct Awake {
    stop: Arc<AtomicBool>,
    threads: Vec<JoinHandle<()>>,
    spinning: usize,
}

impl Awake {
    /// One idle-class spinner per allowed CPU. A thread the kernel does
    /// not let into the idle class on its core does not spin (at normal
    /// priority it would take the core from the program); the run then
    /// goes on without it and says so.
    pub fn start() -> Awake {
        let stop = Arc::new(AtomicBool::new(false));
        let (ready, is_ready) = mpsc::channel();
        let threads: Vec<_> = allowed_cpus()
            .into_iter()
            .map(|cpu| {
                let (stop, ready) = (Arc::clone(&stop), ready.clone());
                std::thread::spawn(move || {
                    let idle = become_idle_on(cpu);
                    ready.send(idle).ok();
                    while idle && !stop.load(Ordering::Relaxed) {
                        for _ in 0..64 {
                            std::hint::spin_loop();
                        }
                    }
                })
            })
            .collect();
        let spinning = is_ready
            .iter()
            .take(threads.len())
            .filter(|&idle| idle)
            .count();
        Awake {
            stop,
            threads,
            spinning,
        }
    }

    /// Cores this process may run on.
    pub fn cores(&self) -> usize {
        self.threads.len()
    }

    /// Cores that have a spinner.
    pub fn spinning(&self) -> usize {
        self.spinning
    }
}

impl Drop for Awake {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        for t in self.threads.drain(..) {
            t.join().ok();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spinners_start_on_the_allowed_cores_and_stop_when_dropped() {
        let cpus = allowed_cpus();
        assert!(!cpus.is_empty(), "this thread runs somewhere");
        let awake = Awake::start();
        assert_eq!(awake.cores(), cpus.len());
        assert!(awake.spinning() <= awake.cores());
        drop(awake); // joins every spinner: returning is the test
        assert_eq!(
            allowed_cpus(),
            cpus,
            "the caller's own affinity is untouched"
        );
    }
}
