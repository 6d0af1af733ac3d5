//! What every workload shares: the per-run context, the shape of one
//! measured round, and the loop that repeats rounds for `--seconds`.
//!
//! A run is a sequence of identical **rounds**. Each round sets the
//! system up from nothing (timed: `setup_s`), performs a *fixed*
//! amount of work (timed: throughput and per-operation latency) and
//! checks every answer. Rounds repeat until `--seconds` have passed, so
//! a faster program completes more rounds — never bigger ones — and
//! counts, memory and sample sizes per round repeat exactly.
//!
//! Within a round the measured work is cut into **windows** — for the
//! daemon workloads a fixed number of consecutive timed operations
//! (each workload names its own, so that a run has fifty windows or
//! more), for the batch workloads the whole round, which is why their
//! rounds are short — and each window yields a rate and a median
//! latency. The run reports, for each metric, the **median** over its
//! windows (set-up time and tail latency: over its rounds): what the
//! program did most of the time, which a slow or a fast stretch of the
//! shared host moves far less than it moves a mean, and which — unlike
//! a best-of — a change cannot improve by being fast only now and then.

use crate::replay::Replay;
use crate::spans::Tracer;
use crate::stats;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

/// `--quick` divides every workload's size by this.
pub const QUICK_DIVISOR: usize = 20;

/// Per-run context handed to every round.
#[derive(Clone, Debug)]
pub struct Cx {
    /// Seeds every input generator.
    pub seed: u64,
    /// 1/20-size smoke mode: correctness gates on, numbers not for claims.
    pub quick: bool,
    /// Scratch directory inside the checkout (`benchmark/out`).
    pub out_dir: PathBuf,
}

impl Cx {
    /// `full`, or `full / 20` (at least `floor`) in quick mode.
    pub fn scaled(&self, full: usize, floor: usize) -> usize {
        if self.quick {
            (full / QUICK_DIVISOR).max(floor)
        } else {
            full
        }
    }

    /// A fresh, empty scratch directory for one round's data.
    pub fn scratch(&self, tag: &str) -> std::io::Result<PathBuf> {
        let dir = self
            .out_dir
            .join(format!("data-{}-{tag}", std::process::id()));
        match std::fs::remove_dir_all(&dir) {
            Err(e) if e.kind() != std::io::ErrorKind::NotFound => return Err(e),
            _ => {}
        }
        std::fs::create_dir_all(&dir)?;
        Ok(dir)
    }
}

/// One completed operation of a logged workload.
#[derive(Clone, Copy, Debug)]
pub struct Op {
    /// When it completed, ns after the measured work began.
    pub done_ns: u64,
    /// Its latency; `None` for operations that count toward throughput
    /// but are not part of the latency sample (e.g. traces).
    pub lat_ns: Option<u64>,
}

impl Op {
    /// The same operation on a clock that starts `origin_ns` later (the
    /// instant the measured work began).
    pub fn since(self, origin_ns: u64) -> Op {
        Op {
            done_ns: self.done_ns.saturating_sub(origin_ns),
            ..self
        }
    }
}

/// The measured work of one round.
#[derive(Debug)]
pub enum Work {
    /// Discrete operations with completion instants (daemon workloads);
    /// cut into windows of `window_ops` timed operations.
    Log { ops: Vec<Op>, window_ops: usize },
    /// One batch of `ops` operations in `work_s` seconds, with latency
    /// samples taken beside it (simulator, flat engine): one window.
    Batch {
        ops: f64,
        work_s: f64,
        lat_ns: Vec<u64>,
    },
    /// Either of the above after [`Work::reduce`]: the windows and the
    /// round's tail only, so a run does not carry every round's samples
    /// to its end.
    Reduced {
        windows: Vec<Window>,
        tail: stats::Summary,
        ops: f64,
    },
}

impl Default for Work {
    fn default() -> Work {
        Work::Log {
            ops: Vec::new(),
            window_ops: 1,
        }
    }
}

/// What one window of the measured work yields.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Window {
    pub ops_per_s: f64,
    pub p50_ns: u64,
}

impl Work {
    /// Operations completed.
    pub fn ops(&self) -> f64 {
        match self {
            Work::Log { ops, .. } => ops.len() as f64,
            Work::Batch { ops, .. } | Work::Reduced { ops, .. } => *ops,
        }
    }

    /// Operations in the latency sample.
    pub fn timed(&self) -> usize {
        match self {
            Work::Log { ops, .. } => ops.iter().filter(|o| o.lat_ns.is_some()).count(),
            Work::Batch { lat_ns, .. } => lat_ns.len(),
            Work::Reduced { tail, .. } => tail.count,
        }
    }

    /// Keep the windows and the tail, drop the samples.
    pub fn reduce(&mut self) {
        *self = Work::Reduced {
            windows: self.windows(),
            tail: self.tail(),
            ops: self.ops(),
        };
    }

    /// Median and tail latency over the whole round: a round has the
    /// samples for a high percentile where one window may not.
    pub fn tail(&self) -> stats::Summary {
        match self {
            Work::Reduced { tail, .. } => *tail,
            Work::Batch { lat_ns, .. } => stats::summarize(&mut lat_ns.clone()),
            Work::Log { ops, .. } => {
                stats::summarize(&mut ops.iter().filter_map(|o| o.lat_ns).collect::<Vec<_>>())
            }
        }
    }

    /// Cut the work into windows. A log too short for one full window
    /// (quick mode) is a single window.
    pub fn windows(&self) -> Vec<Window> {
        let window = |ops: f64, seconds: f64, lat: &mut [u64]| Window {
            ops_per_s: ops / seconds,
            p50_ns: stats::summarize(lat).p50,
        };
        match self {
            Work::Reduced { windows, .. } => windows.clone(),
            Work::Batch {
                ops,
                work_s,
                lat_ns,
            } => vec![window(*ops, *work_s, &mut lat_ns.clone())],
            Work::Log { ops, window_ops } => {
                let mut ops = ops.clone();
                ops.sort_unstable_by_key(|o| o.done_ns);
                let full = self.timed() >= *window_ops;
                let (mut out, mut lat, mut count, mut start_ns) =
                    (Vec::new(), Vec::new(), 0u64, 0u64);
                for (i, op) in ops.iter().enumerate() {
                    count += 1;
                    lat.extend(op.lat_ns);
                    let last = i + 1 == ops.len();
                    if lat.len() == *window_ops || (last && !full) {
                        out.push(window(
                            count as f64,
                            (op.done_ns - start_ns) as f64 / 1e9,
                            &mut lat,
                        ));
                        (count, start_ns) = (0, op.done_ns);
                        lat.clear();
                    }
                }
                out
            }
        }
    }
}

/// Result of one round.
#[derive(Debug, Default)]
pub struct Round {
    /// Wall time to bring the system to the state the work starts from.
    pub setup_s: f64,
    /// The measured work.
    pub work: Work,
    /// Operations whose outcome was checked.
    pub attempted: u64,
    /// Checked operations that were wrong, refused, timed out or lost.
    pub failed: u64,
    /// Workload-derived per-layer values (exact counts and shares).
    pub layer: BTreeMap<&'static str, f64>,
    /// Human-readable facts printed above the result line.
    pub notes: Vec<String>,
}

/// A workload failure that is not a wrong answer: the harness could not
/// run at all (e.g. loopback sockets refused). Always fatal.
pub type Fatal = String;

/// One workload: a name plus the function that runs one round.
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub round: fn(&Cx, &mut Tracer) -> Result<Round, Fatal>,
    /// Daemon workloads: push the measured phase's inputs through the
    /// layer replay (see `replay.rs`).
    pub replay: Option<ReplayFn>,
    /// Its threads block on sockets and timers, so the cores are kept
    /// from halting while it runs (see `awake.rs`).
    pub awake: bool,
}

/// Replays one traced round's inputs through the layers.
pub type ReplayFn = fn(&Cx, &Round, &mut Replay, &mut Tracer) -> std::io::Result<()>;

/// Everything the rounds of one run add up to.
#[derive(Debug)]
pub struct RunSummary {
    pub rounds: usize,
    pub setup_s: f64,
    pub ops_per_s: f64,
    pub op_p50_ns: f64,
    pub op_tail_ns: f64,
    /// `VmHWM` when the first round ended, MiB: one set-up and one
    /// round's work, whatever number of rounds the host had time for.
    pub peak_rss_mib: f64,
    /// Percentile `op_tail_ns` is taken at, the samples behind it in
    /// each round, and how many windows the run had.
    pub tail_pct: u32,
    pub tail_samples: usize,
    pub windows: usize,
    pub attempted: u64,
    pub failed: u64,
    /// Per-layer values that differed between rounds of this run.
    pub unstable_layer: Vec<&'static str>,
    pub notes: Vec<String>,
}

/// Repeat `round` for `seconds` (always at least once; exactly once
/// when `seconds` is 0) and reduce the rounds to medians. A round is
/// not started when the longest so far would not fit in what is left,
/// so a run ends within its time, not a round past it.
pub fn run_rounds(
    w: &Workload,
    cx: &Cx,
    seconds: f64,
    tracer: &mut Tracer,
) -> Result<RunSummary, Fatal> {
    let start = Instant::now();
    let mut rounds = Vec::new();
    let (mut first_rss, mut longest) = (0.0, 0.0f64);
    loop {
        let t = Instant::now();
        let mut round = (w.round)(cx, tracer)?;
        if rounds.is_empty() {
            first_rss = peak_rss_mib();
        }
        round.work.reduce();
        rounds.push(round);
        longest = longest.max(t.elapsed().as_secs_f64());
        if start.elapsed().as_secs_f64() + longest > seconds {
            break;
        }
    }
    Ok(summarize(&rounds, first_rss))
}

/// A traced run: untraced and traced rounds alternate (so both see the
/// same host conditions) for `seconds`.
pub struct Traced {
    pub untraced: RunSummary,
    pub traced: RunSummary,
    /// The last traced round, its spans, and its wall time.
    pub last: Round,
    pub tracer: Tracer,
    pub last_wall_s: f64,
}

pub fn run_traced(w: &Workload, cx: &Cx, seconds: f64) -> Result<Traced, Fatal> {
    let start = Instant::now();
    let (mut plain, mut traced) = (Vec::new(), Vec::<Round>::new());
    let (mut first_rss, mut longest) = (0.0, 0.0f64);
    let (tracer, last_wall_s) = loop {
        let pair = Instant::now();
        let mut round = (w.round)(cx, &mut Tracer::off())?;
        if plain.is_empty() {
            first_rss = peak_rss_mib();
        }
        round.work.reduce();
        plain.push(round);
        // Only the last traced round is kept whole, for the replay.
        if let Some(previous) = traced.last_mut() {
            previous.work.reduce();
        }
        let mut tracer = Tracer::on(Instant::now(), 0);
        let t = Instant::now();
        traced.push((w.round)(cx, &mut tracer)?);
        let wall = t.elapsed().as_secs_f64();
        longest = longest.max(pair.elapsed().as_secs_f64());
        if start.elapsed().as_secs_f64() + longest > seconds {
            break (tracer, wall);
        }
    };
    Ok(Traced {
        untraced: summarize(&plain, first_rss),
        traced: summarize(&traced, first_rss),
        last: traced.pop().expect("at least one traced round"),
        tracer,
        last_wall_s,
    })
}

fn summarize(rounds: &[Round], peak_rss_mib: f64) -> RunSummary {
    let median = |values: Vec<f64>| stats::median(&values);
    let mut lines = Vec::new();
    let mut windows = Vec::new();
    for (i, r) in rounds.iter().enumerate() {
        let w = r.work.windows();
        lines.push(format!(
            "round {i}: setup_s={:.4}, {} windows, medians: ops_per_s={:.1} op_p50_us={:.3}, tail: op_tail_us={:.3}",
            r.setup_s,
            w.len(),
            median(w.iter().map(|w| w.ops_per_s).collect()),
            median(w.iter().map(|w| w.p50_ns as f64).collect()) / 1e3,
            r.work.tail().tail as f64 / 1e3,
        ));
        windows.extend(w);
    }
    let last = rounds.last().expect("at least one round");
    let unstable_layer = last
        .layer
        .iter()
        .filter(|(k, v)| rounds.iter().any(|r| r.layer.get(*k) != Some(v)))
        .map(|(k, _)| *k)
        .collect();
    // Every round of a run has the same sample count, so the tail is
    // the same percentile throughout; the fewest samples decide if not.
    let thinnest = rounds
        .iter()
        .map(|r| r.work.tail())
        .min_by_key(|t| t.count)
        .expect("at least one round");
    RunSummary {
        rounds: rounds.len(),
        setup_s: median(rounds.iter().map(|r| r.setup_s).collect()),
        ops_per_s: median(windows.iter().map(|w| w.ops_per_s).collect()),
        op_p50_ns: median(windows.iter().map(|w| w.p50_ns as f64).collect()),
        op_tail_ns: median(rounds.iter().map(|r| r.work.tail().tail as f64).collect()),
        peak_rss_mib,
        tail_pct: thinnest.tail_pct,
        tail_samples: thinnest.count,
        windows: windows.len(),
        attempted: rounds.iter().map(|r| r.attempted).sum(),
        failed: rounds.iter().map(|r| r.failed).sum(),
        unstable_layer,
        notes: last.notes.iter().cloned().chain(lines).collect(),
    }
}

/// Peak resident set of this process (`VmHWM`), MiB. One workload runs
/// per process, so this is the workload's own high-water mark.
pub fn peak_rss_mib() -> f64 {
    proc_status_kib("VmHWM:") / 1024.0
}

/// Current resident set (`VmRSS`), MiB.
pub fn rss_mib() -> f64 {
    proc_status_kib("VmRSS:") / 1024.0
}

fn proc_status_kib(field: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix(field))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .unwrap_or(f64::NAN)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round(setup_s: f64, ops: f64, work_s: f64, lat: std::ops::Range<u64>, exact: f64) -> Round {
        Round {
            setup_s,
            work: Work::Batch {
                ops,
                work_s,
                lat_ns: lat.collect(),
            },
            attempted: 10,
            failed: 1,
            layer: BTreeMap::from([("exact", exact), ("same", 2.0)]),
            notes: vec![],
        }
    }

    #[test]
    fn batch_rounds_reduce_to_the_median_of_each_metric() {
        let s = summarize(
            &[
                round(0.3, 100.0, 1.0, 0..50, 1.0),
                round(0.1, 100.0, 2.0, 50..100, 1.0),
                round(0.2, 100.0, 4.0, 100..150, 7.0),
            ],
            12.5,
        );
        assert_eq!(
            (s.rounds, s.windows, s.setup_s, s.ops_per_s, s.peak_rss_mib),
            (3, 3, 0.2, 50.0, 12.5)
        );
        assert_eq!(
            (s.tail_samples, s.op_p50_ns, s.tail_pct, s.op_tail_ns),
            (50, 74.0, 75, 87.0)
        );
        assert_eq!((s.attempted, s.failed), (30, 3));
        assert_eq!(s.unstable_layer, vec!["exact"]);
    }

    #[test]
    fn a_batch_with_one_sample_has_its_median_for_a_tail() {
        let one = Work::Batch {
            ops: 10.0,
            work_s: 2.0,
            lat_ns: vec![2_000_000_000],
        };
        assert_eq!(
            one.windows(),
            vec![Window {
                ops_per_s: 5.0,
                p50_ns: 2_000_000_000,
            }]
        );
        let t = one.tail();
        assert_eq!((t.count, t.tail_pct, t.tail), (1, 50, 2_000_000_000));
    }

    #[test]
    fn a_log_is_cut_into_windows_of_its_own_size_and_has_one_tail() {
        // 2 500 timed operations 1 ms apart, each followed by an untimed
        // one (a trace) 0.1 ms later; latency = operation index.
        let mut ops = Vec::new();
        for i in 0..2_500u64 {
            ops.push(Op {
                done_ns: (i + 1) * 1_000_000,
                lat_ns: Some(i),
            });
            ops.push(Op {
                done_ns: (i + 1) * 1_000_000 + 100_000,
                lat_ns: None,
            });
        }
        ops.reverse(); // completion order must not depend on log order
        let mut work = Work::Log {
            ops,
            window_ops: 1_000,
        };
        assert_eq!((work.ops(), work.timed()), (5_000.0, 2_500));
        let w = work.windows();
        assert_eq!(w.len(), 2, "the last 500 operations do not fill a window");
        // Window 1: timed ops 0..1000 complete at 1 s, with 999 traces
        // completed before that.
        assert_eq!(
            w[0],
            Window {
                ops_per_s: 1_999.0,
                p50_ns: 499,
            }
        );
        // Window 2 runs from 1.0 s to 2.0 s: 1 000 timed + 1 000 traces.
        assert_eq!((w[1].ops_per_s, w[1].p50_ns), (2_000.0, 1_499));
        // The tail is the whole round's: 2 500 samples carry a p99.
        let t = work.tail();
        assert_eq!((t.count, t.tail_pct, t.tail), (2_500, 99, 2_474));
        work.reduce();
        assert_eq!(
            (work.ops(), work.timed(), work.windows()),
            (5_000.0, 2_500, w)
        );
        assert_eq!(work.tail(), t);
    }

    #[test]
    fn a_short_log_is_one_window() {
        let ops = (0..100u64)
            .map(|i| Op {
                done_ns: (i + 1) * 10_000_000,
                lat_ns: Some(i),
            })
            .collect();
        let work = Work::Log {
            ops,
            window_ops: 1_000,
        };
        let w = work.windows();
        assert_eq!(w.len(), 1);
        assert_eq!((w[0].ops_per_s, w[0].p50_ns), (100.0, 49));
        assert_eq!((work.tail().count, work.tail().tail_pct), (100, 90));
    }

    #[test]
    fn quick_mode_scales_sizes_down_with_a_floor() {
        let mut cx = Cx {
            seed: 1,
            quick: false,
            out_dir: PathBuf::from("x"),
        };
        assert_eq!(cx.scaled(1_000, 10), 1_000);
        cx.quick = true;
        assert_eq!(cx.scaled(1_000, 10), 50);
        assert_eq!(cx.scaled(100, 10), 10);
    }

    #[test]
    fn rss_is_readable_on_linux() {
        assert!(peak_rss_mib() >= rss_mib() * 0.5 && rss_mib() > 0.0);
    }
}
