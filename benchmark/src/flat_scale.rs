//! `flat_scale` — the flat engine, nothing else.
//!
//! One `peertrack::flat::run_flat` at 20 000 nodes / 200 000 objects on
//! one thread: calendar queue, slab record store, flat gateway tables
//! and 6 800 shard windows; no sockets, WAL or codec. The working set
//! (~22 MiB) is ten times a core's L2, so the engine runs out of the
//! shared last-level cache, as every larger run does up to a few hundred
//! MiB. One thread, because two are *slower* on this engine on a
//! two-core host.
//!
//! The size is what lets a run repeat. The shared host changes speed
//! every few seconds, by a quarter; a run reports the median of its
//! rounds, and a median needs dozens of rounds that are each shorter
//! than one such stretch: at this size fifty-odd rounds of 0.3 s fit a
//! run, at 100 000 nodes seven of 2.8 s did and the run-to-run spread
//! was 0.15. Objects are first captured over 24 s, a fifth of the
//! standard geometry's 120 s like the population, so a shard window
//! holds about as many events as it does in the standard geometry at
//! 100 000 nodes (3 against 4); at 120 s nine windows in ten would be
//! empty and the run would measure the empty-window loop.
//!
//! A batch has no per-operation latency: the latency metric is the
//! wall time of the one `run_flat`. `run_flat` builds its tables
//! internally, so set-up cannot be timed apart from the run; `setup_s`
//! (which every workload has to report) is a `run_flat` over the same
//! ring with a token population — ring placement, per-shard tables and
//! the windows, everything that does not grow with the objects.

use crate::harness::{self, Cx, Fatal, Round, Work};
use crate::spans::Tracer;
use peertrack::flat::{run_flat, FlatConfig, FlatReport};
use simnet::SimTime;
use std::sync::OnceLock;
use std::time::Instant;

pub const WHY: &str = "pure engine: run_flat at 20k nodes / 200k objects on one thread, working set (~22 MiB) 10x a core's L2; calendar queue, slab store and shard windows do the work, no sockets, WAL or codec";

const NODES: u32 = 20_000;
const OBJECTS_PER_NODE: u32 = 10;
/// Nodes per object in the set-up run's token population.
const TOKEN_NODES_PER_OBJECT: u32 = 100;

/// The standard geometry at `nodes` nodes.
pub fn config(seed: u64, nodes: u32) -> FlatConfig {
    FlatConfig {
        nodes,
        objects: nodes * OBJECTS_PER_NODE,
        move_frac: 0.1,
        moves: 10,
        locates: 256,
        shards: 64,
        threads: 1,
        seed,
        spread: SimTime::from_secs(24),
        move_gap: SimTime::from_secs(1),
    }
}

/// Failed checks in a report: wrong locates plus every audit violation.
pub fn violations(cfg: &FlatConfig, r: &FlatReport) -> u64 {
    r.locates_bad
        + r.out_of_order
        + r.iop_bad
        + r.violations.len() as u64
        + u64::from(r.locates_ok != cfg.locates as u64)
        + u64::from(r.open_tails != cfg.objects as u64)
}

/// Resident bytes the first full-size run of this process added per
/// record. Only the first run can tell: `VmHWM` never comes down, so a
/// later run's growth cannot be read off it.
static RSS_BYTES_PER_RECORD: OnceLock<f64> = OnceLock::new();

pub fn round(cx: &Cx, tr: &mut Tracer) -> Result<Round, Fatal> {
    let big = config(cx.seed, cx.scaled(NODES as usize, 64) as u32);
    let token = FlatConfig {
        objects: (big.nodes / TOKEN_NODES_PER_OBJECT).max(16),
        ..big
    };

    let t_setup = Instant::now();
    let token_report = tr.leaf("flat.build", || run_flat(&token));
    let setup_s = t_setup.elapsed().as_secs_f64();
    let mut failed = violations(&token, &token_report);

    let rss_before = harness::rss_mib();
    let t_work = Instant::now();
    let report = tr.leaf("flat.run", || run_flat(&big));
    let work = t_work.elapsed();
    failed += violations(&big, &report);
    let rss_bytes_per_record = *RSS_BYTES_PER_RECORD.get_or_init(|| {
        (harness::peak_rss_mib() - rss_before).max(0.0) * 1024.0 * 1024.0 / report.records as f64
    });

    let mut round = Round {
        setup_s,
        work: Work::Batch {
            ops: report.events as f64,
            work_s: work.as_secs_f64(),
            lat_ns: vec![work.as_nanos() as u64],
        },
        attempted: (big.locates + token.locates) as u64 + 2,
        failed,
        ..Round::default()
    };
    round
        .layer
        .insert("flat.scale_events", report.events as f64);
    round
        .layer
        .insert("flat.rss_bytes_per_record", rss_bytes_per_record);
    round.notes.push(format!(
        "run_flat: {} nodes, {} objects, {} events, {} records, {} windows, {} modeled messages in {:.3} s host time",
        big.nodes,
        big.objects,
        report.events,
        report.records,
        report.windows,
        report.metrics.total_messages(),
        work.as_secs_f64()
    ));
    Ok(round)
}
