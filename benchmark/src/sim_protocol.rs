//! `sim_protocol` — the full paper protocol in the simulator.
//!
//! `peertrack::Builder` with 512 sites (the paper's Nn) replays a §V
//! `PaperWorkload` (60 objects per site, grouped movement) and runs it
//! to quiescence:
//! group windows, Data Triangles, Chord lookups, `GatewayStore`, the
//! heap scheduler — what every fig6/7/8 run pays, roughly ten times
//! slower per event than the flat engine. Faults, retries,
//! replication, geo and the cache are all off. Then 2 000 locates and
//! 500 traces are checked against the `MovementLog` oracle.
//!
//! A round takes 0.3 s, so that a run has fifty-odd of them to take a
//! median over while the shared host changes speed every few seconds
//! (at 300 objects per site it had eight rounds of 2 s, and throughput
//! spread 0.18 from run to run). The per-event cost is that of the
//! figure runs: the same windows, triangles and lookups, fewer of them.
//!
//! Host time is what is measured. The *modeled* statistics — messages,
//! bytes and hops per class, every answer and its cost — are pure
//! functions of the seed, so they are hashed into a digest that must be
//! identical in every round and, for the pinned seeds, equal to
//! `expected/sim_protocol.digest`: a simulator speed-up has to leave
//! the simulation bit-identical.

use crate::gen;
use crate::harness::{Cx, Fatal, Round, Work};
use crate::spans::Tracer;
use detrand::Rng;
use moods::{Locate, MovementLog, SiteId, Trace};
use peertrack::query::AnswerSource;
use peertrack::{Builder, QueryStats};
use simnet::metrics::ALL_CLASSES;
use simnet::SimTime;
use std::time::Instant;
use workload::paper::PaperWorkload;

pub const WHY: &str = "full paper protocol: 512-site simulator replays a grouped PaperWorkload, then 2500 oracle-checked queries; group windows, triangles, Chord lookups, heap scheduler; modeled statistics bit-identical";

/// The paper's network size.
const SITES: usize = 512;
const OBJECTS_PER_SITE: usize = 60;
const LOCATES: usize = 2_000;
const TRACES: usize = 500;

/// Digests of the modeled statistics at the pinned seeds.
const EXPECTED: &str = include_str!("../expected/sim_protocol.digest");

pub fn workload(cx: &Cx) -> PaperWorkload {
    PaperWorkload {
        sites: cx.scaled(SITES, 16),
        objects_per_site: cx.scaled(OBJECTS_PER_SITE, 20),
        grouped_movement: true,
        seed: cx.seed,
        ..PaperWorkload::default()
    }
}

/// Fold one query's modeled outcome into the digest input.
fn put_stats(buf: &mut Vec<u8>, s: &QueryStats) {
    for v in [s.time.as_micros(), s.messages, s.hops, s.bytes] {
        buf.extend_from_slice(&v.to_be_bytes());
    }
    let source = match s.source {
        AnswerSource::Local => 0u64,
        AnswerSource::Intermediate(site) => 1 << 32 | site.0 as u64,
        AnswerSource::Gateway(site) => 2 << 32 | site.0 as u64,
        AnswerSource::NotFound => 3 << 32,
        AnswerSource::Cached => 4 << 32,
    };
    buf.extend_from_slice(&source.to_be_bytes());
    buf.push(s.complete as u8);
}

/// The pinned digest for `(seed, quick)`, if this seed is pinned.
pub fn expected_digest(seed: u64, quick: bool) -> Option<&'static str> {
    let size = if quick { "quick" } else { "full" };
    EXPECTED
        .lines()
        .filter(|l| !l.starts_with('#'))
        .find_map(|l| {
            let mut f = l.split_whitespace();
            (f.next()?.parse() == Ok(seed) && f.next()? == size)
                .then(|| f.next())
                .flatten()
        })
}

pub fn round(cx: &Cx, tr: &mut Tracer) -> Result<Round, Fatal> {
    let w = workload(cx);
    let t_setup = Instant::now();
    let mut net = tr.leaf("world.build", || {
        Builder::new().sites(w.sites).seed(cx.seed).build()
    });
    let events = tr.leaf("workload.generate", || w.generate());
    let setup_s = t_setup.elapsed().as_secs_f64();

    let t_work = Instant::now();
    let mut log = MovementLog::new();
    tr.leaf("world.schedule", || {
        workload::replay(&mut net, &mut log, &events)
    });
    tr.leaf("world.run", || net.run_until_quiescent());
    let work_s = t_work.elapsed().as_secs_f64();

    let metrics = net.metrics().clone();
    let observations = workload::observation_count(&events);
    let mut digest = Vec::new();
    for class in ALL_CLASSES {
        for v in [
            metrics.messages_of(class),
            metrics.bytes_of(class),
            metrics.hops_of(class),
        ] {
            digest.extend_from_slice(&v.to_be_bytes());
        }
    }

    // --- oracle-checked queries, each timed on the host ----------------
    let mut objects: Vec<_> = log.objects().collect();
    objects.sort_unstable();
    let end = net.now();
    let mut rng = gen::rng(cx.seed, 4);
    let (locates, traces) = (cx.scaled(LOCATES, 100), cx.scaled(TRACES, 25));
    let mut lat_ns = Vec::with_capacity(locates + traces);
    let (mut wrong, mut model_us) = (0u64, 0u64);
    for q in 0..locates + traces {
        let object = objects[rng.gen_range(0..objects.len())];
        let from = SiteId(rng.gen_range(0..w.sites as u32));
        let first = log.visits(object)[0].arrived;
        if q < locates {
            let t = SimTime::from_micros(rng.gen_range(first.as_micros()..=end.as_micros()));
            let t0 = Instant::now();
            let (answer, stats) = tr.leaf("world.locate", || net.locate(from, object, t));
            lat_ns.push(t0.elapsed().as_nanos() as u64);
            wrong += u64::from(answer != log.locate(object, t) || !stats.complete);
            model_us += stats.time.as_micros();
            digest.extend_from_slice(&answer.map_or(u32::MAX, |s| s.0).to_be_bytes());
            put_stats(&mut digest, &stats);
        } else {
            let t0 = Instant::now();
            let (path, stats) = tr.leaf("world.trace", || {
                net.trace(from, object, SimTime::ZERO, end)
            });
            lat_ns.push(t0.elapsed().as_nanos() as u64);
            wrong += u64::from(path != log.trace(object, SimTime::ZERO, end) || !stats.complete);
            for v in &path {
                digest.extend_from_slice(&v.site.0.to_be_bytes());
                digest.extend_from_slice(&v.arrived.as_micros().to_be_bytes());
            }
            put_stats(&mut digest, &stats);
        }
    }
    let digest = ids::Id::hash(&digest).to_hex();
    let pinned = expected_digest(cx.seed, cx.quick);
    let digest_mismatch = pinned.is_some_and(|p| p != digest);

    let a = net.anomalies();
    let anomalies = a.out_of_order_arrivals
        + a.dangling_iop_updates
        + a.dropped_to_dead
        + a.retries_exhausted
        + a.duplicates_suppressed
        + a.refresh_failures;

    let mut round = Round {
        setup_s,
        work: Work::Batch {
            ops: metrics.total_messages() as f64,
            work_s,
            lat_ns,
        },
        attempted: (locates + traces) as u64 + 1,
        failed: wrong + anomalies + u64::from(digest_mismatch),
        ..Round::default()
    };
    round.layer.insert(
        "index_msgs_per_obs",
        metrics.indexing_messages() as f64 / observations as f64,
    );
    round
        .layer
        .insert("locate_model_ms", model_us as f64 / 1e3 / locates as f64);
    round
        .layer
        .insert("sim.model_msgs", metrics.total_messages() as f64);
    // Rounds of one run must agree on the digest; as an exact
    // per-layer value it is compared across rounds like any other.
    round.layer.insert(
        "sim.digest_head",
        u32::from_str_radix(&digest[..8], 16).unwrap_or(0) as f64,
    );
    round.notes.push(format!(
        "modeled: {} messages for {observations} observations at {} sites, Lp={}; digest {digest} ({})",
        metrics.total_messages(),
        w.sites,
        net.current_lp(),
        match (pinned, digest_mismatch) {
            (None, _) => "seed not pinned; compared across rounds only",
            (Some(_), false) => "matches expected/sim_protocol.digest",
            (Some(_), true) => "DIFFERS from expected/sim_protocol.digest",
        }
    ));
    Ok(round)
}
