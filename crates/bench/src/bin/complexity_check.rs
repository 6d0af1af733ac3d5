//! Empirical check of the §IV-C complexity analysis.
//!
//! Two layers, both deterministic correctness gates (host speed and
//! memory are measured by `benchmark/`, workload `flat_scale`):
//!
//! 1. Chord routing takes `O(log₂ Nn)` hops w.h.p. (ratio against
//!    `(1/2)·log₂ Nn` must stay flat);
//! 2. the flat-engine scale sweep — `peertrack::flat` on the sharded
//!    executor at ascending geometries, every run oracle-exact and the
//!    event count growing `Θ(No)`.
//!
//! Modes:
//!
//! * *(default / `--quick`)* — hop check + a sub-second sweep;
//! * `--full` — sweep to the ROADMAP target (10⁶ nodes / 10⁷ objects);
//! * `--shard-csv PATH [--threads T]` — run one canonical sharded
//!   geometry and dump every deterministic output to a CSV. `verify.sh`
//!   runs this at `T = 1` and `T = 4` and requires the files to be
//!   byte-identical — the sharded-determinism gate.

use bench::report::{class_traffic_rows, log_log_slope, print_table, write_csv};
use chord::Ring;
use detrand::{rngs::StdRng, Rng, SeedableRng};
use ids::Id;
use peertrack::flat::{run_flat, FlatConfig, FlatReport};
use simnet::time::SimTime;

struct Args {
    full: bool,
    shard_csv: Option<String>,
    threads: usize,
}

fn parse_args() -> Args {
    let mut args = Args { full: false, shard_csv: None, threads: 1 };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--quick" => args.full = false,
            "--full" => args.full = true,
            "--shard-csv" => {
                args.shard_csv = Some(it.next().expect("--shard-csv needs a path"));
            }
            "--threads" => {
                args.threads = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--threads needs a number");
            }
            other => panic!("unknown argument {other:?}"),
        }
    }
    args
}

/// The §IV-C routing claim: average lookup hops across network sizes
/// stays a constant multiple of `(1/2)·log₂ Nn`.
fn chord_hop_check() {
    let mut rows = Vec::new();
    for &n in &[32usize, 64, 128, 256, 512] {
        let mut rng = StdRng::seed_from_u64(1);
        let mut ring = Ring::new();
        let mut ids = Vec::new();
        for i in 0..n {
            let id = Id::random(&mut rng);
            if i == 0 {
                ring.bootstrap(id, i);
            } else {
                ring.join(ids[0], id, i).expect("join");
            }
            ids.push(id);
        }
        ring.stabilize_all();

        let trials = 3_000;
        let mut hops = 0u64;
        for _ in 0..trials {
            let key = Id::random(&mut rng);
            let from = ids[rng.gen_range(0..n)];
            hops += ring.lookup(from, key).expect("lookup").hops as u64;
        }
        let avg = hops as f64 / trials as f64;
        let half_log = 0.5 * (n as f64).log2();
        rows.push(vec![
            n.to_string(),
            format!("{avg:.2}"),
            format!("{half_log:.2}"),
            format!("{:.2}", avg / half_log),
        ]);
    }
    print_table(
        "Chord lookup hops vs (1/2)·log2(Nn) — §IV-C routing claim",
        &["nn", "avg_hops", "half_log2", "ratio"],
        &rows,
    );

    // The ratio must hover near a constant (≈1) — that IS the O(log n)
    // claim. Enforce loosely.
    let ratios: Vec<f64> = rows
        .iter()
        .map(|r| r[3].parse::<f64>().expect("ratio parses"))
        .collect();
    let (lo, hi) = ratios
        .iter()
        .fold((f64::MAX, f64::MIN), |(l, h), &r| (l.min(r), h.max(r)));
    assert!(
        hi / lo < 1.6 && lo > 0.5 && hi < 2.0,
        "hop growth deviates from Θ(log n): ratios {ratios:?}"
    );
    println!("\nhop-growth ratio stable in [{lo:.2}, {hi:.2}] — Θ(log Nn) confirmed");
}

/// The standard geometry at a given size: shards scale with the node
/// count (bounded), moves follow the paper's 10-step traces.
fn flat_config(nodes: u32, objects: u32) -> FlatConfig {
    FlatConfig {
        nodes,
        objects,
        shards: (nodes as usize / 4_096).clamp(8, 64),
        // Spread first captures over enough virtual time that per-µs
        // event batches stay small at 10⁷ objects.
        spread: SimTime::from_secs(120),
        ..FlatConfig::default()
    }
}

/// Run one geometry; any oracle violation (locates, ordering, IOP
/// edges) fails the check.
fn run_clean(cfg: &FlatConfig) -> FlatReport {
    let r = run_flat(cfg);
    assert_eq!(
        r.locates_bad + r.out_of_order + r.iop_bad,
        0,
        "violations at {} nodes / {} objects: locates_bad={} out_of_order={} \
         iop_bad={} examples={:#?}",
        cfg.nodes,
        cfg.objects,
        r.locates_bad,
        r.out_of_order,
        r.iop_bad,
        r.violations
    );
    r
}

/// Ascending flat-engine sweep: `full` ends at the ROADMAP target of
/// 10⁶ nodes / 10⁷ objects; quick stays under a second.
fn scale_sweep(full: bool) {
    let sizes: &[(u32, u32)] = if full {
        &[(10_000, 100_000), (100_000, 1_000_000), (500_000, 5_000_000), (1_000_000, 10_000_000)]
    } else {
        &[(1_000, 10_000), (10_000, 100_000)]
    };
    let mut rows = Vec::new();
    let mut growth = Vec::new();
    for &(nodes, objects) in sizes {
        let cfg = flat_config(nodes, objects);
        let r = run_clean(&cfg);
        growth.push((objects as f64, r.events as f64));
        rows.push(vec![
            nodes.to_string(),
            objects.to_string(),
            cfg.shards.to_string(),
            r.events.to_string(),
            r.windows.to_string(),
            r.records.to_string(),
        ]);
    }
    print_table(
        "flat engine scale sweep (every point oracle-exact)",
        &["nodes", "objects", "shards", "events", "windows", "records"],
        &rows,
    );

    // Events must grow Θ(No): the log-log slope of (objects, events)
    // stays within a loose band around 1.
    let slope = log_log_slope(&growth);
    assert!(
        (0.8..=1.2).contains(&slope),
        "event count is not Θ(No): log-log slope {slope:.3}"
    );
    println!("\nevents grow Θ(No): log-log slope {slope:.3}");
}

/// The sharded-determinism gate: run one canonical geometry and dump
/// every thread-independent output. Two invocations with different
/// `--threads` must produce byte-identical files.
fn shard_determinism_csv(path: &str, threads: usize) {
    let cfg = FlatConfig { threads, ..flat_config(20_000, 100_000) };
    let report = run_clean(&cfg);
    let mut rows: Vec<Vec<String>> = vec![
        vec!["nodes".into(), cfg.nodes.to_string()],
        vec!["objects".into(), cfg.objects.to_string()],
        vec!["shards".into(), cfg.shards.to_string()],
        vec!["seed".into(), cfg.seed.to_string()],
        vec!["events".into(), report.events.to_string()],
        vec!["windows".into(), report.windows.to_string()],
        vec!["records".into(), report.records.to_string()],
        vec!["open_tails".into(), report.open_tails.to_string()],
        vec!["locates_ok".into(), report.locates_ok.to_string()],
        vec!["locates_bad".into(), report.locates_bad.to_string()],
        vec!["out_of_order".into(), report.out_of_order.to_string()],
        vec!["iop_bad".into(), report.iop_bad.to_string()],
    ];
    for class_row in class_traffic_rows(&report.metrics) {
        let [class, messages, bytes, hops] = &class_row[..] else {
            unreachable!("class_traffic_rows yields 4 columns")
        };
        rows.push(vec![format!("msgs_{class}"), messages.clone()]);
        rows.push(vec![format!("bytes_{class}"), bytes.clone()]);
        rows.push(vec![format!("hops_{class}"), hops.clone()]);
    }
    write_csv(path, &["key", "value"], &rows).expect("write shard csv");
    println!("wrote {path} (threads={threads}; file content is thread-independent)");
}

fn main() {
    let args = parse_args();
    if let Some(path) = &args.shard_csv {
        shard_determinism_csv(path, args.threads);
        return;
    }
    chord_hop_check();
    scale_sweep(args.full);
}
