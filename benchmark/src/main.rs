//! `ptbench` — the PeerTrack-RS benchmark. See `benchmark/README.md`.
//!
//! ```text
//! ptbench --workload W [--seed N] [--seconds S] [--trace 0|1] [--quick]
//! ptbench [--seed N] [--quick] [--trace 0|1]     every workload, one child each
//! ptbench --aa [--runs N]                        A/A check, writes AA.md
//! ptbench --emit-benchmark-json                  the tables as BENCHMARK.json
//! ```
//!
//! A single-workload run prints human-readable `#` lines, then — as the
//! last line of standard output — one JSON object with exactly the keys
//! `correct`, `attempted`, `failed` and `metrics`: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`.

mod aa;
mod awake;
mod client;
mod daemon_ingest;
mod daemon_locate;
mod daemon_mixed;
mod flat_scale;
mod gen;
mod harness;
mod json;
mod lab;
mod metrics;
mod pacer;
mod replay;
mod sim_protocol;
mod spans;
mod stats;

use harness::{Cx, Fatal, Workload};
use json::Json;
use metrics::{Source, PER_LAYER};
use spans::Tracer;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

/// How long one run measures unless `--seconds` says otherwise; also
/// `run_seconds` in `BENCHMARK.json`.
pub const RUN_SECONDS: u64 = 24;
/// The seed used when none is given.
pub const DEFAULT_SEED: u64 = 42;
/// The held-out seed: no size or bound was tuned on it (README,
/// "Seeds"); the A/A check runs it once per workload.
pub const HELD_OUT_SEED: u64 = 1337;

pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "daemon_ingest",
        why: daemon_ingest::WHY,
        round: daemon_ingest::round,
        replay: Some(daemon_ingest::replay),
        awake: true,
    },
    Workload {
        name: "daemon_locate",
        why: daemon_locate::WHY,
        round: daemon_locate::round,
        replay: Some(daemon_locate::replay),
        awake: true,
    },
    Workload {
        name: "daemon_mixed",
        why: daemon_mixed::WHY,
        round: daemon_mixed::round,
        replay: Some(daemon_mixed::replay),
        awake: true,
    },
    Workload {
        name: "flat_scale",
        why: flat_scale::WHY,
        round: flat_scale::round,
        replay: None,
        awake: false,
    },
    Workload {
        name: "sim_protocol",
        why: sim_protocol::WHY,
        round: sim_protocol::round,
        replay: None,
        awake: false,
    },
];

/// Spans written to the dump file; the totals cover every span.
const MAX_DUMPED_SPANS: usize = 50_000;

/// Parsed command line.
pub struct Args {
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub quick: bool,
    pub aa: bool,
    pub runs: usize,
    pub emit: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: RUN_SECONDS as f64,
        trace: false,
        quick: false,
        aa: false,
        runs: 10,
        emit: false,
    };
    let mut it = args.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or_else(|| format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => a.workload = Some(value("a workload name")?.clone()),
            "--seed" => {
                a.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                a.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?
            }
            "--runs" => {
                a.runs = value("a number")?
                    .parse()
                    .map_err(|e| format!("--runs: {e}"))?
            }
            // `--trace 1`, `--trace 0`, or a bare `--trace`.
            "--trace" => match it.peek().map(|s| s.as_str()) {
                Some("0") => {
                    it.next();
                    a.trace = false;
                }
                Some("1") => {
                    it.next();
                    a.trace = true;
                }
                _ => a.trace = true,
            },
            "--quick" => a.quick = true,
            "--aa" => a.aa = true,
            "--emit-benchmark-json" => a.emit = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if !(a.seconds >= 0.0 && a.seconds <= 600.0) || a.runs < 2 {
        return Err("--seconds must be in 0..=600 and --runs at least 2".into());
    }
    Ok(a)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("ptbench: {e}\nusage: run.sh [--workload W] [--seed N] [--seconds S] [--trace 0|1] [--quick] | --aa [--runs N] | --emit-benchmark-json");
            return ExitCode::from(2);
        }
    };
    let outcome = if args.emit {
        print!("{}", benchmark_json_text());
        Ok(true)
    } else if args.aa {
        aa::run(&args)
    } else if let Some(name) = &args.workload {
        match WORKLOADS.iter().find(|w| w.name == name) {
            Some(w) => run_one(w, &args),
            None => Err(format!(
                "unknown workload {name:?}; known: {}",
                WORKLOADS.map(|w| w.name).join(", ")
            )),
        }
    } else {
        aa::run_all(&args)
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("ptbench: FAILED: {e}");
            ExitCode::from(1)
        }
    }
}

pub fn benchmark_json_text() -> String {
    metrics::benchmark_json_text(&WORKLOADS.map(|w| (w.name, w.why)), RUN_SECONDS)
}

/// Scratch directory inside the checkout; `run.sh` sets `PTBENCH_OUT`.
pub fn out_dir() -> PathBuf {
    PathBuf::from(std::env::var("PTBENCH_OUT").unwrap_or_else(|_| "benchmark/out".into()))
}

/// Run one workload in this process and print its result line.
fn run_one(w: &Workload, args: &Args) -> Result<bool, Fatal> {
    let cx = Cx {
        seed: args.seed,
        quick: args.quick,
        out_dir: out_dir(),
    };
    std::fs::create_dir_all(&cx.out_dir)
        .map_err(|e| format!("cannot create {}: {e}", cx.out_dir.display()))?;
    // Quick mode is one round of everything, whatever --seconds says.
    let seconds = if args.quick { 0.0 } else { args.seconds };
    println!(
        "# workload={} seed={} seconds={seconds} trace={} quick={}",
        w.name, cx.seed, args.trace as u8, cx.quick
    );
    if cx.quick {
        println!("# QUICK MODE: 1/20 size, one round. Correctness gates are on; the numbers are not for claims.");
    }
    for line in client::env_lines() {
        println!("# env: {line}");
    }
    println!("# all times are host wall-clock on this sandbox unless a unit says model_*");

    // The spinners run while the workload does, not during the layer
    // replay and the lab that follow a traced run.
    let awake = w.awake.then(awake::Awake::start);
    if let Some(a) = &awake {
        println!(
            "# env: {} of {} cores kept awake by an idle-class spinner while the workload runs (see src/awake.rs)",
            a.spinning(),
            a.cores()
        );
    }
    let (summary, metrics) = if args.trace {
        let t = harness::run_traced(w, &cx, seconds / 2.0)?;
        drop(awake);
        let values = per_layer_values(w, &cx, &t)?;
        (t.traced, values)
    } else {
        let s = harness::run_rounds(w, &cx, seconds, &mut Tracer::off())?;
        drop(awake);
        let values = vec![
            ("setup_s", s.setup_s),
            ("ops_per_s", s.ops_per_s),
            ("op_p50_us", s.op_p50_ns / 1e3),
            ("peak_rss_mib", s.peak_rss_mib),
        ];
        (s, values)
    };
    for note in &summary.notes {
        println!("# {note}");
    }
    println!(
        "# {} round(s), {} windows; each metric is the median over its windows; op latency: p50 = {:.3} us, p{} = {:.3} us (median over the rounds, {} samples each)",
        summary.rounds,
        summary.windows,
        summary.op_p50_ns / 1e3,
        summary.tail_pct,
        summary.op_tail_ns / 1e3,
        summary.tail_samples
    );
    let mut failed = summary.failed;
    for name in &summary.unstable_layer {
        if PER_LAYER.iter().any(|m| m.name == *name && m.exact) {
            println!("# FAILED: exact value {name} differed between rounds of one run");
            failed += 1;
        }
    }
    if let Some((name, v)) = metrics.iter().find(|(_, v)| !v.is_finite()) {
        return Err(format!("metric {name} is not a number ({v})"));
    }

    let unit_of =
        |name: &str| metrics::unit_of(name).expect("every printed metric is in the tables");
    for (name, v) in &metrics {
        println!("# {name} = {v} {}", unit_of(name));
    }
    println!(
        "# VmHWM at exit = {} MiB (peak_rss_mib is read when the first round ends)",
        harness::peak_rss_mib()
    );
    println!("# attempted_ops={} failed_ops={failed}", summary.attempted);
    let result = Json::Obj(vec![
        ("correct".into(), Json::Bool(failed == 0)),
        ("attempted".into(), Json::Num(summary.attempted as f64)),
        ("failed".into(), Json::Num(failed as f64)),
        (
            "metrics".into(),
            Json::Obj(
                metrics
                    .iter()
                    .map(|(name, v)| {
                        let m = vec![
                            ("value".into(), Json::Num(*v)),
                            ("unit".into(), Json::Str(unit_of(name).into())),
                        ];
                        (name.to_string(), Json::Obj(m))
                    })
                    .collect(),
            ),
        ),
    ]);
    println!("{}", result.encode());
    Ok(failed == 0)
}

/// Everything a traced run reports: the lab's values, the workload's
/// own counts, and the attribution of its time to layers.
fn per_layer_values(
    w: &Workload,
    cx: &Cx,
    t: &harness::Traced,
) -> Result<Vec<(&'static str, f64)>, Fatal> {
    let mut from_workload: BTreeMap<&'static str, f64> = t.last.layer.clone();
    from_workload.insert("op.tail_samples", t.traced.tail_samples as f64);
    from_workload.insert("op.tail_percentile", t.traced.tail_pct as f64);
    from_workload.insert("op.tail_us", t.traced.op_tail_ns / 1e3);

    // Tracing overhead. The difference between the traced rounds and
    // the untraced rounds they alternated with is printed, but on this
    // host it is smaller than the difference between two untraced
    // rounds; the metric is therefore the time the traced round spent
    // recording (spans × the cost of one span, calibrated now) as a
    // share of its wall time.
    let recording_s = t.tracer.spans().len() as f64 * spans::calibrate_span_cost_ns() / 1e9;
    from_workload.insert("trace.overhead_share", recording_s / t.last_wall_s);
    println!(
        "# tracing: {} spans cost {recording_s:.6} s of a {:.3} s round; traced vs untraced rounds: ops_per_s {:+.2} %, op_p50 {:+.2} % (within run-to-run noise)",
        t.tracer.spans().len(),
        t.last_wall_s,
        (t.traced.ops_per_s / t.untraced.ops_per_s - 1.0) * 100.0,
        (t.traced.op_p50_ns / t.untraced.op_p50_ns - 1.0) * 100.0,
    );

    // Where the time went. Daemon workloads: replay the measured
    // phase's inputs through the layers and set the busy time against
    // what the clients waited. Simulator and flat engine: the traced
    // round's own spans against its wall time.
    let mut all_spans = t.tracer.spans().to_vec();
    let (busy, waited_s) = match w.replay {
        Some(replay) => {
            let io = |e: std::io::Error| format!("{}: layer replay: {e}", w.name);
            let mut rp = replay::Replay::new(cx).map_err(io)?;
            let mut rtr = Tracer::on(t.tracer.epoch(), 100);
            replay(cx, &t.last, &mut rp, &mut rtr).map_err(io)?;
            rp.finish().map_err(io)?;
            let waited_ns: u64 = t
                .tracer
                .spans()
                .iter()
                .filter(|s| s.parent == spans::NO_PARENT && s.name.starts_with("op."))
                .map(|s| s.duration_ns())
                .sum();
            all_spans.extend_from_slice(rtr.spans());
            (replay::busy_by_layer(rtr.spans()), waited_ns as f64 / 1e9)
        }
        None => (replay::busy_by_layer(t.tracer.spans()), t.last_wall_s),
    };
    let busy_total: f64 = busy.values().sum();
    for (layer, metric) in replay::LAYERS.into_iter().zip(replay::SHARE_METRICS) {
        from_workload.insert(metric, busy[layer] / busy_total.max(f64::MIN_POSITIVE));
    }
    from_workload.insert(
        "residual_share",
        1.0 - busy_total / waited_s.max(f64::MIN_POSITIVE),
    );
    println!(
        "# attribution: {busy_total:.4} s busy in layers against {waited_s:.4} s {}",
        if w.replay.is_some() {
            "clients waited (layer replay of the traced round's inputs)"
        } else {
            "wall of the traced round"
        }
    );
    for (name, lt) in spans::self_times(&all_spans) {
        println!(
            "# span {name}: n={} total={:.6}s self={:.6}s",
            lt.spans,
            lt.total_ns as f64 / 1e9,
            lt.self_ns as f64 / 1e9
        );
    }
    for (name, n) in t.tracer.counts() {
        println!("# count {name}: {n}");
    }
    let dump = cx
        .out_dir
        .join(format!("trace-{}-{}.json", w.name, cx.seed));
    let file = std::fs::File::create(&dump)
        .map_err(|e| format!("cannot write {}: {e}", dump.display()))?;
    let mut file = std::io::BufWriter::new(file);
    let dumped = &all_spans[..all_spans.len().min(MAX_DUMPED_SPANS)];
    spans::write_chrome(&mut file, dumped)
        .and_then(|()| std::io::Write::flush(&mut file))
        .map_err(|e| format!("cannot write {}: {e}", dump.display()))?;
    println!(
        "# first {} of {} spans written to {} (totals above cover all)",
        dumped.len(),
        all_spans.len(),
        dump.display()
    );

    let lab = lab::measured(cx)?;
    PER_LAYER
        .iter()
        .map(|m| {
            let v = match m.source {
                Source::Lab => *lab
                    .get(m.name)
                    .ok_or_else(|| format!("the lab did not measure {}", m.name))?,
                Source::Workload => from_workload.get(m.name).copied().unwrap_or(0.0),
            };
            Ok((m.name, v))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(&list.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn driver_command_line_parses() {
        let a = args(&[
            "--workload",
            "flat_scale",
            "--seed",
            "7",
            "--seconds",
            "20",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(
            (a.workload.as_deref(), a.seed, a.seconds, a.trace),
            (Some("flat_scale"), 7, 20.0, true)
        );
        assert!(!args(&["--trace", "0", "--quick"]).unwrap().trace);
        assert!(args(&["--trace", "--quick"]).unwrap().trace);
        assert!(args(&["--trace"]).unwrap().trace);
        assert!(
            args(&["--seed"]).is_err()
                && args(&["--bogus"]).is_err()
                && args(&["--seconds", "-1"]).is_err()
        );
    }

    #[test]
    fn committed_benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed =
            std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert_eq!(
            committed,
            benchmark_json_text(),
            "regenerate with: benchmark/run.sh --emit-benchmark-json > BENCHMARK.json"
        );
        let doc = json::parse(&committed).unwrap();
        let keys: Vec<&str> = doc
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        assert!(committed.len() <= 64 * 1024);
        for w in doc.get("workloads").unwrap().as_arr().unwrap() {
            let why = w.get("why").unwrap().as_str().unwrap();
            assert!(metrics::valid_name(
                w.get("name").unwrap().as_str().unwrap()
            ));
            assert!(why.chars().count() <= 200 && !why.contains('\n'), "{why}");
        }
    }

    #[test]
    fn release_profile_equals_the_root_manifest() {
        // The benchmark must measure the shipped codegen: its
        // [profile.release] table has to say what the repository's says.
        fn release_profile(path: &str) -> Vec<String> {
            let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{path}: {e}"));
            text.lines()
                .map(str::trim)
                .skip_while(|l| *l != "[profile.release]")
                .skip(1)
                .take_while(|l| !l.starts_with('['))
                .filter(|l| !l.is_empty() && !l.starts_with('#'))
                .map(|l| l.replace(' ', ""))
                .collect()
        }
        let ours = release_profile(concat!(env!("CARGO_MANIFEST_DIR"), "/Cargo.toml"));
        let root = release_profile(concat!(env!("CARGO_MANIFEST_DIR"), "/../Cargo.toml"));
        assert!(
            !root.is_empty(),
            "the root manifest has a [profile.release] table"
        );
        assert_eq!(ours, root);
    }
}
