//! Drivers that run workloads as child processes: the default
//! "everything once" run, and the A/A check.
//!
//! One workload runs per process, so `peak_rss_mib` is that workload's
//! own high-water mark and no workload warms another's caches.
//!
//! The A/A check applies the acceptance rule the benchmark is held to:
//! run every workload `--runs` times, each with another seed, twice
//! over on the same build. For every end-to-end metric the distance
//! between the first and third quartile of a set, as a share of its
//! median, must stay within the metric's bound (set-up time excepted),
//! and the second set's median must not be worse than the first's by
//! more than the bound. Nor may one run on the held-out seed, which no
//! size or bound was tuned on. Every row is judged twice: against the
//! benchmark's bound, which decides the verdict, and against the bound
//! the issue's table gives that kind of metric, where a row that does
//! not repeat is reported as unresolved, not as passing.
//! Exact per-layer values must be identical between two traced runs of
//! one seed; where the traced rounds' time went is reported beside that.

use crate::harness::Fatal;
use crate::json::{self, Json};
use crate::metrics::{self, Better, END_TO_END, PER_LAYER};
use crate::{client, stats, Args, DEFAULT_SEED, HELD_OUT_SEED, WORKLOADS};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::Command;

/// One child run's result line.
struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<String, f64>,
}

/// Run one workload in a child process; echo its `#` lines when `echo`.
fn child(
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    echo: bool,
) -> Result<Outcome, Fatal> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args([
        "--workload",
        workload,
        "--seed",
        &seed.to_string(),
        "--seconds",
        &seconds.to_string(),
    ]);
    cmd.args(["--trace", if trace { "1" } else { "0" }]);
    if quick {
        cmd.arg("--quick");
    }
    let out = cmd
        .output()
        .map_err(|e| format!("cannot start {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    if echo {
        for line in stdout.lines().filter(|l| l.starts_with('#')) {
            println!("{line}");
        }
    }
    // A wrong answer exits 1 but still prints its result line; anything
    // without a result line is a harness failure.
    let last = stdout.lines().last().unwrap_or("");
    let doc = json::parse(last).map_err(|e| {
        format!(
            "{workload} seed {seed}: no result line ({e}); stderr: {}",
            String::from_utf8_lossy(&out.stderr).trim()
        )
    })?;
    parse_outcome(&doc)
        .ok_or_else(|| format!("{workload} seed {seed}: malformed result line: {last}"))
}

fn parse_outcome(doc: &Json) -> Option<Outcome> {
    let keys: Vec<&str> = doc.as_obj()?.iter().map(|(k, _)| k.as_str()).collect();
    if keys != ["correct", "attempted", "failed", "metrics"] {
        return None;
    }
    let mut metrics = BTreeMap::new();
    for (name, m) in doc.get("metrics")?.as_obj()? {
        m.get("unit")?.as_str()?;
        metrics.insert(name.clone(), m.get("value")?.as_f64()?);
    }
    Some(Outcome {
        correct: doc.get("correct")?.as_bool()?,
        attempted: doc.get("attempted")?.as_f64()? as u64,
        failed: doc.get("failed")?.as_f64()? as u64,
        metrics,
    })
}

/// Every workload once, each in its own process. A traced run
/// measures the layer lab once, here, for all of them.
pub fn run_all(args: &Args) -> Result<bool, Fatal> {
    let mut ok = true;
    let mut table = String::new();
    let lab_values = args
        .trace
        .then(|| -> Result<_, Fatal> {
            let cx = crate::harness::Cx {
                seed: args.seed,
                quick: args.quick,
                out_dir: crate::out_dir(),
            };
            std::fs::create_dir_all(&cx.out_dir)
                .map_err(|e| format!("cannot create {}: {e}", cx.out_dir.display()))?;
            println!("#\n# ===== layer lab =====");
            let values = cx.out_dir.join(format!("lab-{}.json", std::process::id()));
            crate::lab::hand_down(&cx, &values)?;
            Ok(values)
        })
        .transpose()?;
    for w in &WORKLOADS {
        println!("#\n# ===== {} =====", w.name);
        let o = child(
            w.name,
            args.seed,
            args.seconds,
            args.trace,
            args.quick,
            true,
        )?;
        ok &= o.correct;
        let _ = writeln!(
            table,
            "# {:<14} correct={} attempted_ops={} failed_ops={}",
            w.name, o.correct, o.attempted, o.failed
        );
        for (name, v) in &o.metrics {
            let unit = metrics::unit_of(name).unwrap_or("?");
            let _ = writeln!(table, "#   {name} = {v} {unit}");
        }
    }
    if let Some(values) = lab_values {
        std::fs::remove_file(&values)
            .map_err(|e| format!("cannot remove {}: {e}", values.display()))?;
    }
    println!(
        "#\n# ===== summary (seed {}{}) =====",
        args.seed,
        if args.quick {
            ", QUICK: not for claims"
        } else {
            ""
        }
    );
    print!("{table}");
    println!(
        "# {}",
        if ok {
            "all workloads correct"
        } else {
            "FAILED: at least one workload reported wrong answers"
        }
    );
    Ok(ok)
}

/// One set: `runs` seeds on every workload → metric values by
/// `(workload, metric)`.
fn run_set(
    label: &str,
    args: &Args,
    wrong: &mut u64,
) -> Result<BTreeMap<(&'static str, &'static str), Vec<f64>>, Fatal> {
    let mut values: BTreeMap<(&'static str, &'static str), Vec<f64>> = BTreeMap::new();
    for w in &WORKLOADS {
        for i in 0..args.runs {
            let seed = 1 + i as u64;
            let o = child(w.name, seed, args.seconds, false, args.quick, false)?;
            *wrong += o.failed;
            let mut line = format!("# set {label} {} seed {seed}:", w.name);
            for m in &END_TO_END {
                let v = *o
                    .metrics
                    .get(m.name)
                    .ok_or_else(|| format!("{}: result lacks {}", w.name, m.name))?;
                values.entry((w.name, m.name)).or_default().push(v);
                let _ = write!(line, " {}={v:.6}", m.name);
            }
            println!("{line}");
        }
    }
    Ok(values)
}

/// How much worse `b` is than `a`, as a share of `a` (negative: better).
fn worse_by(better: Better, a: f64, b: f64) -> f64 {
    match better {
        Better::Lower => (b - a) / a,
        Better::Higher => (a - b) / a,
    }
}

pub fn run(args: &Args) -> Result<bool, Fatal> {
    client::clients_fit_host()?;
    let mut wrong = 0;
    let a = run_set("A", args, &mut wrong)?;
    let b = run_set("B", args, &mut wrong)?;

    let mut md = String::new();
    let _ = writeln!(md, "# A/A check\n");
    let _ = writeln!(
        md,
        "Two back-to-back sets on one build, {} runs per workload per set (seeds 1..={}), `--seconds {}`{}.",
        args.runs,
        args.runs,
        args.seconds,
        if args.quick { ", QUICK MODE (not for claims)" } else { "" }
    );
    for line in client::env_lines() {
        let _ = writeln!(md, "`{line}`  ");
    }
    let _ = writeln!(
        md,
        "\n*spread* = (Q3 - Q1) / median over a set's runs, quartiles as Python's `statistics.quantiles(v, n=4)`; \
         it must stay within the bound in both sets (set-up time excepted). *B worse by* = how far set B's median \
         is on the wrong side of set A's; it must not exceed the bound. *issue's bound* is what the issue's table \
         gives that kind of metric: where the benchmark's bound is wider, the last column says whether the row \
         would have held the issue's too, and `unresolved` means the host did not let it repeat that closely.\n"
    );
    let _ = writeln!(md, "| workload | metric | unit | median A | median B | spread A | spread B | B worse by | bound | verdict | issue's bound | at the issue's bound |");
    let _ = writeln!(md, "|---|---|---|---|---|---|---|---|---|---|---|---|");
    let mut ok = wrong == 0;
    let mut unresolved = 0;
    for w in &WORKLOADS {
        for m in &END_TO_END {
            let (va, vb) = (&a[&(w.name, m.name)], &b[&(w.name, m.name)]);
            let (ma, mb) = (stats::median(va), stats::median(vb));
            let (sa, sb) = (stats::spread(va), stats::spread(vb));
            let worse = worse_by(m.better, ma, mb);
            let holds = |bound: f64| {
                (m.name == "setup_s" || (sa <= bound && sb <= bound)) && worse <= bound
            };
            let pass = holds(m.bound);
            ok &= pass;
            unresolved += usize::from(!holds(m.issue_bound));
            let third = if sa.max(sb) <= m.bound / 3.0 {
                ""
            } else {
                " (spread above a third of the bound)"
            };
            let _ = writeln!(
                md,
                "| {} | {} | {} | {ma:.6} | {mb:.6} | {sa:.4} | {sb:.4} | {worse:+.4} | {} | {}{} | {} | {} |",
                w.name,
                m.name,
                m.unit,
                m.bound,
                if pass { "ok" } else { "**FAIL**" },
                if pass { third } else { "" },
                m.issue_bound,
                if holds(m.issue_bound) { "holds" } else { "**unresolved**" },
            );
        }
    }
    let _ = writeln!(
        md,
        "\nRows unresolved at the issue's bound: {unresolved} of {}.",
        WORKLOADS.len() * END_TO_END.len()
    );

    // The held-out seed: one run per workload against set A's medians.
    let _ = writeln!(
        md,
        "\n## Held-out seed {HELD_OUT_SEED} (one run per workload)\n"
    );
    let _ = writeln!(
        md,
        "*worse by* is against set A's median and must not exceed the bound.\n"
    );
    let _ = writeln!(
        md,
        "| workload | metric | value | worse by | bound | verdict |"
    );
    let _ = writeln!(md, "|---|---|---|---|---|---|");
    for w in &WORKLOADS {
        let o = child(
            w.name,
            HELD_OUT_SEED,
            args.seconds,
            false,
            args.quick,
            false,
        )?;
        wrong += o.failed;
        ok &= o.correct;
        for m in &END_TO_END {
            let v = *o
                .metrics
                .get(m.name)
                .ok_or_else(|| format!("{}: result lacks {}", w.name, m.name))?;
            let worse = worse_by(m.better, stats::median(&a[&(w.name, m.name)]), v);
            let pass = worse <= m.bound;
            ok &= pass;
            let _ = writeln!(
                md,
                "| {} | {} | {v:.6} | {worse:+.4} | {} | {} |",
                w.name,
                m.name,
                m.bound,
                if pass { "ok" } else { "**FAIL**" }
            );
        }
    }

    // Traced runs: exact per-layer values of two runs of one seed must
    // agree; the first run's attribution goes into the report.
    const SHARES: [&str; 9] = [
        "trace.overhead_share",
        "residual_share",
        "busy_share.proto",
        "busy_share.wal",
        "busy_share.core",
        "busy_share.codec",
        "busy_share.rpc",
        "busy_share.world",
        "busy_share.flat",
    ];
    let exact = PER_LAYER.iter().filter(|m| m.exact).count();
    let _ = writeln!(
        md,
        "\n## Traced runs (two per workload, seed {DEFAULT_SEED})\n"
    );
    let _ = writeln!(
        md,
        "Exact per-layer values ({exact} of them) must be identical in both runs. The shares are the first run's: \
         where the traced round's time went (README, \"Reading the traced run\").\n"
    );
    let _ = writeln!(
        md,
        "| workload | exact values differing | {} |",
        SHARES.join(" | ")
    );
    let _ = writeln!(md, "|---|---|{}", "---|".repeat(SHARES.len()));
    for w in &WORKLOADS {
        let x = child(w.name, DEFAULT_SEED, args.seconds, true, args.quick, false)?;
        let y = child(w.name, DEFAULT_SEED, args.seconds, true, args.quick, false)?;
        wrong += x.failed + y.failed;
        let differing: Vec<&str> = PER_LAYER
            .iter()
            .filter(|m| m.exact && x.metrics.get(m.name) != y.metrics.get(m.name))
            .map(|m| m.name)
            .collect();
        ok &= differing.is_empty() && x.correct && y.correct;
        let value = |name: &str| x.metrics.get(name).copied().unwrap_or(f64::NAN);
        let shares: Vec<String> = SHARES.iter().map(|n| format!("{:.4}", value(n))).collect();
        let _ = writeln!(
            md,
            "| {} | {} | {} |",
            w.name,
            if differing.is_empty() {
                "none".to_string()
            } else {
                format!("**{}**", differing.join(", "))
            },
            shares.join(" | "),
        );
    }
    let _ = writeln!(
        md,
        "\nWrong, refused, lost or timed-out operations over all runs: {wrong}."
    );
    let _ = writeln!(
        md,
        "\nVerdict at the benchmark's bounds: **{}**. At the issue's bounds: **{}**.",
        if ok { "PASS" } else { "FAIL" },
        if ok && unresolved == 0 {
            "PASS".to_string()
        } else {
            format!("NOT MET, {unresolved} rows unresolved")
        }
    );

    print!("{md}");
    let path = std::env::var("PTBENCH_HOME")
        .map(|h| format!("{h}/AA.md"))
        .unwrap_or_else(|_| "benchmark/AA.md".into());
    std::fs::write(&path, &md).map_err(|e| format!("cannot write {path}: {e}"))?;
    println!("# report written to {path}");
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_round_trips_through_the_schema() {
        let line = r#"{"correct": true, "attempted": 1000, "failed": 0, "metrics": {"setup_s": {"value": 0.8127, "unit": "s"}, "ops_per_s": {"value": 5282.4974840939185, "unit": "1/s"}}}"#;
        let o = parse_outcome(&json::parse(line).unwrap()).unwrap();
        assert!(o.correct);
        assert_eq!((o.attempted, o.failed), (1000, 0));
        assert_eq!(o.metrics["setup_s"], 0.8127);
        assert_eq!(
            o.metrics["ops_per_s"], 5282.4974840939185,
            "no digit is lost on the way"
        );
        // Key order and the exact key set are part of the schema.
        for bad in [
            r#"{"correct": true, "attempted": 1, "failed": 0}"#,
            r#"{"attempted": 1, "correct": true, "failed": 0, "metrics": {}}"#,
            r#"{"correct": true, "attempted": 1, "failed": 0, "metrics": {"x": {"value": 1}}}"#,
            r#"{"correct": true, "attempted": 1, "failed": 0, "metrics": {}, "extra": 1}"#,
        ] {
            assert!(parse_outcome(&json::parse(bad).unwrap()).is_none(), "{bad}");
        }
    }

    #[test]
    fn worse_is_relative_to_the_metrics_direction() {
        assert_eq!(worse_by(Better::Lower, 100.0, 110.0), 0.10);
        assert_eq!(worse_by(Better::Lower, 100.0, 90.0), -0.10);
        assert_eq!(worse_by(Better::Higher, 100.0, 90.0), 0.10);
        assert_eq!(worse_by(Better::Higher, 100.0, 125.0), -0.25);
    }
}
