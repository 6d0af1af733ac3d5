//! CSV and console reporting shared by the experiment binaries.

use simnet::metrics::{Metrics, ALL_CLASSES};
use simnet::FaultStats;
use std::fmt::Display;
use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};

/// Absolute path of `results/<file>` at the workspace root, independent
/// of the invocation directory.
pub fn results_path(file: &str) -> PathBuf {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("bench crate lives two levels under the workspace root");
    root.join("results").join(file)
}

/// Write rows as CSV under `results/` (created if missing).
pub fn write_csv<P: AsRef<Path>>(
    path: P,
    header: &[&str],
    rows: &[Vec<String>],
) -> std::io::Result<()> {
    if let Some(dir) = path.as_ref().parent() {
        fs::create_dir_all(dir)?;
    }
    let mut f = fs::File::create(path)?;
    writeln!(f, "{}", header.join(","))?;
    for row in rows {
        writeln!(f, "{}", row.join(","))?;
    }
    Ok(())
}

/// One figure's CSV artifact: formatted once, next to the figure's
/// generator, and written by every binary that produces the file — so
/// two producers of `results/<file>` cannot disagree on a column or a
/// float precision.
pub struct Csv {
    /// File name under `results/`.
    pub file: &'static str,
    /// Column names.
    pub header: &'static [&'static str],
    /// Formatted rows.
    pub rows: Vec<Vec<String>>,
}

impl Csv {
    /// Write `results/<file>`.
    ///
    /// # Panics
    /// If the file cannot be written — an experiment binary has nothing
    /// useful to do without its artifact.
    pub fn write(&self) {
        write_csv(results_path(self.file), self.header, &self.rows)
            .unwrap_or_else(|e| panic!("write results/{}: {e}", self.file));
    }
}

/// Print an aligned console table.
pub fn print_table<T: Display>(title: &str, header: &[&str], rows: &[Vec<T>]) {
    println!("\n== {title} ==");
    let cells: Vec<Vec<String>> = rows
        .iter()
        .map(|r| r.iter().map(|c| c.to_string()).collect())
        .collect();
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in &cells {
        for (i, c) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(c.len());
            }
        }
    }
    let line: Vec<String> =
        header.iter().enumerate().map(|(i, h)| format!("{h:>w$}", w = widths[i])).collect();
    println!("{}", line.join("  "));
    for row in &cells {
        let line: Vec<String> = row
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{c:>w$}", w = widths.get(i).copied().unwrap_or(8)))
            .collect();
        println!("{}", line.join("  "));
    }
}

/// Column names matching [`fault_stats_row`].
pub const FAULT_STATS_HEADER: [&str; 6] =
    ["delivered", "dropped", "duplicated", "jittered", "to_crashed", "delivery_rate"];

/// Render the fault plane's counters as one row of CSV/table cells —
/// the single place the delivery-rate arithmetic is formatted, so
/// `fault_sweep` and any figure binary run with faults report
/// identically.
pub fn fault_stats_row(s: &FaultStats) -> Vec<String> {
    vec![
        s.delivered.to_string(),
        s.dropped.to_string(),
        s.duplicated.to_string(),
        s.jittered.to_string(),
        s.to_crashed.to_string(),
        format!("{:.4}", s.delivery_rate()),
    ]
}

/// Column names matching [`imbalance_row`].
pub const IMBALANCE_HEADER: [&str; 4] = ["max_load", "mean_load", "p99_load", "max_over_mean"];

/// Render a per-node load distribution's imbalance statistic
/// ([`qcache::imbalance`]) as one row of CSV/table cells — the single
/// place the hot-shard arithmetic is formatted, so `zipf_sweep` and
/// `fault_sweep` report it identically.
pub fn imbalance_row(loads: &[u64]) -> Vec<String> {
    let s = qcache::imbalance(loads);
    vec![
        format!("{:.0}", s.max),
        format!("{:.2}", s.mean),
        format!("{:.0}", s.p99),
        format!("{:.3}", s.ratio),
    ]
}

/// Column names matching [`class_traffic_rows`].
const CLASS_TRAFFIC_HEADER: [&str; 4] = ["class", "messages", "model_bytes", "hops"];

/// One row per message class that carried traffic — the single place
/// per-class tallies are formatted, shared by the examples and
/// `complexity_check --shard-csv` so every surface reports the
/// accounting model identically.
pub fn class_traffic_rows(m: &Metrics) -> Vec<Vec<String>> {
    ALL_CLASSES
        .iter()
        .filter(|&&c| m.messages_of(c) > 0)
        .map(|&c| {
            vec![
                format!("{c:?}"),
                m.messages_of(c).to_string(),
                m.bytes_of(c).to_string(),
                m.hops_of(c).to_string(),
            ]
        })
        .collect()
}

/// Print the per-class traffic tally as an aligned console table, with
/// a totals row.
pub fn print_class_traffic(title: &str, m: &Metrics) {
    let mut rows = class_traffic_rows(m);
    rows.push(vec![
        "total".to_string(),
        m.total_messages().to_string(),
        m.total_bytes().to_string(),
        m.total_hops().to_string(),
    ]);
    print_table(title, &CLASS_TRAFFIC_HEADER, &rows);
}

/// Column names matching [`region_pair_row`].
const REGION_PAIR_HEADER: [&str; 6] = ["pair", "msgs", "p50_us", "p95_us", "p99_us", "max_us"];

/// Render one region pair's latency histogram as a row of CSV/table
/// cells — the single place per-pair latency quantiles are formatted,
/// so `wan_sweep` (real region pairs) and `fault_sweep` (the degenerate
/// single `all->all` pair) report identically.
fn region_pair_row(pair: &str, h: &obs::Histogram) -> Vec<String> {
    vec![
        pair.to_string(),
        h.count().to_string(),
        h.p50().to_string(),
        h.p95().to_string(),
        h.p99().to_string(),
        h.max().to_string(),
    ]
}

/// Print a set of region-pair latency histograms as an aligned console
/// table, skipping empty pairs.
pub fn print_region_pairs(title: &str, pairs: &[(String, obs::Histogram)]) {
    let rows: Vec<Vec<String>> = pairs
        .iter()
        .filter(|(_, h)| !h.is_empty())
        .map(|(p, h)| region_pair_row(p, h))
        .collect();
    print_table(title, &REGION_PAIR_HEADER, &rows);
}

/// Least-squares slope of `log(y)` against `log(x)` — the growth
/// exponent used to classify linear vs sublinear vs superlinear series.
pub fn log_log_slope(points: &[(f64, f64)]) -> f64 {
    let pts: Vec<(f64, f64)> = points
        .iter()
        .filter(|(x, y)| *x > 0.0 && *y > 0.0)
        .map(|(x, y)| (x.ln(), y.ln()))
        .collect();
    let n = pts.len() as f64;
    assert!(n >= 2.0, "need at least two positive points");
    let sx: f64 = pts.iter().map(|p| p.0).sum();
    let sy: f64 = pts.iter().map(|p| p.1).sum();
    let sxx: f64 = pts.iter().map(|p| p.0 * p.0).sum();
    let sxy: f64 = pts.iter().map(|p| p.0 * p.1).sum();
    (n * sxy - sx * sy) / (n * sxx - sx * sx)
}

/// Gini coefficient of a load distribution (0 = perfectly balanced,
/// → 1 = one node carries everything). Fig. 8a's balance in one number.
pub fn gini(loads: &[u64]) -> f64 {
    if loads.is_empty() {
        return 0.0;
    }
    let mut v: Vec<f64> = loads.iter().map(|&x| x as f64).collect();
    v.sort_by(|a, b| a.partial_cmp(b).expect("loads are finite"));
    let n = v.len() as f64;
    let sum: f64 = v.iter().sum();
    if sum == 0.0 {
        return 0.0;
    }
    let weighted: f64 = v.iter().enumerate().map(|(i, x)| (i as f64 + 1.0) * x).sum();
    (2.0 * weighted) / (n * sum) - (n + 1.0) / n
}

/// Lorenz-style curve for Fig. 8a: nodes sorted by load **descending**,
/// returns `(node_fraction, load_fraction)` at each 1/steps increment —
/// "the load percentage for a given node percentage".
pub fn load_curve(loads: &[u64], steps: usize) -> Vec<(f64, f64)> {
    assert!(steps > 0);
    let mut v: Vec<u64> = loads.to_vec();
    v.sort_unstable_by(|a, b| b.cmp(a));
    let total: u64 = v.iter().sum();
    let n = v.len();
    let mut out = Vec::with_capacity(steps + 1);
    out.push((0.0, 0.0));
    let mut acc = 0u64;
    let mut idx = 0usize;
    for s in 1..=steps {
        let upto = (n * s).div_ceil(steps);
        while idx < upto && idx < n {
            acc += v[idx];
            idx += 1;
        }
        let xf = idx as f64 / n.max(1) as f64;
        let yf = if total == 0 { 0.0 } else { acc as f64 / total as f64 };
        out.push((xf, yf));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slope_of_linear_series_is_one() {
        let pts: Vec<(f64, f64)> = (1..=10).map(|i| (i as f64, 3.0 * i as f64)).collect();
        assert!((log_log_slope(&pts) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn slope_of_quadratic_series_is_two() {
        let pts: Vec<(f64, f64)> = (1..=10).map(|i| (i as f64, (i * i) as f64)).collect();
        assert!((log_log_slope(&pts) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn gini_extremes() {
        assert!(gini(&[5, 5, 5, 5]) < 1e-9, "uniform load is perfectly balanced");
        let concentrated = gini(&[0, 0, 0, 100]);
        assert!(concentrated > 0.7, "one hot node must score high, got {concentrated}");
        assert_eq!(gini(&[]), 0.0);
        assert_eq!(gini(&[0, 0]), 0.0);
    }

    #[test]
    fn gini_orders_balance_quality() {
        let even = gini(&[10, 10, 10, 10, 10, 10, 10, 10]);
        let mild = gini(&[16, 14, 12, 10, 8, 6, 4, 10]);
        let harsh = gini(&[70, 5, 5, 0, 0, 0, 0, 0]);
        assert!(even < mild && mild < harsh);
    }

    #[test]
    fn load_curve_monotone_and_normalized() {
        let c = load_curve(&[50, 30, 10, 10], 4);
        assert_eq!(c.first(), Some(&(0.0, 0.0)));
        assert_eq!(c.last(), Some(&(1.0, 1.0)));
        assert!(c.windows(2).all(|w| w[0].1 <= w[1].1 && w[0].0 <= w[1].0));
        // 25% of nodes (the hottest) carry 50% of the load.
        assert!((c[1].1 - 0.5).abs() < 1e-9);
    }

    #[test]
    fn fault_stats_row_matches_header() {
        let s = FaultStats { delivered: 90, dropped: 10, duplicated: 3, jittered: 7, to_crashed: 0 };
        let row = fault_stats_row(&s);
        assert_eq!(row.len(), FAULT_STATS_HEADER.len());
        assert_eq!(row[0], "90");
        assert_eq!(row[5], "0.9000");
    }

    #[test]
    fn imbalance_row_matches_header() {
        let row = imbalance_row(&[10, 10, 40, 20]);
        assert_eq!(row.len(), IMBALANCE_HEADER.len());
        assert_eq!(row[0], "40");
        assert_eq!(row[1], "20.00");
        assert_eq!(row[3], "2.000");
    }

    #[test]
    fn region_pair_row_matches_header() {
        let mut h = obs::Histogram::new();
        h.record(10);
        h.record(20);
        let row = region_pair_row("eu->us", &h);
        assert_eq!(row.len(), REGION_PAIR_HEADER.len());
        assert_eq!(row[0], "eu->us");
        assert_eq!(row[1], "2");
        assert_eq!(row[5], "20");
    }

    #[test]
    fn csv_roundtrip() {
        let dir = std::env::temp_dir().join("peertrack-report-test");
        let path = dir.join("t.csv");
        write_csv(&path, &["a", "b"], &[vec!["1".into(), "2".into()]]).unwrap();
        let body = std::fs::read_to_string(&path).unwrap();
        assert_eq!(body, "a,b\n1,2\n");
        std::fs::remove_dir_all(&dir).ok();
    }
}
