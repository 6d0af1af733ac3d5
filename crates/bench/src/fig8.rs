//! E5/E6 — Fig. 8: the effect of the prefix length `Lp`.
//!
//! Three schemes (§V-C): `Lp = log₂Nn`, `log₂Nn + log₂log₂Nn` (the
//! paper's choice), and `2·log₂Nn`. Fig. 8a shows load-balance curves
//! (load % carried by the hottest x % of nodes); Fig. 8b shows the
//! indexing cost (log₂ of messages) as the network grows.

use crate::report::{gini, load_curve, Csv};
use crate::{parallel_sweep, Scale};
use peertrack::{Builder, GroupConfig, IndexingMode, PrefixScheme};
use workload::paper::PaperWorkload;

/// All three §V-C schemes, in figure order.
pub const SCHEMES: [PrefixScheme; 3] =
    [PrefixScheme::Scheme1, PrefixScheme::Scheme2, PrefixScheme::Scheme3];

/// Load-balance measurement for one scheme (Fig. 8a).
#[derive(Clone, Debug)]
pub struct BalancePoint {
    /// The scheme measured.
    pub scheme: PrefixScheme,
    /// `(node fraction, load fraction)` curve, hottest nodes first.
    pub curve: Vec<(f64, f64)>,
    /// Gini coefficient of the load distribution.
    pub gini: f64,
    /// `Lp` in effect.
    pub lp: usize,
    /// Fraction of nodes that index at least one group (the paper's δ).
    pub delta_observed: f64,
}

/// Indexing-cost measurement for one (scheme, network size) pair
/// (Fig. 8b).
#[derive(Clone, Debug)]
pub struct SchemeCostPoint {
    /// The scheme measured.
    pub scheme: PrefixScheme,
    /// Network size.
    pub nn: usize,
    /// Indexing messages.
    pub messages: u64,
    /// `log₂(messages)` — the figure's y axis.
    pub log2_messages: f64,
    /// `Lp` in effect.
    pub lp: usize,
}

fn group_mode_with(scheme: PrefixScheme) -> IndexingMode {
    // Same window regime as experiment_group_mode(), with the scheme
    // under test.
    IndexingMode::Group(GroupConfig { scheme, n_max: 100_000, ..GroupConfig::default() })
}

fn run_with_scheme(scheme: PrefixScheme, nn: usize, vol: usize, seed: u64) -> (Vec<u64>, u64, usize) {
    let mut net = Builder::new().sites(nn).seed(seed).mode(group_mode_with(scheme)).build();
    let wl = PaperWorkload { sites: nn, objects_per_site: vol, seed, ..PaperWorkload::default() };
    for ev in wl.generate() {
        net.schedule_capture(ev.at, ev.site, ev.objects);
    }
    net.run_until_quiescent();
    let loads = net.load_distribution();
    let messages = net.metrics().indexing_messages();
    (loads, messages, net.current_lp())
}

/// Fig. 8a: load balance at 512 nodes × 5 000 objects/node (scaled).
pub fn fig8a(scale: Scale) -> Vec<BalancePoint> {
    let nn = scale.nodes(512);
    let vol = scale.objects(5_000);
    parallel_sweep(SCHEMES.to_vec(), |&scheme| {
        let (loads, _msgs, lp) = run_with_scheme(scheme, nn, vol, 42);
        let busy = loads.iter().filter(|&&l| l > 0).count();
        BalancePoint {
            scheme,
            curve: load_curve(&loads, 20),
            gini: gini(&loads),
            lp,
            delta_observed: busy as f64 / loads.len() as f64,
        }
    })
}

/// Fig. 8b: indexing cost per scheme across network sizes (5 000
/// objects/node, scaled).
pub fn fig8b(scale: Scale) -> Vec<SchemeCostPoint> {
    let vol = scale.objects(5_000);
    let sizes: Vec<usize> = [64usize, 128, 256, 512].iter().map(|&n| scale.nodes(n)).collect();
    let mut jobs = Vec::new();
    for &scheme in &SCHEMES {
        for &n in &sizes {
            jobs.push((scheme, n));
        }
    }
    parallel_sweep(jobs, |&(scheme, n)| {
        let (_loads, messages, lp) = run_with_scheme(scheme, n, vol, 42);
        SchemeCostPoint {
            scheme,
            nn: n,
            messages,
            log2_messages: (messages.max(1) as f64).log2(),
            lp,
        }
    })
}

/// `results/fig8a.csv`: the full Lorenz-style curves.
pub fn fig8a_csv(points: &[BalancePoint]) -> Csv {
    let mut rows = Vec::new();
    for p in points {
        for (xf, yf) in &p.curve {
            rows.push(vec![
                p.scheme.label(),
                p.lp.to_string(),
                format!("{xf:.3}"),
                format!("{yf:.3}"),
            ]);
        }
    }
    Csv { file: "fig8a.csv", header: &["scheme", "lp", "node_fraction", "load_fraction"], rows }
}

/// Columns of [`balance_summary`].
pub const BALANCE_SUMMARY_HEADER: [&str; 4] = ["scheme", "lp", "gini", "delta_observed"];

/// One console row per scheme: the scalar view of Fig. 8a (the CSV
/// holds the curves).
pub fn balance_summary(points: &[BalancePoint]) -> Vec<Vec<String>> {
    points
        .iter()
        .map(|p| {
            vec![
                p.scheme.label(),
                p.lp.to_string(),
                format!("{:.4}", p.gini),
                format!("{:.3}", p.delta_observed),
            ]
        })
        .collect()
}

/// `results/fig8b.csv`.
pub fn fig8b_csv(points: &[SchemeCostPoint]) -> Csv {
    let rows = points
        .iter()
        .map(|p| {
            vec![
                p.scheme.label(),
                p.nn.to_string(),
                p.lp.to_string(),
                p.messages.to_string(),
                format!("{:.2}", p.log2_messages),
            ]
        })
        .collect();
    Csv { file: "fig8b.csv", header: &["scheme", "nn", "lp", "messages", "log2_messages"], rows }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scheme_ordering_of_balance_and_cost() {
        // Miniature Fig. 8: balance improves 1 → 2 → 3 while cost rises.
        let nn = 48;
        let vol = 200;
        let results: Vec<_> = SCHEMES
            .iter()
            .map(|&s| {
                let (loads, msgs, lp) = run_with_scheme(s, nn, vol, 13);
                (gini(&loads), msgs, lp)
            })
            .collect();
        let (g1, m1, l1) = results[0];
        let (g2, m2, l2) = results[1];
        let (g3, m3, l3) = results[2];
        assert!(l1 <= l2 && l2 <= l3, "Lp must be ordered: {l1} {l2} {l3}");
        assert!(g1 >= g2 && g2 >= g3, "balance must improve with Lp: {g1:.3} {g2:.3} {g3:.3}");
        assert!(m1 <= m2 && m2 <= m3, "cost must grow with Lp: {m1} {m2} {m3}");
    }

    #[test]
    fn scheme2_delta_is_high() {
        // Eq. 5/6: with Scheme 2, almost every node indexes something.
        let points = fig8a(Scale::Quick);
        let s2 = points.iter().find(|p| p.scheme == PrefixScheme::Scheme2).unwrap();
        assert!(s2.delta_observed > 0.9, "observed δ = {}", s2.delta_observed);
        // And it beats Scheme 1 substantially.
        let s1 = points.iter().find(|p| p.scheme == PrefixScheme::Scheme1).unwrap();
        assert!(s1.delta_observed < s2.delta_observed);
    }
}
