//! E1/E2 — Fig. 6: scalability of indexing.
//!
//! Fig. 6a sweeps data volume (500·i objects per node, i = 1..10) on a
//! 512-node *dynamic* network (nodes join mid-run) and compares the
//! individual and group indexing algorithms. Fig. 6b fixes 5 000
//! objects/node and sweeps the network size over {64, 128, 256, 512}
//! with three series: individual indexing, group indexing with grouped
//! movement, and group indexing with individual movement.

use crate::report::Csv;
use crate::{experiment_group_mode, parallel_sweep, Scale};
use peertrack::{Builder, IndexingMode};
use simnet::time::secs;
use workload::paper::PaperWorkload;

/// One measured sweep point.
#[derive(Clone, Debug)]
pub struct IndexingPoint {
    /// Network size.
    pub nn: usize,
    /// Objects generated per node.
    pub objects_per_node: usize,
    /// Series label.
    pub series: String,
    /// Indexing cost in messages (§V-A's metric).
    pub messages: u64,
    /// Indexing cost in payload bytes ("total volume of messages").
    pub bytes: u64,
    /// Indexing cost in hop-transmissions (each message once per overlay
    /// hop crossed — the §IV-C routing-cost view).
    pub hops: u64,
    /// The `Lp` in effect at the end of the run (0 for individual).
    pub lp: usize,
}

/// Run one indexing experiment: build the network, replay the §V
/// workload, optionally churn `joins` nodes in mid-run (Fig. 6a's
/// "dynamic network"), and report the indexing cost.
pub fn run_indexing(
    nn: usize,
    objects_per_node: usize,
    mode: IndexingMode,
    grouped_movement: bool,
    joins: usize,
    seed: u64,
) -> IndexingPoint {
    let mut net = Builder::new().sites(nn).seed(seed).mode(mode).build();
    let wl = PaperWorkload {
        sites: nn,
        objects_per_site: objects_per_node,
        grouped_movement,
        seed,
        ..PaperWorkload::default()
    };
    for ev in wl.generate() {
        net.schedule_capture(ev.at, ev.site, ev.objects);
    }

    if joins > 0 {
        // Dynamic network: process the opening of the inventory wave,
        // then admit new organizations. Note that `join_site` drains the
        // event queue (handoff must complete before control returns), so
        // the first join also finishes indexing the scheduled workload;
        // the joins' split/merge migrations are part of the measured
        // indexing cost either way.
        net.run_until(wl.start + secs(60));
        for _ in 0..joins {
            net.join_site();
        }
    }
    net.run_until_quiescent();

    let series = match (mode, grouped_movement) {
        (IndexingMode::Individual, _) => "individual".to_string(),
        (IndexingMode::Group(_), true) => "group (movement in group)".to_string(),
        (IndexingMode::Group(_), false) => "group (movement individually)".to_string(),
    };
    let m = net.metrics();
    IndexingPoint {
        nn: net.live_sites(),
        objects_per_node,
        series,
        messages: m.indexing_messages(),
        bytes: m.indexing_bytes(),
        hops: m.indexing_hops(),
        lp: net.current_lp(),
    }
}

/// Fig. 6a: 512 nodes (scaled), data volume 500·i for i in 1..=10
/// (scaled), dynamic network (8 joins mid-run), individual vs group.
pub fn fig6a(scale: Scale) -> Vec<IndexingPoint> {
    let nn = scale.nodes(512);
    let volumes: Vec<usize> = (1..=10).map(|i| scale.objects(500 * i)).collect();
    let mut jobs = Vec::new();
    for &v in &volumes {
        jobs.push((v, IndexingMode::Individual));
        jobs.push((v, experiment_group_mode()));
    }
    parallel_sweep(jobs, |&(v, mode)| run_indexing(nn, v, mode, true, 8, 42))
}

/// Fig. 6b: 5 000 objects/node (scaled), network size sweep, three
/// series.
pub fn fig6b(scale: Scale) -> Vec<IndexingPoint> {
    let vol = scale.objects(5_000);
    let sizes: Vec<usize> = [64usize, 128, 256, 512].iter().map(|&n| scale.nodes(n)).collect();
    let mut jobs = Vec::new();
    for &n in &sizes {
        jobs.push((n, IndexingMode::Individual, true));
        jobs.push((n, experiment_group_mode(), true));
        jobs.push((n, experiment_group_mode(), false));
    }
    parallel_sweep(jobs, |&(n, mode, grouped)| run_indexing(n, vol, mode, grouped, 0, 42))
}

/// The two Fig. 6 CSVs share their columns; each leads with the
/// variable it sweeps.
fn indexing_csv(
    file: &'static str,
    header: &'static [&'static str],
    points: &[IndexingPoint],
    by_volume: bool,
) -> Csv {
    let rows = points
        .iter()
        .map(|p| {
            let (vol, nn) = (p.objects_per_node.to_string(), p.nn.to_string());
            let (first, second) = if by_volume { (vol, nn) } else { (nn, vol) };
            vec![
                p.series.clone(),
                first,
                second,
                p.lp.to_string(),
                p.messages.to_string(),
                p.bytes.to_string(),
            ]
        })
        .collect();
    Csv { file, header, rows }
}

/// `results/fig6a.csv`.
pub fn fig6a_csv(points: &[IndexingPoint]) -> Csv {
    let header = &["series", "objects_per_node", "nn", "lp", "messages", "bytes"];
    indexing_csv("fig6a.csv", header, points, true)
}

/// `results/fig6b.csv`.
pub fn fig6b_csv(points: &[IndexingPoint]) -> Csv {
    let header = &["series", "nn", "objects_per_node", "lp", "messages", "bytes"];
    indexing_csv("fig6b.csv", header, points, false)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn group_beats_individual_at_high_volume() {
        // The Fig. 6a headline at miniature scale. The separation factor
        // is governed by window occupancy No/2^Lp (see EXPERIMENTS.md):
        // at 32 nodes Scheme 2 gives Lp=8 (256 groups), so 2 000 objects
        // per window load each group with ~8 objects and the group
        // algorithm collapses thousands of arrival reports into a few
        // hundred group messages.
        let ind = run_indexing(32, 2_000, IndexingMode::Individual, true, 0, 7);
        let grp = run_indexing(32, 2_000, IndexingMode::group_default(), true, 0, 7);
        assert!(
            grp.messages * 2 < ind.messages,
            "group {} should be well under individual {}",
            grp.messages,
            ind.messages
        );
        assert!(grp.bytes < ind.bytes, "volume should shrink too");
    }

    #[test]
    fn costs_are_near_parity_at_low_volume() {
        // Fig. 6a: "when the data volume is not high ... the group
        // indexing algorithm costs almost the same as the individual".
        // With ~1 object per group the ratio approaches 1 (group still
        // saves a little via batched IOP updates).
        let ind = run_indexing(32, 8, IndexingMode::Individual, true, 0, 7);
        let grp = run_indexing(32, 8, IndexingMode::group_default(), true, 0, 7);
        let ratio = grp.messages as f64 / ind.messages as f64;
        assert!(ratio > 0.4 && ratio <= 1.1, "low-volume ratio {ratio}");
    }

    #[test]
    fn dynamic_network_still_counts_split_traffic() {
        let with_churn = run_indexing(16, 50, IndexingMode::group_default(), true, 6, 9);
        assert!(with_churn.nn == 22, "6 joins over 16 sites");
        assert!(with_churn.messages > 0);
    }

    #[test]
    fn grouped_movement_cheaper_than_individual_movement() {
        // Fig. 6b: "the indexing costs less when the objects move in
        // groups".
        let grouped = run_indexing(32, 300, IndexingMode::group_default(), true, 0, 11);
        let individual = run_indexing(32, 300, IndexingMode::group_default(), false, 0, 11);
        assert!(
            grouped.messages < individual.messages,
            "grouped {} !< individual-movement {}",
            grouped.messages,
            individual.messages
        );
    }
}
