//! The centralized baseline: a data warehouse built on the temporal RFID
//! model of Wang & Liu (VLDB'05) — the paper's reference \[31\].
//!
//! §V-B: "we used the model proposed in \[31\] to build the same data in a
//! centralized MySQL database". Every organization publishes its
//! observations to one warehouse; traceability queries run as temporal
//! SQL over `STAY(epc, location, t_start, t_end)` — coalesced stays, the
//! temporal table \[31\] derives from the raw `OBSERVATION(epc, reader,
//! time)` log. No query reads the raw log, so it is not kept.
//!
//! [`Warehouse`] implements the table with real data structures and
//! answers `L`/`TR` correctly (it implements the MOODS traits). Query
//! *timing* follows an explicit, calibrated cost model
//! ([`CostModel`]): the paper measured that centralized trace-query time
//! "is relevant to the size of the database, which is proportional to
//! the size of the network" and grows *ultralinearly* (§V-B, Fig. 7) —
//! the behaviour of temporal self-joins that scan and sort. We charge
//! `base + per_row·rows·log₂(rows)`, the standard sort-scan cost, which
//! reproduces exactly that shape. An `IndexSeek` plan is also provided
//! for ablations (what a perfectly indexed warehouse could do — useful
//! to show the paper's comparison is against its measured baseline, not
//! an information-theoretic optimum).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use moods::{Locate, ObjectId, Path, SiteId, Trace, Visit};
use simnet::SimTime;
use std::collections::HashMap;

/// One row of the `STAY` temporal table: a coalesced stay interval.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StayRow {
    /// The object.
    pub object: ObjectId,
    /// The location of the stay.
    pub site: SiteId,
    /// Interval start (arrival).
    pub t_start: SimTime,
    /// Interval end — `None` while the stay is open (current location).
    pub t_end: Option<SimTime>,
}

/// Query-execution plan, for cost accounting.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Plan {
    /// The measured baseline: temporal self-join that scans and sorts
    /// the stay table (cost `Θ(R log R)` in the table size `R`) — the
    /// ultralinear growth of Fig. 7.
    FullScan,
    /// Ablation: a clustered index on `epc` (cost `Θ(log R + k)` for a
    /// k-row answer).
    IndexSeek,
}

/// Calibrated cost model for warehouse queries.
///
/// Defaults are tuned so that, at the paper's scales (64–512 nodes ×
/// 500–5 000 objects), the centralized curve starts below the P2P curve
/// and overtakes it as the database grows — the crossover §V-B reports.
#[derive(Clone, Copy, Debug)]
pub struct CostModel {
    /// Fixed per-query overhead (parse, plan, client round-trip).
    pub base: SimTime,
    /// Nanoseconds charged per row·log₂(row) unit under [`Plan::FullScan`].
    pub per_row_log_ns: f64,
    /// Nanoseconds per B-tree level / fetched row under [`Plan::IndexSeek`].
    pub per_seek_ns: f64,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            base: SimTime::from_millis(5), // one client↔server round trip
            per_row_log_ns: 2.4,
            per_seek_ns: 600.0,
        }
    }
}

impl CostModel {
    /// Time for one trace/locate query over a table of `rows` rows
    /// returning `answer_rows`.
    pub fn query_time(&self, plan: Plan, rows: usize, answer_rows: usize) -> SimTime {
        let ns = match plan {
            Plan::FullScan => {
                let r = rows.max(2) as f64;
                self.per_row_log_ns * r * r.log2()
            }
            Plan::IndexSeek => {
                let levels = (rows.max(2) as f64).log2().ceil();
                self.per_seek_ns * (levels + answer_rows as f64)
            }
        };
        self.base + SimTime::from_micros((ns / 1_000.0) as u64)
    }
}

/// The central data warehouse.
#[derive(Clone, Debug)]
pub struct Warehouse {
    /// Stay intervals per object, arrival-ordered (the clustered index).
    stays: HashMap<ObjectId, Vec<StayRow>>,
    stay_rows: usize,
    cost: CostModel,
    plan: Plan,
}

impl Default for Warehouse {
    fn default() -> Self {
        Warehouse::new()
    }
}

impl Warehouse {
    /// Empty warehouse with the default cost model and the measured
    /// (`FullScan`) plan.
    pub fn new() -> Warehouse {
        Warehouse::with_model(CostModel::default(), Plan::FullScan)
    }

    /// Warehouse with an explicit cost model and plan.
    pub fn with_model(cost: CostModel, plan: Plan) -> Warehouse {
        Warehouse {
            stays: HashMap::new(),
            stay_rows: 0,
            cost,
            plan,
        }
    }

    /// Ingest one observation: maintain the `STAY` table as \[31\]
    /// prescribes (close the open stay, open a new one).
    pub fn ingest(&mut self, object: ObjectId, site: SiteId, time: SimTime) {
        let stays = self.stays.entry(object).or_default();
        if let Some(last) = stays.last_mut() {
            debug_assert!(time >= last.t_start, "out-of-order ingest");
            if last.site == site && last.t_end.is_none() {
                return; // re-read at the same location: stay continues
            }
            if last.t_end.is_none() {
                last.t_end = Some(time);
            }
        }
        stays.push(StayRow { object, site, t_start: time, t_end: None });
        self.stay_rows += 1;
    }

    /// Rows in the `STAY` table (what queries scan).
    pub fn stay_rows(&self) -> usize {
        self.stay_rows
    }

    /// `TR(o, t0, t1)` with the charged query time.
    pub fn trace_timed(&self, object: ObjectId, t0: SimTime, t1: SimTime) -> (Path, SimTime) {
        let p = self.trace(object, t0, t1);
        let t = self.cost.query_time(self.plan, self.stay_rows, p.len());
        (p, t)
    }
}

impl Locate for Warehouse {
    fn locate(&self, object: ObjectId, t: SimTime) -> Option<SiteId> {
        let stays = self.stays.get(&object)?;
        let idx = stays.partition_point(|s| s.t_start <= t);
        if idx == 0 {
            None
        } else {
            Some(stays[idx - 1].site)
        }
    }
}

impl Trace for Warehouse {
    fn trace(&self, object: ObjectId, t0: SimTime, t1: SimTime) -> Path {
        if t0 > t1 {
            return Vec::new();
        }
        let Some(stays) = self.stays.get(&object) else {
            return Vec::new();
        };
        stays
            .iter()
            .map(|s| Visit { site: s.site, arrived: s.t_start, departed: s.t_end })
            .filter(|v| v.overlaps(t0, t1))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use moods::MovementLog;
    use proptiny::prelude::*;
    use detrand::{rngs::StdRng, Rng, SeedableRng};
    use simnet::time::{ms, secs};

    fn obj(n: u64) -> ObjectId {
        ObjectId::from_raw(&n.to_be_bytes())
    }

    #[test]
    fn stays_coalesce_rereads() {
        let mut w = Warehouse::new();
        w.ingest(obj(1), SiteId(0), ms(10));
        w.ingest(obj(1), SiteId(0), ms(20)); // re-read, same dock
        w.ingest(obj(1), SiteId(1), ms(30));
        assert_eq!(w.stay_rows(), 2, "re-reads coalesce into one stay");
        let p = w.trace(obj(1), SimTime::ZERO, SimTime::INFINITY);
        assert_eq!(p.len(), 2);
        assert_eq!(p[0].departed, Some(ms(30)));
        assert_eq!(p[1].departed, None);
    }

    #[test]
    fn locate_matches_interval_semantics() {
        let mut w = Warehouse::new();
        w.ingest(obj(1), SiteId(0), ms(10));
        w.ingest(obj(1), SiteId(1), ms(20));
        assert_eq!(w.locate(obj(1), ms(9)), None);
        assert_eq!(w.locate(obj(1), ms(10)), Some(SiteId(0)));
        assert_eq!(w.locate(obj(1), ms(19)), Some(SiteId(0)));
        assert_eq!(w.locate(obj(1), ms(20)), Some(SiteId(1)));
        assert_eq!(w.locate(obj(2), ms(20)), None);
    }

    #[test]
    fn fullscan_cost_is_superlinear() {
        let m = CostModel::default();
        let t1 = m.query_time(Plan::FullScan, 100_000, 10).as_micros() as f64;
        let t2 = m.query_time(Plan::FullScan, 200_000, 10).as_micros() as f64;
        assert!(t2 > 2.0 * (t1 - 5_000.0) + 5_000.0 - 1.0, "doubling rows must more than double work");
        // And the base dominates tiny tables.
        assert_eq!(m.query_time(Plan::FullScan, 0, 0).as_millis(), 5);
    }

    #[test]
    fn index_seek_is_logarithmic() {
        let m = CostModel::default();
        let t_small = m.query_time(Plan::IndexSeek, 1_000, 10);
        let t_big = m.query_time(Plan::IndexSeek, 1_000_000, 10);
        // 1000× more rows adds only ~10 levels of B-tree.
        assert!(t_big.as_micros() - t_small.as_micros() < 20);
    }

    #[test]
    fn paper_scale_crossover_exists() {
        // At 64 nodes × 5000 objects the warehouse must beat a ~75 ms
        // P2P query; at 512 × 5000 it must lose (Fig. 7a).
        let m = CostModel::default();
        let p2p_typical = ms(75);
        let small = m.query_time(Plan::FullScan, 64 * 5_000, 10);
        let large = m.query_time(Plan::FullScan, 512 * 5_000, 10);
        assert!(small < p2p_typical, "centralized should win small: {small}");
        assert!(large > p2p_typical, "centralized should lose large: {large}");
    }

    #[test]
    fn timed_queries_report_model_time() {
        let mut w = Warehouse::new();
        for i in 0..100u64 {
            w.ingest(obj(i), SiteId((i % 7) as u32), ms(i));
        }
        let (p, t) = w.trace_timed(obj(5), SimTime::ZERO, SimTime::INFINITY);
        assert_eq!(p.len(), 1);
        assert_eq!(t, w.cost.query_time(Plan::FullScan, w.stay_rows(), 1));
    }

    proptiny! {
        /// The warehouse agrees with the MOODS oracle on arbitrary
        /// schedules (both are "centralized", but they maintain
        /// different tables — coalesced stays vs raw arrivals).
        #[test]
        fn prop_agrees_with_movement_log(
            seed in any::<u64>(),
            n_moves in 1usize..60,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut w = Warehouse::new();
            let mut log = MovementLog::new();
            let mut t = 0u64;
            let mut last_site: Option<SiteId> = None;
            for _ in 0..n_moves {
                t += rng.gen_range(1u64..100);
                // Avoid consecutive same-site arrivals: the warehouse
                // coalesces them (a DB property the raw log lacks).
                let mut site = SiteId(rng.gen_range(0..8));
                if last_site == Some(site) {
                    site = SiteId((site.0 + 1) % 8);
                }
                last_site = Some(site);
                w.ingest(obj(1), site, secs(t));
                log.record(obj(1), site, secs(t));
            }
            for probe in (0..t + 100).step_by(13) {
                prop_assert_eq!(
                    w.locate(obj(1), secs(probe)),
                    log.locate(obj(1), secs(probe))
                );
            }
            prop_assert_eq!(
                w.trace(obj(1), SimTime::ZERO, SimTime::INFINITY),
                log.trace(obj(1), SimTime::ZERO, SimTime::INFINITY)
            );
        }
    }
}
