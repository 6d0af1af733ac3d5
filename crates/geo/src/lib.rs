//! **geo** — deterministic WAN region topology for the PeerTrack
//! harnesses.
//!
//! The paper's workload — EPC-tagged objects moving through
//! manufacturer → port → distributor supply chains — spans continents,
//! but the simulator's baseline latency model charges the same 5 ms per
//! overlay hop regardless of where the endpoints sit. This crate
//! supplies the missing geography as plain data, shared by **both**
//! execution paths:
//!
//! * [`Topology`] — a region label per site plus per-region-pair base
//!   latency / jitter-bound / bandwidth matrices, all in integer
//!   microseconds so every consumer derives identical delays;
//! * [`clustered_id`] — the proximity-aware placement policy: the
//!   chord identifier space is split into one contiguous arc per
//!   region and a site's id is forced into its region's arc, so
//!   successor sets (replication fan-out, group-index flushes) stay
//!   intra-region without touching the protocol;
//! * [`GeoStats`] — per-region-pair message/byte counters with
//!   intra/cross roll-ups, filled in by whichever plane consumes the
//!   topology (`simnet`'s geo plane, or a bench reading query costs).
//!
//! The crate is deliberately inert: no RNG, no clock, no I/O. Seeded
//! jitter is drawn by the *consumer* (e.g. `simnet::geo::GeoPlane`)
//! from its own `detrand` RNG so a zero-jitter topology provably takes
//! zero draws — the property behind the byte-identity gate that a
//! single-region zero-latency topology reproduces the pre-geo runs
//! exactly.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use ids::Id;

/// Region label (dense, `0..regions`).
pub type RegionId = u16;

/// A deterministic WAN topology: who sits where, and what the wire
/// between any two regions costs.
///
/// All costs are **one-way microseconds**. The matrices are indexed
/// `[from_region * regions + to_region]` and are not required to be
/// symmetric (real WAN paths aren't), though the presets are.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Topology {
    site_region: Vec<RegionId>,
    regions: usize,
    names: Vec<String>,
    /// Base one-way latency per region pair, µs.
    latency_us: Vec<u64>,
    /// Upper bound on uniformly-drawn extra delay per region pair, µs.
    /// Zero disables the consumer's jitter draw for that pair.
    jitter_us: Vec<u64>,
    /// Serialization cost per KiB per region pair, µs (bandwidth term).
    per_kib_us: Vec<u64>,
}

impl Topology {
    /// Build a topology from explicit matrices. Panics if the matrix
    /// sizes don't match `names.len()²` or a site label is out of
    /// range.
    pub fn new(
        site_region: Vec<RegionId>,
        names: Vec<String>,
        latency_us: Vec<u64>,
        jitter_us: Vec<u64>,
        per_kib_us: Vec<u64>,
    ) -> Topology {
        let regions = names.len();
        assert!(regions > 0, "a topology needs at least one region");
        assert!(regions <= RegionId::MAX as usize + 1, "too many regions");
        assert!(!site_region.is_empty(), "a topology needs at least one site");
        assert_eq!(latency_us.len(), regions * regions, "latency matrix size");
        assert_eq!(jitter_us.len(), regions * regions, "jitter matrix size");
        assert_eq!(per_kib_us.len(), regions * regions, "bandwidth matrix size");
        for &r in &site_region {
            assert!((r as usize) < regions, "site region label out of range");
        }
        Topology { site_region, regions, names, latency_us, jitter_us, per_kib_us }
    }

    /// The degenerate single-region topology: every wire is free. A run
    /// with this topology installed is byte-identical to a run with no
    /// topology at all (the consumer takes no RNG draws and adds zero
    /// delay) — the property the byte-identity gate checks.
    pub fn single_region(sites: usize) -> Topology {
        Topology::new(vec![0; sites], vec!["all".into()], vec![0], vec![0], vec![0])
    }

    /// The canonical three-region WAN preset (`eu`, `us`, `ap`), sites
    /// assigned in contiguous blocks. One-way base latencies: 2 ms
    /// intra-region, 45 ms eu↔us, 75 ms us↔ap, 120 ms eu↔ap; jitter
    /// bound 10% of base; 50 µs/KiB intra, 150 µs/KiB cross.
    pub fn wan3(sites: usize) -> Topology {
        const MS: u64 = 1_000;
        let base = [
            2 * MS, 45 * MS, 120 * MS, //
            45 * MS, 2 * MS, 75 * MS, //
            120 * MS, 75 * MS, 2 * MS,
        ];
        let jitter: Vec<u64> = base.iter().map(|&b| b / 10).collect();
        let bw: Vec<u64> =
            (0..9).map(|i| if i % 4 == 0 { 50 } else { 150 }).collect();
        Topology::new(
            contiguous_regions(sites, 3),
            vec!["eu".into(), "us".into(), "ap".into()],
            base.to_vec(),
            jitter,
            bw,
        )
    }

    /// Number of regions.
    pub fn regions(&self) -> usize {
        self.regions
    }

    /// Number of sites the topology was built for. Sites beyond this
    /// count (late joiners) wrap around deterministically — see
    /// [`Topology::region_of`].
    pub fn sites(&self) -> usize {
        self.site_region.len()
    }

    /// Region name, for reports.
    pub fn region_name(&self, r: RegionId) -> &str {
        &self.names[r as usize]
    }

    /// Label for a directed region pair, e.g. `eu->us`.
    pub fn pair_name(&self, from: RegionId, to: RegionId) -> String {
        format!("{}->{}", self.region_name(from), self.region_name(to))
    }

    /// The region of `site`. Sites past the original assignment (nodes
    /// that join later) cycle through the table so membership churn
    /// never needs a topology rebuild.
    pub fn region_of(&self, site: usize) -> RegionId {
        self.site_region[site % self.site_region.len()]
    }

    /// Jitter bound between two regions, µs (0 = no draw).
    pub fn jitter_bound_us(&self, from: RegionId, to: RegionId) -> u64 {
        self.jitter_us[from as usize * self.regions + to as usize]
    }

    /// Deterministic wire cost of moving `bytes` from one region to the
    /// other, µs: base latency plus the bandwidth term. No jitter —
    /// that is the consumer's (seeded) business.
    pub fn wire_us(&self, from: RegionId, to: RegionId, bytes: usize) -> u64 {
        let idx = from as usize * self.regions + to as usize;
        self.latency_us[idx] + (bytes as u64 * self.per_kib_us[idx]) / 1024
    }

    /// Do two sites sit in different regions?
    pub fn is_cross(&self, a: usize, b: usize) -> bool {
        self.region_of(a) != self.region_of(b)
    }

    /// Is every matrix entry zero? A zero topology is contractually a
    /// no-op for every consumer.
    pub fn is_zero(&self) -> bool {
        self.latency_us.iter().all(|&v| v == 0)
            && self.jitter_us.iter().all(|&v| v == 0)
            && self.per_kib_us.iter().all(|&v| v == 0)
    }
}

/// Contiguous-block region assignment: `sites` split into `regions`
/// near-equal blocks (`[0,n/r)` → region 0, and so on). The remainder
/// goes to the earlier regions, matching how a supply chain clusters
/// its densest tier.
pub fn contiguous_regions(sites: usize, regions: usize) -> Vec<RegionId> {
    assert!(regions > 0 && regions <= sites, "need 1..=sites regions");
    (0..sites)
        .map(|i| ((i * regions) / sites) as RegionId)
        .collect()
}

/// Proximity-aware placement: force `raw` (a uniformly-hashed chord
/// id) into region `r`'s arc of the identifier space.
///
/// The 160-bit space is cut into `regions` contiguous arcs by the top
/// 16 bits (arc `r` covers `[floor(r·2¹⁶/R), floor((r+1)·2¹⁶/R))`);
/// the id keeps its low 144 bits — so within an arc, placement stays
/// hash-uniform — and its top 16 bits are remapped into the arc. With
/// every site of a region in one arc, a site's K successors (its
/// replica set and flush fan-out) are same-region except at the arc
/// seam, which is exactly the "prefer same-region successors" policy
/// with zero protocol changes.
pub fn clustered_id(raw: Id, r: RegionId, regions: usize) -> Id {
    assert!(regions > 0 && (r as usize) < regions, "region out of range");
    let lo = ((r as u64 * 65_536) / regions as u64) as u32;
    let hi = (((r as u64 + 1) * 65_536) / regions as u64) as u32;
    let span = hi - lo; // ≥ 1 because regions ≤ 2¹⁶
    let raw_top = ((raw.0[0] as u32) << 8) | raw.0[1] as u32;
    let top = lo + raw_top % span;
    let mut out = raw;
    out.0[0] = (top >> 8) as u8;
    out.0[1] = (top & 0xFF) as u8;
    out
}

/// The region arc (as a top-16-bit range `[lo, hi)`) that
/// [`clustered_id`] maps region `r` into.
pub fn region_arc(r: RegionId, regions: usize) -> (u32, u32) {
    let lo = ((r as u64 * 65_536) / regions as u64) as u32;
    let hi = (((r as u64 + 1) * 65_536) / regions as u64) as u32;
    (lo, hi)
}

/// Per-region-pair traffic counters. Filled in by whichever plane
/// consumes the topology; merged and rolled up by the benches.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct GeoStats {
    regions: usize,
    msgs: Vec<u64>,
    bytes: Vec<u64>,
}

impl GeoStats {
    /// Zeroed counters for `regions` regions.
    pub fn new(regions: usize) -> GeoStats {
        GeoStats { regions, msgs: vec![0; regions * regions], bytes: vec![0; regions * regions] }
    }

    /// Count one message of `bytes` from region `from` to region `to`.
    pub fn record(&mut self, from: RegionId, to: RegionId, bytes: usize) {
        let idx = from as usize * self.regions + to as usize;
        self.msgs[idx] += 1;
        self.bytes[idx] += bytes as u64;
    }

    /// Number of regions the counters cover.
    pub fn regions(&self) -> usize {
        self.regions
    }

    /// Messages sent from region `from` to region `to`.
    pub fn msgs(&self, from: RegionId, to: RegionId) -> u64 {
        self.msgs[from as usize * self.regions + to as usize]
    }

    /// Bytes sent from region `from` to region `to`.
    pub fn bytes(&self, from: RegionId, to: RegionId) -> u64 {
        self.bytes[from as usize * self.regions + to as usize]
    }

    /// Total bytes that crossed a region boundary.
    pub fn cross_bytes(&self) -> u64 {
        self.fold(|a, b| a != b, &self.bytes)
    }

    /// Total messages that crossed a region boundary.
    pub fn cross_msgs(&self) -> u64 {
        self.fold(|a, b| a != b, &self.msgs)
    }

    /// Total bytes that stayed inside one region.
    pub fn intra_bytes(&self) -> u64 {
        self.fold(|a, b| a == b, &self.bytes)
    }

    fn fold(&self, keep: impl Fn(usize, usize) -> bool, table: &[u64]) -> u64 {
        let mut sum = 0;
        for a in 0..self.regions {
            for b in 0..self.regions {
                if keep(a, b) {
                    sum += table[a * self.regions + b];
                }
            }
        }
        sum
    }

    /// Order-independent merge (counter addition), for sharded sweeps.
    pub fn merge(&mut self, other: &GeoStats) {
        assert_eq!(self.regions, other.regions, "region count mismatch");
        for (a, b) in self.msgs.iter_mut().zip(&other.msgs) {
            *a += b;
        }
        for (a, b) in self.bytes.iter_mut().zip(&other.bytes) {
            *a += b;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contiguous_blocks_are_balanced_and_ordered() {
        let r = contiguous_regions(10, 3);
        assert_eq!(r, vec![0, 0, 0, 0, 1, 1, 1, 2, 2, 2]);
        let r = contiguous_regions(3, 3);
        assert_eq!(r, vec![0, 1, 2]);
    }

    #[test]
    fn single_region_is_zero_and_free() {
        let t = Topology::single_region(8);
        assert!(t.is_zero());
        assert_eq!(t.regions(), 1);
        assert_eq!(t.wire_us(t.region_of(0), t.region_of(7), 4096), 0);
        assert!(!t.is_cross(0, 7));
        assert_eq!(t.jitter_bound_us(0, 0), 0);
    }

    #[test]
    fn wan3_charges_the_preset_matrix() {
        let t = Topology::wan3(9);
        assert_eq!(t.regions(), 3);
        assert!(!t.is_zero());
        // Contiguous blocks of three.
        assert_eq!(t.region_of(0), 0);
        assert_eq!(t.region_of(4), 1);
        assert_eq!(t.region_of(8), 2);
        // Symmetric base latencies, bandwidth term on top.
        assert_eq!(t.wire_us(0, 1, 0), 45_000);
        assert_eq!(t.wire_us(1, 0, 0), 45_000);
        assert_eq!(t.wire_us(0, 2, 0), 120_000);
        assert_eq!(t.wire_us(0, 0, 0), 2_000);
        assert_eq!(t.wire_us(0, 1, 1024), 45_000 + 150);
        assert_eq!(t.jitter_bound_us(1, 2), 7_500);
        assert!(t.is_cross(0, 8));
        assert_eq!(t.pair_name(0, 1), "eu->us");
    }

    #[test]
    fn late_joiners_wrap_deterministically() {
        let t = Topology::wan3(6);
        assert_eq!(t.region_of(6), t.region_of(0));
        assert_eq!(t.region_of(7), t.region_of(1));
    }

    #[test]
    fn clustered_ids_land_in_their_arc_and_keep_low_bits() {
        for regions in [1usize, 2, 3, 5, 7] {
            for r in 0..regions as u16 {
                let (lo, hi) = region_arc(r, regions);
                for s in 0..50u64 {
                    let raw = Id::hash_str(&format!("site-{s}"));
                    let id = clustered_id(raw, r, regions);
                    let top = ((id.0[0] as u32) << 8) | id.0[1] as u32;
                    assert!(top >= lo && top < hi, "top {top} outside [{lo},{hi})");
                    assert_eq!(&id.0[2..], &raw.0[2..], "low bits must survive");
                }
            }
        }
    }

    #[test]
    fn arcs_partition_the_top_bits() {
        for regions in [1usize, 2, 3, 6, 16] {
            let mut edge = 0;
            for r in 0..regions as u16 {
                let (lo, hi) = region_arc(r, regions);
                assert_eq!(lo, edge, "arcs must be contiguous");
                assert!(hi > lo, "arcs must be non-empty");
                edge = hi;
            }
            assert_eq!(edge, 65_536);
        }
    }

    #[test]
    fn stats_roll_up_cross_and_intra() {
        let mut s = GeoStats::new(3);
        s.record(0, 0, 100);
        s.record(0, 1, 10);
        s.record(1, 0, 20);
        s.record(2, 2, 5);
        assert_eq!(s.msgs(0, 1), 1);
        assert_eq!(s.bytes(1, 0), 20);
        assert_eq!(s.cross_bytes(), 30);
        assert_eq!(s.cross_msgs(), 2);
        assert_eq!(s.intra_bytes(), 105);
        let mut t = GeoStats::new(3);
        t.record(0, 1, 1);
        t.merge(&s);
        assert_eq!(t.bytes(0, 1), 11);
        assert_eq!(t.cross_msgs(), 3);
    }
}
