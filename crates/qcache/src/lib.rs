//! Query-path read scaling: locate-answer caching and hot-shard load
//! statistics.
//!
//! Under skewed (Zipf / flash-crowd) locate traffic, the gateway that
//! owns a hot object's prefix serves a disproportionate share of the
//! query load. This crate holds the two pieces the read-scaling
//! subsystem shares between the simulator and the daemon:
//!
//! * [`LocateCache`] — a bounded per-node cache of locate answers,
//!   keyed by [`ObjectId`] and guarded by a movement *epoch*: a cached
//!   answer is served only while its epoch matches the object's current
//!   one, so any movement that changes the authoritative answer kills
//!   the entry by bumping the epoch ([`EpochTable`]). Eviction is
//!   deterministic LRU (a monotone tick orders entries totally), which
//!   keeps same-seed simulation runs bit-reproducible.
//! * [`Imbalance`] — the hot-shard statistic (max/mean/p99 of per-node
//!   served-locate counts) both `zipf_sweep` and `fault_sweep` report.
//!
//! The cache is deliberately **not durable**: it is derived state,
//! reconstructible from traffic, and persisting it would force
//! snapshot/WAL invalidation protocols for no recovery benefit — a
//! restarted node simply rebuilds it cold (DESIGN.md §15).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use moods::ObjectId;
use std::collections::{BTreeSet, HashMap};

// ----------------------------------------------------------------------
// Epochs
// ----------------------------------------------------------------------

/// Per-object movement epochs: a monotone counter bumped every time the
/// authoritative locate answer for an object changes. Objects never
/// bumped are at epoch 0, so the table stays proportional to the number
/// of *moved* objects, not the population.
#[derive(Clone, Debug, Default)]
pub struct EpochTable {
    epochs: HashMap<ObjectId, u64>,
}

impl EpochTable {
    /// An empty table (every object at epoch 0).
    pub fn new() -> EpochTable {
        EpochTable::default()
    }

    /// The current epoch of `o`.
    pub fn of(&self, o: ObjectId) -> u64 {
        self.epochs.get(&o).copied().unwrap_or(0)
    }

    /// Advance `o`'s epoch, invalidating every cached answer carrying
    /// the previous one. Returns the new epoch.
    pub fn bump(&mut self, o: ObjectId) -> u64 {
        let e = self.epochs.entry(o).or_insert(0);
        *e += 1;
        *e
    }

    /// Number of objects ever bumped.
    pub fn len(&self) -> usize {
        self.epochs.len()
    }

    /// True when no object was ever bumped.
    pub fn is_empty(&self) -> bool {
        self.epochs.is_empty()
    }
}

// ----------------------------------------------------------------------
// The cache
// ----------------------------------------------------------------------

/// Counters describing a cache's life so far.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from a live entry.
    pub hits: u64,
    /// Lookups that found no entry (stale hits count here too).
    pub misses: u64,
    /// Lookups that found an entry killed by an epoch mismatch.
    pub stale: u64,
    /// Entries stored (including overwrites).
    pub insertions: u64,
    /// Entries evicted by the capacity bound.
    pub evictions: u64,
}

#[derive(Clone, Debug)]
struct Slot<V> {
    value: V,
    epoch: u64,
    tick: u64,
}

/// A bounded per-node locate-answer cache with epoch invalidation and
/// deterministic LRU eviction.
///
/// `V` is the cached answer (the simulator and daemon both store the
/// gateway's latest `Link`); the cache itself only needs to clone it
/// out. Every mutation is deterministic: recency is a monotone `u64`
/// tick, so the eviction order is a total order independent of hash
/// iteration — two same-seed runs evict identically.
#[derive(Clone, Debug)]
pub struct LocateCache<V> {
    capacity: usize,
    entries: HashMap<ObjectId, Slot<V>>,
    /// `(tick, object)` pairs mirroring `entries`; the smallest tick is
    /// the least recently used entry.
    order: BTreeSet<(u64, ObjectId)>,
    next_tick: u64,
    stats: CacheStats,
}

impl<V: Clone> LocateCache<V> {
    /// An empty cache bounded at `capacity ≥ 1` entries.
    pub fn new(capacity: usize) -> LocateCache<V> {
        assert!(capacity >= 1, "locate cache capacity must be at least 1");
        LocateCache {
            capacity,
            entries: HashMap::new(),
            order: BTreeSet::new(),
            next_tick: 0,
            stats: CacheStats::default(),
        }
    }

    /// Live entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no entry is cached.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Lifetime counters.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Look up `o` at the current `epoch`. A live entry (epoch matches)
    /// is a hit and refreshes recency; an entry at a stale epoch is
    /// removed and counted as a miss.
    pub fn get(&mut self, o: ObjectId, epoch: u64) -> Option<V> {
        match self.entries.get_mut(&o) {
            Some(slot) if slot.epoch == epoch => {
                self.order.remove(&(slot.tick, o));
                slot.tick = self.next_tick;
                self.next_tick += 1;
                self.order.insert((slot.tick, o));
                self.stats.hits += 1;
                Some(slot.value.clone())
            }
            Some(_) => {
                let slot = self.entries.remove(&o).expect("entry just matched");
                self.order.remove(&(slot.tick, o));
                self.stats.stale += 1;
                self.stats.misses += 1;
                None
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Store the answer for `o` at `epoch`, replacing any previous
    /// entry and evicting the least recently used one when full.
    pub fn insert(&mut self, o: ObjectId, epoch: u64, value: V) {
        if let Some(old) = self.entries.remove(&o) {
            self.order.remove(&(old.tick, o));
        } else if self.entries.len() == self.capacity {
            let &(tick, victim) = self.order.iter().next().expect("full cache is non-empty");
            self.order.remove(&(tick, victim));
            self.entries.remove(&victim);
            self.stats.evictions += 1;
        }
        let tick = self.next_tick;
        self.next_tick += 1;
        self.entries.insert(o, Slot { value, epoch, tick });
        self.order.insert((tick, o));
        self.stats.insertions += 1;
    }

    /// Drop `o`'s entry, if any (local knowledge of a movement).
    pub fn invalidate(&mut self, o: ObjectId) {
        if let Some(slot) = self.entries.remove(&o) {
            self.order.remove(&(slot.tick, o));
        }
    }

    /// Drop every entry (membership change: ownership may have moved
    /// wholesale, so conservative correctness beats retained warmth).
    pub fn clear(&mut self) {
        self.entries.clear();
        self.order.clear();
    }
}

// ----------------------------------------------------------------------
// Load-imbalance statistics
// ----------------------------------------------------------------------

/// The hot-shard statistic over per-node served-query counts.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Imbalance {
    /// Hottest node's load.
    pub max: u64,
    /// Mean load over *all* nodes (idle ones included).
    pub mean: f64,
    /// 99th-percentile load (nearest-rank over the node population).
    pub p99: u64,
    /// `max / mean` — 1.0 is perfectly balanced; large values mean one
    /// node carries the cluster. 0.0 when no load was served at all.
    pub ratio: f64,
}

/// Compute the imbalance statistic of a per-node load vector.
pub fn imbalance(loads: &[u64]) -> Imbalance {
    if loads.is_empty() {
        return Imbalance { max: 0, mean: 0.0, p99: 0, ratio: 0.0 };
    }
    let max = *loads.iter().max().expect("non-empty");
    let total: u64 = loads.iter().sum();
    let mean = total as f64 / loads.len() as f64;
    let ratio = if mean > 0.0 { max as f64 / mean } else { 0.0 };
    Imbalance { max, mean, p99: percentile(loads, 0.99), ratio }
}

/// Nearest-rank percentile (`p` in `(0, 1]`) of a load vector.
pub fn percentile(loads: &[u64], p: f64) -> u64 {
    if loads.is_empty() {
        return 0;
    }
    let mut sorted = loads.to_vec();
    sorted.sort_unstable();
    let rank = (p * sorted.len() as f64).ceil().max(1.0) as usize;
    sorted[rank.min(sorted.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obj(n: u64) -> ObjectId {
        ObjectId::from_raw(format!("qcache-test-{n}").as_bytes())
    }

    #[test]
    fn epoch_table_starts_at_zero_and_bumps() {
        let mut t = EpochTable::new();
        assert_eq!(t.of(obj(1)), 0);
        assert!(t.is_empty());
        assert_eq!(t.bump(obj(1)), 1);
        assert_eq!(t.bump(obj(1)), 2);
        assert_eq!(t.of(obj(1)), 2);
        assert_eq!(t.of(obj(2)), 0);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn hit_miss_and_stale_accounting() {
        let mut c: LocateCache<u32> = LocateCache::new(4);
        assert_eq!(c.get(obj(1), 0), None);
        c.insert(obj(1), 0, 77);
        assert_eq!(c.get(obj(1), 0), Some(77));
        // Epoch moved on: the entry dies and the lookup is a miss.
        assert_eq!(c.get(obj(1), 1), None);
        assert_eq!(c.get(obj(1), 1), None); // really gone
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.stale), (1, 3, 1));
        assert!(c.is_empty());
    }

    #[test]
    fn lru_eviction_is_deterministic_and_recency_aware() {
        let mut c: LocateCache<u32> = LocateCache::new(2);
        c.insert(obj(1), 0, 1);
        c.insert(obj(2), 0, 2);
        // Touch 1 so 2 becomes the LRU victim.
        assert_eq!(c.get(obj(1), 0), Some(1));
        c.insert(obj(3), 0, 3);
        assert_eq!(c.len(), 2);
        assert_eq!(c.get(obj(2), 0), None, "LRU entry evicted");
        assert_eq!(c.get(obj(1), 0), Some(1));
        assert_eq!(c.get(obj(3), 0), Some(3));
        assert_eq!(c.stats().evictions, 1);
    }

    #[test]
    fn overwrite_does_not_evict() {
        let mut c: LocateCache<u32> = LocateCache::new(2);
        c.insert(obj(1), 0, 1);
        c.insert(obj(2), 0, 2);
        c.insert(obj(1), 1, 10); // replace, not insert-beyond-capacity
        assert_eq!(c.len(), 2);
        assert_eq!(c.stats().evictions, 0);
        assert_eq!(c.get(obj(1), 1), Some(10));
        assert_eq!(c.get(obj(2), 0), Some(2));
    }

    #[test]
    fn invalidate_and_clear() {
        let mut c: LocateCache<u32> = LocateCache::new(4);
        c.insert(obj(1), 0, 1);
        c.insert(obj(2), 0, 2);
        c.invalidate(obj(1));
        c.invalidate(obj(9)); // absent: no-op
        assert_eq!(c.get(obj(1), 0), None);
        assert_eq!(c.get(obj(2), 0), Some(2));
        c.clear();
        assert!(c.is_empty());
        assert_eq!(c.get(obj(2), 0), None);
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_rejected() {
        let _ = LocateCache::<u32>::new(0);
    }

    #[test]
    fn imbalance_statistics() {
        let i = imbalance(&[]);
        assert_eq!((i.max, i.p99), (0, 0));
        assert_eq!(i.ratio, 0.0);

        let i = imbalance(&[4, 4, 4, 4]);
        assert_eq!(i.max, 4);
        assert_eq!(i.mean, 4.0);
        assert_eq!(i.ratio, 1.0);

        let i = imbalance(&[0, 0, 0, 12]);
        assert_eq!(i.max, 12);
        assert_eq!(i.mean, 3.0);
        assert_eq!(i.ratio, 4.0);
        assert_eq!(i.p99, 12);

        let all_zero = imbalance(&[0, 0]);
        assert_eq!(all_zero.ratio, 0.0, "no load served: ratio defined as 0");
    }

    #[test]
    fn percentile_nearest_rank() {
        let loads: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&loads, 0.99), 99);
        assert_eq!(percentile(&loads, 0.50), 50);
        assert_eq!(percentile(&loads, 1.0), 100);
        assert_eq!(percentile(&[7], 0.99), 7);
    }
}
