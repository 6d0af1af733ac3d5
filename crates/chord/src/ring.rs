//! The ring: membership, routing, churn and maintenance.

use crate::node::{ChordNode, SUCCESSOR_LIST_LEN};
use ids::{Id, ID_BITS};
use std::collections::BTreeMap;

/// A key range `(start, end]` on the ring (clockwise, may wrap).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Migration {
    /// Node that held the keys before the membership change.
    pub from: Id,
    /// Node that must hold them afterwards.
    pub to: Id,
    /// Exclusive lower bound of the migrated range.
    pub start: Id,
    /// Inclusive upper bound of the migrated range.
    pub end: Id,
}

impl Migration {
    /// Does `key` fall inside the migrated range `(start, end]`?
    pub fn covers(&self, key: &Id) -> bool {
        key.in_interval_oc(&self.start, &self.end)
    }
}

/// Result of a successful join.
#[derive(Clone, Debug)]
pub struct JoinOutcome {
    /// Keys the new node takes over from its successor (`None` for the
    /// bootstrap node).
    pub migration: Option<Migration>,
    /// Overlay maintenance messages exchanged (lookup steps, notify,
    /// finger initialization).
    pub messages: u64,
}

/// Result of a voluntary leave.
#[derive(Clone, Debug)]
pub struct LeaveOutcome {
    /// Keys handed to the successor.
    pub migration: Migration,
    /// Overlay maintenance messages exchanged.
    pub messages: u64,
}

/// Routing outcome: the owner of a key plus the cost of finding it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LookupResult {
    /// The node responsible for the key (its successor on the ring).
    pub owner: Id,
    /// Overlay hops taken (0 when the querier already owns the key and
    /// its local state proves it).
    pub hops: u32,
    /// Every node visited, starting with the querier and ending with the
    /// owner. §IV-B's *intermediate node* optimisation inspects this path.
    pub path: Vec<Id>,
}

/// Routing failures.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LookupError {
    /// The querying node is not (or no longer) part of the ring.
    UnknownOrigin,
    /// The ring is empty.
    EmptyRing,
    /// Routing failed to converge (pathological staleness); callers
    /// should stabilize and retry.
    RoutingLoop,
}

impl std::fmt::Display for LookupError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LookupError::UnknownOrigin => write!(f, "origin node not in ring"),
            LookupError::EmptyRing => write!(f, "ring is empty"),
            LookupError::RoutingLoop => write!(f, "lookup did not converge"),
        }
    }
}

impl std::error::Error for LookupError {}

/// The Chord ring.
///
/// Holds every live node's protocol state. All mutation goes through
/// [`Ring::join`] / [`Ring::leave`] / the stabilization methods, so the
/// structure can always be checked against the ground-truth successor
/// relation (see `invariants_hold` in the tests).
pub struct Ring {
    nodes: BTreeMap<Id, ChordNode>,
    /// Round-robin cursor for [`Ring::stabilize_round`]'s finger repair.
    fix_cursor: usize,
}

impl Ring {
    /// An empty ring.
    pub fn new() -> Ring {
        Ring { nodes: BTreeMap::new(), fix_cursor: 0 }
    }

    /// Number of live nodes (`Nn`).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when no node has joined yet.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Is `id` a live member?
    pub fn contains(&self, id: &Id) -> bool {
        self.nodes.contains_key(id)
    }

    /// Borrow a node's state.
    pub fn get(&self, id: &Id) -> Option<&ChordNode> {
        self.nodes.get(id)
    }

    /// Application handle registered at join time.
    pub fn app_index_of(&self, id: &Id) -> Option<usize> {
        self.nodes.get(id).map(|n| n.app_index)
    }

    /// Map a lookup path (ring ids, as in [`LookupResult::path`]) to
    /// application node indices, skipping ids that have since left the
    /// ring. Used to emit per-hop trace events for a routed lookup.
    pub fn app_path(&self, path: &[Id]) -> Vec<usize> {
        path.iter().filter_map(|id| self.app_index_of(id)).collect()
    }

    /// All member ids in ring (ascending) order.
    pub fn node_ids(&self) -> impl Iterator<Item = Id> + '_ {
        self.nodes.keys().copied()
    }

    /// Ground-truth owner of `key`: the first live node clockwise from
    /// `key` (its *successor*). Used for assertions and for key-migration
    /// bookkeeping; routing uses [`Ring::lookup`].
    pub fn successor_of(&self, key: &Id) -> Option<Id> {
        self.successor_node(key).map(|n| n.id)
    }

    /// The state of `key`'s ground-truth successor.
    fn successor_node(&self, key: &Id) -> Option<&ChordNode> {
        self.nodes.range(key..).next().or_else(|| self.nodes.iter().next()).map(|(_, n)| n)
    }

    /// Ground-truth chain of up to `k` distinct live nodes starting at
    /// `key`'s successor and walking clockwise — the *replica set* of
    /// the key range ending at `key`. When `key` is itself a member, the
    /// chain starts with that member (a node is the first holder of its
    /// own range). Shorter than `k` only when the ring has fewer nodes.
    pub fn successors_of(&self, key: &Id, k: usize) -> Vec<Id> {
        let Some(first) = self.successor_of(key) else {
            return Vec::new();
        };
        let mut chain = Vec::with_capacity(k.min(self.nodes.len()));
        let mut cur = first;
        for _ in 0..k.min(self.nodes.len()) {
            chain.push(cur);
            cur = self.successor_of(&cur.succ()).expect("non-empty");
        }
        chain
    }

    /// Ground-truth predecessor of a *member* id: the previous live node
    /// counter-clockwise.
    fn predecessor_of(&self, id: &Id) -> Option<Id> {
        if self.nodes.is_empty() {
            return None;
        }
        self.nodes
            .range(..id)
            .next_back()
            .map(|(i, _)| *i)
            .or_else(|| self.nodes.keys().next_back().copied())
    }

    /// First node joins: no migration, no messages.
    pub fn bootstrap(&mut self, id: Id, app_index: usize) -> JoinOutcome {
        assert!(self.nodes.is_empty(), "bootstrap on a non-empty ring");
        self.nodes.insert(id, ChordNode::solitary(id, app_index));
        JoinOutcome { migration: None, messages: 0 }
    }

    /// `new_id` joins via `bootstrap`, per the Chord join protocol:
    /// find `successor(new_id)` by routing from the bootstrap node,
    /// splice in, take over keys `(predecessor, new_id]`, initialize the
    /// finger table (with the consecutive-finger reuse optimisation), and
    /// notify neighbours.
    ///
    /// Returns the migration the application must apply to its stores.
    pub fn join(&mut self, bootstrap: Id, new_id: Id, app_index: usize) -> Result<JoinOutcome, LookupError> {
        if self.nodes.is_empty() {
            return Ok(self.bootstrap(new_id, app_index));
        }
        assert!(!self.nodes.contains_key(&new_id), "duplicate node id join");
        let mut messages = 0u64;

        // Locate our successor through the overlay.
        let found = self.lookup(bootstrap, new_id)?;
        messages += found.hops as u64;
        let succ_id = found.owner;
        let pred_id = self
            .get(&succ_id)
            .and_then(|s| s.predecessor)
            .filter(|p| self.contains(p))
            .unwrap_or_else(|| self.predecessor_of(&succ_id).expect("non-empty ring"));

        // Build the new node.
        let mut node = ChordNode::solitary(new_id, app_index);
        node.predecessor = Some(pred_id);
        node.successors = self.successor_chain(succ_id);
        // init_finger_table with the classic reuse optimisation: if the
        // target of finger i falls before finger i-1, reuse it (one local
        // check instead of a full lookup).
        let mut prev = succ_id;
        node.fingers.set(0, succ_id);
        messages += 1;
        for i in 1..ID_BITS {
            let target = new_id.add_pow2(i);
            if target.in_interval_oc(&new_id, &prev) {
                node.fingers.set(i, prev);
            } else {
                let r = self.lookup(succ_id, target)?;
                messages += r.hops as u64;
                node.fingers.set(i, r.owner);
                prev = r.owner;
            }
        }
        self.nodes.insert(new_id, node);

        // Splice neighbour pointers (notify messages).
        if let Some(s) = self.nodes.get_mut(&succ_id) {
            s.predecessor = Some(new_id);
            messages += 1;
        }
        if let Some(p) = self.nodes.get_mut(&pred_id) {
            if p.successors[0] == succ_id || p.id == succ_id {
                p.successors.insert(0, new_id);
                p.successors.truncate(SUCCESSOR_LIST_LEN);
            }
            messages += 1;
        }
        self.refresh_successor_chain(new_id);
        self.refresh_successor_chain(pred_id);

        Ok(JoinOutcome {
            migration: Some(Migration { from: succ_id, to: new_id, start: pred_id, end: new_id }),
            messages,
        })
    }

    /// Voluntary departure: keys `(predecessor, id]` move to the
    /// successor, neighbours are re-linked; other nodes' fingers remain
    /// stale until stabilization (routing tolerates this).
    ///
    /// # Panics
    /// If `id` is not a member or is the last node (an application-level
    /// decision is needed for what the last repository's data means).
    pub fn leave(&mut self, id: Id) -> LeaveOutcome {
        assert!(self.nodes.contains_key(&id), "leave of unknown node");
        assert!(self.nodes.len() > 1, "last node cannot leave");
        let pred = self.predecessor_of(&id).expect("ring has >1 node");
        let node = self.nodes.remove(&id).expect("checked above");
        let succ = self.successor_of(&id).expect("ring non-empty after removal");

        // Transfer-and-notify messages.
        let mut messages = 1u64; // data handoff notification
        if let Some(s) = self.nodes.get_mut(&succ) {
            if s.predecessor == Some(id) {
                s.predecessor = Some(pred);
            }
            messages += 1;
        }
        if let Some(p) = self.nodes.get_mut(&pred) {
            p.successors.retain(|x| *x != id);
            if p.successors.is_empty() || p.successors[0] != succ {
                p.successors.insert(0, succ);
            }
            p.successors.truncate(SUCCESSOR_LIST_LEN);
            messages += 1;
        }
        self.refresh_successor_chain(pred);
        let _ = node;

        LeaveOutcome {
            migration: Migration { from: id, to: succ, start: pred, end: id },
            messages,
        }
    }

    /// Abrupt failure: like [`Ring::leave`] but the departing node sends
    /// nothing; neighbours discover the failure during stabilization.
    /// Data in `(pred, id]` is lost until the application re-indexes
    /// (PeerTrack's stores are soft state rebuilt by indexing traffic).
    pub fn fail(&mut self, id: Id) {
        assert!(self.nodes.contains_key(&id), "fail of unknown node");
        assert!(self.nodes.len() > 1, "last node cannot fail");
        self.nodes.remove(&id);
        // No pointer repair: that is stabilization's job.
    }

    /// Iterative Chord routing from `from` towards `key` using finger
    /// tables and successor lists only. Dead pointers are skipped exactly
    /// as a timeout would cause in the real protocol.
    pub fn lookup(&self, from: Id, key: Id) -> Result<LookupResult, LookupError> {
        if self.nodes.is_empty() {
            return Err(LookupError::EmptyRing);
        }
        let mut node = self.nodes.get(&from).ok_or(LookupError::UnknownOrigin)?;
        let mut hops = 0u32;
        // Room for the querier, ~log2 N hops and the owner.
        let mut path = Vec::with_capacity(self.nodes.len().ilog2() as usize + 2);
        path.push(from);
        let limit = (2 * self.nodes.len() + ID_BITS) as u32;

        // Each hop reads the map once for the live successor and once for
        // the chosen finger, whose state the next hop starts from.
        loop {
            let cur = node.id;
            let succ = self.live_successor(node);
            if key.in_interval_oc(&cur, &succ.id) {
                if succ.id != cur {
                    hops += 1;
                    path.push(succ.id);
                }
                return Ok(LookupResult { owner: succ.id, hops, path });
            }
            let next = node.closest_preceding(&key, |id| self.nodes.get(id));
            let step = if next.id == cur { succ } else { next };
            if step.id == cur {
                // Ring of one that doesn't own the key is impossible
                // (interval check above covers it); treat as converged.
                return Ok(LookupResult { owner: cur, hops, path });
            }
            node = step;
            hops += 1;
            path.push(node.id);
            if hops > limit {
                return Err(LookupError::RoutingLoop);
            }
        }
    }

    /// The first live entry in `node`'s successor list, repaired from
    /// ground truth when the whole list is dead (models Chord's fallback
    /// to re-join-by-lookup, which in practice always converges for the
    /// churn rates evaluated).
    fn live_successor(&self, node: &ChordNode) -> &ChordNode {
        node.successors
            .iter()
            .find_map(|s| self.nodes.get(s))
            .unwrap_or_else(|| self.successor_node(&node.id.succ()).expect("ring non-empty"))
    }

    /// Ground-truth chain of the next [`SUCCESSOR_LIST_LEN`] live nodes
    /// starting at (and including) `first`.
    fn successor_chain(&self, first: Id) -> Vec<Id> {
        let mut chain = Vec::with_capacity(SUCCESSOR_LIST_LEN);
        let mut cur = first;
        for _ in 0..SUCCESSOR_LIST_LEN {
            chain.push(cur);
            cur = self.successor_of(&cur.succ()).expect("non-empty");
        }
        chain
    }

    fn refresh_successor_chain(&mut self, id: Id) {
        if !self.nodes.contains_key(&id) {
            return;
        }
        let chain = self.successor_chain(self.successor_of(&id.succ()).expect("non-empty"));
        if let Some(n) = self.nodes.get_mut(&id) {
            n.successors = chain;
        }
    }

    /// One periodic maintenance round, as Chord's `stabilize` +
    /// `fix_fingers`: every node refreshes its successor list and
    /// predecessor, and repairs **one** finger (round-robin). Returns the
    /// number of maintenance messages this round cost.
    pub fn stabilize_round(&mut self) -> u64 {
        let ids: Vec<Id> = self.nodes.keys().copied().collect();
        let mut messages = 0u64;
        let finger_i = self.fix_cursor % ID_BITS;
        self.fix_cursor += 1;
        for id in ids {
            // successor/predecessor refresh: 2 messages (stabilize+notify)
            let pred = self.predecessor_of(&id).expect("non-empty");
            self.refresh_successor_chain(id);
            if let Some(n) = self.nodes.get_mut(&id) {
                n.predecessor = Some(pred);
            }
            messages += 2;
            // fix one finger via a lookup
            let target = id.add_pow2(finger_i);
            if let Ok(r) = self.lookup(id, target) {
                messages += r.hops as u64;
                if let Some(n) = self.nodes.get_mut(&id) {
                    n.fingers.set(finger_i, r.owner);
                }
            }
        }
        messages
    }

    /// Crash-aware recovery: run incremental [`Ring::stabilize_round`]s
    /// until [`Ring::check_converged`] passes, asserting convergence
    /// within `max_rounds`. This is the post-crash repair path — unlike
    /// [`Ring::stabilize_all`] it exercises the same per-round repair a
    /// real deployment would, so a crash that stabilization *cannot*
    /// recover from (e.g. a partitioned successor chain) fails loudly
    /// instead of being papered over by the ground-truth rebuild.
    /// Returns the total maintenance messages spent.
    pub fn stabilize_until_converged(&mut self, max_rounds: usize) -> Result<u64, String> {
        let mut messages = 0u64;
        for _ in 0..max_rounds {
            messages += self.stabilize_round();
            if self.check_converged().is_ok() {
                return Ok(messages);
            }
        }
        self.check_converged().map(|()| messages).map_err(|e| {
            format!("ring failed to converge within {max_rounds} rounds: {e}")
        })
    }

    /// Full repair: recompute every node's pointers from ground truth.
    /// Equivalent to running `stabilize_round` until fixpoint; used to
    /// start experiments from a converged overlay, as the paper's
    /// measurements do (OverSim's warm-up phase).
    pub fn stabilize_all(&mut self) {
        let ids: Vec<Id> = self.nodes.keys().copied().collect();
        for id in &ids {
            let pred = self.predecessor_of(id).expect("non-empty");
            let chain = self.successor_chain(self.successor_of(&id.succ()).expect("non-empty"));
            let mut fingers = Vec::with_capacity(ID_BITS);
            for i in 0..ID_BITS {
                fingers.push(self.successor_of(&id.add_pow2(i)).expect("non-empty"));
            }
            let n = self.nodes.get_mut(id).expect("iterating live ids");
            n.predecessor = Some(pred);
            n.successors = chain;
            for (i, f) in fingers.into_iter().enumerate() {
                n.fingers.set(i, f);
            }
        }
    }

    /// Verify the structural invariants (used by tests and debug builds):
    /// successor pointers match ground truth and every finger entry is a
    /// live node ≥ its target (after full stabilization).
    pub fn check_converged(&self) -> Result<(), String> {
        for (id, node) in &self.nodes {
            let truth = self.successor_of(&id.succ()).expect("non-empty");
            if node.successor() != truth {
                return Err(format!("node {id:?}: successor {:?} != truth {truth:?}", node.successor()));
            }
            let pred_truth = self.predecessor_of(id).expect("non-empty");
            if node.predecessor != Some(pred_truth) {
                return Err(format!("node {id:?}: predecessor {:?} != truth {pred_truth:?}", node.predecessor));
            }
            for i in 0..ID_BITS {
                let f = node.fingers.get(i);
                let t = self.successor_of(&id.add_pow2(i)).expect("non-empty");
                if f != t {
                    return Err(format!("node {id:?}: finger {i} {f:?} != truth {t:?}"));
                }
            }
        }
        Ok(())
    }
}

impl Default for Ring {
    fn default() -> Self {
        Ring::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptiny::prelude::*;
    use detrand::{rngs::StdRng, seq::SliceRandom, Rng, SeedableRng};

    /// Build a converged ring of `n` nodes with deterministic random ids.
    fn build_ring(n: usize, seed: u64) -> (Ring, Vec<Id>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut ring = Ring::new();
        let mut ids = Vec::new();
        for i in 0..n {
            let id = Id::random(&mut rng);
            if i == 0 {
                ring.bootstrap(id, i);
            } else {
                ring.join(ids[0], id, i).unwrap();
            }
            ids.push(id);
        }
        ring.stabilize_all();
        (ring, ids)
    }

    #[test]
    fn bootstrap_owns_everything() {
        let mut ring = Ring::new();
        let id = Id::from_u64(42);
        ring.bootstrap(id, 0);
        assert_eq!(ring.successor_of(&Id::from_u64(7)), Some(id));
        let r = ring.lookup(id, Id::from_u64(999)).unwrap();
        assert_eq!(r.owner, id);
        assert_eq!(r.hops, 0);
    }

    #[test]
    fn lookup_agrees_with_ground_truth() {
        let (ring, ids) = build_ring(64, 1);
        let mut rng = StdRng::seed_from_u64(99);
        for _ in 0..500 {
            let key = Id::random(&mut rng);
            let from = ids[rng.gen_range(0..ids.len())];
            let r = ring.lookup(from, key).unwrap();
            assert_eq!(Some(r.owner), ring.successor_of(&key));
            assert_eq!(*r.path.first().unwrap(), from);
            assert_eq!(*r.path.last().unwrap(), r.owner);
        }
    }

    #[test]
    fn hops_are_logarithmic() {
        let (ring, ids) = build_ring(256, 2);
        let mut rng = StdRng::seed_from_u64(5);
        let mut total = 0u64;
        let trials = 2_000;
        for _ in 0..trials {
            let key = Id::random(&mut rng);
            let from = ids[rng.gen_range(0..ids.len())];
            total += ring.lookup(from, key).unwrap().hops as u64;
        }
        let avg = total as f64 / trials as f64;
        // Chord: ~(1/2)·log2 N = 4; allow generous slack.
        assert!(avg < 8.0, "average hops {avg} too high for 256 nodes");
        assert!(avg > 1.0, "average hops {avg} implausibly low");
    }

    #[test]
    fn join_migration_covers_exactly_new_range() {
        let (mut ring, ids) = build_ring(16, 3);
        let new = Id::from_u64(12345);
        let out = ring.join(ids[0], new, 16).unwrap();
        let m = out.migration.unwrap();
        assert_eq!(m.to, new);
        assert_eq!(m.end, new);
        assert!(m.covers(&new));
        assert!(!m.covers(&m.start));
        // After join the new node owns its own id.
        assert_eq!(ring.successor_of(&new), Some(new));
        // Keys just past the new node belong to the old owner still.
        assert_eq!(ring.successor_of(&new.succ()), Some(m.from));
    }

    #[test]
    fn convergence_check_passes_after_stabilize_all() {
        let (ring, _) = build_ring(48, 4);
        ring.check_converged().unwrap();
    }

    #[test]
    fn leave_hands_keys_to_successor() {
        let (mut ring, ids) = build_ring(16, 5);
        let victim = ids[7];
        let succ_truth = ring.successor_of(&victim.succ()).unwrap();
        let out = ring.leave(victim);
        assert_eq!(out.migration.from, victim);
        assert_eq!(out.migration.to, succ_truth);
        assert!(!ring.contains(&victim));
        // Keys previously owned by the victim now route to its successor.
        ring.stabilize_all();
        let r = ring.lookup(ids[0], victim).unwrap();
        assert_eq!(r.owner, succ_truth);
    }

    #[test]
    fn crash_recovery_converges_within_finger_rotation() {
        // After abrupt failures, incremental stabilization must restore
        // full convergence within one finger-cursor rotation (each round
        // fixes one finger index at every node) — the bound crash
        // recovery asserts in the full-stack crash path.
        let (mut ring, ids) = build_ring(24, 11);
        ring.fail(ids[3]);
        ring.fail(ids[17]);
        assert!(ring.check_converged().is_err(), "crash must leave stale pointers");
        let msgs = ring
            .stabilize_until_converged(ID_BITS + 1)
            .expect("stabilization repairs crashes");
        assert!(msgs > 0);
        ring.check_converged().unwrap();
        // Converged means idempotent: another bounded run is cheap.
        ring.stabilize_until_converged(1).unwrap();
    }

    #[test]
    fn unrecoverable_bound_reports_error() {
        let (mut ring, ids) = build_ring(12, 13);
        ring.fail(ids[5]);
        // Zero rounds cannot repair anything: the bound must fail loudly.
        assert!(ring.stabilize_until_converged(0).is_err());
    }

    #[test]
    fn routing_survives_unstabilized_failures() {
        let (mut ring, ids) = build_ring(64, 6);
        let mut rng = StdRng::seed_from_u64(7);
        // Kill 8 random non-bootstrap nodes without repair.
        let mut victims = ids[1..].to_vec();
        victims.shuffle(&mut rng);
        for v in &victims[..8] {
            ring.fail(*v);
        }
        // All lookups from live nodes still converge to ground truth.
        let live: Vec<Id> = ring.node_ids().collect();
        for _ in 0..300 {
            let key = Id::random(&mut rng);
            let from = live[rng.gen_range(0..live.len())];
            let r = ring.lookup(from, key).expect("lookup should survive churn");
            assert_eq!(Some(r.owner), ring.successor_of(&key));
        }
    }

    /// Every routing decision under unrepaired churn is pinned. Joins,
    /// leaves and failures with no stabilization between them leave
    /// fingers and successor lists stale, some pointing at dead nodes;
    /// one digest covers each lookup's `(owner, hops, path)`.
    #[test]
    fn stale_routing_is_pinned() {
        let (mut ring, _) = build_ring(96, 21);
        let mut rng = StdRng::seed_from_u64(22);
        let mut out = Vec::new();
        let mut lookups = 0;
        for round in 0..8 {
            for op in 0..7 {
                let live: Vec<Id> = ring.node_ids().collect();
                let pick = live[rng.gen_range(0..live.len())];
                match op {
                    0..=2 => {
                        let new = Id::random(&mut rng);
                        let joined = ring.join(pick, new, 1000 + 7 * round + op);
                        out.push(u8::from(joined.is_ok()));
                    }
                    3 | 4 => {
                        ring.leave(pick);
                    }
                    _ => ring.fail(pick),
                }
            }
            assert!(ring.check_converged().is_err(), "churn must leave stale pointers");
            let live: Vec<Id> = ring.node_ids().collect();
            for _ in 0..300 {
                let from = live[rng.gen_range(0..live.len())];
                match ring.lookup(from, Id::random(&mut rng)) {
                    Ok(r) => {
                        out.push(1);
                        out.extend_from_slice(&r.owner.0);
                        out.extend_from_slice(&r.hops.to_be_bytes());
                        out.extend_from_slice(&(r.path.len() as u32).to_be_bytes());
                        r.path.iter().for_each(|id| out.extend_from_slice(&id.0));
                    }
                    Err(e) => out.extend_from_slice(&[0, e as u8]),
                }
                lookups += 1;
            }
        }
        assert_eq!(lookups, 2400);
        assert_eq!(Id::hash(&out).to_hex(), "4d62790be7a88eb8490f3df881b08927fd7dd714");
    }

    #[test]
    fn stabilize_rounds_converge_fingers_after_churn() {
        let (mut ring, ids) = build_ring(32, 8);
        for v in &ids[20..28] {
            ring.fail(*v);
        }
        // 160 finger slots × round-robin repair + successor refresh.
        for _ in 0..ID_BITS {
            ring.stabilize_round();
        }
        ring.check_converged().unwrap();
    }

    #[test]
    fn join_counts_messages() {
        let (mut ring, ids) = build_ring(32, 9);
        let out = ring.join(ids[0], Id::from_u64(999_999), 32).unwrap();
        assert!(out.messages > 0, "join must cost maintenance traffic");
        // With the reuse optimisation, far fewer than 160 lookups happen.
        assert!(out.messages < 600, "join cost {} looks unoptimised", out.messages);
    }

    #[test]
    fn lookup_from_unknown_origin_fails() {
        let (ring, _) = build_ring(4, 10);
        assert_eq!(
            ring.lookup(Id::from_u64(31337), Id::from_u64(1)).unwrap_err(),
            LookupError::UnknownOrigin
        );
    }

    #[test]
    fn empty_ring_lookup_fails() {
        let ring = Ring::new();
        assert_eq!(
            ring.lookup(Id::from_u64(1), Id::from_u64(2)).unwrap_err(),
            LookupError::EmptyRing
        );
    }

    #[test]
    fn successor_of_wraps_around() {
        let mut ring = Ring::new();
        ring.bootstrap(Id::from_u64(10), 0);
        ring.join(Id::from_u64(10), Id::from_u64(100), 1).unwrap();
        // A key past the highest node wraps to the lowest.
        assert_eq!(ring.successor_of(&Id::from_u64(200)), Some(Id::from_u64(10)));
        assert_eq!(ring.successor_of(&Id::from_u64(50)), Some(Id::from_u64(100)));
        assert_eq!(ring.successor_of(&Id::from_u64(100)), Some(Id::from_u64(100)));
    }

    proptiny! {
        #![proptiny_config(Config::with_cases(24))]

        /// Finger-table routing must equal the naive ring scan for any
        /// membership and key set.
        #[test]
        fn prop_lookup_matches_truth(seed in any::<u64>(), n in 2usize..48, queries in 1usize..32) {
            let (ring, ids) = build_ring(n, seed);
            let mut rng = StdRng::seed_from_u64(seed ^ 0xDEAD);
            for _ in 0..queries {
                let key = Id::random(&mut rng);
                let from = ids[rng.gen_range(0..ids.len())];
                let r = ring.lookup(from, key).unwrap();
                prop_assert_eq!(Some(r.owner), ring.successor_of(&key));
            }
        }

        /// Join then leave of the same node restores ground-truth
        /// ownership for every key.
        #[test]
        fn prop_join_leave_roundtrip(seed in any::<u64>(), n in 2usize..24) {
            let (mut ring, _) = build_ring(n, seed);
            let before: Vec<(Id, Id)> = {
                let mut rng = StdRng::seed_from_u64(seed ^ 1);
                (0..16).map(|_| {
                    let k = Id::random(&mut rng);
                    (k, ring.successor_of(&k).unwrap())
                }).collect()
            };
            let new = Id::hash(&seed.to_be_bytes());
            prop_assume!(!ring.contains(&new));
            let boot = ring.node_ids().next().unwrap();
            ring.join(boot, new, 999).unwrap();
            ring.leave(new);
            ring.stabilize_all();
            for (k, owner) in before {
                prop_assert_eq!(ring.successor_of(&k), Some(owner));
            }
        }

        /// Migration ranges from a join partition ownership: keys inside
        /// the range now belong to the new node, keys outside keep their
        /// previous owner.
        #[test]
        fn prop_join_migration_partitions(seed in any::<u64>(), n in 2usize..24) {
            let (mut ring, _) = build_ring(n, seed);
            let new = Id::hash(&seed.to_le_bytes());
            prop_assume!(!ring.contains(&new));
            let mut rng = StdRng::seed_from_u64(seed ^ 2);
            let keys: Vec<Id> = (0..32).map(|_| Id::random(&mut rng)).collect();
            let owners_before: Vec<Id> =
                keys.iter().map(|k| ring.successor_of(k).unwrap()).collect();
            let boot = ring.node_ids().next().unwrap();
            let m = ring.join(boot, new, 0).unwrap().migration.unwrap();
            for (k, owner_before) in keys.iter().zip(owners_before) {
                let owner_after = ring.successor_of(k).unwrap();
                if m.covers(k) {
                    prop_assert_eq!(owner_after, new);
                    prop_assert_eq!(owner_before, m.from);
                } else {
                    prop_assert_eq!(owner_after, owner_before);
                }
            }
        }
    }
}
