//! Per-node Chord state: finger table, successor list, predecessor.

use ids::{Id, ID_BITS};

/// Length of the successor list (Chord's `r`). `r = 4` tolerates three
/// simultaneous adjacent failures, plenty for the paper's churn levels.
pub const SUCCESSOR_LIST_LEN: usize = 4;

/// The finger table: entry `i` should point at `successor(n + 2^i)`.
///
/// Entries may be stale after churn; the routing layer skips entries that
/// no longer correspond to live nodes, as real Chord does after a timeout.
#[derive(Clone)]
pub struct FingerTable {
    /// `fingers[i] = successor(owner + 2^i)`, possibly stale.
    entries: Vec<Id>,
}

impl FingerTable {
    /// A finger table where every entry points at the owner itself
    /// (the state of a ring of one).
    pub fn self_only(owner: Id) -> FingerTable {
        FingerTable { entries: vec![owner; ID_BITS] }
    }

    /// Entry `i` (target `owner + 2^i`).
    pub fn get(&self, i: usize) -> Id {
        self.entries[i]
    }

    /// Overwrite entry `i`.
    pub fn set(&mut self, i: usize, id: Id) {
        self.entries[i] = id;
    }

    /// Iterate entries from the *largest* span downwards, the order
    /// `closest_preceding_finger` scans.
    pub fn iter_desc(&self) -> impl Iterator<Item = (usize, Id)> + '_ {
        (0..ID_BITS).rev().map(move |i| (i, self.entries[i]))
    }
}

/// One Chord participant.
#[derive(Clone)]
pub struct ChordNode {
    /// The node's ring identifier.
    pub id: Id,
    /// Opaque application handle (PeerTrack stores the simnet node index).
    pub app_index: usize,
    /// First live successor candidates, nearest first (Chord's `r`-list).
    pub successors: Vec<Id>,
    /// Predecessor pointer (`None` only transiently during bootstrap).
    pub predecessor: Option<Id>,
    /// The finger table.
    pub fingers: FingerTable,
}

impl ChordNode {
    /// A fresh node that believes it is alone on the ring.
    pub fn solitary(id: Id, app_index: usize) -> ChordNode {
        ChordNode {
            id,
            app_index,
            successors: vec![id; SUCCESSOR_LIST_LEN],
            predecessor: Some(id),
            fingers: FingerTable::self_only(id),
        }
    }

    /// The node's immediate successor (first entry of the list).
    pub fn successor(&self) -> Id {
        self.successors[0]
    }

    /// The live node of the best finger strictly inside `(self.id, key)`
    /// according to this node's (possibly stale) table; `get` returns a
    /// member's state, `None` for a dead pointer. Falls back to live
    /// successor-list entries, then to `self` (meaning: no progress
    /// available from fingers, route via successor).
    pub fn closest_preceding<'a>(
        &'a self,
        key: &Id,
        get: impl Fn(&Id) -> Option<&'a ChordNode>,
    ) -> &'a ChordNode {
        let fingers = self.fingers.iter_desc().map(|(_, f)| f);
        // Successor-list fallback, farthest-first for maximum progress.
        let successors = self.successors.iter().rev().copied();
        fingers
            .chain(successors)
            .filter(|f| *f != self.id && f.in_interval_oo(&self.id, key))
            .find_map(|f| get(&f))
            .unwrap_or(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    fn id(v: u64) -> Id {
        Id::from_u64(v)
    }

    /// A membership of solitary nodes at `live`, and the id of the node
    /// `closest_preceding` picks from `n` through it.
    fn pick(n: &ChordNode, key: u64, live: &[u64]) -> Id {
        let members: BTreeMap<Id, ChordNode> =
            live.iter().map(|&v| (id(v), ChordNode::solitary(id(v), 0))).collect();
        n.closest_preceding(&id(key), |x| members.get(x)).id
    }

    #[test]
    fn solitary_points_to_self() {
        let n = ChordNode::solitary(id(10), 0);
        assert_eq!(n.successor(), id(10));
        assert_eq!(n.predecessor, Some(id(10)));
        assert!(n.fingers.iter_desc().all(|(_, f)| f == id(10)));
    }

    #[test]
    fn closest_preceding_picks_largest_span_inside_interval() {
        let mut n = ChordNode::solitary(id(0), 0);
        // Fingers: entry 3 → 8, entry 5 → 32, entry 7 → 128.
        n.fingers.set(3, id(8));
        n.fingers.set(5, id(32));
        n.fingers.set(7, id(128));
        let live = [8, 32, 128];
        // Key 100: 32 is the closest live finger preceding it (128 > 100).
        assert_eq!(pick(&n, 100, &live), id(32));
        // Key 200: 128 qualifies.
        assert_eq!(pick(&n, 200, &live), id(128));
    }

    #[test]
    fn closest_preceding_skips_dead_fingers() {
        let mut n = ChordNode::solitary(id(0), 0);
        n.fingers.set(5, id(32));
        n.fingers.set(3, id(8));
        // 32 is dead: it is absent from the membership.
        assert_eq!(pick(&n, 100, &[8]), id(8));
    }

    #[test]
    fn closest_preceding_falls_back_to_successor_list() {
        let mut n = ChordNode::solitary(id(0), 0);
        n.successors = vec![id(4), id(6), id(9), id(12)];
        // All fingers are self; key 10 → farthest live successor < 10.
        assert_eq!(pick(&n, 10, &[4, 6, 9, 12]), id(9));
    }

    #[test]
    fn closest_preceding_returns_self_when_stuck() {
        let n = ChordNode::solitary(id(0), 0);
        assert_eq!(pick(&n, 10, &[0]), id(0));
    }

    #[test]
    fn finger_iter_desc_order() {
        let n = ChordNode::solitary(id(0), 0);
        let idx: Vec<usize> = n.fingers.iter_desc().map(|(i, _)| i).take(3).collect();
        assert_eq!(idx, vec![159, 158, 157]);
    }
}
