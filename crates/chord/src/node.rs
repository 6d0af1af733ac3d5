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

    /// The best finger strictly inside `(self.id, key)` according to this
    /// node's (possibly stale) table, filtered by `alive`. Falls back to
    /// live successor-list entries, then to `self.id` (meaning: no
    /// progress available from fingers, route via successor).
    pub fn closest_preceding(&self, key: &Id, alive: impl Fn(&Id) -> bool) -> Id {
        for (_, f) in self.fingers.iter_desc() {
            if f != self.id && f.in_interval_oo(&self.id, key) && alive(&f) {
                return f;
            }
        }
        // Successor-list fallback, farthest-first for maximum progress.
        for s in self.successors.iter().rev() {
            if *s != self.id && s.in_interval_oo(&self.id, key) && alive(s) {
                return *s;
            }
        }
        self.id
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn id(v: u64) -> Id {
        Id::from_u64(v)
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
        // Key 100: 32 is the closest live finger preceding it (128 > 100).
        let got = n.closest_preceding(&id(100), |_| true);
        assert_eq!(got, id(32));
        // Key 200: 128 qualifies.
        assert_eq!(n.closest_preceding(&id(200), |_| true), id(128));
    }

    #[test]
    fn closest_preceding_skips_dead_fingers() {
        let mut n = ChordNode::solitary(id(0), 0);
        n.fingers.set(5, id(32));
        n.fingers.set(3, id(8));
        let got = n.closest_preceding(&id(100), |x| *x != id(32));
        assert_eq!(got, id(8));
    }

    #[test]
    fn closest_preceding_falls_back_to_successor_list() {
        let mut n = ChordNode::solitary(id(0), 0);
        n.successors = vec![id(4), id(6), id(9), id(12)];
        // All fingers are self; key 10 → farthest live successor < 10.
        let got = n.closest_preceding(&id(10), |_| true);
        assert_eq!(got, id(9));
    }

    #[test]
    fn closest_preceding_returns_self_when_stuck() {
        let n = ChordNode::solitary(id(0), 0);
        assert_eq!(n.closest_preceding(&id(10), |_| true), id(0));
    }

    #[test]
    fn finger_iter_desc_order() {
        let n = ChordNode::solitary(id(0), 0);
        let idx: Vec<usize> = n.fingers.iter_desc().map(|(i, _)| i).take(3).collect();
        assert_eq!(idx, vec![159, 158, 157]);
    }
}
