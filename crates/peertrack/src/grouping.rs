//! Group generation (§IV-A.1).
//!
//! "Two objects belong to the same group when their ids have `Lp` prefix
//! bits in common." Given a flushed window, [`group_batch`] partitions
//! the observations into per-prefix groups — the unit of one group
//! indexing message.

use ids::Prefix;
use moods::ObjectId;
use simnet::SimTime;
use std::collections::BTreeMap;

/// One group: a prefix and the window's observations falling under it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Group {
    /// The group id (the shared `Lp`-bit prefix).
    pub prefix: Prefix,
    /// `(object, capture time)` members, in arrival order.
    pub members: Vec<(ObjectId, SimTime)>,
}

/// Partition a window's observations by their `lp`-bit id prefixes.
/// Groups come out in prefix order (deterministic across runs).
///
/// With `lp = 0` everything lands in a single root group — degenerate
/// but well-defined (useful for bootstrap-era networks before `Lmin`
/// kicks in).
pub fn group_batch(observations: &[(ObjectId, SimTime)], lp: usize) -> Vec<Group> {
    let mut by_prefix: BTreeMap<Prefix, Vec<(ObjectId, SimTime)>> = BTreeMap::new();
    for &(object, time) in observations {
        let p = Prefix::of_id(&object.id(), lp);
        by_prefix.entry(p).or_default().push((object, time));
    }
    by_prefix
        .into_iter()
        .map(|(prefix, members)| Group { prefix, members })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ids::Id;
    use proptiny::prelude::*;
    use simnet::time::ms;

    fn obj(n: u64) -> ObjectId {
        ObjectId(Id::hash(&n.to_be_bytes()))
    }

    #[test]
    fn members_share_prefix_and_cover_input() {
        let obs: Vec<_> = (0..1024u64).map(|i| (obj(i), ms(i))).collect();
        let groups = group_batch(&obs, 4);
        // §IV-A: 1024 objects at Lp=4 → at most 16 groups.
        assert!(groups.len() <= 16);
        let total: usize = groups.iter().map(|g| g.members.len()).sum();
        assert_eq!(total, 1024);
        for g in &groups {
            assert_eq!(g.prefix.len(), 4);
            for (o, _) in &g.members {
                assert!(g.prefix.matches(&o.id()), "member must match group prefix");
            }
        }
    }

    #[test]
    fn zero_lp_single_group() {
        let obs: Vec<_> = (0..10u64).map(|i| (obj(i), ms(i))).collect();
        let groups = group_batch(&obs, 0);
        assert_eq!(groups.len(), 1);
        assert_eq!(groups[0].prefix, Prefix::ROOT);
        assert_eq!(groups[0].members.len(), 10);
    }

    #[test]
    fn long_prefix_approaches_individual() {
        let obs: Vec<_> = (0..64u64).map(|i| (obj(i), ms(i))).collect();
        let groups = group_batch(&obs, 64);
        // SHA-1 collisions on 64 bits among 64 objects: essentially none.
        assert_eq!(groups.len(), 64);
    }

    #[test]
    fn arrival_order_preserved_within_group() {
        // Two objects with the same 0-bit prefix: order must match input.
        let obs = vec![(obj(5), ms(1)), (obj(9), ms(2)), (obj(5), ms(3))];
        let groups = group_batch(&obs, 0);
        assert_eq!(groups[0].members, obs);
    }

    #[test]
    fn empty_batch_no_groups() {
        assert!(group_batch(&[], 8).is_empty());
    }

    proptiny! {
        #[test]
        fn prop_grouping_is_a_partition(
            seeds in prop::collection::vec(any::<u64>(), 1..200),
            lp in 0usize..16,
        ) {
            let obs: Vec<_> = seeds.iter().enumerate()
                .map(|(i, s)| (obj(*s), ms(i as u64)))
                .collect();
            let groups = group_batch(&obs, lp);
            // Partition: sizes sum to input, prefixes distinct, members match.
            let total: usize = groups.iter().map(|g| g.members.len()).sum();
            prop_assert_eq!(total, obs.len());
            let mut seen = std::collections::BTreeSet::new();
            for g in &groups {
                prop_assert!(seen.insert(g.prefix), "duplicate group prefix");
                prop_assert!(g.members.len() <= obs.len());
                for (o, _) in &g.members {
                    prop_assert!(g.prefix.matches(&o.id()));
                }
            }
            // At most one group per object and per prefix of length `lp`.
            prop_assert!(groups.len() <= obs.len().min(1 << lp));
        }
    }
}
