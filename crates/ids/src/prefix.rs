//! Bit-string prefixes — the group keys of §IV-A.
//!
//! Two objects belong to the same group when their hashed ids share the
//! first `Lp` bits. A [`Prefix`] is that shared bit string; its
//! [`Prefix::gateway_id`] is the DHT key the group is indexed under
//! ("objects belonging to the group \"00\" will be indexed in the node
//! hash(\"00\")").
//!
//! The Data Triangle (§IV-A.2) relates a parent prefix `p` to its two
//! children `p+'0'` and `p+'1'`, and the splitting/merging process walks
//! up and down this implicit binary trie — [`Prefix::child`],
//! [`Prefix::parent`] and [`Prefix::matches`] are exactly those moves.

use crate::id::Id;
use crate::ID_BITS;
use std::fmt;

/// A prefix of up to 160 bits of an identifier.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Prefix {
    /// Bits, MSB-first, padded with zeros past `len`.
    bits: [u8; 8],
    /// Number of significant bits (0 ..= 64). Practical `Lp` values are
    /// tiny (≤ ~2·log2 Nn ≈ 20 for the paper's largest network), so 64
    /// bits of storage is ample and keeps `Prefix` `Copy`.
    len: u8,
}

/// Longest representable prefix, in bits.
pub const MAX_PREFIX_BITS: usize = 64;

impl Prefix {
    /// The empty prefix (matches every id).
    pub const ROOT: Prefix = Prefix { bits: [0; 8], len: 0 };

    /// The first `len` bits of `id`.
    ///
    /// # Panics
    /// If `len > 64` (no realistic `Lp` comes close; see Eq. 6).
    pub fn of_id(id: &Id, len: usize) -> Prefix {
        assert!(len <= MAX_PREFIX_BITS, "prefix length {len} exceeds {MAX_PREFIX_BITS}");
        let mut bits = [0u8; 8];
        bits.copy_from_slice(&id.0[..8]);
        // Zero everything past `len` so equal prefixes compare equal.
        let mut p = Prefix { bits, len: len as u8 };
        p.mask_tail();
        p
    }

    /// Parse a `'0'`/`'1'` string, e.g. `"0010"`.
    pub fn from_bit_str(s: &str) -> Prefix {
        assert!(s.len() <= MAX_PREFIX_BITS);
        let mut p = Prefix { bits: [0; 8], len: s.len() as u8 };
        for (i, c) in s.chars().enumerate() {
            match c {
                '1' => p.bits[i / 8] |= 1 << (7 - i % 8),
                '0' => {}
                _ => panic!("invalid bit char {c:?}"),
            }
        }
        p
    }

    fn mask_tail(&mut self) {
        let len = self.len as usize;
        for i in 0..8 {
            let bit_start = i * 8;
            if bit_start >= len {
                self.bits[i] = 0;
            } else if bit_start + 8 > len {
                let keep = len - bit_start;
                self.bits[i] &= 0xFFu8 << (8 - keep);
            }
        }
    }

    /// Number of bits in this prefix (`Lp` when it is a group id).
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// True for the empty (root) prefix.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Bit `i` (MSB-first).
    pub fn bit(&self, i: usize) -> bool {
        debug_assert!(i < self.len as usize);
        (self.bits[i / 8] >> (7 - i % 8)) & 1 == 1
    }

    /// Does `id` start with this prefix? This is the `filter` predicate in
    /// the Fig. 5 refresh algorithms.
    pub fn matches(&self, id: &Id) -> bool {
        (0..self.len as usize).all(|i| self.bit(i) == id.bit(i))
    }

    /// Extend by one bit: `p + '0'` or `p + '1'` — the two child roles of
    /// a Data Triangle.
    pub fn child(&self, one: bool) -> Prefix {
        assert!((self.len as usize) < MAX_PREFIX_BITS, "prefix at max length");
        let mut p = *self;
        if one {
            let i = p.len as usize;
            p.bits[i / 8] |= 1 << (7 - i % 8);
        }
        p.len += 1;
        p
    }

    /// Drop the last bit (the parent in the trie); `None` at the root.
    pub fn parent(&self) -> Option<Prefix> {
        if self.len == 0 {
            return None;
        }
        let mut p = *self;
        p.len -= 1;
        p.mask_tail();
        Some(p)
    }

    /// Truncate to the first `len` bits (used by `refresh_from_ascent`,
    /// Fig. 5: `p' ← p.sub(1, Lp − i)`).
    pub fn truncate(&self, len: usize) -> Prefix {
        assert!(len <= self.len as usize);
        let mut p = *self;
        p.len = len as u8;
        p.mask_tail();
        p
    }

    /// Is `self` an ancestor of (or equal to) `other` in the trie?
    pub fn is_prefix_of(&self, other: &Prefix) -> bool {
        self.len <= other.len && (0..self.len as usize).all(|i| self.bit(i) == other.bit(i))
    }

    /// Canonical `'0'`/`'1'` string, the paper's textual group id.
    pub fn as_bit_string(&self) -> String {
        (0..self.len as usize)
            .map(|i| if self.bit(i) { '1' } else { '0' })
            .collect()
    }

    /// The DHT key this group is indexed under: `hash(group id)`.
    ///
    /// The paper stores group `"00"` at node `hash("00")`; we hash the
    /// canonical bit string with a length tag so that e.g. `"0"` and
    /// `"00"` can never collide with each other's raw encodings.
    pub fn gateway_id(&self) -> Id {
        const TAG: &[u8] = b"grp:";
        let mut key = [0u8; TAG.len() + MAX_PREFIX_BITS];
        key[..TAG.len()].copy_from_slice(TAG);
        for i in 0..self.len() {
            key[TAG.len() + i] = if self.bit(i) { b'1' } else { b'0' };
        }
        Id::hash(&key[..TAG.len() + self.len()])
    }

    /// Canonical 9-byte wire form: length byte followed by the 8 bit
    /// bytes (tail already masked to zero).
    pub fn wire_bytes(&self) -> [u8; 9] {
        let mut out = [0u8; 9];
        out[0] = self.len;
        out[1..].copy_from_slice(&self.bits);
        out
    }

    /// Parse the wire form; rejects over-long lengths and unmasked tail
    /// bits (which would break prefix equality).
    pub fn from_wire_bytes(raw: &[u8; 9]) -> Result<Prefix, String> {
        if raw[0] as usize > MAX_PREFIX_BITS {
            return Err(format!("prefix length {} exceeds {MAX_PREFIX_BITS}", raw[0]));
        }
        let mut bits = [0u8; 8];
        bits.copy_from_slice(&raw[1..]);
        let candidate = Prefix { bits, len: raw[0] };
        let mut masked = candidate;
        masked.mask_tail();
        if masked.bits != candidate.bits {
            return Err("prefix tail bits not zeroed".into());
        }
        Ok(candidate)
    }

    /// Enumerate all `2^len` prefixes of a given length, in numeric order.
    /// Useful for tests and for load-balance accounting (§V-C).
    pub fn enumerate(len: usize) -> impl Iterator<Item = Prefix> {
        assert!(len <= 20, "enumerating 2^{len} prefixes is unreasonable");
        (0u64..(1u64 << len)).map(move |v| {
            let mut p = Prefix { bits: [0; 8], len: len as u8 };
            for i in 0..len {
                if (v >> (len - 1 - i)) & 1 == 1 {
                    p.bits[i / 8] |= 1 << (7 - i % 8);
                }
            }
            p
        })
    }
}

impl fmt::Debug for Prefix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Prefix(\"{}\")", self.as_bit_string())
    }
}

impl fmt::Display for Prefix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.as_bit_string())
    }
}

/// Assert a valid prefix length at most `ID_BITS` (compile-time guard for
/// generic call sites).
pub fn check_len(len: usize) {
    assert!(len <= ID_BITS);
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptiny::prelude::*;
    use detrand::{rngs::StdRng, SeedableRng};

    #[test]
    fn of_id_matches_bit_string() {
        let id = Id::hash(b"object-1");
        let p = Prefix::of_id(&id, 10);
        assert_eq!(p.as_bit_string(), id.bit_prefix_string(10));
        assert!(p.matches(&id));
    }

    #[test]
    fn root_matches_everything() {
        let id = Id::hash(b"x");
        assert!(Prefix::ROOT.matches(&id));
        assert_eq!(Prefix::ROOT.len(), 0);
    }

    #[test]
    fn from_bit_str_roundtrip() {
        for s in ["", "0", "1", "0010", "1111000010"] {
            assert_eq!(Prefix::from_bit_str(s).as_bit_string(), s);
        }
    }

    #[test]
    fn child_parent_roundtrip() {
        let p = Prefix::from_bit_str("010");
        assert_eq!(p.child(false).as_bit_string(), "0100");
        assert_eq!(p.child(true).as_bit_string(), "0101");
        assert_eq!(p.child(true).parent().unwrap(), p);
        assert_eq!(Prefix::ROOT.parent(), None);
    }

    #[test]
    fn tail_is_masked_so_equality_works() {
        let id1 = Id::hash(b"a");
        // Two ids sharing first 4 bits must yield equal 4-bit prefixes even
        // if later bits differ. Construct by truncation of longer prefixes.
        let p8 = Prefix::of_id(&id1, 8);
        let p4a = p8.truncate(4);
        let p4b = Prefix::of_id(&id1, 4);
        assert_eq!(p4a, p4b);
    }

    #[test]
    fn children_gateways_differ_from_parent() {
        let p = Prefix::from_bit_str("000");
        let g = p.gateway_id();
        assert_ne!(g, p.child(false).gateway_id());
        assert_ne!(g, p.child(true).gateway_id());
        assert_ne!(p.child(false).gateway_id(), p.child(true).gateway_id());
    }

    #[test]
    fn gateway_length_tagged() {
        // "0" followed by nothing must differ from "00".
        assert_ne!(
            Prefix::from_bit_str("0").gateway_id(),
            Prefix::from_bit_str("00").gateway_id()
        );
    }

    #[test]
    fn gateway_ids_are_pinned_for_every_length() {
        let id = Id::hash(b"gateway-golden");
        let mut fold = Vec::new();
        for len in 0..=MAX_PREFIX_BITS {
            let p = Prefix::of_id(&id, len);
            let g = p.gateway_id();
            assert_eq!(g, Id::hash_str(&format!("grp:{p}")), "length {len}");
            fold.extend_from_slice(&g.0);
        }
        assert_eq!(Id::hash(&fold).to_hex(), "0cc316d884716de3e605b7056e1f3a53bfe5df69");
    }

    #[test]
    fn enumerate_covers_space() {
        let all: Vec<_> = Prefix::enumerate(4).collect();
        assert_eq!(all.len(), 16);
        let strings: std::collections::BTreeSet<_> =
            all.iter().map(|p| p.as_bit_string()).collect();
        assert_eq!(strings.len(), 16);
        assert!(strings.contains("0000") && strings.contains("1111"));
    }

    #[test]
    fn wire_roundtrip() {
        for s in ["", "1", "0101", "111100001111"] {
            let p = Prefix::from_bit_str(s);
            assert_eq!(Prefix::from_wire_bytes(&p.wire_bytes()).unwrap(), p);
        }
    }

    #[test]
    fn wire_rejects_bad_input() {
        let mut raw = Prefix::from_bit_str("01").wire_bytes();
        raw[0] = 65; // over max length
        assert!(Prefix::from_wire_bytes(&raw).is_err());
        let mut raw = Prefix::from_bit_str("01").wire_bytes();
        raw[8] = 0xFF; // unmasked tail
        assert!(Prefix::from_wire_bytes(&raw).is_err());
    }

    #[test]
    fn is_prefix_of_trie_order() {
        let a = Prefix::from_bit_str("01");
        let b = Prefix::from_bit_str("0110");
        assert!(a.is_prefix_of(&b));
        assert!(!b.is_prefix_of(&a));
        assert!(a.is_prefix_of(&a));
        assert!(Prefix::ROOT.is_prefix_of(&b));
    }

    proptiny! {
        #[test]
        fn prop_of_id_matches(seed in any::<u64>(), len in 0usize..=64) {
            let mut rng = StdRng::seed_from_u64(seed);
            let id = Id::random(&mut rng);
            let p = Prefix::of_id(&id, len);
            prop_assert!(p.matches(&id));
            prop_assert_eq!(p.len(), len);
        }

        #[test]
        fn prop_sibling_partition(seed in any::<u64>(), len in 0usize..63) {
            // Exactly one of the two children of an id's prefix matches it.
            let mut rng = StdRng::seed_from_u64(seed);
            let id = Id::random(&mut rng);
            let p = Prefix::of_id(&id, len);
            let m0 = p.child(false).matches(&id);
            let m1 = p.child(true).matches(&id);
            prop_assert!(m0 ^ m1);
        }

        #[test]
        fn prop_truncate_is_ancestor(seed in any::<u64>(), len in 1usize..=64, cut in 0usize..=64) {
            prop_assume!(cut <= len);
            let mut rng = StdRng::seed_from_u64(seed);
            let id = Id::random(&mut rng);
            let p = Prefix::of_id(&id, len);
            let t = p.truncate(cut);
            prop_assert!(t.is_prefix_of(&p));
            prop_assert!(t.matches(&id));
        }

        #[test]
        fn prop_gateway_deterministic(s in "[01]{0,32}") {
            let p = Prefix::from_bit_str(&s);
            prop_assert_eq!(p.gateway_id(), Prefix::from_bit_str(&s).gateway_id());
        }
    }
}
