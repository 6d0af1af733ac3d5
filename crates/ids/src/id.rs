//! 160-bit ring identifiers.
//!
//! Both nodes and (hashed) objects live in the same identifier space
//! (§III footnote 1). Chord (§III, \[26\]) needs three pieces of arithmetic
//! on this space, all modulo `2^160`:
//!
//! * total order ([`Ord`]) for successor selection,
//! * clockwise interval membership ([`Id::in_interval_oc`] and friends)
//!   for routing and stabilization,
//! * `n + 2^k` ([`Id::add_pow2`]) for finger-table targets.
//!
//! Ids are stored big-endian so that byte-wise comparison equals numeric
//! comparison and the prefix of the *bit string* (used for grouping in
//! §IV-A) is the prefix of the byte array. Equality and order read the
//! bytes as three big-endian words (`u64`, `u64`, `u32`), which orders
//! exactly as the bytes do in three compares instead of a `memcmp` call.

use crate::sha1::Sha1;
use crate::{ID_BITS, ID_BYTES};
use detrand::Rng;
use std::cmp::Ordering;
use std::fmt;

/// A 160-bit identifier on the Chord ring.
// Equality below is byte equality, so the derived byte hash agrees with it.
#[allow(clippy::derived_hash_with_manual_eq)]
#[derive(Clone, Copy, Hash)]
pub struct Id(pub [u8; ID_BYTES]);

impl PartialEq for Id {
    #[inline]
    fn eq(&self, other: &Id) -> bool {
        self.words() == other.words()
    }
}

impl Eq for Id {}

impl Ord for Id {
    #[inline]
    fn cmp(&self, other: &Id) -> Ordering {
        self.words().cmp(&other.words())
    }
}

impl PartialOrd for Id {
    #[inline]
    fn partial_cmp(&self, other: &Id) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Id {
    /// The identifier with all bits zero.
    pub const ZERO: Id = Id([0u8; ID_BYTES]);

    /// The identifier with all bits one (`2^160 - 1`).
    pub const MAX: Id = Id([0xFF; ID_BYTES]);

    /// The bytes as three big-endian words, most significant first.
    #[inline]
    fn words(&self) -> (u64, u64, u32) {
        let b = &self.0;
        (
            u64::from_be_bytes(b[..8].try_into().expect("8 bytes")),
            u64::from_be_bytes(b[8..16].try_into().expect("8 bytes")),
            u32::from_be_bytes(b[16..].try_into().expect("4 bytes")),
        )
    }

    /// Hash arbitrary bytes into the identifier space with SHA-1,
    /// exactly as the paper derives object and group ids.
    pub fn hash(data: &[u8]) -> Id {
        Id(Sha1::digest(data))
    }

    /// Hash a string key (e.g. a node's external address or a prefix's
    /// canonical form like `"00"`).
    pub fn hash_str(key: &str) -> Id {
        Id::hash(key.as_bytes())
    }

    /// Draw a uniformly random identifier.
    pub fn random<R: Rng + ?Sized>(rng: &mut R) -> Id {
        let mut b = [0u8; ID_BYTES];
        rng.fill(&mut b[..]);
        Id(b)
    }

    /// Build an id from a `u64`, placed in the low-order bytes.
    /// Handy for readable tests.
    pub fn from_u64(v: u64) -> Id {
        let mut b = [0u8; ID_BYTES];
        b[ID_BYTES - 8..].copy_from_slice(&v.to_be_bytes());
        Id(b)
    }

    /// Read the low-order 64 bits.
    pub fn low_u64(&self) -> u64 {
        let mut w = [0u8; 8];
        w.copy_from_slice(&self.0[ID_BYTES - 8..]);
        u64::from_be_bytes(w)
    }

    /// Bit `i` counting from the most significant (bit 0 is the MSB).
    /// Grouping by `Lp`-bit prefixes (§IV-A) reads bits in this order.
    pub fn bit(&self, i: usize) -> bool {
        debug_assert!(i < ID_BITS);
        (self.0[i / 8] >> (7 - i % 8)) & 1 == 1
    }

    /// `(self + 2^k) mod 2^160`, `k < 160`. Finger `i` of node `n` targets
    /// `n + 2^i` (\[26\] §4.2; our fingers use `k = i`).
    pub fn add_pow2(&self, k: usize) -> Id {
        debug_assert!(k < ID_BITS);
        let mut out = self.0;
        let byte = ID_BYTES - 1 - k / 8;
        let mut carry = 1u16 << (k % 8);
        let mut i = byte as isize;
        while carry > 0 && i >= 0 {
            let sum = out[i as usize] as u16 + carry;
            out[i as usize] = (sum & 0xFF) as u8;
            carry = sum >> 8;
            i -= 1;
        }
        // Overflow past the MSB wraps around the ring (mod 2^160): drop it.
        Id(out)
    }

    /// `(self + 1) mod 2^160`.
    pub fn succ(&self) -> Id {
        let mut out = self.0;
        for b in out.iter_mut().rev() {
            let (v, ovf) = b.overflowing_add(1);
            *b = v;
            if !ovf {
                break;
            }
        }
        Id(out)
    }

    /// Clockwise distance from `self` to `to` on the ring
    /// (`(to - self) mod 2^160`).
    pub fn distance_to(&self, to: &Id) -> Id {
        let mut out = [0u8; ID_BYTES];
        let mut borrow = 0i16;
        for i in (0..ID_BYTES).rev() {
            let d = to.0[i] as i16 - self.0[i] as i16 - borrow;
            if d < 0 {
                out[i] = (d + 256) as u8;
                borrow = 1;
            } else {
                out[i] = d as u8;
                borrow = 0;
            }
        }
        Id(out)
    }

    /// Membership in the *clockwise open-closed* interval `(a, b]`.
    /// This is the interval Chord uses to decide whether a key belongs to
    /// a successor. When `a == b` the interval is the whole ring.
    pub fn in_interval_oc(&self, a: &Id, b: &Id) -> bool {
        if a == b {
            return true;
        }
        if a < b {
            a < self && self <= b
        } else {
            self > a || self <= b
        }
    }

    /// Membership in the clockwise *open-open* interval `(a, b)`.
    /// When `a == b` the interval is the whole ring minus the endpoint.
    pub fn in_interval_oo(&self, a: &Id, b: &Id) -> bool {
        if a == b {
            return self != a;
        }
        if a < b {
            a < self && self < b
        } else {
            self > a || self < b
        }
    }

    /// Lowercase hex rendering of the full 160 bits.
    pub fn to_hex(&self) -> String {
        self.0.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// The first `len` bits as a `'0'`/`'1'` string — the canonical group
    /// id of §IV-A ("objects belonging to the group \"00\"").
    pub fn bit_prefix_string(&self, len: usize) -> String {
        (0..len).map(|i| if self.bit(i) { '1' } else { '0' }).collect()
    }
}

impl fmt::Debug for Id {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Eight hex chars identify an id unambiguously in test logs.
        write!(f, "Id({}..)", &self.to_hex()[..8])
    }
}

impl fmt::Display for Id {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_hex())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptiny::prelude::*;
    use detrand::{rngs::StdRng, SeedableRng};

    #[test]
    fn from_u64_roundtrip() {
        for v in [0u64, 1, 42, u64::MAX] {
            assert_eq!(Id::from_u64(v).low_u64(), v);
        }
    }

    #[test]
    fn ordering_matches_numeric() {
        assert!(Id::from_u64(1) < Id::from_u64(2));
        assert!(Id::ZERO < Id::MAX);
        let mut hi = [0u8; ID_BYTES];
        hi[0] = 1; // 2^152
        assert!(Id(hi) > Id::from_u64(u64::MAX));
    }

    #[test]
    fn add_pow2_low_bits() {
        assert_eq!(Id::ZERO.add_pow2(0), Id::from_u64(1));
        assert_eq!(Id::ZERO.add_pow2(10), Id::from_u64(1024));
        assert_eq!(Id::from_u64(1).add_pow2(1), Id::from_u64(3));
    }

    #[test]
    fn add_pow2_carry_chain() {
        // 0xFF..FF + 1 wraps to zero.
        assert_eq!(Id::MAX.add_pow2(0), Id::ZERO);
        // 0x00FF + 1 = 0x0100 (carry across one byte).
        assert_eq!(Id::from_u64(0xFF).add_pow2(0), Id::from_u64(0x100));
    }

    #[test]
    fn add_pow2_msb_wraps() {
        // Adding 2^159 twice returns to the start (mod 2^160).
        let x = Id::from_u64(7);
        assert_eq!(x.add_pow2(159).add_pow2(159), x);
    }

    #[test]
    fn succ_wraps() {
        assert_eq!(Id::MAX.succ(), Id::ZERO);
        assert_eq!(Id::from_u64(9).succ(), Id::from_u64(10));
    }

    #[test]
    fn interval_oc_basic() {
        let (a, b) = (Id::from_u64(10), Id::from_u64(20));
        assert!(Id::from_u64(15).in_interval_oc(&a, &b));
        assert!(Id::from_u64(20).in_interval_oc(&a, &b));
        assert!(!Id::from_u64(10).in_interval_oc(&a, &b));
        assert!(!Id::from_u64(25).in_interval_oc(&a, &b));
    }

    #[test]
    fn interval_oc_wrapping() {
        // Interval (MAX-ish, 5] wraps through zero.
        let a = Id::from_u64(u64::MAX);
        let b = Id::from_u64(5);
        assert!(Id::from_u64(0).in_interval_oc(&a, &b));
        assert!(Id::from_u64(5).in_interval_oc(&a, &b));
        assert!(Id::MAX.in_interval_oc(&a, &b)); // > a numerically
        assert!(!Id::from_u64(6).in_interval_oc(&a, &b));
    }

    #[test]
    fn interval_degenerate_is_full_ring() {
        let a = Id::from_u64(42);
        assert!(Id::from_u64(999).in_interval_oc(&a, &a));
        assert!(a.in_interval_oc(&a, &a));
        assert!(!a.in_interval_oo(&a, &a));
        assert!(Id::from_u64(999).in_interval_oo(&a, &a));
    }

    #[test]
    fn bit_reads_msb_first() {
        let mut b = [0u8; ID_BYTES];
        b[0] = 0b1010_0000;
        let id = Id(b);
        assert!(id.bit(0));
        assert!(!id.bit(1));
        assert!(id.bit(2));
        assert!(!id.bit(3));
        assert_eq!(id.bit_prefix_string(4), "1010");
    }

    #[test]
    fn hash_matches_sha1() {
        assert_eq!(Id::hash(b"abc").0, Sha1::digest(b"abc"));
        assert_eq!(Id::hash_str("abc"), Id::hash(b"abc"));
    }

    #[test]
    fn distance_to_is_clockwise() {
        let a = Id::from_u64(10);
        let b = Id::from_u64(25);
        assert_eq!(a.distance_to(&b), Id::from_u64(15));
        // Wrapping: distance from 25 back around to 10.
        let d = b.distance_to(&a);
        // d = 2^160 - 15; check by adding 15 back via succ.
        let mut x = d;
        for _ in 0..15 {
            x = x.succ();
        }
        assert_eq!(x, Id::ZERO);
    }

    proptiny! {
        #[test]
        fn prop_interval_oc_complement(x in any::<u64>(), a in any::<u64>(), b in any::<u64>()) {
            // Every point is in exactly one of (a,b] and (b,a] unless it
            // equals an endpoint situation; with a != b the two half-open
            // intervals partition the ring.
            let (x, a, b) = (Id::from_u64(x), Id::from_u64(a), Id::from_u64(b));
            prop_assume!(a != b);
            let in_ab = x.in_interval_oc(&a, &b);
            let in_ba = x.in_interval_oc(&b, &a);
            prop_assert!(in_ab ^ in_ba);
        }

        #[test]
        fn prop_add_pow2_matches_u64(v in 0u64..u64::MAX / 2, k in 0usize..62) {
            prop_assume!(v.checked_add(1u64 << k).is_some());
            prop_assert_eq!(
                Id::from_u64(v).add_pow2(k),
                Id::from_u64(v + (1u64 << k))
            );
        }

        #[test]
        fn prop_distance_roundtrip(a in any::<u64>(), steps in 0usize..1000) {
            // a + distance(a, b) == b, verified via repeated succ.
            let ida = Id::from_u64(a);
            let mut idb = ida;
            for _ in 0..steps {
                idb = idb.succ();
            }
            prop_assert_eq!(ida.distance_to(&idb), Id::from_u64(steps as u64));
        }

        /// The word-wise order equals the byte order. Ids sharing their
        /// first 8 or 16 bytes make the second or the third word decide;
        /// sharing all 20 draws equal ids.
        #[test]
        fn prop_order_is_byte_order(seed in any::<u64>(), shared in 0usize..4) {
            let mut rng = StdRng::seed_from_u64(seed);
            let a = Id::random(&mut rng);
            let mut b = Id::random(&mut rng);
            let n = [0, 8, 16, ID_BYTES][shared];
            b.0[..n].copy_from_slice(&a.0[..n]);
            prop_assert_eq!(a.cmp(&b), a.0.cmp(&b.0));
            prop_assert_eq!(b.cmp(&a), b.0.cmp(&a.0));
            prop_assert_eq!(a.partial_cmp(&b), Some(a.0.cmp(&b.0)));
            prop_assert_eq!(a == b, a.0 == b.0);
            prop_assert_eq!(a < b, a.0 < b.0);
            prop_assert_eq!(a <= b, a.0 <= b.0);
        }

        #[test]
        fn prop_prefix_string_len(seed in any::<u64>(), len in 0usize..160) {
            let mut rng = StdRng::seed_from_u64(seed);
            let id = Id::random(&mut rng);
            prop_assert_eq!(id.bit_prefix_string(len).len(), len);
        }
    }
}
