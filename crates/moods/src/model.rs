//! Vocabulary types and the `L`/`TR` traits.

use ids::Id;
use simnet::SimTime;
use std::fmt;

/// A logical traceable-network node (`n ∈ N`): one organization's
/// repository — a warehouse, a distribution centre, a retail store.
///
/// Sites are dense application-level indices; the binding to a DHT/ring
/// identity is owned by the tracking backend.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SiteId(pub u32);

impl fmt::Debug for SiteId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Display for SiteId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// An object's identity in the system: the SHA-1 hash of its raw id
/// (EPC), per §III footnote 1. Newtype over [`Id`] so object keys and
/// ring/node ids cannot be confused in signatures.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ObjectId(pub Id);

impl ObjectId {
    /// Hash a raw id (EPC binary encoding, URI, etc.) into an object id.
    pub fn from_raw(raw: &[u8]) -> ObjectId {
        ObjectId(Id::hash(raw))
    }

    /// The underlying ring identifier.
    pub fn id(&self) -> Id {
        self.0
    }
}

impl fmt::Debug for ObjectId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "o:{}", &self.0.to_hex()[..8])
    }
}

/// One stay at a site: `[arrived, departed)` where `departed` is the
/// arrival at the next site (`None` while the object is still there).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Visit {
    /// The site visited.
    pub site: SiteId,
    /// Arrival (capture) time.
    pub arrived: SimTime,
    /// Arrival time at the *next* site, if the object has moved on.
    pub departed: Option<SimTime>,
}

impl Visit {
    /// Does this stay overlap the closed interval `[t0, t1]`?
    pub fn overlaps(&self, t0: SimTime, t1: SimTime) -> bool {
        let ends = self.departed.unwrap_or(SimTime::INFINITY);
        self.arrived <= t1 && ends > t0
    }
}

/// A path `P`: visits sorted by arrival time (Eq. 3's "sorted list of
/// nodes ... by the order of the nodes visited").
pub type Path = Vec<Visit>;

/// The locating function `L(o, t)` (Eq. 1).
///
/// Semantics: an object is *at* the site of its most recent capture at or
/// before `t`; `None` means the object is not (yet) in the system —
/// Eq. 1's `nil`, "nowhere". (Receptors observe arrivals; between an
/// arrival and the next one the object is attributed to the last site
/// that saw it, which is exactly the information a traceable network
/// possesses.)
pub trait Locate {
    /// Where was/is `object` at time `t`?
    fn locate(&self, object: ObjectId, t: SimTime) -> Option<SiteId>;
}

/// The trace function `TR(o, t_start, t_end)` (Eq. 2): every visit that
/// overlaps the window, in visit order. An empty path means the object
/// was nowhere in the system during the window.
pub trait Trace {
    /// The object's path during `[t_start, t_end]`.
    fn trace(&self, object: ObjectId, t_start: SimTime, t_end: SimTime) -> Path;
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::time::ms;

    #[test]
    fn visit_overlap_rules() {
        let v = Visit { site: SiteId(1), arrived: ms(10), departed: Some(ms(20)) };
        assert!(v.overlaps(ms(0), ms(10))); // touches arrival boundary
        assert!(v.overlaps(ms(15), ms(15)));
        assert!(v.overlaps(ms(19), ms(100)));
        assert!(!v.overlaps(ms(20), ms(30))); // departed at 20, half-open
        assert!(!v.overlaps(ms(0), ms(9)));
    }

    #[test]
    fn open_visit_overlaps_any_future() {
        let v = Visit { site: SiteId(1), arrived: ms(10), departed: None };
        assert!(v.overlaps(ms(1_000_000), ms(2_000_000)));
        assert!(!v.overlaps(ms(0), ms(9)));
    }

    #[test]
    fn object_id_from_raw_is_sha1() {
        let o = ObjectId::from_raw(b"urn:epc:id:sgtin:1.2.3");
        assert_eq!(o.id(), Id::hash(b"urn:epc:id:sgtin:1.2.3"));
    }

    #[test]
    fn display_forms() {
        assert_eq!(format!("{}", SiteId(3)), "n3");
        assert_eq!(format!("{:?}", SiteId(3)), "n3");
    }
}
