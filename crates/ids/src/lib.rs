//! Identifier substrate for PeerTrack.
//!
//! The paper hashes every raw object id (an EPC code) with SHA-1 so that
//! object ids and node ids live in the same 160-bit Chord key space
//! (§III, footnote 1). Groups are formed by the `Lp`-bit *prefix* of the
//! hashed id (§IV-A), and a group's gateway node is the DHT successor of
//! `hash(prefix)`.
//!
//! This crate provides, from scratch (no external crypto dependency):
//!
//! * [`Id`] — a 160-bit ring identifier with the modular arithmetic Chord
//!   needs (clockwise intervals, `+ 2^k`, distance);
//! * [`Sha1`] — the SHA-1 function used to derive ids;
//! * [`EpcCode`] — SGTIN-96 electronic product codes for realistic raw ids;
//! * [`Prefix`] — bit-string prefixes of ids, the group keys of §IV.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod epc;
pub mod id;
pub mod intern;
pub mod prefix;
pub mod sha1;

pub use epc::EpcCode;
pub use id::Id;
pub use intern::Interner;
pub use prefix::Prefix;
pub use sha1::Sha1;

/// Number of bits in an identifier (`L` in the paper's Fig. 3).
pub const ID_BITS: usize = 160;

/// Number of bytes in an identifier.
pub const ID_BYTES: usize = ID_BITS / 8;
