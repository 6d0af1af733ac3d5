//! MOODS — a Model for mOving Objects in Discrete Space (paper §II).
//!
//! The paper abstracts traceability applications into *traceable
//! networks* (§II-A): **nodes** (logical partners — a distribution
//! centre, a retail store) govern **receptors** (RFID readers at fixed
//! locations) that capture **objects** (tagged goods). Physical object
//! flow becomes digital *information flow* at the receptors.
//!
//! On top of that sits the MOODS model (§II-B): time is continuous, space
//! is the finite, dynamic node set `N`, and two functions define all
//! queries —
//!
//! ```text
//! L(o, t)              : O × T     → N ∪ {nil}     (Eq. 1, locate)
//! TR(o, t_start, t_end): O × T × T → P             (Eq. 2, trace)
//! ```
//!
//! where `P` is the domain of paths: node lists sorted by visit time
//! (Eq. 3).
//!
//! This crate defines the vocabulary types, the [`Locate`]/[`Trace`]
//! traits every tracking backend implements (PeerTrack and the
//! centralized baseline both do), and [`MovementLog`] — an oracle that
//! answers `L`/`TR` from a complete, centrally recorded movement history.
//! The oracle is the *semantic reference*: property tests assert that the
//! distributed IOP reconstruction agrees with it exactly.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod log;
pub mod model;

pub use log::MovementLog;
pub use model::{Locate, ObjectId, Path, SiteId, Trace, Visit};
