//! A Chord distributed hash table, simulated deterministically.
//!
//! The paper builds its indexing layer "on top of the DHT (Distributed
//! Hash Table) based overlay network" and "adopt\[s\] Chord \[26\] as the
//! overlay for its adaptiveness as nodes join and leave" (§III). This
//! crate implements Chord (Stoica et al., SIGCOMM 2001) as a deterministic
//! in-process structure:
//!
//! * every node keeps a 160-entry **finger table**, a **successor list**
//!   and a predecessor pointer, exactly as in the protocol;
//! * [`Ring::lookup`] routes **iteratively through finger tables** — not
//!   through global knowledge — counting overlay hops and recording the
//!   routing path (the path is what lets PeerTrack answer queries at an
//!   *intermediate node*, §IV-B);
//! * [`Ring::join`] and [`Ring::leave`] reshape the ring and report which
//!   key ranges must migrate ("when new peer joins, only a small portion
//!   of nodes will migrate their data", §IV-B);
//! * stale fingers after churn are routed around via successor lists and
//!   repaired by [`Ring::stabilize_all`] / [`Ring::stabilize_round`].
//!
//! Message costs are *reported* (hop counts, maintenance message tallies)
//! rather than sent through a socket: the consumer charges them to a
//! [`simnet`](../simnet/index.html) metrics tally, which is precisely the
//! level at which OverSim's statistics were collected in the paper.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod node;
pub mod ring;

pub use node::{ChordNode, FingerTable, SUCCESSOR_LIST_LEN};
pub use ring::{JoinOutcome, LeaveOutcome, LookupError, LookupResult, Migration, Ring};
