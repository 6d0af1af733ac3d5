//! `peertrackd`: one PeerTrack/Chord node served over real sockets.
//!
//! The simulator (`peertrack::NetWorld`) holds every site in one
//! process and charges costs to a virtual clock. This crate is the
//! real-network execution path for the *same* protocol state machines:
//! each [`node::Node`] owns one site's window buffer, IOP repository
//! and gateway store, talks to its peers through
//! [`transport`](../transport/index.html) framed TCP, and keeps the
//! simulator's accounting model (messages / model-bytes / overlay
//! hops per [`simnet::metrics::MsgClass`]) so a loopback cluster can
//! be verified **against the simulator oracle** — same workload, same
//! seeds, same counts.
//!
//! Nodes are durable when given a `--data-dir`: every state mutation
//! is written ahead to a checksummed log ([`state::WalRecord`] via
//! [`durable`]) and periodically folded into an atomic snapshot, so a
//! killed node recovers its exact state — [`node::Core`] is the
//! socket-free deterministic state machine both the live engine and
//! the replay path share.
//!
//! Layout:
//!
//! * [`proto`] — the socket wire format ([`proto::Frame`]);
//! * [`state`] — the WAL record vocabulary + canonical state encoding;
//! * [`node`] — the replayable core, the socket engine and its handle;
//! * [`cluster`] — the in-process loopback cluster harness;
//! * `peertrackd` (binary) — CLI wrapper to run one node per process.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cluster;
pub mod node;
pub mod proto;
pub mod state;

pub use cluster::{LoopbackCluster, ScheduleCursor};
pub use node::{Core, Node, NodeConfig, NodeReport, Outbound, INBOX_CAP, OUTBOX_LIMIT_BYTES};
pub use proto::{CostWire, Frame, ProtoError};
pub use state::WalRecord;
