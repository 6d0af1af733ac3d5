//! Real-socket transport for the PeerTrack daemon.
//!
//! The simulator moves messages as Rust values through an event queue;
//! this crate is the first layer where they cross a process boundary
//! for real. It is deliberately tiny and std-only (hermetic policy —
//! no tokio, no mio): a 4-byte big-endian length prefix around each
//! [`peertrack::codec`]-encoded payload. There is no server type and no
//! connection cache here: the daemon's engine owns its listener and its
//! one nonblocking link per peer, and drives both from one readiness
//! loop.
//!
//! Three pieces:
//!
//! * [`frame`] — `write_frame`/`read_frame` with a [`frame::MAX_FRAME_BYTES`]
//!   guard mirroring the codec's own `MAX_VECTOR_LEN` hardening: a
//!   hostile length prefix is rejected by arithmetic before any
//!   allocation is sized from it.
//! * [`conn`] — blocking [`conn::dial`] under a [`conn::Backoff`]
//!   schedule (the same `timeout · factor^(attempt−1)` shape as
//!   `peertrack::RetryConfig`) and [`conn::request`], for callers that
//!   run outside an engine loop: the pre-loop join, `peertrackd ctl`,
//!   the loopback harness.
//! * [`nio`] — nonblocking building blocks ([`nio::NbListener`],
//!   [`nio::NbConn`], [`nio::FrameAccum`], [`nio::Doorbell`]) for the
//!   daemon's readiness-driven event loop: many frames in flight per
//!   connection, explicit write buffering for backpressure, and an
//!   idle wait that blocks until a socket has something to read.

#![forbid(unsafe_code)]

pub mod conn;
pub mod frame;
pub mod nio;

pub use conn::{dial, request, Backoff};
pub use frame::{read_frame, write_frame, MAX_FRAME_BYTES};
pub use nio::{Doorbell, FrameAccum, NbConn, NbListener};
