//! **PeerTrack** — P2P object tracking in the Internet of Things.
//!
//! This crate is the paper's primary contribution (§III–§IV): a pure
//! peer-to-peer layer that lets independent organizations share
//! traceability data without a central warehouse.
//!
//! # How it works
//!
//! * Every object's **latest state is indexed at a deterministic gateway
//!   node**, found by a DHT lookup of the object's (hashed) id. Gateway
//!   nodes are "randomly chosen in an anonymous way", so no participant
//!   learns more than its own observations plus the index shards the
//!   hash function assigns it (§III).
//! * On every movement the gateway sends two updates — to the source and
//!   to the destination of the move — threading the **IOP** (Information
//!   of Object Path), "essentially a distributed double linked list
//!   sorted by time" across the nodes the object visited (§III).
//! * Because supply-chain volumes are huge and objects move in groups,
//!   the **group indexing** scheme (§IV) windows arrivals (`Tmax`,
//!   `Nmax`), groups them by the `Lp`-bit prefix of their hashed ids and
//!   indexes whole groups with one message; `Lp ≈ log₂(Nn·log₂ Nn)`
//!   (Eq. 6) keeps every node busy without exploding the group count.
//! * **Data Triangles** (§IV-A.2) — a parent prefix plus its two child
//!   prefixes — absorb changes of `Lp` and re-balance hot gateways by
//!   delegating the earliest `α·count` records to the children.
//!
//! # Entry point
//!
//! [`TraceableNetwork`] is the façade: build one with
//! [`TraceableNetwork::builder`], feed it receptor captures, drain the
//! indexing traffic, and ask MOODS queries ([`TraceableNetwork::locate`]
//! / [`TraceableNetwork::trace`]) with full message/latency accounting.
//!
//! ```
//! use peertrack::{Builder, IndexingMode};
//! use moods::{ObjectId, SiteId};
//! use simnet::time::ms;
//!
//! let mut net = Builder::new().sites(8).seed(7).build();
//! let o = ObjectId::from_raw(b"urn:epc:id:sgtin:0614141.812345.6789");
//! net.capture(SiteId(0), &[o]);
//! net.run_until(ms(10_000));
//! net.capture(SiteId(3), &[o]);
//! net.run_until_quiescent();
//! let (loc, _stats) = net.locate(SiteId(5), o, net.now());
//! assert_eq!(loc, Some(SiteId(3)));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bytebuf;
pub mod codec;
pub mod config;
pub mod flat;
pub mod grouping;
pub mod messages;
pub mod net;
pub mod prefix;
pub mod query;
pub mod site;
pub mod spans;
pub mod store;
pub mod triangle;
pub mod window;
pub mod world;

pub use config::{Config, GroupConfig, IndexingMode, Placement};
pub use flat::{run_flat, FlatConfig, FlatReport};
pub use net::{Builder, TraceableNetwork};
pub use prefix::PrefixScheme;
pub use query::QueryStats;
pub use store::{GatewayStore, IndexEntry, IopRecord, IopStore, Link, PrefixIndex};
