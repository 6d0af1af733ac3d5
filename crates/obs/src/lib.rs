//! **obs** — observability for the PeerTrack simulations.
//!
//! The paper (§V) and our `simnet::metrics` both evaluate with
//! aggregate message counters; this crate adds the *when* and *why*:
//!
//! * [`Recorder`] — a [`simnet::TraceSink`] that stores the engine's
//!   causal event log (every send/deliver/drop/timer with the id of
//!   the event that caused it) and derives per-`MsgClass`
//!   delivery-latency histograms plus per-operation span durations;
//! * [`Histogram`] — hand-rolled HDR-style log-bucketed histogram
//!   (power-of-two buckets, 32 linear sub-buckets, ≤ 3.2% relative
//!   error) with `p50`/`p95`/`p99`/`max` accessors and an
//!   order-independent `merge`;
//! * [`RegionRecorder`] — a lighter sink for WAN runs: per-region-pair
//!   delivery-latency histograms straight off `Send` records (no log
//!   retention), with a focus class for group-index flush latency;
//! * [`TraceView`] — queries over the log: filter by node / class /
//!   context tag, time slices, and the ancestor-chain walk the
//!   schedule auditor uses to print the causal slice behind an
//!   invariant violation;
//! * exporters — [`chrome_trace_json`] (loadable in `chrome://tracing`
//!   / Perfetto) and CSV summaries ([`latency_summary_csv`]).
//!
//! Zero dependencies beyond `simnet` (which defines the sink trait so
//! the engine never depends on this crate). Installing no sink keeps
//! the engine's traced path completely dormant — see
//! `simnet::trace` for the zero-cost argument.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chrome;
pub mod export;
pub mod hist;
pub mod recorder;
pub mod region;
pub mod view;

pub use chrome::chrome_trace_json;
pub use export::{latency_summary_csv, LATENCY_CSV_HEADER};
pub use hist::Histogram;
pub use recorder::{Recorder, SharedRecorder, Span};
pub use region::{RegionRecorder, SharedRegionRecorder};
pub use view::{format_event, TraceView};
