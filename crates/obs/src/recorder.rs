//! The canonical [`TraceSink`]: records the causal event log, derives
//! per-class delivery-latency histograms, and tracks operation spans.

use crate::hist::Histogram;
use simnet::metrics::{MsgClass, ALL_CLASSES, NUM_CLASSES};
use simnet::trace::{EventId, SpanId, TraceEvent, TraceKind, TraceSink};
use simnet::{NodeIndex, SimTime};
use std::cell::{Ref, RefCell, RefMut};
use std::collections::BTreeMap;
use std::collections::HashMap;
use std::rc::Rc;

/// One application-level operation interval.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// Recorder-assigned id (never 0).
    pub id: SpanId,
    /// Application-defined kind tag (see `peertrack::spans`).
    pub kind: u32,
    /// Node the operation ran at.
    pub node: NodeIndex,
    /// When it opened.
    pub open: SimTime,
    /// When it closed (`None` while still open — e.g. a message whose
    /// every copy was lost).
    pub close: Option<SimTime>,
    /// Trace record the operation was started under (0 = root).
    pub cause: EventId,
}

/// In-memory trace recorder.
///
/// Install it on a `Sim` (boxed, or shared via [`SharedRecorder`] to
/// keep a query handle) and it accumulates:
///
/// * the full causal event log, queryable through
///   [`crate::TraceView`];
/// * per-[`MsgClass`] delivery-latency histograms (µs), measured
///   send→deliver so dropped messages never contaminate the
///   distribution;
/// * operation spans with per-kind duration histograms.
///
/// All internal maps are used for point lookups only (iteration goes
/// through sorted structures), so exports are deterministic.
#[derive(Default)]
pub struct Recorder {
    events: Vec<TraceEvent>,
    /// Send record id → (class, sent-at); consumed at delivery.
    in_flight: HashMap<EventId, (MsgClass, SimTime)>,
    class_latency: Vec<Histogram>,
    spans: Vec<Span>,
    /// Open span id → index into `spans`.
    open_spans: HashMap<SpanId, usize>,
    next_span: SpanId,
    span_hist: BTreeMap<u32, Histogram>,
}

impl Recorder {
    /// An empty recorder.
    pub fn new() -> Recorder {
        Recorder {
            events: Vec::new(),
            in_flight: HashMap::new(),
            class_latency: (0..NUM_CLASSES).map(|_| Histogram::new()).collect(),
            spans: Vec::new(),
            open_spans: HashMap::new(),
            next_span: 1,
            span_hist: BTreeMap::new(),
        }
    }

    /// The full causal event log, in recording order (ids ascending).
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Delivery-latency histogram (µs) for one message class.
    pub fn class_latency(&self, class: MsgClass) -> &Histogram {
        &self.class_latency[class as usize]
    }

    /// Record one delivery latency sample (µs) directly, bypassing the
    /// [`TraceSink`] send/deliver pairing. The real-network daemon uses
    /// this: off-sim there is no event queue to observe, so the receiver
    /// computes wall-clock latency from the sender's envelope timestamp
    /// and feeds it here — the same histograms, the same exporters.
    pub fn record_latency(&mut self, class: MsgClass, micros: u64) {
        self.class_latency[class as usize].record(micros);
    }

    /// All non-empty per-class latency histograms, in `ALL_CLASSES`
    /// order.
    pub fn class_latencies(&self) -> impl Iterator<Item = (MsgClass, &Histogram)> {
        ALL_CLASSES
            .iter()
            .map(|&c| (c, &self.class_latency[c as usize]))
            .filter(|(_, h)| !h.is_empty())
    }

    /// All spans, in opening order (includes still-open ones).
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per-kind span-duration histograms (µs), sorted by kind; only
    /// closed spans are counted.
    pub fn span_histograms(&self) -> impl Iterator<Item = (u32, &Histogram)> {
        self.span_hist.iter().map(|(&k, h)| (k, h))
    }

    /// Duration histogram for one span kind, if any span of that kind
    /// closed.
    pub fn span_histogram(&self, kind: u32) -> Option<&Histogram> {
        self.span_hist.get(&kind)
    }

    /// Merge-style summary line used by debug printing.
    pub fn summary(&self) -> String {
        format!(
            "{} events, {} spans ({} open), {} classes with latency samples",
            self.events.len(),
            self.spans.len(),
            self.open_spans.len(),
            self.class_latencies().count()
        )
    }
}

impl TraceSink for Recorder {
    fn on_event(&mut self, ev: &TraceEvent) {
        match ev.kind {
            TraceKind::Send => {
                if let Some(class) = ev.class {
                    self.in_flight.insert(ev.id, (class, ev.at));
                }
            }
            TraceKind::Deliver => {
                if let Some((class, sent)) = self.in_flight.remove(&ev.cause) {
                    let lat = ev.at.as_micros().saturating_sub(sent.as_micros());
                    self.class_latency[class as usize].record(lat);
                }
            }
            TraceKind::Drop => {
                // The copy never arrived: forget it so the latency
                // histograms only see real deliveries.
                self.in_flight.remove(&ev.cause);
            }
            _ => {}
        }
        self.events.push(*ev);
    }

    fn span_open(&mut self, kind: u32, node: NodeIndex, at: SimTime, cause: EventId) -> SpanId {
        let id = self.next_span;
        self.next_span += 1;
        self.open_spans.insert(id, self.spans.len());
        self.spans.push(Span { id, kind, node, open: at, close: None, cause });
        id
    }

    fn span_close(&mut self, span: SpanId, at: SimTime) {
        if let Some(idx) = self.open_spans.remove(&span) {
            let s = &mut self.spans[idx];
            s.close = Some(at);
            let dur = at.as_micros().saturating_sub(s.open.as_micros());
            self.span_hist.entry(s.kind).or_default().record(dur);
        }
    }
}

/// A cloneable handle to a [`Recorder`], so the application can keep a
/// reference while the `Sim` owns the installed sink.
///
/// `Sim` is single-threaded (`!Send` worlds drive it), so a plain
/// `Rc<RefCell<..>>` suffices.
#[derive(Clone, Default)]
pub struct SharedRecorder(Rc<RefCell<Recorder>>);

impl SharedRecorder {
    /// A fresh shared recorder.
    pub fn new() -> SharedRecorder {
        SharedRecorder(Rc::new(RefCell::new(Recorder::new())))
    }

    /// Read access to the underlying recorder.
    pub fn borrow(&self) -> Ref<'_, Recorder> {
        self.0.borrow()
    }

    /// Write access to the underlying recorder.
    pub fn borrow_mut(&self) -> RefMut<'_, Recorder> {
        self.0.borrow_mut()
    }
}

impl TraceSink for SharedRecorder {
    fn on_event(&mut self, ev: &TraceEvent) {
        self.0.borrow_mut().on_event(ev);
    }

    fn span_open(&mut self, kind: u32, node: NodeIndex, at: SimTime, cause: EventId) -> SpanId {
        self.0.borrow_mut().span_open(kind, node, at, cause)
    }

    fn span_close(&mut self, span: SpanId, at: SimTime) {
        self.0.borrow_mut().span_close(span, at);
    }
}
