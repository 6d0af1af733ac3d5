//! In-memory span recorder owned by the harness.
//!
//! The benchmark measures the program from outside, so spans wrap the
//! calls the *harness* makes into each layer (encode → write → wait →
//! decode on a client; decode → WAL → apply → outbox in a layer
//! replay; build → schedule → run → query in the simulator). One root
//! span per operation; children share its `op` id. Spans stay in
//! memory and are written out once, when the run ends.
//!
//! A disabled tracer costs one predictable branch per call, which is
//! what lets the same workload code run traced and untraced.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::time::Instant;

/// Root spans have this parent.
pub const NO_PARENT: u64 = 0;

/// One closed (or still open: `end_ns == 0`) span.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// Unique across the tracers of one run (`tid` in the high bits).
    pub id: u64,
    pub parent: u64,
    /// Operation the span belongs to; shared by a root and its children.
    pub op: u64,
    pub name: &'static str,
    pub tid: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Handle returned by [`Tracer::open`]; pass it back to
/// [`Tracer::close`].
#[derive(Clone, Copy, Debug)]
pub struct Open(usize);

const DISABLED: Open = Open(usize::MAX);

/// A per-thread span buffer. Tracers of one run share an epoch so their
/// spans line up on one time axis after [`Tracer::absorb`].
pub struct Tracer {
    on: bool,
    epoch: Instant,
    tid: u32,
    op: u64,
    spans: Vec<Span>,
    stack: Vec<usize>,
    counts: BTreeMap<&'static str, u64>,
}

impl Tracer {
    /// A tracer that records nothing.
    pub fn off() -> Tracer {
        Tracer::new(false, Instant::now(), 0)
    }

    /// A recording tracer for thread `tid` (unique per run).
    pub fn on(epoch: Instant, tid: u32) -> Tracer {
        Tracer::new(true, epoch, tid)
    }

    fn new(on: bool, epoch: Instant, tid: u32) -> Tracer {
        Tracer {
            on,
            epoch,
            tid,
            op: 0,
            spans: Vec::new(),
            stack: Vec::new(),
            counts: BTreeMap::new(),
        }
    }

    /// The shared time origin, for spawning sibling tracers.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// A sibling for another thread: same on/off state and epoch.
    pub fn sibling(&self, tid: u32) -> Tracer {
        Tracer::new(self.on, self.epoch, tid)
    }

    fn now_ns(&self) -> u64 {
        // +1 keeps 0 free to mean "still open".
        self.epoch.elapsed().as_nanos() as u64 + 1
    }

    /// Open a span under the innermost open span (or as a root, which
    /// starts a new operation).
    pub fn open(&mut self, name: &'static str) -> Open {
        if !self.on {
            return DISABLED;
        }
        let idx = self.spans.len();
        let id = ((self.tid as u64) << 40) | (idx as u64 + 1);
        let parent = match self.stack.last() {
            Some(&p) => self.spans[p].id,
            None => {
                self.op += 1;
                NO_PARENT
            }
        };
        let op = ((self.tid as u64) << 40) | self.op;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent,
            op,
            name,
            tid: self.tid,
            start_ns,
            end_ns: 0,
        });
        self.stack.push(idx);
        Open(idx)
    }

    /// Close a span; spans close innermost-first.
    pub fn close(&mut self, open: Open) {
        if !self.on {
            return;
        }
        let top = self.stack.pop();
        debug_assert_eq!(top, Some(open.0), "spans must close innermost-first");
        self.spans[open.0].end_ns = self.now_ns();
    }

    /// Time a leaf call.
    pub fn leaf<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let s = self.open(name);
        let out = f();
        self.close(s);
        out
    }

    /// Add to a named counter, recorded at the same boundary as the
    /// surrounding span.
    pub fn count(&mut self, name: &'static str, n: u64) {
        if self.on {
            *self.counts.entry(name).or_insert(0) += n;
        }
    }

    /// Merge another thread's spans and counters into this tracer.
    pub fn absorb(&mut self, other: Tracer) {
        self.spans.extend(other.spans);
        for (k, v) in other.counts {
            *self.counts.entry(k).or_insert(0) += v;
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn counts(&self) -> &BTreeMap<&'static str, u64> {
        &self.counts
    }
}

/// Aggregate of all spans of one name.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LayerTime {
    pub spans: u64,
    pub total_ns: u64,
    /// Total minus the part covered by child spans.
    pub self_ns: u64,
}

/// Per-name totals and self times. A span's self time is its duration
/// minus the part of its interval that its *direct* children cover
/// (children are clipped to the parent and overlapping children are
/// counted once).
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, LayerTime> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if s.parent != NO_PARENT {
            children
                .entry(s.parent)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
    }
    let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
    for s in spans {
        let covered = match children.get_mut(&s.id) {
            Some(kids) => {
                kids.sort_unstable();
                let (mut covered, mut edge) = (0u64, s.start_ns);
                for &(a, b) in kids.iter() {
                    let (a, b) = (a.max(edge), b.min(s.end_ns));
                    if b > a {
                        covered += b - a;
                        edge = b;
                    }
                }
                covered
            }
            None => 0,
        };
        let e = out.entry(s.name).or_default();
        e.spans += 1;
        e.total_ns += s.duration_ns();
        e.self_ns += s.duration_ns().saturating_sub(covered);
    }
    out
}

/// Nanoseconds one open/close pair costs on this host, right now
/// (best of five batches on a scratch tracer).
pub fn calibrate_span_cost_ns() -> f64 {
    const PAIRS: usize = 20_000;
    let mut best = f64::INFINITY;
    for _ in 0..5 {
        let mut t = Tracer::on(Instant::now(), 0);
        let start = Instant::now();
        for _ in 0..PAIRS {
            let s = t.open("calibration");
            t.close(s);
        }
        best = best.min(start.elapsed().as_nanos() as f64 / PAIRS as f64);
        std::hint::black_box(t.spans().len());
    }
    best
}

/// Write spans in Chrome trace-event format (load in `chrome://tracing`
/// or Perfetto): one complete (`"ph":"X"`) event per span, µs units,
/// with the span/parent/op ids under `args`.
pub fn write_chrome(w: &mut impl Write, spans: &[Span]) -> io::Result<()> {
    w.write_all(b"{\"traceEvents\":[\n")?;
    for (i, s) in spans.iter().enumerate() {
        let sep = if i + 1 == spans.len() { "" } else { "," };
        writeln!(
            w,
            "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{},\"parent\":{},\"op\":{}}}}}{sep}",
            s.name,
            s.tid,
            s.start_ns as f64 / 1e3,
            s.duration_ns() as f64 / 1e3,
            s.id,
            s.parent,
            s.op,
        )?;
    }
    w.write_all(b"],\"displayTimeUnit\":\"ns\"}\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            op: 1,
            name,
            tid: 0,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        let spans = vec![
            span(1, NO_PARENT, "op", 100, 1_100),
            span(2, 1, "encode", 100, 300),
            span(3, 1, "wait", 300, 1_000),
            span(4, 3, "syscall", 400, 900), // grandchild: only shrinks "wait"
        ];
        let t = self_times(&spans);
        assert_eq!(
            t["op"],
            LayerTime {
                spans: 1,
                total_ns: 1_000,
                self_ns: 100
            }
        );
        assert_eq!(
            t["encode"],
            LayerTime {
                spans: 1,
                total_ns: 200,
                self_ns: 200
            }
        );
        assert_eq!(
            t["wait"],
            LayerTime {
                spans: 1,
                total_ns: 700,
                self_ns: 200
            }
        );
        assert_eq!(t["syscall"].self_ns, 500);
        // Self times partition the root's interval.
        let sum: u64 = t.values().map(|l| l.self_ns).sum();
        assert_eq!(sum, 1_000);
    }

    #[test]
    fn overlapping_and_overhanging_children_are_counted_once() {
        let spans = vec![
            span(1, NO_PARENT, "op", 0, 100),
            span(2, 1, "a", 10, 60),
            span(3, 1, "b", 40, 80),  // overlaps a by 20
            span(4, 1, "c", 90, 150), // overhangs the parent by 50
        ];
        // Covered: [10,80) ∪ [90,100) = 80 → self 20.
        assert_eq!(self_times(&spans)["op"].self_ns, 20);
    }

    #[test]
    fn tracer_nests_assigns_ops_and_merges() {
        let mut t = Tracer::on(Instant::now(), 1);
        let root = t.open("op");
        t.leaf("child", || ());
        t.count("frames", 2);
        t.close(root);
        let root2 = t.open("op");
        t.close(root2);
        let mut other = t.sibling(2);
        other.leaf("op", || ());
        other.count("frames", 3);
        t.absorb(other);

        let s = t.spans();
        assert_eq!(s.len(), 4);
        assert_eq!(s[1].parent, s[0].id);
        assert_eq!(s[1].op, s[0].op);
        assert_ne!(s[2].op, s[0].op, "a new root starts a new operation");
        assert_ne!(s[3].id, s[0].id, "ids stay unique across threads");
        assert!(s.iter().all(|x| x.end_ns >= x.start_ns && x.start_ns > 0));
        assert_eq!(t.counts()["frames"], 5);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::off();
        let s = t.open("op");
        assert_eq!(t.leaf("x", || 7), 7);
        t.count("n", 1);
        t.close(s);
        assert!(t.spans().is_empty() && t.counts().is_empty());
    }

    #[test]
    fn chrome_dump_is_valid_json() {
        let spans = vec![
            span(1, NO_PARENT, "op", 1_000, 3_500),
            span(2, 1, "x", 1_500, 2_000),
        ];
        let mut buf = Vec::new();
        write_chrome(&mut buf, &spans).unwrap();
        let doc = crate::json::parse(std::str::from_utf8(&buf).unwrap()).unwrap();
        let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].get("dur").unwrap().as_f64(), Some(2.5));
    }
}
