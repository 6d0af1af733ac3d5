//! Query API over a recorded causal trace.

use simnet::trace::{EventId, TraceEvent, TraceKind};
use simnet::{NodeIndex, SimTime};

/// A read-only lens over an event log (usually
/// [`Recorder::events`](crate::Recorder::events)).
///
/// Event ids are assigned monotonically by the engine, so the slice is
/// sorted by id and lookups are binary searches.
#[derive(Clone, Copy)]
pub struct TraceView<'a> {
    events: &'a [TraceEvent],
}

impl<'a> TraceView<'a> {
    /// Wrap an event log (must be in recording order, as produced by
    /// any sink fed from one `Sim`).
    pub fn new(events: &'a [TraceEvent]) -> TraceView<'a> {
        TraceView { events }
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Is the trace empty?
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// All events.
    pub fn events(&self) -> &'a [TraceEvent] {
        self.events
    }

    /// Look an event up by id.
    pub fn by_id(&self, id: EventId) -> Option<&'a TraceEvent> {
        self.events.binary_search_by_key(&id, |e| e.id).ok().map(|i| &self.events[i])
    }

    /// Events a node participated in (as `node` or `peer`).
    pub fn filter_node(&self, node: NodeIndex) -> Vec<&'a TraceEvent> {
        self.events.iter().filter(|e| e.node == node || e.peer == node).collect()
    }

    /// Events carrying a context tag (e.g. the per-object digest the
    /// peertrack layer attaches; see `peertrack::spans::object_tag`).
    pub fn filter_ctx(&self, ctx: u64) -> Vec<&'a TraceEvent> {
        self.events.iter().filter(|e| e.ctx == ctx).collect()
    }

    /// Events with `at` inside `[from, to]`.
    pub fn between(&self, from: SimTime, to: SimTime) -> Vec<&'a TraceEvent> {
        self.events.iter().filter(|e| e.at >= from && e.at <= to).collect()
    }

    /// The causal ancestor chain of `id`: the event itself, its cause,
    /// its cause's cause, … up to a root. Returned root-first, the
    /// queried event last. Empty if `id` is unknown.
    pub fn ancestors(&self, id: EventId) -> Vec<&'a TraceEvent> {
        let mut chain = Vec::new();
        let mut cur = id;
        while cur != 0 {
            let Some(ev) = self.by_id(cur) else { break };
            chain.push(ev);
            // Ids are assigned in causal order, so the walk strictly
            // decreases and terminates even on malformed input.
            if ev.cause >= cur {
                break;
            }
            cur = ev.cause;
        }
        chain.reverse();
        chain
    }

    /// Does the ancestor chain of `id` contain an event tagged `ctx`?
    pub fn descends_from_ctx(&self, id: EventId, ctx: u64) -> bool {
        self.ancestors(id).iter().any(|e| e.ctx == ctx)
    }

    /// The last delivery causally downstream of any event tagged
    /// `ctx` — the anchor the auditor uses: "the violating delivery for
    /// this object". Falls back to the last tagged event of any kind
    /// when no such delivery exists (e.g. every update was dropped).
    pub fn last_delivery_for_ctx(&self, ctx: u64) -> Option<&'a TraceEvent> {
        self.events
            .iter()
            .rev()
            .find(|e| e.kind == TraceKind::Deliver && self.descends_from_ctx(e.id, ctx))
            .or_else(|| self.events.iter().rev().find(|e| e.ctx == ctx))
    }

    /// Human-readable dump of the ancestor chain of `id`, one event
    /// per line, root first.
    pub fn format_chain(&self, id: EventId) -> String {
        let chain = self.ancestors(id);
        let mut out = String::new();
        for ev in chain {
            out.push_str("  ");
            out.push_str(&format_event(ev));
            out.push('\n');
        }
        out
    }
}

/// One-line human-readable rendering of an event.
pub fn format_event(ev: &TraceEvent) -> String {
    let kind = match ev.kind {
        TraceKind::Send => "send      ",
        TraceKind::Deliver => "deliver   ",
        TraceKind::Drop => "drop      ",
        TraceKind::TimerSet => "timer-set ",
        TraceKind::TimerFired => "timer-fire",
        TraceKind::LookupHop => "hop       ",
    };
    let class = ev.class.map(|c| format!(" {}", c.label())).unwrap_or_default();
    let ctx = if ev.ctx != 0 { format!(" ctx={:#018x}", ev.ctx) } else { String::new() };
    let route = if ev.peer == ev.node {
        format!("@{}", ev.node)
    } else {
        format!("{}->{}", ev.peer, ev.node)
    };
    format!(
        "#{:<6} {} t={:<12} {:<9}{}{} (cause #{})",
        ev.id,
        kind,
        format!("{}us", ev.at.as_micros()),
        route,
        class,
        ctx,
        ev.cause
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(id: EventId, cause: EventId, kind: TraceKind, ctx: u64) -> TraceEvent {
        TraceEvent {
            id,
            cause,
            kind,
            at: SimTime::from_micros(id * 10),
            deliver_at: SimTime::from_micros(id * 10),
            node: 1,
            peer: 0,
            class: None,
            bytes: 0,
            hops: 0,
            ctx,
        }
    }

    #[test]
    fn ancestors_walk_to_root() {
        let log = vec![
            ev(1, 0, TraceKind::TimerSet, 7),
            ev(2, 1, TraceKind::TimerFired, 0),
            ev(3, 2, TraceKind::Send, 0),
            ev(4, 3, TraceKind::Deliver, 0),
        ];
        let v = TraceView::new(&log);
        let chain: Vec<EventId> = v.ancestors(4).iter().map(|e| e.id).collect();
        assert_eq!(chain, vec![1, 2, 3, 4]);
        assert!(v.descends_from_ctx(4, 7));
        assert!(!v.descends_from_ctx(4, 8));
        assert_eq!(v.last_delivery_for_ctx(7).unwrap().id, 4);
    }

    #[test]
    fn filters_and_slices() {
        let log = vec![
            ev(1, 0, TraceKind::Send, 0),
            ev(2, 1, TraceKind::Deliver, 5),
            ev(3, 0, TraceKind::TimerSet, 0),
        ];
        let v = TraceView::new(&log);
        assert_eq!(v.filter_ctx(5).len(), 1);
        assert_eq!(v.between(SimTime::from_micros(15), SimTime::from_micros(25)).len(), 1);
        assert_eq!(v.filter_node(1).len(), 3);
        assert!(v.by_id(9).is_none());
    }
}
