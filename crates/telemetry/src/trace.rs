//! The tracing half of the substrate: spans and instant events on the
//! **simulation clock**.
//!
//! Wall time would make every export nondeterministic, so a span's start
//! and end are `SimTime`s supplied by the instrumented code — the same
//! virtual instants the DES kernel dispatches on. Spans nest through an
//! explicit open-span stack (instrumented request paths are
//! single-threaded), carry ordered key/value attributes, and everything
//! lands in a bounded ring buffer: when it fills, the oldest events are
//! dropped and counted, never reallocated.

use std::collections::VecDeque;

use osdc_sim::SimTime;

/// Handle to a span. `SpanId(0)` is the reserved null span produced by a
/// disabled `Telemetry`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct SpanId(pub u64);

impl SpanId {
    pub const NONE: SpanId = SpanId(0);
}

/// An attribute value; kept as a closed enum so exports need no trait
/// machinery and stay byte-deterministic.
#[derive(Clone, Debug, PartialEq)]
pub enum AttrValue {
    U64(u64),
    I64(i64),
    F64(f64),
    Bool(bool),
    Str(String),
}

impl From<u64> for AttrValue {
    fn from(v: u64) -> Self {
        AttrValue::U64(v)
    }
}
impl From<u32> for AttrValue {
    fn from(v: u32) -> Self {
        AttrValue::U64(v as u64)
    }
}
impl From<usize> for AttrValue {
    fn from(v: usize) -> Self {
        AttrValue::U64(v as u64)
    }
}
impl From<i64> for AttrValue {
    fn from(v: i64) -> Self {
        AttrValue::I64(v)
    }
}
impl From<f64> for AttrValue {
    fn from(v: f64) -> Self {
        AttrValue::F64(v)
    }
}
impl From<bool> for AttrValue {
    fn from(v: bool) -> Self {
        AttrValue::Bool(v)
    }
}
impl From<&str> for AttrValue {
    fn from(v: &str) -> Self {
        AttrValue::Str(v.to_string())
    }
}
impl From<String> for AttrValue {
    fn from(v: String) -> Self {
        AttrValue::Str(v)
    }
}

/// One entry in the ring-buffered event log.
#[derive(Clone, Debug)]
pub enum TraceEvent {
    SpanStart {
        id: SpanId,
        parent: Option<SpanId>,
        name: String,
        t: SimTime,
    },
    SpanEnd {
        id: SpanId,
        t: SimTime,
    },
    Attr {
        span: SpanId,
        key: String,
        value: AttrValue,
    },
    /// A `(name, t, value)` sample — per-flow throughput traces and the
    /// like.
    Point {
        name: String,
        t: SimTime,
        value: f64,
    },
}

/// Ring capacity: big enough for a full Table 3 sweep (ten transfers'
/// worth of stage spans plus coarse flow samples) without letting a
/// runaway emitter grow memory unboundedly.
const RING_CAPACITY: usize = 131_072;

#[derive(Debug)]
pub(crate) struct TraceCore {
    next_span: u64,
    stack: Vec<SpanId>,
    pub(crate) events: VecDeque<TraceEvent>,
    capacity: usize,
    pub(crate) dropped: u64,
}

impl Default for TraceCore {
    fn default() -> Self {
        Self::with_capacity(RING_CAPACITY)
    }
}

impl TraceCore {
    pub(crate) fn with_capacity(capacity: usize) -> Self {
        TraceCore {
            next_span: 1, // 0 is SpanId::NONE
            stack: Vec::new(),
            events: VecDeque::new(),
            capacity: capacity.max(1),
            dropped: 0,
        }
    }

    fn push(&mut self, ev: TraceEvent) {
        if self.events.len() == self.capacity {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(ev);
    }

    pub(crate) fn span_start(&mut self, name: &str, t: SimTime) -> SpanId {
        let id = SpanId(self.next_span);
        self.next_span += 1;
        let parent = self.stack.last().copied();
        self.stack.push(id);
        self.push(TraceEvent::SpanStart {
            id,
            parent,
            name: name.to_string(),
            t,
        });
        id
    }

    pub(crate) fn span_end(&mut self, id: SpanId, t: SimTime) {
        // Tolerate out-of-order ends: unwind the stack through `id` if it
        // is open, otherwise leave the stack alone.
        if let Some(pos) = self.stack.iter().rposition(|&s| s == id) {
            self.stack.truncate(pos);
        }
        self.push(TraceEvent::SpanEnd { id, t });
    }

    pub(crate) fn attr(&mut self, span: SpanId, key: &str, value: AttrValue) {
        self.push(TraceEvent::Attr {
            span,
            key: key.to_string(),
            value,
        });
    }

    pub(crate) fn point(&mut self, name: &str, t: SimTime, value: f64) {
        self.push(TraceEvent::Point {
            name: name.to_string(),
            t,
            value,
        });
    }

    /// Append another core's event stream onto this one, in that core's
    /// recording order, renumbering span ids past the ids already issued
    /// here. This is the submission-order merge behind the parallel
    /// scenario runner: per-scenario rings absorbed one after another
    /// reproduce the very stream a single shared ring would have recorded
    /// from the same scenarios run serially (span ids are contiguous per
    /// scenario in both cases). Ring capacity and drop accounting apply to
    /// each appended event exactly as if it had been recorded live.
    pub(crate) fn absorb(&mut self, other: &TraceCore) {
        debug_assert!(
            other.stack.is_empty(),
            "absorbing a trace with open spans loses nesting"
        );
        let offset = self.next_span - 1; // span ids are 1-based
        let remap = |id: SpanId| {
            if id == SpanId::NONE {
                id
            } else {
                SpanId(id.0 + offset)
            }
        };
        for ev in &other.events {
            let remapped = match ev {
                TraceEvent::SpanStart {
                    id,
                    parent,
                    name,
                    t,
                } => TraceEvent::SpanStart {
                    id: remap(*id),
                    parent: parent.map(remap),
                    name: name.clone(),
                    t: *t,
                },
                TraceEvent::SpanEnd { id, t } => TraceEvent::SpanEnd {
                    id: remap(*id),
                    t: *t,
                },
                TraceEvent::Attr { span, key, value } => TraceEvent::Attr {
                    span: remap(*span),
                    key: key.clone(),
                    value: value.clone(),
                },
                TraceEvent::Point { name, t, value } => TraceEvent::Point {
                    name: name.clone(),
                    t: *t,
                    value: *value,
                },
            };
            self.push(remapped);
        }
        self.dropped += other.dropped;
        self.next_span += other.next_span - 1;
    }
}
