//! In-memory spans around calls into the system's layers.
//!
//! The benchmark wraps each public call it makes into a layer in a span
//! (name, start, end, parent). Spans stay in memory for the whole pass
//! and are reduced to per-layer self times afterwards, so tracing does
//! no I/O while the system runs. A disabled [`Tracer`] runs the wrapped
//! call and records nothing.

use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded call. Times are nanoseconds since the tracer started.
#[derive(Clone, Debug, PartialEq)]
pub struct Span<'n> {
    pub name: &'n str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the same trace.
    pub parent: Option<usize>,
}

impl Span<'_> {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records nested spans; names borrow from the workload's inputs.
pub struct Tracer<'n> {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span<'n>>,
    open: Vec<usize>,
}

impl<'n> Tracer<'n> {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// A tracer that records nothing (the untraced, measured passes).
    pub fn off() -> Self {
        Tracer::new(false)
    }

    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name`, nested under the innermost
    /// open span.
    pub fn span<T>(&mut self, name: &'n str, f: impl FnOnce(&mut Self) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let index = self.spans.len();
        let parent = self.open.last().copied();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
        });
        self.open.push(index);
        let value = f(self);
        self.open.pop();
        self.spans[index].end_ns = self.now_ns();
        value
    }

    pub fn spans(&self) -> &[Span<'n>] {
        &self.spans
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover (overlapping children count once).
pub fn self_times_ns(spans: &[Span<'_>]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(p) = span.parent {
            children[p].push((span.start_ns, span.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(span, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = span.start_ns;
            for (start, end) in kids {
                let (start, end) = (start.max(reach), end.min(span.end_ns));
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            span.duration_ns() - covered
        })
        .collect()
}

/// Self time per span name, in milliseconds, summed over the trace.
pub fn self_ms_by_name(spans: &[Span<'_>]) -> BTreeMap<String, f64> {
    let mut by_name: BTreeMap<String, f64> = BTreeMap::new();
    for (span, self_ns) in spans.iter().zip(self_times_ns(spans)) {
        *by_name.entry(span.name.to_string()).or_default() += self_ns as f64 / 1e6;
    }
    by_name
}

/// Wall time covered by spans without a parent, in milliseconds.
pub fn top_level_ms(spans: &[Span<'_>]) -> f64 {
    spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(|s| s.duration_ns() as f64 / 1e6)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span<'_> {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // root [0,100) ⊃ a [10,40) ⊃ b [15,25); root ⊃ c [50,70)
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("b", 15, 25, Some(1)),
            span("c", 50, 70, Some(0)),
        ];
        assert_eq!(self_times_ns(&spans), vec![50, 20, 10, 20]);
        let by_name = self_ms_by_name(&spans);
        assert_eq!(by_name["root"], 50.0 / 1e6);
        assert_eq!(top_level_ms(&spans), 100.0 / 1e6);
    }

    #[test]
    fn overlapping_children_count_once_and_clip_to_parent() {
        let spans = vec![
            span("p", 100, 200, None),
            span("x", 90, 150, Some(0)),
            span("y", 140, 160, Some(0)),
            span("z", 190, 250, Some(0)),
        ];
        // covered: [100,160) + [190,200) = 70 of 100
        assert_eq!(self_times_ns(&spans)[0], 30);
    }

    #[test]
    fn same_name_self_times_accumulate() {
        let spans = vec![
            span("tick", 0, 10, None),
            span("tick", 20, 35, None),
            span("other", 40, 41, None),
        ];
        let by_name = self_ms_by_name(&spans);
        assert_eq!(by_name["tick"], 25.0 / 1e6);
        assert_eq!(by_name.len(), 2);
    }

    #[test]
    fn tracer_nests_and_disabled_records_nothing() {
        let mut on = Tracer::new(true);
        let v = on.span("outer", |t| t.span("inner", |_| 7) + 1);
        assert_eq!(v, 8);
        let spans = on.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!((spans[0].name, spans[0].parent), ("outer", None));
        assert_eq!((spans[1].name, spans[1].parent), ("inner", Some(0)));
        assert!(spans[1].start_ns >= spans[0].start_ns && spans[1].end_ns <= spans[0].end_ns);

        let mut off = Tracer::off();
        assert_eq!(off.span("outer", |t| t.span("inner", |_| 3)), 3);
        assert!(off.spans().is_empty());
    }
}
