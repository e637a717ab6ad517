//! Outside-in spans: the harness wraps each call into a layer's public
//! function in a span `{name, start_ns, end_ns, parent, op_id}`, keeps
//! the spans in memory and writes them out when the benchmark ends.
//!
//! A layer's self time is its span minus the part of that interval its
//! child spans cover. Spans live in the harness only; hooks inside the
//! crates are a later issue.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Spans of one operation share an identifier.
    pub op_id: u64,
    /// The workload case the span worked on ("" when it has none).
    pub case: &'static str,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A handle to a span that is still open (see [`Tracer::open`]).
#[derive(Debug, Clone, Copy)]
pub struct Open(Option<usize>);

pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    op_id: u64,
    case: &'static str,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            op_id: 0,
            case: "",
        }
    }

    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Start the next operation: spans recorded from here on carry a new
    /// `op_id`.
    pub fn next_op(&mut self) -> u64 {
        self.op_id += 1;
        self.op_id
    }

    /// The identifier of the operation in progress. Operations started
    /// after this call have larger ones, which is how a phase of the
    /// traced pass selects its own spans.
    pub fn current_op(&self) -> u64 {
        self.op_id
    }

    /// Name the workload case that spans recorded from here on work on.
    pub fn set_case(&mut self, case: &'static str) {
        self.case = case;
    }

    /// Open a span named `name`, nested under the innermost span still
    /// open on the stack; close it with [`Tracer::pop`]. With tracing
    /// off this is a branch.
    pub fn push(&mut self, name: &'static str) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            op_id: self.op_id,
            case: self.case,
        });
        self.stack.push(idx);
        Open(Some(idx))
    }

    pub fn pop(&mut self, open: Open) {
        if let Open(Some(idx)) = open {
            let top = self.stack.pop();
            debug_assert_eq!(top, Some(idx), "spans close innermost first");
            self.spans[idx].end_ns = self.now_ns();
        }
    }

    /// Run `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let open = self.push(name);
        let out = f(self);
        self.pop(open);
        out
    }

    /// [`Tracer::span`], also returning the seconds `f` took (measured
    /// whether or not tracing is on).
    pub fn timed<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> (T, f64) {
        let start = Instant::now();
        let out = self.span(name, f);
        (out, start.elapsed().as_secs_f64())
    }

    /// Open a span that outlives the current call (a request in flight
    /// while later requests are submitted). It is not pushed on the
    /// nesting stack; children name it through [`Tracer::span_under`].
    pub fn open(&mut self, name: &'static str, op_id: u64) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: None,
            op_id,
            case: self.case,
        });
        Open(Some(self.spans.len() - 1))
    }

    pub fn close(&mut self, open: Open) {
        if let Open(Some(idx)) = open {
            self.spans[idx].end_ns = self.now_ns();
        }
    }

    /// [`Tracer::span`] with an explicit parent (an [`Open`] span).
    pub fn span_under<T>(&mut self, parent: Open, name: &'static str, f: impl FnOnce() -> T) -> T {
        let Open(Some(parent_idx)) = parent else {
            return f();
        };
        let start_ns = self.now_ns();
        let out = f();
        let end_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent: Some(parent_idx),
            op_id: self.spans[parent_idx].op_id,
            case: self.spans[parent_idx].case,
        });
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per span name, one value per operation of `ops` (identifiers in
    /// `(ops.0, ops.1]`): the summed self time, in seconds, of that
    /// name's spans within the operation. With `by_case`, spans are
    /// keyed `name/case` instead.
    pub fn self_seconds_by_op(&self, ops: (u64, u64), by_case: bool) -> BTreeMap<String, Vec<f64>> {
        let self_ns = self_times_ns(&self.spans);
        let mut per: BTreeMap<(String, u64), u64> = BTreeMap::new();
        for (span, ns) in self.spans.iter().zip(self_ns) {
            if span.op_id <= ops.0 || span.op_id > ops.1 || (by_case && span.case.is_empty()) {
                continue;
            }
            let key = if by_case {
                format!("{}/{}", span.name, span.case)
            } else {
                span.name.to_string()
            };
            *per.entry((key, span.op_id)).or_insert(0) += ns;
        }
        let mut out: BTreeMap<String, Vec<f64>> = BTreeMap::new();
        for ((name, _), ns) in per {
            out.entry(name).or_default().push(ns as f64 * 1e-9);
        }
        out
    }

    /// Summed over the `name` spans of `ops`: `(duration, part of it
    /// covered by child spans)`, in seconds.
    pub fn total_and_covered_seconds(&self, ops: (u64, u64), name: &str) -> (f64, f64) {
        let self_ns = self_times_ns(&self.spans);
        let (mut total, mut own) = (0u64, 0u64);
        for (span, ns) in self.spans.iter().zip(self_ns) {
            if span.name == name && span.op_id > ops.0 && span.op_id <= ops.1 {
                total += span.duration_ns();
                own += ns;
            }
        }
        (total as f64 * 1e-9, (total - own) as f64 * 1e-9)
    }

    /// The spans as a JSON array, one object per span, in start order of
    /// recording. `parent` is an index into the same array or `null`.
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(self.spans.len() * 96 + 2);
        s.push_str("[\n");
        for (i, sp) in self.spans.iter().enumerate() {
            let parent = sp
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            let _ = write!(
                s,
                "{{\"name\":\"{}\",\"case\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"op_id\":{}}}",
                sp.name, sp.case, sp.start_ns, sp.end_ns, parent, sp.op_id
            );
            s.push_str(if i + 1 < self.spans.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        s.push_str("]\n");
        s
    }
}

/// Self time of every span: its duration minus the length of the union
/// of its children's intervals, clipped to the span. Children may
/// overlap each other (requests in flight together under one window
/// span); an overlapped stretch is subtracted once.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(p) = span.parent {
            let (lo, hi) = (spans[p].start_ns, spans[p].end_ns);
            let (s, e) = (span.start_ns.clamp(lo, hi), span.end_ns.clamp(lo, hi));
            if e > s {
                children[p].push((s, e));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(span, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = span.start_ns;
            for &(s, e) in kids.iter() {
                if e > reach {
                    covered += e - s.max(reach);
                    reach = e;
                }
            }
            span.duration_ns() - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            op_id: 1,
            case: "",
        }
    }

    #[test]
    fn self_time_subtracts_disjoint_children() {
        let spans = [
            span("root", 0, 100, None),
            span("a", 10, 30, Some(0)),
            span("b", 50, 90, Some(0)),
        ];
        assert_eq!(self_times_ns(&spans), vec![40, 20, 40]);
    }

    #[test]
    fn overlapping_children_are_subtracted_once() {
        // a = [10, 60), b = [40, 80), c = [45, 50) nested inside both:
        // the union covers [10, 80) = 70 ns of the root's 100.
        let spans = [
            span("root", 0, 100, None),
            span("a", 10, 60, Some(0)),
            span("b", 40, 80, Some(0)),
            span("c", 45, 50, Some(0)),
        ];
        assert_eq!(self_times_ns(&spans)[0], 30);
    }

    #[test]
    fn children_are_clipped_to_their_parent() {
        // A child that outlives its parent (a request still in flight
        // when the window span closes) only covers the shared stretch.
        let spans = [
            span("root", 10, 50, None),
            span("late", 40, 90, Some(0)),
            span("early", 0, 20, Some(0)),
        ];
        assert_eq!(self_times_ns(&spans)[0], 20);
    }

    #[test]
    fn grandchildren_only_reduce_their_own_parent() {
        let spans = [
            span("root", 0, 100, None),
            span("child", 20, 80, Some(0)),
            span("grandchild", 30, 40, Some(1)),
        ];
        assert_eq!(self_times_ns(&spans), vec![40, 50, 10]);
    }

    #[test]
    fn tracer_nests_and_groups_by_operation() {
        let mut t = Tracer::new(true);
        for _ in 0..3 {
            t.next_op();
            t.span("outer", |t| {
                t.span("inner", |_| std::hint::black_box(1 + 1));
                t.span("inner", |_| std::hint::black_box(2 + 2));
            });
        }
        assert_eq!(t.spans().len(), 9);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert_eq!(t.spans()[4].op_id, 2);
        let by_op = t.self_seconds_by_op((0, 3), false);
        // Two `inner` spans per operation fold into one value each.
        assert_eq!(by_op["inner"].len(), 3);
        assert_eq!(by_op["outer"].len(), 3);
        // A phase sees only its own operations.
        assert_eq!(t.self_seconds_by_op((1, 3), false)["inner"].len(), 2);
        assert!(
            t.self_seconds_by_op((0, 3), true).is_empty(),
            "no case was set"
        );
        let json = t.to_json();
        assert!(json.starts_with("[\n{\"name\":\"outer\""));
        assert!(json.contains("\"parent\":0"));
        assert!(json.contains("\"parent\":null"));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let v = t.span("x", |t| t.span("y", |_| 7));
        assert_eq!(v, 7);
        let open = t.open("z", 1);
        t.span_under(open, "w", || ());
        t.close(open);
        assert!(t.spans().is_empty());
    }
}
