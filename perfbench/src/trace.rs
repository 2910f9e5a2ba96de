//! Spans recorded from the benchmark's own code around its calls into the
//! program. A span has a name, a start, an end, a parent, and the id of the
//! op it belongs to. Spans stay in memory and are written out when the run
//! ends. A span's self time is its duration minus the part of it that its
//! child spans cover, so the self times of one op's spans add up to the
//! op's duration.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub op: u64,
    pub parent: Option<usize>,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Id returned while recording is off; every call taking it is a no-op.
pub const OFF: usize = usize::MAX;

/// One thread's span recorder. Spans nest through an explicit stack of
/// open spans; a closed child can also be placed inside the open span from
/// a duration the program reported itself (a `PhaseReport` or `EvalStats`
/// time), starting where the previous such child ended. Recording is
/// switched per op, so traced and untraced ops can interleave.
pub struct Tracer {
    epoch: Instant,
    op: u64,
    on: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
    /// Where the next reported child of each open span starts.
    cursor: Vec<u64>,
}

impl Tracer {
    pub fn new(epoch: Instant) -> Tracer {
        Tracer {
            epoch,
            op: 0,
            on: false,
            spans: Vec::new(),
            open: Vec::new(),
            cursor: Vec::new(),
        }
    }

    /// Starts op `op`; its spans are recorded only when `on`.
    pub fn set_op(&mut self, op: u64, on: bool) {
        assert!(self.open.is_empty(), "an op starts with no open span");
        self.op = op;
        self.on = on;
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn begin(&mut self, name: &'static str) -> usize {
        if !self.on {
            return OFF;
        }
        let start = self.now();
        self.spans.push(Span {
            op: self.op,
            parent: self.open.last().copied(),
            name,
            start_ns: start,
            end_ns: start,
        });
        let id = self.spans.len() - 1;
        self.open.push(id);
        self.cursor.push(start);
        id
    }

    /// Closes the innermost open span, which must be `id`.
    pub fn end(&mut self, id: usize) {
        if id == OFF {
            return;
        }
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        self.cursor.pop();
        self.spans[id].end_ns = self.now();
    }

    /// Places a closed child of `dur_ns` inside the innermost open span,
    /// after the previous reported child. Returns its id, so reported
    /// grandchildren can be placed with [`Tracer::reported_under`].
    pub fn reported(&mut self, name: &'static str, dur_ns: u64) -> usize {
        if !self.on {
            return OFF;
        }
        let parent = *self
            .open
            .last()
            .expect("a reported span needs an open parent");
        let depth = self.cursor.len() - 1;
        let start = self.cursor[depth];
        self.cursor[depth] = start + dur_ns;
        self.push_closed(Some(parent), name, start, dur_ns)
    }

    /// Places a closed child of `dur_ns` at the start of closed span
    /// `parent`, after any earlier children placed this way.
    pub fn reported_under(&mut self, parent: usize, name: &'static str, dur_ns: u64) -> usize {
        if parent == OFF {
            return OFF;
        }
        // Children follow their parent, so only the tail needs a look.
        let start = self.spans[parent + 1..]
            .iter()
            .filter(|s| s.parent == Some(parent))
            .map(|s| s.end_ns)
            .max()
            .unwrap_or(self.spans[parent].start_ns);
        self.push_closed(Some(parent), name, start, dur_ns)
    }

    fn push_closed(
        &mut self,
        parent: Option<usize>,
        name: &'static str,
        start_ns: u64,
        dur_ns: u64,
    ) -> usize {
        self.spans.push(Span {
            op: self.op,
            parent,
            name,
            start_ns,
            end_ns: start_ns + dur_ns,
        });
        self.spans.len() - 1
    }

    pub fn into_spans(self) -> Vec<Span> {
        assert!(self.open.is_empty(), "every span is closed");
        self.spans
    }
}

/// Concatenates per-thread span lists, shifting parent indices.
pub fn merge(parts: Vec<Vec<Span>>) -> Vec<Span> {
    let mut out = Vec::new();
    for part in parts {
        let base = out.len();
        out.extend(part.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }
    out
}

/// Self time of every span: its duration minus the union of its children's
/// intervals, clipped to the span.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for &(a, b) in kids.iter() {
                let a = a.max(reach);
                let b = b.min(s.end_ns);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.dur_ns() - covered.min(s.dur_ns())
        })
        .collect()
}

/// Per-name totals: calls, inclusive nanoseconds, self nanoseconds.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NameTotals {
    pub calls: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

pub fn totals_by_name(spans: &[Span]) -> BTreeMap<&'static str, NameTotals> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(selfs) {
        let t = out.entry(s.name).or_default();
        t.calls += 1;
        t.total_ns += s.dur_ns();
        t.self_ns += self_ns;
    }
    out
}

/// Where one op class's time went.
#[derive(Debug, Clone, Default)]
pub struct ClassAccount {
    /// Ops (root spans) of the class.
    pub roots: u64,
    /// Mean root duration, ms.
    pub mean_ms: f64,
    /// Mean self time per op of each span name below the roots, ms; the
    /// roots' own self time is the `(leftover)` entry. Sums to `mean_ms`.
    pub self_ms: BTreeMap<&'static str, f64>,
}

/// The accounting of every root-span name (an op class).
pub fn accounting(spans: &[Span]) -> BTreeMap<&'static str, ClassAccount> {
    let selfs = self_times(spans);
    let mut root_of = vec![0usize; spans.len()];
    for (i, s) in spans.iter().enumerate() {
        // Parents precede children, so the parent's root is known.
        root_of[i] = match s.parent {
            Some(p) => root_of[p],
            None => i,
        };
    }
    let mut out: BTreeMap<&'static str, ClassAccount> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        let entry = out.entry(spans[root_of[i]].name).or_default();
        if s.parent.is_none() {
            entry.roots += 1;
            entry.mean_ms += s.dur_ns() as f64;
        }
        let name = if s.parent.is_none() {
            "(leftover)"
        } else {
            s.name
        };
        *entry.self_ms.entry(name).or_default() += selfs[i] as f64;
    }
    for account in out.values_mut() {
        let scale = account.roots.max(1) as f64 * 1e6;
        account.mean_ms /= scale;
        for v in account.self_ms.values_mut() {
            *v /= scale;
        }
    }
    out
}

/// The spans as JSON lines.
pub fn to_jsonl(spans: &[Span]) -> String {
    let mut out = String::new();
    for (id, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{{\"id\":{id},\"parent\":{parent},\"op\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.op, s.name, s.start_ns, s.end_ns
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(parent: Option<usize>, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            op: 1,
            parent,
            name,
            start_ns,
            end_ns,
        }
    }

    /// op [0,100): a [10,40) with child a1 [15,25); b [30,70) overlapping a;
    /// c [90,120) running past the op's end.
    fn tree() -> Vec<Span> {
        vec![
            span(None, "op", 0, 100),
            span(Some(0), "a", 10, 40),
            span(Some(1), "a1", 15, 25),
            span(Some(0), "b", 30, 70),
            span(Some(0), "c", 90, 120),
        ]
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // op: children cover [10,70) ∪ [90,100) = 70 of 100.
        // a: 30 − 10; a1, b, c: leaves keep their whole duration.
        assert_eq!(self_times(&tree()), vec![30, 20, 10, 40, 30]);
    }

    #[test]
    fn self_times_add_up_to_the_op_when_children_nest() {
        let spans = vec![
            span(None, "op", 0, 100),
            span(Some(0), "a", 10, 40),
            span(Some(1), "a1", 15, 25),
            span(Some(0), "b", 50, 90),
        ];
        assert_eq!(self_times(&spans).iter().sum::<u64>(), 100);
        let acc = &accounting(&spans)["op"];
        assert_eq!(acc.roots, 1);
        assert!((acc.mean_ms - 100e-6).abs() < 1e-12);
        let sum: f64 = acc.self_ms.values().sum();
        assert!((sum - acc.mean_ms).abs() < 1e-12);
        assert!((acc.self_ms["(leftover)"] - 30e-6).abs() < 1e-12);
    }

    #[test]
    fn tracer_places_reported_children_back_to_back() {
        let mut t = Tracer::new(Instant::now());
        t.set_op(8, false);
        let skipped = t.begin("skipped");
        t.reported_under(skipped, "skipped_child", 4);
        t.end(skipped);
        t.set_op(9, true);
        let op = t.begin("op");
        let a = t.reported("a", 5);
        let b = t.reported("b", 7);
        t.reported_under(b, "b1", 3);
        t.reported_under(b, "b2", 2);
        t.end(op);
        let spans = t.into_spans();
        assert_eq!(spans.len(), 5, "the untraced op recorded nothing");
        assert_eq!(spans[a].dur_ns(), 5);
        assert_eq!(spans[b].start_ns, spans[a].end_ns);
        assert_eq!(spans[3].start_ns, spans[b].start_ns);
        assert_eq!(spans[4].start_ns, spans[3].end_ns);
        assert!(spans.iter().all(|s| s.op == 9));
        assert_eq!(self_times(&spans)[b], 2);
    }

    #[test]
    fn merge_shifts_parents() {
        let merged = merge(vec![tree(), tree()]);
        assert_eq!(merged[5].parent, None);
        assert_eq!(merged[7].parent, Some(6));
        assert_eq!(self_times(&merged)[5..], self_times(&tree())[..]);
        let totals = totals_by_name(&merged);
        assert_eq!(totals["a"].calls, 2);
        assert_eq!(totals["a"].total_ns, 60);
        assert_eq!(totals["a"].self_ns, 40);
    }
}
