//! The pull-based cursor runtime: streaming evaluation of qualifying path
//! expressions, one item per `next()` call, no intermediate sequences.
//!
//! The runner ([`crate::run`]) evaluates whole consumer positions against
//! this protocol: `exists(PATH)` (and every EBV position) is one pull,
//! `for $x in PATH` pulls bindings, `count(PATH)` pulls and discards,
//! `subsequence(PATH, 2, 3)` and `(//item)[3]` stop pulling as soon as the
//! prefix they need is out, and `PATH = v` stops at the first comparison
//! hit.
//!
//! ## Which paths stream
//!
//! [`classify_steps`] admits exactly the chains whose streamed emission
//! order is provably the materialised result, with no dedup pass:
//!
//! * every non-final step is a predicate-free **child-axis** step
//!   (`a`, `//a`);
//! * the final step is a child- or attribute-axis step (`b`, `//b`, `@b`,
//!   `//@b`) that is predicate-free or carries **one positional predicate**
//!   recognised by [`positional_predicate`] (`[3]`, `[position() <= 5]`,
//!   `[5 >= position()]`, …);
//! * the start expression evaluates to a single node (checked at runtime
//!   by the runner; other starts finish on the generic evaluator).
//!
//! Child and attribute steps have a unique origin per result node (its
//! parent / its owner element), so a pre-order walk from the single start
//! node visits every candidate exactly once, in document order — the
//! streamed output needs neither the `dedup_sorted` pass nor a buffer.
//! Reverse axes, `self`/`parent` steps, general predicates, and multi-node
//! starts all fall back to the materialised evaluator; consumers that need
//! a whole sequence at once (sorting, set operations, general `=` against
//! a multi-item side) call [`PathCursor::materialize`].
//!
//! A lone predicate-free `//name` or `//@name` step does not walk at all:
//! the cursor reads the store's per-tree name index
//! ([`Store::name_span`]), so `count` is the window's length and existence
//! is its first entry.
//!
//! ## The step NFA
//!
//! A `//`-step may consume context nodes at any depth, so one tree node can
//! be "in the context" of several steps at once (`//a//a`). Each DFS frame
//! carries a bitset `avail` whose bit *j* means "steps[j] may consume
//! children (or attributes) of this node": bit 0 is seeded at the start
//! node, a child that matches steps[j] contributes bit *j+1* to its own
//! frame, and bits whose step is a `//` abbreviation are inherited down the
//! stack unchanged. A child is *emitted* when it matches the final step —
//! at most once per visit, hence at most once overall.
//!
//! ## Observable-semantics contract
//!
//! The admitted steps cannot raise and cannot trace: axis steps over nodes
//! are infallible, and a positional predicate is a literal or a
//! `position()` comparison over singleton integers — also infallible. The
//! start expression is always evaluated eagerly by the runner (its errors
//! and traces are the path's own and must fire in source order), so
//! `next()` itself is infallible and effect-free: interleaving pulls with
//! consumer work (a FLWOR `return`, a quantifier body) is unobservable, and
//! abandoning a cursor early changes no output, no error, and no trace.
//! The differential corpus pins this under every engine config, including
//! `runtime_opt: false`, which forces every consumer back onto
//! the materialised evaluator.

use crate::ast::{Axis, CmpOp};
use crate::functions::Builtin;
use crate::lower::{LExpr, LNodeTest, LPathStep};
use crate::obs::EvalStats;
use crate::run::node_test_matches;
use crate::value::{Atomic, Item, Sequence};
use xmlstore::{NameSpan, NodeId, NodeKind, QName, Store};

/// Positional bounds stay far below 2^53 so the generic predicate rule
/// (`predicate_outcome` compares positions as `f64`) and the streamed
/// counter comparison (exact `i64`) cannot disagree on any reachable
/// position.
const MAX_POS_LITERAL: u64 = 1 << 50;

/// More steps than `avail` has bits; no real query gets close.
const MAX_STEPS: usize = 48;

/// An integer literal within the positional bound — the only window or
/// position argument the cursor consumers take over (the generic dispatch
/// goes through `f64`, which is exact here).
pub(crate) fn int_literal(e: &LExpr) -> Option<i64> {
    match e {
        LExpr::Literal(Atomic::Int(n)) if n.unsigned_abs() <= MAX_POS_LITERAL => Some(*n),
        _ => None,
    }
}

/// A step chain admitted for streaming: the steps themselves, whether the
/// final step runs on the attribute axis, its positional predicate (as a
/// comparison the per-origin match counter is checked against), which
/// steps are `//` abbreviations, and — for a lone predicate-free `//name`
/// or `//@name` step — the name the store's index answers.
pub(crate) struct StreamPlan<'p> {
    steps: &'p [LPathStep],
    attr_final: bool,
    pos: Option<(CmpOp, i64)>,
    /// Bit `j` set: `steps[j]` is a `//` abbreviation, so its context bit
    /// is inherited by every frame below the one that owns it.
    ds_mask: u64,
    name_index: Option<QName>,
}

impl StreamPlan<'_> {
    /// Does the final step carry a positional predicate (and so early-exit
    /// inside each origin's candidate list)?
    pub(crate) fn has_positional(&self) -> bool {
        self.pos.is_some()
    }

    /// Is this a lone `//name` / `//@name` step read from the name index?
    pub(crate) fn reads_name_index(&self) -> bool {
        self.name_index.is_some()
    }

    /// Does the per-origin match counter satisfy the positional predicate?
    fn pos_ok(&self, cnt: i64) -> bool {
        match self.pos {
            None => true,
            Some((op, n)) => match op {
                CmpOp::Eq => cnt == n,
                CmpOp::Ne => cnt != n,
                CmpOp::Lt => cnt < n,
                CmpOp::Le => cnt <= n,
                CmpOp::Gt => cnt > n,
                CmpOp::Ge => cnt >= n,
            },
        }
    }

    /// The node test of `steps[j]` (every admitted step is an axis step).
    fn test(&self, j: usize) -> &LNodeTest {
        match &self.steps[j].expr {
            LExpr::AxisStep { test, .. } => test,
            _ => unreachable!("classify_steps admits only axis steps"),
        }
    }
}

/// The positional predicates the cursor understands, normalised to
/// `position() OP n`: a bare integer literal (`[3]` means `position() = 3`)
/// or a general/value comparison between a zero-argument `position()` call
/// and an integer literal, either way round (`[5 >= position()]` flips to
/// `position() <= 5`). Everything the shapes admit is an infallible,
/// trace-free singleton comparison, so evaluating it as a counter check is
/// unobservable.
pub(crate) fn positional_predicate(pred: &LExpr) -> Option<(CmpOp, i64)> {
    fn is_position_call(e: &LExpr) -> bool {
        matches!(
            e,
            LExpr::CallBuiltin {
                builtin: Builtin::Position,
                args,
                ..
            } if args.is_empty()
        )
    }
    fn flip(op: CmpOp) -> CmpOp {
        match op {
            CmpOp::Eq => CmpOp::Eq,
            CmpOp::Ne => CmpOp::Ne,
            CmpOp::Lt => CmpOp::Gt,
            CmpOp::Le => CmpOp::Ge,
            CmpOp::Gt => CmpOp::Lt,
            CmpOp::Ge => CmpOp::Le,
        }
    }
    match pred {
        LExpr::Literal(_) => int_literal(pred).map(|n| (CmpOp::Eq, n)),
        LExpr::GeneralCmp(op, l, r) | LExpr::ValueCmp(op, l, r) => {
            if is_position_call(l) {
                int_literal(r).map(|n| (*op, n))
            } else if is_position_call(r) {
                int_literal(l).map(|n| (flip(*op), n))
            } else {
                None
            }
        }
        _ => None,
    }
}

/// Admits a step chain for streaming, or `None` for the materialised
/// evaluator. This is the authoritative gate — the runner, the
/// `explain()` annotations, and the lopt plan stats all call it, so the
/// plan a user reads matches what the runner does. It allocates nothing:
/// existence checks call it on every evaluation.
pub(crate) fn classify_steps(steps: &[LPathStep]) -> Option<StreamPlan<'_>> {
    if steps.is_empty() || steps.len() > MAX_STEPS {
        return None;
    }
    let (last, init) = steps.split_last().expect("non-empty");
    let mut ds_mask = 0u64;
    for (j, s) in steps.iter().enumerate() {
        if s.double_slash {
            ds_mask |= 1 << j;
        }
    }
    for s in init {
        let LExpr::AxisStep {
            axis: Axis::Child,
            predicates,
            ..
        } = &s.expr
        else {
            return None;
        };
        if !predicates.is_empty() {
            return None;
        }
    }
    let LExpr::AxisStep {
        axis,
        test,
        predicates,
        ..
    } = &last.expr
    else {
        return None;
    };
    let attr_final = match axis {
        Axis::Child => false,
        Axis::Attribute => true,
        _ => return None,
    };
    let pos = match predicates.as_slice() {
        [] => None,
        [p] => Some(positional_predicate(p)?),
        _ => return None,
    };
    let name_index = match (init, test, pos) {
        ([], LNodeTest::Name(name), None) if last.double_slash => Some(*name),
        _ => None,
    };
    Some(StreamPlan {
        steps,
        attr_final,
        pos,
        ds_mask,
        name_index,
    })
}

/// One pre-order DFS frame: a node whose children (and, for an
/// attribute-final chain, attributes) are still being scanned. Only the
/// node id and scan positions are held — child and attribute slices are
/// re-fetched from the store per pull (an O(1) arena lookup on both
/// substrates), so no borrow outlives a `next()` call and the cursor
/// survives store growth from constructors running between pulls.
struct DfsFrame {
    node: NodeId,
    /// Bit `j` set: `steps[j]` may consume children/attributes of `node`.
    avail: u64,
    next_child: u32,
    next_attr: u32,
    attrs_done: bool,
    /// Final-step matches seen among this frame's candidates — the
    /// per-origin `position()` the positional predicate is checked against.
    matched: i64,
}

impl DfsFrame {
    fn new(node: NodeId, avail: u64) -> DfsFrame {
        DfsFrame {
            node,
            avail,
            next_child: 0,
            next_attr: 0,
            attrs_done: false,
            matched: 0,
        }
    }
}

/// Where the cursor's items come from.
enum Walk {
    /// A pre-order walk: the start node's frame sits inline in `root`, and
    /// only descents below it push onto `stack` — so a one-level walk
    /// (`$n/a`, `$n/@a`, the common existence shapes) never touches the
    /// heap. `root` is `None` once the walk is exhausted.
    Dfs {
        root: Option<DfsFrame>,
        stack: Vec<DfsFrame>,
    },
    /// A name-index window and the next entry to hand out.
    Index { span: NameSpan, next: usize },
}

/// A pull-based cursor over one streamable path from one start node.
/// `next()` emits result nodes in document order, each exactly once;
/// [`materialize`](PathCursor::materialize) drains into a sequence for
/// consumers that need everything, [`finish_early`](PathCursor::finish_early)
/// records an abandoned (non-exhausted) walk in the stats.
pub(crate) struct PathCursor<'p> {
    plan: StreamPlan<'p>,
    walk: Walk,
}

impl<'p> PathCursor<'p> {
    pub(crate) fn new(
        plan: StreamPlan<'p>,
        start: NodeId,
        store: &Store,
        stats: &mut EvalStats,
    ) -> PathCursor<'p> {
        let walk = match &plan.name_index {
            Some(name) => {
                stats.index_hits += 1;
                Walk::Index {
                    span: store.name_span(start, name, plan.attr_final),
                    next: 0,
                }
            }
            None => Walk::Dfs {
                root: Some(DfsFrame::new(start, 1)),
                stack: Vec::new(),
            },
        };
        PathCursor { plan, walk }
    }

    /// The next result node in document order, or `None` when the walk is
    /// exhausted. Infallible and effect-free — see the module contract.
    pub(crate) fn next(&mut self, store: &Store, stats: &mut EvalStats) -> Option<Item> {
        let node = match &mut self.walk {
            Walk::Index { span, next } => {
                let n = span.get(store, *next)?;
                *next += 1;
                n
            }
            Walk::Dfs { root, stack } => dfs_next(&self.plan, root, stack, store)?,
        };
        stats.items_streamed += 1;
        Some(Item::Node(node))
    }

    /// Drains the remaining walk and returns how many items it held. A
    /// name-index window answers with its length, resolving no ids.
    pub(crate) fn count(mut self, store: &Store, stats: &mut EvalStats) -> usize {
        if let Walk::Index { span, next } = &self.walk {
            return span.len() - next;
        }
        let mut n = 0;
        while self.next(store, stats).is_some() {
            n += 1;
        }
        n
    }

    /// Drains the remaining walk into a sequence — the escape hatch for
    /// consumers that need the whole result at once.
    pub(crate) fn materialize(&mut self, store: &Store, stats: &mut EvalStats) -> Sequence {
        let mut out = Sequence::empty();
        while let Some(item) = self.next(store, stats) {
            out.push(item);
        }
        out
    }

    /// Records an abandoned walk: the consumer decided it needs no more
    /// items while the cursor still had frames (or index entries) left.
    /// Deterministic for a given (program, store) pair, so it is safe to
    /// compare across worker counts like every other counter.
    pub(crate) fn finish_early(&self, stats: &mut EvalStats) {
        let live = match &self.walk {
            Walk::Dfs { root, .. } => root.is_some(),
            Walk::Index { span, next } => *next < span.len(),
        };
        if live {
            stats.cursor_early_exits += 1;
        }
    }
}

/// One step of the pre-order walk: the next node the plan emits. The
/// frame being scanned is the top of `stack`, or `root` once the stack is
/// empty.
fn dfs_next(
    plan: &StreamPlan,
    root: &mut Option<DfsFrame>,
    stack: &mut Vec<DfsFrame>,
    store: &Store,
) -> Option<NodeId> {
    let k = plan.steps.len();
    let final_bit = 1u64 << (k - 1);
    let child_steps = if plan.attr_final { k - 1 } else { k };
    loop {
        let f = match stack.last_mut() {
            Some(f) => f,
            None => root.as_mut()?,
        };
        // Attribute phase first: an element's attributes precede its
        // children in document order.
        if plan.attr_final && !f.attrs_done {
            if f.avail & final_bit != 0 {
                while let Some(&a) = store.nth_attribute(f.node, f.next_attr as usize) {
                    f.next_attr += 1;
                    if node_test_matches(plan.test(k - 1), Axis::Attribute, a, store) {
                        f.matched += 1;
                        if plan.pos_ok(f.matched) {
                            return Some(a);
                        }
                    }
                }
            }
            f.attrs_done = true;
        }
        let Some(&c) = store.nth_child(f.node, f.next_child as usize) else {
            if stack.pop().is_none() {
                *root = None;
            }
            continue;
        };
        f.next_child += 1;
        let mut child_avail = f.avail & plan.ds_mask;
        let mut emits = false;
        for j in 0..child_steps {
            if f.avail & (1 << j) != 0 && node_test_matches(plan.test(j), Axis::Child, c, store) {
                if j + 1 == k {
                    emits = true;
                } else {
                    child_avail |= 1 << (j + 1);
                }
            }
        }
        let mut out = None;
        if emits {
            f.matched += 1;
            if plan.pos_ok(f.matched) {
                out = Some(c);
            }
        }
        // Descend only where some step can still consume: push before
        // returning so the emitted node's subtree is scanned next
        // (pre-order = document order).
        if child_avail != 0 && matches!(store.kind(c), NodeKind::Element(_)) {
            stack.push(DfsFrame::new(c, child_avail));
        }
        if out.is_some() {
            return out;
        }
    }
}
