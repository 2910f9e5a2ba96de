//! Observability: per-query runtime counters, the pluggable trace sink,
//! and the `explain()` plan renderer.
//!
//! The paper's sharpest operational complaint is that Galax's optimiser
//! silently deleted `fn:trace` calls — the author was debugging a black
//! box. This engine has since grown four layers of its own (lower → lopt →
//! run → pool) whose rewrites fire invisibly, so this module makes every
//! one of them observable:
//!
//! * [`EvalStats`] — a per-query counter block filled in by the runner as
//!   it executes. One evaluation runs on exactly one thread, so the
//!   counters are plain `u64`s threaded by `&mut` — lock-free by
//!   construction, merged into [`Engine::last_stats`](crate::Engine) when
//!   the evaluation completes.
//! * [`TraceSink`] / [`TraceEvent`] — `fn:trace` becomes a routed side
//!   effect instead of a bare string push. Events carry the query position
//!   and the traced value, and survive every *runtime* pass by
//!   construction: the lopt hoister caches only pure calls (never `trace`,
//!   nor a user function that reaches it), the hash join refuses operands
//!   containing impure calls, and the cursor gate admits only positional
//!   predicates — so the only thing that can delete a trace is the
//!   paper-faithful quirks-mode AST optimiser, which is itself under test.
//! * [`explain`] — renders the lowered-and-optimised [`Program`] as an
//!   annotated plan tree: which `for` clause got the hash-join mark (and
//!   why a candidate `where` was refused), which subexpressions were
//!   hoisted into `CacheOnce` cells (whole, or as the invariant prefix of
//!   a split step, and whether the split is keyed), which user functions
//!   the pass judged pure (and so memoizes), which calls stream or answer
//!   from the store's indexes.

use crate::ast::Axis;
use crate::cursor::{classify_steps, int_literal};
use crate::lopt::{self, PlanStats, Purity};
use crate::lower::{LContentPart, LExpr, LFlworClause, Program, SplitKey};
use crate::run::{call_pushes, flwor_pushes, name_index_step};
use std::collections::{HashMap, HashSet};

// ----------------------------------------------------------------------
// Per-query counters
// ----------------------------------------------------------------------

/// Counters for one evaluation through the lowered runner. All counts are
/// deterministic for a given (program, store) pair — the differential and
/// proptest suites pin that they are invariant across worker counts — while
/// the two `*_ns` fields are wall-clock measurements and are excluded from
/// those comparisons (see [`EvalStats::counters`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EvalStats {
    /// Index-backed steps taken by the lowered runner: `//name` / `//@name`
    /// steps read from the per-tree name index (by the materialised step
    /// loop, or as one cursor window — which is how `count(//name)` becomes
    /// a window length), and fused `[@attr = v]` probes served by the
    /// attribute-value index. The reference walker uses no index.
    pub index_hits: u64,
    /// Fused `[@attr = v]` probes that bailed to the generic scan because
    /// the comparand was not all strings.
    pub index_misses: u64,
    /// Hash tables built for the FLWOR join (at most one per distinct
    /// final-clause sequence per FLWOR evaluation).
    pub join_builds: u64,
    /// Tuples answered by probing a join table.
    pub join_probes: u64,
    /// Tuples that fell back to the plain scan (non-string key or probe
    /// atoms made the table unusable).
    pub join_fallbacks: u64,
    /// `CacheOnce` reads served from an already-filled cell.
    pub cache_hits: u64,
    /// `CacheOnce` cells cleared by a `for` clause (entry and per-tuple
    /// resets combined).
    pub cache_resets: u64,
    /// `exists`/`empty`/`boolean`/`not` calls (and `where`/EBV positions)
    /// answered by one cursor pull, without materialising the path.
    pub streamed_existence: u64,
    /// Items appended to materialised sequences by the runner: FLWOR tuple
    /// output, per-step path results (descendant expansions, step maps,
    /// fused index answers). The number the cursor runtime exists to drive
    /// down — `check-obs` pins the streamed/materialised ratio.
    pub items_allocated: u64,
    /// Items emitted by a streaming path cursor — pulled one at a time by a
    /// consumer instead of being appended to an intermediate sequence.
    pub items_streamed: u64,
    /// Cursors abandoned before exhaustion: a prefix consumer, quantifier,
    /// positional filter, or existential compare decided it needed no more
    /// items while the walk still had frames left.
    pub cursor_early_exits: u64,
    /// Nanoseconds the evaluation waited before it started: for a pool
    /// permit, plus the hand-off to a worker when its plan is pooled. Zero
    /// when issued from a worker.
    pub queue_wait_ns: u64,
    /// Nanoseconds the evaluation ran, on whichever thread ran it (the
    /// caller's for an inline plan).
    pub on_worker_ns: u64,
}

impl EvalStats {
    /// Field-wise sum, for aggregating per-job stats over a batch.
    pub fn merge(&mut self, other: &EvalStats) {
        self.index_hits += other.index_hits;
        self.index_misses += other.index_misses;
        self.join_builds += other.join_builds;
        self.join_probes += other.join_probes;
        self.join_fallbacks += other.join_fallbacks;
        self.cache_hits += other.cache_hits;
        self.cache_resets += other.cache_resets;
        self.streamed_existence += other.streamed_existence;
        self.items_allocated += other.items_allocated;
        self.items_streamed += other.items_streamed;
        self.cursor_early_exits += other.cursor_early_exits;
        self.queue_wait_ns += other.queue_wait_ns;
        self.on_worker_ns += other.on_worker_ns;
    }

    /// The deterministic counters only — timing zeroed — for comparisons
    /// that must hold across worker counts and machines.
    pub fn counters(&self) -> EvalStats {
        EvalStats {
            queue_wait_ns: 0,
            on_worker_ns: 0,
            ..*self
        }
    }

    /// The counters attributable to the runtime optimisation layer (the
    /// hash join, `CacheOnce` cells, and the cursor runtime); all zero when
    /// [`EngineOptions::runtime_opt`](crate::EngineOptions) is off, which
    /// `check-obs` pins.
    pub fn opt_counters(&self) -> [(&'static str, u64); 8] {
        [
            ("join_builds", self.join_builds),
            ("join_probes", self.join_probes),
            ("join_fallbacks", self.join_fallbacks),
            ("cache_hits", self.cache_hits),
            ("cache_resets", self.cache_resets),
            ("streamed_existence", self.streamed_existence),
            ("items_streamed", self.items_streamed),
            ("cursor_early_exits", self.cursor_early_exits),
        ]
    }
}

/// Counters of the runner's reuse routes, kept beside [`EvalStats`]:
/// programs outside the workspace build `EvalStats` with exhaustive struct
/// literals, so its field list stays fixed and later counters live here.
/// Filled and published exactly like `EvalStats` (see
/// [`Engine::last_reuse_stats`](crate::Engine)); both read zero when
/// [`EngineOptions::runtime_opt`](crate::EngineOptions) is off.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReuseStats {
    /// Reads of a keyed split path answered by probing the key table built
    /// over its cached prefix, instead of running the first suffix
    /// predicate once per cached node.
    pub keyed_split_probes: u64,
    /// Pure user-function calls answered from the evaluation's memo.
    pub memo_hits: u64,
    /// Nodes that constructor content in push mode built in place under
    /// the enclosing element, each a deep copy the plain path makes.
    pub pushed_nodes: u64,
}

impl ReuseStats {
    /// Field-wise sum, for aggregating over phases or a batch.
    pub fn merge(&mut self, other: &ReuseStats) {
        self.keyed_split_probes += other.keyed_split_probes;
        self.memo_hits += other.memo_hits;
        self.pushed_nodes += other.pushed_nodes;
    }

    /// The counters by name, as [`EvalStats::opt_counters`] lists its own.
    pub fn counters(&self) -> [(&'static str, u64); 3] {
        [
            ("keyed_split_probes", self.keyed_split_probes),
            ("memo_hits", self.memo_hits),
            ("pushed_nodes", self.pushed_nodes),
        ]
    }
}

/// Time one pool run spent waiting and running, as measured by the pool
/// itself (see [`StackPool`](crate::StackPool)).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolTiming {
    pub queue_wait_ns: u64,
    pub on_worker_ns: u64,
}

// ----------------------------------------------------------------------
// Trace sink
// ----------------------------------------------------------------------

/// One `fn:trace` firing (or a pipeline-phase report routed through the
/// same channel): the label is every argument but the last, the value is
/// the last argument — the early-Galax contract where `trace` returns its
/// final argument.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// All arguments before the last, rendered and space-joined (empty for
    /// a one-argument `trace`).
    pub label: String,
    /// The last argument, rendered — the value `trace` returned.
    pub value: String,
    /// 1-based line/column of the `trace` call (or `(0, 0)` for synthetic
    /// events such as docgen phase reports).
    pub position: (u32, u32),
}

impl TraceEvent {
    /// The exact string the pre-sink engine pushed for this event: all
    /// arguments space-joined. The legacy `Engine::take_trace` API is
    /// reconstructed from this, byte for byte.
    pub fn legacy_line(&self) -> String {
        if self.label.is_empty() {
            self.value.clone()
        } else {
            format!("{} {}", self.label, self.value)
        }
    }
}

/// Where trace events go. The engine always records events internally (for
/// `take_trace`/`take_trace_events`); an extra sink installed with
/// [`Engine::set_trace_sink`](crate::Engine) sees every event as it fires —
/// a live debugger, a log forwarder, a test probe.
///
/// `Send + Sync` is required because the engine (which owns the sink) is
/// itself shared with pool worker threads; the sink is still only ever
/// driven by one evaluation at a time, through `&mut`.
pub trait TraceSink: Send + Sync {
    fn event(&mut self, event: TraceEvent);
}

impl TraceSink for Vec<TraceEvent> {
    fn event(&mut self, event: TraceEvent) {
        self.push(event);
    }
}

// ----------------------------------------------------------------------
// explain()
// ----------------------------------------------------------------------

/// How a synthetic `CacheOnce` slot is reset, recovered from the `for`
/// clauses that own it.
#[derive(Clone, Copy)]
enum ResetKind {
    Entry,
    Iter,
}

/// Renders the lowered-and-optimised program as an annotated plan tree.
///
/// Every lopt rewrite is visible: `for` clauses carry their hash-join mark
/// (or the reason the mark was refused when the `where` looked like a
/// candidate), `CacheOnce` cells say whether they are loop-invariant hoists
/// or per-tuple caches, split steps show their cached prefix apart from
/// their per-read suffix, each user function is marked `[pure]` or
/// `[impure: why]`, calls that the runner will stream or answer from an
/// index are flagged, and with `push` (the engine's `runtime_opt`, which
/// switches the runner's push mode) element content in push mode is
/// marked, with the constructors it builds in place and the calls whose
/// bodies it runs in push mode. A program compiled with `runtime_opt` off
/// renders the same tree with none of the rewrite annotations (the purity
/// marks and the `route:` line, analyses rather than rewrites, appear in
/// both) — diffing the two is the intended way to see what the layer did.
pub fn explain(program: &Program, plan_stats: &PlanStats, push: bool) -> String {
    let mut pushed = HashSet::new();
    if push {
        for f in &program.functions {
            collect_pushed(&f.body, program, &mut pushed);
        }
        for g in &program.globals {
            collect_pushed(&g.expr, program, &mut pushed);
        }
        collect_pushed(&program.body, program, &mut pushed);
    }
    let mut resets = HashMap::new();
    collect_resets(&program.body, &mut resets);
    for f in &program.functions {
        collect_resets(&f.body, &mut resets);
    }
    for g in &program.globals {
        collect_resets(&g.expr, &mut resets);
    }
    let mut out = format!(
        "plan: {} hash join(s), {} invariant hoist(s) ({} split prefix(es), {} keyed), {} per-tuple cache(s), {} streamable binding(s)\n",
        plan_stats.hash_joins,
        plan_stats.hoisted_invariant,
        plan_stats.split_prefixes,
        plan_stats.keyed_splits,
        plan_stats.cached_per_tuple,
        plan_stats.streamable_bindings
    );
    out.push_str(&format!("route: {}\n", program.route));
    let purity = Purity::analyse(&program.functions);
    let cx = ExplainCx {
        program,
        resets: &resets,
        purity: &purity,
        push,
        pushed: &pushed,
    };
    for (i, f) in program.functions.iter().enumerate() {
        match purity.reason(&program.functions, i) {
            None => out.push_str(&format!("function {}  [pure]:\n", f.name)),
            Some(why) => out.push_str(&format!("function {}  [impure: {why}]:\n", f.name)),
        }
        render(&f.body, 1, &cx, &mut out);
    }
    for g in &program.globals {
        out.push_str(&format!("global ${}:\n", g.name));
        render(&g.expr, 1, &cx, &mut out);
    }
    render(&program.body, 0, &cx, &mut out);
    out
}

struct ExplainCx<'a> {
    program: &'a Program,
    resets: &'a HashMap<u32, ResetKind>,
    purity: &'a Purity,
    /// Whether element content runs in push mode.
    push: bool,
    /// The expressions push mode reaches that build in place or pass it
    /// into a function body (see [`collect_pushed`]).
    pushed: &'a HashSet<*const LExpr>,
}

/// Collects, under every element constructor in `e`, the expressions the
/// runner's push mode (`run::run_content`) builds in place or calls in
/// push mode: it passes through sequences, `if` branches and the `return`
/// of a FLWOR that pushes.
fn collect_pushed(e: &LExpr, program: &Program, out: &mut HashSet<*const LExpr>) {
    fn reach(e: &LExpr, program: &Program, out: &mut HashSet<*const LExpr>) {
        match e {
            LExpr::Comma(parts) => parts.iter().for_each(|p| reach(p, program, out)),
            LExpr::If(_, t, f) => {
                reach(t, program, out);
                reach(f, program, out);
            }
            LExpr::Flwor {
                clauses,
                order_by,
                return_,
                ..
            } if flwor_pushes(clauses, order_by) => reach(return_, program, out),
            LExpr::CallUser { index, .. } if call_pushes(&program.functions[*index as usize]) => {
                out.insert(e);
            }
            LExpr::DirectElement { .. } | LExpr::CompElement { .. } | LExpr::CompText(_) => {
                out.insert(e);
            }
            _ => {}
        }
    }
    match e {
        LExpr::DirectElement { content, .. } => {
            for part in content {
                if let LContentPart::Enclosed(c) | LContentPart::Node(c) = part {
                    reach(c, program, out);
                }
            }
        }
        LExpr::CompElement {
            content: Some(c), ..
        }
        | LExpr::CompDocument { content: c, .. } => reach(c, program, out),
        _ => {}
    }
    e.for_each_child(&mut |c| collect_pushed(c, program, out));
}

fn collect_resets(e: &LExpr, map: &mut HashMap<u32, ResetKind>) {
    if let LExpr::Flwor { clauses, .. } = e {
        for c in clauses {
            if let LFlworClause::For {
                reset_entry,
                reset_iter,
                ..
            } = c
            {
                for s in reset_entry {
                    map.insert(*s, ResetKind::Entry);
                }
                for s in reset_iter {
                    map.insert(*s, ResetKind::Iter);
                }
            }
        }
    }
    e.for_each_child(&mut |c| collect_resets(c, map));
}

fn indent(depth: usize, out: &mut String) {
    for _ in 0..depth {
        out.push_str("  ");
    }
}

fn line(depth: usize, text: &str, out: &mut String) {
    indent(depth, out);
    out.push_str(text);
    out.push('\n');
}

fn axis_name(axis: Axis) -> String {
    format!("{axis:?}").to_lowercase()
}

/// One-line label for a node; annotations are appended by the caller.
fn label(e: &LExpr, cx: &ExplainCx) -> String {
    match e {
        LExpr::Literal(a) => format!("literal {}", a.to_text()),
        LExpr::LocalRef(s) => format!("local $#{s}"),
        LExpr::GlobalRef(name, _) => format!("global ${name}"),
        LExpr::ContextItem(_) => "context-item".to_string(),
        LExpr::Root(_) => "root (/)".to_string(),
        LExpr::Comma(_) => "sequence (,)".to_string(),
        LExpr::Range(..) => "range (to)".to_string(),
        LExpr::Arith(op, ..) => format!("arith {op:?}"),
        LExpr::Neg(_) => "negate".to_string(),
        LExpr::GeneralCmp(op, ..) => format!("general-compare {op:?}"),
        LExpr::ValueCmp(op, ..) => format!("value-compare {op:?}"),
        LExpr::NodeCmp(op, ..) => format!("node-compare {op:?}"),
        LExpr::SetExpr(op, ..) => format!("set {op:?}"),
        LExpr::And(..) => "and".to_string(),
        LExpr::Or(..) => "or".to_string(),
        LExpr::If(..) => "if".to_string(),
        LExpr::Flwor { .. } => "flwor".to_string(),
        LExpr::Quantified { quantifier, .. } => format!("quantified {quantifier:?}"),
        LExpr::AxisStep { axis, test, .. } => {
            format!("step {}::{}", axis_name(*axis), test.display_name())
        }
        LExpr::Path { .. } => "path".to_string(),
        LExpr::Filter(..) => "filter".to_string(),
        LExpr::CallBuiltin { builtin, .. } => format!("fn:{}", builtin.name()),
        LExpr::CallUser { index, .. } => {
            let name = &cx.program.functions[*index as usize].name;
            format!("call {name}")
        }
        LExpr::CallUnknown { name, .. } => format!("call {name} (unresolved)"),
        LExpr::DirectElement { name, .. } => format!("element <{name}>"),
        LExpr::CompElement { .. } => "computed element".to_string(),
        LExpr::CompAttribute { .. } => "computed attribute".to_string(),
        LExpr::CompText(_) => "computed text".to_string(),
        LExpr::CompComment(_) => "computed comment".to_string(),
        LExpr::CompDocument { .. } => "computed document".to_string(),
        LExpr::TryCatch { .. } => "try/catch".to_string(),
        LExpr::TypeSwitch { .. } => "typeswitch".to_string(),
        LExpr::InstanceOf(..) => "instance-of".to_string(),
        LExpr::CastAs(..) => "cast".to_string(),
        LExpr::CastableAs(..) => "castable".to_string(),
        LExpr::CacheOnce { slot, .. } => format!("cache-once @{slot}"),
        LExpr::SplitPath { .. } => "split path".to_string(),
    }
}

/// Runtime-rewrite annotations for a node, mirroring the exact gates the
/// runner applies (see `run.rs`): the annotation appears iff the fast path
/// will actually be attempted.
fn annotations(e: &LExpr, cx: &ExplainCx) -> Vec<String> {
    let mut out = Vec::new();
    if cx.pushed.contains(&(e as *const LExpr)) {
        out.push(match e {
            LExpr::CallUser { .. } => "push mode: the body builds in place".to_string(),
            _ => "pushed: built in place under the enclosing element".to_string(),
        });
    }
    match e {
        LExpr::DirectElement { content, .. }
            if cx.push
                && content
                    .iter()
                    .any(|p| !matches!(p, LContentPart::Literal(_))) =>
        {
            out.push("content in push mode".to_string())
        }
        LExpr::CompElement {
            content: Some(_), ..
        }
        | LExpr::CompDocument { .. }
            if cx.push =>
        {
            out.push("content in push mode".to_string())
        }
        LExpr::CacheOnce { slot, .. } => match cx.resets.get(slot) {
            Some(ResetKind::Entry) => {
                out.push("hoisted loop-invariant: refills once per loop entry".to_string())
            }
            Some(ResetKind::Iter) => {
                out.push("common subexpression: one evaluation per tuple".to_string())
            }
            None => out.push("cached once per evaluation".to_string()),
        },
        LExpr::CallBuiltin { builtin, args, .. } => {
            use crate::functions::Builtin as B;
            let plan = match args.first() {
                Some(LExpr::Path { steps, .. }) => classify_steps(steps),
                _ => None,
            };
            if let Some(plan) = plan {
                match builtin {
                    B::Exists | B::Empty | B::Boolean | B::Not if args.len() == 1 => {
                        out.push("streamed existence: one cursor pull, no materialisation".into())
                    }
                    B::Count if args.len() == 1 && plan.reads_name_index() => out
                        .push("index-range count: the per-tree name index window's length".into()),
                    B::Count if args.len() == 1 => out.push(
                        "streamed count: items pulled and discarded, never materialised".into(),
                    ),
                    B::Subsequence
                        if args.len() >= 2
                            && args[1..].iter().all(|a| int_literal(a).is_some()) =>
                    {
                        out.push("streamed subsequence: stops pulling past the window".into())
                    }
                    _ => {}
                }
            }
        }
        LExpr::Path { steps, .. } => {
            if classify_steps(steps).is_some_and(|plan| plan.has_positional()) {
                out.push("streamed path: pull cursor with positional early-exit".to_string());
            } else if steps.iter().any(|s| name_index_step(s).is_some()) {
                out.push("`//` step answered from the per-tree name index".to_string());
            }
        }
        LExpr::AxisStep {
            axis,
            test,
            predicates,
            ..
        } if crate::run::fused_attr_eq_step(*axis, test, predicates).is_some() => {
            out.push("[@attr = v] probe against the attribute-value index".to_string());
        }
        _ => {}
    }
    out
}

fn render(e: &LExpr, depth: usize, cx: &ExplainCx, out: &mut String) {
    let mut text = label(e, cx);
    for a in annotations(e, cx) {
        text.push_str("  [");
        text.push_str(&a);
        text.push(']');
    }
    line(depth, &text, out);
    if let LExpr::Flwor {
        clauses,
        where_,
        order_by,
        return_,
    } = e
    {
        let fallback = lopt::join_gate(clauses, where_, cx.purity).err().flatten();
        for c in clauses {
            match c {
                LFlworClause::For {
                    var,
                    at,
                    seq,
                    reset_entry,
                    reset_iter,
                    join,
                } => {
                    let mut head = format!("for $#{var}");
                    if let Some(at) = at {
                        head.push_str(&format!(" at $#{at}"));
                    }
                    if let Some(side) = join {
                        head.push_str(&format!(
                            "  [hash join: build side; key = {side:?} operand of `where`]"
                        ));
                    } else if let LExpr::Path { steps, .. } = seq {
                        if classify_steps(steps).is_some() {
                            head.push_str("  [streamed binding: tuples pulled from a cursor]");
                        }
                    }
                    if !reset_entry.is_empty() {
                        head.push_str(&format!(
                            "  [clears {} invariant cache(s) on entry]",
                            reset_entry.len()
                        ));
                    }
                    if !reset_iter.is_empty() {
                        head.push_str(&format!(
                            "  [clears {} per-tuple cache(s) each binding]",
                            reset_iter.len()
                        ));
                    }
                    line(depth + 1, &head, out);
                    render(seq, depth + 2, cx, out);
                }
                LFlworClause::Let {
                    var, name, expr, ..
                } => {
                    line(depth + 1, &format!("let $#{var} (${name})"), out);
                    render(expr, depth + 2, cx, out);
                }
            }
        }
        if let Some(w) = where_ {
            let joined = clauses
                .iter()
                .any(|c| matches!(c, LFlworClause::For { join: Some(_), .. }));
            let mut head = "where".to_string();
            if joined {
                head.push_str("  [equality subsumed by the hash join]");
            } else if let Some(reason) = fallback {
                head.push_str(&format!("  [hash join not applied: {reason}]"));
            }
            line(depth + 1, &head, out);
            render(w, depth + 2, cx, out);
        }
        for spec in order_by {
            line(depth + 1, "order-by", out);
            render(&spec.key, depth + 2, cx, out);
        }
        line(depth + 1, "return", out);
        render(return_, depth + 2, cx, out);
        return;
    }
    if let LExpr::SplitPath {
        prefix,
        suffix,
        key,
        unsplit,
    } = e
    {
        let mut head = label(prefix, cx);
        if let LExpr::CacheOnce { slot, expr } = &**prefix {
            let refill = match cx.resets.get(slot) {
                Some(ResetKind::Entry) => "refills once per loop entry",
                Some(ResetKind::Iter) => "refills once per tuple",
                None => "filled once per evaluation",
            };
            head.push_str(&format!(
                "  [split-prefix hoist: the step's invariant leading predicates; {refill}]"
            ));
            line(depth + 1, &head, out);
            render(expr, depth + 2, cx, out);
        }
        let suffix_head = match key {
            Some(SplitKey { side, .. }) => format!(
                "suffix  [keyed: the first predicate probes a hash table over the cached prefix; key = {side:?} operand; the rest re-applied to the matches]"
            ),
            None => "suffix  [predicates re-applied to the cached prefix on every read]".to_string(),
        };
        line(depth + 1, &suffix_head, out);
        for p in suffix {
            render(p, depth + 2, cx, out);
        }
        line(
            depth + 1,
            "unsplit  [evaluated instead if the split form raises]",
            out,
        );
        render(unsplit, depth + 2, cx, out);
        return;
    }
    e.for_each_child(&mut |c| render(c, depth + 1, cx, out));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Engine, EngineOptions};

    #[test]
    fn legacy_line_reconstruction() {
        let e = TraceEvent {
            label: "x=".to_string(),
            value: "5".to_string(),
            position: (1, 10),
        };
        assert_eq!(e.legacy_line(), "x= 5");
        let one_arg = TraceEvent {
            label: String::new(),
            value: "5".to_string(),
            position: (1, 1),
        };
        assert_eq!(one_arg.legacy_line(), "5");
    }

    #[test]
    fn counters_strip_timing() {
        let mut a = EvalStats {
            join_builds: 1,
            queue_wait_ns: 999,
            on_worker_ns: 123,
            ..Default::default()
        };
        let b = EvalStats {
            join_builds: 1,
            queue_wait_ns: 5,
            on_worker_ns: 6,
            ..Default::default()
        };
        assert_ne!(a, b);
        assert_eq!(a.counters(), b.counters());
        a.merge(&b);
        assert_eq!(a.join_builds, 2);
        assert_eq!(a.queue_wait_ns, 1004);
    }

    #[test]
    fn explain_marks_the_hash_join_and_the_hoist() {
        let e = Engine::new();
        let q = e
            .compile(
                "let $d := <r><a id='1'/><a id='2'/></r> \
                 return for $n in $d/a for $r in $d/a where $r/@id = $n/@id return $r",
            )
            .unwrap();
        let plan = e.explain(&q);
        assert!(plan.contains("hash join: build side"), "{plan}");
        assert!(
            plan.contains("equality subsumed by the hash join"),
            "{plan}"
        );
    }

    #[test]
    fn explain_names_the_refusal_reason() {
        // trace(…) is an impure call: the join gate refuses it, and the
        // plan says so.
        let e = Engine::new();
        let q = e
            .compile("for $n in (1, 2) for $r in (3, 4) where trace('r', $r) = $n return $r")
            .unwrap();
        let plan = e.explain(&q);
        assert!(plan.contains("hash join not applied"), "{plan}");
        assert!(plan.contains("impure calls"), "{plan}");
    }

    #[test]
    fn explain_sets_split_prefix_cells_apart() {
        let e = Engine::new();
        let q = e
            .compile(
                "declare function local:odd($k) { ends-with($k, '1') }; \
                 let $d := <r><a k='1' g='1'/><a k='21' g='2'/></r> \
                 return for $i in (1, 2) return count($d/a[local:odd(string(@k))][@g = $i])",
            )
            .unwrap();
        let plan = e.explain(&q);
        // `@g = $i` reads the candidate on one side only: keyed.
        assert!(plan.contains("(1 split prefix(es), 1 keyed)"), "{plan}");
        assert!(plan.contains("function local:odd  [pure]:"), "{plan}");
        assert!(plan.contains("split-prefix hoist"), "{plan}");
        assert!(!plan.contains("hoisted loop-invariant"), "{plan}");
        assert!(plan.contains("suffix  [keyed: "), "{plan}");
        assert!(plan.contains("unsplit  [evaluated instead"), "{plan}");
    }

    #[test]
    fn explain_marks_a_string_comparand_as_an_index_probe() {
        let e = Engine::new();
        for (src, probe) in [
            ("for $r in /m/r return /m/n[@id = string($r/@to)]", true),
            ("for $r in /m/r return /m/n[@id = data($r/@to)]", true),
            ("for $r in /m/r return /m/n[@id = string(.)]", false),
            ("for $r in /m/r return /m/n[@id = string(/m/r[@x])]", false),
        ] {
            let plan = e.explain(&e.compile(src).unwrap());
            assert_eq!(
                plan.contains("[@attr = v] probe against the attribute-value index"),
                probe,
                "{src}: {plan}"
            );
        }
    }

    #[test]
    fn explain_without_runtime_opt_has_no_rewrite_marks() {
        let e = Engine::with_options(EngineOptions {
            runtime_opt: false,
            ..Default::default()
        });
        let q = e
            .compile(
                "let $d := <r><a id='1'/></r> \
                 return for $n in $d/a for $r in $d/a where $r/@id = $n/@id return $r",
            )
            .unwrap();
        let plan = e.explain(&q);
        assert!(plan.contains("0 hash join(s)"), "{plan}");
        assert!(!plan.contains("hash join: build side"), "{plan}");
        assert!(!plan.contains("cache-once"), "{plan}");
        assert!(!plan.contains("push mode"), "{plan}");
        assert!(!plan.contains("pushed"), "{plan}");
    }

    #[test]
    fn explain_marks_push_mode() {
        let e = Engine::new();
        let q = e
            .compile(
                "declare function local:w($x) { <w>{$x}</w> }; \
                 let $b := <b/> \
                 return <a>{$b, if (1) then <i/> else text {\"t\"}, local:w(1), \
                            for $n in (2, 1) order by $n return <o/>}</a>",
            )
            .unwrap();
        let plan = e.explain(&q);
        assert!(
            plan.contains("element <a>  [content in push mode]"),
            "{plan}"
        );
        for pushed in ["element <i>", "computed text"] {
            assert!(
                plan.contains(&format!("{pushed}  [pushed: built in place")),
                "{pushed}: {plan}"
            );
        }
        assert!(
            plan.contains("call local:w  [push mode: the body builds in place]"),
            "{plan}"
        );
        // A `let`-bound constructor and an `order by` return are copied.
        assert!(plan.contains("element <b>\n"), "{plan}");
        assert!(plan.contains("element <o>\n"), "{plan}");
    }

    #[test]
    fn explain_marks_streamed_and_index_calls() {
        let e = Engine::new();
        let q = e.compile("exists(//node) and count(//rel) > 0").unwrap();
        let plan = e.explain(&q);
        assert!(plan.contains("streamed existence"), "{plan}");
        assert!(plan.contains("index-range count"), "{plan}");
    }
}
