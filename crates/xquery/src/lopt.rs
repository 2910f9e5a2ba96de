//! The lowered-plan optimisation pass: loop-invariant hoisting and
//! common-subexpression caching over FLWOR regions.
//!
//! This runs between [`crate::lower`] and [`crate::run`], after the
//! paper-faithful AST optimizer has already done its (quirks-aware) work —
//! the module the tree-walking reference evaluator executes is never
//! touched, so the differential suite can hold the two paths observably
//! identical with the pass on and off.
//!
//! ## What it does
//!
//! Within each FLWOR that has at least one `for` clause, repeated or
//! loop-invariant subexpressions are wrapped in [`LExpr::CacheOnce`] cells
//! backed by synthetic frame slots appended past the source program's
//! locals. A cell evaluates its body on first *read* — in source position,
//! so an expression that raises still raises exactly when the unhoisted
//! program would — and is cleared by the `for` clause recorded in its
//! reset list ([`LFlworClause::For`]):
//!
//! * **entry reset** at the first `for` clause after every binding the
//!   subexpression depends on: the value is invariant across that loop, so
//!   it refills at most once per (re-)entry of the loop. This is classic
//!   loop-invariant code motion, done lazily.
//! * **iteration reset** at the innermost `for` clause, for subexpressions
//!   that depend on the current tuple but occur more than once downstream
//!   (`where` plus `order by`, say): one evaluation per tuple.
//!
//! A path that is not cacheable as a whole may still have a cacheable
//! head: `$model/relation[f(@type, $rel)][@source = $r/@id]` inside a loop
//! over `$r`. Its last step is then **split** at the invariant predicate
//! prefix into an [`LExpr::SplitPath`]: the prefix `start/step[p1..pk]`
//! goes into a cell like any other candidate, and the remaining
//! predicates filter the cached sequence on every read. The split is made
//! only when every suffix predicate is pure, statically boolean, and never
//! asks for `position()` or `last()` — then filtering the whole cached
//! sequence keeps exactly the nodes the per-context step would. If the
//! split form raises, the runtime evaluates the original, unsplit path and
//! returns its outcome, so error codes and positions are the unhoisted
//! program's; both halves are pure, so the re-run shows only as time.
//!
//! A split whose first suffix predicate is `K = V`, with K reading only the
//! candidate node and V focus-free, is also **keyed** ([`split_key`]): the
//! runtime answers that predicate from a hash table over the cached prefix
//! instead of running it once per cached node.
//!
//! Finally the pass marks every pure user function
//! ([`CompiledFunction::pure`]), which lets the runner memoize its calls
//! within one evaluation.
//!
//! ## What may be cached
//!
//! Only subtrees that are deterministic given the frame:
//!
//! * **pure calls only.** A builtin is pure unless it is `fn:trace`,
//!   `fn:doc` or `fn:error`; zero-arity builtins that read the focus
//!   (`string()`, `name()`, `position()`, `last()`, …) count as a focus use.
//!   A user function is pure when its body holds no impure builtin call, no
//!   node constructor and no unresolved call, and calls only pure
//!   functions — a greatest fixpoint over the call graph ([`Purity`]), so
//!   recursive helpers qualify. A function body never sees the caller's
//!   frame or focus, so its result depends on its arguments and the
//!   globals alone. Trace order, `fn:doc` and quirks-mode trace semantics
//!   are therefore never affected;
//! * no node constructors (constructors create fresh node identities per
//!   evaluation, and a constructor elsewhere can never invalidate a cached
//!   *existing* node sequence because construction deep-copies content
//!   instead of mutating trees);
//! * no binder constructs, and no use of the *outer* focus — a path's own
//!   steps and predicates rebind focus internally and are fine. References
//!   to slots bound by nested binder constructs are excluded by poisoning
//!   during the scan: sibling scopes reuse slot numbers, so a nested
//!   `for $c` can shadow the number of an outer `let` and a naive slot
//!   check would lie.

use crate::ast::{Axis, CmpOp};
use crate::functions::Builtin;
use crate::lower::{
    CompiledFunction, JoinSide, LExpr, LFlworClause, LNodeTest, LOrderSpec, LPathStep, Program,
    SplitKey,
};
use crate::value::Atomic;
use std::collections::HashMap;
use xmlstore::Sym;

/// What the pass did, for inspection and benchmarks (the differential
/// corpus asserts results are identical whether these are zero or not).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlanStats {
    /// `CacheOnce` cells reset at loop entry (loop-invariant hoists),
    /// split-prefix cells included.
    pub hoisted_invariant: usize,
    /// Path sites rewritten to [`LExpr::SplitPath`]: the last step's
    /// invariant predicate prefix read from a cell, the rest applied as a
    /// filter per read.
    pub split_prefixes: usize,
    /// Those split sites whose first suffix predicate is keyed (see
    /// [`split_key`]): answered by a hash-table probe per read.
    pub keyed_splits: usize,
    /// `CacheOnce` cells reset per tuple (common-subexpression caches).
    pub cached_per_tuple: usize,
    /// Final `for` clauses whose `where` equality was marked for the
    /// runtime hash join (see [`LFlworClause::For::join`]).
    pub hash_joins: usize,
    /// `for` clauses whose binding sequence is a bare streamable path —
    /// the runner pulls their tuples from a cursor instead of materialising
    /// the sequence (unless the clause was claimed by the hash join, whose
    /// table build wants the whole sequence). Counted here, after the join
    /// mark, so the plan header reflects the final dispatch.
    pub streamable_bindings: usize,
}

/// Runs the pass over every executable body in the program, growing each
/// body's frame by the synthetic slots it allocates.
pub fn optimize_program(program: &mut Program) -> PlanStats {
    let purity = Purity::analyse(&program.functions);
    let mut stats = PlanStats::default();
    for (i, f) in program.functions.iter_mut().enumerate() {
        f.pure = purity.is_pure(i as u32);
        let mut alloc = SlotAlloc { frame: f.frame };
        walk(&mut f.body, &mut alloc, &mut stats, &purity);
        f.frame = alloc.frame;
    }
    for g in &mut program.globals {
        let mut alloc = SlotAlloc { frame: g.frame };
        walk(&mut g.expr, &mut alloc, &mut stats, &purity);
        g.frame = alloc.frame;
    }
    let mut alloc = SlotAlloc {
        frame: program.body_frame,
    };
    walk(&mut program.body, &mut alloc, &mut stats, &purity);
    program.body_frame = alloc.frame;
    stats
}

// ----------------------------------------------------------------------
// Purity
// ----------------------------------------------------------------------

/// Which user functions are pure: no impure builtin call (`fn:trace`,
/// `fn:doc`, `fn:error`), no node constructor, no unresolved call, and
/// calls to pure functions only. Computed as a greatest fixpoint — every
/// function starts pure unless its own body disqualifies it, and purity is
/// only ever withdrawn from callers of impure functions — so recursive and
/// mutually recursive helpers stay pure.
pub(crate) struct Purity {
    /// Per [`Program::functions`] index: `None` when pure, else why not.
    impure: Vec<Option<Impurity>>,
}

/// Why a function is impure: the first impurity its own body holds, or
/// the first impure function it calls.
#[derive(Clone, Copy)]
enum Impurity {
    Builtin(Builtin),
    Unresolved(Sym, usize),
    Constructs,
    Calls(u32),
}

impl Purity {
    pub(crate) fn analyse(functions: &[CompiledFunction]) -> Purity {
        let mut impure = Vec::with_capacity(functions.len());
        let mut callees = Vec::with_capacity(functions.len());
        for f in functions {
            let (mut found, mut calls) = (None, Vec::new());
            scan_effects(&f.body, &mut found, &mut calls);
            impure.push(found);
            callees.push(calls);
        }
        let mut changed = true;
        while changed {
            changed = false;
            for (i, calls) in callees.iter().enumerate() {
                if impure[i].is_some() {
                    continue;
                }
                if let Some(&j) = calls.iter().find(|&&j| impure[j as usize].is_some()) {
                    impure[i] = Some(Impurity::Calls(j));
                    changed = true;
                }
            }
        }
        Purity { impure }
    }

    fn is_pure(&self, index: u32) -> bool {
        self.impure[index as usize].is_none()
    }

    /// Why function `index` of `functions` (the program this analysis was
    /// made of) is impure, or `None` when it is pure.
    pub(crate) fn reason(&self, functions: &[CompiledFunction], index: usize) -> Option<String> {
        Some(match self.impure[index]? {
            Impurity::Builtin(b) => format!("calls fn:{}", b.name()),
            Impurity::Unresolved(name, arity) => format!("calls unresolved {name}#{arity}"),
            Impurity::Constructs => "constructs nodes".to_string(),
            Impurity::Calls(j) => format!("calls impure {}", functions[j as usize].name),
        })
    }
}

/// Records the first impurity `e` holds by itself in `found`, and every
/// user function it calls in `calls` (whose purity the caller decides).
fn scan_effects(e: &LExpr, found: &mut Option<Impurity>, calls: &mut Vec<u32>) {
    if found.is_some() {
        return;
    }
    match e {
        LExpr::CallBuiltin { builtin, .. } if impure_builtin(*builtin) => {
            *found = Some(Impurity::Builtin(*builtin));
            return;
        }
        LExpr::CallUnknown { name, args, .. } => {
            *found = Some(Impurity::Unresolved(*name, args.len()));
            return;
        }
        LExpr::DirectElement { .. }
        | LExpr::CompElement { .. }
        | LExpr::CompAttribute { .. }
        | LExpr::CompText(_)
        | LExpr::CompComment(_)
        | LExpr::CompDocument { .. } => {
            *found = Some(Impurity::Constructs);
            return;
        }
        LExpr::CallUser { index, .. } => calls.push(*index),
        _ => {}
    }
    e.for_each_child(&mut |c| scan_effects(c, found, calls));
}

/// Builtins with an effect beyond their value: a trace event, a document
/// lookup, a raised error.
fn impure_builtin(b: Builtin) -> bool {
    matches!(b, Builtin::Trace | Builtin::Doc | Builtin::ErrorFn)
}

/// Zero-arity builtins that read the focus, and so are a focus use like
/// [`LExpr::ContextItem`].
fn reads_focus(b: Builtin, arity: usize) -> bool {
    arity == 0
        && matches!(
            b,
            Builtin::String
                | Builtin::Name
                | Builtin::Position
                | Builtin::Last
                | Builtin::Number
                | Builtin::Root
                | Builtin::StringLength
                | Builtin::NormalizeSpace
                | Builtin::LocalName
        )
}

/// Allocates synthetic slots past the lowered frame of one executable body.
struct SlotAlloc {
    frame: usize,
}

impl SlotAlloc {
    fn alloc(&mut self) -> u32 {
        let slot = self.frame as u32;
        self.frame += 1;
        slot
    }
}

/// Top-down walk: hoist within a FLWOR before descending, so outer regions
/// see the pristine tree (a cell's body is itself cache-free and holds no
/// FLWORs — binder constructs are never cacheable — so descending through
/// freshly created cells finds no further work).
fn walk(e: &mut LExpr, alloc: &mut SlotAlloc, stats: &mut PlanStats, purity: &Purity) {
    if let LExpr::Flwor {
        clauses,
        where_,
        order_by,
        return_,
    } = e
    {
        hoist_flwor(clauses, where_, order_by, return_, alloc, stats, purity);
        if let Ok(side) = join_gate(clauses, where_, purity) {
            if let Some(LFlworClause::For { join, .. }) = clauses.last_mut() {
                *join = Some(side);
                stats.hash_joins += 1;
            }
        }
        for c in clauses.iter() {
            if let LFlworClause::For {
                seq: LExpr::Path { steps, .. },
                join: None,
                ..
            } = c
            {
                if crate::cursor::classify_steps(steps).is_some() {
                    stats.streamable_bindings += 1;
                }
            }
        }
    }
    match e {
        // The unsplit path only runs when the split form raises; it stays
        // as lowered.
        LExpr::SplitPath { prefix, suffix, .. } => {
            walk(prefix, alloc, stats, purity);
            suffix
                .iter_mut()
                .for_each(|p| walk(p, alloc, stats, purity));
        }
        _ => e.for_each_child_mut(&mut |c| walk(c, alloc, stats, purity)),
    }
}

/// The hash-join gate of a FLWOR: which `where` operand is the key side
/// when its final `for` clause may be marked for the runtime hash join, or
/// else the first gate that refused. The runtime turns the O(tuples ×
/// items) scan of `for … where KEY($v) = PROBE` into one table build plus
/// per-tuple probes; all it needs from the plan is the key side. The pass
/// sets the mark from the `Ok` side and [`crate::obs::explain`] prints the
/// refusal; `Err(None)` means the `where` is not an `=` general comparison,
/// so there is nothing to explain.
///
/// The gates keep the rewrite invisible:
/// * no positional `at` binding on the final `for` (filtered iteration
///   would still need the original positions; not worth the bookkeeping);
/// * both operands must be [`join_simple`] — deterministic given the frame,
///   pure calls only (no `trace` side effects), no constructors, no
///   binders, no outer focus — so evaluating the key side once per item and the probe
///   side once per tuple (instead of both per pair) changes no observable
///   behaviour but the order work happens in, and error order is restored
///   by the runtime's build discipline;
/// * exactly one operand mentions the clause's variable (the key side);
/// * the key side reads no *other* slot bound by this FLWOR's clauses —
///   the table is reused across tuples, so its keys may depend only on the
///   item and on bindings that cannot change between tuples.
pub(crate) fn join_gate(
    clauses: &[LFlworClause],
    where_: &Option<Box<LExpr>>,
    purity: &Purity,
) -> Result<JoinSide, Option<&'static str>> {
    let Some(w) = where_ else { return Err(None) };
    let LExpr::GeneralCmp(CmpOp::Eq, left, right) = &**w else {
        return Err(None);
    };
    let Some(LFlworClause::For { var, at, .. }) = clauses.last() else {
        return Err(Some("final clause is a `let`, not a `for`"));
    };
    if at.is_some() {
        return Err(Some("final `for` clause has a positional `at` binding"));
    }
    if !join_simple(left, purity) || !join_simple(right, purity) {
        return Err(Some(
            "a `where` operand is not join-simple (impure calls, constructors, binders, or outer focus)",
        ));
    }
    let slots_of = |e: &LExpr| {
        let mut slots = Vec::new();
        collect_slots(e, &mut |s| slots.push(s));
        slots
    };
    let (ls, rs) = (slots_of(left), slots_of(right));
    let (side, key_slots) =
        match (ls.contains(var), rs.contains(var)) {
            (true, false) => (JoinSide::Left, ls),
            (false, true) => (JoinSide::Right, rs),
            _ => return Err(Some(
                "the final `for` variable appears on both sides (or neither side) of the equality",
            )),
        };
    let clause_bound = |s: u32| {
        clauses.iter().any(|c| match c {
            LFlworClause::For { var, at, .. } => *var == s || *at == Some(s),
            LFlworClause::Let { var, .. } => *var == s,
        })
    };
    if key_slots.iter().any(|&s| s != *var && clause_bound(s)) {
        return Err(Some("the key side reads another clause-bound variable"));
    }
    Ok(side)
}

/// Could `e` be cached outside any loop — deterministic given the frame,
/// pure calls only, no constructors, no binders, no outer focus (see
/// [`Info::cacheable`])? Looks *through* a cache cell at the top: a
/// `where` operand that hoisting already wrapped is still a deterministic
/// frame-only expression underneath.
fn join_simple(e: &LExpr, purity: &Purity) -> bool {
    let e = match e {
        LExpr::CacheOnce { expr, .. } => expr,
        other => other,
    };
    let no_binders = HashMap::new();
    let mut summary = Collect::new(purity, &no_binders);
    summary.sealed = 1;
    let idx = summary.summarize(e, 0);
    summary.infos[idx].cacheable && !summary.infos[idx].outer_focus
}

// ----------------------------------------------------------------------
// Per-FLWOR hoisting
// ----------------------------------------------------------------------

/// One candidate subexpression: a class of structurally equal occurrences.
struct Cand {
    /// Largest clause index binding a slot the subtree reads, if any.
    dep: Option<usize>,
    /// Smallest/largest position among occurrences; clause exprs use their
    /// clause index, `where`/`order by`/`return` use `usize::MAX`.
    min_pos: usize,
    max_pos: usize,
    count: usize,
    /// Chosen between the collect and rewrite scans.
    decision: Option<Decision>,
}

/// A chosen cache: the synthetic slot, the `for` clause that resets it, and
/// whether the reset is on entry or per iteration. `used` records whether
/// the rewrite phase actually installed a cell for it — a class whose only
/// occurrences are embedded inside some larger rewritten candidate never
/// materialises, and neither should its reset or its stats line.
struct Decision {
    slot: u32,
    clause_idx: usize,
    is_entry: bool,
    used: bool,
}

/// What the hoister knows about one node of the region. One bottom-up pass
/// computes it for every node — children before parents, each from its
/// children's — and stores it at the node's pre-order number, so no
/// subtree is ever rescanned or re-rendered for an enclosing candidate.
#[derive(Default)]
struct Info {
    /// Nodes in the subtree, this one included: the pre-order span.
    size: usize,
    /// Structural hash: equal subtrees hash equally (source positions
    /// included — an error's position is part of what an expression does).
    hash: u64,
    /// Every node is one a cell may hold — no impure or unresolved call,
    /// no constructor, no binder, no cell, plain axis steps in paths — and
    /// no variable read is of a slot poisoned where it is read. Enough for
    /// a predicate, which binds its own focus.
    cacheable: bool,
    /// Reads a focus the subtree does not bind itself; a cacheable subtree
    /// outside a predicate must not.
    outer_focus: bool,
    /// Does real evaluation work, so a cell pays for itself: navigation, a
    /// user function call, filtering, set algebra, comparison, or
    /// sequence/number construction. Bare literal lists and variable reads
    /// are cheaper than the cell that would cache them.
    work: bool,
    /// No impure call, constructor or unresolved call.
    pure: bool,
    /// Calls `position()` or `last()` somewhere.
    positional: bool,
    /// Largest clause index of this FLWOR binding a slot the subtree reads.
    dep: Option<usize>,
    /// The candidate class of the node standing whole.
    whole: Option<usize>,
    /// The candidate class of the path's invariant head, where the last
    /// step's predicates split, and the key side of a keyed split.
    split: Option<(usize, usize, Option<JoinSide>)>,
}

/// A class's first occurrence, which later occurrences with the same hash
/// are compared against.
#[derive(Clone, Copy)]
enum Rep<'t> {
    Whole(&'t LExpr),
    /// A path whose last step keeps only its first `k` predicates.
    Prefix(&'t LExpr, usize),
}

/// A path ending in an axis step, with that step's predicates cut to a
/// prefix: the shape a whole path and a split head are compared in.
#[derive(PartialEq)]
struct PathHead<'t> {
    start: &'t LExpr,
    init: &'t [LPathStep],
    double_slash: bool,
    axis: Axis,
    test: &'t LNodeTest,
    position: (u32, u32),
    predicates: &'t [LExpr],
}

impl<'t> Rep<'t> {
    fn head(self) -> Option<PathHead<'t>> {
        let (e, k) = match self {
            Rep::Whole(e) => (e, usize::MAX),
            Rep::Prefix(e, k) => (e, k),
        };
        let LExpr::Path { start, steps } = e else {
            return None;
        };
        let (last, init) = steps.split_last()?;
        let LExpr::AxisStep {
            axis,
            test,
            predicates,
            position,
        } = &last.expr
        else {
            return None;
        };
        Some(PathHead {
            start,
            init,
            double_slash: last.double_slash,
            axis: *axis,
            test,
            position: *position,
            predicates: &predicates[..k.min(predicates.len())],
        })
    }

    fn same(self, other: Rep<'t>) -> bool {
        match (self.head(), other.head()) {
            (Some(a), Some(b)) => a == b,
            (None, None) => matches!((self, other), (Rep::Whole(a), Rep::Whole(b)) if a == b),
            _ => false,
        }
    }
}

/// The collect scan over one FLWOR region: summarises every node and
/// prices every candidate occurrence.
struct Collect<'t, 'a> {
    purity: &'a Purity,
    /// This FLWOR's clause binders, slot → clause index. Within the
    /// scanned region (and outside poisoned subtrees) a slot number means
    /// exactly one binder: clause scopes nest without popping.
    binder_clause: &'a HashMap<u32, usize>,
    /// Slots bound by binder constructs *nested inside* the region —
    /// references to them disqualify a subtree (the number may be reused
    /// and the binding changes within one tuple).
    poison: Vec<u32>,
    /// Non-zero inside cache cells and unsplit paths: summarised for the
    /// pre-order numbering, never priced. A cell's body is already cached
    /// by the loop that owns the cell (a cell inside it would fill once per
    /// fill of the outer one and never be read again), and the unsplit
    /// path only runs on the error path.
    sealed: usize,
    infos: Vec<Info>,
    cands: Vec<Cand>,
    reps: Vec<Rep<'t>>,
    by_hash: HashMap<u64, Vec<usize>>,
}

fn hoist_flwor(
    clauses: &mut [LFlworClause],
    where_: &mut Option<Box<LExpr>>,
    order_by: &mut [LOrderSpec],
    return_: &mut LExpr,
    alloc: &mut SlotAlloc,
    stats: &mut PlanStats,
    purity: &Purity,
) {
    let for_indices: Vec<usize> = clauses
        .iter()
        .enumerate()
        .filter(|(_, c)| matches!(c, LFlworClause::For { .. }))
        .map(|(i, _)| i)
        .collect();
    // No loop, nothing re-evaluates: every clause runs once per entry.
    let Some((&f0, &last_for)) = for_indices.first().zip(for_indices.last()) else {
        return;
    };

    let mut binder_clause = HashMap::new();
    for (i, c) in clauses.iter().enumerate() {
        match c {
            LFlworClause::For { var, at, .. } => {
                binder_clause.insert(*var, i);
                if let Some(at) = at {
                    binder_clause.insert(*at, i);
                }
            }
            LFlworClause::Let { var, .. } => {
                binder_clause.insert(*var, i);
            }
        }
    }

    // The region starts at the first `for`: earlier `let`s run once per
    // entry, before any reset point, so they can neither host nor read a
    // cache. Both scans take its expressions in this order.
    let (infos, mut cands) = {
        let mut collect = Collect::new(purity, &binder_clause);
        for (i, clause) in clauses.iter().enumerate().skip(f0) {
            match clause {
                LFlworClause::For { seq, .. } => collect.summarize(seq, i),
                LFlworClause::Let { expr, .. } => collect.summarize(expr, i),
            };
        }
        if let Some(w) = where_.as_deref() {
            collect.summarize(w, usize::MAX);
        }
        for spec in order_by.iter() {
            collect.summarize(&spec.key, usize::MAX);
        }
        collect.summarize(return_, usize::MAX);
        (collect.infos, collect.cands)
    };

    // Pick a reset point per class. An entry target must lie at or before
    // every occurrence (`j <= min_pos`): a cache read positioned before its
    // reset clause would refill with the previous outer binding and then be
    // served stale. It must also have a read strictly inside the loop
    // (`max_pos > j`) — a value only read while producing clause `j`'s own
    // sequence is already evaluated once per entry, and a cell would be
    // pure overhead. The per-tuple fallback requires all reads after the
    // innermost `for`, and at least two of them to pay for the cell.
    for cand in &mut cands {
        let entry = for_indices
            .iter()
            .copied()
            .find(|&j| cand.dep.is_none_or(|d| j > d));
        let target = match entry {
            Some(j) if j <= cand.min_pos && cand.max_pos > j => Some((j, true)),
            _ if cand.min_pos > last_for && cand.count >= 2 => Some((last_for, false)),
            _ => None,
        };
        if let Some((clause_idx, is_entry)) = target {
            cand.decision = Some(Decision {
                slot: alloc.alloc(),
                clause_idx,
                is_entry,
                used: false,
            });
        }
    }
    if cands.iter().all(|c| c.decision.is_none()) {
        return;
    }

    let mut rewrite = Rewrite {
        infos: &infos,
        cands: &mut cands,
        alloc,
        splits: 0,
        keyed: 0,
    };
    let mut root = 0;
    let mut next = |e: &mut LExpr| {
        rewrite.rewrite(e, root);
        root += infos[root].size;
    };
    for clause in clauses.iter_mut().skip(f0) {
        match clause {
            LFlworClause::For { seq, .. } => next(seq),
            LFlworClause::Let { expr, .. } => next(expr),
        }
    }
    if let Some(w) = where_ {
        next(w);
    }
    for spec in order_by.iter_mut() {
        next(&mut spec.key);
    }
    next(return_);
    stats.split_prefixes += rewrite.splits;
    stats.keyed_splits += rewrite.keyed;

    for d in cands
        .iter()
        .filter_map(|c| c.decision.as_ref())
        .filter(|d| d.used)
    {
        let LFlworClause::For {
            reset_entry,
            reset_iter,
            ..
        } = &mut clauses[d.clause_idx]
        else {
            unreachable!("reset targets are for clauses");
        };
        if d.is_entry {
            reset_entry.push(d.slot);
            stats.hoisted_invariant += 1;
        } else {
            reset_iter.push(d.slot);
            stats.cached_per_tuple += 1;
        }
    }
}

impl<'t, 'a> Collect<'t, 'a> {
    fn new(purity: &'a Purity, binder_clause: &'a HashMap<u32, usize>) -> Self {
        Collect {
            purity,
            binder_clause,
            poison: Vec::new(),
            sealed: 0,
            infos: Vec::new(),
            cands: Vec::new(),
            reps: Vec::new(),
            by_hash: HashMap::new(),
        }
    }

    /// Summarises `e` (clause position `pos` in the region) and everything
    /// below it, pricing candidate occurrences on the way; returns its
    /// pre-order number. Children are taken in [`LExpr::for_each_child`]
    /// order, with poison tracking for nested binder constructs whose
    /// shape mirrors the lowerer's scoping (a clause's expression is
    /// lowered before its binder comes into scope).
    fn summarize(&mut self, e: &'t LExpr, pos: usize) -> usize {
        let idx = self.infos.len();
        self.infos.push(Info::default());
        let mark = self.poison.len();
        match e {
            LExpr::Flwor {
                clauses,
                where_,
                order_by,
                return_,
            } => {
                for clause in clauses {
                    match clause {
                        LFlworClause::For { var, at, seq, .. } => {
                            self.summarize(seq, pos);
                            self.poison.push(*var);
                            self.poison.extend(*at);
                        }
                        LFlworClause::Let { var, expr, .. } => {
                            self.summarize(expr, pos);
                            self.poison.push(*var);
                        }
                    }
                }
                if let Some(w) = where_ {
                    self.summarize(w, pos);
                }
                for spec in order_by {
                    self.summarize(&spec.key, pos);
                }
                self.summarize(return_, pos);
            }
            LExpr::Quantified {
                bindings,
                satisfies,
                ..
            } => {
                for (slot, seq) in bindings {
                    self.summarize(seq, pos);
                    self.poison.push(*slot);
                }
                self.summarize(satisfies, pos);
            }
            LExpr::TryCatch { try_, var, catch } => {
                self.summarize(try_, pos);
                self.poison.extend(*var);
                self.summarize(catch, pos);
            }
            LExpr::TypeSwitch {
                operand,
                cases,
                default_var,
                default,
            } => {
                self.summarize(operand, pos);
                for case in cases {
                    let case_mark = self.poison.len();
                    self.poison.extend(case.var);
                    self.summarize(&case.body, pos);
                    self.poison.truncate(case_mark);
                }
                self.poison.extend(*default_var);
                self.summarize(default, pos);
            }
            LExpr::CacheOnce { expr, .. } => {
                self.sealed += 1;
                self.summarize(expr, pos);
                self.sealed -= 1;
            }
            LExpr::SplitPath {
                prefix,
                suffix,
                unsplit,
                ..
            } => {
                self.sealed += 1;
                self.summarize(prefix, pos);
                self.sealed -= 1;
                for p in suffix {
                    self.summarize(p, pos);
                }
                self.sealed += 1;
                self.summarize(unsplit, pos);
                self.sealed -= 1;
            }
            _ => e.for_each_child(&mut |c| {
                self.summarize(c, pos);
            }),
        }
        self.poison.truncate(mark);

        let info = self.compose(e, idx);
        self.infos[idx] = info;
        if self.sealed == 0 {
            let info = &self.infos[idx];
            if info.cacheable && !info.outer_focus && info.work {
                let (hash, dep) = (info.hash, info.dep);
                let class = self.price(hash, Rep::Whole(e), dep, pos);
                self.infos[idx].whole = Some(class);
            }
            // A path may be cacheable whole yet read a variable of an inner
            // loop in its last predicates, or not be cacheable at all; its
            // invariant head is then a candidate of its own (an occurrence
            // of the same expression standing whole shares its cell). A
            // whole cell, when decided, wins.
            if let Some(SplitPoint { k, hash, dep, key }) = self.split_point(e, idx) {
                let class = self.price(hash, Rep::Prefix(e, k), dep, pos);
                self.infos[idx].split = Some((class, k, key));
            }
        }
        idx
    }

    /// The summary of `e`, node `idx`, from its children's (the nodes after
    /// it, all summarised already).
    fn compose(&self, e: &LExpr, idx: usize) -> Info {
        let kids = || self.children(idx, self.infos.len()).map(|k| &self.infos[k]);
        let all = |f: fn(&Info) -> bool| kids().all(f);
        let any = |f: fn(&Info) -> bool| kids().any(f);
        let cacheable = match e {
            LExpr::Literal(_) | LExpr::GlobalRef(..) | LExpr::ContextItem(_) | LExpr::Root(_) => {
                true
            }
            LExpr::LocalRef(slot) => !self.poison.contains(slot),
            LExpr::AxisStep { .. }
            | LExpr::Comma(_)
            | LExpr::Range(..)
            | LExpr::Arith(..)
            | LExpr::GeneralCmp(..)
            | LExpr::ValueCmp(..)
            | LExpr::NodeCmp(..)
            | LExpr::SetExpr(..)
            | LExpr::And(..)
            | LExpr::Or(..)
            | LExpr::Neg(_)
            | LExpr::InstanceOf(..)
            | LExpr::CastAs(..)
            | LExpr::CastableAs(..)
            | LExpr::If(..)
            | LExpr::Filter(..) => all(|i| i.cacheable),
            // Anything fancier than an axis step (a call in step position,
            // say) is rejected.
            LExpr::Path { steps, .. } => {
                all(|i| i.cacheable)
                    && steps
                        .iter()
                        .all(|s| matches!(s.expr, LExpr::AxisStep { .. }))
            }
            LExpr::CallBuiltin { builtin, .. } => !impure_builtin(*builtin) && all(|i| i.cacheable),
            LExpr::CallUser { index, .. } => self.purity.is_pure(*index) && all(|i| i.cacheable),
            // Impure and unresolved calls (trace! doc!), constructors (fresh
            // node identity per evaluation), binder constructs, and existing
            // cache cells are never cacheable.
            _ => false,
        };
        // Steps and predicates rebind the focus for what they contain.
        let outer_focus = match e {
            LExpr::ContextItem(_) | LExpr::Root(_) | LExpr::AxisStep { .. } => true,
            LExpr::Path { .. } | LExpr::Filter(..) => kids().next().is_some_and(|i| i.outer_focus),
            LExpr::CallBuiltin { builtin, args, .. } => {
                reads_focus(*builtin, args.len()) || any(|i| i.outer_focus)
            }
            _ => any(|i| i.outer_focus),
        };
        let work = matches!(
            e,
            LExpr::Path { .. }
                | LExpr::CallUser { .. }
                | LExpr::Filter(..)
                | LExpr::SetExpr(..)
                | LExpr::GeneralCmp(..)
                | LExpr::ValueCmp(..)
                | LExpr::NodeCmp(..)
                | LExpr::Range(..)
                | LExpr::Arith(..)
        ) || any(|i| i.work);
        let pure = match e {
            LExpr::CallBuiltin { builtin, .. } if impure_builtin(*builtin) => false,
            LExpr::CallUser { index, .. } if !self.purity.is_pure(*index) => false,
            LExpr::CallUnknown { .. }
            | LExpr::DirectElement { .. }
            | LExpr::CompElement { .. }
            | LExpr::CompAttribute { .. }
            | LExpr::CompText(_)
            | LExpr::CompComment(_)
            | LExpr::CompDocument { .. } => false,
            _ => all(|i| i.pure),
        };
        let positional = matches!(
            e,
            LExpr::CallBuiltin {
                builtin: Builtin::Position | Builtin::Last,
                args,
                ..
            } if args.is_empty()
        ) || any(|i| i.positional);
        let dep = match e {
            LExpr::LocalRef(slot) => self.binder_clause.get(slot).copied(),
            _ => kids().map(|i| i.dep).max().flatten(),
        };
        Info {
            size: self.infos.len() - idx,
            hash: kids().fold(node_hash(e), |h, i| mix(h, i.hash)),
            cacheable,
            outer_focus,
            work,
            pure,
            positional,
            dep,
            whole: None,
            split: None,
        }
    }

    /// Where to split path `e`, node `idx`: its last step
    /// is `step[p1..pk][pk+1..pn]`, `k >= 1` predicates are cacheable and
    /// read nothing bound deeper in this FLWOR than the path's own head
    /// (`start/…/step`) does, and every suffix predicate is a pure,
    /// statically boolean test that never asks for `position()` or
    /// `last()`. Such a suffix keeps a node or not whichever context node
    /// reached it and wherever it stands, so filtering the whole cached
    /// head equals filtering per context node.
    fn split_point(&self, e: &LExpr, idx: usize) -> Option<SplitPoint> {
        let LExpr::Path { steps, .. } = e else {
            return None;
        };
        let LExpr::AxisStep { predicates, .. } = &steps.last()?.expr else {
            return None;
        };
        let kids: Vec<usize> = self.children(idx, idx + self.infos[idx].size).collect();
        let (&last, head) = kids.split_last()?;
        let (start, init) = (&self.infos[head[0]], &head[1..]);
        if !start.cacheable
            || start.outer_focus
            || init.iter().any(|&s| !self.infos[s].cacheable)
            || !steps
                .iter()
                .all(|s| matches!(s.expr, LExpr::AxisStep { .. }))
        {
            return None;
        }
        let head_dep = head.iter().map(|&k| self.infos[k].dep).max().flatten();
        let preds: Vec<usize> = self.children(last, last + self.infos[last].size).collect();
        let k = preds
            .iter()
            .take_while(|&&p| self.infos[p].cacheable && self.infos[p].dep <= head_dep)
            .count();
        if k == 0 || k == preds.len() {
            return None;
        }
        let suffix_ok = predicates[k..].iter().zip(&preds[k..]).all(|(p, &i)| {
            statically_boolean(p) && self.infos[i].pure && !self.infos[i].positional
        });
        if !suffix_ok {
            return None;
        }
        let step_hash = preds[..k]
            .iter()
            .fold(node_hash(&steps.last()?.expr), |h, &p| {
                mix(h, self.infos[p].hash)
            });
        let hash = head
            .iter()
            .fold(node_hash(e), |h, &k| mix(h, self.infos[k].hash));
        let operands: Vec<&Info> = self
            .children(preds[k], preds[k] + self.infos[preds[k]].size)
            .map(|c| &self.infos[c])
            .collect();
        let key = match operands.as_slice() {
            [l, r] => split_key(&predicates[k], l, r),
            _ => None,
        };
        Some(SplitPoint {
            k,
            hash: mix(hash, step_hash),
            dep: head_dep,
            key,
        })
    }

    /// Pre-order numbers of the children of node `idx`, whose subtree
    /// ends before `end`.
    fn children(&self, idx: usize, end: usize) -> impl Iterator<Item = usize> + '_ {
        let mut child = idx + 1;
        std::iter::from_fn(move || {
            (child < end).then(|| {
                let c = child;
                child += self.infos[c].size;
                c
            })
        })
    }

    /// Collect phase: one more occurrence of the class `rep` belongs to;
    /// returns the class.
    fn price(&mut self, hash: u64, rep: Rep<'t>, dep: Option<usize>, pos: usize) -> usize {
        let ids = self.by_hash.entry(hash).or_default();
        let class = match ids.iter().find(|&&id| self.reps[id].same(rep)) {
            Some(&id) => id,
            None => {
                ids.push(self.cands.len());
                self.reps.push(rep);
                self.cands.push(Cand {
                    dep,
                    min_pos: pos,
                    max_pos: pos,
                    count: 0,
                    decision: None,
                });
                self.cands.len() - 1
            }
        };
        let cand = &mut self.cands[class];
        cand.count += 1;
        cand.min_pos = cand.min_pos.min(pos);
        cand.max_pos = cand.max_pos.max(pos);
        class
    }
}

/// Where [`Collect::split_point`] splits a path: after `k` predicates of
/// its last step, with the head's hash and dependency, and the key side
/// when the first suffix predicate is keyed ([`split_key`]).
struct SplitPoint {
    k: usize,
    hash: u64,
    dep: Option<usize>,
    key: Option<JoinSide>,
}

/// The rewrite scan: walks the region in the collect scan's pre-order and
/// installs the decided cells.
struct Rewrite<'a> {
    infos: &'a [Info],
    cands: &'a mut [Cand],
    /// Names each keyed split's key table.
    alloc: &'a mut SlotAlloc,
    /// Path sites rewritten to [`LExpr::SplitPath`].
    splits: usize,
    /// Those of them that are keyed.
    keyed: usize,
}

impl Rewrite<'_> {
    /// `idx` is `e`'s pre-order number. A rewritten site is not descended
    /// into: cell bodies stay cache-free.
    fn rewrite(&mut self, e: &mut LExpr, idx: usize) {
        let (whole, split) = (self.infos[idx].whole, self.infos[idx].split);
        if let Some(slot) = whole.and_then(|class| self.take(class)) {
            let inner = std::mem::replace(e, LExpr::LocalRef(0));
            *e = LExpr::CacheOnce {
                slot,
                expr: Box::new(inner),
            };
            return;
        }
        if let Some((class, k, key)) = split {
            if let Some(slot) = self.take(class) {
                self.splits += 1;
                self.keyed += usize::from(key.is_some());
                let key = key.map(|side| SplitKey {
                    side,
                    table: self.alloc.alloc(),
                });
                let (prefix, suffix) = split_halves(e, k);
                let unsplit = std::mem::replace(e, LExpr::LocalRef(0));
                *e = LExpr::SplitPath {
                    prefix: Box::new(LExpr::CacheOnce {
                        slot,
                        expr: Box::new(prefix),
                    }),
                    suffix,
                    key,
                    unsplit: Box::new(unsplit),
                };
                return;
            }
        }
        let mut child = idx + 1;
        e.for_each_child_mut(&mut |c| {
            self.rewrite(c, child);
            child += self.infos[child].size;
        });
    }

    /// The cell slot decided for `class`, if any.
    fn take(&mut self, class: usize) -> Option<u32> {
        let d = self.cands[class].decision.as_mut()?;
        d.used = true;
        Some(d.slot)
    }
}

/// Folds one value into a structural hash.
fn mix(h: u64, v: u64) -> u64 {
    (h.rotate_left(5) ^ v).wrapping_mul(0x517c_c1b7_2722_0a95)
}

/// A node's own contribution to its structural hash: its kind and the
/// fields that are not children. It need not tell every pair of unequal
/// nodes apart — a class is joined only after an equality check — but what
/// it hashes must be equal for equal nodes.
fn node_hash(e: &LExpr) -> u64 {
    let pos = |p: &(u32, u32)| (u64::from(p.0) << 32) | u64::from(p.1);
    let text = |s: &str| {
        s.bytes()
            .fold(0xcbf2_9ce4_8422_2325, |h, b| mix(h, u64::from(b)))
    };
    match e {
        LExpr::Literal(a) => mix(
            1,
            match a {
                Atomic::Str(s) | Atomic::Untyped(s) => text(s),
                Atomic::Int(i) => *i as u64,
                Atomic::Dbl(d) => d.to_bits(),
                Atomic::Bool(b) => u64::from(*b),
            },
        ),
        LExpr::LocalRef(slot) => mix(2, u64::from(*slot)),
        LExpr::GlobalRef(_, p) => mix(3, pos(p)),
        LExpr::ContextItem(p) => mix(4, pos(p)),
        LExpr::Root(p) => mix(5, pos(p)),
        LExpr::Arith(op, ..) => mix(6, *op as u64),
        LExpr::GeneralCmp(op, ..) => mix(7, *op as u64),
        LExpr::ValueCmp(op, ..) => mix(8, *op as u64),
        LExpr::NodeCmp(op, ..) => mix(9, *op as u64),
        LExpr::SetExpr(op, ..) => mix(10, *op as u64),
        LExpr::AxisStep { axis, position, .. } => mix(mix(11, *axis as u64), pos(position)),
        LExpr::Path { steps, .. } => steps
            .iter()
            .fold(12, |h, s| mix(h, u64::from(s.double_slash))),
        LExpr::CallBuiltin {
            builtin, position, ..
        } => mix(mix(13, *builtin as u64), pos(position)),
        LExpr::CallUser {
            index, position, ..
        } => mix(mix(14, u64::from(*index)), pos(position)),
        LExpr::CastAs(_, _, p) => mix(15, pos(p)),
        LExpr::Comma(_) => 16,
        LExpr::Range(..) => 17,
        LExpr::Neg(_) => 18,
        LExpr::And(..) => 19,
        LExpr::Or(..) => 20,
        LExpr::If(..) => 21,
        LExpr::Filter(..) => 22,
        LExpr::InstanceOf(..) => 23,
        LExpr::CastableAs(..) => 24,
        // Never part of a candidate.
        _ => 0,
    }
}

/// The split of a path at [`Collect::split_point`]: the prefix path (its last step
/// keeps predicates `..k`) and the suffix predicates (`k..`).
fn split_halves(e: &LExpr, k: usize) -> (LExpr, Vec<LExpr>) {
    let LExpr::Path { start, steps } = e else {
        unreachable!("split points are paths");
    };
    let mut steps = steps.clone();
    let Some(LPathStep {
        expr: LExpr::AxisStep { predicates, .. },
        ..
    }) = steps.last_mut()
    else {
        unreachable!("split points end in an axis step");
    };
    let suffix = predicates.split_off(k);
    let prefix = LExpr::Path {
        start: start.clone(),
        steps,
    };
    (prefix, suffix)
}

/// The keyed-split gate of a split path's first suffix predicate `pred`,
/// whose operands summarise as `l` and `r`: which operand is the key side
/// K when `pred` is `K = V` with
/// * K reading the candidate node and nothing else: it uses the focus but
///   reads no frame slot, and is pure (`@a`, `string(@a)`), so its atoms
///   for a cached node cannot change while the cell holds;
/// * V focus-free and pure, so one evaluation per read stands for the one
///   per candidate the filter makes.
///
/// This is the hash join's reasoning ([`join_gate`]) with the focus as the
/// joined variable. The runtime builds the table once per cached sequence
/// and probes it per read; it filters generically whenever the table
/// cannot decide (see `run.rs`).
fn split_key(pred: &LExpr, l: &Info, r: &Info) -> Option<JoinSide> {
    let LExpr::GeneralCmp(CmpOp::Eq, le, re) = pred else {
        return None;
    };
    let reads_slot = |e: &LExpr| {
        let mut any = false;
        collect_slots(e, &mut |_| any = true);
        any
    };
    let key_side = |i: &Info, e: &LExpr| i.cacheable && i.outer_focus && !reads_slot(e);
    let probe_side = |i: &Info| i.cacheable && !i.outer_focus;
    if key_side(l, le) && probe_side(r) {
        Some(JoinSide::Left)
    } else if key_side(r, re) && probe_side(l) {
        Some(JoinSide::Right)
    } else {
        None
    }
}

/// Predicates whose value is always a boolean or empty — never a number,
/// which would make the predicate positional.
fn statically_boolean(e: &LExpr) -> bool {
    matches!(
        e,
        LExpr::GeneralCmp(..)
            | LExpr::ValueCmp(..)
            | LExpr::NodeCmp(..)
            | LExpr::And(..)
            | LExpr::Or(..)
            | LExpr::Quantified { .. }
            | LExpr::InstanceOf(..)
            | LExpr::CallBuiltin {
                builtin: Builtin::Not | Builtin::Exists | Builtin::Empty | Builtin::Boolean,
                ..
            }
    )
}

/// Walks the slot reads of a subtree already vetted by [`join_simple`]. A
/// cache cell's own slot is a cache address, not a variable read, so the
/// walk looks through it like through any other node.
fn collect_slots(e: &LExpr, f: &mut impl FnMut(u32)) {
    match e {
        LExpr::LocalRef(slot) => f(*slot),
        _ => e.for_each_child(&mut |c| collect_slots(c, f)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lower::lower_module;
    use crate::parser::parse_module;

    fn lowered(src: &str) -> Program {
        let module = parse_module(src).expect("parse");
        lower_module(&module).expect("lower")
    }

    /// Counts cache cells via the Debug rendering — the same structural
    /// key the pass itself groups by.
    fn count_cells(e: &LExpr) -> usize {
        format!("{e:?}").matches("CacheOnce").count()
    }

    #[test]
    fn invariant_path_is_hoisted_out_of_the_loop() {
        let mut p = lowered(
            "let $d := <r><a k='1'/><a k='2'/></r> \
             return for $i in (1, 2, 3) return $d/a[@k = '1']",
        );
        let stats = optimize_program(&mut p);
        assert_eq!(stats.hoisted_invariant, 1, "one invariant hoist: {stats:?}");
        assert_eq!(count_cells(&p.body), 1);
    }

    #[test]
    fn loop_dependent_single_use_is_left_alone() {
        let mut p = lowered("for $i in (1, 2, 3) return $i + 1");
        let stats = optimize_program(&mut p);
        assert_eq!(stats, PlanStats::default(), "nothing to hoist: {stats:?}");
    }

    #[test]
    fn repeated_tuple_expression_is_cached_per_iteration() {
        let mut p = lowered("for $i in (1, 2, 3) where ($i + 1) * 2 > 4 return ($i + 1) * 2");
        let stats = optimize_program(&mut p);
        assert_eq!(stats.cached_per_tuple, 1, "one per-tuple cache: {stats:?}");
        // Both occurrences rewritten to the same cell.
        assert_eq!(count_cells(&p.body), 2);
    }

    #[test]
    fn calls_and_constructors_are_never_cached() {
        let mut p =
            lowered("for $i in (1, 2) where exists(trace((1, 2), 'x')) return <e a='{1 + 2}'/>");
        let stats = optimize_program(&mut p);
        // trace(...) is a call and the constructor creates identity, so
        // neither is wrapped; the literal list `(1, 2)` is not worth a
        // cell. The only hoist is the arithmetic inside the attribute.
        assert_eq!(stats.hoisted_invariant, 1, "{stats:?}");
        assert_eq!(stats.cached_per_tuple, 0, "{stats:?}");
        assert_eq!(count_cells(&p.body), 1);
        let rendered = format!("{:?}", p.body);
        assert!(
            !rendered.contains("CacheOnce { slot: 1, expr: CallBuiltin")
                && !rendered.contains("expr: DirectElement"),
            "calls/constructors must stay outside cells: {rendered}"
        );
    }

    #[test]
    fn frame_grows_by_the_synthetic_slots() {
        let mut p = lowered("let $d := <r><a/></r> return for $i in (1, 2) return $d/a");
        let before = p.body_frame;
        let stats = optimize_program(&mut p);
        assert_eq!(stats.hoisted_invariant, 1);
        assert_eq!(p.body_frame, before + 1);
    }

    #[test]
    fn dependency_on_the_inner_loop_blocks_the_entry_hoist() {
        // $n/@id depends on the *outer* for, so it hoists to the inner
        // loop's entry; $r/@x depends on the inner loop and occurs once, so
        // it is left alone.
        let mut p = lowered("for $n in (1, 2) for $r in (3, 4) where $n = $r return $n");
        let stats = optimize_program(&mut p);
        // `$n` / `$r` are bare refs — never cached. No cells appear; this
        // pins that dep analysis doesn't invent work. The `where` equality
        // does qualify for the hash-join mark (`$r` is the final clause's
        // variable) — the runtime falls back to the scan for the integer
        // atoms, so the mark is behaviourally invisible here.
        assert_eq!(stats.hoisted_invariant, 0, "{stats:?}");
        assert_eq!(stats.cached_per_tuple, 0, "{stats:?}");
        assert_eq!(stats.hash_joins, 1, "{stats:?}");
        assert_eq!(count_cells(&p.body), 0);
    }

    #[test]
    fn where_equality_on_the_final_for_is_marked_for_the_hash_join() {
        let mut p = lowered(
            "let $d := <r><a id='1'/><a id='2'/></r> \
             return for $n in $d/a for $r in $d/a where $r/@id = $n/@id return $r",
        );
        let stats = optimize_program(&mut p);
        assert_eq!(stats.hash_joins, 1, "{stats:?}");
    }

    /// A recursive subtype test over a global hierarchy, and the shape the
    /// document generator's table cells have.
    const SUBTYPE: &str = "declare variable $m := <m><t n='b' p='a'/><r t='b' s='1'/></m>; \
        declare function local:sub($s, $sup) { \
          if ($s = $sup) then true() \
          else let $p := string(($m/t[@n = $s])[1]/@p) \
               return if ($p = '') then false() else local:sub($p, $sup) }; ";

    #[test]
    fn recursive_pure_prefix_is_split_and_hoisted() {
        let mut p = lowered(&format!(
            "{SUBTYPE} for $i in (1, 2) for $j in (3, 4) \
             return count($m/r[local:sub(string(@t), 'a')][@s = $i][@s != $j])"
        ));
        let stats = optimize_program(&mut p);
        assert_eq!(stats.split_prefixes, 1, "{stats:?}");
        assert!(stats.hoisted_invariant >= 1, "{stats:?}");
        let rendered = format!("{:?}", p.body);
        assert!(rendered.contains("SplitPath"), "{rendered}");
    }

    #[test]
    fn keyed_splits_need_a_candidate_key_and_a_focus_free_probe() {
        for (suffix, keyed) in [
            ("[@s = $j]", 1),
            ("[$j = string(@s)]", 1),
            ("[@s = $j][@s != $i]", 1),
            ("[@s != $j]", 0),
            ("[@s = $j + count(@t)]", 0),
            ("[concat(@s, $j) = 'x']", 0),
        ] {
            let mut p = lowered(&format!(
                "{SUBTYPE} for $i in (1, 2) for $j in (3, 4) \
                 return count($m/r[local:sub(string(@t), 'a')]{suffix})"
            ));
            let stats = optimize_program(&mut p);
            assert_eq!(stats.split_prefixes, 1, "{suffix}: {stats:?}");
            assert_eq!(stats.keyed_splits, keyed, "{suffix}: {stats:?}");
        }
    }

    #[test]
    fn whole_invariant_pure_call_is_hoisted() {
        // The call reads nothing the loop binds: the whole filtered path is
        // one invariant cell, and no split is needed.
        let mut p = lowered(&format!(
            "{SUBTYPE} for $i in (1, 2, 3) return count($m/r[local:sub(string(@t), 'a')])"
        ));
        let stats = optimize_program(&mut p);
        assert_eq!(stats.hoisted_invariant, 1, "{stats:?}");
        assert_eq!(stats.split_prefixes, 0, "{stats:?}");
    }

    #[test]
    fn impure_calls_block_hoist_and_split() {
        for body in [
            // Constructs nodes.
            "declare function local:f($s) { <e>{$s}</e> }; \
             let $d := <r><a k='1'/></r> \
             return for $i in (1, 2) return count($d/a[local:f(@k) instance of element()][@k = $i])",
            // Reaches trace through another function.
            "declare function local:t($s) { trace('t', $s) }; \
             declare function local:f($s) { local:t($s) = '1' }; \
             let $d := <r><a k='1'/></r> \
             return for $i in (1, 2) return count($d/a[local:f(@k)][@k = $i])",
        ] {
            let mut p = lowered(body);
            let stats = optimize_program(&mut p);
            assert_eq!(stats.split_prefixes, 0, "{body}: {stats:?}");
            assert_eq!(stats.hoisted_invariant, 0, "{body}: {stats:?}");
        }
    }

    #[test]
    fn positional_suffixes_are_never_split() {
        for suffix in [
            "[2]",
            "[last()]",
            "[$i]",
            "[position() = 1]",
            "[@s = $i][1]",
        ] {
            let mut p = lowered(&format!(
                "{SUBTYPE} for $i in (1, 2) for $r in $m/r[local:sub(string(@t), 'a')]{suffix} \
                 return $r"
            ));
            let stats = optimize_program(&mut p);
            assert_eq!(stats.split_prefixes, 0, "{suffix}: {stats:?}");
        }
    }

    #[test]
    fn purity_is_a_greatest_fixpoint() {
        let p = lowered(
            "declare function local:even($n) { if ($n = 0) then true() else local:odd($n - 1) }; \
             declare function local:odd($n) { if ($n = 0) then false() else local:even($n - 1) }; \
             declare function local:loud($n) { trace('n', local:even($n)) }; \
             declare function local:caller($n) { local:loud($n) }; \
             declare function local:fresh($n) { <n>{$n}</n> }; \
             declare function local:lookup($n) { doc($n) }; \
             declare function local:fails($n) { error() }; \
             1",
        );
        let purity = Purity::analyse(&p.functions);
        let reasons: Vec<Option<String>> = (0..p.functions.len())
            .map(|i| purity.reason(&p.functions, i))
            .collect();
        let reasons: Vec<Option<&str>> = reasons.iter().map(|r| r.as_deref()).collect();
        assert_eq!(
            reasons,
            vec![
                None,
                None,
                Some("calls fn:trace"),
                Some("calls impure local:loud"),
                Some("constructs nodes"),
                Some("calls fn:doc"),
                Some("calls fn:error"),
            ]
        );
    }

    #[test]
    fn join_gates_reject_impure_calls_and_ambiguous_sides() {
        // An impure call on either side could trace — never marked.
        let mut p =
            lowered("for $n in (1, 2) for $r in (3, 4) where trace('r', $r) = $n return $r");
        assert_eq!(optimize_program(&mut p).hash_joins, 0);
        // A pure call is deterministic given the frame — marked.
        let mut p = lowered("for $n in (1, 2) for $r in (3, 4) where string($r) = $n return $r");
        assert_eq!(optimize_program(&mut p).hash_joins, 1);
        // Both operands mention the final variable — no single key side.
        let mut p = lowered("for $n in (1, 2) for $r in (3, 4) where $r = $r return $n");
        assert_eq!(optimize_program(&mut p).hash_joins, 0);
        // The key side also reads an *earlier* clause binding: the table
        // would go stale across tuples, so the mark is refused.
        let mut p = lowered("for $n in (1, 2) for $r in (3, 4) where $r - $n = 0 return $r");
        assert_eq!(optimize_program(&mut p).hash_joins, 0);
    }
}
