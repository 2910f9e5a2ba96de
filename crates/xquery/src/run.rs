//! The slot-based runner for lowered programs.
//!
//! This is the "run" half of the compile/run split: it executes the
//! [`Program`](crate::lower::Program) produced by [`crate::lower`], reading
//! variables from a flat [`Frame`] by pre-resolved index, dispatching
//! builtins on their enum, and calling user functions through a dense table.
//!
//! It must be observably identical to the tree-walking reference evaluator
//! in [`crate::eval`] — same values, same error codes and messages (including
//! the Galax-quirk ones), same trace output. To keep the two from drifting,
//! everything expression-independent (arithmetic promotion, axis candidate
//! enumeration, the predicate rule, order-key comparison, element-content
//! construction) lives in shared helpers in `eval`/`functions`; this module
//! only re-implements the walking skeleton over the lowered form.
//!
//! ## Concurrency contract
//!
//! A [`Program`] is immutable after lowering and `Send + Sync`: every name
//! it holds is a process-globally interned symbol and every literal an
//! immutable `Arc<str>` the plan owns, so the same
//! `Arc<Program>` may be evaluated concurrently from any number of engines
//! and pool workers (see `engine::StackPool`). All mutable state — the
//! frame, the dynamic context, trace output — is created per evaluation and
//! never escapes it. The runner recurses once per nesting level and per
//! user-function call, which is why a plan that may recurse runs on a
//! big-stack pool worker and only a shallow one on the caller's thread
//! (see `lower::Route`).

use crate::ast::{Axis, CmpOp, NodeCmpOp, Quantifier, SetOp};
use crate::compare::{
    atomize, atomize_item, effective_boolean_value, general_compare, general_compare_hashed,
    string_family, value_compare,
};
use crate::context::{DynamicContext, Focus};
use crate::cursor::{classify_steps, int_literal, positional_predicate, PathCursor};
use crate::engine::EngineOptions;
use crate::error::{Error, ErrorCode, Result};
use crate::eval::{
    arith, axis_candidates, compare_order_keys, dedup_sorted, expand_descendant_or_self, internal,
    join_atomized, predicate_outcome, singleton_integer, singleton_number, ContentBuilder,
    NumOperand,
};
use crate::functions::{dispatch_builtin, Builtin, CallCtx};
use crate::lower::{
    CompiledFunction, JoinSide, LAttrPart, LConstructorName, LContentPart, LExpr, LFlworClause,
    LNodeTest, LOrderSpec, LPathStep, Program, SplitKey,
};
use crate::obs::{EvalStats, ReuseStats};
use crate::types::{cast_atomic, ItemType, SeqType};
use crate::value::{Atomic, Item, Sequence};
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Arc;
use xmlstore::{NodeId, NodeKind, QName, Store, Sym};

/// Everything the runner threads besides the focus and the frame.
pub struct RunEnv<'a> {
    pub store: &'a mut Store,
    pub options: &'a EngineOptions,
    pub program: &'a Program,
    /// Registered documents for `fn:doc`.
    pub docs: &'a HashMap<String, NodeId>,
    /// Module-level variables, keyed by interned name. Declarations are
    /// inserted by the engine as they evaluate, so initializers see exactly
    /// the earlier ones — the same visibility the reference evaluator has.
    pub globals: &'a HashMap<Sym, Arc<Sequence>>,
    /// Output sink for `fn:trace` (see [`crate::obs::TraceSink`]).
    pub trace: &'a mut dyn crate::obs::TraceSink,
    /// Per-query runtime counters (see [`crate::obs::EvalStats`]). One
    /// evaluation runs on one worker, so plain `&mut` increments suffice.
    pub stats: &'a mut EvalStats,
    /// Counters of the reuse routes (see [`crate::obs::ReuseStats`]).
    pub reuse: &'a mut ReuseStats,
    /// Current user-function recursion depth.
    pub depth: usize,
    /// Results of pure user-function calls made so far in this evaluation
    /// (see [`Memo`]). Start each global initializer and the body with a
    /// fresh one: a declaration can override an external binding, so a
    /// call's result may differ between them.
    pub memo: Memo,
    /// Slot vectors for the frames of user-function calls.
    pub frames: FramePool,
}

/// The per-evaluation memo of pure user-function calls.
///
/// A function [`crate::lopt`] proved pure (no trace, `fn:doc`, `fn:error`,
/// constructor or unresolved call, and calls to pure functions only) sees
/// only its arguments and the globals, and trees never change during an
/// evaluation (construction copies its content, or builds in place only a
/// node no expression can see, see [`run_content`]). So within one
/// [`RunEnv`] a call with equal arguments returns an equal result, and the
/// memo answers it. Only calls whose every argument is empty or a single
/// item are memoized, keyed on the item: a node by id, an atomic by type
/// and value. Errors are never stored, and the table stops growing at
/// `MEMO_CAP` entries.
///
/// The one thing a call observes besides its arguments is the recursion
/// depth it runs at: each entry records how deep below its own level the
/// call nested, and a hit is taken only when the call would stay under
/// `recursion_limit` from the current depth too — a recursion-limit error
/// is never answered from the memo.
#[derive(Default)]
pub struct Memo {
    table: HashMap<MemoKey, (Sequence, usize), BuildHasherDefault<FxHasher>>,
    /// The deepest recursion depth a call was made at since the innermost
    /// memoizable call began (see [`call_pure`]).
    peak: usize,
}

/// Entries past which a [`Memo`] stops inserting.
const MEMO_CAP: usize = 1 << 14;

/// A memoized call: the function and its arguments. Arguments of a
/// function of up to [`MEMO_INLINE_ARGS`] parameters sit in the key itself,
/// padded with [`MemoArg::Empty`] (a function's arity is fixed, so padding
/// cannot make two calls of one function look alike); a probe then
/// allocates nothing.
#[derive(PartialEq, Eq, Hash)]
struct MemoKey {
    function: u32,
    args: MemoArgs,
}

const MEMO_INLINE_ARGS: usize = 3;

#[derive(PartialEq, Eq, Hash)]
enum MemoArgs {
    Inline([MemoArg; MEMO_INLINE_ARGS]),
    Spilled(Box<[MemoArg]>),
}

impl MemoKey {
    /// The key of a call whose arguments sit in `args`, or `None` when one
    /// of them holds more than one item.
    fn of(function: u32, args: &[Option<Sequence>]) -> Option<MemoKey> {
        let arg = |slot: &Option<Sequence>| MemoArg::of(slot.as_ref()?);
        let args = if args.len() <= MEMO_INLINE_ARGS {
            let mut inline: [MemoArg; MEMO_INLINE_ARGS] = std::array::from_fn(|_| MemoArg::Empty);
            for (key, slot) in inline.iter_mut().zip(args) {
                *key = arg(slot)?;
            }
            MemoArgs::Inline(inline)
        } else {
            MemoArgs::Spilled(args.iter().map(arg).collect::<Option<_>>()?)
        };
        Some(MemoKey { function, args })
    }
}

/// One argument of a memoized call, in a hashable form that tells apart
/// exactly what the function could tell apart: node identity, or an
/// atomic's type and value (a double by its bits, so `0` and `-0` differ).
#[derive(Clone, PartialEq, Eq, Hash)]
enum MemoArg {
    Empty,
    Node(NodeId),
    Str(Arc<str>),
    Untyped(Arc<str>),
    Int(i64),
    Dbl(u64),
    Bool(bool),
}

impl MemoArg {
    /// The key of one argument sequence, or `None` when it holds more than
    /// one item.
    fn of(arg: &Sequence) -> Option<MemoArg> {
        if arg.is_empty() {
            return Some(MemoArg::Empty);
        }
        Some(match arg.as_singleton()? {
            Item::Node(n) => MemoArg::Node(*n),
            Item::Atomic(Atomic::Str(s)) => MemoArg::Str(s.clone()),
            Item::Atomic(Atomic::Untyped(s)) => MemoArg::Untyped(s.clone()),
            Item::Atomic(Atomic::Int(i)) => MemoArg::Int(*i),
            Item::Atomic(Atomic::Dbl(d)) => MemoArg::Dbl(d.to_bits()),
            Item::Atomic(Atomic::Bool(b)) => MemoArg::Bool(*b),
        })
    }
}

/// The multiply-rotate hash of the Rust compiler ("Fx"), for the memo's
/// small keys: a probe hashes a function index and a few words, where
/// SipHash's per-hash setup costs more than the lookup. It resists no
/// collision attack, and string arguments come from documents; but whoever
/// supplies the documents also supplies the query, which can ask for as
/// much work outright, and the memo stops growing at [`MEMO_CAP`] entries,
/// which bounds what colliding keys can cost.
#[derive(Default)]
struct FxHasher {
    hash: u64,
}

impl FxHasher {
    const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(Self::SEED);
    }
}

impl Hasher for FxHasher {
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.add(u64::from_le_bytes(chunk.try_into().expect("8 bytes")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(word));
        }
    }

    fn write_u8(&mut self, i: u8) {
        self.add(u64::from(i));
    }

    fn write_u32(&mut self, i: u32) {
        self.add(u64::from(i));
    }

    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    fn finish(&self) -> u64 {
        self.hash
    }
}

/// A flat frame of variable slots. Slot indices were resolved at lowering
/// time; scopes never pop at runtime because a slot is only ever read by
/// references its binder dominates.
pub struct Frame {
    slots: Vec<Option<Sequence>>,
    /// Key tables of keyed [`LExpr::SplitPath`]s, by
    /// [`SplitKey::table`]: each over the sequence the prefix cell held
    /// when it was built.
    keyed: Vec<(u32, JoinState)>,
}

impl Frame {
    pub fn new(size: usize) -> Frame {
        Frame {
            slots: vec![None; size],
            keyed: Vec::new(),
        }
    }

    /// A frame of `size` empty slots, on a slot vector a finished call
    /// gave back when there is one.
    fn pooled(pool: &mut FramePool, size: usize) -> Frame {
        let mut slots = pool.0.pop().unwrap_or_default();
        slots.resize(size, None);
        Frame {
            slots,
            keyed: Vec::new(),
        }
    }

    /// Empties the frame and gives its slot vector back to `pool`.
    fn recycle(self, pool: &mut FramePool) {
        let mut slots = self.slots;
        slots.clear();
        pool.0.push(slots);
    }

    fn set(&mut self, slot: u32, value: Sequence) {
        self.slots[slot as usize] = Some(value);
    }

    fn get(&self, slot: u32) -> Option<&Sequence> {
        self.slots[slot as usize].as_ref()
    }

    /// Empties a [`LExpr::CacheOnce`] slot so the next read re-evaluates.
    fn clear(&mut self, slot: u32) {
        self.slots[slot as usize] = None;
    }
}

/// The slot vectors of finished calls, reused by later calls' frames: a
/// call in steady state allocates no frame. It holds at most as many
/// vectors as calls were ever in progress at once.
#[derive(Default)]
pub struct FramePool(Vec<Vec<Option<Sequence>>>);

/// Evaluates a lowered expression to a sequence.
///
/// Every recursion level passes through here, several times over (a call,
/// its body, each constructor and FLWOR on the way), so the dispatcher
/// keeps only the arms whose locals are a few words: the rest run in their
/// own functions, whose frames exist only while their arm runs. A debug
/// build gives every local of every arm its own stack slot, so an arm kept
/// inline costs every level its locals, whether it runs or not.
pub fn run(
    expr: &LExpr,
    env: &mut RunEnv,
    frame: &mut Frame,
    ctx: &mut DynamicContext,
) -> Result<Sequence> {
    match expr {
        LExpr::Literal(a) => Ok(Sequence::singleton(Item::Atomic(a.clone()))),
        LExpr::LocalRef(slot) => match frame.get(*slot) {
            Some(v) => Ok(v.clone()),
            // Unreachable for a correct lowering: every LocalRef is
            // dominated by its binder.
            None => Err(unbound_slot(*slot)),
        },
        LExpr::GlobalRef(name, position) => global_ref(*name, *position, env),
        LExpr::ContextItem(position) => Ok(Sequence::singleton(
            ctx.context_item(env.options.galax_quirks, *position)?
                .clone(),
        )),
        LExpr::Comma(parts) => run_comma(parts, env, frame, ctx),
        LExpr::Range(lo, hi) => run_range(lo, hi, env, frame, ctx),
        LExpr::Arith(op, l, r) => {
            let l = run(l, env, frame, ctx)?;
            let r = run(r, env, frame, ctx)?;
            arith(*op, &l, &r, env.store)
        }
        LExpr::Neg(e) => run_neg(e, env, frame, ctx),
        LExpr::GeneralCmp(op, l, r) => run_general_cmp(*op, l, r, env, frame, ctx),
        LExpr::ValueCmp(op, l, r) => {
            let l = run(l, env, frame, ctx)?;
            let r = run(r, env, frame, ctx)?;
            Ok(match value_compare(*op, &l, &r, env.store)? {
                Some(b) => Atomic::Bool(b).into(),
                None => Sequence::empty(),
            })
        }
        LExpr::NodeCmp(op, l, r) => run_node_cmp(*op, l, r, env, frame, ctx),
        LExpr::SetExpr(op, l, r) => run_set(*op, l, r, env, frame, ctx),
        LExpr::And(l, r) => {
            let b = run_ebv(l, env, frame, ctx)? && run_ebv(r, env, frame, ctx)?;
            Ok(Atomic::Bool(b).into())
        }
        LExpr::Or(l, r) => {
            let b = run_ebv(l, env, frame, ctx)? || run_ebv(r, env, frame, ctx)?;
            Ok(Atomic::Bool(b).into())
        }
        LExpr::If(c, t, e) => {
            let branch = if run_ebv(c, env, frame, ctx)? { t } else { e };
            run(branch, env, frame, ctx)
        }
        LExpr::Flwor {
            clauses,
            where_,
            order_by,
            return_,
        } => run_flwor(
            clauses,
            where_.as_deref(),
            order_by,
            return_,
            env,
            frame,
            ctx,
        ),
        LExpr::Quantified {
            quantifier,
            bindings,
            satisfies,
        } => quantified(*quantifier, bindings, satisfies, 0, env, frame, ctx)
            .map(|b| Atomic::Bool(b).into()),
        LExpr::Root(position) => run_root(*position, env, ctx),
        LExpr::AxisStep { .. } => run_axis_step(expr, env, frame, ctx),
        LExpr::Path { start, steps } => run_path(start, steps, env, frame, ctx),
        LExpr::Filter(base, predicates) => run_filter(base, predicates, env, frame, ctx),
        LExpr::CallBuiltin {
            builtin,
            args,
            position,
        } => call_builtin(*builtin, args, *position, env, frame, ctx),
        LExpr::CallUser {
            index,
            args,
            position,
        } => {
            let func = &env.program.functions[*index as usize];
            let inner = bind_args(func, args, env, frame, ctx)?;
            if func.pure {
                call_pure(*index, func, inner, *position, env)
            } else {
                call_user(func, inner, *position, env)
            }
        }
        LExpr::CallUnknown {
            name,
            args,
            position,
        } => call_unknown(*name, args, *position, env, frame, ctx),
        LExpr::DirectElement { .. } | LExpr::CompElement { .. } => {
            let el = construct_element(expr, env, frame, ctx)?;
            Ok(Sequence::singleton(Item::Node(el)))
        }
        LExpr::CompAttribute { .. }
        | LExpr::CompText(_)
        | LExpr::CompComment(_)
        | LExpr::CompDocument { .. }
        | LExpr::TryCatch { .. }
        | LExpr::TypeSwitch { .. }
        | LExpr::InstanceOf(..)
        | LExpr::CastableAs(..)
        | LExpr::CastAs(..) => run_cold(expr, env, frame, ctx),
        LExpr::CacheOnce { slot, expr } => {
            if let Some(v) = frame.get(*slot) {
                env.stats.cache_hits += 1;
                return Ok(v.clone());
            }
            // First read in this cache window: evaluate in place (errors
            // and traces fire exactly where the unhoisted program fired
            // them) and memoize only on success.
            let v = run(expr, env, frame, ctx)?;
            frame.set(*slot, v.clone());
            Ok(v)
        }
        LExpr::SplitPath {
            prefix,
            suffix,
            key,
            unsplit,
        } => run_split_path(prefix, suffix, *key, unsplit, env, frame, ctx),
    }
}

#[cold]
fn unbound_slot(slot: u32) -> Error {
    Error::internal(format!("unbound frame slot {slot}"))
}

fn global_ref(name: Sym, position: (u32, u32), env: &RunEnv) -> Result<Sequence> {
    if let Some(v) = env.globals.get(&name) {
        return Ok((**v).clone());
    }
    if env.options.galax_quirks {
        Err(Error::new(
            ErrorCode::Internal,
            format!("Internal_Error: Variable '${name}' not found."),
        ))
    } else {
        Err(Error::new(
            ErrorCode::XPST0008,
            format!("variable ${name} is not bound"),
        )
        .at(position.0, position.1))
    }
}

fn run_comma(
    parts: &[LExpr],
    env: &mut RunEnv,
    frame: &mut Frame,
    ctx: &mut DynamicContext,
) -> Result<Sequence> {
    let mut out = Sequence::empty();
    for p in parts {
        out.push_seq(run(p, env, frame, ctx)?);
    }
    Ok(out)
}

#[inline(never)]
fn run_range(
    lo: &LExpr,
    hi: &LExpr,
    env: &mut RunEnv,
    frame: &mut Frame,
    ctx: &mut DynamicContext,
) -> Result<Sequence> {
    let lo = run(lo, env, frame, ctx)?;
    let hi = run(hi, env, frame, ctx)?;
    let (Some(lo), Some(hi)) = (
        singleton_integer(&lo, env.store)?,
        singleton_integer(&hi, env.store)?,
    ) else {
        return Ok(Sequence::empty());
    };
    Ok((lo..=hi).map(Item::integer).collect())
}

#[inline(never)]
fn run_neg(
    e: &LExpr,
    env: &mut RunEnv,
    frame: &mut Frame,
    ctx: &mut DynamicContext,
) -> Result<Sequence> {
    let v = run(e, env, frame, ctx)?;
    let Some(n) = singleton_number(&v, env.store)? else {
        return Ok(Sequence::empty());
    };
    Ok(match n {
        NumOperand::Int(i) => Atomic::Int(-i).into(),
        NumOperand::Dbl(d) => Atomic::Dbl(-d).into(),
    })
}

fn run_general_cmp(
    op: CmpOp,
    l: &LExpr,
    r: &LExpr,
    env: &mut RunEnv,
    frame: &mut Frame,
    ctx: &mut DynamicContext,
) -> Result<Sequence> {
    if env.options.runtime_opt {
        if let Some(b) = stream_general_cmp(op, l, r, env, frame, ctx)? {
            return Ok(Atomic::Bool(b).into());
        }
    }
    let l = run(l, env, frame, ctx)?;
    let r = run(r, env, frame, ctx)?;
    // Both operands are fully evaluated before the comparison and
    // the comparison itself never raises, so swapping in the hash
    // join can only change how the same boolean is found.
    let b = if env.options.runtime_opt {
        general_compare_hashed(op, &l, &r, env.store)
    } else {
        general_compare(op, &l, &r, env.store)
    };
    Ok(Atomic::Bool(b).into())
}

#[inline(never)]
fn run_node_cmp(
    op: NodeCmpOp,
    l: &LExpr,
    r: &LExpr,
    env: &mut RunEnv,
    frame: &mut Frame,
    ctx: &mut DynamicContext,
) -> Result<Sequence> {
    let l = run(l, env, frame, ctx)?;
    let r = run(r, env, frame, ctx)?;
    if l.is_empty() || r.is_empty() {
        return Ok(Sequence::empty());
    }
    let (Some(Item::Node(a)), Some(Item::Node(b))) = (l.as_singleton(), r.as_singleton()) else {
        return Err(Error::new(
            ErrorCode::XPTY0004,
            "node comparison requires singleton nodes",
        ));
    };
    let result = match op {
        NodeCmpOp::Is => a == b,
        NodeCmpOp::Precedes | NodeCmpOp::Follows => {
            let ord = env.store.doc_order(*a, *b).ok_or_else(|| {
                Error::new(
                    ErrorCode::XPTY0004,
                    "document-order comparison of nodes in different trees",
                )
            })?;
            match op {
                NodeCmpOp::Precedes => ord == std::cmp::Ordering::Less,
                _ => ord == std::cmp::Ordering::Greater,
            }
        }
    };
    Ok(Atomic::Bool(result).into())
}

#[inline(never)]
fn run_set(
    op: SetOp,
    l: &LExpr,
    r: &LExpr,
    env: &mut RunEnv,
    frame: &mut Frame,
    ctx: &mut DynamicContext,
) -> Result<Sequence> {
    let l = run(l, env, frame, ctx)?;
    let r = run(r, env, frame, ctx)?;
    let (Some(ls), Some(rs)) = (l.all_nodes(), r.all_nodes()) else {
        return Err(Error::new(
            ErrorCode::XPTY0004,
            "union/intersect/except operands must be node sequences",
        ));
    };
    // Union never consults the membership set (dedup_sorted below
    // removes duplicates anyway), so only build it for the
    // filtering operators.
    let combined: Vec<NodeId> = match op {
        SetOp::Union => ls.into_iter().chain(rs).collect(),
        SetOp::Intersect => {
            let right_set: HashSet<NodeId> = rs.iter().copied().collect();
            ls.into_iter().filter(|n| right_set.contains(n)).collect()
        }
        SetOp::Except => {
            let right_set: HashSet<NodeId> = rs.iter().copied().collect();
            ls.into_iter().filter(|n| !right_set.contains(n)).collect()
        }
    };
    Ok(dedup_sorted(combined, env.store)
        .into_iter()
        .map(Item::Node)
        .collect())
}

#[inline(never)]
fn run_root(position: (u32, u32), env: &mut RunEnv, ctx: &DynamicContext) -> Result<Sequence> {
    match ctx.context_item(env.options.galax_quirks, position)? {
        Item::Node(n) => Ok(Sequence::singleton(Item::Node(env.store.root(*n)))),
        Item::Atomic(_) => Err(
            Error::new(ErrorCode::XPTY0019, "'/' requires a node context item")
                .at(position.0, position.1),
        ),
    }
}

#[inline(never)]
fn run_axis_step(
    expr: &LExpr,
    env: &mut RunEnv,
    frame: &mut Frame,
    ctx: &mut DynamicContext,
) -> Result<Sequence> {
    let LExpr::AxisStep {
        axis,
        test,
        predicates,
        position,
    } = expr
    else {
        unreachable!("run_axis_step on a non-step");
    };
    let node = match ctx.context_item(env.options.galax_quirks, *position)? {
        Item::Node(n) => *n,
        Item::Atomic(_) => {
            return Err(
                Error::new(ErrorCode::XPTY0019, "axis step applied to an atomic value")
                    .at(position.0, position.1),
            )
        }
    };
    if let Some(step) = fused_attr_eq_step(*axis, test, predicates) {
        // Same shape as the generic path: no candidates → empty,
        // predicates (and their errors) never reached.
        if !has_child_element_named(env.store, node, &step.child) {
            return Ok(Sequence::empty());
        }
        let rhs = run(step.rhs, env, frame, ctx)?;
        if let Some(matched) = fused_attr_eq_candidates(node, &step, &rhs, env.store) {
            env.stats.index_hits += 1;
            let filtered = apply_predicates_nodes(matched, step.rest, env, frame, ctx)?;
            return Ok(filtered.into_iter().map(Item::Node).collect());
        }
        env.stats.index_misses += 1;
    }
    let candidates = axis_candidates(*axis, node, env.store);
    let tested: Vec<NodeId> = candidates
        .into_iter()
        .filter(|&n| node_test_matches(test, *axis, n, env.store))
        .collect();
    let filtered = apply_predicates_nodes(tested, predicates, env, frame, ctx)?;
    Ok(filtered.into_iter().map(Item::Node).collect())
}

fn run_path(
    start: &LExpr,
    steps: &[LPathStep],
    env: &mut RunEnv,
    frame: &mut Frame,
    ctx: &mut DynamicContext,
) -> Result<Sequence> {
    if env.options.runtime_opt {
        if let Some(out) = stream_positional_path(start, steps, env, frame, ctx)? {
            return Ok(out);
        }
    }
    let start_seq = run(start, env, frame, ctx)?;
    finish_path_from(start_seq, steps, env, frame, ctx)
}

fn run_filter(
    base: &LExpr,
    predicates: &[LExpr],
    env: &mut RunEnv,
    frame: &mut Frame,
    ctx: &mut DynamicContext,
) -> Result<Sequence> {
    if env.options.runtime_opt {
        if let Some(out) = stream_filter_positional(base, predicates, env, frame, ctx)? {
            return Ok(out);
        }
    }
    let seq = run(base, env, frame, ctx)?;
    apply_predicates_items(seq, predicates, env, frame, ctx)
}

/// Builtin calls of up to this many arguments keep their argument values
/// on the stack.
const INLINE_BUILTIN_ARGS: usize = 3;

/// A builtin call: the cursor runtime's takeover (see [`stream_builtin`]),
/// or the arguments evaluated in order and the builtin dispatched on them.
#[inline(never)]
fn call_builtin(
    builtin: Builtin,
    args: &[LExpr],
    position: (u32, u32),
    env: &mut RunEnv,
    frame: &mut Frame,
    ctx: &mut DynamicContext,
) -> Result<Sequence> {
    if env.options.runtime_opt
        && matches!(args.first(), Some(LExpr::Path { .. } | LExpr::Flwor { .. }))
    {
        if let Some(out) = stream_builtin(builtin, args, env, frame, ctx)? {
            return Ok(out);
        }
    }
    let mut inline: [Sequence; INLINE_BUILTIN_ARGS] = Default::default();
    let mut spilled = Vec::new();
    let values: &mut [Sequence] = if args.len() <= INLINE_BUILTIN_ARGS {
        &mut inline[..args.len()]
    } else {
        spilled.resize(args.len(), Sequence::empty());
        &mut spilled
    };
    for (value, a) in values.iter_mut().zip(args) {
        *value = run(a, env, frame, ctx)?;
    }
    dispatch(builtin, values, position, env, ctx)
}

/// Dispatches a builtin on already evaluated arguments.
fn dispatch(
    builtin: Builtin,
    values: &mut [Sequence],
    position: (u32, u32),
    env: &mut RunEnv,
    ctx: &DynamicContext,
) -> Result<Sequence> {
    let mut cx = CallCtx {
        store: env.store,
        galax_quirks: env.options.galax_quirks,
        docs: env.docs,
        trace: &mut *env.trace,
    };
    dispatch_builtin(builtin, values, &mut cx, ctx, position)
}

#[inline(never)]
fn call_unknown(
    name: Sym,
    args: &[LExpr],
    position: (u32, u32),
    env: &mut RunEnv,
    frame: &mut Frame,
    ctx: &mut DynamicContext,
) -> Result<Sequence> {
    // The walker evaluates arguments before discovering the call
    // resolves to nothing; preserve that (argument errors and
    // traces fire first).
    for a in args {
        run(a, env, frame, ctx)?;
    }
    Err(Error::new(
        ErrorCode::XPST0017,
        format!("unknown function {name}#{}", args.len()),
    )
    .at(position.0, position.1))
}

/// The arms of [`run`] no recursion level of a typical plan passes
/// through: non-element constructors, `try`, `typeswitch` and the type
/// operators.
#[inline(never)]
fn run_cold(
    expr: &LExpr,
    env: &mut RunEnv,
    frame: &mut Frame,
    ctx: &mut DynamicContext,
) -> Result<Sequence> {
    match expr {
        LExpr::CompAttribute {
            name,
            value,
            position,
        } => {
            let name = constructor_qname(name, env, frame, ctx, *position)?;
            let text = match value {
                Some(v) => {
                    let seq = run(v, env, frame, ctx)?;
                    join_atomized(&seq, env.store)
                }
                None => String::new(),
            };
            let attr = env.store.create_attribute(name, text).map_err(internal)?;
            Ok(Sequence::singleton(Item::Node(attr)))
        }

        LExpr::CompText(e) => {
            let seq = run(e, env, frame, ctx)?;
            if seq.is_empty() {
                return Ok(Sequence::empty());
            }
            let node = env
                .store
                .create_text(join_atomized(&seq, env.store))
                .map_err(internal)?;
            Ok(Sequence::singleton(Item::Node(node)))
        }

        LExpr::CompComment(e) => {
            let seq = run(e, env, frame, ctx)?;
            let node = env
                .store
                .create_comment(join_atomized(&seq, env.store))
                .map_err(internal)?;
            Ok(Sequence::singleton(Item::Node(node)))
        }

        LExpr::CompDocument { content, position } => {
            let doc = env.store.create_document().map_err(internal)?;
            let mut builder = ContentBuilder::new(doc, *position, env.options.dup_attr_policy);
            enclosed(content, &mut builder, env, frame, ctx)?;
            builder.finish(env.store)?;
            Ok(Sequence::singleton(Item::Node(doc)))
        }

        LExpr::TryCatch { try_, var, catch } => match run(try_, env, frame, ctx) {
            Ok(v) => Ok(v),
            Err(e) if e.code == ErrorCode::Internal => Err(e),
            Err(e) => {
                if let Some(slot) = var {
                    frame.set(*slot, Sequence::singleton(Item::string(e.message.clone())));
                }
                run(catch, env, frame, ctx)
            }
        },

        LExpr::TypeSwitch {
            operand,
            cases,
            default_var,
            default,
        } => {
            let value = run(operand, env, frame, ctx)?;
            for case in cases {
                if case.ty.matches(&value, env.store) {
                    if let Some(slot) = &case.var {
                        frame.set(*slot, value.clone());
                    }
                    return run(&case.body, env, frame, ctx);
                }
            }
            if let Some(slot) = default_var {
                frame.set(*slot, value);
            }
            run(default, env, frame, ctx)
        }

        LExpr::InstanceOf(e, ty) => {
            let seq = run(e, env, frame, ctx)?;
            Ok(Atomic::Bool(ty.matches(&seq, env.store)).into())
        }

        LExpr::CastableAs(e, ty) => {
            let seq = run(e, env, frame, ctx)?;
            let SeqType::Of(ItemType::Atomic(target), occ) = ty else {
                return Ok(Atomic::Bool(false).into());
            };
            let ok = match seq.as_singleton() {
                None if seq.is_empty() => occ.accepts(0),
                None => false,
                Some(item) => {
                    let a = atomize_item(item, env.store);
                    cast_atomic(&a, *target).is_ok()
                }
            };
            Ok(Atomic::Bool(ok).into())
        }

        LExpr::CastAs(e, ty, position) => {
            let seq = run(e, env, frame, ctx)?;
            let SeqType::Of(ItemType::Atomic(target), occ) = ty else {
                return Err(
                    Error::new(ErrorCode::XPST0003, "cast target must be an atomic type")
                        .at(position.0, position.1),
                );
            };
            if seq.is_empty() {
                return if occ.accepts(0) {
                    Ok(Sequence::empty())
                } else {
                    Err(Error::new(ErrorCode::XPTY0004, "cast of an empty sequence")
                        .at(position.0, position.1))
                };
            }
            let Some(item) = seq.as_singleton() else {
                return Err(Error::new(ErrorCode::XPTY0004, "cast requires a singleton")
                    .at(position.0, position.1));
            };
            let a = atomize_item(item, env.store);
            Ok(cast_atomic(&a, *target)?.into())
        }

        _ => Err(Error::internal("run_cold on a hot expression")),
    }
}

#[inline(never)]
fn run_split_path(
    prefix: &LExpr,
    suffix: &[LExpr],
    key: Option<SplitKey>,
    unsplit: &LExpr,
    env: &mut RunEnv,
    frame: &mut Frame,
    ctx: &mut DynamicContext,
) -> Result<Sequence> {
    // Both halves are pure: on error, the unsplit path decides
    // which error the program raises, and where.
    run(prefix, env, frame, ctx)
        .and_then(|seq| match key {
            Some(key) => keyed_filter(seq, key, suffix, env, frame, ctx),
            None => apply_predicates_items(seq, suffix, env, frame, ctx),
        })
        .or_else(|_| run(unsplit, env, frame, ctx))
}

/// Effective boolean value of an expression; a streamable path answers
/// with one cursor pull (see [`stream_exists`]).
fn run_ebv(
    expr: &LExpr,
    env: &mut RunEnv,
    frame: &mut Frame,
    ctx: &mut DynamicContext,
) -> Result<bool> {
    if let LExpr::Path { start, steps } = expr {
        if let Some(found) = stream_exists(start, steps, env, frame, ctx)? {
            return Ok(found);
        }
    }
    let v = run(expr, env, frame, ctx)?;
    effective_boolean_value(&v, env.store)
}

// ----------------------------------------------------------------------
// FLWOR
// ----------------------------------------------------------------------

/// Hash table over a sequence's items, keyed by the string atoms of an
/// equality's key side: the final `for` clause's sequence for the FLWOR
/// hash join, the cached prefix for a keyed split. Built at most once per
/// distinct sequence (the sequence is held to keep its allocation — and so
/// its identity — alive) and probed by every tuple or read that sees the
/// same sequence again.
struct JoinState {
    seq: Sequence,
    /// Key atoms of each item, as ascending item indices per string.
    /// `None` when some key atom fell outside the string family (exact
    /// `=` semantics then need the general comparison) or a key could not
    /// be computed: every probe then falls back to the plain scan.
    table: Option<HashMap<String, Vec<usize>>>,
}

impl JoinState {
    /// An empty table over `seq`, to be filled by [`JoinState::insert`].
    fn new(seq: Sequence) -> JoinState {
        JoinState {
            seq,
            table: Some(HashMap::new()),
        }
    }

    /// Files item `i` under each of its key atoms; abandons the table and
    /// returns `false` at the first atom outside the string family.
    fn insert(&mut self, i: usize, atoms: &[Atomic]) -> bool {
        let Some(map) = self.table.as_mut() else {
            return false;
        };
        for a in atoms {
            match string_family(a) {
                Some(s) => map.entry(s.to_string()).or_default().push(i),
                None => {
                    self.table = None;
                    return false;
                }
            }
        }
        true
    }

    /// The ascending indices of the items some key atom of which equals a
    /// probe atom — the items `KEY = PROBE` keeps — or `None` when the
    /// table cannot decide: it was abandoned, or a probe atom falls outside
    /// the string family.
    fn probe(&self, atoms: &[Atomic]) -> Option<Vec<usize>> {
        let map = self.table.as_ref()?;
        let probe: Vec<&str> = atoms.iter().map(string_family).collect::<Option<_>>()?;
        let mut out: Vec<usize> = Vec::new();
        if let [s] = probe.as_slice() {
            if let Some(v) = map.get(*s) {
                out.clone_from(v);
            }
        } else {
            for s in probe {
                if let Some(v) = map.get(s) {
                    out.extend_from_slice(v);
                }
            }
            out.sort_unstable();
            out.dedup();
        }
        Some(out)
    }
}

/// True when a marked join's build side provably yields the same sequence
/// on every outer tuple: a context-rooted path of pure streamable steps
/// (child/attribute axes, at most positional-literal predicates). No value
/// predicates means no errors and no traces; no variables means no
/// dependence on the loop; and constructors only ever grow new trees, so
/// the path's answer cannot change mid-query.
fn join_build_invariant(seq: &LExpr) -> bool {
    let LExpr::Path { start, steps } = seq else {
        return false;
    };
    matches!(**start, LExpr::Root(_)) && classify_steps(steps).is_some()
}

/// Where the tuple output of an unordered FLWOR goes. `count(FLWOR)` only
/// observes the length, so it runs the pipeline with a [`FlworOut::Count`]
/// sink: `return` is still evaluated per tuple — its errors, traces, and
/// constructed nodes are the tuple's own — but the result items are tallied
/// and dropped instead of being collected (and counted as allocated).
enum FlworOut<'b> {
    Collect(Sequence),
    Count(u64),
    /// Push mode (see [`run_content`]): each tuple's `return` runs in
    /// push mode into the enclosing constructor's builder.
    Push(&'b mut ContentBuilder),
}

impl FlworOut<'_> {
    fn push(&mut self, value: Sequence, stats: &mut EvalStats) {
        match self {
            FlworOut::Collect(seq) => {
                stats.items_allocated += value.len() as u64;
                seq.push_seq(value);
            }
            FlworOut::Count(n) => {
                stats.items_streamed += value.len() as u64;
                *n += value.len() as u64;
            }
            FlworOut::Push(_) => unreachable!("a pushing FLWOR pushes its return values itself"),
        }
    }
}

fn run_flwor(
    clauses: &[LFlworClause],
    where_: Option<&LExpr>,
    order_by: &[LOrderSpec],
    return_: &LExpr,
    env: &mut RunEnv,
    frame: &mut Frame,
    ctx: &mut DynamicContext,
) -> Result<Sequence> {
    let mut keyed: Vec<(Vec<Option<Atomic>>, Sequence)> = Vec::new();
    let mut out = FlworOut::Collect(Sequence::empty());
    let mut jstate: Option<JoinState> = None;
    flwor_tuples(
        clauses,
        0,
        where_,
        order_by,
        return_,
        env,
        frame,
        ctx,
        &mut keyed,
        &mut out,
        &mut jstate,
    )?;

    if order_by.is_empty() {
        let FlworOut::Collect(plain) = out else {
            unreachable!("run_flwor always collects");
        };
        return Ok(plain);
    }
    keyed.sort_by(|(ka, _), (kb, _)| {
        for (i, spec) in order_by.iter().enumerate() {
            let ord = compare_order_keys(
                ka[i].as_ref(),
                kb[i].as_ref(),
                spec.descending,
                spec.empty_least,
            );
            if ord != std::cmp::Ordering::Equal {
                return ord;
            }
        }
        std::cmp::Ordering::Equal
    });
    Ok(Sequence::concat(keyed.into_iter().map(|(_, v)| v)))
}

/// Runs an unordered FLWOR for `fn:count` alone: same tuple pipeline, same
/// per-tuple `return` evaluation (errors, traces, constructed nodes all
/// fire identically), but the result items are counted and dropped.
fn run_flwor_count(
    clauses: &[LFlworClause],
    where_: Option<&LExpr>,
    return_: &LExpr,
    env: &mut RunEnv,
    frame: &mut Frame,
    ctx: &mut DynamicContext,
) -> Result<u64> {
    let mut keyed: Vec<(Vec<Option<Atomic>>, Sequence)> = Vec::new();
    let mut out = FlworOut::Count(0);
    let mut jstate: Option<JoinState> = None;
    flwor_tuples(
        clauses,
        0,
        where_,
        &[],
        return_,
        env,
        frame,
        ctx,
        &mut keyed,
        &mut out,
        &mut jstate,
    )?;
    let FlworOut::Count(n) = out else {
        unreachable!("run_flwor_count always counts");
    };
    Ok(n)
}

/// Runs clause `idx` of a FLWOR and, through it, every later clause, once
/// per tuple; past the last clause, `where` and `return` (see
/// [`flwor_return`]). The clauses run in functions of their own, so a
/// recursion level pays only for the one it passes through.
#[allow(clippy::too_many_arguments)]
fn flwor_tuples(
    clauses: &[LFlworClause],
    idx: usize,
    where_: Option<&LExpr>,
    order_by: &[LOrderSpec],
    return_: &LExpr,
    env: &mut RunEnv,
    frame: &mut Frame,
    ctx: &mut DynamicContext,
    keyed: &mut Vec<(Vec<Option<Atomic>>, Sequence)>,
    out: &mut FlworOut<'_>,
    jstate: &mut Option<JoinState>,
) -> Result<()> {
    match clauses.get(idx) {
        None => flwor_return(where_, order_by, return_, env, frame, ctx, keyed, out),
        Some(LFlworClause::For { .. }) => flwor_for(
            clauses, idx, where_, order_by, return_, env, frame, ctx, keyed, out, jstate,
        ),
        Some(LFlworClause::Let {
            var,
            name,
            ty,
            expr,
        }) => {
            let value = run(expr, env, frame, ctx)?;
            if let Some(ty) = ty {
                ty.check(&value, env.store, &format!("let ${name}"))?;
            }
            frame.set(*var, value);
            flwor_tuples(
                clauses,
                idx + 1,
                where_,
                order_by,
                return_,
                env,
                frame,
                ctx,
                keyed,
                out,
                jstate,
            )
        }
    }
}

/// One tuple past the last clause: `where`, then `return` into `out`, or
/// into `keyed` with its order keys when the FLWOR sorts.
#[allow(clippy::too_many_arguments)]
#[inline(never)]
fn flwor_return(
    where_: Option<&LExpr>,
    order_by: &[LOrderSpec],
    return_: &LExpr,
    env: &mut RunEnv,
    frame: &mut Frame,
    ctx: &mut DynamicContext,
    keyed: &mut Vec<(Vec<Option<Atomic>>, Sequence)>,
    out: &mut FlworOut<'_>,
) -> Result<()> {
    if let Some(w) = where_ {
        if !run_ebv(w, env, frame, ctx)? {
            return Ok(());
        }
    }
    if let FlworOut::Push(builder) = out {
        return run_content(return_, builder, env, frame, ctx);
    }
    if order_by.is_empty() {
        let value = run(return_, env, frame, ctx)?;
        out.push(value, env.stats);
        return Ok(());
    }
    let mut keys = Vec::with_capacity(order_by.len());
    for spec in order_by {
        let kv = run(&spec.key, env, frame, ctx)?;
        let atoms = atomize(&kv, env.store);
        if atoms.len() > 1 {
            return Err(Error::new(
                ErrorCode::XPTY0004,
                "order by key must be a singleton",
            ));
        }
        keys.push(atoms.into_iter().next());
    }
    let value = run(return_, env, frame, ctx)?;
    env.stats.items_allocated += value.len() as u64;
    keyed.push((keys, value));
    Ok(())
}

/// A `for` clause: binds each item of its sequence in turn and runs the
/// later clauses per binding.
#[allow(clippy::too_many_arguments)]
#[inline(never)]
fn flwor_for(
    clauses: &[LFlworClause],
    idx: usize,
    where_: Option<&LExpr>,
    order_by: &[LOrderSpec],
    return_: &LExpr,
    env: &mut RunEnv,
    frame: &mut Frame,
    ctx: &mut DynamicContext,
    keyed: &mut Vec<(Vec<Option<Atomic>>, Sequence)>,
    out: &mut FlworOut<'_>,
    jstate: &mut Option<JoinState>,
) -> Result<()> {
    let LFlworClause::For {
        var,
        seq,
        reset_entry,
        reset_iter,
        join,
        ..
    } = &clauses[idx]
    else {
        unreachable!("flwor_for on a `let` clause");
    };
    // Entry caches hold values invariant across this loop: clear
    // before `seq` is evaluated (a cache read inside `seq` itself
    // must see fresh outer bindings) and refill at most once per
    // (re-)entry.
    env.stats.cache_resets += reset_entry.len() as u64;
    for slot in reset_entry {
        frame.clear(*slot);
    }
    // A bare streamable path binds its tuples straight off the
    // cursor: the binding sequence is never built. Clauses claimed
    // by the hash join keep materialising — the join's table build
    // and `same_alloc` reuse check want the whole sequence — as do
    // `CacheOnce`-wrapped sequences (the cell holds the
    // materialised value by design).
    let items = 'materialized: {
        // A marked join whose build side is a context-rooted pure
        // path re-evaluates it per outer tuple (the hoister leaves
        // context-rooted paths put), so every entry made a fresh
        // allocation, `same_alloc` failed, and the table was
        // rebuilt for every tuple — 100 builds for a 100-tuple
        // probe in BENCH_5/6. Such a path cannot raise, trace, or
        // see loop bindings, and mid-query construction only grows
        // new trees, so the first build's sequence is reused
        // outright: one build, every later tuple probes.
        if env.options.runtime_opt && idx + 1 == clauses.len() && join.is_some() {
            if let Some(state) = jstate.as_ref() {
                if join_build_invariant(seq) {
                    break 'materialized state.seq.clone();
                }
            }
        }
        if join.is_none() {
            if let LExpr::Path { start, steps } = seq {
                if let Some(stream) = open_path_stream(start, steps, env, frame, ctx)? {
                    return flwor_for_streamed(
                        stream, clauses, idx, where_, order_by, return_, env, frame, ctx, keyed,
                        out, jstate,
                    );
                }
            }
        }
        run(seq, env, frame, ctx)?
    };
    if env.options.runtime_opt && idx + 1 == clauses.len() {
        if let (Some(side), Some(LExpr::GeneralCmp(CmpOp::Eq, l, r))) = (join, where_) {
            let (key_e, probe_e) = match side {
                JoinSide::Left => (&**l, &**r),
                JoinSide::Right => (&**r, &**l),
            };
            return join_for(
                items, *var, reset_iter, key_e, probe_e, clauses, idx, where_, order_by, return_,
                env, frame, ctx, keyed, out, jstate,
            );
        }
    }
    for (i, item) in items.into_iter().enumerate() {
        bind_for(frame, env.stats, &clauses[idx], item, i);
        flwor_tuples(
            clauses,
            idx + 1,
            where_,
            order_by,
            return_,
            env,
            frame,
            ctx,
            keyed,
            out,
            jstate,
        )?;
    }
    Ok(())
}

/// A `for` clause over a path read off its cursor (see
/// [`open_path_stream`]).
#[allow(clippy::too_many_arguments)]
#[inline(never)]
fn flwor_for_streamed(
    mut stream: PathStream,
    clauses: &[LFlworClause],
    idx: usize,
    where_: Option<&LExpr>,
    order_by: &[LOrderSpec],
    return_: &LExpr,
    env: &mut RunEnv,
    frame: &mut Frame,
    ctx: &mut DynamicContext,
    keyed: &mut Vec<(Vec<Option<Atomic>>, Sequence)>,
    out: &mut FlworOut<'_>,
    jstate: &mut Option<JoinState>,
) -> Result<()> {
    let mut i = 0;
    while let Some(item) = stream.next(env) {
        bind_for(frame, env.stats, &clauses[idx], item, i);
        flwor_tuples(
            clauses,
            idx + 1,
            where_,
            order_by,
            return_,
            env,
            frame,
            ctx,
            keyed,
            out,
            jstate,
        )?;
        i += 1;
    }
    Ok(())
}

/// Binds the `i`th item (0-based) of a `for` clause: clears the clause's
/// per-iteration caches, then sets its variable and its `at` position.
fn bind_for(frame: &mut Frame, stats: &mut EvalStats, clause: &LFlworClause, item: Item, i: usize) {
    let LFlworClause::For {
        var,
        at,
        reset_iter,
        ..
    } = clause
    else {
        unreachable!("bind_for on a `let` clause");
    };
    stats.cache_resets += reset_iter.len() as u64;
    for slot in reset_iter {
        frame.clear(*slot);
    }
    frame.set(*var, Sequence::singleton(item));
    if let Some(at_slot) = at {
        frame.set(*at_slot, Sequence::singleton(Item::integer(i as i64 + 1)));
    }
}

/// The hash-join path for the final `for` clause (see
/// [`crate::lower::LFlworClause::For::join`]): build a table over `items`
/// keyed by `key_e`'s string atoms (once per distinct sequence), probe it
/// with `probe_e`'s atoms for this tuple, and emit only the matching
/// bindings — the `where` equality is subsumed, so matched tuples recurse
/// with no `where`.
///
/// Error behaviour is the plain scan's exactly. Both operands are gated
/// deterministic and effect-free, so which errors *can* fire is fixed; the
/// scan's first action for a tuple is `key(item 1)` then the probe side,
/// and the build evaluates in that same order before touching later items.
/// A key that raises on a *later* item abandons the table: the scan would
/// run `return` for the earlier matches first (and their errors or traces
/// would come first), so the tuple falls back to it. So does a tuple whose
/// table cannot decide membership (some key or probe atom outside the
/// string family): the plain scan below re-evaluates `where` per item in
/// source order.
#[allow(clippy::too_many_arguments)]
fn join_for(
    items: Sequence,
    var: u32,
    reset_iter: &[u32],
    key_e: &LExpr,
    probe_e: &LExpr,
    clauses: &[LFlworClause],
    idx: usize,
    where_: Option<&LExpr>,
    order_by: &[LOrderSpec],
    return_: &LExpr,
    env: &mut RunEnv,
    frame: &mut Frame,
    ctx: &mut DynamicContext,
    keyed: &mut Vec<(Vec<Option<Atomic>>, Sequence)>,
    out: &mut FlworOut<'_>,
    jstate: &mut Option<JoinState>,
) -> Result<()> {
    if items.is_empty() {
        return Ok(());
    }
    let bind = |frame: &mut Frame, stats: &mut EvalStats, item: &Item| {
        stats.cache_resets += reset_iter.len() as u64;
        for slot in reset_iter {
            frame.clear(*slot);
        }
        frame.set(var, Sequence::singleton(item.clone()));
    };
    let rebuild = !matches!(jstate, Some(s) if s.seq.same_alloc(&items));
    let mut first_key_atoms = None;
    if rebuild {
        *jstate = None;
        bind(frame, &mut *env.stats, &items.items()[0]);
        first_key_atoms = Some(key_atoms(key_e, env, frame, ctx)?);
    }
    let probe_atoms = key_atoms(probe_e, env, frame, ctx)?;
    if let Some(first) = first_key_atoms {
        let mut state = JoinState::new(items.clone());
        if state.insert(0, &first) {
            for i in 1..items.len() {
                bind(frame, &mut *env.stats, &items.items()[i]);
                let Ok(atoms) = key_atoms(key_e, env, frame, ctx) else {
                    state.table = None;
                    break;
                };
                if !state.insert(i, &atoms) {
                    break;
                }
            }
        }
        if state.table.is_some() {
            env.stats.join_builds += 1;
        }
        *jstate = Some(state);
    }
    let indices = jstate
        .as_ref()
        .expect("join state built above")
        .probe(&probe_atoms);
    match indices {
        Some(matched) => {
            env.stats.join_probes += 1;
            for i in matched {
                bind(frame, &mut *env.stats, &items.items()[i]);
                flwor_tuples(
                    clauses,
                    idx + 1,
                    None,
                    order_by,
                    return_,
                    env,
                    frame,
                    ctx,
                    keyed,
                    out,
                    jstate,
                )?;
            }
        }
        None => {
            env.stats.join_fallbacks += 1;
            for item in items.iter() {
                bind(frame, &mut *env.stats, item);
                flwor_tuples(
                    clauses,
                    idx + 1,
                    where_,
                    order_by,
                    return_,
                    env,
                    frame,
                    ctx,
                    keyed,
                    out,
                    jstate,
                )?;
            }
        }
    }
    Ok(())
}

#[allow(clippy::too_many_arguments)]
fn quantified(
    quantifier: Quantifier,
    bindings: &[(u32, LExpr)],
    satisfies: &LExpr,
    idx: usize,
    env: &mut RunEnv,
    frame: &mut Frame,
    ctx: &mut DynamicContext,
) -> Result<bool> {
    if idx == bindings.len() {
        return run_ebv(satisfies, env, frame, ctx);
    }
    let (slot, seq_expr) = &bindings[idx];
    // Quantifiers are the ideal cursor consumer: `some` stops at the first
    // satisfying binding, `every` at the first failing one, and with a
    // streamed binding sequence the abandoned remainder was never built.
    if let LExpr::Path { start, steps } = seq_expr {
        if let Some(mut stream) = open_path_stream(start, steps, env, frame, ctx)? {
            while let Some(item) = stream.next(env) {
                frame.set(*slot, Sequence::singleton(item));
                let hit = quantified(quantifier, bindings, satisfies, idx + 1, env, frame, ctx)?;
                match quantifier {
                    Quantifier::Some if hit => {
                        stream.finish_early(env.stats);
                        return Ok(true);
                    }
                    Quantifier::Every if !hit => {
                        stream.finish_early(env.stats);
                        return Ok(false);
                    }
                    _ => {}
                }
            }
            return Ok(matches!(quantifier, Quantifier::Every));
        }
    }
    let items = run(seq_expr, env, frame, ctx)?;
    for item in items {
        frame.set(*slot, Sequence::singleton(item));
        let hit = quantified(quantifier, bindings, satisfies, idx + 1, env, frame, ctx)?;
        match quantifier {
            Quantifier::Some if hit => return Ok(true),
            Quantifier::Every if !hit => return Ok(false),
            _ => {}
        }
    }
    Ok(matches!(quantifier, Quantifier::Every))
}

// ----------------------------------------------------------------------
// The cursor runtime (see crate::cursor for the protocol)
// ----------------------------------------------------------------------

/// One opened path: either a live cursor (streamable steps, singleton node
/// start) or the materialised result of finishing the path generically,
/// with the position of the next item to hand out. Consumers pull from
/// both the same way; only a live cursor counts pulls and early exits.
enum PathStream<'p> {
    Cursor(PathCursor<'p>),
    Done(Sequence, usize),
}

impl PathStream<'_> {
    fn next(&mut self, env: &mut RunEnv) -> Option<Item> {
        match self {
            PathStream::Cursor(cur) => cur.next(env.store, env.stats),
            PathStream::Done(seq, next) => {
                let item = seq.items().get(*next).cloned();
                *next += 1;
                item
            }
        }
    }

    fn finish_early(&self, stats: &mut EvalStats) {
        if let PathStream::Cursor(cur) = self {
            cur.finish_early(stats);
        }
    }
}

/// Opens a path for streaming. Classification is pure, so nothing is
/// evaluated on the `None` (not streamable / `runtime_opt` off) return and the
/// caller proceeds exactly as before. Otherwise the start expression is
/// evaluated exactly once — its errors and traces are the path's own and
/// fire here, in source order — and a singleton node start yields a cursor.
/// Any other start (multiple nodes, atomics, empty) finishes on the generic
/// evaluator *from the already-evaluated start*, never re-running it, so
/// `XPTY0019` on atomic starts and multi-node dedup semantics are
/// unchanged.
fn open_path_stream<'p>(
    start: &LExpr,
    steps: &'p [LPathStep],
    env: &mut RunEnv,
    frame: &mut Frame,
    ctx: &mut DynamicContext,
) -> Result<Option<PathStream<'p>>> {
    if !env.options.runtime_opt {
        return Ok(None);
    }
    let Some(plan) = classify_steps(steps) else {
        return Ok(None);
    };
    let start_seq = run(start, env, frame, ctx)?;
    if let Some(Item::Node(n)) = start_seq.as_singleton() {
        let cursor = PathCursor::new(plan, *n, env.store, env.stats);
        return Ok(Some(PathStream::Cursor(cursor)));
    }
    let done = finish_path_from(start_seq, steps, env, frame, ctx)?;
    Ok(Some(PathStream::Done(done, 0)))
}

/// "Does this path yield anything" for `exists`/`empty`/`boolean`/`not`
/// and EBV positions: one pull off the cursor, or `None` when the path
/// does not stream. A streamable path yields only nodes, so EBV and
/// existence coincide.
fn stream_exists(
    start: &LExpr,
    steps: &[LPathStep],
    env: &mut RunEnv,
    frame: &mut Frame,
    ctx: &mut DynamicContext,
) -> Result<Option<bool>> {
    let Some(stream) = open_path_stream(start, steps, env, frame, ctx)? else {
        return Ok(None);
    };
    Ok(Some(match stream {
        PathStream::Cursor(mut cur) => {
            env.stats.streamed_existence += 1;
            let found = cur.next(env.store, env.stats).is_some();
            cur.finish_early(env.stats);
            found
        }
        PathStream::Done(seq, _) => !seq.is_empty(),
    }))
}

/// The generic materialised step loop, from an already-evaluated start.
/// Every intermediate sequence it builds is tallied in `items_allocated` —
/// the cost the cursor runtime exists to avoid.
fn finish_path_from(
    start_seq: Sequence,
    steps: &[LPathStep],
    env: &mut RunEnv,
    frame: &mut Frame,
    ctx: &mut DynamicContext,
) -> Result<Sequence> {
    let mut current = start_seq;
    for step in steps {
        if let Some((name, attributes)) = name_index_step(step) {
            env.stats.index_hits += 1;
            current = eval_name_index_step(&current, name, attributes, env.store)?;
            env.stats.items_allocated += current.len() as u64;
            continue;
        }
        if step.double_slash {
            current = expand_descendant_or_self(&current, env.store)?;
            env.stats.items_allocated += current.len() as u64;
        }
        current = map_step(&current, &step.expr, env, frame, ctx)?;
    }
    Ok(current)
}

/// `PATH = v` / `v = PATH` with a streamable path operand, or `None` for
/// the generic comparison. Existential semantics stop at the first hit, so
/// the path is pulled one item at a time and abandoned on success. Effect
/// order is the generic one: the left operand (or, for a streamed right
/// side, the whole left) is evaluated before the right, and cursor pulls
/// themselves are effect-free.
///
/// The cursor consumers below are kept out of line: their `PathStream`
/// temporaries would otherwise sit in every recursive [`run`] frame.
#[inline(never)]
fn stream_general_cmp(
    op: CmpOp,
    l: &LExpr,
    r: &LExpr,
    env: &mut RunEnv,
    frame: &mut Frame,
    ctx: &mut DynamicContext,
) -> Result<Option<bool>> {
    if let LExpr::Path { start, steps } = l {
        if let Some(stream) = open_path_stream(start, steps, env, frame, ctx)? {
            let rv = run(r, env, frame, ctx)?;
            return Ok(Some(stream_compare(stream, op, &rv, false, env)));
        }
    } else if let LExpr::Path { start, steps } = r {
        // Classify structurally *before* evaluating the left operand so
        // the fallback path still runs l-then-r.
        if classify_steps(steps).is_some() {
            let lv = run(l, env, frame, ctx)?;
            let stream = open_path_stream(start, steps, env, frame, ctx)?
                .expect("classified above and runtime_opt is on");
            return Ok(Some(stream_compare(stream, op, &lv, true, env)));
        }
    }
    Ok(None)
}

/// A bare path whose final step carries a positional predicate, drained
/// off the cursor — or `None` for the step loop. A bare path must
/// materialise its whole result anyway, so the cursor only takes over for
/// the shape where the generic evaluator expands every
/// descendant-or-self context first (thousands of nodes for a handful
/// kept). Predicate-free paths keep the name index steps of the step loop.
#[inline(never)]
fn stream_positional_path(
    start: &LExpr,
    steps: &[LPathStep],
    env: &mut RunEnv,
    frame: &mut Frame,
    ctx: &mut DynamicContext,
) -> Result<Option<Sequence>> {
    if !classify_steps(steps).is_some_and(|p| p.has_positional()) {
        return Ok(None);
    }
    let Some(stream) = open_path_stream(start, steps, env, frame, ctx)? else {
        return Ok(None);
    };
    Ok(Some(match stream {
        PathStream::Cursor(mut cur) => {
            let out = cur.materialize(env.store, env.stats);
            env.stats.items_allocated += out.len() as u64;
            out
        }
        PathStream::Done(seq, _) => seq,
    }))
}

/// Existential general comparison with one side streamed. Against an empty
/// or singleton other side the stream is pulled item by item and abandoned
/// at the first hit; against a longer side the per-pull rescan would buy
/// nothing, so the walk is drained and the hashed comparison runs.
/// `cursor_is_right` keeps the operand order straight for the asymmetric
/// operators (`<`, `>=`, …).
fn stream_compare(
    mut stream: PathStream,
    op: CmpOp,
    other: &Sequence,
    cursor_is_right: bool,
    env: &mut RunEnv,
) -> bool {
    if other.is_empty() {
        // No pair to compare: false regardless of the walk.
        stream.finish_early(env.stats);
        return false;
    }
    if other.len() == 1 {
        while let Some(item) = stream.next(env) {
            let single = Sequence::singleton(item);
            let hit = if cursor_is_right {
                general_compare(op, other, &single, env.store)
            } else {
                general_compare(op, &single, other, env.store)
            };
            if hit {
                stream.finish_early(env.stats);
                return true;
            }
        }
        return false;
    }
    let seq = match stream {
        PathStream::Done(seq, _) => seq,
        PathStream::Cursor(mut cur) => cur.materialize(env.store, env.stats),
    };
    let (l, r) = if cursor_is_right {
        (other, &seq)
    } else {
        (&seq, other)
    };
    general_compare_hashed(op, l, r, env.store)
}

/// Does global position `p` satisfy `position() OP n`? Exact integer
/// arithmetic; [`positional_predicate`] bounds `n` so this agrees with the
/// generic `f64` predicate rule at every reachable position.
fn pos_matches(op: CmpOp, p: i64, n: i64) -> bool {
    match op {
        CmpOp::Eq => p == n,
        CmpOp::Ne => p != n,
        CmpOp::Lt => p < n,
        CmpOp::Le => p <= n,
        CmpOp::Gt => p > n,
        CmpOp::Ge => p >= n,
    }
}

/// `(PATH)[position() OP n]` with the position taken over the whole path
/// result — the early-exit shape the paper's prefix queries want: pull,
/// keep the matching positions, and stop pulling as soon as no later
/// position can match (`=`, `<`, `<=`). `None` for any other filter.
#[inline(never)]
fn stream_filter_positional(
    base: &LExpr,
    predicates: &[LExpr],
    env: &mut RunEnv,
    frame: &mut Frame,
    ctx: &mut DynamicContext,
) -> Result<Option<Sequence>> {
    let (LExpr::Path { start, steps }, [p]) = (base, predicates) else {
        return Ok(None);
    };
    let Some((op, n)) = positional_predicate(p) else {
        return Ok(None);
    };
    let Some(mut stream) = open_path_stream(start, steps, env, frame, ctx)? else {
        return Ok(None);
    };
    let limit = match op {
        CmpOp::Eq | CmpOp::Le => Some(n),
        CmpOp::Lt => Some(n - 1),
        CmpOp::Ne | CmpOp::Gt | CmpOp::Ge => None,
    };
    let mut out = Sequence::empty();
    let mut p = 0i64;
    loop {
        if limit.is_some_and(|limit| p >= limit) {
            stream.finish_early(env.stats);
            break;
        }
        let Some(item) = stream.next(env) else {
            break;
        };
        p += 1;
        if pos_matches(op, p, n) {
            out.push(item);
        }
    }
    env.stats.items_allocated += out.len() as u64;
    Ok(Some(out))
}

/// Atoms of one hash-join operand (build key or probe). A streamable path
/// is atomized straight off the cursor — the node sequence the generic
/// evaluation materialises per item/tuple (BENCH_5/6's `items_allocated =
/// 1000` for a 100-tuple probe) never exists.
fn key_atoms(
    e: &LExpr,
    env: &mut RunEnv,
    frame: &mut Frame,
    ctx: &mut DynamicContext,
) -> Result<Vec<Atomic>> {
    // The hoister wraps per-tuple key paths in `CacheOnce`, but the cell
    // is cleared on every binding anyway — and a streamable path is pure,
    // so pulling atoms straight off the cursor (and leaving the cell
    // unfilled for a later reader to recompute) changes nothing
    // observable.
    let bare = match e {
        LExpr::CacheOnce { expr, .. } => expr,
        other => other,
    };
    if let LExpr::Path { start, steps } = bare {
        if let Some(mut stream) = open_path_stream(start, steps, env, frame, ctx)? {
            let mut atoms = Vec::new();
            while let Some(item) = stream.next(env) {
                atoms.push(atomize_item(&item, env.store));
            }
            return Ok(atoms);
        }
    }
    let v = run(e, env, frame, ctx)?;
    Ok(atomize(&v, env.store))
}

/// The sequence-consuming builtins the cursor runtime takes over when
/// their argument is a streamable path (and, for the windowed ones, the
/// bounds are integer literals — evaluated-argument order is unchanged
/// because literals are effect-free):
///
/// * `exists`/`empty`/`boolean`/`not` — one pull ([`stream_exists`]).
/// * `count(PATH)` — pull and discard, or a name-index window's length;
///   `count(FLWOR)` without `order by` runs the pipeline with a counting
///   sink ([`FlworOut::Count`]).
/// * `subsequence(PATH, s[, l])` — stops pulling past the window's end.
/// * `remove(PATH, n)` / `insert-before(PATH, n, SEQ)` — single-pass
///   splice, no intermediate target sequence.
///
/// Returns `None` to fall through to the generic argument evaluation.
fn stream_builtin(
    builtin: Builtin,
    args: &[LExpr],
    env: &mut RunEnv,
    frame: &mut Frame,
    ctx: &mut DynamicContext,
) -> Result<Option<Sequence>> {
    match builtin {
        Builtin::Exists | Builtin::Boolean | Builtin::Empty | Builtin::Not if args.len() == 1 => {
            let LExpr::Path { start, steps } = &args[0] else {
                return Ok(None);
            };
            let Some(found) = stream_exists(start, steps, env, frame, ctx)? else {
                return Ok(None);
            };
            let invert = matches!(builtin, Builtin::Empty | Builtin::Not);
            Ok(Some(Atomic::Bool(found != invert).into()))
        }
        Builtin::Count if args.len() == 1 => {
            if let LExpr::Path { start, steps } = &args[0] {
                if let Some(stream) = open_path_stream(start, steps, env, frame, ctx)? {
                    let n = match stream {
                        PathStream::Cursor(cur) => cur.count(env.store, env.stats),
                        PathStream::Done(seq, _) => seq.len(),
                    };
                    return Ok(Some(Atomic::Int(n as i64).into()));
                }
            }
            if let LExpr::Flwor {
                clauses,
                where_,
                order_by,
                return_,
            } = &args[0]
            {
                if order_by.is_empty() {
                    let n = run_flwor_count(clauses, where_.as_deref(), return_, env, frame, ctx)?;
                    return Ok(Some(Atomic::Int(n as i64).into()));
                }
            }
            Ok(None)
        }
        Builtin::Subsequence if args.len() >= 2 => {
            let LExpr::Path { start, steps } = &args[0] else {
                return Ok(None);
            };
            let Some(s) = int_literal(&args[1]) else {
                return Ok(None);
            };
            let len = match args.get(2) {
                None => None,
                Some(e) => match int_literal(e) {
                    Some(l) => Some(l),
                    None => return Ok(None),
                },
            };
            let Some(mut stream) = open_path_stream(start, steps, env, frame, ctx)? else {
                return Ok(None);
            };
            // Keep positions p with p >= s and, when a length is given,
            // p < s + l — the generic filter, in exact arithmetic.
            let hi = len.map(|l| s.saturating_add(l));
            let mut out = Sequence::empty();
            let mut p = 0i64;
            loop {
                if hi.is_some_and(|hi| p + 1 >= hi) {
                    stream.finish_early(env.stats);
                    break;
                }
                let Some(item) = stream.next(env) else {
                    break;
                };
                p += 1;
                if p >= s {
                    out.push(item);
                }
            }
            env.stats.items_allocated += out.len() as u64;
            Ok(Some(out))
        }
        Builtin::Remove if args.len() == 2 => {
            let LExpr::Path { start, steps } = &args[0] else {
                return Ok(None);
            };
            let Some(pos) = int_literal(&args[1]) else {
                return Ok(None);
            };
            let Some(mut stream) = open_path_stream(start, steps, env, frame, ctx)? else {
                return Ok(None);
            };
            let mut out = Sequence::empty();
            let mut p = 0i64;
            while let Some(item) = stream.next(env) {
                p += 1;
                if p != pos {
                    out.push(item);
                }
            }
            env.stats.items_allocated += out.len() as u64;
            Ok(Some(out))
        }
        Builtin::InsertBefore if args.len() == 3 => {
            let LExpr::Path { start, steps } = &args[0] else {
                return Ok(None);
            };
            let Some(pos) = int_literal(&args[1]) else {
                return Ok(None);
            };
            let Some(mut stream) = open_path_stream(start, steps, env, frame, ctx)? else {
                return Ok(None);
            };
            // Same effect order as the generic call: target first (the
            // open above), the literal position, then the inserts.
            let inserts = run(&args[2], env, frame, ctx)?;
            let inserts_len = inserts.len();
            let at = (pos.max(1) - 1) as usize;
            let mut out = Sequence::empty();
            let mut p = 0usize;
            let mut inserted = false;
            while let Some(item) = stream.next(env) {
                if p == at {
                    out.push_seq(inserts.clone());
                    inserted = true;
                }
                out.push(item);
                p += 1;
            }
            if !inserted {
                out.push_seq(inserts);
            }
            // Count only the target items: the inserts were accounted for
            // by their own evaluation, and the materialised run books just
            // the path expansion — same ledger either way.
            env.stats.items_allocated += (out.len() - inserts_len) as u64;
            Ok(Some(out))
        }
        _ => Ok(None),
    }
}

// ----------------------------------------------------------------------
// Paths, predicates
// ----------------------------------------------------------------------

fn map_step(
    current: &Sequence,
    step: &LExpr,
    env: &mut RunEnv,
    frame: &mut Frame,
    ctx: &mut DynamicContext,
) -> Result<Sequence> {
    let size = current.len();
    let mut results = Sequence::empty();
    for (i, item) in current.iter().enumerate() {
        let saved = ctx.focus.take();
        ctx.focus = Some(Focus {
            item: item.clone(),
            position: i + 1,
            size,
        });
        let r = run(step, env, frame, ctx);
        ctx.focus = saved;
        results.push_seq(r?);
    }
    env.stats.items_allocated += results.len() as u64;
    let nodes = results.iter().filter(|i| i.is_node()).count();
    if nodes == 0 {
        return Ok(results);
    }
    if nodes != results.len() {
        return Err(Error::new(
            ErrorCode::XPTY0019,
            "a path step returned a mix of nodes and atomic values",
        ));
    }
    let ids: Vec<NodeId> = results.iter().filter_map(|i| i.as_node()).collect();
    Ok(dedup_sorted(ids, env.store)
        .into_iter()
        .map(Item::Node)
        .collect())
}

/// A predicate-free `//name` or `//@name` step: the name, and whether it
/// names attributes. The per-tree name index answers such a step outright
/// — the materialised loop per context node, the cursor as one window.
pub(crate) fn name_index_step(step: &LPathStep) -> Option<(QName, bool)> {
    let LExpr::AxisStep {
        axis,
        test: LNodeTest::Name(name),
        predicates,
        ..
    } = &step.expr
    else {
        return None;
    };
    if !step.double_slash || !predicates.is_empty() {
        return None;
    }
    match axis {
        Axis::Child => Some((*name, false)),
        Axis::Attribute => Some((*name, true)),
        _ => None,
    }
}

/// Evaluates `descendant-or-self::node()/child::name` (or `attribute::name`)
/// for the whole context sequence from the name index: per context node one
/// binary-searched window instead of materialising the subtree. Raises the
/// same `XPTY0019` as [`expand_descendant_or_self`] on atomic items.
fn eval_name_index_step(
    current: &Sequence,
    name: QName,
    attributes: bool,
    store: &Store,
) -> Result<Sequence> {
    let mut out: Vec<NodeId> = Vec::new();
    for item in current.iter() {
        let n = item
            .as_node()
            .ok_or_else(|| Error::new(ErrorCode::XPTY0019, "'//' applied to an atomic value"))?;
        out.extend(store.name_span(n, &name, attributes).nodes(store));
    }
    let unique = dedup_sorted(out, store);
    Ok(unique.into_iter().map(Item::Node).collect())
}

/// The comparand may not depend on the candidate node, and evaluating it
/// once instead of per candidate must be unobservable — no calls but
/// `string(X)`/`data(X)` (hence no `fn:trace`), no constructors; path steps
/// rebind their own focus and are predicate-free.
fn is_focus_free_simple(e: &LExpr) -> bool {
    match e {
        LExpr::Literal(_) | LExpr::LocalRef(_) | LExpr::GlobalRef(..) => true,
        LExpr::Comma(es) => es.iter().all(is_focus_free_simple),
        LExpr::Path { start, steps } => is_focus_free_simple(start)
            && steps.iter().all(
                |s| matches!(&s.expr, LExpr::AxisStep { predicates, .. } if predicates.is_empty()),
            ),
        // The hoisting pass wraps only focus-free subtrees, so a cache cell
        // is as focus-free as what it caches — without this arm hoisting a
        // fused-eq comparand would silently un-fuse the step.
        LExpr::CacheOnce { expr, .. } => is_focus_free_simple(expr),
        // `string(X)` / `data(X)` are pure and read the focus only through
        // X; an error they raise (`XPTY0004` on several items) is the one
        // the first candidate's predicate would raise.
        LExpr::CallBuiltin {
            builtin: Builtin::String | Builtin::Data,
            args,
            ..
        } => matches!(args.as_slice(), [x] if is_focus_free_simple(x)),
        _ => false,
    }
}

/// `@name` with no predicates and no prefix, as one side of the fused
/// equality.
fn attr_step_name(e: &LExpr) -> Option<QName> {
    match e {
        LExpr::AxisStep {
            axis: Axis::Attribute,
            test: LNodeTest::Name(a),
            predicates,
            ..
        } if predicates.is_empty() && a.prefix_sym().is_none() => Some(*a),
        _ => None,
    }
}

/// A child step whose first predicate equates an attribute of the candidate
/// with a focus-free expression — `child[@attr = RHS]…` — answerable from
/// the store's attribute-value index when RHS atomizes to strings only.
/// Both names are unprefixed. Later predicates stay generic; the first
/// predicate never consults `position()`/`last()` (it's a comparison), so
/// skipping the per-candidate focus for it is unobservable.
pub(crate) struct FusedAttrEq<'a> {
    child: QName,
    attr: QName,
    rhs: &'a LExpr,
    rest: &'a [LExpr],
}

/// The fused `child[@attr = RHS]` index probe this axis step takes, if
/// any. [`crate::obs::explain`] calls it too, so the plan annotation
/// matches the runner's gate exactly.
pub(crate) fn fused_attr_eq_step<'a>(
    axis: Axis,
    test: &LNodeTest,
    predicates: &'a [LExpr],
) -> Option<FusedAttrEq<'a>> {
    if axis != Axis::Child {
        return None;
    }
    let LNodeTest::Name(want) = test else {
        return None;
    };
    if want.prefix_sym().is_some() {
        return None;
    }
    let (first, rest) = predicates.split_first()?;
    let LExpr::GeneralCmp(CmpOp::Eq, l, r) = first else {
        return None;
    };
    let (attr, rhs) = match (attr_step_name(l), attr_step_name(r)) {
        (Some(a), None) if is_focus_free_simple(r) => (a, &**r),
        (None, Some(a)) if is_focus_free_simple(l) => (a, &**l),
        _ => return None,
    };
    Some(FusedAttrEq {
        child: *want,
        attr,
        rhs,
        rest,
    })
}

/// Does `node` have at least one child element named `name`? The generic
/// step evaluates predicates only when the name test admits a candidate, so
/// the fused path must not touch the predicate's RHS before establishing
/// the same — this check is that gate, allocation- and evaluation-free.
fn has_child_element_named(store: &Store, node: NodeId, name: &QName) -> bool {
    store
        .children(node)
        .iter()
        .any(|&c| matches!(store.kind(c), NodeKind::Element(q) if q == name))
}

/// The index-backed half of the fused `child[@attr = RHS]` step: `rhs` is
/// the predicate's already-evaluated comparand. Returns `None` — caller
/// falls back to the generic scan — unless every atom of `rhs` is a string
/// or untyped value, the one case where the engine's general `=` degenerates
/// to exact string equality and an exact-value probe is sound. Owners found
/// through the local-name-keyed index are re-verified against the full
/// attribute `QName` and value (an element may carry `x:id` next to `id`,
/// and Galax-quirks construction allows duplicate attribute names).
fn fused_attr_eq_candidates(
    node: NodeId,
    fused: &FusedAttrEq,
    rhs: &Sequence,
    store: &Store,
) -> Option<Vec<NodeId>> {
    let atoms = atomize(rhs, store);
    let mut values: Vec<&str> = Vec::with_capacity(atoms.len());
    for a in &atoms {
        match a {
            Atomic::Str(s) | Atomic::Untyped(s) => values.push(s),
            // Numeric or boolean comparand: `=` casts the untyped attribute
            // instead of comparing strings, so the index can't answer it.
            _ => return None,
        }
    }
    let mut matched = Vec::new();
    for v in &values {
        for owner in store.elements_with_attr_value(node, fused.attr.local_sym(), v) {
            let verified = store.parent(owner) == Some(node)
                && matches!(store.kind(owner), NodeKind::Element(q) if *q == fused.child)
                && store.attributes(owner).iter().any(|&a| {
                    matches!(store.kind(a), NodeKind::Attribute(q, val) if *q == fused.attr && **val == **v)
                });
            if verified {
                matched.push(owner);
            }
        }
    }
    // Children of one node: document order is sibling order, and repeated
    // RHS values can surface an owner twice.
    Some(dedup_sorted(matched, store))
}

/// The lowered node test: names were parsed to `QName`s at compile time, so
/// matching is symbol equality, never a string render.
pub(crate) fn node_test_matches(test: &LNodeTest, axis: Axis, node: NodeId, store: &Store) -> bool {
    let kind = store.kind(node);
    match test {
        LNodeTest::AnyKind => true,
        LNodeTest::Text => matches!(kind, NodeKind::Text(_)),
        LNodeTest::Comment => matches!(kind, NodeKind::Comment(_)),
        LNodeTest::Pi => matches!(kind, NodeKind::Pi(..)),
        LNodeTest::Document => matches!(kind, NodeKind::Document),
        LNodeTest::Element(name) => match kind {
            NodeKind::Element(q) => match name {
                None => true,
                Some(want) => q == want,
            },
            _ => false,
        },
        LNodeTest::AttributeTest(name) => match kind {
            NodeKind::Attribute(q, _) => match name {
                None => true,
                Some(want) => q == want,
            },
            _ => false,
        },
        LNodeTest::AnyName => {
            if axis == Axis::Attribute {
                matches!(kind, NodeKind::Attribute(..))
            } else {
                matches!(kind, NodeKind::Element(_))
            }
        }
        LNodeTest::Name(want) => {
            if axis == Axis::Attribute {
                matches!(kind, NodeKind::Attribute(q, _) if q == want)
            } else {
                matches!(kind, NodeKind::Element(q) if q == want)
            }
        }
    }
}

fn apply_predicates_nodes(
    nodes: Vec<NodeId>,
    predicates: &[LExpr],
    env: &mut RunEnv,
    frame: &mut Frame,
    ctx: &mut DynamicContext,
) -> Result<Vec<NodeId>> {
    let mut current = nodes;
    for pred in predicates {
        // A literal integer predicate is pure position selection
        // (`predicate_outcome` keeps exactly the item whose position equals
        // the number; literals cannot raise or trace), so pick directly
        // instead of evaluating the predicate once per item.
        if env.options.runtime_opt {
            if let LExpr::Literal(Atomic::Int(n)) = pred {
                current = match usize::try_from(*n) {
                    Ok(n) if (1..=current.len()).contains(&n) => vec![current[n - 1]],
                    _ => Vec::new(),
                };
                continue;
            }
        }
        let size = current.len();
        let mut kept = Vec::with_capacity(current.len());
        for (i, &n) in current.iter().enumerate() {
            if predicate_holds(pred, Item::Node(n), i + 1, size, env, frame, ctx)? {
                kept.push(n);
            }
        }
        current = kept;
    }
    Ok(current)
}

/// The suffix filter of a keyed [`LExpr::SplitPath`]: `seq` is the cached
/// prefix, and `suffix[0]` is `K = V` with K on `key.side`. The first read
/// of a cached sequence builds a [`JoinState`] over it from K's atoms per
/// item; every read evaluates V once, probes, and applies the remaining
/// predicates to the matched items in prefix order. The suffix is never
/// positional, so that keeps exactly what the generic filter keeps.
///
/// The generic filter runs instead when the table cannot decide: a prefix
/// item is not a node, K raised for some item at build time (an error the
/// generic filter then raises in order), or a K or V atom falls outside the
/// string family. An empty prefix returns empty without evaluating V.
fn keyed_filter(
    seq: Sequence,
    key: SplitKey,
    suffix: &[LExpr],
    env: &mut RunEnv,
    frame: &mut Frame,
    ctx: &mut DynamicContext,
) -> Result<Sequence> {
    if seq.is_empty() {
        return Ok(seq);
    }
    let LExpr::GeneralCmp(CmpOp::Eq, l, r) = &suffix[0] else {
        unreachable!("keyed splits start with an `=` comparison");
    };
    let (key_e, probe_e) = match key.side {
        JoinSide::Left => (&**l, &**r),
        JoinSide::Right => (&**r, &**l),
    };
    let at = frame.keyed.iter().position(|(t, _)| *t == key.table);
    if !at.is_some_and(|i| frame.keyed[i].1.seq.same_alloc(&seq)) {
        let state = build_key_table(seq.clone(), key_e, env, frame, ctx);
        match at {
            Some(i) => frame.keyed[i].1 = state,
            None => frame.keyed.push((key.table, state)),
        }
    }
    let probe = key_atoms(probe_e, env, frame, ctx)?;
    let (_, state) = frame
        .keyed
        .iter()
        .find(|(t, _)| *t == key.table)
        .expect("key table built above");
    let Some(matched) = state.probe(&probe) else {
        return apply_predicates_items(seq, suffix, env, frame, ctx);
    };
    env.reuse.keyed_split_probes += 1;
    let items = matched
        .into_iter()
        .map(|i| seq.items()[i].clone())
        .collect();
    apply_predicates_items(Sequence::from_items(items), &suffix[1..], env, frame, ctx)
}

/// A key table over `seq` from `key_e`'s atoms, each evaluated with one
/// item in focus — abandoned (left without a table) at the first item that
/// is not a node or whose key raises.
fn build_key_table(
    seq: Sequence,
    key_e: &LExpr,
    env: &mut RunEnv,
    frame: &mut Frame,
    ctx: &mut DynamicContext,
) -> JoinState {
    let mut state = JoinState::new(seq.clone());
    let size = seq.len();
    for (i, item) in seq.iter().enumerate() {
        if !item.is_node() {
            state.table = None;
            break;
        }
        let saved = ctx.focus.replace(Focus {
            item: item.clone(),
            position: i + 1,
            size,
        });
        let atoms = key_atoms(key_e, env, frame, ctx);
        ctx.focus = saved;
        let Ok(atoms) = atoms else {
            state.table = None;
            break;
        };
        if !state.insert(i, &atoms) {
            break;
        }
    }
    state
}

fn apply_predicates_items(
    seq: Sequence,
    predicates: &[LExpr],
    env: &mut RunEnv,
    frame: &mut Frame,
    ctx: &mut DynamicContext,
) -> Result<Sequence> {
    let mut current = seq.into_items();
    for pred in predicates {
        if env.options.runtime_opt {
            if let LExpr::Literal(Atomic::Int(n)) = pred {
                current = match usize::try_from(*n) {
                    Ok(n) if (1..=current.len()).contains(&n) => vec![current[n - 1].clone()],
                    _ => Vec::new(),
                };
                continue;
            }
        }
        let size = current.len();
        let mut kept = Vec::with_capacity(current.len());
        for (i, item) in current.into_iter().enumerate() {
            if predicate_holds(pred, item.clone(), i + 1, size, env, frame, ctx)? {
                kept.push(item);
            }
        }
        current = kept;
    }
    Ok(Sequence::from_items(current))
}

#[allow(clippy::too_many_arguments)]
fn predicate_holds(
    pred: &LExpr,
    item: Item,
    position: usize,
    size: usize,
    env: &mut RunEnv,
    frame: &mut Frame,
    ctx: &mut DynamicContext,
) -> Result<bool> {
    let saved = ctx.focus.take();
    ctx.focus = Some(Focus {
        item,
        position,
        size,
    });
    let result = run(pred, env, frame, ctx);
    ctx.focus = saved;
    let value = result?;
    predicate_outcome(&value, position, env.store)
}

// ----------------------------------------------------------------------
// Function calls
// ----------------------------------------------------------------------

/// The frame of a call of `func`: its arguments evaluated in order into
/// the parameter slots of a pooled frame.
fn bind_args(
    func: &CompiledFunction,
    args: &[LExpr],
    env: &mut RunEnv,
    frame: &mut Frame,
    ctx: &mut DynamicContext,
) -> Result<Frame> {
    let mut inner = Frame::pooled(&mut env.frames, func.frame);
    for (i, a) in args.iter().enumerate() {
        match run(a, env, frame, ctx) {
            Ok(value) => inner.set(i as u32, value),
            Err(e) => {
                inner.recycle(&mut env.frames);
                return Err(e);
            }
        }
    }
    Ok(inner)
}

/// A call of a pure function, answered from the evaluation's [`Memo`]
/// when an earlier call with the same arguments succeeded and would not
/// reach `recursion_limit` from this depth; otherwise run and, on success,
/// remembered with the depth it nested to.
fn call_pure(
    index: u32,
    func: &CompiledFunction,
    inner: Frame,
    position: (u32, u32),
    env: &mut RunEnv,
) -> Result<Sequence> {
    let Some(key) = MemoKey::of(index, &inner.slots[..func.params.len()]) else {
        return call_user(func, inner, position, env);
    };
    if let Some((value, nested)) = env.memo.table.get(&key) {
        if env.depth + nested < env.options.recursion_limit {
            env.reuse.memo_hits += 1;
            env.memo.peak = env.memo.peak.max(env.depth + nested);
            let value = value.clone();
            inner.recycle(&mut env.frames);
            return Ok(value);
        }
    }
    let outer_peak = std::mem::replace(&mut env.memo.peak, env.depth);
    let result = call_user(func, inner, position, env);
    let nested = env.memo.peak - env.depth;
    env.memo.peak = env.memo.peak.max(outer_peak);
    if let Ok(value) = &result {
        if env.memo.table.len() < MEMO_CAP {
            env.memo.table.insert(key, (value.clone(), nested));
        }
    }
    result
}

fn call_user(
    func: &CompiledFunction,
    inner: Frame,
    position: (u32, u32),
    env: &mut RunEnv,
) -> Result<Sequence> {
    let value = call_with(func, inner, position, env, |env, frame, ctx| {
        run(&func.body, env, frame, ctx)
    })?;
    if let Some(ty) = &func.return_type {
        ty.check(&value, env.store, &format!("result of {}", func.name))?;
    }
    Ok(value)
}

/// What every user-function call does around its body: the recursion
/// limit, the parameter type checks, and `env.depth` one deeper while
/// `body` runs on `inner`, the frame holding the arguments (see
/// [`bind_args`]), which goes back to the pool after. A call in push mode
/// (see [`run_content`]) passes a body that pushes; [`call_user`] one that
/// returns the value and then checks it against the declared return type.
fn call_with<'a, T>(
    func: &CompiledFunction,
    mut inner: Frame,
    position: (u32, u32),
    env: &mut RunEnv<'a>,
    body: impl FnOnce(&mut RunEnv<'a>, &mut Frame, &mut DynamicContext) -> Result<T>,
) -> Result<T> {
    env.memo.peak = env.memo.peak.max(env.depth);
    let result = match check_call(func, &inner, position, env) {
        // Closure-free frames: the function body sees exactly its
        // parameters (slots 0..arity) plus the globals, never the caller's
        // slots or focus.
        Ok(()) => {
            let mut inner_ctx = DynamicContext::new();
            env.depth += 1;
            let result = body(env, &mut inner, &mut inner_ctx);
            env.depth -= 1;
            result
        }
        Err(e) => Err(e),
    };
    inner.recycle(&mut env.frames);
    result
}

/// The checks before a call's body runs: the recursion limit, then each
/// declared parameter type against its argument.
#[inline(never)]
fn check_call(
    func: &CompiledFunction,
    inner: &Frame,
    position: (u32, u32),
    env: &RunEnv,
) -> Result<()> {
    if env.depth >= env.options.recursion_limit {
        return Err(Error::new(
            ErrorCode::Internal,
            format!(
                "recursion limit of {} exceeded",
                env.options.recursion_limit
            ),
        )
        .at(position.0, position.1));
    }
    for (i, param) in func.params.iter().enumerate() {
        if let Some(ty) = &param.ty {
            let arg = inner.get(i as u32).expect("arguments are bound");
            ty.check(
                arg,
                env.store,
                &format!("argument ${} of {}", param.name, func.name),
            )?;
        }
    }
    Ok(())
}

// ----------------------------------------------------------------------
// Constructors
// ----------------------------------------------------------------------

/// Resolves a (possibly computed) constructor name to a `QName`. Literal
/// names were resolved at lowering time.
///
/// `element {name($n)} {…}`, the copy idiom, takes the name of `$n`'s node
/// as it is, where the general rule would render it with `fn:name` and
/// parse the text back. The argument is evaluated once either way: any
/// other value of it goes through `fn:name`, so its errors and result are
/// the builtin's.
#[inline(never)]
fn constructor_qname(
    name: &LConstructorName,
    env: &mut RunEnv,
    frame: &mut Frame,
    ctx: &mut DynamicContext,
    position: (u32, u32),
) -> Result<QName> {
    let e = match name {
        LConstructorName::Literal(q) => return Ok(*q),
        LConstructorName::Computed(e) => e,
    };
    let seq = match &**e {
        LExpr::CallBuiltin {
            builtin: Builtin::Name,
            args,
            position: call,
        } if args.len() == 1 => {
            let mut arg = [run(&args[0], env, frame, ctx)?];
            if let Some(Item::Node(n)) = arg[0].as_singleton() {
                if let Some(q) = env.store.name(*n).filter(|q| reparses_to_itself(q)) {
                    return Ok(*q);
                }
            }
            dispatch(Builtin::Name, &mut arg, *call, env, ctx)?
        }
        e => run(e, env, frame, ctx)?,
    };
    let Some(item) = seq.as_singleton() else {
        return Err(Error::new(
            ErrorCode::XPTY0004,
            "a computed constructor name must be a single value",
        )
        .at(position.0, position.1));
    };
    let text = atomize_item(item, env.store).to_text();
    if text.is_empty() {
        return Err(
            Error::new(ErrorCode::FORG0001, "empty constructor name").at(position.0, position.1)
        );
    }
    Ok(QName::from(text.as_str()))
}

/// Whether `QName::from(&q.to_string())` is `q`: both parts are non-empty
/// and hold no colon.
fn reparses_to_itself(q: &QName) -> bool {
    let part = |s: &str| !s.is_empty() && !s.contains(':');
    part(q.local()) && q.prefix().is_none_or(part)
}

/// Builds the element of a direct or computed element constructor.
fn construct_element(
    expr: &LExpr,
    env: &mut RunEnv,
    frame: &mut Frame,
    ctx: &mut DynamicContext,
) -> Result<NodeId> {
    match expr {
        LExpr::DirectElement {
            name,
            attrs,
            content,
            position,
        } => {
            let el = env.store.create_element(*name).map_err(internal)?;
            let mut builder = ContentBuilder::new(el, *position, env.options.dup_attr_policy);
            direct_attributes(attrs, &mut builder, env, frame, ctx)?;
            for part in content {
                match part {
                    LContentPart::Literal(t) => builder.push_text(t.clone(), env.store)?,
                    LContentPart::Enclosed(e) | LContentPart::Node(e) => {
                        enclosed(e, &mut builder, env, frame, ctx)?
                    }
                }
            }
            builder.finish(env.store)?;
            Ok(el)
        }
        LExpr::CompElement {
            name,
            content,
            position,
        } => {
            let name = constructor_qname(name, env, frame, ctx, *position)?;
            let el = env.store.create_element(name).map_err(internal)?;
            let mut builder = ContentBuilder::new(el, *position, env.options.dup_attr_policy);
            if let Some(content) = content {
                enclosed(content, &mut builder, env, frame, ctx)?;
            }
            builder.finish(env.store)?;
            Ok(el)
        }
        _ => Err(Error::internal("construct_element on a non-element")),
    }
}

/// The attributes of a direct element constructor, each value's parts
/// evaluated in order and joined.
#[inline(never)]
fn direct_attributes(
    attrs: &[(QName, Vec<LAttrPart>)],
    builder: &mut ContentBuilder,
    env: &mut RunEnv,
    frame: &mut Frame,
    ctx: &mut DynamicContext,
) -> Result<()> {
    for (aname, parts) in attrs {
        let mut value = String::new();
        for part in parts {
            match part {
                LAttrPart::Literal(t) => value.push_str(t),
                LAttrPart::Enclosed(e) => {
                    let seq = run(e, env, frame, ctx)?;
                    value.push_str(&join_atomized(&seq, env.store));
                }
            }
        }
        let attr = env
            .store
            .create_attribute(*aname, value)
            .map_err(internal)?;
        builder.add_attribute(attr, env.store)?;
    }
    Ok(())
}

/// One enclosed expression of an element's content: in push mode with
/// the runtime passes on, else evaluated whole and copied in.
fn enclosed(
    e: &LExpr,
    builder: &mut ContentBuilder,
    env: &mut RunEnv,
    frame: &mut Frame,
    ctx: &mut DynamicContext,
) -> Result<()> {
    if env.options.runtime_opt {
        run_content(e, builder, env, frame, ctx)?;
        builder.end_enclosed(env.store)
    } else {
        let seq = run(e, env, frame, ctx)?;
        builder.push_sequence(seq, env.store)
    }
}

/// Evaluates constructor content in *push mode*: its items go straight
/// into `builder`, the enclosing element's. Sequences, `if` branches, a
/// FLWOR's `return` (see [`flwor_pushes`]) and the body of a call (see
/// [`call_pushes`]) pass push mode down; a node constructor reached
/// through them builds its node directly under the enclosing element,
/// because nothing else can refer to it. Anything else is evaluated with
/// [`run`] and its nodes copied, as a variable, a path or a memo hit may
/// return nodes that live elsewhere too.
///
/// Evaluation order, errors and traces are those of [`run`]: items reach
/// the builder in the order `run` would have produced them, and the
/// builder holds a folding error until the caller ends the enclosed
/// expression (see [`ContentBuilder`]).
fn run_content(
    expr: &LExpr,
    builder: &mut ContentBuilder,
    env: &mut RunEnv,
    frame: &mut Frame,
    ctx: &mut DynamicContext,
) -> Result<()> {
    match expr {
        LExpr::Comma(parts) => {
            for p in parts {
                run_content(p, builder, env, frame, ctx)?;
            }
            Ok(())
        }
        LExpr::If(c, t, e) => {
            let branch = if run_ebv(c, env, frame, ctx)? { t } else { e };
            run_content(branch, builder, env, frame, ctx)
        }
        LExpr::Flwor {
            clauses, order_by, ..
        } if flwor_pushes(clauses, order_by) => push_flwor(expr, builder, env, frame, ctx),
        LExpr::CallUser { index, .. } if call_pushes(&env.program.functions[*index as usize]) => {
            push_call(expr, builder, env, frame, ctx)
        }
        LExpr::DirectElement { .. } | LExpr::CompElement { .. } => {
            let el = construct_element(expr, env, frame, ctx)?;
            env.reuse.pushed_nodes += 1;
            builder.push_built(el, env.store)
        }
        _ => push_value(expr, builder, env, frame, ctx),
    }
}

/// A pushing FLWOR (see [`flwor_pushes`]): its tuples push their `return`.
#[inline(never)]
fn push_flwor(
    expr: &LExpr,
    builder: &mut ContentBuilder,
    env: &mut RunEnv,
    frame: &mut Frame,
    ctx: &mut DynamicContext,
) -> Result<()> {
    let LExpr::Flwor {
        clauses,
        where_,
        order_by,
        return_,
    } = expr
    else {
        unreachable!("push_flwor on a non-FLWOR");
    };
    flwor_tuples(
        clauses,
        0,
        where_.as_deref(),
        order_by,
        return_,
        env,
        frame,
        ctx,
        &mut Vec::new(),
        &mut FlworOut::Push(builder),
        &mut None,
    )
}

/// A pushing call (see [`call_pushes`]): its body runs in push mode.
#[inline(never)]
fn push_call(
    expr: &LExpr,
    builder: &mut ContentBuilder,
    env: &mut RunEnv,
    frame: &mut Frame,
    ctx: &mut DynamicContext,
) -> Result<()> {
    let LExpr::CallUser {
        index,
        args,
        position,
    } = expr
    else {
        unreachable!("push_call on a non-call");
    };
    let func = &env.program.functions[*index as usize];
    let inner = bind_args(func, args, env, frame, ctx)?;
    call_with(func, inner, *position, env, |env, frame, ctx| {
        run_content(&func.body, builder, env, frame, ctx)
    })
}

/// Content that does not pass push mode down: a `text {}` constructor
/// pushes its text without building the node; anything else is evaluated
/// and its items pushed, nodes copied.
#[inline(never)]
fn push_value(
    expr: &LExpr,
    builder: &mut ContentBuilder,
    env: &mut RunEnv,
    frame: &mut Frame,
    ctx: &mut DynamicContext,
) -> Result<()> {
    if let LExpr::CompText(e) = expr {
        let seq = run(e, env, frame, ctx)?;
        if seq.is_empty() {
            return Ok(());
        }
        env.reuse.pushed_nodes += 1;
        let text = join_atomized(&seq, env.store);
        return builder.push_text(text, env.store);
    }
    let seq = run(expr, env, frame, ctx)?;
    builder.push_items(seq, env.store)
}

/// Whether a FLWOR passes push mode to its `return`: not when it sorts
/// (`order by` needs every tuple's value first) nor when its last `for`
/// may run as a hash join.
pub(crate) fn flwor_pushes(clauses: &[LFlworClause], order_by: &[LOrderSpec]) -> bool {
    order_by.is_empty()
        && !clauses
            .iter()
            .any(|c| matches!(c, LFlworClause::For { join: Some(_), .. }))
}

/// Whether a call passes push mode to the function's body: not for a pure
/// function (it constructs nothing, and its calls may be answered from
/// the memo) nor for one whose result is checked against a declared type.
pub(crate) fn call_pushes(func: &CompiledFunction) -> bool {
    !func.pure && func.return_type.is_none()
}
