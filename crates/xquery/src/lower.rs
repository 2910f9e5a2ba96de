//! Lowering: compiling a parsed (and optimized) [`Module`] into a
//! [`Program`] the slot-based runner executes.
//!
//! The tree-walking evaluator re-resolves everything at every visit: variable
//! references scan a name stack, function calls re-match strings, node tests
//! re-render `QName`s to text. Lowering does all of that resolution **once**,
//! at compile time:
//!
//! * every local variable reference becomes a pre-resolved frame-slot index
//!   (shadowing is resolved statically, de Bruijn style),
//! * every user-function call becomes an index into a dense
//!   [`Vec<CompiledFunction>`],
//! * every builtin call becomes a [`Builtin`] enum value (direct dispatch),
//! * every name — element tags, attribute names, node tests, globals — is an
//!   interned [`Sym`]/[`QName`], so runtime comparisons are integer compares.
//!
//! Lowering runs **after** the optimizer, so the quirks-mode trace-DCE
//! experiment (E4) sees exactly the tree it always saw; the lowered form is
//! a faithful translation of the optimizer's output, never a second
//! optimizer. Unbound variables are *not* compile errors: the tree-walker
//! only fails when a reference is actually evaluated, so a reference that
//! does not resolve to a local slot lowers to a runtime global lookup that
//! reproduces the walker's error (Galax-flavoured or standard) on miss.

use crate::ast::*;
use crate::error::{Error, ErrorCode, Result};
use crate::functions::{lookup_builtin, Builtin};
use crate::types::SeqType;
use crate::value::Atomic;
use std::collections::HashMap;
use xmlstore::{intern, QName, Sym};

// ----------------------------------------------------------------------
// The lowered program form
// ----------------------------------------------------------------------

/// A whole lowered module: dense function table, globals in declaration
/// order, and the body. Each executable body records the frame size its
/// slots were allocated against.
#[derive(Debug, Clone)]
pub struct Program {
    pub functions: Vec<CompiledFunction>,
    pub globals: Vec<CompiledGlobal>,
    pub body: LExpr,
    /// Number of slots the main body needs.
    pub body_frame: usize,
    /// Which thread [`crate::Engine::evaluate`] runs this plan on, decided
    /// here from the lowered shape and left alone by [`crate::lopt`], so
    /// both `runtime_opt` values route a query the same way.
    pub route: Route,
}

/// Nesting levels, counted through calls, up to which a plan with no
/// recursive function runs on the caller's thread. In a debug build, nine
/// query shapes nested this deep needed 319–958 KiB of stack (about 30 KiB
/// per `for` level): well inside std's default 2 MiB thread stack.
pub const INLINE_DEPTH: usize = 32;

/// Where a plan runs. Document depth plays no part: every builtin and store
/// walk over a tree uses an explicit work stack.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Route {
    /// On the caller's thread: no reachable user function is on a call
    /// cycle, and the plan nests `depth` ≤ [`INLINE_DEPTH`] levels.
    Inline { depth: usize },
    /// On a big-stack pool worker, because this reachable function is on a
    /// call cycle.
    Recursive(Sym),
    /// On a big-stack pool worker, because the plan nests this many levels.
    Deep(usize),
}

impl std::fmt::Display for Route {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Route::Inline { depth } => write!(f, "inline (nests {depth} of {INLINE_DEPTH} levels)"),
            Route::Recursive(name) => write!(f, "pool ({name} recurses)"),
            Route::Deep(depth) => write!(f, "pool (nests {depth} levels, over {INLINE_DEPTH})"),
        }
    }
}

/// Routes a program by its body and global initializers (`roots`): to the
/// pool at the first reachable function on a call cycle; otherwise by the
/// longest nesting path through the roots and the now acyclic call graph.
fn route(functions: &[CompiledFunction], roots: &[&LExpr]) -> Route {
    let mut visits = vec![Visit::New; functions.len()];
    let mut depth = 0;
    for root in roots {
        match nesting(root, functions, &mut visits) {
            Ok(d) => depth = depth.max(d),
            Err(f) => return Route::Recursive(functions[f].name),
        }
    }
    if depth <= INLINE_DEPTH {
        Route::Inline { depth }
    } else {
        Route::Deep(depth)
    }
}

/// A function's state in the [`route`] walk.
#[derive(Clone, Copy)]
enum Visit {
    New,
    Open,
    Done(usize),
}

/// `e`'s nesting depth counted through the functions it calls, or the
/// index of a function met again while still open: one on a call cycle.
fn nesting(
    e: &LExpr,
    functions: &[CompiledFunction],
    visits: &mut [Visit],
) -> std::result::Result<usize, usize> {
    let mut deepest = 0;
    if let LExpr::CallUser { index, .. } = e {
        let i = *index as usize;
        deepest = match visits[i] {
            Visit::Done(d) => d,
            Visit::Open => return Err(i),
            Visit::New => {
                visits[i] = Visit::Open;
                let d = nesting(&functions[i].body, functions, visits)?;
                visits[i] = Visit::Done(d);
                d
            }
        };
    }
    let mut result = Ok(deepest);
    e.for_each_child(&mut |c| {
        result = result.and_then(|d| Ok(d.max(nesting(c, functions, visits)?)));
    });
    result.map(|d| d + 1)
}

/// One user-declared function, body lowered against its own frame. Functions
/// are closure-free: the frame starts with the parameters and captures
/// nothing else.
#[derive(Debug, Clone)]
pub struct CompiledFunction {
    pub name: Sym,
    pub params: Vec<CompiledParam>,
    pub return_type: Option<SeqType>,
    pub body: LExpr,
    /// Number of slots the body needs (parameters included, slots 0..arity).
    pub frame: usize,
    pub position: (u32, u32),
    /// Set by [`crate::lopt`] when the function is pure (see its
    /// `Purity`): the runner may then answer a call whose arguments are
    /// each empty or one item from a per-evaluation memo. The lowerer
    /// leaves it `false`, so with the runtime passes off nothing is
    /// memoized.
    pub pure: bool,
}

/// One function parameter (name kept for diagnostics only — references are
/// slots).
#[derive(Debug, Clone)]
pub struct CompiledParam {
    pub name: Sym,
    pub ty: Option<SeqType>,
}

/// One `declare variable` — evaluated at query start, in order, each seeing
/// the previous ones through the global map.
#[derive(Debug, Clone)]
pub struct CompiledGlobal {
    pub name: Sym,
    pub ty: Option<SeqType>,
    pub expr: LExpr,
    /// Slots the initializer expression needs.
    pub frame: usize,
}

/// A lowered expression. Mirrors [`Expr`] shape-for-shape, with all names
/// resolved (see the module docs).
#[derive(Debug, Clone, PartialEq)]
pub enum LExpr {
    Literal(Atomic),
    /// A statically resolved local: read this frame slot.
    LocalRef(u32),
    /// A reference that is not a local in scope: look it up in the global
    /// map at runtime, failing exactly like the tree-walker if absent.
    GlobalRef(Sym, (u32, u32)),
    ContextItem((u32, u32)),
    Comma(Vec<LExpr>),
    Range(Box<LExpr>, Box<LExpr>),
    Arith(ArithOp, Box<LExpr>, Box<LExpr>),
    Neg(Box<LExpr>),
    GeneralCmp(CmpOp, Box<LExpr>, Box<LExpr>),
    ValueCmp(CmpOp, Box<LExpr>, Box<LExpr>),
    NodeCmp(NodeCmpOp, Box<LExpr>, Box<LExpr>),
    SetExpr(SetOp, Box<LExpr>, Box<LExpr>),
    And(Box<LExpr>, Box<LExpr>),
    Or(Box<LExpr>, Box<LExpr>),
    If(Box<LExpr>, Box<LExpr>, Box<LExpr>),
    Flwor {
        clauses: Vec<LFlworClause>,
        where_: Option<Box<LExpr>>,
        order_by: Vec<LOrderSpec>,
        return_: Box<LExpr>,
    },
    Quantified {
        quantifier: Quantifier,
        bindings: Vec<(u32, LExpr)>,
        satisfies: Box<LExpr>,
    },
    Root((u32, u32)),
    AxisStep {
        axis: Axis,
        test: LNodeTest,
        predicates: Vec<LExpr>,
        position: (u32, u32),
    },
    Path {
        start: Box<LExpr>,
        steps: Vec<LPathStep>,
    },
    Filter(Box<LExpr>, Vec<LExpr>),
    /// A builtin, resolved to its enum at compile time.
    CallBuiltin {
        builtin: Builtin,
        args: Vec<LExpr>,
        position: (u32, u32),
    },
    /// A user function, resolved to its index in [`Program::functions`].
    CallUser {
        index: u32,
        args: Vec<LExpr>,
        position: (u32, u32),
    },
    /// A call that resolves to nothing. The tree-walker evaluates the
    /// arguments *before* discovering that, so this is a runtime error node,
    /// not a compile error.
    CallUnknown {
        name: Sym,
        args: Vec<LExpr>,
        position: (u32, u32),
    },
    DirectElement {
        name: QName,
        attrs: Vec<(QName, Vec<LAttrPart>)>,
        content: Vec<LContentPart>,
        position: (u32, u32),
    },
    CompElement {
        name: LConstructorName,
        content: Option<Box<LExpr>>,
        position: (u32, u32),
    },
    CompAttribute {
        name: LConstructorName,
        value: Option<Box<LExpr>>,
        position: (u32, u32),
    },
    CompText(Box<LExpr>),
    CompComment(Box<LExpr>),
    CompDocument {
        content: Box<LExpr>,
        position: (u32, u32),
    },
    TryCatch {
        try_: Box<LExpr>,
        var: Option<u32>,
        catch: Box<LExpr>,
    },
    TypeSwitch {
        operand: Box<LExpr>,
        cases: Vec<LTypeCase>,
        default_var: Option<u32>,
        default: Box<LExpr>,
    },
    InstanceOf(Box<LExpr>, SeqType),
    CastAs(Box<LExpr>, SeqType, (u32, u32)),
    CastableAs(Box<LExpr>, SeqType),
    /// Lazy memoization cell, introduced only by the lowered-plan pass
    /// ([`crate::lopt`]) — the lowerer never emits it. On first evaluation
    /// the inner expression runs and the result is stored in `slot` (a
    /// synthetic slot past the source program's locals); subsequent
    /// evaluations return the stored sequence until an enclosing `for`
    /// clause clears the slot (see [`LFlworClause::For::reset_entry`] /
    /// `reset_iter`). Because evaluation stays lazy — on first *read*, in
    /// source position — a hoisted expression that raises still raises at
    /// exactly the moment the unhoisted program would.
    CacheOnce {
        slot: u32,
        expr: Box<LExpr>,
    },
    /// A path split at its loop-invariant predicate prefix, introduced only
    /// by [`crate::lopt`]: `start/step[p1..pk][pk+1..pn]` runs as `suffix`
    /// (`pk+1..pn`) filtering `prefix`, a [`LExpr::CacheOnce`] cell holding
    /// `start/step[p1..pk]`. The suffix predicates are pure, statically
    /// boolean, and never ask for `position()`/`last()`, so filtering the
    /// whole cached sequence keeps exactly the nodes the per-context step
    /// would. If the split form raises, `unsplit` — the original path —
    /// runs instead and its outcome is returned: both halves are pure, so
    /// the re-run shows only as time, and error codes and positions stay
    /// those of the unhoisted program.
    ///
    /// `key` is set when the first suffix predicate is `K = V` with K
    /// reading only the candidate (`@a`, `string(@a)`) and V focus-free
    /// (see `lopt::split_key`): the runner then answers that predicate
    /// from a hash table over the cached prefix, keyed by K's string atoms
    /// and probed with V's.
    SplitPath {
        prefix: Box<LExpr>,
        suffix: Vec<LExpr>,
        key: Option<SplitKey>,
        unsplit: Box<LExpr>,
    },
}

impl LExpr {
    child_walks!(|node, f| match node {
        LExpr::Literal(_)
        | LExpr::LocalRef(_)
        | LExpr::GlobalRef(..)
        | LExpr::ContextItem(_)
        | LExpr::Root(_) => {}
        LExpr::Comma(parts) => {
            for p in parts {
                f(p);
            }
        }
        LExpr::Range(a, b)
        | LExpr::Arith(_, a, b)
        | LExpr::GeneralCmp(_, a, b)
        | LExpr::ValueCmp(_, a, b)
        | LExpr::NodeCmp(_, a, b)
        | LExpr::SetExpr(_, a, b)
        | LExpr::And(a, b)
        | LExpr::Or(a, b) => {
            f(a);
            f(b);
        }
        LExpr::Neg(a)
        | LExpr::CompText(a)
        | LExpr::CompComment(a)
        | LExpr::CompDocument { content: a, .. }
        | LExpr::InstanceOf(a, _)
        | LExpr::CastAs(a, _, _)
        | LExpr::CastableAs(a, _)
        | LExpr::CacheOnce { expr: a, .. } => f(a),
        LExpr::If(c, t, e) => {
            f(c);
            f(t);
            f(e);
        }
        LExpr::Flwor {
            clauses,
            where_,
            order_by,
            return_,
        } => {
            for clause in clauses {
                match clause {
                    LFlworClause::For { seq, .. } => f(seq),
                    LFlworClause::Let { expr, .. } => f(expr),
                }
            }
            if let Some(w) = where_ {
                f(w);
            }
            for LOrderSpec { key, .. } in order_by {
                f(key);
            }
            f(return_);
        }
        LExpr::Quantified {
            bindings,
            satisfies,
            ..
        } => {
            for (_, seq) in bindings {
                f(seq);
            }
            f(satisfies);
        }
        LExpr::AxisStep { predicates, .. } => {
            for p in predicates {
                f(p);
            }
        }
        LExpr::Path { start, steps } => {
            f(start);
            for LPathStep { expr, .. } in steps {
                f(expr);
            }
        }
        LExpr::Filter(base, predicates) => {
            f(base);
            for p in predicates {
                f(p);
            }
        }
        LExpr::CallBuiltin { args, .. }
        | LExpr::CallUser { args, .. }
        | LExpr::CallUnknown { args, .. } => {
            for a in args {
                f(a);
            }
        }
        LExpr::DirectElement { attrs, content, .. } => {
            for (_, parts) in attrs {
                for part in parts {
                    if let LAttrPart::Enclosed(e) = part {
                        f(e);
                    }
                }
            }
            for part in content {
                match part {
                    LContentPart::Enclosed(e) | LContentPart::Node(e) => f(e),
                    LContentPart::Literal(_) => {}
                }
            }
        }
        LExpr::CompElement { name, content, .. } => {
            if let LConstructorName::Computed(n) = name {
                f(n);
            }
            if let Some(c) = content {
                f(c);
            }
        }
        LExpr::CompAttribute { name, value, .. } => {
            if let LConstructorName::Computed(n) = name {
                f(n);
            }
            if let Some(v) = value {
                f(v);
            }
        }
        LExpr::TryCatch { try_, catch, .. } => {
            f(try_);
            f(catch);
        }
        LExpr::TypeSwitch {
            operand,
            cases,
            default,
            ..
        } => {
            f(operand);
            for LTypeCase { body, .. } in cases {
                f(body);
            }
            f(default);
        }
        LExpr::SplitPath {
            prefix,
            suffix,
            unsplit,
            ..
        } => {
            f(prefix);
            for p in suffix {
                f(p);
            }
            f(unsplit);
        }
    });
}

/// A lowered FLWOR clause: binding names become slots. `let` keeps its
/// source name for the type-check diagnostic.
#[derive(Debug, Clone, PartialEq)]
pub enum LFlworClause {
    For {
        var: u32,
        at: Option<u32>,
        seq: LExpr,
        /// Synthetic [`LExpr::CacheOnce`] slots to clear when this clause
        /// *starts* (before `seq` is evaluated): caches whose dependencies
        /// are all bound by earlier clauses, so they stay valid across every
        /// iteration of this loop and refill at most once per entry.
        reset_entry: Vec<u32>,
        /// Slots to clear on *every binding* of this loop: caches that
        /// depend on this clause's own variable (or later `let`s) but are
        /// used more than once per tuple downstream.
        reset_iter: Vec<u32>,
        /// Set by [`crate::lopt`] when this is the *last* clause and the
        /// FLWOR's `where` is a plain existential `=` with exactly one side
        /// mentioning this clause's variable: which side that is. The
        /// runtime then builds a hash table over this sequence keyed by
        /// that side's string atoms and probes it per outer tuple instead
        /// of scanning every (tuple, item) pair — with a per-tuple fallback
        /// to the plain scan whenever non-string atoms appear.
        join: Option<JoinSide>,
    },
    Let {
        var: u32,
        name: Sym,
        ty: Option<SeqType>,
        expr: LExpr,
    },
}

/// Which operand of an equality is the *key* side: for the hash join, the
/// `where` operand that depends on the joined `for` variable; for a keyed
/// split, the suffix predicate's operand that reads the candidate node.
/// The other operand is the probe side.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinSide {
    Left,
    Right,
}

/// The key of a keyed [`LExpr::SplitPath`]: which operand of its first
/// suffix predicate reads the candidate node, and the synthetic slot that
/// names the site's key table in its frame. Sites that share a prefix cell
/// share the cached sequence but not a table, since their keys differ.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SplitKey {
    pub side: JoinSide,
    pub table: u32,
}

#[derive(Debug, Clone, PartialEq)]
pub struct LOrderSpec {
    pub key: LExpr,
    pub descending: bool,
    pub empty_least: bool,
}

#[derive(Debug, Clone, PartialEq)]
pub struct LPathStep {
    pub double_slash: bool,
    pub expr: LExpr,
}

#[derive(Debug, Clone, PartialEq)]
pub struct LTypeCase {
    pub var: Option<u32>,
    pub ty: SeqType,
    pub body: LExpr,
}

#[derive(Debug, Clone, PartialEq)]
pub enum LAttrPart {
    Literal(String),
    Enclosed(LExpr),
}

#[derive(Debug, Clone, PartialEq)]
pub enum LContentPart {
    Literal(String),
    Enclosed(LExpr),
    Node(LExpr),
}

/// A lowered constructor name: literal names become `QName`s at compile
/// time, computed ones stay expressions.
#[derive(Debug, Clone, PartialEq)]
pub enum LConstructorName {
    Literal(QName),
    Computed(Box<LExpr>),
}

/// A node test with its name (if any) pre-parsed to a `QName`, so matching
/// is symbol equality instead of rendering the candidate's name to a string.
#[derive(Debug, Clone, PartialEq)]
pub enum LNodeTest {
    Name(QName),
    AnyName,
    AnyKind,
    Text,
    Comment,
    Pi,
    Element(Option<QName>),
    AttributeTest(Option<QName>),
    Document,
}

impl LNodeTest {
    /// The test in XPath surface syntax, for plan rendering (`obs::explain`)
    /// and diagnostics.
    pub fn display_name(&self) -> String {
        match self {
            LNodeTest::AnyKind => "node()".to_string(),
            LNodeTest::Text => "text()".to_string(),
            LNodeTest::Comment => "comment()".to_string(),
            LNodeTest::Pi => "processing-instruction()".to_string(),
            LNodeTest::Document => "document-node()".to_string(),
            LNodeTest::Element(None) => "element()".to_string(),
            LNodeTest::Element(Some(q)) => format!("element({q})"),
            LNodeTest::AttributeTest(None) => "attribute()".to_string(),
            LNodeTest::AttributeTest(Some(q)) => format!("attribute({q})"),
            LNodeTest::AnyName => "*".to_string(),
            LNodeTest::Name(q) => q.to_string(),
        }
    }
}

// ----------------------------------------------------------------------
// Slot resolution
// ----------------------------------------------------------------------

/// Resolves lexically scoped names to frame slots. Slots behave like a
/// stack: leaving a scope releases its slots for reuse by the next sibling
/// scope, so the frame size is the *deepest* overlap, not the binder count.
#[derive(Default)]
struct Resolver {
    scope: Vec<(String, u32)>,
    next: u32,
    max: u32,
}

/// Restores both the visible names and the slot watermark.
#[derive(Clone, Copy)]
struct ResolverMark {
    scope_len: usize,
    next: u32,
}

impl Resolver {
    fn mark(&self) -> ResolverMark {
        ResolverMark {
            scope_len: self.scope.len(),
            next: self.next,
        }
    }

    fn pop_to(&mut self, mark: ResolverMark) {
        self.scope.truncate(mark.scope_len);
        self.next = mark.next;
    }

    fn bind(&mut self, name: &str) -> u32 {
        let slot = self.next;
        self.next += 1;
        self.max = self.max.max(self.next);
        self.scope.push((name.to_string(), slot));
        slot
    }

    /// Innermost binding wins — this is where shadowing is decided, once.
    fn lookup(&self, name: &str) -> Option<u32> {
        self.scope
            .iter()
            .rev()
            .find(|(n, _)| n == name)
            .map(|(_, s)| *s)
    }

    fn frame_size(&self) -> usize {
        self.max as usize
    }
}

// ----------------------------------------------------------------------
// The lowering pass
// ----------------------------------------------------------------------

struct Lowerer {
    /// (name, arity) → index into the dense function table.
    functions: HashMap<(String, usize), u32>,
}

/// Lowers a module. The only compile-time error is a duplicate function
/// declaration (same name and arity twice), which the reference path also
/// rejects before evaluating anything.
pub fn lower_module(module: &Module) -> Result<Program> {
    let mut index = HashMap::new();
    for (i, f) in module.functions.iter().enumerate() {
        let key = (f.name.clone(), f.params.len());
        if index.insert(key, i as u32).is_some() {
            return Err(Error::new(
                ErrorCode::XPST0017,
                format!("function {}#{} declared twice", f.name, f.params.len()),
            ));
        }
    }
    let lowerer = Lowerer { functions: index };

    let functions: Vec<CompiledFunction> = module
        .functions
        .iter()
        .map(|f| {
            let mut r = Resolver::default();
            for p in &f.params {
                r.bind(&p.name);
            }
            let body = lowerer.lower(&f.body, &mut r);
            CompiledFunction {
                name: intern(&f.name),
                params: f
                    .params
                    .iter()
                    .map(|p| CompiledParam {
                        name: intern(&p.name),
                        ty: p.ty.clone(),
                    })
                    .collect(),
                return_type: f.return_type.clone(),
                body,
                frame: r.frame_size(),
                position: f.position,
                pure: false,
            }
        })
        .collect();

    let globals: Vec<CompiledGlobal> = module
        .variables
        .iter()
        .map(|v| {
            // Global initializers see earlier globals (through the runtime
            // map) but no locals: fresh frame per initializer.
            let mut r = Resolver::default();
            let expr = lowerer.lower(&v.expr, &mut r);
            CompiledGlobal {
                name: intern(&v.name),
                ty: v.ty.clone(),
                expr,
                frame: r.frame_size(),
            }
        })
        .collect();

    let mut r = Resolver::default();
    let body = lowerer.lower(&module.body, &mut r);
    let roots: Vec<&LExpr> = globals.iter().map(|g| &g.expr).chain([&body]).collect();
    let route = route(&functions, &roots);
    Ok(Program {
        functions,
        globals,
        body,
        body_frame: r.frame_size(),
        route,
    })
}

impl Lowerer {
    fn lower(&self, expr: &Expr, r: &mut Resolver) -> LExpr {
        match expr {
            // A string literal keeps the parsed `Arc<str>`: the plan owns
            // it and drops it with the plan, so client text never reaches
            // the process-global interner. Cloning it at runtime is a
            // refcount bump.
            Expr::Literal(a) => LExpr::Literal(a.clone()),

            Expr::VarRef(name, position) => match r.lookup(name) {
                Some(slot) => LExpr::LocalRef(slot),
                None => LExpr::GlobalRef(intern(name), *position),
            },

            Expr::ContextItem(p) => LExpr::ContextItem(*p),

            Expr::Comma(parts) => LExpr::Comma(parts.iter().map(|p| self.lower(p, r)).collect()),

            Expr::Range(lo, hi) => LExpr::Range(self.lower_box(lo, r), self.lower_box(hi, r)),

            Expr::Arith(op, l, rhs) => {
                LExpr::Arith(*op, self.lower_box(l, r), self.lower_box(rhs, r))
            }

            Expr::Neg(e) => LExpr::Neg(self.lower_box(e, r)),

            Expr::GeneralCmp(op, l, rhs) => {
                LExpr::GeneralCmp(*op, self.lower_box(l, r), self.lower_box(rhs, r))
            }

            Expr::ValueCmp(op, l, rhs) => {
                LExpr::ValueCmp(*op, self.lower_box(l, r), self.lower_box(rhs, r))
            }

            Expr::NodeCmp(op, l, rhs) => {
                LExpr::NodeCmp(*op, self.lower_box(l, r), self.lower_box(rhs, r))
            }

            Expr::SetExpr(op, l, rhs) => {
                LExpr::SetExpr(*op, self.lower_box(l, r), self.lower_box(rhs, r))
            }

            Expr::And(l, rhs) => LExpr::And(self.lower_box(l, r), self.lower_box(rhs, r)),
            Expr::Or(l, rhs) => LExpr::Or(self.lower_box(l, r), self.lower_box(rhs, r)),

            Expr::If(c, t, e) => LExpr::If(
                self.lower_box(c, r),
                self.lower_box(t, r),
                self.lower_box(e, r),
            ),

            Expr::Flwor {
                clauses,
                where_,
                order_by,
                return_,
            } => {
                let mark = r.mark();
                let mut lowered_clauses = Vec::with_capacity(clauses.len());
                for clause in clauses {
                    match clause {
                        FlworClause::For { var, at, seq } => {
                            // The sequence is evaluated *before* the binding
                            // is visible.
                            let seq = self.lower(seq, r);
                            let var = r.bind(var);
                            let at = at.as_ref().map(|a| r.bind(a));
                            lowered_clauses.push(LFlworClause::For {
                                var,
                                at,
                                seq,
                                reset_entry: Vec::new(),
                                reset_iter: Vec::new(),
                                join: None,
                            });
                        }
                        FlworClause::Let { var, ty, expr } => {
                            let lowered = self.lower(expr, r);
                            let slot = r.bind(var);
                            lowered_clauses.push(LFlworClause::Let {
                                var: slot,
                                name: intern(var),
                                ty: ty.clone(),
                                expr: lowered,
                            });
                        }
                    }
                }
                let where_ = where_.as_ref().map(|w| self.lower_box(w, r));
                let order_by = order_by
                    .iter()
                    .map(|spec| LOrderSpec {
                        key: self.lower(&spec.key, r),
                        descending: spec.descending,
                        empty_least: spec.empty_least,
                    })
                    .collect();
                let return_ = self.lower_box(return_, r);
                r.pop_to(mark);
                LExpr::Flwor {
                    clauses: lowered_clauses,
                    where_,
                    order_by,
                    return_,
                }
            }

            Expr::Quantified {
                quantifier,
                bindings,
                satisfies,
            } => {
                let mark = r.mark();
                let mut lowered = Vec::with_capacity(bindings.len());
                for (var, seq) in bindings {
                    let seq = self.lower(seq, r);
                    lowered.push((r.bind(var), seq));
                }
                let satisfies = self.lower_box(satisfies, r);
                r.pop_to(mark);
                LExpr::Quantified {
                    quantifier: *quantifier,
                    bindings: lowered,
                    satisfies,
                }
            }

            Expr::Root(p) => LExpr::Root(*p),

            Expr::AxisStep {
                axis,
                test,
                predicates,
                position,
            } => LExpr::AxisStep {
                axis: *axis,
                test: lower_node_test(test),
                predicates: predicates.iter().map(|p| self.lower(p, r)).collect(),
                position: *position,
            },

            Expr::Path { start, steps } => LExpr::Path {
                start: self.lower_box(start, r),
                steps: steps
                    .iter()
                    .map(|s| LPathStep {
                        double_slash: s.double_slash,
                        expr: self.lower(&s.expr, r),
                    })
                    .collect(),
            },

            Expr::Filter(base, predicates) => LExpr::Filter(
                self.lower_box(base, r),
                predicates.iter().map(|p| self.lower(p, r)).collect(),
            ),

            Expr::Call {
                name,
                args,
                position,
            } => {
                let args: Vec<LExpr> = args.iter().map(|a| self.lower(a, r)).collect();
                // Resolution order matches the walker: builtins first (with
                // or without `fn:`), then user functions by full name.
                let bare = name.strip_prefix("fn:").unwrap_or(name);
                if let Some(builtin) = lookup_builtin(bare, args.len()) {
                    LExpr::CallBuiltin {
                        builtin,
                        args,
                        position: *position,
                    }
                } else if let Some(&index) = self.functions.get(&(name.clone(), args.len())) {
                    LExpr::CallUser {
                        index,
                        args,
                        position: *position,
                    }
                } else {
                    LExpr::CallUnknown {
                        name: intern(name),
                        args,
                        position: *position,
                    }
                }
            }

            Expr::DirectElement {
                name,
                attrs,
                content,
                position,
            } => LExpr::DirectElement {
                name: QName::from(name.as_str()),
                attrs: attrs
                    .iter()
                    .map(|(aname, parts)| {
                        (
                            QName::from(aname.as_str()),
                            parts
                                .iter()
                                .map(|p| match p {
                                    AttrPart::Literal(t) => LAttrPart::Literal(t.clone()),
                                    AttrPart::Enclosed(e) => LAttrPart::Enclosed(self.lower(e, r)),
                                })
                                .collect(),
                        )
                    })
                    .collect(),
                content: content
                    .iter()
                    .map(|p| match p {
                        ContentPart::Literal(t) => LContentPart::Literal(t.clone()),
                        ContentPart::Enclosed(e) => LContentPart::Enclosed(self.lower(e, r)),
                        ContentPart::Node(e) => LContentPart::Node(self.lower(e, r)),
                    })
                    .collect(),
                position: *position,
            },

            Expr::CompElement {
                name,
                content,
                position,
            } => LExpr::CompElement {
                name: self.lower_constructor_name(name, r),
                content: content.as_ref().map(|c| self.lower_box(c, r)),
                position: *position,
            },

            Expr::CompAttribute {
                name,
                value,
                position,
            } => LExpr::CompAttribute {
                name: self.lower_constructor_name(name, r),
                value: value.as_ref().map(|v| self.lower_box(v, r)),
                position: *position,
            },

            Expr::CompText(e) => LExpr::CompText(self.lower_box(e, r)),
            Expr::CompComment(e) => LExpr::CompComment(self.lower_box(e, r)),
            Expr::CompDocument { content, position } => LExpr::CompDocument {
                content: self.lower_box(content, r),
                position: *position,
            },

            Expr::TryCatch { try_, var, catch } => {
                let try_ = self.lower_box(try_, r);
                let mark = r.mark();
                let var = var.as_ref().map(|v| r.bind(v));
                let catch = self.lower_box(catch, r);
                r.pop_to(mark);
                LExpr::TryCatch { try_, var, catch }
            }

            Expr::TypeSwitch {
                operand,
                cases,
                default_var,
                default,
            } => {
                let operand = self.lower_box(operand, r);
                let cases = cases
                    .iter()
                    .map(|case| {
                        let mark = r.mark();
                        let var = case.var.as_ref().map(|v| r.bind(v));
                        let body = self.lower(&case.body, r);
                        r.pop_to(mark);
                        LTypeCase {
                            var,
                            ty: case.ty.clone(),
                            body,
                        }
                    })
                    .collect();
                let mark = r.mark();
                let default_var = default_var.as_ref().map(|v| r.bind(v));
                let default = self.lower_box(default, r);
                r.pop_to(mark);
                LExpr::TypeSwitch {
                    operand,
                    cases,
                    default_var,
                    default,
                }
            }

            Expr::InstanceOf(e, ty) => LExpr::InstanceOf(self.lower_box(e, r), ty.clone()),
            Expr::CastAs(e, ty, p) => LExpr::CastAs(self.lower_box(e, r), ty.clone(), *p),
            Expr::CastableAs(e, ty) => LExpr::CastableAs(self.lower_box(e, r), ty.clone()),
        }
    }

    fn lower_box(&self, expr: &Expr, r: &mut Resolver) -> Box<LExpr> {
        Box::new(self.lower(expr, r))
    }

    fn lower_constructor_name(&self, name: &ConstructorName, r: &mut Resolver) -> LConstructorName {
        match name {
            ConstructorName::Literal(s) => LConstructorName::Literal(QName::from(s.as_str())),
            ConstructorName::Computed(e) => LConstructorName::Computed(self.lower_box(e, r)),
        }
    }
}

fn lower_node_test(test: &NodeTest) -> LNodeTest {
    match test {
        NodeTest::Name(s) => LNodeTest::Name(QName::from(s.as_str())),
        NodeTest::AnyName => LNodeTest::AnyName,
        NodeTest::AnyKind => LNodeTest::AnyKind,
        NodeTest::Text => LNodeTest::Text,
        NodeTest::Comment => LNodeTest::Comment,
        NodeTest::Pi => LNodeTest::Pi,
        NodeTest::Element(n) => LNodeTest::Element(n.as_deref().map(QName::from)),
        NodeTest::AttributeTest(n) => LNodeTest::AttributeTest(n.as_deref().map(QName::from)),
        NodeTest::Document => LNodeTest::Document,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_module;

    fn lower_src(src: &str) -> Program {
        lower_module(&parse_module(src).unwrap()).unwrap()
    }

    /// `let $x := 1 return let $x := 2 return $x + $x` — both references
    /// must resolve to the *inner* slot, decided at compile time.
    #[test]
    fn shadowing_resolves_to_innermost_slot() {
        let p = lower_src("let $x := 1 return let $x := 2 return $x + $x");
        // Outer let binds slot 0, inner binds slot 1.
        let LExpr::Flwor {
            clauses, return_, ..
        } = &p.body
        else {
            panic!("expected a FLWOR body, got {:?}", p.body)
        };
        let LFlworClause::Let { var: outer, .. } = &clauses[0] else {
            panic!("expected let")
        };
        assert_eq!(*outer, 0);
        let LExpr::Flwor {
            clauses, return_, ..
        } = &**return_
        else {
            panic!("expected a nested FLWOR, got {return_:?}")
        };
        let LFlworClause::Let { var: inner, .. } = &clauses[0] else {
            panic!("expected let")
        };
        assert_eq!(*inner, 1);
        let LExpr::Arith(_, a, b) = &**return_ else {
            panic!("expected arith, got {return_:?}")
        };
        assert!(matches!(**a, LExpr::LocalRef(1)));
        assert!(matches!(**b, LExpr::LocalRef(1)));
        assert_eq!(p.body_frame, 2);
    }

    /// Sibling scopes reuse slots: the frame is the deepest overlap, not the
    /// binder count.
    #[test]
    fn sibling_scopes_reuse_slots() {
        let p = lower_src("(let $a := 1 return $a, let $b := 2 return $b, let $c := 3 return $c)");
        assert_eq!(p.body_frame, 1, "three sibling lets share one slot");
    }

    /// Function bodies see only their parameters: an outer `let` does not
    /// leak into a declared function, whose free names lower to global
    /// references (closure-free frames).
    #[test]
    fn function_frames_are_closure_free() {
        let p = lower_src(
            "declare function local:f($p) { $p + $free };\n\
             let $free := 10 return local:f(1)",
        );
        assert_eq!(p.functions.len(), 1);
        let f = &p.functions[0];
        assert_eq!(f.frame, 1, "only the parameter occupies the frame");
        let LExpr::Arith(_, a, b) = &f.body else {
            panic!("expected arith body, got {:?}", f.body)
        };
        assert!(matches!(**a, LExpr::LocalRef(0)), "parameter is slot 0");
        assert!(
            matches!(**b, LExpr::GlobalRef(..)),
            "a free name in a function body is a global lookup, not a capture"
        );
    }

    /// `for … at` binds two slots; the input sequence is lowered before
    /// either is visible.
    #[test]
    fn for_at_binds_after_sequence() {
        let p = lower_src("for $x at $i in ($x0, 2) return $i + $x");
        let LExpr::Flwor { clauses, .. } = &p.body else {
            panic!("expected FLWOR")
        };
        let LFlworClause::For { var, at, seq, .. } = &clauses[0] else {
            panic!("expected for")
        };
        assert_eq!((*var, *at), (0, Some(1)));
        // $x0 is unbound here: it must have lowered to a global reference,
        // not accidentally captured a slot.
        let LExpr::Comma(parts) = seq else {
            panic!("expected comma")
        };
        assert!(matches!(parts[0], LExpr::GlobalRef(..)));
        assert_eq!(p.body_frame, 2);
    }

    #[test]
    fn calls_resolve_to_builtin_user_or_unknown() {
        let p = lower_src(
            "declare function local:f($a) { $a };\n\
             (count((1,2)), local:f(3), fn:count(()), nope(4))",
        );
        let LExpr::Comma(parts) = &p.body else {
            panic!("expected comma")
        };
        assert!(matches!(
            parts[0],
            LExpr::CallBuiltin {
                builtin: Builtin::Count,
                ..
            }
        ));
        assert!(matches!(parts[1], LExpr::CallUser { index: 0, .. }));
        assert!(
            matches!(
                parts[2],
                LExpr::CallBuiltin {
                    builtin: Builtin::Count,
                    ..
                }
            ),
            "fn: prefix resolves to the same builtin"
        );
        assert!(matches!(parts[3], LExpr::CallUnknown { .. }));
    }

    #[test]
    fn duplicate_function_declarations_fail_to_lower() {
        let module = parse_module(
            "declare function local:f($a) { $a };\n\
             declare function local:f($b) { $b };\n\
             1",
        )
        .unwrap();
        let err = lower_module(&module).unwrap_err();
        assert_eq!(err.code, ErrorCode::XPST0017);
        assert!(err.message.contains("declared twice"), "{}", err.message);
    }

    #[test]
    fn typeswitch_and_catch_vars_get_slots() {
        let p = lower_src(
            "try { typeswitch (1) case $n as xs:integer return $n default $d return $d } \
             catch ($e) { $e }",
        );
        let LExpr::TryCatch { var, catch, .. } = &p.body else {
            panic!("expected try/catch")
        };
        assert_eq!(*var, Some(0));
        assert!(matches!(**catch, LExpr::LocalRef(0)));
    }
}
