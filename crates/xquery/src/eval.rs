//! The tree-walking evaluator.
//!
//! This is the reference the lowered runner ([`crate::run`]) is checked
//! against, so it stays a plain, spec-shaped interpreter: every path step
//! walks its axis and tests each candidate. It consults none of the
//! store's name or attribute-value indexes, and so cannot share a bug with
//! the runner's index steps.
//!
//! Element construction implements the content rules the paper dissects:
//! adjacent atomized values join with single spaces, nodes are deep-copied,
//! and attribute nodes *fold into the parent* — but only when they appear
//! before any other content (`XQTY0024` otherwise), with duplicate-name
//! handling selectable to model the working draft vs. Galax
//! ([`DupAttrPolicy`]).

use crate::ast::*;
use crate::compare::{
    atomize, atomize_item, effective_boolean_value, general_compare, value_compare,
};
use crate::context::{DynamicContext, Focus, StaticContext};
use crate::engine::{DupAttrPolicy, EngineOptions};
use crate::error::{Error, ErrorCode, Result};
use crate::functions;
use crate::types::{cast_atomic, ItemType, SeqType};
use crate::value::{Atomic, Item, Sequence};
use std::collections::HashMap;
use std::collections::HashSet;
use xmlstore::{NodeId, NodeKind, QName, Store};

/// Everything the evaluator threads besides the dynamic context.
pub struct EvalEnv<'a> {
    pub store: &'a mut Store,
    pub options: &'a EngineOptions,
    pub statics: &'a StaticContext,
    /// Registered documents for `fn:doc`.
    pub docs: &'a HashMap<String, NodeId>,
    /// Module-level variables (prolog declarations and external bindings),
    /// visible from every expression including user-function bodies.
    pub globals: &'a HashMap<String, std::sync::Arc<Sequence>>,
    /// Output sink for `fn:trace` (see [`crate::obs::TraceSink`]).
    pub trace: &'a mut dyn crate::obs::TraceSink,
    /// Current user-function recursion depth.
    pub depth: usize,
}

impl EvalEnv<'_> {
    fn check_depth(&self, position: (u32, u32)) -> Result<()> {
        if self.depth >= self.options.recursion_limit {
            Err(Error::new(
                ErrorCode::Internal,
                format!(
                    "recursion limit of {} exceeded",
                    self.options.recursion_limit
                ),
            )
            .at(position.0, position.1))
        } else {
            Ok(())
        }
    }
}

/// Evaluates `expr` to a sequence.
pub fn eval(expr: &Expr, env: &mut EvalEnv, ctx: &mut DynamicContext) -> Result<Sequence> {
    match expr {
        Expr::Literal(a) => Ok(Sequence::singleton(Item::Atomic(a.clone()))),

        Expr::VarRef(name, position) => {
            match ctx.vars.lookup(name).or_else(|| env.globals.get(name)) {
                Some(v) => Ok((**v).clone()),
                None => {
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
            }
        }

        Expr::ContextItem(position) => {
            let item = ctx
                .context_item(env.options.galax_quirks, *position)?
                .clone();
            Ok(Sequence::singleton(item))
        }

        Expr::Comma(parts) => {
            let mut out = Sequence::empty();
            for p in parts {
                out.push_seq(eval(p, env, ctx)?);
            }
            Ok(out)
        }

        Expr::Range(lo, hi) => {
            let lo = eval(lo, env, ctx)?;
            let hi = eval(hi, env, ctx)?;
            let (Some(lo), Some(hi)) = (
                singleton_integer(&lo, env.store)?,
                singleton_integer(&hi, env.store)?,
            ) else {
                return Ok(Sequence::empty());
            };
            Ok((lo..=hi).map(Item::integer).collect())
        }

        Expr::Arith(op, l, r) => {
            let l = eval(l, env, ctx)?;
            let r = eval(r, env, ctx)?;
            arith(*op, &l, &r, env.store)
        }

        Expr::Neg(e) => {
            let v = eval(e, env, ctx)?;
            let Some(n) = singleton_number(&v, env.store)? else {
                return Ok(Sequence::empty());
            };
            Ok(match n {
                NumOperand::Int(i) => Atomic::Int(-i).into(),
                NumOperand::Dbl(d) => Atomic::Dbl(-d).into(),
            })
        }

        Expr::GeneralCmp(op, l, r) => {
            let l = eval(l, env, ctx)?;
            let r = eval(r, env, ctx)?;
            Ok(Atomic::Bool(general_compare(*op, &l, &r, env.store)).into())
        }

        Expr::ValueCmp(op, l, r) => {
            let l = eval(l, env, ctx)?;
            let r = eval(r, env, ctx)?;
            match value_compare(*op, &l, &r, env.store)? {
                Some(b) => Ok(Atomic::Bool(b).into()),
                None => Ok(Sequence::empty()),
            }
        }

        Expr::NodeCmp(op, l, r) => {
            let l = eval(l, env, ctx)?;
            let r = eval(r, env, ctx)?;
            if l.is_empty() || r.is_empty() {
                return Ok(Sequence::empty());
            }
            let (Some(Item::Node(a)), Some(Item::Node(b))) = (l.as_singleton(), r.as_singleton())
            else {
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

        Expr::SetExpr(op, l, r) => {
            let l = eval(l, env, ctx)?;
            let r = eval(r, env, ctx)?;
            let (Some(ls), Some(rs)) = (l.all_nodes(), r.all_nodes()) else {
                return Err(Error::new(
                    ErrorCode::XPTY0004,
                    "union/intersect/except operands must be node sequences",
                ));
            };
            let right_set: HashSet<NodeId> = rs.iter().copied().collect();
            let combined: Vec<NodeId> = match op {
                SetOp::Union => ls.into_iter().chain(rs).collect(),
                SetOp::Intersect => ls.into_iter().filter(|n| right_set.contains(n)).collect(),
                SetOp::Except => ls.into_iter().filter(|n| !right_set.contains(n)).collect(),
            };
            Ok(dedup_sorted(combined, env.store)
                .into_iter()
                .map(Item::Node)
                .collect())
        }

        Expr::And(l, r) => {
            let lv = eval(l, env, ctx)?;
            if !effective_boolean_value(&lv, env.store)? {
                return Ok(Atomic::Bool(false).into());
            }
            let rv = eval(r, env, ctx)?;
            Ok(Atomic::Bool(effective_boolean_value(&rv, env.store)?).into())
        }

        Expr::Or(l, r) => {
            let lv = eval(l, env, ctx)?;
            if effective_boolean_value(&lv, env.store)? {
                return Ok(Atomic::Bool(true).into());
            }
            let rv = eval(r, env, ctx)?;
            Ok(Atomic::Bool(effective_boolean_value(&rv, env.store)?).into())
        }

        Expr::If(c, t, e) => {
            let cv = eval(c, env, ctx)?;
            if effective_boolean_value(&cv, env.store)? {
                eval(t, env, ctx)
            } else {
                eval(e, env, ctx)
            }
        }

        Expr::Flwor {
            clauses,
            where_,
            order_by,
            return_,
        } => eval_flwor(clauses, where_.as_deref(), order_by, return_, env, ctx),

        Expr::Quantified {
            quantifier,
            bindings,
            satisfies,
        } => {
            let mark = ctx.vars.mark();
            let result = quantified(*quantifier, bindings, satisfies, 0, env, ctx);
            ctx.vars.pop_to(mark);
            result.map(|b| Atomic::Bool(b).into())
        }

        Expr::Root(position) => {
            let item = ctx
                .context_item(env.options.galax_quirks, *position)?
                .clone();
            match item {
                Item::Node(n) => Ok(Sequence::singleton(Item::Node(env.store.root(n)))),
                Item::Atomic(_) => Err(Error::new(
                    ErrorCode::XPTY0019,
                    "'/' requires a node context item",
                )
                .at(position.0, position.1)),
            }
        }

        Expr::AxisStep {
            axis,
            test,
            predicates,
            position,
        } => {
            let item = ctx
                .context_item(env.options.galax_quirks, *position)?
                .clone();
            let node = match item {
                Item::Node(n) => n,
                Item::Atomic(_) => {
                    return Err(Error::new(
                        ErrorCode::XPTY0019,
                        "axis step applied to an atomic value",
                    )
                    .at(position.0, position.1))
                }
            };
            let candidates = axis_candidates(*axis, node, env.store);
            let tested: Vec<NodeId> = candidates
                .into_iter()
                .filter(|&n| node_test_matches(test, *axis, n, env.store))
                .collect();
            let filtered = apply_predicates_nodes(tested, predicates, env, ctx)?;
            Ok(filtered.into_iter().map(Item::Node).collect())
        }

        Expr::Path { start, steps } => {
            let mut current = eval(start, env, ctx)?;
            for step in steps {
                if step.double_slash {
                    current = expand_descendant_or_self(&current, env.store)?;
                }
                current = map_step(&current, &step.expr, env, ctx)?;
            }
            Ok(current)
        }

        Expr::Filter(base, predicates) => {
            let seq = eval(base, env, ctx)?;
            apply_predicates_items(seq, predicates, env, ctx)
        }

        Expr::Call {
            name,
            args,
            position,
        } => {
            let mut values = Vec::with_capacity(args.len());
            for a in args {
                values.push(eval(a, env, ctx)?);
            }
            call_function(name, values, *position, env, ctx)
        }

        Expr::DirectElement {
            name,
            attrs,
            content,
            position,
        } => {
            let el = construct_element(name, attrs, content, *position, env, ctx)?;
            Ok(Sequence::singleton(Item::Node(el)))
        }

        Expr::CompElement {
            name,
            content,
            position,
        } => {
            let name = constructor_name(name, env, ctx, *position)?;
            let el = env
                .store
                .create_element(QName::from(name.as_str()))
                .map_err(internal)?;
            let mut builder = ContentBuilder::new(el, *position, env.options.dup_attr_policy);
            if let Some(content) = content {
                let seq = eval(content, env, ctx)?;
                builder.push_sequence(seq, env.store)?;
            }
            builder.finish(env.store)?;
            Ok(Sequence::singleton(Item::Node(el)))
        }

        Expr::CompAttribute {
            name,
            value,
            position,
        } => {
            let name = constructor_name(name, env, ctx, *position)?;
            let text = match value {
                Some(v) => {
                    let seq = eval(v, env, ctx)?;
                    join_atomized(&seq, env.store)
                }
                None => String::new(),
            };
            let attr = env
                .store
                .create_attribute(QName::from(name.as_str()), text)
                .map_err(internal)?;
            Ok(Sequence::singleton(Item::Node(attr)))
        }

        Expr::CompText(e) => {
            let seq = eval(e, env, ctx)?;
            if seq.is_empty() {
                return Ok(Sequence::empty());
            }
            let node = env
                .store
                .create_text(join_atomized(&seq, env.store))
                .map_err(internal)?;
            Ok(Sequence::singleton(Item::Node(node)))
        }

        Expr::CompComment(e) => {
            let seq = eval(e, env, ctx)?;
            let node = env
                .store
                .create_comment(join_atomized(&seq, env.store))
                .map_err(internal)?;
            Ok(Sequence::singleton(Item::Node(node)))
        }

        Expr::CompDocument { content, position } => {
            let doc = env.store.create_document().map_err(internal)?;
            let mut builder = ContentBuilder::new(doc, *position, env.options.dup_attr_policy);
            let seq = eval(content, env, ctx)?;
            builder.push_sequence(seq, env.store)?;
            builder.finish(env.store)?;
            Ok(Sequence::singleton(Item::Node(doc)))
        }

        Expr::TryCatch { try_, var, catch } => match eval(try_, env, ctx) {
            Ok(v) => Ok(v),
            Err(e) if e.code == ErrorCode::Internal => Err(e),
            Err(e) => {
                let mark = ctx.vars.mark();
                if let Some(v) = var {
                    ctx.vars.bind(
                        v.clone(),
                        Sequence::singleton(Item::string(e.message.clone())),
                    );
                }
                let r = eval(catch, env, ctx);
                ctx.vars.pop_to(mark);
                r
            }
        },

        Expr::TypeSwitch {
            operand,
            cases,
            default_var,
            default,
        } => {
            let value = eval(operand, env, ctx)?;
            for case in cases {
                if case.ty.matches(&value, env.store) {
                    let mark = ctx.vars.mark();
                    if let Some(v) = &case.var {
                        ctx.vars.bind(v.clone(), value.clone());
                    }
                    let r = eval(&case.body, env, ctx);
                    ctx.vars.pop_to(mark);
                    return r;
                }
            }
            let mark = ctx.vars.mark();
            if let Some(v) = default_var {
                ctx.vars.bind(v.clone(), value);
            }
            let r = eval(default, env, ctx);
            ctx.vars.pop_to(mark);
            r
        }

        Expr::InstanceOf(e, ty) => {
            let seq = eval(e, env, ctx)?;
            Ok(Atomic::Bool(ty.matches(&seq, env.store)).into())
        }

        Expr::CastableAs(e, ty) => {
            let seq = eval(e, env, ctx)?;
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

        Expr::CastAs(e, ty, position) => {
            let seq = eval(e, env, ctx)?;
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
    }
}

// ----------------------------------------------------------------------
// FLWOR
// ----------------------------------------------------------------------

fn eval_flwor(
    clauses: &[FlworClause],
    where_: Option<&Expr>,
    order_by: &[OrderSpec],
    return_: &Expr,
    env: &mut EvalEnv,
    ctx: &mut DynamicContext,
) -> Result<Sequence> {
    let mark = ctx.vars.mark();
    let mut keyed: Vec<(Vec<Option<Atomic>>, Sequence)> = Vec::new();
    let mut plain = Sequence::empty();
    let result = flwor_tuples(
        clauses, 0, where_, order_by, return_, env, ctx, &mut keyed, &mut plain,
    );
    ctx.vars.pop_to(mark);
    result?;

    if order_by.is_empty() {
        return Ok(plain);
    }
    let specs: Vec<&OrderSpec> = order_by.iter().collect();
    keyed.sort_by(|(ka, _), (kb, _)| {
        for (i, spec) in specs.iter().enumerate() {
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

pub(crate) fn compare_order_keys(
    a: Option<&Atomic>,
    b: Option<&Atomic>,
    descending: bool,
    empty_least: bool,
) -> std::cmp::Ordering {
    use std::cmp::Ordering;
    let ord = match (a, b) {
        (None, None) => Ordering::Equal,
        (None, Some(_)) => {
            if empty_least {
                Ordering::Less
            } else {
                Ordering::Greater
            }
        }
        (Some(_), None) => {
            if empty_least {
                Ordering::Greater
            } else {
                Ordering::Less
            }
        }
        (Some(x), Some(y)) => {
            crate::compare::compare_atomics(x, y).unwrap_or_else(|| x.to_text().cmp(&y.to_text()))
        }
    };
    if descending {
        ord.reverse()
    } else {
        ord
    }
}

#[allow(clippy::too_many_arguments)]
fn flwor_tuples(
    clauses: &[FlworClause],
    idx: usize,
    where_: Option<&Expr>,
    order_by: &[OrderSpec],
    return_: &Expr,
    env: &mut EvalEnv,
    ctx: &mut DynamicContext,
    keyed: &mut Vec<(Vec<Option<Atomic>>, Sequence)>,
    plain: &mut Sequence,
) -> Result<()> {
    if idx == clauses.len() {
        if let Some(w) = where_ {
            let wv = eval(w, env, ctx)?;
            if !effective_boolean_value(&wv, env.store)? {
                return Ok(());
            }
        }
        if order_by.is_empty() {
            plain.push_seq(eval(return_, env, ctx)?);
        } else {
            let mut keys = Vec::with_capacity(order_by.len());
            for spec in order_by {
                let kv = eval(&spec.key, env, ctx)?;
                let atoms = atomize(&kv, env.store);
                if atoms.len() > 1 {
                    return Err(Error::new(
                        ErrorCode::XPTY0004,
                        "order by key must be a singleton",
                    ));
                }
                keys.push(atoms.into_iter().next());
            }
            let value = eval(return_, env, ctx)?;
            keyed.push((keys, value));
        }
        return Ok(());
    }
    match &clauses[idx] {
        FlworClause::For { var, at, seq } => {
            let items = eval(seq, env, ctx)?;
            for (i, item) in items.into_iter().enumerate() {
                let mark = ctx.vars.mark();
                ctx.vars.bind(var.clone(), Sequence::singleton(item));
                if let Some(at_var) = at {
                    ctx.vars.bind(
                        at_var.clone(),
                        Sequence::singleton(Item::integer(i as i64 + 1)),
                    );
                }
                let r = flwor_tuples(
                    clauses,
                    idx + 1,
                    where_,
                    order_by,
                    return_,
                    env,
                    ctx,
                    keyed,
                    plain,
                );
                ctx.vars.pop_to(mark);
                r?;
            }
            Ok(())
        }
        FlworClause::Let { var, ty, expr } => {
            let value = eval(expr, env, ctx)?;
            if let Some(ty) = ty {
                ty.check(&value, env.store, &format!("let ${var}"))?;
            }
            let mark = ctx.vars.mark();
            ctx.vars.bind(var.clone(), value);
            let r = flwor_tuples(
                clauses,
                idx + 1,
                where_,
                order_by,
                return_,
                env,
                ctx,
                keyed,
                plain,
            );
            ctx.vars.pop_to(mark);
            r
        }
    }
}

fn quantified(
    quantifier: Quantifier,
    bindings: &[(String, Expr)],
    satisfies: &Expr,
    idx: usize,
    env: &mut EvalEnv,
    ctx: &mut DynamicContext,
) -> Result<bool> {
    if idx == bindings.len() {
        let v = eval(satisfies, env, ctx)?;
        return effective_boolean_value(&v, env.store);
    }
    let (var, seq_expr) = &bindings[idx];
    let items = eval(seq_expr, env, ctx)?;
    for item in items {
        let mark = ctx.vars.mark();
        ctx.vars.bind(var.clone(), Sequence::singleton(item));
        let hit = quantified(quantifier, bindings, satisfies, idx + 1, env, ctx);
        ctx.vars.pop_to(mark);
        let hit = hit?;
        match quantifier {
            Quantifier::Some if hit => return Ok(true),
            Quantifier::Every if !hit => return Ok(false),
            _ => {}
        }
    }
    Ok(matches!(quantifier, Quantifier::Every))
}

// ----------------------------------------------------------------------
// Paths and axes
// ----------------------------------------------------------------------

/// Expands `//` into a descendant-or-self pass over the current node set.
pub(crate) fn expand_descendant_or_self(current: &Sequence, store: &Store) -> Result<Sequence> {
    let mut out: Vec<NodeId> = Vec::new();
    for item in current.iter() {
        let n = item
            .as_node()
            .ok_or_else(|| Error::new(ErrorCode::XPTY0019, "'//' applied to an atomic value"))?;
        out.push(n);
        out.extend(store.descendants_iter(n));
    }
    let unique = dedup_sorted(out, store);
    Ok(unique.into_iter().map(Item::Node).collect())
}

/// Evaluates one path step for every item of `current`, with the usual
/// node-set semantics (dedup + document order when all results are nodes).
fn map_step(
    current: &Sequence,
    step: &Expr,
    env: &mut EvalEnv,
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
        let r = eval(step, env, ctx);
        ctx.focus = saved;
        results.push_seq(r?);
    }
    // If every item is a node: dedup + document order. If every item is
    // atomic: keep as-is (final steps like `a/string(.)`). Mixed: error.
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

pub(crate) fn dedup_sorted(nodes: Vec<NodeId>, store: &Store) -> Vec<NodeId> {
    if nodes.len() <= 1 {
        return nodes;
    }
    let keys = store.order_keys(&nodes);
    // Strictly increasing keys ⇒ already unique and in document order — the
    // common case for a single-context child/descendant step.
    if keys.windows(2).all(|w| w[0] < w[1]) {
        return nodes;
    }
    let mut pairs: Vec<(xmlstore::OrderKey, NodeId)> = keys.into_iter().zip(nodes).collect();
    pairs.sort_unstable();
    // Keys are injective per node, so duplicates of a node are adjacent.
    pairs.dedup_by(|a, b| a.1 == b.1);
    pairs.into_iter().map(|(_, n)| n).collect()
}

pub(crate) fn axis_candidates(axis: Axis, node: NodeId, store: &Store) -> Vec<NodeId> {
    match axis {
        Axis::Child => store.children(node).to_vec(),
        Axis::Descendant => store.descendants_iter(node).collect(),
        Axis::DescendantOrSelf => {
            let mut v = vec![node];
            v.extend(store.descendants_iter(node));
            v
        }
        Axis::Attribute => store.attributes(node).to_vec(),
        Axis::SelfAxis => vec![node],
        Axis::Parent => store.parent(node).into_iter().collect(),
        Axis::Ancestor => store.ancestors(node),
        Axis::AncestorOrSelf => {
            let mut v = vec![node];
            v.extend(store.ancestors(node));
            v
        }
        Axis::FollowingSibling | Axis::PrecedingSibling => {
            let Some(parent) = store.parent(node) else {
                return Vec::new();
            };
            if store.is_attribute(node) {
                return Vec::new();
            }
            let siblings = store.children(parent);
            let Some(pos) = siblings.iter().position(|&s| s == node) else {
                return Vec::new();
            };
            match axis {
                Axis::FollowingSibling => siblings[pos + 1..].to_vec(),
                _ => {
                    // Reverse axis: nearest sibling first.
                    let mut v = siblings[..pos].to_vec();
                    v.reverse();
                    v
                }
            }
        }
    }
}

fn node_test_matches(test: &NodeTest, axis: Axis, node: NodeId, store: &Store) -> bool {
    let kind = store.kind(node);
    match test {
        NodeTest::AnyKind => true,
        NodeTest::Text => matches!(kind, NodeKind::Text(_)),
        NodeTest::Comment => matches!(kind, NodeKind::Comment(_)),
        NodeTest::Pi => matches!(kind, NodeKind::Pi(..)),
        NodeTest::Document => matches!(kind, NodeKind::Document),
        NodeTest::Element(name) => match kind {
            NodeKind::Element(q) => name.as_deref().is_none_or(|w| q.display_is(w)),
            _ => false,
        },
        NodeTest::AttributeTest(name) => match kind {
            NodeKind::Attribute(q, _) => name.as_deref().is_none_or(|w| q.display_is(w)),
            _ => false,
        },
        NodeTest::AnyName => {
            // Principal node kind: attributes on the attribute axis,
            // elements elsewhere.
            if axis == Axis::Attribute {
                matches!(kind, NodeKind::Attribute(..))
            } else {
                matches!(kind, NodeKind::Element(_))
            }
        }
        NodeTest::Name(want) => {
            if axis == Axis::Attribute {
                matches!(kind, NodeKind::Attribute(q, _) if q.display_is(want))
            } else {
                matches!(kind, NodeKind::Element(q) if q.display_is(want))
            }
        }
    }
}

fn apply_predicates_nodes(
    nodes: Vec<NodeId>,
    predicates: &[Expr],
    env: &mut EvalEnv,
    ctx: &mut DynamicContext,
) -> Result<Vec<NodeId>> {
    let mut current = nodes;
    for pred in predicates {
        let size = current.len();
        let mut kept = Vec::with_capacity(current.len());
        for (i, &n) in current.iter().enumerate() {
            if predicate_holds(pred, Item::Node(n), i + 1, size, env, ctx)? {
                kept.push(n);
            }
        }
        current = kept;
    }
    Ok(current)
}

fn apply_predicates_items(
    seq: Sequence,
    predicates: &[Expr],
    env: &mut EvalEnv,
    ctx: &mut DynamicContext,
) -> Result<Sequence> {
    let mut current = seq.into_items();
    for pred in predicates {
        let size = current.len();
        let mut kept = Vec::with_capacity(current.len());
        for (i, item) in current.into_iter().enumerate() {
            if predicate_holds(pred, item.clone(), i + 1, size, env, ctx)? {
                kept.push(item);
            }
        }
        current = kept;
    }
    Ok(Sequence::from_items(current))
}

/// One predicate on one focus: numeric singleton → position test, anything
/// else → effective boolean value.
fn predicate_holds(
    pred: &Expr,
    item: Item,
    position: usize,
    size: usize,
    env: &mut EvalEnv,
    ctx: &mut DynamicContext,
) -> Result<bool> {
    let saved = ctx.focus.take();
    ctx.focus = Some(Focus {
        item,
        position,
        size,
    });
    let result = eval(pred, env, ctx);
    ctx.focus = saved;
    let value = result?;
    predicate_outcome(&value, position, env.store)
}

/// The predicate rule shared by both evaluators: a numeric singleton is a
/// position test, anything else takes its effective boolean value.
pub(crate) fn predicate_outcome(value: &Sequence, position: usize, store: &Store) -> Result<bool> {
    if let Some(Item::Atomic(a)) = value.as_singleton() {
        if a.is_numeric() {
            let n = a.as_number().unwrap_or(f64::NAN);
            return Ok(n == position as f64);
        }
    }
    effective_boolean_value(value, store)
}

// ----------------------------------------------------------------------
// Arithmetic
// ----------------------------------------------------------------------

pub(crate) enum NumOperand {
    Int(i64),
    Dbl(f64),
}

pub(crate) fn singleton_number(seq: &Sequence, store: &Store) -> Result<Option<NumOperand>> {
    let atoms = atomize(seq, store);
    if atoms.is_empty() {
        return Ok(None);
    }
    if atoms.len() > 1 {
        return Err(Error::new(
            ErrorCode::XPTY0004,
            "arithmetic requires singleton operands",
        ));
    }
    match &atoms[0] {
        Atomic::Int(i) => Ok(Some(NumOperand::Int(*i))),
        Atomic::Dbl(d) => Ok(Some(NumOperand::Dbl(*d))),
        Atomic::Untyped(s) => s
            .trim()
            .parse::<f64>()
            .map(|d| Some(NumOperand::Dbl(d)))
            .map_err(|_| {
                Error::new(
                    ErrorCode::FORG0001,
                    format!("cannot convert {s:?} to a number"),
                )
            }),
        other => Err(Error::new(
            ErrorCode::XPTY0004,
            format!("arithmetic on {}", other.type_name()),
        )),
    }
}

pub(crate) fn singleton_integer(seq: &Sequence, store: &Store) -> Result<Option<i64>> {
    match singleton_number(seq, store)? {
        None => Ok(None),
        Some(NumOperand::Int(i)) => Ok(Some(i)),
        Some(NumOperand::Dbl(d)) if d == d.trunc() => Ok(Some(d as i64)),
        Some(NumOperand::Dbl(d)) => Err(Error::new(
            ErrorCode::XPTY0004,
            format!("expected an integer, got {d}"),
        )),
    }
}

pub(crate) fn arith(op: ArithOp, l: &Sequence, r: &Sequence, store: &Store) -> Result<Sequence> {
    let (Some(a), Some(b)) = (singleton_number(l, store)?, singleton_number(r, store)?) else {
        return Ok(Sequence::empty());
    };
    use NumOperand::*;
    let result = match (op, a, b) {
        (ArithOp::Add, Int(x), Int(y)) => int_or_dbl(x.checked_add(y), x as f64 + y as f64),
        (ArithOp::Sub, Int(x), Int(y)) => int_or_dbl(x.checked_sub(y), x as f64 - y as f64),
        (ArithOp::Mul, Int(x), Int(y)) => int_or_dbl(x.checked_mul(y), x as f64 * y as f64),
        (ArithOp::Div, Int(_), Int(0)) => {
            return Err(Error::new(ErrorCode::FOAR0001, "division by zero"))
        }
        (ArithOp::IDiv, _, Int(0)) => {
            return Err(Error::new(ErrorCode::FOAR0001, "integer division by zero"))
        }
        (ArithOp::IDiv, Int(x), Int(y)) => Atomic::Int(x / y),
        (ArithOp::IDiv, x, y) => {
            let (x, y) = (as_f64(x), as_f64(y));
            if y == 0.0 {
                return Err(Error::new(ErrorCode::FOAR0001, "integer division by zero"));
            }
            Atomic::Int((x / y).trunc() as i64)
        }
        (ArithOp::Mod, Int(_), Int(0)) => {
            return Err(Error::new(ErrorCode::FOAR0001, "modulus by zero"))
        }
        (ArithOp::Mod, Int(x), Int(y)) => Atomic::Int(x % y),
        (ArithOp::Mod, x, y) => Atomic::Dbl(as_f64(x) % as_f64(y)),
        (ArithOp::Div, Int(x), Int(y)) => {
            // integer ÷ integer is a decimal; exact quotients stay integral.
            if x % y == 0 {
                Atomic::Int(x / y)
            } else {
                Atomic::Dbl(x as f64 / y as f64)
            }
        }
        (ArithOp::Add, x, y) => Atomic::Dbl(as_f64(x) + as_f64(y)),
        (ArithOp::Sub, x, y) => Atomic::Dbl(as_f64(x) - as_f64(y)),
        (ArithOp::Mul, x, y) => Atomic::Dbl(as_f64(x) * as_f64(y)),
        (ArithOp::Div, x, y) => Atomic::Dbl(as_f64(x) / as_f64(y)),
    };
    Ok(result.into())
}

fn as_f64(n: NumOperand) -> f64 {
    match n {
        NumOperand::Int(i) => i as f64,
        NumOperand::Dbl(d) => d,
    }
}

fn int_or_dbl(checked: Option<i64>, fallback: f64) -> Atomic {
    match checked {
        Some(i) => Atomic::Int(i),
        None => Atomic::Dbl(fallback),
    }
}

// ----------------------------------------------------------------------
// Function calls
// ----------------------------------------------------------------------

fn call_function(
    name: &str,
    args: Vec<Sequence>,
    position: (u32, u32),
    env: &mut EvalEnv,
    ctx: &mut DynamicContext,
) -> Result<Sequence> {
    // Builtins first (with or without the `fn:` prefix).
    let bare = name.strip_prefix("fn:").unwrap_or(name);
    if functions::is_builtin(bare, args.len()) {
        return functions::call_builtin(bare, args, env, ctx, position);
    }
    // User-declared functions by exact (name, arity).
    if let Some(decl) = env.statics.lookup(name, args.len()).cloned() {
        return call_user(&decl, args, position, env, ctx);
    }
    Err(Error::new(
        ErrorCode::XPST0017,
        format!("unknown function {name}#{}", args.len()),
    )
    .at(position.0, position.1))
}

fn call_user(
    decl: &FunctionDecl,
    args: Vec<Sequence>,
    position: (u32, u32),
    env: &mut EvalEnv,
    _ctx: &mut DynamicContext,
) -> Result<Sequence> {
    env.check_depth(position)?;
    // Check declared parameter types — the annotations whose spread the
    // paper describes as metastasis.
    for (param, arg) in decl.params.iter().zip(args.iter()) {
        if let Some(ty) = &param.ty {
            ty.check(
                arg,
                env.store,
                &format!("argument ${} of {}", param.name, decl.name),
            )?;
        }
    }
    // Functions see only their parameters (no captured locals): evaluate the
    // body on a fresh variable scope containing exactly the parameters;
    // module-level globals remain reachable via `env.globals`.
    let mut inner = DynamicContext::new();
    for (param, arg) in decl.params.iter().zip(args) {
        inner.vars.bind(param.name.clone(), arg);
    }
    env.depth += 1;
    let result = eval(&decl.body, env, &mut inner);
    env.depth -= 1;
    let value = result?;
    if let Some(ty) = &decl.return_type {
        ty.check(&value, env.store, &format!("result of {}", decl.name))?;
    }
    Ok(value)
}

// ----------------------------------------------------------------------
// Constructors
// ----------------------------------------------------------------------

fn construct_element(
    name: &str,
    attrs: &[(String, Vec<AttrPart>)],
    content: &[ContentPart],
    position: (u32, u32),
    env: &mut EvalEnv,
    ctx: &mut DynamicContext,
) -> Result<NodeId> {
    let el = env
        .store
        .create_element(QName::from(name))
        .map_err(internal)?;
    let mut builder = ContentBuilder::new(el, position, env.options.dup_attr_policy);
    for (aname, parts) in attrs {
        let mut value = String::new();
        for part in parts {
            match part {
                AttrPart::Literal(t) => value.push_str(t),
                AttrPart::Enclosed(e) => {
                    let seq = eval(e, env, ctx)?;
                    value.push_str(&join_atomized(&seq, env.store));
                }
            }
        }
        let attr = env
            .store
            .create_attribute(QName::from(aname.as_str()), value)
            .map_err(internal)?;
        builder.add_attribute(attr, env.store)?;
    }
    for part in content {
        match part {
            ContentPart::Literal(t) => builder.push_text(t.clone(), env.store)?,
            ContentPart::Enclosed(e) => {
                let seq = eval(e, env, ctx)?;
                builder.push_sequence(seq, env.store)?;
            }
            ContentPart::Node(e) => {
                let seq = eval(e, env, ctx)?;
                builder.push_sequence(seq, env.store)?;
            }
        }
    }
    builder.finish(env.store)?;
    Ok(el)
}

/// Implements the element-content construction rules (XQuery 1.0
/// §3.7.1.3), including attribute folding. One builder per constructed
/// element. Shared by the tree-walking reference evaluator and the lowered
/// runner: it deals only in values and the store, never in expressions.
///
/// Adjacent text merges into one text node, whether it comes from literal
/// text, atomic values or text nodes. Zero-length text is deleted before
/// the attribute check (§3.7.1.3): it builds no node and does not start
/// the content, so `<a>{"", attribute x {1}}</a>` is `<a x="1"/>`.
///
/// An enclosed expression's value reaches the builder as one sequence
/// ([`ContentBuilder::push_sequence`]) or, from the runner's push mode, in
/// pieces ([`ContentBuilder::push_items`], [`ContentBuilder::push_built`],
/// [`ContentBuilder::push_text`]) closed by
/// [`ContentBuilder::end_enclosed`]. A folding error (`XQTY0024`,
/// `XQDY0025`) is held until that close, and the pieces after it are
/// dropped, so an error the rest of the expression raises wins, as it does
/// when the whole value is evaluated before any of it is folded.
pub(crate) struct ContentBuilder {
    element: NodeId,
    position: (u32, u32),
    dup_attr_policy: DupAttrPolicy,
    /// Set once any non-attribute content has been appended — after which an
    /// attribute item raises `XQTY0024`.
    content_started: bool,
    /// Atomic values awaiting space-joining into one text node.
    pending: Vec<String>,
    /// The folding error of the enclosed expression being pushed.
    held: Option<Error>,
}

impl ContentBuilder {
    pub(crate) fn new(
        element: NodeId,
        position: (u32, u32),
        dup_attr_policy: DupAttrPolicy,
    ) -> Self {
        ContentBuilder {
            element,
            position,
            dup_attr_policy,
            content_started: false,
            pending: Vec::new(),
            held: None,
        }
    }

    fn flush_pending(&mut self, store: &mut Store) -> Result<()> {
        if self.pending.is_empty() {
            return Ok(());
        }
        let text = self.pending.join(" ");
        self.pending.clear();
        self.append_text_node(text, store)
    }

    /// Appends text, merged into a preceding text node; zero-length text
    /// is dropped.
    fn append_text_node(&mut self, text: String, store: &mut Store) -> Result<()> {
        if text.is_empty() {
            return Ok(());
        }
        self.content_started = true;
        if let Some(&last) = store.children(self.element).last() {
            if store.is_text(last) {
                let merged = format!("{}{}", store.string_value(last), text);
                store.set_text(last, merged).map_err(internal)?;
                return Ok(());
            }
        }
        let node = store.create_text(text).map_err(internal)?;
        store.append_child(self.element, node).map_err(internal)?;
        Ok(())
    }

    /// Literal text from the constructor body, or the content of a text
    /// node pushed without building the node.
    pub(crate) fn push_text(&mut self, text: String, store: &mut Store) -> Result<()> {
        if self.held.is_some() {
            return Ok(());
        }
        self.flush_pending(store)?;
        self.append_text_node(text, store)
    }

    /// An evaluated `{expr}` (or computed-constructor content) sequence.
    pub(crate) fn push_sequence(&mut self, seq: Sequence, store: &mut Store) -> Result<()> {
        self.push_items(seq, store)?;
        self.end_enclosed(store)
    }

    /// Part of an enclosed expression's value, in order. Nodes are copied.
    pub(crate) fn push_items(&mut self, seq: Sequence, store: &mut Store) -> Result<()> {
        for item in seq {
            if self.held.is_some() {
                break;
            }
            match item {
                Item::Atomic(a) => self.pending.push(a.to_text()),
                Item::Node(n) => self.push_node(n, store)?,
            }
        }
        Ok(())
    }

    fn push_node(&mut self, n: NodeId, store: &mut Store) -> Result<()> {
        self.flush_pending(store)?;
        match store.kind(n) {
            NodeKind::Attribute(..) => {
                // Folding: leading attributes become attributes of the
                // parent; after content it is an error, and a document
                // takes none.
                if matches!(store.kind(self.element), NodeKind::Document) {
                    self.held = Some(
                        Error::new(
                            ErrorCode::XPTY0004,
                            "an attribute node cannot be the content of a document",
                        )
                        .at(self.position.0, self.position.1),
                    );
                    return Ok(());
                }
                if self.content_started {
                    self.held = Some(
                        Error::new(
                            ErrorCode::XQTY0024,
                            "attribute node encountered after non-attribute content",
                        )
                        .at(self.position.0, self.position.1),
                    );
                    return Ok(());
                }
                let copy = store.deep_copy(n).map_err(internal)?;
                match self.add_attribute(copy, store) {
                    Err(e) if e.code != ErrorCode::Internal => self.held = Some(e),
                    other => other?,
                }
            }
            NodeKind::Document => {
                // Documents splice their children.
                for child in store.children(n).to_vec() {
                    self.push_node(child, store)?;
                }
                self.content_started = true;
            }
            NodeKind::Text(text) => {
                let text = text.to_string();
                self.append_text_node(text, store)?;
            }
            _ => {
                let copy = store.deep_copy(n).map_err(internal)?;
                self.push_built(copy, store)?;
            }
        }
        Ok(())
    }

    /// A detached node no one else refers to, appended as it is: the
    /// runner's push mode builds a constructor in a pass-through position
    /// this way instead of copying its result.
    pub(crate) fn push_built(&mut self, node: NodeId, store: &mut Store) -> Result<()> {
        if self.held.is_some() {
            return Ok(());
        }
        self.flush_pending(store)?;
        store.append_child(self.element, node).map_err(internal)?;
        self.content_started = true;
        Ok(())
    }

    /// Closes an enclosed expression: raises the folding error it held, or
    /// joins its trailing atomics (a following text part must not be glued
    /// into the same join group).
    pub(crate) fn end_enclosed(&mut self, store: &mut Store) -> Result<()> {
        match self.held.take() {
            Some(e) => Err(e),
            None => self.flush_pending(store),
        }
    }

    /// Adds an attribute node (already detached, owned) under the duplicate
    /// policy in force.
    pub(crate) fn add_attribute(&mut self, attr: NodeId, store: &mut Store) -> Result<()> {
        let name = match store.kind(attr) {
            NodeKind::Attribute(q, _) => q.to_string(),
            _ => return Err(Error::internal("add_attribute on a non-attribute")),
        };
        let existing = store.attribute_node(self.element, &name);
        match (self.dup_attr_policy, existing) {
            (DupAttrPolicy::Error, Some(_)) => Err(Error::new(
                ErrorCode::XQDY0025,
                format!("duplicate attribute {name:?} on constructed element"),
            )
            .at(self.position.0, self.position.1)),
            (DupAttrPolicy::KeepFirst, Some(_)) => Ok(()),
            (DupAttrPolicy::KeepLast, Some(old)) => {
                store.detach(old);
                store
                    .push_attribute_node_unchecked(self.element, attr)
                    .map_err(internal)
            }
            (DupAttrPolicy::KeepBoth, _) => store
                .push_attribute_node_unchecked(self.element, attr)
                .map_err(internal),
            (_, None) => store
                .push_attribute_node_unchecked(self.element, attr)
                .map_err(internal),
        }
    }

    pub(crate) fn finish(&mut self, store: &mut Store) -> Result<()> {
        self.flush_pending(store)
    }
}

pub(crate) fn internal(e: xmlstore::XmlError) -> Error {
    Error::internal(e.to_string())
}

/// Resolves a (possibly computed) constructor name to a string.
fn constructor_name(
    name: &ConstructorName,
    env: &mut EvalEnv,
    ctx: &mut DynamicContext,
    position: (u32, u32),
) -> Result<String> {
    match name {
        ConstructorName::Literal(s) => Ok(s.clone()),
        ConstructorName::Computed(e) => {
            let seq = eval(e, env, ctx)?;
            let Some(item) = seq.as_singleton() else {
                return Err(Error::new(
                    ErrorCode::XPTY0004,
                    "a computed constructor name must be a single value",
                )
                .at(position.0, position.1));
            };
            let text = atomize_item(item, env.store).to_text();
            if text.is_empty() {
                return Err(Error::new(ErrorCode::FORG0001, "empty constructor name")
                    .at(position.0, position.1));
            }
            Ok(text)
        }
    }
}

/// Atomizes a sequence and joins the lexical forms with single spaces — the
/// rule for attribute values and `text {}` content.
pub fn join_atomized(seq: &Sequence, store: &Store) -> String {
    atomize(seq, store)
        .iter()
        .map(|a| a.to_text())
        .collect::<Vec<_>>()
        .join(" ")
}
