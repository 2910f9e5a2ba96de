//! The static half of the type system — the machinery whose ergonomics the
//! paper's §Type System describes:
//!
//! > "Also we made the mistake of trying to put type annotations on some
//! > utility functions … once types are used somewhere, they rapidly
//! > metastatize and need to be used everywhere."
//!
//! This checker infers a static sequence type for every expression
//! bottom-up. Unannotated function parameters are `item()*` — the top of
//! the lattice — which is precisely why annotating one function makes its
//! callers ill-typed: they pass `item()*` values where the annotation now
//! demands something narrower, and the only fix is to annotate the callers
//! too. [`check_module`] reports those sites; experiment E8 counts them.
//!
//! The checker is *optional* (the untyped mode the project actually ran in
//! reports nothing) and deliberately conservative: it flags only
//! statically-provable mismatches of annotated signatures, never inferred
//! dead ends.

use crate::ast::*;
use crate::types::{AtomicType, ItemType, Occurrence, SeqType};
use std::collections::HashMap;
use std::fmt;

/// One static-typing diagnostic.
#[derive(Debug, Clone, PartialEq)]
pub struct StaticDiagnostic {
    /// The function whose body contains the offending expression (`None`
    /// for the query body).
    pub in_function: Option<String>,
    /// Human-readable description.
    pub message: String,
    /// Source position, when the expression carries one.
    pub position: Option<(u32, u32)>,
}

impl fmt::Display for StaticDiagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.in_function {
            Some(name) => write!(f, "in {name}: {}", self.message)?,
            None => write!(f, "in the query body: {}", self.message)?,
        }
        if let Some((l, c)) = self.position {
            write!(f, " (line {l}, column {c})")?;
        }
        Ok(())
    }
}

/// Statically checks a module; returns every diagnostic found.
pub fn check_module(module: &Module) -> Vec<StaticDiagnostic> {
    let mut signatures: HashMap<(String, usize), &FunctionDecl> = HashMap::new();
    for f in &module.functions {
        signatures.insert((f.name.clone(), f.params.len()), f);
    }
    let mut cx = Checker {
        signatures,
        diagnostics: Vec::new(),
        current_function: None,
    };
    for f in &module.functions {
        cx.current_function = Some(f.name.clone());
        let mut env = TypeEnv::default();
        for p in &f.params {
            env.bind(&p.name, p.ty.clone().unwrap_or_else(SeqType::any));
        }
        let body_ty = cx.infer(&f.body, &mut env);
        if let Some(ret) = &f.return_type {
            if !subtype(&body_ty, ret) && !might_narrow(&body_ty, ret) {
                cx.diagnostics.push(StaticDiagnostic {
                    in_function: Some(f.name.clone()),
                    message: format!(
                        "the body has static type {body_ty}, which cannot satisfy the declared return type {ret}"
                    ),
                    position: Some(f.position),
                });
            }
        }
    }
    cx.current_function = None;
    let mut env = TypeEnv::default();
    for v in &module.variables {
        let ty = cx.infer(&v.expr, &mut env);
        env.bind(&v.name, v.ty.clone().unwrap_or(ty));
    }
    cx.infer(&module.body, &mut env);
    cx.diagnostics
}

/// Is `sub` statically a subtype of `sup`?
pub fn subtype(sub: &SeqType, sup: &SeqType) -> bool {
    match (sub, sup) {
        (SeqType::Empty, SeqType::Empty) => true,
        (SeqType::Empty, SeqType::Of(_, occ)) => occ.accepts(0),
        (SeqType::Of(_, _), SeqType::Empty) => false,
        (SeqType::Of(item_a, occ_a), SeqType::Of(item_b, occ_b)) => {
            occurrence_subset(*occ_a, *occ_b) && item_subtype(item_a, item_b)
        }
    }
}

/// Could a value of static type `sub` still *dynamically* satisfy `sup`?
/// (`item()*` against `xs:string` can — the value might happen to be a
/// string.) Conservative checkers flag only impossible cases; the
/// metastasis experiment instead wants [`requires_narrowing`] — the sites
/// where the static type is not enough and only a run-time check or a new
/// annotation closes the gap.
fn might_narrow(sub: &SeqType, sup: &SeqType) -> bool {
    match (sub, sup) {
        (SeqType::Of(item_a, occ_a), SeqType::Of(item_b, occ_b)) => {
            occurrences_overlap(*occ_a, *occ_b)
                && (item_subtype(item_a, item_b) || item_subtype(item_b, item_a) || top_ish(item_a))
        }
        (SeqType::Empty, SeqType::Of(_, occ)) => occ.accepts(0),
        (SeqType::Of(_, occ), SeqType::Empty) => occ.accepts(0),
        (SeqType::Empty, SeqType::Empty) => true,
    }
}

fn top_ish(item: &ItemType) -> bool {
    matches!(item, ItemType::AnyItem)
}

fn occurrence_subset(a: Occurrence, b: Occurrence) -> bool {
    use Occurrence::*;
    matches!(
        (a, b),
        (One, One)
            | (One, ZeroOrOne)
            | (One, ZeroOrMore)
            | (One, OneOrMore)
            | (ZeroOrOne, ZeroOrOne)
            | (ZeroOrOne, ZeroOrMore)
            | (OneOrMore, OneOrMore)
            | (OneOrMore, ZeroOrMore)
            | (ZeroOrMore, ZeroOrMore)
    )
}

fn occurrences_overlap(a: Occurrence, b: Occurrence) -> bool {
    use Occurrence::*;
    // The only disjoint pair in this lattice is "must be ≥1" vs "must be 0",
    // which SeqType::Empty covers; every Of/Of pair overlaps.
    !matches!((a, b), (OneOrMore, ZeroOrOne) if false)
}

fn item_subtype(a: &ItemType, b: &ItemType) -> bool {
    use ItemType::*;
    match (a, b) {
        (_, AnyItem) => true,
        (AnyItem, _) => false,
        (Atomic(x), Atomic(y)) => atomic_subtype(*x, *y),
        (Atomic(_), _) | (_, Atomic(_)) => false,
        (_, AnyNode) => true,
        (AnyNode, _) => false,
        (Element(_), Element(None)) => true,
        (Element(Some(x)), Element(Some(y))) => x == y,
        (Element(None), Element(Some(_))) => false,
        (Attribute(_), Attribute(None)) => true,
        (Attribute(Some(x)), Attribute(Some(y))) => x == y,
        (Attribute(None), Attribute(Some(_))) => false,
        (Text, Text) | (Comment, Comment) | (Pi, Pi) | (Document, Document) => true,
        _ => false,
    }
}

fn atomic_subtype(a: AtomicType, b: AtomicType) -> bool {
    use AtomicType::*;
    a == b || b == AnyAtomic || (a == Integer && b == Double)
}

/// Least upper bound of two sequence types.
pub fn lub(a: &SeqType, b: &SeqType) -> SeqType {
    match (a, b) {
        (SeqType::Empty, SeqType::Empty) => SeqType::Empty,
        (SeqType::Empty, SeqType::Of(item, occ)) | (SeqType::Of(item, occ), SeqType::Empty) => {
            SeqType::Of(item.clone(), add_zero(*occ))
        }
        (SeqType::Of(ia, oa), SeqType::Of(ib, ob)) => {
            SeqType::Of(item_lub(ia, ib), occ_lub(*oa, *ob))
        }
    }
}

fn add_zero(o: Occurrence) -> Occurrence {
    use Occurrence::*;
    match o {
        One | ZeroOrOne => ZeroOrOne,
        OneOrMore | ZeroOrMore => ZeroOrMore,
    }
}

fn occ_lub(a: Occurrence, b: Occurrence) -> Occurrence {
    use Occurrence::*;
    if a == b {
        return a;
    }
    let zero = matches!(a, ZeroOrOne | ZeroOrMore) || matches!(b, ZeroOrOne | ZeroOrMore);
    let many = matches!(a, ZeroOrMore | OneOrMore) || matches!(b, ZeroOrMore | OneOrMore);
    match (zero, many) {
        (false, false) => One,
        (true, false) => ZeroOrOne,
        (false, true) => OneOrMore,
        (true, true) => ZeroOrMore,
    }
}

fn item_lub(a: &ItemType, b: &ItemType) -> ItemType {
    use ItemType::*;
    if a == b {
        return a.clone();
    }
    match (a, b) {
        (Atomic(x), Atomic(y)) => Atomic(if atomic_subtype(*x, *y) {
            *y
        } else if atomic_subtype(*y, *x) {
            *x
        } else {
            AtomicType::AnyAtomic
        }),
        (Atomic(_), _) | (_, Atomic(_)) => AnyItem,
        (Element(_), Element(_)) => Element(None),
        (Attribute(_), Attribute(_)) => Attribute(None),
        // two different node kinds
        _ => AnyNode,
    }
}

// ----------------------------------------------------------------------

#[derive(Default)]
struct TypeEnv {
    entries: Vec<(String, SeqType)>,
}

impl TypeEnv {
    fn bind(&mut self, name: &str, ty: SeqType) {
        self.entries.push((name.to_string(), ty));
    }

    fn pop_to(&mut self, mark: usize) {
        self.entries.truncate(mark);
    }

    fn mark(&self) -> usize {
        self.entries.len()
    }

    fn lookup(&self, name: &str) -> Option<&SeqType> {
        self.entries
            .iter()
            .rev()
            .find(|(n, _)| n == name)
            .map(|(_, t)| t)
    }
}

struct Checker<'a> {
    signatures: HashMap<(String, usize), &'a FunctionDecl>,
    diagnostics: Vec<StaticDiagnostic>,
    current_function: Option<String>,
}

fn atomic(t: AtomicType) -> SeqType {
    SeqType::Of(ItemType::Atomic(t), Occurrence::One)
}

fn nodes() -> SeqType {
    SeqType::Of(ItemType::AnyNode, Occurrence::ZeroOrMore)
}

impl Checker<'_> {
    fn diag(&mut self, message: String, position: Option<(u32, u32)>) {
        self.diagnostics.push(StaticDiagnostic {
            in_function: self.current_function.clone(),
            message,
            position,
        });
    }

    fn infer(&mut self, expr: &Expr, env: &mut TypeEnv) -> SeqType {
        match expr {
            Expr::Literal(a) => atomic(match a {
                crate::value::Atomic::Str(_) => AtomicType::String,
                crate::value::Atomic::Int(_) => AtomicType::Integer,
                crate::value::Atomic::Dbl(_) => AtomicType::Double,
                crate::value::Atomic::Bool(_) => AtomicType::Boolean,
                crate::value::Atomic::Untyped(_) => AtomicType::UntypedAtomic,
            }),
            Expr::VarRef(name, _) => env.lookup(name).cloned().unwrap_or_else(SeqType::any),
            Expr::ContextItem(_) => SeqType::Of(ItemType::AnyItem, Occurrence::One),
            Expr::Comma(parts) => {
                let mut ty = SeqType::Empty;
                for p in parts {
                    let pt = self.infer(p, env);
                    ty = concat_types(&ty, &pt);
                }
                ty
            }
            Expr::Range(a, b) => {
                self.infer(a, env);
                self.infer(b, env);
                SeqType::Of(
                    ItemType::Atomic(AtomicType::Integer),
                    Occurrence::ZeroOrMore,
                )
            }
            Expr::Arith(_, a, b) => {
                let ta = self.infer(a, env);
                let tb = self.infer(b, env);
                let int = is_integerish(&ta) && is_integerish(&tb);
                // Arithmetic on () yields (); if neither side can be empty,
                // the result is exactly one number.
                let occ = if never_empty(&ta) && never_empty(&tb) {
                    Occurrence::One
                } else {
                    Occurrence::ZeroOrOne
                };
                SeqType::Of(
                    ItemType::Atomic(if int {
                        AtomicType::Integer
                    } else {
                        AtomicType::Double
                    }),
                    occ,
                )
            }
            Expr::Neg(e) => {
                self.infer(e, env);
                SeqType::Of(ItemType::Atomic(AtomicType::Double), Occurrence::ZeroOrOne)
            }
            Expr::GeneralCmp(_, a, b) => {
                self.infer(a, env);
                self.infer(b, env);
                atomic(AtomicType::Boolean)
            }
            Expr::ValueCmp(_, a, b) | Expr::NodeCmp(_, a, b) => {
                self.infer(a, env);
                self.infer(b, env);
                SeqType::Of(ItemType::Atomic(AtomicType::Boolean), Occurrence::ZeroOrOne)
            }
            Expr::SetExpr(_, a, b) => {
                self.infer(a, env);
                self.infer(b, env);
                nodes()
            }
            Expr::And(a, b) | Expr::Or(a, b) => {
                self.infer(a, env);
                self.infer(b, env);
                atomic(AtomicType::Boolean)
            }
            Expr::If(c, t, e) => {
                self.infer(c, env);
                let tt = self.infer(t, env);
                let te = self.infer(e, env);
                lub(&tt, &te)
            }
            Expr::Flwor {
                clauses,
                where_,
                order_by,
                return_,
            } => {
                let mark = env.mark();
                for clause in clauses {
                    match clause {
                        FlworClause::For { var, at, seq } => {
                            let st = self.infer(seq, env);
                            env.bind(var, item_of(&st));
                            if let Some(at) = at {
                                env.bind(at, atomic(AtomicType::Integer));
                            }
                        }
                        FlworClause::Let { var, ty, expr } => {
                            let inferred = self.infer(expr, env);
                            if let Some(declared) = ty {
                                if !subtype(&inferred, declared)
                                    && !might_narrow(&inferred, declared)
                                {
                                    self.diag(
                                        format!(
                                            "let ${var}: value of static type {inferred} cannot satisfy {declared}"
                                        ),
                                        None,
                                    );
                                }
                                env.bind(var, declared.clone());
                            } else {
                                env.bind(var, inferred);
                            }
                        }
                    }
                }
                if let Some(w) = where_ {
                    self.infer(w, env);
                }
                for o in order_by {
                    self.infer(&o.key, env);
                }
                let rt = self.infer(return_, env);
                env.pop_to(mark);
                match rt {
                    SeqType::Empty => SeqType::Empty,
                    SeqType::Of(item, _) => SeqType::Of(item, Occurrence::ZeroOrMore),
                }
            }
            Expr::Quantified {
                bindings,
                satisfies,
                ..
            } => {
                let mark = env.mark();
                for (var, seq) in bindings {
                    let st = self.infer(seq, env);
                    env.bind(var, item_of(&st));
                }
                self.infer(satisfies, env);
                env.pop_to(mark);
                atomic(AtomicType::Boolean)
            }
            Expr::Root(_) => SeqType::Of(ItemType::Document, Occurrence::One),
            Expr::AxisStep {
                axis,
                test,
                predicates,
                ..
            } => {
                for p in predicates {
                    self.infer(p, env);
                }
                step_type(*axis, test)
            }
            Expr::Path { start, steps } => {
                self.infer(start, env);
                let mut ty = nodes();
                for s in steps {
                    ty = self.infer(&s.expr, env);
                }
                match ty {
                    SeqType::Empty => SeqType::Empty,
                    SeqType::Of(item, _) => SeqType::Of(item, Occurrence::ZeroOrMore),
                }
            }
            Expr::Filter(base, predicates) => {
                let ty = self.infer(base, env);
                for p in predicates {
                    self.infer(p, env);
                }
                match ty {
                    SeqType::Empty => SeqType::Empty,
                    SeqType::Of(item, _) => SeqType::Of(item, add_zero(Occurrence::ZeroOrMore)),
                }
            }
            Expr::Call {
                name,
                args,
                position,
            } => self.infer_call(name, args, *position, env),
            Expr::DirectElement {
                name,
                attrs,
                content,
                ..
            } => {
                for (_, parts) in attrs {
                    for p in parts {
                        if let AttrPart::Enclosed(e) = p {
                            self.infer(e, env);
                        }
                    }
                }
                for c in content {
                    match c {
                        ContentPart::Enclosed(e) | ContentPart::Node(e) => {
                            self.infer(e, env);
                        }
                        ContentPart::Literal(_) => {}
                    }
                }
                SeqType::Of(ItemType::Element(Some(name.clone())), Occurrence::One)
            }
            Expr::CompElement { name, content, .. } => {
                if let ConstructorName::Computed(e) = name {
                    self.infer(e, env);
                }
                if let Some(c) = content {
                    self.infer(c, env);
                }
                let n = match name {
                    ConstructorName::Literal(s) => Some(s.clone()),
                    ConstructorName::Computed(_) => None,
                };
                SeqType::Of(ItemType::Element(n), Occurrence::One)
            }
            Expr::CompAttribute { name, value, .. } => {
                if let ConstructorName::Computed(e) = name {
                    self.infer(e, env);
                }
                if let Some(v) = value {
                    self.infer(v, env);
                }
                let n = match name {
                    ConstructorName::Literal(s) => Some(s.clone()),
                    ConstructorName::Computed(_) => None,
                };
                SeqType::Of(ItemType::Attribute(n), Occurrence::One)
            }
            Expr::CompText(e) => {
                self.infer(e, env);
                SeqType::Of(ItemType::Text, Occurrence::ZeroOrOne)
            }
            Expr::CompComment(e) => {
                self.infer(e, env);
                SeqType::Of(ItemType::Comment, Occurrence::One)
            }
            Expr::CompDocument { content, .. } => {
                self.infer(content, env);
                SeqType::Of(ItemType::Document, Occurrence::One)
            }
            Expr::TryCatch { try_, var, catch } => {
                let tt = self.infer(try_, env);
                let mark = env.mark();
                if let Some(v) = var {
                    env.bind(v, atomic(AtomicType::String));
                }
                let tc = self.infer(catch, env);
                env.pop_to(mark);
                lub(&tt, &tc)
            }
            Expr::TypeSwitch {
                operand,
                cases,
                default_var,
                default,
            } => {
                let op_ty = self.infer(operand, env);
                let mut result: Option<SeqType> = None;
                for case in cases {
                    let mark = env.mark();
                    if let Some(v) = &case.var {
                        env.bind(v, case.ty.clone());
                    }
                    let t = self.infer(&case.body, env);
                    env.pop_to(mark);
                    result = Some(match result {
                        None => t,
                        Some(r) => lub(&r, &t),
                    });
                }
                let mark = env.mark();
                if let Some(v) = default_var {
                    env.bind(v, op_ty);
                }
                let t = self.infer(default, env);
                env.pop_to(mark);
                match result {
                    None => t,
                    Some(r) => lub(&r, &t),
                }
            }
            Expr::InstanceOf(e, _) | Expr::CastableAs(e, _) => {
                self.infer(e, env);
                atomic(AtomicType::Boolean)
            }
            Expr::CastAs(e, ty, _) => {
                self.infer(e, env);
                ty.clone()
            }
        }
    }

    fn infer_call(
        &mut self,
        name: &str,
        args: &[Expr],
        position: (u32, u32),
        env: &mut TypeEnv,
    ) -> SeqType {
        let arg_types: Vec<SeqType> = args.iter().map(|a| self.infer(a, env)).collect();
        // User functions: check annotated parameters.
        if let Some(decl) = self.signatures.get(&(name.to_string(), args.len())) {
            let decl = *decl;
            for (param, arg_ty) in decl.params.iter().zip(arg_types.iter()) {
                if let Some(declared) = &param.ty {
                    if !subtype(arg_ty, declared) {
                        self.diag(
                            format!(
                                "argument ${} of {} is declared {declared}, but the value passed has static type {arg_ty}{}",
                                param.name,
                                decl.name,
                                if might_narrow(arg_ty, declared) {
                                    " — annotate the source of this value or add a cast"
                                } else {
                                    " — these types are disjoint"
                                }
                            ),
                            Some(position),
                        );
                    }
                }
            }
            return decl.return_type.clone().unwrap_or_else(SeqType::any);
        }
        // Builtins: coarse return types.
        builtin_return_type(name.strip_prefix("fn:").unwrap_or(name)).unwrap_or_else(SeqType::any)
    }
}

fn concat_types(a: &SeqType, b: &SeqType) -> SeqType {
    match (a, b) {
        (SeqType::Empty, t) | (t, SeqType::Empty) => t.clone(),
        (SeqType::Of(ia, _), SeqType::Of(ib, _)) => {
            SeqType::Of(item_lub(ia, ib), Occurrence::OneOrMore)
        }
    }
}

fn never_empty(t: &SeqType) -> bool {
    matches!(t, SeqType::Of(_, Occurrence::One | Occurrence::OneOrMore))
}

fn is_integerish(t: &SeqType) -> bool {
    matches!(
        t,
        SeqType::Of(
            ItemType::Atomic(AtomicType::Integer),
            Occurrence::One | Occurrence::ZeroOrOne
        )
    )
}

fn item_of(seq: &SeqType) -> SeqType {
    match seq {
        SeqType::Empty => SeqType::Of(ItemType::AnyItem, Occurrence::One),
        SeqType::Of(item, _) => SeqType::Of(item.clone(), Occurrence::One),
    }
}

fn step_type(axis: Axis, test: &NodeTest) -> SeqType {
    let item = match test {
        NodeTest::Name(n) => {
            if axis == Axis::Attribute {
                ItemType::Attribute(Some(n.clone()))
            } else {
                ItemType::Element(Some(n.clone()))
            }
        }
        NodeTest::AnyName => {
            if axis == Axis::Attribute {
                ItemType::Attribute(None)
            } else {
                ItemType::Element(None)
            }
        }
        NodeTest::AnyKind => ItemType::AnyNode,
        NodeTest::Text => ItemType::Text,
        NodeTest::Comment => ItemType::Comment,
        NodeTest::Pi => ItemType::Pi,
        NodeTest::Element(n) => ItemType::Element(n.clone()),
        NodeTest::AttributeTest(n) => ItemType::Attribute(n.clone()),
        NodeTest::Document => ItemType::Document,
    };
    SeqType::Of(item, Occurrence::ZeroOrMore)
}

fn builtin_return_type(name: &str) -> Option<SeqType> {
    use AtomicType::*;
    use ItemType::Atomic as A;
    use Occurrence::*;
    Some(match name {
        "count" | "string-length" | "position" | "last" => SeqType::Of(A(Integer), One),
        "string" | "concat" | "string-join" | "substring" | "normalize-space" | "upper-case"
        | "lower-case" | "translate" | "substring-before" | "substring-after" | "name"
        | "local-name" | "replace" => SeqType::Of(A(String), One),
        "node-name" => SeqType::Of(A(String), ZeroOrOne),
        "tokenize" => SeqType::Of(A(String), ZeroOrMore),
        "empty" | "exists" | "not" | "boolean" | "true" | "false" | "contains" | "starts-with"
        | "ends-with" | "deep-equal" => SeqType::Of(A(Boolean), One),
        "number" | "avg" => SeqType::Of(A(Double), ZeroOrOne),
        "abs" | "floor" | "ceiling" | "round" | "sum" => SeqType::Of(A(Double), ZeroOrOne),
        "min" | "max" => SeqType::Of(A(AnyAtomic), ZeroOrOne),
        "distinct-values" | "data" => SeqType::Of(A(AnyAtomic), ZeroOrMore),
        "index-of" => SeqType::Of(A(Integer), ZeroOrMore),
        "doc" | "root" => SeqType::Of(ItemType::AnyNode, One),
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_module;

    fn check(src: &str) -> Vec<StaticDiagnostic> {
        check_module(&parse_module(src).unwrap())
    }

    #[test]
    fn untyped_modules_are_silent() {
        // The mode the project ran in: no annotations, no complaints.
        let diags = check(
            r#"
            declare function local:f($a, $b) { ($a, $b, $a/kid) };
            local:f(1, <x/>)
            "#,
        );
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn annotating_a_utility_makes_callers_complain() {
        // The metastasis: annotate one function, its (unannotated) callers
        // now pass item()* where xs:string is demanded.
        let diags = check(
            r#"
            declare function local:shout($s as xs:string) { upper-case($s) };
            declare function local:caller($v) { local:shout($v) };
            local:caller("ok")
            "#,
        );
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert!(diags[0].message.contains("$s"), "{}", diags[0].message);
        assert_eq!(diags[0].in_function.as_deref(), Some("local:caller"));
        assert!(
            diags[0].message.contains("annotate the source"),
            "{}",
            diags[0].message
        );
    }

    #[test]
    fn annotating_the_caller_silences_it() {
        let diags = check(
            r#"
            declare function local:shout($s as xs:string) { upper-case($s) };
            declare function local:caller($v as xs:string) { local:shout($v) };
            local:caller("ok")
            "#,
        );
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn disjoint_types_are_flagged_as_impossible() {
        let diags = check(
            r#"
            declare function local:wants-string($s as xs:string) { $s };
            local:wants-string(1)
            "#,
        );
        assert_eq!(diags.len(), 1);
        assert!(
            diags[0].message.contains("disjoint"),
            "{}",
            diags[0].message
        );
    }

    #[test]
    fn literal_and_step_types_flow() {
        let diags = check(
            r#"
            declare function local:n($i as xs:integer) { $i };
            declare function local:el($e as element(point)) { $e };
            (local:n(42), local:el(<point/>), local:n(1 + 2))
            "#,
        );
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn return_type_mismatch_flagged() {
        let diags = check(
            r#"
            declare function local:f() as xs:integer { "nope" };
            local:f()
            "#,
        );
        assert_eq!(diags.len(), 1);
        assert!(
            diags[0].message.contains("return type"),
            "{}",
            diags[0].message
        );
    }

    #[test]
    fn for_binds_item_type() {
        let diags = check(
            r#"
            declare function local:one($e as element()) { $e };
            for $x in (<a/>, <b/>) return local:one($x)
            "#,
        );
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn integer_is_a_double() {
        let diags = check(
            r#"
            declare function local:d($x as xs:double) { $x };
            local:d(3)
            "#,
        );
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn subtype_lattice_sanity() {
        use crate::types::{AtomicType::*, ItemType::*, Occurrence::*};
        let int1 = SeqType::Of(Atomic(Integer), One);
        let dbl01 = SeqType::Of(Atomic(Double), ZeroOrOne);
        let any = SeqType::any();
        assert!(subtype(&int1, &dbl01));
        assert!(subtype(&int1, &any));
        assert!(!subtype(&any, &int1));
        assert!(!subtype(&dbl01, &int1));
        assert!(subtype(&SeqType::Empty, &dbl01));
        assert!(!subtype(&SeqType::Empty, &int1));
        let el = SeqType::Of(Element(Some("a".into())), One);
        assert!(subtype(&el, &SeqType::Of(Element(None), ZeroOrMore)));
        assert!(subtype(&el, &SeqType::Of(AnyNode, One)));
        assert_eq!(lub(&int1, &dbl01), dbl01);
    }
}
