//! The abstract syntax of the XQuery subset.

use crate::types::SeqType;
use crate::value::Atomic;

/// A compiled query module: prolog declarations plus the body expression.
#[derive(Debug, Clone)]
pub struct Module {
    pub functions: Vec<FunctionDecl>,
    pub variables: Vec<VarDecl>,
    pub options: Vec<(String, String)>,
    pub body: Expr,
}

/// `declare function local:name($p as T, …) as T { body };`
#[derive(Debug, Clone)]
pub struct FunctionDecl {
    pub name: String,
    pub params: Vec<Param>,
    pub return_type: Option<SeqType>,
    pub body: Expr,
    pub position: (u32, u32),
}

/// One function parameter.
#[derive(Debug, Clone)]
pub struct Param {
    pub name: String,
    pub ty: Option<SeqType>,
}

/// `declare variable $name := expr;`
#[derive(Debug, Clone)]
pub struct VarDecl {
    pub name: String,
    pub ty: Option<SeqType>,
    pub expr: Expr,
}

/// Binary arithmetic operators. Note `Div` is spelled `div` in the surface
/// syntax — `/` means "go to a child", the paper's quirk #2.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArithOp {
    Add,
    Sub,
    Mul,
    Div,
    IDiv,
    Mod,
}

/// Comparison operators, shared by general (`=`) and value (`eq`) forms.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

/// Node-set operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SetOp {
    /// `union` / `|`
    Union,
    /// `intersect`
    Intersect,
    /// `except`
    Except,
}

/// Node comparison operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeCmpOp {
    /// `is` — same node identity.
    Is,
    /// `<<` — left precedes right in document order.
    Precedes,
    /// `>>` — left follows right in document order.
    Follows,
}

/// XPath axes supported by the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Axis {
    Child,
    Descendant,
    DescendantOrSelf,
    Attribute,
    SelfAxis,
    Parent,
    Ancestor,
    AncestorOrSelf,
    FollowingSibling,
    PrecedingSibling,
}

/// A node test within an axis step.
#[derive(Debug, Clone, PartialEq)]
pub enum NodeTest {
    /// `name` or `prefix:name`
    Name(String),
    /// `*`
    AnyName,
    /// `node()`
    AnyKind,
    /// `text()`
    Text,
    /// `comment()`
    Comment,
    /// `processing-instruction()`
    Pi,
    /// `element()` / `element(name)`
    Element(Option<String>),
    /// `attribute()` / `attribute(name)`
    AttributeTest(Option<String>),
    /// `document-node()`
    Document,
}

/// FLWOR clauses in source order (`for` and `let` may interleave).
#[derive(Debug, Clone)]
pub enum FlworClause {
    For {
        var: String,
        at: Option<String>,
        seq: Expr,
    },
    Let {
        var: String,
        ty: Option<SeqType>,
        expr: Expr,
    },
}

/// One `order by` key.
#[derive(Debug, Clone)]
pub struct OrderSpec {
    pub key: Expr,
    pub descending: bool,
    pub empty_least: bool,
}

/// `some` / `every`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Quantifier {
    Some,
    Every,
}

/// A piece of a direct-constructor attribute value: literal text or an
/// enclosed `{expr}`.
#[derive(Debug, Clone)]
pub enum AttrPart {
    Literal(String),
    Enclosed(Expr),
}

/// A piece of direct-constructor element content.
#[derive(Debug, Clone)]
pub enum ContentPart {
    /// Literal character data (entities already resolved).
    Literal(String),
    /// `{ expr }` — evaluated, space-joining adjacent atomics.
    Enclosed(Expr),
    /// A nested direct constructor or comment constructor.
    Node(Expr),
}

/// One `case` branch of a `typeswitch`.
#[derive(Debug, Clone)]
pub struct TypeCase {
    pub var: Option<String>,
    pub ty: SeqType,
    pub body: Expr,
}

/// The name of a computed constructor: literal, or computed at runtime
/// (`element {name($n)} {…}` — what generic identity transforms need).
#[derive(Debug, Clone)]
pub enum ConstructorName {
    Literal(String),
    Computed(Box<Expr>),
}

/// One step of a path expression after the first; `double_slash` records
/// whether it was written `//step` (descendant-or-self expansion).
#[derive(Debug, Clone)]
pub struct PathStep {
    pub double_slash: bool,
    pub expr: Expr,
}

/// Builds a tree's two child walks from one child-listing `match`:
/// `for_each_child` lends each direct child shared, `for_each_child_mut`
/// lends it mutably, both in source order. The arms bind children through
/// match ergonomics, so the same text borrows as the walk does; every walk
/// of the AST and of the lowered [`crate::lower::LExpr`] goes through the
/// two methods, and a new variant is listed once.
macro_rules! child_walks {
    (|$node:ident, $f:ident| $children:expr) => {
        /// Calls `f` on each direct child expression, in source order.
        pub fn for_each_child<'t>(&'t self, $f: &mut impl FnMut(&'t Self)) {
            let $node = self;
            $children
        }

        /// [`Self::for_each_child`], lending each child mutably.
        pub fn for_each_child_mut(&mut self, $f: &mut impl FnMut(&mut Self)) {
            let $node = self;
            $children
        }
    };
}
pub(crate) use child_walks;

/// Expressions.
#[derive(Debug, Clone)]
pub enum Expr {
    /// A literal atomic value.
    Literal(Atomic),
    /// `$name` — note dashes are name characters, so `$n-1` is one of these.
    VarRef(String, (u32, u32)),
    /// `.`
    ContextItem((u32, u32)),
    /// `(e1, e2, …)` — constructs a *flat* sequence.
    Comma(Vec<Expr>),
    /// `e1 to e2`
    Range(Box<Expr>, Box<Expr>),
    /// Arithmetic.
    Arith(ArithOp, Box<Expr>, Box<Expr>),
    /// Unary minus.
    Neg(Box<Expr>),
    /// General comparison (existential): `$x = $y` is true when the
    /// sequences have at least one pair of equal members.
    GeneralCmp(CmpOp, Box<Expr>, Box<Expr>),
    /// Value comparison (singleton): `eq`, `ne`, `lt`, `le`, `gt`, `ge`.
    ValueCmp(CmpOp, Box<Expr>, Box<Expr>),
    /// Node comparison: `is`, `<<`, `>>`.
    NodeCmp(NodeCmpOp, Box<Expr>, Box<Expr>),
    /// Node-set operation: `union`/`|`, `intersect`, `except` — result in
    /// document order, duplicates removed.
    SetExpr(SetOp, Box<Expr>, Box<Expr>),
    And(Box<Expr>, Box<Expr>),
    Or(Box<Expr>, Box<Expr>),
    If(Box<Expr>, Box<Expr>, Box<Expr>),
    Flwor {
        clauses: Vec<FlworClause>,
        where_: Option<Box<Expr>>,
        order_by: Vec<OrderSpec>,
        return_: Box<Expr>,
    },
    Quantified {
        quantifier: Quantifier,
        bindings: Vec<(String, Expr)>,
        satisfies: Box<Expr>,
    },
    /// `/` — the root of the tree containing the context node.
    Root((u32, u32)),
    /// An axis step with predicates, evaluated against the focus.
    AxisStep {
        axis: Axis,
        test: NodeTest,
        predicates: Vec<Expr>,
        position: (u32, u32),
    },
    /// `start/step/…` — each step evaluated once per item of the previous
    /// result, with node results deduplicated and document-ordered.
    Path {
        start: Box<Expr>,
        steps: Vec<PathStep>,
    },
    /// `primary[pred]…`
    Filter(Box<Expr>, Vec<Expr>),
    /// A function call (builtin or user-declared).
    Call {
        name: String,
        args: Vec<Expr>,
        position: (u32, u32),
    },
    /// `<name attr="…">content</name>`
    DirectElement {
        name: String,
        attrs: Vec<(String, Vec<AttrPart>)>,
        content: Vec<ContentPart>,
        position: (u32, u32),
    },
    /// `element name { content }` / `element {name-expr} { content }`
    CompElement {
        name: ConstructorName,
        content: Option<Box<Expr>>,
        position: (u32, u32),
    },
    /// `attribute name { value }` / `attribute {name-expr} { value }`
    CompAttribute {
        name: ConstructorName,
        value: Option<Box<Expr>>,
        position: (u32, u32),
    },
    /// `text { value }`
    CompText(Box<Expr>),
    /// `<!-- … -->` in a constructor, or `comment { value }`.
    CompComment(Box<Expr>),
    /// `document { content }`
    CompDocument {
        content: Box<Expr>,
        position: (u32, u32),
    },
    /// `try { e } catch ($v)? { e }` — the paper's moral #4 ("a little
    /// language should provide exception handling"), which XQuery 3.0
    /// eventually adopted. The catch variable receives the error message.
    TryCatch {
        try_: Box<Expr>,
        var: Option<String>,
        catch: Box<Expr>,
    },
    /// `typeswitch (e) case ($v as)? T return e … default ($v)? return e`
    TypeSwitch {
        operand: Box<Expr>,
        cases: Vec<TypeCase>,
        default_var: Option<String>,
        default: Box<Expr>,
    },
    /// `e instance of T`
    InstanceOf(Box<Expr>, SeqType),
    /// `e cast as xs:T`
    CastAs(Box<Expr>, SeqType, (u32, u32)),
    /// `e castable as xs:T`
    CastableAs(Box<Expr>, SeqType),
}

impl Expr {
    /// Source position of the expression, when one was recorded.
    pub fn position(&self) -> Option<(u32, u32)> {
        match self {
            Expr::VarRef(_, p)
            | Expr::ContextItem(p)
            | Expr::Root(p)
            | Expr::AxisStep { position: p, .. }
            | Expr::Call { position: p, .. }
            | Expr::DirectElement { position: p, .. }
            | Expr::CompElement { position: p, .. }
            | Expr::CompAttribute { position: p, .. }
            | Expr::CastAs(_, _, p) => Some(*p),
            _ => None,
        }
    }

    child_walks!(|node, f| match node {
        Expr::Literal(_) | Expr::VarRef(..) | Expr::ContextItem(_) | Expr::Root(_) => {}
        Expr::Comma(parts) => {
            for p in parts {
                f(p);
            }
        }
        Expr::Range(a, b)
        | Expr::Arith(_, a, b)
        | Expr::GeneralCmp(_, a, b)
        | Expr::ValueCmp(_, a, b)
        | Expr::NodeCmp(_, a, b)
        | Expr::SetExpr(_, a, b)
        | Expr::And(a, b)
        | Expr::Or(a, b) => {
            f(a);
            f(b);
        }
        Expr::Neg(e)
        | Expr::CompText(e)
        | Expr::CompComment(e)
        | Expr::CompDocument { content: e, .. } => f(e),
        Expr::If(c, t, e) => {
            f(c);
            f(t);
            f(e);
        }
        Expr::Flwor {
            clauses,
            where_,
            order_by,
            return_,
        } => {
            for c in clauses {
                match c {
                    FlworClause::For { seq, .. } => f(seq),
                    FlworClause::Let { expr, .. } => f(expr),
                }
            }
            if let Some(w) = where_ {
                f(w);
            }
            for OrderSpec { key, .. } in order_by {
                f(key);
            }
            f(return_);
        }
        Expr::Quantified {
            bindings,
            satisfies,
            ..
        } => {
            for (_, e) in bindings {
                f(e);
            }
            f(satisfies);
        }
        Expr::AxisStep { predicates, .. } => {
            for p in predicates {
                f(p);
            }
        }
        Expr::Path { start, steps } => {
            f(start);
            for PathStep { expr, .. } in steps {
                f(expr);
            }
        }
        Expr::Filter(base, predicates) => {
            f(base);
            for p in predicates {
                f(p);
            }
        }
        Expr::Call { args, .. } => {
            for a in args {
                f(a);
            }
        }
        Expr::DirectElement { attrs, content, .. } => {
            for (_, parts) in attrs {
                for p in parts {
                    if let AttrPart::Enclosed(e) = p {
                        f(e);
                    }
                }
            }
            for c in content {
                match c {
                    ContentPart::Enclosed(e) | ContentPart::Node(e) => f(e),
                    ContentPart::Literal(_) => {}
                }
            }
        }
        Expr::CompElement { name, content, .. } => {
            if let ConstructorName::Computed(e) = name {
                f(e);
            }
            if let Some(c) = content {
                f(c);
            }
        }
        Expr::CompAttribute { name, value, .. } => {
            if let ConstructorName::Computed(e) = name {
                f(e);
            }
            if let Some(v) = value {
                f(v);
            }
        }
        Expr::TypeSwitch {
            operand,
            cases,
            default,
            ..
        } => {
            f(operand);
            for TypeCase { body, .. } in cases {
                f(body);
            }
            f(default);
        }
        Expr::TryCatch { try_, catch, .. } => {
            f(try_);
            f(catch);
        }
        Expr::InstanceOf(e, _) | Expr::CastAs(e, _, _) | Expr::CastableAs(e, _) => f(e),
    });
}
