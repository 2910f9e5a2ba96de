//! Recursive-descent parser for the XQuery subset.
//!
//! The parser drives a [`Cursor`] directly (see [`crate::lexer`] for why
//! there is no token stream), handling XQuery's context sensitivity by
//! *position*: `<` is a direct element constructor where a primary
//! expression is expected and the less-than operator after an operand;
//! keywords are recognized only where the grammar allows them, so `for`,
//! `if`, and friends remain usable as element names in paths.

use crate::ast::*;
use crate::error::{Error, Result};
use crate::lexer::{Cursor, NumberLit};
use crate::types::{AtomicType, ItemType, Occurrence, SeqType};
use crate::value::Atomic;

/// Parses a complete query (prolog + body).
pub fn parse_module(source: &str) -> Result<Module> {
    let mut p = Parser {
        cur: Cursor::new(source),
        depth: 0,
        deepest: 0,
    };
    let module = p.module()?;
    p.cur.skip_ws()?;
    if !p.cur.at_end() {
        return Err(p.cur.error("unexpected content after the query body"));
    }
    Ok(module)
}

/// Parses a single expression (no prolog).
pub fn parse_expr(source: &str) -> Result<Expr> {
    let mut p = Parser {
        cur: Cursor::new(source),
        depth: 0,
        deepest: 0,
    };
    let e = p.expr()?;
    p.cur.skip_ws()?;
    if !p.cur.at_end() {
        return Err(p.cur.error("unexpected content after the expression"));
    }
    Ok(e)
}

/// Kind-test names that can never be function calls.
const RESERVED_FN_NAMES: &[&str] = &[
    "if",
    "typeswitch",
    "node",
    "text",
    "comment",
    "processing-instruction",
    "element",
    "attribute",
    "document-node",
    "empty-sequence",
    "item",
];

/// Guard against adversarially deep nesting (`((((((…`, `- - - 1`,
/// `1+1+…`, `<a><a>…`): the parser, every later pass, the runner and `Drop`
/// recurse over the tree, so its depth is bounded, not only the parser's.
const MAX_NESTING: usize = 200;

struct Parser<'a> {
    cur: Cursor<'a>,
    /// Tree levels charged along the current parse path (see `descend`).
    depth: usize,
    /// The deepest tree level reached since the innermost open operator
    /// chain began (see `chain_start`).
    deepest: usize,
}

impl<'a> Parser<'a> {
    // ------------------------------------------------------------------
    // Prolog
    // ------------------------------------------------------------------

    fn module(&mut self) -> Result<Module> {
        let mut functions = Vec::new();
        let mut variables = Vec::new();
        let mut options = Vec::new();

        // `xquery version "1.0";` — accepted and ignored.
        let mark = self.cur.clone();
        if self.cur.take_keyword("xquery")? && self.cur.take_keyword("version")? {
            let _ = self.cur.take_string_literal()?;
            self.expect_symbol(";")?;
        } else {
            self.cur = mark;
        }

        loop {
            let mark = self.cur.clone();
            if !self.cur.take_keyword("declare")? {
                break;
            }
            if self.cur.take_keyword("function")? {
                functions.push(self.function_decl()?);
            } else if self.cur.take_keyword("variable")? {
                variables.push(self.var_decl()?);
            } else if self.cur.take_keyword("option")? {
                let name = self.cur.take_name()?;
                let value = self.cur.take_string_literal()?;
                self.expect_symbol(";")?;
                options.push((name, value));
            } else if self.cur.take_keyword("namespace")? {
                // Recorded but unused: prefixes are literal in this engine.
                let name = self.cur.take_name()?;
                self.expect_symbol("=")?;
                let uri = self.cur.take_string_literal()?;
                self.expect_symbol(";")?;
                options.push((format!("namespace:{name}"), uri));
            } else {
                // Not a declaration we know — perhaps `declare` is a path
                // step in the body. Back out.
                self.cur = mark;
                break;
            }
        }

        let body = self.expr()?;
        Ok(Module {
            functions,
            variables,
            options,
            body,
        })
    }

    fn function_decl(&mut self) -> Result<FunctionDecl> {
        let position = self.cur.position();
        let name = self.cur.take_name()?;
        self.expect_symbol("(")?;
        let mut params = Vec::new();
        if !self.cur.peek_symbol(")")? {
            loop {
                self.expect_symbol("$")?;
                let pname = self.cur.take_name()?;
                let ty = if self.cur.take_keyword("as")? {
                    Some(self.seq_type()?)
                } else {
                    None
                };
                params.push(Param { name: pname, ty });
                if !self.cur.take_symbol(",")? {
                    break;
                }
            }
        }
        self.expect_symbol(")")?;
        let return_type = if self.cur.take_keyword("as")? {
            Some(self.seq_type()?)
        } else {
            None
        };
        self.expect_symbol("{")?;
        let body = self.expr()?;
        self.expect_symbol("}")?;
        self.expect_symbol(";")?;
        Ok(FunctionDecl {
            name,
            params,
            return_type,
            body,
            position,
        })
    }

    fn var_decl(&mut self) -> Result<VarDecl> {
        self.expect_symbol("$")?;
        let name = self.cur.take_name()?;
        let ty = if self.cur.take_keyword("as")? {
            Some(self.seq_type()?)
        } else {
            None
        };
        self.expect_symbol(":=")?;
        let expr = self.expr_single()?;
        self.expect_symbol(";")?;
        Ok(VarDecl { name, ty, expr })
    }

    // ------------------------------------------------------------------
    // Expressions
    // ------------------------------------------------------------------

    fn expect_symbol(&mut self, s: &str) -> Result<()> {
        if self.cur.take_symbol(s)? {
            Ok(())
        } else {
            Err(self.cur.error(format!("expected {s:?}")))
        }
    }

    /// Expr := ExprSingle ("," ExprSingle)*
    fn expr(&mut self) -> Result<Expr> {
        let first = self.expr_single()?;
        if !self.cur.peek_symbol(",")? {
            return Ok(first);
        }
        let mut parts = vec![first];
        while self.cur.take_symbol(",")? {
            parts.push(self.expr_single()?);
        }
        Ok(Expr::Comma(parts))
    }

    fn expr_single(&mut self) -> Result<Expr> {
        self.descend(1)?;
        let result = self.expr_single_inner();
        self.depth -= 1;
        result
    }

    /// Charges `levels` tree levels to the nesting budget; the caller gives
    /// them back when the construct is parsed.
    fn descend(&mut self, levels: usize) -> Result<()> {
        let depth = self.depth.saturating_add(levels);
        if depth > MAX_NESTING {
            return Err(self.nesting_error());
        }
        self.depth = depth;
        self.deepest = self.deepest.max(depth);
        Ok(())
    }

    fn nesting_error(&self) -> Error {
        self.cur.error(format!(
            "expression nesting deeper than {MAX_NESTING} levels"
        ))
    }

    /// Starts a left-associative operator chain (`a + b + c`); returns the
    /// deepest level reached before it, for `chain_end`.
    fn chain_start(&mut self) -> usize {
        std::mem::replace(&mut self.deepest, self.depth)
    }

    /// Parses the right operand of one chain operator. The operator's node
    /// sits one level above the deeper of the chain so far and this operand,
    /// so the chain is charged the height of the tree it builds.
    fn chain_operand(&mut self, operand: fn(&mut Self) -> Result<Expr>) -> Result<Expr> {
        let left = std::mem::replace(&mut self.deepest, self.depth);
        let right = operand(self)?;
        self.deepest = left.max(self.deepest) + 1;
        if self.deepest > MAX_NESTING {
            return Err(self.nesting_error());
        }
        Ok(right)
    }

    fn chain_end(&mut self, outer: usize) {
        self.deepest = self.deepest.max(outer);
    }

    fn expr_single_inner(&mut self) -> Result<Expr> {
        // FLWOR: `for $…` / `let $…` (a bare `for` may be a path step).
        if self.keyword_then_dollar("for")? || self.keyword_then_dollar("let")? {
            return self.flwor();
        }
        if self.keyword_then_dollar("some")? {
            return self.quantified(Quantifier::Some);
        }
        if self.keyword_then_dollar("every")? {
            return self.quantified(Quantifier::Every);
        }
        if self.keyword_then_paren("if")? {
            return self.if_expr();
        }
        if self.keyword_then_paren("typeswitch")? {
            return self.typeswitch();
        }
        if self.keyword_then_brace("try")? {
            return self.try_catch();
        }
        self.or_expr()
    }

    fn keyword_then_brace(&mut self, kw: &str) -> Result<bool> {
        let mark = self.cur.clone();
        let hit = self.cur.take_keyword(kw)? && self.cur.peek_symbol("{")?;
        self.cur = mark;
        Ok(hit)
    }

    /// `try { E } catch ($v)? { E }` — the extension the paper's moral #4
    /// calls for (XQuery 3.0 later standardized a richer form).
    fn try_catch(&mut self) -> Result<Expr> {
        self.cur.take_keyword("try")?;
        self.expect_symbol("{")?;
        let try_ = self.expr()?;
        self.expect_symbol("}")?;
        if !self.cur.take_keyword("catch")? {
            return Err(self.cur.error("expected 'catch' after try { … }"));
        }
        let var = if self.cur.take_symbol("(")? {
            self.expect_symbol("$")?;
            let v = self.cur.take_name()?;
            self.expect_symbol(")")?;
            Some(v)
        } else {
            None
        };
        // Accept and ignore an XQuery 3.0-style `*` name test.
        let _ = self.cur.take_symbol("*")?;
        self.expect_symbol("{")?;
        let catch = self.expr()?;
        self.expect_symbol("}")?;
        Ok(Expr::TryCatch {
            try_: Box::new(try_),
            var,
            catch: Box::new(catch),
        })
    }

    /// `typeswitch (E) (case ($v as)? T return E)+ default ($v)? return E`
    fn typeswitch(&mut self) -> Result<Expr> {
        self.cur.take_keyword("typeswitch")?;
        self.expect_symbol("(")?;
        let operand = self.expr()?;
        self.expect_symbol(")")?;
        let mut cases = Vec::new();
        while self.cur.take_keyword("case")? {
            let var = if self.cur.peek_symbol("$")? {
                self.expect_symbol("$")?;
                let v = self.cur.take_name()?;
                if !self.cur.take_keyword("as")? {
                    return Err(self.cur.error("expected 'as' after the case variable"));
                }
                Some(v)
            } else {
                None
            };
            let ty = self.seq_type()?;
            if !self.cur.take_keyword("return")? {
                return Err(self.cur.error("expected 'return' in typeswitch case"));
            }
            let body = self.expr_single()?;
            cases.push(TypeCase { var, ty, body });
        }
        if cases.is_empty() {
            return Err(self.cur.error("typeswitch requires at least one case"));
        }
        if !self.cur.take_keyword("default")? {
            return Err(self.cur.error("expected 'default' in typeswitch"));
        }
        let default_var = if self.cur.peek_symbol("$")? {
            self.expect_symbol("$")?;
            Some(self.cur.take_name()?)
        } else {
            None
        };
        if !self.cur.take_keyword("return")? {
            return Err(self.cur.error("expected 'return' after 'default'"));
        }
        let default = Box::new(self.expr_single()?);
        Ok(Expr::TypeSwitch {
            operand: Box::new(operand),
            cases,
            default_var,
            default,
        })
    }

    /// Lookahead: keyword followed by `$` without consuming anything.
    fn keyword_then_dollar(&mut self, kw: &str) -> Result<bool> {
        let mark = self.cur.clone();
        let hit = self.cur.take_keyword(kw)? && self.cur.peek_symbol("$")?;
        self.cur = mark;
        Ok(hit)
    }

    fn keyword_then_paren(&mut self, kw: &str) -> Result<bool> {
        let mark = self.cur.clone();
        let hit = self.cur.take_keyword(kw)? && self.cur.peek_symbol("(")?;
        self.cur = mark;
        Ok(hit)
    }

    fn flwor(&mut self) -> Result<Expr> {
        let mut clauses = Vec::new();
        loop {
            if self.keyword_then_dollar("for")? {
                self.cur.take_keyword("for")?;
                loop {
                    self.expect_symbol("$")?;
                    let var = self.cur.take_name()?;
                    let at = if self.cur.take_keyword("at")? {
                        self.expect_symbol("$")?;
                        Some(self.cur.take_name()?)
                    } else {
                        None
                    };
                    if !self.cur.take_keyword("in")? {
                        return Err(self.cur.error("expected 'in' in for clause"));
                    }
                    let seq = self.expr_single()?;
                    clauses.push(FlworClause::For { var, at, seq });
                    if !self.cur.take_symbol(",")? {
                        break;
                    }
                }
            } else if self.keyword_then_dollar("let")? {
                self.cur.take_keyword("let")?;
                loop {
                    self.expect_symbol("$")?;
                    let var = self.cur.take_name()?;
                    let ty = if self.cur.take_keyword("as")? {
                        Some(self.seq_type()?)
                    } else {
                        None
                    };
                    self.expect_symbol(":=")?;
                    let expr = self.expr_single()?;
                    clauses.push(FlworClause::Let { var, ty, expr });
                    if !self.cur.take_symbol(",")? {
                        break;
                    }
                }
            } else {
                break;
            }
        }

        let where_ = if self.cur.take_keyword("where")? {
            Some(Box::new(self.expr_single()?))
        } else {
            None
        };

        let mut order_by = Vec::new();
        let stable = {
            let mark = self.cur.clone();
            if self.cur.take_keyword("stable")? && self.cur.peek_keyword("order")? {
                true
            } else {
                self.cur = mark;
                false
            }
        };
        let _ = stable; // ordering is always stable in this engine
        if self.cur.take_keyword("order")? {
            if !self.cur.take_keyword("by")? {
                return Err(self.cur.error("expected 'by' after 'order'"));
            }
            loop {
                let key = self.expr_single()?;
                let descending = if self.cur.take_keyword("descending")? {
                    true
                } else {
                    let _ = self.cur.take_keyword("ascending")?;
                    false
                };
                let mut empty_least = true;
                if self.cur.take_keyword("empty")? {
                    if self.cur.take_keyword("greatest")? {
                        empty_least = false;
                    } else if !self.cur.take_keyword("least")? {
                        return Err(self.cur.error("expected 'least' or 'greatest'"));
                    }
                }
                order_by.push(OrderSpec {
                    key,
                    descending,
                    empty_least,
                });
                if !self.cur.take_symbol(",")? {
                    break;
                }
            }
        }

        if !self.cur.take_keyword("return")? {
            return Err(self.cur.error("expected 'return' in FLWOR expression"));
        }
        let return_ = Box::new(self.expr_single()?);
        Ok(Expr::Flwor {
            clauses,
            where_,
            order_by,
            return_,
        })
    }

    fn quantified(&mut self, quantifier: Quantifier) -> Result<Expr> {
        // Consume `some` / `every`.
        let kw = match quantifier {
            Quantifier::Some => "some",
            Quantifier::Every => "every",
        };
        self.cur.take_keyword(kw)?;
        let mut bindings = Vec::new();
        loop {
            self.expect_symbol("$")?;
            let var = self.cur.take_name()?;
            if !self.cur.take_keyword("in")? {
                return Err(self.cur.error("expected 'in' in quantified expression"));
            }
            let seq = self.expr_single()?;
            bindings.push((var, seq));
            if !self.cur.take_symbol(",")? {
                break;
            }
        }
        if !self.cur.take_keyword("satisfies")? {
            return Err(self.cur.error("expected 'satisfies'"));
        }
        let satisfies = Box::new(self.expr_single()?);
        Ok(Expr::Quantified {
            quantifier,
            bindings,
            satisfies,
        })
    }

    fn if_expr(&mut self) -> Result<Expr> {
        self.cur.take_keyword("if")?;
        self.expect_symbol("(")?;
        let cond = self.expr()?;
        self.expect_symbol(")")?;
        if !self.cur.take_keyword("then")? {
            return Err(self.cur.error("expected 'then'"));
        }
        let then = self.expr_single()?;
        if !self.cur.take_keyword("else")? {
            return Err(self.cur.error("expected 'else'"));
        }
        let els = self.expr_single()?;
        Ok(Expr::If(Box::new(cond), Box::new(then), Box::new(els)))
    }

    fn or_expr(&mut self) -> Result<Expr> {
        let outer = self.chain_start();
        let mut left = self.and_expr()?;
        while self.cur.take_keyword("or")? {
            let right = self.chain_operand(Self::and_expr)?;
            left = Expr::Or(Box::new(left), Box::new(right));
        }
        self.chain_end(outer);
        Ok(left)
    }

    fn and_expr(&mut self) -> Result<Expr> {
        let outer = self.chain_start();
        let mut left = self.comparison_expr()?;
        while self.cur.take_keyword("and")? {
            let right = self.chain_operand(Self::comparison_expr)?;
            left = Expr::And(Box::new(left), Box::new(right));
        }
        self.chain_end(outer);
        Ok(left)
    }

    fn comparison_expr(&mut self) -> Result<Expr> {
        let left = self.range_expr()?;
        // Value comparisons (singleton operators).
        for (kw, op) in [
            ("eq", CmpOp::Eq),
            ("ne", CmpOp::Ne),
            ("lt", CmpOp::Lt),
            ("le", CmpOp::Le),
            ("gt", CmpOp::Gt),
            ("ge", CmpOp::Ge),
        ] {
            if self.cur.take_keyword(kw)? {
                let right = self.range_expr()?;
                return Ok(Expr::ValueCmp(op, Box::new(left), Box::new(right)));
            }
        }
        // Node comparisons: `is` and the document-order operators, before
        // `<`/`>` so `<<` is not taken as less-than.
        if self.cur.take_keyword("is")? {
            let right = self.range_expr()?;
            return Ok(Expr::NodeCmp(
                NodeCmpOp::Is,
                Box::new(left),
                Box::new(right),
            ));
        }
        if self.cur.take_symbol("<<")? {
            let right = self.range_expr()?;
            return Ok(Expr::NodeCmp(
                NodeCmpOp::Precedes,
                Box::new(left),
                Box::new(right),
            ));
        }
        if self.cur.take_symbol(">>")? {
            let right = self.range_expr()?;
            return Ok(Expr::NodeCmp(
                NodeCmpOp::Follows,
                Box::new(left),
                Box::new(right),
            ));
        }
        // General comparisons — longest symbols first.
        for (sym, op) in [
            ("!=", CmpOp::Ne),
            ("<=", CmpOp::Le),
            (">=", CmpOp::Ge),
            ("=", CmpOp::Eq),
            ("<", CmpOp::Lt),
            (">", CmpOp::Gt),
        ] {
            if self.cur.take_symbol(sym)? {
                let right = self.range_expr()?;
                return Ok(Expr::GeneralCmp(op, Box::new(left), Box::new(right)));
            }
        }
        Ok(left)
    }

    fn range_expr(&mut self) -> Result<Expr> {
        let left = self.additive_expr()?;
        if self.cur.take_keyword("to")? {
            let right = self.additive_expr()?;
            return Ok(Expr::Range(Box::new(left), Box::new(right)));
        }
        Ok(left)
    }

    fn additive_expr(&mut self) -> Result<Expr> {
        let outer = self.chain_start();
        let mut left = self.multiplicative_expr()?;
        loop {
            if self.cur.take_symbol("+")? {
                let right = self.chain_operand(Self::multiplicative_expr)?;
                left = Expr::Arith(ArithOp::Add, Box::new(left), Box::new(right));
            } else if self.cur.take_symbol("-")? {
                let right = self.chain_operand(Self::multiplicative_expr)?;
                left = Expr::Arith(ArithOp::Sub, Box::new(left), Box::new(right));
            } else {
                self.chain_end(outer);
                return Ok(left);
            }
        }
    }

    fn multiplicative_expr(&mut self) -> Result<Expr> {
        let outer = self.chain_start();
        let mut left = self.union_expr()?;
        loop {
            // `div`, `idiv`, `mod` are *names*: `/` means "go to a child".
            if self.cur.take_symbol("*")? {
                let right = self.chain_operand(Self::union_expr)?;
                left = Expr::Arith(ArithOp::Mul, Box::new(left), Box::new(right));
            } else if self.cur.take_keyword("div")? {
                let right = self.chain_operand(Self::union_expr)?;
                left = Expr::Arith(ArithOp::Div, Box::new(left), Box::new(right));
            } else if self.cur.take_keyword("idiv")? {
                let right = self.chain_operand(Self::union_expr)?;
                left = Expr::Arith(ArithOp::IDiv, Box::new(left), Box::new(right));
            } else if self.cur.take_keyword("mod")? {
                let right = self.chain_operand(Self::union_expr)?;
                left = Expr::Arith(ArithOp::Mod, Box::new(left), Box::new(right));
            } else {
                self.chain_end(outer);
                return Ok(left);
            }
        }
    }

    /// UnionExpr := IntersectExceptExpr (("union" | "|") IntersectExceptExpr)*
    fn union_expr(&mut self) -> Result<Expr> {
        let outer = self.chain_start();
        let mut left = self.intersect_except_expr()?;
        loop {
            if self.cur.take_keyword("union")? || self.cur.take_symbol("|")? {
                let right = self.chain_operand(Self::intersect_except_expr)?;
                left = Expr::SetExpr(SetOp::Union, Box::new(left), Box::new(right));
            } else {
                self.chain_end(outer);
                return Ok(left);
            }
        }
    }

    fn intersect_except_expr(&mut self) -> Result<Expr> {
        let outer = self.chain_start();
        let mut left = self.instanceof_expr()?;
        loop {
            if self.cur.take_keyword("intersect")? {
                let right = self.chain_operand(Self::instanceof_expr)?;
                left = Expr::SetExpr(SetOp::Intersect, Box::new(left), Box::new(right));
            } else if self.cur.take_keyword("except")? {
                let right = self.chain_operand(Self::instanceof_expr)?;
                left = Expr::SetExpr(SetOp::Except, Box::new(left), Box::new(right));
            } else {
                self.chain_end(outer);
                return Ok(left);
            }
        }
    }

    fn instanceof_expr(&mut self) -> Result<Expr> {
        let left = self.cast_expr()?;
        let mark = self.cur.clone();
        if self.cur.take_keyword("instance")? {
            if self.cur.take_keyword("of")? {
                let ty = self.seq_type()?;
                return Ok(Expr::InstanceOf(Box::new(left), ty));
            }
            self.cur = mark;
        }
        Ok(left)
    }

    fn cast_expr(&mut self) -> Result<Expr> {
        let left = self.unary_expr()?;
        let mark = self.cur.clone();
        if self.cur.take_keyword("castable")? {
            if self.cur.take_keyword("as")? {
                let ty = self.seq_type()?;
                return Ok(Expr::CastableAs(Box::new(left), ty));
            }
            self.cur = mark.clone();
        }
        if self.cur.take_keyword("cast")? {
            if self.cur.take_keyword("as")? {
                let position = self.cur.position();
                let ty = self.seq_type()?;
                return Ok(Expr::CastAs(Box::new(left), ty, position));
            }
            self.cur = mark;
        }
        Ok(left)
    }

    fn unary_expr(&mut self) -> Result<Expr> {
        let mut negations = 0usize;
        loop {
            self.cur.skip_ws()?;
            if self.cur.take_symbol("-")? {
                negations += 1;
            } else if self.cur.take_symbol("+")? {
                // unary plus: no-op
            } else {
                break;
            }
        }
        self.descend(negations)?;
        let mut e = self.path_expr()?;
        self.depth -= negations;
        for _ in 0..negations {
            e = Expr::Neg(Box::new(e));
        }
        Ok(e)
    }

    // ------------------------------------------------------------------
    // Paths
    // ------------------------------------------------------------------

    fn path_expr(&mut self) -> Result<Expr> {
        self.cur.skip_ws()?;
        let position = self.cur.position();
        if self.cur.looking_at("//") {
            self.cur.take_symbol("//")?;
            let start = Expr::Root(position);
            let mut steps = vec![PathStep {
                double_slash: true,
                expr: self.step_expr()?,
            }];
            self.path_tail(&mut steps)?;
            return Ok(Expr::Path {
                start: Box::new(start),
                steps,
            });
        }
        if self.cur.looking_at("/") {
            self.cur.take_symbol("/")?;
            let start = Expr::Root(position);
            // A lone `/` selects the root itself.
            self.cur.skip_ws()?;
            if !self.step_can_start()? {
                return Ok(start);
            }
            let mut steps = vec![PathStep {
                double_slash: false,
                expr: self.step_expr()?,
            }];
            self.path_tail(&mut steps)?;
            return Ok(Expr::Path {
                start: Box::new(start),
                steps,
            });
        }
        let start = self.step_expr()?;
        let mut steps = Vec::new();
        self.path_tail(&mut steps)?;
        if steps.is_empty() {
            Ok(start)
        } else {
            Ok(Expr::Path {
                start: Box::new(start),
                steps,
            })
        }
    }

    fn path_tail(&mut self, steps: &mut Vec<PathStep>) -> Result<()> {
        loop {
            self.cur.skip_ws()?;
            if self.cur.looking_at("//") {
                self.cur.take_symbol("//")?;
                steps.push(PathStep {
                    double_slash: true,
                    expr: self.step_expr()?,
                });
            } else if self.cur.looking_at("/") {
                self.cur.take_symbol("/")?;
                steps.push(PathStep {
                    double_slash: false,
                    expr: self.step_expr()?,
                });
            } else {
                return Ok(());
            }
        }
    }

    /// Can a step expression begin at the cursor? Used after a leading `/`.
    fn step_can_start(&mut self) -> Result<bool> {
        self.cur.skip_ws()?;
        Ok(match self.cur.peek() {
            Some(c) if xmlstore::qname::is_name_start(c) => true,
            Some('@') | Some('*') | Some('.') | Some('$') | Some('(') => true,
            _ => false,
        })
    }

    fn step_expr(&mut self) -> Result<Expr> {
        self.cur.skip_ws()?;
        let position = self.cur.position();

        // `..` — abbreviated parent step; `.` — the context item.
        if self.cur.looking_at("..") {
            self.cur.take_symbol("..")?;
            let predicates = self.predicates()?;
            return Ok(Expr::AxisStep {
                axis: Axis::Parent,
                test: NodeTest::AnyKind,
                predicates,
                position,
            });
        }
        if self.cur.looking_at(".") && !self.cur.looking_at("..") {
            self.cur.take_symbol(".")?;
            let e = Expr::ContextItem(position);
            let predicates = self.predicates()?;
            return Ok(if predicates.is_empty() {
                e
            } else {
                Expr::Filter(Box::new(e), predicates)
            });
        }
        // `@name` — abbreviated attribute axis.
        if self.cur.looking_at("@") {
            self.cur.take_symbol("@")?;
            let test = self.node_test()?;
            let predicates = self.predicates()?;
            return Ok(Expr::AxisStep {
                axis: Axis::Attribute,
                test,
                predicates,
                position,
            });
        }
        // `*` — child axis wildcard.
        if self.cur.looking_at("*") {
            self.cur.take_symbol("*")?;
            let predicates = self.predicates()?;
            return Ok(Expr::AxisStep {
                axis: Axis::Child,
                test: NodeTest::AnyName,
                predicates,
                position,
            });
        }

        if matches!(self.cur.peek(), Some(c) if xmlstore::qname::is_name_start(c)) {
            // Could be: axis::test, kind test, function call, computed
            // constructor, or a plain name test.
            let mark = self.cur.clone();
            let name = self.cur.take_name()?;

            if self.cur.peek_symbol("::")? {
                self.cur.take_symbol("::")?;
                let axis = axis_from_name(&name).ok_or_else(|| {
                    Error::syntax(format!("unknown axis {name:?}"), position.0, position.1)
                })?;
                let test = self.node_test()?;
                let predicates = self.predicates()?;
                return Ok(Expr::AxisStep {
                    axis,
                    test,
                    predicates,
                    position,
                });
            }

            // Computed constructors: `element name {…}`, `attribute name {…}`,
            // `text {…}`, `comment {…}`, `document {…}`.
            if name == "element" || name == "attribute" {
                let mark2 = self.cur.clone();
                let cname: Option<ConstructorName> = if self.cur.peek_name_start()? {
                    let literal = self.cur.take_name()?;
                    if self.cur.peek_symbol("{")? {
                        Some(ConstructorName::Literal(literal))
                    } else {
                        None
                    }
                } else if self.cur.peek_symbol("{")? {
                    // `element {name-expr} {content}` — the computed form
                    // generic identity transforms depend on.
                    self.expect_symbol("{")?;
                    let name_expr = self.expr()?;
                    self.expect_symbol("}")?;
                    if self.cur.peek_symbol("{")? {
                        Some(ConstructorName::Computed(Box::new(name_expr)))
                    } else {
                        return Err(self
                            .cur
                            .error("expected '{' after computed constructor name"));
                    }
                } else {
                    None
                };
                if let Some(cname) = cname {
                    self.expect_symbol("{")?;
                    let content = if self.cur.peek_symbol("}")? {
                        None
                    } else {
                        Some(Box::new(self.expr()?))
                    };
                    self.expect_symbol("}")?;
                    let e = if name == "element" {
                        Expr::CompElement {
                            name: cname,
                            content,
                            position,
                        }
                    } else {
                        Expr::CompAttribute {
                            name: cname,
                            value: content,
                            position,
                        }
                    };
                    let predicates = self.predicates()?;
                    return Ok(if predicates.is_empty() {
                        e
                    } else {
                        Expr::Filter(Box::new(e), predicates)
                    });
                }
                self.cur = mark2;
            }
            if matches!(name.as_str(), "text" | "comment" | "document")
                && self.cur.peek_symbol("{")?
            {
                self.expect_symbol("{")?;
                let content = Box::new(self.expr()?);
                self.expect_symbol("}")?;
                let e = match name.as_str() {
                    "text" => Expr::CompText(content),
                    "comment" => Expr::CompComment(content),
                    _ => Expr::CompDocument { content, position },
                };
                return Ok(e);
            }

            if self.cur.peek_symbol("(")? {
                if is_kind_test_name(&name) {
                    // Rewind and parse as a node test. Per XPath, an
                    // `attribute()` kind test with no explicit axis defaults
                    // to the attribute axis, everything else to child.
                    self.cur = mark;
                    let test = self.node_test()?;
                    let axis = if matches!(test, NodeTest::AttributeTest(_)) {
                        Axis::Attribute
                    } else {
                        Axis::Child
                    };
                    let predicates = self.predicates()?;
                    return Ok(Expr::AxisStep {
                        axis,
                        test,
                        predicates,
                        position,
                    });
                }
                if RESERVED_FN_NAMES.contains(&name.as_str()) {
                    return Err(Error::syntax(
                        format!("{name:?} cannot be used as a function name"),
                        position.0,
                        position.1,
                    ));
                }
                self.expect_symbol("(")?;
                let mut args = Vec::new();
                if !self.cur.peek_symbol(")")? {
                    loop {
                        args.push(self.expr_single()?);
                        if !self.cur.take_symbol(",")? {
                            break;
                        }
                    }
                }
                self.expect_symbol(")")?;
                let e = Expr::Call {
                    name,
                    args,
                    position,
                };
                let predicates = self.predicates()?;
                return Ok(if predicates.is_empty() {
                    e
                } else {
                    Expr::Filter(Box::new(e), predicates)
                });
            }

            // Plain name test on the child axis — the paper's quirk #1:
            // "x means 'the children of the current node named x', not 'the
            // variable named x'".
            let predicates = self.predicates()?;
            return Ok(Expr::AxisStep {
                axis: Axis::Child,
                test: NodeTest::Name(name),
                predicates,
                position,
            });
        }

        // Otherwise: a primary expression with optional predicates.
        let primary = self.primary_expr()?;
        let predicates = self.predicates()?;
        Ok(if predicates.is_empty() {
            primary
        } else {
            Expr::Filter(Box::new(primary), predicates)
        })
    }

    fn node_test(&mut self) -> Result<NodeTest> {
        self.cur.skip_ws()?;
        if self.cur.take_symbol("*")? {
            return Ok(NodeTest::AnyName);
        }
        let name = self.cur.take_name()?;
        if self.cur.peek_symbol("(")? && is_kind_test_name(&name) {
            self.expect_symbol("(")?;
            let arg = if self.cur.peek_name_start()? {
                Some(self.cur.take_name()?)
            } else if self.cur.peek_symbol("*")? {
                self.cur.take_symbol("*")?;
                None
            } else {
                None
            };
            self.expect_symbol(")")?;
            return Ok(match name.as_str() {
                "node" => NodeTest::AnyKind,
                "text" => NodeTest::Text,
                "comment" => NodeTest::Comment,
                "processing-instruction" => NodeTest::Pi,
                "element" => NodeTest::Element(arg),
                "attribute" => NodeTest::AttributeTest(arg),
                "document-node" => NodeTest::Document,
                _ => unreachable!("is_kind_test_name checked"),
            });
        }
        Ok(NodeTest::Name(name))
    }

    fn predicates(&mut self) -> Result<Vec<Expr>> {
        let mut preds = Vec::new();
        while self.cur.take_symbol("[")? {
            preds.push(self.expr()?);
            self.expect_symbol("]")?;
        }
        Ok(preds)
    }

    // ------------------------------------------------------------------
    // Primaries
    // ------------------------------------------------------------------

    fn primary_expr(&mut self) -> Result<Expr> {
        self.cur.skip_ws()?;
        let position = self.cur.position();
        match self.cur.peek() {
            Some('$') => {
                self.cur.take_symbol("$")?;
                let name = self.cur.take_name()?;
                Ok(Expr::VarRef(name, position))
            }
            Some('(') => {
                self.cur.take_symbol("(")?;
                if self.cur.take_symbol(")")? {
                    return Ok(Expr::Comma(Vec::new()));
                }
                let e = self.expr()?;
                self.expect_symbol(")")?;
                Ok(e)
            }
            Some('"') | Some('\'') => {
                let s = self.cur.take_string_literal()?;
                Ok(Expr::Literal(Atomic::Str(s.into())))
            }
            Some(c) if c.is_ascii_digit() => match self.cur.take_number()? {
                NumberLit::Integer(i) => Ok(Expr::Literal(Atomic::Int(i))),
                NumberLit::Double(d) => Ok(Expr::Literal(Atomic::Dbl(d))),
            },
            Some('<') => self.direct_constructor(),
            Some(c) => Err(self.cur.error(format!("unexpected character {c:?}"))),
            None => Err(self.cur.error("unexpected end of query")),
        }
    }

    // ------------------------------------------------------------------
    // Direct constructors
    // ------------------------------------------------------------------

    fn direct_constructor(&mut self) -> Result<Expr> {
        self.cur.skip_ws()?;
        let position = self.cur.position();
        if self.cur.looking_at("<!--") {
            return self.comment_constructor();
        }
        if !self.cur.eat("<") {
            return Err(self.cur.error("expected '<'"));
        }
        let name = self.cur.take_name()?;
        let mut attrs = Vec::new();
        loop {
            self.cur.skip_ws()?;
            if self.cur.looking_at("/>") || self.cur.looking_at(">") {
                break;
            }
            let attr_name = self.cur.take_name()?;
            self.expect_symbol("=")?;
            self.cur.skip_ws()?;
            let parts = self.attribute_value_template()?;
            attrs.push((attr_name, parts));
        }
        if self.cur.eat("/>") {
            return Ok(Expr::DirectElement {
                name,
                attrs,
                content: Vec::new(),
                position,
            });
        }
        if !self.cur.eat(">") {
            return Err(self.cur.error("expected '>' or '/>'"));
        }
        self.descend(1)?;
        let content = self.element_content(&name)?;
        self.depth -= 1;
        Ok(Expr::DirectElement {
            name,
            attrs,
            content,
            position,
        })
    }

    fn comment_constructor(&mut self) -> Result<Expr> {
        self.cur.eat("<!--");
        let mut text = String::new();
        while !self.cur.looking_at("-->") {
            match self.cur.bump() {
                Some(c) => text.push(c),
                None => return Err(self.cur.error("unterminated XML comment")),
            }
        }
        self.cur.eat("-->");
        Ok(Expr::CompComment(Box::new(Expr::Literal(Atomic::Str(
            text.into(),
        )))))
    }

    /// Attribute value with `{expr}` holes: `year="{$y}!"`.
    fn attribute_value_template(&mut self) -> Result<Vec<AttrPart>> {
        let quote = match self.cur.peek() {
            Some(c @ ('"' | '\'')) => c,
            _ => return Err(self.cur.error("expected a quoted attribute value")),
        };
        self.cur.bump();
        let mut parts = Vec::new();
        let mut text = String::new();
        loop {
            match self.cur.peek() {
                Some(c) if c == quote => {
                    self.cur.bump();
                    if self.cur.peek() == Some(quote) {
                        self.cur.bump();
                        text.push(quote);
                        continue;
                    }
                    if !text.is_empty() {
                        parts.push(AttrPart::Literal(std::mem::take(&mut text)));
                    }
                    return Ok(parts);
                }
                Some('{') => {
                    self.cur.bump();
                    if self.cur.peek() == Some('{') {
                        self.cur.bump();
                        text.push('{');
                        continue;
                    }
                    if !text.is_empty() {
                        parts.push(AttrPart::Literal(std::mem::take(&mut text)));
                    }
                    let e = self.expr()?;
                    self.expect_symbol("}")?;
                    parts.push(AttrPart::Enclosed(e));
                }
                Some('}') => {
                    self.cur.bump();
                    if self.cur.peek() == Some('}') {
                        self.cur.bump();
                    }
                    text.push('}');
                }
                Some('&') => text.push_str(&self.entity()?),
                Some(c) => {
                    self.cur.bump();
                    text.push(c);
                }
                None => return Err(self.cur.error("unterminated attribute value")),
            }
        }
    }

    fn element_content(&mut self, open_name: &str) -> Result<Vec<ContentPart>> {
        let mut parts = Vec::new();
        let mut text = String::new();

        fn flush(parts: &mut Vec<ContentPart>, text: &mut String) {
            if text.is_empty() {
                return;
            }
            // Boundary-whitespace stripping: whitespace-only runs of literal
            // text are dropped (the XQuery default). `<el> {$x} </el>`
            // therefore has no text children — which is what lets attribute
            // folding work there and fail in `<el> "doom" {$x} </el>`.
            if text.chars().all(char::is_whitespace) {
                text.clear();
                return;
            }
            parts.push(ContentPart::Literal(std::mem::take(text)));
        }

        loop {
            if self.cur.looking_at("</") {
                flush(&mut parts, &mut text);
                self.cur.eat("</");
                let close = self.cur.take_name()?;
                if close != open_name {
                    return Err(self.cur.error(format!(
                        "mismatched close tag: expected </{open_name}>, found </{close}>"
                    )));
                }
                self.cur.skip_ws()?;
                if !self.cur.eat(">") {
                    return Err(self.cur.error("expected '>'"));
                }
                return Ok(parts);
            } else if self.cur.looking_at("<!--") {
                flush(&mut parts, &mut text);
                let c = self.comment_constructor()?;
                parts.push(ContentPart::Node(c));
            } else if self.cur.looking_at("<![CDATA[") {
                self.cur.eat("<![CDATA[");
                while !self.cur.looking_at("]]>") {
                    match self.cur.bump() {
                        Some(c) => text.push(c),
                        None => return Err(self.cur.error("unterminated CDATA section")),
                    }
                }
                self.cur.eat("]]>");
            } else if self.cur.looking_at("<") {
                flush(&mut parts, &mut text);
                let child = self.direct_constructor()?;
                parts.push(ContentPart::Node(child));
            } else {
                match self.cur.peek() {
                    Some('{') => {
                        self.cur.bump();
                        if self.cur.peek() == Some('{') {
                            self.cur.bump();
                            text.push('{');
                            continue;
                        }
                        flush(&mut parts, &mut text);
                        let e = self.expr()?;
                        self.expect_symbol("}")?;
                        parts.push(ContentPart::Enclosed(e));
                    }
                    Some('}') => {
                        self.cur.bump();
                        if self.cur.peek() == Some('}') {
                            self.cur.bump();
                        }
                        text.push('}');
                    }
                    Some('&') => text.push_str(&self.entity()?),
                    Some(c) => {
                        self.cur.bump();
                        text.push(c);
                    }
                    None => return Err(self.cur.error("unterminated element constructor")),
                }
            }
        }
    }

    fn entity(&mut self) -> Result<String> {
        self.cur.eat("&");
        if self.cur.eat("#") {
            let hex = self.cur.eat("x");
            let mut digits = String::new();
            while matches!(self.cur.peek(), Some(c) if c.is_ascii_hexdigit()) {
                digits.push(self.cur.bump().unwrap());
            }
            if !self.cur.eat(";") {
                return Err(self.cur.error("expected ';' in character reference"));
            }
            let code = u32::from_str_radix(&digits, if hex { 16 } else { 10 })
                .map_err(|_| self.cur.error("bad character reference"))?;
            let c =
                char::from_u32(code).ok_or_else(|| self.cur.error("bad character reference"))?;
            Ok(c.to_string())
        } else {
            let name = self.cur.take_name()?;
            if !self.cur.eat(";") {
                return Err(self.cur.error("expected ';' in entity reference"));
            }
            Ok(match name.as_str() {
                "lt" => "<",
                "gt" => ">",
                "amp" => "&",
                "quot" => "\"",
                "apos" => "'",
                other => {
                    return Err(self.cur.error(format!("unknown entity &{other};")));
                }
            }
            .to_string())
        }
    }

    // ------------------------------------------------------------------
    // Sequence types
    // ------------------------------------------------------------------

    fn seq_type(&mut self) -> Result<SeqType> {
        self.cur.skip_ws()?;
        let pos = self.cur.position();
        let name = self.cur.take_name()?;
        if name == "empty-sequence" {
            self.expect_symbol("(")?;
            self.expect_symbol(")")?;
            return Ok(SeqType::Empty);
        }
        let item = if self.cur.peek_symbol("(")? && (is_kind_test_name(&name) || name == "item") {
            self.expect_symbol("(")?;
            let arg = if self.cur.peek_name_start()? {
                Some(self.cur.take_name()?)
            } else {
                if self.cur.peek_symbol("*")? {
                    self.cur.take_symbol("*")?;
                }
                None
            };
            self.expect_symbol(")")?;
            match name.as_str() {
                "item" => ItemType::AnyItem,
                "node" => ItemType::AnyNode,
                "text" => ItemType::Text,
                "comment" => ItemType::Comment,
                "processing-instruction" => ItemType::Pi,
                "element" => ItemType::Element(arg),
                "attribute" => ItemType::Attribute(arg),
                "document-node" => ItemType::Document,
                _ => unreachable!(),
            }
        } else {
            let at = AtomicType::from_name(&name).ok_or_else(|| {
                Error::syntax(format!("unknown type name {name:?}"), pos.0, pos.1)
            })?;
            ItemType::Atomic(at)
        };
        // Occurrence indicator must hug the type; `*` with space would be
        // multiplication in an expression context, but in a type context we
        // accept adjacency only to stay unambiguous.
        let occ = if self.cur.looking_at("?") {
            self.cur.eat("?");
            Occurrence::ZeroOrOne
        } else if self.cur.looking_at("*") {
            self.cur.eat("*");
            Occurrence::ZeroOrMore
        } else if self.cur.looking_at("+") {
            self.cur.eat("+");
            Occurrence::OneOrMore
        } else {
            Occurrence::One
        };
        Ok(SeqType::Of(item, occ))
    }
}

fn is_kind_test_name(name: &str) -> bool {
    matches!(
        name,
        "node"
            | "text"
            | "comment"
            | "processing-instruction"
            | "element"
            | "attribute"
            | "document-node"
    )
}

fn axis_from_name(name: &str) -> Option<Axis> {
    Some(match name {
        "child" => Axis::Child,
        "descendant" => Axis::Descendant,
        "descendant-or-self" => Axis::DescendantOrSelf,
        "attribute" => Axis::Attribute,
        "self" => Axis::SelfAxis,
        "parent" => Axis::Parent,
        "ancestor" => Axis::Ancestor,
        "ancestor-or-self" => Axis::AncestorOrSelf,
        "following-sibling" => Axis::FollowingSibling,
        "preceding-sibling" => Axis::PrecedingSibling,
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn literal_kinds() {
        assert!(matches!(
            parse_expr("42").unwrap(),
            Expr::Literal(Atomic::Int(42))
        ));
        assert!(matches!(
            parse_expr("3.5").unwrap(),
            Expr::Literal(Atomic::Dbl(_))
        ));
        assert!(matches!(
            parse_expr("\"hi\"").unwrap(),
            Expr::Literal(Atomic::Str(_))
        ));
    }

    #[test]
    fn dollar_n_dash_1_is_one_variable() {
        // The paper: "$n-1 is a variable with a three-letter name".
        match parse_expr("$n-1").unwrap() {
            Expr::VarRef(name, _) => assert_eq!(name, "n-1"),
            other => panic!("expected VarRef, got {other:?}"),
        }
    }

    #[test]
    fn parenthesised_subtraction_works() {
        // "($n)-1 or some such"
        assert!(matches!(
            parse_expr("($n)-1").unwrap(),
            Expr::Arith(ArithOp::Sub, _, _)
        ));
        assert!(matches!(
            parse_expr("$n - 1").unwrap(),
            Expr::Arith(ArithOp::Sub, _, _)
        ));
    }

    #[test]
    fn bare_name_is_a_child_step_not_a_variable() {
        // Quirk #1.
        match parse_expr("x").unwrap() {
            Expr::AxisStep {
                axis: Axis::Child,
                test: NodeTest::Name(n),
                ..
            } => assert_eq!(n, "x"),
            other => panic!("expected child step, got {other:?}"),
        }
    }

    #[test]
    fn slash_is_a_path_not_division() {
        assert!(matches!(parse_expr("$x/kid").unwrap(), Expr::Path { .. }));
        assert!(matches!(
            parse_expr("6 div 2").unwrap(),
            Expr::Arith(ArithOp::Div, _, _)
        ));
    }

    #[test]
    fn double_slash_descendants() {
        match parse_expr("$x//grandkid").unwrap() {
            Expr::Path { steps, .. } => {
                assert_eq!(steps.len(), 1);
                assert!(steps[0].double_slash);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn predicates_and_attributes() {
        let e = parse_expr("$x/kid[@year=\"1983\"]").unwrap();
        match e {
            Expr::Path { steps, .. } => match &steps[0].expr {
                Expr::AxisStep { predicates, .. } => assert_eq!(predicates.len(), 1),
                other => panic!("{other:?}"),
            },
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn axes_parse() {
        for axis in [
            "child",
            "descendant",
            "descendant-or-self",
            "attribute",
            "self",
            "parent",
            "ancestor",
            "ancestor-or-self",
            "following-sibling",
            "preceding-sibling",
        ] {
            parse_expr(&format!("{axis}::book")).unwrap();
        }
        assert!(parse_expr("sideways::book").is_err());
    }

    #[test]
    fn flwor_full_shape() {
        let e = parse_expr(
            "for $x at $i in (1,2,3) let $y := $x * 2 where $y > 2 order by $y descending return ($i, $y)",
        )
        .unwrap();
        match e {
            Expr::Flwor {
                clauses,
                where_,
                order_by,
                ..
            } => {
                assert_eq!(clauses.len(), 2);
                assert!(where_.is_some());
                assert_eq!(order_by.len(), 1);
                assert!(order_by[0].descending);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn for_as_element_name_still_parses() {
        // `for` with no following `$` is a path step (the template language
        // has a <for> directive!).
        match parse_expr("$t/for").unwrap() {
            Expr::Path { steps, .. } => match &steps[0].expr {
                Expr::AxisStep {
                    test: NodeTest::Name(n),
                    ..
                } => assert_eq!(n, "for"),
                other => panic!("{other:?}"),
            },
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn quantified_expressions() {
        let e =
            parse_expr("some $y in $x/kids satisfies count($y//foo) gt count($y//bar)").unwrap();
        assert!(matches!(
            e,
            Expr::Quantified {
                quantifier: Quantifier::Some,
                ..
            }
        ));
        let e = parse_expr("every $y in (1,2) satisfies $y gt 0").unwrap();
        assert!(matches!(
            e,
            Expr::Quantified {
                quantifier: Quantifier::Every,
                ..
            }
        ));
    }

    #[test]
    fn comparisons_general_vs_value() {
        assert!(matches!(
            parse_expr("1 = (1,2,3)").unwrap(),
            Expr::GeneralCmp(CmpOp::Eq, _, _)
        ));
        assert!(matches!(
            parse_expr("1 eq 1").unwrap(),
            Expr::ValueCmp(CmpOp::Eq, _, _)
        ));
        assert!(matches!(
            parse_expr("$a le $b").unwrap(),
            Expr::ValueCmp(CmpOp::Le, _, _)
        ));
        assert!(matches!(
            parse_expr("$a <= $b").unwrap(),
            Expr::GeneralCmp(CmpOp::Le, _, _)
        ));
    }

    #[test]
    fn direct_constructor_with_holes() {
        let e = parse_expr(r#"<el year="{$y}">{$x} tail<kid/></el>"#).unwrap();
        match e {
            Expr::DirectElement {
                name,
                attrs,
                content,
                ..
            } => {
                assert_eq!(name, "el");
                assert_eq!(attrs.len(), 1);
                // "{$x}" hole, " tail" text, <kid/> child
                assert_eq!(content.len(), 3);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn boundary_whitespace_stripped() {
        let e = parse_expr("<el> {$x} </el>").unwrap();
        match e {
            Expr::DirectElement { content, .. } => {
                assert_eq!(content.len(), 1, "whitespace-only text dropped");
                assert!(matches!(content[0], ContentPart::Enclosed(_)));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn curly_escapes() {
        let e = parse_expr("<el>{{literal}}</el>").unwrap();
        match e {
            Expr::DirectElement { content, .. } => match &content[0] {
                ContentPart::Literal(t) => assert_eq!(t, "{literal}"),
                other => panic!("{other:?}"),
            },
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn computed_constructors() {
        assert!(matches!(
            parse_expr("attribute troubles {1}").unwrap(),
            Expr::CompAttribute { .. }
        ));
        assert!(matches!(
            parse_expr("element point {(), 1}").unwrap(),
            Expr::CompElement { .. }
        ));
        assert!(matches!(
            parse_expr("text {\"hi\"}").unwrap(),
            Expr::CompText(_)
        ));
        assert!(matches!(
            parse_expr("document {<d/>}").unwrap(),
            Expr::CompDocument { .. }
        ));
        assert!(
            parse_expr("document {}").is_err(),
            "the content is required"
        );
    }

    #[test]
    fn module_with_prolog() {
        let m = parse_module(
            r#"
            xquery version "1.0";
            declare namespace my = "urn:example";
            declare option compat "galax";
            declare variable $base := 10;
            declare function local:double($x as xs:integer) as xs:integer { $x * 2 };
            local:double($base)
            "#,
        )
        .unwrap();
        assert_eq!(m.functions.len(), 1);
        assert_eq!(m.variables.len(), 1);
        assert_eq!(m.options.len(), 2);
        assert_eq!(m.functions[0].params.len(), 1);
        assert!(m.functions[0].params[0].ty.is_some());
    }

    #[test]
    fn seq_types_parse() {
        let m = parse_module(
            "declare function local:f($a as xs:string*, $b as element(kid)?, $c as item()+) { $a }; 1",
        )
        .unwrap();
        let tys: Vec<String> = m.functions[0]
            .params
            .iter()
            .map(|p| p.ty.as_ref().unwrap().to_string())
            .collect();
        assert_eq!(tys, vec!["xs:string*", "element(kid)?", "item()+"]);
    }

    #[test]
    fn instance_of_and_cast() {
        assert!(matches!(
            parse_expr("$x instance of xs:string").unwrap(),
            Expr::InstanceOf(..)
        ));
        assert!(matches!(
            parse_expr("$x cast as xs:integer").unwrap(),
            Expr::CastAs(..)
        ));
    }

    #[test]
    fn if_requires_paren_but_if_element_ok() {
        assert!(matches!(
            parse_expr("if ($x) then 1 else 2").unwrap(),
            Expr::If(..)
        ));
        // <if> is a template directive; `$t/if` must be a step.
        assert!(matches!(parse_expr("$t/if").unwrap(), Expr::Path { .. }));
    }

    #[test]
    fn reserved_names_not_callable() {
        assert!(parse_expr("item(1)").is_err());
    }

    #[test]
    fn lone_slash_is_root() {
        assert!(matches!(parse_expr("/").unwrap(), Expr::Root(_)));
        assert!(matches!(parse_expr("/book").unwrap(), Expr::Path { .. }));
        assert!(matches!(parse_expr("//book").unwrap(), Expr::Path { .. }));
    }

    #[test]
    fn empty_parens_empty_sequence() {
        match parse_expr("()").unwrap() {
            Expr::Comma(v) => assert!(v.is_empty()),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn range_and_arith_precedence() {
        // 1 to 2 + 3  ==  1 to (2+3)
        match parse_expr("1 to 2 + 3").unwrap() {
            Expr::Range(_, hi) => assert!(matches!(*hi, Expr::Arith(ArithOp::Add, _, _))),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn syntax_error_has_position() {
        let err = parse_expr("1 +").unwrap_err();
        assert!(err.position.is_some());
    }

    #[test]
    fn nested_comments_in_expressions() {
        assert!(matches!(
            parse_expr("1 (: one (: nested :) comment :) + 2").unwrap(),
            Expr::Arith(ArithOp::Add, _, _)
        ));
    }

    #[test]
    fn trailing_garbage_rejected() {
        assert!(parse_expr("1 2").is_err());
    }
}
