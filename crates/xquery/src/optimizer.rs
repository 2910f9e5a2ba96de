//! The optimizer: constant folding and dead-`let` elimination.
//!
//! > "The Galax implementation was, quite reasonably for a query language,
//! > focussed on optimization. In particular, it did dead-code analysis.
//! > Simply adding the trace introduces a dead variable `$dummy`, which the
//! > Galax compiler helpfully optimizes away – along with the call to
//! > trace."
//!
//! Whether `fn:trace` counts as *pure* (and is therefore deletable) is the
//! `trace_is_pure` knob: Galax-quirks mode sets it, reproducing the paper's
//! debugging catastrophe; the fixed mode keeps every `let` whose initializer
//! could trace or error. Experiment E4 measures both sides: the (real)
//! speedup dead-code elimination buys, and the trace output it destroys.

use crate::ast::*;
use crate::value::Atomic;
use std::collections::HashMap;

/// What the optimizer did, for reporting and the E4 bench.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OptimizerStats {
    /// `let` clauses removed because the variable was never used.
    pub dead_lets_removed: usize,
    /// `fn:trace` calls that were inside removed code.
    pub traces_removed: usize,
    /// Constant subexpressions folded.
    pub constants_folded: usize,
}

/// Optimizer configuration.
#[derive(Debug, Clone, Copy)]
pub struct OptimizerOptions {
    /// Treat `fn:trace` as side-effect-free (the Galax quirk).
    pub trace_is_pure: bool,
}

/// Optimizes a module in place.
pub fn optimize_module(module: &mut Module, options: OptimizerOptions) -> OptimizerStats {
    let mut stats = OptimizerStats::default();
    let purity = function_purity(&module.functions, options);
    let cx = Cx {
        options,
        purity: &purity,
    };
    for f in &mut module.functions {
        optimize_expr(&mut f.body, &cx, &mut stats);
    }
    for v in &mut module.variables {
        optimize_expr(&mut v.expr, &cx, &mut stats);
    }
    optimize_expr(&mut module.body, &cx, &mut stats);
    stats
}

struct Cx<'a> {
    options: OptimizerOptions,
    purity: &'a HashMap<String, bool>,
}

/// Fixpoint purity for user functions: impure iff the body (transitively)
/// calls `fn:error`, or `fn:trace` when trace is impure.
fn function_purity(functions: &[FunctionDecl], options: OptimizerOptions) -> HashMap<String, bool> {
    let mut purity: HashMap<String, bool> =
        functions.iter().map(|f| (f.name.clone(), true)).collect();
    loop {
        let mut changed = false;
        for f in functions {
            if purity[&f.name] {
                let cx = Cx {
                    options,
                    purity: &purity,
                };
                if !is_pure(&f.body, &cx) {
                    purity.insert(f.name.clone(), false);
                    changed = true;
                }
            }
        }
        if !changed {
            return purity;
        }
    }
}

/// Is evaluating `expr` free of *observable* effects? Errors raised by dead
/// code are not considered observable — exactly the aggressive stance that
/// made Galax delete trace calls.
fn is_pure(expr: &Expr, cx: &Cx) -> bool {
    match expr {
        Expr::Call { name, args, .. } => {
            let bare = name.strip_prefix("fn:").unwrap_or(name);
            let self_ok = match bare {
                "error" => false,
                "trace" => cx.options.trace_is_pure,
                _ => cx.purity.get(name.as_str()).copied().unwrap_or(true),
            };
            self_ok && args.iter().all(|a| is_pure(a, cx))
        }
        _ => {
            let mut pure = true;
            expr.for_each_child(&mut |e| pure = pure && is_pure(e, cx));
            pure
        }
    }
}

/// Number of `fn:trace` call sites inside `expr`.
fn count_traces(expr: &Expr) -> usize {
    let mut n = match expr {
        Expr::Call { name, .. } if name == "trace" || name == "fn:trace" => 1,
        _ => 0,
    };
    expr.for_each_child(&mut |e| n += count_traces(e));
    n
}

/// Does `expr` reference `$name` anywhere? (Conservative about shadowing:
/// any textual occurrence counts, so a shadowed use keeps the outer binding
/// alive — safe, never the reverse.)
fn uses_var(expr: &Expr, name: &str) -> bool {
    match expr {
        Expr::VarRef(n, _) => n == name,
        _ => {
            let mut used = false;
            expr.for_each_child(&mut |e| used = used || uses_var(e, name));
            used
        }
    }
}

fn optimize_expr(expr: &mut Expr, cx: &Cx, stats: &mut OptimizerStats) {
    // Bottom-up: optimize children first.
    expr.for_each_child_mut(&mut |child| optimize_expr(child, cx, stats));

    // Dead-let elimination inside FLWOR.
    if let Expr::Flwor {
        clauses,
        where_,
        order_by,
        return_,
    } = expr
    {
        loop {
            let mut removed_any = false;
            let mut i = 0;
            while i < clauses.len() {
                let dead = match &clauses[i] {
                    FlworClause::Let {
                        var, expr: init, ..
                    } => {
                        let used_later = clauses[i + 1..].iter().any(|c| match c {
                            FlworClause::For { seq, .. } => uses_var(seq, var),
                            FlworClause::Let { expr, .. } => uses_var(expr, var),
                        }) || where_.as_deref().is_some_and(|w| uses_var(w, var))
                            || order_by.iter().any(|o| uses_var(&o.key, var))
                            || uses_var(return_, var);
                        !used_later && is_pure(init, cx)
                    }
                    FlworClause::For { .. } => false,
                };
                if dead {
                    if let FlworClause::Let { expr: init, .. } = &clauses[i] {
                        stats.traces_removed += count_traces(init);
                    }
                    clauses.remove(i);
                    stats.dead_lets_removed += 1;
                    removed_any = true;
                } else {
                    i += 1;
                }
            }
            if !removed_any {
                break;
            }
        }
    }

    // Constant folding.
    let folded: Option<Expr> = match &*expr {
        Expr::Arith(op, a, b) => match (&**a, &**b) {
            (Expr::Literal(Atomic::Int(x)), Expr::Literal(Atomic::Int(y))) => {
                fold_int_arith(*op, *x, *y).map(|v| Expr::Literal(Atomic::Int(v)))
            }
            _ => None,
        },
        Expr::If(c, t, e) => match &**c {
            Expr::Literal(Atomic::Bool(b)) => Some(if *b { (**t).clone() } else { (**e).clone() }),
            _ => None,
        },
        Expr::And(a, b) => match (&**a, &**b) {
            (Expr::Literal(Atomic::Bool(false)), _) => Some(Expr::Literal(Atomic::Bool(false))),
            (Expr::Literal(Atomic::Bool(true)), rhs)
                if matches!(rhs, Expr::Literal(Atomic::Bool(_))) =>
            {
                Some(rhs.clone())
            }
            _ => None,
        },
        Expr::Or(a, b) => match (&**a, &**b) {
            (Expr::Literal(Atomic::Bool(true)), _) => Some(Expr::Literal(Atomic::Bool(true))),
            (Expr::Literal(Atomic::Bool(false)), rhs)
                if matches!(rhs, Expr::Literal(Atomic::Bool(_))) =>
            {
                Some(rhs.clone())
            }
            _ => None,
        },
        Expr::Neg(e) => match &**e {
            Expr::Literal(Atomic::Int(i)) => i.checked_neg().map(|v| Expr::Literal(Atomic::Int(v))),
            _ => None,
        },
        _ => None,
    };
    if let Some(new) = folded {
        *expr = new;
        stats.constants_folded += 1;
    }
}

fn fold_int_arith(op: ArithOp, x: i64, y: i64) -> Option<i64> {
    match op {
        ArithOp::Add => x.checked_add(y),
        ArithOp::Sub => x.checked_sub(y),
        ArithOp::Mul => x.checked_mul(y),
        // Fold division only when exact and nonzero (otherwise leave the
        // runtime semantics — decimal result or error — alone).
        ArithOp::Div => (y != 0 && x % y == 0).then(|| x / y),
        ArithOp::IDiv => (y != 0).then(|| x / y),
        ArithOp::Mod => (y != 0).then(|| x % y),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_module;

    fn optimize(src: &str, trace_is_pure: bool) -> (Module, OptimizerStats) {
        let mut m = parse_module(src).unwrap();
        let stats = optimize_module(&mut m, OptimizerOptions { trace_is_pure });
        (m, stats)
    }

    #[test]
    fn dead_let_removed() {
        let (m, stats) = optimize("let $dead := 1 + 2 let $x := 3 return $x", false);
        assert_eq!(stats.dead_lets_removed, 1);
        match &m.body {
            Expr::Flwor { clauses, .. } => assert_eq!(clauses.len(), 1),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn used_let_kept() {
        let (_, stats) = optimize("let $x := 1 return $x + 1", false);
        assert_eq!(stats.dead_lets_removed, 0);
    }

    #[test]
    fn galax_deletes_the_trace() {
        // The paper's broken debugging pattern:
        //   LET $dummy := trace("x=", $x)
        let src = "let $x := 1 let $dummy := trace(\"x=\", $x) let $y := 2 return $x + $y";
        let (_, quirky) = optimize(src, true);
        assert_eq!(quirky.dead_lets_removed, 1, "Galax removes $dummy");
        assert_eq!(quirky.traces_removed, 1, "— and the trace with it");

        let (_, fixed) = optimize(src, false);
        assert_eq!(
            fixed.dead_lets_removed, 0,
            "fixed optimizer keeps the trace"
        );
        assert_eq!(fixed.traces_removed, 0);
    }

    #[test]
    fn trace_in_live_position_survives_either_way() {
        // The workaround: LET $x := trace("x=", something)
        let src = "let $x := trace(\"x=\", 1) return $x";
        let (_, quirky) = optimize(src, true);
        assert_eq!(quirky.dead_lets_removed, 0);
    }

    #[test]
    fn error_is_never_pure() {
        let src = "let $dead := error(\"boom\") return 1";
        let (_, stats) = optimize(src, true);
        assert_eq!(stats.dead_lets_removed, 0);
    }

    #[test]
    fn cascading_dead_lets() {
        // $a used only by dead $b — both go.
        let src = "let $a := 1 let $b := $a + 1 return 42";
        let (_, stats) = optimize(src, false);
        assert_eq!(stats.dead_lets_removed, 2);
    }

    #[test]
    fn impurity_is_transitive_through_functions() {
        let src = r#"
            declare function local:noisy($x) { trace("v", $x) };
            declare function local:wrapper($x) { local:noisy($x) };
            let $dead := local:wrapper(1) return 2
        "#;
        let (_, fixed) = optimize(src, false);
        assert_eq!(fixed.dead_lets_removed, 0, "wrapper transitively traces");
        let (_, quirky) = optimize(src, true);
        assert_eq!(quirky.dead_lets_removed, 1);
        assert_eq!(
            quirky.traces_removed, 0,
            "the trace is inside the callee, not the let"
        );
    }

    #[test]
    fn constants_fold() {
        let (m, stats) = optimize("1 + 2 * 3", false);
        assert!(stats.constants_folded >= 2);
        assert!(matches!(m.body, Expr::Literal(Atomic::Int(7))));
    }

    #[test]
    fn if_with_constant_condition_folds() {
        let (m, stats) = optimize("if (true()) then 1 else 2", false);
        // true() is a call, not a literal — so no fold...
        assert_eq!(stats.constants_folded, 0);
        let _ = m;
        let (m, _) = optimize("if (1 = 1) then 1 else 2", false);
        // general comparison isn't folded either; only literal booleans are.
        assert!(!matches!(m.body, Expr::Literal(Atomic::Int(1))));
    }

    #[test]
    fn division_by_zero_not_folded_away() {
        let (m, stats) = optimize("1 idiv 0", false);
        assert_eq!(stats.constants_folded, 0);
        assert!(matches!(m.body, Expr::Arith(ArithOp::IDiv, _, _)));
    }

    #[test]
    fn shadowed_variable_keeps_outer_let() {
        // Conservative: the inner `$x` keeps the outer binding alive.
        let src = "let $x := 1 return for $x in (1,2) return $x";
        let (_, stats) = optimize(src, false);
        assert_eq!(stats.dead_lets_removed, 0);
    }
}
