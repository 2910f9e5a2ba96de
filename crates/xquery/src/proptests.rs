//! Property tests over the engine: flattening laws, comparison semantics,
//! and optimizer soundness on generated expression trees.

use crate::ast::CmpOp;
use crate::compare::{compare_atomics, general_compare, general_compare_hashed, value_compare};
use crate::engine::{Engine, EngineOptions};
use crate::value::{Atomic, Item, Sequence};
use proptest::prelude::*;
use std::cmp::Ordering;
use xmlstore::Store;

fn atomic_strategy() -> impl Strategy<Value = Atomic> {
    prop_oneof![
        any::<i64>().prop_map(Atomic::Int),
        "[a-z]{0,6}".prop_map(Atomic::string),
        any::<bool>().prop_map(Atomic::Bool),
        (-1000i64..1000).prop_map(|i| Atomic::untyped(i.to_string())),
    ]
}

fn seq_strategy() -> impl Strategy<Value = Sequence> {
    prop::collection::vec(atomic_strategy(), 0..6)
        .prop_map(|v| v.into_iter().map(Item::Atomic).collect())
}

fn cmp_op_strategy() -> impl Strategy<Value = CmpOp> {
    prop::sample::select(vec![
        CmpOp::Eq,
        CmpOp::Ne,
        CmpOp::Lt,
        CmpOp::Le,
        CmpOp::Gt,
        CmpOp::Ge,
    ])
}

/// Does `ord` satisfy `op`? Spelled out here, apart from `compare.rs`.
fn holds(op: CmpOp, ord: Ordering) -> bool {
    match op {
        CmpOp::Eq => ord.is_eq(),
        CmpOp::Ne => ord.is_ne(),
        CmpOp::Lt => ord.is_lt(),
        CmpOp::Le => ord.is_le(),
        CmpOp::Gt => ord.is_gt(),
        CmpOp::Ge => ord.is_ge(),
    }
}

fn short_seq_strategy() -> impl Strategy<Value = Sequence> {
    prop::collection::vec(atomic_strategy(), 0..3)
        .prop_map(|v| v.into_iter().map(Item::Atomic).collect())
}

proptest! {
    /// Flattening is associative with empty identity: concat(a, concat(b, c))
    /// == concat(concat(a, b), c) and empties vanish.
    #[test]
    fn concat_monoid_laws(a in seq_strategy(), b in seq_strategy(), c in seq_strategy()) {
        let left = Sequence::concat([a.clone(), Sequence::concat([b.clone(), c.clone()])]);
        let right = Sequence::concat([Sequence::concat([a.clone(), b.clone()]), c.clone()]);
        prop_assert_eq!(left, right);
        let padded = Sequence::concat([Sequence::empty(), a.clone(), Sequence::empty()]);
        prop_assert_eq!(padded, a);
    }

    /// General `=` is exactly "nonempty intersection under atomic equality".
    #[test]
    fn general_eq_is_nonempty_intersection(a in seq_strategy(), b in seq_strategy()) {
        let store = Store::new();
        let expected = a.iter().any(|x| {
            b.iter().any(|y| match (x, y) {
                (Item::Atomic(p), Item::Atomic(q)) => {
                    compare_atomics(p, q) == Some(Ordering::Equal)
                }
                _ => false,
            })
        });
        prop_assert_eq!(general_compare(CmpOp::Eq, &a, &b, &store), expected);
    }

    /// Operands of at most one item take the comparisons' fast path, with
    /// no atom `Vec`: every operator of both families agrees with the
    /// existential scan over all pairs, and value comparisons still raise
    /// on a longer operand.
    #[test]
    fn short_operands_compare_like_the_pair_scan(
        op in cmp_op_strategy(),
        a in short_seq_strategy(),
        b in short_seq_strategy(),
    ) {
        let store = Store::new();
        let atom = |i: &Item| match i {
            Item::Atomic(x) => x.clone(),
            Item::Node(_) => unreachable!("atomic operands only"),
        };
        let expected = a.iter().any(|x| {
            b.iter()
                .any(|y| compare_atomics(&atom(x), &atom(y)).is_some_and(|o| holds(op, o)))
        });
        prop_assert_eq!(general_compare(op, &a, &b, &store), expected);
        prop_assert_eq!(general_compare_hashed(op, &a, &b, &store), expected);
        let value = value_compare(op, &a, &b, &store).map_err(|e| e.code);
        let expected = if a.len() > 1 || b.len() > 1 {
            Err(crate::error::ErrorCode::XPTY0004)
        } else {
            match (a.as_singleton(), b.as_singleton()) {
                (Some(x), Some(y)) => match compare_atomics(&atom(x), &atom(y)) {
                    Some(o) => Ok(Some(holds(op, o))),
                    None => Err(crate::error::ErrorCode::XPTY0004),
                },
                _ => Ok(None),
            }
        };
        prop_assert_eq!(value, expected);
    }

    /// General comparison is symmetric for `=` and antisymmetric-ish for
    /// `<`/`>`: a < b (existentially) iff b > a.
    #[test]
    fn general_compare_duality(a in seq_strategy(), b in seq_strategy()) {
        let store = Store::new();
        prop_assert_eq!(
            general_compare(CmpOp::Eq, &a, &b, &store),
            general_compare(CmpOp::Eq, &b, &a, &store)
        );
        prop_assert_eq!(
            general_compare(CmpOp::Lt, &a, &b, &store),
            general_compare(CmpOp::Gt, &b, &a, &store)
        );
        prop_assert_eq!(
            general_compare(CmpOp::Le, &a, &b, &store),
            general_compare(CmpOp::Ge, &b, &a, &store)
        );
    }

    /// compare_atomics is antisymmetric and reflexive-on-comparables.
    #[test]
    fn compare_atomics_laws(a in atomic_strategy(), b in atomic_strategy()) {
        if let Some(ord) = compare_atomics(&a, &b) {
            prop_assert_eq!(compare_atomics(&b, &a), Some(ord.reverse()));
        } else {
            prop_assert_eq!(compare_atomics(&b, &a), None);
        }
        if compare_atomics(&a, &a).is_some() {
            prop_assert_eq!(compare_atomics(&a, &a), Some(Ordering::Equal));
        }
    }
}

// ----------------------------------------------------------------------
// Optimizer soundness on generated expression sources
// ----------------------------------------------------------------------

/// A tiny generator of well-formed query sources mixing lets (dead and
/// live), arithmetic, sequences, conditionals, and trace-free calls.
fn expr_source() -> impl Strategy<Value = String> {
    let leaf = prop_oneof![
        (0i64..100).prop_map(|i| i.to_string()),
        Just("\"s\"".to_string()),
        Just("(1,2,3)".to_string()),
        Just("()".to_string()),
    ];
    leaf.prop_recursive(3, 16, 3, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| format!("({a}) + ({b})")),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| format!("(({a}), ({b}))")),
            (inner.clone(), inner.clone())
                .prop_map(|(a, b)| format!("if (({a}) = ({b})) then ({a}) else ({b})")),
            (inner.clone(), inner.clone())
                .prop_map(|(a, b)| format!("let $dead := ({a}) return ({b})")),
            (inner.clone(), inner.clone())
                .prop_map(|(a, b)| format!("let $v := ({a}) return (({b}), count($v))")),
            inner.clone().prop_map(|a| format!("count(({a}))")),
            inner
                .clone()
                .prop_map(|a| format!("for $i in 1 to 3 return ({a})")),
        ]
    })
}

proptest! {
    /// The query parser never panics, whatever bytes arrive.
    #[test]
    fn parser_never_panics_on_noise(input in ".{0,200}") {
        let _ = crate::parser::parse_module(&input);
    }

    /// Nor on XQuery-flavoured noise assembled from real token fragments.
    #[test]
    fn parser_never_panics_on_token_salad(
        parts in prop::collection::vec(
            prop::sample::select(vec![
                "let", "$x", ":=", "for", "in", "return", "(", ")", "[", "]",
                "{", "}", "<el>", "</el>", "\"str\"", "1", "+", "-", "*",
                "div", "=", "eq", "/", "//", "@a", ".", "..", "::", "if",
                "then", "else", "element", "attribute", "typeswitch", "case",
                "default", "some", "satisfies", ",", "to", "declare",
                "function", ";", "n-1",
            ]),
            0..24,
        )
    ) {
        let source = parts.join(" ");
        let _ = crate::parser::parse_module(&source);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The optimizer must not change results (on effect-free programs).
    #[test]
    fn optimizer_preserves_semantics(src in expr_source()) {
        let mut plain = Engine::with_options(EngineOptions { optimize: false, ..Default::default() });
        let mut opt = Engine::with_options(EngineOptions { optimize: true, ..Default::default() });
        let a = plain.evaluate_str(&src, None);
        let b = opt.evaluate_str(&src, None);
        match (a, b) {
            (Ok(x), Ok(y)) => {
                prop_assert_eq!(plain.display_sequence(&x), opt.display_sequence(&y), "source: {}", src);
            }
            (Err(_), _) => {
                // The unoptimized program failed (e.g. + on a sequence).
                // The optimized one may fail too or may have folded the
                // failure away — both acceptable for dead code; for live
                // code our generator only produces type-safe failures that
                // DCE cannot remove, so we don't constrain this case.
            }
            (Ok(x), Err(e)) => {
                return Err(TestCaseError::fail(format!(
                    "optimization introduced a failure: {src} gave {} then {e}",
                    plain.display_sequence(&x)
                )));
            }
        }
    }

    /// Parsing a displayed integer sequence round-trips through the engine.
    #[test]
    fn integer_sequences_roundtrip(values in prop::collection::vec(-100i64..100, 0..8)) {
        let src = format!(
            "({})",
            values.iter().map(|v| v.to_string()).collect::<Vec<_>>().join(", ")
        );
        let mut e = Engine::new();
        let out = e.evaluate_str(&src, None).unwrap();
        prop_assert_eq!(out.len(), values.len());
        let shown = e.display_sequence(&out);
        let expected = values.iter().map(|v| v.to_string()).collect::<Vec<_>>().join(" ");
        prop_assert_eq!(shown, expected);
    }

    /// distinct-values ∘ distinct-values == distinct-values (idempotence),
    /// and membership via `=` agrees before and after.
    #[test]
    fn distinct_values_idempotent(values in prop::collection::vec(0i64..10, 0..12)) {
        let list = values.iter().map(|v| v.to_string()).collect::<Vec<_>>().join(", ");
        let src = format!("(count(distinct-values(({list}))), count(distinct-values(distinct-values(({list})))))");
        let mut e = Engine::new();
        let out = e.evaluate_str(&src, None).unwrap();
        let shown = e.display_sequence(&out);
        let parts: Vec<&str> = shown.split(' ').collect();
        prop_assert_eq!(parts[0], parts[1]);
    }
}
