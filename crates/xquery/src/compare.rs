//! Atomization, effective boolean value, and the two comparison families.
//!
//! > "The usual relational operators like `=` don't mean the usual things.
//! > … `$x=$y` is true if `$x` and `$y` are sequences with at least one
//! > element in common: `1 = (1,2,3)`, and `(1,2,3)=3`, but, of course, it
//! > is not the case that `1=3`. XQuery has a family of singleton
//! > operators: it is not true that `1 eq (1,2,3)`."
//!
//! General comparisons here are *existential* over atomized operand pairs;
//! value comparisons demand at-most-singleton operands and raise `XPTY0004`
//! otherwise (which is how `1 eq (1,2,3)` fails to be true).

use crate::ast::CmpOp;
use crate::error::{Error, ErrorCode, Result};
use crate::value::{Atomic, Item, Sequence};
use std::cmp::Ordering;
use xmlstore::Store;

/// Atomizes one item: nodes become their (untyped) string value. Leaf nodes
/// hand their `Arc<str>` payload straight through — no `String` allocation
/// on the attribute-comparison hot path.
pub fn atomize_item(item: &Item, store: &Store) -> Atomic {
    match item {
        Item::Atomic(a) => a.clone(),
        Item::Node(n) => Atomic::Untyped(store.string_value_arc(*n)),
    }
}

/// Atomizes a whole sequence.
pub fn atomize(seq: &Sequence, store: &Store) -> Vec<Atomic> {
    seq.iter().map(|i| atomize_item(i, store)).collect()
}

/// The effective boolean value: `()` is false; a sequence whose first item
/// is a node is true; singleton atomics follow their natural truthiness;
/// anything else raises `FORG0006`.
pub fn effective_boolean_value(seq: &Sequence, _store: &Store) -> Result<bool> {
    if seq.is_empty() {
        return Ok(false);
    }
    if seq.items()[0].is_node() {
        return Ok(true);
    }
    if let Some(Item::Atomic(a)) = seq.as_singleton() {
        return Ok(match a {
            Atomic::Bool(b) => *b,
            Atomic::Str(s) | Atomic::Untyped(s) => !s.is_empty(),
            Atomic::Int(i) => *i != 0,
            Atomic::Dbl(d) => *d != 0.0 && !d.is_nan(),
        });
    }
    Err(Error::new(
        ErrorCode::FORG0006,
        "effective boolean value undefined for a multi-item atomic sequence",
    ))
}

/// Compares two atomics under the dynamic coercion rules the engine uses:
/// untyped values lean toward the other operand's type; numbers compare
/// numerically (integer and double interconvert); strings compare
/// codepoint-wise. Returns `None` when the values are incomparable
/// (e.g. a boolean against a number), which value comparison turns into a
/// type error.
pub fn compare_atomics(a: &Atomic, b: &Atomic) -> Option<Ordering> {
    use Atomic::*;
    match (a, b) {
        (Bool(x), Bool(y)) => Some(x.cmp(y)),
        (Bool(_), _) | (_, Bool(_)) => match (a, b) {
            // untyped vs boolean: cast the untyped side.
            (Untyped(s), Bool(y)) => parse_bool(s).map(|x| x.cmp(y)),
            (Bool(x), Untyped(s)) => parse_bool(s).map(|y| x.cmp(&y)),
            _ => None,
        },
        (Int(x), Int(y)) => Some(x.cmp(y)),
        (Str(x), Str(y)) => Some(x.cmp(y)),
        // untyped vs untyped, untyped vs string: string comparison.
        (Untyped(x), Untyped(y)) | (Untyped(x), Str(y)) | (Str(x), Untyped(y)) => Some(x.cmp(y)),
        // any numeric combination (incl. untyped vs numeric → cast to double)
        _ => {
            let (x, y) = (a.as_number()?, b.as_number()?);
            if a.is_numeric() || b.is_numeric() {
                x.partial_cmp(&y)
            } else {
                None
            }
        }
    }
}

fn parse_bool(s: &str) -> Option<bool> {
    match s.trim() {
        "true" | "1" => Some(true),
        "false" | "0" => Some(false),
        _ => None,
    }
}

fn ordering_satisfies(op: CmpOp, ord: Ordering) -> bool {
    match op {
        CmpOp::Eq => ord == Ordering::Equal,
        CmpOp::Ne => ord != Ordering::Equal,
        CmpOp::Lt => ord == Ordering::Less,
        CmpOp::Le => ord != Ordering::Greater,
        CmpOp::Gt => ord == Ordering::Greater,
        CmpOp::Ge => ord != Ordering::Less,
    }
}

/// General comparison: existential over all atomized pairs. Incomparable
/// pairs simply don't satisfy the operator (the 2004-era lax behaviour the
/// project relied on when using `=` as "sequence contains").
///
/// This is the quadratic reference scan — the executable specification the
/// tree walker uses. The lowered runner goes through
/// [`general_compare_hashed`], which must stay observably identical.
pub fn general_compare(op: CmpOp, left: &Sequence, right: &Sequence, store: &Store) -> bool {
    if let Some(hit) = general_compare_singletons(op, left, right, store) {
        return hit;
    }
    let ls = atomize(left, store);
    let rs = atomize(right, store);
    scan_atoms(op, &ls, &rs)
}

/// The general comparison of two operands of at most one item each, with
/// no atom `Vec` — or `None` when either operand holds more.
fn general_compare_singletons(
    op: CmpOp,
    left: &Sequence,
    right: &Sequence,
    store: &Store,
) -> Option<bool> {
    if left.len() > 1 || right.len() > 1 {
        return None;
    }
    let (Some(a), Some(b)) = (left.as_singleton(), right.as_singleton()) else {
        return Some(false);
    };
    let (a, b) = (atomize_item(a, store), atomize_item(b, store));
    Some(compare_atomics(&a, &b).is_some_and(|ord| ordering_satisfies(op, ord)))
}

/// The existential double loop over already-atomized operands.
fn scan_atoms(op: CmpOp, ls: &[Atomic], rs: &[Atomic]) -> bool {
    ls.iter().any(|a| {
        rs.iter()
            .any(|b| compare_atomics(a, b).is_some_and(|ord| ordering_satisfies(op, ord)))
    })
}

/// Below this many candidate pairs the quadratic scan wins: hashing pays a
/// per-atom setup cost the small cases never amortize.
const HASH_JOIN_MIN_PAIRS: usize = 64;

/// The string payload of a string-family atom, if it is one. Only when
/// **every** atom on both sides is `Str`/`Untyped` does `=` degenerate to
/// exact codepoint equality (see [`compare_atomics`]: all four
/// string/untyped pairings compare stringwise, while a string against a
/// number or boolean is incomparable and can never satisfy `=`/`!=`).
pub(crate) fn string_family(a: &Atomic) -> Option<&str> {
    match a {
        Atomic::Str(s) | Atomic::Untyped(s) => Some(s),
        _ => None,
    }
}

/// [`general_compare`] with a hash-join fast path for the superlinear case
/// the calculus generator hits (`@type = ("a", "b", ...)` membership tests
/// over large node sets): for `=`/`!=` where both operands atomize to
/// string-family atoms only, build a hash set over the smaller side and
/// probe with the larger instead of scanning all pairs.
///
/// Gated exactly like the fused attr-eq path from the index work: any
/// numeric or boolean atom on either side falls back to the quadratic scan
/// (mixed-type coercion is not plain string equality), as do the ordering
/// operators and small operands. `general_compare` never raises, so there
/// is no error-ordering to preserve — the two entry points must simply
/// return the same boolean, which the differential corpus and the proptest
/// below enforce.
pub fn general_compare_hashed(op: CmpOp, left: &Sequence, right: &Sequence, store: &Store) -> bool {
    if let Some(hit) = general_compare_singletons(op, left, right, store) {
        return hit;
    }
    let ls = atomize(left, store);
    let rs = atomize(right, store);
    if matches!(op, CmpOp::Eq | CmpOp::Ne)
        && ls.len() >= 2
        && rs.len() >= 2
        && ls.len().saturating_mul(rs.len()) >= HASH_JOIN_MIN_PAIRS
    {
        let lstr: Option<Vec<&str>> = ls.iter().map(string_family).collect();
        let rstr: Option<Vec<&str>> = rs.iter().map(string_family).collect();
        if let (Some(lstr), Some(rstr)) = (lstr, rstr) {
            return match op {
                CmpOp::Eq => {
                    // Build over the smaller side, probe with the larger;
                    // the probe short-circuits on the first hit.
                    let (build, probe) = if lstr.len() <= rstr.len() {
                        (&lstr, &rstr)
                    } else {
                        (&rstr, &lstr)
                    };
                    let set: std::collections::HashSet<&str> = build.iter().copied().collect();
                    probe.iter().any(|s| set.contains(s))
                }
                CmpOp::Ne => {
                    // Existential `!=` is true unless both sides hold exactly
                    // one distinct value and it is the same one — O(n + m),
                    // no hashing needed at all.
                    let first = lstr[0];
                    lstr.iter().any(|s| *s != first) || rstr.iter().any(|s| *s != first)
                }
                _ => unreachable!("gated to Eq/Ne above"),
            };
        }
    }
    scan_atoms(op, &ls, &rs)
}

/// Value comparison: operands must atomize to at most one item; the empty
/// sequence propagates as empty (`None`); incomparable types are XPTY0004.
pub fn value_compare(
    op: CmpOp,
    left: &Sequence,
    right: &Sequence,
    store: &Store,
) -> Result<Option<bool>> {
    // Atomizing yields one atom per item, so operands of at most one item
    // each compare without an atom `Vec`.
    if left.len() <= 1 && right.len() <= 1 {
        let (Some(a), Some(b)) = (left.as_singleton(), right.as_singleton()) else {
            return Ok(None);
        };
        let (a, b) = (atomize_item(a, store), atomize_item(b, store));
        return value_compare_atoms(op, &a, &b).map(Some);
    }
    let ls = atomize(left, store);
    let rs = atomize(right, store);
    if ls.len() > 1 || rs.len() > 1 {
        return Err(Error::new(
            ErrorCode::XPTY0004,
            format!(
                "value comparison requires singleton operands (got {} and {} items)",
                ls.len(),
                rs.len()
            ),
        ));
    }
    let (Some(a), Some(b)) = (ls.first(), rs.first()) else {
        return Ok(None);
    };
    value_compare_atoms(op, a, b).map(Some)
}

/// A value comparison of two atoms; incomparable types are `XPTY0004`.
fn value_compare_atoms(op: CmpOp, a: &Atomic, b: &Atomic) -> Result<bool> {
    let ord = compare_atomics(a, b).ok_or_else(|| {
        Error::new(
            ErrorCode::XPTY0004,
            format!("cannot compare {} with {}", a.type_name(), b.type_name()),
        )
    })?;
    Ok(ordering_satisfies(op, ord))
}

/// `fn:deep-equal` on two sequences: pairwise, atomics by equality, nodes by
/// recursive structural comparison (names, attributes as sets, children in
/// order).
pub fn deep_equal(left: &Sequence, right: &Sequence, store: &Store) -> bool {
    if left.len() != right.len() {
        return false;
    }
    left.iter().zip(right.iter()).all(|(a, b)| match (a, b) {
        (Item::Atomic(x), Item::Atomic(y)) => compare_atomics(x, y) == Some(Ordering::Equal),
        (Item::Node(x), Item::Node(y)) => nodes_deep_equal(*x, *y, store),
        _ => false,
    })
}

/// Walks both trees together with an explicit stack of node pairs still to
/// compare, not by recursion: documents nest thousands of levels deep and
/// an inline plan runs on the caller's stack.
fn nodes_deep_equal(a: xmlstore::NodeId, b: xmlstore::NodeId, store: &Store) -> bool {
    use xmlstore::NodeKind;
    let mut pending = vec![(a, b)];
    while let Some((a, b)) = pending.pop() {
        match (store.kind(a), store.kind(b)) {
            (NodeKind::Element(nx), NodeKind::Element(ny)) => {
                let attrs_a = store.attributes(a);
                let attrs_b = store.attributes(b);
                // Attribute order is not significant; attributes are
                // leaves, so they compare here, off the stack.
                if nx != ny
                    || attrs_a.len() != attrs_b.len()
                    || !attrs_a
                        .iter()
                        .all(|&x| attrs_b.iter().any(|&y| store.kind(x) == store.kind(y)))
                {
                    return false;
                }
            }
            (NodeKind::Document, NodeKind::Document) => {}
            // Leaves (and mismatched kinds): equal names and content.
            (x, y) => {
                if x != y {
                    return false;
                }
                continue;
            }
        }
        let ka = store.children(a);
        let kb = store.children(b);
        if ka.len() != kb.len() {
            return false;
        }
        pending.extend(ka.iter().copied().zip(kb.iter().copied()));
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ints(values: &[i64]) -> Sequence {
        values.iter().map(|&i| Item::integer(i)).collect()
    }

    #[test]
    fn papers_existential_equals() {
        let store = Store::new();
        // 1 = (1,2,3)
        assert!(general_compare(
            CmpOp::Eq,
            &ints(&[1]),
            &ints(&[1, 2, 3]),
            &store
        ));
        // (1,2,3) = 3
        assert!(general_compare(
            CmpOp::Eq,
            &ints(&[1, 2, 3]),
            &ints(&[3]),
            &store
        ));
        // not(1 = 3)
        assert!(!general_compare(
            CmpOp::Eq,
            &ints(&[1]),
            &ints(&[3]),
            &store
        ));
    }

    #[test]
    fn singleton_eq_rejects_sequences() {
        let store = Store::new();
        // "it is not true that 1 eq (1,2,3)" — in fact it's a type error.
        let err = value_compare(CmpOp::Eq, &ints(&[1]), &ints(&[1, 2, 3]), &store).unwrap_err();
        assert_eq!(err.code, ErrorCode::XPTY0004);
    }

    #[test]
    fn value_compare_empty_propagates() {
        let store = Store::new();
        assert_eq!(
            value_compare(CmpOp::Eq, &Sequence::empty(), &ints(&[1]), &store).unwrap(),
            None
        );
    }

    #[test]
    fn equals_as_membership_test() {
        // "Once in a while, we used = to test if a sequence contained a value."
        let store = Store::new();
        let haystack: Sequence = ["a", "b", "c"].iter().map(|s| Item::string(*s)).collect();
        assert!(general_compare(
            CmpOp::Eq,
            &Item::string("b").into(),
            &haystack,
            &store
        ));
        assert!(!general_compare(
            CmpOp::Eq,
            &Item::string("z").into(),
            &haystack,
            &store
        ));
    }

    #[test]
    fn untyped_leans_numeric_against_numbers() {
        let store = Store::new();
        let untyped: Sequence = Atomic::Untyped("1983".into()).into();
        assert!(general_compare(CmpOp::Eq, &untyped, &ints(&[1983]), &store));
        let untyped_str: Sequence = Atomic::Untyped("1983".into()).into();
        let plain: Sequence = Atomic::Str("1983".into()).into();
        assert!(general_compare(CmpOp::Eq, &untyped_str, &plain, &store));
    }

    #[test]
    fn string_vs_number_incomparable() {
        assert_eq!(
            compare_atomics(&Atomic::Str("1".into()), &Atomic::Int(1)),
            None
        );
        assert_eq!(compare_atomics(&Atomic::Bool(true), &Atomic::Int(1)), None);
    }

    #[test]
    fn untyped_vs_bool() {
        assert_eq!(
            compare_atomics(&Atomic::Untyped("true".into()), &Atomic::Bool(true)),
            Some(Ordering::Equal)
        );
        assert_eq!(
            compare_atomics(&Atomic::Untyped("maybe".into()), &Atomic::Bool(true)),
            None
        );
    }

    #[test]
    fn ebv_rules() {
        let mut store = Store::new();
        assert!(!effective_boolean_value(&Sequence::empty(), &store).unwrap());
        assert!(effective_boolean_value(&Atomic::Str("x".into()).into(), &store).unwrap());
        assert!(!effective_boolean_value(&Atomic::Str("".into()).into(), &store).unwrap());
        assert!(!effective_boolean_value(&Atomic::Dbl(f64::NAN).into(), &store).unwrap());
        let node = store.create_element("e").unwrap();
        let seq: Sequence = vec![Item::Node(node), Item::integer(0)]
            .into_iter()
            .collect();
        assert!(
            effective_boolean_value(&seq, &store).unwrap(),
            "first item node → true"
        );
        let multi = ints(&[1, 2]);
        assert!(effective_boolean_value(&multi, &store).is_err());
    }

    #[test]
    fn atomize_node_gives_untyped_string_value() {
        let mut store = Store::new();
        let el = store.create_element("year").unwrap();
        let t = store.create_text("1983").unwrap();
        store.append_child(el, t).unwrap();
        let a = atomize_item(&Item::Node(el), &store);
        assert_eq!(a, Atomic::Untyped("1983".into()));
    }

    #[test]
    fn deep_equal_structural() {
        let mut store = Store::new();
        let mk = |store: &mut Store, val: &str| {
            let el = store.create_element("point").unwrap();
            store.set_attribute(el, "x", "1").unwrap();
            store.set_attribute(el, "y", val).unwrap();
            el
        };
        let a = mk(&mut store, "2");
        let b = mk(&mut store, "2");
        let c = mk(&mut store, "3");
        assert!(deep_equal(
            &Item::Node(a).into(),
            &Item::Node(b).into(),
            &store
        ));
        assert!(!deep_equal(
            &Item::Node(a).into(),
            &Item::Node(c).into(),
            &store
        ));
        // atomic vs node is not deep-equal
        assert!(!deep_equal(
            &Item::Node(a).into(),
            &Item::string("x").into(),
            &store
        ));
        // untyped "1" deep-equals integer 1 via comparison rules
        let u: Sequence = Atomic::Untyped("1".into()).into();
        assert!(deep_equal(&u, &ints(&[1]), &store));
    }
}
