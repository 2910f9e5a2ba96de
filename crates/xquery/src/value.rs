//! The XQuery data model: atomic values, items, and *flat* sequences.
//!
//! > "Actually, everything in XQuery is a sequence – there is no distinction
//! > between a single value and a length-one sequence containing that value.
//! > … Sequences are flat: the items in a sequence can be scalars or XML
//! > values, but not other sequences. Attempting to put one sequence inside
//! > of another results in flattening."
//!
//! [`Sequence`] enforces flattening *by construction*: there is no way to
//! build a nested sequence. The paper's T1 table falls directly out of this
//! representation.

use std::fmt;
use std::sync::Arc;
use xmlstore::NodeId;

/// An atomic (scalar) value. The paper: "we never used anything but strings,
/// numbers, and booleans" — plus `untypedAtomic`, which is what atomizing a
/// node yields in the untyped mode the project ran in.
///
/// String payloads are `Arc<str>`: cloning an atomic is a refcount bump, and
/// a lowered literal shares the allocation its parse made, owned by the plan
/// (never interned).
#[derive(Debug, Clone, PartialEq)]
pub enum Atomic {
    Str(Arc<str>),
    Int(i64),
    Dbl(f64),
    Bool(bool),
    /// The string value of a node, not yet committed to a type
    /// (`xs:untypedAtomic`). Compares as a number against numbers and as a
    /// string against strings.
    Untyped(Arc<str>),
}

impl Atomic {
    /// The `xs:` type name of this value.
    pub fn type_name(&self) -> &'static str {
        match self {
            Atomic::Str(_) => "xs:string",
            Atomic::Int(_) => "xs:integer",
            Atomic::Dbl(_) => "xs:double",
            Atomic::Bool(_) => "xs:boolean",
            Atomic::Untyped(_) => "xs:untypedAtomic",
        }
    }

    /// Builds an `xs:string` value.
    pub fn string(s: impl Into<Arc<str>>) -> Atomic {
        Atomic::Str(s.into())
    }

    /// Builds an `xs:untypedAtomic` value.
    pub fn untyped(s: impl Into<Arc<str>>) -> Atomic {
        Atomic::Untyped(s.into())
    }

    /// The lexical (string) form.
    pub fn to_text(&self) -> String {
        match self {
            Atomic::Str(s) | Atomic::Untyped(s) => s.to_string(),
            Atomic::Int(i) => i.to_string(),
            Atomic::Dbl(d) => format_double(*d),
            Atomic::Bool(b) => b.to_string(),
        }
    }

    /// Numeric view, if this value is a number or parses as one (untyped).
    pub fn as_number(&self) -> Option<f64> {
        match self {
            Atomic::Int(i) => Some(*i as f64),
            Atomic::Dbl(d) => Some(*d),
            Atomic::Untyped(s) => s.trim().parse::<f64>().ok(),
            _ => None,
        }
    }

    /// `true` when this is `xs:integer` or `xs:double`.
    pub fn is_numeric(&self) -> bool {
        matches!(self, Atomic::Int(_) | Atomic::Dbl(_))
    }
}

/// Formats a double the way XPath serializes it: integral values without a
/// trailing `.0`, NaN/INF spelled XPath-style.
pub fn format_double(d: f64) -> String {
    if d.is_nan() {
        "NaN".to_string()
    } else if d.is_infinite() {
        if d > 0.0 {
            "INF".to_string()
        } else {
            "-INF".to_string()
        }
    } else if d == d.trunc() && d.abs() < 1e15 {
        format!("{}", d as i64)
    } else {
        format!("{d}")
    }
}

impl fmt::Display for Atomic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_text())
    }
}

/// A single item: an atomic value or a node (by id into the engine's store).
#[derive(Debug, Clone, PartialEq)]
pub enum Item {
    Atomic(Atomic),
    Node(NodeId),
}

impl Item {
    pub fn integer(i: i64) -> Item {
        Item::Atomic(Atomic::Int(i))
    }

    pub fn string(s: impl Into<Arc<str>>) -> Item {
        Item::Atomic(Atomic::Str(s.into()))
    }

    pub fn double(d: f64) -> Item {
        Item::Atomic(Atomic::Dbl(d))
    }

    pub fn boolean(b: bool) -> Item {
        Item::Atomic(Atomic::Bool(b))
    }

    pub fn as_node(&self) -> Option<NodeId> {
        match self {
            Item::Node(n) => Some(*n),
            Item::Atomic(_) => None,
        }
    }

    pub fn is_node(&self) -> bool {
        matches!(self, Item::Node(_))
    }
}

/// A flat sequence of items.
///
/// All constructors flatten: [`Sequence::from_items`] concatenates,
/// [`Sequence::push_seq`] splices. `(1)` and `1` are indistinguishable —
/// [`Sequence::singleton`] and a one-push sequence produce equal values.
///
/// The items live behind an `Arc`, copy-on-write: cloning a sequence — every
/// variable reference, FLWOR rebinding, and function-argument pass — is a
/// refcount bump, and the backing `Vec` is only copied when a shared
/// sequence is actually mutated ([`Arc::make_mut`]).
#[derive(Debug, Clone)]
pub struct Sequence {
    items: Arc<Vec<Item>>,
}

/// The one shared allocation behind every empty sequence.
fn empty_items() -> Arc<Vec<Item>> {
    static EMPTY: std::sync::OnceLock<Arc<Vec<Item>>> = std::sync::OnceLock::new();
    EMPTY.get_or_init(|| Arc::new(Vec::new())).clone()
}

impl Default for Sequence {
    fn default() -> Self {
        Sequence {
            items: empty_items(),
        }
    }
}

impl PartialEq for Sequence {
    fn eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.items, &other.items) || self.items == other.items
    }
}

impl Sequence {
    /// `()` — the empty sequence.
    pub fn empty() -> Self {
        Sequence::default()
    }

    /// A one-item sequence — indistinguishable from the item itself.
    pub fn singleton(item: Item) -> Self {
        Sequence {
            items: Arc::new(vec![item]),
        }
    }

    /// Builds from items (already flat by the type system: `Item` cannot be
    /// a sequence).
    pub fn from_items(items: Vec<Item>) -> Self {
        Sequence {
            items: Arc::new(items),
        }
    }

    /// Concatenates (= flattens) a list of sequences:
    /// `(1,(2,3,4),(),(5,((6,7)))) = (1,2,3,4,5,6,7)`. A single non-empty
    /// part is reused whole — no copy.
    pub fn concat(parts: impl IntoIterator<Item = Sequence>) -> Self {
        let mut out = Sequence::empty();
        for p in parts {
            out.push_seq(p);
        }
        out
    }

    pub fn push(&mut self, item: Item) {
        Arc::make_mut(&mut self.items).push(item);
    }

    /// Splices another sequence onto the end (flattening). Appending to an
    /// empty sequence steals the other's allocation.
    pub fn push_seq(&mut self, other: Sequence) {
        if other.is_empty() {
            return;
        }
        if self.is_empty() {
            *self = other;
            return;
        }
        let dst = Arc::make_mut(&mut self.items);
        match Arc::try_unwrap(other.items) {
            Ok(v) => dst.extend(v),
            Err(shared) => dst.extend(shared.iter().cloned()),
        }
    }

    pub fn len(&self) -> usize {
        self.items.len()
    }

    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    pub fn items(&self) -> &[Item] {
        &self.items
    }

    /// True when both sequences share one backing allocation — the cheap
    /// identity the runtime hash join uses to tell "the same cached
    /// sequence again" from "a freshly evaluated one" (holding either
    /// sequence keeps the allocation alive, so a pointer match cannot be a
    /// reused address).
    pub fn same_alloc(&self, other: &Sequence) -> bool {
        Arc::ptr_eq(&self.items, &other.items)
    }

    /// The backing items, avoiding a copy when this sequence holds the only
    /// reference.
    pub fn into_items(self) -> Vec<Item> {
        Arc::try_unwrap(self.items).unwrap_or_else(|shared| (*shared).clone())
    }

    pub fn iter(&self) -> std::slice::Iter<'_, Item> {
        self.items.iter()
    }

    /// 1-based indexing, XPath style: `$seq[2]`.
    pub fn get(&self, position: usize) -> Option<&Item> {
        if position == 0 {
            return None;
        }
        self.items.get(position - 1)
    }

    /// The single item of a singleton sequence.
    pub fn as_singleton(&self) -> Option<&Item> {
        if self.items.len() == 1 {
            self.items.first()
        } else {
            None
        }
    }

    /// All node ids, or `None` if any item is atomic.
    pub fn all_nodes(&self) -> Option<Vec<NodeId>> {
        self.items
            .iter()
            .map(|i| i.as_node())
            .collect::<Option<Vec<_>>>()
    }
}

impl FromIterator<Item> for Sequence {
    fn from_iter<T: IntoIterator<Item = Item>>(iter: T) -> Self {
        Sequence::from_items(iter.into_iter().collect())
    }
}

impl IntoIterator for Sequence {
    type Item = Item;
    type IntoIter = std::vec::IntoIter<Item>;

    fn into_iter(self) -> Self::IntoIter {
        self.into_items().into_iter()
    }
}

impl From<Item> for Sequence {
    fn from(item: Item) -> Self {
        Sequence::singleton(item)
    }
}

impl From<Atomic> for Sequence {
    fn from(a: Atomic) -> Self {
        Sequence::singleton(Item::Atomic(a))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ints(values: &[i64]) -> Sequence {
        values.iter().map(|&i| Item::integer(i)).collect()
    }

    #[test]
    fn the_papers_flattening_example() {
        // (1,(2,3,4),(),(5,((6,7)))) = (1,2,3,4,5,6,7)
        let inner = Sequence::concat([ints(&[6, 7])]);
        let five = Sequence::concat([ints(&[5]), inner]);
        let all = Sequence::concat([ints(&[1]), ints(&[2, 3, 4]), Sequence::empty(), five]);
        assert_eq!(all, ints(&[1, 2, 3, 4, 5, 6, 7]));
    }

    #[test]
    fn singleton_indistinguishable_from_item() {
        let one = Sequence::singleton(Item::integer(1));
        let also_one = Sequence::concat([Sequence::from_items(vec![Item::integer(1)])]);
        assert_eq!(one, also_one);
        assert_eq!(one.as_singleton(), Some(&Item::integer(1)));
    }

    #[test]
    fn empty_identity_for_concat() {
        let s = ints(&[1, 2]);
        let with_empties = Sequence::concat([Sequence::empty(), s.clone(), Sequence::empty()]);
        assert_eq!(with_empties, s);
    }

    #[test]
    fn one_based_indexing() {
        let s = ints(&[10, 20, 30]);
        assert_eq!(s.get(0), None);
        assert_eq!(s.get(1), Some(&Item::integer(10)));
        assert_eq!(s.get(3), Some(&Item::integer(30)));
        assert_eq!(s.get(4), None);
    }

    #[test]
    fn double_formatting() {
        assert_eq!(format_double(3.0), "3");
        assert_eq!(format_double(3.5), "3.5");
        assert_eq!(format_double(f64::NAN), "NaN");
        assert_eq!(format_double(f64::INFINITY), "INF");
        assert_eq!(format_double(f64::NEG_INFINITY), "-INF");
        assert_eq!(format_double(-0.0), "0");
    }

    #[test]
    fn atomic_numeric_views() {
        assert_eq!(Atomic::Int(4).as_number(), Some(4.0));
        assert_eq!(Atomic::Untyped(" 2.5 ".into()).as_number(), Some(2.5));
        assert_eq!(Atomic::Str("2.5".into()).as_number(), None);
        assert!(Atomic::Dbl(1.0).is_numeric());
        assert!(!Atomic::Untyped("1".into()).is_numeric());
    }

    #[test]
    fn atomic_text_forms() {
        assert_eq!(Atomic::Bool(true).to_text(), "true");
        assert_eq!(Atomic::Dbl(2.0).to_text(), "2");
        assert_eq!(Atomic::Untyped("x".into()).to_text(), "x");
    }
}
