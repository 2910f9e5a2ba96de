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
/// The representation follows the data model: a one-item sequence *is* its
/// item, so it is held inline, as the empty sequence is, and neither
/// touches the heap. Only a sequence of two or more items has a backing
/// `Vec`, behind an `Arc`, copy-on-write: cloning it — every variable
/// reference, FLWOR rebinding, and function-argument pass — is a refcount
/// bump, and the `Vec` is only copied when a shared sequence is actually
/// mutated ([`Arc::make_mut`]). The form is canonical — the empty sequence
/// is always `Empty` and one item always `One` — so a `Many` holds at least
/// two items.
#[derive(Debug, Clone, Default)]
pub struct Sequence(Repr);

#[derive(Debug, Clone, Default)]
enum Repr {
    #[default]
    Empty,
    One(Item),
    Many(Arc<Vec<Item>>),
}

impl PartialEq for Sequence {
    fn eq(&self, other: &Self) -> bool {
        match (&self.0, &other.0) {
            (Repr::Many(a), Repr::Many(b)) => Arc::ptr_eq(a, b) || a == b,
            _ => self.items() == other.items(),
        }
    }
}

impl Sequence {
    /// `()` — the empty sequence.
    pub fn empty() -> Self {
        Sequence(Repr::Empty)
    }

    /// A one-item sequence — indistinguishable from the item itself.
    pub fn singleton(item: Item) -> Self {
        Sequence(Repr::One(item))
    }

    /// Builds from items (already flat by the type system: `Item` cannot be
    /// a sequence).
    pub fn from_items(mut items: Vec<Item>) -> Self {
        match items.len() {
            0 => Sequence::empty(),
            1 => Sequence::singleton(items.pop().expect("one item")),
            _ => Sequence(Repr::Many(Arc::new(items))),
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
        match &mut self.0 {
            Repr::Empty => self.0 = Repr::One(item),
            Repr::One(_) => {
                let Repr::One(first) = std::mem::take(&mut self.0) else {
                    unreachable!("matched One above");
                };
                self.0 = Repr::Many(Arc::new(vec![first, item]));
            }
            Repr::Many(items) => Arc::make_mut(items).push(item),
        }
    }

    /// Splices another sequence onto the end (flattening). Appending to an
    /// empty sequence takes the other whole, sharing its allocation.
    pub fn push_seq(&mut self, other: Sequence) {
        match other.0 {
            Repr::Empty => {}
            Repr::One(item) => self.push(item),
            Repr::Many(theirs) => match &mut self.0 {
                Repr::Empty => self.0 = Repr::Many(theirs),
                Repr::One(_) => {
                    let Repr::One(first) = std::mem::take(&mut self.0) else {
                        unreachable!("matched One above");
                    };
                    let mut items = Vec::with_capacity(1 + theirs.len());
                    items.push(first);
                    extend_from(&mut items, theirs);
                    self.0 = Repr::Many(Arc::new(items));
                }
                Repr::Many(mine) => extend_from(Arc::make_mut(mine), theirs),
            },
        }
    }

    pub fn len(&self) -> usize {
        match &self.0 {
            Repr::Empty => 0,
            Repr::One(_) => 1,
            Repr::Many(items) => items.len(),
        }
    }

    pub fn is_empty(&self) -> bool {
        matches!(self.0, Repr::Empty)
    }

    pub fn items(&self) -> &[Item] {
        match &self.0 {
            Repr::Empty => &[],
            Repr::One(item) => std::slice::from_ref(item),
            Repr::Many(items) => items,
        }
    }

    /// True when `other` is this very sequence again, so that a table
    /// built over one stands for the other — the cheap identity the runtime
    /// hash join and keyed split use to tell "the same cached sequence
    /// again" from "a freshly evaluated one". Two sequences of several
    /// items are the same when they share one backing allocation (holding
    /// either keeps it alive, so a pointer match cannot be a reused
    /// address). Two one-item sequences are the same when they hold the
    /// same node: a table's keys depend only on the item, and a node is
    /// its identity. A one-item atomic sequence is never the same as
    /// another; rebuilding a one-entry table costs nothing.
    pub fn same_alloc(&self, other: &Sequence) -> bool {
        match (&self.0, &other.0) {
            (Repr::Empty, Repr::Empty) => true,
            (Repr::One(Item::Node(a)), Repr::One(Item::Node(b))) => a == b,
            (Repr::Many(a), Repr::Many(b)) => Arc::ptr_eq(a, b),
            _ => false,
        }
    }

    /// The items as a `Vec`, avoiding a copy when this sequence holds the
    /// only reference to them. Iterating with [`Sequence::into_iter`]
    /// builds no `Vec` at all.
    pub fn into_items(self) -> Vec<Item> {
        match self.0 {
            Repr::Empty => Vec::new(),
            Repr::One(item) => vec![item],
            Repr::Many(items) => Arc::try_unwrap(items).unwrap_or_else(|shared| (*shared).clone()),
        }
    }

    pub fn iter(&self) -> std::slice::Iter<'_, Item> {
        self.items().iter()
    }

    /// 1-based indexing, XPath style: `$seq[2]`.
    pub fn get(&self, position: usize) -> Option<&Item> {
        if position == 0 {
            return None;
        }
        self.items().get(position - 1)
    }

    /// The single item of a singleton sequence.
    pub fn as_singleton(&self) -> Option<&Item> {
        match &self.0 {
            Repr::One(item) => Some(item),
            _ => None,
        }
    }

    /// All node ids, or `None` if any item is atomic.
    pub fn all_nodes(&self) -> Option<Vec<NodeId>> {
        self.iter().map(|i| i.as_node()).collect::<Option<Vec<_>>>()
    }
}

/// Appends `items`, moving them when no one else holds the `Vec`.
fn extend_from(dst: &mut Vec<Item>, items: Arc<Vec<Item>>) {
    match Arc::try_unwrap(items) {
        Ok(v) => dst.extend(v),
        Err(shared) => dst.extend(shared.iter().cloned()),
    }
}

impl FromIterator<Item> for Sequence {
    fn from_iter<T: IntoIterator<Item = Item>>(iter: T) -> Self {
        let mut iter = iter.into_iter();
        let Some(first) = iter.next() else {
            return Sequence::empty();
        };
        let Some(second) = iter.next() else {
            return Sequence::singleton(first);
        };
        let mut items = Vec::with_capacity(2 + iter.size_hint().0);
        items.push(first);
        items.push(second);
        items.extend(iter);
        Sequence(Repr::Many(Arc::new(items)))
    }
}

/// The owning iterator of a [`Sequence`]: it moves the items out when no
/// one else holds them and clones them one at a time when someone does,
/// and a one-item sequence hands out its item without building a `Vec`.
pub struct IntoIter(IterRepr);

enum IterRepr {
    One(Option<Item>),
    Owned(std::vec::IntoIter<Item>),
    Shared(Arc<Vec<Item>>, usize),
}

impl Iterator for IntoIter {
    type Item = Item;

    fn next(&mut self) -> Option<Item> {
        match &mut self.0 {
            IterRepr::One(item) => item.take(),
            IterRepr::Owned(items) => items.next(),
            IterRepr::Shared(items, next) => {
                let item = items.get(*next).cloned();
                *next += 1;
                item
            }
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = match &self.0 {
            IterRepr::One(item) => usize::from(item.is_some()),
            IterRepr::Owned(items) => items.len(),
            IterRepr::Shared(items, next) => items.len().saturating_sub(*next),
        };
        (n, Some(n))
    }
}

impl ExactSizeIterator for IntoIter {}

impl IntoIterator for Sequence {
    type Item = Item;
    type IntoIter = IntoIter;

    fn into_iter(self) -> IntoIter {
        IntoIter(match self.0 {
            Repr::Empty => IterRepr::One(None),
            Repr::One(item) => IterRepr::One(Some(item)),
            Repr::Many(items) => match Arc::try_unwrap(items) {
                Ok(v) => IterRepr::Owned(v.into_iter()),
                Err(shared) => IterRepr::Shared(shared, 0),
            },
        })
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
    use proptest::prelude::*;
    use proptest::test_runner::TestCaseError;

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

    /// Every frame slot, argument and pending result is a `Sequence`, and
    /// every recursion level holds several: an item that grows grows them
    /// all (see `WORKER_STACK_BYTES`).
    #[test]
    fn a_sequence_is_three_words() {
        assert_eq!(std::mem::size_of::<Sequence>(), 24);
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

    /// One step of the model-based test: the `Sequence` API on one side,
    /// a plain `Vec<Item>` on the other.
    #[derive(Debug, Clone)]
    enum Op {
        Push(ItemSpec),
        /// `push_seq` of a sequence built from these items; `true` keeps a
        /// clone of the pushed sequence alive, so its items are shared.
        PushSeq(Vec<ItemSpec>, bool),
        Concat(Vec<Vec<ItemSpec>>),
        FromItems(Vec<ItemSpec>),
        /// Keeps a clone of the current sequence and later checks that
        /// the mutations after it left the clone as it was.
        Snapshot,
    }

    #[derive(Debug, Clone)]
    enum ItemSpec {
        Int(i64),
        Str(String),
        Node(usize),
    }

    const NODES: usize = 3;

    fn item_spec() -> impl Strategy<Value = ItemSpec> {
        prop_oneof![
            (-3i64..4).prop_map(ItemSpec::Int),
            "[ab]{0,2}".prop_map(ItemSpec::Str),
            (0..NODES).prop_map(ItemSpec::Node),
        ]
    }

    fn op() -> impl Strategy<Value = Op> {
        let items = || prop::collection::vec(item_spec(), 0..4);
        prop_oneof![
            item_spec().prop_map(Op::Push),
            (items(), any::<bool>()).prop_map(|(v, keep)| Op::PushSeq(v, keep)),
            prop::collection::vec(items(), 0..4).prop_map(Op::Concat),
            items().prop_map(Op::FromItems),
            Just(Op::Snapshot),
        ]
    }

    /// Every observation the runtime makes of a sequence, against the
    /// model.
    fn observe(
        seq: &Sequence,
        model: &[Item],
        nodes: &[NodeId],
    ) -> std::result::Result<(), String> {
        let check = |ok: bool, what: &str| if ok { Ok(()) } else { Err(what.to_string()) };
        check(seq.len() == model.len(), "len")?;
        check(seq.is_empty() == model.is_empty(), "is_empty")?;
        check(seq.items() == model, "items")?;
        check(seq.iter().eq(model.iter()), "iter")?;
        for position in 0..=model.len() + 1 {
            let want = position.checked_sub(1).and_then(|i| model.get(i));
            check(seq.get(position) == want, "get")?;
        }
        let single = if model.len() == 1 {
            model.first()
        } else {
            None
        };
        check(seq.as_singleton() == single, "as_singleton")?;
        check(*seq == Sequence::from_items(model.to_vec()), "eq")?;
        check(
            seq.clone().into_items() == model,
            "into_items of a shared clone",
        )?;
        check(
            seq.clone().into_iter().eq(model.iter().cloned()),
            "into_iter",
        )?;
        let iter = seq.clone().into_iter();
        check(iter.len() == model.len(), "into_iter len")?;
        // Representation: canonical, so a one-item sequence is inline.
        let canonical = match (&seq.0, model.len()) {
            (Repr::Empty, 0) | (Repr::One(_), 1) => true,
            (Repr::Many(_), n) => n >= 2,
            _ => false,
        };
        check(canonical, "canonical form")?;
        // `same_alloc`: a clone is the same table input, but for a
        // one-item atomic sequence, which is never; a rebuilt equal
        // sequence is only when it is empty or the same one node.
        let atomic_one = matches!(model, [Item::Atomic(_)]);
        check(
            seq.same_alloc(&seq.clone()) != atomic_one,
            "same_alloc of a clone",
        )?;
        let rebuilt = Sequence::from_items(model.to_vec());
        let same = matches!(model, [] | [Item::Node(_)]);
        check(
            seq.same_alloc(&rebuilt) == same,
            "same_alloc of a rebuilt sequence",
        )?;
        for &n in nodes {
            let one = Sequence::singleton(Item::Node(n));
            let same = model == [Item::Node(n)];
            check(
                seq.same_alloc(&one) == same,
                "same_alloc of a one-node sequence",
            )?;
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The representation is invisible: after every step of a random
        /// program of pushes, splices, concatenations and rebuilds, every
        /// accessor agrees with a plain `Vec<Item>`, and clones taken
        /// along the way keep their items.
        #[test]
        fn sequences_behave_like_a_vec_of_items(ops in prop::collection::vec(op(), 0..12)) {
            let mut store = xmlstore::Store::new();
            let nodes: Vec<NodeId> = (0..NODES)
                .map(|i| store.create_text(format!("t{i}")).expect("text node"))
                .collect();
            let item = |spec: &ItemSpec| match spec {
                ItemSpec::Int(i) => Item::integer(*i),
                ItemSpec::Str(s) => Item::string(s.as_str()),
                ItemSpec::Node(n) => Item::Node(nodes[*n]),
            };
            let items = |specs: &[ItemSpec]| specs.iter().map(item).collect::<Vec<_>>();
            let mut seq = Sequence::empty();
            let mut model: Vec<Item> = Vec::new();
            let mut kept: Vec<(Sequence, Vec<Item>)> = Vec::new();
            for (step, op) in ops.iter().enumerate() {
                match op {
                    Op::Push(spec) => {
                        seq.push(item(spec));
                        model.push(item(spec));
                    }
                    Op::PushSeq(specs, keep) => {
                        let other = Sequence::from_items(items(specs));
                        if *keep {
                            kept.push((other.clone(), items(specs)));
                        }
                        seq.push_seq(other);
                        model.extend(items(specs));
                    }
                    Op::Concat(parts) => {
                        let parts: Vec<Sequence> = parts
                            .iter()
                            .map(|p| p.iter().map(item).collect())
                            .collect();
                        let joined = Sequence::concat(
                            std::iter::once(seq.clone()).chain(parts.iter().cloned()),
                        );
                        for p in &parts {
                            model.extend(p.iter().cloned());
                        }
                        seq = joined;
                    }
                    Op::FromItems(specs) => {
                        seq = Sequence::from_items(items(specs));
                        model = items(specs);
                    }
                    Op::Snapshot => kept.push((seq.clone(), model.clone())),
                }
                let at = |what: String| format!("step {step} of {ops:?}: {what}");
                observe(&seq, &model, &nodes).map_err(|w| TestCaseError::fail(at(w)))?;
                for (clone, was) in &kept {
                    observe(clone, was, &nodes).map_err(|w| TestCaseError::fail(at(format!("kept clone: {w}"))))?;
                }
            }
            let collected: Sequence = model.iter().cloned().collect();
            prop_assert_eq!(&collected, &seq);
            prop_assert_eq!(seq.into_items(), model);
        }
    }
}
