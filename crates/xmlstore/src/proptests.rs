//! Property-based tests for the store: parse/serialize round-trips and
//! document-order laws on randomly generated trees.

use crate::parser::ParseOptions;
use crate::qname::QName;
use crate::store::{NodeId, NodeKind, Store};
use proptest::prelude::*;

/// A recipe for building a random XML tree deterministically.
#[derive(Debug, Clone)]
enum TreeSpec {
    Text(String),
    Element {
        name: String,
        attrs: Vec<(String, String)>,
        children: Vec<TreeSpec>,
    },
}

fn name_strategy() -> impl Strategy<Value = String> {
    "[a-z][a-z0-9-]{0,6}".prop_map(|s| s)
}

fn text_strategy() -> impl Strategy<Value = String> {
    // Includes characters that need escaping, and whitespace.
    "[ a-zA-Z0-9&<>\"'\\.]{1,12}".prop_map(|s| s)
}

/// Harder payloads for the escaping round-trip: quotes, markup, control
/// whitespace (`\n`/`\t`/`\r`), and the CDATA terminator, in any mix.
fn hostile_text_strategy() -> impl Strategy<Value = String> {
    prop::collection::vec(
        prop_oneof![
            "[ a-zA-Z0-9&<>\"'\\.]",
            Just("\n".to_string()),
            Just("\t".to_string()),
            Just("\r".to_string()),
            Just("]]>".to_string()),
            Just("&amp;".to_string()),
        ],
        1..10,
    )
    .prop_map(|parts| parts.concat())
}

fn tree_strategy() -> impl Strategy<Value = TreeSpec> {
    let leaf = prop_oneof![
        text_strategy().prop_map(TreeSpec::Text),
        (
            name_strategy(),
            prop::collection::vec((name_strategy(), text_strategy()), 0..3)
        )
            .prop_map(|(name, attrs)| TreeSpec::Element {
                name,
                attrs,
                children: vec![],
            }),
    ];
    leaf.prop_recursive(3, 24, 4, |inner| {
        (
            name_strategy(),
            prop::collection::vec((name_strategy(), text_strategy()), 0..3),
            prop::collection::vec(inner, 0..4),
        )
            .prop_map(|(name, attrs, children)| TreeSpec::Element {
                name,
                attrs,
                children,
            })
    })
}

fn build(store: &mut Store, spec: &TreeSpec) -> NodeId {
    match spec {
        TreeSpec::Text(t) => store.create_text(t.clone()).unwrap(),
        TreeSpec::Element {
            name,
            attrs,
            children,
        } => {
            let el = store.create_element(name.as_str()).unwrap();
            for (k, v) in attrs {
                store.set_attribute(el, k.as_str(), v.clone()).unwrap();
            }
            for c in children {
                let node = build(store, c);
                store.append_child(el, node).unwrap();
            }
            el
        }
    }
}

/// Like [`tree_strategy`] but with hostile payloads in texts and attribute
/// values, to exercise every escaping path in the serializer.
fn hostile_tree_strategy() -> impl Strategy<Value = TreeSpec> {
    let leaf = prop_oneof![
        hostile_text_strategy().prop_map(TreeSpec::Text),
        (
            name_strategy(),
            prop::collection::vec((name_strategy(), hostile_text_strategy()), 0..3)
        )
            .prop_map(|(name, attrs)| TreeSpec::Element {
                name,
                attrs,
                children: vec![],
            }),
    ];
    leaf.prop_recursive(3, 24, 4, |inner| {
        (
            name_strategy(),
            prop::collection::vec((name_strategy(), hostile_text_strategy()), 0..3),
            prop::collection::vec(inner, 0..4),
        )
            .prop_map(|(name, attrs, children)| TreeSpec::Element {
                name,
                attrs,
                children,
            })
    })
}

/// Merges adjacent text children (a parser yields one text node where a
/// built tree may hold several), so deep-equality is well-defined.
fn coalesce_text(spec: TreeSpec) -> TreeSpec {
    match spec {
        t @ TreeSpec::Text(_) => t,
        TreeSpec::Element {
            name,
            attrs,
            children,
        } => {
            let mut merged: Vec<TreeSpec> = Vec::with_capacity(children.len());
            for child in children.into_iter().map(coalesce_text) {
                match (merged.last_mut(), child) {
                    (Some(TreeSpec::Text(prev)), TreeSpec::Text(next)) => prev.push_str(&next),
                    (_, child) => merged.push(child),
                }
            }
            TreeSpec::Element {
                name,
                attrs,
                children: merged,
            }
        }
    }
}

/// Structural equality across two stores: same kinds, names, attribute
/// lists (in order), values, and children.
fn deep_equal(a: &Store, na: NodeId, b: &Store, nb: NodeId) -> bool {
    use crate::store::NodeKind;
    match (a.kind(na), b.kind(nb)) {
        (NodeKind::Element(qa), NodeKind::Element(qb)) => {
            if qa != qb {
                return false;
            }
            let (aa, ab) = (a.attributes(na), b.attributes(nb));
            if aa.len() != ab.len() {
                return false;
            }
            let attrs_match = aa
                .iter()
                .zip(ab)
                .all(|(&x, &y)| match (a.kind(x), b.kind(y)) {
                    (NodeKind::Attribute(qx, vx), NodeKind::Attribute(qy, vy)) => {
                        qx == qy && vx == vy
                    }
                    _ => false,
                });
            let (ca, cb) = (a.children(na), b.children(nb));
            attrs_match
                && ca.len() == cb.len()
                && ca.iter().zip(cb).all(|(&x, &y)| deep_equal(a, x, b, y))
        }
        (NodeKind::Document, NodeKind::Document) => {
            let (ca, cb) = (a.children(na), b.children(nb));
            ca.len() == cb.len() && ca.iter().zip(cb).all(|(&x, &y)| deep_equal(a, x, b, y))
        }
        (NodeKind::Text(ta), NodeKind::Text(tb)) => ta == tb,
        (NodeKind::Comment(ta), NodeKind::Comment(tb)) => ta == tb,
        (NodeKind::Attribute(qa, va), NodeKind::Attribute(qb, vb)) => qa == qb && va == vb,
        (NodeKind::Pi(ta, da), NodeKind::Pi(tb, db)) => ta == tb && da == db,
        _ => false,
    }
}

fn root_element(spec: TreeSpec) -> TreeSpec {
    match spec {
        el @ TreeSpec::Element { .. } => el,
        text => TreeSpec::Element {
            name: "root".to_string(),
            attrs: vec![],
            children: vec![text],
        },
    }
}

proptest! {
    /// serialize → parse → serialize is a fixpoint after one iteration.
    #[test]
    fn serialize_parse_roundtrip(spec in tree_strategy()) {
        let spec = root_element(spec);
        let mut s = Store::new();
        let el = build(&mut s, &spec);
        let xml1 = s.to_xml(el);
        let mut s2 = Store::new();
        let doc = s2.parse_str(&xml1, &ParseOptions::default()).unwrap();
        let el2 = s2.document_element(doc).unwrap();
        let xml2 = s2.to_xml(el2);
        prop_assert_eq!(xml1, xml2);
    }

    /// `parse(serialize(doc))` is **deep-equal** to `doc` — structure, names,
    /// attribute values, and text all survive, even with quotes, markup
    /// characters, `\n`/`\t`/`\r`, and `]]>` in the payloads.
    #[test]
    fn parse_of_serialize_is_deep_equal(spec in hostile_tree_strategy()) {
        let spec = coalesce_text(root_element(spec));
        let mut s = Store::new();
        let el = build(&mut s, &spec);
        let xml = s.to_xml(el);
        let mut s2 = Store::new();
        let doc = s2.parse_str(&xml, &ParseOptions::default()).unwrap();
        let el2 = s2.document_element(doc).unwrap();
        prop_assert!(deep_equal(&s, el, &s2, el2), "not deep-equal after round-trip: {}", xml);
    }

    /// Parsing preserves string values through escaping.
    #[test]
    fn string_value_survives_roundtrip(spec in tree_strategy()) {
        let spec = root_element(spec);
        let mut s = Store::new();
        let el = build(&mut s, &spec);
        let expected = s.string_value(el);
        let xml = s.to_xml(el);
        let mut s2 = Store::new();
        let doc = s2.parse_str(&xml, &ParseOptions::default()).unwrap();
        let el2 = s2.document_element(doc).unwrap();
        prop_assert_eq!(s2.string_value(el2), expected);
    }

    /// doc_order is a strict total order over all nodes of one tree, and it
    /// matches the order in which `descendants` yields them.
    #[test]
    fn doc_order_total_and_consistent(spec in tree_strategy()) {
        let spec = root_element(spec);
        let mut s = Store::new();
        let el = build(&mut s, &spec);
        let mut nodes = vec![el];
        nodes.extend(s.descendants(el));
        for (i, &a) in nodes.iter().enumerate() {
            for (j, &b) in nodes.iter().enumerate() {
                let ord = s.doc_order(a, b).expect("same tree");
                prop_assert_eq!(ord, i.cmp(&j));
            }
        }
    }

    /// deep_copy yields an identical serialization, in fresh nodes.
    #[test]
    fn deep_copy_preserves_serialization(spec in tree_strategy()) {
        let spec = root_element(spec);
        let mut s = Store::new();
        let el = build(&mut s, &spec);
        let copy = s.deep_copy(el).unwrap();
        prop_assert_ne!(el, copy);
        prop_assert_eq!(s.to_xml(el), s.to_xml(copy));
    }

    /// The pre/post-indexed doc_order agrees with the walk-based reference
    /// on every node pair — attributes included — both on the fresh tree and
    /// again after a random structural or value mutation.
    #[test]
    fn indexed_order_matches_walk_under_mutation(spec in tree_strategy(), pick in any::<u8>(), mode in 0u8..3) {
        let spec = root_element(spec);
        let mut s = Store::new();
        let el = build(&mut s, &spec);
        assert_index_matches_walk(&s, el)?;

        let movable: Vec<NodeId> = s
            .descendants(el)
            .into_iter()
            .filter(|&n| !s.is_attribute(n))
            .collect();
        let elements: Vec<NodeId> = std::iter::once(el)
            .chain(s.descendants(el))
            .filter(|&n| s.is_element(n))
            .collect();
        match mode {
            // Detach a subtree and re-append it at the end of the root.
            0 if !movable.is_empty() => {
                let n = movable[pick as usize % movable.len()];
                s.detach(n);
                s.append_child(el, n).unwrap();
            }
            // Overwrite (or add) an attribute value: numbering must survive.
            1 => {
                let target = elements[pick as usize % elements.len()];
                s.set_attribute(target, "mut", "ated").unwrap();
            }
            // Grow the tree under a random element.
            2 => {
                let target = elements[pick as usize % elements.len()];
                let t = s.create_text("new").unwrap();
                s.append_child(target, t).unwrap();
            }
            _ => {}
        }
        assert_index_matches_walk(&s, el)?;
    }

    /// The lazily built attribute-value index returns exactly the elements a
    /// subtree scan finds, and follows value overwrites.
    #[test]
    fn attr_value_index_matches_scan(spec in tree_strategy(), overwrite in any::<bool>()) {
        let spec = root_element(spec);
        let mut s = Store::new();
        let el = build(&mut s, &spec);
        let pairs = attr_pairs(&s, el);
        for (local, value) in &pairs {
            prop_assert_eq!(
                s.elements_with_attr_value(el, crate::sym::intern(local), value),
                scan_attr_value(&s, el, local, value)
            );
        }
        if overwrite {
            if let Some((local, old)) = pairs.first().cloned() {
                let owner = scan_attr_value(&s, el, &local, &old)[0];
                s.set_attribute(owner, local.as_str(), "rewritten").unwrap();
                let sym = crate::sym::intern(&local);
                prop_assert_eq!(
                    s.elements_with_attr_value(el, sym, &old),
                    scan_attr_value(&s, el, &local, &old)
                );
                prop_assert_eq!(
                    s.elements_with_attr_value(el, sym, "rewritten"),
                    scan_attr_value(&s, el, &local, "rewritten")
                );
            }
        }
    }

    /// Freeze/edit/thaw interleavings never change what the tree looks like:
    /// a store that freezes at random points (a structural edit auto-thaws
    /// it, a value overwrite writes the frozen record in place) stays
    /// deep-equal to a never-frozen shadow store fed the same edits, and the
    /// frozen-arena order/traversal answers match the walk-based reference.
    #[test]
    fn frozen_arena_matches_legacy_under_interleavings(
        spec in tree_strategy(),
        ops in prop::collection::vec((0u8..4, any::<u8>()), 1..12),
    ) {
        let spec = root_element(spec);
        let mut a = Store::new();
        let mut b = Store::new();
        // Identical build sequences allocate identical NodeIds, so the two
        // stores stay id-aligned through every shared edit below.
        let el_a = build(&mut a, &spec);
        let el_b = build(&mut b, &spec);
        prop_assert_eq!(el_a, el_b);

        for (i, &(action, pick)) in ops.iter().enumerate() {
            match action {
                // Substrate flips only touch store A; B is the shadow.
                0 => { a.freeze(el_a).unwrap(); }
                1 => { a.thaw(el_a); }
                // Shared edits: applied to both stores. Mutating a frozen
                // tree in A exercises the auto-thaw path.
                2 => {
                    let elements: Vec<NodeId> = std::iter::once(el_a)
                        .chain(a.descendants(el_a))
                        .filter(|&n| a.is_element(n))
                        .collect();
                    let target = elements[pick as usize % elements.len()];
                    let ta = a.create_text(format!("t{i}")).unwrap();
                    let tb = b.create_text(format!("t{i}")).unwrap();
                    prop_assert_eq!(ta, tb);
                    a.append_child(target, ta).unwrap();
                    b.append_child(target, tb).unwrap();
                }
                _ => {
                    let elements: Vec<NodeId> = std::iter::once(el_a)
                        .chain(a.descendants(el_a))
                        .filter(|&n| a.is_element(n))
                        .collect();
                    let target = elements[pick as usize % elements.len()];
                    let va = a.set_attribute(target, "p", format!("q{i}")).unwrap();
                    let vb = b.set_attribute(target, "p", format!("q{i}")).unwrap();
                    prop_assert_eq!(va, vb);
                }
            }
            prop_assert!(deep_equal(&a, el_a, &b, el_b));
            prop_assert_eq!(a.to_xml(el_a), b.to_xml(el_b));
            prop_assert_eq!(a.descendants(el_a), b.descendants(el_b));
            assert_index_matches_walk(&a, el_a)?;
        }

        // Refreeze at the end and compare the full answer surface once more.
        a.freeze(el_a).unwrap();
        prop_assert!(deep_equal(&a, el_a, &b, el_b));
        prop_assert_eq!(a.to_xml(el_a), b.to_xml(el_b));
        prop_assert_eq!(a.string_value(el_a), b.string_value(el_b));
        let desc = a.descendants(el_a);
        prop_assert_eq!(&desc, &b.descendants(el_b));
        for &n in desc.iter().chain(std::iter::once(&el_a)) {
            prop_assert_eq!(a.depth(n), b.depth(n));
            prop_assert_eq!(a.parent(n), b.parent(n));
        }
        assert_index_matches_walk(&a, el_a)?;
    }

    /// Random edit/query/refreeze interleavings of *interval-local* edits
    /// (one fresh node or one attribute at a time) keep store A — which
    /// freezes, refreezes, and patches its live index along the way —
    /// byte-identical to a never-frozen shadow store B fed the same edits,
    /// and never once discard A's live numbering: every structural edit must
    /// take the patch path, so `index_full_rebuilds` stays zero.
    #[test]
    fn interval_local_interleavings_patch_and_never_rebuild(
        spec in tree_strategy(),
        ops in prop::collection::vec((0u8..4, any::<u8>()), 1..14),
    ) {
        let spec = root_element(spec);
        let mut a = Store::new();
        let mut b = Store::new();
        let el_a = build(&mut a, &spec);
        let el_b = build(&mut b, &spec);
        prop_assert_eq!(el_a, el_b);
        // Pad the root so a one-node edit can never trip the `2k >= len`
        // edit-storm fallback — the property is about interval-local edits,
        // and on a two-entry tree even one node is "half the tree".
        for _ in 0..8 {
            let pa = a.create_element("pad").unwrap();
            let pb = b.create_element("pad").unwrap();
            prop_assert_eq!(pa, pb);
            a.append_child(el_a, pa).unwrap();
            b.append_child(el_b, pb).unwrap();
        }

        for (i, &(action, pick)) in ops.iter().enumerate() {
            let elements: Vec<NodeId> = std::iter::once(el_a)
                .chain(a.descendants(el_a))
                .filter(|&n| a.is_element(n))
                .collect();
            let target = elements[pick as usize % elements.len()];
            match action {
                // Query: forces the (lazy) index into existence on whichever
                // substrate A currently sits, and must agree with the shadow.
                0 => {
                    let local = crate::sym::intern("pad");
                    prop_assert_eq!(
                        a.descendant_elements_by_local(el_a, local),
                        b.descendant_elements_by_local(el_b, local)
                    );
                    prop_assert_eq!(
                        a.doc_order(el_a, target),
                        a.doc_order_by_walk(el_a, target)
                    );
                }
                // Interval-local structural edit: one fresh text node.
                1 => {
                    let ta = a.create_text(format!("t{i}")).unwrap();
                    let tb = b.create_text(format!("t{i}")).unwrap();
                    prop_assert_eq!(ta, tb);
                    a.append_child(target, ta).unwrap();
                    b.append_child(target, tb).unwrap();
                }
                // Interval-local edit: one attribute (fresh or overwrite).
                2 => {
                    let va = a.set_attribute(target, "p", format!("q{i}")).unwrap();
                    let vb = b.set_attribute(target, "p", format!("q{i}")).unwrap();
                    prop_assert_eq!(va, vb);
                }
                // Refreeze A; the next structural edit auto-thaws. B never
                // freezes.
                _ => { a.freeze(el_a).unwrap(); }
            }
            prop_assert_eq!(a.to_xml(el_a), b.to_xml(el_b));
            prop_assert_eq!(a.descendants(el_a), b.descendants(el_b));
        }

        a.freeze(el_a).unwrap();
        prop_assert_eq!(a.to_xml(el_a), b.to_xml(el_b));
        prop_assert_eq!(a.string_value(el_a), b.string_value(el_b));
        prop_assert_eq!(
            a.stats().index_full_rebuilds, 0,
            "an interval-local edit discarded the live index (repatches: {})",
            a.stats().index_repatches
        );
    }

    /// Shape-preserving edits (attribute overwrite, `set_text`, `set_name`)
    /// written into a frozen tree's records give the same answers as the
    /// same edits on a never-frozen twin: serialization, the name window of
    /// every name in the tree, and the attribute-value probe both before and
    /// after each overwrite. The tree stays frozen unless a snapshot or a
    /// `Store::clone` shares its table: then the edit thaws instead (and the
    /// tree is refrozen), and the held copy keeps the old tree.
    #[test]
    fn shape_preserving_edits_on_frozen_records_match_a_thawed_twin(
        spec in tree_strategy(),
        ops in prop::collection::vec((0u8..3, any::<u8>(), 0u8..4), 1..12),
    ) {
        let spec = root_element(spec);
        let mut a = Store::new();
        let mut b = Store::new();
        let (doc_a, doc_b) = (a.create_document().unwrap(), b.create_document().unwrap());
        let (el_a, el_b) = (build(&mut a, &spec), build(&mut b, &spec));
        a.append_child(doc_a, el_a).unwrap();
        b.append_child(doc_b, el_b).unwrap();
        prop_assert_eq!((doc_a, el_a), (doc_b, el_b));
        a.freeze(doc_a).unwrap();

        for (i, &(kind, pick, share)) in ops.iter().enumerate() {
            let nodes: Vec<NodeId> = b.descendants(doc_b);
            let elements: Vec<NodeId> = nodes.iter().copied().filter(|&n| b.is_element(n)).collect();
            let attrs: Vec<NodeId> = elements.iter().flat_map(|&e| b.attributes(e).to_vec()).collect();
            let texts: Vec<NodeId> = nodes.iter().copied().filter(|&n| b.is_text(n)).collect();
            let target = match kind {
                0 => attrs.get(pick as usize % attrs.len().max(1)).copied(),
                1 => texts.get(pick as usize % texts.len().max(1)).copied(),
                _ => Some(elements[pick as usize % elements.len()]),
            };
            let Some(target) = target else { continue };

            let held_xml = a.to_xml(doc_a);
            let before = a.stats();
            let held_snapshot = (share == 0).then(|| a.snapshot(doc_a).unwrap());
            let held_store = (share == 1).then(|| a.clone());

            match kind {
                0 => {
                    let owner = b.parent(target).unwrap();
                    let (name, old) = match b.kind(target) {
                        NodeKind::Attribute(q, v) => (*q, v.to_string()),
                        _ => unreachable!("an attribute was picked"),
                    };
                    let value = ["x".to_string(), old.clone(), format!("v{i}")][pick as usize % 3].clone();
                    for probe in [&old, &value] {
                        prop_assert_eq!(
                            a.elements_with_attr_value(doc_a, name.local_sym(), probe),
                            b.elements_with_attr_value(doc_b, name.local_sym(), probe)
                        );
                    }
                    a.set_attribute(owner, name, value.as_str()).unwrap();
                    b.set_attribute(owner, name, value.as_str()).unwrap();
                    for probe in [&old, &value] {
                        prop_assert_eq!(
                            a.elements_with_attr_value(doc_a, name.local_sym(), probe),
                            b.elements_with_attr_value(doc_b, name.local_sym(), probe)
                        );
                    }
                }
                1 => {
                    a.set_text(target, format!("t{i}")).unwrap();
                    b.set_text(target, format!("t{i}")).unwrap();
                }
                _ => {
                    let other = elements[(pick as usize / 3) % elements.len()];
                    let name = if pick % 2 == 0 { QName::from("ren") } else { *b.name(other).unwrap() };
                    a.set_name(target, name).unwrap();
                    b.set_name(target, name).unwrap();
                }
            }

            let after = a.stats();
            let shared = held_snapshot.is_some() || held_store.is_some();
            prop_assert_eq!(a.is_frozen(doc_a), !shared);
            prop_assert_eq!(after.trees_thawed, before.trees_thawed + u64::from(shared));
            prop_assert_eq!(
                after.frozen_value_edits,
                before.frozen_value_edits + u64::from(!shared)
            );
            if let Some(snap) = held_snapshot {
                let mut other = Store::new();
                let adopted = other.adopt(&snap).unwrap();
                prop_assert_eq!(other.to_xml(adopted), held_xml.clone());
            }
            if let Some(held) = held_store {
                prop_assert_eq!(held.to_xml(doc_a), held_xml);
            }
            if shared {
                a.freeze(doc_a).unwrap();
            }

            prop_assert_eq!(a.to_xml(doc_a), b.to_xml(doc_b));
            let mut names: Vec<(QName, bool)> = Vec::new();
            for n in b.descendants(doc_b) {
                if let Some(q) = b.name(n) {
                    names.push((*q, false));
                }
                for &at in b.attributes(n) {
                    names.push((*b.name(at).unwrap(), true));
                }
            }
            names.push((QName::from("ren"), false));
            for (q, attributes) in names {
                prop_assert_eq!(
                    a.name_span(doc_a, &q, attributes).nodes(&a),
                    b.name_span(doc_b, &q, attributes).nodes(&b)
                );
            }
        }
    }
}

/// Every (attribute local name, value) pair present below `el` — the
/// descendant axis skips attribute nodes, so they are collected per element.
fn attr_pairs(s: &Store, el: NodeId) -> Vec<(String, String)> {
    let mut out = Vec::new();
    for n in s.descendants(el) {
        for &a in s.attributes(n) {
            if let crate::store::NodeKind::Attribute(q, v) = s.kind(a) {
                out.push((q.local().to_string(), v.to_string()));
            }
        }
    }
    out
}

/// Reference for `elements_with_attr_value`: a plain subtree scan matching
/// by attribute local name and exact value, strictly below `el`.
fn scan_attr_value(s: &Store, el: NodeId, local: &str, value: &str) -> Vec<NodeId> {
    s.descendants(el)
        .into_iter()
        .filter(|&n| {
            s.is_element(n)
                && s.attributes(n).iter().any(|&a| {
                    matches!(s.kind(a), crate::store::NodeKind::Attribute(q, v)
                        if q.local() == local && **v == *value)
                })
        })
        .collect()
}

/// All-pairs agreement between the indexed `doc_order` and the pre-index
/// walk, over elements, texts, and attributes of the tree at `el`.
fn assert_index_matches_walk(
    s: &Store,
    el: NodeId,
) -> Result<(), proptest::test_runner::TestCaseError> {
    let mut nodes = vec![el];
    for n in std::iter::once(el).chain(s.descendants(el)) {
        nodes.extend_from_slice(s.attributes(n));
        if n != el {
            nodes.push(n);
        }
    }
    for &a in &nodes {
        for &b in &nodes {
            prop_assert_eq!(s.doc_order(a, b), s.doc_order_by_walk(a, b));
        }
    }
    Ok(())
}
