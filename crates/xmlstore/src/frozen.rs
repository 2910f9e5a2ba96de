//! The frozen half of the store: fixed-shape, contiguous pre-order node
//! tables.
//!
//! A [`FrozenTree`] is one XML tree laid out as a single `Vec` of records in
//! pre-order, **attributes included**: an element's record at position `p` is
//! followed immediately by its attribute records (`p+1 .. p+1+attr_len`) and
//! then by its child subtrees. Structure is implicit in the layout:
//!
//! * the descendant axis of `p` is the contiguous range
//!   `p+1 .. subtree_end(p)` — a slice scan, no pointer chasing;
//! * document order is position order and `pre` order keys are the positions
//!   themselves — no lazily stamped numbering pass is ever needed;
//! * `a` is an ancestor of `b` iff `pos(a) < pos(b) < subtree_end(a)`;
//! * a whole tree snapshots with one `Arc` bump ([`TreeSnapshot`]).
//!
//! String payloads stay behind the `Arc<str>`s inside [`NodeKind`] — the
//! records share them, so freezing a tree, snapshotting it, and adopting it
//! into another store never copies text.
//!
//! Name lookups get per-tree maps (local symbol → ascending positions) built
//! lazily on first use. A tree's *shape* never changes once frozen; the only
//! edits a frozen table takes are shape-preserving payload writes
//! ([`FrozenTree::write_record`]). A value overwrite drops one attribute
//! name's value map and a rename drops the name maps, so the next lookup
//! rebuilds them from the records. Mutable (thawed) trees use the
//! stamp-guarded `StoreIndex` instead.

use crate::error::{XmlError, XmlErrorKind};
use crate::qname::QName;
use crate::store::NodeKind;
use crate::sym::Sym;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

/// `parent` value of a tree root: no parent.
pub(crate) const NO_PARENT: u32 = u32::MAX;

/// One node of a frozen tree. `kind` carries the name (interned `Sym`s) and
/// any string payload inline; everything else is offsets into the layout.
#[derive(Debug, Clone)]
pub(crate) struct FrozenRec {
    pub kind: NodeKind,
    /// Position of the parent record, [`NO_PARENT`] for the root.
    pub parent: u32,
    /// One past the last position of this node's subtree (attributes
    /// included). Leaves have `subtree_end == pos + 1`.
    pub subtree_end: u32,
    /// Number of attribute records immediately following this one.
    pub attr_len: u32,
    /// Start of this node's child-position run in [`FrozenTree::kids`].
    pub kids_start: u32,
    /// Number of (non-attribute) children.
    pub kids_len: u32,
    /// Distance from the tree root.
    pub depth: u32,
}

impl FrozenRec {
    pub fn is_attr(&self) -> bool {
        matches!(self.kind, NodeKind::Attribute(..))
    }
}

/// Per-tree name maps: local symbol (or full `QName`) → positions in
/// ascending (document) order. Built once, on first name lookup. The
/// full-name maps exist so a `//item`-style query answers with a map hit and
/// an interval copy — no per-position record read to re-check the prefix.
#[derive(Debug, Default)]
struct NameMaps {
    elements_by_local: HashMap<Sym, Vec<u32>>,
    attributes_by_local: HashMap<Sym, Vec<u32>>,
    elements_by_name: HashMap<QName, Vec<u32>>,
    attributes_by_name: HashMap<QName, Vec<u32>>,
}

/// An XML tree of fixed shape as a contiguous pre-order record table. Shared
/// by `Arc`: the same `FrozenTree` can be mounted in any number of stores,
/// and a shared table is never written ([`FrozenTree::write_record`] needs
/// the only reference).
#[derive(Debug)]
pub(crate) struct FrozenTree {
    pub recs: Vec<FrozenRec>,
    /// Flattened child-position lists: node `p`'s children are
    /// `kids[kids_start(p) .. kids_start(p)+kids_len(p)]`, in document order.
    pub kids: Vec<u32>,
    maps: OnceLock<NameMaps>,
    /// Per attribute local name, exact value → owner-element positions in
    /// ascending order. Built lazily per name; an overwrite of one of that
    /// name's values drops the name's entry.
    #[allow(clippy::type_complexity)]
    attr_values: Mutex<HashMap<Sym, Arc<HashMap<Arc<str>, Vec<u32>>>>>,
}

impl FrozenTree {
    /// Finishes a pre-order record table into a tree: computes the flattened
    /// child lists (`kids_start`/`kids_len` are overwritten).
    pub fn from_recs(mut recs: Vec<FrozenRec>) -> FrozenTree {
        let n = recs.len();
        for pos in 1..n {
            if !recs[pos].is_attr() {
                let p = recs[pos].parent as usize;
                recs[p].kids_len += 1;
            }
        }
        let mut start = 0u32;
        for r in recs.iter_mut() {
            r.kids_start = start;
            start += r.kids_len;
        }
        let mut kids = vec![0u32; start as usize];
        let mut cursor: Vec<u32> = recs.iter().map(|r| r.kids_start).collect();
        for (pos, rec) in recs.iter().enumerate().skip(1) {
            if !rec.is_attr() {
                let p = rec.parent as usize;
                kids[cursor[p] as usize] = pos as u32;
                cursor[p] += 1;
            }
        }
        FrozenTree {
            recs,
            kids,
            maps: OnceLock::new(),
            attr_values: Mutex::new(HashMap::new()),
        }
    }

    /// Finishes a record table whose child lists the caller computed — the
    /// re-freeze splice, which shifts the old tree's lists instead of
    /// re-deriving them. Debug builds re-derive and assert they match.
    pub fn from_parts(recs: Vec<FrozenRec>, kids: Vec<u32>) -> FrozenTree {
        #[cfg(debug_assertions)]
        {
            let mut check = recs.clone();
            for r in check.iter_mut() {
                r.kids_start = 0;
                r.kids_len = 0;
            }
            let derived = FrozenTree::from_recs(check);
            assert_eq!(
                derived.kids, kids,
                "spliced child lists must match a rebuild"
            );
            for (pos, (a, b)) in recs.iter().zip(derived.recs.iter()).enumerate() {
                assert_eq!(
                    (a.kids_start, a.kids_len),
                    (b.kids_start, b.kids_len),
                    "child-list offsets diverge at position {pos}"
                );
            }
        }
        FrozenTree {
            recs,
            kids,
            maps: OnceLock::new(),
            attr_values: Mutex::new(HashMap::new()),
        }
    }

    pub fn len(&self) -> usize {
        self.recs.len()
    }

    /// Deterministic estimate of the heap bytes this record table retains:
    /// the record and child-list vectors plus every string payload. Shared
    /// `Arc<str>` payloads are counted at face value (each holder would keep
    /// them alive on its own), and the lazily built name maps are excluded —
    /// the figure is an *admission* measure, stable from the moment the tree
    /// is built, not a live allocator report.
    pub fn retained_bytes(&self) -> usize {
        let mut bytes = self.recs.len() * std::mem::size_of::<FrozenRec>()
            + self.kids.len() * std::mem::size_of::<u32>();
        for rec in &self.recs {
            bytes += match &rec.kind {
                NodeKind::Document | NodeKind::Element(_) => 0,
                NodeKind::Attribute(_, v) => v.len(),
                NodeKind::Text(t) | NodeKind::Comment(t) => t.len(),
                NodeKind::Pi(target, data) => target.len() + data.len(),
            };
        }
        bytes
    }

    fn maps(&self) -> &NameMaps {
        self.maps.get_or_init(|| {
            let mut m = NameMaps::default();
            for (pos, rec) in self.recs.iter().enumerate() {
                match &rec.kind {
                    NodeKind::Element(q) => {
                        m.elements_by_local
                            .entry(q.local_sym())
                            .or_default()
                            .push(pos as u32);
                        m.elements_by_name.entry(*q).or_default().push(pos as u32);
                    }
                    NodeKind::Attribute(q, _) => {
                        m.attributes_by_local
                            .entry(q.local_sym())
                            .or_default()
                            .push(pos as u32);
                        m.attributes_by_name.entry(*q).or_default().push(pos as u32);
                    }
                    _ => {}
                }
            }
            m
        })
    }

    /// Positions of elements with local symbol `local`, ascending.
    pub fn elements_by_local(&self, local: Sym) -> &[u32] {
        self.maps()
            .elements_by_local
            .get(&local)
            .map(Vec::as_slice)
            .unwrap_or_default()
    }

    /// Positions of attributes with local symbol `local`, ascending.
    pub fn attributes_by_local(&self, local: Sym) -> &[u32] {
        self.maps()
            .attributes_by_local
            .get(&local)
            .map(Vec::as_slice)
            .unwrap_or_default()
    }

    /// Positions of elements with the full name `name`, ascending.
    pub fn elements_by_name(&self, name: &QName) -> &[u32] {
        self.maps()
            .elements_by_name
            .get(name)
            .map(Vec::as_slice)
            .unwrap_or_default()
    }

    /// Positions of attributes with the full name `name`, ascending.
    pub fn attributes_by_name(&self, name: &QName) -> &[u32] {
        self.maps()
            .attributes_by_name
            .get(name)
            .map(Vec::as_slice)
            .unwrap_or_default()
    }

    /// Writes `kind` over the payload of record `pos` — a shape-preserving
    /// edit: an attribute value overwrite, new text or comment content, or an
    /// element rename. `kind` must be the same node kind as the record (and,
    /// for an attribute, carry the same name), so positions, parents, child
    /// lists and attribute runs all stay valid. The caches follow the edit:
    /// an attribute write drops only its local name's value map, a text write
    /// touches no map, and a rename drops the name maps (the next name lookup
    /// rebuilds them).
    pub fn write_record(&mut self, pos: u32, kind: NodeKind) {
        let rec = &mut self.recs[pos as usize];
        match (&rec.kind, &kind) {
            (NodeKind::Attribute(old, _), NodeKind::Attribute(new, _)) => {
                debug_assert_eq!(old, new, "an attribute write keeps its name");
                self.attr_values
                    .get_mut()
                    .unwrap_or_else(|e| e.into_inner())
                    .remove(&old.local_sym());
            }
            (NodeKind::Text(_), NodeKind::Text(_))
            | (NodeKind::Comment(_), NodeKind::Comment(_)) => {}
            (NodeKind::Element(_), NodeKind::Element(_)) => self.maps = OnceLock::new(),
            _ => unreachable!("a record write must keep the node kind"),
        }
        rec.kind = kind;
    }

    /// The value → owner-element-positions map for attribute name `local`,
    /// built on first use. Owner positions come out ascending because the
    /// per-name attribute positions are ascending and each owner precedes
    /// its own attributes.
    pub fn attr_value_owners(&self, local: Sym) -> Arc<HashMap<Arc<str>, Vec<u32>>> {
        if let Some(m) = self
            .attr_values
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .get(&local)
        {
            return m.clone();
        }
        let mut map: HashMap<Arc<str>, Vec<u32>> = HashMap::new();
        for &a in self.attributes_by_local(local) {
            let rec = &self.recs[a as usize];
            if let NodeKind::Attribute(_, v) = &rec.kind {
                map.entry(v.clone()).or_default().push(rec.parent);
            }
        }
        let arc = Arc::new(map);
        self.attr_values
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .entry(local)
            .or_insert(arc)
            .clone()
    }
}

fn arena_full() -> XmlError {
    XmlError::new(XmlErrorKind::ArenaFull, 0, 0)
}

/// Builds a [`FrozenTree`] by appending events in pre-order — the parser
/// emits straight into this, so a parsed document lands frozen without ever
/// taking the pointer-shaped detour.
#[derive(Debug, Default)]
pub(crate) struct FrozenBuilder {
    recs: Vec<FrozenRec>,
    /// Positions of currently open containers (document/elements).
    open: Vec<u32>,
}

impl FrozenBuilder {
    pub fn new() -> Self {
        FrozenBuilder::default()
    }

    fn push_rec(&mut self, kind: NodeKind) -> Result<u32, XmlError> {
        if self.recs.len() >= u32::MAX as usize {
            return Err(arena_full());
        }
        let pos = self.recs.len() as u32;
        let parent = self.open.last().copied().unwrap_or(NO_PARENT);
        self.recs.push(FrozenRec {
            kind,
            parent,
            subtree_end: pos + 1,
            attr_len: 0,
            kids_start: 0,
            kids_len: 0,
            depth: self.open.len() as u32,
        });
        Ok(pos)
    }

    /// Opens the document node. Must be the first event.
    pub fn open_document(&mut self) -> Result<(), XmlError> {
        debug_assert!(self.recs.is_empty(), "document must open first");
        let pos = self.push_rec(NodeKind::Document)?;
        self.open.push(pos);
        Ok(())
    }

    /// Opens an element (as the tree root when nothing is open yet).
    pub fn open_element(&mut self, name: QName) -> Result<(), XmlError> {
        let pos = self.push_rec(NodeKind::Element(name))?;
        self.open.push(pos);
        Ok(())
    }

    /// Adds an attribute to the innermost open element. Must precede any of
    /// its content.
    pub fn attribute(&mut self, name: QName, value: Arc<str>) -> Result<(), XmlError> {
        let el = *self
            .open
            .last()
            .ok_or_else(|| XmlError::structural("attribute outside any element"))?;
        debug_assert!(
            matches!(self.recs[el as usize].kind, NodeKind::Element(_)),
            "attributes belong to elements"
        );
        debug_assert_eq!(
            self.recs.len() as u32,
            el + 1 + self.recs[el as usize].attr_len,
            "attributes must precede element content"
        );
        self.push_rec(NodeKind::Attribute(name, value))?;
        self.recs[el as usize].attr_len += 1;
        Ok(())
    }

    /// Appends a text node to the innermost open container.
    pub fn text(&mut self, text: Arc<str>) -> Result<(), XmlError> {
        self.push_rec(NodeKind::Text(text)).map(drop)
    }

    /// Appends a comment node to the innermost open container.
    pub fn comment(&mut self, text: Arc<str>) -> Result<(), XmlError> {
        self.push_rec(NodeKind::Comment(text)).map(drop)
    }

    /// Appends a processing instruction to the innermost open container.
    pub fn pi(&mut self, target: Arc<str>, data: Arc<str>) -> Result<(), XmlError> {
        self.push_rec(NodeKind::Pi(target, data)).map(drop)
    }

    /// Closes the innermost open container.
    pub fn close(&mut self) {
        let pos = self.open.pop().expect("close without open");
        self.recs[pos as usize].subtree_end = self.recs.len() as u32;
    }

    /// Finishes the build. All containers must be closed.
    pub fn finish(self) -> Result<FrozenTree, XmlError> {
        if !self.open.is_empty() {
            return Err(XmlError::structural("unclosed container in frozen build"));
        }
        if self.recs.is_empty() {
            return Err(XmlError::structural("empty frozen build"));
        }
        Ok(FrozenTree::from_recs(self.recs))
    }
}

/// An O(1) snapshot of a frozen tree: one `Arc` bump, no node copies. Adopt
/// it into any [`crate::Store`] with [`crate::Store::adopt`] — the records
/// (and all string payloads) stay shared.
#[derive(Debug, Clone)]
pub struct TreeSnapshot {
    pub(crate) tree: Arc<FrozenTree>,
}

impl TreeSnapshot {
    /// Number of nodes in the snapshot (attributes included).
    pub fn node_count(&self) -> usize {
        self.tree.len()
    }

    /// Estimated heap bytes the snapshot keeps alive (see
    /// [`FrozenTree::retained_bytes`]) — the unit a byte-budgeted document
    /// cache accounts admissions and evictions in.
    pub fn byte_size(&self) -> usize {
        self.tree.retained_bytes()
    }

    /// `true` when both snapshots share the same underlying record table —
    /// the witness that snapshotting copied nothing.
    pub fn ptr_eq(a: &TreeSnapshot, b: &TreeSnapshot) -> bool {
        Arc::ptr_eq(&a.tree, &b.tree)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sym::intern;

    /// `<r a='1' b='2'><x a='1'/><y/><x/></r>`: `r` at 0, its attributes
    /// at 1 and 2, then `x` at 3 (attribute at 4), `y` at 5 and `x` at 6.
    fn small() -> FrozenTree {
        let mut b = FrozenBuilder::new();
        b.open_element("r".into()).unwrap();
        b.attribute("a".into(), "1".into()).unwrap();
        b.attribute("b".into(), "2".into()).unwrap();
        b.open_element("x".into()).unwrap();
        b.attribute("a".into(), "1".into()).unwrap();
        b.close();
        b.open_element("y".into()).unwrap();
        b.close();
        b.open_element("x".into()).unwrap();
        b.close();
        b.close();
        b.finish().unwrap()
    }

    fn cached_value_names(t: &mut FrozenTree) -> Vec<Sym> {
        let mut names: Vec<Sym> = t.attr_values.get_mut().unwrap().keys().copied().collect();
        names.sort();
        names
    }

    #[test]
    fn attribute_write_drops_only_its_names_value_map() {
        let mut t = small();
        assert_eq!(t.attr_value_owners(intern("a"))["1"], [0, 3]);
        assert_eq!(t.attr_value_owners(intern("b"))["2"], [0]);
        t.write_record(1, NodeKind::Attribute("a".into(), "9".into()));
        assert_eq!(cached_value_names(&mut t), [intern("b")]);
        assert_eq!(t.attr_value_owners(intern("a"))["1"], [3]);
        assert_eq!(t.attr_value_owners(intern("a"))["9"], [0]);
    }

    #[test]
    fn rename_keeps_the_name_maps_equal_to_a_rebuild() {
        let mut t = small();
        assert_eq!(t.elements_by_local(intern("x")), [3, 6]);
        t.write_record(6, NodeKind::Element("y".into()));
        t.write_record(3, NodeKind::Element("z".into()));
        let rebuilt = FrozenTree::from_recs(t.recs.clone());
        for name in ["r", "x", "y", "z"] {
            assert_eq!(
                t.elements_by_local(intern(name)),
                rebuilt.elements_by_local(intern(name)),
                "{name}"
            );
            let q = QName::from(name);
            assert_eq!(
                t.elements_by_name(&q),
                rebuilt.elements_by_name(&q),
                "{name}"
            );
        }
        assert_eq!(t.elements_by_local(intern("y")), [5, 6]);
        assert!(!t.maps().elements_by_local.contains_key(&intern("x")));
    }
}
