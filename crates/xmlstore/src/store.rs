//! The arena document store.
//!
//! All nodes — including attributes — live in one [`Store`] and are addressed
//! by [`NodeId`]. Attributes being real nodes matters for the XQuery data
//! model: the paper's troubles with `attribute troubles {1}` require
//! *detached* attribute nodes that can be passed around as values and later
//! folded into an element (or not).
//!
//! The store is deliberately a "grow-only" arena: removal detaches nodes but
//! never reclaims slots. Evaluations are short-lived and the simplicity buys
//! stable `NodeId`s, which the XQuery engine and the document generators both
//! rely on.
//!
//! ## Structural index
//!
//! Document order and the descendant axis are answered from a lazily built
//! per-tree index: a pre/post numbering (one DFS counter, entry and exit)
//! plus a name → nodes map per tree. `a` is an ancestor of `b` iff
//! `pre(a) < pre(b) && post(b) < post(a)`, and document order is just the
//! `pre` comparison — both O(1) once a tree is numbered, where the previous
//! implementation re-walked parent chains with linear sibling-position scans
//! on every comparison. A structural edit of a tree whose index is built
//! patches the numbering in place (the inserted or removed fragment's rank
//! interval, the shifted suffix, the ancestors' exit ranks, each touched
//! name's vector) and counts `index_repatches`; a fragment of half the tree
//! or more, or a stale entry, drops the tree's index instead and counts
//! `index_full_rebuilds`, and the next order query renumbers the tree in one
//! pass. Either way the tree's attribute-value maps are cleared. A value
//! overwrite keeps the numbering: on a thawed tree it clears the tree's
//! attribute-value maps, and on a frozen one only the written name's map.
//! `set_text` touches no map. The walk-based comparison survives as
//! [`Store::doc_order_by_walk`], the reference implementation the property
//! tests check the index against.
//!
//! ## Editing a frozen tree
//!
//! Parsed and adopted trees are frozen ([`crate::frozen`]): their layout
//! answers order and name queries with no index at all. The rule for editing
//! one: **shape-preserving edits write the record; structural edits thaw and
//! splice.** An edit that changes no child or attribute list — an attribute
//! value overwrite, [`Store::set_text`], [`Store::set_name`] — writes one
//! record in place and the tree stays frozen, provided this store's mount
//! holds the only reference to the record table. Every other edit, and a
//! shape-preserving edit of a table a snapshot, clone or other mount shares,
//! thaws the whole tree into the mutable overlay above, and the next
//! [`Store::freeze`] splices the edited subtree's records back into the old
//! table.

use crate::error::{XmlError, XmlErrorKind};
use crate::frozen::{FrozenRec, FrozenTree, TreeSnapshot, NO_PARENT};
use crate::qname::QName;
use crate::sym::Sym;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering as AtomicOrdering};
use std::sync::{Arc, Mutex, MutexGuard};

/// Index of a node within its [`Store`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(u32);

impl NodeId {
    pub(crate) fn index(self) -> usize {
        self.0 as usize
    }
}

/// The seven kinds of node the store models (XQuery's document, element,
/// attribute, text, comment, and processing-instruction nodes).
///
/// String payloads are `Arc<str>`: taking a node's string value, deep-copying
/// a subtree, and atomizing a node for comparison are all refcount bumps, not
/// `String` clones (the same treatment `Atomic::Str` got in the value model).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NodeKind {
    /// A document root. Children are elements/text/comments/PIs.
    Document,
    /// An element with a name; attributes and children are stored in the
    /// node's structure fields.
    Element(QName),
    /// An attribute: a name mapped to a string value. "Logically, it is
    /// nothing more than a mapping of a single string name to a single
    /// string value. Illogically, it caused us a great deal of trouble."
    Attribute(QName, Arc<str>),
    /// A text node.
    Text(Arc<str>),
    /// A comment.
    Comment(Arc<str>),
    /// A processing instruction: target and data.
    Pi(Arc<str>, Arc<str>),
}

#[derive(Debug, Clone)]
struct NodeData {
    kind: NodeKind,
    parent: Option<NodeId>,
    /// Child node ids, in document order. Only documents and elements have
    /// children; empty for all other kinds.
    children: Vec<NodeId>,
    /// Attribute node ids, in the order they were added. Only elements have
    /// attributes.
    attributes: Vec<NodeId>,
}

impl NodeData {
    fn new(kind: NodeKind) -> Self {
        NodeData {
            kind,
            parent: None,
            children: Vec::new(),
            attributes: Vec::new(),
        }
    }
}

/// One id's slot: either a mutable pointer-shaped node (the legacy overlay,
/// used while a tree is being built or edited) or a position inside a
/// mounted [`FrozenTree`]. A tree is always entirely one or the other.
#[derive(Debug, Clone)]
enum Slot {
    Thawed(NodeData),
    Frozen { mount: u32, pos: u32 },
}

/// A frozen tree mounted into this store: the shared record table plus the
/// per-store id tables mapping layout positions back to [`NodeId`]s.
/// `tree` is shared (snapshots, adoption); the id tables are per mount.
#[derive(Debug, Clone)]
struct Mount {
    tree: Arc<FrozenTree>,
    /// Position → node id, in pre-order (attributes included).
    ids: Vec<NodeId>,
    /// [`FrozenTree::kids`] mapped to node ids: node `p`'s children are the
    /// slice `child_ids[kids_start(p) .. kids_start(p)+kids_len(p)]`.
    child_ids: Vec<NodeId>,
    /// When the id table is `base, base+1, …` (every parsed or adopted
    /// tree), position → id is an add instead of a table gather.
    contig_base: Option<u32>,
}

impl Mount {
    fn new(tree: Arc<FrozenTree>, ids: Vec<NodeId>) -> Mount {
        let child_ids: Vec<NodeId> = tree.kids.iter().map(|&p| ids[p as usize]).collect();
        let contig_base = match ids.first() {
            Some(&NodeId(base))
                if ids
                    .iter()
                    .enumerate()
                    .all(|(i, &id)| id == NodeId(base + i as u32)) =>
            {
                Some(base)
            }
            _ => None,
        };
        Mount {
            tree,
            ids,
            child_ids,
            contig_base,
        }
    }

    /// Maps a slice of layout positions to node ids in one pass. The bulk
    /// name-query answers go through here, so the contiguous case matters:
    /// it compiles to a vectorised add over the interval.
    fn resolve_all(&self, positions: &[u32]) -> Vec<NodeId> {
        match self.contig_base {
            Some(base) => positions.iter().map(|&p| NodeId(base + p)).collect(),
            None => positions.iter().map(|&p| self.ids[p as usize]).collect(),
        }
    }
}

/// Node id → old layout position for a [`ThawOrigin`]. Parsed and adopted
/// trees land on consecutive ids, so the common case is a subtraction; the
/// map covers trees frozen in place on scattered ids.
#[derive(Debug, Clone)]
enum PosLookup {
    Contig { base: u32, len: u32 },
    Map(HashMap<NodeId, u32>),
}

impl PosLookup {
    fn get(&self, id: NodeId) -> Option<u32> {
        match self {
            PosLookup::Contig { base, len } => {
                let NodeId(raw) = id;
                (raw >= *base && raw - base < *len).then(|| raw - base)
            }
            PosLookup::Map(m) => m.get(&id).copied(),
        }
    }
}

/// What a thawed tree remembers about the frozen layout it was expanded
/// from, so [`Store::freeze`] can *splice* the edited subtree's records into
/// the shared prefix/suffix instead of rebuilding the whole table.
///
/// `cover` is the current-tree LCA of every edit site since the thaw; every
/// record outside `cover`'s subtree is byte-identical to its old self (moves
/// always mark both the detach and the attach parent, so a node whose
/// ancestry changed is always under the LCA). `old_dirty` is the union
/// interval of *old* positions known invalidated — fragments that left or
/// re-entered the tree — which the chosen splice range must swallow, lifting
/// the cover up the parent chain if necessary. The origin is dropped on
/// freeze (consumed), or when its root is grafted into another tree.
#[derive(Debug, Clone)]
struct ThawOrigin {
    tree: Arc<FrozenTree>,
    /// Old position → node id (the thaw-time id table).
    ids: Vec<NodeId>,
    pos: PosLookup,
    /// Current-tree LCA of all edit sites; `None` = untouched since thaw.
    cover: Option<NodeId>,
    /// Inclusive min/max of invalidated old positions, if any.
    old_dirty: Option<(u32, u32)>,
}

/// Relaxed counters proving the flat-arena paths fire (observability; never
/// affects results). Snapshot them with [`Store::stats`].
#[derive(Debug, Default)]
struct StatCells {
    arena_slice_scans: AtomicU64,
    tree_snapshots: AtomicU64,
    trees_frozen: AtomicU64,
    trees_thawed: AtomicU64,
    mounts_released: AtomicU64,
    index_repatches: AtomicU64,
    index_full_rebuilds: AtomicU64,
    trees_refrozen_incremental: AtomicU64,
    frozen_value_edits: AtomicU64,
}

/// A point-in-time copy of the store's flat-substrate counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StoreStats {
    /// Frozen-tree structural answers served straight from the contiguous
    /// layout: descendant range scans and name-index interval lookups.
    pub arena_slice_scans: u64,
    /// O(1) tree snapshots taken ([`Store::snapshot`]).
    pub tree_snapshots: u64,
    /// Trees frozen into the arena form ([`Store::freeze`] and parses).
    pub trees_frozen: u64,
    /// Trees thawed back to the mutable overlay (explicit or on edit).
    pub trees_thawed: u64,
    /// Frozen mounts dropped by [`Store::release_mount`] — a cache evicting
    /// a document it had adopted gives the record table back this way.
    pub mounts_released: u64,
    /// Structural edits that patched the live numbering in place (splice +
    /// positional offset fixup) instead of discarding it. Cold edits — no
    /// index built yet — count neither here nor below.
    pub index_repatches: u64,
    /// Structural edits that discarded a live numbering: the whole-tree
    /// fallback for pathological edit storms (or a defensive reset when a
    /// needed entry went stale). The lazy initial build is not a rebuild.
    pub index_full_rebuilds: u64,
    /// Freezes that reused the previous [`FrozenTree`]'s records — either
    /// remounting an untouched tree verbatim or splicing only the edited
    /// subtree's records into the shared prefix/suffix.
    pub trees_refrozen_incremental: u64,
    /// Shape-preserving edits (attribute value overwrite, `set_text`,
    /// `set_name`) written straight into a frozen record, tree kept frozen.
    pub frozen_value_edits: u64,
}

/// One node's slot in the structural index. Valid only while the owning
/// tree's stamp (in `StoreIndex::trees`) still equals `stamp`.
#[derive(Debug, Clone, Copy)]
struct OrdEntry {
    /// DFS entry rank within the tree (attributes numbered right after their
    /// element, before its children — the data-model attribute position).
    pre: u32,
    /// DFS exit rank; the subtree of `n` is exactly the ids with
    /// `pre(n) < pre && post < post(n)`.
    post: u32,
    /// Distance from the tree root.
    depth: u32,
    /// Root of the tree this numbering belongs to.
    root: NodeId,
    /// Numbering pass that wrote this entry; 0 = never numbered.
    stamp: u64,
}

impl Default for OrdEntry {
    fn default() -> Self {
        OrdEntry {
            pre: 0,
            post: 0,
            depth: 0,
            root: NodeId(0),
            stamp: 0,
        }
    }
}

/// Per-tree name index, rebuilt together with the numbering. The vectors are
/// in `pre` order by construction, so a descendant lookup is a binary search
/// for the scope's interval.
#[derive(Debug, Clone, Default)]
struct TreeIndex {
    stamp: u64,
    /// Every node of the tree — attributes included — in ascending `pre`
    /// order. This is what lets a structural edit patch the numbering in
    /// place: the suffix whose ranks shift is one `partition_point` away,
    /// and the fixup is a vectorisable add over the run.
    by_pre: Vec<NodeId>,
    elements_by_local: HashMap<Sym, Vec<NodeId>>,
    attributes_by_local: HashMap<Sym, Vec<NodeId>>,
    /// Per attribute name, exact string value → owner elements in `pre`
    /// order. Built lazily per name on first lookup (from
    /// `attributes_by_local`), and cleared — numbering kept — on
    /// attribute-value overwrites.
    attr_values: HashMap<Sym, HashMap<Arc<str>, Vec<NodeId>>>,
}

/// The store-wide lazy index: a parallel entry table plus the set of trees
/// with a currently valid numbering. Stamps are globally unique per
/// numbering pass, so a stale entry can never validate against a newer pass.
#[derive(Debug, Default)]
struct StoreIndex {
    entries: Vec<OrdEntry>,
    trees: HashMap<NodeId, TreeIndex>,
    next_stamp: u64,
}

impl StoreIndex {
    fn entry_if_current(&self, id: NodeId) -> Option<OrdEntry> {
        let e = *self.entries.get(id.index())?;
        if e.stamp != 0 && self.trees.get(&e.root).is_some_and(|t| t.stamp == e.stamp) {
            Some(e)
        } else {
            None
        }
    }
}

/// An arena of XML nodes. See the module docs.
#[derive(Debug, Default)]
pub struct Store {
    slots: Vec<Slot>,
    /// Mounted frozen trees; `None` entries are free (recycled on thaw).
    mounts: Vec<Option<Mount>>,
    free_mounts: Vec<u32>,
    /// Lazily built structural index **for thawed trees only**; a `Mutex`
    /// (not `RefCell`) so shared stores stay `Sync` — compiled stylesheets
    /// holding a store are handed to big-stack worker threads by reference.
    /// Frozen trees answer order queries lock-free from their layout.
    index: Mutex<StoreIndex>,
    /// Keyed by tree root: what each currently-thawed tree remembers about
    /// the frozen layout it came from, for the re-freeze splice. A tree that
    /// stays thawed forever keeps its old record table alive — one
    /// generation, released on the next freeze.
    thaw_origins: HashMap<NodeId, ThawOrigin>,
    stats: StatCells,
    /// Test-only cap on the node count, so arena exhaustion is testable
    /// without allocating 2^32 nodes.
    #[cfg(test)]
    node_cap: Option<usize>,
}

impl Clone for Store {
    fn clone(&self) -> Self {
        // The index and the stats are caches/diagnostics: the clone starts
        // cold. Mounted record tables are shared, not copied.
        Store {
            slots: self.slots.clone(),
            mounts: self.mounts.clone(),
            free_mounts: self.free_mounts.clone(),
            index: Mutex::new(StoreIndex::default()),
            // Re-freeze provenance is an optimisation, not state: the clone
            // pays one full freeze per thawed tree and is correct from zero.
            thaw_origins: HashMap::new(),
            stats: StatCells::default(),
            #[cfg(test)]
            node_cap: self.node_cap,
        }
    }
}

impl Store {
    /// An empty store.
    pub fn new() -> Self {
        Store::default()
    }

    /// Number of nodes ever created (detached nodes included).
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// `true` when no node has ever been created.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Errs with [`XmlErrorKind::ArenaFull`] when `extra` more nodes would
    /// push the arena past the `u32` id range (or the test cap).
    fn check_capacity(&self, extra: usize) -> Result<(), XmlError> {
        #[allow(unused_mut)]
        let mut cap = u32::MAX as usize;
        #[cfg(test)]
        if let Some(c) = self.node_cap {
            cap = cap.min(c);
        }
        if self.slots.len().saturating_add(extra) > cap {
            return Err(XmlError::new(XmlErrorKind::ArenaFull, 0, 0));
        }
        Ok(())
    }

    /// Lowers the arena capacity so exhaustion is reachable in tests.
    #[cfg(test)]
    fn set_node_cap(&mut self, cap: usize) {
        self.node_cap = Some(cap);
    }

    fn alloc(&mut self, data: NodeData) -> Result<NodeId, XmlError> {
        self.check_capacity(1)?;
        let id = NodeId(self.slots.len() as u32);
        self.slots.push(Slot::Thawed(data));
        Ok(id)
    }

    /// The thawed node data of `id`. Internal callers reach this only after
    /// the frozen case has been dispatched (or the tree thawed).
    fn node(&self, id: NodeId) -> &NodeData {
        match &self.slots[id.index()] {
            Slot::Thawed(d) => d,
            Slot::Frozen { .. } => unreachable!("frozen node where thawed data was expected"),
        }
    }

    fn node_mut(&mut self, id: NodeId) -> &mut NodeData {
        match &mut self.slots[id.index()] {
            Slot::Thawed(d) => d,
            Slot::Frozen { .. } => unreachable!("frozen node where thawed data was expected"),
        }
    }

    /// `(mount index, position)` when `id` lives in a frozen tree.
    fn floc(&self, id: NodeId) -> Option<(u32, u32)> {
        match self.slots[id.index()] {
            Slot::Frozen { mount, pos } => Some((mount, pos)),
            Slot::Thawed(_) => None,
        }
    }

    fn mount(&self, m: u32) -> &Mount {
        self.mounts[m as usize]
            .as_ref()
            .expect("live mount (was this node's tree released with release_mount?)")
    }

    fn bump(&self, cell: &AtomicU64) {
        cell.fetch_add(1, AtomicOrdering::Relaxed);
    }

    /// The flat-substrate observability counters.
    pub fn stats(&self) -> StoreStats {
        StoreStats {
            arena_slice_scans: self.stats.arena_slice_scans.load(AtomicOrdering::Relaxed),
            tree_snapshots: self.stats.tree_snapshots.load(AtomicOrdering::Relaxed),
            trees_frozen: self.stats.trees_frozen.load(AtomicOrdering::Relaxed),
            trees_thawed: self.stats.trees_thawed.load(AtomicOrdering::Relaxed),
            mounts_released: self.stats.mounts_released.load(AtomicOrdering::Relaxed),
            index_repatches: self.stats.index_repatches.load(AtomicOrdering::Relaxed),
            index_full_rebuilds: self.stats.index_full_rebuilds.load(AtomicOrdering::Relaxed),
            trees_refrozen_incremental: self
                .stats
                .trees_refrozen_incremental
                .load(AtomicOrdering::Relaxed),
            frozen_value_edits: self.stats.frozen_value_edits.load(AtomicOrdering::Relaxed),
        }
    }

    // ------------------------------------------------------------------
    // Creation
    // ------------------------------------------------------------------

    /// Creates an empty document node. Errs (recoverably) when the arena is
    /// full — as do all `create_*` constructors.
    pub fn create_document(&mut self) -> Result<NodeId, XmlError> {
        self.alloc(NodeData::new(NodeKind::Document))
    }

    /// Creates a detached element.
    pub fn create_element(&mut self, name: impl Into<QName>) -> Result<NodeId, XmlError> {
        self.alloc(NodeData::new(NodeKind::Element(name.into())))
    }

    /// Creates a detached attribute node.
    pub fn create_attribute(
        &mut self,
        name: impl Into<QName>,
        value: impl Into<Arc<str>>,
    ) -> Result<NodeId, XmlError> {
        self.alloc(NodeData::new(NodeKind::Attribute(
            name.into(),
            value.into(),
        )))
    }

    /// Creates a detached text node.
    pub fn create_text(&mut self, text: impl Into<Arc<str>>) -> Result<NodeId, XmlError> {
        self.alloc(NodeData::new(NodeKind::Text(text.into())))
    }

    /// Creates a detached comment node.
    pub fn create_comment(&mut self, text: impl Into<Arc<str>>) -> Result<NodeId, XmlError> {
        self.alloc(NodeData::new(NodeKind::Comment(text.into())))
    }

    /// Creates a detached processing-instruction node.
    pub fn create_pi(
        &mut self,
        target: impl Into<Arc<str>>,
        data: impl Into<Arc<str>>,
    ) -> Result<NodeId, XmlError> {
        self.alloc(NodeData::new(NodeKind::Pi(target.into(), data.into())))
    }

    // ------------------------------------------------------------------
    // Accessors
    // ------------------------------------------------------------------

    /// The kind of `id`.
    #[inline]
    pub fn kind(&self, id: NodeId) -> &NodeKind {
        match &self.slots[id.index()] {
            Slot::Thawed(d) => &d.kind,
            Slot::Frozen { mount, pos } => &self.mount(*mount).tree.recs[*pos as usize].kind,
        }
    }

    /// The parent, if attached.
    #[inline]
    pub fn parent(&self, id: NodeId) -> Option<NodeId> {
        match &self.slots[id.index()] {
            Slot::Thawed(d) => d.parent,
            Slot::Frozen { mount, pos } => {
                let m = self.mount(*mount);
                let p = m.tree.recs[*pos as usize].parent;
                (p != NO_PARENT).then(|| m.ids[p as usize])
            }
        }
    }

    /// The element or document children of `id`, in document order.
    #[inline]
    pub fn children(&self, id: NodeId) -> &[NodeId] {
        match &self.slots[id.index()] {
            Slot::Thawed(d) => &d.children,
            Slot::Frozen { mount, pos } => {
                let m = self.mount(*mount);
                let r = &m.tree.recs[*pos as usize];
                &m.child_ids[r.kids_start as usize..(r.kids_start + r.kids_len) as usize]
            }
        }
    }

    /// The attribute nodes of `id` (element only; empty otherwise).
    #[inline]
    pub fn attributes(&self, id: NodeId) -> &[NodeId] {
        match &self.slots[id.index()] {
            Slot::Thawed(d) => &d.attributes,
            Slot::Frozen { mount, pos } => {
                let m = self.mount(*mount);
                let r = &m.tree.recs[*pos as usize];
                let p = *pos as usize;
                &m.ids[p + 1..p + 1 + r.attr_len as usize]
            }
        }
    }

    /// The `i`-th child of `id`, or `None` past the end. O(1) on both
    /// substrates — a streaming cursor holds only `(id, i)` across pulls,
    /// so the borrow of the child slice never outlives one call.
    #[inline]
    pub fn nth_child(&self, id: NodeId, i: usize) -> Option<&NodeId> {
        self.children(id).get(i)
    }

    /// The `i`-th attribute node of `id`, or `None` past the end. O(1) on
    /// both substrates; the cursor counterpart of [`Store::nth_child`].
    #[inline]
    pub fn nth_attribute(&self, id: NodeId, i: usize) -> Option<&NodeId> {
        self.attributes(id).get(i)
    }

    /// The name of an element or attribute node.
    #[inline]
    pub fn name(&self, id: NodeId) -> Option<&QName> {
        match self.kind(id) {
            NodeKind::Element(name) | NodeKind::Attribute(name, _) => Some(name),
            _ => None,
        }
    }

    /// `true` if `id` is an element.
    #[inline]
    pub fn is_element(&self, id: NodeId) -> bool {
        matches!(self.kind(id), NodeKind::Element(_))
    }

    /// `true` if `id` is an attribute node.
    #[inline]
    pub fn is_attribute(&self, id: NodeId) -> bool {
        matches!(self.kind(id), NodeKind::Attribute(..))
    }

    /// `true` if `id` is a text node.
    #[inline]
    pub fn is_text(&self, id: NodeId) -> bool {
        matches!(self.kind(id), NodeKind::Text(_))
    }

    /// `true` if `id` is a document node.
    #[inline]
    pub fn is_document(&self, id: NodeId) -> bool {
        matches!(self.kind(id), NodeKind::Document)
    }

    /// The single element child of a document node.
    pub fn document_element(&self, doc: NodeId) -> Option<NodeId> {
        self.children(doc)
            .iter()
            .copied()
            .find(|&c| self.is_element(c))
    }

    /// The value of the attribute of `el` named `name`, if present.
    pub fn attribute_value(&self, el: NodeId, name: &str) -> Option<&str> {
        self.attributes(el)
            .iter()
            .find_map(|&a| match self.kind(a) {
                NodeKind::Attribute(n, v) if n.display_is(name) => Some(&v[..]),
                _ => None,
            })
    }

    /// The attribute *node* of `el` named `name`, if present.
    pub fn attribute_node(&self, el: NodeId, name: &str) -> Option<NodeId> {
        self.attributes(el)
            .iter()
            .copied()
            .find(|&a| match self.kind(a) {
                NodeKind::Attribute(n, _) => n.display_is(name),
                _ => false,
            })
    }

    /// The XPath *string value*: concatenated descendant text for
    /// documents/elements; the literal content for the other kinds.
    pub fn string_value(&self, id: NodeId) -> String {
        self.string_value_arc(id).to_string()
    }

    /// [`Store::string_value`] without the copy: leaf kinds hand back their
    /// shared payload (a refcount bump); containers with a single text child
    /// share that child's payload; only mixed content allocates.
    pub fn string_value_arc(&self, id: NodeId) -> Arc<str> {
        match self.kind(id) {
            NodeKind::Document | NodeKind::Element(_) => {
                if let [only] = self.children(id)[..] {
                    if let NodeKind::Text(t) = self.kind(only) {
                        return t.clone();
                    }
                }
                let mut out = String::new();
                self.collect_text(id, &mut out);
                out.into()
            }
            NodeKind::Attribute(_, v) => v.clone(),
            NodeKind::Text(t) | NodeKind::Comment(t) => t.clone(),
            NodeKind::Pi(_, data) => data.clone(),
        }
    }

    fn collect_text(&self, id: NodeId, out: &mut String) {
        for n in self.descendants_iter(id) {
            if let NodeKind::Text(t) = self.kind(n) {
                out.push_str(t);
            }
        }
    }

    /// First child element of `id` with the given local name.
    pub fn child_element_named(&self, id: NodeId, name: &str) -> Option<NodeId> {
        self.children(id)
            .iter()
            .copied()
            .find(|&c| self.name(c).is_some_and(|n| n.has_local(name)))
    }

    /// All child elements of `id` with the given local name.
    pub fn child_elements_named(&self, id: NodeId, name: &str) -> Vec<NodeId> {
        self.children(id)
            .iter()
            .copied()
            .filter(|&c| self.is_element(c) && self.name(c).is_some_and(|n| n.has_local(name)))
            .collect()
    }

    /// All child elements of `id`.
    pub fn child_elements(&self, id: NodeId) -> Vec<NodeId> {
        self.children(id)
            .iter()
            .copied()
            .filter(|&c| self.is_element(c))
            .collect()
    }

    // ------------------------------------------------------------------
    // Mutation
    // ------------------------------------------------------------------

    fn assert_container(&self, id: NodeId) -> Result<(), XmlError> {
        match self.kind(id) {
            NodeKind::Document | NodeKind::Element(_) => Ok(()),
            _ => Err(XmlError::structural(
                "only documents and elements have children",
            )),
        }
    }

    fn assert_detached(&self, id: NodeId) -> Result<(), XmlError> {
        if self.parent(id).is_some() {
            Err(XmlError::structural(
                "node is already attached; detach it first",
            ))
        } else {
            Ok(())
        }
    }

    fn would_cycle(&self, parent: NodeId, child: NodeId) -> bool {
        let mut cur = Some(parent);
        while let Some(n) = cur {
            if n == child {
                return true;
            }
            cur = self.parent(n);
        }
        false
    }

    /// Thaws the tree containing `id` if it is frozen. Every structural
    /// mutator calls this first: edits that change a child or attribute list
    /// happen on the pointer-shaped overlay, and the tree can be
    /// [`Store::freeze`]-d again afterwards.
    fn thaw_tree_of(&mut self, id: NodeId) {
        if self.floc(id).is_some() {
            self.thaw(id);
        }
    }

    /// The shape-preserving edit of a frozen tree: when `id` lives in a
    /// frozen table this mount holds alone, writes `kind` over its record
    /// (see [`FrozenTree::write_record`]) and keeps the tree frozen; the
    /// mount's ids and child lists stay valid. Otherwise — `id` is thawed,
    /// or a [`TreeSnapshot`], another store's mount or a `Store::clone`
    /// shares the table — thaws the tree and hands `kind` back for the
    /// overlay edit, so the other holders keep the old table.
    fn write_frozen(&mut self, id: NodeId, kind: NodeKind) -> Result<(), NodeKind> {
        let Some((m, pos)) = self.floc(id) else {
            return Err(kind);
        };
        let mount = self.mounts[m as usize]
            .as_mut()
            .expect("live mount (was this node's tree released with release_mount?)");
        let Some(tree) = Arc::get_mut(&mut mount.tree) else {
            self.thaw(id);
            return Err(kind);
        };
        tree.write_record(pos, kind);
        self.bump(&self.stats.frozen_value_edits);
        Ok(())
    }

    // ------------------------------------------------------------------
    // Dirty-interval index maintenance
    //
    // A structural edit touches one contiguous rank interval of its tree's
    // numbering: the inserted (or removed) fragment occupies the gap
    // `[g, g+c)` of DFS counters, every entry at or after the gap shifts by
    // `c`, and the edit site's ancestors shift only their exit rank. The
    // patch functions below apply exactly that — a `by_pre` splice, a
    // vectorisable add over the suffix run, an O(depth) ancestor walk, and
    // one binary-searched splice per touched name — instead of discarding
    // the whole tree's index. The whole-tree reset survives as the fallback
    // for edit storms (fragment ≥ half the tree) and for the defensive case
    // of a needed entry having gone stale; `index_repatches` and
    // `index_full_rebuilds` count which path fired. Cold trees (no live
    // numbering) take neither path — the lazy build is not a rebuild.
    // ------------------------------------------------------------------

    /// Discards the live numbering of `root`, counting the discard. The
    /// patch functions call this when they bail out; the lazy reindex on the
    /// next order query is the "full rebuild" the counter names.
    fn index_reset(&self, ix: &mut StoreIndex, root: NodeId) {
        if ix.trees.remove(&root).is_some() {
            self.bump(&self.stats.index_full_rebuilds);
        }
    }

    /// Rank counters the fragment at `n` consumes (non-attribute nodes take
    /// an entry and an exit rank, attributes one), and its node count.
    fn fragment_weight(&self, n: NodeId) -> (usize, u32) {
        let mut k = 0usize;
        let mut c = 0u32;
        let mut weigh = |is_attr: bool| {
            k += 1;
            c += if is_attr { 1 } else { 2 };
        };
        weigh(self.is_attribute(n));
        if !self.is_attribute(n) {
            for a in std::iter::once(n).chain(self.descendants_iter(n)) {
                for _ in self.node(a).attributes.iter() {
                    weigh(true);
                }
                if a != n {
                    weigh(false);
                }
            }
        }
        (k, c)
    }

    /// Splices the freshly attached fragment at `child` (an appended
    /// attribute when `as_attribute`) into the live numbering of `parent`'s
    /// tree. Called *after* the structural mutation.
    fn index_attach(&self, parent: NodeId, child: NodeId, as_attribute: bool) {
        let root = self.root(parent);
        let mut guard = self.index();
        let ix = &mut *guard;
        // Any fragment index the child carried is dead now that it merged.
        ix.trees.remove(&child);
        let Some(tree_len) = ix.trees.get(&root).map(|t| t.by_pre.len()) else {
            return;
        };
        let (k, c) = self.fragment_weight(child);
        if 2 * k >= tree_len {
            self.index_reset(ix, root);
            return;
        }
        let Some(pe) = ix.entry_if_current(parent) else {
            self.index_reset(ix, root);
            return;
        };
        // The gap rank: where the fragment's first counter lands.
        let g = if as_attribute {
            // Appended last among the attributes, numbered pre(parent)+i.
            pe.pre + self.node(parent).attributes.len() as u32
        } else {
            let i = self
                .node(parent)
                .children
                .iter()
                .position(|&n| n == child)
                .expect("child was just attached");
            if i == 0 {
                pe.pre + self.node(parent).attributes.len() as u32 + 1
            } else {
                let prev = self.node(parent).children[i - 1];
                match ix.entry_if_current(prev) {
                    Some(e) => e.post + 1,
                    None => {
                        self.index_reset(ix, root);
                        return;
                    }
                }
            }
        };
        if ix.entries.len() < self.slots.len() {
            ix.entries.resize(self.slots.len(), OrdEntry::default());
        }
        let stamp = ix.trees[&root].stamp;
        // Number the fragment exactly as `reindex_tree` would, offset to the
        // gap, collecting the new pre-ordered ids and per-name additions.
        let mut new_by_pre: Vec<NodeId> = Vec::with_capacity(k);
        let mut new_elems: Vec<(Sym, NodeId)> = Vec::new();
        let mut new_attrs: Vec<(Sym, NodeId)> = Vec::new();
        let mut counter = g - 1;
        enum Visit {
            Enter(NodeId, u32),
            Exit(NodeId),
        }
        let mut stack = vec![Visit::Enter(child, pe.depth + 1)];
        while let Some(v) = stack.pop() {
            match v {
                Visit::Enter(n, depth) => {
                    counter += 1;
                    if let NodeKind::Attribute(q, _) = &self.node(n).kind {
                        ix.entries[n.index()] = OrdEntry {
                            pre: counter,
                            post: counter,
                            depth,
                            root,
                            stamp,
                        };
                        new_by_pre.push(n);
                        new_attrs.push((q.local_sym(), n));
                        continue;
                    }
                    ix.entries[n.index()] = OrdEntry {
                        pre: counter,
                        post: 0,
                        depth,
                        root,
                        stamp,
                    };
                    new_by_pre.push(n);
                    if let NodeKind::Element(q) = &self.node(n).kind {
                        new_elems.push((q.local_sym(), n));
                    }
                    for &a in &self.node(n).attributes {
                        counter += 1;
                        ix.entries[a.index()] = OrdEntry {
                            pre: counter,
                            post: counter,
                            depth: depth + 1,
                            root,
                            stamp,
                        };
                        new_by_pre.push(a);
                        if let NodeKind::Attribute(q, _) = &self.node(a).kind {
                            new_attrs.push((q.local_sym(), a));
                        }
                    }
                    stack.push(Visit::Exit(n));
                    for &cc in self.node(n).children.iter().rev() {
                        stack.push(Visit::Enter(cc, depth + 1));
                    }
                }
                Visit::Exit(n) => {
                    counter += 1;
                    ix.entries[n.index()].post = counter;
                }
            }
        }
        debug_assert_eq!(counter, g - 1 + c);
        let StoreIndex { entries, trees, .. } = ix;
        let tree = trees.get_mut(&root).expect("checked above");
        // Suffix: everything at or after the gap shifts by the fragment.
        let at = tree.by_pre.partition_point(|&n| entries[n.index()].pre < g);
        for &n in &tree.by_pre[at..] {
            let e = &mut entries[n.index()];
            e.pre += c;
            e.post += c;
        }
        // Ancestors straddle the gap (pre < g ≤ post): exit ranks only.
        let mut anc = Some(parent);
        while let Some(a) = anc {
            entries[a.index()].post += c;
            anc = self.node(a).parent;
        }
        tree.by_pre.splice(at..at, new_by_pre);
        // Per-name splices: each name's additions are one contiguous pre
        // run, and the shifted existing entries are all < g or ≥ g+c.
        for (map, added) in [
            (&mut tree.elements_by_local, new_elems),
            (&mut tree.attributes_by_local, new_attrs),
        ] {
            let mut grouped: HashMap<Sym, Vec<NodeId>> = HashMap::new();
            for (s, n) in added {
                grouped.entry(s).or_default().push(n);
            }
            for (s, ns) in grouped {
                let v = map.entry(s).or_default();
                let at = v.partition_point(|&n| entries[n.index()].pre < g);
                v.splice(at..at, ns);
            }
        }
        tree.attr_values.clear();
        self.bump(&self.stats.index_repatches);
    }

    /// Removes the just-detached fragment at `node` (old parent `parent`)
    /// from the live numbering of the tree it left. The fragment's entries
    /// are stamped invalid so they can never validate against the old tree.
    /// Called *after* the structural removal.
    fn index_detach(&self, parent: NodeId, node: NodeId) {
        let root = self.root(parent);
        let mut guard = self.index();
        let ix = &mut *guard;
        if !ix.trees.contains_key(&root) {
            return;
        }
        let ne = match ix.entry_if_current(node) {
            Some(e) if e.root == root => e,
            _ => {
                self.index_reset(ix, root);
                return;
            }
        };
        let c = ne.post - ne.pre + 1;
        let StoreIndex { entries, trees, .. } = ix;
        let tree = trees.get_mut(&root).expect("checked above");
        let lo = tree
            .by_pre
            .partition_point(|&n| entries[n.index()].pre < ne.pre);
        let hi = lo + tree.by_pre[lo..].partition_point(|&n| entries[n.index()].pre <= ne.post);
        if 2 * (hi - lo) >= tree.by_pre.len() {
            trees.remove(&root);
            self.bump(&self.stats.index_full_rebuilds);
            return;
        }
        // Names the fragment used: drain each name's contiguous pre run.
        let mut gone_elems: Vec<Sym> = Vec::new();
        let mut gone_attrs: Vec<Sym> = Vec::new();
        for &n in &tree.by_pre[lo..hi] {
            match &self.node(n).kind {
                NodeKind::Element(q) if !gone_elems.contains(&q.local_sym()) => {
                    gone_elems.push(q.local_sym());
                }
                NodeKind::Attribute(q, _) if !gone_attrs.contains(&q.local_sym()) => {
                    gone_attrs.push(q.local_sym());
                }
                _ => {}
            }
        }
        for (map, gone) in [
            (&mut tree.elements_by_local, gone_elems),
            (&mut tree.attributes_by_local, gone_attrs),
        ] {
            for s in gone {
                if let Some(v) = map.get_mut(&s) {
                    let a = v.partition_point(|&n| entries[n.index()].pre < ne.pre);
                    let b = a + v[a..].partition_point(|&n| entries[n.index()].pre <= ne.post);
                    v.drain(a..b);
                }
            }
        }
        for &n in &tree.by_pre[lo..hi] {
            entries[n.index()].stamp = 0;
        }
        for &n in &tree.by_pre[hi..] {
            let e = &mut entries[n.index()];
            e.pre -= c;
            e.post -= c;
        }
        let mut anc = Some(parent);
        while let Some(a) = anc {
            entries[a.index()].post -= c;
            anc = self.node(a).parent;
        }
        tree.by_pre.drain(lo..hi);
        tree.attr_values.clear();
        self.bump(&self.stats.index_repatches);
    }

    /// Moves a renamed element between the per-name vectors. Ranks are
    /// untouched — a rename is the cheapest structural patch there is.
    fn index_rename(&self, id: NodeId, old: &QName, new: &QName) {
        let root = self.root(id);
        let mut guard = self.index();
        let ix = &mut *guard;
        if !ix.trees.contains_key(&root) {
            return;
        }
        let Some(e) = ix.entry_if_current(id) else {
            self.index_reset(ix, root);
            return;
        };
        let StoreIndex { entries, trees, .. } = ix;
        let tree = trees.get_mut(&root).expect("checked above");
        if old.local_sym() != new.local_sym() {
            if let Some(v) = tree.elements_by_local.get_mut(&old.local_sym()) {
                let a = v.partition_point(|&n| entries[n.index()].pre < e.pre);
                if v.get(a) == Some(&id) {
                    v.remove(a);
                }
            }
            let v = tree.elements_by_local.entry(new.local_sym()).or_default();
            let a = v.partition_point(|&n| entries[n.index()].pre < e.pre);
            v.insert(a, id);
        }
        self.bump(&self.stats.index_repatches);
    }

    // ------------------------------------------------------------------
    // Re-freeze provenance maintenance
    //
    // The mutators below the index hooks also feed the [`ThawOrigin`] of
    // their tree (when it has one): the current-tree LCA of edit sites plus
    // the union interval of invalidated *old* positions. That is everything
    // `freeze` needs to splice instead of rebuild.
    // ------------------------------------------------------------------

    /// LCA of two nodes known to share a tree (walk both to equal depth,
    /// then step together).
    fn lca(&self, a: NodeId, b: NodeId) -> NodeId {
        let chain_len = |mut n: NodeId| {
            let mut d = 0usize;
            while let Some(p) = self.parent(n) {
                n = p;
                d += 1;
            }
            d
        };
        let (mut a, mut b) = (a, b);
        let (mut da, mut db) = (chain_len(a), chain_len(b));
        while da > db {
            a = self.parent(a).expect("depth accounted");
            da -= 1;
        }
        while db > da {
            b = self.parent(b).expect("depth accounted");
            db -= 1;
        }
        while a != b {
            a = self.parent(a).expect("nodes share a tree");
            b = self.parent(b).expect("nodes share a tree");
        }
        a
    }

    /// Records an edit at `site` for the origin of `root` (if tracked),
    /// widening `old_dirty` over the old positions of `frag`'s subtree when
    /// a fragment moved across the tree boundary.
    fn origin_mark(&mut self, root: NodeId, site: NodeId, frag: Option<NodeId>) {
        let Some(o) = self.thaw_origins.get(&root) else {
            return;
        };
        let new_cover = match o.cover {
            None => site,
            // The old cover may itself have left the tree inside a detached
            // fragment; its dirt is in `old_dirty` already, so the site
            // alone carries on.
            Some(c) if self.root(c) == root => self.lca(c, site),
            Some(_) => site,
        };
        let mut span = o.old_dirty;
        let mut widen = |p: u32| {
            span = Some(match span {
                None => (p, p),
                Some((lo, hi)) => (lo.min(p), hi.max(p)),
            });
        };
        match frag {
            Some(f) if !self.is_attribute(f) => {
                for n in std::iter::once(f).chain(self.descendants_iter(f)) {
                    if let Some(p) = o.pos.get(n) {
                        widen(p);
                    }
                    for &a in self.node(n).attributes.iter() {
                        if let Some(p) = o.pos.get(a) {
                            widen(p);
                        }
                    }
                }
            }
            Some(f) => {
                if let Some(p) = o.pos.get(f) {
                    widen(p);
                }
            }
            None => {
                if let Some(p) = o.pos.get(site) {
                    widen(p);
                }
            }
        }
        let o = self.thaw_origins.get_mut(&root).expect("checked above");
        o.cover = Some(new_cover);
        o.old_dirty = span;
    }

    /// Hook for structural edits: `fragment` was just grafted under (or
    /// detached from) `parent`. Retires the fragment's own origin — its tree
    /// merged away — and marks the edit on the surviving tree's origin.
    fn origin_structural(&mut self, parent: NodeId, fragment: NodeId) {
        if self.thaw_origins.is_empty() {
            return;
        }
        self.thaw_origins.remove(&fragment);
        let root = self.root(parent);
        self.origin_mark(root, parent, Some(fragment));
    }

    /// Hook for value edits (text, name, attribute value): only `node`'s own
    /// record went stale.
    fn origin_value(&mut self, node: NodeId) {
        if self.thaw_origins.is_empty() {
            return;
        }
        let root = self.root(node);
        self.origin_mark(root, node, None);
    }

    /// Drops only the attribute-value maps of the tree containing `id`,
    /// keeping its numbering and name vectors. Called when an attribute's
    /// value is overwritten in place: document order is unaffected, but any
    /// cached value → owners map is now stale.
    fn invalidate_attr_values_of(&mut self, id: NodeId) {
        let root = self.root(id);
        if let Some(tree) = self
            .index
            .get_mut()
            .unwrap_or_else(|e| e.into_inner())
            .trees
            .get_mut(&root)
        {
            tree.attr_values.clear();
        }
    }

    /// Appends a detached non-attribute node as the last child of `parent`.
    pub fn append_child(&mut self, parent: NodeId, child: NodeId) -> Result<(), XmlError> {
        let pos = self.children(parent).len();
        self.insert_child(parent, pos, child)
    }

    /// Inserts a detached non-attribute node at `index` among `parent`'s children.
    pub fn insert_child(
        &mut self,
        parent: NodeId,
        index: usize,
        child: NodeId,
    ) -> Result<(), XmlError> {
        self.assert_container(parent)?;
        self.assert_detached(child)?;
        self.thaw_tree_of(parent);
        self.thaw_tree_of(child);
        if self.is_attribute(child) {
            return Err(XmlError::structural(
                "attribute nodes are attached with set_attribute_node, not as children",
            ));
        }
        if self.would_cycle(parent, child) {
            return Err(XmlError::structural("insertion would create a cycle"));
        }
        let len = self.node(parent).children.len();
        if index > len {
            return Err(XmlError::structural("child index out of bounds"));
        }
        self.node_mut(parent).children.insert(index, child);
        self.node_mut(child).parent = Some(parent);
        self.index_attach(parent, child, false);
        self.origin_structural(parent, child);
        Ok(())
    }

    /// Detaches `id` from its parent (children or attributes list). No-op if
    /// already detached.
    pub fn detach(&mut self, id: NodeId) {
        if self.parent(id).is_none() {
            return;
        }
        self.thaw_tree_of(id);
        if let Some(parent) = self.node(id).parent {
            let p = self.node_mut(parent);
            p.children.retain(|&c| c != id);
            p.attributes.retain(|&a| a != id);
            self.node_mut(id).parent = None;
            self.index_detach(parent, id);
            self.origin_structural(parent, id);
        }
    }

    /// Replaces the attached node `old` with the detached node `new`,
    /// preserving position. `old` is left detached.
    pub fn replace_child(&mut self, old: NodeId, new: NodeId) -> Result<(), XmlError> {
        let parent = self
            .parent(old)
            .ok_or_else(|| XmlError::structural("replace_child: old node is detached"))?;
        self.assert_detached(new)?;
        self.thaw_tree_of(old);
        self.thaw_tree_of(new);
        if self.is_attribute(old) || self.is_attribute(new) {
            return Err(XmlError::structural(
                "replace_child does not handle attributes",
            ));
        }
        if self.would_cycle(parent, new) {
            return Err(XmlError::structural("replacement would create a cycle"));
        }
        let pos = self
            .node(parent)
            .children
            .iter()
            .position(|&c| c == old)
            .ok_or_else(|| XmlError::structural("corrupt parent/child link"))?;
        self.node_mut(parent).children[pos] = new;
        self.node_mut(new).parent = Some(parent);
        self.node_mut(old).parent = None;
        self.index_detach(parent, old);
        self.index_attach(parent, new, false);
        self.origin_structural(parent, old);
        self.origin_structural(parent, new);
        Ok(())
    }

    /// Sets (creating or overwriting) attribute `name` on element `el`.
    /// Returns the attribute node.
    pub fn set_attribute(
        &mut self,
        el: NodeId,
        name: impl Into<QName>,
        value: impl Into<Arc<str>>,
    ) -> Result<NodeId, XmlError> {
        let name = name.into();
        let value = value.into();
        if !self.is_element(el) {
            return Err(XmlError::structural(
                "set_attribute target is not an element",
            ));
        }
        let existing = self
            .attributes(el)
            .iter()
            .copied()
            .find(|&a| matches!(self.kind(a), NodeKind::Attribute(n, _) if *n == name));
        if let Some(attr) = existing {
            // Value-only overwrite: order and names unchanged. A frozen
            // tree takes it as one record write; a thawed one keeps its
            // numbering and drops only the value → owners maps.
            let Err(kind) = self.write_frozen(attr, NodeKind::Attribute(name, value)) else {
                return Ok(attr);
            };
            self.node_mut(attr).kind = kind;
            self.invalidate_attr_values_of(el);
            self.origin_value(attr);
            Ok(attr)
        } else {
            self.thaw_tree_of(el);
            let attr = self.create_attribute(name, value)?;
            self.node_mut(attr).parent = Some(el);
            self.node_mut(el).attributes.push(attr);
            self.index_attach(el, attr, true);
            self.origin_structural(el, attr);
            Ok(attr)
        }
    }

    /// Attaches a detached attribute node to `el`. Errors if an attribute
    /// with the same name is already present (mirrors `XQDY0025`; callers
    /// wanting Galax's lax behaviour check first).
    pub fn set_attribute_node(&mut self, el: NodeId, attr: NodeId) -> Result<(), XmlError> {
        if !self.is_element(el) {
            return Err(XmlError::structural(
                "set_attribute_node target is not an element",
            ));
        }
        self.assert_detached(attr)?;
        let name = match self.kind(attr) {
            NodeKind::Attribute(n, _) => *n,
            _ => {
                return Err(XmlError::structural(
                    "set_attribute_node argument is not an attribute",
                ))
            }
        };
        if self
            .attributes(el)
            .iter()
            .any(|&a| matches!(self.kind(a), NodeKind::Attribute(n, _) if *n == name))
        {
            return Err(XmlError::structural(format!("duplicate attribute {name}")));
        }
        self.thaw_tree_of(el);
        self.thaw_tree_of(attr);
        self.node_mut(attr).parent = Some(el);
        self.node_mut(el).attributes.push(attr);
        self.index_attach(el, attr, true);
        self.origin_structural(el, attr);
        Ok(())
    }

    /// Attaches a detached attribute node to `el` **without** the duplicate
    /// check — reproduces Galax's early behaviour of letting two attributes
    /// with the same name coexist on a constructed element.
    pub fn push_attribute_node_unchecked(
        &mut self,
        el: NodeId,
        attr: NodeId,
    ) -> Result<(), XmlError> {
        if !self.is_element(el) {
            return Err(XmlError::structural("attribute target is not an element"));
        }
        self.assert_detached(attr)?;
        if !self.is_attribute(attr) {
            return Err(XmlError::structural("argument is not an attribute node"));
        }
        self.thaw_tree_of(el);
        self.thaw_tree_of(attr);
        self.node_mut(attr).parent = Some(el);
        self.node_mut(el).attributes.push(attr);
        self.index_attach(el, attr, true);
        self.origin_structural(el, attr);
        Ok(())
    }

    /// Removes attribute `name` from `el`; returns the detached node if it
    /// was present.
    pub fn remove_attribute(&mut self, el: NodeId, name: &str) -> Option<NodeId> {
        let attr = self.attribute_node(el, name)?;
        self.detach(attr);
        Some(attr)
    }

    /// Overwrites the content of a text/comment node. Value-only: a frozen
    /// tree stays frozen (one record write), and a thawed tree's structural
    /// index is untouched.
    pub fn set_text(&mut self, id: NodeId, text: impl Into<Arc<str>>) -> Result<(), XmlError> {
        let kind = match self.kind(id) {
            NodeKind::Text(_) => NodeKind::Text(text.into()),
            NodeKind::Comment(_) => NodeKind::Comment(text.into()),
            _ => {
                return Err(XmlError::structural(
                    "set_text target is not a text or comment node",
                ))
            }
        };
        let Err(kind) = self.write_frozen(id, kind) else {
            return Ok(());
        };
        self.node_mut(id).kind = kind;
        self.origin_value(id);
        Ok(())
    }

    /// Renames an element. Moves it between the per-name index vectors; the
    /// numbering is untouched (a rename changes no ranks), and a frozen tree
    /// stays frozen (one record write).
    pub fn set_name(&mut self, id: NodeId, name: impl Into<QName>) -> Result<(), XmlError> {
        if !self.is_element(id) {
            return Err(XmlError::structural("set_name target is not an element"));
        }
        let new: QName = name.into();
        if self.write_frozen(id, NodeKind::Element(new)).is_ok() {
            return Ok(());
        }
        let old = match &mut self.node_mut(id).kind {
            NodeKind::Element(n) => std::mem::replace(n, new),
            _ => unreachable!("checked above"),
        };
        self.index_rename(id, &old, &new);
        self.origin_value(id);
        Ok(())
    }

    /// Splits the text node `id` at byte offset `at`, producing two adjacent
    /// text nodes; returns the id of the second. This is the "rip that node
    /// apart and shove Table 1's HTML bodily into the gap" primitive of the
    /// paper's phrase-replacement task.
    pub fn split_text(&mut self, id: NodeId, at: usize) -> Result<NodeId, XmlError> {
        let (head, tail): (Arc<str>, Arc<str>) = match self.kind(id) {
            NodeKind::Text(t) => {
                if !t.is_char_boundary(at) || at > t.len() {
                    return Err(XmlError::structural("split offset is not a char boundary"));
                }
                (t[..at].into(), t[at..].into())
            }
            _ => return Err(XmlError::structural("split_text target is not a text node")),
        };
        let parent = self
            .parent(id)
            .ok_or_else(|| XmlError::structural("split_text on a detached node"))?;
        self.thaw_tree_of(id);
        if let NodeKind::Text(t) = &mut self.node_mut(id).kind {
            *t = head;
        }
        let tail_node = self.create_text(tail)?;
        let pos = self
            .node(parent)
            .children
            .iter()
            .position(|&c| c == id)
            .ok_or_else(|| XmlError::structural("corrupt parent/child link"))?;
        self.node_mut(parent).children.insert(pos + 1, tail_node);
        self.node_mut(tail_node).parent = Some(parent);
        self.index_attach(parent, tail_node, false);
        self.origin_value(id);
        self.origin_structural(parent, tail_node);
        Ok(tail_node)
    }

    // ------------------------------------------------------------------
    // Copying
    // ------------------------------------------------------------------

    /// Deep-copies the subtree at `id` into a detached (thawed) tree in the
    /// same store; returns the new root. Attribute nodes are copied detached
    /// when `id` is itself an attribute. This is the copy semantics of
    /// XQuery's node constructors. The copy is a fresh tree, so the source
    /// tree's index stays valid; a frozen source is read in place, not
    /// thawed. Iterative — safe on arbitrarily deep trees. On arena
    /// exhaustion the partial copy stays behind, detached (the arena is
    /// grow-only anyway).
    pub fn deep_copy(&mut self, id: NodeId) -> Result<NodeId, XmlError> {
        let kind = self.kind(id).clone();
        let copy = self.alloc(NodeData::new(kind))?;
        let mut stack: Vec<(NodeId, NodeId)> = vec![(id, copy)];
        while let Some((src, dst)) = stack.pop() {
            let attrs: Vec<NodeId> = self.attributes(src).to_vec();
            for a in attrs {
                let kind = self.kind(a).clone();
                let ac = self.alloc(NodeData::new(kind))?;
                self.node_mut(ac).parent = Some(dst);
                self.node_mut(dst).attributes.push(ac);
            }
            let kids: Vec<NodeId> = self.children(src).to_vec();
            for k in kids {
                let kind = self.kind(k).clone();
                let kc = self.alloc(NodeData::new(kind))?;
                self.node_mut(kc).parent = Some(dst);
                self.node_mut(dst).children.push(kc);
                stack.push((k, kc));
            }
        }
        Ok(copy)
    }

    // ------------------------------------------------------------------
    // Freeze / thaw lifecycle
    // ------------------------------------------------------------------

    /// Freezes the tree containing `id` into a contiguous pre-order record
    /// table; returns the tree root. Idempotent. Node ids are unchanged —
    /// only the representation behind them moves. The legacy numbering for
    /// the tree is dropped: frozen trees answer order queries from the
    /// layout, lock-free.
    pub fn freeze(&mut self, id: NodeId) -> Result<NodeId, XmlError> {
        let root = self.root(id);
        if self.floc(root).is_some() {
            return Ok(root);
        }
        // A tree thawed from a frozen layout can usually go back
        // incrementally: remount the old table verbatim when untouched, or
        // splice only the edited subtree's records into the shared
        // prefix/suffix. Localized-only — anything unprovable falls through
        // to the full rebuild below.
        if let Some(origin) = self.thaw_origins.remove(&root) {
            if self.refreeze_incremental(root, origin)? {
                return Ok(root);
            }
        }
        let mut recs: Vec<FrozenRec> = Vec::new();
        let mut ids: Vec<NodeId> = Vec::new();
        enum Visit {
            Enter(NodeId, u32, u32),
            Exit(usize),
        }
        let mut stack = vec![Visit::Enter(root, 0, NO_PARENT)];
        while let Some(v) = stack.pop() {
            match v {
                Visit::Enter(n, depth, parent) => {
                    let data = self.node(n);
                    if recs.len() + 1 + data.attributes.len() > u32::MAX as usize {
                        return Err(XmlError::new(XmlErrorKind::ArenaFull, 0, 0));
                    }
                    let pos = recs.len();
                    recs.push(FrozenRec {
                        kind: data.kind.clone(),
                        parent,
                        subtree_end: pos as u32 + 1,
                        attr_len: data.attributes.len() as u32,
                        kids_start: 0,
                        kids_len: 0,
                        depth,
                    });
                    ids.push(n);
                    for &a in &data.attributes {
                        let apos = recs.len() as u32;
                        recs.push(FrozenRec {
                            kind: self.node(a).kind.clone(),
                            parent: pos as u32,
                            subtree_end: apos + 1,
                            attr_len: 0,
                            kids_start: 0,
                            kids_len: 0,
                            depth: depth + 1,
                        });
                        ids.push(a);
                    }
                    stack.push(Visit::Exit(pos));
                    for &c in data.children.iter().rev() {
                        stack.push(Visit::Enter(c, depth + 1, pos as u32));
                    }
                }
                Visit::Exit(pos) => recs[pos].subtree_end = recs.len() as u32,
            }
        }
        let tree = Arc::new(FrozenTree::from_recs(recs));
        self.mount_in_place(root, tree, ids);
        Ok(root)
    }

    /// Shared tail of every freeze path: point the ids' slots at a new
    /// mount and drop the (now dead) legacy numbering for the tree.
    fn mount_in_place(&mut self, root: NodeId, tree: Arc<FrozenTree>, ids: Vec<NodeId>) {
        let mount_ix = self.new_mount_ix();
        for (pos, &nid) in ids.iter().enumerate() {
            self.slots[nid.index()] = Slot::Frozen {
                mount: mount_ix,
                pos: pos as u32,
            };
        }
        self.mounts[mount_ix as usize] = Some(Mount::new(tree, ids));
        self.index
            .get_mut()
            .unwrap_or_else(|e| e.into_inner())
            .trees
            .remove(&root);
        self.bump(&self.stats.trees_frozen);
    }

    /// The incremental re-freeze: `root`'s tree was thawed from `origin`'s
    /// record table and every edit since has been tracked. Returns `Ok(false)`
    /// when the edits are not provably localized — the caller then rebuilds
    /// from scratch, which is always correct.
    ///
    /// The splice contract: pick a node `d` that existed in the old layout
    /// at position `s` (old subtree `[s, e)`) such that (a) `d`'s current
    /// subtree contains every edit site (it is an ancestor-or-self of the
    /// tracked cover) and (b) `[s, e)` contains every invalidated old
    /// position (`old_dirty`). Then records outside `[s, e)` are reusable
    /// verbatim up to position arithmetic: prefix `subtree_end`s spanning
    /// the splice and all suffix `subtree_end`/`parent` positions shift by
    /// `delta`, the length change of the splice.
    fn refreeze_incremental(&mut self, root: NodeId, origin: ThawOrigin) -> Result<bool, XmlError> {
        let ThawOrigin {
            tree: old,
            ids: old_ids,
            pos,
            cover,
            old_dirty,
        } = origin;
        if old_ids.first() != Some(&root) {
            return Ok(false);
        }
        let Some(mut d) = cover else {
            // Untouched since thaw: remount the old table verbatim.
            if old_dirty.is_some() {
                return Ok(false);
            }
            self.mount_in_place(root, old, old_ids);
            self.bump(&self.stats.trees_refrozen_incremental);
            return Ok(true);
        };
        if self.root(d) != root {
            // The cover left the tree inside a detached fragment and nothing
            // marked an in-tree site after it — can't anchor a splice.
            return Ok(false);
        }
        // Lift the cover to a node with an old position whose old subtree
        // swallows every invalidated old position.
        let (s, e) = loop {
            if d == root {
                // Splicing the whole tree is just a rebuild with extra steps.
                return Ok(false);
            }
            if let Some(s) = pos.get(d) {
                let e = old.recs[s as usize].subtree_end;
                if old_dirty.is_none_or(|(lo, hi)| s <= lo && hi < e) {
                    break (s, e);
                }
            }
            match self.parent(d) {
                Some(p) => d = p,
                None => return Ok(false),
            }
        };
        // Rebuild only `d`'s current subtree, at absolute positions from `s`.
        let su = s as usize;
        let eu = e as usize;
        let mut mid: Vec<FrozenRec> = Vec::with_capacity(eu - su);
        let mut mid_ids: Vec<NodeId> = Vec::with_capacity(eu - su);
        enum Visit {
            Enter(NodeId, u32, u32),
            Exit(usize),
        }
        let mut stack = vec![Visit::Enter(d, old.recs[su].depth, old.recs[su].parent)];
        while let Some(v) = stack.pop() {
            match v {
                Visit::Enter(n, depth, parent) => {
                    let data = self.node(n);
                    let rel = mid.len();
                    let abs = (su + rel) as u32;
                    mid.push(FrozenRec {
                        kind: data.kind.clone(),
                        parent,
                        subtree_end: abs + 1,
                        attr_len: data.attributes.len() as u32,
                        kids_start: 0,
                        kids_len: 0,
                        depth,
                    });
                    mid_ids.push(n);
                    for &a in &data.attributes {
                        let apos = (su + mid.len()) as u32;
                        mid.push(FrozenRec {
                            kind: self.node(a).kind.clone(),
                            parent: abs,
                            subtree_end: apos + 1,
                            attr_len: 0,
                            kids_start: 0,
                            kids_len: 0,
                            depth: depth + 1,
                        });
                        mid_ids.push(a);
                    }
                    stack.push(Visit::Exit(rel));
                    for &c in data.children.iter().rev() {
                        stack.push(Visit::Enter(c, depth + 1, abs));
                    }
                }
                Visit::Exit(rel) => mid[rel].subtree_end = (su + mid.len()) as u32,
            }
        }
        let old_len = old.recs.len();
        let new_len = su + mid.len() + (old_len - eu);
        if new_len > u32::MAX as usize {
            return Err(XmlError::new(XmlErrorKind::ArenaFull, 0, 0));
        }
        let delta = (su + mid.len()) as i64 - eu as i64;
        let shift = |v: u32| (v as i64 + delta) as u32;
        // Child lists for the rebuilt middle only; the prefix and suffix
        // reuse the old tree's lists below. Parents of every mid record past
        // the first sit inside the middle, so the count pass is local.
        let k_pre = old.recs[su].kids_start as usize;
        let k_mid_end = if eu < old_len {
            old.recs[eu].kids_start as usize
        } else {
            old.kids.len()
        };
        for rel in 1..mid.len() {
            if !mid[rel].is_attr() {
                let p = mid[rel].parent as usize - su;
                mid[p].kids_len += 1;
            }
        }
        let mut start = k_pre as u32;
        for r in mid.iter_mut() {
            r.kids_start = start;
            start += r.kids_len;
        }
        let mid_kids_total = start as usize - k_pre;
        let mut mid_kids = vec![0u32; mid_kids_total];
        let mut cursor: Vec<u32> = mid.iter().map(|r| r.kids_start - k_pre as u32).collect();
        for (rel, rec) in mid.iter().enumerate().skip(1) {
            if !rec.is_attr() {
                let p = rec.parent as usize - su;
                mid_kids[cursor[p] as usize] = (su + rel) as u32;
                cursor[p] += 1;
            }
        }
        // One pass of position fixups over the shared ranges. Prefix records
        // whose subtree spans the splice (exactly `d`'s old ancestors) move
        // their exit; every suffix record sits after the splice, so its exit
        // — and its parent, unless that parent is in the prefix — shifts.
        // Child-list shapes outside the middle are untouched by the edit:
        // prefix offsets stand, suffix offsets slide by the middle's growth.
        let kshift = mid_kids_total as i64 - (k_mid_end - k_pre) as i64;
        let mut recs: Vec<FrozenRec> = Vec::with_capacity(new_len);
        for r in &old.recs[..su] {
            let mut r = r.clone();
            if r.subtree_end > s {
                r.subtree_end = shift(r.subtree_end);
            }
            recs.push(r);
        }
        recs.append(&mut mid);
        for r in &old.recs[eu..] {
            let mut r = r.clone();
            r.subtree_end = shift(r.subtree_end);
            debug_assert!(r.parent != NO_PARENT && (r.parent < s || r.parent >= e));
            if r.parent >= e {
                r.parent = shift(r.parent);
            }
            r.kids_start = (r.kids_start as i64 + kshift) as u32;
            recs.push(r);
        }
        // The spliced child-position vec: prefix entries point past the
        // middle only when they land in the suffix (or at `d` itself, whose
        // position is the unmoved splice start).
        let mut kids: Vec<u32> =
            Vec::with_capacity(k_pre + mid_kids_total + (old.kids.len() - k_mid_end));
        for &v in &old.kids[..k_pre] {
            kids.push(if v >= e { shift(v) } else { v });
        }
        kids.append(&mut mid_kids);
        for &v in &old.kids[k_mid_end..] {
            kids.push(shift(v));
        }
        let mut ids: Vec<NodeId> = Vec::with_capacity(new_len);
        ids.extend_from_slice(&old_ids[..su]);
        ids.append(&mut mid_ids);
        ids.extend_from_slice(&old_ids[eu..]);
        let tree = Arc::new(FrozenTree::from_parts(recs, kids));
        self.mount_in_place(root, tree, ids);
        self.bump(&self.stats.trees_refrozen_incremental);
        Ok(true)
    }

    /// Thaws the frozen tree containing `id` back into the mutable
    /// pointer-shaped overlay. No-op when already thawed. Node ids are
    /// unchanged. Shared snapshots of the tree are unaffected.
    pub fn thaw(&mut self, id: NodeId) {
        let Some((mount_ix, _)) = self.floc(id) else {
            return;
        };
        let m = self.mounts[mount_ix as usize].take().expect("live mount");
        self.free_mounts.push(mount_ix);
        let Mount {
            tree,
            ids,
            contig_base,
            ..
        } = m;
        for (pos, rec) in tree.recs.iter().enumerate() {
            let parent = (rec.parent != NO_PARENT).then(|| ids[rec.parent as usize]);
            let data = NodeData {
                kind: rec.kind.clone(),
                parent,
                children: Vec::with_capacity(rec.kids_len as usize),
                attributes: Vec::with_capacity(rec.attr_len as usize),
            };
            self.slots[ids[pos].index()] = Slot::Thawed(data);
        }
        // Positions are ascending document order, so pushing in position
        // order restores the child and attribute lists in order.
        for (pos, rec) in tree.recs.iter().enumerate().skip(1) {
            let nid = ids[pos];
            let pdata = self.node_mut(ids[rec.parent as usize]);
            if rec.is_attr() {
                pdata.attributes.push(nid);
            } else {
                pdata.children.push(nid);
            }
        }
        // Remember where this tree came from: the next freeze can remount
        // or splice the old record table instead of rebuilding it.
        let pos = match contig_base {
            Some(base) => PosLookup::Contig {
                base,
                len: ids.len() as u32,
            },
            None => PosLookup::Map(
                ids.iter()
                    .enumerate()
                    .map(|(i, &n)| (n, i as u32))
                    .collect(),
            ),
        };
        self.thaw_origins.insert(
            ids[0],
            ThawOrigin {
                tree,
                ids,
                pos,
                cover: None,
                old_dirty: None,
            },
        );
        self.bump(&self.stats.trees_thawed);
    }

    /// `true` when `id` lives in a frozen tree.
    pub fn is_frozen(&self, id: NodeId) -> bool {
        self.floc(id).is_some()
    }

    /// An O(1) snapshot of the frozen tree containing `id`: one `Arc` bump,
    /// no node copies. `None` when the tree is thawed ([`Store::freeze`]
    /// first). The snapshot is immune to later edits of this store and can
    /// be [`Store::adopt`]-ed into any store — including this one.
    pub fn snapshot(&self, id: NodeId) -> Option<TreeSnapshot> {
        let (mount_ix, _) = self.floc(id)?;
        self.bump(&self.stats.tree_snapshots);
        Some(TreeSnapshot {
            tree: self.mount(mount_ix).tree.clone(),
        })
    }

    /// Mounts a snapshot into this store as a new frozen tree with fresh
    /// node ids; returns its root. The record table (names, payloads,
    /// structure) is shared with the snapshot, not copied.
    pub fn adopt(&mut self, snapshot: &TreeSnapshot) -> Result<NodeId, XmlError> {
        self.mount_tree(snapshot.tree.clone())
    }

    /// Releases the frozen mount whose **root** is `root`: this store's
    /// reference to the shared record table is dropped (outstanding
    /// [`TreeSnapshot`]s and other stores' mounts keep theirs — a cache
    /// evicting a document can never pull a tree out from under a query
    /// that still holds it), and every node id of the mount becomes
    /// permanently invalid — any later access panics. The mount index is
    /// deliberately **not** recycled, so a stale id can never silently
    /// alias a tree mounted later. Returns the node count given back.
    ///
    /// Errs when `root` is thawed or is not the root of its mount: releasing
    /// mid-tree would strand the rest of the records with no owner.
    pub fn release_mount(&mut self, root: NodeId) -> Result<usize, XmlError> {
        let Some((mount_ix, pos)) = self.floc(root) else {
            return Err(XmlError::structural(
                "release_mount: node is not in a frozen tree",
            ));
        };
        if pos != 0 {
            return Err(XmlError::structural(
                "release_mount: node is not the root of its mount",
            ));
        }
        let n = self.mount(mount_ix).tree.len();
        self.mounts[mount_ix as usize] = None;
        self.bump(&self.stats.mounts_released);
        Ok(n)
    }

    fn new_mount_ix(&mut self) -> u32 {
        match self.free_mounts.pop() {
            Some(m) => m,
            None => {
                self.mounts.push(None);
                (self.mounts.len() - 1) as u32
            }
        }
    }

    /// Mounts a frozen tree on fresh consecutive ids; returns the root id.
    /// The parser lands documents here directly.
    pub(crate) fn mount_tree(&mut self, tree: Arc<FrozenTree>) -> Result<NodeId, XmlError> {
        let n = tree.len();
        self.check_capacity(n)?;
        let mount_ix = self.new_mount_ix();
        let base = self.slots.len() as u32;
        let mut ids = Vec::with_capacity(n);
        for pos in 0..n as u32 {
            self.slots.push(Slot::Frozen {
                mount: mount_ix,
                pos,
            });
            ids.push(NodeId(base + pos));
        }
        let root = ids[0];
        self.mounts[mount_ix as usize] = Some(Mount::new(tree, ids));
        self.bump(&self.stats.trees_frozen);
        Ok(root)
    }

    // ------------------------------------------------------------------
    // Traversal
    // ------------------------------------------------------------------

    /// The root of the tree containing `id` (the node with no parent).
    /// O(1) for frozen trees (position 0 of the mount), O(depth) otherwise.
    pub fn root(&self, id: NodeId) -> NodeId {
        if let Some((m, _)) = self.floc(id) {
            return self.mount(m).ids[0];
        }
        let mut cur = id;
        while let Some(p) = self.parent(cur) {
            cur = p;
        }
        cur
    }

    /// Ancestors of `id`, nearest first (excluding `id`).
    pub fn ancestors(&self, id: NodeId) -> Vec<NodeId> {
        let mut out = Vec::new();
        let mut cur = self.parent(id);
        while let Some(p) = cur {
            out.push(p);
            cur = self.parent(p);
        }
        out
    }

    /// Descendant nodes of `id` in document order (excluding `id` and
    /// excluding attribute nodes, per the XPath descendant axis).
    pub fn descendants(&self, id: NodeId) -> Vec<NodeId> {
        self.descendants_iter(id).collect()
    }

    /// Iterator form of [`Store::descendants`]: same nodes, same order, no
    /// intermediate `Vec`. On a frozen tree this is a contiguous slice scan
    /// over the pre-order records — no stack, no pointer chasing.
    pub fn descendants_iter(&self, id: NodeId) -> Descendants<'_> {
        if let Some((m, pos)) = self.floc(id) {
            let mount = self.mount(m);
            let rec = &mount.tree.recs[pos as usize];
            self.bump(&self.stats.arena_slice_scans);
            return Descendants {
                inner: DescInner::Frozen {
                    mount,
                    cur: pos + 1 + rec.attr_len,
                    end: rec.subtree_end,
                },
            };
        }
        Descendants {
            inner: DescInner::Thawed {
                store: self,
                stack: self.children(id).iter().rev().copied().collect(),
            },
        }
    }

    /// Finds, in document order, the first text node under `scope` whose
    /// content contains `needle`; returns the node and the byte offset.
    /// Powers the `TABLE-1-GOES-HERE` replacement experiment.
    pub fn find_text(&self, scope: NodeId, needle: &str) -> Option<(NodeId, usize)> {
        if let NodeKind::Text(t) = self.kind(scope) {
            if let Some(pos) = t.find(needle) {
                return Some((scope, pos));
            }
        }
        for n in self.descendants_iter(scope) {
            if let NodeKind::Text(t) = self.kind(n) {
                if let Some(pos) = t.find(needle) {
                    return Some((n, pos));
                }
            }
        }
        None
    }

    // ------------------------------------------------------------------
    // Document order (indexed)
    // ------------------------------------------------------------------

    fn index(&self) -> MutexGuard<'_, StoreIndex> {
        self.index.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// The number of numbering passes the lazy index has run so far — a
    /// diagnostic counter for concurrency tests ("N readers racing on a cold
    /// index must build it exactly once") and instrumentation. Purely
    /// observational; never affects query results.
    pub fn index_passes(&self) -> u64 {
        self.index().next_stamp
    }

    /// Test hook: forces the stamp counter to an arbitrary value so the
    /// exhaustion path in [`Store::reindex_tree`] can be exercised without
    /// 2^64 rebuilds.
    #[cfg(test)]
    fn force_next_stamp(&self, stamp: u64) {
        self.index().next_stamp = stamp;
    }

    /// Returns the current entry for `id`, renumbering its tree first if the
    /// cached numbering is missing or stale.
    fn ensure_entry(&self, ix: &mut StoreIndex, id: NodeId) -> OrdEntry {
        if let Some(e) = ix.entry_if_current(id) {
            return e;
        }
        let root = self.root(id);
        self.reindex_tree(ix, root);
        ix.entries[id.index()]
    }

    /// One DFS over the tree at `root`: assigns pre/post/depth to every node
    /// (attributes immediately after their element) and rebuilds the tree's
    /// name index, all under a fresh stamp.
    fn reindex_tree(&self, ix: &mut StoreIndex, root: NodeId) {
        if ix.next_stamp == u64::MAX {
            // Stamp exhaustion: incrementing would wrap to 0, the "never
            // numbered" sentinel, and a rebuilt entry stamped 0 would be
            // treated as stale forever — or worse, collide with genuinely
            // stale entries from ancient passes. Reset the whole index
            // (every tree renumbers on demand) and restart the counter; a
            // live entry is never issued stamp 0.
            ix.entries.clear();
            ix.trees.clear();
            ix.next_stamp = 0;
        }
        ix.next_stamp += 1;
        let stamp = ix.next_stamp;
        if ix.entries.len() < self.slots.len() {
            ix.entries.resize(self.slots.len(), OrdEntry::default());
        }
        let mut tree = TreeIndex {
            stamp,
            ..TreeIndex::default()
        };
        let mut counter: u32 = 0;
        enum Visit {
            Enter(NodeId, u32),
            Exit(NodeId),
        }
        let mut stack = vec![Visit::Enter(root, 0)];
        while let Some(v) = stack.pop() {
            match v {
                Visit::Enter(n, depth) => {
                    counter += 1;
                    ix.entries[n.index()] = OrdEntry {
                        pre: counter,
                        post: 0,
                        depth,
                        root,
                        stamp,
                    };
                    tree.by_pre.push(n);
                    if let NodeKind::Element(q) = &self.node(n).kind {
                        tree.elements_by_local
                            .entry(q.local_sym())
                            .or_default()
                            .push(n);
                    }
                    for &a in &self.node(n).attributes {
                        counter += 1;
                        ix.entries[a.index()] = OrdEntry {
                            pre: counter,
                            post: counter,
                            depth: depth + 1,
                            root,
                            stamp,
                        };
                        tree.by_pre.push(a);
                        if let NodeKind::Attribute(q, _) = &self.node(a).kind {
                            tree.attributes_by_local
                                .entry(q.local_sym())
                                .or_default()
                                .push(a);
                        }
                    }
                    stack.push(Visit::Exit(n));
                    for &c in self.node(n).children.iter().rev() {
                        stack.push(Visit::Enter(c, depth + 1));
                    }
                }
                Visit::Exit(n) => {
                    counter += 1;
                    ix.entries[n.index()].post = counter;
                }
            }
        }
        ix.trees.insert(root, tree);
    }

    /// Document-order comparison of two nodes **in the same tree**.
    /// Ancestors precede descendants; attributes follow their element but
    /// precede its children. Returns `None` for nodes in different trees.
    /// O(1) once the tree is numbered.
    pub fn doc_order(&self, a: NodeId, b: NodeId) -> Option<std::cmp::Ordering> {
        if a == b {
            return Some(std::cmp::Ordering::Equal);
        }
        // A tree is uniformly frozen or thawed, so mixed substrates mean
        // different trees.
        match (self.floc(a), self.floc(b)) {
            (Some((ma, pa)), Some((mb, pb))) => (ma == mb).then(|| pa.cmp(&pb)),
            (Some(_), None) | (None, Some(_)) => None,
            (None, None) => {
                let mut ix = self.index();
                let ea = self.ensure_entry(&mut ix, a);
                let eb = self.ensure_entry(&mut ix, b);
                if ea.root != eb.root {
                    return None;
                }
                Some(ea.pre.cmp(&eb.pre))
            }
        }
    }

    /// `true` when `anc` is a proper ancestor of `desc` (same tree): the
    /// pre/post interval containment test, O(1) once numbered. Attributes
    /// number inside their element's interval, so an element is an ancestor
    /// of its attributes.
    pub fn is_ancestor(&self, anc: NodeId, desc: NodeId) -> bool {
        if anc == desc {
            return false;
        }
        match (self.floc(anc), self.floc(desc)) {
            (Some((ma, pa)), Some((mb, pb))) => {
                // Position containment: the subtree of `pa` is the
                // contiguous range `pa+1 .. subtree_end(pa)`.
                ma == mb && pa < pb && pb < self.mount(ma).tree.recs[pa as usize].subtree_end
            }
            (Some(_), None) | (None, Some(_)) => false,
            (None, None) => {
                let mut ix = self.index();
                let ea = self.ensure_entry(&mut ix, anc);
                let ed = self.ensure_entry(&mut ix, desc);
                ea.root == ed.root && ea.pre < ed.pre && ed.post < ea.post
            }
        }
    }

    /// Distance of `id` from its tree root (root = 0; an attribute is one
    /// deeper than its element).
    pub fn depth(&self, id: NodeId) -> u32 {
        if let Some((m, pos)) = self.floc(id) {
            return self.mount(m).tree.recs[pos as usize].depth;
        }
        let mut ix = self.index();
        self.ensure_entry(&mut ix, id).depth
    }

    /// A totally ordered key for sorting nodes into document order, usable
    /// across trees (different trees order by root id). Ancestors sort
    /// before descendants; attributes after their element, before children.
    /// Frozen trees answer from the layout (pre = record position) with no
    /// lock and no numbering pass.
    pub fn order_key(&self, id: NodeId) -> OrderKey {
        if let Some((m, pos)) = self.floc(id) {
            return OrderKey {
                root: self.mount(m).ids[0],
                pre: pos,
            };
        }
        let mut ix = self.index();
        let e = self.ensure_entry(&mut ix, id);
        OrderKey {
            root: e.root,
            pre: e.pre,
        }
    }

    /// Batch [`Store::order_key`]: one index lock for the whole slice — the
    /// dedup/doc-order-sort hot path. Frozen nodes never touch the lock.
    pub fn order_keys(&self, nodes: &[NodeId]) -> Vec<OrderKey> {
        let mut ix = self.index();
        nodes
            .iter()
            .map(|&n| {
                if let Some((m, pos)) = self.floc(n) {
                    return OrderKey {
                        root: self.mount(m).ids[0],
                        pre: pos,
                    };
                }
                let e = self.ensure_entry(&mut ix, n);
                OrderKey {
                    root: e.root,
                    pre: e.pre,
                }
            })
            .collect()
    }

    /// Descendant *elements* of `scope` (strictly below it, any depth) whose
    /// name has local symbol `local`, in document order — a binary-searched
    /// range of the per-tree name index instead of a subtree walk. Callers
    /// with a prefixed name test filter the result on the full [`QName`].
    pub fn descendant_elements_by_local(&self, scope: NodeId, local: Sym) -> Vec<NodeId> {
        if let Some((m, pos)) = self.floc(scope) {
            let mount = self.mount(m);
            let end = mount.tree.recs[pos as usize].subtree_end;
            let named = mount.tree.elements_by_local(local);
            self.bump(&self.stats.arena_slice_scans);
            return mount.resolve_all(Store::pos_interval(named, pos, end));
        }
        let mut ix = self.index();
        let e = self.ensure_entry(&mut ix, scope);
        let Some(named) = ix
            .trees
            .get(&e.root)
            .and_then(|t| t.elements_by_local.get(&local))
        else {
            return Vec::new();
        };
        Store::interval_slice(named, &ix.entries, e).to_vec()
    }

    /// Attributes with local symbol `local` on `scope` or any descendant of
    /// it, in document order (the fused `//@name` lookup: attributes number
    /// inside their element's interval).
    pub fn descendant_or_self_attributes_by_local(&self, scope: NodeId, local: Sym) -> Vec<NodeId> {
        if let Some((m, pos)) = self.floc(scope) {
            let mount = self.mount(m);
            let end = mount.tree.recs[pos as usize].subtree_end;
            let named = mount.tree.attributes_by_local(local);
            self.bump(&self.stats.arena_slice_scans);
            return mount.resolve_all(Store::pos_interval(named, pos, end));
        }
        let mut ix = self.index();
        let e = self.ensure_entry(&mut ix, scope);
        let Some(named) = ix
            .trees
            .get(&e.root)
            .and_then(|t| t.attributes_by_local.get(&local))
        else {
            return Vec::new();
        };
        Store::interval_slice(named, &ix.entries, e).to_vec()
    }

    /// The elements named `name` strictly below `scope` — or, with
    /// `attributes`, the attributes named `name` on `scope` or below it — as
    /// a window of the per-tree name index, in document order. On the frozen
    /// substrate the window is two binary searches over the full-name map:
    /// its length and any one entry cost no subtree walk and no id copy. The
    /// thawed substrate copies the local-name interval once, filtered on the
    /// full [`QName`].
    pub fn name_span(&self, scope: NodeId, name: &QName, attributes: bool) -> NameSpan {
        if let Some((m, pos)) = self.floc(scope) {
            let tree = &self.mount(m).tree;
            let end = tree.recs[pos as usize].subtree_end;
            let range = Store::pos_range(named_positions(tree, name, attributes), pos, end);
            self.bump(&self.stats.arena_slice_scans);
            return NameSpan(SpanSrc::Frozen {
                mount: m,
                lo: range.start as u32,
                hi: range.end as u32,
                name: *name,
                attributes,
            });
        }
        let mut ids = if attributes {
            self.descendant_or_self_attributes_by_local(scope, name.local_sym())
        } else {
            self.descendant_elements_by_local(scope, name.local_sym())
        };
        ids.retain(|&d| self.name(d) == Some(name));
        NameSpan(SpanSrc::Thawed(ids))
    }

    /// Elements strictly below `scope` carrying an attribute whose name has
    /// local symbol `local` and whose value is exactly `value`, in document
    /// order. Backed by a per-tree value map built lazily per attribute
    /// name, so an equality probe costs a hash lookup plus an interval
    /// binary search instead of a subtree scan.
    ///
    /// The map is keyed by *local* symbol: an owner found through a prefixed
    /// attribute (`x:id="5"`) is still returned, so callers matching an
    /// unprefixed test must re-verify the full [`QName`] on the owner.
    pub fn elements_with_attr_value(&self, scope: NodeId, local: Sym, value: &str) -> Vec<NodeId> {
        if let Some((m, pos)) = self.floc(scope) {
            let mount = self.mount(m);
            let end = mount.tree.recs[pos as usize].subtree_end;
            let owners = mount.tree.attr_value_owners(local);
            let Some(owners) = owners.get(value) else {
                return Vec::new();
            };
            self.bump(&self.stats.arena_slice_scans);
            return mount.resolve_all(Store::pos_interval(owners, pos, end));
        }
        let mut ix = self.index();
        let scope_entry = self.ensure_entry(&mut ix, scope);
        let StoreIndex { entries, trees, .. } = &mut *ix;
        let Some(tree) = trees.get_mut(&scope_entry.root) else {
            return Vec::new();
        };
        let by_value = tree.attr_values.entry(local).or_insert_with(|| {
            let mut map: HashMap<Arc<str>, Vec<NodeId>> = HashMap::new();
            // The per-name attribute vector is in pre order, and each
            // attribute's owner shares its relative position, so the owner
            // vectors come out pre-ordered too.
            for &a in tree
                .attributes_by_local
                .get(&local)
                .map(Vec::as_slice)
                .unwrap_or_default()
            {
                if let (NodeKind::Attribute(_, v), Some(owner)) =
                    (&self.node(a).kind, self.node(a).parent)
                {
                    map.entry(v.clone()).or_default().push(owner);
                }
            }
            map
        });
        let Some(owners) = by_value.get(value) else {
            return Vec::new();
        };
        Store::interval_slice(owners, entries, scope_entry).to_vec()
    }

    /// The contiguous run of `named` (pre-ordered, same tree as `scope`)
    /// falling strictly inside `scope`'s pre/post interval.
    fn interval_slice<'v>(
        named: &'v [NodeId],
        entries: &[OrdEntry],
        scope: OrdEntry,
    ) -> &'v [NodeId] {
        let start = named.partition_point(|&n| entries[n.index()].pre <= scope.pre);
        let end = start + named[start..].partition_point(|&n| entries[n.index()].pre < scope.post);
        &named[start..end]
    }

    /// Frozen twin of [`Store::interval_slice`]: the contiguous run of
    /// `named` (ascending record positions) strictly inside the subtree
    /// `scope_pos+1 .. scope_end`. The scope's own attributes sit in that
    /// range, which is exactly what the attribute queries want.
    fn pos_interval(named: &[u32], scope_pos: u32, scope_end: u32) -> &[u32] {
        &named[Store::pos_range(named, scope_pos, scope_end)]
    }

    /// The index range [`Store::pos_interval`] slices.
    fn pos_range(named: &[u32], scope_pos: u32, scope_end: u32) -> std::ops::Range<usize> {
        let start = named.partition_point(|&p| p <= scope_pos);
        start..start + named[start..].partition_point(|&p| p < scope_end)
    }

    // ------------------------------------------------------------------
    // Document order (walk-based reference)
    // ------------------------------------------------------------------

    /// Position of `id` among its parent's children/attributes, for order
    /// comparison: attributes sort before children of the same element.
    fn sibling_rank(&self, parent: NodeId, id: NodeId) -> Option<(u8, usize)> {
        if let Some(p) = self.attributes(parent).iter().position(|&a| a == id) {
            return Some((0, p));
        }
        self.children(parent)
            .iter()
            .position(|&c| c == id)
            .map(|p| (1, p))
    }

    /// The pre-index implementation of [`Store::doc_order`]: walks both
    /// parent chains and compares sibling ranks. Kept as the reference the
    /// property tests hold the numbering to; not used on any hot path.
    pub fn doc_order_by_walk(&self, a: NodeId, b: NodeId) -> Option<std::cmp::Ordering> {
        use std::cmp::Ordering;
        if a == b {
            return Some(Ordering::Equal);
        }
        let path_a = self.path_from_root(a)?;
        let path_b = self.path_from_root(b)?;
        if path_a.0 != path_b.0 {
            return None;
        }
        for (ra, rb) in path_a.1.iter().zip(path_b.1.iter()) {
            match ra.cmp(rb) {
                Ordering::Equal => continue,
                other => return Some(other),
            }
        }
        // One path is a prefix of the other: the shorter (the ancestor) first.
        Some(path_a.1.len().cmp(&path_b.1.len()))
    }

    fn path_from_root(&self, id: NodeId) -> Option<(NodeId, Vec<(u8, usize)>)> {
        let mut ranks = Vec::new();
        let mut cur = id;
        while let Some(p) = self.parent(cur) {
            ranks.push(self.sibling_rank(p, cur)?);
            cur = p;
        }
        ranks.reverse();
        Some((cur, ranks))
    }
}

/// Document-order iterator over the descendants of a node (excluding the
/// node itself and attribute nodes). See [`Store::descendants_iter`].
#[derive(Debug)]
pub struct Descendants<'a> {
    inner: DescInner<'a>,
}

#[derive(Debug)]
enum DescInner<'a> {
    /// Pointer-chasing walk over the mutable overlay.
    Thawed {
        store: &'a Store,
        stack: Vec<NodeId>,
    },
    /// Straight scan of the pre-order records `cur .. end`; each step hops
    /// the yielded node's attribute run, landing on the next non-attribute
    /// record.
    Frozen {
        mount: &'a Mount,
        cur: u32,
        end: u32,
    },
}

impl Iterator for Descendants<'_> {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        match &mut self.inner {
            DescInner::Thawed { store, stack } => {
                let n = stack.pop()?;
                stack.extend(store.children(n).iter().rev().copied());
                Some(n)
            }
            DescInner::Frozen { mount, cur, end } => {
                if *cur >= *end {
                    return None;
                }
                let pos = *cur as usize;
                *cur += 1 + mount.tree.recs[pos].attr_len;
                Some(mount.ids[pos])
            }
        }
    }
}

/// See [`Store::order_key`]: `(root, pre)` — two machine words, `Copy`,
/// totally ordered across trees (root id first, then document position).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct OrderKey {
    root: NodeId,
    pre: u32,
}

/// See [`Store::name_span`]: a document-ordered window of one name in one
/// tree's name index.
#[derive(Debug, Clone)]
pub struct NameSpan(SpanSrc);

#[derive(Debug, Clone)]
enum SpanSrc {
    /// Entries `lo..hi` of a mount's per-name position list.
    Frozen {
        mount: u32,
        lo: u32,
        hi: u32,
        name: QName,
        attributes: bool,
    },
    Thawed(Vec<NodeId>),
}

/// A frozen tree's ascending positions of the elements (or attributes)
/// with the full name `name`.
fn named_positions<'t>(tree: &'t FrozenTree, name: &QName, attributes: bool) -> &'t [u32] {
    if attributes {
        tree.attributes_by_name(name)
    } else {
        tree.elements_by_name(name)
    }
}

impl NameSpan {
    pub fn len(&self) -> usize {
        match &self.0 {
            SpanSrc::Frozen { lo, hi, .. } => (hi - lo) as usize,
            SpanSrc::Thawed(ids) => ids.len(),
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The `i`-th node of the window, resolving just that one id.
    pub fn get(&self, store: &Store, i: usize) -> Option<NodeId> {
        match &self.0 {
            SpanSrc::Frozen {
                mount,
                lo,
                hi,
                name,
                attributes,
            } => {
                let at = *lo as usize + i;
                if at >= *hi as usize {
                    return None;
                }
                let mount = store.mount(*mount);
                let pos = named_positions(&mount.tree, name, *attributes)[at];
                Some(match mount.contig_base {
                    Some(base) => NodeId(base + pos),
                    None => mount.ids[pos as usize],
                })
            }
            SpanSrc::Thawed(ids) => ids.get(i).copied(),
        }
    }

    /// Every node of the window, in document order.
    pub fn nodes(self, store: &Store) -> Vec<NodeId> {
        match self.0 {
            SpanSrc::Frozen {
                mount,
                lo,
                hi,
                name,
                attributes,
            } => {
                let mount = store.mount(mount);
                let named = named_positions(&mount.tree, &name, attributes);
                mount.resolve_all(&named[lo as usize..hi as usize])
            }
            SpanSrc::Thawed(ids) => ids,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cmp::Ordering;

    fn small_tree(store: &mut Store) -> (NodeId, NodeId, NodeId, NodeId) {
        let doc = store.create_document().unwrap();
        let root = store.create_element("root").unwrap();
        store.append_child(doc, root).unwrap();
        let a = store.create_element("a").unwrap();
        let b = store.create_element("b").unwrap();
        store.append_child(root, a).unwrap();
        store.append_child(root, b).unwrap();
        (doc, root, a, b)
    }

    #[test]
    fn build_and_navigate() {
        let mut s = Store::new();
        let (doc, root, a, b) = small_tree(&mut s);
        assert_eq!(s.document_element(doc), Some(root));
        assert_eq!(s.children(root), &[a, b]);
        assert_eq!(s.parent(a), Some(root));
        assert_eq!(s.root(a), doc);
        assert_eq!(s.ancestors(a), vec![root, doc]);
    }

    #[test]
    fn attributes_are_nodes() {
        let mut s = Store::new();
        let el = s.create_element("el").unwrap();
        let attr = s.set_attribute(el, "state", "MA").unwrap();
        assert!(s.is_attribute(attr));
        assert_eq!(s.parent(attr), Some(el));
        assert_eq!(s.attribute_value(el, "state"), Some("MA"));
        assert_eq!(s.string_value(attr), "MA");
    }

    #[test]
    fn set_attribute_overwrites() {
        let mut s = Store::new();
        let el = s.create_element("el").unwrap();
        s.set_attribute(el, "a", "1").unwrap();
        s.set_attribute(el, "a", "2").unwrap();
        assert_eq!(s.attributes(el).len(), 1);
        assert_eq!(s.attribute_value(el, "a"), Some("2"));
    }

    #[test]
    fn set_attribute_node_rejects_duplicates() {
        let mut s = Store::new();
        let el = s.create_element("el").unwrap();
        let a1 = s.create_attribute("a", "1").unwrap();
        let a2 = s.create_attribute("a", "2").unwrap();
        s.set_attribute_node(el, a1).unwrap();
        assert!(s.set_attribute_node(el, a2).is_err());
    }

    #[test]
    fn detach_and_reattach() {
        let mut s = Store::new();
        let (_, root, a, b) = small_tree(&mut s);
        s.detach(a);
        assert_eq!(s.parent(a), None);
        assert_eq!(s.children(root), &[b]);
        s.insert_child(root, 1, a).unwrap();
        assert_eq!(s.children(root), &[b, a]);
    }

    #[test]
    fn append_attached_node_fails() {
        let mut s = Store::new();
        let (_, root, a, _) = small_tree(&mut s);
        let other = s.create_element("other").unwrap();
        assert!(s.append_child(other, a).is_err(), "a is attached to root");
        let _ = root;
    }

    #[test]
    fn cycle_is_rejected() {
        let mut s = Store::new();
        let (_, root, a, _) = small_tree(&mut s);
        s.detach(root);
        assert!(s.append_child(a, root).is_err());
    }

    #[test]
    fn attribute_as_child_is_rejected() {
        let mut s = Store::new();
        let el = s.create_element("el").unwrap();
        let attr = s.create_attribute("a", "1").unwrap();
        assert!(s.append_child(el, attr).is_err());
    }

    #[test]
    fn replace_child_preserves_position() {
        let mut s = Store::new();
        let (_, root, a, b) = small_tree(&mut s);
        let c = s.create_element("c").unwrap();
        s.replace_child(a, c).unwrap();
        assert_eq!(s.children(root), &[c, b]);
        assert_eq!(s.parent(a), None);
    }

    #[test]
    fn string_value_concatenates_descendant_text() {
        let mut s = Store::new();
        let el = s.create_element("p").unwrap();
        let t1 = s.create_text("Hello ").unwrap();
        let em = s.create_element("em").unwrap();
        let t2 = s.create_text("world").unwrap();
        s.append_child(el, t1).unwrap();
        s.append_child(el, em).unwrap();
        s.append_child(em, t2).unwrap();
        assert_eq!(s.string_value(el), "Hello world");
    }

    #[test]
    fn string_value_arc_shares_single_text_payload() {
        let mut s = Store::new();
        let el = s.create_element("p").unwrap();
        let t = s.create_text("only").unwrap();
        s.append_child(el, t).unwrap();
        let via_el = s.string_value_arc(el);
        let via_t = s.string_value_arc(t);
        assert!(Arc::ptr_eq(&via_el, &via_t), "single-text fast path shares");
        assert_eq!(&*via_el, "only");
    }

    #[test]
    fn split_text_splits() {
        let mut s = Store::new();
        let el = s.create_element("p").unwrap();
        let t = s.create_text("before MARKER after").unwrap();
        s.append_child(el, t).unwrap();
        let (node, pos) = s.find_text(el, "MARKER").unwrap();
        assert_eq!(node, t);
        let tail = s.split_text(t, pos).unwrap();
        assert_eq!(s.string_value(t), "before ");
        assert_eq!(s.string_value(tail), "MARKER after");
        assert_eq!(s.children(el), &[t, tail]);
    }

    #[test]
    fn split_text_rejects_non_boundary() {
        let mut s = Store::new();
        let el = s.create_element("p").unwrap();
        let t = s.create_text("héllo").unwrap();
        s.append_child(el, t).unwrap();
        assert!(s.split_text(t, 2).is_err(), "inside é");
    }

    #[test]
    fn deep_copy_is_detached_and_equal_shape() {
        let mut s = Store::new();
        let (_, root, a, _) = small_tree(&mut s);
        s.set_attribute(a, "k", "v").unwrap();
        let copy = s.deep_copy(root).unwrap();
        assert_eq!(s.parent(copy), None);
        assert_eq!(s.children(copy).len(), 2);
        let a_copy = s.children(copy)[0];
        assert_eq!(s.attribute_value(a_copy, "k"), Some("v"));
        assert_ne!(a_copy, a, "copy allocates fresh nodes");
    }

    #[test]
    fn doc_order_total_on_tree() {
        let mut s = Store::new();
        let (doc, root, a, b) = small_tree(&mut s);
        let attr = s.set_attribute(root, "x", "1").unwrap();
        let t = s.create_text("hi").unwrap();
        s.append_child(a, t).unwrap();
        assert_eq!(s.doc_order(doc, root), Some(Ordering::Less));
        assert_eq!(s.doc_order(root, attr), Some(Ordering::Less));
        assert_eq!(s.doc_order(attr, a), Some(Ordering::Less));
        assert_eq!(s.doc_order(a, t), Some(Ordering::Less));
        assert_eq!(s.doc_order(t, b), Some(Ordering::Less));
        assert_eq!(s.doc_order(b, b), Some(Ordering::Equal));
        assert_eq!(s.doc_order(b, a), Some(Ordering::Greater));
    }

    #[test]
    fn doc_order_across_trees_is_none() {
        let mut s = Store::new();
        let (_, _, a, _) = small_tree(&mut s);
        let lone = s.create_element("lone").unwrap();
        assert_eq!(s.doc_order(a, lone), None);
    }

    #[test]
    fn doc_order_survives_mutation_between_queries() {
        let mut s = Store::new();
        let (_, root, a, b) = small_tree(&mut s);
        assert_eq!(s.doc_order(a, b), Some(Ordering::Less));
        // Move a after b: the cached numbering must be dropped and rebuilt.
        s.detach(a);
        s.append_child(root, a).unwrap();
        assert_eq!(s.doc_order(a, b), Some(Ordering::Greater));
        assert_eq!(s.doc_order(b, a), Some(Ordering::Less));
    }

    #[test]
    fn is_ancestor_and_depth() {
        let mut s = Store::new();
        let (doc, root, a, b) = small_tree(&mut s);
        let attr = s.set_attribute(a, "k", "v").unwrap();
        assert!(s.is_ancestor(doc, a));
        assert!(s.is_ancestor(root, a));
        assert!(s.is_ancestor(a, attr), "element contains its attributes");
        assert!(!s.is_ancestor(a, a), "proper ancestry only");
        assert!(!s.is_ancestor(a, b));
        assert!(!s.is_ancestor(a, root));
        assert_eq!(s.depth(doc), 0);
        assert_eq!(s.depth(root), 1);
        assert_eq!(s.depth(a), 2);
        assert_eq!(s.depth(attr), 3);
    }

    #[test]
    fn descendants_in_document_order() {
        let mut s = Store::new();
        let (_, root, a, b) = small_tree(&mut s);
        let t = s.create_text("x").unwrap();
        s.append_child(a, t).unwrap();
        assert_eq!(s.descendants(root), vec![a, t, b]);
        let via_iter: Vec<NodeId> = s.descendants_iter(root).collect();
        assert_eq!(via_iter, vec![a, t, b]);
    }

    #[test]
    fn name_index_finds_descendant_elements() {
        let mut s = Store::new();
        let doc = s.create_document().unwrap();
        let root = s.create_element("root").unwrap();
        s.append_child(doc, root).unwrap();
        let mut bs = Vec::new();
        for _ in 0..3 {
            let mid = s.create_element("mid").unwrap();
            s.append_child(root, mid).unwrap();
            let b = s.create_element("b").unwrap();
            s.set_attribute(b, "k", "v").unwrap();
            s.append_child(mid, b).unwrap();
            bs.push(b);
        }
        let local = QName::from("b").local_sym();
        assert_eq!(s.descendant_elements_by_local(doc, local), bs);
        assert_eq!(s.descendant_elements_by_local(root, local), bs);
        // Scoped to one subtree: only that subtree's match.
        let first_mid = s.children(root)[0];
        assert_eq!(s.descendant_elements_by_local(first_mid, local), bs[..1]);
        // The scope element itself is excluded (strict descendants).
        assert_eq!(s.descendant_elements_by_local(bs[0], local), Vec::new());
        // Attribute lookup includes the scope's own attributes.
        let k = QName::from("k").local_sym();
        assert_eq!(s.descendant_or_self_attributes_by_local(bs[0], k).len(), 1);
        assert_eq!(s.descendant_or_self_attributes_by_local(doc, k).len(), 3);
    }

    #[test]
    fn name_index_follows_renames() {
        let mut s = Store::new();
        let (doc, _, a, _) = small_tree(&mut s);
        let a_sym = QName::from("a").local_sym();
        let z_sym = QName::from("z").local_sym();
        assert_eq!(s.descendant_elements_by_local(doc, a_sym), vec![a]);
        s.set_name(a, "z").unwrap();
        assert_eq!(s.descendant_elements_by_local(doc, a_sym), Vec::new());
        assert_eq!(s.descendant_elements_by_local(doc, z_sym), vec![a]);
    }

    #[test]
    fn attr_value_index_finds_owners_in_scope() {
        let mut s = Store::new();
        let doc = s.create_document().unwrap();
        let root = s.create_element("r").unwrap();
        s.append_child(doc, root).unwrap();
        let (mut hits, mut misses) = (Vec::new(), Vec::new());
        for i in 0..4 {
            let item = s.create_element("item").unwrap();
            s.set_attribute(item, "k", if i % 2 == 0 { "hit" } else { "miss" })
                .unwrap();
            s.append_child(root, item).unwrap();
            if i % 2 == 0 {
                hits.push(item);
            } else {
                misses.push(item);
            }
        }
        let k = QName::from("k").local_sym();
        assert_eq!(s.elements_with_attr_value(doc, k, "hit"), hits);
        assert_eq!(s.elements_with_attr_value(doc, k, "miss"), misses);
        assert_eq!(s.elements_with_attr_value(doc, k, "absent"), Vec::new());
        // Scope is strict: an element is not its own descendant.
        assert_eq!(s.elements_with_attr_value(hits[0], k, "hit"), Vec::new());
        // A prefixed attribute with the same local name is still returned
        // (callers re-verify the full QName).
        let extra = s.create_element("item").unwrap();
        s.set_attribute(extra, QName::prefixed("p", "k"), "hit")
            .unwrap();
        s.append_child(root, extra).unwrap();
        let with_prefixed: Vec<NodeId> = hits.iter().copied().chain([extra]).collect();
        assert_eq!(s.elements_with_attr_value(doc, k, "hit"), with_prefixed);
    }

    #[test]
    fn attr_value_index_follows_value_overwrites() {
        let mut s = Store::new();
        let root = s.create_element("r").unwrap();
        let item = s.create_element("item").unwrap();
        s.set_attribute(item, "k", "old").unwrap();
        s.append_child(root, item).unwrap();
        let k = QName::from("k").local_sym();
        assert_eq!(s.elements_with_attr_value(root, k, "old"), vec![item]);
        // Overwrite keeps the numbering (same order key) but must not leave
        // a stale value → owners map behind.
        let key_before = s.order_key(item);
        s.set_attribute(item, "k", "new").unwrap();
        assert_eq!(s.order_key(item), key_before);
        assert_eq!(s.elements_with_attr_value(root, k, "old"), Vec::new());
        assert_eq!(s.elements_with_attr_value(root, k, "new"), vec![item]);
    }

    #[test]
    fn order_keys_match_walk_reference() {
        let mut s = Store::new();
        let (doc, root, a, b) = small_tree(&mut s);
        let attr = s.set_attribute(root, "x", "1").unwrap();
        let t = s.create_text("hi").unwrap();
        s.append_child(a, t).unwrap();
        let nodes = [doc, root, attr, a, t, b];
        for &x in &nodes {
            for &y in &nodes {
                assert_eq!(
                    s.doc_order(x, y),
                    s.doc_order_by_walk(x, y),
                    "{x:?} vs {y:?}"
                );
                assert_eq!(
                    s.order_key(x).cmp(&s.order_key(y)) == Ordering::Less,
                    s.doc_order_by_walk(x, y) == Some(Ordering::Less)
                );
            }
        }
    }

    #[test]
    fn child_element_helpers() {
        let mut s = Store::new();
        let (_, root, a, b) = small_tree(&mut s);
        assert_eq!(s.child_element_named(root, "a"), Some(a));
        assert_eq!(s.child_element_named(root, "zz"), None);
        assert_eq!(s.child_elements(root), vec![a, b]);
        assert_eq!(s.child_elements_named(root, "b"), vec![b]);
    }

    /// Subtree-scan reference for [`Store::elements_with_attr_value`]:
    /// element descendants of `scope` carrying an attribute with the given
    /// local symbol and exact value, found without consulting any index.
    fn scan_elements_with_attr_value(
        s: &Store,
        scope: NodeId,
        local: Sym,
        value: &str,
    ) -> Vec<NodeId> {
        s.descendants_iter(scope)
            .filter(|&n| matches!(&s.node(n).kind, NodeKind::Element(_)))
            .filter(|&el| {
                s.attributes(el).iter().any(|&a| match &s.node(a).kind {
                    NodeKind::Attribute(q, v) => q.local_sym() == local && &**v == value,
                    _ => false,
                })
            })
            .collect()
    }

    #[test]
    fn attr_value_index_forgets_detached_nodes() {
        let mut s = Store::new();
        let doc = s.create_document().unwrap();
        let root = s.create_element("r").unwrap();
        s.append_child(doc, root).unwrap();
        let k = QName::from("k").local_sym();
        let mut items = Vec::new();
        for _ in 0..6 {
            let wrapper = s.create_element("w").unwrap();
            s.append_child(root, wrapper).unwrap();
            let item = s.create_element("item").unwrap();
            s.set_attribute(item, "k", "v").unwrap();
            s.append_child(wrapper, item).unwrap();
            items.push((wrapper, item));
        }
        // Warm the index, including the lazily built value → owners map.
        let all: Vec<NodeId> = items.iter().map(|&(_, item)| item).collect();
        assert_eq!(s.elements_with_attr_value(doc, k, "v"), all);

        // Detaching a whole subtree must make its item unreachable through
        // the value index — and the answer must equal the subtree scan.
        let (wrapper, gone) = items[2];
        s.detach(wrapper);
        let got = s.elements_with_attr_value(doc, k, "v");
        assert!(!got.contains(&gone), "detached node still indexed");
        assert_eq!(got, scan_elements_with_attr_value(&s, doc, k, "v"));

        // Removing just the attribute must drop its former owner too.
        let (_, owner) = items[4];
        s.remove_attribute(owner, "k").unwrap();
        let got = s.elements_with_attr_value(doc, k, "v");
        assert!(!got.contains(&owner), "attribute-less owner still indexed");
        assert_eq!(got, scan_elements_with_attr_value(&s, doc, k, "v"));

        // The detached subtree is a tree of its own now and still finds its
        // own item (fresh numbering, fresh value map).
        assert_eq!(s.elements_with_attr_value(wrapper, k, "v"), vec![gone]);
    }

    #[test]
    fn name_span_matches_a_walk_on_both_substrates() {
        let xml = "<r k='0'><a k='1' p:k='2'><p:a k='3'/><a/></a><b k='4'/></r>";
        for thaw in [false, true] {
            let mut s = Store::new();
            let doc = s
                .parse_str(xml, &crate::parser::ParseOptions::default())
                .unwrap();
            if thaw {
                s.thaw(doc);
            }
            assert_eq!(s.is_frozen(doc), !thaw);
            let root = s.child_elements(doc)[0];
            let names = [
                QName::from("a"),
                QName::prefixed("p", "a"),
                QName::from("k"),
            ];
            for scope in [doc, root, s.child_elements(root)[0]] {
                for name in &names {
                    for attributes in [false, true] {
                        // Elements strictly below the scope; attributes on
                        // the scope itself or below it.
                        let mut want: Vec<NodeId> = Vec::new();
                        for n in std::iter::once(scope).chain(s.descendants_iter(scope)) {
                            if attributes {
                                want.extend(
                                    s.attributes(n).iter().filter(|&&a| s.name(a) == Some(name)),
                                );
                            } else if n != scope && s.is_element(n) && s.name(n) == Some(name) {
                                want.push(n);
                            }
                        }
                        let span = s.name_span(scope, name, attributes);
                        assert_eq!(span.len(), want.len(), "{name:?} attrs={attributes}");
                        let got: Vec<NodeId> =
                            (0..span.len()).map(|i| span.get(&s, i).unwrap()).collect();
                        assert_eq!(got, want, "{name:?} attrs={attributes} thaw={thaw}");
                        assert_eq!(span.get(&s, want.len()), None);
                        assert_eq!(span.nodes(&s), want);
                    }
                }
            }
        }
    }

    /// Index-free reference for [`Store::descendant_elements_by_local`].
    fn scan_elements_by_local(s: &Store, scope: NodeId, local: Sym) -> Vec<NodeId> {
        s.descendants_iter(scope)
            .filter(|&n| matches!(&s.node(n).kind, NodeKind::Element(q) if q.local_sym() == local))
            .collect()
    }

    /// All nodes of `doc`'s tree, attributes included, for all-pairs checks.
    fn tree_nodes(s: &Store, doc: NodeId) -> Vec<NodeId> {
        let mut nodes = vec![doc];
        for n in s.descendants_iter(doc) {
            nodes.push(n);
            nodes.extend_from_slice(s.attributes(n));
        }
        nodes
    }

    #[test]
    fn localized_edits_patch_the_live_index_in_place() {
        let mut s = Store::new();
        let doc = s.create_document().unwrap();
        let root = s.create_element("root").unwrap();
        s.append_child(doc, root).unwrap();
        let mut items = Vec::new();
        for _ in 0..12 {
            let w = s.create_element("w").unwrap();
            s.append_child(root, w).unwrap();
            let item = s.create_element("item").unwrap();
            s.set_attribute(item, "k", "v").unwrap();
            s.append_child(w, item).unwrap();
            items.push((w, item));
        }
        // Warm the numbering and the name index, then capture the counters:
        // everything before this point ran against a cold tree and counts
        // neither as a patch nor as a rebuild.
        let item_sym = QName::from("item").local_sym();
        assert_eq!(s.doc_order(items[0].1, items[11].1), Some(Ordering::Less));
        assert_eq!(s.descendant_elements_by_local(doc, item_sym).len(), 12);
        let warm = s.stats();
        assert_eq!(warm.index_full_rebuilds, 0, "lazy build is not a rebuild");

        // Five localized edits against the warm index: leaf attach, new
        // attribute, rename, small-subtree detach, reattach.
        let extra = s.create_element("item").unwrap();
        s.append_child(items[3].0, extra).unwrap();
        s.set_attribute(extra, "k", "fresh").unwrap();
        s.set_name(items[5].1, "renamed").unwrap();
        let moved = items[2].0;
        s.detach(moved);
        s.append_child(root, moved).unwrap();

        let after = s.stats();
        assert_eq!(
            after.index_repatches,
            warm.index_repatches + 5,
            "each localized edit must take the patch path"
        );
        assert_eq!(
            after.index_full_rebuilds, warm.index_full_rebuilds,
            "no localized edit may nuke the tree index"
        );

        // Patched answers are indistinguishable from the index-free walks.
        let nodes = tree_nodes(&s, doc);
        for &x in &nodes {
            for &y in &nodes {
                assert_eq!(
                    s.doc_order(x, y),
                    s.doc_order_by_walk(x, y),
                    "{x:?} vs {y:?}"
                );
            }
        }
        for local in [item_sym, QName::from("renamed").local_sym()] {
            assert_eq!(
                s.descendant_elements_by_local(doc, local),
                scan_elements_by_local(&s, doc, local)
            );
        }
        assert_eq!(
            s.descendant_or_self_attributes_by_local(doc, QName::from("k").local_sym())
                .len(),
            13
        );
        // And none of the verification above rebuilt anything behind our back.
        assert_eq!(s.stats().index_full_rebuilds, after.index_full_rebuilds);
    }

    #[test]
    fn oversized_edits_fall_back_to_whole_tree_rebuild() {
        // Detach side: ripping out most of the tree is a rebuild, not a patch.
        let mut s = Store::new();
        let (doc, root, a, b) = small_tree(&mut s);
        assert_eq!(s.doc_order(a, b), Some(Ordering::Less));
        let warm = s.stats();
        s.detach(root);
        let after = s.stats();
        assert_eq!(after.index_full_rebuilds, warm.index_full_rebuilds + 1);
        assert_eq!(after.index_repatches, warm.index_repatches);
        // The nuked index rebuilds lazily and answers correctly again.
        s.append_child(doc, root).unwrap();
        assert_eq!(s.doc_order(doc, a), Some(Ordering::Less));
        assert_eq!(s.doc_order(a, b), Some(Ordering::Less));

        // Attach side: grafting a fragment larger than the tree falls back.
        let mut s = Store::new();
        let (doc, root, a, _) = small_tree(&mut s);
        let frag = s.create_element("big").unwrap();
        for _ in 0..8 {
            let c = s.create_element("c").unwrap();
            s.append_child(frag, c).unwrap();
        }
        assert_eq!(s.doc_order(doc, a), Some(Ordering::Less));
        let warm = s.stats();
        s.append_child(root, frag).unwrap();
        let after = s.stats();
        assert_eq!(after.index_full_rebuilds, warm.index_full_rebuilds + 1);
        assert_eq!(after.index_repatches, warm.index_repatches);
        let nodes = tree_nodes(&s, doc);
        for &x in &nodes {
            for &y in &nodes {
                assert_eq!(
                    s.doc_order(x, y),
                    s.doc_order_by_walk(x, y),
                    "{x:?} vs {y:?}"
                );
            }
        }
    }

    #[test]
    fn cold_edits_count_neither_patch_nor_rebuild() {
        let mut s = Store::new();
        let (_, root, a, b) = small_tree(&mut s);
        s.detach(b);
        s.append_child(root, b).unwrap();
        s.set_name(a, "renamed").unwrap();
        let st = s.stats();
        assert_eq!((st.index_repatches, st.index_full_rebuilds), (0, 0));
        // The first build after those edits is lazy construction, not repair.
        assert_eq!(s.doc_order(a, b), Some(Ordering::Less));
        let st = s.stats();
        assert_eq!((st.index_repatches, st.index_full_rebuilds), (0, 0));
    }

    #[test]
    fn stamp_exhaustion_resets_instead_of_reissuing_the_sentinel() {
        let mut s = Store::new();
        let (doc, root, a, b) = small_tree(&mut s);
        // A second, independent tree whose numbering is warm when the
        // counter wraps: its stale entries must not validate after a reset.
        let other = s.create_element("other").unwrap();
        let leaf = s.create_element("leaf").unwrap();
        s.append_child(other, leaf).unwrap();
        assert_eq!(s.doc_order(other, leaf), Some(Ordering::Less));

        // Put the counter at the edge: the next rebuild would hand out
        // stamp 0, the "never numbered" sentinel, without the guard.
        s.force_next_stamp(u64::MAX);
        s.detach(b);
        s.append_child(root, b).unwrap();
        // Triggers the rebuild at the edge — this must reset, not wrap.
        assert_eq!(s.doc_order(a, b), Some(Ordering::Less));
        let passes = s.index_passes();
        assert!(
            (1..16).contains(&passes),
            "stamp counter did not reset: {passes}"
        );

        // Every pair in both trees still answers exactly like the
        // index-free walk reference after the reset.
        let nodes = [doc, root, a, b, other, leaf];
        for &x in &nodes {
            for &y in &nodes {
                assert_eq!(s.doc_order(x, y), s.doc_order_by_walk(x, y), "{x:?} {y:?}");
            }
        }
    }

    #[test]
    fn store_is_shareable_across_threads() {
        fn send_sync<T: Send + Sync>() {}
        send_sync::<Store>();
    }

    /// A document with attributes, text, and mixed depth for lifecycle tests.
    fn richer_tree(s: &mut Store) -> NodeId {
        let doc = s.create_document().unwrap();
        let root = s.create_element("root").unwrap();
        s.set_attribute(root, "id", "r1").unwrap();
        s.append_child(doc, root).unwrap();
        let a = s.create_element("a").unwrap();
        s.set_attribute(a, "k", "v").unwrap();
        s.append_child(root, a).unwrap();
        let t = s.create_text("hello").unwrap();
        s.append_child(a, t).unwrap();
        let b = s.create_element("b").unwrap();
        s.append_child(root, b).unwrap();
        let c = s.create_element("c").unwrap();
        s.append_child(b, c).unwrap();
        doc
    }

    #[test]
    fn freeze_preserves_structure_ids_and_order() {
        let mut s = Store::new();
        let doc = richer_tree(&mut s);
        let before_xml = s.to_xml(doc);
        let before_desc = s.descendants(doc);
        let before_depths: Vec<u32> = before_desc.iter().map(|&n| s.depth(n)).collect();

        let root = s.freeze(doc).unwrap();
        assert_eq!(root, doc, "freeze keeps NodeIds stable");
        assert!(s.is_frozen(doc));

        assert_eq!(s.to_xml(doc), before_xml);
        assert_eq!(s.descendants(doc), before_desc);
        let after_depths: Vec<u32> = before_desc.iter().map(|&n| s.depth(n)).collect();
        assert_eq!(after_depths, before_depths);
        for &x in &before_desc {
            for &y in &before_desc {
                assert_eq!(
                    s.doc_order(x, y),
                    s.doc_order_by_walk(x, y),
                    "order of {x:?} vs {y:?}"
                );
            }
        }
        assert_eq!(s.string_value(doc), "hello");
        assert_eq!(s.stats().trees_frozen, 1);
    }

    /// Full structural comparison of a tree against the index-free walk
    /// references — shape, order, content.
    fn assert_tree_consistent(s: &Store, doc: NodeId, expect_xml: &str) {
        assert_eq!(s.to_xml(doc), expect_xml);
        let nodes = tree_nodes(s, doc);
        for &x in &nodes {
            for &y in &nodes {
                assert_eq!(
                    s.doc_order(x, y),
                    s.doc_order_by_walk(x, y),
                    "{x:?} vs {y:?}"
                );
            }
        }
        for &n in &nodes {
            if let Some(p) = s.parent(n) {
                assert!(
                    s.children(p).contains(&n) || s.attributes(p).contains(&n),
                    "{n:?} not linked under {p:?}"
                );
            }
            assert_eq!(s.root(n), doc);
        }
    }

    #[test]
    fn refreeze_remounts_an_untouched_tree_verbatim() {
        let mut s = Store::new();
        let doc = richer_tree(&mut s);
        s.freeze(doc).unwrap();
        let before = s.snapshot(doc).unwrap();
        s.thaw(doc);
        s.freeze(doc).unwrap();
        let after = s.snapshot(doc).unwrap();
        assert!(
            TreeSnapshot::ptr_eq(&before, &after),
            "an untouched thaw/freeze round trip must hand back the same record table"
        );
        assert_eq!(s.stats().trees_refrozen_incremental, 1);
    }

    /// A document with distinct sections so edits can stay subtree-local:
    /// `<doc><sec>…</sec><sec>…</sec><sec>…</sec></doc>`, each section
    /// holding three `<item k="v">text</item>` children.
    fn sectioned_tree(s: &mut Store) -> (NodeId, Vec<NodeId>) {
        let doc = s.create_document().unwrap();
        let root = s.create_element("doc").unwrap();
        s.append_child(doc, root).unwrap();
        let mut secs = Vec::new();
        for _ in 0..3 {
            let sec = s.create_element("sec").unwrap();
            s.append_child(root, sec).unwrap();
            for _ in 0..3 {
                let item = s.create_element("item").unwrap();
                s.set_attribute(item, "k", "v").unwrap();
                let t = s.create_text("text").unwrap();
                s.append_child(item, t).unwrap();
                s.append_child(sec, item).unwrap();
            }
            secs.push(sec);
        }
        (doc, secs)
    }

    #[test]
    fn refreeze_splices_a_section_local_edit() {
        let mut s = Store::new();
        let (doc, secs) = sectioned_tree(&mut s);
        s.freeze(doc).unwrap();
        s.thaw(doc);
        // Edits confined to the middle section: new child, value overwrite,
        // rename, and a move between two of its items.
        let extra = s.create_element("item").unwrap();
        s.append_child(secs[1], extra).unwrap();
        let items = s.child_elements(secs[1]);
        s.set_attribute(items[0], "k", "edited").unwrap();
        s.set_name(items[1], "renamed").unwrap();
        let moved = s.children(items[0])[0];
        s.detach(moved);
        s.append_child(extra, moved).unwrap();
        let expect = s.to_xml(doc);

        s.freeze(doc).unwrap();
        assert!(s.is_frozen(doc));
        assert_eq!(
            s.stats().trees_refrozen_incremental,
            1,
            "a section-local edit batch must re-freeze by splicing"
        );
        assert_tree_consistent(&s, doc, &expect);
        // The spliced tree thaws and edits like any other.
        s.thaw(doc);
        assert_eq!(s.to_xml(doc), expect);
    }

    #[test]
    fn refreeze_falls_back_when_edits_span_the_tree() {
        let mut s = Store::new();
        let (doc, secs) = sectioned_tree(&mut s);
        s.freeze(doc).unwrap();
        s.thaw(doc);
        // Sites in a section *and* on the document node itself: the cover
        // lifts all the way to the tree root, and a whole-tree splice is
        // just a rebuild. (Edits under two far-apart sections only lift to
        // the document element — still a legitimate splice.)
        s.set_attribute(s.child_elements(secs[0])[0], "k", "a")
            .unwrap();
        let comment = s.create_comment("regenerated").unwrap();
        s.append_child(doc, comment).unwrap();
        let expect = s.to_xml(doc);
        s.freeze(doc).unwrap();
        assert_eq!(
            s.stats().trees_refrozen_incremental,
            0,
            "tree-spanning edits must take the full rebuild"
        );
        assert_tree_consistent(&s, doc, &expect);
    }

    #[test]
    fn refreeze_covers_nodes_that_left_the_tree() {
        let mut s = Store::new();
        let (doc, secs) = sectioned_tree(&mut s);
        s.freeze(doc).unwrap();
        s.thaw(doc);
        // An item leaves the tree for good: its old records must land
        // inside the spliced range, not linger in the shared suffix.
        let gone = s.child_elements(secs[1])[1];
        s.detach(gone);
        let expect = s.to_xml(doc);
        s.freeze(doc).unwrap();
        assert_eq!(s.stats().trees_refrozen_incremental, 1);
        assert_tree_consistent(&s, doc, &expect);
        // The detached item is a live thawed tree of its own.
        assert!(!s.is_frozen(gone));
        assert_eq!(s.string_value(gone), "text");
    }

    #[test]
    fn edit_auto_thaws_and_refreeze_round_trips() {
        let mut s = Store::new();
        let doc = richer_tree(&mut s);
        s.freeze(doc).unwrap();
        assert!(s.is_frozen(doc));

        // A mutation transparently thaws the whole tree back to the overlay.
        let root = s.document_element(doc).unwrap();
        let d = s.create_element("d").unwrap();
        s.append_child(root, d).unwrap();
        assert!(!s.is_frozen(doc));
        assert_eq!(s.stats().trees_thawed, 1);
        let expected = s.to_xml(doc);
        assert!(expected.contains("<d/>"));

        // Refreezing reproduces the edited document byte-for-byte.
        s.freeze(doc).unwrap();
        assert!(s.is_frozen(doc));
        assert_eq!(s.to_xml(doc), expected);
        assert_eq!(s.stats().trees_frozen, 2);
    }

    #[test]
    fn shape_preserving_edits_write_the_frozen_record_in_place() {
        let mut s = Store::new();
        let doc = richer_tree(&mut s);
        s.freeze(doc).unwrap();
        let root = s.document_element(doc).unwrap();
        let (a, b) = (s.child_elements(root)[0], s.child_elements(root)[1]);
        let t = s.children(a)[0];
        // Warm the name and value maps, so the writes must keep them right.
        assert_eq!(s.elements_with_attr_value(doc, "k".into(), "v"), [a]);
        assert_eq!(s.descendant_elements_by_local(doc, "b".into()), [b]);
        let before = s.stats();

        s.set_attribute(a, "k", "w").unwrap();
        s.set_text(t, "bye").unwrap();
        s.set_name(b, "bee").unwrap();
        let after = s.stats();
        assert!(
            s.is_frozen(doc),
            "shape-preserving edits keep the tree frozen"
        );
        assert_eq!(after.frozen_value_edits, before.frozen_value_edits + 3);
        assert_eq!(after.trees_thawed, before.trees_thawed);
        assert_eq!(
            s.to_xml(doc),
            "<root id=\"r1\"><a k=\"w\">bye</a><bee><c/></bee></root>"
        );
        assert!(s.elements_with_attr_value(doc, "k".into(), "v").is_empty());
        assert_eq!(s.elements_with_attr_value(doc, "k".into(), "w"), [a]);
        assert_eq!(s.elements_with_attr_value(doc, "id".into(), "r1"), [root]);
        assert!(s.descendant_elements_by_local(doc, "b".into()).is_empty());
        assert_eq!(s.descendant_elements_by_local(doc, "bee".into()), [b]);
        assert_eq!(s.name_span(doc, &QName::from("bee"), false).len(), 1);

        // A new attribute changes the attribute list: structural, so it thaws.
        s.set_attribute(a, "fresh", "1").unwrap();
        assert!(!s.is_frozen(doc));
        assert_eq!(s.stats().trees_thawed, before.trees_thawed + 1);
    }

    #[test]
    fn shape_preserving_edit_of_a_shared_table_thaws_instead() {
        let mut s = Store::new();
        let doc = richer_tree(&mut s);
        s.freeze(doc).unwrap();
        let xml = s.to_xml(doc);
        let held = s.snapshot(doc).unwrap();
        let twin = s.clone();
        let root = s.document_element(doc).unwrap();
        let a = s.child_elements(root)[0];
        let before = s.stats();

        s.set_attribute(a, "k", "w").unwrap();
        assert!(!s.is_frozen(doc), "a shared table is never written");
        assert_eq!(s.stats().trees_thawed, before.trees_thawed + 1);
        assert_eq!(s.stats().frozen_value_edits, before.frozen_value_edits);
        assert_eq!(s.to_xml(doc), xml.replace("k=\"v\"", "k=\"w\""));
        // The snapshot and the clone keep the old table, byte for byte.
        let mut other = Store::new();
        let adopted = other.adopt(&held).unwrap();
        assert_eq!(other.to_xml(adopted), xml);
        assert!(TreeSnapshot::ptr_eq(
            &held,
            &other.snapshot(adopted).unwrap()
        ));
        assert_eq!(twin.to_xml(doc), xml);

        // Refrozen, the table is this mount's own: the next write goes in
        // place.
        s.freeze(doc).unwrap();
        s.set_text(s.children(a)[0], "bye").unwrap();
        assert!(s.is_frozen(doc));
        assert_eq!(s.stats().frozen_value_edits, before.frozen_value_edits + 1);
        assert_eq!(other.to_xml(adopted), xml);
    }

    #[test]
    fn snapshot_is_arc_identity_no_node_copies() {
        let mut s = Store::new();
        let doc = richer_tree(&mut s);

        // Thawed trees have no cheap snapshot.
        assert!(s.snapshot(doc).is_none());

        s.freeze(doc).unwrap();
        let node_total = s.descendants(doc).len() + 1 + 2; // nodes + doc + 2 attrs
        let snap1 = s.snapshot(doc).unwrap();
        let snap2 = s.snapshot(doc).unwrap();
        // O(1) snapshot: both handles point at the SAME frozen records —
        // an Arc refcount bump, not a copy of any node.
        assert!(TreeSnapshot::ptr_eq(&snap1, &snap2));
        assert_eq!(snap1.node_count(), node_total);
        assert_eq!(s.stats().tree_snapshots, 2);

        // Snapshots stay valid (same records) even after the source store
        // thaws the tree for an edit.
        let root = s.document_element(doc).unwrap();
        let extra = s.create_element("extra").unwrap();
        s.append_child(root, extra).unwrap();
        assert!(TreeSnapshot::ptr_eq(&snap1, &snap2));
        assert_eq!(snap1.node_count(), node_total);
    }

    #[test]
    fn adopt_shares_records_across_stores() {
        let mut a = Store::new();
        let doc = richer_tree(&mut a);
        a.freeze(doc).unwrap();
        let xml = a.to_xml(doc);
        let snap = a.snapshot(doc).unwrap();

        let mut b = Store::new();
        let adopted = b.adopt(&snap).unwrap();
        assert!(b.is_frozen(adopted));
        assert_eq!(b.to_xml(adopted), xml);
        // The adopting store mounts the SAME record table — snapshotting the
        // adopted tree hands back the identical Arc, proving no nodes were
        // copied across stores.
        let resnap = b.snapshot(adopted).unwrap();
        assert!(TreeSnapshot::ptr_eq(&snap, &resnap));
    }

    #[test]
    fn release_mount_drops_this_stores_reference_only() {
        let mut a = Store::new();
        let doc = richer_tree(&mut a);
        a.freeze(doc).unwrap();
        let xml = a.to_xml(doc);
        let snap = a.snapshot(doc).unwrap();
        let bytes = snap.byte_size();
        assert!(bytes > 0, "snapshot accounts for its retained bytes");

        let mut b = Store::new();
        let adopted = b.adopt(&snap).unwrap();
        let released = b.release_mount(adopted).unwrap();
        assert_eq!(released, snap.node_count());
        assert_eq!(b.stats().mounts_released, 1);

        // The snapshot (and the origin store) are untouched: a fresh adopt
        // still shares the identical record table.
        let mut c = Store::new();
        let readopted = c.adopt(&snap).unwrap();
        assert_eq!(c.to_xml(readopted), xml);
        assert!(TreeSnapshot::ptr_eq(&snap, &c.snapshot(readopted).unwrap()));
        assert_eq!(a.to_xml(doc), xml);
    }

    #[test]
    fn release_mount_rejects_non_roots_and_thawed_trees() {
        let mut s = Store::new();
        let doc = richer_tree(&mut s);
        // Thawed: no mount to release.
        assert!(s.release_mount(doc).is_err());
        s.freeze(doc).unwrap();
        // Mid-tree node: refused, the mount stays live.
        let root = s.document_element(doc).unwrap();
        assert!(s.release_mount(root).is_err());
        assert!(s.is_frozen(doc));
        assert_eq!(s.stats().mounts_released, 0);
        // The root releases; the id range is dead afterwards and the mount
        // index is not recycled by a later parse.
        s.release_mount(doc).unwrap();
        let next = s
            .parse_str("<fresh/>", &crate::parser::ParseOptions::default())
            .unwrap();
        assert_eq!(s.to_xml(next), "<fresh/>");
    }

    #[test]
    fn released_mount_ids_panic_instead_of_aliasing() {
        let mut s = Store::new();
        let doc = richer_tree(&mut s);
        s.freeze(doc).unwrap();
        let snap = s.snapshot(doc).unwrap();
        let mut t = Store::new();
        let adopted = t.adopt(&snap).unwrap();
        t.release_mount(adopted).unwrap();
        // A second mount lands on fresh ids; the stale root id panics
        // loudly rather than resolving into the new tree.
        let again = t.adopt(&snap).unwrap();
        assert_ne!(adopted, again);
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| t.kind(adopted)));
        assert!(err.is_err(), "stale id must not resolve");
    }

    #[test]
    fn arena_exhaustion_is_a_recoverable_error() {
        let mut s = Store::new();
        let doc = s.create_document().unwrap();
        let root = s.create_element("root").unwrap();
        s.append_child(doc, root).unwrap();
        s.set_node_cap(2);

        let err = s.create_element("overflow").unwrap_err();
        assert!(matches!(err.kind, XmlErrorKind::ArenaFull), "{err}");
        // The store is still fully usable after the failed allocation.
        assert_eq!(s.document_element(doc), Some(root));
        assert_eq!(s.to_xml(doc), "<root/>");
        s.set_attribute(root, "still", "works").unwrap_err(); // attr needs a slot
        assert_eq!(s.to_xml(doc), "<root/>");
    }

    #[test]
    fn frozen_name_queries_bump_slice_scan_counter() {
        let mut s = Store::new();
        let doc = richer_tree(&mut s);
        s.freeze(doc).unwrap();
        let before = s.stats().arena_slice_scans;
        let hits = s.descendant_elements_by_local(doc, "b".into());
        assert_eq!(hits.len(), 1);
        let _ = s.descendants_iter(doc).count();
        assert!(s.stats().arena_slice_scans > before);
    }
}
