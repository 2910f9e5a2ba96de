//! Incremental regeneration — the paper's edit-a-node, regenerate-the-docs
//! loop without regenerating the whole document.
//!
//! The document is a tree of **parts**. A part is a run of output with the
//! state and the reads of the walk that produced it. The root part's parts
//! are the top-level children of the `<template>` body, and each of those
//! walks with its loops split: every `<for>` the walk reaches with no
//! focus, outside `<marker-content>`, hands each of its iterations over as
//! a part of its own (see [`Walker::split`](super::walk::Walker)). An
//! iteration splits nothing (inside one the focus is set), so the tree is
//! three deep. A part's own output is everything its walk did outside its
//! parts, its loops' own reads included. Each loop records the element its
//! parts' output sits under, where that output starts (its anchor), and the
//! template path and section depth its parts start from, so a part re-runs
//! alone and renders the headings and error notes a full run does. The
//! root's loop runs over the template's children, anchored at the start of
//! `<document>`.
//!
//! While a part runs, its [`GenState::deps`] records everything it read
//! from the model that an edit can change — types enumerated, relations
//! followed, and the nodes whose properties it read. A node's label and
//! type are fixed at `awb::Model::add_node`, so reading only those records
//! nothing. The model stamps what each of its mutators changed in the same
//! vocabulary, and [`IncrementalDoc::apply_edit`] reads the changes since
//! the last run from it, finding the parts that read what changed through
//! one index from node to parts. A dirty part re-runs with every part under
//! it (an added node re-runs the loops that enumerate its type, and with
//! them fresh iterations), and its fresh output replaces the old in place
//! among its siblings. Everything else stays in place.
//!
//! Four pieces of a document are *not* local and are handled explicitly:
//!
//! * the **table of contents** and **table of omissions** are renderings
//!   of merged state (toc entries, visited nodes). Their placeholder
//!   `<div>`s are emptied and refilled only when an edit can have changed
//!   them: a re-run part held a placeholder or changed its toc entries or
//!   visited set, the edit added a node, or the marker definitions
//!   changed. Otherwise they, and the bytes cached around them, stay as
//!   they were;
//! * **marker replacements** put one part's generated content in place of
//!   text found in any part. The store keeps each part's raw output, marker
//!   text included, and each definition's content once; the definitions
//!   are applied as bytes are written ([`Markers`]). A run records whether
//!   its raw output holds one of the template's marker names, and when an
//!   edit changes the definitions, such runs write their bytes afresh;
//! * the **trouble count** is the sum of per-part counts;
//! * the **serialized bytes**: each part caches its serialization with the
//!   byte ranges of its parts in it. A part whose bytes changed since (a
//!   re-run, a change of the definitions its text meets, a placeholder
//!   refill) gets a fresh stamp and an empty cache, and its bytes go in
//!   place of its old range. A part's cache also empties when one of its
//!   parts' output became or stopped being empty.
//!   [`IncrementalDoc::to_xml`] writes the root's tags around the
//!   top-level parts' bytes.
//!
//! The correctness bar is exact: after any sequence of `apply_edit` calls,
//! [`IncrementalDoc::to_xml`] must equal what a fresh [`super::generate`]
//! of the current model produces. The equivalence tests below hold it there,
//! over randomly generated templates and edit sequences.

use super::state::{ChunkDeps, GenState, TocEntry};
use super::walk::Walker;
use crate::trouble::GenTrouble;
use crate::GenInputs;
use awb::NodeRef;
use std::collections::{BTreeSet, HashMap, HashSet};
use std::ops::Range;
use std::sync::OnceLock;
use xmlstore::serializer::{push_text, Runs};
use xmlstore::{NodeId, NodeKind, Store};

/// Changes a caller reports beside the ones the model stamps itself (see
/// `awb::Model::changes_since`). [`IncrementalDoc::apply_edit`] unions it
/// into what the model reports, so it can only add parts to the re-run
/// set, never hide one.
#[derive(Debug, Default, Clone)]
pub struct EditFootprint(pub ChunkDeps);

impl EditFootprint {
    pub fn new() -> EditFootprint {
        EditFootprint::default()
    }

    /// The edit changed this node's properties. (Labels and types are
    /// fixed when a node is added, and an edge is its relation's change.)
    pub fn touch_node(mut self, n: NodeRef) -> EditFootprint {
        self.0.nodes.insert(n);
        self
    }
}

/// The name of the generated document's root element.
const ROOT_NAME: &str = "document";

/// Marker definitions in full-run order: marker text and its content
/// (detached nodes in the output store, owned by the run that generated
/// them).
type Defs = Vec<(String, Vec<NodeId>)>;

/// Where a part sits in the tree: its index among its parent's parts, for
/// each step down from the root.
type Path = Vec<usize>;

/// A run of output and everything the walk that last produced it left.
struct Part {
    /// What a re-run walks.
    source: Source,
    /// Its own output: a contiguous run of children of its loop's
    /// `out_parent`, less the output of its own parts.
    out_nodes: Vec<NodeId>,
    state: GenState,
    /// Whether the raw output of the run that made it, its parts'
    /// included, holds the text of a marker the template defines: its
    /// bytes then depend on the definitions. Its serialization writes its
    /// parts' output too, so the parts that run made note nothing.
    mentions: bool,
    /// Its focus-free loops in walk order; their iterations are `parts`.
    loops: Vec<Loop>,
    parts: Vec<Part>,
    /// Changes whenever its bytes do (a fresh stamp per change): its bytes
    /// inside its parent's [`Cached`] hold while the stamps agree.
    stamp: u64,
    /// Its output serialized, filled on first use after it last changed.
    xml: OnceLock<Cached>,
}

/// What a part's re-run walks, from the context its loop recorded.
#[derive(Clone, Copy)]
enum Source {
    /// A template child, its focus-free loops split into parts. The root's
    /// is the template element itself, and nothing dirties the root.
    Child(NodeId),
    /// One iteration of the loop's `<for>`, with this node in focus.
    Iteration(NodeRef),
}

/// A loop whose iterations are parts: a `<for>` a part's walk reached with
/// no focus, or the root's loop over the template's children.
struct Loop {
    /// The `<for>` template element (the root's: the template element).
    for_el: NodeId,
    /// The walker's template path and section depth at the loop.
    path: Vec<String>,
    section_depth: usize,
    /// The element its iterations' output sits under.
    out_parent: NodeId,
    /// Where that output starts when every iteration is empty.
    anchor: Anchor,
    /// Where its iterations' toc entries and marker definitions merge into
    /// the part's own lists.
    toc_at: usize,
    defs_at: usize,
    /// Its iterations: `Part::parts[parts]`.
    parts: Range<usize>,
}

/// Where a loop's output starts among its parent's children.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Anchor {
    /// First: where the part starts when the loop writes beside the part's
    /// own output, else at the parent's start.
    Start,
    /// Right after this node of the part's own output.
    After(NodeId),
    /// Right after the output of this earlier loop of the part, which
    /// shares the parent and left nothing between.
    AfterLoop(usize),
}

/// A part's serialization, and where the bytes of each of its parts with
/// output sit in it, with that part's stamp when they were written. A part
/// whose stamp moved since writes its own bytes in that range's place.
struct Cached {
    bytes: String,
    parts: Vec<(Range<usize>, usize, u64)>,
}

impl Part {
    fn new(source: Source, out_nodes: Vec<NodeId>, state: GenState) -> Part {
        Part {
            source,
            out_nodes,
            state,
            mentions: false,
            loops: Vec::new(),
            parts: Vec::new(),
            stamp: 0,
            xml: OnceLock::new(),
        }
    }

    /// The part `path` leads to from this one.
    fn at(&self, path: &[usize]) -> &Part {
        path.iter().fold(self, |p, &i| &p.parts[i])
    }

    fn at_mut(&mut self, path: &[usize]) -> &mut Part {
        path.iter().fold(self, |p, &i| &mut p.parts[i])
    }

    /// Calls `f` on this part, at `path`, and on every part under it, in
    /// walk order, each with its path.
    fn visit<'p>(&'p self, path: &mut Path, f: &mut impl FnMut(&[usize], &'p Part)) {
        f(path, self);
        for (i, p) in self.parts.iter().enumerate() {
            path.push(i);
            p.visit(path, f);
            path.pop();
        }
    }

    /// The loop part `i` belongs to.
    fn loop_of(&self, i: usize) -> usize {
        self.loops.partition_point(|l| l.parts.end <= i)
    }

    /// Its output under `parent`, the element it sits in, in document
    /// order: its own nodes, then those of its parts that a loop wrote
    /// beside them. It wrote one or the other there: a template child that
    /// is a `<for>` writes only its iterations, the root only its parts.
    fn output(&self, parent: NodeId) -> Vec<NodeId> {
        let mut out = self.out_nodes.clone();
        for l in self.loops.iter().filter(|l| l.out_parent == parent) {
            for p in &self.parts[l.parts.clone()] {
                out.extend(p.output(parent));
            }
        }
        out
    }

    /// Appends its toc entries or marker definitions, as `list` picks from
    /// a state and `at` from a loop, in full-run order: its own list, with
    /// each loop's parts' lists merged in where the loop started.
    fn merged<'p, T: 'p>(
        &'p self,
        list: &impl Fn(&'p GenState) -> &'p [T],
        at: &impl Fn(&Loop) -> usize,
        out: &mut Vec<&'p T>,
    ) {
        let own = list(&self.state);
        let mut done = 0;
        for l in &self.loops {
            out.extend(&own[done..at(l)]);
            done = at(l);
            for p in &self.parts[l.parts.clone()] {
                p.merged(list, at, out);
            }
        }
        out.extend(&own[done..]);
    }

    /// Toc entries in full-run order.
    fn toc(&self) -> Vec<&TocEntry> {
        let mut out = Vec::new();
        self.merged(&|s| &s.toc, &|l| l.toc_at, &mut out);
        out
    }

    /// Marker definitions in full-run order.
    fn defs(&self) -> Vec<&(String, Vec<NodeId>)> {
        let mut out = Vec::new();
        self.merged(&|s| &s.replacements, &|l| l.defs_at, &mut out);
        out
    }

    /// A sum over this part and every part under it.
    fn sum(&self, f: &impl Fn(&Part) -> usize) -> usize {
        f(self) + self.parts.iter().map(|p| p.sum(f)).sum::<usize>()
    }

    fn visited(&self) -> HashSet<NodeRef> {
        let mut visited = HashSet::new();
        self.visit(&mut Vec::new(), &mut |_, p| {
            visited.extend(&p.state.visited)
        });
        visited
    }

    fn holds_placeholders(&self) -> bool {
        self.sum(&|p| p.state.holds_placeholders() as usize) > 0
    }

    /// Its bytes changed: its parent's copy of them no longer holds.
    fn changed(&mut self, stamp: u64) {
        self.stamp = stamp;
        self.xml = OnceLock::new();
    }

    /// Serializes its output under `parent`, noting where each of its
    /// parts with output went.
    fn serialize(&self, markers: Markers, parent: NodeId) -> Cached {
        let mut runs = PartRuns {
            part: self,
            next: 0,
            open: 0,
            found: Vec::new(),
            markers,
        };
        let nodes = self.output(parent);
        let mut bytes = String::new();
        let mut i = 0;
        while i < nodes.len() {
            // Parts beside its own output are runs of `nodes` itself.
            let k = runs.starts(nodes[i]);
            let start = bytes.len();
            for &n in &nodes[i..i + k.max(1)] {
                markers.store.write_xml_runs(n, &mut bytes, &mut runs);
            }
            if k > 0 {
                runs.ended(start..bytes.len());
            }
            i += k.max(1);
        }
        debug_assert_eq!(
            runs.found.len(),
            self.parts
                .iter()
                .filter(|p| !p.out_nodes.is_empty())
                .count(),
            "parts sit in document order"
        );
        Cached {
            bytes,
            parts: runs.found,
        }
    }

    /// Appends its bytes to `out`: its cache, with the bytes of each part
    /// that changed since it was written in place of the old.
    fn write_xml(&self, markers: Markers, parent: NodeId, out: &mut String) {
        let cached = self.xml.get_or_init(|| self.serialize(markers, parent));
        let mut at = 0;
        for (range, i, stamp) in &cached.parts {
            let part = &self.parts[*i];
            if part.stamp != *stamp {
                out.push_str(&cached.bytes[at..range.start]);
                part.write_xml(markers, self.loops[self.loop_of(*i)].out_parent, out);
                at = range.end;
            }
        }
        out.push_str(&cached.bytes[at..]);
    }
}

/// Writes text as a full run's marker pass leaves it
/// ([`GenState::apply_marker_replacements`]): with the definitions
/// `defs[from..]` applied. The pass applies each definition in turn
/// wherever its marker then sits, in the content earlier definitions put
/// in too, so a text holding definition `j`'s marker first among
/// `defs[from..]` is written as the text before the marker with
/// `defs[j + 1..]`, definition `j`'s content with `defs[j + 1..]`, and the
/// text after the marker with `defs[j..]` again.
#[derive(Clone, Copy)]
struct Markers<'d> {
    store: &'d Store,
    defs: &'d [(String, Vec<NodeId>)],
    from: usize,
}

/// A piece of text as a full run's marker pass leaves it.
enum Piece<'t> {
    /// Text no definition applies to.
    Text(&'t str),
    /// Where definition `j`'s content goes, with `defs[j + 1..]` applied.
    Content(usize),
}

impl Markers<'_> {
    /// Calls `f` on the pieces of `text`, in order.
    fn split<'t>(&self, text: &'t str, f: &mut impl FnMut(Piece<'t>)) {
        let (mut text, mut from) = (text, self.from);
        // Most texts are shorter than any marker: those need no search.
        let first = |text: &str, from| {
            let defs = self.defs.iter().enumerate().skip(from);
            defs.filter(|(_, (m, _))| m.len() <= text.len())
                .find_map(|(j, (m, _))| text.find(m.as_str()).map(|at| (j, at)))
        };
        while let Some((j, at)) = first(text, from) {
            self.after(j).split(&text[..at], f);
            f(Piece::Content(j));
            let marker = &self.defs[j].0;
            text = &text[at + marker.len()..];
            // An empty marker is met again at once: a full run fails on
            // it (see `check_markers`), and here it applies once.
            from = if marker.is_empty() { j + 1 } else { j };
        }
        f(Piece::Text(text));
    }

    /// The writer of definition `j`'s content: the definitions after it.
    fn after(&self, j: usize) -> Self {
        Markers {
            from: j + 1,
            ..*self
        }
    }

    /// Adds `copies` to `found[j]` wherever `text` gets a copy of
    /// definition `j`'s content.
    fn count(&self, text: &str, copies: u64, found: &mut [u64]) {
        self.split(text, &mut |piece| {
            if let Piece::Content(j) = piece {
                found[j] = found[j].saturating_add(copies);
            }
        });
    }
}

impl Runs for Markers<'_> {
    fn text(&mut self, text: &str, out: &mut String) {
        self.split(text, &mut |piece| match piece {
            Piece::Text(text) => push_text(out, text),
            Piece::Content(j) => {
                let mut after = self.after(j);
                for &n in &self.defs[j].1 {
                    self.store.write_xml_runs(n, out, &mut after);
                }
            }
        });
    }
}

/// Locates a part's parts in its serialization ([`Part::serialize`]).
/// Parts are listed in walk order, which is the document order of their
/// output, so the next part with output is the only one that can start.
/// Only the root's parts can write beside their own output, and
/// [`IncrementalDoc::to_xml`] writes the root, so a part's own nodes are
/// all its output. Its text goes out with the marker definitions applied.
struct PartRuns<'p> {
    part: &'p Part,
    /// The part to look for next, and the one whose run started last.
    next: usize,
    open: usize,
    found: Vec<(Range<usize>, usize, u64)>,
    markers: Markers<'p>,
}

impl Runs for PartRuns<'_> {
    fn starts(&mut self, node: NodeId) -> usize {
        let parts = &self.part.parts;
        while self.next < parts.len() && parts[self.next].out_nodes.is_empty() {
            self.next += 1;
        }
        match parts.get(self.next) {
            Some(p) if p.out_nodes[0] == node => {
                self.open = self.next;
                self.next += 1;
                p.out_nodes.len()
            }
            _ => 0,
        }
    }

    fn ended(&mut self, bytes: Range<usize>) {
        let i = self.open;
        self.found.push((bytes, i, self.part.parts[i].stamp));
    }

    fn text(&mut self, text: &str, out: &mut String) {
        self.markers.text(text, out);
    }
}

/// A part walk's loops and iterations, collected through
/// [`Walker::split`].
#[derive(Default)]
pub(super) struct Split {
    loops: Vec<Loop>,
    parts: Vec<Part>,
    /// Per loop, where its output ended among its parent's children.
    ends: Vec<usize>,
}

impl Walker<'_, '_> {
    /// Runs a `<for>` the walk reached with no focus, outside
    /// `<marker-content>`: each iteration runs on a fresh state and joins
    /// `split` as a part, and the loop records the context a re-run starts
    /// from.
    pub(super) fn split_loop(
        &mut self,
        split: &mut Split,
        for_el: NodeId,
        nodes: Vec<NodeRef>,
        body: &[NodeId],
        out_parent: NodeId,
    ) -> Result<(), GenTrouble> {
        let start = self.out.children(out_parent).len();
        let same_parent = split.loops.iter().rposition(|l| l.out_parent == out_parent);
        let anchor = match same_parent {
            Some(k) if split.ends[k] == start => Anchor::AfterLoop(k),
            _ if start == 0 => Anchor::Start,
            _ => Anchor::After(self.out.children(out_parent)[start - 1]),
        };
        let first = split.parts.len();
        split.parts.reserve(nodes.len());
        split.loops.push(Loop {
            for_el,
            path: self.path.clone(),
            section_depth: self.section_depth,
            out_parent,
            anchor,
            toc_at: self.state.toc.len(),
            defs_at: self.state.replacements.len(),
            parts: first..first + nodes.len(),
        });
        let outer = std::mem::take(&mut *self.state);
        for node in nodes {
            let out_nodes = self.gen_iteration(node, body, out_parent);
            let state = std::mem::take(&mut *self.state);
            match out_nodes {
                Ok(out_nodes) => {
                    let part = Part::new(Source::Iteration(node), out_nodes, state);
                    split.parts.push(part);
                }
                Err(trouble) => {
                    *self.state = outer;
                    return Err(trouble);
                }
            }
        }
        *self.state = outer;
        split.ends.push(self.out.children(out_parent).len());
        Ok(())
    }
}

/// Which parts read each node's properties, so that an edit finds its
/// dirty parts without testing every part's read set: the answer
/// `ChunkDeps::overlaps` gives, part by part.
#[derive(Default)]
struct Readers {
    /// Parts by a node whose properties they read.
    by_node: HashMap<NodeRef, Vec<Path>>,
    /// Parts that read types, relations or the whole population too:
    /// these are tested one by one.
    others: BTreeSet<Path>,
}

impl Readers {
    /// Indexes `part`, at `path`, and every part under it.
    fn add(&mut self, path: &[usize], part: &Part) {
        part.visit(&mut path.to_vec(), &mut |path, p| {
            let deps = &p.state.deps;
            for &n in &deps.nodes {
                self.by_node.entry(n).or_default().push(path.to_vec());
            }
            if deps.any_node || !deps.types.is_empty() || !deps.relations.is_empty() {
                self.others.insert(path.to_vec());
            }
        });
    }

    /// Drops `part`, at `path`, and every part under it.
    fn remove(&mut self, path: &[usize], part: &Part) {
        part.visit(&mut path.to_vec(), &mut |path, p| {
            for n in &p.state.deps.nodes {
                if let Some(parts) = self.by_node.get_mut(n) {
                    parts.retain(|k| k != path);
                }
            }
            self.others.remove(path);
        });
    }

    /// The parts of `tree` whose read sets an edit with footprint `edit`
    /// overlaps.
    fn dirty(&self, tree: &Part, edit: &ChunkDeps, meta: &awb::Metamodel) -> BTreeSet<Path> {
        let by_node = edit.nodes.iter().filter_map(|n| self.by_node.get(n));
        let others = self
            .others
            .iter()
            .filter(|&path| tree.at(path).state.deps.overlaps(edit, meta));
        by_node.flatten().chain(others).cloned().collect()
    }
}

/// A generated document that can absorb model edits by re-running only the
/// parts the edit can have changed.
pub struct IncrementalDoc {
    /// The output tree lives in its own store, like [`super::NativeOutput`],
    /// but raw: marker text stays where the walk wrote it, and
    /// [`Self::to_xml`] writes the definitions' content in its place.
    pub store: Store,
    /// The `<document>` root element.
    pub root: NodeId,
    /// Total per-item troubles across all parts, as of the last run: the
    /// sum of per-part counts, kept as parts are replaced.
    pub trouble_count: usize,
    /// The root part: its parts are the template's top-level children.
    tree: Part,
    /// The marker definitions of all parts, in full-run order.
    defs: Defs,
    /// The markers the template defines.
    marker_names: Vec<String>,
    /// The model version the parts were last generated against.
    version: u64,
    /// The last stamp handed to a part whose bytes changed.
    stamps: u64,
    /// Built by the first edit.
    readers: Option<Readers>,
}

impl IncrementalDoc {
    /// Generates the full document once, recording per-part read sets.
    /// Output is identical to [`super::generate`] on the same inputs.
    pub fn generate(inputs: &GenInputs) -> Result<IncrementalDoc, GenTrouble> {
        let mut store = Store::new();
        let root = store.create_element(ROOT_NAME).map_err(internal)?;
        let template = inputs.template.root();
        let tpl = inputs.template.store();
        let mut marker_names: Vec<String> = tpl
            .descendants_iter(template)
            .filter(|&n| tpl.name(n).is_some_and(|q| q.local() == "marker-content"))
            .filter_map(|n| tpl.attribute_value(n, "marker").map(String::from))
            .collect();
        marker_names.sort();
        marker_names.dedup();
        let children = tpl.children(template).to_vec();
        let top = Loop {
            for_el: template,
            path: vec!["template".to_string()],
            section_depth: 0,
            out_parent: root,
            anchor: Anchor::Start,
            toc_at: 0,
            defs_at: 0,
            parts: 0..children.len(),
        };
        let mut parts = Vec::with_capacity(children.len());
        for child in children {
            let part = run_part(
                inputs,
                &mut store,
                &top,
                Source::Child(child),
                &marker_names,
            )?;
            for n in part.output(root) {
                store.append_child(root, n).map_err(internal)?;
            }
            parts.push(part);
        }
        let tree = Part {
            loops: vec![top],
            parts,
            ..Part::new(Source::Child(template), Vec::new(), GenState::default())
        };
        let mut doc = IncrementalDoc {
            store,
            root,
            trouble_count: tree.sum(&|p| p.state.trouble_count),
            defs: tree.defs().into_iter().cloned().collect(),
            tree,
            marker_names,
            version: inputs.model.version(),
            stamps: 0,
            readers: None,
        };
        doc.refill_placeholders(inputs, false)?;
        doc.check_markers()?;
        Ok(doc)
    }

    /// Re-runs exactly the parts the model's changes since the last run can
    /// have changed (plus any `footprint` adds), replaces their output with
    /// the fresh output in place, and refills the toc/omissions
    /// placeholders when the edit can have changed them. A re-run part
    /// re-runs every part under it. The *model edit itself must already
    /// have been applied* to `inputs.model`, the model this document was
    /// generated from. The metamodel and the template carry no version, so
    /// they must be the ones [`Self::generate`] got. Returns how many parts
    /// were re-run: each re-run part counts itself and each of its fresh
    /// parts.
    pub fn apply_edit(
        &mut self,
        inputs: &GenInputs,
        footprint: &EditFootprint,
    ) -> Result<usize, GenTrouble> {
        let edit = self.edit_since(inputs.model, footprint);
        let dirty = self.dirty(&edit, inputs.meta);
        let mut refill = !edit.types.is_empty();
        let (mut reran, mut defs_moved, mut mentions) = (0, false, false);
        // A part under a dirty part re-runs with it. Each fresh run replaces
        // the old in place; one whose placeholders, toc entries or visits
        // can differ calls for a refill.
        for path in &dirty {
            let (&i, up) = path.split_last().expect("the root reads nothing");
            if (1..path.len()).any(|k| dirty.contains(&path[..k])) {
                continue;
            }
            let parent = self.tree.at(up);
            let lp = &parent.loops[parent.loop_of(i)];
            let old = &parent.parts[i];
            let fresh = run_part(inputs, &mut self.store, lp, old.source, &self.marker_names)?;
            defs_moved |= !old.defs().is_empty() || !fresh.defs().is_empty();
            mentions |= fresh.mentions;
            reran += fresh.sum(&|_| 1);
            refill |= self.replace(path, fresh)?;
        }
        // The definitions live in the parts that made them: a re-run part
        // that had or has some made new ones, which count as changed, so
        // every part that mentions a marker writes its bytes afresh.
        if defs_moved {
            self.defs = self.tree.defs().into_iter().cloned().collect();
        }
        if refill || defs_moved {
            self.refill_placeholders(inputs, defs_moved)?;
        }
        if refill || defs_moved || mentions {
            self.check_markers()?;
        }
        self.version = inputs.model.version();
        Ok(reran)
    }

    /// Compact XML of the generated document: the root's tags around each
    /// top-level part's bytes, each part serialized once per change of its
    /// bytes, marker definitions applied. Edits made through
    /// [`Self::store`] directly rather than [`Self::apply_edit`] are not
    /// seen by the caches.
    pub fn to_xml(&self) -> String {
        if self.store.children(self.root).is_empty() {
            return self.store.to_xml(self.root);
        }
        let mut out = format!("<{ROOT_NAME}>");
        for p in &self.tree.parts {
            p.write_xml(self.markers(), self.root, &mut out);
        }
        out.push_str(&format!("</{ROOT_NAME}>"));
        out
    }

    /// How many parts the document splits into (diagnostic/bench use): one
    /// per top-level template child and one per iteration of a focus-free
    /// loop.
    pub fn chunk_count(&self) -> usize {
        self.tree.sum(&|_| 1) - 1
    }

    /// Writes text with every marker definition applied.
    fn markers(&self) -> Markers<'_> {
        Markers {
            store: &self.store,
            defs: &self.defs,
            from: 0,
        }
    }

    /// Fails where a full run's marker pass fails
    /// ([`GenState::apply_marker_replacements`]): on the first definition,
    /// in order, whose marker it finds more than 10,000 times, or finds at
    /// all while the definition's content holds it (an empty marker is in
    /// every text), since it would put the content in forever. It counts
    /// as [`Markers`] writes: definition `j`'s marker in the document's
    /// text, and in each copy of an earlier definition's content.
    fn check_markers(&self) -> Result<(), GenTrouble> {
        if self.defs.is_empty() {
            return Ok(());
        }
        let (store, markers) = (&self.store, self.markers());
        let mut found = vec![0; self.defs.len()];
        texts(store, self.root).for_each(|t| markers.count(t, 1, &mut found));
        for (j, (marker, content)) in self.defs.iter().enumerate() {
            // Only copies of earlier definitions' content add to it, so
            // `found[j]` is complete here.
            let copies = found[j];
            if copies == 0 {
                continue;
            }
            let content: Vec<&str> = content.iter().flat_map(|&n| texts(store, n)).collect();
            if copies > 10_000 || marker.is_empty() || content.iter().any(|t| t.contains(marker)) {
                return Err(GenTrouble::new(format!(
                    "marker {marker:?} replacement did not terminate (does the replacement contain the marker?)"
                )));
            }
            for t in content {
                markers.after(j).count(t, copies, &mut found);
            }
        }
        Ok(())
    }

    /// What the model changed since the last run, with `footprint` added.
    fn edit_since(&self, model: &awb::Model, footprint: &EditFootprint) -> ChunkDeps {
        debug_assert!(
            model.version() >= self.version,
            "not the model generated from"
        );
        let mut edit = footprint.0.clone();
        let changes = model.changes_since(self.version);
        edit.nodes.extend(changes.nodes);
        edit.types
            .extend(changes.node_types.into_iter().map(String::from));
        edit.relations
            .extend(changes.relations.into_iter().map(String::from));
        edit
    }

    /// The parts whose read sets `edit` overlaps, found through the index.
    fn dirty(&mut self, edit: &ChunkDeps, meta: &awb::Metamodel) -> BTreeSet<Path> {
        let tree = &self.tree;
        let readers = self.readers.get_or_insert_with(|| {
            let mut readers = Readers::default();
            readers.add(&[], tree);
            readers
        });
        readers.dirty(tree, edit, meta)
    }

    /// The element the output of the part at `path` sits under: its loop's
    /// `out_parent`, and for the root, the root element.
    fn parent_of(&self, path: &[usize]) -> NodeId {
        match path.split_last() {
            Some((&i, up)) => {
                let parent = self.tree.at(up);
                parent.loops[parent.loop_of(i)].out_parent
            }
            None => self.root,
        }
    }

    /// Where the part at `path` starts among its parent element's children:
    /// at its first node, else right after the last node of an earlier part
    /// of its loop, else where its loop starts.
    fn start(&self, path: &[usize]) -> usize {
        let Some((&i, up)) = path.split_last() else {
            return 0;
        };
        let parent = self.tree.at(up);
        let l = parent.loop_of(i);
        let el = parent.loops[l].out_parent;
        if let Some(&first) = parent.parts[i].output(el).first() {
            return position(&self.store, el, first);
        }
        let earlier = &parent.parts[parent.loops[l].parts.start..i];
        self.after(earlier, el)
            .unwrap_or_else(|| self.loop_start(up, l))
    }

    /// Right after the last node `parts` have under `el`, if they have one.
    fn after(&self, parts: &[Part], el: NodeId) -> Option<usize> {
        let last = parts
            .iter()
            .rev()
            .find_map(|p| p.output(el).last().copied())?;
        Some(position(&self.store, el, last) + 1)
    }

    /// Where loop `l` of the part at `path` starts among its parent's
    /// children.
    fn loop_start(&self, path: &[usize], l: usize) -> usize {
        let lp = &self.tree.at(path).loops[l];
        match lp.anchor {
            Anchor::Start if lp.out_parent == self.parent_of(path) => self.start(path),
            Anchor::Start => 0,
            Anchor::After(n) => position(&self.store, lp.out_parent, n) + 1,
            Anchor::AfterLoop(k) => self.loop_end(path, k),
        }
    }

    /// Where loop `l` of the part at `path` ends among its parent's children.
    fn loop_end(&self, path: &[usize], l: usize) -> usize {
        let part = self.tree.at(path);
        let lp = &part.loops[l];
        self.after(&part.parts[lp.parts.clone()], lp.out_parent)
            .unwrap_or_else(|| self.loop_start(path, l))
    }

    /// Puts `fresh`, a new run of the part at `path`, in the old one's
    /// place: in the tree, in the output, in the reader index and in the
    /// trouble count. Returns
    /// whether the placeholders' fill can have changed.
    fn replace(&mut self, path: &[usize], mut fresh: Part) -> Result<bool, GenTrouble> {
        let el = self.parent_of(path);
        let at = self.start(path);
        self.stamps += 1;
        fresh.stamp = self.stamps;
        let (&i, up) = path.split_last().expect("the root reads nothing");
        let parent = self.tree.at_mut(up);
        let old = std::mem::replace(&mut parent.parts[i], fresh);
        let new = &parent.parts[i];
        let (old_nodes, new_nodes) = (old.output(el), new.output(el));
        for &n in &old_nodes {
            self.store.detach(n);
        }
        for (k, &n) in new_nodes.iter().enumerate() {
            self.store.insert_child(el, at + k, n).map_err(internal)?;
        }
        // The parent's bytes have a hole only for parts that had output.
        if old_nodes.is_empty() != new_nodes.is_empty() {
            parent.xml = OnceLock::new();
        }
        if let Some(readers) = &mut self.readers {
            readers.remove(path, &old);
            readers.add(path, new);
        }
        let troubles = |p: &Part| p.sum(&|p| p.state.trouble_count);
        self.trouble_count = self.trouble_count + troubles(new) - troubles(&old);
        Ok(old.holds_placeholders()
            || new.holds_placeholders()
            || old.toc() != new.toc()
            || old.visited() != new.visited())
    }

    /// Empties and refills every toc/omissions placeholder from the merged
    /// per-part state, and drops the cached bytes that hold one. Cheap:
    /// proportional to toc size + omitted nodes, not to the document. A
    /// fill inside a definition's content is written wherever its marker
    /// is, so then, or when `defs_moved`, the bytes of every part that
    /// holds marker text are dropped too.
    fn refill_placeholders(
        &mut self,
        inputs: &GenInputs,
        defs_moved: bool,
    ) -> Result<(), GenTrouble> {
        let mut scratch = GenState {
            toc: self.tree.toc().into_iter().cloned().collect(),
            ..GenState::default()
        };
        let (mut held, mut mentioning) = (Vec::new(), Vec::new());
        self.tree.visit(&mut Vec::new(), &mut |path, p| {
            scratch.visited.extend(&p.state.visited);
            scratch.toc_placeholders.extend(&p.state.toc_placeholders);
            scratch
                .omission_placeholders
                .extend(p.state.omission_placeholders.iter().cloned());
            if p.state.holds_placeholders() {
                held.push(path.to_vec());
            } else if p.mentions {
                mentioning.push(path.to_vec());
            }
        });
        let divs = scratch
            .toc_placeholders
            .iter()
            .chain(scratch.omission_placeholders.iter().map(|(d, _)| d));
        let in_defs = divs
            .clone()
            .any(|&d| self.store.ancestors(d).last() != Some(&self.root));
        if defs_moved || in_defs {
            held.extend(mentioning);
        }
        for &div in divs {
            for c in self.store.children(div).to_vec() {
                self.store.detach(c);
            }
        }
        for path in held {
            self.stamps += 1;
            self.tree.at_mut(&path).changed(self.stamps);
        }
        scratch.fill_toc(&mut self.store)?;
        scratch.fill_omissions(&mut self.store, inputs)
    }
}

/// Walks a part's source, from the context its loop `lp` recorded, into a
/// detached holder: a template child with its focus-free loops split into
/// parts, or one iteration of `lp`. Loops that wrote to the holder now
/// write to `lp`'s parent element. The part notes whether its output,
/// its parts' included, holds one of `markers`.
fn run_part(
    inputs: &GenInputs,
    store: &mut Store,
    lp: &Loop,
    source: Source,
    markers: &[String],
) -> Result<Part, GenTrouble> {
    let holder = store.create_element("part-holder").map_err(internal)?;
    let mut state = GenState::default();
    let mut split = Split::default();
    let mut walker = Walker {
        inputs,
        out: store,
        state: &mut state,
        focus: None,
        path: lp.path.clone(),
        section_depth: lp.section_depth,
        split: None,
    };
    match source {
        Source::Child(tpl_node) => {
            walker.split = Some(&mut split);
            walker.walk_node(tpl_node, holder)?;
        }
        Source::Iteration(focus) => {
            let body = walker.for_body(lp.for_el);
            walker.gen_iteration(focus, &body, holder)?;
        }
    }
    let mut out_nodes = store.children(holder).to_vec();
    for &n in &out_nodes {
        store.detach(n);
    }
    for l in &mut split.loops {
        if l.out_parent == holder {
            // A template child that is a `<for>` writes only its
            // iterations: what sits in the holder is theirs.
            l.out_parent = lp.out_parent;
            out_nodes.clear();
        }
    }
    let mut part = Part {
        loops: split.loops,
        parts: split.parts,
        ..Part::new(source, out_nodes, state)
    };
    let out = part.output(lp.out_parent);
    let mut texts = out.iter().flat_map(|&n| texts(store, n));
    part.mentions = texts.any(|t| markers.iter().any(|m| t.contains(m.as_str())));
    Ok(part)
}

/// The position of `child` among `parent`'s children.
fn position(store: &Store, parent: NodeId, child: NodeId) -> usize {
    store
        .children(parent)
        .iter()
        .position(|&c| c == child)
        .expect("a part's output sits under its loop's parent")
}

/// The text of `n` and of every node under it, in document order.
fn texts(store: &Store, n: NodeId) -> impl Iterator<Item = &str> {
    std::iter::once(n)
        .chain(store.descendants_iter(n))
        .filter_map(|n| match store.kind(n) {
            NodeKind::Text(t) => Some(&t[..]),
            _ => None,
        })
}

fn internal(e: xmlstore::XmlError) -> GenTrouble {
    GenTrouble::new(format!("internal output-tree error: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::template::Template;
    use awb::{Metamodel, Model, PropValue, RelRef};
    use proptest::prelude::*;

    fn meta() -> Metamodel {
        awb::workload::it_metamodel()
    }

    fn tiny_model() -> Model {
        let mut m = Model::new();
        let sys = m.add_node("SystemBeingDesigned", "Orion");
        let u1 = m.add_node("user", "alice");
        let u2 = m.add_node("superuser", "root");
        let p = m.add_node("Program", "compiler");
        m.set_prop(p, "language", PropValue::Str("rust".into()));
        let d = m.add_node("Document", "spec");
        m.set_prop(d, "version", PropValue::Str("1.2".into()));
        m.add_relation("has", sys, u1);
        m.add_relation("has", sys, u2);
        m.add_relation("uses", u1, p);
        m.add_relation("likes", u2, p);
        m
    }

    impl IncrementalDoc {
        /// The document written from the store with no cache: the raw
        /// output with the marker definitions applied as it is written.
        fn uncached_xml(&self) -> String {
            let mut xml = String::new();
            self.store
                .write_xml_runs(self.root, &mut xml, &mut self.markers());
            xml
        }

        /// Every filled byte cache that disagrees with an uncached write of
        /// the tree it caches.
        fn stale_caches(&self) -> Vec<String> {
            let fresh = |part: &Part, parent: NodeId| {
                let mut xml = String::new();
                for n in part.output(parent) {
                    self.store.write_xml_runs(n, &mut xml, &mut self.markers());
                }
                xml
            };
            let mut stale = Vec::new();
            self.tree.visit(&mut Vec::new(), &mut |path, part| {
                let Some(cached) = part.xml.get() else {
                    return;
                };
                let mut written = String::new();
                part.write_xml(self.markers(), self.parent_of(path), &mut written);
                let expected = fresh(part, self.parent_of(path));
                if written != expected {
                    stale.push(format!("part {path:?}: {written:?} vs {expected:?}"));
                }
                for (range, i, stamp) in &cached.parts {
                    let inner = &part.parts[*i];
                    let expected = fresh(inner, part.loops[part.loop_of(*i)].out_parent);
                    if inner.stamp == *stamp && cached.bytes[range.clone()] != expected {
                        stale.push(format!("part {path:?} at {i}: {range:?} vs {expected:?}"));
                    }
                }
            });
            stale
        }

        /// The parts whose read sets `edit` overlaps, each tested on its
        /// own: what [`IncrementalDoc::dirty`] finds through the index.
        fn overlapping(&self, edit: &ChunkDeps, meta: &Metamodel) -> BTreeSet<Path> {
            let mut dirty = BTreeSet::new();
            self.tree.visit(&mut Vec::new(), &mut |path, part| {
                if part.state.deps.overlaps(edit, meta) {
                    dirty.insert(path.to_vec());
                }
            });
            dirty
        }
    }

    fn full_xml(template: &Template, model: &Model, meta: &Metamodel) -> String {
        let inputs = GenInputs {
            model,
            meta,
            template,
        };
        super::super::generate(&inputs).unwrap().to_xml()
    }

    /// Asserts the incremental document currently equals a fresh full run.
    fn assert_matches_full(
        doc: &IncrementalDoc,
        template: &Template,
        model: &Model,
        meta: &Metamodel,
    ) {
        assert_eq!(doc.to_xml(), full_xml(template, model, meta));
    }

    /// Asserts the cached serialization equals an uncached write of the
    /// tree it caches, and that a fresh full run. Leaves every cacheable
    /// chunk's cache warm.
    fn assert_coherent(doc: &IncrementalDoc, template: &Template, model: &Model, meta: &Metamodel) {
        let xml = doc.to_xml();
        assert_eq!(xml, doc.uncached_xml(), "cache vs its own tree");
        assert_eq!(xml, full_xml(template, model, meta), "cache vs a full run");
    }

    const RICH_TEMPLATE: &str = r#"<template>
        <table-of-contents/>
        <section heading="Users">
          <for nodes="all.user"><p><label/></p></for>
        </section>
        <section heading="Programs">
          <for nodes="all.Program"><p><value-of property="language" default="n/a"/></p></for>
        </section>
        <awb-table rows="all.user" cols="all.Program" relation="uses" corner="u\p"/>
        <list><query><start type="user"/><sort-by-label/></query></list>
        <marker-content marker="LANG-NOTE"><b><for nodes="all.Program"><value-of property="language" default="?"/></for></b></marker-content>
        <p>Main language: LANG-NOTE.</p>
        <table-of-omissions types="user,Document"/>
    </template>"#;

    /// A marker that is only defined while some program has a non-blank
    /// `banner` (every such program defines it again).
    const BANNER_TEMPLATE: &str = r#"<template>
        <for nodes="all.Program"><if><test><has-property name="banner"/></test>
          <then><marker-content marker="XBANNERX"><b><value-of property="banner"/></b></marker-content></then>
        </if></for>
        <p>Banner: XBANNERX.</p>
    </template>"#;

    #[test]
    fn incremental_generate_matches_full_generate() {
        let meta = meta();
        let m = tiny_model();
        let template = Template::parse(RICH_TEMPLATE).unwrap();
        let inputs = GenInputs {
            model: &m,
            meta: &meta,
            template: &template,
        };
        let doc = IncrementalDoc::generate(&inputs).unwrap();
        assert_matches_full(&doc, &template, &m, &meta);
        assert!(doc.chunk_count() >= 7, "one chunk per top-level child");
    }

    #[test]
    fn localized_edit_reruns_only_dirty_chunks() {
        let meta = meta();
        let mut m = tiny_model();
        let template = Template::parse(RICH_TEMPLATE).unwrap();
        let mut doc = {
            let inputs = GenInputs {
                model: &m,
                meta: &meta,
                template: &template,
            };
            IncrementalDoc::generate(&inputs).unwrap()
        };

        // Edit one program's property: only the Programs section and the
        // marker-content chunk that reads it may re-run. The marker's
        // consumer writes the new content without re-running; the Users
        // section, toc, list and table stay put.
        let p = m.node_by_label("compiler").unwrap();
        m.set_prop(p, "language", PropValue::Str("ocaml".into()));
        let inputs = GenInputs {
            model: &m,
            meta: &meta,
            template: &template,
        };
        let n = doc.apply_edit(&inputs, &EditFootprint::new()).unwrap();
        assert_matches_full(&doc, &template, &m, &meta);
        // Programs section and marker definer. The awb-table lists the
        // compiler as a column but reads only its label, which cannot
        // change, so it stays put with the Users section, toc, list and
        // omissions chunks.
        assert_eq!(n, 2);
        assert!(doc.to_xml().contains("ocaml"));
    }

    #[test]
    fn untouched_edit_reruns_nothing() {
        let meta = meta();
        let mut m = tiny_model();
        let template = Template::parse(RICH_TEMPLATE).unwrap();
        let mut doc = {
            let inputs = GenInputs {
                model: &m,
                meta: &meta,
                template: &template,
            };
            IncrementalDoc::generate(&inputs).unwrap()
        };
        // The spec Document's version is read by no chunk.
        let d = m.node_by_label("spec").unwrap();
        m.set_prop(d, "version", PropValue::Str("2.0".into()));
        let inputs = GenInputs {
            model: &m,
            meta: &meta,
            template: &template,
        };
        let n = doc.apply_edit(&inputs, &EditFootprint::new()).unwrap();
        assert_eq!(n, 0, "no chunk read the spec document's properties");
        assert_matches_full(&doc, &template, &m, &meta);
    }

    #[test]
    fn population_edit_dirties_type_readers_and_refreshes_toc_and_omissions() {
        let meta = meta();
        let mut m = tiny_model();
        // Sections generated per user feed the toc; omissions list users.
        let template = Template::parse(
            r#"<template>
                <table-of-contents/>
                <for nodes="all.user"><section heading="User"><p><label/></p></section></for>
                <for nodes="all.Program"><p><label/></p></for>
                <table-of-omissions types="user,Document"/>
            </template>"#,
        )
        .unwrap();
        let mut doc = {
            let inputs = GenInputs {
                model: &m,
                meta: &meta,
                template: &template,
            };
            IncrementalDoc::generate(&inputs).unwrap()
        };
        m.add_node("user", "bob");
        let inputs = GenInputs {
            model: &m,
            meta: &meta,
            template: &template,
        };
        let n = doc.apply_edit(&inputs, &EditFootprint::new()).unwrap();
        // The all.user loop's chunk re-runs whole: its shell and its three
        // iterations, bob's included. The Program loop stays put.
        assert_eq!(n, 4, "only the all.user loop re-runs");
        assert_matches_full(&doc, &template, &m, &meta);
        assert_eq!(doc.to_xml().matches("class=\"section\"").count(), 3);
    }

    #[test]
    fn subtype_population_edit_dirties_supertype_readers() {
        let meta = meta();
        let mut m = tiny_model();
        let template = Template::parse(
            r#"<template>
                <for nodes="all.user"><p><label/></p></for>
                <for nodes="all.Program"><p><label/></p></for>
            </template>"#,
        )
        .unwrap();
        let mut doc = {
            let inputs = GenInputs {
                model: &m,
                meta: &meta,
                template: &template,
            };
            IncrementalDoc::generate(&inputs).unwrap()
        };
        // superuser is a subtype of user: the all.user loop must re-run,
        // its shell and its three iterations.
        m.add_node("superuser", "admin");
        let inputs = GenInputs {
            model: &m,
            meta: &meta,
            template: &template,
        };
        let n = doc.apply_edit(&inputs, &EditFootprint::new()).unwrap();
        assert_eq!(n, 4);
        assert_matches_full(&doc, &template, &m, &meta);
        assert!(doc.to_xml().contains("admin"));
    }

    #[test]
    fn property_edit_leaves_a_label_scan_alone() {
        let meta = meta();
        let mut m = tiny_model();
        let template = Template::parse(
            r#"<template>
                <for><query><start label="alice"/><follow relation="uses"/></query><p><label/></p></for>
            </template>"#,
        )
        .unwrap();
        let mut doc = IncrementalDoc::generate(&GenInputs {
            model: &m,
            meta: &meta,
            template: &template,
        })
        .unwrap();
        // The scan reads labels, which never change, and the query reads
        // no property: the spec Document's version is read by no chunk.
        let d = m.node_by_label("spec").unwrap();
        m.set_prop(d, "version", PropValue::Str("2.0".into()));
        let inputs = GenInputs {
            model: &m,
            meta: &meta,
            template: &template,
        };
        assert_eq!(doc.apply_edit(&inputs, &EditFootprint::new()).unwrap(), 0);
        assert_matches_full(&doc, &template, &m, &meta);
        // A new node may be one the scan finds: the population changed, and
        // the loop re-runs with its one iteration.
        m.add_node("Document", "errata");
        let inputs = GenInputs {
            model: &m,
            meta: &meta,
            template: &template,
        };
        assert_eq!(doc.apply_edit(&inputs, &EditFootprint::new()).unwrap(), 2);
        assert_matches_full(&doc, &template, &m, &meta);
    }

    #[test]
    fn relation_edit_dirties_table_and_query_chunks() {
        let meta = meta();
        let mut m = tiny_model();
        let template = Template::parse(
            r#"<template>
                <awb-table rows="all.user" cols="all.Program" relation="uses" corner="c"/>
                <for><query><start label="alice"/><follow relation="uses"/></query><p><label/></p></for>
                <for nodes="all.Document"><p><label/></p></for>
            </template>"#,
        )
        .unwrap();
        let mut doc = {
            let inputs = GenInputs {
                model: &m,
                meta: &meta,
                template: &template,
            };
            IncrementalDoc::generate(&inputs).unwrap()
        };
        let root_u = m.node_by_label("root").unwrap();
        let p = m.node_by_label("compiler").unwrap();
        m.add_relation("uses", root_u, p);
        let inputs = GenInputs {
            model: &m,
            meta: &meta,
            template: &template,
        };
        let n = doc.apply_edit(&inputs, &EditFootprint::new()).unwrap();
        // The table, and the query loop with its one iteration.
        assert_eq!(n, 3, "table chunk and query chunk, not the Document loop");
        assert_matches_full(&doc, &template, &m, &meta);
    }

    #[test]
    fn newly_defined_marker_splices_into_clean_chunks() {
        let meta = meta();
        let mut m = tiny_model();
        // The marker definition only exists once the program grows a
        // "banner" property; the consumer chunk is otherwise untouched.
        let template = Template::parse(BANNER_TEMPLATE).unwrap();
        let mut doc = {
            let inputs = GenInputs {
                model: &m,
                meta: &meta,
                template: &template,
            };
            IncrementalDoc::generate(&inputs).unwrap()
        };
        assert!(doc.to_xml().contains("Banner: XBANNERX."));
        let p = m.node_by_label("compiler").unwrap();
        m.set_prop(p, "banner", PropValue::Str("hello".into()));
        let inputs = GenInputs {
            model: &m,
            meta: &meta,
            template: &template,
        };
        doc.apply_edit(&inputs, &EditFootprint::new()).unwrap();
        assert!(
            doc.to_xml().contains("Banner: <b>hello</b>."),
            "{}",
            doc.to_xml()
        );
        assert_matches_full(&doc, &template, &m, &meta);

        // And removing it again brings the literal text back, with no
        // re-run of the consumer.
        m.remove_prop(p, "banner");
        let inputs = GenInputs {
            model: &m,
            meta: &meta,
            template: &template,
        };
        doc.apply_edit(&inputs, &EditFootprint::new()).unwrap();
        assert!(doc.to_xml().contains("Banner: XBANNERX."));
        assert_matches_full(&doc, &template, &m, &meta);
    }

    #[test]
    fn newly_defined_marker_keeps_definition_order() {
        let meta = meta();
        // MA is defined first, and only once a program has a banner. MB's
        // content holds MA's text: a full run applies MA before MB's copy
        // exists, so the copy keeps the text. MC is defined after MA and
        // its text sits in MA's content: a full run replaces it in MA's
        // copy. In the third, MA is defined before MB and again after it:
        // the second MA replaces MA's text in MB's copy, whose consumer
        // consumed no MA.
        for (template, expected) in [
            (
                r#"<template><for nodes="all.Program"><if><test><has-property name="banner"/></test><then><marker-content marker="MA"><b>A</b></marker-content></then></if></for><marker-content marker="MB"><i>MA</i></marker-content><p>MB</p></template>"#,
                "<p><i>MA</i></p>",
            ),
            (
                r#"<template><for nodes="all.Program"><if><test><has-property name="banner"/></test><then><marker-content marker="MA"><b>MC</b></marker-content></then></if></for><marker-content marker="MC"><u>C</u></marker-content><p>MA</p></template>"#,
                "<p><b><u>C</u></b></p>",
            ),
            (
                r#"<template><marker-content marker="MA"><b>A</b></marker-content><marker-content marker="MB"><i>MA</i></marker-content><for nodes="all.Program"><if><test><has-property name="banner"/></test><then><marker-content marker="MA"><u>A2</u></marker-content></then></if></for><p>MB</p></template>"#,
                "<p><i><u>A2</u></i></p>",
            ),
        ] {
            let mut m = tiny_model();
            let template = Template::parse(template).unwrap();
            let mut doc = IncrementalDoc::generate(&GenInputs {
                model: &m,
                meta: &meta,
                template: &template,
            })
            .unwrap();
            let p = m.node_by_label("compiler").unwrap();
            m.set_prop(p, "banner", PropValue::Str("yes".into()));
            doc.apply_edit(
                &GenInputs {
                    model: &m,
                    meta: &meta,
                    template: &template,
                },
                &EditFootprint::new(),
            )
            .unwrap();
            assert!(doc.to_xml().contains(expected), "{}", doc.to_xml());
            assert_matches_full(&doc, &template, &m, &meta);
        }
    }

    #[test]
    fn a_definition_holding_its_own_marker_fails_once_consumed() {
        let meta = meta();
        let m = tiny_model();
        let def = r#"<marker-content marker="LOOP"><b>LOOP again</b></marker-content>"#;
        for (body, fails) in [
            ("<p>no marker here</p>", false),
            ("<p>a LOOP here</p>", true),
            // Found only in the content an earlier definition puts in.
            (
                r#"<marker-content marker="OUTER"><i>LOOP</i></marker-content><p>OUTER</p>"#,
                true,
            ),
        ] {
            let template = Template::parse(&format!("<template>{body}{def}</template>")).unwrap();
            let inputs = GenInputs {
                model: &m,
                meta: &meta,
                template: &template,
            };
            let full = super::super::generate(&inputs);
            let doc = IncrementalDoc::generate(&inputs);
            assert_eq!(full.is_err(), fails, "{body}");
            match doc {
                Ok(doc) => assert_eq!(doc.to_xml(), full.unwrap().to_xml()),
                Err(e) => assert_eq!(e.message, full.unwrap_err().message),
            }
        }
    }

    #[test]
    fn a_marker_found_more_than_10_000_times_fails() {
        let meta = meta();
        let m = tiny_model();
        let def = r#"<marker-content marker="M"><b>x</b></marker-content>"#;
        let outer = |copies: usize| {
            format!(
                r#"<marker-content marker="OUTER"><i>{}</i></marker-content>"#,
                "M ".repeat(copies)
            )
        };
        for (body, fails) in [
            (format!("<p>{}</p>", "M ".repeat(10_000)), false),
            (format!("<p>{}</p>", "M ".repeat(10_001)), true),
            // 100 copies of content holding the marker 101 times.
            (
                format!("{}<p>{}</p>", outer(101), "OUTER ".repeat(100)),
                true,
            ),
        ] {
            let template = Template::parse(&format!("<template>{body}{def}</template>")).unwrap();
            let doc = IncrementalDoc::generate(&GenInputs {
                model: &m,
                meta: &meta,
                template: &template,
            });
            // A full run gives the same, but takes about a minute in a
            // debug build: its pass searches the document from the top
            // for each occurrence.
            match doc {
                Ok(doc) => {
                    assert!(!fails);
                    assert_eq!(doc.to_xml().matches("<b>x</b>").count(), 10_000);
                }
                Err(e) => {
                    assert!(fails);
                    assert!(e
                        .message
                        .starts_with(r#"marker "M" replacement did not terminate"#));
                }
            }
        }
    }

    #[test]
    fn toc_inside_marker_content_follows_refills() {
        let meta = meta();
        let mut m = tiny_model();
        let template = Template::parse(
            r#"<template><marker-content marker="MT"><table-of-contents/></marker-content>
                <p>Contents: MT</p>
                <for nodes="all.Program"><if><test><has-property name="banner"/></test>
                  <then><section heading="Banner"><label/></section></then></if></for></template>"#,
        )
        .unwrap();
        let mut doc = IncrementalDoc::generate(&GenInputs {
            model: &m,
            meta: &meta,
            template: &template,
        })
        .unwrap();
        assert_coherent(&doc, &template, &m, &meta);
        // A new heading refills the toc inside the definition: the
        // paragraph that holds its marker writes the new toc.
        let p = m.node_by_label("compiler").unwrap();
        m.set_prop(p, "banner", PropValue::Str("yes".into()));
        let inputs = GenInputs {
            model: &m,
            meta: &meta,
            template: &template,
        };
        assert_eq!(doc.apply_edit(&inputs, &EditFootprint::new()).unwrap(), 1);
        assert_coherent(&doc, &template, &m, &meta);
        assert!(doc.to_xml().contains("#banner"), "{}", doc.to_xml());
    }

    #[test]
    fn serialized_chunks_follow_every_invalidation_route() {
        let meta = meta();
        let mut m = tiny_model();
        let template = Template::parse(RICH_TEMPLATE).unwrap();
        let mut doc = IncrementalDoc::generate(&GenInputs {
            model: &m,
            meta: &meta,
            template: &template,
        })
        .unwrap();
        assert_coherent(&doc, &template, &m, &meta);

        // A re-run chunk replaces its cache with an empty one, and so does
        // the consumer of the marker whose definition changed.
        let p = m.node_by_label("compiler").unwrap();
        m.set_prop(p, "language", PropValue::Str("ocaml".into()));
        let inputs = GenInputs {
            model: &m,
            meta: &meta,
            template: &template,
        };
        let n = doc.apply_edit(&inputs, &EditFootprint::new()).unwrap();
        assert_eq!(n, 2);
        assert_coherent(&doc, &template, &m, &meta);
        assert!(doc.to_xml().contains("ocaml"));

        // A Document no chunk enumerates re-runs nothing, but joins the
        // omissions table: placeholder chunks are never served from cache.
        m.add_node("Document", "errata");
        let inputs = GenInputs {
            model: &m,
            meta: &meta,
            template: &template,
        };
        let n = doc.apply_edit(&inputs, &EditFootprint::new()).unwrap();
        assert_eq!(n, 0);
        assert_coherent(&doc, &template, &m, &meta);
        assert!(doc.to_xml().contains("errata"));

        // A newly defined marker drops the cache of a clean chunk that
        // holds its text, and so does removing the definition.
        let template = Template::parse(BANNER_TEMPLATE).unwrap();
        let mut doc = IncrementalDoc::generate(&GenInputs {
            model: &m,
            meta: &meta,
            template: &template,
        })
        .unwrap();
        assert_coherent(&doc, &template, &m, &meta);
        m.set_prop(p, "banner", PropValue::Str("hello".into()));
        let inputs = GenInputs {
            model: &m,
            meta: &meta,
            template: &template,
        };
        let n = doc.apply_edit(&inputs, &EditFootprint::new()).unwrap();
        assert_eq!(n, 1, "only the definer re-runs; the consumer is clean");
        assert_coherent(&doc, &template, &m, &meta);
        assert!(doc.to_xml().contains("Banner: <b>hello</b>."));
        m.remove_prop(p, "banner");
        let inputs = GenInputs {
            model: &m,
            meta: &meta,
            template: &template,
        };
        doc.apply_edit(&inputs, &EditFootprint::new()).unwrap();
        assert_coherent(&doc, &template, &m, &meta);
        assert!(doc.to_xml().contains("Banner: XBANNERX."));
    }

    #[test]
    fn caller_footprint_only_adds_chunks() {
        let meta = meta();
        let m = tiny_model();
        let template = Template::parse(RICH_TEMPLATE).unwrap();
        let inputs = GenInputs {
            model: &m,
            meta: &meta,
            template: &template,
        };
        let mut doc = IncrementalDoc::generate(&inputs).unwrap();
        assert_eq!(doc.apply_edit(&inputs, &EditFootprint::new()).unwrap(), 0);
        // The model changed nothing; the caller's node alone dirties the
        // Programs section and the marker definer, whose unchanged
        // definition leaves its consumer clean.
        let mut extra = EditFootprint::new();
        extra.0.nodes.insert(m.node_by_label("compiler").unwrap());
        assert_eq!(doc.apply_edit(&inputs, &extra).unwrap(), 2);
        assert_matches_full(&doc, &template, &m, &meta);
    }

    #[test]
    fn repeated_edits_stay_equivalent() {
        let meta = meta();
        let mut m = tiny_model();
        let template = Template::parse(RICH_TEMPLATE).unwrap();
        let mut doc = {
            let inputs = GenInputs {
                model: &m,
                meta: &meta,
                template: &template,
            };
            IncrementalDoc::generate(&inputs).unwrap()
        };
        for i in 0..5 {
            let p = m.node_by_label("compiler").unwrap();
            m.set_prop(p, "language", PropValue::Str(format!("lang-{i}")));
            m.add_node("user", format!("user-{i}"));
            let inputs = GenInputs {
                model: &m,
                meta: &meta,
                template: &template,
            };
            doc.apply_edit(&inputs, &EditFootprint::new()).unwrap();
            assert_matches_full(&doc, &template, &m, &meta);
        }
    }

    /// The `System Context` document over the 800-node IT model, generated
    /// incrementally.
    fn system_context_n800() -> (Metamodel, Model, Template, IncrementalDoc) {
        let meta = meta();
        let m = awb::workload::it_architecture(awb::workload::ItScale::about(800), 1);
        let template = Template::parse(crate::template::SYSTEM_CONTEXT).unwrap();
        let doc = IncrementalDoc::generate(&GenInputs {
            model: &m,
            meta: &meta,
            template: &template,
        })
        .unwrap();
        (meta, m, template, doc)
    }

    #[test]
    fn property_edit_leaves_the_relation_table_alone() {
        let (meta, mut m, template, mut doc) = system_context_n800();
        // The Deployment table lists every program as a column but reads
        // only its label, and the "Who likes what" list follows `likes`
        // edges and reads only labels: only the Programs section reads the
        // language. The program picked is one a user likes.
        let p = liked_program(&m, &meta);
        m.set_prop(p, "language", PropValue::Str("cobol".into()));
        let inputs = GenInputs {
            model: &m,
            meta: &meta,
            template: &template,
        };
        let n = doc.apply_edit(&inputs, &EditFootprint::new()).unwrap();
        assert_eq!(n, 1);
        assert_matches_full(&doc, &template, &m, &meta);
    }

    /// The top-level parts of System Context that hold the toc and the
    /// omissions placeholders.
    fn placeholder_chunks(doc: &IncrementalDoc) -> Vec<&Part> {
        let held: Vec<&Part> = doc
            .tree
            .parts
            .iter()
            .filter(|c| c.state.holds_placeholders())
            .collect();
        assert_eq!(held.len(), 2, "the toc and the Omissions section");
        held
    }

    #[test]
    fn language_edit_reruns_one_iteration_and_refills_nothing() {
        let (meta, mut m, template, mut doc) = system_context_n800();
        let programs = m.nodes_of_type("Program", &meta);
        assert!(doc.chunk_count() > programs.len(), "one unit per iteration");
        doc.to_xml();
        let p = programs[17];
        m.set_prop(p, "language", PropValue::Str("cobol".into()));
        let inputs = GenInputs {
            model: &m,
            meta: &meta,
            template: &template,
        };
        assert_eq!(doc.apply_edit(&inputs, &EditFootprint::new()).unwrap(), 1);
        // No toc entry, visit or placeholder moved: the toc and omissions
        // keep their bytes.
        for c in placeholder_chunks(&doc) {
            assert!(c.xml.get().is_some(), "a placeholder chunk was refilled");
        }
        assert_coherent(&doc, &template, &m, &meta);
        assert!(doc.to_xml().contains("(cobol)"));
    }

    #[test]
    fn new_program_reruns_the_programs_chunk_and_refills() {
        let (meta, mut m, template, mut doc) = system_context_n800();
        let programs = m.nodes_of_type("Program", &meta).len();
        doc.to_xml();
        let p = m.add_node("Program", "program-new");
        m.set_prop(p, "language", PropValue::Str("xquery".into()));
        let inputs = GenInputs {
            model: &m,
            meta: &meta,
            template: &template,
        };
        // The Programs loop enumerates all.Program: its chunk re-runs whole,
        // the shell and one iteration per program, the new one included.
        // The Deployment table's columns are all.Program too.
        let n = doc.apply_edit(&inputs, &EditFootprint::new()).unwrap();
        assert!(n > programs + 1, "{n} units for {programs} programs");
        for c in placeholder_chunks(&doc) {
            assert!(c.xml.get().is_none(), "an added node refills");
        }
        assert_coherent(&doc, &template, &m, &meta);
        assert!(doc.to_xml().contains("program-new"));
    }

    /// The Deployment table is held once, in its definition: the paragraph
    /// that holds its marker keeps the marker text, and the bytes written
    /// there carry the table.
    #[test]
    fn marker_content_is_held_once() {
        let (meta, m, template, doc) = system_context_n800();
        assert!(doc.store.len() <= 25_000, "{} store slots", doc.store.len());
        assert_matches_full(&doc, &template, &m, &meta);
    }

    /// A long editing session leaves detached output behind, but only what
    /// the edits replaced: one iteration's worth per `language` edit.
    #[test]
    fn store_growth_per_edit_is_one_iteration() {
        let (meta, mut m, template, mut doc) = system_context_n800();
        let programs = m.nodes_of_type("Program", &meta);
        let before = doc.store.len();
        const EDITS: usize = 1000;
        for i in 0..EDITS {
            let p = programs[(i * 7) % programs.len()];
            m.set_prop(p, "language", PropValue::Str(format!("lang-{i}")));
            let inputs = GenInputs {
                model: &m,
                meta: &meta,
                template: &template,
            };
            assert_eq!(doc.apply_edit(&inputs, &EditFootprint::new()).unwrap(), 1);
        }
        let growth = (doc.store.len() - before) / EDITS;
        assert!(growth <= 32, "{growth} store slots per edit");
        assert_matches_full(&doc, &template, &m, &meta);
    }

    /// A program some user likes: the "Who likes what" query visits it.
    fn liked_program(m: &Model, meta: &Metamodel) -> NodeRef {
        m.nodes_of_type("user", meta)
            .into_iter()
            .find_map(|u| m.follow_forward(u, "likes", meta).first().copied())
            .expect("some user likes a program")
    }

    #[test]
    fn new_likes_edge_reruns_the_list() {
        let (meta, mut m, template, mut doc) = system_context_n800();
        let before = doc.to_xml();
        let users = m.nodes_of_type("user", &meta);
        let liked: HashSet<NodeRef> = users
            .iter()
            .flat_map(|&u| m.follow_forward(u, "likes", &meta))
            .collect();
        let p = m
            .nodes_of_type("Program", &meta)
            .into_iter()
            .find(|p| !liked.contains(p))
            .expect("some program nobody likes");
        m.add_relation("likes", users[0], p);
        let inputs = GenInputs {
            model: &m,
            meta: &meta,
            template: &template,
        };
        let n = doc.apply_edit(&inputs, &EditFootprint::new()).unwrap();
        // Only the list, which follows `likes`: the Programs section reads
        // the program's properties, and an edge changes none of them.
        assert_eq!(n, 1);
        assert_ne!(doc.to_xml(), before, "the list gained the program");
        assert_matches_full(&doc, &template, &m, &meta);
    }

    #[test]
    fn property_filter_in_a_list_query_records_the_nodes_it_visited() {
        let meta = meta();
        let mut m = awb::workload::it_architecture(awb::workload::ItScale::about(800), 1);
        // "Who likes what", narrowed to XQuery programs: the filter reads
        // the language of every program the query reaches.
        let source = crate::template::SYSTEM_CONTEXT.replace(
            "<dedup/>",
            r#"<filter-property name="language" equals="xquery"/><dedup/>"#,
        );
        let template = Template::parse(&source).unwrap();
        let mut doc = IncrementalDoc::generate(&GenInputs {
            model: &m,
            meta: &meta,
            template: &template,
        })
        .unwrap();
        // A liked program's language flips into or out of the filter, so
        // the list gains or loses it.
        let p = liked_program(&m, &meta);
        let flipped = match m.prop(p, "language").map(|v| v.to_text()).as_deref() {
            Some("xquery") => "cobol",
            _ => "xquery",
        };
        m.set_prop(p, "language", PropValue::Str(flipped.into()));
        let inputs = GenInputs {
            model: &m,
            meta: &meta,
            template: &template,
        };
        let n = doc.apply_edit(&inputs, &EditFootprint::new()).unwrap();
        assert_eq!(n, 2, "the Programs section and the filtered list");
        assert_matches_full(&doc, &template, &m, &meta);
    }

    #[test]
    fn row_property_edit_leaves_the_relation_table_alone() {
        let (meta, mut m, template, mut doc) = system_context_n800();
        // The table's rows are servers, and its cells read only their `runs`
        // edges; nothing in the template reads a server's properties.
        let server = m.nodes_of_type("Server", &meta)[3];
        m.set_prop(server, "banner", PropValue::Str("rack 7".into()));
        let inputs = GenInputs {
            model: &m,
            meta: &meta,
            template: &template,
        };
        let n = doc.apply_edit(&inputs, &EditFootprint::new()).unwrap();
        assert_eq!(n, 0);
        assert_matches_full(&doc, &template, &m, &meta);
    }

    #[test]
    fn new_runs_edge_reruns_the_deployment_table() {
        let (meta, mut m, template, mut doc) = system_context_n800();
        let before = doc.to_xml();
        let server = m.nodes_of_type("Server", &meta)[3];
        let program = m.nodes_of_type("Program", &meta)[5];
        m.add_relation("runs", server, program);
        let inputs = GenInputs {
            model: &m,
            meta: &meta,
            template: &template,
        };
        // Nothing but the model reports the edge: the relation stamp dirties
        // the table alone. The Programs section reads the program's
        // properties, which the edge leaves as they were.
        let n = doc.apply_edit(&inputs, &EditFootprint::new()).unwrap();
        assert_eq!(n, 1);
        // One cell of the table counts one more edge: the document moved,
        // and it moved to exactly what a full run produces.
        assert_ne!(doc.to_xml(), before);
        assert_matches_full(&doc, &template, &m, &meta);
    }

    #[test]
    fn iteration_after_empty_siblings_splices_in_place() {
        let meta = meta();
        let mut m = tiny_model();
        let template = Template::parse(
            r#"<template><ol><li>first</li>
                <for nodes="all.Thing"><if><test><has-property name="banner"/></test>
                  <then><li><label/></li></then></if></for>
                <li>last</li></ol></template>"#,
        )
        .unwrap();
        let mut doc = IncrementalDoc::generate(&GenInputs {
            model: &m,
            meta: &meta,
            template: &template,
        })
        .unwrap();
        // Every iteration is empty; then the second, the fifth (after two
        // empty siblings) and the first get output, in that order.
        for label in ["alice", "spec", "Orion"] {
            let n = m.node_by_label(label).unwrap();
            m.set_prop(n, "banner", PropValue::Str("b".into()));
            let inputs = GenInputs {
                model: &m,
                meta: &meta,
                template: &template,
            };
            assert_eq!(doc.apply_edit(&inputs, &EditFootprint::new()).unwrap(), 1);
            assert_coherent(&doc, &template, &m, &meta);
        }
        assert!(doc
            .to_xml()
            .contains("<li>first</li><li>Orion</li><li>alice</li><li>spec</li><li>last</li>"));
    }

    /// One random model edit, with node and type picks resolved against
    /// the model as it stands when the edit is applied.
    #[derive(Debug, Clone)]
    enum Edit {
        SetProp(usize, &'static str, &'static str),
        RemoveProp(usize, &'static str),
        AddNode(&'static str),
        AddRelation(&'static str, usize, usize),
        SetRelProp(usize, &'static str),
    }

    const EDIT_PROPS: [&str; 3] = ["language", "version", "banner"];
    const EDIT_VALUES: [&str; 5] = ["xquery", "rust", "", " ", "1.0"];
    const EDIT_TYPES: [&str; 5] = ["user", "superuser", "Program", "Document", "Server"];
    const EDIT_RELATIONS: [&str; 3] = ["uses", "likes", "runs"];

    /// Property edits, the loop's common case, come most often: they are
    /// the ones that re-run single iterations.
    fn edit_strategy() -> impl Strategy<Value = Edit> {
        prop_oneof![
            3 => (
                0usize..1000,
                prop::sample::select(EDIT_PROPS),
                prop::sample::select(EDIT_VALUES)
            )
                .prop_map(|(n, p, v)| Edit::SetProp(n, p, v)),
            2 => (0usize..1000, prop::sample::select(EDIT_PROPS))
                .prop_map(|(n, p)| Edit::RemoveProp(n, p)),
            1 => prop::sample::select(EDIT_TYPES).prop_map(Edit::AddNode),
            1 => (
                prop::sample::select(EDIT_RELATIONS),
                0usize..1000,
                0usize..1000
            )
                .prop_map(|(r, s, t)| Edit::AddRelation(r, s, t)),
            1 => (0usize..1000, prop::sample::select(EDIT_VALUES))
                .prop_map(|(r, v)| Edit::SetRelProp(r, v)),
        ]
    }

    /// Applies `edit` to the model, which records what it changed.
    fn apply_model_edit(m: &mut Model, edit: &Edit) {
        let count = m.node_count();
        let pick = |k: usize| NodeRef((k % count) as u32);
        match *edit {
            Edit::SetProp(k, p, v) => m.set_prop(pick(k), p, PropValue::Str(v.into())),
            Edit::RemoveProp(k, p) => {
                m.remove_prop(pick(k), p);
            }
            Edit::AddNode(ty) => {
                m.add_node(ty, format!("new {ty} {count}"));
            }
            Edit::AddRelation(r, s, t) => {
                m.add_relation(r, pick(s), pick(t));
            }
            Edit::SetRelProp(k, v) => {
                let rel = RelRef((k % m.relation_count()) as u32);
                m.set_rel_prop(rel, "since", PropValue::Str(v.into()));
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Soundness of the read sets and their index, the model's stamps,
        /// the part replacements, the marker rule and the refill rule:
        /// after every step of a random edit sequence
        /// over a random template, reported by the model alone, the
        /// incremental document equals a fresh full run, and every cached
        /// serialization equals the tree it caches.
        #[test]
        fn random_edits_keep_the_document_equal_to_a_full_run(
            template_seed in 0u64..1_000_000,
            seed in 0u64..1000,
            edits in prop::collection::vec(edit_strategy(), 1..16),
        ) {
            let source = crate::testgen::random_template(template_seed);
            let template = Template::parse(&source).unwrap();
            let meta = meta();
            let mut m = awb::workload::it_architecture(awb::workload::ItScale::about(30), seed);
            // Every third node has a banner, so a loop that tests for one
            // has empty and non-empty iterations side by side.
            for n in (0..m.node_count()).step_by(3) {
                m.set_prop(NodeRef(n as u32), "banner", PropValue::Str("b".into()));
            }
            let mut doc = IncrementalDoc::generate(&GenInputs {
                model: &m,
                meta: &meta,
                template: &template,
            })
            .unwrap();
            prop_assert_eq!(doc.to_xml(), full_xml(&template, &m, &meta), "{}", source);
            for (step, edit) in edits.iter().enumerate() {
                apply_model_edit(&mut m, edit);
                // The index finds exactly the parts whose reads overlap,
                // those under another dirty part included: an index that
                // finds too many passes every byte check below.
                let footprint = doc.edit_since(&m, &EditFootprint::new());
                prop_assert_eq!(
                    doc.dirty(&footprint, &meta),
                    doc.overlapping(&footprint, &meta),
                    "step {}: {:?}\n{}",
                    step,
                    edit,
                    source
                );
                let inputs = GenInputs {
                    model: &m,
                    meta: &meta,
                    template: &template,
                };
                doc.apply_edit(&inputs, &EditFootprint::new()).unwrap();
                let xml = doc.to_xml();
                prop_assert_eq!(
                    doc.stale_caches(),
                    Vec::<String>::new(),
                    "step {}: {:?}\n{}",
                    step,
                    edit,
                    source
                );
                prop_assert_eq!(
                    &xml,
                    &doc.uncached_xml(),
                    "cache vs its own tree: step {}: {:?}\n{}",
                    step,
                    edit,
                    source
                );
                prop_assert_eq!(
                    xml,
                    full_xml(&template, &m, &meta),
                    "step {}: {:?}\n{}",
                    step,
                    edit,
                    source
                );
            }
        }
    }
}
