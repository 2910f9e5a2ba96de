//! Incremental regeneration — the paper's edit-a-node, regenerate-the-docs
//! loop without regenerating the whole document.
//!
//! The document splits into **chunks**, one per top-level child of the
//! `<template>` body, and each chunk splits further: every `<for>` the
//! walk reaches with no focus, outside `<marker-content>`, hands each of
//! its iterations over as a **unit** of its own (see
//! [`Walker::units`](super::walk::Walker)). Iterations cannot nest at that
//! level (inside one the focus is set), so the tree is two deep: a chunk's
//! *shell* — everything its walk did outside its loops' iterations, the
//! loops' own reads included — and its units, keyed by focus node. The
//! walker's section depth and focus are chunk-local in a full run too, and
//! each loop records the template path and section depth its iterations
//! start from, so a unit re-run renders the headings and error notes a full
//! run does. While a shell or a unit runs, its [`GenState::deps`] records
//! everything it read from the model that an edit can change — types
//! enumerated, relations followed, and the nodes whose properties it read.
//! A node's label and type are fixed at `awb::Model::add_node`, so reading
//! only those records nothing. The model stamps what each of its mutators
//! changed in the same vocabulary, and [`IncrementalDoc::apply_edit`] reads
//! the changes since the last run from it, finding the units that read an
//! edited node through an index from node to units. A chunk whose shell
//! read what changed re-runs whole (an added node re-runs the loops that
//! enumerate its type, and with them fresh units); otherwise only its
//! units whose reads overlap re-run, spliced in place among their siblings
//! under the loop's output parent. Everything else stays in place.
//!
//! Four pieces of a document are *not* local and are handled explicitly:
//!
//! * the **table of contents** and **table of omissions** are renderings
//!   of merged state (toc entries, visited nodes). Their placeholder
//!   `<div>`s are emptied and refilled only when an edit can have changed
//!   them: a re-run shell or unit held a placeholder or changed its toc
//!   entries or visited set, the edit added a node, or a marker definition
//!   changed or appeared. Otherwise they, and the bytes cached around them,
//!   stay as they were;
//! * **marker replacements** splice one part's generated content into text
//!   found in any part. Each shell and unit records which markers it
//!   consumed; a re-run whose marker definitions changed (content, appeared,
//!   disappeared) drags its consumers into the re-run set, and a *newly
//!   defined* marker is applied to clean parts too (their literal marker
//!   text is still sitting in the output);
//! * the **trouble count** is the sum of per-part counts;
//! * the **serialized bytes**: [`IncrementalDoc::to_xml`] writes the root's
//!   tags around each chunk's cached bytes, which record where each unit's
//!   bytes sit in them. A unit whose output changed since (a re-run, a
//!   splice of marker content, a placeholder refill) gets a fresh stamp and
//!   its own cached bytes, written in place of its old range. A chunk's
//!   cache empties when it re-runs, when its shell is spliced into or
//!   refilled, and when one of its units' output became or stopped being
//!   empty.
//!
//! The correctness bar is exact: after any sequence of `apply_edit` calls,
//! [`IncrementalDoc::to_xml`] must equal what a fresh [`super::generate`]
//! of the current model produces. The equivalence tests below hold it there,
//! over randomly generated templates and edit sequences.

use super::state::{merged, ChunkDeps, GenState, TocEntry};
use super::walk::Walker;
use crate::trouble::GenTrouble;
use crate::GenInputs;
use awb::NodeRef;
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::ops::Range;
use std::sync::OnceLock;
use xmlstore::serializer::Runs;
use xmlstore::{NodeId, NodeKind, Store};

/// Changes a caller reports beside the ones the model stamps itself (see
/// `awb::Model::changes_since`). [`IncrementalDoc::apply_edit`] unions it
/// into what the model reports, so it can only add units to the re-run
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

/// Marker definitions: marker text and its content (detached nodes in the
/// output store, owned by the run that generated them).
type Defs = Vec<(String, Vec<NodeId>)>;

/// The roots of marker content copied into a part's output, each with the
/// marker it replaced. A marker defined later than another must not be
/// applied inside the other's copies: a full run applies markers in
/// definition order, before those copies exist.
type Copies = Vec<(String, NodeId)>;

/// One top-level template child and everything its last run produced.
struct Chunk {
    /// The template node this chunk renders.
    tpl_node: NodeId,
    /// How many children of the `<document>` root its output spans: a
    /// contiguous run of them.
    len: usize,
    /// What the shell's walk did: everything outside its units.
    own: GenState,
    /// Markers whose text the shell contained and had replaced.
    consumed: HashSet<String>,
    /// The marker-content copies spliced into the shell.
    copies: Copies,
    /// Its focus-free loops in walk order; their iterations are `units`.
    loops: Vec<Loop>,
    units: Vec<Unit>,
    /// The output serialized, filled by the first [`IncrementalDoc::to_xml`]
    /// after the shell last changed.
    xml: OnceLock<Shell>,
}

/// A `<for>` the chunk's walk reached with no focus.
struct Loop {
    /// The `<for>` template element.
    for_el: NodeId,
    /// The walker's template path and section depth at the `<for>`.
    path: Vec<String>,
    section_depth: usize,
    /// The element its iterations' output sits under.
    out_parent: NodeId,
    /// Where that output starts when every iteration is empty.
    anchor: Anchor,
    /// Where its iterations' toc entries and marker definitions merge into
    /// the shell's lists.
    toc_at: usize,
    defs_at: usize,
    /// Its iterations: `Chunk::units[units]`.
    units: Range<usize>,
}

/// Where a loop's output starts among its parent's children.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Anchor {
    /// First: at the parent's start, or the chunk's start under the root.
    Start,
    /// Right after this shell node.
    After(NodeId),
    /// Right after the output of this earlier loop of the chunk, which
    /// shares the parent and left nothing between.
    AfterLoop(usize),
}

/// One iteration of a loop and everything its last run produced.
struct Unit {
    focus: NodeRef,
    /// Its output: a contiguous run of children of its loop's parent.
    out_nodes: Vec<NodeId>,
    state: GenState,
    /// Markers whose text its output contained and had replaced.
    consumed: HashSet<String>,
    /// The marker-content copies spliced into its output.
    copies: Copies,
    /// Changes whenever its output does (a fresh stamp per change):
    /// its bytes inside its chunk's [`Shell`] hold while the stamps agree.
    stamp: u64,
    /// The compact serialization of `out_nodes` once the output changed
    /// after the shell was written, filled on first use.
    xml: OnceLock<String>,
}

/// A chunk's serialization, and where each non-empty unit's bytes sit in
/// it, with that unit's stamp when they were written. A unit whose stamp
/// moved since has its own bytes, and they go in that range's place.
struct Shell {
    bytes: String,
    units: Vec<(Range<usize>, usize, u64)>,
}

impl Unit {
    fn new(focus: NodeRef, out_nodes: Vec<NodeId>, state: GenState) -> Unit {
        Unit {
            focus,
            out_nodes,
            state,
            consumed: HashSet::new(),
            copies: Vec::new(),
            stamp: 0,
            xml: OnceLock::new(),
        }
    }

    /// Its output changed: the shell's copy of its bytes no longer holds.
    fn changed(&mut self, stamp: u64) {
        self.stamp = stamp;
        self.xml = OnceLock::new();
    }

    fn bytes(&self, store: &Store) -> &str {
        self.xml.get_or_init(|| {
            let mut xml = String::new();
            for &n in &self.out_nodes {
                store.write_xml(n, &mut xml);
            }
            xml
        })
    }
}

impl Chunk {
    /// Each unit's state with the loop it belongs to, in walk order.
    fn unit_states(&self) -> impl Iterator<Item = (&Loop, &GenState)> {
        self.loops.iter().flat_map(move |l| {
            self.units[l.units.clone()]
                .iter()
                .map(move |u| (l, &u.state))
        })
    }

    /// The shell's state and every unit's.
    fn states(&self) -> impl Iterator<Item = &GenState> {
        std::iter::once(&self.own).chain(self.units.iter().map(|u| &u.state))
    }

    /// Toc entries in full-run order.
    fn toc(&self) -> Vec<&TocEntry> {
        merged(
            &self.own.toc,
            self.unit_states().map(|(l, s)| (l.toc_at, &s.toc[..])),
        )
    }

    /// Marker definitions in full-run order.
    fn defs(&self) -> Vec<&(String, Vec<NodeId>)> {
        merged(
            &self.own.replacements,
            self.unit_states()
                .map(|(l, s)| (l.defs_at, &s.replacements[..])),
        )
    }

    fn visited(&self) -> HashSet<NodeRef> {
        self.states()
            .flat_map(|s| s.visited.iter().copied())
            .collect()
    }

    fn holds_placeholders(&self) -> bool {
        self.states().any(GenState::holds_placeholders)
    }

    fn trouble_count(&self) -> usize {
        self.states().map(|s| s.trouble_count).sum()
    }

    /// The loop unit `u` belongs to.
    fn loop_of(&self, u: usize) -> usize {
        self.loops.partition_point(|l| l.units.end <= u)
    }

    /// Where loop `l`'s output starts among its parent's children; `base`
    /// is where the chunk starts under the root.
    fn loop_start(&self, store: &Store, l: usize, base: usize) -> usize {
        let parent = self.loops[l].out_parent;
        match self.loops[l].anchor {
            // The root is the one output parent with no parent of its own.
            Anchor::Start if store.parent(parent).is_none() => base,
            Anchor::Start => 0,
            Anchor::After(n) => position(store, parent, n) + 1,
            Anchor::AfterLoop(k) => self.loop_end(store, k, base),
        }
    }

    /// Where loop `l`'s output ends among its parent's children.
    fn loop_end(&self, store: &Store, l: usize, base: usize) -> usize {
        let range = self.loops[l].units.clone();
        match self.units[range]
            .iter()
            .rev()
            .find_map(|u| u.out_nodes.last())
        {
            Some(&last) => position(store, self.loops[l].out_parent, last) + 1,
            None => self.loop_start(store, l, base),
        }
    }

    /// Where unit `u` of loop `l` starts among its parent's children.
    fn unit_start(&self, store: &Store, l: usize, u: usize, base: usize) -> usize {
        let parent = self.loops[l].out_parent;
        if let Some(&first) = self.units[u].out_nodes.first() {
            return position(store, parent, first);
        }
        let earlier = self.loops[l].units.start..u;
        match self.units[earlier]
            .iter()
            .rev()
            .find_map(|u| u.out_nodes.last())
        {
            Some(&last) => position(store, parent, last) + 1,
            None => self.loop_start(store, l, base),
        }
    }

    /// Serializes the chunk's output, `top` (children of the root),
    /// noting where each non-empty unit's bytes went.
    fn shell(&self, store: &Store, top: &[NodeId]) -> Shell {
        let mut runs = UnitRuns {
            chunk: self,
            next: 0,
            open: 0,
            found: Vec::new(),
        };
        let mut bytes = String::new();
        let mut i = 0;
        while i < top.len() {
            // Units under the root are runs of `top` itself.
            let k = runs.starts(top[i]);
            let start = bytes.len();
            for &n in &top[i..i + k.max(1)] {
                store.write_xml_runs(n, &mut bytes, &mut runs);
            }
            if k > 0 {
                runs.ended(start..bytes.len());
            }
            i += k.max(1);
        }
        debug_assert_eq!(
            runs.found.len(),
            self.units
                .iter()
                .filter(|u| !u.out_nodes.is_empty())
                .count(),
            "units sit in document order"
        );
        Shell {
            bytes,
            units: runs.found,
        }
    }

    /// Appends the chunk's bytes to `out`: the shell, with the bytes of
    /// each unit that changed since it was written in place of the old.
    fn write_xml(&self, store: &Store, top: &[NodeId], out: &mut String) {
        let shell = self.xml.get_or_init(|| self.shell(store, top));
        let mut at = 0;
        for (range, u, stamp) in &shell.units {
            let unit = &self.units[*u];
            if unit.stamp != *stamp {
                out.push_str(&shell.bytes[at..range.start]);
                out.push_str(unit.bytes(store));
                at = range.end;
            }
        }
        out.push_str(&shell.bytes[at..]);
    }
}

/// Locates a chunk's units in its serialization ([`Chunk::shell`]). Units
/// are listed in walk order, which is the document order of their output,
/// so the next unit with output is the only one that can start.
struct UnitRuns<'c> {
    chunk: &'c Chunk,
    /// The unit to look for next, and the one whose run started last.
    next: usize,
    open: usize,
    found: Vec<(Range<usize>, usize, u64)>,
}

impl Runs for UnitRuns<'_> {
    fn starts(&mut self, node: NodeId) -> usize {
        let units = &self.chunk.units;
        while self.next < units.len() && units[self.next].out_nodes.is_empty() {
            self.next += 1;
        }
        match units.get(self.next) {
            Some(u) if u.out_nodes[0] == node => {
                self.open = self.next;
                self.next += 1;
                u.out_nodes.len()
            }
            _ => 0,
        }
    }

    fn ended(&mut self, bytes: Range<usize>) {
        let u = self.open;
        self.found.push((bytes, u, self.chunk.units[u].stamp));
    }
}

/// A chunk walk's loops and iterations, collected through
/// [`Walker::units`].
#[derive(Default)]
pub(super) struct Split {
    loops: Vec<Loop>,
    units: Vec<Unit>,
    /// Per loop, where its output ended among its parent's children.
    ends: Vec<usize>,
}

impl Walker<'_, '_> {
    /// Runs a `<for>` the walk reached with no focus, outside
    /// `<marker-content>`: each iteration runs on a fresh state and joins
    /// `split` as a unit, and the loop records the context a re-run starts
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
        let first = split.units.len();
        split.loops.push(Loop {
            for_el,
            path: self.path.clone(),
            section_depth: self.section_depth,
            out_parent,
            anchor,
            toc_at: self.state.toc.len(),
            defs_at: self.state.replacements.len(),
            units: first..first + nodes.len(),
        });
        let outer = std::mem::take(&mut *self.state);
        for node in nodes {
            let out_nodes = self.gen_iteration(node, body, out_parent);
            let state = std::mem::take(&mut *self.state);
            match out_nodes {
                Ok(out_nodes) => split.units.push(Unit::new(node, out_nodes, state)),
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

    /// Runs one iteration of loop `l` again, with `focus` in focus,
    /// appending its output to `out_parent`.
    fn rerun_iteration(
        &mut self,
        l: &Loop,
        focus: NodeRef,
        out_parent: NodeId,
    ) -> Result<Vec<NodeId>, GenTrouble> {
        let body = self.for_body(l.for_el);
        self.gen_iteration(focus, &body, out_parent)
    }
}

/// Which units read each node's properties, so that an edit finds its
/// dirty units without testing every unit's read set: the answer
/// `ChunkDeps::overlaps` gives, unit by unit.
#[derive(Default)]
struct Readers {
    /// (chunk, unit) pairs by a node whose properties they read.
    by_node: HashMap<NodeRef, Vec<(usize, usize)>>,
    /// Units that read types, relations or the whole population too:
    /// these are tested one by one.
    others: BTreeSet<(usize, usize)>,
}

impl Readers {
    fn of(chunks: &[Chunk]) -> Readers {
        let mut readers = Readers::default();
        for (ci, c) in chunks.iter().enumerate() {
            readers.add_chunk(ci, c);
        }
        readers
    }

    fn add_chunk(&mut self, ci: usize, c: &Chunk) {
        for (u, unit) in c.units.iter().enumerate() {
            self.add(ci, u, &unit.state.deps);
        }
    }

    fn add(&mut self, ci: usize, u: usize, deps: &ChunkDeps) {
        for &n in &deps.nodes {
            self.by_node.entry(n).or_default().push((ci, u));
        }
        if deps.any_node || !deps.types.is_empty() || !deps.relations.is_empty() {
            self.others.insert((ci, u));
        }
    }

    fn remove(&mut self, ci: usize, u: usize, deps: &ChunkDeps) {
        for n in &deps.nodes {
            if let Some(units) = self.by_node.get_mut(n) {
                units.retain(|&k| k != (ci, u));
            }
        }
        self.others.remove(&(ci, u));
    }

    fn remove_chunk(&mut self, ci: usize) {
        for units in self.by_node.values_mut() {
            units.retain(|&(c, _)| c != ci);
        }
        self.others.retain(|&(c, _)| c != ci);
    }

    /// The units whose read sets an edit with footprint `edit` overlaps.
    fn dirty<'r>(
        &'r self,
        chunks: &'r [Chunk],
        edit: &'r ChunkDeps,
        meta: &'r awb::Metamodel,
    ) -> impl Iterator<Item = (usize, usize)> + 'r {
        let by_node = edit
            .nodes
            .iter()
            .filter_map(|n| self.by_node.get(n))
            .flatten()
            .copied();
        let others = self
            .others
            .iter()
            .copied()
            .filter(|&(ci, u)| chunks[ci].units[u].state.deps.overlaps(edit, meta));
        by_node.chain(others)
    }
}

/// A generated document that can absorb model edits by re-running only the
/// units the edit can have changed.
pub struct IncrementalDoc {
    /// The output tree lives in its own store, like [`super::NativeOutput`].
    pub store: Store,
    /// The `<document>` root element.
    pub root: NodeId,
    /// Total per-item troubles across all chunks, as of the last run.
    pub trouble_count: usize,
    chunks: Vec<Chunk>,
    /// The model version the chunks were last generated against.
    version: u64,
    /// The last stamp handed to a unit whose output changed.
    stamps: u64,
    /// Built by the first edit.
    readers: Option<Readers>,
}

impl IncrementalDoc {
    /// Generates the full document once, recording per-unit read sets.
    /// Output is identical to [`super::generate`] on the same inputs.
    pub fn generate(inputs: &GenInputs) -> Result<IncrementalDoc, GenTrouble> {
        let mut store = Store::new();
        let root = store.create_element(ROOT_NAME).map_err(internal)?;
        let tpl_children = inputs
            .template
            .store()
            .children(inputs.template.root())
            .to_vec();
        let mut chunks = Vec::with_capacity(tpl_children.len());
        for tpl_node in tpl_children {
            let (chunk, out_nodes) = run_chunk(inputs, &mut store, tpl_node, root)?;
            for n in out_nodes {
                store.append_child(root, n).map_err(internal)?;
            }
            chunks.push(chunk);
        }
        let mut doc = IncrementalDoc {
            store,
            root,
            trouble_count: 0,
            chunks,
            version: inputs.model.version(),
            stamps: 0,
            readers: None,
        };
        let replacements = doc.replacements();
        for ci in 0..doc.chunks.len() {
            doc.splice_chunk(ci, &replacements)?;
        }
        doc.refill_placeholders(inputs)?;
        doc.trouble_count = doc.chunks.iter().map(Chunk::trouble_count).sum();
        Ok(doc)
    }

    /// Re-runs exactly the units the model's changes since the last run can
    /// have changed (plus any `footprint` adds, plus consumers of changed
    /// markers), splices their fresh output in place, and refills the
    /// toc/omissions placeholders when the edit can have changed them. A
    /// chunk whose shell is dirty re-runs whole. The *model edit itself
    /// must already have been applied* to `inputs.model`, the model this
    /// document was generated from. The metamodel and the template carry no
    /// version, so they must be the ones [`Self::generate`] got. Returns how
    /// many units were re-run: a whole chunk counts its shell and each of
    /// its fresh iterations.
    pub fn apply_edit(
        &mut self,
        inputs: &GenInputs,
        footprint: &EditFootprint,
    ) -> Result<usize, GenTrouble> {
        let meta = inputs.meta;
        let model = inputs.model;
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

        // (chunk, None) is a chunk's shell, and with it the whole chunk;
        // (chunk, Some(u)) one of its units.
        let mut dirty: BTreeSet<(usize, Option<usize>)> = BTreeSet::new();
        for (ci, c) in self.chunks.iter().enumerate() {
            if c.own.deps.overlaps(&edit, meta) {
                dirty.insert((ci, None));
            }
        }
        let readers = self
            .readers
            .get_or_insert_with(|| Readers::of(&self.chunks));
        for (ci, u) in readers.dirty(&self.chunks, &edit, meta) {
            if !dirty.contains(&(ci, None)) {
                dirty.insert((ci, Some(u)));
            }
        }

        // Regenerate, then pull in consumers of any marker whose definition
        // changed; those regenerations can change markers too, so iterate to
        // a fixpoint (bounded by the unit count).
        let mut chunk_runs: BTreeMap<usize, (Chunk, Vec<NodeId>)> = BTreeMap::new();
        let mut unit_runs: BTreeMap<(usize, usize), Unit> = BTreeMap::new();
        let mut markers_changed = false;
        loop {
            let pending: Vec<(usize, Option<usize>)> = dirty
                .iter()
                .copied()
                .filter(|&(ci, u)| match u {
                    None => !chunk_runs.contains_key(&ci),
                    Some(u) => !dirty.contains(&(ci, None)) && !unit_runs.contains_key(&(ci, u)),
                })
                .collect();
            if pending.is_empty() {
                break;
            }
            let mut changed_markers: HashSet<String> = HashSet::new();
            for (ci, u) in pending {
                let c = &self.chunks[ci];
                let old_sig;
                let new_sig;
                match u {
                    None => {
                        let run = run_chunk(inputs, &mut self.store, c.tpl_node, self.root)?;
                        old_sig = def_signature(&self.store, c.defs());
                        new_sig = def_signature(&self.store, run.0.defs());
                        chunk_runs.insert(ci, run);
                    }
                    Some(u) => {
                        let l = &c.loops[c.loop_of(u)];
                        let run = run_unit(inputs, &mut self.store, l, c.units[u].focus)?;
                        old_sig = def_signature(&self.store, &c.units[u].state.replacements);
                        new_sig = def_signature(&self.store, &run.state.replacements);
                        unit_runs.insert((ci, u), run);
                    }
                }
                if old_sig != new_sig {
                    changed_markers.extend(old_sig.into_iter().chain(new_sig).map(|(m, _)| m));
                }
            }
            if !changed_markers.is_empty() {
                markers_changed = true;
                let consumes = |consumed: &HashSet<String>| {
                    consumed.iter().any(|m| changed_markers.contains(m))
                };
                for (ci, c) in self.chunks.iter().enumerate() {
                    if consumes(&c.consumed) {
                        dirty.insert((ci, None));
                    }
                    for (u, unit) in c.units.iter().enumerate() {
                        if consumes(&unit.consumed) {
                            dirty.insert((ci, Some(u)));
                        }
                    }
                }
            }
        }
        // A chunk re-run regenerated its units too.
        unit_runs.retain(|(ci, _), _| !chunk_runs.contains_key(ci));
        // Only a changed definition can add or drop a marker name.
        let old_marker_names: HashSet<String> = match markers_changed {
            true => self.replacements().into_iter().map(|(m, _)| m).collect(),
            false => HashSet::new(),
        };

        // Splice: old output out, fresh output in at the same place. A
        // re-run whose placeholders, toc entries or visits can differ
        // calls for a refill.
        let mut refill = !edit.types.is_empty();
        let mut reran = 0;
        let rerun_chunks: Vec<usize> = chunk_runs.keys().copied().collect();
        for (ci, (chunk, out_nodes)) in chunk_runs {
            let at = self.chunk_start(ci);
            let old = &self.chunks[ci];
            let old_nodes = self.store.children(self.root)[at..at + old.len].to_vec();
            for n in old_nodes {
                self.store.detach(n);
            }
            for (k, &n) in out_nodes.iter().enumerate() {
                self.store
                    .insert_child(self.root, at + k, n)
                    .map_err(internal)?;
            }
            refill |= old.holds_placeholders()
                || chunk.holds_placeholders()
                || old.toc() != chunk.toc()
                || old.visited() != chunk.visited();
            reran += 1 + chunk.units.len();
            if let Some(readers) = &mut self.readers {
                readers.remove_chunk(ci);
                readers.add_chunk(ci, &chunk);
            }
            self.chunks[ci] = chunk;
        }
        let rerun_units: Vec<(usize, usize)> = unit_runs.keys().copied().collect();
        for ((ci, u), mut unit) in unit_runs {
            self.stamps += 1;
            unit.stamp = self.stamps;
            let base = self.chunk_start(ci);
            let c = &mut self.chunks[ci];
            let l = c.loop_of(u);
            let parent = c.loops[l].out_parent;
            let at = c.unit_start(&self.store, l, u, base);
            let old = std::mem::replace(&mut c.units[u], unit);
            let new = &c.units[u];
            for &n in &old.out_nodes {
                self.store.detach(n);
            }
            for (k, &n) in new.out_nodes.iter().enumerate() {
                self.store
                    .insert_child(parent, at + k, n)
                    .map_err(internal)?;
            }
            if parent == self.root {
                c.len = c.len + new.out_nodes.len() - old.out_nodes.len();
            }
            // The shell has a hole only for units that had output.
            if old.out_nodes.is_empty() != new.out_nodes.is_empty() {
                c.xml = OnceLock::new();
            }
            refill |= old.state.holds_placeholders()
                || new.state.holds_placeholders()
                || old.state.toc != new.state.toc
                || old.state.visited != new.state.visited;
            if let Some(readers) = &mut self.readers {
                readers.remove(ci, u, &old.state.deps);
                readers.add(ci, u, &new.state.deps);
            }
            reran += 1;
        }

        // Markers. Re-run parts carry raw marker text and get the full
        // replacement list. Clean parts need the markers from the first one
        // this edit newly defined onward: an earlier marker's text was
        // consumed — or proven absent — on a previous pass, while a later
        // one's may sit in the new copies, where a full run replaces it.
        // Each marker skips the copies of markers defined after it.
        let replacements = self.replacements();
        let first_new = replacements
            .iter()
            .position(|(m, _)| markers_changed && !old_marker_names.contains(m))
            .unwrap_or(replacements.len());
        let for_clean: Defs = replacements[first_new..].to_vec();
        for &(ci, u) in &rerun_units {
            self.splice_unit(ci, u, &replacements)?;
        }
        for ci in 0..self.chunks.len() {
            let whole = rerun_chunks.contains(&ci);
            self.splice_chunk(ci, if whole { &replacements } else { &for_clean })?;
        }

        if refill || markers_changed {
            self.refill_placeholders(inputs)?;
        }
        self.trouble_count = self.chunks.iter().map(Chunk::trouble_count).sum();
        self.version = model.version();
        Ok(reran)
    }

    /// Compact XML of the generated document: the root's tags around each
    /// chunk's shell bytes and its units' bytes, each serialized once per
    /// change of that output. Edits made through [`Self::store`] directly
    /// rather than [`Self::apply_edit`] are not seen by the caches;
    /// [`Self::to_pretty_xml`] reads the store itself.
    pub fn to_xml(&self) -> String {
        if self.chunks.iter().all(|c| c.len == 0) {
            return self.store.to_xml(self.root);
        }
        let top = self.store.children(self.root);
        let mut out = format!("<{ROOT_NAME}>");
        let mut start = 0;
        for c in &self.chunks {
            c.write_xml(&self.store, &top[start..start + c.len], &mut out);
            start += c.len;
        }
        out.push_str(&format!("</{ROOT_NAME}>"));
        out
    }

    /// Pretty XML of the generated document.
    pub fn to_pretty_xml(&self) -> String {
        self.store.to_pretty_xml(self.root)
    }

    /// How many units the document splits into (diagnostic/bench use): one
    /// per chunk shell and one per iteration of a focus-free loop.
    pub fn chunk_count(&self) -> usize {
        self.chunks.iter().map(|c| 1 + c.units.len()).sum()
    }

    /// Where chunk `ci`'s output starts among the root's children.
    fn chunk_start(&self, ci: usize) -> usize {
        self.chunks[..ci].iter().map(|c| c.len).sum()
    }

    /// All marker definitions in the order a full run's single `GenState`
    /// would have accumulated them in.
    fn replacements(&self) -> Defs {
        self.chunks
            .iter()
            .flat_map(|c| c.defs().into_iter().cloned())
            .collect()
    }

    /// Splices `replacements` into chunk `ci`: its shell and every unit.
    fn splice_chunk(&mut self, ci: usize, replacements: &Defs) -> Result<(), GenTrouble> {
        // Most chunks hold no marker text: one scan, as in a full run,
        // settles that before any part is scanned on its own.
        let start = self.chunk_start(ci);
        let top = &self.store.children(self.root)[start..start + self.chunks[ci].len];
        let mentions = |&n: &NodeId| {
            replacements
                .iter()
                .any(|(m, _)| self.store.find_text(n, m).is_some())
        };
        if !top.iter().any(mentions) {
            return Ok(());
        }
        self.splice_shell(ci, replacements)?;
        for u in 0..self.chunks[ci].units.len() {
            self.splice_unit(ci, u, replacements)?;
        }
        Ok(())
    }

    /// Splices `replacements` into chunk `ci`'s shell, leaving its units'
    /// output to [`Self::splice_unit`].
    fn splice_shell(&mut self, ci: usize, replacements: &Defs) -> Result<(), GenTrouble> {
        let start = self.chunk_start(ci);
        let c = &mut self.chunks[ci];
        let mut nodes = self.store.children(self.root)[start..start + c.len].to_vec();
        let units: HashSet<NodeId> = c
            .units
            .iter()
            .flat_map(|u| u.out_nodes.iter().copied())
            .collect();
        let loops = &mut c.loops;
        // A loop that starts right after a split text starts after its tail.
        let mut moved_anchor = |text: NodeId, tail: NodeId| {
            for l in loops.iter_mut() {
                if l.anchor == Anchor::After(text) {
                    l.anchor = Anchor::After(tail);
                }
            }
        };
        let spliced = splice_markers(
            &mut self.store,
            &mut nodes,
            replacements,
            &mut c.consumed,
            &mut c.copies,
            &units,
            &mut moved_anchor,
        )?;
        if spliced {
            c.len = nodes.len();
            c.xml = OnceLock::new();
        }
        Ok(())
    }

    /// Splices `replacements` into unit `u` of chunk `ci`.
    fn splice_unit(&mut self, ci: usize, u: usize, replacements: &Defs) -> Result<(), GenTrouble> {
        if replacements.is_empty() {
            return Ok(());
        }
        let c = &mut self.chunks[ci];
        let under_root = c.loops[c.loop_of(u)].out_parent == self.root;
        let unit = &mut c.units[u];
        let before = unit.out_nodes.len();
        let spliced = splice_markers(
            &mut self.store,
            &mut unit.out_nodes,
            replacements,
            &mut unit.consumed,
            &mut unit.copies,
            &HashSet::new(),
            &mut |_, _| {},
        )?;
        if spliced {
            self.stamps += 1;
            unit.changed(self.stamps);
            if under_root {
                c.len += unit.out_nodes.len() - before;
            }
        }
        Ok(())
    }

    /// Empties and refills every toc/omissions placeholder from the merged
    /// per-part state, and drops the cached bytes that hold one. Cheap:
    /// proportional to toc size + omitted nodes, not to the document.
    fn refill_placeholders(&mut self, inputs: &GenInputs) -> Result<(), GenTrouble> {
        let mut scratch = GenState::default();
        for c in &mut self.chunks {
            scratch.toc.extend(c.toc().into_iter().cloned());
            for s in c.states() {
                scratch.visited.extend(s.visited.iter().copied());
                scratch
                    .toc_placeholders
                    .extend(s.toc_placeholders.iter().copied());
                scratch
                    .omission_placeholders
                    .extend(s.omission_placeholders.iter().cloned());
            }
            if c.own.holds_placeholders() {
                c.xml = OnceLock::new();
            }
            for u in &mut c.units {
                if u.state.holds_placeholders() {
                    self.stamps += 1;
                    u.changed(self.stamps);
                }
            }
        }
        for &div in &scratch.toc_placeholders {
            clear_children(&mut self.store, div);
        }
        for i in 0..scratch.omission_placeholders.len() {
            let div = scratch.omission_placeholders[i].0;
            clear_children(&mut self.store, div);
        }
        scratch.fill_toc(&mut self.store)?;
        scratch.fill_omissions(&mut self.store, inputs)?;
        // A full run applies markers *after* the fill passes, so marker text
        // inside a heading or an omission label gets spliced there too. The
        // fills are rebuilt whenever a definition changes, so consumption is
        // not recorded.
        let replacements = self.replacements();
        if !replacements.is_empty() {
            let (mut consumed, mut copies) = (HashSet::new(), Vec::new());
            let divs: Vec<NodeId> = scratch
                .toc_placeholders
                .iter()
                .copied()
                .chain(scratch.omission_placeholders.iter().map(|(d, _)| *d))
                .collect();
            for div in divs {
                let mut nodes = vec![div];
                splice_markers(
                    &mut self.store,
                    &mut nodes,
                    &replacements,
                    &mut consumed,
                    &mut copies,
                    &HashSet::new(),
                    &mut |_, _| {},
                )?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
impl IncrementalDoc {
    /// Every filled byte cache that disagrees with the tree it caches.
    fn stale_caches(&self) -> Vec<String> {
        let mut stale = Vec::new();
        let top = self.store.children(self.root);
        let mut start = 0;
        for (ci, c) in self.chunks.iter().enumerate() {
            let top = &top[start..start + c.len];
            start += c.len;
            let mut fresh = String::new();
            for &n in top {
                self.store.write_xml(n, &mut fresh);
            }
            let mut cached = String::new();
            c.write_xml(&self.store, top, &mut cached);
            if cached != fresh {
                stale.push(format!("chunk {ci}: {cached:?} vs {fresh:?}"));
            }
            let shell = c.xml.get().expect("written above");
            for (u, unit) in c.units.iter().enumerate() {
                let mut fresh = String::new();
                for &n in &unit.out_nodes {
                    self.store.write_xml(n, &mut fresh);
                }
                let in_shell = shell
                    .units
                    .iter()
                    .find(|(_, v, stamp)| *v == u && *stamp == unit.stamp)
                    .map(|(range, _, _)| &shell.bytes[range.clone()]);
                for cached in in_shell.into_iter().chain(unit.xml.get().map(|s| &s[..])) {
                    if cached != fresh {
                        stale.push(format!("chunk {ci} unit {u}: {cached:?} vs {fresh:?}"));
                    }
                }
            }
        }
        stale
    }
}

/// Walks one top-level template child into a detached holder, its
/// focus-free loops split into units. Returns the chunk and its output
/// nodes, detached; loops that wrote to the holder now write to `root`.
fn run_chunk(
    inputs: &GenInputs,
    store: &mut Store,
    tpl_node: NodeId,
    root: NodeId,
) -> Result<(Chunk, Vec<NodeId>), GenTrouble> {
    let holder = store.create_element("chunk-holder").map_err(internal)?;
    let mut own = GenState::default();
    let mut split = Split::default();
    Walker {
        inputs,
        out: store,
        state: &mut own,
        focus: None,
        path: vec!["template".to_string()],
        section_depth: 0,
        units: Some(&mut split),
    }
    .walk_node(tpl_node, holder)?;
    let out_nodes = store.children(holder).to_vec();
    for &n in &out_nodes {
        store.detach(n);
    }
    for l in &mut split.loops {
        if l.out_parent == holder {
            l.out_parent = root;
        }
    }
    let chunk = Chunk {
        tpl_node,
        len: out_nodes.len(),
        own,
        consumed: HashSet::new(),
        copies: Vec::new(),
        loops: split.loops,
        units: split.units,
        xml: OnceLock::new(),
    };
    Ok((chunk, out_nodes))
}

/// Runs one iteration of loop `l` again, with `focus` in focus, from the
/// context the loop recorded, into a detached holder.
fn run_unit(
    inputs: &GenInputs,
    store: &mut Store,
    l: &Loop,
    focus: NodeRef,
) -> Result<Unit, GenTrouble> {
    let holder = store.create_element("unit-holder").map_err(internal)?;
    let mut state = GenState::default();
    let out_nodes = Walker {
        inputs,
        out: store,
        state: &mut state,
        focus: None,
        path: l.path.clone(),
        section_depth: l.section_depth,
        units: None,
    }
    .rerun_iteration(l, focus, holder)?;
    for &n in &out_nodes {
        store.detach(n);
    }
    Ok(Unit::new(focus, out_nodes, state))
}

/// The position of `child` among `parent`'s children.
fn position(store: &Store, parent: NodeId, child: NodeId) -> usize {
    store
        .children(parent)
        .iter()
        .position(|&c| c == child)
        .expect("a unit's output sits under its loop's parent")
}

/// A comparable rendering of marker definitions: marker names in order
/// with their content serialized. Two runs with equal signatures splice
/// identically into consumers.
fn def_signature<'d>(
    store: &Store,
    defs: impl IntoIterator<Item = &'d (String, Vec<NodeId>)>,
) -> Vec<(String, String)> {
    defs.into_iter()
        .map(|(m, content)| {
            let xml: String = content.iter().map(|&n| store.to_xml(n)).collect();
            (m.clone(), xml)
        })
        .collect()
}

fn clear_children(store: &mut Store, el: NodeId) {
    for c in store.children(el).to_vec() {
        store.detach(c);
    }
}

/// The first text node under `scope`, in document order, that contains
/// `needle`, outside the subtrees rooted at `skip`.
fn find_text_outside(
    store: &Store,
    scope: NodeId,
    needle: &str,
    skip: &HashSet<NodeId>,
) -> Option<(NodeId, usize)> {
    if skip.is_empty() {
        return store.find_text(scope, needle);
    }
    let mut stack = vec![scope];
    while let Some(n) = stack.pop() {
        if skip.contains(&n) {
            continue;
        }
        if let NodeKind::Text(t) = store.kind(n) {
            if let Some(offset) = t.find(needle) {
                return Some((n, offset));
            }
        }
        stack.extend(store.children(n).iter().rev());
    }
    None
}

/// Applies marker replacements to one part's output, a run of siblings,
/// in definition order — the same per-marker scan-splice loop a full run
/// applies to the whole document, restricted to these subtrees less the
/// ones rooted at `skip`, and for each marker less the part's `copies` of
/// markers after it in `replacements` (a tail of the definition order).
/// Every copy spliced is added to `copies`. When a top-level text node
/// splits, the spliced copies and the tail become new output nodes of the
/// part (they sit between its other nodes under the same parent).
/// `split(text, tail)` hears of every split. Returns whether anything was
/// spliced.
fn splice_markers(
    store: &mut Store,
    out_nodes: &mut Vec<NodeId>,
    replacements: &Defs,
    consumed: &mut HashSet<String>,
    copies: &mut Copies,
    skip: &HashSet<NodeId>,
    split: &mut dyn FnMut(NodeId, NodeId),
) -> Result<bool, GenTrouble> {
    let mut spliced = false;
    for (j, (marker, content)) in replacements.iter().enumerate() {
        let later = &replacements[j + 1..];
        let later_copies: Vec<NodeId> = copies
            .iter()
            .filter(|(m, _)| later.iter().any(|(l, _)| l == m))
            .map(|&(_, root)| root)
            .collect();
        let with_later: HashSet<NodeId>;
        let skip = if later_copies.is_empty() {
            skip
        } else {
            with_later = skip.iter().copied().chain(later_copies).collect();
            &with_later
        };
        let mut guard = 0usize;
        let mut i = 0usize;
        while i < out_nodes.len() {
            let node = out_nodes[i];
            let found = match skip.contains(&node) {
                true => None,
                false => find_text_outside(store, node, marker, skip),
            };
            let Some((text_node, offset)) = found else {
                i += 1;
                continue;
            };
            guard += 1;
            if guard > 10_000 {
                return Err(GenTrouble::new(format!(
                    "marker {marker:?} replacement did not terminate (does the replacement contain the marker?)"
                )));
            }
            spliced = true;
            consumed.insert(marker.clone());
            let tail = store.split_text(text_node, offset).map_err(internal)?;
            split(text_node, tail);
            let tail_text = store.string_value(tail);
            store
                .set_text(tail, tail_text[marker.len()..].to_string())
                .map_err(internal)?;
            let parent = store.parent(tail).expect("tail has a parent");
            let tail_pos = position(store, parent, tail);
            let mut spliced_copies = Vec::with_capacity(content.len());
            for (k, &n) in content.iter().enumerate() {
                let copy = store.deep_copy(n).map_err(internal)?;
                store
                    .insert_child(parent, tail_pos + k, copy)
                    .map_err(internal)?;
                spliced_copies.push(copy);
            }
            copies.extend(spliced_copies.iter().map(|&c| (marker.clone(), c)));
            if text_node == node {
                // Top-level split: head keeps out_nodes[i]; copies and tail
                // join the part's output right after it. The head no longer
                // contains the marker, so advance past it; the copies and
                // tail are scanned in their own right.
                let mut insert_at = i + 1;
                for c in spliced_copies {
                    out_nodes.insert(insert_at, c);
                    insert_at += 1;
                }
                out_nodes.insert(insert_at, tail);
                i += 1;
            }
            // Inside an element subtree: rescan the same root until the
            // marker is gone, exactly like the full-document loop.
        }
    }
    Ok(spliced)
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

    /// Asserts the cached serialization equals the tree it caches, and that
    /// tree a fresh full run. Leaves every cacheable chunk's cache warm.
    fn assert_coherent(doc: &IncrementalDoc, template: &Template, model: &Model, meta: &Metamodel) {
        let xml = doc.to_xml();
        assert_eq!(xml, doc.store.to_xml(doc.root), "cache vs its own tree");
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

        // Edit one program's property: only the Programs section, the
        // marker-content chunk that reads it, and that marker's consumer
        // chunk may re-run. The Users section, toc, list and table stay put.
        let p = m.node_by_label("compiler").unwrap();
        m.set_prop(p, "language", PropValue::Str("ocaml".into()));
        let inputs = GenInputs {
            model: &m,
            meta: &meta,
            template: &template,
        };
        let n = doc.apply_edit(&inputs, &EditFootprint::new()).unwrap();
        assert_matches_full(&doc, &template, &m, &meta);
        // Programs section, marker definer, marker consumer. The awb-table
        // lists the compiler as a column but reads only its label, which
        // cannot change, so it stays put with the Users section, toc, list
        // and omissions chunks.
        assert_eq!(n, 3);
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

        // And removing it again un-splices: the consumer re-runs and the
        // literal text comes back.
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
        // copy.
        for (template, expected) in [
            (
                r#"<template><for nodes="all.Program"><if><test><has-property name="banner"/></test><then><marker-content marker="MA"><b>A</b></marker-content></then></if></for><marker-content marker="MB"><i>MA</i></marker-content><p>MB</p></template>"#,
                "<p><i>MA</i></p>",
            ),
            (
                r#"<template><for nodes="all.Program"><if><test><has-property name="banner"/></test><then><marker-content marker="MA"><b>MC</b></marker-content></then></if></for><marker-content marker="MC"><u>C</u></marker-content><p>MA</p></template>"#,
                "<p><b><u>C</u></b></p>",
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

        // A re-run chunk replaces its cache with an empty one.
        let p = m.node_by_label("compiler").unwrap();
        m.set_prop(p, "language", PropValue::Str("ocaml".into()));
        let inputs = GenInputs {
            model: &m,
            meta: &meta,
            template: &template,
        };
        let n = doc.apply_edit(&inputs, &EditFootprint::new()).unwrap();
        assert_eq!(n, 3);
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

        // A newly defined marker spliced into a clean chunk drops that
        // chunk's cache; removing the definition re-runs the consumer.
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

    /// The chunks of System Context that hold the toc and the omissions
    /// placeholders.
    fn placeholder_chunks(doc: &IncrementalDoc) -> Vec<&Chunk> {
        let held: Vec<&Chunk> = doc
            .chunks
            .iter()
            .filter(|c| c.own.holds_placeholders())
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

        /// Soundness of the read sets, the model's stamps, the unit splices
        /// and the refill rule: after every step of a random edit sequence
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
                    &doc.store.to_xml(doc.root),
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
