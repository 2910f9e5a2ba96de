//! Incremental regeneration — the paper's edit-a-node, regenerate-the-docs
//! loop without regenerating the whole document.
//!
//! The unit of incrementality is the **chunk**: one top-level child of the
//! `<template>` body. Each chunk is generated independently (the walker's
//! section depth and focus are chunk-local in a full run too, so this splits
//! nothing that was shared), and while it runs, [`GenState::deps`] records
//! everything the chunk read from the model that an edit can change — types
//! enumerated, relations followed, and the nodes whose *mutable* facets
//! (properties, incident edges) it read. A node's label and type are fixed
//! at `awb::Model::add_node`, so reading only those records nothing: a
//! relation table that lists every program as a column but reads only
//! their labels is not dirtied by a program's property edit. A later model
//! edit names its own footprint in the same vocabulary; chunks whose read
//! set is disjoint from the footprint are provably unchanged and their
//! output subtrees stay in place. Only the dirty chunks re-run.
//!
//! Three pieces of a document are *not* chunk-local and are handled
//! explicitly:
//!
//! * the **table of contents** and **table of omissions** are cheap
//!   renderings of merged per-chunk state (toc entries, visited nodes);
//!   their placeholder `<div>`s are emptied and refilled after every edit;
//! * **marker replacements** splice one chunk's generated content into text
//!   found in any chunk. Each chunk records which markers it consumed; a
//!   re-run chunk whose marker definitions changed (content, appeared,
//!   disappeared) drags its consumer chunks into the re-run set, and a
//!   *newly defined* marker is applied to clean chunks too (their literal
//!   marker text is still sitting in the output);
//! * the **trouble count** is the sum of per-chunk counts.
//!
//! The correctness bar is exact: after any sequence of `apply_edit` calls,
//! [`IncrementalDoc::to_xml`] must equal what a fresh [`super::generate`]
//! of the current model produces. The equivalence tests below hold it there.

use super::state::{ChunkDeps, GenState, TocEntry};
use super::walk::Walker;
use crate::trouble::GenTrouble;
use crate::GenInputs;
use awb::NodeRef;
use std::collections::{BTreeSet, HashMap, HashSet};
use xmlstore::{NodeId, Store};

/// What a model edit touched, in the same vocabulary as [`ChunkDeps`]. The
/// *caller* builds this while (or after) mutating the model — the model has
/// no change log, so honesty about the footprint is the caller's contract.
/// Over-reporting costs regeneration time; under-reporting costs
/// correctness.
#[derive(Debug, Default, Clone)]
pub struct EditFootprint(pub ChunkDeps);

impl EditFootprint {
    pub fn new() -> EditFootprint {
        EditFootprint::default()
    }

    /// The edit changed this node's properties or incident edges. (Labels
    /// and types are fixed when a node is added.)
    pub fn touch_node(mut self, n: NodeRef) -> EditFootprint {
        self.0.nodes.insert(n);
        self
    }

    /// The edit added or removed a node of this type (population change).
    pub fn touch_type(mut self, ty: impl Into<String>) -> EditFootprint {
        self.0.types.insert(ty.into());
        self
    }

    /// The edit added or removed an edge of this relation type.
    pub fn touch_relation(mut self, r: impl Into<String>) -> EditFootprint {
        self.0.relations.insert(r.into());
        self
    }

    /// The edit is sweeping — treat every chunk that read anything as dirty.
    pub fn touch_everything(mut self) -> EditFootprint {
        self.0.any_node = true;
        self
    }
}

/// One top-level template child and everything its last run produced.
struct Chunk {
    /// The template node this chunk renders.
    tpl_node: NodeId,
    /// Its output: a contiguous run of children of the `<document>` root.
    out_nodes: Vec<NodeId>,
    /// What the last run read from the model.
    deps: ChunkDeps,
    /// Toc entries the last run pushed, in order.
    toc: Vec<TocEntry>,
    /// Nodes the last run focused (feeds the omissions table).
    visited: HashSet<NodeRef>,
    /// Per-item troubles the last run rendered as error notes.
    trouble_count: usize,
    /// `<table-of-contents/>` placeholder divs inside `out_nodes`.
    toc_placeholders: Vec<NodeId>,
    /// `<table-of-omissions/>` placeholder divs with their type lists.
    omission_placeholders: Vec<(NodeId, Vec<String>)>,
    /// Marker replacements this chunk *defines* (content nodes are detached
    /// nodes in the output store, owned by this chunk's generation).
    defs: Vec<(String, Vec<NodeId>)>,
    /// Markers whose text this chunk's output contained and had replaced.
    consumed: HashSet<String>,
}

/// The walker output for one chunk, before it is spliced into the document.
struct ChunkRun {
    out_nodes: Vec<NodeId>,
    state: GenState,
}

impl Chunk {
    fn from_run(tpl_node: NodeId, run: ChunkRun) -> Chunk {
        Chunk {
            tpl_node,
            out_nodes: run.out_nodes,
            deps: run.state.deps,
            toc: run.state.toc,
            visited: run.state.visited,
            trouble_count: run.state.trouble_count,
            toc_placeholders: run.state.toc_placeholders,
            omission_placeholders: run.state.omission_placeholders,
            defs: run.state.replacements,
            consumed: HashSet::new(),
        }
    }
}

/// A generated document that can absorb model edits by re-running only the
/// chunks the edit can have changed.
pub struct IncrementalDoc {
    /// The output tree lives in its own store, like [`super::NativeOutput`].
    pub store: Store,
    /// The `<document>` root element.
    pub root: NodeId,
    /// Total per-item troubles across all chunks, as of the last run.
    pub trouble_count: usize,
    chunks: Vec<Chunk>,
}

impl IncrementalDoc {
    /// Generates the full document once, recording per-chunk read sets.
    /// Output is identical to [`super::generate`] on the same inputs.
    pub fn generate(inputs: &GenInputs) -> Result<IncrementalDoc, GenTrouble> {
        let mut store = Store::new();
        let root = store.create_element("document").map_err(internal)?;
        let tpl_children = inputs
            .template
            .store()
            .children(inputs.template.root())
            .to_vec();
        let mut chunks = Vec::with_capacity(tpl_children.len());
        for tpl_node in tpl_children {
            let run = run_chunk(inputs, &mut store, tpl_node)?;
            for &n in &run.out_nodes {
                store.append_child(root, n).map_err(internal)?;
            }
            chunks.push(Chunk::from_run(tpl_node, run));
        }
        let mut doc = IncrementalDoc {
            store,
            root,
            trouble_count: 0,
            chunks,
        };
        let replacements = doc.global_replacements();
        for c in &mut doc.chunks {
            apply_replacements_to_chunk(
                &mut doc.store,
                &mut c.out_nodes,
                &replacements,
                &mut c.consumed,
            )?;
        }
        doc.refill_placeholders(inputs)?;
        doc.trouble_count = doc.chunks.iter().map(|c| c.trouble_count).sum();
        Ok(doc)
    }

    /// Re-runs exactly the chunks `footprint` can have changed (plus
    /// consumers of changed markers), splices their fresh output in place,
    /// and refreshes the toc/omissions renderings. The *model edit itself
    /// must already have been applied* to `inputs.model`. Returns how many
    /// chunks were re-run.
    pub fn apply_edit(
        &mut self,
        inputs: &GenInputs,
        footprint: &EditFootprint,
    ) -> Result<usize, GenTrouble> {
        let meta = inputs.meta;
        let old_marker_names: HashSet<String> = self
            .chunks
            .iter()
            .flat_map(|c| c.defs.iter().map(|(m, _)| m.clone()))
            .collect();

        let mut re_run: BTreeSet<usize> = self
            .chunks
            .iter()
            .enumerate()
            .filter(|(_, c)| c.deps.overlaps(&footprint.0, meta))
            .map(|(i, _)| i)
            .collect();

        // Regenerate, then pull in consumers of any marker whose definition
        // changed; those regenerations can change markers too, so iterate to
        // a fixpoint (bounded by the chunk count).
        let mut new_runs: HashMap<usize, ChunkRun> = HashMap::new();
        loop {
            let pending: Vec<usize> = re_run
                .iter()
                .copied()
                .filter(|i| !new_runs.contains_key(i))
                .collect();
            if pending.is_empty() {
                break;
            }
            let mut changed_markers: HashSet<String> = HashSet::new();
            for idx in pending {
                let run = run_chunk(inputs, &mut self.store, self.chunks[idx].tpl_node)?;
                let old_sig = def_signature(&self.store, &self.chunks[idx].defs);
                let new_sig = def_signature(&self.store, &run.state.replacements);
                if old_sig != new_sig {
                    for (m, _) in self.chunks[idx].defs.iter().chain(&run.state.replacements) {
                        changed_markers.insert(m.clone());
                    }
                }
                new_runs.insert(idx, run);
            }
            if !changed_markers.is_empty() {
                for (i, c) in self.chunks.iter().enumerate() {
                    if c.consumed.iter().any(|m| changed_markers.contains(m)) {
                        re_run.insert(i);
                    }
                }
            }
        }

        // Splice: old output out, fresh output in at the recomputed offset.
        // Ascending order keeps the offset arithmetic simple — chunks before
        // `idx` already hold their final child counts.
        for &idx in &re_run {
            for &n in &self.chunks[idx].out_nodes {
                self.store.detach(n);
            }
        }
        for &idx in &re_run {
            let run = new_runs.remove(&idx).expect("regenerated above");
            let at: usize = self.chunks[..idx].iter().map(|c| c.out_nodes.len()).sum();
            for (k, &n) in run.out_nodes.iter().enumerate() {
                self.store
                    .insert_child(self.root, at + k, n)
                    .map_err(internal)?;
            }
            self.chunks[idx] = Chunk::from_run(self.chunks[idx].tpl_node, run);
        }

        // Markers. Re-run chunks carry raw marker text and get the full
        // replacement list; clean chunks only ever need markers that did not
        // exist before this edit (for already-defined markers their text was
        // consumed — or proven absent — on a previous pass).
        let replacements = self.global_replacements();
        let newly_defined: Vec<(String, Vec<NodeId>)> = replacements
            .iter()
            .filter(|(m, _)| !old_marker_names.contains(m))
            .cloned()
            .collect();
        for (i, c) in self.chunks.iter_mut().enumerate() {
            if re_run.contains(&i) {
                apply_replacements_to_chunk(
                    &mut self.store,
                    &mut c.out_nodes,
                    &replacements,
                    &mut c.consumed,
                )?;
            } else if !newly_defined.is_empty() {
                apply_replacements_to_chunk(
                    &mut self.store,
                    &mut c.out_nodes,
                    &newly_defined,
                    &mut c.consumed,
                )?;
            }
        }

        self.refill_placeholders(inputs)?;
        self.trouble_count = self.chunks.iter().map(|c| c.trouble_count).sum();
        Ok(re_run.len())
    }

    /// Compact XML of the generated document.
    pub fn to_xml(&self) -> String {
        self.store.to_xml(self.root)
    }

    /// Pretty XML of the generated document.
    pub fn to_pretty_xml(&self) -> String {
        self.store.to_pretty_xml(self.root)
    }

    /// How many chunks the template split into (diagnostic/bench use).
    pub fn chunk_count(&self) -> usize {
        self.chunks.len()
    }

    /// All marker definitions in chunk order — the same order a full run's
    /// single `GenState` would have accumulated them in.
    fn global_replacements(&self) -> Vec<(String, Vec<NodeId>)> {
        self.chunks
            .iter()
            .flat_map(|c| c.defs.iter().cloned())
            .collect()
    }

    /// Empties and refills every toc/omissions placeholder from the merged
    /// per-chunk state. Cheap: proportional to toc size + omitted nodes, not
    /// to the document.
    fn refill_placeholders(&mut self, inputs: &GenInputs) -> Result<(), GenTrouble> {
        let mut scratch = GenState::default();
        for c in &self.chunks {
            scratch.toc.extend(c.toc.iter().cloned());
            scratch.visited.extend(c.visited.iter().copied());
            scratch
                .toc_placeholders
                .extend(c.toc_placeholders.iter().copied());
            scratch
                .omission_placeholders
                .extend(c.omission_placeholders.iter().cloned());
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
        // fills are rebuilt from scratch on every edit, so re-splice them
        // every time; consumption is not recorded (fill content never
        // survives an edit, so nothing depends on it).
        let replacements = self.global_replacements();
        if !replacements.is_empty() {
            let mut sink = HashSet::new();
            let divs: Vec<NodeId> = scratch
                .toc_placeholders
                .iter()
                .copied()
                .chain(scratch.omission_placeholders.iter().map(|(d, _)| *d))
                .collect();
            for div in divs {
                let mut nodes = vec![div];
                apply_replacements_to_chunk(&mut self.store, &mut nodes, &replacements, &mut sink)?;
            }
        }
        Ok(())
    }
}

/// Walks one top-level template child into a detached holder, returning its
/// output nodes and the chunk-local generation state (read set included).
fn run_chunk(
    inputs: &GenInputs,
    store: &mut Store,
    tpl_node: NodeId,
) -> Result<ChunkRun, GenTrouble> {
    let holder = store.create_element("chunk-holder").map_err(internal)?;
    let mut state = GenState::default();
    let mut walker = Walker {
        inputs,
        out: store,
        state: &mut state,
        focus: None,
        path: vec!["template".to_string()],
        section_depth: 0,
    };
    walker.walk_node(tpl_node, holder)?;
    let out_nodes = store.children(holder).to_vec();
    for &n in &out_nodes {
        store.detach(n);
    }
    Ok(ChunkRun { out_nodes, state })
}

/// A comparable rendering of a chunk's marker definitions: marker names in
/// order with their content serialized. Two runs with equal signatures
/// splice identically into consumers.
fn def_signature(store: &Store, defs: &[(String, Vec<NodeId>)]) -> Vec<(String, String)> {
    defs.iter()
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

/// Applies marker replacements to one chunk's output, in definition order —
/// the same per-marker scan-splice loop a full run applies to the whole
/// document, restricted to this chunk's subtrees. When a top-level text node
/// splits, the spliced copies and the tail become new output nodes of the
/// chunk (they sit between its other children under the document root).
fn apply_replacements_to_chunk(
    store: &mut Store,
    out_nodes: &mut Vec<NodeId>,
    replacements: &[(String, Vec<NodeId>)],
    consumed: &mut HashSet<String>,
) -> Result<(), GenTrouble> {
    for (marker, content) in replacements {
        let mut guard = 0usize;
        let mut i = 0usize;
        while i < out_nodes.len() {
            let node = out_nodes[i];
            let Some((text_node, offset)) = store.find_text(node, marker) else {
                i += 1;
                continue;
            };
            guard += 1;
            if guard > 10_000 {
                return Err(GenTrouble::new(format!(
                    "marker {marker:?} replacement did not terminate (does the replacement contain the marker?)"
                )));
            }
            consumed.insert(marker.clone());
            let tail = store.split_text(text_node, offset).map_err(internal)?;
            let tail_text = store.string_value(tail);
            store
                .set_text(tail, tail_text[marker.len()..].to_string())
                .map_err(internal)?;
            let parent = store.parent(tail).expect("tail has a parent");
            let tail_pos = store
                .children(parent)
                .iter()
                .position(|&c| c == tail)
                .expect("tail is a child");
            let mut copies = Vec::with_capacity(content.len());
            for (k, &n) in content.iter().enumerate() {
                let copy = store.deep_copy(n).map_err(internal)?;
                store
                    .insert_child(parent, tail_pos + k, copy)
                    .map_err(internal)?;
                copies.push(copy);
            }
            if text_node == node {
                // Top-level split: head keeps out_nodes[i]; copies and tail
                // join the chunk's output right after it. The head no longer
                // contains the marker, so advance past it; the copies and
                // tail are scanned in their own right.
                let mut insert_at = i + 1;
                for c in copies {
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
    Ok(())
}

fn internal(e: xmlstore::XmlError) -> GenTrouble {
    GenTrouble::new(format!("internal output-tree error: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::template::Template;
    use awb::{Metamodel, Model, PropValue};
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
        let n = doc
            .apply_edit(&inputs, &EditFootprint::new().touch_node(p))
            .unwrap();
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
        let n = doc
            .apply_edit(&inputs, &EditFootprint::new().touch_node(d))
            .unwrap();
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
        let bob = m.add_node("user", "bob");
        let inputs = GenInputs {
            model: &m,
            meta: &meta,
            template: &template,
        };
        let n = doc
            .apply_edit(
                &inputs,
                &EditFootprint::new().touch_node(bob).touch_type("user"),
            )
            .unwrap();
        assert_eq!(n, 1, "only the all.user loop re-runs");
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
        // superuser is a subtype of user: the all.user loop must re-run.
        let su = m.add_node("superuser", "admin");
        let inputs = GenInputs {
            model: &m,
            meta: &meta,
            template: &template,
        };
        let n = doc
            .apply_edit(
                &inputs,
                &EditFootprint::new().touch_node(su).touch_type("superuser"),
            )
            .unwrap();
        assert_eq!(n, 1);
        assert_matches_full(&doc, &template, &m, &meta);
        assert!(doc.to_xml().contains("admin"));
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
        let n = doc
            .apply_edit(
                &inputs,
                &EditFootprint::new()
                    .touch_relation("uses")
                    .touch_node(root_u)
                    .touch_node(p),
            )
            .unwrap();
        assert_eq!(n, 2, "table chunk and query chunk, not the Document loop");
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
        doc.apply_edit(&inputs, &EditFootprint::new().touch_node(p))
            .unwrap();
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
        doc.apply_edit(&inputs, &EditFootprint::new().touch_node(p))
            .unwrap();
        assert!(doc.to_xml().contains("Banner: XBANNERX."));
        assert_matches_full(&doc, &template, &m, &meta);
    }

    #[test]
    fn sweeping_footprint_reruns_every_reader() {
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
        let p = m.node_by_label("compiler").unwrap();
        m.set_prop(p, "language", PropValue::Str("ada".into()));
        let inputs = GenInputs {
            model: &m,
            meta: &meta,
            template: &template,
        };
        let n = doc
            .apply_edit(&inputs, &EditFootprint::new().touch_everything())
            .unwrap();
        assert!(n >= 4, "every model-reading chunk re-runs: {n}");
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
            let u = m.add_node("user", format!("user-{i}"));
            let inputs = GenInputs {
                model: &m,
                meta: &meta,
                template: &template,
            };
            doc.apply_edit(
                &inputs,
                &EditFootprint::new()
                    .touch_node(p)
                    .touch_node(u)
                    .touch_type("user"),
            )
            .unwrap();
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
        // only its label; the Programs section reads the language, and the
        // "Who likes what" list visits the program if a user likes it.
        let p = m.nodes_of_type("Program", &meta)[7];
        m.set_prop(p, "language", PropValue::Str("cobol".into()));
        let inputs = GenInputs {
            model: &m,
            meta: &meta,
            template: &template,
        };
        let n = doc
            .apply_edit(&inputs, &EditFootprint::new().touch_node(p))
            .unwrap();
        assert!((1..=2).contains(&n), "re-ran {n} chunks");
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
        let n = doc
            .apply_edit(&inputs, &EditFootprint::new().touch_node(server))
            .unwrap();
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
        let footprint = EditFootprint::new()
            .touch_node(server)
            .touch_node(program)
            .touch_relation("runs");
        let n = doc.apply_edit(&inputs, &footprint).unwrap();
        assert!(n >= 1);
        // One cell of the table counts one more edge: the document moved,
        // and it moved to exactly what a full run produces.
        assert_ne!(doc.to_xml(), before);
        assert_matches_full(&doc, &template, &m, &meta);
    }

    /// One random model edit, with node and type picks resolved against
    /// the model as it stands when the edit is applied.
    #[derive(Debug, Clone)]
    enum Edit {
        SetProp(usize, &'static str, &'static str),
        RemoveProp(usize, &'static str),
        AddNode(&'static str),
        AddRelation(&'static str, usize, usize),
    }

    const EDIT_PROPS: [&str; 3] = ["language", "version", "banner"];
    const EDIT_VALUES: [&str; 5] = ["xquery", "rust", "", " ", "1.0"];
    const EDIT_TYPES: [&str; 5] = ["user", "superuser", "Program", "Document", "Server"];
    const EDIT_RELATIONS: [&str; 3] = ["uses", "likes", "runs"];

    fn edit_strategy() -> impl Strategy<Value = Edit> {
        prop_oneof![
            (
                0usize..1000,
                prop::sample::select(EDIT_PROPS),
                prop::sample::select(EDIT_VALUES)
            )
                .prop_map(|(n, p, v)| Edit::SetProp(n, p, v)),
            (0usize..1000, prop::sample::select(EDIT_PROPS))
                .prop_map(|(n, p)| Edit::RemoveProp(n, p)),
            prop::sample::select(EDIT_TYPES).prop_map(Edit::AddNode),
            (
                prop::sample::select(EDIT_RELATIONS),
                0usize..1000,
                0usize..1000
            )
                .prop_map(|(r, s, t)| Edit::AddRelation(r, s, t)),
        ]
    }

    /// Applies `edit` to the model and returns its exact footprint under
    /// the [`EditFootprint`] contract.
    fn apply_model_edit(m: &mut Model, edit: &Edit) -> EditFootprint {
        let count = m.node_count();
        let pick = |k: usize| NodeRef((k % count) as u32);
        match *edit {
            Edit::SetProp(k, p, v) => {
                let n = pick(k);
                m.set_prop(n, p, PropValue::Str(v.into()));
                EditFootprint::new().touch_node(n)
            }
            Edit::RemoveProp(k, p) => {
                let n = pick(k);
                m.remove_prop(n, p);
                EditFootprint::new().touch_node(n)
            }
            Edit::AddNode(ty) => {
                let n = m.add_node(ty, format!("new {ty} {count}"));
                EditFootprint::new().touch_node(n).touch_type(ty)
            }
            Edit::AddRelation(r, s, t) => {
                let (s, t) = (pick(s), pick(t));
                m.add_relation(r, s, t);
                EditFootprint::new()
                    .touch_node(s)
                    .touch_node(t)
                    .touch_relation(r)
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Soundness of the read sets: after every step of a random edit
        /// sequence, each reported with exactly its contract footprint, the
        /// incremental document equals a fresh full run.
        #[test]
        fn random_edits_keep_the_document_equal_to_a_full_run(
            which in 0usize..3,
            seed in 0u64..1000,
            edits in prop::collection::vec(edit_strategy(), 1..12),
        ) {
            let source = [RICH_TEMPLATE, crate::template::SYSTEM_CONTEXT, BANNER_TEMPLATE][which];
            let template = Template::parse(source).unwrap();
            let meta = meta();
            let mut m = awb::workload::it_architecture(awb::workload::ItScale::about(30), seed);
            let mut doc = IncrementalDoc::generate(&GenInputs {
                model: &m,
                meta: &meta,
                template: &template,
            })
            .unwrap();
            for (step, edit) in edits.iter().enumerate() {
                let footprint = apply_model_edit(&mut m, edit);
                let inputs = GenInputs {
                    model: &m,
                    meta: &meta,
                    template: &template,
                };
                doc.apply_edit(&inputs, &footprint).unwrap();
                prop_assert_eq!(
                    doc.to_xml(),
                    full_xml(&template, &m, &meta),
                    "template {}, step {}: {:?}",
                    which,
                    step,
                    edit
                );
            }
        }
    }
}
