//! Mutable generation state and the post-walk fill passes.
//!
//! "Java is an imperative language, blessed with a wide selection of mutable
//! data structures without peculiar requirements on their elements. A few
//! lines of code let the generation state include a list of
//! table-of-contents entries and a set of visited nodes."

use crate::trouble::GenTrouble;
use crate::GenInputs;
use awb::NodeRef;
use std::collections::HashSet;
use xmlstore::{NodeId, Store};

/// One table-of-contents entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TocEntry {
    pub level: usize,
    pub heading: String,
    pub anchor: String,
}

/// The read set one generation run (or one chunk of one) accumulated from
/// the model. A later model edit whose footprint is disjoint from every
/// field here cannot change what that run produced — that disjointness test
/// is exactly how [`super::incremental::IncrementalDoc`] decides which
/// chunks a model edit dirties.
///
/// Only reads an edit can change are recorded. A node's label and type are
/// fixed at `awb::Model::add_node` and nodes are never removed, so reading a
/// label or a type records nothing per node; whether a node exists is the
/// business of `types` and `any_node`.
#[derive(Debug, Default, Clone)]
pub struct ChunkDeps {
    /// Nodes whose mutable facets — properties or incident edges — were
    /// read. Calculus queries record every node they visit; `<awb-table>`
    /// reads only edges of one relation and records that relation instead.
    pub nodes: HashSet<NodeRef>,
    /// Node types enumerated (`all.TYPE` specs, query starts and filters).
    /// An edit that adds or removes a node of a *subtype* also matters, so
    /// the dirtiness test goes through `Metamodel::is_node_subtype`.
    pub types: HashSet<String>,
    /// Relation types followed (queries and `<awb-table relation=…>`).
    pub relations: HashSet<String>,
    /// The run enumerated or searched the whole node population (`<start/>`
    /// with no type, `<start label=…>`): any change to the node *set*
    /// dirties it, even when no traced node was touched.
    pub any_node: bool,
}

impl ChunkDeps {
    /// Does an edit with this footprint possibly change a run that read
    /// `self`? (`other` is the edit's footprint, phrased in the same terms.)
    pub fn overlaps(&self, other: &ChunkDeps, meta: &awb::Metamodel) -> bool {
        if self.any_node && (other.any_node || !other.nodes.is_empty()) {
            return true;
        }
        // A sweeping edit (`any_node`) dirties every reader that looked at
        // any node or population at all.
        if other.any_node && !(self.nodes.is_empty() && self.types.is_empty()) {
            return true;
        }
        if other.nodes.iter().any(|n| self.nodes.contains(n)) {
            return true;
        }
        // The edit touched a node of type T: a reader that enumerated any
        // supertype (or exactly T, or a subtype it filtered on that T sits
        // under) may see a different population.
        if other.types.iter().any(|et| {
            self.types
                .iter()
                .any(|dt| meta.is_node_subtype(et, dt) || meta.is_node_subtype(dt, et))
        }) {
            return true;
        }
        other.relations.iter().any(|er| {
            self.relations
                .iter()
                .any(|dr| meta.is_relation_subtype(er, dr) || meta.is_relation_subtype(dr, er))
        })
    }
}

/// The mutable state threaded through one generation run.
#[derive(Debug, Default)]
pub struct GenState {
    /// "whenever a heading that goes in the table of contents is produced,
    /// toss it into a list."
    pub toc: Vec<TocEntry>,
    /// "whenever a node is observed in the document, cram it into a set."
    pub visited: HashSet<NodeRef>,
    /// `<table-of-contents/>` placeholders awaiting the post pass.
    pub toc_placeholders: Vec<NodeId>,
    /// `<table-of-omissions/>` placeholders with their type lists.
    pub omission_placeholders: Vec<(NodeId, Vec<String>)>,
    /// Marker text → generated content (detached nodes in the output store).
    pub replacements: Vec<(String, Vec<NodeId>)>,
    /// Per-item troubles caught at `<for>` loops.
    pub trouble_count: usize,
    /// Everything this run read from the model (filled as the walk goes).
    pub deps: ChunkDeps,
}

impl GenState {
    /// Fills every `<table-of-contents/>` placeholder with the accumulated
    /// entries — in-place mutation, no copying.
    pub fn fill_toc(&mut self, store: &mut Store) -> Result<(), GenTrouble> {
        for &placeholder in &self.toc_placeholders {
            let ul = store.create_element("ul").map_err(internal)?;
            store.set_attribute(ul, "class", "toc").map_err(internal)?;
            for entry in &self.toc {
                let li = store.create_element("li").map_err(internal)?;
                store
                    .set_attribute(li, "class", format!("lvl-{}", entry.level))
                    .map_err(internal)?;
                let a = store.create_element("a").map_err(internal)?;
                store
                    .set_attribute(a, "href", format!("#{}", entry.anchor))
                    .map_err(internal)?;
                if !entry.heading.is_empty() {
                    let text = store.create_text(entry.heading.clone()).map_err(internal)?;
                    store.append_child(a, text).map_err(internal)?;
                }
                store.append_child(li, a).map_err(internal)?;
                store.append_child(ul, li).map_err(internal)?;
            }
            store.append_child(placeholder, ul).map_err(internal)?;
        }
        Ok(())
    }

    /// Fills every `<table-of-omissions/>` placeholder: nodes of the listed
    /// types that the walk never focused, sorted by label.
    pub fn fill_omissions(
        &mut self,
        store: &mut Store,
        inputs: &GenInputs,
    ) -> Result<(), GenTrouble> {
        for (placeholder, types) in &self.omission_placeholders {
            let mut omitted: Vec<NodeRef> = Vec::new();
            for ty in types {
                for node in inputs.model.nodes_of_type(ty, inputs.meta) {
                    if !self.visited.contains(&node) && !omitted.contains(&node) {
                        omitted.push(node);
                    }
                }
            }
            omitted.sort_by(|&a, &b| {
                inputs
                    .model
                    .label(a)
                    .cmp(inputs.model.label(b))
                    .then(a.cmp(&b))
            });
            if omitted.is_empty() {
                let p = store.create_element("p").map_err(internal)?;
                store
                    .set_attribute(p, "class", "no-omissions")
                    .map_err(internal)?;
                let t = store.create_text("Nothing is omitted.").map_err(internal)?;
                store.append_child(p, t).map_err(internal)?;
                store.append_child(*placeholder, p).map_err(internal)?;
            } else {
                let ul = store.create_element("ul").map_err(internal)?;
                store
                    .set_attribute(ul, "class", "omissions")
                    .map_err(internal)?;
                for node in omitted {
                    let li = store.create_element("li").map_err(internal)?;
                    let t = store
                        .create_text(format!(
                            "{} ({})",
                            inputs.model.label(node),
                            inputs.model.node_type(node)
                        ))
                        .map_err(internal)?;
                    store.append_child(li, t).map_err(internal)?;
                    store.append_child(ul, li).map_err(internal)?;
                }
                store.append_child(*placeholder, ul).map_err(internal)?;
            }
        }
        Ok(())
    }

    /// Splices registered marker content into the text of the document:
    /// "search for the phrase in the HTML structure. It will probably be in
    /// the middle of a XML Text node, so rip that node apart and shove
    /// Table 1's HTML bodily into the gap."
    pub fn apply_marker_replacements(
        &mut self,
        store: &mut Store,
        root: NodeId,
    ) -> Result<(), GenTrouble> {
        for (marker, content) in &self.replacements {
            let mut guard = 0;
            while let Some((text_node, offset)) = store.find_text(root, marker) {
                guard += 1;
                if guard > 10_000 {
                    return Err(GenTrouble::new(format!(
                        "marker {marker:?} replacement did not terminate (does the replacement contain the marker?)"
                    )));
                }
                // Split off the tail, delete the marker text from its head,
                // and insert the content between.
                let tail = store.split_text(text_node, offset).map_err(internal)?;
                // tail currently starts with the marker text; trim it.
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
                for (i, &node) in content.iter().enumerate() {
                    let copy = store.deep_copy(node).map_err(internal)?;
                    store
                        .insert_child(parent, tail_pos + i, copy)
                        .map_err(internal)?;
                }
            }
        }
        Ok(())
    }
}

fn internal(e: xmlstore::XmlError) -> GenTrouble {
    GenTrouble::new(format!("internal output-tree error: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn toc_fill_produces_links() {
        let mut store = Store::new();
        let holder = store.create_element("div").unwrap();
        let mut state = GenState {
            toc: vec![
                TocEntry {
                    level: 1,
                    heading: "One".into(),
                    anchor: "one".into(),
                },
                TocEntry {
                    level: 2,
                    heading: "Two".into(),
                    anchor: "two".into(),
                },
            ],
            toc_placeholders: vec![holder],
            ..Default::default()
        };
        state.fill_toc(&mut store).unwrap();
        let xml = store.to_xml(holder);
        assert_eq!(
            xml,
            r##"<div><ul class="toc"><li class="lvl-1"><a href="#one">One</a></li><li class="lvl-2"><a href="#two">Two</a></li></ul></div>"##
        );
    }

    #[test]
    fn replacement_guard_trips_on_self_reference() {
        let mut store = Store::new();
        let root = store.create_element("document").unwrap();
        let t = store.create_text("MARKER here".to_string()).unwrap();
        store.append_child(root, t).unwrap();
        // content that contains the marker again → would loop forever
        let evil = store.create_text("MARKER".to_string()).unwrap();
        let mut state = GenState {
            replacements: vec![("MARKER".into(), vec![evil])],
            ..Default::default()
        };
        let err = state
            .apply_marker_replacements(&mut store, root)
            .unwrap_err();
        assert!(err.message.contains("did not terminate"), "{}", err.message);
    }
}
