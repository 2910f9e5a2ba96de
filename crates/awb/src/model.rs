//! The model: "AWB sees the universe as a directed, annotated multigraph."
//!
//! Nodes have a type and properties; edges are *relation objects*,
//! categorized into relations, and carry properties too ("though little AWB
//! software takes advantage of the fact"). Everything the metamodel says is
//! advisory: users can add properties the metamodel never declared and
//! connect nodes the metamodel never expected — "this feature is crucial to
//! our users, but troublesome at times in implementation."

use crate::meta::Metamodel;
use std::collections::BTreeMap;

/// Handle to a node in a [`Model`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeRef(pub u32);

/// Handle to a relation object in a [`Model`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RelRef(pub u32);

/// A scalar property value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PropValue {
    Str(String),
    Int(i64),
    Bool(bool),
    /// HTML-valued properties (e.g. a Person's biography). Stored as the
    /// markup text — AWB "continued to represent them as Strings internally,
    /// and just convert them to XML on output", the impedance mismatch that
    /// broke the schema.
    Html(String),
}

impl PropValue {
    /// The lexical form used by the XML exchange format.
    pub fn to_text(&self) -> String {
        match self {
            PropValue::Str(s) | PropValue::Html(s) => s.clone(),
            PropValue::Int(i) => i.to_string(),
            PropValue::Bool(b) => b.to_string(),
        }
    }

    pub fn type_name(&self) -> &'static str {
        match self {
            PropValue::Str(_) => "string",
            PropValue::Int(_) => "integer",
            PropValue::Bool(_) => "boolean",
            PropValue::Html(_) => "html",
        }
    }
}

#[derive(Debug, Clone)]
pub(crate) struct NodeData {
    pub type_name: String,
    pub label: String,
    /// Ordered for deterministic export.
    pub props: BTreeMap<String, PropValue>,
}

#[derive(Debug, Clone)]
pub(crate) struct RelData {
    pub type_name: String,
    pub source: NodeRef,
    pub target: NodeRef,
    pub props: BTreeMap<String, PropValue>,
}

/// The directed annotated multigraph.
#[derive(Debug, Clone, Default)]
pub struct Model {
    pub(crate) nodes: Vec<NodeData>,
    pub(crate) relations: Vec<RelData>,
    out_edges: Vec<Vec<RelRef>>,
    in_edges: Vec<Vec<RelRef>>,
}

impl Model {
    pub fn new() -> Self {
        Model::default()
    }

    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    pub fn relation_count(&self) -> usize {
        self.relations.len()
    }

    /// Adds a node of `type_name` with a human-readable label. Types are
    /// strings rather than metamodel handles on purpose — users may invent
    /// types the metamodel has never heard of.
    pub fn add_node(&mut self, type_name: impl Into<String>, label: impl Into<String>) -> NodeRef {
        let id = NodeRef(u32::try_from(self.nodes.len()).expect("model node capacity"));
        self.nodes.push(NodeData {
            type_name: type_name.into(),
            label: label.into(),
            props: BTreeMap::new(),
        });
        self.out_edges.push(Vec::new());
        self.in_edges.push(Vec::new());
        id
    }

    /// Adds a relation object. Never validates against the metamodel — "the
    /// types on relations are advisory, not compulsory."
    pub fn add_relation(
        &mut self,
        type_name: impl Into<String>,
        source: NodeRef,
        target: NodeRef,
    ) -> RelRef {
        let id = RelRef(u32::try_from(self.relations.len()).expect("model relation capacity"));
        self.relations.push(RelData {
            type_name: type_name.into(),
            source,
            target,
            props: BTreeMap::new(),
        });
        self.out_edges[source.0 as usize].push(id);
        self.in_edges[target.0 as usize].push(id);
        id
    }

    /// Sets a property on a node. Works for properties the metamodel never
    /// declared ("a user can add a new property to a particular node").
    pub fn set_prop(&mut self, node: NodeRef, name: impl Into<String>, value: PropValue) {
        self.nodes[node.0 as usize].props.insert(name.into(), value);
    }

    /// Removes a property from a node; returns the old value if present.
    pub fn remove_prop(&mut self, node: NodeRef, name: &str) -> Option<PropValue> {
        self.nodes[node.0 as usize].props.remove(name)
    }

    /// Sets a property on a relation object.
    pub fn set_rel_prop(&mut self, rel: RelRef, name: impl Into<String>, value: PropValue) {
        self.relations[rel.0 as usize]
            .props
            .insert(name.into(), value);
    }

    /// The node's type, fixed at [`Model::add_node`]: there is no setter.
    /// Incremental document generation relies on that and does not record
    /// type reads; a setter must come with docgen recording them.
    pub fn node_type(&self, node: NodeRef) -> &str {
        &self.nodes[node.0 as usize].type_name
    }

    /// The node's label, fixed at [`Model::add_node`]: there is no setter.
    /// Incremental document generation relies on that and does not record
    /// label reads; a setter must come with docgen recording them.
    pub fn label(&self, node: NodeRef) -> &str {
        &self.nodes[node.0 as usize].label
    }

    pub fn prop(&self, node: NodeRef, name: &str) -> Option<&PropValue> {
        self.nodes[node.0 as usize].props.get(name)
    }

    pub fn props(&self, node: NodeRef) -> impl Iterator<Item = (&str, &PropValue)> {
        self.nodes[node.0 as usize]
            .props
            .iter()
            .map(|(k, v)| (k.as_str(), v))
    }

    pub fn rel_type(&self, rel: RelRef) -> &str {
        &self.relations[rel.0 as usize].type_name
    }

    pub fn rel_source(&self, rel: RelRef) -> NodeRef {
        self.relations[rel.0 as usize].source
    }

    pub fn rel_target(&self, rel: RelRef) -> NodeRef {
        self.relations[rel.0 as usize].target
    }

    pub fn rel_prop(&self, rel: RelRef, name: &str) -> Option<&PropValue> {
        self.relations[rel.0 as usize].props.get(name)
    }

    pub fn rel_props(&self, rel: RelRef) -> impl Iterator<Item = (&str, &PropValue)> {
        self.relations[rel.0 as usize]
            .props
            .iter()
            .map(|(k, v)| (k.as_str(), v))
    }

    /// All nodes, in insertion order.
    pub fn all_nodes(&self) -> impl Iterator<Item = NodeRef> {
        (0..self.nodes.len() as u32).map(NodeRef)
    }

    /// All relation objects, in insertion order.
    pub fn all_relations(&self) -> impl Iterator<Item = RelRef> {
        (0..self.relations.len() as u32).map(RelRef)
    }

    /// Outgoing relation objects of a node.
    pub fn out_relations(&self, node: NodeRef) -> &[RelRef] {
        &self.out_edges[node.0 as usize]
    }

    /// Incoming relation objects of a node.
    pub fn in_relations(&self, node: NodeRef) -> &[RelRef] {
        &self.in_edges[node.0 as usize]
    }

    /// Nodes whose type equals or descends from `type_name` under `meta`.
    pub fn nodes_of_type<'a>(&'a self, type_name: &'a str, meta: &'a Metamodel) -> Vec<NodeRef> {
        self.all_nodes()
            .filter(|&n| meta.is_node_subtype(self.node_type(n), type_name))
            .collect()
    }

    /// Follows relation `rel` (including subtypes) forward from `node`.
    pub fn follow_forward(&self, node: NodeRef, rel: &str, meta: &Metamodel) -> Vec<NodeRef> {
        self.out_relations(node)
            .iter()
            .filter(|&&r| meta.is_relation_subtype(self.rel_type(r), rel))
            .map(|&r| self.rel_target(r))
            .collect()
    }

    /// Follows relation `rel` (including subtypes) backward to `node`.
    pub fn follow_backward(&self, node: NodeRef, rel: &str, meta: &Metamodel) -> Vec<NodeRef> {
        self.in_relations(node)
            .iter()
            .filter(|&&r| meta.is_relation_subtype(self.rel_type(r), rel))
            .map(|&r| self.rel_source(r))
            .collect()
    }

    /// The first node (insertion order) with the given label, if any.
    pub fn node_by_label(&self, label: &str) -> Option<NodeRef> {
        self.all_nodes().find(|&n| self.label(n) == label)
    }

    /// The stable exchange-format id of a node (`N<index>`).
    pub fn node_id_string(&self, node: NodeRef) -> String {
        format!("N{}", node.0)
    }

    /// Parses an exchange-format node id back into a handle.
    pub fn node_from_id_string(&self, id: &str) -> Option<NodeRef> {
        let idx: u32 = id.strip_prefix('N')?.parse().ok()?;
        ((idx as usize) < self.nodes.len()).then_some(NodeRef(idx))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::meta::PropType;

    fn meta() -> Metamodel {
        let mut m = Metamodel::new();
        m.add_node_type("Thing", None, vec![]);
        m.add_node_type("Person", Some("Thing"), vec![("birthYear", PropType::Int)]);
        m.add_node_type("Program", Some("Thing"), vec![]);
        m.add_node_type("System", Some("Thing"), vec![]);
        m.add_relation_type("likes", None, vec![]);
        m.add_relation_type("favors", Some("likes"), vec![]);
        m.add_relation_type("uses", None, vec![("Person", "Program")]);
        m
    }

    #[test]
    fn build_and_query_graph() {
        let meta = meta();
        let mut m = Model::new();
        let alice = m.add_node("Person", "Alice");
        let bob = m.add_node("Person", "Bob");
        let prog = m.add_node("Program", "Compiler");
        m.add_relation("likes", alice, bob);
        m.add_relation("favors", alice, prog);
        m.add_relation("uses", bob, prog);

        assert_eq!(m.node_count(), 3);
        assert_eq!(m.relation_count(), 3);
        assert_eq!(m.nodes_of_type("Person", &meta), vec![alice, bob]);
        assert_eq!(m.nodes_of_type("Thing", &meta).len(), 3);
        // likes includes its subtype favors
        assert_eq!(m.follow_forward(alice, "likes", &meta), vec![bob, prog]);
        assert_eq!(m.follow_forward(alice, "favors", &meta), vec![prog]);
        assert_eq!(m.follow_backward(prog, "likes", &meta), vec![alice]);
        assert_eq!(m.follow_backward(prog, "uses", &meta), vec![bob]);
    }

    #[test]
    fn multigraph_allows_parallel_edges() {
        let meta = meta();
        let mut m = Model::new();
        let a = m.add_node("Person", "A");
        let b = m.add_node("Person", "B");
        m.add_relation("likes", a, b);
        m.add_relation("likes", a, b);
        assert_eq!(m.follow_forward(a, "likes", &meta), vec![b, b]);
    }

    #[test]
    fn advisory_typing_never_rejects() {
        let mut m = Model::new();
        // "the user can make a Person use a Program, even if the metamodel
        // prefers… " — and even wholly invented types.
        let alien = m.add_node("Martian", "Zork");
        let sys = m.add_node("System", "S");
        m.add_relation("abducts", alien, sys);
        assert_eq!(m.relation_count(), 1);
        assert_eq!(m.rel_type(RelRef(0)), "abducts");
    }

    #[test]
    fn user_added_properties() {
        let mut m = Model::new();
        let p = m.add_node("Person", "Ada");
        // declared property
        m.set_prop(p, "birthYear", PropValue::Int(1815));
        // user-invented property ("giving Person nodes a middleName")
        m.set_prop(p, "middleName", PropValue::Str("King".into()));
        assert_eq!(m.prop(p, "birthYear"), Some(&PropValue::Int(1815)));
        assert_eq!(
            m.prop(p, "middleName"),
            Some(&PropValue::Str("King".into()))
        );
        assert_eq!(m.prop(p, "nope"), None);
    }

    #[test]
    fn relation_objects_have_properties() {
        let mut m = Model::new();
        let a = m.add_node("Person", "A");
        let b = m.add_node("Person", "B");
        let r = m.add_relation("likes", a, b);
        m.set_rel_prop(r, "since", PropValue::Int(1999));
        assert_eq!(m.rel_prop(r, "since"), Some(&PropValue::Int(1999)));
    }

    #[test]
    fn id_string_roundtrip() {
        let mut m = Model::new();
        let n = m.add_node("Thing", "x");
        let id = m.node_id_string(n);
        assert_eq!(id, "N0");
        assert_eq!(m.node_from_id_string(&id), Some(n));
        assert_eq!(m.node_from_id_string("N99"), None);
        assert_eq!(m.node_from_id_string("Q0"), None);
    }

    #[test]
    fn node_by_label() {
        let mut m = Model::new();
        let a = m.add_node("Thing", "same");
        let _b = m.add_node("Thing", "same");
        assert_eq!(m.node_by_label("same"), Some(a), "first wins");
        assert_eq!(m.node_by_label("missing"), None);
    }
}
