//! The AWB query calculus — "a little calculus in which one could say, for
//! example, 'Start at this user; follow the relation likes forwards; follow
//! the relation uses but only to computer programs from there; collect the
//! results, sorted by label.'"
//!
//! The calculus has **two evaluators**, exactly as the project did:
//!
//! * [`Query::run_native`] — the direct graph walk (the "Java" UI
//!   implementation);
//! * [`Query::to_xquery`] / [`Query::run_xquery`] — compilation to XQuery
//!   source evaluated against the exported model XML (the document-generator
//!   implementation).
//!
//! "It would, of course, be insane to have two implementations of the same
//! query language" — experiment E1 measures just how insane: the XQuery
//! route re-scans the exported XML for every `follow`, which is what made
//! "calling XQuery from Java to evaluate queries … preposterously
//! inefficient."
//!
//! Relation and type subtyping is resolved *at compile time* against the
//! metamodel: the generated XQuery receives concrete name lists and tests
//! membership with the existential `=` (the quirk the paper describes being
//! used deliberately, with a comment).

use crate::meta::Metamodel;
use crate::model::{Model, NodeRef};
use crate::xmlio;
use std::fmt::Write as _;
use xmlstore::parser::ParseOptions;
use xmlstore::{NodeId, Store};
use xquery::{Engine, EngineOptions, Item};

/// Edge direction for a `follow` step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    Forward,
    Backward,
}

/// Where a query starts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StartSet {
    /// All nodes of a type (including subtypes), e.g. `all.user`.
    AllOfType(String),
    /// The first node with this label.
    NodeByLabel(String),
    /// Every node in the model.
    All,
}

/// One step of the pipeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QueryStep {
    /// Follow a relation (and its subtypes), optionally keeping only targets
    /// of a given type.
    Follow {
        relation: String,
        direction: Direction,
        target_type: Option<String>,
    },
    /// Keep only nodes of a type (including subtypes).
    FilterType(String),
    /// Keep only nodes whose property `name` has lexical value `equals`.
    FilterProperty { name: String, equals: String },
    /// Remove duplicates, keeping first occurrences ("collect all the
    /// objects reached… into a set without duplicates").
    Dedup,
    /// Stable sort by label.
    SortByLabel,
}

/// A calculus query: a start set and a pipeline of steps.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Query {
    pub start: StartSet,
    pub steps: Vec<QueryStep>,
}

impl Query {
    /// Starts from all nodes of `ty`.
    pub fn from_type(ty: impl Into<String>) -> Self {
        Query {
            start: StartSet::AllOfType(ty.into()),
            steps: Vec::new(),
        }
    }

    /// Starts from the node labelled `label`.
    pub fn from_label(label: impl Into<String>) -> Self {
        Query {
            start: StartSet::NodeByLabel(label.into()),
            steps: Vec::new(),
        }
    }

    /// Starts from every node.
    pub fn from_all() -> Self {
        Query {
            start: StartSet::All,
            steps: Vec::new(),
        }
    }

    pub fn follow(mut self, relation: impl Into<String>) -> Self {
        self.steps.push(QueryStep::Follow {
            relation: relation.into(),
            direction: Direction::Forward,
            target_type: None,
        });
        self
    }

    pub fn follow_back(mut self, relation: impl Into<String>) -> Self {
        self.steps.push(QueryStep::Follow {
            relation: relation.into(),
            direction: Direction::Backward,
            target_type: None,
        });
        self
    }

    /// Follow forward, "but only to" targets of the given type.
    pub fn follow_to(
        mut self,
        relation: impl Into<String>,
        target_type: impl Into<String>,
    ) -> Self {
        self.steps.push(QueryStep::Follow {
            relation: relation.into(),
            direction: Direction::Forward,
            target_type: Some(target_type.into()),
        });
        self
    }

    pub fn filter_type(mut self, ty: impl Into<String>) -> Self {
        self.steps.push(QueryStep::FilterType(ty.into()));
        self
    }

    pub fn filter_property(mut self, name: impl Into<String>, equals: impl Into<String>) -> Self {
        self.steps.push(QueryStep::FilterProperty {
            name: name.into(),
            equals: equals.into(),
        });
        self
    }

    pub fn dedup(mut self) -> Self {
        self.steps.push(QueryStep::Dedup);
        self
    }

    pub fn sort_by_label(mut self) -> Self {
        self.steps.push(QueryStep::SortByLabel);
        self
    }

    // ------------------------------------------------------------------
    // The XML surface syntax ("they got their own XML-based calculus")
    // ------------------------------------------------------------------

    /// Parses the XML surface form:
    ///
    /// ```xml
    /// <query>
    ///   <start type="user"/>
    ///   <follow relation="likes"/>
    ///   <follow relation="uses" target-type="Program"/>
    ///   <dedup/> <sort-by-label/>
    /// </query>
    /// ```
    pub fn from_xml(xml: &str) -> Result<Query, String> {
        let mut store = Store::new();
        let doc = store
            .parse_str(xml, &ParseOptions::data_oriented())
            .map_err(|e| e.to_string())?;
        let root = store.document_element(doc).ok_or("no document element")?;
        Query::from_store(&store, root)
    }

    /// Parses the XML surface form from an element already in a store (the
    /// document generator finds `<query>` elements inside templates).
    pub fn from_store(store: &Store, query_el: NodeId) -> Result<Query, String> {
        if store.name(query_el).map(|q| q.to_string()) != Some("query".into()) {
            return Err("expected a <query> element".into());
        }
        let mut start = None;
        let mut steps = Vec::new();
        for el in store.child_elements(query_el) {
            let name = store.name(el).map(|q| q.to_string()).unwrap_or_default();
            let attr = |k: &str| store.attribute_value(el, k).map(str::to_string);
            match name.as_str() {
                "start" => {
                    start = Some(if let Some(ty) = attr("type") {
                        StartSet::AllOfType(ty)
                    } else if let Some(label) = attr("label") {
                        StartSet::NodeByLabel(label)
                    } else {
                        StartSet::All
                    });
                }
                "follow" => {
                    let relation = attr("relation").ok_or("<follow> needs relation=")?;
                    let direction = match attr("direction").as_deref() {
                        None | Some("forward") => Direction::Forward,
                        Some("backward") => Direction::Backward,
                        Some(other) => return Err(format!("bad direction {other:?}")),
                    };
                    steps.push(QueryStep::Follow {
                        relation,
                        direction,
                        target_type: attr("target-type"),
                    });
                }
                "filter-type" => steps.push(QueryStep::FilterType(
                    attr("type").ok_or("<filter-type> needs type=")?,
                )),
                "filter-property" => steps.push(QueryStep::FilterProperty {
                    name: attr("name").ok_or("<filter-property> needs name=")?,
                    equals: attr("equals").ok_or("<filter-property> needs equals=")?,
                }),
                "dedup" => steps.push(QueryStep::Dedup),
                "sort-by-label" => steps.push(QueryStep::SortByLabel),
                other => return Err(format!("unknown calculus step <{other}>")),
            }
        }
        Ok(Query {
            start: start.ok_or("<query> needs a <start>")?,
            steps,
        })
    }

    // ------------------------------------------------------------------
    // Native evaluator (the "Java" side)
    // ------------------------------------------------------------------

    /// Evaluates directly against the graph.
    pub fn run_native(&self, model: &Model, meta: &Metamodel) -> Vec<NodeRef> {
        self.run_native_traced(model, meta, &mut |_| {})
    }

    /// Evaluates directly against the graph, reporting every node whose
    /// properties a `<filter-property>` step reads. The document
    /// generator's incremental mode uses the trace as the query's property
    /// read set: a later property edit of a traced node can change this
    /// query's result, one of any other node cannot. The other steps read
    /// only relations, types and labels, which the caller records by name
    /// (labels and types are fixed when a node is added).
    pub fn run_native_traced(
        &self,
        model: &Model,
        meta: &Metamodel,
        trace: &mut dyn FnMut(NodeRef),
    ) -> Vec<NodeRef> {
        let mut current: Vec<NodeRef> = match &self.start {
            StartSet::AllOfType(ty) => model.nodes_of_type(ty, meta),
            StartSet::NodeByLabel(label) => model.node_by_label(label).into_iter().collect(),
            StartSet::All => model.all_nodes().collect(),
        };
        for step in &self.steps {
            current = match step {
                QueryStep::Follow {
                    relation,
                    direction,
                    target_type,
                } => {
                    let mut next = Vec::with_capacity(current.len());
                    for &n in &current {
                        let reached = match direction {
                            Direction::Forward => model.follow_forward(n, relation, meta),
                            Direction::Backward => model.follow_backward(n, relation, meta),
                        };
                        for t in reached {
                            if target_type
                                .as_deref()
                                .is_none_or(|ty| meta.is_node_subtype(model.node_type(t), ty))
                            {
                                next.push(t);
                            }
                        }
                    }
                    next
                }
                QueryStep::FilterType(ty) => current
                    .into_iter()
                    .filter(|&n| meta.is_node_subtype(model.node_type(n), ty))
                    .collect(),
                QueryStep::FilterProperty { name, equals } => current
                    .into_iter()
                    .filter(|&n| {
                        trace(n);
                        model.prop(n, name).is_some_and(|v| v.to_text() == *equals)
                    })
                    .collect(),
                QueryStep::Dedup => {
                    let mut seen = std::collections::HashSet::new();
                    current.into_iter().filter(|n| seen.insert(*n)).collect()
                }
                QueryStep::SortByLabel => {
                    let mut v = current;
                    v.sort_by(|&a, &b| model.label(a).cmp(model.label(b)));
                    v
                }
            };
        }
        current
    }

    // ------------------------------------------------------------------
    // XQuery compilation (the document-generator side)
    // ------------------------------------------------------------------

    /// Compiles the query to XQuery source against the exchange-format XML
    /// (bound as `doc("awb-model")`). Subtype expansion happens here, so the
    /// generated code tests membership with the existential `=`.
    pub fn to_xquery(&self, meta: &Metamodel) -> String {
        let mut src = String::new();
        let _ = writeln!(src, "declare variable $m := doc(\"awb-model\")/awb-model;");
        let mut step_no = 0usize;

        let start = match &self.start {
            StartSet::AllOfType(ty) => {
                format!("$m/node[@type = {}]", string_list(&meta.node_subtypes(ty)))
            }
            StartSet::NodeByLabel(label) => {
                format!("$m/node[@label = {}][1]", xq_string(label))
            }
            StartSet::All => "$m/node".to_string(),
        };
        let _ = writeln!(src, "let $s0 := {start}");

        for step in &self.steps {
            let prev = format!("$s{step_no}");
            step_no += 1;
            let next = format!("$s{step_no}");
            match step {
                QueryStep::Follow {
                    relation,
                    direction,
                    target_type,
                } => {
                    let rels = string_list(&meta.relation_subtypes(relation));
                    let (from_attr, to_attr) = match direction {
                        Direction::Forward => ("source", "target"),
                        Direction::Backward => ("target", "source"),
                    };
                    let type_pred = match target_type {
                        // `=` as membership: the intent is deliberate, as the
                        // paper's comment-annotated usage was.
                        Some(ty) => format!("[@type = {}]", string_list(&meta.node_subtypes(ty))),
                        None => String::new(),
                    };
                    let _ = writeln!(
                        src,
                        "let {next} := for $n in {prev}\n  for $r in $m/relation[@type = {rels}]\n  where $r/@{from_attr} = $n/@id\n  return $m/node[@id = $r/@{to_attr}]{type_pred}"
                    );
                }
                QueryStep::FilterType(ty) => {
                    let _ = writeln!(
                        src,
                        "let {next} := {prev}[@type = {}]",
                        string_list(&meta.node_subtypes(ty))
                    );
                }
                QueryStep::FilterProperty { name, equals } => {
                    let _ = writeln!(
                        src,
                        "let {next} := {prev}[property[@name = {}] = {}]",
                        xq_string(name),
                        xq_string(equals)
                    );
                }
                QueryStep::Dedup => {
                    // NB: not `{prev}/@id` — a path expression would sort the
                    // nodes into document order before deduplication, losing
                    // the first-occurrence order the native evaluator keeps.
                    let _ = writeln!(
                        src,
                        "let {next} := for $id in distinct-values(for $n in {prev} return string($n/@id)) return $m/node[@id = $id]"
                    );
                }
                QueryStep::SortByLabel => {
                    let _ = writeln!(
                        src,
                        "let {next} := for $n in {prev} order by string($n/@label) return $n"
                    );
                }
            }
        }
        let _ = writeln!(src, "return for $n in $s{step_no} return string($n/@id)");
        src
    }

    /// Runs the compiled XQuery against a freshly exported copy of `model`
    /// (engine construction, export, compile, evaluate — the full cost the
    /// UI would have paid per query).
    pub fn run_xquery(
        &self,
        model: &Model,
        meta: &Metamodel,
    ) -> Result<Vec<NodeRef>, xquery::Error> {
        self.run_xquery_with(EngineOptions::default(), model, meta)
    }

    /// [`Query::run_xquery`] on an engine built with `options`.
    pub fn run_xquery_with(
        &self,
        options: EngineOptions,
        model: &Model,
        meta: &Metamodel,
    ) -> Result<Vec<NodeRef>, xquery::Error> {
        let mut engine = Engine::with_options(options);
        let doc = xmlio::export_to_store(model, engine.store_mut());
        engine.register_document("awb-model", doc);
        self.run_xquery_prepared(&mut engine, model, meta)
    }

    /// Compiles the generated XQuery once against `engine`, so repeated
    /// evaluations (the UI re-running the same query) pay only the lowered
    /// program's run cost, not parse + optimize + lower every time.
    pub fn prepare_xquery(
        &self,
        engine: &Engine,
        meta: &Metamodel,
    ) -> Result<PreparedQuery, xquery::Error> {
        let compiled = engine.compile(&self.to_xquery(meta))?;
        Ok(PreparedQuery { compiled })
    }

    /// Runs the compiled XQuery on an engine that already holds the exported
    /// model (registered as `"awb-model"`). Isolates query-evaluation cost
    /// from export cost in the benches; compiles once per call (use
    /// [`Query::prepare_xquery`] to also amortize compilation).
    pub fn run_xquery_prepared(
        &self,
        engine: &mut Engine,
        model: &Model,
        meta: &Metamodel,
    ) -> Result<Vec<NodeRef>, xquery::Error> {
        self.prepare_xquery(engine, meta)?.run(engine, model)
    }
}

/// A calculus query compiled down to a lowered XQuery program, reusable
/// across evaluations on the engine it was compiled for.
pub struct PreparedQuery {
    compiled: xquery::CompiledQuery,
}

impl PreparedQuery {
    /// Evaluates the prepared program and maps the returned id strings back
    /// to model nodes.
    pub fn run(&self, engine: &mut Engine, model: &Model) -> Result<Vec<NodeRef>, xquery::Error> {
        let out = engine.evaluate(&self.compiled, None)?;
        let mut refs = Vec::with_capacity(out.len());
        for item in out.iter() {
            let id = match item {
                Item::Atomic(a) => a.to_text(),
                Item::Node(n) => engine.store().string_value(*n),
            };
            let node = model.node_from_id_string(&id).ok_or_else(|| {
                xquery::Error::internal(format!("query returned unknown id {id:?}"))
            })?;
            refs.push(node);
        }
        Ok(refs)
    }
}

fn xq_string(s: &str) -> String {
    format!("\"{}\"", s.replace('"', "\"\""))
}

/// Renders a list of names as an XQuery sequence of string literals.
fn string_list(names: &[&str]) -> String {
    if names.is_empty() {
        return "()".to_string();
    }
    let quoted: Vec<String> = names.iter().map(|n| xq_string(n)).collect();
    format!("({})", quoted.join(", "))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::meta::PropType;
    use crate::model::PropValue;

    fn setup() -> (Metamodel, Model) {
        let mut meta = Metamodel::new();
        meta.add_node_type("Thing", None, vec![]);
        meta.add_node_type("user", Some("Thing"), vec![]);
        meta.add_node_type("superuser", Some("user"), vec![]);
        meta.add_node_type("Program", Some("Thing"), vec![("lang", PropType::Str)]);
        meta.add_node_type("System", Some("Thing"), vec![]);
        meta.add_relation_type("likes", None, vec![]);
        meta.add_relation_type("favors", Some("likes"), vec![]);
        meta.add_relation_type("uses", None, vec![]);

        let mut m = Model::new();
        let alice = m.add_node("user", "Alice");
        let root = m.add_node("superuser", "Root");
        let compiler = m.add_node("Program", "Compiler");
        let editor = m.add_node("Program", "Editor");
        let sys = m.add_node("System", "Main");
        m.set_prop(compiler, "lang", PropValue::Str("rust".into()));
        m.set_prop(editor, "lang", PropValue::Str("lisp".into()));
        m.add_relation("likes", alice, root);
        m.add_relation("favors", alice, compiler);
        m.add_relation("uses", root, compiler);
        m.add_relation("uses", root, editor);
        m.add_relation("uses", root, sys);
        (meta, m)
    }

    #[test]
    fn papers_example_query_native() {
        let (meta, m) = setup();
        // "Start at this user; follow likes forwards; follow uses but only
        // to computer programs; collect, sorted by label."
        let q = Query::from_label("Alice")
            .follow("likes")
            .follow_to("uses", "Program")
            .dedup()
            .sort_by_label();
        let out = q.run_native(&m, &meta);
        let labels: Vec<&str> = out.iter().map(|&n| m.label(n)).collect();
        assert_eq!(labels, vec!["Compiler", "Editor"]);
    }

    #[test]
    fn native_and_xquery_agree_on_the_papers_query() {
        let (meta, m) = setup();
        let q = Query::from_label("Alice")
            .follow("likes")
            .follow_to("uses", "Program")
            .dedup()
            .sort_by_label();
        let native = q.run_native(&m, &meta);
        let via_xq = q.run_xquery(&m, &meta).unwrap();
        assert_eq!(native, via_xq);
    }

    #[test]
    fn subtype_expansion_in_both_evaluators() {
        let (meta, m) = setup();
        // likes includes favors: Alice reaches Root and Compiler.
        let q = Query::from_label("Alice").follow("likes").sort_by_label();
        let native = q.run_native(&m, &meta);
        let labels: Vec<&str> = native.iter().map(|&n| m.label(n)).collect();
        assert_eq!(labels, vec!["Compiler", "Root"]);
        assert_eq!(native, q.run_xquery(&m, &meta).unwrap());
        // all.user includes superusers.
        let q = Query::from_type("user").sort_by_label();
        let native = q.run_native(&m, &meta);
        assert_eq!(native.len(), 2);
        assert_eq!(native, q.run_xquery(&m, &meta).unwrap());
    }

    #[test]
    fn backward_follow() {
        let (meta, m) = setup();
        let q = Query::from_label("Compiler")
            .follow_back("uses")
            .sort_by_label();
        let native = q.run_native(&m, &meta);
        let labels: Vec<&str> = native.iter().map(|&n| m.label(n)).collect();
        assert_eq!(labels, vec!["Root"]);
        assert_eq!(native, q.run_xquery(&m, &meta).unwrap());
    }

    #[test]
    fn property_filter() {
        let (meta, m) = setup();
        let q = Query::from_type("Program").filter_property("lang", "rust");
        let native = q.run_native(&m, &meta);
        assert_eq!(native.len(), 1);
        assert_eq!(m.label(native[0]), "Compiler");
        assert_eq!(native, q.run_xquery(&m, &meta).unwrap());
    }

    #[test]
    fn dedup_requires_a_step() {
        let (meta, mut m) = setup();
        let bob = m.add_node("user", "Bob");
        let compiler = m.node_by_label("Compiler").unwrap();
        m.add_relation("uses", bob, compiler);
        let root = m.node_by_label("Root").unwrap();
        m.add_relation("likes", bob, root);
        // Root uses Compiler; Bob uses Compiler: following uses from all
        // users' liked nodes can reach Compiler twice.
        let q = Query::from_type("user").follow("likes").follow("uses");
        let raw = q.run_native(&m, &meta);
        let deduped = q.clone().dedup().run_native(&m, &meta);
        assert!(raw.len() > deduped.len(), "{raw:?} vs {deduped:?}");
        assert_eq!(raw, q.run_xquery(&m, &meta).unwrap());
        let qd = q.dedup();
        assert_eq!(deduped, qd.run_xquery(&m, &meta).unwrap());
    }

    #[test]
    fn xml_surface_form_roundtrip() {
        let q = Query::from_xml(
            r#"<query>
                <start label="Alice"/>
                <follow relation="likes"/>
                <follow relation="uses" target-type="Program"/>
                <dedup/>
                <sort-by-label/>
              </query>"#,
        )
        .unwrap();
        assert_eq!(
            q,
            Query::from_label("Alice")
                .follow("likes")
                .follow_to("uses", "Program")
                .dedup()
                .sort_by_label()
        );
        assert!(
            Query::from_xml("<query><follow relation='x'/></query>").is_err(),
            "no start"
        );
        assert!(
            Query::from_xml("<query><start/><warp/></query>").is_err(),
            "unknown step"
        );
        assert!(Query::from_xml("<nope/>").is_err());
    }

    #[test]
    fn generated_xquery_uses_membership_equals() {
        let (meta, _) = setup();
        let q = Query::from_type("user").follow("likes");
        let src = q.to_xquery(&meta);
        assert!(src.contains(r#"@type = ("superuser", "user")"#), "{src}");
        assert!(src.contains(r#"@type = ("favors", "likes")"#), "{src}");
    }

    #[test]
    fn quotes_in_labels_escape() {
        let mut meta = Metamodel::new();
        meta.add_node_type("T", None, vec![]);
        let mut m = Model::new();
        m.add_node("T", "say \"hi\"");
        let q = Query::from_label("say \"hi\"");
        assert_eq!(q.run_native(&m, &meta).len(), 1);
        assert_eq!(q.run_xquery(&m, &meta).unwrap().len(), 1);
    }

    #[test]
    fn empty_start_yields_empty() {
        let (meta, m) = setup();
        let q = Query::from_label("Nobody").follow("likes");
        assert!(q.run_native(&m, &meta).is_empty());
        assert!(q.run_xquery(&m, &meta).unwrap().is_empty());
    }
}
