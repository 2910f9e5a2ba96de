//! The recursive template walk — "a hundred lines of code, mostly lines of
//! the form `if ($tag-name = "for") then generate_for(…)`", except that here
//! each special-purpose generator returns `Result` and the call sites are
//! one line each.

use super::state::TocEntry;
use super::{nodes_of_all_spec, tables, GenState};
use crate::template::{parse_all_spec, slugify};
use crate::trouble::GenTrouble;
use crate::GenInputs;
use awb::{NodeRef, Query, QueryStep, StartSet};
use xmlstore::{NodeId, NodeKind, Store};

pub struct Walker<'a, 'b> {
    pub inputs: &'a GenInputs<'a>,
    pub out: &'b mut Store,
    pub state: &'b mut GenState,
    pub focus: Option<NodeRef>,
    pub path: Vec<String>,
    pub section_depth: usize,
}

type Gen<T = ()> = Result<T, GenTrouble>;

impl Walker<'_, '_> {
    fn tpl(&self) -> &Store {
        self.inputs.template.store()
    }

    fn path_string(&self) -> String {
        self.path.join("/")
    }

    fn trouble(&self, message: impl Into<String>) -> GenTrouble {
        let mut t = GenTrouble::new(message).at_template(self.path_string());
        if let Some(focus) = self.focus {
            t = t.with_focus(focus, self.inputs.model.label(focus));
        }
        t
    }

    fn out_err(&self, e: xmlstore::XmlError) -> GenTrouble {
        self.trouble(format!("internal output-tree error: {e}"))
    }

    /// The focus node, or trouble. `requiredChild`-style: the caller's name
    /// goes into the message so the external error is comprehensible.
    fn required_focus(&self, what: &str) -> Gen<NodeRef> {
        self.focus
            .ok_or_else(|| self.trouble(format!("there is no focus node for <{what}/>")))
    }

    fn required_attr(&self, el: NodeId, name: &str) -> Gen<String> {
        self.tpl()
            .attribute_value(el, name)
            .map(str::to_string)
            .ok_or_else(|| {
                let tag = self
                    .tpl()
                    .name(el)
                    .map(|q| q.to_string())
                    .unwrap_or_default();
                self.trouble(format!(
                    "required attribute \"{name}\" is missing on <{tag}>"
                ))
            })
    }

    fn required_child(&self, el: NodeId, name: &str) -> Gen<NodeId> {
        self.tpl().child_element_named(el, name).ok_or_else(|| {
            let tag = self
                .tpl()
                .name(el)
                .map(|q| q.to_string())
                .unwrap_or_default();
            self.trouble(format!("required child <{name}> is missing on <{tag}>"))
        })
    }

    /// Walks all children of a template element into `out_parent`.
    pub fn walk_children(&mut self, tpl_parent: NodeId, out_parent: NodeId) -> Gen {
        for &child in &self.tpl().children(tpl_parent).to_vec() {
            self.walk_node(child, out_parent)?;
        }
        Ok(())
    }

    pub(super) fn walk_node(&mut self, tpl_node: NodeId, out_parent: NodeId) -> Gen {
        match self.tpl().kind(tpl_node).clone() {
            NodeKind::Text(t) => {
                let node = self.out.create_text(t).map_err(|e| self.out_err(e))?;
                self.out
                    .append_child(out_parent, node)
                    .map_err(|e| self.out_err(e))
            }
            NodeKind::Element(name) => {
                let local = name.local().to_string();
                self.path.push(local.clone());
                let result = self.dispatch(&local, tpl_node, out_parent);
                self.path.pop();
                result
            }
            // Comments and PIs in templates are authoring notes, not output.
            _ => Ok(()),
        }
    }

    fn dispatch(&mut self, name: &str, el: NodeId, out_parent: NodeId) -> Gen {
        match name {
            "for" => self.gen_for(el, out_parent),
            "if" => self.gen_if(el, out_parent),
            "label" => {
                let focus = self.required_focus("label")?;
                self.append_text(out_parent, self.inputs.model.label(focus).to_string())
            }
            "value-of" => self.gen_value_of(el, out_parent),
            "section" => self.gen_section(el, out_parent),
            "table-of-contents" => {
                let div = self.create_div("table-of-contents")?;
                self.out
                    .append_child(out_parent, div)
                    .map_err(|e| self.out_err(e))?;
                self.state.toc_placeholders.push(div);
                Ok(())
            }
            "table-of-omissions" => {
                let types: Vec<String> = self
                    .required_attr(el, "types")?
                    .split(',')
                    .map(|s| s.trim().to_string())
                    .filter(|s| !s.is_empty())
                    .collect();
                let div = self.create_div("table-of-omissions")?;
                self.out
                    .append_child(out_parent, div)
                    .map_err(|e| self.out_err(e))?;
                self.state.omission_placeholders.push((div, types));
                Ok(())
            }
            "awb-table" => self.gen_awb_table(el, out_parent),
            "list" => self.gen_list(el, out_parent),
            "marker-content" => self.gen_marker_content(el),
            "query" => Err(self.trouble("<query> is only meaningful inside <for> or <list>")),
            // Everything else is simply copied.
            _ => self.copy_through(el, out_parent),
        }
    }

    fn copy_through(&mut self, el: NodeId, out_parent: NodeId) -> Gen {
        let name = *self.tpl().name(el).expect("element");
        let copy = self.out.create_element(name).map_err(|e| self.out_err(e))?;
        for &attr in &self.tpl().attributes(el).to_vec() {
            if let NodeKind::Attribute(an, av) = self.tpl().kind(attr).clone() {
                self.out
                    .set_attribute(copy, an, av)
                    .map_err(|e| self.out_err(e))?;
            }
        }
        self.out
            .append_child(out_parent, copy)
            .map_err(|e| self.out_err(e))?;
        self.walk_children(el, copy)
    }

    /// Appends a text node unless the text is empty (mirrors XQuery, where
    /// zero-length text nodes are never constructed).
    fn append_text(&mut self, out_parent: NodeId, text: String) -> Gen {
        if text.is_empty() {
            return Ok(());
        }
        let node = self.out.create_text(text).map_err(|e| self.out_err(e))?;
        self.out
            .append_child(out_parent, node)
            .map_err(|e| self.out_err(e))
    }

    /// Resolves an `all.TYPE` spec, folding the type into the chunk's read
    /// set. The resolved nodes are not recorded: enumerating them reads only
    /// the population (covered by the type) and their fixed labels and types.
    /// A directive that then reads a node's properties or edges records the
    /// node itself.
    fn nodes_of_spec_dep(&mut self, spec: &str) -> Gen<Vec<NodeRef>> {
        let nodes = nodes_of_all_spec(spec, self.inputs, &self.path_string())?;
        if let Some(ty) = parse_all_spec(spec) {
            self.state.deps.types.insert(ty.to_string());
        }
        Ok(nodes)
    }

    /// The focus node, recorded in the read set because the caller is about
    /// to read its properties. Recorded before the read, so the error note a
    /// missing property produces is covered too.
    fn focus_props_dep(&mut self, what: &str) -> Gen<NodeRef> {
        let focus = self.required_focus(what)?;
        self.state.deps.nodes.insert(focus);
        Ok(focus)
    }

    /// Runs a calculus query, folding everything it read — the types and
    /// relations it names structurally plus every node the evaluator
    /// actually visited — into the chunk's read set.
    fn run_query_dep(&mut self, query: &Query) -> Vec<NodeRef> {
        let deps = &mut self.state.deps;
        match &query.start {
            StartSet::AllOfType(ty) => {
                deps.types.insert(ty.clone());
            }
            // Label search and all-nodes starts scan the whole population.
            StartSet::NodeByLabel(_) | StartSet::All => deps.any_node = true,
        }
        for step in &query.steps {
            match step {
                QueryStep::Follow {
                    relation,
                    target_type,
                    ..
                } => {
                    deps.relations.insert(relation.clone());
                    if let Some(ty) = target_type {
                        deps.types.insert(ty.clone());
                    }
                }
                QueryStep::FilterType(ty) => {
                    deps.types.insert(ty.clone());
                }
                _ => {}
            }
        }
        let inputs = self.inputs;
        query.run_native_traced(inputs.model, inputs.meta, &mut |n| {
            deps.nodes.insert(n);
        })
    }

    fn create_div(&mut self, class: &str) -> Gen<NodeId> {
        let div = self
            .out
            .create_element("div")
            .map_err(|e| self.out_err(e))?;
        self.out
            .set_attribute(div, "class", class)
            .map_err(|e| self.out_err(e))?;
        Ok(div)
    }

    // ------------------------------------------------------------------
    // <for>
    // ------------------------------------------------------------------

    fn gen_for(&mut self, el: NodeId, out_parent: NodeId) -> Gen {
        // Either nodes="all.T", or a leading <query> child; the body is
        // everything else.
        let (nodes, body): (Vec<NodeRef>, Vec<NodeId>) =
            if let Some(spec) = self.tpl().attribute_value(el, "nodes").map(str::to_string) {
                (
                    self.nodes_of_spec_dep(&spec)?,
                    self.tpl().children(el).to_vec(),
                )
            } else {
                let query_el = self.required_child(el, "query")?;
                let query = Query::from_store(self.tpl(), query_el)
                    .map_err(|e| self.trouble(format!("bad <query>: {e}")))?;
                let nodes = self.run_query_dep(&query);
                let body = self
                    .tpl()
                    .children(el)
                    .iter()
                    .copied()
                    .filter(|&c| c != query_el)
                    .collect();
                (nodes, body)
            };

        for node in nodes {
            self.state.visited.insert(node);
            let saved = self.focus.replace(node);
            // Generate the item into a detached holder so a failed item
            // contributes an error note instead of half an item.
            let holder = self
                .out
                .create_element("item-holder")
                .map_err(|e| self.out_err(e))?;
            let mut result = Ok(());
            for &child in &body {
                result = self.walk_node(child, holder);
                if result.is_err() {
                    break;
                }
            }
            self.focus = saved;
            match result {
                Ok(()) => {
                    for &child in &self.out.children(holder).to_vec() {
                        self.out.detach(child);
                        self.out
                            .append_child(out_parent, child)
                            .map_err(|e| self.out_err(e))?;
                    }
                }
                Err(trouble) => {
                    // "deal with E happening" — once, here, for the whole
                    // item, instead of at every call site.
                    self.state.trouble_count += 1;
                    let span = self
                        .out
                        .create_element("span")
                        .map_err(|e| self.out_err(e))?;
                    self.out
                        .set_attribute(span, "class", "gen-error")
                        .map_err(|e| self.out_err(e))?;
                    let text = self
                        .out
                        .create_text(trouble.message.clone())
                        .map_err(|e| self.out_err(e))?;
                    self.out
                        .append_child(span, text)
                        .map_err(|e| self.out_err(e))?;
                    self.out
                        .append_child(out_parent, span)
                        .map_err(|e| self.out_err(e))?;
                }
            }
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // <if>
    // ------------------------------------------------------------------

    fn gen_if(&mut self, el: NodeId, out_parent: NodeId) -> Gen {
        let test = self.required_child(el, "test")?;
        let then = self.required_child(el, "then")?;
        let cond_el = self
            .tpl()
            .child_elements(test)
            .first()
            .copied()
            .ok_or_else(|| self.trouble("<test> must contain a condition element"))?;
        if self.eval_condition(cond_el)? {
            self.walk_children(then, out_parent)
        } else if let Some(els) = self.tpl().child_element_named(el, "else") {
            self.walk_children(els, out_parent)
        } else {
            Ok(())
        }
    }

    fn eval_condition(&mut self, cond: NodeId) -> Gen<bool> {
        let name = self
            .tpl()
            .name(cond)
            .map(|q| q.to_string())
            .unwrap_or_default();
        match name.as_str() {
            "focus-is-type" => {
                let ty = self.required_attr(cond, "type")?;
                let focus = self.required_focus("focus-is-type")?;
                Ok(self
                    .inputs
                    .meta
                    .is_node_subtype(self.inputs.model.node_type(focus), &ty))
            }
            "has-property" => {
                let prop = self.required_attr(cond, "name")?;
                let focus = self.focus_props_dep("has-property")?;
                Ok(self
                    .inputs
                    .model
                    .prop(focus, &prop)
                    .is_some_and(|v| !v.to_text().trim().is_empty()))
            }
            "property-equals" => {
                let prop = self.required_attr(cond, "name")?;
                let value = self.required_attr(cond, "value")?;
                let focus = self.focus_props_dep("property-equals")?;
                Ok(self
                    .inputs
                    .model
                    .prop(focus, &prop)
                    .is_some_and(|v| v.to_text() == value))
            }
            "not" => {
                let inner = self
                    .tpl()
                    .child_elements(cond)
                    .first()
                    .copied()
                    .ok_or_else(|| self.trouble("<not> must contain a condition element"))?;
                Ok(!self.eval_condition(inner)?)
            }
            other => Err(self.trouble(format!("unknown condition <{other}>"))),
        }
    }

    // ------------------------------------------------------------------
    // <value-of>
    // ------------------------------------------------------------------

    fn gen_value_of(&mut self, el: NodeId, out_parent: NodeId) -> Gen {
        let prop = self.required_attr(el, "property")?;
        let focus = self.focus_props_dep("value-of")?;
        let text = match self.inputs.model.prop(focus, &prop) {
            Some(v) => v.to_text(),
            None => match self.tpl().attribute_value(el, "default") {
                Some(d) => d.to_string(),
                None => {
                    return Err(self.trouble(format!(
                        "There is no property \"{prop}\" on node \"{}\".",
                        self.inputs.model.label(focus)
                    )))
                }
            },
        };
        self.append_text(out_parent, text)
    }

    // ------------------------------------------------------------------
    // <section>
    // ------------------------------------------------------------------

    fn gen_section(&mut self, el: NodeId, out_parent: NodeId) -> Gen {
        let heading = self.required_attr(el, "heading")?;
        let anchor = slugify(&heading);
        self.section_depth += 1;
        let level = self.section_depth;
        self.state.toc.push(TocEntry {
            level,
            heading: heading.clone(),
            anchor: anchor.clone(),
        });
        let div = self.create_div("section")?;
        self.out
            .append_child(out_parent, div)
            .map_err(|e| self.out_err(e))?;
        let h = self
            .out
            .create_element(format!("h{}", (level + 1).min(6)).as_str())
            .map_err(|e| self.out_err(e))?;
        self.out
            .set_attribute(h, "id", anchor)
            .map_err(|e| self.out_err(e))?;
        let text = self.out.create_text(heading).map_err(|e| self.out_err(e))?;
        self.out
            .append_child(h, text)
            .map_err(|e| self.out_err(e))?;
        self.out.append_child(div, h).map_err(|e| self.out_err(e))?;
        let result = self.walk_children(el, div);
        self.section_depth -= 1;
        result
    }

    // ------------------------------------------------------------------
    // <awb-table>
    // ------------------------------------------------------------------

    fn gen_awb_table(&mut self, el: NodeId, out_parent: NodeId) -> Gen {
        let rows_spec = self.required_attr(el, "rows")?;
        let cols_spec = self.required_attr(el, "cols")?;
        let relation = self.required_attr(el, "relation")?;
        let corner = self
            .tpl()
            .attribute_value(el, "corner")
            .unwrap_or("")
            .to_string();
        let mut rows = self.nodes_of_spec_dep(&rows_spec)?;
        let mut cols = self.nodes_of_spec_dep(&cols_spec)?;
        // Cells read only the rows' `relation` edges, and an edge change
        // touches its relation; rows and columns are otherwise only
        // labelled and compared by identity, so no node is recorded.
        self.state.deps.relations.insert(relation.clone());
        let model = self.inputs.model;
        rows.sort_by(|a, b| model.label(*a).cmp(model.label(*b)).then(a.cmp(b)));
        cols.sort_by(|a, b| model.label(*a).cmp(model.label(*b)).then(a.cmp(b)));
        let table =
            tables::build_awb_table(self.out, self.inputs, &rows, &cols, &relation, &corner)?;
        self.out
            .append_child(out_parent, table)
            .map_err(|e| self.out_err(e))
    }

    // ------------------------------------------------------------------
    // <list>
    // ------------------------------------------------------------------

    fn gen_list(&mut self, el: NodeId, out_parent: NodeId) -> Gen {
        let query_el = self.required_child(el, "query")?;
        let query = Query::from_store(self.tpl(), query_el)
            .map_err(|e| self.trouble(format!("bad <query>: {e}")))?;
        let results = self.run_query_dep(&query);
        let ul = self.out.create_element("ul").map_err(|e| self.out_err(e))?;
        self.out
            .set_attribute(ul, "class", "query-list")
            .map_err(|e| self.out_err(e))?;
        for node in results {
            let li = self.out.create_element("li").map_err(|e| self.out_err(e))?;
            self.append_text(li, self.inputs.model.label(node).to_string())?;
            self.out.append_child(ul, li).map_err(|e| self.out_err(e))?;
        }
        self.out
            .append_child(out_parent, ul)
            .map_err(|e| self.out_err(e))
    }

    // ------------------------------------------------------------------
    // <marker-content>
    // ------------------------------------------------------------------

    fn gen_marker_content(&mut self, el: NodeId) -> Gen {
        let marker = self.required_attr(el, "marker")?;
        let holder = self
            .out
            .create_element("marker-holder")
            .map_err(|e| self.out_err(e))?;
        self.walk_children(el, holder)?;
        let content = self.out.children(holder).to_vec();
        self.state.replacements.push((marker, content));
        Ok(())
    }
}
