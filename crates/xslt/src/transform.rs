//! The transform loop: apply-templates with built-in rules, instruction
//! instantiation, and attribute value templates.

use crate::stylesheet::{CompiledStylesheet, XsltError};
use std::collections::HashMap;
use xmlstore::{intern, NodeId, NodeKind, Store, Sym};
use xquery::{CompiledQuery, Engine, Item};

/// One-shot convenience: compile and run.
pub fn transform_str(stylesheet_xml: &str, input_xml: &str) -> Result<String, XsltError> {
    CompiledStylesheet::compile(stylesheet_xml)?.transform(input_xml)
}

impl CompiledStylesheet {
    /// Transforms an input document; returns the serialized result.
    ///
    /// Runs on the stylesheet's pool worker, as do its XPath compiles and
    /// evaluations: template recursion is bounded (`MAX_DEPTH`), but each
    /// level costs more interpreter frames than small stacks hold.
    pub fn transform(&self, input_xml: &str) -> Result<String, XsltError> {
        self.pool.run(|| self.transform_on_this_thread(input_xml))
    }

    fn transform_on_this_thread(&self, input_xml: &str) -> Result<String, XsltError> {
        let mut engine = Engine::with_pool(Default::default(), self.pool.clone());
        let input_doc = engine
            .load_document(input_xml)
            .map_err(|e| XsltError(format!("input is not well-formed: {e}")))?;
        let mut t = Transformer {
            sheet: self,
            engine,
            cache: HashMap::new(),
            depth: 0,
        };
        let out_doc = t.engine.store_mut().create_document().map_err(internal)?;
        t.apply_templates(input_doc, 1, 1, out_doc)?;
        Ok(t.engine.store().to_xml(out_doc))
    }
}

/// The current node, its position, and the size of the current node list.
#[derive(Clone, Copy)]
struct Ctx {
    node: NodeId,
    position: usize,
    size: usize,
}

/// Template recursion bound: a rule that re-applies itself to the same node
/// (`<xsl:apply-templates select="."/>`) must error, not exhaust the stack.
const MAX_DEPTH: usize = 512;

struct Transformer<'a> {
    sheet: &'a CompiledStylesheet,
    /// Holds both the input document and the output under construction;
    /// XPath in `select=`/`test=` evaluates here.
    engine: Engine,
    /// Compiled `select=`/`test=` expressions, keyed by interned symbol so
    /// repeated template instantiations hash an integer, not the source text.
    cache: HashMap<Sym, CompiledQuery>,
    depth: usize,
}

impl Transformer<'_> {
    fn compiled(&mut self, expr: &str) -> Result<CompiledQuery, XsltError> {
        let key = intern(expr);
        if let Some(q) = self.cache.get(&key) {
            return Ok(q.clone());
        }
        let q = self
            .engine
            .compile(expr)
            .map_err(|e| XsltError(format!("bad XPath {expr:?}: {e}")))?;
        self.cache.insert(key, q.clone());
        Ok(q)
    }

    fn eval(&mut self, expr: &str, ctx: Ctx) -> Result<xquery::Sequence, XsltError> {
        let q = self.compiled(expr)?;
        self.engine
            .evaluate_with_focus(&q, Some((Item::Node(ctx.node), ctx.position, ctx.size)))
            .map_err(|e| XsltError(format!("evaluating {expr:?}: {e}")))
    }

    fn out(&mut self) -> &mut Store {
        self.engine.store_mut()
    }

    fn append_text(&mut self, out_parent: NodeId, text: &str) -> Result<(), XsltError> {
        if text.is_empty() {
            return Ok(());
        }
        // Merge with a trailing text sibling so the output has clean text runs.
        if let Some(&last) = self.engine.store().children(out_parent).last() {
            if self.engine.store().is_text(last) {
                let merged = format!("{}{}", self.engine.store().string_value(last), text);
                self.out().set_text(last, merged).map_err(internal)?;
                return Ok(());
            }
        }
        let node = self.out().create_text(text.to_string()).map_err(internal)?;
        self.out()
            .append_child(out_parent, node)
            .map_err(internal)?;
        Ok(())
    }

    // ------------------------------------------------------------------
    // apply-templates
    // ------------------------------------------------------------------

    fn apply_templates(
        &mut self,
        node: NodeId,
        position: usize,
        size: usize,
        out_parent: NodeId,
    ) -> Result<(), XsltError> {
        if self.depth >= MAX_DEPTH {
            return Err(XsltError(format!(
                "template recursion deeper than {MAX_DEPTH} (a rule probably re-applies itself)"
            )));
        }
        self.depth += 1;
        let result = self.apply_templates_inner(node, position, size, out_parent);
        self.depth -= 1;
        result
    }

    fn apply_templates_inner(
        &mut self,
        node: NodeId,
        position: usize,
        size: usize,
        out_parent: NodeId,
    ) -> Result<(), XsltError> {
        let ctx = Ctx {
            node,
            position,
            size,
        };
        if let Some(rule) = self.sheet.best_rule(self.engine.store(), node) {
            let body = rule.body;
            return self.instantiate_children(body, ctx, out_parent);
        }
        // Built-in rules.
        match self.engine.store().kind(node).clone() {
            NodeKind::Document | NodeKind::Element(_) => {
                let children = self.engine.store().children(node).to_vec();
                let n = children.len();
                for (i, child) in children.into_iter().enumerate() {
                    self.apply_templates(child, i + 1, n, out_parent)?;
                }
                Ok(())
            }
            NodeKind::Text(t) => self.append_text(out_parent, &t),
            NodeKind::Attribute(_, v) => self.append_text(out_parent, &v),
            NodeKind::Comment(_) | NodeKind::Pi(..) => Ok(()),
        }
    }

    // ------------------------------------------------------------------
    // instruction instantiation
    // ------------------------------------------------------------------

    fn instantiate_children(
        &mut self,
        sheet_el: NodeId,
        ctx: Ctx,
        out_parent: NodeId,
    ) -> Result<(), XsltError> {
        for child in self.sheet.store.children(sheet_el).to_vec() {
            self.instantiate(child, ctx, out_parent)?;
        }
        Ok(())
    }

    fn instantiate(
        &mut self,
        sheet_node: NodeId,
        ctx: Ctx,
        out_parent: NodeId,
    ) -> Result<(), XsltError> {
        match self.sheet.store.kind(sheet_node).clone() {
            NodeKind::Text(t) => {
                // Whitespace-only text in the stylesheet is formatting, not
                // output; real text is copied verbatim.
                if !t.chars().all(char::is_whitespace) {
                    self.append_text(out_parent, &t)?;
                }
                Ok(())
            }
            NodeKind::Comment(_) | NodeKind::Pi(..) => Ok(()),
            NodeKind::Attribute(..) | NodeKind::Document => Ok(()),
            NodeKind::Element(name) => {
                let full = name.to_string();
                match full.strip_prefix("xsl:") {
                    Some(local) => self.instruction(local, sheet_node, ctx, out_parent),
                    None => {
                        // Literal result element: copy, with AVT attributes.
                        let el = self.out().create_element(name).map_err(internal)?;
                        self.out().append_child(out_parent, el).map_err(internal)?;
                        for attr in self.sheet.store.attributes(sheet_node).to_vec() {
                            if let NodeKind::Attribute(an, av) = self.sheet.store.kind(attr).clone()
                            {
                                let value = self.avt(&av, ctx)?;
                                self.out().set_attribute(el, an, value).map_err(internal)?;
                            }
                        }
                        self.instantiate_children(sheet_node, ctx, el)
                    }
                }
            }
        }
    }

    fn instruction(
        &mut self,
        local: &str,
        sheet_node: NodeId,
        ctx: Ctx,
        out_parent: NodeId,
    ) -> Result<(), XsltError> {
        match local {
            "value-of" => {
                let select = self.required_attr(sheet_node, "select")?;
                let seq = self.eval(&select, ctx)?;
                // XSLT 1.0: the string value of the first item.
                let text = match seq.items().first() {
                    Some(Item::Node(n)) => self.engine.store().string_value(*n),
                    Some(Item::Atomic(a)) => a.to_text(),
                    None => String::new(),
                };
                self.append_text(out_parent, &text)
            }
            "apply-templates" => {
                let nodes: Vec<NodeId> =
                    match self.sheet.store.attribute_value(sheet_node, "select") {
                        Some(select) => {
                            let select = select.to_string();
                            let seq = self.eval(&select, ctx)?;
                            seq.all_nodes().ok_or_else(|| {
                                XsltError(format!(
                                    "apply-templates select {select:?} returned non-nodes"
                                ))
                            })?
                        }
                        None => self.engine.store().children(ctx.node).to_vec(),
                    };
                let n = nodes.len();
                for (i, node) in nodes.into_iter().enumerate() {
                    self.apply_templates(node, i + 1, n, out_parent)?;
                }
                Ok(())
            }
            "for-each" => {
                let select = self.required_attr(sheet_node, "select")?;
                let seq = self.eval(&select, ctx)?;
                let nodes = seq.all_nodes().ok_or_else(|| {
                    XsltError(format!("for-each select {select:?} returned non-nodes"))
                })?;
                let n = nodes.len();
                for (i, node) in nodes.into_iter().enumerate() {
                    let inner = Ctx {
                        node,
                        position: i + 1,
                        size: n,
                    };
                    self.instantiate_children(sheet_node, inner, out_parent)?;
                }
                Ok(())
            }
            "if" => {
                let test = self.required_attr(sheet_node, "test")?;
                if self.test(&test, ctx)? {
                    self.instantiate_children(sheet_node, ctx, out_parent)?;
                }
                Ok(())
            }
            "choose" => {
                for branch in self.sheet.store.child_elements(sheet_node) {
                    let branch_name = self
                        .sheet
                        .store
                        .name(branch)
                        .map(|q| q.to_string())
                        .unwrap_or_default();
                    match branch_name.as_str() {
                        "xsl:when" => {
                            let test = self.required_attr(branch, "test")?;
                            if self.test(&test, ctx)? {
                                return self.instantiate_children(branch, ctx, out_parent);
                            }
                        }
                        "xsl:otherwise" => {
                            return self.instantiate_children(branch, ctx, out_parent);
                        }
                        other => {
                            return Err(XsltError(format!(
                                "unexpected <{other}> inside xsl:choose"
                            )))
                        }
                    }
                }
                Ok(())
            }
            "copy" => match self.engine.store().kind(ctx.node).clone() {
                NodeKind::Element(name) => {
                    let el = self.out().create_element(name).map_err(internal)?;
                    self.out().append_child(out_parent, el).map_err(internal)?;
                    self.instantiate_children(sheet_node, ctx, el)
                }
                NodeKind::Text(t) => self.append_text(out_parent, &t),
                NodeKind::Attribute(name, value) => {
                    self.out()
                        .set_attribute(out_parent, name, value)
                        .map_err(internal)?;
                    Ok(())
                }
                NodeKind::Document => self.instantiate_children(sheet_node, ctx, out_parent),
                NodeKind::Comment(_) | NodeKind::Pi(..) => Ok(()),
            },
            "copy-of" => {
                let select = self.required_attr(sheet_node, "select")?;
                let seq = self.eval(&select, ctx)?;
                for item in seq.items().to_vec() {
                    match item {
                        Item::Node(n) => {
                            if self.engine.store().is_attribute(n) {
                                if let NodeKind::Attribute(name, value) =
                                    self.engine.store().kind(n).clone()
                                {
                                    self.out()
                                        .set_attribute(out_parent, name, value)
                                        .map_err(internal)?;
                                }
                            } else if self.engine.store().is_document(n) {
                                for child in self.engine.store().children(n).to_vec() {
                                    let copy = self.out().deep_copy(child).map_err(internal)?;
                                    self.out()
                                        .append_child(out_parent, copy)
                                        .map_err(internal)?;
                                }
                            } else {
                                let copy = self.out().deep_copy(n).map_err(internal)?;
                                self.out()
                                    .append_child(out_parent, copy)
                                    .map_err(internal)?;
                            }
                        }
                        Item::Atomic(a) => self.append_text(out_parent, &a.to_text())?,
                    }
                }
                Ok(())
            }
            "text" => {
                // Whitespace is significant inside xsl:text.
                let text = self.sheet.store.string_value(sheet_node);
                self.append_text(out_parent, &text)
            }
            "element" => {
                let name = self.required_attr(sheet_node, "name")?;
                let name = self.avt(&name, ctx)?;
                let el = self.out().create_element(name.as_str()).map_err(internal)?;
                self.out().append_child(out_parent, el).map_err(internal)?;
                self.instantiate_children(sheet_node, ctx, el)
            }
            "attribute" => {
                let name = self.required_attr(sheet_node, "name")?;
                let name = self.avt(&name, ctx)?;
                // Instantiate content into a detached holder, take its text.
                let holder = self
                    .out()
                    .create_element("xslt-attr-holder")
                    .map_err(internal)?;
                self.instantiate_children(sheet_node, ctx, holder)?;
                let value = self.engine.store().string_value(holder);
                self.out()
                    .set_attribute(out_parent, name.as_str(), value)
                    .map_err(|e| XsltError(format!("xsl:attribute: {e}")))?;
                Ok(())
            }
            "call-template" => {
                let name = self.required_attr(sheet_node, "name")?;
                let body = self
                    .sheet
                    .named_template(&name)
                    .ok_or_else(|| XsltError(format!("no template named {name:?}")))?;
                self.instantiate_children(body, ctx, out_parent)
            }
            other => Err(XsltError(format!("unsupported instruction <xsl:{other}>"))),
        }
    }

    fn test(&mut self, expr: &str, ctx: Ctx) -> Result<bool, XsltError> {
        let seq = self.eval(expr, ctx)?;
        xquery::compare::effective_boolean_value(&seq, self.engine.store())
            .map_err(|e| XsltError(format!("test {expr:?}: {e}")))
    }

    fn required_attr(&self, sheet_node: NodeId, name: &str) -> Result<String, XsltError> {
        self.sheet
            .store
            .attribute_value(sheet_node, name)
            .map(str::to_string)
            .ok_or_else(|| {
                let tag = self
                    .sheet
                    .store
                    .name(sheet_node)
                    .map(|q| q.to_string())
                    .unwrap_or_default();
                XsltError(format!("<{tag}> requires a {name}= attribute"))
            })
    }

    /// Attribute value template: literal text with `{expr}` holes
    /// (`{{`/`}}` escape).
    fn avt(&mut self, template: &str, ctx: Ctx) -> Result<String, XsltError> {
        let mut out = String::with_capacity(template.len());
        let mut chars = template.chars().peekable();
        while let Some(c) = chars.next() {
            match c {
                '{' if chars.peek() == Some(&'{') => {
                    chars.next();
                    out.push('{');
                }
                '}' if chars.peek() == Some(&'}') => {
                    chars.next();
                    out.push('}');
                }
                '{' => {
                    let mut expr = String::new();
                    loop {
                        match chars.next() {
                            Some('}') => break,
                            Some(c) => expr.push(c),
                            None => {
                                return Err(XsltError(format!(
                                    "unterminated {{…}} in attribute value template {template:?}"
                                )))
                            }
                        }
                    }
                    let seq = self.eval(&expr, ctx)?;
                    let parts: Vec<String> = seq
                        .items()
                        .iter()
                        .map(|item| match item {
                            Item::Node(n) => self.engine.store().string_value(*n),
                            Item::Atomic(a) => a.to_text(),
                        })
                        .collect();
                    out.push_str(&parts.join(" "));
                }
                other => out.push(other),
            }
        }
        Ok(out)
    }
}

fn internal(e: xmlstore::XmlError) -> XsltError {
    XsltError(format!("internal output error: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    const XSL: &str = r#"xmlns:xsl="http://www.w3.org/1999/XSL/Transform""#;

    fn sheet(body: &str) -> String {
        format!("<xsl:stylesheet {XSL}>{body}</xsl:stylesheet>")
    }

    #[test]
    fn identity_ish_transform() {
        let s = sheet(
            r#"<xsl:template match="/"><xsl:apply-templates/></xsl:template>
               <xsl:template match="item"><xsl:copy><xsl:apply-templates/></xsl:copy></xsl:template>"#,
        );
        let out = transform_str(&s, "<items><item>a</item><item>b</item></items>").unwrap();
        // built-in rule descends through <items>, explicit rule copies items
        assert_eq!(out, "<item>a</item><item>b</item>");
    }

    #[test]
    fn value_of_takes_first_node_string() {
        let s = sheet(
            r#"<xsl:template match="/"><v><xsl:value-of select="doc/x"/></v></xsl:template>"#,
        );
        let out = transform_str(&s, "<doc><x>one</x><x>two</x></doc>").unwrap();
        assert_eq!(out, "<v>one</v>");
    }

    #[test]
    fn for_each_with_position() {
        let s = sheet(
            r#"<xsl:template match="/">
                 <out><xsl:for-each select="doc/i">
                   <n p="{position()}" last="{last()}"><xsl:value-of select="string(.)"/></n>
                 </xsl:for-each></out>
               </xsl:template>"#,
        );
        let out = transform_str(&s, "<doc><i>a</i><i>b</i></doc>").unwrap();
        assert_eq!(
            out,
            r#"<out><n p="1" last="2">a</n><n p="2" last="2">b</n></out>"#
        );
    }

    #[test]
    fn if_and_choose() {
        let s = sheet(
            r#"<xsl:template match="/">
                 <out><xsl:for-each select="doc/i">
                   <xsl:if test="@k = 'y'"><kept/></xsl:if>
                   <xsl:choose>
                     <xsl:when test="@k = 'y'"><y/></xsl:when>
                     <xsl:otherwise><n/></xsl:otherwise>
                   </xsl:choose>
                 </xsl:for-each></out>
               </xsl:template>"#,
        );
        let out = transform_str(&s, "<doc><i k='y'/><i/></doc>").unwrap();
        assert_eq!(out, "<out><kept/><y/><n/></out>");
    }

    #[test]
    fn copy_of_deep_copies() {
        let s = sheet(
            r#"<xsl:template match="/"><out><xsl:copy-of select="doc/part"/></out></xsl:template>"#,
        );
        let out = transform_str(&s, "<doc><part a='1'><x>t</x></part><other/></doc>").unwrap();
        assert_eq!(out, r#"<out><part a="1"><x>t</x></part></out>"#);
    }

    #[test]
    fn computed_element_and_attribute() {
        let s = sheet(
            r#"<xsl:template match="/">
                 <xsl:element name="root">
                   <xsl:attribute name="count"><xsl:value-of select="count(doc/i)"/></xsl:attribute>
                 </xsl:element>
               </xsl:template>"#,
        );
        let out = transform_str(&s, "<doc><i/><i/></doc>").unwrap();
        assert_eq!(out, r#"<root count="2"/>"#);
    }

    #[test]
    fn xsl_text_preserves_whitespace() {
        let s = sheet(
            r#"<xsl:template match="/"><o><xsl:text>  spaced  </xsl:text></o></xsl:template>"#,
        );
        let out = transform_str(&s, "<x/>").unwrap();
        assert_eq!(out, "<o>  spaced  </o>");
    }

    #[test]
    fn named_templates() {
        let s = sheet(
            r#"<xsl:template match="/"><o><xsl:call-template name="h"/></o></xsl:template>
               <xsl:template name="h"><called/></xsl:template>"#,
        );
        let out = transform_str(&s, "<x/>").unwrap();
        assert_eq!(out, "<o><called/></o>");
    }

    #[test]
    fn builtin_rules_copy_text_through() {
        let s = sheet(r#"<xsl:template match="b"><B/></xsl:template>"#);
        let out = transform_str(&s, "<a>one<b/>two</a>").unwrap();
        assert_eq!(out, "oneBtwo".replace('B', "<B/>"));
    }

    #[test]
    fn priorities_pick_the_specific_rule() {
        let s = sheet(
            r#"<xsl:template match="*"><star/></xsl:template>
               <xsl:template match="b"><name/></xsl:template>
               <xsl:template match="c/b"><chain/></xsl:template>"#,
        );
        let out = transform_str(&s, "<c><b/></c>").unwrap();
        // Outermost <c> matches * (star); but the template for <c> doesn't
        // recurse, so the chain rule never fires here…
        assert_eq!(out, "<star/>");
        // …unless we descend:
        let s = sheet(
            r#"<xsl:template match="c"><xsl:apply-templates/></xsl:template>
               <xsl:template match="b"><name/></xsl:template>
               <xsl:template match="c/b"><chain/></xsl:template>"#,
        );
        let out = transform_str(&s, "<c><b/></c>").unwrap();
        assert_eq!(out, "<chain/>");
    }

    #[test]
    fn errors_are_reported() {
        let s = sheet(r#"<xsl:template match="/"><xsl:value-of/></xsl:template>"#);
        assert!(transform_str(&s, "<x/>").unwrap_err().0.contains("select"));
        let s = sheet(r#"<xsl:template match="/"><xsl:frobnicate/></xsl:template>"#);
        assert!(transform_str(&s, "<x/>")
            .unwrap_err()
            .0
            .contains("unsupported instruction"));
        let s = sheet(r#"<xsl:template match="/"><xsl:value-of select="((("/></xsl:template>"#);
        assert!(transform_str(&s, "<x/>")
            .unwrap_err()
            .0
            .contains("bad XPath"));
        let s =
            sheet(r#"<xsl:template match="/"><xsl:call-template name="ghost"/></xsl:template>"#);
        assert!(transform_str(&s, "<x/>").unwrap_err().0.contains("ghost"));
    }

    #[test]
    fn self_recursive_template_errors_cleanly() {
        let s = sheet(
            r#"<xsl:template match="a"><x/><xsl:apply-templates select="."/></xsl:template>"#,
        );
        let err = transform_str(&s, "<a/>").unwrap_err();
        assert!(err.0.contains("recursion"), "{}", err.0);
    }

    /// §Output Streams: "the XQuery component could produce a big XML file
    /// with all the output streams as children of the root element, and a
    /// little XSLT program could split them apart."
    #[test]
    fn output_stream_splitter() {
        let combined = r#"<streams>
            <document><h1>The Report</h1><p>body</p></document>
            <problems><problem>missing version on N4</problem></problems>
        </streams>"#;
        let split_document = sheet(
            r#"<xsl:template match="/"><xsl:copy-of select="streams/document/node()"/></xsl:template>"#,
        );
        let split_problems = sheet(
            r#"<xsl:template match="/"><xsl:copy-of select="streams/problems/node()"/></xsl:template>"#,
        );
        assert_eq!(
            transform_str(&split_document, combined).unwrap(),
            "<h1>The Report</h1><p>body</p>"
        );
        assert_eq!(
            transform_str(&split_problems, combined).unwrap(),
            "<problem>missing version on N4</problem>"
        );
    }
}
