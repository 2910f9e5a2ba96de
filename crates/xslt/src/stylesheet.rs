//! Stylesheet compilation: parse the XSLT document, collect template rules,
//! pre-rank them by (priority, document order).

use crate::pattern::Pattern;
use std::fmt;
use std::sync::Arc;
use xmlstore::parser::ParseOptions;
use xmlstore::{NodeId, Store};
use xquery::StackPool;

/// An XSLT compilation or execution failure.
#[derive(Debug, Clone)]
pub struct XsltError(pub String);

impl fmt::Display for XsltError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "xslt error: {}", self.0)
    }
}

impl std::error::Error for XsltError {}

/// One `<xsl:template>` rule.
#[derive(Debug)]
pub(crate) struct TemplateRule {
    pub pattern: Pattern,
    pub priority: f64,
    /// Document order; later rules win ties.
    pub order: usize,
    /// The `<xsl:template>` element in the stylesheet store.
    pub body: NodeId,
}

/// A compiled, reusable stylesheet.
pub struct CompiledStylesheet {
    /// The parsed stylesheet document (whitespace preserved so that
    /// `<xsl:text>` content survives).
    pub(crate) store: Store,
    pub(crate) rules: Vec<TemplateRule>,
    /// Named templates for `<xsl:call-template>`.
    pub(crate) named: Vec<(String, NodeId)>,
    /// The one-worker pool every transform runs on.
    pub(crate) pool: Arc<StackPool>,
}

impl CompiledStylesheet {
    /// Compiles stylesheet XML.
    pub fn compile(xml: &str) -> Result<Self, XsltError> {
        let mut store = Store::new();
        let doc = store
            .parse_str(xml, &ParseOptions::default())
            .map_err(|e| XsltError(format!("stylesheet is not well-formed: {e}")))?;
        let root = store
            .document_element(doc)
            .ok_or_else(|| XsltError("stylesheet has no document element".into()))?;
        let root_name = store.name(root).map(|q| q.to_string()).unwrap_or_default();
        if root_name != "xsl:stylesheet" && root_name != "xsl:transform" {
            return Err(XsltError(format!(
                "expected <xsl:stylesheet> or <xsl:transform>, found <{root_name}>"
            )));
        }

        let mut rules = Vec::new();
        let mut named = Vec::new();
        for child in store.child_elements(root) {
            let name = store.name(child).map(|q| q.to_string()).unwrap_or_default();
            if name != "xsl:template" {
                return Err(XsltError(format!(
                    "unsupported top-level element <{name}> (only xsl:template)"
                )));
            }
            let match_attr = store.attribute_value(child, "match").map(str::to_string);
            let name_attr = store.attribute_value(child, "name").map(str::to_string);
            if let Some(template_name) = name_attr {
                named.push((template_name, child));
            }
            if let Some(match_text) = match_attr {
                let explicit_priority = store
                    .attribute_value(child, "priority")
                    .map(|p| {
                        p.trim()
                            .parse::<f64>()
                            .map_err(|_| XsltError(format!("bad priority {p:?}")))
                    })
                    .transpose()?;
                for pattern in Pattern::parse_union(&match_text).map_err(XsltError)? {
                    let priority = explicit_priority.unwrap_or_else(|| pattern.default_priority());
                    rules.push(TemplateRule {
                        pattern,
                        priority,
                        order: rules.len(),
                        body: child,
                    });
                }
            }
        }
        Ok(CompiledStylesheet {
            store,
            rules,
            named,
            pool: Arc::new(StackPool::new(1)),
        })
    }

    /// The best rule for `node` in `input`: highest (priority, order).
    pub(crate) fn best_rule(&self, input: &Store, node: NodeId) -> Option<&TemplateRule> {
        self.rules
            .iter()
            .filter(|r| r.pattern.matches(input, node))
            .max_by(|a, b| {
                a.priority
                    .partial_cmp(&b.priority)
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then(a.order.cmp(&b.order))
            })
    }

    pub(crate) fn named_template(&self, name: &str) -> Option<NodeId> {
        self.named
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, body)| *body)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SHEET: &str = r#"
      <xsl:stylesheet xmlns:xsl="http://www.w3.org/1999/XSL/Transform">
        <xsl:template match="/"><root/></xsl:template>
        <xsl:template match="b">general</xsl:template>
        <xsl:template match="c/b" priority="2">specific</xsl:template>
        <xsl:template match="a|text()">union</xsl:template>
        <xsl:template name="helper">called</xsl:template>
      </xsl:stylesheet>"#;

    #[test]
    fn compiles_and_ranks() {
        let sheet = CompiledStylesheet::compile(SHEET).unwrap();
        // 1 root + 1 b + 1 c/b + 2 union = 5 match rules
        assert_eq!(sheet.rules.len(), 5);
        assert!(sheet.named_template("helper").is_some());
        assert!(sheet.named_template("nope").is_none());

        let mut input = Store::new();
        let doc = input
            .parse_str("<a><c><b/></c></a>", &ParseOptions::default())
            .unwrap();
        let a = input.document_element(doc).unwrap();
        let c = input.child_elements(a)[0];
        let b = input.child_elements(c)[0];
        // c/b has explicit priority 2 and beats the bare name rule.
        let rule = sheet.best_rule(&input, b).unwrap();
        assert_eq!(rule.priority, 2.0);
        assert!(sheet.best_rule(&input, doc).is_some());
        assert!(sheet.best_rule(&input, a).is_some());
    }

    #[test]
    fn rejects_bad_stylesheets() {
        assert!(CompiledStylesheet::compile("<not-a-stylesheet/>").is_err());
        assert!(CompiledStylesheet::compile("<xsl:stylesheet><div/></xsl:stylesheet>").is_err());
        assert!(CompiledStylesheet::compile(
            "<xsl:stylesheet><xsl:template match='a' priority='high'/></xsl:stylesheet>"
        )
        .is_err());
        assert!(CompiledStylesheet::compile("garbage").is_err());
    }

    #[test]
    fn later_rule_wins_ties() {
        let sheet = CompiledStylesheet::compile(
            r#"<xsl:stylesheet xmlns:xsl="http://www.w3.org/1999/XSL/Transform">
                 <xsl:template match="x">first</xsl:template>
                 <xsl:template match="x">second</xsl:template>
               </xsl:stylesheet>"#,
        )
        .unwrap();
        let mut input = Store::new();
        let doc = input.parse_str("<x/>", &ParseOptions::default()).unwrap();
        let x = input.document_element(doc).unwrap();
        let rule = sheet.best_rule(&input, x).unwrap();
        assert_eq!(rule.order, 1);
    }
}
