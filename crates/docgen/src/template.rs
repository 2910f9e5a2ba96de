//! Template loading and the small shared vocabulary both engines use.

use std::fmt;
use xmlstore::parser::ParseOptions;
use xmlstore::{NodeId, Store};

/// The "System Context" work product for IT-architecture models: exercises
/// every directive — sections and the table of contents, per-type loops,
/// conditionals, property values with and without defaults, the relation
/// table, query-driven lists, omissions, and marker replacement.
pub const SYSTEM_CONTEXT: &str = r#"<template>
  <h1>System Context</h1>
  <table-of-contents/>
  <section heading="The System">
    <for nodes="all.SystemBeingDesigned">
      <p>This document describes <b><label/></b> (tier <value-of property="tier" default="?"/>).</p>
      <p><value-of property="description" default=""/></p>
    </for>
  </section>
  <section heading="Users">
    <ol>
      <for nodes="all.user">
        <li>
          <if>
            <test> <focus-is-type type="superuser"/> </test>
            <then> <b> <label/> </b> </then>
            <else> <label/> </else>
          </if>
        </li>
      </for>
    </ol>
  </section>
  <section heading="Programs by language">
    <for nodes="all.Program">
      <if>
        <test> <property-equals name="language" value="xquery"/> </test>
        <then> <p class="little-language"><label/></p> </then>
        <else> <p><label/> (<value-of property="language" default="unknown"/>)</p> </else>
      </if>
    </for>
  </section>
  <section heading="Deployment">
    <p>Where programs run: SERVER-TABLE-GOES-HERE as measured.</p>
    <marker-content marker="SERVER-TABLE-GOES-HERE">
      <awb-table rows="all.Server" cols="all.Program" relation="runs" corner="server\program"/>
    </marker-content>
  </section>
  <section heading="Who likes what">
    <list>
      <query>
        <start type="user"/>
        <follow relation="likes"/>
        <dedup/>
        <sort-by-label/>
      </query>
    </list>
  </section>
  <section heading="Documents">
    <for nodes="all.Document">
      <p><label/> v<value-of property="version" default="MISSING"/></p>
    </for>
  </section>
  <section heading="Omissions">
    <table-of-omissions types="Document,PerformanceRequirement"/>
  </section>
</template>"#;

/// A parsed template: its own store plus the `<template>` root element.
pub struct Template {
    store: Store,
    root: NodeId,
}

/// Template parse failure.
#[derive(Debug, Clone)]
pub struct TemplateError(pub String);

impl fmt::Display for TemplateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "template error: {}", self.0)
    }
}

impl std::error::Error for TemplateError {}

impl Template {
    /// Parses template XML. Whitespace-only text is stripped (templates are
    /// authored indented; the indentation is not content).
    pub fn parse(xml: &str) -> Result<Template, TemplateError> {
        let mut store = Store::new();
        let doc = store
            .parse_str(xml, &ParseOptions::data_oriented())
            .map_err(|e| TemplateError(e.to_string()))?;
        let root = store
            .document_element(doc)
            .ok_or_else(|| TemplateError("no document element".into()))?;
        if store.name(root).map(|q| q.to_string()) != Some("template".into()) {
            return Err(TemplateError("the root element must be <template>".into()));
        }
        Ok(Template { store, root })
    }

    pub fn store(&self) -> &Store {
        &self.store
    }

    pub fn root(&self) -> NodeId {
        self.root
    }

    /// Serializes the template back to XML (used to hand it to the XQuery
    /// engine, which parses it into its own store).
    pub fn to_xml(&self) -> String {
        self.store.to_xml(self.root)
    }
}

/// Names treated as AWB directives by both engines; everything else is
/// copied through.
pub const DIRECTIVES: &[&str] = &[
    "for",
    "if",
    "label",
    "value-of",
    "section",
    "table-of-contents",
    "table-of-omissions",
    "awb-table",
    "list",
    "marker-content",
    "query",
];

/// Turns a heading into a deterministic anchor slug. Both engines must agree
/// on this, so it is deliberately simple: lowercase alphanumerics, runs of
/// anything else become single dashes.
pub fn slugify(heading: &str) -> String {
    let mut out = String::with_capacity(heading.len());
    let mut dash_pending = false;
    for c in heading.chars() {
        if c.is_ascii_alphanumeric() {
            if dash_pending && !out.is_empty() {
                out.push('-');
            }
            dash_pending = false;
            out.push(c.to_ascii_lowercase());
        } else {
            dash_pending = true;
        }
    }
    out
}

/// Parses a `nodes="all.TYPE"` iteration spec; returns the type name.
pub fn parse_all_spec(spec: &str) -> Option<&str> {
    spec.strip_prefix("all.")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_papers_example() {
        let t = Template::parse(
            r#"<template>
              <ol>
                <for nodes="all.user">
                  <li>
                    <if>
                      <test> <focus-is-type type="superuser"/> </test>
                      <then> <b> <label/> </b> </then>
                      <else> <label/> </else>
                    </if>
                  </li>
                </for>
              </ol>
            </template>"#,
        )
        .unwrap();
        let store = t.store();
        let ol = store.child_elements(t.root())[0];
        assert_eq!(store.name(ol).unwrap().local(), "ol");
        let for_el = store.child_elements(ol)[0];
        assert_eq!(store.attribute_value(for_el, "nodes"), Some("all.user"));
    }

    #[test]
    fn rejects_non_template_roots() {
        assert!(Template::parse("<html/>").is_err());
        assert!(Template::parse("not xml").is_err());
    }

    #[test]
    fn slugs_are_stable_and_ascii() {
        assert_eq!(slugify("System Context"), "system-context");
        assert_eq!(slugify("  A -- B  "), "a-b");
        assert_eq!(slugify("Números!"), "n-meros");
        assert_eq!(slugify(""), "");
        assert_eq!(slugify("already-fine-1"), "already-fine-1");
    }

    #[test]
    fn all_spec_parsing() {
        assert_eq!(parse_all_spec("all.user"), Some("user"));
        assert_eq!(parse_all_spec("some.user"), None);
    }

    #[test]
    fn template_roundtrips_to_xml() {
        let src = r#"<template><p>hello <label/></p></template>"#;
        let t = Template::parse(src).unwrap();
        assert_eq!(t.to_xml(), src);
    }
}
