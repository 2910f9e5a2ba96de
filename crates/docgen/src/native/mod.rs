//! The native document generator — the paper's Java rewrite, in Rust.
//!
//! Architecture, per the paper: "a quite straightforward recursive walk over
//! the XML structure of the template, inspecting each XML element in turn.
//! AWB directives like for, if, and focus-is-type are dispatched to
//! special-purpose code for execution; everything else is simply copied."
//!
//! The three things that were miserable in XQuery are idiomatic here:
//!
//! * **errors** — every helper returns `Result<_, GenTrouble>` and call
//!   sites use `?`; per-item trouble inside a `<for>` is caught once, at the
//!   loop, and rendered as an error note;
//! * **mutation** — `GenState` accumulates the table of contents and the
//!   visited set during the single walk; placeholders left in the output are
//!   filled by in-place mutation afterwards (no whole-document copies);
//! * **tables** — the row/column table is built as an empty skeleton whose
//!   `<td>`s are stored in a two-dimensional array, then filled "each in a
//!   separate loop. There was no need to mingle the computations of row
//!   titles and cell values."

mod incremental;
mod state;
mod tables;
mod walk;

pub use incremental::{EditFootprint, IncrementalDoc};
pub use state::{ChunkDeps, GenState};

use crate::template::parse_all_spec;
use crate::trouble::GenTrouble;
use crate::GenInputs;
use xmlstore::{NodeId, Store};

/// The result of a native generation run.
#[derive(Debug)]
pub struct NativeOutput {
    /// The output tree lives in its own store.
    pub store: Store,
    /// The `<document>` root element.
    pub root: NodeId,
    /// How many per-item troubles were caught and rendered as error notes.
    pub trouble_count: usize,
}

impl NativeOutput {
    /// Compact XML of the generated document.
    pub fn to_xml(&self) -> String {
        self.store.to_xml(self.root)
    }

    /// Pretty XML of the generated document.
    pub fn to_pretty_xml(&self) -> String {
        self.store.to_pretty_xml(self.root)
    }
}

/// Generates a document. Top-level trouble (outside any `<for>`) aborts;
/// per-item trouble is rendered in place and counted.
pub fn generate(inputs: &GenInputs) -> Result<NativeOutput, GenTrouble> {
    let mut store = Store::new();
    let root = store
        .create_element("document")
        .map_err(|e| GenTrouble::new(format!("internal output-tree error: {e}")))?;
    let mut state = GenState::default();
    let mut cx = walk::Walker {
        inputs,
        out: &mut store,
        state: &mut state,
        focus: None,
        path: vec!["template".to_string()],
        section_depth: 0,
        split: None,
    };
    cx.walk_children(inputs.template.root(), root)?;

    // Post passes, by mutation: "A very modest second phase of computation
    // lets us modify the produced document, cramming in the tables at the
    // appropriate places."
    state.fill_toc(&mut store)?;
    state.fill_omissions(&mut store, inputs)?;
    state.apply_marker_replacements(&mut store, root)?;

    Ok(NativeOutput {
        trouble_count: state.trouble_count,
        store,
        root,
    })
}

/// Resolves a `<for>`/table iteration source written as `all.TYPE`.
pub(crate) fn nodes_of_all_spec(
    spec: &str,
    inputs: &GenInputs,
    path: &str,
) -> Result<Vec<awb::NodeRef>, GenTrouble> {
    match parse_all_spec(spec) {
        Some(ty) => Ok(inputs.model.nodes_of_type(ty, inputs.meta)),
        None => Err(GenTrouble::new(format!(
            "cannot understand the node specification {spec:?} (expected \"all.TYPE\")"
        ))
        .at_template(path.to_string())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::template::Template;
    use awb::{Model, PropValue};

    fn meta() -> awb::Metamodel {
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

    fn gen(template: &str, model: &Model) -> NativeOutput {
        let meta = meta();
        let template = Template::parse(template).unwrap();
        let inputs = GenInputs {
            model,
            meta: &meta,
            template: &template,
        };
        generate(&inputs).unwrap()
    }

    #[test]
    fn passthrough_copies_markup() {
        let m = tiny_model();
        let out = gen(
            r#"<template><h1 class="top">Hello &amp; welcome</h1><p>text</p></template>"#,
            &m,
        );
        assert_eq!(
            out.to_xml(),
            r#"<document><h1 class="top">Hello &amp; welcome</h1><p>text</p></document>"#
        );
    }

    #[test]
    fn papers_for_if_example() {
        let m = tiny_model();
        let out = gen(
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
            &m,
        );
        assert_eq!(
            out.to_xml(),
            "<document><ol><li>alice</li><li><b>root</b></li></ol></document>"
        );
    }

    #[test]
    fn value_of_with_default_and_error() {
        let m = tiny_model();
        let out = gen(
            r#"<template><for nodes="all.Program"><p><value-of property="language"/></p></for></template>"#,
            &m,
        );
        assert_eq!(out.to_xml(), "<document><p>rust</p></document>");

        // Missing property inside <for>: error note, generation continues.
        let out = gen(
            r#"<template><for nodes="all.Program"><p><value-of property="budget"/></p></for><p>after</p></template>"#,
            &m,
        );
        assert_eq!(out.trouble_count, 1);
        assert!(out.to_xml().contains("gen-error"), "{}", out.to_xml());
        assert!(out.to_xml().contains("<p>after</p>"));

        // default= avoids the error.
        let out = gen(
            r#"<template><for nodes="all.Program"><p><value-of property="budget" default="n/a"/></p></for></template>"#,
            &m,
        );
        assert_eq!(out.trouble_count, 0);
        assert_eq!(out.to_xml(), "<document><p>n/a</p></document>");
    }

    #[test]
    fn top_level_trouble_aborts() {
        let meta = meta();
        let m = tiny_model();
        let template = Template::parse(r#"<template><label/></template>"#).unwrap();
        let inputs = GenInputs {
            model: &m,
            meta: &meta,
            template: &template,
        };
        let err = generate(&inputs).unwrap_err();
        assert!(err.message.contains("no focus"), "{}", err.message);
        assert_eq!(err.template_path, "template/label");
    }

    #[test]
    fn sections_and_toc() {
        let m = tiny_model();
        let out = gen(
            r#"<template>
                <table-of-contents/>
                <section heading="Overview"><p>o</p></section>
                <section heading="Details">
                  <section heading="Inner"><p>i</p></section>
                </section>
            </template>"#,
            &m,
        );
        let xml = out.to_xml();
        assert!(xml.contains(r#"<h2 id="overview">Overview</h2>"#), "{xml}");
        assert!(
            xml.contains(r#"<h3 id="inner">Inner</h3>"#),
            "nested deeper: {xml}"
        );
        assert!(
            xml.contains(r##"<li class="lvl-1"><a href="#overview">Overview</a></li>"##),
            "{xml}"
        );
        assert!(
            xml.contains(r##"<li class="lvl-2"><a href="#inner">Inner</a></li>"##),
            "{xml}"
        );
    }

    #[test]
    fn omissions_table_lists_unvisited() {
        let m = tiny_model();
        let out = gen(
            r#"<template>
                <for nodes="all.user"><p><label/></p></for>
                <table-of-omissions types="user,Document"/>
            </template>"#,
            &m,
        );
        let xml = out.to_xml();
        // users were visited; the document was not.
        assert!(xml.contains("<li>spec (Document)</li>"), "{xml}");
        assert!(!xml.contains("<li>alice"), "{xml}");
    }

    #[test]
    fn omissions_empty_message() {
        let m = tiny_model();
        let out = gen(
            r#"<template>
                <for nodes="all.Document"><p><label/></p></for>
                <table-of-omissions types="Document"/>
            </template>"#,
            &m,
        );
        assert!(out.to_xml().contains("no-omissions"), "{}", out.to_xml());
    }

    #[test]
    fn awb_table_shape() {
        let m = tiny_model();
        let out = gen(
            r#"<template><awb-table rows="all.user" cols="all.Program" relation="uses" corner="user\program"/></template>"#,
            &m,
        );
        let xml = out.to_xml();
        assert!(xml.contains(r#"<td>user\program</td>"#), "{xml}");
        assert!(xml.contains("<td>alice</td>"), "{xml}");
        assert!(xml.contains("<td>compiler</td>"), "{xml}");
        // alice uses compiler once; root does not use it.
        assert!(xml.contains("<td>1</td>"), "{xml}");
        assert!(xml.contains("<td/>"), "empty cell for root: {xml}");
    }

    #[test]
    fn list_of_query_results() {
        let m = tiny_model();
        let out = gen(
            r#"<template>
              <list><query><start type="user"/><sort-by-label/></query></list>
            </template>"#,
            &m,
        );
        assert_eq!(
            out.to_xml(),
            r#"<document><ul class="query-list"><li>alice</li><li>root</li></ul></document>"#
        );
    }

    #[test]
    fn for_over_query() {
        let m = tiny_model();
        let out = gen(
            r#"<template>
              <for><query><start label="alice"/><follow relation="uses"/></query><p><label/></p></for>
            </template>"#,
            &m,
        );
        assert_eq!(out.to_xml(), "<document><p>compiler</p></document>");
    }

    #[test]
    fn marker_replacement_splices_text() {
        let m = tiny_model();
        let out = gen(
            r#"<template>
              <marker-content marker="TABLE-1-GOES-HERE"><b>THE TABLE</b></marker-content>
              <p>Before TABLE-1-GOES-HERE after, and TABLE-1-GOES-HERE again.</p>
            </template>"#,
            &m,
        );
        assert_eq!(
            out.to_xml(),
            "<document><p>Before <b>THE TABLE</b> after, and <b>THE TABLE</b> again.</p></document>"
        );
    }

    #[test]
    fn unknown_all_spec_is_trouble() {
        let meta = meta();
        let m = tiny_model();
        let template =
            Template::parse(r#"<template><for nodes="every.user"><label/></for></template>"#)
                .unwrap();
        let inputs = GenInputs {
            model: &m,
            meta: &meta,
            template: &template,
        };
        let err = generate(&inputs).unwrap_err();
        assert!(err.message.contains("every.user"), "{}", err.message);
    }

    #[test]
    fn if_requires_test_and_then() {
        let meta = meta();
        let m = tiny_model();
        for bad in [
            r#"<template><if><then><p/></then></if></template>"#,
            r#"<template><if><test><focus-is-type type="user"/></test></if></template>"#,
        ] {
            let template = Template::parse(bad).unwrap();
            let inputs = GenInputs {
                model: &m,
                meta: &meta,
                template: &template,
            };
            let err = generate(&inputs).unwrap_err();
            assert!(
                err.message.contains("required child"),
                "{bad}: {}",
                err.message
            );
        }
    }

    #[test]
    fn missing_else_is_fine() {
        let mut m = Model::new();
        m.add_node("user", "u");
        let out = gen(
            r#"<template><for nodes="all.user"><if><test><focus-is-type type="superuser"/></test><then><b/></then></if></for></template>"#,
            &m,
        );
        assert_eq!(out.to_xml(), "<document/>");
    }

    #[test]
    fn not_condition() {
        let m = tiny_model();
        let out = gen(
            r#"<template><for nodes="all.user">
                 <if><test><not><focus-is-type type="superuser"/></not></test>
                     <then><p><label/></p></then></if>
               </for></template>"#,
            &m,
        );
        assert_eq!(out.to_xml(), "<document><p>alice</p></document>");
    }

    #[test]
    fn property_conditions() {
        let m = tiny_model();
        let out = gen(
            r#"<template><for nodes="all.Program">
                 <if><test><property-equals name="language" value="rust"/></test>
                     <then><p>R</p></then><else><p>other</p></else></if>
                 <if><test><has-property name="language"/></test><then><p>HAS</p></then></if>
               </for></template>"#,
            &m,
        );
        assert_eq!(out.to_xml(), "<document><p>R</p><p>HAS</p></document>");
    }
}
