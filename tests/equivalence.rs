//! Experiment E7: "In a few weeks we had pretty much reproduced the power of
//! the XQuery code" — the two generators must produce identical documents on
//! every workload, fault-free or not.

use lopsided::awb::workload::{
    glass_catalog, glass_metamodel, it_architecture, it_metamodel, ItScale,
};
use lopsided::docgen::batch::CompiledPipeline;
use lopsided::docgen::xq::{Phase, XqGenerator, XqOutput, GEN_XQ};
use lopsided::docgen::{self, normalized_equal, GenInputs, IncrementalDoc, Template};
use lopsided::templates;
use lopsided::xquery::EngineOptions;

/// The XQuery pipeline's documents with the runtime passes on and off.
fn xquery_documents(inputs: &GenInputs) -> [XqOutput; 2] {
    [true, false].map(|runtime_opt| {
        let options = EngineOptions {
            runtime_opt,
            ..Default::default()
        };
        CompiledPipeline::new(GEN_XQ, &Phase::ALL, options)
            .and_then(|pipeline| XqGenerator::with_compiled(inputs, &pipeline)?.run())
            .unwrap_or_else(|e| panic!("XQuery generation, runtime_opt {runtime_opt}: {e:?}"))
    })
}

fn assert_engines_agree(
    model: &lopsided::awb::Model,
    meta: &lopsided::awb::Metamodel,
    template: &str,
) {
    let template = Template::parse(template).expect("template parses");
    let inputs = GenInputs {
        model,
        meta,
        template: &template,
    };
    let native = docgen::native::generate(&inputs).expect("native generation");
    for xq in xquery_documents(&inputs) {
        assert!(
            normalized_equal(&native.to_xml(), &xq.xml),
            "engines disagree.\n--- native ---\n{}\n--- xquery ---\n{}",
            native.to_xml(),
            xq.xml
        );
        assert_eq!(
            native.trouble_count, xq.trouble_count,
            "error-note counts disagree"
        );
    }
    let incremental = IncrementalDoc::generate(&inputs).expect("incremental generation");
    assert_eq!(incremental.to_xml(), native.to_xml(), "incremental output");
    assert_eq!(incremental.trouble_count, native.trouble_count);
}

#[test]
fn system_context_on_it_architecture() {
    let meta = it_metamodel();
    for seed in [1, 2, 3] {
        let model = it_architecture(ItScale::about(60), seed);
        assert_engines_agree(&model, &meta, templates::SYSTEM_CONTEXT);
    }
}

#[test]
fn catalogue_on_glass_dealer() {
    let meta = glass_metamodel();
    for seed in [10, 11] {
        let model = glass_catalog(25, seed);
        assert_engines_agree(&model, &meta, templates::GLASS_CATALOGUE);
    }
}

#[test]
fn faulty_template_agrees_including_error_notes() {
    let meta = it_metamodel();
    let model = it_architecture(ItScale::about(60), 4);
    // FAULTY_DOCUMENT_LIST hits documents whose version is missing; both
    // engines must emit the same error notes in the same places.
    assert_engines_agree(&model, &meta, templates::FAULTY_DOCUMENT_LIST);
}

#[test]
fn scaling_template_agrees() {
    let meta = it_metamodel();
    let model = it_architecture(ItScale::about(40), 5);
    let template = templates::scaling_template(6);
    assert_engines_agree(&model, &meta, &template);
}

#[test]
fn empty_model_agrees() {
    let meta = it_metamodel();
    let model = lopsided::awb::Model::new();
    assert_engines_agree(&model, &meta, templates::SYSTEM_CONTEXT);
}

/// An item that fails leaves its error note and nothing else: the XQuery
/// generator drops the failed item's whole value, and the native walk
/// drops what the item added to its state.
fn assert_failed_item_agrees(template: &str) {
    let meta = it_metamodel();
    let model = it_architecture(ItScale::about(30), 1);
    assert_engines_agree(&model, &meta, template);
}

#[test]
fn failed_item_leaves_no_toc_entry() {
    assert_failed_item_agrees(
        r#"<template><table-of-contents/><for nodes="all.Program"><section heading="S"><value-of property="nonexistent"/></section></for></template>"#,
    );
}

#[test]
fn failed_item_leaves_no_marker_definition() {
    assert_failed_item_agrees(
        r#"<template><for nodes="all.Program"><marker-content marker="MZ"><b>Z</b></marker-content><value-of property="nonexistent"/></for><p>MZ</p></template>"#,
    );
}

#[test]
fn failed_item_counts_one_trouble() {
    // Each Program item holds a failing Document loop, then fails itself.
    assert_failed_item_agrees(
        r#"<template><for nodes="all.Program"><for nodes="all.Document"><value-of property="nonexistent"/></for><value-of property="nonexistent"/></for></template>"#,
    );
}

#[test]
fn failed_item_leaves_no_visits() {
    assert_failed_item_agrees(
        r#"<template><for nodes="all.Program"><for nodes="all.Document"><label/></for><value-of property="nonexistent"/></for><table-of-omissions types="Document"/></template>"#,
    );
}

#[test]
fn later_definition_applies_inside_an_earlier_copy() {
    // MB is defined before MA: the copy of MB's content that replaces MB
    // gets MA replaced in it, since MA's turn comes after it is put in.
    let template = r#"<template><marker-content marker="MB"><i>MA</i></marker-content><marker-content marker="MA"><b>A</b></marker-content><p>MB</p></template>"#;
    let meta = it_metamodel();
    let model = it_architecture(ItScale::about(30), 1);
    assert_engines_agree(&model, &meta, template);
    let template = Template::parse(template).expect("template parses");
    let inputs = GenInputs {
        model: &model,
        meta: &meta,
        template: &template,
    };
    let xq = docgen::xq::generate(&inputs).expect("XQuery generation");
    assert!(xq.xml.contains("<p><i><b>A</b></i></p>"), "{}", xq.xml);
}

#[test]
fn nested_definition_comes_after_the_one_around_it() {
    // MI is defined inside MO's content: MO is defined first, so the copy
    // of MO's content gets MI replaced in it.
    let template = r#"<template><marker-content marker="MO"><i><marker-content marker="MI"><b>I</b></marker-content>MI</i></marker-content><p>MO</p></template>"#;
    let meta = it_metamodel();
    let model = it_architecture(ItScale::about(30), 1);
    assert_engines_agree(&model, &meta, template);
    let template = Template::parse(template).expect("template parses");
    let inputs = GenInputs {
        model: &model,
        meta: &meta,
        template: &template,
    };
    let native = docgen::native::generate(&inputs).expect("native generation");
    assert!(
        native.to_xml().contains("<p><i><b>I</b></i></p>"),
        "{}",
        native.to_xml()
    );
}
