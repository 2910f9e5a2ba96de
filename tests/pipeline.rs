//! End-to-end pipeline: generate a model, save it through the exchange
//! format, reload it, document it, check the omissions — the full AWB loop.

use lopsided::awb::workload::{it_architecture, it_metamodel, ItScale};
use lopsided::awb::{omissions, xmlio, Query};
use lopsided::docgen::{self, GenInputs, Template};
use lopsided::templates;
use lopsided::xquery::EngineOptions;

#[test]
fn save_load_document_roundtrip() {
    let meta = it_metamodel();
    let model = it_architecture(ItScale::about(80), 99);

    // Save and reload through the exchange format.
    let saved = xmlio::export_string(&model);
    let reloaded = xmlio::import_string(&saved).expect("exchange format re-imports");
    assert_eq!(reloaded.node_count(), model.node_count());
    assert_eq!(reloaded.relation_count(), model.relation_count());

    // The reloaded model documents identically.
    let template = Template::parse(templates::SYSTEM_CONTEXT).unwrap();
    let doc_a = docgen::native::generate(&GenInputs {
        model: &model,
        meta: &meta,
        template: &template,
    })
    .unwrap();
    let doc_b = docgen::native::generate(&GenInputs {
        model: &reloaded,
        meta: &meta,
        template: &template,
    })
    .unwrap();
    assert_eq!(doc_a.to_xml(), doc_b.to_xml());

    // And produces the same omissions.
    let om_a: Vec<String> = omissions::check(&model, &meta)
        .iter()
        .map(|o| o.message.clone())
        .collect();
    let om_b: Vec<String> = omissions::check(&reloaded, &meta)
        .iter()
        .map(|o| o.message.clone())
        .collect();
    assert_eq!(om_a, om_b);
}

#[test]
fn queries_agree_between_ui_and_docgen_implementations() {
    // "It would, of course, be insane to have two implementations of the
    // same query language" — unless they provably agree.
    let meta = it_metamodel();
    let model = it_architecture(ItScale::about(100), 77);
    let queries = [
        Query::from_type("user")
            .follow("likes")
            .dedup()
            .sort_by_label(),
        Query::from_type("user")
            .follow("likes")
            .follow_to("uses", "Program")
            .dedup()
            .sort_by_label(),
        Query::from_type("Server").follow("runs").sort_by_label(),
        Query::from_type("Document").follow_back("has").dedup(),
        Query::from_all().filter_type("superuser").sort_by_label(),
        Query::from_type("Program").filter_property("language", "xquery"),
    ];
    for (i, q) in queries.iter().enumerate() {
        let native = q.run_native(&model, &meta);
        for runtime_opt in [true, false] {
            let options = EngineOptions {
                runtime_opt,
                ..Default::default()
            };
            let xq = q
                .run_xquery_with(options, &model, &meta)
                .unwrap_or_else(|e| panic!("query {i}, runtime_opt {runtime_opt}: {e}"));
            assert_eq!(native, xq, "query {i} disagrees, runtime_opt {runtime_opt}");
        }
    }
}

#[test]
fn generated_document_is_well_formed_xml() {
    let meta = it_metamodel();
    let model = it_architecture(ItScale::about(80), 123);
    let template = Template::parse(templates::SYSTEM_CONTEXT).unwrap();
    let out = docgen::native::generate(&GenInputs {
        model: &model,
        meta: &meta,
        template: &template,
    })
    .unwrap();
    let xml = out.to_xml();
    let mut store = lopsided::xmlstore::Store::new();
    let doc = store
        .parse_str(&xml, &lopsided::xmlstore::parser::ParseOptions::default())
        .expect("output re-parses");
    assert_eq!(
        store
            .name(store.document_element(doc).unwrap())
            .unwrap()
            .local(),
        "document"
    );
}

#[test]
fn omissions_drop_as_the_model_is_completed() {
    let meta = it_metamodel();
    let mut model = it_architecture(ItScale::about(60), 31);
    let before = omissions::check(&model, &meta).len();
    // Fill in every missing version.
    let missing: Vec<_> = model
        .nodes_of_type("Document", &meta)
        .into_iter()
        .filter(|&d| model.prop(d, "version").is_none())
        .collect();
    assert!(!missing.is_empty(), "workload seeds missing versions");
    for d in missing {
        model.set_prop(d, "version", lopsided::awb::PropValue::Str("1.0".into()));
    }
    let after = omissions::check(&model, &meta).len();
    assert!(after < before, "{after} < {before}");
}
