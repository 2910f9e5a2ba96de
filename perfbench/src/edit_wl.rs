//! The `edit` workload: one caller interleaves model edits that keep an
//! incrementally maintained document up to date with store edits on the
//! XMark corpus, each followed by reads of the refrozen tree.

use std::time::Instant;

use lopsided::awb::workload::{it_architecture, it_metamodel, xmark_auction, ItScale, XmarkScale};
use lopsided::awb::{Metamodel, Model, NodeRef, PropValue};
use lopsided::docgen::{native, EditFootprint, GenInputs, IncrementalDoc, Template};
use lopsided::templates::SYSTEM_CONTEXT;
use lopsided::xmlstore::NodeId;
use lopsided::xquery::{CompiledQuery, Engine};

use crate::hostspeed::{Reference, Sampler};
use crate::report::{EvalTally, Report};
use crate::sched::{self, EditOp, EditSchedule};
use crate::trace::Tracer;
use crate::{queries, stats, Args, SETUP_REPEATS};

/// Nodes in the edited IT model.
const MODEL_NODES: usize = 800;

/// Model edits between reopenings of the document. `apply_edit` detaches
/// the output it replaces, but the detached nodes stay in the document's
/// store (about 18k slots per edit on this model), so a document kept
/// open for the whole run would grow by gigabytes.
const REOPEN_EVERY: u64 = 32;

/// Checks the maintained document against a fresh native run over the
/// current model, then reopens it: a fresh incremental generation.
fn reopen(s: &mut Setup) -> bool {
    let inputs = GenInputs {
        model: &s.model,
        meta: &s.meta,
        template: &s.template,
    };
    let fresh = native::generate(&inputs);
    let same = fresh.is_ok_and(|f| f.to_xml() == s.doc.to_xml());
    match IncrementalDoc::generate(&inputs) {
        Ok(doc) => s.doc = doc,
        Err(_) => return false,
    }
    same
}

struct Setup {
    meta: Metamodel,
    template: Template,
    model: Model,
    programs: Vec<NodeRef>,
    doc: IncrementalDoc,
    engine: Engine,
    corpus_root: NodeId,
    corpus_bytes: usize,
    /// Edit targets: the item element and the compiled read of its
    /// edited attribute.
    items: Vec<(NodeId, CompiledQuery)>,
    join: CompiledQuery,
    model_build_s: f64,
    parse_ms: f64,
}

fn setup(seed: u64) -> Setup {
    let meta = it_metamodel();
    let template = Template::parse(SYSTEM_CONTEXT).expect("the System Context template parses");
    let t = Instant::now();
    let model = it_architecture(ItScale::about(MODEL_NODES), seed);
    let model_build_s = t.elapsed().as_secs_f64();
    let programs = model.nodes_of_type("Program", &meta);
    let doc = IncrementalDoc::generate(&GenInputs {
        model: &model,
        meta: &meta,
        template: &template,
    })
    .expect("the edited document generates");

    let scale = XmarkScale::about(queries::CORPUS_NODES);
    let corpus = xmark_auction(&scale, seed);
    let mut engine = Engine::new();
    let t = Instant::now();
    let corpus_root = engine
        .load_document(&corpus)
        .expect("the XMark corpus parses");
    let parse_ms = t.elapsed().as_secs_f64() * 1e3;

    let wanted = sched::pick_distinct(seed, 3, scale.items, sched::EDIT_ITEMS);
    let items = wanted
        .into_iter()
        .map(|k| {
            let id = format!("item{k}");
            let node = find_item(&engine, corpus_root, &id);
            let read = engine
                .compile(&queries::item_attribute(&id))
                .expect("the attribute read compiles");
            (node, read)
        })
        .collect();
    let join = engine.compile(queries::JOIN).expect("the join compiles");
    Setup {
        meta,
        template,
        model,
        programs,
        doc,
        engine,
        corpus_root,
        corpus_bytes: corpus.len(),
        items,
        join,
        model_build_s,
        parse_ms,
    }
}

/// The `<item id="…">` element under `/site/regions/*`.
fn find_item(engine: &Engine, doc: NodeId, id: &str) -> NodeId {
    let store = engine.store();
    let site = store.child_elements(doc)[0];
    let regions = store.child_elements(site)[0];
    store
        .child_elements(regions)
        .into_iter()
        .flat_map(|region| store.child_elements(region))
        .find(|&item| store.attribute_value(item, "id") == Some(id))
        .expect("every picked item exists")
}

/// Evaluates a read, recording a span with the engine's own queue-wait
/// and on-worker times under it. Returns the serialized result.
fn read(
    engine: &mut Engine,
    query: &CompiledQuery,
    root: NodeId,
    tracer: &mut Tracer,
    tally: &mut EvalTally,
    traced: bool,
) -> Option<String> {
    let span = tracer.begin("xquery.evaluate");
    let out = engine.evaluate(query, Some(root)).ok();
    let stats = *engine.last_stats();
    tracer.reported("xquery.eval.queue_wait", stats.queue_wait_ns);
    tracer.reported("xquery.eval.on_worker", stats.on_worker_ns);
    tracer.end(span);
    if traced {
        tally.add(&stats);
    }
    out.map(|seq| engine.display_sequence(&seq))
}

pub fn run(args: &Args) -> Report {
    let mut report = Report::new(["edit_to_doc", "store_edit", "read_after_edit"], 90.0);
    let (mut build_s, mut parse_ms) = (Vec::new(), Vec::new());
    let mut s = None;
    let mut reference = Reference::default();
    for _ in 0..SETUP_REPEATS {
        report.setup_unit_ms.push(reference.time_unit());
        let t = Instant::now();
        let fresh = setup(args.seed);
        report.setups_s.push(t.elapsed().as_secs_f64());
        build_s.push(fresh.model_build_s);
        parse_ms.push(fresh.parse_ms);
        s = Some(fresh);
    }
    let mut s = s.expect("at least one set-up");
    report
        .values
        .insert("awb.model_build_s", stats::median(&build_s));
    report
        .values
        .insert("xmlstore.parse_ms", stats::median(&parse_ms));
    report.note(
        "model",
        format!(
            "{} nodes, {} programs, {} document chunks",
            s.model.node_count(),
            s.programs.len(),
            s.doc.chunk_count()
        ),
    );
    report.note(
        "corpus",
        format!(
            "XMark, {} records, {} bytes; {} edit items",
            XmarkScale::about(queries::CORPUS_NODES).node_count(),
            s.corpus_bytes,
            s.items.len()
        ),
    );
    report.note("loop", format!(
        "closed, 1 caller; 1 model edit per 2 store edits, each store edit followed by a read; \
         the document is checked and reopened every {REOPEN_EVERY} model edits, outside the ops' timing"
    ));

    let expected_join = {
        let out = s
            .engine
            .evaluate(&s.join, Some(s.corpus_root))
            .expect("the join runs");
        s.engine.display_sequence(&out)
    };
    let mut tracer = Tracer::new(Instant::now());
    let mut tally = EvalTally::default();
    let (mut rerun_frac, mut model_edits, mut traced_model_edits) = (0.0, 0u64, 0u64);
    let mut doc_stats = (0u64, 0u64);
    let mut store_stats = (0u64, 0u64);
    let chunks = s.doc.chunk_count() as f64;
    let mut schedule = EditSchedule::new(args.seed, s.programs.len());
    report.window_unit = "cycle between reopenings of the document";
    let start = Instant::now();
    let mut i = 0usize;
    let mut sampler = Sampler::default();
    while start.elapsed().as_secs_f64() < args.seconds {
        sampler.tick(start.elapsed().as_secs_f64());
        let serial = i + 1;
        let traced = args.trace && i % 2 == 1;
        let op = schedule.next().expect("the schedule is endless");
        tracer.set_op(i as u64, traced);
        match op {
            EditOp::Model(k) => {
                let program = s.programs[k];
                let before = s.doc.store.stats();
                let t = Instant::now();
                let root = tracer.begin("edit_to_doc");
                s.model.set_prop(
                    program,
                    "language",
                    PropValue::Str(format!("lang-{serial}")),
                );
                let inputs = GenInputs {
                    model: &s.model,
                    meta: &s.meta,
                    template: &s.template,
                };
                let footprint = EditFootprint::new().touch_node(program);
                let span = tracer.begin("docgen.incremental.apply_edit");
                let reran = s.doc.apply_edit(&inputs, &footprint);
                tracer.end(span);
                let span = tracer.begin("xmlstore.serialize");
                let xml = s.doc.to_xml();
                tracer.end(span);
                tracer.end(root);
                let ms = t.elapsed().as_secs_f64() * 1e3;
                let ok = reran.is_ok() && xml.contains(&format!("(lang-{serial})"));
                report.op(0, start.elapsed().as_secs_f64(), ms, traced, ok);
                if traced {
                    let after = s.doc.store.stats();
                    doc_stats.0 += after.index_repatches - before.index_repatches;
                    doc_stats.1 += after.index_full_rebuilds - before.index_full_rebuilds;
                    rerun_frac += reran.unwrap_or(0) as f64 / chunks;
                    traced_model_edits += 1;
                }
                model_edits += 1;
                if model_edits % REOPEN_EVERY == 0 {
                    if !reopen(&mut s) {
                        report.fail_checked(1);
                    }
                    report.window_ends.push(start.elapsed().as_secs_f64());
                }
            }
            EditOp::Store(k) => {
                let (item, attr_read) = &s.items[k];
                let value = serial.to_string();
                let before = s.engine.store().stats();
                let t = Instant::now();
                let root = tracer.begin("store_edit");
                let span = tracer.begin("xmlstore.edit");
                let edited = s
                    .engine
                    .store_mut()
                    .set_attribute(*item, "touched", value.as_str());
                tracer.end(span);
                let span = tracer.begin("xmlstore.freeze");
                let frozen = s.engine.store_mut().freeze(s.corpus_root);
                tracer.end(span);
                tracer.end(root);
                let ms = t.elapsed().as_secs_f64() * 1e3;
                report.op(
                    1,
                    start.elapsed().as_secs_f64(),
                    ms,
                    traced,
                    edited.is_ok() && frozen.is_ok(),
                );
                if traced {
                    let after = s.engine.store().stats();
                    store_stats.0 +=
                        after.trees_refrozen_incremental - before.trees_refrozen_incremental;
                    store_stats.1 += after.trees_frozen - before.trees_frozen;
                }

                // The read of the refrozen tree: the edited attribute must
                // read back the value just written, the join its fixed answer.
                let t = Instant::now();
                let root = tracer.begin("read_after_edit");
                let got = read(
                    &mut s.engine,
                    attr_read,
                    s.corpus_root,
                    &mut tracer,
                    &mut tally,
                    traced,
                );
                let join = read(
                    &mut s.engine,
                    &s.join,
                    s.corpus_root,
                    &mut tracer,
                    &mut tally,
                    traced,
                );
                tracer.end(root);
                let ms = t.elapsed().as_secs_f64() * 1e3;
                let ok = got.as_deref() == Some(value.as_str())
                    && join.as_deref() == Some(expected_join.as_str());
                report.op(2, start.elapsed().as_secs_f64(), ms, traced, ok);
            }
        }
        i += 1;
    }
    report.wall_s = start.elapsed().as_secs_f64();
    report.speed = sampler.samples;
    report.note(
        "store slots at end",
        format!(
            "document {}, corpus {}",
            s.doc.store.len(),
            s.engine.store().len()
        ),
    );

    // The incrementally maintained document must equal a fresh run.
    let fresh = native::generate(&GenInputs {
        model: &s.model,
        meta: &s.meta,
        template: &s.template,
    });
    let final_ok = fresh.is_ok_and(|f| f.to_xml() == s.doc.to_xml());
    report.note("final document equals a fresh native run", final_ok);
    if !final_ok {
        report.fail_checked(1);
    }

    report.spans = tracer.into_spans();
    tally.values(&mut report.values);
    report.values.insert(
        "xmlstore.index_repatch_frac",
        stats::ratio(doc_stats.0 as f64, (doc_stats.0 + doc_stats.1) as f64),
    );
    report.values.insert(
        "xmlstore.refreeze_incremental_frac",
        stats::ratio(store_stats.0 as f64, store_stats.1 as f64),
    );
    report.values.insert(
        "docgen.incremental.rerun_frac",
        stats::ratio(rerun_frac, traced_model_edits as f64),
    );
    report
}
