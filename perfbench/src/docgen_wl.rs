//! The `docgen` workload: one caller renders a seeded sequence of
//! IT-architecture models through the System Context template, each model
//! three ways — the five-phase XQuery pipeline (compiled once in set-up),
//! the native generator, and the incremental generator's first full run —
//! and checks that the three documents agree.

use std::time::Instant;

use lopsided::awb::workload::{it_architecture, it_metamodel, ItScale};
use lopsided::awb::{Metamodel, Model};
use lopsided::docgen::batch::CompiledPipeline;
use lopsided::docgen::native;
use lopsided::docgen::xq::XqGenerator;
use lopsided::docgen::{normalized_equal, GenInputs, IncrementalDoc, Template};
use lopsided::templates::SYSTEM_CONTEXT;
use lopsided::xmlstore::Store;

use crate::hostspeed::{Reference, Sampler};
use crate::report::{EvalTally, Report};
use crate::sched;
use crate::trace::Tracer;
use crate::{Args, SETUP_REPEATS};

struct Setup {
    meta: Metamodel,
    template: Template,
    pipeline: CompiledPipeline,
    models: Vec<Model>,
    model_build_s: f64,
}

fn setup(seed: u64) -> Setup {
    let meta = it_metamodel();
    let template = Template::parse(SYSTEM_CONTEXT).expect("the System Context template parses");
    let pipeline = CompiledPipeline::standard().expect("the XQuery pipeline compiles");
    let t = Instant::now();
    let models = sched::docgen_models(seed)
        .into_iter()
        .map(|(size, model_seed)| it_architecture(ItScale::about(size), model_seed))
        .collect();
    Setup {
        meta,
        template,
        pipeline,
        models,
        model_build_s: t.elapsed().as_secs_f64(),
    }
}

/// Renders per model by each of the two fast generators.
const FAST_REPEATS: usize = 5;

/// One native render and its serialization; the XML and error-note count.
fn render_native(inputs: &GenInputs, tracer: &mut Tracer) -> (f64, Option<(String, usize)>) {
    let t = Instant::now();
    let root = tracer.begin("native_doc");
    let gen = tracer.begin("docgen.native.generate");
    let out = native::generate(inputs);
    tracer.end(gen);
    let out = out.ok().map(|out| {
        let ser = tracer.begin("xmlstore.serialize");
        let xml = out.to_xml();
        tracer.end(ser);
        (xml, out.trouble_count)
    });
    tracer.end(root);
    (t.elapsed().as_secs_f64() * 1e3, out)
}

/// One full incremental generation and its serialization.
fn render_incremental(inputs: &GenInputs, tracer: &mut Tracer) -> (f64, Option<String>) {
    let t = Instant::now();
    let root = tracer.begin("incremental_doc");
    let gen = tracer.begin("docgen.incremental.generate");
    let doc = IncrementalDoc::generate(inputs);
    tracer.end(gen);
    let xml = doc.ok().map(|doc| {
        let ser = tracer.begin("xmlstore.serialize");
        let xml = doc.to_xml();
        tracer.end(ser);
        xml
    });
    tracer.end(root);
    (t.elapsed().as_secs_f64() * 1e3, xml)
}

fn phase_span(name: &str) -> &'static str {
    match name {
        "generate" => "docgen.xq.generate",
        "omissions" => "docgen.xq.omissions",
        "toc" => "docgen.xq.toc",
        "markers" => "docgen.xq.markers",
        "strip" => "docgen.xq.strip",
        _ => "docgen.xq.other",
    }
}

pub fn run(args: &Args) -> Report {
    let mut report = Report::new(["xq_doc", "native_doc", "incremental_doc"], 80.0);
    let mut build_s = Vec::new();
    let mut s = None;
    let mut reference = Reference::default();
    for _ in 0..SETUP_REPEATS {
        report.setup_unit_ms.push(reference.time_unit());
        let t = Instant::now();
        let fresh = setup(args.seed);
        report.setups_s.push(t.elapsed().as_secs_f64());
        build_s.push(fresh.model_build_s);
        s = Some(fresh);
    }
    let s = s.expect("at least one set-up");
    report
        .values
        .insert("awb.model_build_s", crate::stats::median(&build_s));
    let sizes: Vec<String> = s.models[..sched::DOCGEN_SIZES.len()]
        .iter()
        .map(|m| m.node_count().to_string())
        .collect();
    report.note("models", format!(
        "pool of {} (the same for every seed, ordered by it, rendered over and over), sizes cycle over about {:?} nodes (first cycle: {} nodes)",
        s.models.len(),
        sched::DOCGEN_SIZES,
        sizes.join(", ")
    ));
    report.note("template", "SYSTEM_CONTEXT");
    report.note(
        "loop",
        format!("closed, 1 caller; per model 1 XQuery render, {FAST_REPEATS} native and {FAST_REPEATS} incremental renders"),
    );

    report.note("peak_rss_mb after set-up", crate::report::peak_rss_mb());
    let mut tracer = Tracer::new(Instant::now());
    let mut tally = EvalTally::default();
    let (mut copied_bytes, mut renders) = (0u64, 0u64);
    report.window_unit = "pass over the model pool";
    let renders_per_model = if args.trace { 2 } else { 1 };
    let start = Instant::now();
    let mut i = 0usize;
    let mut sampler = Sampler::default();
    while start.elapsed().as_secs_f64() < args.seconds {
        sampler.tick(start.elapsed().as_secs_f64());
        // A traced run renders every model twice, once traced, alternating
        // which goes first, so the tracing overhead compares like with like.
        let (model_ix, traced) = if args.trace {
            (i / 2, (i % 2 == 1) != (i / 2 % 2 == 1))
        } else {
            (i, false)
        };
        let model = &s.models[model_ix % s.models.len()];
        let inputs = GenInputs {
            model,
            meta: &s.meta,
            template: &s.template,
        };
        let op = i as u64;

        tracer.set_op(op, traced);
        let t = Instant::now();
        let root = tracer.begin("xq_doc");
        let prep = tracer.begin("docgen.xq.prepare");
        let generator = XqGenerator::with_compiled(&inputs, &s.pipeline);
        tracer.end(prep);
        let xq = generator.and_then(|mut g| {
            let run = tracer.begin("docgen.xq.run");
            let out = g.run();
            if let Ok(out) = &out {
                for phase in &out.phase_reports {
                    let span = tracer.reported(phase_span(phase.name), phase.wall_ns);
                    tracer.reported_under(
                        span,
                        "xquery.eval.queue_wait",
                        phase.stats.queue_wait_ns,
                    );
                    tracer.reported_under(span, "xquery.eval.on_worker", phase.stats.on_worker_ns);
                }
            }
            tracer.end(run);
            out
        });
        tracer.end(root);
        let xq_ms = t.elapsed().as_secs_f64() * 1e3;
        let xq_at = start.elapsed().as_secs_f64();
        sampler.tick(xq_at);
        if traced {
            // The model export inside `prepare` is not reachable from
            // outside, so an identical export into a scratch store
            // measures it.
            let mut scratch = Store::new();
            let export = tracer.begin("awb.export");
            lopsided::awb::xmlio::export_to_store(model, &mut scratch);
            tracer.end(export);
            drop(scratch);
            if let Ok(out) = &xq {
                for phase in &out.phase_reports {
                    tally.add(&phase.stats);
                }
                copied_bytes += out.phase_sizes.iter().sum::<usize>() as u64;
                renders += 1;
            }
        }

        // The native and incremental generators take well under a
        // millisecond, so each renders the model several times; every
        // render is an op of its class.
        let mut native_xml: Option<(String, usize)> = None;
        let mut ok = xq.is_ok();
        for _ in 0..FAST_REPEATS {
            tracer.set_op(op, traced);
            let (ms, out) = render_native(&inputs, &mut tracer);
            let same = match (&out, &native_xml) {
                (Some(out), Some(first)) => out == first,
                (Some(_), None) => true,
                (None, _) => false,
            };
            ok &= same;
            native_xml = native_xml.or(out);
            report.op(1, start.elapsed().as_secs_f64(), ms, traced, same);
        }
        for _ in 0..FAST_REPEATS {
            tracer.set_op(op, traced);
            let (ms, out) = render_incremental(&inputs, &mut tracer);
            let same = out.is_some() && out.as_ref() == native_xml.as_ref().map(|(xml, _)| xml);
            ok &= same;
            report.op(2, start.elapsed().as_secs_f64(), ms, traced, same);
        }

        // The XQuery document must match the native one up to
        // insignificant whitespace, with the same error-note count.
        let xq_ok = ok
            && match (&xq, &native_xml) {
                (Ok(xq), Some((xml, troubles))) => {
                    normalized_equal(&xq.xml, xml) && xq.trouble_count == *troubles
                }
                _ => false,
            };
        report.op(0, xq_at, xq_ms, traced, xq_ok);
        i += 1;
        // A window is one pass over the pool: every window renders the
        // same models.
        if i.is_multiple_of(renders_per_model * s.models.len()) {
            report.window_ends.push(start.elapsed().as_secs_f64());
        }
    }
    report.wall_s = start.elapsed().as_secs_f64();
    report.speed = sampler.samples;
    report.spans = tracer.into_spans();
    tally.values(&mut report.values);
    report.values.insert(
        "docgen.xq.copied_bytes",
        crate::stats::ratio(copied_bytes as f64, renders as f64),
    );
    report
}
