//! Running the XQuery document generator: the five-phase pipeline.
//!
//! Each phase is a standalone XQuery program (the `.xq` files beside this
//! module) evaluated by the workspace engine. Phase 1 generates the document
//! with `<INTERNAL-DATA>` breadcrumbs; phases 2–5 each copy the entire
//! document: omissions, table of contents, marker replacement, and finally
//! stripping the scaffolding. "It was fairly inefficient, requiring multiple
//! copies of the entire output … This wasn't horrible, though it wasn't
//! entirely pleasant either."

use crate::batch::CompiledPipeline;
use crate::trouble::GenTrouble;
use crate::GenInputs;
use std::sync::Arc;
use xmlstore::NodeId;
use xquery::{CompiledQuery, Engine, EvalStats, Item, ReuseStats, TraceEvent, TraceSink};

/// Phase-1 source: the generator proper.
pub const GEN_XQ: &str = include_str!("gen.xq");
/// Phase-1 source, ablation variant: the same generator written with the
/// `try/catch` extension (the paper's moral #4) instead of the error-value
/// convention. Same output, far less ceremony — see `paper_tables -- morals`.
pub const GEN_TC_XQ: &str = include_str!("gen_tc.xq");
/// Phase-2 source: table of omissions.
pub const OMISSIONS_XQ: &str = include_str!("omissions.xq");
/// Phase-3 source: table of contents.
pub const TOC_XQ: &str = include_str!("toc.xq");
/// Phase-4 source: marker replacement.
pub const MARKERS_XQ: &str = include_str!("markers.xq");
/// Phase-5 source: strip INTERNAL-DATA.
pub const STRIP_XQ: &str = include_str!("strip.xq");

/// All shipped sources, for line counting (experiment E6).
pub const ALL_SOURCES: &[(&str, &str)] = &[
    ("gen.xq", GEN_XQ),
    ("omissions.xq", OMISSIONS_XQ),
    ("toc.xq", TOC_XQ),
    ("markers.xq", MARKERS_XQ),
    ("strip.xq", STRIP_XQ),
];

/// The pipeline phases after generation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    Omissions,
    Toc,
    Markers,
    Strip,
}

impl Phase {
    /// The standard pipeline, in the paper's order.
    pub const ALL: [Phase; 4] = [Phase::Omissions, Phase::Toc, Phase::Markers, Phase::Strip];

    pub(crate) fn source(self) -> &'static str {
        match self {
            Phase::Omissions => OMISSIONS_XQ,
            Phase::Toc => TOC_XQ,
            Phase::Markers => MARKERS_XQ,
            Phase::Strip => STRIP_XQ,
        }
    }

    /// The phase's name as it appears in reports and trace events.
    pub fn name(self) -> &'static str {
        match self {
            Phase::Omissions => "omissions",
            Phase::Toc => "toc",
            Phase::Markers => "markers",
            Phase::Strip => "strip",
        }
    }
}

/// What one pipeline phase cost: wall time plus the engine's per-query
/// counter block for that evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhaseReport {
    /// `"generate"` for phase 1, then the [`Phase::name`] of each copy pass.
    pub name: &'static str,
    /// Wall-clock time of the phase's evaluation, nanoseconds.
    pub wall_ns: u64,
    /// The engine's counters for exactly this phase's query.
    pub stats: EvalStats,
    /// The engine's reuse counters (keyed split probes, memo hits) for it.
    pub reuse: ReuseStats,
}

/// The result of an XQuery-pipeline run.
#[derive(Debug)]
pub struct XqOutput {
    /// Final serialized document.
    pub xml: String,
    /// Error notes (`gen-error` spans) present in the final document.
    pub trouble_count: usize,
    /// Serialized size after phase 1 and after each later phase — the
    /// "multiple copies of the entire output" the paper paid for.
    pub phase_sizes: Vec<usize>,
    /// Per-phase wall time and engine counters, index-aligned with
    /// `phase_sizes`.
    pub phase_reports: Vec<PhaseReport>,
}

impl XqOutput {
    /// All phase counters merged into one block (timing fields included, so
    /// `queue_wait_ns`/`on_worker_ns` become pipeline totals).
    pub fn total_stats(&self) -> EvalStats {
        let mut total = EvalStats::default();
        for report in &self.phase_reports {
            total.merge(&report.stats);
        }
        total
    }
}

/// A prepared XQuery generator: an engine with model/metamodel/template
/// loaded, running a [`CompiledPipeline`]'s programs — each
/// [`CompiledQuery`] carries its lowered, slot-resolved program, so
/// repeated runs skip parse/optimize/lower entirely. Reusable across runs
/// (benches).
pub struct XqGenerator {
    engine: Engine,
    pipeline: CompiledPipeline,
}

impl XqGenerator {
    /// Prepares a generator for the given inputs with the standard pipeline.
    pub fn new(inputs: &GenInputs) -> Result<Self, GenTrouble> {
        XqGenerator::with_compiled(inputs, &CompiledPipeline::standard()?)
    }

    /// Prepares a generator around an already compiled pipeline: the engine
    /// and its documents are per-generator, the programs are the pipeline's
    /// `Arc`-shared ones — no compilation at all. The engine takes the
    /// options the pipeline was compiled with, so its plans run on the
    /// runtime they were lowered for, and runs on the pipeline's pool.
    pub fn with_compiled(
        inputs: &GenInputs,
        pipeline: &CompiledPipeline,
    ) -> Result<Self, GenTrouble> {
        let mut engine = Engine::with_pool(pipeline.options.clone(), Arc::clone(&pipeline.pool));
        let model_doc = awb::xmlio::export_to_store(inputs.model, engine.store_mut());
        engine.register_document("awb-model", model_doc);
        let meta_doc = awb::xmlio::export_metamodel_to_store(inputs.meta, engine.store_mut());
        engine.register_document("awb-meta", meta_doc);
        let template_doc = engine
            .load_document(&inputs.template.to_xml())
            .map_err(|e| GenTrouble::new(format!("template load failed: {e}")))?;
        engine.register_document("template", template_doc);
        Ok(XqGenerator {
            engine,
            pipeline: pipeline.clone(),
        })
    }

    /// Installs a trace sink on the pipeline's engine: it sees every
    /// `fn:trace` event fired by the phase sources, plus one `docgen-phase`
    /// event per completed phase (wall time in the value).
    pub fn set_trace_sink(&mut self, sink: Box<dyn TraceSink>) {
        self.engine.set_trace_sink(sink);
    }

    /// Runs the whole pipeline once.
    pub fn run(&mut self) -> Result<XqOutput, GenTrouble> {
        let mut phase_sizes = Vec::with_capacity(1 + self.pipeline.phases.len());
        let mut phase_reports = Vec::with_capacity(1 + self.pipeline.phases.len());

        let gen_query = self.pipeline.generator.clone();
        let mut current = self.timed_phase("generate", &gen_query, None, &mut phase_reports)?;
        for i in 0..self.pipeline.phases.len() {
            phase_sizes.push(self.engine.store().to_xml(current).len());
            let (phase, query) = self.pipeline.phases[i].clone();
            current = self.timed_phase(phase.name(), &query, Some(current), &mut phase_reports)?;
        }
        // The finished document is serialized once, for its size and text.
        let xml = self.engine.store().to_xml(current);
        phase_sizes.push(xml.len());
        let trouble_count = xml.matches("class=\"gen-error\"").count();
        Ok(XqOutput {
            xml,
            trouble_count,
            phase_sizes,
            phase_reports,
        })
    }

    /// One phase evaluation wrapped in observability: wall time around the
    /// evaluation, the engine's counter block for it, and a `docgen-phase`
    /// trace event routed through the same sink `fn:trace` uses.
    fn timed_phase(
        &mut self,
        name: &'static str,
        query: &CompiledQuery,
        doc: Option<NodeId>,
        reports: &mut Vec<PhaseReport>,
    ) -> Result<NodeId, GenTrouble> {
        let started = std::time::Instant::now();
        let result = self.eval_to_element(query, doc);
        let wall_ns = started.elapsed().as_nanos() as u64;
        let stats = *self.engine.last_stats();
        reports.push(PhaseReport {
            name,
            wall_ns,
            stats,
            reuse: *self.engine.last_reuse_stats(),
        });
        self.engine.emit_trace(TraceEvent {
            label: "docgen-phase".to_string(),
            value: format!(
                "{name}: {wall_ns}ns, {} index hits, {} join probes, {} items",
                stats.index_hits, stats.join_probes, stats.items_allocated
            ),
            position: (0, 0),
        });
        result
    }

    fn eval_to_element(
        &mut self,
        query: &CompiledQuery,
        doc: Option<NodeId>,
    ) -> Result<NodeId, GenTrouble> {
        if let Some(d) = doc {
            self.engine.bind_node("doc", d);
        }
        let out = self
            .engine
            .evaluate(query, None)
            .map_err(|e| GenTrouble::new(format!("XQuery evaluation failed: {e}")))?;
        let node = match out.as_singleton() {
            Some(Item::Node(n)) => *n,
            _ => {
                return Err(GenTrouble::new(format!(
                    "the XQuery phase returned {} items instead of one element",
                    out.len()
                )))
            }
        };
        // A top-level <gen-error> aborts, mirroring the native engine.
        if self
            .engine
            .store()
            .name(node)
            .is_some_and(|q| q.display_is("gen-error"))
        {
            let message = self
                .engine
                .store()
                .child_element_named(node, "message")
                .map(|m| self.engine.store().string_value(m))
                .unwrap_or_else(|| "unknown generation error".to_string());
            return Err(GenTrouble::new(message));
        }
        Ok(node)
    }
}

/// One-shot convenience: prepare and run the full pipeline.
pub fn generate(inputs: &GenInputs) -> Result<XqOutput, GenTrouble> {
    XqGenerator::new(inputs)?.run()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::template::Template;
    use awb::{Model, PropValue};
    use xquery::EngineOptions;

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

    /// Runs `source` and `phases` through a pipeline compiled with `options`.
    fn run_pipeline(
        inputs: &GenInputs,
        source: &str,
        phases: &[Phase],
        options: EngineOptions,
    ) -> Result<XqOutput, GenTrouble> {
        let pipeline = CompiledPipeline::new(source, phases, options)?;
        XqGenerator::with_compiled(inputs, &pipeline)?.run()
    }

    fn gen(template: &str, model: &Model) -> XqOutput {
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
    fn passthrough_matches_native() {
        let m = tiny_model();
        let out = gen(
            r#"<template><h1 class="top">Hello</h1><p>text</p></template>"#,
            &m,
        );
        assert_eq!(
            out.xml,
            r#"<document><h1 class="top">Hello</h1><p>text</p></document>"#
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
            out.xml,
            "<document><ol><li>alice</li><li><b>root</b></li></ol></document>"
        );
    }

    #[test]
    fn error_note_and_continue() {
        let m = tiny_model();
        let out = gen(
            r#"<template><for nodes="all.Program"><p><value-of property="budget"/></p></for><p>after</p></template>"#,
            &m,
        );
        assert_eq!(out.trouble_count, 1);
        assert!(out.xml.contains(
            r#"<span class="gen-error">There is no property "budget" on node "compiler".</span>"#
        ), "{}", out.xml);
        assert!(out.xml.contains("<p>after</p>"));
    }

    #[test]
    fn top_level_error_aborts() {
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
    }

    #[test]
    fn phases_strip_internal_data() {
        let m = tiny_model();
        let out = gen(
            r#"<template><for nodes="all.user"><p><label/></p></for></template>"#,
            &m,
        );
        assert!(!out.xml.contains("INTERNAL-DATA"), "{}", out.xml);
        assert!(!out.xml.contains("VISITED"), "{}", out.xml);
        // phase sizes recorded for 1 + 4 phases
        assert_eq!(out.phase_sizes.len(), 5);
        // the pre-strip copies are larger than the final document
        assert!(out.phase_sizes[0] > out.phase_sizes[4]);
    }

    /// Every phase reports its wall time and counter block, the totals
    /// merge, and each completed phase announces itself through the trace
    /// sink — the pipeline's costs are observable from outside.
    #[test]
    fn phase_reports_and_trace_sink() {
        #[derive(Clone, Default)]
        struct SharedSink(std::sync::Arc<std::sync::Mutex<Vec<TraceEvent>>>);
        impl TraceSink for SharedSink {
            fn event(&mut self, event: TraceEvent) {
                self.0.lock().unwrap().push(event);
            }
        }

        let meta = meta();
        let m = tiny_model();
        let template =
            Template::parse(r#"<template><for nodes="all.user"><p><label/></p></for></template>"#)
                .unwrap();
        let inputs = GenInputs {
            model: &m,
            meta: &meta,
            template: &template,
        };
        let sink = SharedSink::default();
        let mut generator = XqGenerator::new(&inputs).unwrap();
        generator.set_trace_sink(Box::new(sink.clone()));
        let out = generator.run().unwrap();

        assert_eq!(out.phase_reports.len(), 5);
        assert_eq!(out.phase_reports[0].name, "generate");
        assert_eq!(out.phase_reports[4].name, "strip");
        assert!(out.phase_reports.iter().all(|r| r.wall_ns > 0));
        // The generator phase walks the model document; something must
        // have been allocated into its result.
        assert!(out.phase_reports[0].stats.items_allocated > 0);
        let total = out.total_stats();
        assert_eq!(
            total.items_allocated,
            out.phase_reports
                .iter()
                .map(|r| r.stats.items_allocated)
                .sum::<u64>()
        );

        let events = sink.0.lock().unwrap().clone();
        let phase_events: Vec<&TraceEvent> = events
            .iter()
            .filter(|e| e.label == "docgen-phase")
            .collect();
        assert_eq!(phase_events.len(), 5, "{events:?}");
        assert!(phase_events[0].value.starts_with("generate:"));
        assert!(phase_events[4].value.starts_with("strip:"));
    }

    #[test]
    fn toc_and_omissions_render() {
        let m = tiny_model();
        let out = gen(
            r#"<template>
                <table-of-contents/>
                <section heading="Overview"><p>o</p></section>
                <for nodes="all.user"><p><label/></p></for>
                <table-of-omissions types="user,Document"/>
            </template>"#,
            &m,
        );
        assert!(
            out.xml
                .contains(r##"<li class="lvl-1"><a href="#overview">Overview</a></li>"##),
            "{}",
            out.xml
        );
        assert!(out.xml.contains("<li>spec (Document)</li>"), "{}", out.xml);
        assert!(
            !out.xml.contains("<li>alice ("),
            "visited users are not omitted: {}",
            out.xml
        );
    }

    #[test]
    fn marker_replacement() {
        let m = tiny_model();
        let out = gen(
            r#"<template>
              <marker-content marker="TABLE-1-GOES-HERE"><b>THE TABLE</b></marker-content>
              <p>Before TABLE-1-GOES-HERE after, and TABLE-1-GOES-HERE again.</p>
            </template>"#,
            &m,
        );
        assert_eq!(
            out.xml,
            "<document><p>Before <b>THE TABLE</b> after, and <b>THE TABLE</b> again.</p></document>"
        );
    }

    /// Partial pipelines (experiment E2's knob) behave sensibly: without
    /// the strip phase the INTERNAL-DATA scaffolding survives; each phase
    /// consumes exactly its own markers.
    #[test]
    fn partial_phase_pipelines() {
        let meta = meta();
        let m = tiny_model();
        let template = Template::parse(
            r#"<template>
                <table-of-contents/>
                <section heading="Users"><for nodes="all.user"><p><label/></p></for></section>
                <table-of-omissions types="Document"/>
            </template>"#,
        )
        .unwrap();
        let inputs = GenInputs {
            model: &m,
            meta: &meta,
            template: &template,
        };

        // No phases at all: scaffolding everywhere, nothing rendered.
        let raw = run_pipeline(&inputs, GEN_XQ, &[], EngineOptions::default()).unwrap();
        assert!(raw.xml.contains("<INTERNAL-DATA-TOC/>"), "{}", raw.xml);
        assert!(raw.xml.contains("INTERNAL-DATA-OMISSIONS"), "{}", raw.xml);
        assert!(raw.xml.contains("<VISITED"), "{}", raw.xml);

        // Only the omissions phase: its marker is consumed, the others stay.
        let om = run_pipeline(
            &inputs,
            GEN_XQ,
            &[Phase::Omissions],
            EngineOptions::default(),
        )
        .unwrap();
        assert!(!om.xml.contains("INTERNAL-DATA-OMISSIONS"), "{}", om.xml);
        assert!(om.xml.contains("class=\"omissions\"") || om.xml.contains("no-omissions"));
        assert!(om.xml.contains("<INTERNAL-DATA-TOC/>"));

        // Only the toc phase.
        let toc = run_pipeline(&inputs, GEN_XQ, &[Phase::Toc], EngineOptions::default()).unwrap();
        assert!(!toc.xml.contains("INTERNAL-DATA-TOC"), "{}", toc.xml);
        assert!(toc.xml.contains("class=\"toc\""));

        // Strip alone removes every trace of the scaffolding.
        let stripped =
            run_pipeline(&inputs, GEN_XQ, &[Phase::Strip], EngineOptions::default()).unwrap();
        assert!(!stripped.xml.contains("INTERNAL-DATA"), "{}", stripped.xml);
        assert!(!stripped.xml.contains("VISITED"));
    }

    /// The try/catch ablation generator must match the error-value one
    /// byte for byte — including the error notes.
    #[test]
    fn try_catch_variant_matches() {
        let meta = meta();
        let m = tiny_model();
        for template_src in [
            r#"<template><for nodes="all.user"><p><label/></p></for></template>"#,
            r#"<template><for nodes="all.Program"><p><value-of property="budget"/></p></for><p>after</p></template>"#,
            r#"<template>
                <table-of-contents/>
                <section heading="Overview"><for nodes="all.user"><p><label/></p></for></section>
                <marker-content marker="T1"><b>THE TABLE</b></marker-content>
                <p>see T1 here</p>
                <table-of-omissions types="user,Document"/>
            </template>"#,
        ] {
            let template = Template::parse(template_src).unwrap();
            let inputs = GenInputs {
                model: &m,
                meta: &meta,
                template: &template,
            };
            let classic = generate(&inputs).unwrap();
            let tc =
                run_pipeline(&inputs, GEN_TC_XQ, &Phase::ALL, EngineOptions::default()).unwrap();
            assert_eq!(classic.xml, tc.xml, "template: {template_src}");
            assert_eq!(classic.trouble_count, tc.trouble_count);
        }
    }

    #[test]
    fn try_catch_variant_aborts_on_top_level_error() {
        let meta = meta();
        let m = tiny_model();
        let template = Template::parse(r#"<template><label/></template>"#).unwrap();
        let inputs = GenInputs {
            model: &m,
            meta: &meta,
            template: &template,
        };
        let err =
            run_pipeline(&inputs, GEN_TC_XQ, &Phase::ALL, EngineOptions::default()).unwrap_err();
        assert!(err.message.contains("no focus"), "{}", err.message);
    }

    #[test]
    fn generator_hoists_the_table_and_follow_prefixes() {
        // The awb-table cell and both `follow` directions filter
        // `$model/relation` by the recursive `local:is-rel-subtype` before
        // their per-tuple predicates. The runtime pass splits each of the
        // three steps there and hoists the invariant prefix out of its
        // loop — three hoists on top of the one the generator had before
        // pure calls were cacheable — and keys each split on its first
        // per-tuple `string(@…) = …` test. Every shipped program's plan is
        // pinned exactly, so no rewrite of either pass can move a hoist, a
        // split, a key, a join or a streamed binding unnoticed.
        use xquery::lopt::PlanStats;
        use xquery::optimizer::OptimizerStats;
        let plan =
            |hoisted_invariant, split_prefixes, keyed_splits, streamable_bindings| PlanStats {
                hoisted_invariant,
                split_prefixes,
                keyed_splits,
                cached_per_tuple: 0,
                hash_joins: 0,
                streamable_bindings,
            };
        let standard = CompiledPipeline::standard().unwrap();
        let try_catch = CompiledPipeline::new(GEN_TC_XQ, &[], EngineOptions::default()).unwrap();
        let mut queries = vec![
            ("gen", &standard.generator),
            ("gen_tc", &try_catch.generator),
        ];
        queries.extend(standard.phases.iter().map(|(p, q)| (p.name(), q)));
        let expected = [
            plan(4, 3, 3, 0),
            plan(4, 3, 3, 2),
            plan(0, 0, 0, 2),
            plan(0, 0, 0, 2),
            plan(0, 0, 0, 2),
            plan(0, 0, 0, 1),
        ];
        assert_eq!(queries.len(), expected.len());
        for ((name, q), expected) in queries.into_iter().zip(expected) {
            assert_eq!(q.plan_stats, expected, "{name}");
            assert_eq!(q.stats, OptimizerStats::default(), "{name}");
        }
        let plan = Engine::new().explain(&standard.generator);
        assert!(plan.contains("local:is-rel-subtype  [pure]"), "{plan}");
        assert!(
            plan.contains("local:err  [impure: constructs nodes]"),
            "{plan}"
        );
    }

    /// The runtime passes change how the pipeline runs, never what it
    /// writes: System Context through a pipeline compiled with them off
    /// renders the default pipeline's document, and no phase reports any
    /// optimised work or reuse.
    #[test]
    fn runtime_opt_off_pipeline_renders_system_context_alike() {
        let meta = meta();
        let m = awb::workload::it_architecture(awb::workload::ItScale::about(40), 7);
        let template = Template::parse(crate::template::SYSTEM_CONTEXT).unwrap();
        let inputs = GenInputs {
            model: &m,
            meta: &meta,
            template: &template,
        };
        let off = EngineOptions {
            runtime_opt: false,
            ..Default::default()
        };
        let plain = run_pipeline(&inputs, GEN_XQ, &Phase::ALL, off).unwrap();
        let optimised = generate(&inputs).unwrap();
        assert_eq!(plain.xml, optimised.xml);
        assert_eq!(plain.phase_reports.len(), 1 + Phase::ALL.len());
        for report in &plain.phase_reports {
            let counters = report.stats.opt_counters().into_iter();
            for (counter, value) in counters.chain(report.reuse.counters()) {
                assert_eq!(value, 0, "{}: {counter}", report.name);
            }
        }
        let reuse = optimised.phase_reports[0].reuse;
        assert!(
            reuse.keyed_split_probes > 0 && reuse.memo_hits > 0,
            "{reuse:?}"
        );
    }

    #[test]
    fn awb_table_renders() {
        let m = tiny_model();
        let out = gen(
            r#"<template><awb-table rows="all.user" cols="all.Program" relation="uses" corner="user\program"/></template>"#,
            &m,
        );
        assert!(out.xml.contains(r#"<td>user\program</td>"#), "{}", out.xml);
        assert!(out.xml.contains("<td>1</td>"), "{}", out.xml);
        assert!(out.xml.contains("<td/>"), "{}", out.xml);
    }

    /// The store slots of the tree under `node`: every node, attributes
    /// included.
    fn tree_slots(store: &xmlstore::Store, node: NodeId) -> usize {
        1 + store.attributes(node).len()
            + store
                .children(node)
                .iter()
                .map(|&c| tree_slots(store, c))
                .sum::<usize>()
    }

    /// Each copy phase builds its output once: element content runs in
    /// push mode, so the recursive `local:copy` builds every element
    /// directly under its parent instead of copying it once per ancestor.
    /// On System Context n=100 each copy phase allocates at most 1.2× the
    /// store slots of the document it outputs; with the runtime passes off,
    /// every phase copies per ancestor and allocates several times that.
    #[test]
    fn copy_phases_allocate_about_one_output() {
        let meta = meta();
        let m = awb::workload::it_architecture(awb::workload::ItScale::about(100), 7);
        let template = Template::parse(crate::template::SYSTEM_CONTEXT).unwrap();
        let inputs = GenInputs {
            model: &m,
            meta: &meta,
            template: &template,
        };
        for runtime_opt in [true, false] {
            let options = EngineOptions {
                runtime_opt,
                ..Default::default()
            };
            let pipeline = CompiledPipeline::new(GEN_XQ, &Phase::ALL, options).unwrap();
            let mut g = XqGenerator::with_compiled(&inputs, &pipeline).unwrap();
            let mut reports = Vec::new();
            let generator = pipeline.generator.clone();
            let mut current = g
                .timed_phase("generate", &generator, None, &mut reports)
                .unwrap();
            for (phase, query) in &pipeline.phases {
                let before = g.engine.store().len();
                current = g
                    .timed_phase(phase.name(), query, Some(current), &mut reports)
                    .unwrap();
                let allocated = g.engine.store().len() - before;
                let output = tree_slots(g.engine.store(), current);
                let name = phase.name();
                if runtime_opt {
                    assert!(
                        allocated * 5 <= output * 6,
                        "{name}: {allocated} slots for an output of {output}"
                    );
                } else {
                    assert!(
                        allocated >= 2 * output,
                        "{name}: {allocated} slots for an output of {output} with the runtime passes off"
                    );
                }
            }
        }
    }
}
