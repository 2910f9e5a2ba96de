//! Mixed-scenario driver: replays a shaped, seeded interleaving of point
//! queries, joins, streamed prefixes, `Store` edits with incremental
//! refreeze, and `docgen` batches over the XMark-style corpus — once
//! in-process against an [`xquery::Engine`], and once through the `qsvc`
//! framed-TCP service. Each operation class reports throughput (QPS) and
//! latency percentiles (p50/p95/p99), because the paper's complaint is not
//! that any one query is slow but that *mixed* workloads are lopsided: one
//! class falling over drags the tail of everything scheduled around it.
//!
//! The schedule is a pure function of `(ops, seed)`; the corpus is a pure
//! function of `(corpus_nodes, seed)`. Two runs of the same scenario replay
//! the same operations against the same bytes.

use crate::corpus::{xmark_auction, XmarkScale};
use crate::{it_workload, percentile};
use docgen::batch::{generate_batch_with, BatchJob, CompiledPipeline, GeneratorKind};
use docgen::{GenInputs, Template};
use qsvc::{Client, Service, ServiceConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;
use xmlstore::parser::ParseOptions;
use xmlstore::serializer::SerializeOptions;
use xmlstore::store::Store;
use xquery::{Engine, StackPool};

/// The five operation classes the driver interleaves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpClass {
    /// A keyed lookup: one person's name by `@id`.
    Point,
    /// A value join: closed auctions matched to a prefix of the people list
    /// by `buyer/@person`.
    Join,
    /// A streamed prefix: `subsequence` over a long item list, where the
    /// cursor runtime should stop early instead of materializing the axis.
    StreamPrefix,
    /// A one-attribute `Store` edit followed by an incremental refreeze.
    Edit,
    /// A small `docgen` batch (one XQuery-pipeline job, one native job).
    DocgenBatch,
}

impl OpClass {
    pub const ALL: [OpClass; 5] = [
        OpClass::Point,
        OpClass::Join,
        OpClass::StreamPrefix,
        OpClass::Edit,
        OpClass::DocgenBatch,
    ];

    pub fn name(self) -> &'static str {
        match self {
            OpClass::Point => "point",
            OpClass::Join => "join",
            OpClass::StreamPrefix => "stream_prefix",
            OpClass::Edit => "edit",
            OpClass::DocgenBatch => "docgen_batch",
        }
    }
}

/// The shaped op mix: read-mostly with a steady update stream and occasional
/// heavy batches — 45% point, 20% join, 20% streamed prefix, 10% edit,
/// 5% docgen batch. Deterministic for a fixed `(ops, seed)`.
pub fn shaped_schedule(ops: usize, seed: u64) -> Vec<OpClass> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..ops)
        .map(|_| match rng.gen_range(0..100u32) {
            0..=44 => OpClass::Point,
            45..=64 => OpClass::Join,
            65..=84 => OpClass::StreamPrefix,
            85..=94 => OpClass::Edit,
            _ => OpClass::DocgenBatch,
        })
        .collect()
}

/// Scenario size knobs. `corpus_nodes` feeds [`XmarkScale::about`]; `ops`
/// is the schedule length; `seed` fixes both the corpus bytes and the
/// interleaving.
#[derive(Debug, Clone, Copy)]
pub struct ScenarioConfig {
    pub corpus_nodes: usize,
    pub ops: usize,
    pub seed: u64,
}

impl ScenarioConfig {
    /// The CI smoke shape: small corpus, short schedule, fixed seed.
    pub fn smoke() -> Self {
        ScenarioConfig {
            corpus_nodes: 3_000,
            ops: 60,
            seed: 42,
        }
    }
}

/// Per-class results: how many ops ran, their aggregate throughput, and the
/// latency tail.
#[derive(Debug, Clone)]
pub struct ClassReport {
    pub class: OpClass,
    pub count: usize,
    pub qps: f64,
    pub p50_ms: f64,
    pub p95_ms: f64,
    pub p99_ms: f64,
}

#[derive(Debug, Clone)]
pub struct ScenarioReport {
    pub rows: Vec<ClassReport>,
    pub total_ms: f64,
}

impl ScenarioReport {
    pub fn class(&self, class: OpClass) -> &ClassReport {
        self.rows
            .iter()
            .find(|r| r.class == class)
            .expect("every class appears in a report")
    }
}

fn summarize(samples: Vec<(OpClass, f64)>, total_ms: f64) -> ScenarioReport {
    let rows = OpClass::ALL
        .iter()
        .map(|&class| {
            let mut ms: Vec<f64> = samples
                .iter()
                .filter(|(c, _)| *c == class)
                .map(|&(_, ms)| ms)
                .collect();
            ms.sort_by(|a, b| a.partial_cmp(b).unwrap());
            let class_total: f64 = ms.iter().sum();
            ClassReport {
                class,
                count: ms.len(),
                qps: if class_total > 0.0 {
                    ms.len() as f64 / (class_total / 1e3)
                } else {
                    0.0
                },
                p50_ms: percentile(&ms, 50.0),
                p95_ms: percentile(&ms, 95.0),
                p99_ms: percentile(&ms, 99.0),
            }
        })
        .collect();
    ScenarioReport { rows, total_ms }
}

/// The four point-query texts the driver rotates through (rotation by
/// schedule index, so the text sequence is deterministic too).
pub fn point_queries() -> Vec<String> {
    (0..4)
        .map(|k| format!("string(/site/people/person[@id = \"person{k}\"]/name)"))
        .collect()
}

pub const JOIN_QUERY: &str = "count(for $p in subsequence(/site/people/person, 1, 10) \
     for $a in /site/closed_auctions/closed_auction \
     where $a/buyer/@person = $p/@id return $a)";

pub const STREAM_QUERY: &str = "count(subsequence(/site/regions/africa/item, 1, 16))";

/// The docgen template the batch op regenerates (same family as the
/// BENCH_7 docgen rows, downsized).
fn batch_template() -> Template {
    Template::parse(
        r#"<template><h1>Documents</h1><for nodes="all.Document"><p><label/> is at version <value-of property="version" default="?"/>.</p></for></template>"#,
    )
    .expect("scenario batch template parses")
}

/// Replays the scenario in-process: queries evaluate on an [`Engine`] whose
/// store holds the frozen XMark corpus, edits mutate that same store and
/// re-freeze incrementally, and docgen batches run on a two-worker pool.
pub fn run_in_process(cfg: &ScenarioConfig) -> ScenarioReport {
    let scale = XmarkScale::about(cfg.corpus_nodes);
    let corpus = xmark_auction(&scale, cfg.seed);
    let schedule = shaped_schedule(cfg.ops, cfg.seed);

    let mut engine = Engine::new();
    let doc = engine
        .load_document(&corpus)
        .expect("scenario corpus parses");
    let points: Vec<_> = point_queries()
        .iter()
        .map(|src| engine.compile(src).expect("point query compiles"))
        .collect();
    let join = engine.compile(JOIN_QUERY).expect("join query compiles");
    let stream = engine.compile(STREAM_QUERY).expect("stream query compiles");

    // The edit target path: /site/regions/africa/item[1] — region africa is
    // dealt item 0, so it is never empty.
    let edit_target = {
        let store = engine.store();
        let site = store.child_elements(doc)[0];
        let regions = store.child_elements(site)[0];
        let africa = store.child_elements(regions)[0];
        store.child_elements(africa)[0]
    };

    let batch_workload = it_workload(60, cfg.seed);
    let template = batch_template();
    let pipeline = CompiledPipeline::standard().expect("docgen pipeline compiles");
    let pool = StackPool::new(2, 64 * 1024 * 1024);

    let mut samples = Vec::with_capacity(schedule.len());
    let mut edit_serial = 0usize;
    let started = Instant::now();
    for (idx, &class) in schedule.iter().enumerate() {
        let t = Instant::now();
        match class {
            OpClass::Point => {
                let q = &points[idx % points.len()];
                let out = engine.evaluate(q, Some(doc)).expect("point query runs");
                assert_eq!(out.len(), 1, "string() yields one item");
            }
            OpClass::Join => {
                engine.evaluate(&join, Some(doc)).expect("join query runs");
            }
            OpClass::StreamPrefix => {
                engine
                    .evaluate(&stream, Some(doc))
                    .expect("stream query runs");
            }
            OpClass::Edit => {
                edit_serial += 1;
                let store = engine.store_mut();
                store
                    .set_attribute(edit_target, "touched", format!("{edit_serial}"))
                    .expect("scenario edit applies");
                store.freeze(doc).expect("incremental refreeze");
            }
            OpClass::DocgenBatch => {
                let jobs = [
                    BatchJob {
                        kind: GeneratorKind::Xquery,
                        inputs: GenInputs {
                            model: &batch_workload.model,
                            meta: &batch_workload.meta,
                            template: &template,
                        },
                    },
                    BatchJob {
                        kind: GeneratorKind::Native,
                        inputs: GenInputs {
                            model: &batch_workload.model,
                            meta: &batch_workload.meta,
                            template: &template,
                        },
                    },
                ];
                let outs = generate_batch_with(&jobs, &pipeline, &pool);
                for out in outs {
                    out.expect("scenario batch job generates");
                }
            }
        }
        samples.push((class, t.elapsed().as_secs_f64() * 1e3));
    }
    summarize(samples, started.elapsed().as_secs_f64() * 1e3)
}

/// A small editable document for the service scenario: the client keeps a
/// local mirror, applies the edit there (one attribute + incremental
/// refreeze), and re-`LOAD`s the serialized result — the round a thin
/// editing front end would make.
fn editable_doc(items: usize) -> String {
    let mut s = String::from("<edit>");
    for i in 0..items {
        s.push_str(&format!("<e i=\"{i}\"/>"));
    }
    s.push_str("</edit>");
    s
}

/// Replays the scenario through the framed-TCP service: queries and batches
/// cross the wire (plan cache warm after first touch), edits round-trip
/// through a local mirror plus re-`LOAD`.
pub fn run_service(cfg: &ScenarioConfig) -> ScenarioReport {
    let scale = XmarkScale::about(cfg.corpus_nodes);
    let corpus = xmark_auction(&scale, cfg.seed);
    let schedule = shaped_schedule(cfg.ops, cfg.seed);

    let service = Service::spawn(ServiceConfig {
        eval_workers: 2,
        eval_stack_bytes: 64 * 1024 * 1024,
        ..Default::default()
    })
    .expect("scenario service spawns");
    let mut client = Client::connect(service.addr(), Some("scenario")).expect("client connects");
    client.load("xmark", &corpus).expect("corpus loads");

    let mut mirror = Store::new();
    let edit_xml = editable_doc(200);
    let edit_doc = mirror
        .parse_str(&edit_xml, &ParseOptions::data_oriented())
        .expect("editable doc parses");
    let edit_root = mirror.child_elements(edit_doc)[0];
    client.load("edit", &edit_xml).expect("editable doc loads");

    let points = point_queries();
    let batch_queries = [
        "count(//item)",
        "count(//person)",
        "count(//closed_auction)",
    ];

    let mut samples = Vec::with_capacity(schedule.len());
    let mut edit_serial = 0usize;
    let started = Instant::now();
    for (idx, &class) in schedule.iter().enumerate() {
        let t = Instant::now();
        match class {
            OpClass::Point => {
                let out = client
                    .query("xmark", &points[idx % points.len()])
                    .expect("point query runs");
                assert!(!out.is_empty(), "every rotated person id exists");
            }
            OpClass::Join => {
                client.query("xmark", JOIN_QUERY).expect("join query runs");
            }
            OpClass::StreamPrefix => {
                client
                    .query("xmark", STREAM_QUERY)
                    .expect("stream query runs");
            }
            OpClass::Edit => {
                edit_serial += 1;
                let targets = mirror.child_elements(edit_root);
                let target = targets[(edit_serial * 7) % targets.len()];
                mirror
                    .set_attribute(target, "touched", format!("{edit_serial}"))
                    .expect("mirror edit applies");
                mirror.freeze(edit_doc).expect("incremental refreeze");
                let xml = mirror.serialize(edit_doc, &SerializeOptions::default());
                client.load("edit", &xml).expect("edited doc re-loads");
            }
            OpClass::DocgenBatch => {
                let outs = client
                    .batch("xmark", &batch_queries)
                    .expect("batch round-trips");
                for out in outs {
                    out.expect("scenario batch query answers");
                }
            }
        }
        samples.push((class, t.elapsed().as_secs_f64() * 1e3));
    }
    let report = summarize(samples, started.elapsed().as_secs_f64() * 1e3);
    client.quit().ok();
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_deterministic_and_shaped() {
        let a = shaped_schedule(400, 7);
        let b = shaped_schedule(400, 7);
        assert_eq!(a, b);
        let points = a.iter().filter(|&&c| c == OpClass::Point).count();
        let edits = a.iter().filter(|&&c| c == OpClass::Edit).count();
        assert!(points > edits, "the mix is read-mostly");
        for class in OpClass::ALL {
            assert!(
                a.iter().any(|&c| c == class),
                "{} never scheduled in 400 ops",
                class.name()
            );
        }
    }

    #[test]
    fn in_process_scenario_covers_every_class() {
        let report = run_in_process(&ScenarioConfig {
            corpus_nodes: 1_500,
            ops: 40,
            seed: 42,
        });
        let scheduled = shaped_schedule(40, 42);
        for class in OpClass::ALL {
            let want = scheduled.iter().filter(|&&c| c == class).count();
            let row = report.class(class);
            assert_eq!(row.count, want, "{} count", class.name());
            if want > 0 {
                assert!(row.qps > 0.0, "{} qps", class.name());
                assert!(row.p99_ms >= row.p50_ms, "{} tail ordering", class.name());
            }
        }
    }

    #[test]
    fn service_scenario_covers_every_class() {
        let report = run_service(&ScenarioConfig {
            corpus_nodes: 1_500,
            ops: 40,
            seed: 42,
        });
        for class in OpClass::ALL {
            let row = report.class(class);
            if row.count > 0 {
                assert!(row.qps > 0.0, "{} qps", class.name());
            }
        }
        assert!(report.total_ms > 0.0);
    }
}
