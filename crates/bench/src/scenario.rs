//! Mixed-scenario driver: replays a shaped, seeded interleaving of point
//! queries, joins, streamed prefixes, `Store` edits with incremental
//! refreeze, and `docgen` batches over the XMark-style corpus — once
//! in-process against an [`xquery::Engine`], and once through the `qsvc`
//! framed-TCP service. Each operation class reports its mean latency and
//! the percentiles its sample count backs, and each run its wall-clock
//! throughput, because the paper's complaint is not that any one query is
//! slow but that *mixed* workloads are lopsided: one class falling over
//! drags the tail of everything scheduled around it.
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
use std::fmt;
use std::time::Instant;
use xmlstore::parser::ParseOptions;
use xmlstore::serializer::SerializeOptions;
use xmlstore::store::Store;
use xquery::{Engine, StackPool};

/// How the driver reaches the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Direct calls on an in-process [`Engine`].
    InProcess,
    /// Framed-TCP requests to a live `qsvc` service.
    Service,
}

impl Mode {
    pub const ALL: [Mode; 2] = [Mode::InProcess, Mode::Service];

    pub fn name(self) -> &'static str {
        match self {
            Mode::InProcess => "inproc",
            Mode::Service => "service",
        }
    }
}

/// The five slots of the op mix. The three read slots do the same work in
/// both modes; the write and batch slots do not, so they are named by what
/// they do in each mode ([`OpClass::name`]).
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
    /// In-process (`edit`): a one-attribute edit of the XMark corpus and an
    /// incremental refreeze. Through the service (`mirror_reload`): the same
    /// edit on a separate 200-element mirror document, serialized and
    /// re-`LOAD`ed.
    Write,
    /// In-process (`docgen_batch`): a `docgen` batch of one XQuery-pipeline
    /// job and one native job. Through the service (`count_batch`): one
    /// `BATCH` of three `count()` queries over the corpus.
    Batch,
}

impl OpClass {
    pub const ALL: [OpClass; 5] = [
        OpClass::Point,
        OpClass::Join,
        OpClass::StreamPrefix,
        OpClass::Write,
        OpClass::Batch,
    ];

    pub fn name(self, mode: Mode) -> &'static str {
        match (self, mode) {
            (OpClass::Point, _) => "point",
            (OpClass::Join, _) => "join",
            (OpClass::StreamPrefix, _) => "stream_prefix",
            (OpClass::Write, Mode::InProcess) => "edit",
            (OpClass::Write, Mode::Service) => "mirror_reload",
            (OpClass::Batch, Mode::InProcess) => "docgen_batch",
            (OpClass::Batch, Mode::Service) => "count_batch",
        }
    }
}

/// The shaped op mix: read-mostly with a steady update stream and occasional
/// heavy batches — 45% point, 20% join, 20% streamed prefix, 10% write,
/// 5% batch. Deterministic for a fixed `(ops, seed)`.
pub fn shaped_schedule(ops: usize, seed: u64) -> Vec<OpClass> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..ops)
        .map(|_| match rng.gen_range(0..100u32) {
            0..=44 => OpClass::Point,
            45..=64 => OpClass::Join,
            65..=84 => OpClass::StreamPrefix,
            85..=94 => OpClass::Write,
            _ => OpClass::Batch,
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

/// Per-class results: how many ops ran, their mean latency, and the
/// percentiles the sample count backs ([`percentile`]): with 120 ops no
/// class reaches the 100 samples a p99 needs.
#[derive(Debug, Clone)]
pub struct ClassReport {
    pub class: OpClass,
    pub count: usize,
    pub mean_ms: f64,
    pub p50_ms: Option<f64>,
    pub p95_ms: Option<f64>,
    pub p99_ms: Option<f64>,
}

#[derive(Debug, Clone)]
pub struct ScenarioReport {
    pub mode: Mode,
    pub rows: Vec<ClassReport>,
    /// Wall-clock time of the whole schedule.
    pub total_ms: f64,
}

impl ScenarioReport {
    pub fn class(&self, class: OpClass) -> &ClassReport {
        self.rows
            .iter()
            .find(|r| r.class == class)
            .expect("every class appears in a report")
    }

    /// Completed ops per wall-clock second over the whole schedule.
    pub fn qps(&self) -> f64 {
        let ops: usize = self.rows.iter().map(|r| r.count).sum();
        ops as f64 / (self.total_ms / 1e3)
    }
}

impl fmt::Display for ScenarioReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let tail = |p: Option<f64>| p.map_or("       -".to_string(), |ms| format!("{ms:>8.3}"));
        writeln!(
            f,
            "  {}: {:.1} qps wall-clock over {:.1} ms",
            self.mode.name(),
            self.qps(),
            self.total_ms
        )?;
        for r in &self.rows {
            writeln!(
                f,
                "    {:<14} {:>3} ops  mean {:>8.3} ms  p50 {}  p95 {}  p99 {}",
                r.class.name(self.mode),
                r.count,
                r.mean_ms,
                tail(r.p50_ms),
                tail(r.p95_ms),
                tail(r.p99_ms)
            )?;
        }
        Ok(())
    }
}

/// Summarizes one run and checks it: every scheduled op ran, and every
/// class that ran reports a nonzero latency.
fn summarize(
    mode: Mode,
    ops: usize,
    samples: Vec<(OpClass, f64)>,
    total_ms: f64,
) -> ScenarioReport {
    assert_eq!(
        samples.len(),
        ops,
        "{}: every scheduled op must run",
        mode.name()
    );
    let rows = OpClass::ALL
        .iter()
        .map(|&class| {
            let mut ms: Vec<f64> = samples
                .iter()
                .filter(|(c, _)| *c == class)
                .map(|&(_, ms)| ms)
                .collect();
            ms.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
            let mean_ms = if ms.is_empty() {
                0.0
            } else {
                ms.iter().sum::<f64>() / ms.len() as f64
            };
            assert!(
                ms.is_empty() || mean_ms > 0.0,
                "{}/{}: zero latency",
                mode.name(),
                class.name(mode)
            );
            ClassReport {
                class,
                count: ms.len(),
                mean_ms,
                p50_ms: percentile(&ms, 50.0),
                p95_ms: percentile(&ms, 95.0),
                p99_ms: percentile(&ms, 99.0),
            }
        })
        .collect();
    ScenarioReport {
        mode,
        rows,
        total_ms,
    }
}

/// Replays the scenario in `mode`.
pub fn run(cfg: &ScenarioConfig, mode: Mode) -> ScenarioReport {
    match mode {
        Mode::InProcess => run_in_process(cfg),
        Mode::Service => run_service(cfg),
    }
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
fn run_in_process(cfg: &ScenarioConfig) -> ScenarioReport {
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
    let pool = StackPool::new(2);

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
            OpClass::Write => {
                edit_serial += 1;
                let store = engine.store_mut();
                store
                    .set_attribute(edit_target, "touched", format!("{edit_serial}"))
                    .expect("scenario edit applies");
                store.freeze(doc).expect("incremental refreeze");
            }
            OpClass::Batch => {
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
    summarize(
        Mode::InProcess,
        cfg.ops,
        samples,
        started.elapsed().as_secs_f64() * 1e3,
    )
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
fn run_service(cfg: &ScenarioConfig) -> ScenarioReport {
    let scale = XmarkScale::about(cfg.corpus_nodes);
    let corpus = xmark_auction(&scale, cfg.seed);
    let schedule = shaped_schedule(cfg.ops, cfg.seed);

    let service = Service::spawn(ServiceConfig {
        eval_workers: 2,
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
            OpClass::Write => {
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
            OpClass::Batch => {
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
    let report = summarize(
        Mode::Service,
        cfg.ops,
        samples,
        started.elapsed().as_secs_f64() * 1e3,
    );
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
        let writes = a.iter().filter(|&&c| c == OpClass::Write).count();
        assert!(points > writes, "the mix is read-mostly");
        for class in OpClass::ALL {
            assert!(
                a.contains(&class),
                "{} never scheduled in 400 ops",
                class.name(Mode::InProcess)
            );
        }
    }

    #[test]
    fn scenario_covers_every_class_in_both_modes() {
        let cfg = ScenarioConfig {
            corpus_nodes: 1_500,
            ops: 40,
            seed: 42,
        };
        let scheduled = shaped_schedule(cfg.ops, cfg.seed);
        for mode in Mode::ALL {
            let report = run(&cfg, mode);
            for class in OpClass::ALL {
                let want = scheduled.iter().filter(|&&c| c == class).count();
                let row = report.class(class);
                let name = class.name(mode);
                assert_eq!(row.count, want, "{name} count");
                // 40 ops back a p95 only for a class with 20 samples, and
                // a p99 never.
                assert_eq!(row.p95_ms.is_some(), want >= 20, "{name} p95");
                assert!(row.p99_ms.is_none(), "{name} p99");
            }
            assert!(report.qps() > 0.0);
        }
    }
}
