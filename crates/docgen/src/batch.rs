//! Batch document generation over the evaluation worker pool.
//!
//! The paper's AWB regenerated whole document *sets* per model edit; this
//! driver is the throughput shape of that workload. Each generator query is
//! compiled **once** (a [`CompiledPipeline`] of `Arc`-shared programs) and a
//! batch of independent jobs — any mix of XQuery-pipeline and native
//! generation, each with its own model/template — fans out across a shared
//! [`StackPool`]. Results come back in submission order regardless of which
//! worker finished first, so a batch is observably a faster `for` loop.
//!
//! Per-job engines are created *inside* the pool workers; nested
//! evaluations therefore run inline on the worker's big stack (no
//! thread-per-job, no re-enqueue), and nothing is shared between jobs but
//! the immutable compiled programs.
//!
//! Outside a batch, a generator's engine runs on its pipeline's own
//! one-worker pool, whose thread starts with the first render and serves
//! every later one (as a stylesheet's pool does for XSLT transforms).

use crate::trouble::GenTrouble;
use crate::xq::{Phase, XqGenerator, GEN_XQ};
use crate::{native, GenInputs};
use std::sync::Arc;
use xquery::{CompiledQuery, Engine, EngineOptions, EvalStats, StackPool};

/// Which generator implementation a batch job runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GeneratorKind {
    /// The five-phase XQuery pipeline.
    Xquery,
    /// The native ("Java rewrite") walker.
    Native,
}

/// One unit of batch work: generate one document from one model/template.
pub struct BatchJob<'a> {
    pub kind: GeneratorKind,
    pub inputs: GenInputs<'a>,
}

/// One generated document, normalized across generator kinds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchOutput {
    /// Final serialized document.
    pub xml: String,
    /// `gen-error` notes present in the final document.
    pub trouble_count: usize,
    /// The job's engine counters, merged across all pipeline phases.
    /// Native jobs run no XQuery and report an all-zero block.
    pub stats: EvalStats,
}

/// The XQuery pipeline compiled once, shareable by every job in a batch
/// (and across batches): cloning hands out `Arc`s to the same lowered
/// programs, so N documents cost one parse/optimize/lower. The only place
/// the generator and phase sources are compiled.
#[derive(Clone)]
pub struct CompiledPipeline {
    pub(crate) generator: CompiledQuery,
    pub(crate) phases: Vec<(Phase, CompiledQuery)>,
    /// The options the programs were compiled with; every engine that runs
    /// them is built with the same ones.
    pub(crate) options: EngineOptions,
    /// The one-worker pool the pipeline was compiled on and every
    /// generator's engine runs on. Shared, so a render reuses its thread
    /// instead of spawning and joining one. Batch jobs run on the batch's
    /// workers, which evaluate inline and never wait on this pool.
    pub(crate) pool: Arc<StackPool>,
}

impl CompiledPipeline {
    /// Compiles the standard generator and phase list with the default
    /// options.
    pub fn standard() -> Result<Self, GenTrouble> {
        CompiledPipeline::new(GEN_XQ, &Phase::ALL, EngineOptions::default())
    }

    /// Compiles a phase-1 source (say [`GEN_XQ`] or the try/catch variant
    /// [`crate::xq::GEN_TC_XQ`]) and a phase list (experiment E2 varies the
    /// number of copying phases) with `options` — the runtime passes on or
    /// off, say.
    pub fn new(
        generator_source: &str,
        phases: &[Phase],
        options: EngineOptions,
    ) -> Result<Self, GenTrouble> {
        let pool = Arc::new(StackPool::new(1));
        let engine = Engine::with_pool(options.clone(), Arc::clone(&pool));
        let generator = engine
            .compile(generator_source)
            .map_err(|e| GenTrouble::new(format!("the generator source failed to compile: {e}")))?;
        let phases = phases
            .iter()
            .map(|&p| {
                engine
                    .compile(p.source())
                    .map(|q| (p, q))
                    .map_err(|e| GenTrouble::new(format!("{p:?} phase failed to compile: {e}")))
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(CompiledPipeline {
            generator,
            phases,
            options,
            pool,
        })
    }
}

/// Runs one job to completion on the current thread.
fn run_job(job: &BatchJob<'_>, pipeline: &CompiledPipeline) -> Result<BatchOutput, GenTrouble> {
    match job.kind {
        GeneratorKind::Xquery => {
            let out = XqGenerator::with_compiled(&job.inputs, pipeline)?.run()?;
            Ok(BatchOutput {
                stats: out.total_stats(),
                xml: out.xml,
                trouble_count: out.trouble_count,
            })
        }
        GeneratorKind::Native => {
            let out = native::generate(&job.inputs)?;
            Ok(BatchOutput {
                xml: out.to_xml(),
                trouble_count: out.trouble_count,
                stats: EvalStats::default(),
            })
        }
    }
}

/// Generates every job in `jobs` across `pool`, compiling the XQuery
/// pipeline exactly once for the whole batch. The result vector is index-
/// aligned with `jobs` (deterministic order); per-job failures come back as
/// that job's `Err` without sinking the rest of the batch.
pub fn generate_batch(
    jobs: &[BatchJob<'_>],
    pool: &StackPool,
) -> Result<Vec<Result<BatchOutput, GenTrouble>>, GenTrouble> {
    let pipeline = CompiledPipeline::standard()?;
    Ok(generate_batch_with(jobs, &pipeline, pool))
}

/// Like [`generate_batch`] with a caller-provided (possibly reused or
/// customized) compiled pipeline.
pub fn generate_batch_with(
    jobs: &[BatchJob<'_>],
    pipeline: &CompiledPipeline,
    pool: &StackPool,
) -> Vec<Result<BatchOutput, GenTrouble>> {
    let closures: Vec<_> = jobs
        .iter()
        .map(|job| move || run_job(job, pipeline))
        .collect();
    pool.run_batch(closures)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::template::Template;
    use crate::xq;
    use awb::{Model, PropValue};

    fn tiny_model(name: &str) -> Model {
        let mut m = Model::new();
        let sys = m.add_node("SystemBeingDesigned", name);
        let u1 = m.add_node("user", format!("alice-{name}"));
        let u2 = m.add_node("superuser", "root");
        let p = m.add_node("Program", "compiler");
        m.set_prop(p, "language", PropValue::Str("rust".into()));
        m.add_relation("has", sys, u1);
        m.add_relation("has", sys, u2);
        m.add_relation("uses", u1, p);
        m.add_relation("likes", u2, p);
        m
    }

    const TEMPLATE: &str = r#"<template>
        <table-of-contents/>
        <section heading="Users"><for nodes="all.user"><p><label/></p></for></section>
        <table-of-omissions types="user,Program"/>
    </template>"#;

    #[test]
    fn batch_matches_serial_generation_in_order() {
        let meta = awb::workload::it_metamodel();
        let template = Template::parse(TEMPLATE).unwrap();
        let models: Vec<Model> = (0..4).map(|i| tiny_model(&format!("m{i}"))).collect();

        // Serial references through the existing one-at-a-time APIs.
        let mut expected = Vec::new();
        for (i, model) in models.iter().enumerate() {
            let inputs = GenInputs {
                model,
                meta: &meta,
                template: &template,
            };
            let xml = if i % 2 == 0 {
                xq::generate(&inputs).unwrap().xml
            } else {
                native::generate(&inputs).unwrap().to_xml()
            };
            expected.push(xml);
        }

        // The same work as one mixed batch over a 4-worker pool.
        let jobs: Vec<BatchJob<'_>> = models
            .iter()
            .enumerate()
            .map(|(i, model)| BatchJob {
                kind: if i % 2 == 0 {
                    GeneratorKind::Xquery
                } else {
                    GeneratorKind::Native
                },
                inputs: GenInputs {
                    model,
                    meta: &meta,
                    template: &template,
                },
            })
            .collect();
        let pool = StackPool::new(4);
        let got = generate_batch(&jobs, &pool).unwrap();

        assert_eq!(got.len(), expected.len());
        for (out, xml) in got.iter().zip(&expected) {
            assert_eq!(&out.as_ref().unwrap().xml, xml);
        }
        // Distinct models produced distinct documents — order wasn't
        // accidentally "preserved" by identical outputs.
        assert_ne!(expected[0], expected[2]);
    }

    #[test]
    fn per_job_failure_does_not_sink_the_batch() {
        let meta = awb::workload::it_metamodel();
        let good = Template::parse(TEMPLATE).unwrap();
        // `<label/>` with no focus is a top-level generation error.
        let bad = Template::parse("<template><label/></template>").unwrap();
        let model = tiny_model("solo");
        let jobs = vec![
            BatchJob {
                kind: GeneratorKind::Xquery,
                inputs: GenInputs {
                    model: &model,
                    meta: &meta,
                    template: &good,
                },
            },
            BatchJob {
                kind: GeneratorKind::Xquery,
                inputs: GenInputs {
                    model: &model,
                    meta: &meta,
                    template: &bad,
                },
            },
        ];
        let pool = StackPool::new(2);
        let got = generate_batch(&jobs, &pool).unwrap();
        assert!(got[0].is_ok());
        let err = got[1].as_ref().unwrap_err();
        assert!(err.message.contains("no focus"), "{}", err.message);
    }

    /// A batch's jobs run on the batch pool's workers: they finish while
    /// the pipeline's own pool is held busy by another thread, so nothing
    /// funnels them through its one worker.
    #[test]
    fn batch_jobs_fan_out_on_the_batch_pool() {
        use std::sync::mpsc;
        let meta = awb::workload::it_metamodel();
        let template = Template::parse(TEMPLATE).unwrap();
        let models: Vec<Model> = (0..4).map(|i| tiny_model(&format!("f{i}"))).collect();
        let pipeline = CompiledPipeline::standard().unwrap();
        let expected: Vec<String> = models
            .iter()
            .map(|model| {
                let inputs = GenInputs {
                    model,
                    meta: &meta,
                    template: &template,
                };
                XqGenerator::with_compiled(&inputs, &pipeline)
                    .unwrap()
                    .run()
                    .unwrap()
                    .xml
            })
            .collect();

        let (entered, started) = mpsc::channel();
        let (release, held) = mpsc::channel::<()>();
        let busy = Arc::clone(&pipeline.pool);
        let holder = std::thread::spawn(move || {
            busy.run(move || {
                entered.send(()).unwrap();
                let _ = held.recv();
            })
        });
        started.recv().unwrap();
        let (done, finished) = mpsc::channel();
        std::thread::scope(|scope| {
            scope.spawn(|| {
                let jobs: Vec<BatchJob<'_>> = models
                    .iter()
                    .map(|model| BatchJob {
                        kind: GeneratorKind::Xquery,
                        inputs: GenInputs {
                            model,
                            meta: &meta,
                            template: &template,
                        },
                    })
                    .collect();
                let got = generate_batch_with(&jobs, &pipeline, &StackPool::new(2));
                let _ = done.send(got.into_iter().map(|r| r.unwrap().xml).collect::<Vec<_>>());
            });
            let got = finished.recv_timeout(std::time::Duration::from_secs(120));
            release.send(()).unwrap();
            assert_eq!(
                got.expect("the batch waited on the pipeline's pool"),
                expected
            );
        });
        holder.join().unwrap();
    }

    /// Two threads rendering from one pipeline share its one worker, one
    /// render at a time, and both finish with the same document.
    #[test]
    fn two_threads_render_from_one_pipeline() {
        let meta = awb::workload::it_metamodel();
        let template = Template::parse(TEMPLATE).unwrap();
        let model = tiny_model("shared");
        let inputs = GenInputs {
            model: &model,
            meta: &meta,
            template: &template,
        };
        let pipeline = CompiledPipeline::standard().unwrap();
        let expected = xq::generate(&inputs).unwrap().xml;
        std::thread::scope(|scope| {
            let renders: Vec<_> = (0..2)
                .map(|_| {
                    scope.spawn(|| {
                        (0..3)
                            .map(|_| {
                                XqGenerator::with_compiled(&inputs, &pipeline)
                                    .unwrap()
                                    .run()
                                    .unwrap()
                                    .xml
                            })
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            for render in renders {
                assert_eq!(render.join().unwrap(), vec![expected.clone(); 3]);
            }
        });
    }

    #[test]
    fn pipeline_is_compiled_once_and_shared() {
        let pipeline = CompiledPipeline::standard().unwrap();
        let clone = pipeline.clone();
        assert!(std::sync::Arc::ptr_eq(
            &pipeline.generator.program,
            &clone.generator.program
        ));
        assert_eq!(pipeline.phases.len(), Phase::ALL.len());
    }
}
