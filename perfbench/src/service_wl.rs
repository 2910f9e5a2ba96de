//! The `service` workload: two client connections in closed loops against
//! an in-process `qsvc::Service` holding the XMark corpus. Most requests
//! are hot texts whose plans stay cached; some are texts never sent
//! before, which pay a compile and, once the plan cache is full, an
//! eviction; a few re-`LOAD` a small document and query it back. Every
//! reply is checked against an in-process `Engine` on the same bytes.
//!
//! The timed phase runs in rounds, each against a freshly started service
//! with fresh connections. How the service's and the clients' threads
//! share the two cores settles when they start and holds for the life of
//! the connections; from one start to the next the round trip differs by
//! about a fifth. Rounds let one run sample several starts. Each client
//! thread also times the reference work of [`crate::hostspeed`] as it goes,
//! so each round's times can be normalized to the host's speed.

use std::collections::HashMap;
use std::io::BufReader;
use std::sync::Barrier;
use std::time::Instant;

use lopsided::awb::workload::{xmark_auction, XmarkScale};
use lopsided::xquery::lopt::optimize_program;
use lopsided::xquery::lower::lower_module;
use lopsided::xquery::optimizer::{optimize_module, OptimizerOptions};
use lopsided::xquery::parser::parse_module;
use lopsided::xquery::{Engine, EvalStats};
use qsvc::proto::{read_frame, write_frame};
use qsvc::{Client, Service, ServiceConfig, TenantStats};

use crate::hostspeed::{Reference, Sampler};
use crate::report::{EvalTally, Report};
use crate::sched::{ServiceOp, ServiceSchedule, HOT_POINTS, LOAD_TARGETS, SERVICE_MIX};
use crate::trace::{self, Span, Tracer};
use crate::{queries, stats, Args};

const CLIENTS: usize = 2;
/// Rounds of the timed phase, each against a fresh service.
const ROUNDS: usize = 15;
/// A traced run traces one request in this many; the rest measure the
/// untraced latencies the tracing overhead is taken against.
const TRACE_EVERY: usize = 8;
const CORPUS_URI: &str = "xmark";

fn tenant(client: usize) -> String {
    format!("c{client}")
}

fn editable_uri(client: usize) -> String {
    format!("edit-{client}")
}

/// The hot texts every client sends: the point lookups, the streamed
/// prefix and the join.
fn hot_texts() -> Vec<String> {
    let mut texts: Vec<String> = (0..HOT_POINTS).map(queries::point).collect();
    texts.push(queries::STREAM.to_string());
    texts.push(queries::JOIN.to_string());
    texts
}

/// A text never sent before: unique per round, client and request.
fn cold_text(person: usize, round: usize, client: usize, n: usize) -> String {
    queries::cold(person, &format!("{round}-{client}-{n}"))
}

struct Setup {
    service: Service,
    clients: Vec<Client>,
}

/// Starts a service, connects the clients, loads the corpus and each
/// client's editable document, and warms the hot texts.
fn setup(corpus: &str) -> Setup {
    let service = Service::spawn(ServiceConfig {
        eval_workers: 2,
        ..ServiceConfig::default()
    })
    .expect("the service starts");
    let mut clients: Vec<Client> = (0..CLIENTS)
        .map(|c| Client::connect(service.addr(), Some(&tenant(c))).expect("a client connects"))
        .collect();
    clients[0]
        .load(CORPUS_URI, corpus)
        .expect("the corpus loads");
    let hot = hot_texts();
    let initial = queries::editable_doc(&[0; queries::EDITABLE_ELEMENTS]);
    for (c, client) in clients.iter_mut().enumerate() {
        client
            .load(&editable_uri(c), &initial)
            .expect("the editable document loads");
        for text in &hot {
            client.query(CORPUS_URI, text).expect("a hot text runs");
        }
        for i in 0..LOAD_TARGETS {
            client
                .query(&editable_uri(c), &queries::editable_read(i))
                .expect("an editable read runs");
        }
    }
    Setup { service, clients }
}

impl Setup {
    fn stop(mut self) {
        for client in self.clients {
            let _ = client.quit();
        }
        self.service.shutdown();
    }
}

/// What one client connection saw in one round.
#[derive(Default)]
struct ClientRun {
    /// `(class, completed at (s), ms, traced, ok)` per op.
    ops: Vec<(usize, f64, f64, bool, bool)>,
    /// Cold texts (person and request index) and their replies, checked
    /// after the timed phase.
    cold: Vec<(usize, usize, String)>,
    /// Loads (element edited, value written) and the read's reply, checked
    /// after the timed phase by replaying the edits.
    loads: Vec<(usize, u64, String)>,
    spans: Vec<Span>,
    tally: EvalTally,
    /// Traced query requests: summed server on-worker, queue-wait and
    /// leftover nanoseconds, and their count.
    server: [u64; 4],
    speed: Sampler,
    ended: Option<Instant>,
}

fn eval_delta(after: &EvalStats, before: &EvalStats) -> EvalStats {
    EvalStats {
        index_hits: after.index_hits - before.index_hits,
        index_misses: after.index_misses - before.index_misses,
        join_builds: after.join_builds - before.join_builds,
        join_probes: after.join_probes - before.join_probes,
        join_fallbacks: after.join_fallbacks - before.join_fallbacks,
        cache_hits: after.cache_hits - before.cache_hits,
        cache_resets: after.cache_resets - before.cache_resets,
        streamed_existence: after.streamed_existence - before.streamed_existence,
        items_allocated: after.items_allocated - before.items_allocated,
        items_streamed: after.items_streamed - before.items_streamed,
        cursor_early_exits: after.cursor_early_exits - before.cursor_early_exits,
        queue_wait_ns: after.queue_wait_ns - before.queue_wait_ns,
        on_worker_ns: after.on_worker_ns - before.on_worker_ns,
    }
}

/// The compile stages on one text, each in its own span: the work a plan
/// cache miss makes the service do, measured in the client's process.
fn compile_stages(tracer: &mut Tracer, text: &str) {
    let compile = tracer.begin("xquery.compile");
    let span = tracer.begin("xquery.compile.parse");
    let module = parse_module(text);
    tracer.end(span);
    if let Ok(mut module) = module {
        let span = tracer.begin("xquery.compile.optimize");
        // The service's default options: no Galax quirks.
        optimize_module(
            &mut module,
            OptimizerOptions {
                trace_is_pure: false,
            },
        );
        tracer.end(span);
        let span = tracer.begin("xquery.compile.lower");
        let program = lower_module(&module);
        tracer.end(span);
        if let Ok(mut program) = program {
            let span = tracer.begin("xquery.compile.lopt");
            optimize_program(&mut program);
            tracer.end(span);
        }
    }
    tracer.end(compile);
}

/// Encodes and decodes one request frame and its reply in memory.
fn frame_codec(tracer: &mut Tracer, words: &[&str], request: &[u8], reply: &[u8]) {
    let span = tracer.begin("qsvc.frame_codec");
    let mut buf = Vec::with_capacity(request.len() + reply.len() + 64);
    write_frame(&mut buf, words, request).expect("writing to memory succeeds");
    write_frame(&mut buf, &["OK"], reply).expect("writing to memory succeeds");
    let mut reader = BufReader::new(buf.as_slice());
    let decoded = (read_frame(&mut reader), read_frame(&mut reader));
    assert!(
        matches!(decoded, (Ok(Some(_)), Ok(Some(_)))),
        "frames round-trip in memory"
    );
    tracer.end(span);
}

/// What every client of a round shares.
struct RoundCtx<'a> {
    round: usize,
    service: &'a Service,
    hot: &'a [String],
    expected: &'a HashMap<String, String>,
    seconds: f64,
    trace: bool,
    start: &'a Barrier,
    epoch: Instant,
}

fn client_loop(
    client: &mut Client,
    c: usize,
    schedule: ServiceSchedule,
    ctx: &RoundCtx,
) -> ClientRun {
    let me = tenant(c);
    let uri = editable_uri(c);
    let mut run = ClientRun::default();
    let mut tracer = Tracer::new(ctx.epoch);
    let mut values = vec![0u64; queries::EDITABLE_ELEMENTS];
    ctx.start.wait();
    let t0 = Instant::now();
    for (n, op) in schedule.enumerate() {
        if t0.elapsed().as_secs_f64() >= ctx.seconds {
            break;
        }
        run.speed.tick(t0.elapsed().as_secs_f64());
        let traced = ctx.trace && n % TRACE_EVERY == TRACE_EVERY - 1;
        tracer.set_op(((ctx.round * CLIENTS + c) as u64) << 40 | n as u64, traced);
        let before = traced.then(|| ctx.service.tenant_stats(&me).unwrap_or_default());
        let (class, ms, ok, words_text) = match op {
            ServiceOp::Point(_) | ServiceOp::Stream | ServiceOp::Join => {
                let text = match op {
                    ServiceOp::Point(k) => &ctx.hot[k],
                    ServiceOp::Stream => &ctx.hot[HOT_POINTS],
                    _ => &ctx.hot[HOT_POINTS + 1],
                };
                let t = Instant::now();
                let root = tracer.begin("hot_query");
                let rtt = tracer.begin("qsvc.rtt.hot");
                let reply = client.query(CORPUS_URI, text);
                tracer.end(rtt);
                tracer.end(root);
                let ms = t.elapsed().as_secs_f64() * 1e3;
                let ok = reply
                    .as_ref()
                    .is_ok_and(|r| Some(r) == ctx.expected.get(text.as_str()));
                (
                    0,
                    ms,
                    ok,
                    Some((text.clone(), reply.unwrap_or_default(), rtt)),
                )
            }
            ServiceOp::Cold(person) => {
                let text = cold_text(person, ctx.round, c, n);
                let t = Instant::now();
                let root = tracer.begin("cold_query");
                let rtt = tracer.begin("qsvc.rtt.cold");
                let reply = client.query(CORPUS_URI, &text);
                tracer.end(rtt);
                tracer.end(root);
                let ms = t.elapsed().as_secs_f64() * 1e3;
                let ok = reply.is_ok();
                let reply = reply.unwrap_or_default();
                run.cold.push((person, n, reply.clone()));
                (1, ms, ok, Some((text, reply, rtt)))
            }
            ServiceOp::Load(k) => {
                let value = n as u64 + 1;
                values[k] = value;
                let xml = queries::editable_doc(&values);
                let read = queries::editable_read(k);
                let t = Instant::now();
                let root = tracer.begin("load");
                let rtt = tracer.begin("qsvc.rtt.load");
                let loaded = client.load(&uri, &xml);
                tracer.end(rtt);
                let span = tracer.begin("qsvc.rtt.load_read");
                let reply = client.query(&uri, &read);
                tracer.end(span);
                tracer.end(root);
                let ms = t.elapsed().as_secs_f64() * 1e3;
                let reply = reply.unwrap_or_default();
                let ok = loaded.is_ok() && reply == value.to_string();
                if traced {
                    let span = tracer.begin("xmlstore.parse");
                    let parsed = Engine::new().load_document(&xml).is_ok();
                    tracer.end(span);
                    std::hint::black_box(parsed);
                }
                run.loads.push((k, value, reply));
                (2, ms, ok, None)
            }
        };
        run.ops
            .push((class, t0.elapsed().as_secs_f64(), ms, traced, ok));
        if let (Some(before), Some((text, reply, rtt))) = (before, words_text) {
            let after = ctx.service.tenant_stats(&me).unwrap_or_default();
            let delta = eval_delta(&after.eval, &before.eval);
            run.tally.add(&delta);
            tracer.reported_under(rtt, "xquery.eval.queue_wait", delta.queue_wait_ns);
            tracer.reported_under(rtt, "xquery.eval.on_worker", delta.on_worker_ns);
            let rtt_ns = (ms * 1e6) as u64;
            run.server[0] += delta.on_worker_ns;
            run.server[1] += delta.queue_wait_ns;
            run.server[2] += rtt_ns.saturating_sub(delta.on_worker_ns + delta.queue_wait_ns);
            run.server[3] += 1;
            frame_codec(
                &mut tracer,
                &["QUERY", CORPUS_URI],
                text.as_bytes(),
                reply.as_bytes(),
            );
            if class == 1 {
                compile_stages(&mut tracer, &text);
            }
        }
    }
    run.ended = Some(Instant::now());
    run.spans = tracer.into_spans();
    run
}

/// Counter snapshot over both tenants plus the global plan cache's
/// evictions.
fn counters(service: &Service) -> (TenantStats, u64) {
    let mut sum = TenantStats::default();
    for c in 0..CLIENTS {
        let t = service.tenant_stats(&tenant(c)).unwrap_or_default();
        sum.plan_hits += t.plan_hits;
        sum.plan_misses += t.plan_misses;
        sum.doc_hits += t.doc_hits;
        sum.doc_misses += t.doc_misses;
    }
    (sum, service.plan_cache_counters().2)
}

pub fn run(args: &Args) -> Report {
    let mut report = Report::new(["hot_query", "cold_query", "load"], 99.0);
    let scale = XmarkScale::about(queries::CORPUS_NODES);
    let corpus = xmark_auction(&scale, args.seed);

    // The reference answers: an in-process engine on the same bytes.
    let mut reference = Engine::new();
    let t = Instant::now();
    let corpus_doc = reference
        .load_document(&corpus)
        .expect("the corpus parses in-process");
    let parse_ms = t.elapsed().as_secs_f64() * 1e3;
    let hot = hot_texts();
    let expected: HashMap<String, String> = hot
        .iter()
        .map(|text| {
            let out = reference
                .evaluate_str(text, Some(corpus_doc))
                .expect("a hot text runs in-process");
            (text.clone(), reference.display_sequence(&out))
        })
        .collect();

    report.note(
        "corpus",
        format!(
            "XMark, {} records, {} bytes, {} people",
            scale.node_count(),
            corpus.len(),
            scale.people
        ),
    );
    report.note(
        "loop",
        format!(
            "closed, {CLIENTS} client connections over loopback TCP, eval_workers 2, plan cache {} entries; \
             {ROUNDS} rounds, each against a freshly started service",
            ServiceConfig::default().plan_cache_capacity
        ),
    );
    report.note(
        "mix (per mille)",
        SERVICE_MIX
            .iter()
            .map(|(k, v)| format!("{k} {v}"))
            .collect::<Vec<_>>()
            .join(", "),
    );
    report.note(
        "hot set",
        format!(
            "{} texts plus {LOAD_TARGETS} editable reads; editable document {} elements",
            hot.len(),
            queries::EDITABLE_ELEMENTS
        ),
    );

    report.window_unit = "round against a fresh service";
    let round_s = args.seconds / ROUNDS as f64;
    let epoch = Instant::now();
    let mut tally = EvalTally::default();
    let mut server = [0u64; 4];
    let mut deferred_failures = 0u64;
    let mut span_parts = Vec::new();
    let (mut plan_hits, mut plan_misses, mut doc_hits, mut doc_misses, mut evictions) =
        (0u64, 0u64, 0u64, 0u64, 0u64);
    let mut host_ref = Reference::default();
    for round in 0..ROUNDS {
        report.setup_unit_ms.push(host_ref.time_unit());
        report.setup_unit_ms.push(host_ref.time_unit());
        let t = Instant::now();
        let Setup {
            service,
            mut clients,
        } = setup(&corpus);
        report.setups_s.push(t.elapsed().as_secs_f64());
        if round == 0 {
            report.note("peak_rss_mb after set-up", crate::report::peak_rss_mb());
        }
        let (before, evictions_before) = counters(&service);
        let barrier = Barrier::new(CLIENTS + 1);
        let ctx = RoundCtx {
            round,
            service: &service,
            hot: &hot,
            expected: &expected,
            seconds: round_s,
            trace: args.trace,
            start: &barrier,
            epoch,
        };
        let (runs, started) = std::thread::scope(|scope| {
            let handles: Vec<_> = clients
                .iter_mut()
                .enumerate()
                .map(|(c, client)| {
                    let schedule =
                        ServiceSchedule::new(args.seed, round * CLIENTS + c, scale.people);
                    let ctx = &ctx;
                    scope.spawn(move || client_loop(client, c, schedule, ctx))
                })
                .collect();
            barrier.wait();
            let started = Instant::now();
            let runs: Vec<ClientRun> = handles
                .into_iter()
                .map(|h| h.join().expect("a client thread finishes"))
                .collect();
            (runs, started)
        });
        let ended = runs.iter().filter_map(|r| r.ended).max().unwrap_or(started);
        let (after, evictions_after) = counters(&service);
        plan_hits += after.plan_hits - before.plan_hits;
        plan_misses += after.plan_misses - before.plan_misses;
        doc_hits += after.doc_hits - before.doc_hits;
        doc_misses += after.doc_misses - before.doc_misses;
        evictions += evictions_after - evictions_before;
        Setup { service, clients }.stop();

        // Op times count from the start of the round, placed after the
        // rounds before it, so the timed phase excludes the set-ups.
        let offset = report.wall_s;
        for (c, run) in runs.into_iter().enumerate() {
            for &(class, at_s, ms, traced, ok) in &run.ops {
                report.op(class, offset + at_s, ms, traced, ok);
            }
            for &(at_s, ms) in &run.speed.samples {
                report.speed.push((offset + at_s, ms));
            }
            // Cold texts and loads, against the in-process engine.
            for (person, n, reply) in &run.cold {
                let text = cold_text(*person, round, c, *n);
                let want = reference
                    .evaluate_str(&text, Some(corpus_doc))
                    .map(|out| reference.display_sequence(&out));
                if want.as_ref().ok() != Some(reply) {
                    deferred_failures += 1;
                }
            }
            let mut values = vec![0u64; queries::EDITABLE_ELEMENTS];
            for (k, value, reply) in &run.loads {
                values[*k] = *value;
                let mut engine = Engine::new();
                let want = engine
                    .load_document(&queries::editable_doc(&values))
                    .and_then(|doc| engine.evaluate_str(&queries::editable_read(*k), Some(doc)))
                    .map(|out| engine.display_sequence(&out));
                if want.as_ref().ok() != Some(reply) {
                    deferred_failures += 1;
                }
            }
            tally.stats.merge(&run.tally.stats);
            tally.evals += run.tally.evals;
            for (sum, part) in server.iter_mut().zip(run.server) {
                *sum += part;
            }
            span_parts.push(run.spans);
        }
        report.wall_s += ended.duration_since(started).as_secs_f64();
        report.window_ends.push(report.wall_s);
    }
    report.fail_checked(deferred_failures);
    report.note(
        "replies checked against an in-process engine",
        report.attempted,
    );
    report.spans = trace::merge(span_parts);

    report.note("corpus parse in-process (ms)", parse_ms);
    let load_parse = trace::totals_by_name(&report.spans)
        .get("xmlstore.parse")
        .map_or(0.0, |t| t.total_ns as f64 / t.calls as f64 / 1e6);
    let requests = server[3] as f64;
    let v = &mut report.values;
    tally.values(v);
    v.insert("xmlstore.parse_ms", load_parse);
    v.insert(
        "qsvc.server_eval_ms",
        stats::ratio(server[0] as f64, requests) / 1e6,
    );
    v.insert(
        "qsvc.server_queue_wait_ms",
        stats::ratio(server[1] as f64, requests) / 1e6,
    );
    v.insert(
        "qsvc.leftover_ms",
        stats::ratio(server[2] as f64, requests) / 1e6,
    );
    let (plan_hits, plan_misses) = (plan_hits as f64, plan_misses as f64);
    v.insert(
        "qsvc.plan_hit_frac",
        stats::ratio(plan_hits, plan_hits + plan_misses),
    );
    v.insert("qsvc.plan_evictions", evictions as f64);
    let (doc_hits, doc_misses) = (doc_hits as f64, doc_misses as f64);
    v.insert(
        "qsvc.doc_hit_frac",
        stats::ratio(doc_hits, doc_hits + doc_misses),
    );
    report.note(
        "qsvc.leftover_ms covers",
        "wire + decode + plan lookup (and compile on a miss) + mount + serialize",
    );
    report
}
