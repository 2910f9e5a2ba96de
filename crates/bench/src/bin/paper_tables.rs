//! `paper_tables` — regenerates every table, figure, and quantified claim of
//! the paper as text, in the paper's own layout.
//!
//! Usage: `cargo run --release -p bench-suite --bin paper_tables [-- IDS…]`
//! where IDS are any of `t1 b1 b2 b3 e1 e2 e3 e4 e5 e6 e7 e8` (default all).
//!
//! Wall-clock numbers here are single-shot indications; the statistically
//! careful versions live in `cargo bench`.

use awb::workload::{it_architecture, it_metamodel, production_scale};
use awb::{xmlio, NodeRef, PropValue, Query};
use bench_suite::corpus::{
    deep_document, entity_document, wide_document, xmark_auction, XmarkScale,
};
use bench_suite::scenario::{self, OpClass, ScenarioConfig};
use bench_suite::{call_graph, it_workload, loc, marker_loc, percentile, set_fault_rate, Workload};
use docgen::batch::{generate_batch_with, BatchJob, CompiledPipeline, GeneratorKind};
use docgen::xq::{Phase, XqGenerator};
use docgen::{native, normalized_equal, EditFootprint, GenInputs, IncrementalDoc, Template};
use qsvc::{Client, Service, ServiceConfig};
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Instant;
use xmlstore::parser::ParseOptions;
use xmlstore::QName;
use xquery::{Engine, EngineOptions, EvalStats, StackPool};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let want = |id: &str| args.is_empty() || args.iter().any(|a| a == id);

    if want("t1") {
        t1_indexing_table();
    }
    if want("b1") {
        b1_attribute_folding();
    }
    if want("b2") {
        b2_comparisons();
    }
    if want("b3") {
        b3_quirks();
    }
    if want("e1") {
        e1_calculus();
    }
    if want("e2") {
        e2_phases();
    }
    if want("e3") {
        e3_errors();
    }
    if want("e4") {
        e4_trace_dce();
    }
    if want("e5") {
        e5_tables();
    }
    if want("e6") {
        e6_loc();
    }
    if want("e7") {
        e7_equivalence();
    }
    if want("e8") {
        e8_metastasis();
    }
    if want("e9") {
        e9_output_streams();
    }
    if want("morals") {
        morals();
    }
    // Opt-in only (writes a file): `paper_tables -- bench-json`.
    if args.iter().any(|a| a == "bench-json") {
        bench_json();
    }
    // Opt-in only (asserts, for CI): `paper_tables -- check-obs`.
    if args.iter().any(|a| a == "check-obs") {
        check_obs();
    }
    // Opt-in only (writes a file): `paper_tables -- bench-qps`.
    if args.iter().any(|a| a == "bench-qps") {
        bench_qps();
    }
    // Opt-in only (writes a file): `paper_tables -- bench-edit`.
    if args.iter().any(|a| a == "bench-edit") {
        bench_edit();
    }
    // Opt-in only (asserts, for CI): `paper_tables -- scenario-smoke`.
    if args.iter().any(|a| a == "scenario-smoke") {
        scenario_smoke();
    }
    // Opt-in only (asserts, for CI): `paper_tables -- bench-gate [BASELINE]`.
    if let Some(pos) = args.iter().position(|a| a == "bench-gate") {
        let baseline = args
            .get(pos + 1)
            .map(String::as_str)
            .unwrap_or("BENCH_7.json");
        bench_gate(baseline);
    }
}

// ----------------------------------------------------------------------
// Observability probes: one representative query per claimed fast path,
// with the engine's counter block proving the path actually ran.
// ----------------------------------------------------------------------

/// Document backing the observability probes: enough attributed items for
/// every index path to fire, plus a `leaf` for the existence probe.
fn obs_doc() -> String {
    let mut s = String::from("<root>");
    for i in 0..100 {
        s.push_str(&format!("<item k='k{}' g='g{}'/>", i % 10, i % 4));
    }
    s.push_str("<leaf/></root>");
    s
}

/// The probe queries, one per fast path the engine claims to have.
const OBS_PROBES: &[(&str, &str)] = &[
    (
        "hash_join",
        "count(for $n in /root/item for $r in /root/item where $r/@k = $n/@k return 1)",
    ),
    ("index_range", "count(//item)"),
    ("attr_index_probe", "count(/root/item[@k = 'k3'])"),
    (
        "cache_once",
        "let $d := /root return for $i in (1, 2, 3) return ($i, string($d/item[1]/@k))",
    ),
    ("streamed_existence", "exists(//leaf)"),
    ("cursor_pick", "(//item)[3]"),
];

/// Runs every probe on one engine and returns its counter block per probe.
fn obs_probe_rows(runtime_opt: bool) -> Vec<(&'static str, EvalStats)> {
    let mut engine = Engine::with_options(EngineOptions {
        runtime_opt,
        ..Default::default()
    });
    let doc = engine.load_document(&obs_doc()).expect("obs document");
    OBS_PROBES
        .iter()
        .map(|(name, src)| {
            let q = engine.compile(src).expect("obs probe compiles");
            engine.evaluate(&q, Some(doc)).expect("obs probe runs");
            (*name, *engine.last_stats())
        })
        .collect()
}

/// One JSON object per probe, carrying the full counter block.
fn obs_stats_json(name: &str, s: &EvalStats) -> String {
    format!(
        "{{\"path\": \"{name}\", \"index_hits\": {}, \"index_misses\": {}, \
         \"join_builds\": {}, \"join_probes\": {}, \"join_fallbacks\": {}, \
         \"cache_hits\": {}, \"cache_resets\": {}, \"streamed_existence\": {}, \
         \"items_allocated\": {}, \"items_streamed\": {}, \"cursor_early_exits\": {}}}",
        s.index_hits,
        s.index_misses,
        s.join_builds,
        s.join_probes,
        s.join_fallbacks,
        s.cache_hits,
        s.cache_resets,
        s.streamed_existence,
        s.items_allocated,
        s.items_streamed,
        s.cursor_early_exits
    )
}

/// `paper_tables -- check-obs` — asserts that every fast path the engine
/// claims (hash join, index range, attribute-index probe, CacheOnce,
/// streamed existence) reports non-zero counters on its probe query, and
/// that with the runtime passes off the same queries report zero for every
/// optimisation counter. Panics (non-zero exit) on any violation, so CI can
/// run it directly.
fn check_obs() {
    header("check-obs — every claimed fast path must count, and admit to nothing when off");
    let rows = obs_probe_rows(true);
    let get = |name: &str| {
        rows.iter()
            .find(|(n, _)| *n == name)
            .map(|(_, s)| *s)
            .expect("probe row")
    };

    let join = get("hash_join");
    assert!(
        join.join_builds >= 1 && join.join_probes > 0,
        "hash join path did not count: {join:?}"
    );
    let range = get("index_range");
    assert!(
        range.index_hits > 0,
        "index-range path did not count: {range:?}"
    );
    let probe = get("attr_index_probe");
    assert!(
        probe.index_hits > 0,
        "attribute-index path did not count: {probe:?}"
    );
    let cache = get("cache_once");
    assert!(
        cache.cache_hits > 0,
        "CacheOnce path did not count: {cache:?}"
    );
    let stream = get("streamed_existence");
    assert!(
        stream.streamed_existence > 0,
        "streamed-existence path did not count: {stream:?}"
    );
    let pick = get("cursor_pick");
    assert!(
        pick.items_streamed > 0 && pick.cursor_early_exits > 0,
        "cursor-pick path did not stream or early-exit: {pick:?}"
    );
    for (name, stats) in &rows {
        println!("  {name:<20} {stats:?}");
    }

    for (name, stats) in obs_probe_rows(false) {
        for (counter, value) in stats.opt_counters() {
            assert_eq!(
                value, 0,
                "{name}: counter {counter} must be zero with the runtime passes off"
            );
        }
    }

    // The cursor runtime: streamed evaluation must cut `items_allocated`
    // at least 10x against a force-materialised twin on the prefix and
    // hash-join rows, and each streamed row's allocation ceiling is
    // pinned so the paths cannot quietly regress to materialising again
    // (BENCH_5/6 recorded 1000 allocations for the 100-tuple join probe;
    // the build side now streams its key extraction).
    let axis_doc = axis_bench_doc();
    let obs = obs_doc();
    for (name, doc_xml, src, ceiling) in [
        (
            "stream_prefix",
            axis_doc.as_str(),
            "//item[position() <= 5]",
            16u64,
        ),
        ("stream_join", obs.as_str(), OBS_PROBES[0].1, 250),
    ] {
        let on = stream_probe(doc_xml, src, true);
        let off = stream_probe(doc_xml, src, false);
        assert!(
            on.items_allocated <= ceiling,
            "{name}: streamed run blew its allocation ceiling ({} > {ceiling}): {on:?}",
            on.items_allocated
        );
        assert!(
            off.items_allocated >= on.items_allocated.max(1) * 10,
            "{name}: streaming must cut allocations at least 10x: on {} vs off {}",
            on.items_allocated,
            off.items_allocated
        );
        assert!(
            on.items_streamed > 0,
            "{name}: streamed run did not count its pulls: {on:?}"
        );
        for (counter, value) in off.opt_counters() {
            assert_eq!(
                value, 0,
                "{name}: counter {counter} must be zero with runtime_opt off"
            );
        }
        println!(
            "  {name:<20} items_allocated {} (streamed, ceiling {ceiling}) vs {} (materialised), \
             {} pulled, {} early exit(s)",
            on.items_allocated, off.items_allocated, on.items_streamed, on.cursor_early_exits
        );
    }

    // The store substrate must also count: parsed documents land in the
    // frozen arena, descendant sweeps are slice scans, snapshots are Arc
    // bumps, and adopt shares the records instead of copying nodes.
    let (stats, shared) = substrate_probe();
    assert!(
        stats.trees_frozen > 0,
        "parsed document did not land frozen: {stats:?}"
    );
    assert!(
        stats.arena_slice_scans > 0,
        "frozen descendant sweep did not count as a slice scan: {stats:?}"
    );
    assert_eq!(
        stats.tree_snapshots, 1,
        "snapshot() must count exactly once here: {stats:?}"
    );
    assert!(
        shared,
        "adopt must share the frozen records across stores (Arc identity)"
    );
    println!("  substrate {stats:?}, adopt shares records: {shared}");

    // Incremental maintenance: warm localized edits must patch the live
    // index in place (never rebuild), the whole-tree fallback must still
    // fire on an oversized edit, and a localized edit batch must re-freeze
    // by splicing — with a verbatim remount for untouched trees and the
    // full-rebuild path still serving stores without provenance.
    {
        let mut s = xmlstore::Store::new();
        let doc = s
            .parse_str(&obs_doc(), &ParseOptions::data_oriented())
            .expect("obs doc parses");
        let root = s.child_elements(doc)[0];
        let item = QName::from("item").local_sym();
        // The first edit thaws the tree and the first query builds the live
        // index lazily; neither counts as a patch nor as a rebuild.
        let probe = s.create_element("item").expect("element");
        s.insert_child(root, 0, probe).expect("insert");
        let n = s.descendant_elements_by_local(doc, item).len();
        s.detach(probe);
        let warm = s.stats();
        assert_eq!(
            warm.index_full_rebuilds, 0,
            "a lazy index build is not a rebuild: {warm:?}"
        );
        s.insert_child(root, 0, probe).expect("insert");
        assert_eq!(s.descendant_elements_by_local(doc, item).len(), n);
        s.detach(probe);
        let after = s.stats();
        assert!(
            after.index_repatches >= warm.index_repatches + 2,
            "warm localized edits must patch the live index: {after:?}"
        );
        assert_eq!(
            after.index_full_rebuilds, 0,
            "a localized edit must never discard the live index: {after:?}"
        );
        // Oversized edit: detaching the document element moves the whole
        // tree, where patching would cost more than rebuilding — the
        // fallback must fire exactly there.
        s.detach(root);
        s.append_child(doc, root).expect("reattach");
        let fallback = s.stats();
        assert!(
            fallback.index_full_rebuilds > 0,
            "the whole-tree fallback must stay available: {fallback:?}"
        );
        println!(
            "  incremental index: {} repatch(es), {} full rebuild(s) — fallback intact",
            fallback.index_repatches, fallback.index_full_rebuilds
        );

        let mut f = xmlstore::Store::new();
        let fdoc = f
            .parse_str(&obs_doc(), &ParseOptions::data_oriented())
            .expect("obs doc parses");
        f.thaw(fdoc);
        f.freeze(fdoc).expect("untouched freeze");
        assert_eq!(
            f.stats().trees_refrozen_incremental,
            1,
            "an untouched thaw/freeze must remount verbatim"
        );
        let froot = f.child_elements(fdoc)[0];
        let first = f.child_elements(froot)[0];
        f.set_attribute(first, "k", "edited").expect("edit");
        let mut cold = f.clone();
        f.freeze(fdoc).expect("incremental freeze");
        assert_eq!(
            f.stats().trees_refrozen_incremental,
            2,
            "a localized edit batch must re-freeze by splicing"
        );
        cold.freeze(fdoc).expect("full freeze");
        assert_eq!(
            cold.stats().trees_refrozen_incremental,
            0,
            "without provenance the full-rebuild path serves — fallback intact"
        );
        println!(
            "  incremental refreeze: remount and splice counted; provenance-free clone rebuilt"
        );
    }

    println!("  all observability counters check out (and zero out with XQ_OPT=0)");
}

/// Runs one query on a fresh engine with the runtime optimiser (and so the
/// cursor runtime) on or off and returns its counter block — the
/// before/after pair behind the 10x allocation claims.
fn stream_probe(doc_xml: &str, src: &str, runtime_opt: bool) -> EvalStats {
    let mut engine = Engine::with_options(EngineOptions {
        runtime_opt,
        ..Default::default()
    });
    let doc = engine
        .load_document(doc_xml)
        .expect("stream probe document");
    let q = engine.compile(src).expect("stream probe compiles");
    engine.evaluate(&q, Some(doc)).expect("stream probe runs");
    *engine.last_stats()
}

/// Exercises the frozen-arena lifecycle once on the obs document: a frozen
/// descendant sweep, an O(1) snapshot, and a cross-store adopt. Returns the
/// source store's substrate counters and whether the adopting store ended up
/// sharing the same frozen records (Arc identity — the no-copy proof).
fn substrate_probe() -> (xmlstore::StoreStats, bool) {
    let mut engine = Engine::new();
    let doc = engine
        .load_document(&obs_doc())
        .expect("substrate document");
    let q = engine.compile("count(//item)").expect("substrate probe");
    engine
        .evaluate(&q, Some(doc))
        .expect("substrate probe runs");
    let snap = engine
        .store()
        .snapshot(doc)
        .expect("parsed documents are frozen");
    let mut other = xmlstore::Store::new();
    let adopted = other.adopt(&snap).expect("adopt");
    let resnap = other.snapshot(adopted).expect("adopted trees stay frozen");
    let shared = xmlstore::TreeSnapshot::ptr_eq(&snap, &resnap);
    (engine.store().stats(), shared)
}

// ----------------------------------------------------------------------
// bench-gate: re-time the regression-prone rows against a baseline.
// ----------------------------------------------------------------------

/// Pulls `"key": <number>` out of the single-line JSON row that contains
/// `anchor`. The BENCH_N files are written by this binary one row per line,
/// so a line scan is an exact parser for them.
fn baseline_number(text: &str, anchor: &str, key: &str) -> Option<f64> {
    let row = text.lines().find(|l| l.contains(anchor))?;
    let field = format!("\"{key}\": ");
    let start = row.find(&field)? + field.len();
    let rest = &row[start..];
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// The gate's ratio tolerance: a row may run this much slower than its
/// baseline before it counts as a regression.
const GATE_TOLERANCE: f64 = 1.25;
/// Absolute floor added to microsecond-scale rows so timer granularity
/// cannot trip them.
const GATE_FLOOR_MS: f64 = 0.05;

/// The formula limit for a **microsecond-scale** row. This is also the
/// fallback when a baseline row carries no explicit `gate_limit_ms`
/// (BENCH_7/8/9 snapshots written before limits were explicit).
fn micro_gate_limit(baseline_median_ms: f64) -> f64 {
    (baseline_median_ms * GATE_TOLERANCE).max(baseline_median_ms + GATE_FLOOR_MS)
}

/// The limit for a **multi-millisecond corpus** row. The micro formula is
/// wrong-shaped here: its +0.05 ms floor is invisible next to a 20 ms
/// median, while scheduler noise on a big parse easily exceeds 25% of a
/// single fast sample. So these rows get a wider ratio, a half-millisecond
/// absolute floor, and — because the writer records the observed envelope —
/// never a limit below 1.25x the baseline's own max.
fn corpus_gate_limit(s: Stats) -> f64 {
    (s.median * 1.5)
        .max(s.median + 0.5)
        .max(s.max * GATE_TOLERANCE)
}

/// `paper_tables -- bench-gate [BASELINE.json]` — re-times the E1 n=800
/// lowered row, every axis micro row, and (when the baseline carries them)
/// the BENCH_9 edit rows and BENCH_10 corpus/scenario rows, and panics
/// (non-zero exit, for CI) if any row regresses past its limit. The gate
/// compares the *fastest* of its 41 samples against the limit: scheduler
/// noise only ever inflates a timing, so the minimum is the robust
/// estimator of true cost, while a real regression raises the minimum just
/// the same. Each row's limit is explicit in the baseline JSON
/// (`gate_limit_ms` for latency rows, `gate_floor_qps` for inverted
/// throughput rows); rows from snapshots written before limits were
/// explicit fall back to the micro formula
/// `max(1.25 x baseline, baseline + 0.05 ms)`. A row over its limit is
/// re-measured twice before it counts as a failure.
fn bench_gate(baseline_path: &str) {
    header(&format!(
        "bench-gate — fastest-of-41 vs {baseline_path}, explicit per-row gate_limit_ms \
         (fallback: max(1.25 x baseline, baseline + 0.05 ms))"
    ));
    let baseline = std::fs::read_to_string(baseline_path)
        .unwrap_or_else(|e| panic!("bench-gate: cannot read {baseline_path}: {e}"));
    const MICRO_REPS: usize = 41;
    /// Extra measurements granted to a row that lands over its limit. A
    /// shared CI box wobbles far more than 25% in a single median; a real
    /// regression stays over the limit on every re-measure, noise does not.
    const RETRIES: usize = 2;
    let mut failures: Vec<String> = Vec::new();
    let mut gate =
        |row: &str, base: Option<f64>, explicit: Option<f64>, sample: &mut dyn FnMut() -> f64| {
            let mut got = sample();
            match base {
                None => println!("  {row:<24} {got:>9.4} ms  (no baseline row — skipped)"),
                Some(base) => {
                    let limit = explicit.unwrap_or_else(|| micro_gate_limit(base));
                    let mut tries = 1;
                    while got > limit && tries <= RETRIES {
                        got = sample();
                        tries += 1;
                    }
                    let verdict = if got <= limit {
                        "ok"
                    } else {
                        failures.push(format!("{row}: {got:.4} ms > limit {limit:.4} ms"));
                        "REGRESSED"
                    };
                    println!(
                    "  {row:<24} {got:>9.4} ms  baseline {base:>9.4}  limit {limit:>9.4}  {verdict}"
                );
                }
            }
        };

    // E1 n=800, lowered runner — the headline calculus row.
    let w = it_workload(800, 42);
    let q = Query::from_type("user")
        .follow("likes")
        .follow_to("uses", "Program")
        .dedup()
        .sort_by_label();
    let mut engine = Engine::new();
    let doc = xmlio::export_to_store(&w.model, engine.store_mut());
    engine.register_document("awb-model", doc);
    let compiled = engine.compile(&q.to_xquery(&w.meta)).unwrap();
    gate(
        "e1_n800_xq_lowered",
        baseline_number(&baseline, "\"nodes\": 800, \"native_ms\"", "xq_lowered_ms"),
        baseline_number(&baseline, "\"nodes\": 800, \"native_ms\"", "gate_limit_ms"),
        &mut || {
            measure(MICRO_REPS, || {
                engine.evaluate(&compiled, None).unwrap();
            })
            .min
        },
    );

    // Every axis micro row — the structural paths the substrate serves.
    let mut engine = Engine::new();
    let doc = engine
        .load_document(&axis_bench_doc())
        .expect("axis bench document");
    for (name, src) in AXIS_MICRO {
        let compiled = engine.compile(src).unwrap();
        gate(
            name,
            baseline_number(&baseline, &format!("\"name\": \"{name}\""), "lowered_ms"),
            baseline_number(&baseline, &format!("\"name\": \"{name}\""), "gate_limit_ms"),
            &mut || {
                measure_per_call(MICRO_REPS, 10, || {
                    engine.evaluate(&compiled, Some(doc)).unwrap();
                })
                .min
            },
        );
    }

    // BENCH_9 edit rows — gated only when the baseline snapshot carries
    // them (CI runs `bench-gate BENCH_9.json` as its own step). Latency
    // rows, so they gate exactly like the ones above: fastest sample vs
    // baseline median. The 100k row is reported in the snapshot but not
    // re-timed here — rebuilding the production corpus per retry is too
    // slow for a gate.
    if baseline.contains("\"name\": \"edit_docgen_n800\"") {
        gate(
            "edit_incremental_n800",
            baseline_number(
                &baseline,
                "\"name\": \"edit_docgen_n800\"",
                "incremental_ms",
            ),
            baseline_number(&baseline, "\"name\": \"edit_docgen_n800\"", "gate_limit_ms"),
            &mut || edit_gate_sample(),
        );
        gate(
            "index_repatch",
            baseline_number(
                &baseline,
                "\"name\": \"index_repatch_vs_rebuild\"",
                "index_repatch_ms",
            ),
            baseline_number(
                &baseline,
                "\"name\": \"index_repatch_vs_rebuild\"",
                "gate_limit_ms",
            ),
            &mut || edit_micro_index(MICRO_REPS).0.min,
        );
        gate(
            "refreeze_incremental",
            baseline_number(
                &baseline,
                "\"name\": \"refreeze_vs_rebuild\"",
                "refreeze_incremental_ms",
            ),
            baseline_number(
                &baseline,
                "\"name\": \"refreeze_vs_rebuild\"",
                "gate_limit_ms",
            ),
            &mut || edit_micro_refreeze(MICRO_REPS).0.min,
        );
    }

    // BENCH_10 corpus and scenario rows — gated only when the baseline is
    // the BENCH_10 snapshot. Latency rows carry explicit `gate_limit_ms`
    // in the corpus shape (see [`corpus_gate_limit`]); the scenario rows
    // gate inverted on `gate_floor_qps`, like the service QPS row. The
    // scenario failures come back as a list because `gate` holds the
    // mutable borrow of `failures` until its last call.
    let bench10_failures = if baseline.contains("\"name\": \"xmark_point\"") {
        bench10_gate_rows(&baseline, &mut gate)
    } else {
        Vec::new()
    };

    // The service QPS row gates the other way round: throughput is
    // higher-is-better, so the BEST of a few rounds must stay above
    // baseline / 1.25. Scheduler noise only ever deflates a QPS figure,
    // so the maximum plays the role the minimum plays for the latency
    // rows. The baseline lives in its own snapshot (BENCH_8.json); a
    // checkout without one skips the row instead of failing.
    match std::fs::read_to_string(QPS_BASELINE) {
        Err(_) => println!("  {:<24} (no {QPS_BASELINE} — skipped)", "qps_hot_plan"),
        Ok(text) => match baseline_number(&text, "\"name\": \"qps_hot_plan\"", "qps") {
            None => println!("  {:<24} (no qps_hot_plan row — skipped)", "qps_hot_plan"),
            Some(base) => {
                // The inverted-row limit is explicit in the snapshot too;
                // the ratio fallback covers pre-existing BENCH_8 files.
                let floor = baseline_number(&text, "\"name\": \"qps_hot_plan\"", "gate_floor_qps")
                    .unwrap_or(base / GATE_TOLERANCE);
                let mut best = qps_gate_sample();
                let mut tries = 1;
                while best < floor && tries <= RETRIES {
                    best = best.max(qps_gate_sample());
                    tries += 1;
                }
                let verdict = if best >= floor {
                    "ok"
                } else {
                    failures.push(format!(
                        "qps_hot_plan: {best:.1} qps < floor {floor:.1} qps"
                    ));
                    "REGRESSED"
                };
                println!(
                    "  {:<24} {best:>9.1} qps baseline {base:>9.1}  floor {floor:>9.1}  {verdict}",
                    "qps_hot_plan"
                );
            }
        },
    }

    failures.extend(bench10_failures);
    assert!(
        failures.is_empty(),
        "bench-gate: {} row(s) regressed past the limit:\n  {}",
        failures.len(),
        failures.join("\n  ")
    );
    println!("  bench-gate passed: no row regressed past the limit");
}

// ----------------------------------------------------------------------
// bench-qps: the query service under concurrent client load.
// ----------------------------------------------------------------------

/// The QPS snapshot file the gate reads its `qps_hot_plan` baseline from.
const QPS_BASELINE: &str = "BENCH_8.json";
/// Concurrent client connections per round.
const QPS_THREADS: usize = 4;
/// Requests each client issues per round.
const QPS_PER_THREAD: usize = 150;
/// Measured rounds per row (plus one warm-up).
const QPS_ROUNDS: usize = 5;

/// Document the QPS rows query: small on purpose, so the per-request cost
/// is service overhead (framing, plan lookup, mount resolution, stats) and
/// not tree traversal — the thing a front end can actually regress.
fn qps_doc() -> String {
    let mut s = String::from("<doc>");
    for i in 0..16 {
        s.push_str(&format!("<item n=\"{i}\"/>"));
    }
    s.push_str("</doc>");
    s
}

/// The hot set: eight distinct texts, so a 256-entry plan cache holds them
/// all and every request after the first eight compiles is a cache hit.
fn qps_hot_set() -> Vec<String> {
    (0..8).map(|k| format!("count(//item) + {k}")).collect()
}

/// A service configured the way the benchmark (and the gate) runs it.
fn qps_service() -> Service {
    Service::spawn(ServiceConfig {
        eval_workers: 2,
        eval_stack_bytes: 32 * 1024 * 1024,
        ..Default::default()
    })
    .expect("qps service spawns")
}

/// Picks one request: `(is_explain, query text)` for `(thread, request)`.
type QpsPick = Arc<dyn Fn(usize, usize) -> (bool, String) + Send + Sync>;

/// One timed round: `QPS_THREADS` clients each issue `QPS_PER_THREAD`
/// requests (QUERY or EXPLAIN, per the picker). Returns the wall-clock
/// QPS and the unsorted per-request latencies in milliseconds.
fn qps_round(addr: SocketAddr, tenant: &str, make_query: &QpsPick) -> (f64, Vec<f64>) {
    let t0 = Instant::now();
    let handles: Vec<_> = (0..QPS_THREADS)
        .map(|thread| {
            let tenant = tenant.to_string();
            let make_query = Arc::clone(make_query);
            std::thread::spawn(move || {
                let mut client = Client::connect(addr, Some(&tenant)).expect("qps client");
                let mut latencies = Vec::with_capacity(QPS_PER_THREAD);
                for i in 0..QPS_PER_THREAD {
                    let (is_explain, q) = make_query(thread, i);
                    let sent = Instant::now();
                    if is_explain {
                        client.explain(&q).expect("qps explain");
                    } else {
                        client.query("bench", &q).expect("qps query");
                    }
                    latencies.push(sent.elapsed().as_secs_f64() * 1e3);
                }
                let _ = client.quit();
                latencies
            })
        })
        .collect();
    let mut latencies = Vec::with_capacity(QPS_THREADS * QPS_PER_THREAD);
    for h in handles {
        latencies.extend(h.join().expect("qps client thread"));
    }
    let wall = t0.elapsed().as_secs_f64();
    ((QPS_THREADS * QPS_PER_THREAD) as f64 / wall, latencies)
}

/// [`Stats`] over already-collected per-round samples.
fn stats_of(mut samples: Vec<f64>) -> Stats {
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
    Stats {
        median: samples[samples.len() / 2],
        min: samples[0],
        max: samples[samples.len() - 1],
    }
}

/// Per-round metrics for one traffic shape: QPS plus the p50/p95/p99 of
/// the round's per-request latencies, each summarised across rounds.
struct QpsRow {
    qps: Stats,
    p50: Stats,
    p95: Stats,
    p99: Stats,
}

fn qps_row(addr: SocketAddr, tenant: &str, make_query: QpsPick) -> QpsRow {
    // One warm-up round: first-touch compiles, mount adoption, allocator.
    qps_round(addr, tenant, &make_query);
    let (mut qps, mut p50, mut p95, mut p99) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for _ in 0..QPS_ROUNDS {
        let (q, mut latencies) = qps_round(addr, tenant, &make_query);
        latencies.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
        qps.push(q);
        p50.push(percentile(&latencies, 50.0));
        p95.push(percentile(&latencies, 95.0));
        p99.push(percentile(&latencies, 99.0));
    }
    QpsRow {
        qps: stats_of(qps),
        p50: stats_of(p50),
        p95: stats_of(p95),
        p99: stats_of(p99),
    }
}

/// The JSON rendering of one QPS row (single line, so the gate's line-scan
/// baseline parser reads it exactly).
fn qps_row_json(name: &str, row: &QpsRow, plan_hit_rate: f64) -> String {
    format!(
        "    {{\"name\": \"{name}\", \"qps\": {:.1}, \"qps_min\": {:.1}, \"qps_max\": {:.1}, \
         \"qps_spread\": {:.3}, \"gate_floor_qps\": {:.1}, {}, {}, {}, \
         \"plan_hit_rate\": {plan_hit_rate:.4}}}",
        row.qps.median,
        row.qps.min,
        row.qps.max,
        row.qps.spread(),
        row.qps.min / GATE_TOLERANCE,
        metric_json("p50", row.p50),
        metric_json("p95", row.p95),
        metric_json("p99", row.p99),
    )
}

/// The hot-set query picker: thread and request index walk the set so
/// every text stays hot on every connection.
fn qps_hot_picker() -> QpsPick {
    let hot = qps_hot_set();
    Arc::new(move |thread, i| (false, hot[(thread + i) % hot.len()].clone()))
}

/// The cold picker: a globally unique text per request, so every request
/// pays a parse + compile and (past capacity) an eviction.
fn qps_cold_picker() -> QpsPick {
    let counter = Arc::new(std::sync::atomic::AtomicUsize::new(0));
    Arc::new(move |_, _| {
        let n = counter.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        (false, format!("count(//item) + {n} - {n}"))
    })
}

/// The mixed picker — the service's realistic shape: of every 8 requests,
/// 5 are hot-set queries, 2 are cold compiles, 1 is an `EXPLAIN` of a hot
/// text (served from the same cached-plan path as `QUERY`).
fn qps_mixed_picker() -> QpsPick {
    let hot = qps_hot_set();
    let cold = qps_cold_picker();
    Arc::new(move |thread, i| match (thread + i) % 8 {
        0..=4 => (false, hot[(thread + i) % hot.len()].clone()),
        5 | 6 => cold(thread, i),
        _ => (true, hot[(thread + i) % hot.len()].clone()),
    })
}

/// One gate sample: a fresh service, one warm-up round, then the best QPS
/// of three measured rounds (the throughput analogue of fastest-of-41).
fn qps_gate_sample() -> f64 {
    let service = qps_service();
    let mut admin = Client::connect(service.addr(), Some("gate-admin")).expect("gate admin");
    admin.load("bench", &qps_doc()).expect("gate load");
    let make_query = qps_hot_picker();
    qps_round(service.addr(), "gate-hot", &make_query);
    (0..3)
        .map(|_| qps_round(service.addr(), "gate-hot", &make_query).0)
        .fold(0.0, f64::max)
}

/// `paper_tables -- bench-qps` — writes `BENCH_8.json`: the query service
/// under concurrent client load. Three traffic shapes cross one live
/// service: `qps_hot_plan` (eight texts cycling, every request a
/// plan-cache hit), `qps_cold_plan` (every request a fresh text, every
/// request a compile), and `qps_mixed` (5:2:1 hot/cold/explain). Each row
/// reports wall-clock QPS and per-request p50/p95/p99 latency, all as
/// median-of-5-rounds with min/max/spread, plus the tenant's measured
/// plan-cache hit rate. The hot row runs first so the cold row's cache
/// churn cannot evict its plans mid-measurement; the hot hit rate is
/// asserted above 90% here, not just in the tests.
fn bench_qps() {
    header("bench-qps — writing BENCH_8.json (service QPS + tail latency, 5 rounds per row)");
    let service = qps_service();
    let mut admin = Client::connect(service.addr(), Some("bench-admin")).expect("admin client");
    let doc_bytes = admin.load("bench", &qps_doc()).expect("bench document");

    let hot = qps_row(service.addr(), "bench-hot", qps_hot_picker());
    let hot_stats = service.tenant_stats("bench-hot").expect("hot tenant ran");
    let hot_rate = hot_stats.plan_hit_rate().expect("hot tenant compiled");
    println!(
        "  hot  : {:>8.1} qps  p50 {:.3} ms  p95 {:.3} ms  p99 {:.3} ms  plan hit rate {:.3}",
        hot.qps.median, hot.p50.median, hot.p95.median, hot.p99.median, hot_rate
    );
    assert!(
        hot_rate > 0.9,
        "hot-set plan hit rate {hot_rate:.3} is not above 0.9"
    );

    // Cold: every request a text the cache has never seen (unique across
    // rounds too — the warm-up must not pre-compile round one).
    let cold = qps_row(service.addr(), "bench-cold", qps_cold_picker());
    let cold_stats = service.tenant_stats("bench-cold").expect("cold tenant ran");
    let cold_rate = cold_stats.plan_hit_rate().unwrap_or(0.0);
    println!(
        "  cold : {:>8.1} qps  p50 {:.3} ms  p95 {:.3} ms  p99 {:.3} ms  plan hit rate {:.3}",
        cold.qps.median, cold.p50.median, cold.p95.median, cold.p99.median, cold_rate
    );

    // Mixed: the 5:2:1 hot/cold/explain blend.
    let mixed = qps_row(service.addr(), "bench-mixed", qps_mixed_picker());
    let mixed_stats = service
        .tenant_stats("bench-mixed")
        .expect("mixed tenant ran");
    let mixed_rate = mixed_stats.plan_hit_rate().unwrap_or(0.0);
    println!(
        "  mixed: {:>8.1} qps  p50 {:.3} ms  p95 {:.3} ms  p99 {:.3} ms  plan hit rate {:.3}",
        mixed.qps.median, mixed.p50.median, mixed.p95.median, mixed.p99.median, mixed_rate
    );

    let (plan_hits, plan_misses, plan_evictions, plan_entries) = service.plan_cache_counters();
    let (doc_hits, doc_misses, doc_evictions, _, doc_used, doc_entries) =
        service.doc_cache_counters();
    let tenant_doc_used = |name: &str| service.tenant_stats(name).map_or(0, |t| t.doc_used_bytes);
    let host_cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut out = String::from(
        "{\n  \"units\": \"qps = completed requests / wall-clock seconds across all client threads; \
         p50/p95/p99 are per-request milliseconds within a round; every metric is the median of 5 \
         rounds after 1 warm-up round, with min/max and spread = (max - min) / median\",\n",
    );
    out.push_str(&format!("  \"host_cpus\": {host_cpus},\n"));
    out.push_str(&format!(
        "  \"service\": {{\"client_threads\": {QPS_THREADS}, \"requests_per_round\": {}, \
         \"rounds\": {QPS_ROUNDS}, \"eval_workers\": 2, \"doc_bytes\": {doc_bytes}}},\n",
        QPS_THREADS * QPS_PER_THREAD
    ));
    out.push_str("  \"qps_rows\": [\n");
    out.push_str(&qps_row_json("qps_hot_plan", &hot, hot_rate));
    out.push_str(",\n");
    out.push_str(&qps_row_json("qps_cold_plan", &cold, cold_rate));
    out.push_str(",\n");
    out.push_str(&qps_row_json("qps_mixed", &mixed, mixed_rate));
    out.push_str("\n  ],\n");
    out.push_str(&format!(
        "  \"caches_after\": {{\"plan_hits\": {plan_hits}, \"plan_misses\": {plan_misses}, \
         \"plan_evictions\": {plan_evictions}, \"plan_entries\": {plan_entries}, \
         \"doc_hits\": {doc_hits}, \"doc_misses\": {doc_misses}, \"doc_evictions\": {doc_evictions}, \
         \"doc_used_bytes\": {doc_used}, \"doc_entries\": {doc_entries}, \
         \"tenant_doc_used_bytes\": {{\"bench-admin\": {}, \"bench-hot\": {}, \"bench-cold\": {}, \
         \"bench-mixed\": {}}}}}\n",
        tenant_doc_used("bench-admin"),
        tenant_doc_used("bench-hot"),
        tenant_doc_used("bench-cold"),
        tenant_doc_used("bench-mixed")
    ));
    out.push_str("}\n");
    std::fs::write(QPS_BASELINE, &out).expect("writing BENCH_8.json");
    println!("  wrote {QPS_BASELINE}");
}

// ----------------------------------------------------------------------
// bench-edit: edit-to-fresh-doc latency under incremental maintenance.
// ----------------------------------------------------------------------

/// The edit-latency snapshot this binary writes and `bench-gate
/// BENCH_9.json` re-times against.
const EDIT_BASELINE: &str = "BENCH_9.json";
/// Subsystem sections in the edit-bench template. Each section reads one
/// subsystem's programs, so a one-program edit dirties exactly one chunk.
const EDIT_SECTIONS: usize = 64;

/// The per-subsystem handbook template: a table of contents, then one
/// `<section>` per tagged subsystem looping over what it `has`. Sections
/// select their subsystem by property filter, not label search — a label
/// start scans the whole population, which (correctly) marks every chunk
/// dirty on any population edit and would leave nothing incremental.
fn edit_bench_template() -> Template {
    let mut t = String::from("<template><h1>Subsystem handbook</h1><table-of-contents/>");
    for i in 0..EDIT_SECTIONS {
        t.push_str(&format!(
            "<section heading=\"Subsystem {i}\"><for><query>\
             <start type=\"Subsystem\"/><filter-property name=\"sect\" equals=\"s{i}\"/>\
             <follow relation=\"has\" target-type=\"Program\"/><sort-by-label/></query>\
             <p><label/>: <value-of property=\"language\" default=\"undocumented\"/></p>\
             </for></section>"
        ));
    }
    t.push_str("</template>");
    Template::parse(&t).expect("edit bench template parses")
}

/// Tags the first [`EDIT_SECTIONS`] subsystems for the template's property
/// filters and returns a program under one of them — the node every
/// benchmark edit touches.
fn edit_bench_prepare(w: &mut Workload) -> NodeRef {
    let subsystems = w.model.nodes_of_type("Subsystem", &w.meta);
    assert!(
        subsystems.len() >= EDIT_SECTIONS,
        "corpus has only {} subsystems",
        subsystems.len()
    );
    for (i, &s) in subsystems.iter().take(EDIT_SECTIONS).enumerate() {
        w.model.set_prop(s, "sect", PropValue::Str(format!("s{i}")));
    }
    subsystems
        .iter()
        .take(EDIT_SECTIONS)
        .flat_map(|&s| w.model.follow_forward(s, "has", &w.meta))
        .find(|&n| w.model.node_type(n) == "Program")
        .expect("a tagged subsystem has a program")
}

/// One BENCH_9 edit row: the same alternating one-property edit timed
/// through `IncrementalDoc::apply_edit` (edit-to-fresh-doc) and through a
/// full `native::generate`, with a string-equality check tying the two
/// outputs together. Returns the JSON row and the median speedup.
fn edit_bench_row(
    name: &str,
    w: &mut Workload,
    full_reps: usize,
    inc_reps: usize,
) -> (String, f64) {
    let template = edit_bench_template();
    let target = edit_bench_prepare(w);
    let corpus_nodes = w.model.node_count();
    let mut doc = {
        let inputs = GenInputs {
            model: &w.model,
            meta: &w.meta,
            template: &template,
        };
        IncrementalDoc::generate(&inputs).expect("edit bench generates")
    };
    let chunks = doc.chunk_count();

    let mut edit_serial = 0usize;
    let mut reran = 0usize;
    let mut inc_samples = Vec::new();
    for rep in 0..=inc_reps {
        edit_serial += 1;
        w.model.set_prop(
            target,
            "language",
            PropValue::Str(format!("lang-{edit_serial}")),
        );
        let footprint = EditFootprint::new().touch_node(target);
        let inputs = GenInputs {
            model: &w.model,
            meta: &w.meta,
            template: &template,
        };
        let t = Instant::now();
        reran = doc.apply_edit(&inputs, &footprint).expect("edit applies");
        let ms = t.elapsed().as_secs_f64() * 1e3;
        if rep > 0 {
            inc_samples.push(ms);
        }
        assert!(reran >= 1, "the edit must dirty its own section");
        assert!(
            reran * 8 <= chunks,
            "the edit must stay local: {reran} of {chunks} chunks re-ran"
        );
    }
    // The correctness bar: the incrementally-maintained document must be
    // byte-identical to a from-scratch run over the current model.
    {
        let inputs = GenInputs {
            model: &w.model,
            meta: &w.meta,
            template: &template,
        };
        let fresh = native::generate(&inputs).expect("full run generates");
        assert_eq!(
            doc.to_xml(),
            fresh.to_xml(),
            "incremental output diverged from full regeneration"
        );
    }
    let mut full_samples = Vec::new();
    for rep in 0..=full_reps {
        edit_serial += 1;
        w.model.set_prop(
            target,
            "language",
            PropValue::Str(format!("lang-{edit_serial}")),
        );
        let inputs = GenInputs {
            model: &w.model,
            meta: &w.meta,
            template: &template,
        };
        let t = Instant::now();
        let _ = native::generate(&inputs).expect("full run generates");
        let ms = t.elapsed().as_secs_f64() * 1e3;
        if rep > 0 {
            full_samples.push(ms);
        }
    }
    let inc = stats_of(inc_samples);
    let full = stats_of(full_samples);
    let speedup = full.median / inc.median;
    println!(
        "  {name}: incremental {:.3} ms vs full {:.3} ms ({speedup:.1}x; {reran}/{chunks} chunks re-ran; {corpus_nodes} nodes)",
        inc.median, full.median
    );
    (
        format!(
            "    {{\"name\": \"{name}\", \"corpus_nodes\": {corpus_nodes}, \"chunks\": {chunks}, \
             \"chunks_reran\": {reran}, \"gate_limit_ms\": {:.4}, {}, {}, \"speedup\": {speedup:.1}}}",
            micro_gate_limit(inc.median),
            metric_json("incremental", inc),
            metric_json("full_regen", full)
        ),
        speedup,
    )
}

/// Index micro pair: `(repatch, rebuild)`. The same localized edit plus an
/// index-served query, once against a warm store whose live index is
/// patched in place, once against a cold clone — the pre-incremental
/// behavior, where any edit left the next query to rebuild the tree's
/// numbering and name index from scratch.
fn edit_micro_index(reps: usize) -> (Stats, Stats) {
    let mut warm = xmlstore::Store::new();
    let doc = warm
        .parse_str(&axis_bench_doc(), &ParseOptions::data_oriented())
        .expect("axis doc parses");
    let root = warm.child_elements(doc)[0];
    let item = QName::from("item").local_sym();
    let op = |s: &mut xmlstore::Store| -> usize {
        let e = s.create_element("item").expect("element");
        s.insert_child(root, 0, e).expect("insert");
        let n = s.descendant_elements_by_local(doc, item).len();
        s.detach(e);
        n
    };
    // The first edit thaws the tree; the first query then builds the live
    // index lazily — neither counts as a patch nor as a rebuild.
    let expected = op(&mut warm);
    let warm_base = warm.stats();
    let mut repatch = Vec::new();
    for _ in 0..reps {
        let t = Instant::now();
        assert_eq!(op(&mut warm), expected);
        repatch.push(t.elapsed().as_secs_f64() * 1e3);
    }
    let after = warm.stats();
    assert_eq!(
        after.index_full_rebuilds, warm_base.index_full_rebuilds,
        "a localized edit must never discard the live index"
    );
    assert!(
        after.index_repatches >= warm_base.index_repatches + 2 * reps as u64,
        "each warm edit must patch the index in place"
    );
    let mut rebuild = Vec::new();
    for _ in 0..reps {
        // The clone starts cold (no index, no provenance) — the old world,
        // where every edit meant the next query rebuilt from scratch. The
        // clone itself happens outside the timed window.
        let mut cold = warm.clone();
        let t = Instant::now();
        assert_eq!(op(&mut cold), expected);
        rebuild.push(t.elapsed().as_secs_f64() * 1e3);
    }
    (stats_of(repatch), stats_of(rebuild))
}

/// Re-freeze micro pair: `(incremental, full)`. A one-attribute edit on a
/// frozen tree, then `freeze`: the store that watched the edit splices the
/// untouched prefix and suffix records back in; a clone of the same edited
/// store (re-freeze provenance is not cloned) pays the full rebuild.
fn edit_micro_refreeze(reps: usize) -> (Stats, Stats) {
    // A wider flat document than the axis doc: at ~4k nodes the fixed
    // per-freeze cost (arena setup, snapshot bookkeeping) dominates both
    // paths and compresses the splice advantage into measurement noise.
    let mut xml = String::from("<root>");
    for i in 0..20_000 {
        xml.push_str(&format!("<item k='k{}'><sub/></item>", i % 50));
    }
    xml.push_str("</root>");
    let mut s = xmlstore::Store::new();
    let doc = s
        .parse_str(&xml, &ParseOptions::data_oriented())
        .expect("refreeze doc parses");
    let root = s.child_elements(doc)[0];
    let base = s.stats().trees_refrozen_incremental;
    let mut inc = Vec::new();
    let mut full = Vec::new();
    for i in 0..=reps {
        let items = s.child_elements(root);
        let target = items[(i * 37) % items.len()];
        s.set_attribute(target, "touched", format!("{i}"))
            .expect("edit"); // auto-thaws; the origin is recorded
        let mut twin = s.clone();
        let t = Instant::now();
        twin.freeze(doc).expect("full freeze");
        let full_ms = t.elapsed().as_secs_f64() * 1e3;
        let t = Instant::now();
        s.freeze(doc).expect("incremental freeze");
        let inc_ms = t.elapsed().as_secs_f64() * 1e3;
        if i > 0 {
            full.push(full_ms);
            inc.push(inc_ms);
        }
    }
    assert_eq!(
        s.stats().trees_refrozen_incremental - base,
        reps as u64 + 1,
        "every localized edit batch must re-freeze by splicing"
    );
    (stats_of(inc), stats_of(full))
}

/// One gate sample for the edit row: fresh setup, then the fastest of 41
/// `apply_edit` calls (the same estimator as the other latency rows).
fn edit_gate_sample() -> f64 {
    let mut w = it_workload(800, 42);
    let template = edit_bench_template();
    let target = edit_bench_prepare(&mut w);
    let mut doc = {
        let inputs = GenInputs {
            model: &w.model,
            meta: &w.meta,
            template: &template,
        };
        IncrementalDoc::generate(&inputs).expect("edit gate generates")
    };
    let mut best = f64::INFINITY;
    for k in 0..=41 {
        w.model
            .set_prop(target, "language", PropValue::Str(format!("lang-{k}")));
        let footprint = EditFootprint::new().touch_node(target);
        let inputs = GenInputs {
            model: &w.model,
            meta: &w.meta,
            template: &template,
        };
        let t = Instant::now();
        doc.apply_edit(&inputs, &footprint).expect("edit applies");
        let ms = t.elapsed().as_secs_f64() * 1e3;
        if k > 0 {
            best = best.min(ms);
        }
    }
    best
}

/// `paper_tables -- bench-edit` — writes `BENCH_9.json`: edit-to-fresh-doc
/// latency under incremental maintenance. Two docgen rows (the n=800
/// handbook and the ~100k-node production corpus) time the same
/// one-property edit through `IncrementalDoc::apply_edit` and through a
/// full `native::generate`, asserting byte-identical output and, at n=800,
/// the 10x edit-latency claim. Two store micro rows pin the substrate wins
/// the docgen path rides on: live-index repatch vs cold rebuild, and
/// incremental re-freeze vs full freeze.
fn bench_edit() {
    header("bench-edit — writing BENCH_9.json (edit-to-fresh-doc vs full regeneration)");
    let host_cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut out = String::from(
        "{\n  \"units\": \"milliseconds; incremental/micro rows median of 41 timed runs after 1 warm-up \
         (21 at 100k), full-regen rows median of 15 (5 at 100k); spread = (max - min) / median\",\n",
    );
    out.push_str(&format!("  \"host_cpus\": {host_cpus},\n"));
    out.push_str(&format!("  \"template_sections\": {EDIT_SECTIONS},\n"));
    out.push_str("  \"edit_rows\": [\n");

    let mut w = it_workload(800, 42);
    let (row, speedup) = edit_bench_row("edit_docgen_n800", &mut w, 15, 41);
    out.push_str(&row);
    out.push_str(",\n");
    assert!(
        speedup >= 10.0,
        "edit-to-fresh-doc must be at least 10x faster than full regeneration at n=800, got {speedup:.1}x"
    );

    let mut w = Workload {
        meta: it_metamodel(),
        model: it_architecture(production_scale(), 42),
    };
    let (row, _) = edit_bench_row("edit_docgen_100k", &mut w, 5, 21);
    out.push_str(&row);
    out.push_str("\n  ],\n  \"micro_rows\": [\n");

    let (repatch, rebuild) = edit_micro_index(41);
    println!(
        "  index: repatch {:.4} ms vs cold rebuild {:.4} ms",
        repatch.median, rebuild.median
    );
    out.push_str(&format!(
        "    {{\"name\": \"index_repatch_vs_rebuild\", \"gate_limit_ms\": {:.4}, {}, {}, \
         \"speedup\": {:.1}}},\n",
        micro_gate_limit(repatch.median),
        metric_json("index_repatch", repatch),
        metric_json("index_rebuild", rebuild),
        rebuild.median / repatch.median
    ));
    let (inc, full) = edit_micro_refreeze(41);
    println!(
        "  refreeze: incremental {:.4} ms vs full {:.4} ms",
        inc.median, full.median
    );
    out.push_str(&format!(
        "    {{\"name\": \"refreeze_vs_rebuild\", \"gate_limit_ms\": {:.4}, {}, {}, \
         \"speedup\": {:.1}}}\n",
        micro_gate_limit(inc.median),
        metric_json("refreeze_incremental", inc),
        metric_json("refreeze_full", full),
        full.median / inc.median
    ));
    out.push_str("  ]\n}\n");
    std::fs::write(EDIT_BASELINE, &out).expect("writing BENCH_9.json");
    println!("  wrote {EDIT_BASELINE}");
}

// ----------------------------------------------------------------------
// bench-json: machine-readable perf snapshot for cross-PR comparison.
// ----------------------------------------------------------------------

/// Per-row timing summary: median for the headline number, min/max for the
/// envelope, and `spread` = (max − min) / median so a reader can tell a
/// stable row (spread ≪ 1) from a noisy one at a glance.
#[derive(Clone, Copy)]
struct Stats {
    median: f64,
    min: f64,
    max: f64,
}

impl Stats {
    fn spread(&self) -> f64 {
        if self.median > 0.0 {
            (self.max - self.min) / self.median
        } else {
            0.0
        }
    }
}

/// Renders one metric as four JSON fields: `<name>_ms` (the median, same key
/// the earlier BENCH_N snapshots used, so trajectories stay comparable),
/// plus `<name>_min_ms`, `<name>_max_ms`, and `<name>_spread`.
fn metric_json(name: &str, s: Stats) -> String {
    format!(
        "\"{name}_ms\": {:.4}, \"{name}_min_ms\": {:.4}, \"{name}_max_ms\": {:.4}, \"{name}_spread\": {:.3}",
        s.median,
        s.min,
        s.max,
        s.spread()
    )
}

/// Times `f` once, in milliseconds.
fn time_ms(f: &mut impl FnMut()) -> f64 {
    let t = Instant::now();
    f();
    t.elapsed().as_secs_f64() * 1e3
}

/// Runs `f` once to warm up, then `reps` timed times; returns the summary.
fn measure(reps: usize, mut f: impl FnMut()) -> Stats {
    f();
    let mut samples: Vec<f64> = (0..reps).map(|_| time_ms(&mut f)).collect();
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    Stats {
        median: samples[samples.len() / 2],
        min: samples[0],
        max: samples[samples.len() - 1],
    }
}

/// Like [`measure`], but times `inner` calls per sample and reports
/// per-call figures. The axis rows finish in microseconds, where a
/// single-call sample is dominated by timer granularity and scheduler
/// jitter; batching the calls makes the medians reproducible.
fn measure_per_call(reps: usize, inner: usize, mut f: impl FnMut()) -> Stats {
    let s = measure(reps, || {
        for _ in 0..inner {
            f();
        }
    });
    let n = inner as f64;
    Stats {
        median: s.median / n,
        min: s.min / n,
        max: s.max / n,
    }
}

/// Variable-heavy micro-benches: the tree walker resolves every `$v` by a
/// linear name scan, the lowered runner by a slot index, so these isolate
/// the cost the refactor removes.
const MICRO: &[(&str, &str)] = &[
    (
        "var_reads_in_loop",
        "let $a := 1 let $b := 2 let $c := 3 let $d := 4 let $e := 5 let $f := 6 let $g := 7 let $h := 8 \
         return sum(for $i in 1 to 5000 return $a + $b + $c + $d + $e + $f + $g + $h + $i)",
    ),
    (
        "shadowed_lets_in_loop",
        "sum(for $i in 1 to 3000 return (let $x := $i let $x := $x * 2 let $x := $x + 1 return $x))",
    ),
    (
        "recursive_user_function",
        "declare function local:fib($n) { if ($n le 1) then $n else local:fib($n - 1) + local:fib($n - 2) }; local:fib(16)",
    ),
    (
        "flwor_order_by",
        "sum(for $i in 1 to 2000 order by $i mod 7, $i descending return $i)",
    ),
];

/// Axis-heavy micro-benches over a generated document: descendant name
/// lookups, attribute-equality predicates, deep ancestor chains, and
/// dedup/doc-order-sort pressure — the paths the structural indexes serve.
const AXIS_MICRO: &[(&str, &str)] = &[
    ("axis_descendant_name", "count(//item)"),
    ("axis_attr_eq_probe", "count(/root/item[@k = \"k7\"])"),
    (
        "axis_attr_eq_list",
        "count(/root/item[@k = (\"k3\", \"k11\", \"k40\")])",
    ),
    ("axis_deep_ancestor", "count(//leaf/ancestor::d)"),
    ("dedup_doc_order_union", "count(//item | //sub/..)"),
    (
        "order_by_large_seq",
        "count(for $i in //item order by string($i/@k) descending, $i/@g return $i)",
    ),
    // Cursor-runtime rows: positional early-exits and prefix windows that
    // stop pulling long before the 2000-item axis is exhausted.
    ("stream_prefix", "//item[position() <= 5]"),
    ("stream_pick3", "(//item)[3]"),
    ("stream_subseq", "subsequence(//item, 2, 3)"),
];

/// Document backing [`AXIS_MICRO`]: a wide fan-out of attributed `item`
/// elements plus one 200-deep `d` chain ending in a marked `leaf`.
fn axis_bench_doc() -> String {
    let mut s = String::from("<root>");
    for i in 0..2000 {
        s.push_str(&format!(
            "<item k='k{}' g='g{}'><sub/></item>",
            i % 50,
            i % 7
        ));
    }
    for _ in 0..200 {
        s.push_str("<d>");
    }
    s.push_str("<leaf mark='x'/>");
    for _ in 0..200 {
        s.push_str("</d>");
    }
    s.push_str("</root>");
    s
}

/// `paper_tables -- bench-json` — writes `BENCH_7.json`: the BENCH_6
/// sections (E1 calculus sweep, engine micro-benches, axis micro-benches,
/// batch throughput, observability counter blocks, store substrate — same
/// protocol and units, so the trajectory stays comparable), with new axis
/// rows for the cursor runtime's positional early-exits and the counter
/// blocks extended with `items_streamed`/`cursor_early_exits`. Every
/// timing row carries min/max and the relative spread next to the median,
/// so a reader can tell a stable number from a noisy one. `host_cpus`
/// records the machine's parallelism so scaling numbers read honestly:
/// thread-level speedup is capped by the core count.
fn bench_json() {
    header("bench-json — writing BENCH_7.json (medians with min/max/spread, milliseconds)");
    // Micro rows sit in the tens of microseconds where a median of 5 still
    // wobbles visibly; batch rows run hundreds of milliseconds and 5 is
    // plenty.
    const REPS: usize = 5;
    const MICRO_REPS: usize = 41;
    let host_cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut out = String::from(
        "{\n  \"units\": \"milliseconds; e1/micro rows median of 41 runs (axis rows time 10 calls per run, per-call figures), batch rows median of 5, after 1 warm-up; spread = (max - min) / median\",\n",
    );
    out.push_str(&format!("  \"host_cpus\": {host_cpus},\n"));
    out.push_str("  \"e1_calculus\": [\n");
    for (idx, n) in [50usize, 200, 800].into_iter().enumerate() {
        let w = it_workload(n, 42);
        let q = Query::from_type("user")
            .follow("likes")
            .follow_to("uses", "Program")
            .dedup()
            .sort_by_label();
        let native = measure(MICRO_REPS, || {
            let _ = q.run_native(&w.model, &w.meta);
        });
        let mut engine = Engine::new();
        let doc = xmlio::export_to_store(&w.model, engine.store_mut());
        engine.register_document("awb-model", doc);
        let compiled = engine.compile(&q.to_xquery(&w.meta)).unwrap();
        let lowered = measure(MICRO_REPS, || {
            engine.evaluate(&compiled, None).unwrap();
        });
        let reference = measure(MICRO_REPS, || {
            engine.evaluate_reference(&compiled, None).unwrap();
        });
        println!(
            "  e1 n={n:>3}: native {:.3} ms, xq lowered {:.3} ms, xq reference {:.3} ms",
            native.median, lowered.median, reference.median
        );
        let comma = if idx < 2 { "," } else { "" };
        out.push_str(&format!(
            "    {{\"nodes\": {n}, {}, {}, {}, \"gate_limit_ms\": {:.4}}}{comma}\n",
            metric_json("native", native),
            metric_json("xq_lowered", lowered),
            metric_json("xq_reference_walker", reference),
            micro_gate_limit(lowered.median)
        ));
    }
    out.push_str("  ],\n  \"engine_micro\": [\n");
    for (idx, (name, src)) in MICRO.iter().enumerate() {
        let mut engine = Engine::new();
        let compiled = engine.compile(src).unwrap();
        let lowered = measure(MICRO_REPS, || {
            engine.evaluate(&compiled, None).unwrap();
        });
        let reference = measure(MICRO_REPS, || {
            engine.evaluate_reference(&compiled, None).unwrap();
        });
        println!(
            "  micro {name}: lowered {:.3} ms, reference {:.3} ms",
            lowered.median, reference.median
        );
        let comma = if idx + 1 < MICRO.len() { "," } else { "" };
        out.push_str(&format!(
            "    {{\"name\": \"{name}\", {}, {}}}{comma}\n",
            metric_json("lowered", lowered),
            metric_json("reference_walker", reference)
        ));
    }
    out.push_str("  ],\n  \"axis_micro\": [\n");
    let mut engine = Engine::new();
    let doc = engine
        .load_document(&axis_bench_doc())
        .expect("axis bench document");
    for (idx, (name, src)) in AXIS_MICRO.iter().enumerate() {
        let compiled = engine.compile(src).unwrap();
        let lowered = measure_per_call(MICRO_REPS, 10, || {
            engine.evaluate(&compiled, Some(doc)).unwrap();
        });
        let reference = measure_per_call(MICRO_REPS, 10, || {
            engine.evaluate_reference(&compiled, Some(doc)).unwrap();
        });
        println!(
            "  axis {name}: lowered {:.3} ms, reference {:.3} ms",
            lowered.median, reference.median
        );
        let comma = if idx + 1 < AXIS_MICRO.len() { "," } else { "" };
        out.push_str(&format!(
            "    {{\"name\": \"{name}\", {}, {}, \"gate_limit_ms\": {:.4}}}{comma}\n",
            metric_json("lowered", lowered),
            metric_json("reference_walker", reference),
            micro_gate_limit(lowered.median)
        ));
    }
    out.push_str("  ],\n");
    e1_batch_json(&mut out, REPS);
    docgen_batch_json(&mut out, REPS);
    obs_json(&mut out);
    substrate_json(&mut out);
    out.push_str("}\n");
    std::fs::write("BENCH_7.json", &out).expect("writing BENCH_7.json");
    println!("  wrote BENCH_7.json");
    bench10_json();
}

// ----------------------------------------------------------------------
// BENCH_10: workload corpora + mixed-scenario driver.
// ----------------------------------------------------------------------

/// The corpus/scenario snapshot the BENCH_10 gate reads.
const BENCH10_BASELINE: &str = "BENCH_10.json";
/// XMark corpus size for the timed rows — big enough that parse and join
/// are multi-millisecond (the regime the corpus gate shape exists for),
/// small enough to rebuild inside a gate retry.
const B10_XMARK_NODES: usize = 20_000;
const B10_SEED: u64 = 42;
/// Hostile corpus sizes: just under the default depth cap, wide enough for
/// ~80k records, and two thousand reference-dense items.
const B10_DEEP: usize = 9_000;
const B10_WIDE: usize = 40_000;
const B10_ENTITY: usize = 2_000;
/// The scenario the snapshot and the gate both replay.
const B10_SCENARIO: ScenarioConfig = ScenarioConfig {
    corpus_nodes: 8_000,
    ops: 120,
    seed: 42,
};
const B10_SCENARIO_ROUNDS: usize = 3;
/// Scenario QPS floors divide the observed minimum by this: a whole-run
/// throughput over a shaped mix wobbles more than a single-op latency, so
/// the inverted rows get a wider band than [`GATE_TOLERANCE`].
const B10_SCENARIO_TOLERANCE: f64 = 1.5;

/// The three XMark query rows: one text per scenario read class, so the
/// snapshot, the gate, and the scenario driver all speak about the same
/// queries.
fn b10_xmark_queries() -> Vec<(&'static str, String)> {
    vec![
        ("xmark_point", scenario::point_queries()[0].clone()),
        ("xmark_join", scenario::JOIN_QUERY.to_string()),
        ("xmark_stream_prefix", scenario::STREAM_QUERY.to_string()),
    ]
}

/// One corpus-parse latency row (single line, explicit gate limit).
fn b10_parse_row(name: &str, shape: &str, shape_n: usize, bytes: usize, s: Stats) -> String {
    format!(
        "    {{\"name\": \"{name}\", \"{shape}\": {shape_n}, \"bytes\": {bytes}, {}, \
         \"gate_limit_ms\": {:.4}}}",
        metric_json("parse", s),
        corpus_gate_limit(s)
    )
}

/// One scenario row: per-class throughput over the rounds (median with
/// min/max/spread, like every other BENCH row) and the latency tail from
/// the median round.
fn b10_scenario_row(mode: &str, class: OpClass, rounds: &[scenario::ScenarioReport]) -> String {
    let of = |f: &dyn Fn(&scenario::ClassReport) -> f64| {
        stats_of(rounds.iter().map(|r| f(r.class(class))).collect())
    };
    let qps = of(&|r| r.qps);
    let p50 = of(&|r| r.p50_ms);
    let p95 = of(&|r| r.p95_ms);
    let p99 = of(&|r| r.p99_ms);
    format!(
        "    {{\"name\": \"scenario_{mode}_{}\", \"count\": {}, \"qps\": {:.1}, \
         \"qps_min\": {:.1}, \"qps_max\": {:.1}, \"qps_spread\": {:.3}, \
         \"gate_floor_qps\": {:.1}, \"p50_ms\": {:.4}, \"p95_ms\": {:.4}, \"p99_ms\": {:.4}}}",
        class.name(),
        rounds[0].class(class).count,
        qps.median,
        qps.min,
        qps.max,
        qps.spread(),
        qps.min / B10_SCENARIO_TOLERANCE,
        p50.median,
        p95.median,
        p99.median,
    )
}

/// Writes `BENCH_10.json`: the XMark-style corpus rows (generation, parse,
/// and the three query classes), the hostile-corpus rows (deep, wide,
/// entity-heavy), and the mixed-scenario rows (per-op-class QPS and
/// latency tail, in-process and through the service). Every latency row
/// carries an explicit `gate_limit_ms` in the corpus shape and every
/// throughput row an explicit `gate_floor_qps`, so the gate never has to
/// guess which formula fits the row.
fn bench10_json() {
    header("bench-json — writing BENCH_10.json (workload corpora + mixed scenario)");
    const PARSE_REPS: usize = 11;
    const MICRO_REPS: usize = 41;
    let host_cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut out = String::from(
        "{\n  \"units\": \"milliseconds; parse rows median of 11 runs, query rows median of 41, \
         scenario rows aggregated over 3 scenario rounds, after 1 warm-up; \
         spread = (max - min) / median\",\n",
    );
    out.push_str(&format!("  \"host_cpus\": {host_cpus},\n"));

    // The XMark-style corpus: generation is re-run to prove determinism,
    // then the parse and the three query classes are timed over it.
    let scale = XmarkScale::about(B10_XMARK_NODES);
    let corpus = xmark_auction(&scale, B10_SEED);
    assert_eq!(
        corpus,
        xmark_auction(&scale, B10_SEED),
        "xmark generator must be byte-deterministic for a fixed seed"
    );
    println!(
        "  xmark corpus: {} records, {} bytes (seed {B10_SEED})",
        scale.node_count(),
        corpus.len()
    );
    out.push_str(&format!(
        "  \"xmark_corpus\": {{\"nodes\": {}, \"bytes\": {}, \"seed\": {B10_SEED}}},\n",
        scale.node_count(),
        corpus.len()
    ));
    out.push_str("  \"xmark_rows\": [\n");
    let parse = measure(PARSE_REPS, || {
        xmlstore::Store::new()
            .parse_str(&corpus, &ParseOptions::data_oriented())
            .expect("xmark corpus parses");
    });
    println!("  xmark_parse: {:.3} ms", parse.median);
    out.push_str(&b10_parse_row(
        "xmark_parse",
        "nodes",
        scale.node_count(),
        corpus.len(),
        parse,
    ));
    out.push_str(",\n");
    let mut engine = Engine::new();
    let doc = engine.load_document(&corpus).expect("xmark corpus loads");
    let queries = b10_xmark_queries();
    for (idx, (name, src)) in queries.iter().enumerate() {
        let compiled = engine.compile(src).expect("xmark query compiles");
        let lowered = measure(MICRO_REPS, || {
            engine.evaluate(&compiled, Some(doc)).unwrap();
        });
        println!("  {name}: {:.3} ms", lowered.median);
        let comma = if idx + 1 < queries.len() {
            ""
        } else {
            "\n  ],"
        };
        out.push_str(&format!(
            "    {{\"name\": \"{name}\", {}, \"gate_limit_ms\": {:.4}}}{}\n",
            metric_json("lowered", lowered),
            corpus_gate_limit(lowered),
            if comma.is_empty() { "," } else { comma }
        ));
    }

    // Hostile corpora: the documents that exist to hit the guards. Timed
    // on their happy path (just under the caps); their ERR paths are pinned
    // by the parser and qsvc tests.
    out.push_str("  \"hostile_rows\": [\n");
    let deep = deep_document(B10_DEEP);
    let deep_stats = measure(PARSE_REPS, || {
        xmlstore::Store::new()
            .parse_str(&deep, &ParseOptions::data_oriented())
            .expect("deep corpus parses under the default cap");
    });
    println!("  hostile_deep_parse: {:.3} ms", deep_stats.median);
    out.push_str(&b10_parse_row(
        "hostile_deep_parse",
        "depth",
        B10_DEEP,
        deep.len(),
        deep_stats,
    ));
    out.push_str(",\n");
    let wide = wide_document(B10_WIDE);
    let wide_stats = measure(PARSE_REPS, || {
        xmlstore::Store::new()
            .parse_str(&wide, &ParseOptions::data_oriented())
            .expect("wide corpus parses");
    });
    println!("  hostile_wide_parse: {:.3} ms", wide_stats.median);
    out.push_str(&b10_parse_row(
        "hostile_wide_parse",
        "children",
        B10_WIDE,
        wide.len(),
        wide_stats,
    ));
    out.push_str(",\n");
    let entity = entity_document(B10_ENTITY);
    let entity_stats = measure(PARSE_REPS, || {
        let mut store = xmlstore::Store::new();
        let doc = store
            .parse_str(&entity, &ParseOptions::data_oriented())
            .expect("entity corpus parses");
        let out = store.serialize(doc, &xmlstore::serializer::SerializeOptions::default());
        assert!(out.contains("&lt;tag&gt;"), "serializer must re-escape");
    });
    println!("  hostile_entity_roundtrip: {:.3} ms", entity_stats.median);
    out.push_str(&b10_parse_row(
        "hostile_entity_roundtrip",
        "items",
        B10_ENTITY,
        entity.len(),
        entity_stats,
    ));
    out.push_str("\n  ],\n");

    // The mixed scenario, three rounds per mode. Round one is also the
    // warm-up (allocator, service socket, plan cache) — its numbers are
    // recorded like the rest; the min/max envelope absorbs the difference.
    out.push_str(&format!(
        "  \"scenario\": {{\"corpus_nodes\": {}, \"ops\": {}, \"seed\": {}, \"rounds\": {B10_SCENARIO_ROUNDS}}},\n",
        B10_SCENARIO.corpus_nodes, B10_SCENARIO.ops, B10_SCENARIO.seed
    ));
    out.push_str("  \"scenario_rows\": [\n");
    let inproc: Vec<_> = (0..B10_SCENARIO_ROUNDS)
        .map(|_| scenario::run_in_process(&B10_SCENARIO))
        .collect();
    let service: Vec<_> = (0..B10_SCENARIO_ROUNDS)
        .map(|_| scenario::run_service(&B10_SCENARIO))
        .collect();
    let modes = [("inproc", &inproc), ("service", &service)];
    for (m, (mode, rounds)) in modes.iter().enumerate() {
        for (c, class) in OpClass::ALL.into_iter().enumerate() {
            let row = b10_scenario_row(mode, class, rounds);
            println!("  {}", row.trim_start());
            let last = m + 1 == modes.len() && c + 1 == OpClass::ALL.len();
            out.push_str(&row);
            out.push_str(if last { "\n" } else { ",\n" });
        }
    }
    out.push_str("  ]\n}\n");
    std::fs::write(BENCH10_BASELINE, &out).expect("writing BENCH_10.json");
    println!("  wrote {BENCH10_BASELINE}");
}

/// Re-times the BENCH_10 rows for the gate: corpus parse and query rows
/// against their explicit `gate_limit_ms`, then the two scenario point
/// rows inverted against `gate_floor_qps`. Returns the scenario failures
/// (the `gate` closure owns the latency failure list).
fn bench10_gate_rows(
    baseline: &str,
    gate: &mut dyn FnMut(&str, Option<f64>, Option<f64>, &mut dyn FnMut() -> f64),
) -> Vec<String> {
    const PARSE_REPS: usize = 11;
    const MICRO_REPS: usize = 41;
    const RETRIES: usize = 2;
    let lookup =
        |name: &str, key: &str| baseline_number(baseline, &format!("\"name\": \"{name}\""), key);

    let scale = XmarkScale::about(B10_XMARK_NODES);
    let corpus = xmark_auction(&scale, B10_SEED);
    gate(
        "xmark_parse",
        lookup("xmark_parse", "parse_ms"),
        lookup("xmark_parse", "gate_limit_ms"),
        &mut || {
            measure(PARSE_REPS, || {
                xmlstore::Store::new()
                    .parse_str(&corpus, &ParseOptions::data_oriented())
                    .expect("xmark corpus parses");
            })
            .min
        },
    );
    let mut engine = Engine::new();
    let doc = engine.load_document(&corpus).expect("xmark corpus loads");
    for (name, src) in b10_xmark_queries() {
        let compiled = engine.compile(&src).expect("xmark query compiles");
        gate(
            name,
            lookup(name, "lowered_ms"),
            lookup(name, "gate_limit_ms"),
            &mut || {
                measure(MICRO_REPS, || {
                    engine.evaluate(&compiled, Some(doc)).unwrap();
                })
                .min
            },
        );
    }
    // The entity row's timed op includes the serialize leg (it is a
    // round-trip row), so the gate replays the same op, not just the parse.
    for (name, xml, roundtrip) in [
        ("hostile_deep_parse", deep_document(B10_DEEP), false),
        ("hostile_wide_parse", wide_document(B10_WIDE), false),
        (
            "hostile_entity_roundtrip",
            entity_document(B10_ENTITY),
            true,
        ),
    ] {
        gate(
            name,
            lookup(name, "parse_ms"),
            lookup(name, "gate_limit_ms"),
            &mut || {
                measure(PARSE_REPS, || {
                    let mut store = xmlstore::Store::new();
                    let doc = store
                        .parse_str(&xml, &ParseOptions::data_oriented())
                        .expect("hostile corpus parses");
                    if roundtrip {
                        store.serialize(doc, &xmlstore::serializer::SerializeOptions::default());
                    }
                })
                .min
            },
        );
    }

    // Scenario point throughput, inverted: best-of with the usual retries
    // against the snapshot's explicit floor. Only the point class gates —
    // it is the highest-count class in the mix, so its QPS is the most
    // stable; the other classes are reported for trajectory, not gated.
    let mut failures = Vec::new();
    let runs: [(&str, &dyn Fn() -> f64); 2] = [
        ("scenario_inproc_point", &|| {
            scenario::run_in_process(&B10_SCENARIO)
                .class(OpClass::Point)
                .qps
        }),
        ("scenario_service_point", &|| {
            scenario::run_service(&B10_SCENARIO)
                .class(OpClass::Point)
                .qps
        }),
    ];
    for (name, sample) in runs {
        let Some(base) = lookup(name, "qps") else {
            println!("  {name:<24} (no baseline row — skipped)");
            continue;
        };
        let floor = lookup(name, "gate_floor_qps").unwrap_or(base / B10_SCENARIO_TOLERANCE);
        let mut best = sample();
        let mut tries = 1;
        while best < floor && tries <= RETRIES {
            best = best.max(sample());
            tries += 1;
        }
        let verdict = if best >= floor {
            "ok"
        } else {
            failures.push(format!("{name}: {best:.1} qps < floor {floor:.1} qps"));
            "REGRESSED"
        };
        println!(
            "  {name:<24} {best:>9.1} qps baseline {base:>9.1}  floor {floor:>9.1}  {verdict}"
        );
    }
    failures
}

/// `paper_tables -- scenario-smoke` — runs the CI-sized mixed scenario in
/// both modes and asserts every scheduled operation ran. The run itself
/// panics on any query error, admission failure, or divergent batch, so
/// "it finished" is the assertion that matters; the printed table is for
/// the CI log.
fn scenario_smoke() {
    header("scenario-smoke — mixed-scenario driver, in-process and through qsvc");
    let cfg = ScenarioConfig::smoke();
    let runs = [
        ("inproc", scenario::run_in_process(&cfg)),
        ("service", scenario::run_service(&cfg)),
    ];
    for (mode, report) in &runs {
        for row in &report.rows {
            println!(
                "  {mode:<8} {:<14} {:>3} ops  {:>8.1} qps  p50 {:>8.3} ms  p95 {:>8.3} ms  p99 {:>8.3} ms",
                row.class.name(),
                row.count,
                row.qps,
                row.p50_ms,
                row.p95_ms,
                row.p99_ms
            );
            if row.count > 0 {
                assert!(
                    row.qps > 0.0,
                    "{mode}/{}: zero throughput",
                    row.class.name()
                );
            }
        }
        let total: usize = report.rows.iter().map(|r| r.count).sum();
        assert_eq!(total, cfg.ops, "{mode}: every scheduled op must run");
    }
    println!("  scenario smoke passed: every op class ran to completion in both modes");
}

/// Store-substrate section of `BENCH_7.json`: the flat-arena counters after
/// one frozen descendant sweep, one O(1) snapshot, and a cross-store adopt.
fn substrate_json(out: &mut String) {
    let (stats, shared) = substrate_probe();
    out.push_str(&format!(
        "  \"store_substrate\": {{\"arena_slice_scans\": {}, \"tree_snapshots\": {}, \
         \"trees_frozen\": {}, \"trees_thawed\": {}, \"adopt_shares_records\": {shared}}}\n",
        stats.arena_slice_scans, stats.tree_snapshots, stats.trees_frozen, stats.trees_thawed
    ));
    println!("  substrate {stats:?}, adopt shares records: {shared}");
}

/// Observability sections of `BENCH_7.json`: the counter block each fast
/// path reports on its probe query, measured with the runtime passes on and
/// (separately) off. Numbers, not vibes: a claimed fast path that stops
/// firing shows up here as a zero, and `check-obs` turns that into a CI
/// failure.
fn obs_json(out: &mut String) {
    for (key, runtime_opt) in [("observability", true), ("observability_opt_off", false)] {
        let rows = obs_probe_rows(runtime_opt);
        out.push_str(&format!("  \"{key}\": [\n"));
        for (idx, (name, stats)) in rows.iter().enumerate() {
            let comma = if idx + 1 < rows.len() { "," } else { "" };
            out.push_str(&format!("    {}{comma}\n", obs_stats_json(name, stats)));
            if runtime_opt {
                println!("  obs {name:<20} {stats:?}");
            }
        }
        out.push_str("  ],\n");
    }
}

/// One E1 batch job: a fresh engine, the per-document model exported into
/// it, and the **shared** compiled query evaluated. Returns the result
/// cardinality (used to assert determinism across worker counts).
fn e1_batch_job(w: &Workload, compiled: &xquery::CompiledQuery) -> usize {
    let mut engine = Engine::new();
    let doc = xmlio::export_to_store(&w.model, engine.store_mut());
    engine.register_document("awb-model", doc);
    engine.evaluate(compiled, None).unwrap().len()
}

/// Batch-throughput sections: the E1 sweep fanned across the pool at
/// 1/2/4/8 workers, plus shared-compile vs per-document-compile at one
/// worker (the compile-once win the `Arc<Program>` sharing buys).
fn e1_batch_json(out: &mut String, reps: usize) {
    let q = Query::from_type("user")
        .follow("likes")
        .follow_to("uses", "Program")
        .dedup()
        .sort_by_label();

    out.push_str("  \"e1_batch\": [\n");
    let mut rows = Vec::new();
    for (n, docs) in [(50usize, 32usize), (200, 16), (800, 8)] {
        let workloads: Vec<Workload> = (0..docs).map(|i| it_workload(n, 42 + i as u64)).collect();
        let src = q.to_xquery(&workloads[0].meta);
        let compiled = Engine::new().compile(&src).unwrap();

        let mut baseline: Option<Vec<usize>> = None;
        for workers in [1usize, 2, 4, 8] {
            let pool = StackPool::new(workers, 256 * 1024 * 1024);
            let run_batch = || {
                let jobs: Vec<_> = workloads
                    .iter()
                    .map(|w| {
                        let compiled = &compiled;
                        move || e1_batch_job(w, compiled)
                    })
                    .collect();
                pool.run_batch(jobs)
            };
            // Results must be deterministic and order-stable across worker
            // counts before the timing means anything.
            let results = run_batch();
            match &baseline {
                None => baseline = Some(results),
                Some(b) => assert_eq!(&results, b, "batch results diverged at {workers} workers"),
            }
            let batch = measure(reps, || {
                run_batch();
            });
            let docs_per_sec = docs as f64 / (batch.median / 1e3);
            println!(
                "  e1 batch n={n:>3} docs={docs:>2} workers={workers}: {:.1} ms ({docs_per_sec:.1} docs/sec)",
                batch.median
            );
            rows.push(format!(
                "    {{\"nodes\": {n}, \"docs\": {docs}, \"workers\": {workers}, {}, \"docs_per_sec\": {docs_per_sec:.2}}}",
                metric_json("batch", batch)
            ));
        }
    }
    out.push_str(&rows.join(",\n"));
    out.push_str("\n  ],\n");

    // Compile sharing: the same document batch with the query compiled
    // once (shared `Arc<Program>`) vs recompiled per document. Measured at
    // n=50, where per-document evaluation is cheap enough that compile cost
    // is a visible fraction of the batch.
    out.push_str("  \"e1_compile_sharing\": [\n");
    let (n, docs) = (50usize, 32usize);
    let workloads: Vec<Workload> = (0..docs).map(|i| it_workload(n, 42 + i as u64)).collect();
    let src = q.to_xquery(&workloads[0].meta);
    let compiled = Engine::new().compile(&src).unwrap();
    let pool = StackPool::new(1, 256 * 1024 * 1024);
    let mut rows = Vec::new();
    for (mode, per_doc_compile) in [("shared_compile", false), ("per_doc_compile", true)] {
        let run_batch = || {
            let jobs: Vec<_> = workloads
                .iter()
                .map(|w| {
                    let compiled = &compiled;
                    let src = &src;
                    move || {
                        if per_doc_compile {
                            let mut engine = Engine::new();
                            let doc = xmlio::export_to_store(&w.model, engine.store_mut());
                            engine.register_document("awb-model", doc);
                            let q = engine.compile(src).unwrap();
                            engine.evaluate(&q, None).unwrap().len()
                        } else {
                            e1_batch_job(w, compiled)
                        }
                    }
                })
                .collect();
            pool.run_batch(jobs)
        };
        let batch = measure(reps, || {
            run_batch();
        });
        let docs_per_sec = docs as f64 / (batch.median / 1e3);
        println!(
            "  e1 compile sharing {mode}: {:.1} ms ({docs_per_sec:.1} docs/sec)",
            batch.median
        );
        rows.push(format!(
            "    {{\"nodes\": {n}, \"docs\": {docs}, \"mode\": \"{mode}\", {}, \"docs_per_sec\": {docs_per_sec:.2}}}",
            metric_json("batch", batch)
        ));
    }
    out.push_str(&rows.join(",\n"));
    out.push_str("\n  ],\n");
}

/// Mixed xq/native document-generation batch through `docgen::batch`: the
/// production shape (regenerate a document set after a model edit), half
/// through the five-phase XQuery pipeline, half through the native walker.
fn docgen_batch_json(out: &mut String, reps: usize) {
    let template = Template::parse(
        r#"<template><h1>Documents</h1><for nodes="all.Document"><p><label/> is at version <value-of property="version" default="?"/>.</p></for><table-of-omissions types="user"/></template>"#,
    )
    .unwrap();
    let docs = 8usize;
    let workloads: Vec<Workload> = (0..docs).map(|i| it_workload(60, 100 + i as u64)).collect();
    let jobs: Vec<BatchJob<'_>> = workloads
        .iter()
        .enumerate()
        .map(|(i, w)| BatchJob {
            kind: if i % 2 == 0 {
                GeneratorKind::Xquery
            } else {
                GeneratorKind::Native
            },
            inputs: GenInputs {
                model: &w.model,
                meta: &w.meta,
                template: &template,
            },
        })
        .collect();
    let pipeline = CompiledPipeline::standard().unwrap();

    out.push_str("  \"docgen_mixed_batch\": [\n");
    let mut rows = Vec::new();
    let mut baseline: Option<Vec<String>> = None;
    for workers in [1usize, 2, 4, 8] {
        let pool = StackPool::new(workers, 256 * 1024 * 1024);
        let run = || {
            generate_batch_with(&jobs, &pipeline, &pool)
                .into_iter()
                .map(|r| r.expect("batch job").xml)
                .collect::<Vec<String>>()
        };
        let results = run();
        match &baseline {
            None => baseline = Some(results),
            Some(b) => assert_eq!(&results, b, "docgen batch diverged at {workers} workers"),
        }
        let batch = measure(reps, || {
            run();
        });
        let docs_per_sec = docs as f64 / (batch.median / 1e3);
        println!(
            "  docgen mixed batch docs={docs} workers={workers}: {:.1} ms ({docs_per_sec:.1} docs/sec)",
            batch.median
        );
        rows.push(format!(
            "    {{\"docs\": {docs}, \"workers\": {workers}, {}, \"docs_per_sec\": {docs_per_sec:.2}}}",
            metric_json("batch", batch)
        ));
    }
    out.push_str(&rows.join(",\n"));
    out.push_str("\n  ],\n");

    // Compile sharing at the pipeline level: the six-program XQuery
    // pipeline compiled once for the whole batch vs recompiled per
    // document (what serial `xq::generate` does).
    out.push_str("  \"docgen_compile_sharing\": [\n");
    let xq_jobs: Vec<BatchJob<'_>> = workloads
        .iter()
        .map(|w| BatchJob {
            kind: GeneratorKind::Xquery,
            inputs: GenInputs {
                model: &w.model,
                meta: &w.meta,
                template: &template,
            },
        })
        .collect();
    let pool = StackPool::new(1, 256 * 1024 * 1024);
    let mut rows = Vec::new();
    for (mode, per_doc_compile) in [("shared_compile", false), ("per_doc_compile", true)] {
        let batch = measure(reps, || {
            if per_doc_compile {
                let fresh = CompiledPipeline::standard().unwrap();
                for r in generate_batch_with(&xq_jobs[..1], &fresh, &pool) {
                    r.expect("batch job");
                }
                // One pipeline compile per document, like serial
                // `xq::generate`: repeat compile+run for each remaining doc.
                for job in &xq_jobs[1..] {
                    let fresh = CompiledPipeline::standard().unwrap();
                    for r in generate_batch_with(std::slice::from_ref(job), &fresh, &pool) {
                        r.expect("batch job");
                    }
                }
            } else {
                for r in generate_batch_with(&xq_jobs, &pipeline, &pool) {
                    r.expect("batch job");
                }
            }
        });
        let docs_per_sec = docs as f64 / (batch.median / 1e3);
        println!(
            "  docgen compile sharing {mode}: {:.1} ms ({docs_per_sec:.1} docs/sec)",
            batch.median
        );
        rows.push(format!(
            "    {{\"docs\": {docs}, \"mode\": \"{mode}\", {}, \"docs_per_sec\": {docs_per_sec:.2}}}",
            metric_json("batch", batch)
        ));
    }
    out.push_str(&rows.join(",\n"));
    out.push_str("\n  ],\n");
}

fn header(title: &str) {
    println!("\n================================================================");
    println!("{title}");
    println!("================================================================");
}

fn eval_display(engine: &mut Engine, src: &str) -> String {
    match engine.evaluate_str(src, None) {
        Ok(s) if s.is_empty() => "()".to_string(),
        Ok(s) => engine.display_sequence(&s),
        Err(e) => format!("error ({})", e.code),
    }
}

// ----------------------------------------------------------------------

fn t1_indexing_table() {
    header("T1 — the sequence-indexing table (§Data Structures and Abstractions)\n     ($X,$Y,$Z)[2] for the paper's seven rows");
    let mut e = Engine::new();
    let rows: &[(&str, &str, &str, &str, &str)] = &[
        ("Y itself", "1", "2", "3", "2"),
        ("Some part of Y", "1", "(2, \"2a\")", "4", "2"),
        ("Z", "1", "()", "3", "3"),
        ("A part of X", "(\"1a\",\"1b\")", "2", "3", "1b"),
        ("A part of Z*", "1", "()", "(\"3a\",\"3b\")", "3a"),
        ("Nothing", "()", "(2)", "()", "()"),
    ];
    println!(
        "{:<16} {:<14} {:<12} {:<14} {:<8} {:<8}",
        "Result", "X", "Y", "Z", "paper", "ours"
    );
    for (label, x, y, z, paper) in rows {
        let got = eval_display(
            &mut e,
            &format!("let $X := {x} let $Y := {y} let $Z := {z} return ($X,$Y,$Z)[2]"),
        );
        println!("{label:<16} {x:<14} {y:<12} {z:<14} {paper:<8} {got:<8}");
    }
    println!("(* paper erratum: the flattened sequence is (1,\"3a\",\"3b\"), so [2] is \"3a\" — the paper prints \"3b\")");
    let err = e
        .evaluate_str(
            "let $X := 1 let $Y := attribute y {\"why?\"} let $Z := 2 return <el>{$X}{$Y}{$Z}</el>",
            None,
        )
        .unwrap_err();
    println!(
        "{:<16} {:<14} {:<12} {:<14} {:<8} error ({})",
        "An error", "1", "attribute", "2", "error", err.code
    );
}

fn b1_attribute_folding() {
    header("B1 — attribute folding (§Treatment of Child Elements)");
    let mut e = Engine::new();
    let fold = "let $x := attribute troubles {1} return <el> {$x} </el>";
    let out = e.evaluate_str(fold, None).unwrap();
    println!("  {fold}\n    => {}", e.serialize_sequence(&out));

    let doom = "let $x := attribute troubles {1} return <el> \"doom\" {$x} </el>";
    let err = e.evaluate_str(doom, None).unwrap_err();
    println!("  {doom}\n    => error ({})", err.code);

    let dup = "let $a := attribute a {1} let $b := attribute a {2} let $c := attribute b {3} return <el> {$a}{$b}{$c} </el>";
    println!("  {dup}");
    for (name, opts) in [
        ("working draft, first wins", EngineOptions::default()),
        (
            "working draft, last wins ",
            EngineOptions {
                dup_attr_policy: xquery::DupAttrPolicy::KeepLast,
                ..Default::default()
            },
        ),
        ("Galax (keeps both!)      ", EngineOptions::galax()),
    ] {
        let mut e = Engine::with_options(opts);
        let out = e.evaluate_str(dup, None).unwrap();
        println!("    {name} => {}", e.serialize_sequence(&out));
    }
}

fn b2_comparisons() {
    header("B2 — '=' is existential; 'eq' demands singletons (§Syntactic Quirks #4)");
    let mut e = Engine::new();
    for q in [
        "1 = (1,2,3)",
        "(1,2,3) = 3",
        "1 = 3",
        "1 eq (1,2,3)",
        "1 eq 1",
    ] {
        println!("  {q:<16} => {}", eval_display(&mut e, q));
    }
}

fn b3_quirks() {
    header("B3 — the remaining syntactic quirks (§Syntactic Quirks #1–3)");
    let mut e = Engine::new();
    println!(
        "  $n-1 is one variable:     let $n-1 := 42 return $n-1  => {}",
        eval_display(&mut e, "let $n-1 := 42 return $n-1")
    );
    println!(
        "  subtraction needs space:  let $n := 42 return $n - 1 => {}",
        eval_display(&mut e, "let $n := 42 return $n - 1")
    );
    println!(
        "  '/' is a path; 'div' divides:  6 div 4 => {}",
        eval_display(&mut e, "6 div 4")
    );
    let mut galax = Engine::galax();
    println!(
        "  forgot the '$' (Galax):   x => {}",
        galax.evaluate_str("x", None).unwrap_err().message
    );
    let mut fixed = Engine::new();
    println!(
        "  forgot the '$' (fixed):   x => {}",
        fixed.evaluate_str("x", None).unwrap_err()
    );
}

fn e1_calculus() {
    header("E1 — the query calculus: native vs. compiled-to-XQuery\n     (\"preposterously inefficient\"; one-shot timings, see `cargo bench` for statistics)");
    println!(
        "{:>6} {:>8} {:>14} {:>14} {:>14} {:>9}",
        "nodes", "results", "native", "xq (prepared)", "xq (full)", "slowdown"
    );
    for n in [50usize, 200, 800] {
        let w = it_workload(n, 42);
        let q = Query::from_type("user")
            .follow("likes")
            .follow_to("uses", "Program")
            .dedup()
            .sort_by_label();

        let t = Instant::now();
        let native = q.run_native(&w.model, &w.meta);
        let native_t = t.elapsed();

        let mut engine = Engine::new();
        let doc = xmlio::export_to_store(&w.model, engine.store_mut());
        engine.register_document("awb-model", doc);
        let pq = q.prepare_xquery(&engine, &w.meta).unwrap();
        let t = Instant::now();
        let prepared = pq.run(&mut engine, &w.model).unwrap();
        let prepared_t = t.elapsed();
        assert_eq!(native, prepared);

        let t = Instant::now();
        let full = q.run_xquery(&w.model, &w.meta).unwrap();
        let full_t = t.elapsed();
        assert_eq!(native, full);

        println!(
            "{:>6} {:>8} {:>14.3?} {:>14.3?} {:>14.3?} {:>8.0}x",
            n,
            native.len(),
            native_t,
            prepared_t,
            full_t,
            prepared_t.as_secs_f64() / native_t.as_secs_f64().max(1e-12)
        );
    }
}

fn e2_phases() {
    header("E2 — multi-phase copying vs. in-place mutation (§Mutability vs. Functionality)");
    let w = it_workload(60, 7);
    println!(
        "{:>9} | {:>12} | {:>12} per extra phase | bytes copied per phase",
        "sections", "native", "xquery"
    );
    for sections in [5usize, 25] {
        let template_src = {
            let mut t = String::from("<template>\n  <table-of-contents/>\n");
            for i in 0..sections {
                t.push_str(&format!(
                    "  <section heading=\"Section {i}\">\n    <for nodes=\"all.user\"><p><label/></p></for>\n  </section>\n"
                ));
            }
            t.push_str("  <table-of-omissions types=\"Document\"/>\n</template>\n");
            t
        };
        let template = Template::parse(&template_src).unwrap();
        let inputs = GenInputs {
            model: &w.model,
            meta: &w.meta,
            template: &template,
        };
        let t = Instant::now();
        let _ = native::generate(&inputs).unwrap();
        let native_t = t.elapsed();

        let mut generator = XqGenerator::with_phases(&inputs, &Phase::ALL).unwrap();
        let t = Instant::now();
        let out = generator.run().unwrap();
        let xq_t = t.elapsed();

        println!(
            "{:>9} | {:>12.3?} | {:>12.3?} (all phases)    | {:?}",
            sections, native_t, xq_t, out.phase_sizes
        );
    }
}

fn e3_errors() {
    header("E3 — error handling under fault injection (§Error Detection and Handling)");
    let template = Template::parse(
        r#"<template><h1>Documents</h1><for nodes="all.Document"><p><label/> is at version <value-of property="version"/>.</p></for></template>"#,
    )
    .unwrap();
    println!(
        "{:>7} | {:>9} | {:>12} | {:>12} | notes equal?",
        "faults", "notes", "native", "xquery"
    );
    for percent in [0usize, 10, 50] {
        let mut w = it_workload(150, 5);
        set_fault_rate(&mut w.model, &w.meta, percent as f64 / 100.0);
        let inputs = GenInputs {
            model: &w.model,
            meta: &w.meta,
            template: &template,
        };
        let t = Instant::now();
        let nat = native::generate(&inputs).unwrap();
        let native_t = t.elapsed();
        let t = Instant::now();
        let xq = docgen::xq::generate(&inputs).unwrap();
        let xq_t = t.elapsed();
        println!(
            "{:>6}% | {:>9} | {:>12.3?} | {:>12.3?} | {}",
            percent,
            nat.trouble_count,
            native_t,
            xq_t,
            nat.trouble_count == xq.trouble_count
        );
    }
    // Code-expansion factor: the paper's "half-dozen lines of code" per
    // fallible call. In the error-value convention every guarded call costs
    // an if/then/else around an is-err test; with exceptions/`Result` the
    // same call costs a one-character `?`.
    let gen_src = docgen::xq::GEN_XQ;
    let guarded_calls = gen_src.matches("local:is-err(").count();
    let ceremony_lines = marker_loc(gen_src, &["is-err", "local:err(", "gen-error"]);
    let total = loc(gen_src);
    println!(
        "\n  gen.xq: {guarded_calls} guarded call sites; {ceremony_lines} of {total} code lines are error ceremony ({:.0}%)",
        100.0 * ceremony_lines as f64 / total as f64
    );
    let native_src = include_str!("../../../docgen/src/native/walk.rs");
    let question_marks = native_src.matches(")?").count() + native_src.matches("?;").count();
    println!(
        "  the rewrite: {question_marks} `?` propagations, each costing zero extra lines — \
         \"we could get away with not checking for errors except at the highest level\""
    );
}

fn e4_trace_dce() {
    header("E4 — trace vs. dead-code elimination (§Debugging XQuery)");
    let src = "let $x := 6 * 7 let $dummy := trace(\"x=\", $x) return $x";
    println!("  program: {src}");
    for (name, mut engine) in [
        ("galax".to_string(), Engine::galax()),
        ("fixed".to_string(), Engine::new()),
        (
            "unoptimized".to_string(),
            Engine::with_options(EngineOptions {
                optimize: false,
                ..Default::default()
            }),
        ),
    ] {
        let q = engine.compile(src).unwrap();
        engine.evaluate(&q, None).unwrap();
        let traces = engine.take_trace();
        println!(
            "  {name:<12}: {} dead let(s) removed, {} trace(s) deleted at compile time; runtime trace output: {:?}",
            q.stats.dead_lets_removed, q.stats.traces_removed, traces
        );
    }

    // The timing side: k dead traces in a loop body.
    println!("\n  runtime with k dead trace-lets inside a 100-iteration loop:");
    println!(
        "  {:>4} | {:>12} | {:>12} | {:>12}",
        "k", "galax (DCE)", "fixed", "unoptimized"
    );
    for k in [0usize, 8, 32] {
        let mut body = String::from("for $i in 1 to 100 return (let $x := $i * 2 ");
        for j in 0..k {
            body.push_str(&format!("let $dummy{j} := trace(\"p{j}\", $x + {j}) "));
        }
        body.push_str("return $x)");
        let mut row = Vec::new();
        for mut engine in [
            Engine::galax(),
            Engine::new(),
            Engine::with_options(EngineOptions {
                optimize: false,
                ..Default::default()
            }),
        ] {
            let q = engine.compile(&body).unwrap();
            // warm
            engine.evaluate(&q, None).unwrap();
            engine.take_trace();
            let t = Instant::now();
            for _ in 0..10 {
                engine.evaluate(&q, None).unwrap();
                engine.take_trace();
            }
            row.push(t.elapsed() / 10);
        }
        println!(
            "  {:>4} | {:>12.3?} | {:>12.3?} | {:>12.3?}",
            k, row[0], row[1], row[2]
        );
    }
}

fn e5_tables() {
    header("E5 — the row/column table: skeleton-fill vs. all-at-once (§Mutability in Java)");
    println!(
        "{:>8} | {:>12} | {:>12} | same output?",
        "size", "native", "xquery"
    );
    for (rows, cols) in [(5usize, 5usize), (20, 10), (40, 20)] {
        let meta = awb::workload::it_metamodel();
        let mut model = awb::Model::new();
        let servers: Vec<_> = (0..rows)
            .map(|i| model.add_node("Server", format!("s{i:03}")))
            .collect();
        let programs: Vec<_> = (0..cols)
            .map(|j| model.add_node("Program", format!("p{j:03}")))
            .collect();
        for (i, &s) in servers.iter().enumerate() {
            for (j, &p) in programs.iter().enumerate() {
                if (i + j) % 3 == 0 {
                    model.add_relation("runs", s, p);
                }
            }
        }
        let template = Template::parse(
            r#"<template><awb-table rows="all.Server" cols="all.Program" relation="runs" corner="r\c"/></template>"#,
        )
        .unwrap();
        let inputs = GenInputs {
            model: &model,
            meta: &meta,
            template: &template,
        };
        let t = Instant::now();
        let nat = native::generate(&inputs).unwrap();
        let native_t = t.elapsed();
        let t = Instant::now();
        let xq = docgen::xq::generate(&inputs).unwrap();
        let xq_t = t.elapsed();
        println!(
            "{:>8} | {:>12.3?} | {:>12.3?} | {}",
            format!("{rows}x{cols}"),
            native_t,
            xq_t,
            normalized_equal(&nat.to_xml(), &xq.xml)
        );
    }
}

fn e6_loc() {
    header("E6 — implementation sizes (the months-vs-weeks proxy)");
    println!("  XQuery implementation (shipped .xq sources):");
    let mut xq_total = 0;
    for (name, src) in docgen::xq::ALL_SOURCES {
        let n = loc(src);
        xq_total += n;
        println!("    {name:<14} {n:>5} loc");
    }
    println!("    {:<14} {xq_total:>5} loc", "total");
    println!(
        "    (ablation: the same generator with try/catch — gen_tc.xq — is {} loc, {} fewer; byte-identical output)",
        loc(docgen::xq::GEN_TC_XQ),
        loc(docgen::xq::GEN_XQ).saturating_sub(loc(docgen::xq::GEN_TC_XQ))
    );

    let native_files = [
        (
            "native/mod.rs",
            include_str!("../../../docgen/src/native/mod.rs"),
        ),
        (
            "native/walk.rs",
            include_str!("../../../docgen/src/native/walk.rs"),
        ),
        (
            "native/state.rs",
            include_str!("../../../docgen/src/native/state.rs"),
        ),
        (
            "native/tables.rs",
            include_str!("../../../docgen/src/native/tables.rs"),
        ),
    ];
    println!("  native rewrite (tests included in the files but not in spirit):");
    let mut native_total = 0;
    for (name, src) in native_files {
        // Strip the test modules for a fair comparison.
        let code = src.split("#[cfg(test)]").next().unwrap_or(src);
        let n = loc(code);
        native_total += n;
        println!("    {name:<17} {n:>5} loc");
    }
    println!("    {:<17} {native_total:>5} loc", "total");
    println!(
        "\n  the XQuery version is {:.2}x the size of the rewrite, despite doing the same job",
        xq_total as f64 / native_total as f64
    );
}

fn e7_equivalence() {
    header("E7 — the rewrite \"pretty much reproduced the power\": output equivalence");
    let meta = awb::workload::it_metamodel();
    for (name, n, seed) in [
        ("small", 40usize, 1u64),
        ("medium", 120, 2),
        ("large", 300, 3),
    ] {
        let model = awb::workload::it_architecture(awb::workload::ItScale::about(n), seed);
        let template = Template::parse(SYSTEM_CONTEXT).unwrap();
        let inputs = GenInputs {
            model: &model,
            meta: &meta,
            template: &template,
        };
        let nat = native::generate(&inputs).unwrap();
        let xq = docgen::xq::generate(&inputs).unwrap();
        println!(
            "  {name:<7} ({:>4} nodes): identical = {} ({} bytes, {} error notes each)",
            model.node_count(),
            normalized_equal(&nat.to_xml(), &xq.xml),
            xq.xml.len(),
            xq.trouble_count
        );
    }
}

fn e8_metastasis() {
    header("E8 — \"once types are used somewhere, they rapidly metastatize\"");
    let g = call_graph(docgen::xq::GEN_XQ);
    println!("  gen.xq declares {} functions", g.functions.len());

    // Untyped mode (as the project ran): the checker is silent.
    let module = xquery::parser::parse_module(docgen::xq::GEN_XQ).unwrap();
    let untyped = xquery::static_typing::check_module(&module);
    println!(
        "  static checker on the untyped generator: {} diagnostic(s)",
        untyped.len()
    );

    // "We made the mistake of trying to put type annotations on some
    // utility functions" — annotate exactly one, re-check.
    let annotated_src = docgen::xq::GEN_XQ.replace(
        "declare function local:req-attr($el, $attr-name) {",
        "declare function local:req-attr($el as element(), $attr-name as xs:string) {",
    );
    assert_ne!(
        annotated_src,
        docgen::xq::GEN_XQ,
        "the seed signature exists"
    );
    let module = xquery::parser::parse_module(&annotated_src).unwrap();
    let diags = xquery::static_typing::check_module(&module);
    let mut functions_hit: Vec<&str> = diags
        .iter()
        .filter_map(|d| d.in_function.as_deref())
        .collect();
    functions_hit.sort_unstable();
    functions_hit.dedup();
    println!(
        "  after annotating ONE utility (local:req-attr): {} diagnostic(s) across {} other function(s):",
        diags.len(),
        functions_hit.len()
    );
    for f in &functions_hit {
        println!("    - {f}");
    }

    println!("\n  and the transitive data-flow component those fixes would drag in:");
    println!("  {:<28} {:>8} {:>9}", "seed function", "closure", "share");
    for seed in [
        "local:req-attr",
        "local:is-err",
        "local:label",
        "local:slug",
        "local:run-query",
    ] {
        let closure = g.annotation_closure(seed);
        println!(
            "  {seed:<28} {:>8} {:>8.0}%",
            closure.len(),
            100.0 * closure.len() as f64 / g.functions.len() as f64
        );
    }
    println!("\n  (\"a couple days of adding type annotations to surprising parts of the code\")");
}

fn e9_output_streams() {
    header("E9 — output streams (§Output Streams): one XQuery output, split by XSLT");
    let mut w = it_workload(80, 11);
    set_fault_rate(&mut w.model, &w.meta, 0.2);
    let template = Template::parse(
        r#"<template><h1>Documents</h1><for nodes="all.Document"><p><label/> is at version <value-of property="version"/>.</p></for></template>"#,
    )
    .unwrap();
    let inputs = GenInputs {
        model: &w.model,
        meta: &w.meta,
        template: &template,
    };
    let generated = docgen::xq::generate(&inputs).unwrap();
    // Bundle: the only thing a single-output language can do.
    let mut engine = Engine::new();
    let doc = engine.load_document(&generated.xml).unwrap();
    let root = engine.store().document_element(doc).unwrap();
    engine.bind_node("doc", root);
    let combined_seq = engine
        .evaluate_str(
            r#"<streams>{ <document>{ $doc }</document>,
                 <problems>{ for $e in $doc//span[@class = "gen-error"] return <problem>{ string($e) }</problem> }</problems> }</streams>"#,
            None,
        )
        .unwrap();
    let combined = engine.serialize_sequence(&combined_seq);
    let doc_xsl = r#"<xsl:stylesheet xmlns:xsl="http://www.w3.org/1999/XSL/Transform">
        <xsl:template match="/"><xsl:copy-of select="streams/document/node()"/></xsl:template></xsl:stylesheet>"#;
    let prob_xsl = r#"<xsl:stylesheet xmlns:xsl="http://www.w3.org/1999/XSL/Transform">
        <xsl:template match="/"><report><xsl:copy-of select="streams/problems/node()"/></report></xsl:template></xsl:stylesheet>"#;
    let document = xslt::transform_str(doc_xsl, &combined).unwrap();
    let problems = xslt::transform_str(prob_xsl, &combined).unwrap();
    println!(
        "  combined tree : {} bytes (both streams as children of one root)",
        combined.len()
    );
    println!(
        "  document      : {} bytes, recovered by a {}-line XSLT program",
        document.len(),
        doc_xsl.lines().count()
    );
    println!(
        "  problems      : {} problem(s): {}",
        problems.matches("<problem>").count(),
        &problems[..problems.len().min(120)]
    );
    assert_eq!(document, generated.xml);
    println!("  the recovered document equals the generator's own output ✓");
}

fn morals() {
    header("The Moral — the paper's little-language checklist, applied to this engine");

    // Moral #4: exception handling. The same three-required-children chain
    // in the error-value convention vs. the try/catch extension.
    let error_value_style = r#"
        declare function local:err($m) { <gen-error><message>{$m}</message></gen-error> };
        declare function local:is-err($v) { some $i in $v satisfies $i instance of element(gen-error) };
        declare function local:required-child($el, $name) {
            let $c := $el/*[name(.) = $name]
            return if (empty($c)) then local:err(concat("no <", $name, "> child")) else ($c)[1]
        };
        let $tpl := <if><test/><then/></if>
        let $t := local:required-child($tpl, "test")
        return
            if (local:is-err($t)) then string($t/message)
            else
                let $th := local:required-child($tpl, "then")
                return
                    if (local:is-err($th)) then string($th/message)
                    else
                        let $el := local:required-child($tpl, "else")
                        return
                            if (local:is-err($el)) then string($el/message)
                            else "complete"
    "#;
    let try_catch_style = r#"
        declare function local:required-child($el, $name) {
            let $c := $el/*[name(.) = $name]
            return if (empty($c)) then error(concat("no <", $name, "> child")) else ($c)[1]
        };
        let $tpl := <if><test/><then/></if>
        return try {
            let $t := local:required-child($tpl, "test")
            let $th := local:required-child($tpl, "then")
            let $el := local:required-child($tpl, "else")
            return "complete"
        } catch ($err) { $err }
    "#;
    let mut e = Engine::new();
    let a = e.evaluate_str(error_value_style, None).unwrap();
    let b = e.evaluate_str(try_catch_style, None).unwrap();
    println!("  moral #4 (exception handling) — the same guarded chain:");
    println!(
        "    error-value convention : {} code lines, result {:?}",
        loc(error_value_style),
        e.display_sequence(&a)
    );
    println!(
        "    with try/catch         : {} code lines, result {:?}   (XQuery 3.0 adopted this in 2014)",
        loc(try_catch_style),
        e.display_sequence(&b)
    );

    println!("\n  and at full scale: the WHOLE generator rewritten with try/catch (gen_tc.xq)");
    println!(
        "    gen.xq (error-value convention): {} loc with {} guarded call sites",
        loc(docgen::xq::GEN_XQ),
        docgen::xq::GEN_XQ.matches("local:is-err(").count()
    );
    println!(
        "    gen_tc.xq (try/catch)          : {} loc with {} catch sites — byte-identical output (tested)",
        loc(docgen::xq::GEN_TC_XQ),
        docgen::xq::GEN_TC_XQ.matches("catch").count()
    );

    println!(
        "\n  moral #1 (basic data structures) : set-of-strings works on sequences; generic sets"
    );
    println!(
        "                                     remain impossible (tests: set_of_strings_library,"
    );
    println!("                                     generic_sets_are_impossible)");
    println!(
        "  moral #2 (mutable structures)    : deliberately not added — \"In some cases (including"
    );
    println!("                                     XQuery) there are good reasons for not allowing mutation.\"");
    println!("  moral #3 (control structures)    : \"XQuery got this one right.\" — FLWOR/if/quantifiers/recursion");
    println!("  moral #5 (debugging/tracing)     : fn:trace with a DCE-proof optimizer (see E4)");
    println!(
        "  moral #6 (traditional syntax)    : historical constraints reproduced instead (see B3)"
    );
    println!(
        "  moral #7 (focus on the purpose)  : the XML dissection/construction layer — see B1/T1"
    );
}

const SYSTEM_CONTEXT: &str = r#"<template>
  <h1>System Context</h1>
  <table-of-contents/>
  <section heading="The System">
    <for nodes="all.SystemBeingDesigned">
      <p>This document describes <b><label/></b> (tier <value-of property="tier" default="?"/>).</p>
    </for>
  </section>
  <section heading="Users">
    <ol><for nodes="all.user"><li><if>
      <test> <focus-is-type type="superuser"/> </test>
      <then> <b> <label/> </b> </then>
      <else> <label/> </else>
    </if></li></for></ol>
  </section>
  <section heading="Deployment">
    <p>Where programs run: SERVER-TABLE-GOES-HERE as measured.</p>
    <marker-content marker="SERVER-TABLE-GOES-HERE">
      <awb-table rows="all.Server" cols="all.Program" relation="runs" corner="server\program"/>
    </marker-content>
  </section>
  <section heading="Documents">
    <for nodes="all.Document"><p><label/> v<value-of property="version" default="MISSING"/></p></for>
  </section>
  <section heading="Omissions">
    <table-of-omissions types="Document,PerformanceRequirement"/>
  </section>
</template>"#;
