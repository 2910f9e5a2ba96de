//! `paper_tables` — regenerates every table, figure, and quantified claim of
//! the paper as text, in the paper's own layout.
//!
//! Usage: `cargo run --release -p bench-suite --bin paper_tables [-- IDS…]`
//! where IDS are any of `t1 b1 b2 b3 e1 e2 e3 e4 e5 e6 e7 e8 e9 morals`
//! (default all).
//!
//! Every time E1–E5 print is the median, minimum and maximum of one
//! `bench_suite::rows` registry row, measured over its declared samples.

use awb::PropValue;
use bench_suite::rows::{self, axis_bench_doc, Gate, Stats};
use bench_suite::{call_graph, it_workload, loc, marker_loc, set_fault_rate};
use docgen::batch::CompiledPipeline;
use docgen::xq::{Phase, XqGenerator, GEN_TC_XQ, GEN_XQ};
use docgen::{native, normalized_equal, EditFootprint, GenInputs, IncrementalDoc, Template};
use lopsided::templates::FAULTY_DOCUMENT_LIST;
use xmlstore::parser::ParseOptions;
use xmlstore::QName;
use xquery::{Engine, EngineOptions, EvalStats, ReuseStats};

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
    // Opt-in only (asserts, for CI): `paper_tables -- bench-gate`.
    if args.iter().any(|a| a == "bench-gate") {
        bench_gate();
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
    (
        "split_prefix_hoist",
        "declare function local:odd($k) { ends-with($k, '1') or ends-with($k, '3') }; \
         let $d := /root return count(for $i in (0, 1, 2, 3) \
           return $d/item[local:odd(string(@k))][@g = concat('g', $i)])",
    ),
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

/// `paper_tables -- check-obs` — asserts that every fast path the engine
/// claims (hash join, index range, attribute-index probe, CacheOnce,
/// streamed existence, the split-prefix hoist through a pure function)
/// reports non-zero counters on its probe query, and
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
    let split = get("split_prefix_hoist");
    assert!(
        split.cache_hits > 0 && split.cache_resets > 0,
        "split-prefix hoist did not count: {split:?}"
    );
    let split_src = OBS_PROBES
        .iter()
        .find(|(n, _)| *n == "split_prefix_hoist")
        .map(|(_, src)| *src)
        .expect("probe row");
    let plan = Engine::new()
        .compile(split_src)
        .expect("obs probe compiles")
        .plan_stats;
    assert_eq!(
        plan.split_prefixes, 1,
        "the pure-call prefix was not split: {plan:?}"
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
        // A new attribute changes the attribute list: structural, so the
        // tree thaws and the next freeze must splice.
        f.set_attribute(first, "edited", "yes").expect("edit");
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

        // A value overwrite is shape-preserving: one record write, and the
        // tree never leaves the frozen form.
        let before = f.stats();
        f.set_attribute(first, "k", "edited").expect("overwrite");
        let after = f.stats();
        assert!(
            f.is_frozen(fdoc),
            "an attribute overwrite must leave the tree frozen"
        );
        assert_eq!(
            after.frozen_value_edits,
            before.frozen_value_edits + 1,
            "an attribute overwrite must write the frozen record in place"
        );
        assert_eq!(
            after.trees_thawed, before.trees_thawed,
            "an attribute overwrite must not thaw the tree"
        );
        println!("  frozen value edit: written in place, no thaw");
    }

    let on = system_context_reuse(true);
    assert!(
        on.keyed_split_probes > 0 && on.memo_hits > 0,
        "the System Context render took no keyed split probe or memo hit: {on:?}"
    );
    assert!(
        on.pushed_nodes > 0,
        "the System Context render built no node in place: {on:?}"
    );
    for (counter, value) in system_context_reuse(false).counters() {
        assert_eq!(
            value, 0,
            "System Context: counter {counter} must be zero with runtime_opt off"
        );
    }
    println!("  System Context render through XQuery: {on:?}");

    edit_loop_probe();
    println!("  all observability counters check out (and zero out with runtime_opt off)");
}

/// The reuse counters of one System Context render (n=100) through the
/// XQuery pipeline, every phase summed, with the runtime passes on or off.
fn system_context_reuse(runtime_opt: bool) -> ReuseStats {
    let w = it_workload(100, 7);
    let template = Template::parse(lopsided::templates::SYSTEM_CONTEXT)
        .expect("System Context template parses");
    let inputs = GenInputs {
        model: &w.model,
        meta: &w.meta,
        template: &template,
    };
    let options = EngineOptions {
        runtime_opt,
        ..Default::default()
    };
    let out = CompiledPipeline::new(GEN_XQ, &Phase::ALL, options)
        .and_then(|pipeline| XqGenerator::with_compiled(&inputs, &pipeline)?.run())
        .expect("System Context renders through XQuery");
    let mut total = ReuseStats::default();
    for phase in &out.phase_reports {
        total.merge(&phase.reuse);
    }
    total
}

/// The incremental edit loop on System Context at n=800: the generated
/// document holds the Deployment table once, in its marker definition (the
/// bytes written put it in place of the marker); a `language` edit re-runs
/// one Programs iteration and leaves one iteration's worth of detached
/// output behind; an added program re-runs the Programs chunk, its shell
/// and every iteration. Both documents equal a full run.
fn edit_loop_probe() {
    let mut w = it_workload(800, 42);
    let template = Template::parse(lopsided::templates::SYSTEM_CONTEXT)
        .expect("System Context template parses");
    let programs = w.model.nodes_of_type("Program", &w.meta);
    let mut doc = IncrementalDoc::generate(&GenInputs {
        model: &w.model,
        meta: &w.meta,
        template: &template,
    })
    .expect("System Context generates");
    let full_run = |w: &bench_suite::Workload, doc: &IncrementalDoc| {
        let inputs = GenInputs {
            model: &w.model,
            meta: &w.meta,
            template: &template,
        };
        let fresh = native::generate(&inputs).expect("full run generates");
        assert_eq!(doc.to_xml(), fresh.to_xml(), "incremental output diverged");
    };

    let slots = doc.store.len();
    assert!(
        slots <= 25_000,
        "the generated document holds {slots} store slots: the Deployment table twice?"
    );
    w.model
        .set_prop(programs[7], "language", PropValue::Str("cobol".into()));
    let reran = doc
        .apply_edit(
            &GenInputs {
                model: &w.model,
                meta: &w.meta,
                template: &template,
            },
            &EditFootprint::new(),
        )
        .expect("edit applies");
    let grew = doc.store.len() - slots;
    assert_eq!(reran, 1, "a language edit re-runs one Programs iteration");
    assert!(grew <= 32, "a language edit left {grew} store slots behind");
    full_run(&w, &doc);

    w.model.add_node("Program", "program-added");
    let reran = doc
        .apply_edit(
            &GenInputs {
                model: &w.model,
                meta: &w.meta,
                template: &template,
            },
            &EditFootprint::new(),
        )
        .expect("edit applies");
    assert!(
        reran > programs.len() + 1,
        "an added program re-runs the Programs chunk: {reran} units for {} programs",
        programs.len() + 1
    );
    full_run(&w, &doc);
    println!(
        "  incremental edit loop: generate left {slots} store slots; a language edit re-ran \
         1 unit and left {grew} store slots; an added program re-ran {reran} units"
    );
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
// bench-json and bench-gate: the row registry, measured or gated.
// ----------------------------------------------------------------------

/// `paper_tables -- bench-json` — measures every row of the
/// `bench_suite::rows` registry and writes `BENCH_11.json`, one line per
/// row, with the explicit `limit` the gate reads on every gated row. The
/// rows' setup and samplers carry their own assertions (batch results
/// identical across worker counts, incremental output byte-equal to full
/// regeneration, the repatch and splice counters firing, the hot-plan hit
/// rate above 0.9, deterministic corpora, every scenario op run); the
/// n=800 edit-to-fresh-doc speedup is asserted here, across two rows.
fn bench_json() {
    header(&format!(
        "bench-json — writing {} (every registry row)",
        rows::SNAPSHOT
    ));
    let mut lines = Vec::new();
    let mut medians = std::collections::HashMap::new();
    for row in rows::registry() {
        let stats = row.measure();
        let line = row.line(&stats);
        println!("  {}", line.trim_start());
        lines.push(line);
        medians.insert(row.name, stats.median);
    }
    let speedup = medians["edit_full_n800"] / medians["edit_incremental_n800"];
    assert!(
        speedup >= 10.0,
        "edit-to-fresh-doc must be at least 10x faster than full regeneration at n=800, got {speedup:.1}x"
    );
    println!("  edit-to-fresh-doc speedup at n=800: {speedup:.1}x");
    std::fs::write(rows::SNAPSHOT, rows::snapshot(&lines)).expect("writing the snapshot");
    println!("  wrote {}", rows::SNAPSHOT);
}

/// `paper_tables -- bench-gate` — re-measures every gated registry row and
/// panics (non-zero exit, for CI) if one misses the explicit `limit` on its
/// `BENCH_11.json` line: a ceiling row's fastest sample must stay at or
/// under it, a floor row's best round at or over it, and a row that misses
/// is re-measured twice before it counts. A gated row with no limit line
/// fails too, so renaming a row cannot silently un-gate it.
fn bench_gate() {
    header(&format!(
        "bench-gate — every gated row vs its explicit limit in {}, {} re-measures",
        rows::SNAPSHOT,
        rows::RETRIES
    ));
    let snapshot = std::fs::read_to_string(rows::SNAPSHOT)
        .unwrap_or_else(|e| panic!("bench-gate: cannot read {}: {e}", rows::SNAPSHOT));
    let mut failures = Vec::new();
    for row in rows::registry()
        .into_iter()
        .filter(|r| r.gate != Gate::None)
    {
        let Some(limit) = rows::snapshot_number(&snapshot, &row.name, "limit") else {
            println!("  {:<30} MISSING from {}", row.name, rows::SNAPSHOT);
            failures.push(format!("{}: no limit line in {}", row.name, rows::SNAPSHOT));
            continue;
        };
        let (got, ok) = row.gate_against(limit);
        let bound = if row.gate == Gate::Floor {
            "floor"
        } else {
            "limit"
        };
        let verdict = if ok { "ok" } else { "REGRESSED" };
        println!(
            "  {:<30} {got:>10.4} {:<3}  {bound} {limit:>10.4}  {verdict}",
            row.name, row.unit
        );
        if !ok {
            failures.push(format!(
                "{}: {got:.4} {} vs {bound} {limit:.4}",
                row.name, row.unit
            ));
        }
    }
    assert!(
        failures.is_empty(),
        "bench-gate: {} row(s) failed:\n  {}",
        failures.len(),
        failures.join("\n  ")
    );
    println!("  bench-gate passed: every gated row is within its limit");
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

/// Measures the rows behind the E-section `id`'s timed table and prints
/// it: one line per swept point, one `median [min–max]` cell per column,
/// then `extra`'s cells for that line (given its index and its cells).
fn timed_table(id: &str, extra_head: &str, extra: impl Fn(usize, &[Stats]) -> String) {
    let table = rows::paper_tables()
        .into_iter()
        .find(|t| t.id == id)
        .expect("an E-section table");
    let registry = rows::registry();
    let row = |name: &str| {
        registry
            .iter()
            .find(|r| r.name == name)
            .unwrap_or_else(|| panic!("{id} names {name}, which the registry lacks"))
    };
    let samples = row(&table.row_name(&table.points[0], &table.columns[0])).samples;
    println!(
        "  median [min–max] of each cell's registry row, {samples} samples after a warm-up, \
         host_cpus {}",
        rows::host_cpus()
    );
    let mut head = format!("  {:<6}", "");
    for column in &table.columns {
        head.push_str(&format!(" | {column:<24}"));
    }
    println!("{head} | {extra_head}");
    for (i, point) in table.points.iter().enumerate() {
        let stats: Vec<Stats> = table
            .columns
            .iter()
            .map(|column| row(&table.row_name(point, column)).measure())
            .collect();
        let mut line = format!("  {point:<6}");
        for s in &stats {
            line.push_str(&format!(" | {:<24}", cell(s)));
        }
        println!("{line} | {}", extra(i, &stats));
    }
}

/// `median [min–max] unit`, in the unit that suits the median.
fn cell(s: &Stats) -> String {
    let (scale, unit, digits) = match s.median {
        m if m < 1.0 => (1e3, "µs", 1),
        m if m < 1e3 => (1.0, "ms", 2),
        _ => (1e-3, "s", 2),
    };
    format!(
        "{:.digits$} [{:.digits$}–{:.digits$}] {unit}",
        s.median * scale,
        s.min * scale,
        s.max * scale
    )
}

fn e1_calculus() {
    header("E1 — the query calculus: native vs. compiled-to-XQuery (\"preposterously inefficient\")\n     \
            native: the calculus on the graph; lowered: the optimised runner, query prepared;\n     \
            reference: the index-free walker, query prepared; full: export + compile + eval per call");
    timed_table(
        "e1",
        "results | reference/native | lowered/native",
        |i, s| {
            let w = it_workload(rows::E1_SIZES[i], 42);
            let results = rows::e1_query().run_native(&w.model, &w.meta).len();
            format!(
                "{results:>7} | {:>15.0}x | {:>13.1}x",
                s[2].median / s[0].median,
                s[1].median / s[0].median
            )
        },
    );
}

fn e2_phases() {
    header(
        "E2 — multi-phase copying vs. in-place mutation (§Mutability vs. Functionality)\n     \
            xq_pN: the XQuery pipeline with its first N copying phases;\n     \
            xq_runtime_off: all four phases with the runtime passes off, as Galax ran",
    );
    timed_table("e2", "bytes after each phase", |i, _| {
        let f = rows::e2_fixture(rows::E2_SECTIONS[i]);
        let out = docgen::xq::generate(&f.inputs()).expect("XQuery pipeline renders");
        format!("{:?}", out.phase_sizes)
    });
}

fn e3_errors() {
    header(
        "E3 — error handling under fault injection (§Error Detection and Handling)\n     \
            f<p>: p% of the documents lack the version the template reads",
    );
    timed_table("e3", "notes | notes equal?", |i, _| {
        let f = rows::e3_fixture(rows::E3_FAULTS[i]);
        let inputs = f.inputs();
        let notes = native::generate(&inputs)
            .expect("native generator renders")
            .trouble_count;
        let error_values = docgen::xq::generate(&inputs).expect("XQuery pipeline renders");
        let try_catch = CompiledPipeline::new(GEN_TC_XQ, &Phase::ALL, EngineOptions::default())
            .and_then(|pipeline| XqGenerator::with_compiled(&inputs, &pipeline)?.run())
            .expect("try/catch pipeline renders");
        let equal = error_values.trouble_count == notes && try_catch.trouble_count == notes;
        format!("{notes:>5} | {equal}")
    });
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
    for (name, engine) in rows::E4_ENGINES {
        let mut engine = engine();
        let q = engine.compile(src).unwrap();
        engine.evaluate(&q, None).unwrap();
        let traces = engine.take_trace();
        println!(
            "  {name:<12}: {} dead let(s) removed, {} trace(s) deleted at compile time; runtime trace output: {:?}",
            q.stats.dead_lets_removed, q.stats.traces_removed, traces
        );
    }
    println!("\n  runtime with k dead trace-lets inside a 100-iteration loop:");
    timed_table("e4", "fixed/galax", |_, s| {
        format!("{:.1}x", s[1].median / s[0].median)
    });
}

fn e5_tables() {
    header(
        "E5 — the row/column table: skeleton-fill vs. all-at-once (§Mutability in Java)\n     \
            servers x programs; xq: the whole XQuery pipeline, compiled once;\n     \
            xq_runtime_off: the same with the runtime passes off, as Galax ran",
    );
    timed_table("e5", "off/native | xq/native", |_, s| {
        format!(
            "{:>9.0}x | {:.0}x",
            s[1].median / s[0].median,
            s[2].median / s[0].median
        )
    });
    println!("  (each xq row's fixture asserts its document equals the native one, normalized)");
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
    let template = Template::parse(FAULTY_DOCUMENT_LIST).unwrap();
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
