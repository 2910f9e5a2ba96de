//! `xq` — a tiny command-line front end for the engine.
//!
//! ```console
//! $ cargo run -p xquery-engine --example xq -- 'for $i in 1 to 3 return $i * $i'
//! 1 4 9
//! $ cargo run -p xquery-engine --example xq -- --galax 'let $d := trace("x", 1) return 2'
//! 2
//! $ echo '<a><b/></a>' > /tmp/doc.xml
//! $ cargo run -p xquery-engine --example xq -- --doc /tmp/doc.xml 'count(//b)'
//! 1
//! ```
//!
//! Flags: `--galax` (quirks mode), `--no-optimize`, `--static` (static type
//! checking), `--doc FILE` (context document, also registered as
//! `doc("input")`), `--xml` (serialize instead of display form),
//! `--stats` (print optimizer statistics and runtime counters),
//! `--trace` (print trace output), `--explain` (print the annotated plan
//! before running).

use std::process::ExitCode;
use xquery::{Engine, EngineOptions};

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1).collect::<Vec<_>>();
    let mut options = EngineOptions::default();
    let mut doc_path: Option<String> = None;
    let mut as_xml = false;
    let mut show_stats = false;
    let mut show_trace = false;
    let mut show_explain = false;

    let mut query: Option<String> = None;
    while let Some(arg) = args.first().cloned() {
        args.remove(0);
        match arg.as_str() {
            "--galax" => options = EngineOptions::galax(),
            "--no-optimize" => options.optimize = false,
            "--static" => options.static_typing = true,
            "--xml" => as_xml = true,
            "--stats" => show_stats = true,
            "--trace" => show_trace = true,
            "--explain" => show_explain = true,
            "--doc" => {
                doc_path = args.first().cloned();
                if doc_path.is_none() {
                    eprintln!("--doc requires a file path");
                    return ExitCode::FAILURE;
                }
                args.remove(0);
            }
            "--help" | "-h" => {
                eprintln!("usage: xq [--galax] [--no-optimize] [--static] [--xml] [--stats] [--trace] [--explain] [--doc FILE] QUERY");
                return ExitCode::SUCCESS;
            }
            other => {
                query = Some(other.to_string());
                break;
            }
        }
    }
    let Some(query) = query else {
        eprintln!("usage: xq [flags] QUERY   (try --help)");
        return ExitCode::FAILURE;
    };

    let mut engine = Engine::with_options(options);
    let mut context = None;
    if let Some(path) = doc_path {
        let xml = match std::fs::read_to_string(&path) {
            Ok(x) => x,
            Err(e) => {
                eprintln!("cannot read {path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        match engine.load_document(&xml) {
            Ok(doc) => {
                engine.register_document("input", doc);
                context = Some(doc);
            }
            Err(e) => {
                eprintln!("cannot parse {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }

    let compiled = match engine.compile(&query) {
        Ok(q) => q,
        Err(e) => {
            eprintln!("compile error: {e}");
            return ExitCode::FAILURE;
        }
    };
    if show_stats {
        eprintln!(
            "optimizer: {} dead let(s) removed, {} trace(s) deleted, {} constant(s) folded",
            compiled.stats.dead_lets_removed,
            compiled.stats.traces_removed,
            compiled.stats.constants_folded
        );
    }
    if show_explain {
        eprint!("{}", engine.explain(&compiled));
    }
    match engine.evaluate(&compiled, context) {
        Ok(seq) => {
            if as_xml {
                println!("{}", engine.serialize_sequence(&seq));
            } else {
                println!("{}", engine.display_sequence(&seq));
            }
            if show_trace {
                for line in engine.take_trace() {
                    eprintln!("trace: {line}");
                }
            }
            if show_stats {
                let s = engine.last_stats();
                let r = engine.last_reuse_stats();
                eprintln!(
                    "runtime: {} index hit(s)/{} miss(es), {} join build(s)/{} probe(s)/{} fallback(s), {} cache hit(s)/{} reset(s), {} keyed split probe(s), {} memo hit(s), {} pushed node(s), {} streamed, {} item(s), {} µs queued + {} µs on worker",
                    s.index_hits,
                    s.index_misses,
                    s.join_builds,
                    s.join_probes,
                    s.join_fallbacks,
                    s.cache_hits,
                    s.cache_resets,
                    r.keyed_split_probes,
                    r.memo_hits,
                    r.pushed_nodes,
                    s.streamed_existence,
                    s.items_allocated,
                    s.queue_wait_ns / 1_000,
                    s.on_worker_ns / 1_000
                );
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}
