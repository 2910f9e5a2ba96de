//! End-to-end tests for the query service: the seven-config differential
//! (no cross-config plan leakage), the hot-set hit rate, error fidelity
//! across the socket, document reload/remount, and a multi-client smoke
//! test with clean shutdown.

use qsvc::{Client, Service, ServiceConfig};
use xquery::{DupAttrPolicy, Engine, EngineOptions};

const DOC: &str = r#"<doc><item n="1"/><item n="2"/><item n="3"/></doc>"#;

fn test_config() -> ServiceConfig {
    ServiceConfig {
        eval_workers: 2,
        plan_cache_capacity: 128,
        doc_cache_bytes: 16 * 1024 * 1024,
        enable_crash_verb: true,
        ..Default::default()
    }
}

/// One `OPTION name value` request.
type OptionSetting = (&'static str, &'static str);

/// The same eight configurations the engine's differential suite runs:
/// each as (name, OPTION verb settings, locally-built equivalent).
fn engine_configs() -> Vec<(String, Vec<OptionSetting>, EngineOptions)> {
    let bases = [
        (
            "standard",
            vec![("preset", "default"), ("dup_attr_policy", "error")],
            EngineOptions {
                dup_attr_policy: DupAttrPolicy::Error,
                ..Default::default()
            },
        ),
        (
            "galax-quirks",
            vec![("preset", "galax")],
            EngineOptions::galax(),
        ),
        (
            "default",
            vec![("preset", "default")],
            EngineOptions::default(),
        ),
        (
            "unoptimized",
            vec![("preset", "default"), ("optimize", "false")],
            EngineOptions {
                optimize: false,
                ..Default::default()
            },
        ),
    ];
    bases
        .into_iter()
        .flat_map(|(name, settings, options)| {
            [true, false].map(|runtime_opt| {
                let mut settings = settings.clone();
                if !runtime_opt {
                    settings.push(("runtime_opt", "false"));
                }
                let options = EngineOptions {
                    runtime_opt,
                    ..options.clone()
                };
                let state = if runtime_opt { "on" } else { "off" };
                (format!("{name}-runtime-{state}"), settings, options)
            })
        })
        .collect()
}

/// Corpus: (query, needs the document?). The duplicate-attribute
/// constructor separates the four dup policies; the bare `.` with no
/// context item reproduces the positionless Galax `$glx:dot` quirk against
/// positioned standard errors; `1 +` is a compile error with a position.
fn corpus() -> Vec<(&'static str, bool)> {
    vec![
        ("count(//item)", true),
        ("for $i in //item return string($i/@n)", true),
        ("sum(for $i in //item return xs:integer($i/@n))", true),
        ("<e a=\"1\">{attribute a {\"2\"}}</e>", false),
        (".", false),
        ("1 +", false),
    ]
}

/// What one query produced, comparable across service and fresh engine.
#[derive(Debug, PartialEq, Eq)]
enum Outcome {
    Ok(String),
    Err {
        code: String,
        position: Option<(u32, u32)>,
        message: String,
    },
}

fn fresh_outcome(options: &EngineOptions, query: &str, with_doc: bool) -> Outcome {
    let mut engine = Engine::with_options(options.clone());
    let context = with_doc.then(|| engine.load_document(DOC).expect("test doc parses"));
    match engine.evaluate_str(query, context) {
        Ok(seq) => Outcome::Ok(engine.display_sequence(&seq)),
        Err(e) => Outcome::Err {
            code: e.code.to_string(),
            position: e.position,
            message: e.message.clone(),
        },
    }
}

fn service_outcome(client: &mut Client, query: &str, with_doc: bool) -> Outcome {
    let uri = if with_doc { "doc" } else { "-" };
    match client.query(uri, query) {
        Ok(text) => Outcome::Ok(text),
        Err(e) => {
            let we = e
                .service()
                .unwrap_or_else(|| panic!("transport error for {query:?}: {e}"));
            Outcome::Err {
                code: we.code.clone(),
                position: we.position,
                message: we.message.clone(),
            }
        }
    }
}

/// Tentpole differential: every corpus query under every configuration must
/// come back from the service byte-identical (result or error — code,
/// position, message) to a fresh single-use engine. This is the direct
/// "no cross-config plan leakage" proof: the same query texts flow through
/// the one shared plan cache under all eight fingerprints.
#[test]
fn every_config_differential_through_the_service() {
    let service = Service::spawn(test_config()).unwrap();
    let mut loader = Client::connect(service.addr(), Some("loader")).unwrap();
    loader.load("doc", DOC).unwrap();

    for (name, settings, options) in engine_configs() {
        let mut client = Client::connect(service.addr(), Some(&name)).unwrap();
        let mut fingerprint = String::new();
        for (k, v) in settings {
            fingerprint = client.set_option(k, v).unwrap();
        }
        assert_eq!(
            fingerprint,
            options.cache_key(),
            "config {name}: OPTION sequence must land on the local fingerprint"
        );
        for (query, with_doc) in corpus() {
            let via_service = service_outcome(&mut client, query, with_doc);
            let via_fresh = fresh_outcome(&options, query, with_doc);
            assert_eq!(
                via_service, via_fresh,
                "config {name}, query {query:?}: service and fresh engine disagree"
            );
        }
    }

    // Second pass: everything compilable is now cached, so misses may only
    // grow by the uncacheable compile error (one per config), while every
    // other probe hits.
    let (_, misses_before, _, entries_before) = service.plan_cache_counters();
    for (name, settings, _) in engine_configs() {
        let mut client = Client::connect(service.addr(), Some(&name)).unwrap();
        for (k, v) in settings {
            client.set_option(k, v).unwrap();
        }
        for (query, with_doc) in corpus() {
            let _ = service_outcome(&mut client, query, with_doc);
        }
    }
    let (_, misses_after, _, entries_after) = service.plan_cache_counters();
    assert_eq!(
        entries_after, entries_before,
        "the second pass may not create new plans"
    );
    assert_eq!(
        misses_after - misses_before,
        8,
        "only the compile-error query (never cached) may miss again, once per config"
    );
    // Five cacheable queries under eight mutually distinct fingerprints.
    assert_eq!(entries_after, 5 * 8, "one plan per (text, config) pair");
}

/// A default service's pool holds the default `recursion_limit`: a query
/// recursing past it gets the structured error with its call site, and the
/// connection answers the next query.
#[test]
fn default_service_answers_a_recursion_past_the_limit() {
    let service = Service::spawn(ServiceConfig::default()).unwrap();
    let mut client = Client::connect(service.addr(), Some("deep")).unwrap();
    let query = "declare function local:f($n) { if ($n = 0) then 0 else local:f($n - 1) };
                 local:f(3000)";
    let err = client.query("-", query).unwrap_err();
    let err = err.service().expect("structured error, not a dead socket");
    assert_eq!(err.code, "LOPS0000");
    assert_eq!(err.message, "recursion limit of 2048 exceeded");
    assert!(err.position.is_some(), "the error keeps its call site");
    assert_eq!(client.query("-", "1+1").unwrap(), "2");
}

/// The worker stack is sized for the default `recursion_limit`, so
/// `OPTION` refuses a higher one and keeps the connection's options.
#[test]
fn recursion_limit_above_the_default_is_refused() {
    let service = Service::spawn(test_config()).unwrap();
    let mut client = Client::connect(service.addr(), Some("limit")).unwrap();
    let err = client.set_option("recursion_limit", "2049").unwrap_err();
    let err = err.service().expect("structured error, not a dead socket");
    assert_eq!(err.code, "PROTO");
    assert!(err.message.contains("2049"), "{err:?}");
    assert_eq!(
        client.set_option("recursion_limit", "2048").unwrap(),
        EngineOptions::default().cache_key()
    );
}

/// OPTION answers the connection engine's fingerprint, byte for byte as
/// pinned here, and the plan cache keys on that same fingerprint: a
/// connection that reaches the default options by another route shares the
/// default connection's plan, and one on other options does not.
#[test]
fn option_replies_and_plan_keys_are_the_engine_fingerprint() {
    let service = Service::spawn(test_config()).unwrap();
    let default_key = "gq=0 opt=1 dup=KeepFirst rec=2048 st=0 ropt=1";
    let mut other = Client::connect(service.addr(), Some("other")).unwrap();
    assert_eq!(
        other.set_option("preset", "galax").unwrap(),
        "gq=1 opt=1 dup=KeepBoth rec=2048 st=0 ropt=1"
    );
    assert_eq!(
        other.set_option("recursion_limit", "64").unwrap(),
        "gq=1 opt=1 dup=KeepBoth rec=64 st=0 ropt=1"
    );
    assert_eq!(
        other.set_option("runtime_opt", "false").unwrap(),
        "gq=1 opt=1 dup=KeepBoth rec=64 st=0 ropt=0"
    );
    assert_eq!(EngineOptions::default().cache_key(), default_key);
    let mut plain = Client::connect(service.addr(), Some("plain")).unwrap();
    let mut rerouted = Client::connect(service.addr(), Some("rerouted")).unwrap();
    rerouted.set_option("static_typing", "true").unwrap();
    assert_eq!(
        rerouted.set_option("static_typing", "false").unwrap(),
        default_key
    );

    let text = "string-join(('a', 'b'), '-')";
    for client in [&mut other, &mut plain, &mut rerouted] {
        assert_eq!(client.query("-", text).unwrap(), "a-b");
    }
    let (hits, misses, _, entries) = service.plan_cache_counters();
    assert_eq!(
        (hits, misses, entries),
        (1, 2, 2),
        "one plan per fingerprint"
    );
    for tenant in ["other", "plain"] {
        assert_eq!(
            service.tenant_stats(tenant).unwrap().plan_misses,
            1,
            "{tenant}"
        );
    }
    assert_eq!(service.tenant_stats("rerouted").unwrap().plan_hits, 1);
}

/// The paper-motivated number: a service looping over a small hot set of
/// prepared statements must answer >90% of plan lookups from cache.
#[test]
fn hot_set_plan_hit_rate_exceeds_90_percent() {
    let service = Service::spawn(test_config()).unwrap();
    let mut client = Client::connect(service.addr(), Some("hot")).unwrap();
    client.load("doc", DOC).unwrap();
    let hot: Vec<String> = (0..8).map(|k| format!("count(//item) + {k}")).collect();
    for _round in 0..15 {
        for q in &hot {
            client.query("doc", q).unwrap();
        }
    }
    let stats = service.tenant_stats("hot").expect("tenant exists");
    let rate = stats.plan_hit_rate().expect("lookups happened");
    assert!(
        rate > 0.9,
        "hot-set hit rate {rate} with {} hits / {} misses",
        stats.plan_hits,
        stats.plan_misses
    );
    assert_eq!(stats.plan_misses, 8, "one compile per distinct hot query");

    // The wire-visible view agrees with the in-process one.
    let wire = client.stats().unwrap();
    assert_eq!(wire["plan_hits"], stats.plan_hits);
    assert_eq!(wire["plan_misses"], stats.plan_misses);
}

/// Error fidelity across the socket: compile errors, mid-pull runtime
/// errors, batch job prefixes, and pool-worker panics all arrive as
/// structured errors with their positions intact — never a dead socket.
#[test]
fn errors_cross_the_socket_with_position_and_tag() {
    let service = Service::spawn(test_config()).unwrap();
    let mut client = Client::connect(service.addr(), Some("errs")).unwrap();
    let bad_doc = r#"<doc><item n="1"/><item n="x"/></doc>"#;
    client.load("bad", bad_doc).unwrap();

    // Compile error: position must match a fresh engine's exactly.
    let options = EngineOptions::default();
    let fresh = {
        let engine = Engine::with_options(options.clone());
        engine.compile("1 +").unwrap_err()
    };
    let via = client.query("-", "1 +").unwrap_err();
    let via = via.service().expect("structured error");
    assert_eq!(via.code, fresh.code.to_string());
    assert_eq!(via.position, fresh.position);
    assert!(via.position.is_some(), "compile errors carry a position");
    assert_eq!(via.message, fresh.message);

    // Mid-pull runtime error: the cast fails on the second streamed item.
    let streamed = "sum(for $i in //item return xs:integer($i/@n))";
    let fresh = {
        let mut engine = Engine::with_options(options.clone());
        let doc = engine.load_document(bad_doc).unwrap();
        engine.evaluate_str(streamed, Some(doc)).unwrap_err()
    };
    let via = client.query("bad", streamed).unwrap_err();
    let via = via.service().expect("structured error");
    assert_eq!(via.code, fresh.code.to_string());
    assert_eq!(via.position, fresh.position);
    assert_eq!(via.message, fresh.message);

    // Unknown document is its own error code, and the connection survives
    // every one of these.
    let via = client.query("nope", "1").unwrap_err();
    assert_eq!(via.service().unwrap().code, "NODOC");

    // Batch: the failing job's error gains a `job N:` prefix, keeps its
    // position, and its neighbours succeed.
    let results = client
        .batch("bad", &["count(//item)", "1 +", "string(//item[1]/@n)"])
        .unwrap();
    assert_eq!(results.len(), 3);
    assert_eq!(results[0].as_ref().unwrap(), "2");
    assert_eq!(results[2].as_ref().unwrap(), "1");
    let job_err = results[1].as_ref().unwrap_err();
    assert!(
        job_err.message.starts_with("job 1: "),
        "batch error message {:?} must name its job",
        job_err.message
    );
    assert!(job_err.position.is_some(), "batch error keeps its position");

    // A worker panic arrives as ERR PANIC with the payload text, and the
    // pool (and connection) survive to serve the next request.
    let crash = client.crash("kaboom for the test").unwrap();
    assert_eq!(crash.code, "PANIC");
    assert!(crash.message.contains("kaboom for the test"));
    assert_eq!(client.query("bad", "count(//item)").unwrap(), "2");
}

/// An `ERR` payload exactly as it crossed the wire.
fn wire_text(e: &qsvc::WireError) -> String {
    String::from_utf8(e.encode()).expect("ERR payloads are UTF-8")
}

/// BATCH is a loop over the QUERY path: on one connection, every job
/// answers byte-for-byte what QUERY answers for the same text and uri,
/// apart from its `job N: ` prefix. The cases: a value, `doc()` of a uri
/// this connection has resolved, a compile error and a mid-pull runtime
/// error, both with their positions.
#[test]
fn batch_jobs_answer_what_query_answers() {
    let service = Service::spawn(test_config()).unwrap();
    let mut client = Client::connect(service.addr(), Some("same")).unwrap();
    client.load("u", DOC).unwrap();
    client
        .load("bad", r#"<doc><item n="1"/><item n="x"/></doc>"#)
        .unwrap();
    let cases: [(&str, &[&str]); 2] = [
        ("u", &["count(//item)", "count(doc('u')//item)", "1 +"]),
        (
            "bad",
            &[
                "sum(for $i in //item return xs:integer($i/@n))",
                "count(doc('u')//item)",
            ],
        ),
    ];
    for (uri, texts) in cases {
        let jobs = client.batch(uri, texts).unwrap();
        assert_eq!(jobs.len(), texts.len());
        for (i, (text, job)) in texts.iter().zip(jobs).enumerate() {
            let job = job.map_err(|mut e| {
                e.message = e
                    .message
                    .strip_prefix(&format!("job {i}: "))
                    .unwrap_or_else(|| panic!("{:?} lacks its job prefix", e.message))
                    .to_string();
                wire_text(&e)
            });
            let query = client.query(uri, text).map_err(|e| {
                wire_text(
                    e.service()
                        .unwrap_or_else(|| panic!("transport error for {text:?}: {e}")),
                )
            });
            assert_eq!(job, query, "uri {uri}, job {i}: {text:?}");
        }
    }
}

/// EXPLAIN rides the same cached-plan path as QUERY.
#[test]
fn explain_uses_the_plan_cache() {
    let service = Service::spawn(test_config()).unwrap();
    let mut client = Client::connect(service.addr(), Some("exp")).unwrap();
    let text = "for $i in 1 to 3 return $i * $i";
    let explanation = client.explain(text).unwrap();
    assert!(!explanation.is_empty());
    let (hits_before, _, _, _) = service.plan_cache_counters();
    assert_eq!(client.query("-", text).unwrap(), "1 4 9");
    assert_eq!(client.explain(text).unwrap(), explanation);
    let (hits_after, _, _, _) = service.plan_cache_counters();
    assert_eq!(hits_after - hits_before, 2, "QUERY then EXPLAIN both hit");
}

/// Re-LOADing a uri replaces the snapshot; the connection's memoised mount
/// notices via Arc identity and remounts, and an options change remounts
/// from the cache as well.
#[test]
fn reload_and_option_change_remount_correctly() {
    let service = Service::spawn(test_config()).unwrap();
    let mut client = Client::connect(service.addr(), Some("re")).unwrap();
    client.load("doc", DOC).unwrap();
    assert_eq!(client.query("doc", "count(//item)").unwrap(), "3");
    client
        .load(
            "doc",
            r#"<doc><item n="1"/><item n="2"/><item n="3"/><item n="4"/></doc>"#,
        )
        .unwrap();
    assert_eq!(
        client.query("doc", "count(//item)").unwrap(),
        "4",
        "the stale mount must be replaced after a re-LOAD"
    );
    // The cursor runtime has no option of its own: `runtime_opt` owns it.
    let gone = client.set_option("stream", "false").unwrap_err();
    assert_eq!(gone.service().expect("structured error").code, "PROTO");
    client.set_option("runtime_opt", "false").unwrap();
    assert_eq!(
        client.query("doc", "count(//item)").unwrap(),
        "4",
        "an engine rebuilt by OPTION re-adopts from the cache"
    );
    // doc() by uri resolves to the same mounted tree as the context node.
    assert_eq!(
        client.query("doc", "count(doc(\"doc\")//item)").unwrap(),
        "4"
    );
}

/// The store-reset guard must not fire between evaluation and result
/// serialization: a node-returning query's sequence points into the store
/// the reset would drop. With `store_reset_slots: 1` every document query
/// trips the guard, so each request both serializes correctly against its
/// own store AND starts the next request on a fresh engine.
#[test]
fn store_reset_guard_never_outruns_serialization() {
    let config = ServiceConfig {
        store_reset_slots: 1,
        ..test_config()
    };
    let service = Service::spawn(config).unwrap();
    let mut client = Client::connect(service.addr(), Some("reset")).unwrap();
    client.load("doc", DOC).unwrap();
    for _ in 0..5 {
        // Node-returning: the sequence holds NodeIds into the engine store.
        assert_eq!(client.query("doc", "//item[1]/@n").unwrap(), "n=\"1\"");
        assert_eq!(client.query("doc", "string(//item[3]/@n)").unwrap(), "3");
    }
    // The engine was rebuilt between requests (mounts re-adopt from the
    // cache), and errors still flow normally on the reset path.
    let err = client.query("doc", "1 +").unwrap_err();
    assert!(err.service().is_some());
    assert_eq!(client.query("doc", "count(//item)").unwrap(), "3");
}

/// Finished connections must not leak their shutdown handle (an fd and a
/// table entry) for the life of the server.
#[test]
fn finished_connections_are_pruned() {
    let service = Service::spawn(test_config()).unwrap();
    for i in 0..4 {
        let tenant = format!("churn-{i}");
        let mut client = Client::connect(service.addr(), Some(&tenant)).unwrap();
        assert_eq!(client.query("-", "1 + 1").unwrap(), "2");
        client.quit().unwrap();
    }
    // Handler threads remove their entry just after the socket closes;
    // give them a moment.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
    while service.live_connections() > 0 && std::time::Instant::now() < deadline {
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    assert_eq!(
        service.live_connections(),
        0,
        "closed connections must leave the tracking table"
    );
}

/// Smoke: several clients with mixed workloads in parallel, then a clean
/// shutdown that severs live connections and joins every thread.
#[test]
fn smoke_mixed_clients_and_clean_shutdown() {
    let mut service = Service::spawn(test_config()).unwrap();
    let addr = service.addr();
    let workers: Vec<_> = (0..6)
        .map(|i| {
            std::thread::spawn(move || {
                let tenant = format!("smoke-{i}");
                let mut client = Client::connect(addr, Some(&tenant)).unwrap();
                let uri = format!("doc-{}", i % 2);
                client.load(&uri, DOC).unwrap();
                for round in 0..20 {
                    match round % 4 {
                        0 => {
                            assert_eq!(client.query(&uri, "count(//item)").unwrap(), "3");
                        }
                        1 => {
                            let results = client
                                .batch(&uri, &["count(//item)", "string(//item[2]/@n)"])
                                .unwrap();
                            assert_eq!(results[0].as_ref().unwrap(), "3");
                            assert_eq!(results[1].as_ref().unwrap(), "2");
                        }
                        2 => {
                            assert!(!client.explain("count(//item)").unwrap().is_empty());
                        }
                        _ => {
                            let stats = client.stats().unwrap();
                            assert!(stats["queries"] >= 1);
                        }
                    }
                }
                client.quit().unwrap();
            })
        })
        .collect();
    for w in workers {
        w.join().unwrap();
    }
    let (hits, misses, _, _) = service.plan_cache_counters();
    assert!(hits > 0 && misses > 0);
    // One client is still connected when shutdown fires; it must not hang.
    let _lingering = Client::connect(addr, Some("lingering")).unwrap();
    service.shutdown();
    service.shutdown(); // idempotent
}

/// Satellite observability: an eviction forced by a tenant's LOAD is
/// charged to that tenant, and `doc_used_bytes` tracks what is *still*
/// resident for it — both in-process and across the STATS wire frame.
#[test]
fn doc_eviction_counters_cross_the_wire() {
    // Measure one document's snapshot size the same way the server will,
    // then budget the cache so two fit only by evicting.
    let big: String = {
        let items: String = (0..200).map(|i| format!(r#"<item n="{i}"/>"#)).collect();
        format!("<doc>{items}</doc>")
    };
    let doc_bytes = {
        let mut s = xmlstore::Store::new();
        let doc = s
            .parse_str(&big, &xmlstore::parser::ParseOptions::data_oriented())
            .unwrap();
        s.snapshot(doc).unwrap().byte_size()
    };
    let config = ServiceConfig {
        doc_cache_bytes: doc_bytes + doc_bytes / 2,
        ..test_config()
    };
    let mut service = Service::spawn(config).unwrap();
    let mut client = Client::connect(service.addr(), Some("evictor")).unwrap();

    let loaded = client.load("a", &big).unwrap();
    assert_eq!(loaded, doc_bytes, "LOAD reply is the accounted size");
    client.load("b", &big).unwrap(); // forces "a" out

    let wire = client.stats().unwrap();
    assert_eq!(wire["doc_evictions"], 1, "the LOAD of b evicted a");
    assert_eq!(
        wire["doc_used_bytes"], doc_bytes as u64,
        "only b still counts against the tenant"
    );
    assert_eq!(wire["global.doc_cache.evictions"], 1);
    assert_eq!(wire["global.doc_cache.used_bytes"], doc_bytes as u64);

    // The in-process accessor agrees with the wire view.
    let t = service.tenant_stats("evictor").expect("tenant exists");
    assert_eq!(t.doc_evictions, 1);
    assert_eq!(t.doc_used_bytes, doc_bytes as u64);

    // The evicted uri is a miss now; the resident one still hits and the
    // eviction counters do not move.
    assert!(client.query("a", "count(//item)").is_err());
    assert_eq!(client.query("b", "count(//item)").unwrap(), "200");
    let wire = client.stats().unwrap();
    assert_eq!(wire["doc_evictions"], 1);
    assert_eq!(wire["doc_misses"], 1);
    assert!(wire["doc_hits"] >= 1);
    service.shutdown();
}
