//! Property test for the document-cache lifetime contract: random
//! interleavings of LOAD (insert), EVICT, and QUERY over a handful of uris,
//! executed through the same adopt/memo/remount discipline the service's
//! connection handler uses, must always
//!
//! 1. return exactly what an uncached fresh-engine twin returns,
//! 2. keep previously adopted mounts answering (with Arc-identical trees)
//!    after their cache entry is evicted, and
//! 3. keep the store's `mounts_released` / `tree_snapshots` counters equal
//!    to the model's own tallies — no hidden remounts, no hidden copies.
//!
//! A final fan-out evaluates every live document's count on pool workers
//! concurrently, each job adopting the shared snapshot into its own engine.

use proptest::prelude::*;
use std::collections::HashMap;
use std::sync::Arc;
use xmlstore::{parser::ParseOptions, Store, TreeSnapshot};
use xquery::{Engine, EngineOptions, StackPool};

use qsvc::DocCache;

const URIS: [&str; 3] = ["a", "b", "c"];
const COUNT_ITEMS: &str = "count(//item)";

fn doc_xml(version: usize) -> String {
    let mut xml = String::from("<doc>");
    for i in 0..version {
        xml.push_str(&format!("<item n=\"{i}\"/>"));
    }
    xml.push_str("</doc>");
    xml
}

fn parse_snapshot(xml: &str) -> TreeSnapshot {
    let mut scratch = Store::new();
    let doc = scratch
        .parse_str(xml, &ParseOptions::data_oriented())
        .expect("generated XML is well-formed");
    scratch.snapshot(doc).expect("fresh parses land frozen")
}

/// The service connection's mount memo, reproduced for the model.
struct Mounted {
    root: xmlstore::NodeId,
    snapshot: TreeSnapshot,
    version: usize,
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn interleaved_insert_evict_query_matches_uncached_twin(
        ops in prop::collection::vec((0..3usize, 0..3usize, 1..6usize), 1..40)
    ) {
        let mut cache = DocCache::new(1 << 20); // explicit evictions only
        // uri -> version currently visible through the cache (the model).
        let mut model: HashMap<&str, usize> = HashMap::new();
        // The long-lived "connection" engine with its memoised mounts.
        let mut engine = Engine::new();
        let mut mounts: HashMap<&str, Mounted> = HashMap::new();
        let mut expected_released: u64 = 0;
        let mut expected_snapshots: u64 = 0;

        for (kind, uri_ix, version) in ops {
            let uri = URIS[uri_ix];
            match kind {
                // LOAD: parse + insert (replacing any previous version).
                0 => {
                    cache.insert(uri, parse_snapshot(&doc_xml(version)))
                        .expect("small docs always fit the budget");
                    model.insert(uri, version);
                }
                // EVICT: drop the cache's reference only.
                1 => {
                    let had = cache.evict(uri);
                    prop_assert_eq!(had, model.remove(uri).is_some());
                    // An existing mount must keep answering from the evicted
                    // tree: the cache's Arc is gone, the mount's is not.
                    if let Some(m) = mounts.get(uri) {
                        let seq = engine.evaluate_str(COUNT_ITEMS, Some(m.root)).unwrap();
                        prop_assert_eq!(
                            engine.display_sequence(&seq),
                            m.version.to_string(),
                            "evicted uri {} must still answer via its mount", uri
                        );
                        let resnap = engine.store().snapshot(m.root).unwrap();
                        expected_snapshots += 1;
                        prop_assert!(
                            TreeSnapshot::ptr_eq(&resnap, &m.snapshot),
                            "the mount must still be the Arc-identical tree"
                        );
                    }
                }
                // QUERY: resolve through cache + memo, exactly like the
                // service's resolve_doc, and compare to the uncached twin.
                _ => {
                    let cached = cache.get(uri);
                    match (cached, model.get(uri).copied()) {
                        (None, expected) => prop_assert!(
                            expected.is_none(),
                            "cache lost uri {} the model still has", uri
                        ),
                        (Some(snapshot), expected) => {
                            let version = match expected {
                                Some(v) => v,
                                None => return Err(TestCaseError::fail(
                                    format!("cache has uri {uri} the model evicted"))),
                            };
                            // Remount only when the snapshot identity moved.
                            let stale = match mounts.get(uri) {
                                Some(m) => !TreeSnapshot::ptr_eq(&m.snapshot, &snapshot),
                                None => true,
                            };
                            if stale {
                                if let Some(old) = mounts.remove(uri) {
                                    engine.store_mut().release_mount(old.root).unwrap();
                                    expected_released += 1;
                                }
                                let root = engine.store_mut().adopt(&snapshot).unwrap();
                                mounts.insert(uri, Mounted {
                                    root,
                                    snapshot: snapshot.clone(),
                                    version,
                                });
                            }
                            let m = &mounts[uri];
                            let seq = engine.evaluate_str(COUNT_ITEMS, Some(m.root)).unwrap();
                            let via_cache = engine.display_sequence(&seq);

                            // The uncached twin: a throwaway engine parsing
                            // the model's XML from scratch.
                            let mut twin = Engine::new();
                            let doc = twin.load_document(&doc_xml(version)).unwrap();
                            let seq = twin.evaluate_str(COUNT_ITEMS, Some(doc)).unwrap();
                            prop_assert_eq!(
                                via_cache,
                                twin.display_sequence(&seq),
                                "uri {} diverged from the uncached twin", uri
                            );
                        }
                    }
                }
            }
        }

        // Counter consistency: every release and snapshot was ours.
        let stats = engine.store().stats();
        prop_assert_eq!(stats.mounts_released, expected_released);
        prop_assert_eq!(stats.tree_snapshots, expected_snapshots);

        // Concurrent epilogue: every uri still in the cache is evaluated on
        // pool workers in parallel, each job adopting the shared snapshot
        // into its own engine. All must agree with the model.
        let pool = Arc::new(StackPool::new(3));
        let live: Vec<(&str, usize, TreeSnapshot)> = model
            .iter()
            .map(|(&uri, &version)| (uri, version, cache.get(uri).unwrap()))
            .collect();
        let jobs: Vec<_> = live
            .iter()
            .map(|(_, _, snapshot)| {
                let pool = Arc::clone(&pool);
                move || {
                    let mut engine =
                        Engine::with_pool(EngineOptions::default(), pool);
                    let root = engine.store_mut().adopt(snapshot).unwrap();
                    let seq = engine.evaluate_str(COUNT_ITEMS, Some(root)).unwrap();
                    engine.display_sequence(&seq)
                }
            })
            .collect();
        let results = pool.run_batch(jobs);
        for ((uri, version, _), got) in live.iter().zip(results) {
            prop_assert_eq!(
                got,
                version.to_string(),
                "concurrent evaluation of uri {} disagreed", uri
            );
        }
    }
}
