//! The two service caches: compiled plans and parsed documents.
//!
//! Both are deliberately simple — a `HashMap` plus a logical clock, with
//! O(n) LRU eviction scans — because their capacities are service-sized
//! (hundreds of plans, a byte budget of documents), not OS-page-cache-sized.
//! What matters is the *keying and lifetime contract*:
//!
//! * A plan is keyed by the **query text AND the full
//!   [`EngineOptions::cache_key`](xquery::EngineOptions) fingerprint**. Two
//!   tenants submitting byte-identical text under different engine
//!   configurations (quirks mode, optimiser toggles) get two
//!   plans. Sharing across configs is how a quirks tenant's dead-code
//!   elimination would leak into a strict tenant's results.
//! * A document entry owns one [`TreeSnapshot`] `Arc`. Eviction drops *the
//!   cache's* reference only — engines that adopted the snapshot keep the
//!   record table alive through their own mounts, so evicting a document
//!   can never invalidate a snapshot a running query still holds. The
//!   in-flight query finishes against the exact tree it started with; only
//!   *future* lookups miss.

use std::collections::HashMap;
use std::sync::Arc;
use xmlstore::TreeSnapshot;
use xquery::CompiledQuery;

/// LRU cache of compiled plans, keyed `(query text, options fingerprint)`.
///
/// Entries are grouped by text, and each text holds one plan per
/// fingerprint it was compiled under (usually one). A lookup borrows both
/// halves, so a hit builds no key. The text is client-controlled and
/// unbounded, so the cache owns it and eviction frees it; interning it
/// would leak every distinct query a client ever sent into the global
/// never-freed interner. The fingerprint is the connection's, shared.
pub struct PlanCache {
    capacity: usize,
    tick: u64,
    len: usize,
    entries: HashMap<String, Vec<PlanEntry>>,
    pub hits: u64,
    pub misses: u64,
    pub evictions: u64,
}

struct PlanEntry {
    fingerprint: Arc<str>,
    plan: CompiledQuery,
    last_used: u64,
}

impl PlanCache {
    /// A cache holding at most `capacity` plans (at least one).
    pub fn new(capacity: usize) -> PlanCache {
        PlanCache {
            capacity: capacity.max(1),
            tick: 0,
            len: 0,
            entries: HashMap::new(),
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    fn entry_mut(&mut self, text: &str, fingerprint: &str) -> Option<&mut PlanEntry> {
        self.entries
            .get_mut(text)?
            .iter_mut()
            .find(|e| &*e.fingerprint == fingerprint)
    }

    /// Looks a plan up, counting a hit or a miss and refreshing recency.
    /// The returned `CompiledQuery` is two `Arc` bumps.
    pub fn get(&mut self, text: &str, fingerprint: &str) -> Option<CompiledQuery> {
        self.tick += 1;
        let tick = self.tick;
        let plan = self.entry_mut(text, fingerprint).map(|e| {
            e.last_used = tick;
            e.plan.clone()
        });
        match plan {
            Some(_) => self.hits += 1,
            None => self.misses += 1,
        }
        plan
    }

    /// Inserts a plan, evicting the least-recently-used entry when full.
    pub fn insert(&mut self, text: &str, fingerprint: Arc<str>, plan: CompiledQuery) {
        self.tick += 1;
        let tick = self.tick;
        if let Some(e) = self.entry_mut(text, &fingerprint) {
            e.plan = plan;
            e.last_used = tick;
            return;
        }
        if self.len >= self.capacity {
            self.evict_coldest();
        }
        self.len += 1;
        let entry = PlanEntry {
            fingerprint,
            plan,
            last_used: tick,
        };
        match self.entries.get_mut(text) {
            Some(plans) => plans.push(entry),
            None => {
                self.entries.insert(text.to_string(), vec![entry]);
            }
        }
    }

    fn evict_coldest(&mut self) {
        let Some((text, index)) = self
            .entries
            .iter()
            .flat_map(|(text, plans)| plans.iter().enumerate().map(move |(i, e)| (e, text, i)))
            .min_by_key(|(e, _, _)| e.last_used)
            .map(|(_, text, i)| (text.clone(), i))
        else {
            return;
        };
        let plans = self
            .entries
            .get_mut(&text)
            .expect("the victim's text is cached");
        plans.swap_remove(index);
        if plans.is_empty() {
            self.entries.remove(&text);
        }
        self.len -= 1;
        self.evictions += 1;
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// Why a document was refused admission.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AdmitError {
    /// The document alone exceeds the whole cache budget; admitting it
    /// would evict everything and still not fit.
    TooLarge { bytes: usize, budget: usize },
}

impl std::fmt::Display for AdmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AdmitError::TooLarge { bytes, budget } => write!(
                f,
                "document of {bytes} bytes exceeds the {budget}-byte cache budget"
            ),
        }
    }
}

/// Byte-budgeted, admission-controlled cache of parsed documents as
/// [`TreeSnapshot`]s.
pub struct DocCache {
    budget: usize,
    used: usize,
    tick: u64,
    entries: HashMap<String, DocEntry>,
    pub hits: u64,
    pub misses: u64,
    pub evictions: u64,
    pub rejections: u64,
}

struct DocEntry {
    snapshot: TreeSnapshot,
    bytes: usize,
    last_used: u64,
}

impl DocCache {
    /// A cache holding at most `budget_bytes` of retained document bytes
    /// (as accounted by [`TreeSnapshot::byte_size`]).
    pub fn new(budget_bytes: usize) -> DocCache {
        DocCache {
            budget: budget_bytes,
            used: 0,
            tick: 0,
            entries: HashMap::new(),
            hits: 0,
            misses: 0,
            evictions: 0,
            rejections: 0,
        }
    }

    /// Admits `snapshot` under `uri`, evicting least-recently-used entries
    /// until it fits; refuses documents larger than the whole budget.
    /// Returns the byte size accounted to the entry. Replacing an existing
    /// uri releases the old entry's bytes first.
    pub fn insert(&mut self, uri: &str, snapshot: TreeSnapshot) -> Result<usize, AdmitError> {
        let bytes = snapshot.byte_size();
        if bytes > self.budget {
            self.rejections += 1;
            return Err(AdmitError::TooLarge {
                bytes,
                budget: self.budget,
            });
        }
        if let Some(old) = self.entries.remove(uri) {
            self.used -= old.bytes;
        }
        while self.used + bytes > self.budget {
            let Some(victim) = self
                .entries
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone())
            else {
                break;
            };
            self.evict(&victim);
        }
        self.tick += 1;
        self.used += bytes;
        self.entries.insert(
            uri.to_string(),
            DocEntry {
                snapshot,
                bytes,
                last_used: self.tick,
            },
        );
        Ok(bytes)
    }

    /// Looks a document up, counting hit/miss and refreshing recency. The
    /// returned snapshot is an `Arc` bump — the caller's copy survives any
    /// later eviction of the entry.
    pub fn get(&mut self, uri: &str) -> Option<TreeSnapshot> {
        self.tick += 1;
        match self.entries.get_mut(uri) {
            Some(e) => {
                e.last_used = self.tick;
                self.hits += 1;
                Some(e.snapshot.clone())
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Drops the cache's reference to `uri`. Outstanding snapshots and
    /// adopted mounts are untouched.
    pub fn evict(&mut self, uri: &str) -> bool {
        match self.entries.remove(uri) {
            Some(e) => {
                self.used -= e.bytes;
                self.evictions += 1;
                true
            }
            None => false,
        }
    }

    pub fn used_bytes(&self) -> usize {
        self.used
    }

    /// Bytes accounted to `uri`, `None` when it is not resident. Does not
    /// touch recency — STATS reads must not keep a document alive.
    pub fn bytes_of(&self, uri: &str) -> Option<usize> {
        self.entries.get(uri).map(|e| e.bytes)
    }

    pub fn budget_bytes(&self) -> usize {
        self.budget
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The uris currently cached (test/diagnostic use).
    pub fn uris(&self) -> Vec<String> {
        let mut v: Vec<String> = self.entries.keys().cloned().collect();
        v.sort();
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xmlstore::{parser::ParseOptions, Store};
    use xquery::Engine;

    fn snap(xml: &str) -> TreeSnapshot {
        let mut s = Store::new();
        let doc = s.parse_str(xml, &ParseOptions::data_oriented()).unwrap();
        s.snapshot(doc).expect("parses land frozen")
    }

    #[test]
    fn plan_cache_keys_on_text_and_fingerprint() {
        let e = Engine::new();
        let plan = e.compile("1 + 1").unwrap();
        let mut c = PlanCache::new(8);
        c.insert("1 + 1", Arc::from("cfg-a"), plan.clone());
        assert!(c.get("1 + 1", "cfg-a").is_some());
        assert!(
            c.get("1 + 1", "cfg-b").is_none(),
            "same text under another config must MISS"
        );
        assert_eq!((c.hits, c.misses), (1, 1));
        c.insert("1 + 1", Arc::from("cfg-b"), plan.clone());
        c.insert("1 + 1", Arc::from("cfg-b"), plan);
        assert_eq!(c.len(), 2, "one plan per (text, fingerprint)");
        assert!(c.get("1 + 1", "cfg-b").is_some());
    }

    #[test]
    fn plan_cache_evicts_the_coldest() {
        let e = Engine::new();
        let plan = e.compile("1").unwrap();
        let f: Arc<str> = Arc::from("f");
        let mut c = PlanCache::new(3);
        c.insert("a", Arc::clone(&f), plan.clone());
        c.insert("b", Arc::clone(&f), plan.clone());
        c.insert("b", Arc::from("g"), plan.clone());
        assert!(c.get("a", "f").is_some()); // refresh a; (b, f) is now coldest
        c.insert("d", Arc::clone(&f), plan.clone());
        assert_eq!(c.len(), 3);
        assert!(c.get("a", "f").is_some());
        assert!(c.get("b", "f").is_none(), "(b, f) was the LRU victim");
        assert!(c.get("b", "g").is_some(), "b's other plan stays");
        assert_eq!(c.evictions, 1);
    }

    #[test]
    fn doc_cache_admission_and_byte_eviction() {
        let small = snap("<r><a/></r>");
        let unit = small.byte_size();
        let mut c = DocCache::new(unit * 2 + unit / 2); // room for two
        c.insert("a", small.clone()).unwrap();
        c.insert("b", snap("<r><b/></r>")).unwrap();
        assert_eq!(c.len(), 2);
        let _ = c.get("a"); // refresh: b is coldest
        c.insert("c", snap("<r><c/></r>")).unwrap();
        assert_eq!(c.len(), 2);
        assert!(c.get("b").is_none(), "b evicted to make room");
        assert!(c.used_bytes() <= c.budget_bytes());

        // A document bigger than the whole budget is refused outright.
        let mut tiny = DocCache::new(8);
        let err = tiny.insert("big", small).unwrap_err();
        assert!(matches!(err, AdmitError::TooLarge { .. }));
        assert_eq!(tiny.rejections, 1);
        assert_eq!(tiny.len(), 0);
    }

    #[test]
    fn eviction_cannot_invalidate_an_outstanding_snapshot() {
        let mut c = DocCache::new(1 << 20);
        c.insert("doc", snap("<r><keep/></r>")).unwrap();
        let held = c.get("doc").unwrap();

        // Adopt into an engine (the per-request mount), then evict.
        let mut engine = Engine::new();
        let root = engine.store_mut().adopt(&held).unwrap();
        assert!(c.evict("doc"));
        assert!(c.get("doc").is_none());

        // The mount still answers from the same shared records.
        let out = engine.evaluate_str("count(//keep)", Some(root)).unwrap();
        assert_eq!(engine.display_sequence(&out), "1");
        let resnap = engine.store().snapshot(root).unwrap();
        assert!(TreeSnapshot::ptr_eq(&held, &resnap));
    }
}
