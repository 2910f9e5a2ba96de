//! The query service proper: a TCP accept loop, one handler thread per
//! connection, and the shared state (worker pool, plan cache, document
//! cache, tenant stats) that turns a pile of one-shot engines into a
//! long-running server.
//!
//! ## Verbs
//!
//! | request                     | payload          | response payload        |
//! |-----------------------------|------------------|-------------------------|
//! | `HELLO <tenant>`            | —                | —                       |
//! | `OPTION <name> <value>`     | —                | new options fingerprint |
//! | `LOAD <uri>`                | XML document     | accounted byte size     |
//! | `QUERY <uri\|->`            | query text       | serialized result       |
//! | `EXPLAIN <uri\|->`          | query text       | plan explanation        |
//! | `BATCH <count> <uri\|->`    | query sub-frames | `count` response frames |
//! | `STATS`                     | —                | `key value` lines       |
//! | `CRASH`                     | panic message    | (always `ERR PANIC`)    |
//! | `QUIT`                      | —                | —                       |
//!
//! Responses are `OK` or `ERR` frames; a per-request error NEVER terminates
//! the connection. `CRASH` exists only when
//! [`ServiceConfig::enable_crash_verb`] is set — it proves the pool-worker
//! panic path reaches the socket as a structured error instead of killing
//! the server.
//!
//! ## The cache seams
//!
//! Every QUERY/EXPLAIN/BATCH job resolves its plan through the shared
//! [`PlanCache`], keyed `(query text, EngineOptions::cache_key())` — never
//! text alone. The connection computes its fingerprint once per engine, so
//! a lookup formats nothing and a hit builds no key. Documents resolve
//! through the shared [`DocCache`] and are mounted into the connection's
//! engine via [`Store::adopt`]; a per-uri
//! memo keeps the mount alive across requests and is invalidated by
//! snapshot identity ([`TreeSnapshot::ptr_eq`]), so a re-`LOAD` of a uri is
//! picked up while an unchanged document costs nothing. Evicting a cache
//! entry only drops the cache's `Arc`; mounts and in-flight snapshots keep
//! the tree alive (see [`crate::cache`]).
//!
//! QUERY and every BATCH job take one evaluate step on the connection's
//! engine; a BATCH shares one document resolve and one store-reset check.
//! `doc()` sees every uri this connection has resolved as a context.
//!
//! A request counts what it does (queries, plan and document hits, errors,
//! evaluation counters) on the connection and folds the lot into its
//! tenant's stats with one lock as it ends, before the reply is written.

use std::collections::HashMap;
use std::io::{self, BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use xmlstore::parser::ParseOptions;
use xmlstore::{NodeId, Store, TreeSnapshot};
use xquery::engine::MAX_RECURSION_LIMIT;
use xquery::{CompiledQuery, DupAttrPolicy, Engine, EngineOptions, EvalStats, StackPool};

use crate::cache::{DocCache, PlanCache};
use crate::proto::{read_frame, write_frame, Frame, WireError};
use crate::stats::TenantStats;

/// Service sizing and feature gates.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Workers in the shared big-stack evaluation pool, which is also the
    /// cap on evaluations in flight across all connections, inline ones
    /// included.
    pub eval_workers: usize,
    /// Plan-cache capacity in entries.
    pub plan_cache_capacity: usize,
    /// Document-cache budget in retained bytes.
    pub doc_cache_bytes: usize,
    /// Expose the `CRASH` verb (tests only).
    pub enable_crash_verb: bool,
    /// Rebuild a connection's engine when its store grows past this many
    /// slots — a long-lived connection adopting many documents would
    /// otherwise accrete mounts forever.
    pub store_reset_slots: usize,
    /// Maximum element nesting depth `LOAD` accepts, `None` for the
    /// parser's [`DEFAULT_MAX_DEPTH`](xmlstore::parser::DEFAULT_MAX_DEPTH).
    /// A payload past the limit comes back as a structured `ERR XMLPARSE`
    /// with the offending position — never a dropped connection.
    pub load_max_depth: Option<usize>,
    /// Maximum records one `LOAD` parse may create, `None` for unbounded.
    /// This is the service's arena-exhaustion guard: a 100k-wide hostile
    /// document fails with `ERR XMLPARSE` (the parser's `ArenaFull`, with
    /// its position) instead of growing a scratch store without limit.
    pub load_max_nodes: Option<usize>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            eval_workers: 2,
            plan_cache_capacity: 256,
            doc_cache_bytes: 256 * 1024 * 1024,
            enable_crash_verb: false,
            store_reset_slots: 1 << 20,
            load_max_depth: None,
            load_max_nodes: None,
        }
    }
}

/// Stack of each connection thread, which runs inline plans itself (see
/// [`Engine::evaluate_with_focus`]). Such a plan needs at most about 1 MiB
/// in a debug build; naming the size keeps `RUST_MIN_STACK` from shrinking
/// it.
const CONNECTION_STACK_BYTES: usize = 2 * 1024 * 1024;

/// Joins the connection threads that have finished, so a long-lived service
/// holds only its live connections' threads and stacks.
fn reap(handlers: &mut Vec<std::thread::JoinHandle<()>>) {
    for handle in handlers.extract_if(.., |h| h.is_finished()) {
        let _ = handle.join();
    }
}

/// State shared by every connection handler.
struct Shared {
    config: ServiceConfig,
    pool: Arc<StackPool>,
    plans: Mutex<PlanCache>,
    docs: Mutex<DocCache>,
    tenants: Mutex<HashMap<String, TenantStats>>,
    shutdown: AtomicBool,
    /// One `try_clone` per **live** connection, keyed by connection id, so
    /// shutdown can unblock reads. Handlers remove their own entry on exit —
    /// a finished connection must not leak an fd for the server's lifetime.
    conns: Mutex<HashMap<u64, TcpStream>>,
    next_conn_id: AtomicU64,
}

impl Shared {
    fn new(config: ServiceConfig) -> Shared {
        Shared {
            pool: Arc::new(StackPool::new(config.eval_workers)),
            plans: Mutex::new(PlanCache::new(config.plan_cache_capacity)),
            docs: Mutex::new(DocCache::new(config.doc_cache_bytes)),
            tenants: Mutex::new(HashMap::new()),
            shutdown: AtomicBool::new(false),
            conns: Mutex::new(HashMap::new()),
            next_conn_id: AtomicU64::new(0),
            config,
        }
    }

    /// `(hits, misses, evictions, entries)`.
    fn plan_cache_counters(&self) -> (u64, u64, u64, usize) {
        let p = lock(&self.plans);
        (p.hits, p.misses, p.evictions, p.len())
    }

    /// `(hits, misses, evictions, rejections, used_bytes, entries)`.
    fn doc_cache_counters(&self) -> (u64, u64, u64, u64, usize, usize) {
        let d = lock(&self.docs);
        (
            d.hits,
            d.misses,
            d.evictions,
            d.rejections,
            d.used_bytes(),
            d.len(),
        )
    }

    /// A copy of a tenant's stats with `doc_used_bytes` joined against the
    /// doc cache now: an evicted document stops counting against its
    /// tenants immediately.
    fn tenant_snapshot(&self, tenant: &str) -> Option<TenantStats> {
        let mut t = lock(&self.tenants).get(tenant).cloned()?;
        let d = lock(&self.docs);
        t.doc_used_bytes = t
            .doc_uris
            .iter()
            .filter_map(|u| d.bytes_of(u))
            .map(|b| b as u64)
            .sum();
        Some(t)
    }
}

/// A running service. Dropping the handle without [`ServiceHandle::shutdown`]
/// leaves the accept thread running until process exit.
pub struct Service {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept: Option<std::thread::JoinHandle<()>>,
}

impl Service {
    /// Binds `127.0.0.1:0` and starts accepting.
    pub fn spawn(config: ServiceConfig) -> io::Result<Service> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(Shared::new(config));
        let accept_shared = Arc::clone(&shared);
        let accept = std::thread::Builder::new()
            .name("qsvc-accept".to_string())
            .spawn(move || {
                let mut handlers = Vec::new();
                for stream in listener.incoming() {
                    if accept_shared.shutdown.load(Ordering::SeqCst) {
                        break;
                    }
                    let Ok(stream) = stream else { break };
                    // A framed request/response protocol wants its bytes
                    // out now: with Nagle on, a frame that leaves in two
                    // writes (one too big for the buffer, or a batch of
                    // replies) can sit behind the peer's delayed ACK for
                    // ~40 ms.
                    let _ = stream.set_nodelay(true);
                    let conn_id = accept_shared.next_conn_id.fetch_add(1, Ordering::SeqCst);
                    if let Ok(clone) = stream.try_clone() {
                        lock(&accept_shared.conns).insert(conn_id, clone);
                    }
                    let conn_shared = Arc::clone(&accept_shared);
                    reap(&mut handlers);
                    let handle = std::thread::Builder::new()
                        .name("qsvc-conn".to_string())
                        .stack_size(CONNECTION_STACK_BYTES)
                        .spawn(move || {
                            let _ = Connection::new(Arc::clone(&conn_shared)).serve(stream);
                            // Drop this connection's shutdown handle with it.
                            lock(&conn_shared.conns).remove(&conn_id);
                        });
                    if let Ok(handle) = handle {
                        handlers.push(handle);
                    }
                }
                for handle in handlers {
                    let _ = handle.join();
                }
            })?;
        Ok(Service {
            addr,
            shared,
            accept: Some(accept),
        })
    }

    /// The bound address clients connect to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Global plan-cache counters `(hits, misses, evictions, entries)`.
    pub fn plan_cache_counters(&self) -> (u64, u64, u64, usize) {
        self.shared.plan_cache_counters()
    }

    /// Global doc-cache counters `(hits, misses, evictions, rejections,
    /// used_bytes, entries)`.
    pub fn doc_cache_counters(&self) -> (u64, u64, u64, u64, usize, usize) {
        self.shared.doc_cache_counters()
    }

    /// A tenant's aggregated stats, if it has connected. `doc_used_bytes`
    /// is joined against the cache at call time, like the `STATS` verb does.
    pub fn tenant_stats(&self, tenant: &str) -> Option<TenantStats> {
        self.shared.tenant_snapshot(tenant)
    }

    /// Live connections currently tracked for shutdown. Handlers prune
    /// their entry on exit, so finished connections do not count (or hold
    /// an fd).
    pub fn live_connections(&self) -> usize {
        lock(&self.shared.conns).len()
    }

    /// Stops accepting, severs every live connection, and joins all handler
    /// threads. Idempotent.
    pub fn shutdown(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        for (_, conn) in lock(&self.shared.conns).drain() {
            let _ = conn.shutdown(std::net::Shutdown::Both);
        }
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
    }
}

impl Drop for Service {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// A document mounted into this connection's engine: the node it landed on
/// and the snapshot identity it was mounted from.
struct MountMemo {
    root: NodeId,
    snapshot: TreeSnapshot,
}

/// Per-connection state: tenant identity, the engine (its options are the
/// connection's, its pool the service's) and their fingerprint, the uri →
/// mount memo, and the current request's tally.
struct Connection {
    shared: Arc<Shared>,
    tenant: String,
    engine: Engine,
    /// `self.engine.options().cache_key()`, the plan-cache key's second half.
    fingerprint: Arc<str>,
    mounts: HashMap<String, MountMemo>,
    tally: Tally,
}

/// What the current request adds to its tenant's [`TenantStats`], kept on
/// the connection and folded in with one lock as the request ends.
#[derive(Default, PartialEq)]
struct Tally {
    queries: u64,
    errors: u64,
    plan_hits: u64,
    plan_misses: u64,
    doc_hits: u64,
    doc_misses: u64,
    doc_evictions: u64,
    /// The uri the request loaded or resolved, empty for none. The buffer
    /// is reused from request to request.
    doc_uri: String,
    eval: EvalStats,
}

impl Tally {
    fn is_empty(&self) -> bool {
        *self == Tally::default()
    }

    /// Adds the counts to `t`, recording the uri only if it is new, and
    /// zeroes them, keeping the uri buffer.
    fn drain_into(&mut self, t: &mut TenantStats) {
        t.queries += self.queries;
        t.errors += self.errors;
        t.plan_hits += self.plan_hits;
        t.plan_misses += self.plan_misses;
        t.doc_hits += self.doc_hits;
        t.doc_misses += self.doc_misses;
        t.doc_evictions += self.doc_evictions;
        t.absorb_eval(&self.eval);
        if !self.doc_uri.is_empty() && !t.doc_uris.contains(&self.doc_uri) {
            t.doc_uris.insert(self.doc_uri.clone());
        }
        let doc_uri = std::mem::take(&mut self.doc_uri);
        *self = Tally {
            doc_uri,
            ..Tally::default()
        };
        self.doc_uri.clear();
    }

    fn record_uri(&mut self, uri: &str) {
        self.doc_uri.clear();
        self.doc_uri.push_str(uri);
    }
}

/// What one request produced: a payload to send under `OK`/`ERR`, or for
/// BATCH a pre-built series of frames.
enum Reply {
    Ok(Vec<u8>),
    Err(WireError),
    Batch(Vec<Result<Vec<u8>, WireError>>),
    Quit,
}

impl Connection {
    fn new(shared: Arc<Shared>) -> Connection {
        let options = EngineOptions::default();
        Connection {
            fingerprint: options.cache_key().into(),
            engine: Engine::with_pool(options, Arc::clone(&shared.pool)),
            shared,
            tenant: "anon".to_string(),
            mounts: HashMap::new(),
            tally: Tally::default(),
        }
    }

    fn serve(&mut self, stream: TcpStream) -> io::Result<()> {
        let write_half = stream;
        let read_half = write_half.try_clone()?;
        let mut reader = BufReader::new(read_half);
        let mut writer = BufWriter::new(write_half);
        loop {
            if self.shared.shutdown.load(Ordering::SeqCst) {
                return Ok(());
            }
            let frame = match read_frame(&mut reader) {
                Ok(Some(frame)) => frame,
                Ok(None) => return Ok(()), // client hung up cleanly
                Err(e) if e.kind() == io::ErrorKind::InvalidData => {
                    // A malformed header is unrecoverable (framing is lost):
                    // report and close.
                    let err = WireError::new("PROTO", e.to_string());
                    let _ = write_frame(&mut writer, &["ERR"], &err.encode());
                    return Ok(());
                }
                Err(e) => return Err(e),
            };
            match self.handle(&frame) {
                Reply::Ok(payload) => write_frame(&mut writer, &["OK"], &payload)?,
                Reply::Err(err) => write_frame(&mut writer, &["ERR"], &err.encode())?,
                Reply::Batch(results) => {
                    for result in results {
                        match result {
                            Ok(payload) => write_frame(&mut writer, &["OK"], &payload)?,
                            Err(err) => write_frame(&mut writer, &["ERR"], &err.encode())?,
                        }
                    }
                    writer.flush()?;
                }
                Reply::Quit => {
                    write_frame(&mut writer, &["OK"], b"")?;
                    return Ok(());
                }
            }
        }
    }

    fn handle(&mut self, frame: &Frame) -> Reply {
        let reply = match frame.verb() {
            "HELLO" => self.do_hello(frame),
            "OPTION" => self.do_option(frame),
            "LOAD" => self.do_load(frame),
            "QUERY" => self.do_query(frame, QueryMode::Evaluate),
            "EXPLAIN" => self.do_query(frame, QueryMode::Explain),
            "BATCH" => self.do_batch(frame),
            "STATS" => self.do_stats(),
            "CRASH" => self.do_crash(frame),
            "QUIT" => Reply::Quit,
            other => Reply::Err(WireError::new("PROTO", format!("unknown verb {other:?}"))),
        };
        // The wire has no channel for `fn:trace` events, so they go with
        // the request instead of accreting for the connection's life.
        self.engine.take_trace_events();
        self.settle();
        reply
    }

    /// Folds the request's tally into its tenant: the one tenant lock a
    /// request takes, and no copy of the tenant's name once it has an entry.
    fn settle(&mut self) {
        if self.tally.is_empty() {
            return;
        }
        let mut tenants = lock(&self.shared.tenants);
        if let Some(stats) = tenants.get_mut(&self.tenant) {
            self.tally.drain_into(stats);
            return;
        }
        let mut stats = TenantStats::default();
        self.tally.drain_into(&mut stats);
        tenants.insert(self.tenant.clone(), stats);
    }

    fn do_hello(&mut self, frame: &Frame) -> Reply {
        let Some(name) = frame.words.get(1) else {
            return Reply::Err(WireError::new("PROTO", "HELLO needs a tenant name"));
        };
        self.tenant = name.clone();
        Reply::Ok(Vec::new())
    }

    /// Rebuilds the engine under changed options. The old engine's mounts go
    /// with it, so the memo is cleared; documents re-adopt lazily from the
    /// cache on the next QUERY.
    fn do_option(&mut self, frame: &Frame) -> Reply {
        let (Some(name), Some(value)) = (frame.words.get(1), frame.words.get(2)) else {
            return Reply::Err(WireError::new("PROTO", "OPTION needs a name and a value"));
        };
        let mut options = self.engine.options().clone();
        let parsed = match name.as_str() {
            "preset" => match value.as_str() {
                "galax" => Some(EngineOptions::galax()),
                "default" => Some(EngineOptions::default()),
                _ => None,
            }
            .map(|preset| options = preset)
            .is_some(),
            "galax_quirks" => set_bool(value, &mut options.galax_quirks),
            "optimize" => set_bool(value, &mut options.optimize),
            "static_typing" => set_bool(value, &mut options.static_typing),
            "runtime_opt" => set_bool(value, &mut options.runtime_opt),
            "recursion_limit" => value.parse().map(|n| options.recursion_limit = n).is_ok(),
            "dup_attr_policy" => match value.as_str() {
                "error" => Some(DupAttrPolicy::Error),
                "first" => Some(DupAttrPolicy::KeepFirst),
                "last" => Some(DupAttrPolicy::KeepLast),
                "both" => Some(DupAttrPolicy::KeepBoth),
                _ => None,
            }
            .map(|policy| options.dup_attr_policy = policy)
            .is_some(),
            _ => return Reply::Err(WireError::new("PROTO", format!("unknown option {name:?}"))),
        };
        // A limit the engine would lower is refused instead.
        if !parsed || options.recursion_limit > MAX_RECURSION_LIMIT {
            return Reply::Err(WireError::new(
                "PROTO",
                format!("bad value {value:?} for option {name:?}"),
            ));
        }
        self.rebuild_engine(options);
        Reply::Ok(self.fingerprint.as_bytes().to_vec())
    }

    fn rebuild_engine(&mut self, options: EngineOptions) {
        self.fingerprint = options.cache_key().into();
        self.engine = Engine::with_pool(options, Arc::clone(&self.shared.pool));
        self.mounts.clear();
    }

    /// Parses the payload as XML and admits the snapshot to the shared
    /// document cache under the given uri.
    fn do_load(&mut self, frame: &Frame) -> Reply {
        let Some(uri) = frame.words.get(1) else {
            return Reply::Err(WireError::new("PROTO", "LOAD needs a uri"));
        };
        let xml = frame.text();
        // Parse into a scratch store with the same options as
        // Engine::load_document (plus the service's hostile-payload caps),
        // so served and embedded trees agree.
        let mut parse_options = ParseOptions::data_oriented();
        if let Some(depth) = self.shared.config.load_max_depth {
            parse_options.max_depth = depth;
        }
        parse_options.max_nodes = self.shared.config.load_max_nodes;
        let snapshot = {
            let mut scratch = Store::new();
            // The parser is iterative, so it runs on this thread, under a
            // pool permit like an inline evaluation. The catch_unwind is the
            // connection's survival guarantee: a panic anywhere in the
            // parse/snapshot path must come back as a structured
            // `ERR PANIC`, never a dropped connection.
            let parsed = catch_unwind(AssertUnwindSafe(|| {
                let (parsed, _) = self.shared.pool.run_timed(true, || {
                    scratch.parse_str(&xml, &parse_options).map(|doc| {
                        scratch
                            .snapshot(doc)
                            .expect("a fresh parse lands in a frozen mount")
                    })
                });
                parsed
            }));
            match parsed {
                Ok(Ok(snapshot)) => snapshot,
                Ok(Err(e)) => {
                    let mut err = WireError::new("XMLPARSE", e.to_string());
                    if e.line != 0 || e.column != 0 {
                        err = err.at(e.line, e.column);
                    }
                    return self.fail(err);
                }
                Err(payload) => {
                    return self.fail(WireError::new("PANIC", panic_text(payload.as_ref())))
                }
            }
        };
        // Evictions forced by this admit are charged to the tenant that
        // needed the room, even when the victims belong to someone else.
        let (admitted, evicted) = {
            let mut docs = lock(&self.shared.docs);
            let before = docs.evictions;
            let admitted = docs.insert(uri, snapshot);
            let evicted = docs.evictions - before;
            (admitted, evicted)
        };
        match admitted {
            Ok(bytes) => {
                self.tally.doc_evictions += evicted;
                self.tally.record_uri(uri);
                Reply::Ok(bytes.to_string().into_bytes())
            }
            Err(e) => self.fail(WireError::new("ADMIT", e.to_string())),
        }
    }

    /// Resolves `uri` through the doc cache and makes sure this connection's
    /// engine has it mounted, reusing the memoised mount when the cached
    /// snapshot is the *same tree* (Arc identity) and remounting when a
    /// re-LOAD replaced it.
    fn resolve_doc(&mut self, uri: &str) -> Result<Option<NodeId>, WireError> {
        if uri == "-" {
            return Ok(None);
        }
        let snapshot = lock(&self.shared.docs).get(uri);
        let Some(snapshot) = snapshot else {
            self.tally.doc_misses += 1;
            return Err(WireError::new(
                "NODOC",
                format!("no document loaded under uri {uri:?}"),
            ));
        };
        self.tally.doc_hits += 1;
        self.tally.record_uri(uri);
        if let Some(memo) = self.mounts.get(uri) {
            if TreeSnapshot::ptr_eq(&memo.snapshot, &snapshot) {
                return Ok(Some(memo.root));
            }
            // A re-LOAD replaced the document: this store's reference to the
            // old tree is released (other holders are unaffected) and the
            // new snapshot mounted in its place.
            let old_root = memo.root;
            let _ = self.engine.store_mut().release_mount(old_root);
        }
        let root = self
            .engine
            .store_mut()
            .adopt(&snapshot)
            .map_err(|e| WireError::new("NODOC", e.to_string()))?;
        self.engine.register_document(uri.to_string(), root);
        self.mounts
            .insert(uri.to_string(), MountMemo { root, snapshot });
        Ok(Some(root))
    }

    /// The shared QUERY/EXPLAIN path: plan through the cache, document
    /// through the cache, then evaluate (or explain).
    fn do_query(&mut self, frame: &Frame, mode: QueryMode) -> Reply {
        let Some(uri) = frame.words.get(1) else {
            return Reply::Err(WireError::new("PROTO", "QUERY/EXPLAIN needs a uri or -"));
        };
        self.tally.queries += 1;
        let plan = match self.cached_plan(&frame.text()) {
            Ok(plan) => plan,
            Err(err) => return self.fail(err),
        };
        if let QueryMode::Explain = mode {
            return Reply::Ok(self.engine.explain(&plan).into_bytes());
        }
        let context = match self.resolve_doc(uri) {
            Ok(context) => context,
            Err(err) => return self.fail(err),
        };
        let reply = match self.evaluate(&plan, context) {
            Ok(payload) => Reply::Ok(payload),
            Err(err) => Reply::Err(err),
        };
        self.maybe_reset_store();
        reply
    }

    /// The one evaluate step, taken by QUERY and by every BATCH job: run
    /// the plan on this connection's engine (on this thread or a pool
    /// worker, as the plan's route says, under one of the pool's permits)
    /// under `catch_unwind`, add its counters to the request's tally, and
    /// serialize. A failure counts as a tenant error.
    fn evaluate(
        &mut self,
        plan: &CompiledQuery,
        context: Option<NodeId>,
    ) -> Result<Vec<u8>, WireError> {
        let outcome = {
            let engine = &mut self.engine;
            catch_unwind(AssertUnwindSafe(|| engine.evaluate(plan, context)))
        };
        // Even a failed evaluation's counters feed the tenant aggregate —
        // they are often the diagnostic.
        self.tally.eval.merge(self.engine.last_stats());
        // Serialized here, before any caller runs the store-reset guard:
        // the sequence's NodeIds point into this engine's store, and
        // rebuild_engine would drop the mounts they reference.
        let result = match outcome {
            Ok(Ok(seq)) => Ok(self.engine.display_sequence(&seq).into_bytes()),
            Ok(Err(e)) => Err(WireError::from_engine(&e)),
            Err(payload) => Err(WireError::new("PANIC", panic_text(payload.as_ref()))),
        };
        if result.is_err() {
            self.tally.errors += 1;
        }
        result
    }

    /// Looks the plan up under `(text, options fingerprint)`, compiling and
    /// inserting on a miss. Compile errors count as misses (the text reached
    /// the compiler) and are never cached.
    fn cached_plan(&mut self, text: &str) -> Result<CompiledQuery, WireError> {
        let cached = lock(&self.shared.plans).get(text, &self.fingerprint);
        if let Some(plan) = cached {
            self.tally.plan_hits += 1;
            return Ok(plan);
        }
        self.tally.plan_misses += 1;
        let plan = self
            .engine
            .compile(text)
            .map_err(|e| WireError::from_engine(&e))?;
        lock(&self.shared.plans).insert(text, Arc::clone(&self.fingerprint), plan.clone());
        Ok(plan)
    }

    /// `BATCH <count> <uri|->`: payload carries `count` query sub-frames;
    /// the reply is exactly `count` OK/ERR frames, in job order. The jobs
    /// run one after another through QUERY's evaluate step, over one
    /// document resolve. Errors, a panic included, answer for their own
    /// job only, with a `job N: ` message prefix (position preserved).
    fn do_batch(&mut self, frame: &Frame) -> Reply {
        let (Some(count), Some(uri)) = (frame.words.get(1), frame.words.get(2)) else {
            return Reply::Err(WireError::new("PROTO", "BATCH needs a count and a uri"));
        };
        let Ok(count) = count.parse::<usize>() else {
            return Reply::Err(WireError::new("PROTO", "bad BATCH count"));
        };
        let queries = match crate::proto::decode_subframes(&frame.payload) {
            Ok(queries) => queries,
            Err(e) => return Reply::Err(WireError::new("PROTO", e.to_string())),
        };
        if queries.len() != count {
            return Reply::Err(WireError::new(
                "PROTO",
                format!(
                    "BATCH header says {count} jobs, payload has {}",
                    queries.len()
                ),
            ));
        }
        self.tally.queries += count as u64;

        // Every job's plan goes through the shared cache (hits counted per
        // job), then the document resolves once for the whole batch.
        let plans: Vec<_> = queries
            .iter()
            .map(|q| self.cached_plan(&String::from_utf8_lossy(q)))
            .collect();
        let context = match self.resolve_doc(uri) {
            Ok(context) => context,
            Err(err) => {
                self.tally.errors += count as u64;
                return Reply::Batch((0..count).map(|i| Err(job_error(i, err.clone()))).collect());
            }
        };
        let results = plans
            .into_iter()
            .enumerate()
            .map(|(i, plan)| {
                let result = match plan {
                    Ok(plan) => self.evaluate(&plan, context),
                    Err(err) => {
                        self.tally.errors += 1;
                        Err(err)
                    }
                };
                result.map_err(|err| job_error(i, err))
            })
            .collect();
        self.maybe_reset_store();
        Reply::Batch(results)
    }

    fn do_stats(&mut self) -> Reply {
        let mut body = String::new();
        self.shared
            .tenant_snapshot(&self.tenant)
            .unwrap_or_default()
            .render(&mut body);
        let (p_hits, p_misses, p_evictions, p_entries) = self.shared.plan_cache_counters();
        let (d_hits, d_misses, d_evictions, d_rejections, d_used, d_entries) =
            self.shared.doc_cache_counters();
        let globals = [
            ("plan_cache.hits", p_hits),
            ("plan_cache.misses", p_misses),
            ("plan_cache.evictions", p_evictions),
            ("plan_cache.entries", p_entries as u64),
            ("doc_cache.hits", d_hits),
            ("doc_cache.misses", d_misses),
            ("doc_cache.evictions", d_evictions),
            ("doc_cache.rejections", d_rejections),
            ("doc_cache.used_bytes", d_used as u64),
            ("doc_cache.entries", d_entries as u64),
        ];
        for (key, value) in globals {
            body.push_str(&format!("global.{key} {value}\n"));
        }
        Reply::Ok(body.into_bytes())
    }

    /// Panics on a pool worker with the payload text — the test hook proving
    /// a worker panic arrives as a structured `ERR PANIC`, not a dead socket.
    fn do_crash(&mut self, frame: &Frame) -> Reply {
        if !self.shared.config.enable_crash_verb {
            return Reply::Err(WireError::new("PROTO", "CRASH is not enabled"));
        }
        let msg = frame.text();
        let pool = Arc::clone(&self.shared.pool);
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            pool.run::<(), _>(move || panic!("{msg}"))
        }));
        match outcome {
            Ok(()) => Reply::Err(WireError::new("PANIC", "CRASH did not panic")),
            Err(payload) => Reply::Err(WireError::new("PANIC", panic_text(payload.as_ref()))),
        }
    }

    fn fail(&mut self, err: WireError) -> Reply {
        self.tally.errors += 1;
        Reply::Err(err)
    }

    /// The store growth guard: adopted mounts accrete (release_mount retires
    /// mount ids without recycling them), so a long-lived connection
    /// periodically starts over with a fresh engine. Cached documents
    /// re-adopt lazily on the next request that needs them.
    fn maybe_reset_store(&mut self) {
        if self.engine.store().len() > self.shared.config.store_reset_slots {
            self.rebuild_engine(self.engine.options().clone());
        }
    }
}

enum QueryMode {
    Evaluate,
    Explain,
}

/// The service's one lock rule: a poisoned guard is recovered, not
/// propagated. Every critical section leaves its data consistent between
/// statements, so one panic must not take a cache down for every tenant.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Prefixes a BATCH job's error message with `job N: `.
fn job_error(index: usize, mut err: WireError) -> WireError {
    err.message = format!("job {index}: {}", err.message);
    err
}

/// Writes a parsed boolean into `slot`; `false` means the value was bad.
fn set_bool(value: &str, slot: &mut bool) -> bool {
    match value {
        "true" | "1" => *slot = true,
        "false" | "0" => *slot = false,
        _ => return false,
    }
    true
}

/// The text of a panic payload (`String` or `&str`), or a placeholder for
/// exotic payload types.
fn panic_text(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| {
            payload
                .downcast_ref::<&'static str>()
                .map(|s| s.to_string())
        })
        .unwrap_or_else(|| "evaluation worker panicked (non-text payload)".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame(words: &[&str], payload: &[u8]) -> Frame {
        Frame {
            words: words.iter().map(|w| w.to_string()).collect(),
            payload: payload.to_vec(),
        }
    }

    /// `fn:trace` events have no channel over the wire, so every request
    /// drops its own instead of growing the connection engine's buffer.
    #[test]
    fn trace_events_are_drained_after_every_request() {
        let mut conn = Connection::new(Arc::new(Shared::new(ServiceConfig {
            eval_workers: 1,
            ..ServiceConfig::default()
        })));
        let text = "trace('x', 1) + 1";
        let jobs = crate::proto::encode_subframes(&[text.as_bytes(), text.as_bytes()]);
        for request in [
            frame(&["QUERY", "-"], text.as_bytes()),
            frame(&["BATCH", "2", "-"], &jobs),
        ] {
            match conn.handle(&request) {
                Reply::Ok(payload) => assert_eq!(payload, b"2"),
                Reply::Batch(results) => assert_eq!(results, vec![Ok(b"2".to_vec()); 2]),
                _ => panic!("{request:?} failed"),
            }
            assert!(conn.engine.take_trace_events().is_empty());
        }
        // The same text on the same engine does trace, so the drain is what
        // emptied the buffer.
        conn.engine.evaluate_str(text, None).unwrap();
        assert_eq!(conn.engine.take_trace_events().len(), 1);
    }

    /// The accept loop's reap joins every finished connection thread and
    /// keeps the live ones.
    #[test]
    fn reap_leaves_no_finished_thread_behind() {
        let (release, held) = std::sync::mpsc::channel::<()>();
        let mut handlers = vec![std::thread::spawn(move || {
            let _ = held.recv();
        })];
        handlers.extend((0..100).map(|_| std::thread::spawn(|| {})));
        while !handlers[1..].iter().all(|h| h.is_finished()) {
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        reap(&mut handlers);
        assert_eq!(handlers.len(), 1, "only the live thread is left");
        release.send(()).unwrap();
        while !handlers[0].is_finished() {
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        reap(&mut handlers);
        assert!(handlers.is_empty());
    }
}
