//! The public engine façade: compile, bind, evaluate, serialize, trace.

use crate::ast::Module;
use crate::context::{DynamicContext, Focus, StaticContext};
use crate::error::{Error, Result};
use crate::eval::{eval, EvalEnv};
use crate::functions::display_sequence;
use crate::lower::{lower_module, Program, Route};
use crate::obs::{EvalStats, PoolTiming, ReuseStats, TraceEvent, TraceSink};
use crate::optimizer::{optimize_module, OptimizerOptions, OptimizerStats};
use crate::parser::parse_module;
use crate::run::{run, Frame, FramePool, Memo, RunEnv};
use crate::value::{Item, Sequence};
use std::collections::HashMap;
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::time::Instant;
use xmlstore::parser::ParseOptions;
use xmlstore::{intern, NodeId, Store, Sym};

/// What to do when a constructed element receives two attributes with the
/// same name.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DupAttrPolicy {
    /// Raise `XQDY0025` (the eventual W3C behaviour).
    Error,
    /// Keep the first one — one of the two outcomes the 2004 working draft
    /// allowed ("can produce one of two results").
    #[default]
    KeepFirst,
    /// Keep the last one — the other permitted outcome.
    KeepLast,
    /// Keep both — what Galax actually did ("Galax did not honor this as of
    /// the time of writing").
    KeepBoth,
}

/// Engine configuration.
#[derive(Debug, Clone)]
pub struct EngineOptions {
    /// Reproduce Galax's observable quirks: the `$glx:dot` error message
    /// (without line numbers), duplicate attributes kept, and — via
    /// [`EngineOptions::optimize`] — dead-code elimination that deletes
    /// `fn:trace` calls.
    pub galax_quirks: bool,
    /// Run the optimizer at compile time.
    pub optimize: bool,
    /// Duplicate-attribute handling in constructors.
    pub dup_attr_policy: DupAttrPolicy,
    /// Maximum user-function recursion depth; [`Engine::with_pool`] lowers
    /// it to at most [`MAX_RECURSION_LIMIT`].
    pub recursion_limit: usize,
    /// Run the static type checker at compile time and reject programs with
    /// diagnostics. Off by default — "we used XQuery in the untyped mode,
    /// avoiding the type system entirely" — and turning it on is how the
    /// metastasis experiment (E8) bites.
    pub static_typing: bool,
    /// Enable the runtime optimisation layer: the loop-invariant hoisting
    /// pass over the lowered [`Program`], the hash join and hashed
    /// existential general comparison, literal positional picks, and the
    /// pull-based cursor runtime ([`crate::cursor`]) — existence checks,
    /// FLWOR `for` bindings, quantifiers, positional filters, and the
    /// prefix-consuming builtins pull items instead of materialising every
    /// intermediate sequence. All of these are gated rewrites that must be
    /// observably identical to the plain paths (the differential suite runs
    /// every config with this both on and off); the flag exists so tests can
    /// pin that claim and so a regression can be bisected at runtime (the
    /// query service takes `OPTION runtime_opt false`). Off, every consumer
    /// materialises eagerly through the generic step loop. Defaults to
    /// `true`.
    /// Distinct from [`EngineOptions::optimize`], which is the
    /// paper-faithful *AST* optimizer whose quirks-mode trace-DCE is itself
    /// under test.
    pub runtime_opt: bool,
}

impl Default for EngineOptions {
    fn default() -> Self {
        EngineOptions {
            galax_quirks: false,
            optimize: true,
            dup_attr_policy: DupAttrPolicy::KeepFirst,
            recursion_limit: MAX_RECURSION_LIMIT,
            static_typing: false,
            runtime_opt: true,
        }
    }
}

impl EngineOptions {
    /// The Galax-compatible preset the paper's project effectively ran on.
    pub fn galax() -> Self {
        EngineOptions {
            galax_quirks: true,
            dup_attr_policy: DupAttrPolicy::KeepBoth,
            ..Default::default()
        }
    }

    /// A stable fingerprint of every option that can change what a compiled
    /// plan *is* (`galax_quirks` steers the AST optimizer, `optimize`,
    /// `static_typing`, and `runtime_opt` gate whole passes) or what running
    /// it observably does (`dup_attr_policy`, `recursion_limit`) — that is,
    /// of every field. A plan cache MUST key on this next to the query
    /// text: two tenants submitting identical text under different
    /// configurations would otherwise share one plan and leak each other's
    /// semantics. The pool a plan runs on is not an option: its route is
    /// part of the plan, and sharing plans across engines and pools is the
    /// point of caching them.
    pub fn cache_key(&self) -> String {
        format!(
            "gq={} opt={} dup={:?} rec={} st={} ropt={}",
            self.galax_quirks as u8,
            self.optimize as u8,
            self.dup_attr_policy,
            self.recursion_limit,
            self.static_typing as u8,
            self.runtime_opt as u8,
        )
    }
}

/// A compiled query: the (optimized) module, its lowered [`Program`] — what
/// [`Engine::evaluate`] actually runs — and optimizer statistics. The module
/// is retained for the tree-walking reference path
/// ([`Engine::evaluate_reference`]) and for inspection.
///
/// Both the module and the program sit behind `Arc`: a query is compiled
/// once and the same program can then be evaluated by many engines on many
/// threads concurrently (names are interned process-wide, so a `Sym` means
/// the same thing everywhere, and string literals are plan-owned
/// `Arc<str>`s). Cloning a `CompiledQuery` is two reference bumps, not a
/// deep copy.
#[derive(Debug, Clone)]
pub struct CompiledQuery {
    pub module: Arc<Module>,
    pub program: Arc<Program>,
    pub stats: OptimizerStats,
    /// What the lowered-plan pass did (zero everywhere when
    /// [`EngineOptions::runtime_opt`] is off).
    pub plan_stats: crate::lopt::PlanStats,
}

/// Stack of every pool worker. It holds `MAX_RECURSION_LIMIT` calls: in a
/// debug build a level of a `for` returning `<a>{ … recursive call … }</a>`
/// takes about 36 KB with the runtime passes off and 16 KB with them on
/// (constructor content in push mode), a level of an `if` 14 KB, and a
/// level of the recursive copy of
/// `recursive_copy_of_a_deep_document_fits_the_recursion_limit` 43 KB off
/// and 18 KB on, so 2,048 levels need at most about 88 MB.
const WORKER_STACK_BYTES: usize = 256 * 1024 * 1024;
/// The deepest `recursion_limit` an engine runs with, and the default.
pub const MAX_RECURSION_LIMIT: usize = 2048;

/// A job shipped to a big-stack worker thread.
type Job = Box<dyn FnOnce() + Send + 'static>;

std::thread_local! {
    /// Set on pool worker threads. A [`StackPool::run`] issued *from* a
    /// worker runs inline instead of re-enqueueing: the stack is already the
    /// big one, and a rendezvous hop from inside the pool would deadlock a
    /// fully busy pool (every worker waiting on a job only a worker could
    /// run). It takes no permit either: the worker already holds one.
    static IS_EVAL_WORKER: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// A fixed-size pool of persistent worker threads with large stacks, and
/// the cap on how many evaluations run at once. XQuery-style programs
/// recurse where imperative code loops, so a plan that recurses (see
/// [`Route`]) runs on a worker's big stack — reused across calls, since
/// spawning a thread per query dominated short queries. A plan that cannot
/// recurse runs on the caller's thread instead, skipping the hop.
///
/// Either way a run holds one of `workers` permits while it runs, so a
/// pool of `workers` threads also bounds the inline runs of every engine
/// sharing it: at most `workers` evaluations are in flight, whichever
/// thread they are on. Workers take their permit as they start a job, so
/// the jobs of [`StackPool::run_batch`] count too.
///
/// Every engine owns an `Arc<StackPool>`; by default a private one with a
/// single worker. Batch drivers and the query service share one pool
/// across many engines ([`Engine::with_pool`]) and fan independent jobs
/// over it with [`StackPool::run_batch`].
///
/// Workers are spawned lazily on first use: a pool that only ever runs
/// inline plans, or calls made *from* another pool's worker (the
/// nested-engine case in batch document generation), never starts a
/// thread at all.
pub struct StackPool {
    workers: usize,
    permits: Arc<Permits>,
    inner: Mutex<PoolInner>,
}

struct PoolInner {
    sender: Option<mpsc::Sender<Job>>,
    handles: Vec<std::thread::JoinHandle<()>>,
}

/// The free share of a pool's cap on runs in flight.
struct Permits {
    count: Mutex<PermitCount>,
    freed: Condvar,
}

/// Permits free, and threads waiting for one. A release wakes a waiter
/// only when there is one: `Condvar::notify_one` is a syscall even with
/// nobody to wake, and most releases have nobody.
struct PermitCount {
    free: usize,
    waiting: usize,
}

impl Permits {
    fn new(free: usize) -> Permits {
        Permits {
            count: Mutex::new(PermitCount { free, waiting: 0 }),
            freed: Condvar::new(),
        }
    }

    /// Blocks until a permit is free and takes it. The guard gives it back
    /// when dropped, unwinding included.
    fn acquire(&self) -> Permit<'_> {
        let mut count = self.count.lock().unwrap_or_else(|e| e.into_inner());
        while count.free == 0 {
            count.waiting += 1;
            count = self.freed.wait(count).unwrap_or_else(|e| e.into_inner());
            count.waiting -= 1;
        }
        count.free -= 1;
        Permit(self)
    }
}

struct Permit<'a>(&'a Permits);

impl Drop for Permit<'_> {
    fn drop(&mut self) {
        let mut count = self.0.count.lock().unwrap_or_else(|e| e.into_inner());
        count.free += 1;
        let wake = count.waiting > 0;
        drop(count);
        if wake {
            self.0.freed.notify_one();
        }
    }
}

impl StackPool {
    /// A pool of `workers` threads (at least one), each with the engine's
    /// one worker stack, capping runs in flight at `workers`. Threads are
    /// not started until the first job needs one.
    pub fn new(workers: usize) -> StackPool {
        let workers = workers.max(1);
        StackPool {
            workers,
            permits: Arc::new(Permits::new(workers)),
            inner: Mutex::new(PoolInner {
                sender: None,
                handles: Vec::new(),
            }),
        }
    }

    /// The number of worker threads this pool runs at capacity, which is
    /// also its cap on evaluations in flight.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// The job-queue sender, spawning the worker threads on first use.
    fn sender(&self) -> mpsc::Sender<Job> {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(sender) = &inner.sender {
            return sender.clone();
        }
        let (sender, receiver) = mpsc::channel::<Job>();
        let receiver = Arc::new(Mutex::new(receiver));
        for i in 0..self.workers {
            let receiver = Arc::clone(&receiver);
            let permits = Arc::clone(&self.permits);
            let handle = std::thread::Builder::new()
                .name(format!("xquery-eval-{i}"))
                .stack_size(WORKER_STACK_BYTES)
                .spawn(move || {
                    IS_EVAL_WORKER.with(|flag| flag.set(true));
                    loop {
                        // Hold the queue lock only to dequeue, never while
                        // running a job, so idle workers can keep pulling.
                        let job = {
                            let queue = receiver.lock().unwrap_or_else(|e| e.into_inner());
                            queue.recv()
                        };
                        match job {
                            // Jobs catch their own panics, so the permit
                            // goes back before the next dequeue.
                            Ok(job) => {
                                let _permit = permits.acquire();
                                job()
                            }
                            Err(_) => break,
                        }
                    }
                })
                .expect("spawning an evaluation worker");
            inner.handles.push(handle);
        }
        inner.sender = Some(sender.clone());
        sender
    }

    /// Runs `f` on a pool worker and blocks until it completes.
    ///
    /// The closure may borrow the caller's stack (including `&mut Engine`):
    /// the rendezvous on the result channel guarantees those borrows outlive
    /// the job, which is what makes the lifetime erasure below sound. A
    /// panic inside `f` is caught on the worker (keeping it alive for the
    /// next query) and its original payload is re-raised here with
    /// [`std::panic::resume_unwind`], so the caller observes the same panic
    /// message it would have seen on an ordinary thread.
    ///
    /// Called from a pool worker (of any pool), `f` runs inline on the
    /// current thread instead — see [`IS_EVAL_WORKER`].
    pub fn run<T, F>(&self, f: F) -> T
    where
        T: Send,
        F: FnOnce() -> T + Send,
    {
        self.run_timed(false, f).0
    }

    /// Runs `f` under one of the pool's permits — on this thread when
    /// `inline`, else on a worker as [`StackPool::run`] does — with the
    /// pool's timing of it: how long it waited for a permit and a worker,
    /// and how long it ran. A call issued from a worker runs inline with
    /// no permit and zero wait. `inline` is for closures that never wait on
    /// this pool themselves: an inline run holds a permit a worker may need.
    pub fn run_timed<T, F>(&self, inline: bool, f: F) -> (T, PoolTiming)
    where
        T: Send,
        F: FnOnce() -> T + Send,
    {
        let submitted = Instant::now();
        let on_worker = IS_EVAL_WORKER.with(|flag| flag.get());
        if on_worker || inline {
            let _permit = (!on_worker).then(|| self.permits.acquire());
            let started = Instant::now();
            let value = f();
            return (
                value,
                PoolTiming {
                    queue_wait_ns: started.duration_since(submitted).as_nanos() as u64,
                    on_worker_ns: started.elapsed().as_nanos() as u64,
                },
            );
        }
        let (tx, rx) = mpsc::channel();
        let job: Box<dyn FnOnce() + Send + '_> = Box::new(move || {
            let started = Instant::now();
            let queue_wait_ns = started.duration_since(submitted).as_nanos() as u64;
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f));
            let timing = PoolTiming {
                queue_wait_ns,
                on_worker_ns: started.elapsed().as_nanos() as u64,
            };
            let _ = tx.send((result, timing));
        });
        // Erase the borrow lifetime: the blocking recv below keeps every
        // borrow alive until the job has finished (or been dropped with the
        // queue).
        let job: Job = unsafe { std::mem::transmute(job) };
        self.sender()
            .send(job)
            .expect("the evaluation pool is gone");
        match rx.recv() {
            Ok((Ok(value), timing)) => (value, timing),
            Ok((Err(payload), _)) => std::panic::resume_unwind(payload),
            Err(_) => panic!("the evaluation worker died without reporting a result"),
        }
    }

    /// Runs a batch of independent jobs across the pool and returns their
    /// results **in submission order**, regardless of which worker finished
    /// first. Blocks until every job has completed.
    ///
    /// Panics are collected per job; after the whole batch has drained, the
    /// first panicking job's payload (in submission order) is re-raised via
    /// [`std::panic::resume_unwind`] — with the job index prepended to the
    /// payload text (`batch job N: …`), so a pooled failure still says
    /// *which* job died. Draining before unwinding is what keeps the
    /// lifetime erasure sound: jobs may borrow the caller's stack, so no
    /// worker may still be running one when this frame unwinds.
    ///
    /// Called from a pool worker, the batch runs inline sequentially (same
    /// order guarantee, same payload tagging, no extra threads).
    pub fn run_batch<T, F>(&self, jobs: Vec<F>) -> Vec<T>
    where
        T: Send,
        F: FnOnce() -> T + Send,
    {
        if IS_EVAL_WORKER.with(|flag| flag.get()) {
            return jobs
                .into_iter()
                .enumerate()
                .map(
                    |(index, f)| match std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)) {
                        Ok(value) => value,
                        Err(payload) => {
                            std::panic::resume_unwind(tag_batch_payload(index, payload))
                        }
                    },
                )
                .collect();
        }
        let n = jobs.len();
        let (tx, rx) = mpsc::channel();
        let sender = self.sender();
        for (index, f) in jobs.into_iter().enumerate() {
            let tx = tx.clone();
            let job: Box<dyn FnOnce() + Send + '_> = Box::new(move || {
                let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f));
                let _ = tx.send((index, result));
            });
            let job: Job = unsafe { std::mem::transmute(job) };
            sender.send(job).expect("the evaluation pool is gone");
        }
        drop(tx);
        let mut slots: Vec<Option<std::thread::Result<T>>> = Vec::with_capacity(n);
        slots.resize_with(n, || None);
        for _ in 0..n {
            match rx.recv() {
                Ok((index, result)) => slots[index] = Some(result),
                Err(_) => panic!("an evaluation worker died mid-batch"),
            }
        }
        let mut results = Vec::with_capacity(n);
        let mut first_panic: Option<Box<dyn std::any::Any + Send>> = None;
        for (index, slot) in slots.into_iter().enumerate() {
            match slot.expect("every batch job reports exactly once") {
                Ok(value) => results.push(value),
                Err(payload) => {
                    if first_panic.is_none() {
                        first_panic = Some(tag_batch_payload(index, payload));
                    }
                }
            }
        }
        if let Some(payload) = first_panic {
            std::panic::resume_unwind(payload);
        }
        results
    }
}

/// Prepends `batch job N: ` to a panic payload's text so a re-raised batch
/// failure identifies the job. Payloads that carry no text (not a `String`
/// or `&'static str`) pass through untouched rather than losing the
/// original value.
fn tag_batch_payload(
    index: usize,
    payload: Box<dyn std::any::Any + Send>,
) -> Box<dyn std::any::Any + Send> {
    let text = payload
        .downcast_ref::<String>()
        .map(String::as_str)
        .or_else(|| payload.downcast_ref::<&'static str>().copied());
    match text {
        Some(t) => Box::new(format!("batch job {index}: {t}")),
        None => payload,
    }
}

impl Drop for StackPool {
    fn drop(&mut self) {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        // Closing the channel ends the worker loops; join so the threads
        // are gone when the pool is.
        inner.sender = None;
        for handle in inner.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

/// An XQuery engine instance owning a node store, registered documents,
/// external variable bindings, the trace sink, and a handle to its
/// evaluation pool (private by default, shareable via
/// [`Engine::with_pool`]).
pub struct Engine {
    store: Store,
    options: EngineOptions,
    docs: HashMap<String, NodeId>,
    globals: HashMap<String, Arc<Sequence>>,
    /// Every `fn:trace` event recorded so far (drained by
    /// [`Engine::take_trace`]/[`Engine::take_trace_events`]).
    trace_events: Vec<TraceEvent>,
    /// A user-installed sink that sees each event as it fires, in addition
    /// to the internal recording above.
    extra_sink: Option<Box<dyn TraceSink>>,
    /// Counters from the most recent evaluation (see
    /// [`Engine::last_stats`]). Updated even when the evaluation errored —
    /// the counters up to the failure are often the diagnostic.
    last_stats: EvalStats,
    /// The reuse counters of the same evaluation (see
    /// [`Engine::last_reuse_stats`]).
    last_reuse: ReuseStats,
    pool: Arc<StackPool>,
}

/// The sink evaluation threads through [`RunEnv`]/[`EvalEnv`]: records into
/// the engine's event log and forwards a clone of each event to the extra
/// sink, in firing order.
struct EngineSink<'a> {
    events: &'a mut Vec<TraceEvent>,
    extra: Option<&'a mut (dyn TraceSink + 'static)>,
}

impl TraceSink for EngineSink<'_> {
    fn event(&mut self, event: TraceEvent) {
        if let Some(extra) = self.extra.as_deref_mut() {
            extra.event(event.clone());
        }
        self.events.push(event);
    }
}

impl Default for Engine {
    fn default() -> Self {
        Engine::new()
    }
}

impl Engine {
    /// An engine with default (post-Galax, "fixed") options.
    pub fn new() -> Self {
        Engine::with_options(EngineOptions::default())
    }

    /// An engine reproducing Galax's quirks.
    pub fn galax() -> Self {
        Engine::with_options(EngineOptions::galax())
    }

    /// An engine with its own pool of one worker, so its pooled runs queue
    /// one at a time, as its inline runs do.
    pub fn with_options(options: EngineOptions) -> Self {
        Engine::with_pool(options, Arc::new(StackPool::new(1)))
    }

    /// An engine running its evaluations on an existing (typically shared)
    /// pool. Batch drivers create one pool and many engines: the engines'
    /// stores and traces stay private, while the big-stack threads — the
    /// expensive part — are shared.
    pub fn with_pool(mut options: EngineOptions, pool: Arc<StackPool>) -> Self {
        options.recursion_limit = options.recursion_limit.min(MAX_RECURSION_LIMIT);
        Engine {
            store: Store::new(),
            options,
            docs: HashMap::new(),
            globals: HashMap::new(),
            trace_events: Vec::new(),
            extra_sink: None,
            last_stats: EvalStats::default(),
            last_reuse: ReuseStats::default(),
            pool,
        }
    }

    /// The engine's evaluation pool, for sharing with sibling engines or
    /// fanning batches ([`StackPool::run_batch`]).
    pub fn pool(&self) -> &Arc<StackPool> {
        &self.pool
    }

    pub fn options(&self) -> &EngineOptions {
        &self.options
    }

    /// The node store (for inspecting result nodes).
    pub fn store(&self) -> &Store {
        &self.store
    }

    /// Mutable access to the store (for preparing inputs).
    pub fn store_mut(&mut self) -> &mut Store {
        &mut self.store
    }

    /// Parses an XML document into the engine's store (whitespace-only text
    /// stripped — the data-oriented form queries want) and returns the
    /// document node.
    pub fn load_document(&mut self, xml: &str) -> Result<NodeId> {
        self.store
            .parse_str(xml, &ParseOptions::data_oriented())
            .map_err(|e| Error::internal(format!("XML parse error: {e}")))
    }

    /// Registers a document node under a URI for `fn:doc($uri)`.
    pub fn register_document(&mut self, uri: impl Into<String>, doc: NodeId) {
        self.docs.insert(uri.into(), doc);
    }

    /// Binds an external variable visible to every query as `$name`.
    pub fn bind(&mut self, name: impl Into<String>, value: Sequence) {
        self.globals.insert(name.into(), Arc::new(value));
    }

    /// Binds an external variable to a single node.
    pub fn bind_node(&mut self, name: impl Into<String>, node: NodeId) {
        self.bind(name, Sequence::singleton(Item::Node(node)));
    }

    /// Compiles (parses, optionally optimizes, lowers) a query. Runs on the
    /// engine's persistent big-stack thread: the recursive-descent parser's
    /// depth guard allows more nesting than small default stacks hold in
    /// debug builds.
    pub fn compile(&self, source: &str) -> Result<CompiledQuery> {
        let pool = Arc::clone(&self.pool);
        pool.run(|| self.compile_on_this_thread(source))
    }

    fn compile_on_this_thread(&self, source: &str) -> Result<CompiledQuery> {
        let mut module = parse_module(source)?;
        if self.options.static_typing {
            let diagnostics = crate::static_typing::check_module(&module);
            if let Some(first) = diagnostics.first() {
                return Err(Error::new(
                    crate::error::ErrorCode::XPTY0004,
                    format!(
                        "static typing: {first} ({} diagnostic(s) total)",
                        diagnostics.len()
                    ),
                ));
            }
        }
        let stats = if self.options.optimize {
            optimize_module(
                &mut module,
                OptimizerOptions {
                    trace_is_pure: self.options.galax_quirks,
                },
            )
        } else {
            OptimizerStats::default()
        };
        // Lowering runs AFTER the (quirks-aware) optimizer: trace-DCE and
        // friends see the tree they always saw, and the lowered program is a
        // faithful translation of the optimizer's output.
        let mut program = lower_module(&module)?;
        let plan_stats = if self.options.runtime_opt {
            // The lowered-plan pass only touches the program the runner
            // executes; the retained module (and thus the reference walker)
            // is untouched, which is what lets the differential suite hold
            // the two observably identical.
            crate::lopt::optimize_program(&mut program)
        } else {
            crate::lopt::PlanStats::default()
        };
        Ok(CompiledQuery {
            module: Arc::new(module),
            program: Arc::new(program),
            stats,
            plan_stats,
        })
    }

    /// Evaluates a compiled query (through the lowered program).
    /// `context_node`, when given, becomes the context item (focus position
    /// 1 of 1). See [`Engine::evaluate_with_focus`] for where it runs.
    pub fn evaluate(
        &mut self,
        query: &CompiledQuery,
        context_node: Option<NodeId>,
    ) -> Result<Sequence> {
        self.evaluate_with_focus(query, context_node.map(|node| (Item::Node(node), 1, 1)))
    }

    /// Evaluates a compiled query with `focus` as its context item,
    /// position and size — what an XSLT template's XPath sees.
    ///
    /// The plan's [`Route`] picks the thread. A plan that cannot recurse
    /// (no user function on a call cycle, at most
    /// [`crate::lower::INLINE_DEPTH`] nesting levels) runs on the caller's
    /// thread; any other runs on one of the pool's big-stack workers,
    /// because functional-style XQuery recurses where imperative code
    /// loops. Either way it holds one of the pool's permits while it runs.
    /// An inline run needs about 1 MiB of the caller's stack in a debug
    /// build, well under the 2 MiB std gives a spawned thread.
    pub fn evaluate_with_focus(
        &mut self,
        query: &CompiledQuery,
        focus: Option<(Item, usize, usize)>,
    ) -> Result<Sequence> {
        let inline = matches!(query.program.route, Route::Inline { .. });
        let focus = focus.map(|(item, position, size)| Focus {
            item,
            position,
            size,
        });
        let pool = Arc::clone(&self.pool);
        let this = &mut *self;
        let (result, timing) = pool.run_timed(inline, move || this.evaluate_impl(query, focus));
        self.record_timing(timing);
        result
    }

    /// Evaluates through the **tree-walking reference evaluator** instead of
    /// the lowered program. Kept for differential testing (the lowered
    /// runner must be observably identical) and as the executable
    /// specification of the semantics.
    pub fn evaluate_reference(
        &mut self,
        query: &CompiledQuery,
        context_node: Option<NodeId>,
    ) -> Result<Sequence> {
        let pool = Arc::clone(&self.pool);
        let this = &mut *self;
        let (result, timing) = pool.run_timed(false, move || {
            this.evaluate_reference_impl(
                query,
                context_node.map(|node| Focus {
                    item: Item::Node(node),
                    position: 1,
                    size: 1,
                }),
            )
        });
        self.record_timing(timing);
        result
    }

    /// Folds a pool timing into the stats of the evaluation that just
    /// finished (the counter half was written by `evaluate_impl`).
    fn record_timing(&mut self, timing: PoolTiming) {
        self.last_stats.queue_wait_ns = timing.queue_wait_ns;
        self.last_stats.on_worker_ns = timing.on_worker_ns;
    }

    fn evaluate_impl(&mut self, query: &CompiledQuery, focus: Option<Focus>) -> Result<Sequence> {
        // Reset at ENTRY, not only on completion: a pooled engine that
        // serves query B after query A must never report A's counters as
        // B's — even when B panics out of the worker before publishing
        // (per-tenant aggregators read `last_stats` after every call,
        // including failed ones).
        self.last_stats = EvalStats::default();
        self.last_reuse = ReuseStats::default();
        let mut stats = EvalStats::default();
        let mut reuse = ReuseStats::default();
        let result = self.evaluate_with_stats(query, focus, &mut stats, &mut reuse);
        // Publish even on error: the counters up to the failure point are
        // part of the diagnostic story.
        self.last_stats = stats;
        self.last_reuse = reuse;
        result
    }

    fn evaluate_with_stats(
        &mut self,
        query: &CompiledQuery,
        focus: Option<Focus>,
        stats: &mut EvalStats,
        reuse: &mut ReuseStats,
    ) -> Result<Sequence> {
        let program: &Program = &query.program;
        let mut sink = EngineSink {
            events: &mut self.trace_events,
            extra: self.extra_sink.as_deref_mut(),
        };

        // External bindings come first (keyed by interned name) and may be
        // overridden by module declarations, which evaluate in order, each
        // seeing the previous ones.
        let mut globals: HashMap<Sym, Arc<Sequence>> = self
            .globals
            .iter()
            .map(|(name, value)| (intern(name), value.clone()))
            .collect();
        let mut ctx = DynamicContext::new();
        ctx.focus = focus;
        for decl in &program.globals {
            let value = {
                let mut env = RunEnv {
                    store: &mut self.store,
                    options: &self.options,
                    program,
                    docs: &self.docs,
                    globals: &globals,
                    trace: &mut sink,
                    stats: &mut *stats,
                    reuse: &mut *reuse,
                    depth: 0,
                    memo: Memo::default(),
                    frames: FramePool::default(),
                };
                let mut frame = Frame::new(decl.frame);
                run(&decl.expr, &mut env, &mut frame, &mut ctx)?
            };
            if let Some(ty) = &decl.ty {
                ty.check(
                    &value,
                    &self.store,
                    &format!("declare variable ${}", decl.name),
                )?;
            }
            globals.insert(decl.name, Arc::new(value));
        }

        let mut env = RunEnv {
            store: &mut self.store,
            options: &self.options,
            program,
            docs: &self.docs,
            globals: &globals,
            trace: &mut sink,
            stats,
            reuse,
            depth: 0,
            memo: Memo::default(),
            frames: FramePool::default(),
        };
        let mut frame = Frame::new(program.body_frame);
        run(&program.body, &mut env, &mut frame, &mut ctx)
    }

    fn evaluate_reference_impl(
        &mut self,
        query: &CompiledQuery,
        focus: Option<Focus>,
    ) -> Result<Sequence> {
        // The walker collects no counters, but it is still "the most recent
        // evaluation": leaving the previous lowered run's counters in
        // `last_stats` would double-count them in any aggregator that reads
        // stats after every call.
        self.last_stats = EvalStats::default();
        self.last_reuse = ReuseStats::default();
        let mut statics = StaticContext::default();
        for f in &query.module.functions {
            statics.declare(f.clone())?;
        }
        // The walker is the executable spec, not the measured engine: it
        // routes trace through the same sink but collects no counters.
        let mut sink = EngineSink {
            events: &mut self.trace_events,
            extra: self.extra_sink.as_deref_mut(),
        };

        // Module-level variables evaluate in order, each seeing the previous
        // ones; external bindings come first and may be overridden.
        let mut globals = self.globals.clone();
        let mut ctx = DynamicContext::new();
        ctx.focus = focus;
        for decl in &query.module.variables {
            let value = {
                let mut env = EvalEnv {
                    store: &mut self.store,
                    options: &self.options,
                    statics: &statics,
                    docs: &self.docs,
                    globals: &globals,
                    trace: &mut sink,
                    depth: 0,
                };
                eval(&decl.expr, &mut env, &mut ctx)?
            };
            if let Some(ty) = &decl.ty {
                ty.check(
                    &value,
                    &self.store,
                    &format!("declare variable ${}", decl.name),
                )?;
            }
            globals.insert(decl.name.clone(), Arc::new(value));
        }

        let mut env = EvalEnv {
            store: &mut self.store,
            options: &self.options,
            statics: &statics,
            docs: &self.docs,
            globals: &globals,
            trace: &mut sink,
            depth: 0,
        };
        eval(&query.module.body, &mut env, &mut ctx)
    }

    /// Compile-and-evaluate in one step.
    pub fn evaluate_str(&mut self, source: &str, context_node: Option<NodeId>) -> Result<Sequence> {
        let q = self.compile(source)?;
        self.evaluate(&q, context_node)
    }

    /// Human-readable rendering: atomics as text, nodes serialized,
    /// space-separated.
    pub fn display_sequence(&self, seq: &Sequence) -> String {
        display_sequence(seq, &self.store)
    }

    /// Serializes a sequence as XML (nodes serialized, atomics escaped as
    /// text, concatenated).
    pub fn serialize_sequence(&self, seq: &Sequence) -> String {
        seq.iter()
            .map(|item| match item {
                Item::Atomic(a) => xmlstore::serializer::escape_text(&a.to_text()),
                Item::Node(n) => self.store.to_xml(*n),
            })
            .collect::<Vec<_>>()
            .join("")
    }

    /// Drains the `fn:trace` output collected so far, rendered in the
    /// classic `"{label} {value}"` line format.
    pub fn take_trace(&mut self) -> Vec<String> {
        std::mem::take(&mut self.trace_events)
            .iter()
            .map(TraceEvent::legacy_line)
            .collect()
    }

    /// Drains the structured `fn:trace` events collected so far (label,
    /// rendered value, and source position of the `trace` call).
    pub fn take_trace_events(&mut self) -> Vec<TraceEvent> {
        std::mem::take(&mut self.trace_events)
    }

    /// Installs an additional trace sink. Every subsequent [`TraceEvent`]
    /// (from `fn:trace` or [`Engine::emit_trace`]) is forwarded to it
    /// *before* landing in the engine's own buffer, so a pipeline can watch
    /// traces live instead of draining them after the fact.
    pub fn set_trace_sink(&mut self, sink: Box<dyn TraceSink>) {
        self.extra_sink = Some(sink);
    }

    /// Routes a caller-made event through the same path `fn:trace` uses —
    /// extra sink first, then the engine buffer. Lets host pipelines
    /// (docgen's phase reports) share the query trace channel.
    pub fn emit_trace(&mut self, event: TraceEvent) {
        let mut sink = EngineSink {
            events: &mut self.trace_events,
            extra: self.extra_sink.as_deref_mut(),
        };
        sink.event(event);
    }

    /// Counters and pool timing from the most recent `evaluate*` call on
    /// this engine. Written even when the evaluation returned an error.
    pub fn last_stats(&self) -> &EvalStats {
        &self.last_stats
    }

    /// The reuse counters (keyed split probes, memo hits, pushed nodes) of the same
    /// evaluation as [`Engine::last_stats`].
    pub fn last_reuse_stats(&self) -> &ReuseStats {
        &self.last_reuse
    }

    /// Renders the lowered-and-optimised plan for `query` as an annotated
    /// tree: which FLWOR clauses became hash-join build sides, why a join
    /// was refused, where loop-invariant caches sit, which calls stream
    /// or answer from the store indexes, and — with this engine's
    /// `runtime_opt` on — which element content runs in push mode.
    pub fn explain(&self, query: &CompiledQuery) -> String {
        crate::obs::explain(&query.program, &query.plan_stats, self.options.runtime_opt)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(src: &str) -> String {
        let mut e = Engine::new();
        let out = e.evaluate_str(src, None).unwrap();
        e.display_sequence(&out)
    }

    #[test]
    fn arithmetic_and_flwor() {
        assert_eq!(run("for $i in 1 to 4 return $i * $i"), "1 4 9 16");
        assert_eq!(run("6 div 4"), "1.5");
        assert_eq!(run("6 div 2"), "3");
        assert_eq!(run("7 idiv 2"), "3");
        assert_eq!(run("7 mod 2"), "1");
    }

    #[test]
    fn let_and_where_and_order() {
        assert_eq!(
            run("for $i in (3,1,2) let $d := $i * 10 where $d > 10 order by $i descending return $d"),
            "30 20"
        );
    }

    #[test]
    fn paths_over_documents() {
        let mut e = Engine::new();
        let doc = e
            .load_document("<lib><book year='1983'><title>A</title></book><book year='2005'><title>B</title></book></lib>")
            .unwrap();
        let out = e
            .evaluate_str("/lib/book[@year=\"2005\"]/title", Some(doc))
            .unwrap();
        assert_eq!(e.serialize_sequence(&out), "<title>B</title>");
        let out = e.evaluate_str("count(//book)", Some(doc)).unwrap();
        assert_eq!(e.display_sequence(&out), "2");
        let out = e.evaluate_str("/lib/book[1]/title", Some(doc)).unwrap();
        assert_eq!(e.serialize_sequence(&out), "<title>A</title>");
    }

    #[test]
    fn external_bindings_and_doc() {
        let mut e = Engine::new();
        let doc = e.load_document("<m><x>7</x></m>").unwrap();
        e.register_document("model", doc);
        e.bind("offset", Sequence::singleton(Item::integer(3)));
        let out = e
            .evaluate_str("number(doc(\"model\")/m/x) + $offset", None)
            .unwrap();
        assert_eq!(e.display_sequence(&out), "10");
    }

    #[test]
    fn user_functions_recursion() {
        let src = r#"
            declare function local:fact($n as xs:integer) as xs:integer {
                if ($n le 1) then 1 else $n * local:fact($n - 1)
            };
            local:fact(6)
        "#;
        assert_eq!(run(src), "720");
    }

    #[test]
    fn runaway_recursion_hits_the_limit() {
        let mut e = Engine::with_options(EngineOptions {
            recursion_limit: 64,
            ..Default::default()
        });
        let err = e
            .evaluate_str(
                "declare function local:loop($n) { local:loop($n + 1) }; local:loop(0)",
                None,
            )
            .unwrap_err();
        assert!(err.message.contains("recursion limit"), "{}", err.message);
    }

    #[test]
    fn module_variables_see_earlier_ones() {
        assert_eq!(
            run("declare variable $a := 2; declare variable $b := $a * 3; $b"),
            "6"
        );
    }

    #[test]
    fn trace_collected_and_returns_last() {
        let mut e = Engine::with_options(EngineOptions {
            optimize: false,
            ..Default::default()
        });
        let out = e
            .evaluate_str("let $x := trace(\"x=\", 5) return $x + 1", None)
            .unwrap();
        assert_eq!(e.display_sequence(&out), "6");
        assert_eq!(e.take_trace(), vec!["x= 5"]);
    }

    #[test]
    fn galax_mode_eats_dead_traces() {
        let src = "let $x := 1 let $dummy := trace(\"x=\", $x) return $x";
        let mut galax = Engine::galax();
        let out = galax.evaluate_str(src, None).unwrap();
        assert_eq!(galax.display_sequence(&out), "1");
        assert!(
            galax.take_trace().is_empty(),
            "the trace was optimized away"
        );

        let mut fixed = Engine::new();
        fixed.evaluate_str(src, None).unwrap();
        assert_eq!(fixed.take_trace(), vec!["x= 1"]);
    }

    #[test]
    fn error_kills_the_program() {
        let mut e = Engine::new();
        let err = e.evaluate_str("(1, error(\"doom\"), 3)", None).unwrap_err();
        assert_eq!(err.code, crate::error::ErrorCode::FOER0000);
        assert_eq!(err.message, "doom");
    }

    #[test]
    fn quantifiers() {
        assert_eq!(run("some $x in (1,2,3) satisfies $x gt 2"), "true");
        assert_eq!(run("every $x in (1,2,3) satisfies $x gt 2"), "false");
        assert_eq!(run("every $x in () satisfies false()"), "true");
    }

    #[test]
    fn serialize_escapes_atomics() {
        let mut e = Engine::new();
        let out = e.evaluate_str("\"a<b\"", None).unwrap();
        assert_eq!(e.serialize_sequence(&out), "a&lt;b");
    }

    /// The text of a caught panic payload, whether the compiler produced a
    /// formatted `String` or const-folded the format into a `&'static str`.
    fn payload_text(payload: &(dyn std::any::Any + Send)) -> &str {
        payload
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| payload.downcast_ref::<&'static str>().copied())
            .expect("panic payload carries no text")
    }

    #[test]
    fn panic_payload_survives_the_worker_hop() {
        let pool = StackPool::new(1);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.run(|| panic!("original message {}", 42))
        }))
        .unwrap_err();
        assert_eq!(payload_text(caught.as_ref()), "original message 42");
        // The worker caught the panic and still serves the next job.
        assert_eq!(pool.run(|| 7), 7);
    }

    #[test]
    fn runtime_formatted_panic_payload_survives_too() {
        // A runtime value in the format args forces a heap `String` payload;
        // the exact text must still survive the hop.
        let pool = StackPool::new(1);
        let dynamic: usize = std::env::args().count().max(1);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.run(|| panic!("dynamic message {}", dynamic * 10))
        }))
        .unwrap_err();
        assert_eq!(
            payload_text(caught.as_ref()),
            format!("dynamic message {}", dynamic * 10)
        );
    }

    #[test]
    fn batch_results_come_back_in_submission_order() {
        let pool = StackPool::new(4);
        let jobs: Vec<_> = (0..32).map(|i| move || i * i).collect();
        assert_eq!(
            pool.run_batch(jobs),
            (0..32).map(|i| i * i).collect::<Vec<i64>>()
        );
    }

    #[test]
    fn batch_overlaps_across_workers() {
        // A handshake only two simultaneously running jobs can complete:
        // with a single worker (or serialized execution) this would hang,
        // so passing proves the pool genuinely overlaps jobs.
        let pool = StackPool::new(2);
        let barrier = Arc::new(std::sync::Barrier::new(2));
        let jobs: Vec<_> = (0..2)
            .map(|i| {
                let barrier = Arc::clone(&barrier);
                move || {
                    barrier.wait();
                    i
                }
            })
            .collect();
        assert_eq!(pool.run_batch(jobs), vec![0, 1]);
    }

    #[test]
    fn batch_panic_is_reraised_after_the_batch_drains() {
        let pool = StackPool::new(2);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let jobs: Vec<Box<dyn FnOnce() -> i64 + Send>> = vec![
                Box::new(|| 1),
                Box::new(|| panic!("job two failed")),
                Box::new(|| 3),
            ];
            pool.run_batch(jobs)
        }))
        .unwrap_err();
        // The re-raised payload names the failing job's index in the batch.
        assert_eq!(payload_text(caught.as_ref()), "batch job 1: job two failed");
        // The pool is still healthy afterwards.
        assert_eq!(pool.run(|| 11), 11);
    }

    #[test]
    fn nested_run_from_a_worker_runs_inline() {
        // One worker: a true re-enqueue would deadlock, so returning at all
        // proves the nested call ran inline on the worker thread.
        let pool = Arc::new(StackPool::new(1));
        let inner = Arc::clone(&pool);
        let batch_inner = Arc::clone(&pool);
        assert_eq!(pool.run(move || inner.run(|| 5)), 5);
        assert_eq!(
            pool.run(move || batch_inner.run_batch(vec![|| 1, || 2])),
            vec![1, 2]
        );
    }

    /// 4 threads, each alternating inline and pooled runs on a 2-worker
    /// pool: the permits keep at most 2 runs in flight, whichever thread
    /// runs them. The threads start each run together, and a run stays in
    /// flight for a few milliseconds, so an uncapped route would show 3 or
    /// 4 at once.
    #[test]
    fn permits_cap_runs_in_flight_across_routes() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let pool = StackPool::new(2);
        let round = std::sync::Barrier::new(4);
        let (in_flight, most) = (AtomicUsize::new(0), AtomicUsize::new(0));
        let work = || {
            let now = in_flight.fetch_add(1, Ordering::SeqCst) + 1;
            most.fetch_max(now, Ordering::SeqCst);
            std::thread::sleep(std::time::Duration::from_millis(5));
            in_flight.fetch_sub(1, Ordering::SeqCst);
        };
        std::thread::scope(|scope| {
            for t in 0..4 {
                let (pool, round, work) = (&pool, &round, &work);
                scope.spawn(move || {
                    for i in 0..8 {
                        round.wait();
                        pool.run_timed((t + i) % 2 == 0, work);
                    }
                });
            }
        });
        assert_eq!(most.load(Ordering::SeqCst), 2, "runs in flight");
    }

    /// The permit of an inline run that panics goes back as it unwinds: a
    /// leak would leave this 1-worker pool with no permit for the next run.
    #[test]
    fn permits_survive_a_panicking_inline_run() {
        let pool = Arc::new(StackPool::new(1));
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.run_timed(true, || panic!("inline boom"))
        }))
        .unwrap_err();
        assert_eq!(payload_text(caught.as_ref()), "inline boom");
        // On its own thread, so a leaked permit fails the test instead of
        // hanging it.
        let (done, wait) = mpsc::channel();
        let runner = std::thread::spawn(move || {
            let _ = done.send((pool.run_timed(true, || 3).0, pool.run(|| 4)));
        });
        assert_eq!(
            wait.recv_timeout(std::time::Duration::from_secs(10)),
            Ok((3, 4)),
            "the permit leaked"
        );
        runner.join().unwrap();
    }

    /// 8 threads, each mixing inline and pooled runs on a 2-worker pool, so
    /// most acquires wait: a release that skipped a waiter would leave it
    /// asleep beside a free permit and the runs would never all finish. The
    /// cap holds too: never more than 2 runs in flight.
    #[test]
    fn permits_wake_every_waiter_under_contention() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        const THREADS: usize = 8;
        const RUNS: usize = 200;
        let pool = Arc::new(StackPool::new(2));
        let in_flight = Arc::new(AtomicUsize::new(0));
        let most = Arc::new(AtomicUsize::new(0));
        let (done, finished) = mpsc::channel();
        let runners: Vec<_> = (0..THREADS)
            .map(|t| {
                let (pool, in_flight, most, done) = (
                    Arc::clone(&pool),
                    Arc::clone(&in_flight),
                    Arc::clone(&most),
                    done.clone(),
                );
                std::thread::spawn(move || {
                    for i in 0..RUNS {
                        let work = || {
                            let now = in_flight.fetch_add(1, Ordering::SeqCst) + 1;
                            most.fetch_max(now, Ordering::SeqCst);
                            std::thread::yield_now();
                            in_flight.fetch_sub(1, Ordering::SeqCst);
                        };
                        pool.run_timed((t + i) % 3 != 0, work);
                    }
                    let _ = done.send(t);
                })
            })
            .collect();
        drop(done);
        // Bounded, so a sleeping waiter fails the test instead of hanging it.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(60);
        for _ in 0..THREADS {
            let left = deadline.saturating_duration_since(std::time::Instant::now());
            assert!(finished.recv_timeout(left).is_ok(), "a run never finished");
        }
        for runner in runners {
            runner.join().unwrap();
        }
        assert!(most.load(Ordering::SeqCst) <= 2, "runs in flight");
        assert_eq!(in_flight.load(Ordering::SeqCst), 0);
    }

    /// A plan with a function on a call cycle, direct or mutual, takes the
    /// pool and names that function; one without runs inline. Reaching
    /// `recursion_limit` on the pool is still the structured error.
    #[test]
    fn recursive_plans_route_to_the_pool() {
        let e = Engine::new();
        let route = |src: &str| e.compile(src).unwrap().program.route;
        assert_eq!(
            route("declare function local:f($n) { if ($n = 0) then 0 else local:f($n - 1) }; local:f(3)"),
            Route::Recursive(intern("local:f"))
        );
        assert_eq!(
            route(
                "declare function local:even($n) { if ($n = 0) then true() else local:odd($n - 1) };
                 declare function local:odd($n) { if ($n = 0) then false() else local:even($n - 1) };
                 declare function local:main() { local:even(4) };
                 local:main()"
            ),
            Route::Recursive(intern("local:even"))
        );
        // An unreachable cycle does not count.
        assert!(matches!(
            route("declare function local:loop() { local:loop() }; 1 + 1"),
            Route::Inline { .. }
        ));
        let plan = e
            .compile("declare function local:loop($n) { local:loop($n + 1) }; local:loop(0)")
            .unwrap();
        assert!(e
            .explain(&plan)
            .contains("route: pool (local:loop recurses)"));
        let mut limited = Engine::with_options(EngineOptions {
            recursion_limit: 64,
            ..Default::default()
        });
        let err = limited.evaluate(&plan, None).unwrap_err();
        assert_eq!(err.code, crate::error::ErrorCode::Internal, "{err}");
        assert_eq!(err.message, "recursion limit of 64 exceeded");
        assert!(err.position.is_some(), "the error keeps its call site");
    }

    /// The worker stack holds the default `recursion_limit` in a debug
    /// build: both probe shapes (see `WORKER_STACK_BYTES`) answer 2,040
    /// levels deep and return the structured error at 3,000, with the
    /// runtime optimiser on and off.
    #[test]
    fn worker_stack_holds_the_default_recursion_limit() {
        let pool = Arc::new(StackPool::new(1));
        let shapes = [
            (
                "declare function local:f($n) { if ($n = 0) then 0 else local:f($n - 1) };
                 local:f(LEVELS)",
                "0",
            ),
            (
                "declare function local:g($n) {
                   for $i in 1 return <a>{ if ($n = 0) then () else local:g($n - 1) }</a>
                 };
                 count(local:g(LEVELS)/descendant-or-self::a)",
                "2041",
            ),
        ];
        for runtime_opt in [true, false] {
            let options = EngineOptions {
                runtime_opt,
                ..Default::default()
            };
            let mut e = Engine::with_pool(options, Arc::clone(&pool));
            for (shape, answer) in shapes {
                let out = e
                    .evaluate_str(&shape.replace("LEVELS", "2040"), None)
                    .unwrap();
                assert_eq!(e.display_sequence(&out), answer);
                let err = e
                    .evaluate_str(&shape.replace("LEVELS", "3000"), None)
                    .unwrap_err();
                assert_eq!(err.message, "recursion limit of 2048 exceeded");
                assert!(err.position.is_some(), "the error keeps its call site");
            }
        }
        // A deeper limit than the stack holds is lowered to the one it holds.
        let mut e = Engine::with_options(EngineOptions {
            recursion_limit: 100_000_000,
            ..Default::default()
        });
        assert_eq!(e.options().recursion_limit, MAX_RECURSION_LIMIT);
        let err = e
            .evaluate_str(&shapes[0].0.replace("LEVELS", "3000"), None)
            .unwrap_err();
        assert_eq!(err.message, "recursion limit of 2048 exceeded");
    }

    /// A recursive `local:copy`, the shape of the docgen copy phases, over
    /// a 2,000-level document answers on the worker stack in a debug
    /// build, with constructor content in push mode and without; over a
    /// 3,000-level one it returns the structured recursion-limit error.
    #[test]
    fn recursive_copy_of_a_deep_document_fits_the_recursion_limit() {
        let copy = "declare function local:copy($n) {
                      if ($n instance of element())
                      then element {name($n)} { $n/@*, for $c in $n/node() return local:copy($c) }
                      else $n
                    };
                    count(local:copy(/*)/descendant-or-self::l)";
        let pool = Arc::new(StackPool::new(1));
        for runtime_opt in [true, false] {
            let options = EngineOptions {
                runtime_opt,
                ..Default::default()
            };
            let mut e = Engine::with_pool(options, Arc::clone(&pool));
            let q = e.compile(copy).unwrap();
            for (levels, answer) in [(2000, Some("2000")), (3000, None)] {
                let xml = format!("{}t{}", "<l k='v'>".repeat(levels), "</l>".repeat(levels));
                let doc = e.load_document(&xml).unwrap();
                match answer {
                    Some(answer) => {
                        let out = e.evaluate(&q, Some(doc)).unwrap();
                        assert_eq!(e.display_sequence(&out), answer);
                    }
                    None => {
                        let err = e.evaluate(&q, Some(doc)).unwrap_err();
                        assert_eq!(err.message, "recursion limit of 2048 exceeded");
                        assert!(err.position.is_some(), "the error keeps its call site");
                    }
                }
            }
        }
    }

    #[test]
    fn engines_share_a_pool_and_compiled_queries() {
        let pool = Arc::new(StackPool::new(2));
        let compiler = Engine::with_pool(EngineOptions::default(), Arc::clone(&pool));
        let query = compiler.compile("for $i in 1 to 3 return $i * $i").unwrap();
        // A clone of the compiled query shares the same lowered program.
        let clone = query.clone();
        assert!(Arc::ptr_eq(&query.program, &clone.program));
        // A different engine on the same pool evaluates it: compiled
        // artifacts only hold process-wide interned symbols.
        let mut other = Engine::with_pool(EngineOptions::default(), pool);
        let out = other.evaluate(&clone, None).unwrap();
        assert_eq!(other.display_sequence(&out), "1 4 9");
    }

    #[test]
    fn pooled_engine_matches_the_default_engine() {
        let src = "declare variable $n := 4; string-join(for $i in 1 to $n return string($i * $i), \",\")";
        let mut plain = Engine::new();
        let out = plain.evaluate_str(src, None).unwrap();
        let expected = plain.display_sequence(&out);
        let mut pooled = Engine::with_pool(EngineOptions::default(), Arc::new(StackPool::new(4)));
        let out = pooled.evaluate_str(src, None).unwrap();
        let got = pooled.display_sequence(&out);
        assert_eq!(expected, got);
    }

    #[test]
    fn cache_key_separates_every_semantics_config() {
        // The eight configurations the differential suite sweeps must all
        // fingerprint differently — sharing a plan across any pair of them
        // is the cross-tenant leak the service plan cache exists to prevent.
        let configs: Vec<EngineOptions> = crate::differential::engine_configs()
            .into_iter()
            .map(|(_, options)| options)
            .collect();
        let keys: Vec<String> = configs.iter().map(EngineOptions::cache_key).collect();
        for (i, a) in keys.iter().enumerate() {
            for (j, b) in keys.iter().enumerate() {
                if i != j {
                    assert_ne!(a, b, "configs {i} and {j} collide: {a}");
                }
            }
        }
    }

    #[test]
    fn pooled_engine_reports_per_query_stat_deltas_not_totals() {
        // One engine, two queries back to back — the service's engine-reuse
        // shape. `last_stats` after B must describe B alone.
        let mut e = Engine::new();
        let doc = e
            .load_document("<r><item/><item/><item/><item/></r>")
            .unwrap();
        let heavy = e.compile("count(//item)").unwrap();
        let light = e.compile("1 + 1").unwrap();

        e.evaluate(&heavy, Some(doc)).unwrap();
        let a = e.last_stats().counters();
        assert!(
            a.index_hits + a.items_allocated + a.items_streamed > 0,
            "query A should count something: {a:?}"
        );

        e.evaluate(&light, None).unwrap();
        let b = e.last_stats().counters();
        assert_eq!(b.index_hits, 0, "B inherited A's index hits: {b:?}");
        assert_eq!(b.items_streamed, 0, "B inherited A's streams: {b:?}");
        assert!(
            b.items_allocated <= 1,
            "B's allocation count must be its own: {b:?}"
        );

        // The error path publishes the failing query's own counters too.
        let failing = e.compile("count(//item) + error(\"boom\")").unwrap();
        e.evaluate(&failing, Some(doc)).unwrap_err();
        let c = e.last_stats().counters();
        assert!(
            c.index_hits > 0 || c.items_streamed > 0,
            "the failing query ran its path before raising: {c:?}"
        );

        // A reference-walker run collects no counters — and must not leave
        // the previous lowered run's numbers behind as if it had.
        e.evaluate_reference(&light, None).unwrap();
        assert_eq!(
            e.last_stats().counters(),
            EvalStats::default(),
            "reference run left stale counters"
        );
    }

    /// The Send/Sync audit the pool relies on, checked by the compiler:
    /// compiled programs and sequences cross thread boundaries, engines
    /// move onto workers, and the pool itself is shared behind an `Arc`.
    #[test]
    fn concurrency_audit_compile_time_assertions() {
        fn send_sync<T: Send + Sync>() {}
        fn send<T: Send>() {}
        send_sync::<Program>();
        send_sync::<Module>();
        send_sync::<CompiledQuery>();
        send_sync::<Sequence>();
        send_sync::<StackPool>();
        send_sync::<Store>();
        send::<Engine>();
    }
}
