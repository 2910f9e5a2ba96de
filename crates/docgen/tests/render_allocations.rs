//! Heap allocations per XQuery render of the System Context document.
//!
//! A counting global allocator sees every allocation of this test binary,
//! so the file holds one test and nothing else runs beside it. The count is
//! a property of the code, not of the machine: unlike a timing gate it
//! cannot flake. The ceiling keeps one-item sequences, frame slots, memo
//! probes and singleton comparisons off the heap (see `xquery::value`).
//!
//! Run with `--nocapture` to print the count of each phase.

use awb::workload::{it_architecture, it_metamodel, ItScale};
use docgen::batch::CompiledPipeline;
use docgen::xq::XqGenerator;
use docgen::{GenInputs, Template};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use xquery::{TraceEvent, TraceSink};

struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// The most heap allocations one render may make: preparing the engine
/// (model, metamodel and template documents) and running the five phases.
const MAX_ALLOCATIONS_PER_RENDER: u64 = 100_000;

/// The allocation count as each phase ended, by phase name.
type PhaseLog = Arc<Mutex<Vec<(String, u64)>>>;

/// Records the allocation count at each `docgen-phase` event, which the
/// generator emits as each phase ends.
struct PhaseMarks(PhaseLog);

impl TraceSink for PhaseMarks {
    fn event(&mut self, event: TraceEvent) {
        if event.label == "docgen-phase" {
            let name = event.value.split(':').next().unwrap_or("").to_string();
            self.0
                .lock()
                .expect("phase marks lock")
                .push((name, allocations()));
        }
    }
}

#[test]
fn a_system_context_render_stays_under_its_allocation_ceiling() {
    let model = it_architecture(ItScale::about(100), 7);
    let meta = it_metamodel();
    let template = Template::parse(docgen::template::SYSTEM_CONTEXT).expect("template parses");
    let pipeline = CompiledPipeline::standard().expect("pipeline compiles");
    let inputs = GenInputs {
        model: &model,
        meta: &meta,
        template: &template,
    };
    let render = |marks: Option<PhaseLog>| {
        let mut generator = XqGenerator::with_compiled(&inputs, &pipeline).expect("prepares");
        if let Some(marks) = marks {
            let prepared = ("prepare".to_string(), allocations());
            marks.lock().expect("phase marks lock").push(prepared);
            generator.set_trace_sink(Box::new(PhaseMarks(marks)));
        }
        generator.run().expect("renders")
    };
    // The first render starts the engine's worker thread and fills the
    // process-wide symbol interner; count a later one.
    let first = render(None);
    let marks = PhaseLog::default();
    let before = allocations();
    let second = render(Some(marks.clone()));
    let used = allocations() - before;
    assert_eq!(first.xml, second.xml, "renders differ");

    let mut last = before;
    for (phase, at) in marks.lock().expect("phase marks lock").iter() {
        println!("{phase}: {} allocations", at - last);
        last = *at;
    }
    println!("render total: {used} allocations");
    assert!(
        used <= MAX_ALLOCATIONS_PER_RENDER,
        "one System Context render made {used} heap allocations, over the \
         ceiling of {MAX_ALLOCATIONS_PER_RENDER}"
    );
}
