//! Heap allocations per hot `QUERY` round trip, client and server together.
//!
//! A counting global allocator sees every allocation of this test binary,
//! on the client's thread and the service's alike, so the file holds one
//! test and nothing else runs beside it. The count is a property of the
//! code, not of the machine: unlike a latency gate it cannot flake. The
//! ceiling keeps the per-request fixed costs down: the frame codec, the
//! plan-cache probe (no owned key on a hit), the tenant fold (one lock, no
//! name or uri copy once recorded) and the reply.
//!
//! Run with `--nocapture` to print the count.

use qsvc::{Client, Service, ServiceConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

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

/// The most heap allocations one hot point-query round trip may make,
/// evaluation included.
const MAX_ALLOCATIONS_PER_ROUND_TRIP: u64 = 30;

const ROUND_TRIPS: u64 = 200;

#[test]
fn a_hot_query_round_trip_stays_under_its_allocation_ceiling() {
    // 1,000 people with a name each: 2,000 elements under the root.
    let mut xml = String::from("<people>");
    for i in 0..1000 {
        xml.push_str(&format!(
            "<person id=\"p{i}\"><name>Person {i}</name></person>"
        ));
    }
    xml.push_str("</people>");
    let query = "string(/people/person[@id = \"p734\"]/name)";

    let service = Service::spawn(ServiceConfig::default()).expect("the service starts");
    let mut client = Client::connect(service.addr(), Some("alloc")).expect("a client connects");
    client.load("people", &xml).expect("the document loads");
    // Warm up: the first run compiles the plan, mounts the document and
    // builds its index; the next ones settle every reused buffer.
    for _ in 0..3 {
        assert_eq!(client.query("people", query).unwrap(), "Person 734");
    }

    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for _ in 0..ROUND_TRIPS {
        let reply = client.query("people", query).unwrap();
        assert_eq!(reply, "Person 734");
    }
    let per_round_trip = (ALLOCATIONS.load(Ordering::Relaxed) - before) / ROUND_TRIPS;
    println!("allocations per hot round trip: {per_round_trip}");

    let stats = service
        .tenant_stats("alloc")
        .expect("the tenant is recorded");
    assert_eq!(stats.queries, ROUND_TRIPS + 3);
    assert_eq!(stats.plan_hits, ROUND_TRIPS + 2);
    assert!(
        per_round_trip <= MAX_ALLOCATIONS_PER_ROUND_TRIP,
        "{per_round_trip} allocations per hot round trip, ceiling {MAX_ALLOCATIONS_PER_ROUND_TRIP}"
    );
    client.quit().unwrap();
}
