//! Allocations per served frame, counted: a counting global allocator for
//! this crate's unit tests, and the pinned count of each warmed frame
//! through [`handle_line_into`] with a reused reply buffer. A count is
//! deterministic for a given frame and catalog, so the gate is equality.

use crate::engine::{ServiceConfig, ValidationService};
use crate::protocol::handle_line_into;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Allocations (reallocations included) made on this thread.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// [`System`], counting each allocation on the thread that makes it.
struct Counting;

fn count() {
    // A thread's allocations after its locals are torn down go uncounted.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; counting only touches a thread-local
// `Cell` whose initializer is `const` and which has no destructor, so it
// never allocates or re-enters the allocator.
#[allow(unsafe_code)]
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller's `layout` obligations pass through unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: `ptr` came from this allocator, that is from `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, that is from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations `f` makes on this thread.
fn allocations(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

/// A service over the tiny lake with a `status` rule and twelve rules
/// that accept the same dates.
fn service_with_rules() -> ValidationService {
    let service = ValidationService::new(ServiceConfig::default());
    let lake = av_corpus::generate_lake(&av_corpus::LakeProfile::tiny(), 19);
    let columns: Vec<av_corpus::Column> = lake.columns().cloned().collect();
    service.ingest(&columns).expect("ingest the tiny lake");
    let dates: Vec<String> = (1..=28).map(|d| format!("2019-03-{d:02}")).collect();
    for i in 0..12 {
        service
            .infer_rule(&format!("dates/{i:02}"), &dates, None)
            .expect("infer a date rule");
    }
    let statuses: Vec<&str> = (0..60)
        .map(|i| ["Delivered", "Pending", "Rejected"][i % 3])
        .collect();
    service
        .infer_rule("status", &statuses, None)
        .expect("infer the status rule");
    service
}

/// Each frame's allocations once warmed: the classifies' counts do not
/// depend on how many rules match (0, 1, 12), and a frame that parses to
/// a one-node request map allocates that node and nothing else.
#[test]
fn warmed_frames_allocate_what_is_pinned() {
    const PINNED: [(&str, u64); 5] = [
        (r#"{"op":"classify","value":"!!!"}"#, 1),
        (r#"{"op":"classify","value":"Pending"}"#, 1),
        (r#"{"op":"classify","value":"2019-03-14"}"#, 1),
        (r#"{"op":"ping"}"#, 1),
        (
            r#"{"op":"validate","rule":"status","values":["Pending","x"]}"#,
            3,
        ),
    ];
    let service = service_with_rules();
    let matches: Vec<usize> = ["!!!", "Pending", "2019-03-14"]
        .iter()
        .map(|v| service.classify_value(v).matches.len())
        .collect();
    assert_eq!(matches, [0, 1, 12], "rules matched per classify frame");
    let mut out = String::new();
    let counted: Vec<(&str, u64)> = PINNED
        .iter()
        .map(|&(frame, _)| {
            for _ in 0..3 {
                handle_line_into(&service, frame, &mut out);
            }
            (
                frame,
                allocations(|| drop(handle_line_into(&service, frame, &mut out))),
            )
        })
        .collect();
    assert_eq!(counted, PINNED);
}
