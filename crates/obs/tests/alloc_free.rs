//! Allocation freedom of the handle hot path: minting a handle may
//! allocate (name interning, map insert), but `inc`/`add`/`set`/`record`
//! and a span timer must never touch the allocator. Asserted with a
//! counting global allocator, not eyeballed.
//!
//! The count is kept per thread, so allocations made by the test
//! harness's other threads cannot perturb it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// System allocator wrapped with a per-thread allocation counter.
struct CountingAlloc;

thread_local! {
    // `const`-initialised and without a destructor: reading it from
    // inside the allocator never allocates or recurses
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

#[test]
fn handle_hot_path_is_allocation_free() {
    // the counter itself must see this thread's allocations, or a zero
    // below would prove nothing
    let before = allocations();
    std::hint::black_box(Vec::<u64>::with_capacity(4));
    assert_eq!(
        allocations() - before,
        1,
        "the counting allocator is not wired"
    );

    let registry = obs::Registry::new();
    // mint every handle *before* the measured window
    let counter = registry.counter("alloc.counter");
    let gauge = registry.gauge("alloc.gauge");
    let hist = registry.histogram("alloc.hist");
    // warm up any lazy state (first-record min/max etc.)
    counter.inc();
    gauge.set(1);
    hist.record(1);

    let before = allocations();
    for i in 0..10_000u64 {
        counter.inc();
        counter.add(i);
        gauge.set(i as i64);
        gauge.add(1);
        hist.record(i);
        let timer = hist.start();
        timer.stop();
    }
    let allocated = allocations() - before;
    assert_eq!(
        allocated, 0,
        "handle hot path allocated {allocated} times in 10k rounds"
    );
}
