//! Allocation gate: a ceiling on the allocator calls of one tiny simulated
//! query, per expanding algorithm.
//!
//! A tiny query (`paper_scaled(alg, 2000)`: 5k + 5k tuples, 64-tuple
//! chunks, 4 → 16 nodes) does little work per message, so what it asks of
//! the allocator is a large share of its cost: every routing broadcast, every
//! buffer regrown from empty, every fresh queue. This binary installs its own
//! global allocator, which counts the calls that obtain memory (`alloc`,
//! `alloc_zeroed`, `realloc`) made by the *calling* thread while it is armed,
//! so tests running beside it on other threads do not disturb the count. The
//! simulated backend runs the whole query on the calling thread.
//!
//! The count depends only on the code and the configuration, not on a clock
//! or the machine, but it is a ceiling rather than an exact pin: a change to
//! `std`'s collections (a growth policy, a hash map's table) may move it a
//! little without anything in this repository changing. What it guards
//! against is a per-message or per-recipient allocation coming back, which
//! moves it by hundreds.

use ehj_core::{Algorithm, JoinConfig, JoinRunner};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The system allocator, counting the calling thread's requests while armed.
struct Counting;

thread_local! {
    /// Calls that obtained memory on this thread since it was armed; `None`
    /// while disarmed. `const`-initialized and without a destructor, so
    /// reading it never allocates.
    static CALLS: Cell<Option<u64>> = const { Cell::new(None) };
}

fn note_call() {
    // `try_with`: the allocator also runs while a thread tears down.
    let _ = CALLS.try_with(|calls| {
        if let Some(n) = calls.get() {
            calls.set(Some(n + 1));
        }
    });
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds `GlobalAlloc`'s contract; the counting touches no allocated memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_call();
        // SAFETY: forwarded from the caller's contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_call();
        // SAFETY: forwarded from the caller's contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_call();
        // SAFETY: forwarded from the caller's contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded from the caller's contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Allocator calls `f` makes on this thread.
fn calls_of(f: impl FnOnce()) -> u64 {
    CALLS.with(|calls| calls.set(Some(0)));
    f();
    CALLS
        .with(|calls| calls.replace(None))
        .expect("armed above")
}

/// Allocator calls of one simulated tiny query of `alg`, its report
/// included. The query runs once before it is counted, so one-time set-up
/// in the process (lazy statics, thread-local registration) is not charged
/// to it.
fn tiny_query_calls(alg: Algorithm) -> u64 {
    let cfg = JoinConfig::paper_scaled(alg, 2000);
    let expected = JoinRunner::run(&cfg).expect("warm-up query").matches;
    let calls = calls_of(|| {
        let report = JoinRunner::run(&cfg).expect("counted query");
        assert_eq!(report.matches, expected, "{alg:?}: same query, same answer");
        assert!(report.expansions > 0, "{alg:?}: the tiny query must expand");
    });
    eprintln!("{alg:?}: {calls} allocator calls");
    calls
}

/// Asserts `alg`'s tiny query makes at most `ceiling` allocator calls.
///
/// Each ceiling is about 10% above the count measured when the gate was
/// set, and at most 60% of the count before routing tables were shared and
/// the source, forward and pending buffers allocated once (CHANGES.md
/// records both).
fn assert_under_ceiling(alg: Algorithm, ceiling: u64) {
    let calls = tiny_query_calls(alg);
    assert!(
        calls <= ceiling,
        "{alg:?}: a tiny simulated query made {calls} allocator calls, over its ceiling of {ceiling}"
    );
}

#[test]
fn a_tiny_hybrid_query_stays_under_its_allocation_ceiling() {
    // 1906 when set; 4324 before.
    assert_under_ceiling(Algorithm::Hybrid, 2090);
}

#[test]
fn a_tiny_split_query_stays_under_its_allocation_ceiling() {
    // 1749 when set; 3861 before.
    assert_under_ceiling(Algorithm::Split, 1920);
}

#[test]
fn a_tiny_replicated_query_stays_under_its_allocation_ceiling() {
    // 1426 when set; 3248 before.
    assert_under_ceiling(Algorithm::Replicated, 1570);
}
