//! Allocation counts of the collection hot path, pinned exactly.
//!
//! A counting `#[global_allocator]` tallies allocation calls per thread,
//! so tests running concurrently in this binary never see each other's
//! traffic. Each count is taken on a warm thread: the thread-local run
//! cache (`stm_core::runner`) already holds its hardware context and
//! interpreter scratch, as it does for every run after a worker's first.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use stm_core::engine::{DiagnosisSession, ProfileKind};
use stm_core::runner::Runner;
use stm_hardware::{HardwareCtx, HwConfig};
use stm_suite::eval::lbra_runner;
use stm_suite::Benchmark;

/// The system allocator, counting allocation calls per thread.
struct Counting;

thread_local! {
    // Const-initialised and without a destructor, so counting never
    // allocates and stays valid while a thread tears down.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn tally() {
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the tally never influences what is
// returned.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        tally();
        // SAFETY: the caller's guarantees for `layout` are passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        tally();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this `layout`, as the
        // caller guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        tally();
        // SAFETY: as for `dealloc`, and `new_size` is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Runs `f` and returns its result with the allocation calls it made on
/// this thread. The result is dropped by the caller, outside the count.
fn allocations<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (out, ALLOCS.with(Cell::get) - before)
}

fn sort() -> (Benchmark, Runner) {
    let b = stm_suite::by_id("sort").expect("sort benchmark");
    let runner = lbra_runner(&b);
    (b, runner)
}

#[test]
fn runner_clone_shares_the_machine() {
    let (_, runner) = sort();
    let (clone, n) = allocations(|| runner.clone());
    assert_eq!(n, 0, "a Runner clone bumps a reference count");
    assert!(std::ptr::eq(clone.machine(), runner.machine()));
}

#[test]
fn fresh_hardware_context_makes_ten_allocations() {
    let (_, n) = allocations(|| HardwareCtx::new(HwConfig::default()));
    assert_eq!(n, 10);
}

#[test]
fn warm_run_allocates_only_its_report() {
    let (b, runner) = sort();
    let (witness, spec) = (&b.workloads.failing[0], &b.truth.spec);
    runner.run_classified(witness, spec);
    let (_, n) = allocations(|| runner.run_classified(witness, spec));
    // The report's buffers: its log, profile, ring records, final
    // thread states and one more report vector.
    assert_eq!(n, 5);
}

#[test]
fn sequential_witness_session_allocation_count() {
    let (b, runner) = sort();
    let session = || {
        DiagnosisSession::from_runner(&runner)
            .failure(b.truth.spec.clone())
            .failing(b.workloads.failing.clone())
            .passing(b.workloads.passing.clone())
            .profile_kind(ProfileKind::Lbr)
            .threads(1)
            .collect()
            .expect("collection succeeds")
    };
    session();
    let (profiles, n) = allocations(session);
    assert_eq!(
        (profiles.failure_runs().len(), profiles.success_runs().len()),
        (10, 10)
    );
    // Mostly per kept run: the report's buffers, the witness name and
    // the replayed workload. The machine is shared, not copied.
    assert_eq!(n, 193, "allocation calls of one warm 10 + 10 session");
}
