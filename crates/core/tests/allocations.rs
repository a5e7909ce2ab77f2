//! Allocation counts of the collection hot path and of a batch ranking,
//! pinned exactly, and the heap a snapshot ingest retains per snapshot,
//! pinned from above.
//!
//! A counting `#[global_allocator]` tallies allocation calls and net heap
//! bytes per thread, so tests running concurrently in this binary never
//! see each other's traffic. Each count is taken on a warm thread: the
//! thread-local run cache (`stm_core::runner`) already holds its hardware
//! context and interpreter scratch, as it does for every run after a
//! worker's first.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use stm_core::converge::{SnapshotIngest, StabilityPolicy};
use stm_hardware::{HardwareCtx, HwConfig};
use stm_suite::eval::{default_threads, Deployment};

/// The system allocator, counting allocation calls and net heap bytes
/// per thread.
struct Counting;

thread_local! {
    // Const-initialised and without destructors, so counting never
    // allocates and stays valid while a thread tears down.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static LIVE_BYTES: Cell<i64> = const { Cell::new(0) };
}

/// Counts one allocation call that grew this thread's heap by `bytes`
/// (negative for a shrinking `realloc`).
fn tally(bytes: i64) {
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
    let _ = LIVE_BYTES.try_with(|c| c.set(c.get() + bytes));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the tally never influences what is
// returned.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        tally(layout.size() as i64);
        // SAFETY: the caller's guarantees for `layout` are passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        tally(layout.size() as i64);
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        let _ = LIVE_BYTES.try_with(|c| c.set(c.get() - layout.size() as i64));
        // SAFETY: `ptr` came from `System` with this `layout`, as the
        // caller guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        tally(new_size as i64 - layout.size() as i64);
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

/// Runs `f` and returns its result with the heap bytes this thread
/// allocated and has not freed by the time `f` returns — what the result
/// retains, when `f` frees everything else it allocates.
fn retained<T>(f: impl FnOnce() -> T) -> (T, i64) {
    let before = LIVE_BYTES.with(Cell::get);
    let out = f();
    (out, LIVE_BYTES.with(Cell::get) - before)
}

fn deploy(id: &str) -> Deployment {
    let b = stm_suite::by_id(id).expect("benchmark exists");
    Deployment::new(b, default_threads())
}

fn sort() -> Deployment {
    deploy("sort")
}

#[test]
fn runner_clone_shares_the_machine() {
    let runner = sort().runner;
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
    let d = sort();
    let (runner, witness, spec) = (&d.runner, &d.failing[0], &d.bench.truth.spec);
    runner.run_classified(witness, spec);
    let (_, n) = allocations(|| runner.run_classified(witness, spec));
    // The report's buffers: its log, profile, ring records, final
    // thread states and one more report vector.
    assert_eq!(n, 5);
}

#[test]
fn sequential_witness_session_allocation_count() {
    let d = sort();
    // sort's sequential 10 + 10 witness session.
    let session = || d.session(1).collect().expect("collection succeeds");
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

#[test]
fn warm_batch_ranking_allocation_counts() {
    // A ranking reads match counts only; the ids of a predictor's runs are
    // read from the model when a report asks, so no witness list is cloned
    // here.
    let d = sort();
    let profiles = d.session(1).collect().expect("collection succeeds");
    assert_eq!(profiles.stats().failure_runs_used, 10);
    assert_eq!(profiles.stats().success_runs_used, 10);
    let _ = profiles.lbra();
    let (_, n) = allocations(|| profiles.lbra());
    assert_eq!(n, 127, "allocation calls of a warm lbra() on sort");

    let d = deploy("apache4");
    let profiles = d.session(1).collect().expect("collection succeeds");
    let _ = profiles.lcra();
    let (_, n) = allocations(|| profiles.lcra());
    assert_eq!(n, 105, "allocation calls of a warm lcra() on apache4");
}

#[test]
fn snapshot_ingest_retains_at_most_its_pinned_bytes_per_snapshot() {
    const SNAPSHOTS: usize = 2_000;
    let d = sort();
    let profiles = d.session(1).collect().expect("collection succeeds");
    let failures = profiles.failure_runs().iter().map(|r| (true, r));
    let pool: Vec<_> = failures
        .chain(profiles.success_runs().iter().map(|r| (false, r)))
        .collect();
    assert_eq!(pool.len(), 20);
    let layout = d.runner.machine().layout().clone();
    let (ingest, bytes) = retained(|| {
        let mut ingest =
            SnapshotIngest::new(layout, d.bench.truth.spec.clone(), StabilityPolicy::never());
        for i in 0..SNAPSHOTS {
            let (is_failure, run) = pool[i % pool.len()];
            let witness = format!("r{i}:{}", run.witness);
            assert!(ingest.observe(is_failure, &witness, &run.report));
        }
        ingest
    });
    assert_eq!(ingest.witnesses(), SNAPSHOTS);
    // Measured at 118.8 B per snapshot; the bound leaves about 10%
    // headroom.
    let per_snapshot = bytes as f64 / SNAPSHOTS as f64;
    assert!(
        per_snapshot <= 131.0,
        "an ingest retains {per_snapshot:.1} B per snapshot"
    );
}
