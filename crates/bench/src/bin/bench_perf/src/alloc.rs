//! A counting global allocator: the system allocator plus counters of
//! live heap bytes and a resettable process-wide high-water mark, and per-thread
//! counts of allocation calls and net heap growth. Unlike the resident
//! set, the heap footprint does not depend on which pages of the
//! executable and libc the kernel happened to map. The per-thread counts
//! let a probe measure its own work while other threads (say, engine
//! workers still running their thread-local destructors) free memory.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

/// Forwards every call to [`System`] and counts it.
pub struct Counting;

static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);

thread_local! {
    // Const-initialised and without destructors, so reading them never
    // allocates and stays valid while the thread tears down.
    static THREAD_ALLOCS: Cell<u64> = const { Cell::new(0) };
    static THREAD_NET: Cell<i64> = const { Cell::new(0) };
}

fn grow(bytes: usize, calls: u64) {
    let live = LIVE.fetch_add(bytes as u64, Ordering::Relaxed) + bytes as u64;
    PEAK.fetch_max(live, Ordering::Relaxed);
    let _ = THREAD_ALLOCS.try_with(|c| c.set(c.get() + calls));
    let _ = THREAD_NET.try_with(|c| c.set(c.get() + bytes as i64));
}

fn shrink(bytes: usize) {
    LIVE.fetch_sub(bytes as u64, Ordering::Relaxed);
    let _ = THREAD_NET.try_with(|c| c.set(c.get() - bytes as i64));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters are statistics and
// never influence what is returned.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grow(layout.size(), 1);
        // SAFETY: the caller's guarantees for `layout` are passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        grow(layout.size(), 1);
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        shrink(layout.size());
        // SAFETY: `ptr` came from this allocator, i.e. from `System`, with
        // this `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if new_size >= layout.size() {
            grow(new_size - layout.size(), 1);
        } else {
            shrink(layout.size() - new_size);
            let _ = THREAD_ALLOCS.try_with(|c| c.set(c.get() + 1));
        }
        // SAFETY: as for `dealloc`, and `new_size` is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// A reading of the calling thread's counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ThreadStats {
    /// Allocation calls made by this thread (`realloc` counts as one).
    pub allocs: u64,
    /// Bytes this thread allocated minus bytes it freed.
    pub net: i64,
}

impl ThreadStats {
    /// Allocation calls between `earlier` and `self`.
    pub fn allocs_since(self, earlier: ThreadStats) -> u64 {
        self.allocs - earlier.allocs
    }

    /// Net heap growth between `earlier` and `self`, in bytes.
    pub fn retained_since(self, earlier: ThreadStats) -> i64 {
        self.net - earlier.net
    }
}

/// The calling thread's counters.
pub fn thread_stats() -> ThreadStats {
    ThreadStats {
        allocs: THREAD_ALLOCS.with(Cell::get),
        net: THREAD_NET.with(Cell::get),
    }
}

/// The process-wide high-water mark of live heap bytes since the last
/// [`reset_peak`].
pub fn peak_bytes() -> u64 {
    PEAK.load(Ordering::Relaxed)
}

/// Restarts the high-water mark from the current live heap.
pub fn reset_peak() {
    PEAK.store(LIVE.load(Ordering::Relaxed), Ordering::Relaxed);
}
