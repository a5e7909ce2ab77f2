//! The simulated flat memory: globals, a guard-gapped heap and per-thread
//! stacks.
//!
//! Memory is byte-addressed; every load/store moves one 8-byte word at an
//! arbitrary address. Accesses outside a live mapped region fault, which is
//! how segmentation faults, use-after-free and wild pointers surface. Heap
//! allocations are separated by guard gaps so that *small* overflows stay
//! inside the same region (silent corruption, as in the `sort` bug of
//! Fig. 3) while *far* out-of-bounds accesses fault.

use std::collections::{BTreeMap, HashMap};

use crate::ir::HEAP_BASE;

/// Why a memory operation faulted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemFault {
    /// Access to an address in no live region (includes null).
    Unmapped {
        /// The faulting address.
        addr: u64,
    },
    /// `free` of an address that is not the base of a live heap region.
    InvalidFree {
        /// The address passed to free.
        addr: u64,
    },
}

/// The kind of a mapped region.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RegionKind {
    /// Global data.
    Global,
    /// A heap allocation.
    Heap,
    /// A thread stack.
    Stack,
}

#[derive(Debug, Clone)]
struct Region {
    base: u64,
    bytes: u64,
    kind: RegionKind,
    live: bool,
}

/// Gap left between consecutive heap allocations so that far overflows
/// fault instead of silently landing in a neighbour.
pub const HEAP_GUARD: u64 = 64;

/// The simulated memory of one run.
#[derive(Debug, Clone, Default)]
pub struct Memory {
    cells: HashMap<u64, i64>,
    regions: BTreeMap<u64, Region>,
    heap_next: u64,
    bytes_mapped: u64,
}

impl Memory {
    /// Creates an empty memory.
    pub fn new() -> Self {
        Memory {
            heap_next: HEAP_BASE,
            ..Memory::default()
        }
    }

    /// Resets to the empty state while keeping the table capacity — the
    /// allocation-free path for reusing one `Memory` across runs.
    pub fn reset(&mut self) {
        self.cells.clear();
        self.regions.clear();
        self.heap_next = HEAP_BASE;
        self.bytes_mapped = 0;
    }

    /// Maps a region at a fixed address (globals, stacks).
    ///
    /// # Panics
    ///
    /// Panics if the region overlaps an existing live region — a loader
    /// bug, not a program bug.
    pub fn map_fixed(&mut self, base: u64, bytes: u64, kind: RegionKind) {
        assert!(
            self.region_containing(base).is_none()
                && self.region_containing(base + bytes - 1).is_none(),
            "region overlap at {base:#x}"
        );
        self.regions.insert(
            base,
            Region {
                base,
                bytes,
                kind,
                live: true,
            },
        );
        self.bytes_mapped += bytes;
    }

    /// Allocates `words` 8-byte words on the heap, returning the base.
    pub fn alloc(&mut self, words: u64) -> u64 {
        let bytes = words.max(1) * 8;
        let base = self.heap_next;
        self.heap_next += bytes + HEAP_GUARD;
        self.regions.insert(
            base,
            Region {
                base,
                bytes,
                kind: RegionKind::Heap,
                live: true,
            },
        );
        self.bytes_mapped += bytes;
        base
    }

    /// Frees the heap allocation starting exactly at `addr`.
    ///
    /// # Errors
    ///
    /// Returns [`MemFault::InvalidFree`] if `addr` is not the base of a
    /// live heap allocation (double free or wild free).
    pub fn free(&mut self, addr: u64) -> Result<(), MemFault> {
        match self.regions.get_mut(&addr) {
            Some(r) if r.live && r.kind == RegionKind::Heap => {
                r.live = false;
                self.bytes_mapped -= r.bytes;
                Ok(())
            }
            _ => Err(MemFault::InvalidFree { addr }),
        }
    }

    fn region_containing(&self, addr: u64) -> Option<&Region> {
        self.regions
            .range(..=addr)
            .next_back()
            .map(|(_, r)| r)
            .filter(|r| r.live && addr >= r.base && addr < r.base + r.bytes)
    }

    /// Returns `true` when `addr` lies in a live region.
    pub fn is_mapped(&self, addr: u64) -> bool {
        self.region_containing(addr).is_some()
    }

    /// Reads the word at `addr`.
    ///
    /// # Errors
    ///
    /// Returns [`MemFault::Unmapped`] for dead or never-mapped addresses.
    pub fn read(&self, addr: u64) -> Result<i64, MemFault> {
        if self.is_mapped(addr) {
            Ok(self.cells.get(&addr).copied().unwrap_or(0))
        } else {
            Err(MemFault::Unmapped { addr })
        }
    }

    /// Writes the word at `addr`.
    ///
    /// # Errors
    ///
    /// Returns [`MemFault::Unmapped`] for dead or never-mapped addresses.
    pub fn write(&mut self, addr: u64, value: i64) -> Result<(), MemFault> {
        if self.is_mapped(addr) {
            self.cells.insert(addr, value);
            Ok(())
        } else {
            Err(MemFault::Unmapped { addr })
        }
    }

    /// Writes without a mapping check (used by the loader for global
    /// initialisers).
    pub fn poke(&mut self, addr: u64, value: i64) {
        self.cells.insert(addr, value);
    }

    /// Total bytes currently mapped (the size a coredump would have to
    /// serialize).
    pub fn bytes_mapped(&self) -> u64 {
        self.bytes_mapped
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_access_faults() {
        let m = Memory::new();
        assert_eq!(m.read(0), Err(MemFault::Unmapped { addr: 0 }));
    }

    #[test]
    fn alloc_read_write_round_trip() {
        let mut m = Memory::new();
        let a = m.alloc(4);
        assert_eq!(m.read(a).unwrap(), 0);
        m.write(a + 8, 42).unwrap();
        assert_eq!(m.read(a + 8).unwrap(), 42);
    }

    #[test]
    fn small_overflow_stays_in_region_far_overflow_faults() {
        let mut m = Memory::new();
        let a = m.alloc(2); // 16 bytes
        assert!(m.write(a + 15, 1).is_ok()); // still inside
        assert!(m.write(a + 16, 1).is_err()); // guard gap
        let b = m.alloc(2);
        assert_eq!(b - a, 16 + HEAP_GUARD);
    }

    #[test]
    fn use_after_free_faults() {
        let mut m = Memory::new();
        let a = m.alloc(1);
        m.write(a, 7).unwrap();
        m.free(a).unwrap();
        assert_eq!(m.read(a), Err(MemFault::Unmapped { addr: a }));
    }

    #[test]
    fn double_free_is_invalid() {
        let mut m = Memory::new();
        let a = m.alloc(1);
        m.free(a).unwrap();
        assert_eq!(m.free(a), Err(MemFault::InvalidFree { addr: a }));
    }

    #[test]
    fn free_of_interior_pointer_is_invalid() {
        let mut m = Memory::new();
        let a = m.alloc(4);
        assert_eq!(m.free(a + 8), Err(MemFault::InvalidFree { addr: a + 8 }));
    }

    #[test]
    fn fixed_regions_work() {
        let mut m = Memory::new();
        m.map_fixed(0x1000, 64, RegionKind::Global);
        assert!(m.is_mapped(0x1000));
        assert!(m.is_mapped(0x103f));
        assert!(!m.is_mapped(0x1040));
        m.poke(0x1000, 9);
        assert_eq!(m.read(0x1000).unwrap(), 9);
    }

    #[test]
    fn bytes_mapped_tracks_alloc_and_free() {
        let mut m = Memory::new();
        let before = m.bytes_mapped();
        let a = m.alloc(4);
        assert_eq!(m.bytes_mapped(), before + 32);
        m.free(a).unwrap();
        assert_eq!(m.bytes_mapped(), before);
    }
}
