//! A bump allocator over one machine's shared segment.
//!
//! Data-structure nodes live in the shared (usually non-volatile) segment
//! of a designated memory node; this allocator hands out fresh
//! cache-line-granular cells from that segment. Allocation metadata is a
//! process-local atomic, and the bump is monotonic — crash-safe by
//! construction (cells allocated by a crashed operation are simply
//! leaked). Reclamation and crash-consistent recovery live one layer up,
//! in [`crate::alloc`], which wraps a `SharedHeap` as its bump tail;
//! this raw layer remains for fixed-footprint roots (registers,
//! counters, logs, the registry and epoch machinery) and low-level
//! experiments. Failed allocations are side-effect-free: the bump only
//! advances when the request fits.

use std::sync::atomic::{AtomicU32, Ordering};

use cxl0_model::{Loc, MachineId, SystemConfig};

/// The bump counter on its own cache line: every allocation CAS-loops on
/// it, and without the padding that traffic would false-share with the
/// read-only `region`/`limit` fields (and whatever the allocator places
/// next to the heap).
#[repr(align(64))]
#[derive(Debug)]
struct PaddedCounter(AtomicU32);

/// A bump allocator over machine `region`'s shared locations.
///
/// # Examples
///
/// ```
/// use cxl0_runtime::SharedHeap;
/// use cxl0_model::{SystemConfig, MachineId};
///
/// let cfg = SystemConfig::symmetric_nvm(2, 64);
/// let heap = SharedHeap::new(&cfg, MachineId(1));
/// let a = heap.alloc(2).unwrap();  // two consecutive cells
/// let b = heap.alloc(1).unwrap();
/// assert_ne!(a.addr, b.addr);
/// assert_eq!(a.owner, MachineId(1));
/// ```
#[derive(Debug)]
pub struct SharedHeap {
    region: MachineId,
    next: PaddedCounter,
    limit: u32,
}

impl SharedHeap {
    /// An allocator over all of machine `region`'s locations.
    pub fn new(cfg: &SystemConfig, region: MachineId) -> Self {
        SharedHeap {
            region,
            next: PaddedCounter(AtomicU32::new(0)),
            limit: cfg.machine(region).locations,
        }
    }

    /// An allocator over a sub-range `[base, base + len)` of the region.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the region (including when `base + len`
    /// overflows `u32`).
    pub fn with_range(cfg: &SystemConfig, region: MachineId, base: u32, len: u32) -> Self {
        let limit = base
            .checked_add(len)
            .expect("heap range exceeds the region: base + len overflows");
        assert!(
            limit <= cfg.machine(region).locations,
            "heap range exceeds the region"
        );
        SharedHeap {
            region,
            next: PaddedCounter(AtomicU32::new(base)),
            limit,
        }
    }

    /// The machine whose memory this heap carves up.
    pub fn region(&self) -> MachineId {
        self.region
    }

    /// Allocates `n` consecutive cells, returning the first. Returns
    /// `None` when the region is exhausted.
    ///
    /// A failed allocation is side-effect-free: the bump counter only
    /// advances when the whole range fits, so the remaining tail cells
    /// stay allocatable and repeated failures can never overflow the
    /// counter into "successful" out-of-range allocations.
    pub fn alloc(&self, n: u32) -> Option<Loc> {
        let mut base = self.next.0.load(Ordering::Relaxed);
        loop {
            let end = base.checked_add(n)?;
            if end > self.limit {
                return None;
            }
            match self
                .next
                .0
                .compare_exchange_weak(base, end, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => return Some(Loc::new(self.region, base)),
                Err(actual) => base = actual,
            }
        }
    }

    /// Cells remaining.
    pub fn remaining(&self) -> u32 {
        self.limit
            .saturating_sub(self.next.0.load(Ordering::Relaxed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_until_exhaustion() {
        let cfg = SystemConfig::symmetric_nvm(1, 4);
        let heap = SharedHeap::new(&cfg, MachineId(0));
        assert_eq!(heap.remaining(), 4);
        assert!(heap.alloc(3).is_some());
        assert!(heap.alloc(2).is_none());
        // A failed alloc is side-effect-free: the tail cell stays usable.
        assert_eq!(heap.remaining(), 1);
        assert!(heap.alloc(1).is_some());
        assert!(heap.alloc(1).is_none());
        assert_eq!(heap.remaining(), 0);
    }

    #[test]
    fn repeated_failed_allocs_never_wrap_into_success() {
        let cfg = SystemConfig::symmetric_nvm(1, 4);
        let heap = SharedHeap::new(&cfg, MachineId(0));
        // With the old fetch_add bump, each failure advanced the counter;
        // enough failures wrapped base + n past u32::MAX back into range.
        for _ in 0..8 {
            assert!(heap.alloc(u32::MAX / 2).is_none());
        }
        assert!(heap.alloc(u32::MAX).is_none());
        let a = heap.alloc(4).expect("the full region is still intact");
        assert_eq!(a.addr.0, 0);
    }

    #[test]
    #[should_panic(expected = "overflows")]
    fn with_range_overflow_panics() {
        let cfg = SystemConfig::symmetric_nvm(1, 4);
        let _ = SharedHeap::with_range(&cfg, MachineId(0), u32::MAX, 2);
    }

    #[test]
    fn with_range_respects_bounds() {
        let cfg = SystemConfig::symmetric_nvm(1, 10);
        let heap = SharedHeap::with_range(&cfg, MachineId(0), 4, 4);
        let a = heap.alloc(1).unwrap();
        assert_eq!(a.addr.0, 4);
        assert_eq!(heap.remaining(), 3);
    }

    #[test]
    #[should_panic(expected = "exceeds the region")]
    fn oversized_range_panics() {
        let cfg = SystemConfig::symmetric_nvm(1, 4);
        let _ = SharedHeap::with_range(&cfg, MachineId(0), 2, 8);
    }

    #[test]
    fn concurrent_allocation_never_overlaps() {
        let cfg = SystemConfig::symmetric_nvm(1, 10_000);
        let heap = std::sync::Arc::new(SharedHeap::new(&cfg, MachineId(0)));
        let mut handles = Vec::new();
        for _ in 0..4 {
            let heap = std::sync::Arc::clone(&heap);
            handles.push(std::thread::spawn(move || {
                let mut got = Vec::new();
                for _ in 0..1000 {
                    got.push(heap.alloc(2).unwrap().addr.0);
                }
                got
            }));
        }
        let mut all: Vec<u32> = handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), 4000);
    }
}
