//! # Epoch-based safe memory reclamation for traversal structures
//!
//! The queue and stack free unlinked nodes inline: their CASes always
//! compare a generation-tagged word remembered from the incarnation they
//! mean (the Michael–Scott counted-pointer scheme), so a recycled block
//! can never satisfy a stale CAS. Traversal structures cannot lean on
//! that: a Harris-list `search` dereferences interior nodes without a
//! validating CAS, and the hash map's probe sequence walks table cells
//! holding application-chosen words. For those, an unlink → free →
//! recycle racing an in-flight traversal would hand the traversal a
//! *different* structure's live cells — the classic reason linked
//! structures need hazard pointers or epochs where stacks and queues get
//! by with counted pointers.
//!
//! This module is the runtime's reclamation layer between the
//! crash-consistent allocator ([`crate::alloc`]) and the traversal
//! structures ([`DurableList`](crate::ds::DurableList),
//! [`DurableMap`](crate::ds::DurableMap)): **epoch-based reclamation**
//! (EBR) in the tradition of Fraser's epochs and crossbeam-epoch.
//!
//! ## Protocol
//!
//! An [`SmrDomain`] owns a global epoch counter and one
//! cache-line-padded *epoch slot* per leased thread slot (the same
//! process-wide leases that back the fabric's per-thread counter rails
//! and the combining fronts' announcement arrays — see
//! `backend::thread_slot_index`). A traversal [`pin`](SmrDomain::pin)s
//! the domain on entry: its slot publishes the observed global epoch
//! with the same Dekker-ordered store-then-recheck discipline the crash
//! gate uses, so an epoch advance either sees the pin or the pinner
//! sees the newer epoch and re-publishes. The returned [`SmrGuard`]
//! unpins on drop.
//!
//! Unlinked blocks are [`retire`](SmrGuard::retire)d — not freed — into
//! per-epoch **limbo bags**. Each limbo entry is the block's
//! *incarnation*: the `ALLOCATED` header the allocator's claim CAS will
//! expect. The list and the map build it from the generation of the
//! pointer word they unlinked and their block size
//! ([`retire_incarnation`](SmrGuard::retire_incarnation), no load);
//! [`retire`](SmrGuard::retire) by location loads the header once, at
//! retire time. Draining therefore loads no header, and a block whose
//! incarnation moved on before its bag ripened (a structure retiring it
//! twice) is refused by its claim instead of freed under its new owner.
//! The epoch advances from `e` to `e + 1`
//! only when every pinned slot has observed `e`; a bag retired at epoch
//! `e` drains back to the allocator once the global epoch reaches
//! `e + 2`, because by then every traversal that could have loaded a
//! pointer to its blocks (necessarily pinned at `e` or earlier, since
//! retirement follows durable unlinking) has unpinned. A ripe bag goes
//! first to the **draining thread's allocator magazine** — the thread
//! whose next inserts need blocks: as many blocks as the magazine has
//! room for (of its class, up to its depth of 8, on thread slots 0–7)
//! are spliced into it, one intent latch plus one claim each (`k + 1`
//! persists for `k` blocks), and each is then taken back by an `alloc`
//! with a single header mark instead of a shared-list pop. The rest go
//! back as one chain per class, as [`Allocator::free_chain`] builds it
//! (`k + 2` persists), minus its header loads.
//! Draining is amortized into `retire` itself (every few retirements)
//! and available explicitly through [`SmrDomain::collect`]; no
//! quiescence is ever required.
//!
//! ## Crash interaction
//!
//! Limbo is **volatile by design**, like the combining fronts'
//! announcement boards: a retired block is already durably unlinked
//! from its structure, so a crash loses no durable state — the blocks
//! are merely not yet on a free list. After recovery,
//! [`SmrDomain::recover`] (run from
//! [`Session::recover_roots`](crate::api::Session::recover_roots),
//! quiesced like every recovery) hands all of limbo back to the free
//! lists — one chain per size class built straight from the limbo
//! entries: for `k` blocks of one class, one load (the list head),
//! `k + 1` RMWs and `k + 2` flushes, no header load — and clears every
//! epoch slot. A drain the crash cut short returned its bag to limbo
//! whole; the blocks it had already spliced or chained fail their claim
//! there and are skipped, since [`Allocator::recover`] put them back
//! first. Nothing durable records the epochs themselves.
//!
//! ## Example
//!
//! ```
//! use std::sync::Arc;
//! use cxl0_runtime::alloc::Allocator;
//! use cxl0_runtime::smr::SmrDomain;
//! use cxl0_runtime::{Flit, FlitPolicy, Persistence, SimFabric};
//! use cxl0_model::{MachineId, SystemConfig};
//!
//! let fabric = SimFabric::new(SystemConfig::symmetric_nvm(2, 1024));
//! let persist: Arc<dyn Persistence> = Arc::new(Flit::new(FlitPolicy::CXL0));
//! let alloc = Arc::new(Allocator::over_region(fabric.config(), MachineId(1), persist));
//! let smr = SmrDomain::new(Arc::clone(&alloc));
//! let node = fabric.node(MachineId(0));
//!
//! let block = alloc.alloc(&node, 2)?.expect("heap fits");
//! {
//!     let guard = smr.pin();
//!     guard.retire(&node, block.loc)?; // durably unlinked elsewhere
//! } // traversal ends: the pin drops
//! let freed = smr.collect(&node)?;    // both grace epochs elapse
//! assert_eq!(freed, 1);
//! # Ok::<(), cxl0_runtime::Crashed>(())
//! ```

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use cxl0_model::Loc;
use parking_lot::Mutex;

use crate::alloc::{Allocator, Owned};
use crate::backend::{thread_slot_index, NodeHandle, RAIL_SLOTS};
use crate::error::OpResult;
use crate::flit::Persistence;

/// Epoch bits in a slot word; the rest is the pin (nesting) count.
const EPOCH_BITS: u32 = 48;
/// Mask of the epoch bits of a slot word.
const EPOCH_MASK: u64 = (1 << EPOCH_BITS) - 1;
/// One pin in a slot word's count field.
const COUNT_ONE: u64 = 1 << EPOCH_BITS;

/// A retired block's bag drains once the global epoch is this far past
/// its retire epoch: one advance for traversals pinned at the retire
/// epoch, one more for traversals the first advance may have raced.
const GRACE_EPOCHS: u64 = 2;

/// Amortization: every this many retirements, the retiring thread runs
/// a [`SmrDomain::collect`] pass on the caller's node.
const COLLECT_EVERY: u64 = 8;

/// One per-thread-slot epoch slot, cache-line padded like the fabric's
/// counter rails: `(pin count << 48) | observed epoch`, zero when idle.
/// Exclusive slots are written by one thread with plain load + store
/// pairs (published `SeqCst`, the Dekker gate); the shared overflow
/// slot — used by threads beyond the lease pool — multiplexes several
/// pinners through CAS, conservatively keeping the first joiner's
/// epoch (an older recorded epoch only delays reclamation).
#[repr(align(128))]
#[derive(Debug)]
struct EpochSlot {
    word: AtomicU64,
    /// Pins published through this slot (exclusive: plain load + store).
    pins: AtomicU64,
}

impl EpochSlot {
    fn new() -> Self {
        EpochSlot {
            word: AtomicU64::new(0),
            pins: AtomicU64::new(0),
        }
    }
}

/// One limbo bag: blocks retired while the global epoch was `epoch`,
/// each as the incarnation the drain's claim CAS will expect.
#[derive(Debug)]
struct Bag {
    epoch: u64,
    blocks: Vec<Owned>,
}

/// Plain-data snapshot of an [`SmrDomain`]'s counters (also overlaid
/// onto [`StatsSnapshot`](crate::backend::StatsSnapshot) by
/// [`Cluster::stats_snapshot`](crate::api::Cluster::stats_snapshot)).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SmrStats {
    /// Traversal pins (guard creations).
    pub pins: u64,
    /// Blocks retired into limbo.
    pub retires: u64,
    /// Blocks handed back to the allocator after their grace period.
    pub reclaims: u64,
    /// Successful global-epoch advances.
    pub advances: u64,
    /// Current global epoch (gauge).
    pub epoch: u64,
    /// Blocks currently in limbo (gauge).
    pub limbo: u64,
}

/// An epoch-based reclamation domain over one allocator.
///
/// One domain serves **all** traversal structures sharing an allocator
/// — a [`Cluster`](crate::api::Cluster) builds exactly one and every
/// session handle shares it. (Constructing two domains over one
/// allocator would let one domain reclaim blocks the other's pinned
/// traversals still reference; don't.)
///
/// See the [module docs](self) for the protocol.
#[derive(Debug)]
pub struct SmrDomain {
    alloc: Arc<Allocator>,
    /// The global epoch, on its own line (every pin reads it, every
    /// advance CASes it).
    global: EpochSlot,
    /// `slots[RAIL_SLOTS]` is the shared overflow slot.
    slots: Box<[EpochSlot]>,
    /// Per-epoch limbo bags, front = oldest; epochs strictly increase
    /// back-to-front.
    limbo: Mutex<VecDeque<Bag>>,
    /// Gauge mirror of the limbo population (readable without the lock).
    limbo_len: AtomicU64,
    retires: AtomicU64,
    reclaims: AtomicU64,
    advances: AtomicU64,
}

impl SmrDomain {
    /// A fresh domain reclaiming through `alloc` (epoch 1, empty limbo).
    pub fn new(alloc: Arc<Allocator>) -> Self {
        let global = EpochSlot::new();
        global.word.store(1, Ordering::Relaxed);
        SmrDomain {
            alloc,
            global,
            slots: (0..=RAIL_SLOTS).map(|_| EpochSlot::new()).collect(),
            limbo: Mutex::new(VecDeque::new()),
            limbo_len: AtomicU64::new(0),
            retires: AtomicU64::new(0),
            reclaims: AtomicU64::new(0),
            advances: AtomicU64::new(0),
        }
    }

    /// The allocator retired blocks drain back into.
    pub fn allocator(&self) -> &Arc<Allocator> {
        &self.alloc
    }

    /// The allocator's durability strategy (traversal structures derive
    /// theirs from here, so the pair can never mismatch).
    pub fn persistence(&self) -> &Arc<dyn Persistence> {
        self.alloc.persistence()
    }

    /// The current global epoch.
    pub fn epoch(&self) -> u64 {
        self.global.word.load(Ordering::SeqCst)
    }

    /// The epoch rail `slot`'s pin recorded, or `None` while it holds no
    /// pin — what the persistency sanitizer judges an access by. The
    /// load acquires what the pin's `SeqCst` publish and the unpin's
    /// `Release` store made visible.
    pub(crate) fn pinned_epoch(&self, slot: usize) -> Option<u64> {
        let w = self.slots[slot.min(RAIL_SLOTS)]
            .word
            .load(Ordering::Acquire);
        (w >= COUNT_ONE).then_some(w & EPOCH_MASK)
    }

    /// Blocks currently awaiting their grace period.
    pub fn limbo_len(&self) -> u64 {
        self.limbo_len.load(Ordering::Relaxed)
    }

    /// Snapshot of the domain's counters and gauges.
    pub fn stats(&self) -> SmrStats {
        SmrStats {
            pins: self
                .slots
                .iter()
                .map(|s| s.pins.load(Ordering::Relaxed))
                .sum(),
            retires: self.retires.load(Ordering::Relaxed),
            reclaims: self.reclaims.load(Ordering::Relaxed),
            advances: self.advances.load(Ordering::Relaxed),
            epoch: self.epoch(),
            limbo: self.limbo_len(),
        }
    }

    /// Pins the current thread into the domain: the returned guard
    /// keeps every block retired from *now* on out of reuse until the
    /// guard drops. Pins nest (a slot counts them) and are purely
    /// volatile — no fabric operations, no errors.
    pub fn pin(&self) -> SmrGuard<'_> {
        let idx = thread_slot_index().min(RAIL_SLOTS);
        let slot = &self.slots[idx];
        if idx < RAIL_SLOTS {
            // Exclusive slot: only this thread writes it.
            let w = slot.word.load(Ordering::Relaxed);
            if w >= COUNT_ONE {
                slot.word.store(w + COUNT_ONE, Ordering::Relaxed);
            } else {
                // Dekker publish: store the observed epoch, then
                // re-read it. Either a concurrent advance's scan sees
                // this pin, or we see the newer epoch and re-publish —
                // the same discipline as the crash gate's rails.
                loop {
                    let e = self.global.word.load(Ordering::SeqCst);
                    slot.word
                        .store(COUNT_ONE | (e & EPOCH_MASK), Ordering::SeqCst);
                    if self.global.word.load(Ordering::SeqCst) == e {
                        break;
                    }
                }
            }
            let p = slot.pins.load(Ordering::Relaxed);
            slot.pins.store(p + 1, Ordering::Relaxed);
        } else {
            // Shared overflow slot: several threads multiplex through
            // CAS. Joining an existing pin keeps the first joiner's
            // (older or equal) epoch — conservative, so always safe.
            loop {
                let w = slot.word.load(Ordering::SeqCst);
                if w >= COUNT_ONE {
                    if slot
                        .word
                        .compare_exchange(w, w + COUNT_ONE, Ordering::SeqCst, Ordering::SeqCst)
                        .is_ok()
                    {
                        break;
                    }
                } else {
                    let e = self.global.word.load(Ordering::SeqCst);
                    if slot
                        .word
                        .compare_exchange(
                            w,
                            COUNT_ONE | (e & EPOCH_MASK),
                            Ordering::SeqCst,
                            Ordering::SeqCst,
                        )
                        .is_ok()
                    {
                        // No re-check needed: if an advance raced this
                        // publish, the recorded epoch is merely stale
                        // (older), which only delays reclamation.
                        break;
                    }
                }
            }
            slot.pins.fetch_add(1, Ordering::Relaxed);
        }
        SmrGuard {
            domain: self,
            slot: idx,
        }
    }

    fn unpin(&self, idx: usize) {
        let slot = &self.slots[idx];
        if idx < RAIL_SLOTS {
            let w = slot.word.load(Ordering::Relaxed);
            debug_assert!(w >= COUNT_ONE, "unpin without pin");
            if w >= 2 * COUNT_ONE {
                slot.word.store(w - COUNT_ONE, Ordering::Relaxed);
            } else {
                slot.word.store(0, Ordering::Release);
            }
        } else {
            // The epoch bits stay behind at count zero; scanners ignore
            // them and the next first pinner overwrites them.
            slot.word.fetch_sub(COUNT_ONE, Ordering::Release);
        }
    }

    /// Files `block`, the incarnation of the block at `payload` that is
    /// already durably unreachable, into the current epoch's limbo bag.
    /// Reached only through an [`SmrGuard`], which enforces that the
    /// retiring operation is pinned.
    fn retire(&self, node: &NodeHandle, payload: Loc, block: Owned) -> OpResult<()> {
        let e = self.global.word.load(Ordering::SeqCst);
        {
            let mut limbo = self.limbo.lock();
            match limbo.back_mut() {
                // `>=`: another retirer may have opened a newer bag
                // between our epoch read and taking the lock; filing
                // under the newer epoch only lengthens the grace wait.
                Some(bag) if bag.epoch >= e => bag.blocks.push(block),
                _ => limbo.push_back(Bag {
                    epoch: e,
                    blocks: vec![block],
                }),
            }
        }
        self.limbo_len.fetch_add(1, Ordering::Relaxed);
        node.check_retire(payload, e);
        let n = self.retires.fetch_add(1, Ordering::Relaxed) + 1;
        if n.is_multiple_of(COLLECT_EVERY) {
            self.collect_inner(node)?;
        }
        Ok(())
    }

    /// Tries to advance the global epoch by one: succeeds only if every
    /// pinned slot has observed the current epoch.
    fn try_advance(&self) -> bool {
        let e = self.global.word.load(Ordering::SeqCst);
        for slot in self.slots.iter() {
            let w = slot.word.load(Ordering::SeqCst);
            if w >= COUNT_ONE && (w & EPOCH_MASK) != (e & EPOCH_MASK) {
                return false;
            }
        }
        let ok = self
            .global
            .word
            .compare_exchange(e, e + 1, Ordering::SeqCst, Ordering::SeqCst)
            .is_ok();
        if ok {
            self.advances.fetch_add(1, Ordering::Relaxed);
        }
        ok
    }

    /// Frees every limbo bag whose grace period has elapsed, attempting
    /// epoch advances in between; returns the number of blocks handed
    /// back to the allocator. Safe to call concurrently with traversals
    /// (including from a pinned thread — its own pin merely caps how
    /// far the epoch can advance this call). Never required for safety;
    /// retirement amortizes collection automatically.
    ///
    /// An empty return does **not** mean the limbo blocks are lost: a
    /// traversal that pinned before this call legitimately holds the
    /// grace period open for its whole (finite) operation, and a bag
    /// needs `GRACE_EPOCHS` advances past its retire epoch to ripen.
    /// Allocation retry loops must therefore wait between empty
    /// attempts (see [`exhaustion_backoff`]) — spinning through any
    /// fixed attempt count can outpace a single concurrent reader
    /// sweep and misdiagnose transient pressure as true exhaustion.
    ///
    /// # Errors
    ///
    /// Fails if the issuing machine has crashed; blocks not yet freed
    /// stay in limbo for [`SmrDomain::recover`].
    pub fn collect(&self, node: &NodeHandle) -> OpResult<usize> {
        let _span = node.trace_span(crate::trace::OpKind::SmrCollect);
        self.collect_inner(node)
    }

    fn collect_inner(&self, node: &NodeHandle) -> OpResult<usize> {
        let mut freed = 0;
        // Unpinned callers can ripen a whole grace period; a pinned
        // caller's own slot stops the second advance and it drains
        // whatever is already ripe.
        for _ in 0..GRACE_EPOCHS {
            freed += self.drain_ripe(node)?;
            if !self.try_advance() {
                break;
            }
        }
        freed += self.drain_ripe(node)?;
        Ok(freed)
    }

    /// Frees every bag at least [`GRACE_EPOCHS`] behind the global
    /// epoch, offering each to the calling thread's magazine first (see
    /// the [module docs](self)).
    fn drain_ripe(&self, node: &NodeHandle) -> OpResult<usize> {
        let mut freed = 0;
        loop {
            let bag = {
                let mut limbo = self.limbo.lock();
                let e = self.global.word.load(Ordering::SeqCst);
                match limbo.front() {
                    Some(front) if front.epoch + GRACE_EPOCHS <= e => limbo.pop_front(),
                    _ => None,
                }
            };
            let Some(bag) = bag else {
                return Ok(freed);
            };
            // Into the draining thread's magazine as far as it has
            // room, the rest as one chain per size class. A block whose
            // incarnation moved on (retired twice) is refused, not freed.
            match self.alloc.free_owned(node, &mut bag.blocks.clone(), true) {
                Ok(n) => {
                    freed += n;
                    self.reclaims.fetch_add(n as u64, Ordering::Relaxed);
                    self.limbo_len
                        .fetch_sub(bag.blocks.len() as u64, Ordering::Relaxed);
                }
                Err(crashed) => {
                    // The machine crashed mid-drain. The blocks the
                    // splice or the chain had already claimed are the
                    // allocator's recovery problem (its intents seal);
                    // the bag goes back to limbo whole for `recover` to
                    // sweep, which skips those.
                    self.limbo.lock().push_front(bag);
                    return Err(crashed);
                }
            }
        }
    }

    /// Post-crash sweep, run from
    /// [`Session::recover_roots`](crate::api::Session::recover_roots)
    /// after [`Allocator::recover`]: hands **all** of limbo straight
    /// back to the allocator as one chain per size class, built from the
    /// limbo entries with no header load (grace periods are moot —
    /// recovery is quiesced, so no traversal holds references) and
    /// clears every epoch slot. Returns the number of blocks swept.
    /// Frees that the allocator's own recovery already completed (a
    /// crash mid-drain) fail their claim and are skipped.
    ///
    /// **Must run quiesced**: no concurrent operations, no live guards
    /// — the same contract as every other `recover`.
    ///
    /// # Errors
    ///
    /// Fails if the issuing machine has crashed; limbo then keeps every
    /// block for the next `recover`.
    pub fn recover(&self, node: &NodeHandle) -> OpResult<usize> {
        for slot in self.slots.iter() {
            slot.word.store(0, Ordering::SeqCst);
        }
        let mut limbo = self.limbo.lock();
        let mut blocks: Vec<Owned> = limbo.iter().flat_map(|bag| &bag.blocks).copied().collect();
        let filed = blocks.len() as u64;
        let swept = self.alloc.free_owned(node, &mut blocks, false)?;
        limbo.clear();
        self.limbo_len.fetch_sub(filed, Ordering::Relaxed);
        self.reclaims.fetch_add(swept as u64, Ordering::Relaxed);
        Ok(swept)
    }
}

/// Waits between empty [`SmrDomain::collect`] attempts on an exhausted
/// heap. A concurrently pinned traversal holds the grace period open
/// for its whole operation — many fabric round-trips — while one
/// `collect` call is only a handful of atomics, so a retry loop that
/// doesn't wait burns through any attempt bound before the reader
/// finishes a *single* sweep and the epoch can ripen limbo. Yields
/// first (the common case: the reader just needs a time slice), then
/// sleeps with a linearly growing interval: attempts 8–63 sleep about a
/// second in all. A loaded host can keep a pinned reader off its CPU
/// for tens of milliseconds (a 2-core host running the test suite
/// beside a churn test stalled the epoch for over 70 ms), and a caller
/// that gives up sooner misreads that as exhaustion.
pub fn exhaustion_backoff(attempt: u32) {
    if attempt < 8 {
        std::thread::yield_now();
    } else {
        std::thread::sleep(std::time::Duration::from_micros(u64::from(attempt) * 500));
    }
}

/// An active pin on an [`SmrDomain`] (see [`SmrDomain::pin`]): while
/// any guard from before a block's retirement is live, that block stays
/// out of reuse. Dropping the guard unpins.
#[derive(Debug)]
pub struct SmrGuard<'a> {
    domain: &'a SmrDomain,
    slot: usize,
}

impl SmrGuard<'_> {
    /// The domain this guard pins.
    pub fn domain(&self) -> &SmrDomain {
        self.domain
    }

    /// Retires a block (by its payload location) that this operation
    /// has already durably unlinked: it joins the current epoch's limbo
    /// bag and returns to the allocator's free lists once every
    /// traversal pinned at retirement time has unpinned. Amortizes a
    /// [`SmrDomain::collect`] pass every few retirements.
    ///
    /// The block's header is loaded here, once, to learn the
    /// incarnation being retired. A block [`Allocator::free`] would
    /// refuse — oversize (exact-fit, never reclaimable), already free,
    /// or not a block — is not filed: retiring it is a no-op. A
    /// structure that knows the generation of the block it unlinked
    /// retires with [`SmrGuard::retire_incarnation`] and loads nothing.
    ///
    /// # Errors
    ///
    /// Fails if the issuing machine has crashed: before the header load
    /// lands the block is not filed; once it is, it stays in limbo for
    /// [`SmrDomain::recover`].
    pub fn retire(&self, node: &NodeHandle, payload: Loc) -> OpResult<()> {
        match self.domain.alloc.current_incarnation(node, payload)? {
            Some(block) => self.domain.retire(node, payload, block),
            None => Ok(()),
        }
    }

    /// Retires the incarnation at generation `gen` of the `cells`-cell
    /// block at `payload`, which this operation has durably unlinked by
    /// a pointer word carrying `gen` ([`Allocator::ptr_gen`]) — like
    /// [`SmrGuard::retire`], with no load. The drain's claim expects
    /// exactly that incarnation, so if the block was freed some other
    /// way in the meantime, the drain refuses it instead of freeing
    /// whatever now lives there. An oversize block (`cells` above
    /// [`MAX_CLASS_CELLS`](crate::alloc::MAX_CLASS_CELLS)) is never
    /// reclaimable, so retiring one is a no-op.
    ///
    /// # Errors
    ///
    /// Fails if the issuing machine has crashed (the block stays in
    /// limbo for [`SmrDomain::recover`]).
    pub fn retire_incarnation(
        &self,
        node: &NodeHandle,
        payload: Loc,
        gen: u64,
        cells: u32,
    ) -> OpResult<()> {
        match self.domain.alloc.incarnation(payload, gen, cells) {
            Some(block) => self.domain.retire(node, payload, block),
            None => Ok(()),
        }
    }
}

impl Drop for SmrGuard<'_> {
    fn drop(&mut self) {
        self.domain.unpin(self.slot);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alloc::MAX_CLASS_CELLS;
    use crate::backend::SimFabric;
    use crate::flit::{Flit, FlitPolicy};
    use cxl0_model::{MachineId, SystemConfig};

    fn setup() -> (Arc<SimFabric>, Arc<Allocator>, SmrDomain) {
        let f = SimFabric::new(SystemConfig::symmetric_nvm(2, 4096));
        let alloc = Arc::new(Allocator::over_region(
            f.config(),
            MachineId(1),
            Arc::new(Flit::new(FlitPolicy::CXL0)),
        ));
        let smr = SmrDomain::new(Arc::clone(&alloc));
        (f, alloc, smr)
    }

    #[test]
    fn unpinned_retire_reclaims_after_one_collect() {
        let (f, alloc, smr) = setup();
        let node = f.node(MachineId(0));
        let b = alloc.alloc(&node, 2).unwrap().unwrap();
        smr.pin().retire(&node, b.loc).unwrap();
        // No pins: one collect ripens both grace epochs.
        assert_eq!(smr.collect(&node).unwrap(), 1);
        let again = alloc.alloc(&node, 2).unwrap().unwrap();
        assert_eq!(again.loc, b.loc, "block recycled");
        assert_eq!(again.gen, b.gen + 1);
    }

    #[test]
    fn live_pin_blocks_reclamation_until_dropped() {
        let (f, alloc, smr) = setup();
        let node = f.node(MachineId(0));
        let reader = smr.pin(); // pinned before the retire
        let b = alloc.alloc(&node, 2).unwrap().unwrap();
        smr.pin().retire(&node, b.loc).unwrap();
        assert_eq!(smr.collect(&node).unwrap(), 0, "reader still pinned");
        assert_eq!(smr.limbo_len(), 1);
        drop(reader);
        assert_eq!(smr.collect(&node).unwrap(), 1);
        assert_eq!(smr.limbo_len(), 0);
    }

    #[test]
    fn pins_nest() {
        let (f, alloc, smr) = setup();
        let node = f.node(MachineId(0));
        let outer = smr.pin();
        {
            let _inner = smr.pin();
        }
        // The inner unpin must not have released the outer pin.
        let b = alloc.alloc(&node, 2).unwrap().unwrap();
        outer.retire(&node, b.loc).unwrap();
        assert_eq!(smr.collect(&node).unwrap(), 0, "outer pin still live");
        drop(outer);
        assert_eq!(smr.collect(&node).unwrap(), 1);
    }

    #[test]
    fn retirement_amortizes_collection() {
        let (f, alloc, smr) = setup();
        let node = f.node(MachineId(0));
        // Retire well past COLLECT_EVERY without ever calling collect:
        // limbo must stay bounded by the amortized passes.
        for _ in 0..64 {
            let b = alloc.alloc(&node, 2).unwrap().unwrap();
            smr.pin().retire(&node, b.loc).unwrap();
        }
        assert!(
            smr.limbo_len() < 32,
            "amortized collection fell behind: {} in limbo",
            smr.limbo_len()
        );
        assert!(smr.stats().reclaims > 32);
    }

    /// `n` fresh blocks of `cells` cells.
    fn fresh(alloc: &Allocator, node: &NodeHandle, n: usize, cells: u32) -> Vec<Loc> {
        (0..n)
            .map(|_| alloc.alloc(node, cells).unwrap().unwrap().loc)
            .collect()
    }

    /// Retires `bag` under one pin, unpins, and collects: the bag ripens
    /// and drains in that collect. Returns the flushes it took.
    fn drain(f: &SimFabric, smr: &SmrDomain, node: &NodeHandle, bag: &[Loc]) -> u64 {
        {
            let guard = smr.pin();
            for &b in bag {
                guard.retire(node, b).unwrap();
            }
        }
        let before = f.stats().snapshot();
        assert_eq!(smr.collect(node).unwrap(), bag.len());
        f.stats().snapshot().since(&before).flushes()
    }

    // Whether the test thread has a magazine depends on its thread slot
    // (0–7 do), so the two tests below probe it with a first `free` and
    // expect every block on the free lists when it has none.

    #[test]
    fn a_mixed_class_bag_parks_only_the_magazines_class_and_chains_the_rest() {
        let (f, alloc, smr) = setup();
        let node = f.node(MachineId(0));
        let first = fresh(&alloc, &node, 1, 2)[0];
        let (small, big) = (fresh(&alloc, &node, 3, 2), fresh(&alloc, &node, 2, 8));
        alloc.free(&node, first).unwrap().unwrap();
        let has_magazine = alloc.debug_parked() == [first];
        drain(
            &f,
            &smr,
            &node,
            &[big[0], small[0], big[1], small[1], small[2]],
        );
        assert_eq!(alloc.debug_free_list(&node, 8).unwrap(), big);
        if has_magazine {
            // Spliced front to back, so the bag's first block is newest.
            let parked = vec![first, small[2], small[1], small[0]];
            assert_eq!(alloc.debug_parked(), parked);
            assert!(alloc.debug_free_list(&node, 2).unwrap().is_empty());
        } else {
            assert_eq!(alloc.debug_free_list(&node, 2).unwrap().len(), 4);
        }
    }

    #[test]
    fn a_bag_past_the_magazines_room_spills_the_remainder_as_one_chain() {
        let (f, alloc, smr) = setup();
        let node = f.node(MachineId(0));
        let (held, bag) = (fresh(&alloc, &node, 6, 2), fresh(&alloc, &node, 5, 2));
        for &b in &held {
            alloc.free(&node, b).unwrap().unwrap();
        }
        let has_magazine = alloc.debug_parked() == held;
        let flushes = drain(&f, &smr, &node, &bag);
        if has_magazine {
            // Room for 2: a latch and 2 claims, then the remainder of 3
            // as a chain — its intent, 3 claims and the head CAS.
            assert_eq!(flushes, (1 + 2) + (3 + 2));
            assert_eq!(alloc.debug_free_list(&node, 2).unwrap(), bag[2..]);
            let mut parked = held.clone();
            parked.extend([bag[1], bag[0]]);
            assert_eq!(alloc.debug_parked(), parked);
            // Oldest first: the blocks parked before the drain, then the
            // spliced ones, then the list.
            for &b in held.iter().chain([&bag[1], &bag[0]]).chain(&bag[2..]) {
                assert_eq!(alloc.alloc(&node, 2).unwrap().unwrap().loc, b);
            }
        } else {
            assert_eq!(flushes, 5 + 2);
            assert_eq!(alloc.debug_free_list(&node, 2).unwrap().len(), 11);
        }
    }

    #[test]
    fn recover_sweeps_all_limbo_and_clears_pins() {
        const K: u64 = 3;
        let (f, alloc, smr) = setup();
        let node = f.node(MachineId(0));
        let mut locs = Vec::new();
        {
            let guard = smr.pin();
            for _ in 0..K {
                let b = alloc.alloc(&node, 2).unwrap().unwrap();
                guard.retire(&node, b.loc).unwrap();
                locs.push(b.loc);
            }
        }
        f.crash(MachineId(1));
        f.recover(MachineId(1));
        alloc.recover(&node).unwrap();
        let before = f.stats().snapshot();
        assert_eq!(smr.recover(&node).unwrap(), K as usize);
        // One chain, built from the incarnations limbo kept: the list
        // head is its only load — no header load per block — then `K`
        // claims and the head CAS, and `K + 2` flushes (the intent too).
        let d = f.stats().snapshot().since(&before);
        assert_eq!((d.loads, d.rmws, d.flushes()), (1, K + 1, K + 2));
        assert_eq!(smr.limbo_len(), 0);
        // All three blocks are reusable again.
        for _ in 0..3 {
            let b = alloc.alloc(&node, 2).unwrap().unwrap();
            assert!(locs.contains(&b.loc));
        }
    }

    /// Retires `b` at its generation, then frees it inline and takes it
    /// back at the same address before the bag ripens — a structure
    /// retiring one block twice — and sweeps limbo through `sweep`. The
    /// sweep must refuse the stale incarnation: the new one stays
    /// allocated, neither listed nor parked.
    fn stale_retire_is_refused_by(
        sweep: impl Fn(&Arc<SimFabric>, &Allocator, &SmrDomain) -> usize,
    ) {
        let (f, alloc, smr) = setup();
        let node = f.node(MachineId(0));
        let b = alloc.alloc(&node, 2).unwrap().unwrap();
        smr.pin()
            .retire_incarnation(&node, b.loc, b.gen, 2)
            .unwrap();
        alloc.free(&node, b.loc).unwrap().unwrap();
        let again = alloc.alloc(&node, 2).unwrap().unwrap();
        assert_eq!((again.loc, again.gen), (b.loc, b.gen + 1));
        assert_eq!(
            sweep(&f, &alloc, &smr),
            0,
            "the stale incarnation is refused"
        );
        assert_eq!(smr.limbo_len(), 0);
        assert!(alloc.debug_free_list(&node, 2).unwrap().is_empty());
        assert!(alloc.debug_parked().is_empty());
        // Still allocated: its owner's free succeeds.
        alloc.free(&node, again.loc).unwrap().unwrap();
    }

    #[test]
    fn a_stale_retire_cannot_free_a_live_block() {
        stale_retire_is_refused_by(|f, _, smr| smr.collect(&f.node(MachineId(0))).unwrap());
        stale_retire_is_refused_by(|f, alloc, smr| {
            let node = f.node(MachineId(0));
            f.crash(MachineId(1));
            f.recover(MachineId(1));
            alloc.recover(&node).unwrap();
            smr.recover(&node).unwrap()
        });
    }

    #[test]
    fn retiring_an_oversize_block_is_a_no_op() {
        let f = SimFabric::new(SystemConfig::symmetric_nvm(
            2,
            crate::alloc::META_CELLS + MAX_CLASS_CELLS + 200,
        ));
        let alloc = Arc::new(Allocator::over_region(
            f.config(),
            MachineId(1),
            Arc::new(Flit::new(FlitPolicy::CXL0)),
        ));
        let smr = SmrDomain::new(Arc::clone(&alloc));
        let node = f.node(MachineId(0));
        let cells = MAX_CLASS_CELLS + 1;
        let huge = alloc.alloc(&node, cells).unwrap().unwrap();
        {
            let guard = smr.pin();
            guard.retire(&node, huge.loc).unwrap();
            guard
                .retire_incarnation(&node, huge.loc, huge.gen, cells)
                .unwrap();
        }
        assert_eq!((smr.stats().retires, smr.limbo_len()), (0, 0));
        assert_eq!(smr.collect(&node).unwrap(), 0);
    }

    #[test]
    fn recover_keeps_limbo_when_the_sweeping_machine_is_down() {
        let (f, alloc, smr) = setup();
        let node = f.node(MachineId(0));
        let mut locs = Vec::new();
        {
            let guard = smr.pin();
            for _ in 0..5 {
                let b = alloc.alloc(&node, 2).unwrap().unwrap();
                guard.retire(&node, b.loc).unwrap();
                locs.push(b.loc);
            }
        }
        // The issuing compute node is down: the sweep fails, and must
        // drop nothing.
        f.crash(MachineId(0));
        assert!(smr.recover(&node).is_err());
        assert_eq!(smr.limbo_len(), 5);
        f.recover(MachineId(0));
        alloc.recover(&node).unwrap();
        assert_eq!(smr.recover(&node).unwrap(), 5);
        assert_eq!(smr.limbo_len(), 0);
        let mut listed = alloc.debug_free_list(&node, 2).unwrap();
        listed.sort();
        locs.sort();
        assert_eq!(listed, locs, "every retired block is on its free list");
    }

    #[test]
    fn stats_track_pins_retires_reclaims_epoch() {
        let (f, alloc, smr) = setup();
        let node = f.node(MachineId(0));
        let before = smr.stats();
        let b = alloc.alloc(&node, 2).unwrap().unwrap();
        {
            let g = smr.pin();
            g.retire(&node, b.loc).unwrap();
        }
        smr.collect(&node).unwrap();
        let after = smr.stats();
        assert_eq!(after.pins - before.pins, 1);
        assert_eq!(after.retires - before.retires, 1);
        assert_eq!(after.reclaims - before.reclaims, 1);
        assert!(after.epoch > before.epoch);
        assert_eq!(after.limbo, 0);
    }

    #[test]
    fn concurrent_pinners_never_lose_protection() {
        // Hammer pin/retire/collect from several threads over a tiny
        // region; every allocation must succeed (blocks cycle through
        // limbo back to the free lists) and the allocator must never
        // double-free.
        let f = SimFabric::new(SystemConfig::symmetric_nvm(3, 1 << 12));
        let alloc = Arc::new(Allocator::over_region(
            f.config(),
            MachineId(2),
            Arc::new(Flit::new(FlitPolicy::CXL0)),
        ));
        let smr = Arc::new(SmrDomain::new(Arc::clone(&alloc)));
        let mut handles = Vec::new();
        for t in 0..4usize {
            let smr = Arc::clone(&smr);
            let alloc = Arc::clone(&alloc);
            let node = f.node(MachineId(t % 2));
            handles.push(std::thread::spawn(move || {
                for _ in 0..200 {
                    let guard = smr.pin();
                    let b = alloc.alloc(&node, 2).unwrap().expect("region cycles");
                    guard.retire(&node, b.loc).unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let node = f.node(MachineId(0));
        smr.collect(&node).unwrap();
        let s = smr.stats();
        assert_eq!(s.retires, 800);
        assert_eq!(s.reclaims, 800, "everything retired was reclaimed");
        assert_eq!(smr.limbo_len(), 0);
    }
}
