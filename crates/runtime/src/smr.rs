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
//! per-epoch **limbo bags**. The epoch advances from `e` to `e + 1`
//! only when every pinned slot has observed `e`; a bag retired at epoch
//! `e` drains back to the allocator once the global epoch reaches
//! `e + 2`, because by then every traversal that could have loaded a
//! pointer to its blocks (necessarily pinned at `e` or earlier, since
//! retirement follows durable unlinking) has unpinned. A ripe bag goes
//! back whole, as one [`Allocator::free_chain`] (`k + 2` persists for
//! `k` blocks of a class). Draining is amortized into `retire` itself
//! (every few retirements) and available explicitly through
//! [`SmrDomain::collect`]; no quiescence is ever required.
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
//! lists as one [`Allocator::free_chain`] and clears every epoch slot.
//! Nothing durable records the epochs themselves.
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
use std::sync::{Arc, OnceLock};

use cxl0_model::Loc;
use parking_lot::Mutex;

use crate::alloc::Allocator;
use crate::backend::{thread_slot_index, AsNode, NodeHandle, RAIL_SLOTS};
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

/// One limbo bag: blocks retired while the global epoch was `epoch`.
#[derive(Debug)]
struct Bag {
    epoch: u64,
    blocks: Vec<Loc>,
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
    /// The persistency sanitizer, when one is installed on this domain's
    /// cluster: pin/unpin are purely volatile (no [`NodeHandle`] in
    /// scope), so the domain carries its own handle instead of routing
    /// through the fabric.
    checker: OnceLock<Arc<crate::check::Checker>>,
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
            checker: OnceLock::new(),
        }
    }

    /// Installs the persistency sanitizer (first installation wins;
    /// called from cluster construction).
    pub(crate) fn install_checker(&self, checker: Arc<crate::check::Checker>) {
        let _ = self.checker.set(checker);
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
        if let Some(ck) = self.checker.get() {
            ck.on_pin(idx, slot.word.load(Ordering::SeqCst) & EPOCH_MASK);
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
        if let Some(ck) = self.checker.get() {
            ck.on_unpin(idx);
        }
    }

    /// Retires `payload` (the payload location of an allocator block
    /// that is already durably unreachable) into the current epoch's
    /// limbo bag. Prefer [`SmrGuard::retire`], which enforces that the
    /// retiring operation is pinned.
    fn retire(&self, node: &NodeHandle, payload: Loc) -> OpResult<()> {
        let e = self.global.word.load(Ordering::SeqCst);
        {
            let mut limbo = self.limbo.lock();
            match limbo.back_mut() {
                // `>=`: another retirer may have opened a newer bag
                // between our epoch read and taking the lock; filing
                // under the newer epoch only lengthens the grace wait.
                Some(bag) if bag.epoch >= e => bag.blocks.push(payload),
                _ => limbo.push_back(Bag {
                    epoch: e,
                    blocks: vec![payload],
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
    pub fn collect(&self, at: &impl AsNode) -> OpResult<usize> {
        let _span = at.as_node().trace_span(crate::trace::OpKind::SmrCollect);
        self.collect_inner(at.as_node())
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
    /// epoch.
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
            // The whole bag goes back as one chain per size class.
            match self.alloc.free_chain(node, &bag.blocks) {
                Ok(n) => {
                    debug_assert_eq!(
                        n,
                        bag.blocks.len(),
                        "retired blocks are allocated exactly once"
                    );
                    freed += n;
                    self.reclaims.fetch_add(n as u64, Ordering::Relaxed);
                    self.limbo_len
                        .fetch_sub(bag.blocks.len() as u64, Ordering::Relaxed);
                }
                Err(crashed) => {
                    // The machine crashed mid-drain. The blocks the
                    // chain had already claimed are the allocator's
                    // recovery problem (its intent seals); the bag goes
                    // back to limbo whole for `recover` to sweep, which
                    // skips those.
                    self.limbo.lock().push_front(bag);
                    return Err(crashed);
                }
            }
        }
    }

    /// Post-crash sweep, run from
    /// [`Session::recover_roots`](crate::api::Session::recover_roots)
    /// after [`Allocator::recover`]: hands **all** of limbo straight
    /// back to the allocator as one chain (grace periods are moot —
    /// recovery is quiesced, so no traversal holds references) and
    /// clears every epoch slot. Returns the number of blocks swept.
    /// Frees that the allocator's own recovery already completed (a
    /// crash mid-drain) are refused there as double frees and skipped —
    /// tolerated here only.
    ///
    /// **Must run quiesced**: no concurrent operations, no live guards
    /// — the same contract as every other `recover`.
    ///
    /// # Errors
    ///
    /// Fails if the issuing machine has crashed; limbo then keeps every
    /// block for the next `recover`.
    pub fn recover(&self, at: &impl AsNode) -> OpResult<usize> {
        let node = at.as_node();
        for slot in self.slots.iter() {
            slot.word.store(0, Ordering::SeqCst);
        }
        node.check_smr_recover();
        let mut limbo = self.limbo.lock();
        let blocks: Vec<Loc> = limbo.iter().flat_map(|bag| &bag.blocks).copied().collect();
        let swept = self.alloc.free_chain(node, &blocks)?;
        limbo.clear();
        self.limbo_len
            .fetch_sub(blocks.len() as u64, Ordering::Relaxed);
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
/// sleeps with a linearly growing interval.
pub fn exhaustion_backoff(attempt: u32) {
    if attempt < 8 {
        std::thread::yield_now();
    } else {
        std::thread::sleep(std::time::Duration::from_micros(u64::from(attempt) * 20));
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
    /// # Errors
    ///
    /// Fails if the issuing machine has crashed (the block stays in
    /// limbo for [`SmrDomain::recover`]).
    pub fn retire(&self, at: &impl AsNode, payload: Loc) -> OpResult<()> {
        self.domain.retire(at.as_node(), payload)
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

    #[test]
    fn recover_sweeps_all_limbo_and_clears_pins() {
        let (f, alloc, smr) = setup();
        let node = f.node(MachineId(0));
        let mut locs = Vec::new();
        {
            let guard = smr.pin();
            for _ in 0..3 {
                let b = alloc.alloc(&node, 2).unwrap().unwrap();
                guard.retire(&node, b.loc).unwrap();
                locs.push(b.loc);
            }
        }
        f.crash(MachineId(1));
        f.recover(MachineId(1));
        alloc.recover(&node).unwrap();
        assert_eq!(smr.recover(&node).unwrap(), 3);
        assert_eq!(smr.limbo_len(), 0);
        // All three blocks are reusable again.
        for _ in 0..3 {
            let b = alloc.alloc(&node, 2).unwrap().unwrap();
            assert!(locs.contains(&b.loc));
        }
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
