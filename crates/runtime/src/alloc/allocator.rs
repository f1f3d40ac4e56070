//! The crash-consistent size-class allocator. See the module docs in
//! [`crate::alloc`] for the protocol walkthrough.

use std::collections::HashSet;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;

use cxl0_model::{Loc, MachineId, SystemConfig};

use crate::alloc::layout::{
    decode_addr, decode_gen, head_top, head_ver, head_word, header_class, header_gen, header_next,
    header_state, header_word, intent_class, intent_op, intent_word, null_word, ptr_word, seed_gen,
    GEN_MASK, HUGE_CLASS, OP_ALLOC, OP_FREE, ST_ALLOCATED, ST_FREE,
};
use crate::backend::{AsNode, NodeHandle};
use crate::error::OpResult;
use crate::flit::Persistence;
use crate::heap::SharedHeap;

/// Number of size classes: powers of two from 1 cell to
/// [`MAX_CLASS_CELLS`].
pub const NUM_CLASSES: usize = 15;

/// Largest reclaimable payload, in cells (`1 << 14`). Bigger requests
/// are served exact-fit from the bump tail and cannot be freed.
pub const MAX_CLASS_CELLS: u32 = 1 << (NUM_CLASSES - 1);

/// Durable allocation-intent slots. Each in-flight `alloc`/`free` leases
/// one; a crash mid-operation leaves its intent latched for the recovery
/// sweep.
pub const INTENT_SLOTS: usize = 32;

/// Region-header cells: magic, geometry, data base, extent limit.
const HEADER_META_CELLS: u32 = 4;

/// Durable metadata cells the allocator reserves at the start of its
/// range: region header + one free-list head per class + two cells per
/// intent slot (the intent word and a reserved cell).
pub const META_CELLS: u32 = HEADER_META_CELLS + NUM_CLASSES as u32 + 2 * INTENT_SLOTS as u32;

/// Region-header magic ("CXL0ALOC", little-endian-ish).
const MAGIC: u64 = 0x4358_4c30_414c_4f43;

/// The size class serving a `cells`-cell payload, or `None` when the
/// request is oversize (exact-fit, unreclaimable).
fn class_for(cells: u32) -> Option<usize> {
    debug_assert!(cells > 0);
    if cells > MAX_CLASS_CELLS {
        None
    } else {
        Some(cells.next_power_of_two().trailing_zeros() as usize)
    }
}

/// Payload cells reserved by size class `c`.
fn class_cells(c: usize) -> u32 {
    1 << c
}

/// A handle to one allocated block: the payload location plus the
/// block's reuse generation.
///
/// The generation is what makes pointer words ABA-safe: encode it into
/// every stored reference with [`Allocator::encode`], and a CAS against
/// a stale reference to a reclaimed-and-recycled block cannot
/// spuriously succeed (the recycled block's generation differs — up to
/// the 20-bit wrap bound discussed in [`crate::alloc`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockRef {
    /// First payload cell. The block header lives at `loc.addr - 1`.
    pub loc: Loc,
    /// The block's reuse generation (bumped on every free).
    pub gen: u64,
    /// Whether the block was served from a free list. Recycled payload
    /// cells retain their previous contents; fresh bump-tail cells are
    /// guaranteed zero — callers that need a zeroed payload (the hash
    /// map's table) can skip the zeroing for fresh blocks.
    pub recycled: bool,
}

/// Why a free was refused (the block is left untouched).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FreeError {
    /// The location is outside the allocator's range or its header does
    /// not describe a block.
    NotABlock,
    /// The block is already free (or a racing free of it won).
    DoubleFree,
    /// The block is an oversize exact-fit allocation; those are served
    /// from the bump tail and cannot be reclaimed.
    Oversize,
}

impl std::fmt::Display for FreeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FreeError::NotABlock => write!(f, "location is not an allocated block"),
            FreeError::DoubleFree => write!(f, "block is already free (double free)"),
            FreeError::Oversize => write!(f, "oversize blocks cannot be reclaimed"),
        }
    }
}

impl std::error::Error for FreeError {}

/// A point-in-time copy of the allocator's volatile counters.
///
/// Counters (`allocs`, `frees`, `freelist_hits`) are monotonic;
/// `live_cells`/`hw_cells` are gauges. All are process-local
/// approximations: a crash torn mid-operation can leave them off by one
/// block until the workload quiesces (the durable state, by contrast,
/// is exact — that is what [`Allocator::recover`] reconciles).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AllocStats {
    /// Successful allocations (free-list hits + bump allocations).
    pub allocs: u64,
    /// Successful frees.
    pub frees: u64,
    /// Allocations served by reusing a reclaimed block.
    pub freelist_hits: u64,
    /// Payload cells currently allocated.
    pub live_cells: u64,
    /// High-water mark of `live_cells`.
    pub hw_cells: u64,
}

/// What one [`Allocator::recover`] sweep did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AllocRecovery {
    /// Intent slots found latched and sealed (torn or merely stale).
    pub sealed_intents: usize,
    /// Blocks put back onto their free lists (torn mid-alloc or
    /// mid-free; without the sweep they would be lost).
    pub restored_blocks: usize,
}

/// Tear points of an allocation pop, for crash-consistency tests.
#[doc(hidden)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TornAlloc {
    /// After the intent records the top block, before the head CAS.
    Recorded,
    /// After the head swings past the block, before its header is marked
    /// allocated.
    Swung,
    /// After the header is marked allocated (the pop is complete),
    /// before the intent clears.
    Marked,
}

/// Tear points of a free — of one block or a chain — for
/// crash-consistency tests.
#[doc(hidden)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TornFree {
    /// After the intent latches, before any claim.
    Latched,
    /// After the `n`-th block's claim CAS (`n >= 1`; the chain's length
    /// is "after the last claim"), before the head CAS.
    Claimed(usize),
    /// After the head CAS publishes the chain, before the intent clears.
    Pushed,
}

/// Volatile lease pool over the durable intent slots.
#[derive(Debug, Default)]
struct SlotPool {
    mask: AtomicU32,
}

impl SlotPool {
    /// Leases a free slot, spinning if all are in flight.
    fn acquire(&self) -> usize {
        let mut spins = 0u32;
        loop {
            let cur = self.mask.load(Ordering::Relaxed);
            let free = !cur;
            if free != 0 {
                let idx = free.trailing_zeros();
                if self
                    .mask
                    .compare_exchange_weak(
                        cur,
                        cur | (1 << idx),
                        Ordering::Acquire,
                        Ordering::Relaxed,
                    )
                    .is_ok()
                {
                    return idx as usize;
                }
            }
            spins += 1;
            if spins.is_multiple_of(64) {
                std::thread::yield_now();
            }
        }
    }

    fn release(&self, idx: usize) {
        self.mask.fetch_and(!(1u32 << idx), Ordering::Release);
    }

    /// Post-crash reset: every lease is void (leases torn off by a crash
    /// are deliberately *not* released in-line, so their latched intents
    /// survive untouched until the sweep).
    fn reset(&self) {
        self.mask.store(0, Ordering::Release);
    }
}

/// What a free-list pop attempt concluded (drives slot-lease cleanup).
enum PopOutcome {
    /// The class free list is empty; fall back to the bump tail.
    Empty,
    /// Got a reclaimed block.
    Got(BlockRef),
    /// A torn-operation hook stopped mid-protocol (intent left latched,
    /// lease leaked on purpose).
    Torn(Loc),
}

/// What the chain-free path did with the blocks it was handed.
#[derive(Default)]
struct Chained {
    /// Blocks claimed (and, unless torn, published).
    freed: usize,
    /// The first refusal, if any block was not freeable.
    refused: Option<FreeError>,
    /// A torn-operation hook stopped mid-protocol (see [`PopOutcome`]).
    torn: bool,
}

/// A block the chain-free path validated as freeable.
#[derive(Clone, Copy)]
struct Owned {
    class: u64,
    /// Payload address.
    addr: u32,
    /// The (`ALLOCATED`) header as loaded — what the claim CAS expects.
    hdr: u64,
}

/// Recovery's per-class view of which blocks a free list holds: `None`
/// until the class is first asked about (one list walk), then kept
/// current as recovery republishes blocks.
type OnList = [Option<HashSet<u32>>; NUM_CLASSES];

/// A crash-consistent size-class allocator over the durable shared
/// segment of one memory node.
///
/// Allocation is satisfied from per-class intrusive free lists first and
/// from the wrapped [`SharedHeap`] bump tail otherwise; `free` pushes
/// blocks back for reuse, so churn workloads run in bounded memory.
/// Every durable mutation flows through the configured
/// [`Persistence`] strategy, and every alloc/free records a durable
/// *intent* first, so a crash at any instant loses no block and hands
/// none out twice — [`Allocator::recover`] seals torn intents and
/// reconciles the free lists. See [`crate::alloc`] for the full
/// protocol.
#[derive(Debug)]
pub struct Allocator {
    region: MachineId,
    /// First metadata cell (region header, heads, intent slots).
    meta_base: u32,
    /// First cell of the block area (`meta_base + META_CELLS`).
    data_base: u32,
    /// One past the last cell of the allocator's range.
    limit: u32,
    heap: Arc<SharedHeap>,
    persist: Arc<dyn Persistence>,
    slots: SlotPool,
    allocs: AtomicU64,
    frees: AtomicU64,
    freelist_hits: AtomicU64,
    live_cells: AtomicU64,
    hw_cells: AtomicU64,
}

impl Allocator {
    /// An allocator over the sub-range `[base, base + len)` of machine
    /// `region`'s shared segment: [`META_CELLS`] metadata cells followed
    /// by the block area (a [`SharedHeap`] bump tail).
    ///
    /// Fresh fabric memory is all-zero, which is a valid initial state
    /// (empty free lists, idle intents); call [`Allocator::format`] once
    /// to stamp the region header.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the region or leaves no block area.
    pub fn with_range(
        cfg: &SystemConfig,
        region: MachineId,
        base: u32,
        len: u32,
        persist: Arc<dyn Persistence>,
    ) -> Self {
        assert!(
            len > META_CELLS,
            "allocator range must exceed {META_CELLS} metadata cells"
        );
        let heap = Arc::new(SharedHeap::with_range(
            cfg,
            region,
            base + META_CELLS,
            len - META_CELLS,
        ));
        Self::with_meta(region, base, base + len, heap, persist)
    }

    /// An allocator whose [`META_CELLS`] metadata cells start at
    /// `meta_base` of a **shared** bump heap: other fixed-footprint
    /// users (registers, the buffered-epoch machinery, …) may
    /// interleave their own bump allocations in the same block area.
    /// The caller must have reserved `[meta_base, meta_base +
    /// META_CELLS)` off the heap already; `limit` is one past the last
    /// cell of the region.
    pub(crate) fn with_meta(
        region: MachineId,
        meta_base: u32,
        limit: u32,
        heap: Arc<SharedHeap>,
        persist: Arc<dyn Persistence>,
    ) -> Self {
        Allocator {
            region,
            meta_base,
            data_base: meta_base + META_CELLS,
            limit,
            heap,
            persist,
            slots: SlotPool::default(),
            allocs: AtomicU64::new(0),
            frees: AtomicU64::new(0),
            freelist_hits: AtomicU64::new(0),
            live_cells: AtomicU64::new(0),
            hw_cells: AtomicU64::new(0),
        }
    }

    /// An allocator over all of machine `region`'s shared locations —
    /// the low-level counterpart of `SharedHeap::new` for code that
    /// assembles the fabric by hand.
    pub fn over_region(
        cfg: &SystemConfig,
        region: MachineId,
        persist: Arc<dyn Persistence>,
    ) -> Self {
        Self::with_range(cfg, region, 0, cfg.machine(region).locations, persist)
    }

    /// The machine whose memory this allocator carves up.
    pub fn region(&self) -> MachineId {
        self.region
    }

    /// The bump tail serving free-list misses (and the low-level
    /// escape hatch for never-reclaimed allocations).
    pub fn heap(&self) -> &Arc<SharedHeap> {
        &self.heap
    }

    /// The durability strategy every allocator mutation flows through.
    pub fn persistence(&self) -> &Arc<dyn Persistence> {
        &self.persist
    }

    /// Cells in the block area (the allocator's range minus metadata) —
    /// also a safe upper bound on any free-list or structure walk.
    pub fn block_area_cells(&self) -> u32 {
        self.limit - self.data_base
    }

    /// A copy of the volatile counters.
    pub fn stats(&self) -> AllocStats {
        AllocStats {
            allocs: self.allocs.load(Ordering::Relaxed),
            frees: self.frees.load(Ordering::Relaxed),
            freelist_hits: self.freelist_hits.load(Ordering::Relaxed),
            live_cells: self.live_cells.load(Ordering::Relaxed),
            hw_cells: self.hw_cells.load(Ordering::Relaxed),
        }
    }

    // ---- durable cell addressing ---------------------------------------

    fn head_cell(&self, class: usize) -> Loc {
        Loc::new(
            self.region,
            self.meta_base + HEADER_META_CELLS + class as u32,
        )
    }

    /// The intent word of `slot` (the cell after it is reserved).
    fn intent_cell(&self, slot: usize) -> Loc {
        Loc::new(
            self.region,
            self.meta_base + HEADER_META_CELLS + NUM_CLASSES as u32 + 2 * slot as u32,
        )
    }

    fn header_cell(&self, payload: u32) -> Loc {
        Loc::new(self.region, payload - 1)
    }

    /// Whether `payload` can be a block's payload address at all.
    fn in_block_area(&self, payload: u32) -> bool {
        payload > self.data_base && payload < self.limit
    }

    /// Stamps the persistent region header (magic, geometry, extent).
    ///
    /// # Errors
    ///
    /// Fails if the issuing machine has crashed.
    pub fn format(&self, at: &impl AsNode) -> OpResult<()> {
        let node = at.as_node();
        let base = self.meta_base;
        let geometry = ((NUM_CLASSES as u64) << 8) | INTENT_SLOTS as u64;
        for (i, v) in [
            MAGIC,
            geometry,
            u64::from(self.data_base),
            u64::from(self.limit),
        ]
        .into_iter()
        .enumerate()
        {
            self.persist
                .private_store(node, Loc::new(self.region, base + i as u32), v, true)?;
        }
        self.persist.complete_op(node)
    }

    // ---- pointer encoding ----------------------------------------------

    /// Encodes a block reference as a pointer word for storage in shared
    /// cells (generation-tagged; bit 63 left clear for structure marks).
    pub fn encode(block: BlockRef) -> u64 {
        ptr_word(block.loc.addr.0, block.gen)
    }

    /// A null pointer word carrying `gen`: link cells of a block are
    /// initialized with their block's generation so a stale CAS against
    /// a recycled block's null never matches.
    pub fn null_ptr(gen: u64) -> u64 {
        null_word(gen & GEN_MASK)
    }

    /// The generation carried by a pointer word (null or not). Paired
    /// with [`Allocator::null_ptr`], this lets a structure CAS against
    /// *the incarnation it believes in* — e.g. the queue's append
    /// expects the null of its observed tail's generation, never a raw
    /// null it read (which could belong to a recycled incarnation).
    pub fn ptr_gen(raw: u64) -> u64 {
        decode_gen(raw)
    }

    /// Decodes a pointer word, rejecting nulls **and any address outside
    /// this allocator's block area** — a stale or corrupted word can
    /// never alias allocator metadata or a foreign range.
    pub fn decode(&self, raw: u64) -> Option<Loc> {
        let addr = decode_addr(raw)?;
        self.in_block_area(addr)
            .then(|| Loc::new(self.region, addr))
    }

    // ---- allocation -----------------------------------------------------

    /// Allocates a block with at least `cells` payload cells (rounded up
    /// to the size class; requests above [`MAX_CLASS_CELLS`] are served
    /// exact-fit and are unreclaimable). Returns `None` when both the
    /// class free list and the bump tail are exhausted.
    ///
    /// Recycled payload cells contain their previous contents — callers
    /// must initialize every cell they rely on before publication.
    ///
    /// A free-list allocation is **complete once the block's header is
    /// marked allocated**, one persist before this call returns: a crash
    /// from then on leaves the block allocated, and if the caller dies
    /// with it before durably linking the block anywhere, the block
    /// leaks — the same window in which a caller that crashes right
    /// after `alloc` returns leaks it. Before the mark, recovery returns
    /// the block to its free list.
    ///
    /// # Panics
    ///
    /// Panics if `cells` is zero.
    ///
    /// # Errors
    ///
    /// Fails if the issuing machine has crashed.
    pub fn alloc(&self, at: &impl AsNode, cells: u32) -> OpResult<Option<BlockRef>> {
        assert!(cells > 0, "zero-cell allocations are meaningless");
        let node = at.as_node();
        let result = self.alloc_inner(node, cells)?;
        self.persist.complete_op(node)?;
        Ok(result)
    }

    fn alloc_inner(&self, node: &NodeHandle, cells: u32) -> OpResult<Option<BlockRef>> {
        let (payload_cells, class_tag) = match class_for(cells) {
            Some(class) => {
                match self.pop(node, class, None)? {
                    PopOutcome::Got(block) => {
                        self.freelist_hits.fetch_add(1, Ordering::Relaxed);
                        self.note_alloc(class_cells(class));
                        return Ok(Some(block));
                    }
                    PopOutcome::Empty => {}
                    PopOutcome::Torn(_) => unreachable!("tear hooks only run via torn_alloc"),
                }
                (class_cells(class), class as u64)
            }
            None => (cells, HUGE_CLASS),
        };
        // Bump fallback. A crash between the (volatile, process-local)
        // bump advance and the header store leaks the cells, exactly
        // like the pre-allocator monotonic heap.
        let Some(block) = self.heap.alloc(payload_cells + 1) else {
            return Ok(None);
        };
        let payload = block.addr.0 + 1;
        // Fresh blocks start at a per-address *seed* generation (nonzero,
        // odd — see `seed_gen`) rather than zero: pointer words into a
        // brand-new block are already distinguishable from application
        // scalars and from any other block's words.
        let gen = seed_gen(payload);
        self.persist.private_store(
            node,
            self.header_cell(payload),
            header_word(ST_ALLOCATED, class_tag, gen, None),
            true,
        )?;
        self.note_alloc(payload_cells);
        node.check_alloc(Loc::new(self.region, payload), payload_cells, gen);
        Ok(Some(BlockRef {
            loc: Loc::new(self.region, payload),
            gen,
            recycled: false,
        }))
    }

    fn note_alloc(&self, cells: u32) {
        self.allocs.fetch_add(1, Ordering::Relaxed);
        let live = self
            .live_cells
            .fetch_add(u64::from(cells), Ordering::Relaxed)
            + u64::from(cells);
        self.hw_cells.fetch_max(live, Ordering::Relaxed);
    }

    fn note_free(&self, cells: u32) {
        self.frees.fetch_add(1, Ordering::Relaxed);
        let _ = self
            .live_cells
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
                Some(v.saturating_sub(u64::from(cells)))
            });
    }

    /// The crash-consistent pop — a version-tagged Treiber pop with its
    /// intent recorded *before* the head CAS, lock-free:
    ///
    /// 1. **Record**: persist an intent naming the top block and the
    ///    generation its (free) header carries.
    /// 2. **Swing**: CAS the head past the block. A failed CAS retries
    ///    from the head it observed, overwriting the intent.
    /// 3. **Mark** the header `ALLOCATED` — the pop is complete — and
    ///    clear the intent with a plain cached store.
    ///
    /// An intent therefore only says "this slot *may* have popped that
    /// block": whether it did is read off the block itself. Recovery
    /// returns the block only while its header is still `FREE` at the
    /// recorded generation and no list holds it, so an intent that lost
    /// its CAS, never ran it, or resurfaced after its unflushed clear
    /// was lost is harmless.
    fn pop(
        &self,
        node: &NodeHandle,
        class: usize,
        stop: Option<TornAlloc>,
    ) -> OpResult<PopOutcome> {
        // Peek before leasing a slot: an empty list needs no intent.
        let head = self
            .persist
            .shared_load(node, self.head_cell(class), true)?;
        if head_top(head).is_none() {
            return Ok(PopOutcome::Empty);
        }
        let slot = self.slots.acquire();
        let outcome = self.pop_with_slot(node, class, slot, head, stop);
        match &outcome {
            // A crash error or a deliberate tear leaves the lease
            // leaked: the latched durable intent must survive untouched
            // until the recovery sweep resets the pool.
            Err(_) | Ok(PopOutcome::Torn(_)) => {}
            Ok(_) => self.slots.release(slot),
        }
        outcome
    }

    fn pop_with_slot(
        &self,
        node: &NodeHandle,
        class: usize,
        slot: usize,
        mut head: u64,
        stop: Option<TornAlloc>,
    ) -> OpResult<PopOutcome> {
        let head_cell = self.head_cell(class);
        let intent_cell = self.intent_cell(slot);
        let popped = loop {
            let Some(top) = head_top(head) else {
                break None;
            };
            let hdr = self
                .persist
                .shared_load(node, self.header_cell(top), true)?;
            if header_state(hdr) != ST_FREE {
                // A racing pop already took `top`: our head is stale.
                head = self.persist.shared_load(node, head_cell, true)?;
                continue;
            }
            let gen = header_gen(hdr);
            // (1) record
            self.persist.private_store(
                node,
                intent_cell,
                intent_word(OP_ALLOC, class as u64, top, gen),
                true,
            )?;
            if stop == Some(TornAlloc::Recorded) {
                return Ok(PopOutcome::Torn(Loc::new(self.region, top)));
            }
            // (2) swing
            let swung = head_word(header_next(hdr), head_ver(head).wrapping_add(1));
            match self
                .persist
                .shared_cas(node, head_cell, head, swung, true)?
            {
                Ok(_) => break Some((top, gen)),
                Err(actual) => head = actual,
            }
        };
        let Some((top, gen)) = popped else {
            // Emptied under us. A losing intent is harmless; tidy it.
            self.persist.private_store(node, intent_cell, 0, false)?;
            return Ok(PopOutcome::Empty);
        };
        let payload = Loc::new(self.region, top);
        if stop == Some(TornAlloc::Swung) {
            return Ok(PopOutcome::Torn(payload));
        }
        // (3) mark: the CAS took the block off the list, so its header
        // is exclusively ours.
        self.persist.private_store(
            node,
            self.header_cell(top),
            header_word(ST_ALLOCATED, class as u64, gen, None),
            true,
        )?;
        if stop == Some(TornAlloc::Marked) {
            return Ok(PopOutcome::Torn(payload));
        }
        // Unflagged: a lost clear only resurfaces a stale intent, which
        // recovery tells from a live one by the block's generation.
        self.persist.private_store(node, intent_cell, 0, false)?;
        node.check_alloc(payload, class_cells(class), gen);
        Ok(PopOutcome::Got(BlockRef {
            loc: payload,
            gen,
            recycled: true,
        }))
    }

    // ---- free -----------------------------------------------------------

    /// Returns `payload`'s block to its class free list for reuse: the
    /// [`free_chain`](Allocator::free_chain) of one block.
    ///
    /// The allocation-intent protocol makes this crash-consistent: once
    /// `free` is invoked, a crash at any instant either leaves the block
    /// allocated-and-intent-latched (recovery completes the free) or
    /// free (recovery deduplicates) — never lost, never on the list
    /// twice. Freeing a block that is already free is detected and
    /// refused; freeing a block another caller still uses is a logic
    /// error the allocator cannot detect (as in C).
    ///
    /// # Errors
    ///
    /// `Err(Crashed)` if the issuing machine has crashed; `Ok(Err(_))`
    /// when the free is refused (see [`FreeError`]).
    pub fn free(&self, at: &impl AsNode, payload: Loc) -> OpResult<Result<(), FreeError>> {
        let done = self.chain(at.as_node(), &[payload], None)?;
        Ok(done.refused.map_or(Ok(()), Err))
    }

    /// Returns every block of `blocks` to its class free list as one
    /// **chain** per size class: one intent naming the chain's first
    /// block, one claim CAS per block that also links it to its
    /// successor (the last to the list's current top), and one head CAS
    /// publishing the whole chain — `k + 2` persists for `k` blocks of
    /// one class, where `k` single frees pay `3k`.
    ///
    /// Returns how many blocks were freed. A block that is not freeable
    /// is skipped and left untouched, exactly as [`Allocator::free`]
    /// would refuse it, so the count falls short of `blocks.len()` by
    /// the number of refusals. A crash mid-chain loses nothing: recovery
    /// walks the links from the intent's block and publishes every
    /// block already claimed; the unclaimed rest stay allocated.
    ///
    /// # Errors
    ///
    /// Fails if the issuing machine has crashed.
    pub fn free_chain(&self, at: &impl AsNode, blocks: &[Loc]) -> OpResult<usize> {
        Ok(self.chain(at.as_node(), blocks, None)?.freed)
    }

    /// The one free path: validates every block, groups the freeable
    /// ones by size class (a free list holds one class) and pushes each
    /// group as a chain.
    fn chain(
        &self,
        node: &NodeHandle,
        blocks: &[Loc],
        stop: Option<TornFree>,
    ) -> OpResult<Chained> {
        let mut done = Chained::default();
        let mut owned: Vec<Owned> = Vec::with_capacity(blocks.len());
        for &payload in blocks {
            match self.freeable(node, payload)? {
                Ok(hdr) => owned.push(Owned {
                    class: header_class(hdr),
                    addr: payload.addr.0,
                    hdr,
                }),
                Err(e) => {
                    done.refused.get_or_insert(e);
                }
            }
        }
        if !owned.is_empty() {
            // Stable: within a class the caller's order is the chain's.
            owned.sort_by_key(|b| b.class);
            let slot = self.slots.acquire();
            let pushed = self.chain_with_slot(node, slot, &owned, stop, &mut done);
            if pushed.is_ok() && !done.torn {
                self.slots.release(slot); // else leak the lease (see pop)
            }
            pushed?;
        }
        self.persist.complete_op(node)?;
        Ok(done)
    }

    /// The header of `payload`'s block if the block can be freed, else
    /// why it cannot.
    fn freeable(&self, node: &NodeHandle, payload: Loc) -> OpResult<Result<u64, FreeError>> {
        let addr = payload.addr.0;
        if payload.owner != self.region || !self.in_block_area(addr) {
            return Ok(Err(FreeError::NotABlock));
        }
        let hdr = self
            .persist
            .shared_load(node, self.header_cell(addr), true)?;
        Ok(match (header_state(hdr), header_class(hdr)) {
            (ST_ALLOCATED, HUGE_CLASS) => Err(FreeError::Oversize),
            (ST_ALLOCATED, class) if (class as usize) < NUM_CLASSES => Ok(hdr),
            (ST_FREE, _) => Err(FreeError::DoubleFree),
            _ => Err(FreeError::NotABlock),
        })
    }

    fn chain_with_slot(
        &self,
        node: &NodeHandle,
        slot: usize,
        owned: &[Owned],
        stop: Option<TornFree>,
        done: &mut Chained,
    ) -> OpResult<()> {
        for run in owned.chunk_by(|a, b| a.class == b.class) {
            let mut rest = run;
            while !rest.is_empty() && !done.torn {
                rest = &rest[self.push_run(node, slot, rest, stop, done)?..];
            }
        }
        Ok(())
    }

    /// Pushes one chain, `run` being blocks of one class:
    ///
    /// 1. **Latch** an intent naming the first block at its generation.
    /// 2. **Claim and link**, front to back: each block's header goes
    ///    `ALLOCATED g → FREE g+1, next = successor` in one CAS (exactly
    ///    one free of an incarnation wins it); the last block's
    ///    successor is the list's current top. Claimed blocks are on no
    ///    list yet, but a walk along `next` from the intent's block
    ///    reaches every one of them — that is what recovery does.
    /// 3. **Publish** the chain with one head CAS (re-aiming the last
    ///    block first if the top moved), then clear the intent with a
    ///    plain cached store.
    ///
    /// Returns how many blocks of `run` it consumed: all of them, or —
    /// when a racing free won a block's claim — the chain up to that
    /// block plus the lost block itself.
    fn push_run(
        &self,
        node: &NodeHandle,
        slot: usize,
        run: &[Owned],
        stop: Option<TornFree>,
        done: &mut Chained,
    ) -> OpResult<usize> {
        let Owned {
            class,
            addr: first,
            hdr: first_hdr,
        } = run[0];
        let head_cell = self.head_cell(class as usize);
        let intent_cell = self.intent_cell(slot);
        // (1) latch
        self.persist.private_store(
            node,
            intent_cell,
            intent_word(OP_FREE, class, first, header_gen(first_hdr)),
            true,
        )?;
        if stop == Some(TornFree::Latched) {
            done.torn = true;
            return Ok(run.len());
        }
        let mut head = self.persist.shared_load(node, head_cell, true)?;
        // (2) claim and link. `tail` is the last block claimed: its
        // address, bumped generation, and where its `next` aims.
        let mut tail = None;
        let mut claimed = 0;
        for (i, &Owned { addr, hdr, .. }) in run.iter().enumerate() {
            let next = run.get(i + 1).map_or(head_top(head), |b| Some(b.addr));
            let gen = header_gen(hdr).wrapping_add(1) & GEN_MASK;
            if self
                .persist
                .shared_cas(
                    node,
                    self.header_cell(addr),
                    hdr,
                    header_word(ST_FREE, class, gen, next),
                    true,
                )?
                .is_err()
            {
                done.refused.get_or_insert(FreeError::DoubleFree);
                break;
            }
            // The sanitizer learns of the free here, while the block is
            // still unpublished: once the head CAS republishes it a
            // racing pop may hand it out, and a late "freed" would
            // overwrite that pop's "live".
            node.check_free(Loc::new(self.region, addr));
            self.note_free(class_cells(class as usize));
            claimed += 1;
            done.freed += 1;
            tail = Some((addr, gen, next));
            if stop == Some(TornFree::Claimed(claimed)) {
                done.torn = true;
                return Ok(run.len());
            }
        }
        // (3) publish
        if let Some((tail, gen, mut next)) = tail {
            loop {
                let top = head_top(head);
                if next != top {
                    // The tail aims at a block whose claim was lost, or
                    // at a top that has moved.
                    self.relink(node, class, tail, gen, top)?;
                    next = top;
                }
                let pushed = head_word(Some(first), head_ver(head).wrapping_add(1));
                match self
                    .persist
                    .shared_cas(node, head_cell, head, pushed, true)?
                {
                    Ok(_) => break,
                    Err(actual) => head = actual,
                }
            }
            if stop == Some(TornFree::Pushed) {
                done.torn = true;
                return Ok(run.len());
            }
        }
        self.persist.private_store(node, intent_cell, 0, false)?;
        Ok((claimed + 1).min(run.len()))
    }

    /// Re-aims the `next` link of a free block that no list can reach
    /// (claimed but unpublished, or orphaned and being restored) — the
    /// block is exclusively the caller's, so a persistent private store
    /// suffices.
    fn relink(
        &self,
        node: &NodeHandle,
        class: u64,
        addr: u32,
        gen: u64,
        next: Option<u32>,
    ) -> OpResult<()> {
        self.persist.private_store(
            node,
            self.header_cell(addr),
            header_word(ST_FREE, class, gen, next),
            true,
        )
    }

    // ---- recovery -------------------------------------------------------

    /// Post-crash sweep. Must run quiesced (no concurrent allocator
    /// traffic), like every `recover` in this crate. Seals every latched
    /// intent, reading off the named block's header — state, generation,
    /// list membership; the table is in [`crate::alloc`] — whether the
    /// operation was torn: a pop torn after its head CAS is put back, a
    /// free torn before its claim is claimed, and a torn chain is
    /// *walked* — along `next` from the intent's block while blocks are
    /// `FREE`, of the intent's class, and on no list (under quiescence
    /// such a block belongs to no one) — and published. Anything else is
    /// a stale intent, its unflushed clear lost with the issuer's cache,
    /// and frees nothing: a live block is `ALLOCATED`, and a generation
    /// only matches the operation that recorded it.
    ///
    /// Cost: one load per intent slot and one header load per latched
    /// intent; each class's free list is walked **at most once** per
    /// sweep (only if some intent names a `FREE` block of that class at
    /// a matching generation), plus the blocks of the torn chains
    /// themselves. Finally the volatile intent-slot pool is reset.
    ///
    /// # Errors
    ///
    /// Fails if the issuing machine has crashed.
    pub fn recover(&self, at: &impl AsNode) -> OpResult<AllocRecovery> {
        let node = at.as_node();
        let mut report = AllocRecovery::default();
        let mut on_list = OnList::default();
        for slot in 0..INTENT_SLOTS {
            let cell = self.intent_cell(slot);
            let word = self.persist.shared_load(node, cell, true)?;
            if word == 0 {
                continue;
            }
            report.sealed_intents += 1;
            let class = intent_class(word);
            let gen = decode_gen(word);
            let bumped = gen.wrapping_add(1) & GEN_MASK;
            let named = decode_addr(word)
                .filter(|&a| (class as usize) < NUM_CLASSES && self.in_block_area(a));
            if let Some(addr) = named {
                let hdr = self
                    .persist
                    .shared_load(node, self.header_cell(addr), true)?;
                let maybe_orphaned = match (intent_op(word), header_state(hdr)) {
                    (OP_ALLOC, ST_FREE) => header_gen(hdr) == gen,
                    (OP_FREE, ST_FREE) => header_gen(hdr) == bumped,
                    (OP_FREE, ST_ALLOCATED) if header_gen(hdr) == gen => {
                        // Roll the free forward to its claimed state.
                        self.relink(node, class, addr, bumped, None)?;
                        true
                    }
                    _ => false,
                };
                if maybe_orphaned {
                    report.restored_blocks +=
                        self.restore_chain(node, &mut on_list, class as usize, addr)?;
                }
            }
            self.persist.private_store(node, cell, 0, true)?;
        }
        self.slots.reset();
        self.persist.complete_op(node)?;
        Ok(report)
    }

    /// Recovery's chain walk (see [`Allocator::recover`]): collects the
    /// orphans reachable from `start`, then republishes them as they
    /// are linked — the last re-aimed at the current top, the head
    /// swung to `start` — in two persists however long the chain.
    /// Returns how many blocks it put back.
    fn restore_chain(
        &self,
        node: &NodeHandle,
        on_list: &mut OnList,
        class: usize,
        start: u32,
    ) -> OpResult<usize> {
        if on_list[class].is_none() {
            on_list[class] = Some(self.list_blocks(node, class)?.into_iter().collect());
        }
        let listed = on_list[class].as_mut().expect("built above");
        let mut tail = None;
        let mut restored = 0;
        let mut cur = Some(start);
        while let Some(addr) = cur.filter(|&a| self.in_block_area(a)) {
            let hdr = self
                .persist
                .shared_load(node, self.header_cell(addr), true)?;
            let orphan = header_state(hdr) == ST_FREE
                && header_class(hdr) == class as u64
                && listed.insert(addr);
            if !orphan {
                break;
            }
            restored += 1;
            tail = Some((addr, header_gen(hdr)));
            cur = header_next(hdr);
        }
        let Some((tail, gen)) = tail else {
            return Ok(0);
        };
        let head_cell = self.head_cell(class);
        let head = self.persist.shared_load(node, head_cell, true)?;
        self.relink(node, class as u64, tail, gen, head_top(head))?;
        // Quiesced: nothing races the head, a persistent store will do.
        self.persist.private_store(
            node,
            head_cell,
            head_word(Some(start), head_ver(head).wrapping_add(1)),
            true,
        )?;
        Ok(restored)
    }

    /// The payload addresses on class `class`'s free list, top first
    /// (recovery and test inspection; bounded by the block area size
    /// against corrupted links).
    fn list_blocks(&self, node: &NodeHandle, class: usize) -> OpResult<Vec<u32>> {
        let mut out = Vec::new();
        let head = self
            .persist
            .shared_load(node, self.head_cell(class), true)?;
        let mut cur = head_top(head);
        let mut steps = self.block_area_cells();
        while let Some(addr) = cur.filter(|&a| steps > 0 && self.in_block_area(a)) {
            out.push(addr);
            steps -= 1;
            let hdr = self
                .persist
                .shared_load(node, self.header_cell(addr), true)?;
            cur = header_next(hdr);
        }
        Ok(out)
    }

    // ---- test hooks -----------------------------------------------------

    /// Testing hook: run an allocation pop and stop at `stage`, leaving
    /// the durable state exactly as a crash at that instant would.
    /// Returns the affected block's payload, or `None` when the class
    /// free list was empty (nothing to tear). The intent slot stays
    /// leased until [`Allocator::recover`].
    #[doc(hidden)]
    pub fn torn_alloc(
        &self,
        at: &impl AsNode,
        cells: u32,
        stage: TornAlloc,
    ) -> OpResult<Option<Loc>> {
        let node = at.as_node();
        let class = class_for(cells).expect("torn_alloc takes a reclaimable size");
        let torn = match self.pop(node, class, Some(stage))? {
            PopOutcome::Torn(loc) => Some(loc),
            PopOutcome::Empty => None,
            PopOutcome::Got(_) => unreachable!("every stage tears before the pop returns"),
        };
        self.persist.complete_op(node)?;
        Ok(torn)
    }

    /// Testing hook: run a free of `blocks` (one block or a chain) and
    /// stop at `stage` (see [`Allocator::torn_alloc`]). Returns the
    /// first refusal, if any. A `Claimed(n)` beyond the chain's length
    /// tears nothing: the free completes.
    #[doc(hidden)]
    pub fn torn_free(
        &self,
        at: &impl AsNode,
        blocks: &[Loc],
        stage: TornFree,
    ) -> OpResult<Result<(), FreeError>> {
        let done = self.chain(at.as_node(), blocks, Some(stage))?;
        Ok(done.refused.map_or(Ok(()), Err))
    }

    /// Testing hook: the blocks on class-of-`cells`'s free list, top
    /// first.
    #[doc(hidden)]
    pub fn debug_free_list(&self, at: &impl AsNode, cells: u32) -> OpResult<Vec<Loc>> {
        let node = at.as_node();
        let class = class_for(cells).expect("debug_free_list takes a reclaimable size");
        let list = self.list_blocks(node, class)?;
        self.persist.complete_op(node)?;
        Ok(list.into_iter().map(|a| Loc::new(self.region, a)).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::SimFabric;
    use crate::flit::{Flit, FlitPolicy};
    use cxl0_model::SystemConfig;

    fn setup(cells: u32) -> (Arc<SimFabric>, Arc<Allocator>) {
        let f = SimFabric::new(SystemConfig::symmetric_nvm(2, cells));
        let persist: Arc<dyn Persistence> = Arc::new(Flit::new(FlitPolicy::CXL0));
        let a = Arc::new(Allocator::over_region(f.config(), MachineId(1), persist));
        (f, a)
    }

    #[test]
    fn classes_round_up_to_powers_of_two() {
        assert_eq!(class_for(1), Some(0));
        assert_eq!(class_for(2), Some(1));
        assert_eq!(class_for(3), Some(2));
        assert_eq!(class_for(16384), Some(14));
        assert_eq!(class_for(16385), None);
    }

    #[test]
    fn alloc_free_alloc_reuses_the_block_with_a_new_generation() {
        let (f, a) = setup(1024);
        let node = f.node(MachineId(0));
        let b1 = a.alloc(&node, 2).unwrap().unwrap();
        assert_ne!(b1.gen, 0, "fresh blocks carry a nonzero seed generation");
        a.free(&node, b1.loc).unwrap().unwrap();
        let b2 = a.alloc(&node, 2).unwrap().unwrap();
        assert_eq!(b2.loc, b1.loc, "freed block is reused");
        assert_eq!(
            b2.gen,
            b1.gen.wrapping_add(1) & GEN_MASK,
            "reuse bumps the generation"
        );
        assert_ne!(Allocator::encode(b1), Allocator::encode(b2));
        let s = a.stats();
        assert_eq!((s.allocs, s.frees, s.freelist_hits), (2, 1, 1));
    }

    #[test]
    fn different_classes_use_different_lists() {
        let (f, a) = setup(1024);
        let node = f.node(MachineId(0));
        let small = a.alloc(&node, 2).unwrap().unwrap();
        let big = a.alloc(&node, 5).unwrap().unwrap(); // class 8
        a.free(&node, small.loc).unwrap().unwrap();
        a.free(&node, big.loc).unwrap().unwrap();
        let again = a.alloc(&node, 8).unwrap().unwrap();
        assert_eq!(again.loc, big.loc);
        let again = a.alloc(&node, 1).unwrap().unwrap();
        assert_ne!(again.loc, small.loc, "class-1 list is separate");
    }

    #[test]
    fn double_free_and_garbage_are_refused() {
        let (f, a) = setup(1024);
        let node = f.node(MachineId(0));
        let b = a.alloc(&node, 2).unwrap().unwrap();
        a.free(&node, b.loc).unwrap().unwrap();
        assert_eq!(a.free(&node, b.loc).unwrap(), Err(FreeError::DoubleFree));
        // A payload cell that is not a block start.
        let inner = Loc::new(b.loc.owner, b.loc.addr.0 + 1);
        assert!(a.free(&node, inner).unwrap().is_err());
        // Out of extent entirely.
        assert_eq!(
            a.free(&node, Loc::new(MachineId(1), 3)).unwrap(),
            Err(FreeError::NotABlock)
        );
    }

    #[test]
    fn oversize_blocks_are_exact_fit_and_unreclaimable() {
        let (f, a) = setup(META_CELLS + MAX_CLASS_CELLS + 200);
        let node = f.node(MachineId(0));
        let huge = a.alloc(&node, MAX_CLASS_CELLS + 1).unwrap().unwrap();
        assert_eq!(a.free(&node, huge.loc).unwrap(), Err(FreeError::Oversize));
    }

    #[test]
    fn reuse_survives_exhaustion_of_the_bump_tail() {
        // Room for ~4 three-cell blocks after metadata.
        let (f, a) = setup(META_CELLS + 13);
        let node = f.node(MachineId(0));
        // Churn far past the bump capacity: only reuse can sustain this.
        let mut last = None;
        for _ in 0..50 {
            let b = a.alloc(&node, 2).unwrap().expect("reuse sustains churn");
            if let Some(prev) = last {
                a.free(&node, prev).unwrap().unwrap();
            }
            last = Some(b.loc);
        }
    }

    #[test]
    fn decode_rejects_out_of_extent_words() {
        let (f, a) = setup(1024);
        let node = f.node(MachineId(0));
        let b = a.alloc(&node, 2).unwrap().unwrap();
        assert_eq!(a.decode(Allocator::encode(b)), Some(b.loc));
        assert_eq!(a.decode(0), None);
        assert_eq!(a.decode(Allocator::null_ptr(7)), None);
        // Metadata and out-of-region addresses never decode.
        assert_eq!(a.decode(ptr_word(0, 0)), None);
        assert_eq!(a.decode(ptr_word(META_CELLS, 0)), None);
        assert_eq!(a.decode(ptr_word(5000, 0)), None);
    }

    #[test]
    fn recover_on_a_clean_region_is_a_no_op() {
        let (f, a) = setup(1024);
        let node = f.node(MachineId(0));
        a.format(&node).unwrap();
        let b = a.alloc(&node, 2).unwrap().unwrap();
        a.free(&node, b.loc).unwrap().unwrap();
        let r = a.recover(&node).unwrap();
        assert_eq!(r, AllocRecovery::default());
        assert_eq!(a.debug_free_list(&node, 2).unwrap(), vec![b.loc]);
    }

    #[test]
    fn torn_frees_are_completed_exactly_once() {
        for stage in [TornFree::Latched, TornFree::Claimed(1), TornFree::Pushed] {
            let (f, a) = setup(1024);
            let node = f.node(MachineId(0));
            let b = a.alloc(&node, 2).unwrap().unwrap();
            a.torn_free(&node, &[b.loc], stage).unwrap().unwrap();
            let r = a.recover(&node).unwrap();
            assert_eq!(r.sealed_intents, 1, "{stage:?}");
            assert_eq!(
                a.debug_free_list(&node, 2).unwrap(),
                vec![b.loc],
                "{stage:?}: block must be free exactly once"
            );
            // And usable again.
            let again = a.alloc(&node, 2).unwrap().unwrap();
            assert_eq!(again.loc, b.loc);
        }
    }

    #[test]
    fn torn_allocs_never_lose_the_block() {
        for stage in [TornAlloc::Recorded, TornAlloc::Swung, TornAlloc::Marked] {
            let (f, a) = setup(1024);
            let node = f.node(MachineId(0));
            let b = a.alloc(&node, 2).unwrap().unwrap();
            a.free(&node, b.loc).unwrap().unwrap();
            let torn = a.torn_alloc(&node, 2, stage).unwrap();
            assert_eq!(torn, Some(b.loc), "{stage:?}");
            a.recover(&node).unwrap();
            // Complete at the mark: from then on the block is allocated
            // (and freeable); before it, back on the list exactly once.
            if stage == TornAlloc::Marked {
                assert!(a.debug_free_list(&node, 2).unwrap().is_empty());
                a.free(&node, b.loc).unwrap().unwrap();
            }
            assert_eq!(
                a.debug_free_list(&node, 2).unwrap(),
                vec![b.loc],
                "{stage:?}"
            );
        }
    }

    /// `n` fresh two-cell blocks.
    fn blocks(a: &Allocator, node: &NodeHandle, n: usize) -> Vec<Loc> {
        (0..n)
            .map(|_| a.alloc(node, 2).unwrap().unwrap().loc)
            .collect()
    }

    #[test]
    fn free_chain_publishes_the_blocks_in_order_with_k_plus_2_flushes() {
        let (f, a) = setup(1024);
        let node = f.node(MachineId(0));
        let (old, chain) = (blocks(&a, &node, 1), blocks(&a, &node, 5));
        a.free(&node, old[0]).unwrap().unwrap();
        let before = f.stats().snapshot();
        assert_eq!(a.free_chain(&node, &chain).unwrap(), 5);
        assert_eq!(f.stats().snapshot().since(&before).flushes(), 5 + 2);
        // The chain sits on top of the old list, first block first.
        let mut expected = chain.clone();
        expected.extend(&old);
        assert_eq!(a.debug_free_list(&node, 2).unwrap(), expected);
        let s = a.stats();
        assert_eq!((s.frees, s.live_cells), (6, 0));
        assert_eq!(a.free_chain(&node, &[]).unwrap(), 0);
    }

    #[test]
    fn free_chain_splits_by_class_and_skips_what_free_would_refuse() {
        let (f, a) = setup(1024);
        let node = f.node(MachineId(0));
        let small = blocks(&a, &node, 2);
        let big = a.alloc(&node, 8).unwrap().unwrap().loc;
        let gone = blocks(&a, &node, 1)[0];
        a.free(&node, gone).unwrap().unwrap();
        // Mixed classes, a double free, a repeated block, a non-block.
        let handed = [
            small[0],
            big,
            gone,
            small[1],
            small[0],
            Loc::new(MachineId(1), 3),
        ];
        assert_eq!(a.free_chain(&node, &handed).unwrap(), 3);
        assert_eq!(
            a.debug_free_list(&node, 2).unwrap(),
            vec![small[0], small[1], gone]
        );
        assert_eq!(a.debug_free_list(&node, 8).unwrap(), vec![big]);
        assert_eq!(a.recover(&node).unwrap(), AllocRecovery::default());
    }

    #[test]
    fn torn_chains_are_recovered_by_walking_their_links() {
        const K: usize = 4;
        let stages = (1..=K)
            .map(TornFree::Claimed)
            .chain([TornFree::Latched, TornFree::Pushed]);
        for stage in stages {
            let (f, a) = setup(1024);
            let node = f.node(MachineId(0));
            let (old, chain) = (blocks(&a, &node, 1), blocks(&a, &node, K));
            a.free(&node, old[0]).unwrap().unwrap();
            a.torn_free(&node, &chain, stage).unwrap().unwrap();
            let r = a.recover(&node).unwrap();
            // Every claimed block is published; `Latched` completes the
            // free of the block its intent names; the rest stay
            // allocated.
            let freed = match stage {
                TornFree::Latched => 1,
                TornFree::Claimed(n) => n,
                TornFree::Pushed => K,
            };
            let mut expected = chain[..freed].to_vec();
            expected.extend(&old);
            assert_eq!(a.debug_free_list(&node, 2).unwrap(), expected, "{stage:?}");
            let restored = if stage == TornFree::Pushed { 0 } else { freed };
            assert_eq!((r.sealed_intents, r.restored_blocks), (1, restored));
            for &b in &chain[freed..] {
                a.free(&node, b).unwrap().expect("still allocated");
            }
        }
    }

    #[test]
    fn stale_intents_never_free_a_live_block() {
        // The intent clear is an unflushed cached store: crash the
        // issuing machine and the last intents of its slots resurface.
        let (f, a) = setup(1024);
        let node = f.node(MachineId(0));
        let kept = blocks(&a, &node, 1)[0];
        a.free(&node, kept).unwrap().unwrap(); // slot 0: FREE(kept, g)
        let live = a.alloc(&node, 2).unwrap().unwrap(); // slot 0: ALLOC(kept, g+1)
        assert_eq!(live.loc, kept);
        let listed = blocks(&a, &node, 1)[0];
        a.free(&node, listed).unwrap().unwrap(); // slot 0: FREE(listed, g')
        f.crash(MachineId(0));
        f.recover(MachineId(0));
        let r = a.recover(&node).unwrap();
        assert_eq!((r.sealed_intents, r.restored_blocks), (1, 0));
        assert_eq!(a.debug_free_list(&node, 2).unwrap(), vec![listed]);
        // The live block is still its owner's to free.
        a.free(&node, live.loc).unwrap().unwrap();
        // And a stale ALLOC intent over a live block is as harmless.
        let again = a.alloc(&node, 2).unwrap().unwrap();
        f.crash(MachineId(0));
        f.recover(MachineId(0));
        let r = a.recover(&node).unwrap();
        assert_eq!((r.sealed_intents, r.restored_blocks), (1, 0));
        assert_eq!(a.debug_free_list(&node, 2).unwrap(), vec![listed]);
        a.free(&node, again.loc).unwrap().unwrap();
    }

    #[test]
    fn a_dead_operations_intent_goes_stale_under_later_traffic() {
        // A free dies right after publishing: its slot stays leased and
        // keeps FREE(b, g) while other slots pop and re-free the block.
        let (f, a) = setup(1024);
        let node = f.node(MachineId(0));
        let b = blocks(&a, &node, 1)[0];
        a.torn_free(&node, &[b], TornFree::Pushed).unwrap().unwrap();
        let live = a.alloc(&node, 2).unwrap().unwrap();
        assert_eq!(live.loc, b, "the published block is poppable");
        // FREE(b, g) now faces ALLOCATED g+1: stale, b stays live.
        let r = a.recover(&node).unwrap();
        assert_eq!((r.sealed_intents, r.restored_blocks), (1, 0));
        assert!(a.debug_free_list(&node, 2).unwrap().is_empty());
        a.free(&node, live.loc).unwrap().unwrap();
        // A pop that dies after its head CAS does not stall the class
        // (nothing to wait for: pops are lock-free) ...
        let other = blocks(&a, &node, 1)[0];
        assert_eq!(other, b);
        a.free(&node, other).unwrap().unwrap();
        assert_eq!(a.torn_alloc(&node, 2, TornAlloc::Swung).unwrap(), Some(b));
        let fresh = a.alloc(&node, 2).unwrap().unwrap();
        assert_ne!(fresh.loc, b, "the torn pop owns b until recovery");
        // ... and recovery puts its block back exactly once.
        assert_eq!(a.recover(&node).unwrap().restored_blocks, 1);
        assert_eq!(a.debug_free_list(&node, 2).unwrap(), vec![b]);
    }

    #[test]
    fn concurrent_alloc_free_hands_no_block_out_twice() {
        let (f, a) = setup(1 << 14);
        let mut handles = Vec::new();
        let live = Arc::new(parking_lot::Mutex::new(std::collections::HashSet::new()));
        for t in 0..4usize {
            let a = Arc::clone(&a);
            let node = f.node(MachineId(t % 2));
            let live = Arc::clone(&live);
            handles.push(std::thread::spawn(move || {
                let mut mine = Vec::new();
                for i in 0..300 {
                    if i % 3 != 2 {
                        let b = a.alloc(&node, 2).unwrap().expect("heap fits");
                        assert!(
                            live.lock().insert(b.loc.addr.0),
                            "block handed out while still live"
                        );
                        mine.push(b.loc);
                    } else if let Some(loc) = mine.pop() {
                        assert!(live.lock().remove(&loc.addr.0));
                        a.free(&node, loc).unwrap().unwrap();
                    }
                }
                for loc in mine {
                    assert!(live.lock().remove(&loc.addr.0));
                    a.free(&node, loc).unwrap().unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert!(live.lock().is_empty());
        let s = a.stats();
        assert_eq!(s.allocs, s.frees);
        assert_eq!(s.live_cells, 0);
        assert!(s.freelist_hits > 0, "churn must exercise reuse");
        assert!(s.hw_cells >= 2);
    }
}
