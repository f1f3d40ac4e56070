//! The crash-consistent size-class allocator. See the module docs in
//! [`crate::alloc`] for the protocol walkthrough.

use std::collections::HashSet;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;

use cxl0_model::{Loc, MachineId, SystemConfig};
use parking_lot::{Mutex, MutexGuard};

use crate::alloc::layout::{
    decode_addr, decode_gen, head_top, head_ver, head_word, header_class, header_gen, header_next,
    header_state, header_word, intent_class, intent_op, intent_word, null_word, ptr_word, seed_gen,
    GEN_MASK, HUGE_CLASS, OP_ALLOC, OP_FREE, OP_MAG, ST_ALLOCATED, ST_FREE, ST_MAGAZINE,
};
use crate::backend::{thread_slot_index, NodeHandle};
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
/// sweep. The top 8 belong to the thread magazines (one each).
pub const INTENT_SLOTS: usize = 32;

/// Thread slots with a magazine (thread slots `0..MAG_SLOTS`), each
/// owning the intent slot `INTENT_SLOTS - MAG_SLOTS + t`.
const MAG_SLOTS: usize = 8;

/// Blocks one magazine parks at most; a free beyond that goes to the
/// shared list.
const MAG_DEPTH: usize = 8;

/// The lease bits of the magazines' intent slots: never leased to a
/// transient operation.
const MAG_RESERVED: u32 = !0 << (INTENT_SLOTS - MAG_SLOTS);

/// Region-header cells: magic, geometry, data base, extent limit.
const HEADER_META_CELLS: u32 = 4;

/// Durable metadata cells the allocator reserves at the start of its
/// range: region header + one free-list head per class + two cells per
/// intent slot (the intent word, and a second cell only a magazine's
/// slot uses).
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
    /// mid-free; without the sweep they would be lost). Blocks a sweep
    /// takes back from the voided thread magazines are not counted: no
    /// operation on them was torn.
    pub restored_blocks: usize,
}

/// Volatile lease pool over the durable intent slots the magazines do
/// not own.
#[derive(Debug)]
struct SlotPool {
    mask: AtomicU32,
}

impl Default for SlotPool {
    fn default() -> Self {
        SlotPool {
            mask: AtomicU32::new(MAG_RESERVED),
        }
    }
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
        self.mask.store(MAG_RESERVED, Ordering::Release);
    }
}

/// The volatile side of one thread's magazine: which blocks its frees
/// parked, oldest first, so the thread's next allocs of that class take
/// them back without a load. The durable side is a chain of `MAGAZINE`
/// headers, newest to oldest along `next`, named by one of the
/// magazine's two intent cells.
#[derive(Debug, Default)]
struct Magazine {
    /// Parked blocks, a ring of `len` from `oldest`: payload address and
    /// the generation the `MAGAZINE` header carries. Inline: a small
    /// heap buffer allocated mid-run can pin a large freed region of the
    /// host heap (a `VecDeque` here cost the benchmark's `churn_crash`
    /// 12 MB of peak RSS).
    parked: [(u32, u64); MAG_DEPTH],
    oldest: usize,
    len: usize,
    /// Size class of the parked blocks (meaningful while any are).
    class: u64,
    /// The intent cell (0 or 1) the next push writes: the one that does
    /// *not* name the newest parked block.
    next_cell: usize,
    /// A push or pop died mid-protocol; the magazine is left as the
    /// crash left it until recovery voids it.
    torn: bool,
}

impl Magazine {
    fn newest(&self) -> Option<u32> {
        (self.len > 0).then(|| self.parked[(self.oldest + self.len - 1) % MAG_DEPTH].0)
    }

    /// Moves the blocks a push may park to the front of `owned` and
    /// returns how many: in order, of the parked blocks' class (the
    /// first block's when there are none), up to the room left, none
    /// while torn. The rest keep their order behind them.
    fn split(&self, owned: &mut [Owned]) -> usize {
        let class = match owned.first() {
            Some(b) if self.len == 0 => b.class(),
            _ => self.class,
        };
        let room = if self.torn { 0 } else { MAG_DEPTH - self.len };
        let mut fit = 0;
        for i in 0..owned.len() {
            if fit < room && owned[i].class() == class {
                owned[fit..=i].rotate_right(1);
                fit += 1;
            }
        }
        fit
    }

    fn push_newest(&mut self, block: (u32, u64)) {
        debug_assert!(self.len < MAG_DEPTH);
        self.parked[(self.oldest + self.len) % MAG_DEPTH] = block;
        self.len += 1;
    }

    fn pop_oldest(&mut self) -> Option<(u32, u64)> {
        (self.len > 0).then(|| {
            let block = self.parked[self.oldest];
            self.oldest = (self.oldest + 1) % MAG_DEPTH;
            self.len -= 1;
            block
        })
    }
}

/// One incarnation of a block that the caller may free: the block,
/// and the `ALLOCATED` header its claim CAS expects — as the free path
/// loaded it, or as a retirement built it from the generation it knew
/// (see [`Allocator::incarnation`]). A claim that finds any other
/// header refuses the block, so an incarnation that has since moved on
/// is never freed.
///
/// Sixteen bytes, the size of a `Loc` (the class is read off the
/// header): limbo holds thousands of these, and a 24-byte entry shifted
/// the host heap's layout enough to keep one more fabric cell slab
/// (12 MB then) resident in the benchmark's `churn_crash`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Owned {
    /// Payload address.
    addr: u32,
    /// The `ALLOCATED` header the claim CAS expects.
    hdr: u64,
}

impl Owned {
    fn new(payload: Loc, hdr: u64) -> Self {
        Owned {
            addr: payload.addr.0,
            hdr,
        }
    }

    fn class(&self) -> u64 {
        header_class(self.hdr)
    }
}

/// What one recovery sweep collected, published once every intent has
/// been read.
#[derive(Default)]
struct Sweep {
    /// Per class, the blocks to publish in walk order: address, the
    /// generation its `FREE` header gets, and its header as read.
    blocks: [Vec<(u32, u64, u64)>; NUM_CLASSES],
    /// Every block collected, whatever its class.
    seen: HashSet<u32>,
    /// Per class, the blocks its free list holds: `None` until a walk
    /// first meets a `FREE` block of the class (one list walk).
    listed: [Option<HashSet<u32>>; NUM_CLASSES],
}

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
    /// One magazine per thread slot below [`MAG_SLOTS`].
    mags: [Mutex<Magazine>; MAG_SLOTS],
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
            mags: Default::default(),
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

    /// The intent word of `slot` (cell 0) or its second cell (cell 1,
    /// used only by a magazine's slot).
    fn slot_cell(&self, slot: usize, cell: usize) -> Loc {
        Loc::new(
            self.region,
            self.meta_base + HEADER_META_CELLS + NUM_CLASSES as u32 + (2 * slot + cell) as u32,
        )
    }

    fn intent_cell(&self, slot: usize) -> Loc {
        self.slot_cell(slot, 0)
    }

    /// The calling thread's magazine and its intent slot, if its thread
    /// slot has one.
    fn magazine(&self) -> Option<(usize, MutexGuard<'_, Magazine>)> {
        let t = thread_slot_index();
        (t < MAG_SLOTS).then(|| (INTENT_SLOTS - MAG_SLOTS + t, self.mags[t].lock()))
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
    pub fn format(&self, node: &NodeHandle) -> OpResult<()> {
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
    /// A block the calling thread's own [`free`](Allocator::free) parked
    /// in its magazine is taken back first, oldest first, with one
    /// persist (the header mark) and no load.
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
    pub fn alloc(&self, node: &NodeHandle, cells: u32) -> OpResult<Option<BlockRef>> {
        assert!(cells > 0, "zero-cell allocations are meaningless");
        let result = self.alloc_inner(node, cells)?;
        self.persist.complete_op(node)?;
        Ok(result)
    }

    fn alloc_inner(&self, node: &NodeHandle, cells: u32) -> OpResult<Option<BlockRef>> {
        let (payload_cells, class_tag) = match class_for(cells) {
            Some(class) => {
                if let Some(block) = self.unpark(node, class)? {
                    self.freelist_hits.fetch_add(1, Ordering::Relaxed);
                    self.note_alloc(class_cells(class));
                    return Ok(Some(block));
                }
                if let Some(block) = self.pop(node, class)? {
                    self.freelist_hits.fetch_add(1, Ordering::Relaxed);
                    self.note_alloc(class_cells(class));
                    return Ok(Some(block));
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

    /// The magazine pop: takes the calling thread's oldest parked block
    /// of `class`, if it has one, by marking its header `ALLOCATED` at the
    /// generation the park gave it — one persist, no load, no intent.
    /// Taking the oldest keeps every block still parked on the walk from
    /// the newest one, which is where the magazine's intent points.
    fn unpark(&self, node: &NodeHandle, class: usize) -> OpResult<Option<BlockRef>> {
        let Some((_, mut mag)) = self.magazine() else {
            return Ok(None);
        };
        let class = class as u64;
        if mag.torn || mag.class != class {
            return Ok(None);
        }
        let Some((addr, gen)) = mag.pop_oldest() else {
            return Ok(None);
        };
        let payload = Loc::new(self.region, addr);
        mag.torn = true; // until the mark lands
        self.persist.private_store(
            node,
            self.header_cell(addr),
            header_word(ST_ALLOCATED, class, gen, None),
            true,
        )?;
        mag.torn = false;
        node.check_alloc(payload, class_cells(class as usize), gen);
        Ok(Some(BlockRef {
            loc: payload,
            gen,
            recycled: true,
        }))
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
    fn pop(&self, node: &NodeHandle, class: usize) -> OpResult<Option<BlockRef>> {
        let head_cell = self.head_cell(class);
        // Peek before leasing a slot: an empty list needs no intent.
        let mut head = self.persist.shared_load(node, head_cell, true)?;
        if head_top(head).is_none() {
            return Ok(None);
        }
        // A crash error leaves the lease leaked: the latched durable
        // intent must survive untouched until the recovery sweep resets
        // the pool.
        let slot = self.slots.acquire();
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
            self.slots.release(slot);
            return Ok(None);
        };
        let payload = Loc::new(self.region, top);
        // (3) mark: the CAS took the block off the list, so its header
        // is exclusively ours.
        self.persist.private_store(
            node,
            self.header_cell(top),
            header_word(ST_ALLOCATED, class as u64, gen, None),
            true,
        )?;
        // Unflagged: a lost clear only resurfaces a stale intent, which
        // recovery tells from a live one by the block's generation.
        self.persist.private_store(node, intent_cell, 0, false)?;
        node.check_alloc(payload, class_cells(class), gen);
        self.slots.release(slot);
        Ok(Some(BlockRef {
            loc: payload,
            gen,
            recycled: true,
        }))
    }

    // ---- free -----------------------------------------------------------

    /// Returns `payload`'s block for reuse. The block is **parked** in
    /// the calling thread's magazine when the thread has one, the
    /// magazine holds fewer than its depth and only blocks of this class:
    /// an intent naming the block, then one claim-and-link CAS —
    /// two persists — and the thread's next `alloc` of the class takes it
    /// back. Otherwise it goes to its class free list as the
    /// [`free_chain`](Allocator::free_chain) of one block.
    ///
    /// The allocation-intent protocol makes this crash-consistent: once
    /// `free` is invoked, a crash at any instant either leaves the block
    /// allocated-and-intent-latched (recovery completes the free) or
    /// free or parked (recovery deduplicates) — never lost, never on the
    /// list twice. Freeing a block that is already free or parked is
    /// detected and refused; freeing a block another caller still uses
    /// is a logic error the allocator cannot detect (as in C).
    ///
    /// # Errors
    ///
    /// `Err(Crashed)` if the issuing machine has crashed; `Ok(Err(_))`
    /// when the free is refused (see [`FreeError`]).
    pub fn free(&self, node: &NodeHandle, payload: Loc) -> OpResult<Result<(), FreeError>> {
        let block = self
            .freeable(node, payload)?
            .map(|hdr| Owned::new(payload, hdr));
        let freed = self.free_owned(node, block.ok().as_mut_slice(), true)?;
        // A racing free won the claim.
        Ok(block.and_then(|_| (freed == 1).then_some(()).ok_or(FreeError::DoubleFree)))
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
    pub fn free_chain(&self, node: &NodeHandle, blocks: &[Loc]) -> OpResult<usize> {
        let mut owned = Vec::with_capacity(blocks.len());
        for &payload in blocks {
            if let Ok(hdr) = self.freeable(node, payload)? {
                owned.push(Owned::new(payload, hdr));
            }
        }
        self.free_owned(node, &mut owned, false)
    }

    /// The one free path, for incarnations the caller may free — a ripe
    /// limbo bag of [`SmrDomain`](crate::smr::SmrDomain) among them, with
    /// no header load. When `park`, as many as the calling thread's
    /// magazine has room for are parked first (see [`Magazine::split`]);
    /// the rest go to their free lists as one chain per size class. A
    /// claim CAS that finds another header than the incarnation's
    /// refuses the block. Completes the operation and returns how many
    /// blocks it freed.
    ///
    /// A crash after the magazine took blocks leaves it torn: the drain
    /// hands its whole bag back to limbo, so none of them may be taken
    /// back before [`Allocator::recover`] voids the magazine.
    ///
    /// # Errors
    ///
    /// Fails if the issuing machine has crashed.
    pub(crate) fn free_owned(
        &self,
        node: &NodeHandle,
        owned: &mut [Owned],
        park: bool,
    ) -> OpResult<usize> {
        let mut mag = self.magazine().filter(|_| park);
        let fit = mag.as_ref().map_or(0, |(_, mag)| mag.split(owned));
        let (fit, rest) = owned.split_at_mut(fit);
        let mut push = || -> OpResult<usize> {
            let mut freed = 0;
            if let Some((slot, mag)) = mag.as_mut().filter(|_| !fit.is_empty()) {
                freed += self.claim_runs(node, *slot, Some(mag), fit)?;
            }
            if !rest.is_empty() {
                // Stable: within a class the caller's order is the chain's.
                rest.sort_by_key(Owned::class);
                // A crash error leaks the lease (see `pop`).
                let slot = self.slots.acquire();
                for run in rest.chunk_by(|a, b| a.class() == b.class()) {
                    freed += self.claim_runs(node, slot, None, run)?;
                }
                self.slots.release(slot);
            }
            Ok(freed)
        };
        let freed = push();
        if let (Err(_), Some((_, mag))) = (&freed, &mut mag) {
            mag.torn |= !fit.is_empty();
        }
        let freed = freed?;
        self.persist.complete_op(node)?;
        Ok(freed)
    }

    /// The claim loop every free runs, over `run`'s blocks, all of one
    /// class, into the magazine `mag` whose intent slot is `slot` — or,
    /// with no `mag`, onto the class free list under the leased `slot`:
    ///
    /// 1. **Latch** an intent naming the first block at its generation:
    ///    `MAG` in whichever of the magazine's two cells does not name
    ///    its newest parked block, so a push torn here leaves the chain's
    ///    own intent intact, or `FREE`.
    /// 2. **Claim and link**, front to back: CAS each header `ALLOCATED
    ///    g → MAGAZINE g+1` (or `FREE g+1`), `next` = its successor in
    ///    the run, the last block's the newest parked block (or the top,
    ///    loaded after the latch). Exactly one free of an incarnation
    ///    wins the claim. A crash after `j` claims leaves a walk from the
    ///    intent over exactly the claimed prefix, which ends at the first
    ///    unclaimed block, still `ALLOCATED`.
    /// 3. **Publish**: the magazine's ring takes the blocks back to
    ///    front, so it stays oldest first and every block still parked
    ///    stays on the walk from the newest one; a list takes them with
    ///    one head CAS (re-aiming the last block first if the top moved),
    ///    and the intent is cleared with a plain cached store.
    ///
    /// `1 + k` persists for `k` parked blocks, `k + 2` for a chain. A
    /// block whose claim a racing free won is refused: the last block
    /// claimed before it is re-aimed past it, and the rest of the run
    /// goes under a fresh latch. Returns how many blocks it claimed.
    fn claim_runs(
        &self,
        node: &NodeHandle,
        slot: usize,
        mut mag: Option<&mut Magazine>,
        run: &[Owned],
    ) -> OpResult<usize> {
        let (op, state) = match mag {
            Some(_) => (OP_MAG, ST_MAGAZINE),
            None => (OP_FREE, ST_FREE),
        };
        let claimed_gen = |b: &Owned| header_gen(b.hdr).wrapping_add(1) & GEN_MASK;
        let mut freed = 0;
        let mut rest = run;
        while let Some(first) = rest.first() {
            let class = first.class();
            let aim = |b: &Owned, next| {
                let hdr = header_word(state, class, claimed_gen(b), next);
                self.persist
                    .private_store(node, self.header_cell(b.addr), hdr, true)
            };
            // (1) latch
            let cell = self.slot_cell(slot, mag.as_ref().map_or(0, |mag| mag.next_cell));
            if let Some(mag) = mag.as_deref_mut() {
                mag.torn = true; // until the claims land
            }
            let intent = intent_word(op, class, first.addr, header_gen(first.hdr));
            self.persist.private_store(node, cell, intent, true)?;
            let head_cell = self.head_cell(class as usize);
            let mut head = 0;
            let end = match mag.as_deref() {
                Some(mag) => mag.newest(),
                None => {
                    head = self.persist.shared_load(node, head_cell, true)?;
                    head_top(head)
                }
            };
            // (2) claim and link
            let mut claimed = 0;
            for (i, b) in rest.iter().enumerate() {
                let next = rest.get(i + 1).map_or(end, |s| Some(s.addr));
                let hdr = header_word(state, class, claimed_gen(b), next);
                if self
                    .persist
                    .shared_cas(node, self.header_cell(b.addr), b.hdr, hdr, true)?
                    .is_err()
                {
                    break;
                }
                // The sanitizer learns of the free here, while the block
                // is unpublished: once a list holds it a racing pop may
                // hand it out, and a late "freed" would overwrite that
                // pop's "live".
                node.check_free(Loc::new(self.region, b.addr));
                self.note_free(class_cells(class as usize));
                claimed += 1;
            }
            let spliced = &rest[..claimed];
            if let Some(last) = spliced.last().filter(|_| claimed < rest.len()) {
                // It links to the block a racing free won.
                aim(last, end)?;
            }
            // (3) publish
            match mag.as_deref_mut() {
                Some(mag) => {
                    mag.torn = false;
                    if claimed > 0 {
                        for b in spliced.iter().rev() {
                            mag.push_newest((b.addr, claimed_gen(b)));
                        }
                        mag.class = class;
                        mag.next_cell = 1 - mag.next_cell;
                    }
                }
                None => {
                    if let (Some(first), Some(last)) = (spliced.first(), spliced.last()) {
                        let mut next = end;
                        loop {
                            let top = head_top(head);
                            if next != top {
                                aim(last, top)?;
                                next = top;
                            }
                            let pushed =
                                head_word(Some(first.addr), head_ver(head).wrapping_add(1));
                            match self
                                .persist
                                .shared_cas(node, head_cell, head, pushed, true)?
                            {
                                Ok(_) => break,
                                Err(actual) => head = actual,
                            }
                        }
                    }
                    self.persist.private_store(node, cell, 0, false)?;
                }
            }
            freed += claimed;
            // Past the lost block, if any: with nothing claimed a
            // magazine's latched intent is stale, and the next latch
            // overwrites it.
            rest = &rest[(claimed + 1).min(rest.len())..];
        }
        Ok(freed)
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
            (ST_FREE | ST_MAGAZINE, _) => Err(FreeError::DoubleFree),
            _ => Err(FreeError::NotABlock),
        })
    }

    /// The incarnation at generation `gen` of the `cells`-cell block at
    /// `payload`, built with no load — what a structure knows of a block
    /// it unlinked by a pointer word carrying `gen`. `None` when no free
    /// could reclaim such a block: oversize, or outside the block area.
    pub(crate) fn incarnation(&self, payload: Loc, gen: u64, cells: u32) -> Option<Owned> {
        let class = class_for(cells)? as u64;
        let addr = payload.addr.0;
        (payload.owner == self.region && self.in_block_area(addr)).then(|| Owned {
            addr,
            hdr: header_word(ST_ALLOCATED, class, gen & GEN_MASK, None),
        })
    }

    /// The current incarnation of `payload`'s block, read off its
    /// header; `None` when [`free`](Allocator::free) would refuse it.
    ///
    /// # Errors
    ///
    /// Fails if the issuing machine has crashed.
    pub(crate) fn current_incarnation(
        &self,
        node: &NodeHandle,
        payload: Loc,
    ) -> OpResult<Option<Owned>> {
        Ok(self
            .freeable(node, payload)?
            .ok()
            .map(|hdr| Owned::new(payload, hdr)))
    }

    // ---- recovery -------------------------------------------------------

    /// Post-crash sweep. Must run quiesced (no concurrent allocator
    /// traffic), like every `recover` in this crate. Reads every latched
    /// intent cell — the transient slots' and both of each magazine's —
    /// the same way, against the header of the block it names (the rule
    /// is in [`crate::alloc`]): a block still at the intent's pre-claim
    /// header is taken, one at its post-claim header is walked from, and
    /// anything else is a stale intent — its unflushed clear lost with
    /// the issuer's cache — that frees nothing: a live block is
    /// `ALLOCATED`, and a generation only matches the operation that
    /// recorded it.
    ///
    /// The walk follows `next` while blocks are of the intent's class
    /// and `MAGAZINE`, or `FREE` on no list — under quiescence neither
    /// belongs to anyone, as the thread magazines are volatile — into one
    /// visited set. Once every intent is read, each class is published
    /// once, the collected blocks `FREE` and linked in walk order; then
    /// every latched cell is zeroed, the magazines are voided and the
    /// volatile intent-slot pool is reset.
    ///
    /// Cost: 32 intent loads, +1 per latched magazine (a magazine's
    /// second cell is read only when its first holds a magazine intent),
    /// one header load per latched intent cell and one per further block
    /// walked; each class's free list is walked **at most once** per
    /// sweep (only if a walk meets a `FREE` block of that class). Per
    /// class with blocks to publish: one head load, one header store per
    /// block not already `FREE` at its generation and linked to its
    /// successor, and the head store; then one store per latched cell.
    ///
    /// # Errors
    ///
    /// Fails if the issuing machine has crashed.
    pub fn recover(&self, node: &NodeHandle) -> OpResult<AllocRecovery> {
        let mut report = AllocRecovery::default();
        let mut sweep = Sweep::default();
        let mut latched = Vec::new();
        for slot in 0..INTENT_SLOTS {
            let (first, second) = (self.slot_cell(slot, 0), self.slot_cell(slot, 1));
            let word = self.persist.shared_load(node, first, true)?;
            if word == 0 {
                continue;
            }
            // Cell 1 is written only after cell 0, and both are zeroed
            // together: a magazine that never pushed costs no second load.
            let other = match intent_op(word) {
                OP_MAG => self.persist.shared_load(node, second, true)?,
                _ => 0,
            };
            for (cell, word) in [(first, word), (second, other)] {
                if word != 0 {
                    self.seal(node, word, &mut sweep, &mut report)?;
                    latched.push(cell);
                }
            }
        }
        for (class, blocks) in sweep.blocks.iter().enumerate() {
            let Some(&(first, ..)) = blocks.first() else {
                continue;
            };
            let head_cell = self.head_cell(class);
            let head = self.persist.shared_load(node, head_cell, true)?;
            for (i, &(addr, gen, hdr)) in blocks.iter().enumerate() {
                let next = blocks.get(i + 1).map_or(head_top(head), |b| Some(b.0));
                let free = header_word(ST_FREE, class as u64, gen, next);
                if hdr != free {
                    self.persist
                        .private_store(node, self.header_cell(addr), free, true)?;
                }
            }
            // Quiesced: nothing races the head, a persistent store will do.
            let pushed = head_word(Some(first), head_ver(head).wrapping_add(1));
            self.persist.private_store(node, head_cell, pushed, true)?;
        }
        for cell in latched {
            self.persist.private_store(node, cell, 0, true)?;
        }
        for mag in &self.mags {
            *mag.lock() = Magazine::default();
        }
        self.slots.reset();
        self.persist.complete_op(node)?;
        Ok(report)
    }

    /// Recovery's verdict on one latched intent `op(b, g)`. A pop claims
    /// `b` at `g` (swinging the head past it), a free or a park at
    /// `g+1`. If `b` is still `ALLOCATED g` under a free's or a park's
    /// intent, the operation was torn before its claim: `b` is taken. If
    /// it is `FREE` or `MAGAZINE` at the claimed generation, the walk
    /// starts from it. Anything else is stale. Every cell counts as
    /// sealed but one naming a block parked at the claimed generation:
    /// no operation on it was torn.
    fn seal(
        &self,
        node: &NodeHandle,
        word: u64,
        sweep: &mut Sweep,
        report: &mut AllocRecovery,
    ) -> OpResult<()> {
        let (op, class, gen) = (intent_op(word), intent_class(word), decode_gen(word));
        let named =
            decode_addr(word).filter(|&a| (class as usize) < NUM_CLASSES && self.in_block_area(a));
        let Some(addr) = named else {
            report.sealed_intents += 1;
            return Ok(());
        };
        let hdr = self
            .persist
            .shared_load(node, self.header_cell(addr), true)?;
        let claimed = match op {
            OP_ALLOC => gen,
            _ => gen.wrapping_add(1) & GEN_MASK,
        };
        let at_claimed = header_gen(hdr) == claimed;
        report.sealed_intents += usize::from(!(at_claimed && header_state(hdr) == ST_MAGAZINE));
        match header_state(hdr) {
            // Taken once, however many intents name it.
            ST_ALLOCATED if op != OP_ALLOC && header_gen(hdr) == gen && sweep.seen.insert(addr) => {
                report.restored_blocks += 1;
                sweep.blocks[class as usize].push((addr, claimed, hdr));
            }
            ST_FREE | ST_MAGAZINE if at_claimed => {
                report.restored_blocks += self.walk(node, sweep, class, addr, hdr)?;
            }
            _ => {}
        }
        Ok(())
    }

    /// Recovery's walk: from `addr`, whose header is `hdr`, along `next`
    /// while blocks are of `class` and `MAGAZINE`, or `FREE` on no list,
    /// collecting each block once. It ends at a block someone holds
    /// (`ALLOCATED`: a torn chain's first unclaimed block, or one a
    /// thread took back), at a listed one (the old top), or at one
    /// already collected — a magazine's chains overlap, since a block
    /// taken back and parked again links into the chain it left. Returns
    /// how many `FREE` blocks it collected.
    fn walk(
        &self,
        node: &NodeHandle,
        sweep: &mut Sweep,
        class: u64,
        mut addr: u32,
        mut hdr: u64,
    ) -> OpResult<usize> {
        let (mut orphans, c) = (0, class as usize);
        while header_class(hdr) == class && !sweep.seen.contains(&addr) {
            let free = header_state(hdr) == ST_FREE;
            if free && sweep.listed[c].is_none() {
                sweep.listed[c] = Some(self.list_blocks(node, c)?.into_iter().collect());
            }
            let orphan = free && sweep.listed[c].as_ref().is_some_and(|l| !l.contains(&addr));
            if !orphan && header_state(hdr) != ST_MAGAZINE {
                break;
            }
            orphans += usize::from(orphan);
            sweep.seen.insert(addr);
            sweep.blocks[c].push((addr, header_gen(hdr), hdr));
            let Some(next) = header_next(hdr).filter(|&a| self.in_block_area(a)) else {
                break;
            };
            addr = next;
            hdr = self
                .persist
                .shared_load(node, self.header_cell(next), true)?;
        }
        Ok(orphans)
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

    /// Testing hook: the blocks parked in the calling thread's magazine,
    /// oldest first — none when its thread slot has no magazine.
    #[doc(hidden)]
    pub fn debug_parked(&self) -> Vec<Loc> {
        self.magazine().map_or_else(Vec::new, |(_, mag)| {
            (0..mag.len)
                .map(|i| Loc::new(self.region, mag.parked[(mag.oldest + i) % MAG_DEPTH].0))
                .collect()
        })
    }

    /// Testing hook: the blocks on class-of-`cells`'s free list, top
    /// first.
    #[doc(hidden)]
    pub fn debug_free_list(&self, node: &NodeHandle, cells: u32) -> OpResult<Vec<Loc>> {
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
        setup_with(FlitPolicy::CXL0, cells)
    }

    fn setup_with(policy: FlitPolicy, cells: u32) -> (Arc<SimFabric>, Arc<Allocator>) {
        let f = SimFabric::new(SystemConfig::symmetric_nvm(2, cells));
        let persist: Arc<dyn Persistence> = Arc::new(Flit::new(policy));
        let a = Arc::new(Allocator::over_region(f.config(), MachineId(1), persist));
        (f, a)
    }

    /// What one recovery sweep made of a dead operation: the sweep's
    /// `(sealed_intents, restored_blocks)`, the two-cell free list, and
    /// which of the tracked blocks are still allocated.
    type Outcome = (usize, usize, Vec<Loc>, Vec<Loc>);

    fn outcome(sealed: usize, restored: usize, listed: &[Loc], live: &[Loc]) -> Outcome {
        (sealed, restored, listed.to_vec(), live.to_vec())
    }

    /// Kills `op` right before each of its primitives in turn, and once
    /// not at all, under every sound strict policy. Only the issuing
    /// thread dies — no machine crashes, so the heap stays exactly as
    /// the dead operation left it. After each run `then` issues later
    /// traffic, the sweep recovers, and the outcome over the blocks
    /// `setup` and `then` track is recorded. Returns the outcomes in
    /// kill-point order with runs of equal ones collapsed, checked to be
    /// the same under every policy.
    fn sweep(
        setup: impl Fn(&Allocator, &NodeHandle) -> Vec<Loc>,
        op: impl Fn(&Allocator, &NodeHandle, &[Loc]) -> OpResult<()>,
        then: impl Fn(&Allocator, &NodeHandle, &mut Vec<Loc>),
    ) -> Vec<Outcome> {
        let policies = [
            FlitPolicy::CXL0,
            FlitPolicy::OWNER_OPT,
            FlitPolicy::ASYNC,
            FlitPolicy::NAIVE_MSTORE,
        ];
        let mut first: Option<Vec<Outcome>> = None;
        for policy in policies {
            assert!(policy.sound && policy.strict);
            let mut outcomes: Vec<Outcome> = Vec::new();
            for k in 1.. {
                let (f, a) = setup_with(policy, 1024);
                let node = f.node(MachineId(0));
                let mut tracked = setup(&a, &node);
                f.arm_crash(k, &[]);
                let killed = op(&a, &node, &tracked).is_err();
                assert_eq!(killed, f.disarm_crash(), "{}: k = {k}", policy.name);
                then(&a, &node, &mut tracked);
                let r = a.recover(&node).unwrap();
                let listed = a.debug_free_list(&node, 2).unwrap();
                tracked.dedup();
                tracked.retain(|&b| a.free_chain(&node, &[b]).unwrap() == 1);
                let o = (r.sealed_intents, r.restored_blocks, listed, tracked);
                if outcomes.last() != Some(&o) {
                    outcomes.push(o);
                }
                if !killed {
                    break;
                }
            }
            match &first {
                Some(first) => assert_eq!(&outcomes, first, "{}", policy.name),
                None => first = Some(outcomes),
            }
        }
        first.expect("four policies")
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
        // Parked in the thread's magazine (if it has one) or listed, the
        // block is free either way, and a free through either path
        // refuses it as such.
        assert_eq!(a.free_chain(&node, &[b.loc]).unwrap(), 0);
        let listed = blocks(&a, &node, 2);
        assert_eq!(a.free_chain(&node, &listed).unwrap(), 2);
        assert_eq!(
            a.free(&node, listed[0]).unwrap(),
            Err(FreeError::DoubleFree)
        );
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
        let outcomes = sweep(|a, node| blocks(a, node, 1), free_all, |_, _, _| {});
        let b = outcomes[0].3.clone();
        // Untouched; latched or claimed, which the sweep completes;
        // published; complete — the block is free exactly once from the
        // latch on.
        let expected = vec![
            outcome(0, 0, &[], &b),
            outcome(1, 1, &b, &[]),
            outcome(1, 0, &b, &[]),
            outcome(0, 0, &b, &[]),
        ];
        assert_eq!(outcomes, expected);
    }

    /// One block of the two-cell free list.
    fn listed(a: &Allocator, node: &NodeHandle) -> Vec<Loc> {
        let b = blocks(a, node, 1);
        assert_eq!(a.free_chain(node, &b).unwrap(), 1);
        b
    }

    fn alloc2(a: &Allocator, node: &NodeHandle, _: &[Loc]) -> OpResult<()> {
        a.alloc(node, 2).map(drop)
    }

    fn free_all(a: &Allocator, node: &NodeHandle, blocks: &[Loc]) -> OpResult<()> {
        a.free_chain(node, blocks).map(drop)
    }

    #[test]
    fn torn_allocs_never_lose_the_block() {
        let outcomes = sweep(listed, alloc2, |_, _, _| {});
        let b = outcomes[0].2.clone();
        // Untouched; recorded (the block never left its list); swung
        // (the sweep puts it back); marked, where the pop is complete
        // and the block the dead caller's; complete.
        let expected = vec![
            outcome(0, 0, &b, &[]),
            outcome(1, 0, &b, &[]),
            outcome(1, 1, &b, &[]),
            outcome(1, 0, &[], &b),
            outcome(0, 0, &[], &b),
        ];
        assert_eq!(outcomes, expected);
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
        assert_eq!(a.free_chain(&node, &old).unwrap(), 1);
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
        assert_eq!(a.free_chain(&node, &[gone]).unwrap(), 1);
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
        let setup = |a: &Allocator, node: &NodeHandle| {
            let (old, chain) = (blocks(a, node, 1), blocks(a, node, K));
            assert_eq!(a.free_chain(node, &old).unwrap(), 1);
            chain.into_iter().chain(old).collect()
        };
        let free =
            |a: &Allocator, node: &NodeHandle, b: &[Loc]| a.free_chain(node, &b[..K]).map(drop);
        let outcomes = sweep(setup, free, |_, _, tracked| tracked.truncate(K));
        let (chain, old) = (&outcomes[0].3, &outcomes[0].2);
        assert_eq!((chain.len(), old.len()), (K, 1));
        // Every claimed block is published; a latched intent completes
        // the free of the block it names; the rest stay allocated.
        let freed = |j: usize| [&chain[..j], old].concat();
        let mut expected = vec![outcome(0, 0, old, chain)];
        expected.extend((1..=K).map(|j| outcome(1, j, &freed(j), &chain[j..])));
        expected.push(outcome(1, 0, &freed(K), &[]));
        expected.push(outcome(0, 0, &freed(K), &[]));
        assert_eq!(outcomes, expected);
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
        // A free dies while later traffic pops and re-frees over other
        // slots: once it has published, its FREE(b, g) faces the
        // re-allocated b (ALLOCATED g+1) and is stale.
        let later = |a: &Allocator, node: &NodeHandle, tracked: &mut Vec<Loc>| {
            tracked.push(a.alloc(node, 2).unwrap().unwrap().loc);
        };
        let outcomes = sweep(|a, node| blocks(a, node, 1), free_all, later);
        assert_eq!(
            outcomes[0].3.len(),
            2,
            "b, and the fresh block later traffic took"
        );
        let (b, c) = (&outcomes[0].3[..1], &outcomes[0].3[1..]);
        let expected = vec![
            outcome(0, 0, &[], &[b, c].concat()),
            outcome(1, 1, b, c),
            outcome(1, 0, &[], b),
            outcome(0, 0, &[], b),
        ];
        assert_eq!(outcomes, expected);
        // A pop that dies does not stall the class (pops are lock-free):
        // later traffic pops b while the dead pop has not swung the head
        // past it, takes a fresh block once it has, and the sweep puts b
        // back exactly once.
        let outcomes = sweep(listed, alloc2, later);
        let expected = vec![
            outcome(0, 0, &[], b),
            outcome(1, 0, &[], b),
            outcome(1, 1, b, c),
            outcome(1, 0, &[], &[b, c].concat()),
            outcome(0, 0, &[], &[b, c].concat()),
        ];
        assert_eq!(outcomes, expected);
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
