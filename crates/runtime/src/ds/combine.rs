//! Flat-combining/elimination fronts with **batched persistence** for
//! the durable queue and stack.
//!
//! A plain [`DurableQueue`]/[`DurableStack`] op fights a CAS war on one
//! or two hot cells *and* pays its own persistence sync. Both costs are
//! per-op; neither needs to be. A [`Combined`] front turns N concurrent
//! ops into one sequential pass by a single *combiner*, and — under a
//! policy whose batches owe durability
//! ([`FlitPolicy::batch_durable`](crate::FlitPolicy::batch_durable)) —
//! covers the whole batch's persistence with one barrier.
//!
//! # The announcement-slot protocol
//!
//! Every front owns a volatile *board*: [`COMBINE_SLOTS`]
//! cache-line-padded slots, indexed by the same leased thread-slot ids
//! that back the stats rails (PR 4), so a live thread has an exclusive
//! slot and never contends on announcement. One operation is a slot
//! round-trip:
//!
//! 1. **Announce.** The caller writes its argument and publishes the
//!    slot as `PENDING_INSERT`/`PENDING_REMOVE` (release store), then
//!    spins (with scheduler yields) on its own slot only.
//! 2. **Elect.** While still pending, the caller repeatedly tries the
//!    board's combiner lock (a single CAS). Exactly one waiter wins and
//!    becomes the combiner; everyone else keeps spinning on their slot.
//! 3. **Combine.** The combiner claims every pending slot with a CAS
//!    `PENDING → TAKEN`, then applies the claimed ops *sequentially* to
//!    the durable structure. Holding the lock makes it the structure's
//!    sole mutator, so each op is applied with plain loads and
//!    [`Persistence::batched_store`]s — no CAS retries, no FliT counter
//!    traffic — and a deferring strategy may postpone every sync to one
//!    [`Persistence::flush_batch`].
//! 4. **Eliminate.** A concurrent insert/remove pair may be linearized
//!    back-to-back and annihilate: the remove returns the insert's
//!    value and neither touches the structure or NVM at all. For the
//!    LIFO stack any pair qualifies ([`Elimination::Always`]); for the
//!    FIFO queue a pair is state-neutral only at a moment the queue is
//!    *empty* ([`Elimination::WhenEmpty`]) — an enqueue immediately
//!    followed by a dequeue at an empty queue hands over its element
//!    and restores emptiness, a valid FIFO serialization of two
//!    concurrent ops. The combiner, being sole mutator, knows exactly
//!    when it is at such a moment.
//! 5. **Acknowledge.** Only *after* the batch flush does the combiner
//!    write results and flip the slots to `DONE_*`; the spinning
//!    callers read their result and reset their slot to `EMPTY`.
//!
//! # The volatile-slot crash contract
//!
//! The board lives in ordinary process memory, never in the simulated
//! (or real) pool — it is rebuilt empty on every restart. That is the
//! whole crash story:
//!
//! - An op is acknowledged only after [`Persistence::flush_batch`]
//!   returned, so an acknowledged op is durable (under a sound
//!   strategy) and linearized.
//! - A crash before acknowledgement loses at most announcements and
//!   unflushed batch work. The combiner applies ops in an order whose
//!   every durable prefix is a consistent structure state (the batched
//!   paths store value → next → link, exactly the plain paths' persist
//!   order), so recovery sees *some* prefix of the batch — never a
//!   half-applied op, never a torn node.
//! - When the combiner's machine crashes mid-batch, the combiner marks
//!   every claimed slot `ABORTED` and each caller gets
//!   [`Crashed`]: outcome unknown, exactly the
//!   ambiguity a crash gives plain ops that were in flight.
//! - Nodes unlinked by a batch are released only after the flush — a
//!   crash can never leave a *persisted* head/top pointing at a block
//!   already handed out again. Released nodes land in the board's
//!   volatile *spare cache* for direct reuse by later inserts (skipping
//!   the allocator round trip); every cached block is durably unlinked
//!   and still allocated, so a restart that loses the cache merely
//!   leaks those blocks — the same exposure as a plain op crashing
//!   between unlink and free — and `recover` returns them to the
//!   allocator instead.
//!
//! Because announcement slots are volatile and all durable writes go
//! through the structure's existing [`Persistence`] strategy, a
//! combined structure recovers through the unchanged
//! [`Session::recover_roots`](crate::api::Session::recover_roots) path,
//! and durable linearizability holds under every sound `PersistMode`.
//!
//! # Sole-mutator contract
//!
//! All mutations of a combined structure must go through its front (the
//! overflow path for threads without an exclusive slot also takes the
//! combiner lock). Mixing plain `enqueue`/`push` calls on the same
//! underlying structure with a live front would violate the combiner's
//! sole-mutator assumption: wrap the handle with
//! [`Cluster::combined`](crate::api::Cluster::combined) where it is
//! created or opened and hand out only the front. Read-only helpers (`drain`,
//! `recover`) are for quiescent phases — tests and post-crash repair.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use cxl0_model::{Loc, MachineId};
use parking_lot::Mutex;

use crate::alloc::BlockRef;
use crate::api::Word;
use crate::backend::{thread_slot_index, AsNode, NodeHandle};
use crate::ds::queue::DurableQueue;
use crate::ds::stack::DurableStack;
use crate::error::{Crashed, OpResult};
use crate::flit::Persistence;

/// Announcement slots per board. Threads whose leased slot id is out of
/// range (more than this many concurrently live threads) fall back to
/// acquiring the combiner lock and applying a batch of one.
pub const COMBINE_SLOTS: usize = 64;

/// Bound on the board's volatile spare-node cache. Nodes a *flushed*
/// batch unlinked are handed straight back to the next batch's inserts
/// instead of round-tripping through the allocator; past this many the
/// overflow is freed normally. Sized at a few batches' worth — the
/// cache only needs to cover the combiner's own churn.
const SPARE_CAP: usize = 256;

// Slot states. EMPTY ⟶ PENDING_* (caller announce) ⟶ TAKEN (combiner
// claim) ⟶ DONE_*/ABORTED (combiner ack) ⟶ EMPTY (caller reap). The
// only racing transition is PENDING_* ⟶ {TAKEN, EMPTY}: a combiner
// claiming vs. the caller cancelling after its machine crashed — both
// CAS, exactly one wins.
const EMPTY: u64 = 0;
const PENDING_INSERT: u64 = 1;
const PENDING_REMOVE: u64 = 2;
const TAKEN: u64 = 3;
const DONE_OK: u64 = 4;
const DONE_NONE: u64 = 5;
const DONE_FULL: u64 = 6;
const ABORTED: u64 = 7;

/// One announcement slot, padded to its own cache line so a spinning
/// owner never false-shares with its neighbours.
#[repr(align(128))]
#[derive(Debug)]
struct Slot {
    state: AtomicU64,
    arg: AtomicU64,
    result: AtomicU64,
}

impl Slot {
    fn new() -> Self {
        Slot {
            state: AtomicU64::new(EMPTY),
            arg: AtomicU64::new(0),
            result: AtomicU64::new(0),
        }
    }
}

/// The combiner lock, padded away from the slots.
#[repr(align(128))]
#[derive(Debug)]
struct CombinerLock(AtomicU64);

/// Monotonic counters shared by every combining front of a cluster,
/// surfaced through
/// [`Session::stats_delta`](crate::api::Session::stats_delta) so the
/// amortization claim is observable, not asserted.
#[derive(Debug, Default)]
pub struct CombineStats {
    batches: AtomicU64,
    ops: AtomicU64,
    eliminations: AtomicU64,
    elections: AtomicU64,
    barriers_saved: AtomicU64,
    spare_reuses: AtomicU64,
}

impl CombineStats {
    /// Combiner passes that applied or eliminated at least one op.
    pub fn batches(&self) -> u64 {
        self.batches.load(Ordering::Relaxed)
    }

    /// Operations completed through a combiner (applied + eliminated).
    pub fn ops(&self) -> u64 {
        self.ops.load(Ordering::Relaxed)
    }

    /// Operations annihilated by opposite-op elimination (each
    /// insert/remove pair counts two).
    pub fn eliminations(&self) -> u64 {
        self.eliminations.load(Ordering::Relaxed)
    }

    /// Combiner-lock acquisitions.
    pub fn elections(&self) -> u64 {
        self.elections.load(Ordering::Relaxed)
    }

    /// Per-op persistence syncs avoided: batched ops folded under one
    /// batch barrier (when the strategy defers) plus eliminated ops,
    /// which skip persistence entirely.
    pub fn barriers_saved(&self) -> u64 {
        self.barriers_saved.load(Ordering::Relaxed)
    }

    /// Inserts served from the board's spare-node cache — nodes a
    /// flushed batch unlinked, reused directly without an allocator
    /// round trip.
    pub fn spare_reuses(&self) -> u64 {
        self.spare_reuses.load(Ordering::Relaxed)
    }

    /// Mean operations per combined batch (0 when no batch ran yet).
    pub fn ops_per_batch(&self) -> f64 {
        let b = self.batches();
        if b == 0 {
            0.0
        } else {
            self.ops() as f64 / b as f64
        }
    }
}

/// The volatile announcement board of one combined structure. Shared by
/// every [`Combined`] handle of that structure (the cluster keys boards
/// by root cell), rebuilt empty after a restart.
#[derive(Debug)]
pub struct CombineBoard {
    slots: Box<[Slot]>,
    lock: CombinerLock,
    /// One past the highest slot ever announced on: bounds the
    /// combiner's scan.
    watermark: AtomicUsize,
    /// Announcements currently in flight — the contention signal behind
    /// the batch-formation pause in `submit`. With another op in
    /// flight, waiting a beat forms a batch; alone, the announcer
    /// self-elects with no added latency.
    active: AtomicU64,
    /// The spare-node cache: blocks unlinked by *flushed* batches,
    /// awaiting direct reuse by later inserts (capped at [`SPARE_CAP`]).
    /// Only ever touched under the combiner lock; volatile like the
    /// rest of the board — an entry is always a durably-unlinked,
    /// still-allocated block, so losing the list on restart leaks those
    /// blocks (the same exposure as a plain op crashing mid-free) and
    /// [`Combined::recover`] returns them to the allocator instead.
    spare: Mutex<Vec<BlockRef>>,
    stats: Arc<CombineStats>,
}

impl CombineBoard {
    pub(crate) fn new(stats: Arc<CombineStats>) -> Self {
        CombineBoard {
            slots: (0..COMBINE_SLOTS).map(|_| Slot::new()).collect(),
            lock: CombinerLock(AtomicU64::new(0)),
            watermark: AtomicUsize::new(0),
            active: AtomicU64::new(0),
            spare: Mutex::new(Vec::new()),
            stats,
        }
    }

    fn try_lock(&self) -> Option<BoardGuard<'_>> {
        if self.lock.0.load(Ordering::Relaxed) == 0
            && self
                .lock
                .0
                .compare_exchange(0, 1, Ordering::Acquire, Ordering::Relaxed)
                .is_ok()
        {
            self.stats.elections.fetch_add(1, Ordering::Relaxed);
            Some(BoardGuard(self))
        } else {
            None
        }
    }

    fn lock_blocking(&self) -> BoardGuard<'_> {
        let mut spins = 0u32;
        loop {
            if let Some(g) = self.try_lock() {
                return g;
            }
            spins = spins.wrapping_add(1);
            if spins.is_multiple_of(64) {
                std::thread::yield_now();
            } else {
                std::hint::spin_loop();
            }
        }
    }
}

struct BoardGuard<'a>(&'a CombineBoard);

impl Drop for BoardGuard<'_> {
    fn drop(&mut self) {
        self.0.lock.0.store(0, Ordering::Release);
    }
}

/// When a combiner may annihilate a concurrent insert/remove pair
/// without touching the structure (see [`Combinable::ELIMINATION`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Elimination {
    /// Opposite ops never cancel.
    Disabled,
    /// Any insert/remove pair cancels: correct for LIFO structures,
    /// where push;pop linearized back-to-back is state-neutral at any
    /// point.
    Always,
    /// A pair cancels only at a moment the structure is empty: correct
    /// for FIFO structures, where enqueue;dequeue is state-neutral
    /// exactly when there is nothing the dequeue should have returned
    /// first. The combiner discovers such moments for free — a remove
    /// it applies while inserts are still queued behind it comes back
    /// `None` precisely at an empty point.
    WhenEmpty,
}

/// A durable structure that can sit behind a [`Combined`] front: one
/// word in, one word out, applied by a sole mutator.
///
/// The `*_batched` methods are called **only** by a combiner holding
/// the structure's board lock — do not call them directly; they assume
/// exclusive mutation and skip the lock-free algorithms' synchronization
/// entirely.
pub trait Combinable: Clone + Send + Sync + 'static {
    /// How opposite operations in one batch may annihilate. All claimed
    /// ops are concurrent (each was pending when the combiner claimed
    /// it), so the combiner may serialize them in any order that the
    /// structure's sequential spec allows.
    const ELIMINATION: Elimination;

    /// The durable root cell identifying this structure (the cluster's
    /// board-sharing key).
    fn root_cell(&self) -> Loc;

    /// The persistence strategy batched stores go through.
    fn persistence(&self) -> &Arc<dyn Persistence>;

    /// Sole-mutator insert of one word; `Ok(false)` when the node heap
    /// is exhausted. `spare` is the board's spare-node cache: an insert
    /// pops a recycled block from it before falling back to the
    /// allocator. Every spare entry is durably unlinked (it came out of
    /// a flushed batch) and still allocated, so reusing it — keeping
    /// its generation — has exactly the timing of an allocator
    /// free-then-realloc, minus the round trip.
    ///
    /// # Errors
    ///
    /// Fails if the issuing machine has crashed.
    fn insert_batched(
        &self,
        node: &NodeHandle,
        raw: u64,
        spare: &mut Vec<BlockRef>,
    ) -> OpResult<bool>;

    /// Sole-mutator remove; `Ok(None)` when empty. Unlinked blocks go
    /// onto `frees`; after the batch flush the combiner feeds them to
    /// the spare cache (overflow to [`Combinable::reclaim_batch`]).
    ///
    /// # Errors
    ///
    /// Fails if the issuing machine has crashed.
    fn remove_batched(&self, node: &NodeHandle, frees: &mut Vec<BlockRef>)
        -> OpResult<Option<u64>>;

    /// Returns blocks a flushed batch unlinked to the allocator.
    ///
    /// # Errors
    ///
    /// Fails if the issuing machine has crashed.
    fn reclaim_batch(&self, node: &NodeHandle, frees: &[BlockRef]) -> OpResult<()>;
}

impl<T: Word> Combinable for DurableQueue<T> {
    const ELIMINATION: Elimination = Elimination::WhenEmpty;

    fn root_cell(&self) -> Loc {
        self.header_cell()
    }

    fn persistence(&self) -> &Arc<dyn Persistence> {
        self.persist_handle()
    }

    fn insert_batched(
        &self,
        node: &NodeHandle,
        raw: u64,
        spare: &mut Vec<BlockRef>,
    ) -> OpResult<bool> {
        self.enqueue_batched(node, raw, spare)
    }

    fn remove_batched(
        &self,
        node: &NodeHandle,
        frees: &mut Vec<BlockRef>,
    ) -> OpResult<Option<u64>> {
        self.dequeue_batched(node, frees)
    }

    fn reclaim_batch(&self, node: &NodeHandle, frees: &[BlockRef]) -> OpResult<()> {
        DurableQueue::reclaim_batch(self, node, frees)
    }
}

impl<T: Word> Combinable for DurableStack<T> {
    const ELIMINATION: Elimination = Elimination::Always;

    fn root_cell(&self) -> Loc {
        self.top_cell()
    }

    fn persistence(&self) -> &Arc<dyn Persistence> {
        self.persist_handle()
    }

    fn insert_batched(
        &self,
        node: &NodeHandle,
        raw: u64,
        spare: &mut Vec<BlockRef>,
    ) -> OpResult<bool> {
        self.push_batched(node, raw, spare)
    }

    fn remove_batched(
        &self,
        node: &NodeHandle,
        frees: &mut Vec<BlockRef>,
    ) -> OpResult<Option<u64>> {
        self.pop_batched(node, frees)
    }

    fn reclaim_batch(&self, node: &NodeHandle, frees: &[BlockRef]) -> OpResult<()> {
        DurableStack::reclaim_batch(self, node, frees)
    }
}

/// A flat-combining front over a durable structure (see the [module
/// docs](self) for the protocol and crash contract). Clones share the
/// same board; obtain cluster-wide shared fronts through
/// [`Cluster::combined`](crate::api::Cluster::combined).
#[derive(Debug, Clone)]
pub struct Combined<S: Combinable> {
    inner: S,
    board: Arc<CombineBoard>,
}

/// A [`DurableQueue`] behind a combining front.
pub type CombinedQueue<T = u64> = Combined<DurableQueue<T>>;

/// A [`DurableStack`] behind a combining front.
pub type CombinedStack<T = u64> = Combined<DurableStack<T>>;

impl<S: Combinable> Combined<S> {
    /// Wraps `inner` with a fresh private board (raw-fabric use and
    /// tests; sessions share boards cluster-wide instead).
    pub fn new(inner: S) -> Self {
        Combined::attach(inner, Arc::new(CombineBoard::new(Arc::default())))
    }

    pub(crate) fn attach(inner: S, board: Arc<CombineBoard>) -> Self {
        Combined { inner, board }
    }

    /// The front's combining counters.
    pub fn stats(&self) -> &Arc<CombineStats> {
        &self.board.stats
    }

    /// Announces one op, spins for its result, and moonlights as the
    /// combiner when the lock is free.
    fn submit(&self, node: &NodeHandle, kind: u64, arg: u64) -> OpResult<(u64, u64)> {
        let idx = thread_slot_index();
        if idx >= COMBINE_SLOTS {
            return self.apply_solo(node, kind, arg);
        }
        let slot = &self.board.slots[idx];
        debug_assert_eq!(
            slot.state.load(Ordering::Relaxed),
            EMPTY,
            "one combined op in flight per thread per structure"
        );
        self.board.active.fetch_add(1, Ordering::AcqRel);
        slot.arg.store(arg, Ordering::Relaxed);
        slot.state.store(kind, Ordering::Release);
        self.board.watermark.fetch_max(idx + 1, Ordering::AcqRel);
        let mut spins = 0u32;
        loop {
            match slot.state.load(Ordering::Acquire) {
                st @ (DONE_OK | DONE_NONE | DONE_FULL) => {
                    let res = slot.result.load(Ordering::Acquire);
                    slot.state.store(EMPTY, Ordering::Release);
                    self.board.active.fetch_sub(1, Ordering::AcqRel);
                    return Ok((st, res));
                }
                ABORTED => {
                    let m = slot.result.load(Ordering::Acquire) as usize;
                    slot.state.store(EMPTY, Ordering::Release);
                    self.board.active.fetch_sub(1, Ordering::AcqRel);
                    return Err(Crashed {
                        machine: MachineId(m),
                    });
                }
                st if st == kind => {
                    spins = spins.wrapping_add(1);
                    if spins <= 1 || (spins <= 4 && self.board.active.load(Ordering::Acquire) > 1) {
                        // Batch-formation pause: yield before trying to
                        // elect ourselves, so an in-flight combiner can
                        // claim this op — and, when cores are scarce,
                        // so *other* announcing threads get scheduled
                        // first. Electing on the very first iteration
                        // would win a free lock instantly and combine a
                        // batch of one, which amortizes nothing. The
                        // first yield is unconditional — with runnable
                        // peers it is what lets their announcements
                        // surface at all (otherwise fast ops serialize
                        // into permanent batches of one); with no peer
                        // it returns immediately, costing a lone
                        // announcer almost nothing. Further yields are
                        // taken only while another announcement is
                        // actually in flight.
                        std::thread::yield_now();
                        continue;
                    }
                    if let Some(guard) = self.board.try_lock() {
                        // We won the election. A combiner-machine crash
                        // surfaces through our own slot (ABORTED), so the
                        // pass's error needs no separate handling here.
                        let _ = self.combine(node);
                        drop(guard);
                        continue;
                    }
                    if spins.is_multiple_of(64) {
                        std::thread::yield_now();
                    } else {
                        std::hint::spin_loop();
                    }
                    // Un-announce if our machine crashed while nobody
                    // claimed us, instead of spinning forever on a board
                    // no combiner may ever visit again.
                    if spins.is_multiple_of(4096)
                        && node.fabric().is_crashed(node.machine())
                        && slot
                            .state
                            .compare_exchange(kind, EMPTY, Ordering::AcqRel, Ordering::Acquire)
                            .is_ok()
                    {
                        self.board.active.fetch_sub(1, Ordering::AcqRel);
                        return Err(Crashed {
                            machine: node.machine(),
                        });
                    }
                }
                _ => {
                    // TAKEN: a combiner owns the op; the ack is coming.
                    spins = spins.wrapping_add(1);
                    if spins.is_multiple_of(64) {
                        std::thread::yield_now();
                    } else {
                        std::hint::spin_loop();
                    }
                }
            }
        }
    }

    /// Fallback for threads without an exclusive announcement slot:
    /// take the combiner lock and run a batch of one, preserving the
    /// sole-mutator invariant.
    fn apply_solo(&self, node: &NodeHandle, kind: u64, arg: u64) -> OpResult<(u64, u64)> {
        let guard = self.board.lock_blocking();
        let mut spare = self.board.spare.lock();
        let spare_before = spare.len();
        let mut frees = Vec::new();
        let (st, res) = if kind == PENDING_INSERT {
            let ok = self.inner.insert_batched(node, arg, &mut spare)?;
            if ok {
                (DONE_OK, 1)
            } else {
                (DONE_FULL, 0)
            }
        } else {
            match self.inner.remove_batched(node, &mut frees)? {
                Some(v) => (DONE_OK, v),
                None => (DONE_NONE, 0),
            }
        };
        let reused = (spare_before - spare.len()) as u64;
        self.inner.persistence().flush_batch(node)?;
        self.stash_frees(node, &mut spare, &frees)?;
        let stats = &self.board.stats;
        stats.batches.fetch_add(1, Ordering::Relaxed);
        stats.ops.fetch_add(1, Ordering::Relaxed);
        stats.spare_reuses.fetch_add(reused, Ordering::Relaxed);
        drop(spare);
        drop(guard);
        Ok((st, res))
    }

    /// Post-crash board repair (quiescent phases only): returns every
    /// spare-cache block to the allocator. Spare blocks are always
    /// durably unlinked and still allocated, so freeing them is safe at
    /// any quiescent point; emptying the volatile cache leaves the
    /// board exactly as a real restart would — without leaking the
    /// blocks a restart loses.
    fn drain_spare(&self, node: &NodeHandle) -> OpResult<()> {
        let frees = std::mem::take(&mut *self.board.spare.lock());
        self.inner.reclaim_batch(node, &frees)
    }

    /// Post-flush reclamation: blocks the batch unlinked refill the
    /// spare cache for direct reuse by later inserts; past
    /// [`SPARE_CAP`] the overflow goes back to the allocator.
    fn stash_frees(
        &self,
        node: &NodeHandle,
        spare: &mut Vec<BlockRef>,
        frees: &[BlockRef],
    ) -> OpResult<()> {
        let room = SPARE_CAP.saturating_sub(spare.len()).min(frees.len());
        spare.extend_from_slice(&frees[..room]);
        self.inner.reclaim_batch(node, &frees[room..])
    }

    /// One combining pass; the caller holds the board lock.
    fn combine(&self, node: &NodeHandle) -> OpResult<()> {
        let _span = node.trace_span(crate::trace::OpKind::CombineBatch);
        let board = &*self.board;
        let hi = board.watermark.load(Ordering::Acquire).min(COMBINE_SLOTS);
        let mut claimed: Vec<(usize, u64, u64)> = Vec::with_capacity(hi);
        for (i, slot) in board.slots[..hi].iter().enumerate() {
            let st = slot.state.load(Ordering::Acquire);
            if (st == PENDING_INSERT || st == PENDING_REMOVE)
                && slot
                    .state
                    .compare_exchange(st, TAKEN, Ordering::AcqRel, Ordering::Acquire)
                    .is_ok()
            {
                claimed.push((i, st, slot.arg.load(Ordering::Acquire)));
            }
        }
        if claimed.is_empty() {
            return Ok(());
        }

        // Partition the claimed ops, preserving slot order within each
        // kind. All claimed ops are concurrent (each was pending at
        // claim time), so the combiner may serialize them in any
        // spec-respecting order.
        let mut inserts: VecDeque<(usize, u64)> = VecDeque::new();
        let mut removes: VecDeque<usize> = VecDeque::new();
        for &(i, kind, arg) in &claimed {
            if kind == PENDING_INSERT {
                inserts.push_back((i, arg));
            } else {
                removes.push_back(i);
            }
        }
        let mut acks: Vec<(usize, u64, u64)> = Vec::with_capacity(claimed.len());
        let mut pairs = 0u64;

        // Static elimination: for a LIFO structure every insert/remove
        // pair linearizes back-to-back and annihilates before the
        // structure is touched at all.
        if S::ELIMINATION == Elimination::Always {
            while inserts.front().is_some() && removes.front().is_some() {
                let (ins_i, arg) = inserts.pop_front().expect("front checked");
                let rem_i = removes.pop_front().expect("front checked");
                acks.push((ins_i, DONE_OK, 1));
                acks.push((rem_i, DONE_OK, arg));
                pairs += 1;
            }
        }

        // Sole-mutator application. Removes go first: each either
        // drains an element that predates the batch or comes back
        // `None` at an *empty point*, where a `WhenEmpty` structure
        // cancels it against a still-pending insert instead of
        // touching NVM. Leftover inserts apply at the end, drawing
        // their nodes from the spare cache before the allocator.
        let mut spare = board.spare.lock();
        let spare_before = spare.len();
        let mut frees: Vec<BlockRef> = Vec::new();
        let mut applied = 0u64; // ops that issued batched stores
        let mut err: Option<Crashed> = None;
        'apply: {
            while let Some(&rem_i) = removes.front() {
                match self.inner.remove_batched(node, &mut frees) {
                    Ok(Some(v)) => {
                        applied += 1;
                        acks.push((rem_i, DONE_OK, v));
                    }
                    Ok(None) => {
                        if S::ELIMINATION == Elimination::WhenEmpty {
                            if let Some((ins_i, arg)) = inserts.pop_front() {
                                acks.push((ins_i, DONE_OK, 1));
                                acks.push((rem_i, DONE_OK, arg));
                                pairs += 1;
                                removes.pop_front();
                                continue;
                            }
                        }
                        acks.push((rem_i, DONE_NONE, 0));
                    }
                    Err(e) => {
                        err = Some(e);
                        break 'apply;
                    }
                }
                removes.pop_front();
            }
            while let Some(&(ins_i, arg)) = inserts.front() {
                match self.inner.insert_batched(node, arg, &mut spare) {
                    Ok(true) => {
                        applied += 1;
                        acks.push((ins_i, DONE_OK, 1));
                    }
                    Ok(false) => acks.push((ins_i, DONE_FULL, 0)),
                    Err(e) => {
                        err = Some(e);
                        break 'apply;
                    }
                }
                inserts.pop_front();
            }
        }
        let reused = (spare_before - spare.len()) as u64;
        if err.is_none() && applied > 0 {
            err = self.inner.persistence().flush_batch(node).err();
        }
        if let Some(e) = err {
            // Abort the whole batch: nothing was acknowledged, so every
            // caller sees an error — never a half-applied batch reported
            // as complete. The unlinked blocks are dropped, not cached:
            // with the batch unflushed, the durable structure may still
            // contain them, so they must not be handed out again (they
            // leak, exactly a plain op's mid-free crash exposure).
            for &(i, _, _) in &claimed {
                let slot = &board.slots[i];
                slot.result.store(e.machine.0 as u64, Ordering::Relaxed);
                slot.state.store(ABORTED, Ordering::Release);
            }
            return Err(e);
        }
        // Reclamation strictly after the flush; on a crash here the
        // blocks leak (exactly a plain op's mid-free crash exposure) but
        // the acknowledged results stand.
        let reclaim_err = self.stash_frees(node, &mut spare, &frees).err();
        drop(spare);
        for &(i, st, res) in &acks {
            let slot = &board.slots[i];
            slot.result.store(res, Ordering::Relaxed);
            slot.state.store(st, Ordering::Release);
        }
        let stats = &board.stats;
        stats.batches.fetch_add(1, Ordering::Relaxed);
        stats.ops.fetch_add(claimed.len() as u64, Ordering::Relaxed);
        stats.eliminations.fetch_add(2 * pairs, Ordering::Relaxed);
        stats.spare_reuses.fetch_add(reused, Ordering::Relaxed);
        let mut saved = 2 * pairs;
        if self.inner.persistence().defers_batches() {
            saved += applied.saturating_sub(1);
        }
        stats.barriers_saved.fetch_add(saved, Ordering::Relaxed);
        match reclaim_err {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }
}

impl<T: Word> Combined<DurableQueue<T>> {
    /// Enqueues `v` through the combining front. Returns `false` (no
    /// error) if the node heap is exhausted.
    ///
    /// # Errors
    ///
    /// Fails if the issuing machine has crashed, or if the combiner
    /// serving this op crashed mid-batch (outcome unknown, as for any
    /// op in flight at a crash).
    pub fn enqueue(&self, at: &impl AsNode, v: T) -> OpResult<bool> {
        let _span = at.as_node().trace_span(crate::trace::OpKind::Enqueue);
        let (st, _) = self.submit(at.as_node(), PENDING_INSERT, v.to_word())?;
        Ok(st == DONE_OK)
    }

    /// Dequeues through the combining front; `None` when empty.
    ///
    /// # Errors
    ///
    /// See [`Combined::enqueue`].
    pub fn dequeue(&self, at: &impl AsNode) -> OpResult<Option<T>> {
        let _span = at.as_node().trace_span(crate::trace::OpKind::Dequeue);
        let (st, res) = self.submit(at.as_node(), PENDING_REMOVE, 0)?;
        Ok((st == DONE_OK).then(|| T::from_word(res)))
    }

    /// Post-crash repair (quiescent phases only):
    /// [`DurableQueue::recover`] on the structure, then the board's
    /// spare-node cache goes back to the allocator.
    ///
    /// # Errors
    ///
    /// Fails if the issuing machine has crashed.
    pub fn recover(&self, at: &impl AsNode) -> OpResult<()> {
        self.inner.recover(at)?;
        self.drain_spare(at.as_node())
    }

    /// Drains the queue (quiescent phases only).
    ///
    /// # Errors
    ///
    /// Fails if the issuing machine has crashed.
    pub fn drain(&self, at: &impl AsNode) -> OpResult<Vec<T>> {
        self.inner.drain(at)
    }

    /// The underlying queue's header cell (for re-attachment).
    pub fn header_cell(&self) -> Loc {
        self.inner.header_cell()
    }
}

impl<T: Word> Combined<DurableStack<T>> {
    /// Pushes `v` through the combining front. Returns `false` (no
    /// error) if the node heap is exhausted.
    ///
    /// # Errors
    ///
    /// See [`Combined::enqueue`].
    pub fn push(&self, at: &impl AsNode, v: T) -> OpResult<bool> {
        let _span = at.as_node().trace_span(crate::trace::OpKind::Push);
        let (st, _) = self.submit(at.as_node(), PENDING_INSERT, v.to_word())?;
        Ok(st == DONE_OK)
    }

    /// Pops through the combining front; `None` when empty. May be
    /// served by elimination against a concurrent push without touching
    /// the durable structure.
    ///
    /// # Errors
    ///
    /// See [`Combined::enqueue`].
    pub fn pop(&self, at: &impl AsNode) -> OpResult<Option<T>> {
        let _span = at.as_node().trace_span(crate::trace::OpKind::Pop);
        let (st, res) = self.submit(at.as_node(), PENDING_REMOVE, 0)?;
        Ok((st == DONE_OK).then(|| T::from_word(res)))
    }

    /// Post-crash repair (quiescent phases only): the stack's list
    /// needs none, but the board's spare-node cache goes back to the
    /// allocator.
    ///
    /// # Errors
    ///
    /// Fails if the issuing machine has crashed.
    pub fn recover(&self, at: &impl AsNode) -> OpResult<()> {
        self.drain_spare(at.as_node())
    }

    /// Drains the stack (quiescent phases only).
    ///
    /// # Errors
    ///
    /// Fails if the issuing machine has crashed.
    pub fn drain(&self, at: &impl AsNode) -> OpResult<Vec<T>> {
        self.inner.drain(at)
    }

    /// The underlying stack's top cell (for re-attachment).
    pub fn top_cell(&self) -> Loc {
        self.inner.top_cell()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alloc::Allocator;
    use crate::backend::SimFabric;
    use crate::flit::{Flit, FlitPolicy};
    use cxl0_model::{MachineId, SystemConfig};

    fn setup(persist: Arc<dyn Persistence>) -> (Arc<SimFabric>, CombinedQueue, CombinedStack) {
        let f = SimFabric::new(SystemConfig::symmetric_nvm(3, 1 << 14));
        let alloc = Arc::new(Allocator::over_region(f.config(), MachineId(2), persist));
        let node = f.node(MachineId(0));
        let q = Combined::new(DurableQueue::create(&alloc, &node).unwrap().unwrap());
        let s = Combined::new(DurableStack::create(&alloc, &node).unwrap().unwrap());
        (f, q, s)
    }

    #[test]
    fn fifo_and_lifo_through_the_front() {
        let (f, q, s) = setup(Arc::new(Flit::new(FlitPolicy::CXL0)));
        let node = f.node(MachineId(0));
        for v in 1..=5u64 {
            assert!(q.enqueue(&node, v).unwrap());
            assert!(s.push(&node, v).unwrap());
        }
        for v in 1..=5u64 {
            assert_eq!(q.dequeue(&node).unwrap(), Some(v));
            assert_eq!(s.pop(&node).unwrap(), Some(6 - v));
        }
        assert_eq!(q.dequeue(&node).unwrap(), None);
        assert_eq!(s.pop(&node).unwrap(), None);
    }

    #[test]
    fn batch_of_one_counts_as_batch() {
        let (f, q, _s) = setup(Arc::new(Flit::new(FlitPolicy::ASYNC)));
        let node = f.node(MachineId(0));
        q.enqueue(&node, 7).unwrap();
        assert_eq!(q.stats().batches(), 1);
        assert_eq!(q.stats().ops(), 1);
        assert!(q.stats().elections() >= 1);
    }

    #[test]
    fn concurrent_ops_conserve_elements_and_batch() {
        let (f, q, _s) = setup(Arc::new(Flit::new(FlitPolicy::ASYNC)));
        let threads = 8;
        let per = 100u64;
        let mut handles = Vec::new();
        for t in 0..threads as u64 {
            let q = q.clone();
            let node = f.node(MachineId((t % 2) as usize));
            handles.push(std::thread::spawn(move || {
                for i in 0..per {
                    assert!(q.enqueue(&node, t * 1000 + i).unwrap());
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let node = f.node(MachineId(0));
        let got = q.drain(&node).unwrap();
        assert_eq!(got.len() as u64, per * threads as u64);
        // Per-producer FIFO survives combining.
        for t in 0..threads as u64 {
            let mine: Vec<u64> = got.iter().copied().filter(|v| v / 1000 == t).collect();
            let expect: Vec<u64> = (0..per).map(|i| t * 1000 + i).collect();
            assert_eq!(mine, expect);
        }
        let stats = q.stats();
        assert_eq!(stats.ops(), per * threads as u64);
        assert!(
            stats.batches() <= stats.ops(),
            "batches can never exceed ops"
        );
    }

    #[test]
    fn stack_elimination_annihilates_pairs() {
        let (f, _q, s) = setup(Arc::new(Flit::new(FlitPolicy::ASYNC)));
        let stop = Arc::new(AtomicU64::new(0));
        let mut handles = Vec::new();
        for t in 0..4u64 {
            let s = s.clone();
            let node = f.node(MachineId((t % 2) as usize));
            let stop = Arc::clone(&stop);
            handles.push(std::thread::spawn(move || {
                let mut pushed = 0u64;
                let mut popped = 0u64;
                for i in 0..400u64 {
                    if (t + i) % 2 == 0 {
                        assert!(s.push(&node, t * 1000 + i).unwrap());
                        pushed += 1;
                    } else if s.pop(&node).unwrap().is_some() {
                        popped += 1;
                    }
                }
                stop.fetch_add(pushed - popped, Ordering::Relaxed);
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let node = f.node(MachineId(0));
        let rest = s.drain(&node).unwrap().len() as u64;
        assert_eq!(rest, stop.load(Ordering::Relaxed));
        // The mixed workload on few cores virtually always combines at
        // least one opposite pair; the counter must be even either way.
        assert!(s.stats().eliminations().is_multiple_of(2));
    }

    #[test]
    fn batched_persistence_saves_barriers_under_flit_async() {
        let (f, q, _s) = setup(Arc::new(Flit::new(FlitPolicy::ASYNC)));
        let threads = 6;
        // Large enough that a thread's whole loop cannot fit in one
        // scheduler timeslice (combined ops are fast): overlap — and
        // with it batching — then arises on any core count.
        let per = 3000u64;
        let mut handles = Vec::new();
        for t in 0..threads as u64 {
            let q = q.clone();
            let node = f.node(MachineId((t % 2) as usize));
            handles.push(std::thread::spawn(move || {
                for i in 0..per {
                    q.enqueue(&node, i).unwrap();
                    q.dequeue(&node).unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let stats = q.stats();
        assert_eq!(stats.ops(), 2 * per * threads as u64);
        assert!(
            stats.batches() < stats.ops(),
            "single-core contention must combine: {} batches for {} ops",
            stats.batches(),
            stats.ops()
        );
        assert!(stats.barriers_saved() > 0);
    }

    #[test]
    fn contents_survive_memory_crash_and_recover() {
        let (f, q, s) = setup(Arc::new(Flit::new(FlitPolicy::CXL0)));
        let node = f.node(MachineId(0));
        for v in [1u64, 2, 3] {
            q.enqueue(&node, v).unwrap();
            s.push(&node, v).unwrap();
        }
        f.crash(MachineId(2));
        f.recover(MachineId(2));
        q.recover(&node).unwrap();
        assert_eq!(q.drain(&node).unwrap(), vec![1, 2, 3]);
        assert_eq!(s.drain(&node).unwrap(), vec![3, 2, 1]);
    }

    #[test]
    fn churn_through_the_front_reuses_nodes() {
        let f = SimFabric::new(SystemConfig::symmetric_nvm(2, 256));
        let alloc = Arc::new(Allocator::over_region(
            f.config(),
            MachineId(1),
            Arc::new(Flit::new(FlitPolicy::ASYNC)),
        ));
        let node = f.node(MachineId(0));
        let q: CombinedQueue = Combined::new(DurableQueue::create(&alloc, &node).unwrap().unwrap());
        for i in 0..1000u64 {
            assert!(q.enqueue(&node, i + 1).unwrap(), "op {i}: must not exhaust");
            assert_eq!(q.dequeue(&node).unwrap(), Some(i + 1));
        }
        // Reuse happens in the spare cache (allocator-free) or, for
        // whatever overflows it, on the allocator's free lists; either
        // way the tiny region survives 1000 ops.
        let reused = q.stats().spare_reuses() + alloc.stats().freelist_hits;
        assert!(reused > 900, "churn must reuse nodes (got {reused})");
        assert!(
            q.stats().spare_reuses() > 0,
            "the combiner's own churn must hit the spare cache"
        );
    }

    #[test]
    fn recover_returns_spare_nodes_to_the_allocator() {
        let (f, q, s) = setup(Arc::new(Flit::new(FlitPolicy::CXL0)));
        let node = f.node(MachineId(0));
        // Leave both boards with non-empty spare caches: enqueue/push
        // then dequeue/pop moves the unlinked nodes into spare.
        for v in 1..=4u64 {
            q.enqueue(&node, v).unwrap();
            s.push(&node, v).unwrap();
        }
        for _ in 0..4 {
            q.dequeue(&node).unwrap();
            s.pop(&node).unwrap();
        }
        f.crash(MachineId(2));
        f.recover(MachineId(2));
        q.recover(&node).unwrap();
        s.recover(&node).unwrap();
        // The fronts still work, and durable contents round-trip.
        for v in [7u64, 8] {
            assert!(q.enqueue(&node, v).unwrap());
            assert!(s.push(&node, v).unwrap());
        }
        assert_eq!(q.drain(&node).unwrap(), vec![7, 8]);
        assert_eq!(s.drain(&node).unwrap(), vec![8, 7]);
    }
}
