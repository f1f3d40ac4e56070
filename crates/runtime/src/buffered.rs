//! `BufferedEpoch` — a Montage/Romulus-flavored *buffered* durability
//! strategy (§8's "relaxing durability semantics ... can be explored here
//! as well").
//!
//! Where FliT persists every flagged store before its operation returns,
//! `BufferedEpoch` persists **nothing** on the fast path: flagged stores
//! are plain `LStore`s, recorded (deduplicated, last value wins) in a
//! volatile dirty map. An explicit (or interval-triggered)
//! [`BufferedEpoch::sync`] appends the dirty cells to a **redo log** on
//! the memory node — written with `AFlush` requests and retired by a
//! single overlapped `Barrier` (the `CXL0_AF` extension) — and then
//! commits the batch with one `MStore` to a commit cell. When the log
//! fills up, a full ping-pong snapshot of every tracked cell compacts it.
//! After a crash, [`BufferedEpoch::recover`] restores the last full
//! snapshot and replays the committed log — rolling *back* any effect that
//! leaked into memory through cache eviction after the last sync.
//!
//! The guarantee is exactly **buffered durable linearizability**
//! (`cxl0-dlcheck::buffered`): operations completed before the last `sync`
//! survive; operations after it are dropped *wholesale*, so recovery is
//! always a consistent real-time cut, never a torn state.
//!
//! Why it can beat FliT: persistence cost per sync is proportional to the
//! number of *distinct* cells written in the interval, not to the number
//! of stores — skewed workloads absorb repeated updates to hot cells —
//! and the log write-backs overlap under one barrier instead of paying a
//! full round trip each (`CostModel::flush_pipelined`).
//!
//! ## Scope and simplifications
//!
//! * The slot map and dirty map are host-side metadata of the writing
//!   side. The strategy tolerates crashes of the **memory node** (the E7
//!   scenario); tolerating a crash of the *writer* machine would require
//!   epoch-tagged payloads in shared memory as in Montage proper, which is
//!   beyond this reproduction's scope.
//! * Tracked mutations serialize briefly on the dirty-map lock so that
//!   the recorded value order matches the store order; `sync` should run
//!   at operation boundaries (the op-count interval in `completeOp` does
//!   this) so the cut is consistent.
//!
//! ## Lock order
//!
//! `sync_lock` → `slots` → `dirty`, always in that order, never holding
//! a later lock while acquiring an earlier one. The flagged fast path
//! takes `sync_lock` then records under `slots`/`dirty`; `sync` and
//! `recover` take `sync_lock` for their whole critical section and
//! acquire `slots` and `dirty` **once per batch** (a single
//! `mem::take`/snapshot each), not once per tracked cell.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};

use cxl0_model::{Loc, MachineId, StoreKind};
use parking_lot::Mutex;

use crate::backend::NodeHandle;
use crate::error::OpResult;
use crate::flit::{FlitPolicy, Persistence};
use crate::heap::SharedHeap;

const REGION_BITS: u64 = 1;
const LOG_BITS: u64 = 23;

/// Buffered-durability transformation: flush-free fast path, redo-log
/// syncs with overlapped write-backs, rollback recovery.
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use cxl0_runtime::{SimFabric, SharedHeap, BufferedEpoch, DurableRegister, Persistence};
/// use cxl0_model::{SystemConfig, MachineId};
///
/// let fabric = SimFabric::new(SystemConfig::symmetric_nvm(2, 64));
/// let heap = Arc::new(SharedHeap::new(fabric.config(), MachineId(1)));
/// let buffered = Arc::new(BufferedEpoch::create(&heap, 8, 0).unwrap());
/// let reg = DurableRegister::create(&heap, Arc::clone(&buffered) as Arc<dyn Persistence>).unwrap();
/// let node = fabric.node(MachineId(0));
///
/// reg.write(&node, 1)?;
/// buffered.sync(&node)?;          // checkpoint: 1 is now durable
/// reg.write(&node, 2)?;           // NOT yet durable
///
/// fabric.crash(MachineId(1));
/// fabric.recover(MachineId(1));
/// buffered.recover(&node)?;       // roll back to the checkpoint
/// assert_eq!(reg.read(&node)?, 1);
/// # Ok::<(), cxl0_runtime::Crashed>(())
/// ```
#[derive(Debug)]
pub struct BufferedEpoch {
    region: MachineId,
    commit: Loc,
    shadow_a: Loc,
    shadow_b: Loc,
    log_base: Loc,
    capacity: u32,
    log_capacity: u32,
    /// Tracked cell → snapshot slot, assigned on first flagged write.
    slots: Mutex<HashMap<Loc, u32>>,
    /// Last value written per cell since the previous sync (the redo set).
    dirty: Mutex<BTreeMap<Loc, u64>>,
    epoch: AtomicU64,
    /// 0 = `shadow_a` holds the committed snapshot, 1 = `shadow_b`.
    committed_region: AtomicU64,
    /// Committed log length, in cells (2 per redo entry).
    log_len: AtomicU64,
    sync_interval: usize,
    ops_since_sync: AtomicU64,
    sync_lock: Mutex<()>,
}

impl BufferedEpoch {
    /// Allocates the commit cell, two `capacity`-cell shadow regions and a
    /// `2 * capacity`-cell redo log from `heap`. With `sync_interval > 0`,
    /// `completeOp` triggers an automatic [`BufferedEpoch::sync`] every
    /// `sync_interval` completed operations; with `0`, syncs are manual.
    ///
    /// Returns `None` if the heap cannot fit `4 * capacity + 1` cells.
    pub fn create(heap: &SharedHeap, capacity: u32, sync_interval: usize) -> Option<Self> {
        let log_capacity = 2 * capacity;
        assert!(
            u64::from(log_capacity) < (1 << LOG_BITS),
            "log capacity exceeds the commit encoding"
        );
        let commit = heap.alloc(1)?;
        let shadow_a = heap.alloc(capacity)?;
        let shadow_b = heap.alloc(capacity)?;
        let log_base = heap.alloc(log_capacity)?;
        Some(BufferedEpoch {
            region: heap.region(),
            commit,
            shadow_a,
            shadow_b,
            log_base,
            capacity,
            log_capacity,
            slots: Mutex::new(HashMap::new()),
            dirty: Mutex::new(BTreeMap::new()),
            epoch: AtomicU64::new(0),
            committed_region: AtomicU64::new(0),
            log_len: AtomicU64::new(0),
            sync_interval,
            ops_since_sync: AtomicU64::new(0),
            sync_lock: Mutex::new(()),
        })
    }

    /// The number of completed syncs.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// Distinct cells written (with `pflag`) since the last sync.
    pub fn dirty_len(&self) -> usize {
        self.dirty.lock().len()
    }

    /// Cells tracked for snapshotting.
    pub fn tracked_len(&self) -> usize {
        self.slots.lock().len()
    }

    fn shadow(&self, region: u64, slot: u32) -> Loc {
        let base = if region == 0 {
            self.shadow_a
        } else {
            self.shadow_b
        };
        Loc::new(self.region, base.addr.0 + slot)
    }

    fn log_cell(&self, i: u64) -> Loc {
        Loc::new(self.region, self.log_base.addr.0 + i as u32)
    }

    fn encode_commit(epoch: u64, log_len: u64, region: u64) -> u64 {
        (epoch << (LOG_BITS + REGION_BITS)) | (log_len << REGION_BITS) | region
    }

    fn decode_commit(raw: u64) -> (u64, u64, u64) {
        (
            raw >> (LOG_BITS + REGION_BITS),
            (raw >> REGION_BITS) & ((1 << LOG_BITS) - 1),
            raw & 1,
        )
    }

    /// Registers `loc` with value `v`, assigning a snapshot slot on first
    /// use.
    ///
    /// # Panics
    ///
    /// Panics if more than `capacity` distinct cells are written, or if a
    /// cell outside the strategy's memory region is flagged persistent.
    fn record(&self, loc: Loc, v: u64) {
        assert_eq!(
            loc.owner, self.region,
            "BufferedEpoch tracks cells on its own region only"
        );
        let mut slots = self.slots.lock();
        let n = slots.len() as u32;
        slots.entry(loc).or_insert_with(|| {
            assert!(
                n < self.capacity,
                "BufferedEpoch capacity exhausted ({} cells)",
                self.capacity
            );
            n
        });
        drop(slots);
        self.dirty.lock().insert(loc, v);
    }

    /// Appends the dirty cells to the redo log (overlapped write-backs
    /// under one barrier) and commits; compacts into a full snapshot when
    /// the log is full. Returns the new epoch number.
    ///
    /// Everything completed before this call is durable afterwards;
    /// everything after it is exposed to rollback until the next sync.
    ///
    /// # Errors
    ///
    /// Fails if the issuing machine has crashed; the previously committed
    /// state remains intact in that case.
    pub fn sync(&self, node: &NodeHandle) -> OpResult<u64> {
        let _g = self.sync_lock.lock();
        // One `dirty` acquisition for the whole batch: take the map
        // wholesale instead of copying and clearing entry by entry.
        let dirty = std::mem::take(&mut *self.dirty.lock());
        let epoch = self.epoch.load(Ordering::Acquire) + 1;
        let mut len = self.log_len.load(Ordering::Acquire);
        let region = self.committed_region.load(Ordering::Acquire);

        if len + 2 * dirty.len() as u64 > u64::from(self.log_capacity) {
            // Compaction: full ping-pong snapshot, log reset. One
            // `slots` acquisition for the whole batch; the taken dirty
            // map doubles as the redo lookup (no second map build).
            let target = 1 - region;
            let snapshot: Vec<(Loc, u32)> = {
                let slots = self.slots.lock();
                slots.iter().map(|(&l, &s)| (l, s)).collect()
            };
            for (loc, slot) in snapshot {
                let v = match dirty.get(&loc) {
                    Some(&v) => v,
                    None => node.load(loc)?,
                };
                let cell = self.shadow(target, slot);
                node.lstore(cell, v)?;
                node.aflush(cell)?;
            }
            node.barrier()?;
            node.mstore(self.commit, Self::encode_commit(epoch, 0, target))?;
            self.committed_region.store(target, Ordering::Release);
            self.log_len.store(0, Ordering::Release);
        } else {
            // Redo-log append: two cells per entry, one barrier for all.
            for (loc, v) in &dirty {
                let id_cell = self.log_cell(len);
                let val_cell = self.log_cell(len + 1);
                node.lstore(id_cell, u64::from(loc.addr.0))?;
                node.aflush(id_cell)?;
                node.lstore(val_cell, *v)?;
                node.aflush(val_cell)?;
                len += 2;
            }
            node.barrier()?;
            node.mstore(self.commit, Self::encode_commit(epoch, len, region))?;
            self.log_len.store(len, Ordering::Release);
        }
        self.epoch.store(epoch, Ordering::Release);
        self.ops_since_sync.store(0, Ordering::Release);
        Ok(epoch)
    }

    /// Restores the last committed state: the full snapshot, then the
    /// committed redo log replayed over it. Cells first written after the
    /// last sync roll back to their value at that sync (or `0` if they
    /// did not exist yet). Call after the memory node recovers.
    ///
    /// Returns the epoch of the restored state (`0` if no sync ever
    /// committed — everything rolls back to the initial state).
    ///
    /// # Errors
    ///
    /// Fails if the issuing machine has crashed.
    pub fn recover(&self, node: &NodeHandle) -> OpResult<u64> {
        let _g = self.sync_lock.lock();
        let raw = node.load(self.commit)?;
        let (epoch, log_len, region) = Self::decode_commit(raw);
        let snapshot: Vec<(Loc, u32)> = {
            let slots = self.slots.lock();
            slots.iter().map(|(&l, &s)| (l, s)).collect()
        };
        for (loc, slot) in snapshot {
            let v = if raw == 0 {
                0 // no snapshot ever committed: the initial state
            } else {
                node.load(self.shadow(region, slot))?
            };
            node.mstore(loc, v)?;
        }
        let mut i = 0;
        while i + 1 < log_len {
            let addr = node.load(self.log_cell(i))?;
            let v = node.load(self.log_cell(i + 1))?;
            node.mstore(Loc::new(self.region, addr as u32), v)?;
            i += 2;
        }
        self.committed_region.store(region, Ordering::Release);
        self.log_len.store(log_len, Ordering::Release);
        self.epoch.store(epoch, Ordering::Release);
        self.dirty.lock().clear();
        self.ops_since_sync.store(0, Ordering::Release);
        Ok(epoch)
    }
}

impl Persistence for BufferedEpoch {
    fn name(&self) -> &'static str {
        FlitPolicy::BUFFERED.name
    }

    fn shared_load(&self, node: &NodeHandle, loc: Loc, _pflag: bool) -> OpResult<u64> {
        // No helping: readers owe nothing, because nothing promises
        // persistence before the next sync anyway.
        node.load(loc)
    }

    fn shared_store(&self, node: &NodeHandle, loc: Loc, v: u64, pflag: bool) -> OpResult<()> {
        if !pflag {
            return node.lstore(loc, v);
        }
        // Hold the dirty lock across the store so the recorded last value
        // matches the store order under concurrency.
        let _serial = self.sync_lock.lock();
        node.lstore(loc, v)?;
        self.record(loc, v);
        Ok(())
    }

    fn private_store(&self, node: &NodeHandle, loc: Loc, v: u64, pflag: bool) -> OpResult<()> {
        self.shared_store(node, loc, v, pflag)
    }

    fn shared_cas(
        &self,
        node: &NodeHandle,
        loc: Loc,
        old: u64,
        new: u64,
        pflag: bool,
    ) -> OpResult<Result<u64, u64>> {
        if !pflag {
            return node.cas(StoreKind::Local, loc, old, new);
        }
        let _serial = self.sync_lock.lock();
        let r = node.cas(StoreKind::Local, loc, old, new)?;
        if r.is_ok() {
            self.record(loc, new);
        }
        Ok(r)
    }

    fn shared_faa(&self, node: &NodeHandle, loc: Loc, delta: u64, pflag: bool) -> OpResult<u64> {
        if !pflag {
            return node.faa(StoreKind::Local, loc, delta);
        }
        let _serial = self.sync_lock.lock();
        let old = node.faa(StoreKind::Local, loc, delta)?;
        self.record(loc, old.wrapping_add(delta));
        Ok(old)
    }

    fn complete_op(&self, node: &NodeHandle) -> OpResult<()> {
        if self.sync_interval > 0 {
            let n = self.ops_since_sync.fetch_add(1, Ordering::AcqRel) + 1;
            if n as usize >= self.sync_interval {
                self.sync(node)?;
            }
        }
        Ok(())
    }

    // Rollback recovery replays the *redo log*: a batched store that
    // bypassed `record()` (as `Flit`'s `AFlush`-riding batch path does)
    // would be rolled back to the last epoch snapshot without a log entry
    // to restore it. Keep combined batches on the logged store path; the
    // buffered promise (durable as of the last sync) already needs no
    // per-batch sync.
    fn defers_batches(&self) -> bool {
        false
    }

    fn batched_store(&self, node: &NodeHandle, loc: Loc, v: u64) -> OpResult<()> {
        self.shared_store(node, loc, v, true)
    }

    fn flush_batch(&self, node: &NodeHandle) -> OpResult<()> {
        let _ = node;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::SimFabric;
    use crate::ds::{DurableCounter, DurableQueue, DurableRegister};
    use cxl0_model::SystemConfig;
    use std::sync::Arc;

    const M0: MachineId = MachineId(0);
    const MEM: MachineId = MachineId(1);

    fn setup(interval: usize) -> (Arc<SimFabric>, Arc<SharedHeap>, Arc<BufferedEpoch>) {
        let f = SimFabric::new(SystemConfig::symmetric_nvm(2, 4096));
        let heap = Arc::new(SharedHeap::new(f.config(), MEM));
        let b = Arc::new(BufferedEpoch::create(&heap, 256, interval).unwrap());
        (f, heap, b)
    }

    #[test]
    fn unsynced_writes_roll_back() {
        let (f, heap, b) = setup(0);
        let reg = DurableRegister::create(&heap, Arc::clone(&b) as Arc<dyn Persistence>).unwrap();
        let node = f.node(M0);
        reg.write(&node, 1).unwrap();
        b.sync(&node).unwrap();
        reg.write(&node, 2).unwrap();
        // Force the post-sync value into memory: rollback must still win.
        node.rflush(reg.cell()).unwrap();
        f.crash(MEM);
        f.recover(MEM);
        b.recover(&node).unwrap();
        assert_eq!(reg.read(&node).unwrap(), 1);
    }

    #[test]
    fn synced_writes_survive() {
        let (f, heap, b) = setup(0);
        let reg = DurableRegister::create(&heap, Arc::clone(&b) as Arc<dyn Persistence>).unwrap();
        let node = f.node(M0);
        reg.write(&node, 7).unwrap();
        assert_eq!(b.sync(&node).unwrap(), 1);
        f.crash(MEM);
        f.recover(MEM);
        assert_eq!(b.recover(&node).unwrap(), 1);
        assert_eq!(reg.read(&node).unwrap(), 7);
    }

    #[test]
    fn no_sync_rolls_back_to_initial_state() {
        let (f, heap, b) = setup(0);
        let reg = DurableRegister::create(&heap, Arc::clone(&b) as Arc<dyn Persistence>).unwrap();
        let node = f.node(M0);
        reg.write(&node, 9).unwrap();
        f.crash(MEM);
        f.recover(MEM);
        assert_eq!(b.recover(&node).unwrap(), 0);
        assert_eq!(reg.read(&node).unwrap(), 0);
    }

    #[test]
    fn cells_first_written_after_sync_roll_back_to_zero() {
        let (f, heap, b) = setup(0);
        let r1 = DurableRegister::create(&heap, Arc::clone(&b) as Arc<dyn Persistence>).unwrap();
        let node = f.node(M0);
        r1.write(&node, 1).unwrap();
        b.sync(&node).unwrap();
        let r2 = DurableRegister::create(&heap, Arc::clone(&b) as Arc<dyn Persistence>).unwrap();
        r2.write(&node, 5).unwrap();
        f.crash(MEM);
        f.recover(MEM);
        b.recover(&node).unwrap();
        assert_eq!(r1.read(&node).unwrap(), 1);
        assert_eq!(r2.read(&node).unwrap(), 0); // was 0 at sync time
    }

    #[test]
    fn multiple_syncs_accumulate_in_the_log() {
        let (f, heap, b) = setup(0);
        let r1 = DurableRegister::create(&heap, Arc::clone(&b) as Arc<dyn Persistence>).unwrap();
        let r2 = DurableRegister::create(&heap, Arc::clone(&b) as Arc<dyn Persistence>).unwrap();
        let node = f.node(M0);
        r1.write(&node, 1).unwrap();
        b.sync(&node).unwrap();
        r2.write(&node, 2).unwrap();
        b.sync(&node).unwrap();
        r1.write(&node, 3).unwrap();
        b.sync(&node).unwrap();
        f.crash(MEM);
        f.recover(MEM);
        assert_eq!(b.recover(&node).unwrap(), 3);
        // Replay order: later log entries win.
        assert_eq!(r1.read(&node).unwrap(), 3);
        assert_eq!(r2.read(&node).unwrap(), 2);
    }

    #[test]
    fn log_compaction_preserves_state() {
        // Tiny capacity forces compaction quickly: capacity 4 → log of 8
        // cells → at most 4 redo entries between compactions.
        let f = SimFabric::new(SystemConfig::symmetric_nvm(2, 256));
        let heap = Arc::new(SharedHeap::new(f.config(), MEM));
        let b = Arc::new(BufferedEpoch::create(&heap, 4, 0).unwrap());
        let regs: Vec<_> = (0..3)
            .map(|_| {
                DurableRegister::create(&heap, Arc::clone(&b) as Arc<dyn Persistence>).unwrap()
            })
            .collect();
        let node = f.node(M0);
        for round in 1..=5u64 {
            for (i, r) in regs.iter().enumerate() {
                r.write(&node, round * 10 + i as u64).unwrap();
            }
            b.sync(&node).unwrap();
        }
        f.crash(MEM);
        f.recover(MEM);
        assert_eq!(b.recover(&node).unwrap(), 5);
        for (i, r) in regs.iter().enumerate() {
            assert_eq!(r.read(&node).unwrap(), 50 + i as u64);
        }
    }

    #[test]
    fn interval_triggers_automatic_syncs() {
        let (f, heap, b) = setup(4);
        let reg = DurableRegister::create(&heap, Arc::clone(&b) as Arc<dyn Persistence>).unwrap();
        let node = f.node(M0);
        for v in 1..=8u64 {
            reg.write(&node, v).unwrap(); // each write is one completed op
        }
        assert_eq!(b.epoch(), 2);
        f.crash(MEM);
        f.recover(MEM);
        b.recover(&node).unwrap();
        // The second auto-sync happened at op 8, so value 8 survived.
        assert_eq!(reg.read(&node).unwrap(), 8);
    }

    #[test]
    fn fast_path_issues_no_flushes_sync_batches() {
        let (f, heap, b) = setup(0);
        let reg = DurableRegister::create(&heap, Arc::clone(&b) as Arc<dyn Persistence>).unwrap();
        let node = f.node(M0);
        for v in 1..=50u64 {
            reg.write(&node, v).unwrap();
        }
        let s = f.stats().snapshot();
        assert_eq!(s.flushes(), 0);
        assert_eq!(s.mstores, 0);
        assert_eq!(s.aflushes, 0);
        // One sync: 50 deduplicated writes to one cell = one redo entry
        // (2 log cells), one barrier, one commit MStore.
        b.sync(&node).unwrap();
        let s2 = f.stats().snapshot();
        assert_eq!(s2.aflushes, 2);
        assert_eq!(s2.barriers, 1);
        assert_eq!(s2.mstores, 1);
    }

    #[test]
    fn queue_recovers_to_sync_point() {
        let (f, heap, b) = setup(0);
        // The epoch machinery bumped ~1k cells off the front of the
        // region; give the allocator the untouched upper half.
        let alloc = Arc::new(crate::alloc::Allocator::with_range(
            f.config(),
            heap.region(),
            2048,
            2048,
            Arc::clone(&b) as Arc<dyn Persistence>,
        ));
        let node = f.node(M0);
        let queue = DurableQueue::create(&alloc, &node).unwrap().unwrap();
        queue.enqueue(&node, 1).unwrap();
        queue.enqueue(&node, 2).unwrap();
        b.sync(&node).unwrap();
        queue.enqueue(&node, 3).unwrap(); // will be rolled back
        f.crash(MEM);
        f.recover(MEM);
        b.recover(&node).unwrap();
        queue.recover(&node).unwrap();
        assert_eq!(queue.dequeue(&node).unwrap(), Some(1));
        assert_eq!(queue.dequeue(&node).unwrap(), Some(2));
        assert_eq!(queue.dequeue(&node).unwrap(), None);
    }

    #[test]
    fn counter_faa_tracked_and_rolled_back() {
        let (f, heap, b) = setup(0);
        let counter =
            DurableCounter::create(&heap, Arc::clone(&b) as Arc<dyn Persistence>).unwrap();
        let node = f.node(M0);
        counter.add(&node, 5).unwrap();
        b.sync(&node).unwrap();
        counter.add(&node, 5).unwrap();
        f.crash(MEM);
        f.recover(MEM);
        b.recover(&node).unwrap();
        assert_eq!(counter.get(&node).unwrap(), 5);
    }

    #[test]
    fn dirty_and_tracked_counters() {
        let (f, heap, b) = setup(0);
        let reg = DurableRegister::create(&heap, Arc::clone(&b) as Arc<dyn Persistence>).unwrap();
        let node = f.node(M0);
        assert_eq!(b.dirty_len(), 0);
        reg.write(&node, 1).unwrap();
        assert_eq!(b.dirty_len(), 1);
        assert_eq!(b.tracked_len(), 1);
        b.sync(&node).unwrap();
        assert_eq!(b.dirty_len(), 0);
        assert_eq!(b.tracked_len(), 1); // tracking persists across syncs
    }

    #[test]
    fn sync_failure_keeps_previous_commit() {
        let (f, heap, b) = setup(0);
        let reg = DurableRegister::create(&heap, Arc::clone(&b) as Arc<dyn Persistence>).unwrap();
        let node = f.node(M0);
        reg.write(&node, 1).unwrap();
        b.sync(&node).unwrap();
        reg.write(&node, 2).unwrap();
        // The *issuer* crashes: sync cannot run.
        f.crash(M0);
        assert!(b.sync(&node).is_err());
        f.recover(M0);
        // Memory node state is unaffected; rollback target is epoch 1.
        f.crash(MEM);
        f.recover(MEM);
        b.recover(&node).unwrap();
        assert_eq!(reg.read(&node).unwrap(), 1);
        assert_eq!(b.epoch(), 1);
    }

    #[test]
    fn empty_sync_still_advances_the_epoch() {
        let (f, _heap, b) = setup(0);
        let node = f.node(M0);
        assert_eq!(b.sync(&node).unwrap(), 1);
        assert_eq!(b.sync(&node).unwrap(), 2);
    }

    #[test]
    fn commit_encoding_round_trips() {
        for (e, l, r) in [(0u64, 0u64, 0u64), (1, 6, 1), (901, 4096, 0)] {
            let raw = BufferedEpoch::encode_commit(e, l, r);
            assert_eq!(BufferedEpoch::decode_commit(raw), (e, l, r));
        }
    }

    #[test]
    #[should_panic(expected = "capacity exhausted")]
    fn capacity_overflow_panics() {
        let f = SimFabric::new(SystemConfig::symmetric_nvm(2, 64));
        let heap = Arc::new(SharedHeap::new(f.config(), MEM));
        let b = BufferedEpoch::create(&heap, 2, 0).unwrap();
        let node = f.node(M0);
        for _ in 0..3 {
            let loc = heap.alloc(1).unwrap();
            b.shared_store(&node, loc, 1, true).unwrap();
        }
    }

    #[test]
    #[should_panic(expected = "own region")]
    fn foreign_region_cell_rejected() {
        let f = SimFabric::new(SystemConfig::symmetric_nvm(2, 64));
        let heap = Arc::new(SharedHeap::new(f.config(), MEM));
        let b = BufferedEpoch::create(&heap, 2, 0).unwrap();
        let node = f.node(M0);
        b.shared_store(&node, Loc::new(M0, 0), 1, true).unwrap();
    }
}
