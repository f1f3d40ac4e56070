//! A durable fixed-capacity hash map with open addressing **and
//! epoch-protected table recycling**.
//!
//! Slot layout: `[key, value]` pairs in a power-of-two table. Keys are
//! claimed once with CAS (`0` = empty; keys are never unclaimed in
//! place), and each value cell then behaves as a per-key durable
//! register with `0` meaning *absent* — so `insert`, `get` and `remove`
//! all linearize on a single cell access and inherit durable
//! linearizability directly from the FliT-wrapped register operations.
//!
//! ## Header indirection and recycling
//!
//! The durable root of a map is a one-cell **header** holding a
//! generation-tagged pointer to the current table. Operations pin the
//! cluster's epoch-based reclamation domain ([`crate::smr`]), load the
//! header, and work on whatever table it names. That indirection is
//! what makes [`DurableMap::recycle`] possible: compaction copies the
//! live entries into a fresh table, durably swings the header, and
//! *retires* the old table through the domain — it drains back to the
//! allocator only after every operation pinned at retirement time has
//! finished. Before SMR the table pointer was baked into each handle
//! and safety rested on zeroing recycled blocks at creation; zeroing is
//! now merely table initialization (fresh tables must read empty), not
//! a cross-structure safety mechanism.
//!
//! Mutators (`insert`/`remove`) take a **volatile** shared lock that
//! [`DurableMap::recycle`] takes exclusively, so a copy observes a
//! frozen table; lookups ([`DurableMap::get`]) stay lock-free and rely
//! on the epoch pin alone. The lock is per-handle-lineage: handles
//! [`Clone`]d from one [`DurableMap::create`]/[`DurableMap::attach`]
//! share it, but two *independently attached* handles do not — don't
//! run `recycle` from one lineage concurrently with mutators from
//! another (lookups are always safe). The lock being volatile is fine
//! for crashes: a crash mid-recycle leaves either the old header (old
//! table intact, new block swept back by allocator recovery) or the new
//! one (copy complete and durable before the swing).
//!
//! Restrictions (documented API contract): keys and values must be
//! non-zero; capacity is fixed at creation (minimum 2 slots) and
//! preserved across recycles; removals do not free slots in place (the
//! key stays claimed until the next [`DurableMap::recycle`] compacts
//! dead keys away).

use std::marker::PhantomData;
use std::sync::Arc;

use cxl0_model::Loc;
use parking_lot::RwLock;

use crate::alloc::{Allocator, BlockRef, MAX_CLASS_CELLS};
use crate::api::Word;
use crate::backend::NodeHandle;
use crate::error::OpResult;
use crate::flit::Persistence;
use crate::smr::SmrDomain;

/// Key sentinel for an unclaimed slot.
const EMPTY_KEY: u64 = 0;
/// Value sentinel for "no binding".
const ABSENT: u64 = 0;

/// A durable lock-free hash map over [`Word`] keys and values (default
/// `u64`). Keys and values must *encode* to non-zero words (the
/// sentinels).
///
/// # Examples
///
/// ```
/// use cxl0_runtime::api::Cluster;
/// use cxl0_model::MachineId;
///
/// let cluster = Cluster::symmetric(2, 4096)?;
/// let session = cluster.session(MachineId(0));
/// let map = session.create_map::<u64, u64>("index", 64)?;
/// assert_eq!(map.insert(&session, 5, 50)?, Some(None));
/// assert_eq!(map.get(&session, 5)?, Some(50));
/// assert_eq!(map.remove(&session, 5)?, Some(50));
/// assert_eq!(map.get(&session, 5)?, None);
/// # Ok::<(), cxl0_runtime::api::ApiError>(())
/// ```
#[derive(Debug, Clone)]
pub struct DurableMap<K: Word = u64, V: Word = u64> {
    /// One durable cell holding the encoded pointer to the current table.
    header: Loc,
    capacity: u32,
    smr: Arc<SmrDomain>,
    alloc: Arc<Allocator>,
    persist: Arc<dyn Persistence>,
    /// Volatile mutator/recycler coordination (see the module docs).
    sync: Arc<RwLock<()>>,
    _entries: PhantomData<(K, V)>,
}

impl<K: Word, V: Word> DurableMap<K, V> {
    /// Allocates a map with `capacity` slots (rounded up to a power of
    /// two, minimum 2) through `smr`'s allocator — one header cell plus
    /// the table — and publishes the table in the header; `Ok(None)` if
    /// the heap is exhausted.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    ///
    /// # Errors
    ///
    /// Fails if the issuing machine has crashed.
    pub fn create(
        smr: &Arc<SmrDomain>,
        node: &NodeHandle,
        capacity: u32,
    ) -> OpResult<Option<Self>> {
        assert!(capacity > 0, "capacity must be positive");
        let alloc = Arc::clone(smr.allocator());
        let persist = Arc::clone(alloc.persistence());
        let capacity = capacity.next_power_of_two().max(2);
        let Some(header) = alloc.alloc(node, 1)? else {
            return Ok(None);
        };
        let Some(table) = Self::fresh_table(&alloc, &persist, node, capacity)? else {
            let _ = alloc.free(node, header.loc)?;
            return Ok(None);
        };
        persist.private_store(node, header.loc, Allocator::encode(table), true)?;
        Ok(Some(DurableMap {
            header: header.loc,
            capacity,
            smr: Arc::clone(smr),
            alloc,
            persist,
            sync: Arc::new(RwLock::new(())),
            _entries: PhantomData,
        }))
    }

    /// Attaches to an existing map after recovery. The durability
    /// strategy is the domain's allocator's. `capacity` must match the
    /// creation capacity (it is preserved across recycles).
    pub fn attach(header: Loc, capacity: u32, smr: Arc<SmrDomain>) -> Self {
        DurableMap {
            header,
            capacity: capacity.next_power_of_two().max(2),
            alloc: Arc::clone(smr.allocator()),
            persist: Arc::clone(smr.persistence()),
            smr,
            sync: Arc::new(RwLock::new(())),
            _entries: PhantomData,
        }
    }

    /// The header cell and capacity (for re-attachment).
    pub fn layout(&self) -> (Loc, u32) {
        (self.header, self.capacity)
    }

    /// Allocates and zero-initializes a table block. Zeroing is table
    /// *initialization* (both sentinels are zero and recycled blocks
    /// retain their previous contents); it is not what makes reuse
    /// safe — the epoch protocol is.
    fn fresh_table(
        alloc: &Allocator,
        persist: &Arc<dyn Persistence>,
        node: &NodeHandle,
        capacity: u32,
    ) -> OpResult<Option<BlockRef>> {
        let Some(block) = alloc.alloc(node, capacity * 2)? else {
            return Ok(None);
        };
        if block.recycled {
            for cell in 0..capacity * 2 {
                persist.private_store(
                    node,
                    Loc::new(block.loc.owner, block.loc.addr.0 + cell),
                    0,
                    true,
                )?;
            }
        }
        Ok(Some(block))
    }

    /// Payload cells of the table: a key and a value per slot.
    fn table_cells(&self) -> u32 {
        self.capacity * 2
    }

    /// Loads the current table's base from the header. Callers must be
    /// pinned (the returned pointer is only protected while the epoch
    /// pin that observed it is held).
    fn table(&self, node: &NodeHandle) -> OpResult<Loc> {
        let enc = self.persist.shared_load(node, self.header, true)?;
        Ok(self
            .alloc
            .decode(enc)
            .expect("map header always names a table"))
    }

    fn key_cell(&self, base: Loc, slot: u32) -> Loc {
        Loc::new(base.owner, base.addr.0 + slot * 2)
    }

    fn value_cell(&self, base: Loc, slot: u32) -> Loc {
        Loc::new(base.owner, base.addr.0 + slot * 2 + 1)
    }

    fn hash(&self, key: u64) -> u32 {
        (key.wrapping_mul(0x9E3779B97F4A7C15) >> 33) as u32 & (self.capacity - 1)
    }

    /// Finds the slot for `key` in the table at `base`, claiming one if
    /// `claim` and the key is not yet present. Returns `None` (inside
    /// the crash result) if the table is full or the key is absent and
    /// `claim` is false.
    fn find_slot(
        &self,
        node: &NodeHandle,
        base: Loc,
        key: u64,
        claim: bool,
    ) -> OpResult<Option<u32>> {
        let start = self.hash(key);
        for probe in 0..self.capacity {
            let slot = (start + probe) & (self.capacity - 1);
            let k = self
                .persist
                .shared_load(node, self.key_cell(base, slot), true)?;
            if k == key {
                return Ok(Some(slot));
            }
            if k == EMPTY_KEY {
                if !claim {
                    return Ok(None);
                }
                match self.persist.shared_cas(
                    node,
                    self.key_cell(base, slot),
                    EMPTY_KEY,
                    key,
                    true,
                )? {
                    Ok(_) => return Ok(Some(slot)),
                    Err(actual) if actual == key => return Ok(Some(slot)),
                    Err(_) => continue, // someone claimed it for another key
                }
            }
        }
        Ok(None)
    }

    /// Inserts or updates `key → value`. Returns `Some(previous)` on
    /// success (where `previous` is the prior binding, if any), or `None`
    /// if the table is full (consider [`DurableMap::recycle`] to compact
    /// dead keys, then retry).
    ///
    /// # Panics
    ///
    /// Panics if `key` or `value` is zero (the sentinels).
    ///
    /// # Errors
    ///
    /// Fails if the issuing machine has crashed.
    pub fn insert(&self, node: &NodeHandle, key: K, value: V) -> OpResult<Option<Option<V>>> {
        let _span = node.trace_span(crate::trace::OpKind::Insert);
        let key = key.to_word();
        let value = value.to_word();
        assert_ne!(key, EMPTY_KEY, "key 0 is reserved");
        assert_ne!(value, ABSENT, "value 0 is reserved");
        let _mutating = self.sync.read();
        let _guard = self.smr.pin();
        let base = self.table(node)?;
        let Some(slot) = self.find_slot(node, base, key, true)? else {
            self.persist.complete_op(node)?;
            return Ok(None);
        };
        // Swap the value cell atomically to learn the previous binding.
        loop {
            let old = self
                .persist
                .shared_load(node, self.value_cell(base, slot), true)?;
            if self
                .persist
                .shared_cas(node, self.value_cell(base, slot), old, value, true)?
                .is_ok()
            {
                self.persist.complete_op(node)?;
                return Ok(Some(if old == ABSENT {
                    None
                } else {
                    Some(V::from_word(old))
                }));
            }
        }
    }

    /// Looks up `key`. Lock-free: concurrent [`DurableMap::recycle`]
    /// cannot invalidate the table under this operation because the
    /// epoch pin keeps a retired table out of reuse until the lookup
    /// finishes.
    ///
    /// # Errors
    ///
    /// Fails if the issuing machine has crashed.
    pub fn get(&self, node: &NodeHandle, key: K) -> OpResult<Option<V>> {
        let _span = node.trace_span(crate::trace::OpKind::Get);
        let key = key.to_word();
        let _guard = self.smr.pin();
        let base = self.table(node)?;
        let Some(slot) = self.find_slot(node, base, key, false)? else {
            self.persist.complete_op(node)?;
            return Ok(None);
        };
        let v = self
            .persist
            .shared_load(node, self.value_cell(base, slot), true)?;
        self.persist.complete_op(node)?;
        Ok(if v == ABSENT {
            None
        } else {
            Some(V::from_word(v))
        })
    }

    /// Removes `key`, returning the removed binding. The slot's key
    /// stays claimed (for cheap re-inserts) until a
    /// [`DurableMap::recycle`] compacts it away.
    ///
    /// # Errors
    ///
    /// Fails if the issuing machine has crashed.
    pub fn remove(&self, node: &NodeHandle, key: K) -> OpResult<Option<V>> {
        let _span = node.trace_span(crate::trace::OpKind::Remove);
        let key = key.to_word();
        let _mutating = self.sync.read();
        let _guard = self.smr.pin();
        let base = self.table(node)?;
        let Some(slot) = self.find_slot(node, base, key, false)? else {
            self.persist.complete_op(node)?;
            return Ok(None);
        };
        loop {
            let old = self
                .persist
                .shared_load(node, self.value_cell(base, slot), true)?;
            if old == ABSENT {
                self.persist.complete_op(node)?;
                return Ok(None);
            }
            if self
                .persist
                .shared_cas(node, self.value_cell(base, slot), old, ABSENT, true)?
                .is_ok()
            {
                self.persist.complete_op(node)?;
                return Ok(Some(V::from_word(old)));
            }
        }
    }

    /// Compacts the map into a fresh table — live entries are copied,
    /// dead keys (claimed but absent) are dropped — durably swings the
    /// header, and retires the old table through the reclamation
    /// domain. Returns the number of live entries carried over.
    ///
    /// Excludes mutators for the duration (lookups keep running
    /// lock-free against whichever table they pinned). A crash at any
    /// point leaves a consistent map: the copy is persisted before the
    /// header swing, the swing itself is a single durable CAS, and the
    /// not-yet-retired loser block is swept back to the free lists by
    /// allocator/SMR recovery.
    ///
    /// # Panics
    ///
    /// Panics if the map's table is oversize — more than
    /// [`MAX_CLASS_CELLS`]` / 2` slots: such a table is exact-fit and
    /// never reclaimable, so every recycle would leak one — or if the
    /// heap cannot supply a fresh table while reclamation makes no
    /// progress: limbo is empty, or the epoch is stuck behind a held pin
    /// (two live tables of this map's class must fit).
    ///
    /// # Errors
    ///
    /// Fails if the issuing machine has crashed.
    pub fn recycle(&self, node: &NodeHandle) -> OpResult<u32> {
        assert!(
            self.table_cells() <= MAX_CLASS_CELLS,
            "an oversize table ({} slots) cannot be recycled",
            self.capacity
        );
        let _exclusive = self.sync.write();
        // Not pinned yet: the table cannot be retired from under us
        // (only recycle/destroy retire tables and we hold the write
        // lock), and staying unpinned lets the collect below ripen a
        // full grace period if the heap is transiently exhausted.
        let old_enc = self.persist.shared_load(node, self.header, true)?;
        let old_base = self
            .alloc
            .decode(old_enc)
            .expect("map header always names a table");
        let mut stalls = crate::smr::Stalls::new(&self.smr);
        let fresh = loop {
            if let Some(b) = Self::fresh_table(&self.alloc, &self.persist, node, self.capacity)? {
                break b;
            }
            let freed = self.smr.collect(node)?;
            stalls.after_collect(&self.smr, freed, "map");
        };
        // Copy live entries; the write lock freezes the old table.
        let mut live = 0u32;
        for slot in 0..self.capacity {
            let k = self
                .persist
                .shared_load(node, self.key_cell(old_base, slot), true)?;
            if k == EMPTY_KEY {
                continue;
            }
            let v = self
                .persist
                .shared_load(node, self.value_cell(old_base, slot), true)?;
            if v == ABSENT {
                continue; // dead key: dropped by compaction
            }
            let dst = self
                .rehash_into(node, fresh.loc, k)
                .expect("fresh table has room for every live entry");
            self.persist
                .private_store(node, self.key_cell(fresh.loc, dst), k, true)?;
            self.persist
                .private_store(node, self.value_cell(fresh.loc, dst), v, true)?;
            live += 1;
        }
        // Publish: one durable CAS. No competitor can have swung the
        // header (write lock), so failure would be a logic error.
        self.persist
            .shared_cas(node, self.header, old_enc, Allocator::encode(fresh), true)?
            .expect("recycle is exclusive");
        let guard = self.smr.pin();
        let gen = Allocator::ptr_gen(old_enc);
        guard.retire_incarnation(node, old_base, gen, self.table_cells())?;
        drop(guard);
        // Recycle is the heavyweight compaction path already; ripen the
        // grace period now (unpinned) so the retired table is promptly
        // reusable instead of waiting for amortized collection.
        self.smr.collect(node)?;
        self.persist.complete_op(node)?;
        Ok(live)
    }

    /// Probes the (private, not yet published) table at `base` for a
    /// free slot for `key`. `None` only if the table is full.
    fn rehash_into(&self, node: &NodeHandle, base: Loc, key: u64) -> Option<u32> {
        // The fresh table is private until the header swing, but reads
        // must still go through the persistence layer so buffered modes
        // observe their own writes; `expect` never fires because the
        // old table held at most `capacity` live keys.
        let start = self.hash(key);
        (0..self.capacity)
            .map(|probe| (start + probe) & (self.capacity - 1))
            .find(|&slot| {
                self.persist
                    .shared_load(node, self.key_cell(base, slot), true)
                    .map(|k| k == EMPTY_KEY)
                    .unwrap_or(false)
            })
    }

    /// Retires the table *and* the header, returning the map's memory
    /// to the allocator (after the grace period). An oversize table is
    /// never reclaimable, so only its header is returned. The handle —
    /// and any clone or independently attached handle — must not be
    /// used again; this is the caller's contract, not checked.
    ///
    /// # Errors
    ///
    /// Fails if the issuing machine has crashed.
    pub fn destroy(self, node: &NodeHandle) -> OpResult<()> {
        let _exclusive = self.sync.write();
        let base = {
            let _guard = self.smr.pin();
            self.table(node)?
        };
        let guard = self.smr.pin();
        guard.retire(node, base)?;
        guard.retire(node, self.header)?;
        drop(guard);
        self.persist.complete_op(node)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::SimFabric;
    use crate::flit::{Flit, FlitPolicy};
    use cxl0_model::{MachineId, SystemConfig};

    fn domain(f: &SimFabric, mem: MachineId) -> Arc<SmrDomain> {
        Arc::new(SmrDomain::new(Arc::new(Allocator::over_region(
            f.config(),
            mem,
            Arc::new(Flit::new(FlitPolicy::CXL0)),
        ))))
    }

    fn setup(cap: u32) -> (Arc<SimFabric>, DurableMap) {
        let f = SimFabric::new(SystemConfig::symmetric_nvm(3, 4096));
        let smr = domain(&f, MachineId(2));
        let m = DurableMap::create(&smr, &f.node(MachineId(0)), cap)
            .unwrap()
            .unwrap();
        (f, m)
    }

    #[test]
    fn recycled_blocks_never_leak_stale_contents() {
        let f = SimFabric::new(SystemConfig::symmetric_nvm(2, 4096));
        let smr = domain(&f, MachineId(1));
        let node = f.node(MachineId(0));
        // Dirty a block of the table's class, then free it so the map's
        // create reuses it for the table.
        let alloc = Arc::clone(smr.allocator());
        let b = alloc.alloc(&node, 8).unwrap().unwrap();
        for cell in 0..8 {
            node.lstore(Loc::new(b.loc.owner, b.loc.addr.0 + cell), 0xdead)
                .unwrap();
        }
        alloc.free(&node, b.loc).unwrap().unwrap();
        let m: DurableMap = DurableMap::create(&smr, &node, 4).unwrap().unwrap();
        assert_eq!(
            m.table(&node).unwrap(),
            b.loc,
            "recycled block backs the table"
        );
        for k in 1..=8u64 {
            assert_eq!(m.get(&node, k).unwrap(), None, "stale contents visible");
        }
    }

    #[test]
    fn insert_get_remove_round_trip() {
        let (f, m) = setup(16);
        let node = f.node(MachineId(0));
        assert_eq!(m.insert(&node, 1, 10).unwrap(), Some(None));
        assert_eq!(m.insert(&node, 1, 20).unwrap(), Some(Some(10)));
        assert_eq!(m.get(&node, 1).unwrap(), Some(20));
        assert_eq!(m.remove(&node, 1).unwrap(), Some(20));
        assert_eq!(m.get(&node, 1).unwrap(), None);
        assert_eq!(m.remove(&node, 1).unwrap(), None);
    }

    #[test]
    fn collisions_probe_linearly() {
        let (f, m) = setup(4);
        let node = f.node(MachineId(0));
        // Insert more keys than distinct hash buckets to force probing.
        for k in 1..=4u64 {
            assert!(m.insert(&node, k, k * 10).unwrap().is_some());
        }
        for k in 1..=4u64 {
            assert_eq!(m.get(&node, k).unwrap(), Some(k * 10));
        }
    }

    #[test]
    fn full_table_reports_none() {
        let (f, m) = setup(2); // rounds to capacity 2
        let node = f.node(MachineId(0));
        assert!(m.insert(&node, 1, 1).unwrap().is_some());
        assert!(m.insert(&node, 2, 2).unwrap().is_some());
        assert_eq!(m.insert(&node, 3, 3).unwrap(), None);
    }

    #[test]
    fn a_refused_insert_completes_its_operation() {
        // Under FlitAsync a flagged load of a cell whose FliT counter is
        // raised enqueues a helping AFlush that only the operation's
        // completion (Alg. 2 line 55) retires.
        let f = SimFabric::new(SystemConfig::symmetric_nvm(3, 4096));
        let flit = Arc::new(Flit::new(FlitPolicy::ASYNC));
        let smr = Arc::new(SmrDomain::new(Arc::new(Allocator::over_region(
            f.config(),
            MachineId(2),
            flit.clone(),
        ))));
        let node = f.node(MachineId(0));
        let m: DurableMap = DurableMap::create(&smr, &node, 2).unwrap().unwrap();
        assert!(m.insert(&node, 1, 1).unwrap().is_some());
        assert!(m.insert(&node, 2, 2).unwrap().is_some());
        let base = m.table(&node).unwrap();
        for slot in 0..2 {
            flit.table().enter(m.key_cell(base, slot));
        }
        assert_eq!(m.insert(&node, 3, 3).unwrap(), None, "the table is full");
        assert_eq!(f.pending_flushes(MachineId(0)), 0, "helps left unretired");
    }

    #[test]
    fn recycle_compacts_dead_keys_and_preserves_live_ones() {
        let (f, m) = setup(4);
        let node = f.node(MachineId(0));
        // Fill the table, then kill half the keys: re-inserting fresh
        // keys fails (slots stay claimed) until a recycle compacts.
        for k in 1..=4u64 {
            assert!(m.insert(&node, k, k * 10).unwrap().is_some());
        }
        m.remove(&node, 1).unwrap();
        m.remove(&node, 3).unwrap();
        assert_eq!(m.insert(&node, 9, 90).unwrap(), None, "table full");
        assert_eq!(m.recycle(&node).unwrap(), 2, "two live entries survive");
        assert_eq!(m.get(&node, 2).unwrap(), Some(20));
        assert_eq!(m.get(&node, 4).unwrap(), Some(40));
        assert_eq!(m.get(&node, 1).unwrap(), None);
        assert!(m.insert(&node, 9, 90).unwrap().is_some(), "room again");
        assert_eq!(m.get(&node, 9).unwrap(), Some(90));
    }

    #[test]
    fn recycle_churn_reuses_tables_in_bounded_memory() {
        let f = SimFabric::new(SystemConfig::symmetric_nvm(2, 512));
        let smr = domain(&f, MachineId(1));
        let node = f.node(MachineId(0));
        let m: DurableMap = DurableMap::create(&smr, &node, 4).unwrap().unwrap();
        // Each round claims all 4 slots with fresh keys, kills them,
        // and recycles — far more tables than the 512-cell region could
        // hold without reuse.
        for round in 0..50u64 {
            for i in 0..4u64 {
                let k = round * 4 + i + 1;
                assert!(m.insert(&node, k, k).unwrap().is_some(), "round {round}");
                m.remove(&node, k).unwrap();
            }
            assert_eq!(m.recycle(&node).unwrap(), 0, "round {round}");
        }
        let stats = smr.allocator().stats();
        assert!(stats.freelist_hits > 40, "hits {}", stats.freelist_hits);
    }

    #[test]
    fn destroy_returns_all_memory() {
        let f = SimFabric::new(SystemConfig::symmetric_nvm(2, 4096));
        let smr = domain(&f, MachineId(1));
        let node = f.node(MachineId(0));
        let alloc = Arc::clone(smr.allocator());
        let before = alloc.stats();
        let m: DurableMap = DurableMap::create(&smr, &node, 8).unwrap().unwrap();
        m.insert(&node, 1, 1).unwrap();
        m.destroy(&node).unwrap();
        let swept = smr.collect(&node).unwrap();
        assert_eq!(swept, 2, "table and header both reclaimed");
        let after = alloc.stats();
        assert_eq!(
            after.allocs - before.allocs,
            after.frees - before.frees,
            "no net allocation survives destroy"
        );
    }

    /// A map of `MAX_CLASS_CELLS / 2 + 1` slots: its table is oversize.
    fn oversize() -> (Arc<SimFabric>, Arc<SmrDomain>, DurableMap) {
        let f = SimFabric::new(SystemConfig::symmetric_nvm(2, 5 * MAX_CLASS_CELLS / 2));
        let smr = domain(&f, MachineId(1));
        let m = DurableMap::create(&smr, &f.node(MachineId(0)), MAX_CLASS_CELLS / 2 + 1)
            .unwrap()
            .unwrap();
        (f, smr, m)
    }

    #[test]
    #[should_panic(expected = "cannot be recycled")]
    fn an_oversize_map_refuses_to_recycle() {
        let (f, _, m) = oversize();
        m.recycle(&f.node(MachineId(0))).unwrap();
    }

    #[test]
    fn destroying_an_oversize_map_returns_only_its_header() {
        let (f, smr, m) = oversize();
        let node = f.node(MachineId(0));
        m.insert(&node, 1, 1).unwrap();
        m.destroy(&node).unwrap();
        assert_eq!(smr.stats().retires, 1, "the table never reaches limbo");
        assert_eq!(smr.collect(&node).unwrap(), 1);
        assert_eq!(smr.limbo_len(), 0);
    }

    #[test]
    fn lookups_run_concurrently_with_recycles() {
        let (f, m) = setup(16);
        let node0 = f.node(MachineId(0));
        for k in 1..=8u64 {
            m.insert(&node0, k, k * 10).unwrap();
        }
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let mut handles = Vec::new();
        for t in 0..3usize {
            let m = m.clone();
            let node = f.node(MachineId(t % 2));
            let stop = Arc::clone(&stop);
            handles.push(std::thread::spawn(move || {
                let mut reads = 0u64;
                // Check the flag only after a full sweep so every reader
                // performs at least one, even if the recycler finishes
                // before this thread gets scheduled.
                loop {
                    for k in 1..=8u64 {
                        assert_eq!(m.get(&node, k).unwrap(), Some(k * 10));
                        reads += 1;
                    }
                    if stop.load(std::sync::atomic::Ordering::Relaxed) {
                        break;
                    }
                }
                reads
            }));
        }
        for _ in 0..30 {
            assert_eq!(m.recycle(&node0).unwrap(), 8);
        }
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        for h in handles {
            assert!(h.join().unwrap() > 0);
        }
        for k in 1..=8u64 {
            assert_eq!(m.get(&node0, k).unwrap(), Some(k * 10));
        }
    }

    #[test]
    fn contents_survive_crash() {
        let (f, m) = setup(16);
        let node = f.node(MachineId(0));
        for k in 1..=8u64 {
            m.insert(&node, k, 100 + k).unwrap();
        }
        m.remove(&node, 3).unwrap();
        f.crash(MachineId(2));
        f.recover(MachineId(2));
        for k in 1..=8u64 {
            let expect = if k == 3 { None } else { Some(100 + k) };
            assert_eq!(m.get(&node, k).unwrap(), expect, "key {k}");
        }
    }

    #[test]
    fn contents_survive_crash_after_recycle() {
        let (f, m) = setup(8);
        let node = f.node(MachineId(0));
        for k in 1..=6u64 {
            m.insert(&node, k, 100 + k).unwrap();
        }
        m.remove(&node, 2).unwrap();
        m.remove(&node, 5).unwrap();
        assert_eq!(m.recycle(&node).unwrap(), 4);
        f.crash(MachineId(2));
        f.recover(MachineId(2));
        for k in 1..=6u64 {
            let expect = if k == 2 || k == 5 {
                None
            } else {
                Some(100 + k)
            };
            assert_eq!(m.get(&node, k).unwrap(), expect, "key {k}");
        }
    }

    #[test]
    fn concurrent_inserts_distinct_keys() {
        let (f, m) = setup(256);
        let mut handles = Vec::new();
        for t in 0..4u64 {
            let m = m.clone();
            let node = f.node(MachineId((t % 2) as usize));
            handles.push(std::thread::spawn(move || {
                for i in 0..50 {
                    let k = t * 100 + i + 1;
                    m.insert(&node, k, k * 2).unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let node = f.node(MachineId(0));
        for t in 0..4u64 {
            for i in 0..50 {
                let k = t * 100 + i + 1;
                assert_eq!(m.get(&node, k).unwrap(), Some(k * 2));
            }
        }
    }

    #[test]
    #[should_panic(expected = "key 0 is reserved")]
    fn zero_key_rejected() {
        let (f, m) = setup(4);
        let node = f.node(MachineId(0));
        let _ = m.insert(&node, 0, 1);
    }
}
