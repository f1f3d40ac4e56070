//! A durable, multi-producer **shared log** over disaggregated memory —
//! the CXL-native application the paper's introduction motivates (cloud
//! data management over pooled memory), in the style of Corfu-family
//! shared logs.
//!
//! Appenders on any compute node reserve a slot with one `FAA` on the tail
//! counter, write the payload into the slot, and persist both through the
//! [`Persistence`] strategy; an append is durable before it returns (with
//! a FliT-family strategy). Slots hold `value + 1`, so `0` means "not yet
//! (durably) written".
//!
//! **Holes.** A producer that crashes between reserving a slot and
//! persisting it leaves a hole; later completed appends are *not* lost
//! (durable linearizability). [`DurableLog::recover`] seals such holes
//! with a junk marker, Corfu-style, so readers distinguish "never written"
//! from "crashed writer" and the durable prefix is well defined.

use std::marker::PhantomData;
use std::sync::Arc;

use cxl0_model::Loc;

use crate::api::Word;
use crate::backend::NodeHandle;
use crate::error::OpResult;
use crate::flit::Persistence;
use crate::heap::SharedHeap;

/// What a log slot holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SlotState<T: Word = u64> {
    /// No (durable) write has reached the slot.
    Empty,
    /// A crashed writer's slot, sealed by recovery.
    Junk,
    /// A committed payload.
    Value(T),
}

const JUNK: u64 = u64::MAX;

/// An append-only durable shared log of [`Word`] payloads (default
/// `u64`) with `capacity` slots.
///
/// # Examples
///
/// ```
/// use cxl0_runtime::api::Cluster;
/// use cxl0_runtime::SlotState;
/// use cxl0_model::MachineId;
///
/// let cluster = Cluster::symmetric(2, 4096)?;
/// let session = cluster.session(MachineId(0));
/// let log = session.create_log::<u64>("events", 16)?;
///
/// let i = log.append(&session, 42)?.expect("log has room");
/// assert_eq!(log.read(&session, i)?, SlotState::Value(42));
///
/// // The append survives a crash of the memory node (FliT + NVM);
/// // reattach by name.
/// cluster.crash(cluster.memory_node());
/// cluster.recover(cluster.memory_node());
/// let log = session.open_log::<u64>("events")?;
/// log.recover(&session)?;
/// assert_eq!(log.read(&session, i)?, SlotState::Value(42));
/// # Ok::<(), cxl0_runtime::api::ApiError>(())
/// ```
#[derive(Debug, Clone)]
pub struct DurableLog<T: Word = u64> {
    /// Tail reservation counter; the `capacity` slot cells follow it
    /// contiguously.
    tail: Loc,
    /// First slot cell (`tail + 1`).
    slots: Loc,
    capacity: u32,
    persist: Arc<dyn Persistence>,
    _values: PhantomData<T>,
}

impl<T: Word> DurableLog<T> {
    /// Allocates a log with `capacity` slots from `heap`.
    ///
    /// Returns `None` if the heap cannot fit `capacity + 1` cells.
    pub fn create(heap: &SharedHeap, capacity: u32, persist: Arc<dyn Persistence>) -> Option<Self> {
        // One allocation keeps tail + slots contiguous even under
        // concurrent allocators, so the log reattaches from its tail cell
        // alone (see [`DurableLog::attach`]).
        let tail = heap.alloc(capacity.checked_add(1)?)?;
        Some(DurableLog {
            tail,
            slots: Loc::new(tail.owner, tail.addr.0 + 1),
            capacity,
            persist,
            _values: PhantomData,
        })
    }

    /// Attaches to an existing log after recovery: `tail` is the cell
    /// [`DurableLog::tail_cell`] reported at creation, `capacity` the
    /// original slot count.
    pub fn attach(tail: Loc, capacity: u32, persist: Arc<dyn Persistence>) -> Self {
        DurableLog {
            tail,
            slots: Loc::new(tail.owner, tail.addr.0 + 1),
            capacity,
            persist,
            _values: PhantomData,
        }
    }

    /// Maximum number of entries.
    pub fn capacity(&self) -> u32 {
        self.capacity
    }

    /// The tail-reservation cell (exposed for fault-injection harnesses
    /// that simulate a producer crashing mid-append).
    pub fn tail_cell(&self) -> Loc {
        self.tail
    }

    /// Slot `i`'s backing cell (exposed for fault-injection harnesses).
    pub fn slot_cell(&self, i: u64) -> Loc {
        self.slot(i)
    }

    fn slot(&self, i: u64) -> Loc {
        Loc::new(self.slots.owner, self.slots.addr.0 + i as u32)
    }

    /// Appends `value`, returning its log index. Durable before returning
    /// (under a strict strategy).
    ///
    /// Returns `Ok(None)` when the log is full.
    ///
    /// # Panics
    ///
    /// Panics if the payload encodes to `u64::MAX - 1` or above (reserved
    /// for the junk marker) — encode payloads below that.
    ///
    /// # Errors
    ///
    /// Fails if the issuing machine has crashed; the reserved slot, if
    /// any, becomes a hole that [`DurableLog::recover`] seals.
    pub fn append(&self, node: &NodeHandle, value: T) -> OpResult<Option<u64>> {
        let value = value.to_word();
        assert!(
            value < u64::MAX - 1,
            "encoded payload collides with the junk marker"
        );
        // Reserve: the FAA is flagged persistent so the reservation frontier
        // itself is durable (readers after a crash see how far reservations
        // went, bounding the hole-sealing scan).
        let idx = self.persist.shared_faa(node, self.tail, 1, true)?;
        if idx >= u64::from(self.capacity) {
            self.persist.complete_op(node)?;
            return Ok(None);
        }
        self.persist
            .shared_store(node, self.slot(idx), value + 1, true)?;
        self.persist.complete_op(node)?;
        Ok(Some(idx))
    }

    /// Reads slot `i`.
    ///
    /// # Errors
    ///
    /// Fails if the issuing machine has crashed.
    pub fn read(&self, node: &NodeHandle, i: u64) -> OpResult<SlotState<T>> {
        let raw = self.persist.shared_load(node, self.slot(i), true)?;
        self.persist.complete_op(node)?;
        Ok(match raw {
            0 => SlotState::Empty,
            JUNK => SlotState::Junk,
            v => SlotState::Value(T::from_word(v - 1)),
        })
    }

    /// The reservation frontier: indices below this were handed to some
    /// appender (not all of them necessarily committed).
    ///
    /// # Errors
    ///
    /// Fails if the issuing machine has crashed.
    pub fn frontier(&self, node: &NodeHandle) -> OpResult<u64> {
        let t = self.persist.shared_load(node, self.tail, true)?;
        self.persist.complete_op(node)?;
        Ok(t.min(u64::from(self.capacity)))
    }

    /// Post-crash recovery: seals every hole below the reservation
    /// frontier with the junk marker (Corfu-style), so the log is again
    /// contiguous up to the frontier. Returns `(committed, sealed)`
    /// counts.
    ///
    /// # Errors
    ///
    /// Fails if the issuing machine has crashed.
    pub fn recover(&self, node: &NodeHandle) -> OpResult<(u64, u64)> {
        let frontier = self.frontier(node)?;
        let mut committed = 0;
        let mut sealed = 0;
        for i in 0..frontier {
            let raw = self.persist.shared_load(node, self.slot(i), true)?;
            if raw == 0 {
                self.persist.shared_store(node, self.slot(i), JUNK, true)?;
                sealed += 1;
            } else if raw != JUNK {
                committed += 1;
            }
        }
        self.persist.complete_op(node)?;
        Ok((committed, sealed))
    }

    /// All committed values in index order, skipping junk, up to the
    /// first empty slot.
    ///
    /// # Errors
    ///
    /// Fails if the issuing machine has crashed.
    pub fn scan(&self, node: &NodeHandle) -> OpResult<Vec<(u64, T)>> {
        let frontier = self.frontier(node)?;
        let mut out = Vec::new();
        for i in 0..frontier {
            match self.read(node, i)? {
                SlotState::Value(v) => out.push((i, v)),
                SlotState::Junk => {}
                SlotState::Empty => break,
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::SimFabric;
    use crate::flit::{Flit, FlitPolicy};
    use cxl0_model::{MachineId, SystemConfig};

    const MEM: MachineId = MachineId(2);

    fn setup() -> (Arc<SimFabric>, DurableLog) {
        let f = SimFabric::new(SystemConfig::symmetric_nvm(3, 256));
        let heap = SharedHeap::new(f.config(), MEM);
        let log = DurableLog::create(&heap, 64, Arc::new(Flit::new(FlitPolicy::CXL0))).unwrap();
        (f, log)
    }

    #[test]
    fn appends_get_consecutive_indices() {
        let (f, log) = setup();
        let node = f.node(MachineId(0));
        for expect in 0..5u64 {
            assert_eq!(log.append(&node, expect * 10).unwrap(), Some(expect));
        }
        assert_eq!(log.frontier(&node).unwrap(), 5);
        assert_eq!(
            log.scan(&node).unwrap(),
            vec![(0, 0), (1, 10), (2, 20), (3, 30), (4, 40)]
        );
    }

    #[test]
    fn full_log_rejects_appends() {
        let f = SimFabric::new(SystemConfig::symmetric_nvm(2, 8));
        let heap = SharedHeap::new(f.config(), MachineId(1));
        let log = DurableLog::create(&heap, 2, Arc::new(Flit::new(FlitPolicy::CXL0))).unwrap();
        let node = f.node(MachineId(0));
        assert_eq!(log.append(&node, 1).unwrap(), Some(0));
        assert_eq!(log.append(&node, 2).unwrap(), Some(1));
        assert_eq!(log.append(&node, 3).unwrap(), None);
    }

    #[test]
    fn completed_appends_survive_memory_crash() {
        let (f, log) = setup();
        let node = f.node(MachineId(0));
        for v in [7u64, 8, 9] {
            log.append(&node, v).unwrap();
        }
        f.crash(MEM);
        f.recover(MEM);
        let (committed, sealed) = log.recover(&node).unwrap();
        assert_eq!((committed, sealed), (3, 0));
        assert_eq!(log.scan(&node).unwrap(), vec![(0, 7), (1, 8), (2, 9)]);
    }

    #[test]
    fn crashed_writer_leaves_a_sealed_hole() {
        let (f, log) = setup();
        let n0 = f.node(MachineId(0));
        let n1 = f.node(MachineId(1));
        log.append(&n0, 1).unwrap();
        // Simulate a writer that reserved slot 1 and crashed before the
        // payload persisted: reserve via raw backend FAA + an unflushed
        // LStore that dies with m1's cache.
        n1.faa(cxl0_model::StoreKind::Memory, log.tail, 1).unwrap();
        n1.lstore(log.slot(1), 99 + 1).unwrap();
        // A later append by a healthy producer completes normally.
        log.append(&n0, 3).unwrap();
        f.crash(MachineId(1)); // writer dies; its cached payload is gone...
        f.crash(MEM); // ...and the memory node crashes too
        f.recover(MachineId(1));
        f.recover(MEM);
        let (committed, sealed) = log.recover(&n0).unwrap();
        assert_eq!((committed, sealed), (2, 1));
        assert_eq!(log.read(&n0, 1).unwrap(), SlotState::Junk);
        // The completed append *after* the hole was not lost:
        assert_eq!(log.read(&n0, 2).unwrap(), SlotState::Value(3));
        assert_eq!(log.scan(&n0).unwrap(), vec![(0, 1), (2, 3)]);
    }

    #[test]
    fn unsound_strategy_loses_committed_entries() {
        let f = SimFabric::new(SystemConfig::symmetric_nvm(3, 256));
        let heap = SharedHeap::new(f.config(), MEM);
        let log = DurableLog::create(&heap, 16, Arc::new(Flit::new(FlitPolicy::X86))).unwrap();
        let node = f.node(MachineId(0));
        log.append(&node, 5).unwrap();
        f.crash(MEM);
        f.recover(MEM);
        log.recover(&node).unwrap();
        // The x86-FliT port only reached the owner's cache: the entry
        // (and even the reservation) vanished with it.
        assert_eq!(log.scan(&node).unwrap(), vec![]);
    }

    #[test]
    fn concurrent_multi_producer_appends_are_unique_and_durable() {
        let (f, log) = setup();
        let mut handles = Vec::new();
        for t in 0..4usize {
            let node = f.node(MachineId(t % 2));
            let log = log.clone();
            handles.push(std::thread::spawn(move || {
                let mut got = Vec::new();
                for k in 0..10u64 {
                    if let Some(i) = log.append(&node, (t as u64) * 100 + k).unwrap() {
                        got.push(i);
                    }
                }
                got
            }));
        }
        let mut all: Vec<u64> = handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), 40, "indices must be unique");
        f.crash(MEM);
        f.recover(MEM);
        let node = f.node(MachineId(0));
        let (committed, sealed) = log.recover(&node).unwrap();
        assert_eq!(committed, 40);
        assert_eq!(sealed, 0);
    }

    #[test]
    #[should_panic(expected = "junk marker")]
    fn junk_colliding_payload_rejected() {
        let (f, log) = setup();
        let node = f.node(MachineId(0));
        let _ = log.append(&node, u64::MAX - 1);
    }
}
