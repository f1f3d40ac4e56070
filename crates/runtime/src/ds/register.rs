//! A durable atomic register: the simplest FliT-transformed object.

use std::marker::PhantomData;
use std::sync::Arc;

use cxl0_model::Loc;

use crate::api::Word;
use crate::backend::AsNode;
use crate::error::OpResult;
use crate::flit::Persistence;
use crate::heap::SharedHeap;

/// A durable register of one [`Word`] value (default `u64`), living in
/// one shared cell.
///
/// # Examples
///
/// ```
/// use cxl0_runtime::api::Cluster;
/// use cxl0_model::MachineId;
///
/// let cluster = Cluster::symmetric(2, 4096)?;
/// let session = cluster.session(MachineId(0));
/// let reg = session.create_register::<i64>("balance")?;
/// reg.write(&session, -7)?;
/// assert_eq!(reg.read(&session)?, -7);
///
/// // The write survives a crash of the memory node (NVM): durable
/// // linearizability. Reattach by name, no header Loc threading.
/// cluster.crash(cluster.memory_node());
/// cluster.recover(cluster.memory_node());
/// let reg = session.open_register::<i64>("balance")?;
/// assert_eq!(reg.read(&session)?, -7);
/// # Ok::<(), cxl0_runtime::api::ApiError>(())
/// ```
#[derive(Debug, Clone)]
pub struct DurableRegister<T: Word = u64> {
    cell: Loc,
    persist: Arc<dyn Persistence>,
    _values: PhantomData<T>,
}

impl<T: Word> DurableRegister<T> {
    /// Allocates a register from `heap`.
    ///
    /// Returns `None` if the heap is exhausted.
    pub fn create(heap: &SharedHeap, persist: Arc<dyn Persistence>) -> Option<Self> {
        Some(DurableRegister {
            cell: heap.alloc(1)?,
            persist,
            _values: PhantomData,
        })
    }

    /// Attaches to an existing register cell (e.g. after recovery).
    pub fn attach(cell: Loc, persist: Arc<dyn Persistence>) -> Self {
        DurableRegister {
            cell,
            persist,
            _values: PhantomData,
        }
    }

    /// The backing cell.
    pub fn cell(&self) -> Loc {
        self.cell
    }

    /// Reads the register.
    ///
    /// # Errors
    ///
    /// Fails if the issuing machine has crashed.
    pub fn read(&self, at: &impl AsNode) -> OpResult<T> {
        let node = at.as_node();
        let v = self.persist.shared_load(node, self.cell, true)?;
        self.persist.complete_op(node)?;
        Ok(T::from_word(v))
    }

    /// Writes the register.
    ///
    /// # Errors
    ///
    /// Fails if the issuing machine has crashed.
    pub fn write(&self, at: &impl AsNode, v: T) -> OpResult<()> {
        let node = at.as_node();
        self.persist
            .shared_store(node, self.cell, v.to_word(), true)?;
        self.persist.complete_op(node)
    }

    /// Compare-and-swap; returns `Ok(old)` / `Err(actual)`.
    ///
    /// # Errors
    ///
    /// Fails with `Crashed` if the issuing machine has crashed.
    pub fn cas(&self, at: &impl AsNode, old: T, new: T) -> OpResult<Result<T, T>> {
        let node = at.as_node();
        let r = self
            .persist
            .shared_cas(node, self.cell, old.to_word(), new.to_word(), true)?;
        self.persist.complete_op(node)?;
        Ok(r.map(T::from_word).map_err(T::from_word))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::SimFabric;
    use crate::flit::{Flit, FlitPolicy};
    use cxl0_model::{MachineId, SystemConfig};

    fn setup(p: Arc<dyn Persistence>) -> (Arc<SimFabric>, DurableRegister) {
        let f = SimFabric::new(SystemConfig::symmetric_nvm(2, 4));
        let heap = SharedHeap::new(f.config(), MachineId(1));
        let reg = DurableRegister::create(&heap, p).unwrap();
        (f, reg)
    }

    #[test]
    fn read_write_round_trip() {
        let (f, reg) = setup(Arc::new(Flit::new(FlitPolicy::CXL0)));
        let node = f.node(MachineId(0));
        reg.write(&node, 11).unwrap();
        assert_eq!(reg.read(&node).unwrap(), 11);
    }

    #[test]
    fn completed_write_survives_memory_node_crash() {
        let (f, reg) = setup(Arc::new(Flit::new(FlitPolicy::CXL0)));
        let node = f.node(MachineId(0));
        reg.write(&node, 11).unwrap();
        f.crash(MachineId(1));
        f.recover(MachineId(1));
        assert_eq!(reg.read(&node).unwrap(), 11);
    }

    #[test]
    fn naive_mstore_is_also_durable() {
        let (f, reg) = setup(Arc::new(Flit::new(FlitPolicy::NAIVE_MSTORE)));
        let node = f.node(MachineId(0));
        reg.write(&node, 11).unwrap();
        f.crash(MachineId(1));
        f.recover(MachineId(1));
        assert_eq!(reg.read(&node).unwrap(), 11);
    }

    #[test]
    fn unadapted_flit_loses_the_write() {
        let (f, reg) = setup(Arc::new(Flit::new(FlitPolicy::X86)));
        let node = f.node(MachineId(0));
        reg.write(&node, 11).unwrap();
        // The LFlush parked the line in the owner's cache; the owner's
        // crash wipes it — the *completed* write is lost.
        f.crash(MachineId(1));
        f.recover(MachineId(1));
        assert_eq!(reg.read(&node).unwrap(), 0);
    }

    #[test]
    fn cas_through_register() {
        let (f, reg) = setup(Arc::new(Flit::new(FlitPolicy::CXL0)));
        let node = f.node(MachineId(0));
        assert_eq!(reg.cas(&node, 0, 1).unwrap(), Ok(0));
        assert_eq!(reg.cas(&node, 0, 2).unwrap(), Err(1));
    }

    #[test]
    fn attach_reuses_cell() {
        let (f, reg) = setup(Arc::new(Flit::new(FlitPolicy::CXL0)));
        let node = f.node(MachineId(0));
        reg.write(&node, 42).unwrap();
        let reg2: DurableRegister =
            DurableRegister::attach(reg.cell(), Arc::new(Flit::new(FlitPolicy::CXL0)));
        assert_eq!(reg2.read(&node).unwrap(), 42);
    }
}
