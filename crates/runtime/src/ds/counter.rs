//! A durable fetch-and-add counter.

use std::sync::Arc;

use cxl0_model::Loc;

use crate::backend::AsNode;
use crate::error::OpResult;
use crate::flit::Persistence;
use crate::heap::SharedHeap;

/// A durable wrapping `u64` counter in one shared cell.
///
/// # Examples
///
/// ```
/// use cxl0_runtime::api::Cluster;
/// use cxl0_model::MachineId;
///
/// let cluster = Cluster::symmetric(2, 4096)?;
/// let session = cluster.session(MachineId(0));
/// let ctr = session.create_counter("requests")?;
/// assert_eq!(ctr.add(&session, 5)?, 0);
/// assert_eq!(ctr.get(&session)?, 5);
/// # Ok::<(), cxl0_runtime::api::ApiError>(())
/// ```
#[derive(Debug, Clone)]
pub struct DurableCounter {
    cell: Loc,
    persist: Arc<dyn Persistence>,
}

impl DurableCounter {
    /// Allocates a counter from `heap`; `None` if exhausted.
    pub fn create(heap: &SharedHeap, persist: Arc<dyn Persistence>) -> Option<Self> {
        Some(DurableCounter {
            cell: heap.alloc(1)?,
            persist,
        })
    }

    /// Attaches to an existing counter cell.
    pub fn attach(cell: Loc, persist: Arc<dyn Persistence>) -> Self {
        DurableCounter { cell, persist }
    }

    /// The backing cell.
    pub fn cell(&self) -> Loc {
        self.cell
    }

    /// Adds `delta`, returning the previous value.
    ///
    /// # Errors
    ///
    /// Fails if the issuing machine has crashed.
    pub fn add(&self, at: &impl AsNode, delta: u64) -> OpResult<u64> {
        let node = at.as_node();
        let old = self.persist.shared_faa(node, self.cell, delta, true)?;
        self.persist.complete_op(node)?;
        Ok(old)
    }

    /// Reads the current value.
    ///
    /// # Errors
    ///
    /// Fails if the issuing machine has crashed.
    pub fn get(&self, at: &impl AsNode) -> OpResult<u64> {
        let node = at.as_node();
        let v = self.persist.shared_load(node, self.cell, true)?;
        self.persist.complete_op(node)?;
        Ok(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::SimFabric;
    use crate::flit::{Flit, FlitPolicy};
    use cxl0_model::{MachineId, SystemConfig};

    #[test]
    fn concurrent_adds_from_two_machines() {
        let f = SimFabric::new(SystemConfig::symmetric_nvm(3, 4));
        let heap = SharedHeap::new(f.config(), MachineId(2));
        let ctr = DurableCounter::create(&heap, Arc::new(Flit::new(FlitPolicy::CXL0))).unwrap();
        let mut handles = Vec::new();
        for m in 0..2 {
            let node = f.node(MachineId(m));
            let ctr = ctr.clone();
            handles.push(std::thread::spawn(move || {
                for _ in 0..500 {
                    ctr.add(&node, 1).unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let node = f.node(MachineId(0));
        assert_eq!(ctr.get(&node).unwrap(), 1000);
        // Every completed add persisted:
        f.crash(MachineId(2));
        f.recover(MachineId(2));
        assert_eq!(ctr.get(&node).unwrap(), 1000);
    }

    #[test]
    fn add_returns_previous() {
        let f = SimFabric::new(SystemConfig::symmetric_nvm(2, 4));
        let heap = SharedHeap::new(f.config(), MachineId(1));
        let ctr = DurableCounter::create(&heap, Arc::new(Flit::new(FlitPolicy::CXL0))).unwrap();
        let node = f.node(MachineId(0));
        assert_eq!(ctr.add(&node, 3).unwrap(), 0);
        assert_eq!(ctr.add(&node, 4).unwrap(), 3);
        assert_eq!(ctr.get(&node).unwrap(), 7);
    }
}
