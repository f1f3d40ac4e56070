//! A durable Treiber stack: the classic lock-free stack,
//! FliT-transformed, with node reclamation.
//!
//! Node layout: `[value, next]`. New nodes are initialized with
//! `private_store` (nobody can see them before the publishing CAS; the
//! persistence flag makes them durable *before* publication, as FliT
//! requires), then published with `shared_cas` on the `top` pointer.
//! Popped nodes are returned to the crash-consistent [`Allocator`];
//! the generation-tagged pointer words it hands out are what protect
//! the `top` CAS from ABA under reuse.

use std::marker::PhantomData;
use std::sync::Arc;

use cxl0_model::Loc;

use crate::alloc::{Allocator, BlockRef};
use crate::api::Word;
use crate::backend::NodeHandle;
use crate::error::OpResult;
use crate::flit::Persistence;

/// A durable lock-free LIFO stack of [`Word`] values (default `u64`).
///
/// # Examples
///
/// ```
/// use cxl0_runtime::api::Cluster;
/// use cxl0_model::MachineId;
///
/// let cluster = Cluster::symmetric(2, 4096)?;
/// let session = cluster.session(MachineId(0));
/// let stack = session.create_stack::<u64>("undo")?;
/// stack.push(&session, 1)?;
/// stack.push(&session, 2)?;
/// assert_eq!(stack.pop(&session)?, Some(2));
/// assert_eq!(stack.pop(&session)?, Some(1));
/// assert_eq!(stack.pop(&session)?, None);
/// # Ok::<(), cxl0_runtime::api::ApiError>(())
/// ```
#[derive(Debug, Clone)]
pub struct DurableStack<T: Word = u64> {
    top: Loc,
    alloc: Arc<Allocator>,
    persist: Arc<dyn Persistence>,
    _values: PhantomData<T>,
}

impl<T: Word> DurableStack<T> {
    /// Allocates an empty stack (one `top` cell) through `alloc`;
    /// `Ok(None)` if the heap is exhausted.
    ///
    /// # Errors
    ///
    /// Fails if the issuing machine has crashed.
    pub fn create(alloc: &Arc<Allocator>, node: &NodeHandle) -> OpResult<Option<Self>> {
        let persist = Arc::clone(alloc.persistence());
        let Some(top) = alloc.alloc(node, 1)? else {
            return Ok(None);
        };
        // The top block may be recycled memory: empty is a plain zero.
        persist.private_store(node, top.loc, 0, true)?;
        Ok(Some(DurableStack {
            top: top.loc,
            alloc: Arc::clone(alloc),
            persist,
            _values: PhantomData,
        }))
    }

    /// Attaches to an existing stack after recovery: the `top` cell and
    /// the node heap region are all the state there is. The durability
    /// strategy is the allocator's — the two can never be a mismatched
    /// pair.
    pub fn attach(top: Loc, alloc: Arc<Allocator>) -> Self {
        DurableStack {
            top,
            persist: Arc::clone(alloc.persistence()),
            alloc,
            _values: PhantomData,
        }
    }

    /// The `top` pointer cell (for re-attachment).
    pub fn top_cell(&self) -> Loc {
        self.top
    }

    fn value_cell(&self, node: Loc) -> Loc {
        node
    }

    fn next_cell(&self, node: Loc) -> Loc {
        Loc::new(node.owner, node.addr.0 + 1)
    }

    /// Pushes `v`. Returns `false` (without error) if the node heap is
    /// exhausted.
    ///
    /// # Errors
    ///
    /// Fails if the issuing machine has crashed.
    pub fn push(&self, node: &NodeHandle, v: T) -> OpResult<bool> {
        let _span = node.trace_span(crate::trace::OpKind::Push);
        let raw = v.to_word();
        let Some(n) = self.alloc.alloc(node, 2)? else {
            return Ok(false);
        };
        // Initialize privately; persist before publication.
        self.persist
            .private_store(node, self.value_cell(n.loc), raw, true)?;
        let n_enc = Allocator::encode(n);
        loop {
            let top = self.persist.shared_load(node, self.top, true)?;
            self.persist
                .private_store(node, self.next_cell(n.loc), top, true)?;
            match self.persist.shared_cas(node, self.top, top, n_enc, true)? {
                Ok(_) => {
                    self.persist.complete_op(node)?;
                    return Ok(true);
                }
                Err(_) => continue,
            }
        }
    }

    /// Pops the top value, or `None` when empty. The popped node is
    /// reclaimed through the allocator.
    ///
    /// # Errors
    ///
    /// Fails if the issuing machine has crashed.
    pub fn pop(&self, node: &NodeHandle) -> OpResult<Option<T>> {
        let _span = node.trace_span(crate::trace::OpKind::Pop);
        loop {
            let top = self.persist.shared_load(node, self.top, true)?;
            let Some(t) = self.alloc.decode(top) else {
                self.persist.complete_op(node)?;
                return Ok(None);
            };
            let next = self.persist.shared_load(node, self.next_cell(t), true)?;
            let v = self.persist.shared_load(node, self.value_cell(t), true)?;
            match self.persist.shared_cas(node, self.top, top, next, true)? {
                Ok(_) => {
                    // The generation-tagged CAS makes us the unique
                    // unlinker of this incarnation: reclaim it.
                    let freed = self.alloc.free(node, t)?;
                    debug_assert!(freed.is_ok(), "pop winner owns the node");
                    self.persist.complete_op(node)?;
                    return Ok(Some(T::from_word(v)));
                }
                Err(_) => continue,
            }
        }
    }

    /// Sole-mutator push for the combining front
    /// ([`crate::ds::combine`]): the caller holds the structure's
    /// combining lock, so the top pointer is updated with a plain
    /// [`Persistence::batched_store`] (no CAS, persistence deferrable to
    /// the batch flush). Store order (value, next, top) keeps every
    /// durable prefix a consistent stack.
    ///
    /// The node comes from the board's `spare` cache when it has one —
    /// a durably-unlinked block from an earlier flushed batch, reused
    /// with its generation unchanged (safe under the front's
    /// sole-mutator contract; see
    /// [`DurableQueue::enqueue_batched`](crate::ds::queue::DurableQueue)).
    pub(crate) fn push_batched(
        &self,
        node: &NodeHandle,
        raw: u64,
        spare: &mut Vec<BlockRef>,
    ) -> OpResult<bool> {
        let n = match spare.pop() {
            Some(n) => n,
            None => match self.alloc.alloc(node, 2)? {
                Some(n) => n,
                None => return Ok(false),
            },
        };
        self.persist
            .batched_store(node, self.value_cell(n.loc), raw)?;
        let top = self.persist.private_load(node, self.top)?;
        self.persist
            .batched_store(node, self.next_cell(n.loc), top)?;
        self.persist
            .batched_store(node, self.top, Allocator::encode(n))?;
        Ok(true)
    }

    /// Sole-mutator pop for the combining front (see
    /// [`DurableStack::push_batched`]). The unlinked node goes onto
    /// `frees` for reclamation *after* the batch flush, so a crash can
    /// never leave a persisted top pointing at a reallocated block.
    pub(crate) fn pop_batched(
        &self,
        node: &NodeHandle,
        frees: &mut Vec<BlockRef>,
    ) -> OpResult<Option<u64>> {
        let top = self.persist.private_load(node, self.top)?;
        let Some(t) = self.alloc.decode(top) else {
            return Ok(None);
        };
        let next = self.persist.private_load(node, self.next_cell(t))?;
        let v = self.persist.private_load(node, self.value_cell(t))?;
        self.persist.batched_store(node, self.top, next)?;
        frees.push(BlockRef {
            loc: t,
            gen: Allocator::ptr_gen(top),
            recycled: true,
        });
        Ok(Some(v))
    }

    /// Returns nodes a combined batch unlinked to the allocator, once
    /// the batch's top swings are durable.
    pub(crate) fn reclaim_batch(&self, node: &NodeHandle, frees: &[BlockRef]) -> OpResult<()> {
        let locs: Vec<Loc> = frees.iter().map(|b| b.loc).collect();
        let freed = self.alloc.free_chain(node, &locs)?;
        debug_assert_eq!(freed, locs.len(), "combiner owns the nodes it unlinked");
        Ok(())
    }

    /// The persistence strategy (for the combining front's batch flush).
    pub(crate) fn persist_handle(&self) -> &Arc<dyn Persistence> {
        &self.persist
    }

    /// Drains the stack into a vector (single-threaded helper for tests
    /// and recovery inspection).
    ///
    /// # Errors
    ///
    /// Fails if the issuing machine has crashed.
    pub fn drain(&self, node: &NodeHandle) -> OpResult<Vec<T>> {
        let mut out = Vec::new();
        while let Some(v) = self.pop(node)? {
            out.push(v);
        }
        Ok(out)
    }

    /// Number of elements (O(n) walk; concurrent-unsafe snapshot).
    ///
    /// # Errors
    ///
    /// Fails if the issuing machine has crashed.
    pub fn len(&self, node: &NodeHandle) -> OpResult<usize> {
        let mut n = 0;
        let mut cur = self.persist.shared_load(node, self.top, true)?;
        while let Some(c) = self.alloc.decode(cur) {
            n += 1;
            cur = self.persist.shared_load(node, self.next_cell(c), true)?;
        }
        Ok(n)
    }

    /// True if the stack is empty.
    ///
    /// # Errors
    ///
    /// Fails if the issuing machine has crashed.
    pub fn is_empty(&self, node: &NodeHandle) -> OpResult<bool> {
        let raw = self.persist.shared_load(node, self.top, true)?;
        Ok(self.alloc.decode(raw).is_none())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::SimFabric;
    use crate::flit::{Flit, FlitPolicy};
    use cxl0_model::{MachineId, SystemConfig};
    use std::collections::HashSet;

    fn setup() -> (Arc<SimFabric>, DurableStack) {
        let f = SimFabric::new(SystemConfig::symmetric_nvm(3, 4096));
        let alloc = Arc::new(Allocator::over_region(
            f.config(),
            MachineId(2),
            Arc::new(Flit::new(FlitPolicy::CXL0)),
        ));
        let s = DurableStack::create(&alloc, &f.node(MachineId(0)))
            .unwrap()
            .unwrap();
        (f, s)
    }

    #[test]
    fn lifo_order_single_thread() {
        let (f, s) = setup();
        let node = f.node(MachineId(0));
        for v in 1..=5 {
            assert!(s.push(&node, v).unwrap());
        }
        assert_eq!(s.len(&node).unwrap(), 5);
        assert_eq!(s.drain(&node).unwrap(), vec![5, 4, 3, 2, 1]);
        assert!(s.is_empty(&node).unwrap());
    }

    #[test]
    fn concurrent_pushes_all_present() {
        let (f, s) = setup();
        let mut handles = Vec::new();
        for t in 0..3u64 {
            let s = s.clone();
            let node = f.node(MachineId((t % 2) as usize));
            handles.push(std::thread::spawn(move || {
                for i in 0..200 {
                    s.push(&node, t * 1000 + i).unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let node = f.node(MachineId(0));
        let got: HashSet<u64> = s.drain(&node).unwrap().into_iter().collect();
        assert_eq!(got.len(), 600);
        for t in 0..3u64 {
            for i in 0..200 {
                assert!(got.contains(&(t * 1000 + i)));
            }
        }
    }

    #[test]
    fn contents_survive_memory_node_crash() {
        let (f, s) = setup();
        let node = f.node(MachineId(0));
        for v in [10, 20, 30] {
            s.push(&node, v).unwrap();
        }
        f.crash(MachineId(2));
        f.recover(MachineId(2));
        assert_eq!(s.drain(&node).unwrap(), vec![30, 20, 10]);
    }

    #[test]
    fn push_pop_churn_reuses_nodes() {
        // Region with room for only a handful of node blocks.
        let f = SimFabric::new(SystemConfig::symmetric_nvm(2, 256));
        let alloc = Arc::new(Allocator::over_region(
            f.config(),
            MachineId(1),
            Arc::new(Flit::new(FlitPolicy::CXL0)),
        ));
        let node = f.node(MachineId(0));
        let s: DurableStack = DurableStack::create(&alloc, &node).unwrap().unwrap();
        for i in 0..1000u64 {
            assert!(s.push(&node, i + 1).unwrap(), "op {i}: must not exhaust");
            assert_eq!(s.pop(&node).unwrap(), Some(i + 1));
        }
        assert!(alloc.stats().freelist_hits > 900);
    }

    #[test]
    fn heap_exhaustion_reports_false() {
        let f = SimFabric::new(SystemConfig::symmetric_nvm(1, crate::alloc::META_CELLS + 5));
        let alloc = Arc::new(Allocator::over_region(
            f.config(),
            MachineId(0),
            Arc::new(Flit::new(FlitPolicy::CXL0)),
        ));
        let node = f.node(MachineId(0));
        let s: DurableStack = DurableStack::create(&alloc, &node).unwrap().unwrap();
        assert!(s.push(&node, 1).unwrap());
        assert!(!s.push(&node, 2).unwrap()); // out of cells
    }
}
