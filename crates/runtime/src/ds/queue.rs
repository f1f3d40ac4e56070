//! A durable Michael–Scott queue, FliT-transformed, with node
//! reclamation.
//!
//! Layout: header block `[head, tail]`, node blocks `[value, next]`,
//! with a dummy node. The tail may lag one node behind (the usual M&S
//! invariant); every operation helps advance it.
//!
//! **The tail is a hint.** Every node it can name is reachable from the
//! durable head, so it needs no FliT persist: each swing is one CAS at
//! the strategy's [hint strength](Persistence::hint_kind) — an `RStore`
//! under the strict modes, which lands in the memory node's cache and
//! so survives the crash of the compute node that issued it. Survivors
//! of a compute-node crash therefore keep using the queue without a
//! recovery. A memory-node crash can leave any stale tail behind, even
//! one naming a block that has since been recycled;
//! [`DurableQueue::recover`] ignores it and rebuilds the tail by walking
//! from the durable head.
//!
//! Nodes are allocated from — and on dequeue **returned to** — the
//! crash-consistent [`Allocator`], so sustained enqueue/dequeue churn
//! runs in bounded memory. ABA safety under reuse comes from
//! generation-tagged pointers (this is the counted-pointer scheme of the
//! original Michael–Scott free-list formulation): head, tail and `next`
//! cells store [`Allocator::encode`]d words, and a node's `next` is
//! initialized to [`Allocator::null_ptr`] of its own generation, so a
//! CAS against any pointer into a node's previous incarnation fails.

use std::marker::PhantomData;
use std::sync::Arc;

use cxl0_model::Loc;

use crate::alloc::{Allocator, BlockRef};
use crate::api::{ApiError, ApiResult, Word};
use crate::backend::NodeHandle;
use crate::error::OpResult;
use crate::flit::Persistence;

/// A durable lock-free FIFO queue of [`Word`] values (default `u64`).
///
/// # Examples
///
/// ```
/// use cxl0_runtime::api::Cluster;
/// use cxl0_model::MachineId;
///
/// let cluster = Cluster::symmetric(2, 4096)?;
/// let session = cluster.session(MachineId(0));
/// let q = session.create_queue::<u64>("jobs")?;
/// q.enqueue(&session, 1)?;
/// q.enqueue(&session, 2)?;
/// assert_eq!(q.dequeue(&session)?, Some(1));
/// assert_eq!(q.dequeue(&session)?, Some(2));
/// assert_eq!(q.dequeue(&session)?, None);
/// # Ok::<(), cxl0_runtime::api::ApiError>(())
/// ```
#[derive(Debug, Clone)]
pub struct DurableQueue<T: Word = u64> {
    /// Header: `head` at `header`, `tail` at `header+1`.
    header: Loc,
    alloc: Arc<Allocator>,
    persist: Arc<dyn Persistence>,
    _values: PhantomData<T>,
}

impl<T: Word> DurableQueue<T> {
    /// Allocates and initializes an empty queue (header block + dummy
    /// node) through `alloc`; `Ok(None)` if the heap is exhausted.
    ///
    /// Must run before any concurrent access; the header and dummy are
    /// initialized with persistent private stores.
    ///
    /// # Errors
    ///
    /// Fails if the issuing machine has crashed.
    pub fn create(alloc: &Arc<Allocator>, node: &NodeHandle) -> OpResult<Option<Self>> {
        let persist = Arc::clone(alloc.persistence());
        let Some(header) = alloc.alloc(node, 2)? else {
            return Ok(None);
        };
        let Some(dummy) = alloc.alloc(node, 2)? else {
            // Routine failure: hand the header block straight back.
            let _ = alloc.free(node, header.loc)?;
            return Ok(None);
        };
        let q = DurableQueue {
            header: header.loc,
            alloc: Arc::clone(alloc),
            persist,
            _values: PhantomData,
        };
        q.persist
            .private_store(node, q.value_cell(dummy.loc), 0, true)?;
        q.persist.private_store(
            node,
            q.next_cell(dummy.loc),
            Allocator::null_ptr(dummy.gen),
            true,
        )?;
        let dummy_enc = Allocator::encode(dummy);
        q.persist
            .private_store(node, q.head_cell(), dummy_enc, true)?;
        q.persist
            .private_store(node, q.tail_cell(), dummy_enc, true)?;
        Ok(Some(q))
    }

    /// Attaches to an existing queue header after recovery. The
    /// durability strategy is the allocator's — the two can never be a
    /// mismatched pair.
    pub fn attach(header: Loc, alloc: Arc<Allocator>) -> Self {
        DurableQueue {
            header,
            persist: Arc::clone(alloc.persistence()),
            alloc,
            _values: PhantomData,
        }
    }

    /// The header cell (for re-attachment).
    pub fn header_cell(&self) -> Loc {
        self.header
    }

    fn head_cell(&self) -> Loc {
        self.header
    }

    fn tail_cell(&self) -> Loc {
        Loc::new(self.header.owner, self.header.addr.0 + 1)
    }

    fn value_cell(&self, node: Loc) -> Loc {
        node
    }

    fn next_cell(&self, node: Loc) -> Loc {
        Loc::new(node.owner, node.addr.0 + 1)
    }

    /// Reads the tail hint: a bare load, since no flagged store ever
    /// targets it, so no FliT counter can be raised on it.
    fn load_tail(&self, node: &NodeHandle) -> OpResult<u64> {
        node.load(self.tail_cell())
    }

    /// Swings the tail hint from `old` to `new`: one CAS at hint
    /// strength. A failed swing means another thread moved the tail.
    fn swing_tail(&self, node: &NodeHandle, old: u64, new: u64) -> OpResult<()> {
        node.cas(self.persist.hint_kind(), self.tail_cell(), old, new)
            .map(drop)
    }

    /// Helps a lagging tail past `next`, a link this thread read but did
    /// not write: the help that read may have started completes first,
    /// so the tail never names a node whose link can still be lost with
    /// its writer's cache.
    fn help_tail(&self, node: &NodeHandle, old: u64, next: u64) -> OpResult<()> {
        self.persist.retire_helps(node)?;
        self.swing_tail(node, old, next)
    }

    /// Swings the tail hint from `old` back to the head if it still
    /// reads `old` after a snapshot showed it names no node of the
    /// queue. Without a crash that cannot last: a node is freed only
    /// once the tail has passed it, so a re-read finds the tail moved.
    /// A memory-node crash can leave a stale tail naming a freed block,
    /// and an operation in flight across the crash would otherwise
    /// re-read that snapshot forever, before [`DurableQueue::recover`]
    /// runs; from the head, the usual helping walks the tail forward.
    fn repair_tail(&self, node: &NodeHandle, old: u64) -> OpResult<()> {
        if self.load_tail(node)? != old {
            return Ok(());
        }
        let head = self.persist.shared_load(node, self.head_cell(), true)?;
        self.swing_tail(node, old, head)
    }

    /// Enqueues `v` at the tail. Returns `false` (no error) if the node
    /// heap is exhausted.
    ///
    /// # Errors
    ///
    /// Fails if the issuing machine has crashed.
    pub fn enqueue(&self, node: &NodeHandle, v: T) -> OpResult<bool> {
        let _span = node.trace_span(crate::trace::OpKind::Enqueue);
        let raw = v.to_word();
        let Some(n) = self.alloc.alloc(node, 2)? else {
            return Ok(false);
        };
        self.persist
            .private_store(node, self.value_cell(n.loc), raw, true)?;
        self.persist.private_store(
            node,
            self.next_cell(n.loc),
            Allocator::null_ptr(n.gen),
            true,
        )?;
        let n_enc = Allocator::encode(n);
        loop {
            let tail = self.load_tail(node)?;
            let t = self.alloc.decode(tail).expect("tail is never null");
            let next = self.persist.shared_load(node, self.next_cell(t), true)?;
            // The append CAS must expect the null *of the incarnation we
            // observed as tail* — never the raw null we happened to
            // read, which could belong to a recycled incarnation of `t`
            // (possibly live inside another structure by now). With the
            // generation pinned, the CAS succeeds only while `t` is
            // still our tail's incarnation with no successor.
            let expected_null = Allocator::null_ptr(Allocator::ptr_gen(tail));
            if next == expected_null {
                match self.persist.shared_cas(
                    node,
                    self.next_cell(t),
                    expected_null,
                    n_enc,
                    true,
                )? {
                    Ok(_) => {
                        // Linearized, and the link is durable; swing the
                        // tail to our node.
                        self.swing_tail(node, tail, n_enc)?;
                        self.persist.complete_op(node)?;
                        return Ok(true);
                    }
                    Err(_) => continue,
                }
            } else if self.alloc.decode(next).is_some() {
                // Tail lagging: help.
                self.help_tail(node, tail, next)?;
            } else {
                // A null of a foreign generation — `t` was recycled
                // under us (the snapshot is garbage, re-read), or the
                // tail is stale.
                self.repair_tail(node, tail)?;
            }
        }
    }

    /// Dequeues from the head, or returns `None` when empty. The
    /// retired node (the old dummy) is reclaimed through the allocator.
    ///
    /// # Errors
    ///
    /// Fails if the issuing machine has crashed.
    pub fn dequeue(&self, node: &NodeHandle) -> OpResult<Option<T>> {
        let _span = node.trace_span(crate::trace::OpKind::Dequeue);
        loop {
            let head = self.persist.shared_load(node, self.head_cell(), true)?;
            let tail = self.load_tail(node)?;
            let h = self.alloc.decode(head).expect("head is never null");
            let next = self.persist.shared_load(node, self.next_cell(h), true)?;
            // The Michael–Scott consistency re-check. Under reclamation
            // it is load-bearing, not an optimization: if `h` was
            // dequeued, freed and recycled while we read `tail`/`next`,
            // `next` belongs to the new incarnation (it can even be a
            // fresh null). The generation-tagged head makes the
            // re-check exact — a recycled `h` cannot masquerade.
            if self.persist.shared_load(node, self.head_cell(), true)? != head {
                continue;
            }
            if head == tail {
                if self.alloc.decode(next).is_none() {
                    self.persist.complete_op(node)?;
                    return Ok(None);
                }
                // Tail lagging behind a half-finished enqueue: help.
                self.help_tail(node, tail, next)?;
            } else {
                // Validated snapshot with head ≠ tail: the head node has
                // a live successor, unless the tail is stale.
                let Some(nx) = self.alloc.decode(next) else {
                    self.repair_tail(node, tail)?;
                    continue;
                };
                let v = self.persist.shared_load(node, self.value_cell(nx), true)?;
                match self
                    .persist
                    .shared_cas(node, self.head_cell(), head, next, true)?
                {
                    Ok(_) => {
                        // We unlinked the old dummy `h`; no pointer to it
                        // remains in the queue (stale readers only ever
                        // CAS against its retired generation), so
                        // reclaim it for reuse.
                        let freed = self.alloc.free(node, h)?;
                        debug_assert!(freed.is_ok(), "dequeue winner owns the old dummy");
                        self.persist.complete_op(node)?;
                        return Ok(Some(T::from_word(v)));
                    }
                    Err(_) => continue,
                }
            }
        }
    }

    /// Sole-mutator enqueue for the combining front
    /// ([`crate::ds::combine`]): the caller holds the structure's
    /// combining lock, so no CAS retries are needed and every store goes
    /// through [`Persistence::batched_store`] — persistence may be
    /// deferred to the combiner's batch flush. The store order (value,
    /// null next, link, tail) keeps every durable prefix a consistent
    /// queue state, exactly like the plain path's persist order, so an
    /// early partial flush (e.g. a sync op elsewhere on the same machine
    /// draining the persistency buffer) is harmless.
    ///
    /// The node comes from the board's `spare` cache when it has one —
    /// a block some earlier *flushed* batch durably unlinked, reused
    /// here with its generation unchanged. That is safe where it
    /// matters: no pointer to the block survives in the durable list
    /// (its unlink is flushed), and under the front's sole-mutator
    /// contract no concurrent snapshot can be holding its old identity
    /// across the reuse, which is what generation bumps exist to catch.
    pub(crate) fn enqueue_batched(
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
        self.persist
            .batched_store(node, self.next_cell(n.loc), Allocator::null_ptr(n.gen))?;
        let n_enc = Allocator::encode(n);
        // Walk to the real tail (it may lag one node, as ever), then
        // link and swing with plain batched stores: as sole mutator we
        // can never observe a foreign-generation null or lose a race.
        let mut tail = self.persist.private_load(node, self.tail_cell())?;
        loop {
            let t = self.alloc.decode(tail).expect("tail is never null");
            let next = self.persist.private_load(node, self.next_cell(t))?;
            if let Some(_succ) = self.alloc.decode(next) {
                tail = next;
                continue;
            }
            self.persist.batched_store(node, self.next_cell(t), n_enc)?;
            self.persist.batched_store(node, self.tail_cell(), n_enc)?;
            return Ok(true);
        }
    }

    /// Sole-mutator dequeue for the combining front (see
    /// [`DurableQueue::enqueue_batched`]). The unlinked node is **not**
    /// freed here: it is pushed onto `frees` (with the generation its
    /// pointer word carried, so the combiner can recycle it directly)
    /// for handling *after* the batch flush — releasing it before the
    /// head swing is durable could let the block be relinked while the
    /// persisted head still points at it.
    pub(crate) fn dequeue_batched(
        &self,
        node: &NodeHandle,
        frees: &mut Vec<BlockRef>,
    ) -> OpResult<Option<u64>> {
        let head = self.persist.private_load(node, self.head_cell())?;
        let h = self.alloc.decode(head).expect("head is never null");
        let next = self.persist.private_load(node, self.next_cell(h))?;
        let Some(nx) = self.alloc.decode(next) else {
            return Ok(None);
        };
        let v = self.persist.private_load(node, self.value_cell(nx))?;
        self.persist.batched_store(node, self.head_cell(), next)?;
        frees.push(BlockRef {
            loc: h,
            gen: Allocator::ptr_gen(head),
            recycled: true,
        });
        Ok(Some(v))
    }

    /// Returns nodes a combined batch unlinked to the allocator, once
    /// the batch's head swings are durable.
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

    /// Post-crash repair: rebuilds the tail. The tail is a hint, and a
    /// memory-node crash can leave any stale value of it behind — even
    /// one naming a block that has since been freed and recycled — so
    /// recovery does not read it: it walks from the durable head to the
    /// last node and writes the tail once, at hint strength. That costs
    /// O(queue length). A mid-operation allocator tear is repaired
    /// separately by [`Allocator::recover`], which
    /// [`Session::recover_roots`](crate::api::Session::recover_roots)
    /// runs for you. Must run quiesced.
    ///
    /// # Errors
    ///
    /// Fails if the issuing machine has crashed, or with
    /// [`ApiError::Corrupt`] if the crash lost the head pointer, which
    /// only an unsound strategy such as `FlitX86` lets happen.
    pub fn recover(&self, node: &NodeHandle) -> ApiResult<()> {
        let mut last = self.persist.shared_load(node, self.head_cell(), true)?;
        loop {
            let Some(l) = self.alloc.decode(last) else {
                self.persist.retire_helps(node)?;
                return Err(ApiError::Corrupt {
                    header: self.header,
                });
            };
            let next = self.persist.shared_load(node, self.next_cell(l), true)?;
            if self.alloc.decode(next).is_none() {
                break;
            }
            last = next;
        }
        self.persist.retire_helps(node)?;
        Ok(node.store(self.persist.hint_kind(), self.tail_cell(), last)?)
    }

    /// Drains the queue into a vector (helper for tests/recovery).
    ///
    /// # Errors
    ///
    /// Fails if the issuing machine has crashed.
    pub fn drain(&self, node: &NodeHandle) -> OpResult<Vec<T>> {
        let mut out = Vec::new();
        while let Some(v) = self.dequeue(node)? {
            out.push(v);
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

    fn setup() -> (Arc<SimFabric>, DurableQueue) {
        let f = SimFabric::new(SystemConfig::symmetric_nvm(3, 8192));
        let alloc = Arc::new(Allocator::over_region(
            f.config(),
            MachineId(2),
            Arc::new(Flit::new(FlitPolicy::CXL0)),
        ));
        let q = DurableQueue::create(&alloc, &f.node(MachineId(0)))
            .unwrap()
            .unwrap();
        (f, q)
    }

    #[test]
    fn fifo_order_single_thread() {
        let (f, q) = setup();
        let node = f.node(MachineId(0));
        for v in 1..=5 {
            assert!(q.enqueue(&node, v).unwrap());
        }
        assert_eq!(q.drain(&node).unwrap(), vec![1, 2, 3, 4, 5]);
        assert_eq!(q.dequeue(&node).unwrap(), None);
    }

    #[test]
    fn typed_queue_round_trips_signed_values() {
        let f = SimFabric::new(SystemConfig::symmetric_nvm(2, 1024));
        let alloc = Arc::new(Allocator::over_region(
            f.config(),
            MachineId(1),
            Arc::new(Flit::new(FlitPolicy::CXL0)),
        ));
        let node = f.node(MachineId(0));
        let q: DurableQueue<i64> = DurableQueue::create(&alloc, &node).unwrap().unwrap();
        q.enqueue(&node, -7).unwrap();
        q.enqueue(&node, i64::MIN).unwrap();
        assert_eq!(q.drain(&node).unwrap(), vec![-7, i64::MIN]);
    }

    #[test]
    fn churn_reuses_nodes_in_bounded_memory() {
        // A region with room for only a handful of nodes sustains churn
        // far past its bump capacity because dequeue reclaims.
        let f = SimFabric::new(SystemConfig::symmetric_nvm(2, 256));
        let alloc = Arc::new(Allocator::over_region(
            f.config(),
            MachineId(1),
            Arc::new(Flit::new(FlitPolicy::CXL0)),
        ));
        let node = f.node(MachineId(0));
        let q: DurableQueue = DurableQueue::create(&alloc, &node).unwrap().unwrap();
        for i in 0..2000u64 {
            assert!(q.enqueue(&node, i + 1).unwrap(), "op {i}: must not exhaust");
            assert_eq!(q.dequeue(&node).unwrap(), Some(i + 1));
        }
        let stats = alloc.stats();
        assert!(stats.freelist_hits > 1500, "churn must reuse nodes");
    }

    #[test]
    fn concurrent_enqueues_preserve_all_elements() {
        let (f, q) = setup();
        let mut handles = Vec::new();
        for t in 0..4u64 {
            let q = q.clone();
            let node = f.node(MachineId((t % 2) as usize));
            handles.push(std::thread::spawn(move || {
                for i in 0..250 {
                    q.enqueue(&node, t * 1000 + i).unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let node = f.node(MachineId(0));
        let got = q.drain(&node).unwrap();
        assert_eq!(got.len(), 1000);
        // Per-producer FIFO: each thread's values appear in order.
        for t in 0..4u64 {
            let mine: Vec<u64> = got.iter().copied().filter(|v| v / 1000 == t).collect();
            let expect: Vec<u64> = (0..250).map(|i| t * 1000 + i).collect();
            assert_eq!(mine, expect);
        }
    }

    #[test]
    fn concurrent_enqueue_dequeue_no_loss_no_dup() {
        let (f, q) = setup();
        let producers = 2;
        let per = 300u64;
        let mut handles = Vec::new();
        for t in 0..producers as u64 {
            let q = q.clone();
            let node = f.node(MachineId(t as usize % 2));
            handles.push(std::thread::spawn(move || {
                for i in 0..per {
                    q.enqueue(&node, t * 10_000 + i).unwrap();
                }
            }));
        }
        let consumed = std::sync::Arc::new(parking_lot::Mutex::new(Vec::new()));
        let mut consumers = Vec::new();
        for c in 0..2 {
            let q = q.clone();
            let node = f.node(MachineId(c % 2));
            let consumed = std::sync::Arc::clone(&consumed);
            consumers.push(std::thread::spawn(move || loop {
                match q.dequeue(&node).unwrap() {
                    Some(v) => consumed.lock().push(v),
                    None => {
                        if consumed.lock().len() as u64 >= per * producers as u64 {
                            break;
                        }
                        std::thread::yield_now();
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        for c in consumers {
            c.join().unwrap();
        }
        let mut got = consumed.lock().clone();
        got.sort_unstable();
        got.dedup();
        assert_eq!(got.len() as u64, per * producers as u64);
    }

    #[test]
    fn concurrent_churn_over_recycled_nodes_stays_consistent() {
        // Regression test for the reclamation races the churn bench
        // caught: without the M&S consistency re-check in dequeue, a
        // recycled old head's fresh null panicked the decode; without
        // the generation-pinned append null, an enqueue could splice
        // into a recycled incarnation. High contention on a small
        // region maximizes recycling.
        let f = SimFabric::new(SystemConfig::symmetric_nvm(3, 512));
        let alloc = Arc::new(Allocator::over_region(
            f.config(),
            MachineId(2),
            Arc::new(Flit::new(FlitPolicy::CXL0)),
        ));
        let q: DurableQueue = DurableQueue::create(&alloc, &f.node(MachineId(0)))
            .unwrap()
            .unwrap();
        let total = Arc::new(std::sync::atomic::AtomicU64::new(0));
        let mut handles = Vec::new();
        for t in 0..4u64 {
            let q = q.clone();
            let node = f.node(MachineId((t % 2) as usize));
            let total = Arc::clone(&total);
            handles.push(std::thread::spawn(move || {
                for i in 0..2500u64 {
                    assert!(q.enqueue(&node, t * 100_000 + i + 1).unwrap());
                    if let Some(v) = q.dequeue(&node).unwrap() {
                        total.fetch_add(v % 100_000, std::sync::atomic::Ordering::Relaxed);
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let node = f.node(MachineId(0));
        let rest: u64 = q.drain(&node).unwrap().iter().map(|v| v % 100_000).sum();
        // Conservation: every enqueued payload is dequeued exactly once.
        let expect: u64 = 4 * (1..=2500u64).sum::<u64>();
        assert_eq!(
            total.load(std::sync::atomic::Ordering::Relaxed) + rest,
            expect
        );
        let s = alloc.stats();
        assert!(s.freelist_hits > 5_000, "churn must recycle heavily");
    }

    /// Seeded-bug detection: replay the enqueue protocol with the value
    /// store's flush deleted. Linking that node publishes a dirty cell
    /// into the durably-reachable queue — exactly the durability race
    /// the sanitizer exists to catch. The sound protocol right before it
    /// must stay silent, so the test also proves the detector is not
    /// trigger-happy.
    #[test]
    fn sanitizer_flags_enqueue_with_the_value_flush_deleted() {
        use crate::check::{CheckConfig, Checker, ViolationClass};
        let f = SimFabric::new(SystemConfig::symmetric_nvm(3, 8192));
        let ck = Arc::new(Checker::new(CheckConfig {
            fail_fast: false,
            ..CheckConfig::default()
        }));
        f.install_checker(Arc::clone(&ck));
        let alloc = Arc::new(Allocator::over_region(
            f.config(),
            MachineId(2),
            Arc::new(Flit::new(FlitPolicy::CXL0)),
        ));
        let node = f.node(MachineId(0));
        let q: DurableQueue = DurableQueue::create(&alloc, &node).unwrap().unwrap();
        // What the registry does for a named structure: seed durable
        // reachability at the header.
        node.check_add_root(q.header_cell());
        // The sound protocol is silent.
        assert!(q.enqueue(&node, 1).unwrap());
        assert_eq!(q.dequeue(&node).unwrap(), Some(1));
        assert_eq!(ck.total_violations(), 0, "sound enqueue/dequeue is clean");
        // The bug: value stored without its flush, then linked anyway.
        let n = alloc.alloc(&node, 2).unwrap().unwrap();
        q.persist
            .private_store(&node, q.value_cell(n.loc), 42, false)
            .unwrap();
        q.persist
            .private_store(&node, q.next_cell(n.loc), Allocator::null_ptr(n.gen), true)
            .unwrap();
        let tail = q.persist.shared_load(&node, q.tail_cell(), true).unwrap();
        let t = alloc.decode(tail).expect("tail is never null");
        let expected_null = Allocator::null_ptr(Allocator::ptr_gen(tail));
        q.persist
            .shared_cas(
                &node,
                q.next_cell(t),
                expected_null,
                Allocator::encode(n),
                true,
            )
            .unwrap()
            .unwrap();
        assert_eq!(
            ck.durability_races(),
            1,
            "linking a node with an unflushed value is a durability race"
        );
        let v = &ck.violations()[0];
        assert_eq!(v.class, ViolationClass::DurabilityRace);
        assert_eq!(v.loc, q.value_cell(n.loc), "blamed at the dirty value cell");
        assert_eq!(v.machine, Some(MachineId(0)));
    }

    #[test]
    fn contents_survive_crash_and_recover_fixes_tail() {
        let (f, q) = setup();
        let node = f.node(MachineId(0));
        for v in [7, 8, 9] {
            q.enqueue(&node, v).unwrap();
        }
        f.crash(MachineId(2));
        f.recover(MachineId(2));
        q.recover(&node).unwrap();
        assert_eq!(q.drain(&node).unwrap(), vec![7, 8, 9]);
    }

    #[test]
    fn operations_repair_a_stale_tail_naming_a_freed_node() {
        // What a memory-node crash can leave behind until `recover`
        // runs: the tail names a node that was since dequeued and freed.
        let (f, q) = setup();
        let q = Arc::new(q);
        let node = f.node(MachineId(0));
        q.enqueue(&node, 1).unwrap();
        let stale = q.load_tail(&node).unwrap();
        assert_eq!(q.dequeue(&node).unwrap(), Some(1));
        q.enqueue(&node, 2).unwrap();
        assert_eq!(q.dequeue(&node).unwrap(), Some(2));
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let kind = q.persist.hint_kind();
            let mut out = Vec::new();
            // An empty queue whose tail is not its head.
            node.store(kind, q.tail_cell(), stale).unwrap();
            out.push(q.dequeue(&node).unwrap());
            // An enqueue whose tail's node was recycled for the new one.
            node.store(kind, q.tail_cell(), stale).unwrap();
            assert!(q.enqueue(&node, 3).unwrap());
            q.enqueue(&node, 4).unwrap();
            out.extend([q.dequeue(&node).unwrap(), q.dequeue(&node).unwrap()]);
            out.push(q.dequeue(&node).unwrap());
            tx.send(out).unwrap();
        });
        let out = rx
            .recv_timeout(std::time::Duration::from_secs(60))
            .expect("an operation spins on the stale tail");
        assert_eq!(out, vec![None, Some(3), Some(4), None]);
    }
}
