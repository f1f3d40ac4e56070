//! A durable lock-free sorted linked list (set) in the style of Harris:
//! logical deletion via a mark bit in the `next` pointer, physical
//! unlinking by helping traversals — FliT-transformed like the other
//! structures, demonstrating the transformation on a pointer-chasing
//! algorithm with two-phase removal **and concurrent node
//! reclamation**.
//!
//! Node layout: `[key, next]`; the `next` cell packs `(pointer, mark)`.
//! Keys must be non-zero and below `2^62` (the allocator's null tag and
//! the mark bit).
//!
//! ## Reclamation: retire inline, reclaim after a grace period
//!
//! Unlike the queue and stack — whose CASes always compare a
//! generation-tagged word remembered from the incarnation they mean,
//! and can therefore free unlinked nodes immediately — a Harris list
//! cannot reclaim inline: traversals deref interior nodes without a
//! validating CAS, and `remove`'s logical-delete CAS takes its expected
//! value from a fresh read of the node itself, so an unlink → free →
//! recycle racing an in-flight operation could hand that operation a
//! *different* structure's live cell (the classic reason linked lists
//! need hazard pointers or epochs where stacks and queues get by with
//! counted pointers).
//!
//! Every operation therefore pins the cluster's epoch-based
//! reclamation domain ([`crate::smr`]) for its duration, and whoever
//! wins an unlink CAS **retires** the node through its
//! [`SmrGuard`]: the node's cells stay frozen
//! (marked) until every traversal pinned at retirement time has
//! finished, then drain back to the allocator automatically — no
//! quiescence, ever. Nodes still in limbo at a crash are swept back to
//! the free lists by
//! [`Session::recover_roots`](crate::api::Session::recover_roots)
//! (retired means durably unlinked, so limbo is volatile by design).
//! The pre-SMR design retired into a per-handle quarantine that only a
//! *quiesced* [`DurableList::reclaim`] could drain; that requirement is
//! gone (see `docs/RECLAMATION.md` for the migration note).
//!
//! Two generation disciplines keep the *published* state safe under
//! cross-structure reuse of whatever the list does release: every
//! pointer stored in a link cell is generation-tagged, and every null
//! written into a node's link cell carries that node's **own**
//! generation (inserts at the end tag the new node's null with its own
//! generation; unlinks that would store a null tag it with the
//! predecessor's) — so no stale CAS can mistake a recycled cell's null
//! for the incarnation it observed.

use std::marker::PhantomData;
use std::sync::Arc;

use cxl0_model::Loc;

use crate::alloc::Allocator;
use crate::api::Word;
use crate::backend::NodeHandle;
use crate::error::OpResult;
use crate::flit::Persistence;
use crate::smr::{SmrDomain, SmrGuard};

const MARK: u64 = 1 << 63;

/// Payload cells of a node: `[key, next]`.
const NODE_CELLS: u32 = 2;

fn is_marked(raw: u64) -> bool {
    raw & MARK != 0
}

fn unmark(raw: u64) -> u64 {
    raw & !MARK
}

/// A durable sorted set of [`Word`] keys (default `u64`), ordered by
/// their encoded word. Keys must encode non-zero and below `2^62` (the
/// mark bit and the allocator's null tag).
///
/// # Examples
///
/// ```
/// use cxl0_runtime::api::Cluster;
/// use cxl0_model::MachineId;
///
/// let cluster = Cluster::symmetric(2, 4096)?;
/// let session = cluster.session(MachineId(0));
/// let list = session.create_list::<u64>("members")?;
/// assert!(list.insert(&session, 5)?);
/// assert!(!list.insert(&session, 5)?); // already present
/// assert!(list.contains(&session, 5)?);
/// assert!(list.remove(&session, 5)?);
/// assert!(!list.contains(&session, 5)?);
/// # Ok::<(), cxl0_runtime::api::ApiError>(())
/// ```
#[derive(Debug, Clone)]
pub struct DurableList<K: Word = u64> {
    /// The head pointer cell (encoded pointer to the first node, or 0).
    head: Loc,
    /// The reclamation domain removed nodes retire through (shared by
    /// every handle of every traversal structure on this allocator).
    smr: Arc<SmrDomain>,
    alloc: Arc<Allocator>,
    persist: Arc<dyn Persistence>,
    _keys: PhantomData<K>,
}

impl<K: Word> DurableList<K> {
    /// Allocates an empty list (one head cell) through `smr`'s
    /// allocator; `Ok(None)` if the heap is exhausted.
    ///
    /// The list allocates from — and retires removed nodes back through
    /// — the given reclamation domain; all handles of all traversal
    /// structures over one allocator must share one domain (a
    /// [`Cluster`](crate::api::Cluster) guarantees this).
    ///
    /// # Errors
    ///
    /// Fails if the issuing machine has crashed.
    pub fn create(smr: &Arc<SmrDomain>, node: &NodeHandle) -> OpResult<Option<Self>> {
        let alloc = Arc::clone(smr.allocator());
        let persist = Arc::clone(alloc.persistence());
        let Some(head) = alloc.alloc(node, 1)? else {
            return Ok(None);
        };
        // The head block may be recycled memory: empty is a plain zero.
        persist.private_store(node, head.loc, 0, true)?;
        Ok(Some(DurableList {
            head: head.loc,
            smr: Arc::clone(smr),
            alloc,
            persist,
            _keys: PhantomData,
        }))
    }

    /// Attaches to an existing list after recovery. The durability
    /// strategy is the domain's allocator's — the two can never be a
    /// mismatched pair.
    pub fn attach(head: Loc, smr: Arc<SmrDomain>) -> Self {
        DurableList {
            head,
            alloc: Arc::clone(smr.allocator()),
            persist: Arc::clone(smr.persistence()),
            smr,
            _keys: PhantomData,
        }
    }

    /// The head cell (for re-attachment).
    pub fn head_cell(&self) -> Loc {
        self.head
    }

    fn key_cell(&self, node: Loc) -> Loc {
        node
    }

    fn next_cell(&self, node: Loc) -> Loc {
        Loc::new(node.owner, node.addr.0 + 1)
    }

    /// Defensive traversal bound: recycled cells can in principle form a
    /// cycle; a traversal exceeding this restarts (mutators) or gives up
    /// (snapshots).
    fn step_cap(&self) -> u32 {
        self.alloc.block_area_cells()
    }

    /// The word an unlink installs in the predecessor: the removed
    /// node's successor, except that a null is re-tagged with the
    /// *predecessor's* generation — a node's link cell only ever holds
    /// nulls of its own incarnation (see the module docs). `pred_gen`
    /// is 0 for the head cell, which is never recycled.
    fn unlink_word(&self, next_raw: u64, pred_gen: u64) -> u64 {
        let clean = unmark(next_raw);
        if self.alloc.decode(clean).is_none() {
            Allocator::null_ptr(pred_gen)
        } else {
            clean
        }
    }

    /// Retires `curr`, a node this operation unlinked by the pointer
    /// word `curr_enc`: its generation names the incarnation, so the
    /// drain loads no header.
    fn retire(
        &self,
        guard: &SmrGuard<'_>,
        node: &NodeHandle,
        curr: Loc,
        curr_enc: u64,
    ) -> OpResult<()> {
        guard.retire_incarnation(node, curr, Allocator::ptr_gen(curr_enc), NODE_CELLS)
    }

    /// Finds the first node with key ≥ `key`. Returns
    /// `(pred_cell, pred_gen, expected_in_pred, found)` where `found`
    /// is the encoded current node (null at end of list) whose key, if
    /// any node, is ≥ `key`. Helps unlink marked nodes on the way; the
    /// unlink winner retires them through `guard` (which also keeps
    /// every node this search dereferences out of reuse).
    #[allow(clippy::type_complexity)]
    fn search(
        &self,
        guard: &SmrGuard<'_>,
        node: &NodeHandle,
        key: u64,
    ) -> OpResult<(Loc, u64, u64, Option<u64>)> {
        'retry: loop {
            let mut pred_cell = self.head;
            let mut pred_gen = 0u64;
            let mut curr_enc = self.persist.shared_load(node, pred_cell, true)?;
            let mut steps = 0u32;
            loop {
                debug_assert!(!is_marked(curr_enc), "pred link is never marked");
                let Some(curr) = self.alloc.decode(curr_enc) else {
                    return Ok((pred_cell, pred_gen, curr_enc, None));
                };
                let next_raw = self.persist.shared_load(node, self.next_cell(curr), true)?;
                if is_marked(next_raw) {
                    // Help unlink the logically-deleted node; the winner
                    // of the unlink CAS retires it.
                    let replacement = self.unlink_word(next_raw, pred_gen);
                    if self
                        .persist
                        .shared_cas(node, pred_cell, curr_enc, replacement, true)?
                        .is_err()
                    {
                        continue 'retry;
                    }
                    self.retire(guard, node, curr, curr_enc)?;
                    curr_enc = replacement;
                    continue;
                }
                let k = self.persist.shared_load(node, self.key_cell(curr), true)?;
                if k >= key {
                    return Ok((pred_cell, pred_gen, curr_enc, Some(k)));
                }
                pred_cell = self.next_cell(curr);
                pred_gen = Allocator::ptr_gen(curr_enc);
                curr_enc = next_raw;
                steps += 1;
                if steps > self.step_cap() {
                    continue 'retry;
                }
            }
        }
    }

    /// Inserts `key`; returns `false` if it was already present.
    ///
    /// # Panics
    ///
    /// Panics if `key` is zero or has bit 62/63 set, or if the node
    /// heap stays exhausted while reclamation makes no progress: limbo
    /// is empty, or the epoch is stuck behind a held pin.
    ///
    /// # Errors
    ///
    /// Fails if the issuing machine has crashed.
    pub fn insert(&self, node: &NodeHandle, key: K) -> OpResult<bool> {
        let _span = node.trace_span(crate::trace::OpKind::Insert);
        let key = key.to_word();
        assert!(
            key != 0 && key & (MARK | (MARK >> 1)) == 0,
            "key out of range"
        );
        // Lazily allocated, reused across CAS retries, reclaimed on
        // every non-publishing exit (no leaks on contention).
        let mut spare: Option<crate::alloc::BlockRef> = None;
        let mut guard = self.smr.pin();
        loop {
            let (pred_cell, _, curr_enc, found) = self.search(&guard, node, key)?;
            if found == Some(key) {
                if let Some(n) = spare {
                    // Never published: freeing inline is safe.
                    let _ = self.alloc.free(node, n.loc)?;
                }
                self.persist.complete_op(node)?;
                return Ok(false);
            }
            let n = match spare {
                Some(n) => n,
                None => {
                    let mut stalls = crate::smr::Stalls::new(&self.smr);
                    let n = loop {
                        if let Some(n) = self.alloc.alloc(node, NODE_CELLS)? {
                            break n;
                        }
                        // The region may be exhausted only transiently:
                        // retired nodes waiting out their grace period
                        // are not on the free lists yet. Unpin (so the
                        // epoch can fully advance), reclaim — waiting
                        // out concurrent traversals between empty
                        // attempts — then re-pin and retry, until
                        // `Stalls` calls the exhaustion real.
                        drop(guard);
                        let freed = self.smr.collect(node)?;
                        stalls.after_collect(&self.smr, freed, "list");
                        guard = self.smr.pin();
                    };
                    self.persist
                        .private_store(node, self.key_cell(n.loc), key, true)?;
                    n
                }
            };
            // (Re-)link privately; persist before publication. At the
            // end of the list the new node's null carries its *own*
            // generation (never the stale null read from the
            // predecessor) — the link-cell discipline.
            let link = if self.alloc.decode(curr_enc).is_none() {
                Allocator::null_ptr(n.gen)
            } else {
                curr_enc
            };
            self.persist
                .private_store(node, self.next_cell(n.loc), link, true)?;
            if self
                .persist
                .shared_cas(node, pred_cell, curr_enc, Allocator::encode(n), true)?
                .is_ok()
            {
                self.persist.complete_op(node)?;
                return Ok(true);
            }
            spare = Some(n);
        }
    }

    /// Removes `key`; returns `false` if it was not present. The
    /// unlinked node is retired (by whoever wins the physical unlink)
    /// through the reclamation domain and returns to the allocator once
    /// every concurrent traversal has finished — no quiescence needed.
    ///
    /// # Errors
    ///
    /// Fails if the issuing machine has crashed.
    pub fn remove(&self, node: &NodeHandle, key: K) -> OpResult<bool> {
        let _span = node.trace_span(crate::trace::OpKind::Remove);
        let key = key.to_word();
        let guard = self.smr.pin();
        loop {
            let (pred_cell, pred_gen, curr_enc, found) = self.search(&guard, node, key)?;
            if found != Some(key) {
                self.persist.complete_op(node)?;
                return Ok(false);
            }
            let curr = self.alloc.decode(curr_enc).expect("found implies node");
            let next_raw = self.persist.shared_load(node, self.next_cell(curr), true)?;
            if is_marked(next_raw) {
                continue; // someone else is removing it; retry from search
            }
            // Logical deletion: set the mark (this is the linearization
            // point, persisted by the FliT CAS wrapper). Sound even
            // though the expected value is a fresh read: the epoch pin
            // guarantees `curr`'s cells are not recycled while this
            // operation is in flight.
            if self
                .persist
                .shared_cas(node, self.next_cell(curr), next_raw, next_raw | MARK, true)?
                .is_err()
            {
                continue;
            }
            // Best-effort physical unlink; traversals will help if we
            // fail. The unlink winner — us or a helper — retires.
            if self
                .persist
                .shared_cas(
                    node,
                    pred_cell,
                    curr_enc,
                    self.unlink_word(next_raw, pred_gen),
                    true,
                )?
                .is_ok()
            {
                self.retire(&guard, node, curr, curr_enc)?;
            }
            self.persist.complete_op(node)?;
            return Ok(true);
        }
    }

    /// Runs an explicit reclamation pass on the domain
    /// ([`SmrDomain::collect`]), returning the number of blocks — from
    /// *any* structure on this domain — handed back to the allocator.
    ///
    /// **Deprecated as a requirement**: the pre-SMR quarantine needed a
    /// quiesced `reclaim` call to make churn workloads run in bounded
    /// memory. Retirement now amortizes collection automatically and is
    /// safe under full concurrency, so this is only an optional nudge
    /// (e.g. to ripen everything between workload phases); it no longer
    /// requires quiescence.
    ///
    /// # Errors
    ///
    /// Fails if the issuing machine has crashed.
    pub fn reclaim(&self, node: &NodeHandle) -> OpResult<usize> {
        let freed = self.smr.collect(node)?;
        self.persist.complete_op(node)?;
        Ok(freed)
    }

    /// Membership test. The operation's epoch pin keeps every node it
    /// dereferences out of reuse, so traversals are as safe as in the
    /// classic non-reclaiming Harris list — even against fully
    /// concurrent removal and reclamation.
    ///
    /// # Errors
    ///
    /// Fails if the issuing machine has crashed.
    pub fn contains(&self, node: &NodeHandle, key: K) -> OpResult<bool> {
        let _span = node.trace_span(crate::trace::OpKind::Get);
        let key = key.to_word();
        let guard = self.smr.pin();
        let (_, _, _, found) = self.search(&guard, node, key)?;
        self.persist.complete_op(node)?;
        Ok(found == Some(key))
    }

    /// Snapshot of the keys in order (single-threaded helper; pinned,
    /// so concurrent reclamation cannot recycle nodes under it).
    ///
    /// # Errors
    ///
    /// Fails if the issuing machine has crashed.
    pub fn keys(&self, node: &NodeHandle) -> OpResult<Vec<K>> {
        let _guard = self.smr.pin();
        let mut out = Vec::new();
        let mut curr_enc = unmark(self.persist.shared_load(node, self.head, true)?);
        let mut steps = 0u32;
        while let Some(curr) = self.alloc.decode(curr_enc) {
            let next_raw = self.persist.shared_load(node, self.next_cell(curr), true)?;
            if !is_marked(next_raw) {
                out.push(K::from_word(self.persist.shared_load(
                    node,
                    self.key_cell(curr),
                    true,
                )?));
            }
            curr_enc = unmark(next_raw);
            steps += 1;
            if steps > self.step_cap() {
                break;
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

    fn domain(f: &SimFabric, mem: MachineId) -> Arc<SmrDomain> {
        Arc::new(SmrDomain::new(Arc::new(Allocator::over_region(
            f.config(),
            mem,
            Arc::new(Flit::new(FlitPolicy::CXL0)),
        ))))
    }

    fn setup() -> (Arc<SimFabric>, DurableList) {
        let f = SimFabric::new(SystemConfig::symmetric_nvm(3, 1 << 14));
        let smr = domain(&f, MachineId(2));
        let l = DurableList::create(&smr, &f.node(MachineId(0)))
            .unwrap()
            .unwrap();
        (f, l)
    }

    #[test]
    fn sorted_insert_and_lookup() {
        let (f, l) = setup();
        let node = f.node(MachineId(0));
        for k in [5u64, 1, 9, 3, 7] {
            assert!(l.insert(&node, k).unwrap());
        }
        assert_eq!(l.keys(&node).unwrap(), vec![1, 3, 5, 7, 9]);
        assert!(l.contains(&node, 3).unwrap());
        assert!(!l.contains(&node, 4).unwrap());
        assert!(!l.insert(&node, 7).unwrap()); // duplicate
    }

    #[test]
    fn remove_retires_and_collect_recycles() {
        let (f, l) = setup();
        let node = f.node(MachineId(0));
        for k in 1..=5u64 {
            l.insert(&node, k).unwrap();
        }
        assert!(l.remove(&node, 3).unwrap());
        assert!(!l.remove(&node, 3).unwrap());
        assert_eq!(l.keys(&node).unwrap(), vec![1, 2, 4, 5]);
        // The unlinked node waits out its grace period in limbo; with
        // no traversal in flight one explicit pass ripens it.
        assert_eq!(l.reclaim(&node).unwrap(), 1);
        assert_eq!(l.reclaim(&node).unwrap(), 0);
        assert!(l.insert(&node, 3).unwrap());
        assert_eq!(l.keys(&node).unwrap(), vec![1, 2, 3, 4, 5]);
    }

    #[test]
    #[should_panic(expected = "list heap exhausted")]
    fn exhausted_heap_with_empty_limbo_panics() {
        let f = SimFabric::new(SystemConfig::symmetric_nvm(2, 256));
        let smr = domain(&f, MachineId(1));
        let node = f.node(MachineId(0));
        let l: DurableList = DurableList::create(&smr, &node).unwrap().unwrap();
        // Nothing is ever removed: limbo stays empty.
        for k in 1..=256u64 {
            l.insert(&node, k).unwrap();
        }
    }

    #[test]
    #[should_panic(expected = "list heap exhausted")]
    fn exhausted_heap_behind_a_held_pin_panics() {
        let f = SimFabric::new(SystemConfig::symmetric_nvm(2, 256));
        let smr = domain(&f, MachineId(1));
        let node = f.node(MachineId(0));
        let l: DurableList = DurableList::create(&smr, &node).unwrap().unwrap();
        // A pin held across the churn: the epoch advances at most once
        // past it, so the blocks the removals retire never ripen.
        let _held = smr.pin();
        for i in 0..256u64 {
            let k = i % 7 + 1;
            l.insert(&node, k).unwrap();
            l.remove(&node, k).unwrap();
        }
    }

    #[test]
    fn insert_remove_churn_runs_in_bounded_memory() {
        let f = SimFabric::new(SystemConfig::symmetric_nvm(2, 256));
        let smr = domain(&f, MachineId(1));
        let node = f.node(MachineId(0));
        let l: DurableList = DurableList::create(&smr, &node).unwrap().unwrap();
        // No reclaim calls anywhere: amortized collection alone must
        // keep a tiny region from exhausting.
        for i in 0..500u64 {
            let k = i % 7 + 1;
            assert!(l.insert(&node, k).unwrap(), "op {i}");
            assert!(l.remove(&node, k).unwrap(), "op {i}");
        }
        let stats = smr.allocator().stats();
        assert!(stats.freelist_hits > 400, "hits {}", stats.freelist_hits);
        assert!(smr.limbo_len() < 32, "limbo {}", smr.limbo_len());
    }

    #[test]
    fn concurrent_disjoint_inserts() {
        let (f, l) = setup();
        let mut handles = Vec::new();
        for t in 0..4u64 {
            let l = l.clone();
            let node = f.node(MachineId((t % 2) as usize));
            handles.push(std::thread::spawn(move || {
                for i in 0..100 {
                    assert!(l.insert(&node, t * 1000 + i + 1).unwrap());
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let node = f.node(MachineId(0));
        let keys = l.keys(&node).unwrap();
        assert_eq!(keys.len(), 400);
        assert!(keys.windows(2).all(|w| w[0] < w[1]), "sorted");
    }

    #[test]
    fn concurrent_insert_remove_same_keys() {
        let (f, l) = setup();
        let node0 = f.node(MachineId(0));
        for k in 1..=64u64 {
            l.insert(&node0, k).unwrap();
        }
        let mut handles = Vec::new();
        for t in 0..4usize {
            let l = l.clone();
            let node = f.node(MachineId(t % 2));
            handles.push(std::thread::spawn(move || {
                for round in 0..50u64 {
                    let k = (round * 7 + t as u64 * 13) % 64 + 1;
                    if (round + t as u64).is_multiple_of(2) {
                        let _ = l.remove(&node, k).unwrap();
                    } else {
                        let _ = l.insert(&node, k).unwrap();
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        // The list must still be sorted and duplicate-free, and the
        // contended churn must have retired (and mostly reclaimed)
        // nodes along the way.
        let keys = l.keys(&node0).unwrap();
        assert!(keys.windows(2).all(|w| w[0] < w[1]), "{keys:?}");
        assert!(
            l.smr.stats().retires > 0,
            "contended churn must have retired nodes"
        );
        l.reclaim(&node0).unwrap();
        assert_eq!(l.smr.limbo_len(), 0, "quiescent pass drains limbo");
    }

    #[test]
    fn contents_survive_memory_node_crash() {
        let (f, l) = setup();
        let node = f.node(MachineId(0));
        for k in [2u64, 4, 6] {
            l.insert(&node, k).unwrap();
        }
        l.remove(&node, 4).unwrap();
        f.crash(MachineId(2));
        f.recover(MachineId(2));
        assert_eq!(l.keys(&node).unwrap(), vec![2, 6]);
        assert!(!l.contains(&node, 4).unwrap());
    }

    /// Seeded-bug detection: replay the removal protocol but free the
    /// unlinked node inline instead of retiring it through the epoch
    /// domain — the exact mistake the module docs warn about. A pinned
    /// traversal then touches the reclaimed node, which the sanitizer
    /// reports as a use-after-retire. The sound retire path right
    /// before it must stay silent.
    #[test]
    fn sanitizer_flags_inline_free_instead_of_retire() {
        use crate::check::{CheckConfig, Checker, ViolationClass};
        let f = SimFabric::new(SystemConfig::symmetric_nvm(3, 1 << 14));
        let ck = Arc::new(Checker::new(CheckConfig {
            fail_fast: false,
            ..CheckConfig::default()
        }));
        f.install_checker(Arc::clone(&ck));
        let smr = domain(&f, MachineId(2));
        ck.attach_smr(Arc::clone(&smr));
        let node = f.node(MachineId(0));
        let l: DurableList = DurableList::create(&smr, &node).unwrap().unwrap();
        for k in [2u64, 4, 6] {
            l.insert(&node, k).unwrap();
        }
        // Sound removal (unlink + retire) and a traversal over the
        // retired node's grace period: silent.
        assert!(l.remove(&node, 4).unwrap());
        assert!(l.contains(&node, 6).unwrap());
        assert_eq!(ck.use_after_retire(), 0, "retire-based removal is clean");
        // The bug: unlink 6 by hand, then free inline while a pinned
        // traversal (this thread's own guard) is still in flight.
        let guard = l.smr.pin();
        let (pred_cell, pred_gen, curr_enc, found) = l.search(&guard, &node, 6).unwrap();
        assert_eq!(found, Some(6));
        let curr = l.alloc.decode(curr_enc).expect("found implies node");
        let next_raw = l
            .persist
            .shared_load(&node, l.next_cell(curr), true)
            .unwrap();
        l.persist
            .shared_cas(&node, l.next_cell(curr), next_raw, next_raw | MARK, true)
            .unwrap()
            .unwrap();
        l.persist
            .shared_cas(
                &node,
                pred_cell,
                curr_enc,
                l.unlink_word(next_raw, pred_gen),
                true,
            )
            .unwrap()
            .unwrap();
        // Should have been `guard.retire(&node, curr)`.
        l.alloc.free(&node, curr).unwrap().unwrap();
        // The pinned "traversal" dereferences the reclaimed node.
        let _ = l
            .persist
            .shared_load(&node, l.key_cell(curr), true)
            .unwrap();
        drop(guard);
        assert_eq!(
            ck.use_after_retire(),
            1,
            "pinned access to an inline-freed node is a use-after-retire"
        );
        let v = ck.violations().pop().expect("one violation recorded");
        assert_eq!(v.class, ViolationClass::UseAfterRetire);
        assert_eq!(v.loc, l.key_cell(curr), "blamed at the reclaimed cell");
    }

    #[test]
    #[should_panic(expected = "key out of range")]
    fn zero_key_rejected() {
        let (f, l) = setup();
        let node = f.node(MachineId(0));
        let _ = l.insert(&node, 0);
    }
}
