//! [`Session`]: the per-node programming context — a [`NodeHandle`]
//! bundled with the cluster's heap, durability strategy and named-root
//! registry, so application code creates, opens and drives durable
//! structures without threading any of those through every call.

use std::ops::Deref;
use std::sync::Arc;

use cxl0_model::Loc;

use crate::alloc::Allocator;
use crate::api::cluster::Cluster;
use crate::api::error::{ApiError, ApiResult};
use crate::api::registry::{truncate_type_tag, RootInfo, RootKind, RootRecord};
use crate::api::word::Word;
use crate::backend::{NodeHandle, StatsSnapshot};
use crate::ds::{
    DurableCounter, DurableList, DurableLog, DurableMap, DurableQueue, DurableRegister,
    DurableStack,
};
use crate::flit::Persistence;
use crate::heap::SharedHeap;
use crate::smr::SmrDomain;
use crate::trace::RecoveryPhase;

/// A per-machine context over a [`Cluster`].
///
/// A session is its machine's [`NodeHandle`] plus the cluster's context,
/// and it dereferences to that handle: data-structure operations take
/// `&NodeHandle`, so `q.enqueue(&session, v)` is the whole calling
/// convention. Sessions are cheap to clone and one per worker thread is
/// the intended pattern.
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
/// q.enqueue(&session, 7)?;
///
/// // The memory node crashes; NVM survives, caches do not.
/// cluster.crash(cluster.memory_node());
/// cluster.recover(cluster.memory_node());
///
/// // Reattach by name — no header locations replayed through volatile
/// // state — and repair the tail.
/// let q = session.open_queue::<u64>("jobs")?;
/// q.recover(&session)?;
/// assert_eq!(q.dequeue(&session)?, Some(7));
/// # Ok::<(), cxl0_runtime::api::ApiError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Session {
    cluster: Arc<Cluster>,
    node: NodeHandle,
    entered: StatsSnapshot,
}

impl Deref for Session {
    type Target = NodeHandle;

    fn deref(&self) -> &NodeHandle {
        &self.node
    }
}

impl Session {
    pub(crate) fn new(cluster: Arc<Cluster>, node: NodeHandle) -> Self {
        let entered = cluster.stats_snapshot();
        Session {
            cluster,
            node,
            entered,
        }
    }

    /// The raw per-machine handle, which the session also dereferences
    /// to (primitives like `mstore`/`rflush`/`aflush` live there).
    pub fn node(&self) -> &NodeHandle {
        &self.node
    }

    /// The owning cluster.
    pub fn cluster(&self) -> &Arc<Cluster> {
        &self.cluster
    }

    /// The cluster's raw bump heap (cells taken here bypass the
    /// allocator and are never reclaimed).
    pub fn heap(&self) -> &Arc<SharedHeap> {
        self.cluster.heap()
    }

    /// The cluster's crash-consistent allocator.
    pub fn allocator(&self) -> &Arc<Allocator> {
        self.cluster.allocator()
    }

    /// The cluster's durability strategy.
    pub fn persistence(&self) -> &Arc<dyn Persistence> {
        self.cluster.persistence()
    }

    /// The cluster's epoch-based reclamation domain (see
    /// [`crate::smr`]): what the traversal structures opened through
    /// this session pin and retire through.
    pub fn smr(&self) -> &Arc<SmrDomain> {
        self.cluster.smr()
    }

    /// Fabric *and allocator* statistics accumulated since this session
    /// was created — the snapshot-on-entry + diff dance every benchmark
    /// used to hand-roll. Alongside the primitive counters, the delta
    /// reports memory behavior: `allocs`, `frees`, `freelist_hits`
    /// (diffed) and the `live_cells`/`hw_cells` gauges (current values).
    ///
    /// Note the counters are fabric-wide: with concurrent sessions the
    /// delta covers everyone's operations in the window. Counters are
    /// striped over per-thread stripes internally, so each snapshot is
    /// an aggregation: exact for operations on threads that have been
    /// joined (or otherwise happen-before the call), like any relaxed
    /// counter read for still-running ones.
    pub fn stats_delta(&self) -> StatsSnapshot {
        self.cluster.stats_snapshot().since(&self.entered)
    }

    /// Under [`PersistMode::Buffered`](crate::api::PersistMode::Buffered),
    /// commits an epoch (see [`BufferedEpoch::sync`]); returns the new
    /// epoch number, or `None` when the cluster runs a strict strategy.
    ///
    /// [`BufferedEpoch::sync`]: crate::buffered::BufferedEpoch::sync
    ///
    /// # Errors
    ///
    /// Fails if this machine has crashed.
    pub fn sync(&self) -> ApiResult<Option<u64>> {
        match self.cluster.buffered() {
            Some(epoch) => Ok(Some(epoch.sync(&self.node)?)),
            None => Ok(None),
        }
    }

    /// Every committed named root, in registry order.
    ///
    /// # Errors
    ///
    /// Fails if this machine has crashed.
    pub fn roots(&self) -> ApiResult<Vec<RootInfo>> {
        Ok(self.cluster.directory().roots(&self.node)?)
    }

    /// Post-crash repair of the shared durable plumbing, in order:
    /// replays the buffered epoch's recovery (when the cluster runs
    /// [`PersistMode::Buffered`](crate::api::PersistMode::Buffered)),
    /// runs the allocator's recovery sweep
    /// ([`Allocator::recover`]: latched alloc/free intents sealed, the
    /// blocks of torn pops and torn free chains put back onto their
    /// free lists, stale intents ignored), sweeps the reclamation domain's volatile
    /// limbo bags back to the free lists
    /// ([`SmrDomain::recover`](crate::smr::SmrDomain::recover): retired
    /// blocks are already durably unlinked, so post-crash they are
    /// plain free memory), and seals registry entries left *pending* by
    /// creators that crashed between claim and commit, making those
    /// names creatable again. Must run quiesced (no concurrent
    /// operations), like the structures' own `recover` methods.
    ///
    /// Returns the number of sealed registry entries.
    ///
    /// # Errors
    ///
    /// Fails if this machine has crashed.
    pub fn recover_roots(&self) -> ApiResult<usize> {
        // Each phase is timed unconditionally (even when it has nothing
        // to do) so the tracer's recovery breakdown always carries all
        // four rows — a stable schema for dashboards and the bench.
        self.node.trace_begin_recovery();
        {
            let _t = self.node.trace_phase(RecoveryPhase::BufferedReplay);
            if let Some(epoch) = self.cluster.buffered() {
                epoch.recover(&self.node)?;
            }
        }
        {
            let _t = self.node.trace_phase(RecoveryPhase::AllocatorSweep);
            self.cluster.allocator().recover(&self.node)?;
        }
        {
            let _t = self.node.trace_phase(RecoveryPhase::SmrDrain);
            self.cluster.smr().recover(&self.node)?;
        }
        let _t = self.node.trace_phase(RecoveryPhase::RegistrySeal);
        Ok(self.cluster.directory().recover(&self.node)?)
    }

    /// The shared create flow: **claim the name first** (so a routine
    /// conflict — exists/pending/registry full — is side-effect-free and
    /// leaks no heap cells), then allocate and initialize the structure,
    /// then commit. A crash between claim and commit leaves a pending
    /// entry that [`Session::recover_roots`] seals; an allocation
    /// failure aborts the claim explicitly.
    fn create_root<S>(
        &self,
        name: &str,
        kind: RootKind,
        tag: u64,
        make: impl FnOnce() -> ApiResult<Option<(S, Loc, u32)>>,
    ) -> ApiResult<S> {
        let dir = self.cluster.directory();
        let claim = dir.claim(&self.node, name)?;
        let (structure, header, aux) = match make() {
            Ok(Some(made)) => made,
            Ok(None) => {
                dir.abort(&self.node, &claim)?;
                return Err(ApiError::HeapExhausted);
            }
            // Crashed mid-init: the pending claim is sealed by recovery,
            // like any other torn create.
            Err(e) => return Err(e),
        };
        dir.commit(
            &self.node,
            &claim,
            name,
            RootRecord {
                kind,
                header,
                aux,
                type_tag: tag,
            },
        )?;
        Ok(structure)
    }

    fn lookup(&self, name: &str, kind: RootKind, tag: u64) -> ApiResult<RootInfo> {
        let info = self.cluster.directory().lookup(&self.node, name)?;
        if info.kind != kind {
            return Err(ApiError::KindMismatch {
                name: name.to_string(),
                expected: kind,
                found: info.kind,
            });
        }
        if info.type_tag != truncate_type_tag(tag) {
            return Err(ApiError::TypeMismatch {
                name: name.to_string(),
            });
        }
        Ok(info)
    }

    /// Creates and registers a durable register under `name`.
    ///
    /// # Errors
    ///
    /// [`ApiError::AlreadyExists`] if the name is taken,
    /// [`ApiError::HeapExhausted`], registry and crash errors.
    pub fn create_register<T: Word>(&self, name: &str) -> ApiResult<DurableRegister<T>> {
        self.create_root(name, RootKind::Register, T::TAG, || {
            Ok(
                DurableRegister::<T>::create(self.heap(), Arc::clone(self.persistence()))
                    .map(|r| (r.cell(), r))
                    .map(|(c, r)| (r, c, 0)),
            )
        })
    }

    /// Reattaches to the durable register committed under `name`.
    ///
    /// # Errors
    ///
    /// [`ApiError::NotFound`], [`ApiError::KindMismatch`],
    /// [`ApiError::TypeMismatch`], crash errors.
    pub fn open_register<T: Word>(&self, name: &str) -> ApiResult<DurableRegister<T>> {
        let info = self.lookup(name, RootKind::Register, T::TAG)?;
        Ok(DurableRegister::attach(
            info.header,
            Arc::clone(self.persistence()),
        ))
    }

    /// Creates and registers a durable counter under `name`.
    ///
    /// # Errors
    ///
    /// As [`Session::create_register`].
    pub fn create_counter(&self, name: &str) -> ApiResult<DurableCounter> {
        self.create_root(name, RootKind::Counter, u64::TAG, || {
            Ok(
                DurableCounter::create(self.heap(), Arc::clone(self.persistence()))
                    .map(|c| (c.cell(), c))
                    .map(|(cell, c)| (c, cell, 0)),
            )
        })
    }

    /// Reattaches to the durable counter committed under `name`.
    ///
    /// # Errors
    ///
    /// As [`Session::open_register`].
    pub fn open_counter(&self, name: &str) -> ApiResult<DurableCounter> {
        let info = self.lookup(name, RootKind::Counter, u64::TAG)?;
        Ok(DurableCounter::attach(
            info.header,
            Arc::clone(self.persistence()),
        ))
    }

    /// Creates, initializes and registers a durable queue under `name`.
    ///
    /// # Errors
    ///
    /// As [`Session::create_register`].
    pub fn create_queue<T: Word>(&self, name: &str) -> ApiResult<DurableQueue<T>> {
        self.create_root(name, RootKind::Queue, T::TAG, || {
            let Some(q) = DurableQueue::<T>::create(self.allocator(), &self.node)? else {
                return Ok(None);
            };
            let header = q.header_cell();
            Ok(Some((q, header, 0)))
        })
    }

    /// Reattaches to the durable queue committed under `name`. Call
    /// [`DurableQueue::recover`] afterwards when reattaching post-crash.
    ///
    /// # Errors
    ///
    /// As [`Session::open_register`].
    pub fn open_queue<T: Word>(&self, name: &str) -> ApiResult<DurableQueue<T>> {
        let info = self.lookup(name, RootKind::Queue, T::TAG)?;
        Ok(DurableQueue::attach(
            info.header,
            Arc::clone(self.allocator()),
        ))
    }

    /// Creates and registers a durable stack under `name`.
    ///
    /// # Errors
    ///
    /// As [`Session::create_register`].
    pub fn create_stack<T: Word>(&self, name: &str) -> ApiResult<DurableStack<T>> {
        self.create_root(name, RootKind::Stack, T::TAG, || {
            Ok(DurableStack::<T>::create(self.allocator(), &self.node)?
                .map(|s| (s.top_cell(), s))
                .map(|(top, s)| (s, top, 0)))
        })
    }

    /// Reattaches to the durable stack committed under `name`.
    ///
    /// # Errors
    ///
    /// As [`Session::open_register`].
    pub fn open_stack<T: Word>(&self, name: &str) -> ApiResult<DurableStack<T>> {
        let info = self.lookup(name, RootKind::Stack, T::TAG)?;
        Ok(DurableStack::attach(
            info.header,
            Arc::clone(self.allocator()),
        ))
    }

    /// Creates and registers a durable hash map with `capacity` slots
    /// (rounded up to a power of two) under `name`.
    ///
    /// The registry records both key and value fingerprints (combined),
    /// so `open_map` with swapped `K`/`V` is a type mismatch.
    ///
    /// # Errors
    ///
    /// As [`Session::create_register`].
    pub fn create_map<K: Word, V: Word>(
        &self,
        name: &str,
        capacity: u32,
    ) -> ApiResult<DurableMap<K, V>> {
        self.create_root(name, RootKind::Map, map_tag::<K, V>(), || {
            Ok(
                DurableMap::<K, V>::create(self.smr(), &self.node, capacity)?.map(|m| {
                    let (header, rounded) = m.layout();
                    (m, header, rounded)
                }),
            )
        })
    }

    /// Reattaches to the durable map committed under `name`.
    ///
    /// # Errors
    ///
    /// As [`Session::open_register`].
    pub fn open_map<K: Word, V: Word>(&self, name: &str) -> ApiResult<DurableMap<K, V>> {
        let info = self.lookup(name, RootKind::Map, map_tag::<K, V>())?;
        Ok(DurableMap::attach(
            info.header,
            info.aux,
            Arc::clone(self.smr()),
        ))
    }

    /// Creates and registers a durable shared log with `capacity` slots
    /// under `name`.
    ///
    /// # Errors
    ///
    /// As [`Session::create_register`].
    pub fn create_log<T: Word>(&self, name: &str, capacity: u32) -> ApiResult<DurableLog<T>> {
        self.create_root(name, RootKind::Log, T::TAG, || {
            Ok(
                DurableLog::<T>::create(self.heap(), capacity, Arc::clone(self.persistence())).map(
                    |log| {
                        let tail = log.tail_cell();
                        (log, tail, capacity)
                    },
                ),
            )
        })
    }

    /// Reattaches to the durable log committed under `name`. Call
    /// [`DurableLog::recover`] afterwards to seal crashed writers' holes.
    ///
    /// # Errors
    ///
    /// As [`Session::open_register`].
    pub fn open_log<T: Word>(&self, name: &str) -> ApiResult<DurableLog<T>> {
        let info = self.lookup(name, RootKind::Log, T::TAG)?;
        Ok(DurableLog::attach(
            info.header,
            info.aux,
            Arc::clone(self.persistence()),
        ))
    }

    /// Creates and registers a durable sorted set under `name`.
    ///
    /// # Errors
    ///
    /// As [`Session::create_register`].
    pub fn create_list<K: Word>(&self, name: &str) -> ApiResult<DurableList<K>> {
        self.create_root(name, RootKind::List, K::TAG, || {
            Ok(DurableList::<K>::create(self.smr(), &self.node)?
                .map(|l| (l.head_cell(), l))
                .map(|(head, l)| (l, head, 0)))
        })
    }

    /// Reattaches to the durable sorted set committed under `name`.
    ///
    /// # Errors
    ///
    /// As [`Session::open_register`].
    pub fn open_list<K: Word>(&self, name: &str) -> ApiResult<DurableList<K>> {
        let info = self.lookup(name, RootKind::List, K::TAG)?;
        Ok(DurableList::attach(info.header, Arc::clone(self.smr())))
    }

    /// Testing hook: claim `name` in the registry without committing —
    /// the state a creator crashing between claim and commit leaves
    /// behind. Sealed by [`Session::recover_roots`].
    #[doc(hidden)]
    pub fn simulate_torn_create(&self, name: &str) -> ApiResult<()> {
        self.cluster.directory().claim(&self.node, name).map(|_| ())
    }
}

/// Combined fingerprint for a map's key and value types.
fn map_tag<K: Word, V: Word>() -> u64 {
    K::TAG.rotate_left(1).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ V::TAG
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::cluster::PersistMode;
    use cxl0_model::{MachineId, SystemConfig};

    fn cluster() -> Arc<Cluster> {
        Cluster::builder(SystemConfig::symmetric_nvm(3, 1 << 14))
            .build()
            .unwrap()
    }

    #[test]
    fn create_open_round_trip_all_kinds() {
        let c = cluster();
        let s = c.session(MachineId(0));

        let reg = s.create_register::<u64>("reg").unwrap();
        reg.write(&s, 5).unwrap();
        let ctr = s.create_counter("ctr").unwrap();
        ctr.add(&s, 3).unwrap();
        let q = s.create_queue::<u64>("q").unwrap();
        q.enqueue(&s, 1).unwrap();
        let st = s.create_stack::<u64>("st").unwrap();
        st.push(&s, 2).unwrap();
        let m = s.create_map::<u64, u64>("m", 16).unwrap();
        m.insert(&s, 7, 70).unwrap();
        let log = s.create_log::<u64>("log", 8).unwrap();
        log.append(&s, 9).unwrap();
        let l = s.create_list::<u64>("l").unwrap();
        l.insert(&s, 4).unwrap();

        // Reattach every kind by name, from a different machine.
        let s2 = c.session(MachineId(1));
        assert_eq!(
            s2.open_register::<u64>("reg").unwrap().read(&s2).unwrap(),
            5
        );
        assert_eq!(s2.open_counter("ctr").unwrap().get(&s2).unwrap(), 3);
        assert_eq!(
            s2.open_queue::<u64>("q").unwrap().dequeue(&s2).unwrap(),
            Some(1)
        );
        assert_eq!(
            s2.open_stack::<u64>("st").unwrap().pop(&s2).unwrap(),
            Some(2)
        );
        assert_eq!(
            s2.open_map::<u64, u64>("m").unwrap().get(&s2, 7).unwrap(),
            Some(70)
        );
        assert_eq!(
            s2.open_log::<u64>("log").unwrap().scan(&s2).unwrap(),
            vec![(0, 9)]
        );
        assert!(s2.open_list::<u64>("l").unwrap().contains(&s2, 4).unwrap());
        assert_eq!(s2.roots().unwrap().len(), 7);
    }

    #[test]
    fn duplicate_names_and_missing_names_error() {
        let c = cluster();
        let s = c.session(MachineId(0));
        s.create_counter("x").unwrap();
        assert_eq!(
            s.create_counter("x").err(),
            Some(ApiError::AlreadyExists("x".into()))
        );
        assert_eq!(
            s.open_counter("y").err(),
            Some(ApiError::NotFound("y".into()))
        );
    }

    #[test]
    fn kind_and_type_mismatches_are_rejected() {
        let c = cluster();
        let s = c.session(MachineId(0));
        s.create_queue::<u64>("jobs").unwrap();
        assert!(matches!(
            s.open_stack::<u64>("jobs").err(),
            Some(ApiError::KindMismatch { .. })
        ));
        assert_eq!(
            s.open_queue::<i64>("jobs").err(),
            Some(ApiError::TypeMismatch {
                name: "jobs".into()
            })
        );
        s.create_map::<u64, u32>("idx", 8).unwrap();
        assert!(s.open_map::<u64, u32>("idx").is_ok());
        assert!(matches!(
            s.open_map::<u32, u64>("idx").err(),
            Some(ApiError::TypeMismatch { .. })
        ));
    }

    #[test]
    fn torn_create_blocks_the_name_until_sealed() {
        let c = cluster();
        let s = c.session(MachineId(0));
        s.simulate_torn_create("jobs").unwrap();
        assert_eq!(
            s.create_queue::<u64>("jobs").err(),
            Some(ApiError::PendingRoot("jobs".into()))
        );
        assert_eq!(
            s.open_queue::<u64>("jobs").err(),
            Some(ApiError::NotFound("jobs".into()))
        );
        assert_eq!(s.recover_roots().unwrap(), 1);
        let q = s.create_queue::<u64>("jobs").unwrap();
        q.enqueue(&s, 1).unwrap();
        assert_eq!(
            s.open_queue::<u64>("jobs").unwrap().dequeue(&s).unwrap(),
            Some(1)
        );
    }

    #[test]
    fn failed_creates_leak_no_heap_cells() {
        let c = cluster();
        let s = c.session(MachineId(0));
        s.create_map::<u64, u64>("idx", 64).unwrap();
        let free = c.heap().remaining();
        // Name conflicts are detected before allocation: the claim-first
        // flow keeps routine failures side-effect-free.
        assert!(s.create_map::<u64, u64>("idx", 64).is_err());
        assert!(s.create_queue::<u64>("idx").is_err());
        s.simulate_torn_create("stuck").unwrap();
        assert!(s.create_counter("stuck").is_err());
        assert_eq!(c.heap().remaining(), free);
    }

    #[test]
    fn roots_survive_memory_node_crash() {
        let c = cluster();
        let mem = c.memory_node();
        let s = c.session(MachineId(0));
        let reg = s.create_register::<bool>("flag").unwrap();
        reg.write(&s, true).unwrap();
        c.crash(mem);
        assert!(matches!(
            c.session(mem).roots().err(),
            Some(ApiError::Crashed(_))
        ));
        c.recover(mem);
        assert_eq!(s.recover_roots().unwrap(), 0);
        let reg = s.open_register::<bool>("flag").unwrap();
        assert!(reg.read(&s).unwrap());
    }

    #[test]
    fn stats_delta_counts_only_since_entry() {
        let c = cluster();
        let warm = c.session(MachineId(0));
        let reg = warm.create_register::<u64>("r").unwrap();
        reg.write(&warm, 1).unwrap();
        let fresh = c.session(MachineId(0));
        assert_eq!(fresh.stats_delta().total_ops(), 0);
        reg.write(&fresh, 2).unwrap();
        let d = fresh.stats_delta();
        assert!(d.total_ops() > 0);
        assert!(warm.stats_delta().total_ops() > d.total_ops());
    }

    #[test]
    fn buffered_session_sync_and_rollback() {
        let c = Cluster::builder(SystemConfig::symmetric_nvm(2, 1 << 12))
            .persist(PersistMode::Buffered {
                capacity: 64,
                sync_interval: 0,
            })
            .build()
            .unwrap();
        let mem = c.memory_node();
        let s = c.session(MachineId(0));
        let reg = s.create_register::<u64>("r").unwrap();
        reg.write(&s, 1).unwrap();
        assert!(s.sync().unwrap().is_some()); // checkpoint: 1 durable
        reg.write(&s, 2).unwrap(); // not yet durable
        c.crash(mem);
        c.recover(mem);
        s.recover_roots().unwrap(); // replays the committed epoch
        let reg = s.open_register::<u64>("r").unwrap();
        assert_eq!(reg.read(&s).unwrap(), 1);
    }

    #[test]
    fn strict_session_sync_is_none() {
        let c = cluster();
        let s = c.session(MachineId(0));
        assert_eq!(s.sync().unwrap(), None);
    }
}
