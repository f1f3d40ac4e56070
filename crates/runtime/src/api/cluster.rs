//! [`ClusterBuilder`] → [`Cluster`]: one value that owns the whole
//! deployment — topology, durability strategy and the named-root
//! registry — so application code never hand-assembles fabric + heap +
//! persistence again.

use std::collections::HashMap;
use std::sync::Arc;

use cxl0_model::{Loc, MachineId, SystemConfig};
use parking_lot::Mutex;

use crate::alloc::{Allocator, META_CELLS};
use crate::api::error::{ApiError, ApiResult};
use crate::api::registry::{region_cells, RootDirectory};
use crate::api::session::Session;
use crate::backend::{SimFabric, Stats, StatsSnapshot};
use crate::buffered::BufferedEpoch;
use crate::check::{CheckConfig, Checker};
use crate::ds::combine::{Combinable, CombineBoard, CombineStats, Combined};
use crate::flit::{Flit, FlitPolicy, Persistence};
use crate::heap::SharedHeap;
use crate::smr::SmrDomain;
use crate::trace::{TraceConfig, Tracer};

/// Which durability strategy a [`Cluster`] wires its structures to —
/// choosing one is a one-line configuration change instead of a type
/// swap.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PersistMode {
    /// FliT adapted to CXL0 (Algorithm 2): every flagged access is
    /// durable before its operation returns. The recommended default.
    FlitCxl0,
    /// [`PersistMode::FlitCxl0`] with the §6.1 owner-flush optimisation.
    OwnerOpt,
    /// The *unadapted* x86 FliT — **deliberately unsound** under partial
    /// crashes; kept for the §6 motivating comparison.
    FlitX86,
    /// FliT's Algorithm 1 on the `CXL0_AF` asynchronous-flush extension:
    /// helping flushes defer to one overlapped barrier per operation.
    FlitAsync,
    /// Every flagged store is an `MStore`: correct without flushes, but
    /// pays the memory round trip on every write.
    NaiveMStore,
    /// No durability at all: plain linearizable objects.
    None,
    /// Buffered durability (§8): flush-free fast path, epoch syncs with a
    /// redo log, rollback recovery — *buffered* durably linearizable.
    Buffered {
        /// Distinct tracked cells per epoch (snapshot region size).
        capacity: u32,
        /// Auto-[`sync`](BufferedEpoch::sync) every this many completed
        /// operations (`0` = manual syncs only).
        sync_interval: usize,
    },
}

/// The one mode → policy map, in report order: baseline first, then the
/// unsound port, the sound transformations, and the naive one. Every
/// [`PersistMode`] accessor reads it; [`PersistMode::Buffered`] (any
/// parameters) is the row that is not here.
const FLIT_MODES: [(PersistMode, FlitPolicy); 6] = [
    (PersistMode::None, FlitPolicy::NONE),
    (PersistMode::FlitX86, FlitPolicy::X86),
    (PersistMode::FlitCxl0, FlitPolicy::CXL0),
    (PersistMode::OwnerOpt, FlitPolicy::OWNER_OPT),
    (PersistMode::FlitAsync, FlitPolicy::ASYNC),
    (PersistMode::NaiveMStore, FlitPolicy::NAIVE_MSTORE),
];

impl PersistMode {
    /// The [`FlitPolicy`] this mode runs under: what [`Flit`] executes
    /// for the six FliT-shaped modes, and the descriptor
    /// [`FlitPolicy::BUFFERED`] for the buffered one.
    pub fn policy(&self) -> FlitPolicy {
        FLIT_MODES
            .iter()
            .find(|(mode, _)| mode == self)
            .map_or(FlitPolicy::BUFFERED, |(_, policy)| *policy)
    }

    /// The strategy's report name (equals [`Persistence::name`] of the
    /// strategy a cluster builds for this mode).
    pub fn name(&self) -> &'static str {
        self.policy().name
    }

    /// The standard strategy-comparison lineup, in report order: baseline
    /// first, then the unsound port, the sound transformations, and the
    /// naive one.
    pub fn comparison_set() -> Vec<PersistMode> {
        FLIT_MODES.iter().map(|(mode, _)| *mode).collect()
    }

    /// True if a completed operation is guaranteed durable before it
    /// returns (the strict, per-operation durability modes).
    pub fn is_strict(&self) -> bool {
        self.policy().strict
    }
}

/// Configures and builds a [`Cluster`].
///
/// # Examples
///
/// ```
/// use cxl0_runtime::api::{Cluster, PersistMode};
/// use cxl0_model::SystemConfig;
///
/// let cluster = Cluster::builder(SystemConfig::symmetric_nvm(3, 4096))
///     .persist(PersistMode::FlitCxl0)
///     .build()?;
/// assert_eq!(cluster.memory_node().index(), 2);
/// # Ok::<(), cxl0_runtime::api::ApiError>(())
/// ```
#[derive(Debug, Clone)]
pub struct ClusterBuilder {
    cfg: SystemConfig,
    mode: PersistMode,
    memory_node: Option<MachineId>,
    root_capacity: u32,
    checker: Option<CheckConfig>,
    tracing: Option<TraceConfig>,
}

impl ClusterBuilder {
    /// Starts from a topology. Defaults: [`PersistMode::FlitCxl0`], the
    /// highest-indexed machine with shared locations as the memory node,
    /// 32 registry entries. The fabric always runs the base variant under
    /// the Figure-5 cost table ([`SimFabric::new`]).
    pub fn new(cfg: SystemConfig) -> Self {
        ClusterBuilder {
            cfg,
            mode: PersistMode::FlitCxl0,
            memory_node: None,
            root_capacity: 32,
            checker: None,
            tracing: None,
        }
    }

    /// Sets the durability strategy.
    pub fn persist(mut self, mode: PersistMode) -> Self {
        self.mode = mode;
        self
    }

    /// Overrides which machine hosts the shared heap and the named-root
    /// registry.
    pub fn memory_node(mut self, m: MachineId) -> Self {
        self.memory_node = Some(m);
        self
    }

    /// Sets the named-root registry size, in entries (the registry
    /// reserves one more entry's cells for its header). `0` disables the
    /// registry (no segment cells reserved; `create_*`/`open_*` with
    /// names will fail with [`ApiError::RegistryFull`]).
    pub fn root_capacity(mut self, entries: u32) -> Self {
        self.root_capacity = entries;
        self
    }

    /// Arms the persistency sanitizer ([`crate::check`]) with an explicit
    /// configuration. Without this call, setting `CXL0_SANITIZE=1` in the
    /// environment arms a mode-derived configuration instead (durability
    /// races only under strict modes; fail-fast except under the
    /// deliberately unsound [`PersistMode::FlitX86`]).
    pub fn with_checker(mut self, cfg: CheckConfig) -> Self {
        self.checker = Some(cfg);
        self
    }

    /// Arms the runtime tracer ([`crate::trace`]) with an explicit
    /// configuration. Without this call, setting `CXL0_TRACE=<path>` in
    /// the environment arms a default-configured tracer exporting to
    /// `<path>` when the cluster drops (`CXL0_TRACE=1` arms it with no
    /// export path — percentiles and breakdowns stay queryable
    /// in-process). Untraced clusters pay nothing: the hooks are a
    /// single `OnceLock` load.
    pub fn with_tracing(mut self, cfg: TraceConfig) -> Self {
        self.tracing = Some(cfg);
        self
    }

    /// Builds the cluster: fabric, crash-consistent allocator (with the
    /// registry and the allocator's metadata carved out of the memory
    /// node's segment, starting at offset 0) and persistence strategy.
    ///
    /// # Errors
    ///
    /// [`ApiError::NoMemoryNode`] if no machine owns shared locations;
    /// [`ApiError::RegistryTooLarge`] if the registry plus the
    /// allocator's metadata (plus, in buffered mode, the epoch
    /// machinery) does not fit the segment.
    ///
    /// # Panics
    ///
    /// Panics if the topology has more than 64 machines (a fabric limit).
    pub fn build(self) -> ApiResult<Arc<Cluster>> {
        let memory_node = match self.memory_node {
            Some(m) => m,
            Option::None => self
                .cfg
                .machines()
                .filter(|m| self.cfg.machine(*m).locations > 0)
                .last()
                .ok_or(ApiError::NoMemoryNode)?,
        };
        let available = self.cfg.machine(memory_node).locations;
        if available == 0 {
            return Err(ApiError::NoMemoryNode);
        }
        // The registry and the allocator's metadata must both fit, with
        // at least one block-area cell to spare. (Saturating arithmetic
        // keeps the overflow case inside the same error path.)
        let registry_cells = region_cells(self.root_capacity);
        let needed = registry_cells.saturating_add(META_CELLS);
        if needed >= available {
            return Err(ApiError::RegistryTooLarge { needed, available });
        }

        let fabric = SimFabric::new(self.cfg.clone());
        // Arm the sanitizer before any traffic (the allocator format
        // below must already be seen). An explicit `with_checker`
        // wins; otherwise `CXL0_SANITIZE=1` arms a mode-derived
        // configuration: durability races only under strict modes
        // (buffered modes legally persist out of publication order),
        // fail-fast except under the deliberately unsound FlitX86.
        let check_cfg = self.checker.or_else(|| {
            std::env::var("CXL0_SANITIZE")
                .ok()
                .filter(|v| !v.is_empty() && v != "0")
                .map(|_| CheckConfig {
                    durability_races: self.mode.is_strict(),
                    fail_fast: self.mode.policy().sound,
                })
        });
        let checker = check_cfg.map(|cfg| Arc::new(Checker::new(cfg)));
        if let Some(ck) = &checker {
            fabric.install_checker(Arc::clone(ck));
        }
        // Arm the tracer the same way: explicit `with_tracing` wins,
        // otherwise `CXL0_TRACE=<path>` (or `=1` for no export) arms a
        // default configuration.
        let trace_cfg = self.tracing.or_else(|| {
            std::env::var("CXL0_TRACE")
                .ok()
                .filter(|v| !v.is_empty() && v != "0")
                .map(|v| TraceConfig {
                    export_path: (v != "1").then_some(v),
                })
        });
        if let Some(cfg) = trace_cfg {
            fabric.install_tracer(Arc::new(Tracer::new(cfg)));
        }
        let heap = Arc::new(SharedHeap::with_range(
            fabric.config(),
            memory_node,
            registry_cells,
            available - registry_cells,
        ));

        let mut buffered = Option::None;
        let persist: Arc<dyn Persistence> = match self.mode {
            PersistMode::Buffered {
                capacity,
                sync_interval,
            } => {
                let epoch = Arc::new(BufferedEpoch::create(&heap, capacity, sync_interval).ok_or(
                    ApiError::RegistryTooLarge {
                        needed: registry_cells + META_CELLS + 4 * capacity + 1,
                        available,
                    },
                )?);
                buffered = Some(Arc::clone(&epoch));
                epoch
            }
            flit_mode => Arc::new(Flit::new(flit_mode.policy())),
        };

        // The allocator sits right after the registry (and, in buffered
        // mode, the epoch machinery bump-allocated just above): its
        // metadata cells come off the front of the heap's range and the
        // rest of the segment is its block area. In buffered mode the
        // epoch cells were not part of the up-front size check, so this
        // allocation can still fail — as an error, not a panic.
        let alloc_base = heap.alloc(META_CELLS).ok_or(ApiError::RegistryTooLarge {
            needed: match self.mode {
                PersistMode::Buffered { capacity, .. } => needed + 4 * capacity + 1,
                _ => needed,
            },
            available,
        })?;
        let allocator = Arc::new(Allocator::with_meta(
            memory_node,
            alloc_base.addr.0,
            available,
            Arc::clone(&heap),
            Arc::clone(&persist),
        ));
        allocator
            .format(&fabric.node(memory_node))
            .expect("a freshly built machine cannot be crashed");

        let registry_base = cxl0_model::Loc::new(memory_node, 0);
        let directory = RootDirectory::new(registry_base, self.root_capacity, Arc::clone(&persist));
        // One reclamation domain per cluster: every session handle of
        // every traversal structure shares these epochs, which is what
        // makes grace periods sound across handles.
        let smr = Arc::new(SmrDomain::new(Arc::clone(&allocator)));
        if let Some(ck) = &checker {
            // pin/unpin never touch the fabric: the checker reads this
            // domain's epoch slots instead.
            ck.attach_smr(Arc::clone(&smr));
        }

        Ok(Arc::new(Cluster {
            fabric,
            heap,
            allocator,
            smr,
            persist,
            buffered,
            mode: self.mode,
            memory_node,
            directory,
            combine_stats: Arc::new(CombineStats::default()),
            combine_boards: Mutex::new(HashMap::new()),
        }))
    }
}

/// A fully-wired CXL0 deployment: the fabric, the memory node's shared
/// heap, one durability strategy and the durable named-root registry.
///
/// Obtain per-machine contexts with [`Cluster::session`]; the low-level
/// pieces stay reachable ([`Cluster::fabric`], [`Cluster::heap`],
/// [`Cluster::persistence`]) for code that needs the escape hatch.
#[derive(Debug)]
pub struct Cluster {
    fabric: Arc<SimFabric>,
    heap: Arc<SharedHeap>,
    allocator: Arc<Allocator>,
    /// The cluster-wide epoch-based reclamation domain (one per
    /// allocator; shared by every traversal-structure handle).
    smr: Arc<SmrDomain>,
    persist: Arc<dyn Persistence>,
    buffered: Option<Arc<BufferedEpoch>>,
    mode: PersistMode,
    memory_node: MachineId,
    directory: RootDirectory,
    /// Cluster-wide combining counters (all fronts share one set).
    combine_stats: Arc<CombineStats>,
    /// Volatile announcement boards, keyed by structure root cell so
    /// every session's handle of one structure shares one board.
    combine_boards: Mutex<HashMap<Loc, Arc<CombineBoard>>>,
}

impl Cluster {
    /// Starts configuring a cluster over `cfg`.
    pub fn builder(cfg: SystemConfig) -> ClusterBuilder {
        ClusterBuilder::new(cfg)
    }

    /// A ready-made cluster: `compute` compute nodes plus one NVM memory
    /// node of `cells` locations, under [`PersistMode::FlitCxl0`] — the
    /// paper's canonical deployment.
    ///
    /// # Errors
    ///
    /// Propagates [`ClusterBuilder::build`] failures.
    pub fn symmetric(compute: usize, cells: u32) -> ApiResult<Arc<Cluster>> {
        let mut machines = vec![cxl0_model::MachineConfig::compute_only(); compute];
        machines.push(cxl0_model::MachineConfig::non_volatile(cells));
        Cluster::builder(SystemConfig::new(machines)).build()
    }

    /// A per-machine [`Session`].
    ///
    /// # Panics
    ///
    /// Panics if `m` is out of range.
    pub fn session(self: &Arc<Self>, m: MachineId) -> Session {
        Session::new(Arc::clone(self), self.fabric.node(m))
    }

    /// The underlying fabric (low-level escape hatch).
    pub fn fabric(&self) -> &Arc<SimFabric> {
        &self.fabric
    }

    /// The memory node's raw bump heap (low-level escape hatch; cells
    /// taken here bypass the allocator and are never reclaimed).
    pub fn heap(&self) -> &Arc<SharedHeap> {
        &self.heap
    }

    /// The crash-consistent allocator the durable structures allocate
    /// and reclaim their nodes through.
    pub fn allocator(&self) -> &Arc<Allocator> {
        &self.allocator
    }

    /// The durability strategy in force.
    pub fn persistence(&self) -> &Arc<dyn Persistence> {
        &self.persist
    }

    /// The cluster-wide epoch-based reclamation domain the traversal
    /// structures (list, map) retire through (see [`crate::smr`]).
    pub fn smr(&self) -> &Arc<SmrDomain> {
        &self.smr
    }

    /// The buffered-epoch machinery, when built with
    /// [`PersistMode::Buffered`].
    pub fn buffered(&self) -> Option<&Arc<BufferedEpoch>> {
        self.buffered.as_ref()
    }

    /// The persistency sanitizer, when armed (via
    /// [`ClusterBuilder::with_checker`] or `CXL0_SANITIZE=1`).
    pub fn checker(&self) -> Option<&Arc<Checker>> {
        self.fabric.checker()
    }

    /// The runtime tracer, when armed (via
    /// [`ClusterBuilder::with_tracing`] or `CXL0_TRACE=<path>`). Query
    /// it for latency histograms, recovery breakdowns and exports.
    pub fn tracer(&self) -> Option<&Arc<Tracer>> {
        self.fabric.tracer()
    }

    /// Exports the trace to `path` now as Chrome trace-event JSON,
    /// independent of any configured drop-time export path.
    ///
    /// # Errors
    ///
    /// [`ApiError::NoTracer`] when no tracer is armed;
    /// [`ApiError::TraceExport`] on an I/O failure.
    pub fn export_trace(&self, path: &str) -> ApiResult<()> {
        let tracer = self.tracer().ok_or(ApiError::NoTracer)?;
        tracer
            .write_to(path)
            .map_err(|e| ApiError::TraceExport(e.to_string()))
    }

    /// The configured durability mode.
    pub fn mode(&self) -> PersistMode {
        self.mode
    }

    /// The machine hosting the heap and the registry.
    pub fn memory_node(&self) -> MachineId {
        self.memory_node
    }

    /// The system configuration.
    pub fn config(&self) -> &SystemConfig {
        self.fabric.config()
    }

    /// Fabric-wide operation counters and simulated time (striped over
    /// per-thread stripes internally; [`Stats::snapshot`] aggregates).
    pub fn stats(&self) -> &Stats {
        self.fabric.stats()
    }

    /// One merged snapshot of the fabric counters, the allocator's
    /// memory counters, the combining-front counters *and* the
    /// reclamation-domain counters — what [`Session::stats_delta`]
    /// diffs.
    pub fn stats_snapshot(&self) -> StatsSnapshot {
        let mut snap = self.fabric.stats().snapshot();
        let mem = self.allocator.stats();
        snap.allocs = mem.allocs;
        snap.frees = mem.frees;
        snap.freelist_hits = mem.freelist_hits;
        snap.live_cells = mem.live_cells;
        snap.hw_cells = mem.hw_cells;
        let cmb = &self.combine_stats;
        snap.combine_batches = cmb.batches();
        snap.combine_ops = cmb.ops();
        snap.combine_eliminations = cmb.eliminations();
        snap.combine_elections = cmb.elections();
        snap.combine_barriers_saved = cmb.barriers_saved();
        snap.combine_spare_reuses = cmb.spare_reuses();
        let smr = self.smr.stats();
        snap.smr_pins = smr.pins;
        snap.smr_retires = smr.retires;
        snap.smr_reclaims = smr.reclaims;
        snap.smr_advances = smr.advances;
        snap.smr_epoch = smr.epoch;
        snap.smr_limbo = smr.limbo;
        if let Some(ck) = self.checker() {
            snap.check_durability_races = ck.durability_races();
            snap.check_unpersisted_reads = ck.unpersisted_reads();
            snap.check_use_after_retire = ck.use_after_retire();
        }
        if let Some(tr) = self.tracer() {
            snap.trace_events = tr.events_recorded();
            snap.trace_dropped = tr.events_dropped();
            let h = tr.merged_histogram();
            snap.trace_p50_sim_ns = h.p50();
            snap.trace_p99_sim_ns = h.p99();
            snap.trace_p999_sim_ns = h.p999();
        }
        snap
    }

    /// The cluster-wide combining counters (shared by every combined
    /// front; also overlaid onto [`Cluster::stats_snapshot`]).
    pub fn combine_stats(&self) -> &Arc<CombineStats> {
        &self.combine_stats
    }

    /// Wraps a queue or stack handle in the cluster's shared combining
    /// front ([`crate::ds::combine`]) for its root cell: every wrapped
    /// handle of one structure — across sessions and machines — shares
    /// one volatile announcement board, and all mutations go through
    /// per-thread announcement slots and an elected combiner that
    /// batches the ops' persistence (stack fronts additionally
    /// annihilate concurrent push/pop pairs by elimination). Orthogonal
    /// to the cluster's `PersistMode`; the structure itself, its named
    /// root and its recovery are the plain handle's — after a crash,
    /// reopen by name, wrap again, and call `recover` on the front.
    ///
    /// ```
    /// use cxl0_runtime::api::Cluster;
    /// use cxl0_model::MachineId;
    ///
    /// let cluster = Cluster::symmetric(2, 4096)?;
    /// let session = cluster.session(MachineId(0));
    /// let jobs = cluster.combined(session.create_queue::<u64>("jobs")?);
    /// jobs.enqueue(&session, 7)?;
    /// assert_eq!(jobs.dequeue(&session)?, Some(7));
    /// # Ok::<(), cxl0_runtime::api::ApiError>(())
    /// ```
    pub fn combined<S: Combinable>(&self, inner: S) -> Combined<S> {
        let board = Arc::clone(
            self.combine_boards
                .lock()
                .entry(inner.root_cell())
                .or_insert_with(|| Arc::new(CombineBoard::new(Arc::clone(&self.combine_stats)))),
        );
        Combined::attach(inner, board)
    }

    /// Crashes machine `m` (stop-the-world; NVM survives, caches and
    /// volatile memory do not).
    pub fn crash(&self, m: MachineId) {
        self.fabric.crash(m);
    }

    /// Recovers machine `m`: new sessions may run on it again.
    pub fn recover(&self, m: MachineId) {
        self.fabric.recover(m);
    }

    /// True if machine `m` is currently crashed.
    pub fn is_crashed(&self, m: MachineId) -> bool {
        self.fabric.is_crashed(m)
    }

    pub(crate) fn directory(&self) -> &RootDirectory {
        &self.directory
    }
}

impl Drop for Cluster {
    fn drop(&mut self) {
        // The `CXL0_TRACE=<path>` contract: the trace lands on disk when
        // the deployment winds down, without the program opting in at
        // every exit path. Failures are reported, not propagated — drop
        // cannot return and must not panic.
        if let Some(tr) = self.tracer() {
            if let Some(path) = tr.config().export_path.clone() {
                if let Err(e) = tr.write_to(&path) {
                    eprintln!("cxl0: trace export to {path} failed: {e}");
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::registry::ENTRY_CELLS;

    #[test]
    fn build_reserves_registry_then_allocator_metadata() {
        let cluster = Cluster::builder(SystemConfig::symmetric_nvm(3, 4096))
            .root_capacity(16)
            .build()
            .unwrap();
        // The block area starts right after 16 registry entries, the
        // registry's header entry and the allocator's metadata.
        let first = cluster.heap().alloc(1).unwrap();
        assert_eq!(first.addr.0, 17 * ENTRY_CELLS + META_CELLS);
        assert_eq!(first.owner, cluster.memory_node());
    }

    #[test]
    fn memory_node_defaults_to_last_machine_with_locations() {
        let cfg = SystemConfig::new(vec![
            cxl0_model::MachineConfig::compute_only(),
            cxl0_model::MachineConfig::non_volatile(512),
            cxl0_model::MachineConfig::compute_only(),
        ]);
        let cluster = Cluster::builder(cfg).build().unwrap();
        assert_eq!(cluster.memory_node(), MachineId(1));
    }

    #[test]
    fn compute_only_topology_is_rejected() {
        let cfg = SystemConfig::new(vec![cxl0_model::MachineConfig::compute_only()]);
        assert_eq!(
            Cluster::builder(cfg).build().err(),
            Some(ApiError::NoMemoryNode)
        );
    }

    #[test]
    fn oversized_registry_is_rejected() {
        let err = Cluster::builder(SystemConfig::symmetric_nvm(2, 64))
            .root_capacity(64)
            .build()
            .err();
        assert!(matches!(err, Some(ApiError::RegistryTooLarge { .. })));
    }

    #[test]
    fn buffered_epoch_squeezing_out_the_allocator_errors_not_panics() {
        // The up-front check covers registry + allocator metadata; the
        // buffered epoch's 4*capacity+1 cells are only discovered when
        // the metadata is carved out — that path must error too.
        let err = Cluster::builder(SystemConfig::symmetric_nvm(2, 1000))
            .root_capacity(0)
            .persist(PersistMode::Buffered {
                capacity: 230, // 921 epoch cells leave < META_CELLS free
                sync_interval: 0,
            })
            .build()
            .err();
        assert!(matches!(err, Some(ApiError::RegistryTooLarge { .. })));
    }

    #[test]
    fn mode_names_match_strategy_names() {
        for mode in PersistMode::comparison_set() {
            let cluster = Cluster::builder(SystemConfig::symmetric_nvm(2, 4096))
                .persist(mode)
                .build()
                .unwrap();
            assert_eq!(cluster.persistence().name(), mode.name());
        }
        let buffered = Cluster::builder(SystemConfig::symmetric_nvm(2, 4096))
            .persist(PersistMode::Buffered {
                capacity: 32,
                sync_interval: 0,
            })
            .build()
            .unwrap();
        assert!(buffered.buffered().is_some());
        assert_eq!(buffered.mode().name(), "buffered");
        assert_eq!(buffered.persistence().name(), "buffered");
    }

    #[test]
    fn strict_and_sound_modes_are_the_documented_ones() {
        use PersistMode::*;
        let buffered = Buffered {
            capacity: 8,
            sync_interval: 3,
        };
        assert_eq!(buffered.policy(), FlitPolicy::BUFFERED);
        let mut modes = PersistMode::comparison_set();
        modes.push(buffered);
        let strict: Vec<_> = modes.iter().filter(|m| m.is_strict()).collect();
        assert_eq!(strict, [&FlitCxl0, &OwnerOpt, &FlitAsync, &NaiveMStore]);
        // `CXL0_SANITIZE=1` fails fast under every mode but this one.
        let unsound: Vec<_> = modes.iter().filter(|m| !m.policy().sound).collect();
        assert_eq!(unsound, [&FlitX86]);
    }
}
