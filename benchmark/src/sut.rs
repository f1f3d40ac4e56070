//! The system under test: **every** call into `cxl0-runtime` is in this
//! file, and only documented public items are used (README.md lists the
//! surface). A PR that reshapes the runtime's API moves this file and
//! nothing else of the benchmark.

use std::sync::Arc;

use cxl0_model::{Loc, MachineId, StoreKind, SystemConfig};
use cxl0_runtime::api::{Cluster, PersistMode, Session};
use cxl0_runtime::{
    Allocator, CheckConfig, DurableList, DurableMap, DurableQueue, NodeHandle, Persistence,
    RecoveryPhase, SmrDomain, SmrGuard, TraceConfig,
};

use crate::workload::{Op, OpKind, Spec, Structure};

pub use cxl0_runtime::Crashed;

/// The machine hosting the heap and the registry; workers run on
/// machines 0 and 1.
pub const MEMORY_NODE: usize = 2;

/// Name the workload's structure is registered under.
const ROOT: &str = "bench/root";

/// What `apply` returns for a full map table or an exhausted node heap:
/// never a legal result, so the oracle counts it as a failed operation.
pub const REFUSED: u64 = u64::MAX;

/// The sound durability strategies, in report order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    None,
    FlitCxl0,
    OwnerOpt,
    FlitAsync,
    NaiveMStore,
    Buffered,
}

impl Mode {
    pub const ALL: [Mode; 6] = [
        Mode::None,
        Mode::FlitCxl0,
        Mode::OwnerOpt,
        Mode::FlitAsync,
        Mode::NaiveMStore,
        Mode::Buffered,
    ];

    /// The runtime's mode; `buffered_capacity` (distinct cells flagged
    /// stores may touch) only matters to `Buffered`.
    fn persist(self, buffered_capacity: u32) -> PersistMode {
        match self {
            Mode::None => PersistMode::None,
            Mode::FlitCxl0 => PersistMode::FlitCxl0,
            Mode::OwnerOpt => PersistMode::OwnerOpt,
            Mode::FlitAsync => PersistMode::FlitAsync,
            Mode::NaiveMStore => PersistMode::NaiveMStore,
            Mode::Buffered => PersistMode::Buffered {
                capacity: buffered_capacity,
                sync_interval: 64,
            },
        }
    }

    /// The name the runtime reports the mode under.
    pub fn name(self) -> &'static str {
        self.persist(0).name()
    }
}

/// Which of the runtime's own instruments a cluster is built with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Instrument {
    Off,
    Tracer,
    Sanitizer,
}

/// The counters the benchmark reads, as plain data (one
/// `Cluster::stats_snapshot` each).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counters {
    pub prims: u64,
    pub flushes: u64,
    pub sim_ns: u64,
    pub allocs: u64,
    pub frees: u64,
    pub freelist_hits: u64,
    pub live_cells: u64,
    pub hw_cells: u64,
    pub pins: u64,
    pub retires: u64,
    pub reclaims: u64,
    pub advances: u64,
    pub limbo: u64,
    pub violations: u64,
    pub trace_dropped: u64,
}

impl Counters {
    /// Counter differences; gauges (`live_cells`, `hw_cells`, `limbo`,
    /// `violations`, `trace_dropped`) keep `self`'s reading.
    pub fn since(&self, earlier: &Counters) -> Counters {
        Counters {
            prims: self.prims - earlier.prims,
            flushes: self.flushes - earlier.flushes,
            sim_ns: self.sim_ns - earlier.sim_ns,
            allocs: self.allocs - earlier.allocs,
            frees: self.frees - earlier.frees,
            freelist_hits: self.freelist_hits - earlier.freelist_hits,
            pins: self.pins - earlier.pins,
            retires: self.retires - earlier.retires,
            reclaims: self.reclaims - earlier.reclaims,
            advances: self.advances - earlier.advances,
            ..*self
        }
    }
}

/// One built deployment with the workload's structure registered.
#[derive(Debug)]
pub struct Sut {
    cluster: Arc<Cluster>,
    structure: Structure,
}

/// Host and simulated time of one recovery phase, from the runtime's
/// own `PhaseTiming`.
#[derive(Debug, Clone, Copy, Default)]
pub struct PhaseUs {
    pub buffered_replay: f64,
    pub allocator_sweep: f64,
    pub smr_drain: f64,
    pub registry_seal: f64,
}

impl Sut {
    /// Builds the cluster (`symmetric_nvm(3, cells)`, memory node 2),
    /// fills the registry with the spec's counters and creates the
    /// structure under its name.
    pub fn build(spec: &Spec, mode: Mode, instrument: Instrument) -> Sut {
        let mut cells = spec.cells;
        if mode == Mode::Buffered {
            cells += 4 * spec.buffered_capacity + 1;
        }
        let mut builder = Cluster::builder(SystemConfig::symmetric_nvm(3, cells))
            .memory_node(MachineId(MEMORY_NODE))
            .root_capacity(spec.root_capacity)
            .persist(mode.persist(spec.buffered_capacity));
        match instrument {
            Instrument::Off => {}
            Instrument::Tracer => builder = builder.with_tracing(TraceConfig::default()),
            Instrument::Sanitizer => {
                builder = builder.with_checker(CheckConfig {
                    durability_races: mode != Mode::Buffered && mode != Mode::None,
                    fail_fast: false,
                    ..CheckConfig::default()
                })
            }
        }
        let cluster = builder.build().expect("the spec's sizes fit the segment");
        let session = cluster.session(MachineId(0));
        for i in 0..spec.filler_roots {
            let counter = session
                .create_counter(&format!("bench/pad{i:02}"))
                .expect("registry has room for the fillers");
            counter.add(&session, u64::from(i) + 1).expect("no crash");
        }
        match spec.structure {
            Structure::Queue => drop(session.create_queue::<u64>(ROOT).expect("heap fits")),
            Structure::Map { slots } => drop(
                session
                    .create_map::<u64, u64>(ROOT, slots)
                    .expect("heap fits"),
            ),
            Structure::List => drop(session.create_list::<u64>(ROOT).expect("heap fits")),
        }
        Sut {
            cluster,
            structure: spec.structure,
        }
    }

    /// A fresh session on `machine` with the structure reopened by name.
    pub fn worker(&self, machine: usize) -> Worker {
        let session = self.cluster.session(MachineId(machine));
        let root = match self.structure {
            Structure::Queue => Root::Queue(session.open_queue(ROOT).expect("root exists")),
            Structure::Map { .. } => Root::Map(session.open_map(ROOT).expect("root exists")),
            Structure::List => Root::List(session.open_list(ROOT).expect("root exists")),
        };
        Worker { session, root }
    }

    /// The shared post-crash repair a restarted application runs first
    /// on `machine` (`Session::recover_roots`); returns how many torn
    /// registry entries it sealed. Reopen with [`Sut::worker`] and
    /// [`Worker::repair`] afterwards.
    pub fn recover_roots(&self, machine: usize) -> usize {
        self.cluster
            .session(MachineId(machine))
            .recover_roots()
            .expect("the recovering machine is up")
    }

    pub fn crash(&self, machine: usize) {
        self.cluster.crash(MachineId(machine));
    }

    pub fn recover(&self, machine: usize) {
        self.cluster.recover(MachineId(machine));
    }

    pub fn counters(&self) -> Counters {
        let s = self.cluster.stats_snapshot();
        Counters {
            prims: s.total_ops(),
            flushes: s.lflushes + s.rflushes + s.aflushes,
            sim_ns: s.sim_ns,
            allocs: s.allocs,
            frees: s.frees,
            freelist_hits: s.freelist_hits,
            live_cells: s.live_cells,
            hw_cells: s.hw_cells,
            pins: s.smr_pins,
            retires: s.smr_retires,
            reclaims: s.smr_reclaims,
            advances: s.smr_advances,
            limbo: s.smr_limbo,
            violations: s.check_durability_races
                + s.check_unpersisted_reads
                + s.check_use_after_retire,
            trace_dropped: s.trace_dropped,
        }
    }

    /// Simulated nanoseconds so far (`Stats::sim_nanos`).
    pub fn sim_ns(&self) -> u64 {
        self.cluster.stats().sim_nanos()
    }

    /// Simulated nanoseconds and primitives so far, in one pass over the
    /// fabric's counters (what a span samples at each boundary).
    pub fn sim_and_prims(&self) -> (u64, u64) {
        let s = self.cluster.stats().snapshot();
        (s.sim_ns, s.total_ops())
    }

    /// Parks a reader pin on the calling thread: nothing retired from
    /// now on is reclaimed until the guard drops.
    pub fn park_pin(&self) -> SmrGuard<'_> {
        self.cluster.smr().pin()
    }

    /// Blocks currently in limbo.
    pub fn limbo(&self) -> u64 {
        self.cluster.smr().stats().limbo
    }

    /// The latest recovery's phase breakdown in host microseconds, when
    /// the cluster was built with the tracer.
    pub fn recovery_phases(&self) -> Option<PhaseUs> {
        let tracer = self.cluster.tracer()?;
        let mut out = PhaseUs::default();
        for t in tracer.recovery_breakdown() {
            let us = t.wall_ns as f64 / 1e3;
            match t.phase {
                RecoveryPhase::BufferedReplay => out.buffered_replay = us,
                RecoveryPhase::AllocatorSweep => out.allocator_sweep = us,
                RecoveryPhase::SmrDrain => out.smr_drain = us,
                RecoveryPhase::RegistrySeal => out.registry_seal = us,
            }
        }
        Some(out)
    }

    /// A block of `len` memory-node cells seen from `machine`, for the
    /// `backend` and `flit` probes. `None` if the heap cannot supply it.
    pub fn cells(&self, machine: usize, len: u32) -> Option<Cells> {
        let node = self.cluster.session(MachineId(machine)).node().clone();
        let block = self.cluster.allocator().alloc(&node, len).ok()??;
        Some(Cells {
            node,
            persist: Arc::clone(self.cluster.persistence()),
            base: block.loc,
        })
    }

    /// The allocator and reclamation domain seen from `machine`, for
    /// the `alloc` and `smr` probes.
    pub fn memory(&self, machine: usize) -> Memory<'_> {
        Memory {
            node: self.cluster.session(MachineId(machine)).node().clone(),
            alloc: self.cluster.allocator(),
            smr: self.cluster.smr(),
        }
    }

    /// Opens a session (the `api.session_open_us` probe).
    pub fn open_session(&self, machine: usize) {
        std::hint::black_box(self.cluster.session(MachineId(machine)));
    }

    /// Creates one more named counter (the `api.create_root_us` probe).
    pub fn create_counter(&self, name: &str) {
        let session = self.cluster.session(MachineId(0));
        std::hint::black_box(session.create_counter(name).expect("registry has room"));
    }

    /// Opens the last filler counter by name (the `api.open_root_us`
    /// probe: the registry scan passes every entry before it).
    pub fn open_counter(&self, name: &str) {
        let session = self.cluster.session(MachineId(0));
        std::hint::black_box(session.open_counter(name).expect("the counter exists"));
    }
}

#[derive(Debug)]
enum Root {
    Queue(DurableQueue<u64>),
    Map(DurableMap<u64, u64>),
    List(DurableList<u64>),
}

/// One client: a session plus its handle of the structure.
#[derive(Debug)]
pub struct Worker {
    session: Session,
    root: Root,
}

impl Worker {
    /// Issues one tape op. Results are flattened to a word — values and
    /// keys are never 0, so 0 is "none/false/empty" and 1 is "true" —
    /// which keeps the oracle one comparison per op.
    ///
    /// # Panics
    ///
    /// Panics if the op does not belong to this worker's structure (a
    /// tape of the wrong workload).
    #[inline]
    pub fn apply(&self, op: Op) -> Result<u64, Crashed> {
        let s = &self.session;
        Ok(match (&self.root, op.kind) {
            (Root::Queue(q), OpKind::QueueEnqueue) => {
                if q.enqueue(s, op.value)? {
                    1
                } else {
                    REFUSED
                }
            }
            (Root::Queue(q), OpKind::QueueDequeue) => q.dequeue(s)?.unwrap_or(0),
            (Root::Map(m), OpKind::MapGet) => m.get(s, u64::from(op.key))?.unwrap_or(0),
            (Root::Map(m), OpKind::MapInsert) => match m.insert(s, u64::from(op.key), op.value)? {
                Some(previous) => previous.unwrap_or(0),
                None => REFUSED,
            },
            (Root::Map(m), OpKind::MapRemove) => m.remove(s, u64::from(op.key))?.unwrap_or(0),
            (Root::List(l), OpKind::ListInsert) => u64::from(l.insert(s, u64::from(op.key))?),
            (Root::List(l), OpKind::ListRemove) => u64::from(l.remove(s, u64::from(op.key))?),
            (Root::List(l), OpKind::ListContains) => u64::from(l.contains(s, u64::from(op.key))?),
            (root, kind) => panic!("{kind:?} is not an operation of {root:?}"),
        })
    }

    /// The structure's own post-crash repair (the queue's lagging
    /// tail; the other structures need none).
    pub fn repair(&self) {
        if let Root::Queue(q) = &self.root {
            q.recover(&self.session).expect("no crash");
        }
    }

    /// The list's keys in order.
    ///
    /// # Panics
    ///
    /// Panics if the structure is not the list.
    pub fn list_keys(&self) -> Result<Vec<u64>, Crashed> {
        match &self.root {
            Root::List(l) => l.keys(&self.session),
            other => panic!("{other:?} has no key snapshot"),
        }
    }
}

/// A block of memory-node cells plus the handles the `backend` and
/// `flit` probes issue through. Index `i` is the block's `i`-th cell.
#[derive(Debug)]
pub struct Cells {
    node: NodeHandle,
    persist: Arc<dyn Persistence>,
    base: Loc,
}

impl Cells {
    #[inline]
    fn loc(&self, i: u32) -> Loc {
        Loc::new(self.base.owner, self.base.addr.0 + i)
    }

    #[inline]
    pub fn load(&self, i: u32) -> u64 {
        self.node.load(self.loc(i)).expect("no crash")
    }

    #[inline]
    pub fn lstore(&self, i: u32, v: u64) {
        self.node.lstore(self.loc(i), v).expect("no crash")
    }

    #[inline]
    pub fn rstore(&self, i: u32, v: u64) {
        self.node.rstore(self.loc(i), v).expect("no crash")
    }

    #[inline]
    pub fn mstore(&self, i: u32, v: u64) {
        self.node.mstore(self.loc(i), v).expect("no crash")
    }

    #[inline]
    pub fn lflush(&self, i: u32) {
        self.node.lflush(self.loc(i)).expect("no crash")
    }

    #[inline]
    pub fn rflush(&self, i: u32) {
        self.node.rflush(self.loc(i)).expect("no crash")
    }

    #[inline]
    pub fn aflush(&self, i: u32) {
        self.node.aflush(self.loc(i)).expect("no crash")
    }

    #[inline]
    pub fn barrier(&self) {
        self.node.barrier().expect("no crash");
    }

    #[inline]
    pub fn faa(&self, i: u32, delta: u64) -> u64 {
        self.node
            .faa(StoreKind::Memory, self.loc(i), delta)
            .expect("no crash")
    }

    #[inline]
    pub fn cas(&self, i: u32, old: u64, new: u64) -> bool {
        self.node
            .cas(StoreKind::Local, self.loc(i), old, new)
            .expect("no crash")
            .is_ok()
    }

    #[inline]
    pub fn flit_load(&self, i: u32) -> u64 {
        self.persist
            .shared_load(&self.node, self.loc(i), true)
            .expect("no crash")
    }

    #[inline]
    pub fn flit_store(&self, i: u32, v: u64) {
        self.persist
            .shared_store(&self.node, self.loc(i), v, true)
            .expect("no crash")
    }

    #[inline]
    pub fn flit_cas(&self, i: u32, old: u64, new: u64) -> bool {
        self.persist
            .shared_cas(&self.node, self.loc(i), old, new, true)
            .expect("no crash")
            .is_ok()
    }
}

/// The allocator and the reclamation domain through one machine's node
/// handle.
#[derive(Debug)]
pub struct Memory<'a> {
    node: NodeHandle,
    alloc: &'a Arc<Allocator>,
    smr: &'a Arc<SmrDomain>,
}

/// An allocated block, as the probes hold it.
#[derive(Debug, Clone, Copy)]
pub struct Block(Loc);

impl Memory<'_> {
    #[inline]
    pub fn alloc(&self, cells: u32) -> Block {
        Block(
            self.alloc
                .alloc(&self.node, cells)
                .expect("no crash")
                .expect("the probe's blocks fit the heap")
                .loc,
        )
    }

    #[inline]
    pub fn free(&self, block: Block) {
        self.alloc
            .free(&self.node, block.0)
            .expect("no crash")
            .expect("the probe frees what it allocated");
    }

    #[inline]
    pub fn pin_unpin(&self) {
        drop(std::hint::black_box(self.smr.pin()));
    }

    #[inline]
    pub fn retire(&self, block: Block) {
        self.smr
            .pin()
            .retire(&self.node, block.0)
            .expect("no crash");
    }

    pub fn collect(&self) -> usize {
        self.smr.collect(&self.node).expect("no crash")
    }
}
