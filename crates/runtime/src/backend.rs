//! `SimFabric`: an executable, thread-safe implementation of the CXL0
//! semantics, suitable for running real concurrent workloads with crash
//! injection.
//!
//! ## Correspondence with the abstract model
//!
//! The global cache invariant of §3.3 makes the abstract state
//! *per-location*: for each location there is at most one cached value,
//! held by a set of machines, plus the owner's memory value. `SimFabric`
//! therefore shards the state into one cell per location holding
//! `(holders bitmask, cached value, memory value)`; every CXL0 rule except
//! `GPF` and crash touches exactly one location and is applied atomically
//! under that cell's writer lock, which makes each operation a
//! linearizable application of one (or, for flushes, a `τ*`-prefixed)
//! transition of the model. The integration test
//! `tests/backend_vs_model.rs` checks this refinement mechanically against
//! `cxl0-model`.
//!
//! *Blocking* primitives (`LFlush`, `RFlush`, `GPF`) are implemented by
//! **forcing** the propagation steps their preconditions wait for — the
//! resulting state is exactly the one the blocking rule unblocks in, so
//! the reachable states are unchanged.
//!
//! ## Concurrency: how the hot path scales
//!
//! The per-operation path deliberately touches no globally shared
//! mutable cache line:
//!
//! * **Location slab.** All location state lives in one contiguous slab
//!   of cache-line-aligned location cells with precomputed per-machine
//!   offsets (no nested `Vec` indirection). Each cell is a tiny
//!   sequence-locked record of atomics: mutating rules spin on the
//!   cell's sequence word (writer lock), while read-only rules
//!   (`Load`-from-M, a failed CAS, no-op flushes, `peek_memory`)
//!   validate an optimistic snapshot against the sequence word and
//!   issue **no** atomic read-modify-write at all.
//! * **Striped statistics.** Operation counters and simulated time are
//!   recorded on cache-line-padded per-thread *rails* ([`Stats`] owns
//!   one rail per leased thread slot, plus one shared overflow rail).
//!   A rail is written by exactly one live thread, so the common-path
//!   update is a plain load + store pair on a line no other thread
//!   touches; [`Stats::snapshot`] aggregates across rails.
//! * **Epoch-style crash gate.** Instead of a per-machine reader–writer
//!   lock taken on every operation, each rail carries an *active-op*
//!   counter: an operation publishes `active += 1` (sequentially
//!   consistent), checks the fabric's crash word (a halted flag plus a
//!   crashed-machine bitmask on one read-mostly line), and decrements on
//!   completion. [`SimFabric::crash`] flips the halted flag and spins
//!   until every rail drains — the Dekker-style publication order makes
//!   the crash a stop-the-world atomic transition without any
//!   per-operation lock.
//! * **Sharded persistency buffers.** Each machine's pending `AFlush`
//!   set is sharded by location, so asynchronous flushes from unrelated
//!   threads stop serializing on one mutex and `Barrier` drains shard by
//!   shard.
//! * **Opt-in observability.** The persistency sanitizer
//!   ([`crate::check`]) and the runtime tracer ([`crate::trace`]) hang
//!   off the fabric as `OnceLock`s; uninstalled, each seam is a single
//!   load and the hot path issues no extra atomic read-modify-write.
//!   The tracer's per-op attribution rides the same rails: a span
//!   samples its own thread's stripe on entry and exit.
//!
//! ## Crashes
//!
//! `crash(m)` stops the world (halts the epoch gate and waits for every
//! in-flight operation to drain), wipes machine `m`'s cache entries and
//! (if volatile) its memory, then marks `m` crashed and reopens the
//! gate. Threads "running on" `m` observe [`Crashed`] from their next
//! operation and must stop; `recover(m)` readmits the machine with fresh
//! threads. Stopping the world makes the crash a single atomic
//! transition, as in the model.

use std::sync::atomic::{fence, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

use cxl0_model::{Loc, MachineId, MemoryKind, ModelVariant, Primitive, StoreKind, SystemConfig};
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::cost::CostModel;
use crate::error::{Crashed, OpResult};

/// Number of exclusive per-thread rails; threads beyond this many alive
/// at once (or counters bumped from TLS teardown) share one overflow
/// rail that falls back to atomic read-modify-writes. Other per-thread
/// slot arrays (the SMR epoch slots, the combining fronts' announcement
/// boards) ride the same leases via [`thread_slot_index`].
pub(crate) const RAIL_SLOTS: usize = 256;

/// Operation classes tracked by [`Stats`], in counter order.
#[derive(Debug, Clone, Copy)]
enum OpClass {
    Loads = 0,
    LStores = 1,
    RStores = 2,
    MStores = 3,
    LFlushes = 4,
    RFlushes = 5,
    Rmws = 6,
    AFlushes = 7,
    Barriers = 8,
}

const OP_CLASSES: usize = 9;

/// Leased process-wide thread slots: a live thread holds a unique slot
/// id for its lifetime and returns it on exit, so slot ids stay bounded
/// by the *concurrent* thread count and exclusive rails stay exclusive.
static NEXT_TID: AtomicUsize = AtomicUsize::new(0);
static FREE_TIDS: std::sync::Mutex<Vec<usize>> = std::sync::Mutex::new(Vec::new());

struct TidLease(usize);

impl Drop for TidLease {
    fn drop(&mut self) {
        // From here on this thread must use the overflow rail: its slot
        // id is about to be handed to some other thread.
        let _ = RAIL_INDEX.try_with(|c| c.set(RAIL_SLOTS));
        if let Ok(mut free) = FREE_TIDS.lock() {
            free.push(self.0);
        }
    }
}

thread_local! {
    /// Hot-path cache of the rail index: const-initialized (no lazy-init
    /// branch or destructor on the access path). `usize::MAX` = not yet
    /// leased.
    static RAIL_INDEX: std::cell::Cell<usize> = const { std::cell::Cell::new(usize::MAX) };
    /// The slot lease backing [`RAIL_INDEX`]; touched once per thread.
    static TID: TidLease = TidLease(
        FREE_TIDS
            .lock()
            .ok()
            .and_then(|mut free| free.pop())
            .unwrap_or_else(|| NEXT_TID.fetch_add(1, Ordering::Relaxed)),
    );
}

#[cold]
fn lease_rail_index(cache: &std::cell::Cell<usize>) -> usize {
    let idx = TID.try_with(|t| t.0.min(RAIL_SLOTS)).unwrap_or(RAIL_SLOTS);
    cache.set(idx);
    idx
}

/// The current thread's leased slot index, for other per-thread-slot
/// machinery (the combining fronts' announcement arrays). Indices are
/// dense and exclusive while the thread lives; [`RAIL_SLOTS`] (or any
/// larger value a caller treats as out of range) means "no exclusive
/// slot — use a shared fallback".
pub(crate) fn thread_slot_index() -> usize {
    current_rail_index()
}

/// The current thread's rail index; the overflow rail during TLS
/// teardown or when more than [`RAIL_SLOTS`] threads are alive.
fn current_rail_index() -> usize {
    RAIL_INDEX
        .try_with(|c| {
            let idx = c.get();
            if idx != usize::MAX {
                idx
            } else {
                lease_rail_index(c)
            }
        })
        .unwrap_or(RAIL_SLOTS)
}

/// One cache-line-padded counter stripe: the active-op gate plus the
/// per-class operation counters and simulated time of (usually) one
/// thread. Coupling the gate with the counters means one operation
/// touches one thread-private line for all its bookkeeping.
#[repr(align(128))]
#[derive(Debug)]
struct Rail {
    /// In-flight operations published through this rail (the epoch
    /// gate). Published with sequentially consistent stores so
    /// [`SimFabric::crash`] can drain reliably.
    active: AtomicU64,
    /// Simulated nanoseconds accumulated through this rail.
    sim_ns: AtomicU64,
    /// Per-[`OpClass`] operation counts.
    counts: [AtomicU64; OP_CLASSES],
    /// Overflow rails may be written by several threads at once and must
    /// use atomic read-modify-writes; exclusive rails use cheaper plain
    /// load + store pairs.
    shared: bool,
}

impl Rail {
    fn new(shared: bool) -> Self {
        Rail {
            active: AtomicU64::new(0),
            sim_ns: AtomicU64::new(0),
            counts: std::array::from_fn(|_| AtomicU64::new(0)),
            shared,
        }
    }

    /// Publishes one more in-flight operation. Operations must not
    /// nest: an op issued while the same thread already holds an
    /// `OpGuard` would deadlock against a concurrent `crash()` (the
    /// inner `enter()` backs off to active=1 and waits for the reopen,
    /// while the drain waits for active=0). No fabric op calls another
    /// fabric op internally.
    fn begin(&self) {
        if self.shared {
            self.active.fetch_add(1, Ordering::SeqCst);
        } else {
            let n = self.active.load(Ordering::Relaxed);
            self.active.store(n + 1, Ordering::SeqCst);
        }
    }

    /// Retires one in-flight operation.
    fn end(&self) {
        if self.shared {
            self.active.fetch_sub(1, Ordering::Release);
        } else {
            let n = self.active.load(Ordering::Relaxed);
            self.active.store(n - 1, Ordering::Release);
        }
    }

    /// Records one operation of `class` costing `ns` simulated time.
    fn bump(&self, class: OpClass, ns: u64) {
        if self.shared {
            self.counts[class as usize].fetch_add(1, Ordering::Relaxed);
            if ns > 0 {
                self.sim_ns.fetch_add(ns, Ordering::Relaxed);
            }
        } else {
            let c = &self.counts[class as usize];
            c.store(c.load(Ordering::Relaxed) + 1, Ordering::Relaxed);
            if ns > 0 {
                let s = self.sim_ns.load(Ordering::Relaxed);
                self.sim_ns.store(s + ns, Ordering::Relaxed);
            }
        }
    }
}

/// Operation counters and simulated time, striped over
/// cache-line-padded per-thread rails (see the module header). Totals
/// are aggregated on demand; individual per-thread stripes are not part
/// of the public API.
#[derive(Debug)]
pub struct Stats {
    /// `rails[RAIL_SLOTS]` is the shared overflow rail.
    rails: Box<[Rail]>,
}

/// A relaxed sample of the calling thread's own rail, used by the
/// tracer ([`crate::trace`]) to attribute simulated time and
/// flush/barrier counts to an op span. On an exclusive rail the sample
/// is exact; on the shared overflow rail it is polluted by rail mates
/// (the same accuracy trade the rails already make for counters).
#[derive(Debug, Clone, Copy)]
pub(crate) struct RailProbe {
    /// Cumulative simulated nanoseconds charged through this rail.
    pub(crate) sim_ns: u64,
    /// Cumulative synchronous flushes (`LFlush` + `RFlush`).
    pub(crate) flushes: u64,
    /// Cumulative asynchronous flush requests.
    pub(crate) aflushes: u64,
    /// Cumulative barriers.
    pub(crate) barriers: u64,
}

impl Default for Stats {
    fn default() -> Self {
        Stats {
            rails: (0..=RAIL_SLOTS)
                .map(|i| Rail::new(i == RAIL_SLOTS))
                .collect(),
        }
    }
}

impl Stats {
    fn rail(&self) -> &Rail {
        &self.rails[current_rail_index()]
    }

    /// Samples the calling thread's rail for the tracer (relaxed loads
    /// of a line this thread owns — no stores, no RMWs).
    pub(crate) fn rail_probe(&self) -> RailProbe {
        let rail = self.rail();
        RailProbe {
            sim_ns: rail.sim_ns.load(Ordering::Relaxed),
            flushes: rail.counts[OpClass::LFlushes as usize].load(Ordering::Relaxed)
                + rail.counts[OpClass::RFlushes as usize].load(Ordering::Relaxed),
            aflushes: rail.counts[OpClass::AFlushes as usize].load(Ordering::Relaxed),
            barriers: rail.counts[OpClass::Barriers as usize].load(Ordering::Relaxed),
        }
    }

    /// Spins until no operation is in flight on any rail. Callers must
    /// have blocked new entries first (the halted flag), or this may
    /// never terminate.
    fn await_quiescent(&self) {
        for rail in self.rails.iter() {
            spin_until(|| (rail.active.load(Ordering::SeqCst) == 0).then_some(()));
        }
    }

    /// Total number of primitive operations recorded, *including* the
    /// `CXL0_AF` extension's asynchronous flush requests and barriers.
    /// See [`Stats::total_sync_ops`] for the synchronous core only.
    pub fn total_ops(&self) -> u64 {
        self.snapshot().total_ops()
    }

    /// Number of synchronous primitives recorded (loads, stores, flushes
    /// and RMWs) — excludes `AFlush` requests and `Barrier`s, which are
    /// counted separately because one barrier retires many requests.
    pub fn total_sync_ops(&self) -> u64 {
        self.snapshot().total_sync_ops()
    }

    /// Simulated time accumulated, in nanoseconds.
    pub fn sim_nanos(&self) -> u64 {
        self.rails
            .iter()
            .map(|r| r.sim_ns.load(Ordering::Relaxed))
            .sum()
    }

    /// A plain-data snapshot of the counters, aggregated across all
    /// stripes in a single pass over the rail slab.
    pub fn snapshot(&self) -> StatsSnapshot {
        let mut counts = [0u64; OP_CLASSES];
        let mut sim_ns = 0u64;
        for rail in self.rails.iter() {
            for (total, slot) in counts.iter_mut().zip(rail.counts.iter()) {
                *total += slot.load(Ordering::Relaxed);
            }
            sim_ns += rail.sim_ns.load(Ordering::Relaxed);
        }
        StatsSnapshot {
            loads: counts[OpClass::Loads as usize],
            lstores: counts[OpClass::LStores as usize],
            rstores: counts[OpClass::RStores as usize],
            mstores: counts[OpClass::MStores as usize],
            lflushes: counts[OpClass::LFlushes as usize],
            rflushes: counts[OpClass::RFlushes as usize],
            rmws: counts[OpClass::Rmws as usize],
            aflushes: counts[OpClass::AFlushes as usize],
            barriers: counts[OpClass::Barriers as usize],
            sim_ns,
            // The fabric knows nothing of the allocator; the cluster
            // layer overlays these (`Cluster::stats_snapshot`).
            ..StatsSnapshot::default()
        }
    }
}

/// Copyable snapshot of [`Stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Loads issued.
    pub loads: u64,
    /// `LStore`s issued.
    pub lstores: u64,
    /// `RStore`s issued.
    pub rstores: u64,
    /// `MStore`s issued.
    pub mstores: u64,
    /// `LFlush`es issued.
    pub lflushes: u64,
    /// `RFlush`es issued.
    pub rflushes: u64,
    /// RMWs issued.
    pub rmws: u64,
    /// Asynchronous flush requests issued.
    pub aflushes: u64,
    /// Barriers issued.
    pub barriers: u64,
    /// Simulated nanoseconds.
    pub sim_ns: u64,
    /// Allocator: successful block allocations. Zero in raw-fabric
    /// snapshots; populated by
    /// [`Cluster::stats_snapshot`](crate::api::Cluster::stats_snapshot)
    /// and [`Session::stats_delta`](crate::api::Session::stats_delta).
    pub allocs: u64,
    /// Allocator: successful block frees (see [`StatsSnapshot::allocs`]).
    pub frees: u64,
    /// Allocator: allocations served by reusing a reclaimed block (see
    /// [`StatsSnapshot::allocs`]).
    pub freelist_hits: u64,
    /// Allocator gauge: payload cells currently live. Unlike the
    /// counters, [`StatsSnapshot::since`] carries gauges over from the
    /// later snapshot rather than subtracting.
    pub live_cells: u64,
    /// Allocator gauge: high-water mark of `live_cells` (see
    /// [`StatsSnapshot::live_cells`]).
    pub hw_cells: u64,
    /// Combining fronts: batches applied (combiner passes that found at
    /// least one announced op). Zero in raw-fabric snapshots; populated
    /// by the cluster layer like the allocator counters.
    pub combine_batches: u64,
    /// Combining fronts: operations completed through a combiner
    /// (applied + eliminated; see [`StatsSnapshot::combine_batches`]).
    pub combine_ops: u64,
    /// Combining fronts: operations annihilated by opposite-op
    /// elimination without touching the durable structure (counted per
    /// op: one push/pop pair adds two).
    pub combine_eliminations: u64,
    /// Combining fronts: combiner-lock acquisitions (elections).
    pub combine_elections: u64,
    /// Combining fronts: per-operation persistence syncs avoided —
    /// batched stores folded under one batch barrier, plus eliminated
    /// ops that skipped persistence entirely.
    pub combine_barriers_saved: u64,
    /// Combining fronts: inserts served from the board's spare-node
    /// cache instead of an allocator round trip.
    pub combine_spare_reuses: u64,
    /// Reclamation domain: traversal pins. Zero in raw-fabric
    /// snapshots; populated by the cluster layer like the allocator
    /// counters.
    pub smr_pins: u64,
    /// Reclamation domain: blocks retired into limbo (see
    /// [`StatsSnapshot::smr_pins`]).
    pub smr_retires: u64,
    /// Reclamation domain: retired blocks handed back to the allocator
    /// after their grace period.
    pub smr_reclaims: u64,
    /// Reclamation domain: successful global-epoch advances.
    pub smr_advances: u64,
    /// Reclamation-domain gauge: the current global epoch (carried, not
    /// diffed, by [`StatsSnapshot::since`]).
    pub smr_epoch: u64,
    /// Reclamation-domain gauge: blocks currently in limbo (see
    /// [`StatsSnapshot::smr_epoch`]).
    pub smr_limbo: u64,
    /// Persistency sanitizer: durability races detected. Zero in
    /// raw-fabric snapshots and when no checker is installed; populated
    /// by the cluster layer from [`Checker`](crate::check::Checker)
    /// counters. A *gauge* for [`StatsSnapshot::since`] purposes: the
    /// running total is what you want to assert on.
    pub check_durability_races: u64,
    /// Persistency sanitizer: unpersisted-read-at-recovery violations
    /// detected (see [`StatsSnapshot::check_durability_races`]).
    pub check_unpersisted_reads: u64,
    /// Persistency sanitizer: use-after-retire violations detected (see
    /// [`StatsSnapshot::check_durability_races`]).
    pub check_use_after_retire: u64,
    /// Runtime tracer: events recorded so far. Zero in raw-fabric
    /// snapshots and when no tracer is installed; populated by the
    /// cluster layer. A *gauge* for [`StatsSnapshot::since`] purposes
    /// (the running total is what you want to assert on), like the
    /// sanitizer counters.
    pub trace_events: u64,
    /// Runtime tracer: events lost to ring wraps or the crash-retired
    /// cap (see [`StatsSnapshot::trace_events`]).
    pub trace_dropped: u64,
    /// Runtime tracer gauge: p50 op latency in simulated nanoseconds,
    /// merged over every thread and op kind (upper bucket edge of the
    /// log2 histogram; see [`crate::trace::LatencyHistogram`]).
    pub trace_p50_sim_ns: u64,
    /// Runtime tracer gauge: p99 op latency (see
    /// [`StatsSnapshot::trace_p50_sim_ns`]).
    pub trace_p99_sim_ns: u64,
    /// Runtime tracer gauge: p99.9 op latency (see
    /// [`StatsSnapshot::trace_p50_sim_ns`]).
    pub trace_p999_sim_ns: u64,
}

impl StatsSnapshot {
    /// Total primitives, *including* asynchronous flush requests and
    /// barriers. See [`StatsSnapshot::total_sync_ops`].
    pub fn total_ops(&self) -> u64 {
        self.total_sync_ops() + self.aflushes + self.barriers
    }

    /// Synchronous primitives only (loads, stores, flushes, RMWs).
    pub fn total_sync_ops(&self) -> u64 {
        self.loads
            + self.lstores
            + self.rstores
            + self.mstores
            + self.lflushes
            + self.rflushes
            + self.rmws
    }

    /// Flushes of either kind (synchronous only; see
    /// [`StatsSnapshot::aflushes`] for asynchronous requests).
    pub fn flushes(&self) -> u64 {
        self.lflushes + self.rflushes
    }

    /// Component-wise difference (`self - earlier`) for the monotonic
    /// counters; the twelve *gauges* are carried over from `self`: the
    /// levels `live_cells`, `hw_cells`, `smr_epoch`, `smr_limbo` and the
    /// three `trace_p*_sim_ns` percentiles (a "delta" of a level is
    /// meaningless and could underflow), and the running totals one
    /// asserts on whole — the three `check_*` violation counts,
    /// `trace_events` and `trace_dropped`.
    pub fn since(&self, earlier: &StatsSnapshot) -> StatsSnapshot {
        StatsSnapshot {
            loads: self.loads - earlier.loads,
            lstores: self.lstores - earlier.lstores,
            rstores: self.rstores - earlier.rstores,
            mstores: self.mstores - earlier.mstores,
            lflushes: self.lflushes - earlier.lflushes,
            rflushes: self.rflushes - earlier.rflushes,
            rmws: self.rmws - earlier.rmws,
            aflushes: self.aflushes - earlier.aflushes,
            barriers: self.barriers - earlier.barriers,
            sim_ns: self.sim_ns - earlier.sim_ns,
            allocs: self.allocs - earlier.allocs,
            frees: self.frees - earlier.frees,
            freelist_hits: self.freelist_hits - earlier.freelist_hits,
            live_cells: self.live_cells,
            hw_cells: self.hw_cells,
            combine_batches: self.combine_batches - earlier.combine_batches,
            combine_ops: self.combine_ops - earlier.combine_ops,
            combine_eliminations: self.combine_eliminations - earlier.combine_eliminations,
            combine_elections: self.combine_elections - earlier.combine_elections,
            combine_barriers_saved: self.combine_barriers_saved - earlier.combine_barriers_saved,
            combine_spare_reuses: self.combine_spare_reuses - earlier.combine_spare_reuses,
            smr_pins: self.smr_pins - earlier.smr_pins,
            smr_retires: self.smr_retires - earlier.smr_retires,
            smr_reclaims: self.smr_reclaims - earlier.smr_reclaims,
            smr_advances: self.smr_advances - earlier.smr_advances,
            smr_epoch: self.smr_epoch,
            smr_limbo: self.smr_limbo,
            check_durability_races: self.check_durability_races,
            check_unpersisted_reads: self.check_unpersisted_reads,
            check_use_after_retire: self.check_use_after_retire,
            trace_events: self.trace_events,
            trace_dropped: self.trace_dropped,
            trace_p50_sim_ns: self.trace_p50_sim_ns,
            trace_p99_sim_ns: self.trace_p99_sim_ns,
            trace_p999_sim_ns: self.trace_p999_sim_ns,
        }
    }
}

/// One location's model state `(holders bitmask, cached value, memory
/// value)` as a cache-line-aligned sequence-locked record of atomics.
///
/// The sequence word doubles as the writer lock (odd = locked). Mutating
/// rules hold the writer lock; read-only rules take an optimistic
/// snapshot validated against the sequence word, paying no atomic
/// read-modify-write. All field accesses are atomics, so the seqlock is
/// race-free by construction (no torn reads are possible, only
/// inconsistent snapshots, which validation discards).
#[repr(align(64))]
#[derive(Debug)]
struct LocCell {
    seq: AtomicU64,
    holders: AtomicU64,
    cache_val: AtomicU64,
    mem_val: AtomicU64,
}

/// Spins until `attempt` yields a value, backing off to a scheduler
/// yield periodically — essential on single-core hosts, where pure
/// spinning would burn the whole timeslice the lock holder needs.
fn spin_until<T>(mut attempt: impl FnMut() -> Option<T>) -> T {
    let mut spins = 0u32;
    loop {
        if let Some(v) = attempt() {
            return v;
        }
        spins += 1;
        if spins.is_multiple_of(64) {
            std::thread::yield_now();
        } else {
            std::hint::spin_loop();
        }
    }
}

impl LocCell {
    fn new() -> Self {
        LocCell {
            seq: AtomicU64::new(0),
            holders: AtomicU64::new(0),
            cache_val: AtomicU64::new(0),
            mem_val: AtomicU64::new(0),
        }
    }

    /// Acquires the writer lock.
    fn lock(&self) -> CellGuard<'_> {
        spin_until(|| {
            let s = self.seq.load(Ordering::Relaxed);
            if s & 1 == 0
                && self
                    .seq
                    .compare_exchange_weak(s, s + 1, Ordering::Acquire, Ordering::Relaxed)
                    .is_ok()
            {
                Some(CellGuard {
                    cell: self,
                    unlocked_seq: s + 2,
                })
            } else {
                None
            }
        })
    }

    /// An optimistic consistent snapshot `(holders, cache_val, mem_val)`
    /// (the canonical seqlock read protocol).
    fn read(&self) -> (u64, u64, u64) {
        spin_until(|| {
            let s1 = self.seq.load(Ordering::Acquire);
            if s1 & 1 == 0 {
                let h = self.holders.load(Ordering::Relaxed);
                let c = self.cache_val.load(Ordering::Relaxed);
                let m = self.mem_val.load(Ordering::Relaxed);
                fence(Ordering::Acquire);
                if self.seq.load(Ordering::Relaxed) == s1 {
                    return Some((h, c, m));
                }
            }
            None
        })
    }
}

/// Writer-lock guard over one [`LocCell`]. Field loads may be relaxed
/// (the lock's acquire edge orders them); field *stores* are `Release`
/// so the odd sequence word written by the lock CAS is visible before
/// any field mutation — without that, a weakly-ordered machine could
/// publish a field store ahead of the seq-odd store and let an
/// optimistic reader validate a torn snapshot against the stale even
/// sequence value. (`Release` stores are free on x86.)
struct CellGuard<'a> {
    cell: &'a LocCell,
    unlocked_seq: u64,
}

impl CellGuard<'_> {
    fn holders(&self) -> u64 {
        self.cell.holders.load(Ordering::Relaxed)
    }

    fn set_holders(&self, v: u64) {
        self.cell.holders.store(v, Ordering::Release);
    }

    fn cache_val(&self) -> u64 {
        self.cell.cache_val.load(Ordering::Relaxed)
    }

    fn set_cache_val(&self, v: u64) {
        self.cell.cache_val.store(v, Ordering::Release);
    }

    fn mem_val(&self) -> u64 {
        self.cell.mem_val.load(Ordering::Relaxed)
    }

    fn set_mem_val(&self, v: u64) {
        self.cell.mem_val.store(v, Ordering::Release);
    }

    /// The value a load observes: the unique cached value if one exists,
    /// the owner's memory value otherwise.
    fn visible(&self) -> u64 {
        if self.holders() != 0 {
            self.cache_val()
        } else {
            self.mem_val()
        }
    }

    /// `Propagate-C-M`/drain: cached value (if any) to memory.
    fn drain(&self) {
        if self.holders() != 0 {
            self.set_mem_val(self.cache_val());
            self.set_holders(0);
        }
    }
}

impl Drop for CellGuard<'_> {
    fn drop(&mut self) {
        self.cell.seq.store(self.unlocked_seq, Ordering::Release);
    }
}

/// The crash gate's read-mostly control line: a halted flag (nonzero
/// while a crash is draining in-flight operations) and the bitmask of
/// crashed machines.
#[repr(align(64))]
#[derive(Debug)]
struct CrashWord {
    halted: AtomicU64,
    crashed: AtomicU64,
}

/// Shards per machine of the pending-`AFlush` buffer; one mutexed set
/// per shard so unrelated threads stop serializing.
const PENDING_SHARDS: usize = 8;

/// Each shard is a sorted, deduplicated `Vec` (binary-search insert):
/// for the shard sizes a barrier window produces this beats a B-tree set
/// — no per-entry node allocation, and `clear()` retains capacity so the
/// steady state allocates nothing at all. The `nonempty` bitmask (bit
/// per shard) lets `Barrier` visit only occupied shards, so the
/// barrier-per-store pattern (`FlitPolicy::ASYNC`) pays one shard lock, and an
/// empty barrier pays none.
#[derive(Debug)]
struct PendingBuf {
    nonempty: AtomicU64,
    shards: [Mutex<Vec<Loc>>; PENDING_SHARDS],
}

impl PendingBuf {
    fn new() -> Self {
        PendingBuf {
            nonempty: AtomicU64::new(0),
            shards: std::array::from_fn(|_| Mutex::new(Vec::new())),
        }
    }

    fn insert(&self, loc: Loc) {
        let s = loc.addr.index() % PENDING_SHARDS;
        let mut set = self.shards[s].lock();
        let was_empty = set.is_empty();
        if let Err(at) = set.binary_search(&loc) {
            set.insert(at, loc);
            if was_empty {
                self.nonempty.fetch_or(1u64 << s, Ordering::Release);
            }
        }
    }

    /// Retires every request shard by shard, calling `f` for each
    /// pending location and clearing as it goes; returns the number
    /// retired. Shard-at-a-time draining means a concurrent insert into
    /// a not-yet-visited shard may or may not be included — exactly the
    /// guarantee a concurrent insert had against the old single-mutex
    /// buffer.
    fn retire(&self, mut f: impl FnMut(Loc)) -> usize {
        let mut mask = self.nonempty.swap(0, Ordering::AcqRel);
        let mut retired = 0;
        while mask != 0 {
            let s = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            let mut set = self.shards[s].lock();
            for &loc in set.iter() {
                f(loc);
            }
            retired += set.len();
            set.clear();
        }
        retired
    }

    fn clear(&self) {
        // Only called with the world stopped (no concurrent inserts).
        for shard in &self.shards {
            shard.lock().clear();
        }
        self.nonempty.store(0, Ordering::Release);
    }

    fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().len()).sum()
    }
}

/// The concurrent CXL0 shared-memory fabric.
///
/// # Examples
///
/// ```
/// use cxl0_runtime::SimFabric;
/// use cxl0_model::{SystemConfig, MachineId, Loc};
///
/// let fabric = SimFabric::new(SystemConfig::symmetric_nvm(2, 16));
/// let node = fabric.node(MachineId(0));
/// let x = Loc::new(MachineId(1), 3);
/// node.lstore(x, 7)?;
/// node.rflush(x)?;          // persist to machine 1's memory
/// assert_eq!(node.load(x)?, 7);
/// fabric.crash(MachineId(1));
/// fabric.recover(MachineId(1));
/// assert_eq!(node.load(x)?, 7); // survived: NVM + RFlush
/// # Ok::<(), cxl0_runtime::Crashed>(())
/// ```
#[derive(Debug)]
pub struct SimFabric {
    cfg: SystemConfig,
    variant: ModelVariant,
    /// Flat slab of every machine's location cells;
    /// `cells[extents[m].0 + a]` guards the state of `Loc::new(m, a)`.
    cells: Box<[LocCell]>,
    /// Per-machine `(base offset, location count)` into `cells`. The
    /// count bounds-checks addresses per machine — without it an
    /// out-of-range address would silently alias the next machine's
    /// cells instead of panicking like the old nested-`Vec` indexing.
    extents: Vec<(usize, u32)>,
    /// The epoch crash gate's control line.
    crash_word: CrashWord,
    /// Serializes concurrent `crash()` calls.
    crash_lock: Mutex<()>,
    /// Per-machine sharded persistency buffers of pending `AFlush`
    /// requests (`CXL0_AF` extension; cleared by a crash of the machine).
    pending: Vec<PendingBuf>,
    stats: Stats,
    cost: CostModel,
    /// The persistency sanitizer, when one is installed
    /// ([`SimFabric::install_checker`]). Hooks are called with the
    /// affected cell's writer lock held; the checker never touches
    /// cells, so the cell → checker lock order is acyclic.
    checker: OnceLock<Arc<crate::check::Checker>>,
    /// The runtime tracer, when one is installed
    /// ([`SimFabric::install_tracer`]). Like the checker, absent by
    /// default: every seam is then a single `OnceLock` load and issues
    /// no atomic read-modify-write.
    tracer: OnceLock<Arc<crate::trace::Tracer>>,
}

impl SimFabric {
    /// Creates a fabric over `cfg` with the base variant and the Figure-5
    /// cost model.
    pub fn new(cfg: SystemConfig) -> Arc<Self> {
        Self::with_options(cfg, ModelVariant::Base, CostModel::figure5())
    }

    /// Creates a fabric with an explicit variant and cost model.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` has more than 64 machines (the holder bitmask).
    pub fn with_options(cfg: SystemConfig, variant: ModelVariant, cost: CostModel) -> Arc<Self> {
        assert!(cfg.num_machines() <= 64, "at most 64 machines supported");
        let mut extents = Vec::with_capacity(cfg.num_machines());
        let mut total = 0usize;
        for m in cfg.machines() {
            let locations = cfg.machine(m).locations;
            extents.push((total, locations));
            total += locations as usize;
        }
        let cells = (0..total).map(|_| LocCell::new()).collect();
        Arc::new(SimFabric {
            crash_word: CrashWord {
                halted: AtomicU64::new(0),
                crashed: AtomicU64::new(0),
            },
            crash_lock: Mutex::new(()),
            pending: (0..cfg.num_machines()).map(|_| PendingBuf::new()).collect(),
            cfg,
            variant,
            cells,
            extents,
            stats: Stats::default(),
            cost,
            checker: OnceLock::new(),
            tracer: OnceLock::new(),
        })
    }

    /// Installs the persistency sanitizer on this fabric. At most one
    /// checker per fabric; later calls are ignored. Prefer
    /// [`ClusterBuilder::with_checker`](crate::api::ClusterBuilder::with_checker),
    /// which also wires the allocator, SMR domain and root registry.
    pub fn install_checker(&self, checker: Arc<crate::check::Checker>) {
        let _ = self.checker.set(checker);
    }

    /// The installed persistency sanitizer, if any.
    pub fn checker(&self) -> Option<&Arc<crate::check::Checker>> {
        self.checker.get()
    }

    /// Installs the runtime tracer ([`crate::trace`]) on this fabric.
    /// At most one tracer per fabric; later calls are ignored. Prefer
    /// [`ClusterBuilder::with_tracing`](crate::api::ClusterBuilder::with_tracing),
    /// which also wires the sanitizer's violation sink and the
    /// snapshot-level percentile gauges.
    pub fn install_tracer(&self, tracer: Arc<crate::trace::Tracer>) {
        let _ = self.tracer.set(tracer);
    }

    /// The installed runtime tracer, if any.
    pub fn tracer(&self) -> Option<&Arc<crate::trace::Tracer>> {
        self.tracer.get()
    }

    /// The system configuration.
    pub fn config(&self) -> &SystemConfig {
        &self.cfg
    }

    /// The model variant in force (`Base`, `Psn`, or `Lwb`).
    pub fn variant(&self) -> ModelVariant {
        self.variant
    }

    /// Operation counters and simulated time.
    pub fn stats(&self) -> &Stats {
        &self.stats
    }

    /// A handle for threads running on machine `m`.
    ///
    /// # Panics
    ///
    /// Panics if `m` is out of range.
    pub fn node(self: &Arc<Self>, m: MachineId) -> NodeHandle {
        assert!(m.index() < self.cfg.num_machines(), "unknown machine {m}");
        NodeHandle {
            fabric: Arc::clone(self),
            machine: m,
        }
    }

    /// True if machine `m` is currently crashed.
    pub fn is_crashed(&self, m: MachineId) -> bool {
        self.crash_word.crashed.load(Ordering::Acquire) & (1u64 << m.index()) != 0
    }

    fn cell(&self, loc: Loc) -> &LocCell {
        let (base, count) = self.extents[loc.owner.index()];
        assert!(
            loc.addr.index() < count as usize,
            "address {} out of range for machine {} ({} locations)",
            loc.addr.index(),
            loc.owner,
            count
        );
        &self.cells[base + loc.addr.index()]
    }

    /// Crashes machine `m`: stop-the-world, wipe `m`'s cache entries
    /// everywhere, reset `m`'s memory if volatile, apply PSN poisoning if
    /// that variant is in force. Machines in `m`'s failure domain crash
    /// together. Idempotent.
    pub fn crash(&self, m: MachineId) {
        // Stop the world so the crash is one atomic transition: halt the
        // gate, then wait for every in-flight operation to retire.
        let _serial = self.crash_lock.lock();
        self.crash_word.halted.store(1, Ordering::SeqCst);
        self.stats.await_quiescent();
        let mut crashed_bits = 0u64;
        let mut zeroed_bits = 0u64;
        for d in self.cfg.failure_domain(m) {
            self.crash_word
                .crashed
                .fetch_or(1u64 << d.index(), Ordering::SeqCst);
            // Un-retired asynchronous flush requests die with the machine.
            self.pending[d.index()].clear();
            let bit = 1u64 << d.index();
            crashed_bits |= bit;
            if self.cfg.machine(d).memory == MemoryKind::Volatile {
                zeroed_bits |= bit;
            }
            for owner in self.cfg.machines() {
                for a in 0..self.cfg.machine(owner).locations {
                    let st = self.cells[self.extents[owner.index()].0 + a as usize].lock();
                    // The crashed machine's cache entries vanish.
                    st.set_holders(st.holders() & !bit);
                    if owner == d {
                        if self.cfg.machine(d).memory == MemoryKind::Volatile {
                            st.set_mem_val(0);
                        }
                        if self.variant == ModelVariant::Psn {
                            // Poison: every cache entry for a line owned by
                            // the crashed machine is invalidated.
                            st.set_holders(0);
                        }
                    }
                }
            }
        }
        if let Some(ck) = self.checker.get() {
            // The world is stopped: the shadow sees the same atomic
            // transition the fabric just performed.
            ck.on_crash(crashed_bits, zeroed_bits, self.variant == ModelVariant::Psn);
        }
        if let Some(tr) = self.tracer.get() {
            // Seal the incarnation while the world is still stopped:
            // every buffered event drains to the retired set, so
            // crashed-incarnation spans cannot interleave with
            // post-recovery ones.
            tr.on_crash();
        }
        self.crash_word.halted.store(0, Ordering::SeqCst);
    }

    /// Recovers machine `m` (and its failure domain): new threads may run
    /// on it again. Its cache is empty; memory contents are whatever the
    /// crash left (NVM kept, volatile zeroed).
    pub fn recover(&self, m: MachineId) {
        for d in self.cfg.failure_domain(m) {
            self.crash_word
                .crashed
                .fetch_and(!(1u64 << d.index()), Ordering::SeqCst);
        }
    }

    /// Performs `n` random propagation (`τ`) steps, as a cache-eviction
    /// daemon would. Useful in tests to exercise propagation
    /// nondeterminism deterministically from a seed.
    pub fn propagate_randomly(&self, seed: u64, n: usize) {
        let mut rng = StdRng::seed_from_u64(seed);
        let locs: Vec<Loc> = self.cfg.all_locations().collect();
        if locs.is_empty() {
            return;
        }
        for _ in 0..n {
            let loc = locs[rng.gen_range(0..locs.len())];
            let st = self.cell(loc).lock();
            if st.holders() == 0 {
                continue;
            }
            let owner_bit = 1u64 << loc.owner.index();
            if st.holders() & owner_bit != 0 && rng.gen_bool(0.5) {
                // Propagate-C-M: owner's cache → owner's memory.
                st.drain();
            } else {
                // Propagate-C-C: a random non-owner holder → owner.
                let others = st.holders() & !owner_bit;
                if others != 0 {
                    let idx = pick_bit(others, &mut rng);
                    st.set_holders((st.holders() & !(1u64 << idx)) | owner_bit);
                }
            }
            if let Some(ck) = self.checker.get() {
                ck.on_mutate(None, loc, st.holders(), st.cache_val(), st.mem_val());
            }
        }
    }

    /// Drains every cache to memory (the state change a successful `GPF`
    /// waits for). Exposed for orderly-shutdown scenarios.
    pub fn drain_all(&self) {
        for owner in self.cfg.machines() {
            let (base, count) = self.extents[owner.index()];
            for a in 0..count {
                let cell = &self.cells[base + a as usize];
                // Cheap optimistic skip: most cells are uncached.
                if cell.read().0 != 0 {
                    let st = cell.lock();
                    st.drain();
                    if let Some(ck) = self.checker.get() {
                        ck.on_mutate(
                            None,
                            Loc::new(owner, a),
                            st.holders(),
                            st.cache_val(),
                            st.mem_val(),
                        );
                    }
                }
            }
        }
    }

    /// Reads the owner's *memory* value of `loc` directly — the
    /// "post-crash recovery inspection" view, bypassing caches. Intended
    /// for tests and recovery assertions, not for algorithm code.
    pub fn peek_memory(&self, loc: Loc) -> u64 {
        self.cell(loc).read().2
    }

    /// True if some cache currently holds `loc`.
    pub fn is_cached(&self, loc: Loc) -> bool {
        self.cell(loc).read().0 != 0
    }

    /// Number of un-retired `AFlush` requests in machine `m`'s persistency
    /// buffer (`CXL0_AF` extension).
    pub fn pending_flushes(&self, m: MachineId) -> usize {
        self.pending[m.index()].len()
    }
}

fn pick_bit(mask: u64, rng: &mut StdRng) -> u32 {
    debug_assert!(mask != 0);
    let count = mask.count_ones();
    let k = rng.gen_range(0..count);
    let mut m = mask;
    for _ in 0..k {
        m &= m - 1;
    }
    m.trailing_zeros()
}

/// Anything that can issue operations as a machine: a raw [`NodeHandle`]
/// or a higher-level context wrapping one (the `api` module's `Session`).
///
/// The durable data structures accept `&impl AsNode`, so the same
/// structure code works against both layers of the crate.
pub trait AsNode {
    /// The underlying per-machine handle.
    fn as_node(&self) -> &NodeHandle;
}

impl AsNode for NodeHandle {
    fn as_node(&self) -> &NodeHandle {
        self
    }
}

impl<T: AsNode + ?Sized> AsNode for &T {
    fn as_node(&self) -> &NodeHandle {
        (**self).as_node()
    }
}

/// In-flight-operation guard: entry through the epoch gate plus the
/// issuing thread's rail, through which the operation records its class
/// and simulated cost.
struct OpGuard<'a> {
    rail: &'a Rail,
}

impl OpGuard<'_> {
    fn charge(&self, class: OpClass, ns: u64) {
        self.rail.bump(class, ns);
    }
}

impl Drop for OpGuard<'_> {
    fn drop(&mut self) {
        self.rail.end();
    }
}

/// A per-machine handle: the operations a thread running on that machine
/// may issue. Cloning is cheap (an `Arc` bump).
#[derive(Debug, Clone)]
pub struct NodeHandle {
    fabric: Arc<SimFabric>,
    machine: MachineId,
}

impl NodeHandle {
    /// The machine this handle issues from.
    pub fn machine(&self) -> MachineId {
        self.machine
    }

    /// The underlying fabric.
    pub fn fabric(&self) -> &Arc<SimFabric> {
        &self.fabric
    }

    /// Enters the epoch gate: publish the in-flight operation, then check
    /// the crash word — `halted` strictly **before** `crashed`. The
    /// sequentially consistent publish/check order against `crash()`'s
    /// halt/drain order guarantees (Dekker-style) that a crash either
    /// sees this operation and waits for it, or this operation sees the
    /// halt and backs off. The check order matters: reading
    /// `halted == 0` proves this publication either precedes the halt
    /// (so the drain waits for us and the op linearizes before the
    /// crash) or follows the reopen — and in the latter case the
    /// `crashed` bits, stored before the reopen, are guaranteed visible
    /// to the subsequent check. Checking `crashed` first would leave a
    /// window where an op threads between the drain and the bit
    /// publication and mutates a just-crashed machine.
    fn enter(&self) -> OpResult<OpGuard<'_>> {
        let fabric = &*self.fabric;
        let rail = fabric.stats.rail();
        let m_bit = 1u64 << self.machine.index();
        loop {
            rail.begin();
            if fabric.crash_word.halted.load(Ordering::SeqCst) != 0 {
                // A crash is draining: retire our publication and wait
                // for the gate to reopen.
                rail.end();
                spin_until(|| {
                    (fabric.crash_word.halted.load(Ordering::Acquire) == 0).then_some(())
                });
                continue;
            }
            if fabric.crash_word.crashed.load(Ordering::SeqCst) & m_bit != 0 {
                rail.end();
                return Err(Crashed {
                    machine: self.machine,
                });
            }
            return Ok(OpGuard { rail });
        }
    }

    fn op_cost(&self, p: Primitive, loc: Loc) -> u64 {
        self.fabric.cost.cost(p, self.machine == loc.owner)
    }

    /// Sanitizer hook: mirror a settled mutation of `loc` (called with
    /// the cell's writer lock held, so per-cell event order is exact).
    fn check_mutate(&self, loc: Loc, st: &CellGuard<'_>) {
        if let Some(ck) = self.fabric.checker.get() {
            ck.on_mutate(
                Some((self.machine, thread_slot_index())),
                loc,
                st.holders(),
                st.cache_val(),
                st.mem_val(),
            );
        }
    }

    /// Sanitizer hook: an application read of `loc`.
    fn check_load(&self, loc: Loc) {
        if let Some(ck) = self.fabric.checker.get() {
            ck.on_load((self.machine, thread_slot_index()), loc);
        }
    }

    /// Sanitizer + tracer seam for the [`Persistence`](crate::Persistence)
    /// strategies: the strategy just acknowledged its store/RMW on `loc`
    /// as durable. No-op without a checker or tracer.
    pub(crate) fn ack_persist(&self, loc: Loc) {
        if let Some(ck) = self.fabric.checker.get() {
            ck.on_ack(self.machine, loc);
        }
        if let Some(tr) = self.fabric.tracer.get() {
            tr.on_persist_ack();
        }
    }

    /// Tracer seam for the structure layer: opens an op span on the
    /// calling thread, or `None` when no tracer is installed (a single
    /// `OnceLock` load — the untraced hot path stays RMW-free).
    pub(crate) fn trace_span(
        &self,
        kind: crate::trace::OpKind,
    ) -> Option<crate::trace::SpanGuard<'_>> {
        self.fabric
            .tracer
            .get()
            .map(|tr| tr.span(kind, &self.fabric.stats, Some(self.machine)))
    }

    /// Tracer seam for recovery: opens a recovery-phase span (fabric-wide
    /// simulated time), or `None` when no tracer is installed. The first
    /// phase of a recovery pass should be preceded by
    /// [`Tracer::begin_recovery`] via [`NodeHandle::trace_begin_recovery`].
    pub(crate) fn trace_phase(
        &self,
        phase: crate::trace::RecoveryPhase,
    ) -> Option<crate::trace::PhaseGuard<'_>> {
        self.fabric
            .tracer
            .get()
            .map(|tr| tr.phase(phase, &self.fabric.stats, Some(self.machine)))
    }

    /// Resets the tracer's recovery breakdown at the top of a recovery
    /// pass, so [`Tracer::recovery_breakdown`] describes the latest pass
    /// only. No-op when no tracer is installed.
    pub(crate) fn trace_begin_recovery(&self) {
        if let Some(tr) = self.fabric.tracer.get() {
            tr.begin_recovery();
        }
    }

    /// Sanitizer seam for the allocator: the block whose payload starts
    /// at `loc` (spanning `cells` cells, reuse generation `gen`) was
    /// just handed out.
    pub(crate) fn check_alloc(&self, loc: Loc, cells: u32, gen: u64) {
        if let Some(ck) = self.fabric.checker.get() {
            ck.on_alloc(loc, cells, gen);
        }
    }

    /// Sanitizer seam for the allocator: the block at `loc` returned to
    /// its free list.
    pub(crate) fn check_free(&self, loc: Loc) {
        if let Some(ck) = self.fabric.checker.get() {
            ck.on_free(loc);
        }
    }

    /// Sanitizer seam for [`crate::smr`]: the block at `loc` was retired
    /// under global epoch `epoch`.
    pub(crate) fn check_retire(&self, loc: Loc, epoch: u64) {
        if let Some(ck) = self.fabric.checker.get() {
            ck.on_retire(loc, epoch);
        }
    }

    /// Sanitizer seam for [`crate::smr`]: post-crash recovery voided all
    /// reservations and limbo bags.
    pub(crate) fn check_smr_recover(&self) {
        if let Some(ck) = self.fabric.checker.get() {
            ck.on_smr_recover();
        }
    }

    /// Sanitizer seam for the named-root registry: the block holding
    /// `header` became durably reachable by name.
    pub(crate) fn check_add_root(&self, header: Loc) {
        if let Some(ck) = self.fabric.checker.get() {
            ck.add_root(header);
        }
    }

    /// `Load`: returns the value visible at `loc`.
    ///
    /// # Errors
    ///
    /// Fails if this machine has crashed.
    pub fn load(&self, loc: Loc) -> OpResult<u64> {
        // Gateless read-only fast path: a load that needs no state
        // change (LOAD-from-M, or an own-cache hit) linearizes at its
        // seqlock-consistent snapshot, so it skips the epoch gate — it
        // only records its cost and validates the crash word *after*
        // taking the snapshot. The post-snapshot check is what makes
        // this sound: if the snapshot observed any effect of a crash,
        // the cell's release unlock synchronizes the crasher's earlier
        // halted/crashed stores into this thread, so the check is
        // guaranteed to see them and divert to the gated slow path
        // (which waits out the drain and reports `Crashed`). A clean
        // check therefore proves the snapshot is linearizable strictly
        // before any in-flight crash — including the windows where this
        // thread is descheduled around the snapshot while a whole crash
        // (or a crash of another location's wipe) runs to completion.
        let fabric = &*self.fabric;
        let bit = 1u64 << self.machine.index();
        {
            let (h, c, m) = fabric.cell(loc).read();
            let hit = match fabric.variant {
                ModelVariant::Base | ModelVariant::Psn => {
                    if h == 0 {
                        Some(m) // LOAD-from-M (no copy)
                    } else if h & bit != 0 {
                        Some(c) // already a holder: the copy is a no-op
                    } else {
                        None
                    }
                }
                ModelVariant::Lwb => {
                    if h & bit != 0 {
                        Some(c) // own-cache hit
                    } else if h == 0 {
                        Some(m)
                    } else {
                        None
                    }
                }
            };
            // `halted` before `crashed`, as in `enter()`: a clean halted
            // read either proves the snapshot precedes any in-flight
            // crash, or follows a reopen whose earlier `crashed` stores
            // the second check is then guaranteed to observe.
            if let Some(v) = hit {
                if fabric.crash_word.halted.load(Ordering::SeqCst) == 0
                    && fabric.crash_word.crashed.load(Ordering::SeqCst) & bit == 0
                {
                    fabric
                        .stats
                        .rail()
                        .bump(OpClass::Loads, self.op_cost(Primitive::Load, loc));
                    self.check_load(loc);
                    return Ok(v);
                }
            }
        }
        let g = self.enter()?;
        g.charge(OpClass::Loads, self.op_cost(Primitive::Load, loc));
        let cell = self.fabric.cell(loc);
        self.check_load(loc);
        match self.fabric.variant {
            ModelVariant::Base | ModelVariant::Psn => {
                let st = cell.lock();
                if st.holders() != 0 {
                    // LOAD-from-C: copy into the issuer's cache.
                    st.set_holders(st.holders() | bit);
                    // Mirror the holder change only (a load is not a
                    // mutation of the value: no provenance, no
                    // lost-value clobber).
                    if let Some(ck) = self.fabric.checker.get() {
                        ck.on_mutate(None, loc, st.holders(), st.cache_val(), st.mem_val());
                    }
                    Ok(st.cache_val())
                } else {
                    // LOAD-from-M (no copy).
                    Ok(st.mem_val())
                }
            }
            ModelVariant::Lwb => {
                let st = cell.lock();
                if st.holders() & bit != 0 {
                    Ok(st.cache_val())
                } else {
                    // Blocking until the line drains to memory ≡ force
                    // the drain, then read memory.
                    st.drain();
                    if let Some(ck) = self.fabric.checker.get() {
                        ck.on_mutate(None, loc, st.holders(), st.cache_val(), st.mem_val());
                    }
                    Ok(st.mem_val())
                }
            }
        }
    }

    /// `LStore`: store to this machine's cache.
    ///
    /// # Errors
    ///
    /// Fails if this machine has crashed.
    pub fn lstore(&self, loc: Loc, v: u64) -> OpResult<()> {
        let g = self.enter()?;
        g.charge(OpClass::LStores, self.op_cost(Primitive::LStore, loc));
        let st = self.fabric.cell(loc).lock();
        st.set_cache_val(v);
        st.set_holders(1u64 << self.machine.index());
        self.check_mutate(loc, &st);
        Ok(())
    }

    /// `RStore`: store to the owner's cache.
    ///
    /// # Errors
    ///
    /// Fails if this machine has crashed.
    pub fn rstore(&self, loc: Loc, v: u64) -> OpResult<()> {
        let g = self.enter()?;
        g.charge(OpClass::RStores, self.op_cost(Primitive::RStore, loc));
        let st = self.fabric.cell(loc).lock();
        st.set_cache_val(v);
        st.set_holders(1u64 << loc.owner.index());
        self.check_mutate(loc, &st);
        Ok(())
    }

    /// `MStore`: store directly to the owner's memory.
    ///
    /// # Errors
    ///
    /// Fails if this machine has crashed.
    pub fn mstore(&self, loc: Loc, v: u64) -> OpResult<()> {
        let g = self.enter()?;
        g.charge(OpClass::MStores, self.op_cost(Primitive::MStore, loc));
        let st = self.fabric.cell(loc).lock();
        st.set_mem_val(v);
        st.set_holders(0);
        self.check_mutate(loc, &st);
        Ok(())
    }

    /// Store with a runtime-selected strength.
    ///
    /// # Errors
    ///
    /// Fails if this machine has crashed.
    pub fn store(&self, kind: StoreKind, loc: Loc, v: u64) -> OpResult<()> {
        match kind {
            StoreKind::Local => self.lstore(loc, v),
            StoreKind::Remote => self.rstore(loc, v),
            StoreKind::Memory => self.mstore(loc, v),
        }
    }

    /// `LFlush`: drain this machine's cached copy one level (to the
    /// owner's cache, or to memory when this machine owns the line). The
    /// blocking precondition is satisfied by forcing the propagation.
    ///
    /// # Errors
    ///
    /// Fails if this machine has crashed.
    pub fn lflush(&self, loc: Loc) -> OpResult<()> {
        let g = self.enter()?;
        g.charge(OpClass::LFlushes, self.op_cost(Primitive::LFlush, loc));
        let bit = 1u64 << self.machine.index();
        let cell = self.fabric.cell(loc);
        // Fast path: nothing of ours to flush.
        if cell.read().0 & bit == 0 {
            return Ok(());
        }
        let owner_bit = 1u64 << loc.owner.index();
        let st = cell.lock();
        if st.holders() & bit != 0 {
            if self.machine == loc.owner {
                // Propagate-C-M.
                st.drain();
            } else {
                // Propagate-C-C toward the owner.
                st.set_holders((st.holders() & !bit) | owner_bit);
            }
            self.check_mutate(loc, &st);
        }
        Ok(())
    }

    /// `RFlush`: force the line all the way to the owner's memory.
    ///
    /// # Errors
    ///
    /// Fails if this machine has crashed.
    pub fn rflush(&self, loc: Loc) -> OpResult<()> {
        let g = self.enter()?;
        g.charge(OpClass::RFlushes, self.op_cost(Primitive::RFlush, loc));
        let cell = self.fabric.cell(loc);
        // Fast path: an uncached line is already as persistent as it gets.
        if cell.read().0 == 0 {
            return Ok(());
        }
        let st = cell.lock();
        st.drain();
        self.check_mutate(loc, &st);
        Ok(())
    }

    /// Flush with a runtime-selected strength.
    ///
    /// # Errors
    ///
    /// Fails if this machine has crashed.
    pub fn flush(&self, kind: cxl0_model::FlushKind, loc: Loc) -> OpResult<()> {
        match kind {
            cxl0_model::FlushKind::Local => self.lflush(loc),
            cxl0_model::FlushKind::Remote => self.rflush(loc),
        }
    }

    /// `GPF`: drain every cache in the system to memory.
    ///
    /// # Errors
    ///
    /// Fails if this machine has crashed.
    pub fn gpf(&self) -> OpResult<()> {
        let _g = self.enter()?;
        self.fabric.drain_all();
        Ok(())
    }

    /// `AFlush` (`CXL0_AF` extension): enqueue an asynchronous flush
    /// request for `loc` into this machine's persistency buffer and return
    /// immediately. The write-back is only guaranteed to have happened
    /// after a subsequent [`NodeHandle::barrier`]; an un-barriered request
    /// is lost if this machine crashes.
    ///
    /// # Errors
    ///
    /// Fails if this machine has crashed.
    pub fn aflush(&self, loc: Loc) -> OpResult<()> {
        let g = self.enter()?;
        g.charge(OpClass::AFlushes, self.fabric.cost.aflush_issue);
        self.fabric.pending[self.machine.index()].insert(loc);
        Ok(())
    }

    /// `Barrier` (`CXL0_AF` extension, the `SFENCE` analogue): retire every
    /// pending `AFlush` request of this machine, forcing each line to the
    /// owner's memory. Pending write-backs overlap on the link, so `n`
    /// lines cost one full `RFlush` plus `n-1` pipelined increments
    /// (see [`CostModel::barrier_cost`]) instead of `n` round trips.
    ///
    /// Returns the number of lines retired.
    ///
    /// # Errors
    ///
    /// Fails if this machine has crashed.
    pub fn barrier(&self) -> OpResult<usize> {
        let g = self.enter()?;
        // Streaming equivalent of `CostModel::barrier_cost` over the
        // per-line full-RFlush costs: track the slowest line and the
        // count instead of collecting a vector.
        let mut max_line = 0u64;
        // With a checker installed, collect each retired line's
        // post-drain state (under its lock) and report the whole batch
        // at once: persists are mirrored before publication checks, so
        // intra-barrier drain order can never read as a race.
        let checking = self.fabric.checker.get().is_some();
        let mut batch = Vec::new();
        let retired = self.fabric.pending[self.machine.index()].retire(|loc| {
            let cell = self.fabric.cell(loc);
            if cell.read().0 != 0 {
                let st = cell.lock();
                st.drain();
                if checking {
                    batch.push((loc, st.holders(), st.cache_val(), st.mem_val()));
                }
            }
            let local = self.machine == loc.owner;
            max_line = max_line.max(self.fabric.cost.cost(Primitive::RFlush, local));
        });
        if let Some(ck) = self.fabric.checker.get() {
            ck.on_barrier(Some((self.machine, thread_slot_index())), &batch);
        }
        g.charge(
            OpClass::Barriers,
            self.fabric.cost.barrier_cost_of(max_line, retired as u64),
        );
        Ok(retired)
    }

    /// Compare-and-swap with the given store strength: atomically loads
    /// the visible value and, if it equals `old`, installs `new`.
    ///
    /// Returns `Ok(old)` on success and `Err(actual)` on mismatch (a
    /// failed CAS is equivalent to a plain load).
    ///
    /// # Errors
    ///
    /// Fails with [`Crashed`] if this machine has crashed.
    pub fn cas(&self, kind: StoreKind, loc: Loc, old: u64, new: u64) -> OpResult<Result<u64, u64>> {
        let g = self.enter()?;
        let prim = match kind {
            StoreKind::Local => Primitive::LRmw,
            StoreKind::Remote => Primitive::RRmw,
            StoreKind::Memory => Primitive::MRmw,
        };
        g.charge(OpClass::Rmws, self.op_cost(prim, loc));
        let cell = self.fabric.cell(loc);
        // Fast path: a mismatched CAS is a plain load, which the
        // optimistic snapshot already linearizes.
        let (h, c, m) = cell.read();
        let visible = if h != 0 { c } else { m };
        if visible != old {
            self.check_load(loc);
            return Ok(Err(visible));
        }
        let st = cell.lock();
        let visible = st.visible();
        if visible != old {
            self.check_load(loc);
            return Ok(Err(visible));
        }
        match kind {
            StoreKind::Local => {
                st.set_cache_val(new);
                st.set_holders(1u64 << self.machine.index());
            }
            StoreKind::Remote => {
                st.set_cache_val(new);
                st.set_holders(1u64 << loc.owner.index());
            }
            StoreKind::Memory => {
                st.set_mem_val(new);
                st.set_holders(0);
            }
        }
        self.check_mutate(loc, &st);
        Ok(Ok(old))
    }

    /// Fetch-and-add with the given store strength; returns the previous
    /// value.
    ///
    /// # Errors
    ///
    /// Fails if this machine has crashed.
    pub fn faa(&self, kind: StoreKind, loc: Loc, delta: u64) -> OpResult<u64> {
        let g = self.enter()?;
        let prim = match kind {
            StoreKind::Local => Primitive::LRmw,
            StoreKind::Remote => Primitive::RRmw,
            StoreKind::Memory => Primitive::MRmw,
        };
        g.charge(OpClass::Rmws, self.op_cost(prim, loc));
        let st = self.fabric.cell(loc).lock();
        let visible = st.visible();
        let new = visible.wrapping_add(delta);
        match kind {
            StoreKind::Local => {
                st.set_cache_val(new);
                st.set_holders(1u64 << self.machine.index());
            }
            StoreKind::Remote => {
                st.set_cache_val(new);
                st.set_holders(1u64 << loc.owner.index());
            }
            StoreKind::Memory => {
                st.set_mem_val(new);
                st.set_holders(0);
            }
        }
        self.check_mutate(loc, &st);
        Ok(visible)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A snapshot whose `k`-th field holds `base * k`. Deliberately a
    /// full literal: a field appended to [`StatsSnapshot`] fails to
    /// compile here until it is numbered — and then
    /// `since_subtracts_counters_and_carries_gauges` makes its author
    /// decide which class it is in.
    fn filled(base: u64) -> StatsSnapshot {
        let mut k = 0;
        let mut next = || {
            k += 1;
            base * k
        };
        StatsSnapshot {
            loads: next(),
            lstores: next(),
            rstores: next(),
            mstores: next(),
            lflushes: next(),
            rflushes: next(),
            rmws: next(),
            aflushes: next(),
            barriers: next(),
            sim_ns: next(),
            allocs: next(),
            frees: next(),
            freelist_hits: next(),
            live_cells: next(),
            hw_cells: next(),
            combine_batches: next(),
            combine_ops: next(),
            combine_eliminations: next(),
            combine_elections: next(),
            combine_barriers_saved: next(),
            combine_spare_reuses: next(),
            smr_pins: next(),
            smr_retires: next(),
            smr_reclaims: next(),
            smr_advances: next(),
            smr_epoch: next(),
            smr_limbo: next(),
            check_durability_races: next(),
            check_unpersisted_reads: next(),
            check_use_after_retire: next(),
            trace_events: next(),
            trace_dropped: next(),
            trace_p50_sim_ns: next(),
            trace_p99_sim_ns: next(),
            trace_p999_sim_ns: next(),
        }
    }

    #[test]
    fn since_subtracts_counters_and_carries_gauges() {
        // The two snapshots differ in every field.
        let (earlier, later) = (filled(2), filled(5));
        let expected = StatsSnapshot {
            // The gauges carry the later value...
            live_cells: later.live_cells,
            hw_cells: later.hw_cells,
            smr_epoch: later.smr_epoch,
            smr_limbo: later.smr_limbo,
            check_durability_races: later.check_durability_races,
            check_unpersisted_reads: later.check_unpersisted_reads,
            check_use_after_retire: later.check_use_after_retire,
            trace_events: later.trace_events,
            trace_dropped: later.trace_dropped,
            trace_p50_sim_ns: later.trace_p50_sim_ns,
            trace_p99_sim_ns: later.trace_p99_sim_ns,
            trace_p999_sim_ns: later.trace_p999_sim_ns,
            // ... and every other field is a counter: 5k - 2k.
            ..filled(3)
        };
        assert_eq!(later.since(&earlier), expected);
    }
    use std::sync::atomic::AtomicBool;

    const M0: MachineId = MachineId(0);
    const M1: MachineId = MachineId(1);

    fn fabric2() -> Arc<SimFabric> {
        SimFabric::new(SystemConfig::symmetric_nvm(2, 4))
    }

    fn x(o: usize, a: u32) -> Loc {
        Loc::new(MachineId(o), a)
    }

    #[test]
    fn store_kinds_propagation_depth() {
        let f = fabric2();
        let n0 = f.node(M0);
        n0.lstore(x(1, 0), 1).unwrap();
        assert_eq!(f.peek_memory(x(1, 0)), 0); // still cached
        assert!(f.is_cached(x(1, 0)));
        n0.mstore(x(1, 1), 2).unwrap();
        assert_eq!(f.peek_memory(x(1, 1)), 2);
        assert!(!f.is_cached(x(1, 1)));
        n0.rstore(x(1, 2), 3).unwrap();
        assert_eq!(f.peek_memory(x(1, 2)), 0); // in owner's cache
        assert!(f.is_cached(x(1, 2)));
    }

    #[test]
    fn rflush_persists_lflush_moves_one_level() {
        let f = fabric2();
        let n0 = f.node(M0);
        n0.lstore(x(1, 0), 7).unwrap();
        n0.lflush(x(1, 0)).unwrap();
        // Value moved to owner's cache, not memory.
        assert_eq!(f.peek_memory(x(1, 0)), 0);
        assert!(f.is_cached(x(1, 0)));
        n0.rflush(x(1, 0)).unwrap();
        assert_eq!(f.peek_memory(x(1, 0)), 7);
        assert!(!f.is_cached(x(1, 0)));
    }

    #[test]
    fn owner_lflush_writes_memory() {
        let f = fabric2();
        let n1 = f.node(M1);
        n1.lstore(x(1, 0), 9).unwrap();
        n1.lflush(x(1, 0)).unwrap();
        assert_eq!(f.peek_memory(x(1, 0)), 9);
    }

    #[test]
    fn crash_wipes_cache_keeps_nvm() {
        let f = fabric2();
        let n0 = f.node(M0);
        n0.mstore(x(0, 0), 5).unwrap();
        n0.lstore(x(0, 0), 6).unwrap(); // newer value only in cache
        f.crash(M0);
        assert!(f.is_crashed(M0));
        assert!(n0.load(x(0, 0)).is_err());
        f.recover(M0);
        assert_eq!(n0.load(x(0, 0)).unwrap(), 5); // cache lost, NVM kept
    }

    #[test]
    fn crash_zeroes_volatile_memory() {
        let f = SimFabric::new(SystemConfig::symmetric_volatile(2, 1));
        let n0 = f.node(M0);
        n0.mstore(x(0, 0), 5).unwrap();
        f.crash(M0);
        f.recover(M0);
        assert_eq!(n0.load(x(0, 0)).unwrap(), 0);
    }

    #[test]
    fn remote_cached_copy_survives_owner_crash_base() {
        let f = fabric2();
        let n0 = f.node(M0);
        n0.lstore(x(1, 0), 3).unwrap();
        f.crash(M1);
        f.recover(M1);
        // Base variant: m0's cached copy survives and is visible.
        assert_eq!(n0.load(x(1, 0)).unwrap(), 3);
    }

    #[test]
    fn psn_crash_poisons_remote_copies() {
        let f = SimFabric::with_options(
            SystemConfig::symmetric_nvm(2, 1),
            ModelVariant::Psn,
            CostModel::free(),
        );
        let n0 = f.node(M0);
        n0.lstore(x(1, 0), 3).unwrap();
        f.crash(M1);
        f.recover(M1);
        // PSN: the copy was poisoned; memory value (0) is visible.
        assert_eq!(n0.load(x(1, 0)).unwrap(), 0);
    }

    #[test]
    fn lwb_load_forces_writeback() {
        let f = SimFabric::with_options(
            SystemConfig::symmetric_nvm(2, 1),
            ModelVariant::Lwb,
            CostModel::free(),
        );
        let n0 = f.node(M0);
        let n1 = f.node(M1);
        n0.lstore(x(1, 0), 4).unwrap();
        // m1's load drains the line to its memory first.
        assert_eq!(n1.load(x(1, 0)).unwrap(), 4);
        assert_eq!(f.peek_memory(x(1, 0)), 4);
    }

    #[test]
    fn cas_success_and_failure() {
        let f = fabric2();
        let n0 = f.node(M0);
        assert_eq!(n0.cas(StoreKind::Local, x(1, 0), 0, 10).unwrap(), Ok(0));
        assert_eq!(n0.cas(StoreKind::Local, x(1, 0), 0, 20).unwrap(), Err(10));
        assert_eq!(n0.load(x(1, 0)).unwrap(), 10);
    }

    #[test]
    fn faa_returns_previous() {
        let f = fabric2();
        let n0 = f.node(M0);
        assert_eq!(n0.faa(StoreKind::Memory, x(0, 0), 5).unwrap(), 0);
        assert_eq!(n0.faa(StoreKind::Memory, x(0, 0), 5).unwrap(), 5);
        assert_eq!(f.peek_memory(x(0, 0)), 10);
    }

    #[test]
    fn gpf_drains_everything() {
        let f = fabric2();
        let n0 = f.node(M0);
        n0.lstore(x(0, 0), 1).unwrap();
        n0.lstore(x(1, 0), 2).unwrap();
        n0.gpf().unwrap();
        assert_eq!(f.peek_memory(x(0, 0)), 1);
        assert_eq!(f.peek_memory(x(1, 0)), 2);
    }

    #[test]
    fn stats_count_operations_and_time() {
        let f = fabric2();
        let n0 = f.node(M0);
        n0.lstore(x(1, 0), 1).unwrap();
        n0.load(x(1, 0)).unwrap();
        n0.rflush(x(1, 0)).unwrap();
        let s = f.stats().snapshot();
        assert_eq!(s.lstores, 1);
        assert_eq!(s.loads, 1);
        assert_eq!(s.rflushes, 1);
        assert_eq!(s.total_ops(), 3);
        assert_eq!(s.total_sync_ops(), 3);
        assert!(s.sim_ns > 0);
    }

    #[test]
    fn total_ops_includes_async_extension_ops() {
        let f = fabric2();
        let n0 = f.node(M0);
        n0.lstore(x(1, 0), 1).unwrap();
        n0.aflush(x(1, 0)).unwrap();
        n0.barrier().unwrap();
        // Stats and its snapshot agree, and both count the async ops.
        assert_eq!(f.stats().total_ops(), 3);
        assert_eq!(f.stats().total_sync_ops(), 1);
        let s = f.stats().snapshot();
        assert_eq!(s.total_ops(), 3);
        assert_eq!(s.total_sync_ops(), 1);
    }

    #[test]
    fn propagate_randomly_eventually_persists() {
        let f = fabric2();
        let n0 = f.node(M0);
        n0.lstore(x(1, 0), 8).unwrap();
        f.propagate_randomly(42, 200);
        assert_eq!(f.peek_memory(x(1, 0)), 8);
    }

    #[test]
    fn concurrent_faa_is_atomic() {
        let f = SimFabric::new(SystemConfig::symmetric_nvm(2, 1));
        let mut handles = Vec::new();
        for t in 0..4 {
            let node = f.node(MachineId(t % 2));
            handles.push(std::thread::spawn(move || {
                for _ in 0..1000 {
                    node.faa(StoreKind::Local, Loc::new(MachineId(0), 0), 1)
                        .unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let n = f.node(M0);
        assert_eq!(n.load(Loc::new(MachineId(0), 0)).unwrap(), 4000);
    }

    #[test]
    fn concurrent_cas_contention_loses_no_update() {
        // CAS's optimistic fast path must never let two winners through.
        let f = SimFabric::new(SystemConfig::symmetric_nvm(2, 1));
        let loc = Loc::new(M0, 0);
        let mut handles = Vec::new();
        for t in 0..4 {
            let node = f.node(MachineId(t % 2));
            handles.push(std::thread::spawn(move || {
                let mut wins = 0u64;
                for _ in 0..2000 {
                    let seen = node.load(loc).unwrap();
                    if node
                        .cas(StoreKind::Local, loc, seen, seen + 1)
                        .unwrap()
                        .is_ok()
                    {
                        wins += 1;
                    }
                }
                wins
            }));
        }
        let total: u64 = handles.into_iter().map(|h| h.join().unwrap()).sum();
        let n = f.node(M0);
        assert_eq!(n.load(loc).unwrap(), total);
    }

    #[test]
    fn aflush_defers_persistence_until_barrier() {
        let f = fabric2();
        let n0 = f.node(M0);
        n0.lstore(x(1, 0), 7).unwrap();
        n0.aflush(x(1, 0)).unwrap();
        assert_eq!(f.pending_flushes(M0), 1);
        assert_eq!(f.peek_memory(x(1, 0)), 0); // nothing persisted yet
        assert_eq!(n0.barrier().unwrap(), 1);
        assert_eq!(f.pending_flushes(M0), 0);
        assert_eq!(f.peek_memory(x(1, 0)), 7);
        assert!(!f.is_cached(x(1, 0)));
    }

    #[test]
    fn barrier_with_empty_buffer_is_cheap_noop() {
        let f = fabric2();
        let n0 = f.node(M0);
        assert_eq!(n0.barrier().unwrap(), 0);
        let s = f.stats().snapshot();
        assert_eq!(s.barriers, 1);
        assert_eq!(s.aflushes, 0);
    }

    #[test]
    fn barrier_batches_multiple_lines_cheaper_than_sync_flushes() {
        let cfg = SystemConfig::symmetric_nvm(2, 8);
        let batched = SimFabric::new(cfg.clone());
        let n = batched.node(M0);
        for a in 0..4 {
            n.lstore(x(1, a), a as u64 + 1).unwrap();
            n.aflush(x(1, a)).unwrap();
        }
        n.barrier().unwrap();

        let synced = SimFabric::new(cfg);
        let m = synced.node(M0);
        for a in 0..4 {
            m.lstore(x(1, a), a as u64 + 1).unwrap();
            m.rflush(x(1, a)).unwrap();
        }
        for a in 0..4 {
            assert_eq!(batched.peek_memory(x(1, a)), a as u64 + 1);
            assert_eq!(synced.peek_memory(x(1, a)), a as u64 + 1);
        }
        assert!(
            batched.stats().sim_nanos() < synced.stats().sim_nanos(),
            "batched {} !< synced {}",
            batched.stats().sim_nanos(),
            synced.stats().sim_nanos()
        );
    }

    #[test]
    fn crash_discards_pending_aflushes() {
        let f = fabric2();
        let n0 = f.node(M0);
        n0.lstore(x(1, 0), 7).unwrap();
        n0.aflush(x(1, 0)).unwrap();
        f.crash(M0);
        f.recover(M0);
        assert_eq!(f.pending_flushes(M0), 0);
        // The post-crash barrier retires nothing; the store was never
        // persisted (it may still be visible from the owner's cache).
        assert_eq!(n0.barrier().unwrap(), 0);
        assert_eq!(f.peek_memory(x(1, 0)), 0);
    }

    #[test]
    fn duplicate_aflushes_to_one_line_retire_once() {
        let f = fabric2();
        let n0 = f.node(M0);
        n0.lstore(x(1, 0), 5).unwrap();
        n0.aflush(x(1, 0)).unwrap();
        n0.aflush(x(1, 0)).unwrap();
        assert_eq!(f.pending_flushes(M0), 1);
        assert_eq!(n0.barrier().unwrap(), 1);
    }

    #[test]
    fn pending_buffer_shards_dedupe_and_drain_across_shards() {
        // Locations spread over more addresses than shards: every one is
        // tracked once and retired once.
        let f = SimFabric::new(SystemConfig::symmetric_nvm(2, 64));
        let n0 = f.node(M0);
        for a in 0..40 {
            n0.lstore(x(1, a), u64::from(a) + 1).unwrap();
            n0.aflush(x(1, a)).unwrap();
            n0.aflush(x(1, a)).unwrap(); // duplicate in the same shard
        }
        assert_eq!(f.pending_flushes(M0), 40);
        assert_eq!(n0.barrier().unwrap(), 40);
        assert_eq!(f.pending_flushes(M0), 0);
        for a in 0..40 {
            assert_eq!(f.peek_memory(x(1, a)), u64::from(a) + 1);
        }
    }

    #[test]
    fn crash_during_concurrent_ops_is_atomic() {
        let f = SimFabric::new(SystemConfig::symmetric_nvm(2, 8));
        let stop = Arc::new(AtomicBool::new(false));
        let mut handles = Vec::new();
        for _ in 0..3 {
            let node = f.node(M1);
            let stop = Arc::clone(&stop);
            handles.push(std::thread::spawn(move || {
                let mut i = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    if node.lstore(Loc::new(M1, (i % 8) as u32), i).is_err() {
                        break; // machine crashed; thread dies
                    }
                    i += 1;
                }
            }));
        }
        std::thread::sleep(std::time::Duration::from_millis(10));
        f.crash(M1);
        stop.store(true, Ordering::Relaxed);
        for h in handles {
            h.join().unwrap();
        }
        assert!(f.is_crashed(M1));
    }

    #[test]
    fn ops_on_other_machines_proceed_after_a_crash() {
        let f = fabric2();
        let n0 = f.node(M0);
        let n1 = f.node(M1);
        n0.mstore(x(0, 0), 3).unwrap();
        f.crash(M1);
        assert!(n1.load(x(1, 0)).is_err());
        // The gate reopened for everyone else.
        assert_eq!(n0.load(x(0, 0)).unwrap(), 3);
        f.recover(M1);
        assert_eq!(n1.load(x(1, 0)).unwrap(), 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_address_panics_instead_of_aliasing() {
        // The flat slab must preserve the nested-Vec behavior: a bad
        // address panics rather than silently hitting the next
        // machine's cells.
        let f = fabric2(); // 4 locations per machine
        let _ = f.node(M0).load(x(0, 7));
    }

    #[test]
    fn crash_is_idempotent_and_serializable() {
        let f = fabric2();
        let n0 = f.node(M0);
        n0.lstore(x(1, 0), 1).unwrap();
        f.crash(M1);
        f.crash(M1); // idempotent
        f.crash(M0); // a second machine, while the first is down
        assert!(f.is_crashed(M0));
        assert!(f.is_crashed(M1));
        f.recover(M0);
        f.recover(M1);
        assert_eq!(f.node(M0).load(x(0, 0)).unwrap(), 0);
    }
}
