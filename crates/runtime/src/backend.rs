//! `SimFabric`: an executable, thread-safe implementation of the CXL0
//! semantics, suitable for running real concurrent workloads with crash
//! injection.
//!
//! ## Correspondence with the abstract model
//!
//! The global cache invariant of §3.3 makes the abstract state
//! *per-location*, so `SimFabric` shards it into one cell per location
//! holding `(holders bitmask, cached value, memory value)`: the model's
//! [`Cell`]. Every rule but `GPF` is computed by the model's own
//! [`cell::step`] — through [`cell::force`], which first takes the `τ*`
//! steps a blocked `LFlush`, `RFlush` or LWB load waits for — under the
//! cell's writer lock, or on a seqlock snapshot when the step changes
//! nothing. Each primitive is thus a linearizable model transition (a
//! `τ*`-prefixed one, for a blocking primitive); a unit test replays the
//! steps of threaded runs through the model's rules.
//!
//! ## Concurrency: how the hot path scales
//!
//! The per-operation path deliberately touches no globally shared
//! mutable cache line:
//!
//! * **Location slab.** All location state lives in one slab of
//!   location cells, two per 64-byte host line, indexed through
//!   precomputed per-machine offsets. The slab is a table of fixed-size
//!   chunks, each allocated and zeroed by the first primitive that
//!   touches one of its cells (a cold, out-of-line branch), so a pool's
//!   host memory, build time and crash sweep grow with the cells a
//!   workload touches, not with the cells it configures; walks over the
//!   whole slab skip untouched chunks, whose cells are in the all-zero
//!   initial state. Each cell is a tiny sequence-locked record of
//!   atomics: mutating rules spin on the cell's sequence word (writer
//!   lock), while read-only rules (`Load`-from-M, a failed CAS, no-op
//!   flushes, `peek_memory`) validate an optimistic snapshot against
//!   the sequence word and issue **no** atomic read-modify-write at
//!   all.
//! * **Striped statistics.** Operation counters and simulated time are
//!   recorded on cache-line-padded per-thread *rails* ([`Stats`] owns
//!   one rail per leased thread slot, plus one shared overflow rail).
//!   A rail is written by exactly one live thread, so the common-path
//!   update is a plain load + store pair on a line no other thread
//!   touches; [`Stats::snapshot`] aggregates across rails, and like
//!   every scan of a per-thread table visits only the slots leased so
//!   far (`leased_slots` states the bound and why it is exact).
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
//!
//! The model lets a machine crash between any two primitives:
//! [`SimFabric::arm_crash`] arms a one-shot *crash point* right before
//! the `k`-th primitive (counted as [`Stats::total_ops`] counts them),
//! which crashes its victims — none, one or several machines — and
//! fails that primitive with [`Crashed`], so the issuing thread dies
//! mid-operation. Arming is a bit in the gate's halted word: the
//! unarmed path pays nothing for it.

use std::ops::Range;
use std::sync::atomic::{fence, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

use cxl0_model::cell::{self, Cell, CellLabel};
use cxl0_model::{
    FlushKind, Loc, MachineId, MemoryKind, ModelVariant, Primitive, StoreKind, SystemConfig, Val,
};
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::check::Checker;
use crate::cost;
use crate::error::{Crashed, OpResult};

/// Number of exclusive per-thread rails; threads beyond this many alive
/// at once (or counters bumped from TLS teardown) share one overflow
/// rail that falls back to atomic read-modify-writes. Other per-thread
/// slot arrays (the SMR epoch slots, the combining fronts' announcement
/// boards) ride the same leases via [`thread_slot_index`], and all are
/// scanned through [`leased_slots`].
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
/// The counter doubles as the high-water mark of leased slots that
/// bounds every scan of a per-thread table ([`leased_slots`]).
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
            .unwrap_or_else(|| NEXT_TID.fetch_add(1, Ordering::SeqCst)),
    );
}

/// The entries of a per-thread slot table (the stats rails, the SMR
/// epoch slots, the tracer's recorders, a combining board) that a
/// thread may have written: the first `m` entries, where the mark `m`
/// is the number of slots ever leased ([`NEXT_TID`], capped at
/// [`RAIL_SLOTS`]), then the shared overflow entry `table[RAIL_SLOTS]`
/// where the table has one. A thread writes only the slot it leased or
/// the overflow slot, and slot ids are leased in increasing order
/// before they are reused, so no entry past the mark was ever written:
/// a scan bounded by it returns what a scan of the whole table does,
/// and a process that leased a handful of slots pays for a handful,
/// not for [`RAIL_SLOTS`] + 1. The mark is read once, when the call
/// starts.
///
/// Two scans race threads that may lease a slot while they run:
///
/// * The crash drain ([`Stats::await_quiescent`]) reads the mark after
///   raising `HALTED`. A thread whose fresh lease the read missed
///   leased it later in the single total order of `SeqCst` operations:
///   the lease (`fetch_add`) and the gate word are both `SeqCst`, and
///   the lease precedes the thread's first gate entry, so that entry's
///   gate check sees the halt and backs off. A reused slot id was
///   leased fresh by an exiting thread whose exit happens before the
///   reuse, so the same holds.
/// * The epoch advance (`SmrDomain::try_advance`) reads the mark after
///   the global epoch `e`. A pin on a slot the read missed publishes
///   after the advancer read `e` and then re-reads the epoch, so it pins
///   at `e` or later: the same race as scanning a slot just before its
///   pin publishes, which the pin's re-read already handles.
///
/// Every other scan runs quiesced, or may miss a slot written
/// concurrently anyway (a combiner misses a just-announced op, which
/// its announcer then elects itself to apply).
pub(crate) fn leased_slots<T>(table: &[T]) -> impl Iterator<Item = &T> {
    let mark = NEXT_TID.load(Ordering::SeqCst).min(RAIL_SLOTS);
    table[..mark.min(table.len())]
        .iter()
        .chain(table.get(RAIL_SLOTS))
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
        for rail in leased_slots(&self.rails) {
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
        leased_slots(&self.rails)
            .map(|r| r.sim_ns.load(Ordering::Relaxed))
            .sum()
    }

    /// A plain-data snapshot of the counters, aggregated across all
    /// stripes in a single pass over the rail slab.
    pub fn snapshot(&self) -> StatsSnapshot {
        let mut counts = [0u64; OP_CLASSES];
        let mut sim_ns = 0u64;
        for rail in leased_slots(&self.rails) {
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
    /// by the cluster layer from [`Checker`]
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
/// value)` as a sequence-locked record of atomics: exactly 32 bytes. The
/// model cell's `pending` mask is not stored here: bit `i` of it is
/// machine `i`'s [`PendingBuf`], which a barrier drains without scanning
/// the slab, so the cells this type yields read it as 0.
/// The slab lays cells out in 64-byte [`Line`]s, so cells `2k` and
/// `2k + 1` share one host line and none straddles one. A two-cell
/// record — a map slot's `[key, value]`, a queue node's `[value, next]`,
/// a list node's `[key, next]` — sits on one line whenever its first
/// cell has an even slab index, where 64-byte cells always took two.
///
/// The sequence word doubles as the writer lock (odd = locked). Mutating
/// rules hold the writer lock; read-only rules take an optimistic
/// snapshot validated against the sequence word, paying no atomic
/// read-modify-write. All field accesses are atomics, so the seqlock is
/// race-free by construction (no torn reads are possible, only
/// inconsistent snapshots, which validation discards). The sanitizer's
/// conclusions about a cell live in the checker's own array, indexed by
/// the cell's slab index ([`SimFabric::slot`]), so an unarmed fabric
/// carries none.
#[repr(align(32))]
#[derive(Debug)]
pub(crate) struct LocCell {
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
    pub(crate) fn lock(&self) -> CellGuard<'_> {
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

    /// An optimistic consistent snapshot of the cell (the canonical
    /// seqlock read protocol).
    pub(crate) fn read(&self) -> Cell {
        self.snapshot().1
    }

    /// [`LocCell::read`] with the (even) sequence word the snapshot
    /// validated against.
    #[inline(always)]
    fn snapshot(&self) -> (u64, Cell) {
        spin_until(|| {
            let s1 = self.seq.load(Ordering::Acquire);
            if s1 & 1 == 0 {
                let cell = Cell {
                    holders: self.holders.load(Ordering::Relaxed),
                    cache: Val(self.cache_val.load(Ordering::Relaxed)),
                    mem: Val(self.mem_val.load(Ordering::Relaxed)),
                    pending: 0,
                };
                fence(Ordering::Acquire);
                if self.seq.load(Ordering::Relaxed) == s1 {
                    return Some((s1, cell));
                }
            }
            None
        })
    }
}

/// Cells per chunk of the slab (128 KiB of host memory).
const CHUNK_CELLS: usize = 4096;

/// One 64-byte host line of the slab: the cells with slab indices `2k`
/// and `2k + 1`.
#[repr(align(64))]
#[derive(Debug)]
struct Line([LocCell; 2]);

/// `CHUNK_CELLS` consecutive cells of the slab, allocated and zeroed by
/// the first primitive that touches one of them.
type Chunk = Box<[Line; CHUNK_CELLS / 2]>;

fn new_chunk() -> Chunk {
    let lines: Box<[Line]> = (0..CHUNK_CELLS / 2)
        .map(|_| Line([LocCell::new(), LocCell::new()]))
        .collect();
    lines.try_into().expect("a chunk is CHUNK_CELLS / 2 lines")
}

/// The cell at slab index `slot` of its chunk.
#[inline]
fn chunk_cell(chunk: &Chunk, slot: usize) -> &LocCell {
    &chunk[slot % CHUNK_CELLS / 2].0[slot % 2]
}

/// Writer-lock guard over one [`LocCell`]. Field loads may be relaxed
/// (the lock's acquire edge orders them); field *stores* are `Release`
/// so the odd sequence word written by the lock CAS is visible before
/// any field mutation — without that, a weakly-ordered machine could
/// publish a field store ahead of the seq-odd store and let an
/// optimistic reader validate a torn snapshot against the stale even
/// sequence value. (`Release` stores are free on x86.)
pub(crate) struct CellGuard<'a> {
    cell: &'a LocCell,
    unlocked_seq: u64,
}

impl CellGuard<'_> {
    /// The locked cell.
    #[inline(always)]
    pub(crate) fn get(&self) -> Cell {
        Cell {
            holders: self.cell.holders.load(Ordering::Relaxed),
            cache: Val(self.cell.cache_val.load(Ordering::Relaxed)),
            mem: Val(self.cell.mem_val.load(Ordering::Relaxed)),
            pending: 0,
        }
    }

    /// Replaces the locked cell `pre` by `post`, storing only the words
    /// that changed.
    #[inline(always)]
    fn put(&self, pre: Cell, post: Cell) {
        if post.holders != pre.holders {
            self.cell.holders.store(post.holders, Ordering::Release);
        }
        if post.cache != pre.cache {
            self.cell.cache_val.store(post.cache.0, Ordering::Release);
        }
        if post.mem != pre.mem {
            self.cell.mem_val.store(post.mem.0, Ordering::Release);
        }
    }

    /// The (odd) sequence word while the lock is held.
    fn seq(&self) -> u64 {
        self.unlocked_seq - 1
    }
}

impl Drop for CellGuard<'_> {
    fn drop(&mut self) {
        self.cell.seq.store(self.unlocked_seq, Ordering::Release);
    }
}

/// The crash gate's read-mostly control line: the gate word, the
/// bitmask of crashed machines and the armed crash point.
#[repr(align(64))]
#[derive(Debug)]
struct CrashWord {
    /// [`HALTED`] while a crash is draining in-flight operations;
    /// [`ARMED`] while a crash point waits. Both clear on the hot path.
    halted: AtomicU64,
    crashed: AtomicU64,
    /// Primitives left until the armed crash point fires.
    countdown: AtomicU64,
    /// Bitmask of the machines the crash point crashes.
    victims: AtomicU64,
    /// Nonzero once the armed crash point has fired.
    fired: AtomicU64,
}

/// [`CrashWord::halted`] bit: a crash is stopping the world.
const HALTED: u64 = 1;
/// [`CrashWord::halted`] bit: a crash point is armed.
const ARMED: u64 = 2;

/// Shards per machine of the pending-`AFlush` buffer; one mutexed set
/// per shard so unrelated threads stop serializing.
const PENDING_SHARDS: usize = 8;

/// One machine's persistency buffer `P_i`: the locations whose model cell
/// has bit `i` of its `pending` mask set, indexed by location.
///
/// Each shard is a sorted, deduplicated `Vec` (binary-search insert):
/// for the shard sizes a barrier window produces this beats a B-tree set
/// — no per-entry node allocation, and `clear()` retains capacity so the
/// steady state allocates nothing at all. The `nonempty` bitmask (bit
/// per shard) lets `Barrier` visit only occupied shards, so the
/// barrier-per-store pattern (`FlitPolicy::ASYNC`) pays one shard lock, and an
/// empty barrier pays none. Each method calls its callback under the
/// shard's lock, where a test's recorder logs the event (see
/// [`Buffered`]).
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

    /// Adds a request for `loc` (`AFlush`), then calls `queued`.
    fn insert(&self, loc: Loc, queued: impl FnOnce()) {
        let s = loc.addr.index() % PENDING_SHARDS;
        let mut set = self.shards[s].lock();
        let was_empty = set.is_empty();
        if let Err(at) = set.binary_search(&loc) {
            set.insert(at, loc);
            if was_empty {
                self.nonempty.fetch_or(1u64 << s, Ordering::Release);
            }
        }
        queued();
    }

    /// Retires every request shard by shard, calling `f` for each
    /// pending location and clearing as it goes; returns the number
    /// retired. Every request inserted before the call is retired when
    /// it returns. An insert concurrent with the call is ordered after
    /// the barrier that makes it: into a shard the call already visited,
    /// it stays pending, as if issued once the barrier returned; into a
    /// shard not yet visited, it is retired as well, by the silent
    /// `Retire` step the model takes whenever a drained line has a
    /// request pending. So a barrier covers exactly the requests that
    /// happen before it, which the step oracle checks.
    ///
    /// A shard's bit is cleared under the shard's lock, *after* the
    /// drain, as `insert` sets it under the lock: a barrier that still
    /// sees the bit blocks on the lock until a concurrent drain of the
    /// shard has put every line in memory, so no barrier of the machine
    /// returns while a line inserted before it is in flight.
    fn retire(&self, mut f: impl FnMut(Loc)) -> usize {
        let mut mask = self.nonempty.load(Ordering::Acquire);
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
            self.nonempty.fetch_and(!(1u64 << s), Ordering::Release);
        }
        retired
    }

    /// Discards every request, calling `discarded` for each (a crash).
    fn clear(&self, mut discarded: impl FnMut(Loc)) {
        // Only called with the world stopped (no concurrent inserts).
        for shard in &self.shards {
            let mut set = shard.lock();
            set.iter().for_each(|&loc| discarded(loc));
            set.clear();
        }
        self.nonempty.store(0, Ordering::Release);
    }

    fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().len()).sum()
    }
}

/// An event of the persistency buffers, as a test's recorder logs it
/// beside the cell steps ([`SimFabric::record`]): a mask rule of the model
/// on one location, or the bound of a barrier or a crash.
#[derive(Debug, Clone, Copy)]
#[cfg_attr(not(test), allow(dead_code))]
pub(crate) enum Buffered {
    /// `AFlush_i(x)`: the request entered machine `i`'s buffer.
    Queued(MachineId, Loc),
    /// A barrier began.
    Began,
    /// `Retire_i(x)`: a barrier of `i` drained `x`'s cell (at the sequence
    /// word, to the cell given) and retired the request.
    Retired(MachineId, Loc, (u64, Cell)),
    /// The barrier of `i` that began at the given event returned.
    Fenced(MachineId, usize),
    /// A crash discarded `i`'s request for `x`.
    Discarded(MachineId, Loc),
    /// A crash of the machines in the mask (failure domains included)
    /// finished discarding their buffers.
    Crashed(u64),
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
    /// Every machine's location cells, in chunks of `CHUNK_CELLS`
    /// materialised on first touch: the cell at slab index
    /// `extents[m].0 + a` guards the state of `Loc::new(m, a)`. An
    /// untouched cell is in the all-zero initial state, which no crash,
    /// drain or propagation changes, so walks skip absent chunks.
    chunks: Box<[OnceLock<Chunk>]>,
    /// Per-machine `(base offset, location count)` into the slab. The
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
    /// The persistency sanitizer, when one is installed
    /// ([`SimFabric::install_checker`]). Hooks run under the affected
    /// cell's writer lock; the checker never waits on a cell while
    /// holding its own lock, so the cell → checker order is acyclic.
    checker: OnceLock<Arc<Checker>>,
    /// The runtime tracer, when one is installed
    /// ([`SimFabric::install_tracer`]). Like the checker, absent by
    /// default: every seam is then a single `OnceLock` load and issues
    /// no atomic read-modify-write.
    tracer: OnceLock<Arc<crate::trace::Tracer>>,
    /// The steps taken and the buffer events, while a test records them
    /// ([`SimFabric::record`]).
    #[cfg(test)]
    taken: OnceLock<Mutex<(Vec<Taken>, Vec<Buffered>)>>,
}

impl SimFabric {
    /// Creates a fabric over `cfg` with the base variant.
    pub fn new(cfg: SystemConfig) -> Arc<Self> {
        Self::with_variant(cfg, ModelVariant::Base)
    }

    /// Creates a fabric over `cfg` with an explicit model variant.
    pub fn with_variant(cfg: SystemConfig, variant: ModelVariant) -> Arc<Self> {
        let mut extents = Vec::with_capacity(cfg.num_machines());
        let mut total = 0usize;
        for m in cfg.machines() {
            let locations = cfg.machine(m).locations;
            extents.push((total, locations));
            total += locations as usize;
        }
        let chunks = (0..total.div_ceil(CHUNK_CELLS))
            .map(|_| OnceLock::new())
            .collect();
        Arc::new(SimFabric {
            crash_word: CrashWord {
                halted: AtomicU64::new(0),
                crashed: AtomicU64::new(0),
                countdown: AtomicU64::new(0),
                victims: AtomicU64::new(0),
                fired: AtomicU64::new(0),
            },
            crash_lock: Mutex::new(()),
            pending: (0..cfg.num_machines()).map(|_| PendingBuf::new()).collect(),
            cfg,
            variant,
            chunks,
            extents,
            stats: Stats::default(),
            checker: OnceLock::new(),
            tracer: OnceLock::new(),
            #[cfg(test)]
            taken: OnceLock::new(),
        })
    }

    /// Installs the persistency sanitizer on this fabric. At most one
    /// checker per fabric; later calls are ignored. Prefer
    /// [`ClusterBuilder::with_checker`](crate::api::ClusterBuilder::with_checker),
    /// which also wires the allocator, SMR domain and root registry.
    ///
    /// The checker's per-cell marks are allocated here, one per
    /// configured cell, touched or not: a fabric that never installs a
    /// checker carries none.
    ///
    /// # Panics
    ///
    /// Panics if `checker` is already installed on another fabric.
    pub fn install_checker(self: &Arc<Self>, checker: Arc<Checker>) {
        if self.checker.set(Arc::clone(&checker)).is_ok() {
            checker.attach(Arc::downgrade(self), self.slab_len());
        }
    }

    /// The installed persistency sanitizer, if any.
    pub fn checker(&self) -> Option<&Arc<Checker>> {
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

    /// The slab index of `loc`'s cell, which also indexes the
    /// checker's marks.
    pub(crate) fn slot(&self, loc: Loc) -> usize {
        let (base, count) = self.extents[loc.owner.index()];
        assert!(
            loc.addr.index() < count as usize,
            "address {} out of range for machine {} ({} locations)",
            loc.addr.index(),
            loc.owner,
            count
        );
        base + loc.addr.index()
    }

    /// Number of configured cells: one past the last slab index.
    fn slab_len(&self) -> usize {
        self.extents
            .last()
            .map_or(0, |&(base, count)| base + count as usize)
    }

    /// `loc`'s cell, materialising its chunk on first touch. Always
    /// inlined: as a call, it cost every primitive 3–5 ns on a 2-vCPU
    /// x86-64 host.
    #[inline(always)]
    pub(crate) fn cell(&self, loc: Loc) -> &LocCell {
        let slot = self.slot(loc);
        match self.resident(slot) {
            Some(cell) => cell,
            None => self.materialise(slot),
        }
    }

    /// The cold half of [`SimFabric::cell`]: allocates and zeroes the
    /// chunk of slab index `slot` (one thread wins a concurrent first
    /// touch; the others wait for its chunk). Out of line, like
    /// [`SimFabric::mutated`], so the primitives inline none of it.
    #[cold]
    #[inline(never)]
    fn materialise(&self, slot: usize) -> &LocCell {
        chunk_cell(self.chunks[slot / CHUNK_CELLS].get_or_init(new_chunk), slot)
    }

    /// The cell at slab index `slot`, or `None` while its chunk is
    /// untouched (and the cell in the all-zero initial state).
    #[inline(always)]
    fn resident(&self, slot: usize) -> Option<&LocCell> {
        let chunk = self.chunks[slot / CHUNK_CELLS].get()?;
        Some(chunk_cell(chunk, slot))
    }

    /// How many chunks of the slab are materialised.
    #[cfg(test)]
    pub(crate) fn resident_chunks(&self) -> usize {
        self.chunks.iter().filter(|c| c.get().is_some()).count()
    }

    /// Calls `f` with the slab index and cell of every materialised cell
    /// in `slots`, in slot order.
    fn each_resident(&self, slots: Range<usize>, mut f: impl FnMut(usize, &LocCell)) {
        for k in slots.start / CHUNK_CELLS..slots.end.div_ceil(CHUNK_CELLS) {
            if let Some(chunk) = self.chunks[k].get() {
                let first = slots.start.max(k * CHUNK_CELLS);
                for s in first..slots.end.min((k + 1) * CHUNK_CELLS) {
                    f(s, chunk_cell(chunk, s));
                }
            }
        }
    }

    /// Calls `f` on every materialised cell of the slab with its slab
    /// index and location, in slot order. The cells it skips are in
    /// their all-zero initial state.
    pub(crate) fn each_cell(&self, mut f: impl FnMut(usize, Loc, &LocCell)) {
        for (m, &(base, count)) in self.extents.iter().enumerate() {
            self.each_resident(base..base + count as usize, |slot, cell| {
                f(slot, Loc::new(MachineId(m), (slot - base) as u32), cell)
            });
        }
    }

    /// The owner's memory word of `loc`, one atomic load outside the
    /// lock (the last value some writer stored under it), without
    /// materialising its chunk.
    pub(crate) fn mem_now(&self, loc: Loc) -> u64 {
        self.resident(self.slot(loc))
            .map_or(0, |cell| cell.mem_val.load(Ordering::Acquire))
    }

    /// `label` by `issuer` on a seqlock snapshot of `loc`'s `cell`, if it
    /// is enabled there and neither changes nor writes anything (a load
    /// that copies nothing, a flush with nothing to move, a failed CAS, a
    /// crash that spares the cell): such a step linearises at the
    /// snapshot. Returns its sequence word, the snapshot and the value
    /// observed; `None`: take the lock.
    #[inline(always)]
    fn unlocked(
        &self,
        cell: &LocCell,
        loc: Loc,
        issuer: MachineId,
        label: CellLabel,
    ) -> Option<(u64, Cell, Option<Val>)> {
        let (seq, pre) = cell.snapshot();
        match cell::step(pre, issuer, loc.owner, label, self.variant) {
            Ok((post, out)) if post == pre && !writes(label, out) => Some((seq, pre, out)),
            _ => None,
        }
    }

    /// `label` by `issuer` on `loc`'s cell under its writer lock `st`,
    /// forced ([`cell::force`]): the cell before, after (not yet stored),
    /// and the value observed.
    #[inline(always)]
    fn force_locked(
        &self,
        loc: Loc,
        st: &CellGuard<'_>,
        issuer: MachineId,
        label: CellLabel,
    ) -> (Cell, Cell, Option<Val>) {
        let pre = st.get();
        let (post, out) = cell::force(pre, issuer, loc.owner, label, self.variant);
        self.took(loc, issuer, label, st.seq(), pre, Ok((post, out)));
        (pre, post, out)
    }

    /// Stores `post` over `pre` in `loc`'s cell under its writer lock `st`
    /// and hands a checker the settled cell and the memory word it
    /// replaced. `by` is the issuing machine (`None`: background, a
    /// load's copy).
    #[inline(always)]
    fn settle(&self, by: Option<MachineId>, loc: Loc, st: &CellGuard<'_>, pre: Cell, post: Cell) {
        st.put(pre, post);
        if let Some(ck) = self.checker.get() {
            self.mutated(ck, by, loc, pre.mem.0, st);
        }
    }

    /// The checker's half of [`SimFabric::settle`]. Out of line, so the
    /// stores' unarmed path inlines none of it: inlined, the slab-index
    /// computation and its bounds check slowed unarmed stores by 12–15 %.
    #[cold]
    #[inline(never)]
    fn mutated(
        &self,
        ck: &Checker,
        by: Option<MachineId>,
        loc: Loc,
        old_mem: u64,
        st: &CellGuard<'_>,
    ) {
        let who = by.map(|m| (m, thread_slot_index()));
        ck.on_mutate(self, who, loc, self.slot(loc), old_mem, st);
    }

    /// Drains `loc`'s `cell` (a forced `RFlush` by its owner) as one line of
    /// a batch (a barrier or a `GPF`): a checker `ck` settles the cell here
    /// and judges the `changed` memory words after the whole batch. Returns
    /// the drained cell and the (even) sequence word it holds at.
    #[inline(always)]
    fn drain_in_batch(
        &self,
        ck: Option<&Arc<Checker>>,
        loc: Loc,
        cell: &LocCell,
        changed: &mut Vec<(Loc, u64)>,
    ) -> (u64, Cell) {
        let drain = CellLabel::Flush(FlushKind::Remote);
        if let Some((seq, pre, _)) = self.unlocked(cell, loc, loc.owner, drain) {
            self.took(loc, loc.owner, drain, seq, pre, Ok((pre, None)));
            return (seq, pre);
        }
        let st = cell.lock();
        let (pre, post, _) = self.force_locked(loc, &st, loc.owner, drain);
        st.put(pre, post);
        if let Some(ck) = ck {
            if ck.settle(self.slot(loc), &st, pre.mem.0) {
                changed.push((loc, post.mem.0));
            }
        }
        (st.seq() + 1, post)
    }

    /// Crashes machine `m`: stop-the-world, wipe `m`'s cache entries
    /// everywhere, reset `m`'s memory if volatile, apply PSN poisoning if
    /// that variant is in force. Machines in `m`'s failure domain crash
    /// together. Idempotent.
    pub fn crash(&self, m: MachineId) {
        self.crash_all(1u64 << m.index());
    }

    /// Crashes every machine of `victims` (a bitmask) and their failure
    /// domains in one world-stopped transition.
    ///
    /// With the world halted and drained, only a cell the crash changes
    /// is locked: one a victim caches, a victim's own cell holding a
    /// nonzero word in volatile memory, or, under PSN, a victim's own
    /// cell that any cache holds. Every other cell is judged by one
    /// seqlock snapshot and left alone. Gateless loads stay sound: a
    /// cell the crash leaves alone reads the same before and after it,
    /// so a load's snapshot of it is linearizable on either side, and a
    /// victim's load still finds its `crashed` bit (stored before the
    /// gate reopens) when it checks the crash word. A cell the crash
    /// changes is written under its lock as before, whose release
    /// publishes the halt to any load whose snapshot saw the change.
    fn crash_all(&self, victims: u64) {
        let crashed_bits = (self.cfg.machines())
            .filter(|m| victims & (1u64 << m.index()) != 0)
            .flat_map(|m| self.cfg.failure_domain(m))
            .fold(0u64, |bits, d| bits | 1u64 << d.index());
        // Stop the world so the crash is one atomic transition: halt the
        // gate, then wait for every in-flight operation to retire.
        let _serial = self.crash_lock.lock();
        self.crash_word.halted.fetch_or(HALTED, Ordering::SeqCst);
        self.stats.await_quiescent();
        self.crash_word
            .crashed
            .fetch_or(crashed_bits, Ordering::SeqCst);
        for (owner, &(base, count)) in self.extents.iter().enumerate() {
            let own = crashed_bits & (1u64 << owner) != 0;
            if own {
                // Un-retired asynchronous flush requests die with the
                // machine.
                let by = MachineId(owner);
                self.pending[owner].clear(|loc| {
                    self.buffered(Buffered::Discarded(by, loc));
                });
            }
            let volatile = self.cfg.machine(MachineId(owner)).memory == MemoryKind::Volatile;
            let crash = CellLabel::Crash(crashed_bits, volatile);
            self.each_resident(base..base + count as usize, |slot, cell| {
                let loc = Loc::new(MachineId(owner), (slot - base) as u32);
                if let Some((seq, pre, _)) = self.unlocked(cell, loc, loc.owner, crash) {
                    self.took(loc, loc.owner, crash, seq, pre, Ok((pre, None)));
                    return;
                }
                let st = cell.lock();
                let (pre, post, _) = self.force_locked(loc, &st, loc.owner, crash);
                st.put(pre, post);
            });
        }
        self.buffered(Buffered::Crashed(crashed_bits));
        if let Some(ck) = self.checker.get() {
            // The world is still stopped: the checker reads what the
            // crash left of every cell (an untouched one carries no
            // marks).
            self.each_resident(0..self.slab_len(), |slot, cell| ck.on_crash(slot, cell));
        }
        if let Some(tr) = self.tracer.get() {
            // Seal the incarnation while the world is still stopped:
            // every buffered event drains to the retired set, so
            // crashed-incarnation spans cannot interleave with
            // post-recovery ones.
            tr.on_crash();
        }
        self.crash_word.halted.fetch_and(!HALTED, Ordering::SeqCst);
    }

    /// Arms the one-shot crash point: right before the `k`-th primitive
    /// issued from now on (counted as [`Stats::total_ops`] counts them:
    /// `GPF` is none), every machine of `victims` crashes at once, as
    /// [`SimFabric::crash`] does, and that primitive fails with
    /// [`Crashed`] untaken, so its thread dies mid-operation. Victims
    /// stay crashed until recovered; arming again replaces the point.
    ///
    /// # Panics
    ///
    /// Panics if `k` is zero.
    pub fn arm_crash(&self, k: u64, victims: &[MachineId]) {
        assert!(k > 0, "primitives are counted from 1");
        let bits = victims.iter().fold(0, |b, m| b | 1u64 << m.index());
        self.crash_word.victims.store(bits, Ordering::SeqCst);
        self.crash_word.fired.store(0, Ordering::SeqCst);
        self.crash_word.countdown.store(k, Ordering::SeqCst);
        self.crash_word.halted.fetch_or(ARMED, Ordering::SeqCst);
    }

    /// Disarms the crash point and returns whether it fired (call it
    /// once the traffic it was armed for has stopped).
    pub fn disarm_crash(&self) -> bool {
        self.crash_word.halted.fetch_and(!ARMED, Ordering::SeqCst);
        self.crash_word.fired.swap(0, Ordering::SeqCst) != 0
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
        let len = self.slab_len();
        if len == 0 {
            return;
        }
        for _ in 0..n {
            // Slab indices run over the machines' locations in
            // `SystemConfig::all_locations` order.
            let slot = rng.gen_range(0..len);
            let Some(cell) = self.resident(slot) else {
                continue; // untouched: no holders
            };
            let m = self.extents.partition_point(|&(base, _)| base <= slot) - 1;
            let loc = Loc::new(MachineId(m), (slot - self.extents[m].0) as u32);
            let st = cell.lock();
            let pre = st.get();
            let (holders, owner_bit) = (pre.holders, 1u64 << m);
            // Propagate-C-M, or Propagate-C-C from a random non-owner
            // holder (by the owner if there is none: blocked, no change).
            let (from, label) = if holders & owner_bit != 0 && rng.gen_bool(0.5) {
                (loc.owner, CellLabel::CacheToMemory)
            } else {
                let others = holders & !owner_bit;
                let from = if others != 0 {
                    MachineId(pick_bit(others, &mut rng) as usize)
                } else {
                    loc.owner
                };
                (from, CellLabel::CacheToCache)
            };
            let result = cell::step(pre, from, loc.owner, label, self.variant);
            self.took(loc, from, label, st.seq(), pre, result);
            if let Ok((post, _)) = result {
                self.settle(None, loc, &st, pre, post);
            }
        }
    }

    /// Drains every cache to memory (the state change a successful `GPF`
    /// waits for). Exposed for orderly-shutdown scenarios.
    pub fn drain_all(&self) {
        // The sanitizer judges the drain as one batch, like a barrier's.
        let ck = self.checker.get();
        let mut changed = Vec::new();
        self.each_cell(|_, loc, cell| {
            self.drain_in_batch(ck, loc, cell, &mut changed);
        });
        if let Some(ck) = ck {
            ck.publish(self, None, &changed);
        }
    }

    /// Reads the owner's *memory* value of `loc` directly — the
    /// "post-crash recovery inspection" view, bypassing caches. Intended
    /// for tests and recovery assertions, not for algorithm code.
    pub fn peek_memory(&self, loc: Loc) -> u64 {
        self.resident(self.slot(loc))
            .map_or(0, |cell| cell.read().mem.0)
    }

    /// True if some cache currently holds `loc`.
    pub fn is_cached(&self, loc: Loc) -> bool {
        self.resident(self.slot(loc))
            .is_some_and(|cell| cell.read().holders != 0)
    }

    /// Number of un-retired `AFlush` requests in machine `m`'s persistency
    /// buffer (`CXL0_AF` extension).
    pub fn pending_flushes(&self, m: MachineId) -> usize {
        self.pending[m.index()].len()
    }

    /// Records a step a primitive took (see [`SimFabric::record`]); a
    /// no-op outside the crate's unit tests.
    #[cfg(not(test))]
    #[inline(always)]
    fn took(&self, _: Loc, _: MachineId, _: CellLabel, _: u64, _: Cell, _: StepOutcome) {}

    /// Records a persistency-buffer event and returns its index in the
    /// log (see [`SimFabric::record`]); a no-op outside the crate's unit
    /// tests.
    #[cfg(not(test))]
    #[inline(always)]
    fn buffered(&self, _: Buffered) -> usize {
        0
    }
}

/// What a step did to a cell: the new cell and the value observed, or
/// the precondition it found blocked.
type StepOutcome = Result<(Cell, Option<Val>), cell::Blocked>;

/// Whether a step of `label` that observed `out` writes a value: a store
/// or a successful RMW, which a checker sees even when it changes nothing.
#[inline(always)]
fn writes(label: CellLabel, out: Option<Val>) -> bool {
    matches!(label, CellLabel::Store(..))
        || matches!(label, CellLabel::Rmw(_, old, _) if out == Some(old))
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
    /// halt and backs off. The check order matters: a clear `HALTED`
    /// bit proves this publication either precedes the halt
    /// (so the drain waits for us and the op linearizes before the
    /// crash) or follows the reopen — and in the latter case the
    /// `crashed` bits, stored before the reopen, are guaranteed visible
    /// to the subsequent check. Checking `crashed` first would leave a
    /// window where an op threads between the drain and the bit
    /// publication and mutates a just-crashed machine.
    /// A `COUNTED` primitive (one [`Stats`] counts) ticks an armed
    /// crash point on the way in.
    fn enter<const COUNTED: bool>(&self) -> OpResult<OpGuard<'_>> {
        let fabric = &*self.fabric;
        let rail = fabric.stats.rail();
        let m_bit = 1u64 << self.machine.index();
        let machine = self.machine;
        loop {
            rail.begin();
            let gate = fabric.crash_word.halted.load(Ordering::SeqCst);
            if gate & HALTED != 0 {
                // A crash is draining: retire our publication and wait
                // for the gate to reopen.
                rail.end();
                spin_until(|| {
                    (fabric.crash_word.halted.load(Ordering::Acquire) & HALTED == 0).then_some(())
                });
                continue;
            }
            if fabric.crash_word.crashed.load(Ordering::SeqCst) & m_bit != 0 {
                rail.end();
                return Err(Crashed { machine });
            }
            if COUNTED && gate & ARMED != 0 {
                rail.end();
                return self.enter_armed();
            }
            return Ok(OpGuard { rail });
        }
    }

    /// Counts one primitive under an armed crash point, firing it at the
    /// `k`-th, then enters the gate. Off the gate, or the crash would
    /// wait for its own caller.
    #[cold]
    #[inline(never)]
    fn enter_armed(&self) -> OpResult<OpGuard<'_>> {
        let word = &self.fabric.crash_word;
        if word.countdown.fetch_sub(1, Ordering::SeqCst) == 1 {
            let victims = word.victims.load(Ordering::SeqCst);
            if victims != 0 {
                self.fabric.crash_all(victims);
            }
            word.halted.fetch_and(!ARMED, Ordering::SeqCst);
            word.fired.store(1, Ordering::SeqCst);
            return Err(Crashed {
                machine: self.machine,
            });
        }
        self.enter::<false>()
    }

    fn op_cost(&self, p: Primitive, loc: Loc) -> u64 {
        cost::cost(p, self.machine == loc.owner)
    }

    /// `label` by this machine on `loc`'s cell under its writer lock
    /// `st`, forced past any blocking precondition; a store, a successful
    /// RMW or any change to the cell is settled with the checker.
    /// Returns the value observed.
    #[inline(always)]
    fn step_locked(&self, loc: Loc, st: &CellGuard<'_>, label: CellLabel) -> Option<Val> {
        let fabric = &*self.fabric;
        let (pre, post, out) = fabric.force_locked(loc, st, self.machine, label);
        if post != pre || writes(label, out) {
            // A load's copy is not a mutation of the value: no provenance.
            let by = (label != CellLabel::Load).then_some(self.machine);
            fabric.settle(by, loc, st, pre, post);
        }
        out
    }

    /// Sanitizer hook: an application read of `loc`.
    fn check_load(&self, loc: Loc) {
        if let Some(ck) = self.fabric.checker.get() {
            let who = (self.machine, thread_slot_index());
            ck.on_load(who, loc, self.fabric.slot(loc), self.fabric.cell(loc));
        }
    }

    /// Sanitizer + tracer seam for the [`Persistence`](crate::Persistence)
    /// strategies: the strategy just acknowledged its store/RMW on `loc`
    /// as durable. No-op without a checker or tracer.
    pub(crate) fn ack_persist(&self, loc: Loc) {
        if let Some(ck) = self.fabric.checker.get() {
            ck.on_ack(self.fabric.slot(loc), self.fabric.cell(loc));
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

    /// Sanitizer seam for the named-root registry: the block holding
    /// `header` became durably reachable by name.
    pub(crate) fn check_add_root(&self, header: Loc) {
        if let Some(ck) = self.fabric.checker.get() {
            ck.add_root(&self.fabric, header);
        }
    }

    /// `Load`: returns the value visible at `loc`.
    ///
    /// # Errors
    ///
    /// Fails if this machine has crashed.
    pub fn load(&self, loc: Loc) -> OpResult<u64> {
        // Gateless read-only fast path: a load that needs no state
        // change (LOAD-from-M, or a hit that copies nothing) linearizes at its
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
        let cell = fabric.cell(loc);
        // `halted` before `crashed`, as in `enter()`: a clean halted read
        // either proves the snapshot precedes any in-flight crash, or
        // follows a reopen whose earlier `crashed` stores the second
        // check is then guaranteed to observe. An armed crash point makes
        // the word nonzero too: the load then takes the gated path, which
        // counts it.
        if let Some((seq, pre, Some(v))) = fabric.unlocked(cell, loc, self.machine, CellLabel::Load)
        {
            if fabric.crash_word.halted.load(Ordering::SeqCst) == 0
                && fabric.crash_word.crashed.load(Ordering::SeqCst) & bit == 0
            {
                fabric
                    .stats
                    .rail()
                    .bump(OpClass::Loads, self.op_cost(Primitive::Load, loc));
                self.check_load(loc);
                fabric.took(
                    loc,
                    self.machine,
                    CellLabel::Load,
                    seq,
                    pre,
                    Ok((pre, Some(v))),
                );
                return Ok(v.0);
            }
        }
        let g = self.enter::<true>()?;
        g.charge(OpClass::Loads, self.op_cost(Primitive::Load, loc));
        self.check_load(loc);
        // LOAD-from-C copies the line into the issuer's cache; an LWB
        // load waits for the line to drain, which is forced here.
        let seen = self.step_locked(loc, &cell.lock(), CellLabel::Load);
        Ok(seen.map_or(0, Val::raw))
    }

    /// `LStore`: store to this machine's cache (see [`NodeHandle::store`]).
    pub fn lstore(&self, loc: Loc, v: u64) -> OpResult<()> {
        self.store(StoreKind::Local, loc, v)
    }

    /// `RStore`: store to the owner's cache (see [`NodeHandle::store`]).
    pub fn rstore(&self, loc: Loc, v: u64) -> OpResult<()> {
        self.store(StoreKind::Remote, loc, v)
    }

    /// `MStore`: store directly to the owner's memory (see [`NodeHandle::store`]).
    pub fn mstore(&self, loc: Loc, v: u64) -> OpResult<()> {
        self.store(StoreKind::Memory, loc, v)
    }

    /// Store with a runtime-selected strength.
    ///
    /// # Errors
    ///
    /// Fails if this machine has crashed.
    #[inline(always)]
    pub fn store(&self, kind: StoreKind, loc: Loc, v: u64) -> OpResult<()> {
        let (class, prim) = match kind {
            StoreKind::Local => (OpClass::LStores, Primitive::LStore),
            StoreKind::Remote => (OpClass::RStores, Primitive::RStore),
            StoreKind::Memory => (OpClass::MStores, Primitive::MStore),
        };
        let g = self.enter::<true>()?;
        g.charge(class, self.op_cost(prim, loc));
        let label = CellLabel::Store(kind, Val(v));
        self.step_locked(loc, &self.fabric.cell(loc).lock(), label);
        Ok(())
    }

    /// `LFlush`: drain this machine's cached copy one level, to the
    /// owner's cache or, for the owner, to memory (see [`NodeHandle::flush`]).
    pub fn lflush(&self, loc: Loc) -> OpResult<()> {
        self.flush(FlushKind::Local, loc)
    }

    /// `RFlush`: force the line all the way to the owner's memory (see
    /// [`NodeHandle::flush`]).
    pub fn rflush(&self, loc: Loc) -> OpResult<()> {
        self.flush(FlushKind::Remote, loc)
    }

    /// Flush with a runtime-selected strength. The blocking precondition
    /// is met by forcing the propagation it waits for ([`cell::force`]).
    ///
    /// # Errors
    ///
    /// Fails if this machine has crashed.
    #[inline(always)]
    pub fn flush(&self, kind: FlushKind, loc: Loc) -> OpResult<()> {
        let (class, prim) = match kind {
            FlushKind::Local => (OpClass::LFlushes, Primitive::LFlush),
            FlushKind::Remote => (OpClass::RFlushes, Primitive::RFlush),
        };
        let g = self.enter::<true>()?;
        g.charge(class, self.op_cost(prim, loc));
        let (fabric, label) = (&*self.fabric, CellLabel::Flush(kind));
        let cell = fabric.cell(loc);
        // Fast path: nothing this flush waits for is cached.
        if let Some((seq, pre, _)) = fabric.unlocked(cell, loc, self.machine, label) {
            fabric.took(loc, self.machine, label, seq, pre, Ok((pre, None)));
            return Ok(());
        }
        self.step_locked(loc, &cell.lock(), label);
        Ok(())
    }

    /// `GPF`: drain every cache in the system to memory.
    ///
    /// # Errors
    ///
    /// Fails if this machine has crashed.
    pub fn gpf(&self) -> OpResult<()> {
        let _g = self.enter::<false>()?;
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
        let g = self.enter::<true>()?;
        g.charge(OpClass::AFlushes, cost::AFLUSH_ISSUE);
        let (fabric, by) = (&*self.fabric, self.machine);
        fabric.pending[by.index()].insert(loc, || {
            fabric.buffered(Buffered::Queued(by, loc));
        });
        Ok(())
    }

    /// `Barrier` (`CXL0_AF` extension, the `SFENCE` analogue): retire every
    /// pending `AFlush` request of this machine, forcing each line to the
    /// owner's memory. Pending write-backs overlap on the link, so `n`
    /// lines cost one full `RFlush` plus `n-1` pipelined increments
    /// (see [`cost::barrier_cost_of`]) instead of `n` round trips.
    ///
    /// Returns the number of lines retired.
    ///
    /// # Errors
    ///
    /// Fails if this machine has crashed.
    pub fn barrier(&self) -> OpResult<usize> {
        let g = self.enter::<true>()?;
        // `cost::barrier_cost_of` needs only the slowest line's
        // full-RFlush cost and the count, so no vector is collected.
        let mut max_line = 0u64;
        let (fabric, by) = (&*self.fabric, self.machine);
        let ck = fabric.checker.get();
        let mut changed = Vec::new();
        let began = fabric.buffered(Buffered::Began);
        let retired = fabric.pending[by.index()].retire(|loc| {
            let drained = fabric.drain_in_batch(ck, loc, fabric.cell(loc), &mut changed);
            fabric.buffered(Buffered::Retired(by, loc, drained));
            max_line = max_line.max(cost::cost(Primitive::RFlush, by == loc.owner));
        });
        fabric.buffered(Buffered::Fenced(by, began));
        if let Some(ck) = ck {
            let who = Some((by, thread_slot_index()));
            ck.publish(&self.fabric, who, &changed);
        }
        g.charge(
            OpClass::Barriers,
            cost::barrier_cost_of(max_line, retired as u64),
        );
        Ok(retired)
    }

    /// Enters the gate for an RMW of strength `kind` at `loc`, charged.
    fn enter_rmw(&self, kind: StoreKind, loc: Loc) -> OpResult<OpGuard<'_>> {
        let g = self.enter::<true>()?;
        let prim = match kind {
            StoreKind::Local => Primitive::LRmw,
            StoreKind::Remote => Primitive::RRmw,
            StoreKind::Memory => Primitive::MRmw,
        };
        g.charge(OpClass::Rmws, self.op_cost(prim, loc));
        Ok(g)
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
        let _g = self.enter_rmw(kind, loc)?;
        let (fabric, label) = (&*self.fabric, CellLabel::Rmw(kind, Val(old), Val(new)));
        let cell = fabric.cell(loc);
        // Fast path: a mismatched CAS changes nothing, so the optimistic
        // snapshot already linearizes it.
        let seen = match fabric.unlocked(cell, loc, self.machine, label) {
            Some((seq, pre, seen)) => {
                fabric.took(loc, self.machine, label, seq, pre, Ok((pre, seen)));
                seen
            }
            None => {
                let st = cell.lock();
                let seen = self.step_locked(loc, &st, label);
                // The read's check below may lock the cell itself.
                drop(st);
                seen
            }
        };
        match seen {
            Some(Val(v)) if v == old => Ok(Ok(old)),
            seen => {
                self.check_load(loc);
                Ok(Err(seen.map_or(0, Val::raw)))
            }
        }
    }

    /// Fetch-and-add with the given store strength; returns the previous
    /// value.
    ///
    /// # Errors
    ///
    /// Fails if this machine has crashed.
    pub fn faa(&self, kind: StoreKind, loc: Loc, delta: u64) -> OpResult<u64> {
        let _g = self.enter_rmw(kind, loc)?;
        let st = self.fabric.cell(loc).lock();
        let seen = st.get().visible();
        let label = CellLabel::Rmw(kind, seen, Val(seen.0.wrapping_add(delta)));
        self.step_locked(loc, &st, label);
        Ok(seen.0)
    }
}

/// One step a primitive (or a crash, drain or propagation) took on a
/// cell, as [`SimFabric::record`] logs it.
#[cfg(test)]
#[derive(Debug, Clone, Copy)]
pub(crate) struct Taken {
    pub(crate) loc: Loc,
    pub(crate) issuer: MachineId,
    pub(crate) label: CellLabel,
    /// The sequence word the step read its pre-state at: even for a
    /// seqlock snapshot (an unlocked fast path, which changed nothing),
    /// odd while a writer lock was held (its release leaves `seq + 1`).
    pub(crate) seq: u64,
    pub(crate) pre: Cell,
    pub(crate) outcome: StepOutcome,
}

#[cfg(test)]
impl SimFabric {
    /// Starts logging every step taken on this fabric's cells and every
    /// event of its persistency buffers.
    pub(crate) fn record(&self) {
        let _ = self.taken.set(Mutex::new((Vec::new(), Vec::new())));
    }

    /// The steps and the buffer events logged since [`SimFabric::record`].
    pub(crate) fn taken(&self) -> (Vec<Taken>, Vec<Buffered>) {
        self.taken
            .get()
            .map_or_else(Default::default, |log| log.lock().clone())
    }

    fn buffered(&self, event: Buffered) -> usize {
        self.taken.get().map_or(0, |log| {
            let buffers = &mut log.lock().1;
            buffers.push(event);
            buffers.len() - 1
        })
    }

    fn took(
        &self,
        loc: Loc,
        issuer: MachineId,
        label: CellLabel,
        seq: u64,
        pre: Cell,
        outcome: StepOutcome,
    ) {
        if let Some(log) = self.taken.get() {
            log.lock().0.push(Taken {
                loc,
                issuer,
                label,
                seq,
                pre,
                outcome,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

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
        let f = SimFabric::with_variant(SystemConfig::symmetric_nvm(2, 1), ModelVariant::Psn);
        let n0 = f.node(M0);
        n0.lstore(x(1, 0), 3).unwrap();
        f.crash(M1);
        f.recover(M1);
        // PSN: the copy was poisoned; memory value (0) is visible.
        assert_eq!(n0.load(x(1, 0)).unwrap(), 0);
    }

    #[test]
    fn lwb_load_forces_writeback() {
        let f = SimFabric::with_variant(SystemConfig::symmetric_nvm(2, 1), ModelVariant::Lwb);
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

    /// The aggregates scan only the leased rails and stay exact: three
    /// threads run one after another (each reuses the slot id the last
    /// returned), then five side by side (which lease fresh ids, up to
    /// the mark), and all have exited when the totals are read.
    #[test]
    fn aggregates_stay_exact_over_leased_reused_and_exited_slots() {
        const OPS: u64 = 40;
        let f = fabric2();
        let worker = |t: u32| {
            let node = f.node(M0);
            for v in 0..OPS {
                node.lstore(x(0, t % 4), v).unwrap();
            }
        };
        std::thread::scope(|s| {
            for t in 0..3 {
                s.spawn(move || worker(t)).join().unwrap();
            }
            for t in 3..8 {
                s.spawn(move || worker(t));
            }
        });
        let issued = 8 * OPS;
        assert_eq!(f.stats().snapshot().total_ops(), issued);
        assert_eq!(
            f.stats().sim_nanos(),
            issued * cost::cost(Primitive::LStore, true)
        );
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

    #[test]
    fn cells_are_half_a_host_line_and_marks_come_with_a_checker() {
        assert_eq!(std::mem::size_of::<LocCell>(), 32);
        assert_eq!(std::mem::align_of::<LocCell>(), 32);
        let f = fabric2();
        assert!(f.checker().is_none(), "an unarmed fabric carries no marks");
        let ck = Arc::new(Checker::new(crate::CheckConfig::default()));
        assert_eq!(ck.marked_cells(), 0, "a checker allocates marks on install");
        f.install_checker(Arc::clone(&ck));
        assert_eq!(ck.marked_cells(), 8, "one mark per cell of the slab");
    }

    /// The slab indices of the cells whose sequence word moved between
    /// `before` and now: the cells some writer locked.
    fn locked_since(f: &SimFabric, before: &[(usize, u64)]) -> Vec<usize> {
        let now = seqs(f);
        assert_eq!(now.len(), before.len(), "no chunk materialised since");
        now.iter()
            .zip(before)
            .filter(|(n, b)| n != b)
            .map(|(&(slot, _), _)| slot)
            .collect()
    }

    /// The sequence word of every materialised cell, by slab index.
    fn seqs(f: &SimFabric) -> Vec<(usize, u64)> {
        let mut seqs = Vec::new();
        f.each_resident(0..f.slab_len(), |slot, c| {
            seqs.push((slot, c.seq.load(Ordering::Relaxed)))
        });
        seqs
    }

    #[test]
    fn crash_locks_only_the_cells_it_changes() {
        // NVM, base variant: only the lines the victim caches change.
        let f = SimFabric::new(SystemConfig::symmetric_nvm(3, 2));
        f.node(M0).lstore(x(2, 0), 1).unwrap();
        f.node(M1).lstore(x(2, 1), 2).unwrap();
        let before = seqs(&f);
        f.crash(M0);
        assert_eq!(locked_since(&f, &before), [f.slot(x(2, 0))]);
        assert!(!f.is_cached(x(2, 0)) && f.is_cached(x(2, 1)));

        // Volatile memory: the victim's nonzero words are zeroed too.
        let f = SimFabric::new(SystemConfig::symmetric_volatile(2, 2));
        f.node(M1).mstore(x(0, 0), 5).unwrap();
        f.node(M1).lstore(x(1, 1), 6).unwrap();
        let before = seqs(&f);
        f.crash(M0);
        assert_eq!(locked_since(&f, &before), [f.slot(x(0, 0))]);
        assert_eq!(f.peek_memory(x(0, 0)), 0);

        // PSN: every cached copy of the victim's lines is poisoned.
        let f = SimFabric::with_variant(SystemConfig::symmetric_nvm(2, 2), ModelVariant::Psn);
        f.node(M1).lstore(x(0, 1), 7).unwrap();
        f.node(M1).lstore(x(1, 0), 8).unwrap();
        let before = seqs(&f);
        f.crash(M0);
        assert_eq!(locked_since(&f, &before), [f.slot(x(0, 1))]);
        assert!(!f.is_cached(x(0, 1)) && f.is_cached(x(1, 0)));
    }

    #[test]
    fn a_pool_materialises_only_the_chunk_it_touches() {
        // 3 × 2^26 cells: 6 GiB if the slab were dense.
        let f = SimFabric::new(SystemConfig::symmetric_nvm(3, 1 << 26));
        assert_eq!(f.resident_chunks(), 0);
        let (n0, y) = (f.node(M0), x(2, 40_000_000));
        assert_eq!(f.peek_memory(y), 0);
        assert!(!f.is_cached(y));
        f.propagate_randomly(1, 100);
        n0.gpf().unwrap();
        assert_eq!(f.resident_chunks(), 0, "no read-only walk materialises");
        n0.lstore(y, 7).unwrap();
        n0.rflush(y).unwrap();
        f.crash(MachineId(2));
        f.crash(M0);
        f.recover(MachineId(2));
        f.recover(M0);
        assert_eq!(n0.load(y).unwrap(), 7);
        assert_eq!(f.peek_memory(y), 7);
        assert_eq!(f.resident_chunks(), 1);
    }

    #[test]
    fn racing_first_touches_of_one_chunk_both_land() {
        for round in 0..100u64 {
            let f = SimFabric::new(SystemConfig::symmetric_nvm(2, 2 * CHUNK_CELLS as u32));
            let start = Arc::new(std::sync::Barrier::new(2));
            let cells = [x(1, 1), x(1, CHUNK_CELLS as u32 - 2)];
            let handles: Vec<_> = [M0, M1]
                .into_iter()
                .zip(cells)
                .map(|(m, y)| {
                    let (node, start) = (f.node(m), Arc::clone(&start));
                    std::thread::spawn(move || {
                        start.wait();
                        node.lstore(y, round + 1).unwrap();
                        node.rflush(y).unwrap();
                    })
                })
                .collect();
            for h in handles {
                h.join().unwrap();
            }
            for y in cells {
                assert_eq!(f.peek_memory(y), round + 1, "round {round}, {y}");
            }
            assert_eq!(f.resident_chunks(), 1, "round {round}");
        }
    }

    #[test]
    fn cells_2k_and_2k_plus_1_share_one_host_line() {
        // Machine 1's cells start at an odd slab index, in chunk 1, and
        // end in chunk 2.
        let f = SimFabric::new(SystemConfig::symmetric_nvm(2, CHUNK_CELLS as u32 + 1));
        let (first, last) = (x(1, 0), x(1, CHUNK_CELLS as u32));
        f.node(M0).load(first).unwrap();
        f.node(M0).load(last).unwrap();
        assert_eq!(f.resident_chunks(), 2);
        let mut lines = 0;
        f.each_resident(0..f.slab_len(), |slot, cell| {
            let at = std::ptr::from_ref(cell) as usize;
            if slot % 2 == 0 {
                assert_eq!(at % 64, 0, "cell {slot} starts a line");
                lines += 1;
            } else {
                assert_eq!(at % 64, 32, "cell {slot} ends a line");
                let even = f.resident(slot - 1).unwrap();
                assert_eq!(std::ptr::from_ref(even) as usize + 32, at);
            }
        });
        assert_eq!(lines, (f.slab_len() - CHUNK_CELLS) / 2, "chunks 1 and 2");
    }

    #[test]
    fn materialising_an_untouched_chunk_leaves_the_fingerprint() {
        let f = SimFabric::new(SystemConfig::symmetric_nvm(2, 2 * CHUNK_CELLS as u32));
        let ck = Arc::new(Checker::new(crate::CheckConfig::default()));
        f.install_checker(Arc::clone(&ck));
        let n0 = f.node(M0);
        n0.lstore(x(1, 3), 5).unwrap();
        n0.rflush(x(1, 3)).unwrap();
        n0.lstore(x(1, 4), 6).unwrap();
        let before = ck.fingerprint();
        assert_eq!(f.resident_chunks(), 1);
        assert_eq!(n0.load(x(1, CHUNK_CELLS as u32)).unwrap(), 0);
        assert_eq!(f.resident_chunks(), 2, "the read materialised a chunk");
        assert_eq!(ck.fingerprint(), before);
    }

    /// Every counted primitive kind, once each, plus a `GPF` (which
    /// `Stats` does not count). Returns how many primitives completed.
    fn crash_point_script(n0: &NodeHandle) -> usize {
        let y = x(1, 1);
        let steps: [&dyn Fn() -> OpResult<()>; 12] = [
            &|| n0.load(y).map(drop), // the gateless fast path
            &|| n0.lstore(y, 1),
            &|| n0.rstore(y, 2),
            &|| n0.mstore(y, 3),
            &|| n0.lflush(y),
            &|| n0.rflush(y),
            &|| n0.gpf(),
            &|| n0.cas(StoreKind::Local, y, 3, 4).map(drop),
            &|| n0.faa(StoreKind::Remote, y, 1).map(drop),
            &|| n0.aflush(y),
            &|| n0.barrier().map(drop),
            &|| n0.load(y).map(drop),
        ];
        steps.iter().take_while(|step| step().is_ok()).count()
    }

    #[test]
    fn crash_point_fires_right_before_the_kth_counted_primitive() {
        let dry = fabric2();
        assert_eq!(crash_point_script(&dry.node(M0)), 12);
        let n = dry.stats().total_ops();
        assert_eq!(n, 11, "GPF is not a counted primitive");
        for k in 1..=n {
            let f = fabric2();
            let before = f.stats().total_ops();
            f.arm_crash(k, &[M1]);
            let done = crash_point_script(&f.node(M0));
            assert_eq!(f.stats().total_ops() - before, k - 1, "k = {k}");
            assert_eq!(done as u64, if k > 6 { k } else { k - 1 }, "k = {k}");
            assert!(f.disarm_crash(), "k = {k}");
            assert!(f.is_crashed(M1) && !f.is_crashed(M0), "k = {k}");
        }
        // Past the last primitive the point never fires.
        let f = fabric2();
        f.arm_crash(n + 1, &[M1]);
        assert_eq!(crash_point_script(&f.node(M0)), 12);
        assert!(!f.disarm_crash());
        assert!(!f.is_crashed(M1));
        assert_eq!(crash_point_script(&f.node(M0)), 12, "disarmed");
    }

    #[test]
    fn crash_point_without_victims_kills_only_the_issuing_op() {
        let f = fabric2();
        let n0 = f.node(M0);
        n0.lstore(x(1, 0), 7).unwrap();
        f.arm_crash(2, &[]);
        n0.load(x(1, 0)).unwrap();
        assert_eq!(
            n0.rflush(x(1, 0)),
            Err(Crashed { machine: M0 }),
            "the second primitive dies"
        );
        assert!(f.disarm_crash());
        assert!(!f.is_crashed(M0) && !f.is_crashed(M1));
        assert_eq!(f.peek_memory(x(1, 0)), 0, "the dead flush had no effect");
        assert_eq!(n0.load(x(1, 0)).unwrap(), 7, "no cache was lost");
    }

    /// Replays every step `f` logged through the model's rules —
    /// [`cell::step`] for a silent step, [`cell::force`] for anything a
    /// primitive may wait out — and demands the logged outcome; an
    /// unlocked step must have changed nothing. Each pre-state must be the
    /// one the cell's lock history left at its sequence word, and every
    /// such state but the initial one must come from a logged lock. Then
    /// replays the buffer events ([`replay_buffers`]). Returns how many
    /// unlocked and locked steps, retirements, barriers and discards were
    /// checked.
    fn replay(f: &SimFabric) -> [usize; 5] {
        let (taken, buffers) = f.taken();
        let mut states = HashMap::new();
        let mut released = std::collections::HashSet::new();
        let mut counts = [0; 2];
        for t in &taken {
            let (owner, variant) = (t.loc.owner, f.variant());
            let expected = match t.label {
                CellLabel::CacheToCache | CellLabel::CacheToMemory => {
                    cell::step(t.pre, t.issuer, owner, t.label, variant)
                }
                _ => Ok(cell::force(t.pre, t.issuer, owner, t.label, variant)),
            };
            assert_eq!(t.outcome, expected, "{t:?}");
            let post = t.outcome.map_or(t.pre, |(post, _)| post);
            let locked = t.seq % 2 == 1;
            counts[usize::from(locked)] += 1;
            assert!(locked || post == t.pre, "an unlocked step moved: {t:?}");
            let mut at = vec![(t.seq & !1, t.pre)];
            if locked {
                at.push((t.seq + 1, post));
                released.insert((t.loc, t.seq + 1));
            }
            for (seq, cell) in at {
                let known = *states.entry((t.loc, seq)).or_insert(cell);
                assert_eq!(known, cell, "two states at sequence word {seq}: {t:?}");
            }
        }
        for (&(loc, seq), &cell) in &states {
            if seq == 0 {
                assert_eq!(cell, Cell::default(), "{loc} starts zeroed");
            } else {
                assert!(released.contains(&(loc, seq)), "{loc}@{seq}: unlogged lock");
            }
        }
        let [retired, fenced, discarded] = replay_buffers(f, &buffers, &states);
        [counts[0], counts[1], retired, fenced, discarded]
    }

    /// Replays the buffer events through [`cell::step`] on one pending
    /// mask per location, in log order (each is logged under its buffer
    /// shard's lock, or with the world stopped), and checks that
    /// - every cell a barrier retires held the issuer's bit and had
    ///   drained, in a state the cell's lock history holds at that
    ///   sequence word (`states`);
    /// - a barrier returns with no request of its issuer pending that was
    ///   queued before it began;
    /// - a crash discards exactly the requests of its victims.
    ///
    /// Returns how many retirements, barriers and discards it checked.
    fn replay_buffers(
        f: &SimFabric,
        buffers: &[Buffered],
        states: &HashMap<(Loc, u64), Cell>,
    ) -> [usize; 3] {
        let variant = f.variant();
        let mut masks: HashMap<Loc, Cell> = HashMap::new();
        // Each pending request's event index (its first, if queued again).
        let mut since = HashMap::new();
        let mut discarded = Vec::new();
        let mut counts = [0; 3];
        for (at, &e) in buffers.iter().enumerate() {
            match e {
                Buffered::Queued(by, loc) => {
                    let c = masks.entry(loc).or_default();
                    *c = cell::step(*c, by, loc.owner, CellLabel::AFlush, variant)
                        .unwrap()
                        .0;
                    since.entry((by, loc)).or_insert(at);
                }
                Buffered::Began => {}
                Buffered::Retired(by, loc, (seq, drained)) => {
                    assert_eq!(states.get(&(loc, seq)), Some(&drained), "{e:?}");
                    let c = masks.entry(loc).or_default();
                    let held = Cell {
                        pending: c.pending,
                        ..drained
                    };
                    let retire = cell::step(held, by, loc.owner, CellLabel::Retire, variant);
                    c.pending = retire.unwrap_or_else(|b| panic!("{e:?}: {b:?}")).0.pending;
                    since.remove(&(by, loc));
                    counts[0] += 1;
                }
                Buffered::Fenced(by, began) => {
                    let old = since.iter().find(|(&(m, _), &t)| m == by && t < began);
                    assert_eq!(old, None, "{e:?}: an older request is pending");
                    counts[1] += 1;
                }
                Buffered::Discarded(by, loc) => discarded.push((by, loc)),
                Buffered::Crashed(victims) => {
                    let mut expected = Vec::new();
                    for (&loc, c) in &mut masks {
                        let crash = CellLabel::Crash(victims, false);
                        let post = cell::step(*c, loc.owner, loc.owner, crash, variant)
                            .unwrap()
                            .0;
                        let lost = c.pending & !post.pending;
                        let machines = (0..64).filter(|i| lost >> i & 1 != 0).map(MachineId);
                        expected.extend(machines.map(|m| (m, loc)));
                        c.pending = post.pending;
                    }
                    since.retain(|&(m, _), _| victims & 1 << m.index() == 0);
                    expected.sort_unstable();
                    discarded.sort_unstable();
                    assert_eq!(discarded, expected, "a crash of {victims:#b} discarded");
                    counts[2] += discarded.len();
                    discarded.clear();
                }
            }
        }
        counts
    }

    #[test]
    fn threaded_steps_replay_through_the_model_rules() {
        use cxl0_model::MachineConfig;
        const OPS: usize = 1500;
        for variant in ModelVariant::ALL {
            let cfg = SystemConfig::new(vec![
                MachineConfig::non_volatile(2),
                MachineConfig::volatile(2),
                MachineConfig::compute_only(),
            ]);
            let f = SimFabric::with_variant(cfg, variant);
            f.record();
            let locs = [x(0, 0), x(0, 1), x(1, 0), x(1, 1)];
            let start = Arc::new(std::sync::Barrier::new(4));
            let workers: Vec<_> = (0..3)
                .map(|m| {
                    let (node, start) = (f.node(MachineId(m)), Arc::clone(&start));
                    std::thread::spawn(move || {
                        let mut rng = StdRng::seed_from_u64(m as u64);
                        start.wait();
                        for _ in 0..OPS {
                            let loc = locs[rng.gen_range(0..locs.len())];
                            let kind = [StoreKind::Local, StoreKind::Remote, StoreKind::Memory]
                                [rng.gen_range(0..3usize)];
                            let v = rng.gen_range(1..4);
                            // A primitive of a crashed machine fails; the
                            // thread keeps issuing until it is recovered.
                            let _ = match rng.gen_range(0..10) {
                                0..=2 => node.load(loc).map(drop),
                                3 => node.store(kind, loc, v),
                                4 => node.lflush(loc),
                                5 => node.rflush(loc),
                                6 => node.cas(kind, loc, v, v + 1).map(drop),
                                7 => node.faa(kind, loc, 1).map(drop),
                                8 => node.aflush(loc),
                                _ => node.barrier().map(drop),
                            };
                        }
                    })
                })
                .collect();
            start.wait();
            for round in 0..60u64 {
                f.propagate_randomly(round, 4);
                match round % 10 {
                    3 => f.node(M0).gpf().unwrap_or(()),
                    7 => {
                        // At least one request for the crash to discard.
                        f.node(M1).aflush(x(0, 0)).unwrap();
                        f.crash(M1);
                        f.recover(M1);
                    }
                    _ => std::thread::yield_now(),
                }
            }
            for w in workers {
                w.join().unwrap();
            }
            let counts = replay(&f);
            let [unlocked, locked, retired, fenced, discarded] = counts;
            assert!(
                unlocked > OPS / 2 && locked > OPS / 2,
                "{variant}: {unlocked} + {locked}"
            );
            assert!(
                retired > 0 && fenced > 0 && discarded > 0,
                "{variant}: {counts:?}"
            );
        }
    }
}
